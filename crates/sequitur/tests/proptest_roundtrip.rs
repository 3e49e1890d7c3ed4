//! Property tests: Sequitur is lossless and maintains its invariants on
//! arbitrary inputs, with small alphabets chosen to stress repeated
//! digrams, runs of equal symbols, and rule reuse.

use orp_sequitur::Sequitur;
use proptest::prelude::*;

fn check_input(input: &[u64]) {
    let mut seq = Sequitur::new();
    seq.extend(input.iter().copied());
    seq.assert_invariants();
    let g = seq.grammar();
    assert_eq!(g.expand(), input.to_vec());
    assert_eq!(g.expanded_len(), input.len() as u64);
    assert!(
        g.size() <= input.len() as u64 + 2,
        "grammar larger than input plus slack"
    );
}

/// Pushes `input` one symbol at a time and checks every invariant,
/// the digram index included, after each push — not only at the end.
/// Then saves a second run at `cut`, restores it and continues: the
/// grammar and the checkpoint bytes must match the straight run.
fn check_stepwise(input: &[u64], cut: usize) {
    let mut whole = Sequitur::new();
    for &t in input {
        whole.push(t);
        whole.assert_invariants();
    }
    let cut = cut % (input.len() + 1);
    let mut first = Sequitur::new();
    first.extend(input[..cut].iter().copied());
    let mut saved = Vec::new();
    first.save_state(&mut saved).unwrap();
    let mut resumed = Sequitur::restore_state(&mut saved.as_slice()).unwrap();
    resumed.assert_invariants();
    resumed.extend(input[cut..].iter().copied());
    resumed.assert_invariants();
    assert_eq!(resumed.grammar(), whole.grammar());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    whole.save_state(&mut a).unwrap();
    resumed.save_state(&mut b).unwrap();
    assert_eq!(a, b, "checkpoint drift after resuming at {cut}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_invariants_hold_after_every_push_binary(
        input in proptest::collection::vec(0u64..2, 0..400),
        cut in any::<usize>(),
    ) {
        check_stepwise(&input, cut);
    }

    #[test]
    fn index_invariants_hold_after_every_push_small(
        input in proptest::collection::vec(0u64..5, 0..400),
        cut in any::<usize>(),
    ) {
        check_stepwise(&input, cut);
    }

    #[test]
    fn index_invariants_hold_after_every_push_runs(
        runs in proptest::collection::vec((0u64..3, 1usize..12), 0..40),
        cut in any::<usize>(),
    ) {
        let input: Vec<u64> = runs
            .iter()
            .flat_map(|&(sym, len)| std::iter::repeat_n(sym, len))
            .collect();
        check_stepwise(&input, cut);
    }

    #[test]
    fn roundtrip_binary_alphabet(input in proptest::collection::vec(0u64..2, 0..400)) {
        check_input(&input);
    }

    #[test]
    fn roundtrip_small_alphabet(input in proptest::collection::vec(0u64..5, 0..400)) {
        check_input(&input);
    }

    #[test]
    fn roundtrip_mixed_alphabet(input in proptest::collection::vec(0u64..64, 0..600)) {
        check_input(&input);
    }

    #[test]
    fn roundtrip_runs(
        runs in proptest::collection::vec((0u64..3, 1usize..12), 0..40)
    ) {
        let input: Vec<u64> = runs
            .iter()
            .flat_map(|&(sym, len)| std::iter::repeat_n(sym, len))
            .collect();
        check_input(&input);
    }

    #[test]
    fn roundtrip_repeated_block(
        block in proptest::collection::vec(0u64..8, 1..20),
        reps in 1usize..20,
        suffix in proptest::collection::vec(0u64..8, 0..10)
    ) {
        let mut input: Vec<u64> = Vec::new();
        for _ in 0..reps {
            input.extend_from_slice(&block);
        }
        input.extend_from_slice(&suffix);
        check_input(&input);
    }

    #[test]
    fn repeated_block_compresses(
        block in proptest::collection::vec(0u64..16, 4..16),
    ) {
        // 64 repetitions of any block must compress below half the input.
        let mut input = Vec::new();
        for _ in 0..64 {
            input.extend_from_slice(&block);
        }
        let mut seq = Sequitur::new();
        seq.extend(input.iter().copied());
        prop_assert!(seq.size() <= input.len() as u64 / 2);
        prop_assert_eq!(seq.grammar().expand(), input);
    }
}
