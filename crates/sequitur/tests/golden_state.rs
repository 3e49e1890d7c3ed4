//! Golden-file guard for the compressor's checkpoint format and for the
//! exact sequence of grammar edits behind it.
//!
//! `tests/fixtures/golden_state.bin` holds three sections, each a
//! varint length followed by its bytes: a mid-stream
//! [`Sequitur::save_state`] checkpoint, the final checkpoint, and the
//! final grammar's [`Grammar::write_to`](orp_sequitur::Grammar::write_to)
//! payload, all from one fixed, RNG-free input. A checkpoint records
//! every arena slot, free list and digram-index entry, so any change to
//! which node a rewrite reuses or which occurrence the index keeps
//! shows up here as a byte difference, even when the grammar is the
//! same. An intentional change must refresh the fixture:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p orp-sequitur --test golden_state
//! ```

use std::path::PathBuf;

use orp_sequitur::{read_varint, write_varint, Grammar, Sequitur};

const FIXTURE: &str = "golden_state.bin";

/// The one terminal above 2^62: it goes through the intern table.
const BIG: u64 = (1 << 62) + 12_345;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE)
}

/// A fixed input touching every rewrite the compressor makes: a long
/// run of one symbol (overlapping digrams and run restoration), a
/// period-5 block (a deep rule hierarchy and rule reuse), an
/// interleaved alphabet whose period shifts so rules form and are then
/// inlined by rule utility, and an interned large terminal inside
/// repeated digrams.
fn golden_input() -> Vec<u64> {
    let mut input = vec![7u64; 200];
    input.extend(std::iter::repeat_n([3u64, 1, 4, 1, 5], 60).flatten());
    input.extend((0..300u64).map(|i| if i % 2 == 0 { i % 6 } else { 100 + i % 4 }));
    input.extend((0..240u64).map(|i| if i % 3 == 0 { i % 7 } else { 100 + i % 5 }));
    for k in 0..40u64 {
        input.extend_from_slice(&[1, 2, 3, 4]);
        input.extend_from_slice(&[2, 3, 1, 2][..1 + (k % 4) as usize]);
        input.extend_from_slice(&[BIG, 9, BIG, k % 3]);
    }
    input.extend(std::iter::repeat_n(7u64, 33));
    input
}

/// Where the mid-stream checkpoint is taken: halfway through the first
/// interleaved alphabet, after the run and the period-5 block.
const CUT: usize = 200 + 300 + 150;

fn checkpoint(seq: &Sequitur) -> Vec<u8> {
    let mut out = Vec::new();
    seq.save_state(&mut out).unwrap();
    out
}

/// The three sections the fixture holds, in order.
fn golden_sections() -> [Vec<u8>; 3] {
    let input = golden_input();
    let mut seq = Sequitur::new();
    seq.extend(input[..CUT].iter().copied());
    seq.assert_invariants();
    let mid = checkpoint(&seq);
    seq.extend(input[CUT..].iter().copied());
    seq.assert_invariants();
    let end = checkpoint(&seq);
    let grammar = seq.into_grammar();
    assert_eq!(grammar.expand(), input, "lossless round-trip failed");
    let mut grammar_bytes = Vec::new();
    grammar.write_to(&mut grammar_bytes).unwrap();
    [mid, end, grammar_bytes]
}

fn encode(sections: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for s in sections {
        write_varint(&mut out, s.len() as u64).unwrap();
        out.extend_from_slice(s);
    }
    out
}

fn read_fixture() -> [Vec<u8>; 3] {
    let bytes = std::fs::read(fixture_path()).expect(
        "fixture missing; regenerate with UPDATE_GOLDEN=1 cargo test -p orp-sequitur --test golden_state",
    );
    let mut r = bytes.as_slice();
    let mut section = || {
        let len = usize::try_from(read_varint(&mut r).unwrap()).unwrap();
        let (head, tail) = r.split_at(len);
        r = tail;
        head.to_vec()
    };
    let sections = [section(), section(), section()];
    assert!(r.is_empty(), "trailing bytes after the third section");
    sections
}

#[test]
fn golden_state_bytes_are_stable() {
    let sections = golden_sections();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(fixture_path(), encode(&sections)).expect("write fixture");
        return;
    }
    let [mid, end, grammar] = read_fixture();
    let [new_mid, new_end, new_grammar] = sections;
    assert!(
        new_mid == mid,
        "mid-stream checkpoint differs from {FIXTURE}"
    );
    assert!(new_end == end, "final checkpoint differs from {FIXTURE}");
    assert!(
        new_grammar == grammar,
        "grammar bytes differ from {FIXTURE}"
    );
}

#[test]
fn golden_mid_checkpoint_resumes_to_the_golden_end() {
    let [mid, end, grammar] = read_fixture();
    let input = golden_input();
    let mut seq = Sequitur::restore_state(&mut mid.as_slice()).expect("mid checkpoint restores");
    seq.assert_invariants();
    seq.extend(input[CUT..].iter().copied());
    assert!(
        checkpoint(&seq) == end,
        "resumed run drifts from the final checkpoint"
    );
    let restored = Sequitur::restore_state(&mut end.as_slice()).expect("final checkpoint restores");
    assert_eq!(restored.grammar(), seq.grammar());
    assert_eq!(
        Grammar::read_from(&mut grammar.as_slice()).unwrap(),
        seq.into_grammar()
    );
}
