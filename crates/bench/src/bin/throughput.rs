//! Events-per-second throughput of the OMC translation tiers and of
//! collection on the calling thread against collection on sharded lanes
//! and grammar workers, written to `results/BENCH_throughput.json`.
//!
//! The workload is a pointer-chasing traversal of a scrambled linked
//! list with a field scan at every node: chasing `->next` lands each
//! step on an unpredictable node — the shape that makes an ordered-map
//! predecessor query hurt while the page-granular index stays cheap —
//! and the payload scan re-touches the node just reached with one loop
//! instruction, the repeated-operand shape the per-instruction MRU memo
//! exists for.
//!
//! Sections:
//!
//! * **raw translate** — the three translation tiers head-to-head
//!   (`Omc::translate_reference`, the `BTreeMap` oracle; the page
//!   index; the MRU memo) on that query stream, plus a hot-field stream
//!   where the memo is essentially always hot;
//! * **WHOMP collection** — translate, decompose by instruction and
//!   deliver the or-tuple streams (`VecOrSink`);
//! * **WHOMP grammar collection** — the same into the per-instruction
//!   hybrid grammars;
//! * **LEAP collection** — the same into the LMAD profiler;
//! * **WHOMP grammar pipeline** — end-to-end OMSG grammar mode with the
//!   four dimension grammars built inline vs on 1/2/4 `PipelinedWhomp`
//!   grammar workers.
//!
//! Every collection section's baseline is the inline fast path: a
//! `Cdc` on the calling thread, the best serial path a run has. The
//! collection sections put it beside `ShardedCdc` at 1/2/4/8 lanes, the
//! grammar pipeline beside 1/2/4 workers, and every ratio is a median
//! over the inline median. Each configuration is timed in `REPS`
//! interleaved rounds (`orp_bench::measure_interleaved`) and reported
//! as min, median and max. The threaded configurations only gain where
//! the host has CPUs to spare, so the run records
//! `available_parallelism`; where extra lanes are slower than inline,
//! the curve says so.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::hint::black_box;

use orp_bench::{measure_interleaved, Spread};
use orp_core::sharded::{ShardableSink, ShardedCdc};
use orp_core::{Cdc, Omc, Session, Timestamp, VecOrSink};
use orp_leap::LeapProfiler;
use orp_trace::{AccessEvent, AllocSiteId, InstrId, ProbeEvent, ProbeSink, RawAddress};
use orp_whomp::{HybridProfiler, PipelinedWhomp, WhompProfiler};

/// Live heap objects (list nodes): big enough that the reference
/// `BTreeMap` walk leaves cache on every chase step.
const NODES: u64 = 50_000;
/// Nodes on the traversed list (the full heap: every object is visited
/// once per pass, in scrambled order).
const CHASED: u64 = NODES;
/// Traversal passes over the (fixed) chase order.
const PASSES: u64 = 1;
/// Payload words read (by one scan-loop instruction) per node visited.
const FIELDS: u64 = 4;
/// Node pitch in the simulated heap; payload is 48 of the 64 bytes.
const NODE_PITCH: u64 = 64;
const NODE_SIZE: u64 = 48;
const HEAP_BASE: u64 = 0x10_0000;
/// Event-stream prefix used for the grammar-sink collection modes
/// (grammar construction is ~10x the per-event cost of stream
/// collection; a prefix keeps the harness runtime bounded).
const GRAMMAR_EVENTS: usize = 150_000;
/// Interleaved timing rounds per configuration (odd, so the median is
/// one of them).
const REPS: usize = 5;
/// Minimum measured interval per round.
const MIN_SECS: f64 = 0.15;

fn node_base(node: u64) -> u64 {
    HEAP_BASE + node * NODE_PITCH
}

/// The `i`-th node the traversal visits: a fixed pseudo-random walk
/// over a scattered subset of the heap (383 is coprime with `CHASED`
/// and 12289 with `NODES`, so the walk hits `CHASED` distinct nodes
/// and consecutive steps share no locality — what chasing `->next`
/// through an aged heap looks like).
fn chase_order(i: u64) -> u64 {
    ((i * 383) % CHASED) * 12289 % NODES
}

/// The timed probe-event stream: `PASSES` traversals of the scrambled
/// list; per node, instruction 0 loads the next pointer, then
/// instruction 1 (a scan loop) reads `FIELDS` consecutive payload
/// words of the node just reached. Allocation of the heap itself
/// happens once, up front, in [`populated_omc`] — the profiler attaches
/// to a program with a large live heap.
fn build_events() -> Vec<ProbeEvent> {
    let mut events = Vec::with_capacity(((1 + FIELDS) * CHASED * PASSES) as usize);
    for _ in 0..PASSES {
        for i in 0..CHASED {
            let base = node_base(chase_order(i));
            events.push(ProbeEvent::Access(AccessEvent::load(
                InstrId(0),
                RawAddress(base),
                8,
            )));
            for f in 0..FIELDS {
                events.push(ProbeEvent::Access(AccessEvent::load(
                    InstrId(1),
                    RawAddress(base + 8 * (f + 1)),
                    8,
                )));
            }
        }
    }
    events
}

// ---------------------------------------------------------------------
// Raw translation
// ---------------------------------------------------------------------

/// The populated OMC every measurement runs against.
fn populated_omc() -> Omc {
    let mut omc = Omc::new();
    for k in 0..NODES {
        omc.on_alloc(
            AllocSiteId((k % 8) as u32),
            node_base(k),
            NODE_SIZE,
            Timestamp(k),
        )
        .expect("disjoint heap");
    }
    omc
}

/// The collection stream's accesses as raw translation queries.
fn chase_queries(events: &[ProbeEvent]) -> Vec<(InstrId, u64)> {
    events
        .iter()
        .filter_map(|ev| match ev {
            ProbeEvent::Access(a) => Some((a.instr, a.addr.0)),
            _ => None,
        })
        .collect()
}

/// Hot-field queries: each of 8 instructions re-reads fields of its own
/// node — the repeated-operand shape where the MRU memo is always hot.
fn hot_field_queries() -> Vec<(InstrId, u64)> {
    (0..800_000u64)
        .map(|i| {
            let instr = (i % 8) as u32;
            (
                InstrId(instr),
                node_base(u64::from(instr) * 1013) + i % NODE_SIZE,
            )
        })
        .collect()
}

/// The translation tiers, slowest first: the `BTreeMap` oracle, the
/// page index, the MRU memo.
const TIERS: [&str; 3] = ["reference_btreemap", "page_index", "mru_memo"];

/// Each of [`TIERS`]' query rates on `queries`.
fn measure_translate(omc: &Omc, queries: &[(InstrId, u64)]) -> Vec<Spread> {
    let omc = RefCell::new(omc.clone());
    let mut reference = || {
        let omc = omc.borrow();
        let mut hits = 0u64;
        for &(_, addr) in queries {
            hits += u64::from(omc.translate_reference(black_box(addr)).is_some());
        }
        hits
    };
    let mut page = || {
        let omc = omc.borrow();
        let mut hits = 0u64;
        for &(_, addr) in queries {
            hits += u64::from(omc.translate(black_box(addr)).is_some());
        }
        hits
    };
    let mut memo = || {
        let mut omc = omc.borrow_mut();
        let mut hits = 0u64;
        for &(instr, addr) in queries {
            hits += u64::from(omc.translate_cached(instr, black_box(addr)).is_some());
        }
        hits
    };
    measure_interleaved(
        REPS,
        MIN_SECS,
        queries.len() as u64,
        &mut [&mut reference, &mut page, &mut memo],
    )
    .spreads()
}

// ---------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------

fn replay(probe: &mut impl ProbeSink, events: &[ProbeEvent]) {
    for &ev in events {
        probe.event(ev);
    }
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const GRAMMAR_WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// The seed's end-to-end grammar-mode throughput (Mev/s), the fixed
/// figure the 5x acceptance bit is taken against.
const SEED_GRAMMAR_MEPS: f64 = 0.44;

/// One section's rates: the inline fast-path `Cdc` (the baseline) and
/// the same collection at each lane or worker count.
struct Curve {
    inline: Spread,
    threaded: Vec<(usize, Spread)>,
}

impl Curve {
    /// `spreads` holds the inline rate, then one per entry of `counts`.
    fn new(counts: &[usize], spreads: &[Spread]) -> Curve {
        Curve {
            inline: spreads[0],
            threaded: counts.iter().copied().zip(spreads[1..].to_vec()).collect(),
        }
    }

    fn at(&self, count: usize) -> Spread {
        self.threaded
            .iter()
            .find(|&&(c, _)| c == count)
            .expect("measured count")
            .1
    }

    /// The section's rate and ratio fields, the threaded ones under
    /// `<kind>_meps` and `<kind>_speedup_over_inline`.
    fn json_fields(&self, kind: &str) -> String {
        let rates: Vec<String> = self
            .threaded
            .iter()
            .map(|(n, s)| format!("\"{n}\": {}", s.meps_json()))
            .collect();
        let ratios: Vec<String> = self
            .threaded
            .iter()
            .map(|(n, s)| format!("\"{n}\": {}", ratio(s.median, self.inline.median)))
            .collect();
        format!(
            concat!(
                "    \"inline_meps\": {},\n",
                "    \"{kind}_meps\": {{\n      {}\n    }},\n",
                "    \"{kind}_speedup_over_inline\": {{ {} }}"
            ),
            self.inline.meps_json(),
            rates.join(",\n      "),
            ratios.join(", "),
            kind = kind,
        )
    }

    fn print(&self, name: &str, kind: &str) {
        println!("{name:>14}: inline {:>22} Mev/s", self.inline.meps());
        for (n, s) in &self.threaded {
            println!(
                "{:>14}  {kind} x{n}: {:>22} Mev/s ({}x inline)",
                "",
                s.meps(),
                ratio(s.median, self.inline.median),
            );
        }
    }
}

/// Measures one sink kind inline and at each of [`SHARD_COUNTS`]. The
/// timed stream contains no alloc/free probes, so one OMC is threaded
/// through every sweep (only its MRU memo mutates — a warm memo is the
/// steady state being measured) instead of cloning the heap's object
/// table inside the timed region.
fn measure_collection<S, M>(omc: &Omc, events: &[ProbeEvent], make_sink: M) -> Curve
where
    S: ShardableSink,
    M: Fn() -> S + Copy,
{
    // Every configuration must collect the inline run's tuples.
    let want = {
        let mut cdc = Cdc::new(omc.clone(), make_sink());
        replay(&mut cdc, events);
        assert!(cdc.time().0 > 0 && cdc.untracked() == 0 && cdc.probe_anomalies() == 0);
        cdc.time().0
    };
    let check = move |collected: u64| {
        assert_eq!(collected, want, "configs must collect identical streams");
        collected
    };

    let slot = RefCell::new(Some(omc.clone()));
    let take = || slot.borrow_mut().take().expect("omc threaded");
    let put = |omc: Omc| *slot.borrow_mut() = Some(omc);

    let mut inline = || {
        let mut cdc = Cdc::new(take(), make_sink());
        replay(&mut cdc, events);
        let collected = cdc.time().0;
        put(cdc.into_parts().0);
        check(collected)
    };
    let mut sharded: Vec<Box<dyn FnMut() -> u64 + '_>> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            Box::new(move || {
                let session = Session::with_omc(take(), make_sink());
                let mut probe = ShardedCdc::spawn(session, shards);
                replay(&mut probe, events);
                let cdc = probe.join().expect("pipeline healthy").session.into_cdc();
                let collected = cdc.time().0;
                put(cdc.into_parts().0);
                check(collected)
            }) as Box<dyn FnMut() -> u64 + '_>
        })
        .collect();

    let mut sweeps: Vec<&mut dyn FnMut() -> u64> = vec![&mut inline];
    sweeps.extend(
        sharded
            .iter_mut()
            .map(|run| run.as_mut() as &mut dyn FnMut() -> u64),
    );
    let spreads = measure_interleaved(REPS, MIN_SECS, events.len() as u64, &mut sweeps).spreads();
    Curve::new(&SHARD_COUNTS, &spreads)
}

/// End-to-end OMSG grammar mode: translation plus all four dimension
/// grammars, inline and at each of [`GRAMMAR_WORKER_COUNTS`]. The timed
/// region includes the final drain and join — the cost a real run pays
/// before it can serialize.
fn measure_grammar_pipeline(omc: &Omc, events: &[ProbeEvent]) -> Curve {
    let slot = RefCell::new(Some(omc.clone()));
    let take = || slot.borrow_mut().take().expect("omc threaded");
    let put = |omc: Omc| *slot.borrow_mut() = Some(omc);

    let mut inline = || {
        let mut cdc = Cdc::new(take(), WhompProfiler::new());
        replay(&mut cdc, events);
        let collected = cdc.time().0;
        let (omc, profiler) = cdc.into_parts();
        black_box(profiler.total_size());
        put(omc);
        collected
    };
    let mut pipelined: Vec<Box<dyn FnMut() -> u64 + '_>> = GRAMMAR_WORKER_COUNTS
        .iter()
        .map(|&workers| {
            Box::new(move || {
                let mut cdc = Cdc::new(take(), PipelinedWhomp::spawn(workers));
                replay(&mut cdc, events);
                let collected = cdc.time().0;
                let (omc, pipe) = cdc.into_parts();
                let (profiler, _) = pipe.try_join().expect("pipeline healthy");
                black_box(profiler.total_size());
                put(omc);
                collected
            }) as Box<dyn FnMut() -> u64 + '_>
        })
        .collect();

    let mut sweeps: Vec<&mut dyn FnMut() -> u64> = vec![&mut inline];
    sweeps.extend(
        pipelined
            .iter_mut()
            .map(|run| run.as_mut() as &mut dyn FnMut() -> u64),
    );
    let spreads = measure_interleaved(REPS, MIN_SECS, events.len() as u64, &mut sweeps).spreads();
    Curve::new(&GRAMMAR_WORKER_COUNTS, &spreads)
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

fn ratio(num: f64, den: f64) -> String {
    format!("{:.2}", num / den)
}

fn translate_json(tiers: &[Spread]) -> String {
    let rates: Vec<String> = TIERS
        .iter()
        .zip(tiers)
        .map(|(name, s)| format!("      \"{name}_meps\": {},\n", s.meps_json()))
        .collect();
    format!(
        "{{\n{}      \"page_index_speedup\": {},\n      \"mru_memo_speedup\": {}\n    }}",
        rates.concat(),
        ratio(tiers[1].median, tiers[0].median),
        ratio(tiers[2].median, tiers[0].median),
    )
}

fn print_translate(name: &str, tiers: &[Spread]) {
    let cols: Vec<String> = TIERS
        .iter()
        .zip(tiers)
        .map(|(tier, s)| {
            format!(
                "{tier} {} Mq/s ({}x)",
                s.meps(),
                ratio(s.median, tiers[0].median)
            )
        })
        .collect();
    println!("translate/{name}: {}", cols.join(" | "));
}

fn collection_json(c: &Curve, events: usize) -> String {
    format!(
        "{{\n    \"timed_events\": {events},\n{}\n  }}",
        c.json_fields("sharded")
    )
}

fn main() -> std::process::ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("populating {NODES}-object heap...");
    let omc = populated_omc();
    let events = build_events();
    let grammar_events = &events[..GRAMMAR_EVENTS.min(events.len())];
    println!(
        "== Throughput: {} live objects, {}-node chase x{} fields, {} timed events, {} core(s); \
         median (min-max) of {REPS} interleaved rounds ==\n",
        NODES,
        CHASED,
        FIELDS,
        events.len(),
        cores
    );

    let chase = measure_translate(&omc, &chase_queries(&events));
    print_translate("chase", &chase);
    let hot = measure_translate(&omc, &hot_field_queries());
    print_translate("hot", &hot);
    println!();

    let whomp = measure_collection(&omc, &events, VecOrSink::new);
    whomp.print("whomp", "sharded");
    let whomp_grammar = measure_collection(&omc, grammar_events, HybridProfiler::new);
    whomp_grammar.print("whomp+grammar", "sharded");
    let leap = measure_collection(&omc, &events, LeapProfiler::new);
    leap.print("leap", "sharded");
    let gpipe = measure_grammar_pipeline(&omc, grammar_events);
    gpipe.print("whomp grammar", "workers");
    let seed_eps = SEED_GRAMMAR_MEPS * 1e6;
    println!(
        "{:>14}  workers x4 over the {SEED_GRAMMAR_MEPS} Mev/s seed: {}x; \
         inline collection over workers x4: {}x",
        "",
        ratio(gpipe.at(4).median, seed_eps),
        ratio(whomp.inline.median, gpipe.at(4).median),
    );

    let translate_ok = chase[2].median >= 3.0 * chase[0].median;
    let gpipe_ok = gpipe.at(4).median >= 5.0 * seed_eps;
    println!(
        "\nacceptance: memo translate >= 3x reference: {translate_ok}; \
         4-worker grammar pipeline >= 5x the {SEED_GRAMMAR_MEPS} Mev/s seed: {gpipe_ok}"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"throughput\",\n",
            "  \"available_parallelism\": {},\n",
            "  \"reps\": {},\n",
            "  \"baseline\": \"inline fast-path collection: one orp_core::Cdc on the calling thread translating through Omc::translate_cached; every sharded and pipelined ratio is its median over the inline median\",\n",
            "  \"note\": \"each *_meps entry is min, median and max Mev/s (raw_translate: Mq/s) over reps interleaved rounds of at least {} s; raw_translate ratios are medians over the reference_btreemap oracle's median; sharded_meps runs ShardedCdc (a translator thread plus N lane threads), pipelined_meps runs PipelinedWhomp on N grammar workers; the 5x bit compares the 4-worker median with the seed's fixed {} Mev/s\",\n",
            "  \"workload\": {{ \"live_objects\": {}, \"chased_nodes\": {}, \"fields_per_node\": {}, \"timed_events\": {} }},\n",
            "  \"raw_translate\": {{\n",
            "    \"pointer_chase\": {},\n",
            "    \"hot_field\": {}\n",
            "  }},\n",
            "  \"whomp_collection\": {},\n",
            "  \"whomp_grammar_collection\": {},\n",
            "  \"leap_collection\": {},\n",
            "  \"whomp_grammar_pipeline\": {{\n",
            "    \"timed_events\": {},\n",
            "    \"seed_grammar_meps\": {},\n",
            "{},\n",
            "    \"pipelined_4_speedup_over_seed\": {},\n",
            "    \"collection_gap_4\": {}\n",
            "  }},\n",
            "  \"acceptance\": {{\n",
            "    \"fastpath_translate_3x_reference\": {},\n",
            "    \"grammar_pipeline_4_workers_5x_seed\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        cores,
        REPS,
        MIN_SECS,
        SEED_GRAMMAR_MEPS,
        NODES,
        CHASED,
        FIELDS,
        events.len(),
        translate_json(&chase),
        translate_json(&hot),
        collection_json(&whomp, events.len()),
        collection_json(&whomp_grammar, grammar_events.len()),
        collection_json(&leap, events.len()),
        grammar_events.len(),
        SEED_GRAMMAR_MEPS,
        gpipe.json_fields("pipelined"),
        ratio(gpipe.at(4).median, seed_eps),
        ratio(whomp.inline.median, gpipe.at(4).median),
        translate_ok,
        gpipe_ok,
    );
    match orp_bench::write_result_artifacts("throughput", &json) {
        Ok(path) => {
            println!();
            println!("wrote {}", path.display());
            std::process::ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::ExitCode::FAILURE
        }
    }
}
