//! Events-per-second throughput for the OMC translation fast path and
//! the sharded collection pipeline, written to
//! `results/BENCH_throughput.json` (the tracked benchmark trajectory).
//!
//! The workload is a pointer-chasing traversal of a scrambled linked
//! list with a field scan at every node: chasing `->next` lands each
//! step on an unpredictable node — the shape that makes the seed's
//! per-event `BTreeMap` predecessor query hurt while the page-granular
//! index stays cheap — and the payload scan re-touches the node just
//! reached with one loop instruction, the repeated-operand shape the
//! per-instruction MRU memo exists for.
//!
//! Sections:
//!
//! * **raw translate** — the three translation paths head-to-head on
//!   that query stream, plus a hot-field stream where the memo is
//!   essentially always hot;
//! * **WHOMP collection** — the collection stage proper: translate,
//!   decompose by instruction, deliver the or-tuple streams
//!   (`VecOrSink`), at 1/2/4/8 shards;
//! * **WHOMP grammar collection** — end-to-end into the per-instruction
//!   hybrid grammars;
//! * **WHOMP grammar pipeline** — end-to-end OMSG grammar mode with the
//!   four dimension grammars built inline vs on 1/2/4 pipelined grammar
//!   workers (`PipelinedWhomp::spawn(n)`; `run --profiler whomp` takes
//!   `PipelinedWhomp::default_workers()`), including the
//!   grammar-vs-collection gap;
//! * **LEAP collection** — the same stream into the LMAD profiler.
//!
//! The collection baseline ("single shard") is the **seed-equivalent**
//! pipeline: a single worker on a bounded channel — the seed's
//! one-worker collection thread, reproduced here — translating through
//! `Omc::translate_reference`,
//! the ordered-map path the seed used. Inline (non-pipelined) reference
//! and fast-path collectors are reported alongside. Grammar construction (the sink) is identical compression work
//! in every configuration, so on a single-core host (this harness
//! records `available_parallelism`) the grammar-bound modes sit near 1x
//! by construction — the fast path's win shows in the collection-stage
//! numbers, and on a multi-core box the sharded numbers additionally
//! reflect true parallelism.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

use orp_core::sharded::ShardedCdc;
use orp_core::{Cdc, Omc, OrSink, OrTuple, Session, Timestamp, VecOrSink};
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
/// Timing repetitions per configuration (best-of).
const REPS: usize = 5;
/// Minimum measured interval per repetition.
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

/// One timed repetition: repeats `sweep` (processing `per_sweep`
/// events per call) until at least `MIN_SECS` elapses, returning
/// events/second.
fn time_round(per_sweep: u64, sweep: &mut dyn FnMut() -> u64) -> f64 {
    let mut done = 0u64;
    let t0 = Instant::now();
    loop {
        black_box(sweep());
        done += per_sweep;
        if t0.elapsed().as_secs_f64() >= MIN_SECS {
            break;
        }
    }
    done as f64 / t0.elapsed().as_secs_f64()
}

/// Best-of-`REPS` for several configurations measured *interleaved*:
/// each round times every configuration once before the next round
/// starts. The reported numbers are ratios between configurations, and
/// the configurations together take minutes to measure — sequential
/// best-of lets background load drift bias a ratio even when every
/// individual number is sound. Round-robin sampling gives every
/// configuration a repetition in every load regime, so the per-config
/// minima land in the same (quietest) regime and the ratios hold
/// still.
fn measure_interleaved(per_sweep: u64, sweeps: &mut [&mut dyn FnMut() -> u64]) -> Vec<f64> {
    for sweep in sweeps.iter_mut() {
        black_box(sweep()); // warm-up
    }
    let mut best = vec![0f64; sweeps.len()];
    for _ in 0..REPS {
        for (slot, sweep) in best.iter_mut().zip(sweeps.iter_mut()) {
            *slot = slot.max(time_round(per_sweep, *sweep));
        }
    }
    best
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

struct TranslateEps {
    reference_btreemap: f64,
    page_index: f64,
    mru_memo: f64,
}

fn measure_translate(omc: &Omc, queries: &[(InstrId, u64)]) -> TranslateEps {
    let omc = std::cell::RefCell::new(omc.clone());
    let n = queries.len() as u64;
    let mut reference = || {
        let omc = omc.borrow_mut();
        let mut hits = 0u64;
        for &(_, addr) in queries {
            hits += u64::from(omc.translate_reference(black_box(addr)).is_some());
        }
        hits
    };
    let mut page = || {
        let omc = omc.borrow_mut();
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
    let eps = measure_interleaved(n, &mut [&mut reference, &mut page, &mut memo]);
    TranslateEps {
        reference_btreemap: eps[0],
        page_index: eps[1],
        mru_memo: eps[2],
    }
}

// ---------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------

/// The seed-equivalent collector: inline CDC logic, but translating
/// through the `BTreeMap` reference path — what collection cost before
/// this change.
struct ReferenceCdc<S> {
    omc: Omc,
    sink: S,
    time: u64,
    untracked: u64,
    anomalies: u64,
}

impl<S: OrSink> ReferenceCdc<S> {
    fn new(omc: Omc, sink: S) -> Self {
        ReferenceCdc {
            omc,
            sink,
            time: 0,
            untracked: 0,
            anomalies: 0,
        }
    }

    fn event(&mut self, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::Access(a) => match self.omc.translate_reference(a.addr.0) {
                Some((group, object, offset)) => {
                    let tuple = OrTuple {
                        instr: a.instr,
                        kind: a.kind,
                        group,
                        object,
                        offset,
                        time: Timestamp(self.time),
                        size: a.size,
                    };
                    self.time += 1;
                    self.sink.tuple(&tuple);
                }
                None => self.untracked += 1,
            },
            ProbeEvent::Alloc(a) => {
                if self
                    .omc
                    .on_alloc(a.site, a.base.0, a.size, Timestamp(self.time))
                    .is_err()
                {
                    self.anomalies += 1;
                }
            }
            ProbeEvent::Free(f) => {
                if self.omc.on_free(f.base.0, Timestamp(self.time)).is_err() {
                    self.anomalies += 1;
                }
            }
        }
    }
}

/// The seed's collection pipeline: one worker on a bounded channel —
/// the seed's one-worker collection thread — with the worker translating
/// through the `BTreeMap` reference path. This is the "single shard"
/// the sharded collector is measured against, pipeline for pipeline.
struct ThreadedReferenceCdc<S> {
    tx: Option<std::sync::mpsc::SyncSender<Vec<ProbeEvent>>>,
    batch: Vec<ProbeEvent>,
    handle: Option<std::thread::JoinHandle<ReferenceCdc<S>>>,
}

/// Same batching geometry as the sharded pipeline's probe side.
const BASELINE_BATCH: usize = 4096;
const BASELINE_QUEUE: usize = 8;

impl<S: OrSink + Send + 'static> ThreadedReferenceCdc<S> {
    fn spawn(omc: Omc, sink: S) -> Self {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<ProbeEvent>>(BASELINE_QUEUE);
        let handle = std::thread::spawn(move || {
            let mut cdc = ReferenceCdc::new(omc, sink);
            while let Ok(batch) = rx.recv() {
                for ev in &batch {
                    cdc.event(ev);
                }
            }
            cdc
        });
        ThreadedReferenceCdc {
            tx: Some(tx),
            batch: Vec::with_capacity(BASELINE_BATCH),
            handle: Some(handle),
        }
    }

    fn event(&mut self, ev: &ProbeEvent) {
        self.batch.push(*ev);
        if self.batch.len() >= BASELINE_BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let full = std::mem::replace(&mut self.batch, Vec::with_capacity(BASELINE_BATCH));
        self.tx
            .as_ref()
            .expect("pipeline open")
            .send(full)
            .expect("worker alive");
    }

    fn join(mut self) -> ReferenceCdc<S> {
        self.flush();
        drop(self.tx.take());
        self.handle
            .take()
            .expect("not yet joined")
            .join()
            .expect("worker healthy")
    }
}

fn replay<P: ProbeSink>(probe: &mut P, events: &[ProbeEvent]) {
    for ev in events {
        match *ev {
            ProbeEvent::Access(a) => probe.access(a),
            ProbeEvent::Alloc(a) => probe.alloc(a),
            ProbeEvent::Free(f) => probe.free(f),
        }
    }
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct CollectionEps {
    /// Seed-equivalent baseline: single-worker channel pipeline,
    /// reference translation in the worker.
    single_shard_reference: f64,
    /// Inline (no pipeline) with reference translation.
    inline_reference: f64,
    /// Inline with the fast path — the pure translation win.
    inline_fastpath: f64,
    /// `ShardedCdc` at each entry of [`SHARD_COUNTS`].
    sharded: Vec<f64>,
}

impl CollectionEps {
    fn sharded_at(&self, shards: usize) -> f64 {
        self.sharded[SHARD_COUNTS
            .iter()
            .position(|&s| s == shards)
            .expect("measured shard count")]
    }
}

/// Measures one sink kind across the collector configurations. The
/// timed stream contains no alloc/free probes, so one OMC is threaded
/// through every sweep (only its MRU memo mutates — a warm memo is the
/// steady state being measured) instead of cloning the million-object
/// table inside the timed region.
fn measure_collection<S, M>(omc: &Omc, events: &[ProbeEvent], make_sink: M) -> CollectionEps
where
    S: orp_core::ShardableSink,
    M: Fn() -> S + Copy,
{
    let n = events.len() as u64;

    // Every configuration must collect the same number of tuples.
    let want = {
        let mut cdc = ReferenceCdc::new(omc.clone(), make_sink());
        for ev in events {
            cdc.event(ev);
        }
        assert!(cdc.time > 0 && cdc.untracked == 0 && cdc.anomalies == 0);
        cdc.time
    };
    let check = move |collected: u64| {
        assert_eq!(collected, want, "configs must collect identical streams");
        collected
    };

    let slot = std::cell::RefCell::new(Some(omc.clone()));
    let take = || slot.borrow_mut().take().expect("omc threaded");
    let put = |omc: Omc| *slot.borrow_mut() = Some(omc);

    let mut single_shard_reference = || {
        let mut probe = ThreadedReferenceCdc::spawn(take(), make_sink());
        for ev in events {
            probe.event(ev);
        }
        let cdc = probe.join();
        let collected = cdc.time;
        put(cdc.omc);
        check(collected)
    };
    let mut inline_reference = || {
        let mut cdc = ReferenceCdc::new(take(), make_sink());
        for ev in events {
            cdc.event(ev);
        }
        let collected = cdc.time;
        put(cdc.omc);
        check(collected)
    };
    let mut inline_fastpath = || {
        let mut cdc = Cdc::new(take(), make_sink());
        replay(&mut cdc, events);
        let collected = cdc.time().0;
        put(cdc.into_parts().0);
        check(collected)
    };
    let mut sharded_runs: Vec<Box<dyn FnMut() -> u64 + '_>> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            Box::new(move || {
                let session = Session::with_omc(take(), make_sink());
                let mut probe = ShardedCdc::spawn(session, shards, move |_| make_sink());
                replay(&mut probe, events);
                let cdc = probe.join().expect("pipeline healthy").session.into_cdc();
                let collected = cdc.time().0;
                put(cdc.into_parts().0);
                check(collected)
            }) as Box<dyn FnMut() -> u64 + '_>
        })
        .collect();

    let mut sweeps: Vec<&mut dyn FnMut() -> u64> = vec![
        &mut single_shard_reference,
        &mut inline_reference,
        &mut inline_fastpath,
    ];
    for run in &mut sharded_runs {
        sweeps.push(run.as_mut());
    }
    let eps = measure_interleaved(n, &mut sweeps);
    CollectionEps {
        single_shard_reference: eps[0],
        inline_reference: eps[1],
        inline_fastpath: eps[2],
        sharded: eps[3..].to_vec(),
    }
}

const GRAMMAR_WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// The seed's end-to-end grammar-mode throughput (MEPS), the fixed
/// baseline the pipelined acceptance ratio is taken against.
const SEED_GRAMMAR_MEPS: f64 = 0.44;

struct GrammarPipelineEps {
    /// Grammars built inline on the collection thread (the sequential
    /// `--profiler whomp` default).
    inline: f64,
    /// `PipelinedWhomp` at each entry of [`GRAMMAR_WORKER_COUNTS`].
    pipelined: Vec<f64>,
}

impl GrammarPipelineEps {
    fn pipelined_at(&self, workers: usize) -> f64 {
        self.pipelined[GRAMMAR_WORKER_COUNTS
            .iter()
            .position(|&w| w == workers)
            .expect("measured worker count")]
    }
}

/// End-to-end OMSG grammar mode: translation plus all four dimension
/// grammars, inline vs pipelined. The timed region includes the final
/// drain and join — the cost a real run pays before it can serialize.
fn measure_grammar_pipeline(omc: &Omc, events: &[ProbeEvent]) -> GrammarPipelineEps {
    let n = events.len() as u64;
    let slot = std::cell::RefCell::new(Some(omc.clone()));
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
    let mut pipelined_runs: Vec<Box<dyn FnMut() -> u64 + '_>> = GRAMMAR_WORKER_COUNTS
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
    for run in &mut pipelined_runs {
        sweeps.push(run.as_mut());
    }
    let eps = measure_interleaved(n, &mut sweeps);
    GrammarPipelineEps {
        inline: eps[0],
        pipelined: eps[1..].to_vec(),
    }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

fn meps(eps: f64) -> String {
    format!("{:.2}", eps / 1e6)
}

fn ratio(num: f64, den: f64) -> String {
    format!("{:.2}", num / den)
}

fn translate_json(t: &TranslateEps) -> String {
    format!(
        concat!(
            "{{\n",
            "      \"reference_btreemap_meps\": {},\n",
            "      \"page_index_meps\": {},\n",
            "      \"mru_memo_meps\": {},\n",
            "      \"page_index_speedup\": {},\n",
            "      \"mru_memo_speedup\": {}\n",
            "    }}"
        ),
        meps(t.reference_btreemap),
        meps(t.page_index),
        meps(t.mru_memo),
        ratio(t.page_index, t.reference_btreemap),
        ratio(t.mru_memo, t.reference_btreemap),
    )
}

fn collection_json(c: &CollectionEps, events: usize) -> String {
    let sharded: Vec<String> = SHARD_COUNTS
        .iter()
        .zip(&c.sharded)
        .map(|(shards, eps)| format!("\"{shards}\": {}", meps(*eps)))
        .collect();
    format!(
        concat!(
            "{{\n",
            "    \"timed_events\": {},\n",
            "    \"single_shard_reference_meps\": {},\n",
            "    \"inline_reference_meps\": {},\n",
            "    \"inline_fastpath_meps\": {},\n",
            "    \"sharded_meps\": {{ {} }},\n",
            "    \"inline_fastpath_speedup\": {},\n",
            "    \"sharded_4_speedup\": {}\n",
            "  }}"
        ),
        events,
        meps(c.single_shard_reference),
        meps(c.inline_reference),
        meps(c.inline_fastpath),
        sharded.join(", "),
        ratio(c.inline_fastpath, c.inline_reference),
        ratio(c.sharded_at(4), c.single_shard_reference),
    )
}

fn grammar_pipeline_json(
    g: &GrammarPipelineEps,
    collection_fastpath: f64,
    events: usize,
) -> String {
    let pipelined: Vec<String> = GRAMMAR_WORKER_COUNTS
        .iter()
        .zip(&g.pipelined)
        .map(|(workers, eps)| format!("\"{workers}\": {}", meps(*eps)))
        .collect();
    format!(
        concat!(
            "{{\n",
            "    \"timed_events\": {},\n",
            "    \"seed_grammar_meps\": {},\n",
            "    \"inline_meps\": {},\n",
            "    \"pipelined_meps\": {{ {} }},\n",
            "    \"pipelined_4_speedup_over_inline\": {},\n",
            "    \"pipelined_4_speedup_over_seed\": {},\n",
            "    \"collection_gap_4\": {}\n",
            "  }}"
        ),
        events,
        SEED_GRAMMAR_MEPS,
        meps(g.inline),
        pipelined.join(", "),
        ratio(g.pipelined_at(4), g.inline),
        ratio(g.pipelined_at(4), SEED_GRAMMAR_MEPS * 1e6),
        ratio(collection_fastpath, g.pipelined_at(4)),
    )
}

fn print_grammar_pipeline(g: &GrammarPipelineEps, collection_fastpath: f64) {
    println!("whomp grammar pipeline: inline {:>7} Mev/s", meps(g.inline));
    for (workers, eps) in GRAMMAR_WORKER_COUNTS.iter().zip(&g.pipelined) {
        println!(
            "             workers x{workers}: {:>7} Mev/s ({}x over inline, {}x over the {} Mev/s seed)",
            meps(*eps),
            ratio(*eps, g.inline),
            ratio(*eps, SEED_GRAMMAR_MEPS * 1e6),
            SEED_GRAMMAR_MEPS,
        );
    }
    println!(
        "             grammar-vs-collection gap at x4: {}x",
        ratio(collection_fastpath, g.pipelined_at(4)),
    );
}

fn print_collection(name: &str, c: &CollectionEps) {
    println!(
        "{name:>14}: baseline pipeline {:>7} Mev/s | inline ref {:>7} Mev/s | inline fast {:>7} Mev/s ({}x)",
        meps(c.single_shard_reference),
        meps(c.inline_reference),
        meps(c.inline_fastpath),
        ratio(c.inline_fastpath, c.inline_reference),
    );
    for (shards, eps) in SHARD_COUNTS.iter().zip(&c.sharded) {
        println!(
            "                sharded x{shards}: {:>7} Mev/s ({}x over baseline)",
            meps(*eps),
            ratio(*eps, c.single_shard_reference),
        );
    }
}

fn main() -> std::process::ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("populating {NODES}-object heap...");
    let omc = populated_omc();
    let events = build_events();
    let grammar_events = &events[..GRAMMAR_EVENTS.min(events.len())];
    println!(
        "== Throughput: {} live objects, {}-node chase x{} fields, {} timed events, {} core(s) ==\n",
        NODES,
        CHASED,
        FIELDS,
        events.len(),
        cores
    );

    let chase = measure_translate(&omc, &chase_queries(&events));
    let hot = measure_translate(&omc, &hot_field_queries());
    println!(
        "translate/chase: reference {} Mq/s | page index {} Mq/s ({}x) | memo {} Mq/s ({}x)",
        meps(chase.reference_btreemap),
        meps(chase.page_index),
        ratio(chase.page_index, chase.reference_btreemap),
        meps(chase.mru_memo),
        ratio(chase.mru_memo, chase.reference_btreemap),
    );
    println!(
        "translate/hot:   reference {} Mq/s | page index {} Mq/s ({}x) | memo {} Mq/s ({}x)\n",
        meps(hot.reference_btreemap),
        meps(hot.page_index),
        ratio(hot.page_index, hot.reference_btreemap),
        meps(hot.mru_memo),
        ratio(hot.mru_memo, hot.reference_btreemap),
    );

    let whomp = measure_collection(&omc, &events, VecOrSink::new);
    print_collection("whomp", &whomp);
    let whomp_grammar = measure_collection(&omc, grammar_events, HybridProfiler::new);
    print_collection("whomp+grammar", &whomp_grammar);
    let leap = measure_collection(&omc, &events, LeapProfiler::new);
    print_collection("leap", &leap);
    let gpipe = measure_grammar_pipeline(&omc, grammar_events);
    print_grammar_pipeline(&gpipe, whomp.inline_fastpath);

    let translate_ok = chase.mru_memo >= 3.0 * chase.reference_btreemap;
    let whomp_ok = whomp.sharded_at(4) >= 2.0 * whomp.single_shard_reference;
    let gpipe_ok = gpipe.pipelined_at(4) >= 5.0 * SEED_GRAMMAR_MEPS * 1e6;
    println!(
        "\nacceptance: fast-path translate >= 3x reference: {translate_ok}; \
         4-shard WHOMP collection >= 2x single-shard baseline: {whomp_ok}; \
         4-worker grammar pipeline >= 5x the {SEED_GRAMMAR_MEPS} Mev/s seed: {gpipe_ok}"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"throughput\",\n",
            "  \"available_parallelism\": {},\n",
            "  \"baseline\": \"seed-equivalent single-worker collection pipeline (the bench's ThreadedReferenceCdc: one worker on a bounded channel translating via Omc::translate_reference); inline reference and fast-path collectors reported alongside\",\n",
            "  \"note\": \"the whomp_grammar_pipeline section measures end-to-end OMSG grammar mode with construction moved off the collection thread (PipelinedWhomp grammar workers) plus the arena-keyed digram index, packed symbols and batched push; the sharded collection sections isolate the translation/collection stages; on a host with available_parallelism=1 the pipelined path degrades to inline by design, so the speedup-over-seed there reflects the serial Sequitur rewrite alone\",\n",
            "  \"workload\": {{ \"live_objects\": {}, \"chased_nodes\": {}, \"fields_per_node\": {}, \"timed_events\": {} }},\n",
            "  \"raw_translate\": {{\n",
            "    \"pointer_chase\": {},\n",
            "    \"hot_field\": {}\n",
            "  }},\n",
            "  \"whomp_collection\": {},\n",
            "  \"whomp_grammar_collection\": {},\n",
            "  \"leap_collection\": {},\n",
            "  \"whomp_grammar_pipeline\": {},\n",
            "  \"acceptance\": {{\n",
            "    \"fastpath_translate_3x_reference\": {},\n",
            "    \"whomp_4_shards_2x_single_shard\": {},\n",
            "    \"grammar_pipeline_4_workers_5x_seed\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        cores,
        NODES,
        CHASED,
        FIELDS,
        events.len(),
        translate_json(&chase),
        translate_json(&hot),
        collection_json(&whomp, events.len()),
        collection_json(&whomp_grammar, grammar_events.len()),
        collection_json(&leap, events.len()),
        grammar_pipeline_json(&gpipe, whomp.inline_fastpath, grammar_events.len()),
        translate_ok,
        whomp_ok,
        gpipe_ok,
    );
    // The benchmark trajectory is tracked at the repo root; refresh
    // that copy too, regardless of the invocation directory.
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
