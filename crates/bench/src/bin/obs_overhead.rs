//! Overhead guard for the observability layer: the disabled-recorder
//! path must cost < 2% on the `translate_cached` hot loop, written to
//! `results/BENCH_obs_overhead.json`.
//!
//! The recorder architecture keeps the hot path free of dynamic
//! dispatch: `Omc::translate_cached` bumps plain `u64` fields on the
//! component itself, and `record_metrics(&mut dyn Recorder)` publishes
//! those fields only at phase boundaries. So "metrics disabled" is the
//! same loop plus a periodic `NoopRecorder` publication — this harness
//! measures that pair interleaved (best-of, identical query stream)
//! and asserts the ratio stays inside the 2% budget. A `StatsRecorder`
//! configuration is reported alongside for scale: even the *enabled*
//! path only pays at publication points, never per event.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

use orp_core::{Omc, Timestamp};
use orp_obs::{NoopRecorder, StatsRecorder};
use orp_trace::{AllocSiteId, InstrId};

/// Live heap objects the translations run against.
const NODES: u64 = 50_000;
const NODE_PITCH: u64 = 64;
const NODE_SIZE: u64 = 48;
const HEAP_BASE: u64 = 0x10_0000;
/// Translation queries per sweep.
const QUERIES: usize = 400_000;
/// Queries between `record_metrics` publications — the batch geometry
/// the CLI uses (publish at phase boundaries, not per event).
const PUBLISH_EVERY: usize = 4096;
/// Timing repetitions per configuration (best-of).
const REPS: usize = 7;
/// Minimum measured interval per repetition.
const MIN_SECS: f64 = 0.2;
/// Acceptance budget: disabled-recorder throughput must stay within
/// this fraction of the plain loop.
const BUDGET: f64 = 0.02;

fn populated_omc() -> Omc {
    let mut omc = Omc::new();
    for k in 0..NODES {
        omc.on_alloc(
            AllocSiteId((k % 8) as u32),
            HEAP_BASE + k * NODE_PITCH,
            NODE_SIZE,
            Timestamp(k),
        )
        .expect("disjoint heap");
    }
    omc
}

/// A pointer-chase-shaped query stream: instruction 0 lands on
/// scattered nodes, instruction 1 re-scans the node just reached —
/// the mixed hit/miss profile the MRU memo sees in real collection.
fn build_queries() -> Vec<(InstrId, u64)> {
    (0..QUERIES as u64)
        .map(|i| {
            let node = ((i / 5) * 12289) % NODES;
            let base = HEAP_BASE + node * NODE_PITCH;
            if i % 5 == 0 {
                (InstrId(0), base)
            } else {
                (InstrId(1), base + 8 * (i % 5))
            }
        })
        .collect()
}

/// One timed repetition: repeats `sweep` until at least `MIN_SECS`
/// elapses, returning queries/second.
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

/// Best-of-`REPS`, interleaved so every configuration samples every
/// load regime: the reported number is a *ratio*, and round-robin
/// sampling keeps background drift from biasing it.
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

fn main() -> std::process::ExitCode {
    println!("populating {NODES}-object heap...");
    let omc = std::cell::RefCell::new(populated_omc());
    let queries = build_queries();
    let n = queries.len() as u64;
    println!("== Observability overhead: {QUERIES} translate_cached queries per sweep ==\n");

    let mut plain = || {
        let mut omc = omc.borrow_mut();
        let mut hits = 0u64;
        for &(instr, addr) in &queries {
            hits += u64::from(omc.translate_cached(instr, black_box(addr)).is_some());
        }
        hits
    };
    let mut noop = || {
        let mut omc = omc.borrow_mut();
        let mut rec = NoopRecorder;
        let mut hits = 0u64;
        for (i, &(instr, addr)) in queries.iter().enumerate() {
            hits += u64::from(omc.translate_cached(instr, black_box(addr)).is_some());
            if i % PUBLISH_EVERY == PUBLISH_EVERY - 1 {
                omc.record_metrics(&mut rec);
            }
        }
        hits
    };
    let mut stats = || {
        let mut omc = omc.borrow_mut();
        let mut rec = StatsRecorder::new();
        let mut hits = 0u64;
        for (i, &(instr, addr)) in queries.iter().enumerate() {
            hits += u64::from(omc.translate_cached(instr, black_box(addr)).is_some());
            if i % PUBLISH_EVERY == PUBLISH_EVERY - 1 {
                omc.record_metrics(&mut rec);
            }
        }
        hits + rec.counter_value("omc.memo_hits")
    };

    let eps = measure_interleaved(n, &mut [&mut plain, &mut noop, &mut stats]);
    let (plain_eps, noop_eps, stats_eps) = (eps[0], eps[1], eps[2]);
    let noop_overhead = 1.0 - noop_eps / plain_eps;
    let stats_overhead = 1.0 - stats_eps / plain_eps;
    let ok = noop_overhead < BUDGET;

    let pct = |x: f64| format!("{:.2}", x * 100.0);
    println!(
        "plain loop:        {:.2} Mq/s\n\
         noop recorder:     {:.2} Mq/s ({}% overhead)\n\
         stats recorder:    {:.2} Mq/s ({}% overhead)",
        plain_eps / 1e6,
        noop_eps / 1e6,
        pct(noop_overhead),
        stats_eps / 1e6,
        pct(stats_overhead),
    );
    println!(
        "\nacceptance: disabled-recorder overhead < {}%: {ok}",
        pct(BUDGET)
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"obs_overhead\",\n",
            "  \"queries_per_sweep\": {},\n",
            "  \"publish_every\": {},\n",
            "  \"plain_meps\": {:.2},\n",
            "  \"noop_recorder_meps\": {:.2},\n",
            "  \"stats_recorder_meps\": {:.2},\n",
            "  \"noop_overhead_pct\": {},\n",
            "  \"stats_overhead_pct\": {},\n",
            "  \"acceptance\": {{\n",
            "    \"disabled_recorder_under_2pct\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        QUERIES,
        PUBLISH_EVERY,
        plain_eps / 1e6,
        noop_eps / 1e6,
        stats_eps / 1e6,
        pct(noop_overhead),
        pct(stats_overhead),
        ok,
    );
    match orp_bench::write_result_artifacts("obs_overhead", &json) {
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
