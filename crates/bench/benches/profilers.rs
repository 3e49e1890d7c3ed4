//! Criterion benchmarks for the profiling substrates and pipelines.
//!
//! * `sequitur`: push throughput on repetitive vs incompressible input;
//! * `lmad`: linear-compressor push throughput;
//! * `omc`: address translation throughput against a populated table;
//! * `collection`: end-to-end profile collection for WHOMP (OMSG),
//!   RASG, and LEAP over the gzip workload — the §3.2 claim that OMSG
//!   collection time is in the same ballpark as RASG's, and the Table 1
//!   dilation ingredient for LEAP.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use orp_core::sharded::ShardedCdc;
use orp_core::{Cdc, Omc, Session, Timestamp};
use orp_leap::LeapProfiler;
use orp_lmad::LinearCompressor;
use orp_obs::NoopRecorder;
use orp_sequitur::Sequitur;
use orp_trace::{AllocSiteId, InstrId, NullSink, ProbeSink};
use orp_whomp::{HybridProfiler, PipelinedWhomp, RasgProfiler, WhompProfiler};
use orp_workloads::{micro, spec, RunConfig, Tracer, Workload};

fn bench_sequitur(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequitur");
    let n = 50_000u64;
    group.throughput(Throughput::Elements(n));

    group.bench_function("repetitive", |b| {
        let input: Vec<u64> = (0..n).map(|i| i % 16).collect();
        b.iter(|| {
            let mut seq = Sequitur::new();
            seq.extend(input.iter().copied());
            black_box(seq.size())
        });
    });
    group.bench_function("incompressible", |b| {
        let input: Vec<u64> = (0..n)
            .map(|i| {
                let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                x ^= x >> 31;
                x
            })
            .collect();
        b.iter(|| {
            let mut seq = Sequitur::new();
            seq.extend(input.iter().copied());
            black_box(seq.size())
        });
    });
    group.finish();
}

fn bench_lmad(c: &mut Criterion) {
    let mut group = c.benchmark_group("lmad");
    let n = 100_000i64;
    group.throughput(Throughput::Elements(n as u64));

    group.bench_function("linear_stream", |b| {
        b.iter(|| {
            let mut comp = LinearCompressor::new(3, 30);
            for k in 0..n {
                comp.push(black_box(&[k, 8 * k, 2 * k]));
            }
            black_box(comp.captured())
        });
    });
    group.bench_function("wild_stream_overflowed", |b| {
        let points: Vec<[i64; 3]> = (0..n)
            .map(|k| {
                let mut x = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                x ^= x >> 29;
                [(x % 4096) as i64, ((x >> 12) % 4096) as i64, k]
            })
            .collect();
        b.iter(|| {
            let mut comp = LinearCompressor::new(3, 30);
            for p in &points {
                comp.push(black_box(p));
            }
            black_box(comp.captured())
        });
    });
    group.finish();
}

fn bench_omc(c: &mut Criterion) {
    let mut group = c.benchmark_group("omc");
    // A populated object table: 10k live objects of 64 bytes.
    let mut omc = Omc::new();
    for k in 0..10_000u64 {
        omc.on_alloc(
            AllocSiteId((k % 16) as u32),
            0x10_0000 + k * 64,
            48,
            Timestamp(k),
        )
        .expect("disjoint");
    }
    let queries: Vec<u64> = (0..10_000u64)
        .map(|k| 0x10_0000 + ((k * 7919) % 10_000) * 64 + (k % 48))
        .collect();
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("translate", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &addr in &queries {
                if omc.translate(black_box(addr)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    group.finish();
}

fn bench_collection(c: &mut Criterion) {
    let mut group = c.benchmark_group("collection");
    group.sample_size(10);
    let cfg = RunConfig::default();
    let workload = spec::Gzip::new(1);

    fn drive(workload: &dyn Workload, cfg: &RunConfig, sink: &mut dyn ProbeSink) {
        let mut tracer = Tracer::new(cfg, sink);
        workload.run(&mut tracer);
        tracer.finish();
    }

    group.bench_function("native_null_sink", |b| {
        b.iter_batched(
            NullSink::new,
            |mut sink| drive(&workload, &cfg, &mut sink),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("rasg", |b| {
        b.iter_batched(
            RasgProfiler::new,
            |mut profiler| {
                drive(&workload, &cfg, &mut profiler);
                black_box(profiler.total_size());
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("whomp_omsg", |b| {
        b.iter_batched(
            || Cdc::new(Omc::new(), WhompProfiler::new()),
            |mut cdc| {
                drive(&workload, &cfg, &mut cdc);
                black_box(cdc.sink().total_size());
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("leap", |b| {
        b.iter_batched(
            || Cdc::new(Omc::new(), LeapProfiler::new()),
            |mut cdc| {
                drive(&workload, &cfg, &mut cdc);
                black_box(cdc.sink().stream_count());
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// Translation paths head-to-head on the same populated table: the
/// `BTreeMap` reference oracle, the page index, and the per-instruction
/// MRU memo (queries re-attributed to a handful of instructions, the
/// shape the memo exists for).
fn bench_omc_translate(c: &mut Criterion) {
    let mut group = c.benchmark_group("omc_translate");
    let mut omc = Omc::new();
    for k in 0..10_000u64 {
        omc.on_alloc(
            AllocSiteId((k % 16) as u32),
            0x10_0000 + k * 64,
            48,
            Timestamp(k),
        )
        .expect("disjoint");
    }
    let queries: Vec<(InstrId, u64)> = (0..10_000u64)
        .map(|k| {
            (
                InstrId((k % 12) as u32),
                0x10_0000 + ((k * 7919) % 10_000) * 64 + (k % 48),
            )
        })
        .collect();
    group.throughput(Throughput::Elements(queries.len() as u64));

    group.bench_function("reference_btreemap", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &(_, addr) in &queries {
                if omc.translate_reference(black_box(addr)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    group.bench_function("page_index", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &(_, addr) in &queries {
                if omc.translate(black_box(addr)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    group.bench_function("mru_memo", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &(instr, addr) in &queries {
                if omc.translate_cached(instr, black_box(addr)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    // The overhead-guard variant: same loop with the disabled recorder
    // published once per sweep — must stay within 2% of `mru_memo`
    // (the metrics design keeps the hot path publication-free).
    group.bench_function("mru_memo_noop_recorder", |b| {
        let mut rec = NoopRecorder;
        b.iter(|| {
            let mut hits = 0u64;
            for &(instr, addr) in &queries {
                if omc.translate_cached(instr, black_box(addr)).is_some() {
                    hits += 1;
                }
            }
            omc.record_metrics(&mut rec);
            black_box(hits)
        });
    });
    group.finish();
}

/// End-to-end pipelines over a pointer-chasing trace: inline CDC and
/// the sharded pipeline at 2 and 4 shards collecting per-instruction
/// hybrid grammars.
fn bench_threaded_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("threaded_pipeline");
    group.sample_size(10);
    let cfg = RunConfig::default();
    let workload = micro::LinkedList::new(2048, 4);

    fn drive(workload: &dyn Workload, cfg: &RunConfig, sink: &mut dyn ProbeSink) {
        let mut tracer = Tracer::new(cfg, sink);
        workload.run(&mut tracer);
        tracer.finish();
    }

    group.bench_function("inline", |b| {
        b.iter(|| {
            let mut cdc = Cdc::new(Omc::new(), HybridProfiler::new());
            drive(&workload, &cfg, &mut cdc);
            black_box(cdc.sink().tuples())
        });
    });
    for shards in [2usize, 4] {
        group.bench_function(format!("sharded_{shards}"), |b| {
            b.iter(|| {
                let session = Session::new(HybridProfiler::new());
                let mut probe = ShardedCdc::spawn(session, shards);
                drive(&workload, &cfg, &mut probe);
                let joined = probe.join().expect("pipeline healthy");
                black_box(joined.session.cdc().sink().tuples())
            });
        });
    }
    group.finish();
}

fn bench_sequitur_push(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequitur_push");
    let n = 50_000u64;
    group.throughput(Throughput::Elements(n));
    let input: Vec<u64> = (0..n).map(|i| i % 16).collect();

    group.bench_function("push_per_symbol", |b| {
        b.iter(|| {
            let mut seq = Sequitur::new();
            for &t in &input {
                seq.push(t);
            }
            black_box(seq.size())
        });
    });
    group.bench_function("push_batch", |b| {
        b.iter(|| {
            let mut seq = Sequitur::new();
            seq.push_batch(&input);
            black_box(seq.size())
        });
    });

    // All-distinct terminals form no rule, so every digram stays
    // live: the shape where the digram index is largest.
    let distinct: Vec<u64> = (0..n).collect();
    group.bench_function("push_batch_incompressible", |b| {
        b.iter(|| {
            let mut seq = Sequitur::new();
            seq.push_batch(&distinct);
            black_box(seq.size())
        });
    });

    // One terminal repeated: the object stream of gzip, mcf, crafty and
    // bzip2 is a single value. Every digram it forms repeats, so pushes
    // keep taking the rule-reuse, overlap and run-restoration paths
    // rather than the plain index miss.
    let constant = vec![7u64; n as usize];
    group.bench_function("push_batch_constant", |b| {
        b.iter(|| {
            let mut seq = Sequitur::new();
            seq.push_batch(&constant);
            black_box(seq.size())
        });
    });
    group.finish();
}

fn bench_grammar_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("grammar_pipeline");
    group.sample_size(10);
    let cfg = RunConfig::default();
    let workload = micro::LinkedList::new(2048, 4);

    fn drive(workload: &dyn Workload, cfg: &RunConfig, sink: &mut dyn ProbeSink) {
        let mut tracer = Tracer::new(cfg, sink);
        workload.run(&mut tracer);
        tracer.finish();
    }

    group.bench_function("whomp_inline", |b| {
        b.iter(|| {
            let mut cdc = Cdc::new(Omc::new(), WhompProfiler::new());
            drive(&workload, &cfg, &mut cdc);
            black_box(cdc.sink().total_size())
        });
    });
    for workers in [1usize, 4] {
        group.bench_function(format!("whomp_pipelined_{workers}"), |b| {
            b.iter(|| {
                let mut cdc = Cdc::new(Omc::new(), PipelinedWhomp::spawn(workers));
                drive(&workload, &cfg, &mut cdc);
                let (profiler, _) = cdc.into_parts().1.try_join().expect("pipeline healthy");
                black_box(profiler.total_size())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sequitur,
    bench_lmad,
    bench_omc,
    bench_collection,
    bench_omc_translate,
    bench_threaded_pipeline,
    bench_sequitur_push,
    bench_grammar_pipeline
);
criterion_main!(benches);
