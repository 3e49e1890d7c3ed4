//! The traced run (`--trace 1`): the workload's inputs replayed
//! in-process through each layer's public functions, with a span around
//! every call into a layer.
//!
//! Each layer runs as its own pass over materialized input, so its spans
//! hold only that layer's work, and the clock is read once per batch of
//! `BATCH` events (or one frame, or one whole-profile call), never once
//! per event. Spans stay in memory and are summed at the end. The same
//! passes also run untraced; `traced.overhead_ratio` compares the two.
//! Glue between passes (materializing tuples for the next layer) runs
//! outside every span, which `traced.coverage_ratio` shows.
//!
//! The program's own counters come from `--metrics-out` reports of one
//! CLI pass over the same inputs; the `orpd` layer is measured on a real
//! `serve` child under the two-tenant load.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use orp_core::sharded::instr_group_key;
use orp_core::{Cdc, NullOrSink, Omc, OrSink, OrTuple, Sampler, Session, Timestamp, VecOrSink};
use orp_format::{AtomicFile, ContainerReader, ProfileKind};
use orp_leap::{LeapProfile, LeapProfiler};
use orp_orpd::FRAME_EVENTS;
use orp_trace::{
    decode_batch, encode_batch, AccessEvent, AllocEvent, FreeEvent, ProbeEvent, ProbeSink,
};
use orp_whomp::WhompProfiler;

use crate::e2e::{arg, checkpoint_events, job_args, load_events, record_all, serve_args, Res};
use crate::proc::{self, Daemon};
use crate::report::{self, Report};
use crate::stats::median;
use crate::{churn, Ctx, Outcome, Recorded, Workload};
use crate::{CHURN_PROGRAM, PROGRAMS, SAMPLE_RATE};

/// Events (or tuples, or sampling keys) per span.
const BATCH: usize = 4096;

/// The layers spans are recorded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Layer {
    Decode,
    Encode,
    Admit,
    Translate,
    AllocFree,
    Collect,
    LeapFeed,
    LeapFinalize,
    WhompFeed,
    WhompFinalize,
    ProfileEncode,
    DurableWrite,
    SessionFeed,
    SessionCheckpoint,
}

struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log; when off, [`Ledger::time`] only runs the call.
struct Ledger {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Ledger {
    fn new(on: bool) -> Ledger {
        Ledger {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
        });
        r
    }

    fn busy_ns(&self) -> BTreeMap<Layer, u64> {
        let mut busy = BTreeMap::new();
        for s in &self.spans {
            *busy.entry(s.layer).or_insert(0) += s.end_ns - s.start_ns;
        }
        busy
    }
}

/// Work counts of one traced pass over the inputs.
#[derive(Debug, Default)]
struct Counts {
    decode_events: u64,
    decode_bytes: u64,
    considered: u64,
    kept: u64,
    translate_calls: u64,
    alloc_free_calls: u64,
    cdc_tuples: u64,
    leap_tuples: u64,
    leap_accesses: u64,
    leap_captured: f64,
    leap_streams: u64,
    whomp_tuples: u64,
    whomp_symbols: u64,
    encode_bytes: u64,
    durable_calls: u64,
    durable_bytes: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
}

/// Appends decoded events to a vector.
struct Push<'a>(&'a mut Vec<ProbeEvent>);

impl ProbeSink for Push<'_> {
    fn access(&mut self, ev: AccessEvent) {
        self.0.push(ProbeEvent::Access(ev));
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.0.push(ProbeEvent::Alloc(ev));
    }

    fn free(&mut self, ev: FreeEvent) {
        self.0.push(ProbeEvent::Free(ev));
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `trace`: reads and decodes a trace file, one span per TRCE chunk.
fn decode_trace(trace: &Path, ledger: &mut Ledger, counts: &mut Counts) -> Res<Vec<ProbeEvent>> {
    let file = File::open(trace).map_err(err)?;
    let mut reader = ContainerReader::new(BufReader::new(file)).map_err(err)?;
    if reader.read_meta().map_err(err)? != ProfileKind::Trace {
        return Err(format!("{} is not a trace", trace.display()));
    }
    let mut events = Vec::new();
    while ledger
        .time(Layer::Decode, || match reader.next_chunk()? {
            Some(chunk) => decode_batch(&chunk.payload, &mut Push(&mut events)).map(Some),
            None => Ok(None),
        })
        .map_err(err)?
        .is_some()
    {}
    counts.decode_events += events.len() as u64;
    counts.decode_bytes += reader.io_stats().bytes;
    Ok(events)
}

/// `omc`: the full event stream through the OMC (translate through the
/// memo, plus the alloc/free table maintenance translation depends on),
/// then alloc/free alone.
fn omc_passes(events: &[ProbeEvent], ledger: &mut Ledger, counts: &mut Counts) {
    let mut omc = Omc::new();
    let mut now = 0u64;
    for batch in events.chunks(BATCH) {
        ledger.time(Layer::Translate, || {
            for ev in batch {
                match *ev {
                    ProbeEvent::Access(a) => {
                        if omc.translate_cached(a.instr, a.addr.0).is_some() {
                            now += 1;
                        }
                    }
                    ProbeEvent::Alloc(a) => {
                        let _ = omc.on_alloc(a.site, a.base.0, a.size, Timestamp(now));
                    }
                    ProbeEvent::Free(f) => {
                        let _ = omc.on_free(f.base.0, Timestamp(now));
                    }
                }
            }
        });
    }
    let accesses = events
        .iter()
        .filter(|e| matches!(e, ProbeEvent::Access(_)))
        .count() as u64;
    counts.translate_calls += accesses;
    counts.alloc_free_calls += events.len() as u64 - accesses;

    let mut omc = Omc::new();
    for batch in events.chunks(BATCH) {
        ledger.time(Layer::AllocFree, || {
            for ev in batch {
                match *ev {
                    ProbeEvent::Alloc(a) => {
                        let _ = omc.on_alloc(a.site, a.base.0, a.size, Timestamp(0));
                    }
                    ProbeEvent::Free(f) => {
                        let _ = omc.on_free(f.base.0, Timestamp(0));
                    }
                    ProbeEvent::Access(_) => {}
                }
            }
        });
    }
}

/// Glue: the collector's output tuples, outside every span.
fn tuples_of(events: &[ProbeEvent], sampler: Sampler) -> Vec<OrTuple> {
    let mut cdc = Cdc::with_sampler(Omc::new(), VecOrSink::new(), sampler);
    for &ev in events {
        cdc.event(ev);
    }
    cdc.finish();
    cdc.into_parts().1.into_tuples()
}

/// `sample`: admission decisions over every translated access's key.
fn admit_pass(events: &[ProbeEvent], ledger: &mut Ledger, counts: &mut Counts) {
    let keys: Vec<u64> = tuples_of(events, Sampler::off())
        .iter()
        .map(|t| instr_group_key(t.instr, t.group))
        .collect();
    let mut sampler = Sampler::periodic(SAMPLE_RATE);
    for batch in keys.chunks(BATCH) {
        ledger.time(Layer::Admit, || {
            for &k in batch {
                std::hint::black_box(sampler.admit(k));
            }
        });
    }
    let stats = sampler.stats();
    counts.considered += stats.considered;
    counts.kept += stats.kept;
}

/// `cdc`: the collector (sampler, translate, timestamp) into a null sink.
fn collect_pass(events: &[ProbeEvent], sampler: Sampler, ledger: &mut Ledger, counts: &mut Counts) {
    let mut cdc = Cdc::with_sampler(Omc::new(), NullOrSink, sampler);
    for batch in events.chunks(BATCH) {
        ledger.time(Layer::Collect, || {
            for &ev in batch {
                cdc.event(ev);
            }
        });
    }
    cdc.finish();
    counts.cdc_tuples += cdc.time().0;
}

/// `leap`: LMAD feed and finalize.
fn leap_pass(tuples: &[OrTuple], ledger: &mut Ledger, counts: &mut Counts) -> LeapProfile {
    let mut p = LeapProfiler::new();
    for batch in tuples.chunks(BATCH) {
        ledger.time(Layer::LeapFeed, || p.tuple_batch(batch));
    }
    ledger.time(Layer::LeapFeed, || p.finish());
    let profile = ledger.time(Layer::LeapFinalize, || p.into_profile());
    counts.leap_tuples += tuples.len() as u64;
    counts.leap_accesses += profile.total_accesses();
    counts.leap_captured +=
        profile.sample_quality().accesses_captured * profile.total_accesses() as f64;
    counts.leap_streams += profile.streams().len() as u64;
    profile
}

/// `whomp` then `encode`: Sequitur feed, finalize, profile encode.
fn whomp_pass(tuples: &[OrTuple], ledger: &mut Ledger, counts: &mut Counts) -> Res<Vec<u8>> {
    let mut p = WhompProfiler::new();
    for batch in tuples.chunks(BATCH) {
        ledger.time(Layer::WhompFeed, || p.tuple_batch(batch));
    }
    ledger.time(Layer::WhompFeed, || p.finish());
    let omsg = ledger.time(Layer::WhompFinalize, || p.into_omsg());
    counts.whomp_tuples += tuples.len() as u64;
    counts.whomp_symbols += omsg.total_size();
    encode(ledger, counts, |v| omsg.write_to(v))
}

fn encode(
    ledger: &mut Ledger,
    counts: &mut Counts,
    write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>,
) -> Res<Vec<u8>> {
    let mut bytes = Vec::new();
    ledger
        .time(Layer::ProfileEncode, || write(&mut bytes))
        .map_err(err)?;
    counts.encode_bytes += bytes.len() as u64;
    Ok(bytes)
}

/// `durable`: the atomic temp-file, fsync, rename publish.
fn durable(out: &Path, bytes: &[u8], ledger: &mut Ledger, counts: &mut Counts) -> Res<()> {
    ledger
        .time(Layer::DurableWrite, || {
            orp_format::write_bytes_atomic(out, bytes, None)
        })
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    counts.durable_calls += 1;
    counts.durable_bytes += bytes.len() as u64;
    Ok(())
}

/// One CLI-workload program through every layer its user path uses.
fn program_pass(
    workload: Workload,
    trace: &Path,
    out: &Path,
    ledger: &mut Ledger,
    counts: &mut Counts,
) -> Res<Vec<u8>> {
    let live = workload == Workload::LeapLiveSampled;
    let events = if live {
        // The live path decodes nothing: the program's own events,
        // equal to its recording, are loaded outside every span.
        load_events(trace)?
    } else {
        decode_trace(trace, ledger, counts)?
    };
    omc_passes(&events, ledger, counts);
    let sampler = if live {
        admit_pass(&events, ledger, counts);
        Sampler::periodic(SAMPLE_RATE)
    } else {
        Sampler::off()
    };
    collect_pass(&events, sampler.clone(), ledger, counts);
    let tuples = tuples_of(&events, sampler);
    let bytes = if workload == Workload::WhompReplay {
        whomp_pass(&tuples, ledger, counts)?
    } else {
        let profile = leap_pass(&tuples, ledger, counts);
        encode(ledger, counts, |v| profile.write_to(v))?
    };
    durable(out, &bytes, ledger, counts)?;
    Ok(bytes)
}

/// One session of `orpd-churn`: client frame encode, daemon frame
/// decode, session feed with periodic checkpoints, finalize and durable
/// publish; then the OMC, collector and LEAP layers over the same
/// events. The trace file itself is loaded once per run by the clients,
/// so it is read outside every span.
fn churn_pass(
    trace: &Path,
    dir: &Path,
    checkpoint_events: u64,
    ledger: &mut Ledger,
    counts: &mut Counts,
) -> Res<Vec<u8>> {
    let events = load_events(trace)?;
    let mut frames = Vec::new();
    for chunk in events.chunks(FRAME_EVENTS) {
        let payload = ledger
            .time(Layer::Encode, || encode_batch(chunk))
            .map_err(err)?;
        let mut batch = Vec::with_capacity(chunk.len());
        ledger
            .time(Layer::Decode, || {
                decode_batch(&payload, &mut Push(&mut batch))
            })
            .map_err(err)?;
        counts.decode_events += batch.len() as u64;
        counts.decode_bytes += payload.len() as u64;
        frames.push(batch);
    }
    let checkpoint = dir.join("tenant.ckpt.orp");
    let mut session = Session::new(LeapProfiler::new());
    let mut last = 0u64;
    for batch in &frames {
        ledger.time(Layer::SessionFeed, || session.feed(batch));
        if session.events() - last >= checkpoint_events {
            last = session.events();
            ledger
                .time(Layer::SessionCheckpoint, || {
                    let mut af = AtomicFile::create(&checkpoint)?;
                    session.checkpoint(&mut af)?;
                    af.commit()
                })
                .map_err(|e| format!("checkpoint: {e}"))?;
            counts.checkpoints += 1;
            counts.checkpoint_bytes += std::fs::metadata(&checkpoint).map_err(err)?.len();
        }
    }
    let bytes = encode(ledger, counts, |v| session.finalize(v))?;
    durable(&dir.join("tenant.orp"), &bytes, ledger, counts)?;

    omc_passes(&events, ledger, counts);
    collect_pass(&events, Sampler::off(), ledger, counts);
    let tuples = tuples_of(&events, Sampler::off());
    leap_pass(&tuples, ledger, counts);
    Ok(bytes)
}

/// One pass over all of the workload's inputs; returns each output
/// profile.
fn pass(
    ctx: &Ctx,
    inputs: &[Recorded],
    dir: &Path,
    ledger: &mut Ledger,
    counts: &mut Counts,
) -> Res<Vec<Vec<u8>>> {
    inputs
        .iter()
        .map(|p| {
            if ctx.workload == Workload::OrpdChurn {
                churn_pass(&p.trace, dir, checkpoint_events(p.events), ledger, counts)
            } else {
                program_pass(
                    ctx.workload,
                    &p.trace,
                    &dir.join(format!("{}.orp", p.name)),
                    ledger,
                    counts,
                )
            }
        })
        .collect()
}

/// One CLI job per input with `--metrics-out`: the program's own
/// counters, and the CLI profiles the traced pass must reproduce.
fn cli_reports(
    ctx: &Ctx,
    inputs: &[Recorded],
    outcome: &mut Outcome,
) -> Res<(Vec<Report>, Vec<Vec<u8>>)> {
    let dir = ctx.work.join("cli");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let mut reports = Vec::new();
    let mut profiles = Vec::new();
    for p in inputs {
        let out = dir.join(format!("{}.orp", p.name));
        let metrics = dir.join(format!("{}.json", p.name));
        let mut args = job_args(ctx, p, &p.trace, ctx.seed, &out);
        args.extend(["--metrics-out".to_owned(), arg(&metrics)]);
        let job = proc::run_job(&ctx.cli, &args).map_err(|e| format!("spawn job: {e}"))?;
        outcome.check(job.ok, &format!("{}: CLI run with --metrics-out", p.name));
        if job.ok {
            reports.push(report::read(&metrics)?);
            profiles.push(std::fs::read(&out).map_err(err)?);
        } else {
            profiles.push(Vec::new());
        }
    }
    Ok((reports, profiles))
}

/// What the real daemon reported under the two-tenant load.
#[derive(Default)]
struct DaemonLayer {
    flush_ns: u64,
    busy_refusals: u64,
    report: Report,
    rss_growth_mib: f64,
}

/// Mean daemon RSS (KiB) sampled within `[from, to]` nanoseconds.
fn mean_rss(samples: &[(u64, u64)], from: u64, to: u64) -> Option<f64> {
    let within: Vec<f64> = samples
        .iter()
        .filter(|&&(t, _)| t >= from && t <= to)
        .map(|&(_, kib)| kib as f64)
        .collect();
    (!within.is_empty()).then(|| within.iter().sum::<f64>() / within.len() as f64)
}

fn daemon_layer(ctx: &Ctx, seconds: f64, outcome: &mut Outcome) -> Res<DaemonLayer> {
    let dir = ctx.work.join("orpd");
    let churn = record_all(ctx, &[CHURN_PROGRAM], ctx.seed, &dir)?.remove(0);
    let events = load_events(&churn.trace)?;
    let socket = ctx.work.join("orpd.sock");
    let metrics = dir.join("serve.json");
    let args = serve_args(&socket, &dir.join("tenants"), churn.events, &metrics);
    let daemon = Daemon::start(&ctx.cli, &args, &socket).map_err(|e| format!("serve: {e}"))?;
    let load = churn::drive(&socket, &events, seconds, Some(daemon.pid()), None);
    daemon.stop().map_err(|e| format!("serve: {e}"))?;
    for s in &load.sessions {
        outcome.check(s.ok, "orpd session");
    }
    // RSS over the first and the last tenth of sessions.
    let n = load.sessions.len();
    let tenth = (n / 10).max(1).min(n);
    let rss_growth_mib = if n == 0 {
        0.0
    } else {
        let first_end = load.sessions[tenth - 1].end_ns;
        let last_start = load.sessions[n - tenth].start_ns;
        match (
            mean_rss(&load.rss, 0, first_end),
            mean_rss(&load.rss, last_start, u64::MAX),
        ) {
            (Some(a), Some(b)) => (b - a) / 1024.0,
            _ => 0.0,
        }
    };
    Ok(DaemonLayer {
        flush_ns: load.frame_ns.iter().sum(),
        busy_refusals: load.busy_refusals,
        report: report::read(&metrics)?,
        rss_growth_mib,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the traced measurement of `ctx.workload`.
pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut outcome = Outcome::default();
    let programs: &[&'static str] = if ctx.workload == Workload::OrpdChurn {
        &[CHURN_PROGRAM]
    } else {
        &PROGRAMS
    };
    let inputs = record_all(ctx, programs, ctx.seed, &ctx.work.join("inputs"))?;
    let (reports, cli_profiles) = cli_reports(ctx, &inputs, &mut outcome)?;

    let daemon = if ctx.workload == Workload::OrpdChurn {
        daemon_layer(ctx, ctx.seconds as f64 / 2.0, &mut outcome)?
    } else {
        DaemonLayer::default()
    };

    // Untraced and traced passes, alternated, for half the run.
    let dir = ctx.work.join("traced");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let budget = ctx.seconds as f64 / 2.0;
    let start = Instant::now();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut busy: BTreeMap<Layer, Vec<f64>> = BTreeMap::new();
    let mut coverage = Vec::new();
    let mut counts = Counts::default();
    while untraced_s.is_empty() || start.elapsed().as_secs_f64() < budget {
        let mut off = Ledger::new(false);
        let t = Instant::now();
        pass(ctx, &inputs, &dir, &mut off, &mut Counts::default())?;
        untraced_s.push(t.elapsed().as_secs_f64());

        let mut on = Ledger::new(true);
        counts = Counts::default();
        let t = Instant::now();
        let profiles = pass(ctx, &inputs, &dir, &mut on, &mut counts)?;
        let wall = t.elapsed().as_secs_f64();
        traced_s.push(wall);
        let layer_busy = on.busy_ns();
        coverage.push(layer_busy.values().sum::<u64>() as f64 / 1e9 / wall);
        for (layer, ns) in layer_busy {
            busy.entry(layer).or_default().push(ns as f64 / 1e6);
        }
        if traced_s.len() == 1 {
            for ((p, traced), cli) in inputs.iter().zip(&profiles).zip(&cli_profiles) {
                outcome.check(
                    traced == cli,
                    &format!("{}: traced profile identical to the CLI profile", p.name),
                );
            }
        }
    }
    let reps = traced_s.len();
    let hits = report::sum(&reports, "omc.memo_hits");
    let misses = report::sum(&reports, "omc.memo_misses");
    let cli_kept = report::sum(&reports, "sample.kept");
    if ctx.workload == Workload::LeapLiveSampled {
        outcome.check(
            cli_kept == counts.kept as f64,
            "sampler keeps the same accesses in-process and in the CLI",
        );
    }
    // Busy time per layer: the median over the traced passes.
    let busy_metrics = [
        ("trace.decode.busy_ms", Layer::Decode, "TRCE read+decode"),
        ("trace.encode.busy_ms", Layer::Encode, "frame encode"),
        ("sample.admit.busy_ms", Layer::Admit, "Sampler::admit"),
        (
            "omc.translate.busy_ms",
            Layer::Translate,
            "all events through the OMC",
        ),
        (
            "omc.alloc_free.busy_ms",
            Layer::AllocFree,
            "alloc/free alone",
        ),
        (
            "cdc.collect.busy_ms",
            Layer::Collect,
            "Cdc into a null sink",
        ),
        ("leap.feed.busy_ms", Layer::LeapFeed, "LMAD feed"),
        ("leap.finalize.busy_ms", Layer::LeapFinalize, "into_profile"),
        ("whomp.feed.busy_ms", Layer::WhompFeed, "Sequitur feed"),
        ("whomp.finalize.busy_ms", Layer::WhompFinalize, "into_omsg"),
        ("encode.busy_ms", Layer::ProfileEncode, "profile write_to"),
        (
            "durable.write.busy_ms",
            Layer::DurableWrite,
            "write_bytes_atomic",
        ),
        (
            "session.feed.busy_ms",
            Layer::SessionFeed,
            "Session::feed per frame",
        ),
        (
            "session.checkpoint.busy_ms",
            Layer::SessionCheckpoint,
            "checkpoint into AtomicFile",
        ),
    ];
    for (name, layer, what) in busy_metrics {
        let ms = busy.get(&layer).map_or(0.0, |v| median(v));
        outcome.metric(
            name,
            ms,
            "ms",
            format!("{what}; median of {reps} traced passes"),
        );
    }
    // Work counts of one traced pass.
    let c = &counts;
    let count_metrics = [
        ("trace.decode.events", c.decode_events, "count"),
        ("trace.decode.bytes", c.decode_bytes, "bytes"),
        ("sample.considered", c.considered, "count"),
        ("sample.kept", c.kept, "count"),
        ("omc.translate.calls", c.translate_calls, "count"),
        ("omc.alloc_free.calls", c.alloc_free_calls, "count"),
        ("cdc.tuples", c.cdc_tuples, "count"),
        ("leap.feed.tuples", c.leap_tuples, "count"),
        ("leap.streams", c.leap_streams, "count"),
        ("whomp.feed.tuples", c.whomp_tuples, "count"),
        ("whomp.grammar_symbols", c.whomp_symbols, "count"),
        ("encode.bytes", c.encode_bytes, "bytes"),
        ("durable.write.calls", c.durable_calls, "count"),
        ("durable.write.bytes", c.durable_bytes, "bytes"),
        ("session.checkpoints", c.checkpoints, "count"),
        ("session.checkpoint_bytes", c.checkpoint_bytes, "bytes"),
    ];
    for (name, n, unit) in count_metrics {
        outcome.metric(name, n as f64, unit, format!("{n} per pass"));
    }
    outcome.metric(
        "sample.keep_ratio",
        ratio(c.kept as f64, c.considered as f64),
        "ratio",
        format!("{} of {}", c.kept, c.considered),
    );
    outcome.metric(
        "leap.capture_ratio",
        ratio(c.leap_captured, c.leap_accesses as f64),
        "ratio",
        format!("of {} accesses", c.leap_accesses),
    );
    outcome.metric(
        "whomp.symbols_per_tuple",
        ratio(c.whomp_symbols as f64, c.whomp_tuples as f64),
        "ratio",
        format!("{} symbols for {} tuples", c.whomp_symbols, c.whomp_tuples),
    );
    // The program's own counters.
    outcome.metric(
        "omc.memo_hit_rate",
        ratio(hits, hits + misses),
        "ratio",
        format!("{hits} of {} lookups, CLI reports", hits + misses),
    );
    outcome.metric(
        "omc.untracked",
        report::sum(&reports, "omc.untracked_lookups"),
        "count",
        "CLI reports".to_owned(),
    );
    let d = |name: &str| daemon.report.get(name).copied().unwrap_or(0.0);
    outcome.metric(
        "io.retries",
        report::sum(&reports, "io.retries") + d("io.retries"),
        "count",
        "CLI and serve reports".to_owned(),
    );
    for name in [
        "orpd.frames",
        "orpd.stalls",
        "orpd.sessions.finished",
        "orpd.sessions.degraded",
        "orpd.sessions.rejected",
    ] {
        outcome.metric(name, d(name), "count", "serve report".to_owned());
    }
    outcome.metric(
        "orpd.checkpoint.busy_ms",
        d("orpd.checkpoint.total_nanos") / 1e6,
        "ms",
        format!("{} checkpoints, serve report", d("orpd.checkpoints")),
    );
    outcome.metric(
        "orpd.flush.busy_ms",
        daemon.flush_ns as f64 / 1e6,
        "ms",
        format!(
            "client frame flushes, summed; {} busy handshakes retried",
            daemon.busy_refusals
        ),
    );
    outcome.metric(
        "orpd.rss_growth_mib",
        daemon.rss_growth_mib,
        "MiB",
        "mean VmRSS, last tenth of sessions minus first".to_owned(),
    );
    outcome.metric(
        "traced.coverage_ratio",
        median(&coverage),
        "ratio",
        "sum of layer busy / traced wall".to_owned(),
    );
    outcome.metric(
        "traced.overhead_ratio",
        ratio(median(&traced_s), median(&untraced_s)),
        "ratio",
        format!(
            "traced {:.4} s / untraced {:.4} s, medians of {reps}",
            median(&traced_s),
            median(&untraced_s)
        ),
    );
    outcome.attempted += reps as u64;
    Ok(outcome)
}
