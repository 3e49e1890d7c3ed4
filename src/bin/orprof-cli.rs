//! `orprof-cli` — run the bundled workloads under a profiler and save,
//! inspect, or post-process `.orp` profile containers.
//!
//! ```text
//! orprof-cli list
//! orprof-cli run --workload 164.gzip --profiler leap --out gzip.orp
//! orprof-cli run --workload micro.matrix --profiler whomp --allocator buddy
//! orprof-cli run --from-trace gzip.orpt --profiler leap --out gzip.orp
//! orprof-cli run --from-trace rest.orpt --resume ckpt.orp --profiler leap
//! orprof-cli run --workload micro.matrix --profiler leap --shards 4
//! orprof-cli run --workload micro.matrix --profiler whomp --stats --metrics-out m.json
//! orprof-cli record --workload 164.gzip --out gzip.orpt
//! orprof-cli optimize --workload micro.linked-list --plan-out ll.plan.orp --stats
//! orprof-cli optimize --from-trace gzip.orpt --metrics-out opt.json
//! orprof-cli inspect gzip.orp
//! orprof-cli report gzip.orp           # dependence + stride advice
//! ```
//!
//! Every artifact — traces, profiles, checkpoints — is a `.orp`
//! container; `inspect` dispatches on the container's `META` chunk, so
//! it works uniformly on any of them.
//!
//! `optimize` closes the paper's feedback loop: it profiles a workload
//! (or replays a recorded trace), derives a [`LayoutPlan`] from every
//! adviser, applies it on the simulated heap/linker, and replays the
//! same object-relative stream through a cache hierarchy under the
//! baseline and planned layouts — reporting per-transform miss-rate
//! deltas as `opt.*` metrics and optionally writing the plan as a
//! `PLAN`-chunk `.orp` container.
//!
//! `--stats` prints a human-readable run report to stderr and
//! `--metrics-out` writes the same report as stable-schema JSON; both
//! read counters the pipeline bumps inline, so the profile bytes are
//! identical with or without them. `--embed-report` additionally stores
//! the JSON inside the `--out` container as an `MREP` chunk, which
//! `inspect` prints back.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::process::ExitCode;

use orprof::allocsim::AllocatorKind;
use orprof::cache::evaluate::{evaluate_plan, extents_from_records, EvalConfig};
use orprof::core::{
    Cdc, Omc, OrSink, OrTuple, PipelineStats, RateController, SampleStats, Sampler, SamplingPolicy,
    Session, SessionSink, ShardableSink, ShardedCdc,
};
use orprof::format::{
    read_varint, AtomicFile, ChunkTag, ContainerReader, FailingRead, FaultPlan, Hello, IoStats,
    ProfileKind, RetryRead, RetryWrite,
};
use orprof::leap::strides::{stride_stats, STRONG_STRIDE_THRESHOLD};
use orprof::leap::{mdf, LeapProfile, LeapProfiler};
use orprof::obs::{Recorder, RunReport, ShardCount, StatsRecorder, Stopwatch};
use orprof::opt::{AdvisorSet, LayoutPlan};
use orprof::orpd::{Daemon, DaemonConfig, OrpdStats};
use orprof::phase::PhaseDetector;
use orprof::sequitur::Grammar;
use orprof::trace::{AccessEvent, AllocEvent, CountingSink, FreeEvent, NullSink, ProbeSink};
use orprof::whomp::{
    HybridProfile, HybridProfiler, Omsg, PipelinedWhomp, Rasg, RasgProfiler, WhompProfiler,
};
use orprof::workloads::{micro_suite, spec_suite, RunConfig, Tracer, Workload};

fn usage() -> &'static str {
    "usage:\n  orprof-cli list\n  orprof-cli run (--workload <name> | --from-trace <file>) \
     --profiler <whomp|rasg|leap|hybrid> [--out <file>] [--scale <n>] \
     [--allocator <bump|free-list|buddy|randomizing>] [--seed <n>] [--shards <n>] [--salvage] \
     [--resume <checkpoint.orp>] [--checkpoint <file>] \
     [--sample rate=<n>|budget=<p>%|reservoir=<k>] \
     [--stats] [--metrics-out <file.json>] [--embed-report] [--fault-plan <spec>]\n  \
     orprof-cli record --workload <name> --out <file> [--scale <n>] [--allocator ..] [--seed <n>] \
     [--stats] [--metrics-out <file.json>] [--fault-plan <spec>]\n  \
     orprof-cli optimize (--workload <name> | --from-trace <file>) [--scale <n>] \
     [--allocator ..] [--seed <n>] [--plan-out <file>] [--top <n>] \
     [--stats] [--metrics-out <file.json>] [--fault-plan <spec>]\n  \
     orprof-cli serve --socket <path> --dir <path> [--checkpoint-events <n>] \
     [--stats] [--metrics-out <file.json>]\n  \
     orprof-cli inspect <file>\n  orprof-cli report <file>\n\n\
     shards: leap and hybrid collect on N key-partitioned lanes, byte-identical to \
     --shards 1; sharded runs checkpoint and resume like inline ones\n\
     grammars: whomp grows its four dimension grammars on worker threads on a \
     multi-CPU host and inline on one CPU; rasg grows its record grammar inline\n\
     fault plans (run, record, optimize; also via ORP_FAULT_PLAN): io-error@n=K, short-write@n=K, \
     interrupt@n=K[xT], would-block@n=K[xT], crash@byte=B"
}

fn workloads(scale: u32) -> Vec<Box<dyn Workload>> {
    let mut all = spec_suite(scale);
    all.extend(micro_suite());
    all
}

fn parse_allocator(s: &str) -> Option<AllocatorKind> {
    Some(match s {
        "bump" => AllocatorKind::Bump,
        "free-list" | "freelist" => AllocatorKind::FreeList,
        "buddy" => AllocatorKind::Buddy,
        "randomizing" | "random" => AllocatorKind::Randomizing,
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => parse_flags(&args[1..], &LIST_FLAGS).map(|_| cmd_list()),
        Some("run") => cmd_run(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list() {
    println!("workloads:");
    for w in workloads(1) {
        println!("  {}", w.name());
    }
    println!(
        "profilers:\n  whomp  (lossless OMSG)\n  rasg   (raw-address baseline)\n  \
         leap   (lossy LMAD profile)\n  hybrid (per-instruction grammars)"
    );
}

/// One subcommand's accepted flags: `values` take an argument,
/// `switches` stand alone, and at most `positionals` bare arguments are
/// accepted. Anything else is an error — a misspelled flag must never
/// be silently ignored.
struct FlagSpec {
    values: &'static [&'static str],
    switches: &'static [&'static str],
    positionals: usize,
}

const LIST_FLAGS: FlagSpec = FlagSpec {
    values: &[],
    switches: &[],
    positionals: 0,
};

const RUN_FLAGS: FlagSpec = FlagSpec {
    values: &[
        "--workload",
        "--from-trace",
        "--profiler",
        "--out",
        "--scale",
        "--allocator",
        "--seed",
        "--shards",
        "--resume",
        "--checkpoint",
        "--sample",
        "--metrics-out",
        "--fault-plan",
    ],
    switches: &["--stats", "--embed-report", "--salvage"],
    positionals: 0,
};

const RECORD_FLAGS: FlagSpec = FlagSpec {
    values: &[
        "--workload",
        "--from-trace",
        "--out",
        "--scale",
        "--allocator",
        "--seed",
        "--metrics-out",
        "--fault-plan",
    ],
    switches: &["--stats"],
    positionals: 0,
};

const OPTIMIZE_FLAGS: FlagSpec = FlagSpec {
    values: &[
        "--workload",
        "--from-trace",
        "--scale",
        "--allocator",
        "--seed",
        "--plan-out",
        "--top",
        "--metrics-out",
        "--fault-plan",
    ],
    switches: &["--stats"],
    positionals: 0,
};

const SERVE_FLAGS: FlagSpec = FlagSpec {
    values: &["--socket", "--dir", "--checkpoint-events", "--metrics-out"],
    switches: &["--stats"],
    positionals: 0,
};

const FILE_FLAGS: FlagSpec = FlagSpec {
    values: &[],
    switches: &[],
    positionals: 1,
};

/// A strictly parsed command line.
struct Parsed {
    values: BTreeMap<&'static str, String>,
    switches: BTreeSet<&'static str>,
    positionals: Vec<String>,
}

impl Parsed {
    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(name)
    }
}

fn parse_flags(args: &[String], spec: &FlagSpec) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        values: BTreeMap::new(),
        switches: BTreeSet::new(),
        positionals: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(&name) = spec.values.iter().find(|&&f| f == arg) {
            let value = iter
                .next()
                .ok_or_else(|| format!("flag {name} expects a value"))?;
            if value.starts_with("--") {
                return Err(format!(
                    "flag {name} expects a value, but the next argument is the flag {value}"
                ));
            }
            if parsed.values.insert(name, value.clone()).is_some() {
                return Err(format!("flag {name} given more than once"));
            }
        } else if let Some(&name) = spec.switches.iter().find(|&&f| f == arg) {
            parsed.switches.insert(name);
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}\n{}", usage()));
        } else if parsed.positionals.len() < spec.positionals {
            parsed.positionals.push(arg.clone());
        } else {
            return Err(format!("unexpected argument {arg}\n{}", usage()));
        }
    }
    Ok(parsed)
}

fn parse_cfg(parsed: &Parsed) -> Result<RunConfig, String> {
    let mut cfg = RunConfig::default();
    if let Some(a) = parsed.value("--allocator") {
        cfg.allocator = parse_allocator(a).ok_or("unknown --allocator")?;
    }
    if let Some(s) = parsed.value("--seed") {
        cfg.heap_seed = s.parse().map_err(|_| "bad --seed")?;
    }
    Ok(cfg)
}

fn find_workload(name: &str, scale: u32) -> Result<Box<dyn Workload>, String> {
    workloads(scale)
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name} (try `orprof-cli list`)"))
}

/// What [`drive`] fed into the sink: the event count, plus the trace
/// container's read totals when the events came from a file.
struct DriveOutcome {
    events: u64,
    trace_io: Option<IoStats>,
}

/// Per-command I/O context: the fault-injection plan — parsed exactly
/// once, so its op counter spans every read and write the whole
/// command performs — plus the transient-error retry total surfaced as
/// the `io.retries` counter.
struct IoCtx {
    plan: Option<FaultPlan>,
    retries: u64,
}

/// A fault-gated, retry-wrapped reader (see [`IoCtx::open_reader`]).
type FaultReader = BufReader<RetryRead<Box<dyn Read>>>;

impl IoCtx {
    /// Builds the context from `--fault-plan`, falling back to the
    /// `ORP_FAULT_PLAN` environment variable; a malformed spec is an
    /// error, never silently ignored.
    fn from_flags(parsed: &Parsed) -> Result<IoCtx, String> {
        let plan = match parsed.value("--fault-plan") {
            Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| e.to_string())?),
            None => FaultPlan::from_env().map_err(|e| e.to_string())?,
        };
        Ok(IoCtx { plan, retries: 0 })
    }

    /// Opens `path` for reading through the fault plan and the bounded
    /// retry layer. Call [`IoCtx::harvest_reader`] when done with it.
    fn open_reader(&self, path: &str) -> Result<FaultReader, String> {
        let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let raw: Box<dyn Read> = match &self.plan {
            Some(plan) => Box::new(FailingRead::new(file, plan.clone())),
            None => Box::new(file),
        };
        Ok(BufReader::new(RetryRead::new(raw)))
    }

    /// Accumulates a reader's transient-retry count into `io.retries`.
    fn harvest_reader(&mut self, reader: &FaultReader) {
        self.retries += reader.get_ref().retries();
    }

    /// Opens a durable atomic writer for `dest`: bytes land in a
    /// sibling temp file and only replace `dest` at
    /// [`IoCtx::commit_writer`].
    fn create_writer(&self, dest: &str) -> Result<BufWriter<RetryWrite<AtomicFile>>, String> {
        let file = AtomicFile::create_with_plan(dest, self.plan.clone())
            .map_err(|e| format!("create {dest}: {e}"))?;
        Ok(BufWriter::new(RetryWrite::new(file)))
    }

    /// Flushes, fsyncs, and atomically publishes a writer built by
    /// [`IoCtx::create_writer`], accumulating its retries. Until this
    /// returns `Ok`, the old contents of `dest` are untouched.
    fn commit_writer(
        &mut self,
        w: BufWriter<RetryWrite<AtomicFile>>,
        dest: &str,
    ) -> Result<(), String> {
        let rw = w
            .into_inner()
            .map_err(|e| format!("flush {dest}: {}", e.into_error()))?;
        self.retries += rw.retries();
        rw.into_inner()
            .commit()
            .map_err(|e| format!("write {dest}: {e}"))
    }

    /// Writes `bytes` to `dest` through the full durable path:
    /// temp sibling, bounded retry, fsync, atomic rename, parent-dir
    /// fsync. A reader of `dest` sees the old or the new contents,
    /// never a torn mix.
    fn write_atomic(&mut self, dest: &str, bytes: &[u8]) -> Result<(), String> {
        let mut w = self.create_writer(dest)?;
        std::io::Write::write_all(&mut w, bytes).map_err(|e| format!("write {dest}: {e}"))?;
        self.commit_writer(w, dest)
    }
}

/// Counts events on their way into the real sink so every drive path
/// reports the same number.
struct CountingProbe<'a> {
    inner: &'a mut dyn ProbeSink,
    events: u64,
}

impl ProbeSink for CountingProbe<'_> {
    fn access(&mut self, ev: AccessEvent) {
        self.events += 1;
        self.inner.access(ev);
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.events += 1;
        self.inner.alloc(ev);
    }

    fn free(&mut self, ev: FreeEvent) {
        self.events += 1;
        self.inner.free(ev);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// What a `run` driver hands back: the finished session, how the drive
/// went, and pipeline stats when sharded.
type RunOutput<S> = (Session<S>, DriveOutcome, Option<PipelineStats>);

/// A parsed `--sample` argument: a fixed periodic rate, or an adaptive
/// overhead budget the session's [`RateController`] holds at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SampleSpec {
    /// `rate=N` — keep 1-in-N accesses per (instruction, group) key.
    Rate(u64),
    /// `budget=P%` — start lossless, back the rate off until profiling
    /// overhead fits within P percent of native run time.
    Budget(f64),
    /// `reservoir=K` — keep a uniform K-sample reservoir per
    /// (instruction, group) key, weighted back up on read.
    Reservoir(u64),
}

fn parse_sample(parsed: &Parsed) -> Result<Option<SampleSpec>, String> {
    let Some(spec) = parsed.value("--sample") else {
        return Ok(None);
    };
    if let Some(n) = spec.strip_prefix("rate=") {
        let rate: u64 = n.parse().map_err(|_| "bad --sample rate")?;
        if rate == 0 {
            return Err("--sample rate must be at least 1".to_owned());
        }
        return Ok(Some(SampleSpec::Rate(rate)));
    }
    if let Some(p) = spec.strip_prefix("budget=") {
        let pct: f64 = p
            .strip_suffix('%')
            .unwrap_or(p)
            .parse()
            .map_err(|_| "bad --sample budget")?;
        if !pct.is_finite() || pct <= 0.0 {
            return Err("--sample budget must be a positive percentage".to_owned());
        }
        return Ok(Some(SampleSpec::Budget(pct)));
    }
    if let Some(k) = spec.strip_prefix("reservoir=") {
        let capacity: u64 = k.parse().map_err(|_| "bad --sample reservoir")?;
        if capacity == 0 {
            return Err("--sample reservoir must be at least 1".to_owned());
        }
        return Ok(Some(SampleSpec::Reservoir(capacity)));
    }
    Err(format!(
        "--sample expects rate=<n>, budget=<p>%, or reservoir=<k>, got {spec}"
    ))
}

/// The sampler a spec opens with: budget mode starts lossless and lets
/// the controller back the rate off.
fn sampler_for(sample: Option<SampleSpec>) -> Sampler {
    match sample {
        None => Sampler::off(),
        Some(SampleSpec::Rate(rate)) => Sampler::periodic(rate),
        Some(SampleSpec::Budget(_)) => Sampler::periodic(1),
        Some(SampleSpec::Reservoir(capacity)) => Sampler::reservoir(capacity),
    }
}

/// Measures the workload's native per-event cost: the same drive, fed
/// into a do-nothing sink. The budget controller needs this baseline —
/// overhead is profiling cost *relative to the uninstrumented run*.
fn baseline_event_nanos(parsed: &Parsed, ctx: &mut IoCtx) -> Result<f64, String> {
    let clock = Stopwatch::start();
    let outcome = drive(parsed, ctx, &mut NullSink)?;
    let nanos = clock.elapsed_nanos();
    if outcome.events == 0 {
        return Err("--sample budget=: the workload produced no events to calibrate on".to_owned());
    }
    Ok(nanos as f64 / outcome.events as f64)
}

/// Reports where a budget left the sampling rate, then honors
/// `--checkpoint` (unless `checkpoint` is false): the session — with
/// its budget's calibration — lands durably via the atomic-rename path,
/// so a crash mid-write leaves the predecessor checkpoint intact.
fn finish_session<S: SessionSink>(
    parsed: &Parsed,
    ctx: &mut IoCtx,
    session: &mut Session<S>,
    checkpoint: bool,
) -> Result<(), String> {
    if let Some(controller) = session.budget() {
        let rate = session.cdc().sampler().current_rate();
        if session.budget_control_steps() == Some(0) {
            println!(
                "sample budget unmeasured at rate {rate} \
                 (no control step: fewer than 65,536 events fed)"
            );
        } else {
            let how = if parsed.value("--resume").is_some() {
                "resumed"
            } else {
                "settled"
            };
            println!(
                "sample budget {how} at rate {rate} ({:.1}% measured overhead, {} adjustments)",
                controller.last_overhead() * 100.0,
                controller.adjustments()
            );
        }
    }
    let Some(path) = parsed.value("--checkpoint").filter(|_| checkpoint) else {
        return Ok(());
    };
    let mut w = ctx.create_writer(path)?;
    session
        .checkpoint(&mut w)
        .map_err(|e| format!("checkpoint {path}: {e}"))?;
    ctx.commit_writer(w, path)?;
    println!("checkpoint written to {path}");
    Ok(())
}

/// Feeds probe events into `sink`, either live from a workload run or
/// by replaying a recorded trace file.
fn drive(
    parsed: &Parsed,
    ctx: &mut IoCtx,
    sink: &mut dyn ProbeSink,
) -> Result<DriveOutcome, String> {
    if let Some(path) = parsed.value("--from-trace") {
        let mut reader = ctx.open_reader(path)?;
        let (events, io) = orprof::trace::replay_counted(&mut reader, sink)
            .map_err(|e| format!("replay {path}: {e}"))?;
        ctx.harvest_reader(&reader);
        println!("replayed {events} events from {path}");
        return Ok(DriveOutcome {
            events,
            trace_io: Some(io),
        });
    }
    let workload_name = parsed
        .value("--workload")
        .ok_or("missing --workload or --from-trace")?;
    let scale: u32 = parsed
        .value("--scale")
        .map_or(Ok(1), |s| s.parse().map_err(|_| "bad --scale"))?;
    let cfg = parse_cfg(parsed)?;
    let workload = find_workload(workload_name, scale)?;
    let mut counting = CountingProbe {
        inner: sink,
        events: 0,
    };
    let mut tracer = Tracer::new(&cfg, &mut counting);
    workload.run(&mut tracer);
    tracer.finish();
    Ok(DriveOutcome {
        events: counting.events,
        trace_io: None,
    })
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let parsed = parse_flags(args, &RECORD_FLAGS)?;
    let clock = Stopwatch::start();
    let mut ctx = IoCtx::from_flags(&parsed)?;
    let out = parsed.value("--out").ok_or("missing --out")?.to_owned();
    let mut writer = orprof::trace::TraceWriter::new(ctx.create_writer(&out)?)
        .map_err(|e| format!("write {out}: {e}"))?;
    let outcome = drive(&parsed, &mut ctx, &mut writer)?;
    // `drive` finished the writer, so every batch chunk is counted; the
    // container terminator lands with `into_inner` below.
    let write_io = writer.io_stats();
    let events = writer.events();
    let w = writer
        .into_inner()
        .map_err(|e| format!("write {out}: {e}"))?;
    ctx.commit_writer(w, &out)?;
    // Success is announced only now — after the fsync and the atomic
    // rename — so "recorded" means the bytes are durably on disk, not
    // sitting in a userspace buffer.
    println!("recorded {events} events to {out}");

    let mut rec = StatsRecorder::default();
    rec.counter("trace.write_chunks", write_io.chunks);
    rec.counter("trace.write_bytes", write_io.bytes);
    if let Ok(meta) = std::fs::metadata(&out) {
        rec.counter("trace.file_bytes", meta.len());
    }
    absorb_trace_io(&mut rec, &outcome);
    rec.counter("io.retries", ctx.retries);
    let mut report = RunReport::new("record");
    report.workload = parsed.value("--workload").map(str::to_owned);
    report.shards = 1;
    report.events = outcome.events;
    report.wall_nanos = clock.elapsed_nanos();
    report.absorb(&rec);
    emit_report(&parsed, &mut ctx, &report)
}

/// Opens a profiling session — fresh, or restored from a `--resume`
/// checkpoint container. `open` builds the session's sink: from
/// nothing, or around the profiler a checkpoint restored as `R` (how a
/// WHOMP checkpoint continues on grammar workers). A fresh session is
/// sampled per `sample`, and a budget spec first calibrates the native
/// baseline; a resumed one keeps the checkpoint's own sampler and
/// budget (`--sample` + `--resume` is rejected before this runs).
fn open_session<R: SessionSink, S: OrSink>(
    parsed: &Parsed,
    ctx: &mut IoCtx,
    sample: Option<SampleSpec>,
    open: impl FnOnce(Option<R>) -> S,
) -> Result<Session<S>, String> {
    let Some(path) = parsed.value("--resume") else {
        let controller = match sample {
            Some(SampleSpec::Budget(pct)) => {
                let baseline = baseline_event_nanos(parsed, ctx)?;
                println!("sample budget {pct}%: native baseline {baseline:.1} ns/event");
                Some(RateController::new(pct, baseline))
            }
            _ => None,
        };
        let cdc = Cdc::with_sampler(Omc::new(), open(None), sampler_for(sample));
        let session = Session::from_cdc(cdc);
        return Ok(match controller {
            Some(controller) => session.with_budget(controller),
            None => session,
        });
    };
    let mut reader = ctx.open_reader(path)?;
    let session = Session::<R>::resume(&mut reader).map_err(|e| format!("resume {path}: {e}"))?;
    ctx.harvest_reader(&reader);
    println!("resumed from checkpoint {path}");
    Ok(session.map_sink(|p| open(Some(p))))
}

/// Runs a profiling session inline: opens it ([`open_session`]),
/// drives it, and honors `--checkpoint`.
fn run_session<R: SessionSink, S: SessionSink>(
    parsed: &Parsed,
    ctx: &mut IoCtx,
    sample: Option<SampleSpec>,
    open: impl FnOnce(Option<R>) -> S,
) -> Result<(Session<S>, DriveOutcome), String> {
    let mut session = open_session(parsed, ctx, sample, open)?;
    let outcome = drive(parsed, ctx, &mut session)?;
    finish_session(parsed, ctx, &mut session, true)?;
    Ok((session, outcome))
}

/// Runs a shardable profiler on `shards` collection lanes (one lane
/// when `--salvage` asks for the pipeline without `--shards`): the
/// session opens and checkpoints exactly as [`run_session`]'s does, and
/// its budget steers the sampler on the translator thread. A dead lane
/// fails the run, or with `--salvage` degrades it — the dead lane's
/// later tuples divert to a fallback sink, and a degraded session
/// writes no checkpoint.
fn run_sharded<S: SessionSink + ShardableSink>(
    parsed: &Parsed,
    ctx: &mut IoCtx,
    shards: usize,
    sample: Option<SampleSpec>,
    mut fresh: impl FnMut(usize) -> S,
) -> Result<(Session<S>, DriveOutcome, PipelineStats), String> {
    let session = open_session(parsed, ctx, sample, |restored: Option<S>| {
        restored.unwrap_or_else(|| fresh(0))
    })?;
    let mut pipe = ShardedCdc::spawn(session, shards, fresh);
    let outcome = drive(parsed, ctx, &mut pipe)?;
    let joined = pipe.join().map_err(|e| e.to_string())?;
    let mut session = joined.session;
    for err in &joined.degraded {
        if !parsed.has("--salvage") {
            return Err(err.to_string());
        }
        eprintln!(
            "warning: {err}; continuing degraded (salvaged {} tuples, no checkpoint)",
            joined.stats.salvaged_tuples()
        );
    }
    finish_session(parsed, ctx, &mut session, joined.degraded.is_empty())?;
    Ok((session, outcome, joined.stats))
}

/// [`run_session`] or [`run_sharded`], depending on `shards` (a
/// `--salvage` run always uses the sharded pipeline — salvage lives in
/// its translator).
fn run_maybe_sharded<S: SessionSink + ShardableSink>(
    parsed: &Parsed,
    ctx: &mut IoCtx,
    shards: usize,
    sample: Option<SampleSpec>,
    mut fresh: impl FnMut(usize) -> S,
) -> Result<RunOutput<S>, String> {
    if shards == 1 && !parsed.has("--salvage") {
        let (session, outcome) = run_session(parsed, ctx, sample, |restored| {
            restored.unwrap_or_else(|| fresh(0))
        })?;
        Ok((session, outcome, None))
    } else {
        run_sharded(parsed, ctx, shards, sample, fresh).map(|(s, o, p)| (s, o, Some(p)))
    }
}

/// Publishes a finished session's metrics and returns its budget's
/// last measured overhead, the `sample.overhead` ratio — `None` when no
/// control step ran, so no overhead was measured.
fn record_session<S: SessionSink>(session: &Session<S>, rec: &mut StatsRecorder) -> Option<f64> {
    session.record_metrics(rec);
    if session.budget_control_steps()? == 0 {
        return None;
    }
    session.budget().map(RateController::last_overhead)
}

fn absorb_trace_io(rec: &mut StatsRecorder, outcome: &DriveOutcome) {
    if let Some(io) = outcome.trace_io {
        rec.counter("trace.read_chunks", io.chunks);
        rec.counter("trace.read_bytes", io.bytes);
    }
}

fn absorb_pipeline(rec: &mut StatsRecorder, report: &mut RunReport, stats: &PipelineStats) {
    stats.record_metrics(rec);
    report.shard_counts = stats
        .shards
        .iter()
        .map(|s| ShardCount {
            shard: s.shard,
            tuples: s.tuples,
            batches: s.batches,
            stalls: s.stalls,
            salvaged: s.salvaged,
        })
        .collect();
}

fn serialize_profile(
    write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>,
) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    write(&mut bytes).map_err(|e| format!("serialize profile: {e}"))?;
    Ok(bytes)
}

fn emit_report(parsed: &Parsed, ctx: &mut IoCtx, report: &RunReport) -> Result<(), String> {
    if parsed.has("--stats") {
        eprint!("{}", report.render_table());
    }
    if let Some(path) = parsed.value("--metrics-out") {
        ctx.write_atomic(path, report.to_json().as_bytes())?;
        println!("run report written to {path}");
    }
    Ok(())
}

/// `orprof-cli serve`: runs the multi-tenant profiling daemon until a
/// shutdown handshake arrives, then reports its lifetime totals through
/// the standard run-report vocabulary.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let parsed = parse_flags(args, &SERVE_FLAGS)?;
    let clock = Stopwatch::start();
    // The daemon writes tenant checkpoints and profiles through its own
    // durable path, so no fault plan applies: a plan here would reach
    // only the report below.
    let mut ctx = IoCtx {
        plan: None,
        retries: 0,
    };
    let socket = parsed
        .value("--socket")
        .ok_or("missing --socket")?
        .to_owned();
    let dir = parsed.value("--dir").ok_or("missing --dir")?.to_owned();
    let mut config = DaemonConfig::new(&socket, &dir);
    if let Some(n) = parsed.value("--checkpoint-events") {
        config.checkpoint_events = n.parse().map_err(|_| "bad --checkpoint-events")?;
    }
    let daemon = Daemon::start(config).map_err(|e| format!("serve on {socket}: {e}"))?;
    println!("orpd listening on {socket}, tenant artifacts in {dir}");
    let stats = daemon.stats_handle();
    daemon.join().map_err(|e| format!("serve: {e}"))?;
    println!(
        "orpd drained: {} sessions ({} finished, {} degraded, {} disconnected), {} events",
        OrpdStats::get(&stats.sessions_started),
        OrpdStats::get(&stats.sessions_finished),
        OrpdStats::get(&stats.sessions_degraded),
        OrpdStats::get(&stats.sessions_disconnected),
        OrpdStats::get(&stats.events),
    );

    let mut rec = StatsRecorder::default();
    stats.record_metrics(&mut rec);
    let mut report = RunReport::new("serve");
    report.shards = 1;
    report.events = OrpdStats::get(&stats.events);
    report.wall_nanos = clock.elapsed_nanos();
    report.absorb(&rec);
    emit_report(&parsed, &mut ctx, &report)
}

fn derive_ratios(report: &mut RunReport) {
    let hits = report.counters.get("omc.memo_hits").copied().unwrap_or(0);
    let misses = report.counters.get("omc.memo_misses").copied().unwrap_or(0);
    if hits + misses > 0 {
        report.ratios.insert(
            "omc.memo_hit_rate".to_owned(),
            hits as f64 / (hits + misses) as f64,
        );
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let parsed = parse_flags(args, &RUN_FLAGS)?;
    let clock = Stopwatch::start();
    let mut ctx = IoCtx::from_flags(&parsed)?;
    let profiler = parsed.value("--profiler").unwrap_or("leap").to_owned();
    let out = parsed.value("--out").map(str::to_owned);
    if parsed.has("--embed-report") && out.is_none() {
        return Err("--embed-report requires --out".to_owned());
    }
    let shards: usize = match parsed.value("--shards") {
        Some(s) => {
            let n = s.parse().map_err(|_| "bad --shards")?;
            if n == 0 {
                return Err("--shards must be at least 1".to_owned());
            }
            n
        }
        None => 1,
    };
    let no_shards = |name: &str| -> Result<(), String> {
        if shards > 1 {
            return Err(format!(
                "{name} cannot run sharded; --shards applies to leap and hybrid"
            ));
        }
        Ok(())
    };
    let sample = parse_sample(&parsed)?;
    if sample.is_some() && parsed.value("--resume").is_some() {
        // A sampled checkpoint carries its own admission state; letting
        // a fresh flag override it would fork the admission sequence.
        return Err(
            "--sample cannot be combined with --resume; the checkpoint's \
                    sampler state governs a resumed run"
                .to_owned(),
        );
    }
    if matches!(sample, Some(SampleSpec::Budget(_))) && parsed.value("--workload").is_none() {
        // The controller calibrates against a native re-run of the
        // workload, so a replay has nothing to calibrate on.
        return Err("--sample budget= requires a live --workload run \
                    (the native baseline pre-pass re-runs it)"
            .to_owned());
    }
    let mut overhead = None;

    let mut rec = StatsRecorder::default();
    let mut report = RunReport::new("run");
    report.workload = parsed.value("--workload").map(str::to_owned);
    report.profiler = Some(profiler.clone());
    report.shards = shards as u64;

    let profile_bytes = match profiler.as_str() {
        "leap" => {
            let (session, outcome, pstats) =
                run_maybe_sharded(&parsed, &mut ctx, shards, sample, |_| LeapProfiler::new())?;
            overhead = record_session(&session, &mut rec);
            report.events = outcome.events;
            absorb_trace_io(&mut rec, &outcome);
            if let Some(p) = &pstats {
                absorb_pipeline(&mut rec, &mut report, p);
            }
            let profile = session.into_cdc().into_parts().1.into_profile();
            println!(
                "leap: {} accesses, {} streams, {} bytes ({:.0}x over the raw trace)",
                profile.total_accesses(),
                profile.streams().len(),
                profile.encoded_bytes(),
                profile.compression_ratio()
            );
            let q = profile.sample_quality();
            println!(
                "sample quality: {:.1}% accesses, {:.1}% instructions captured",
                q.accesses_captured * 100.0,
                q.instructions_captured * 100.0
            );
            profile.record_metrics(&mut rec);
            serialize_profile(|w| profile.write_to(w))?
        }
        "whomp" => {
            no_shards("whomp's global grammars")?;
            // The host picks the engine (DESIGN.md §13): one grammar
            // worker per dimension on a multi-CPU host, inline on one.
            let workers = PipelinedWhomp::default_workers();
            let (profiler, outcome) = if workers > 0 {
                let (session, outcome) = run_session(
                    &parsed,
                    &mut ctx,
                    sample,
                    |restored: Option<WhompProfiler>| {
                        PipelinedWhomp::from_profiler(restored.unwrap_or_default(), workers)
                    },
                )?;
                overhead = record_session(&session, &mut rec);
                let pipe = session.into_cdc().into_parts().1;
                let (profiler, gstats) = pipe.try_join().map_err(|e| e.to_string())?;
                gstats.record_metrics(&mut rec);
                (profiler, outcome)
            } else {
                let (session, outcome) = run_session(
                    &parsed,
                    &mut ctx,
                    sample,
                    Option::<WhompProfiler>::unwrap_or_default,
                )?;
                overhead = record_session(&session, &mut rec);
                (session.into_cdc().into_parts().1, outcome)
            };
            report.events = outcome.events;
            absorb_trace_io(&mut rec, &outcome);
            profiler.record_grammar_metrics(&mut rec);
            let omsg = profiler.into_omsg();
            println!(
                "whomp: {} tuples, grammar size {} symbols, {} bytes",
                omsg.tuples(),
                omsg.total_size(),
                omsg.encoded_bytes()
            );
            omsg.record_metrics(&mut rec);
            serialize_profile(|w| omsg.write_to(w))?
        }
        "hybrid" => {
            let (session, outcome, pstats) =
                run_maybe_sharded(&parsed, &mut ctx, shards, sample, |_| HybridProfiler::new())?;
            overhead = record_session(&session, &mut rec);
            report.events = outcome.events;
            absorb_trace_io(&mut rec, &outcome);
            if let Some(p) = &pstats {
                absorb_pipeline(&mut rec, &mut report, p);
            }
            let profiler = session.into_cdc().into_parts().1;
            profiler.record_grammar_metrics(&mut rec);
            let profile = profiler.into_profile();
            println!(
                "hybrid: {} tuples, {} instructions, grammar size {} symbols",
                profile.tuples(),
                profile.iter().count(),
                profile.total_size()
            );
            profile.record_metrics(&mut rec);
            serialize_profile(|w| profile.write_to(w))?
        }
        "rasg" => {
            no_shards("rasg profiles raw addresses and")?;
            if sample.is_some() {
                return Err("rasg profiles raw addresses before translation; --sample \
                            filters translated accesses and applies to leap, whomp, hybrid"
                    .to_owned());
            }
            if parsed.value("--resume").is_some() || parsed.value("--checkpoint").is_some() {
                return Err("rasg profiles raw addresses; checkpoints apply to the \
                            object-relative profilers (leap, whomp, hybrid)"
                    .to_owned());
            }
            let mut profiler = RasgProfiler::new();
            let outcome = drive(&parsed, &mut ctx, &mut profiler)?;
            report.events = outcome.events;
            absorb_trace_io(&mut rec, &outcome);
            profiler.record_grammar_metrics(&mut rec);
            let rasg = profiler.into_rasg();
            println!(
                "rasg: {} records, grammar size {} symbols, {} bytes",
                rasg.accesses(),
                rasg.total_size(),
                rasg.encoded_bytes()
            );
            rasg.record_metrics(&mut rec);
            serialize_profile(|w| rasg.write_to(w))?
        }
        other => return Err(format!("unknown profiler {other}")),
    };

    rec.counter("profile.bytes", profile_bytes.len() as u64);
    if let Some(path) = &out {
        // Durable atomic publish: a crash mid-write leaves the old
        // profile (or no file), never a torn container.
        ctx.write_atomic(path, &profile_bytes)?;
        println!("profile written to {path}");
    }
    rec.counter("io.retries", ctx.retries);

    report.wall_nanos = clock.elapsed_nanos();
    report.absorb(&rec);
    derive_ratios(&mut report);
    if let Some(overhead) = overhead {
        report.ratios.insert("sample.overhead".to_owned(), overhead);
    }
    emit_report(&parsed, &mut ctx, &report)?;

    if parsed.has("--embed-report") {
        let path = out.as_deref().unwrap_or_default();
        let embedded = orprof::obs::embed_report(&profile_bytes, &report.to_json())
            .map_err(|e| format!("embed report into {path}: {e}"))?;
        ctx.write_atomic(path, &embedded)?;
        println!("run report embedded into {path}");
    }
    Ok(())
}

/// The optimize pipeline's collection sink: one pass over the
/// object-relative stream feeds every adviser and keeps the tuples for
/// the replay stage.
#[derive(Default)]
struct OptimizeCollector {
    advisors: AdvisorSet,
    tuples: Vec<OrTuple>,
}

impl OrSink for OptimizeCollector {
    fn tuple(&mut self, t: &OrTuple) {
        self.advisors.tuple(t);
        self.tuples.push(*t);
    }
}

/// The end-to-end loop the paper motivates: profile → advise → plan →
/// apply → re-simulate → report.
fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let parsed = parse_flags(args, &OPTIMIZE_FLAGS)?;
    let clock = Stopwatch::start();
    let mut ctx = IoCtx::from_flags(&parsed)?;
    let cfg = parse_cfg(&parsed)?;

    // Profile: one run (or trace replay) through the CDC/OMC pipeline.
    let mut cdc = Cdc::new(Omc::new(), OptimizeCollector::default());
    let outcome = drive(&parsed, &mut ctx, &mut cdc)?;
    let mut rec = StatsRecorder::default();
    cdc.record_metrics(&mut rec);
    let (omc, collected) = cdc.into_parts();
    let mut records = omc.archive().to_vec();
    records.extend(omc.live_records());
    records.sort_by_key(|r| (r.alloc_time, r.group, r.serial));

    // Advise + plan: every adviser's transforms, canonically ordered.
    let mut plan = collected.advisors.plan();
    if let Some(top) = parsed.value("--top") {
        plan.truncate(top.parse().map_err(|_| "bad --top")?);
    }
    println!(
        "optimize: {} tuples over {} objects -> {} transforms",
        collected.tuples.len(),
        records.len(),
        plan.len()
    );

    let plan_bytes = plan.to_bytes();
    if let Some(path) = parsed.value("--plan-out") {
        ctx.write_atomic(path, &plan_bytes)?;
        println!("layout plan written to {path}");
    }

    // Apply + re-simulate: baseline, planned, and per-transform
    // replays of the same stream through identical hierarchies.
    let eval_cfg = EvalConfig {
        allocator: cfg.allocator,
        seed: cfg.heap_seed,
        ..EvalConfig::default()
    };
    let objects = extents_from_records(&records);
    let eval = evaluate_plan(&plan, &objects, &collected.tuples, &eval_cfg)
        .map_err(|e| format!("apply plan: {e}"))?;
    println!(
        "baseline L1 miss rate {:.2}%, planned {:.2}% ({:+.2} pp)",
        eval.baseline.l1_miss_rate() * 100.0,
        eval.planned.l1_miss_rate() * 100.0,
        -eval.l1_improvement() * 100.0
    );
    for t in &eval.transforms {
        println!(
            "  {:<28} via {:<13} benefit {:>8}  L1 delta {:+.2} pp",
            t.label,
            t.advisor,
            t.benefit,
            -t.l1_delta * 100.0
        );
    }

    // Report: the evaluation flattened into the opt.* namespace.
    rec.counter("opt.transforms", plan.len() as u64);
    rec.counter("opt.objects", records.len() as u64);
    rec.counter("opt.tuples", collected.tuples.len() as u64);
    rec.counter("opt.plan_bytes", plan_bytes.len() as u64);
    rec.counter("opt.replay_skipped", eval.planned.skipped);
    absorb_trace_io(&mut rec, &outcome);
    rec.counter("io.retries", ctx.retries);
    let mut report = RunReport::new("optimize");
    report.workload = parsed.value("--workload").map(str::to_owned);
    report.shards = 1;
    report.events = outcome.events;
    report.wall_nanos = clock.elapsed_nanos();
    report.absorb(&rec);
    for (key, value) in eval.metrics() {
        report.ratios.insert(key, value);
    }
    emit_report(&parsed, &mut ctx, &report)
}

/// Walks a container's chunks, printing the self-describing registry
/// view, and returns the profile kind from the `META` chunk.
fn print_container(path: &str) -> Result<ProfileKind, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut reader =
        ContainerReader::new(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: .orp container, format v{}", reader.version());
    let mut kind: Option<ProfileKind> = None;
    while let Some(chunk) = reader.next_chunk().map_err(|e| format!("{path}: {e}"))? {
        let name = String::from_utf8_lossy(&chunk.tag.0).into_owned();
        let desc = chunk.tag.describe().unwrap_or("(unregistered chunk)");
        println!("  {name:<4} {:>9} B  {desc}", chunk.payload.len());
        let mut cursor = chunk.payload.as_slice();
        match chunk.tag {
            ChunkTag::META => {
                let code = read_varint(&mut cursor).map_err(|e| format!("{path}: META: {e}"))?;
                kind =
                    Some(ProfileKind::from_code(code).map_err(|e| format!("{path}: META: {e}"))?);
            }
            ChunkTag::CDC_STATE => {
                if let (Ok(time), Ok(untracked), Ok(anomalies), Ok(events)) = (
                    read_varint(&mut cursor),
                    read_varint(&mut cursor),
                    read_varint(&mut cursor),
                    read_varint(&mut cursor),
                ) {
                    println!(
                        "       time {time}, {events} events fed, {untracked} untracked, \
                         {anomalies} probe anomalies"
                    );
                }
            }
            ChunkTag::SAMPLER_STATE => {
                if let Ok(sampler) = Sampler::restore_state(&mut cursor) {
                    let policy = match sampler.policy() {
                        SamplingPolicy::Off => "off".to_owned(),
                        SamplingPolicy::Periodic { rate } => format!("periodic 1-in-{rate}"),
                        SamplingPolicy::Reservoir { capacity } => {
                            format!("reservoir capacity {capacity}")
                        }
                    };
                    let SampleStats {
                        considered, kept, ..
                    } = sampler.stats();
                    println!("       sampling {policy}: kept {kept} of {considered} considered");
                }
            }
            ChunkTag::HELLO => match Hello::decode(&chunk) {
                Ok(hello) => {
                    let mut notes = Vec::new();
                    if hello.resume {
                        notes.push("resume");
                    }
                    if hello.shutdown {
                        notes.push("shutdown");
                    }
                    let notes = if notes.is_empty() {
                        String::new()
                    } else {
                        format!(" ({})", notes.join(", "))
                    };
                    println!("       tenant {}{notes}", hello.tenant);
                }
                Err(e) => println!("       (malformed handshake: {e})"),
            },
            ChunkTag::SINK_STATE => {
                if let Ok(len) = read_varint(&mut cursor) {
                    let len = usize::try_from(len).unwrap_or(0);
                    if cursor.len() >= len {
                        if let Ok(name) = std::str::from_utf8(&cursor[..len]) {
                            println!("       profiler state: {name}");
                        }
                    }
                }
            }
            ChunkTag::METRICS => match std::str::from_utf8(&chunk.payload) {
                Ok(json) => {
                    for line in json.lines() {
                        println!("       {line}");
                    }
                }
                Err(_) => println!("       (MREP payload is not UTF-8)"),
            },
            // The registry line above already printed the tag; payloads
            // of other (including foreign) chunks have no inline view.
            other => {
                if other.describe().is_none() {
                    println!("       (payload not inspected)");
                }
            }
        }
    }
    kind.ok_or_else(|| format!("{path}: container has no META chunk"))
}

fn open(path: &str) -> Result<BufReader<File>, String> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("open {path}: {e}"))
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let parsed = parse_flags(args, &FILE_FLAGS)?;
    let path = parsed.positionals.first().ok_or("missing file")?;
    let kind = print_container(path)?;
    let fail = |e: orprof::format::FormatError| format!("{path}: {e}");
    match kind {
        ProfileKind::Leap => {
            let p = LeapProfile::read_from(&mut open(path)?).map_err(fail)?;
            println!(
                "LEAP profile: {} accesses over {} instructions",
                p.total_accesses(),
                p.instructions().len()
            );
            println!(
                "  {} streams, {} bytes",
                p.streams().len(),
                p.encoded_bytes()
            );
            let q = p.sample_quality();
            println!(
                "  sample quality: {:.1}% accesses, {:.1}% instructions",
                q.accesses_captured * 100.0,
                q.instructions_captured * 100.0
            );
        }
        ProfileKind::Omsg => {
            let p = Omsg::read_from(&mut open(path)?).map_err(fail)?;
            println!("WHOMP (OMSG) profile: {} tuples", p.tuples());
            for (name, g) in p.dimensions() {
                println!("  {name:12} {} rules, {} symbols", g.rule_count(), g.size());
            }
        }
        ProfileKind::Rasg => {
            let p = Rasg::read_from(&mut open(path)?).map_err(fail)?;
            println!(
                "RASG profile: {} records, {} rules, {} symbols",
                p.accesses(),
                p.records.rule_count(),
                p.records.size()
            );
        }
        ProfileKind::Hybrid => {
            let p = HybridProfile::read_from(&mut open(path)?).map_err(fail)?;
            println!(
                "hybrid profile: {} tuples over {} instructions, grammar size {} symbols",
                p.tuples(),
                p.iter().count(),
                p.total_size()
            );
        }
        ProfileKind::Grammar => {
            let g = Grammar::read_container(open(path)?).map_err(fail)?;
            println!(
                "Sequitur grammar: {} rules, {} symbols, expands to {} tokens",
                g.rule_count(),
                g.size(),
                g.expanded_len()
            );
        }
        ProfileKind::LmadSet => {
            let set = orprof::lmad::LmadSet::read_from(open(path)?).map_err(fail)?;
            println!(
                "LMAD set: {} descriptors, {} dimensions",
                set.len(),
                set.dims()
            );
        }
        ProfileKind::PhaseSignatures => {
            let det = PhaseDetector::read_from(&mut open(path)?).map_err(fail)?;
            println!(
                "phase signatures: {} phases over {} intervals of {} accesses",
                det.phase_count(),
                det.history().len(),
                det.interval()
            );
        }
        ProfileKind::Trace => {
            let mut counter = CountingSink::new();
            let events = orprof::trace::replay(&mut open(path)?, &mut counter).map_err(fail)?;
            let stats = counter.into_stats();
            println!(
                "probe trace: {events} events ({} loads, {} stores, {} allocs, {} frees)",
                stats.loads, stats.stores, stats.allocs, stats.frees
            );
        }
        ProfileKind::Checkpoint => {
            println!("checkpoint: resume with `orprof-cli run --resume {path} --profiler <name>`");
        }
        ProfileKind::LayoutPlan => {
            let plan = LayoutPlan::read_from(&mut open(path)?).map_err(fail)?;
            println!("layout plan: {} transforms", plan.len());
            for (t, label) in plan.transforms().iter().zip(plan.labels()) {
                println!("  {label:<28} {t}");
            }
        }
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let parsed = parse_flags(args, &FILE_FLAGS)?;
    let path = parsed.positionals.first().ok_or("missing file")?;
    let p = LeapProfile::read_from(&mut open(path)?)
        .map_err(|e| format!("{path}: {e} (report requires a LEAP profile)"))?;
    println!("== dependence frequencies ==");
    for ((st, ld), f) in mdf::dependence_frequencies(&p).pairs() {
        println!("  {st} -> {ld}: {:.1}%", f * 100.0);
    }
    println!("== strongly-strided instructions ==");
    for (instr, stride) in stride_stats(&p).strongly_strided(STRONG_STRIDE_THRESHOLD) {
        println!("  {instr}: stride {stride}");
    }
    Ok(())
}
