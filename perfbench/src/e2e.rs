//! The end-to-end run (`--trace 0`): set-up, the timed closed loop over
//! the user path, then the output checks outside the timed region.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use orp_orpd::FRAME_EVENTS;
use orp_trace::{ProbeEvent, VecSink};

use crate::proc::{self, Daemon, JobResult};
use crate::stats::{beyond, median, quantile, weighted_quantile};
use crate::{checks, churn, Ctx, Outcome, Recorded, Workload};
use crate::{CHURN_PROGRAM, PROGRAMS, SAMPLE_RATE, SCALE, SETUP_REPS};

/// Errors that stop a run without a result.
pub type Res<T> = Result<T, String>;

/// Joins a path into a CLI argument.
pub fn arg(p: &Path) -> String {
    p.display().to_string()
}

/// Records `program` under heap seed `seed` to `out`, returning the
/// number of probe events it holds.
pub fn record(ctx: &Ctx, program: &str, seed: u64, out: &Path) -> Res<u64> {
    let args: Vec<String> = vec![
        "record".into(),
        "--workload".into(),
        program.into(),
        "--scale".into(),
        SCALE.to_string(),
        "--allocator".into(),
        "randomizing".into(),
        "--seed".into(),
        seed.to_string(),
        "--out".into(),
        arg(out),
    ];
    let stdout = proc::run_capture(&ctx.cli, &args).map_err(|e| e.to_string())?;
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("recorded ")?.split(' ').next()?.parse().ok())
        .ok_or_else(|| format!("record {program}: no event count in {stdout:?}"))
}

/// Records every program in `programs` under `seed` into `dir`.
pub fn record_all(
    ctx: &Ctx,
    programs: &[&'static str],
    seed: u64,
    dir: &Path,
) -> Res<Vec<Recorded>> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    programs
        .iter()
        .map(|&name| {
            let trace = dir.join(format!("{name}.orpt"));
            let events = record(ctx, name, seed, &trace)?;
            Ok(Recorded {
                name,
                trace,
                events,
            })
        })
        .collect()
}

/// Reads a recorded trace back into memory.
pub fn load_events(trace: &Path) -> Res<Vec<ProbeEvent>> {
    let file = File::open(trace).map_err(|e| format!("open {}: {e}", trace.display()))?;
    let mut sink = VecSink::new();
    orp_trace::replay(&mut BufReader::new(file), &mut sink)
        .map_err(|e| format!("replay {}: {e}", trace.display()))?;
    Ok(sink.into_events())
}

/// The `orprof-cli run` arguments of one job of a CLI workload.
pub fn job_args(ctx: &Ctx, rec: &Recorded, trace: &Path, seed: u64, out: &Path) -> Vec<String> {
    let mut args: Vec<String> = vec!["run".into()];
    match ctx.workload {
        Workload::LeapLiveSampled => args.extend([
            "--workload".into(),
            rec.name.into(),
            "--scale".into(),
            SCALE.to_string(),
            "--allocator".into(),
            "randomizing".into(),
            "--seed".into(),
            seed.to_string(),
            "--sample".into(),
            format!("rate={SAMPLE_RATE}"),
        ]),
        _ => args.extend(["--from-trace".into(), arg(trace)]),
    }
    args.extend([
        "--profiler".into(),
        ctx.workload.profiler().into(),
        "--out".into(),
        arg(out),
    ]);
    args
}

/// The daemon's checkpoint interval for sessions of `events` events:
/// after every third of a session, so each session writes two durable
/// checkpoints beside its final profile. (Checkpointing after nearly
/// every frame made the run fsync-bound and its figures swing with the
/// disk rather than with the daemon.)
pub fn checkpoint_events(events: u64) -> u64 {
    (events / 3).max(1)
}

/// The `orprof-cli serve` arguments for sessions of `events` events.
pub fn serve_args(socket: &Path, dir: &Path, events: u64, metrics: &Path) -> Vec<String> {
    vec![
        "serve".into(),
        "--socket".into(),
        arg(socket),
        "--dir".into(),
        arg(dir),
        "--checkpoint-events".into(),
        checkpoint_events(events).to_string(),
        "--metrics-out".into(),
        arg(metrics),
    ]
}

/// Set-up for the CLI workloads, `SETUP_REPS` times: record the seven
/// programs. Returns the last set-up's recordings and every set-up time.
pub fn setup_programs(ctx: &Ctx) -> Res<(Vec<Recorded>, Vec<f64>)> {
    let mut times = Vec::new();
    let mut programs = Vec::new();
    for rep in 0..SETUP_REPS {
        let dir = ctx.work.join(format!("setup{rep}"));
        let t = Instant::now();
        programs = record_all(ctx, &PROGRAMS, ctx.seed, &dir)?;
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok((programs, times))
}

/// A running daemon with the churn input loaded for its clients.
pub struct ChurnSetup {
    pub churn: Recorded,
    pub events: Vec<ProbeEvent>,
    pub daemon: Daemon,
    pub socket: PathBuf,
    pub dir: PathBuf,
}

/// Set-up for `orpd-churn`, `SETUP_REPS` times: record the churn
/// program, load it for the clients, start `serve` and wait until it
/// listens. Every daemon but the last is shut down again.
pub fn setup_churn(ctx: &Ctx) -> Res<(ChurnSetup, Vec<f64>)> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let dir = ctx.work.join(format!("setup{rep}"));
        let socket = ctx.work.join("orpd.sock");
        let daemon_dir = dir.join("orpd");
        let metrics = dir.join("serve.json");
        let t = Instant::now();
        let churn = record_all(ctx, &[CHURN_PROGRAM], ctx.seed, &dir)?.remove(0);
        let events = load_events(&churn.trace)?;
        let args = serve_args(&socket, &daemon_dir, churn.events, &metrics);
        let daemon = Daemon::start(&ctx.cli, &args, &socket).map_err(|e| format!("serve: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        let setup = ChurnSetup {
            churn,
            events,
            daemon,
            socket,
            dir: daemon_dir,
        };
        if rep + 1 < SETUP_REPS {
            setup.daemon.stop().map_err(|e| format!("serve: {e}"))?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            last = Some(setup);
        }
    }
    Ok((last.expect("SETUP_REPS is at least 1"), times))
}

/// The timed closed loop of a CLI workload: the seven jobs, one child at
/// a time, pass after pass until `--seconds` have elapsed.
fn cli_loop(
    ctx: &Ctx,
    programs: &[Recorded],
    out_dir: &Path,
) -> Res<(Vec<(usize, JobResult)>, f64)> {
    let args: Vec<Vec<String>> = programs
        .iter()
        .map(|p| job_args(ctx, p, &p.trace, ctx.seed, &out_path(out_dir, p)))
        .collect();
    let mut jobs = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(ctx.seconds);
    'passes: loop {
        for (i, a) in args.iter().enumerate() {
            let r = proc::run_job(&ctx.cli, a).map_err(|e| format!("spawn job: {e}"))?;
            jobs.push((i, r));
            if Instant::now() >= deadline {
                break 'passes;
            }
        }
    }
    Ok((jobs, start.elapsed().as_secs_f64()))
}

/// Where a CLI workload writes program `p`'s profile.
pub fn out_path(dir: &Path, p: &Recorded) -> PathBuf {
    dir.join(format!("{}.orp", p.name))
}

/// `orpd-churn` reads the daemon's peak RSS once this many sessions
/// have finished, so the figure does not move with throughput while
/// per-session memory is not yet bounded.
const HWM_SESSIONS: usize = 1500;

fn frames(events: u64) -> u64 {
    events.div_ceil(FRAME_EVENTS as u64).max(1)
}

/// Runs one end-to-end measurement of `ctx.workload`.
pub fn run(ctx: &Ctx) -> Res<Outcome> {
    if ctx.workload == Workload::OrpdChurn {
        return run_churn(ctx);
    }
    let (programs, setup_times) = setup_programs(ctx)?;
    let out_dir = ctx.work.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;

    let floor_kib = proc::own_hwm_kib();
    let (jobs, wall_s) = cli_loop(ctx, &programs, &out_dir)?;

    let mut outcome = Outcome::default();
    let mut events = 0u64;
    let mut job_ms = Vec::new();
    let mut program_ms = vec![Vec::new(); programs.len()];
    let mut peak_kib = 0u64;
    for &(i, r) in &jobs {
        outcome.attempted += 1;
        if !r.ok {
            outcome.failed += 1;
            eprintln!("perfbench: job {} failed", programs[i].name);
            continue;
        }
        events += programs[i].events;
        let ms = r.nanos as f64 / 1e6;
        job_ms.push(ms);
        program_ms[i].push(ms);
        peak_kib = peak_kib.max(r.maxrss_kib);
    }
    if peak_kib <= floor_kib {
        eprintln!(
            "perfbench: warning: peak child RSS {peak_kib} KiB does not exceed the \
             spawning process's own {floor_kib} KiB"
        );
    }
    let n_jobs = job_ms.len() as u64;
    // A CLI job has no wire frames: each program's median job time is
    // spread over its 4096-event frames, and the percentiles are taken
    // over the frames of one pass.
    let frame_ms: Vec<(f64, u64)> = programs
        .iter()
        .zip(&program_ms)
        .map(|(p, ms)| {
            let f = frames(p.events);
            (median(ms) / f as f64, f)
        })
        .collect();
    let n_frames: u64 = frame_ms.iter().map(|&(_, f)| f).sum();
    // Throughput of each complete, clean pass over the seven programs.
    let per_pass: Vec<f64> = jobs
        .chunks_exact(programs.len())
        .filter(|pass| pass.iter().all(|(_, r)| r.ok))
        .map(|pass| {
            let events: u64 = pass.iter().map(|&(i, _)| programs[i].events).sum();
            let seconds: f64 = pass.iter().map(|(_, r)| r.nanos as f64 / 1e9).sum();
            events as f64 / seconds
        })
        .collect();
    let checked = checks::cli_checks(ctx, &programs, &out_dir, &mut outcome)?;

    outcome.metric(
        "events_per_s",
        median(&per_pass),
        "events/s",
        format!(
            "median of {} passes; {events} events in {wall_s:.3} s overall",
            per_pass.len()
        ),
    );
    outcome.metric(
        "job_ms_p50",
        quantile(&job_ms, 0.5),
        "ms",
        format!("{n_jobs} jobs"),
    );
    outcome.metric(
        "job_ms_p90",
        quantile(&job_ms, 0.9),
        "ms",
        format!("{n_jobs} jobs, {} beyond", beyond(n_jobs, 0.9)),
    );
    outcome.metric(
        "frame_ms_p50",
        weighted_quantile(&frame_ms, 0.5),
        "ms",
        format!("{n_frames} frames of {FRAME_EVENTS} events per pass, program medians"),
    );
    outcome.metric(
        "frame_ms_p99",
        weighted_quantile(&frame_ms, 0.99),
        "ms",
        format!("{n_frames} frames per pass, program medians over {n_jobs} jobs"),
    );
    checked.report(&mut outcome);
    push_setup(&mut outcome, &setup_times);
    outcome.metric(
        "peak_rss_mib",
        peak_kib as f64 / 1024.0,
        "MiB",
        format!("max ru_maxrss over {n_jobs} jobs"),
    );
    Ok(outcome)
}

fn push_setup(outcome: &mut Outcome, times: &[f64]) {
    outcome.metric(
        "setup_s",
        median(times),
        "s",
        format!("median of {} set-ups", times.len()),
    );
}

fn run_churn(ctx: &Ctx) -> Res<Outcome> {
    let (setup, setup_times) = setup_churn(ctx)?;
    let pid = setup.daemon.pid();
    let load = churn::drive(
        &setup.socket,
        &setup.events,
        ctx.seconds as f64,
        None,
        Some((pid, HWM_SESSIONS)),
    );
    let (peak_kib, peak_note) = match load.hwm_kib {
        Some(kib) => (kib, format!("serve VmHWM after {HWM_SESSIONS} sessions")),
        None => (
            proc::status_kib(pid, "VmHWM").unwrap_or(0),
            format!("serve VmHWM at the end: fewer than {HWM_SESSIONS} sessions ran"),
        ),
    };
    setup.daemon.stop().map_err(|e| format!("serve: {e}"))?;

    let mut outcome = Outcome::default();
    let mut job_ms = Vec::new();
    for s in &load.sessions {
        outcome.attempted += 1;
        if s.ok {
            job_ms.push((s.end_ns - s.start_ns) as f64 / 1e6);
        } else {
            outcome.failed += 1;
        }
    }
    let frame_ms: Vec<f64> = load.frame_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let n_jobs = job_ms.len() as u64;
    let n_frames = frame_ms.len() as u64;
    // Throughput of each whole second of the load, by session end.
    let mut per_second = vec![0.0; usize::try_from(ctx.seconds).unwrap_or(0)];
    for s in load.sessions.iter().filter(|s| s.ok) {
        if let Some(w) =
            per_second.get_mut(usize::try_from(s.end_ns / 1_000_000_000).unwrap_or(usize::MAX))
        {
            *w += setup.events.len() as f64;
        }
    }
    let checked = checks::churn_checks(ctx, &setup.churn, &setup.dir, &mut outcome)?;

    outcome.metric(
        "events_per_s",
        median(&per_second),
        "events/s",
        format!(
            "median of {} one-second windows; {} events in {:.3} s overall",
            per_second.len(),
            load.events,
            load.wall_s
        ),
    );
    outcome.metric(
        "job_ms_p50",
        quantile(&job_ms, 0.5),
        "ms",
        format!(
            "{n_jobs} sessions, {} busy handshakes retried",
            load.busy_refusals
        ),
    );
    outcome.metric(
        "job_ms_p90",
        quantile(&job_ms, 0.9),
        "ms",
        format!("{n_jobs} sessions, {} beyond", beyond(n_jobs, 0.9)),
    );
    outcome.metric(
        "frame_ms_p50",
        quantile(&frame_ms, 0.5),
        "ms",
        format!("{n_frames} frames"),
    );
    outcome.metric(
        "frame_ms_p99",
        quantile(&frame_ms, 0.99),
        "ms",
        format!("{n_frames} frames, {} beyond", beyond(n_frames, 0.99)),
    );
    checked.report(&mut outcome);
    push_setup(&mut outcome, &setup_times);
    outcome.metric("peak_rss_mib", peak_kib as f64 / 1024.0, "MiB", peak_note);
    Ok(outcome)
}
