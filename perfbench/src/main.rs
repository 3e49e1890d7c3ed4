//! `perfbench` — the orprof benchmark runner.
//!
//! ```text
//! perfbench --cli <orprof-cli> --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it drives the user paths as child processes
//! (`orprof-cli record`/`run`/`serve`, the daemon loaded over its wire
//! protocol) and reports the end-to-end metrics. With `--trace 1` it
//! replays the same inputs in-process through each layer's public
//! functions and reports per-layer busy times and counts. Either way the
//! last line of standard output is one JSON result object; see
//! `perfbench/README.md` for the workloads and metric definitions.

mod checks;
mod churn;
mod e2e;
mod proc;
mod report;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seven SPEC-like programs every CLI workload runs, in order.
pub const PROGRAMS: [&str; 7] = [
    "164.gzip",
    "175.vpr",
    "181.mcf",
    "186.crafty",
    "197.parser",
    "256.bzip2",
    "300.twolf",
];
/// The one fixed workload scale.
pub const SCALE: u32 = 1;
/// The live workload's periodic sampling rate (`--sample rate=8`).
pub const SAMPLE_RATE: u64 = 8;
/// The program each `orpd-churn` session streams.
pub const CHURN_PROGRAM: &str = "micro.hash_churn";
/// Concurrent tenants on `orpd-churn`, one client thread each.
pub const TENANTS: usize = 2;
/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// A seed never used while the benchmark or a change is developed;
/// confirm a claimed gain on it before accepting the claim.
pub const HELD_OUT_SEED: u64 = 7919;

/// The second heap seed the allocator-invariance check records under.
pub fn second_seed(seed: u64) -> u64 {
    seed.wrapping_add(1_000_003)
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run --from-trace <t> --profiler leap` over the seven traces.
    LeapReplay,
    /// `run --from-trace <t> --profiler whomp` over the seven traces.
    WhompReplay,
    /// `run --workload <w> --profiler leap --sample rate=8`, live.
    LeapLiveSampled,
    /// A `serve` child with two tenants streaming a churn trace.
    OrpdChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "leap-replay" => Workload::LeapReplay,
            "whomp-replay" => Workload::WhompReplay,
            "leap-live-sampled" => Workload::LeapLiveSampled,
            "orpd-churn" => Workload::OrpdChurn,
            _ => return None,
        })
    }

    /// The profiler the workload's output is written by.
    pub fn profiler(self) -> &'static str {
        match self {
            Workload::WhompReplay => "whomp",
            _ => "leap",
        }
    }
}

/// What every stage of a run needs.
pub struct Ctx {
    /// The `orprof-cli` binary under test.
    pub cli: PathBuf,
    /// This run's scratch directory, relative to the checkout root
    /// (short, so unix socket paths inside it stay within limits).
    pub work: PathBuf,
    /// The heap seed every recording and live run uses.
    pub seed: u64,
    /// How long the measured region runs.
    pub seconds: u64,
    /// The workload under test.
    pub workload: Workload,
}

/// A program recorded during set-up.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Program name as `orprof-cli list` prints it.
    pub name: &'static str,
    /// Its trace file.
    pub trace: PathBuf,
    /// Probe events in the trace.
    pub events: u64,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Base, sample count or other context, printed beside the value.
    pub note: String,
}

/// What a run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Counts one output check, failed or not, reporting a failure on
    /// stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

struct Args {
    cli: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--cli" => cli = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        cli: cli.ok_or("missing --cli")?,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print_outcome(args: &Args, outcome: &Outcome) {
    println!(
        "seed {} (second heap seed {}, held-out seed {}); {} attempted, {} failed, \
         error_rate {} ({} / {})",
        args.seed,
        second_seed(args.seed),
        HELD_OUT_SEED,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted,
    );
    for m in &outcome.metrics {
        println!(
            "{:<28} {} {}  ({})",
            m.name,
            json_number(m.value),
            m.unit,
            m.note
        );
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let non_finite = outcome.metrics.iter().any(|m| !m.value.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && !non_finite,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(".bench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        cli: args.cli.clone(),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        workload: args.workload,
    };
    let result = if args.trace {
        traced::run(&ctx)
    } else {
        e2e::run(&ctx)
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Ok(mut parent) = std::fs::read_dir(".bench_work") {
        if parent.next().is_none() {
            let _ = std::fs::remove_dir(".bench_work");
        }
    }
    match result {
        Ok(outcome) => {
            print_outcome(&args, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
