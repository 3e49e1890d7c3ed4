//! Shared experiment harness code behind the per-figure/table binaries.
//!
//! Each binary in `src/bin/` reproduces one figure or table of the CGO
//! 2004 paper (see `DESIGN.md` for the index); the heavy lifting —
//! running a workload through a profiler configuration and collecting
//! the metrics — lives here so binaries stay declarative and the logic
//! is unit-testable.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use orp_core::{Cdc, Omc, SampleStats, Sampler};
use orp_trace::{CountingSink, NullSink, ProbeSink, TeeSink};
use orp_whomp::{Omsg, Rasg, RasgProfiler, WhompProfiler};
use orp_workloads::{RunConfig, Workload};

/// Default workload scale for the harnesses (paper runs used SPEC
/// training inputs; scale 2 gives a few hundred thousand accesses per
/// benchmark, enough for stable profile shapes).
pub const DEFAULT_SCALE: u32 = 2;

/// Reads a scale override from the `ORP_SCALE` environment variable.
#[must_use]
pub fn scale_from_env() -> u32 {
    std::env::var("ORP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE)
}

/// The outcome of one WHOMP-vs-RASG run (Figure 5's per-benchmark data
/// point).
#[derive(Debug, Clone)]
pub struct CompressionRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Accesses in the trace.
    pub accesses: u64,
    /// OMSG total grammar size (symbols).
    pub omsg_size: u64,
    /// RASG total grammar size (symbols).
    pub rasg_size: u64,
    /// OMSG serialized size in bytes.
    pub omsg_bytes: u64,
    /// RASG serialized size in bytes.
    pub rasg_bytes: u64,
    /// Percent by which the OMSG profile is smaller on disk (positive =
    /// OMSG wins) — the Figure 5 number.
    pub gain_percent: f64,
    /// The structure-only (symbol count) gain.
    pub symbol_gain_percent: f64,
    /// Wall-clock time of the single collection pass feeding both
    /// profilers.
    pub collect_time: Duration,
}

/// Runs `workload` once, collecting the OMSG and RASG profiles from a
/// **single pass**: the trace is teed into both collectors, so the
/// profiles see the same events by construction instead of relying on
/// workload determinism across two replays.
#[must_use]
pub fn compression_run(workload: &dyn Workload, cfg: &RunConfig) -> CompressionRun {
    let mut tee = TeeSink::new(
        Cdc::new(Omc::new(), WhompProfiler::new()),
        RasgProfiler::new(),
    );
    let t0 = Instant::now();
    run(workload, cfg, &mut tee);
    let collect_time = t0.elapsed();
    let (cdc, rasg_profiler) = tee.into_inner();
    let omsg = cdc.into_parts().1.into_omsg();
    let rasg = rasg_profiler.into_rasg();

    assert_eq!(
        omsg.tuples(),
        rasg.accesses(),
        "{}: OMSG and RASG must see identical traces",
        workload.name()
    );
    CompressionRun {
        name: workload.name(),
        accesses: rasg.accesses(),
        omsg_size: omsg.total_size(),
        rasg_size: rasg.total_size(),
        omsg_bytes: omsg.encoded_bytes(),
        rasg_bytes: rasg.encoded_bytes(),
        gain_percent: orp_whomp::compression_gain_percent(&omsg, &rasg),
        symbol_gain_percent: orp_whomp::symbol_gain_percent(&omsg, &rasg),
        collect_time,
    }
}

/// Collects a WHOMP profile (OMSG) for one workload run.
#[must_use]
pub fn collect_omsg(workload: &dyn Workload, cfg: &RunConfig) -> Omsg {
    let mut cdc = Cdc::new(Omc::new(), WhompProfiler::new());
    run(workload, cfg, &mut cdc);
    cdc.into_parts().1.into_omsg()
}

/// Collects a raw-address profile (RASG) for one workload run.
#[must_use]
pub fn collect_rasg(workload: &dyn Workload, cfg: &RunConfig) -> Rasg {
    let mut profiler = RasgProfiler::new();
    run(workload, cfg, &mut profiler);
    profiler.into_rasg()
}

/// Runs a workload against an arbitrary probe sink under `cfg`.
pub fn run(workload: &dyn Workload, cfg: &RunConfig, sink: &mut dyn ProbeSink) {
    let mut tracer = orp_workloads::Tracer::new(cfg, sink);
    workload.run(&mut tracer);
    tracer.finish();
}

/// Times a "native" run (events discarded) — the denominator of the
/// paper's dilation factor.
#[must_use]
pub fn native_time(workload: &dyn Workload, cfg: &RunConfig) -> Duration {
    let mut sink = NullSink::new();
    let t0 = Instant::now();
    run(workload, cfg, &mut sink);
    t0.elapsed()
}

/// Counts a workload's trace statistics without profiling.
#[must_use]
pub fn trace_stats(workload: &dyn Workload, cfg: &RunConfig) -> orp_trace::TraceStats {
    let mut sink = CountingSink::new();
    run(workload, cfg, &mut sink);
    sink.into_stats()
}

/// Runs a workload against `sink` while also counting trace statistics.
#[must_use]
pub fn run_with_stats<S: ProbeSink>(
    workload: &dyn Workload,
    cfg: &RunConfig,
    sink: S,
) -> (S, orp_trace::TraceStats) {
    let mut tee = TeeSink::new(sink, CountingSink::new());
    run(workload, cfg, &mut tee);
    let (sink, counter) = tee.into_inner();
    (sink, counter.into_stats())
}

// ---------------------------------------------------------------------
// LEAP-side harness helpers
// ---------------------------------------------------------------------

/// Collects a LEAP profile (with the given LMAD budget) for one
/// workload run, timing the instrumented execution.
#[must_use]
pub fn collect_leap(
    workload: &dyn Workload,
    cfg: &RunConfig,
    budget: usize,
) -> (orp_leap::LeapProfile, Duration) {
    let mut cdc = Cdc::new(Omc::new(), orp_leap::LeapProfiler::with_budget(budget));
    let t0 = Instant::now();
    run(workload, cfg, &mut cdc);
    let elapsed = t0.elapsed();
    (cdc.into_parts().1.into_profile(), elapsed)
}

/// Collects a LEAP profile through the sampling front-end, timing the
/// instrumented execution and returning the sampler's admission totals
/// alongside the profile.
#[must_use]
pub fn collect_leap_sampled(
    workload: &dyn Workload,
    cfg: &RunConfig,
    budget: usize,
    sampler: Sampler,
) -> (orp_leap::LeapProfile, Duration, SampleStats) {
    let mut cdc = Cdc::with_sampler(
        Omc::new(),
        orp_leap::LeapProfiler::with_budget(budget),
        sampler,
    );
    let t0 = Instant::now();
    run(workload, cfg, &mut cdc);
    let elapsed = t0.elapsed();
    let stats = cdc.sampler().stats();
    (cdc.into_parts().1.into_profile(), elapsed, stats)
}

/// Collects the lossless ground-truth dependence profile.
#[must_use]
pub fn collect_lossless_dependences(
    workload: &dyn Workload,
    cfg: &RunConfig,
) -> orp_leap::DependenceProfile {
    let mut cdc = Cdc::new(
        Omc::new(),
        orp_leap::lossless::LosslessDependenceProfiler::new(),
    );
    run(workload, cfg, &mut cdc);
    cdc.into_parts().1.into_profile()
}

/// Collects a Connors window-profiler dependence profile.
#[must_use]
pub fn collect_connors(
    workload: &dyn Workload,
    cfg: &RunConfig,
    window: usize,
) -> orp_leap::DependenceProfile {
    let mut profiler = orp_leap::connors::ConnorsProfiler::with_window(window);
    run(workload, cfg, &mut profiler);
    profiler.into_profile()
}

/// Collects the lossless ground-truth stride statistics.
#[must_use]
pub fn collect_lossless_strides(
    workload: &dyn Workload,
    cfg: &RunConfig,
) -> orp_leap::lossless::StrideStats {
    let mut cdc = Cdc::new(
        Omc::new(),
        orp_leap::lossless::LosslessStrideProfiler::new(),
    );
    run(workload, cfg, &mut cdc);
    cdc.into_parts().1.into_profile()
}

/// Builds the paper's error histogram for one workload under one
/// estimator, scored against the lossless ground truth.
#[must_use]
pub fn dependence_errors(
    estimate: &orp_leap::DependenceProfile,
    truth: &orp_leap::DependenceProfile,
) -> orp_report::ErrorHistogram {
    let mut hist = orp_report::ErrorHistogram::new();
    for pair in orp_leap::errors::score_pairs(estimate, truth) {
        hist.record(pair.error_percent());
    }
    hist
}

// ---------------------------------------------------------------------
// Result-artifact persistence
// ---------------------------------------------------------------------

/// A failed attempt to persist a benchmark result artifact.
///
/// Carries the path involved so the operator can tell *which* copy
/// failed: the `results/` file under the invocation directory, or the
/// tracked trajectory copy at the repo root.
#[derive(Debug)]
pub struct BenchIoError {
    /// The artifact (or directory) being written when the error hit.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for BenchIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot write {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for BenchIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Resolves the repository root from the bench crate's manifest path.
fn repo_root() -> Result<&'static Path, BenchIoError> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).ok_or_else(|| BenchIoError {
        path: manifest.to_path_buf(),
        source: std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "bench crate no longer sits two levels below the repo root",
        ),
    })
}

/// Durably writes one benchmark's result JSON to
/// `<repo root>/results/BENCH_<name>.json` — the one copy, which CI
/// uploads.
///
/// Anchored to the repo root, *not* the invocation directory, so a bench
/// run from any working directory updates the same file. The directory
/// is created as needed and the write goes through the atomic
/// temp-file/rename path, so a crash or a full disk never leaves a torn
/// artifact. Returns the path written.
///
/// # Errors
///
/// Returns a [`BenchIoError`] naming the path that could not be
/// created or written.
pub fn write_result_artifacts(name: &str, json: &str) -> Result<PathBuf, BenchIoError> {
    let dir = repo_root()?.join("results");
    std::fs::create_dir_all(&dir).map_err(|source| BenchIoError {
        path: dir.clone(),
        source,
    })?;
    let path = dir.join(format!("BENCH_{name}.json"));
    orp_format::write_bytes_atomic(&path, json.as_bytes(), None).map_err(|source| {
        BenchIoError {
            path: path.clone(),
            source,
        }
    })?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_workloads::micro;

    #[test]
    fn compression_run_is_consistent() {
        let w = micro::LinkedList::new(64, 6);
        let run = compression_run(&w, &RunConfig::default());
        assert!(run.accesses > 0);
        assert!(run.omsg_size > 0 && run.rasg_size > 0);
        let recomputed = (1.0 - run.omsg_bytes as f64 / run.rasg_bytes as f64) * 100.0;
        assert!((run.gain_percent - recomputed).abs() < 1e-9);
        let recomputed_sym = (1.0 - run.omsg_size as f64 / run.rasg_size as f64) * 100.0;
        assert!((run.symbol_gain_percent - recomputed_sym).abs() < 1e-9);
    }

    #[test]
    fn bench_io_error_names_the_failing_path() {
        let err = BenchIoError {
            path: PathBuf::from("/nope/out.json"),
            source: std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        };
        let msg = err.to_string();
        assert!(msg.contains("/nope/out.json"), "{msg}");
        assert!(msg.contains("denied"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn repo_root_resolves_to_the_workspace() {
        let root = repo_root().expect("bench crate sits two levels below the repo root");
        assert!(root.join("Cargo.toml").exists());
    }

    #[test]
    fn result_artifacts_are_root_anchored_and_never_drift() {
        let payload = "{\"marker\": \"writer-selftest\"}\n";
        let path = write_result_artifacts("writer_selftest", payload).expect("artifact write");
        // Root-anchored: the one copy is under <repo>/results/ regardless
        // of the invocation directory, and nothing lands at the root.
        let root = repo_root().unwrap();
        assert_eq!(
            path,
            root.join("results").join("BENCH_writer_selftest.json")
        );
        assert_eq!(std::fs::read(&path).unwrap(), payload.as_bytes());
        assert!(!root.join("BENCH_writer_selftest.json").exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_with_stats_counts_accesses() {
        let w = micro::Matrix::new(16, 2);
        let (_, stats) = run_with_stats(&w, &RunConfig::default(), NullSink::new());
        assert!(stats.accesses() > 0);
    }
}
