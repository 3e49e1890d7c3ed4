//! Sampling-fidelity sweep: how much profile quality does the
//! always-on sampling front-end give up at each rate?
//!
//! For every SPEC workload and every sampling rate the sweep collects a
//! sampled LEAP profile and scores it three ways:
//!
//! * **sample quality** — LEAP's own captured-access/instruction
//!   fractions (how much of the stream the lossy encoder retained);
//! * **MDF error** — the fraction of memory-dependence pairs within
//!   ±10% of the lossless ground truth (the paper's Figure 6 metric);
//! * **stride score** — the fraction of truly strongly-strided
//!   instructions the sampled profile still identifies (Figure 9).
//!
//! Rate 1 is the unsampled reference; the deltas against it are the
//! cost of sampling, printed as a rate-vs-error table and persisted to
//! `results/BENCH_sampling.json`.
//!
//! Environment knobs (for CI smoke runs): `ORP_SCALE` scales the
//! workloads, `ORP_SAMPLING_RATES` is a comma-separated rate list, and
//! `ORP_SAMPLING_WORKLOADS` caps how many SPEC workloads run.

#![forbid(unsafe_code)]

use orp_bench::{
    collect_leap_sampled, collect_lossless_dependences, collect_lossless_strides,
    dependence_errors, scale_from_env, write_result_artifacts,
};
use orp_core::Sampler;
use orp_leap::strides::{stride_score, stride_stats};
use orp_leap::{mdf, DEFAULT_LMAD_BUDGET};
use orp_report::Table;
use orp_workloads::{spec_suite, RunConfig};

/// The default sweep: lossless reference plus two sampled rates an
/// order of magnitude apart.
const DEFAULT_RATES: [u64; 3] = [1, 8, 64];

fn rates_from_env() -> Vec<u64> {
    match std::env::var("ORP_SAMPLING_RATES") {
        Ok(spec) => {
            let rates: Vec<u64> = spec
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&r| r >= 1)
                .collect();
            if rates.is_empty() {
                DEFAULT_RATES.to_vec()
            } else {
                rates
            }
        }
        Err(_) => DEFAULT_RATES.to_vec(),
    }
}

fn workload_cap_from_env() -> usize {
    std::env::var("ORP_SAMPLING_WORKLOADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
}

struct Cell {
    rate: u64,
    accesses_captured: f64,
    mdf_within_10: f64,
    stride: f64,
    kept: u64,
    considered: u64,
    scaled: u64,
}

fn main() {
    let scale = scale_from_env();
    let rates = rates_from_env();
    let cfg = RunConfig::default();
    let mut workloads = spec_suite(scale);
    workloads.truncate(workload_cap_from_env());
    println!(
        "== Sampling fidelity sweep (scale {scale}, rates {rates:?}, {} workloads) ==\n",
        workloads.len()
    );

    let mut table = Table::new([
        "workload",
        "rate",
        "kept",
        "sample quality",
        "MDF within ±10%",
        "stride score",
    ]);
    let mut json_rows = Vec::new();
    for workload in &workloads {
        let truth_deps = collect_lossless_dependences(workload.as_ref(), &cfg);
        let truth_strides = collect_lossless_strides(workload.as_ref(), &cfg);

        let mut cells: Vec<Cell> = Vec::new();
        for &rate in &rates {
            let (profile, _, stats) = collect_leap_sampled(
                workload.as_ref(),
                &cfg,
                DEFAULT_LMAD_BUDGET,
                Sampler::periodic(rate),
            );
            let quality = profile.sample_quality();
            let mdf_hist = dependence_errors(&mdf::dependence_frequencies(&profile), &truth_deps);
            let stride = stride_score(&stride_stats(&profile), &truth_strides).unwrap_or(1.0);
            cells.push(Cell {
                rate,
                accesses_captured: quality.accesses_captured,
                mdf_within_10: mdf_hist.fraction_within(10.0),
                stride,
                kept: stats.kept,
                considered: stats.considered,
                scaled: stats.weighted,
            });
        }

        // Deltas are against the sweep's own lowest rate (rate 1 in the
        // default sweep: the unsampled reference).
        let reference_mdf = cells.first().map_or(0.0, |c| c.mdf_within_10);
        let reference_stride = cells.first().map_or(0.0, |c| c.stride);
        for cell in &cells {
            table.row_vec(vec![
                workload.name().to_owned(),
                format!("1-in-{}", cell.rate),
                if cell.considered == 0 {
                    "all".to_owned()
                } else {
                    format!("{:.1}%", cell.kept as f64 / cell.considered as f64 * 100.0)
                },
                format!("{:.1}%", cell.accesses_captured * 100.0),
                format!(
                    "{:.1}% ({:+.1})",
                    cell.mdf_within_10 * 100.0,
                    (cell.mdf_within_10 - reference_mdf) * 100.0
                ),
                format!(
                    "{:.0}% ({:+.0})",
                    cell.stride * 100.0,
                    (cell.stride - reference_stride) * 100.0
                ),
            ]);
            json_rows.push(format!(
                "    {{\"workload\": \"{}\", \"rate\": {}, \"kept\": {}, \
                 \"considered\": {}, \"scaled_accesses\": {}, \
                 \"sample_quality\": {:.6}, \"mdf_within_10\": {:.6}, \
                 \"mdf_delta\": {:.6}, \"stride_score\": {:.6}, \
                 \"stride_delta\": {:.6}}}",
                workload.name(),
                cell.rate,
                cell.kept,
                cell.considered,
                cell.scaled,
                cell.accesses_captured,
                cell.mdf_within_10,
                cell.mdf_within_10 - reference_mdf,
                cell.stride,
                cell.stride - reference_stride,
            ));
        }
    }

    println!("{}", table.render());
    println!(
        "(deltas are percentage points against the rate-{} reference)",
        rates.first().copied().unwrap_or(1)
    );
    println!("\n-- CSV --\n{}", table.to_csv());

    let json = format!(
        "{{\n  \"schema\": \"sampling-fidelity-v1\",\n  \"scale\": {scale},\n  \
         \"rates\": {rates:?},\n  \"cells\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    match write_result_artifacts("sampling", &json) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not persist results: {e}"),
    }
}
