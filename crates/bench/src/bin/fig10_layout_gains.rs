//! Extension "figure 10": what the profiles buy once the loop closes.
//!
//! The paper's profilers exist to feed memory optimizations; this
//! harness measures that payoff end to end with the unified plan
//! pipeline: profile each workload once, let every adviser
//! (clustering, field reordering, global remapping, hot/cold tiering)
//! emit typed transforms into one `LayoutPlan`, apply the plan on the
//! simulated heap/linker, and replay the same object-relative stream
//! through identical cache hierarchies under the baseline and planned
//! layouts — plus each transform alone, so the win is attributable.
//!
//! Output: a per-workload table (and per-transform breakdown) on
//! stdout — captured as `results/fig10_layout_gains.txt` — and
//! machine-readable deltas in `results/BENCH_layout.json`, the
//! artifact the layout-gains trajectory tracks.
//!
//! The hierarchy is deliberately small (8 KiB L1, 128 KiB L2) so
//! layout effects show at harness trace scale, exactly as in the
//! `ext_layout_cache` experiment.

#![forbid(unsafe_code)]

use orp_bench::{scale_from_env, write_result_artifacts};
use orp_cache::evaluate::{evaluate_plan, extents_from_records, EvalConfig, PlanEvaluation};
use orp_cache::CacheConfig;
use orp_core::OrSink;
use orp_opt::AdvisorSet;
use orp_report::Table;
use orp_workloads::{micro, profile, spec_suite, RunConfig, Workload};

fn eval_cfg() -> EvalConfig {
    EvalConfig {
        // Deliberately small L1 so layout effects show at harness scale.
        l1: CacheConfig {
            sets: 32,
            ways: 4,
            line_bytes: 64,
        }, // 8 KiB
        l2: CacheConfig {
            sets: 256,
            ways: 8,
            line_bytes: 64,
        }, // 128 KiB
        ..EvalConfig::default()
    }
}

fn evaluate_workload(w: &dyn Workload, cfg: &RunConfig) -> (usize, PlanEvaluation) {
    let run = profile(w, cfg);
    let mut advisors = AdvisorSet::new();
    for t in &run.tuples {
        advisors.tuple(t);
    }
    let plan = advisors.plan();
    let eval = evaluate_plan(
        &plan,
        &extents_from_records(&run.records),
        &run.tuples,
        &eval_cfg(),
    )
    .expect("plan must apply within the simulated arena");
    assert_eq!(eval.planned.skipped, 0, "{}: every access placed", w.name());
    (run.tuples.len(), eval)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let scale = scale_from_env();
    let cfg = RunConfig::default();
    let mut workloads: Vec<Box<dyn Workload>> = spec_suite(scale);
    // The motivating shape: traversal order decoupled from allocation
    // order, where co-location advice pays the most.
    workloads.push(Box::new(micro::LinkedList::new_shuffled(4096, 12)));

    let mut table = Table::new([
        "workload",
        "baseline L1",
        "planned L1",
        "delta pp",
        "best transform",
        "best delta pp",
    ]);
    let mut detail = String::new();
    let mut json_rows = Vec::new();

    for w in &workloads {
        let (tuples, eval) = evaluate_workload(w.as_ref(), &cfg);
        let best = eval
            .transforms
            .iter()
            .max_by(|a, b| a.l1_delta.total_cmp(&b.l1_delta));
        table.row_vec(vec![
            w.name().to_owned(),
            format!("{:.2}%", eval.baseline.l1_miss_rate() * 100.0),
            format!("{:.2}%", eval.planned.l1_miss_rate() * 100.0),
            format!("{:+.2}", -eval.l1_improvement() * 100.0),
            best.map_or_else(|| "-".to_owned(), |t| t.label.clone()),
            best.map_or_else(
                || "-".to_owned(),
                |t| format!("{:+.2}", -t.l1_delta * 100.0),
            ),
        ]);

        detail.push_str(&format!(
            "\n{} ({} tuples, {} transforms):\n",
            w.name(),
            tuples,
            eval.transforms.len()
        ));
        let mut transforms_json = Vec::new();
        for t in &eval.transforms {
            detail.push_str(&format!(
                "  {:<28} via {:<13} benefit {:>9}  L1 {:>6.2}%  delta {:+.2} pp\n",
                t.label,
                t.advisor,
                t.benefit,
                t.replay.l1_miss_rate() * 100.0,
                -t.l1_delta * 100.0
            ));
            transforms_json.push(format!(
                "{{\"label\": \"{}\", \"advisor\": \"{}\", \"benefit\": {}, \
                 \"l1_miss_rate\": {:.6}, \"l1_delta\": {:.6}}}",
                json_escape(&t.label),
                json_escape(&t.advisor),
                t.benefit,
                t.replay.l1_miss_rate(),
                t.l1_delta
            ));
        }
        json_rows.push(format!(
            "    {{\"name\": \"{}\", \"baseline_l1_miss_rate\": {:.6}, \
             \"planned_l1_miss_rate\": {:.6}, \"l1_delta\": {:.6}, \
             \"transforms\": [{}]}}",
            json_escape(w.name()),
            eval.baseline.l1_miss_rate(),
            eval.planned.l1_miss_rate(),
            eval.l1_improvement(),
            transforms_json.join(", ")
        ));
    }

    println!("== Figure 10 (extension): profile-guided layout gains ==\n");
    println!(
        "plan pipeline: profile -> advise -> plan -> apply -> re-simulate \
         (8 KiB L1 / 128 KiB L2, free-list heap)\n"
    );
    println!("{}", table.render());
    println!("(delta pp = planned minus baseline L1 miss rate; negative is better)");
    println!("{detail}");
    println!("-- CSV --\n{}", table.to_csv());

    let json = format!(
        "{{\n  \"schema\": \"layout-gains-v1\",\n  \"scale\": {scale},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let path = write_result_artifacts("layout", &json).expect("write BENCH_layout.json");
    eprintln!("wrote {}", path.display());
}
