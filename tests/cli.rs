//! End-to-end subprocess tests for `orprof-cli`: record a trace,
//! profile it, inspect and report the resulting files.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_orprof-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("orprof-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn list_names_all_workloads_and_profilers() {
    let out = cli().arg("list").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "164.gzip",
        "300.twolf",
        "micro.btree",
        "whomp",
        "rasg",
        "leap",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn unknown_workload_fails_with_a_message() {
    let out = cli()
        .args(["run", "--workload", "999.nope"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown workload"), "{err}");
}

#[test]
fn no_arguments_prints_usage() {
    let out = cli().output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn record_profile_inspect_report_pipeline() {
    let trace = tmp("pipeline.orpt");
    let profile = tmp("pipeline.orpl");

    // Record a trace.
    let out = cli()
        .args([
            "record",
            "--workload",
            "micro.matrix",
            "--out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    // Profile from the trace.
    let out = cli()
        .args([
            "run",
            "--from-trace",
            trace.to_str().unwrap(),
            "--profiler",
            "leap",
            "--out",
            profile.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("replayed"), "{text}");
    assert!(text.contains("sample quality"), "{text}");

    // Inspect the profile.
    let out = cli()
        .args(["inspect", profile.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("LEAP profile"));

    // Report dependences/strides from it.
    let out = cli()
        .args(["report", profile.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("strongly-strided"), "{text}");

    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_file(profile);
}

#[test]
fn whomp_profile_roundtrips_through_a_file() {
    let profile = tmp("whomp.orpw");
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.linked_list",
            "--profiler",
            "whomp",
            "--out",
            profile.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args(["inspect", profile.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("WHOMP (OMSG) profile"), "{text}");
    assert!(text.contains("offset"), "{text}");

    // report on a non-LEAP profile fails cleanly.
    let out = cli()
        .args(["report", profile.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    let _ = std::fs::remove_file(profile);
}

#[test]
fn checkpoint_and_resume_roundtrip() {
    let ckpt = tmp("ckpt.orp");
    let resumed = tmp("resumed.orp");

    // Run under LEAP and checkpoint the session at the end.
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.linked_list",
            "--profiler",
            "leap",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The checkpoint is an ordinary container: inspect names its chunks
    // and the profiler whose state it holds.
    let out = cli()
        .args(["inspect", ckpt.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("checkpoint"), "{text}");
    assert!(text.contains("profiler state: leap"), "{text}");
    assert!(text.contains("OMCK"), "{text}");

    // Resume it and keep profiling; the continued profile is a normal
    // LEAP container.
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.linked_list",
            "--profiler",
            "leap",
            "--resume",
            ckpt.to_str().unwrap(),
            "--out",
            resumed.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("resumed from checkpoint"), "{text}");

    let out = cli()
        .args(["inspect", resumed.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("LEAP profile"), "{text}");

    // A checkpoint restores only into its own profiler type.
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.linked_list",
            "--profiler",
            "whomp",
            "--resume",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("different profiler"), "{err}");

    let _ = std::fs::remove_file(ckpt);
    let _ = std::fs::remove_file(resumed);
}

#[test]
fn misspelled_flag_is_an_error_not_silently_ignored() {
    // Regression: the old positional parser skipped flags it did not
    // recognize, so `--alloctor bump` ran with the default allocator.
    let out = cli()
        .args(["run", "--workload", "micro.matrix", "--alloctor", "bump"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag --alloctor"), "{err}");
}

#[test]
fn value_flag_at_end_without_a_value_is_an_error() {
    // Regression: the old parser returned None for a trailing value
    // flag, silently running without an output file.
    let out = cli()
        .args(["run", "--workload", "micro.matrix", "--out"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--out") && err.contains("value"), "{err}");
}

#[test]
fn value_flag_does_not_consume_the_next_flag_as_its_value() {
    // Regression: `--workload --profiler` used to run the workload
    // literally named "--profiler" and report it as unknown; the parser
    // must reject the malformed flag pair itself.
    let out = cli()
        .args(["run", "--workload", "--profiler"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--workload") && err.contains("--profiler"),
        "{err}"
    );
    assert!(!err.contains("unknown workload"), "{err}");
}

#[test]
fn stats_and_metrics_out_leave_the_profile_byte_identical() {
    let plain = tmp("plain.orp");
    let metered = tmp("metered.orp");
    let json = tmp("metered.json");
    let base = [
        "run",
        "--workload",
        "micro.linked_list",
        "--profiler",
        "whomp",
    ];

    let out = cli()
        .args(base)
        .args(["--out", plain.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args(base)
        .args([
            "--out",
            metered.to_str().unwrap(),
            "--stats",
            "--metrics-out",
            json.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The human table goes to stderr, not stdout.
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("run report: run"), "{err}");
    assert!(err.contains("omc.memo_hits"), "{err}");

    let plain_bytes = std::fs::read(&plain).unwrap();
    let metered_bytes = std::fs::read(&metered).unwrap();
    assert_eq!(
        plain_bytes, metered_bytes,
        "metrics collection must not change the profile"
    );

    // The JSON report carries the stable schema markers.
    let doc = std::fs::read_to_string(&json).unwrap();
    for needle in [
        "\"schema_version\": 1",
        "\"command\": \"run\"",
        "\"omc.memo_hits\"",
        "\"profile.bytes\"",
        "\"omc.memo_hit_rate\"",
        "\"shard_counts\"",
    ] {
        assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
    }

    let _ = std::fs::remove_file(plain);
    let _ = std::fs::remove_file(metered);
    let _ = std::fs::remove_file(json);
}

#[test]
fn sharded_run_reports_per_shard_counts() {
    let json = tmp("sharded.json");
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.matrix",
            "--profiler",
            "leap",
            "--shards",
            "3",
            "--metrics-out",
            json.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&json).unwrap();
    assert!(doc.contains("\"shards\": 3"), "{doc}");
    assert!(doc.contains("\"shard\": 2"), "{doc}");
    assert!(doc.contains("pipeline.tuples_routed"), "{doc}");
    let _ = std::fs::remove_file(json);
}

/// The value of the integer counter `key` in a run-report document.
fn counter(doc: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = doc
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in:\n{doc}"))
        + needle.len();
    doc[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{key} is not an integer in:\n{doc}"))
}

/// Regression: the merged session of a sharded run restarted its event
/// count at the join, so `--shards N` and `--salvage` runs reported
/// `session.events: 0`.
#[test]
fn sharded_and_salvage_runs_report_the_inline_event_count() {
    let json = tmp("events.json");
    let mut counts = Vec::new();
    for extra in [&[][..], &["--shards", "3"], &["--salvage"]] {
        let out = cli()
            .args(["run", "--workload", "micro.matrix", "--profiler", "leap"])
            .args(["--metrics-out", json.to_str().unwrap()])
            .args(extra)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = std::fs::read_to_string(&json).unwrap();
        counts.push((
            counter(&doc, "session.events"),
            counter(&doc, "cdc.accesses"),
        ));
    }
    assert!(counts[0].0 > 0, "the inline run counts its events");
    for (extra, got) in ["--shards 3", "--salvage"].iter().zip(&counts[1..]) {
        assert_eq!(*got, counts[0], "{extra} changed the session counters");
    }
    let _ = std::fs::remove_file(json);
}

/// Runs `orprof-cli run` over `micro.linked_list` under `profiler` with
/// the extra flags, asserting success.
fn run_linked_list(profiler: &str, extra: &[&str]) {
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.linked_list",
            "--profiler",
            profiler,
        ])
        .args(extra)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{profiler} {extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Sharded runs checkpoint: at every lane count the checkpoint is the
/// inline run's, byte for byte, and each of them resumes — inline, on
/// lanes, or under `--salvage` — into the same profile and the same
/// next checkpoint.
#[test]
fn sharded_checkpoints_match_inline_and_resume_on_any_engine() {
    let path = |name: String| tmp(&name);
    for profiler in ["leap", "hybrid"] {
        let ckpt = |shards: &str| path(format!("{profiler}-ckpt-{shards}.orp"));
        for shards in ["1", "2", "3"] {
            let to = ckpt(shards);
            run_linked_list(
                profiler,
                &["--shards", shards, "--checkpoint", to.to_str().unwrap()],
            );
        }
        let reference = std::fs::read(ckpt("1")).unwrap();
        for shards in ["2", "3"] {
            assert_eq!(
                std::fs::read(ckpt(shards)).unwrap(),
                reference,
                "{profiler}: the {shards}-lane checkpoint differs from the inline one"
            );
        }

        let (profile, next) = (
            path(format!("{profiler}-resumed.orp")),
            path(format!("{profiler}-next.orp")),
        );
        let mut expected: Option<(Vec<u8>, Vec<u8>)> = None;
        for from in ["1", "2", "3"] {
            let from_path = ckpt(from);
            for engine in [&["--shards", "1"][..], &["--shards", "3"], &["--salvage"]] {
                let mut args = vec![
                    "--resume",
                    from_path.to_str().unwrap(),
                    "--out",
                    profile.to_str().unwrap(),
                    "--checkpoint",
                    next.to_str().unwrap(),
                ];
                args.extend(engine);
                run_linked_list(profiler, &args);
                let got = (
                    std::fs::read(&profile).unwrap(),
                    std::fs::read(&next).unwrap(),
                );
                match &expected {
                    None => expected = Some(got),
                    Some(want) => assert!(
                        got == *want,
                        "{profiler}: resuming the {from}-lane checkpoint with {engine:?} diverged"
                    ),
                }
            }
        }
        for p in [ckpt("1"), ckpt("2"), ckpt("3"), profile, next] {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[test]
fn embedded_report_roundtrips_through_inspect() {
    let profile = tmp("embedded.orp");
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.linked_list",
            "--profiler",
            "leap",
            "--out",
            profile.to_str().unwrap(),
            "--embed-report",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args(["inspect", profile.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("MREP"), "{text}");
    assert!(text.contains("\"schema_version\": 1"), "{text}");
    // The profile payload itself still decodes behind the extra chunk.
    assert!(text.contains("LEAP profile"), "{text}");

    let _ = std::fs::remove_file(profile);
}

#[test]
fn embed_report_without_out_is_an_error() {
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.matrix",
            "--profiler",
            "leap",
            "--embed-report",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--embed-report requires --out"), "{err}");
}

/// Produces a valid LEAP profile file for the corruption tests (LEAP so
/// that `report` would accept the intact file).
fn write_profile(name: &str) -> PathBuf {
    let path = tmp(name);
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.linked_list",
            "--profiler",
            "leap",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn truncated_profile_fails_inspect_and_report_with_typed_errors() {
    let path = write_profile("truncated.orp");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.truncate(bytes.len() - 7);
    std::fs::write(&path, &bytes).unwrap();

    for cmd in ["inspect", "report"] {
        let out = cli()
            .args([cmd, path.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{cmd} accepted a truncated file");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("error:"), "{cmd}: {err}");
        assert!(!err.contains("panicked"), "{cmd}: {err}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn bit_flipped_profile_fails_inspect_and_report_with_typed_errors() {
    let path = write_profile("bitflip.orp");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    for cmd in ["inspect", "report"] {
        let out = cli()
            .args([cmd, path.to_str().unwrap()])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{cmd} accepted a corrupted file");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("error:"), "{cmd}: {err}");
        assert!(!err.contains("panicked"), "{cmd}: {err}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn record_emits_a_run_report_with_trace_io_counters() {
    let trace = tmp("record-report.orpt");
    let json = tmp("record-report.json");
    let out = cli()
        .args([
            "record",
            "--workload",
            "micro.matrix",
            "--out",
            trace.to_str().unwrap(),
            "--metrics-out",
            json.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&json).unwrap();
    assert!(doc.contains("\"command\": \"record\""), "{doc}");
    assert!(doc.contains("trace.write_chunks"), "{doc}");
    assert!(doc.contains("trace.file_bytes"), "{doc}");
    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_file(json);
}

#[test]
fn inspect_rejects_garbage_files() {
    let garbage = tmp("garbage.bin");
    std::fs::write(&garbage, b"not a profile at all").unwrap();
    let out = cli()
        .args(["inspect", garbage.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let _ = std::fs::remove_file(garbage);
}

#[test]
fn grammar_workers_run_is_byte_identical_and_reports_worker_metrics() {
    let seq = tmp("grammar-seq.orp");
    let pipe = tmp("grammar-pipe.orp");
    let json = tmp("grammar-pipe.json");
    for (out_path, workers) in [(&seq, "0"), (&pipe, "4")] {
        let out = cli()
            .args([
                "run",
                "--workload",
                "micro.matrix",
                "--profiler",
                "whomp",
                "--out",
                out_path.to_str().unwrap(),
                "--metrics-out",
                json.to_str().unwrap(),
                "--grammar-workers",
                workers,
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        std::fs::read(&seq).unwrap(),
        std::fs::read(&pipe).unwrap(),
        "pipelined grammar construction must not change the profile"
    );
    let doc = std::fs::read_to_string(&json).unwrap();
    assert!(doc.contains("grammar.workers"), "{doc}");
    assert!(doc.contains("grammar.rules.offset"), "{doc}");
    assert!(doc.contains("grammar.symbols.instruction"), "{doc}");
    assert!(doc.contains("grammar.batches.object"), "{doc}");
    assert!(doc.contains("grammar.worker_busy_ns.group"), "{doc}");
    for p in [&seq, &pipe, &json] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn grammar_workers_rejects_incompatible_flag_combinations() {
    for args in [
        &["--profiler", "leap", "--grammar-workers", "2"][..],
        &["--profiler", "hybrid", "--grammar-workers", "2"][..],
        &[
            "--profiler",
            "hybrid",
            "--grammar-workers",
            "2",
            "--shards",
            "2",
        ][..],
        &[
            "--profiler",
            "hybrid",
            "--grammar-workers",
            "2",
            "--resume",
            "x.orp",
        ][..],
    ] {
        let out = cli()
            .args(["run", "--workload", "micro.matrix"])
            .args(args)
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "should reject: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{err}");
    }
}

/// Runs `orprof-cli run --profiler whomp` over `micro.matrix` with the
/// extra flags, asserting success; returns standard output.
fn run_whomp(extra: &[&str]) -> String {
    let out = cli()
        .args(["run", "--workload", "micro.matrix", "--profiler", "whomp"])
        .args(extra)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// A checkpoint is a barrier through the grammar workers, not a
/// reason to refuse them: the default engine, pinned workers and the
/// inline grammar all write the same checkpoint bytes.
#[test]
fn whomp_checkpoints_are_identical_on_every_grammar_engine() {
    let paths: Vec<PathBuf> = ["default", "inline", "workers"]
        .iter()
        .map(|name| tmp(&format!("engine-ckpt-{name}.orp")))
        .collect();
    for (path, pin) in paths.iter().zip([None, Some("0"), Some("4")]) {
        let mut args = vec!["--checkpoint", path.to_str().unwrap()];
        if let Some(n) = pin {
            args.extend(["--grammar-workers", n]);
        }
        run_whomp(&args);
    }
    let inline = std::fs::read(&paths[1]).unwrap();
    assert_eq!(std::fs::read(&paths[0]).unwrap(), inline, "default engine");
    assert_eq!(
        std::fs::read(&paths[2]).unwrap(),
        inline,
        "4 grammar workers"
    );
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

/// A checkpoint written on grammar workers resumes inline, and an
/// inline one resumes on grammar workers, to the same final profile as
/// an inline run resumed inline.
#[test]
fn whomp_checkpoints_resume_across_grammar_engines() {
    let ckpt_inline = tmp("cross-inline.ckpt");
    let ckpt_workers = tmp("cross-workers.ckpt");
    run_whomp(&[
        "--grammar-workers",
        "0",
        "--checkpoint",
        ckpt_inline.to_str().unwrap(),
    ]);
    run_whomp(&[
        "--grammar-workers",
        "4",
        "--checkpoint",
        ckpt_workers.to_str().unwrap(),
    ]);

    let resume = |ckpt: &PathBuf, workers: &str, name: &str| {
        let out = tmp(name);
        let text = run_whomp(&[
            "--resume",
            ckpt.to_str().unwrap(),
            "--grammar-workers",
            workers,
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(text.contains("resumed from checkpoint"), "{text}");
        let bytes = std::fs::read(&out).unwrap();
        let _ = std::fs::remove_file(out);
        bytes
    };
    let reference = resume(&ckpt_inline, "0", "cross-ref.orpw");
    assert_eq!(
        resume(&ckpt_workers, "0", "cross-w2i.orpw"),
        reference,
        "worker checkpoint resumed inline"
    );
    assert_eq!(
        resume(&ckpt_inline, "2", "cross-i2w.orpw"),
        reference,
        "inline checkpoint resumed on grammar workers"
    );
    for p in [ckpt_inline, ckpt_workers] {
        let _ = std::fs::remove_file(p);
    }
}

/// `--sample budget=` steers the sampler on the collection thread, so
/// it composes with the grammar workers of a default WHOMP run.
#[test]
fn budget_sampled_whomp_runs_on_the_default_engine() {
    let profile = tmp("budget-whomp.orpw");
    let json = tmp("budget-whomp.json");
    let text = run_whomp(&[
        "--sample",
        "budget=50%",
        "--out",
        profile.to_str().unwrap(),
        "--metrics-out",
        json.to_str().unwrap(),
    ]);
    assert!(text.contains("sample budget settled at rate"), "{text}");
    let doc = std::fs::read_to_string(&json).unwrap();
    assert!(doc.contains("sample.adjustments"), "{doc}");
    let multi_cpu = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    assert_eq!(doc.contains("grammar.workers"), multi_cpu, "{doc}");

    let out = cli()
        .args(["inspect", profile.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("WHOMP (OMSG) profile"), "{text}");
    for p in [profile, json] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sequential_grammar_runs_also_report_grammar_shape() {
    // The grammar.rules/grammar.symbols families are profiler facts,
    // not pipeline facts: they must appear without --grammar-workers.
    let json = tmp("grammar-shape.json");
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.linked_list",
            "--profiler",
            "rasg",
            "--metrics-out",
            json.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&json).unwrap();
    assert!(doc.contains("grammar.rules.records"), "{doc}");
    assert!(doc.contains("grammar.symbols.records"), "{doc}");
    assert!(!doc.contains("grammar.workers"), "{doc}");
    let _ = std::fs::remove_file(json);
}

#[test]
fn sampled_runs_are_byte_identical_across_inline_and_sharded() {
    let inline = tmp("sampled-inline.orpl");
    let sharded = tmp("sampled-sharded.orpl");
    let json = tmp("sampled.json");
    let ckpt = |shards: &str| tmp(&format!("sampled-ckpt-{shards}.orp"));
    for (path, shards) in [(&inline, "1"), (&sharded, "3")] {
        let out = cli()
            .args([
                "run",
                "--workload",
                "micro.matrix",
                "--profiler",
                "leap",
                "--sample",
                "rate=4",
                "--shards",
                shards,
                "--out",
                path.to_str().unwrap(),
                "--metrics-out",
                json.to_str().unwrap(),
                "--checkpoint",
                ckpt(shards).to_str().unwrap(),
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        std::fs::read(&inline).unwrap(),
        std::fs::read(&sharded).unwrap(),
        "fixed-rate sampling must not depend on the collection path"
    );
    assert_eq!(
        std::fs::read(ckpt("1")).unwrap(),
        std::fs::read(ckpt("3")).unwrap(),
        "the sampler state checkpointed from lanes must match the inline one"
    );
    let doc = std::fs::read_to_string(&json).unwrap();
    for key in [
        "sample.kept",
        "sample.dropped",
        "sample.rate",
        "sample.scaled_accesses",
    ] {
        assert!(doc.contains(key), "missing {key} in:\n{doc}");
    }
    for p in [inline, sharded, json, ckpt("1"), ckpt("3")] {
        let _ = std::fs::remove_file(p);
    }
}

/// The budget is session state, so it steers inline, on sharded
/// lanes and under `--salvage` alike.
#[test]
fn budget_mode_reports_controller_metrics() {
    let json = tmp("budget.json");
    for engine in [&[][..], &["--shards", "2"], &["--salvage"]] {
        let out = cli()
            .args([
                "run",
                "--workload",
                "micro.matrix",
                "--profiler",
                "leap",
                "--sample",
                "budget=50%",
                "--metrics-out",
                json.to_str().unwrap(),
            ])
            .args(engine)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{engine:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("sample budget settled at rate"), "{text}");
        let doc = std::fs::read_to_string(&json).unwrap();
        for key in ["sample.adjustments", "sample.overhead", "sample.kept"] {
            assert!(doc.contains(key), "{engine:?}: missing {key} in:\n{doc}");
        }
    }
    let _ = std::fs::remove_file(json);
}

/// Regression (issue 10): `SamplingPolicy::Reservoir` existed in the
/// library but no CLI flag reached it — `--sample reservoir=<k>` must
/// open a reservoir-sampled session whose checkpoint inspects as one.
#[test]
fn reservoir_sampling_is_reachable_from_the_cli() {
    let ckpt = tmp("reservoir.orp");
    let json = tmp("reservoir.json");
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.matrix",
            "--profiler",
            "leap",
            "--sample",
            "reservoir=8",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--metrics-out",
            json.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&json).unwrap();
    for key in ["sample.kept", "sample.dropped", "sample.scaled_accesses"] {
        assert!(doc.contains(key), "missing {key} in:\n{doc}");
    }

    let out = cli()
        .args(["inspect", ckpt.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("reservoir capacity 8"), "{text}");
    for p in [ckpt, json] {
        let _ = std::fs::remove_file(p);
    }
}

/// Regression (issue 10): budget runs used to reject `--checkpoint`
/// because the controller's calibration wasn't serializable. Now the
/// checkpoint carries the controller and a plain `--resume` keeps
/// holding the budget, inline or on lanes.
#[test]
fn budget_checkpoint_resumes_with_its_controller() {
    let ckpt = tmp("budget-resume.orp");
    let out = cli()
        .args([
            "run",
            "--workload",
            "micro.matrix",
            "--profiler",
            "leap",
            "--sample",
            "budget=50%",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Resumed inline or onto lanes, the checkpoint's budget steers.
    let json = tmp("budget-resume.json");
    for engine in [&[][..], &["--shards", "2"]] {
        let out = cli()
            .args([
                "run",
                "--workload",
                "micro.matrix",
                "--profiler",
                "leap",
                "--resume",
                ckpt.to_str().unwrap(),
                "--metrics-out",
                json.to_str().unwrap(),
            ])
            .args(engine)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{engine:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("sample budget resumed at rate"), "{text}");
        let doc = std::fs::read_to_string(&json).unwrap();
        for key in ["sample.adjustments", "sample.overhead"] {
            assert!(doc.contains(key), "{engine:?}: missing {key} in:\n{doc}");
        }
    }
    for p in [ckpt, json] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sample_flag_rejects_incoherent_combinations() {
    for args in [
        ["--profiler", "leap", "--sample", "rate=0"].as_slice(),
        &["--profiler", "leap", "--sample", "sideways"],
        &["--profiler", "leap", "--sample", "reservoir=0"],
        &["--profiler", "rasg", "--sample", "reservoir=8"],
        &["--profiler", "rasg", "--sample", "rate=4"],
        &[
            "--profiler",
            "leap",
            "--sample",
            "rate=4",
            "--resume",
            "nonexistent.orp",
        ],
    ] {
        let out = cli()
            .args(["run", "--workload", "micro.matrix"])
            .args(args)
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "should reject: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{err}");
    }
}

#[test]
fn serve_streams_a_tenant_and_reports_orpd_metrics() {
    use orprof::format::Hello;
    use orprof::orpd::{shutdown_daemon, TenantClient, DONE_CLEAN};
    use orprof::trace::VecSink;
    use orprof::workloads::{micro, RunConfig, Workload};

    let dir = tmp("serve");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("orpd.sock");
    let json = dir.join("serve.json");

    let child = cli()
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--dir",
            dir.to_str().unwrap(),
            "--stats",
            "--metrics-out",
            json.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(socket.exists(), "daemon socket never appeared");

    // Stream one tenant through the daemon, then the inline oracle.
    let mut sink = VecSink::new();
    micro::Matrix::new(48, 4).run_with(&RunConfig::default(), &mut sink);
    let events = sink.into_events();
    let hello = Hello::new("cli-tenant").expect("tenant name");
    let mut client = TenantClient::connect(&socket, &hello).expect("connect");
    for &ev in &events {
        client.event(ev).expect("event");
    }
    let done = client.finish().expect("finish");
    assert_eq!(done.status, DONE_CLEAN);
    assert_eq!(done.events, events.len() as u64);

    shutdown_daemon(&socket).expect("shutdown handshake");
    let out = child.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("orpd listening"), "{text}");
    assert!(
        text.contains("orpd drained: 1 sessions (1 finished"),
        "{text}"
    );
    // --stats renders the human table on stderr.
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("run report: serve"), "{err}");
    assert!(err.contains("orpd.sessions.finished"), "{err}");

    // The served artifact is byte-identical to the inline session path.
    let mut session = orprof::core::Session::new(orprof::leap::LeapProfiler::new());
    session.feed(&events);
    let mut expected = Vec::new();
    session.finalize(&mut expected).expect("inline finalize");
    let served = std::fs::read(dir.join("cli-tenant.orp")).expect("artifact");
    assert_eq!(served, expected, "served profile differs from inline path");

    // The JSON report carries the serve command and orpd.* vocabulary.
    let doc = std::fs::read_to_string(&json).unwrap();
    for needle in [
        "\"schema_version\": 1",
        "\"command\": \"serve\"",
        "\"orpd.sessions.started\"",
        "\"orpd.sessions.finished\"",
        "\"orpd.frames\"",
        "\"orpd.events\"",
    ] {
        assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
