//! Load generator for the `orpd` multi-tenant profiling daemon, written
//! to `results/BENCH_service.json`.
//!
//! Three measurements:
//!
//! 1. **Throughput** — many concurrent tenants stream a workload trace
//!    through an in-process daemon; reports sessions/sec, events/sec,
//!    and the p99 frame ingest latency (time to put one frame on the
//!    wire, including any wait for a backpressure grant).
//! 2. **Byte identity** — a daemon-served tenant profile must be
//!    byte-for-byte the profile the inline CLI path produces for the
//!    same events.
//! 3. **Recovery** — a *separate-process* daemon (`orprof-cli serve`)
//!    is SIGKILLed mid-stream past a durable checkpoint; reports the
//!    time from restart until a resume handshake is acknowledged with
//!    a nonzero durable event count.
//!
//! Knobs (env): `ORP_SERVICE_TENANTS` (default 32, the concurrent
//! stream count), `ORP_SERVICE_OPS` (default 6, workload size), and
//! `ORP_SERVICE_METRICS_OUT` (a path handed to the spawned daemon as
//! `--metrics-out`; the recovered daemon shuts down cleanly, so the
//! file it leaves behind is a real `serve` RunReport for schema
//! validation).
//! The recovery phase needs the `orprof-cli` binary next to this one;
//! when it is missing the phase is skipped with a warning rather than
//! failing the run (bench harnesses warn, they don't gate builds).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use orp_core::Session;
use orp_format::Hello;
use orp_leap::LeapProfiler;
use orp_obs::Histogram;
use orp_orpd::{
    shutdown_daemon, ClientError, Daemon, DaemonConfig, OrpdStats, TenantClient, DONE_CLEAN,
};
use orp_trace::{ProbeEvent, VecSink};
use orp_workloads::{micro, RunConfig, Workload};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("orp-bench-service-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn workload_events(ops: usize) -> Vec<ProbeEvent> {
    let mut sink = VecSink::new();
    micro::HashChurn::new(192, ops).run_with(&RunConfig::default(), &mut sink);
    sink.into_events()
}

fn inline_profile(events: &[ProbeEvent]) -> Vec<u8> {
    let mut session = Session::new(LeapProfiler::new());
    session.feed(events);
    let mut bytes = Vec::new();
    session.finalize(&mut bytes).expect("inline finalize");
    bytes
}

/// Streams `events` as one tenant, returning per-frame flush latencies
/// in nanoseconds (the wait for a backpressure grant included).
fn stream_tenant(
    socket: &Path,
    tenant: &str,
    events: &[ProbeEvent],
    frame: usize,
) -> Result<Vec<u64>, ClientError> {
    let hello = Hello::new(tenant).expect("tenant name");
    let mut client = TenantClient::connect(socket, &hello)?;
    let mut lat = Vec::new();
    for chunk in events.chunks(frame) {
        for &ev in chunk {
            client.event(ev)?;
        }
        let t0 = Instant::now();
        client.flush_frame()?;
        lat.push(t0.elapsed().as_nanos() as u64);
    }
    let done = client.finish()?;
    assert_eq!(done.status, DONE_CLEAN, "tenant {tenant} degraded");
    Ok(lat)
}

struct ThroughputResult {
    sessions_per_sec: f64,
    events_per_sec: f64,
    p99_ingest_nanos: u64,
    stalls: u64,
    byte_identical: bool,
}

fn throughput_phase(tenants: u64, events: &[ProbeEvent]) -> ThroughputResult {
    let dir = scratch_dir("throughput");
    let socket = dir.join("orpd.sock");
    let mut config = DaemonConfig::new(&socket, &dir);
    config.credit_frames = 4;
    let daemon = Daemon::start(config).expect("daemon starts");

    let t0 = Instant::now();
    let handles: Vec<_> = (0..tenants)
        .map(|i| {
            let socket = socket.clone();
            let events = events.to_vec();
            std::thread::spawn(move || {
                stream_tenant(&socket, &format!("load-{i:03}"), &events, 1024)
            })
        })
        .collect();
    let mut lat = Histogram::default();
    for h in handles {
        for nanos in h.join().expect("client thread").expect("tenant stream") {
            lat.record(nanos);
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    let stalls = OrpdStats::get(&daemon.stats().stalls);
    daemon.stop().expect("daemon drains");

    let expected = inline_profile(events);
    let served = std::fs::read(dir.join("load-000.orp")).expect("served artifact");
    let byte_identical = served == expected;
    let _ = std::fs::remove_dir_all(&dir);

    ThroughputResult {
        sessions_per_sec: tenants as f64 / wall,
        events_per_sec: tenants as f64 * events.len() as f64 / wall,
        p99_ingest_nanos: lat.percentile(99.0).unwrap_or(0),
        stalls,
        byte_identical,
    }
}

/// Time from daemon restart until a resume handshake acknowledges a
/// nonzero durable event count. `None` when the CLI binary is absent.
fn recovery_phase(events: &[ProbeEvent]) -> Option<f64> {
    let cli = std::env::current_exe().ok()?.parent()?.join("orprof-cli");
    if !cli.exists() {
        eprintln!(
            "warning: {} not built; skipping the SIGKILL recovery phase",
            cli.display()
        );
        return None;
    }
    let dir = scratch_dir("recovery");
    let socket = dir.join("orpd.sock");
    let metrics_out = std::env::var("ORP_SERVICE_METRICS_OUT").ok();
    let spawn_daemon = || {
        let mut cmd = std::process::Command::new(&cli);
        cmd.args([
            "serve",
            "--socket",
            socket.to_str().expect("utf-8 path"),
            "--dir",
            dir.to_str().expect("utf-8 path"),
            "--checkpoint-events",
            "1024",
        ]);
        // Only the second (recovered) daemon exits cleanly, so the
        // report the knob asks for is written exactly once.
        if let Some(path) = &metrics_out {
            cmd.args(["--metrics-out", path]);
        }
        cmd.stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn orprof-cli serve")
    };
    let wait_for_socket = || {
        for _ in 0..500 {
            if socket.exists() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon socket never appeared at {}", socket.display());
    };

    let mut child = spawn_daemon();
    wait_for_socket();

    // Stream far enough that at least one periodic checkpoint (every
    // 1024 events) is durable, then pull the rug.
    let hello = Hello::new("phoenix").expect("tenant name");
    let mut client = TenantClient::connect(&socket, &hello).expect("connect");
    for chunk in events.chunks(512) {
        for &ev in chunk {
            client.event(ev).expect("event");
        }
        client.flush_frame().expect("frame");
    }
    // The grant protocol acks enqueue, not feed: wait until the first
    // periodic checkpoint is actually durable before pulling the rug,
    // or there would be nothing to recover.
    let artifact = dir.join("phoenix.orp");
    for _ in 0..500 {
        if artifact.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        artifact.exists(),
        "daemon never checkpointed {}",
        artifact.display()
    );
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();
    drop(client);

    let t0 = Instant::now();
    let mut child = spawn_daemon();
    wait_for_socket();
    let mut resume = Hello::new("phoenix").expect("tenant name");
    resume.resume = true;
    let recovered = loop {
        match TenantClient::connect(&socket, &resume) {
            Ok(c) => break c,
            Err(_) if t0.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("daemon never recovered: {e}"),
        }
    };
    let recovery = t0.elapsed().as_secs_f64();
    assert!(
        recovered.resumed_events() > 0,
        "post-kill resume found no durable checkpoint"
    );
    drop(recovered);

    shutdown_daemon(&socket).expect("shutdown recovered daemon");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
    Some(recovery * 1e3)
}

fn main() -> std::process::ExitCode {
    let tenants = env_u64("ORP_SERVICE_TENANTS", 32);
    let ops = env_u64("ORP_SERVICE_OPS", 6) as usize;
    let events = workload_events(ops);
    println!(
        "== orpd service bench: {tenants} tenants x {} events ==\n",
        events.len()
    );

    let tp = throughput_phase(tenants, &events);
    println!(
        "sessions/sec:      {:.1}\n\
         events/sec:        {:.0}\n\
         p99 frame ingest:  {:.3} ms\n\
         backpressure:      {} stalls\n\
         byte identity:     {}",
        tp.sessions_per_sec,
        tp.events_per_sec,
        tp.p99_ingest_nanos as f64 / 1e6,
        tp.stalls,
        tp.byte_identical,
    );

    let recovery_ms = recovery_phase(&events);
    match recovery_ms {
        Some(ms) => println!("recovery after SIGKILL: {ms:.1} ms"),
        None => println!("recovery after SIGKILL: skipped (no orprof-cli)"),
    }

    let recovery_json = recovery_ms.map_or("null".to_owned(), |ms| format!("{ms:.1}"));
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"service\",\n",
            "  \"tenants\": {},\n",
            "  \"events_per_tenant\": {},\n",
            "  \"sessions_per_sec\": {:.1},\n",
            "  \"events_per_sec\": {:.0},\n",
            "  \"p99_ingest_latency_ms\": {:.3},\n",
            "  \"backpressure_stalls\": {},\n",
            "  \"recovery_after_kill_ms\": {},\n",
            "  \"acceptance\": {{\n",
            "    \"served_profile_byte_identical\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        tenants,
        events.len(),
        tp.sessions_per_sec,
        tp.events_per_sec,
        tp.p99_ingest_nanos as f64 / 1e6,
        tp.stalls,
        recovery_json,
        tp.byte_identical,
    );
    if !tp.byte_identical {
        eprintln!("warning: served profile differs from the inline path");
    }
    match orp_bench::write_result_artifacts("service", &json) {
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
