//! End-to-end daemon tests: many concurrent tenants, byte-identity with
//! the inline session path, worker-death isolation, hostile frames and
//! disconnect/resume.

use std::io::{BufReader, Read};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use orp_core::Session;
use orp_format::{read_varint, ChunkTag, ContainerReader, ContainerWriter, Hello};
use orp_leap::LeapProfiler;
use orp_orpd::{
    shutdown_daemon, ClientError, Daemon, DaemonConfig, OrpdStats, TenantClient, DONE_CLEAN,
    DONE_DEGRADED, FRAME_EVENTS, STATUS_BUSY, STATUS_OK,
};
use orp_trace::{encode_batch, ProbeEvent, VecSink};
use orp_workloads::{micro, RunConfig, Workload};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("orpd-test-{}-{name}", std::process::id()));
    p
}

fn workload_events(buckets: u64, ops: usize) -> Vec<ProbeEvent> {
    let mut sink = VecSink::new();
    micro::HashChurn::new(buckets, ops).run_with(&RunConfig::default(), &mut sink);
    sink.into_events()
}

/// What the inline (non-daemon) path produces for `events`: the
/// byte-identity oracle for every daemon-written profile.
fn inline_profile(events: &[ProbeEvent]) -> Vec<u8> {
    let mut session = Session::new(LeapProfiler::new());
    session.feed(events);
    let mut bytes = Vec::new();
    session.finalize(&mut bytes).expect("inline finalize");
    bytes
}

fn stream_tenant(
    socket: &std::path::Path,
    tenant: &str,
    events: &[ProbeEvent],
) -> Result<orp_orpd::Done, ClientError> {
    let hello = Hello::new(tenant).expect("tenant name");
    let mut client = TenantClient::connect(socket, &hello)?;
    for &ev in events {
        client.event(ev)?;
    }
    client.finish()
}

fn assert_inspectable(path: &std::path::Path) {
    let file = std::fs::File::open(path).expect("tenant artifact exists");
    let mut reader = ContainerReader::new(BufReader::new(file)).expect("container header");
    let mut chunks = 0;
    while let Some(_chunk) = reader.next_chunk().expect("chunk walks cleanly") {
        chunks += 1;
    }
    assert!(chunks > 0, "artifact {} holds no chunks", path.display());
}

#[test]
fn sixty_four_concurrent_tenants_finish_clean_and_byte_identical() {
    let dir = tmp("many-tenants");
    let _ = std::fs::remove_dir_all(&dir);
    let socket = dir.join("orpd.sock");
    let mut config = DaemonConfig::new(&socket, &dir);
    // A tight credit window forces every tenant through the grant path.
    config.credit_frames = 2;
    let daemon = Daemon::start(config).expect("daemon starts");

    let events = workload_events(96, 4);
    let expected = inline_profile(&events);
    let workers: Vec<_> = (0..64)
        .map(|i| {
            let socket = socket.clone();
            let events = events.clone();
            std::thread::spawn(move || {
                // Many small frames per tenant so credits actually cycle.
                let hello = Hello::new(&format!("tenant-{i:02}")).expect("tenant name");
                let mut client = TenantClient::connect(&socket, &hello)?;
                for chunk in events.chunks(512) {
                    for &ev in chunk {
                        client.event(ev)?;
                    }
                    client.flush_frame()?;
                }
                client.finish()
            })
        })
        .collect();
    for worker in workers {
        let done = worker.join().expect("client thread").expect("stream ok");
        assert_eq!(done.status, DONE_CLEAN);
        assert_eq!(done.events, events.len() as u64);
        assert_eq!(done.salvaged, 0);
    }

    let stats = daemon.stats();
    assert_eq!(OrpdStats::get(&stats.sessions_started), 64);
    assert_eq!(OrpdStats::get(&stats.sessions_finished), 64);
    assert_eq!(OrpdStats::get(&stats.sessions_degraded), 0);
    assert_eq!(OrpdStats::get(&stats.events), 64 * events.len() as u64);
    daemon.stop().expect("daemon drains");

    for i in 0..64 {
        let path = dir.join(format!("tenant-{i:02}.orp"));
        assert_inspectable(&path);
        let served = std::fs::read(&path).expect("read artifact");
        assert_eq!(
            served, expected,
            "tenant-{i:02}'s served profile differs from the inline path"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_connection_for_a_live_tenant_is_refused() {
    let dir = tmp("busy");
    let _ = std::fs::remove_dir_all(&dir);
    let socket = dir.join("orpd.sock");
    let daemon = Daemon::start(DaemonConfig::new(&socket, &dir)).expect("daemon starts");

    let hello = Hello::new("solo").expect("tenant name");
    let first = TenantClient::connect(&socket, &hello).expect("first connection accepted");
    match TenantClient::connect(&socket, &hello) {
        Err(ClientError::Rejected { status }) => assert_eq!(status, STATUS_BUSY),
        Err(other) => panic!("second connection should be refused busy, got {other}"),
        Ok(_) => panic!("second connection should be refused, got an accept"),
    }
    let done = first.finish().expect("first stream finishes");
    assert_eq!(done.status, DONE_CLEAN);
    assert_eq!(OrpdStats::get(&daemon.stats().sessions_rejected), 1);
    daemon.stop().expect("daemon drains");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tenant_reconnecting_right_after_done_is_never_refused() {
    let dir = tmp("reconnect");
    let _ = std::fs::remove_dir_all(&dir);
    let socket = dir.join("orpd.sock");
    let daemon = Daemon::start(DaemonConfig::new(&socket, &dir)).expect("daemon starts");

    // The daemon releases a tenant before it sends DONE, so the next
    // session of the same tenant, opened the moment DONE arrives, finds
    // the slot free. Two tenants churn side by side so the daemon's
    // threads compete for the CPU, as they do under real load.
    let events = workload_events(8, 1);
    let churners: Vec<_> = ["again-a", "again-b"]
        .into_iter()
        .map(|tenant| {
            let socket = socket.clone();
            let events = events.clone();
            std::thread::spawn(move || {
                for round in 0..200 {
                    match stream_tenant(&socket, tenant, &events) {
                        Ok(done) => assert_eq!(done.status, DONE_CLEAN, "{tenant} round {round}"),
                        Err(e) => {
                            panic!("{tenant} round {round}: reconnect refused or failed: {e}")
                        }
                    }
                }
            })
        })
        .collect();
    for churner in churners {
        churner.join().expect("every reconnect accepted");
    }
    let stats = daemon.stats();
    assert_eq!(OrpdStats::get(&stats.sessions_rejected), 0);
    assert_eq!(OrpdStats::get(&stats.sessions_finished), 400);
    daemon.stop().expect("daemon drains");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dying_worker_degrades_only_its_own_tenant() {
    let dir = tmp("poison");
    let _ = std::fs::remove_dir_all(&dir);
    let socket = dir.join("orpd.sock");
    let mut config = DaemonConfig::new(&socket, &dir);
    config.poison_tenant = Some("victim".to_owned());
    let daemon = Daemon::start(config).expect("daemon starts");

    let events = workload_events(64, 3);
    let expected = inline_profile(&events);

    // The victim streams several frames; its worker dies on the second.
    let hello = Hello::new("victim").expect("tenant name");
    let mut victim = TenantClient::connect(&socket, &hello).expect("victim connects");
    for chunk in events.chunks(256) {
        for &ev in chunk {
            victim.event(ev).expect("victim event");
        }
        victim.flush_frame().expect("victim frame");
    }
    let victim_done = victim.finish().expect("victim stream still terminates");
    assert_eq!(victim_done.status, DONE_DEGRADED);
    assert!(
        victim_done.salvaged > 0,
        "post-death frames must be salvage-counted"
    );

    // A bystander streaming through the same daemon is untouched.
    let done = stream_tenant(&socket, "bystander", &events).expect("bystander streams");
    assert_eq!(done.status, DONE_CLEAN);
    assert_eq!(done.salvaged, 0);

    let stats = daemon.stats();
    assert_eq!(OrpdStats::get(&stats.sessions_degraded), 1);
    assert_eq!(OrpdStats::get(&stats.sessions_finished), 1);
    assert_eq!(
        OrpdStats::get(&stats.salvaged_events),
        victim_done.salvaged,
        "daemon-wide salvage total must equal the one degraded tenant's"
    );
    daemon.stop().expect("daemon drains");

    let served = std::fs::read(dir.join("bystander.orp")).expect("bystander artifact");
    assert_eq!(served, expected, "bystander profile corrupted by victim");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opens a raw connection for `tenant`, sends one `TRCE` chunk holding
/// `payload`, and reads until the daemon closes the connection,
/// returning what it sent after the ack.
fn send_one_frame(socket: &std::path::Path, tenant: &str, payload: &[u8]) -> Vec<u8> {
    let stream = UnixStream::connect(socket).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout");
    let mut writer = ContainerWriter::new(stream.try_clone().expect("clone")).expect("header");
    Hello::new(tenant)
        .expect("tenant name")
        .encode(&mut writer)
        .expect("handshake");
    let mut reader = BufReader::new(stream);
    let ack: Vec<u64> = (0..3)
        .map(|_| read_varint(&mut reader).expect("ack"))
        .collect();
    assert_eq!(ack[0], STATUS_OK, "{tenant}");
    writer.chunk(ChunkTag::TRACE, payload).expect("frame");
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("the daemon must end the connection, not wait on it");
    rest
}

#[test]
fn oversized_and_truncated_frames_end_only_their_own_connection() {
    let dir = tmp("hostile");
    let _ = std::fs::remove_dir_all(&dir);
    let socket = dir.join("orpd.sock");
    let daemon = Daemon::start(DaemonConfig::new(&socket, &dir)).expect("daemon starts");

    let events = workload_events(64, 3);
    let expected = inline_profile(&events);
    let bystander = std::thread::spawn({
        let socket = socket.clone();
        let events = events.clone();
        move || {
            let hello = Hello::new("bystander").expect("tenant name");
            let mut client = TenantClient::connect(&socket, &hello)?;
            for chunk in events.chunks(256) {
                for &ev in chunk {
                    client.event(ev)?;
                }
                client.flush_frame()?;
            }
            client.finish()
        }
    });

    // A well-formed frame one event over the limit, and a frame whose
    // event count promises more records than its bytes hold.
    let oversized = encode_batch(&vec![events[1]; FRAME_EVENTS + 1]).expect("encode");
    let mut truncated = encode_batch(&events[..64]).expect("encode");
    truncated.truncate(truncated.len() - 3);
    for (tenant, payload) in [("oversized", &oversized), ("truncated", &truncated)] {
        let after_ack = send_one_frame(&socket, tenant, payload);
        assert!(after_ack.is_empty(), "{tenant}: no grant, no DONE");
        // The tenant is released before its connection closes, so a
        // reconnect the moment it does is served, not refused busy.
        let done = stream_tenant(&socket, tenant, &events).expect("immediate reconnect served");
        assert_eq!(done.status, DONE_CLEAN, "{tenant}");
    }

    let done = bystander
        .join()
        .expect("bystander thread")
        .expect("bystander streams");
    assert_eq!(done.status, DONE_CLEAN);
    let stats = daemon.stats();
    assert_eq!(OrpdStats::get(&stats.sessions_disconnected), 2);
    assert_eq!(OrpdStats::get(&stats.sessions_rejected), 0);
    assert_eq!(OrpdStats::get(&stats.sessions_finished), 3);
    daemon.stop().expect("daemon drains");

    for tenant in ["bystander", "oversized", "truncated"] {
        let served = std::fs::read(dir.join(format!("{tenant}.orp"))).expect("artifact");
        assert_eq!(
            served, expected,
            "{tenant}'s profile differs from the inline path"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_disconnected_tenant_resumes_from_its_checkpoint() {
    let dir = tmp("resume");
    let _ = std::fs::remove_dir_all(&dir);
    let socket = dir.join("orpd.sock");
    let daemon = Daemon::start(DaemonConfig::new(&socket, &dir)).expect("daemon starts");

    let events = workload_events(96, 4);
    let expected = inline_profile(&events);
    let cut = events.len() / 2;

    // First connection streams half the events then vanishes without
    // END: the daemon persists a checkpoint on disconnect.
    let hello = Hello::new("phoenix").expect("tenant name");
    let mut client = TenantClient::connect(&socket, &hello).expect("first connect");
    for &ev in &events[..cut] {
        client.event(ev).expect("event");
    }
    client.flush_frame().expect("frame");
    drop(client);

    // The daemon notices the disconnect asynchronously; retry the
    // resume handshake until the tenant slot frees up.
    let mut resume_hello = Hello::new("phoenix").expect("tenant name");
    resume_hello.resume = true;
    let mut client = loop {
        match TenantClient::connect(&socket, &resume_hello) {
            Ok(c) => break c,
            Err(ClientError::Rejected { status }) if status == STATUS_BUSY => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("resume connect failed: {e}"),
        }
    };
    assert_eq!(
        client.resumed_events(),
        cut as u64,
        "ack must report the durable event count"
    );
    for &ev in &events[cut..] {
        client.event(ev).expect("event");
    }
    let done = client.finish().expect("second stream finishes");
    assert_eq!(done.status, DONE_CLEAN);
    assert_eq!(done.events, events.len() as u64);

    let stats = daemon.stats();
    assert_eq!(OrpdStats::get(&stats.sessions_resumed), 1);
    assert_eq!(OrpdStats::get(&stats.sessions_disconnected), 1);
    daemon.stop().expect("daemon drains");

    let served = std::fs::read(dir.join("phoenix.orp")).expect("artifact");
    assert_eq!(
        served, expected,
        "checkpoint-resumed profile differs from the inline path"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_refuses_new_work_and_join_returns() {
    let dir = tmp("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    let socket = dir.join("orpd.sock");
    let daemon = Daemon::start(DaemonConfig::new(&socket, &dir)).expect("daemon starts");
    shutdown_daemon(&socket).expect("shutdown handshake");
    daemon.join().expect("accept loop drains");
    let _ = std::fs::remove_dir_all(&dir);
}
