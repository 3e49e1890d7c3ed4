//! Child processes: timed CLI jobs with their peak RSS, and the `serve`
//! daemon child.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    fields: [i64; 18],
}

const RU_MAXRSS: usize = 4;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// One finished CLI job.
#[derive(Debug, Clone, Copy)]
pub struct JobResult {
    /// Wall time from spawn until the child was reaped.
    pub nanos: u64,
    /// The child exited with status 0.
    pub ok: bool,
    /// The child's peak RSS (`ru_maxrss`) in KiB.
    pub maxrss_kib: u64,
}

/// Runs `cli args...` to completion, timing it from spawn to exit.
///
/// The child is reaped with `wait4` so its own `ru_maxrss` comes back
/// with it. That figure is the larger of the child's VmHWM and the
/// spawning process's RSS at spawn time, so callers keep their own RSS
/// small while they run timed jobs (see [`own_hwm_kib`]).
pub fn run_job(cli: &Path, args: &[String]) -> io::Result<JobResult> {
    let start = Instant::now();
    let child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()?;
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = RUsage { fields: [0; 18] };
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // locals of the exact C layout `wait4` writes (an `int` and a
        // 64-bit Linux `struct rusage`), and `pid` is our own unreaped
        // child, so the call touches no other memory.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    // The child is reaped; `Child` neither waits nor kills on drop.
    drop(child);
    let exited = status & 0x7f == 0;
    let code = (status >> 8) & 0xff;
    Ok(JobResult {
        nanos,
        ok: exited && code == 0,
        maxrss_kib: u64::try_from(usage.fields[RU_MAXRSS]).unwrap_or(0),
    })
}

/// Runs `cli args...` and returns its standard output, failing on a
/// non-zero exit.
pub fn run_capture(cli: &Path, args: &[String]) -> io::Result<String> {
    let out = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "{} {} exited with {}",
            cli.display(),
            args.join(" "),
            out.status
        )));
    }
    String::from_utf8(out.stdout).map_err(io::Error::other)
}

/// A `/proc/<pid>/status` field in KiB (`VmHWM`, `VmRSS`, ...).
pub fn status_kib(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// This process's own VmHWM in KiB: the floor under every
/// `ru_maxrss` that [`run_job`] reports.
pub fn own_hwm_kib() -> u64 {
    status_kib(std::process::id(), "VmHWM").unwrap_or(0)
}

/// A running `orprof-cli serve` child.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
    stopped: bool,
}

impl Daemon {
    /// Spawns `serve` and returns once it reports that it listens.
    pub fn start(cli: &Path, args: &[String], socket: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(cli)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("no stdout"))?;
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            socket: socket.to_path_buf(),
            stopped: false,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if daemon.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("serve exited before listening"));
            }
            if line.starts_with("orpd listening") {
                return Ok(daemon);
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends the shutdown handshake and waits for the daemon to drain
    /// and exit, returning the rest of its standard output.
    pub fn stop(mut self) -> io::Result<String> {
        orp_orpd::shutdown_daemon(&self.socket).map_err(io::Error::other)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait()? {
                self.stopped = true;
                let mut rest = String::new();
                io::Read::read_to_string(&mut self.stdout, &mut rest)?;
                return if status.success() {
                    Ok(rest)
                } else {
                    Err(io::Error::other(format!("serve exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("serve did not drain within 60 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
