//! The programs under test as child processes: spawned from the release
//! binaries, awaited until they announce their address, and killed and
//! reaped when dropped — so no run leaves a process behind, even when the
//! runner itself is killed.

use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `bin args…` with its output piped back, killed by the kernel if the
/// spawning thread dies first.
fn command(bin: &Path, args: &[String]) -> Command {
    let mut command = Command::new(bin);
    command.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    die_with_parent(&mut command);
    command
}

#[cfg(target_os = "linux")]
fn die_with_parent(command: &mut Command) {
    use std::os::unix::process::CommandExt;

    extern "C" {
        /// `int prctl(int option, ...)` from the libc std links.
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the hook runs in the forked child before `exec` and only
    // calls prctl(2) and reads errno, both async-signal-safe; it allocates
    // nothing and touches no state shared with the parent.
    unsafe {
        command.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_: &mut Command) {}

/// A running daemon (`rsnd` or `rsnc`).
pub struct Daemon {
    child: Child,
    /// Kept open until the process is reaped: the daemon prints a farewell
    /// line on shutdown and must not meet a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address from the daemon's `listening on` banner.
    pub addr: String,
}

impl Daemon {
    /// Spawns `bin args…` and waits for its `listening on HOST:PORT` line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or the process exiting before its banner.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Self, String> {
        let mut child =
            command(bin, args).spawn().map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().rsplit_once("listening on ").map(|(_, addr)| addr.to_string());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self { child, _stdout: stdout, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("{} exited before announcing its address", bin.display()))
            }
        }
    }

    /// The process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in KiB, while it lives.
#[must_use]
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A finished one-shot command.
pub struct Finished {
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// Highest `VmHWM` seen while it ran, in KiB.
    pub peak_rss_kib: u64,
    /// Everything it printed on stdout.
    pub stdout: String,
}

/// Runs `bin args…` to completion, polling its `VmHWM` from a second
/// thread while the first waits, so the wall time is not rounded to the
/// polling interval.
///
/// # Errors
///
/// Spawn failures and nonzero exits.
pub fn run_to_end(bin: &Path, args: &[String]) -> Result<Finished, String> {
    let started = Instant::now();
    let mut child =
        command(bin, args).spawn().map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let pid = child.id();
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let done = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let (status, wall, out) = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if let Some(kib) = peak_rss_kib(pid) {
                    peak.fetch_max(kib, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let mut out = String::new();
        let read = stdout.read_to_string(&mut out);
        let status = child.wait();
        let wall = started.elapsed();
        done.store(true, Ordering::SeqCst);
        (read.and(status), wall, out)
    });
    let status = status.map_err(|e| format!("waiting for {}: {e}", bin.display()))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", bin.display()));
    }
    Ok(Finished { wall, peak_rss_kib: peak.load(Ordering::Relaxed), stdout: out })
}
