//! The daemon command line, shared by `rsnd` and `rsnc-worker`.
//!
//! ```text
//! NAME [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!      [--store PATH] [--timeout-ms N] [--chaos SPEC] [--version]
//! ```
//!
//! Whatever the binary is called, it prints `rsnd listening on HOST:PORT`
//! once ready — scripts and the `rsnc` fleet spawner wait for that line —
//! and shuts down gracefully (draining in-flight jobs) on SIGTERM or
//! ctrl-c. `--chaos SPEC` (or the `RSND_CHAOS` environment variable; the
//! flag wins) installs a deterministic fault-injection schedule; see the
//! [`chaos`](crate::chaos) module docs.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use robust_rsn::Parallelism;

use crate::{poll, signal, Chaos, Server, ServerConfig};

/// Runs the daemon named `name` (used in `--version`, usage and log
/// lines) on the process's arguments, until a shutdown signal has drained
/// it.
#[must_use]
pub fn main(name: &str) -> ExitCode {
    match run(name) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(name: &str) -> Result<(), String> {
    let mut config = ServerConfig::default();
    let mut chaos_spec = std::env::var("RSND_CHAOS").ok();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |key: &str| it.next().cloned().ok_or_else(|| format!("{key} expects a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => config.workers = Parallelism::new(parse(&value("--workers")?)?),
            "--queue" => config.queue_capacity = parse(&value("--queue")?)?,
            "--cache" => config.cache_capacity = parse(&value("--cache")?)?,
            "--store" => config.store_path = Some(value("--store")?.into()),
            "--timeout-ms" => config.default_timeout_ms = parse(&value("--timeout-ms")?)?,
            "--chaos" => chaos_spec = Some(value("--chaos")?),
            "--version" | "-V" => {
                println!("{name} {}", env!("CARGO_PKG_VERSION"));
                return Ok(());
            }
            other => {
                return Err(format!(
                    "unknown flag {other:?}\nusage: {name} [--addr HOST:PORT] [--workers N] \
                     [--queue N] [--cache N] [--store PATH] [--timeout-ms N] [--chaos SPEC] \
                     [--version]"
                ))
            }
        }
    }
    if let Some(spec) = chaos_spec {
        let chaos = Chaos::from_spec(&spec)?;
        eprintln!("{name}: chaos schedule active (seed {})", chaos.seed());
        config.chaos = Some(Arc::new(chaos));
    }

    // Best-effort: a keep-alive fleet of 10k+ sockets needs headroom over
    // the usual 1024-descriptor default.
    let _ = poll::raise_nofile_limit(65_536);

    let server = Server::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    println!("rsnd listening on {}", server.local_addr());
    signal::shutdown_on_signal(server.shutdown_handle());
    server.run().map_err(|e| format!("serve failed: {e}"))?;
    // The fleet spawner stops reading a worker's stdout after the banner,
    // so this line may meet a closed pipe; that is no reason to fail.
    let _ = writeln!(std::io::stdout(), "{name} shut down cleanly");
    Ok(())
}

/// Parses a numeric flag value.
///
/// # Errors
///
/// `invalid number "…"` when `s` does not parse.
pub fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}
