//! `rsnc` — the robust-RSN cluster coordinator.
//!
//! ```text
//! rsnc [--addr HOST:PORT] [--workers N] [--worker-bin PATH]
//!      [--worker-arg ARG]... [--adopt ADDR[,ADDR...]]
//!      [--shard-threshold N] [--failover-budget N]
//!      [--wedged-queue-depth N] [--health-interval-ms N]
//!      [--chaos SPEC] [--version]
//! ```
//!
//! Runs `rsnd`'s front end over a fleet of workers, so it speaks the same
//! wire protocol as a single `rsnd` and any client works unchanged. Spawns
//! `--workers` worker processes (default: the `rsnc-worker` or `rsnd`
//! binary found beside this executable) or adopts the `--adopt` addresses. Prints `rsnc listening on HOST:PORT` once
//! ready and shuts down on SIGTERM or ctrl-c, killing spawned workers.
//!
//! `--chaos SPEC` (or `RSNC_CHAOS`) installs the shared deterministic
//! fault schedule; the coordinator fires the cluster-level sites
//! (`kill-worker`, `drop-conn`, `slow-worker`) and forwards the spec to
//! spawned workers so their local sites fire too.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rsn_cluster::{ClusterConfig, Coordinator};
use rsn_serve::daemon::parse;
use rsn_serve::{poll, signal, Chaos};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut config = ClusterConfig::default();
    let mut chaos_spec = std::env::var("RSNC_CHAOS").ok();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => config.workers = parse(&value("--workers")?)?,
            "--worker-bin" => config.worker_bin = Some(PathBuf::from(value("--worker-bin")?)),
            "--worker-arg" => config.worker_args.push(value("--worker-arg")?),
            "--adopt" => {
                config.adopt = value("--adopt")?.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--shard-threshold" => config.shard_threshold = parse(&value("--shard-threshold")?)?,
            "--failover-budget" => config.failover_budget = parse(&value("--failover-budget")?)?,
            "--wedged-queue-depth" => {
                config.wedged_queue_depth = parse(&value("--wedged-queue-depth")?)?;
            }
            "--health-interval-ms" => {
                config.health_interval =
                    Duration::from_millis(parse(&value("--health-interval-ms")?)?);
            }
            "--chaos" => chaos_spec = Some(value("--chaos")?),
            "--version" | "-V" => {
                println!("rsnc {}", env!("CARGO_PKG_VERSION"));
                return Ok(());
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if let Some(spec) = &chaos_spec {
        let chaos = Chaos::from_spec(spec)?;
        eprintln!("rsnc: chaos schedule active (seed {})", chaos.seed());
        config.chaos = Some(Arc::new(chaos));
        // Spawned workers run the same schedule for their local sites.
        config.worker_args.extend(["--chaos".to_string(), spec.clone()]);
    }
    if config.adopt.is_empty() && config.worker_bin.is_none() {
        config.worker_bin = Some(default_worker_bin()?);
    }

    // Best-effort, like rsnd: many keep-alive clients need descriptors.
    let _ = poll::raise_nofile_limit(65_536);

    let coordinator = Coordinator::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    println!("rsnc listening on {}", coordinator.local_addr());
    signal::shutdown_on_signal(coordinator.shutdown_handle());
    coordinator.run().map_err(|e| format!("serve failed: {e}"))?;
    println!("rsnc shut down cleanly");
    Ok(())
}

/// Finds a worker daemon beside the `rsnc` executable: `rsnc-worker`
/// first, then `rsnd`.
fn default_worker_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe failed: {e}"))?;
    let dir = exe.parent().ok_or("rsnc executable has no parent directory")?;
    for name in ["rsnc-worker", "rsnd"] {
        let candidate = dir.join(name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err("no rsnc-worker or rsnd binary found beside rsnc; pass --worker-bin PATH".to_string())
}

const USAGE: &str = "usage: rsnc [--addr HOST:PORT] [--workers N] [--worker-bin PATH] \
                     [--worker-arg ARG]... [--adopt ADDR,...] [--shard-threshold N] \
                     [--failover-budget N] [--wedged-queue-depth N] [--health-interval-ms N] \
                     [--chaos SPEC] [--version]";
