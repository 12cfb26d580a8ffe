//! `rsnc-worker` — an `rsnd` analysis worker packaged with the cluster
//! crate so `rsnc` (and its integration tests) always have a spawnable
//! worker beside them. It runs the same entry point as `rsnd`
//! ([`rsn_serve::daemon::main`]), so it takes the same flags and prints the
//! same `rsnd listening on HOST:PORT` banner the fleet spawner waits for.

fn main() -> std::process::ExitCode {
    rsn_serve::daemon::main("rsnc-worker")
}
