//! `rsnd` — the robust-RSN analysis daemon.
//!
//! ```text
//! rsnd [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!      [--store PATH] [--timeout-ms N] [--chaos SPEC] [--version]
//! ```
//!
//! Serves `POST /v1/analyze`, `POST /v1/harden`, `PUT/GET /v1/networks`,
//! `GET /metrics` and `GET /healthz` (see the `rsn-serve` crate docs for the
//! wire format). Prints `rsnd listening on HOST:PORT` once ready — scripts
//! wait for that line — and shuts down gracefully (draining in-flight jobs)
//! on SIGTERM or ctrl-c.
//!
//! `--store PATH` opens (or creates) the persistent WAL-backed store at
//! PATH: registered networks and computed results survive restarts — even a
//! `kill -9` — and warm responses are byte-identical after recovery.
//!
//! `--chaos SPEC` (or the `RSND_CHAOS` environment variable; the flag wins)
//! installs a deterministic fault-injection schedule, e.g.
//! `seed=7,panic=5,abort=40,stall=6,delay-ms=25` — see the `chaos` module
//! docs. Test-only; never set it in production.

fn main() -> std::process::ExitCode {
    rsn_serve::daemon::main("rsnd")
}
