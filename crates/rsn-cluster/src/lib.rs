//! `rsn-cluster` — a fault-tolerant cluster coordinator (`rsnc`) for
//! `rsnd` analysis workers.
//!
//! The coordinator *is* an `rsnd` front end: an [`rsn_serve::Server`] whose
//! worker pool hands each job to the remote [`rsn_serve::Backend`] in
//! [`coordinator`] instead of executing it locally. It therefore speaks the
//! exact same HTTP/JSON wire protocol as a single `rsnd`
//! ([`rsn_serve::wire`]), through the same event loop — keep-alive,
//! pipelining, framing errors, queue backpressure, panic isolation and the
//! SIGTERM drain included — so every client (`rsn_tool`, the loadgen
//! harness, the smoke scripts) points at `rsnc` unchanged. Behind that
//! front it:
//!
//! - **spawns or adopts** N workers ([`fleet::Fleet`]), each an ordinary
//!   `rsnd` process on its own port;
//! - **routes whole jobs** by rendezvous hashing of the canonical network
//!   hash, so repeat submissions of the same network hit the same worker's
//!   result cache;
//! - **range-partitions large sweeps**: a big `/v1/analyze` is split into
//!   contiguous fault-mode ranges, one per worker, and the shard responses
//!   merge (order-preserving, packing-independent) into a response
//!   **byte-identical** to a single node's;
//! - **survives worker death**: health probes eject dead or wedged
//!   workers, a supervisor respawns them and re-seeds their network
//!   registry, and in-flight shards fail over to surviving workers under a
//!   bounded retry budget — exhausting the budget degrades gracefully to a
//!   structured, retryable `503 fleet_exhausted`;
//! - **merges fleet metrics**: `GET /metrics` is the server's own
//!   exposition plus per-worker up/down and queue depth and coordinator
//!   counters (requests, shards retried, failovers, rebalances, respawns);
//! - **injects cluster chaos**: the shared deterministic
//!   [`Chaos`](rsn_serve::chaos::Chaos) schedule gains `kill-worker`,
//!   `drop-conn` and `slow-worker` sites, fired by the backend right before
//!   a dispatch; the front end itself runs without a chaos schedule.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coordinator;
pub mod fleet;
pub mod metrics;

pub use coordinator::{ClusterConfig, ClusterControl, Coordinator};
pub use fleet::{Fleet, Worker, WorkerSpawn, WorkerStatus};
pub use metrics::ClusterMetrics;
