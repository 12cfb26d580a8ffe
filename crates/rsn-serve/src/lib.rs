//! **rsn-serve** — `rsnd`, a std-only analysis daemon for robust-RSN.
//!
//! The crate turns [`robust_rsn::AnalysisSession`] into a long-lived service:
//! a dependency-free HTTP/1.1 + JSON server that accepts networks in the
//! textual `.rsn` format and serves criticality analyses and hardening
//! solves to many concurrent clients.
//!
//! ```text
//! POST /v1/analyze   criticality summary      (JSON JobRequest → CriticalitySummary)
//! POST /v1/harden    hardening Pareto front   (JSON JobRequest → HardenResponse)
//! POST /v1/validate  fault-simulation report  (JSON JobRequest → ValidationReport)
//! POST /v1/whatif    incremental what-if      (JSON JobRequest → WhatifResponse)
//! PUT  /v1/networks  register a network       (JSON JobRequest → NetworkPutResponse)
//! GET  /v1/networks  list registered networks (→ NetworkListResponse)
//! GET  /metrics      plaintext serving metrics
//! GET  /healthz      liveness probe
//! ```
//!
//! Jobs may carry inline `network` text or a `network_hash` referencing a
//! network previously registered via `PUT /v1/networks` — the hash is the
//! canonical content hash of the built scan graph
//! ([`robust_rsn::canonical_network_hash`]), so it is stable across
//! whitespace, reprinting, and daemon restarts. With `--store PATH` the
//! daemon persists both the registry and the result cache in a WAL-backed
//! [`rsn_store::Store`], surviving `kill -9` and answering warm results
//! byte-identically after a restart.
//!
//! Every non-200 response shares one structured body:
//! `{"error":{"code":...,"message":...,"retryable":...}}` ([`wire::WireError`]),
//! with `retryable` true exactly for 408 deadline and 503 overload answers.
//!
//! `/v1/whatif` is answered from a warm [`robust_rsn::Workspace`] held in an
//! LRU keyed by a content hash of the network text and spec knobs
//! ([`wscache`]), so a burst of what-if queries against one network parses
//! and fully sweeps it once, then pays only incremental deltas.
//!
//! Architecture (one module each):
//!
//! * [`http`] — the minimal HTTP/1.1 subset, including the incremental
//!   keep-alive/pipelining parser the event loop uses;
//! * [`wire`] — the JSON contract, request resolution and job execution;
//! * [`queue`] — the bounded submission queue behind the `503` backpressure;
//! * [`cache`] — the LRU result cache keyed by the canonical network hash;
//! * [`wscache`] — the LRU of warm `Workspace`s behind `/v1/whatif`;
//! * [`registry`] — the content-addressed network registry (parse once per
//!   network, persist across restarts);
//! * [`metrics`] — atomic counters/histograms and their plaintext rendering;
//! * [`poll`] — the `poll(2)` readiness shim the event loop stands on;
//! * [`server`] — the non-blocking event-loop front end, worker pool, panic
//!   isolation + worker respawn, graceful shutdown, and the [`Backend`]
//!   seam the pool hands jobs to (local execution, or the `rsnc`
//!   coordinator's fleet);
//! * [`client`] — the std-only blocking client (`rsn_tool submit`) with
//!   `Retry-After`-honoring backoff for 503s;
//! * [`chaos`] — the deterministic fault-injection schedule (`--chaos`);
//! * [`loadgen`] — the replayable open/closed-loop load generator behind
//!   `rsn_tool loadgen` (seeded job mixes, keep-alive connections,
//!   p50/p99/p999 against an SLO);
//! * [`signal`] — SIGTERM/ctrl-c to shutdown-flag plumbing for the binaries;
//! * [`daemon`] — the command line `rsnd` and `rsnc-worker` share.
//!
//! Determinism: responses are byte-identical for a given resolved job — see
//! [`wire`] — which is what makes the result cache transparent.
//!
//! # Example
//!
//! ```
//! use rsn_serve::{Client, Endpoint, JobRequest, Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?;
//! let addr = server.local_addr();
//! let handle = server.shutdown_handle();
//! let thread = std::thread::spawn(move || server.run());
//!
//! let client = Client::new(addr.to_string());
//! let job = JobRequest {
//!     network: Some("network demo { sib s { seg a len=4 instrument(kind=sensor); } }".into()),
//!     ..Default::default()
//! };
//! let response = client.submit(Endpoint::Analyze, &job)?;
//! assert_eq!(response.status, 200);
//! assert!(response.body.contains("total_damage"));
//!
//! handle.shutdown();
//! thread.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod daemon;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod poll;
pub mod queue;
pub mod registry;
pub mod server;
pub mod signal;
pub mod wire;
pub mod wscache;

pub use chaos::Chaos;
pub use client::{parse_error, Client, ClientError, RetryPolicy, SubmitOutcome};
pub use loadgen::{LoadReport, LoadgenConfig, Mix};
pub use metrics::Metrics;
pub use registry::Registry;
pub use server::{Backend, Exposition, Job, Server, ServerConfig, ShutdownHandle, Submission};
pub use wire::{
    merge_analyze_shards, AnalyzeExactDoubleResponse, AnalyzeShardResponse, Endpoint,
    ErrorResponse, HardenResponse, JobRequest, NetworkListResponse, NetworkPutResponse,
    ParsedNetwork, ResolvedJob, ShardModeDamage, WhatifOp, WhatifResponse, WireError,
};
pub use wscache::{WorkspaceCache, WorkspaceSlot};
