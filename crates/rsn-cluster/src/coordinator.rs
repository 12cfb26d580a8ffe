//! The `rsnc` coordinator: a thread-per-connection HTTP front end that
//! shards and routes jobs across a [`Fleet`] of `rsnd` workers.
//!
//! ## Routing
//!
//! Whole jobs are routed by **rendezvous hashing** of the network's
//! canonical hash over the live workers: the same network lands on the same
//! worker while the fleet is stable (cache affinity for free), and a
//! worker's death only moves the networks it owned. Large `/v1/analyze`
//! sweeps are instead **fault-mode range partitioned**: the canonical mode
//! table is split into one contiguous range per live worker, each worker
//! evaluates its `[lo, hi)` slice (`mode_lo`/`mode_hi` on the wire), and
//! the shard responses are merged with
//! [`rsn_serve::wire::merge_analyze_shards`]. Because per-mode damages are
//! independent of block packing and thread count, the merged body is
//! **byte-identical** to what a single node would have served.
//!
//! ## Robustness
//!
//! A health loop probes every worker's `/metrics` (liveness plus queue
//! depth) and ejects a worker after a run of consecutive failures; ejected
//! or chaos-killed workers are respawned on a fresh port and re-seeded with
//! every registered network. Failed dispatches fail over to the next live
//! worker — the next in rendezvous order for whole jobs, the next slot for
//! shards — with the worker-level `503` retry handled by the shared
//! [`RetryPolicy`]. Every dispatch is bounded by
//! [`ClusterConfig::failover_budget`] distinct worker generations; when the
//! budget or the fleet is exhausted the client receives a structured,
//! retryable `503 fleet_exhausted` with a `Retry-After` — never a hang.
//!
//! ## Chaos
//!
//! The coordinator consumes the cluster-level sites of the shared
//! [`Chaos`] schedule: `kill-worker` SIGKILLs the target worker right
//! before a dispatch (the dispatch then fails over while the health loop
//! respawns), `drop-conn` opens a connection to the worker and abandons it
//! mid-request, and `slow-worker` sleeps before forwarding.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use robust_rsn::AnalysisOptions;
use rsn_serve::chaos::{Chaos, Site};
use rsn_serve::http::{self, Request, Response};
use rsn_serve::wire::{
    self, AnalyzeShardResponse, Endpoint, JobError, NetworkListResponse, ParsedNetwork, ResolvedJob,
};
use rsn_serve::{Client, JobRequest, RetryPolicy};

use crate::fleet::{Fleet, WorkerSpawn, WorkerStatus};
use crate::metrics::ClusterMetrics;

/// Configuration of a [`Coordinator`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of workers to spawn (ignored when `adopt` is non-empty).
    pub workers: usize,
    /// Worker binary to spawn; `None` adopts `adopt` addresses instead.
    pub worker_bin: Option<std::path::PathBuf>,
    /// Extra arguments passed to every spawned worker.
    pub worker_args: Vec<String>,
    /// Addresses of externally managed workers to adopt instead of
    /// spawning.
    pub adopt: Vec<String>,
    /// Minimum canonical-mode-table size before an `/v1/analyze` is
    /// range-partitioned across workers instead of routed whole.
    pub shard_threshold: u64,
    /// Interval between health-probe sweeps.
    pub health_interval: Duration,
    /// Consecutive probe/dispatch failures before a worker is ejected.
    pub health_failures: u32,
    /// A probed queue depth at or above this marks the worker as wedged
    /// (counts as a probe failure). `u64::MAX` disables the check.
    pub wedged_queue_depth: u64,
    /// Per-worker retry policy for `503` responses.
    pub retry: RetryPolicy,
    /// Maximum distinct worker generations tried per dispatch before the
    /// request degrades to a structured `503 fleet_exhausted`.
    pub failover_budget: u32,
    /// `Retry-After` seconds on `503 fleet_exhausted` responses.
    pub retry_after_secs: u64,
    /// IO timeout for forwarded requests (shard sweeps included).
    pub io_timeout: Duration,
    /// IO timeout for health probes.
    pub probe_timeout: Duration,
    /// Maximum accepted client request body.
    pub max_body_bytes: usize,
    /// Deterministic fault-injection schedule; the coordinator fires only
    /// the cluster-level sites (`kill-worker`, `drop-conn`, `slow-worker`).
    pub chaos: Option<Arc<Chaos>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 3,
            worker_bin: None,
            worker_args: Vec::new(),
            adopt: Vec::new(),
            shard_threshold: 512,
            health_interval: Duration::from_millis(250),
            health_failures: 3,
            wedged_queue_depth: u64::MAX,
            retry: RetryPolicy::default(),
            failover_budget: 6,
            retry_after_secs: 1,
            io_timeout: Duration::from_secs(120),
            probe_timeout: Duration::from_secs(2),
            max_body_bytes: 64 * 1024 * 1024,
            chaos: None,
        }
    }
}

/// A clonable handle that asks a running [`Coordinator`] to shut down.
#[derive(Clone, Debug)]
pub struct ClusterShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ClusterShutdownHandle {
    /// Requests shutdown: stop accepting, kill spawned workers, exit.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

/// An operator's handle into a running coordinator: inspect the fleet,
/// read the merged metrics, and SIGKILL workers — the hook chaos drills
/// and the cluster integration gate use to murder workers mid-campaign.
#[derive(Clone, Debug)]
pub struct ClusterControl {
    inner: Arc<Inner>,
}

impl ClusterControl {
    /// A point-in-time view of every worker slot.
    #[must_use]
    pub fn fleet(&self) -> Vec<WorkerStatus> {
        self.inner.fleet.snapshot()
    }

    /// SIGKILLs the worker in `slot` (the health loop will respawn it when
    /// the fleet spawns its own workers).
    pub fn kill_worker(&self, slot: usize) {
        self.inner.fleet.kill(slot);
    }

    /// The merged fleet metrics exposition.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        self.inner.metrics.render(&self.inner.fleet.snapshot())
    }
}

/// Shared coordinator state.
struct Inner {
    config: ClusterConfig,
    fleet: Fleet,
    /// Coordinator-side mirror of every registered network, keyed by
    /// canonical hash: the source for shard merges, worker re-seeding after
    /// respawn, and on-demand `unknown_network` repair.
    registry: Mutex<BTreeMap<String, Arc<ParsedNetwork>>>,
    metrics: ClusterMetrics,
    shutdown: Arc<AtomicBool>,
    open_conns: AtomicU64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner").field("fleet", &self.fleet).finish_non_exhaustive()
    }
}

/// The cluster coordinator: owns the fleet and the listening socket.
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
    local_addr: SocketAddr,
    inner: Arc<Inner>,
}

impl Coordinator {
    /// Binds the coordinator socket and brings up the fleet (spawning
    /// workers or adopting addresses per the config).
    ///
    /// # Errors
    ///
    /// The bind failure, or a config with neither a worker binary nor
    /// adopted addresses.
    pub fn bind(config: ClusterConfig) -> io::Result<Self> {
        let fleet = if !config.adopt.is_empty() {
            Fleet::adopt(config.adopt.clone())
        } else if let Some(bin) = &config.worker_bin {
            let spawn = WorkerSpawn { bin: bin.clone(), args: config.worker_args.clone() };
            Fleet::spawn(spawn, config.workers.max(1))
        } else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cluster config needs either worker_bin or adopt addresses",
            ));
        };
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            local_addr,
            inner: Arc::new(Inner {
                config,
                fleet,
                registry: Mutex::new(BTreeMap::new()),
                metrics: ClusterMetrics::default(),
                shutdown: Arc::new(AtomicBool::new(false)),
                open_conns: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that shuts the coordinator down from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ClusterShutdownHandle {
        ClusterShutdownHandle { flag: Arc::clone(&self.inner.shutdown) }
    }

    /// An operator handle for fleet inspection and fault injection; grab it
    /// before [`Coordinator::run`] consumes the coordinator.
    #[must_use]
    pub fn control(&self) -> ClusterControl {
        ClusterControl { inner: Arc::clone(&self.inner) }
    }

    /// Serves until shutdown: accepts connections (one thread each) while
    /// the health loop keeps the fleet alive. On shutdown, stops accepting,
    /// waits briefly for open connections to drain, and kills spawned
    /// workers.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection errors are handled.
    pub fn run(self) -> io::Result<()> {
        let health = {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || health_loop(&inner))
        };
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let inner = Arc::clone(&self.inner);
                    inner.open_conns.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        handle_conn(&inner, stream);
                        inner.open_conns.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Grace period for in-flight connections, then tear the fleet down.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.inner.open_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = health.join();
        self.inner.fleet.shutdown();
        Ok(())
    }
}

/// Serves one client connection: keep-alive request loop until the peer
/// closes, asks to close, or errors.
fn handle_conn(inner: &Inner, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.config.io_timeout));
    let _ = stream.set_write_timeout(Some(inner.config.io_timeout));
    loop {
        let request = match http::read_request(&mut stream, inner.config.max_body_bytes) {
            Ok(request) => request,
            Err(e) => {
                // Malformed or timed-out: answer the envelope if the status
                // is meaningful, then close.
                if e.status != 400 || !e.message.contains("connection closed") {
                    let err = JobError::new(e.status, "bad_request", e.message);
                    let _ =
                        http::write_response(&mut stream, &Response::json(err.status, err.body()));
                }
                return;
            }
        };
        let close = request.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        inner.metrics.record_request();
        let response = route(inner, &request);
        inner.metrics.record_response(response.status);
        let bytes = http::encode_response(&response, !close);
        if stream.write_all(&bytes).and_then(|()| stream.flush()).is_err() || close {
            return;
        }
    }
}

/// Dispatches one request to the matching cluster behaviour.
fn route(inner: &Inner, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n".to_string()),
        ("GET", "/metrics") => Response::text(200, inner.metrics.render(&inner.fleet.snapshot())),
        ("GET", "/v1/networks") => list_networks(inner),
        ("PUT", "/v1/networks") => put_network(inner, request),
        ("POST", "/v1/analyze") => submit(inner, Endpoint::Analyze, request),
        ("POST", "/v1/harden") => submit(inner, Endpoint::Harden, request),
        ("POST", "/v1/validate") => submit(inner, Endpoint::Validate, request),
        ("POST", "/v1/whatif") => submit(inner, Endpoint::Whatif, request),
        (
            "GET" | "POST" | "PUT",
            "/healthz" | "/metrics" | "/v1/networks" | "/v1/analyze" | "/v1/harden"
            | "/v1/validate" | "/v1/whatif",
        ) => {
            let err = JobError::new(405, "method_not_allowed", "method not allowed");
            Response::json(405, err.body())
        }
        _ => {
            let err = JobError::new(404, "not_found", "unknown path");
            Response::json(404, err.body())
        }
    }
}

/// `GET /v1/networks` from the coordinator's mirror: stable across worker
/// churn, byte-compatible with the single-node listing.
fn list_networks(inner: &Inner) -> Response {
    let registry = inner.registry.lock().unwrap_or_else(PoisonError::into_inner);
    let listing = NetworkListResponse {
        networks: registry
            .iter()
            .map(|(hash, parsed)| wire::NetworkListEntry {
                network_hash: hash.clone(),
                name: parsed.name().to_string(),
            })
            .collect(),
    };
    match serde_json::to_string(&listing) {
        Ok(body) => Response::json(200, body),
        Err(e) => {
            let err = JobError::new(500, "internal_error", e.to_string());
            Response::json(500, err.body())
        }
    }
}

/// `PUT /v1/networks`: parse once at the coordinator, mirror locally, and
/// broadcast to every live worker (streamed, so giant networks clear worker
/// body limits). The response body is the same [`wire::networks_put_body`]
/// a single node serves. Broadcast failures are tolerated: the health loop
/// and `unknown_network` repair re-seed stragglers.
fn put_network(inner: &Inner, request: &Request) -> Response {
    let streamed = request.header("content-type").is_some_and(|v| v.starts_with("text/plain"));
    let text = if streamed {
        match String::from_utf8(request.body.clone()) {
            Ok(text) => text,
            Err(_) => {
                let err = JobError::new(400, "bad_network", "invalid UTF-8 in network text");
                return Response::json(400, err.body());
            }
        }
    } else {
        let job: JobRequest = match serde_json::from_str(&String::from_utf8_lossy(&request.body)) {
            Ok(job) => job,
            Err(e) => {
                let err = JobError::new(400, "bad_request", e.to_string());
                return Response::json(400, err.body());
            }
        };
        match job.network {
            Some(text) => text,
            None => {
                let err = JobError::new(400, "bad_request", "`network` text is required");
                return Response::json(400, err.body());
            }
        }
    };
    let parsed = match ParsedNetwork::from_text(&text) {
        Ok(parsed) => Arc::new(parsed),
        Err(err) => return Response::json(err.status, err.body()),
    };
    register_mirror(inner, &parsed);
    for worker in inner.fleet.up_workers() {
        let _ = seed_worker(inner, &worker, &parsed);
    }
    match wire::networks_put_body(&parsed) {
        Ok(body) => Response::json(200, body),
        Err(err) => Response::json(err.status, err.body()),
    }
}

/// Inserts a network into the coordinator mirror (idempotent).
fn register_mirror(inner: &Inner, parsed: &Arc<ParsedNetwork>) {
    let mut registry = inner.registry.lock().unwrap_or_else(PoisonError::into_inner);
    registry.entry(parsed.hash.to_hex()).or_insert_with(|| Arc::clone(parsed));
}

/// Streams one network to one worker; records a health failure on error.
fn seed_worker(inner: &Inner, worker: &WorkerStatus, parsed: &ParsedNetwork) -> bool {
    let client = Client::new(worker.addr.clone()).with_timeout(inner.config.io_timeout);
    let ok = client.put_network_streaming(&parsed.text).map(|r| r.status == 200).unwrap_or(false);
    if !ok
        && inner.fleet.record_failure(worker.slot, worker.generation, inner.config.health_failures)
    {
        inner.metrics.record_ejection();
        inner.fleet.kill(worker.slot);
    }
    ok
}

/// `POST /v1/{analyze,harden,validate,whatif}`: resolve, decide between
/// shard fan-out and whole-job routing, dispatch with failover.
fn submit(inner: &Inner, endpoint: Endpoint, request: &Request) -> Response {
    let body = String::from_utf8_lossy(&request.body);
    let job: JobRequest = match serde_json::from_str(&body) {
        Ok(job) => job,
        Err(e) => {
            let err = JobError::new(400, "bad_request", e.to_string());
            return Response::json(400, err.body());
        }
    };
    let resolved = match wire::resolve(endpoint, &job) {
        Ok(resolved) => resolved,
        Err(err) => return Response::json(err.status, err.body()),
    };
    // Network identity for routing, plus the parsed graph when available
    // locally (needed for fan-out partitioning and shard merging).
    let (route_hash, parsed) = match &resolved.network_hash {
        Some(hash) => {
            let registry = inner.registry.lock().unwrap_or_else(PoisonError::into_inner);
            (hash.clone(), registry.get(hash).cloned())
        }
        None => match ParsedNetwork::from_text(&resolved.network) {
            Ok(parsed) => {
                let parsed = Arc::new(parsed);
                (parsed.hash.to_hex(), Some(parsed))
            }
            Err(err) => return Response::json(err.status, err.body()),
        },
    };
    let up = live_workers(inner);
    if up.is_empty() {
        return fleet_exhausted(inner, "no live workers");
    }
    if let Some(parsed) = &parsed {
        if endpoint == Endpoint::Analyze
            && resolved.mode_range.is_none()
            && !resolved.exact_double
            && up.len() >= 2
        {
            let options = AnalysisOptions { mode: resolved.mode, sib_policy: resolved.sib_policy };
            let total = robust_rsn::mode_count(&parsed.net, &options) as u64;
            if total >= inner.config.shard_threshold {
                return fan_out(inner, &resolved, parsed, &job, &up, total);
            }
        }
    }
    dispatch_whole(inner, endpoint, &job, &route_hash, parsed.as_deref(), &up)
}

/// Routes one whole job by rendezvous order with bounded failover.
fn dispatch_whole(
    inner: &Inner,
    endpoint: Endpoint,
    job: &JobRequest,
    route_hash: &str,
    parsed: Option<&ParsedNetwork>,
    up: &[WorkerStatus],
) -> Response {
    let order = rendezvous_order(route_hash, up);
    let budget = inner.config.failover_budget.max(1) as usize;
    let mut tried: Vec<(usize, u64)> = Vec::new();
    let mut attempt = 0usize;
    while attempt < budget {
        // Prefer rendezvous order from the request-time snapshot, then any
        // currently-live generation not yet tried (covers respawns).
        let Some(worker) = next_target(inner, &order, &tried) else { break };
        tried.push((worker.slot, worker.generation));
        if attempt > 0 {
            inner.metrics.record_failover();
        }
        attempt += 1;
        if !chaos_admits(inner, &worker) {
            continue;
        }
        let client = Client::new(worker.addr.clone()).with_timeout(inner.config.io_timeout);
        match client.submit_with_retry(endpoint, job, &inner.config.retry) {
            Ok(outcome) => {
                let response = outcome.response;
                if response.status == 404 && is_unknown_network(&response) {
                    if let Some(parsed) = parsed {
                        // A respawned worker lost its registry: repair it
                        // and replay the job on the same worker once.
                        inner.metrics.record_rebalance();
                        if seed_worker(inner, &worker, parsed) {
                            if let Ok(replay) =
                                client.submit_with_retry(endpoint, job, &inner.config.retry)
                            {
                                if replay.response.status < 500 {
                                    return reframe(replay.response);
                                }
                            }
                        }
                        record_dispatch_failure(inner, &worker);
                        continue;
                    }
                }
                if response.status < 500 {
                    return reframe(response);
                }
                record_dispatch_failure(inner, &worker);
            }
            Err(_) => record_dispatch_failure(inner, &worker),
        }
    }
    fleet_exhausted(inner, "every worker attempt failed")
}

/// Partitions the mode table across the live workers, dispatches shards
/// concurrently (each with its own failover), and merges deterministically.
fn fan_out(
    inner: &Inner,
    resolved: &ResolvedJob,
    parsed: &Arc<ParsedNetwork>,
    job: &JobRequest,
    up: &[WorkerStatus],
    total: u64,
) -> Response {
    let ranges = partition_modes(total, up.len());
    let mut shards: Vec<Option<AnalyzeShardResponse>> = Vec::new();
    shards.resize_with(ranges.len(), || None);
    let results = Mutex::new(shards);
    std::thread::scope(|scope| {
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let results = &results;
            let job = &job;
            scope.spawn(move || {
                let shard = dispatch_shard(inner, job, lo, hi, up, i);
                results.lock().unwrap_or_else(PoisonError::into_inner)[i] = shard;
            });
        }
    });
    let shards = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut merged: Vec<AnalyzeShardResponse> = Vec::with_capacity(shards.len());
    for shard in shards {
        match shard {
            Some(shard) => merged.push(shard),
            None => return fleet_exhausted(inner, "a sweep shard exhausted its retry budget"),
        }
    }
    merged.sort_by_key(|s| s.mode_lo);
    match wire::merge_analyze_shards(resolved, parsed, &merged) {
        Ok(body) => Response::json(200, body),
        Err(err) => Response::json(err.status, err.body()),
    }
}

/// Dispatches one `[lo, hi)` shard, failing over across worker generations
/// within the budget. Returns `None` when the budget is exhausted.
fn dispatch_shard(
    inner: &Inner,
    job: &JobRequest,
    lo: u64,
    hi: u64,
    up: &[WorkerStatus],
    preferred: usize,
) -> Option<AnalyzeShardResponse> {
    let mut shard_job = job.clone();
    shard_job.mode_lo = Some(lo);
    shard_job.mode_hi = Some(hi);
    inner.metrics.record_shard_dispatched();
    let budget = inner.config.failover_budget.max(1) as usize;
    let mut tried: Vec<(usize, u64)> = Vec::new();
    // Rotate the snapshot so shard i prefers worker i, spreading load.
    let snapshot_order =
        (0..up.len()).map(|k| up[(preferred + k) % up.len()].clone()).collect::<Vec<_>>();
    for attempt in 0..budget {
        let worker = next_target(inner, &snapshot_order, &tried)?;
        tried.push((worker.slot, worker.generation));
        if attempt > 0 {
            inner.metrics.record_shard_retried();
        }
        if !chaos_admits(inner, &worker) {
            continue;
        }
        let client = Client::new(worker.addr.clone()).with_timeout(inner.config.io_timeout);
        match client.submit_with_retry(Endpoint::Analyze, &shard_job, &inner.config.retry) {
            Ok(outcome) if outcome.response.status == 200 => {
                match serde_json::from_str::<AnalyzeShardResponse>(&outcome.response.body) {
                    Ok(shard) if shard.mode_lo == lo && shard.mode_hi == hi => return Some(shard),
                    _ => record_dispatch_failure(inner, &worker),
                }
            }
            Ok(outcome)
                if outcome.response.status == 404 && is_unknown_network(&outcome.response) =>
            {
                // Re-seed the worker (it likely respawned) and let the next
                // attempt retry it as a fresh generation or another worker.
                if let Some(parsed) = lookup_job_network(inner, job) {
                    inner.metrics.record_rebalance();
                    if seed_worker(inner, &worker, &parsed) {
                        tried.pop();
                    }
                } else {
                    record_dispatch_failure(inner, &worker);
                }
            }
            Ok(outcome) if outcome.response.status < 500 => {
                // A deterministic 4xx will not improve elsewhere.
                return None;
            }
            Ok(_) | Err(_) => record_dispatch_failure(inner, &worker),
        }
    }
    None
}

/// The live workers. When none is up but the fleet respawns its own, waits
/// up to two health intervals for the health loop to bring one back, so a
/// burst of worker deaths costs latency rather than a 503.
fn live_workers(inner: &Inner) -> Vec<WorkerStatus> {
    let deadline = Instant::now() + 2 * inner.config.health_interval;
    loop {
        let up = inner.fleet.up_workers();
        if !up.is_empty() || !inner.fleet.can_respawn() || Instant::now() >= deadline {
            return up;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The next worker generation not yet `tried`: `order` first, then any
/// live generation (covers respawns). When every known generation was
/// tried, waits out one health interval for a respawn before giving up.
fn next_target(
    inner: &Inner,
    order: &[WorkerStatus],
    tried: &[(usize, u64)],
) -> Option<WorkerStatus> {
    let untried = |w: &WorkerStatus| !tried.contains(&(w.slot, w.generation));
    if let Some(worker) = order.iter().cloned().chain(inner.fleet.up_workers()).find(untried) {
        return Some(worker);
    }
    std::thread::sleep(inner.config.health_interval);
    inner.fleet.up_workers().into_iter().find(untried)
}

/// Resolves the parsed network a job refers to, from the mirror or inline
/// text.
fn lookup_job_network(inner: &Inner, job: &JobRequest) -> Option<Arc<ParsedNetwork>> {
    if let Some(hash) = &job.network_hash {
        let registry = inner.registry.lock().unwrap_or_else(PoisonError::into_inner);
        return registry.get(hash).cloned();
    }
    job.network.as_deref().and_then(|text| ParsedNetwork::from_text(text).ok().map(Arc::new))
}

/// Fires the cluster chaos sites against `worker` before a dispatch.
/// Returns `false` when the injected fault consumed this attempt.
fn chaos_admits(inner: &Inner, worker: &WorkerStatus) -> bool {
    let Some(chaos) = &inner.config.chaos else { return true };
    if chaos.fires(Site::SlowWorker) {
        inner.metrics.record_chaos_slow();
        std::thread::sleep(chaos.delay());
    }
    if chaos.fires(Site::KillWorker) && inner.fleet.can_respawn() {
        // SIGKILL the worker mid-shard: this dispatch fails over while the
        // health loop respawns the slot.
        inner.metrics.record_chaos_kill();
        inner.fleet.kill(worker.slot);
        return false;
    }
    if chaos.fires(Site::DropConn) {
        // Open a connection, send half a request, abandon it.
        inner.metrics.record_chaos_drop();
        if let Ok(mut stream) = TcpStream::connect(&worker.addr) {
            let _ = stream.write_all(b"POST /v1/analyze HTTP/1.1\r\nHost: rsnc\r\n");
        }
        return false;
    }
    true
}

/// Counts a failed dispatch against the worker's health streak, ejecting
/// it once the threshold is crossed.
fn record_dispatch_failure(inner: &Inner, worker: &WorkerStatus) {
    if inner.fleet.record_failure(worker.slot, worker.generation, inner.config.health_failures) {
        inner.metrics.record_ejection();
        inner.fleet.kill(worker.slot);
    }
}

/// Whether a 404 response carries the `unknown_network` code.
fn is_unknown_network(response: &Response) -> bool {
    rsn_serve::parse_error(response).is_some_and(|e| e.code == "unknown_network")
}

/// Re-frames a forwarded worker response for the coordinator's own writer.
/// The client-side parse keeps the worker's `content-length`, `connection`
/// and `content-type` headers in the header list; forwarding them verbatim
/// would duplicate the framing headers the encoder writes (which strict
/// keep-alive clients reject). Everything else (`x-cache`, `retry-after`)
/// passes through.
fn reframe(response: Response) -> Response {
    let content_type =
        if response.header("content-type").is_some_and(|v| v.starts_with("text/plain")) {
            "text/plain; charset=utf-8"
        } else {
            "application/json"
        };
    let headers = response
        .headers
        .iter()
        .filter(|(name, _)| {
            !matches!(name.as_str(), "content-length" | "connection" | "content-type")
        })
        .cloned()
        .collect();
    Response { content_type, headers, ..response }
}

/// The structured, retryable degradation response when no worker can take
/// a request.
fn fleet_exhausted(inner: &Inner, detail: &str) -> Response {
    inner.metrics.record_fleet_exhausted();
    let err = JobError::new(
        503,
        "fleet_exhausted",
        format!("cluster cannot serve the request: {detail}"),
    );
    Response::json(503, err.body())
        .with_header("Retry-After", &inner.config.retry_after_secs.to_string())
}

/// Splits `0..total` into `k` contiguous, near-equal ranges (first
/// `total % k` ranges get the extra mode). Ranges tile the table in order.
#[must_use]
pub fn partition_modes(total: u64, k: usize) -> Vec<(u64, u64)> {
    let k = (k.max(1) as u64).min(total.max(1));
    let base = total / k;
    let rem = total % k;
    let mut ranges = Vec::with_capacity(k as usize);
    let mut lo = 0;
    for i in 0..k {
        let hi = lo + base + u64::from(i < rem);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// Rendezvous (highest-random-weight) order of the live workers for a
/// network hash: stable while the fleet is stable, and a worker's death
/// only reassigns the networks it owned.
#[must_use]
pub fn rendezvous_order(hash: &str, up: &[WorkerStatus]) -> Vec<WorkerStatus> {
    let h = u64::from_str_radix(hash.get(..16).unwrap_or(""), 16).unwrap_or_else(|_| fnv64(hash));
    let mut scored: Vec<(u64, WorkerStatus)> =
        up.iter().map(|w| (splitmix64(h ^ fnv64(&w.addr)), w.clone())).collect();
    scored.sort_by_key(|(score, _)| std::cmp::Reverse(*score));
    scored.into_iter().map(|(_, w)| w).collect()
}

/// FNV-1a, for hashing worker addresses into the rendezvous score.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64's finalizer, mixing network and worker identities into the
/// rendezvous score.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The health loop: probe live workers (liveness + queue depth), eject
/// after consecutive failures or a wedged queue, respawn dead slots and
/// re-seed them with every mirrored network.
fn health_loop(inner: &Inner) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        for status in inner.fleet.snapshot() {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if !status.up {
                if inner.fleet.can_respawn() {
                    if let Ok(addr) = inner.fleet.respawn(status.slot) {
                        inner.metrics.record_respawn();
                        reseed(inner, status.slot, &addr);
                    }
                } else {
                    // Adopted workers cannot respawn; probe for recovery.
                    probe(inner, &status);
                }
                continue;
            }
            probe(inner, &status);
        }
        // Sleep in small slices so shutdown stays responsive.
        let mut slept = Duration::ZERO;
        while slept < inner.config.health_interval {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let slice = Duration::from_millis(25).min(inner.config.health_interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// One health probe: scrape `/metrics` for liveness and queue depth.
fn probe(inner: &Inner, status: &WorkerStatus) {
    if status.addr.is_empty() {
        return;
    }
    let client = Client::new(status.addr.clone()).with_timeout(inner.config.probe_timeout);
    match client.metrics_text() {
        Ok(text) => {
            let depth = text
                .lines()
                .find_map(|l| l.strip_prefix("rsnd_queue_depth "))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            if depth >= inner.config.wedged_queue_depth {
                // Alive but wedged: treat like a failed probe.
                if inner.fleet.record_failure(
                    status.slot,
                    status.generation,
                    inner.config.health_failures,
                ) {
                    inner.metrics.record_ejection();
                    inner.fleet.kill(status.slot);
                }
            } else {
                inner.fleet.record_success(status.slot, status.generation, depth);
            }
        }
        Err(_) => {
            if inner.fleet.record_failure(
                status.slot,
                status.generation,
                inner.config.health_failures,
            ) {
                inner.metrics.record_ejection();
                inner.fleet.kill(status.slot);
            }
        }
    }
}

/// Re-registers every mirrored network on a freshly respawned worker.
fn reseed(inner: &Inner, slot: usize, addr: &str) {
    let networks: Vec<Arc<ParsedNetwork>> = {
        let registry = inner.registry.lock().unwrap_or_else(PoisonError::into_inner);
        registry.values().cloned().collect()
    };
    let client = Client::new(addr.to_string()).with_timeout(inner.config.io_timeout);
    for parsed in networks {
        if client.put_network_streaming(&parsed.text).map(|r| r.status == 200).unwrap_or(false) {
            continue;
        }
        // The fresh worker is already failing; let the health loop decide.
        let _ = slot;
        break;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workers(addrs: &[&str]) -> Vec<WorkerStatus> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, a)| WorkerStatus {
                slot: i,
                generation: i as u64,
                addr: (*a).to_string(),
                up: true,
                queue_depth: 0,
            })
            .collect()
    }

    #[test]
    fn partition_tiles_the_table_in_order() {
        for (total, k) in [(10u64, 3usize), (7, 7), (5, 8), (1, 4), (1000, 3)] {
            let ranges = partition_modes(total, k);
            assert!(ranges.len() <= k.max(1));
            let mut next = 0;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, next, "total={total} k={k}");
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, total, "total={total} k={k}");
            let sizes: Vec<u64> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced partition {sizes:?}");
        }
    }

    #[test]
    fn rendezvous_is_stable_and_moves_minimally() {
        let up = workers(&["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"]);
        let hash = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef";
        let a = rendezvous_order(hash, &up);
        let b = rendezvous_order(hash, &up);
        assert_eq!(
            a.iter().map(|w| &w.addr).collect::<Vec<_>>(),
            b.iter().map(|w| &w.addr).collect::<Vec<_>>()
        );
        // Removing the non-preferred worker keeps the winner in place.
        let winner = a[0].addr.clone();
        let reduced: Vec<WorkerStatus> =
            up.iter().filter(|w| w.addr != a[2].addr).cloned().collect();
        let c = rendezvous_order(hash, &reduced);
        assert_eq!(c[0].addr, winner, "winner moved although it stayed alive");
    }

    #[test]
    fn different_networks_spread_over_workers() {
        let up = workers(&["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"]);
        let winners: std::collections::BTreeSet<String> = (0..64)
            .map(|i| {
                let hash = format!("{i:016x}{i:016x}{i:016x}{i:016x}");
                rendezvous_order(&hash, &up)[0].addr.clone()
            })
            .collect();
        assert!(winners.len() >= 2, "rendezvous degenerated to one worker");
    }
}
