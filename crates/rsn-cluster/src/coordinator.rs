//! The `rsnc` coordinator: an `rsnd` [`Server`] whose worker pool forwards
//! every job to a [`Fleet`] of `rsnd` workers.
//!
//! ## One front end
//!
//! The coordinator has no HTTP code of its own. [`Coordinator::bind`] binds
//! an ordinary `rsnd` [`Server`], and [`Coordinator::run`] serves it with
//! the remote [`Backend`] defined here in place of the local one. The
//! coordinator therefore answers HTTP exactly like a single `rsnd`: poll(2)
//! accept, keep-alive and pipelining, the 400/408/413 framing errors, queue
//! backpressure (`503` + `Retry-After`), panic isolation and the SIGTERM
//! drain. The server's [`Registry`] is the coordinator's one network mirror:
//! it answers `GET /v1/networks`, supplies the parsed graph for sweep
//! partitioning and shard merges, and re-seeds respawned workers. The
//! server's metrics registry serves `/metrics`; the backend appends the
//! `rsnc_*` series to it, with `rsnc_requests_total` and the response
//! counters read from the server's own counts.
//!
//! The event loop only frames, decodes and answers; every byte of worker
//! I/O — forwarded jobs, shards, the `PUT /v1/networks` broadcast — runs on
//! a pool thread (or a fan-out thread it spawns), and health probes run on
//! their own thread.
//!
//! ## Pool and queue sizes
//!
//! Both follow from the fleet; neither is a knob. A pool thread spends its
//! job waiting on workers, so the pool has one thread per worker slot for
//! each thread a worker runs by default ([`Parallelism::default`]; assumed,
//! not seen, for adopted workers). The queue holds, per slot, one default
//! worker queue for each attempt of the [`RetryPolicy`], where the jobs
//! that met full workers used to wait out retries. Past both, a job is
//! answered `503 overloaded`. DESIGN.md §2.15 gives the measurement.
//!
//! A worker answer travels back as its status and body plus its `X-Cache`
//! and `Retry-After` headers; the server frames it like any local answer,
//! and the body the client parsed off the worker's socket is the one the
//! server writes, shared rather than copied.
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
//! Shard answers are read by [`rsn_serve::wire::decode_analyze_shard`], a
//! one-pass decoder of exactly the grammar the worker's serde writer
//! prints; there is no second decode path. A `200` answer it refuses, or
//! one for another range, is counted (`rsnc_shard_rejected_total`) and
//! struck against the worker, and the shard fails over — so a worker of
//! another wire version is routed around, never misread.
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
//! The coordinator's front end runs with no local chaos schedule: its
//! server fires none of the single-node sites. The backend consumes the
//! cluster-level sites of [`ClusterConfig::chaos`] right before each
//! dispatch, on the pool or fan-out thread making it: `slow-worker` sleeps
//! before forwarding, `kill-worker` SIGKILLs the target worker (the
//! dispatch then fails over while the health loop respawns), and
//! `drop-conn` opens a connection to the worker and abandons it
//! mid-request.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use robust_rsn::Parallelism;
use rsn_serve::cache::fnv1a;
use rsn_serve::chaos::{Chaos, Site};
use rsn_serve::http::{Response, SharedBody};
use rsn_serve::wire::{self, AnalyzeShardResponse, Endpoint, JobError, ParsedNetwork, ResolvedJob};
use rsn_serve::{
    Backend, Client, Exposition, Job, JobRequest, Metrics, Registry, RetryPolicy, Server,
    ServerConfig, ShutdownHandle,
};

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

/// An operator's handle into a running coordinator: inspect the fleet,
/// read the merged metrics, and SIGKILL workers — the hook chaos drills
/// and the cluster integration gate use to murder workers mid-campaign.
#[derive(Clone, Debug)]
pub struct ClusterControl {
    cluster: Arc<Cluster>,
    exposition: Exposition,
}

impl ClusterControl {
    /// A point-in-time view of every worker slot.
    #[must_use]
    pub fn fleet(&self) -> Vec<WorkerStatus> {
        self.cluster.fleet.snapshot()
    }

    /// SIGKILLs the worker in `slot` (the health loop will respawn it when
    /// the fleet spawns its own workers).
    pub fn kill_worker(&self, slot: usize) {
        self.cluster.fleet.kill(slot);
    }

    /// The coordinator's `/metrics` exposition, as its route serves it.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        self.exposition.render(&*self.cluster)
    }
}

/// The remote backend: forwards every job to the fleet.
#[derive(Debug)]
struct Cluster {
    config: ClusterConfig,
    fleet: Fleet,
    /// The server's registry: the coordinator's network mirror.
    registry: Arc<Registry>,
    /// The server's metrics, read for the `rsnc_*` request and response
    /// counts.
    server_metrics: Arc<Metrics>,
    metrics: ClusterMetrics,
}

/// The cluster coordinator: an `rsnd` server plus the fleet it forwards to.
#[derive(Debug)]
pub struct Coordinator {
    server: Server,
    cluster: Arc<Cluster>,
}

impl Coordinator {
    /// Brings up the fleet (spawning workers or adopting addresses per the
    /// config) and binds the coordinator's server.
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
        // Pool and queue sizes follow the fleet (see the module docs).
        let worker_defaults = ServerConfig::default();
        let attempts = config.retry.max_attempts.max(1) as usize;
        let server = Server::bind(ServerConfig {
            addr: config.addr.clone(),
            workers: Parallelism::new(fleet.len() * worker_defaults.workers.threads()),
            queue_capacity: fleet.len() * worker_defaults.queue_capacity * attempts,
            max_body_bytes: config.max_body_bytes,
            retry_after_secs: config.retry_after_secs,
            ..ServerConfig::default()
        })?;
        let cluster = Arc::new(Cluster {
            config,
            fleet,
            registry: server.registry(),
            server_metrics: server.metrics(),
            metrics: ClusterMetrics::default(),
        });
        Ok(Self { server, cluster })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// A handle that shuts the coordinator down from another thread: the
    /// server drains every accepted job, then the fleet is killed.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.server.shutdown_handle()
    }

    /// An operator handle for fleet inspection and fault injection; grab it
    /// before [`Coordinator::run`] consumes the coordinator.
    #[must_use]
    pub fn control(&self) -> ClusterControl {
        ClusterControl { cluster: Arc::clone(&self.cluster), exposition: self.server.exposition() }
    }

    /// Serves until shutdown while the health loop keeps the fleet alive.
    /// On shutdown the server drains every accepted job; then the health
    /// loop stops and spawned workers are killed.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection errors are handled.
    pub fn run(self) -> io::Result<()> {
        let Self { server, cluster } = self;
        let stop = AtomicBool::new(false);
        let served = std::thread::scope(|scope| {
            scope.spawn(|| cluster.health_loop(&stop));
            let served = server.run_with(Arc::clone(&cluster) as Arc<dyn Backend>);
            stop.store(true, Ordering::SeqCst);
            served
        });
        cluster.fleet.shutdown();
        served
    }
}

impl Backend for Cluster {
    fn run(&self, job: &Job) -> Response<SharedBody> {
        match job {
            Job::Upload(parsed) => self.put_network(Ok(Arc::clone(parsed))),
            Job::Submit(job) if job.resolved.endpoint == Endpoint::Networks => {
                self.put_network(self.registry.register(&job.resolved.network))
            }
            Job::Submit(job) => self.submit(&job.request, &job.resolved),
        }
    }

    fn render_metrics(&self, out: &mut String) {
        self.metrics.render(out, &self.fleet.snapshot(), &self.server_metrics);
    }
}

impl Cluster {
    /// A client for one worker, with the forwarding timeout.
    fn client(&self, addr: &str) -> Client {
        Client::new(addr).with_timeout(self.config.io_timeout)
    }

    /// `PUT /v1/networks` once the network is in the registry: broadcast it
    /// to every live worker (streamed, so giant networks clear worker body
    /// limits) and answer the same receipt a single node serves. Broadcast
    /// failures are tolerated: the health loop and `unknown_network` repair
    /// re-seed stragglers.
    fn put_network(
        &self,
        registered: Result<Arc<ParsedNetwork>, JobError>,
    ) -> Response<SharedBody> {
        let parsed = match registered {
            Ok(parsed) => parsed,
            Err(err) => return err.into(),
        };
        for worker in self.fleet.up_workers() {
            self.seed_worker(&worker, &parsed);
        }
        wire::respond(wire::networks_put_body(&parsed))
    }

    /// Streams one network to one worker; a failure is a strike against it.
    fn seed_worker(&self, worker: &WorkerStatus, parsed: &ParsedNetwork) -> bool {
        let client = self.client(&worker.addr);
        let ok = client.put_network_streaming(&parsed.text).is_ok_and(|r| r.status == 200);
        if !ok {
            self.strike(worker);
        }
        ok
    }

    /// `POST /v1/{analyze,harden,validate,whatif}`: decide between shard
    /// fan-out and whole-job routing, dispatch with failover.
    fn submit(&self, request: &JobRequest, resolved: &ResolvedJob) -> Response<SharedBody> {
        // Network identity for routing, plus the parsed graph when the
        // registry has it (needed for fan-out partitioning, shard merging
        // and `unknown_network` repair).
        let (route_hash, parsed) = match &resolved.network_hash {
            Some(hash) => (hash.clone(), self.registry.get(hash)),
            None => match self.registry.resolve_inline(&resolved.network) {
                Ok(parsed) => (parsed.hash.to_hex(), Some(parsed)),
                Err(err) => return err.into(),
            },
        };
        let up = self.live_workers();
        if up.is_empty() {
            return self.fleet_exhausted("no live workers");
        }
        if let Some(parsed) = &parsed {
            if resolved.endpoint == Endpoint::Analyze
                && resolved.mode_range.is_none()
                && !resolved.exact_double
                && up.len() >= 2
            {
                // The network's plan sizes the fan-out here and folds the
                // shards in the merge; it is built once per network.
                let plan = parsed.plan_with(resolved.sib_policy, || {
                    self.server_metrics.record_analysis_plan_built();
                });
                let total = plan.mode_count() as u64;
                if total >= self.config.shard_threshold {
                    return self.fan_out(resolved, parsed, request, &up, total);
                }
            }
        }
        self.dispatch_whole(resolved.endpoint, request, &route_hash, parsed.as_deref(), &up)
    }

    /// Routes one whole job by rendezvous order with bounded failover.
    fn dispatch_whole(
        &self,
        endpoint: Endpoint,
        job: &JobRequest,
        route_hash: &str,
        parsed: Option<&ParsedNetwork>,
        up: &[WorkerStatus],
    ) -> Response<SharedBody> {
        let order = rendezvous_order(route_hash, up);
        let budget = self.config.failover_budget.max(1) as usize;
        let mut tried: Vec<(usize, u64)> = Vec::new();
        let mut attempt = 0usize;
        while attempt < budget {
            // Prefer rendezvous order from the request-time snapshot, then
            // any currently-live generation not yet tried (covers respawns).
            let Some(worker) = self.next_target(&order, &tried) else { break };
            tried.push((worker.slot, worker.generation));
            if attempt > 0 {
                self.metrics.record_failover();
            }
            attempt += 1;
            if !self.chaos_admits(&worker) {
                continue;
            }
            let client = self.client(&worker.addr);
            match client.submit_with_retry(endpoint, job, &self.config.retry) {
                Ok(outcome) => {
                    let response = outcome.response;
                    if response.status == 404 && is_unknown_network(&response) {
                        if let Some(parsed) = parsed {
                            // A respawned worker lost its registry: repair
                            // it and replay the job on the same worker once.
                            self.metrics.record_rebalance();
                            if self.seed_worker(&worker, parsed) {
                                if let Ok(replay) =
                                    client.submit_with_retry(endpoint, job, &self.config.retry)
                                {
                                    if replay.response.status < 500 {
                                        return forward(replay.response);
                                    }
                                }
                            }
                            self.strike(&worker);
                            continue;
                        }
                    }
                    if response.status < 500 {
                        return forward(response);
                    }
                    self.strike(&worker);
                }
                Err(_) => self.strike(&worker),
            }
        }
        self.fleet_exhausted("every worker attempt failed")
    }

    /// Partitions the mode table across the live workers, dispatches shards
    /// concurrently (each with its own failover), and merges
    /// deterministically.
    fn fan_out(
        &self,
        resolved: &ResolvedJob,
        parsed: &ParsedNetwork,
        job: &JobRequest,
        up: &[WorkerStatus],
        total: u64,
    ) -> Response<SharedBody> {
        let ranges = partition_modes(total, up.len());
        let mut shards: Vec<Option<AnalyzeShardResponse>> = Vec::new();
        shards.resize_with(ranges.len(), || None);
        let results = Mutex::new(shards);
        std::thread::scope(|scope| {
            for (i, &(lo, hi)) in ranges.iter().enumerate() {
                let results = &results;
                scope.spawn(move || {
                    let shard = self.dispatch_shard(job, parsed, lo, hi, up, i);
                    results.lock().unwrap_or_else(PoisonError::into_inner)[i] = shard;
                });
            }
        });
        let shards = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut merged: Vec<AnalyzeShardResponse> = Vec::with_capacity(shards.len());
        for shard in shards {
            match shard {
                Some(shard) => merged.push(shard),
                None => return self.fleet_exhausted("a sweep shard exhausted its retry budget"),
            }
        }
        merged.sort_by_key(|s| s.mode_lo);
        wire::respond(wire::merge_analyze_shards(resolved, parsed, &merged))
    }

    /// Dispatches one `[lo, hi)` shard, failing over across worker
    /// generations within the budget. Returns `None` when the budget is
    /// exhausted.
    fn dispatch_shard(
        &self,
        job: &JobRequest,
        parsed: &ParsedNetwork,
        lo: u64,
        hi: u64,
        up: &[WorkerStatus],
        preferred: usize,
    ) -> Option<AnalyzeShardResponse> {
        let shard_job = JobRequest { mode_lo: Some(lo), mode_hi: Some(hi), ..job.clone() };
        self.metrics.record_shard_dispatched();
        let budget = self.config.failover_budget.max(1) as usize;
        let mut tried: Vec<(usize, u64)> = Vec::new();
        // Rotate the snapshot so shard i prefers worker i, spreading load.
        let snapshot_order =
            (0..up.len()).map(|k| up[(preferred + k) % up.len()].clone()).collect::<Vec<_>>();
        for attempt in 0..budget {
            let worker = self.next_target(&snapshot_order, &tried)?;
            tried.push((worker.slot, worker.generation));
            if attempt > 0 {
                self.metrics.record_shard_retried();
            }
            if !self.chaos_admits(&worker) {
                continue;
            }
            let client = self.client(&worker.addr);
            match client.submit_with_retry(Endpoint::Analyze, &shard_job, &self.config.retry) {
                Ok(outcome) if outcome.response.status == 200 => {
                    match wire::decode_analyze_shard(&outcome.response.body) {
                        Ok(shard) if shard.mode_lo == lo && shard.mode_hi == hi => {
                            return Some(shard)
                        }
                        // A body off the shard grammar (a worker of another
                        // wire version, say) or for another range.
                        _ => {
                            self.metrics.record_shard_rejected();
                            self.strike(&worker);
                        }
                    }
                }
                Ok(outcome)
                    if outcome.response.status == 404 && is_unknown_network(&outcome.response) =>
                {
                    // Re-seed the worker (it likely respawned) and let the
                    // next attempt retry it as a fresh generation or
                    // another worker.
                    self.metrics.record_rebalance();
                    if self.seed_worker(&worker, parsed) {
                        tried.pop();
                    }
                }
                Ok(outcome) if outcome.response.status < 500 => {
                    // A deterministic 4xx will not improve elsewhere.
                    return None;
                }
                Ok(_) | Err(_) => self.strike(&worker),
            }
        }
        None
    }

    /// The live workers. When none is up but the fleet respawns its own,
    /// waits up to two health intervals for the health loop to bring one
    /// back, so a burst of worker deaths costs latency rather than a 503.
    fn live_workers(&self) -> Vec<WorkerStatus> {
        let deadline = Instant::now() + 2 * self.config.health_interval;
        loop {
            let up = self.fleet.up_workers();
            if !up.is_empty() || !self.fleet.can_respawn() || Instant::now() >= deadline {
                return up;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The next worker generation not yet `tried`: `order` first, then any
    /// live generation (covers respawns). When every known generation was
    /// tried, waits out one health interval for a respawn before giving up.
    fn next_target(&self, order: &[WorkerStatus], tried: &[(usize, u64)]) -> Option<WorkerStatus> {
        let untried = |w: &WorkerStatus| !tried.contains(&(w.slot, w.generation));
        if let Some(worker) = order.iter().cloned().chain(self.fleet.up_workers()).find(untried) {
            return Some(worker);
        }
        std::thread::sleep(self.config.health_interval);
        self.fleet.up_workers().into_iter().find(untried)
    }

    /// Fires the cluster chaos sites against `worker` before a dispatch.
    /// Returns `false` when the injected fault consumed this attempt.
    fn chaos_admits(&self, worker: &WorkerStatus) -> bool {
        let Some(chaos) = &self.config.chaos else { return true };
        if chaos.fires(Site::SlowWorker) {
            self.metrics.record_chaos_slow();
            std::thread::sleep(chaos.delay());
        }
        if chaos.fires(Site::KillWorker) && self.fleet.can_respawn() {
            // SIGKILL the worker mid-shard: this dispatch fails over while
            // the health loop respawns the slot.
            self.metrics.record_chaos_kill();
            self.fleet.kill(worker.slot);
            return false;
        }
        if chaos.fires(Site::DropConn) {
            // Open a connection, send half a request, abandon it.
            self.metrics.record_chaos_drop();
            if let Ok(mut stream) = TcpStream::connect(&worker.addr) {
                let _ = stream.write_all(b"POST /v1/analyze HTTP/1.1\r\nHost: rsnc\r\n");
            }
            return false;
        }
        true
    }

    /// Counts one probe or dispatch failure against `worker`'s health
    /// streak, and ejects (SIGKILLs) it once the streak reaches
    /// [`ClusterConfig::health_failures`].
    fn strike(&self, worker: &WorkerStatus) {
        if self.fleet.record_failure(worker.slot, worker.generation, self.config.health_failures) {
            self.metrics.record_ejection();
            self.fleet.kill(worker.slot);
        }
    }

    /// The structured, retryable degradation response when no worker can
    /// take a request.
    fn fleet_exhausted(&self, detail: &str) -> Response<SharedBody> {
        self.metrics.record_fleet_exhausted();
        let err = JobError::new(
            503,
            "fleet_exhausted",
            format!("cluster cannot serve the request: {detail}"),
        );
        Response::from(err).with_header("Retry-After", &self.config.retry_after_secs.to_string())
    }

    /// The health loop, until `stop`: probe live workers (liveness + queue
    /// depth), eject after consecutive failures or a wedged queue, respawn
    /// dead slots and re-seed them with every registered network.
    fn health_loop(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::SeqCst) {
            for status in self.fleet.snapshot() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                if status.up || !self.fleet.can_respawn() {
                    // Adopted workers cannot respawn; probing a dead one
                    // notices its recovery.
                    self.probe(&status);
                } else if let Ok(addr) = self.fleet.respawn(status.slot) {
                    self.metrics.record_respawn();
                    self.reseed(&addr);
                }
            }
            // Sleep in small slices so shutdown stays responsive.
            let mut slept = Duration::ZERO;
            while slept < self.config.health_interval {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let slice = Duration::from_millis(25).min(self.config.health_interval - slept);
                std::thread::sleep(slice);
                slept += slice;
            }
        }
    }

    /// One health probe: scrape `/metrics` for liveness, queue depth and
    /// what-if modes swept. An unreachable worker, or one whose queue is at
    /// the wedged depth, takes a strike.
    fn probe(&self, status: &WorkerStatus) {
        if status.addr.is_empty() {
            return;
        }
        let client = Client::new(status.addr.clone()).with_timeout(self.config.probe_timeout);
        let scraped = client.metrics_text().ok().map(|text| {
            let value = |name: &str| {
                text.lines()
                    .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0)
            };
            (value("rsnd_queue_depth"), value("rsnd_whatif_modes_swept_total"))
        });
        match scraped {
            Some((depth, swept)) if depth < self.config.wedged_queue_depth => {
                self.fleet.record_success(status.slot, status.generation, depth, swept);
            }
            _ => self.strike(status),
        }
    }

    /// Re-registers every registered network on a freshly respawned worker,
    /// stopping at the first failure (the health loop then decides).
    fn reseed(&self, addr: &str) {
        let client = self.client(addr);
        for entry in self.registry.list() {
            let Some(parsed) = self.registry.get(&entry.network_hash) else { continue };
            if !client.put_network_streaming(&parsed.text).is_ok_and(|r| r.status == 200) {
                break;
            }
        }
    }
}

/// Whether a 404 response carries the `unknown_network` code.
fn is_unknown_network(response: &Response) -> bool {
    rsn_serve::parse_error(response).is_some_and(|e| e.code == "unknown_network")
}

/// The coordinator's answer from a worker's: the status and body, plus the
/// `X-Cache` and `Retry-After` headers. The worker's own framing headers
/// stay behind; the server frames the answer like a local one. The body
/// moves into the shared answer as is.
fn forward(worker: Response) -> Response<SharedBody> {
    let mut response = Response::json(worker.status, Arc::new(worker.body));
    for (name, key) in [("X-Cache", "x-cache"), ("Retry-After", "retry-after")] {
        if let Some((_, value)) = worker.headers.iter().find(|(k, _)| k == key) {
            response = response.with_header(name, value);
        }
    }
    response
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
    let h = u64::from_str_radix(hash.get(..16).unwrap_or(""), 16)
        .unwrap_or_else(|_| fnv1a(hash.as_bytes()));
    let mut scored: Vec<(u64, WorkerStatus)> =
        up.iter().map(|w| (splitmix64(h ^ fnv1a(w.addr.as_bytes())), w.clone())).collect();
    scored.sort_by_key(|(score, _)| std::cmp::Reverse(*score));
    scored.into_iter().map(|(_, w)| w).collect()
}

/// SplitMix64's finalizer, mixing network and worker identities into the
/// rendezvous score.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
                whatif_modes_swept: 0,
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
