//! Lock-free serving metrics and their plaintext exposition format.
//!
//! Everything is an [`AtomicU64`]; recording never blocks a worker. The
//! `/metrics` endpoint renders the registry in a Prometheus-style plaintext
//! format with a **stable line order**, so scrapes diff cleanly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bucket bounds (milliseconds) of the latency histograms; a final
/// implicit `+Inf` bucket catches the rest.
pub const LATENCY_BUCKETS_MS: [u64; 12] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000];

/// The queue-consuming endpoints with per-endpoint histograms.
pub const ENDPOINTS: [&str; 4] = ["analyze", "harden", "validate", "whatif"];

/// Statuses tracked individually; everything else lands in `other`.
const STATUSES: [u16; 7] = [200, 400, 404, 408, 413, 500, 503];

/// A cumulative histogram of request latencies.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS_MS.len()],
    inf: AtomicU64,
    sum_ms: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn observe(&self, latency: Duration) {
        let ms = u64::try_from(latency.as_millis()).unwrap_or(u64::MAX);
        match LATENCY_BUCKETS_MS.iter().position(|&b| ms <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.inf.fetch_add(1, Ordering::Relaxed),
        };
        self.sum_ms.fetch_add(ms, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render(&self, out: &mut String, endpoint: &str) {
        let mut cumulative = 0;
        for (i, &bound) in LATENCY_BUCKETS_MS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "rsnd_request_latency_ms_bucket{{endpoint=\"{endpoint}\",le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.inf.load(Ordering::Relaxed);
        out.push_str(&format!(
            "rsnd_request_latency_ms_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "rsnd_request_latency_ms_sum{{endpoint=\"{endpoint}\"}} {}\n",
            self.sum_ms.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "rsnd_request_latency_ms_count{{endpoint=\"{endpoint}\"}} {}\n",
            self.count.load(Ordering::Relaxed)
        ));
    }
}

/// The daemon's metrics registry; one instance shared by every thread.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [AtomicU64; ENDPOINTS.len()],
    requests_other: AtomicU64,
    responses: [AtomicU64; STATUSES.len()],
    responses_other: AtomicU64,
    queue_depth: AtomicU64,
    queue_rejected: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_panicked: AtomicU64,
    workers_respawned: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    workspace_cache_hits: AtomicU64,
    workspace_cache_misses: AtomicU64,
    whatif_modes_swept: AtomicU64,
    store_reads: AtomicU64,
    store_writes: AtomicU64,
    store_wal_replays: AtomicU64,
    store_corrupt_records: AtomicU64,
    registry_networks: AtomicU64,
    open_sockets: AtomicU64,
    keepalive_conns: AtomicU64,
    response_bytes: AtomicU64,
    socket_writes: AtomicU64,
    latency: [LatencyHistogram; ENDPOINTS.len()],
}

impl Metrics {
    /// Creates an all-zero registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn endpoint_index(endpoint: &str) -> Option<usize> {
        ENDPOINTS.iter().position(|&e| e == endpoint)
    }

    /// Counts an accepted request for `endpoint`.
    pub fn record_request(&self, endpoint: &str) {
        match Self::endpoint_index(endpoint) {
            Some(i) => self.requests[i].fetch_add(1, Ordering::Relaxed),
            None => self.requests_other.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Counts a response with the given status code.
    pub fn record_response(&self, status: u16) {
        match STATUSES.iter().position(|&s| s == status) {
            Some(i) => self.responses[i].fetch_add(1, Ordering::Relaxed),
            None => self.responses_other.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Requests counted so far, over every endpoint label.
    #[must_use]
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().chain([&self.requests_other]).map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Responses sent so far, over every status.
    #[must_use]
    pub fn responses_total(&self) -> u64 {
        self.responses
            .iter()
            .chain([&self.responses_other])
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of responses sent with the given status so far.
    #[must_use]
    pub fn responses_with_status(&self, status: u16) -> u64 {
        match STATUSES.iter().position(|&s| s == status) {
            Some(i) => self.responses[i].load(Ordering::Relaxed),
            None => self.responses_other.load(Ordering::Relaxed),
        }
    }

    /// Sets the current queue depth gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Ordering::Relaxed);
    }

    /// Counts a job refused because the queue was full.
    pub fn record_queue_rejected(&self) {
        self.queue_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job interrupted by its deadline (a 408 response).
    pub fn record_job_cancelled(&self) {
        self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs interrupted by their deadline so far.
    #[must_use]
    pub fn jobs_cancelled(&self) -> u64 {
        self.jobs_cancelled.load(Ordering::Relaxed)
    }

    /// Counts a job whose execution panicked (isolated to a 500 response).
    pub fn record_job_panicked(&self) {
        self.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs whose execution panicked so far.
    #[must_use]
    pub fn jobs_panicked(&self) -> u64 {
        self.jobs_panicked.load(Ordering::Relaxed)
    }

    /// Counts a worker thread replaced after dying unexpectedly.
    pub fn record_worker_respawned(&self) {
        self.workers_respawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker threads respawned so far.
    #[must_use]
    pub fn workers_respawned(&self) -> u64 {
        self.workers_respawned.load(Ordering::Relaxed)
    }

    /// Counts a cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache hits so far.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Counts a what-if answered from an already-warm workspace.
    pub fn record_workspace_cache_hit(&self) {
        self.workspace_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a what-if that had to parse and fully sweep its network.
    pub fn record_workspace_cache_miss(&self) {
        self.workspace_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Workspace-cache hits so far.
    #[must_use]
    pub fn workspace_cache_hits(&self) -> u64 {
        self.workspace_cache_hits.load(Ordering::Relaxed)
    }

    /// Workspace-cache misses so far.
    #[must_use]
    pub fn workspace_cache_misses(&self) -> u64 {
        self.workspace_cache_misses.load(Ordering::Relaxed)
    }

    /// Adds fault modes the kernel swept for `/v1/whatif`: workspace builds,
    /// and the edits and undos that re-swept (an undo that restores its
    /// edit's traces sweeps none).
    pub fn add_whatif_modes_swept(&self, modes: u64) {
        self.whatif_modes_swept.fetch_add(modes, Ordering::Relaxed);
    }

    /// Fault modes swept for `/v1/whatif` so far.
    #[must_use]
    pub fn whatif_modes_swept(&self) -> u64 {
        self.whatif_modes_swept.load(Ordering::Relaxed)
    }

    /// Counts a value served from the persistent store.
    pub fn record_store_read(&self) {
        self.store_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a record committed to the persistent store's WAL.
    pub fn record_store_write(&self) {
        self.store_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Store reads so far.
    #[must_use]
    pub fn store_reads(&self) -> u64 {
        self.store_reads.load(Ordering::Relaxed)
    }

    /// Store writes so far.
    #[must_use]
    pub fn store_writes(&self) -> u64 {
        self.store_writes.load(Ordering::Relaxed)
    }

    /// Adds WAL frames replayed during store recovery (recorded once at
    /// boot from the store's `RecoveryReport`).
    pub fn add_store_wal_replays(&self, n: u64) {
        self.store_wal_replays.fetch_add(n, Ordering::Relaxed);
    }

    /// WAL frames replayed at boot.
    #[must_use]
    pub fn store_wal_replays(&self) -> u64 {
        self.store_wal_replays.load(Ordering::Relaxed)
    }

    /// Adds torn/corrupt frames discarded during store recovery.
    pub fn add_store_corrupt_records(&self, n: u64) {
        self.store_corrupt_records.fetch_add(n, Ordering::Relaxed);
    }

    /// Corrupt store frames discarded at boot.
    #[must_use]
    pub fn store_corrupt_records(&self) -> u64 {
        self.store_corrupt_records.load(Ordering::Relaxed)
    }

    /// Sets the registered-network gauge.
    pub fn set_registry_networks(&self, n: u64) {
        self.registry_networks.store(n, Ordering::Relaxed);
    }

    /// Networks currently registered.
    #[must_use]
    pub fn registry_networks(&self) -> u64 {
        self.registry_networks.load(Ordering::Relaxed)
    }

    /// Sets the open-socket gauge (accepted connections currently held by
    /// the event loop, the listener excluded).
    pub fn set_open_sockets(&self, n: u64) {
        self.open_sockets.store(n, Ordering::Relaxed);
    }

    /// Open sockets currently held by the event loop.
    #[must_use]
    pub fn open_sockets(&self) -> u64 {
        self.open_sockets.load(Ordering::Relaxed)
    }

    /// Sets the keep-alive connection gauge (open sockets that have
    /// completed at least one request and stayed open for more).
    pub fn set_keepalive_conns(&self, n: u64) {
        self.keepalive_conns.store(n, Ordering::Relaxed);
    }

    /// Keep-alive connections currently held by the event loop.
    #[must_use]
    pub fn keepalive_conns(&self) -> u64 {
        self.keepalive_conns.load(Ordering::Relaxed)
    }

    /// Counts one `write`/`writev` call on a client socket, partial,
    /// refused (`WouldBlock`) or not, and the response bytes it wrote.
    pub fn record_socket_write(&self, bytes: usize) {
        self.socket_writes.fetch_add(1, Ordering::Relaxed);
        self.response_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Response bytes (heads and bodies) handed to client sockets so far.
    #[must_use]
    pub fn response_bytes(&self) -> u64 {
        self.response_bytes.load(Ordering::Relaxed)
    }

    /// `write`/`writev` calls made on client sockets so far.
    #[must_use]
    pub fn socket_writes(&self) -> u64 {
        self.socket_writes.load(Ordering::Relaxed)
    }

    /// Records the end-to-end latency of a completed `endpoint` job.
    pub fn record_latency(&self, endpoint: &str, latency: Duration) {
        if let Some(i) = Self::endpoint_index(endpoint) {
            self.latency[i].observe(latency);
        }
    }

    /// Renders the registry in the plaintext exposition format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (i, endpoint) in ENDPOINTS.iter().enumerate() {
            out.push_str(&format!(
                "rsnd_requests_total{{endpoint=\"{endpoint}\"}} {}\n",
                self.requests[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "rsnd_requests_total{{endpoint=\"other\"}} {}\n",
            self.requests_other.load(Ordering::Relaxed)
        ));
        for (i, status) in STATUSES.iter().enumerate() {
            out.push_str(&format!(
                "rsnd_responses_total{{status=\"{status}\"}} {}\n",
                self.responses[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "rsnd_responses_total{{status=\"other\"}} {}\n",
            self.responses_other.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("rsnd_queue_depth {}\n", self.queue_depth.load(Ordering::Relaxed)));
        out.push_str(&format!(
            "rsnd_queue_rejected_total {}\n",
            self.queue_rejected.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("rsnd_jobs_cancelled_total {}\n", self.jobs_cancelled()));
        out.push_str(&format!("rsnd_jobs_panicked_total {}\n", self.jobs_panicked()));
        out.push_str(&format!("rsnd_workers_respawned_total {}\n", self.workers_respawned()));
        let (hits, misses) = (self.cache_hits(), self.cache_misses());
        out.push_str(&format!("rsnd_cache_hits_total {hits}\n"));
        out.push_str(&format!("rsnd_cache_misses_total {misses}\n"));
        let rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
        out.push_str(&format!("rsnd_cache_hit_rate {rate:.4}\n"));
        out.push_str(&format!("rsnd_workspace_cache_hits_total {}\n", self.workspace_cache_hits()));
        out.push_str(&format!(
            "rsnd_workspace_cache_misses_total {}\n",
            self.workspace_cache_misses()
        ));
        out.push_str(&format!("rsnd_whatif_modes_swept_total {}\n", self.whatif_modes_swept()));
        out.push_str(&format!("rsnd_store_reads_total {}\n", self.store_reads()));
        out.push_str(&format!("rsnd_store_writes_total {}\n", self.store_writes()));
        out.push_str(&format!("rsnd_store_wal_replays_total {}\n", self.store_wal_replays()));
        out.push_str(&format!(
            "rsnd_store_corrupt_records_total {}\n",
            self.store_corrupt_records()
        ));
        out.push_str(&format!("rsnd_registry_networks {}\n", self.registry_networks()));
        out.push_str(&format!("rsnd_open_sockets {}\n", self.open_sockets()));
        out.push_str(&format!("rsnd_keepalive_conns {}\n", self.keepalive_conns()));
        out.push_str(&format!("rsnd_response_bytes_total {}\n", self.response_bytes()));
        out.push_str(&format!("rsnd_socket_writes_total {}\n", self.socket_writes()));
        for (i, endpoint) in ENDPOINTS.iter().enumerate() {
            self.latency[i].render(&mut out, endpoint);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_show_up_in_the_rendering() {
        let m = Metrics::new();
        m.record_request("analyze");
        m.record_request("analyze");
        m.record_request("harden");
        m.record_request("metrics");
        m.record_response(200);
        m.record_response(503);
        m.record_response(418);
        m.set_queue_depth(3);
        m.record_queue_rejected();
        m.record_cache_hit();
        m.record_cache_miss();
        m.record_request("whatif");
        m.record_request("validate");
        m.record_workspace_cache_hit();
        m.record_workspace_cache_hit();
        m.record_workspace_cache_miss();
        m.add_whatif_modes_swept(3037);
        let text = m.render();
        assert!(text.contains("rsnd_requests_total{endpoint=\"analyze\"} 2"), "{text}");
        assert!(text.contains("rsnd_requests_total{endpoint=\"harden\"} 1"), "{text}");
        assert!(text.contains("rsnd_requests_total{endpoint=\"whatif\"} 1"), "{text}");
        assert!(text.contains("rsnd_requests_total{endpoint=\"validate\"} 1"), "{text}");
        assert!(text.contains("rsnd_workspace_cache_hits_total 2"), "{text}");
        assert!(text.contains("rsnd_workspace_cache_misses_total 1"), "{text}");
        assert!(text.contains("rsnd_whatif_modes_swept_total 3037"), "{text}");
        assert!(text.contains("rsnd_requests_total{endpoint=\"other\"} 1"), "{text}");
        assert!(text.contains("rsnd_responses_total{status=\"200\"} 1"), "{text}");
        assert!(text.contains("rsnd_responses_total{status=\"503\"} 1"), "{text}");
        assert!(text.contains("rsnd_responses_total{status=\"other\"} 1"), "{text}");
        assert!(text.contains("rsnd_queue_depth 3"), "{text}");
        assert!(text.contains("rsnd_queue_rejected_total 1"), "{text}");
        assert!(text.contains("rsnd_cache_hit_rate 0.5000"), "{text}");
        assert_eq!(m.requests_total(), 6, "every label, `other` included");
        assert_eq!(m.responses_total(), 3, "every status, `other` included");
    }

    #[test]
    fn resilience_counters_show_up_in_the_rendering() {
        let m = Metrics::new();
        m.record_job_cancelled();
        m.record_job_cancelled();
        m.record_job_panicked();
        m.record_worker_respawned();
        assert_eq!(m.jobs_cancelled(), 2);
        assert_eq!(m.jobs_panicked(), 1);
        assert_eq!(m.workers_respawned(), 1);
        let text = m.render();
        assert!(text.contains("rsnd_jobs_cancelled_total 2"), "{text}");
        assert!(text.contains("rsnd_jobs_panicked_total 1"), "{text}");
        assert!(text.contains("rsnd_workers_respawned_total 1"), "{text}");
    }

    #[test]
    fn store_and_event_loop_metrics_show_up_in_the_rendering() {
        let m = Metrics::new();
        m.record_store_read();
        m.record_store_read();
        m.record_store_write();
        m.add_store_wal_replays(5);
        m.add_store_corrupt_records(1);
        m.set_registry_networks(3);
        m.set_open_sockets(10_000);
        m.set_keepalive_conns(9_998);
        m.record_socket_write(4096);
        m.record_socket_write(0);
        let text = m.render();
        assert!(text.contains("rsnd_store_reads_total 2"), "{text}");
        assert!(text.contains("rsnd_store_writes_total 1"), "{text}");
        assert!(text.contains("rsnd_store_wal_replays_total 5"), "{text}");
        assert!(text.contains("rsnd_store_corrupt_records_total 1"), "{text}");
        assert!(text.contains("rsnd_registry_networks 3"), "{text}");
        assert!(text.contains("rsnd_open_sockets 10000"), "{text}");
        assert!(text.contains("rsnd_keepalive_conns 9998"), "{text}");
        assert!(text.contains("rsnd_response_bytes_total 4096"), "{text}");
        assert!(text.contains("rsnd_socket_writes_total 2"), "{text}");
        assert_eq!(m.store_reads(), 2);
        assert_eq!(m.registry_networks(), 3);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.record_latency("analyze", Duration::from_millis(1));
        m.record_latency("analyze", Duration::from_millis(30));
        m.record_latency("analyze", Duration::from_secs(60));
        let text = m.render();
        assert!(
            text.contains("rsnd_request_latency_ms_bucket{endpoint=\"analyze\",le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rsnd_request_latency_ms_bucket{endpoint=\"analyze\",le=\"50\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("rsnd_request_latency_ms_bucket{endpoint=\"analyze\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("rsnd_request_latency_ms_count{endpoint=\"analyze\"} 3"), "{text}");
    }

    #[test]
    fn rendering_order_is_stable() {
        let m = Metrics::new();
        assert_eq!(m.render(), m.render());
        let text = m.render();
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("rsnd_requests_total{endpoint=\"analyze\"}"));
    }
}
