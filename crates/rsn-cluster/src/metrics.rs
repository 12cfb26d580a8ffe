//! The coordinator's `rsnc_*` series: fleet-level counters plus per-worker
//! up/down gauges, scraped queue depths and scraped what-if sweep counts,
//! appended to the coordinator server's own `/metrics` exposition in the
//! same Prometheus text format.

use std::sync::atomic::{AtomicU64, Ordering};

use rsn_serve::Metrics;

use crate::fleet::WorkerStatus;

/// Lock-free fleet counters. Rendering folds in a fleet snapshot for the
/// per-worker gauges and the server's request and response counts.
#[derive(Debug, Default)]
pub struct ClusterMetrics {
    shards_dispatched: AtomicU64,
    shards_retried: AtomicU64,
    shards_rejected: AtomicU64,
    failovers: AtomicU64,
    rebalances: AtomicU64,
    respawns: AtomicU64,
    ejections: AtomicU64,
    fleet_exhausted: AtomicU64,
    chaos_kills: AtomicU64,
    chaos_drops: AtomicU64,
    chaos_slows: AtomicU64,
}

impl ClusterMetrics {
    /// Counts one shard dispatched to a worker.
    pub fn record_shard_dispatched(&self) {
        self.shards_dispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shard re-dispatched after a failed attempt.
    pub fn record_shard_retried(&self) {
        self.shards_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `200` shard answer the coordinator refused: its body did
    /// not decode, or it answered another mode range.
    pub fn record_shard_rejected(&self) {
        self.shards_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one whole-job failover to the next worker in rendezvous
    /// order.
    pub fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one on-demand network re-registration (a worker answered
    /// `unknown_network` after a respawn and the coordinator repaired it).
    pub fn record_rebalance(&self) {
        self.rebalances.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one worker respawn.
    pub fn record_respawn(&self) {
        self.respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one health-based ejection.
    pub fn record_ejection(&self) {
        self.ejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request answered `503` because every worker (and retry
    /// budget) was exhausted.
    pub fn record_fleet_exhausted(&self) {
        self.fleet_exhausted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one chaos-injected worker kill.
    pub fn record_chaos_kill(&self) {
        self.chaos_kills.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one chaos-injected connection drop.
    pub fn record_chaos_drop(&self) {
        self.chaos_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one chaos-injected slow-worker delay.
    pub fn record_chaos_slow(&self) {
        self.chaos_slows.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends the `rsnc_*` series to `out`, with the given fleet snapshot
    /// and the coordinator server's metrics (`rsnc_requests_total` counts
    /// every request it routed; the response counters split its answers
    /// into 200 and everything else; the write counters are the server's
    /// socket writes to clients).
    pub fn render(&self, out: &mut String, fleet: &[WorkerStatus], server: &Metrics) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let ok = server.responses_with_status(200);
        let up = fleet.iter().filter(|w| w.up).count();
        out.push_str(&format!("rsnc_workers {}\n", fleet.len()));
        out.push_str(&format!("rsnc_workers_up {up}\n"));
        for w in fleet {
            let addr = if w.addr.is_empty() { "unspawned" } else { w.addr.as_str() };
            out.push_str(&format!(
                "rsnc_worker_up{{slot=\"{}\",worker=\"{addr}\"}} {}\n",
                w.slot,
                u64::from(w.up)
            ));
            out.push_str(&format!(
                "rsnc_worker_queue_depth{{slot=\"{}\",worker=\"{addr}\"}} {}\n",
                w.slot, w.queue_depth
            ));
            // The coordinator routes every what-if whole to a worker, so the
            // sweeps happen there; this is the worker's own counter as of
            // its last health probe.
            out.push_str(&format!(
                "rsnc_worker_whatif_modes_swept_total{{slot=\"{}\",worker=\"{addr}\"}} {}\n",
                w.slot, w.whatif_modes_swept
            ));
        }
        for (name, value) in [
            ("rsnc_requests_total", server.requests_total()),
            ("rsnc_responses_ok_total", ok),
            ("rsnc_responses_error_total", server.responses_total() - ok),
            ("rsnc_response_bytes_total", server.response_bytes()),
            ("rsnc_socket_writes_total", server.socket_writes()),
            ("rsnc_shards_dispatched_total", get(&self.shards_dispatched)),
            ("rsnc_shards_retried_total", get(&self.shards_retried)),
            ("rsnc_shard_rejected_total", get(&self.shards_rejected)),
            ("rsnc_failovers_total", get(&self.failovers)),
            ("rsnc_rebalances_total", get(&self.rebalances)),
            ("rsnc_worker_respawns_total", get(&self.respawns)),
            ("rsnc_worker_ejections_total", get(&self.ejections)),
            ("rsnc_fleet_exhausted_total", get(&self.fleet_exhausted)),
            ("rsnc_chaos_worker_kills_total", get(&self.chaos_kills)),
            ("rsnc_chaos_conn_drops_total", get(&self.chaos_drops)),
            ("rsnc_chaos_slow_workers_total", get(&self.chaos_slows)),
        ] {
            out.push_str(&format!("{name} {value}\n"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_server_write_counters_render_as_rsnc_series() {
        let server = Metrics::new();
        server.record_socket_write(1500);
        server.record_socket_write(0);
        let mut text = String::new();
        ClusterMetrics::default().render(&mut text, &[], &server);
        assert!(text.lines().any(|l| l == "rsnc_response_bytes_total 1500"), "{text}");
        assert!(text.lines().any(|l| l == "rsnc_socket_writes_total 2"), "{text}");
    }

    #[test]
    fn scraped_worker_sweeps_render_as_rsnc_series() {
        let worker = WorkerStatus {
            slot: 1,
            generation: 4,
            addr: "127.0.0.1:7001".into(),
            up: true,
            queue_depth: 0,
            whatif_modes_swept: 6074,
        };
        let mut text = String::new();
        ClusterMetrics::default().render(&mut text, &[worker], &Metrics::new());
        let line =
            "rsnc_worker_whatif_modes_swept_total{slot=\"1\",worker=\"127.0.0.1:7001\"} 6074";
        assert!(text.lines().any(|l| l == line), "{text}");
    }
}
