//! A replayable load generator for `rsnd`.
//!
//! Fleet capacity planning needs traffic that is *reproducible*: the same
//! seed must replay the same job sequence so a latency regression can be
//! bisected instead of shrugged off as noise. The generator therefore
//! derives everything from pure functions of `(seed, request index)`:
//!
//! * the job **kind** ([`Mix::kind_at`]) — a weighted draw over
//!   analyze/whatif/validate/harden from the SplitMix64 stream;
//! * the **what-if target** — a round-robin walk of segment names collected
//!   from the network text;
//! * the **schedule** — open loop (`rate` = requests/second, send times
//!   fixed on a grid, latency measured from the *scheduled* send time so
//!   coordinated omission cannot hide a stall) or closed loop (`rate`
//!   = `None`, each connection fires its next request as soon as the
//!   previous response lands).
//!
//! Requests are striped over `connections` persistent keep-alive
//! connections (request `i` rides connection `i % connections`), speaking
//! the daemon's own framed HTTP subset via
//! [`http::parse_response_bytes`]. The network is registered once with
//! `PUT /v1/networks` and every job references its content hash, so the
//! measured path is the serving path, not network-text upload bandwidth.
//!
//! The [`LoadReport`] carries throughput plus p50/p90/p99/p999/max latency
//! and attainment against a millisecond SLO; `rsn_tool loadgen --json`
//! prints it verbatim and `scripts/bench_snapshot.sh` snapshots it as
//! `BENCH_serve.json`. Composing with `--chaos` (see [`crate::chaos`])
//! turns the same harness into a latency-under-faults probe.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::http;
use crate::wire::{Endpoint, JobRequest};

/// SplitMix64's finalizer: the deterministic stream behind every draw.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Relative weights of the four job kinds in the replayed traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Weight of `POST /v1/analyze` jobs.
    pub analyze: u32,
    /// Weight of `POST /v1/whatif` jobs (incremental, workspace-cached).
    pub whatif: u32,
    /// Weight of `POST /v1/validate` jobs (full simulation campaigns).
    pub validate: u32,
    /// Weight of `POST /v1/harden` jobs (greedy solver).
    pub harden: u32,
}

impl Default for Mix {
    /// The serving fleet's observed shape: analyze-heavy with a what-if
    /// burst tail and a trickle of expensive validate/harden jobs.
    fn default() -> Self {
        Self { analyze: 70, whatif: 20, validate: 5, harden: 5 }
    }
}

impl Mix {
    /// Parses a mix spec like `analyze=70,whatif=20,validate=5,harden=5`.
    /// Omitted kinds get weight 0; at least one weight must be positive.
    ///
    /// # Errors
    ///
    /// A message naming the offending entry.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut mix = Self { analyze: 0, whatif: 0, validate: 0, harden: 0 };
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("mix entry {part:?} is not kind=weight"))?;
            let value: u32 = value
                .parse()
                .map_err(|_| format!("mix weight {value:?} for {key:?} is not a number"))?;
            match key {
                "analyze" => mix.analyze = value,
                "whatif" => mix.whatif = value,
                "validate" => mix.validate = value,
                "harden" => mix.harden = value,
                other => return Err(format!("unknown mix kind {other:?}")),
            }
        }
        if mix.total() == 0 {
            return Err("mix has no positive weight".into());
        }
        Ok(mix)
    }

    fn total(self) -> u64 {
        u64::from(self.analyze)
            + u64::from(self.whatif)
            + u64::from(self.validate)
            + u64::from(self.harden)
    }

    /// The kind of request `i` under `seed` — a pure function, so a replay
    /// with the same seed issues the same sequence regardless of thread
    /// interleaving or which requests time out.
    #[must_use]
    pub fn kind_at(self, seed: u64, i: u64) -> Endpoint {
        let draw = splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9)) % self.total();
        let mut upto = u64::from(self.analyze);
        if draw < upto {
            return Endpoint::Analyze;
        }
        upto += u64::from(self.whatif);
        if draw < upto {
            return Endpoint::Whatif;
        }
        upto += u64::from(self.validate);
        if draw < upto {
            return Endpoint::Validate;
        }
        Endpoint::Harden
    }
}

/// Configuration of one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Daemon address, e.g. `127.0.0.1:7687`.
    pub addr: String,
    /// The network under load, in the textual `.rsn` format. Registered
    /// once; jobs reference its content hash.
    pub network: String,
    /// Total number of requests to replay.
    pub requests: usize,
    /// Persistent keep-alive connections to stripe requests over.
    pub connections: usize,
    /// Open-loop arrival rate in requests/second across all connections;
    /// `None` runs closed-loop (back-to-back per connection).
    pub rate: Option<f64>,
    /// Relative job-kind weights.
    pub mix: Mix,
    /// Seed of the replayable schedule (job kinds, what-if targets).
    pub seed: u64,
    /// Latency SLO in milliseconds; the report carries attainment against
    /// it and [`LoadReport::slo_met`] compares p99 to it.
    pub slo_ms: u64,
    /// Per-request IO timeout.
    pub timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            network: String::new(),
            requests: 200,
            connections: 4,
            rate: None,
            mix: Mix::default(),
            seed: 2022,
            slo_ms: 500,
            timeout: Duration::from_secs(60),
        }
    }
}

/// Latency percentiles in milliseconds (fractional: microsecond clock).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile.
    pub p999_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
}

impl LatencySummary {
    /// Summarizes a latency sample given in microseconds.
    #[must_use]
    pub fn from_micros(mut micros: Vec<u64>) -> Self {
        if micros.is_empty() {
            return Self::default();
        }
        micros.sort_unstable();
        let at = |q: f64| {
            let idx = ((micros.len() - 1) as f64 * q).round() as usize;
            micros[idx] as f64 / 1000.0
        };
        let sum: u128 = micros.iter().map(|&v| u128::from(v)).sum();
        Self {
            p50_ms: at(0.50),
            p90_ms: at(0.90),
            p99_ms: at(0.99),
            p999_ms: at(0.999),
            max_ms: *micros.last().expect("non-empty") as f64 / 1000.0,
            mean_ms: (sum / micros.len() as u128) as f64 / 1000.0,
        }
    }
}

/// Requests issued per endpoint.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct EndpointCounts {
    /// `POST /v1/analyze`.
    pub analyze: usize,
    /// `POST /v1/whatif`.
    pub whatif: usize,
    /// `POST /v1/validate`.
    pub validate: usize,
    /// `POST /v1/harden`.
    pub harden: usize,
}

/// The result of one load-generation run — what `rsn_tool loadgen --json`
/// prints and `BENCH_serve.json` snapshots.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadReport {
    /// Requests attempted.
    pub requests: usize,
    /// Requests answered 200.
    pub ok: usize,
    /// Requests answered non-200 (the daemon's structured errors).
    pub errors: usize,
    /// Requests lost to IO/transport failures (connect, timeout, framing).
    pub transport_errors: usize,
    /// Times a connection had to be re-established mid-run.
    pub reconnects: usize,
    /// Replay seed (the run is reproducible from this plus the config).
    pub seed: u64,
    /// `"open"` or `"closed"`.
    pub loop_mode: String,
    /// Open-loop target rate, if any.
    pub target_rps: Option<f64>,
    /// Wall-clock of the whole run in milliseconds.
    pub elapsed_ms: u64,
    /// Completed requests per second of wall-clock.
    pub throughput_rps: f64,
    /// Latency summary over successful requests. Open loop measures from
    /// each request's *scheduled* send time (coordinated-omission safe);
    /// closed loop from the actual send.
    pub latency: LatencySummary,
    /// The SLO the run was judged against.
    pub slo_ms: u64,
    /// Fraction of successful requests inside the SLO.
    pub slo_attainment: f64,
    /// Per-endpoint request counts.
    pub counts: EndpointCounts,
}

impl LoadReport {
    /// Whether the run met the SLO at the 99th percentile.
    #[must_use]
    pub fn slo_met(&self) -> bool {
        self.latency.p99_ms <= self.slo_ms as f64
    }
}

/// One keep-alive connection to the daemon. Reconnects transparently (the
/// caller counts the reconnect) because an idle-timeout close between
/// requests is normal under open-loop pacing.
struct Conn {
    addr: String,
    timeout: Duration,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    fn new(addr: String, timeout: Duration) -> Self {
        Self { addr, timeout, stream: None, buf: Vec::new() }
    }

    /// Sends one framed request and reads one framed response, keeping the
    /// connection open. On transport failure the connection is dropped and
    /// one fresh attempt is made (a keep-alive peer may close between
    /// requests at any time; RFC 9112 §9.6 makes the retry safe for these
    /// idempotent jobs).
    fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        reconnects: &AtomicUsize,
    ) -> Result<http::Response, String> {
        let request =
            http::encode_request(method, path, "application/json", body.as_bytes(), false);
        let had_stream = self.stream.is_some();
        match self.try_roundtrip(&request) {
            Ok(response) => Ok(response),
            Err(first) => {
                // Drop the (possibly desynced) connection and retry once on
                // a fresh one. Only count a reconnect when we actually had a
                // connection to lose.
                self.stream = None;
                self.buf.clear();
                if had_stream {
                    reconnects.fetch_add(1, Ordering::Relaxed);
                }
                self.try_roundtrip(&request).map_err(|_| first)
            }
        }
    }

    fn try_roundtrip(&mut self, request: &[u8]) -> Result<http::Response, String> {
        if self.stream.is_none() {
            let stream =
                http::connect(&self.addr, self.timeout).map_err(|e| format!("connect: {e}"))?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        let stream = self.stream.as_mut().expect("just connected");
        stream.write_all(request).map_err(|e| format!("write: {e}"))?;
        stream.flush().map_err(|e| format!("flush: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((response, consumed)) =
                http::parse_response_bytes(&self.buf).map_err(|e| format!("frame: {e}"))?
            {
                self.buf.drain(..consumed);
                return Ok(response);
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Segment names usable as what-if targets, in scan order (bounded — the
/// schedule only needs a handful of distinct targets).
fn whatif_targets(network: &str) -> Result<Vec<String>, String> {
    let (_, structure) = rsn_model::format::parse_network(network).map_err(|e| e.to_string())?;
    let mut names = Vec::new();
    // Iterative walk: loadgen networks can be the giant deep-SIB shapes.
    let mut stack = vec![&structure];
    while let Some(s) = stack.pop() {
        if names.len() >= 16 {
            break;
        }
        match s {
            rsn_model::Structure::Segment(spec) => {
                if let Some(name) = &spec.name {
                    names.push(name.clone());
                }
            }
            rsn_model::Structure::Series(parts) => stack.extend(parts.iter().rev()),
            rsn_model::Structure::Parallel { branches, .. } => {
                stack.extend(branches.iter().rev());
            }
            rsn_model::Structure::Sib { inner, .. } => stack.push(inner),
            rsn_model::Structure::Wire => {}
        }
    }
    if names.is_empty() {
        return Err("loadgen needs at least one named segment for what-if targets".into());
    }
    Ok(names)
}

/// The JSON body of request `i` — pure in `(config, hash, targets, i)`.
fn job_body(config: &LoadgenConfig, hash: &str, targets: &[String], i: u64) -> (Endpoint, String) {
    let endpoint = config.mix.kind_at(config.seed, i);
    let mut job = JobRequest {
        network_hash: Some(hash.to_string()),
        seed: Some(config.seed),
        ..JobRequest::default()
    };
    match endpoint {
        Endpoint::Whatif => {
            job.op = Some("harden".into());
            let t = splitmix64(config.seed ^ target_stream(i)) as usize % targets.len();
            job.target = Some(targets[t].clone());
        }
        Endpoint::Harden => {
            // Greedy: deterministic and cheap — loadgen measures serving,
            // not solver wall-clock.
            job.solver = Some("greedy".into());
        }
        Endpoint::Analyze | Endpoint::Validate | Endpoint::Networks => {}
    }
    (endpoint, serde_json::to_string(&job).expect("job serializes"))
}

/// Mixes the request index into the what-if target stream (distinct from
/// the kind stream so targets do not correlate with kinds).
fn target_stream(i: u64) -> u64 {
    i.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5851_f42d
}

/// Runs the configured load against a running daemon and summarizes it.
///
/// # Errors
///
/// A message when the daemon is unreachable, the network fails to register,
/// or the network has no named segments to target.
pub fn run(config: &LoadgenConfig) -> Result<LoadReport, String> {
    if config.requests == 0 || config.connections == 0 {
        return Err("loadgen needs requests >= 1 and connections >= 1".into());
    }
    let targets = whatif_targets(&config.network)?;

    // Register the network once; all jobs go by hash.
    let client = crate::Client::new(config.addr.clone()).with_timeout(config.timeout);
    let put = client.put_network(&config.network).map_err(|e| format!("registering: {e}"))?;
    if put.status != 200 {
        return Err(format!("registering network: rsnd returned {}", put.status));
    }
    let hash = serde_json::from_str::<crate::wire::NetworkPutResponse>(&put.body)
        .map_err(|e| format!("bad register response: {e}"))?
        .network_hash;

    let reconnects = AtomicUsize::new(0);
    let interval = config.rate.map(|r| Duration::from_secs_f64(1.0 / r.max(1e-9)));
    let connections = config.connections.min(config.requests);

    struct WorkerOut {
        micros: Vec<u64>,
        ok: usize,
        errors: usize,
        transport_errors: usize,
        counts: EndpointCounts,
    }

    let start = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for w in 0..connections {
            let reconnects = &reconnects;
            let targets = &targets;
            let hash = &hash;
            handles.push(scope.spawn(move || {
                let mut conn = Conn::new(config.addr.clone(), config.timeout);
                let mut out = WorkerOut {
                    micros: Vec::new(),
                    ok: 0,
                    errors: 0,
                    transport_errors: 0,
                    counts: EndpointCounts::default(),
                };
                let mut i = w;
                while i < config.requests {
                    let (endpoint, body) = job_body(config, hash, targets, i as u64);
                    match endpoint {
                        Endpoint::Analyze => out.counts.analyze += 1,
                        Endpoint::Whatif => out.counts.whatif += 1,
                        Endpoint::Validate => out.counts.validate += 1,
                        Endpoint::Harden | Endpoint::Networks => out.counts.harden += 1,
                    }
                    let path = match endpoint {
                        Endpoint::Analyze => "/v1/analyze",
                        Endpoint::Whatif => "/v1/whatif",
                        Endpoint::Validate => "/v1/validate",
                        Endpoint::Harden | Endpoint::Networks => "/v1/harden",
                    };
                    // Open loop: request i is *scheduled* at start + i·Δ and
                    // latency runs from that instant, so a stalled server
                    // accrues the queueing delay instead of silently
                    // thinning the arrival stream (coordinated omission).
                    let sent_at = match interval {
                        Some(dt) => {
                            let due = dt.saturating_mul(i as u32);
                            let now = start.elapsed();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            due
                        }
                        None => start.elapsed(),
                    };
                    match conn.roundtrip("POST", path, &body, reconnects) {
                        Ok(response) => {
                            let latency = start.elapsed().saturating_sub(sent_at);
                            if response.status == 200 {
                                out.ok += 1;
                                out.micros
                                    .push(latency.as_micros().min(u128::from(u64::MAX)) as u64);
                            } else {
                                out.errors += 1;
                            }
                        }
                        Err(_) => out.transport_errors += 1,
                    }
                    i += connections;
                }
                out
            }));
        }
        handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let elapsed = start.elapsed();

    let mut micros = Vec::with_capacity(config.requests);
    let mut ok = 0;
    let mut errors = 0;
    let mut transport_errors = 0;
    let mut counts = EndpointCounts::default();
    for out in outs {
        micros.extend_from_slice(&out.micros);
        ok += out.ok;
        errors += out.errors;
        transport_errors += out.transport_errors;
        counts.analyze += out.counts.analyze;
        counts.whatif += out.counts.whatif;
        counts.validate += out.counts.validate;
        counts.harden += out.counts.harden;
    }
    let slo_micros = config.slo_ms.saturating_mul(1000);
    let within = micros.iter().filter(|&&m| m <= slo_micros).count();
    let slo_attainment = if micros.is_empty() { 0.0 } else { within as f64 / micros.len() as f64 };
    Ok(LoadReport {
        requests: config.requests,
        ok,
        errors,
        transport_errors,
        reconnects: reconnects.load(Ordering::Relaxed),
        seed: config.seed,
        loop_mode: if interval.is_some() { "open".into() } else { "closed".into() },
        target_rps: config.rate,
        elapsed_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
        throughput_rps: if elapsed.as_secs_f64() > 0.0 {
            ok as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        latency: LatencySummary::from_micros(micros),
        slo_ms: config.slo_ms,
        slo_attainment,
        counts,
    })
}

/// Renders the report as the human-readable block `rsn_tool loadgen`
/// prints without `--json`.
#[must_use]
pub fn render(report: &LoadReport) -> String {
    let mut s = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(s, "loop mode:         {}", report.loop_mode);
    if let Some(rps) = report.target_rps {
        let _ = writeln!(s, "target rate:       {rps:.1} req/s");
    }
    let _ = writeln!(s, "requests:          {}", report.requests);
    let _ = writeln!(
        s,
        "completed:         {} ok, {} error, {} transport ({} reconnects)",
        report.ok, report.errors, report.transport_errors, report.reconnects
    );
    let _ = writeln!(
        s,
        "mix:               analyze={} whatif={} validate={} harden={}",
        report.counts.analyze, report.counts.whatif, report.counts.validate, report.counts.harden
    );
    let _ = writeln!(s, "elapsed:           {} ms", report.elapsed_ms);
    let _ = writeln!(s, "throughput:        {:.1} req/s", report.throughput_rps);
    let l = &report.latency;
    let _ = writeln!(
        s,
        "latency (ms):      p50 {:.2}  p90 {:.2}  p99 {:.2}  p999 {:.2}  max {:.2}  mean {:.2}",
        l.p50_ms, l.p90_ms, l.p99_ms, l.p999_ms, l.max_ms, l.mean_ms
    );
    let _ = writeln!(
        s,
        "slo:               {} ms — attainment {:.1}%, p99 {}",
        report.slo_ms,
        report.slo_attainment * 100.0,
        if report.slo_met() { "MET" } else { "MISSED" }
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_spec_roundtrip_and_errors() {
        let mix = Mix::from_spec("analyze=1,whatif=2,validate=3,harden=4").unwrap();
        assert_eq!(mix, Mix { analyze: 1, whatif: 2, validate: 3, harden: 4 });
        assert!(Mix::from_spec("analyze").unwrap_err().contains("kind=weight"));
        assert!(Mix::from_spec("analyze=x").unwrap_err().contains("not a number"));
        assert!(Mix::from_spec("frobnicate=3").unwrap_err().contains("frobnicate"));
        assert!(Mix::from_spec("analyze=0").unwrap_err().contains("no positive weight"));
    }

    #[test]
    fn schedule_is_deterministic_and_respects_the_mix() {
        let mix = Mix::default();
        let a: Vec<Endpoint> = (0..2000).map(|i| mix.kind_at(7, i)).collect();
        let b: Vec<Endpoint> = (0..2000).map(|i| mix.kind_at(7, i)).collect();
        assert_eq!(a, b, "same seed replays the same sequence");
        let c: Vec<Endpoint> = (0..2000).map(|i| mix.kind_at(8, i)).collect();
        assert_ne!(a, c, "a different seed reshuffles the sequence");
        // The empirical shares track the weights (±50 % slack at n=2000).
        let count = |kind| a.iter().filter(|&&k| k == kind).count();
        assert!(count(Endpoint::Analyze) > 1000, "analyze dominates");
        assert!(count(Endpoint::Whatif) > 200, "whatif present");
        assert!(count(Endpoint::Validate) > 20, "validate present");
        assert!(count(Endpoint::Harden) > 20, "harden present");
        // Pure weights: a single-kind mix degenerates to that kind.
        let only = Mix { analyze: 0, whatif: 0, validate: 1, harden: 0 };
        assert!((0..100).all(|i| only.kind_at(3, i) == Endpoint::Validate));
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let s = LatencySummary::from_micros((1..=10_000).collect());
        assert!(s.p50_ms <= s.p90_ms && s.p90_ms <= s.p99_ms);
        assert!(s.p99_ms <= s.p999_ms && s.p999_ms <= s.max_ms);
        assert!((s.max_ms - 10.0).abs() < 1e-9);
        let empty = LatencySummary::from_micros(Vec::new());
        assert!((empty.max_ms - 0.0).abs() < 1e-9);
    }

    #[test]
    fn report_json_roundtrips() {
        let report = LoadReport {
            requests: 10,
            ok: 9,
            errors: 1,
            transport_errors: 0,
            reconnects: 2,
            seed: 7,
            loop_mode: "open".into(),
            target_rps: Some(50.0),
            elapsed_ms: 123,
            throughput_rps: 73.2,
            latency: LatencySummary::from_micros(vec![100, 200, 300]),
            slo_ms: 500,
            slo_attainment: 1.0,
            counts: EndpointCounts { analyze: 7, whatif: 2, validate: 1, harden: 0 },
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.requests, 10);
        assert_eq!(back.reconnects, 2);
        assert!(back.slo_met());
    }
}
