//! One benchmark run of one workload: set-up, load, correctness check and
//! end-to-end metrics (untraced), or the same load followed by the
//! in-process layer ladder and per-layer metrics (traced).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use robust_rsn::{Parallelism, Workspace};
use serde::Content;

use rsn_serve::wire::{self, Deadline, Endpoint, NetworkPutResponse, ParsedNetwork};

use crate::client::{
    closed_loop, encode, open_loop, Conn, Digest, Jobs, Method, OpenLoop, Tally, JSON, TEXT,
};
use crate::json::{int, num, obj, text};
use crate::procs::{peak_rss_kib, run_to_end, Daemon, Finished};
use crate::stats;
use crate::stream::{self, JobStream, KeepFirst, Workload, SESSION_LEN, WARMUP_BASE};
use crate::trace::Tracer;
use crate::{ladder, prom};

/// An untraced serving run measures its load in this many parts…
const LOAD_PARTS: u64 = 30;
/// …and sets up a spare fleet this many times in each pause between two
/// parts. `setup_s` is the median of these set-ups and the measured
/// fleet's own: spread over the whole run, they meet the host's slow and
/// fast stretches in the same mix as the load does, where a burst of
/// set-ups (one takes 4–30 ms) would fall into one of them.
const SETUPS_PER_PAUSE: usize = 2;
/// Discarded warm-up requests before the measured load.
const WARMUP_REQUESTS: u64 = 20;
/// The traced run replays at most this many jobs in-process…
const TRACE_JOBS: u64 = 200;
/// …of which the first ones warm caches and are not counted…
const TRACE_WARMUP: u64 = 10;
/// …and at least this many, even past the time budget.
const TRACE_MIN_JOBS: u64 = 30;
/// CLI and in-process sweep pairs of a traced `giant-sweep` run.
const TRACE_SWEEPS: u64 = 3;
/// Repetitions of the per-network layer ladder on the serving network.
const LAYER_REPS: u64 = 10;
/// Span request ids of the per-network layer ladder start here.
const LAYER_BASE: u64 = 1 << 50;
/// A `/healthz` median at or above this means the client, not the server,
/// sets the latency floor; the run is refused.
const FLOOR_GUARD_MS: f64 = 1.0;
/// `rsnd --cache`: a `/v1/harden` body is about 8 MB, so the default 128
/// entries would hold a gigabyte on a small host. Every workload still
/// fills and evicts the cache.
const RESULT_CACHE: usize = 32;

/// Everything a run needs to know.
#[derive(Clone, Debug)]
pub struct Config {
    /// Root of the checkout (the directory holding `BENCHMARK.json`).
    pub root: PathBuf,
    /// Directory holding the release binaries `rsnd`, `rsnc`, `rsn_tool`.
    pub bin_dir: PathBuf,
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured load duration in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Smoke mode: correctness only, one set-up, one giant sweep.
    pub smoke: bool,
    /// Cores of the host; server pools and sweeps are clamped to it.
    pub nproc: usize,
}

impl Config {
    fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// Scratch space for generated inputs, results and traces.
    #[must_use]
    pub fn results_dir(&self) -> PathBuf {
        self.root.join("benchmark").join("results")
    }

    fn run_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Client connections of this run.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.workload.connections(self.nproc)
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every checked output matched.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: non-200 answers, transport errors, and
    /// mismatches against the in-process recomputation.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Sample counts, counter deltas and per-stage figures for the result
    /// file.
    pub detail: Vec<(&'static str, Content)>,
}

/// Runs `cfg.workload` once.
///
/// # Errors
///
/// Set-up failures (a binary missing or exiting early, registration
/// failing), a client floor at or above the guard, and I/O errors.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(cfg.results_dir()).map_err(|e| format!("results dir: {e}"))?;
    if cfg.workload == Workload::GiantSweep {
        giant(cfg)
    } else {
        serving(cfg)
    }
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

/// The processes behind one serving workload: one `rsnd`, or an `rsnc`
/// coordinator adopting `rsnd --workers 1` processes. The coordinator is
/// declared first so it is killed before its workers.
struct Fleet {
    coordinator: Option<Daemon>,
    workers: Vec<Daemon>,
}

impl Fleet {
    fn start(cfg: &Config) -> Result<Self, String> {
        let rsnd = cfg.bin("rsnd");
        let listen = |workers: usize| {
            let (workers, cache) = (workers.to_string(), RESULT_CACHE.to_string());
            ["--addr", "127.0.0.1:0", "--workers", &workers, "--cache", &cache].map(String::from)
        };
        if cfg.workload != Workload::ClusterFanout {
            let daemon = Daemon::spawn(&rsnd, &listen(cfg.nproc))?;
            return Ok(Self { coordinator: None, workers: vec![daemon] });
        }
        let workers = (0..cfg.nproc)
            .map(|_| Daemon::spawn(&rsnd, &listen(1)))
            .collect::<Result<Vec<_>, _>>()?;
        let adopt = workers.iter().map(|w| w.addr.as_str()).collect::<Vec<_>>().join(",");
        let args = vec!["--addr".into(), "127.0.0.1:0".into(), "--adopt".into(), adopt];
        let coordinator = Daemon::spawn(&cfg.bin("rsnc"), &args)?;
        Ok(Self { coordinator: Some(coordinator), workers })
    }

    fn processes(&self) -> impl Iterator<Item = &Daemon> {
        self.coordinator.iter().chain(&self.workers)
    }

    /// Where clients send requests.
    fn addr(&self) -> &str {
        self.coordinator.as_ref().unwrap_or(&self.workers[0]).addr.as_str()
    }

    /// Summed peak resident set of every process, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        self.processes().filter_map(|d| peak_rss_kib(d.pid())).sum::<u64>() as f64 / 1024.0
    }

    /// Every process's `/metrics`, summed per series (`rsnd_*` series come
    /// from the daemons, `rsnc_*` from the coordinator).
    fn scrape(&self) -> Result<prom::Scrape, String> {
        let mut total = prom::Scrape::new();
        for daemon in self.processes() {
            for (series, value) in prom::parse(&get(&daemon.addr, "/metrics")?) {
                *total.entry(series).or_default() += value;
            }
        }
        Ok(total)
    }
}

/// One request on a fresh connection; the body of a 200 answer.
fn exchange(addr: &str, request: &[u8]) -> Result<String, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let response = conn.send(request).and_then(|()| conn.recv()).map_err(|e| e.to_string())?;
    if response.status == 200 {
        Ok(response.body)
    } else {
        Err(format!("{addr} answered {}: {}", response.status, response.body))
    }
}

fn get(addr: &str, path: &str) -> Result<String, String> {
    exchange(addr, &encode(Method::Get, path, JSON, ""))
}

/// `PUT /v1/networks` with the network as streamed `text/plain` (the
/// registration path `rsnc` uses for its workers; the JSON form spends
/// ~0.3 s decoding p93791's 148 KB string, which would bury any work moved
/// into set-up); returns the canonical hash.
fn register(addr: &str, network: &str) -> Result<String, String> {
    let reply = exchange(addr, &encode(Method::Put, "/v1/networks", TEXT, network))?;
    let put: NetworkPutResponse =
        serde_json::from_str(&reply).map_err(|e| format!("registration reply: {e}"))?;
    Ok(put.network_hash)
}

/// Brings the fleet up and registers the network; returns the fleet, the
/// network hash and the seconds from spawn to network registered.
fn set_up(cfg: &Config, network: &str) -> Result<(Fleet, String, f64), String> {
    let started = Instant::now();
    let fleet = Fleet::start(cfg)?;
    let hash = register(fleet.addr(), network)?;
    Ok((fleet, hash, started.elapsed().as_secs_f64()))
}

/// Median `GET /healthz` round trip on one kept-alive connection: the
/// latency floor of this client plus the server's front end.
fn floor_ms(addr: &str) -> Result<f64, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let request = encode(Method::Get, "/healthz", JSON, "");
    let mut samples = Vec::new();
    for _ in 0..50 {
        let sent = Instant::now();
        conn.send(&request).and_then(|()| conn.recv()).map_err(|e| format!("/healthz: {e}"))?;
        samples.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    let floor = stats::median(&samples);
    if floor >= FLOOR_GUARD_MS {
        return Err(format!(
            "client.floor_ms = {floor:.3} ms is at or above {FLOOR_GUARD_MS} ms: the client, \
             not the server, sets the latency floor; refusing to measure"
        ));
    }
    Ok(floor)
}

/// The discarded warm-up: `WARMUP_REQUESTS` jobs from the warm-up range,
/// closed loop on the client connections.
fn warm_up(cfg: &Config, addr: &str, jobs: &dyn Jobs) {
    let next = AtomicU64::new(WARMUP_BASE);
    let limit = WARMUP_BASE + WARMUP_REQUESTS;
    std::thread::scope(|scope| {
        for _ in 0..cfg.connections() {
            scope.spawn(|| {
                let mut conn = Conn::connect(addr).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(c) = conn.as_mut().filter(|_| i < limit) else { break };
                    if c.send(&jobs.request(i)).and_then(|()| c.recv()).is_err() {
                        conn = Conn::connect(addr).ok();
                    }
                }
            });
        }
    });
}

/// The measured load: a closed loop for the run's duration, or the
/// open-loop schedule of the run's duration, in `parts` parts with
/// `pause` run between two of them. Each part resumes the clock where the
/// previous one stopped, so pauses are not measured.
fn load(
    cfg: &Config,
    addr: &str,
    jobs: &dyn Jobs,
    parts: u64,
    pause: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Tally, String> {
    let conns = cfg.connections() as u64;
    let next = AtomicU64::new(0);
    let mut tally = Tally::default();
    for k in 0..parts {
        if k > 0 {
            pause()?;
        }
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = match cfg.workload.open_loop_rate() {
                Some(rate) => {
                    // Jobs `lo..hi`, with job i due i / rate after `start`.
                    let total = (rate * cfg.seconds).round().max(1.0) as u64;
                    let (lo, hi) = (total * k / parts, total * (k + 1) / parts);
                    let start = Instant::now() - Duration::from_secs_f64(lo as f64 / rate);
                    let interval = Duration::from_secs_f64(1.0 / rate);
                    (0..conns)
                        .map(|c| {
                            let first = lo + (c + conns - lo % conns) % conns;
                            let plan = OpenLoop::new(interval, first, conns, hi);
                            scope.spawn(move || {
                                open_loop(addr, start, plan, crate::client::IO_TIMEOUT, jobs)
                            })
                        })
                        .collect()
                }
                None => {
                    let start = Instant::now() - tally.finished;
                    let run_for = cfg.run_for().mul_f64((k + 1) as f64 / parts as f64);
                    let next = &next;
                    (0..conns)
                        .map(|_| scope.spawn(move || closed_loop(addr, start, run_for, next, jobs)))
                        .collect()
                }
            };
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        for t in tallies {
            tally.absorb(t);
        }
    }
    tally.answers.sort_by_key(|a| a.index);
    Ok(tally)
}

/// Recomputes every kept 200 answer in-process and returns (checked,
/// mismatched). What-if jobs replay against one fresh workspace per
/// session; the others go through `execute_with`, spread over the cores.
fn check(cfg: &Config, net: &ParsedNetwork, stream: &JobStream, tally: &Tally) -> (u64, u64) {
    let kept: Vec<(u64, Digest)> = tally
        .answers
        .iter()
        .filter(|a| a.status == 200 && stream.keep(a.index))
        .filter_map(|a| Some((a.index, a.digest?)))
        .collect();
    let endpoint = cfg.workload.endpoint();
    let resolve = |i: u64| {
        wire::parse_request(&stream.body(i)).and_then(|req| wire::resolve(endpoint, &req)).ok()
    };
    let seq = Parallelism::sequential();
    let mismatched = if endpoint == Endpoint::Whatif {
        let mut workspace: Option<(u64, Workspace)> = None;
        kept.iter()
            .filter(|&&(i, digest)| {
                let Some(job) = resolve(i) else { return true };
                if workspace.as_ref().map(|(s, _)| *s) != Some(i / SESSION_LEN) {
                    workspace = wire::build_workspace_with(&job, net, seq, &Deadline::none())
                        .ok()
                        .map(|ws| (i / SESSION_LEN, ws));
                }
                let Some((_, ws)) = workspace.as_mut() else { return true };
                wire::execute_whatif(&job, ws, &Deadline::none()).ok().map(|b| Digest::of(&b))
                    != Some(digest)
            })
            .count()
    } else {
        let chunk = kept.len().div_ceil(cfg.nproc).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = kept
                .chunks(chunk)
                .map(|part| {
                    let resolve = &resolve;
                    scope.spawn(move || {
                        part.iter()
                            .filter(|&&(i, digest)| {
                                resolve(i)
                                    .and_then(|job| {
                                        wire::execute_with(&job, net, seq, &Deadline::none()).ok()
                                    })
                                    .map(|b| Digest::of(&b))
                                    != Some(digest)
                            })
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("check thread panicked")).sum()
        })
    };
    (kept.len() as u64, mismatched as u64)
}

/// Counter deltas over the measured load.
fn counters(before: &prom::Scrape, after: &prom::Scrape) -> Content {
    let series = [
        "rsnd_cache_hits_total",
        "rsnd_cache_misses_total",
        "rsnd_workspace_cache_hits_total",
        "rsnd_workspace_cache_misses_total",
        "rsnd_queue_rejected_total",
        "rsnc_requests_total",
        "rsnc_shards_dispatched_total",
        "rsnc_shards_retried_total",
        "rsnc_failovers_total",
    ];
    obj(series.iter().map(|s| (*s, num(prom::delta(before, after, s)))).collect())
}

fn serving(cfg: &Config) -> Result<Outcome, String> {
    let network = stream::serving_network();
    let net = ParsedNetwork::from_text(&network).map_err(|e| e.message)?;
    let (_, structure) = rsn_model::format::parse_network(&network).map_err(|e| e.to_string())?;
    let segments = stream::named_segments(&structure);

    let (fleet, hash, first_setup) = set_up(cfg, &network)?;
    let mut setups = vec![first_setup];
    if hash != net.hash.to_hex() {
        return Err("the daemon's network hash differs from the in-process one".into());
    }
    let stream = JobStream::new(cfg.workload, cfg.seed, hash, &segments);
    let floor = floor_ms(fleet.addr())?;
    warm_up(cfg, fleet.addr(), &stream);

    let before = fleet.scrape()?;
    let keep_first = KeepFirst { stream: &stream, count: TRACE_JOBS };
    let jobs: &dyn Jobs = if cfg.trace { &keep_first } else { &stream };
    let parts = if cfg.trace || cfg.smoke { 1 } else { LOAD_PARTS };
    let tally = load(cfg, fleet.addr(), jobs, parts, &mut || {
        for _ in 0..SETUPS_PER_PAUSE {
            setups.push(set_up(cfg, &network)?.2);
        }
        Ok(())
    })?;
    let after = fleet.scrape()?;
    let rss_mb = fleet.peak_rss_mb();
    let shard_direct = if cfg.trace && cfg.workload == Workload::ClusterFanout {
        Some(shard_direct_ms(&fleet, &stream, &net)?)
    } else {
        None
    };
    drop(fleet);

    let non_200 = tally.answers.iter().filter(|a| a.status != 200).count() as u64;
    let lat = stats::sorted(
        &tally.answers.iter().filter(|a| a.status == 200).map(|a| a.latency_ms).collect::<Vec<_>>(),
    );
    if lat.is_empty() {
        return Err("no request was answered with 200".into());
    }
    let mut detail = vec![
        ("answered", int(tally.answers.len() as u64)),
        ("non_200", int(non_200)),
        ("transport_errors", int(tally.transport_errors)),
        ("client.reconnects", int(tally.reconnects)),
        ("client.floor_ms", num(floor)),
        ("counters", counters(&before, &after)),
    ];
    if !tally.lateness_ms.is_empty() {
        let late = stats::sorted(&tally.lateness_ms);
        detail.push(("client.generator_lag_ms", num(stats::percentile(&late, 0.99))));
    }
    if cfg.workload == Workload::WhatifSessions {
        detail.push(("latency_by_kind", whatif_kinds(&stream, &tally)));
    }

    let (metrics, mismatched) = if cfg.trace {
        let traced = TracedLoad { tally: &tally, floor, shard_direct, before, after };
        let traced = trace_serving(cfg, &net, &network, &stream, &traced)?;
        detail.extend(traced.figures);
        (traced.metrics, traced.mismatched)
    } else {
        let (checked, mismatched) = check(cfg, &net, &stream, &tally);
        if checked < stream::CHECKED_JOBS && !cfg.smoke {
            eprintln!("warning: only {checked} answers were checked in-process");
        }
        let p = cfg.workload.tail_percentile();
        let beyond = stats::beyond(lat.len(), p);
        if !stats::supports(lat.len(), p) && !cfg.smoke {
            eprintln!("warning: {} has {beyond} samples beyond its tail", cfg.workload.name());
        }
        detail.extend([
            ("checked_responses", int(checked)),
            ("mismatched_responses", int(mismatched)),
            ("latency_samples", int(lat.len() as u64)),
            ("latency_tail_percentile", num(p)),
            ("latency_tail_samples_beyond", int(beyond as u64)),
            ("throughput_rps", num(lat.len() as f64 / tally.finished.as_secs_f64().max(1e-9))),
            ("latency_p25_ms", num(stats::percentile(&lat, 0.25))),
            ("latency_p50_ms", num(stats::percentile(&lat, 0.5))),
            ("latency_p90_ms", num(stats::percentile(&lat, 0.9))),
            ("latency_p99_ms", num(stats::percentile(&lat, 0.99))),
            ("latency_mean_ms", num(stats::mean(&lat))),
            (
                "latency_deciles_ms",
                Content::Seq(
                    (1..10).map(|d| num(stats::percentile(&lat, f64::from(d) / 10.0))).collect(),
                ),
            ),
            ("setup_s_each", Content::Seq(setups.iter().map(|s| num(*s)).collect())),
        ]);
        let metrics = vec![
            metric("latency_tail_ms", stats::percentile(&lat, p), "ms"),
            metric("setup_s", stats::median(&setups), "s"),
            metric("peak_rss_mb", rss_mb, "MiB"),
        ];
        (metrics, mismatched)
    };
    let failed = non_200 + tally.transport_errors + mismatched;
    Ok(Outcome { correct: failed == 0, attempted: tally.attempted, failed, metrics, detail })
}

/// What-if latency per request kind (the session opener that cold-builds
/// the workspace, `harden`, `exclude`), and which kind sits at p50, p90
/// and p99.
fn whatif_kinds(stream: &JobStream, tally: &Tally) -> Content {
    let kind = |i: u64| if stream.opens_session(i) { "cold" } else { stream.whatif_op(i) };
    let mut ranked: Vec<(f64, &str)> = tally
        .answers
        .iter()
        .filter(|a| a.status == 200)
        .map(|a| (a.latency_ms, kind(a.index)))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let at = |p: f64| text(ranked[stats::rank(ranked.len(), p) - 1].1);
    let per_kind = ["cold", "harden", "exclude"].map(|k| {
        let lat: Vec<f64> = ranked.iter().filter(|r| r.1 == k).map(|r| r.0).collect();
        let row = if lat.is_empty() {
            obj(vec![("count", int(0))])
        } else {
            let sorted = stats::sorted(&lat);
            obj(vec![
                ("count", int(lat.len() as u64)),
                ("p50_ms", num(stats::percentile(&sorted, 0.5))),
                ("p90_ms", num(stats::percentile(&sorted, 0.9))),
            ])
        };
        (k, row)
    });
    let mut entries = per_kind.to_vec();
    if !ranked.is_empty() {
        entries.extend([
            ("kind_at_p50", at(0.5)),
            ("kind_at_p90", at(0.9)),
            ("kind_at_p99", at(0.99)),
        ]);
    }
    obj(entries)
}

/// Mean over 20 jobs of the slowest shard, sent by this client straight to
/// the workers: the coordinator's fan-out without the coordinator.
fn shard_direct_ms(fleet: &Fleet, stream: &JobStream, net: &ParsedNetwork) -> Result<f64, String> {
    let total = robust_rsn::mode_count(&net.net, &robust_rsn::AnalysisOptions::default()) as u64;
    let ranges = rsn_cluster::coordinator::partition_modes(total, fleet.workers.len());
    let mut conns = fleet
        .workers
        .iter()
        .map(|w| Conn::connect(&w.addr).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut slowest = Vec::new();
    for i in 0..20 {
        let mut worst = 0.0f64;
        for (k, &(lo, hi)) in ranges.iter().enumerate() {
            let job = rsn_serve::JobRequest {
                mode_lo: Some(lo),
                mode_hi: Some(hi),
                ..stream.job(WARMUP_BASE + 1000 + i)
            };
            let body = serde_json::to_string(&job).map_err(|e| e.to_string())?;
            let conn = &mut conns[k % fleet.workers.len()];
            let sent = Instant::now();
            conn.send(&encode(Method::Post, "/v1/analyze", JSON, &body))
                .and_then(|()| conn.recv())
                .map_err(|e| format!("shard direct: {e}"))?;
            worst = worst.max(sent.elapsed().as_secs_f64() * 1e3);
        }
        slowest.push(worst);
    }
    Ok(stats::mean(&slowest))
}

/// What the in-process half of a traced run found.
struct Traced {
    metrics: Vec<Metric>,
    /// Jobs whose ladder, reference and daemon bodies disagreed.
    mismatched: u64,
    /// Figures for the trace and result files.
    figures: Vec<(&'static str, Content)>,
}

/// What the daemon run of a traced run hands to the in-process half.
struct TracedLoad<'a> {
    tally: &'a Tally,
    floor: f64,
    shard_direct: Option<f64>,
    before: prom::Scrape,
    after: prom::Scrape,
}

/// Median duration (ms) of the `layers` ladder's spans named `name`.
fn layer_median(tr: &Tracer, name: &str) -> f64 {
    let v: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == name && s.request >= LAYER_BASE)
        .map(crate::trace::Span::ms)
        .collect();
    stats::median(&v)
}

/// The per-layer metrics every workload reports: its network through each
/// layer (`layers` ladder), its jobs' ladder against the client-observed
/// latency, and the client floor.
fn layer_metrics(
    tr: &Tracer,
    modes: usize,
    sweep_ms: f64,
    ladder_ms: f64,
    client_ms: f64,
    floor: f64,
) -> Vec<Metric> {
    let mut metrics: Vec<Metric> = [
        ("rsn_model.parse_ms", "rsn_model.parse"),
        ("rsn_model.build_ms", "rsn_model.build"),
        ("rsn_model.csr_ms", "rsn_model.csr"),
        ("rsn_model.drop_ms", "rsn_model.drop"),
        ("netkey.hash_ms", "netkey.hash"),
        ("spec.paper_random_ms", "spec.paper_random"),
        ("shard.mode_count_ms", "shard.mode_count"),
        ("shard.aggregate_ms", "shard.aggregate"),
        ("report.summary_ms", "report.summary"),
        ("rsn_sp.tree_ms", "rsn_sp.tree"),
        ("criticality.tree_analyze_ms", "criticality.tree_analyze"),
        ("hardening.problem_ms", "hardening.problem"),
    ]
    .into_iter()
    .map(|(name, span)| metric(name, layer_median(tr, span), "ms"))
    .collect();
    metrics.extend([
        metric("kernel.sweep_ms", sweep_ms, "ms"),
        metric("kernel.modes_per_ms", modes as f64 / sweep_ms.max(1e-9), "1/ms"),
        metric("ladder.total_ms", ladder_ms, "ms"),
        metric("ladder.unattributed_ms", client_ms - ladder_ms, "ms"),
        metric("ladder.attributed_share", ladder_ms / client_ms.max(1e-9), "share"),
        metric("client.floor_ms", floor, "ms"),
    ]);
    metrics
}

/// Per-stage figures of the job ladder for the trace file: calls, mean ms
/// and mean self ms per job.
fn stage_table(totals: &BTreeMap<&'static str, (u64, f64, f64)>, jobs: f64) -> Content {
    Content::Map(
        totals
            .iter()
            .map(|(name, (calls, total, own))| {
                let row = obj(vec![
                    ("calls_per_job", num(*calls as f64 / jobs)),
                    ("ms_per_job", num(total / jobs)),
                    ("self_ms_per_job", num(own / jobs)),
                ]);
                ((*name).to_string(), row)
            })
            .collect(),
    )
}

fn write_trace(
    cfg: &Config,
    tr: &Tracer,
    figures: &[(&'static str, Content)],
) -> Result<(), String> {
    let path = cfg.results_dir().join(format!("trace-{}.json", cfg.workload.name()));
    let doc = obj(vec![
        ("workload", text(cfg.workload.name())),
        ("seed", int(cfg.seed)),
        ("figures", obj(figures.iter().map(|(k, v)| (*k, v.clone())).collect())),
        ("spans", tr.to_json()),
    ]);
    std::fs::write(&path, crate::json::print(&doc)).map_err(|e| format!("{}: {e}", path.display()))
}

fn mean_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::mean(&values.collect::<Vec<_>>())
}

/// The in-process half of a traced serving run: replays the first jobs
/// through the ladder and through the daemon's own entry point, checks the
/// three bodies agree, times the network through every layer, and writes
/// the trace file.
fn trace_serving(
    cfg: &Config,
    net: &ParsedNetwork,
    network: &str,
    stream: &JobStream,
    load: &TracedLoad<'_>,
) -> Result<Traced, String> {
    let daemon: BTreeMap<u64, Digest> =
        load.tally.answers.iter().filter_map(|a| Some((a.index, a.digest?))).collect();
    let mut tr = Tracer::default();
    let mut state = ladder::WhatifState::default();
    let mut reference_ws = None;
    let (mut mismatched, mut response_bytes, mut shard_bytes) = (0u64, Vec::new(), Vec::new());
    let budget = Instant::now();
    let mut jobs = 0u64;
    while jobs < TRACE_JOBS && (jobs < TRACE_MIN_JOBS || budget.elapsed() < cfg.run_for()) {
        let i = jobs;
        let request = stream.request(i);
        let fail = |e: wire::JobError| format!("job {i}: {} {}", e.status, e.message);
        let (body, ladder_parts, reference_bodies) = if cfg.workload == Workload::ClusterFanout {
            let out = ladder::fan_out(&mut tr, i, &request, net, cfg.nproc).map_err(fail)?;
            shard_bytes.extend(out.shard_responses.iter().map(|b| b.len() as f64));
            let reference = ladder::reference(
                &mut tr,
                i,
                cfg.workload,
                &out.shard_requests,
                net,
                &mut reference_ws,
            )
            .map_err(fail)?;
            (out.merged, out.shard_responses, reference)
        } else {
            let body =
                ladder::serve(&mut tr, i, cfg.workload, &request, net, &mut state).map_err(fail)?;
            let reference = ladder::reference(
                &mut tr,
                i,
                cfg.workload,
                &[stream.body(i)],
                net,
                &mut reference_ws,
            )
            .map_err(fail)?;
            (body.clone(), vec![body], reference)
        };
        let daemon_agrees = daemon.get(&i).is_none_or(|d| *d == Digest::of(&body));
        if ladder_parts != reference_bodies || !daemon_agrees {
            mismatched += 1;
        }
        response_bytes.push(body.len() as f64);
        jobs += 1;
    }
    let measured = |r: u64| (TRACE_WARMUP..LAYER_BASE).contains(&r);
    let totals = tr.totals(measured);
    let n = (jobs - TRACE_WARMUP) as f64;
    let per_job = |name: &str| totals.get(name).map_or(0.0, |t| t.1 / n);

    // The cluster dispatches a job's shards in parallel: its critical path
    // keeps only the slowest dispatch.
    let ladder_ms = mean_of((TRACE_WARMUP..jobs).map(|i| {
        let (mut total, mut shards, mut slowest) = (0.0, 0.0, 0.0f64);
        for s in tr.spans().iter().filter(|s| s.request == i) {
            match s.name {
                "ladder" => total += s.ms(),
                "shard.dispatch" => {
                    shards += s.ms();
                    slowest = slowest.max(s.ms());
                }
                _ => {}
            }
        }
        total - shards + slowest
    }));
    let client_ms =
        mean_of(load.tally.answers.iter().filter(|a| a.status == 200).map(|a| a.latency_ms));
    // Coverage: the stages inside `execute` against the daemon's own
    // execution entry point for the same jobs.
    let spans = tr.spans();
    let stages_ms = spans
        .iter()
        .filter(|s| measured(s.request) && s.parent.is_some_and(|p| spans[p].name == "execute"))
        .map(crate::trace::Span::ms)
        .sum::<f64>()
        / n;
    let execute_ms = per_job("wire.execute");
    let coverage = stages_ms / execute_ms.max(1e-9);
    if !(0.9..=1.1).contains(&coverage) {
        eprintln!("warning: wire.stage_coverage = {coverage:.3} is outside [0.9, 1.1]");
    }

    let mut modes = 0;
    for rep in 0..LAYER_REPS {
        modes = ladder::layers(&mut tr, LAYER_BASE + rep, network, stream.spec_seed(0), 1)?;
    }
    let sweep_ms = layer_median(&tr, "kernel.sweep");
    let metrics = layer_metrics(&tr, modes, sweep_ms, ladder_ms, client_ms, load.floor);

    let (before, after) = (&load.before, &load.after);
    let mut figures = vec![
        ("trace_jobs", int(jobs)),
        ("trace_mismatched_bodies", int(mismatched)),
        ("kernel.modes", int(modes as u64)),
        ("wire.execute_ms", num(execute_ms)),
        ("wire.stage_coverage", num(coverage)),
        ("wire.response_bytes", num(stats::mean(&response_bytes))),
        ("client_mean_ms", num(client_ms)),
        ("server.unattributed_ms", num(client_ms - ladder_ms)),
        ("server.attributed_share", num(ladder_ms / client_ms.max(1e-9))),
        (
            "server.cache_hit_ratio",
            num(prom::hit_ratio(before, after, "rsnd_cache_hits_total", "rsnd_cache_misses_total")),
        ),
        (
            "server.wscache_hit_ratio",
            num(prom::hit_ratio(
                before,
                after,
                "rsnd_workspace_cache_hits_total",
                "rsnd_workspace_cache_misses_total",
            )),
        ),
        ("server.queue_rejected", num(prom::delta(before, after, "rsnd_queue_rejected_total"))),
    ];
    if !state.recomputed.is_empty() {
        let recomputed = mean_of(state.recomputed.iter().map(|&r| r as f64));
        figures.push(("workspace.recompute_ratio", num(recomputed / modes.max(1) as f64)));
    }
    if let Some(direct) = load.shard_direct {
        let requests = prom::delta(before, after, "rsnc_requests_total").max(1.0);
        let merge = per_job("shard.merge");
        figures.extend([
            ("coordinator.shard_direct_ms", num(direct)),
            ("shard.merge_ms", num(merge)),
            ("shard.response_bytes", num(stats::mean(&shard_bytes))),
            ("coordinator.overhead_ms", num(client_ms - (direct + merge))),
            (
                "coordinator.shards_per_request",
                num(prom::delta(before, after, "rsnc_shards_dispatched_total") / requests),
            ),
            (
                "coordinator.shard_retries",
                num(prom::delta(before, after, "rsnc_shards_retried_total")),
            ),
            ("coordinator.failovers", num(prom::delta(before, after, "rsnc_failovers_total"))),
        ]);
    }
    figures.push(("stages", stage_table(&totals, n)));
    write_trace(cfg, &tr, &figures)?;
    Ok(Traced { metrics, mismatched, figures })
}

// ---------------------------------------------------------------------------
// giant-sweep
// ---------------------------------------------------------------------------

/// What `rsn_tool sweep --json` printed, with how the run went.
struct Sweep {
    finished: Finished,
    total_damage: u64,
    parse_build_ms: f64,
    sweep_ms: f64,
}

fn sweep_once(tool: &std::path::Path, args: &[String]) -> Result<Sweep, String> {
    let finished = run_to_end(tool, args)?;
    let line = finished.stdout.lines().last().ok_or("rsn_tool sweep printed nothing")?;
    let doc = crate::json::parse(line)?;
    let field = |k: &str| {
        crate::json::get(&doc, k)
            .and_then(crate::json::as_f64)
            .ok_or_else(|| format!("rsn_tool sweep printed no {k}: {line}"))
    };
    let total_damage = match crate::json::get(&doc, "total_damage") {
        Some(Content::U64(v)) => *v,
        _ => return Err(format!("rsn_tool sweep printed no total_damage: {line}")),
    };
    let (parse_build_ms, sweep_ms) = (field("parse_build_ms")?, field("sweep_ms")?);
    Ok(Sweep { finished, total_damage, parse_build_ms, sweep_ms })
}

fn giant(cfg: &Config) -> Result<Outcome, String> {
    let path = cfg.results_dir().join(format!("rings-{}.rsn", cfg.seed));
    let network = stream::giant_network(cfg.seed);
    std::fs::write(&path, &network).map_err(|e| format!("{}: {e}", path.display()))?;
    let outcome = giant_on(cfg, &path, &network);
    let _ = std::fs::remove_file(&path);
    outcome
}

fn giant_on(cfg: &Config, path: &std::path::Path, network: &str) -> Result<Outcome, String> {
    let tool = cfg.bin("rsn_tool");
    let threads = cfg.nproc;
    let args: Vec<String> = vec![
        "sweep".into(),
        path.to_string_lossy().into_owned(),
        "--seed".into(),
        cfg.seed.to_string(),
        "--threads".into(),
        threads.to_string(),
        "--json".into(),
    ];
    // The CLI's floor: a process that starts, prints its version and exits.
    let floor = stats::median(
        &(0..5)
            .map(|_| run_to_end(&tool, &["--version".into()]).map(|f| f.wall.as_secs_f64() * 1e3))
            .collect::<Result<Vec<_>, _>>()?,
    );
    if !cfg.smoke {
        sweep_once(&tool, &args)?; // warm-up: page cache and first-touch faults
    }
    // Every in-process sweep also checks the CLI's total damage. A traced
    // run alternates CLI and in-process sweeps so both see the same host.
    let mut tr = Tracer::default();
    let mut sweeps = Vec::new();
    let mut expected = Vec::new();
    if cfg.trace {
        for k in 0..TRACE_SWEEPS {
            sweeps.push(sweep_once(&tool, &args)?);
            expected.push(ladder::sweep(&mut tr, k, path, cfg.seed, threads)?);
        }
    } else {
        for _ in 0..if cfg.smoke { 1 } else { stream::GIANT_SWEEPS } {
            sweeps.push(sweep_once(&tool, &args)?);
        }
        expected.push(ladder::sweep(&mut tr, 0, path, cfg.seed, threads)?);
    }
    let mismatched =
        sweeps.iter().filter(|s| expected.iter().any(|&e| e != s.total_damage)).count() as u64;
    let attempted = sweeps.len() as u64;
    let walls: Vec<f64> = sweeps.iter().map(|s| s.finished.wall.as_secs_f64() * 1e3).collect();
    let mut detail = vec![
        ("sweeps", int(attempted)),
        ("total_damage", int(expected[0])),
        ("sweep_wall_ms_each", Content::Seq(walls.iter().map(|w| num(*w)).collect())),
        ("sweep_wall_p50_ms", num(stats::median(&walls))),
        ("client.floor_ms", num(floor)),
    ];

    let metrics = if cfg.trace {
        let ladder_ms = mean_of(tr.spans().iter().filter(|s| s.name == "ladder").map(|s| s.ms()));
        let wall_ms = stats::mean(&walls);
        let modes = ladder::layers(&mut tr, LAYER_BASE, network, cfg.seed, threads)?;
        let totals = tr.totals(|r| r < LAYER_BASE);
        let per_run = |name: &str| totals.get(name).map_or(0.0, |t| t.1 / TRACE_SWEEPS as f64);
        let cli_ms = mean_of(sweeps.iter().map(|s| s.parse_build_ms + s.sweep_ms));
        let stages =
            per_run("rsn_model.parse") + per_run("rsn_model.build") + per_run("kernel.sweep");
        let figures = vec![
            ("kernel.modes", int(modes as u64)),
            ("cli.read_ms", num(per_run("cli.read"))),
            ("cli.spec_ms", num(per_run("cli.spec"))),
            ("cli.unattributed_ms", num(wall_ms - ladder_ms)),
            ("cli.stage_coverage", num(stages / cli_ms.max(1e-9))),
            ("cli_wall_ms", num(wall_ms)),
            ("stages", stage_table(&totals, TRACE_SWEEPS as f64)),
        ];
        write_trace(cfg, &tr, &figures)?;
        detail.extend(figures);
        // The CLI sweeps through `analyze_graph_with`, not the shard path.
        layer_metrics(&tr, modes, per_run("kernel.sweep"), ladder_ms, wall_ms, floor)
    } else {
        let setups: Vec<f64> = sweeps
            .iter()
            .map(|s| (s.finished.wall.as_secs_f64() * 1e3 - s.sweep_ms) / 1e3)
            .collect();
        let rss_kib = sweeps.iter().map(|s| s.finished.peak_rss_kib).max().unwrap_or(0);
        let sorted = stats::sorted(&walls);
        let p = cfg.workload.tail_percentile();
        detail.extend([
            ("setup_s_each", Content::Seq(setups.iter().map(|s| num(*s)).collect())),
            ("throughput_rps", num(walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3))),
            ("latency_p25_ms", num(stats::percentile(&sorted, 0.25))),
            ("latency_tail_percentile", num(p)),
            ("latency_tail_samples_beyond", int(stats::beyond(sorted.len(), p) as u64)),
        ]);
        vec![
            metric("latency_tail_ms", stats::percentile(&sorted, p), "ms"),
            metric("setup_s", stats::median(&setups), "s"),
            metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MiB"),
        ]
    };
    Ok(Outcome { correct: mismatched == 0, attempted, failed: mismatched, metrics, detail })
}
