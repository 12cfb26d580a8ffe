//! The 3-node cluster integration gate: an `rsnc` coordinator over real
//! spawned `rsnc-worker` processes must serve bytes identical to a single
//! node, survive a worker SIGKILL mid-campaign, degrade to a bounded
//! structured `503` when every worker is gone, tolerate a worker that is
//! dead at startup, and keep the loadgen harness at zero failed requests
//! under the cluster chaos schedule.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use robust_rsn::{AnalysisOptions, Parallelism};
use rsn_cluster::{ClusterConfig, ClusterControl, Coordinator};
use rsn_serve::chaos::Chaos;
use rsn_serve::http;
use rsn_serve::loadgen::{self, LoadgenConfig};
use rsn_serve::wire::{self, AnalyzeShardResponse, Deadline, ParsedNetwork};
use rsn_serve::{parse_error, Client, Endpoint, JobRequest};

fn demo_network() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/networks/soc_demo.rsn");
    std::fs::read_to_string(path).expect("read soc_demo.rsn")
}

fn analyze_job(seed: u64) -> JobRequest {
    JobRequest { network: Some(demo_network()), seed: Some(seed), ..Default::default() }
}

/// The single-node bytes for `job`, computed in-process through the same
/// `wire::execute` path the worker daemon uses.
fn single_node_bytes(endpoint: Endpoint, job: &JobRequest) -> String {
    let resolved = wire::resolve(endpoint, job).expect("resolve");
    wire::execute(&resolved, Parallelism::sequential(), &Deadline::none()).expect("execute")
}

/// A cluster config whose fleet spawns real `rsnc-worker` processes.
fn spawning_config(workers: usize) -> ClusterConfig {
    ClusterConfig {
        workers,
        worker_bin: Some(env!("CARGO_BIN_EXE_rsnc-worker").into()),
        health_interval: Duration::from_millis(100),
        ..ClusterConfig::default()
    }
}

/// Boots a coordinator, returning its address, a client, the operator
/// control handle, and a closure that shuts the cluster down and joins the
/// serving thread.
fn boot(config: ClusterConfig) -> (String, Client, ClusterControl, impl FnOnce()) {
    let coordinator = Coordinator::bind(config).expect("bind coordinator");
    let addr = coordinator.local_addr().to_string();
    let control = coordinator.control();
    let handle = coordinator.shutdown_handle();
    let thread = std::thread::spawn(move || coordinator.run());
    let stop = move || {
        handle.shutdown();
        thread.join().expect("coordinator thread").expect("coordinator run");
    };
    (addr.clone(), Client::new(addr), control, stop)
}

/// Polls the merged fleet metrics until `want` passes or the timeout
/// elapses.
fn wait_for_metrics(control: &ClusterControl, what: &str, want: impl Fn(&str) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = control.metrics_text();
        if want(&text) {
            return;
        }
        assert!(Instant::now() < deadline, "{what} never appeared in:\n{text}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The value of a metrics counter line like `rsnc_failovers_total 3`.
fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or(0)
}

/// An address that refuses connections: bind an ephemeral port, then drop
/// the listener.
fn dead_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    addr
}

/// Spawns a raw `rsnc-worker` on an ephemeral port for adoption tests,
/// returning the child and its bound address.
fn spawn_raw_worker() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rsnc-worker"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rsnc-worker");
    let stdout = child.stdout.take().expect("worker stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("worker banner");
    let addr = line
        .trim()
        .strip_prefix("rsnd listening on ")
        .unwrap_or_else(|| panic!("unexpected worker banner: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn cluster_responses_are_byte_identical_to_a_single_node() {
    // shard_threshold 1 forces every analyze through the fan-out/merge
    // path; harden and validate still route whole.
    let (_addr, client, control, stop) =
        boot(ClusterConfig { shard_threshold: 1, ..spawning_config(3) });

    let put = client.put_network(&demo_network()).expect("put network");
    assert_eq!(put.status, 200, "{}", put.body);
    let registered: wire::NetworkPutResponse =
        serde_json::from_str(&put.body).expect("parse put response");

    for (endpoint, job) in [
        (Endpoint::Analyze, analyze_job(7)),
        (Endpoint::Analyze, analyze_job(2022)),
        (
            Endpoint::Harden,
            JobRequest {
                network: Some(demo_network()),
                seed: Some(7),
                solver: Some("greedy".into()),
                ..Default::default()
            },
        ),
        (Endpoint::Validate, analyze_job(7)),
    ] {
        let response = client.submit(endpoint, &job).expect("submit");
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(
            response.body,
            single_node_bytes(endpoint, &job),
            "cluster and single-node bytes differ for {endpoint:?}"
        );
    }

    // Jobs referencing the registered hash resolve against the mirror and
    // still merge byte-identically.
    let by_hash = JobRequest {
        network_hash: Some(registered.network_hash),
        seed: Some(7),
        ..Default::default()
    };
    let response = client.submit(Endpoint::Analyze, &by_hash).expect("submit by hash");
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.body, single_node_bytes(Endpoint::Analyze, &analyze_job(7)));

    let metrics = control.metrics_text();
    assert!(counter(&metrics, "rsnc_shards_dispatched_total") >= 3, "{metrics}");
    assert_eq!(counter(&metrics, "rsnc_workers_up"), 3, "{metrics}");

    // A what-if routes whole to one worker, which builds its workspace and
    // sweeps once for the exclude (the undo restores). The coordinator sees
    // those sweeps in its next health scrape of that worker.
    let whatif =
        JobRequest { op: Some("exclude".into()), target: Some("boot".into()), ..analyze_job(7) };
    let response = client.submit(Endpoint::Whatif, &whatif).expect("submit whatif");
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.body, single_node_bytes(Endpoint::Whatif, &whatif));
    let modes = serde_json::from_str::<wire::WhatifResponse>(&response.body)
        .expect("parse whatif response")
        .recomputed_modes;
    wait_for_metrics(&control, "the worker's what-if sweeps", |text| {
        let swept: u64 = text
            .lines()
            .filter(|l| l.starts_with("rsnc_worker_whatif_modes_swept_total{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum();
        swept == 2 * modes
    });
    stop();
}

#[test]
fn rsnc_keeps_a_keep_alive_socket_open_and_says_so() {
    let (addr, _client, _control, stop) =
        boot(ClusterConfig { shard_threshold: 1, ..spawning_config(2) });
    let mut stream = http::connect(&addr, Duration::from_secs(60)).expect("connect rsnc");
    let mut buf = Vec::new();
    let mut exchange = |job: &JobRequest, close: bool| {
        let body = serde_json::to_string(job).expect("encode job");
        let request =
            http::encode_request("POST", "/v1/analyze", "application/json", body.as_bytes(), close);
        stream.write_all(&request).expect("write request");
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((response, consumed)) = http::parse_response_bytes(&buf).expect("frame") {
                buf.drain(..consumed);
                return response;
            }
            let n = stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "rsnc closed a keep-alive connection");
            buf.extend_from_slice(&chunk[..n]);
        }
    };
    let first = exchange(&analyze_job(7), false);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    assert_eq!(first.body, single_node_bytes(Endpoint::Analyze, &analyze_job(7)));
    let second = exchange(&analyze_job(2022), true);
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.header("connection"), Some("close"));
    assert_eq!(second.body, single_node_bytes(Endpoint::Analyze, &analyze_job(2022)));
    stop();
}

#[test]
fn a_worker_killed_mid_campaign_is_failed_over_and_respawned() {
    let (_addr, client, control, stop) =
        boot(ClusterConfig { shard_threshold: 1, ..spawning_config(3) });

    let expected: Vec<String> =
        (0..6).map(|seed| single_node_bytes(Endpoint::Analyze, &analyze_job(seed))).collect();

    for seed in 0..3u64 {
        let response = client.submit(Endpoint::Analyze, &analyze_job(seed)).expect("submit");
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.body, expected[seed as usize]);
    }

    // SIGKILL a live worker, then keep the campaign going immediately: the
    // shards routed at the dead slot must fail over to the survivors while
    // the health loop respawns it.
    let victim = control.fleet().into_iter().find(|w| w.up).expect("a live worker");
    control.kill_worker(victim.slot);
    for seed in 3..6u64 {
        let response = client.submit(Endpoint::Analyze, &analyze_job(seed)).expect("submit");
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.body, expected[seed as usize], "post-kill bytes diverged");
    }

    wait_for_metrics(&control, "a respawn and a full fleet", |text| {
        counter(text, "rsnc_worker_respawns_total") >= 1 && counter(text, "rsnc_workers_up") == 3
    });
    let metrics = control.metrics_text();
    let recovered = counter(&metrics, "rsnc_shards_retried_total")
        + counter(&metrics, "rsnc_failovers_total")
        + counter(&metrics, "rsnc_worker_respawns_total");
    assert!(recovered >= 1, "no recovery action recorded:\n{metrics}");
    assert_eq!(counter(&metrics, "rsnc_fleet_exhausted_total"), 0, "{metrics}");
    stop();
}

#[test]
fn an_exhausted_fleet_degrades_to_a_bounded_structured_503() {
    // Two adopted addresses that refuse connections: every dispatch fails
    // fast, the budget runs out, and the client gets a structured 503 —
    // never a hang.
    let config = ClusterConfig {
        adopt: vec![dead_addr(), dead_addr()],
        health_interval: Duration::from_millis(100),
        ..ClusterConfig::default()
    };
    let (_addr, client, _control, stop) = boot(config);

    let started = Instant::now();
    let response = client.submit(Endpoint::Analyze, &analyze_job(7)).expect("submit");
    let elapsed = started.elapsed();
    assert_eq!(response.status, 503, "{}", response.body);
    let err = parse_error(&response).expect("structured error envelope");
    assert_eq!(err.code, "fleet_exhausted", "{}", response.body);
    assert!(err.retryable, "fleet_exhausted must be retryable: {}", response.body);
    assert_eq!(response.header("retry-after"), Some("1"), "missing Retry-After");
    assert!(elapsed < Duration::from_secs(30), "503 took {elapsed:?}, not bounded");
    stop();
}

#[test]
fn a_worker_dead_at_startup_is_tolerated() {
    // Adopt two live workers and one address that was never up; jobs must
    // fail over past the corpse and the health loop must mark it down.
    let (mut child_a, addr_a) = spawn_raw_worker();
    let (mut child_b, addr_b) = spawn_raw_worker();
    let config = ClusterConfig {
        adopt: vec![dead_addr(), addr_a, addr_b],
        health_interval: Duration::from_millis(100),
        ..ClusterConfig::default()
    };
    let (_addr, client, control, stop) = boot(config);

    for seed in [7u64, 2022] {
        let job = analyze_job(seed);
        let response = client.submit(Endpoint::Analyze, &job).expect("submit");
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.body, single_node_bytes(Endpoint::Analyze, &job));
    }
    wait_for_metrics(&control, "the dead slot marked down", |text| {
        counter(text, "rsnc_workers_up") == 2
    });

    stop();
    let _ = child_a.kill();
    let _ = child_b.kill();
    let _ = child_a.wait();
    let _ = child_b.wait();
}

#[test]
fn chaos_loadgen_reports_zero_failed_requests() {
    // The cluster chaos schedule periodically SIGKILLs workers mid-shard,
    // drops coordinator->worker connections, and injects slow workers; the
    // replayable load harness must still see every request succeed.
    let chaos = Chaos::from_spec("seed=7,kill-worker=23,drop-conn=11,slow-worker=9,delay-ms=5")
        .expect("chaos spec");
    let config = ClusterConfig { chaos: Some(std::sync::Arc::new(chaos)), ..spawning_config(3) };
    let (addr, _client, control, stop) = boot(config);

    let report = loadgen::run(&LoadgenConfig {
        addr,
        network: demo_network(),
        requests: 60,
        connections: 3,
        seed: 2022,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");

    assert_eq!(report.transport_errors, 0, "transport failures under chaos: {report:?}");
    assert_eq!(report.errors, 0, "error responses under chaos: {report:?}");
    assert_eq!(report.ok, report.requests, "lost requests under chaos: {report:?}");

    let metrics = control.metrics_text();
    let injected = counter(&metrics, "rsnc_chaos_worker_kills_total")
        + counter(&metrics, "rsnc_chaos_conn_drops_total")
        + counter(&metrics, "rsnc_chaos_slow_workers_total");
    assert!(injected >= 1, "chaos schedule never fired:\n{metrics}");
    stop();
}

#[test]
fn shard_merge_is_deterministic_across_packings_and_thread_counts() {
    // Property: however the canonical mode table is cut into contiguous
    // shards, and whatever parallelism evaluates each shard, the merged
    // body is byte-identical to the whole single-node response.
    let text = demo_network();
    let job = analyze_job(2022);
    let resolved = wire::resolve(Endpoint::Analyze, &job).expect("resolve");
    let expected =
        wire::execute(&resolved, Parallelism::sequential(), &Deadline::none()).expect("execute");
    let parsed = ParsedNetwork::from_text(&text).expect("parse network");
    let options = AnalysisOptions { mode: resolved.mode, sib_policy: resolved.sib_policy };
    let total = robust_rsn::mode_count(&parsed.net, &options) as u64;
    assert!(total >= 4, "demo network too small for a meaningful split: {total}");

    // Deterministic pseudo-random cut points: a tiny LCG keyed off a fixed
    // state, so packings differ across cases without wall-clock randomness.
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut cuts = |parts: u64| -> Vec<(u64, u64)> {
        let mut points = vec![0, total];
        for _ in 1..parts {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            points.push(lcg % (total + 1));
        }
        points.sort_unstable();
        points.windows(2).map(|w| (w[0], w[1])).filter(|&(lo, hi)| lo < hi).collect()
    };

    for parts in [1u64, 2, 3, 4] {
        let ranges = cuts(parts);
        for threads in [1usize, 4] {
            let shards: Vec<AnalyzeShardResponse> = ranges
                .iter()
                .map(|&(lo, hi)| {
                    let shard_job =
                        JobRequest { mode_lo: Some(lo), mode_hi: Some(hi), ..analyze_job(2022) };
                    let shard_resolved =
                        wire::resolve(Endpoint::Analyze, &shard_job).expect("resolve shard");
                    let body = wire::execute(
                        &shard_resolved,
                        Parallelism::new(threads),
                        &Deadline::none(),
                    )
                    .expect("execute shard");
                    serde_json::from_str(&body).expect("parse shard response")
                })
                .collect();
            let merged =
                wire::merge_analyze_shards(&resolved, &parsed, &shards).expect("merge shards");
            assert_eq!(
                merged, expected,
                "merge diverged at parts={parts} threads={threads} ranges={ranges:?}"
            );
        }
    }
}

/// Reads the next framed response off a keep-alive stream, buffering any
/// bytes past it in `buf`.
fn next_response(stream: &mut std::net::TcpStream, buf: &mut Vec<u8>) -> http::Response {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some((response, consumed)) = http::parse_response_bytes(buf).expect("frame") {
            buf.drain(..consumed);
            return response;
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "rsnc closed the connection with a request unanswered");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn rsnc_answers_pipelined_requests_in_order() {
    let (addr, _client, _control, stop) =
        boot(ClusterConfig { shard_threshold: 1, ..spawning_config(2) });
    let jobs = [analyze_job(7), analyze_job(2022)];
    let mut batch = Vec::new();
    for job in &jobs {
        let body = serde_json::to_string(job).expect("encode job");
        batch.extend(http::encode_request(
            "POST",
            "/v1/analyze",
            "application/json",
            body.as_bytes(),
            false,
        ));
    }
    let mut stream = http::connect(&addr, Duration::from_secs(30)).expect("connect rsnc");
    // Both requests leave in one write, so they reach rsnc together.
    stream.write_all(&batch).expect("write both requests");
    let mut buf = Vec::new();
    for job in &jobs {
        let response = next_response(&mut stream, &mut buf);
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.body, single_node_bytes(Endpoint::Analyze, job));
    }
    stop();
}

#[test]
fn rsnc_answers_a_non_utf8_body_exactly_like_rsnd() {
    let server = rsn_serve::Server::bind(rsn_serve::ServerConfig::default()).expect("bind rsnd");
    let rsnd_addr = server.local_addr().to_string();
    let rsnd_handle = server.shutdown_handle();
    let rsnd = std::thread::spawn(move || server.run());
    let (rsnc_addr, _client, _control, stop) = boot(spawning_config(2));

    // A well-formed job whose network text carries a 0xFF byte inside a
    // `#` comment: lossy decoding would make it run.
    let marker = "not-utf8";
    let job = JobRequest {
        network: Some(format!("# {marker}\n{}", demo_network())),
        seed: Some(7),
        ..Default::default()
    };
    let json = serde_json::to_string(&job).expect("encode job");
    let mut body = json.clone().into_bytes();
    body[json.find(marker).expect("marker in the body")] = 0xFF;

    for (method, path) in [("PUT", "/v1/networks"), ("POST", "/v1/analyze")] {
        let exchange = |addr: &str| {
            let mut stream = http::connect(addr, Duration::from_secs(30)).expect("connect");
            let request = http::encode_request(method, path, "application/json", &body, true);
            stream.write_all(&request).expect("write request");
            http::read_response(&mut stream).expect("read response")
        };
        let (single, cluster) = (exchange(&rsnd_addr), exchange(&rsnc_addr));
        assert_eq!(single.status, 400, "{method} {path}: {}", single.body);
        let err = parse_error(&single).expect("structured error envelope");
        assert_eq!(err.code, "bad_request", "{}", single.body);
        assert_eq!(err.message, "body is not valid utf-8", "{}", single.body);
        assert_eq!(cluster.status, single.status, "{method} {path}: {}", cluster.body);
        assert_eq!(cluster.body, single.body, "{method} {path}");
    }
    stop();
    rsnd_handle.shutdown();
    rsnd.join().expect("rsnd thread").expect("rsnd run");
}

#[test]
fn rsnc_holds_a_burst_beyond_one_worker_queue_without_503() {
    // Two slow in-process workers: each forwarded job holds a coordinator
    // pool thread for 100 ms, so a burst lands in the coordinator's queue.
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let server = rsn_serve::Server::bind(rsn_serve::ServerConfig {
                worker_delay: Some(Duration::from_millis(100)),
                ..rsn_serve::ServerConfig::default()
            })
            .expect("bind worker");
            let addr = server.local_addr().to_string();
            let handle = server.shutdown_handle();
            (addr, handle, std::thread::spawn(move || server.run()))
        })
        .collect();
    let adopt = workers.iter().map(|(addr, _, _)| addr.clone()).collect();
    let (addr, _client, _control, stop) = boot(ClusterConfig { adopt, ..ClusterConfig::default() });

    // More than the coordinator's pool plus one worker's queue, and no
    // more than the two workers' pools and queues hold.
    let defaults = rsn_serve::ServerConfig::default();
    let burst = 2 * defaults.workers.threads() + defaults.queue_capacity + 16;
    let job = analyze_job(7);
    let body = serde_json::to_string(&job).expect("encode job");
    let request =
        http::encode_request("POST", "/v1/analyze", "application/json", body.as_bytes(), true);
    let mut streams: Vec<_> = (0..burst)
        .map(|_| {
            let mut stream = http::connect(&addr, Duration::from_secs(60)).expect("connect rsnc");
            stream.write_all(&request).expect("write request");
            stream
        })
        .collect();
    let want = single_node_bytes(Endpoint::Analyze, &job);
    for stream in &mut streams {
        let response = http::read_response(stream).expect("read response");
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.body, want);
    }
    stop();
    for (_, handle, thread) in workers {
        handle.shutdown();
        thread.join().expect("worker thread").expect("worker run");
    }
}

#[test]
fn a_streamed_put_is_registered_before_the_next_pipelined_request() {
    let server = rsn_serve::Server::bind(rsn_serve::ServerConfig::default()).expect("bind rsnd");
    let rsnd_addr = server.local_addr().to_string();
    let rsnd_handle = server.shutdown_handle();
    let rsnd = std::thread::spawn(move || server.run());
    let (rsnc_addr, _client, _control, stop) = boot(spawning_config(2));

    let text = demo_network();
    let hash = ParsedNetwork::from_text(&text).expect("parse network").hash.to_hex();
    let by_hash =
        JobRequest { network_hash: Some(hash.clone()), seed: Some(7), ..Default::default() };
    let mut batch =
        http::encode_request("PUT", "/v1/networks", "text/plain", text.as_bytes(), false);
    let body = serde_json::to_string(&by_hash).expect("encode job");
    batch.extend(http::encode_request(
        "POST",
        "/v1/analyze",
        "application/json",
        body.as_bytes(),
        false,
    ));
    for addr in [&rsnd_addr, &rsnc_addr] {
        let mut stream = http::connect(addr, Duration::from_secs(30)).expect("connect");
        // The upload and the job that names it leave in one write.
        stream.write_all(&batch).expect("write both requests");
        let mut buf = Vec::new();
        let put = next_response(&mut stream, &mut buf);
        assert_eq!(put.status, 200, "{addr}: {}", put.body);
        assert!(put.body.contains(&hash), "{addr}: {}", put.body);
        let analyzed = next_response(&mut stream, &mut buf);
        assert_eq!(analyzed.status, 200, "{addr}: {}", analyzed.body);
        assert_eq!(analyzed.body, single_node_bytes(Endpoint::Analyze, &analyze_job(7)));
    }
    stop();
    rsnd_handle.shutdown();
    rsnd.join().expect("rsnd thread").expect("rsnd run");
}
