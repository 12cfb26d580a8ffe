//! End-to-end tests of the `rsnd` analysis daemon on an ephemeral loopback
//! port: wire-format equivalence with the in-process session, the cache-hit
//! path, queue backpressure, graceful drain, and the daemon binary itself.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use robust_rsn::Parallelism;
use rsn_serve::wire::{self, Deadline};
use rsn_serve::{Client, Endpoint, JobRequest, Server, ServerConfig, WhatifResponse};

fn demo_network() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/networks/soc_demo.rsn");
    std::fs::read_to_string(path).expect("read soc_demo.rsn")
}

fn analyze_job(seed: u64) -> JobRequest {
    JobRequest { network: Some(demo_network()), seed: Some(seed), ..Default::default() }
}

/// Boots a server on an ephemeral port, returning its address, client, and a
/// closure that shuts it down and joins the serving thread.
fn boot(config: ServerConfig) -> (Client, rsn_serve::ShutdownHandle, impl FnOnce()) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    let stop = {
        let handle = handle.clone();
        move || {
            handle.shutdown();
            thread.join().expect("server thread").expect("server run");
        }
    };
    (Client::new(addr), handle, stop)
}

/// Polls `/metrics` until `line` appears or the timeout elapses.
fn wait_for_metric(client: &Client, line: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = client.metrics_text().expect("fetch metrics");
        if text.lines().any(|l| l == line) {
            return;
        }
        assert!(Instant::now() < deadline, "metric {line:?} never appeared in:\n{text}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn daemon_response_is_byte_identical_to_in_process_session() {
    let (client, _handle, stop) = boot(ServerConfig::default());
    for (endpoint, job) in [
        (Endpoint::Analyze, analyze_job(7)),
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
        let resolved = wire::resolve(endpoint, &job).expect("resolve");
        let expected = wire::execute(&resolved, Parallelism::sequential(), &Deadline::none())
            .expect("execute");
        assert_eq!(response.body, expected, "daemon and in-process bytes differ");
    }
    stop();
}

#[test]
fn validate_endpoint_serves_a_clean_cached_campaign_report() {
    let (client, _handle, stop) = boot(ServerConfig::default());
    let job = analyze_job(2022);
    let first = client.submit(Endpoint::Validate, &job).expect("first submit");
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-cache"), Some("miss"));
    let report: robust_rsn::ValidationReport =
        serde_json::from_str(&first.body).expect("parse report");
    assert!(report.is_clean(), "campaign disagreed with the analysis: {report:?}");
    assert!(report.simulated_modes > 0);
    assert_eq!(report.analysis_total_damage, report.operational_total_damage);
    let second = client.submit(Endpoint::Validate, &job).expect("second submit");
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cached campaign report must be byte-identical");
    let metrics = client.metrics_text().expect("metrics");
    for line in [
        "rsnd_requests_total{endpoint=\"validate\"} 2",
        "rsnd_request_latency_ms_bucket{endpoint=\"validate\",le=\"+Inf\"} 2",
        "rsnd_request_latency_ms_count{endpoint=\"validate\"} 2",
    ] {
        assert!(metrics.lines().any(|l| l == line), "missing {line:?} in:\n{metrics}");
    }
    stop();
}

#[test]
fn identical_submissions_hit_the_cache_with_identical_bytes() {
    let (client, _handle, stop) = boot(ServerConfig::default());
    let job = analyze_job(2022);
    let first = client.submit(Endpoint::Analyze, &job).expect("first submit");
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-cache"), Some("miss"));
    let second = client.submit(Endpoint::Analyze, &job).expect("second submit");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cached response must be byte-identical");

    let metrics = client.metrics_text().expect("metrics");
    assert!(metrics.contains("rsnd_cache_hits_total 1"), "{metrics}");
    assert!(metrics.contains("rsnd_cache_misses_total 1"), "{metrics}");
    stop();
}

#[test]
fn full_queue_returns_503_with_retry_after() {
    let config = ServerConfig {
        workers: Parallelism::new(1),
        queue_capacity: 1,
        cache_capacity: 0,
        // One job occupies the single worker for a full second while a second
        // waits in the single queue slot, making the third submission's 503
        // deterministic.
        worker_delay: Some(Duration::from_millis(1000)),
        ..ServerConfig::default()
    };
    let (client, _handle, stop) = boot(config);

    let mut slow = Vec::new();
    for i in 0..2_u64 {
        let submitter = {
            let client = client.clone();
            std::thread::spawn(move || client.submit(Endpoint::Analyze, &analyze_job(i)))
        };
        slow.push(submitter);
        // Give the (idle) worker time to pop job 0 before job 1 is queued;
        // it then holds job 0 for the full worker delay.
        if i == 0 {
            std::thread::sleep(Duration::from_millis(300));
        }
    }
    // Job 0 is being processed, job 1 sits in the queue: depth 1.
    wait_for_metric(&client, "rsnd_queue_depth 1");

    let rejected = client.submit(Endpoint::Analyze, &analyze_job(99)).expect("third submit");
    assert_eq!(rejected.status, 503, "{}", rejected.body);
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert!(rejected.body.contains("\"code\":\"overloaded\""), "{}", rejected.body);

    for handle in slow {
        let response = handle.join().expect("submitter thread").expect("slow submit");
        assert_eq!(response.status, 200, "{}", response.body);
    }
    let metrics = client.metrics_text().expect("metrics");
    assert!(metrics.contains("rsnd_queue_rejected_total 1"), "{metrics}");
    stop();
}

#[test]
fn graceful_shutdown_drains_in_flight_jobs() {
    let config = ServerConfig {
        workers: Parallelism::new(1),
        worker_delay: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    };
    let (client, handle, stop) = boot(config);

    let submitter = {
        let client = client.clone();
        std::thread::spawn(move || client.submit(Endpoint::Analyze, &analyze_job(1)))
    };
    // Once the request is counted it is en route to the queue; shutdown must
    // still drain it.
    wait_for_metric(&client, "rsnd_requests_total{endpoint=\"analyze\"} 1");
    handle.shutdown();
    stop();

    let response = submitter.join().expect("submitter thread").expect("submit during shutdown");
    assert_eq!(response.status, 200, "drained job must still be answered: {}", response.body);
}

#[test]
fn metrics_expose_requests_latency_and_cache_rates() {
    let (client, _handle, stop) = boot(ServerConfig::default());
    let job = analyze_job(3);
    let count = |text: &str, name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
    };
    // The kernel counters are process-wide (the daemon runs in this
    // process, and other tests only add to them), so the first, uncached
    // analyze must move every one the scrape renders.
    let k = robust_rsn::kernel_counters();
    let before = [k.modes, k.blocks, k.articulation_blocks, k.nodes_relaxed];
    for _ in 0..2 {
        let response = client.submit(Endpoint::Analyze, &job).expect("submit");
        assert_eq!(response.status, 200);
    }
    let metrics = client.metrics_text().expect("metrics");
    let after = ["modes", "blocks", "articulation_blocks", "nodes_relaxed"]
        .map(|k| count(&metrics, &format!("rsnd_kernel_{k}_total")));
    for (k, (b, a)) in before.iter().zip(&after).enumerate() {
        assert!(a > b, "kernel counter {k} did not move: {before:?} -> {after:?}");
    }
    let [modes, blocks, chain, _] = [0, 1, 2, 3].map(|k| after[k] - before[k]);
    assert!(modes >= blocks && blocks >= chain, "{before:?} -> {after:?}");
    for line in [
        "rsnd_requests_total{endpoint=\"analyze\"} 2",
        "rsnd_responses_total{status=\"200\"} 2",
        "rsnd_queue_depth 0",
        "rsnd_cache_hit_rate 0.5000",
        "rsnd_request_latency_ms_bucket{endpoint=\"analyze\",le=\"+Inf\"} 2",
        "rsnd_request_latency_ms_count{endpoint=\"analyze\"} 2",
    ] {
        assert!(metrics.lines().any(|l| l == line), "missing {line:?} in:\n{metrics}");
    }
    // The write path counts: both answers went out in at least one write
    // each, and the scrape's own answer moves both counters on.
    let body = client.submit(Endpoint::Analyze, &job).expect("submit").body;
    let (writes, bytes) =
        (count(&metrics, "rsnd_socket_writes_total"), count(&metrics, "rsnd_response_bytes_total"));
    assert!(writes >= 2 && bytes > 2 * body.len() as u64, "{writes} writes, {bytes} bytes");
    let later = client.metrics_text().expect("metrics");
    assert!(count(&later, "rsnd_socket_writes_total") >= writes + 2, "{later}");
    let moved = count(&later, "rsnd_response_bytes_total") - bytes;
    assert!(moved > (body.len() + metrics.len()) as u64, "{moved} bytes for two answers");

    // The what-if sweep counter: the workspace build sweeps every mode, each
    // exclude sweeps them once more, and its undo restores without a sweep.
    let swept = || count(&client.metrics_text().expect("metrics"), "rsnd_whatif_modes_swept_total");
    assert_eq!(swept(), 0, "no what-if yet");
    let exclude = |target: &str| {
        let job = JobRequest {
            op: Some("exclude".into()),
            target: Some(target.into()),
            ..analyze_job(3)
        };
        let response = client.submit(Endpoint::Whatif, &job).expect("whatif");
        assert_eq!(response.status, 200, "{}", response.body);
        serde_json::from_str::<WhatifResponse>(&response.body)
            .expect("whatif body")
            .recomputed_modes
    };
    let modes = exclude("boot");
    assert!(modes > 0);
    assert_eq!(swept(), 2 * modes, "build + exclude; the undo swept nothing");
    assert_eq!(exclude("status"), modes);
    assert_eq!(swept(), 3 * modes, "one sweep per exclude on the warm workspace");

    // The analyses and what-ifs above share one network and SIB policy, so
    // they built one analysis plan between them; twenty more analyses under
    // fresh specs (each a result-cache miss that sweeps) build no other.
    let plans =
        || count(&client.metrics_text().expect("metrics"), "rsnd_analysis_plans_built_total");
    assert_eq!(plans(), 1, "the first analyze built the plan");
    for seed in 100..120 {
        let response = client.submit(Endpoint::Analyze, &analyze_job(seed)).expect("submit");
        assert_eq!(response.status, 200);
    }
    assert_eq!(plans(), 1, "twenty analyses on one network reuse its plan");
    stop();
}

#[test]
fn bad_requests_get_structured_json_errors() {
    let (client, _handle, stop) = boot(ServerConfig::default());

    let response = client.request("POST", "/v1/analyze", "{not json").expect("request");
    assert_eq!(response.status, 400);
    assert!(response.body.contains("\"code\":\"bad_request\""), "{}", response.body);

    let job = JobRequest { network: Some("network broken {".into()), ..Default::default() };
    let response = client.submit(Endpoint::Analyze, &job).expect("submit");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("\"code\":\"bad_network\""), "{}", response.body);

    let response = client.get("/nope").expect("request");
    assert_eq!(response.status, 404);
    assert!(response.body.contains("\"code\":\"not_found\""), "{}", response.body);

    let response = client.request("PUT", "/v1/analyze", "{}").expect("request");
    assert_eq!(response.status, 405);
    stop();
}

/// A valid network whose source text exceeds `bytes` — enough flat segments
/// to push the printed text past any small body cap.
fn oversized_network_text(bytes: usize) -> String {
    let mut text = String::from("network giant {\n");
    let mut i = 0;
    while text.len() <= bytes + 64 {
        text.push_str(&format!("  seg s{i} len=3 instrument(kind=sensor);\n"));
        i += 1;
    }
    text.push('}');
    text
}

#[test]
fn streaming_put_bypasses_the_json_body_limit() {
    let config = ServerConfig { max_body_bytes: 4096, ..ServerConfig::default() };
    let (client, _handle, stop) = boot(config);
    let text = oversized_network_text(4096);

    // The buffered JSON path is still subject to the body cap.
    let rejected = client.put_network(&text).expect("json put");
    assert_eq!(rejected.status, 413, "{}", rejected.body);

    // The streamed text/plain path parses incrementally and succeeds.
    let accepted = client.put_network_streaming(&text).expect("streaming put");
    assert_eq!(accepted.status, 200, "{}", accepted.body);
    let put: rsn_serve::wire::NetworkPutResponse =
        serde_json::from_str(&accepted.body).expect("parse put response");
    assert_eq!(put.name, "giant");
    assert!(put.nodes > 0);

    // The registered network is immediately addressable by hash.
    let job = JobRequest {
        network_hash: Some(put.network_hash.clone()),
        seed: Some(7),
        ..Default::default()
    };
    let analyzed = client.submit(Endpoint::Analyze, &job).expect("analyze by hash");
    assert_eq!(analyzed.status, 200, "{}", analyzed.body);

    // Streamed registration is idempotent and hash-stable.
    let again = client.put_network_streaming(&text).expect("second streaming put");
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(again.body, accepted.body, "re-upload must be byte-identical");
    stop();
}

#[test]
fn streamed_upload_hash_matches_the_buffered_path() {
    let (client, _handle, stop) = boot(ServerConfig::default());
    let text = demo_network();
    let buffered = client.put_network(&text).expect("json put");
    assert_eq!(buffered.status, 200, "{}", buffered.body);
    let streamed = client.put_network_streaming(&text).expect("streaming put");
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    let a: rsn_serve::wire::NetworkPutResponse =
        serde_json::from_str(&buffered.body).expect("parse buffered");
    let b: rsn_serve::wire::NetworkPutResponse =
        serde_json::from_str(&streamed.body).expect("parse streamed");
    assert_eq!(a.network_hash, b.network_hash, "canonical hash must not depend on the path");
    stop();
}

/// The text of p93791, the largest Table I design (~150 KB): big enough that
/// a JSON decoder slower than linear in string length shows.
fn p93791_network() -> String {
    let spec = rsn_benchmarks::by_name("p93791").expect("p93791 is a Table I design");
    rsn_model::format::print_network(spec.name, &spec.generate())
}

#[test]
fn inline_p93791_analyze_matches_the_same_job_by_hash() {
    let (client, _handle, stop) = boot(ServerConfig::default());
    let text = p93791_network();
    let inline = JobRequest { network: Some(text.clone()), seed: Some(7), ..Default::default() };
    let by_inline = client.submit(Endpoint::Analyze, &inline).expect("inline analyze");
    assert_eq!(by_inline.status, 200, "{}", by_inline.body);

    let put = client.put_network_streaming(&text).expect("streaming put");
    assert_eq!(put.status, 200, "{}", put.body);
    let put: rsn_serve::wire::NetworkPutResponse =
        serde_json::from_str(&put.body).expect("parse put response");
    let job =
        JobRequest { network_hash: Some(put.network_hash), seed: Some(7), ..Default::default() };
    let by_hash = client.submit(Endpoint::Analyze, &job).expect("analyze by hash");
    assert_eq!(by_hash.status, 200, "{}", by_hash.body);
    assert_eq!(by_inline.body, by_hash.body, "inline and by-hash answers must be byte-identical");
    stop();
}

#[test]
fn json_put_of_p93791_hashes_like_the_streamed_put() {
    let (client, _handle, stop) = boot(ServerConfig::default());
    let text = p93791_network();
    let buffered = client.put_network(&text).expect("json put");
    assert_eq!(buffered.status, 200, "{}", buffered.body);
    let streamed = client.put_network_streaming(&text).expect("streaming put");
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    let a: rsn_serve::wire::NetworkPutResponse =
        serde_json::from_str(&buffered.body).expect("parse buffered");
    let b: rsn_serve::wire::NetworkPutResponse =
        serde_json::from_str(&streamed.body).expect("parse streamed");
    assert_eq!(a.network_hash, b.network_hash);
    stop();
}

#[test]
fn malformed_streamed_uploads_get_a_structured_400() {
    let (client, _handle, stop) = boot(ServerConfig::default());
    let response =
        client.put_network_streaming("network broken { seg x len=").expect("streaming put");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("\"code\":\"bad_network\""), "{}", response.body);
    // The daemon stays healthy after a failed streamed upload.
    let ok = client.submit(Endpoint::Analyze, &analyze_job(1)).expect("submit");
    assert_eq!(ok.status, 200, "{}", ok.body);
    stop();
}

#[test]
fn concurrent_whatif_misses_build_one_workspace() {
    let config = ServerConfig { workers: Parallelism::new(4), ..ServerConfig::default() };
    let (client, _handle, stop) = boot(config);
    let targets = ["mbist0", "mbist1", "dco", "boot", "status", "lane0", "lane1", "core0.cell"];
    // Eight what-ifs of one session at once: the first miss builds the
    // workspace while the others wait for it instead of building their own.
    std::thread::scope(|scope| {
        for target in targets {
            let client = client.clone();
            scope.spawn(move || {
                let job = JobRequest {
                    network: Some(demo_network()),
                    seed: Some(11),
                    op: Some("harden".into()),
                    target: Some(target.into()),
                    ..Default::default()
                };
                let response = client.submit(Endpoint::Whatif, &job).expect("whatif");
                assert_eq!(response.status, 200, "{}", response.body);
            });
        }
    });
    let metrics = client.metrics_text().expect("metrics");
    assert!(metrics.contains("rsnd_workspace_cache_misses_total 1"), "{metrics}");
    let hits = metrics.lines().find_map(|l| l.strip_prefix("rsnd_workspace_cache_hits_total "));
    let cached = metrics.lines().find_map(|l| l.strip_prefix("rsnd_cache_hits_total "));
    let (hits, cached): (u64, u64) =
        (hits.unwrap().parse().unwrap(), cached.unwrap().parse().unwrap());
    assert_eq!(hits + cached + 1, targets.len() as u64, "every other what-if reused it: {metrics}");
    stop();
}

#[test]
fn whatif_reuses_a_warm_workspace_across_requests() {
    let (client, _handle, stop) = boot(ServerConfig::default());
    let job = |target: &str| JobRequest {
        network: Some(demo_network()),
        seed: Some(7),
        op: Some("harden".into()),
        target: Some(target.into()),
        ..Default::default()
    };

    // Two different what-ifs against the same network: the first parses and
    // fully sweeps, the second answers from the warm workspace.
    let first = client.submit(Endpoint::Whatif, &job("mbist0")).expect("first whatif");
    assert_eq!(first.status, 200, "{}", first.body);
    let second = client.submit(Endpoint::Whatif, &job("mbist1")).expect("second whatif");
    assert_eq!(second.status, 200, "{}", second.body);
    assert_ne!(first.body, second.body, "different targets, different answers");
    let metrics = client.metrics_text().expect("metrics");
    assert!(metrics.contains("rsnd_workspace_cache_hits_total 1"), "{metrics}");
    assert!(metrics.contains("rsnd_workspace_cache_misses_total 1"), "{metrics}");

    // The daemon's answer is byte-identical to the in-process uncached path,
    // and a repeated submission is a byte-identical result-cache hit.
    let resolved = wire::resolve(Endpoint::Whatif, &job("mbist0")).expect("resolve");
    let expected =
        wire::execute(&resolved, Parallelism::sequential(), &Deadline::none()).expect("execute");
    assert_eq!(first.body, expected, "daemon and in-process whatif bytes differ");
    let replay = client.submit(Endpoint::Whatif, &job("mbist0")).expect("replay whatif");
    assert_eq!(replay.header("x-cache"), Some("hit"));
    assert_eq!(replay.body, first.body);
    stop();
}

#[test]
fn whatif_errors_carry_the_structured_retryable_body() {
    let (client, _handle, stop) = boot(ServerConfig::default());
    let job = JobRequest {
        network: Some(demo_network()),
        op: Some("harden".into()),
        target: Some("no_such_node".into()),
        ..Default::default()
    };
    let response = client.submit(Endpoint::Whatif, &job).expect("whatif");
    assert_eq!(response.status, 404, "{}", response.body);
    let err = rsn_serve::parse_error(&response).expect("structured error body");
    assert_eq!(err.code, "unknown_target");
    assert!(!err.retryable);

    // A whatif without an op is rejected at resolve time, same envelope.
    let bare = JobRequest { network: Some(demo_network()), ..Default::default() };
    let response = client.submit(Endpoint::Whatif, &bare).expect("whatif");
    assert_eq!(response.status, 400, "{}", response.body);
    let err = rsn_serve::parse_error(&response).expect("structured error body");
    assert_eq!(err.code, "bad_request");
    assert!(!err.retryable);
    stop();
}

#[cfg(unix)]
#[test]
fn rsnd_binary_serves_and_exits_cleanly_on_sigterm() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_rsnd"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn rsnd");
    let stdout = daemon.stdout.take().expect("rsnd stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").expect("read banner");
    let addr = banner.strip_prefix("rsnd listening on ").expect("banner format").to_string();

    let client = Client::new(addr);
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let response = client.submit(Endpoint::Analyze, &analyze_job(5)).expect("submit");
    assert_eq!(response.status, 200, "{}", response.body);

    let kill =
        Command::new("kill").args(["-TERM", &daemon.id().to_string()]).status().expect("run kill");
    assert!(kill.success());
    let status = daemon.wait().expect("wait for rsnd");
    assert!(status.success(), "rsnd exited with {status:?}");
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(rest.iter().any(|l| l == "rsnd shut down cleanly"), "{rest:?}");
}
