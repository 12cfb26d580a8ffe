//! Chaos harness for the `rsnd` serving stack: a seeded, deterministic
//! fault schedule (worker panics, worker aborts, slow socket reads/writes,
//! queue stalls — see `rsn_serve::chaos`) is injected into a live daemon
//! while real jobs flow through it. The daemon must never die, every
//! *successful* response must stay byte-identical to a fault-free run, a
//! mid-flight SIGTERM must still drain cleanly, and the resilience counters
//! must account for every injected fault.
//!
//! Also home of the mid-kernel deadline-enforcement tests: a tiny
//! `timeout_ms` on a large design must come back 408 within bounded
//! wall-clock lag at any thread count, because the request deadline is
//! threaded into the analysis itself as a `CancelToken` rather than only
//! checked between pipeline stages.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use robust_rsn::Parallelism;
use rsn_serve::chaos::Chaos;
use rsn_serve::wire::{self, Deadline};
use rsn_serve::{Client, Endpoint, JobRequest, RetryPolicy, Server, ServerConfig};

fn demo_network() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/networks/soc_demo.rsn");
    std::fs::read_to_string(path).expect("read soc_demo.rsn")
}

/// The textual form of a registered Table I design, generated once.
fn design_text(name: &str) -> String {
    let spec = rsn_benchmarks::by_name(name).expect("registered design");
    rsn_model::format::print_network(name, &spec.generate())
}

/// The largest bundled design (p93791: ~3.5k segments, ~294k cells).
fn largest_design() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| design_text("p93791"))
}

fn analyze_job(seed: u64) -> JobRequest {
    JobRequest { network: Some(demo_network()), seed: Some(seed), ..Default::default() }
}

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

fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{metrics}"))
}

/// The tentpole end-to-end: a chaotic daemon keeps serving, successful
/// responses are byte-identical to a fault-free computation, the injected
/// faults all show up in `/metrics`, and shutdown still drains.
#[test]
fn chaotic_daemon_survives_and_successful_responses_are_fault_free_bytes() {
    let chaos =
        Chaos::from_spec("seed=7,panic=4,abort=6,slow-read=5,slow-write=5,stall=4,delay-ms=10")
            .expect("chaos spec");
    let config = ServerConfig {
        workers: Parallelism::new(2),
        cache_capacity: 0, // force every job through the full pipeline
        chaos: Some(Arc::new(chaos)),
        ..ServerConfig::default()
    };
    let (client, _handle, stop) = boot(config);

    // Fault-free reference bytes, computed in-process (execution is
    // deterministic, so this is exactly what a quiet daemon would serve).
    let seeds: Vec<u64> = (0..16).collect();
    let expected: Vec<String> = seeds
        .iter()
        .map(|&seed| {
            let resolved = wire::resolve(Endpoint::Analyze, &analyze_job(seed)).expect("resolve");
            wire::execute(&resolved, Parallelism::sequential(), &Deadline::none())
                .expect("fault-free execute")
        })
        .collect();

    let mut successes = 0;
    let mut failures = 0;
    for (&seed, expected_body) in seeds.iter().zip(&expected) {
        let response = client.submit(Endpoint::Analyze, &analyze_job(seed)).expect("submit");
        match response.status {
            200 => {
                assert_eq!(
                    response.body, *expected_body,
                    "seed {seed}: successful response diverged from the fault-free bytes"
                );
                successes += 1;
            }
            500 => {
                assert!(
                    response.body.contains("\"code\":\"internal_error\""),
                    "seed {seed}: panic not isolated to a structured 500: {}",
                    response.body
                );
                failures += 1;
            }
            other => panic!("seed {seed}: unexpected status {other}: {}", response.body),
        }
    }
    assert!(successes > 0, "chaos drowned every request");
    assert!(failures > 0, "the panic schedule never fired — chaos is not reaching jobs");

    // The daemon is still alive and accounted for every injected fault.
    let health = client.get("/healthz").expect("healthz after chaos");
    assert_eq!(health.status, 200);
    let metrics = client.metrics_text().expect("metrics");
    assert!(metric_value(&metrics, "rsnd_jobs_panicked_total") > 0, "{metrics}");
    assert!(metric_value(&metrics, "rsnd_workers_respawned_total") > 0, "{metrics}");

    // Graceful drain still completes under chaos.
    stop();
}

/// Truncated socket writes from a client (half a request head, then a hard
/// close) never kill the daemon.
#[test]
fn truncated_requests_do_not_kill_the_daemon() {
    let chaos = Chaos::from_spec("seed=3,slow-read=2,delay-ms=5").expect("chaos spec");
    let config = ServerConfig { chaos: Some(Arc::new(chaos)), ..ServerConfig::default() };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    for i in 0..4 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        // Write a truncated head (no terminating blank line) and slam shut.
        let partial = format!("POST /v1/analyze HTTP/1.1\r\nContent-Length: {}\r\n", 100 + i);
        stream.write_all(partial.as_bytes()).expect("partial write");
        drop(stream);
    }
    let client = Client::new(addr);
    let health = client.get("/healthz").expect("healthz after truncated requests");
    assert_eq!(health.status, 200);
    let response = client.submit(Endpoint::Analyze, &analyze_job(1)).expect("real job");
    assert_eq!(response.status, 200, "{}", response.body);

    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
}

/// 503 retry: a saturated daemon sends `Retry-After`, and
/// `submit_with_retry` lands the job on a later attempt, surfacing the
/// attempt count.
#[test]
fn retry_with_backoff_rides_out_queue_saturation() {
    let config = ServerConfig {
        workers: Parallelism::new(1),
        queue_capacity: 1,
        cache_capacity: 0,
        worker_delay: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    };
    let (client, _handle, stop) = boot(config);

    // Saturate: one job occupies the worker, one fills the queue slot.
    let mut slow = Vec::new();
    for i in 0..2_u64 {
        let submitter = {
            let client = client.clone();
            std::thread::spawn(move || client.submit(Endpoint::Analyze, &analyze_job(i)))
        };
        slow.push(submitter);
        std::thread::sleep(Duration::from_millis(150));
    }

    let policy = RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(100),
        jitter_seed: 9,
        ..RetryPolicy::default()
    };
    let outcome = client
        .submit_with_retry(Endpoint::Analyze, &analyze_job(99), &policy)
        .expect("retried submit");
    assert_eq!(outcome.response.status, 200, "{}", outcome.response.body);
    assert!(outcome.attempts > 1, "the first attempt should have seen a 503");

    for handle in slow {
        let response = handle.join().expect("submitter").expect("slow submit");
        assert_eq!(response.status, 200, "{}", response.body);
    }
    stop();
}

/// Satellite (c): a tiny `timeout_ms` analyze of the largest bundled design
/// returns 408 within bounded wall-clock lag, at one worker-internal thread
/// and at four — the deadline is enforced *inside* the analysis via the
/// session's CancelToken, not just between pipeline stages.
#[test]
fn tiny_timeout_on_the_largest_design_returns_408_in_bounded_time() {
    let job = JobRequest {
        network: Some(largest_design().to_string()),
        timeout_ms: Some(1),
        ..Default::default()
    };
    for threads in [1usize, 4] {
        let config = ServerConfig {
            workers: Parallelism::new(1),
            analysis_threads: Parallelism::new(threads),
            cache_capacity: 0,
            ..ServerConfig::default()
        };
        let (client, _handle, stop) = boot(config);
        let started = Instant::now();
        let response = client.submit(Endpoint::Analyze, &job).expect("submit");
        let elapsed = started.elapsed();
        assert_eq!(response.status, 408, "threads {threads}: {}", response.body);
        assert!(
            response.body.contains("\"code\":\"deadline_exceeded\""),
            "threads {threads}: {}",
            response.body
        );
        // Bounded lag: orders of magnitude under the full analysis, even in
        // debug builds on loaded CI machines.
        assert!(elapsed < Duration::from_secs(30), "threads {threads}: 408 took {elapsed:?}");
        let metrics = client.metrics_text().expect("metrics");
        assert!(metric_value(&metrics, "rsnd_jobs_cancelled_total") > 0, "{metrics}");
        stop();
    }
}

/// The mid-kernel proof: a validate campaign on the largest design is
/// interrupted *inside* the sharded sweep by a deadline that only expires
/// once the campaign is already running. The full p93791 campaign takes
/// seconds even in a release build (about 8.7 s at one thread on a 2-vCPU
/// host), so a 300 ms deadline always lands mid-campaign; the smaller
/// p34392 campaign finished inside it in release builds.
#[test]
fn deadline_expiring_mid_campaign_interrupts_the_sweep() {
    let job = JobRequest {
        network: Some(largest_design().to_string()),
        timeout_ms: Some(300),
        ..Default::default()
    };
    for threads in [1usize, 4] {
        let config = ServerConfig {
            workers: Parallelism::new(1),
            analysis_threads: Parallelism::new(threads),
            cache_capacity: 0,
            ..ServerConfig::default()
        };
        let (client, _handle, stop) = boot(config);
        let started = Instant::now();
        let response = client.submit(Endpoint::Validate, &job).expect("submit");
        let elapsed = started.elapsed();
        assert_eq!(response.status, 408, "threads {threads}: {}", response.body);
        // The kernel's cancel token, not a between-stages check, fired.
        assert!(
            response.body.contains("request deadline exceeded (analysis)"),
            "threads {threads}: {}",
            response.body
        );
        // Bounded lag, even in debug builds on loaded machines.
        assert!(elapsed < Duration::from_secs(60), "threads {threads}: 408 took {elapsed:?}");
        stop();
    }
}

/// Mid-flight SIGTERM into a live chaotic `rsnd` binary: the daemon drains
/// what it accepted and exits cleanly, and the resilience counters are
/// visible over the wire before shutdown.
#[cfg(unix)]
#[test]
fn sigterm_into_a_live_chaotic_daemon_drains_cleanly() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_rsnd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--chaos",
            "seed=11,panic=3,abort=5,stall=3,delay-ms=20",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rsnd");
    let stdout = daemon.stdout.take().expect("rsnd stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").expect("read banner");
    let addr = banner.strip_prefix("rsnd listening on ").expect("banner format").to_string();
    let client = Client::new(addr);

    // Concurrent normal jobs, some of which the panic schedule will eat.
    let mut submitters = Vec::new();
    for seed in 0..10_u64 {
        let client = client.clone();
        submitters
            .push(std::thread::spawn(move || client.submit(Endpoint::Analyze, &analyze_job(seed))));
    }
    let responses: Vec<_> = submitters
        .into_iter()
        .map(|s| s.join().expect("submitter").expect("submit to live daemon"))
        .collect();
    assert!(responses.iter().any(|r| r.status == 200), "no job survived the chaos");
    assert!(responses.iter().all(|r| matches!(r.status, 200 | 500 | 503)));

    // Tiny-deadline jobs on the largest design tick the cancelled counter.
    // They go one at a time: the panic schedule (period 3) eats at most one
    // of any three consecutive jobs, so three tries must see a 408.
    let expired = (0..3).any(|_| {
        let job = JobRequest {
            network: Some(largest_design().to_string()),
            timeout_ms: Some(1),
            ..analyze_job(0)
        };
        let response = client.submit(Endpoint::Analyze, &job).expect("submit to live daemon");
        assert!(matches!(response.status, 408 | 500 | 503), "status {}", response.status);
        response.status == 408
    });
    assert!(expired, "a 1 ms deadline on the largest design must expire");

    let metrics = client.metrics_text().expect("metrics");
    assert!(metric_value(&metrics, "rsnd_jobs_cancelled_total") > 0, "{metrics}");
    assert!(metric_value(&metrics, "rsnd_jobs_panicked_total") > 0, "{metrics}");

    // SIGTERM while another job is in flight; the drain must answer it.
    let late = {
        let client = client.clone();
        std::thread::spawn(move || client.submit(Endpoint::Analyze, &analyze_job(77)))
    };
    std::thread::sleep(Duration::from_millis(50));
    let kill =
        Command::new("kill").args(["-TERM", &daemon.id().to_string()]).status().expect("run kill");
    assert!(kill.success());
    let status = daemon.wait().expect("wait for rsnd");
    assert!(status.success(), "rsnd exited with {status:?}");
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(rest.iter().any(|l| l == "rsnd shut down cleanly"), "{rest:?}");
    // The late job either made it in before the acceptor stopped (and was
    // drained) or was refused at the socket; it must never hang.
    // An Err means connection refused after the listener closed — also fine.
    if let Ok(response) = late.join().expect("late submitter") {
        assert!(matches!(response.status, 200 | 408 | 500 | 503));
    }
}
