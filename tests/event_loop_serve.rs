//! Raw-socket tests of the event-loop front end: HTTP/1.1 keep-alive reuse,
//! pipelined requests answered in submission order, structured `{"error":..}`
//! envelopes for malformed and oversized pipelined requests, and a
//! 10 000-connection keep-alive fleet against one daemon.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use robust_rsn::Parallelism;
use rsn_serve::http::{self, Response};
use rsn_serve::wire::{self, Deadline};
use rsn_serve::{Client, Endpoint, JobRequest, Server, ServerConfig};

fn demo_network() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/networks/soc_demo.rsn");
    std::fs::read_to_string(path).expect("read soc_demo.rsn")
}

fn analyze_job(seed: u64) -> JobRequest {
    JobRequest { network: Some(demo_network()), seed: Some(seed), ..Default::default() }
}

/// Boots a server on an ephemeral port, returning its address and a closure
/// that shuts it down and joins the serving thread.
fn boot(config: ServerConfig) -> (String, impl FnOnce()) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    let stop = move || {
        handle.shutdown();
        thread.join().expect("server thread").expect("server run");
    };
    (addr, stop)
}

/// An HTTP/1.1 request (keep-alive by default) as raw bytes.
fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes =
        format!("{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n", body.len())
            .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Reads one full response off the socket, leaving any pipelined surplus in
/// `buf` for the next call.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((response, consumed)) = http::parse_response_bytes(buf).expect("parse response")
        {
            buf.drain(..consumed);
            return response;
        }
        let n = stream.read(&mut chunk).expect("read response bytes");
        assert!(n > 0, "peer closed mid-response with {} buffered bytes", buf.len());
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Reads until EOF, asserting the peer really closed the connection.
fn expect_close(stream: &mut TcpStream) {
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "unexpected trailing bytes: {:?}", String::from_utf8_lossy(&rest));
}

/// Fetches `/metrics` and returns the value of the first line named `name`.
fn gauge(client: &Client, name: &str) -> u64 {
    let text = client.metrics_text().expect("metrics");
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or_else(|| panic!("gauge {name} missing in:\n{text}"))
}

#[test]
fn keep_alive_socket_answers_sequential_requests() {
    let (addr, stop) = boot(ServerConfig::default());
    let client = Client::new(addr.clone());
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut buf = Vec::new();

    stream.write_all(&request_bytes("GET", "/healthz", b"")).expect("write healthz");
    let health = read_response(&mut stream, &mut buf);
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));

    // Same socket, second request: a real analysis, byte-identical to the
    // in-process session and to a fresh-connection client submission.
    let job = serde_json::to_string(&analyze_job(7)).expect("serialize job");
    stream.write_all(&request_bytes("POST", "/v1/analyze", job.as_bytes())).expect("write job");
    let first = read_response(&mut stream, &mut buf);
    assert_eq!(first.status, 200, "{}", first.body);
    let resolved = wire::resolve(Endpoint::Analyze, &analyze_job(7)).expect("resolve");
    let expected =
        wire::execute(&resolved, Parallelism::sequential(), &Deadline::none()).expect("execute");
    assert_eq!(first.body, expected, "keep-alive response must be byte-identical");

    // Third request on the same socket replays the job: a cache hit.
    stream.write_all(&request_bytes("POST", "/v1/analyze", job.as_bytes())).expect("write job");
    let replay = read_response(&mut stream, &mut buf);
    assert_eq!(replay.header("x-cache"), Some("hit"));
    assert_eq!(replay.body, first.body);

    // While the socket is alive and served, the gauges see it.
    assert!(gauge(&client, "rsnd_keepalive_conns ") >= 1);
    drop(stream);
    stop();
}

#[test]
fn pipelined_requests_are_answered_in_submission_order() {
    let (addr, stop) = boot(ServerConfig {
        workers: Parallelism::new(4), // answers may complete out of order
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut buf = Vec::new();

    // Four requests written back-to-back before reading anything: two
    // distinct analyses (different seeds, different bodies), a health probe
    // in between, and a metrics scrape at the end.
    let job1 = serde_json::to_string(&analyze_job(1)).expect("serialize");
    let job2 = serde_json::to_string(&analyze_job(2)).expect("serialize");
    let mut batch = Vec::new();
    batch.extend_from_slice(&request_bytes("POST", "/v1/analyze", job1.as_bytes()));
    batch.extend_from_slice(&request_bytes("GET", "/healthz", b""));
    batch.extend_from_slice(&request_bytes("POST", "/v1/analyze", job2.as_bytes()));
    batch.extend_from_slice(&request_bytes("GET", "/metrics", b""));
    stream.write_all(&batch).expect("write pipeline");

    let expect = |seed: u64| {
        let resolved = wire::resolve(Endpoint::Analyze, &analyze_job(seed)).expect("resolve");
        wire::execute(&resolved, Parallelism::sequential(), &Deadline::none()).expect("execute")
    };
    let first = read_response(&mut stream, &mut buf);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.body, expect(1), "response 1 must answer request 1");
    let second = read_response(&mut stream, &mut buf);
    assert_eq!((second.status, second.body.as_str()), (200, "ok\n"));
    let third = read_response(&mut stream, &mut buf);
    assert_eq!(third.status, 200, "{}", third.body);
    assert_eq!(third.body, expect(2), "response 3 must answer request 3");
    assert_ne!(first.body, third.body, "different seeds, different answers");
    let fourth = read_response(&mut stream, &mut buf);
    assert_eq!(fourth.status, 200);
    assert!(fourth.body.contains("rsnd_requests_total"), "{}", fourth.body);
    drop(stream);
    stop();
}

#[test]
fn malformed_pipelined_request_gets_structured_envelope_then_close() {
    let (addr, stop) = boot(ServerConfig::default());
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut buf = Vec::new();

    // A valid request pipelined with unparsable bytes: the valid one is
    // answered normally, the garbage draws a structured 400 envelope, and
    // the daemon closes the connection instead of guessing at a resync.
    let mut batch = request_bytes("GET", "/healthz", b"");
    batch.extend_from_slice(b"THIS IS NOT HTTP\r\n\r\n");
    stream.write_all(&batch).expect("write pipeline");

    let first = read_response(&mut stream, &mut buf);
    assert_eq!((first.status, first.body.as_str()), (200, "ok\n"));
    let second = read_response(&mut stream, &mut buf);
    assert_eq!(second.status, 400, "{}", second.body);
    assert!(second.body.contains("\"error\""), "{}", second.body);
    assert!(second.body.contains("\"code\":\"bad_request\""), "{}", second.body);
    assert!(second.body.contains("\"retryable\":false"), "{}", second.body);
    expect_close(&mut stream);
    stop();
}

#[test]
fn oversized_pipelined_request_gets_structured_413_then_close() {
    let (addr, stop) = boot(ServerConfig { max_body_bytes: 1024, ..ServerConfig::default() });
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut buf = Vec::new();

    let mut batch = request_bytes("GET", "/healthz", b"");
    batch.extend_from_slice(&request_bytes("POST", "/v1/analyze", &vec![b'x'; 4096]));
    batch.extend_from_slice(&request_bytes("GET", "/healthz", b""));
    stream.write_all(&batch).expect("write pipeline");

    let first = read_response(&mut stream, &mut buf);
    assert_eq!((first.status, first.body.as_str()), (200, "ok\n"));
    let second = read_response(&mut stream, &mut buf);
    assert_eq!(second.status, 413, "{}", second.body);
    assert!(second.body.contains("\"error\""), "{}", second.body);
    assert!(second.body.contains("\"retryable\":false"), "{}", second.body);
    // The third request is never answered: an oversized frame poisons the
    // stream, so the daemon closes after the envelope.
    expect_close(&mut stream);
    stop();
}

/// The acceptance bar for the event loop: ten thousand concurrent keep-alive
/// connections, each having been served at least one response, all visible
/// in the `rsnd_open_sockets` / `rsnd_keepalive_conns` gauges at once.
///
/// The daemon runs as its own process so it has the full descriptor budget;
/// the test process only pays one descriptor per connection and connects
/// from parallel threads so the fleet is up long before idle reaping could
/// start (and so the daemon serves many sockets per poll iteration).
#[cfg(unix)]
#[test]
fn ten_thousand_keepalive_connections_are_sustained() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let effective = rsn_serve::poll::raise_nofile_limit(65_536);
    let target: usize = 10_000;
    let fleet = if effective == 0 || effective >= (target as u64) + 512 {
        target
    } else {
        let scaled = (effective.saturating_sub(512)) as usize;
        eprintln!("nofile limit {effective} too low, scaling fleet to {scaled}");
        scaled.max(256)
    };

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_rsnd"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn rsnd");
    let stdout = daemon.stdout.take().expect("rsnd stdout");
    // Keep the pipe's read end open for the daemon's lifetime — dropping it
    // would turn the shutdown banner into a SIGPIPE/panic in the child.
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner").expect("read banner");
    let addr = banner.strip_prefix("rsnd listening on ").expect("banner format").to_string();
    let client = Client::new(addr.clone());

    // 16 threads each bring up a slice of the fleet: connect, round-trip one
    // health probe, keep the socket open.
    let threads = 16;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let addr = addr.clone();
            let count = fleet / threads + usize::from(t < fleet % threads);
            std::thread::spawn(move || {
                let mut conns = Vec::with_capacity(count);
                let mut buf = Vec::new();
                for i in 0..count {
                    let mut stream = TcpStream::connect(&addr)
                        .unwrap_or_else(|e| panic!("connect {i}/{count} failed: {e}"));
                    stream
                        .write_all(&request_bytes("GET", "/healthz", b""))
                        .expect("write healthz");
                    let response = read_response(&mut stream, &mut buf);
                    assert_eq!((response.status, response.body.as_str()), (200, "ok\n"));
                    assert!(buf.is_empty(), "no pipelined surplus expected");
                    conns.push(stream);
                }
                conns
            })
        })
        .collect();
    let mut fleet_conns = Vec::with_capacity(fleet);
    for handle in handles {
        fleet_conns.extend(handle.join().expect("fleet thread"));
    }
    assert_eq!(fleet_conns.len(), fleet);

    // Every connection stays open; the gauges must report the whole fleet.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let open = gauge(&client, "rsnd_open_sockets ");
        let keepalive = gauge(&client, "rsnd_keepalive_conns ");
        if open >= fleet as u64 && keepalive >= fleet as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauges never reached {fleet}: open={open} keepalive={keepalive}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The fleet does not block new work: a random survivor round-trips again.
    let mut buf = Vec::new();
    let probe = &mut fleet_conns[fleet / 2];
    probe.write_all(&request_bytes("GET", "/healthz", b"")).expect("write probe");
    let response = read_response(probe, &mut buf);
    assert_eq!((response.status, response.body.as_str()), (200, "ok\n"));

    // The daemon still drains cleanly out from under the fleet.
    let kill =
        Command::new("kill").args(["-TERM", &daemon.id().to_string()]).status().expect("kill");
    assert!(kill.success());
    assert!(daemon.wait().expect("wait for rsnd").success());
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(rest.iter().any(|l| l == "rsnd shut down cleanly"), "{rest:?}");
    drop(fleet_conns);
}

/// Table I's largest design: its `/v1/harden` answer is an ~8 MB front, more
/// than the kernel buffers a socket between two processes.
fn p93791_network() -> String {
    let spec = rsn_benchmarks::by_name("p93791").expect("p93791 is a Table I design");
    rsn_model::format::print_network(spec.name, &spec.generate())
}

/// Reads one response in 16 KiB reads with a pause after each, so the
/// daemon's writes keep meeting a full socket and write only part of what
/// they were handed.
fn read_response_slowly(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((response, consumed)) = http::parse_response_bytes(buf).expect("parse response")
        {
            buf.drain(..consumed);
            return response;
        }
        let n = stream.read(&mut chunk).expect("read response bytes");
        assert!(n > 0, "peer closed mid-response with {} buffered bytes", buf.len());
        buf.extend_from_slice(&chunk[..n]);
        std::thread::sleep(Duration::from_micros(500));
    }
}

#[test]
fn a_slow_reader_gets_a_large_pipelined_answer_whole_and_in_order() {
    let (addr, stop) = boot(ServerConfig::default());
    let client = Client::new(addr.clone());
    let harden = JobRequest {
        network: Some(p93791_network()),
        seed: Some(7),
        solver: Some("greedy".into()),
        ..Default::default()
    };
    let resolved = wire::resolve(Endpoint::Harden, &harden).expect("resolve");
    let front =
        wire::execute(&resolved, Parallelism::sequential(), &Deadline::none()).expect("execute");
    assert!(front.len() >= 4 << 20, "the front must outgrow the socket buffers");
    let resolved = wire::resolve(Endpoint::Analyze, &analyze_job(7)).expect("resolve");
    let report =
        wire::execute(&resolved, Parallelism::sequential(), &Deadline::none()).expect("execute");
    let analyze = serde_json::to_string(&analyze_job(7)).expect("serialize");
    let harden = serde_json::to_string(&harden).expect("serialize");

    // Keep-alive, then `Connection: close` on the last request (the second
    // harden is a cache hit, written from the cached body).
    for close in [false, true] {
        let writes_before = gauge(&client, "rsnd_socket_writes_total ");
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(120))).expect("set timeout");
        let mut batch = request_bytes("POST", "/v1/harden", harden.as_bytes());
        batch.extend_from_slice(&request_bytes("GET", "/healthz", b""));
        batch.extend_from_slice(&http::encode_request(
            "POST",
            "/v1/analyze",
            "application/json",
            analyze.as_bytes(),
            close,
        ));
        stream.write_all(&batch).expect("write pipeline");

        let mut buf = Vec::new();
        let first = read_response_slowly(&mut stream, &mut buf);
        assert_eq!(first.status, 200, "{}", first.body);
        assert!(first.body == front, "the harden answer must equal wire::execute byte for byte");
        let second = read_response_slowly(&mut stream, &mut buf);
        assert_eq!((second.status, second.body.as_str()), (200, "ok\n"));
        let third = read_response_slowly(&mut stream, &mut buf);
        assert_eq!(third.status, 200, "{}", third.body);
        assert_eq!(third.body, report);
        assert!(buf.is_empty(), "no bytes beyond the three answers");
        if close {
            assert_eq!(third.header("connection"), Some("close"));
            expect_close(&mut stream);
        } else {
            assert_eq!(third.header("connection"), Some("keep-alive"));
        }
        // The front outgrows the socket's send buffer, so it cannot leave
        // in one write: the first scrape's answer plus at least two writes
        // for the batch (about ten on a 4 MiB `wmem_max` host).
        let writes = gauge(&client, "rsnd_socket_writes_total ") - writes_before;
        assert!(writes >= 3, "{writes} socket writes for an {}-byte answer", front.len());
    }
    stop();
}
