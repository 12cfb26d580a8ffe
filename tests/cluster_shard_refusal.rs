//! A worker whose `200` shard answers leave the shard grammar is refused,
//! not misread: `rsnc` over one such worker and one real `rsnd` fails the
//! shard over to the real worker, serves the single-node bytes, and counts
//! the refusal in `rsnc_shard_rejected_total`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::time::Duration;

use robust_rsn::Parallelism;
use rsn_cluster::{ClusterConfig, Coordinator};
use rsn_serve::http::{self, Response};
use rsn_serve::wire::{self, Deadline};
use rsn_serve::{AnalyzeShardResponse, Client, Endpoint, JobRequest};

fn demo_job() -> JobRequest {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/networks/soc_demo.rsn");
    let network = std::fs::read_to_string(path).expect("read soc_demo.rsn");
    JobRequest { network: Some(network), seed: Some(7), ..Default::default() }
}

/// What the worker in this process serves for `request`: `/metrics` as an
/// idle `rsnd` reports it, and for `/v1/analyze` the right shard, printed
/// pretty — JSON the serde oracle reads, off the grammar the writer emits.
fn fake_answer(request: &http::Request) -> Response {
    match request.path.as_str() {
        "/metrics" => Response::text(200, "rsnd_queue_depth 0\n".to_string()),
        "/v1/analyze" => {
            let body = std::str::from_utf8(&request.body).expect("utf-8 job");
            let job = wire::resolve(Endpoint::Analyze, &wire::parse_request(body).unwrap());
            let served = wire::execute(&job.unwrap(), Parallelism::sequential(), &Deadline::none());
            let shard: AnalyzeShardResponse = serde_json::from_str(&served.unwrap()).unwrap();
            Response::json(200, serde_json::to_string_pretty(&shard).unwrap())
        }
        _ => Response::json(200, "{}".to_string()),
    }
}

fn serve_fake(mut stream: TcpStream) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match http::parse_request_bytes(&buf, usize::MAX) {
            Ok(Some(parsed)) => {
                let bytes = http::encode_response(&fake_answer(&parsed.request), parsed.keep_alive);
                if stream.write_all(&bytes).is_err() || !parsed.keep_alive {
                    return;
                }
                buf.drain(..parsed.consumed);
            }
            Ok(None) => match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            },
            Err(_) => return,
        }
    }
}

/// Starts the misbehaving worker on an ephemeral port; it serves until the
/// test process exits.
fn spawn_fake_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || serve_fake(stream));
        }
    });
    addr
}

#[test]
fn an_off_grammar_shard_fails_over_and_is_counted() {
    let mut real = Command::new(env!("CARGO_BIN_EXE_rsnc-worker"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rsnc-worker");
    let mut banner = String::new();
    BufReader::new(real.stdout.take().expect("worker stdout"))
        .read_line(&mut banner)
        .expect("worker banner");
    let real_addr = banner.trim().strip_prefix("rsnd listening on ").expect("banner").to_string();

    // Slot 0 is the fake: the first shard prefers it.
    let coordinator = Coordinator::bind(ClusterConfig {
        adopt: vec![spawn_fake_worker(), real_addr],
        shard_threshold: 1,
        health_interval: Duration::from_millis(100),
        ..ClusterConfig::default()
    })
    .expect("bind coordinator");
    let client = Client::new(coordinator.local_addr().to_string());
    let control = coordinator.control();
    let handle = coordinator.shutdown_handle();
    let serving = std::thread::spawn(move || coordinator.run());

    let job = demo_job();
    let response = client.submit(Endpoint::Analyze, &job);
    let resolved = wire::resolve(Endpoint::Analyze, &job).unwrap();
    let single = wire::execute(&resolved, Parallelism::sequential(), &Deadline::none()).unwrap();
    let metrics = control.metrics_text();

    handle.shutdown();
    serving.join().expect("coordinator thread").expect("coordinator run");
    let _ = real.kill();
    let _ = real.wait();

    let response = response.expect("submit");
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.body, single, "merged bytes differ from the single node's");
    let counter = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok())
            .unwrap_or(0)
    };
    assert!(counter("rsnc_shard_rejected_total") >= 1, "{metrics}");
    assert!(counter("rsnc_shards_retried_total") >= 1, "{metrics}");
}
