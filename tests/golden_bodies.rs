//! Byte pins of real `rsnd` response bodies on p93791, the largest Table I
//! design: the length and FNV-1a hash of each body as the daemon serves it.
//!
//! The daemon-vs-in-process equality tests compare two runs of the same
//! encoder, so they cannot notice the encoder itself drifting. These pins
//! were taken from the `Content`-tree printer the streaming encoder
//! replaced, and must keep holding byte for byte. The p34392 SPEA2 and exact
//! harden pins were taken from the serde writer, before harden bodies moved
//! to the prefix-copying front encoder (`wire::encode_harden_response`).

use rsn_serve::cache::fnv1a;
use rsn_serve::{Client, Endpoint, JobRequest, Server, ServerConfig};

fn p93791_network() -> String {
    let spec = rsn_benchmarks::by_name("p93791").expect("p93791 is a Table I design");
    rsn_model::format::print_network(spec.name, &spec.generate())
}

/// Submits every `(endpoint, job)` to a fresh in-process daemon and returns
/// the response bodies, asserting each is a 200.
fn serve(jobs: &[(Endpoint, JobRequest)]) -> Vec<String> {
    let server = Server::bind(ServerConfig::default()).expect("bind ephemeral port");
    let client = Client::new(server.local_addr().to_string());
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    let bodies = jobs
        .iter()
        .map(|(endpoint, job)| {
            let response = client.submit(*endpoint, job).expect("submit");
            assert_eq!(response.status, 200, "{}", response.body);
            response.body
        })
        .collect();
    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
    bodies
}

/// Asserts every `(what, body, length, fnv1a)` pin at once, so a drift
/// reports all the bodies it touched.
fn assert_pinned(pins: &[(&str, &str, usize, u64)]) {
    let drifted: Vec<String> = pins
        .iter()
        .filter(|(_, body, len, hash)| (body.len(), fnv1a(body.as_bytes())) != (*len, *hash))
        .map(|(what, body, _, _)| {
            format!("{what}: ({}, {:#018x})", body.len(), fnv1a(body.as_bytes()))
        })
        .collect();
    assert!(drifted.is_empty(), "bodies drifted from their pins:\n{}", drifted.join("\n"));
}

#[test]
fn p93791_greedy_harden_front_is_pinned() {
    let job = JobRequest {
        network: Some(p93791_network()),
        seed: Some(7),
        solver: Some("greedy".into()),
        ..Default::default()
    };
    let body = serve(&[(Endpoint::Harden, job)]).remove(0);
    assert_pinned(&[("/v1/harden greedy", &body, 8_119_813, 0xf58e_21df_eb39_da40)]);
}

#[test]
fn p93791_analyze_shard_and_whatif_bodies_are_pinned() {
    let network = p93791_network();
    let base = JobRequest { network: Some(network), seed: Some(7), ..Default::default() };
    let bodies = serve(&[
        (Endpoint::Analyze, base.clone()),
        (
            Endpoint::Analyze,
            JobRequest { mode_lo: Some(1000), mode_hi: Some(3000), ..base.clone() },
        ),
        (
            Endpoint::Whatif,
            JobRequest { op: Some("harden".into()), target: Some("w0".into()), ..base.clone() },
        ),
        (
            Endpoint::Whatif,
            JobRequest { op: Some("exclude".into()), target: Some("w5".into()), ..base.clone() },
        ),
        (
            Endpoint::Whatif,
            JobRequest {
                op: Some("set_weights".into()),
                target: Some("w1".into()),
                obs_weight: Some(5),
                set_weight: Some(9),
                ..base.clone()
            },
        ),
    ]);
    assert_pinned(&[
        ("/v1/analyze", &bodies[0], 1_220, 0x5662_93e7_c9a4_9c30),
        ("/v1/analyze shard 1000..3000", &bodies[1], 77_151, 0x7938_86d1_5bc3_f3ff),
        ("/v1/whatif harden w0", &bodies[2], 1_361, 0xef21_2922_cc32_2d68),
        ("/v1/whatif exclude w5", &bodies[3], 1_365, 0x3724_e46a_8a07_7b2b),
        ("/v1/whatif set_weights w1", &bodies[4], 1_368, 0x75dd_9348_66a1_fddd),
    ]);
}

/// p34392 in the textual format, with the job knobs every p34392 pin shares.
fn p34392_job() -> JobRequest {
    let spec = rsn_benchmarks::by_name("p34392").expect("p34392 is a Table I design");
    JobRequest {
        network: Some(rsn_model::format::print_network(spec.name, &spec.generate())),
        seed: Some(7),
        ..Default::default()
    }
}

#[test]
fn p34392_non_greedy_harden_fronts_are_pinned() {
    // Evolutionary and exact fronts share only short id prefixes between
    // neighbouring solutions, unlike the greedy front above.
    let base = p34392_job();
    let bodies = serve(&[
        (
            Endpoint::Harden,
            JobRequest {
                solver: Some("spea2".into()),
                generations: Some(10),
                population: Some(32),
                ..base.clone()
            },
        ),
        (Endpoint::Harden, JobRequest { solver: Some("exact".into()), ..base }),
    ]);
    assert_pinned(&[
        ("/v1/harden spea2", &bodies[0], 4_615, 0x4ff7_edc8_b2a4_27f4),
        ("/v1/harden exact", &bodies[1], 1_612_521, 0xd0ec_093f_5ecc_6539),
    ]);
}

#[test]
fn p34392_validate_report_is_pinned() {
    // The campaign replays every fault mode through the simulator, which is
    // slow on p93791; p34392 gives a full report in a fraction of the time.
    let body = serve(&[(Endpoint::Validate, p34392_job())]).remove(0);
    assert_pinned(&[("/v1/validate", &body, 296, 0xb226_e440_ad40_f678)]);
}
