//! Criterion benchmark: JSON encoding of real `rsnd` response bodies on
//! p93791 — the greedy `/v1/harden` front (~8 MB), the `/v1/analyze`
//! criticality summary and one `mode_range` shard — and decoding of that
//! shard, the coordinator's per-shard merge input.
//!
//! Each value is taken from the body the daemon's in-process path serves,
//! decoded once, and re-encoded per iteration; the setup asserts that the
//! re-encoding reproduces the served bytes. The `serialize/` labels time the
//! serde writer; `wire/p93791_greedy_front` times the front encoder the
//! daemon serves harden bodies with, against the same bytes.
//! `deserialize/p93791_shard` times the serde decoder (the oracle) on the
//! served shard body and `wire/p93791_shard_decode` the one-pass decoder
//! `rsnc` reads shards with; the setup asserts that both read the same value.

use criterion::{criterion_group, criterion_main, Criterion};
use robust_rsn::{CriticalitySummary, Parallelism};
use rsn_benchmarks::by_name;
use rsn_serve::wire::{self, Deadline};
use rsn_serve::{AnalyzeShardResponse, Endpoint, HardenResponse, JobRequest};
use serde::{Deserialize, Serialize};

/// Serves `job` on `endpoint` in process and decodes the body as `T`,
/// returning the value and the served bytes.
fn served<T: Deserialize>(endpoint: Endpoint, job: &JobRequest) -> (T, String) {
    let resolved = wire::resolve(endpoint, job).expect("resolve");
    let body = wire::execute(&resolved, Parallelism::auto(), &Deadline::none()).expect("execute");
    (serde_json::from_str(&body).expect("decode body"), body)
}

fn bench_encode<T: Serialize>(c: &mut Criterion, label: &str, value: &T, body: &str) {
    assert_eq!(serde_json::to_string(value).unwrap(), body, "{label}: re-encoding drifted");
    c.bench_function(label, |b| b.iter(|| serde_json::to_string(value).unwrap()));
}

fn serialize(c: &mut Criterion) {
    let spec = by_name("p93791").unwrap();
    let network = rsn_model::format::print_network(spec.name, &spec.generate());
    let base = JobRequest { network: Some(network), seed: Some(7), ..Default::default() };

    let harden = JobRequest { solver: Some("greedy".into()), ..base.clone() };
    let (front, body) = served::<HardenResponse>(Endpoint::Harden, &harden);
    bench_encode(c, "serialize/p93791_greedy_front", &front, &body);
    assert_eq!(wire::encode_harden_response(&front).unwrap(), body, "front encoder drifted");
    c.bench_function("wire/p93791_greedy_front", |b| {
        b.iter(|| wire::encode_harden_response(&front).unwrap())
    });

    let (summary, body) = served::<CriticalitySummary>(Endpoint::Analyze, &base);
    bench_encode(c, "serialize/p93791_summary", &summary, &body);

    let shard = JobRequest { mode_lo: Some(1000), mode_hi: Some(3000), ..base };
    let (shard, body) = served::<AnalyzeShardResponse>(Endpoint::Analyze, &shard);
    bench_encode(c, "serialize/p93791_shard", &shard, &body);
    assert_eq!(wire::decode_analyze_shard(&body).unwrap(), shard, "shard decoder drifted");
    c.bench_function("deserialize/p93791_shard", |b| {
        b.iter(|| serde_json::from_str::<AnalyzeShardResponse>(&body).unwrap())
    });
    c.bench_function("wire/p93791_shard_decode", |b| {
        b.iter(|| wire::decode_analyze_shard(&body).unwrap())
    });
}

criterion_group!(benches, serialize);
criterion_main!(benches);
