//! Criterion benchmark: JSON encoding of real `rsnd` response bodies on
//! p93791 — the greedy `/v1/harden` front (~8 MB), the `/v1/analyze`
//! criticality summary and one `mode_range` shard.
//!
//! Each value is taken from the body the daemon's in-process path serves,
//! decoded once, and re-encoded per iteration; the setup asserts that the
//! re-encoding reproduces the served bytes.

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

    let (summary, body) = served::<CriticalitySummary>(Endpoint::Analyze, &base);
    bench_encode(c, "serialize/p93791_summary", &summary, &body);

    let shard = JobRequest { mode_lo: Some(1000), mode_hi: Some(3000), ..base };
    let (shard, body) = served::<AnalyzeShardResponse>(Endpoint::Analyze, &shard);
    bench_encode(c, "serialize/p93791_shard", &shard, &body);
}

criterion_group!(benches, serialize);
criterion_main!(benches);
