//! Criterion benchmark: optimizer throughput — SPEA2 and NSGA-II generations
//! per second on hardening problems of increasing genome length. The MBIST
//! designs are the smallest whose batches `evaluate_batch` shards (2^20 bits).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moea::{Nsga2Config, Spea2Config};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rsn_bench::prepare;
use rsn_benchmarks::by_name;

fn spea2_generations(c: &mut Criterion) {
    let mut group = c.benchmark_group("spea2/25-generations");
    group.sample_size(10);
    for name in ["TreeFlat", "q12710", "p34392", "MBIST_2_20_20", "MBIST_5_20_20"] {
        let spec = by_name(name).unwrap();
        let instance = prepare(&spec);
        let cfg = Spea2Config {
            population_size: 100,
            archive_size: 100,
            generations: 25,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(1);
                moea::spea2(&instance.problem, &cfg, &mut rng, |_| {}, || false).unwrap()
            })
        });
    }
    group.finish();
}

fn nsga2_generations(c: &mut Criterion) {
    let mut group = c.benchmark_group("nsga2/25-generations");
    group.sample_size(10);
    for name in ["TreeFlat", "q12710"] {
        let spec = by_name(name).unwrap();
        let instance = prepare(&spec);
        let cfg = Nsga2Config { population_size: 100, generations: 25, ..Default::default() };
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(1);
                moea::nsga2(&instance.problem, &cfg, &mut rng, || false).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, spea2_generations, nsga2_generations);
criterion_main!(benches);
