//! Criterion benchmark: bit-level simulator shift throughput, retargeting
//! cost on SIB hierarchies, and the full fault-simulation validation
//! campaign on Table I designs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use robust_rsn::{
    validate_criticality, AnalysisOptions, AnalysisPlan, CancelToken, CriticalitySpec,
    PaperSpecParams, Parallelism,
};
use rsn_benchmarks::mbist::mbist;
use rsn_model::{Config, Simulator};

fn shift_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/shift");
    for memories in [5usize, 20] {
        let s = mbist(1, memories, 8, 16);
        let (net, _) = s.build("sim").unwrap();
        // Open every SIB so the full path is active.
        let mut sim = Simulator::new(&net);
        let mut cfg = Config::new(&net);
        for m in net.muxes() {
            cfg.set_select(&net, m, 1).unwrap();
        }
        sim.retarget(&cfg, net.muxes().count() + 1).unwrap();
        let path = sim.active_path().unwrap();
        let bits = path.bit_len();
        group.throughput(Throughput::Elements(bits as u64));
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &n| {
            let data = vec![true; n];
            b.iter(|| sim.shift(&data).unwrap())
        });
    }
    group.finish();
}

fn retarget_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/retarget");
    for depth in [2usize, 4, 6] {
        // A chain of nested SIBs `depth` levels deep.
        let mut inner = rsn_model::Structure::anon_seg(4);
        for level in 0..depth {
            inner = rsn_model::Structure::sib(format!("l{level}"), inner);
        }
        let (net, _) = inner.build("nest").unwrap();
        let mut cfg = Config::new(&net);
        for m in net.muxes() {
            cfg.set_select(&net, m, 1).unwrap();
        }
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| {
                let mut sim = Simulator::new(&net);
                sim.retarget(&cfg, depth + 2).unwrap()
            })
        });
    }
    group.finish();
}

fn validation_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/validate");
    for name in ["q12710", "TreeBalanced", "a586710"] {
        let spec = rsn_benchmarks::by_name(name).expect("registered Table I design");
        let (net, _) = spec.generate().build(spec.name).unwrap();
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 2022);
        let options = AnalysisOptions::default();
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| {
                let report = validate_criticality(
                    &AnalysisPlan::new(&net, options.sib_policy),
                    &net,
                    &weights,
                    options.mode,
                    Parallelism::sequential(),
                    &CancelToken::none(),
                )
                .expect("campaign completes");
                assert!(report.is_clean(), "campaign disagreed on {name}");
                report.replays
            })
        });
    }
    group.finish();
}

criterion_group!(benches, shift_throughput, retarget_cost, validation_campaign);
criterion_main!(benches);
