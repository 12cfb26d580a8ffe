//! Criterion benchmark: thread-count sweep of the sharded analysis loops.
//!
//! Measures the graph-exact criticality analysis and SPEA2 population
//! evaluation at 1, 2, 4 and 8 threads on an MBIST-style network
//! (`mbist(2, 20, 10, 8)`), skipping thread counts above the host's cores:
//! no thread-scaling figure claims more cores than the box has. The
//! results are bit-identical across the sweep (asserted against the
//! sequential baseline); only the wall-clock time changes.
//!
//! `parallel/spea2/N` reports the cost of ONE generation — a single
//! `evaluate_batch` over a population-sized offspring batch, which is the
//! unit the optimizer repeats and the part `HardeningProblem` shards across
//! threads. (It used to time a whole 10-generation `solve_spea2` run, which
//! buried the per-generation eval cost under selection and variation.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use moea::{BitGenome, Problem, Spea2Config};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use robust_rsn::{
    analyze_graph, AnalysisOptions, AnalysisPlan, AnalysisSession, CancelToken, CostModel,
    CriticalitySpec, PaperSpecParams, Parallelism, Solver,
};
use rsn_benchmarks::mbist::mbist;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The thread counts of [`THREADS`] the host has cores for (1 always).
fn thread_sweep() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    THREADS.into_iter().filter(|&t| t == 1 || t <= cores).collect()
}

fn graph_analysis_sweep(c: &mut Criterion) {
    let s = mbist(2, 20, 10, 8);
    let (net, _) = s.build("sweep").unwrap();
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 1);
    let options = AnalysisOptions::default();
    let none = CancelToken::none();
    let sweep = |par| {
        let plan = AnalysisPlan::new(&net, options.sib_policy);
        analyze_graph(&plan, &net, &weights, options.mode, par, &none).expect("sweep completes")
    };
    let baseline = sweep(Parallelism::sequential());
    let mut group = c.benchmark_group("parallel/analyze_graph/MBIST_2_20_10_8");
    group.throughput(Throughput::Elements(baseline.primitives().len() as u64));
    for threads in thread_sweep() {
        let par = Parallelism::new(threads);
        let got = sweep(par);
        for &j in baseline.primitives() {
            assert_eq!(got.damage(j), baseline.damage(j), "thread count changed a result");
        }
        group.bench_with_input(BenchmarkId::from_parameter(threads), &par, |b, &par| {
            b.iter(|| sweep(par))
        });
    }
    group.finish();
}

fn spea2_sweep(c: &mut Criterion) {
    let s = mbist(2, 20, 10, 8);
    let (net, built) = s.build("sweep").unwrap();
    let cfg = Spea2Config {
        population_size: 60,
        archive_size: 60,
        generations: 10,
        ..Default::default()
    };
    let mut group = c.benchmark_group("parallel/spea2");
    group.sample_size(10);
    let mut fronts = Vec::new();
    for threads in thread_sweep() {
        let session = AnalysisSession::builder(net.clone())
            .with_structure(&built)
            .with_paper_spec(PaperSpecParams::default(), 1)
            .with_cost_model(CostModel::default())
            .with_threads(threads)
            .build();
        let front = session.solve(Solver::Spea2 { config: cfg, seed: 7 }).unwrap();
        fronts.push(front.solutions().to_vec());
        let problem = session.hardening_problem(&CostModel::default()).unwrap();
        // One generation's offspring batch, identical for every thread count.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let batch: Vec<BitGenome> = (0..cfg.population_size)
            .map(|_| BitGenome::random(problem.genome_len(), problem.initial_density(), &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| problem.evaluate_batch(&batch))
        });
    }
    for w in fronts.windows(2) {
        assert_eq!(w[0], w[1], "thread count changed the SPEA2 front");
    }
    group.finish();
}

criterion_group!(benches, graph_analysis_sweep, spea2_sweep);
criterion_main!(benches);
