//! Property-based validation of the sharded evaluation engine: every
//! public entry point that takes a thread count must return results
//! *bit-identical* to the sequential code at 1 and 4 threads (and the
//! other counts of [`SWEEP`]), and must return its cancelled error under a
//! pre-fired token. Results land at their index and all RNG draws stay on
//! the sequential stream, so any mismatch here is a real sharding bug, not
//! numeric noise.

use proptest::prelude::*;
use robust_rsn::{
    analyze_graph, double_fault_damage, fault_set_damage, solve_exact, solve_nsga2, solve_spea2,
    validate_criticality, AnalysisError, AnalysisOptions, AnalysisPlan, AnalysisSession,
    CancelToken, Cancelled, CostModel, CriticalitySpec, ExactSolveError, HardeningProblem,
    PaperSpecParams, Parallelism, SibCellPolicy, Solver,
};
use rsn_benchmarks::{random_structure, RandomParams};
use rsn_model::enumerate_single_faults;
use rsn_sp::tree_from_structure;

/// The sweep: sequential baseline plus 2, 4 and 8 workers (on a
/// single-core host the parallel counts still exercise the scoped-thread
/// splice path — the worker count follows the requested thread count, not
/// the core count).
const SWEEP: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn analyze_graph_is_invariant_under_thread_count(
        seed in 0u64..5_000,
        spec_seed in 0u64..1_000,
    ) {
        let s = random_structure(&RandomParams::default(), seed);
        let (net, _) = s.build("par").unwrap();
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), spec_seed);
        let options = AnalysisOptions::default();
        let none = CancelToken::none();
        let plan = AnalysisPlan::new(&net, options.sib_policy);
        let sweep = |par| analyze_graph(&plan, &net, &weights, options.mode, par, &none).unwrap();
        let baseline = sweep(Parallelism::sequential());
        for threads in SWEEP {
            let got = sweep(Parallelism::new(threads));
            prop_assert_eq!(got.primitives(), baseline.primitives());
            for &j in baseline.primitives() {
                prop_assert_eq!(got.damage(j), baseline.damage(j));
            }
        }
    }

    #[test]
    fn fault_set_damage_is_invariant_under_thread_count(
        seed in 0u64..5_000,
        pick in 0usize..64,
    ) {
        let s = random_structure(&RandomParams::default(), seed);
        let (net, _) = s.build("par").unwrap();
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let pool = enumerate_single_faults(&net);
        prop_assume!(pool.len() >= 2);
        // A deterministic two-fault set drawn from the enumeration.
        let a = pick % pool.len();
        let b = (pick * 31 + 7) % pool.len();
        prop_assume!(a != b);
        let faults = [pool[a], pool[b]];
        let none = CancelToken::none();
        let plan = AnalysisPlan::new(&net, SibCellPolicy::Combined);
        let baseline =
            fault_set_damage(&plan, &net, &weights, &faults, Parallelism::sequential(), &none);
        for threads in SWEEP {
            let got =
                fault_set_damage(&plan, &net, &weights, &faults, Parallelism::new(threads), &none);
            prop_assert_eq!(got, baseline);
        }
    }

    #[test]
    fn double_fault_damage_is_invariant_under_thread_count(
        seed in 0u64..2_000,
        hardened_pick in 0usize..64,
    ) {
        let s = random_structure(&RandomParams::default(), seed);
        let (net, _) = s.build("par").unwrap();
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        // Harden one primitive (or none) to vary the pair pool.
        let primitives: Vec<_> = net.primitives().collect();
        let hardened: Vec<_> =
            primitives.get(hardened_pick % (primitives.len() + 1)).into_iter().copied().collect();
        let none = CancelToken::none();
        let plan = AnalysisPlan::new(&net, SibCellPolicy::Combined);
        let sweep = |threads: usize| {
            double_fault_damage(&plan, &net, &weights, &hardened, Parallelism::new(threads), &none)
                .expect("within combination bound")
        };
        let baseline = sweep(1);
        for threads in SWEEP {
            let got = sweep(threads);
            // Pair damages land at their index and the sum is taken in pair
            // order, so even the mean's float must match exactly.
            prop_assert_eq!(got.pairs, baseline.pairs);
            prop_assert_eq!(got.mean.to_bits(), baseline.mean.to_bits());
            prop_assert_eq!((got.min, got.max), (baseline.min, baseline.max));
        }
    }
}

/// The fault-simulation campaign's report is identical at every thread
/// count.
#[test]
fn validate_criticality_is_invariant_under_thread_count() {
    let s = random_structure(&RandomParams::default(), 31);
    let (net, _) = s.build("par").unwrap();
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 31);
    let options = AnalysisOptions::default();
    let plan = AnalysisPlan::new(&net, options.sib_policy);
    let run = |threads: usize| {
        validate_criticality(
            &plan,
            &net,
            &weights,
            options.mode,
            Parallelism::new(threads),
            &CancelToken::none(),
        )
        .expect("quiet token")
    };
    let baseline = run(1);
    assert!(baseline.is_clean(), "{:?}", baseline.disagreements);
    for threads in [4, 8] {
        assert_eq!(run(threads), baseline, "report changed at {threads} threads");
    }
}

/// SPEA2 must produce a byte-identical front for a fixed seed regardless of
/// how the population evaluation is sharded: offspring genomes are drawn
/// from the sequential RNG stream before the batch fan-out.
#[test]
fn spea2_front_is_invariant_under_thread_count() {
    let s = random_structure(&RandomParams::default(), 2022);
    let (net, built) = s.build("par").unwrap();
    let tree = tree_from_structure(&net, &built);
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 9);
    let crit = robust_rsn::analyze(&net, &tree, &weights, &AnalysisOptions::default());
    let cfg = moea::Spea2Config {
        population_size: 40,
        archive_size: 40,
        generations: 15,
        ..Default::default()
    };
    let run = |threads: usize| {
        let problem = HardeningProblem::new(&net, &crit, &CostModel::default())
            .with_parallelism(Parallelism::new(threads));
        solve_spea2(&problem, &cfg, 77, |_| {}, &CancelToken::none())
            .expect("quiet token")
            .solutions()
            .to_vec()
    };
    let baseline = run(1);
    assert!(!baseline.is_empty());
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), baseline, "front changed at {threads} threads");
    }
}

/// NSGA-II draws its offspring from the sequential stream too.
#[test]
fn nsga2_front_is_invariant_under_thread_count() {
    let s = random_structure(&RandomParams::default(), 2023);
    let (net, built) = s.build("par").unwrap();
    let tree = tree_from_structure(&net, &built);
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 9);
    let crit = robust_rsn::analyze(&net, &tree, &weights, &AnalysisOptions::default());
    let cfg = moea::Nsga2Config { population_size: 40, generations: 15, ..Default::default() };
    let run = |threads: usize| {
        let problem = HardeningProblem::new(&net, &crit, &CostModel::default())
            .with_parallelism(Parallelism::new(threads));
        solve_nsga2(&problem, &cfg, 78, &CancelToken::none())
            .expect("quiet token")
            .solutions()
            .to_vec()
    };
    let baseline = run(1);
    assert!(!baseline.is_empty());
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), baseline, "front changed at {threads} threads");
    }
}

/// Every entry point returns its cancelled error under a token fired before
/// the call, at one and at four threads.
#[test]
fn every_entry_point_returns_cancelled_under_a_pre_fired_token() {
    let s = random_structure(&RandomParams::default(), 2022);
    let (net, built) = s.build("par").unwrap();
    let tree = tree_from_structure(&net, &built);
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 9);
    let options = AnalysisOptions::default();
    let crit = robust_rsn::analyze(&net, &tree, &weights, &options);
    let pool = enumerate_single_faults(&net);
    assert!(pool.len() >= 2);
    let fired = CancelToken::new();
    fired.cancel();
    let plan = AnalysisPlan::new(&net, options.sib_policy);
    for threads in [1, 4] {
        let par = Parallelism::new(threads);
        assert_eq!(
            analyze_graph(&plan, &net, &weights, options.mode, par, &fired),
            Err(AnalysisError::Cancelled)
        );
        assert_eq!(
            fault_set_damage(&plan, &net, &weights, &pool[..2], par, &fired),
            Err(AnalysisError::Cancelled)
        );
        assert_eq!(
            double_fault_damage(&plan, &net, &weights, &[], par, &fired),
            Err(AnalysisError::Cancelled)
        );
        assert_eq!(
            validate_criticality(&plan, &net, &weights, options.mode, par, &fired),
            Err(AnalysisError::Cancelled)
        );
        let problem =
            HardeningProblem::new(&net, &crit, &CostModel::default()).with_parallelism(par);
        let spea2 = moea::Spea2Config { generations: 5, ..Default::default() };
        assert_eq!(solve_spea2(&problem, &spea2, 1, |_| {}, &fired), Err(Cancelled));
        let nsga2 = moea::Nsga2Config { generations: 5, ..Default::default() };
        assert_eq!(solve_nsga2(&problem, &nsga2, 1, &fired), Err(Cancelled));
        assert_eq!(solve_exact(&problem, 1 << 16, &fired), Err(ExactSolveError::Cancelled));
    }
}

/// The same invariance holds end-to-end through the session API.
#[test]
fn session_solve_is_invariant_under_thread_count() {
    let s = random_structure(&RandomParams::default(), 4711);
    let (net, built) = s.build("par").unwrap();
    let cfg = moea::Spea2Config {
        population_size: 30,
        archive_size: 30,
        generations: 10,
        ..Default::default()
    };
    let run = |threads: usize| {
        let session = AnalysisSession::builder(net.clone())
            .with_structure(&built)
            .with_paper_spec(PaperSpecParams::default(), 5)
            .with_threads(threads)
            .build();
        let front = session
            .solve(Solver::Spea2 { config: cfg, seed: 13 })
            .expect("series-parallel network");
        front.solutions().to_vec()
    };
    let baseline = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), baseline, "front changed at {threads} threads");
    }
}
