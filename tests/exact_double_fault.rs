//! Exact double-fault sweep on Table I designs: the summary of
//! `double_fault_damage` must agree with the per-pair list it folds, the
//! list must cover every unordered pair, and every pair drawn from a seeded
//! `ChaCha8Rng` stream must appear in the exact lexicographic enumeration
//! with the damage `fault_set_damage` gives that pair on its own.

use rand::seq::IndexedRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use robust_rsn::graph_analysis::double_fault_pair_damages;
use robust_rsn::{
    double_fault_damage, fault_set_damage, AnalysisPlan, CancelToken, CriticalitySpec,
    PaperSpecParams, Parallelism, SibCellPolicy,
};
use rsn_benchmarks::by_name;
use rsn_model::{enumerate_single_faults, Fault};

const SEED: u64 = 2022;
const SAMPLES: usize = 32;

/// Index of the unordered pair `(lo, hi)` (`lo < hi`) in the exact sweep's
/// lexicographic enumeration over an `n`-fault pool.
fn pair_index(n: usize, lo: usize, hi: usize) -> usize {
    lo * (2 * n - lo - 1) / 2 + (hi - lo - 1)
}

fn check_design(name: &str) {
    let bench = by_name(name).expect("registered Table I design");
    let (net, _) = bench.generate().build(bench.name).unwrap();
    let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), SEED);
    let pool = enumerate_single_faults(&net);
    let n = pool.len();
    let none = CancelToken::none();
    let par = Parallelism::new(4);
    let plan = AnalysisPlan::new(&net, SibCellPolicy::Combined);

    let exact = double_fault_pair_damages(&plan, &net, &spec, &[], par, &none).unwrap();
    assert_eq!(exact.len(), n * (n - 1) / 2, "{name}: exact sweep must cover every pair");
    let summary = double_fault_damage(&plan, &net, &spec, &[], par, &none).unwrap();
    assert_eq!(summary.pairs, exact.len() as u64);
    assert_eq!(summary.max, exact.iter().copied().max().unwrap());
    assert_eq!(summary.min, exact.iter().copied().min().unwrap());
    let mean = exact.iter().map(|&d| d as u128).sum::<u128>() as f64 / exact.len() as f64;
    assert!((summary.mean - mean).abs() < 1e-9, "{name}: summary mean must match the pair list");

    // Seeded pairs, each evaluated on its own and located in the sweep.
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let sampled: Vec<Vec<Fault>> =
        (0..SAMPLES).map(|_| pool.choose_multiple(&mut rng, 2).copied().collect()).collect();
    for pair in &sampled {
        let damage =
            fault_set_damage(&plan, &net, &spec, pair, Parallelism::sequential(), &none).unwrap();
        let i = pool.iter().position(|f| *f == pair[0]).unwrap();
        let j = pool.iter().position(|f| *f == pair[1]).unwrap();
        let idx = pair_index(n, i.min(j), i.max(j));
        assert_eq!(
            exact[idx], damage,
            "{name}: pair ({i}, {j}) must appear in the exact sweep with equal damage"
        );
    }
}

#[test]
fn exact_pairs_match_fault_set_damage_on_treeflat() {
    check_design("TreeFlat");
}

#[test]
fn exact_pairs_match_fault_set_damage_on_q12710() {
    check_design("q12710");
}

#[test]
fn exact_pairs_match_fault_set_damage_on_a586710() {
    check_design("a586710");
}
