//! Cross-crate integration of the hardening pipeline: SPEA2 / NSGA-II /
//! greedy / exact solvers on generated benchmark networks.

use moea::{Nsga2Config, Spea2Config};
use robust_rsn::{
    analyze, solve_exact, solve_greedy, solve_nsga2, solve_random, solve_spea2, AnalysisOptions,
    CancelToken, CostModel, CriticalitySpec, HardeningProblem, PaperSpecParams,
};
use rsn_benchmarks::table::by_name;
use rsn_sp::tree_from_structure;

fn problem_for(name: &str, seed: u64) -> HardeningProblem {
    let spec = by_name(name).unwrap();
    let (net, built) = spec.generate().build(name).unwrap();
    let tree = tree_from_structure(&net, &built);
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
    let crit = analyze(&net, &tree, &weights, &AnalysisOptions::default());
    HardeningProblem::new(&net, &crit, &CostModel::default())
}

#[test]
fn spea2_reaches_the_ten_percent_regimes_on_treeflat() {
    let p = problem_for("TreeFlat", 1);
    let cfg = Spea2Config {
        population_size: 100,
        archive_size: 100,
        generations: 150,
        ..Default::default()
    };
    let front = solve_spea2(&p, &cfg, 2, |_| {}, &CancelToken::none()).unwrap();
    let ten_damage = p.total_damage() / 10;
    let ten_cost = p.max_cost() / 10;
    let a = front.min_cost_with_damage_at_most(ten_damage).expect("damage cap reachable");
    assert!(a.cost < p.max_cost(), "should be cheaper than hardening everything");
    let b = front.min_damage_with_cost_at_most(ten_cost).expect("cost cap reachable");
    assert!(
        b.damage < p.total_damage() / 2,
        "10% of cost should remove more than half the damage, got {} of {}",
        b.damage,
        p.total_damage()
    );
}

#[test]
fn all_solvers_agree_on_front_validity() {
    let p = problem_for("q12710", 4);
    let fronts = vec![
        solve_greedy(&p),
        solve_random(&p, 100, 5),
        solve_spea2(
            &p,
            &Spea2Config { generations: 40, ..Default::default() },
            6,
            |_| {},
            &CancelToken::none(),
        )
        .unwrap(),
        solve_nsga2(
            &p,
            &Nsga2Config { generations: 40, ..Default::default() },
            7,
            &CancelToken::none(),
        )
        .unwrap(),
    ];
    for front in fronts {
        assert!(!front.is_empty());
        for w in front.solutions().windows(2) {
            assert!(w[0].cost <= w[1].cost, "front sorted by cost");
            assert!(w[0].damage > w[1].damage, "damage strictly improves");
        }
        for s in front.solutions() {
            // Objectives recompute consistently from the hardened set.
            let cost: u64 = s
                .hardened
                .iter()
                .map(|&n| {
                    let j = p.primitives().iter().position(|&x| x == n).unwrap();
                    p.cost_of_bit(j)
                })
                .sum();
            assert_eq!(cost, s.cost);
        }
    }
}

#[test]
fn exact_front_certifies_the_greedy_gap_on_a_small_design() {
    let p = problem_for("TreeFlat", 9);
    let exact =
        solve_exact(&p, 2_000_000, &CancelToken::none()).expect("small design fits the budget");
    let greedy = solve_greedy(&p);
    let r = (p.max_cost() + 1, p.total_damage() + 1);
    let hv_exact = exact.hypervolume(r.0, r.1);
    let hv_greedy = greedy.hypervolume(r.0, r.1);
    assert!(hv_exact >= hv_greedy - 1e-9);
    assert!(
        hv_greedy >= 0.95 * hv_exact,
        "greedy should be near-optimal for additive objectives: {hv_greedy} vs {hv_exact}"
    );
}

#[test]
fn hardening_everything_protects_important_instruments() {
    let name = "TreeUnbalanced";
    let spec = by_name(name).unwrap();
    let (net, built) = spec.generate().build(name).unwrap();
    let tree = tree_from_structure(&net, &built);
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 13);
    let crit = analyze(&net, &tree, &weights, &AnalysisOptions::default());
    let p = HardeningProblem::new(&net, &crit, &CostModel::default());
    let front = solve_greedy(&p);
    // The zero-damage end hardens every damaging primitive, so importance is
    // fully protected.
    let best = front.solutions().last().unwrap();
    assert_eq!(best.damage, 0);
    assert!(best.protects_important(&crit));
    // The empty solution protects nothing unless nothing is important.
    let none = front.solutions().first().unwrap();
    assert_eq!(none.cost, 0);
    let any_important = net.primitives().any(|j| crit.affects_important(j));
    assert_eq!(none.protects_important(&crit), !any_important);
}

#[test]
fn spea2_is_deterministic_per_seed_across_the_pipeline() {
    let p = problem_for("TreeFlat", 2);
    let cfg = Spea2Config { generations: 25, ..Default::default() };
    let a = solve_spea2(&p, &cfg, 42, |_| {}, &CancelToken::none()).unwrap();
    let b = solve_spea2(&p, &cfg, 42, |_| {}, &CancelToken::none()).unwrap();
    assert_eq!(a.solutions(), b.solutions());
}

#[test]
fn importance_dominates_the_selection_pressure() {
    // With the §VI weight rule an important instrument weighs more than all
    // uncritical ones together. Any solution whose residual damage is below
    // the smallest important weight therefore provably hardens every
    // importance-affecting primitive (its own d_j would already exceed the
    // residual).
    let p = problem_for("TreeBalanced", 17);
    let spec = by_name("TreeBalanced").unwrap();
    let (net, built) = spec.generate().build("TreeBalanced").unwrap();
    let tree = tree_from_structure(&net, &built);
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 17);
    let crit = analyze(&net, &tree, &weights, &AnalysisOptions::default());
    let min_important = net
        .instruments()
        .map(|(i, _)| i)
        .flat_map(|i| {
            let mut v = Vec::new();
            if weights.is_important_obs(i) {
                v.push(weights.obs_weight(i));
            }
            if weights.is_important_set(i) {
                v.push(weights.set_weight(i));
            }
            v
        })
        .min()
        .expect("the paper spec marks important instruments");
    let front = solve_greedy(&p);
    let chosen = front
        .min_cost_with_damage_at_most(min_important - 1)
        .expect("greedy reaches arbitrarily low damage");
    assert!(
        chosen.protects_important(&crit),
        "residual damage below every important weight implies full protection"
    );
}
