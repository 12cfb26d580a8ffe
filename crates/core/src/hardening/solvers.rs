//! Solvers for the selective-hardening problem.
//!
//! * [`solve_spea2`] — the paper's optimizer (§V/§VI);
//! * [`solve_nsga2`] — the NSGA-II alternative the paper cites;
//! * [`solve_greedy`] — damage-per-cost ratio baseline (prefix front);
//! * [`solve_exact`] — certified Pareto front by bi-objective dynamic
//!   programming, feasible for small networks;
//! * [`solve_random`] — random-sampling baseline.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use moea::{nsga2, spea2, BitGenome, Interrupted, Nsga2Config, Problem, Spea2Config};

use crate::cancel::{CancelToken, Cancelled};
use crate::hardening::problem::HardeningProblem;
use crate::hardening::solution::{HardeningFront, HardeningSolution};

/// Runs the paper's SPEA2 configuration. `observer` receives per-generation
/// statistics (pass `|_| {}` when not needed); `cancel` is polled once per
/// generation (pass [`CancelToken::none`] for a run that cannot be
/// cancelled). A completed run's front depends only on the seed and the
/// configuration.
///
/// # Errors
///
/// [`Cancelled`] when `cancel` fires before the final generation.
pub fn solve_spea2(
    problem: &HardeningProblem,
    config: &Spea2Config,
    seed: u64,
    observer: impl FnMut(&moea::GenerationStats),
    cancel: &CancelToken,
) -> Result<HardeningFront, Cancelled> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cp = cancel.checkpoint(1);
    let individuals = spea2(problem, config, &mut rng, observer, || cp.tick().is_err())
        .map_err(|Interrupted| Cancelled)?;
    Ok(with_corners(problem, HardeningFront::from_individuals(problem, &individuals)))
}

/// Runs NSGA-II on the same problem; `cancel` is polled once per
/// generation. A completed run's front depends only on the seed and the
/// configuration.
///
/// # Errors
///
/// [`Cancelled`] when `cancel` fires before the final generation.
pub fn solve_nsga2(
    problem: &HardeningProblem,
    config: &Nsga2Config,
    seed: u64,
    cancel: &CancelToken,
) -> Result<HardeningFront, Cancelled> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cp = cancel.checkpoint(1);
    let individuals =
        nsga2(problem, config, &mut rng, || cp.tick().is_err()).map_err(|Interrupted| Cancelled)?;
    Ok(with_corners(problem, HardeningFront::from_individuals(problem, &individuals)))
}

/// Greedy baseline: harden primitives in decreasing `d_j / c_j` order; every
/// prefix is one point of the returned front. For the additive objectives of
/// this problem the greedy chain is mutually non-dominated and usually close
/// to optimal.
#[must_use]
pub fn solve_greedy(problem: &HardeningProblem) -> HardeningFront {
    let n = problem.genome_len();
    let mut order: Vec<usize> = (0..n).filter(|&j| problem.damage_of_bit(j) > 0).collect();
    // Sort by damage/cost ratio descending without floating point:
    // d_a / c_a > d_b / c_b  <=>  d_a * c_b > d_b * c_a (costs >= 0).
    order.sort_by(|&a, &b| {
        let lhs = u128::from(problem.damage_of_bit(a)) * u128::from(problem.cost_of_bit(b).max(1));
        let rhs = u128::from(problem.damage_of_bit(b)) * u128::from(problem.cost_of_bit(a).max(1));
        rhs.cmp(&lhs).then_with(|| problem.damage_of_bit(b).cmp(&problem.damage_of_bit(a)))
    });
    let mut solutions = Vec::with_capacity(order.len() + 1);
    let mut hardened = Vec::new();
    let mut cost = 0u64;
    let mut damage = problem.total_damage();
    solutions.push(HardeningSolution { hardened: hardened.clone(), cost, damage });
    for j in order {
        hardened.push(problem.primitives()[j]);
        cost += problem.cost_of_bit(j);
        damage -= problem.damage_of_bit(j);
        solutions.push(HardeningSolution { hardened: hardened.clone(), cost, damage });
    }
    HardeningFront::from_solutions(solutions)
}

/// Errors of [`solve_exact`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactSolveError {
    /// The non-dominated state set outgrew the budget; use the greedy or
    /// evolutionary solvers instead.
    BudgetExceeded {
        /// States reached when the solver gave up.
        states: usize,
    },
    /// The cancel token fired mid-enumeration.
    Cancelled,
}

impl core::fmt::Display for ExactSolveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BudgetExceeded { states } => {
                write!(f, "exact pareto enumeration exceeded the state budget ({states} states)")
            }
            Self::Cancelled => f.write_str("exact pareto enumeration cancelled"),
        }
    }
}

impl std::error::Error for ExactSolveError {}

/// Certified Pareto front by bi-objective dynamic programming over the
/// additive objectives. The state set is the set of non-dominated
/// (cost, avoided-damage) pairs; `max_states` bounds memory and time.
/// `cancel` is polled once per genome bit (each bit folds its states into
/// the DP table, so the lag is bounded by one merge pass).
///
/// # Errors
///
/// [`ExactSolveError::BudgetExceeded`] when the non-dominated state set
/// grows beyond `max_states`; [`ExactSolveError::Cancelled`] when `cancel`
/// fires.
pub fn solve_exact(
    problem: &HardeningProblem,
    max_states: usize,
    cancel: &CancelToken,
) -> Result<HardeningFront, ExactSolveError> {
    // States: cost -> (max avoided damage, chosen bits). Kept Pareto-pruned
    // and sorted by cost.
    let mut cp = cancel.checkpoint(8);
    let mut states: Vec<(u64, u64, Vec<usize>)> = vec![(0, 0, Vec::new())];
    for j in 0..problem.genome_len() {
        if cp.tick().is_err() {
            return Err(ExactSolveError::Cancelled);
        }
        let (c, d) = (problem.cost_of_bit(j), problem.damage_of_bit(j));
        if d == 0 {
            continue; // hardening a harmless primitive is never on the front
        }
        let mut merged: Vec<(u64, u64, Vec<usize>)> = Vec::with_capacity(states.len() * 2);
        let additions: Vec<(u64, u64, Vec<usize>)> = states
            .iter()
            .map(|(sc, sd, bits)| {
                let mut nb = bits.clone();
                nb.push(j);
                (sc + c, sd + d, nb)
            })
            .collect();
        // Merge two cost-sorted lists, then prune dominated states.
        let mut a = states.into_iter().peekable();
        let mut b = additions.into_iter().peekable();
        while a.peek().is_some() || b.peek().is_some() {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    (x.0, std::cmp::Reverse(x.1)) <= (y.0, std::cmp::Reverse(y.1))
                }
                (Some(_), None) => true,
                _ => false,
            };
            let item = if take_a { a.next() } else { b.next() }.expect("peeked");
            match merged.last() {
                Some(last) if item.1 <= last.1 => {} // dominated: same/higher cost, no gain
                _ => merged.push(item),
            }
        }
        states = merged;
        if states.len() > max_states {
            return Err(ExactSolveError::BudgetExceeded { states: states.len() });
        }
    }
    let total = problem.total_damage();
    let solutions = states
        .into_iter()
        .map(|(cost, avoided, bits)| HardeningSolution {
            hardened: bits.into_iter().map(|j| problem.primitives()[j]).collect(),
            cost,
            damage: total - avoided,
        })
        .collect();
    Ok(HardeningFront::from_solutions(solutions))
}

/// Random-sampling baseline: `samples` genomes at geometrically spread
/// densities, Pareto-filtered.
#[must_use]
pub fn solve_random(problem: &HardeningProblem, samples: usize, seed: u64) -> HardeningFront {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = problem.genome_len();
    let mut solutions = Vec::with_capacity(samples + 1);
    solutions.push(HardeningSolution {
        hardened: Vec::new(),
        cost: 0,
        damage: problem.total_damage(),
    });
    for _ in 0..samples {
        let density = 10f64.powf(rng.random_range(-3.0..0.0));
        let g = BitGenome::random(n, density, &mut rng);
        solutions.push(HardeningSolution::from_genome(problem, &g));
    }
    HardeningFront::from_solutions(solutions)
}

/// Ensures the trivial corners (harden nothing / harden everything) are
/// present; the evolutionary optimizers approach but may miss them exactly.
fn with_corners(problem: &HardeningProblem, front: HardeningFront) -> HardeningFront {
    let mut solutions = front.solutions().to_vec();
    solutions.push(HardeningSolution {
        hardened: Vec::new(),
        cost: 0,
        damage: problem.total_damage(),
    });
    let all: Vec<_> = (0..problem.genome_len()).filter(|&j| problem.damage_of_bit(j) > 0).collect();
    solutions.push(HardeningSolution {
        hardened: all.iter().map(|&j| problem.primitives()[j]).collect(),
        cost: all.iter().map(|&j| problem.cost_of_bit(j)).sum(),
        damage: 0,
    });
    HardeningFront::from_solutions(solutions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::criticality::{analyze, AnalysisOptions};
    use crate::spec::{CriticalitySpec, PaperSpecParams};
    use rsn_model::{InstrumentKind, Structure};
    use rsn_sp::tree_from_structure;

    fn problem(n_sibs: usize, seed: u64) -> HardeningProblem {
        let parts: Vec<Structure> = (0..n_sibs)
            .map(|i| {
                Structure::sib(
                    format!("s{i}"),
                    Structure::instrument_seg(format!("d{i}"), 2, InstrumentKind::Generic),
                )
            })
            .collect();
        let (net, built) = Structure::series(parts).build("t").unwrap();
        let tree = tree_from_structure(&net, &built);
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
        HardeningProblem::new(&net, &crit, &CostModel::default())
    }

    #[test]
    fn greedy_front_spans_both_corners() {
        let p = problem(6, 3);
        let front = solve_greedy(&p);
        assert_eq!(front.solutions().first().unwrap().cost, 0);
        assert_eq!(front.solutions().last().unwrap().damage, 0);
    }

    #[test]
    fn exact_front_dominates_or_matches_greedy() {
        let p = problem(6, 3);
        let exact = solve_exact(&p, 100_000, &CancelToken::none()).unwrap();
        let greedy = solve_greedy(&p);
        // For every greedy point there is an exact point at least as good.
        for g in greedy.solutions() {
            let ok = exact.solutions().iter().any(|e| e.cost <= g.cost && e.damage <= g.damage);
            assert!(ok, "greedy point ({}, {}) not covered", g.cost, g.damage);
        }
        let hv_exact = exact.hypervolume(p.max_cost() + 1, p.total_damage() + 1);
        let hv_greedy = greedy.hypervolume(p.max_cost() + 1, p.total_damage() + 1);
        assert!(hv_exact >= hv_greedy - 1e-9);
    }

    #[test]
    fn spea2_approaches_the_exact_front() {
        let p = problem(5, 7);
        let exact = solve_exact(&p, 100_000, &CancelToken::none()).unwrap();
        let cfg = Spea2Config {
            population_size: 60,
            archive_size: 60,
            generations: 80,
            ..Default::default()
        };
        let ea = solve_spea2(&p, &cfg, 1, |_| {}, &CancelToken::none()).unwrap();
        let r = (p.max_cost() + 1, p.total_damage() + 1);
        let hv_exact = exact.hypervolume(r.0, r.1);
        let hv_ea = ea.hypervolume(r.0, r.1);
        assert!(hv_ea <= hv_exact + 1e-9, "EA cannot beat the exact front");
        assert!(
            hv_ea >= 0.8 * hv_exact,
            "EA should reach 80% of optimal hypervolume: {hv_ea} vs {hv_exact}"
        );
    }

    #[test]
    fn nsga2_produces_a_valid_front() {
        let p = problem(5, 2);
        let cfg = Nsga2Config { population_size: 40, generations: 40, ..Default::default() };
        let front = solve_nsga2(&p, &cfg, 3, &CancelToken::none()).unwrap();
        assert!(!front.is_empty());
        // Sorted by cost, damage strictly decreasing.
        let sols = front.solutions();
        for w in sols.windows(2) {
            assert!(w[0].cost <= w[1].cost);
            assert!(w[0].damage > w[1].damage);
        }
    }

    #[test]
    fn random_baseline_is_dominated_by_exact() {
        let p = problem(5, 4);
        let exact = solve_exact(&p, 100_000, &CancelToken::none()).unwrap();
        let random = solve_random(&p, 200, 9);
        let r = (p.max_cost() + 1, p.total_damage() + 1);
        assert!(random.hypervolume(r.0, r.1) <= exact.hypervolume(r.0, r.1) + 1e-9);
    }

    #[test]
    fn exact_reports_budget_exhaustion() {
        let p = problem(40, 5);
        match solve_exact(&p, 8, &CancelToken::none()) {
            Err(ExactSolveError::BudgetExceeded { states }) => assert!(states > 8),
            Err(ExactSolveError::Cancelled) => panic!("a none token never cancels"),
            Ok(front) => {
                // A tiny budget can still suffice when many states collapse;
                // accept but require a valid front.
                assert!(!front.is_empty());
            }
        }
    }
}
