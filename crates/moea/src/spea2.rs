//! SPEA2 — the Strength Pareto Evolutionary Algorithm 2 (Zitzler, Laumanns,
//! Thiele, TIK report 103, 2001), the optimizer the paper applies through the
//! Opt4J framework.
//!
//! The implementation follows the original definition:
//!
//! * strength `S(i)` = number of individuals `i` dominates in `P ∪ A`;
//! * raw fitness `R(i)` = sum of the strengths of `i`'s dominators;
//! * density `D(i) = 1 / (σᵢᵏ + 2)` with `k = √(N + Ñ)` nearest neighbor in
//!   normalized objective space;
//! * environmental selection keeps all non-dominated individuals in the
//!   archive, truncating by iterated nearest-neighbor removal when it
//!   overflows and filling with the best dominated individuals otherwise;
//! * mating: binary tournament over the archive, one-point crossover and
//!   independent bit mutation.

use rand::Rng;

use crate::dominance::{dominates, pareto_filter};
use crate::genome::BitGenome;
use crate::operators::{binary_tournament, Variation};
use crate::problem::{Individual, Interrupted, Problem};

/// SPEA2 parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spea2Config {
    /// Population size N (paper §VI: 300 for networks with more than 100
    /// multiplexers, 100 otherwise).
    pub population_size: usize,
    /// Archive size Ñ (defaults to the population size).
    pub archive_size: usize,
    /// Number of generations to run.
    pub generations: usize,
    /// Variation operators and rates.
    pub variation: Variation,
}

impl Default for Spea2Config {
    fn default() -> Self {
        Self {
            population_size: 100,
            archive_size: 100,
            generations: 300,
            variation: Variation::default(),
        }
    }
}

/// Per-generation statistics handed to the observer callback.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Current archive Pareto-front size.
    pub front_size: usize,
    /// Best (minimum) value per objective over the archive.
    pub best: Vec<f64>,
}

/// Runs SPEA2 and returns the final non-dominated set, invoking `observer`
/// after every generation (pass `|_| {}` when not needed).
///
/// `should_stop` is a cooperative stop hook, polled once per generation
/// (before the seed batch and before every offspring batch); pass
/// `|| false` for a run that cannot be interrupted. A run that completes
/// returns a front that depends only on the RNG stream and the
/// configuration; a run whose hook fires returns [`Interrupted`] and
/// discards all intermediate state.
///
/// # Errors
///
/// [`Interrupted`] when `should_stop` returns `true` at any checkpoint.
pub fn spea2(
    problem: &impl Problem,
    config: &Spea2Config,
    rng: &mut impl Rng,
    mut observer: impl FnMut(&GenerationStats),
    mut should_stop: impl FnMut() -> bool,
) -> Result<Vec<Individual>, Interrupted> {
    let n = config.population_size.max(2);
    let a_cap = config.archive_size.max(2);
    let density = problem.initial_density();
    // Draw every genome from the RNG first, then evaluate as one batch: the
    // random stream is untouched by how (or on how many threads) the batch
    // is evaluated.
    let seed_genomes: Vec<BitGenome> =
        (0..n).map(|_| BitGenome::random(problem.genome_len(), density, rng)).collect();
    if should_stop() {
        return Err(Interrupted);
    }
    let mut population = Individual::evaluated_batch(problem, seed_genomes);
    let mut archive: Vec<Individual> = Vec::new();

    for generation in 0..config.generations {
        if should_stop() {
            return Err(Interrupted);
        }
        let union: Vec<Individual> = population.iter().chain(archive.iter()).cloned().collect();
        let fitness = fitness_values(&union);
        archive = environmental_selection(&union, &fitness, a_cap);

        let stats = GenerationStats {
            generation,
            front_size: pareto_filter(&archive).len(),
            best: best_per_objective(&archive),
        };
        observer(&stats);

        if generation + 1 == config.generations {
            break;
        }

        // Mating selection on the archive's fitness values. All offspring
        // genomes are produced sequentially (preserving the RNG stream) and
        // evaluated as one batch afterwards.
        let archive_fitness = fitness_values(&archive);
        let mut offspring = Vec::with_capacity(n);
        while offspring.len() < n {
            let pa = binary_tournament(&archive_fitness, rng);
            let pb = binary_tournament(&archive_fitness, rng);
            let (c, d) = config.variation.mate(&archive[pa].genome, &archive[pb].genome, rng);
            offspring.push(c);
            if offspring.len() < n {
                offspring.push(d);
            }
        }
        population = Individual::evaluated_batch(problem, offspring);
    }
    Ok(pareto_filter(&archive))
}

/// SPEA2 fitness F = R + D for each member of `pool`.
fn fitness_values(pool: &[Individual]) -> Vec<f64> {
    let n = pool.len();
    // Strength S(i): how many j the individual dominates.
    let mut strength = vec![0usize; n];
    let mut dominators: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in 0..n {
            if i != j && dominates(&pool[i].objectives, &pool[j].objectives) {
                strength[i] += 1;
                dominators[j].push(i);
            }
        }
    }
    // Raw fitness R(i): sum of dominators' strengths.
    let raw: Vec<f64> =
        (0..n).map(|i| dominators[i].iter().map(|&d| strength[d] as f64).sum()).collect();
    // Density D(i) from the k-th nearest neighbor distance (selection, not a
    // full sort: O(n) per individual).
    let k = (n as f64).sqrt() as usize;
    let dist = normalized_distances(pool);
    (0..n)
        .map(|i| {
            let mut row: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| dist(i, j)).collect();
            let sigma = if row.is_empty() {
                0.0
            } else {
                let idx = k.saturating_sub(1).min(row.len() - 1);
                let (_, kth, _) = row.select_nth_unstable_by(idx, |a, b| {
                    a.partial_cmp(b).expect("finite distances")
                });
                *kth
            };
            raw[i] + 1.0 / (sigma + 2.0)
        })
        .collect()
}

/// Euclidean distance in per-objective min-max normalized space.
fn normalized_distances(pool: &[Individual]) -> impl Fn(usize, usize) -> f64 + '_ {
    let m = pool.first().map_or(0, |i| i.objectives.len());
    let mut lo = vec![f64::INFINITY; m];
    let mut hi = vec![f64::NEG_INFINITY; m];
    for ind in pool {
        for (o, &v) in ind.objectives.iter().enumerate() {
            lo[o] = lo[o].min(v);
            hi[o] = hi[o].max(v);
        }
    }
    let scale: Vec<f64> = (0..m).map(|o| if hi[o] > lo[o] { hi[o] - lo[o] } else { 1.0 }).collect();
    move |i, j| {
        pool[i]
            .objectives
            .iter()
            .zip(&pool[j].objectives)
            .zip(&scale)
            .map(|((&a, &b), &s)| {
                let d = (a - b) / s;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// Environmental selection: non-dominated individuals, truncated or filled to
/// exactly `cap`.
fn environmental_selection(union: &[Individual], fitness: &[f64], cap: usize) -> Vec<Individual> {
    let mut selected: Vec<usize> = (0..union.len()).filter(|&i| fitness[i] < 1.0).collect();
    if selected.len() > cap {
        truncate_by_distance(union, &mut selected, cap);
    } else if selected.len() < cap {
        // Fill with the best dominated individuals.
        let mut rest: Vec<usize> = (0..union.len()).filter(|&i| fitness[i] >= 1.0).collect();
        rest.sort_by(|&a, &b| fitness[a].partial_cmp(&fitness[b]).expect("finite fitness"));
        for i in rest {
            if selected.len() == cap {
                break;
            }
            selected.push(i);
        }
    }
    selected.into_iter().map(|i| union[i].clone()).collect()
}

/// Iterated truncation: repeatedly remove the individual with the
/// lexicographically smallest sorted distance vector to the others.
///
/// Sorted neighbor lists are built once; removals mark entries dead and the
/// lexicographic comparison walks the lists lazily, so a full truncation is
/// ~O(n² log n) instead of the naive O(n³ log n).
fn truncate_by_distance(union: &[Individual], selected: &mut Vec<usize>, cap: usize) {
    let dist = normalized_distances(union);
    let m = selected.len();
    // neighbor_lists[a] = indices into `selected`, sorted by distance from a.
    let neighbor_lists: Vec<Vec<(f64, usize)>> = (0..m)
        .map(|a| {
            let mut row: Vec<(f64, usize)> =
                (0..m).filter(|&b| b != a).map(|b| (dist(selected[a], selected[b]), b)).collect();
            row.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite distances"));
            row
        })
        .collect();
    let mut alive = vec![true; m];
    let mut alive_count = m;
    while alive_count > cap {
        // Lexicographic argmin over the lazily filtered neighbor lists.
        let mut victim: Option<usize> = None;
        for a in (0..m).filter(|&a| alive[a]) {
            let better = match victim {
                None => true,
                Some(v) => lex_less_lazy(
                    neighbor_lists[a].as_slice(),
                    neighbor_lists[v].as_slice(),
                    &alive,
                ),
            };
            if better {
                victim = Some(a);
            }
        }
        let v = victim.expect("non-empty selection");
        alive[v] = false;
        alive_count -= 1;
    }
    let kept: Vec<usize> = (0..m).filter(|&a| alive[a]).map(|a| selected[a]).collect();
    *selected = kept;
}

/// Compares the sorted distance vectors of `a` and `b`, skipping dead
/// neighbors; returns `true` when `a`'s vector is lexicographically smaller.
fn lex_less_lazy(a: &[(f64, usize)], b: &[(f64, usize)], alive: &[bool]) -> bool {
    let mut ia = a.iter().filter(|&&(_, j)| alive[j]);
    let mut ib = b.iter().filter(|&&(_, j)| alive[j]);
    loop {
        match (ia.next(), ib.next()) {
            (Some(&(da, _)), Some(&(db, _))) => {
                if da < db {
                    return true;
                }
                if da > db {
                    return false;
                }
            }
            (None, Some(_)) => return true,
            _ => return false,
        }
    }
}

fn best_per_objective(pool: &[Individual]) -> Vec<f64> {
    let m = pool.first().map_or(0, |i| i.objectives.len());
    let mut best = vec![f64::INFINITY; m];
    for ind in pool {
        for (o, &v) in ind.objectives.iter().enumerate() {
            best[o] = best[o].min(v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Bi-objective test problem with a known Pareto front: minimize
    /// (ones(g), zeros(g)). Every genome is Pareto-optimal; the front in
    /// objective space is the line ones + zeros = len.
    struct OnesZeros(usize);
    impl Problem for OnesZeros {
        fn genome_len(&self) -> usize {
            self.0
        }
        fn objective_count(&self) -> usize {
            2
        }
        fn evaluate(&self, g: &BitGenome) -> Vec<f64> {
            let ones = g.count_ones() as f64;
            vec![ones, self.0 as f64 - ones]
        }
    }

    /// Weighted knapsack-style front: minimize (cost of set bits, value of
    /// unset bits); mirrors the hardening problem's additive structure.
    struct Additive {
        cost: Vec<f64>,
        damage: Vec<f64>,
    }
    impl Problem for Additive {
        fn genome_len(&self) -> usize {
            self.cost.len()
        }
        fn objective_count(&self) -> usize {
            2
        }
        fn evaluate(&self, g: &BitGenome) -> Vec<f64> {
            let cost: f64 = g.iter_ones().map(|i| self.cost[i]).sum();
            let total: f64 = self.damage.iter().sum();
            let avoided: f64 = g.iter_ones().map(|i| self.damage[i]).sum();
            vec![cost, total - avoided]
        }
    }

    #[test]
    fn result_is_mutually_non_dominated() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let p = OnesZeros(32);
        let cfg = Spea2Config { generations: 20, ..Default::default() };
        let front = spea2(&p, &cfg, &mut rng, |_| {}, || false).unwrap();
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                assert!(!dominates(&a.objectives, &b.objectives));
            }
        }
    }

    #[test]
    fn finds_the_extremes_of_an_additive_problem() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let p = Additive {
            cost: (0..24).map(|i| 1.0 + f64::from(i % 5)).collect(),
            damage: (0..24).map(|i| f64::from((i * 7) % 11) + 1.0).collect(),
        };
        let cfg = Spea2Config {
            population_size: 60,
            archive_size: 60,
            generations: 60,
            variation: Variation::default(),
        };
        let front = spea2(&p, &cfg, &mut rng, |_| {}, || false).unwrap();
        // The front must stretch close to both corners: a near-zero-cost
        // solution and a near-zero-damage solution.
        let total_cost: f64 = p.cost.iter().sum();
        let total_damage: f64 = p.damage.iter().sum();
        let min_cost = front.iter().map(|i| i.objectives[0]).fold(f64::INFINITY, f64::min);
        let min_damage = front.iter().map(|i| i.objectives[1]).fold(f64::INFINITY, f64::min);
        assert!(min_cost <= 0.2 * total_cost, "min cost {min_cost} vs total {total_cost}");
        assert!(
            min_damage <= 0.2 * total_damage,
            "min damage {min_damage} vs total {total_damage}"
        );
        assert!(front.len() >= 5, "expected a spread front, got {}", front.len());
    }

    #[test]
    fn observer_sees_every_generation() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = OnesZeros(8);
        let cfg = Spea2Config { generations: 7, ..Default::default() };
        let mut seen = Vec::new();
        spea2(&p, &cfg, &mut rng, |s| seen.push(s.generation), || false).unwrap();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn archive_respects_capacity() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let p = OnesZeros(64); // every individual non-dominated: forces truncation
        let cfg = Spea2Config {
            population_size: 40,
            archive_size: 10,
            generations: 5,
            variation: Variation::default(),
        };
        let front = spea2(&p, &cfg, &mut rng, |_| {}, || false).unwrap();
        assert!(front.len() <= 10, "front size {} exceeds archive cap", front.len());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let p = Additive { cost: vec![1.0, 2.0, 3.0, 4.0], damage: vec![4.0, 3.0, 2.0, 1.0] };
        let cfg = Spea2Config { generations: 10, ..Default::default() };
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut front = spea2(&p, &cfg, &mut rng, |_| {}, || false)
                .unwrap()
                .into_iter()
                .map(|i| i.objectives)
                .collect::<Vec<_>>();
            front.sort_by(|a, b| a.partial_cmp(b).unwrap());
            front
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn cancellable_run_with_quiet_hook_matches_plain_run() {
        // A hook that is polled but never fires leaves the RNG stream and
        // the front untouched; it is polled before the seed batch and once
        // per generation.
        let p = OnesZeros(16);
        let cfg = Spea2Config { generations: 8, ..Default::default() };
        let mut rng_a = ChaCha8Rng::seed_from_u64(21);
        let plain = spea2(&p, &cfg, &mut rng_a, |_| {}, || false).unwrap();
        let mut rng_b = ChaCha8Rng::seed_from_u64(21);
        let mut polls = 0usize;
        let mut quiet = || {
            polls += 1;
            false
        };
        let polled = spea2(&p, &cfg, &mut rng_b, |_| {}, &mut quiet).unwrap();
        assert_eq!(plain, polled);
        assert_eq!(polls, cfg.generations + 1);
    }

    #[test]
    fn stop_hook_interrupts_mid_run() {
        let p = OnesZeros(16);
        let cfg = Spea2Config { generations: 50, ..Default::default() };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut generations_seen = 0usize;
        let mut polls = 0usize;
        let got = spea2(
            &p,
            &cfg,
            &mut rng,
            |_| generations_seen += 1,
            || {
                polls += 1;
                polls > 4
            },
        );
        assert_eq!(got, Err(Interrupted));
        assert!(generations_seen < 50, "must stop well before the final generation");
    }
}
