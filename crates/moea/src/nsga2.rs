//! NSGA-II (Deb, Pratap, Agarwal, Meyarivan 2002) — the elitist
//! non-dominated-sorting genetic algorithm, provided as the comparison
//! baseline the paper cites alongside SPEA2 (\[15\]).

use rand::Rng;

use crate::dominance::{crowding_distance, non_dominated_sort, pareto_filter};
use crate::genome::BitGenome;
use crate::operators::Variation;
use crate::problem::{Individual, Interrupted, Problem};

/// NSGA-II parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Nsga2Config {
    /// Population size.
    pub population_size: usize,
    /// Number of generations.
    pub generations: usize,
    /// Variation operators and rates.
    pub variation: Variation,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Self { population_size: 100, generations: 300, variation: Variation::default() }
    }
}

/// Runs NSGA-II and returns the final non-dominated set.
///
/// `should_stop` is a cooperative stop hook, polled once per generation
/// (and before the seed batch); pass `|| false` for a run that cannot be
/// interrupted. A run that completes returns a front that depends only on
/// the RNG stream and the configuration; a run whose hook fires returns
/// [`Interrupted`] and discards all intermediate state.
///
/// # Errors
///
/// [`Interrupted`] when `should_stop` returns `true` at any checkpoint.
pub fn nsga2(
    problem: &impl Problem,
    config: &Nsga2Config,
    rng: &mut impl Rng,
    mut should_stop: impl FnMut() -> bool,
) -> Result<Vec<Individual>, Interrupted> {
    let n = config.population_size.max(2);
    let density = problem.initial_density();
    // Draw every genome from the RNG first, then evaluate as one batch: the
    // random stream is untouched by how the batch is evaluated.
    let seed_genomes: Vec<BitGenome> =
        (0..n).map(|_| BitGenome::random(problem.genome_len(), density, rng)).collect();
    if should_stop() {
        return Err(Interrupted);
    }
    let mut population = Individual::evaluated_batch(problem, seed_genomes);

    for _ in 0..config.generations {
        if should_stop() {
            return Err(Interrupted);
        }
        // Rank the current population for mating selection.
        let fronts = non_dominated_sort(&population);
        let mut rank = vec![0usize; population.len()];
        let mut crowd = vec![0.0f64; population.len()];
        for (r, front) in fronts.iter().enumerate() {
            let d = crowding_distance(&population, front);
            for (k, &i) in front.iter().enumerate() {
                rank[i] = r;
                crowd[i] = d[k];
            }
        }
        let tournament_pick = |rng: &mut dyn rand::RngCore| {
            let a = rng.random_range(0..population.len());
            let b = rng.random_range(0..population.len());
            if (rank[a], std::cmp::Reverse(ordered(crowd[a])))
                <= (rank[b], std::cmp::Reverse(ordered(crowd[b])))
            {
                a
            } else {
                b
            }
        };
        // Offspring: genomes first (sequential RNG), then one batch
        // evaluation.
        let mut offspring_genomes = Vec::with_capacity(n);
        while offspring_genomes.len() < n {
            let pa = tournament_pick(rng);
            let pb = tournament_pick(rng);
            let (c, d) = config.variation.mate(&population[pa].genome, &population[pb].genome, rng);
            offspring_genomes.push(c);
            if offspring_genomes.len() < n {
                offspring_genomes.push(d);
            }
        }
        let offspring = Individual::evaluated_batch(problem, offspring_genomes);
        // Elitist environmental selection over parents + offspring.
        let mut union = population;
        union.extend(offspring);
        let fronts = non_dominated_sort(&union);
        let mut next: Vec<Individual> = Vec::with_capacity(n);
        for front in &fronts {
            if next.len() + front.len() <= n {
                next.extend(front.iter().map(|&i| union[i].clone()));
            } else {
                let d = crowding_distance(&union, front);
                let mut order: Vec<usize> = (0..front.len()).collect();
                order
                    .sort_by(|&a, &b| d[b].partial_cmp(&d[a]).expect("crowding distances compare"));
                for &k in &order {
                    if next.len() == n {
                        break;
                    }
                    next.push(union[front[k]].clone());
                }
            }
            if next.len() == n {
                break;
            }
        }
        population = next;
    }
    Ok(pareto_filter(&population))
}

/// Total order for possibly-infinite crowding distances.
fn ordered(x: f64) -> u64 {
    // Monotone map of non-negative f64 (incl. +inf) to u64.
    x.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    fn problem() -> Additive {
        Additive {
            cost: (0..20).map(|i| 1.0 + f64::from(i % 4)).collect(),
            damage: (0..20).map(|i| f64::from((i * 5) % 13) + 1.0).collect(),
        }
    }

    #[test]
    fn front_is_mutually_non_dominated() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let cfg = Nsga2Config { generations: 30, ..Default::default() };
        let front = nsga2(&problem(), &cfg, &mut rng, || false).unwrap();
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                assert!(!dominates(&a.objectives, &b.objectives));
            }
        }
    }

    #[test]
    fn reaches_both_corners() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let cfg =
            Nsga2Config { population_size: 60, generations: 60, variation: Variation::default() };
        let front = nsga2(&problem(), &cfg, &mut rng, || false).unwrap();
        let p = problem();
        let total_cost: f64 = p.cost.iter().sum();
        let total_damage: f64 = p.damage.iter().sum();
        let min_cost = front.iter().map(|i| i.objectives[0]).fold(f64::INFINITY, f64::min);
        let min_damage = front.iter().map(|i| i.objectives[1]).fold(f64::INFINITY, f64::min);
        assert!(min_cost <= 0.2 * total_cost, "min cost {min_cost} vs total {total_cost}");
        assert!(
            min_damage <= 0.2 * total_damage,
            "min damage {min_damage} vs total {total_damage}"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let cfg = Nsga2Config { generations: 12, ..Default::default() };
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut front = nsga2(&problem(), &cfg, &mut rng, || false)
                .unwrap()
                .into_iter()
                .map(|i| i.objectives)
                .collect::<Vec<_>>();
            front.sort_by(|a, b| a.partial_cmp(b).unwrap());
            front
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn cancellable_run_with_quiet_hook_matches_plain_run() {
        // A hook that is polled but never fires leaves the RNG stream and
        // the front untouched; it is polled before the seed batch and once
        // per generation.
        let cfg = Nsga2Config { generations: 10, ..Default::default() };
        let mut rng_a = ChaCha8Rng::seed_from_u64(13);
        let plain = nsga2(&problem(), &cfg, &mut rng_a, || false).unwrap();
        let mut rng_b = ChaCha8Rng::seed_from_u64(13);
        let mut polls = 0usize;
        let mut quiet = || {
            polls += 1;
            false
        };
        let polled = nsga2(&problem(), &cfg, &mut rng_b, &mut quiet).unwrap();
        assert_eq!(plain, polled);
        assert_eq!(polls, cfg.generations + 1);
    }

    #[test]
    fn stop_hook_interrupts_mid_run() {
        let cfg = Nsga2Config { generations: 50, ..Default::default() };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut polls = 0usize;
        let got = nsga2(&problem(), &cfg, &mut rng, || {
            polls += 1;
            polls > 3
        });
        assert_eq!(got, Err(Interrupted));
    }
}
