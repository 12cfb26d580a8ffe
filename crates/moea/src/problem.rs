//! The multi-objective problem abstraction.

use crate::genome::BitGenome;

/// A multi-objective minimization problem over binary genomes.
///
/// All objectives are minimized; wrap maximization objectives by negation.
///
/// # Examples
///
/// A toy bi-objective problem — minimize the number of ones and the number of
/// zeros (whose Pareto front is the whole genome space):
///
/// ```
/// use moea::{BitGenome, Problem};
///
/// struct OnesVsZeros(usize);
///
/// impl Problem for OnesVsZeros {
///     fn genome_len(&self) -> usize { self.0 }
///     fn objective_count(&self) -> usize { 2 }
///     fn evaluate(&self, g: &BitGenome) -> Vec<f64> {
///         let ones = g.count_ones() as f64;
///         vec![ones, self.0 as f64 - ones]
///     }
/// }
///
/// let p = OnesVsZeros(8);
/// assert_eq!(p.evaluate(&BitGenome::zeros(8)), vec![0.0, 8.0]);
/// ```
pub trait Problem {
    /// Number of bits in a genome.
    fn genome_len(&self) -> usize;

    /// Number of objectives (≥ 1).
    fn objective_count(&self) -> usize;

    /// Evaluates a genome; the returned vector has
    /// [`objective_count`](Self::objective_count) entries.
    fn evaluate(&self, genome: &BitGenome) -> Vec<f64>;

    /// Initial density of ones when seeding the random population
    /// (default 0.5; sparse problems override this).
    fn initial_density(&self) -> f64 {
        0.5
    }

    /// Evaluates a whole batch of genomes, returning one objective vector
    /// per genome **in input order**.
    ///
    /// The default is a sequential map over [`evaluate`](Self::evaluate).
    /// Problems whose evaluation is pure may override this to fan the batch
    /// out across threads (e.g. `robust_rsn::HardeningProblem` shards it via
    /// `robust_rsn::par`); the optimizers call it once per generation with
    /// all offspring, so an override must preserve input order exactly to
    /// keep runs bit-identical across thread counts.
    fn evaluate_batch(&self, genomes: &[BitGenome]) -> Vec<Vec<f64>> {
        genomes.iter().map(|g| self.evaluate(g)).collect()
    }
}

/// Error returned by the optimizers ([`crate::spea2()`], [`crate::nsga2()`])
/// when the caller-supplied stop hook fired
/// before the final generation: the run was abandoned and no front is
/// returned (partial fronts would depend on *when* the hook fired and break
/// determinism).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupted;

impl core::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("optimizer run interrupted by its stop hook")
    }
}

impl std::error::Error for Interrupted {}

/// An evaluated genome.
#[derive(Clone, Debug, PartialEq)]
pub struct Individual {
    /// The genome.
    pub genome: BitGenome,
    /// Its objective vector (minimization).
    pub objectives: Vec<f64>,
}

impl Individual {
    /// Evaluates `genome` against `problem`.
    #[must_use]
    pub fn evaluated(problem: &impl Problem, genome: BitGenome) -> Self {
        let objectives = problem.evaluate(&genome);
        debug_assert_eq!(objectives.len(), problem.objective_count());
        Self { genome, objectives }
    }

    /// Evaluates a batch of genomes through
    /// [`Problem::evaluate_batch`], preserving input order.
    #[must_use]
    pub fn evaluated_batch(problem: &impl Problem, genomes: Vec<BitGenome>) -> Vec<Self> {
        let objectives = problem.evaluate_batch(&genomes);
        debug_assert_eq!(objectives.len(), genomes.len());
        genomes
            .into_iter()
            .zip(objectives)
            .map(|(genome, objectives)| {
                debug_assert_eq!(objectives.len(), problem.objective_count());
                Self { genome, objectives }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Count(usize);
    impl Problem for Count {
        fn genome_len(&self) -> usize {
            self.0
        }
        fn objective_count(&self) -> usize {
            1
        }
        fn evaluate(&self, g: &BitGenome) -> Vec<f64> {
            vec![g.count_ones() as f64]
        }
    }

    #[test]
    fn evaluated_individual_carries_objectives() {
        let p = Count(16);
        let mut g = BitGenome::zeros(16);
        g.set(3, true);
        g.set(9, true);
        let ind = Individual::evaluated(&p, g);
        assert_eq!(ind.objectives, vec![2.0]);
    }

    #[test]
    fn default_initial_density_is_half() {
        assert!((Count(4).initial_density() - 0.5).abs() < f64::EPSILON);
    }
}
