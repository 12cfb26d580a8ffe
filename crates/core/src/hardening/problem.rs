//! The selective-hardening optimization problem (§V).
//!
//! Genome bit *j* encodes "primitive *j* is hardened" (`x_j = 1`). Because a
//! single fault only ever occupies one primitive and hardening avoids faults
//! *in that primitive*, the two objectives are additive:
//!
//! ```text
//! cost(x)   = Σⱼ c_j · x_j            (Eq. 3, minimized)
//! damage(x) = Σⱼ d_j · (1 - x_j)      (Eq. 2, minimized)
//! ```
//!
//! with `d_j` from the criticality analysis and `c_j` from the cost model.

use moea::{BitGenome, Problem};
use rsn_model::{NodeId, ScanNetwork};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::cost::CostModel;
use crate::criticality::Criticality;
use crate::par::{self, Parallelism, ShardPanic};

/// The bi-objective hardening problem handed to the optimizers.
#[derive(Clone, Debug)]
pub struct HardeningProblem {
    primitives: Vec<NodeId>,
    damage: Vec<u64>,
    cost: Vec<u64>,
    total_damage: u64,
    max_cost: u64,
    parallelism: Parallelism,
}

impl HardeningProblem {
    /// Builds the problem from an analysis result and a cost model.
    ///
    /// Population evaluation is sharded per [`Parallelism::default`] (the
    /// `RSN_THREADS` environment variable); pin it with
    /// [`with_parallelism`](Self::with_parallelism). The thread count never
    /// changes the objectives — evaluation is a pure per-genome map.
    #[must_use]
    pub fn new(net: &ScanNetwork, criticality: &Criticality, cost_model: &CostModel) -> Self {
        let primitives: Vec<NodeId> = criticality.primitives().to_vec();
        let damage: Vec<u64> = primitives.iter().map(|&j| criticality.damage(j)).collect();
        let cost: Vec<u64> = primitives.iter().map(|&j| cost_model.cost_of(net, j)).collect();
        let total_damage = damage.iter().sum();
        let max_cost = cost.iter().sum();
        Self {
            primitives,
            damage,
            cost,
            total_damage,
            max_cost,
            parallelism: Parallelism::default(),
        }
    }

    /// Sets the thread count used by batch evaluation.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The primitives, in genome-bit order.
    #[must_use]
    pub fn primitives(&self) -> &[NodeId] {
        &self.primitives
    }

    /// The damage `d_j` of genome bit `j`.
    #[must_use]
    pub fn damage_of_bit(&self, j: usize) -> u64 {
        self.damage[j]
    }

    /// The cost `c_j` of genome bit `j`.
    #[must_use]
    pub fn cost_of_bit(&self, j: usize) -> u64 {
        self.cost[j]
    }

    /// Σⱼ d_j — the damage with nothing hardened ("max damage", Table I
    /// column 5).
    #[must_use]
    pub fn total_damage(&self) -> u64 {
        self.total_damage
    }

    /// Σⱼ c_j — the cost of hardening everything ("max cost", column 4).
    #[must_use]
    pub fn max_cost(&self) -> u64 {
        self.max_cost
    }

    /// Exact integer objectives of a hardening vector.
    #[must_use]
    pub fn objectives_of(&self, genome: &BitGenome) -> (u64, u64) {
        let mut cost = 0u64;
        let mut avoided = 0u64;
        for j in genome.iter_ones() {
            cost += self.cost[j];
            avoided += self.damage[j];
        }
        (cost, self.total_damage - avoided)
    }
}

impl Problem for HardeningProblem {
    fn genome_len(&self) -> usize {
        self.primitives.len()
    }

    fn objective_count(&self) -> usize {
        2
    }

    fn evaluate(&self, genome: &BitGenome) -> Vec<f64> {
        let (cost, damage) = self.objectives_of(genome);
        vec![cost as f64, damage as f64]
    }

    /// Hardening is intended to be sparse ("a minimized number of spots");
    /// seeding at 10 % ones matches the constraint regime of Table I.
    fn initial_density(&self) -> f64 {
        0.1
    }

    /// Shards population evaluation across the configured threads.
    ///
    /// Evaluation is pure and the shards splice back in input order, so the
    /// objective vectors are bit-identical to the sequential default for
    /// every thread count; the first panic in input order is re-raised with
    /// its payload, as the sequential loop would. Small batches stay on the
    /// calling thread: one genome evaluation is a handful of adds, so below
    /// the work threshold the thread-spawn overhead dominates any speedup
    /// (this is what made `parallel/spea2/N` *slower* with more threads on
    /// small designs).
    fn evaluate_batch(&self, genomes: &[BitGenome]) -> Vec<Vec<f64>> {
        // ~genome bits touched across the whole batch; evaluate() is a
        // popcount-driven loop, so this tracks actual work well.
        const MIN_PARALLEL_WORK: usize = 1 << 20;
        if genomes.len().saturating_mul(self.primitives.len()) < MIN_PARALLEL_WORK {
            return genomes.iter().map(|g| self.evaluate(g)).collect();
        }
        par::try_map_indexed_scratch(
            self.parallelism,
            genomes.len(),
            || (),
            |(), i| {
                Ok::<_, ShardPanic>(catch_unwind(AssertUnwindSafe(|| self.evaluate(&genomes[i]))))
            },
        )
        .expect("evaluation panics are caught per genome")
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criticality::{analyze, AnalysisOptions};
    use crate::spec::CriticalitySpec;
    use rsn_model::{InstrumentKind, Structure};
    use rsn_sp::tree_from_structure;

    fn problem() -> HardeningProblem {
        let s = Structure::series(vec![
            Structure::instrument_seg("a", 2, InstrumentKind::Generic),
            Structure::parallel(
                vec![
                    Structure::instrument_seg("b", 1, InstrumentKind::Generic),
                    Structure::instrument_seg("c", 1, InstrumentKind::Generic),
                ],
                "m",
            ),
        ]);
        let (net, built) = s.build("t").unwrap();
        let tree = tree_from_structure(&net, &built);
        let mut spec = CriticalitySpec::new(&net);
        for (i, _) in net.instruments() {
            spec.set_weights(i, 3, 2);
        }
        let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
        HardeningProblem::new(&net, &crit, &CostModel::default())
    }

    #[test]
    fn empty_genome_costs_nothing_and_keeps_all_damage() {
        let p = problem();
        let g = BitGenome::zeros(p.genome_len());
        let (cost, damage) = p.objectives_of(&g);
        assert_eq!(cost, 0);
        assert_eq!(damage, p.total_damage());
    }

    #[test]
    fn full_genome_pays_max_cost_and_avoids_all_damage() {
        let p = problem();
        let mut g = BitGenome::zeros(p.genome_len());
        for j in 0..p.genome_len() {
            g.set(j, true);
        }
        let (cost, damage) = p.objectives_of(&g);
        assert_eq!(cost, p.max_cost());
        assert_eq!(damage, 0);
    }

    #[test]
    fn objectives_are_additive_per_bit() {
        let p = problem();
        for j in 0..p.genome_len() {
            let mut g = BitGenome::zeros(p.genome_len());
            g.set(j, true);
            let (cost, damage) = p.objectives_of(&g);
            assert_eq!(cost, p.cost_of_bit(j));
            assert_eq!(damage, p.total_damage() - p.damage_of_bit(j));
        }
    }

    #[test]
    fn float_objectives_match_integer_objectives() {
        let p = problem();
        let mut g = BitGenome::zeros(p.genome_len());
        g.set(0, true);
        g.set(2, true);
        let f = p.evaluate(&g);
        let (cost, damage) = p.objectives_of(&g);
        assert_eq!(f, vec![cost as f64, damage as f64]);
    }

    /// A batch large enough to shard (2^20 genome bits).
    fn sharded_batch(p: &HardeningProblem) -> Vec<BitGenome> {
        let n = (1 << 20) / p.genome_len() + 1;
        (0..n)
            .map(|k| {
                let mut g = BitGenome::zeros(p.genome_len());
                g.set(k % p.genome_len(), true);
                g
            })
            .collect()
    }

    #[test]
    fn sharded_batch_evaluation_matches_sequential() {
        let p = problem().with_parallelism(Parallelism::new(4));
        let genomes = sharded_batch(&p);
        let want: Vec<Vec<f64>> = genomes.iter().map(|g| p.evaluate(g)).collect();
        assert_eq!(p.evaluate_batch(&genomes), want);
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 4 but the index is 4")]
    fn evaluate_batch_reraises_a_worker_panic() {
        let p = problem().with_parallelism(Parallelism::new(4));
        let mut genomes = sharded_batch(&p);
        // Genomes longer than the problem index past the cost table; the
        // first in input order is the one re-raised.
        let mid = genomes.len() / 2;
        for (k, extra) in [(mid, 1), (mid + 1, 2)] {
            genomes[k] = BitGenome::zeros(p.genome_len() + extra);
            genomes[k].set(p.genome_len() + extra - 1, true);
        }
        let _ = p.evaluate_batch(&genomes);
    }
}
