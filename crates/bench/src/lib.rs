//! Shared harness utilities for the benchmark suite: the end-to-end pipeline
//! (generate → build → decompose → specify → analyze → optimize) and result
//! formatting used by the Table I and ablation harnesses.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use moea::{Spea2Config, Variation};
use robust_rsn::{
    analyze, solve_spea2, AnalysisOptions, CancelToken, CostModel, CriticalitySpec, HardeningFront,
    HardeningProblem, PaperSpecParams,
};
use rsn_benchmarks::BenchmarkSpec;
use rsn_model::ScanNetwork;
use rsn_sp::{tree_from_structure, DecompTree};

/// Seed used for every deterministic experiment in the harness.
pub const EXPERIMENT_SEED: u64 = 2022;

/// A fully prepared problem instance for one benchmark design.
#[derive(Debug)]
pub struct Instance {
    /// The network.
    pub net: ScanNetwork,
    /// Its decomposition tree.
    pub tree: DecompTree,
    /// The §VI randomized specification.
    pub weights: CriticalitySpec,
    /// The hardening problem (damage vector + costs).
    pub problem: HardeningProblem,
    /// Wall-clock time of generation + build + tree + analysis.
    pub prep_time: Duration,
}

/// Generates and analyzes one Table I design end to end.
///
/// # Panics
///
/// Panics if the registered generator produces an invalid network (covered
/// by the test suite).
#[must_use]
pub fn prepare(spec: &BenchmarkSpec) -> Instance {
    let start = Instant::now();
    let structure = spec.generate();
    let (net, built) = structure.build(spec.name).expect("registered generators are valid");
    let tree = tree_from_structure(&net, &built);
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), EXPERIMENT_SEED);
    let crit = analyze(&net, &tree, &weights, &AnalysisOptions::default());
    let problem = HardeningProblem::new(&net, &crit, &CostModel::default());
    let prep_time = start.elapsed();
    Instance { net, tree, weights, problem, prep_time }
}

/// The paper's SPEA2 configuration for a design, with `generations`
/// optionally overridden (scaled-down runs).
#[must_use]
pub fn spea2_config(spec: &BenchmarkSpec, generations: usize) -> Spea2Config {
    Spea2Config {
        population_size: spec.population(),
        archive_size: spec.population(),
        generations,
        variation: Variation { crossover_rate: 0.95, mutation_rate: 0.01, ..Default::default() },
    }
}

/// Runs the paper's optimizer on a prepared instance.
#[must_use]
pub fn optimize(instance: &Instance, config: &Spea2Config) -> HardeningFront {
    solve_spea2(&instance.problem, config, EXPERIMENT_SEED, |_| {}, &CancelToken::none())
        .expect("a none token never cancels")
}

/// Formats a duration as `m:ss` like Table I column 11.
#[must_use]
pub fn fmt_mmss(d: Duration) -> String {
    let s = d.as_secs();
    format!("{:02}:{:02}", s / 60, s % 60)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_benchmarks::by_name;

    #[test]
    fn prepare_produces_a_consistent_instance() {
        let spec = by_name("TreeFlat").unwrap();
        let inst = prepare(&spec);
        assert_eq!(inst.net.stats().segments, 24);
        assert_eq!(inst.problem.primitives().len(), 48);
        assert!(inst.problem.total_damage() > 0);
        assert!(inst.tree.validate(&inst.net).is_ok());
        assert!(!inst.weights.is_empty());
    }

    #[test]
    fn mmss_formats_like_the_paper() {
        assert_eq!(fmt_mmss(Duration::from_secs(7)), "00:07");
        assert_eq!(fmt_mmss(Duration::from_secs(92 * 60 + 1)), "92:01");
    }
}
