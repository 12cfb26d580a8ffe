//! Property-based validation of the criticality analysis: on random
//! series-parallel networks, the O(N) hierarchical computation, the O(N²)
//! per-fault reference, and (on small instances) the exhaustive
//! configuration oracle must all agree.

use proptest::prelude::*;
use robust_rsn::{
    analyze, analyze_naive, oracle_damage, AnalysisOptions, CriticalitySpec, ModeAggregation,
    PaperSpecParams, SibCellPolicy,
};
use rsn_benchmarks::{random_structure, RandomParams};
use rsn_sp::{recognize, tree_from_structure};

fn options_strategy() -> impl Strategy<Value = AnalysisOptions> {
    (
        prop_oneof![
            Just(ModeAggregation::Worst),
            Just(ModeAggregation::Sum),
            Just(ModeAggregation::Mean)
        ],
        prop_oneof![Just(SibCellPolicy::Combined), Just(SibCellPolicy::SegmentOnly)],
    )
        .prop_map(|(mode, sib_policy)| AnalysisOptions { mode, sib_policy })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_equals_naive_on_random_networks(
        seed in 0u64..10_000,
        spec_seed in 0u64..1_000,
        options in options_strategy(),
    ) {
        let s = random_structure(&RandomParams::default(), seed);
        let (net, built) = s.build("prop").unwrap();
        let tree = tree_from_structure(&net, &built);
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), spec_seed);
        let fast = analyze(&net, &tree, &weights, &options);
        let naive = analyze_naive(&net, &tree, &weights, &options);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn fast_equals_oracle_on_small_random_networks(
        seed in 0u64..5_000,
        spec_seed in 0u64..1_000,
    ) {
        let params = RandomParams { max_depth: 3, max_series: 3, ..Default::default() };
        let s = random_structure(&params, seed);
        let (net, built) = s.build("prop").unwrap();
        // The oracle enumerates every configuration; bail out on huge
        // products (rare at this depth).
        let config_count: f64 = net
            .muxes()
            .map(|m| net.node(m).kind.as_mux().unwrap().fan_in() as f64)
            .product();
        prop_assume!(config_count <= 4096.0);
        let tree = tree_from_structure(&net, &built);
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), spec_seed);
        let options = AnalysisOptions::default();
        let crit = analyze(&net, &tree, &weights, &options);
        for j in net.primitives() {
            prop_assert_eq!(crit.damage(j), oracle_damage(&net, &weights, j, &options));
        }
    }

    #[test]
    fn recognition_gives_the_same_analysis(seed in 0u64..5_000) {
        let s = random_structure(&RandomParams::default(), seed);
        let (net, built) = s.build("prop").unwrap();
        let structural = tree_from_structure(&net, &built);
        let recognized = recognize(&net).unwrap();
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let options = AnalysisOptions::default();
        let a = analyze(&net, &structural, &weights, &options);
        let b = analyze(&net, &recognized, &weights, &options);
        for j in net.primitives() {
            prop_assert_eq!(a.damage(j), b.damage(j));
        }
    }

    #[test]
    fn hardening_a_primitive_never_increases_total_damage(
        seed in 0u64..2_000,
    ) {
        use robust_rsn::{CostModel, HardeningProblem};
        use moea::{BitGenome, Problem};
        let s = random_structure(&RandomParams::default(), seed);
        let (net, built) = s.build("prop").unwrap();
        let tree = tree_from_structure(&net, &built);
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let crit = analyze(&net, &tree, &weights, &AnalysisOptions::default());
        let p = HardeningProblem::new(&net, &crit, &CostModel::default());
        let mut g = BitGenome::zeros(p.genome_len());
        let (mut prev_cost, mut prev_damage) = p.objectives_of(&g);
        for j in 0..p.genome_len() {
            g.set(j, true);
            let (cost, damage) = p.objectives_of(&g);
            prop_assert!(cost >= prev_cost, "cost is monotone");
            prop_assert!(damage <= prev_damage, "damage never increases");
            prev_cost = cost;
            prev_damage = damage;
        }
        prop_assert_eq!(prev_damage, 0, "hardening everything removes all damage");
    }

    #[test]
    fn damage_is_monotone_in_weights(seed in 0u64..2_000) {
        // Raising any instrument's weights never lowers any primitive's
        // damage.
        let s = random_structure(&RandomParams::default(), seed);
        let (net, built) = s.build("prop").unwrap();
        prop_assume!(net.instrument_count() > 0);
        let tree = tree_from_structure(&net, &built);
        let base = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let mut boosted = base.clone();
        let victim = rsn_model::InstrumentId::new((seed as usize) % net.instrument_count());
        boosted.set_weights(
            victim,
            base.obs_weight(victim) + 5,
            base.set_weight(victim) + 5,
        );
        let options = AnalysisOptions::default();
        let a = analyze(&net, &tree, &base, &options);
        let b = analyze(&net, &tree, &boosted, &options);
        for j in net.primitives() {
            prop_assert!(b.damage(j) >= a.damage(j));
        }
    }

    #[test]
    fn combined_policy_dominates_segment_only(seed in 0u64..2_000) {
        // Freezing the controlled multiplexers can only add disconnected
        // instruments, so Combined damage >= SegmentOnly damage everywhere.
        let s = random_structure(&RandomParams::default(), seed);
        let (net, built) = s.build("prop").unwrap();
        let tree = tree_from_structure(&net, &built);
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let combined = analyze(
            &net,
            &tree,
            &weights,
            &AnalysisOptions { sib_policy: SibCellPolicy::Combined, mode: ModeAggregation::Worst },
        );
        let segment_only = analyze(
            &net,
            &tree,
            &weights,
            &AnalysisOptions {
                sib_policy: SibCellPolicy::SegmentOnly,
                mode: ModeAggregation::Worst,
            },
        );
        for j in net.primitives() {
            prop_assert!(combined.damage(j) >= segment_only.damage(j));
        }
    }

    #[test]
    fn worst_mode_bounds_mean_mode(seed in 0u64..2_000) {
        let s = random_structure(&RandomParams::default(), seed);
        let (net, built) = s.build("prop").unwrap();
        let tree = tree_from_structure(&net, &built);
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let worst = analyze(
            &net,
            &tree,
            &weights,
            &AnalysisOptions { mode: ModeAggregation::Worst, ..Default::default() },
        );
        let mean = analyze(
            &net,
            &tree,
            &weights,
            &AnalysisOptions { mode: ModeAggregation::Mean, ..Default::default() },
        );
        for j in net.primitives() {
            prop_assert!(worst.damage(j) >= mean.damage(j));
        }
    }

    #[test]
    fn graph_analysis_matches_tree_analysis(
        seed in 0u64..5_000,
        options in options_strategy(),
    ) {
        use robust_rsn::{analyze_graph, AnalysisPlan, CancelToken, Parallelism};
        let s = random_structure(&RandomParams::default(), seed);
        let (net, built) = s.build("prop").unwrap();
        let tree = tree_from_structure(&net, &built);
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let tree_crit = analyze(&net, &tree, &weights, &options);
        let plan = AnalysisPlan::new(&net, options.sib_policy);
        let (par, none) = (Parallelism::default(), &CancelToken::none());
        let graph_crit = analyze_graph(&plan, &net, &weights, options.mode, par, none).unwrap();
        for j in net.primitives() {
            prop_assert_eq!(tree_crit.damage(j), graph_crit.damage(j));
        }
    }
}
