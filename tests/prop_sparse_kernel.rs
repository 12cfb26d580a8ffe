//! Differential tests of the difference-driven lane kernel
//! (`graph_analysis::batch`) on the shapes where block order and sparsity
//! matter: rings of SIB-gated rings (one articulation cell per ring, so
//! articulation modes come first in their own blocks), deep SIB towers
//! (every fault cone spans the tower) and SIB-gated chiplets. The batched
//! sweep must equal the `Vec<bool>` reference at one and three threads, and
//! every mode range — including ranges cut across the articulation/other
//! boundary of the table — must equal the matching slice of a full sweep.

use proptest::prelude::*;
use robust_rsn::graph_analysis::reference;
use robust_rsn::{
    analyze_graph, analyze_mode_range_with_cancel, mode_count, AnalysisOptions, AnalysisPlan,
    CancelToken, CriticalitySpec, ModeAggregation, PaperSpecParams, Parallelism, SibCellPolicy,
};
use rsn_benchmarks::giant::{deep_sib_tree, multi_chiplet, ring_of_rings};
use rsn_model::ScanNetwork;

/// One of the three generated shapes, scaled by `size`.
fn shape(kind: u8, size: usize, seed: u64) -> ScanNetwork {
    let structure = match kind {
        0 => ring_of_rings(1 + size, 2 + size % 4, seed),
        1 => deep_sib_tree(1 + size, 1 + size % 2, seed),
        _ => multi_chiplet(1 + size % 3, 6 + 2 * size, 1 + size, seed),
    };
    structure.build("shape").expect("generated structures are valid").0
}

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

fn assert_matches_reference(net: &ScanNetwork, spec: &CriticalitySpec, options: &AnalysisOptions) {
    let want = reference::analyze_graph_ref(net, spec, options);
    let plan = AnalysisPlan::new(net, options.sib_policy);
    for threads in [1, 3] {
        let par = Parallelism::new(threads);
        let got = analyze_graph(&plan, net, spec, options.mode, par, &CancelToken::none()).unwrap();
        assert_eq!(got, want, "batched sweep ({threads} threads) diverges from the reference");
    }
}

/// Sweeps `lo..hi` at one and three threads and checks it against `full`.
fn assert_range_is_slice(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
    full: &[robust_rsn::ModeDamage],
    lo: usize,
    hi: usize,
) {
    for threads in [1, 3] {
        let none = CancelToken::none();
        let par = Parallelism::new(threads);
        let got = analyze_mode_range_with_cancel(net, spec, options, par, &none, lo, hi).unwrap();
        assert_eq!(got, full[lo..hi], "range {lo}..{hi} at {threads} threads");
    }
}

fn full_sweep(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
) -> Vec<robust_rsn::ModeDamage> {
    let total = mode_count(net, options);
    let none = CancelToken::none();
    analyze_mode_range_with_cancel(net, spec, options, Parallelism::new(1), &none, 0, total)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_batch_matches_reference_on_generated_shapes(
        kind in 0u8..3,
        size in 0usize..8,
        seed in 0u64..1_000,
        spec_seed in 0u64..1_000,
        options in options_strategy(),
    ) {
        let net = shape(kind, size, seed);
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), spec_seed);
        assert_matches_reference(&net, &spec, &options);
    }

    #[test]
    fn mode_ranges_equal_slices_of_the_full_sweep(
        kind in 0u8..3,
        size in 0usize..12,
        seed in 0u64..1_000,
        cut in (0.0f64..1.0, 0.0f64..1.0),
        options in options_strategy(),
    ) {
        let net = shape(kind, size, seed);
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let full = full_sweep(&net, &spec, &options);
        let at = |x: f64| (x * full.len() as f64) as usize;
        let (lo, hi) = (at(cut.0.min(cut.1)), at(cut.0.max(cut.1)));
        assert_range_is_slice(&net, &spec, &options, &full, lo, hi);
    }
}

/// Every range of a small ring network: ring modes alternate between the
/// articulation cell's modes and the local ones, so this covers every cut
/// across the boundary, one- and two-mode ranges included. The network is
/// one block's worth, so it sweeps in table order; the `graph_analysis`
/// unit test `articulation_first_packs_only_where_it_saves_dense_blocks`
/// covers ranges of a packed sweep.
#[test]
fn every_range_of_a_small_ring_network_is_a_slice() {
    let net = ring_of_rings(3, 3, 7).build("rings").unwrap().0;
    let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 7);
    let options = AnalysisOptions::default();
    let full = full_sweep(&net, &spec, &options);
    for lo in 0..=full.len() {
        for hi in lo..=full.len() {
            assert_range_is_slice(&net, &spec, &options, &full, lo, hi);
        }
    }
}

/// The `scripts/check.sh` differential smoke for the articulation-first
/// block order: 120 SIB-gated rings (1,320 fault modes, enough lane blocks
/// for three workers to claim) must sweep bit-identically to the reference.
#[test]
fn batch_matches_reference_on_ring_of_rings() {
    let net = ring_of_rings(120, 5, 2022).build("rings120").unwrap().0;
    let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 2022);
    assert_matches_reference(&net, &spec, &AnalysisOptions::default());
}
