//! Differential validation of the mode-major batch kernel
//! (`graph_analysis::batch`): the lane-packed sweep behind
//! [`robust_rsn::analyze_graph`] and the exact double-fault API must be
//! bit-identical to the `Vec<bool>` reference — per mode, and maximized over
//! the frozen-select odometer for fault sets — on random series-parallel
//! networks, on bridge-extended non-SP networks, at every thread count, and
//! on partial final lane blocks (< 64 modes). One [`AnalysisPlan`] shared
//! across specs must sweep exactly like a throw-away plan per call.

use proptest::prelude::*;
use robust_rsn::graph_analysis::{double_fault_pair_damages, reference, visit_traced_modes};
use robust_rsn::{
    analyze_graph, analyze_mode_range, analyze_mode_range_with_cancel,
    criticality_from_mode_damages, double_fault_damage, merge_mode_damages, mode_count,
    AnalysisError, AnalysisOptions, AnalysisPlan, CancelToken, CriticalitySpec, ModeAggregation,
    PaperSpecParams, Parallelism, SibCellPolicy,
};
use rsn_benchmarks::{by_name, random_structure, RandomParams};
use rsn_model::{
    enumerate_single_faults, ControlSource, Fault, FaultKind, InstrumentKind, NetworkBuilder,
    NodeId, ScanNetwork, Segment,
};

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

/// A random non-series-parallel network: a bridge (reconvergent fan-out that
/// defeats SP recognition) followed by a couple of random blocks.
fn random_bridge_net(seed: u64) -> ScanNetwork {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut b = NetworkBuilder::new("nonsp");
    let (si, so) = (b.scan_in(), b.scan_out());
    let mut prev = si;
    let mut uniq = 0usize;
    let blocks = 1 + (rnd() % 3) as usize;
    for k in 0..blocks {
        let pick = if k == 0 { 1 } else { rnd() % 2 };
        match pick {
            0 => {
                // Diamond whose mux is controlled by an upstream cell, so
                // breaking the cell freezes the mux under Combined policy.
                uniq += 1;
                let cell = b.add_segment(format!("cell{uniq}"), Segment::new(1));
                b.connect(prev, cell).unwrap();
                let f = b.add_fanout(format!("df{uniq}"));
                b.connect(cell, f).unwrap();
                let a = b.add_segment(format!("da{uniq}"), Segment::new(1));
                let c = b.add_segment(format!("dc{uniq}"), Segment::new(2));
                b.connect(f, a).unwrap();
                b.connect(f, c).unwrap();
                let m = b
                    .add_mux(
                        format!("dm{uniq}"),
                        vec![a, c],
                        ControlSource::Cell { segment: cell, bit: 0 },
                    )
                    .unwrap();
                b.add_instrument(format!("ia{uniq}"), a, InstrumentKind::Bist).unwrap();
                b.add_instrument(format!("ic{uniq}"), c, InstrumentKind::Debug).unwrap();
                prev = m;
            }
            _ => {
                // The bridge: f1 fans out to a and bb; bb reconverges
                // through f2 into both the a-side mux and its own branch c.
                uniq += 1;
                let f1 = b.add_fanout(format!("bf1_{uniq}"));
                b.connect(prev, f1).unwrap();
                let a = b.add_segment(format!("ba{uniq}"), Segment::new(1));
                let bb = b.add_segment(format!("bb{uniq}"), Segment::new(1));
                let f2 = b.add_fanout(format!("bf2_{uniq}"));
                b.connect(f1, a).unwrap();
                b.connect(f1, bb).unwrap();
                b.connect(bb, f2).unwrap();
                let m1 =
                    b.add_mux(format!("bm1_{uniq}"), vec![a, f2], ControlSource::Direct).unwrap();
                let c = b.add_segment(format!("bc{uniq}"), Segment::new(1));
                b.connect(f2, c).unwrap();
                let m2 =
                    b.add_mux(format!("bm2_{uniq}"), vec![m1, c], ControlSource::Direct).unwrap();
                b.add_instrument(format!("iba{uniq}"), a, InstrumentKind::Sensor).unwrap();
                b.add_instrument(format!("ibb{uniq}"), bb, InstrumentKind::Bist).unwrap();
                b.add_instrument(format!("ibc{uniq}"), c, InstrumentKind::Debug).unwrap();
                prev = m2;
            }
        }
    }
    b.connect(prev, so).unwrap();
    b.finish().unwrap()
}

/// Asserts the batched sweep equals the reference and is identical at one
/// and four worker threads (partial final lane blocks included — mode counts
/// are essentially never multiples of the lane width).
fn assert_batch_matches_reference(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    opt: &AnalysisOptions,
) {
    let want = reference::analyze_graph_ref(net, spec, opt);
    let none = CancelToken::none();
    let plan = AnalysisPlan::new(net, opt.sib_policy);
    let one = analyze_graph(&plan, net, spec, opt.mode, Parallelism::new(1), &none).unwrap();
    let four = analyze_graph(&plan, net, spec, opt.mode, Parallelism::new(4), &none).unwrap();
    assert_eq!(one, want, "batched sweep (1 thread) diverges from the reference");
    assert_eq!(four, want, "batched sweep (4 threads) diverges from the reference");
}

/// Sweeps `net` under two specs through one shared plan and checks, per
/// spec, at one and three threads: the full sweep and the `cut` sub-range
/// equal the throw-away-plan entry points, the damage vector equals the
/// `Vec<bool>` reference, and the merge equals the throw-away merge.
fn assert_shared_plan_matches(
    net: &ScanNetwork,
    options: &AnalysisOptions,
    spec_seeds: [u64; 2],
    cut: (f64, f64),
) {
    let plan = AnalysisPlan::new(net, options.sib_policy);
    let total = plan.mode_count();
    assert_eq!(total, mode_count(net, options));
    let at = |x: f64| (x * total as f64) as usize;
    let (lo, hi) = (at(cut.0.min(cut.1)), at(cut.0.max(cut.1)));
    let none = CancelToken::none();
    for spec_seed in spec_seeds {
        let spec = CriticalitySpec::paper_random(net, &PaperSpecParams::default(), spec_seed);
        let want = reference::analyze_graph_ref(net, &spec, options);
        let seq = Parallelism::sequential();
        let full =
            analyze_mode_range_with_cancel(net, &spec, options, seq, &none, 0, total).unwrap();
        for threads in [1, 3] {
            let par = Parallelism::new(threads);
            let shared = analyze_graph(&plan, net, &spec, options.mode, par, &none).unwrap();
            assert_eq!(shared, want, "shared-plan sweep ({threads} threads) vs the reference");
            let range = analyze_mode_range(&plan, net, &spec, par, &none, 0..total).unwrap();
            assert_eq!(range, full, "shared-plan full range ({threads} threads)");
            let sub = analyze_mode_range(&plan, net, &spec, par, &none, lo..hi).unwrap();
            assert_eq!(sub, full[lo..hi], "shared-plan range {lo}..{hi} ({threads} threads)");
            let throwaway =
                analyze_mode_range_with_cancel(net, &spec, options, par, &none, lo, hi).unwrap();
            assert_eq!(sub, throwaway, "throw-away range {lo}..{hi} ({threads} threads)");
        }
        let merged = merge_mode_damages(&plan, net, options.mode, &full).unwrap();
        assert_eq!(merged, criticality_from_mode_damages(net, options, &full).unwrap());
        for &j in want.primitives() {
            assert_eq!(merged.damage(j), want.damage(j), "merged damage of {j}");
        }
    }
}

/// The joint damage of a fault set under the Combined policy, straight from
/// the reference: the worst `reference::mode_damage` over every
/// frozen-select combination of the muxes whose control cell the set breaks
/// (and that are not stuck themselves).
fn reference_fault_set_damage(net: &ScanNetwork, spec: &CriticalitySpec, faults: &[Fault]) -> u64 {
    let mut broken = Vec::new();
    let mut stuck = Vec::new();
    for f in faults {
        match f.kind {
            FaultKind::SegmentBroken => broken.push(f.node),
            FaultKind::MuxStuckAt(p) => stuck.push((f.node, usize::from(p))),
        }
    }
    let free: Vec<NodeId> = net
        .muxes()
        .filter(|&m| !stuck.iter().any(|&(s, _)| s == m))
        .filter(|&m| {
            matches!(net.node(m).kind.as_mux().unwrap().control,
                ControlSource::Cell { segment, .. } if broken.contains(&segment))
        })
        .collect();
    let radix: Vec<usize> =
        free.iter().map(|&m| net.node(m).kind.as_mux().unwrap().fan_in()).collect();
    (0..radix.iter().product::<usize>())
        .map(|c| {
            let mut frozen = stuck.clone();
            let mut rest = c;
            for (&m, &r) in free.iter().zip(&radix) {
                frozen.push((m, rest % r));
                rest /= r;
            }
            reference::mode_damage(net, spec, &broken, &frozen).total()
        })
        .max()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batch_matches_scalar_on_random_sp_networks(
        seed in 0u64..10_000,
        spec_seed in 0u64..1_000,
        options in options_strategy(),
    ) {
        let s = random_structure(&RandomParams::default(), seed);
        let (net, _) = s.build("prop").unwrap();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), spec_seed);
        assert_batch_matches_reference(&net, &spec, &options);
    }

    #[test]
    fn batch_matches_scalar_on_bridge_networks(
        seed in 0u64..10_000,
        spec_seed in 0u64..1_000,
        options in options_strategy(),
    ) {
        let net = random_bridge_net(seed);
        prop_assert!(rsn_sp::recognize(&net).is_err(), "bridge blocks defeat SP recognition");
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), spec_seed);
        assert_batch_matches_reference(&net, &spec, &options);
    }

    #[test]
    fn shared_plan_matches_throwaway_plans_and_the_reference(
        seed in 0u64..10_000,
        bridge in 0u8..2,
        spec_seeds in (0u64..1_000, 0u64..1_000),
        cut in (0.0f64..1.0, 0.0f64..1.0),
        options in options_strategy(),
    ) {
        let net = if bridge == 1 {
            random_bridge_net(seed)
        } else {
            random_structure(&RandomParams::default(), seed).build("prop").unwrap().0
        };
        assert_shared_plan_matches(&net, &options, [spec_seeds.0, spec_seeds.1], cut);
    }

    #[test]
    fn exact_pairs_match_the_scalar_fault_set_path(
        seed in 0u64..5_000,
        spec_seed in 0u64..500,
    ) {
        let net = random_bridge_net(seed);
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), spec_seed);
        let pool = enumerate_single_faults(&net);
        let plan = AnalysisPlan::new(&net, SibCellPolicy::Combined);
        let pairs_one = double_fault_pair_damages(
            &plan, &net, &spec, &[], Parallelism::new(1), &CancelToken::none(),
        ).unwrap();
        let pairs_four = double_fault_pair_damages(
            &plan, &net, &spec, &[], Parallelism::new(4), &CancelToken::none(),
        ).unwrap();
        prop_assert_eq!(&pairs_one, &pairs_four, "pair sweep must be thread-count invariant");
        prop_assert_eq!(pairs_one.len(), pool.len() * (pool.len().saturating_sub(1)) / 2);
        // Every lane-packed pair damage must equal the reference maximized
        // over the same pair's frozen-select odometer.
        let mut k = 0;
        for i in 0..pool.len() {
            for j in (i + 1)..pool.len() {
                let want = reference_fault_set_damage(&net, &spec, &[pool[i], pool[j]]);
                prop_assert_eq!(
                    pairs_one[k], want,
                    "pair ({}, {}) diverges from the reference odometer", i, j
                );
                k += 1;
            }
        }
    }
}

/// A fired token interrupts both the batched single-fault sweep and the
/// exact pair sweep mid-block; a quiet token changes nothing.
#[test]
fn cancellation_interrupts_batched_sweeps() {
    let net = random_bridge_net(7);
    let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 7);
    let options = AnalysisOptions::default();
    let token = CancelToken::new();
    token.cancel();
    let plan = AnalysisPlan::new(&net, options.sib_policy);
    let one = Parallelism::new(1);
    assert_eq!(
        analyze_graph(&plan, &net, &spec, options.mode, one, &token),
        Err(AnalysisError::Cancelled)
    );
    assert_eq!(
        double_fault_damage(&plan, &net, &spec, &[], one, &token),
        Err(AnalysisError::Cancelled)
    );
    let quiet = analyze_graph(&plan, &net, &spec, options.mode, one, &CancelToken::new()).unwrap();
    assert_eq!(quiet, reference::analyze_graph_ref(&net, &spec, &options));
}

/// The `scripts/check.sh` differential smoke: on the p34392 Table I design
/// (529 fault modes — eight full 64-lane blocks plus a partial ninth), the
/// batched sweep must be bit-identical to the reference at one and four
/// threads, and under both SIB policies every mode's traced damage — what
/// the what-if workspace and the validation campaign read — must equal the
/// reference's damage of that mode.
#[test]
fn batch_matches_reference_on_p34392() {
    let bench = by_name("p34392").expect("p34392 is a registered Table I design");
    let (net, _) = bench.generate().build(bench.name).unwrap();
    let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 2022);
    assert_batch_matches_reference(&net, &spec, &AnalysisOptions::default());
    for policy in [SibCellPolicy::Combined, SibCellPolicy::SegmentOnly] {
        let plan = AnalysisPlan::new(&net, policy);
        let mut modes = 0;
        visit_traced_modes(&plan, &net, &spec, Parallelism::new(2), |broken, frozen, traced| {
            let want = reference::mode_damage(&net, &spec, broken, frozen);
            assert_eq!(traced, want, "{policy:?} mode {modes}: {broken:?} {frozen:?}");
            modes += 1;
        })
        .unwrap();
        assert_eq!(modes, plan.mode_count(), "{policy:?}: every mode visited");
    }
}
