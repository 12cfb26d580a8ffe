//! Differential validation of the lane reachability kernel: on random
//! series-parallel networks *and* on bridge-extended non-SP networks, the
//! kernel behind [`robust_rsn::analyze_graph`] must produce a damage vector
//! bit-identical to the `Vec<bool>` implementation (kept as
//! `graph_analysis::reference`) and, on small instances, to the exhaustive
//! configuration oracle.

use proptest::prelude::*;
use robust_rsn::graph_analysis::{reference, ReachKernel};
use robust_rsn::{
    analyze_graph, oracle_damage, AnalysisOptions, AnalysisPlan, CancelToken, CriticalitySpec,
    GraphCriticality, ModeAggregation, PaperSpecParams, Parallelism, SibCellPolicy,
};
use rsn_benchmarks::{random_structure, RandomParams};
use rsn_model::{ControlSource, InstrumentKind, NetworkBuilder, NodeId, ScanNetwork, Segment};

/// The sequential, uncancelled lane sweep.
fn sweep(net: &ScanNetwork, spec: &CriticalitySpec, options: &AnalysisOptions) -> GraphCriticality {
    let plan = AnalysisPlan::new(net, options.sib_policy);
    let (seq, none) = (Parallelism::sequential(), &CancelToken::none());
    analyze_graph(&plan, net, spec, options.mode, seq, none).unwrap()
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

/// A random non-series-parallel network: a chain of blocks where the first
/// is always the SP-recognition-defeating "bridge" pattern and the rest are
/// drawn from {instrument segment, cell-controlled diamond, bridge}.
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
        let pick = if k == 0 { 2 } else { rnd() % 3 };
        match pick {
            0 => {
                // Plain instrument segment.
                uniq += 1;
                let s = b.add_segment(format!("s{uniq}"), Segment::new(1 + (rnd() % 3) as u32));
                b.connect(prev, s).unwrap();
                b.add_instrument(format!("is{uniq}"), s, InstrumentKind::Sensor).unwrap();
                prev = s;
            }
            1 => {
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
                // Not expressible as series-parallel composition.
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

/// A deterministic fault mode (broken segments + frozen selects) drawn from
/// the network's primitives.
fn random_mode(net: &ScanNetwork, seed: u64) -> (Vec<NodeId>, Vec<(NodeId, usize)>) {
    let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let segments: Vec<NodeId> = net.segments().collect();
    let muxes: Vec<NodeId> = net.muxes().collect();
    let mut broken = Vec::new();
    let mut frozen = Vec::new();
    if !segments.is_empty() {
        for _ in 0..(rnd() % 3) {
            broken.push(segments[(rnd() as usize) % segments.len()]);
        }
    }
    if !muxes.is_empty() {
        for _ in 0..(rnd() % 3) {
            let m = muxes[(rnd() as usize) % muxes.len()];
            let fan_in = net.node(m).kind.as_mux().unwrap().fan_in();
            // Occasionally freeze one past the last port (no usable edge).
            frozen.push((m, (rnd() as usize) % (fan_in + 1)));
        }
    }
    (broken, frozen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_matches_reference_on_random_sp_networks(
        seed in 0u64..10_000,
        spec_seed in 0u64..1_000,
        options in options_strategy(),
    ) {
        let s = random_structure(&RandomParams::default(), seed);
        let (net, _) = s.build("prop").unwrap();
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), spec_seed);
        let fast = sweep(&net, &weights, &options);
        let slow = reference::analyze_graph_ref(&net, &weights, &options);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn kernel_matches_reference_on_bridge_networks(
        seed in 0u64..10_000,
        spec_seed in 0u64..1_000,
        options in options_strategy(),
    ) {
        let net = random_bridge_net(seed);
        prop_assert!(rsn_sp::recognize(&net).is_err(), "bridge blocks defeat SP recognition");
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), spec_seed);
        let fast = sweep(&net, &weights, &options);
        let slow = reference::analyze_graph_ref(&net, &weights, &options);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn kernel_matches_oracle_on_small_bridge_networks(
        seed in 0u64..3_000,
        spec_seed in 0u64..500,
    ) {
        let net = random_bridge_net(seed);
        let config_count: f64 = net
            .muxes()
            .map(|m| net.node(m).kind.as_mux().unwrap().fan_in() as f64)
            .product();
        prop_assume!(config_count <= 4096.0);
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), spec_seed);
        let options = AnalysisOptions::default();
        let crit = sweep(&net, &weights, &options);
        for j in net.primitives() {
            prop_assert_eq!(
                crit.damage(j),
                oracle_damage(&net, &weights, j, &options),
                "primitive {}", j
            );
        }
    }

    #[test]
    fn kernel_mode_damage_matches_reference_on_arbitrary_fault_modes(
        seed in 0u64..5_000,
        mode_seed in 0u64..5_000,
        bridge in 0u64..2,
    ) {
        // Exercise the lane kernel with arbitrary broken/frozen
        // combinations, including repeated entries and out-of-range frozen
        // ports, each mode evaluated as a one-lane block on a reused scratch.
        let net = if bridge == 1 {
            random_bridge_net(seed)
        } else {
            let s = random_structure(&RandomParams::default(), seed);
            s.build("prop").unwrap().0
        };
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let kernel = ReachKernel::new(&net, &weights);
        let mut scratch = kernel.block_scratch();
        for round in 0..4 {
            let (broken, frozen) = random_mode(&net, mode_seed.wrapping_add(round));
            scratch.clear();
            kernel.push_mode(&mut scratch, &broken, &frozen);
            let lane = kernel.eval_damages(&mut scratch);
            prop_assert_eq!(
                lane[0].total(),
                reference::mode_damage(&net, &weights, &broken, &frozen),
                "broken {:?} frozen {:?}", broken, frozen
            );
        }
    }
}
