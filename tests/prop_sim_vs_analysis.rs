//! Differential validation of the operational fault-simulation campaign:
//! on random series-parallel networks *and* on bridge-extended non-SP
//! networks, replaying every single-fault mode in the bit-level simulator
//! ([`robust_rsn::validate_criticality`]) must agree bit-for-bit with the
//! graph-exact criticality analysis — zero disagreements, identical total
//! damage — and the sharded campaign must produce structurally identical
//! reports at every thread count.

use proptest::prelude::*;
use robust_rsn::{
    validate_criticality, AnalysisOptions, AnalysisPlan, CancelToken, CriticalitySpec, Parallelism,
};
use rsn_benchmarks::{random_structure, RandomParams};
use rsn_model::{ControlSource, InstrumentKind, NetworkBuilder, ScanNetwork, Segment};

/// A random non-series-parallel network: a chain of blocks where the first
/// is always the SP-recognition-defeating "bridge" pattern and the rest are
/// drawn from {instrument segment, cell-controlled diamond, bridge}.
/// (Same generator as `prop_graph_kernel.rs`.)
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

/// Runs the campaign sequentially and sharded, asserting (a) thread-count
/// invariance and (b) full agreement with the analysis.
fn assert_campaign_clean(net: &ScanNetwork, spec_seed: u64) -> Result<(), TestCaseError> {
    let spec =
        CriticalitySpec::paper_random(net, &robust_rsn::PaperSpecParams::default(), spec_seed);
    let options = AnalysisOptions::default();
    let plan = AnalysisPlan::new(net, options.sib_policy);
    let run = |threads| {
        let par = Parallelism::new(threads);
        validate_criticality(&plan, net, &spec, options.mode, par, &CancelToken::none())
            .expect("quiet token")
    };
    let (sequential, sharded) = (run(1), run(4));
    prop_assert_eq!(&sequential, &sharded, "campaign report must not depend on the thread count");
    prop_assert!(
        sequential.is_clean(),
        "simulator disagreed with the analysis: {:#?}",
        sequential.disagreements
    );
    prop_assert_eq!(sequential.analysis_total_damage, sequential.operational_total_damage);
    prop_assert_eq!(sequential.primitives, net.primitives().count());
    prop_assert_eq!(
        sequential.modes,
        sequential.simulated_modes + sequential.skipped_unrealizable_modes
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn campaign_agrees_with_analysis_on_random_sp_networks(
        seed in 0u64..10_000,
        spec_seed in 0u64..1_000,
    ) {
        let s = random_structure(&RandomParams::default(), seed);
        let (net, _) = s.build("prop").unwrap();
        assert_campaign_clean(&net, spec_seed)?;
    }

    #[test]
    fn campaign_agrees_with_analysis_on_bridge_networks(
        seed in 0u64..10_000,
        spec_seed in 0u64..1_000,
    ) {
        let net = random_bridge_net(seed);
        prop_assert!(rsn_sp::recognize(&net).is_err(), "bridge blocks defeat SP recognition");
        assert_campaign_clean(&net, spec_seed)?;
    }
}
