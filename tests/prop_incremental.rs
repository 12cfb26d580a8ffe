//! Differential validation of the incremental criticality engine: random
//! harden/edit/undo sequences driven through a [`Workspace`] must leave it
//! bit-identical — same `CriticalitySummary` bytes — to a workspace rebuilt
//! from scratch over the same final state, on random series-parallel
//! networks *and* bridge-extended non-SP networks, at one thread and at
//! four. An exclude undone straight away must restore the traces it
//! replaced without a sweep. A cancelled token mid-sequence must reject
//! every edit and leave the workspace untouched.

use proptest::prelude::*;
use robust_rsn::{
    AnalysisOptions, CancelToken, CriticalitySummary, ModeAggregation, Parallelism, SibCellPolicy,
    Workspace, WorkspaceDelta,
};
use rsn_benchmarks::{random_structure, RandomParams};
use rsn_model::{
    ControlSource, InstrumentId, InstrumentKind, NetworkBuilder, NodeId, ScanNetwork, Segment,
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

/// A random non-series-parallel network (same construction as
/// `prop_graph_kernel`): a chain of blocks where the first is always the
/// SP-recognition-defeating "bridge" pattern.
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

fn random_net(bridge: bool, seed: u64) -> ScanNetwork {
    if bridge {
        random_bridge_net(seed)
    } else {
        random_structure(&RandomParams::default(), seed).build("prop").unwrap().0
    }
}

fn build_workspace(
    net: ScanNetwork,
    options: AnalysisOptions,
    spec_seed: u64,
    threads: Parallelism,
) -> Workspace {
    Workspace::builder(net)
        .with_options(options)
        .with_parallelism(threads)
        .with_paper_spec(Default::default(), spec_seed)
        .build_workspace()
        .expect("build workspace")
}

fn summary_bytes(ws: &Workspace) -> String {
    let summary: CriticalitySummary = ws.summary(10);
    serde_json::to_string(&summary).expect("serialize summary")
}

/// Applies `steps` pseudo-random deltas (harden, unharden, re-weight,
/// exclude, include, undo). Choices are functions of the workspace state,
/// which evolves deterministically, so two workspaces driven with the same
/// seed see the same sequence regardless of thread count. Deltas that turn
/// out inapplicable (double-harden, excluding a control cell …) are
/// rejected atomically by the engine and simply skipped.
fn drive(ws: &mut Workspace, seed: u64, steps: u32) {
    let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let primitives: Vec<NodeId> = ws.network().primitives().collect();
    let segments: Vec<NodeId> = ws.network().segments().collect();
    let instruments: Vec<InstrumentId> = ws.network().instruments().map(|(i, _)| i).collect();
    for _ in 0..steps {
        match rnd() % 6 {
            0 => {
                let j = primitives[(rnd() as usize) % primitives.len()];
                let _ = ws.harden(j);
            }
            1 => {
                let hardened = ws.hardened();
                if !hardened.is_empty() {
                    let j = hardened[(rnd() as usize) % hardened.len()];
                    let _ = ws.edit(WorkspaceDelta::Unharden { primitive: j });
                }
            }
            2 => {
                if !instruments.is_empty() {
                    let i = instruments[(rnd() as usize) % instruments.len()];
                    let (obs, set) = (rnd() % 8, rnd() % 8);
                    let _ = ws.edit(WorkspaceDelta::SetWeights { instrument: i, obs, set });
                }
            }
            3 => {
                let s = segments[(rnd() as usize) % segments.len()];
                let _ = ws.edit(WorkspaceDelta::ExcludeSegment { segment: s });
            }
            4 => {
                let excluded = ws.excluded();
                if !excluded.is_empty() {
                    let s = excluded[(rnd() as usize) % excluded.len()];
                    let _ = ws.edit(WorkspaceDelta::IncludeSegment { segment: s });
                }
            }
            _ => {
                let _ = ws.undo();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental engine is its own oracle: after an arbitrary delta
    /// sequence, the workspace must be bit-identical to one rebuilt from
    /// scratch over the same final hardened/excluded/weight state — and the
    /// whole trajectory must be thread-invariant.
    #[test]
    fn random_delta_sequences_match_full_rebuild(
        seed in 0u64..10_000,
        spec_seed in 0u64..1_000,
        ops_seed in 0u64..10_000,
        bridge in 0u64..2,
        options in options_strategy(),
    ) {
        let net = random_net(bridge == 1, seed);
        prop_assume!(net.primitives().count() > 0);
        if bridge == 1 {
            prop_assert!(rsn_sp::recognize(&net).is_err(), "bridge blocks defeat SP recognition");
        }

        let mut sequential =
            build_workspace(net.clone(), options, spec_seed, Parallelism::sequential());
        let mut threaded = build_workspace(net, options, spec_seed, Parallelism::new(4));
        drive(&mut sequential, ops_seed, 10);
        drive(&mut threaded, ops_seed, 10);

        let bytes = summary_bytes(&sequential);
        prop_assert_eq!(&bytes, &summary_bytes(&threaded), "thread count changed the bytes");

        let rebuilt = sequential.rebuilt().expect("rebuild oracle");
        prop_assert_eq!(&bytes, &summary_bytes(&rebuilt), "incremental drifted from full sweep");
        prop_assert_eq!(sequential.total_damage(), rebuilt.total_damage());
    }

    /// Undoing an exclude straight after it restores the traces it replaced:
    /// the undo recomputes no mode and puts back the exact pre-exclude bytes.
    /// Interleaved with random deltas (which drop the held traces, so later
    /// undos re-sweep), every state still equals a full rebuild, at one
    /// thread and at four.
    #[test]
    fn exclude_undo_roundtrips_restore_and_match_full_rebuild(
        seed in 0u64..10_000,
        spec_seed in 0u64..1_000,
        ops_seed in 0u64..10_000,
        bridge in 0u64..2,
        options in options_strategy(),
    ) {
        let net = random_net(bridge == 1, seed);
        prop_assume!(net.primitives().count() > 0);
        let segments: Vec<NodeId> = net.segments().collect();
        let mut sequential =
            build_workspace(net.clone(), options, spec_seed, Parallelism::sequential());
        let mut threaded = build_workspace(net, options, spec_seed, Parallelism::new(4));
        for round in 0..4u64 {
            let start = (ops_seed + round * 7) as usize;
            for ws in [&mut sequential, &mut threaded] {
                drive(ws, ops_seed.wrapping_add(round), 3);
                let (bytes, total, swept) = (summary_bytes(ws), ws.total_damage(), ws.modes_swept());
                // The first segment from `start` on that excludes (control
                // cells and excluded segments are rejected, changing nothing).
                let excluded = (0..segments.len())
                    .map(|k| segments[(start + k) % segments.len()])
                    .find(|&segment| ws.edit(WorkspaceDelta::ExcludeSegment { segment }).is_ok());
                let Some(segment) = excluded else { continue };
                let undone = ws.undo().expect("undo").expect("entry");
                prop_assert_eq!(undone.recomputed_modes, 0, "the undo re-swept");
                prop_assert_eq!(undone.total_damage, total);
                prop_assert_eq!(&summary_bytes(ws), &bytes, "restore changed the bytes");
                let roundtrip = ws.modes_swept() - swept;
                let again = ws.edit(WorkspaceDelta::ExcludeSegment { segment }).expect("re-exclude");
                prop_assert_eq!(roundtrip, again.recomputed_modes as u64, "one sweep per exclude");
                drive(ws, ops_seed.wrapping_mul(3).wrapping_add(round), 2);
                let _ = ws.undo();
                let rebuilt = ws.rebuilt().expect("rebuild oracle");
                prop_assert_eq!(summary_bytes(ws), summary_bytes(&rebuilt), "drifted from full sweep");
            }
            prop_assert_eq!(
                summary_bytes(&sequential),
                summary_bytes(&threaded),
                "thread count changed the bytes"
            );
        }
    }

    /// A cancelled token rejects every delta kind and leaves the workspace
    /// untouched; clearing the token makes it fully usable again.
    #[test]
    fn cancellation_mid_sequence_leaves_the_workspace_unchanged(
        seed in 0u64..10_000,
        spec_seed in 0u64..1_000,
        ops_seed in 0u64..10_000,
        bridge in 0u64..2,
    ) {
        let net = random_net(bridge == 1, seed);
        prop_assume!(net.primitives().count() > 0);
        let mut ws = build_workspace(
            net,
            AnalysisOptions::default(),
            spec_seed,
            Parallelism::sequential(),
        );
        drive(&mut ws, ops_seed, 5);
        let before = summary_bytes(&ws);
        let depth_before = ws.undo_depth();

        let token = CancelToken::new();
        token.cancel();
        ws.set_cancel_token(token);
        let primitive = ws.network().primitives().next().unwrap();
        prop_assert!(ws.harden(primitive).is_err() || ws.is_hardened(primitive));
        let some_segments: Vec<NodeId> = ws.network().segments().take(3).collect();
        for segment in some_segments {
            prop_assert!(
                ws.edit(WorkspaceDelta::ExcludeSegment { segment }).is_err(),
                "structural edits must observe the cancelled token"
            );
        }
        prop_assert_eq!(&summary_bytes(&ws), &before, "cancelled edits must not commit");
        prop_assert_eq!(ws.undo_depth(), depth_before);

        ws.set_cancel_token(CancelToken::none());
        drive(&mut ws, ops_seed.wrapping_add(1), 3);
        let rebuilt = ws.rebuilt().expect("rebuild oracle");
        prop_assert_eq!(summary_bytes(&ws), summary_bytes(&rebuilt));
    }
}
