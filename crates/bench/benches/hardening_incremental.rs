//! Criterion benchmark: incremental what-if hardening on a warm
//! [`Workspace`] versus paying a full per-mode sweep per query.
//!
//! Each "what-if" answers *"harden primitive j — how much damage is
//! left?"* over a batch of the most critical primitives of a Table I
//! design. The `full_sweep` baseline is what a stateless server does:
//! rebuild the analysis from scratch (one full sweep) for every query.
//! The `incremental` path reuses one warm workspace — `harden` is an O(1)
//! mask flip and `undo` restores the baseline — which is exactly what
//! `rsnd` serves behind `POST /v1/whatif`.
//!
//! `exclude_roundtrip` is the structural what-if on the same warm
//! workspace: exclude one plain (non-control-cell) segment, read the
//! damage, undo. The exclude re-sweeps every mode; the undo restores the
//! traces the exclude replaced, so a round trip costs one sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use robust_rsn::{PaperSpecParams, Parallelism, Workspace, WorkspaceDelta};
use rsn_benchmarks::by_name;

const WHATIFS_PER_BATCH: usize = 6;

fn whatif_hardening(c: &mut Criterion) {
    for name in ["p34392", "MBIST_1_5_20"] {
        let spec = by_name(name).unwrap();
        let (net, built) = spec.generate().build(name).unwrap();
        let mut group = c.benchmark_group(format!("hardening_incremental/{name}"));

        let build = || {
            Workspace::builder(net.clone())
                .with_structure(&built)
                .with_paper_spec(PaperSpecParams::default(), 1)
                .with_parallelism(Parallelism::sequential())
                .build_workspace()
                .unwrap()
        };
        let mut warm = build();
        let targets: Vec<_> =
            warm.summary(WHATIFS_PER_BATCH).ranked.iter().map(|r| r.node).collect();

        group.bench_function("full_sweep", |b| {
            b.iter(|| {
                let mut fold = 0u64;
                for &target in &targets {
                    let mut ws = build();
                    ws.harden(target).unwrap();
                    fold ^= ws.total_damage();
                }
                fold
            })
        });

        group.bench_function("incremental", |b| {
            b.iter(|| {
                let mut fold = 0u64;
                for &target in &targets {
                    warm.harden(target).unwrap();
                    fold ^= warm.total_damage();
                    warm.undo().unwrap();
                }
                fold
            })
        });

        // The first segment that excludes: control cells are rejected, and a
        // rejected edit changes nothing.
        let segment = net
            .segments()
            .find(|&segment| {
                warm.edit(WorkspaceDelta::ExcludeSegment { segment }).is_ok() && warm.undo().is_ok()
            })
            .expect("a plain segment");
        group.bench_function("exclude_roundtrip", |b| {
            b.iter(|| {
                let report = warm.edit(WorkspaceDelta::ExcludeSegment { segment }).unwrap();
                warm.undo().unwrap();
                report.total_damage
            })
        });
        group.finish();
    }
}

criterion_group!(benches, whatif_hardening);
criterion_main!(benches);
