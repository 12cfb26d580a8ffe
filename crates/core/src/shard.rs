//! Fault-mode range sharding: the sweep entry points a cluster coordinator
//! uses to split one large criticality analysis across workers.
//!
//! The full-sweep kernel ([`analyze_graph`](crate::analyze_graph)) evaluates
//! the canonical mode table of an [`AnalysisPlan`] in lane blocks. Every
//! mode's damage is independent of which block (and which worker) evaluates
//! it, so any partition of the table's index space `[0, mode_count)` into
//! contiguous ranges can be swept on different machines and merged back
//! **bit-identically**:
//!
//! 1. [`AnalysisPlan::mode_count`] sizes the table (built once per network
//!    and SIB policy; nothing is evaluated).
//! 2. Each shard evaluates its range with [`analyze_mode_range`] and ships
//!    the per-mode [`ModeDamage`] triples.
//! 3. The coordinator concatenates the ranges in index order and aggregates
//!    with [`merge_mode_damages`], which goes through the same fold as the
//!    full sweep and the incremental workspace — so the merged
//!    [`Criticality`] (and any summary rendered from it) is byte-identical
//!    to a single-node sweep.
//!
//! [`mode_count`], [`analyze_mode_range_with_cancel`] and
//! [`criticality_from_mode_damages`] are the same three steps over a
//! throw-away plan, for callers that hold no plan.
//!
//! Determinism contract: the mode table order is the canonical
//! `for_each_mode` order grouped per primitive (identical on every node
//! that parsed the same network), per-mode damages do not depend on lane
//! packing or thread count (property-tested), and the merge is a pure fold
//! over the concatenated table.

use std::ops::Range;

use crate::cancel::CancelToken;
use crate::criticality::{fold_mode_damages, AnalysisOptions, Criticality, ModeAggregation};
use crate::graph_analysis::{sweep_table, AnalysisError};
use crate::par::Parallelism;
use crate::plan::AnalysisPlan;
use crate::spec::CriticalitySpec;
use rsn_model::ScanNetwork;

/// One evaluated fault mode: the damage split plus the importance flag —
/// exactly the per-mode inputs the per-primitive aggregation consumes. Every
/// engine reports its modes in this record: the lane kernel (untraced and
/// traced), the tree analysis' mode groups and the `Vec<bool>` reference.
/// It is also the unit a shard ships back to the coordinator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModeDamage {
    /// Observation damage of the mode.
    pub obs: u64,
    /// Setting damage of the mode.
    pub set: u64,
    /// Whether the mode disconnects an important instrument.
    pub affects_important: bool,
}

impl ModeDamage {
    /// The mode's total damage `obs + set`, saturating at `u64::MAX`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.obs.saturating_add(self.set)
    }
}

/// Total number of fault modes in `net`'s canonical mode table:
/// [`AnalysisPlan::mode_count`] of a throw-away plan.
#[must_use]
pub fn mode_count(net: &ScanNetwork, options: &AnalysisOptions) -> usize {
    AnalysisPlan::new(net, options.sib_policy).mode_count()
}

/// Evaluates the fault modes `modes` of `plan`'s canonical mode table under
/// `spec` and returns their [`ModeDamage`] triples in table order.
///
/// The range is packed into lane blocks and sharded over [`par`](crate::par) exactly
/// like the full sweep, so the returned values are bit-identical at any
/// thread count *and* to the corresponding slice of a full-range call — the
/// property that makes cluster-merged results byte-identical to
/// single-node ones.
///
/// # Panics
///
/// Panics when `modes` is reversed or ends past
/// [`AnalysisPlan::mode_count`] — shard ranges are produced by a
/// coordinator from the mode count, so an out-of-range request is a caller
/// bug, not input data — and when `net` is not the plan's network.
///
/// # Errors
///
/// [`AnalysisError::Cancelled`] when `cancel` fires mid-sweep;
/// [`AnalysisError::WorkerPanicked`] when a shard panics;
/// [`AnalysisError::NetworkTooLarge`] when the network exceeds the kernel
/// index space.
pub fn analyze_mode_range(
    plan: &AnalysisPlan,
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    parallelism: Parallelism,
    cancel: &CancelToken,
    modes: Range<usize>,
) -> Result<Vec<ModeDamage>, AnalysisError> {
    cancel.check()?;
    let table = plan.table();
    assert!(
        modes.start <= modes.end && modes.end <= table.len(),
        "mode range {}..{} out of bounds (mode count {})",
        modes.start,
        modes.end,
        table.len()
    );
    if modes.is_empty() {
        return Ok(Vec::new());
    }
    let kernel = plan.kernel(net, spec)?;
    sweep_table(&kernel, table, modes, parallelism, cancel)
}

/// [`analyze_mode_range`] of modes `[lo, hi)` over a throw-away plan of
/// `net` under `options.sib_policy`.
///
/// # Panics
///
/// As for [`analyze_mode_range`].
///
/// # Errors
///
/// As for [`analyze_mode_range`].
pub fn analyze_mode_range_with_cancel(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
    parallelism: Parallelism,
    cancel: &CancelToken,
    lo: usize,
    hi: usize,
) -> Result<Vec<ModeDamage>, AnalysisError> {
    let plan = AnalysisPlan::new(net, options.sib_policy);
    analyze_mode_range(&plan, net, spec, parallelism, cancel, lo..hi)
}

/// A merge handed the wrong number of per-mode damages for its network —
/// shards missing, duplicated, or computed against a different network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMergeError {
    /// The network's mode count.
    pub expected: usize,
    /// The number of damages supplied.
    pub got: usize,
}

impl core::fmt::Display for ShardMergeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "shard merge expects {} per-mode damages for this network, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for ShardMergeError {}

/// Folds a full table of per-mode damages (shard results concatenated in
/// range order) of `plan`'s mode table into a [`Criticality`], aggregating
/// each primitive's modes with `mode` through the same fold as
/// [`analyze_graph`](crate::analyze_graph) and the incremental workspace —
/// ties and truncating means resolve identically everywhere, so a summary
/// rendered from the merged result is byte-identical to a single-node
/// analysis.
///
/// # Errors
///
/// [`ShardMergeError`] when `damages.len()` differs from the plan's mode
/// count.
///
/// # Panics
///
/// Panics when `net` is not the plan's network.
pub fn merge_mode_damages(
    plan: &AnalysisPlan,
    net: &ScanNetwork,
    mode: ModeAggregation,
    damages: &[ModeDamage],
) -> Result<Criticality, ShardMergeError> {
    plan.check_network(net);
    if damages.len() != plan.mode_count() {
        return Err(ShardMergeError { expected: plan.mode_count(), got: damages.len() });
    }
    Ok(fold_mode_damages(plan, mode, |m| damages[m]))
}

/// [`merge_mode_damages`] over a throw-away plan of `net` under `options`.
///
/// # Errors
///
/// As for [`merge_mode_damages`].
pub fn criticality_from_mode_damages(
    net: &ScanNetwork,
    options: &AnalysisOptions,
    damages: &[ModeDamage],
) -> Result<Criticality, ShardMergeError> {
    let plan = AnalysisPlan::new(net, options.sib_policy);
    merge_mode_damages(&plan, net, options.mode, damages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisSession;
    use crate::spec::PaperSpecParams;

    const NET: &str = "network t { sib s0 { seg a len=4 instrument(kind=sensor); } \
                       parallel m0 { branch { seg b len=2 instrument(kind=bist); } \
                       branch { wire; } } seg c len=2 instrument(kind=generic); }";

    fn build() -> ScanNetwork {
        let (name, s) = rsn_model::format::parse_network(NET).unwrap();
        s.build(name).unwrap().0
    }

    #[test]
    fn mode_count_matches_the_table() {
        let net = build();
        let options = AnalysisOptions::default();
        let plan = AnalysisPlan::new(&net, options.sib_policy);
        assert_eq!(mode_count(&net, &options), plan.table().len());
        assert!(plan.table().len() > net.primitives().count(), "muxes add stuck modes");
    }

    #[test]
    fn split_ranges_merge_to_the_full_sweep() {
        let net = build();
        let options = AnalysisOptions::default();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 2022);
        let total = mode_count(&net, &options);
        let full = analyze_mode_range_with_cancel(
            &net,
            &spec,
            &options,
            Parallelism::sequential(),
            &CancelToken::none(),
            0,
            total,
        )
        .unwrap();
        assert_eq!(full.len(), total);
        for split in [0, 1, total / 2, total.saturating_sub(1), total] {
            let mut merged = analyze_mode_range_with_cancel(
                &net,
                &spec,
                &options,
                Parallelism::sequential(),
                &CancelToken::none(),
                0,
                split,
            )
            .unwrap();
            merged.extend(
                analyze_mode_range_with_cancel(
                    &net,
                    &spec,
                    &options,
                    Parallelism::new(4),
                    &CancelToken::none(),
                    split,
                    total,
                )
                .unwrap(),
            );
            assert_eq!(merged, full, "split at {split}");
        }
    }

    #[test]
    fn merged_criticality_matches_the_session_analysis() {
        let net = build();
        let options = AnalysisOptions::default();
        let session = AnalysisSession::builder(net.clone())
            .with_paper_spec(PaperSpecParams::default(), 2022)
            .build();
        let total = mode_count(&net, &options);
        let damages = analyze_mode_range_with_cancel(
            &net,
            session.spec(),
            &options,
            Parallelism::new(2),
            &CancelToken::none(),
            0,
            total,
        )
        .unwrap();
        let merged = criticality_from_mode_damages(&net, &options, &damages).unwrap();
        let tree = session.criticality().unwrap();
        for j in net.primitives() {
            assert_eq!(merged.damage(j), tree.damage(j), "damage at {j:?}");
            assert_eq!(merged.obs_damage(j), tree.obs_damage(j), "obs at {j:?}");
            assert_eq!(merged.set_damage(j), tree.set_damage(j), "set at {j:?}");
            assert_eq!(
                merged.affects_important(j),
                tree.affects_important(j),
                "importance at {j:?}"
            );
        }
    }

    #[test]
    fn wrong_length_merges_are_rejected() {
        let net = build();
        let options = AnalysisOptions::default();
        let err = criticality_from_mode_damages(&net, &options, &[]).unwrap_err();
        assert_eq!(err.got, 0);
        assert_eq!(err.expected, mode_count(&net, &options));
        assert!(err.to_string().contains("per-mode damages"));
    }

    #[test]
    fn empty_ranges_are_empty() {
        let net = build();
        let options = AnalysisOptions::default();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 2022);
        let out = analyze_mode_range_with_cancel(
            &net,
            &spec,
            &options,
            Parallelism::sequential(),
            &CancelToken::none(),
            3,
            3,
        )
        .unwrap();
        assert!(out.is_empty());
    }
}
