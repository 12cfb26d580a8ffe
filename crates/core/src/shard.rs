//! Fault-mode range sharding: the sweep entry points a cluster coordinator
//! uses to split one large criticality analysis across workers.
//!
//! The full-sweep kernel ([`analyze_graph_with`](crate::analyze_graph_with))
//! flattens the canonical per-primitive mode enumeration into one global
//! mode table and evaluates it in lane blocks. Every mode's damage is
//! independent of which block (and which worker) evaluates it, so any
//! partition of the table's index space `[0, mode_count)` into contiguous
//! ranges can be swept on different machines and merged back **bit-
//! identically**:
//!
//! 1. [`mode_count`] sizes the table (cheap: enumeration only, no kernel).
//! 2. Each shard evaluates its range with [`analyze_mode_range_with_cancel`]
//!    and ships the per-mode [`ModeDamage`] triples.
//! 3. The coordinator concatenates the ranges in index order and aggregates
//!    with [`criticality_from_mode_damages`], which goes through the same
//!    [`aggregate`] as the tree analysis and the incremental workspace — so
//!    the merged [`Criticality`] (and any summary rendered from it) is
//!    byte-identical to a single-node sweep.
//!
//! Determinism contract: the mode table order is the canonical
//! `for_each_mode` order grouped per primitive (identical on every node
//! that parsed the same network), per-mode damages do not depend on lane
//! packing or thread count (property-tested), and the merge is a pure fold
//! over the concatenated table.

use std::ops::Range;

use crate::cancel::CancelToken;
use crate::criticality::{aggregate, AnalysisOptions, Criticality, Mode, SibCellPolicy};
use crate::graph_analysis::{
    controlled_muxes, for_each_mode, sweep_table, AnalysisError, ReachKernel,
};
use crate::par::Parallelism;
use crate::spec::CriticalitySpec;
use rsn_model::{NodeId, ScanNetwork};

/// One evaluated fault mode: the damage split plus the importance flag —
/// exactly the per-mode inputs the per-primitive aggregation consumes. This
/// is the unit a shard ships back to the coordinator.
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

/// A flat table of fault modes (pooled broken/frozen slices) split into
/// contiguous groups: one group per primitive for the canonical
/// single-fault table, one per fault set for a fault-set expansion. Every
/// graph-exact sweep evaluates modes out of such a table.
#[derive(Debug, Default)]
pub(crate) struct ModeTable {
    broken_pool: Vec<NodeId>,
    frozen_pool: Vec<(NodeId, usize)>,
    /// Cumulative (broken, frozen) pool end offsets, one entry per mode.
    modes: Vec<(u32, u32)>,
    /// Cumulative mode end offset per group.
    group_ends: Vec<u32>,
}

impl ModeTable {
    /// The canonical single-fault table: the `for_each_mode` enumeration of
    /// every primitive, one group per primitive in `net.primitives()` order.
    pub(crate) fn single_faults(net: &ScanNetwork, policy: SibCellPolicy) -> Self {
        let controlled = controlled_muxes(net, policy);
        let mut table = Self::default();
        for j in net.primitives() {
            for_each_mode(net, &controlled, j, &mut |broken, frozen| table.push(broken, frozen));
            table.end_group();
        }
        table
    }

    /// Appends one mode to the open group.
    pub(crate) fn push(&mut self, broken: &[NodeId], frozen: &[(NodeId, usize)]) {
        self.broken_pool.extend_from_slice(broken);
        self.frozen_pool.extend_from_slice(frozen);
        self.modes.push((self.broken_pool.len() as u32, self.frozen_pool.len() as u32));
    }

    /// Closes the open group.
    pub(crate) fn end_group(&mut self) {
        self.group_ends.push(self.modes.len() as u32);
    }

    /// Number of modes.
    pub(crate) fn len(&self) -> usize {
        self.modes.len()
    }

    /// The pooled (broken, frozen) slices of mode `m`.
    pub(crate) fn mode(&self, m: usize) -> (&[NodeId], &[(NodeId, usize)]) {
        let (b1, f1) = self.modes[m];
        let (b0, f0) = if m == 0 { (0, 0) } else { self.modes[m - 1] };
        (&self.broken_pool[b0 as usize..b1 as usize], &self.frozen_pool[f0 as usize..f1 as usize])
    }

    /// The mode range of group `g`.
    pub(crate) fn group(&self, g: usize) -> Range<usize> {
        let start = if g == 0 { 0 } else { self.group_ends[g - 1] as usize };
        start..self.group_ends[g] as usize
    }

    /// The mode ranges of every group, in order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.group_ends.len()).map(|g| self.group(g))
    }
}

/// Total number of fault modes in `net`'s canonical mode table — the index
/// space a coordinator partitions into shard ranges. Enumeration only; no
/// kernel is built and nothing is evaluated.
#[must_use]
pub fn mode_count(net: &ScanNetwork, options: &AnalysisOptions) -> usize {
    let controlled = controlled_muxes(net, options.sib_policy);
    let mut count = 0usize;
    for j in net.primitives() {
        for_each_mode(net, &controlled, j, &mut |_, _| count += 1);
    }
    count
}

/// Evaluates fault modes `[lo, hi)` of the canonical mode table and returns
/// their [`ModeDamage`] triples in table order.
///
/// The range is packed into lane blocks and sharded over [`par`](crate::par) exactly
/// like the full sweep, so the returned values are bit-identical at any
/// thread count *and* to the corresponding slice of a full-range call — the
/// property that makes cluster-merged results byte-identical to
/// single-node ones.
///
/// # Panics
///
/// Panics when `lo > hi` or `hi` exceeds [`mode_count`] — shard ranges are
/// produced by a coordinator from `mode_count`, so an out-of-range request
/// is a caller bug, not input data.
///
/// # Errors
///
/// [`AnalysisError::Cancelled`] when `cancel` fires mid-sweep;
/// [`AnalysisError::WorkerPanicked`] when a shard panics;
/// [`AnalysisError::NetworkTooLarge`] when the network exceeds the kernel
/// index space.
pub fn analyze_mode_range_with_cancel(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
    parallelism: Parallelism,
    cancel: &CancelToken,
    lo: usize,
    hi: usize,
) -> Result<Vec<ModeDamage>, AnalysisError> {
    cancel.check()?;
    let table = ModeTable::single_faults(net, options.sib_policy);
    assert!(
        lo <= hi && hi <= table.len(),
        "mode range {lo}..{hi} out of bounds (mode count {})",
        table.len()
    );
    if lo == hi {
        return Ok(Vec::new());
    }
    let kernel = ReachKernel::try_new(net, spec)?;
    sweep_table(&kernel, &table, lo..hi, parallelism, cancel)
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
/// range order) into a [`Criticality`], aggregating each primitive's modes
/// through the same [`aggregate`] as the tree analysis and the incremental
/// workspace — ties and truncating means resolve identically everywhere, so
/// a summary rendered from the merged result is byte-identical to a
/// single-node analysis.
///
/// # Errors
///
/// [`ShardMergeError`] when `damages.len()` differs from the network's mode
/// count.
pub fn criticality_from_mode_damages(
    net: &ScanNetwork,
    options: &AnalysisOptions,
    damages: &[ModeDamage],
) -> Result<Criticality, ShardMergeError> {
    let table = ModeTable::single_faults(net, options.sib_policy);
    if damages.len() != table.len() {
        return Err(ShardMergeError { expected: table.len(), got: damages.len() });
    }
    let primitives: Vec<NodeId> = net.primitives().collect();
    let n = net.node_count();
    let mut damage = vec![0u64; n];
    let mut obs = vec![0u64; n];
    let mut set = vec![0u64; n];
    let mut important = vec![false; n];
    let mut scratch: Vec<Mode> = Vec::new();
    for (&j, modes) in primitives.iter().zip(table.groups()) {
        let slice = &damages[modes];
        scratch.clear();
        scratch.extend(slice.iter().map(|d| Mode { obs: d.obs, set: d.set }));
        let a = aggregate(options.mode, &scratch);
        damage[j.index()] = a.obs.saturating_add(a.set);
        obs[j.index()] = a.obs;
        set[j.index()] = a.set;
        important[j.index()] = slice.iter().any(|d| d.affects_important);
    }
    Ok(Criticality::from_parts(damage, obs, set, important, primitives))
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
        let table = ModeTable::single_faults(&net, options.sib_policy);
        assert_eq!(mode_count(&net, &options), table.len());
        assert!(table.len() > net.primitives().count(), "muxes add stuck modes");
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
