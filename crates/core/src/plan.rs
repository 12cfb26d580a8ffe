//! The analysis plan: the spec-independent half of every graph-exact
//! analysis of one network, built once and shared by every request.
//!
//! The paper's criticality analysis (§IV) separates the network's structure
//! — its fault modes and scan paths — from the designer's damage
//! specification (the weights `do_i`, `ds_i` and the importance flags). For
//! a network analysed under many specifications (a daemon's registered
//! network, a hardening loop, a shard fleet), only the specification
//! changes between analyses. An [`AnalysisPlan`] holds everything else:
//!
//! * the canonical fault-mode table — the `for_each_mode` enumeration of
//!   every primitive, one group per primitive — whose size is
//!   [`AnalysisPlan::mode_count`] and whose index space the mode-range
//!   shards of [`crate::shard`] partition;
//! * the control cells' multiplexers under the plan's [`SibCellPolicy`],
//!   which fault-set expansion and the workspace's exclusion check read;
//! * the lane engine's network-only image (the topologically ordered
//!   adjacency, the fault-free reach sets, the articulation nodes and the
//!   live segments), shared by every [`ReachKernel`] the plan builds, so a
//!   kernel per specification costs only the weight fold.
//!
//! A plan is immutable and [`Sync`]; share it behind an [`Arc`]. It
//! borrows nothing from its network, so every entry point takes the
//! network alongside it, and a plan used with a network of another size
//! panics rather than answering for the wrong graph.

use std::ops::Range;
use std::sync::Arc;

use rsn_model::{NodeId, ScanNetwork};

use crate::criticality::SibCellPolicy;
use crate::graph_analysis::{
    for_each_mode, AnalysisError, ControlledMuxes, KernelGraph, ReachKernel,
};
use crate::spec::CriticalitySpec;

/// The spec-independent state of the graph-exact analyses of one network
/// under one [`SibCellPolicy`]. See the [module docs](self).
#[derive(Debug)]
pub struct AnalysisPlan {
    policy: SibCellPolicy,
    node_count: usize,
    primitives: Vec<NodeId>,
    /// The muxes each control cell drives under [`SibCellPolicy::Combined`]
    /// (none otherwise).
    controlled: ControlledMuxes,
    /// The canonical single-fault table; group `k` holds the modes of
    /// `primitives[k]`.
    table: ModeTable,
    /// The lane engine's network-only image, or why the network does not
    /// fit the kernel's index space (reported by the first sweep, so the
    /// plan itself always builds).
    graph: Result<Arc<KernelGraph>, AnalysisError>,
}

impl AnalysisPlan {
    /// Builds the plan of `net` under `policy`: the canonical mode table,
    /// the control-cell map and the kernel graph. O(modes + nodes + edges);
    /// nothing spec-dependent is computed.
    #[must_use]
    pub fn new(net: &ScanNetwork, policy: SibCellPolicy) -> Self {
        let controlled = ControlledMuxes::new(net, policy);
        let table = ModeTable::single_faults(net, &controlled);
        Self {
            policy,
            node_count: net.node_count(),
            primitives: net.primitives().collect(),
            controlled,
            table,
            graph: KernelGraph::try_new(net).map(Arc::new),
        }
    }

    /// The SIB cell policy the mode table was enumerated under.
    #[must_use]
    pub fn policy(&self) -> SibCellPolicy {
        self.policy
    }

    /// Total number of fault modes in the canonical mode table — the index
    /// space a coordinator partitions into shard ranges.
    #[must_use]
    pub fn mode_count(&self) -> usize {
        self.table.len()
    }

    /// The scan primitives, in network id order (the table's group order).
    #[must_use]
    pub fn primitives(&self) -> &[NodeId] {
        &self.primitives
    }

    /// The node count of the plan's network.
    pub(crate) fn node_count(&self) -> usize {
        self.node_count
    }

    /// The canonical mode table.
    pub(crate) fn table(&self) -> &ModeTable {
        &self.table
    }

    /// The muxes each control cell drives (none unless the policy is
    /// [`SibCellPolicy::Combined`]).
    pub(crate) fn controlled(&self) -> &ControlledMuxes {
        &self.controlled
    }

    /// The lane kernel of `spec` over `net`: shares the plan's graph and
    /// folds only the spec's weights and importance flags.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::NetworkTooLarge`] when the network exceeds the
    /// kernel's `u32` index space.
    ///
    /// # Panics
    ///
    /// Panics when `net` is not the network the plan was built from (its
    /// node count differs).
    pub fn kernel(
        &self,
        net: &ScanNetwork,
        spec: &CriticalitySpec,
    ) -> Result<ReachKernel, AnalysisError> {
        self.check_network(net);
        let graph = self.graph.as_ref().map_err(Clone::clone)?;
        Ok(ReachKernel::with_graph(Arc::clone(graph), net, spec))
    }

    /// Panics unless `net` has the node count of the plan's network.
    pub(crate) fn check_network(&self, net: &ScanNetwork) {
        assert_eq!(
            net.node_count(),
            self.node_count,
            "analysis plan used with a network it was not built from"
        );
    }
}

/// A flat table of fault modes (pooled broken/frozen slices) split into
/// contiguous groups: one group per primitive for the canonical
/// single-fault table, one per fault set for a fault-set expansion. Every
/// graph-exact sweep evaluates modes out of such a table.
///
/// The canonical table has one builder, private to this module: every
/// sweep reads it from an [`AnalysisPlan`].
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
    fn single_faults(net: &ScanNetwork, controlled: &ControlledMuxes) -> Self {
        let mut table = Self::default();
        for j in net.primitives() {
            for_each_mode(net, controlled, j, &mut |broken, frozen| table.push(broken, frozen));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PaperSpecParams;

    fn rings() -> ScanNetwork {
        rsn_benchmarks::giant::ring_of_rings(5, 3, 2).build("rings").unwrap().0
    }

    #[test]
    fn the_table_groups_every_primitive_in_network_order() {
        let net = rings();
        for policy in [SibCellPolicy::Combined, SibCellPolicy::SegmentOnly] {
            let plan = AnalysisPlan::new(&net, policy);
            assert_eq!(plan.policy(), policy);
            assert_eq!(plan.primitives(), net.primitives().collect::<Vec<_>>());
            assert_eq!(plan.table().groups().count(), plan.primitives().len());
            assert_eq!(plan.table().groups().map(|g| g.len()).sum::<usize>(), plan.mode_count());
            assert!(plan.mode_count() > plan.primitives().len(), "muxes add stuck modes");
        }
        let combined = AnalysisPlan::new(&net, SibCellPolicy::Combined).mode_count();
        let segment_only = AnalysisPlan::new(&net, SibCellPolicy::SegmentOnly).mode_count();
        assert!(combined > segment_only, "broken cells freeze their muxes under Combined");
    }

    #[test]
    fn kernels_of_one_plan_share_its_graph() {
        let net = rings();
        let plan = AnalysisPlan::new(&net, SibCellPolicy::Combined);
        let spec = |seed| CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed);
        let a = plan.kernel(&net, &spec(1)).unwrap();
        let b = plan.kernel(&net, &spec(2)).unwrap();
        assert!(a.shares_graph_with(&b));
        assert!(!a.shares_graph_with(&ReachKernel::new(&net, &spec(1))));
    }

    #[test]
    #[should_panic(expected = "not built from")]
    fn a_plan_refuses_another_network() {
        let plan = AnalysisPlan::new(&rings(), SibCellPolicy::Combined);
        let other = rsn_benchmarks::giant::ring_of_rings(2, 2, 2).build("small").unwrap().0;
        let _ = plan.kernel(&other, &CriticalitySpec::new(&other));
    }
}
