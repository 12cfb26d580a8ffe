//! Criticality analysis on arbitrary RSN graphs (no series-parallel
//! assumption).
//!
//! The paper's hierarchical analysis (§IV-C) requires a series-parallel
//! decomposition; non-SP RSNs must first be brought into SP form with
//! virtual vertices (\[19\]). This module instead computes the same damage
//! vector **directly on the graph** with reachability arguments, exact for
//! any validated RSN DAG:
//!
//! * instrument *t* stays **settable** under a fault iff a complete
//!   scan-in → scan-out path through *t* exists (respecting stuck selects)
//!   whose scan-in-side prefix contains no broken segment;
//! * *t* stays **observable** iff such a path exists whose scan-out-side
//!   suffix contains no broken segment.
//!
//! In a DAG a prefix to *t* and a suffix from *t* are node-disjoint, so both
//! conditions reduce to four reachability maps per fault mode. That is
//! quadratic in the worst case (the price of generality); the O(N) tree
//! analysis remains the paper's fast path for SP networks, and the two must
//! agree exactly there (property-tested).
//!
//! # One engine, two oracles
//!
//! Every graph-exact evaluation — full sweeps, mode-range shards, the
//! incremental [`Workspace`](crate::Workspace), fault sets, sampled and
//! exact double faults, and the analytical side of the validation campaign
//! — runs on one engine: the mode-major lane kernel in [`batch`], which
//! packs [`DefaultLane::LANES`](LaneWord::LANES) fault modes into one
//! lane-word per node and relaxes them all in one forward/backward pass over
//! the topologically ordered [`Csr`] held by [`ReachKernel`]. A single
//! private block driver shards the lane blocks over [`par`] with one cancel
//! checkpoint per block and splices results back in mode order, so every
//! result is bit-identical at every thread count.
//!
//! The engine is checked against two oracles that share none of its code:
//! the straightforward `Vec<bool>` BFS in [`reference`], and the exhaustive
//! configuration enumeration in [`crate::accessibility`].

use std::ops::Range;

use rsn_model::{ControlSource, Csr, Fault, FaultKind, NodeId, NodeKind, ScanNetwork};

use crate::bitset::BitSet;
use crate::cancel::{CancelToken, Cancelled};
use crate::criticality::{AnalysisOptions, ModeAggregation, SibCellPolicy};
use crate::par::{self, Parallelism, ShardPanic};
use crate::shard::{ModeDamage, ModeTable};
use crate::spec::CriticalitySpec;

pub mod batch;

use batch::{BlockScratch, DefaultLane, LaneWord};

/// Hard bound on the frozen-select combinations a single fault-set
/// evaluation may enumerate; beyond it [`fault_set_damage`] returns
/// [`AnalysisError::TooManyFrozenCombinations`] instead of running an
/// effectively unbounded sweep.
pub const MAX_FROZEN_COMBINATIONS: usize = 4096;

/// Sentinel for a frozen port without a corresponding input edge: no
/// incoming edge of the mux is usable.
const NO_SELECTED_INPUT: u32 = u32::MAX;

/// Errors of the graph-exact fault evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// Evaluating the fault set would require enumerating more frozen-select
    /// combinations (broken SIB control cells under
    /// [`SibCellPolicy::Combined`]) than [`MAX_FROZEN_COMBINATIONS`]. The
    /// count saturates at `u128::MAX`.
    TooManyFrozenCombinations {
        /// The (saturating) number of combinations the set requires.
        combos: u128,
        /// The enforced bound ([`MAX_FROZEN_COMBINATIONS`]).
        limit: usize,
    },
    /// The sweep was interrupted by its [`CancelToken`] (caller-side cancel
    /// or expired deadline) at a cooperative checkpoint.
    Cancelled,
    /// A worker shard panicked; the payload was caught at the shard boundary
    /// instead of unwinding through the caller.
    WorkerPanicked {
        /// The panic payload rendered as text.
        message: String,
    },
    /// The network exceeds the kernel's `u32` index space: either the node
    /// count or the total number of mux input ports is at least `u32::MAX`.
    /// Giant generated networks hit this before any sweep runs; the error is
    /// structured so servers report it instead of panicking.
    NetworkTooLarge {
        /// The offending count (nodes or mux input ports, whichever
        /// overflowed first).
        count: u128,
        /// The enforced bound (`u32::MAX`).
        limit: u64,
    },
}

impl core::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::TooManyFrozenCombinations { combos, limit } => {
                write!(f, "fault set requires {combos} frozen-select combinations (limit {limit})")
            }
            Self::Cancelled => f.write_str("analysis cancelled"),
            Self::WorkerPanicked { message } => {
                write!(f, "analysis worker panicked: {message}")
            }
            Self::NetworkTooLarge { count, limit } => {
                write!(f, "network exceeds the kernel index space ({count} >= limit {limit})")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<Cancelled> for AnalysisError {
    fn from(_: Cancelled) -> Self {
        Self::Cancelled
    }
}

impl From<ShardPanic> for AnalysisError {
    fn from(p: ShardPanic) -> Self {
        Self::WorkerPanicked { message: p.message().to_string() }
    }
}

/// Per-primitive damages computed on the raw graph; see
/// [`analyze_graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphCriticality {
    damage: Vec<u64>,
    primitives: Vec<NodeId>,
}

impl GraphCriticality {
    /// Assembles a damage vector from per-primitive damages (the workspace
    /// path, which computes the same numbers incrementally).
    pub(crate) fn from_parts(damage: Vec<u64>, primitives: Vec<NodeId>) -> Self {
        Self { damage, primitives }
    }

    /// The damage `d_j` of a fault in primitive `j`.
    #[must_use]
    pub fn damage(&self, j: NodeId) -> u64 {
        self.damage[j.index()]
    }

    /// The primitives covered, in network id order.
    #[must_use]
    pub fn primitives(&self) -> &[NodeId] {
        &self.primitives
    }

    /// Total damage with nothing hardened. Saturates at `u64::MAX` (see the
    /// overflow note on [`crate::criticality::Criticality::total_damage`]).
    #[must_use]
    pub fn total_damage(&self) -> u64 {
        self.primitives.iter().fold(0u64, |acc, &j| acc.saturating_add(self.damage[j.index()]))
    }
}

/// The per-analysis immutable image of one `(network, spec)` pair that the
/// lane engine ([`batch`]) traverses: the [`Csr`] adjacency in topological
/// order with cumulative incoming-edge offsets, the mux input tables, the
/// fault-free baseline reach in both directions, and the flattened
/// instrument probes.
///
/// Build once with [`ReachKernel::new`], hand each worker a
/// [`BlockScratch`] from [`ReachKernel::block_scratch`], and evaluate lane
/// blocks with [`ReachKernel::push_mode`] / [`ReachKernel::eval_damages`].
/// The kernel borrows nothing from the network and is [`Sync`]; all per-mode
/// mutation lives in the scratch. (Weight edits go through
/// [`update_instrument_weights`](Self::update_instrument_weights), the
/// workspace delta path.)
#[derive(Debug)]
pub struct ReachKernel {
    csr: Csr,
    node_count: usize,
    scan_in: u32,
    scan_out: u32,
    /// Node indices in topological order (scan-in side first).
    topo: Vec<u32>,
    /// Cumulative incoming-edge offsets per node: the incoming edges of `v`
    /// occupy `pred_off[v]..pred_off[v + 1]` in edge-indexed arrays, in the
    /// CSR's predecessor (select-port) order.
    pred_off: Vec<u32>,
    baseline_fwd: BitSet,
    baseline_bwd: BitSet,
    /// Whether node `v` is a multiplexer.
    is_mux: Vec<bool>,
    /// Input node index per `(mux, port)`: `mux_inputs[v][p]` is the node
    /// index feeding port `p` of mux `v`; empty for non-mux nodes.
    mux_inputs: Vec<Vec<u32>>,
    /// Segments hosting at least one instrument that is reachable both ways
    /// fault-free ("live"). The decode walks this mask word-parallel.
    live: BitSet,
    /// Summed observation weights of the live instruments per segment
    /// (multiple instruments on one segment share its reachability, so
    /// their weights fold into one entry).
    live_obs_w: Vec<u64>,
    /// Summed setting weights of the live instruments per segment.
    live_set_w: Vec<u64>,
    /// Summed observation weights of instruments unreachable even
    /// fault-free: they are inaccessible in every mode, so their weights are
    /// summed once and added to every mode's damage.
    dead_obs: u64,
    /// Same for the setting weights of unreachable instruments.
    dead_set: u64,
    /// Whether any fault-free-unreachable instrument is important (in which
    /// case every mode affects an important instrument).
    dead_important: bool,
    /// Live segments hosting an observation-important instrument.
    important_obs: BitSet,
    /// Live segments hosting a setting-important instrument.
    important_set: BitSet,
}

impl ReachKernel {
    /// Builds the kernel: flattens the adjacency and the mux input tables,
    /// orders the nodes topologically, computes the fault-free baseline
    /// reach, and bakes the instrument weights into flat probes. The network
    /// is only borrowed during construction.
    ///
    /// # Panics
    ///
    /// Panics when the network exceeds the `u32` kernel index space; use
    /// [`ReachKernel::try_new`] where a structured
    /// [`AnalysisError::NetworkTooLarge`] is wanted instead.
    #[must_use]
    pub fn new(net: &ScanNetwork, spec: &CriticalitySpec) -> Self {
        Self::try_new(net, spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checks that `node_count` nodes and `mux_input_ports` total mux input
    /// ports fit the kernel's `u32` index space (node indices and edge
    /// offsets both use `u32`, with `u32::MAX` reserved as a sentinel).
    ///
    /// Exposed so callers can validate raw counts — e.g. generator
    /// parameters for networks too large to build in memory — without
    /// constructing a network first.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NetworkTooLarge`] when either count is
    /// `u32::MAX` or more.
    pub fn check_capacity(node_count: usize, mux_input_ports: u128) -> Result<(), AnalysisError> {
        const LIMIT: u64 = u32::MAX as u64;
        if node_count as u128 >= u128::from(LIMIT) {
            return Err(AnalysisError::NetworkTooLarge { count: node_count as u128, limit: LIMIT });
        }
        if mux_input_ports >= u128::from(LIMIT) {
            return Err(AnalysisError::NetworkTooLarge { count: mux_input_ports, limit: LIMIT });
        }
        Ok(())
    }

    /// [`ReachKernel::new`] with the index-space capacity check surfaced as
    /// a structured error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NetworkTooLarge`] when the node count or the
    /// total number of mux input ports exceeds the `u32` kernel index space.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle (validated scan networks never do).
    pub fn try_new(net: &ScanNetwork, spec: &CriticalitySpec) -> Result<Self, AnalysisError> {
        let node_count = net.node_count();
        let ports: u128 =
            net.muxes().map(|m| net.node(m).kind.as_mux().expect("mux").inputs.len() as u128).sum();
        Self::check_capacity(node_count, ports)?;
        let csr = net.csr();
        let scan_in = net.scan_in().index() as u32;
        let scan_out = net.scan_out().index() as u32;

        // Kahn's algorithm: the lane passes relax in this order.
        let mut pred_off = Vec::with_capacity(node_count + 1);
        let mut edges = 0u32;
        pred_off.push(0);
        let mut indeg = Vec::with_capacity(node_count);
        for v in 0..node_count as u32 {
            let d = csr.predecessors(v).len() as u32;
            edges += d;
            pred_off.push(edges);
            indeg.push(d);
        }
        let mut topo = Vec::with_capacity(node_count);
        let mut ready: Vec<u32> =
            (0..node_count as u32).filter(|&v| indeg[v as usize] == 0).collect();
        while let Some(v) = ready.pop() {
            topo.push(v);
            for &w in csr.successors(v) {
                indeg[w as usize] -= 1;
                if indeg[w as usize] == 0 {
                    ready.push(w);
                }
            }
        }
        assert!(topo.len() == node_count, "scan network graph must be acyclic");

        // Fault-free reach: one relaxation each way in topological order.
        let mut baseline_fwd = BitSet::new(node_count);
        for &v in &topo {
            if v == scan_in
                || csr.predecessors(v).iter().any(|&u| baseline_fwd.contains(u as usize))
            {
                baseline_fwd.insert(v as usize);
            }
        }
        let mut baseline_bwd = BitSet::new(node_count);
        for &v in topo.iter().rev() {
            if v == scan_out || csr.successors(v).iter().any(|&w| baseline_bwd.contains(w as usize))
            {
                baseline_bwd.insert(v as usize);
            }
        }

        let mut is_mux = vec![false; node_count];
        let mut mux_inputs: Vec<Vec<u32>> = vec![Vec::new(); node_count];
        for m in net.muxes() {
            let inputs = &net.node(m).kind.as_mux().expect("mux").inputs;
            is_mux[m.index()] = true;
            mux_inputs[m.index()] = inputs.iter().map(|u| u.index() as u32).collect();
        }
        let mut live = BitSet::new(node_count);
        let mut live_obs_w = vec![0u64; node_count];
        let mut live_set_w = vec![0u64; node_count];
        let mut dead_obs = 0u64;
        let mut dead_set = 0u64;
        let mut dead_important = false;
        let mut important_obs = BitSet::new(node_count);
        let mut important_set = BitSet::new(node_count);
        for (i, inst) in net.instruments() {
            let t = inst.segment().index();
            let (obs_weight, set_weight) = (spec.obs_weight(i), spec.set_weight(i));
            if baseline_fwd.contains(t) && baseline_bwd.contains(t) {
                live.insert(t);
                // Weight folds saturate: multiple instruments on one segment
                // (or many dead instruments) may sum past u64::MAX, and
                // damage is a monotone ceiling past that point (§ overflow
                // note on `criticality::Criticality::total_damage`).
                live_obs_w[t] = live_obs_w[t].saturating_add(obs_weight);
                live_set_w[t] = live_set_w[t].saturating_add(set_weight);
                if spec.is_important_obs(i) {
                    important_obs.insert(t);
                }
                if spec.is_important_set(i) {
                    important_set.insert(t);
                }
            } else {
                // Every per-mode map is a subset of the baseline, so the
                // instrument fails both directions in every mode.
                dead_obs = dead_obs.saturating_add(obs_weight);
                dead_set = dead_set.saturating_add(set_weight);
                dead_important |= spec.is_important_obs(i) || spec.is_important_set(i);
            }
        }
        Ok(Self {
            csr,
            node_count,
            scan_in,
            scan_out,
            topo,
            pred_off,
            baseline_fwd,
            baseline_bwd,
            is_mux,
            mux_inputs,
            live,
            live_obs_w,
            live_set_w,
            dead_obs,
            dead_set,
            dead_important,
            important_obs,
            important_set,
        })
    }

    /// `true` when segment node `t` hosts an instrument and is reachable from
    /// scan-in and scan-out in the fault-free network (the precomputed `live`
    /// set the decode walks).
    pub(crate) fn is_live_segment(&self, t: usize) -> bool {
        self.live.contains(t)
    }

    /// Whether `node` lies in the mode footprint `fp`.
    pub(crate) fn footprint_contains(&self, fp: &ModeFootprint, node: usize) -> bool {
        match fp {
            ModeFootprint::Baseline => {
                self.baseline_fwd.contains(node) || self.baseline_bwd.contains(node)
            }
            ModeFootprint::Own(s) => s.contains(node),
        }
    }

    /// Re-derives a mode's obs/set damage arithmetically from its lost
    /// records under the kernel's **current** weights — the no-traversal
    /// replay used after a weight edit.
    pub(crate) fn lost_damages(&self, lost: &[LostSegment]) -> (u64, u64) {
        let mut obs = self.dead_obs;
        let mut set = self.dead_set;
        for r in lost {
            if r.lost_obs {
                obs = obs.saturating_add(self.live_obs_w[r.segment as usize]);
            }
            if r.lost_set {
                set = set.saturating_add(self.live_set_w[r.segment as usize]);
            }
        }
        (obs, set)
    }

    /// Applies a per-instrument weight edit to the flattened probes: the
    /// segment's live sums (or the dead constants, for a fault-free
    /// unreachable segment) move from the old to the new weights. Liveness
    /// and importance are weight-independent, so no map changes.
    pub(crate) fn update_instrument_weights(
        &mut self,
        segment: usize,
        (old_obs, old_set): (u64, u64),
        (new_obs, new_set): (u64, u64),
    ) {
        if self.live.contains(segment) {
            self.live_obs_w[segment] = self.live_obs_w[segment] - old_obs + new_obs;
            self.live_set_w[segment] = self.live_set_w[segment] - old_set + new_set;
        } else {
            self.dead_obs = self.dead_obs - old_obs + new_obs;
            self.dead_set = self.dead_set - old_set + new_set;
        }
    }
}

/// Per-mode provenance from the traced decode: the damage split plus which
/// live segments were lost in which direction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ModeTrace {
    /// Observation damage (lost live obs weights plus the dead constant).
    pub(crate) obs_damage: u64,
    /// Setting damage (lost live set weights plus the dead constant).
    pub(crate) set_damage: u64,
    /// Whether an important instrument is inaccessible in this mode.
    pub(crate) affects_important: bool,
    /// The live segments lost in this mode, ascending by segment index.
    pub(crate) lost: Vec<LostSegment>,
}

/// One lost live segment of a fault mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LostSegment {
    /// Node index of the segment.
    pub(crate) segment: u32,
    /// Lost observability (`fwd_any & bwd_clean & !broken` fails).
    pub(crate) lost_obs: bool,
    /// Lost settability (`fwd_clean & bwd_any & !broken` fails).
    pub(crate) lost_set: bool,
}

/// A fault mode's footprint: the union of its frozen-only ("any") forward
/// and backward reach maps. It over-approximates every node whose presence
/// or absence can influence the mode's damage under *any* added or removed
/// broken-segment set, so structural deltas touching only nodes outside the
/// footprint can never change the mode's damage (the workspace dirty rule,
/// DESIGN.md §2.11).
#[derive(Clone, Debug)]
pub(crate) enum ModeFootprint {
    /// No frozen selects: the any-maps are the fault-free baseline.
    Baseline,
    /// Frozen selects: the mode owns its map.
    Own(BitSet),
}

/// The lane-block driver behind every graph-exact sweep: evaluates `count`
/// modes — `push(block, i)` adds mode `i` as the next lane — in blocks of
/// [`DefaultLane::LANES`](LaneWord::LANES) lanes sharded over [`par`] with
/// one cancel checkpoint per block, and returns the `decode`d per-lane
/// values in mode order. Blocks are independent, so the result is
/// identical at every thread count.
pub(crate) fn sweep_blocks<T: Send>(
    kernel: &ReachKernel,
    parallelism: Parallelism,
    cancel: &CancelToken,
    count: usize,
    push: impl Fn(&mut BlockScratch<DefaultLane>, usize) + Sync,
    decode: impl Fn(&mut BlockScratch<DefaultLane>) -> Vec<T> + Sync,
) -> Result<Vec<T>, AnalysisError> {
    let lanes = DefaultLane::LANES;
    let blocks: Vec<Vec<T>> = par::try_map_indexed_scratch(
        parallelism,
        count.div_ceil(lanes),
        || (kernel.block_scratch(), cancel.checkpoint(4)),
        |(s, cp), b| -> Result<Vec<T>, AnalysisError> {
            cp.tick()?;
            s.clear();
            for i in b * lanes..count.min((b + 1) * lanes) {
                push(s, i);
            }
            Ok(decode(s))
        },
    )?;
    Ok(blocks.into_iter().flatten().collect())
}

/// Untraced [`sweep_blocks`] over the modes `range` of `table`.
pub(crate) fn sweep_table(
    kernel: &ReachKernel,
    table: &ModeTable,
    range: Range<usize>,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<Vec<ModeDamage>, AnalysisError> {
    sweep_blocks(
        kernel,
        parallelism,
        cancel,
        range.len(),
        |s, i| {
            let (broken, frozen) = table.mode(range.start + i);
            kernel.push_mode(s, broken, frozen);
        },
        |s| kernel.eval_damages(s),
    )
}

/// Computes the damage vector for every scan primitive of `net` directly on
/// the graph. Exact for any validated RSN DAG, including non-SP topologies
/// the decomposition-tree analysis cannot express.
///
/// The per-fault sweep is sharded across threads per
/// [`Parallelism::default`] (the `RSN_THREADS` environment variable); use
/// [`analyze_graph_with`] to pin the thread count. Results are bit-identical
/// for every thread count.
#[must_use]
pub fn analyze_graph(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
) -> GraphCriticality {
    analyze_graph_with(net, spec, options, Parallelism::default())
}

/// [`analyze_graph`] with an explicit thread count.
///
/// The sweep evaluates the canonical mode table (the same table the
/// mode-range shards of [`crate::shard`] partition) in lane blocks and folds
/// each primitive's mode damages with its [`ModeAggregation`], so the
/// damage vector is identical at every thread count and to a merged
/// shard sweep.
#[must_use]
pub fn analyze_graph_with(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
    parallelism: Parallelism,
) -> GraphCriticality {
    match analyze_graph_batched(net, spec, options, parallelism, &CancelToken::none()) {
        Ok(result) => result,
        // A none token never cancels; resurface shard panics (and the
        // too-large capacity check) as panics so the infallible signature
        // keeps its crash semantics.
        Err(AnalysisError::WorkerPanicked { message }) => panic!("{message}"),
        Err(err @ AnalysisError::NetworkTooLarge { .. }) => panic!("{err}"),
        Err(err) => unreachable!("uncancellable batched sweep failed: {err}"),
    }
}

/// [`analyze_graph_with`] with cooperative cancellation.
///
/// The token is polled at a checkpoint **per mode block** inside the sharded
/// sweep, so a fired token interrupts a running sweep within a bounded
/// number of relaxation passes instead of only between pipeline stages. On
/// success the damage vector is bit-identical to [`analyze_graph_with`] for
/// every thread count; a cancelled run returns an error and discards partial
/// results, so completed analyses are never affected.
///
/// Worker-shard panics are caught at the shard boundary and surface as
/// [`AnalysisError::WorkerPanicked`].
///
/// # Errors
///
/// [`AnalysisError::Cancelled`] when `cancel` fires mid-sweep;
/// [`AnalysisError::WorkerPanicked`] when a shard panics.
pub fn analyze_graph_with_cancel(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<GraphCriticality, AnalysisError> {
    cancel.check()?;
    analyze_graph_batched(net, spec, options, parallelism, cancel)
}

/// The shared full-sweep implementation: a range sweep over the whole mode
/// table, then per-primitive aggregation of `obs + set`.
fn analyze_graph_batched(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<GraphCriticality, AnalysisError> {
    let table = ModeTable::single_faults(net, options.sib_policy);
    cancel.check()?;
    let kernel = ReachKernel::try_new(net, spec)?;
    let damages = sweep_table(&kernel, &table, 0..table.len(), parallelism, cancel)?;
    let primitives: Vec<NodeId> = net.primitives().collect();
    let mut damage = vec![0; net.node_count()];
    let mut totals = Vec::new();
    for (&j, modes) in primitives.iter().zip(table.groups()) {
        totals.clear();
        totals.extend(damages[modes].iter().map(ModeDamage::total));
        damage[j.index()] = aggregate_mode_damages(options.mode, &totals);
    }
    Ok(GraphCriticality { damage, primitives })
}

/// Controlled muxes per control cell under [`SibCellPolicy::Combined`]
/// (empty per-node lists otherwise).
pub(crate) fn controlled_muxes(net: &ScanNetwork, policy: SibCellPolicy) -> Vec<Vec<NodeId>> {
    let mut controlled: Vec<Vec<NodeId>> = vec![Vec::new(); net.node_count()];
    if policy == SibCellPolicy::Combined {
        for m in net.muxes() {
            if let Some(ControlSource::Cell { segment, .. }) =
                net.node(m).kind.as_mux().map(|x| x.control)
            {
                controlled[segment.index()].push(m);
            }
        }
    }
    controlled
}

/// A per-mode visitor: `(broken segments, frozen selects)`.
pub(crate) type ModeVisitor<'a> = dyn FnMut(&[NodeId], &[(NodeId, usize)]) + 'a;

/// Enumerates the single-fault modes of primitive `j` in the canonical
/// analysis order, calling `visit(broken, frozen)` once per mode: every stuck
/// port for a mux, the plain broken mode for an uncontrolled segment, and the
/// odometer over frozen-select combinations for a control cell with
/// [`SibCellPolicy::Combined`] (encoded by a non-empty `controlled[j]`).
///
/// The validation campaign replays exactly this enumeration, so any
/// simulation/analysis diff is attributable to a specific shared mode index.
pub(crate) fn for_each_mode(
    net: &ScanNetwork,
    controlled: &[Vec<NodeId>],
    j: NodeId,
    visit: &mut ModeVisitor<'_>,
) {
    match &net.node(j).kind {
        NodeKind::Mux(m) => {
            for p in 0..m.fan_in() {
                visit(&[], &[(j, p)]);
            }
        }
        NodeKind::Segment(_) => {
            for_each_combination(net, &[j], &[], &controlled[j.index()], &mut Vec::new(), visit);
        }
        _ => unreachable!("primitives are segments or muxes"),
    }
}

/// Visits `broken` with the `stuck` selects plus every frozen-select
/// combination of the `free` muxes — an odometer, the first free mux
/// advancing fastest. With no free muxes this is the single mode
/// `(broken, stuck)`. `frozen` is scratch space for the visited selects.
fn for_each_combination(
    net: &ScanNetwork,
    broken: &[NodeId],
    stuck: &[(NodeId, usize)],
    free: &[NodeId],
    frozen: &mut Vec<(NodeId, usize)>,
    visit: &mut ModeVisitor<'_>,
) {
    frozen.clear();
    frozen.extend_from_slice(stuck);
    frozen.extend(free.iter().map(|&m| (m, 0)));
    loop {
        visit(broken, frozen);
        let mut k = stuck.len();
        loop {
            let Some((m, select)) = frozen.get_mut(k) else { return };
            *select += 1;
            if *select < fan_in(net, *m) {
                break;
            }
            *select = 0;
            k += 1;
        }
    }
}

fn fan_in(net: &ScanNetwork, m: NodeId) -> usize {
    net.node(m).kind.as_mux().expect("mux").fan_in()
}

/// Folds per-mode damages into `d_j`.
///
/// [`ModeAggregation::Mean`] is the **truncating integer mean**
/// (`sum / len`, remainder discarded), matching the tree analysis in
/// [`crate::criticality`] exactly — pinned by a differential test so the two
/// analyses stay bit-identical even when `sum % len != 0`.
pub(crate) fn aggregate_mode_damages(mode: ModeAggregation, mode_damages: &[u64]) -> u64 {
    match mode {
        ModeAggregation::Worst => mode_damages.iter().copied().max().unwrap_or(0),
        ModeAggregation::Sum => mode_damages.iter().fold(0u64, |a, &d| a.saturating_add(d)),
        ModeAggregation::Mean => {
            mode_damages.iter().fold(0u64, |a, &d| a.saturating_add(d))
                / mode_damages.len().max(1) as u64
        }
    }
}

/// Reusable buffers of [`expand_fault_set`], so long set streams expand
/// without allocating per set.
#[derive(Default)]
struct SetBuffers {
    broken: Vec<NodeId>,
    stuck: Vec<(NodeId, usize)>,
    free: Vec<NodeId>,
    frozen: Vec<(NodeId, usize)>,
}

/// Expands one fault set into a group of `table`: its broken segments and
/// stuck selects, jointly with one mode per frozen-select combination of
/// the multiplexers its broken control cells leave free (`controlled` is
/// non-empty only under [`SibCellPolicy::Combined`]).
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] when the set needs more than
/// [`MAX_FROZEN_COMBINATIONS`] combinations; `table` is then unchanged.
fn expand_fault_set(
    net: &ScanNetwork,
    controlled: &[Vec<NodeId>],
    faults: &[Fault],
    table: &mut ModeTable,
    buf: &mut SetBuffers,
) -> Result<(), AnalysisError> {
    let SetBuffers { broken, stuck, free, frozen } = buf;
    broken.clear();
    stuck.clear();
    free.clear();
    for f in faults {
        match f.kind {
            FaultKind::SegmentBroken => broken.push(f.node),
            FaultKind::MuxStuckAt(p) => stuck.push((f.node, usize::from(p))),
        }
    }
    for b in broken.iter() {
        for &m in &controlled[b.index()] {
            if !stuck.iter().any(|&(s, _)| s == m) && !free.contains(&m) {
                free.push(m);
            }
        }
    }
    let combos = free.iter().fold(1u128, |acc, &m| acc.saturating_mul(fan_in(net, m) as u128));
    if combos > MAX_FROZEN_COMBINATIONS as u128 {
        return Err(AnalysisError::TooManyFrozenCombinations {
            combos,
            limit: MAX_FROZEN_COMBINATIONS,
        });
    }
    for_each_combination(net, broken, stuck, free, frozen, &mut |b, f| table.push(b, f));
    table.end_group();
    Ok(())
}

/// Fault sets collected per round of [`fault_set_damages`]; bounds the
/// expansion memory of long set streams (the exact double-fault sweep).
const SET_BATCH: usize = 1 << 16;

/// Fault sets one worker expands and sweeps as a unit.
const SET_GROUP: usize = 1 << 10;

/// Worst-case joint damage of each fault set in `sets`, in input order: the
/// sets are expanded ([`expand_fault_set`]) one lane per frozen-select
/// combination, swept in lane blocks, and folded to the per-set maximum.
///
/// Groups of [`SET_GROUP`] sets are sharded over [`par`], each expanded and
/// swept by one worker, so expansion parallelizes with evaluation; a lone
/// group (a single fault set, say) shards its lane blocks instead.
///
/// # Errors
///
/// The first set (in input order) exceeding the combination bound is
/// reported as [`AnalysisError::TooManyFrozenCombinations`];
/// [`AnalysisError::Cancelled`] / [`AnalysisError::WorkerPanicked`] as for
/// every sweep.
pub(crate) fn fault_set_damages<S: AsRef<[Fault]> + Sync>(
    kernel: &ReachKernel,
    net: &ScanNetwork,
    controlled: &[Vec<NodeId>],
    sets: impl IntoIterator<Item = S>,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<Vec<u64>, AnalysisError> {
    let mut sets = sets.into_iter().peekable();
    let mut worst = Vec::new();
    while sets.peek().is_some() {
        let batch: Vec<S> = sets.by_ref().take(SET_BATCH).collect();
        let groups = batch.len().div_ceil(SET_GROUP);
        let inner = if groups == 1 { parallelism } else { Parallelism::sequential() };
        let per_group: Vec<Result<Vec<u64>, AnalysisError>> = par::try_map_indexed_scratch(
            parallelism,
            groups,
            SetBuffers::default,
            |buf, g| -> Result<_, AnalysisError> {
                let mut table = ModeTable::default();
                for set in &batch[g * SET_GROUP..batch.len().min((g + 1) * SET_GROUP)] {
                    if let Err(e) = expand_fault_set(net, controlled, set.as_ref(), &mut table, buf)
                    {
                        // Surfaced after the map, so the first failing set
                        // in input order wins at every thread count.
                        return Ok(Err(e));
                    }
                }
                let damages = sweep_table(kernel, &table, 0..table.len(), inner, cancel)?;
                Ok(Ok(table
                    .groups()
                    .map(|m| damages[m].iter().map(ModeDamage::total).max().unwrap_or(0))
                    .collect()))
            },
        )?;
        for group in per_group {
            worst.extend(group?);
        }
    }
    Ok(worst)
}

/// Weighted damage of an explicit multi-fault set (worst case over the
/// frozen selects of broken control cells under
/// [`SibCellPolicy::Combined`]).
///
/// This extends the paper's single-fault model: Eq. 1 damages are additive
/// approximations, while a fault *set* is evaluated jointly here (two faults
/// can mask or compound each other).
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] when the broken control
/// cells would freeze more select combinations than
/// [`MAX_FROZEN_COMBINATIONS`].
pub fn fault_set_damage(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    faults: &[Fault],
    policy: SibCellPolicy,
) -> Result<u64, AnalysisError> {
    fault_set_damage_with(net, spec, faults, policy, Parallelism::default())
}

/// [`fault_set_damage`] with an explicit thread count.
///
/// Each frozen-select combination is one lane of the batch kernel, and the
/// worst case over a fixed combination set is order-independent, so the
/// result is identical for every thread count.
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] when the broken control
/// cells would freeze more select combinations than
/// [`MAX_FROZEN_COMBINATIONS`].
pub fn fault_set_damage_with(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    faults: &[Fault],
    policy: SibCellPolicy,
    parallelism: Parallelism,
) -> Result<u64, AnalysisError> {
    fault_set_damage_with_cancel(net, spec, faults, policy, parallelism, &CancelToken::none())
}

/// [`fault_set_damage_with`] with cooperative cancellation: the token is
/// polled per lane block, so a fired deadline interrupts even a near-limit
/// enumeration within a few kernel passes.
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] as for
/// [`fault_set_damage_with`]; [`AnalysisError::Cancelled`] when `cancel`
/// fires; [`AnalysisError::WorkerPanicked`] when a shard panics.
pub fn fault_set_damage_with_cancel(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    faults: &[Fault],
    policy: SibCellPolicy,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<u64, AnalysisError> {
    let kernel = ReachKernel::try_new(net, spec)?;
    let controlled = controlled_muxes(net, policy);
    Ok(fault_set_damages(&kernel, net, &controlled, [faults], parallelism, cancel)?[0])
}

/// The single-fault pool of `net` minus faults on `hardened` primitives.
fn unhardened_faults(net: &ScanNetwork, hardened: &[NodeId]) -> Vec<Fault> {
    let hardened: std::collections::HashSet<NodeId> = hardened.iter().copied().collect();
    rsn_model::enumerate_single_faults(net)
        .into_iter()
        .filter(|f| !hardened.contains(&f.node))
        .collect()
}

/// Average joint damage over `samples` random *pairs* of single faults,
/// restricted to unhardened primitives — a robustness check of a hardening
/// solution beyond the paper's single-fault model.
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] when any sampled pair
/// exceeds the frozen-select combination bound.
pub fn sampled_double_fault_damage(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    hardened: &[NodeId],
    policy: SibCellPolicy,
    samples: usize,
    seed: u64,
) -> Result<f64, AnalysisError> {
    sampled_double_fault_damage_with(
        net,
        spec,
        hardened,
        policy,
        samples,
        seed,
        Parallelism::default(),
    )
}

/// [`sampled_double_fault_damage`] with an explicit thread count.
///
/// All fault pairs are drawn *sequentially* from the seeded RNG first —
/// keeping the random stream byte-identical to the sequential code — and
/// only the pure per-pair evaluation is sharded (as lanes of one shared
/// [`ReachKernel`]). The sum is taken in sample order, so the result is
/// identical for every thread count.
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] when any sampled pair
/// exceeds the frozen-select combination bound (the first failing pair in
/// sample order is reported).
pub fn sampled_double_fault_damage_with(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    hardened: &[NodeId],
    policy: SibCellPolicy,
    samples: usize,
    seed: u64,
    parallelism: Parallelism,
) -> Result<f64, AnalysisError> {
    sampled_double_fault_damage_with_cancel(
        net,
        spec,
        hardened,
        policy,
        samples,
        seed,
        parallelism,
        &CancelToken::none(),
    )
}

/// [`sampled_double_fault_damage_with`] with cooperative cancellation: the
/// token is polled once per lane block inside the sharded sweep.
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] as for
/// [`sampled_double_fault_damage_with`]; [`AnalysisError::Cancelled`] when
/// `cancel` fires; [`AnalysisError::WorkerPanicked`] when a shard panics.
#[allow(clippy::too_many_arguments)]
pub fn sampled_double_fault_damage_with_cancel(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    hardened: &[NodeId],
    policy: SibCellPolicy,
    samples: usize,
    seed: u64,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<f64, AnalysisError> {
    use rand::seq::IndexedRandom;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let pool = unhardened_faults(net, hardened);
    if pool.len() < 2 || samples == 0 {
        return Ok(0.0);
    }
    let pairs: Vec<Vec<Fault>> =
        (0..samples).map(|_| pool.choose_multiple(&mut rng, 2).copied().collect()).collect();
    let kernel = ReachKernel::try_new(net, spec)?;
    let controlled = controlled_muxes(net, policy);
    let damages = fault_set_damages(&kernel, net, &controlled, &pairs, parallelism, cancel)?;
    let total: u64 = damages.into_iter().sum();
    Ok(total as f64 / samples as f64)
}

/// Statistics of an exact double-fault sweep ([`double_fault_damage`]):
/// every unordered pair of single faults on unhardened primitives,
/// evaluated jointly.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DoubleFaultSummary {
    /// Number of fault pairs evaluated.
    pub pairs: u64,
    /// Mean joint damage over all pairs.
    pub mean: f64,
    /// Worst joint damage over all pairs.
    pub max: u64,
    /// Best-case joint damage over all pairs.
    pub min: u64,
}

impl DoubleFaultSummary {
    fn from_damages(damages: &[u64]) -> Self {
        if damages.is_empty() {
            return Self { pairs: 0, mean: 0.0, max: 0, min: 0 };
        }
        let sum: u128 = damages.iter().map(|&d| u128::from(d)).sum();
        Self {
            pairs: damages.len() as u64,
            mean: sum as f64 / damages.len() as f64,
            max: damages.iter().copied().max().unwrap_or(0),
            min: damages.iter().copied().min().unwrap_or(0),
        }
    }
}

/// **Exact** joint damage over *every* unordered pair of single faults on
/// unhardened primitives — the full sweep [`sampled_double_fault_damage`]
/// estimates. Pair modes (including the worst-case frozen-select
/// combinations of broken control cells under [`SibCellPolicy::Combined`])
/// are packed into mode-major lane blocks, so the sweep costs two
/// relaxation passes per [`DefaultLane::LANES`](LaneWord::LANES) modes and
/// stays tractable for Table I-class designs.
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] when any pair exceeds the
/// frozen-select combination bound (the first failing pair in enumeration
/// order is reported).
pub fn double_fault_damage(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    hardened: &[NodeId],
    policy: SibCellPolicy,
) -> Result<DoubleFaultSummary, AnalysisError> {
    double_fault_damage_with(net, spec, hardened, policy, Parallelism::default())
}

/// [`double_fault_damage`] with an explicit thread count.
///
/// Pairs are enumerated in a canonical lexicographic order and their lanes
/// spliced back in order, so the summary is bit-identical at every thread
/// count.
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] as for
/// [`double_fault_damage`].
pub fn double_fault_damage_with(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    hardened: &[NodeId],
    policy: SibCellPolicy,
    parallelism: Parallelism,
) -> Result<DoubleFaultSummary, AnalysisError> {
    double_fault_damage_with_cancel(net, spec, hardened, policy, parallelism, &CancelToken::none())
}

/// [`double_fault_damage_with`] with cooperative cancellation: the token is
/// polled once per lane block inside the sharded sweep.
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] as for
/// [`double_fault_damage`]; [`AnalysisError::Cancelled`] when `cancel`
/// fires; [`AnalysisError::WorkerPanicked`] when a shard panics.
pub fn double_fault_damage_with_cancel(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    hardened: &[NodeId],
    policy: SibCellPolicy,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<DoubleFaultSummary, AnalysisError> {
    let damages = double_fault_pair_damages(net, spec, hardened, policy, parallelism, cancel)?;
    Ok(DoubleFaultSummary::from_damages(&damages))
}

/// Per-pair damages of the exact double-fault sweep, in canonical pair
/// order: pool index pairs `(i, j)` with `i < j`, lexicographic, over the
/// unhardened [`rsn_model::enumerate_single_faults`] pool. Exposed for the
/// exact-vs-sampled differential tests; the stable API is
/// [`double_fault_damage`].
///
/// # Errors
///
/// As for [`double_fault_damage_with_cancel`].
#[doc(hidden)]
pub fn double_fault_pair_damages(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    hardened: &[NodeId],
    policy: SibCellPolicy,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<Vec<u64>, AnalysisError> {
    let pool = unhardened_faults(net, hardened);
    let n = pool.len();
    if n < 2 {
        return Ok(Vec::new());
    }
    let kernel = ReachKernel::try_new(net, spec)?;
    let controlled = controlled_muxes(net, policy);
    let pool = &pool;
    let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| [pool[i], pool[j]]));
    fault_set_damages(&kernel, net, &controlled, pairs, parallelism, cancel)
}

/// The straightforward `Vec<bool>` implementation, kept as the differential
/// oracle for the lane engine (property tests, the validation campaign's
/// per-mode cross-check) and the `reach_kernel` micro-benchmarks. Not part
/// of the supported API.
#[doc(hidden)]
pub mod reference {
    use super::{
        aggregate_mode_damages, controlled_muxes, for_each_mode, AnalysisOptions, CriticalitySpec,
        GraphCriticality, ModeAggregation, NodeId, ScanNetwork,
    };

    /// Sequential damage vector computed with the `Vec<bool>` reachability
    /// maps; must stay bit-identical to
    /// [`analyze_graph`](super::analyze_graph).
    #[must_use]
    pub fn analyze_graph_ref(
        net: &ScanNetwork,
        spec: &CriticalitySpec,
        options: &AnalysisOptions,
    ) -> GraphCriticality {
        let primitives: Vec<NodeId> = net.primitives().collect();
        let mut damage = vec![0; net.node_count()];
        let controlled = controlled_muxes(net, options.sib_policy);
        for &j in &primitives {
            let mut mode_damages = Vec::new();
            for_each_mode(net, &controlled, j, &mut |broken, frozen| {
                mode_damages.push(mode_damage(net, spec, broken, frozen));
            });
            damage[j.index()] = aggregate_mode_damages(options.mode, &mode_damages);
        }
        GraphCriticality { damage, primitives }
    }

    /// Per-mode damage: four freshly allocated `Vec<bool>` BFS maps and
    /// linear-scan membership tests.
    #[must_use]
    pub fn mode_damage(
        net: &ScanNetwork,
        spec: &CriticalitySpec,
        broken: &[NodeId],
        frozen: &[(NodeId, usize)],
    ) -> u64 {
        let usable = usable_edges(net, frozen);
        let is_broken = |n: NodeId| broken.contains(&n);

        // Four reachability maps over the pruned graph.
        let fwd_any = reach(net, net.scan_in(), false, &usable, |_| false);
        let fwd_clean = reach(net, net.scan_in(), false, &usable, is_broken);
        let bwd_any = reach(net, net.scan_out(), true, &usable, |_| false);
        let bwd_clean = reach(net, net.scan_out(), true, &usable, is_broken);

        let mut damage = 0u64;
        for (i, inst) in net.instruments() {
            let t = inst.segment();
            // A broken instrument segment is inaccessible both ways.
            let obs = !is_broken(t) && fwd_any[t.index()] && bwd_clean[t.index()];
            let set = !is_broken(t) && fwd_clean[t.index()] && bwd_any[t.index()];
            if !obs {
                damage += spec.obs_weight(i);
            }
            if !set {
                damage += spec.set_weight(i);
            }
        }
        damage
    }

    /// The edge filter of a mode's `frozen` selects: an edge `u -> v` is
    /// usable unless `v` is a frozen mux (first entry wins) and `u` is not
    /// its selected input.
    pub fn usable_edges<'a>(
        net: &'a ScanNetwork,
        frozen: &'a [(NodeId, usize)],
    ) -> impl Fn(NodeId, NodeId) -> bool + 'a {
        move |u: NodeId, v: NodeId| -> bool {
            for &(m, p) in frozen {
                if v == m {
                    let inputs = &net.node(m).kind.as_mux().expect("mux").inputs;
                    return inputs.get(p).copied() == Some(u);
                }
            }
            true
        }
    }

    /// BFS over usable edges; `blocked` nodes are not traversed (but the
    /// start is always visited).
    pub fn reach(
        net: &ScanNetwork,
        start: NodeId,
        backward: bool,
        usable: &impl Fn(NodeId, NodeId) -> bool,
        blocked: impl Fn(NodeId) -> bool,
    ) -> Vec<bool> {
        let mut seen = vec![false; net.node_count()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        while let Some(v) = stack.pop() {
            let next = if backward { net.predecessors(v) } else { net.successors(v) };
            for &w in next {
                let (u_edge, v_edge) = if backward { (w, v) } else { (v, w) };
                if !usable(u_edge, v_edge) || seen[w.index()] || blocked(w) {
                    continue;
                }
                seen[w.index()] = true;
                stack.push(w);
            }
        }
        seen
    }

    // Re-exported so reference-based test helpers can aggregate identically.
    pub use super::MAX_FROZEN_COMBINATIONS as _MAX_FROZEN_COMBINATIONS;

    /// Reference aggregation (same truncating-Mean semantics).
    #[must_use]
    pub fn aggregate(mode: ModeAggregation, damages: &[u64]) -> u64 {
        aggregate_mode_damages(mode, damages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criticality::analyze;
    use crate::spec::PaperSpecParams;
    use rsn_model::{ControlSource, InstrumentKind, NetworkBuilder, Segment, Structure};
    use rsn_sp::tree_from_structure;

    #[test]
    fn agrees_with_the_tree_analysis_on_sp_networks() {
        let s = Structure::series(vec![
            Structure::instrument_seg("c0", 2, InstrumentKind::Debug),
            Structure::sib(
                "s0",
                Structure::series(vec![
                    Structure::instrument_seg("d0", 3, InstrumentKind::Bist),
                    Structure::sib("s1", Structure::instrument_seg("d1", 2, InstrumentKind::Bist)),
                ]),
            ),
            Structure::parallel(
                vec![
                    Structure::instrument_seg("a", 1, InstrumentKind::Sensor),
                    Structure::instrument_seg("b", 1, InstrumentKind::Sensor),
                ],
                "m0",
            ),
        ]);
        let (net, built) = s.build("t").unwrap();
        let tree = tree_from_structure(&net, &built);
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 3);
        for options in [
            AnalysisOptions::default(),
            AnalysisOptions { mode: ModeAggregation::Sum, ..Default::default() },
            AnalysisOptions { sib_policy: SibCellPolicy::SegmentOnly, ..Default::default() },
        ] {
            let tree_crit = analyze(&net, &tree, &spec, &options);
            let graph_crit = analyze_graph(&net, &spec, &options);
            for j in net.primitives() {
                assert_eq!(
                    tree_crit.damage(j),
                    graph_crit.damage(j),
                    "primitive {j} under {options:?}"
                );
            }
        }
    }

    /// Tree and graph analyses must agree on [`ModeAggregation::Mean`] even
    /// when the mode sum does not divide evenly: both truncate
    /// (`sum / len`, remainder discarded) — pinned here so neither side
    /// silently switches to rounding.
    #[test]
    fn mean_mode_truncation_matches_the_tree_analysis() {
        // Parallel(heavy | light): mux modes lose the other branch, so the
        // mode damages are 20 (stuck at light) and 3 (stuck at heavy):
        // sum 23, len 2 -> truncated mean 11, not 11.5 or 12.
        let s = Structure::parallel(
            vec![
                Structure::instrument_seg("heavy", 1, InstrumentKind::Sensor),
                Structure::instrument_seg("light", 1, InstrumentKind::Sensor),
            ],
            "m",
        );
        let (net, built) = s.build("t").unwrap();
        let tree = tree_from_structure(&net, &built);
        let mut spec = CriticalitySpec::new(&net);
        let heavy = net
            .nodes()
            .find(|(_, n)| n.name.as_deref() == Some("heavy"))
            .map(|(id, _)| id)
            .unwrap();
        for (i, inst) in net.instruments() {
            if inst.segment() == heavy {
                spec.set_weights(i, 10, 10);
            } else {
                spec.set_weights(i, 1, 2);
            }
        }
        let options = AnalysisOptions { mode: ModeAggregation::Mean, ..Default::default() };
        let tree_crit = analyze(&net, &tree, &spec, &options);
        let graph_crit = analyze_graph(&net, &spec, &options);
        let m = net.muxes().next().unwrap();
        assert_eq!(graph_crit.damage(m), 11, "23 / 2 truncates to 11");
        for j in net.primitives() {
            assert_eq!(tree_crit.damage(j), graph_crit.damage(j), "primitive {j}");
        }
    }

    /// The non-SP "bridge" graph that SP recognition rejects: the graph
    /// analysis handles it directly.
    fn bridge() -> (ScanNetwork, Vec<NodeId>) {
        let mut b = NetworkBuilder::new("bridge");
        let f1 = b.add_fanout("f1");
        let a = b.add_segment("a", Segment::new(1));
        let bb = b.add_segment("b", Segment::new(1));
        let f2 = b.add_fanout("f2");
        let (si, so) = (b.scan_in(), b.scan_out());
        b.connect(si, f1).unwrap();
        b.connect(f1, a).unwrap();
        b.connect(f1, bb).unwrap();
        b.connect(bb, f2).unwrap();
        let m1 = b.add_mux("m1", vec![a, f2], ControlSource::Direct).unwrap();
        let c = b.add_segment("c", Segment::new(1));
        b.connect(f2, c).unwrap();
        let m2 = b.add_mux("m2", vec![m1, c], ControlSource::Direct).unwrap();
        b.connect(m2, so).unwrap();
        for (seg, kind) in
            [(a, InstrumentKind::Sensor), (bb, InstrumentKind::Bist), (c, InstrumentKind::Debug)]
        {
            b.add_instrument(format!("i{}", seg.index()), seg, kind).unwrap();
        }
        let net = b.finish().unwrap();
        (net, vec![a, bb, c, m1, m2])
    }

    #[test]
    fn handles_non_sp_graphs() {
        let (net, nodes) = bridge();
        assert!(rsn_sp::recognize(&net).is_err(), "bridge must not be SP");
        let mut spec = CriticalitySpec::new(&net);
        for (i, _) in net.instruments() {
            spec.set_weights(i, 1, 1);
        }
        let crit = analyze_graph(&net, &spec, &AnalysisOptions::default());
        let [a, bb, c, m1, m2] = nodes[..] else { panic!("five nodes") };
        // Breaking b costs b itself (2) plus the settability of c, whose
        // only feed runs through b (1).
        assert_eq!(crit.damage(bb), 3);
        // a and c each have alternative routes for everything else: their
        // faults only hurt themselves.
        assert_eq!(crit.damage(a), 2);
        assert_eq!(crit.damage(c), 2);
        // m2 stuck either way strands exactly one branch: port 0 (m1 side)
        // loses c, port 1 (c side) loses a.
        assert_eq!(crit.damage(m2), 2);
        // m1 stuck at its f2 input leaves a without any complete scan path
        // (no route to scan-out), losing both directions.
        assert_eq!(crit.damage(m1), 2);
        assert!(crit.total_damage() > 0);
    }

    #[test]
    fn oracle_confirms_the_bridge_numbers() {
        use crate::accessibility::oracle_damage;
        let (net, _) = bridge();
        let mut spec = CriticalitySpec::new(&net);
        for (i, _) in net.instruments() {
            spec.set_weights(i, 2, 3);
        }
        let options = AnalysisOptions::default();
        let crit = analyze_graph(&net, &spec, &options);
        for j in net.primitives() {
            assert_eq!(crit.damage(j), oracle_damage(&net, &spec, j, &options), "primitive {j}");
        }
    }

    #[test]
    fn kernel_matches_the_reference_on_the_bridge() {
        let (net, _) = bridge();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 11);
        for options in [
            AnalysisOptions::default(),
            AnalysisOptions { mode: ModeAggregation::Sum, ..Default::default() },
            AnalysisOptions { mode: ModeAggregation::Mean, ..Default::default() },
        ] {
            let fast = analyze_graph_with(&net, &spec, &options, Parallelism::sequential());
            let slow = reference::analyze_graph_ref(&net, &spec, &options);
            assert_eq!(fast, slow, "{options:?}");
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_between_modes() {
        // Evaluate wildly different modes back to back on one scratch, one
        // lane block each, and compare every block against the reference.
        let (net, nodes) = bridge();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 5);
        let kernel = ReachKernel::new(&net, &spec);
        let mut reused = kernel.block_scratch::<u64>();
        let [a, bb, _c, m1, m2] = nodes[..] else { panic!("five nodes") };
        type Mode = (Vec<NodeId>, Vec<(NodeId, usize)>);
        let modes: Vec<Mode> = vec![
            (vec![a], vec![]),
            (vec![], vec![(m1, 0)]),
            (vec![bb], vec![(m2, 1)]),
            (vec![], vec![]),
            (vec![a, bb], vec![(m1, 1), (m2, 0)]),
            (vec![a], vec![]),
        ];
        for (broken, frozen) in &modes {
            reused.clear();
            kernel.push_mode(&mut reused, broken, frozen);
            let got = kernel.eval_damages(&mut reused);
            assert_eq!(
                got[0].total(),
                reference::mode_damage(&net, &spec, broken, frozen),
                "broken {broken:?} frozen {frozen:?}"
            );
        }
    }

    #[test]
    fn fault_set_matches_single_fault_analysis_for_singletons() {
        use rsn_model::enumerate_single_faults;
        let s = Structure::series(vec![
            Structure::sib("s0", Structure::instrument_seg("d0", 2, InstrumentKind::Bist)),
            Structure::parallel(
                vec![
                    Structure::instrument_seg("a", 1, InstrumentKind::Sensor),
                    Structure::instrument_seg("b", 1, InstrumentKind::Sensor),
                ],
                "m0",
            ),
        ]);
        let (net, _) = s.build("t").unwrap();
        let mut spec = CriticalitySpec::new(&net);
        for (i, _) in net.instruments() {
            spec.set_weights(i, 2, 3);
        }
        let crit = analyze_graph(&net, &spec, &AnalysisOptions::default());
        // Per-primitive worst-mode damage equals the max of its singleton
        // fault-set damages: a broken SIB cell's combined semantics already
        // take the worst frozen select, and stuck modes of the same mux are
        // separate singletons.
        for j in net.primitives() {
            let worst = enumerate_single_faults(&net)
                .into_iter()
                .filter(|f| f.node == j)
                .map(|f| fault_set_damage(&net, &spec, &[f], SibCellPolicy::Combined).unwrap())
                .max()
                .unwrap();
            assert_eq!(crit.damage(j), worst, "primitive {j}");
        }
    }

    #[test]
    fn double_faults_do_at_least_single_fault_damage() {
        let s = Structure::series(vec![
            Structure::instrument_seg("x", 1, InstrumentKind::Debug),
            Structure::instrument_seg("y", 1, InstrumentKind::Debug),
            Structure::instrument_seg("z", 1, InstrumentKind::Debug),
        ]);
        let (net, _) = s.build("t").unwrap();
        let mut spec = CriticalitySpec::new(&net);
        for (i, _) in net.instruments() {
            spec.set_weights(i, 1, 1);
        }
        let x = net.segments().next().unwrap();
        let z = net.segments().last().unwrap();
        let single_x =
            fault_set_damage(&net, &spec, &[Fault::broken_segment(x)], SibCellPolicy::Combined)
                .unwrap();
        let pair = fault_set_damage(
            &net,
            &spec,
            &[Fault::broken_segment(x), Fault::broken_segment(z)],
            SibCellPolicy::Combined,
        )
        .unwrap();
        assert!(pair >= single_x);
        // Breaking both ends of the chain kills everything: 3 * (1 + 1).
        assert_eq!(pair, 6);
    }

    /// One control cell driving `k` two-input muxes, each selecting between
    /// two instrument segments: breaking the cell freezes `2^k` select
    /// combinations.
    fn wide_cell(k: u32) -> (ScanNetwork, NodeId) {
        let mut b = NetworkBuilder::new("wide");
        let cell = b.add_segment("cell", Segment::new(k));
        let (si, so) = (b.scan_in(), b.scan_out());
        b.connect(si, cell).unwrap();
        let mut prev = cell;
        for i in 0..k {
            let f = b.add_fanout(format!("f{i}"));
            b.connect(prev, f).unwrap();
            let x = b.add_segment(format!("x{i}"), Segment::new(1));
            let y = b.add_segment(format!("y{i}"), Segment::new(1));
            b.connect(f, x).unwrap();
            b.connect(f, y).unwrap();
            b.add_instrument(format!("ix{i}"), x, InstrumentKind::Sensor).unwrap();
            b.add_instrument(format!("iy{i}"), y, InstrumentKind::Debug).unwrap();
            let m = b
                .add_mux(format!("m{i}"), vec![x, y], ControlSource::Cell { segment: cell, bit: i })
                .unwrap();
            prev = m;
        }
        b.connect(prev, so).unwrap();
        (b.finish().unwrap(), cell)
    }

    #[test]
    fn too_many_frozen_combinations_is_a_structured_error() {
        // 2^13 = 8192 > 4096 frozen-select combinations.
        let (net, cell) = wide_cell(13);
        let spec = CriticalitySpec::new(&net);
        let err =
            fault_set_damage(&net, &spec, &[Fault::broken_segment(cell)], SibCellPolicy::Combined)
                .unwrap_err();
        match err {
            AnalysisError::TooManyFrozenCombinations { combos, limit } => {
                assert_eq!(combos, 8192);
                assert_eq!(limit, MAX_FROZEN_COMBINATIONS);
            }
            other => panic!("expected frozen-combination error, got {other:?}"),
        }
        assert!(err.to_string().contains("8192"));
        // SegmentOnly ignores the frozen muxes and stays evaluable.
        assert!(fault_set_damage(
            &net,
            &spec,
            &[Fault::broken_segment(cell)],
            SibCellPolicy::SegmentOnly
        )
        .is_ok());
    }

    #[test]
    fn fault_set_combinations_span_several_lane_blocks() {
        // 2^8 = 256 combinations: four full 64-lane blocks for one set. The
        // per-set worst case must equal the reference maximized over the
        // same odometer, at one and four threads.
        let (net, cell) = wide_cell(8);
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 9);
        let muxes: Vec<NodeId> = net.muxes().collect();
        let mut want = 0u64;
        for c in 0..1usize << muxes.len() {
            let frozen: Vec<(NodeId, usize)> =
                muxes.iter().enumerate().map(|(k, &m)| (m, (c >> k) & 1)).collect();
            want = want.max(reference::mode_damage(&net, &spec, &[cell], &frozen));
        }
        for threads in [1, 4] {
            let got = fault_set_damage_with(
                &net,
                &spec,
                &[Fault::broken_segment(cell)],
                SibCellPolicy::Combined,
                Parallelism::new(threads),
            )
            .unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn oversized_networks_are_a_structured_error() {
        // A >= u32::MAX-node network cannot be built in a test, so the
        // capacity check is exercised on raw counts — the same check
        // `try_new` runs on every real network.
        assert!(ReachKernel::check_capacity(1_000_000, 2_000_000).is_ok());
        let err = ReachKernel::check_capacity(u32::MAX as usize, 0).unwrap_err();
        match err {
            AnalysisError::NetworkTooLarge { count, limit } => {
                assert_eq!(count, u128::from(u32::MAX));
                assert_eq!(limit, u64::from(u32::MAX));
            }
            other => panic!("expected too-large error, got {other:?}"),
        }
        assert!(err.to_string().contains("kernel index space"), "{err}");
        // The edge offsets share the u32 space: a network whose *port*
        // total overflows is rejected even when the node count fits.
        let err = ReachKernel::check_capacity(1_000_000, u128::from(u32::MAX)).unwrap_err();
        assert!(matches!(err, AnalysisError::NetworkTooLarge { .. }));
    }

    #[test]
    fn damage_saturates_instead_of_wrapping() {
        // Two instrument segments in series, each weighted near u64::MAX: a
        // broken segment loses both directions of its neighbour plus itself,
        // so an unchecked `+=` would wrap (panicking in debug builds).
        // Saturating arithmetic clamps at u64::MAX.
        let huge = u64::MAX / 2 + 1;
        let mut b = NetworkBuilder::new("sat");
        let (si, so) = (b.scan_in(), b.scan_out());
        let a = b.add_segment("a", Segment::new(1));
        let c = b.add_segment("c", Segment::new(1));
        b.connect(si, a).unwrap();
        b.connect(a, c).unwrap();
        b.connect(c, so).unwrap();
        let ia = b.add_instrument("ia", a, rsn_model::InstrumentKind::Generic).unwrap();
        let ic = b.add_instrument("ic", c, rsn_model::InstrumentKind::Generic).unwrap();
        let net = b.finish().unwrap();
        let mut spec = CriticalitySpec::new(&net);
        spec.set_weights(ia, huge, huge);
        spec.set_weights(ic, huge, huge);
        let crit = analyze_graph(&net, &spec, &AnalysisOptions::default());
        for s in net.segments() {
            assert_eq!(crit.damage(s), u64::MAX, "per-mode damage clamps at the ceiling");
        }
        assert_eq!(crit.total_damage(), u64::MAX, "the vector total clamps too");
    }

    #[test]
    fn hardening_reduces_sampled_double_fault_damage() {
        use crate::cost::CostModel;
        use crate::criticality::analyze;
        use crate::hardening::{solve_greedy, HardeningProblem};
        let s = rsn_benchmarks_free_tree();
        let (net, built) = s.build("t").unwrap();
        let tree = tree_from_structure(&net, &built);
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 5);
        let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
        let problem = HardeningProblem::new(&net, &crit, &CostModel::default());
        let front = solve_greedy(&problem);
        let chosen = front
            .min_cost_with_damage_at_most(problem.total_damage() / 10)
            .expect("greedy reaches 10%");
        let before = sampled_double_fault_damage(&net, &spec, &[], SibCellPolicy::Combined, 60, 9)
            .expect("within combination bound");
        let after = sampled_double_fault_damage(
            &net,
            &spec,
            &chosen.hardened,
            SibCellPolicy::Combined,
            60,
            9,
        )
        .expect("within combination bound");
        assert!(
            after < before * 0.6,
            "single-fault hardening should help under double faults: {after} vs {before}"
        );
    }

    /// A small SIB tree without depending on the benchmarks crate.
    fn rsn_benchmarks_free_tree() -> Structure {
        Structure::series(
            (0..6)
                .map(|i| {
                    Structure::sib(
                        format!("s{i}"),
                        Structure::instrument_seg(format!("d{i}"), 3, InstrumentKind::Bist),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn cancellable_sweep_matches_infallible_with_a_quiet_token() {
        let s = rsn_benchmarks_free_tree();
        let (net, _) = s.build("t").unwrap();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 7);
        let options = AnalysisOptions::default();
        let expected = analyze_graph_with(&net, &spec, &options, Parallelism::sequential());
        for threads in [1, 4] {
            for token in [CancelToken::none(), CancelToken::new()] {
                let got = analyze_graph_with_cancel(
                    &net,
                    &spec,
                    &options,
                    Parallelism::new(threads),
                    &token,
                )
                .expect("quiet token never cancels");
                assert_eq!(got, expected, "threads={threads}");
            }
        }
    }

    #[test]
    fn pre_cancelled_token_stops_the_sweep() {
        let s = rsn_benchmarks_free_tree();
        let (net, _) = s.build("t").unwrap();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 7);
        let options = AnalysisOptions::default();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let got =
                analyze_graph_with_cancel(&net, &spec, &options, Parallelism::new(threads), &token);
            assert_eq!(got, Err(AnalysisError::Cancelled), "threads={threads}");
        }
    }

    #[test]
    fn cancelled_fault_set_evaluation_errors() {
        let s = rsn_benchmarks_free_tree();
        let (net, _) = s.build("t").unwrap();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 7);
        let faults = rsn_model::enumerate_single_faults(&net);
        let token = CancelToken::new();
        token.cancel();
        let got = fault_set_damage_with_cancel(
            &net,
            &spec,
            &faults[..1],
            SibCellPolicy::Combined,
            Parallelism::sequential(),
            &token,
        );
        assert_eq!(got, Err(AnalysisError::Cancelled));
        let quiet = fault_set_damage_with_cancel(
            &net,
            &spec,
            &faults[..1],
            SibCellPolicy::Combined,
            Parallelism::sequential(),
            &CancelToken::none(),
        );
        assert_eq!(
            quiet,
            fault_set_damage(&net, &spec, &faults[..1], SibCellPolicy::Combined),
            "quiet token must not change the result"
        );
    }

    /// The traced lane decode must reproduce the `Vec<bool>` reference maps
    /// exactly: damage split, importance flag, lost-segment records *and*
    /// footprint membership, on SP and non-SP graphs alike.
    #[test]
    fn batched_traces_match_the_scalar_traced_reference() {
        let sp = rsn_benchmarks_free_tree().build("sp").unwrap().0;
        let (bridge_net, _) = bridge();
        for net in [&sp, &bridge_net] {
            let spec = CriticalitySpec::paper_random(net, &PaperSpecParams::default(), 23);
            for policy in [SibCellPolicy::SegmentOnly, SibCellPolicy::Combined] {
                let kernel = ReachKernel::new(net, &spec);
                let table = ModeTable::single_faults(net, policy);
                let got = sweep_blocks(
                    &kernel,
                    Parallelism::sequential(),
                    &CancelToken::none(),
                    table.len(),
                    |s, m| {
                        let (broken, frozen) = table.mode(m);
                        kernel.push_mode(s, broken, frozen);
                    },
                    |s| kernel.eval_traced(s, true),
                )
                .unwrap();
                for (m, (trace, footprint)) in got.iter().enumerate() {
                    let (broken, frozen) = table.mode(m);
                    let usable = reference::usable_edges(net, frozen);
                    let is_broken = |n: NodeId| broken.contains(&n);
                    let (si, so) = (net.scan_in(), net.scan_out());
                    let fwd_any = reference::reach(net, si, false, &usable, |_| false);
                    let fwd_clean = reference::reach(net, si, false, &usable, is_broken);
                    let bwd_any = reference::reach(net, so, true, &usable, |_| false);
                    let bwd_clean = reference::reach(net, so, true, &usable, is_broken);
                    let mut want = ModeTrace::default();
                    for (i, inst) in net.instruments() {
                        let t = inst.segment().index();
                        let lost_obs =
                            broken.contains(&inst.segment()) || !(fwd_any[t] && bwd_clean[t]);
                        let lost_set =
                            broken.contains(&inst.segment()) || !(fwd_clean[t] && bwd_any[t]);
                        if lost_obs {
                            want.obs_damage += spec.obs_weight(i);
                            want.affects_important |= spec.is_important_obs(i);
                        }
                        if lost_set {
                            want.set_damage += spec.set_weight(i);
                            want.affects_important |= spec.is_important_set(i);
                        }
                        if (lost_obs || lost_set) && kernel.is_live_segment(t) {
                            want.lost.push(LostSegment { segment: t as u32, lost_obs, lost_set });
                        }
                    }
                    want.lost.sort_by_key(|r| r.segment);
                    want.lost.dedup();
                    assert_eq!(trace, &want, "mode {broken:?} {frozen:?}");
                    for node in 0..net.node_count() {
                        assert_eq!(
                            kernel.footprint_contains(footprint, node),
                            fwd_any[node] || bwd_any[node],
                            "footprint node {node} of mode {broken:?} {frozen:?}"
                        );
                    }
                }
            }
        }
    }
}
