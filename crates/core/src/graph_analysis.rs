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
//! incremental [`Workspace`](crate::Workspace), fault sets, exact double
//! faults, and the analytical side of the validation campaign
//! — runs on one engine: the mode-major lane kernel in [`batch`], which
//! packs [`batch::LANES`] fault modes into one lane-word per node and
//! relaxes them all in one forward/backward pass over the topologically
//! ordered adjacency held by [`ReachKernel`]. The passes are
//! difference-driven: the reach maps rest at the fault-free baseline, and a
//! block re-derives only the nodes its faults change. A single private
//! block driver evaluates the modes that break an articulation node (a node
//! on every fault-free scan path, whose faults change everything) first, in
//! their own blocks, wherever that leaves fewer blocks holding one, so the
//! other blocks stay local; workers claim blocks from [`par`] with one
//! cancel checkpoint per block, and every result lands at its mode's index,
//! so it is bit-identical at every thread count. [`kernel_counters`]
//! reports what the sweeps did.
//!
//! The engine is checked against two oracles that share none of its code:
//! the straightforward `Vec<bool>` BFS in [`reference`](mod@reference), and
//! the exhaustive configuration enumeration in [`crate::accessibility`].

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rsn_model::{ControlSource, Fault, FaultKind, NodeId, NodeKind, ScanNetwork};

use crate::bitset::BitSet;
use crate::cancel::{CancelToken, Cancelled};
use crate::criticality::{AnalysisOptions, ModeAggregation, SibCellPolicy};
use crate::par::{self, Parallelism, ShardPanic};
use crate::plan::{AnalysisPlan, ModeTable};
use crate::shard::ModeDamage;
use crate::spec::CriticalitySpec;

pub mod batch;

use batch::{BlockScratch, LANES};

/// Hard bound on the frozen-select combinations a single fault-set
/// evaluation may enumerate; beyond it [`fault_set_damage`] returns
/// [`AnalysisError::TooManyFrozenCombinations`] instead of running an
/// effectively unbounded sweep.
pub const MAX_FROZEN_COMBINATIONS: usize = 4096;

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

/// The network-only half of the lane engine's image: the compressed
/// adjacency in topological order — incoming edges in select-port order and
/// an edge-indexed successor list — the fault-free reach sets, the
/// articulation nodes, the multiplexers and the live instrument segments.
/// It depends on the network alone, so an [`AnalysisPlan`] builds it once
/// and every [`ReachKernel`] over that network shares it through an
/// [`Arc`].
#[derive(Debug)]
pub(crate) struct KernelGraph {
    node_count: usize,
    /// Topological position of scan-in.
    scan_in: u32,
    /// Topological position of scan-out.
    scan_out: u32,
    /// Node index per topological position (scan-in side first). The
    /// traversal arrays below are all indexed by position, so a pass walks
    /// its pending positions without translating node ids.
    topo: Vec<u32>,
    /// Topological position per node index: `topo[pos[v]] == v`.
    pos: Vec<u32>,
    /// Cumulative incoming-edge offsets per position: the incoming edges of
    /// position `p` occupy `pred_off[p]..pred_off[p + 1]` in edge-indexed
    /// arrays, in select-port order.
    pred_off: Vec<u32>,
    /// Edge source positions in incoming-edge order: `preds[pred_off[p] + i]`
    /// feeds port `i` of the mux at `p` (a validated mux's predecessors are
    /// its inputs).
    preds: Vec<u32>,
    /// Cumulative outgoing-edge offsets per position into `succ`.
    succ_off: Vec<u32>,
    /// Outgoing edges `(target position, incoming-edge index at the
    /// target)`, so the backward pass pulls over successors with the
    /// target's `allow` word.
    succ: Vec<(u32, u32)>,
    /// Positions the fault-free network reaches from scan-in (the `fwd_*`
    /// lane words between blocks).
    base_fwd: BitSet,
    /// Positions that reach scan-out fault-free (the `bwd_*` lane words
    /// between blocks).
    base_bwd: BitSet,
    /// Nodes every fault-free scan-in → scan-out path passes through:
    /// breaking one changes every node downstream forward and upstream
    /// backward, so the sweep packs such modes into their own blocks.
    articulation: BitSet,
    /// The multiplexers.
    is_mux: BitSet,
    /// Segments hosting at least one instrument that is reachable both ways
    /// fault-free ("live"). The decode walks this mask word-parallel.
    live: BitSet,
}

impl KernelGraph {
    /// Flattens the adjacency and the mux input tables, orders the nodes
    /// topologically, and computes the fault-free baseline reach, the
    /// articulation nodes and the live segments.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::NetworkTooLarge`] when the node count or the total
    /// number of mux input ports exceeds the `u32` kernel index space.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle (validated scan networks never do).
    pub(crate) fn try_new(net: &ScanNetwork) -> Result<Self, AnalysisError> {
        let node_count = net.node_count();
        let ports: u128 =
            net.muxes().map(|m| net.node(m).kind.as_mux().expect("mux").inputs.len() as u128).sum();
        ReachKernel::check_capacity(node_count, ports)?;
        // Kahn's algorithm: the lane passes relax in this order.
        let mut indeg: Vec<u32> =
            (0..node_count).map(|v| net.predecessors(NodeId::new(v)).len() as u32).collect();
        let mut topo = Vec::with_capacity(node_count);
        let mut ready: Vec<u32> =
            (0..node_count as u32).filter(|&v| indeg[v as usize] == 0).collect();
        while let Some(v) = ready.pop() {
            topo.push(v);
            for w in net.successors(NodeId::new(v as usize)) {
                indeg[w.index()] -= 1;
                if indeg[w.index()] == 0 {
                    ready.push(w.index() as u32);
                }
            }
        }
        assert!(topo.len() == node_count, "scan network graph must be acyclic");
        drop(indeg);
        let mut pos = vec![0u32; node_count];
        for (p, &v) in topo.iter().enumerate() {
            pos[v as usize] = p as u32;
        }
        let scan_in = pos[net.scan_in().index()];
        let scan_out = pos[net.scan_out().index()];

        // Predecessor positions in select-port order (a mux's are its
        // inputs), then the successor edges with their incoming-edge index
        // (parallel edges stay distinct), bucketed by source position.
        let mut pred_off = Vec::with_capacity(node_count + 1);
        let mut preds = Vec::new();
        pred_off.push(0);
        for &v in &topo {
            let sources = net.predecessors(NodeId::new(v as usize));
            preds.extend(sources.iter().map(|u| pos[u.index()]));
            pred_off.push(preds.len() as u32);
        }
        let mut succ_off = vec![0u32; node_count + 1];
        for &u in &preds {
            succ_off[u as usize + 1] += 1;
        }
        for p in 0..node_count {
            succ_off[p + 1] += succ_off[p];
        }
        let mut fill = succ_off.clone();
        let mut succ = vec![(0, 0); preds.len()];
        for p in 0..node_count {
            for e in pred_off[p]..pred_off[p + 1] {
                let u = preds[e as usize] as usize;
                succ[fill[u] as usize] = (p as u32, e);
                fill[u] += 1;
            }
        }
        drop(fill);
        let predecessors = |p: usize| &preds[pred_off[p] as usize..pred_off[p + 1] as usize];

        // Fault-free reach: one relaxation each way in topological order.
        let mut base_fwd = BitSet::new(node_count);
        for p in 0..node_count {
            if p == scan_in as usize
                || predecessors(p).iter().any(|&u| base_fwd.contains(u as usize))
            {
                base_fwd.insert(p);
            }
        }
        let mut base_bwd = BitSet::new(node_count);
        for p in (0..node_count).rev() {
            let out = &succ[succ_off[p] as usize..succ_off[p + 1] as usize];
            if p == scan_out as usize || out.iter().any(|&(w, _)| base_bwd.contains(w as usize)) {
                base_bwd.insert(p);
            }
        }

        // A node on some fault-free scan path is on every one iff no edge
        // between two such nodes jumps over its topological position: count
        // the jumps covering each position with a difference array.
        let useful = |p: usize| base_fwd.contains(p) && base_bwd.contains(p);
        let mut jumps = vec![0i32; node_count + 1];
        for p in (0..node_count).filter(|&p| useful(p)) {
            for &u in predecessors(p) {
                let u = u as usize;
                if useful(u) && u + 1 < p {
                    jumps[u + 1] += 1;
                    jumps[p] -= 1;
                }
            }
        }
        let mut articulation = BitSet::new(node_count);
        let mut covered = 0;
        for (p, &v) in topo.iter().enumerate() {
            covered += jumps[p];
            if covered == 0 && useful(p) {
                articulation.insert(v as usize);
            }
        }
        drop(jumps);

        let mut is_mux = BitSet::new(node_count);
        for m in net.muxes() {
            is_mux.insert(m.index());
        }
        let mut live = BitSet::new(node_count);
        for (_, inst) in net.instruments() {
            let t = inst.segment().index();
            if base_fwd.contains(pos[t] as usize) && base_bwd.contains(pos[t] as usize) {
                live.insert(t);
            }
        }
        Ok(Self {
            node_count,
            scan_in,
            scan_out,
            topo,
            pos,
            pred_off,
            preds,
            succ_off,
            succ,
            base_fwd,
            base_bwd,
            articulation,
            is_mux,
            live,
        })
    }

    /// The incoming-edge source positions of position `p`, in select-port
    /// order.
    fn predecessors(&self, p: usize) -> &[u32] {
        &self.preds[self.pred_off[p] as usize..self.pred_off[p + 1] as usize]
    }

    /// The outgoing edges of position `p`: `(target position, incoming-edge
    /// index at the target)`.
    fn successors(&self, p: usize) -> &[(u32, u32)] {
        &self.succ[self.succ_off[p] as usize..self.succ_off[p + 1] as usize]
    }

    /// `true` when every fault-free scan-in → scan-out path passes through
    /// node `v`.
    fn is_articulation(&self, v: NodeId) -> bool {
        self.articulation.contains(v.index())
    }

    /// `true` when a mode with these `broken` nodes breaks an articulation
    /// node.
    fn breaks_chain(&self, broken: &[NodeId]) -> bool {
        broken.iter().any(|&b| self.is_articulation(b))
    }
}

/// The lane engine's image of one `(network, spec)` pair: the network's
/// graph half — the compressed adjacency in topological order, the
/// fault-free reach sets and articulation nodes, shared by every kernel of
/// one [`AnalysisPlan`] — plus the flattened instrument probes of the spec
/// over the segments the fault-free network reaches both ways.
///
/// Build it from an [`AnalysisPlan`] with [`AnalysisPlan::kernel`] (which
/// shares the plan's graph and only folds the spec), or standalone with
/// [`ReachKernel::new`]; hand each worker a [`BlockScratch`] from
/// [`ReachKernel::block_scratch`], and evaluate lane blocks with
/// [`ReachKernel::push_mode`] / [`ReachKernel::eval_damages`]. The kernel
/// borrows nothing from the network and is [`Sync`]; all per-mode mutation
/// lives in the scratch. (Weight edits re-run the private weight fold, the
/// workspace delta path.)
#[derive(Debug)]
pub struct ReachKernel {
    graph: Arc<KernelGraph>,
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
    /// Builds the kernel standalone: the network's graph half plus the
    /// spec's probes. The network is only borrowed during construction.
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
    /// ports fit the kernel's `u32` index space: node positions and edge
    /// offsets are `u32`, and each offset table ends at its count.
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
        Ok(Self::with_graph(Arc::new(KernelGraph::try_new(net)?), net, spec))
    }

    /// The kernel over a prebuilt `graph` of `net`: only the spec's probes
    /// are computed.
    pub(crate) fn with_graph(
        graph: Arc<KernelGraph>,
        net: &ScanNetwork,
        spec: &CriticalitySpec,
    ) -> Self {
        let node_count = graph.node_count;
        let mut dead_important = false;
        let mut important_obs = BitSet::new(node_count);
        let mut important_set = BitSet::new(node_count);
        for (i, inst) in net.instruments() {
            let t = inst.segment().index();
            if graph.live.contains(t) {
                if spec.is_important_obs(i) {
                    important_obs.insert(t);
                }
                if spec.is_important_set(i) {
                    important_set.insert(t);
                }
            } else {
                // Every per-mode map is a subset of the baseline, so the
                // instrument fails both directions in every mode.
                dead_important |= spec.is_important_obs(i) || spec.is_important_set(i);
            }
        }
        let mut kernel = Self {
            graph,
            live_obs_w: vec![0; node_count],
            live_set_w: vec![0; node_count],
            dead_obs: 0,
            dead_set: 0,
            dead_important,
            important_obs,
            important_set,
        };
        kernel.fold_weights(net, spec);
        kernel
    }

    /// Whether both kernels read one shared graph (a plan's kernels do).
    #[cfg(test)]
    pub(crate) fn shares_graph_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.graph, &other.graph)
    }

    /// `true` when segment node `t` hosts an instrument and is reachable from
    /// scan-in and scan-out in the fault-free network (the precomputed `live`
    /// set the decode walks).
    pub(crate) fn is_live_segment(&self, t: usize) -> bool {
        self.graph.live.contains(t)
    }

    /// `true` when every fault-free scan-in → scan-out path passes through
    /// node `v`.
    #[cfg(test)]
    fn is_articulation(&self, v: NodeId) -> bool {
        self.graph.is_articulation(v)
    }

    /// `true` when a mode with these `broken` nodes breaks an articulation
    /// node.
    fn breaks_chain(&self, broken: &[NodeId]) -> bool {
        self.graph.breaks_chain(broken)
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

    /// Folds the instrument weights of `spec` into the flattened probes:
    /// per live segment the sum of its instruments' weights, and the dead
    /// constants over the fault-free unreachable instruments. Every fold
    /// saturates: several instruments on one segment (or many dead ones) may
    /// sum past `u64::MAX`, and damage is a monotone ceiling past that point
    /// (§ overflow note on `criticality::Criticality::total_damage`).
    /// Liveness and importance are weight-independent, so a weight edit
    /// re-runs only this fold.
    pub(crate) fn fold_weights(&mut self, net: &ScanNetwork, spec: &CriticalitySpec) {
        self.live_obs_w.fill(0);
        self.live_set_w.fill(0);
        self.dead_obs = 0;
        self.dead_set = 0;
        for (i, inst) in net.instruments() {
            let t = inst.segment().index();
            let (obs, set) = if self.graph.live.contains(t) {
                (&mut self.live_obs_w[t], &mut self.live_set_w[t])
            } else {
                (&mut self.dead_obs, &mut self.dead_set)
            };
            *obs = obs.saturating_add(spec.obs_weight(i));
            *set = set.saturating_add(spec.set_weight(i));
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

/// Process-wide totals of the lane kernel's work since start-up, bumped once
/// per lane block by every graph-exact sweep (never per node). Read with
/// [`kernel_counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Fault modes evaluated.
    pub modes: u64,
    /// Lane blocks evaluated.
    pub blocks: u64,
    /// Lane blocks holding a mode that breaks an articulation node.
    pub articulation_blocks: u64,
    /// Node words re-derived by the sparse passes (each pass counts a node
    /// once).
    pub nodes_relaxed: u64,
}

static MODES_SWEPT: AtomicU64 = AtomicU64::new(0);
static BLOCKS_SWEPT: AtomicU64 = AtomicU64::new(0);
static ARTICULATION_BLOCKS: AtomicU64 = AtomicU64::new(0);
static NODES_RELAXED: AtomicU64 = AtomicU64::new(0);

/// The kernel's process-wide work counters.
#[must_use]
pub fn kernel_counters() -> KernelCounters {
    KernelCounters {
        modes: MODES_SWEPT.load(Ordering::Relaxed),
        blocks: BLOCKS_SWEPT.load(Ordering::Relaxed),
        articulation_blocks: ARTICULATION_BLOCKS.load(Ordering::Relaxed),
        nodes_relaxed: NODES_RELAXED.load(Ordering::Relaxed),
    }
}

/// The articulation-first evaluation order of the modes `range` of
/// `table` — the modes that break an articulation node, then the rest, each
/// ascending — and the count of the former. `None` keeps table order. A
/// block holding such a mode re-derives everything downstream and upstream
/// of the broken node (a *dense* block), so packing pays only when it
/// leaves fewer dense blocks than table order has, counting the block the
/// split can add. It does not when the range
/// holds no such mode, only such modes or one block's worth, nor when a
/// few such modes already sit in a few blocks (the small Table I designs:
/// eight to ten such modes in two blocks).
fn articulation_first(
    kernel: &ReachKernel,
    table: &ModeTable,
    range: Range<usize>,
) -> Option<(Vec<u32>, usize)> {
    let block = |m: usize| (m - range.start) / LANES;
    let mut order = Vec::new();
    // Table-order blocks holding a chain-breaking mode.
    let mut dense = 0;
    for m in range.clone() {
        if kernel.breaks_chain(table.mode(m).0) {
            dense += usize::from(order.last().is_none_or(|&c| block(c as usize) != block(m)));
            order.push(m as u32);
        }
    }
    let (chain, len) = (order.len(), range.len());
    let added = chain.div_ceil(LANES) + (len - chain).div_ceil(LANES) - len.div_ceil(LANES);
    if chain.div_ceil(LANES) + added >= dense {
        return None;
    }
    order.reserve_exact(len - chain);
    let mut next = 0;
    for m in range.map(|m| m as u32) {
        if next < chain && order[next] == m {
            next += 1;
        } else {
            order.push(m);
        }
    }
    Some((order, chain))
}

/// The lane-block driver behind every graph-exact sweep: evaluates the
/// modes `range` of `table`, each jointly with the `ambient` broken set, in
/// blocks of [`LANES`] lanes claimed over [`par`] with one cancel checkpoint
/// per block, and returns the `decode`d per-lane values in mode order.
///
/// Where it leaves fewer dense blocks ([`articulation_first`]), the modes
/// that break an articulation node come first, packed into their own
/// blocks, so the other blocks stay local to their faults, and the two
/// runs are merged back into mode order; otherwise blocks are contiguous
/// table ranges. Lanes are independent, so the result is identical at
/// every thread count and to the matching slice of a wider range.
pub(crate) fn sweep_blocks<T: Send>(
    kernel: &ReachKernel,
    table: &ModeTable,
    range: Range<usize>,
    ambient: &[NodeId],
    parallelism: Parallelism,
    cancel: &CancelToken,
    decode: fn(&ReachKernel, &mut BlockScratch) -> Vec<T>,
) -> Result<Vec<T>, AnalysisError> {
    let (order, chain) = articulation_first(kernel, table, range.clone()).unwrap_or_default();
    let len = range.len();
    let chain_blocks = chain.div_ceil(LANES);
    // Block `b`'s positions in the evaluation order, and the mode at a
    // position (table order when `order` is empty).
    let span = |b: usize| {
        let (lo, end) = if b < chain_blocks {
            (b * LANES, chain)
        } else {
            (chain + (b - chain_blocks) * LANES, len)
        };
        lo..end.min(lo + LANES)
    };
    let mode_at = |i: usize| order.get(i).map_or(range.start + i, |&m| m as usize);
    let blocks = chain_blocks + (len - chain).div_ceil(LANES);
    let mut values: Vec<Vec<T>> = par::try_map_indexed_scratch(
        parallelism,
        blocks,
        || (kernel.block_scratch(), cancel.checkpoint(4)),
        |(s, cp), b| -> Result<Vec<T>, AnalysisError> {
            cp.tick()?;
            s.clear();
            let mut breaks_chain = false;
            for i in span(b) {
                let (broken, frozen) = table.mode(mode_at(i));
                breaks_chain |= kernel.breaks_chain(broken);
                kernel.push_mode(s, broken.iter().chain(ambient), frozen);
            }
            let values = decode(kernel, s);
            MODES_SWEPT.fetch_add(values.len() as u64, Ordering::Relaxed);
            BLOCKS_SWEPT.fetch_add(1, Ordering::Relaxed);
            ARTICULATION_BLOCKS.fetch_add(u64::from(breaks_chain), Ordering::Relaxed);
            NODES_RELAXED.fetch_add(s.relaxed(), Ordering::Relaxed);
            Ok(values)
        },
    )?;
    if order.is_empty() {
        return Ok(values.into_iter().flatten().collect());
    }
    // `order[..chain]` lists the packed modes ascending: merge the packed
    // run and the rest back into mode order.
    let mut rest = values.split_off(chain_blocks).into_iter().flatten();
    let mut packed = values.into_iter().flatten();
    let mut next = order[..chain].iter().peekable();
    Ok(range
        .map(|m| {
            let value =
                if next.next_if_eq(&&(m as u32)).is_some() { packed.next() } else { rest.next() };
            value.expect("every mode is in one block")
        })
        .collect())
}

/// Untraced [`sweep_blocks`] over the modes `range` of `table`.
pub(crate) fn sweep_table(
    kernel: &ReachKernel,
    table: &ModeTable,
    range: Range<usize>,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<Vec<ModeDamage>, AnalysisError> {
    sweep_blocks(kernel, table, range, &[], parallelism, cancel, ReachKernel::eval_damages)
}

/// Computes the damage vector for every scan primitive of `net` directly on
/// the graph. Exact for any validated RSN DAG, including non-SP topologies
/// the decomposition-tree analysis cannot express.
///
/// The sweep evaluates `plan`'s canonical mode table (the same table the
/// mode-range shards of [`crate::shard`] partition) in lane blocks sharded
/// across `parallelism`, and folds each primitive's mode damages with
/// `mode`, so the damage vector is identical at every thread count and to
/// a merged shard sweep.
///
/// The token is polled at a checkpoint **per mode block** inside the sharded
/// sweep, so a fired token interrupts a running sweep within a bounded
/// number of relaxation passes; a cancelled run discards partial results.
/// Pass [`CancelToken::none`] for a sweep that cannot be cancelled.
///
/// # Errors
///
/// [`AnalysisError::Cancelled`] when `cancel` fires mid-sweep;
/// [`AnalysisError::WorkerPanicked`] when a shard panics (caught at the
/// shard boundary); [`AnalysisError::NetworkTooLarge`] when the network
/// exceeds the kernel's index space.
///
/// # Panics
///
/// Panics when `net` is not the plan's network.
pub fn analyze_graph(
    plan: &AnalysisPlan,
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    mode: ModeAggregation,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<GraphCriticality, AnalysisError> {
    cancel.check()?;
    let kernel = plan.kernel(net, spec)?;
    let table = plan.table();
    let damages = sweep_table(&kernel, table, 0..table.len(), parallelism, cancel)?;
    let mut damage = vec![0; net.node_count()];
    let mut totals = Vec::new();
    for (&j, modes) in plan.primitives().iter().zip(table.groups()) {
        totals.clear();
        totals.extend(damages[modes].iter().map(ModeDamage::total));
        damage[j.index()] = aggregate_mode_damages(mode, &totals);
    }
    Ok(GraphCriticality { damage, primitives: plan.primitives().to_vec() })
}

/// [`analyze_graph`] over a throw-away plan, without cancellation,
/// resurfacing shard panics (and the too-large capacity check) as panics.
/// Kept only for the benchmark runner, which pins this name; every other
/// caller uses [`analyze_graph`].
#[doc(hidden)]
#[must_use]
pub fn analyze_graph_with(
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
    parallelism: Parallelism,
) -> GraphCriticality {
    let plan = AnalysisPlan::new(net, options.sib_policy);
    match analyze_graph(&plan, net, spec, options.mode, parallelism, &CancelToken::none()) {
        Ok(result) => result,
        Err(AnalysisError::WorkerPanicked { message }) => panic!("{message}"),
        Err(err @ AnalysisError::NetworkTooLarge { .. }) => panic!("{err}"),
        Err(err) => unreachable!("uncancellable batched sweep failed: {err}"),
    }
}

/// The multiplexers each control cell drives, under
/// [`SibCellPolicy::Combined`] (none under `SegmentOnly`), in `net.muxes()`
/// order per cell: one flat list with cumulative offsets per node, so a
/// network-sized plan holds one `u32` per node rather than one `Vec`.
#[derive(Debug, Default)]
pub(crate) struct ControlledMuxes {
    /// Cumulative end offsets into `muxes` per node index (empty when no
    /// cell controls a mux).
    ends: Vec<u32>,
    muxes: Vec<NodeId>,
}

impl ControlledMuxes {
    pub(crate) fn new(net: &ScanNetwork, policy: SibCellPolicy) -> Self {
        let mut by_cell: Vec<(NodeId, NodeId)> = Vec::new();
        if policy == SibCellPolicy::Combined {
            for m in net.muxes() {
                if let Some(ControlSource::Cell { segment, .. }) =
                    net.node(m).kind.as_mux().map(|x| x.control)
                {
                    by_cell.push((segment, m));
                }
            }
        }
        if by_cell.is_empty() {
            return Self::default();
        }
        // A stable sort keeps each cell's muxes in network order.
        by_cell.sort_by_key(|&(cell, _)| cell);
        let mut ends = vec![0u32; net.node_count()];
        for &(cell, _) in &by_cell {
            ends[cell.index()] += 1;
        }
        let mut total = 0;
        for end in &mut ends {
            total += *end;
            *end = total;
        }
        Self { ends, muxes: by_cell.into_iter().map(|(_, m)| m).collect() }
    }

    /// The multiplexers `cell` controls (empty for any other node).
    pub(crate) fn of(&self, cell: NodeId) -> &[NodeId] {
        let Some(&end) = self.ends.get(cell.index()) else { return &[] };
        let start = if cell.index() == 0 { 0 } else { self.ends[cell.index() - 1] };
        &self.muxes[start as usize..end as usize]
    }
}

/// A per-mode visitor: `(broken segments, frozen selects)`.
pub(crate) type ModeVisitor<'a> = dyn FnMut(&[NodeId], &[(NodeId, usize)]) + 'a;

/// Enumerates the single-fault modes of primitive `j` in the canonical
/// analysis order, calling `visit(broken, frozen)` once per mode: every stuck
/// port for a mux, the plain broken mode for an uncontrolled segment, and the
/// odometer over frozen-select combinations for a control cell with
/// [`SibCellPolicy::Combined`] (encoded by a non-empty `controlled.of(j)`).
///
/// The validation campaign replays exactly this enumeration, so any
/// simulation/analysis diff is attributable to a specific shared mode index.
pub(crate) fn for_each_mode(
    net: &ScanNetwork,
    controlled: &ControlledMuxes,
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
            for_each_combination(net, &[j], &[], controlled.of(j), &mut Vec::new(), visit);
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
    controlled: &ControlledMuxes,
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
        for &m in controlled.of(*b) {
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
    controlled: &ControlledMuxes,
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
/// Each frozen-select combination is one lane of the batch kernel, and the
/// worst case over a fixed combination set is order-independent, so the
/// result is identical for every thread count. The token is polled per lane
/// block, so a fired deadline interrupts even a near-limit enumeration
/// within a few kernel passes.
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] when the broken control
/// cells would freeze more select combinations than
/// [`MAX_FROZEN_COMBINATIONS`]; [`AnalysisError::Cancelled`] when `cancel`
/// fires; [`AnalysisError::WorkerPanicked`] when a shard panics.
pub fn fault_set_damage(
    plan: &AnalysisPlan,
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    faults: &[Fault],
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<u64, AnalysisError> {
    let kernel = plan.kernel(net, spec)?;
    Ok(fault_set_damages(&kernel, net, plan.controlled(), [faults], parallelism, cancel)?[0])
}

/// The single-fault pool of `net` minus faults on `hardened` primitives.
fn unhardened_faults(net: &ScanNetwork, hardened: &[NodeId]) -> Vec<Fault> {
    let hardened: std::collections::HashSet<NodeId> = hardened.iter().copied().collect();
    rsn_model::enumerate_single_faults(net)
        .into_iter()
        .filter(|f| !hardened.contains(&f.node))
        .collect()
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
/// unhardened primitives — a robustness check of a hardening solution
/// beyond the paper's single-fault model. Pair modes (including the
/// worst-case frozen-select combinations of broken control cells under
/// [`SibCellPolicy::Combined`]) are packed into mode-major lane blocks, so
/// the sweep costs at most two relaxation passes per [`batch::LANES`] modes
/// and stays tractable for Table I-class designs.
///
/// Pairs are enumerated in a canonical lexicographic order and their lanes
/// spliced back in order, so the summary is bit-identical at every thread
/// count. The token is polled once per lane block inside the sharded sweep.
///
/// # Errors
///
/// [`AnalysisError::TooManyFrozenCombinations`] when any pair exceeds the
/// frozen-select combination bound (the first failing pair in enumeration
/// order is reported); [`AnalysisError::Cancelled`] when `cancel` fires;
/// [`AnalysisError::WorkerPanicked`] when a shard panics.
pub fn double_fault_damage(
    plan: &AnalysisPlan,
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    hardened: &[NodeId],
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<DoubleFaultSummary, AnalysisError> {
    let damages = double_fault_pair_damages(plan, net, spec, hardened, parallelism, cancel)?;
    Ok(DoubleFaultSummary::from_damages(&damages))
}

/// Per-pair damages of the exact double-fault sweep, in canonical pair
/// order: pool index pairs `(i, j)` with `i < j`, lexicographic, over the
/// unhardened [`rsn_model::enumerate_single_faults`] pool. Exposed so tests
/// can check each pair against [`fault_set_damage`]; the stable API is
/// [`double_fault_damage`].
///
/// # Errors
///
/// As for [`double_fault_damage`].
#[doc(hidden)]
pub fn double_fault_pair_damages(
    plan: &AnalysisPlan,
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    hardened: &[NodeId],
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<Vec<u64>, AnalysisError> {
    let pool = unhardened_faults(net, hardened);
    let n = pool.len();
    if n < 2 {
        return Ok(Vec::new());
    }
    let kernel = plan.kernel(net, spec)?;
    let pool = &pool;
    let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| [pool[i], pool[j]]));
    fault_set_damages(&kernel, net, plan.controlled(), pairs, parallelism, cancel)
}

/// The straightforward `Vec<bool>` implementation, kept as the differential
/// oracle for the lane engine (property tests, the validation campaign's
/// per-mode cross-check) and the `reach_kernel` micro-benchmarks. Not part
/// of the supported API.
#[doc(hidden)]
pub mod reference {
    use super::{
        aggregate_mode_damages, for_each_mode, AnalysisOptions, ControlledMuxes, CriticalitySpec,
        GraphCriticality, NodeId, ScanNetwork,
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
        let controlled = ControlledMuxes::new(net, options.sib_policy);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criticality::analyze;
    use crate::spec::PaperSpecParams;
    use rsn_model::{ControlSource, InstrumentKind, NetworkBuilder, Segment, Structure};
    use rsn_sp::tree_from_structure;

    /// The uncancelled sequential sweep.
    fn graph(
        net: &ScanNetwork,
        spec: &CriticalitySpec,
        options: &AnalysisOptions,
    ) -> GraphCriticality {
        let plan = AnalysisPlan::new(net, options.sib_policy);
        let (par, none) = (Parallelism::sequential(), &CancelToken::none());
        analyze_graph(&plan, net, spec, options.mode, par, none).unwrap()
    }

    /// The uncancelled sequential fault-set evaluation.
    fn set_damage(
        net: &ScanNetwork,
        spec: &CriticalitySpec,
        faults: &[Fault],
        policy: SibCellPolicy,
    ) -> Result<u64, AnalysisError> {
        let plan = AnalysisPlan::new(net, policy);
        fault_set_damage(&plan, net, spec, faults, Parallelism::sequential(), &CancelToken::none())
    }

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
            let graph_crit = graph(&net, &spec, &options);
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
        let graph_crit = graph(&net, &spec, &options);
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
        let crit = graph(&net, &spec, &AnalysisOptions::default());
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
        let crit = graph(&net, &spec, &options);
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
            let fast = graph(&net, &spec, &options);
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
        let mut reused = kernel.block_scratch();
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

        // Articulation modes, local modes, then articulation modes again:
        // the sparse passes must leave the maps at the baseline after each
        // block, and a local block re-derives fewer nodes than a
        // chain-breaking one.
        let (net, _) = rsn_benchmarks::giant::ring_of_rings(6, 4, 3).build("rings").unwrap();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 5);
        let kernel = ReachKernel::new(&net, &spec);
        let plan = AnalysisPlan::new(&net, SibCellPolicy::Combined);
        let table = plan.table();
        let (chain, local): (Vec<usize>, Vec<usize>) = (0..table.len())
            .partition(|&m| table.mode(m).0.iter().any(|&b| kernel.is_articulation(b)));
        assert!(!chain.is_empty() && !local.is_empty() && local.len() <= LANES);
        let mut reused = kernel.block_scratch();
        let mut relaxed = Vec::new();
        for block in [&chain, &local, &chain] {
            reused.clear();
            for &m in block.iter() {
                let (broken, frozen) = table.mode(m);
                kernel.push_mode(&mut reused, broken, frozen);
            }
            let got = kernel.eval_damages(&mut reused);
            for (&m, damage) in block.iter().zip(&got) {
                let (broken, frozen) = table.mode(m);
                let want = reference::mode_damage(&net, &spec, broken, frozen);
                assert_eq!(damage.total(), want, "mode {m}: {broken:?} {frozen:?}");
            }
            relaxed.push(reused.relaxed());
        }
        assert_eq!(relaxed[0], relaxed[2], "the same block re-derives the same nodes");
        assert!(relaxed[1] < relaxed[0], "local block relaxed {relaxed:?}");
    }

    fn named(net: &ScanNetwork, name: &str) -> NodeId {
        net.nodes().find(|(_, n)| n.name.as_deref() == Some(name)).map(|(id, _)| id).unwrap()
    }

    #[test]
    fn articulation_flags_mark_the_nodes_every_scan_path_crosses() {
        let kernel = |net: &ScanNetwork| ReachKernel::new(net, &CriticalitySpec::new(net));
        // A series chain: every segment is on every path.
        let (chain, _) = Structure::series(
            ["x", "y", "z"]
                .map(|n| Structure::instrument_seg(n, 1, InstrumentKind::Debug))
                .to_vec(),
        )
        .build("chain")
        .unwrap();
        let k = kernel(&chain);
        assert!(chain.segments().all(|s| k.is_articulation(s)));

        // A SIB: its cell and mux yes, the segments it gates no.
        let (sib, _) = Structure::series(vec![
            Structure::instrument_seg("head", 1, InstrumentKind::Debug),
            Structure::sib(
                "s",
                Structure::series(vec![
                    Structure::instrument_seg("in0", 2, InstrumentKind::Bist),
                    Structure::instrument_seg("in1", 2, InstrumentKind::Bist),
                ]),
            ),
        ])
        .build("sib")
        .unwrap();
        let k = kernel(&sib);
        for (name, want) in [("head", true), ("s.cell", true), ("in0", false), ("in1", false)] {
            assert_eq!(k.is_articulation(named(&sib, name)), want, "{name}");
        }
        assert!(sib.muxes().all(|m| k.is_articulation(m)));

        // Rings: each ring's SIB cell and mux yes, its branch registers and
        // selection mux no.
        let (rings, _) = rsn_benchmarks::giant::ring_of_rings(3, 4, 9).build("rings").unwrap();
        let k = kernel(&rings);
        for r in 0..3 {
            assert!(k.is_articulation(named(&rings, &format!("r{r}.cell"))), "ring {r}");
            assert!(!k.is_articulation(named(&rings, &format!("r{r}.sel"))), "ring {r}");
            for w in 0..4 {
                let reg = named(&rings, &format!("r{r}.w{w}"));
                assert!(!k.is_articulation(reg), "ring {r} register {w}");
            }
        }

        // The bridge: only its final mux is on every path.
        let (net, nodes) = bridge();
        let k = kernel(&net);
        let [a, bb, c, m1, m2] = nodes[..] else { panic!("five nodes") };
        for n in [a, bb, c, m1] {
            assert!(!k.is_articulation(n), "{n}");
        }
        assert!(k.is_articulation(m2));
    }

    /// Articulation-first packing runs only where it leaves fewer dense
    /// blocks, and both orders return every range as the slice of a full
    /// sweep, at one and three threads.
    #[test]
    fn articulation_first_packs_only_where_it_saves_dense_blocks() {
        let options = AnalysisOptions::default();
        let spec_of =
            |net: &ScanNetwork| CriticalitySpec::paper_random(net, &PaperSpecParams::default(), 11);

        // q12710: eight to ten chain-breaking modes already share two
        // blocks, so packing would only add one.
        let q = rsn_benchmarks::by_name("q12710").unwrap();
        let net = q.generate().build("q12710").unwrap().0;
        let kernel = ReachKernel::new(&net, &spec_of(&net));
        let plan = AnalysisPlan::new(&net, options.sib_policy);
        assert!(articulation_first(&kernel, plan.table(), 0..plan.mode_count()).is_none());

        let net = rsn_benchmarks::giant::ring_of_rings(40, 3, 7).build("rings").unwrap().0;
        let spec = spec_of(&net);
        let kernel = ReachKernel::new(&net, &spec);
        let plan = AnalysisPlan::new(&net, options.sib_policy);
        let table = plan.table();
        let n = table.len();
        let (order, chain) = articulation_first(&kernel, table, 0..n).expect("packed");
        let breaks = |m: u32| kernel.breaks_chain(table.mode(m as usize).0);
        assert!(chain > 0 && chain < n && order.len() == n);
        assert!(order[..chain].iter().all(|&m| breaks(m)));
        assert!(order[chain..].iter().all(|&m| !breaks(m)));
        assert!(order[..chain].is_sorted() && order[chain..].is_sorted());
        assert!(articulation_first(&kernel, table, 0..LANES).is_none(), "one block");

        let sweep = |range: Range<usize>, threads| {
            let par = Parallelism::new(threads);
            sweep_table(&kernel, table, range, par, &CancelToken::none()).unwrap()
        };
        let full = sweep(0..n, 1);
        for (m, damage) in full.iter().enumerate() {
            let (broken, frozen) = table.mode(m);
            assert_eq!(damage.total(), reference::mode_damage(&net, &spec, broken, frozen));
        }
        let mut packed = [0; 2];
        for lo in (0..n).step_by(13) {
            for hi in (lo..=n).step_by(17) {
                packed[usize::from(articulation_first(&kernel, table, lo..hi).is_some())] += 1;
                for threads in [1, 3] {
                    assert_eq!(sweep(lo..hi, threads), full[lo..hi], "{lo}..{hi} ({threads})");
                }
            }
        }
        assert!(packed[0] > 0 && packed[1] > 0, "both orders covered: {packed:?}");
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
        let crit = graph(&net, &spec, &AnalysisOptions::default());
        // Per-primitive worst-mode damage equals the max of its singleton
        // fault-set damages: a broken SIB cell's combined semantics already
        // take the worst frozen select, and stuck modes of the same mux are
        // separate singletons.
        for j in net.primitives() {
            let worst = enumerate_single_faults(&net)
                .into_iter()
                .filter(|f| f.node == j)
                .map(|f| set_damage(&net, &spec, &[f], SibCellPolicy::Combined).unwrap())
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
            set_damage(&net, &spec, &[Fault::broken_segment(x)], SibCellPolicy::Combined).unwrap();
        let pair = set_damage(
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
        let err = set_damage(&net, &spec, &[Fault::broken_segment(cell)], SibCellPolicy::Combined)
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
        assert!(set_damage(
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
            let got = fault_set_damage(
                &AnalysisPlan::new(&net, SibCellPolicy::Combined),
                &net,
                &spec,
                &[Fault::broken_segment(cell)],
                Parallelism::new(threads),
                &CancelToken::none(),
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
        let crit = graph(&net, &spec, &AnalysisOptions::default());
        for s in net.segments() {
            assert_eq!(crit.damage(s), u64::MAX, "per-mode damage clamps at the ceiling");
        }
        assert_eq!(crit.total_damage(), u64::MAX, "the vector total clamps too");
    }

    #[test]
    fn hardening_reduces_double_fault_damage() {
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
        let plan = AnalysisPlan::new(&net, SibCellPolicy::Combined);
        let sweep = |hardened: &[NodeId]| {
            double_fault_damage(
                &plan,
                &net,
                &spec,
                hardened,
                Parallelism::sequential(),
                &CancelToken::none(),
            )
            .expect("within combination bound")
        };
        let (before, after) = (sweep(&[]), sweep(&chosen.hardened));
        assert!(after.pairs < before.pairs, "hardened faults leave the pair pool");
        assert!(
            after.mean < before.mean * 0.6,
            "single-fault hardening should help under double faults: {after:?} vs {before:?}"
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
        let expected = reference::analyze_graph_ref(&net, &spec, &options);
        let plan = AnalysisPlan::new(&net, options.sib_policy);
        for threads in [1, 4] {
            for token in [CancelToken::none(), CancelToken::new()] {
                let par = Parallelism::new(threads);
                let got = analyze_graph(&plan, &net, &spec, options.mode, par, &token)
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
        let plan = AnalysisPlan::new(&net, options.sib_policy);
        for threads in [1, 4] {
            let par = Parallelism::new(threads);
            let got = analyze_graph(&plan, &net, &spec, options.mode, par, &token);
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
        let plan = AnalysisPlan::new(&net, SibCellPolicy::Combined);
        let seq = Parallelism::sequential();
        let got = fault_set_damage(&plan, &net, &spec, &faults[..1], seq, &token);
        assert_eq!(got, Err(AnalysisError::Cancelled));
        let quiet = fault_set_damage(&plan, &net, &spec, &faults[..1], seq, &CancelToken::new());
        assert_eq!(
            quiet,
            set_damage(&net, &spec, &faults[..1], SibCellPolicy::Combined),
            "quiet token must not change the result"
        );
    }

    /// The traced lane decode must reproduce the `Vec<bool>` reference maps
    /// exactly: damage split, importance flag and lost-segment records, on SP
    /// and non-SP graphs alike.
    #[test]
    fn batched_traces_match_the_scalar_traced_reference() {
        let sp = rsn_benchmarks_free_tree().build("sp").unwrap().0;
        let (bridge_net, _) = bridge();
        for net in [&sp, &bridge_net] {
            let spec = CriticalitySpec::paper_random(net, &PaperSpecParams::default(), 23);
            for policy in [SibCellPolicy::SegmentOnly, SibCellPolicy::Combined] {
                let plan = AnalysisPlan::new(net, policy);
                let kernel = plan.kernel(net, &spec).unwrap();
                let table = plan.table();
                let got = sweep_blocks(
                    &kernel,
                    table,
                    0..table.len(),
                    &[],
                    Parallelism::sequential(),
                    &CancelToken::none(),
                    ReachKernel::eval_traced,
                )
                .unwrap();
                for (m, trace) in got.iter().enumerate() {
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
                }
            }
        }
    }
}
