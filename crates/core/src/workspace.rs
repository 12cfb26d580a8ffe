//! The incremental criticality engine: a stateful [`Workspace`] over one
//! network that answers "same network, small edit" queries by replaying only
//! the fault modes an edit can actually change.
//!
//! # Why a workspace
//!
//! The one-shot analysis entry points ([`analyze_graph`](crate::analyze_graph),
//! [`AnalysisSession`](crate::session::AnalysisSession)) pay a full per-mode
//! reachability sweep on every call. The paper's hardening loop (Table I) and
//! interactive what-if queries re-evaluate after *single-primitive* changes,
//! where almost every cached mode damage is still valid. A [`Workspace`] owns
//! the parsed network, its [`ReachKernel`] (CSR, topological order,
//! fault-free reach baseline), the canonical mode table, and one cached
//! [`ModeTrace`](crate::graph_analysis) per fault mode, and exposes delta
//! operations ([`Workspace::edit`], [`Workspace::harden`],
//! [`Workspace::undo`]) that recompute only the dirty subset.
//!
//! # The dirty rule (DESIGN.md §2.11)
//!
//! Each cached mode stores a *footprint*: the union of its frozen-only
//! ("any") forward and backward reach maps. The footprint depends only on
//! the mode's frozen selects — never on which segments are broken — so it is
//! invariant under every structural delta and never needs rebuilding. A
//! structural delta touching segment *s* (exclude/include) can change a
//! mode's damage only when *s* lies inside the mode's footprint: outside it,
//! *s* is unreachable in the mode's least-restricted traversals, so blocking
//! or unblocking it alters neither the clean reach maps nor the accessible
//! set. Weight edits bypass reachability entirely: every mode's damage is
//! re-derived arithmetically from its cached lost-segment records. Hardening
//! is pure aggregation masking and recomputes nothing.
//!
//! All recomputation shards per the workspace [`Parallelism`] with results
//! spliced in mode order, so every query result is bit-identical to a
//! from-scratch full sweep at any thread count (property-tested in
//! `tests/prop_incremental.rs`; [`Workspace::rebuilt`] is the oracle).
//!
//! # Example
//!
//! ```
//! use robust_rsn::prelude::*;
//! use rsn_model::prelude::*;
//!
//! let s = Structure::series(vec![
//!     Structure::sib("s0", Structure::instrument_seg("temp", 4, InstrumentKind::Sensor)),
//!     Structure::sib("s1", Structure::instrument_seg("avfs", 6, InstrumentKind::RuntimeAdaptive)),
//! ]);
//! let (net, _) = s.build("demo")?;
//! let mut ws = Workspace::builder(net).build_workspace()?;
//! let before = ws.total_damage();
//! let worst = ws.graph_criticality().primitives()[0];
//! ws.harden(worst)?;                     // O(1): masks one primitive
//! assert!(ws.total_damage() < before);
//! ws.undo()?;                            // inverse delta through the same machinery
//! assert_eq!(ws.total_damage(), before);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use rsn_model::{Fault, InstrumentId, NodeId, ScanNetwork};

use crate::cancel::{CancelToken, Cancelled};
use crate::cost::CostModel;
use crate::criticality::{aggregate, AnalysisOptions, Criticality, Mode};
use crate::graph_analysis::{
    controlled_muxes, double_fault_damage_with_cancel, fault_set_damages,
    sampled_double_fault_damage_with_cancel, sweep_blocks, AnalysisError, DoubleFaultSummary,
    GraphCriticality, ModeFootprint, ModeTrace, ReachKernel,
};
use crate::hardening::HardeningProblem;
use crate::par::Parallelism;
use crate::report::CriticalitySummary;
use crate::session::SessionError;
use crate::shard::ModeTable;
use crate::spec::CriticalitySpec;
use crate::validate::{validate_criticality_with_cancel, ValidationReport};

/// A single edit applied to a [`Workspace`] via [`Workspace::edit`].
///
/// Every variant has an inverse in the same enum, which is what
/// [`Workspace::undo`] replays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkspaceDelta {
    /// Marks a primitive as hardened: its own fault modes stop contributing
    /// damage (Eq. 2's `1 - x_j` mask). O(1) — no mode is recomputed.
    Harden {
        /// The primitive (segment or mux) to harden.
        primitive: NodeId,
    },
    /// Reverts [`WorkspaceDelta::Harden`].
    Unharden {
        /// The primitive to unharden.
        primitive: NodeId,
    },
    /// Changes one instrument's damage weights. Every mode's damage is
    /// re-derived arithmetically from its cached lost-segment records — no
    /// reachability traversal runs.
    SetWeights {
        /// The instrument whose weights change.
        instrument: InstrumentId,
        /// New observation weight `do_i`.
        obs: u64,
        /// New setting weight `ds_i`.
        set: u64,
    },
    /// Adds a segment to the ambient broken set: every subsequent query
    /// evaluates fault modes jointly with this segment broken. Only modes
    /// whose footprint contains the segment are re-swept.
    ///
    /// Restricted to segments that control no multiplexers (a broken control
    /// cell's frozen-select enumeration does not compose with ambient
    /// exclusion); [`Workspace::edit`] rejects control cells.
    ExcludeSegment {
        /// The segment to exclude.
        segment: NodeId,
    },
    /// Reverts [`WorkspaceDelta::ExcludeSegment`]; the same footprint rule
    /// bounds the re-sweep.
    IncludeSegment {
        /// The segment to re-include.
        segment: NodeId,
    },
}

impl WorkspaceDelta {
    /// A stable machine-readable tag for this delta kind (wire layer).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Harden { .. } => "harden",
            Self::Unharden { .. } => "unharden",
            Self::SetWeights { .. } => "set_weights",
            Self::ExcludeSegment { .. } => "exclude",
            Self::IncludeSegment { .. } => "include",
        }
    }
}

/// Errors surfaced by [`Workspace`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkspaceError {
    /// The delta does not fit the workspace's network or current state
    /// (unknown node, double harden, excluding a control cell, …). The
    /// workspace is unchanged.
    InvalidDelta(String),
    /// An analysis-layer failure (cancellation, worker panic, frozen-select
    /// combination bound). Failed edits leave the workspace unchanged.
    Session(SessionError),
}

impl WorkspaceError {
    /// A stable machine-readable code, aligned with
    /// [`SessionError::code`](crate::session::SessionError::code).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            Self::InvalidDelta(_) => "invalid_delta",
            Self::Session(e) => e.code(),
        }
    }
}

impl core::fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InvalidDelta(why) => write!(f, "invalid delta: {why}"),
            Self::Session(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WorkspaceError {}

impl From<SessionError> for WorkspaceError {
    fn from(e: SessionError) -> Self {
        Self::Session(e)
    }
}

impl From<AnalysisError> for WorkspaceError {
    fn from(e: AnalysisError) -> Self {
        Self::Session(e.into())
    }
}

impl From<Cancelled> for WorkspaceError {
    fn from(_: Cancelled) -> Self {
        Self::Session(SessionError::Cancelled)
    }
}

/// What an applied delta cost and left behind; returned by
/// [`Workspace::edit`] and [`Workspace::undo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaReport {
    /// Fault modes whose damage was re-derived (reach sweeps for structural
    /// deltas, arithmetic replays for weight edits, `0` for hardening).
    pub recomputed_modes: usize,
    /// Σⱼ d_j after the delta, with hardened and excluded primitives masked.
    pub total_damage: u64,
}

/// One cached fault mode (its broken/frozen sets live in the workspace's
/// mode table at the same index): its last evaluated trace, and the
/// footprint that gates structural invalidation.
#[derive(Clone, Debug)]
struct ModeState {
    /// Position of the owning primitive in `Workspace::primitives`.
    prim: u32,
    trace: ModeTrace,
    footprint: ModeFootprint,
}

/// Aggregated (unmasked) per-primitive damage components.
#[derive(Clone, Copy, Debug, Default)]
struct PrimAgg {
    obs: u64,
    set: u64,
    important: bool,
}

impl PrimAgg {
    fn total(self) -> u64 {
        self.obs + self.set
    }
}

/// A stateful incremental criticality engine. See the [module docs](self).
///
/// Construct with [`Workspace::builder`] (an
/// [`AnalysisSessionBuilder`](crate::session::AnalysisSessionBuilder)
/// finalized by
/// [`build_workspace`](crate::session::AnalysisSessionBuilder::build_workspace)).
#[derive(Debug)]
pub struct Workspace {
    net: ScanNetwork,
    spec: CriticalitySpec,
    options: AnalysisOptions,
    parallelism: Parallelism,
    cancel: CancelToken,
    kernel: ReachKernel,
    controlled: Vec<Vec<NodeId>>,
    primitives: Vec<NodeId>,
    /// Node index → position in `primitives` (`u32::MAX` for non-primitives).
    prim_pos: Vec<u32>,
    /// The canonical mode table; group `pos` holds the modes of
    /// `primitives[pos]`.
    table: ModeTable,
    modes: Vec<ModeState>,
    agg: Vec<PrimAgg>,
    hardened: Vec<bool>,
    excluded: Vec<bool>,
    /// The ambient broken set, ascending by node id (deterministic compose
    /// order for kernel calls).
    excluded_list: Vec<NodeId>,
    /// Inverse deltas, newest last.
    undo: Vec<WorkspaceDelta>,
}

impl Workspace {
    /// Starts a builder over `net`; finalize with
    /// [`build_workspace`](crate::session::AnalysisSessionBuilder::build_workspace).
    #[must_use]
    pub fn builder(net: ScanNetwork) -> crate::session::AnalysisSessionBuilder {
        crate::session::AnalysisSession::builder(net)
    }

    /// Builds a workspace from resolved inputs, evaluating every fault mode
    /// once (the full sweep that all later deltas amortize). `hardened` and
    /// `excluded` seed the initial state; excluded segments join the ambient
    /// broken set of the initial sweep itself, which is what makes this the
    /// from-scratch oracle for [`Workspace::rebuilt`].
    pub(crate) fn from_inputs(
        net: ScanNetwork,
        spec: CriticalitySpec,
        options: AnalysisOptions,
        parallelism: Parallelism,
        cancel: CancelToken,
        hardened_seed: &[NodeId],
        excluded_seed: &[NodeId],
    ) -> Result<Self, SessionError> {
        cancel.check()?;
        let kernel = ReachKernel::try_new(&net, &spec)?;
        let controlled = controlled_muxes(&net, options.sib_policy);
        let primitives: Vec<NodeId> = net.primitives().collect();
        let mut prim_pos = vec![u32::MAX; net.node_count()];
        for (pos, &j) in primitives.iter().enumerate() {
            prim_pos[j.index()] = pos as u32;
        }

        let mut excluded_list: Vec<NodeId> = excluded_seed.to_vec();
        excluded_list.sort_unstable();
        excluded_list.dedup();

        // Initial full sweep of the canonical mode table, jointly with the
        // ambient broken set: traces and footprints for every mode.
        let table = ModeTable::single_faults(&net, options.sib_policy);
        let evaluated = sweep_blocks(
            &kernel,
            parallelism,
            &cancel,
            table.len(),
            |s, m| {
                let (broken, frozen) = table.mode(m);
                kernel.push_mode(s, broken.iter().chain(&excluded_list), frozen);
            },
            |s| kernel.eval_traced(s, true),
        )?;
        let prims = table.groups().enumerate().flat_map(|(pos, modes)| modes.map(move |_| pos));
        let modes: Vec<ModeState> = prims
            .zip(evaluated)
            .map(|(pos, (trace, footprint))| ModeState { prim: pos as u32, trace, footprint })
            .collect();

        let mut hardened = vec![false; net.node_count()];
        for &j in hardened_seed {
            hardened[j.index()] = true;
        }
        let mut excluded = vec![false; net.node_count()];
        for &s in &excluded_list {
            excluded[s.index()] = true;
        }
        let mut ws = Self {
            net,
            spec,
            options,
            parallelism,
            cancel,
            kernel,
            controlled,
            primitives,
            prim_pos,
            table,
            modes,
            agg: Vec::new(),
            hardened,
            excluded,
            excluded_list,
            undo: Vec::new(),
        };
        ws.agg = vec![PrimAgg::default(); ws.primitives.len()];
        for pos in 0..ws.primitives.len() {
            ws.reaggregate(pos);
        }
        Ok(ws)
    }

    /// Re-derives one primitive's aggregate from its cached mode traces,
    /// through the same [`aggregate`] as the tree analysis so ties and
    /// truncating means resolve identically.
    fn reaggregate(&mut self, pos: usize) {
        let slice = &self.modes[self.table.group(pos)];
        let modes: Vec<Mode> = slice
            .iter()
            .map(|m| Mode { obs: m.trace.obs_damage, set: m.trace.set_damage })
            .collect();
        let a = aggregate(self.options.mode, &modes);
        let important = slice.iter().any(|m| m.trace.affects_important);
        self.agg[pos] = PrimAgg { obs: a.obs, set: a.set, important };
    }

    /// The workspace's network.
    #[must_use]
    pub fn network(&self) -> &ScanNetwork {
        &self.net
    }

    /// The current criticality specification (reflects applied
    /// [`WorkspaceDelta::SetWeights`] edits).
    #[must_use]
    pub fn spec(&self) -> &CriticalitySpec {
        &self.spec
    }

    /// The analysis options.
    #[must_use]
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// The thread configuration used by sharded recomputation.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The cancellation token (a clone) observed by every sweep.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replaces the cancellation token — e.g. a fresh per-request deadline
    /// on a long-lived server-side workspace.
    pub fn set_cancel_token(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Currently hardened primitives, ascending by node id.
    #[must_use]
    pub fn hardened(&self) -> Vec<NodeId> {
        self.primitives.iter().copied().filter(|&j| self.hardened[j.index()]).collect()
    }

    /// Currently excluded segments, ascending by node id.
    #[must_use]
    pub fn excluded(&self) -> Vec<NodeId> {
        self.excluded_list.clone()
    }

    /// Whether `j` is hardened.
    #[must_use]
    pub fn is_hardened(&self, j: NodeId) -> bool {
        self.hardened[j.index()]
    }

    /// Whether `j` is excluded.
    #[must_use]
    pub fn is_excluded(&self, j: NodeId) -> bool {
        self.excluded[j.index()]
    }

    /// Depth of the undo stack.
    #[must_use]
    pub fn undo_depth(&self) -> usize {
        self.undo.len()
    }

    /// The damage `d_j` under the current state: `0` for hardened or
    /// excluded primitives, the aggregated mode damage otherwise.
    #[must_use]
    pub fn damage(&self, j: NodeId) -> u64 {
        let pos = self.prim_pos[j.index()];
        if pos == u32::MAX || self.masked(j) {
            0
        } else {
            self.agg[pos as usize].total()
        }
    }

    /// The observability component of [`damage`](Self::damage).
    #[must_use]
    pub fn obs_damage(&self, j: NodeId) -> u64 {
        let pos = self.prim_pos[j.index()];
        if pos == u32::MAX || self.masked(j) {
            0
        } else {
            self.agg[pos as usize].obs
        }
    }

    /// The settability component of [`damage`](Self::damage).
    #[must_use]
    pub fn set_damage(&self, j: NodeId) -> u64 {
        let pos = self.prim_pos[j.index()];
        if pos == u32::MAX || self.masked(j) {
            0
        } else {
            self.agg[pos as usize].set
        }
    }

    /// Whether some unmasked fault mode of `j` disconnects an important
    /// instrument.
    #[must_use]
    pub fn affects_important(&self, j: NodeId) -> bool {
        let pos = self.prim_pos[j.index()];
        pos != u32::MAX && !self.masked(j) && self.agg[pos as usize].important
    }

    fn masked(&self, j: NodeId) -> bool {
        self.hardened[j.index()] || self.excluded[j.index()]
    }

    /// Σⱼ d_j over unmasked primitives — Eq. 2's damage objective for the
    /// current hardening set.
    #[must_use]
    pub fn total_damage(&self) -> u64 {
        self.primitives.iter().map(|&j| self.damage(j)).sum()
    }

    /// The damage vector as a [`GraphCriticality`]. On a fresh workspace
    /// this is bit-identical to [`analyze_graph`](crate::analyze_graph).
    #[must_use]
    pub fn graph_criticality(&self) -> GraphCriticality {
        let mut damage = vec![0u64; self.net.node_count()];
        for &j in &self.primitives {
            damage[j.index()] = self.damage(j);
        }
        GraphCriticality::from_parts(damage, self.primitives.clone())
    }

    /// The current per-primitive damages as a [`Criticality`] (obs/set
    /// split and importance flags included).
    #[must_use]
    pub fn criticality(&self) -> Criticality {
        let n = self.net.node_count();
        let mut damage = vec![0u64; n];
        let mut obs = vec![0u64; n];
        let mut set = vec![0u64; n];
        let mut important = vec![false; n];
        for &j in &self.primitives {
            damage[j.index()] = self.damage(j);
            obs[j.index()] = self.obs_damage(j);
            set[j.index()] = self.set_damage(j);
            important[j.index()] = self.affects_important(j);
        }
        Criticality::from_parts(damage, obs, set, important, self.primitives.clone())
    }

    /// A ranked [`CriticalitySummary`] of the current state.
    #[must_use]
    pub fn summary(&self, top_n: usize) -> CriticalitySummary {
        CriticalitySummary::new(&self.net, &self.criticality(), top_n)
    }

    /// The selective-hardening problem over the current damages (already
    /// reflecting exclusions and weight edits; hardened primitives keep
    /// their genome bit but contribute zero avoidable damage).
    #[must_use]
    pub fn hardening_problem(&self, cost_model: &CostModel) -> HardeningProblem {
        HardeningProblem::new(&self.net, &self.criticality(), cost_model)
            .with_parallelism(self.parallelism)
    }

    /// Applies `delta` and pushes its inverse on the undo stack.
    ///
    /// Dirty-set bounds per variant: `Harden`/`Unharden` recompute nothing;
    /// `SetWeights` replays every mode arithmetically (no BFS);
    /// `ExcludeSegment`/`IncludeSegment` re-sweep only modes whose footprint
    /// contains the segment. New damages are computed into a staging buffer
    /// and committed only on success, so a failed (e.g. cancelled) edit
    /// leaves the workspace exactly as it was.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::InvalidDelta`] when the delta does not fit the
    /// current state; [`WorkspaceError::Session`] for cancellation or a
    /// worker panic.
    pub fn edit(&mut self, delta: WorkspaceDelta) -> Result<DeltaReport, WorkspaceError> {
        let (inverse, report) = self.apply(&delta)?;
        self.undo.push(inverse);
        Ok(report)
    }

    /// Hardens `primitive` — sugar for [`WorkspaceDelta::Harden`].
    ///
    /// # Errors
    ///
    /// As for [`edit`](Self::edit).
    pub fn harden(&mut self, primitive: NodeId) -> Result<DeltaReport, WorkspaceError> {
        self.edit(WorkspaceDelta::Harden { primitive })
    }

    /// Reverts the most recent un-undone edit by applying its inverse delta
    /// through the same machinery; returns `None` when the stack is empty.
    ///
    /// # Errors
    ///
    /// As for [`edit`](Self::edit); on error the undo entry is retained and
    /// the workspace unchanged.
    pub fn undo(&mut self) -> Result<Option<DeltaReport>, WorkspaceError> {
        let Some(inverse) = self.undo.pop() else { return Ok(None) };
        match self.apply(&inverse) {
            Ok((_, report)) => Ok(Some(report)),
            Err(e) => {
                self.undo.push(inverse);
                Err(e)
            }
        }
    }

    /// Validates a delta and applies it; returns the inverse delta.
    fn apply(
        &mut self,
        delta: &WorkspaceDelta,
    ) -> Result<(WorkspaceDelta, DeltaReport), WorkspaceError> {
        match *delta {
            WorkspaceDelta::Harden { primitive } => {
                self.check_primitive(primitive)?;
                if self.hardened[primitive.index()] {
                    return Err(WorkspaceError::InvalidDelta(format!(
                        "primitive {primitive} is already hardened"
                    )));
                }
                self.cancel.check()?;
                self.hardened[primitive.index()] = true;
                Ok((WorkspaceDelta::Unharden { primitive }, self.report(0)))
            }
            WorkspaceDelta::Unharden { primitive } => {
                self.check_primitive(primitive)?;
                if !self.hardened[primitive.index()] {
                    return Err(WorkspaceError::InvalidDelta(format!(
                        "primitive {primitive} is not hardened"
                    )));
                }
                self.cancel.check()?;
                self.hardened[primitive.index()] = false;
                Ok((WorkspaceDelta::Harden { primitive }, self.report(0)))
            }
            WorkspaceDelta::SetWeights { instrument, obs, set } => {
                if instrument.index() >= self.net.instrument_count() {
                    return Err(WorkspaceError::InvalidDelta(format!(
                        "unknown instrument {instrument}"
                    )));
                }
                self.cancel.check()?;
                let old = (self.spec.obs_weight(instrument), self.spec.set_weight(instrument));
                let seg = self.net.instrument(instrument).segment();
                self.kernel.update_instrument_weights(seg.index(), old, (obs, set));
                self.spec.set_weights(instrument, obs, set);
                // Arithmetic replay: every mode re-prices its lost records
                // under the new weights; no reachability runs.
                let kernel = &self.kernel;
                let mut recomputed = 0usize;
                for m in &mut self.modes {
                    let (o, s) = kernel.lost_damages(&m.trace.lost);
                    if o != m.trace.obs_damage || s != m.trace.set_damage {
                        m.trace.obs_damage = o;
                        m.trace.set_damage = s;
                        recomputed += 1;
                    }
                }
                for pos in 0..self.primitives.len() {
                    self.reaggregate(pos);
                }
                let inverse = WorkspaceDelta::SetWeights { instrument, obs: old.0, set: old.1 };
                Ok((inverse, self.report(recomputed)))
            }
            WorkspaceDelta::ExcludeSegment { segment } => {
                self.check_excludable(segment)?;
                if self.excluded[segment.index()] {
                    return Err(WorkspaceError::InvalidDelta(format!(
                        "segment {segment} is already excluded"
                    )));
                }
                let mut ambient = self.excluded_list.clone();
                ambient.push(segment);
                ambient.sort_unstable();
                let recomputed = self.resweep_dirty(segment, &ambient)?;
                self.excluded[segment.index()] = true;
                self.excluded_list = ambient;
                Ok((WorkspaceDelta::IncludeSegment { segment }, self.report(recomputed)))
            }
            WorkspaceDelta::IncludeSegment { segment } => {
                self.check_excludable(segment)?;
                if !self.excluded[segment.index()] {
                    return Err(WorkspaceError::InvalidDelta(format!(
                        "segment {segment} is not excluded"
                    )));
                }
                let ambient: Vec<NodeId> =
                    self.excluded_list.iter().copied().filter(|&s| s != segment).collect();
                let recomputed = self.resweep_dirty(segment, &ambient)?;
                self.excluded[segment.index()] = false;
                self.excluded_list = ambient;
                Ok((WorkspaceDelta::ExcludeSegment { segment }, self.report(recomputed)))
            }
        }
    }

    /// Recomputes every mode whose footprint contains `touched` against the
    /// prospective ambient broken set, committing traces and aggregates only
    /// after the whole sweep succeeded. Returns the dirty-mode count.
    fn resweep_dirty(
        &mut self,
        touched: NodeId,
        ambient: &[NodeId],
    ) -> Result<usize, WorkspaceError> {
        let kernel = &self.kernel;
        let ti = touched.index();
        let dirty: Vec<u32> = (0..self.modes.len() as u32)
            .filter(|&k| kernel.footprint_contains(&self.modes[k as usize].footprint, ti))
            .collect();
        let table = &self.table;
        // The footprint never changes (it depends only on the mode's frozen
        // selects), so the re-sweep skips re-deriving it.
        let traces: Vec<ModeTrace> = sweep_blocks(
            kernel,
            self.parallelism,
            &self.cancel,
            dirty.len(),
            |s, i| {
                let (broken, frozen) = table.mode(dirty[i] as usize);
                kernel.push_mode(s, broken.iter().chain(ambient), frozen);
            },
            |s| kernel.eval_traced(s, false).into_iter().map(|(trace, _)| trace).collect(),
        )?;
        // Commit.
        let mut dirty_prims: Vec<u32> = Vec::new();
        for (&k, trace) in dirty.iter().zip(traces) {
            let m = &mut self.modes[k as usize];
            m.trace = trace;
            dirty_prims.push(m.prim);
        }
        dirty_prims.sort_unstable();
        dirty_prims.dedup();
        for pos in dirty_prims {
            self.reaggregate(pos as usize);
        }
        Ok(dirty.len())
    }

    fn report(&self, recomputed_modes: usize) -> DeltaReport {
        DeltaReport { recomputed_modes, total_damage: self.total_damage() }
    }

    fn check_primitive(&self, j: NodeId) -> Result<(), WorkspaceError> {
        match self.prim_pos.get(j.index()) {
            Some(&pos) if pos != u32::MAX => Ok(()),
            _ => Err(WorkspaceError::InvalidDelta(format!("node {j} is not a scan primitive"))),
        }
    }

    fn check_excludable(&self, s: NodeId) -> Result<(), WorkspaceError> {
        self.check_primitive(s)?;
        if !self.net.node(s).kind.is_segment() {
            return Err(WorkspaceError::InvalidDelta(format!("node {s} is not a segment")));
        }
        if !self.controlled[s.index()].is_empty() {
            return Err(WorkspaceError::InvalidDelta(format!(
                "segment {s} controls multiplexers; exclusion is not supported for control cells"
            )));
        }
        Ok(())
    }

    /// Joint damage of an explicit multi-fault set evaluated on the cached
    /// kernel, jointly with the ambient excluded segments. Unlike the
    /// one-shot free function this skips the kernel rebuild entirely.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::Session`] for cancellation, a worker panic, or a
    /// fault set exceeding the frozen-select combination bound.
    pub fn fault_set_damage(&self, faults: &[Fault]) -> Result<u64, WorkspaceError> {
        let mut all: Vec<Fault> = faults.to_vec();
        all.extend(self.excluded_list.iter().map(|&s| Fault::broken_segment(s)));
        let worst = fault_set_damages(
            &self.kernel,
            &self.net,
            &self.controlled,
            [&all],
            self.parallelism,
            &self.cancel,
        )?;
        Ok(worst[0])
    }

    /// Average damage over sampled random double faults, with the current
    /// spec and with hardened *and* excluded primitives removed from the
    /// sampling pool.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::Session`] for cancellation or a pair exceeding the
    /// frozen-select combination bound.
    pub fn sampled_double_fault_damage(
        &self,
        samples: usize,
        seed: u64,
    ) -> Result<f64, WorkspaceError> {
        let mut blocked = self.hardened();
        blocked.extend_from_slice(&self.excluded_list);
        sampled_double_fault_damage_with_cancel(
            &self.net,
            &self.spec,
            &blocked,
            self.options.sib_policy,
            samples,
            seed,
            self.parallelism,
            &self.cancel,
        )
        .map_err(WorkspaceError::from)
    }

    /// **Exact** double-fault damage over every unordered pair of single
    /// faults on unhardened, unexcluded primitives — the full sweep
    /// [`Workspace::sampled_double_fault_damage`] estimates, evaluated with
    /// the mode-major batch kernel.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::Session`] for cancellation, a worker panic, or a
    /// pair exceeding the frozen-select combination bound.
    pub fn double_fault_damage(&self) -> Result<DoubleFaultSummary, WorkspaceError> {
        let mut blocked = self.hardened();
        blocked.extend_from_slice(&self.excluded_list);
        double_fault_damage_with_cancel(
            &self.net,
            &self.spec,
            &blocked,
            self.options.sib_policy,
            self.parallelism,
            &self.cancel,
        )
        .map_err(WorkspaceError::from)
    }

    /// The operational fault-simulation campaign over the pristine network
    /// with the current spec (exclusions and hardening do not alter the
    /// simulated hardware).
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::Session`] for cancellation or a worker panic.
    pub fn validate(&self) -> Result<ValidationReport, WorkspaceError> {
        validate_criticality_with_cancel(
            &self.net,
            &self.spec,
            &self.options,
            self.parallelism,
            &self.cancel,
        )
        .map_err(WorkspaceError::from)
    }

    /// A from-scratch rebuild of this workspace's current state: same
    /// network, current spec, same hardened/excluded sets — but every mode
    /// evaluated by a full sweep instead of incremental replay. The oracle
    /// for the bit-identity property tests (its undo stack starts empty).
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::Session`] for cancellation or a worker panic.
    pub fn rebuilt(&self) -> Result<Workspace, WorkspaceError> {
        Workspace::from_inputs(
            self.net.clone(),
            self.spec.clone(),
            self.options,
            self.parallelism,
            self.cancel.clone(),
            &self.hardened(),
            &self.excluded_list,
        )
        .map_err(WorkspaceError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_analysis::analyze_graph_with;
    use crate::session::AnalysisSession;
    use crate::spec::PaperSpecParams;
    use rsn_model::{InstrumentKind, Structure};

    fn demo_net() -> ScanNetwork {
        let s = Structure::series(vec![
            Structure::sib("s0", Structure::instrument_seg("t", 4, InstrumentKind::Sensor)),
            Structure::sib(
                "s1",
                Structure::series(vec![
                    Structure::instrument_seg("a", 6, InstrumentKind::RuntimeAdaptive),
                    Structure::parallel(
                        vec![
                            Structure::instrument_seg("b", 2, InstrumentKind::Bist),
                            Structure::instrument_seg("c", 3, InstrumentKind::Debug),
                        ],
                        "m",
                    ),
                ]),
            ),
            Structure::instrument_seg("d", 3, InstrumentKind::Generic),
        ]);
        s.build("demo").expect("valid structure").0
    }

    fn workspace(net: ScanNetwork, threads: usize) -> Workspace {
        AnalysisSession::builder(net)
            .with_paper_spec(PaperSpecParams::default(), 11)
            .with_threads(threads)
            .build_workspace()
            .expect("workspace builds")
    }

    #[test]
    fn fresh_workspace_matches_analyze_graph() {
        let net = demo_net();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 11);
        let expected =
            analyze_graph_with(&net, &spec, &AnalysisOptions::default(), Parallelism::sequential());
        for threads in [1usize, 4] {
            let ws = workspace(net.clone(), threads);
            let got = ws.graph_criticality();
            assert_eq!(got.primitives(), expected.primitives());
            for &j in got.primitives() {
                assert_eq!(got.damage(j), expected.damage(j), "primitive {j} ({threads} threads)");
            }
            assert_eq!(got.total_damage(), expected.total_damage());
        }
    }

    #[test]
    fn harden_masks_and_undo_restores() {
        let mut ws = workspace(demo_net(), 1);
        let before = ws.total_damage();
        let j = ws.graph_criticality().primitives()[0];
        let d = ws.damage(j);
        assert!(d > 0, "demo net has damage everywhere");
        let report = ws.harden(j).expect("harden");
        assert_eq!(report.recomputed_modes, 0, "hardening is pure masking");
        assert_eq!(report.total_damage, before - d);
        assert_eq!(ws.damage(j), 0);
        assert!(ws.is_hardened(j));
        let undone = ws.undo().expect("undo ok").expect("stack non-empty");
        assert_eq!(undone.total_damage, before);
        assert_eq!(ws.damage(j), d);
        assert!(ws.undo().expect("empty undo ok").is_none());
    }

    #[test]
    fn double_harden_is_rejected_and_leaves_state_unchanged() {
        let mut ws = workspace(demo_net(), 1);
        let j = ws.graph_criticality().primitives()[0];
        ws.harden(j).expect("first harden");
        let before = ws.total_damage();
        let err = ws.harden(j).expect_err("double harden");
        assert_eq!(err.code(), "invalid_delta");
        assert_eq!(ws.total_damage(), before);
        assert_eq!(ws.undo_depth(), 1, "failed edit pushes no undo entry");
    }

    #[test]
    fn weight_edit_matches_rebuild_and_undoes() {
        let mut ws = workspace(demo_net(), 1);
        let baseline = ws.total_damage();
        let (i, _) = ws.network().instruments().next().expect("has instruments");
        ws.edit(WorkspaceDelta::SetWeights { instrument: i, obs: 91, set: 17 }).expect("edit");
        let rebuilt = ws.rebuilt().expect("rebuild");
        assert_eq!(ws.summary(8), rebuilt.summary(8), "incremental == full sweep");
        ws.undo().expect("undo ok").expect("entry");
        assert_eq!(ws.total_damage(), baseline);
    }

    #[test]
    fn exclude_matches_rebuild_include_restores() {
        let mut ws = workspace(demo_net(), 4);
        let baseline_summary = ws.summary(16);
        // Pick a plain (non-control-cell) instrument segment.
        let seg = ws
            .network()
            .segments()
            .find(|&s| {
                ws.controlled[s.index()].is_empty() && ws.network().instrument_at(s).is_some()
            })
            .expect("plain segment");
        let report = ws.edit(WorkspaceDelta::ExcludeSegment { segment: seg }).expect("exclude");
        assert!(report.recomputed_modes > 0, "an in-footprint exclusion dirties modes");
        assert!(ws.is_excluded(seg));
        assert_eq!(ws.damage(seg), 0, "excluded segments are masked");
        let rebuilt = ws.rebuilt().expect("rebuild");
        assert_eq!(ws.summary(16), rebuilt.summary(16), "incremental == full sweep");
        ws.undo().expect("undo ok").expect("entry");
        assert_eq!(ws.summary(16), baseline_summary);
    }

    #[test]
    fn excluding_a_control_cell_is_rejected() {
        let mut ws = workspace(demo_net(), 1);
        let cell = ws
            .network()
            .segments()
            .find(|&s| !ws.controlled[s.index()].is_empty())
            .expect("SIB cells control muxes");
        let err = ws.edit(WorkspaceDelta::ExcludeSegment { segment: cell }).expect_err("rejected");
        assert_eq!(err.code(), "invalid_delta");
    }

    #[test]
    fn cancelled_edit_leaves_workspace_unchanged() {
        let mut ws = workspace(demo_net(), 1);
        let summary = ws.summary(16);
        let seg = ws
            .network()
            .segments()
            .find(|&s| ws.controlled[s.index()].is_empty())
            .expect("plain segment");
        let cancel = CancelToken::new();
        cancel.cancel();
        ws.set_cancel_token(cancel);
        let err = ws.edit(WorkspaceDelta::ExcludeSegment { segment: seg }).expect_err("cancelled");
        assert_eq!(err.code(), "cancelled");
        ws.set_cancel_token(CancelToken::none());
        assert_eq!(ws.summary(16), summary, "failed edit committed nothing");
        assert_eq!(ws.undo_depth(), 0);
    }

    #[test]
    fn fault_set_damage_joins_ambient_exclusions() {
        let mut ws = workspace(demo_net(), 1);
        let seg = ws
            .network()
            .segments()
            .find(|&s| {
                ws.controlled[s.index()].is_empty() && ws.network().instrument_at(s).is_some()
            })
            .expect("plain segment");
        let lone = ws.fault_set_damage(&[Fault::broken_segment(seg)]).expect("fault set");
        ws.edit(WorkspaceDelta::ExcludeSegment { segment: seg }).expect("exclude");
        let ambient = ws.fault_set_damage(&[]).expect("ambient only");
        assert_eq!(ambient, lone, "excluded segment behaves as an ambient fault");
    }

    #[test]
    fn hardening_problem_reflects_workspace_state() {
        let mut ws = workspace(demo_net(), 1);
        let j = ws.graph_criticality().primitives()[0];
        ws.harden(j).expect("harden");
        let p = ws.hardening_problem(&CostModel::default());
        let bit = p.primitives().iter().position(|&x| x == j).expect("bit exists");
        assert_eq!(p.damage_of_bit(bit), 0, "hardened primitive carries no avoidable damage");
        assert_eq!(p.total_damage(), ws.total_damage());
    }
}
