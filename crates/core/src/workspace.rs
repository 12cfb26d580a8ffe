//! The incremental criticality engine: a stateful [`Workspace`] over one
//! network that answers "same network, small edit" queries from a cache of
//! per-mode traces.
//!
//! # Why a workspace
//!
//! The one-shot analysis entry points ([`analyze_graph`](crate::analyze_graph),
//! [`AnalysisSession`](crate::session::AnalysisSession)) pay a full per-mode
//! reachability sweep on every call. The paper's hardening loop (Table I) and
//! interactive what-if queries re-evaluate after *single-primitive* changes.
//! A [`Workspace`] shares the network and its [`AnalysisPlan`] (the
//! canonical mode table and the kernel graph) with whoever built it, owns
//! its spec's [`ReachKernel`] probes and one cached
//! [`ModeTrace`](crate::graph_analysis) per fault mode, and exposes delta
//! operations ([`Workspace::edit`], [`Workspace::harden`],
//! [`Workspace::undo`]). It never edits the network or the plan, so a
//! daemon's cached workspaces all read the registry's copies.
//!
//! # What each delta recomputes (DESIGN.md §2.11)
//!
//! Hardening is pure aggregation masking and recomputes nothing. Weight
//! edits bypass reachability: every mode's damage is re-derived
//! arithmetically from its cached lost-segment records. A structural delta
//! (exclude/include a segment) changes the ambient broken set every mode is
//! evaluated with, so it replays the workspace's initial sweep under the new
//! set: every mode is re-swept in lane blocks, and the traces are committed
//! only once the whole sweep succeeded.
//!
//! Undoing a structural edit that is still the newest edit re-sweeps
//! nothing: the workspace keeps the one trace set that edit replaced and
//! swaps it back, so an exclude-then-undo costs one sweep, not two. Any
//! later successful edit or undo drops the held set (the traces it holds
//! would no longer match the state), and undo falls back to a re-sweep.
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
//! let worst = ws.criticality().primitives()[0];
//! ws.harden(worst)?;                     // O(1): masks one primitive
//! assert!(ws.total_damage() < before);
//! ws.undo()?;                            // O(1): unmasks it again
//! assert_eq!(ws.total_damage(), before);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use rsn_model::{InstrumentId, NodeId, ScanNetwork};

use crate::cancel::{CancelToken, Cancelled};
use crate::criticality::{fold_mode_damages, AnalysisOptions, Criticality};
use crate::graph_analysis::{sweep_blocks, AnalysisError, ModeTrace, ReachKernel};
use crate::par::Parallelism;
use crate::plan::AnalysisPlan;
use crate::report::CriticalitySummary;
use crate::session::SessionError;
use crate::spec::CriticalitySpec;

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
    /// evaluates fault modes jointly with this segment broken. Every mode is
    /// re-swept under the new set, as in the initial sweep.
    ///
    /// Restricted to segments that control no multiplexers (a broken control
    /// cell's frozen-select enumeration does not compose with ambient
    /// exclusion); [`Workspace::edit`] rejects control cells.
    ExcludeSegment {
        /// The segment to exclude.
        segment: NodeId,
    },
    /// Reverts [`WorkspaceDelta::ExcludeSegment`]: every mode is re-swept
    /// without the segment. [`Workspace::undo`] of the newest exclude swaps
    /// back the traces it replaced instead.
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
    /// Fault modes whose damage was re-derived: every mode for structural
    /// deltas (one full sweep), the modes whose damage changed for weight
    /// edits (arithmetic replays), `0` for hardening and for an undo that
    /// restored the traces its structural edit replaced.
    pub recomputed_modes: usize,
    /// Σⱼ d_j after the delta, with hardened and excluded primitives masked.
    pub total_damage: u64,
}

/// A stateful incremental criticality engine. See the [module docs](self).
///
/// Construct with [`Workspace::builder`] (an
/// [`AnalysisSessionBuilder`](crate::session::AnalysisSessionBuilder)
/// finalized by
/// [`build_workspace`](crate::session::AnalysisSessionBuilder::build_workspace)).
#[derive(Debug)]
pub struct Workspace {
    net: Arc<ScanNetwork>,
    /// The network's plan under `options.sib_policy`: its mode table's
    /// group `pos` holds the modes of `plan.primitives()[pos]`.
    plan: Arc<AnalysisPlan>,
    spec: CriticalitySpec,
    options: AnalysisOptions,
    parallelism: Parallelism,
    cancel: CancelToken,
    kernel: ReachKernel,
    /// The last evaluated trace of each mode, indexed like the plan's mode
    /// table.
    modes: Vec<ModeTrace>,
    /// The traces folded per primitive, before hardened and excluded
    /// primitives are masked.
    unmasked: Criticality,
    hardened: Vec<bool>,
    excluded: Vec<bool>,
    /// The ambient broken set, ascending by node id (deterministic compose
    /// order for kernel calls).
    excluded_list: Vec<NodeId>,
    /// Inverse deltas, newest last.
    undo: Vec<WorkspaceDelta>,
    /// The traces the newest structural edit replaced, held only while that
    /// edit is on top of `undo` so undoing it restores them without a
    /// sweep. At most one set; never a copy.
    replaced: Option<Vec<ModeTrace>>,
    /// Modes evaluated by committed kernel sweeps over this workspace's
    /// life (see [`Workspace::modes_swept`]).
    modes_swept: u64,
}

impl Workspace {
    /// Starts a builder over `net`; finalize with
    /// [`build_workspace`](crate::session::AnalysisSessionBuilder::build_workspace).
    #[must_use]
    pub fn builder(net: impl Into<Arc<ScanNetwork>>) -> crate::session::AnalysisSessionBuilder {
        crate::session::AnalysisSession::builder(net)
    }

    /// Builds a workspace from resolved inputs, evaluating every fault mode
    /// once (the full sweep that all later deltas amortize).
    ///
    /// # Panics
    ///
    /// Panics when `plan` was built for another SIB policy than
    /// `options.sib_policy`, or for another network than `net`.
    pub(crate) fn from_inputs(
        net: Arc<ScanNetwork>,
        plan: Arc<AnalysisPlan>,
        spec: CriticalitySpec,
        options: AnalysisOptions,
        parallelism: Parallelism,
        cancel: CancelToken,
    ) -> Result<Self, SessionError> {
        let mut ws = Self::unswept(net, plan, spec, options, parallelism, cancel)?;
        ws.resweep(Vec::new())?;
        Ok(ws)
    }

    /// The workspace before its initial sweep: no traces, nothing hardened
    /// or excluded.
    fn unswept(
        net: Arc<ScanNetwork>,
        plan: Arc<AnalysisPlan>,
        spec: CriticalitySpec,
        options: AnalysisOptions,
        parallelism: Parallelism,
        cancel: CancelToken,
    ) -> Result<Self, SessionError> {
        assert_eq!(plan.policy(), options.sib_policy, "workspace plan under another SIB policy");
        cancel.check()?;
        let kernel = plan.kernel(&net, &spec)?;
        Ok(Self {
            // Empty until the initial sweep folds its traces.
            unmasked: Criticality::zeroed(0, Vec::new()),
            hardened: vec![false; net.node_count()],
            excluded: vec![false; net.node_count()],
            net,
            plan,
            spec,
            options,
            parallelism,
            cancel,
            kernel,
            modes: Vec::new(),
            excluded_list: Vec::new(),
            undo: Vec::new(),
            replaced: None,
            modes_swept: 0,
        })
    }

    /// Evaluates every mode of the table jointly with the `ambient` broken
    /// set: the initial sweep, and the replay behind every structural delta.
    fn sweep(&self, ambient: &[NodeId]) -> Result<Vec<ModeTrace>, AnalysisError> {
        let table = self.plan.table();
        sweep_blocks(
            &self.kernel,
            table,
            0..table.len(),
            ambient,
            self.parallelism,
            &self.cancel,
            ReachKernel::eval_traced,
        )
    }

    /// Makes `ambient` (ascending) the ambient broken set: re-sweeps every
    /// mode under it and, only once the whole sweep succeeded, commits the
    /// traces, the exclusion flags and the aggregates. Returns the traces
    /// the sweep replaced.
    fn resweep(&mut self, ambient: Vec<NodeId>) -> Result<Vec<ModeTrace>, AnalysisError> {
        let traces = self.sweep(&ambient)?;
        self.modes_swept += traces.len() as u64;
        let replaced = std::mem::replace(&mut self.modes, traces);
        self.commit_ambient(ambient);
        Ok(replaced)
    }

    /// Commits `ambient` as the ambient broken set the current traces were
    /// swept under: exclusion flags, `excluded_list` and the aggregates.
    fn commit_ambient(&mut self, ambient: Vec<NodeId>) {
        for &s in &self.excluded_list {
            self.excluded[s.index()] = false;
        }
        for &s in &ambient {
            self.excluded[s.index()] = true;
        }
        self.excluded_list = ambient;
        self.reaggregate();
    }

    /// Re-derives every primitive's damage from the cached mode traces,
    /// through the same fold as [`analyze_graph`](crate::analyze_graph), so
    /// ties and truncating means resolve identically.
    fn reaggregate(&mut self) {
        let modes = &self.modes;
        self.unmasked = fold_mode_damages(&self.plan, self.options.mode, |m| modes[m].damage);
    }

    /// The workspace's network.
    #[must_use]
    pub fn network(&self) -> &ScanNetwork {
        &self.net
    }

    /// The analysis plan the workspace sweeps through.
    #[must_use]
    pub fn plan(&self) -> &Arc<AnalysisPlan> {
        &self.plan
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
        self.plan.primitives().iter().copied().filter(|&j| self.hardened[j.index()]).collect()
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

    /// Fault modes evaluated by the kernel over this workspace's life: the
    /// initial sweep plus every committed structural re-sweep. An undo that
    /// restores replaced traces, and an edit that fails, add nothing.
    #[must_use]
    pub fn modes_swept(&self) -> u64 {
        self.modes_swept
    }

    /// The damage `d_j` under the current state: `0` for hardened or
    /// excluded primitives, the aggregated mode damage otherwise.
    #[must_use]
    pub fn damage(&self, j: NodeId) -> u64 {
        if self.masked(j) {
            0
        } else {
            self.unmasked.damage(j)
        }
    }

    /// The observability component of [`damage`](Self::damage).
    #[must_use]
    pub fn obs_damage(&self, j: NodeId) -> u64 {
        if self.masked(j) {
            0
        } else {
            self.unmasked.obs_damage(j)
        }
    }

    /// The settability component of [`damage`](Self::damage).
    #[must_use]
    pub fn set_damage(&self, j: NodeId) -> u64 {
        if self.masked(j) {
            0
        } else {
            self.unmasked.set_damage(j)
        }
    }

    /// Whether some unmasked fault mode of `j` disconnects an important
    /// instrument.
    #[must_use]
    pub fn affects_important(&self, j: NodeId) -> bool {
        !self.masked(j) && self.unmasked.affects_important(j)
    }

    fn masked(&self, j: NodeId) -> bool {
        self.hardened[j.index()] || self.excluded[j.index()]
    }

    /// Σⱼ d_j over unmasked primitives — Eq. 2's damage objective for the
    /// current hardening set.
    #[must_use]
    pub fn total_damage(&self) -> u64 {
        self.plan.primitives().iter().fold(0u64, |acc, &j| acc.saturating_add(self.damage(j)))
    }

    /// The current per-primitive damages as a [`Criticality`] (obs/set
    /// split and importance flags included), hardened and excluded
    /// primitives masked. On a fresh workspace this is bit-identical to
    /// [`analyze_graph`](crate::analyze_graph).
    #[must_use]
    pub fn criticality(&self) -> Criticality {
        self.unmasked.masked(|j| self.masked(j))
    }

    /// A ranked [`CriticalitySummary`] of the current state.
    #[must_use]
    pub fn summary(&self, top_n: usize) -> CriticalitySummary {
        CriticalitySummary::new(&self.net, &self.criticality(), top_n)
    }

    /// Applies `delta` and pushes its inverse on the undo stack.
    ///
    /// Cost per variant: `Harden`/`Unharden` recompute nothing;
    /// `SetWeights` replays every mode arithmetically (no traversal);
    /// `ExcludeSegment`/`IncludeSegment` re-sweep every mode under the new
    /// ambient broken set. A re-sweep is committed only on success, so a
    /// failed (e.g. cancelled) edit leaves the workspace exactly as it was.
    /// A successful edit drops the traces held for [`undo`](Self::undo); a
    /// structural one holds the traces it replaced in their place.
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::InvalidDelta`] when the delta does not fit the
    /// current state; [`WorkspaceError::Session`] for cancellation or a
    /// worker panic.
    pub fn edit(&mut self, delta: WorkspaceDelta) -> Result<DeltaReport, WorkspaceError> {
        let (inverse, report, replaced) = self.apply(&delta)?;
        self.undo.push(inverse);
        self.replaced = replaced;
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

    /// Reverts the most recent un-undone edit; returns `None` when the stack
    /// is empty.
    ///
    /// When that edit is structural and nothing has succeeded since, undo
    /// swaps back the traces the edit replaced and recomputes no mode
    /// (`recomputed_modes == 0`). Otherwise it applies the inverse delta
    /// through the same machinery as [`edit`](Self::edit), re-sweeping for
    /// a structural inverse. Either way it ends bit-identical to
    /// [`rebuilt`](Self::rebuilt).
    ///
    /// # Errors
    ///
    /// As for [`edit`](Self::edit); on error the undo entry is retained and
    /// the workspace unchanged.
    pub fn undo(&mut self) -> Result<Option<DeltaReport>, WorkspaceError> {
        let Some(inverse) = self.undo.pop() else { return Ok(None) };
        let undone = if self.replaced.is_some() {
            self.restore(&inverse)
        } else {
            self.apply(&inverse).map(|(_, report, _)| report)
        };
        undone.map(Some).inspect_err(|_| self.undo.push(inverse))
    }

    /// Undoes the structural edit whose inverse is `inverse` by committing
    /// the held traces that edit replaced under the ambient set the inverse
    /// leads back to. Runs no kernel call. The traces are still exact: undo
    /// is LIFO, so weights and the ambient set are back to what they were
    /// when the traces were swept (hardening only masks). On error the
    /// traces stay held.
    fn restore(&mut self, inverse: &WorkspaceDelta) -> Result<DeltaReport, WorkspaceError> {
        let ambient = self.structural_ambient(inverse)?;
        self.cancel.check()?;
        self.modes = self.replaced.take().expect("undo restores only when traces are held");
        self.commit_ambient(ambient);
        Ok(self.report(0))
    }

    /// Validates a delta and applies it; returns the inverse delta, the
    /// report, and for a structural delta the traces it replaced.
    fn apply(
        &mut self,
        delta: &WorkspaceDelta,
    ) -> Result<(WorkspaceDelta, DeltaReport, Option<Vec<ModeTrace>>), WorkspaceError> {
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
                Ok((WorkspaceDelta::Unharden { primitive }, self.report(0), None))
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
                Ok((WorkspaceDelta::Harden { primitive }, self.report(0), None))
            }
            WorkspaceDelta::SetWeights { instrument, obs, set } => {
                if instrument.index() >= self.net.instrument_count() {
                    return Err(WorkspaceError::InvalidDelta(format!(
                        "unknown instrument {instrument}"
                    )));
                }
                self.cancel.check()?;
                let old = (self.spec.obs_weight(instrument), self.spec.set_weight(instrument));
                self.spec.set_weights(instrument, obs, set);
                self.kernel.fold_weights(&self.net, &self.spec);
                // Arithmetic replay: every mode re-prices its lost records
                // under the new weights; no reachability runs.
                let kernel = &self.kernel;
                let mut recomputed = 0usize;
                for m in &mut self.modes {
                    let (obs, set) = kernel.lost_damages(&m.lost);
                    if (obs, set) != (m.damage.obs, m.damage.set) {
                        (m.damage.obs, m.damage.set) = (obs, set);
                        recomputed += 1;
                    }
                }
                self.reaggregate();
                let inverse = WorkspaceDelta::SetWeights { instrument, obs: old.0, set: old.1 };
                Ok((inverse, self.report(recomputed), None))
            }
            WorkspaceDelta::ExcludeSegment { segment } => {
                let replaced = self.resweep(self.structural_ambient(delta)?)?;
                let report = self.report(self.modes.len());
                Ok((WorkspaceDelta::IncludeSegment { segment }, report, Some(replaced)))
            }
            WorkspaceDelta::IncludeSegment { segment } => {
                let replaced = self.resweep(self.structural_ambient(delta)?)?;
                let report = self.report(self.modes.len());
                Ok((WorkspaceDelta::ExcludeSegment { segment }, report, Some(replaced)))
            }
        }
    }

    /// The ambient broken set (ascending) a structural delta leads to, once
    /// the delta is checked against the current state.
    fn structural_ambient(&self, delta: &WorkspaceDelta) -> Result<Vec<NodeId>, WorkspaceError> {
        match *delta {
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
                Ok(ambient)
            }
            WorkspaceDelta::IncludeSegment { segment } => {
                self.check_excludable(segment)?;
                if !self.excluded[segment.index()] {
                    return Err(WorkspaceError::InvalidDelta(format!(
                        "segment {segment} is not excluded"
                    )));
                }
                Ok(self.excluded_list.iter().copied().filter(|&s| s != segment).collect())
            }
            _ => Err(WorkspaceError::InvalidDelta(format!(
                "{} is not a structural delta",
                delta.kind()
            ))),
        }
    }

    fn report(&self, recomputed_modes: usize) -> DeltaReport {
        DeltaReport { recomputed_modes, total_damage: self.total_damage() }
    }

    fn check_primitive(&self, j: NodeId) -> Result<(), WorkspaceError> {
        if self.plan.primitives().binary_search(&j).is_ok() {
            Ok(())
        } else {
            Err(WorkspaceError::InvalidDelta(format!("node {j} is not a scan primitive")))
        }
    }

    fn check_excludable(&self, s: NodeId) -> Result<(), WorkspaceError> {
        self.check_primitive(s)?;
        if !self.net.node(s).kind.is_segment() {
            return Err(WorkspaceError::InvalidDelta(format!("node {s} is not a segment")));
        }
        if !self.plan.controlled().of(s).is_empty() {
            return Err(WorkspaceError::InvalidDelta(format!(
                "segment {s} controls multiplexers; exclusion is not supported for control cells"
            )));
        }
        Ok(())
    }

    /// A from-scratch rebuild of this workspace's current state: same
    /// network and plan, current spec, same hardened/excluded sets — but
    /// every mode evaluated by a full sweep instead of incremental replay.
    /// The oracle for the bit-identity property tests (its undo stack starts
    /// empty).
    ///
    /// # Errors
    ///
    /// [`WorkspaceError::Session`] for cancellation or a worker panic.
    pub fn rebuilt(&self) -> Result<Workspace, WorkspaceError> {
        let mut ws = Workspace::unswept(
            Arc::clone(&self.net),
            Arc::clone(&self.plan),
            self.spec.clone(),
            self.options,
            self.parallelism,
            self.cancel.clone(),
        )?;
        // Excluded segments join the ambient broken set of the initial
        // sweep itself, which is what makes this the from-scratch oracle.
        ws.hardened.clone_from(&self.hardened);
        ws.resweep(self.excluded_list.clone())?;
        Ok(ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_analysis::analyze_graph;
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

    /// The from-scratch sequential sweep a workspace must match.
    fn sweep(net: &ScanNetwork, spec: &CriticalitySpec) -> Criticality {
        let options = AnalysisOptions::default();
        let plan = AnalysisPlan::new(net, options.sib_policy);
        let (seq, none) = (Parallelism::sequential(), &CancelToken::none());
        analyze_graph(&plan, net, spec, options.mode, seq, none).unwrap()
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
        let expected = sweep(&net, &spec);
        for threads in [1usize, 4] {
            let ws = workspace(net.clone(), threads);
            let got = ws.criticality();
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
        let j = ws.criticality().primitives()[0];
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
        let j = ws.criticality().primitives()[0];
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
    fn saturating_weight_edit_matches_a_full_sweep() {
        // u64::MAX weights overflow any unchecked fold: the edited workspace
        // must clamp exactly like a from-scratch sweep of the edited spec.
        let mut ws = workspace(demo_net(), 1);
        let (i, _) = ws.network().instruments().next().expect("has instruments");
        ws.edit(WorkspaceDelta::SetWeights { instrument: i, obs: u64::MAX, set: u64::MAX })
            .expect("edit");
        let expected = sweep(ws.network(), ws.spec());
        assert_eq!(ws.criticality(), expected, "incremental == full sweep");
        assert_eq!(ws.total_damage(), expected.total_damage());
        let rebuilt = ws.rebuilt().expect("rebuild");
        assert_eq!(rebuilt.criticality(), expected, "rebuild == full sweep");
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
                ws.plan.controlled().of(s).is_empty() && ws.network().instrument_at(s).is_some()
            })
            .expect("plain segment");
        let report = ws.edit(WorkspaceDelta::ExcludeSegment { segment: seg }).expect("exclude");
        assert_eq!(
            report.recomputed_modes,
            ws.plan.mode_count(),
            "a structural edit re-sweeps every mode"
        );
        assert!(ws.is_excluded(seg));
        assert_eq!(ws.damage(seg), 0, "excluded segments are masked");
        let rebuilt = ws.rebuilt().expect("rebuild");
        assert_eq!(ws.summary(16), rebuilt.summary(16), "incremental == full sweep");
        ws.undo().expect("undo ok").expect("entry");
        assert_eq!(ws.summary(16), baseline_summary);
    }

    /// The plain (non-control-cell) segments of `ws`, ascending.
    fn plain_segments(ws: &Workspace) -> Vec<NodeId> {
        ws.network().segments().filter(|&s| ws.plan.controlled().of(s).is_empty()).collect()
    }

    fn summary_bytes(ws: &Workspace) -> String {
        serde_json::to_string(&ws.summary(16)).expect("serialize summary")
    }

    /// Asserts `ws` is bit-identical to a from-scratch rebuild of its state.
    fn assert_matches_rebuild(ws: &Workspace, step: &str) {
        let rebuilt = ws.rebuilt().expect("rebuild");
        assert_eq!(summary_bytes(ws), summary_bytes(&rebuilt), "after {step}");
        assert_eq!(ws.total_damage(), rebuilt.total_damage(), "after {step}");
    }

    #[test]
    fn undoing_an_exclude_restores_its_traces_without_a_sweep() {
        for threads in [1usize, 4] {
            let mut ws = workspace(demo_net(), threads);
            let (before, bytes) = (ws.total_damage(), summary_bytes(&ws));
            let seg = plain_segments(&ws)[0];
            let swept = ws.modes_swept();
            assert_eq!(swept, ws.plan.mode_count() as u64, "the initial sweep");
            ws.edit(WorkspaceDelta::ExcludeSegment { segment: seg }).expect("exclude");
            let undone = ws.undo().expect("undo ok").expect("entry");
            assert_eq!(undone.recomputed_modes, 0, "restored, not re-swept ({threads} threads)");
            assert_eq!(undone.total_damage, before);
            assert_eq!(summary_bytes(&ws), bytes, "byte-equal summary ({threads} threads)");
            assert!(!ws.is_excluded(seg));
            assert_eq!(
                ws.modes_swept(),
                swept + ws.plan.mode_count() as u64,
                "one sweep per exclude"
            );
            assert_matches_rebuild(&ws, "exclude, undo");
        }
    }

    /// One step of a scripted delta sequence over [`demo_net`].
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Excludes the n-th plain segment.
        Exclude(usize),
        /// Excludes the n-th plain segment under a cancelled token: fails.
        CancelledExclude(usize),
        /// Sets the first instrument's weights to `(w, w)`.
        Weights(u64),
        /// Hardens the last primitive.
        Harden,
        /// Undoes the newest edit; `resweeps` says whether that takes a
        /// full sweep (the held traces were dropped) or none.
        Undo { resweeps: bool },
    }

    /// Runs `steps` on fresh workspaces at 1 and 4 threads. After every step
    /// the workspace must match [`Workspace::rebuilt`]; once every edit is
    /// undone it must also be byte-equal to the fresh workspace.
    fn run_sequence(steps: &[Step]) {
        for threads in [1usize, 4] {
            let mut ws = workspace(demo_net(), threads);
            let fresh = summary_bytes(&ws);
            let plain = plain_segments(&ws);
            let modes = ws.plan.mode_count();
            let mut done: Vec<Step> = Vec::new();
            for (k, &step) in steps.iter().enumerate() {
                let at = format!("step {k} {step:?} ({threads} threads)");
                let swept = ws.modes_swept();
                match step {
                    Step::Exclude(n) => {
                        let segment = plain[n];
                        ws.edit(WorkspaceDelta::ExcludeSegment { segment }).expect(&at);
                    }
                    Step::CancelledExclude(n) => {
                        let cancel = CancelToken::new();
                        cancel.cancel();
                        ws.set_cancel_token(cancel);
                        let segment = plain[n];
                        let err = ws.edit(WorkspaceDelta::ExcludeSegment { segment });
                        ws.set_cancel_token(CancelToken::none());
                        assert_eq!(err.expect_err(&at).code(), "cancelled", "{at}");
                    }
                    Step::Weights(w) => {
                        let (instrument, _) =
                            ws.network().instruments().next().expect("instrument");
                        ws.edit(WorkspaceDelta::SetWeights { instrument, obs: w, set: w })
                            .expect(&at);
                    }
                    Step::Harden => {
                        let j = *ws.plan.primitives().last().expect("primitives");
                        ws.harden(j).expect(&at);
                    }
                    Step::Undo { resweeps } => {
                        let report = ws.undo().expect(&at).expect("entry");
                        let cost = if resweeps { modes } else { 0 };
                        assert_eq!(ws.modes_swept() - swept, cost as u64, "{at}");
                        // A weight edit's undo re-prices some modes; every
                        // other undo recomputes all of them or none.
                        if !matches!(done.pop(), Some(Step::Weights(_))) {
                            assert_eq!(report.recomputed_modes, cost, "{at}");
                        }
                    }
                }
                if !matches!(step, Step::Undo { .. } | Step::CancelledExclude(_)) {
                    done.push(step);
                }
                assert_matches_rebuild(&ws, &at);
            }
            if ws.undo_depth() == 0 {
                assert_eq!(summary_bytes(&ws), fresh, "fully undone ({threads} threads)");
            }
        }
    }

    #[test]
    fn undo_after_a_second_exclude_restores_then_resweeps() {
        run_sequence(&[
            Step::Exclude(0),
            Step::Exclude(1),
            Step::Undo { resweeps: false },
            Step::Undo { resweeps: true },
        ]);
        // A re-sweeping undo holds nothing for the undo below it.
        run_sequence(&[
            Step::Exclude(0),
            Step::Exclude(1),
            Step::Exclude(2),
            Step::Undo { resweeps: false },
            Step::Undo { resweeps: true },
            Step::Undo { resweeps: true },
        ]);
    }

    #[test]
    fn weight_edit_after_an_exclude_drops_the_held_traces() {
        for w in [91, u64::MAX] {
            run_sequence(&[
                Step::Exclude(0),
                Step::Weights(w),
                Step::Undo { resweeps: false },
                Step::Undo { resweeps: true },
            ]);
        }
    }

    #[test]
    fn harden_after_an_exclude_drops_the_held_traces() {
        run_sequence(&[
            Step::Exclude(0),
            Step::Harden,
            Step::Undo { resweeps: false },
            Step::Undo { resweeps: true },
        ]);
    }

    #[test]
    fn a_cancelled_exclude_keeps_the_held_traces() {
        run_sequence(&[
            Step::Exclude(0),
            Step::CancelledExclude(1),
            Step::Undo { resweeps: false },
        ]);
    }

    #[test]
    fn excluding_a_control_cell_is_rejected() {
        let mut ws = workspace(demo_net(), 1);
        let cell = ws
            .network()
            .segments()
            .find(|&s| !ws.plan.controlled().of(s).is_empty())
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
            .find(|&s| ws.plan.controlled().of(s).is_empty())
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
}
