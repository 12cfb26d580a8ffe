//! Operational fault-simulation campaign that cross-validates the exact
//! criticality analysis against the bit-level CSU simulator.
//!
//! For every single-fault mode the analysis enumerates (the canonical
//! [`graph_analysis`](crate::graph_analysis) enumeration, shared via
//! `for_each_mode`), the campaign:
//!
//! 1. computes the analytical claim per instrument (observable / settable)
//!    from the lane engine's lost-segment trace
//!    ([`graph_analysis::batch`](crate::graph_analysis::batch)), cross-checked
//!    per mode against the independent `Vec<bool>` oracle
//!    ([`reference::mode_damage`]);
//! 2. configures a fault-free [`Simulator`] so the fault's frozen selects are
//!    latched, **injects the fault**, and replays access patterns: cover
//!    configurations that put many instruments on the active path at once,
//!    plus per-instrument breadth-first fallbacks for anything the covers
//!    miss;
//! 3. classifies each instrument as operationally *retained* (its probe data
//!    round-trips through a real capture–shift–update cycle) or *lost*, and
//!    diffs that against the analytical claim;
//! 4. aggregates the per-mode operational damages exactly like the analysis
//!    ([`ModeAggregation`]) and diffs
//!    the damage vector bit-for-bit against
//!    [`analyze_graph`].
//!
//! The analytical side is one traced lane sweep over the canonical mode
//! table of the caller's [`AnalysisPlan`]; the operational side shards over primitives with
//! [`par`] — claimed indices, one reusable [`Simulator`] per
//! worker — so the report is bit-identical at every thread count. Any
//! disagreement is reported with the offending network, fault mode, and
//! instrument attached.
//!
//! What "operationally lost" means per [`AccessKind`]: the fault strikes a
//! *configured* network. A configuration is established with real retargeting
//! CSU cycles before injection (so control-cell latches hold the values the
//! fault freezes), the fault is injected, post-fault retargeting is attempted
//! best-effort, and one final CSU cycle both captures every on-path
//! instrument and shifts chosen data into every on-path instrument segment:
//!
//! * **Observe**: retained iff the instrument's captured probe word arrives
//!   intact in its window of the scan-out stream — any broken segment between
//!   the instrument and scan-out zeroes the window;
//! * **Control**: retained iff the shifted-in probe word is delivered to the
//!   instrument by the update — any broken segment between scan-in and the
//!   instrument zeroes the payload, and a broken instrument segment ignores
//!   its update.

use serde::{Deserialize, Serialize};

use rsn_model::{
    active_path_with, AccessKind, Config, ControlSource, Fault, InstrumentId, NodeId, NodeKind,
    ScanNetwork, SimError, Simulator,
};

use crate::cancel::CancelToken;
use crate::criticality::ModeAggregation;
use crate::graph_analysis::{
    aggregate_mode_damages, analyze_graph, reference, sweep_blocks, AnalysisError,
    GraphCriticality, ModeTrace, ReachKernel,
};
use crate::par::{self, Parallelism};
use crate::plan::{AnalysisPlan, ModeTable};
use crate::spec::CriticalitySpec;

/// Maximum number of [`Disagreement`]s embedded in a report; the full count
/// is always in [`ValidationReport::total_disagreements`].
pub const MAX_REPORTED_DISAGREEMENTS: usize = 64;

/// Per-primitive cap on embedded disagreements, so one catastrophically
/// wrong primitive cannot crowd every other out of the report.
const MAX_DISAGREEMENTS_PER_PRIMITIVE: usize = 8;

/// Outcome of a fault-simulation campaign: counters plus every
/// analysis/simulation disagreement found (bounded; see
/// [`MAX_REPORTED_DISAGREEMENTS`]).
///
/// The report is deterministic — no timestamps, no thread counts — so equal
/// inputs produce byte-identical serialized reports at every `RSN_THREADS`
/// setting, which the `rsn-serve` response cache relies on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Name of the validated network.
    pub network: String,
    /// Number of fault primitives (segments and multiplexers) swept.
    pub primitives: usize,
    /// Total fault modes enumerated across all primitives.
    pub modes: usize,
    /// Modes that were operationally simulated.
    pub simulated_modes: usize,
    /// Modes skipped because a frozen select ≥ 2 on a single-bit control
    /// cell cannot be realized operationally (the analytical damage is used
    /// for aggregation so the damage diff stays meaningful).
    pub skipped_unrealizable_modes: usize,
    /// Total simulator replays (cover configurations plus fallbacks).
    pub replays: usize,
    /// Best-effort retarget attempts that did not converge (expected under
    /// faults that sever control cells; replays continue degraded).
    pub failed_retargets: usize,
    /// Claimed-accessible (instrument, access) pairs for which no realizable
    /// configuration could be planned; the analytical claim is kept and
    /// counted here instead of being reported as a disagreement.
    pub unverifiable_pairs: usize,
    /// Individual (instrument, access, mode) operational classifications.
    pub instrument_checks: usize,
    /// Total damage of the analytical sweep ([`GraphCriticality`]).
    pub analysis_total_damage: u64,
    /// Total damage of the operational campaign, aggregated identically.
    pub operational_total_damage: u64,
    /// Full number of disagreements found (may exceed `disagreements.len()`).
    pub total_disagreements: usize,
    /// The first [`MAX_REPORTED_DISAGREEMENTS`] disagreements, in primitive
    /// order — each one is a reproducible bug report.
    pub disagreements: Vec<Disagreement>,
}

impl ValidationReport {
    /// `true` when analysis and simulation agree everywhere.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_disagreements == 0
    }
}

/// One analysis/simulation disagreement: everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Disagreement {
    /// Display label of the faulty primitive (node name or `n<id>`).
    pub primitive: String,
    /// Index of the fault mode within the primitive's canonical enumeration.
    pub mode_index: usize,
    /// Human-readable fault description (e.g. `"segment s.cell broken,
    /// frozen m=1"`).
    pub fault: String,
    /// The instrument the disagreement is about, if instrument-level.
    pub instrument: Option<String>,
    /// `"observe"` or `"control"` for instrument-level disagreements.
    pub access: Option<String>,
    /// Damage the analysis assigns to this mode (or primitive, for
    /// aggregate-level entries).
    pub analysis_damage: u64,
    /// Damage the operational campaign measured.
    pub operational_damage: u64,
    /// What exactly diverged.
    pub detail: String,
}

/// Runs the fault-simulation campaign. See the [module docs](self).
///
/// Each primitive's campaign is an independent deterministic computation
/// (the worker simulator is fully reset per replay), so the report is
/// bit-identical at every thread count. The token is threaded through the
/// underlying analysis sweep (see [`analyze_graph`]) and polled once per
/// primitive inside the sharded simulation campaign, so a fired deadline
/// interrupts the campaign within one primitive's replays per worker;
/// worker panics are caught at the shard boundary.
///
/// # Errors
///
/// [`AnalysisError::Cancelled`] when `cancel` fires mid-campaign;
/// [`AnalysisError::WorkerPanicked`] when a shard panics;
/// [`AnalysisError::NetworkTooLarge`] when the network exceeds the kernel's
/// index space.
pub fn validate_criticality(
    plan: &AnalysisPlan,
    net: &ScanNetwork,
    spec: &CriticalitySpec,
    mode: ModeAggregation,
    parallelism: Parallelism,
    cancel: &CancelToken,
) -> Result<ValidationReport, AnalysisError> {
    let analysis = analyze_graph(plan, net, spec, mode, parallelism, cancel)?;
    let kernel = plan.kernel(net, spec)?;
    let table = plan.table();
    // The analytical claims of every mode, from one traced lane sweep.
    let traces: Vec<ModeTrace> = sweep_blocks(
        &kernel,
        table,
        0..table.len(),
        &[],
        parallelism,
        cancel,
        ReachKernel::eval_traced,
    )?;
    let campaign = Campaign::new(net, spec, mode, &analysis, &kernel, table, &traces);
    let primitives = plan.primitives();
    let campaign = &campaign;
    let outcomes: Vec<Outcome> = par::try_map_indexed_scratch(
        parallelism,
        primitives.len(),
        || (Worker::new(campaign), cancel.checkpoint(4)),
        |(worker, cp), pos| -> Result<Outcome, AnalysisError> {
            cp.tick()?;
            Ok(campaign.run_primitive(worker, pos, primitives[pos]))
        },
    )?;
    Ok(merge_outcomes(net, &analysis, primitives.len(), outcomes))
}

/// Folds per-primitive outcomes into the final report, in primitive order.
fn merge_outcomes(
    net: &ScanNetwork,
    analysis: &GraphCriticality,
    primitives: usize,
    outcomes: Vec<Outcome>,
) -> ValidationReport {
    let mut report = ValidationReport {
        network: net.name().to_string(),
        primitives,
        modes: 0,
        simulated_modes: 0,
        skipped_unrealizable_modes: 0,
        replays: 0,
        failed_retargets: 0,
        unverifiable_pairs: 0,
        instrument_checks: 0,
        analysis_total_damage: analysis.total_damage(),
        operational_total_damage: 0,
        total_disagreements: 0,
        disagreements: Vec::new(),
    };
    for outcome in outcomes {
        report.modes += outcome.modes;
        report.simulated_modes += outcome.simulated_modes;
        report.skipped_unrealizable_modes += outcome.skipped_unrealizable_modes;
        report.replays += outcome.replays;
        report.failed_retargets += outcome.failed_retargets;
        report.unverifiable_pairs += outcome.unverifiable_pairs;
        report.instrument_checks += outcome.instrument_checks;
        report.operational_total_damage += outcome.sim_damage;
        report.total_disagreements += outcome.total_disagreements;
        for d in outcome.disagreements {
            if report.disagreements.len() < MAX_REPORTED_DISAGREEMENTS {
                report.disagreements.push(d);
            }
        }
    }
    report
}

/// Immutable campaign state shared by all workers.
struct Campaign<'a> {
    net: &'a ScanNetwork,
    spec: &'a CriticalitySpec,
    /// How each primitive's mode damages fold into its damage.
    mode: ModeAggregation,
    analysis: &'a GraphCriticality,
    kernel: &'a ReachKernel,
    /// The canonical mode table; group `pos` holds the modes of the
    /// `pos`-th primitive.
    table: &'a ModeTable,
    /// The lane engine's trace of every mode in `table`.
    traces: &'a [ModeTrace],
    /// Probe word per instrument (bit 0 always set, so a zeroed window or
    /// payload can never be mistaken for a delivered probe).
    probes: Vec<Vec<bool>>,
    /// Instrument segment per instrument id.
    inst_segs: Vec<NodeId>,
    /// Cover-configuration variants: one per direct-mux input index.
    variants: u16,
    /// Upper bound for retargeting rounds.
    rounds: usize,
}

/// Per-worker mutable state, reused across the worker's whole shard.
struct Worker<'a> {
    sim: Simulator<'a>,
    op_obs: Vec<bool>,
    op_set: Vec<bool>,
    /// Scan-path bit offset per segment node for the current replay
    /// (`usize::MAX` = not on the active path); cleared after each replay.
    seg_start: Vec<usize>,
}

impl<'a> Worker<'a> {
    fn new(campaign: &Campaign<'a>) -> Self {
        let n = campaign.net.instrument_count();
        Self {
            sim: Simulator::new(campaign.net),
            op_obs: vec![false; n],
            op_set: vec![false; n],
            seg_start: vec![usize::MAX; campaign.net.node_count()],
        }
    }
}

/// Counters and findings for one primitive.
struct Outcome {
    modes: usize,
    simulated_modes: usize,
    skipped_unrealizable_modes: usize,
    replays: usize,
    failed_retargets: usize,
    unverifiable_pairs: usize,
    instrument_checks: usize,
    sim_damage: u64,
    total_disagreements: usize,
    disagreements: Vec<Disagreement>,
}

/// One fault mode, in both analytical (`broken`/`frozen`) and operational
/// (`faults` to inject, forced selects) form.
struct Mode<'m> {
    /// The faulty primitive this mode belongs to.
    primitive: NodeId,
    index: usize,
    broken: &'m [NodeId],
    frozen: &'m [(NodeId, usize)],
    faults: Vec<Fault>,
}

impl<'a> Campaign<'a> {
    fn new(
        net: &'a ScanNetwork,
        spec: &'a CriticalitySpec,
        mode: ModeAggregation,
        analysis: &'a GraphCriticality,
        kernel: &'a ReachKernel,
        table: &'a ModeTable,
        traces: &'a [ModeTrace],
    ) -> Self {
        let probes: Vec<Vec<bool>> = net
            .instruments()
            .map(|(i, inst)| {
                let w = net.segment_len(inst.segment()) as usize;
                (0..w).map(|b| b == 0 || (i.index() + b) % 3 == 0).collect()
            })
            .collect();
        let inst_segs: Vec<NodeId> = net.instruments().map(|(_, inst)| inst.segment()).collect();
        let variants = net
            .muxes()
            .filter_map(|m| net.node(m).kind.as_mux())
            .filter(|x| x.control == ControlSource::Direct)
            .map(|x| x.fan_in() as u16)
            .max()
            .unwrap_or(1);
        Self {
            net,
            spec,
            mode,
            analysis,
            kernel,
            table,
            traces,
            probes,
            inst_segs,
            variants,
            rounds: net.muxes().count() + 2,
        }
    }

    fn fan_in(&self, m: NodeId) -> u16 {
        self.net.node(m).kind.as_mux().expect("mux").fan_in() as u16
    }

    fn is_cell_controlled(&self, m: NodeId) -> bool {
        matches!(
            self.net.node(m).kind.as_mux().map(|x| x.control),
            Some(ControlSource::Cell { .. })
        )
    }

    fn node_label(&self, n: NodeId) -> String {
        self.net.node(n).name.clone().unwrap_or_else(|| format!("n{n}"))
    }

    fn mode_label(&self, mode: &Mode<'_>) -> String {
        if let Some(Fault { node, kind: rsn_model::FaultKind::MuxStuckAt(p) }) =
            mode.faults.first().copied()
        {
            return format!("mux {} stuck at port {p}", self.node_label(node));
        }
        let seg = mode.broken.first().copied().expect("segment mode");
        if mode.frozen.is_empty() {
            format!("segment {} broken", self.node_label(seg))
        } else {
            let sels: Vec<String> =
                mode.frozen.iter().map(|&(m, s)| format!("{}={s}", self.node_label(m))).collect();
            format!("segment {} broken, frozen {}", self.node_label(seg), sels.join(","))
        }
    }

    /// Runs the whole campaign for primitive `j`, the `pos`-th primitive.
    fn run_primitive(&self, worker: &mut Worker<'a>, pos: usize, j: NodeId) -> Outcome {
        let mut outcome = Outcome {
            modes: 0,
            simulated_modes: 0,
            skipped_unrealizable_modes: 0,
            replays: 0,
            failed_retargets: 0,
            unverifiable_pairs: 0,
            instrument_checks: 0,
            sim_damage: 0,
            total_disagreements: 0,
            disagreements: Vec::new(),
        };
        let modes = self.table.group(pos);
        let mut sim_mode_damages = Vec::with_capacity(modes.len());
        for (index, m) in modes.enumerate() {
            let (broken, frozen) = self.table.mode(m);
            let faults = if matches!(self.net.node(j).kind, NodeKind::Mux(_)) {
                let (_, p) = frozen[0];
                vec![Fault::mux_stuck_at(j, p as u16)]
            } else {
                vec![Fault::broken_segment(j)]
            };
            let mode = Mode { primitive: j, index, broken, frozen, faults };
            sim_mode_damages.push(self.run_mode(worker, j, &mode, &self.traces[m], &mut outcome));
        }
        outcome.modes = sim_mode_damages.len();
        let aggregated = aggregate_mode_damages(self.mode, &sim_mode_damages);
        outcome.sim_damage = aggregated;
        let analytical = self.analysis.damage(j);
        if aggregated != analytical {
            push_disagreement(
                &mut outcome,
                Disagreement {
                    primitive: self.node_label(j),
                    mode_index: usize::MAX,
                    fault: format!("all {} modes aggregated", sim_mode_damages.len()),
                    instrument: None,
                    access: None,
                    analysis_damage: analytical,
                    operational_damage: aggregated,
                    detail: "aggregated operational damage diverges from analyze_graph".to_string(),
                },
            );
        }
        outcome
    }

    /// Evaluates one fault mode; returns the operational mode damage.
    fn run_mode(
        &self,
        worker: &mut Worker<'a>,
        j: NodeId,
        mode: &Mode<'_>,
        trace: &ModeTrace,
        outcome: &mut Outcome,
    ) -> u64 {
        // Analytical claims, decoded from the batched mode-major trace: a
        // dead segment is never accessible; a live segment is accessible in
        // each direction unless the trace lists it as lost there.
        let n_inst = self.net.instrument_count();
        let mut obs_claim = vec![false; n_inst];
        let mut set_claim = vec![false; n_inst];
        for (i, inst) in self.net.instruments() {
            let t = inst.segment();
            let (obs, set) = if !self.kernel.is_live_segment(t.index()) {
                (false, false)
            } else {
                match trace.lost.binary_search_by_key(&(t.index() as u32), |r| r.segment) {
                    Ok(k) => (!trace.lost[k].lost_obs, !trace.lost[k].lost_set),
                    Err(_) => (true, true),
                }
            };
            obs_claim[i.index()] = obs;
            set_claim[i.index()] = set;
        }
        let claims_damage = trace.obs_damage + trace.set_damage;

        // Differential check: the `Vec<bool>` oracle must agree with the
        // lane evaluation bit for bit.
        let oracle_damage = reference::mode_damage(self.net, self.spec, mode.broken, mode.frozen);
        if oracle_damage != claims_damage {
            push_disagreement(
                outcome,
                Disagreement {
                    primitive: self.node_label(j),
                    mode_index: mode.index,
                    fault: self.mode_label(mode),
                    instrument: None,
                    access: None,
                    analysis_damage: oracle_damage,
                    operational_damage: claims_damage,
                    detail: "batch kernel damage diverges from the reference reachability"
                        .to_string(),
                },
            );
        }

        // A frozen select ≥ 2 on a single-bit control cell can never be
        // latched, so the mode has no operational counterpart.
        let unrealizable = mode
            .frozen
            .iter()
            .any(|&(m, s)| s >= 2 && self.is_cell_controlled(m) && !self.is_stuck(mode, m));
        if unrealizable {
            outcome.skipped_unrealizable_modes += 1;
            return claims_damage;
        }
        outcome.simulated_modes += 1;

        // Operational classification: cover replays, then per-pair fallbacks.
        worker.op_obs.iter_mut().for_each(|b| *b = false);
        worker.op_set.iter_mut().for_each(|b| *b = false);
        let forced = self.forced_selects(mode);
        // The first replay of the mode resets the simulator, primes the
        // configuration, and injects the faults; later replays reuse that
        // state and only re-prime selects (probe inputs and the fault set
        // are per-mode constants).
        let mut fresh = true;
        for v in 0..self.variants {
            let plain = self.plan_cover(&forced, v, mode.broken, false);
            if let Some(sel) = &plain {
                self.replay(worker, sel, mode, outcome, &mut fresh);
            }
            if !mode.broken.is_empty() {
                if let Some(sel) = self.plan_cover(&forced, v, mode.broken, true) {
                    // Replay the repaired variant only when the repair
                    // actually rerouted something.
                    if plain.as_ref() != Some(&sel) {
                        self.replay(worker, &sel, mode, outcome, &mut fresh);
                    }
                }
            }
        }
        for i in 0..n_inst {
            let inst = InstrumentId::new(i);
            if obs_claim[i] && !worker.op_obs[i] {
                match self.plan_pair(&forced, mode, inst, AccessKind::Observe) {
                    Some(sel) => self.replay(worker, &sel, mode, outcome, &mut fresh),
                    None => {
                        outcome.unverifiable_pairs += 1;
                        worker.op_obs[i] = true;
                    }
                }
            }
            if set_claim[i] && !worker.op_set[i] {
                match self.plan_pair(&forced, mode, inst, AccessKind::Control) {
                    Some(sel) => self.replay(worker, &sel, mode, outcome, &mut fresh),
                    None => {
                        outcome.unverifiable_pairs += 1;
                        worker.op_set[i] = true;
                    }
                }
            }
        }

        // Diff operational classification against the analytical claims.
        let mut sim_damage = 0u64;
        for (i, _) in self.net.instruments() {
            let ix = i.index();
            if !worker.op_obs[ix] {
                sim_damage += self.spec.obs_weight(i);
            }
            if !worker.op_set[ix] {
                sim_damage += self.spec.set_weight(i);
            }
            for (claim, op, kind) in [
                (obs_claim[ix], worker.op_obs[ix], AccessKind::Observe),
                (set_claim[ix], worker.op_set[ix], AccessKind::Control),
            ] {
                if claim != op {
                    let what = if claim {
                        "analysis claims the access survives, but no replay demonstrated it"
                    } else {
                        "a replay demonstrated an access the analysis claims is lost"
                    };
                    push_disagreement(
                        outcome,
                        Disagreement {
                            primitive: self.node_label(j),
                            mode_index: mode.index,
                            fault: self.mode_label(mode),
                            instrument: Some(self.node_label(self.inst_segs[ix])),
                            access: Some(access_label(kind).to_string()),
                            analysis_damage: claims_damage,
                            operational_damage: u64::MAX,
                            detail: what.to_string(),
                        },
                    );
                }
            }
        }
        sim_damage
    }

    fn is_stuck(&self, mode: &Mode<'_>, m: NodeId) -> bool {
        mode.faults
            .iter()
            .any(|f| f.node == m && matches!(f.kind, rsn_model::FaultKind::MuxStuckAt(_)))
    }

    /// The post-injection forced select per mux: stuck-at value for mux
    /// modes, latched frozen value for control-cell modes.
    fn forced_selects(&self, mode: &Mode<'_>) -> Vec<Option<u16>> {
        let mut forced = vec![None; self.net.node_count()];
        for &(m, s) in mode.frozen {
            forced[m.index()] = Some(s as u16);
        }
        forced
    }

    /// Plans a cover configuration: direct muxes select input `v` (clamped),
    /// every unforced SIB is opened (selects of off-path muxes are inert, so
    /// opening everything yields the maximal active path in one shot), and —
    /// when `repair` is set — selects are greedily flipped to route the
    /// active path around broken segments. Returns the post-injection select
    /// map.
    fn plan_cover(
        &self,
        forced: &[Option<u16>],
        v: u16,
        broken: &[NodeId],
        repair: bool,
    ) -> Option<Vec<u16>> {
        let mut sel = vec![0u16; self.net.node_count()];
        for m in self.net.muxes() {
            sel[m.index()] = match forced[m.index()] {
                Some(s) => s,
                None if self.is_cell_controlled(m) => 1,
                None => v.min(self.fan_in(m) - 1),
            };
        }
        if repair {
            self.repair_cover(&mut sel, forced, broken);
        }
        Some(sel)
    }

    /// Greedy local repair: while a broken segment sits on the active path,
    /// flip the select of some multiplexer downstream of it so the path
    /// routes around it. Gives up silently (fallback planning still runs).
    fn repair_cover(&self, sel: &mut [u16], forced: &[Option<u16>], broken: &[NodeId]) {
        for _ in 0..self.net.muxes().count().max(1) {
            let Ok(path) = active_path_with(self.net, |m| sel[m.index()]) else { return };
            let Some(pos) = path.nodes().iter().position(|n| broken.contains(n)) else { return };
            let bad = path.nodes()[pos];
            let mut fixed = false;
            for &m in &path.nodes()[pos + 1..] {
                if !matches!(self.net.node(m).kind, NodeKind::Mux(_)) || forced[m.index()].is_some()
                {
                    continue;
                }
                let alts = if self.is_cell_controlled(m) { 2 } else { self.fan_in(m) };
                let current = sel[m.index()];
                for alt in 0..alts {
                    if alt == current {
                        continue;
                    }
                    sel[m.index()] = alt;
                    match active_path_with(self.net, |x| sel[x.index()]) {
                        Ok(p) if !p.contains(bad) => {
                            fixed = true;
                            break;
                        }
                        _ => sel[m.index()] = current,
                    }
                }
                if fixed {
                    break;
                }
            }
            if !fixed {
                return;
            }
        }
    }

    /// Plans a configuration for one claimed-accessible (instrument, access)
    /// pair by breadth-first search in the pruned graph: the path segment on
    /// the side the data travels must avoid broken segments. Returns `None`
    /// when no operationally realizable route exists.
    fn plan_pair(
        &self,
        forced: &[Option<u16>],
        mode: &Mode<'_>,
        inst: InstrumentId,
        kind: AccessKind,
    ) -> Option<Vec<u16>> {
        let target = self.inst_segs[inst.index()];
        let (clean_prefix, clean_suffix) = match kind {
            AccessKind::Observe => (false, true),
            AccessKind::Control => (true, false),
        };
        let prefix = self.bfs_route(mode, self.net.scan_in(), target, clean_prefix)?;
        let suffix = self.bfs_route(mode, target, self.net.scan_out(), clean_suffix)?;
        let mut sel = vec![0u16; self.net.node_count()];
        for m in self.net.muxes() {
            if let Some(s) = forced[m.index()] {
                sel[m.index()] = s;
            }
        }
        for route in [&prefix, &suffix] {
            for w in route.windows(2) {
                let (a, b) = (w[0], w[1]);
                if let NodeKind::Mux(mx) = &self.net.node(b).kind {
                    let p = mx.inputs.iter().position(|&i| i == a)? as u16;
                    if forced[b.index()].is_none() {
                        sel[b.index()] = p;
                    }
                }
            }
        }
        Some(sel)
    }

    /// BFS from `from` to `to` along graph edges, honoring the mode's frozen
    /// selects, skipping broken segments when `clean`, and never routing a
    /// non-stuck single-bit-cell mux through an input ≥ 2 (unrealizable).
    /// Returns the node route in scan order.
    fn bfs_route(
        &self,
        mode: &Mode<'_>,
        from: NodeId,
        to: NodeId,
        clean: bool,
    ) -> Option<Vec<NodeId>> {
        let n = self.net.node_count();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut visited = vec![false; n];
        visited[from.index()] = true;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                let mut route = vec![to];
                let mut c = to;
                while c != from {
                    let p = parent[c.index()].expect("BFS reached goal");
                    route.push(p);
                    c = p;
                }
                route.reverse();
                return Some(route);
            }
            for &nx in self.net.successors(cur) {
                if visited[nx.index()] || (clean && mode.broken.contains(&nx)) {
                    continue;
                }
                if let NodeKind::Mux(mx) = &self.net.node(nx).kind {
                    let p = mx.inputs.iter().position(|&i| i == cur);
                    let Some(p) = p else { continue };
                    match forced_edge(mode, nx) {
                        Some(fp) if fp != p => continue,
                        None if p >= 2
                            && self.is_cell_controlled(nx)
                            && !self.is_stuck(mode, nx) =>
                        {
                            continue
                        }
                        _ => {}
                    }
                }
                visited[nx.index()] = true;
                parent[nx.index()] = Some(cur);
                queue.push_back(nx);
            }
        }
        None
    }

    /// Replays one configuration under the fault mode and classifies every
    /// on-path instrument. `sel` is the post-injection select map; `fresh`
    /// is true for the mode's first replay (reset + inject + probe load).
    fn replay(
        &self,
        worker: &mut Worker<'a>,
        sel: &[u16],
        mode: &Mode<'_>,
        outcome: &mut Outcome,
        fresh: &mut bool,
    ) {
        outcome.replays += 1;
        let was_fresh = std::mem::replace(fresh, false);
        if let Err(err) = self.replay_inner(worker, sel, mode, outcome, was_fresh) {
            // A failed fresh replay leaves the mode set-up incomplete; make
            // the next replay start over.
            *fresh = true;
            push_disagreement(
                outcome,
                Disagreement {
                    primitive: self.node_label(mode.primitive),
                    mode_index: mode.index,
                    fault: self.mode_label(mode),
                    instrument: None,
                    access: None,
                    analysis_damage: 0,
                    operational_damage: 0,
                    detail: format!("simulator error during replay: {err}"),
                },
            );
        }
    }

    fn replay_inner(
        &self,
        worker: &mut Worker<'a>,
        sel: &[u16],
        mode: &Mode<'_>,
        outcome: &mut Outcome,
        fresh: bool,
    ) -> Result<(), SimError> {
        let Worker { sim, op_obs, op_set, seg_start, .. } = worker;
        if fresh {
            sim.reset();
        }
        // Pre-injection: establish the configuration fault-free by priming
        // control state directly (the analysis claims are about static
        // configurations, not about reachability through CSU retargeting —
        // retargeting itself is exercised post-injection and by the model
        // tests). Stuck-at values a 1-bit cell cannot hold are primed as 0 —
        // the fault realizes them. Re-priming after injection only rewrites
        // frozen cells with the identical forced values (every planned `sel`
        // embeds the mode's frozen selects), so fault semantics are kept.
        let mut cell_buf: Vec<bool> = Vec::new();
        for m in self.net.muxes() {
            let desired = if self.is_stuck(mode, m) && self.is_cell_controlled(m) {
                u16::from(sel[m.index()] == 1)
            } else {
                sel[m.index()]
            };
            match self.net.node(m).kind.as_mux().expect("mux").control {
                ControlSource::Direct => sim.set_direct_select(m, desired)?,
                ControlSource::Cell { segment, bit } => {
                    cell_buf.clear();
                    cell_buf.extend_from_slice(sim.latch(segment)?);
                    cell_buf[bit as usize] = desired != 0;
                    sim.load_register(segment, &cell_buf)?;
                }
            }
        }
        if fresh {
            for &f in &mode.faults {
                sim.inject(f)?;
            }
            for (i, _) in self.net.instruments() {
                sim.set_instrument_data(i, &self.probes[i.index()])?;
            }
        }
        // Post-injection: best-effort retarget toward the planned selects
        // (e.g. opening a SIB that only became reachable through the stuck
        // port). Failure is expected when a fault severs a control cell.
        let c_post = self.config_from(|m| sel[m.index()])?;
        if sim.retarget(&c_post, self.rounds).is_err() {
            outcome.failed_retargets += 1;
        }
        sim.capture()?;
        let path = sim.active_path()?;
        // O(1) segment→offset lookups for this replay (segment_range is a
        // linear scan, too slow for instruments × replays).
        let mut pos = 0usize;
        for &seg in path.segments() {
            seg_start[seg.index()] = pos;
            pos += self.net.segment_len(seg) as usize;
        }
        let mut image = vec![false; path.bit_len()];
        for &seg in path.segments() {
            let latch = sim.latch(seg)?;
            let start = seg_start[seg.index()];
            image[start..start + latch.len()].copy_from_slice(latch);
        }
        for (i, inst) in self.net.instruments() {
            let start = seg_start[inst.segment().index()];
            if start != usize::MAX {
                let probe = &self.probes[i.index()];
                image[start..start + probe.len()].copy_from_slice(probe);
            }
        }
        let out = sim.shift(&path.to_shift_sequence(&image))?;
        sim.update()?;
        let observed = path.from_shift_sequence(&out);
        for (i, inst) in self.net.instruments() {
            let start = seg_start[inst.segment().index()];
            if start == usize::MAX {
                continue;
            }
            outcome.instrument_checks += 2;
            let probe = &self.probes[i.index()];
            if observed[start..start + probe.len()] == probe[..] {
                op_obs[i.index()] = true;
            }
            if *sim.instrument_output(i)? == probe[..] {
                op_set[i.index()] = true;
            }
        }
        for &seg in path.segments() {
            seg_start[seg.index()] = usize::MAX;
        }
        Ok(())
    }

    /// Builds a validated [`Config`] from a select map.
    fn config_from(&self, pick: impl Fn(NodeId) -> u16) -> Result<Config, SimError> {
        let mut config = Config::new(self.net);
        for m in self.net.muxes() {
            config.set_select(self.net, m, pick(m))?;
        }
        Ok(config)
    }
}

/// The frozen select of `m` under the mode, if any.
fn forced_edge(mode: &Mode<'_>, m: NodeId) -> Option<usize> {
    mode.frozen.iter().find(|&&(fm, _)| fm == m).map(|&(_, s)| s)
}

fn access_label(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Observe => "observe",
        AccessKind::Control => "control",
    }
}

fn push_disagreement(outcome: &mut Outcome, d: Disagreement) {
    outcome.total_disagreements += 1;
    if outcome.disagreements.len() < MAX_DISAGREEMENTS_PER_PRIMITIVE {
        outcome.disagreements.push(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_model::{InstrumentKind, Structure};

    fn soc_like() -> ScanNetwork {
        Structure::series(vec![
            Structure::seg("head", 2),
            Structure::sib(
                "s0",
                Structure::series(vec![
                    Structure::instrument_seg("i0", 3, InstrumentKind::Sensor),
                    Structure::sib("s1", Structure::instrument_seg("i1", 2, InstrumentKind::Bist)),
                ]),
            ),
            Structure::parallel(
                vec![
                    Structure::instrument_seg("i2", 4, InstrumentKind::RuntimeAdaptive),
                    Structure::instrument_seg("i3", 2, InstrumentKind::Debug),
                ],
                "m0",
            ),
            Structure::instrument_seg("i4", 2, InstrumentKind::Generic),
        ])
        .build("soc-like")
        .unwrap()
        .0
    }

    /// The campaign on `soc_like` with kind weights and default options.
    fn campaign(threads: usize) -> ValidationReport {
        let net = soc_like();
        let spec = CriticalitySpec::from_kinds(&net);
        let plan = AnalysisPlan::new(&net, crate::criticality::SibCellPolicy::default());
        let (mode, par) = (ModeAggregation::default(), Parallelism::new(threads));
        validate_criticality(&plan, &net, &spec, mode, par, &CancelToken::none()).unwrap()
    }

    #[test]
    fn campaign_is_clean_on_a_mixed_network() {
        let report = campaign(1);
        assert!(report.is_clean(), "disagreements: {:?}", report.disagreements);
        assert_eq!(report.operational_total_damage, report.analysis_total_damage);
        assert!(report.simulated_modes > 0);
        assert!(report.instrument_checks > 0);
    }

    #[test]
    fn campaign_is_bit_identical_across_thread_counts() {
        assert_eq!(campaign(1), campaign(4));
    }

    #[test]
    fn campaign_counts_modes_like_the_analysis() {
        let report = campaign(1);
        // Every primitive contributes at least one mode; SIB muxes have two.
        assert!(report.modes >= report.primitives);
        assert_eq!(report.simulated_modes + report.skipped_unrealizable_modes, report.modes);
    }
}
