//! Criticality analysis (§IV): the damage vector `d_j` over all scan
//! primitives.
//!
//! The damage of primitive *j* is the weighted sum of the instruments that
//! become unobservable or unsettable when *j* is defect (Eq. 1):
//!
//! ```text
//! d_j = Σᵢ do_i · y_{i,j} + Σᵢ ds_i · z_{i,j}
//! ```
//!
//! [`analyze`] computes the full vector hierarchically on the binary
//! decomposition tree in reverse polish order — one bottom-up aggregation
//! pass plus one top-down accumulator pass, i.e. **O(N)** for a network with
//! N primitives. This is what makes the million-segment MBIST benchmarks of
//! Table I tractable. [`analyze_naive`] recomputes every `d_j` from the
//! per-fault disconnected sets of [`fault_effects`](crate::fault_effects)
//! (O(N²)); the two implementations are cross-checked by unit and property
//! tests and must agree exactly.

use serde::{Deserialize, Serialize};

use rsn_model::{ControlSource, NodeId, ScanNetwork};
use rsn_sp::{aggregate::subtree_sums, DecompTree, Leaf, TreeId, TreeNode};

use crate::fault_effects::{broken_segment_effect, mux_stuck_effect, FaultEffect};
use crate::plan::AnalysisPlan;
use crate::shard::ModeDamage;
use crate::spec::CriticalitySpec;

/// How the damages of a primitive's individual fault modes (one per
/// multiplexer port, one per frozen control value) combine into `d_j`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModeAggregation {
    /// Pessimistic single-defect damage: the worst fault mode (default).
    #[default]
    Worst,
    /// Sum over all fault modes.
    Sum,
    /// Mean over all fault modes — the **truncating** integer mean
    /// (`sum / len`, remainder discarded, never rounded up). The graph
    /// analysis ([`crate::analyze_graph`]) aggregates through the same
    /// function, and a differential test pins that the two analyses stay
    /// bit-identical on series-parallel networks even when `sum % len != 0`.
    Mean,
}

/// How a broken SIB control cell is modeled (§IV-B: "fault effects in SIBs
/// are considered as a combination of those for a scan segment and a
/// multiplexer").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SibCellPolicy {
    /// A broken control cell additionally freezes the multiplexers it drives
    /// at an unknown select value (default, the paper's combination).
    #[default]
    Combined,
    /// Pure path-integrity semantics; the select is assumed still drivable.
    SegmentOnly,
}

/// Analysis options.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisOptions {
    /// Fault-mode aggregation.
    pub mode: ModeAggregation,
    /// SIB control-cell semantics.
    pub sib_policy: SibCellPolicy,
}

/// The result of a criticality analysis: per-primitive damages.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Criticality {
    damage: Vec<u64>,
    obs_damage: Vec<u64>,
    set_damage: Vec<u64>,
    affects_important: Vec<bool>,
    primitives: Vec<NodeId>,
}

impl Criticality {
    /// All-zero damages over a network of `node_count` nodes.
    pub(crate) fn zeroed(node_count: usize, primitives: Vec<NodeId>) -> Self {
        Self {
            damage: vec![0; node_count],
            obs_damage: vec![0; node_count],
            set_damage: vec![0; node_count],
            affects_important: vec![false; node_count],
            primitives,
        }
    }

    /// Records primitive `j`'s aggregated damage `d`.
    fn put(&mut self, j: NodeId, d: ModeDamage) {
        self.damage[j.index()] = d.total();
        self.obs_damage[j.index()] = d.obs;
        self.set_damage[j.index()] = d.set;
        self.affects_important[j.index()] = d.affects_important;
    }

    /// A copy with every primitive for which `masked` holds zeroed (the
    /// workspace's hardened and excluded primitives).
    pub(crate) fn masked(&self, masked: impl Fn(NodeId) -> bool) -> Self {
        let mut out = self.clone();
        for &j in self.primitives.iter().filter(|&&j| masked(j)) {
            out.put(j, ModeDamage::default());
        }
        out
    }

    /// The damage `d_j` of a fault in primitive `j`.
    #[must_use]
    pub fn damage(&self, j: NodeId) -> u64 {
        self.damage[j.index()]
    }

    /// The observability component of `d_j` (same worst mode as
    /// [`damage`](Self::damage) under [`ModeAggregation::Worst`]).
    #[must_use]
    pub fn obs_damage(&self, j: NodeId) -> u64 {
        self.obs_damage[j.index()]
    }

    /// The settability component of `d_j`.
    #[must_use]
    pub fn set_damage(&self, j: NodeId) -> u64 {
        self.set_damage[j.index()]
    }

    /// Whether *some* fault mode of `j` disconnects an instrument marked
    /// important.
    #[must_use]
    pub fn affects_important(&self, j: NodeId) -> bool {
        self.affects_important[j.index()]
    }

    /// The primitives covered, in network id order.
    #[must_use]
    pub fn primitives(&self) -> &[NodeId] {
        &self.primitives
    }

    /// Total damage Σⱼ d_j with no primitive hardened — the "initial
    /// assessment, max damage" column of Table I.
    ///
    /// # Overflow bound
    ///
    /// All damage arithmetic in this crate **saturates at `u64::MAX`**
    /// instead of wrapping. Damages are exact as long as the sum of every
    /// instrument weight (obs + set, over all instruments) stays below
    /// `u64::MAX` — any single fault mode loses at most that total, and the
    /// vector total here is bounded by `primitives × that sum`. Beyond the
    /// bound, values clamp to `u64::MAX`, which keeps every comparison
    /// monotone (a saturated damage is still "at least this bad") where a
    /// wrapped one would silently rank a catastrophic fault as harmless. At
    /// fleet scale — 10⁶ instruments × 10¹³ weights — per-mode damages stay
    /// exact; only the Σⱼ grand total can realistically saturate.
    #[must_use]
    pub fn total_damage(&self) -> u64 {
        self.primitives.iter().fold(0u64, |acc, &j| acc.saturating_add(self.damage[j.index()]))
    }

    /// Primitives ranked by decreasing damage.
    #[must_use]
    pub fn ranked(&self) -> Vec<(NodeId, u64)> {
        let mut v: Vec<(NodeId, u64)> =
            self.primitives.iter().map(|&j| (j, self.damage[j.index()])).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Aggregates a primitive's fault modes in one pass: the reported
/// (obs, set) pair, and whether *some* mode affects an important
/// instrument. Under `Worst` the components are taken from the argmax mode
/// (the last one on ties) so that obs + set always equals the reported
/// damage.
///
/// This is the single source of truth for mode aggregation: the tree
/// analysis, the naive reference and [`fold_mode_damages`] (every
/// graph-exact result) all call it, so ties and truncating means resolve
/// identically everywhere. Every sum saturates, so `aggregate(..).total()`
/// is also the worst, sum or truncated mean of the modes' totals.
fn aggregate(mode: ModeAggregation, modes: impl IntoIterator<Item = ModeDamage>) -> ModeDamage {
    let mut worst: Option<ModeDamage> = None;
    let (mut obs, mut set, mut count, mut affects_important) = (0u64, 0u64, 0u64, false);
    for m in modes {
        if worst.is_none_or(|w| m.total() >= w.total()) {
            worst = Some(m);
        }
        obs = obs.saturating_add(m.obs);
        set = set.saturating_add(m.set);
        count += 1;
        affects_important |= m.affects_important;
    }
    let (obs, set) = match mode {
        ModeAggregation::Worst => worst.map_or((0, 0), |w| (w.obs, w.set)),
        ModeAggregation::Sum => (obs, set),
        ModeAggregation::Mean => {
            // Divide the total once; split the remainder into the obs part
            // so that obs + set equals total / k consistently.
            let k = count.max(1);
            let total = obs.saturating_add(set) / k;
            let set = (set / k).min(total);
            (total - set, set)
        }
    };
    ModeDamage { obs, set, affects_important }
}

/// Folds per-mode damages into the damage vector: `damage(m)` is the
/// damage of mode `m` of `plan`'s canonical mode table, and each
/// primitive's group of modes is [`aggregate`]d with `mode`.
///
/// This is the one fold from mode damages to `d_j`: the full sweep, the
/// shard merge, the incremental workspace, both sides of the validation
/// campaign and the reference all go through it, so their results are
/// bit-identical.
pub(crate) fn fold_mode_damages(
    plan: &AnalysisPlan,
    mode: ModeAggregation,
    damage: impl Fn(usize) -> ModeDamage,
) -> Criticality {
    let mut crit = Criticality::zeroed(plan.node_count(), plan.primitives().to_vec());
    for (&j, modes) in plan.primitives().iter().zip(plan.table().groups()) {
        crit.put(j, aggregate(mode, modes.map(&damage)));
    }
    crit
}

/// Computes the damage vector `d_j` for every scan primitive of `net` in
/// O(N) using the decomposition tree.
///
/// # Panics
///
/// Panics if `tree` does not belong to `net` (use
/// [`DecompTree::validate`](rsn_sp::DecompTree::validate) after manual tree
/// construction).
#[must_use]
pub fn analyze(
    net: &ScanNetwork,
    tree: &DecompTree,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
) -> Criticality {
    let mut result = Criticality::zeroed(net.node_count(), net.primitives().collect());

    // Bottom-up subtree aggregates of the damage weights and importance
    // indicators.
    let leaf_inst = |leaf: Leaf| match leaf {
        Leaf::Segment(s) => net.instrument_at(s),
        _ => None,
    };
    let wdo = subtree_sums(tree, |l| leaf_inst(l).map_or(0, |i| spec.obs_weight(i)));
    let wds = subtree_sums(tree, |l| leaf_inst(l).map_or(0, |i| spec.set_weight(i)));
    let iobs =
        subtree_sums(tree, |l| leaf_inst(l).map_or(0, |i| u64::from(spec.is_important_obs(i))));
    let iset =
        subtree_sums(tree, |l| leaf_inst(l).map_or(0, |i| u64::from(spec.is_important_set(i))));

    // Top-down accumulator pass (reverse polish order): at a segment leaf the
    // observability accumulator holds the summed `do` of every scan-in-side
    // sibling up to the first enclosing parallel composition, and the
    // settability accumulator the summed `ds` of every scan-out-side sibling.
    let mut stack: Vec<(TreeId, [u64; 4])> = vec![(tree.root(), [0; 4])];
    while let Some((id, [obs_acc, set_acc, iobs_acc, iset_acc])) = stack.pop() {
        match tree.node(id) {
            TreeNode::Leaf(Leaf::Segment(s)) => {
                let (own_do, own_ds, own_imp) = match net.instrument_at(s) {
                    Some(i) => (
                        spec.obs_weight(i),
                        spec.set_weight(i),
                        spec.is_important_obs(i) || spec.is_important_set(i),
                    ),
                    None => (0, 0, false),
                };
                result.put(
                    s,
                    ModeDamage {
                        obs: own_do.saturating_add(obs_acc),
                        set: own_ds.saturating_add(set_acc),
                        affects_important: own_imp || iobs_acc > 0 || iset_acc > 0,
                    },
                );
            }
            TreeNode::Leaf(_) => {}
            TreeNode::Series { left, right } => {
                stack.push((
                    left,
                    [
                        obs_acc,
                        set_acc.saturating_add(wds[right.index()]),
                        iobs_acc,
                        iset_acc + iset[right.index()],
                    ],
                ));
                stack.push((
                    right,
                    [
                        obs_acc.saturating_add(wdo[left.index()]),
                        set_acc,
                        iobs_acc + iobs[left.index()],
                        iset_acc,
                    ],
                ));
            }
            TreeNode::Parallel { left, right, .. } => {
                stack.push((left, [0; 4]));
                stack.push((right, [0; 4]));
            }
        }
    }

    // Multiplexer stuck-at damages from the branch aggregates.
    for m in net.muxes() {
        let Some(branches) = tree.branches_of(m) else { continue };
        let tot_obs: u64 = branches.iter().fold(0u64, |a, b| a.saturating_add(wdo[b.index()]));
        let tot_set: u64 = branches.iter().fold(0u64, |a, b| a.saturating_add(wds[b.index()]));
        let modes = branches.iter().map(|b| ModeDamage {
            obs: tot_obs - wdo[b.index()],
            set: tot_set - wds[b.index()],
            affects_important: false,
        });
        let group_importance: u64 =
            branches.iter().map(|b| iobs[b.index()] + iset[b.index()]).sum();
        result.put(
            m,
            ModeDamage {
                affects_important: group_importance > 0,
                ..aggregate(options.mode, modes)
            },
        );
    }

    // Combined SIB control-cell semantics: a broken cell also freezes the
    // multiplexers it drives.
    if options.sib_policy == SibCellPolicy::Combined {
        apply_combined_cells(net, tree, spec, options, &wdo, &iobs, &iset, &mut result);
    }

    result
}

/// Adds the frozen-select component to broken control cells.
#[allow(clippy::too_many_arguments)]
fn apply_combined_cells(
    net: &ScanNetwork,
    tree: &DecompTree,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
    wdo: &[u64],
    iobs: &[u64],
    iset: &[u64],
    result: &mut Criticality,
) {
    // Group controlled muxes by their control cell.
    let mut controlled: Vec<Vec<NodeId>> = vec![Vec::new(); net.node_count()];
    for m in net.muxes() {
        if let Some(ControlSource::Cell { segment, .. }) =
            net.node(m).kind.as_mux().map(|x| x.control)
        {
            controlled[segment.index()].push(m);
        }
    }
    let intervals = euler_intervals(tree);
    for cell in net.segments() {
        let muxes = &controlled[cell.index()];
        if muxes.is_empty() {
            continue;
        }
        // Fast path: a single controlled mux whose parallel group lies in the
        // cell's scan-out-side stem region (the standard SIB shape). Its
        // branches already lost settability through the segment fault, so
        // each frozen value v only adds the observability of the non-selected
        // branches.
        let fast = match muxes.as_slice() {
            [m] => mux_in_right_region(tree, &intervals, cell, *m).then_some(*m),
            _ => None,
        };
        let base = ModeDamage {
            obs: result.obs_damage[cell.index()],
            set: result.set_damage[cell.index()],
            affects_important: result.affects_important[cell.index()],
        };
        let agg = if let Some(m) = fast {
            let branches = tree.branches_of(m).expect("controlled mux closes a group");
            let tot_obs: u64 = branches.iter().fold(0u64, |a, b| a.saturating_add(wdo[b.index()]));
            let modes = branches.iter().map(|b| ModeDamage {
                obs: base.obs.saturating_add(tot_obs - wdo[b.index()]),
                ..base
            });
            let group_importance: u64 =
                branches.iter().map(|b| iobs[b.index()] + iset[b.index()]).sum();
            let agg = aggregate(options.mode, modes);
            ModeDamage { affects_important: agg.affects_important || group_importance > 0, ..agg }
        } else {
            // Exotic control topology: recompute this cell exactly from the
            // per-fault disconnected sets.
            let agg = combined_cell_naive(net, tree, spec, options, cell, muxes);
            ModeDamage { affects_important: agg.affects_important || base.affects_important, ..agg }
        };
        result.put(cell, agg);
    }
}

/// Returns `true` when `mux`'s leaf *and* its parallel group lie in one of
/// the scan-out-side sibling subtrees on the climb from `cell` to its first
/// enclosing parallel composition — i.e. the group's settability is already
/// destroyed by the broken cell and only branch observability remains to be
/// added.
fn mux_in_right_region(
    tree: &DecompTree,
    intervals: &[(u32, u32)],
    cell: NodeId,
    mux: NodeId,
) -> bool {
    let (Some(cell_leaf), Some(mux_leaf)) = (tree.leaf_of(cell), tree.leaf_of(mux)) else {
        return false;
    };
    // The mux leaf must sit in the canonical S(group, mux) shape so that the
    // group travels with it.
    let group = match tree.parent(mux_leaf).map(|p| tree.node(p)) {
        Some(TreeNode::Series { left, right }) if right == mux_leaf => left,
        _ => return false,
    };
    let inside = |node: TreeId, root: TreeId| {
        intervals[root.index()].0 <= intervals[node.index()].0
            && intervals[node.index()].1 <= intervals[root.index()].1
    };
    let mut cur = cell_leaf;
    while let Some(p) = tree.parent(cur) {
        match tree.node(p) {
            TreeNode::Series { left, right } => {
                if cur == left && inside(mux_leaf, right) && inside(group, right) {
                    return true;
                }
                cur = p;
            }
            TreeNode::Parallel { .. } => return false,
            TreeNode::Leaf(_) => unreachable!("leaves have no children"),
        }
    }
    false
}

/// Euler-tour intervals (entry, exit) for O(1) subtree membership tests.
fn euler_intervals(tree: &DecompTree) -> Vec<(u32, u32)> {
    let mut intervals = vec![(0u32, 0u32); tree.len()];
    let mut clock = 0u32;
    let mut stack = vec![(tree.root(), false)];
    while let Some((id, expanded)) = stack.pop() {
        if expanded {
            intervals[id.index()].1 = clock;
            continue;
        }
        intervals[id.index()].0 = clock;
        clock += 1;
        match tree.node(id) {
            TreeNode::Leaf(_) => intervals[id.index()].1 = clock,
            TreeNode::Series { left, right } | TreeNode::Parallel { left, right, .. } => {
                stack.push((id, true));
                stack.push((right, false));
                stack.push((left, false));
            }
        }
    }
    intervals
}

/// Exact combined damage for a control cell with arbitrary topology: the
/// union of the broken-segment effect with each frozen-select combination.
fn combined_cell_naive(
    net: &ScanNetwork,
    tree: &DecompTree,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
    cell: NodeId,
    muxes: &[NodeId],
) -> ModeDamage {
    let base = broken_segment_effect(net, tree, cell);
    let fan_in = |m: NodeId| net.node(m).kind.as_mux().expect("mux").fan_in();
    // Enumerate frozen-select combinations (capped; beyond the cap fall back
    // to per-mux worst which over-approximates unions conservatively).
    let combos: usize = muxes.iter().map(|&m| fan_in(m)).product();
    let mut modes = Vec::new();
    if combos <= 1024 {
        let mut selects = vec![0usize; muxes.len()];
        loop {
            let mut union = base.clone();
            for (k, &m) in muxes.iter().enumerate() {
                let e = mux_stuck_effect(net, tree, m, selects[k]);
                union.unobservable.extend(e.unobservable);
                union.unsettable.extend(e.unsettable);
            }
            modes.push(weigh(spec, &union));
            // Odometer.
            let mut k = 0;
            loop {
                if k == muxes.len() {
                    break;
                }
                selects[k] += 1;
                if selects[k] < fan_in(muxes[k]) {
                    break;
                }
                selects[k] = 0;
                k += 1;
            }
            if k == muxes.len() {
                break;
            }
        }
    } else {
        let mut union = base.clone();
        for &m in muxes {
            // Worst single mode per mux.
            let worst = (0..fan_in(m))
                .map(|p| mux_stuck_effect(net, tree, m, p))
                .max_by_key(|e| weigh(spec, e).total())
                .expect("muxes have inputs");
            union.unobservable.extend(worst.unobservable);
            union.unsettable.extend(worst.unsettable);
        }
        modes.push(weigh(spec, &union));
    }
    aggregate(options.mode, modes)
}

/// Weighs a disconnected set with the specification; the importance flag
/// reports whether it contains an important instrument.
fn weigh(spec: &CriticalitySpec, effect: &FaultEffect) -> ModeDamage {
    let mut e = effect.clone();
    e.unobservable.sort_unstable();
    e.unobservable.dedup();
    e.unsettable.sort_unstable();
    e.unsettable.dedup();
    let obs: u64 = e.unobservable.iter().fold(0u64, |a, &i| a.saturating_add(spec.obs_weight(i)));
    let set: u64 = e.unsettable.iter().fold(0u64, |a, &i| a.saturating_add(spec.set_weight(i)));
    let affects_important = e.unobservable.iter().any(|&i| spec.is_important_obs(i))
        || e.unsettable.iter().any(|&i| spec.is_important_set(i));
    ModeDamage { obs, set, affects_important }
}

/// Reference implementation: recomputes every `d_j` from the per-fault
/// disconnected sets (O(N²)). Must agree exactly with [`analyze`].
#[must_use]
pub fn analyze_naive(
    net: &ScanNetwork,
    tree: &DecompTree,
    spec: &CriticalitySpec,
    options: &AnalysisOptions,
) -> Criticality {
    let n = net.node_count();
    let mut result = Criticality::zeroed(n, net.primitives().collect());
    let mut controlled: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    if options.sib_policy == SibCellPolicy::Combined {
        for m in net.muxes() {
            if let Some(ControlSource::Cell { segment, .. }) =
                net.node(m).kind.as_mux().map(|x| x.control)
            {
                controlled[segment.index()].push(m);
            }
        }
    }
    for s in net.segments() {
        let muxes = &controlled[s.index()];
        let agg = if muxes.is_empty() {
            let effect = broken_segment_effect(net, tree, s);
            aggregate(options.mode, [weigh(spec, &effect)])
        } else {
            combined_cell_naive(net, tree, spec, options, s, muxes)
        };
        result.put(s, agg);
    }
    for m in net.muxes() {
        let fan_in = net.node(m).kind.as_mux().expect("mux").fan_in();
        let modes = (0..fan_in).map(|p| weigh(spec, &mux_stuck_effect(net, tree, m, p)));
        result.put(m, aggregate(options.mode, modes));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_model::{InstrumentKind, Structure};
    use rsn_sp::tree_from_structure;

    fn build(s: &Structure) -> (ScanNetwork, DecompTree) {
        let (net, built) = s.build("t").unwrap();
        let tree = tree_from_structure(&net, &built);
        (net, tree)
    }

    fn node(net: &ScanNetwork, name: &str) -> NodeId {
        net.nodes().find(|(_, n)| n.name.as_deref() == Some(name)).map(|(id, _)| id).unwrap()
    }

    fn uniform_spec(net: &ScanNetwork, obs: u64, set: u64) -> CriticalitySpec {
        let mut spec = CriticalitySpec::new(net);
        for (i, _) in net.instruments() {
            spec.set_weights(i, obs, set);
        }
        spec
    }

    fn iseg(n: &str, len: u32) -> Structure {
        Structure::instrument_seg(n, len, InstrumentKind::Generic)
    }

    #[test]
    fn chain_damage_counts_both_sides() {
        // c0 - c1 - c2 in series, weights do=2, ds=3 each.
        let (net, tree) =
            build(&Structure::series(vec![iseg("c0", 1), iseg("c1", 1), iseg("c2", 1)]));
        let spec = uniform_spec(&net, 2, 3);
        let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
        // Fault in c1: c0 unobservable (2), c2 unsettable (3), c1 both (5).
        assert_eq!(crit.damage(node(&net, "c1")), 10);
        assert_eq!(crit.obs_damage(node(&net, "c1")), 4);
        assert_eq!(crit.set_damage(node(&net, "c1")), 6);
        // Fault in c0: everything downstream unsettable + own.
        assert_eq!(crit.damage(node(&net, "c0")), 2 + 3 + 3 + 3);
        // Fault in c2: everything upstream unobservable + own.
        assert_eq!(crit.damage(node(&net, "c2")), 2 + 2 + 2 + 3);
        assert_eq!(crit.total_damage(), 10 + 11 + 9);
    }

    #[test]
    fn parallel_bypass_limits_the_blast_radius() {
        // head ; P(a | b) m ; tail — a fault in a does not affect head/tail.
        let (net, tree) = build(&Structure::series(vec![
            iseg("head", 1),
            Structure::parallel(vec![iseg("a", 1), iseg("b", 1)], "m"),
            iseg("tail", 1),
        ]));
        let spec = uniform_spec(&net, 1, 1);
        let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
        assert_eq!(crit.damage(node(&net, "a")), 2, "only a itself");
        // The mux stuck at either port loses the other branch entirely.
        assert_eq!(crit.damage(node(&net, "m")), 2);
    }

    #[test]
    fn mux_worst_mode_keeps_the_lighter_branch() {
        let (net, tree) =
            build(&Structure::parallel(vec![iseg("heavy", 1), iseg("light", 1)], "m"));
        let mut spec = CriticalitySpec::new(&net);
        spec.set_weights(net.instrument_at(node(&net, "heavy")).unwrap(), 10, 10);
        spec.set_weights(net.instrument_at(node(&net, "light")).unwrap(), 1, 1);
        let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
        // Worst mode: stuck at "light", losing "heavy" (damage 20).
        assert_eq!(crit.damage(node(&net, "m")), 20);
        let sum = analyze(
            &net,
            &tree,
            &spec,
            &AnalysisOptions { mode: ModeAggregation::Sum, ..Default::default() },
        );
        assert_eq!(sum.damage(node(&net, "m")), 22);
        let mean = analyze(
            &net,
            &tree,
            &spec,
            &AnalysisOptions { mode: ModeAggregation::Mean, ..Default::default() },
        );
        assert_eq!(mean.damage(node(&net, "m")), 11);
    }

    #[test]
    fn combined_sib_cell_adds_frozen_select_damage() {
        let (net, tree) = build(&Structure::sib("s", iseg("d", 4)));
        let spec = uniform_spec(&net, 5, 7);
        let cell = node(&net, "s.cell");
        let segment_only = analyze(
            &net,
            &tree,
            &spec,
            &AnalysisOptions { sib_policy: SibCellPolicy::SegmentOnly, ..Default::default() },
        );
        // Pure segment semantics: d is on the scan-out side -> unsettable.
        assert_eq!(segment_only.damage(cell), 7);
        let combined = analyze(&net, &tree, &spec, &AnalysisOptions::default());
        // Combined: the frozen SIB select (worst: deasserted) additionally
        // makes d unobservable.
        assert_eq!(combined.damage(cell), 7 + 5);
    }

    #[test]
    fn naive_and_fast_agree_on_a_nested_network() {
        let s = Structure::series(vec![
            iseg("c0", 2),
            Structure::sib(
                "s0",
                Structure::series(vec![
                    iseg("d0", 3),
                    Structure::parallel(
                        vec![iseg("d1", 1), Structure::series(vec![iseg("d2", 2), iseg("d3", 1)])],
                        "m1",
                    ),
                    Structure::sib("s1", iseg("d4", 2)),
                ]),
            ),
            Structure::parallel(vec![iseg("c1", 1), Structure::Wire], "m0"),
            iseg("c2", 1),
        ]);
        let (net, tree) = build(&s);
        let spec = crate::spec::CriticalitySpec::paper_random(
            &net,
            &crate::spec::PaperSpecParams::default(),
            42,
        );
        for mode in [ModeAggregation::Worst, ModeAggregation::Sum, ModeAggregation::Mean] {
            for policy in [SibCellPolicy::Combined, SibCellPolicy::SegmentOnly] {
                let options = AnalysisOptions { mode, sib_policy: policy };
                let fast = analyze(&net, &tree, &spec, &options);
                let naive = analyze_naive(&net, &tree, &spec, &options);
                assert_eq!(fast, naive, "mode {mode:?} policy {policy:?}");
            }
        }
    }

    #[test]
    fn importance_flags_propagate() {
        let (net, tree) = build(&Structure::series(vec![
            iseg("plain", 1),
            Structure::sib("s", iseg("critical", 1)),
        ]));
        let mut spec = uniform_spec(&net, 1, 1);
        let crit_inst = net.instrument_at(node(&net, "critical")).unwrap();
        spec.set_important(crit_inst, true, false);
        let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
        // The SIB mux can disconnect the critical instrument.
        assert!(crit.affects_important(node(&net, "s.mux")));
        // A broken "plain" segment makes `critical` unsettable, not
        // unobservable; the instrument is only observation-important.
        assert!(!crit.affects_important(node(&net, "plain")));
        // The critical segment itself obviously affects it.
        assert!(crit.affects_important(node(&net, "critical")));
    }

    #[test]
    fn ranked_orders_by_damage() {
        let (net, tree) = build(&Structure::series(vec![iseg("a", 1), iseg("b", 1), iseg("c", 1)]));
        let spec = uniform_spec(&net, 1, 1);
        let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
        let ranked = crit.ranked();
        assert_eq!(ranked.len(), 3);
        assert!(ranked[0].1 >= ranked[1].1 && ranked[1].1 >= ranked[2].1);
    }
}
