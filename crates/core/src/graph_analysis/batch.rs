//! The graph-exact reachability engine: fault modes evaluated mode-major,
//! up to [`LANES`] modes per traversal.
//!
//! A sweep evaluates thousands of fault modes over the *same* adjacency, so
//! the traversal structure is identical every time; only the pruned edges
//! and blocked nodes differ. Each node therefore carries one **lane-word**
//! whose bit *l* means "mode *l* of the current block still reaches this
//! node", and a single pass over the topologically ordered CSR propagates
//! all lanes at once.
//!
//! Reachability under a fault mode is monotone over a DAG, so the
//! traversal becomes a relaxation in topological order:
//!
//! * **forward** (pull): `R[v] = OR over incoming edges (u, q) of
//!   R[u] & usable(v, q)`, with the scan-in preset to the active-lane mask;
//! * **backward** (push): processing nodes in reverse topological order,
//!   `R[u] |= R[v] & usable(v, q)` for every incoming edge `(u, q)` of `v`,
//!   with the scan-out preset.
//!
//! `usable(v, q)` encodes the frozen-select rule per lane:
//! `(active & !restrict[v]) | allow[e]` — `restrict[v]` masks the lanes
//! freezing mux `v`, and `allow[e]` re-opens the edges whose source is the
//! frozen port's input **node** (every parallel edge from that node). The
//! clean variants additionally mask the target's `broken` lanes, and the
//! scan-in/scan-out presets keep the "start is always visited" rule. Lanes
//! without frozen selects see no restrict bits and propagate exactly like
//! the fault-free baseline; lanes without broken segments have
//! clean == any.
//!
//! The engine is differentially tested against the `Vec<bool>` reference
//! ([`reference`](super::reference)) and the accessibility oracle
//! (`tests/prop_batch_kernel.rs`, `tests/prop_graph_kernel.rs`).

use rsn_model::NodeId;

use crate::shard::ModeDamage;

use super::{LostSegment, ModeTrace, ReachKernel, NO_SELECTED_INPUT};

/// Fault modes per lane block: bit `l` of a node's `u64` lane word carries
/// mode `l` of the current block through every bitwise step of the
/// traversal.
pub const LANES: usize = 64;

/// The mask of lanes `0..k` (the active lanes of a `k`-mode block).
#[inline]
fn lane_mask(k: usize) -> u64 {
    if k >= LANES {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Calls `f(l)` for every set lane `l` of `w`, ascending.
#[inline]
fn for_each_lane(mut w: u64, mut f: impl FnMut(usize)) {
    while w != 0 {
        f(w.trailing_zeros() as usize);
        w &= w - 1;
    }
}

/// Per-worker mutable state of the engine: the lane-word reach maps, the
/// per-node restrict/broken and per-edge allow masks, and the touched lists
/// that make the per-block reset O(touched), not O(V + E).
///
/// Allocate with [`ReachKernel::block_scratch`]; per block call
/// [`clear`](Self::clear), up to [`LANES`] × [`ReachKernel::push_mode`],
/// then one [`ReachKernel::eval_damages`].
#[derive(Clone, Debug)]
pub struct BlockScratch {
    /// Modes pushed into the current block.
    len: usize,
    fwd_any: Vec<u64>,
    fwd_clean: Vec<u64>,
    bwd_any: Vec<u64>,
    bwd_clean: Vec<u64>,
    /// Lanes freezing mux `v` (any port).
    restrict: Vec<u64>,
    /// Lanes for which incoming edge `e` stays usable despite `restrict`.
    allow: Vec<u64>,
    /// Lanes in which node `v` is broken.
    broken: Vec<u64>,
    /// Nodes with a nonzero `restrict` word (reset list).
    frozen_nodes: Vec<u32>,
    /// Edges with a nonzero `allow` word (reset list).
    allow_edges: Vec<u32>,
    /// Nodes with a nonzero `broken` word (reset list).
    broken_nodes: Vec<u32>,
}

impl BlockScratch {
    /// Resets the scratch for a fresh block. O(masks touched by the previous
    /// block), not O(V + E).
    pub fn clear(&mut self) {
        for &v in &self.frozen_nodes {
            self.restrict[v as usize] = 0;
        }
        for &e in &self.allow_edges {
            self.allow[e as usize] = 0;
        }
        for &v in &self.broken_nodes {
            self.broken[v as usize] = 0;
        }
        self.frozen_nodes.clear();
        self.allow_edges.clear();
        self.broken_nodes.clear();
        self.len = 0;
    }
}

impl ReachKernel {
    /// Allocates a per-worker scratch sized for this kernel (reused across
    /// every block the worker evaluates).
    #[must_use]
    pub fn block_scratch(&self) -> BlockScratch {
        let n = self.node_count;
        let e = *self.pred_off.last().expect("offsets nonempty") as usize;
        BlockScratch {
            len: 0,
            fwd_any: vec![0; n],
            fwd_clean: vec![0; n],
            bwd_any: vec![0; n],
            bwd_clean: vec![0; n],
            restrict: vec![0; n],
            allow: vec![0; e],
            broken: vec![0; n],
            frozen_nodes: Vec::new(),
            allow_edges: Vec::new(),
            broken_nodes: Vec::new(),
        }
    }

    /// Adds one fault mode — `broken` segments plus `frozen` (mux, port)
    /// selects, the first entry winning for a repeated mux — as the next
    /// lane of the current block.
    ///
    /// # Panics
    ///
    /// Panics if the block already holds [`LANES`] modes, or if a `frozen`
    /// entry names a node that is not a multiplexer.
    pub fn push_mode<'b>(
        &self,
        s: &mut BlockScratch,
        broken: impl IntoIterator<Item = &'b NodeId>,
        frozen: &[(NodeId, usize)],
    ) {
        assert!(s.len < LANES, "mode block is full");
        let lane = s.len;
        s.len += 1;
        for &(m, p) in frozen {
            let mi = m.index();
            assert!(self.is_mux[mi], "frozen node is a mux");
            if s.restrict[mi] & (1 << lane) != 0 {
                continue;
            }
            if s.restrict[mi] == 0 {
                s.frozen_nodes.push(mi as u32);
            }
            s.restrict[mi] |= 1 << lane;
            let sel = self.mux_inputs[mi].get(p).copied().unwrap_or(NO_SELECTED_INPUT);
            if sel != NO_SELECTED_INPUT {
                // Re-open every incoming edge whose *source node* is the
                // selected input — parallel edges from the same node are all
                // usable.
                let base = self.pred_off[mi] as usize;
                for (q, &u) in self.csr.predecessors(mi as u32).iter().enumerate() {
                    if u == sel {
                        let e = base + q;
                        if s.allow[e] == 0 {
                            s.allow_edges.push(e as u32);
                        }
                        s.allow[e] |= 1 << lane;
                    }
                }
            }
        }
        for &b in broken {
            let bi = b.index();
            if s.broken[bi] == 0 {
                s.broken_nodes.push(bi as u32);
            }
            s.broken[bi] |= 1 << lane;
        }
    }

    /// One relaxation pass in topological order, pulling the `any` and
    /// (when the block has broken lanes) `clean` forward maps, or pushing
    /// the backward maps in reverse order.
    fn run_passes(&self, s: &mut BlockScratch) {
        let active = lane_mask(s.len);
        let has_frozen = !s.frozen_nodes.is_empty();
        let has_broken = !s.broken_nodes.is_empty();

        // Forward (pull): R[v] folds the usable contributions of its
        // incoming edges; scan-in is preset and never overwritten (the
        // "start is always visited" rule, even when broken).
        if has_frozen || has_broken {
            for &v in &self.topo {
                if v == self.scan_in {
                    if has_frozen {
                        s.fwd_any[v as usize] = active;
                    }
                    if has_broken {
                        s.fwd_clean[v as usize] = active;
                    }
                    continue;
                }
                let vi = v as usize;
                let preds = self.csr.predecessors(v);
                let base = self.pred_off[vi] as usize;
                let mut any = 0;
                let mut clean = 0;
                if s.restrict[vi] == 0 {
                    // No lane freezes v: every incoming edge is fully open.
                    if has_frozen && has_broken {
                        for &u in preds {
                            any |= s.fwd_any[u as usize];
                            clean |= s.fwd_clean[u as usize];
                        }
                    } else if has_frozen {
                        for &u in preds {
                            any |= s.fwd_any[u as usize];
                        }
                    } else {
                        for &u in preds {
                            clean |= s.fwd_clean[u as usize];
                        }
                    }
                } else {
                    let open = active & !s.restrict[vi];
                    for (q, &u) in preds.iter().enumerate() {
                        let usable = open | s.allow[base + q];
                        if has_frozen {
                            any |= s.fwd_any[u as usize] & usable;
                        }
                        if has_broken {
                            clean |= s.fwd_clean[u as usize] & usable;
                        }
                    }
                }
                if has_frozen {
                    s.fwd_any[vi] = any;
                }
                if has_broken {
                    s.fwd_clean[vi] = clean & !s.broken[vi];
                }
            }
        }

        // Backward (push): processing v in reverse topological order, v's
        // own word is final, so it pushes through v's incoming edges into
        // each predecessor.
        if has_frozen {
            s.bwd_any.fill(0);
            s.bwd_any[self.scan_out as usize] = active;
        }
        if has_broken {
            s.bwd_clean.fill(0);
            s.bwd_clean[self.scan_out as usize] = active;
        }
        if has_frozen || has_broken {
            for &v in self.topo.iter().rev() {
                let vi = v as usize;
                let av = if has_frozen { s.bwd_any[vi] } else { 0 };
                let cv = if has_broken { s.bwd_clean[vi] } else { 0 };
                if av | cv == 0 {
                    continue;
                }
                let preds = self.csr.predecessors(v);
                let base = self.pred_off[vi] as usize;
                if s.restrict[vi] == 0 {
                    for &u in preds {
                        let ui = u as usize;
                        if has_frozen {
                            s.bwd_any[ui] |= av;
                        }
                        if has_broken {
                            s.bwd_clean[ui] |= cv & !s.broken[ui];
                        }
                    }
                } else {
                    let open = active & !s.restrict[vi];
                    for (q, &u) in preds.iter().enumerate() {
                        let usable = open | s.allow[base + q];
                        let ui = u as usize;
                        if has_frozen {
                            s.bwd_any[ui] |= av & usable;
                        }
                        if has_broken {
                            s.bwd_clean[ui] |= cv & usable & !s.broken[ui];
                        }
                    }
                }
            }
            // The scan-out preset must survive even a (hypothetical) broken
            // scan-out: the start of a traversal is always visited.
            if has_frozen {
                s.bwd_any[self.scan_out as usize] = active;
            }
            if has_broken {
                s.bwd_clean[self.scan_out as usize] = active;
            }
        }
    }

    /// Relaxes the current block, then walks the live segments
    /// word-parallel and calls `f(segment, miss_obs, miss_set)` for every
    /// segment some lane lost, with the lanes that lost its observability
    /// and its settability.
    fn for_each_miss(&self, s: &mut BlockScratch, mut f: impl FnMut(usize, u64, u64)) {
        self.run_passes(s);
        let active = lane_mask(s.len);
        let has_frozen = !s.frozen_nodes.is_empty();
        let has_broken = !s.broken_nodes.is_empty();
        for (w, &lw) in self.live.words().iter().enumerate() {
            let mut live = lw;
            while live != 0 {
                let t = w * 64 + live.trailing_zeros() as usize;
                live &= live - 1;
                // Live segments are baseline-reachable both ways, so lanes
                // without frozen selects see the full active mask here.
                let fa = if has_frozen { s.fwd_any[t] } else { active };
                let ba = if has_frozen { s.bwd_any[t] } else { active };
                let fc = if has_broken { s.fwd_clean[t] } else { fa };
                let bc = if has_broken { s.bwd_clean[t] } else { ba };
                let mut obs_ok = fa & bc;
                let mut set_ok = fc & ba;
                if has_broken {
                    obs_ok &= !s.broken[t];
                    set_ok &= !s.broken[t];
                }
                let miss_obs = active & !obs_ok;
                let miss_set = active & !set_ok;
                if miss_obs | miss_set != 0 {
                    f(t, miss_obs, miss_set);
                }
            }
        }
    }

    /// Evaluates the current block: one forward + one backward relaxation
    /// (each fused over the any/clean variants the block needs), then a
    /// word-parallel decode over the live segments. Returns each mode's
    /// obs/set damage split and importance flag, in push order.
    #[must_use]
    pub fn eval_damages(&self, s: &mut BlockScratch) -> Vec<ModeDamage> {
        let mut out = vec![
            ModeDamage {
                obs: self.dead_obs,
                set: self.dead_set,
                affects_important: self.dead_important,
            };
            s.len
        ];
        // Lanes that lost an important instrument, folded word-wide.
        let mut important = 0;
        self.for_each_miss(s, |t, miss_obs, miss_set| {
            // Lane accumulators saturate: damage is a monotone ceiling past
            // u64::MAX (see `criticality::Criticality::total_damage`).
            for_each_lane(miss_obs, |l| out[l].obs = out[l].obs.saturating_add(self.live_obs_w[t]));
            for_each_lane(miss_set, |l| out[l].set = out[l].set.saturating_add(self.live_set_w[t]));
            if self.important_obs.contains(t) {
                important |= miss_obs;
            }
            if self.important_set.contains(t) {
                important |= miss_set;
            }
        });
        for_each_lane(important, |l| out[l].affects_important = true);
        out
    }

    /// [`eval_damages`](Self::eval_damages) with full provenance per mode:
    /// the obs/set damage split and the lost-segment records (ascending by
    /// segment).
    pub(crate) fn eval_traced(&self, s: &mut BlockScratch) -> Vec<ModeTrace> {
        let mut out = vec![
            ModeTrace {
                obs_damage: self.dead_obs,
                set_damage: self.dead_set,
                affects_important: self.dead_important,
                lost: Vec::new(),
            };
            s.len
        ];
        self.for_each_miss(s, |t, miss_obs, miss_set| {
            for_each_lane(miss_obs | miss_set, |l| {
                let trace = &mut out[l];
                let lost_obs = miss_obs & (1 << l) != 0;
                let lost_set = miss_set & (1 << l) != 0;
                if lost_obs {
                    trace.obs_damage = trace.obs_damage.saturating_add(self.live_obs_w[t]);
                    trace.affects_important |= self.important_obs.contains(t);
                }
                if lost_set {
                    trace.set_damage = trace.set_damage.saturating_add(self.live_set_w[t]);
                    trace.affects_important |= self.important_set.contains(t);
                }
                trace.lost.push(LostSegment { segment: t as u32, lost_obs, lost_set });
            });
        });
        out
    }
}
