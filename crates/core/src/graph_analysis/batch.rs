//! The graph-exact reachability engine: fault modes evaluated mode-major,
//! up to [`LANES`] modes per block, re-deriving only what a block changes.
//!
//! A sweep evaluates thousands of fault modes over the *same* adjacency, so
//! the traversal structure is identical every time; only the pruned edges
//! and blocked nodes differ. Each node therefore carries one **lane-word**
//! whose bit *l* means "mode *l* of the current block still reaches this
//! node", and one relaxation over the topologically ordered CSR propagates
//! all lanes at once.
//!
//! Reachability under a fault mode is monotone over a DAG, so the
//! traversal becomes a relaxation in topological order:
//!
//! * **forward** (pull): `R[v] = OR over incoming edges (u, q) of
//!   R[u] & usable(v, q)`, with the scan-in preset;
//! * **backward** (pull over successors): `R[u] = OR over outgoing edges
//!   (u → v, q) of R[v] & usable(v, q)`, with the scan-out preset.
//!
//! `usable(v, q)` encodes the frozen-select rule per lane:
//! `!restrict[v] | allow[e]` — `restrict[v]` masks the lanes freezing mux
//! `v`, and `allow[e]` re-opens the edges whose source is the frozen port's
//! input **node** (every parallel edge from that node). The clean variants
//! additionally mask the node's own `broken` lanes, and the presets keep the
//! "start is always visited" rule.
//!
//! # Difference-driven blocks
//!
//! A lane without faults relaxes exactly like the fault-free network, so
//! the four reach maps of a [`BlockScratch`] are **baseline-resident**:
//! between blocks every word is all ones where the fault-free network
//! reaches the node and zero elsewhere, and lanes past a block's length
//! stay there. A block then only re-derives the nodes its faults can
//! change:
//!
//! * the forward pass starts from the block's frozen and broken nodes and
//!   takes pending nodes in topological position from a word bitset; a
//!   node's successors are queued only when its recomputed words differ
//!   from the ones it held;
//! * the backward pass does the same in reverse position, seeded with the
//!   broken nodes and the predecessors of frozen muxes;
//! * the decode visits only the live segments whose words moved (broken
//!   ones included) — every other live segment is reachable both ways in
//!   every lane — in ascending node order, and restores each moved node to
//!   the baseline as it goes.
//!
//! A block costs O(nodes changed + N/64), not O(V + E). A broken node every
//! fault-free scan path passes through (an *articulation*, flagged once
//! per network in the kernel's graph half) changes
//! everything downstream and upstream of it, so the block driver packs
//! such modes into their own blocks, where that leaves fewer blocks
//! holding one, and the rest stay local.
//!
//! The engine is differentially tested against the `Vec<bool>` reference
//! ([`reference`](super::reference)) and the accessibility oracle
//! (`tests/prop_batch_kernel.rs`, `tests/prop_graph_kernel.rs`,
//! `tests/prop_sparse_kernel.rs`).

use rsn_model::NodeId;

use crate::shard::ModeDamage;

use super::{LostSegment, ModeTrace, ReachKernel};

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

/// Per-worker mutable state of the engine: the baseline-resident lane-word
/// reach maps, the restrict/broken and per-edge allow masks, the touched
/// lists that make the per-block reset O(touched), and the pending and
/// moved bitsets of the sparse passes. Everything but `moved` is indexed by
/// topological position (edges in the kernel's position order).
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
    /// Lanes freezing the mux at a position (any port).
    restrict: Vec<u64>,
    /// Lanes for which incoming edge `e` stays usable despite `restrict`.
    allow: Vec<u64>,
    /// Lanes in which the node at a position is broken.
    broken: Vec<u64>,
    /// Positions with a nonzero `restrict` word (reset list).
    frozen_nodes: Vec<u32>,
    /// Edges with a nonzero `allow` word (reset list).
    allow_edges: Vec<u32>,
    /// Positions with a nonzero `broken` word (reset list).
    broken_nodes: Vec<u32>,
    /// Positions queued for a pass (empty between passes).
    pending: Vec<u64>,
    /// Node indices whose words left the baseline this block, or that are
    /// broken (empty between blocks).
    moved: Vec<u64>,
    /// Node words the last evaluated block re-derived, both passes.
    relaxed: u64,
}

impl BlockScratch {
    /// Resets the scratch for a fresh block. O(masks touched by the previous
    /// block), not O(V + E): the reach maps are back at the baseline after
    /// every evaluation.
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
        self.relaxed = 0;
    }

    /// Node words the last evaluated block re-derived across both passes.
    pub(crate) fn relaxed(&self) -> u64 {
        self.relaxed
    }
}

/// All lanes set when `reached`, none otherwise: a baseline lane word.
#[inline]
fn word(reached: bool) -> u64 {
    0u64.wrapping_sub(u64::from(reached))
}

/// Sets bit `i` of a word bitset.
#[inline]
fn mark(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

impl ReachKernel {
    /// Allocates a per-worker scratch sized for this kernel (reused across
    /// every block the worker evaluates), with its reach maps at the
    /// fault-free baseline.
    #[must_use]
    pub fn block_scratch(&self) -> BlockScratch {
        let g = &*self.graph;
        let n = g.node_count;
        let e = *g.pred_off.last().expect("offsets nonempty") as usize;
        let fwd: Vec<u64> = (0..n).map(|v| word(g.base_fwd.contains(v))).collect();
        let bwd: Vec<u64> = (0..n).map(|v| word(g.base_bwd.contains(v))).collect();
        BlockScratch {
            len: 0,
            fwd_any: fwd.clone(),
            fwd_clean: fwd,
            bwd_any: bwd.clone(),
            bwd_clean: bwd,
            restrict: vec![0; n],
            allow: vec![0; e],
            broken: vec![0; n],
            frozen_nodes: Vec::new(),
            allow_edges: Vec::new(),
            broken_nodes: Vec::new(),
            pending: vec![0; n.div_ceil(64)],
            moved: vec![0; n.div_ceil(64)],
            relaxed: 0,
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
        let g = &*self.graph;
        let lane = s.len;
        s.len += 1;
        for &(m, p) in frozen {
            assert!(g.is_mux.contains(m.index()), "frozen node is a mux");
            let mi = g.pos[m.index()] as usize;
            if s.restrict[mi] & (1 << lane) != 0 {
                continue;
            }
            if s.restrict[mi] == 0 {
                s.frozen_nodes.push(mi as u32);
            }
            s.restrict[mi] |= 1 << lane;
            let base = g.pred_off[mi] as usize;
            let inputs = g.predecessors(mi);
            if let Some(&sel) = inputs.get(p) {
                // Re-open every incoming edge whose *source node* is the
                // selected input — parallel edges from the same node are all
                // usable. A port without an input re-opens none.
                for (q, &u) in inputs.iter().enumerate() {
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
            let bi = g.pos[b.index()] as usize;
            if s.broken[bi] == 0 {
                s.broken_nodes.push(bi as u32);
            }
            s.broken[bi] |= 1 << lane;
        }
    }

    /// The sparse forward pass: re-derives, in ascending topological
    /// position, the nodes whose inputs or own masks changed, and queues a
    /// node's successors only when its words moved. The word being walked
    /// stays in a register (successors always sit at higher positions, so
    /// the ones in the same word are still ahead). Returns the nodes
    /// re-derived.
    fn forward(&self, s: &mut BlockScratch) -> u64 {
        let g = &*self.graph;
        let BlockScratch { fwd_any, fwd_clean, restrict, allow, broken, pending, moved, .. } = s;
        let mut hi = 0;
        for &p in s.frozen_nodes.iter().chain(&s.broken_nodes) {
            mark(pending, p as usize);
            hi = hi.max(p as usize / 64);
        }
        let mut relaxed = 0;
        let mut w = 0;
        while w <= hi {
            let mut bits = std::mem::take(&mut pending[w]);
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Scan-in keeps its preset: the start is always visited.
                if p == g.scan_in as usize {
                    continue;
                }
                relaxed += 1;
                let preds = g.predecessors(p);
                let (mut any, mut clean) = (0, 0);
                if restrict[p] == 0 {
                    // No lane freezes p: every incoming edge is fully open.
                    for &u in preds {
                        any |= fwd_any[u as usize];
                        clean |= fwd_clean[u as usize];
                    }
                } else {
                    let open = !restrict[p];
                    let base = g.pred_off[p] as usize;
                    for (q, &u) in preds.iter().enumerate() {
                        let usable = open | allow[base + q];
                        any |= fwd_any[u as usize] & usable;
                        clean |= fwd_clean[u as usize] & usable;
                    }
                }
                clean &= !broken[p];
                if any != fwd_any[p] || clean != fwd_clean[p] {
                    fwd_any[p] = any;
                    fwd_clean[p] = clean;
                    mark(moved, g.topo[p] as usize);
                    for &(x, _) in g.successors(p) {
                        let (xw, xb) = (x as usize / 64, x % 64);
                        if xw == w {
                            bits |= 1 << xb;
                        } else {
                            pending[xw] |= 1 << xb;
                            hi = hi.max(xw);
                        }
                    }
                }
            }
            w += 1;
        }
        relaxed
    }

    /// The sparse backward pass: [`forward`](Self::forward) in descending
    /// position, pulling over successor edges, seeded with the broken nodes
    /// and the predecessors of frozen muxes.
    fn backward(&self, s: &mut BlockScratch) -> u64 {
        let g = &*self.graph;
        let BlockScratch { bwd_any, bwd_clean, restrict, allow, broken, pending, moved, .. } = s;
        let mut lo = usize::MAX;
        let seeds = s.frozen_nodes.iter().flat_map(|&m| g.predecessors(m as usize));
        for &p in seeds.chain(&s.broken_nodes) {
            mark(pending, p as usize);
            lo = lo.min(p as usize / 64);
        }
        let mut relaxed = 0;
        let mut w = pending.len();
        while w > lo {
            w -= 1;
            let mut bits = std::mem::take(&mut pending[w]);
            while bits != 0 {
                let top = 63 - bits.leading_zeros() as usize;
                bits &= !(1 << top);
                let p = w * 64 + top;
                // Scan-out keeps its preset: the start is always visited.
                if p == g.scan_out as usize {
                    continue;
                }
                relaxed += 1;
                let (mut any, mut clean) = (0, 0);
                for &(v, e) in g.successors(p) {
                    let v = v as usize;
                    let usable =
                        if restrict[v] == 0 { !0 } else { !restrict[v] | allow[e as usize] };
                    any |= bwd_any[v] & usable;
                    clean |= bwd_clean[v] & usable;
                }
                clean &= !broken[p];
                if any != bwd_any[p] || clean != bwd_clean[p] {
                    bwd_any[p] = any;
                    bwd_clean[p] = clean;
                    mark(moved, g.topo[p] as usize);
                    for &x in g.predecessors(p) {
                        let (xw, xb) = (x as usize / 64, x % 64);
                        if xw == w {
                            bits |= 1 << xb;
                        } else {
                            pending[xw] |= 1 << xb;
                            lo = lo.min(xw);
                        }
                    }
                }
            }
        }
        relaxed
    }

    /// Relaxes the current block, then walks the moved nodes word-parallel
    /// in ascending node order, restoring each to the baseline, and calls
    /// `f(segment, miss_obs, miss_set)` for every live segment some lane
    /// lost, with the lanes that lost its observability and its
    /// settability.
    fn for_each_miss(&self, s: &mut BlockScratch, mut f: impl FnMut(usize, u64, u64)) {
        let g = &*self.graph;
        for &p in &s.broken_nodes {
            mark(&mut s.moved, g.topo[p as usize] as usize);
        }
        s.relaxed = self.forward(s) + self.backward(s);
        let active = lane_mask(s.len);
        for (w, &live) in g.live.words().iter().enumerate() {
            let mut moved = std::mem::take(&mut s.moved[w]);
            while moved != 0 {
                let t = w * 64 + moved.trailing_zeros() as usize;
                moved &= moved - 1;
                let p = g.pos[t] as usize;
                let (fa, fc) = (s.fwd_any[p], s.fwd_clean[p]);
                let (ba, bc) = (s.bwd_any[p], s.bwd_clean[p]);
                let (f0, b0) = (word(g.base_fwd.contains(p)), word(g.base_bwd.contains(p)));
                s.fwd_any[p] = f0;
                s.fwd_clean[p] = f0;
                s.bwd_any[p] = b0;
                s.bwd_clean[p] = b0;
                if live & (1 << (t % 64)) == 0 {
                    continue;
                }
                let ok = !s.broken[p];
                let miss_obs = active & !(fa & bc & ok);
                let miss_set = active & !(fc & ba & ok);
                if miss_obs | miss_set != 0 {
                    f(t, miss_obs, miss_set);
                }
            }
        }
    }

    /// Evaluates the current block: one sparse forward and one sparse
    /// backward pass (each fused over the any/clean variants), then the
    /// decode over the moved live segments. Returns each mode's obs/set
    /// damage split and importance flag, in push order, and leaves the reach
    /// maps at the baseline.
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
                damage: ModeDamage {
                    obs: self.dead_obs,
                    set: self.dead_set,
                    affects_important: self.dead_important,
                },
                lost: Vec::new(),
            };
            s.len
        ];
        self.for_each_miss(s, |t, miss_obs, miss_set| {
            for_each_lane(miss_obs | miss_set, |l| {
                let trace = &mut out[l];
                let lost_obs = miss_obs & (1 << l) != 0;
                let lost_set = miss_set & (1 << l) != 0;
                let damage = &mut trace.damage;
                if lost_obs {
                    damage.obs = damage.obs.saturating_add(self.live_obs_w[t]);
                    damage.affects_important |= self.important_obs.contains(t);
                }
                if lost_set {
                    damage.set = damage.set.saturating_add(self.live_set_w[t]);
                    damage.affects_important |= self.important_set.contains(t);
                }
                trace.lost.push(LostSegment { segment: t as u32, lost_obs, lost_set });
            });
        });
        out
    }
}
