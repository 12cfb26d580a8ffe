//! Fleet-scale generators: 100k–1M-segment hierarchical SoCs.
//!
//! Table I tops out at ~1.2k segments; serving fleets schedule analyses over
//! networks two to three orders of magnitude larger. These generators
//! produce such networks deterministically from a seed, in three shapes that
//! stress different parts of the pipeline:
//!
//! * [`deep_sib_tree`] — a SIB tower tens of thousands of levels deep. The
//!   degenerate shape for anything call-stack-recursive: parsing, building,
//!   printing and dropping it must all be iterative.
//! * [`ring_of_rings`] — wide and shallow: many SIB-gated scan rings, each
//!   ring a two-way selection between register chains. Stresses per-element
//!   allocation and CSR construction, not depth.
//! * [`multi_chiplet`] — a stitched multi-chiplet package: SIB-gated chiplet
//!   wrappers, each with its own mixed SIB/selection interior derived from a
//!   per-chiplet seed. The realistic mixed shape.
//!
//! Every generator documents an exact segment/mux count contract (tested),
//! and all construction is **bottom-up iterative** — no generator recursion,
//! so a 1M-segment network never risks the generator's own call stack. The
//! emitted [`Structure`] values still nest, but `rsn-model`'s walks (count,
//! build, parse, print, drop) are themselves iterative.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rsn_model::{InstrumentKind, InstrumentSpec, MuxSpec, SegmentSpec, Structure};

/// A wrapper register hosting an instrument, named `{prefix}w{idx}`.
fn register(rng: &mut ChaCha8Rng, prefix: &str, idx: &mut usize) -> Structure {
    let len = rng.random_range(1..=16);
    let s = Structure::Segment(SegmentSpec {
        name: Some(format!("{prefix}w{idx}")),
        len,
        instrument: Some(InstrumentSpec {
            name: None,
            kind: match *idx % 4 {
                0 => InstrumentKind::Bist,
                1 => InstrumentKind::Sensor,
                2 => InstrumentKind::Debug,
                _ => InstrumentKind::Generic,
            },
        }),
    });
    *idx += 1;
    s
}

/// A SIB tower `depth` levels deep with `regs_per_level` wrapper registers
/// beside each SIB, bottoming out in one terminal register.
///
/// Exact counts: `segments = depth * (regs_per_level + 1) + 1` (each level
/// contributes its SIB control cell plus its registers) and `muxes = depth`.
///
/// Built bottom-up with a loop — the tower itself is the stress test for
/// call-stack recursion elsewhere, so the generator must not recurse either.
///
/// # Panics
///
/// Panics if `depth == 0` or `regs_per_level == 0`.
#[must_use]
pub fn deep_sib_tree(depth: usize, regs_per_level: usize, seed: u64) -> Structure {
    assert!(depth >= 1, "deep_sib_tree needs depth >= 1");
    assert!(regs_per_level >= 1, "deep_sib_tree needs regs_per_level >= 1");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut idx = 0;
    // Innermost payload first; each iteration wraps the previous level in a
    // SIB and lays that level's registers beside it. Register indices run
    // innermost-first, which is fine: the contract is determinism per seed,
    // not any particular naming order.
    let mut inner = Structure::Series(vec![register(&mut rng, "", &mut idx)]);
    for level in (0..depth).rev() {
        let mut parts = Vec::with_capacity(regs_per_level + 1);
        for _ in 0..regs_per_level {
            parts.push(register(&mut rng, "", &mut idx));
        }
        parts.push(Structure::Sib { name: Some(format!("d{level}")), inner: Box::new(inner) });
        inner = Structure::Series(parts);
    }
    inner
}

/// A backbone of `rings` SIB-gated scan rings; each ring is a two-way
/// selection between two register chains totalling `ring_size` registers.
///
/// Exact counts: `segments = rings * (ring_size + 1)` (SIB cell + registers
/// per ring) and `muxes = 2 * rings` (SIB mux + selection mux per ring).
///
/// # Panics
///
/// Panics if `rings == 0` or `ring_size < 2` (a selection needs a register
/// on each branch).
#[must_use]
pub fn ring_of_rings(rings: usize, ring_size: usize, seed: u64) -> Structure {
    assert!(rings >= 1, "ring_of_rings needs rings >= 1");
    assert!(ring_size >= 2, "ring_of_rings needs ring_size >= 2");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut parts = Vec::with_capacity(rings);
    for r in 0..rings {
        let prefix = format!("r{r}.");
        let mut idx = 0;
        let split = rng.random_range(1..ring_size);
        let a: Vec<Structure> = (0..split).map(|_| register(&mut rng, &prefix, &mut idx)).collect();
        let b: Vec<Structure> =
            (0..ring_size - split).map(|_| register(&mut rng, &prefix, &mut idx)).collect();
        let selection = Structure::Parallel {
            branches: vec![Structure::Series(a), Structure::Series(b)],
            mux: MuxSpec::named(format!("r{r}.sel")),
        };
        parts.push(Structure::Sib { name: Some(format!("r{r}")), inner: Box::new(selection) });
    }
    Structure::Series(parts)
}

/// A multi-chiplet package: `chiplets` SIB-gated chiplet wrappers stitched
/// in series, each interior a flat mix of SIB-gated register groups, two-way
/// selections and backbone registers derived from a per-chiplet seed.
///
/// Exact counts: `segments = chiplets * (seg_per + 1)` and
/// `muxes = chiplets * (mux_per + 1)` (the `+ 1`s are each chiplet's
/// stitching SIB).
///
/// # Panics
///
/// Panics unless `chiplets >= 1` and `seg_per > mux_per >= 1`.
#[must_use]
pub fn multi_chiplet(chiplets: usize, seg_per: usize, mux_per: usize, seed: u64) -> Structure {
    assert!(chiplets >= 1, "multi_chiplet needs chiplets >= 1");
    assert!(
        mux_per >= 1 && seg_per > mux_per,
        "multi_chiplet needs seg_per > mux_per >= 1 per chiplet"
    );
    let mut top = ChaCha8Rng::seed_from_u64(seed);
    let mut parts = Vec::with_capacity(chiplets);
    for c in 0..chiplets {
        // Independent per-chiplet stream so chiplet interiors don't shift
        // when the chiplet count changes.
        let chip_seed = top.random();
        let inner = chiplet(c, seg_per, mux_per, chip_seed);
        parts.push(Structure::Sib { name: Some(format!("chip{c}")), inner: Box::new(inner) });
    }
    Structure::Series(parts)
}

/// One chiplet interior: exactly `segments` segments and `muxes` muxes, one
/// hierarchy level deep (SIB-gated flat groups and two-way selections on a
/// register backbone). Iterative by construction.
fn chiplet(chip: usize, segments: usize, muxes: usize, seed: u64) -> Structure {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let prefix = format!("c{chip}.");
    let mut idx = 0;

    // Roughly a quarter of the muxes become two-way selections (2 registers
    // minimum each), the rest SIB groups (1 control cell each). Shrink the
    // selection share until the register budget covers it.
    let mut n_select = muxes / 4;
    let mut registers = segments - (muxes - n_select);
    while registers < 2 * n_select && n_select > 0 {
        n_select -= 1;
        registers = segments - (muxes - n_select);
    }
    let n_sib = muxes - n_select;

    // Deal the register budget: minimums first (2 per selection, and 1 for
    // the first SIB group when no selection precedes it in series order, so
    // an empty leading group never needs a previous element to gate), then
    // the surplus spread over all slots (selections, SIB groups, backbone).
    let slots = n_select + n_sib + 1;
    let mut budget = vec![0usize; slots];
    for b in budget.iter_mut().take(n_select) {
        *b = 2;
    }
    let mut reserved = 2 * n_select;
    if n_select == 0 && n_sib > 0 {
        budget[0] = 1;
        reserved = 1;
    }
    let mut surplus = registers - reserved;
    while surplus > 0 {
        let take = surplus.min(1 + surplus / slots);
        budget[rng.random_range(0..slots)] += take;
        surplus -= take;
    }

    let mut parts = Vec::new();
    for (slot, &regs) in budget.iter().enumerate() {
        if slot < n_select {
            let split = 1 + rng.random_range(0..regs - 1);
            let a: Vec<Structure> =
                (0..split).map(|_| register(&mut rng, &prefix, &mut idx)).collect();
            let b: Vec<Structure> =
                (0..regs - split).map(|_| register(&mut rng, &prefix, &mut idx)).collect();
            parts.push(Structure::Parallel {
                branches: vec![Structure::Series(a), Structure::Series(b)],
                mux: MuxSpec::named(format!("{prefix}sel{slot}")),
            });
        } else if slot < n_select + n_sib {
            // A SIB group; an empty group gates the element before it so the
            // SIB's inner body is never a bare wire.
            let group: Vec<Structure> =
                (0..regs).map(|_| register(&mut rng, &prefix, &mut idx)).collect();
            let name = format!("{prefix}m{}", slot - n_select);
            let inner = if group.is_empty() {
                // Never the first element: either a selection or the first
                // group's reserved register precedes it (see the budget
                // minimums above), so the count contract holds.
                parts.pop().expect("a previous element to gate")
            } else {
                Structure::Series(group)
            };
            parts.push(Structure::Sib { name: Some(name), inner: Box::new(inner) });
        } else {
            for _ in 0..regs {
                parts.push(register(&mut rng, &prefix, &mut idx));
            }
        }
    }
    Structure::Series(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_sib_tree_counts_are_exact() {
        for (depth, regs, seed) in [(1, 1, 0), (7, 3, 1), (50, 2, 2), (333, 1, 3)] {
            let s = deep_sib_tree(depth, regs, seed);
            assert_eq!(s.count_segments(), depth * (regs + 1) + 1, "segments d={depth} r={regs}");
            assert_eq!(s.count_muxes(), depth, "muxes d={depth}");
            let (net, _) = s.build("deep").unwrap();
            assert_eq!(net.stats().segments, depth * (regs + 1) + 1);
            assert_eq!(net.stats().muxes, depth);
        }
    }

    #[test]
    fn ring_of_rings_counts_are_exact() {
        for (rings, size, seed) in [(1, 2, 0), (5, 9, 1), (40, 3, 2), (200, 11, 3)] {
            let s = ring_of_rings(rings, size, seed);
            assert_eq!(s.count_segments(), rings * (size + 1), "segments n={rings} s={size}");
            assert_eq!(s.count_muxes(), 2 * rings, "muxes n={rings}");
            let (net, _) = s.build("rings").unwrap();
            assert_eq!(net.stats().segments, rings * (size + 1));
            assert_eq!(net.stats().muxes, 2 * rings);
        }
    }

    #[test]
    fn multi_chiplet_counts_are_exact() {
        for (chips, seg, mux, seed) in [(1, 10, 4, 0), (4, 47, 25, 1), (16, 100, 40, 2)] {
            let s = multi_chiplet(chips, seg, mux, seed);
            assert_eq!(s.count_segments(), chips * (seg + 1), "segments c={chips}");
            assert_eq!(s.count_muxes(), chips * (mux + 1), "muxes c={chips}");
            let (net, _) = s.build("chiplets").unwrap();
            assert_eq!(net.stats().segments, chips * (seg + 1));
            assert_eq!(net.stats().muxes, chips * (mux + 1));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        // Moderate sizes: derived PartialEq recurses, so equality checks
        // stay off the giant shapes.
        let a = deep_sib_tree(40, 2, 7);
        let b = deep_sib_tree(40, 2, 7);
        assert_eq!(a, b);
        assert_ne!(a, deep_sib_tree(40, 2, 8));
        let a = ring_of_rings(20, 5, 7);
        assert_eq!(a, ring_of_rings(20, 5, 7));
        assert_ne!(a, ring_of_rings(20, 5, 8));
        let a = multi_chiplet(3, 30, 12, 7);
        assert_eq!(a, multi_chiplet(3, 30, 12, 7));
        assert_ne!(a, multi_chiplet(3, 30, 12, 8));
    }

    /// The 20k-segment tower of `rsn_tool gen deep-sib --segments 20000
    /// --seed 2022` builds, lowers to its decomposition tree and validates
    /// on a thread with the 2 MiB default stack a daemon worker runs on:
    /// lowering walks its nesting with a heap stack, not the call stack.
    #[test]
    fn deep_sib_tower_lowers_on_a_default_worker_stack() {
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            let (net, built) = deep_sib_tree(10_000, 1, 2022).build("deep10000").unwrap();
            assert_eq!(net.stats().segments, 20_001);
            let tree = rsn_sp::tree_from_structure(&net, &built);
            tree.validate(&net).unwrap();
            assert_eq!(tree.shape().segment_leaves, 20_001);
        });
        worker.unwrap().join().expect("the tower lowers without overflowing the stack");
    }

    #[test]
    fn giant_shapes_build_in_bounded_stack() {
        // >= 100k segments each; exercises the iterative count/build/drop
        // paths end to end. The full-sweep acceptance run lives in
        // scripts/giant_smoke.sh (release mode) — a debug-mode sweep at this
        // scale would dominate the test suite.
        let deep = deep_sib_tree(50_000, 1, 1); // 100_001 segments
        assert_eq!(deep.count_segments(), 100_001);
        let (net, _) = deep.build("deep100k").unwrap();
        assert_eq!(net.stats().segments, 100_001);
        drop(net);
        drop(deep);

        let wide = ring_of_rings(10_000, 9, 1); // 100_000 segments
        assert_eq!(wide.count_segments(), 100_000);
        let (net, _) = wide.build("rings100k").unwrap();
        assert_eq!(net.stats().segments, 100_000);
        drop(net);
        drop(wide);

        let chips = multi_chiplet(100, 999, 399, 1); // 100_000 segments
        assert_eq!(chips.count_segments(), 100_000);
        let (net, _) = chips.build("chips100k").unwrap();
        assert_eq!(net.stats().segments, 100_000);
    }

    #[test]
    fn giant_networks_print_and_reparse() {
        // The textual round trip at moderate-giant size: parse must agree
        // with the in-memory structure's counts (streamed, iterative).
        let s = multi_chiplet(10, 299, 99, 5);
        let text = rsn_model::format::print_network("chips", &s);
        let (name, parsed) = rsn_model::format::parse_network(&text).unwrap();
        assert_eq!(name, "chips");
        assert_eq!(parsed.count_segments(), s.count_segments());
        assert_eq!(parsed.count_muxes(), s.count_muxes());
    }
}
