//! Construction of decomposition trees from structural descriptions.
//!
//! The [`BuiltStructure`] produced by [`Structure::build`] already *is* a
//! (hierarchical, n-ary) series-parallel decomposition; this module lowers it
//! into the binary [`DecompTree`] form, folding series chains and parallel
//! groups **balanced** so that the tree depth stays logarithmic even for the
//! hundred-thousand-segment benchmark networks.
//!
//! [`Structure::build`]: rsn_model::Structure::build

use rsn_model::{BuiltStructure, NodeId, ScanNetwork};

use crate::tree::{DecompTree, Leaf, TreeId, TreeNode};

/// Lowers a built structure into its binary decomposition tree.
///
/// The resulting tree is validated by construction: leaves appear in scan
/// order and every parallel group carries its closing multiplexer.
///
/// # Panics
///
/// Panics if `built` references node ids outside `net` (impossible when both
/// come from the same [`Structure::build`](rsn_model::Structure::build)
/// call).
#[must_use]
pub fn tree_from_structure(net: &ScanNetwork, built: &BuiltStructure) -> DecompTree {
    let mut tree = DecompTree::with_capacity(net);
    let root = lower(&mut tree, built);
    let root = match root {
        Some(r) => r,
        // A degenerate network without primitives: a single wire leaf.
        None => tree.push(TreeNode::Leaf(Leaf::Wire)),
    };
    tree.set_root(root);
    tree
}

/// One step of [`lower`]'s explicit work stack.
enum Step<'a> {
    /// Lower a structure: push its subtree root (or `None`) on the result
    /// stack.
    Enter(&'a BuiltStructure),
    /// A parallel branch was lowered: a pure wire becomes a wire leaf.
    WireBranch,
    /// The `parts` results on top of the result stack fold into a series.
    Series { parts: usize },
    /// The `branches` results on top of the result stack close the group
    /// of `mux`.
    Parallel { branches: usize, mux: NodeId },
}

/// Returns the subtree root for `bs`, or `None` for pure wires (which only
/// materialize as leaves inside parallel groups).
///
/// Walks the structure with an explicit work stack, not the call stack, so
/// nesting depth costs heap, not stack: a SIB tower tens of thousands of
/// levels deep lowers on a worker thread's default stack. Children are
/// lowered left to right and every node is pushed when a depth-first
/// recursion would push it, so the arena order is that of the recursive
/// definition.
fn lower(tree: &mut DecompTree, bs: &BuiltStructure) -> Option<TreeId> {
    let mut steps = vec![Step::Enter(bs)];
    let mut results: Vec<Option<TreeId>> = Vec::new();
    while let Some(step) = steps.pop() {
        match step {
            Step::Enter(BuiltStructure::Segment(id)) => {
                results.push(Some(tree.push(TreeNode::Leaf(Leaf::Segment(*id)))));
            }
            Step::Enter(BuiltStructure::Wire) => results.push(None),
            Step::Enter(BuiltStructure::Series(parts)) => {
                steps.push(Step::Series { parts: parts.len() });
                steps.extend(parts.iter().rev().map(Step::Enter));
            }
            Step::Enter(BuiltStructure::Parallel { branches, mux }) => {
                steps.push(Step::Parallel { branches: branches.len(), mux: *mux });
                for b in branches.iter().rev() {
                    steps.push(Step::WireBranch);
                    steps.push(Step::Enter(b));
                }
            }
            Step::WireBranch => {
                let root = results.last_mut().expect("a lowered branch");
                if root.is_none() {
                    *root = Some(tree.push(TreeNode::Leaf(Leaf::Wire)));
                }
            }
            Step::Series { parts } => {
                let children = results.drain(results.len() - parts..).flatten().collect();
                let root = fold_series(tree, children);
                results.push(root);
            }
            Step::Parallel { branches, mux } => {
                let branch_roots: Vec<TreeId> =
                    results.drain(results.len() - branches..).flatten().collect();
                tree.set_mux_branches(mux, branch_roots.clone());
                let group = fold_parallel(tree, branch_roots, mux)
                    .expect("parallel groups have at least two branches");
                let mux_leaf = tree.push(TreeNode::Leaf(Leaf::Mux(mux)));
                results.push(Some(tree.push(TreeNode::Series { left: group, right: mux_leaf })));
            }
        }
    }
    results.pop().expect("the root's result")
}

/// Balanced left-to-right series fold.
fn fold_series(tree: &mut DecompTree, mut items: Vec<TreeId>) -> Option<TreeId> {
    if items.is_empty() {
        return None;
    }
    while items.len() > 1 {
        items =
            pairwise(tree, items, |tree, left, right| tree.push(TreeNode::Series { left, right }));
    }
    items.pop()
}

/// Balanced parallel fold; every internal P node carries the group's mux.
fn fold_parallel(tree: &mut DecompTree, mut items: Vec<TreeId>, mux: NodeId) -> Option<TreeId> {
    if items.is_empty() {
        return None;
    }
    while items.len() > 1 {
        items = pairwise(tree, items, |tree, left, right| {
            tree.push(TreeNode::Parallel { left, right, mux })
        });
    }
    items.pop()
}

fn pairwise(
    tree: &mut DecompTree,
    items: Vec<TreeId>,
    mut join: impl FnMut(&mut DecompTree, TreeId, TreeId) -> TreeId,
) -> Vec<TreeId> {
    let mut next = Vec::with_capacity(items.len().div_ceil(2));
    let mut iter = items.into_iter();
    while let Some(a) = iter.next() {
        match iter.next() {
            Some(b) => next.push(join(tree, a, b)),
            None => next.push(a),
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_model::Structure;

    #[test]
    fn long_series_chain_has_logarithmic_depth() {
        let parts: Vec<Structure> = (0..1024).map(|i| Structure::seg(format!("c{i}"), 1)).collect();
        let (net, built) = Structure::series(parts).build("chain").unwrap();
        let tree = tree_from_structure(&net, &built);
        tree.validate(&net).unwrap();
        assert_eq!(tree.shape().segment_leaves, 1024);
        assert!(tree.depth() <= 12, "depth {} should be ~log2(1024)+1", tree.depth());
    }

    #[test]
    fn wide_parallel_group_has_logarithmic_depth() {
        let branches: Vec<Structure> =
            (0..256).map(|i| Structure::seg(format!("b{i}"), 1)).collect();
        let (net, built) = Structure::parallel(branches, "m").build("wide").unwrap();
        let tree = tree_from_structure(&net, &built);
        tree.validate(&net).unwrap();
        let m = net.muxes().next().unwrap();
        assert_eq!(tree.branches_of(m).unwrap().len(), 256);
        assert!(tree.depth() <= 11, "depth {}", tree.depth());
    }

    #[test]
    fn sib_lowering_keeps_wire_branch() {
        let (net, built) = Structure::sib("s", Structure::seg("d", 4)).build("sib").unwrap();
        let tree = tree_from_structure(&net, &built);
        tree.validate(&net).unwrap();
        let shape = tree.shape();
        assert_eq!(shape.wire_leaves, 1);
        assert_eq!(shape.segment_leaves, 2);
        assert_eq!(shape.mux_leaves, 1);
        // Select order: branch 0 is the bypass wire.
        let m = net.muxes().next().unwrap();
        let branches = tree.branches_of(m).unwrap();
        assert!(matches!(tree.node(branches[0]), TreeNode::Leaf(Leaf::Wire)));
    }

    #[test]
    fn degenerate_empty_structure_yields_wire_root() {
        let (net, built) = Structure::series(vec![]).build("empty").unwrap();
        let tree = tree_from_structure(&net, &built);
        assert!(matches!(tree.node(tree.root()), TreeNode::Leaf(Leaf::Wire)));
    }

    #[test]
    fn mux_leaf_follows_its_group_in_series() {
        let s = Structure::parallel(vec![Structure::seg("a", 1), Structure::seg("b", 1)], "m");
        let (net, built) = s.build("t").unwrap();
        let tree = tree_from_structure(&net, &built);
        match tree.node(tree.root()) {
            TreeNode::Series { left, right } => {
                assert!(matches!(tree.node(left), TreeNode::Parallel { .. }));
                assert!(matches!(tree.node(right), TreeNode::Leaf(Leaf::Mux(_))));
            }
            other => panic!("expected S(P, mux), got {other:?}"),
        }
    }
}
