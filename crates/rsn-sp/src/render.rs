//! ASCII rendering of decomposition trees (Fig. 3 style).

use std::io::{self, Write};

use rsn_model::ScanNetwork;

use crate::tree::{DecompTree, Leaf, TreeNode};

/// Renders the tree with one node per line, children indented, leaves
/// labeled with their network names. Optional per-leaf annotations (e.g.
/// damage weights) are appended by `annotate`.
///
/// # Examples
///
/// ```
/// use rsn_model::Structure;
/// use rsn_sp::{render::render_tree, tree_from_structure};
///
/// let (net, built) = Structure::parallel(
///     vec![Structure::seg("a", 1), Structure::seg("b", 1)],
///     "m0",
/// ).build("t")?;
/// let tree = tree_from_structure(&net, &built);
/// let text = render_tree(&tree, &net, |_| None);
/// assert!(text.contains("S"));
/// assert!(text.contains("a"));
/// # Ok::<(), rsn_model::NetworkError>(())
/// ```
#[must_use]
pub fn render_tree(
    tree: &DecompTree,
    net: &ScanNetwork,
    annotate: impl FnMut(Leaf) -> Option<String>,
) -> String {
    let mut out = Vec::new();
    write_tree(tree, net, annotate, &mut out).expect("writing to a Vec never fails");
    String::from_utf8(out).expect("labels are UTF-8")
}

/// [`render_tree`] streamed into `out`, line by line.
///
/// A line carries its node's whole indentation, so the rendering of a
/// deep tree grows with the square of its depth (a 20k-segment SIB tower
/// renders to gigabytes); streaming keeps memory bounded by one line.
///
/// # Errors
///
/// The first error `out` returns.
pub fn write_tree(
    tree: &DecompTree,
    net: &ScanNetwork,
    mut annotate: impl FnMut(Leaf) -> Option<String>,
    out: &mut impl Write,
) -> io::Result<()> {
    // Iterative pre-order over one shared indentation buffer: each entry
    // carries the length of its node's prefix, and every node pushed after
    // it (its left sibling's subtree) only writes past that length. The
    // bool marks the root, which gets neither connector nor indentation.
    let mut prefix = String::new();
    let mut stack = vec![(tree.root(), 0, true, true)];
    while let Some((id, prefix_len, is_last, is_root)) = stack.pop() {
        prefix.truncate(prefix_len);
        let connector = if is_root {
            ""
        } else if is_last {
            "`-- "
        } else {
            "|-- "
        };
        let label = match tree.node(id) {
            TreeNode::Leaf(l) => {
                let base = match l {
                    Leaf::Segment(n) | Leaf::Mux(n) => net.node(n).label(n),
                    Leaf::Wire => "(wire)".to_string(),
                };
                match annotate(l) {
                    Some(extra) => format!("{base} {extra}"),
                    None => base,
                }
            }
            TreeNode::Series { .. } => "S".to_string(),
            TreeNode::Parallel { mux, .. } => {
                format!("P (closed by {})", net.node(mux).label(mux))
            }
        };
        writeln!(out, "{prefix}{connector}{label}")?;
        if let TreeNode::Series { left, right } | TreeNode::Parallel { left, right, .. } =
            tree.node(id)
        {
            if !is_root {
                prefix.push_str(if is_last { "    " } else { "|   " });
            }
            // Push right first so the left child renders first.
            stack.push((right, prefix.len(), true, false));
            stack.push((left, prefix.len(), false, false));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::tree_from_structure;
    use rsn_model::Structure;

    #[test]
    fn renders_all_leaves() {
        let s = Structure::series(vec![
            Structure::seg("c0", 1),
            Structure::parallel(vec![Structure::seg("c1", 1), Structure::Wire], "m0"),
        ]);
        let (net, built) = s.build("t").unwrap();
        let tree = tree_from_structure(&net, &built);
        let text = render_tree(&tree, &net, |_| None);
        for name in ["c0", "c1", "m0", "(wire)"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("`-- "), "tree connectors missing:\n{text}");
        assert!(text.contains("|-- "), "tree connectors missing:\n{text}");
    }

    #[test]
    fn annotations_are_appended() {
        let (net, built) = Structure::seg("c0", 1).build("t").unwrap();
        let tree = tree_from_structure(&net, &built);
        let text = render_tree(&tree, &net, |_| Some("[do=5 ds=3]".into()));
        assert!(text.contains("c0 [do=5 ds=3]"));
    }

    #[test]
    fn deep_trees_render_without_overflow() {
        let parts: Vec<Structure> = (0..5000).map(|i| Structure::seg(format!("c{i}"), 1)).collect();
        let (net, built) = Structure::series(parts).build("deep").unwrap();
        let tree = tree_from_structure(&net, &built);
        let text = render_tree(&tree, &net, |_| None);
        assert!(text.lines().count() >= 5000);
    }
}
