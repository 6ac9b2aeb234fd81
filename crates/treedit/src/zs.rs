//! Zhang–Shasha ordered tree edit distance.
//!
//! Reference: K. Zhang, D. Shasha, "Simple fast algorithms for the editing
//! distance between trees and related problems", SIAM J. Comput. 1989 —
//! the algorithm behind the paper's tree edit distance \[9\]. Unit costs:
//! insert = delete = 1, rename = 0 if labels equal else 1.

use crate::tagtree::TagTree;

/// Postorder view of a tree required by Zhang–Shasha.
struct PostOrder {
    /// labels[i] = label of the node with postorder number i (0-based).
    labels: Vec<&'static str>,
    /// l[i] = postorder number of the leftmost leaf descendant of node i.
    lml: Vec<usize>,
    /// Keyroots in increasing postorder.
    keyroots: Vec<usize>,
}

fn postorder(tree: &TagTree) -> PostOrder {
    let n = tree.size();
    let mut labels = Vec::with_capacity(n);
    let mut lml = Vec::with_capacity(n);
    // order[node_idx] = postorder number
    let mut order = vec![usize::MAX; n];

    // Iterative postorder from the root (index 0).
    // State: (node, child_cursor)
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
        let kids = &tree.children[node];
        if *cursor < kids.len() {
            let child = kids[*cursor];
            *cursor += 1;
            stack.push((child, 0));
        } else {
            let num = labels.len();
            order[node] = num;
            labels.push(tree.labels[node]);
            let leftmost = if kids.is_empty() {
                num
            } else {
                lml[order[kids[0]]]
            };
            lml.push(leftmost);
            stack.pop();
        }
    }

    // Keyroots: the highest node for each distinct leftmost-leaf value.
    let mut keyroots = Vec::new();
    for i in 0..labels.len() {
        let is_keyroot = !(i + 1..labels.len()).any(|j| lml[j] == lml[i]);
        if is_keyroot {
            keyroots.push(i);
        }
    }
    PostOrder {
        labels,
        lml,
        keyroots,
    }
}

/// Tree edit distance between two [`TagTree`]s with unit costs.
#[allow(clippy::needless_range_loop)] // indices mirror the published algorithm
pub fn tree_edit_distance(a: &TagTree, b: &TagTree) -> usize {
    if a.size() == 0 {
        return b.size();
    }
    if b.size() == 0 {
        return a.size();
    }
    let pa = postorder(a);
    let pb = postorder(b);
    let n = pa.labels.len();
    let m = pb.labels.len();
    let mut td = vec![vec![0usize; m]; n]; // treedist table

    let rename = |i: usize, j: usize| -> usize { usize::from(pa.labels[i] != pb.labels[j]) };

    // Forest-distance scratch, sized (n+1) x (m+1).
    let mut fd = vec![vec![0usize; m + 2]; n + 2];

    for &kr1 in &pa.keyroots {
        for &kr2 in &pb.keyroots {
            let l1 = pa.lml[kr1];
            let l2 = pb.lml[kr2];
            // fd uses l-shifted indices: fd[i+1-l1][j+1-l2] = dist of the
            // forests a[l1..=i], b[l2..=j]; row/col 0 mean "empty forest".
            for i in l1..=kr1 {
                fd[i + 1 - l1][0] = fd[i - l1][0] + 1;
            }
            for j in l2..=kr2 {
                fd[0][j + 1 - l2] = fd[0][j - l2] + 1;
            }
            fd[0][0] = 0;
            for i in l1..=kr1 {
                for j in l2..=kr2 {
                    let ii = i + 1 - l1;
                    let jj = j + 1 - l2;
                    if pa.lml[i] == l1 && pb.lml[j] == l2 {
                        // Both prefixes are whole trees.
                        let d = (fd[ii - 1][jj] + 1)
                            .min(fd[ii][jj - 1] + 1)
                            .min(fd[ii - 1][jj - 1] + rename(i, j));
                        fd[ii][jj] = d;
                        td[i][j] = d;
                    } else {
                        let pi = pa.lml[i].saturating_sub(l1); // forest boundary before subtree i
                        let pj = pb.lml[j].saturating_sub(l2);
                        let d = (fd[ii - 1][jj] + 1)
                            .min(fd[ii][jj - 1] + 1)
                            .min(fd[pi][pj] + td[i][j]);
                        fd[ii][jj] = d;
                    }
                }
            }
        }
    }
    td[n - 1][m - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Parse a LISP-ish tree spec: `(a(b)(c(d)))`.
    fn t(spec: &str) -> TagTree {
        fn rec(chars: &[char], pos: &mut usize, tree: &mut TagTree) -> usize {
            assert_eq!(chars[*pos], '(');
            *pos += 1;
            let mut label = String::new();
            while chars[*pos] != '(' && chars[*pos] != ')' {
                label.push(chars[*pos]);
                *pos += 1;
            }
            let idx = tree.labels.len();
            tree.labels.push(mse_dom::intern_pair(&label).1);
            tree.children.push(vec![]);
            while chars[*pos] == '(' {
                let c = rec(chars, pos, tree);
                tree.children[idx].push(c);
            }
            assert_eq!(chars[*pos], ')');
            *pos += 1;
            idx
        }
        let chars: Vec<char> = spec.chars().collect();
        let mut tree = TagTree {
            labels: vec![],
            children: vec![],
        };
        let mut pos = 0;
        rec(&chars, &mut pos, &mut tree);
        tree
    }

    #[test]
    fn identical() {
        let a = t("(a(b)(c(d)))");
        assert_eq!(tree_edit_distance(&a, &a), 0);
    }

    #[test]
    fn single_rename() {
        assert_eq!(tree_edit_distance(&t("(a(b))"), &t("(a(c))")), 1);
        assert_eq!(tree_edit_distance(&t("(a)"), &t("(b)")), 1);
    }

    #[test]
    fn single_insert_delete() {
        assert_eq!(tree_edit_distance(&t("(a(b))"), &t("(a)")), 1);
        assert_eq!(tree_edit_distance(&t("(a)"), &t("(a(b)(c))")), 2);
    }

    #[test]
    fn zhang_shasha_canonical_example() {
        // The classic example from the ZS paper:
        // T1 = f(d(a c(b)) e), T2 = f(c(d(a b)) e) → distance 2.
        let t1 = t("(f(d(a)(c(b)))(e))");
        let t2 = t("(f(c(d(a)(b)))(e))");
        assert_eq!(tree_edit_distance(&t1, &t2), 2);
    }

    #[test]
    fn order_matters() {
        let a = t("(r(a)(b))");
        let b = t("(r(b)(a))");
        // Ordered TED: must rename both (or delete+insert) → 2.
        assert_eq!(tree_edit_distance(&a, &b), 2);
    }

    #[test]
    fn deep_chain_vs_flat() {
        let chain = t("(a(b(c(d))))");
        let flat = t("(a(b)(c)(d))");
        let d = tree_edit_distance(&chain, &flat);
        assert!(d > 0 && d <= 6, "d = {d}");
    }

    #[test]
    fn empty_tree_edge() {
        let empty = TagTree {
            labels: vec![],
            children: vec![],
        };
        assert_eq!(tree_edit_distance(&empty, &empty), 0);
        assert_eq!(tree_edit_distance(&empty, &t("(a(b))")), 2);
        assert_eq!(tree_edit_distance(&t("(a(b))"), &empty), 2);
    }

    /// Random tree generator for property tests.
    fn arb_tree() -> impl Strategy<Value = TagTree> {
        // Generate a parent vector over at most 8 nodes with labels a-c.
        (1usize..8).prop_flat_map(|n| {
            (
                proptest::collection::vec(0usize..n.max(1), n.saturating_sub(1)),
                proptest::collection::vec(0usize..3, n),
            )
                .prop_map(move |(parents, labels)| {
                    let mut tree = TagTree {
                        labels: labels.into_iter().map(|l| ["a", "b", "c"][l]).collect(),
                        children: vec![vec![]; n],
                    };
                    for (i, &p) in parents.iter().enumerate() {
                        let child = i + 1;
                        let parent = p.min(i); // ensure parent precedes child
                        tree.children[parent].push(child);
                    }
                    tree
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ted_identity(a in arb_tree()) {
            prop_assert_eq!(tree_edit_distance(&a, &a), 0);
        }

        #[test]
        fn ted_symmetry(a in arb_tree(), b in arb_tree()) {
            prop_assert_eq!(tree_edit_distance(&a, &b), tree_edit_distance(&b, &a));
        }

        #[test]
        fn ted_triangle(a in arb_tree(), b in arb_tree(), c in arb_tree()) {
            let ab = tree_edit_distance(&a, &b);
            let bc = tree_edit_distance(&b, &c);
            let ac = tree_edit_distance(&a, &c);
            prop_assert!(ac <= ab + bc, "ac={ac} ab={ab} bc={bc}");
        }

        #[test]
        fn ted_bounds(a in arb_tree(), b in arb_tree()) {
            let d = tree_edit_distance(&a, &b);
            prop_assert!(d <= a.size() + b.size());
            prop_assert!(d >= a.size().abs_diff(b.size()));
        }
    }
}
