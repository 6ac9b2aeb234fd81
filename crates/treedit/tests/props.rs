//! Property tests for the bounded edit-distance kernels: the banded
//! variants must agree exactly with the reference DP whenever the true
//! distance is within the bound, and report "exceeds" otherwise.

use mse_treedit::{
    forest_distance, forest_distance_bounded, string_edit_distance_bounded,
    string_edit_distance_with, TagTree,
};
use proptest::prelude::*;

/// Substitution cost in [0, 2]: scaled absolute difference of symbols.
fn sub_cost(a: &u8, b: &u8) -> f64 {
    (*a as f64 - *b as f64).abs() / 127.5
}

fn arb_seq() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..8, 0..12)
}

/// A small random tag tree, built from a recursion-free shape code: each
/// byte picks a parent among the nodes built so far and a tag label.
fn tree_of(code: &[u8]) -> TagTree {
    let tags = ["div", "span", "a", "p", "li"];
    let mut t = TagTree::leaf(tags[code.first().copied().unwrap_or(0) as usize % tags.len()]);
    for &c in &code[1..] {
        let parent = (c as usize / 8) % t.labels.len();
        let idx = t.labels.len();
        t.labels.push(tags[c as usize % tags.len()]);
        t.children.push(Vec::new());
        t.children[parent].push(idx);
    }
    t
}

fn arb_forest() -> impl Strategy<Value = Vec<TagTree>> {
    proptest::collection::vec(proptest::collection::vec(0u8..40, 1..5), 0..5)
        .prop_map(|codes| codes.iter().map(|c| tree_of(c)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bounded SED == reference SED whenever the true distance fits the
    /// bound; `INFINITY` (i.e. "> bound") exactly when it does not.
    #[test]
    fn bounded_sed_agrees_with_reference(
        a in arb_seq(),
        b in arb_seq(),
        indel in prop_oneof![Just(0.5f64), Just(1.0f64)],
        bound in 0.0f64..8.0,
    ) {
        let exact = string_edit_distance_with(&a, &b, sub_cost, indel);
        let bounded = string_edit_distance_bounded(&a, &b, sub_cost, indel, bound);
        if exact <= bound {
            prop_assert_eq!(
                bounded, exact,
                "bounded must be bit-exact under the bound (a={:?} b={:?} indel={} bound={})",
                a, b, indel, bound
            );
        } else {
            prop_assert!(
                bounded.is_infinite(),
                "true distance {} > bound {} must report INFINITY, got {}",
                exact, bound, bounded
            );
        }
    }

    /// A bound at least as large as the true distance never changes the
    /// result, regardless of slack.
    #[test]
    fn bounded_sed_slack_invariant(
        a in arb_seq(),
        b in arb_seq(),
        slack in 0.0f64..16.0,
    ) {
        let exact = string_edit_distance_with(&a, &b, sub_cost, 1.0);
        let bounded = string_edit_distance_bounded(&a, &b, sub_cost, 1.0, exact + slack);
        prop_assert_eq!(bounded, exact);
    }

    /// Same contract for tag-forest distances (normalized to [0, 1]).
    #[test]
    fn bounded_forest_distance_agrees_with_reference(
        fa in arb_forest(),
        fb in arb_forest(),
        bound in 0.0f64..1.2,
    ) {
        let exact = forest_distance(&fa, &fb);
        let bounded = forest_distance_bounded(&fa, &fb, bound);
        if exact <= bound {
            prop_assert_eq!(bounded, exact);
        } else {
            prop_assert!(bounded.is_infinite(), "exact {} bound {}", exact, bound);
        }
    }
}
