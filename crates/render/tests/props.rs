//! Property tests: the layouter is total and its outputs satisfy the
//! invariants the pipeline depends on.

#[allow(unused_imports)]
use mse_dom::parse;
use mse_dom::{NodeId, NodeKind};
use mse_render::{render_lines, LineType, RenderedPage};
use proptest::prelude::*;
use std::collections::HashMap;

fn html_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("<div>".to_string()),
        Just("</div>".to_string()),
        Just("<table><tr><td width=80>".to_string()),
        Just("</td><td>".to_string()),
        Just("</td></tr></table>".to_string()),
        Just("<ul><li>".to_string()),
        Just("</li></ul>".to_string()),
        Just("<a href=/x>".to_string()),
        Just("</a>".to_string()),
        Just("<br>".to_string()),
        Just("<hr>".to_string()),
        Just("<img src=i>".to_string()),
        Just("<h3>".to_string()),
        Just("</h3>".to_string()),
        Just("<form><input type=text value=q>".to_string()),
        Just("</form>".to_string()),
        Just("<font size=-1 color=green>".to_string()),
        Just("</font>".to_string()),
        "[a-z ]{0,10}",
    ]
}

fn html_doc() -> impl Strategy<Value = String> {
    proptest::collection::vec(html_fragment(), 0..28).prop_map(|v| v.concat())
}

/// [`html_doc`] plus content the renderer never puts in a line: a hidden
/// input, a script, and an option's text inside a select.
fn forest_doc() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        html_fragment(),
        Just("<input type=hidden name=h value=v>".to_string()),
        Just("<script>var s = 1;</script>".to_string()),
        Just("<select><option>o</option></select>".to_string()),
    ];
    proptest::collection::vec(fragment, 0..28).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rendering never panics; line numbers are 1..n; every line carries
    /// either text, an image, a rule, or a form control.
    #[test]
    fn render_invariants(doc in html_doc()) {
        let page = RenderedPage::from_html(&doc);
        for (i, line) in page.lines.iter().enumerate() {
            prop_assert_eq!(line.number, i + 1);
            let has_content = !line.text.is_empty()
                || matches!(line.ltype, LineType::Hr | LineType::Image | LineType::Form);
            prop_assert!(has_content, "line {i} has no content: {line:?}");
            prop_assert!(!line.leaves.is_empty(), "line {i} has no leaves");
        }
    }

    /// Leaves across lines appear in document (preorder) order and no leaf
    /// belongs to two lines.
    #[test]
    fn leaves_partition_in_document_order(doc in html_doc()) {
        let page = RenderedPage::from_html(&doc);
        let order: std::collections::HashMap<_, _> = page
            .dom
            .preorder(page.dom.root())
            .enumerate()
            .map(|(i, n)| (n, i))
            .collect();
        let mut last = 0usize;
        let mut seen = std::collections::HashSet::new();
        for line in &page.lines {
            for &leaf in &line.leaves {
                prop_assert!(seen.insert(leaf), "leaf in two lines");
                let o = order[&leaf];
                prop_assert!(o >= last, "leaves out of document order");
                last = o;
            }
        }
    }

    /// Nothing visible is dropped: every non-whitespace character of body
    /// text appears at least as often in the rendered lines. (Form
    /// controls additionally render value-attribute text, and <title> /
    /// form-control inner text is intentionally not body content, so the
    /// comparison is ⊆ on character counts, excluding those subtrees.)
    #[test]
    fn no_text_lost(doc in html_doc()) {
        let dom = parse(&doc);
        let counts = |text: &str| {
            let mut m = std::collections::HashMap::new();
            for c in text.chars().filter(|c| !c.is_whitespace()) {
                *m.entry(c).or_insert(0usize) += 1;
            }
            m
        };
        // Visible body text: all text except control/title subtrees.
        let skip: Vec<_> = dom
            .preorder(dom.root())
            .filter(|&n| {
                matches!(
                    dom[n].tag(),
                    Some("title") | Some("option") | Some("select") | Some("textarea") | Some("button")
                )
            })
            .collect();
        let mut dom_text = String::new();
        for n in dom.preorder(dom.root()) {
            if let mse_dom::NodeKind::Text(t) = &dom[n].kind {
                if !skip.iter().any(|&s| dom.is_ancestor(s, n)) {
                    dom_text.push_str(t);
                }
            }
        }
        let rendered: String = render_lines(&dom).iter().map(|l| l.text.clone()).collect();
        let want = counts(&dom_text);
        let have = counts(&rendered);
        for (c, n) in want {
            prop_assert!(
                have.get(&c).copied().unwrap_or(0) >= n,
                "char {c:?} lost in rendering ({} < {n})",
                have.get(&c).copied().unwrap_or(0)
            );
        }
    }

    /// `forest_of_range` returns the paper's §4.1 tag forest of any line
    /// range `[s, e)`, checked against the definition itself: each node's
    /// rendered leaves (members of some `line.leaves`) all lie in the range
    /// and its parent's do not (or the parent is scaffolding), the nodes
    /// are disjoint and in document order, and every rendered leaf of the
    /// range lies at or under exactly one of them. The page mix includes
    /// leaves the renderer never puts in a line.
    #[test]
    fn forest_covers_range(doc in forest_doc(), a in 0usize..64, b in 0usize..64) {
        let page = RenderedPage::from_html(&doc);
        let dom = &page.dom;
        let n = page.lines.len();
        if n == 0 {
            return Ok(());
        }
        let (s, e) = {
            let (x, y) = (a % n, b % n);
            (x.min(y), x.max(y) + 1)
        };
        let line_of: HashMap<NodeId, usize> = page
            .lines
            .iter()
            .enumerate()
            .flat_map(|(i, l)| l.leaves.iter().map(move |&leaf| (leaf, i)))
            .collect();
        let leaf_lines = |node: NodeId| -> Vec<usize> {
            dom.preorder(node).filter_map(|m| line_of.get(&m).copied()).collect()
        };
        let order: HashMap<NodeId, usize> =
            dom.preorder(dom.root()).enumerate().map(|(i, m)| (m, i)).collect();
        let forest = page.forest_of_range(s, e);
        for &f in &forest {
            let lines = leaf_lines(f);
            prop_assert!(!lines.is_empty(), "forest node without a rendered leaf");
            prop_assert!(
                lines.iter().all(|l| (s..e).contains(l)),
                "forest node has a leaf outside [{s}, {e})"
            );
            let parent = dom[f].parent.expect("a forest node is never the root");
            let scaffolding = matches!(dom[parent].kind, NodeKind::Document)
                || matches!(dom[parent].tag(), Some("html" | "head" | "body"));
            prop_assert!(
                scaffolding || leaf_lines(parent).iter().any(|l| !(s..e).contains(l)),
                "forest node is not maximal: its parent lies inside [{s}, {e})"
            );
        }
        for w in forest.windows(2) {
            prop_assert!(order[&w[0]] < order[&w[1]], "forest out of document order");
            prop_assert!(!dom.is_ancestor(w[0], w[1]), "forest nodes overlap");
        }
        for line in &page.lines[s..e] {
            for &leaf in &line.leaves {
                let holders = forest.iter().filter(|&&f| dom.is_ancestor(f, leaf)).count();
                prop_assert_eq!(holders, 1, "leaf covered by {} forest nodes", holders);
            }
        }
    }
}
