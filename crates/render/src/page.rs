//! A rendered page: the DOM plus its content-line sequence, and the
//! line-range → tag-forest lifting used to attach tag structure to blocks.

use crate::layout::render_lines;
use crate::line::ContentLine;
use mse_dom::intern::{self, Symbol};
use mse_dom::{Dom, NodeId, NodeKind};

/// Precomputed per-node / per-line signatures for the extraction serving
/// path (see DESIGN.md §11).
///
/// Applying a compiled wrapper to a page needs, per DOM node, its interned
/// tag label, its record *start chain* (tag + first-viewable-child chain,
/// depth 3) and the content-line span its leaves cover. All three are
/// derivable from the DOM, but deriving them inside the wrapper-matching
/// loop costs a `String` allocation per child (start chains) and a full
/// page scan per record (line spans). Computing them once at render time
/// makes wrapper application allocation-free integer work.
#[derive(Clone, Debug, Default)]
pub struct PageSigs {
    /// Per node: interned start-chain label — the element's tag, `#text`
    /// for a non-whitespace text node, [`Symbol::NONE`] for anything that
    /// can never start a record (whitespace text, comments, the document
    /// root). `labels[n] != NONE` is exactly the "viewable child" test.
    pub labels: Vec<Symbol>,
    /// Per node: the start chain (depth 3, padded with [`Symbol::NONE`]).
    /// Equal chains ⇔ equal `start_chain` strings.
    pub chains: Vec<[Symbol; 3]>,
    /// Per node: half-open content-line span covered by the node's
    /// viewable leaves (`(u32::MAX, 0)` when it covers none).
    pub spans: Vec<(u32, u32)>,
    /// Per line: the [`LineType`](crate::LineType) code — record shapes
    /// compare against these without materializing a `Vec<u8>` per record.
    pub line_types: Vec<u8>,
}

/// Reusable buffers for building [`PageSigs`] (DESIGN.md §13): internal
/// traversal state plus the signature vectors themselves, which
/// [`SigScratch::recycle`] takes back from a consumed page so steady-state
/// serving re-fills them instead of reallocating.
#[derive(Default)]
pub struct SigScratch {
    first_viewable: Vec<Option<NodeId>>,
    stack: Vec<(NodeId, bool)>,
    labels: Vec<Symbol>,
    chains: Vec<[Symbol; 3]>,
    spans: Vec<(u32, u32)>,
    line_types: Vec<u8>,
}

impl SigScratch {
    pub fn new() -> SigScratch {
        SigScratch::default()
    }

    /// Take back the vectors inside a consumed [`PageSigs`]. Returns the
    /// label table so the caller can hand it to the parse-side scratch
    /// (labels are produced by the serving parser, not by this module).
    pub fn recycle(&mut self, sigs: PageSigs) -> Vec<Symbol> {
        self.chains = sigs.chains;
        self.spans = sigs.spans;
        self.line_types = sigs.line_types;
        sigs.labels
    }
}

impl PageSigs {
    /// The sentinel span of a node covering no content line.
    pub const NO_SPAN: (u32, u32) = (u32::MAX, 0);

    /// Compute all signatures for a rendered page. `O(nodes + lines)`.
    pub fn build(dom: &Dom, lines: &[ContentLine]) -> PageSigs {
        let mut scratch = SigScratch::default();
        let labels = Self::compute_labels(dom, &mut scratch);
        Self::build_with_labels(dom, lines, labels, &mut scratch)
    }

    /// The per-node start-chain label table (see [`PageSigs::labels`]).
    /// The serving parser produces an identical table during tree
    /// construction; this is the from-scratch equivalent.
    fn compute_labels(dom: &Dom, scratch: &mut SigScratch) -> Vec<Symbol> {
        let n = dom.len();
        let text_sym = intern::intern(intern::TEXT_LABEL);
        let mut labels = std::mem::take(&mut scratch.labels);
        labels.clear();
        labels.resize(n, Symbol::NONE);
        // mse:hot begin(sig-labels)
        for (id, label) in labels.iter_mut().enumerate() {
            // mse:allow(index): id < dom.len() by construction
            *label = match &dom[NodeId(id as u32)].kind {
                NodeKind::Element { tag, .. } => intern::intern(tag),
                NodeKind::Text(t) if !t.trim().is_empty() => text_sym,
                _ => Symbol::NONE,
            };
        }
        // mse:hot end(sig-labels)
        labels
    }

    /// [`PageSigs::build`] with a precomputed label table (the serving
    /// parser tracks labels during tree construction) and reusable
    /// buffers. `labels[n]` must follow the exact rule of
    /// [`PageSigs::labels`]; debug builds assert table length.
    pub fn build_with_labels(
        dom: &Dom,
        lines: &[ContentLine],
        labels: Vec<Symbol>,
        scratch: &mut SigScratch,
    ) -> PageSigs {
        let n = dom.len();
        debug_assert_eq!(labels.len(), n);
        // First viewable child per node (the next link of a start chain).
        let first_viewable = &mut scratch.first_viewable;
        first_viewable.clear();
        first_viewable.resize(n, None);
        for (id, slot) in first_viewable.iter_mut().enumerate() {
            *slot = dom
                .children(NodeId(id as u32))
                .find(|&c| labels.get(c.index()).is_some_and(|&l| l != Symbol::NONE));
        }
        let mut chains = std::mem::take(&mut scratch.chains);
        chains.clear();
        chains.resize(n, [Symbol::NONE; 3]);
        // mse:hot begin(sig-chains)
        for (id, chain) in chains.iter_mut().enumerate() {
            let mut cur = Some(NodeId(id as u32));
            for slot in chain.iter_mut() {
                let Some(c) = cur else { break };
                // mse:allow(index): c is a node of this DOM, both tables are len n
                *slot = labels[c.index()];
                // mse:allow(index): c is a node of this DOM, both tables are len n
                cur = first_viewable[c.index()];
            }
        }
        // mse:hot end(sig-chains)
        // Leaf lines, then one post-order pass lifting spans to ancestors.
        let mut spans = std::mem::take(&mut scratch.spans);
        spans.clear();
        spans.resize(n, Self::NO_SPAN);
        // mse:hot begin(sig-span-lift)
        for (idx, line) in lines.iter().enumerate() {
            for &leaf in &line.leaves {
                // mse:allow(index): line leaves are nodes of this DOM, table is len n
                let s = &mut spans[leaf.index()];
                s.0 = s.0.min(idx as u32);
                s.1 = s.1.max(idx as u32 + 1);
            }
        }
        // Iterative post-order: a node pops after all its descendants have
        // merged into it, then merges itself into its parent. (Iterative,
        // not recursive: adversarially deep DOMs must not grow the call
        // stack — the traversal stack lives in the reusable scratch.)
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push((dom.root(), false));
        while let Some((node, processed)) = stack.pop() {
            if processed {
                // mse:allow(index): node/parent are nodes of this DOM
                if let Some(parent) = dom[node].parent {
                    // mse:allow(index): node is a node of this DOM, table is len n
                    let child = spans[node.index()];
                    // mse:allow(index): node/parent are nodes of this DOM
                    let s = &mut spans[parent.index()];
                    s.0 = s.0.min(child.0);
                    s.1 = s.1.max(child.1);
                }
            } else {
                stack.push((node, true));
                for c in dom.children(node) {
                    stack.push((c, false));
                }
            }
        }
        // mse:hot end(sig-span-lift)
        let mut line_types = std::mem::take(&mut scratch.line_types);
        line_types.clear();
        line_types.extend(lines.iter().map(|l| l.ltype.code()));
        PageSigs {
            labels,
            chains,
            spans,
            line_types,
        }
    }

    /// The line span of a node as `Option<(lo, hi)>`.
    #[inline]
    pub fn span(&self, node: NodeId) -> Option<(usize, usize)> {
        match self.spans.get(node.index()) {
            Some(&s) if s != Self::NO_SPAN => Some((s.0 as usize, s.1 as usize)),
            _ => None,
        }
    }
}

/// A parsed and rendered result page.
#[derive(Clone, Debug)]
pub struct RenderedPage {
    pub dom: Dom,
    pub lines: Vec<ContentLine>,
    /// Serving-path signatures (see [`PageSigs`]), computed once here so
    /// extraction never re-derives them per wrapper application.
    pub sigs: PageSigs,
}

impl RenderedPage {
    /// Assemble a page from a DOM and its rendered lines, computing the
    /// serving-path signatures.
    pub fn assemble(dom: Dom, lines: Vec<ContentLine>) -> RenderedPage {
        let sigs = PageSigs::build(&dom, &lines);
        RenderedPage { dom, lines, sigs }
    }

    /// Fused-ingest assembly: signatures are built from the label table the
    /// serving parser tracked during tree construction, with buffers drawn
    /// from `scratch`. Produces a page identical to [`RenderedPage::assemble`].
    pub fn assemble_fused(
        dom: Dom,
        lines: Vec<ContentLine>,
        labels: Vec<Symbol>,
        scratch: &mut SigScratch,
    ) -> RenderedPage {
        let sigs = PageSigs::build_with_labels(&dom, &lines, labels, scratch);
        RenderedPage { dom, lines, sigs }
    }

    /// Parse + render HTML source.
    pub fn from_html(html: &str) -> RenderedPage {
        let dom = mse_dom::parse(html);
        let lines = render_lines(&dom);
        RenderedPage::assemble(dom, lines)
    }

    /// The tag forest of the line range `[start, end)`: the maximal DOM
    /// nodes whose rendered leaves all lie in those lines — the record's
    /// "underneath tag structure" (paper §4.1).
    ///
    /// Each leaf of the range climbs while its parent's line span stays
    /// inside the range, never onto the document scaffolding (a record is
    /// always strictly inside `<body>`). Line leaves arrive in document
    /// order and each climb ends at the top of a disjoint subtree, so the
    /// leaves under one top are consecutive and the tops come out in
    /// document order. A node the renderer never puts in a line (a hidden
    /// `<input>`, a `<script>`) has no span, so it does not block the climb.
    pub fn forest_of_range(&self, start: usize, end: usize) -> Vec<NodeId> {
        let inside = |n: NodeId| {
            self.sigs
                .span(n)
                .is_some_and(|(s, e)| s >= start && e <= end)
        };
        let mut out: Vec<NodeId> = Vec::new();
        for line in self.lines.get(start..end).unwrap_or_default() {
            for &leaf in &line.leaves {
                let mut top = leaf;
                while let Some(parent) = self.dom[top].parent {
                    if is_scaffolding(&self.dom, parent) || !inside(parent) {
                        break;
                    }
                    top = parent;
                }
                if out.last() != Some(&top) {
                    out.push(top);
                }
            }
        }
        out
    }
}

/// Render an already-parsed DOM.
pub fn render(dom: Dom) -> RenderedPage {
    let lines = render_lines(&dom);
    RenderedPage::assemble(dom, lines)
}

/// The document node and `<html>`/`<head>`/`<body>`: never a forest member.
fn is_scaffolding(dom: &Dom, n: NodeId) -> bool {
    matches!(dom[n].kind, NodeKind::Document)
        || matches!(dom[n].tag(), Some("html" | "head" | "body"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_html_end_to_end() {
        let p = RenderedPage::from_html("<body><p>a</p><p>b</p></body>");
        assert_eq!(p.lines.len(), 2);
    }

    #[test]
    fn forest_of_range_lifts_to_containers() {
        let p = RenderedPage::from_html(
            "<body><div><a href=1>t</a><br>snip</div><div>other</div></body>",
        );
        // Lines 0-1 are the first record: its forest is the first div.
        let forest = p.forest_of_range(0, 2);
        assert_eq!(forest.len(), 1);
        assert_eq!(p.dom[forest[0]].tag(), Some("div"));
        assert_eq!(p.dom.text_of(forest[0]), "tsnip");
    }

    #[test]
    fn forest_of_range_partial_container_returns_leaves() {
        let p = RenderedPage::from_html("<body><div>a<br>b<br>c</div></body>");
        // Only the first line: div is NOT fully covered → forest is the text leaf.
        let forest = p.forest_of_range(0, 1);
        assert_eq!(forest.len(), 1);
        assert!(p.dom[forest[0]].is_text());
    }

    #[test]
    fn forest_of_range_multiple_siblings() {
        let p = RenderedPage::from_html(
            "<body><ul><li>a</li><li>b</li><li>c</li></ul><p>after</p></body>",
        );
        // Lines of the three <li>: forest = the whole <ul>.
        let forest = p.forest_of_range(0, 3);
        assert_eq!(forest.len(), 1);
        assert_eq!(p.dom[forest[0]].tag(), Some("ul"));
        // Lines of the first two <li> only: forest = those two li nodes.
        let forest = p.forest_of_range(0, 2);
        assert_eq!(forest.len(), 2);
        assert!(forest.iter().all(|&n| p.dom[n].tag() == Some("li")));
    }

    #[test]
    fn forest_of_range_empty() {
        let p = RenderedPage::from_html("<body><p>x</p></body>");
        assert!(p.forest_of_range(0, 0).is_empty());
        assert!(p.forest_of_range(1, 1).is_empty());
        // A range past the last line lifts nothing rather than panicking.
        assert!(p.forest_of_range(0, 5).is_empty());
    }

    #[test]
    fn empty_containers_do_not_block_cover() {
        // An empty <td> between records must not prevent the row from being
        // covered.
        let p = RenderedPage::from_html(
            "<body><table><tr><td>a</td><td></td><td>b</td></tr></table></body>",
        );
        let n = p.lines.len();
        let forest = p.forest_of_range(0, n);
        assert_eq!(forest.len(), 1);
        assert_eq!(p.dom[forest[0]].tag(), Some("table"));
    }

    #[test]
    fn unrendered_leaves_do_not_block_cover() {
        // The renderer puts neither the hidden input nor the script in any
        // content line, so they have no line span and do not block the
        // climb: each record still lifts to its <div>.
        let p = RenderedPage::from_html(concat!(
            "<body><div><a href=1>t</a><input type=hidden name=q value=v><br>s</div>",
            "<div><a href=2>u</a><script>var x = 1;</script><br>w</div></body>"
        ));
        assert_eq!(p.lines.len(), 4);
        let divs: Vec<NodeId> = p
            .dom
            .preorder(p.dom.root())
            .filter(|&n| p.dom[n].tag() == Some("div"))
            .collect();
        assert_eq!(p.forest_of_range(0, 2), vec![divs[0]]);
        assert_eq!(p.forest_of_range(2, 4), vec![divs[1]]);
    }
}
