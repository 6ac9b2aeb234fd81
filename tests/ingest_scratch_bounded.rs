//! A long-lived worker's [`IngestScratch`] stays bounded: thousands of
//! ingests over a page mix whose tags carry different attribute counts
//! must not grow the pooled attribute vectors past what one page needs,
//! nor their retained bytes past the warmed-up level.
//!
//! `zero_alloc_ingest.rs` checks one rep over one engine's pages; a pool
//! that gains a vector per parse passes that check and still grows without
//! bound over a worker's lifetime, which is what this test catches.

use mse_core::{IngestScratch, Page, ResourceBudget};
use mse_testbed::EngineSpec;

/// Ingests in the measured run (warm-up included).
const PARSES: usize = 2_000;

/// Pages whose tags carry 0–6 attributes of varying lengths, so pooled
/// vectors keep meeting tags that need fewer or more slots than they hold.
fn attribute_mix_page(k: usize) -> String {
    let mut html = String::from("<html><body>");
    for j in 0..40 {
        html.push_str("<div");
        for a in 0..(j * (k + 1) + k) % 7 {
            let value = "v".repeat((j + a + k) % 13);
            html.push_str(&format!(" a{a}=\"{value}\""));
        }
        html.push_str(&format!(">record {j} of page {k}</div>"));
    }
    html.push_str("</body></html>");
    html
}

/// Elements carrying at least one attribute: each holds one pooled vector
/// while its page is alive, so no page can need more than this.
fn attributed_elements(html: &str) -> usize {
    let dom = mse_dom::parse(html);
    dom.preorder(dom.root())
        .filter(|&n| match &dom[n].kind {
            mse_dom::NodeKind::Element { attrs, .. } => !attrs.is_empty(),
            _ => false,
        })
        .count()
}

#[test]
fn ingest_scratch_pools_stay_bounded_over_many_parses() {
    let mut mix: Vec<(String, Option<String>)> = Vec::new();
    for engine in 0..4 {
        let spec = EngineSpec::generate(2006, engine);
        for q in 0..3 {
            let page = spec.page(q);
            mix.push((page.html, Some(page.query)));
        }
    }
    for k in 0..8 {
        mix.push((attribute_mix_page(k), None));
    }
    let vector_bound = mix
        .iter()
        .map(|(h, _)| attributed_elements(h))
        .max()
        .unwrap();

    let budget = ResourceBudget::default();
    let mut scratch = IngestScratch::new();
    let mut warmed_bytes = 0;
    let mut peak = (0, 0);
    for i in 0..PARSES {
        // Visit the mix in a different rotation and direction each pass so
        // the pooled vectors meet different tags.
        let pass = i / mix.len();
        let mut at = (i + pass * 7) % mix.len();
        if pass % 2 == 1 {
            at = mix.len() - 1 - at;
        }
        let (html, query) = &mix[at];
        let (page, _) = Page::try_from_html_fast(html, query.as_deref(), &budget, &mut scratch)
            .expect("mix page must ingest");
        scratch.recycle(page);
        let (_, vectors, _) = scratch.pool_sizes();
        let bytes = scratch.attr_pool_bytes();
        peak = (peak.0.max(vectors), peak.1.max(bytes));
        if i + 1 == 2 * mix.len() {
            warmed_bytes = bytes;
        }
    }
    assert!(
        peak.0 <= vector_bound,
        "attr pool held {} vectors; no page in the mix has more than {vector_bound} \
         attributed elements",
        peak.0
    );
    assert!(
        peak.1 <= 2 * warmed_bytes,
        "attr pool retained {} bytes after {PARSES} parses, against {warmed_bytes} \
         after two passes over the mix",
        peak.1
    );
}
