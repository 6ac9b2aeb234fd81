//! Robustness: wrappers learned from clean pages must keep working when
//! the *test* pages are tag soup — unclosed tags, stray end tags, comment
//! debris. 2006-era result pages were rarely valid HTML, and the paper's
//! pipeline (like any browser-based one) has to shrug this off.

use mse::core::{
    BuildError, Extraction, Mse, MseConfig, NoSectionsStage, ResourceBudget, SectionWrapperSet,
};
use mse::testbed::{Corpus, CorpusConfig};

/// Deterministically rough up a page: drop some closing tags that the
/// parser can recover (`</p>`, `</li>`, `</td>`, `</tr>`), inject stray
/// end tags and comments. The *visible text* is unchanged, so ground truth
/// still applies.
fn roughen(html: &str, salt: usize) -> String {
    let mut out = String::with_capacity(html.len());
    let mut i = 0;
    let mut k = salt;
    let bytes = html.as_bytes();
    while i < bytes.len() {
        let rest = &html[i..];
        let droppable = ["</p>", "</li>", "</td>", "</tr>"]
            .iter()
            .find(|t| rest.starts_with(**t))
            .copied();
        if let Some(tag) = droppable {
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (k >> 33) % 4 {
                0 => {} // drop the closing tag entirely
                1 => {
                    out.push_str("<!-- x -->");
                    out.push_str(tag);
                }
                2 => {
                    out.push_str(tag);
                    out.push_str("</span>"); // stray unmatched end tag
                }
                _ => out.push_str(tag),
            }
            i += tag.len();
        } else {
            let ch = rest.chars().next().unwrap();
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

#[test]
fn wrappers_survive_tag_soup_test_pages() {
    let corpus = Corpus::generate(CorpusConfig::small(2006));
    let cfg = MseConfig::default();
    let mut clean_total = 0usize;
    let mut soup_total = 0usize;
    let mut engines_checked = 0usize;

    for engine in &corpus.engines {
        let samples: Vec<(String, String)> = corpus
            .sample_pages(engine)
            .into_iter()
            .map(|p| (p.html, p.query))
            .collect();
        let refs: Vec<(&str, Option<&str>)> = samples
            .iter()
            .map(|(h, q)| (h.as_str(), Some(q.as_str())))
            .collect();
        let Ok(ws) = Mse::new(cfg.clone()).build_with_queries(&refs) else {
            continue;
        };
        engines_checked += 1;
        for (qi, page) in corpus.test_pages(engine).into_iter().enumerate() {
            let clean = ws.extract_with_query(&page.html, Some(&page.query));
            let soup_html = roughen(&page.html, engine.id * 100 + qi);
            let soup = ws.extract_with_query(&soup_html, Some(&page.query));
            clean_total += clean.total_records();
            soup_total += soup.total_records();
        }
    }
    assert!(
        engines_checked >= 8,
        "too few engines built ({engines_checked})"
    );
    assert!(
        clean_total > 200,
        "clean extraction too small: {clean_total}"
    );
    // Tag soup may cost a little, but the wrappers must keep most records.
    assert!(
        soup_total * 10 >= clean_total * 9,
        "tag soup broke extraction: {soup_total} vs {clean_total} records"
    );
}

/// Learn wrappers from one engine's clean sample pages.
fn built_wrappers() -> SectionWrapperSet {
    let corpus = Corpus::generate(CorpusConfig::small(2006));
    let engine = &corpus.engines[0];
    let samples: Vec<(String, String)> = corpus
        .sample_pages(engine)
        .into_iter()
        .map(|p| (p.html, p.query))
        .collect();
    let refs: Vec<(&str, Option<&str>)> = samples
        .iter()
        .map(|(h, q)| (h.as_str(), Some(q.as_str())))
        .collect();
    Mse::new(MseConfig::default())
        .build_with_queries(&refs)
        .expect("engine 0 builds")
}

/// Empty, whitespace-only, and zero-dynamic-section pages must extract to
/// an empty-but-valid `Extraction` — no panic, no phantom sections, and
/// JSON output that round-trips.
#[test]
fn degenerate_pages_extract_to_empty_but_valid() {
    let ws = built_wrappers();
    let cases: [(&str, &str); 3] = [
        ("empty page", ""),
        ("whitespace-only page", "  \n\t \r\n   \n"),
        (
            "zero-dynamic-sections page",
            "<html><head><title>About</title></head><body>\
             <h1>About us</h1><p>We are a small company.</p>\
             <p>Contact: mail@example.com</p></body></html>",
        ),
    ];
    for (name, html) in cases {
        let ex = ws.extract(html);
        assert!(ex.sections.is_empty(), "{name}: expected no sections");
        assert_eq!(ex.total_records(), 0, "{name}");
        let json = serde_json::to_string(&ex).expect("serializes");
        let back: Extraction = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(ex, back, "{name}");
    }
}

/// A page whose only section holds a single record: extraction must not
/// panic and every reported section must be internally consistent.
#[test]
fn single_record_section_is_handled() {
    let ws = built_wrappers();
    let corpus = Corpus::generate(CorpusConfig::small(2006));
    let page = corpus.engines[0].page(0);
    // Keep the page skeleton but leave a single record-sized blob of
    // repeated content: truncate after the first ~third of the body.
    let cut = page.html.len() / 3;
    let mut boundary = cut;
    while !page.html.is_char_boundary(boundary) {
        boundary += 1;
    }
    let truncated = &page.html[..boundary];
    let ex = ws.extract_with_query(truncated, Some(&page.query));
    for sec in &ex.sections {
        assert!(sec.start <= sec.end, "section bounds inverted");
        assert!(!sec.records.is_empty(), "section with zero records");
        for rec in &sec.records {
            assert!(rec.start >= sec.start && rec.end <= sec.end);
        }
    }
}

/// Wrapper construction on degenerate corpora fails with *typed* errors,
/// never a panic.
#[test]
fn build_on_degenerate_corpora_returns_typed_errors() {
    let mse = Mse::new(MseConfig::default());
    assert!(matches!(mse.build(&[]), Err(BuildError::TooFewPages(0))));
    assert!(matches!(
        mse.build(&["<html></html>"]),
        Err(BuildError::TooFewPages(1))
    ));
    // Pages with no dynamic section leave grouping nothing to match.
    let no_instances = Err(BuildError::NoSections {
        stage: NoSectionsStage::Grouping,
    });
    assert_eq!(mse.build(&["", ""]).map(|_| ()), no_instances);
    let static_page = "<html><body><h1>About</h1><p>hello there</p></body></html>";
    assert_eq!(
        mse.build(&[static_page, static_page]).map(|_| ()),
        no_instances
    );

    // A sample page that blows the input-size budget is a strict,
    // per-page failure.
    let mut cfg = MseConfig::default();
    cfg.budget.max_input_bytes = 64;
    let corpus = Corpus::generate(CorpusConfig::small(2006));
    let samples: Vec<String> = corpus
        .sample_pages(&corpus.engines[0])
        .into_iter()
        .map(|p| p.html)
        .collect();
    let refs: Vec<&str> = samples.iter().map(String::as_str).collect();
    match Mse::new(cfg).build(&refs) {
        Err(BuildError::Page { index, .. }) => assert_eq!(index, 0),
        other => panic!("expected BuildError::Page, got {other:?}"),
    }

    // An invalid budget is rejected before any page is touched.
    let cfg = MseConfig {
        budget: ResourceBudget {
            max_depth: 0,
            ..ResourceBudget::default()
        },
        ..MseConfig::default()
    };
    assert!(matches!(
        Mse::new(cfg).build(&refs),
        Err(BuildError::InvalidConfig(_))
    ));
}

/// A build that finds sections but learns no wrapper names the step that
/// lost them. Engine 41 of the seed-2006 corpus (one of the three engines
/// Table 1 lists as failed) analyses one section per sample page and
/// groups them, but `build_wrapper` returns no wrapper for the group.
#[test]
fn failed_engine_reports_the_build_wrapper_stage() {
    let corpus = Corpus::generate(CorpusConfig::default());
    let samples = corpus.sample_pages(&corpus.engines[41]);
    let refs: Vec<(&str, Option<&str>)> = samples
        .iter()
        .map(|p| (p.html.as_str(), Some(p.query.as_str())))
        .collect();
    let built = Mse::new(MseConfig::default()).build_with_queries(&refs);
    assert_eq!(
        built.map(|_| ()),
        Err(BuildError::NoSections {
            stage: NoSectionsStage::BuildWrapper
        })
    );
}

#[test]
fn roughen_preserves_visible_text() {
    let corpus = Corpus::generate(CorpusConfig::small(2006));
    let page = corpus.engines[0].page(0);
    let soup = roughen(&page.html, 7);
    assert_ne!(page.html, soup, "roughen must actually change the markup");
    let clean_dom = mse::dom::parse(&page.html);
    let soup_dom = mse::dom::parse(&soup);
    let norm = |d: &mse::dom::Dom| -> String {
        d.text_of(d.root())
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
    };
    assert_eq!(norm(&clean_dom), norm(&soup_dom));
}
