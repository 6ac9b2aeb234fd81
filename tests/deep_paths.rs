//! Wrapper build on pages whose sections sit under deep tag paths.
//!
//! `Mse::build` orders wrappers by their container paths read as base-64
//! numbers (one digit per step). Folded into a `usize`, a path of a dozen
//! steps overflows; these pages wrap every body in eight extra `<div>`s to
//! put each section container that deep. Tier-1 runs in debug, so an
//! overflow would panic here.

mod common;

use common::nest_body;
use mse::core::{Mse, MseConfig};
use mse::testbed::EngineSpec;

#[test]
fn wrapper_order_survives_deep_container_paths() {
    let engine = EngineSpec::generate(2006, 6);
    let pages = |depth: usize| -> Vec<(String, String)> {
        (0..8)
            .map(|q| {
                let p = engine.page(q);
                (nest_body(&p.html, depth), p.query)
            })
            .collect()
    };
    let build = |pages: &[(String, String)]| {
        let refs: Vec<(&str, Option<&str>)> = pages[..5]
            .iter()
            .map(|(html, query)| (html.as_str(), Some(query.as_str())))
            .collect();
        Mse::new(MseConfig::default())
            .build_with_queries(&refs)
            .expect("wrapper build")
    };
    let (flat, deep) = (pages(0), pages(8));
    let (flat_set, deep_set) = (build(&flat), build(&deep));
    assert!(
        deep_set.wrappers.iter().any(|w| w.pref.steps.len() >= 12),
        "the nested pages must put a container at least 12 steps deep"
    );
    // The extra divs change no content line, so both sets extract every
    // held-out page identically, sections in the same order.
    for q in 5..8 {
        let want = flat_set.extract_with_query(&flat[q].0, Some(&flat[q].1));
        let got = deep_set.extract_with_query(&deep[q].0, Some(&deep[q].1));
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap(),
            "page {q}"
        );
    }
}
