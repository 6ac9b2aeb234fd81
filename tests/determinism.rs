//! Engine-equivalence guarantee: the memoized bounded distance engine and
//! the thread pool are pure performance features. Extraction output must be
//! byte-identical across thread counts and with the distance cache on or
//! off — the optimized engine is only allowed to skip work whose result is
//! provably unused, never to change a result.

mod common;

use common::nest_body;
use mse::core::{DistanceCache, Extraction, Mse, MseConfig, SectionWrapperSet};
use mse::testbed::EngineSpec;

/// The engines compared: panel engines 0, 1, 6 and 9 (6 and 9 learn
/// several wrappers plus families), and engine 6 again with every body
/// wrapped in eight `<div>`s, for deep container paths. Each entry holds
/// the eight pages' `(html, query)`; the first five are the samples.
fn corpus() -> Vec<Vec<(String, String)>> {
    let pages = |engine_id: usize, depth: usize| -> Vec<(String, String)> {
        let engine = EngineSpec::generate(2006, engine_id);
        (0..8)
            .map(|q| {
                let p = engine.page(q);
                (nest_body(&p.html, depth), p.query)
            })
            .collect()
    };
    vec![
        pages(0, 0),
        pages(1, 0),
        pages(6, 0),
        pages(9, 0),
        pages(6, 8),
    ]
}

/// Build wrappers and extract a page batch under one configuration,
/// returning the extractions serialized to JSON for byte comparison.
fn run(threads: usize, cache_enabled: bool) -> String {
    let mut out = Vec::new();
    for pages in corpus() {
        let refs: Vec<(&str, Option<&str>)> = pages
            .iter()
            .map(|(html, query)| (html.as_str(), Some(query.as_str())))
            .collect();
        let cfg = MseConfig {
            threads,
            enable_distance_cache: cache_enabled,
            ..MseConfig::default()
        };
        let cache = DistanceCache::new(cache_enabled);
        let ws: SectionWrapperSet = Mse::new(cfg)
            .build_with_queries_cached(&refs[..5], &cache)
            .expect("wrapper build");
        let exs: Vec<Extraction> = ws.extract_batch_cached(&refs, &cache);
        out.push(exs);
    }
    serde_json::to_string(&out).expect("serialize extractions")
}

#[test]
fn extraction_identical_across_thread_counts() {
    let serial = run(1, true);
    let parallel = run(4, true);
    assert_eq!(
        serial, parallel,
        "extraction must be byte-identical for threads=1 vs threads=4"
    );
}

#[test]
fn extraction_identical_with_and_without_distance_cache() {
    let reference = run(1, false);
    let memoized = run(1, true);
    assert_eq!(
        reference, memoized,
        "memoized bounded engine must match the reference engine byte-for-byte"
    );
}

#[test]
fn extraction_identical_tuned_vs_reference() {
    // The two corners compared by `perf_report`: serial/no-cache vs
    // all-cores/cached.
    let baseline = run(1, false);
    let tuned = run(0, true);
    assert_eq!(
        baseline, tuned,
        "tuned engine (threads=0, cache on) must match the serial reference"
    );
}
