//! `build-wrappers`: the paper's algorithm as one closed-loop caller
//! runs it — `Mse::build_with_queries` on five sample pages per engine,
//! round-robin over engines, each build with a fresh distance cache.

use std::time::{Duration, Instant};

use mse_core::pipeline::analyze_pages_cached;
use mse_core::{DistanceCache, Mse, MseConfig, Page, SectionWrapperSet};

use crate::corpus::{self, Corpus, Expect};
use crate::extract::{closed_loop_metrics, setup_layers};
use crate::stats::{mean, reset_peak_rss};
use crate::trace::{Tracer, ROOT};
use crate::{Outcome, Scale};

pub fn run(seed: u64, scale: &Scale, trace: bool, tr: &mut Tracer) -> Result<Outcome, String> {
    let corpus = tr.span("setup.corpus", ROOT, 0, || {
        corpus::plain(seed, scale.build_engines, scale.holdout_pages)
    });
    // Set-up is onboarding every engine once.
    let mut setup_s = Vec::new();
    let mut sets = Vec::new();
    for rep in 0..scale.setup_reps {
        let t = Instant::now();
        sets = tr.span("setup.build", ROOT, rep as u64, || {
            corpus::build_all(&corpus.engines)
        });
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let expects = tr.span("setup.golden", ROOT, 0, || {
        corpus::expect_all(&sets, &corpus.inputs)
    });
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        engines: sets.len(),
        skipped: sets.iter().filter(|s| s.is_none()).count(),
        digests: corpus::digests(sets.len(), &corpus.inputs, &expects),
        metrics: Vec::new(),
    };
    let ok: Vec<usize> = (0..sets.len()).filter(|&e| sets[e].is_some()).collect();
    if ok.is_empty() {
        return Err("no engine built a wrapper set".into());
    }
    let mut corrupt = scale.corrupt;
    let window = Duration::from_secs_f64(scale.seconds);
    if trace {
        stage_layers(&corpus, &ok, &expects, window, tr, &mut out);
        setup_layers(tr, &mut out);
        return Ok(out);
    }

    reset_peak_rss();
    let mut lat_ns: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    let mut k = 0usize;
    while t0.elapsed() < window {
        let e = ok[k % ok.len()];
        let t = Instant::now();
        let built = corpus::build_one(&corpus.engines[e]);
        lat_ns.push(t.elapsed().as_nanos() as f64);
        out.attempted += 1;
        if !holdout_matches(built.as_ref(), &corpus, &expects, e, &mut corrupt) {
            out.failed += 1;
        }
        k += 1;
    }
    out.metrics = closed_loop_metrics(&mut setup_s, &mut lat_ns);
    Ok(out)
}

/// A freshly built set must extract engine `e`'s held-out pages exactly
/// as the set-up build did. The wrapper representation itself is free
/// to change; its output is not.
fn holdout_matches(
    built: Option<&SectionWrapperSet>,
    corpus: &Corpus,
    expects: &[Option<Expect>],
    e: usize,
    corrupt: &mut bool,
) -> bool {
    let Some(set) = built else { return false };
    corpus
        .inputs
        .iter()
        .zip(expects)
        .filter(|(inp, _)| inp.engine == e)
        .all(|(inp, want)| {
            let mut got = corpus::expect(set, &inp.html, &inp.query);
            if std::mem::take(corrupt) {
                got.hash ^= 1;
            }
            Some(got) == *want
        })
}

/// The traced pass: per build, each stage called through its public
/// function on fresh caches, then the whole build for the total.
/// `build.unattributed_ms` is the whole build minus its timed stages —
/// duplicate-wrapper merging, nest dropping and self-validation, which
/// have no public entry point of their own.
fn stage_layers(
    corpus: &Corpus,
    ok: &[usize],
    expects: &[Option<Expect>],
    window: Duration,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let cfg = MseConfig::default();
    let threads = cfg.effective_threads();
    let mut untraced_ns: Vec<f64> = Vec::new();
    let (mut groups_n, mut kept_n, mut hits, mut lookups) = (0f64, 0f64, 0f64, 0f64);
    let mut no_corrupt = false;
    let t0 = Instant::now();
    let mut k = 0usize;
    while k < ok.len() || t0.elapsed() < window {
        let e = ok[k % ok.len()];
        let req = k as u64;
        let inputs = corpus::sample_refs(&corpus.engines[e]);
        let t = Instant::now();
        let _ = corpus::build_one(&corpus.engines[e]);
        untraced_ns.push(t.elapsed().as_nanos() as f64);

        let root = tr.open("build", ROOT, req);
        let pages: Vec<Page> = tr.span("build.parse", root, req, || {
            mse_core::par::par_map(&inputs, threads, |_, (html, q)| {
                Page::try_from_html_strict(html, *q, &cfg.budget)
            })
            .into_iter()
            .filter_map(Result::ok)
            .collect()
        });
        let cache = DistanceCache::new(cfg.enable_distance_cache);
        let mrs: Vec<_> = tr.span("build.mre", root, req, || {
            pages
                .iter()
                .map(|p| mse_core::mre::mre_cached(p, &cfg, &cache))
                .collect()
        });
        tr.span("build.dse", root, req, || {
            mse_core::dse::csbm_flags_cached(&pages, &mrs, &cfg, &cache)
        });
        let cache = DistanceCache::new(cfg.enable_distance_cache);
        let sections = tr.span("build.analyze", root, req, || {
            analyze_pages_cached(&pages, &cfg, &cache)
        });
        let groups = tr.span("build.group", root, req, || {
            mse_core::grouping::group_instances_cached(&pages, &sections, &cfg, &cache)
        });
        tr.span("build.wrapper", root, req, || {
            groups
                .iter()
                .filter_map(|g| mse_core::wrapper::build_wrapper(&pages, &sections, g))
                .count()
        });
        let cache = DistanceCache::new(cfg.enable_distance_cache);
        let built = tr.span("build.full", root, req, || {
            Mse::new(cfg.clone())
                .build_with_queries_cached(&inputs, &cache)
                .ok()
        });
        if let Some(ws) = &built {
            tr.span("build.family", root, req, || {
                mse_core::family::build_families(&ws.wrappers)
            });
            kept_n += ws.wrappers.len() as f64;
        }
        tr.close(root);
        groups_n += groups.len() as f64;
        hits += cache.hits() as f64;
        lookups += (cache.hits() + cache.misses()) as f64;
        out.attempted += 1;
        if !holdout_matches(built.as_ref(), corpus, expects, e, &mut no_corrupt) {
            out.failed += 1;
        }
        k += 1;
    }
    let ms = |name| tr.mean_us(name) / 1e3;
    let (parse, mre, dse, analyze) = (
        ms("build.parse"),
        ms("build.mre"),
        ms("build.dse"),
        ms("build.analyze"),
    );
    let (group, wrapper, family, full) = (
        ms("build.group"),
        ms("build.wrapper"),
        ms("build.family"),
        ms("build.full"),
    );
    let untraced_ms = mean(&untraced_ns) / 1e6;
    out.metrics.extend([
        ("build.parse_ms", parse),
        ("build.mre_ms", mre),
        ("build.dse_ms", dse),
        ("build.refine_gran_ms", analyze - mre - dse),
        ("build.group_ms", group),
        ("build.wrapper_ms", wrapper),
        ("build.family_ms", family),
        (
            "build.unattributed_ms",
            full - parse - analyze - group - wrapper - family,
        ),
        ("build.wrappers_kept_ratio", kept_n / groups_n.max(1.0)),
        ("treedit.cache_hit_ratio", hits / lookups.max(1.0)),
        ("treedit.lookups", lookups / k.max(1) as f64),
        (
            "trace.overhead_pct",
            (full - untraced_ms) / untraced_ms * 100.0,
        ),
    ]);
}
