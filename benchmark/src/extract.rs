//! `extract-heavy`: batch extraction of heavy-template result pages on
//! one thread, HTML in to record JSON out — and the core-layer traced
//! pass the serve workloads reuse.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mse_bench::alloc::counting;
use mse_core::{
    CompiledParts, DistanceCache, ExtractScratch, Extraction, IngestScratch, Page,
    SectionWrapperSet,
};

use crate::corpus::{self, Expect, Input};
use crate::stats::{
    fnv64, mean, peak_rss_mb, reset_peak_rss, sorted_quantile, windowed, windowed_quantile,
};
use crate::trace::{Tracer, ROOT};
use crate::{Outcome, Scale};

/// One engine ready to extract: its wrapper set and compiled parts.
pub struct Ready {
    pub set: Arc<SectionWrapperSet>,
    pub parts: CompiledParts,
}

/// The production batch path with its reusable arenas:
/// `Page::try_from_html_fast` → `CompiledRef::extract_page_scratch` →
/// `serde_json::to_string_into`, exactly as `extract_batch` composes it.
pub struct Pipe {
    ing: IngestScratch,
    ext: ExtractScratch,
    dcache: DistanceCache,
    pub json: String,
}

impl Pipe {
    pub fn new() -> Pipe {
        Pipe {
            ing: IngestScratch::new(),
            ext: ExtractScratch::new(),
            dcache: DistanceCache::disabled(),
            json: String::new(),
        }
    }

    /// HTML → extraction JSON in `self.json`.
    pub fn run(&mut self, r: &Ready, html: &str, query: &str) {
        let ex = self.extract(r, html, query);
        let _ = serde_json::to_string_into(&ex, &mut self.json);
    }

    fn extract(&mut self, r: &Ready, html: &str, query: &str) -> Extraction {
        match Page::try_from_html_fast(html, Some(query), &r.set.cfg.budget, &mut self.ing) {
            Ok((page, diags)) => {
                let mut ex =
                    r.parts
                        .bind(&r.set)
                        .extract_page_scratch(&page, &self.dcache, &mut self.ext);
                ex.diagnostics.splice(0..0, diags);
                self.ing.recycle(page);
                ex
            }
            Err(e) => Extraction::degraded(&e),
        }
    }

    /// Does `self.json` hash to the reference? With `corrupt` set, the
    /// output is damaged first (once) — the smoke test's proof that a
    /// wrong output fails the run.
    pub fn matches(&mut self, e: &Expect, corrupt: &mut bool) -> bool {
        if std::mem::take(corrupt) {
            self.json.insert(1, ' ');
        }
        fnv64(self.json.as_bytes()) == e.hash
    }
}

pub fn run(seed: u64, scale: &Scale, trace: bool, tr: &mut Tracer) -> Result<Outcome, String> {
    let corpus = tr.span("setup.corpus", ROOT, 0, || {
        corpus::heavy(seed, scale.extract_engines, scale.extract_pages)
    });
    // Set-up: learn every engine's wrappers and compile them for serving.
    let mut setup_s = Vec::new();
    let mut ready: Vec<Option<Ready>> = Vec::new();
    for rep in 0..scale.setup_reps {
        let t = Instant::now();
        let sets = tr.span("setup.build", ROOT, rep as u64, || {
            corpus::build_all(&corpus.engines)
        });
        ready = tr.span("compiled.compile_parts", ROOT, rep as u64, || {
            sets.into_iter()
                .map(|s| {
                    s.map(|set| Ready {
                        parts: set.compile_parts(),
                        set,
                    })
                })
                .collect()
        });
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let sets: Vec<_> = ready
        .iter()
        .map(|r| r.as_ref().map(|r| Arc::clone(&r.set)))
        .collect();
    let expects = tr.span("setup.golden", ROOT, 0, || {
        corpus::expect_all(&sets, &corpus.inputs)
    });
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        engines: ready.len(),
        skipped: ready.iter().filter(|r| r.is_none()).count(),
        digests: corpus::digests(ready.len(), &corpus.inputs, &expects),
        metrics: Vec::new(),
    };
    let items: Vec<usize> = (0..corpus.inputs.len())
        .filter(|&i| expects[i].is_some())
        .collect();
    if items.is_empty() {
        return Err("no engine built a wrapper set".into());
    }
    let check = Check {
        ready: &ready,
        inputs: &corpus.inputs,
        expects: &expects,
    };
    let mut corrupt = scale.corrupt;
    // Warm pass: the interner and the allocator reach steady state here.
    let mut batches = Batches::default();
    for &i in &items {
        let pipe = batches.pipe(corpus.inputs[i].engine);
        check.run(pipe, i, &mut corrupt, &mut out);
    }
    if trace {
        core_layers(&check, &items, scale.seconds, tr, &mut out);
        setup_layers(tr, &mut out);
        return Ok(out);
    }

    reset_peak_rss();
    let window = Duration::from_secs_f64(scale.seconds);
    let mut lat_ns: Vec<f64> = Vec::with_capacity(1 << 16);
    let t0 = Instant::now();
    let mut k = 0usize;
    while t0.elapsed() < window {
        let i = items[k % items.len()];
        let inp = &corpus.inputs[i];
        let r = ready[inp.engine].as_ref().ok_or("item without wrappers")?;
        let pipe = batches.pipe(inp.engine);
        let t = Instant::now();
        pipe.run(r, &inp.html, &inp.query);
        lat_ns.push(t.elapsed().as_nanos() as f64);
        out.attempted += 1;
        if !expects[i].is_some_and(|e| pipe.matches(&e, &mut corrupt)) {
            out.failed += 1;
        }
        k += 1;
    }
    out.metrics = closed_loop_metrics(&mut setup_s, &mut lat_ns);
    Ok(out)
}

/// End-to-end metrics of a closed loop from its per-operation latencies
/// (ns, in completion order): operations per busy second and the p95,
/// both windowed, and the median.
pub fn closed_loop_metrics(setup_s: &mut [f64], lat_ns: &mut [f64]) -> Vec<(&'static str, f64)> {
    let throughput = windowed(lat_ns, |w| w.len() as f64 / (w.iter().sum::<f64>() / 1e9));
    let p95 = windowed_quantile(lat_ns, 0.95);
    vec![
        ("setup_s", sorted_quantile(setup_s, 0.5)),
        ("throughput_per_s", throughput),
        ("p50_ms", sorted_quantile(lat_ns, 0.5) / 1e6),
        ("p95_ms", p95 / 1e6),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Scratch lifetime of the batch API: `extract_batch` gives each call
/// fresh arenas, and a metasearcher makes one call per engine's batch of
/// result pages. The workload does the same — a new [`Pipe`] whenever
/// the engine changes — so arenas live for one batch, not the run.
#[derive(Default)]
pub struct Batches {
    engine: Option<usize>,
    pipe: Option<Pipe>,
}

impl Batches {
    pub fn pipe(&mut self, engine: usize) -> &mut Pipe {
        if self.engine != Some(engine) {
            self.engine = Some(engine);
            self.pipe = None;
        }
        self.pipe.get_or_insert_with(Pipe::new)
    }
}

/// Everything needed to extract input `i` and judge the output.
pub struct Check<'a> {
    pub ready: &'a [Option<Ready>],
    pub inputs: &'a [Input],
    pub expects: &'a [Option<Expect>],
}

impl Check<'_> {
    fn parts(&self, i: usize) -> Option<(&Ready, &Input, Expect)> {
        let inp = &self.inputs[i];
        Some((self.ready[inp.engine].as_ref()?, inp, self.expects[i]?))
    }

    /// Extract input `i` through `pipe` and count the outcome.
    pub fn run(&self, pipe: &mut Pipe, i: usize, corrupt: &mut bool, out: &mut Outcome) {
        out.attempted += 1;
        let ok = self.parts(i).is_some_and(|(r, inp, e)| {
            pipe.run(r, &inp.html, &inp.query);
            pipe.matches(&e, corrupt)
        });
        if !ok {
            out.failed += 1;
        }
    }
}

/// The traced core pass over `items`, repeated until `secs` elapse:
///
/// 1. untraced: the production path per page, timed as a whole;
/// 2. traced: the same calls, each in its own span under a `page` span
///    (ingest, extract, serialize), allocations counted per call;
/// 3. decomposition: the lexer run to exhaustion, the serving parse, the
///    line layout and the match-only probe, each timed in isolation.
///
/// Layer self times follow by subtraction: parse minus lex, ingest minus
/// parse minus layout, extract minus match; whatever the page takes
/// beyond its layers is reported as `pipeline.unattributed_us`.
pub fn core_layers(check: &Check, items: &[usize], secs: f64, tr: &mut Tracer, out: &mut Outcome) {
    let mut no_corrupt = false;
    let mut untraced_ns: Vec<f64> = Vec::new();
    let (mut nodes, mut lines, mut records, mut bytes, mut json_bytes) =
        (0f64, 0f64, 0f64, 0f64, 0f64);
    let (mut ingest_allocs, mut extract_allocs) = (0f64, 0f64);
    let mut traced_pages = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    loop {
        let mut batches = Batches::default();
        for &i in items {
            let Some((r, inp, _)) = check.parts(i) else {
                continue;
            };
            let pipe = batches.pipe(inp.engine);
            let t = Instant::now();
            pipe.run(r, &inp.html, &inp.query);
            untraced_ns.push(t.elapsed().as_nanos() as f64);
        }
        let mut batches = Batches::default();
        for &i in items {
            let Some((r, inp, e)) = check.parts(i) else {
                continue;
            };
            let pipe = batches.pipe(inp.engine);
            let req = i as u64;
            let root = tr.open("page", ROOT, req);
            let (ingested, a, _) = tr.span("ingest", root, req, || {
                counting(|| {
                    Page::try_from_html_fast(
                        &inp.html,
                        Some(&inp.query),
                        &r.set.cfg.budget,
                        &mut pipe.ing,
                    )
                })
            });
            ingest_allocs += a as f64;
            let ex = match ingested {
                Ok((page, diags)) => {
                    let (mut ex, a, _) = tr.span("compiled.extract", root, req, || {
                        counting(|| {
                            r.parts.bind(&r.set).extract_page_scratch(
                                &page,
                                &pipe.dcache,
                                &mut pipe.ext,
                            )
                        })
                    });
                    extract_allocs += a as f64;
                    ex.diagnostics.splice(0..0, diags);
                    pipe.ing.recycle(page);
                    ex
                }
                Err(err) => Extraction::degraded(&err),
            };
            records += ex.total_records() as f64;
            tr.span("serialize", root, req, || {
                serde_json::to_string_into(&ex, &mut pipe.json)
            })
            .ok();
            tr.close(root);
            json_bytes += pipe.json.len() as f64;
            bytes += inp.html.len() as f64;
            traced_pages += 1;
            out.attempted += 1;
            if !pipe.matches(&e, &mut no_corrupt) {
                out.failed += 1;
            }
        }
        let mut batches = Batches::default();
        let (mut parse_scratch, mut line_scratch) = Default::default();
        for &i in items {
            let Some((r, inp, _)) = check.parts(i) else {
                continue;
            };
            if batches.engine != Some(inp.engine) {
                (parse_scratch, line_scratch) = Default::default();
            }
            let pipe = batches.pipe(inp.engine);
            let req = i as u64;
            let budget = &r.set.cfg.budget;
            let root = tr.open("layers", ROOT, req);
            tr.span("dom.lex", root, req, || {
                let mut lx = mse_dom::Lexer::new(&inp.html);
                let mut n = 0usize;
                while lx.next_event().is_some() {
                    n += 1;
                }
                std::hint::black_box(n)
            });
            let parsed = tr.span("dom.parse", root, req, || {
                mse_dom::parse_serving(&inp.html, &budget.parse_limits(), &mut parse_scratch)
            });
            if let Ok((dom, labels)) = parsed {
                nodes += dom.len() as f64;
                let (l, _) = tr.span("render.layout", root, req, || {
                    mse_render::render_lines_capped_scratch(
                        &dom,
                        budget.max_content_lines,
                        &mut line_scratch,
                    )
                });
                lines += l.len() as f64;
                line_scratch.recycle(l);
                parse_scratch.recycle(dom, labels);
            }
            if let Ok((page, _)) =
                Page::try_from_html_fast(&inp.html, Some(&inp.query), budget, &mut pipe.ing)
            {
                tr.span("compiled.match", root, req, || {
                    r.parts
                        .bind(&r.set)
                        .match_page_scratch(&page, &pipe.dcache, &mut pipe.ext)
                });
                pipe.ing.recycle(page);
            }
            tr.close(root);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let per_page = |x: f64| x / traced_pages.max(1) as f64;
    let lex = tr.mean_us("dom.lex");
    let parse = tr.mean_us("dom.parse");
    let layout = tr.mean_us("render.layout");
    let ingest = tr.mean_us("ingest");
    let extract = tr.mean_us("compiled.extract");
    let matching = tr.mean_us("compiled.match");
    let serialize = tr.mean_us("serialize");
    let untraced_us = mean(&untraced_ns) / 1e3;
    out.metrics.extend([
        ("dom.lex_us", lex),
        ("dom.parse_self_us", parse - lex),
        ("dom.nodes", nodes / tr.count("dom.parse").max(1) as f64),
        ("dom.bytes", per_page(bytes)),
        ("render.layout_us", layout),
        (
            "render.lines",
            lines / tr.count("render.layout").max(1) as f64,
        ),
        ("ingest.self_us", ingest - parse - layout),
        ("ingest.allocs", per_page(ingest_allocs)),
        ("compiled.match_us", matching),
        ("compiled.materialize_us", extract - matching),
        ("compiled.records", per_page(records)),
        ("compiled.allocs", per_page(extract_allocs)),
        ("serialize.us", serialize),
        ("serialize.bytes", per_page(json_bytes)),
        (
            "pipeline.unattributed_us",
            untraced_us - ingest - extract - serialize,
        ),
        (
            "trace.overhead_pct",
            (tr.mean_us("page") - untraced_us) / untraced_us * 100.0,
        ),
    ]);
}

/// Set-up layer metrics from the set-up spans; every per-layer metric
/// nobody measured reads 0.
pub fn setup_layers(tr: &Tracer, out: &mut Outcome) {
    let ms = |name| tr.mean_us(name) / 1e3;
    out.metrics.extend([
        ("setup.corpus_ms", ms("setup.corpus")),
        ("setup.build_ms", ms("setup.build")),
        ("setup.golden_ms", ms("setup.golden")),
        ("store.save_ms", ms("store.save")),
        ("registry.open_ms", ms("registry.open")),
        ("compiled.compile_parts_ms", ms("compiled.compile_parts")),
        ("setup.engines_skipped", out.skipped as f64),
    ]);
    for (name, _) in crate::PER_LAYER {
        if !out.metrics.iter().any(|(n, _)| n == name) {
            out.metrics.push((name, 0.0));
        }
    }
}
