//! Workload inputs, all derived from `--seed`: testbed engines and their
//! result pages, the "heavy chrome" page variant, request nonces, the
//! Poisson arrival schedule and the Zipf popularity draw — plus the
//! reference outputs every measured output is checked against.

use std::fmt::Write as _;
use std::sync::Arc;

use mse_core::{Mse, MseConfig, SectionWrapperSet};
use mse_testbed::EngineSpec;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

use crate::stats::{fnv64, fnv64_from};

/// Sample pages per engine: the paper's wrapper-building protocol (§5).
pub const SAMPLES: usize = 5;

/// Seed of the engine panel. Engine templates (sections, styles, markers,
/// chrome) are a fixed panel, as the paper's test bed is a fixed set of
/// engines; `--seed` draws everything those engines return — every
/// sample and test page — and the traffic. Runs on different seeds then
/// measure one system on different inputs, instead of a differently
/// mixed panel whose few costliest engines would set the result.
const PANEL: u64 = 2006;

/// An independent generator for one purpose (`salt`) under `seed`.
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One engine's wrapper-building input.
pub struct Engine {
    pub name: String,
    /// `(html, query)` sample pages.
    pub samples: Vec<(String, String)>,
}

/// One result page addressed to its engine.
pub struct Input {
    /// Index into [`Corpus::engines`].
    pub engine: usize,
    pub html: String,
    pub query: String,
}

impl Input {
    /// Byte offset of the closing `</body>`, where a request nonce goes.
    pub fn body_close(&self) -> usize {
        self.html.rfind("</body>").unwrap_or(self.html.len())
    }
}

pub struct Corpus {
    pub engines: Vec<Engine>,
    /// Test pages, engine-major, query order.
    pub inputs: Vec<Input>,
}

/// Plain testbed pages: `engines` engines, sample queries `0..5`, test
/// pages from query `5` on (never a sample page).
pub fn plain(seed: u64, engines: usize, pages: usize) -> Corpus {
    generate(seed, engines, pages, |_, html| html)
}

/// The "heavy chrome" variant: the same engines and pages, dressed in a
/// fixed per-engine template of ~32 KB inline `<style>`/`<script>`, eight
/// attribute-heavy wrapper `<div>`s and a ~4 KB static prose footer.
/// Samples and test pages share the template, as a real engine's do.
pub fn heavy(seed: u64, engines: usize, pages: usize) -> Corpus {
    let chromes: Vec<Chrome> = (0..engines).map(|id| Chrome::new(PANEL, id)).collect();
    generate(seed, engines, pages, |id, html| chromes[id].dress(&html))
}

fn generate(
    seed: u64,
    engines: usize,
    pages: usize,
    dress: impl Fn(usize, String) -> String,
) -> Corpus {
    let mut corpus = Corpus {
        engines: Vec::with_capacity(engines),
        inputs: Vec::with_capacity(engines * pages),
    };
    for id in 0..engines {
        let mut spec = EngineSpec::generate(PANEL, id);
        spec.seed = rng(seed, 0xE6_0000 + id as u64).next_u64();
        let samples = (0..SAMPLES)
            .map(|q| {
                let p = spec.page(q);
                (dress(id, p.html), p.query)
            })
            .collect();
        corpus.engines.push(Engine {
            name: format!("engine{id}"),
            samples,
        });
        for q in SAMPLES..SAMPLES + pages {
            let p = spec.page(q);
            corpus.inputs.push(Input {
                engine: id,
                html: dress(id, p.html),
                query: p.query,
            });
        }
    }
    corpus
}

/// Vocabulary of the template prose and attribute values. It shares no
/// word with the testbed's queries: extraction strips query terms from
/// content lines, so query words in static text would make the
/// template look dynamic.
const PROSE: &[&str] = &[
    "about",
    "account",
    "advertising",
    "business",
    "careers",
    "company",
    "contact",
    "content",
    "customer",
    "developers",
    "directory",
    "feedback",
    "general",
    "help",
    "information",
    "legal",
    "licence",
    "member",
    "notice",
    "partners",
    "people",
    "preferences",
    "press",
    "privacy",
    "program",
    "provider",
    "rights",
    "sitemap",
    "service",
    "settings",
    "site",
    "solutions",
    "support",
    "terms",
    "tools",
    "trademark",
    "users",
    "visitors",
    "website",
    "welcome",
];

/// A fixed per-engine page template.
struct Chrome {
    head: String,
    open: String,
    footer: String,
}

impl Chrome {
    fn new(seed: u64, id: usize) -> Chrome {
        let mut rng = rng(seed, 0xC4_0000 + id as u64);
        let word = |rng: &mut StdRng| PROSE[rng.random_range(0..PROSE.len())];
        // Inline CSS and JS without '<' (raw text ends only at its end tag,
        // but keeping them tag-free makes that irrelevant).
        let mut head = String::from("<style type=\"text/css\">\n");
        let mut n = 0usize;
        while head.len() < 16 * 1024 {
            let w = word(&mut rng);
            let _ = writeln!(
                head,
                ".{w}-{n} {{ margin: {}px {}px; padding: {}px; color: #{:06x}; font-family: Verdana, Arial, sans-serif; }}",
                rng.random_range(0..24u32),
                rng.random_range(0..24u32),
                rng.random_range(0..12u32),
                rng.random_range(0..0xFF_FFFFu32),
            );
            n += 1;
        }
        head.push_str("</style>\n<script type=\"text/javascript\">\n");
        let css_len = head.len();
        while head.len() - css_len < 16 * 1024 {
            let w = word(&mut rng);
            let _ = writeln!(
                head,
                "var v{n} = {{ id: {n}, label: \"{w}\", weight: {} }}; function track{n}(e) {{ return e + v{n}.weight * {}; }}",
                rng.random_range(1..1000u32),
                rng.random_range(2..9u32),
            );
            n += 1;
        }
        head.push_str("</script>\n");
        let mut open = String::new();
        for i in 0..8 {
            let w = word(&mut rng);
            let _ = write!(
                open,
                "<div id=\"{w}-wrap{i}\" class=\"layout layer{i} theme-{w}\" data-track=\"{:08x}\" \
                 data-role=\"region\" data-index=\"{i}\" style=\"margin:0 auto;padding:{}px\" \
                 role=\"presentation\" aria-label=\"{w} region {i}\">",
                rng.random_range(0..u32::MAX),
                rng.random_range(0..8u32),
            );
        }
        open.push('\n');
        let mut footer = String::from("<div class=\"site-footer\">\n");
        while footer.len() < 4 * 1024 {
            footer.push_str("<p>");
            for k in 0..80 {
                if k > 0 {
                    footer.push(' ');
                }
                footer.push_str(word(&mut rng));
            }
            footer.push_str(".</p>\n");
        }
        footer.push_str("</div>\n");
        footer.push_str(&"</div>".repeat(8));
        Chrome { head, open, footer }
    }

    fn dress(&self, html: &str) -> String {
        let head_end = html.find("</head>").unwrap_or(0);
        let body_open = html[head_end..]
            .find("<body")
            .and_then(|b| html[head_end + b..].find('>').map(|e| head_end + b + e + 1))
            .unwrap_or(head_end);
        let body_close = html.rfind("</body>").unwrap_or(html.len());
        let mut out = String::with_capacity(
            html.len() + self.head.len() + self.open.len() + self.footer.len(),
        );
        out.push_str(&html[..head_end]);
        out.push_str(&self.head);
        out.push_str(&html[head_end..body_open]);
        out.push_str(&self.open);
        out.push_str(&html[body_open..body_close]);
        out.push_str(&self.footer);
        out.push_str(&html[body_close..]);
        out
    }
}

/// Learn every engine's wrapper set with the default configuration.
/// `None` marks an engine whose build failed; which engines fail is a
/// function of the seed alone.
pub fn build_all(engines: &[Engine]) -> Vec<Option<Arc<SectionWrapperSet>>> {
    engines.iter().map(|e| build_one(e).map(Arc::new)).collect()
}

pub fn build_one(engine: &Engine) -> Option<SectionWrapperSet> {
    Mse::new(MseConfig::default())
        .build_with_queries(&sample_refs(engine))
        .ok()
}

pub fn sample_refs(engine: &Engine) -> Vec<(&str, Option<&str>)> {
    engine
        .samples
        .iter()
        .map(|(h, q)| (h.as_str(), Some(q.as_str())))
        .collect()
}

/// What a correct extraction of one page looks like.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Expect {
    /// FNV-1a of the extraction's JSON.
    pub hash: u64,
    pub sections: usize,
    pub records: usize,
}

/// The reference output: one-shot `extract_with_query` on the page.
pub fn expect(set: &SectionWrapperSet, html: &str, query: &str) -> Expect {
    let ex = set.extract_with_query(html, Some(query));
    Expect {
        hash: fnv64(serde_json::to_string(&ex).unwrap_or_default().as_bytes()),
        sections: ex.sections.len(),
        records: ex.total_records(),
    }
}

/// Reference outputs for every input (`None` where its engine was
/// skipped), computed on all cores.
pub fn expect_all(
    sets: &[Option<Arc<SectionWrapperSet>>],
    inputs: &[Input],
) -> Vec<Option<Expect>> {
    mse_core::par::par_map(inputs, 0, |_, inp| {
        sets[inp.engine]
            .as_ref()
            .map(|s| expect(s, &inp.html, &inp.query))
    })
}

/// Per-engine digests of the reference outputs, in input order — the
/// form the committed golden file records. Skipped engines read
/// `"skipped"`.
pub fn digests(engines: usize, inputs: &[Input], expects: &[Option<Expect>]) -> Vec<String> {
    let mut acc: Vec<Option<u64>> = vec![Some(0xcbf2_9ce4_8422_2325); engines];
    for (inp, e) in inputs.iter().zip(expects) {
        acc[inp.engine] = match (acc[inp.engine], e) {
            (Some(h), Some(e)) => Some(fnv64_from(h, &e.hash.to_le_bytes())),
            _ => None,
        };
    }
    acc.into_iter()
        .map(|h| h.map_or_else(|| "skipped".to_string(), |h| format!("{h:016x}")))
        .collect()
}

/// Poisson arrivals at `rate`/s over `secs`: due times in ns from the
/// phase start.
pub fn poisson(rng: &mut StdRng, rate: f64, secs: f64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.random_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// Zipf(`s`) popularity over `n` items; rank `r` maps to a seeded
/// permutation so popular pages spread across engines.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    pub fn new(rng: &mut StdRng, n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.random_range(0..=i));
        }
        Zipf { cdf, perm }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.perm.len() - 1);
        self.perm[rank] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_pages_are_heavy_and_share_chrome() {
        let c = heavy(2006, 1, 2);
        let chrome = Chrome::new(PANEL, 0);
        for page in [
            &c.inputs[0].html,
            &c.inputs[1].html,
            &c.engines[0].samples[0].0,
        ] {
            assert!(
                page.len() > 36 * 1024,
                "heavy page only {} bytes",
                page.len()
            );
            for part in [&chrome.head, &chrome.open, &chrome.footer] {
                assert!(page.contains(part.as_str()), "template missing from a page");
            }
            assert_eq!(page.matches("<div id=").count(), 8);
        }
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let mut r1 = rng(7, 1);
        let mut r2 = rng(7, 1);
        assert_eq!(poisson(&mut r1, 1000.0, 0.5), poisson(&mut r2, 1000.0, 0.5));
        let z = Zipf::new(&mut rng(7, 2), 100, 0.8);
        let mut r = rng(7, 3);
        let draws: Vec<usize> = (0..1000).map(|_| z.sample(&mut r)).collect();
        assert!(draws.iter().all(|&d| d < 100));
        assert_ne!(
            poisson(&mut rng(7, 1), 1000.0, 0.5),
            poisson(&mut rng(8, 1), 1000.0, 0.5)
        );
    }
}
