//! The paper's §4.3/§4.4 measures: record distance (Formula 4),
//! inter-record distance (5), record diversity (6) and section cohesion
//! (7), computed over line ranges of a [`Page`].

use crate::cache::DistanceCache;
use crate::config::MseConfig;
use crate::page::Page;
use mse_dom::NodeId;
use mse_render::block::{dbp, dbs, dbt, dbta};
use mse_render::{ContentLine, LineAttrs, LineType};
use mse_treedit::{forest_distance, forest_distance_bounded, TagTree};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A record: a half-open range of content lines on one page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rec {
    pub start: usize,
    pub end: usize,
}

impl Rec {
    pub fn new(start: usize, end: usize) -> Rec {
        debug_assert!(start < end, "empty record {start}..{end}");
        Rec { start, end }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    pub fn contains_line(&self, line: usize) -> bool {
        (self.start..self.end).contains(&line)
    }
}

/// Kind tags leading every interned id sequence, so ids of different
/// kinds never compare equal (record and forest ids share the pair memo).
const TREE: u32 = 0;
const LINE: u32 = 1;
const RECORD: u32 = 2;
const FOREST: u32 = 3;
/// Not yet interned.
const UNSET: u32 = u32::MAX;

/// Per-page memo of interned structure ids (hash-consing in a
/// [`DistanceCache`]): one per DOM node, for the tag tree of its subtree
/// (`TREE`, its label, its kept children's ids — the exact shape
/// [`TagTree::from_dom`] lifts), and one per content line, for the
/// (type, position, attrs) that `Dbt`, `Dbs`, `Dbp` and `Dbta` read. Equal
/// ids mean equal inputs across all pages of one cache.
pub(crate) struct PageIds {
    nodes: Vec<u32>,
    lines: Vec<u32>,
    stack: Vec<(NodeId, bool)>,
    seq: Vec<u32>,
}

impl PageIds {
    pub(crate) fn new(page: &Page) -> PageIds {
        PageIds {
            nodes: vec![UNSET; page.rp.dom.len()],
            lines: vec![UNSET; page.n_lines()],
            stack: Vec::new(),
            seq: Vec::new(),
        }
    }

    /// The id of `root`'s tag tree: an iterative post-order pass interning
    /// each not-yet-seen node after its children.
    fn node(&mut self, cache: &DistanceCache, page: &Page, root: NodeId) -> u32 {
        let (dom, labels) = (&page.rp.dom, &page.rp.sigs.labels);
        let kept = |c: NodeId| labels.get(c.index()).is_some_and(|l| !l.is_none());
        self.stack.clear();
        self.stack.push((root, false));
        while let Some((n, children_done)) = self.stack.pop() {
            if self.nodes[n.index()] != UNSET {
                continue;
            }
            if !children_done {
                self.stack.push((n, true));
                self.stack
                    .extend(dom.children(n).filter(|&c| kept(c)).map(|c| (c, false)));
                continue;
            }
            self.seq.clear();
            self.seq.extend([TREE, labels[n.index()].0]);
            let nodes = &self.nodes;
            self.seq.extend(
                dom.children(n)
                    .filter(|&c| kept(c))
                    .map(|c| nodes[c.index()]),
            );
            self.nodes[n.index()] = cache.intern_ids(&self.seq);
        }
        self.nodes[root.index()]
    }

    fn line(&mut self, cache: &DistanceCache, page: &Page, l: usize) -> u32 {
        if self.lines[l] == UNSET {
            let line = &page.rp.lines[l];
            let attrs = cache.intern_attrs(&line.attrs);
            // `pos as u32` keeps the bit pattern, so distinct positions stay distinct.
            self.lines[l] =
                cache.intern_ids(&[LINE, line.ltype.code() as u32, line.pos as u32, attrs]);
        }
        self.lines[l]
    }

    /// Push the ids of the kept forest roots (those [`forest_of`] lifts).
    /// No count is needed before the line ids that may follow: tree and
    /// line ids come from one table under different kind tags, so they
    /// never coincide.
    fn push_roots(
        &mut self,
        cache: &DistanceCache,
        page: &Page,
        roots: &[NodeId],
        out: &mut Vec<u32>,
    ) {
        let labels = &page.rp.sigs.labels;
        for &r in roots {
            if labels.get(r.index()).is_some_and(|l| !l.is_none()) {
                out.push(self.node(cache, page, r));
            }
        }
    }

    /// The id of a tag forest given by its root nodes: the key of the
    /// cross-page `Dtf` term in grouping.
    pub(crate) fn forest(&mut self, cache: &DistanceCache, page: &Page, roots: &[NodeId]) -> u32 {
        let mut seq = vec![FOREST];
        self.push_roots(cache, page, roots, &mut seq);
        cache.intern_ids(&seq)
    }

    /// The id of a record: its forest-root ids, then its line ids.
    fn record(&mut self, cache: &DistanceCache, page: &Page, r: Rec) -> u32 {
        let mut seq = vec![RECORD];
        self.push_roots(
            cache,
            page,
            &page.rp.forest_of_range(r.start, r.end),
            &mut seq,
        );
        for l in r.start..r.end {
            seq.push(self.line(cache, page, l));
        }
        cache.intern_ids(&seq)
    }
}

/// Per-page table of line distances `Dline` (Formula 3) over the lines'
/// (type, position, attrs) classes. `Dline` reads nothing else, so two
/// lines of one class are interchangeable and each class pair is computed
/// once; `Dline` is symmetric term by term, so the stored value is
/// bit-identical to computing any of its line pairs directly.
#[derive(Default)]
struct LineTable<'a> {
    /// Class of each line, `UNSET` until first asked.
    class: Vec<u32>,
    classes: HashMap<(LineType, i32, &'a LineAttrs), u32>,
    /// Lower triangle: `dist[a][b]` for `b <= a`, NaN until computed.
    dist: Vec<Vec<f64>>,
}

impl<'a> LineTable<'a> {
    fn class(&mut self, lines: &'a [ContentLine], l: usize) -> usize {
        if self.class.len() != lines.len() {
            self.class = vec![UNSET; lines.len()];
        }
        if self.class[l] == UNSET {
            let line = &lines[l];
            let next = self.classes.len() as u32;
            let c = *self
                .classes
                .entry((line.ltype, line.pos, &line.attrs))
                .or_insert(next);
            if c == next {
                self.dist.push(vec![f64::NAN; c as usize + 1]);
            }
            self.class[l] = c;
        }
        self.class[l] as usize
    }

    /// `lines[i].distance(&lines[j], u)`, read from the table.
    fn distance(
        &mut self,
        lines: &'a [ContentLine],
        u: (f64, f64, f64),
        i: usize,
        j: usize,
    ) -> f64 {
        let (a, b) = (self.class(lines, i), self.class(lines, j));
        let slot = &mut self.dist[a.max(b)][a.min(b)];
        if slot.is_nan() {
            *slot = lines[i].distance(&lines[j], u);
        }
        *slot
    }
}

/// Feature calculator with a per-page tag-forest cache (forest lifting is
/// the expensive part of `Drec`) and an optional shared [`DistanceCache`]
/// memoizing record-pair distances across pages and `Features` instances.
///
/// Wrapper build makes one per sample page and lends it to every stage
/// (MRE, refinement, granularity, grouping), so the page's structure ids,
/// lifted forests, record keys and `Div` values are each computed once per
/// build; the public per-stage functions make their own.
pub struct Features<'a> {
    pub page: &'a Page,
    pub cfg: &'a MseConfig,
    cache: Option<&'a DistanceCache>,
    forests: HashMap<(usize, usize), Vec<TagTree>>,
    ids: Option<PageIds>,
    keys: HashMap<(usize, usize), u32>,
    divs: HashMap<(usize, usize), f64>,
    /// Built on the first `div` call; extraction's family checks never
    /// make one.
    lines: Option<Box<LineTable<'a>>>,
}

impl<'a> Features<'a> {
    pub fn new(page: &'a Page, cfg: &'a MseConfig) -> Features<'a> {
        Features {
            page,
            cfg,
            cache: None,
            forests: HashMap::new(),
            ids: None,
            keys: HashMap::new(),
            divs: HashMap::new(),
            lines: None,
        }
    }

    /// A calculator backed by a build-owned pair memo: `Drec` values for
    /// content-identical record pairs are computed once per cache lifetime
    /// instead of once per `Features` instance.
    pub fn with_cache(
        page: &'a Page,
        cfg: &'a MseConfig,
        cache: &'a DistanceCache,
    ) -> Features<'a> {
        Features {
            cache: Some(cache),
            ..Features::new(page, cfg)
        }
    }

    pub(crate) fn ensure_forest(&mut self, r: Rec) {
        if !self.forests.contains_key(&(r.start, r.end)) {
            let f = self.page.forest(r.start, r.end);
            self.forests.insert((r.start, r.end), f);
        }
    }

    /// The tag forest of `r`, if [`ensure_forest`](Self::ensure_forest)
    /// has lifted it.
    pub(crate) fn lifted(&self, r: Rec) -> Option<&[TagTree]> {
        self.forests.get(&(r.start, r.end)).map(Vec::as_slice)
    }

    /// The interned id of `r`'s tag forest (the key of grouping's
    /// cross-page `Dtf` term), keyed by the same root ids as the record
    /// keys; `None` without an enabled cache.
    pub(crate) fn forest_id(&mut self, r: Rec) -> Option<u32> {
        let cache = self.cache.filter(|c| c.enabled())?;
        let page = self.page;
        let roots = page.rp.forest_of_range(r.start, r.end);
        Some(
            self.ids
                .get_or_insert_with(|| PageIds::new(page))
                .forest(cache, page, &roots),
        )
    }

    /// The record's interned content key (see [`PageIds`]): its tag-forest
    /// root ids plus its line ids — exactly the inputs of `Drec`, so equal
    /// keys imply equal distances. The tag forest itself is lifted only if
    /// the memo misses.
    fn rec_key(&mut self, cache: &DistanceCache, r: Rec) -> u32 {
        if let Some(&k) = self.keys.get(&(r.start, r.end)) {
            return k;
        }
        let page = self.page;
        let k = self
            .ids
            .get_or_insert_with(|| PageIds::new(page))
            .record(cache, page, r);
        self.keys.insert((r.start, r.end), k);
        k
    }

    /// Record distance `Drec` (Formula 4):
    /// `v1·Dtf + v2·Dbt + v3·Dbs + v4·Dbp + v5·Dbta`.
    pub fn drec(&mut self, a: Rec, b: Rec) -> f64 {
        self.drec_bounded(a, b, f64::INFINITY)
    }

    /// Bounded record distance: the exact `Drec` when it is `<= bound`,
    /// `f64::INFINITY` otherwise (computed with the banded edit distance,
    /// so a hopeless pair costs little). Values `<= bound` are bit-exact
    /// equal to the unbounded result.
    ///
    /// Without an enabled cache this runs the *reference* engine — the
    /// full unbounded `Drec` compared against `bound` afterwards — so
    /// benchmarks can A/B the optimized distance engine against the
    /// textbook evaluation. Both modes return identical values.
    pub fn drec_bounded(&mut self, a: Rec, b: Rec, bound: f64) -> f64 {
        match self.cache {
            Some(cache) if cache.enabled() => {
                let ka = self.rec_key(cache, a);
                let kb = self.rec_key(cache, b);
                cache.pair_bounded(ka, kb, bound, |bd| self.drec_raw(a, b, bd))
            }
            _ => {
                let d = self.drec_raw(a, b, f64::INFINITY);
                if d > bound {
                    f64::INFINITY
                } else {
                    d
                }
            }
        }
    }

    fn drec_raw(&mut self, a: Rec, b: Rec, bound: f64) -> f64 {
        let v = self.cfg.v;
        let la = &self.page.rp.lines[a.start..a.end];
        let lb = &self.page.rp.lines[b.start..b.end];
        let cheap = v.1 * dbt(la, lb) + v.2 * dbs(la, lb) + v.3 * dbp(la, lb) + v.4 * dbta(la, lb);
        if cheap > bound {
            return f64::INFINITY; // Dtf >= 0 cannot bring the sum back down
        }
        self.ensure_forest(a);
        self.ensure_forest(b);
        let fa = &self.forests[&(a.start, a.end)];
        let fb = &self.forests[&(b.start, b.end)];
        let dtf = if bound.is_finite() && v.0 > 0.0 {
            forest_distance_bounded(fa, fb, (bound - cheap) / v.0)
        } else {
            forest_distance(fa, fb)
        };
        if !dtf.is_finite() {
            return f64::INFINITY;
        }
        let d = v.0 * dtf + cheap;
        if d > bound {
            f64::INFINITY
        } else {
            d
        }
    }

    /// Inter-record distance `Dinr` (Formula 5): mean pairwise `Drec` over
    /// the records of a section. Zero for fewer than two records.
    pub fn dinr(&mut self, records: &[Rec]) -> f64 {
        let n = records.len();
        if n < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..n - 1 {
            for j in i + 1..n {
                sum += self.drec(records[i], records[j]);
            }
        }
        sum / (n * (n - 1) / 2) as f64
    }

    /// `Dinr(records) > threshold`, with early exit: as soon as the
    /// accumulated pair distances already force the mean over the
    /// threshold, the remaining pairs are skipped, and each pair itself
    /// runs under a bound (distances are non-negative, so a partial sum
    /// exceeding `threshold × pairs` settles the comparison).
    pub fn dinr_exceeds(&mut self, records: &[Rec], threshold: f64) -> bool {
        let n = records.len();
        if n < 2 {
            return 0.0 > threshold;
        }
        let budget = threshold * (n * (n - 1) / 2) as f64;
        let mut sum = 0.0;
        for i in 0..n - 1 {
            for j in i + 1..n {
                let d = self.drec_bounded(records[i], records[j], budget - sum);
                if !d.is_finite() {
                    return true;
                }
                sum += d;
            }
        }
        sum > budget
    }

    /// `Dinr` under a bound: returns the exact mean pairwise distance when
    /// it is ≤ `bound`, and `f64::INFINITY` as soon as the accumulated
    /// pair distances force the mean over `bound` (remaining pairs are
    /// skipped; each pair itself runs under the leftover budget).
    pub fn dinr_bounded(&mut self, records: &[Rec], bound: f64) -> f64 {
        let n = records.len();
        if n < 2 {
            return if 0.0 > bound { f64::INFINITY } else { 0.0 };
        }
        let pairs = (n * (n - 1) / 2) as f64;
        let budget = bound * pairs;
        let mut sum = 0.0;
        for i in 0..n - 1 {
            for j in i + 1..n {
                let d = self.drec_bounded(records[i], records[j], budget - sum);
                if !d.is_finite() {
                    return f64::INFINITY;
                }
                sum += d;
            }
        }
        if sum > budget {
            f64::INFINITY
        } else {
            sum / pairs
        }
    }

    /// Record diversity `Div` (Formula 6): mean pairwise line distance
    /// within one record. Zero for single-line records.
    ///
    /// Line distances come from the page's [`LineTable`]; the pairs are
    /// summed in the same order as the direct double loop, so the result
    /// is bit-identical to it.
    pub fn div(&mut self, r: Rec) -> f64 {
        if let Some(&d) = self.divs.get(&(r.start, r.end)) {
            return d;
        }
        let m = r.len();
        let d = if m < 2 {
            0.0
        } else {
            let page = self.page;
            let lines = &page.rp.lines;
            let table = self.lines.get_or_insert_with(Default::default);
            let mut sum = 0.0;
            for i in r.start..r.end - 1 {
                for j in i + 1..r.end {
                    sum += table.distance(lines, self.cfg.u, i, j);
                }
            }
            sum / (m * (m - 1) / 2) as f64
        };
        self.divs.insert((r.start, r.end), d);
        d
    }

    /// Section cohesion `Cohs` (Formula 7):
    /// `(Σ Div(rᵢ) / n) / (1 + Dinr(S))`.
    pub fn cohesion(&mut self, records: &[Rec]) -> f64 {
        let n = records.len();
        if n == 0 {
            return 0.0;
        }
        let avg_div = records.iter().map(|&r| self.div(r)).sum::<f64>() / n as f64;
        avg_div / (1.0 + self.dinr(records))
    }

    /// Average record distance between one record and a set (`Davgrs`,
    /// §5.3/§5.5).
    pub fn davgrs(&mut self, r: Rec, set: &[Rec]) -> f64 {
        if set.is_empty() {
            return f64::INFINITY;
        }
        set.iter().map(|&o| self.drec(r, o)).sum::<f64>() / set.len() as f64
    }

    /// `Davgrs(r, set) > threshold` with the same early-exit scheme as
    /// [`dinr_exceeds`](Self::dinr_exceeds). An empty set is infinitely
    /// far (exceeds any finite threshold).
    pub fn davgrs_exceeds(&mut self, r: Rec, set: &[Rec], threshold: f64) -> bool {
        if set.is_empty() {
            return threshold.is_finite();
        }
        let budget = threshold * set.len() as f64;
        let mut sum = 0.0;
        for &o in set {
            let d = self.drec_bounded(r, o, budget - sum);
            if !d.is_finite() {
                return true;
            }
            sum += d;
        }
        sum > budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(html: &str) -> Page {
        Page::from_html(html, None)
    }

    fn recs(bounds: &[(usize, usize)]) -> Vec<Rec> {
        bounds.iter().map(|&(s, e)| Rec::new(s, e)).collect()
    }

    /// Three same-format records: title link + snippet, in divs.
    fn uniform_section() -> Page {
        page(concat!(
            "<body><div class=r><a href=1>Alpha result one</a><br>first snippet text</div>",
            "<div class=r><a href=2>Beta result two</a><br>second snippet body</div>",
            "<div class=r><a href=3>Gamma result three</a><br>third snippet words</div></body>"
        ))
    }

    #[test]
    fn drec_zero_for_identical_format() {
        let p = uniform_section();
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        let d = f.drec(Rec::new(0, 2), Rec::new(2, 4));
        assert!(d < 0.05, "d = {d}");
    }

    #[test]
    fn drec_large_for_different_format() {
        let p = page(concat!(
            "<body><div><a href=1>t</a><br>s</div>",
            "<table><tr><td>1.</td><td>x</td><td><input type=submit></td></tr></table></body>"
        ));
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        let d = f.drec(Rec::new(0, 2), Rec::new(2, 5));
        assert!(d > 0.3, "d = {d}");
    }

    #[test]
    fn dinr_mean_of_pairs() {
        let p = uniform_section();
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        let rs = recs(&[(0, 2), (2, 4), (4, 6)]);
        let d = f.dinr(&rs);
        assert!((0.0..0.05).contains(&d), "dinr = {d}");
        assert_eq!(f.dinr(&rs[..1]), 0.0);
        assert_eq!(f.dinr(&[]), 0.0);
    }

    #[test]
    fn div_measures_within_record_dissimilarity() {
        let p = uniform_section();
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        // link line vs text line within a record → diverse
        let d = f.div(Rec::new(0, 2));
        assert!(d > 0.2, "div = {d}");
        // single line → 0
        assert_eq!(f.div(Rec::new(0, 1)), 0.0);
    }

    #[test]
    fn cohesion_prefers_correct_partition() {
        // The §4.4 claim: the correct per-record partition has higher
        // cohesion than both the everything-in-one-record partition and the
        // one-line-per-record partition.
        let p = uniform_section();
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        let correct = recs(&[(0, 2), (2, 4), (4, 6)]);
        let merged = recs(&[(0, 6)]);
        let shredded = recs(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let c_correct = f.cohesion(&correct);
        let c_merged = f.cohesion(&merged);
        let c_shredded = f.cohesion(&shredded);
        assert!(
            c_correct > c_merged && c_correct > c_shredded,
            "correct={c_correct} merged={c_merged} shredded={c_shredded}"
        );
    }

    /// Record keys encode `Drec`'s inputs exactly, across pages sharing
    /// one cache: equal keys ⇔ equal tag forests and equal (type,
    /// position, attrs) line sequences. A key coarser than its inputs
    /// would let the memo answer one record pair with another's distance.
    #[test]
    fn record_keys_encode_drec_inputs_exactly() {
        type Inputs = (
            Vec<TagTree>,
            Vec<(mse_render::LineType, i32, mse_render::LineAttrs)>,
        );
        // Each testbed page twice: legacy ingest and the fast ingest the
        // build uses (whose DOM has no comment nodes).
        let budget = crate::config::ResourceBudget::default();
        let mut pages: Vec<Page> = (0..3)
            .flat_map(|engine| {
                let spec = mse_testbed::EngineSpec::generate(2006, engine);
                (0..2).map(move |q| spec.page(q))
            })
            .flat_map(|g| {
                let q = Some(g.query.as_str());
                [
                    Page::from_html(&g.html, q),
                    Page::try_from_html_strict(&g.html, q, &budget).expect("fast ingest"),
                ]
            })
            .collect();
        // Records that differ only in a tag name, or only in position.
        pages.push(page(concat!(
            "<body><div>a</div><p>b</p><div>c</div><h6>d</h6>",
            "<ul><li>e</li></ul><div><div>f</div></div></body>"
        )));
        let cache = DistanceCache::new(true);
        let mut by_key: HashMap<u32, Inputs> = HashMap::new();
        let mut by_inputs: HashMap<String, u32> = HashMap::new();
        for p in &pages {
            let mut ids = PageIds::new(p);
            for start in 0..p.n_lines() {
                for end in start + 1..(start + 5).min(p.n_lines() + 1) {
                    let key = ids.record(&cache, p, Rec::new(start, end));
                    let inputs: Inputs = (
                        p.forest(start, end),
                        p.rp.lines[start..end]
                            .iter()
                            .map(|l| (l.ltype, l.pos, l.attrs.clone()))
                            .collect(),
                    );
                    let text = format!("{inputs:?}");
                    assert_eq!(*by_inputs.entry(text).or_insert(key), key);
                    assert_eq!(*by_key.entry(key).or_insert_with(|| inputs.clone()), inputs);
                }
            }
        }
        assert!(by_key.len() > 100, "only {} distinct records", by_key.len());
    }

    /// The table-driven `Div` equals the direct mean of
    /// `ContentLine::distance` over the range's line pairs, bit for bit,
    /// for every range of up to 8 lines on testbed pages.
    #[test]
    fn div_table_is_exact() {
        let cfg = MseConfig::default();
        for engine in [0, 1, 6, 9] {
            let spec = mse_testbed::EngineSpec::generate(2006, engine);
            for q in 0..2 {
                let g = spec.page(q);
                let p = Page::from_html(&g.html, Some(&g.query));
                let lines = &p.rp.lines;
                let mut f = Features::new(&p, &cfg);
                for start in 0..p.n_lines() {
                    for end in start + 1..(start + 9).min(p.n_lines() + 1) {
                        let m = end - start;
                        let mut sum = 0.0;
                        for i in start..end {
                            for j in i + 1..end {
                                sum += lines[i].distance(&lines[j], cfg.u);
                            }
                        }
                        let direct = if m < 2 {
                            0.0
                        } else {
                            sum / (m * (m - 1) / 2) as f64
                        };
                        let table = f.div(Rec::new(start, end));
                        assert_eq!(
                            table.to_bits(),
                            direct.to_bits(),
                            "engine {engine} page {q} lines {start}..{end}: {table} vs {direct}"
                        );
                    }
                }
                // The table shares entries: lines fall into fewer classes.
                let classes = f.lines.as_ref().map_or(0, |t| t.classes.len());
                assert!(classes > 0 && classes < p.n_lines());
            }
        }
    }

    #[test]
    fn davgrs_foreign_record_far() {
        let p = page(concat!(
            "<body><div class=r><a href=1>Alpha one</a><br>first snippet</div>",
            "<div class=r><a href=2>Beta two</a><br>second snippet</div>",
            "<div class=r><a href=3>Gamma three</a><br>third snippet</div>",
            "<h3>Header line</h3></body>"
        ));
        let cfg = MseConfig::default();
        let mut f = Features::new(&p, &cfg);
        let section = recs(&[(0, 2), (2, 4), (4, 6)]);
        let header = Rec::new(6, 7);
        let d_foreign = f.davgrs(header, &section);
        let d_member = f.davgrs(section[0], &section[1..]);
        assert!(
            d_foreign > 3.0 * d_member.max(0.01),
            "foreign={d_foreign} member={d_member}"
        );
        assert_eq!(f.davgrs(header, &[]), f64::INFINITY);
    }
}
