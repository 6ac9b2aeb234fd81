//! MRE — multi-record section extraction (paper §5.1, revised from ViNTs).
//!
//! For one page: find repeating content-line patterns, partition the lines
//! they anchor into candidate records, verify each candidate section both
//! structurally (all record tag forests are siblings under one common
//! parent — the paper's wrapper requirement) and visually (similar record
//! blocks), then merge overlapping tentative MRs and keep the best of each
//! group. Unlike ViNTs, *every* group's best MR is kept, not just the
//! dominant one — that is the paper's stated difference.

use crate::cache::DistanceCache;
use crate::config::MseConfig;
use crate::features::{Features, Rec};
use crate::page::Page;
use crate::section::{overlap_frac, SectionInst};
use mse_dom::NodeId;
use mse_render::LineType;
use std::collections::{BTreeMap, HashSet};

/// A line signature: compact-path tag sequence + line type + position.
/// Records of one section start with lines sharing a signature. Borrows
/// the tag names from the page — signature grouping touches every line
/// and must not clone per-step `String`s.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Sig<'a> {
    tags: Vec<&'a str>,
    ltype: LineType,
    pos: i32,
}

fn sig_of(page: &Page, line: usize) -> Sig<'_> {
    let l = &page.rp.lines[line];
    Sig {
        tags: l.path.steps.iter().map(|s| s.tag.as_str()).collect(),
        ltype: l.ltype,
        pos: l.pos,
    }
}

/// Extract all multi-record sections from a page.
pub fn mre(page: &Page, cfg: &MseConfig) -> Vec<SectionInst> {
    mre_cached(page, cfg, &DistanceCache::disabled())
}

/// [`mre`] with a shared distance memo (see [`DistanceCache`]).
pub fn mre_cached(page: &Page, cfg: &MseConfig, cache: &DistanceCache) -> Vec<SectionInst> {
    mre_with(&mut Features::with_cache(page, cfg, cache))
}

/// [`mre`] against a caller-owned [`Features`] calculator (wrapper build
/// shares one per sample page across all its stages).
pub(crate) fn mre_with(feats: &mut Features) -> Vec<SectionInst> {
    let (page, cfg) = (feats.page, feats.cfg);
    let n = page.n_lines();
    if n == 0 {
        return vec![];
    }
    let sigs: Vec<Sig> = (0..n).map(|i| sig_of(page, i)).collect();

    // Group line indices by signature, preserving first-seen order.
    let mut keys: Vec<(Sig, Vec<usize>)> = Vec::new();
    {
        let mut index: std::collections::HashMap<&Sig, usize> = std::collections::HashMap::new();
        for (i, s) in sigs.iter().enumerate() {
            if let Some(&k) = index.get(s) {
                keys[k].1.push(i);
            } else {
                index.insert(s, keys.len());
                keys.push((s.clone(), vec![i]));
            }
        }
    }

    let mut tentative: Vec<SectionInst> = Vec::new();
    for (_sig, occs) in &keys {
        if occs.len() < cfg.min_pattern_repeat {
            continue;
        }
        // Split into runs of near-enough occurrences.
        let mut run: Vec<usize> = vec![occs[0]];
        let mut runs: Vec<Vec<usize>> = Vec::new();
        for &o in &occs[1..] {
            // `run` starts non-empty and never fully drains.
            if o - run.last().copied().unwrap_or(0) <= cfg.max_record_lines {
                run.push(o);
            } else {
                runs.push(std::mem::take(&mut run));
                run.push(o);
            }
        }
        runs.push(run);
        for r in runs {
            if r.len() < cfg.min_pattern_repeat {
                continue;
            }
            tentative.extend(candidates_from_run(page, cfg, feats, &sigs, &r));
        }
    }

    // Merge overlapping tentative MRs into groups (union-find).
    let m = tentative.len();
    let mut parent: Vec<usize> = (0..m).collect();
    fn find(p: &mut Vec<usize>, i: usize) -> usize {
        if p[i] != i {
            let r = find(p, p[i]);
            p[i] = r;
        }
        p[i]
    }
    for i in 0..m {
        for j in i + 1..m {
            if overlap_frac(tentative[i].span(), tentative[j].span()) >= cfg.mr_overlap_merge {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut by_group: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..m {
        let r = find(&mut parent, i);
        by_group.entry(r).or_default().push(i);
    }

    // Best MR per group: highest cohesion, ties toward more records.
    let mut out: Vec<SectionInst> = Vec::new();
    for (_, members) in by_group {
        let best = members
            .into_iter()
            .map(|i| {
                let c = feats.cohesion(&tentative[i].records);
                (i, c)
            })
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(
                        tentative[a.0]
                            .records
                            .len()
                            .cmp(&tentative[b.0].records.len()),
                    )
            });
        if let Some((i, _)) = best {
            out.push(tentative[i].clone());
        }
    }
    out.sort_by_key(|s| s.start);
    out
}

/// Build verified candidate MRs from one run of pattern-anchor lines.
fn candidates_from_run(
    page: &Page,
    cfg: &MseConfig,
    feats: &mut Features,
    sigs: &[Sig],
    run: &[usize],
) -> Vec<SectionInst> {
    // Records anchored at each occurrence; the i-th record spans to the
    // next anchor.
    let mut records: Vec<Rec> = run.windows(2).map(|w| Rec::new(w[0], w[1])).collect();
    // Last record: extend while following lines have signatures seen at
    // non-anchor offsets of earlier records.
    let mut allowed: HashSet<&Sig> = HashSet::new();
    for r in &records {
        allowed.extend(&sigs[r.start + 1..r.end]);
    }
    let max_gap = records.iter().map(Rec::len).max().unwrap_or(1);
    let Some(&last_start) = run.last() else {
        return vec![]; // callers pass runs of ≥ min_pattern_repeat anchors
    };
    let mut last_end = last_start + 1;
    while last_end < page.n_lines()
        && last_end - last_start < max_gap
        && allowed.contains(&sigs[last_end])
    {
        last_end += 1;
    }
    records.push(Rec::new(last_start, last_end));

    // Per-record structural parent; a record whose forest roots do not
    // share a parent is a boundary artifact and splits the run.
    let parents: Vec<Option<NodeId>> = records.iter().map(|r| common_parent(page, *r)).collect();

    let mut out = Vec::new();
    let mut i = 0;
    while i < records.len() {
        if parents[i].is_none() {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < records.len() && parents[j] == parents[i] {
            j += 1;
        }
        if j - i >= cfg.min_pattern_repeat {
            let slice = &records[i..j];
            // Visual similarity verification: mean consecutive distance,
            // evaluated under a budget so a clearly dissimilar run stops
            // paying for full distance computations early.
            let budget = cfg.mre_sim_threshold * (slice.len() - 1) as f64;
            let mut sum = 0.0;
            let mut similar = true;
            for w in slice.windows(2) {
                let d = feats.drec_bounded(w[0], w[1], budget - sum);
                if !d.is_finite() {
                    similar = false;
                    break;
                }
                sum += d;
            }
            if similar && sum <= budget {
                out.push(SectionInst::from_records(slice.to_vec()));
            }
        }
        i = j;
    }
    out
}

/// The common parent of all cover-forest roots of a record's lines, if any.
pub fn common_parent(page: &Page, r: Rec) -> Option<NodeId> {
    let roots = page.rp.forest_of_range(r.start, r.end);
    let mut parent: Option<NodeId> = None;
    for root in roots {
        let p = page.rp.dom[root].parent?;
        match parent {
            None => parent = Some(p),
            Some(q) if q == p => {}
            _ => return None,
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_mre(html: &str) -> (Page, Vec<SectionInst>) {
        let page = Page::from_html(html, None);
        let cfg = MseConfig::default();
        let out = mre(&page, &cfg);
        (page, out)
    }

    fn div_section(n: usize, with_snippet: bool) -> String {
        let mut s = String::from("<body><div class=results>");
        for i in 0..n {
            s.push_str(&format!(
                "<div class=r><a href=\"/d{i}\">Title number {}</a>",
                ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"][i % 6]
            ));
            if with_snippet {
                s.push_str(&format!(
                    "<br>snippet body {}",
                    ["one", "two", "three", "four", "five", "six"][i % 6]
                ));
            }
            s.push_str("</div>");
        }
        s.push_str("</div></body>");
        s
    }

    #[test]
    fn finds_uniform_div_section() {
        let (_, out) = run_mre(&div_section(5, true));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].records.len(), 5);
        assert!(out[0].records.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn finds_single_line_records() {
        let html = "<body><ol>\
            <li><a href=1>alpha result</a> - first</li>\
            <li><a href=2>beta result</a> - second</li>\
            <li><a href=3>gamma result</a> - third</li>\
            <li><a href=4>delta result</a> - fourth</li></ol></body>";
        let (_, out) = run_mre(html);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].records.len(), 4);
    }

    #[test]
    fn finds_table_row_records_with_cells() {
        let mut html = String::from("<body><table>");
        for i in 0..4 {
            html.push_str(&format!(
                "<tr><td width=30>{}.</td><td><a href=/i{i}>Item {}</a></td><td>3/4/2005</td></tr>",
                i + 1,
                ["red", "green", "blue", "teal"][i]
            ));
        }
        html.push_str("</table></body>");
        let (_, out) = run_mre(&html);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].records.len(), 4);
        assert!(out[0].records.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn ignores_sections_below_min_repeat() {
        let (_, out) = run_mre(&div_section(2, true));
        assert!(out.is_empty());
    }

    #[test]
    fn variable_length_records_handled() {
        // Records with and without the optional snippet line.
        let html = "<body><div class=results>\
            <div class=r><a href=1>alpha</a><br>snip one</div>\
            <div class=r><a href=2>beta</a></div>\
            <div class=r><a href=3>gamma</a><br>snip three</div>\
            <div class=r><a href=4>delta</a><br>snip four</div>\
            </div></body>";
        let (_, out) = run_mre(html);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].records.len(), 4);
        let lens: Vec<usize> = out[0].records.iter().map(Rec::len).collect();
        assert_eq!(lens, vec![2, 1, 2, 2]);
    }

    #[test]
    fn adjacent_same_format_sections_split_by_parent() {
        // Two div-sections with a header between them: the run of title
        // anchors crosses the header, but the boundary record has mixed
        // parents, so MRE must produce per-section MRs (or at least not one
        // merged monster).
        let mut html = String::from("<body>");
        for sec in 0..2 {
            html.push_str(&format!("<h3>Section {sec}</h3><div class=results>"));
            for i in 0..4 {
                html.push_str(&format!(
                    "<div class=r><a href=\"/s{sec}i{i}\">Title {} {}</a><br>body {}</div>",
                    ["a", "b", "c", "d"][i],
                    sec,
                    i
                ));
            }
            html.push_str("</div>");
        }
        html.push_str("</body>");
        let (_, out) = run_mre(&html);
        assert_eq!(out.len(), 2, "got {out:?}");
        assert!(out.iter().all(|s| s.records.len() >= 3));
    }

    #[test]
    fn static_nav_is_still_reported() {
        // MRE alone cannot tell static from dynamic — the nav trap IS
        // extracted here and must be discarded later by refinement (§5.3
        // Case 5). This pins the division of labor.
        let html = "<body><div class=nav>\
            <a href=/a>Alpha</a><br><a href=/b>Beta</a><br>\
            <a href=/c>Gamma</a><br><a href=/d>Delta</a><br></div></body>";
        let (_, out) = run_mre(html);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].records.len(), 4);
    }

    #[test]
    fn non_sibling_pairs_not_found_by_mre() {
        let html = "<body><div class=results>\
            <div class=pair><div class=r><a href=1>alpha</a><br>s1</div><div class=r><a href=2>beta</a><br>s2</div></div>\
            <div class=pair><div class=r><a href=3>gamma</a><br>s3</div><div class=r><a href=4>delta</a><br>s4</div></div>\
            <div class=pair><div class=r><a href=5>epsilon</a><br>s5</div><div class=r><a href=6>zeta</a><br>s6</div></div>\
            </div></body>";
        let (_, out) = run_mre(html);
        // Title anchors partition per record, but consecutive records share
        // a parent only in runs of two (< min_pattern_repeat), so MRE finds
        // nothing here — the paper's non-sibling failure mode. The section
        // is recovered later via DSE + record mining (see pipeline tests).
        assert!(out.is_empty(), "got {out:?}");
    }

    #[test]
    fn empty_page() {
        let (_, out) = run_mre("<body></body>");
        assert!(out.is_empty());
    }
}
