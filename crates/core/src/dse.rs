//! DSE — dynamic section identification via candidate section boundary
//! markers (paper §5.2, Algorithm DSE in Figure 5).
//!
//! DSE works on a *pair* of pages: after cleaning dynamic components from
//! every content line, a line is a tentative CSBM if it and some line of
//! the other page are each other's *most compatible line* (same cleaned
//! text, compatible tag paths, smallest tag-path distance — a mutual-best
//! check that suppresses false matches). Tentative CSBMs that occur in all
//! records of an extracted MR are filtered out (the "Buy new: $XXX.XX"
//! trap). Runs of consecutive non-CSBM lines are the dynamic sections.
//!
//! With n > 2 sample pages the paper leaves aggregation open; we run all
//! pairs and keep lines marked in at least `csbm_vote_frac` of a page's
//! pairings.

use crate::cache::DistanceCache;
use crate::config::MseConfig;
use crate::page::Page;
use crate::section::SectionInst;
use std::collections::HashMap;

/// Per-page text index: interned cleaned-text id of every line (`None`
/// when the cleaned text is empty) plus id → line-indices (ascending).
/// Turns the most-compatible-line scan from O(lines) string comparisons
/// into one hash lookup over the handful of same-text candidates.
struct TextIndex {
    ids: Vec<Option<u32>>,
    by_id: HashMap<u32, Vec<usize>>,
}

fn text_index(cache: &DistanceCache, page: &Page) -> TextIndex {
    let ids: Vec<Option<u32>> = page
        .cleaned
        .iter()
        .map(|t| (!t.is_empty()).then(|| cache.intern(&format!("T|{t}"))))
        .collect();
    let mut by_id: HashMap<u32, Vec<usize>> = HashMap::new();
    for (l, id) in ids.iter().enumerate() {
        if let Some(id) = id {
            by_id.entry(*id).or_default().push(l);
        }
    }
    TextIndex { ids, by_id }
}

/// Per-page CSBM flags for a set of sample pages.
pub fn csbm_flags(pages: &[Page], mrs: &[Vec<SectionInst>], cfg: &MseConfig) -> Vec<Vec<bool>> {
    csbm_flags_cached(pages, mrs, cfg, &DistanceCache::disabled())
}

/// [`csbm_flags`] with a shared intern table. Votes are tallied in pair
/// order.
pub fn csbm_flags_cached(
    pages: &[Page],
    mrs: &[Vec<SectionInst>],
    cfg: &MseConfig,
    cache: &DistanceCache,
) -> Vec<Vec<bool>> {
    let n = pages.len();
    // The text index belongs to the optimized engine; without an enabled
    // cache each pair falls back to the reference full-scan matching.
    let indexes: Vec<TextIndex> = if cache.enabled() {
        pages.iter().map(|p| text_index(cache, p)).collect()
    } else {
        Vec::new()
    };
    let mut votes: Vec<Vec<usize>> = pages.iter().map(|p| vec![0; p.n_lines()]).collect();
    for i in 0..n {
        for j in i + 1..n {
            let (mi, mj) = if cache.enabled() {
                pair_csbms_indexed(&pages[i], &indexes[i], &pages[j], &indexes[j])
            } else {
                pair_csbms(&pages[i], &pages[j])
            };
            for l in mi {
                votes[i][l] += 1;
            }
            for l in mj {
                votes[j][l] += 1;
            }
        }
    }
    let need = if n <= 1 {
        1
    } else {
        (((n - 1) as f64) * cfg.csbm_vote_frac).ceil().max(1.0) as usize
    };
    let mut flags: Vec<Vec<bool>> = votes
        .into_iter()
        .map(|v| v.into_iter().map(|c| c >= need).collect())
        .collect();
    for (p, page) in pages.iter().enumerate() {
        filter_csbms(page, &mrs[p], &mut flags[p]);
    }
    flags
}

/// One pairwise DSE run (lines 3–9 of the paper's algorithm): returns the
/// tentative CSBM line indices of each page. This is the reference
/// implementation (full O(lines²) matching); [`csbm_flags_cached`] uses a
/// text index instead when the cache is enabled — identical results.
pub fn pair_csbms(p1: &Page, p2: &Page) -> (Vec<usize>, Vec<usize>) {
    let mc1: Vec<Option<usize>> = (0..p1.n_lines())
        .map(|l| find_most_compatible_scan(p1, l, p2))
        .collect();
    let mc2: Vec<Option<usize>> = (0..p2.n_lines())
        .map(|l| find_most_compatible_scan(p2, l, p1))
        .collect();
    let mut out1 = Vec::new();
    let mut out2 = Vec::new();
    for (l, &m) in mc1.iter().enumerate() {
        if let Some(m) = m {
            if mc2[m] == Some(l) {
                out1.push(l);
                out2.push(m);
            }
        }
    }
    (out1, out2)
}

/// Reference most-compatible-line: scan every line of `other`.
fn find_most_compatible_scan(page: &Page, line: usize, other: &Page) -> Option<usize> {
    let text = &page.cleaned[line];
    if text.is_empty() {
        return None;
    }
    let path = &page.rp.lines[line].path;
    let mut best: Option<(usize, f64)> = None;
    for (j, jt) in other.cleaned.iter().enumerate() {
        if jt != text {
            continue;
        }
        let jp = &other.rp.lines[j].path;
        if !path.compatible(jp) {
            continue;
        }
        let d = path.dtp(jp);
        match best {
            Some((_, bd)) if bd <= d => {}
            _ => best = Some((j, d)),
        }
    }
    best.map(|(j, _)| j)
}

fn pair_csbms_indexed(
    p1: &Page,
    i1: &TextIndex,
    p2: &Page,
    i2: &TextIndex,
) -> (Vec<usize>, Vec<usize>) {
    let mc1: Vec<Option<usize>> = (0..p1.n_lines())
        .map(|l| find_most_compatible(p1, i1, l, p2, i2))
        .collect();
    let mc2: Vec<Option<usize>> = (0..p2.n_lines())
        .map(|l| find_most_compatible(p2, i2, l, p1, i1))
        .collect();
    let mut out1 = Vec::new();
    let mut out2 = Vec::new();
    for (l, &m) in mc1.iter().enumerate() {
        if let Some(m) = m {
            if mc2[m] == Some(l) {
                out1.push(l);
                out2.push(m);
            }
        }
    }
    (out1, out2)
}

/// `find_most_compatible_line(l, L)`: the line of `other` with the same
/// cleaned text and a compatible tag path, minimizing the tag-path distance
/// `Dtp` (Formula 1). Lines whose cleaned text is empty never match.
fn find_most_compatible(
    page: &Page,
    index: &TextIndex,
    line: usize,
    other: &Page,
    other_index: &TextIndex,
) -> Option<usize> {
    let id = index.ids[line]?;
    let candidates = other_index.by_id.get(&id)?;
    let path = &page.rp.lines[line].path;
    let mut best: Option<(usize, f64)> = None;
    for &j in candidates {
        let jp = &other.rp.lines[j].path;
        if !path.compatible(jp) {
            continue;
        }
        let d = path.dtp(jp);
        match best {
            Some((_, bd)) if bd <= d => {}
            _ => best = Some((j, d)),
        }
    }
    best.map(|(j, _)| j)
}

/// `filter_CSBMs` (lines 10–11): drop a tentative CSBM whose cleaned text
/// occurs in (nearly) every record of some MR — such strings are record
/// content ("Buy new: $XXX.XX"), not boundaries. The paper says "all
/// member SRRs"; we require 70% because MR boundary records are themselves
/// unreliable (the paper's §5.1 lists the boundary problem first) — one
/// glitched record must not disable the filter for a whole section.
fn filter_csbms(page: &Page, mrs: &[SectionInst], flags: &mut [bool]) {
    for (l, flag) in flags.iter_mut().enumerate() {
        if !*flag {
            continue;
        }
        let text = &page.cleaned[l];
        for mr in mrs {
            if mr.records.len() < 2 {
                continue;
            }
            let holding = mr
                .records
                .iter()
                .filter(|r| (r.start..r.end).any(|i| &page.cleaned[i] == text))
                .count();
            let need = ((mr.records.len() as f64) * 0.7).ceil() as usize;
            if holding >= need.max(2) {
                *flag = false;
                break;
            }
        }
    }
}

/// `identify_DSs` (lines 12–13): maximal runs of consecutive non-CSBM
/// lines become candidate dynamic sections, with the neighbouring CSBMs as
/// LBM/RBM. Records are not yet identified.
pub fn identify_dss(page: &Page, flags: &[bool]) -> Vec<SectionInst> {
    let mut out = Vec::new();
    let n = page.n_lines();
    let mut i = 0;
    while i < n {
        if flags[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && !flags[i] {
            i += 1;
        }
        out.push(SectionInst {
            start,
            end: i,
            records: vec![],
            lbm: start.checked_sub(1),
            rbm: if i < n { Some(i) } else { None },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mre::mre;

    /// Two-page fixture: same template, different dynamic content.
    fn paged(records1: &[&str], records2: &[&str]) -> (Page, Page) {
        let mk = |records: &[&str], count: usize, query: &str| {
            let mut html = String::from("<body><h1>TestSeek</h1>");
            html.push_str(&format!(
                "<p>Your search for <b>{query}</b> returned {count} matches.</p>"
            ));
            html.push_str("<h3>Web Results</h3><div class=results>");
            for (i, r) in records.iter().enumerate() {
                html.push_str(&format!(
                    "<div class=r><a href=\"/d{i}\">{r}</a><br>snippet about {r}</div>"
                ));
            }
            html.push_str("</div><p><a href=\"/more\">Click Here for More</a></p>");
            html.push_str("<hr><p>Copyright 2006 TestSeek Inc.</p></body>");
            Page::from_html(&html, Some(query))
        };
        (
            mk(records1, 523, "knee injury"),
            mk(records2, 77, "digital camera"),
        )
    }

    #[test]
    fn template_lines_are_mutual_csbms() {
        let (p1, p2) = paged(
            &["alpha one", "beta two", "gamma three", "delta four"],
            &["epsilon five", "zeta six", "eta seven"],
        );
        let (c1, _c2) = pair_csbms(&p1, &p2);
        let texts: Vec<&str> = c1.iter().map(|&l| p1.rp.lines[l].text.as_str()).collect();
        assert!(texts.contains(&"TestSeek"), "{texts:?}");
        assert!(texts.iter().any(|t| t.contains("returned")), "{texts:?}");
        assert!(texts.contains(&"Web Results"));
        assert!(texts.contains(&"Click Here for More"));
        assert!(texts.iter().any(|t| t.contains("Copyright")));
    }

    #[test]
    fn record_lines_are_not_csbms() {
        let (p1, p2) = paged(
            &["alpha one", "beta two", "gamma three", "delta four"],
            &["epsilon five", "zeta six", "eta seven"],
        );
        let (c1, _) = pair_csbms(&p1, &p2);
        for &l in &c1 {
            let t = &p1.rp.lines[l].text;
            assert!(!t.contains("alpha") && !t.contains("snippet about"), "{t}");
        }
    }

    #[test]
    fn dss_cover_exactly_the_record_lines() {
        let (p1, p2) = paged(
            &["alpha one", "beta two", "gamma three", "delta four"],
            &["epsilon five", "zeta six", "eta seven"],
        );
        let cfg = MseConfig::default();
        let mrs = vec![mre(&p1, &cfg), mre(&p2, &cfg)];
        let pages = vec![p1, p2];
        let flags = csbm_flags(&pages, &mrs, &cfg);
        let dss = identify_dss(&pages[0], &flags[0]);
        // Exactly one DS: the 8 record lines (4 records × 2 lines).
        assert_eq!(dss.len(), 1, "{dss:?}");
        assert_eq!(dss[0].end - dss[0].start, 8);
        assert!(dss[0].lbm.is_some() && dss[0].rbm.is_some());
        // LBM is the section header line.
        assert_eq!(pages[0].rp.lines[dss[0].lbm.unwrap()].text, "Web Results");
        assert_eq!(
            pages[0].rp.lines[dss[0].rbm.unwrap()].text,
            "Click Here for More"
        );
    }

    #[test]
    fn repeated_record_string_filtered() {
        // "Buy new:" style trap: a line with identical cleaned text in all
        // records must not survive as CSBM.
        let mk = |offset: usize| {
            let mut html = String::from("<body><h3>Products</h3><table>");
            for i in 0..4 {
                html.push_str(&format!(
                    "<tr><td><a href=/p{i}>product {} {offset}</a></td><td>Buy new: ${}{i}.99</td></tr>",
                    ["red", "blue", "lime", "teal"][i],
                    offset + i
                ));
            }
            html.push_str("</table><hr></body>");
            Page::from_html(&html, None)
        };
        let p1 = mk(10);
        let p2 = mk(20);
        let cfg = MseConfig::default();
        let mrs = vec![mre(&p1, &cfg), mre(&p2, &cfg)];
        assert_eq!(mrs[0].len(), 1, "MRE should find the product table");
        let pages = vec![p1, p2];
        let flags = csbm_flags(&pages, &mrs, &cfg);
        for (l, &f) in flags[0].iter().enumerate() {
            if pages[0].rp.lines[l].text.starts_with("Buy new") {
                assert!(!f, "'Buy new' line {l} wrongly kept as CSBM");
            }
        }
    }

    #[test]
    fn single_page_has_no_csbms() {
        let p = Page::from_html("<body><p>x</p></body>", None);
        let cfg = MseConfig::default();
        let flags = csbm_flags(std::slice::from_ref(&p), &[vec![]], &cfg);
        assert!(flags[0].iter().all(|&f| !f));
        let dss = identify_dss(&p, &flags[0]);
        assert_eq!(dss.len(), 1);
        assert_eq!(dss[0].lbm, None);
        assert_eq!(dss[0].rbm, None);
    }

    #[test]
    fn hidden_section_absent_on_one_page() {
        // Page 1 has sections A+B, page 2 only A: B's header is not matched
        // (absent from p2) so B's lines form one DS bounded by A's RBM side.
        let mk = |with_b: bool, salt: &str| {
            let mut html = String::from("<body><h1>Seek</h1><h3>Alpha</h3><ul>");
            for i in 0..3 {
                html.push_str(&format!(
                    "<li><a href=/a{i}>item {} {salt}</a></li>",
                    ["x", "y", "z"][i]
                ));
            }
            html.push_str("</ul>");
            if with_b {
                html.push_str("<h3>Beta</h3><ul><li><a href=/b0>bee one</a></li><li><a href=/b1>bee two</a></li></ul>");
            }
            html.push_str("<hr></body>");
            Page::from_html(&html, None)
        };
        let p1 = mk(true, "red");
        let p2 = mk(false, "blue");
        let cfg = MseConfig::default();
        let mrs = vec![mre(&p1, &cfg), mre(&p2, &cfg)];
        let pages = vec![p1, p2];
        let flags = csbm_flags(&pages, &mrs, &cfg);
        let dss = identify_dss(&pages[0], &flags[0]);
        // On page 1, section B's header has no counterpart on page 2 so it
        // cannot be a CSBM; A's records, B's header and B's records fuse
        // into ONE dynamic section. Splitting it back apart is exactly the
        // job of the refinement step (§5.3, Case 3 — DS contains MRs).
        assert_eq!(dss.len(), 1, "{dss:?}");
        let ds = &dss[0];
        assert!(ds.end - ds.start >= 6, "{dss:?}");
        let b_header_line = pages[0]
            .rp
            .lines
            .iter()
            .position(|l| l.text == "Beta")
            .unwrap();
        assert!(
            !flags[0][b_header_line],
            "Beta header cannot be a CSBM — it is missing from page 2"
        );
    }
}

#[cfg(test)]
mod vote_tests {
    use super::*;
    use crate::mre::mre;

    fn page_with_optional_more(n_records: usize, words: &[&str], query: &str) -> Page {
        let mut html = format!(
            "<body><h1>VoteSeek</h1><p>Results for <b>{query}</b>: 12 found</p>\
             <h3>Web Results</h3><div class=results>"
        );
        for i in 0..n_records {
            let w = words[i % words.len()];
            html.push_str(&format!(
                "<div class=r><a href=/d{i}>{w} title {i_label}</a><br>{w} snippet body</div>",
                i_label = ["x", "y", "z", "q", "r", "s", "t"][i % 7]
            ));
        }
        html.push_str("</div>");
        if n_records > 5 {
            html.push_str("<p><a href=/more>Click Here for More</a></p>");
        }
        html.push_str("<hr><p>Copyright VoteSeek Inc.</p></body>");
        Page::from_html(&html, Some(query))
    }

    /// A semi-dynamic marker ("Click Here for More…", present only when a
    /// section has > 5 records) appearing on 3 of 4 pages wins 2 of its 3
    /// pairings and clears the default 0.5 vote fraction — the §2
    /// semi-dynamic phenomenon handled by majority voting.
    #[test]
    fn semi_dynamic_more_link_survives_majority_vote() {
        let cfg = MseConfig::default();
        let pages = vec![
            page_with_optional_more(7, &["alpha", "beta", "gamma"], "knee injury"),
            page_with_optional_more(6, &["red", "green", "blue"], "digital camera"),
            page_with_optional_more(8, &["one", "two", "three"], "jazz festival"),
            page_with_optional_more(4, &["sun", "moon", "star"], "climate report"),
        ];
        let mrs: Vec<_> = pages.iter().map(|p| mre(p, &cfg)).collect();
        let flags = csbm_flags(&pages, &mrs, &cfg);
        for (p, page) in pages.iter().enumerate().take(2) {
            let more_line = page
                .rp
                .lines
                .iter()
                .position(|l| l.text == "Click Here for More")
                .expect("more line present");
            assert!(
                flags[p][more_line],
                "page {p}: semi-dynamic more-link lost its CSBM status"
            );
        }
    }

    /// A line matched in only one of several pairings falls below the vote
    /// threshold.
    #[test]
    fn sporadic_match_rejected_by_vote() {
        let cfg = MseConfig::default();
        // "Lucky" appears as a record title on page 0 and page 1 only; with
        // 4 pages it wins 1 of 3 pairings — under the 0.5 fraction.
        let mk = |extra: Option<&str>, words: &[&str], query: &str| {
            let mut html = format!(
                "<body><h1>VoteSeek</h1><p>Results for <b>{query}</b>: 3 found</p>\
                 <h3>Web Results</h3><div class=results>"
            );
            for (i, w) in words.iter().enumerate() {
                html.push_str(&format!(
                    "<div class=r><a href=/d{i}>{w} title</a><br>{w} snippet body</div>"
                ));
            }
            if let Some(e) = extra {
                html.push_str(&format!(
                    "<div class=r><a href=/dx>{e}</a><br>unique snippet text</div>"
                ));
            }
            html.push_str("</div><hr><p>Copyright VoteSeek Inc.</p></body>");
            Page::from_html(&html, Some(query))
        };
        let pages = vec![
            mk(
                Some("Lucky Match"),
                &["alpha", "beta", "gamma"],
                "knee injury",
            ),
            mk(
                Some("Lucky Match"),
                &["red", "green", "blue"],
                "digital camera",
            ),
            mk(None, &["one", "two", "three"], "jazz festival"),
            mk(None, &["sun", "moon", "star"], "climate report"),
        ];
        let mrs: Vec<_> = pages.iter().map(|p| mre(p, &cfg)).collect();
        let flags = csbm_flags(&pages, &mrs, &cfg);
        let lucky = pages[0]
            .rp
            .lines
            .iter()
            .position(|l| l.text == "Lucky Match")
            .unwrap();
        assert!(
            !flags[0][lucky],
            "a 1-of-3-pairings match must not become a CSBM"
        );
    }
}
