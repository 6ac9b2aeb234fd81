//! Grouping section instances of the same section schema (paper §5.6).
//!
//! Section instances from different sample pages are matched pairwise with
//! the stable marriage algorithm (score = weighted tag-path + SBM + format
//! similarity; pairs under a threshold never match), the matches form a
//! graph over all instances, and Bron–Kerbosch maximal cliques of size ≥ 2
//! become the *section instance groups* — one per section schema. Dangling
//! instances (no match on any other page) are dropped, exactly as the
//! paper certifies an MR "only if it matches with an MR in at least
//! another sample page".

use crate::cache::DistanceCache;
use crate::config::MseConfig;
use crate::features::{Features, Rec};
use crate::mre::common_parent;
use crate::page::Page;
use crate::section::SectionInst;
use mse_algos::{cliques_of_size, stable_marriage};
use mse_dom::CompactTagPath;
use mse_render::block::{dbt, dbta};
use mse_treedit::forest_distance;

/// Reference to one section instance: (page index, section index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InstanceRef {
    pub page: usize,
    pub idx: usize,
}

/// The container node of a section instance — the paper's minimum subtree
/// `t` holding all its records: the common parent of every record's forest
/// roots (NOT the cover of the whole span, which collapses one level too
/// high when the records tile their container exactly).
pub fn section_container(page: &Page, sec: &SectionInst) -> Option<mse_dom::NodeId> {
    let mut parent: Option<mse_dom::NodeId> = None;
    for r in &sec.records {
        let p = common_parent(page, *r)?;
        match parent {
            None => parent = Some(p),
            Some(q) if q == p => {}
            _ => return None,
        }
    }
    if parent.is_none() {
        // Record-less DS: fall back to the span cover.
        parent = common_parent(page, Rec::new(sec.start, sec.end));
    }
    parent
}

/// The parent of one record's forest roots, for over-lifted groups. A
/// record that covers its whole
/// container lifts to the container (or beyond — a one-record table lifts
/// to the `<table>`); drill back down through single-element-child chains
/// so that `<table>→<tbody>→<tr>` resolves the record to the `<tr>` and
/// the container to `<tbody>`, matching what multi-record instances of the
/// same schema produce.
pub fn record_parent_drilled(page: &Page, r: Rec) -> Option<mse_dom::NodeId> {
    let dom = &page.rp.dom;
    let roots = page.rp.forest_of_range(r.start, r.end);
    if roots.len() == 1 && dom[roots[0]].is_element() {
        let mut root = roots[0];
        // Descend through pure single-child container chains (table →
        // tbody → tr); stop at branching nodes, at nodes with their own
        // text, and before descending into inline content (an <a> is the
        // record's content, not a nested container).
        let inline = |tag: Option<&str>| {
            matches!(
                tag,
                Some("a")
                    | Some("b")
                    | Some("i")
                    | Some("em")
                    | Some("strong")
                    | Some("font")
                    | Some("span")
                    | Some("img")
                    | Some("small")
                    | Some("big")
                    | Some("u")
                    | Some("tt")
                    | Some("br")
                    | Some("input")
                    | Some("select")
            )
        };
        loop {
            let has_text = dom.children(root).any(|c| match &dom[c].kind {
                mse_dom::NodeKind::Text(t) => !t.trim().is_empty(),
                _ => false,
            });
            if has_text {
                break;
            }
            let kids: Vec<mse_dom::NodeId> = dom
                .children(root)
                .filter(|&c| dom[c].is_element())
                .collect();
            if kids.len() == 1 && !inline(dom[kids[0]].tag()) {
                root = kids[0];
            } else {
                break;
            }
        }
        return dom[root].parent;
    }
    common_parent(page, r)
}

/// Compact tag path of the section container.
pub fn container_path(page: &Page, sec: &SectionInst) -> Option<CompactTagPath> {
    let parent = section_container(page, sec)?;
    Some(CompactTagPath::to_node(&page.rp.dom, parent))
}

/// Matching score between two section instances on different pages.
pub fn match_score(
    cfg: &MseConfig,
    pa: &Page,
    sa: &SectionInst,
    pb: &Page,
    sb: &SectionInst,
) -> f64 {
    match_score_cached(cfg, pa, sa, pb, sb, &DistanceCache::disabled())
}

/// Per-instance inputs of [`match_score`] that do not depend on the
/// partner instance — the container path and the first record, whose tag
/// forest is lifted into the page's [`Features`]. The optimized engine
/// computes these once per instance instead of once per (instance,
/// instance) score evaluation.
struct InstanceCtx {
    path: Option<CompactTagPath>,
    first: Option<Rec>,
    /// Interned id of the first record's forest (the cross-page `dtf` memo
    /// key), keyed by the same root ids as `Drec`'s record keys.
    forest_id: Option<u32>,
}

fn instance_ctx(feats: &mut Features, sec: &SectionInst) -> InstanceCtx {
    let first = sec.records.first().copied();
    if let Some(r) = first {
        feats.ensure_forest(r);
    }
    InstanceCtx {
        path: container_path(feats.page, sec),
        first,
        forest_id: first.and_then(|r| feats.forest_id(r)),
    }
}

/// [`match_score`] with a shared distance memo (see [`DistanceCache`]).
pub fn match_score_cached(
    cfg: &MseConfig,
    pa: &Page,
    sa: &SectionInst,
    pb: &Page,
    sb: &SectionInst,
    cache: &DistanceCache,
) -> f64 {
    let mut fa = Features::with_cache(pa, cfg, cache);
    let mut fb = Features::with_cache(pb, cfg, cache);
    let ca = instance_ctx(&mut fa, sa);
    let cb = instance_ctx(&mut fb, sb);
    match_score_pre(cfg, &fa, sa, &ca, &fb, sb, &cb, cache)
}

/// Score from precomputed per-instance contexts.
#[allow(clippy::too_many_arguments)]
fn match_score_pre(
    cfg: &MseConfig,
    fa: &Features,
    sa: &SectionInst,
    ca: &InstanceCtx,
    fb: &Features,
    sb: &SectionInst,
    cb: &InstanceCtx,
    cache: &DistanceCache,
) -> f64 {
    let (w_path, w_sbm, w_fmt) = cfg.match_weights;
    let (pa, pb) = (fa.page, fb.page);

    // Tag-path similarity of the section containers.
    let path_sim = match (&ca.path, &cb.path) {
        (Some(a), Some(b)) if a.compatible(b) => 1.0 - a.dtp(b).min(1.0),
        _ => 0.0,
    };

    // SBM similarity: cleaned-text equality of LBM and RBM, averaged over
    // the markers both sides have.
    let marker_sim = |ma: Option<usize>, mb: Option<usize>| -> Option<f64> {
        match (ma, mb) {
            (Some(a), Some(b)) => Some(if pa.cleaned[a] == pb.cleaned[b] {
                1.0
            } else {
                0.0
            }),
            (None, None) => None,
            _ => Some(0.0),
        }
    };
    let marks: Vec<f64> = [marker_sim(sa.lbm, sb.lbm), marker_sim(sa.rbm, sb.rbm)]
        .into_iter()
        .flatten()
        .collect();
    let sbm_sim = if marks.is_empty() {
        0.5 // neither section has markers: neutral
    } else {
        marks.iter().sum::<f64>() / marks.len() as f64
    };

    // Format similarity: compare the first records across pages (tag
    // forest + block type + block attrs — the cross-page subset of Drec).
    let firsts = ca.first.zip(cb.first);
    let fmt_sim = match firsts.and_then(|(ra, rb)| Some((ra, fa.lifted(ra)?, rb, fb.lifted(rb)?))) {
        Some((ra, ta, rb, tb)) => {
            let dtf = match (ca.forest_id, cb.forest_id) {
                (Some(ka), Some(kb)) => cache.pair(ka, kb, || forest_distance(ta, tb)),
                _ => forest_distance(ta, tb),
            };
            let la = &pa.rp.lines[ra.start..ra.end];
            let lb = &pb.rp.lines[rb.start..rb.end];
            1.0 - (0.5 * dtf + 0.25 * dbt(la, lb) + 0.25 * dbta(la, lb))
        }
        None => 0.0,
    };

    w_path * path_sim + w_sbm * sbm_sim + w_fmt * fmt_sim
}

/// Group all pages' section instances into schema groups.
pub fn group_instances(
    pages: &[Page],
    sections: &[Vec<SectionInst>],
    cfg: &MseConfig,
) -> Vec<Vec<InstanceRef>> {
    group_instances_cached(pages, sections, cfg, &DistanceCache::disabled())
}

/// [`group_instances`] with a shared distance memo.
pub fn group_instances_cached(
    pages: &[Page],
    sections: &[Vec<SectionInst>],
    cfg: &MseConfig,
    cache: &DistanceCache,
) -> Vec<Vec<InstanceRef>> {
    let mut feats: Vec<Features> = pages
        .iter()
        .map(|p| Features::with_cache(p, cfg, cache))
        .collect();
    group_instances_with(&mut feats, sections, cfg, cache)
}

/// [`group_instances_cached`] against caller-owned per-page [`Features`]
/// (wrapper build lends the ones its analysis filled). Page pairs run in
/// order, and so do the edges they contribute.
pub(crate) fn group_instances_with(
    feats: &mut [Features],
    sections: &[Vec<SectionInst>],
    cfg: &MseConfig,
    cache: &DistanceCache,
) -> Vec<Vec<InstanceRef>> {
    // Flatten instances and remember offsets.
    let mut verts: Vec<InstanceRef> = Vec::new();
    let mut offset: Vec<usize> = Vec::new();
    for (p, secs) in sections.iter().enumerate() {
        offset.push(verts.len());
        verts.extend((0..secs.len()).map(|idx| InstanceRef { page: p, idx }));
    }

    // Per-instance contexts, once per instance. The reference engine
    // (cache disabled) recomputes them inside every score call instead.
    let ctxs: Vec<Vec<InstanceCtx>> = if cache.enabled() {
        feats
            .iter_mut()
            .zip(sections)
            .map(|(f, secs)| secs.iter().map(|sec| instance_ctx(f, sec)).collect())
            .collect()
    } else {
        Vec::new()
    };
    let feats: &[Features] = feats;

    // Stable marriage per page pair → edges.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for a in 0..feats.len() {
        for b in a + 1..feats.len() {
            if sections[a].is_empty() || sections[b].is_empty() {
                continue;
            }
            let matching = stable_marriage(
                sections[a].len(),
                sections[b].len(),
                |i, j| {
                    let (sa, sb) = (&sections[a][i], &sections[b][j]);
                    if cache.enabled() {
                        let (ca, cb) = (&ctxs[a][i], &ctxs[b][j]);
                        match_score_pre(cfg, &feats[a], sa, ca, &feats[b], sb, cb, cache)
                    } else {
                        match_score_cached(cfg, feats[a].page, sa, feats[b].page, sb, cache)
                    }
                },
                cfg.section_match_threshold,
            );
            edges.extend(
                matching
                    .iter()
                    .enumerate()
                    .filter_map(|(i, m)| m.map(|j| (offset[a] + i, offset[b] + j))),
            );
        }
    }

    cliques_of_size(verts.len(), &edges, 2)
        .into_iter()
        .map(|clique| clique.into_iter().map(|v| verts[v]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline_steps_for_tests::sections_of_pages;

    fn serp(main_words: &[&str], news: Option<&[&str]>, query: &str) -> String {
        let mut html = format!(
            "<body><h1>Seek</h1><p>Results for <b>{query}</b>: 99 found</p><h3>Web</h3><div class=results>"
        );
        for (i, w) in main_words.iter().enumerate() {
            html.push_str(&format!(
                "<div class=r><a href=/d{i}>{w} title</a><br>{w} snippet text</div>"
            ));
        }
        html.push_str("</div>");
        if let Some(items) = news {
            html.push_str("<h3>News</h3><ul>");
            for (i, w) in items.iter().enumerate() {
                html.push_str(&format!(
                    "<li><a href=/n{i}>{w} news item</a> - {w} brief</li>"
                ));
            }
            html.push_str("</ul>");
        }
        html.push_str("<hr><p>Copyright 2006 Seek Inc.</p></body>");
        html
    }

    #[test]
    fn two_schemas_grouped_across_three_pages() {
        let cfg = MseConfig::default();
        let htmls = [
            serp(
                &["alpha", "beta", "gamma", "delta"],
                Some(&["sun", "moon"]),
                "knee injury",
            ),
            serp(
                &["red", "green", "blue"],
                Some(&["rain", "wind", "snow"]),
                "digital camera",
            ),
            serp(
                &["one", "two", "three", "four", "five"],
                Some(&["hill", "lake"]),
                "jazz festival",
            ),
        ];
        let queries = ["knee injury", "digital camera", "jazz festival"];
        let (pages, sections) = sections_of_pages(&htmls, &queries, &cfg);
        let groups = group_instances(&pages, &sections, &cfg);
        // Two schemas, each with an instance on all three pages.
        assert_eq!(groups.len(), 2, "{groups:?} sections={sections:?}");
        for g in &groups {
            assert_eq!(g.len(), 3, "{groups:?}");
            let pages_in: Vec<usize> = g.iter().map(|r| r.page).collect();
            assert_eq!(pages_in, vec![0, 1, 2]);
        }
    }

    #[test]
    fn section_on_single_page_is_dangling() {
        let cfg = MseConfig::default();
        let htmls = [
            serp(
                &["alpha", "beta", "gamma"],
                Some(&["sun", "moon"]),
                "knee injury",
            ),
            serp(&["red", "green", "blue"], None, "digital camera"),
            serp(&["one", "two", "three"], None, "jazz festival"),
        ];
        let queries = ["knee injury", "digital camera", "jazz festival"];
        let (pages, sections) = sections_of_pages(&htmls, &queries, &cfg);
        let groups = group_instances(&pages, &sections, &cfg);
        // Only the main schema groups; the single News instance dangles.
        assert_eq!(groups.len(), 1, "{groups:?}");
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn match_score_higher_for_same_schema() {
        let cfg = MseConfig::default();
        let htmls = [
            serp(
                &["alpha", "beta", "gamma"],
                Some(&["sun", "moon"]),
                "knee injury",
            ),
            serp(
                &["red", "green", "blue"],
                Some(&["rain", "wind"]),
                "digital camera",
            ),
        ];
        let queries = ["knee injury", "digital camera"];
        let (pages, sections) = sections_of_pages(&htmls, &queries, &cfg);
        assert_eq!(sections[0].len(), 2);
        assert_eq!(sections[1].len(), 2);
        let same = match_score(&cfg, &pages[0], &sections[0][0], &pages[1], &sections[1][0]);
        let cross = match_score(&cfg, &pages[0], &sections[0][0], &pages[1], &sections[1][1]);
        assert!(same > cross, "same={same} cross={cross}");
        assert!(same > cfg.section_match_threshold);
    }
}
