//! Paper-style table formatting (Tables 1–3), and the cells of all three
//! as one comparable value ([`PaperTables`]).

use crate::metrics::PageScore;
use crate::runner::CorpusScore;
use serde::{Deserialize, Serialize};

/// One formatted section-table row ("S pgs" / "T pgs" / "Total").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SectionRow {
    pub label: String,
    pub actual: usize,
    pub extracted: usize,
    pub perfect: usize,
    pub partial: usize,
    pub recall_perfect: f64,
    pub recall_total: f64,
    pub precision_perfect: f64,
    pub precision_total: f64,
}

impl SectionRow {
    pub fn from_score(label: &str, s: &PageScore) -> SectionRow {
        SectionRow {
            label: label.to_string(),
            actual: s.sections.actual,
            extracted: s.sections.extracted,
            perfect: s.sections.perfect,
            partial: s.sections.partial,
            recall_perfect: 100.0 * s.sections.recall_perfect(),
            recall_total: 100.0 * s.sections.recall_total(),
            precision_perfect: 100.0 * s.sections.precision_perfect(),
            precision_total: 100.0 * s.sections.precision_total(),
        }
    }
}

/// Render a section-extraction table (paper Tables 1/2 layout).
pub fn section_table(title: &str, rows: &[(&str, PageScore)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(
        "        #Actual  #Extracted  #Perfect  #Partial  | Recall%          | Precision%\n",
    );
    out.push_str(
        "                                                 | Perfect   Total  | Perfect   Total\n",
    );
    out.push_str(&"-".repeat(96));
    out.push('\n');
    for (label, s) in rows {
        let r = SectionRow::from_score(label, s);
        out.push_str(&format!(
            "{:<7} {:>7}  {:>10}  {:>8}  {:>8}  | {:>7.1}  {:>6.1}  | {:>7.1}  {:>6.1}\n",
            r.label,
            r.actual,
            r.extracted,
            r.perfect,
            r.partial,
            r.recall_perfect,
            r.recall_total,
            r.precision_perfect,
            r.precision_total,
        ));
    }
    out
}

/// One formatted record-table row (paper Table 3).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecordRow {
    pub label: String,
    pub actual: usize,
    pub extracted: usize,
    pub correct: usize,
    pub recall: f64,
    pub precision: f64,
}

impl RecordRow {
    pub fn from_score(label: &str, s: &PageScore) -> RecordRow {
        RecordRow {
            label: label.to_string(),
            actual: s.records.actual,
            extracted: s.records.extracted,
            correct: s.records.correct,
            recall: 100.0 * s.records.recall(),
            precision: 100.0 * s.records.precision(),
        }
    }
}

/// Render a record-extraction table (paper Table 3 layout).
pub fn record_table(title: &str, rows: &[(&str, PageScore)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str("        #Actual  #Extracted  #Correct  Recall%  Precision%\n");
    out.push_str(&"-".repeat(60));
    out.push('\n');
    for (label, s) in rows {
        let r = RecordRow::from_score(label, s);
        out.push_str(&format!(
            "{:<7} {:>7}  {:>10}  {:>8}  {:>7.1}  {:>10.1}\n",
            r.label, r.actual, r.extracted, r.correct, r.recall, r.precision,
        ));
    }
    out
}

/// Every row of Tables 1–3 for one corpus run, plus the engines whose
/// wrapper build failed. `results/paper_tables_2006.json` pins the
/// seed-2006 corpus; `table1 --write FILE` regenerates it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PaperTables {
    pub seed: u64,
    pub engines: usize,
    /// Table 1: section extraction, all engines.
    pub table1: Vec<SectionRow>,
    /// Table 2: section extraction, multi-section engines.
    pub table2: Vec<SectionRow>,
    /// Table 3: record extraction, all engines.
    pub table3: Vec<RecordRow>,
    pub failed_engines: Vec<usize>,
}

impl PaperTables {
    pub fn from_score(seed: u64, score: &CorpusScore) -> PaperTables {
        let labels = ["S pgs", "T pgs", "Total"];
        let (s, t, total) = score.all();
        let (ms, mt, mtotal) = score.multi_only();
        let (all, multi) = ([s, t, total], [ms, mt, mtotal]);
        let rows = |scores: &[PageScore; 3]| -> Vec<SectionRow> {
            labels
                .iter()
                .zip(scores)
                .map(|(l, s)| SectionRow::from_score(l, s))
                .collect()
        };
        PaperTables {
            seed,
            engines: score.outcomes.len(),
            table1: rows(&all),
            table2: rows(&multi),
            table3: labels
                .iter()
                .zip(&all)
                .map(|(l, s)| RecordRow::from_score(l, s))
                .collect(),
            failed_engines: score
                .outcomes
                .iter()
                .filter(|o| !o.built)
                .map(|o| o.engine_id)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{RecordCounts, SectionCounts};

    fn sample_score() -> PageScore {
        PageScore {
            sections: SectionCounts {
                actual: 1057,
                extracted: 1106,
                perfect: 899,
                partial: 136,
            },
            records: RecordCounts {
                actual: 9615,
                extracted: 9597,
                correct: 9490,
            },
        }
    }

    #[test]
    fn section_table_matches_paper_arithmetic() {
        // The paper's Table 1 "S pgs" row: 85.0 / 97.9 / 81.3 / 93.6.
        let s = sample_score();
        let r = SectionRow::from_score("S pgs", &s);
        assert!((r.recall_perfect - 85.0).abs() < 0.1, "{r:?}");
        assert!((r.recall_total - 97.9).abs() < 0.1);
        assert!((r.precision_perfect - 81.3).abs() < 0.1);
        assert!((r.precision_total - 93.6).abs() < 0.1);
    }

    #[test]
    fn record_table_matches_paper_arithmetic() {
        // Table 3 "S pgs": recall 98.7, precision 98.9.
        let s = sample_score();
        assert!((100.0 * s.records.recall() - 98.7).abs() < 0.1);
        assert!((100.0 * s.records.precision() - 98.9).abs() < 0.1);
    }

    #[test]
    fn paper_tables_hold_every_row() {
        let s = sample_score();
        let score = CorpusScore {
            outcomes: vec![crate::runner::EngineOutcome {
                engine_id: 7,
                multi: false,
                built: false,
                score: crate::runner::EngineScore { sample: s, test: s },
            }],
        };
        let t = PaperTables::from_score(2006, &score);
        assert_eq!(t.failed_engines, vec![7]);
        assert_eq!(t.table1[0], SectionRow::from_score("S pgs", &s));
        assert_eq!(t.table1[2].actual, 2 * 1057);
        assert!(t.table2.iter().all(|r| r.actual == 0));
        assert!((t.table3[0].recall - 98.7).abs() < 0.1);
        assert!((t.table3[0].precision - 98.9).abs() < 0.1);
    }

    #[test]
    fn tables_render() {
        let s = sample_score();
        let t = section_table("Table 1", &[("S pgs", s), ("Total", s)]);
        assert!(t.contains("Table 1"));
        assert!(t.contains("S pgs"));
        assert!(t.lines().count() >= 6);
        let t = record_table("Table 3", &[("S pgs", s)]);
        assert!(t.contains("98.7"));
    }
}
