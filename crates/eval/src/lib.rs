//! # mse-eval
//!
//! Scoring harness reproducing the paper's §6 evaluation protocol:
//!
//! * per engine: build wrappers from the 5 *sample* pages, extract from all
//!   10 pages, score sample and test splits separately;
//! * a ground-truth section is **perfectly extracted** when the matched
//!   extracted section contains exactly its records (all extracted, none
//!   incorrect), and **partially correct** when more than 60% of its
//!   records are extracted;
//! * recall = correct sections / actual sections, precision = correct
//!   sections / extracted sections (and likewise at the record level,
//!   Table 3, computed inside perfectly + partially extracted sections).
//!
//! Records are compared by their exact content-line text sequences — the
//! test bed embeds unique ids in every record title so the comparison is
//! unambiguous (see `mse-testbed`).

// Panic-free and unsafe-free gates (see DESIGN.md §12): untrusted input
// must never abort the process, and the counting allocator in `mse-bench`
// is the workspace's only unsafe carve-out. Tests keep their unwraps.
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod metrics;
pub mod runner;
pub mod tables;

pub use metrics::{score_page, PageScore, RecordCounts, SectionCounts};
pub use runner::{run_corpus, score_engine, CorpusScore, EngineOutcome, EngineScore};
pub use tables::{record_table, section_table, PaperTables, RecordRow, SectionRow};
