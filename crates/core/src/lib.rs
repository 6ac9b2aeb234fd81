//! # mse-core
//!
//! The MSE pipeline — *Multiple Section Extraction* from search engine
//! result pages (Zhao, Meng, Yu — VLDB 2006). Given ~5 sample result pages
//! of one search engine, [`Mse::build_with_queries`] learns a
//! [`SectionWrapperSet`] that extracts **all** dynamic sections and the
//! records inside each from any result page of that engine, preserving the
//! section→record relationship.
//!
//! Pipeline steps (paper §3) and their modules:
//!
//! | step | module | paper § |
//! |------|--------|---------|
//! | content lines | [`page`] (over `mse-render`) | §3 step 1 |
//! | multi-record sections | [`mre`] | §5.1 |
//! | CSBMs + dynamic sections | [`dse`] | §5.2 |
//! | MR/DS refinement | [`refine`] | §5.3 |
//! | record mining | [`mining`] | §5.4 |
//! | granularity repair | [`granularity`] | §5.5 |
//! | instance grouping | [`grouping`] | §5.6 |
//! | wrapper build/apply | [`wrapper`] | §5.7 |
//! | section families | [`family`] | §5.8 |
//! | measures (Formulas 3–7) | [`features`] | §4.3–4.4 |
//!
//! ```
//! use mse_core::{Mse, MseConfig};
//!
//! let page = |q: &str, items: &[&str]| {
//!     let mut h = format!("<body><h1>Seek</h1><p>Results for <b>{q}</b>: 9 hits</p>\
//!                          <h3>Web Results</h3><ul>");
//!     for (i, w) in items.iter().enumerate() {
//!         h.push_str(&format!("<li><a href=/d{i}>{w} title</a> - {w} text</li>"));
//!     }
//!     h.push_str("</ul><hr><p>Copyright Seek</p></body>");
//!     h
//! };
//! let samples = [
//!     (page("knee injury", &["alpha", "beta", "gamma"]), "knee injury"),
//!     (page("digital camera", &["red", "green", "blue", "teal"]), "digital camera"),
//! ];
//! let inputs: Vec<(&str, Option<&str>)> =
//!     samples.iter().map(|(h, q)| (h.as_str(), Some(*q))).collect();
//! let wrappers = Mse::new(MseConfig::default()).build_with_queries(&inputs).unwrap();
//!
//! let test = page("jazz festival", &["one", "two"]);
//! let extraction = wrappers.extract_with_query(&test, Some("jazz festival"));
//! assert_eq!(extraction.sections.len(), 1);
//! assert_eq!(extraction.sections[0].records.len(), 2);
//! ```

// Panic-free ingestion gate: untrusted HTML must never be able to abort
// the process. Tests keep their unwraps (they run on trusted fixtures).
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod cache;
pub mod compiled;
pub mod config;
pub mod dse;
pub mod error;
pub mod family;
pub mod features;
pub mod granularity;
pub mod grouping;
pub mod ingest;
pub mod maintenance;
pub mod mining;
pub mod mre;
pub mod page;
pub mod par;
pub mod pipeline;
pub mod refine;
pub mod section;
pub mod wrapper;

pub use cache::DistanceCache;
pub use compiled::{
    CollectSink, CompiledParts, CompiledRef, CompiledWrapperSet, ExtractScratch, RecordSink,
};
pub use config::{MiningMode, MseConfig, ResourceBudget};
pub use error::{Diagnostic, ExtractError, MseError, NoSectionsStage, Stage};
pub use family::FamilyWrapper;
pub use features::{Features, Rec};
pub use ingest::IngestScratch;
pub use maintenance::{
    score_on_holdout, shadow_relearn, DriftCounters, DriftThresholds, DriftTracker, DriftVerdict,
    HealthReport, HoldoutScore, RelearnError, RelearnOutcome, WrapperStatus,
};
pub use page::Page;
pub use pipeline::{
    analyze_pages, BuildError, ExtractedRecord, ExtractedSection, Extraction, Mse, SchemaId,
    SectionWrapperSet,
};
pub use section::SectionInst;
pub use wrapper::SectionWrapper;

/// Test helper re-export used by module tests.
#[doc(hidden)]
pub mod pipeline_steps_for_tests {
    pub use crate::pipeline::sections_of_pages;
}
