//! Typed errors and extraction diagnostics for the MSE pipeline.
//!
//! Result pages are untrusted third-party HTML, so every ingestion path
//! is panic-free and resource-bounded (see
//! [`ResourceBudget`](crate::config::ResourceBudget)). The two halves of
//! the pipeline take different stances when a budget trips:
//!
//! * **Build** is strict: wrapper construction needs faithful sample
//!   pages, so a page that blows a budget fails the build with a
//!   [`BuildError::Page`] naming the offending input.
//! * **Extraction** degrades gracefully: the infallible `extract*` APIs
//!   return a partial (possibly empty) `Extraction` whose `diagnostics`
//!   record what was skipped or truncated, so one hostile page can never
//!   abort a batch. The `try_extract*` variants surface the same
//!   conditions as typed [`ExtractError`]s instead.
//!
//! [`MseError`] is the crate-spanning umbrella for callers (the CLI, the
//! testbed) that handle both halves with one error type.

use mse_dom::DomError;
use mse_render::RenderError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Pipeline stage a budget trip or deadline is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// HTML → DOM (tokenize + tree construction).
    Parse,
    /// DOM → content lines (layout simulation).
    Render,
    /// Steps 2–6: MRE, DSE, refinement, granularity.
    Analyze,
    /// Steps 7–9: grouping, wrapper build, families.
    Build,
    /// Wrapper application on a new page.
    Extract,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Parse => "parse",
            Stage::Render => "render",
            Stage::Analyze => "analyze",
            Stage::Build => "build",
            Stage::Extract => "extract",
        };
        f.write_str(s)
    }
}

/// A non-fatal degradation recorded on an [`Extraction`]: the pipeline
/// kept going, but the result may be partial.
///
/// [`Extraction`]: crate::pipeline::Extraction
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stage the degradation happened in.
    pub stage: Stage,
    /// Human-readable description of what was skipped or truncated.
    pub message: String,
}

impl Diagnostic {
    pub fn new(stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            stage,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.message)
    }
}

/// Extraction failure on a single page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtractError {
    /// The page was rejected by the parser's resource limits.
    Dom(DomError),
    /// The page was rejected by the renderer's line budget.
    Render(RenderError),
    /// The per-stage deadline expired.
    Deadline { stage: Stage },
}

impl ExtractError {
    /// The stage this failure is attributed to.
    pub fn stage(&self) -> Stage {
        match self {
            ExtractError::Dom(_) => Stage::Parse,
            ExtractError::Render(_) => Stage::Render,
            ExtractError::Deadline { stage } => *stage,
        }
    }
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::Dom(e) => write!(f, "page rejected by parser: {e}"),
            ExtractError::Render(e) => write!(f, "page rejected by renderer: {e}"),
            ExtractError::Deadline { stage } => {
                write!(f, "stage deadline expired during {stage}")
            }
        }
    }
}

impl std::error::Error for ExtractError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExtractError::Dom(e) => Some(e),
            ExtractError::Render(e) => Some(e),
            ExtractError::Deadline { .. } => None,
        }
    }
}

impl From<DomError> for ExtractError {
    fn from(e: DomError) -> ExtractError {
        ExtractError::Dom(e)
    }
}

impl From<RenderError> for ExtractError {
    fn from(e: RenderError) -> ExtractError {
        ExtractError::Render(e)
    }
}

/// The wrapper-build step after which no section was left (see
/// [`BuildError::NoSections`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoSectionsStage {
    /// Grouping: no section instance matched one on another sample page.
    Grouping,
    /// `build_wrapper` returned no wrapper for any instance group.
    BuildWrapper,
    /// Every wrapper's container was the page scaffolding (`<body>` or
    /// `<html>`).
    Scaffolding,
    /// Self-validation: no wrapper reproduced an analysed instance on two
    /// sample pages.
    SelfValidation,
}

impl fmt::Display for NoSectionsStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NoSectionsStage::Grouping => "grouping",
            NoSectionsStage::BuildWrapper => "build_wrapper",
            NoSectionsStage::Scaffolding => "the scaffolding-container filter",
            NoSectionsStage::SelfValidation => "self-validation",
        };
        f.write_str(s)
    }
}

/// Wrapper-construction failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// Fewer than two sample pages — DSE needs a pair.
    TooFewPages(usize),
    /// No certified section instance group was found; `stage` is the
    /// build step that left none.
    NoSections { stage: NoSectionsStage },
    /// The configuration violates its constraints.
    InvalidConfig(String),
    /// A sample page was rejected by a resource budget. Build is strict:
    /// wrappers learned from truncated samples would be silently wrong.
    Page { index: usize, source: ExtractError },
    /// The per-stage deadline expired.
    Deadline { stage: Stage },
    /// Static verification (the `mse-analyze` wrapper verifier) reported
    /// error-level findings and [`MseConfig::strict_verify`] is set. Core
    /// never produces this itself — the analyses live in `mse-analyze`,
    /// which constructs this variant so serving surfaces can refuse the
    /// set through the ordinary error channel.
    ///
    /// [`MseConfig::strict_verify`]: crate::config::MseConfig::strict_verify
    Verification { errors: usize, summary: String },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::TooFewPages(n) => {
                write!(f, "MSE needs at least 2 sample pages, got {n}")
            }
            BuildError::NoSections { stage } => {
                write!(
                    f,
                    "no certified section instances found (none left after {stage})"
                )
            }
            BuildError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            BuildError::Page { index, source } => {
                write!(f, "sample page {index} rejected: {source}")
            }
            BuildError::Deadline { stage } => {
                write!(f, "stage deadline expired during {stage}")
            }
            BuildError::Verification { errors, summary } => {
                write!(
                    f,
                    "wrapper set failed static verification: {errors} error-level finding(s): {summary}"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Page { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Crate-spanning error: any failure the MSE pipeline can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MseError {
    Build(BuildError),
    Extract(ExtractError),
}

impl fmt::Display for MseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MseError::Build(e) => write!(f, "wrapper build failed: {e}"),
            MseError::Extract(e) => write!(f, "extraction failed: {e}"),
        }
    }
}

impl std::error::Error for MseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MseError::Build(e) => Some(e),
            MseError::Extract(e) => Some(e),
        }
    }
}

impl From<BuildError> for MseError {
    fn from(e: BuildError) -> MseError {
        MseError::Build(e)
    }
}

impl From<ExtractError> for MseError {
    fn from(e: ExtractError) -> MseError {
        MseError::Extract(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source_chain() {
        let e = ExtractError::Dom(DomError::InputTooLarge { len: 10, max: 5 });
        assert!(e.to_string().contains("parser"));
        assert!(e.source().is_some());

        let b = BuildError::Page {
            index: 3,
            source: e.clone(),
        };
        assert!(b.to_string().contains("sample page 3"));
        assert!(b.source().is_some());

        let m: MseError = b.into();
        assert!(m.to_string().contains("wrapper build failed"));
        let m2: MseError = e.into();
        assert!(m2.to_string().contains("extraction failed"));
    }

    #[test]
    fn diagnostic_serde_round_trip() {
        let d = Diagnostic::new(Stage::Render, "line budget hit");
        let json = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
        assert_eq!(d.to_string(), "[render] line budget hit");
    }

    #[test]
    fn verification_variant_display() {
        let v = BuildError::Verification {
            errors: 2,
            summary: "sep-empty-set on wrapper 0; pref-empty on wrapper 1".into(),
        };
        let s = v.to_string();
        assert!(s.contains("static verification"));
        assert!(s.contains("2 error-level"));
        assert!(s.contains("sep-empty-set"));
        assert!(v.source().is_none());
    }

    #[test]
    fn no_sections_names_its_stage() {
        let b = BuildError::NoSections {
            stage: NoSectionsStage::BuildWrapper,
        };
        assert!(b.to_string().contains("no certified section instances"));
        assert!(b.to_string().contains("after build_wrapper"));
        let b = BuildError::NoSections {
            stage: NoSectionsStage::SelfValidation,
        };
        assert!(b.to_string().contains("after self-validation"));
    }

    #[test]
    fn deadline_variants_display_stage() {
        let e = ExtractError::Deadline {
            stage: Stage::Extract,
        };
        assert!(e.to_string().contains("extract"));
        let b = BuildError::Deadline {
            stage: Stage::Analyze,
        };
        assert!(b.to_string().contains("analyze"));
    }
}
