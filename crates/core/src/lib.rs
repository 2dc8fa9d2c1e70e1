//! # langcrux-core
//!
//! The LangCrUX measurement pipeline: the paper's methodology (Figure 1)
//! end-to-end, plus the statistics and analyses behind every table and
//! figure of the evaluation.
//!
//! ```text
//! candidate pool ──select_languages──▶ 12 language-country pairs
//! corpus (webgen) ──select_websites──▶ rank-ordered, threshold-verified sites
//!                 ──build_dataset────▶ Dataset (the LangCrUX release)
//! Dataset ──analysis::*──▶ Table 2/3/4/5, Figures 2–9, headline findings
//! ```
//!
//! * [`stats`] — summaries, CDFs, histograms, count grids.
//! * [`selection`] — the §2 inclusion criteria (languages and websites).
//! * [`pipeline`] — `build_dataset` (the build engine over in-process
//!   worker threads) and the per-site analysis: filter + classify +
//!   audit + Kizuki rescoring.
//! * [`ledger`] — the degraded-run ledger: per-country error taxonomy,
//!   retry/backoff/breaker accounting, replacement-chain depth.
//! * [`dist`] — the one build engine: wave planner, unwind-guarded work
//!   units, verdict replay, and the fault-tolerant coordinator
//!   (lease-based reassignment, checkpoint/resume) behind any transport,
//!   in-process or worker processes.
//! * [`dataset`] — the serializable LangCrUX data model.
//! * [`analysis`] — one function per paper artefact.
//! * [`render`] — plain-text rendering used by the `repro` harness.
//! * [`report`] — one-shot Markdown report over a whole dataset.

pub mod analysis;
pub mod dataset;
pub mod dist;
pub mod ledger;
pub mod pipeline;
pub mod render;
pub mod report;
pub mod selection;
pub mod stats;

pub use dataset::{Dataset, SiteGaps, SiteRecord, TextState};
pub use dist::{
    build_dataset_distributed, DistBuild, DistHalted, DistOptions, DistStats, LocalExecutor,
    UnitError, UnitExecutor, UnitRequest, WireBuildConfig, WorkerState,
};
pub use ledger::{CountryLedger, CrawlLedger, DegradedUnit, ErrorTaxonomy};
pub use pipeline::{build_dataset, build_dataset_with_ledger, PipelineOptions};
pub use report::markdown_report;
pub use selection::{select_languages, select_websites, LanguageVerdict};
