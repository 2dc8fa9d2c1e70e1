//! # langcrux-webgen
//!
//! The synthetic multilingual web: a calibrated generator that stands in
//! for the 120,000 live websites of the paper's LangCrUX dataset.
//!
//! Every population statistic the paper reports is a *planted* parameter
//! here, quoted next to its value in [`calibration`]:
//!
//! * Table 2 — per-element missing/empty mixtures and label word ranges.
//! * Figure 2 — per-site visible native share (triangular per country).
//! * Figure 3 — per-country discard-category rates.
//! * Figure 4 — informative-label language aggregates (native/English/mixed).
//! * Figure 5 — the mismatch-site fraction per country.
//! * Figure 7 — CrUX-style log-triangular rank models (India's long tail).
//! * Figure 9 — per-element discard modulation.
//! * Appendix E — heavy-tailed extreme alt-text outliers (up to 260k chars).
//!
//! The measurement pipeline downstream never reads these tables: it must
//! recover the numbers from generated HTML fetched over the simulated
//! network, which is what makes the reproduction an end-to-end test of the
//! methodology rather than an echo of constants.
//!
//! * [`sample`] — mixtures/triangular/heavy-tail sampling.
//! * [`calibration`] — all paper-anchored parameters.
//! * [`site`] — per-site plans ([`site::SitePlan`]).
//! * [`page`] — deterministic HTML rendering + planted ground truth.
//! * [`corpus`] — rank-ordered candidates registered on the simulated
//!   internet ([`corpus::Corpus`]).

pub mod calibration;
pub mod corpus;
pub mod page;
pub mod sample;
pub mod site;

pub use corpus::{Corpus, CorpusConfig, ShardStats};
pub use page::{render, render_into, GapTruth, KindTruth, PageTruth, RenderScratch, ScratchPool};
pub use site::{Archetype, GapPlan, LangBucket, PlantedText, SitePlan};
