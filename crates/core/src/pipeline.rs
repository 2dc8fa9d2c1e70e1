//! The end-to-end LangCrUX pipeline: corpus → selection → crawl → dataset.
//!
//! One call ([`build_dataset`]) reproduces the paper's Figure 1 flow:
//! country-by-country VPN-vantage crawls over CrUX-rank-ordered candidates,
//! the 50% native-content inclusion rule with next-candidate replacement,
//! accessibility-element extraction, filtering, label-language
//! classification, base audits and Kizuki rescoring.
//!
//! ## One engine
//!
//! [`build_dataset_with_ledger`] is the distributed build
//! ([`crate::dist::build_dataset_distributed`]) driven through an
//! in-process [`LocalExecutor`] that borrows the caller's corpus: `threads`
//! dispatcher threads run `(country, candidate-range)` work units, each
//! probing its candidates and analysing every qualifier. Two properties
//! make the bytes independent of the worker count:
//!
//! * **Probe purity** — a candidate's fetch outcome and composition verdict
//!   depend only on `(corpus seed, host, vantage)`, never on probe order,
//!   so units can run on any worker in any order.
//! * **Verdict replay** — the paper's sequential rank-order replacement
//!   walk is replayed over the probed verdicts afterwards, so selection
//!   stats, the chosen sites, and the shortfall accounting are identical
//!   to the sequential walk at every thread count.
//!
//! Record order is deterministic (study order, then rank order), and
//! `Dataset::to_json` output is byte-identical across runs and thread
//! counts — a tested invariant.
//!
//! ## Graceful degradation
//!
//! Every per-site analysis runs under the engine's one unwind guard (in
//! [`crate::dist::execute_unit`]): a panic while processing one site
//! poisons only that site — its host is listed in the run's
//! [`CrawlLedger`], it still counts as selected, and the rest of the unit
//! (and the build) proceeds untouched. A worker process contains a panic
//! the same way. [`build_dataset_with_ledger`] returns the ledger
//! alongside the dataset; both serialize byte-identically at every
//! worker count.

use crate::dataset::{
    Dataset, ElementRecord, ExtremeExample, MismatchExample, SiteGaps, SiteRecord, TextState,
};
use crate::dist::{build_dataset_distributed, DistOptions, LocalExecutor};
use crate::ledger::CrawlLedger;
use crate::selection::SelectedSite;
use langcrux_audit::{audit_page, gap_report, GapKind};
use langcrux_crawl::pool::default_threads;
use langcrux_crawl::{char_word_counts, BrowserConfig};
use langcrux_filter::classify;
use langcrux_kizuki::{page_language, Kizuki, ScreenReader};
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::Country;
use langcrux_langid::{classify_label, LabelLanguage};
use langcrux_webgen::Corpus;

/// Pipeline options.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Sites per country to select (the paper: 10,000).
    pub quota: usize,
    pub browser: BrowserConfig,
    /// Cap on captured extreme examples (Table 4).
    pub max_extreme_examples: usize,
    /// Cap on captured mismatch examples (Table 5).
    pub max_mismatch_examples: usize,
    /// Worker threads running the build's work units; 0 means one per core.
    pub threads: usize,
    /// Chaos hook: panic inside the analysis of any site whose host this
    /// predicate matches. Exercises the unwind guard; `None` in
    /// production.
    pub chaos_panic_host: Option<fn(&str) -> bool>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            quota: 1_000,
            browser: BrowserConfig::default(),
            max_extreme_examples: 40,
            max_mismatch_examples: 24,
            threads: 0,
            chaos_panic_host: None,
        }
    }
}

/// Build the dataset from a corpus.
pub fn build_dataset(corpus: &Corpus, options: PipelineOptions) -> Dataset {
    build_dataset_with_ledger(corpus, options).0
}

/// Build the dataset plus its degraded-run [`CrawlLedger`].
///
/// The ledger is folded from the same sequentially-replayed verdict
/// prefix that selects the sites, so its bytes — like the dataset's —
/// depend only on `(corpus seed, fault plan, quota)`, never on the
/// worker count.
pub fn build_dataset_with_ledger(
    corpus: &Corpus,
    options: PipelineOptions,
) -> (Dataset, CrawlLedger) {
    let threads = if options.threads == 0 {
        default_threads()
    } else {
        options.threads
    };
    let executor = LocalExecutor::borrowing(corpus).with_chaos_panic_host(options.chaos_panic_host);
    let dist = DistOptions {
        quota: options.quota,
        browser: options.browser,
        max_extreme_examples: options.max_extreme_examples,
        max_mismatch_examples: options.max_mismatch_examples,
        workers: threads,
        ..DistOptions::default()
    };
    let build = build_dataset_distributed(corpus, &executor, &dist)
        .expect("a build without halt_after_units never halts");
    (build.dataset, build.ledger)
}

/// Analyse one selected site: classify every accessibility element, audit,
/// and rescore. Example capture is uncapped here — the replay takes
/// examples in site order and truncates to the configured caps, which
/// reproduces the sequential "first N qualifying" capture exactly.
///
/// `gap_reader` is `Some` only on gap-enabled runs: the page's region
/// histograms are then classified into a translation-gap summary, with
/// the reader deciding which flagged regions a screen reader would
/// mispronounce versus skip.
///
/// `pub(crate)`: [`crate::dist::execute_unit`] runs it, under the unwind
/// guard, for each qualifying candidate of a work unit.
pub(crate) fn process_site(
    site: &SelectedSite,
    country: Country,
    kizuki: &Kizuki,
    gap_reader: Option<&ScreenReader>,
    extremes: &mut Vec<ExtremeExample>,
    mismatches: &mut Vec<MismatchExample>,
) -> SiteRecord {
    let native = country.target_language();
    let extract = &site.visit.extract;

    let mut elements = Vec::with_capacity(extract.elements.len());
    let mut mismatch_done = false;
    for element in &extract.elements {
        let state = if element.is_missing() {
            TextState::Missing
        } else if element.is_empty_text() {
            TextState::Empty
        } else {
            let text = element.content().expect("non-empty");
            let discard = classify(text);
            let label = classify_label(text, native);
            // Single fused pass; the old code walked the text once for
            // chars and again for words.
            let (chars, words) = char_word_counts(text);
            let (chars, words) = (chars as u32, words as u32);
            if chars > 1_000 {
                extremes.push(ExtremeExample {
                    host: site.plan.host.clone(),
                    country,
                    kind: element.kind,
                    chars,
                    words,
                    preview: text.chars().take(120).collect(),
                });
            }
            if !mismatch_done
                && element.kind == ElementKind::ImageAlt
                && discard.is_none()
                && label == LabelLanguage::English
                && site.visible_native_pct >= 90.0
            {
                mismatch_done = true;
                mismatches.push(MismatchExample {
                    host: site.plan.host.clone(),
                    country,
                    visible_native_pct: site.visible_native_pct,
                    alt_preview: text.chars().take(120).collect(),
                });
            }
            TextState::Present {
                chars,
                words,
                discard,
                label,
            }
        };
        elements.push(ElementRecord {
            kind: element.kind,
            state,
        });
    }

    let base = audit_page(extract);
    let kizuki_report = kizuki.evaluate(extract, &base);
    let gaps = gap_reader.and_then(|reader| {
        let report = gap_report(extract);
        if report.is_clean() {
            return None;
        }
        let speech = reader.gap_speech(&report, page_language(extract));
        let count = |kind: GapKind| report.regions.iter().filter(|g| g.kind == kind).count() as u32;
        Some(SiteGaps {
            regions: report.regions.len() as u32,
            chrome: count(GapKind::UntranslatedChrome),
            lang_attr: count(GapKind::LangAttrMismatch),
            fallback: count(GapKind::FallbackText),
            foreign_chars: report.foreign_chars as u64,
            mispronounced: speech.mispronounced,
            skipped: speech.skipped,
        })
    });
    SiteRecord {
        host: site.plan.host.clone(),
        country,
        rank: site.plan.rank,
        visible_native_pct: site.visible_native_pct,
        visible_english_pct: site.visible_english_pct,
        declared_lang: extract.declared_lang.clone(),
        elements,
        base_score: base.score,
        kizuki_score: kizuki_report.new_score,
        kizuki_eligible: Kizuki::figure6_eligible(&base),
        gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_webgen::CorpusConfig;

    fn tiny_dataset() -> Dataset {
        let corpus = Corpus::build(CorpusConfig::small(11, 25));
        build_dataset(
            &corpus,
            PipelineOptions {
                quota: 25,
                ..PipelineOptions::default()
            },
        )
    }

    #[test]
    fn dataset_covers_all_countries_at_quota() {
        let ds = tiny_dataset();
        assert_eq!(ds.countries().len(), 12);
        for country in Country::STUDY {
            let n = ds.in_country(country).count();
            assert_eq!(n, 25, "{country:?}");
        }
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.crawl_summaries.len(), 12);
    }

    #[test]
    fn records_have_scores_and_elements() {
        let ds = tiny_dataset();
        for record in &ds.records {
            assert!(
                (0.0..=100.0).contains(&record.base_score),
                "{}",
                record.host
            );
            assert!((0.0..=100.0).contains(&record.kizuki_score));
            assert!(record.kizuki_score <= record.base_score + 1e-9);
            assert!(record.visible_native_pct >= 50.0);
            assert!(!record.elements.is_empty());
        }
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = tiny_dataset();
        let b = tiny_dataset();
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.host, rb.host);
            assert_eq!(ra.base_score, rb.base_score);
            assert_eq!(ra.kizuki_score, rb.kizuki_score);
            assert_eq!(ra.elements, rb.elements);
        }
    }

    #[test]
    fn pipeline_output_independent_of_thread_count() {
        let corpus = Corpus::build(CorpusConfig::small(17, 12));
        let run = |threads: usize| {
            build_dataset(
                &corpus,
                PipelineOptions {
                    quota: 12,
                    threads,
                    ..PipelineOptions::default()
                },
            )
            .to_json()
            .expect("serialize")
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(0)); // 0 = one worker per core
    }

    #[test]
    fn parallel_selection_matches_sequential_walk() {
        use crate::selection::select_websites;
        let corpus = Corpus::build(CorpusConfig::small(29, 18));
        let ds = build_dataset(
            &corpus,
            PipelineOptions {
                quota: 18,
                ..PipelineOptions::default()
            },
        );
        for country in Country::STUDY {
            let (sites, stats) = select_websites(&corpus, country, 18, BrowserConfig::default());
            let summary = ds
                .crawl_summaries
                .iter()
                .find(|s| s.country_code == country.code())
                .expect("summary");
            assert_eq!(summary.attempted, stats.attempted, "{country:?}");
            assert_eq!(summary.selected, stats.selected, "{country:?}");
            assert_eq!(
                summary.rejected_threshold, stats.rejected_threshold,
                "{country:?}"
            );
            let hosts: Vec<&str> = ds.in_country(country).map(|r| r.host.as_str()).collect();
            let expected: Vec<&str> = sites.iter().map(|s| s.plan.host.as_str()).collect();
            assert_eq!(hosts, expected, "{country:?}");
        }
    }

    #[test]
    fn mismatch_examples_are_native_sites_with_english_alts() {
        let ds = tiny_dataset();
        for m in &ds.mismatch_examples {
            assert!(m.visible_native_pct >= 90.0);
            assert!(!m.alt_preview.is_empty());
        }
    }

    #[test]
    fn json_round_trip_of_real_dataset() {
        let ds = tiny_dataset();
        let json = ds.to_json().unwrap();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.records[0].elements, ds.records[0].elements);
    }
}
