//! Ground truth for the translation-gap dimension.
//!
//! The webgen renderer reports exactly which partial-localisation
//! scenarios it planted ([`GapTruth`]); the streaming extract → gap
//! detection chain must recover them from raw HTML bytes. On top of the
//! plant-vs-measure sweep this file pins the dimension's two systemic
//! contracts: determinism (gap verdicts and gap ledger counters are
//! byte-identical at every worker count) and additivity (with the corpus
//! flag off, records carry no gap field and the ledger counts nothing —
//! the historical bytes are untouched).

use langcrux::audit::{gap_report, GapKind};
use langcrux::core::{build_dataset_with_ledger, PipelineOptions};
use langcrux::crawl::extract_streaming;
use langcrux::lang::script::Script;
use langcrux::lang::Country;
use langcrux::net::ContentVariant;
use langcrux::webgen::{render, Corpus, CorpusConfig, GapPlan, SitePlan};

/// Per-country sweep of gap-enabled plans, forced qualifying so the page's
/// dominant script is the native one (a page that is mostly English has no
/// "foreign" English to flag — those sites are the mixed-content story,
/// not the translation-gap one).
fn gapped_plans(n: u32) -> impl Iterator<Item = (Country, SitePlan)> {
    Country::STUDY.into_iter().flat_map(move |c| {
        (0..n).map(move |i| (c, SitePlan::build_gapped(0x6A7, c, i, Some(true), true)))
    })
}

#[test]
fn planted_gap_scenarios_are_recovered_from_raw_html() {
    let mut flagged_sites = 0u32;
    for (country, plan) in gapped_plans(12) {
        let (html, truth) = render(&plan, ContentVariant::Localized, "/");
        let report = gap_report(&extract_streaming(&html));
        let count = |kind: GapKind| report.regions.iter().filter(|g| g.kind == kind).count() as u32;

        // Explicit `lang` sections exist only where the plan put them, so
        // the mistagged count is exact; chrome and fallback detection can
        // additionally flag *incidental* all-English regions (an honest
        // signal, not a false positive), so those bounds are one-sided.
        assert_eq!(
            count(GapKind::LangAttrMismatch),
            truth.gaps.attr_mismatch,
            "{country:?}/{}: lang-attr gaps",
            plan.host
        );
        // Chrome/fallback detection measures English against the page's
        // *dominant* script. On a handful of sites the planted English
        // blocks themselves tip the page Latin-dominant — then English is
        // no longer "foreign" and the detector rightly stays quiet, so
        // those one-sided bounds only apply to native-dominant pages.
        let native_dominant =
            report.page_script.is_some() && report.page_script != Some(Script::Latin);
        if truth.gaps.chrome && native_dominant {
            assert!(
                count(GapKind::UntranslatedChrome) >= 2,
                "{country:?}/{}: planted English nav+footer not flagged: {report:?}",
                plan.host
            );
        }
        if native_dominant {
            assert!(
                count(GapKind::FallbackText) >= truth.gaps.fallback,
                "{country:?}/{}: planted fallback blocks not flagged: {report:?}",
                plan.host
            );
        }
        // The correctly-tagged `lang="en"` control *sections* must never
        // be flagged: tagged-and-true body markup is working multilingual
        // HTML. (Chrome is different — untranslated navigation is a gap
        // even when honestly tagged, so chrome regions may carry `en`.)
        assert!(
            !report
                .regions
                .iter()
                .any(|g| g.lang.as_deref() == Some("en") && g.kind != GapKind::UntranslatedChrome),
            "{country:?}/{}: a correctly-tagged control was flagged: {report:?}",
            plan.host
        );
        if truth.gaps.expected_gap_regions() > 0 && native_dominant {
            flagged_sites += 1;
            assert!(
                report.regions.len() as u32 >= truth.gaps.expected_gap_regions(),
                "{country:?}/{}: {} planted, {} flagged",
                plan.host,
                truth.gaps.expected_gap_regions(),
                report.regions.len()
            );
        }
    }
    // The 0x6A70 stream plants scenarios on roughly a third of sites; the
    // sweep must have exercised a healthy number of them.
    assert!(
        flagged_sites >= 20,
        "only {flagged_sites} gapped sites swept"
    );
}

#[test]
fn forced_fully_native_pages_report_zero_gaps() {
    // The zero-gap property needs *designed* full localisation: every
    // visible string native, correct declaration, no gap scenarios. (An
    // ordinary sampled plan is not enough — its chrome can come out
    // all-English by honest coincidence, which detection rightly flags.)
    for country in Country::STUDY {
        for i in 0..8 {
            let mut plan = SitePlan::build(0x60A1, country, i, Some(true));
            plan.visible_native_share = 1.0;
            plan.declares_lang = true;
            plan.declared_lang_wrong = false;
            plan.gaps = GapPlan::default();
            for path in ["/", "/about"] {
                let (html, _) = render(&plan, ContentVariant::Localized, path);
                let report = gap_report(&extract_streaming(&html));
                assert!(
                    report.is_clean(),
                    "{country:?}/{} {path}: fully-native page flagged: {report:?}",
                    plan.host
                );
            }
        }
    }
}

fn build(corpus: &Corpus, quota: usize, threads: usize) -> (String, String) {
    let (dataset, ledger) = build_dataset_with_ledger(
        corpus,
        PipelineOptions {
            quota,
            threads,
            ..PipelineOptions::default()
        },
    );
    (
        dataset.to_json().expect("dataset serializes"),
        ledger.to_json().expect("ledger serializes"),
    )
}

#[test]
fn gap_verdicts_are_byte_identical_at_every_worker_count() {
    let corpus = Corpus::build(CorpusConfig {
        gap_scenarios: true,
        ..CorpusConfig::small(29, 14)
    });
    let (dataset, ledger) = build(&corpus, 14, 1);
    // The gap dimension actually fired in this corpus …
    assert!(
        dataset.contains("\"gaps\":"),
        "no gap verdicts in the sweep"
    );
    assert!(ledger.contains("\"gap_pages\":"), "no gap ledger counters");
    // … and neither the verdicts nor the counters depend on scheduling.
    for threads in [2, 3, 0] {
        let (d, l) = build(&corpus, 14, threads);
        assert_eq!(dataset, d, "dataset bytes moved at {threads} workers");
        assert_eq!(ledger, l, "ledger bytes moved at {threads} workers");
    }
}

#[test]
fn disabled_gaps_leave_no_trace_at_any_worker_count() {
    // `gap_scenarios` defaults to off: the records must not carry even an
    // empty `gaps` field and the ledger must not emit the gap counters —
    // that absence is what keeps the historical oracle bytes intact.
    let corpus = Corpus::build(CorpusConfig::small(29, 10));
    for threads in [1, 3] {
        let (dataset, ledger) = build(&corpus, 10, threads);
        assert!(!dataset.contains("\"gaps\""), "gap field in disabled run");
        assert!(
            !ledger.contains("gap_pages"),
            "gap counters in disabled run"
        );
    }
}

#[test]
fn served_audit_gap_payload_matches_the_library_call() {
    use langcrux::serve::loadgen::post;
    use langcrux::serve::{spawn, AuditService, ServeConfig};

    // A gapped page straight from the generator, so the served verdict is
    // pinned against real corpus HTML rather than a hand-toy.
    let (country, plan) = gapped_plans(12)
        .find(|(_, p)| p.gaps.any_gap())
        .expect("a gapped plan in the sweep");
    let (html, _) = render(&plan, ContentVariant::Localized, "/");
    let service = AuditService::new();
    let oracle = service.audit_json(&html);
    let resp = service.audit(&html);
    assert!(!resp.gaps.is_clean(), "{country:?}/{}: no gaps", plan.host);
    assert_eq!(resp.gap_speech.regions, resp.gaps.regions.len() as u32);

    let server = spawn(ServeConfig::default()).expect("spawn");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut scratch = Vec::new();
    let (status, body) =
        post(&mut stream, "/v1/audit", html.as_bytes(), &mut scratch).expect("audit request");
    assert_eq!(status, 200);
    assert_eq!(body, oracle, "served gap payload drifted from the library");
    assert!(
        std::str::from_utf8(&body)
            .expect("utf8")
            .contains("\"gaps\":"),
        "served payload lacks the gap report"
    );
    server.shutdown();
}

/// CI oracle gate (ignored by default: builds the full `Scale::Default`
/// corpus). The RELIABLE Default dataset is the repo's historical release
/// oracle; with gap scenarios off its bytes must never move.
#[test]
#[ignore = "CI gate: builds the full Scale::Default RELIABLE dataset (~seconds in release)"]
fn reliable_default_oracle_digest_is_unchanged_with_gaps_off() {
    let (_, dataset, ledger) = langcrux_bench::build_scaled_dataset_with_plan(
        langcrux::lang::rng::DEFAULT_SEED,
        langcrux_bench::Scale::Default,
        langcrux::net::FaultPlan::RELIABLE,
    );
    let json = dataset.to_json().expect("dataset serializes");
    assert_eq!(dataset.len(), 4800, "record count moved");
    assert_eq!(json.len(), 35_207_595, "oracle byte length moved");
    assert_eq!(
        langcrux::lang::rng::fnv1a64(json.as_bytes()),
        0xadfa_e44d_552e_c564,
        "oracle FNV-1a digest moved"
    );
    // And the ledger of a gaps-off run carries no gap counters at all.
    let ledger_json = ledger.to_json().expect("ledger serializes");
    assert!(
        !ledger_json.contains("gap_"),
        "gap counters in the oracle run"
    );
}
