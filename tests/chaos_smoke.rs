//! Chaos smoke: the crawl engine must *finish* under the most hostile
//! fault plan the repo ships, account for every candidate it consumed,
//! and contain an injected per-site analysis panic to a single ledger
//! entry — no poisoned pool, no hung run, no silent data loss — with the
//! same outcome whichever executor ran the site.

use langcrux::core::dist::{build_dataset_distributed, DistOptions, LocalExecutor};
use langcrux::core::{build_dataset, build_dataset_with_ledger, CrawlLedger, PipelineOptions};
use langcrux::lang::{rng, Country};
use langcrux::net::FaultPlan;
use langcrux::webgen::{Corpus, CorpusConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

fn hostile_corpus(seed: u64, sites: usize) -> Corpus {
    Corpus::build(CorpusConfig {
        fault_plan: FaultPlan::HOSTILE,
        ..CorpusConfig::small(seed, sites)
    })
}

#[test]
fn hostile_run_completes_and_the_ledger_balances() {
    let corpus = hostile_corpus(23, 10);
    let (dataset, ledger) = build_dataset_with_ledger(
        &corpus,
        PipelineOptions {
            quota: 10,
            threads: 0,
            ..PipelineOptions::default()
        },
    );
    assert!(!dataset.is_empty(), "HOSTILE run produced no dataset");

    // Every candidate the replacement walk consumed is accounted for:
    // it was either selected or counted as a replacement, per country.
    for country_ledger in &ledger.countries {
        assert_eq!(
            country_ledger.attempted,
            country_ledger.selected + country_ledger.replacements,
            "{}: attempted != selected + replacements",
            country_ledger.country_code
        );
        assert_eq!(
            country_ledger.replacements,
            country_ledger.rejected_threshold + country_ledger.errors.total(),
            "{}: replacements don't decompose into rejections + errors",
            country_ledger.country_code
        );
        assert_eq!(
            country_ledger.retries,
            country_ledger.attempts - country_ledger.attempted,
            "{}: retries must be attempts beyond each visit's first",
            country_ledger.country_code
        );
        let country = Country::STUDY
            .iter()
            .find(|c| c.code() == country_ledger.country_code)
            .expect("ledger country is a study country");
        assert_eq!(
            country_ledger.selected as usize,
            dataset.in_country(*country).count(),
            "{}: ledger selected count disagrees with the dataset",
            country_ledger.country_code
        );
    }

    // The totals row is the exact sum of the per-country accounts.
    let mut expect_attempted = 0;
    let mut expect_errors = 0;
    let mut expect_virtual_ms = 0;
    for country_ledger in &ledger.countries {
        expect_attempted += country_ledger.attempted;
        expect_errors += country_ledger.errors.total();
        expect_virtual_ms += country_ledger.virtual_ms;
    }
    assert_eq!(ledger.totals.country_code, "total");
    assert_eq!(ledger.totals.attempted, expect_attempted);
    assert_eq!(ledger.totals.errors.total(), expect_errors);
    assert_eq!(ledger.totals.virtual_ms, expect_virtual_ms);

    // HOSTILE actually hurt: terminal errors, retries and backoff waits
    // all happened, and the run still completed.
    assert!(ledger.totals.errors.total() > 0, "no terminal errors");
    assert!(ledger.totals.retries > 0, "no retries under HOSTILE");
    assert!(ledger.totals.backoff_wait_ms > 0, "no backoff waits");
    assert!(ledger.totals.replacements > 0, "no replacement walks");
    assert!(ledger.totals.breaker_opened > 0, "no breaker ever tripped");
    assert!(ledger.totals.poisoned_sites.is_empty(), "nothing panicked");

    // The ledger is a release artefact: it round-trips through JSON.
    let json = ledger.to_json().expect("ledger serializes");
    assert_eq!(
        CrawlLedger::from_json(&json).expect("ledger parses"),
        ledger
    );
}

#[test]
fn hostile_metrics_count_every_fault_mode() {
    // Satellite of the fault-taxonomy work: after a HOSTILE build the
    // simulated internet's own counters show every expanded fault mode
    // actually fired — the taxonomy isn't dead configuration.
    let corpus = hostile_corpus(19, 10);
    let dataset = build_dataset(
        &corpus,
        PipelineOptions {
            quota: 10,
            threads: 0,
            ..PipelineOptions::default()
        },
    );
    assert!(!dataset.is_empty());
    let metrics = corpus.internet().metrics();
    assert!(metrics.requests > 0, "no requests recorded");
    assert!(metrics.bytes_served > 0, "no bytes served");
    assert!(metrics.timeouts > 0, "HOSTILE produced no timeouts");
    assert!(metrics.resets > 0, "HOSTILE produced no resets");
    assert!(metrics.server_errors > 0, "HOSTILE produced no 5xxs");
    assert!(
        metrics.truncated_bodies > 0,
        "HOSTILE produced no truncated bodies"
    );
    assert!(
        metrics.garbled_bodies > 0,
        "HOSTILE produced no garbled bodies"
    );
    assert!(
        metrics.slow_responses > 0,
        "HOSTILE produced no slow-host responses"
    );
}

/// Target host for the injected panic; `chaos_panic_host` takes a plain
/// fn pointer, so the test smuggles the dynamic choice through a static.
static POISON_TARGET: OnceLock<String> = OnceLock::new();

fn poison_target_host(host: &str) -> bool {
    POISON_TARGET.get().map(String::as_str) == Some(host)
}

#[test]
fn injected_panic_poisons_one_site_and_nothing_else() {
    let corpus = Corpus::build(CorpusConfig::small(91, 6));
    let options = PipelineOptions {
        quota: 6,
        threads: 0,
        ..PipelineOptions::default()
    };

    // Baseline: no chaos hook — note a selected host mid-run.
    let (baseline, baseline_ledger) = build_dataset_with_ledger(&corpus, options);
    let victim = baseline.records[baseline.records.len() / 2].host.clone();
    POISON_TARGET.set(victim.clone()).expect("set once");

    // Chaos run: the victim's analysis panics inside the worker pool.
    let (degraded, ledger) = build_dataset_with_ledger(
        &corpus,
        PipelineOptions {
            chaos_panic_host: Some(poison_target_host),
            ..options
        },
    );

    // Exactly one ledger entry names the victim; no other country lost
    // anything to the panic.
    assert_eq!(ledger.totals.poisoned_sites, vec![victim.clone()]);
    let poisoned_countries: Vec<&str> = ledger
        .countries
        .iter()
        .filter(|l| !l.poisoned_sites.is_empty())
        .map(|l| l.country_code.as_str())
        .collect();
    assert_eq!(poisoned_countries.len(), 1, "panic leaked across countries");

    // Selection was unaffected (the panic hits analysis, not probing):
    // per-country selected counts match the baseline ledger exactly.
    for (chaos, clean) in ledger.countries.iter().zip(&baseline_ledger.countries) {
        assert_eq!(chaos.selected, clean.selected, "{}", chaos.country_code);
        assert_eq!(chaos.attempted, clean.attempted, "{}", chaos.country_code);
    }

    // The dataset lost exactly the victim's records — every other record
    // survived byte-for-byte, in the same order.
    assert!(degraded.records.iter().all(|r| r.host != victim));
    let expect: Vec<_> = baseline
        .records
        .iter()
        .filter(|r| r.host != victim)
        .collect();
    let got: Vec<_> = degraded.records.iter().collect();
    assert_eq!(
        serde_json::to_string(&got).unwrap(),
        serde_json::to_string(&expect).unwrap(),
        "panic perturbed unrelated records"
    );
    assert!(degraded
        .extreme_examples
        .iter()
        .all(|example| example.host != victim));
    assert!(degraded
        .mismatch_examples
        .iter()
        .all(|example| example.host != victim));

    // And the degraded run is still deterministic: serial replay gives
    // the same bytes as the pool that contained the panic.
    let (serial, serial_ledger) = build_dataset_with_ledger(
        &corpus,
        PipelineOptions {
            threads: 1,
            chaos_panic_host: Some(poison_target_host),
            ..options
        },
    );
    assert_eq!(
        serial.to_json().unwrap(),
        degraded.to_json().unwrap(),
        "poisoned run not worker-count deterministic"
    );
    assert_eq!(
        serial_ledger.to_json().unwrap(),
        ledger.to_json().unwrap(),
        "poisoned ledger not worker-count deterministic"
    );

    // One panic policy on every executor: the coordinator driving a
    // `LocalExecutor` directly — with and without dispatch failures —
    // poisons the same site and produces the same bytes, and the panic
    // never surfaces as a lost or reassigned unit.
    for workers in [1, 2, 3] {
        for seeded_failures in [false, true] {
            let injected = Arc::new(AtomicU64::new(0));
            let mut executor =
                LocalExecutor::borrowing(&corpus).with_chaos_panic_host(Some(poison_target_host));
            if seeded_failures {
                let injected = Arc::clone(&injected);
                executor.fail = Some(Arc::new(move |key: &str, attempt: u32| {
                    let fail = attempt < (rng::stream_id(key) % 3) as u32;
                    injected.fetch_add(u64::from(fail), Ordering::SeqCst);
                    fail
                }));
            }
            let build = build_dataset_distributed(
                &corpus,
                &executor,
                &DistOptions {
                    quota: options.quota,
                    workers,
                    ..DistOptions::default()
                },
            )
            .expect("distributed build");
            let what = format!("workers = {workers}, seeded failures = {seeded_failures}");
            assert_eq!(
                build.dataset.to_json().unwrap(),
                degraded.to_json().unwrap(),
                "{what}"
            );
            assert_eq!(
                build.ledger.to_json().unwrap(),
                ledger.to_json().unwrap(),
                "{what}"
            );
            assert!(build.ledger.degraded_units.is_empty(), "{what}");
            assert_eq!(
                build.stats.reassignments,
                injected.load(Ordering::SeqCst),
                "{what}: reassignments beyond the injected failures"
            );
            assert_eq!(seeded_failures, build.stats.reassignments > 0, "{what}");
        }
    }
}
