//! Determinism of the build engine.
//!
//! The dataset is the paper's release artefact, so its bytes must not
//! depend on scheduling: `Dataset::to_json` has to be identical across
//! runs and across worker counts (1, 2, and one-per-core).
//!
//! The committed digests at the bottom pin the exact bytes of three small
//! gap-enabled builds (clean, HOSTILE, one poisoned site) and of one
//! gaps-off build under the default fault plan, so a change to the build
//! engine cannot move the dataset or ledger unnoticed.

use langcrux::core::{build_dataset, build_dataset_with_ledger, PipelineOptions};
use langcrux::lang::rng::fnv1a64;
use langcrux::lang::Country;
use langcrux::net::FaultPlan;
use langcrux::webgen::{Corpus, CorpusConfig};

fn dataset_json(corpus: &Corpus, quota: usize, threads: usize) -> String {
    build_dataset(
        corpus,
        PipelineOptions {
            quota,
            threads,
            ..PipelineOptions::default()
        },
    )
    .to_json()
    .expect("dataset serializes")
}

#[test]
fn to_json_identical_across_thread_counts_and_runs() {
    let corpus = Corpus::build(CorpusConfig::small(23, 15));
    let serial = dataset_json(&corpus, 15, 1);
    let countries = corpus.countries().count() as u64;
    assert_eq!(
        corpus.shard_stats().builds,
        countries,
        "a full build touches every country's shard"
    );
    // Repeat runs at the same thread count.
    assert_eq!(
        serial,
        dataset_json(&corpus, 15, 1),
        "run-to-run drift at 1 thread"
    );
    // Other worker counts, including 0 = one per core.
    for threads in [2, 3, 0] {
        assert_eq!(
            serial,
            dataset_json(&corpus, 15, threads),
            "thread count {threads} changed the dataset bytes"
        );
        assert_eq!(
            serial,
            dataset_json(&corpus, 15, threads),
            "run-to-run drift at {threads} threads"
        );
    }
    // Builds at 1, 2, 3 and one-per-core workers reuse the shards.
    assert_eq!(
        corpus.shard_stats().builds,
        countries,
        "a shard was built more than once"
    );
}

#[test]
fn rank_order_replacement_preserved_under_parallelism() {
    // Selected sites stay in CrUX rank order per country at every worker
    // count — the paper's walk, replayed over parallel probe verdicts.
    let corpus = Corpus::build(CorpusConfig::small(37, 10));
    for threads in [1, 4] {
        let ds = build_dataset(
            &corpus,
            PipelineOptions {
                quota: 10,
                threads,
                ..PipelineOptions::default()
            },
        );
        for country in Country::STUDY {
            let ranks: Vec<u64> = ds.in_country(country).map(|r| r.rank).collect();
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            assert_eq!(ranks, sorted, "{country:?} at {threads} threads");
        }
    }
}

/// FNV-1a over `Dataset::to_json` followed by `CrawlLedger::to_json`.
fn build_digest(corpus: &Corpus, options: PipelineOptions) -> u64 {
    let (dataset, ledger) = build_dataset_with_ledger(corpus, options);
    let dataset = dataset.to_json().expect("dataset serializes");
    let ledger = ledger.to_json().expect("ledger serializes");
    fnv1a64((dataset + &ledger).as_bytes())
}

/// A small gap-enabled corpus under `fault_plan`.
fn gapped_corpus(seed: u64, fault_plan: FaultPlan) -> Corpus {
    Corpus::build(CorpusConfig {
        gap_scenarios: true,
        fault_plan,
        ..CorpusConfig::small(seed, PINNED_QUOTA)
    })
}

const PINNED_QUOTA: usize = 12;

/// `PipelineOptions::default()` at the pinned quota.
fn pinned_options() -> PipelineOptions {
    PipelineOptions {
        quota: PINNED_QUOTA,
        ..PipelineOptions::default()
    }
}

/// Assert `digest` at one worker and at one per core.
fn assert_pinned(corpus: &Corpus, options: PipelineOptions, digest: u64, what: &str) {
    for threads in [1, 0] {
        let got = build_digest(corpus, PipelineOptions { threads, ..options });
        assert_eq!(
            got, digest,
            "{what}: dataset+ledger digest {got:#018x} moved at {threads} workers"
        );
    }
}

#[test]
fn pinned_digest_clean_gapped_build() {
    let corpus = gapped_corpus(61, FaultPlan::default());
    assert_pinned(&corpus, pinned_options(), 0x5cf9_3ed4_bd97_b4f3, "clean");
}

#[test]
fn pinned_digest_hostile_gapped_build() {
    let corpus = gapped_corpus(67, FaultPlan::HOSTILE);
    assert_pinned(&corpus, pinned_options(), 0x6b5f_7c2a_718f_3c24, "hostile");
}

/// The one host the poisoned pinned build panics on.
const POISONED_HOST: &str = "korpo-2.il";

fn poison_fixed_host(host: &str) -> bool {
    host == POISONED_HOST
}

#[test]
fn pinned_digest_poisoned_gapped_build() {
    let corpus = gapped_corpus(61, FaultPlan::default());
    let options = PipelineOptions {
        chaos_panic_host: Some(poison_fixed_host),
        ..pinned_options()
    };
    // The hook really fired: exactly the fixed host is poisoned.
    let (_, ledger) = build_dataset_with_ledger(&corpus, options);
    assert_eq!(ledger.totals.poisoned_sites, vec![POISONED_HOST]);
    assert_pinned(&corpus, options, 0xd1cf_a0ce_7af2_bc00, "poisoned");
}

#[test]
fn pinned_digest_gaps_off_default_plan_build() {
    // The historical corpus: no gap scenarios, the default fault plan.
    let corpus = langcrux_bench::build_corpus(31, langcrux_bench::Scale::Sites(8));
    let options = PipelineOptions {
        quota: 8,
        ..PipelineOptions::default()
    };
    assert_pinned(
        &corpus,
        options,
        0x1f16_ae0c_cdf5_d6f1,
        "gaps-off default-plan",
    );
}
