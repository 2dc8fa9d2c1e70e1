//! The observability layer's externally visible contracts.
//!
//! Three things must hold for traces to be trustworthy artefacts:
//! the Chrome `traceEvents` export is schema-valid (balanced B/E pairs,
//! non-decreasing timestamps per tid — what `chrome://tracing` and
//! Perfetto require to load a file), span *structure* is deterministic
//! (same seed → same names/nesting/counts/virtual durations, at every
//! worker count, and untouched by untraced work running beside it), and
//! instrumentation never changes the science: the dataset and
//! crawl-ledger bytes are identical with tracing on and off.
//! Ring overflow must be accounted, never silent.

use langcrux::core::{build_dataset, build_dataset_with_ledger, PipelineOptions};
use langcrux::obs::chrome;
use langcrux::obs::trace::{self, TraceConfig, TraceReport};
use langcrux::webgen::{Corpus, CorpusConfig};
use serde_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};

const QUOTA: usize = 10;

fn options(threads: usize) -> PipelineOptions {
    PipelineOptions {
        quota: QUOTA,
        threads,
        ..PipelineOptions::default()
    }
}

/// Trace one full build on a fresh corpus (fresh so the lazy shard
/// builds are part of every run's structure, not just the first).
fn traced_build(seed: u64, threads: usize) -> TraceReport {
    let corpus = Corpus::build(CorpusConfig::small(seed, QUOTA));
    let session = trace::start(TraceConfig::default());
    let ds = build_dataset(&corpus, options(threads));
    let report = session.finish();
    assert!(!ds.is_empty(), "build produced no records");
    report
}

#[test]
fn chrome_export_is_schema_valid() {
    let report = traced_build(23, 2);
    let json = chrome::trace_events_json(&report);
    let doc: Value = serde_json::from_str(&json).expect("trace JSON parses");

    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "no events exported");

    // Balanced B/E pairs and non-decreasing ts, per tid — the loadability
    // contract of the Trace Event Format.
    let mut by_tid: Vec<(u64, i64, u64)> = Vec::new(); // (tid, open depth, last ts)
    let mut duration_events = 0usize;
    for event in events {
        let ph = event.get("ph").and_then(|v| v.as_str()).expect("ph");
        if ph == "M" {
            continue; // metadata events carry no ts ordering contract
        }
        assert!(ph == "B" || ph == "E", "unexpected phase {ph}");
        duration_events += 1;
        let tid = match event.get("tid") {
            Some(Value::UInt(t)) => *t,
            other => panic!("tid missing or non-integer: {other:?}"),
        };
        let ts = match event.get("ts") {
            Some(Value::UInt(t)) => *t,
            other => panic!("ts missing or non-integer: {other:?}"),
        };
        if ph == "B" {
            assert!(
                event.get("name").and_then(|v| v.as_str()).is_some(),
                "B event without a name"
            );
        }
        let entry = match by_tid.iter_mut().find(|(t, _, _)| *t == tid) {
            Some(entry) => entry,
            None => {
                by_tid.push((tid, 0, 0));
                by_tid.last_mut().unwrap()
            }
        };
        assert!(
            ts >= entry.2,
            "ts regressed on tid {tid}: {ts} < {}",
            entry.2
        );
        entry.2 = ts;
        entry.1 += if ph == "B" { 1 } else { -1 };
        assert!(entry.1 >= 0, "E without matching B on tid {tid}");
    }
    for (tid, depth, _) in &by_tid {
        assert_eq!(*depth, 0, "unbalanced B/E on tid {tid}");
    }
    assert_eq!(duration_events % 2, 0);

    // Every stage of the taxonomy that a RELIABLE build exercises shows up.
    let json_text = json;
    for stage in [
        "pipeline.build",
        "pipeline.probe_wave",
        "pipeline.verdict_replay",
        "pipeline.analyze_site",
        "pipeline.ledger_fold",
        "crawl.fetch",
        "crawl.extract",
        "webgen.render",
        "corpus.shard_build",
    ] {
        assert!(
            json_text.contains(stage),
            "stage {stage} missing from export"
        );
    }
}

#[test]
fn span_structure_deterministic_across_worker_counts_and_runs() {
    let reference = traced_build(23, 1).structure_digest();
    assert!(!reference.is_empty());
    // Repeat run, same worker count.
    assert_eq!(
        reference,
        traced_build(23, 1).structure_digest(),
        "run-to-run structure drift at 1 worker"
    );
    // Other worker counts, including 0 = one per core.
    for threads in [2, 3, 0] {
        assert_eq!(
            reference,
            traced_build(23, threads).structure_digest(),
            "worker count {threads} changed the span structure"
        );
    }
    // A different seed is a different crawl — the digest must move.
    assert_ne!(
        reference,
        traced_build(24, 1).structure_digest(),
        "digest is insensitive to the seed"
    );
}

#[test]
fn untraced_build_beside_traced_build_leaves_report_unchanged() {
    let solo = traced_build(23, 2).structure_digest();
    // A second thread keeps building its own corpus, untraced, for the
    // whole traced build: a session records only its own work.
    let traced_done = AtomicBool::new(false);
    let beside = std::thread::scope(|scope| {
        scope.spawn(|| loop {
            let corpus = Corpus::build(CorpusConfig::small(23, QUOTA));
            build_dataset(&corpus, options(1));
            if traced_done.load(Ordering::Acquire) {
                break;
            }
        });
        let report = traced_build(23, 2);
        traced_done.store(true, Ordering::Release);
        report
    });
    assert_eq!(
        solo,
        beside.structure_digest(),
        "an untraced build leaked into the traced report"
    );
}

#[test]
fn tracing_never_changes_dataset_or_ledger_bytes() {
    for threads in [1, 2] {
        let corpus = Corpus::build(CorpusConfig::small(37, QUOTA));
        let (plain_ds, plain_ledger) = build_dataset_with_ledger(&corpus, options(threads));

        let corpus = Corpus::build(CorpusConfig::small(37, QUOTA));
        let session = trace::start(TraceConfig::default());
        let (traced_ds, traced_ledger) = build_dataset_with_ledger(&corpus, options(threads));
        session.finish();

        assert_eq!(
            plain_ds.to_json().expect("plain dataset"),
            traced_ds.to_json().expect("traced dataset"),
            "tracing changed the dataset bytes at {threads} workers"
        );
        assert_eq!(
            plain_ledger.to_json().expect("plain ledger"),
            traced_ledger.to_json().expect("traced ledger"),
            "tracing changed the crawl-ledger bytes at {threads} workers"
        );
    }
}

#[test]
fn ring_overflow_is_accounted_never_silent() {
    let corpus = Corpus::build(CorpusConfig::small(23, QUOTA));
    // A ring far too small for a full build: spans beyond capacity must
    // be counted as dropped, not lost silently or written out of bounds.
    let session = trace::start(TraceConfig {
        capacity_per_worker: 8,
    });
    build_dataset(&corpus, options(1));
    let report = session.finish();

    assert!(report.dropped_spans > 0, "overflow not accounted");
    assert!(report.span_count() as usize <= 8 * report.workers.len());
    // The loss is surfaced everywhere a consumer could be misled: the
    // summary table and the Chrome export's metadata both carry it.
    let table = report.summary_table();
    assert!(table.contains("dropped"), "summary hides the drop count");
    let doc: Value =
        serde_json::from_str(&chrome::trace_events_json(&report)).expect("trace JSON parses");
    match doc.get("otherData").and_then(|v| v.get("dropped_spans")) {
        Some(Value::UInt(n)) => assert_eq!(*n, report.dropped_spans),
        other => panic!("dropped_spans missing from export metadata: {other:?}"),
    }
}
