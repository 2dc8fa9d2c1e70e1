//! Wall-clock measurement of the pipeline hot path and the
//! `BENCH_pipeline.json` emitter behind `repro --bench-json`.
//!
//! The report times the fused single-pass engine at one or more scales,
//! plus per-page render, per-visit extraction, and the resilience, tracing
//! and distributed-coordinator records. Regenerate with:
//!
//! ```text
//! cargo run --release -p langcrux-bench --bin repro -- --bench-json
//! ```

use crate::{build_corpus, build_corpus_with_plan, Scale};
use langcrux_core::dist::{build_dataset_distributed, DistOptions, LocalExecutor, WireBuildConfig};
use langcrux_core::{build_dataset, build_dataset_with_ledger, PipelineOptions};
use langcrux_crawl::{default_threads, extract, extract_streaming, BrowserConfig};
use langcrux_html::parse;
use langcrux_lang::rng;
use langcrux_lang::Country;
use langcrux_net::{ContentVariant, FaultPlan};
use langcrux_webgen::{render, render_into, RenderScratch, SitePlan};
use serde::Serialize;
use std::time::Instant;

/// Pipeline wall-clock for one scale.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleTiming {
    pub scale: String,
    pub sites_per_country: usize,
    /// Fused single-pass engine, one dispatcher thread per core,
    /// milliseconds.
    pub fused_ms: f64,
    /// Records produced.
    pub records: usize,
}

/// Wall-clock of the fused pipeline at one fixed worker count, which
/// isolates the parallel share of the build time.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerTiming {
    pub workers: usize,
    pub fused_ms: f64,
    /// Speedup of this worker count over the single-worker run.
    pub speedup_vs_one_worker: f64,
}

/// The `BENCH_pipeline.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineBenchReport {
    pub bench: String,
    pub seed: u64,
    /// Commit the producing binary was built from.
    pub git_sha: String,
    /// Worker threads the fused pipeline used (= available cores).
    pub threads: usize,
    /// Hardware parallelism of the machine that produced the numbers.
    pub available_cores: usize,
    pub timings: Vec<ScaleTiming>,
    /// Fused-pipeline wall-clock per worker count at the first scale
    /// (empty on single-core hosts, where extra workers cannot contribute).
    pub worker_scaling: Vec<WorkerTiming>,
    /// Per-visit extraction: streaming tokenize→extract vs DOM
    /// materialisation (the PR-3 crawl-path win, isolated).
    pub stream_vs_dom: StreamVsDomTiming,
    /// Per-page generation through the pooled render arena.
    pub render: RenderTiming,
    /// Resilience machinery cost on a clean network, plus a HOSTILE-plan
    /// degraded run's ledger headline numbers.
    pub resilience: ResilienceRecord,
    /// Span-tracing cost and coverage: the same build with the trace
    /// session on vs off (CI gates `trace_overhead` at ≤ 1.03).
    pub observability: ObservabilityRecord,
    /// Distributed-coordinator cost and recovery at the first scale
    /// (CI gates `efficiency` at ≥ 0.25).
    pub distributed: DistributedRecord,
    pub notes: String,
}

/// Cost and recovery behaviour of the fault-tolerant distributed build,
/// at one scale.
///
/// Timed against the in-process [`LocalExecutor`] (which rebuilds its
/// own corpus from the wire config, exactly as a worker process would),
/// so the record isolates *coordination* cost — wave planning, unit
/// dispatch, backoff accounting, sequential verdict replay — from
/// process-spawn and HTTP-transport cost, which vary with the host.
/// `efficiency` is `single_process_ms / distributed_ms`; CI gates it at
/// ≥ 0.25 (coordination may cost at most 4× the plain build at smoke
/// scale). Both sides run the same engine, so the ratio isolates what a
/// rebuilt corpus and a fixed two-worker count cost against the
/// borrowed corpus and one worker per core. The
/// chaos run re-times the same build under a seeded kill schedule and
/// must still produce the oracle bytes (asserted before recording).
#[derive(Debug, Clone, Serialize)]
pub struct DistributedRecord {
    pub scale: String,
    pub sites_per_country: usize,
    /// Worker slots the coordinator drove.
    pub workers: usize,
    /// Single-process `build_dataset_with_ledger`, milliseconds.
    pub single_process_ms: f64,
    /// Distributed coordinator over the in-process executor, ms.
    pub distributed_ms: f64,
    /// `single_process_ms / distributed_ms` — CI-gated ≥ 0.25.
    pub efficiency: f64,
    /// Work units the coordinator planned / probe waves it ran.
    pub units: u64,
    pub waves: u64,
    /// The same build under a seeded kill schedule, milliseconds.
    pub chaos_ms: f64,
    /// Kills the schedule injected (each one a reassignment).
    pub chaos_reassignments: u64,
}

/// Measure [`DistributedRecord`] at one scale.
pub fn distributed_timing(seed: u64, scale: Scale) -> DistributedRecord {
    let quota = scale.sites_per_country();
    let corpus = build_corpus(seed, scale);
    let options = PipelineOptions {
        quota,
        ..PipelineOptions::default()
    };

    let mut single_process_ms = f64::INFINITY;
    let mut oracle = (String::new(), String::new());
    for _ in 0..RUNS {
        let start = Instant::now();
        let (ds, ledger) = build_dataset_with_ledger(&corpus, options);
        single_process_ms = single_process_ms.min(start.elapsed().as_secs_f64() * 1e3);
        oracle = (ds.to_json().unwrap(), ledger.to_json().unwrap());
    }

    let config = WireBuildConfig::of(&corpus, BrowserConfig::default());
    let executor = LocalExecutor::new(&config);
    let dist_options = DistOptions {
        quota,
        workers: 2,
        ..DistOptions::default()
    };
    let mut distributed_ms = f64::INFINITY;
    let mut stats = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let build =
            build_dataset_distributed(&corpus, &executor, &dist_options).expect("dist build");
        distributed_ms = distributed_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            (
                build.dataset.to_json().unwrap(),
                build.ledger.to_json().unwrap()
            ),
            oracle,
            "distributed build diverged from the single-process oracle"
        );
        stats = Some(build.stats);
    }
    let stats = stats.expect("at least one distributed run");

    // Chaos pass: every unit dies up to twice on a seeded schedule; the
    // recovered bytes must still equal the oracle.
    let chaos_executor = LocalExecutor::with_failures(&config, |key, attempt| {
        attempt < (rng::stream_id(key) % 3) as u32
    });
    let start = Instant::now();
    let chaos =
        build_dataset_distributed(&corpus, &chaos_executor, &dist_options).expect("chaos build");
    let chaos_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        (
            chaos.dataset.to_json().unwrap(),
            chaos.ledger.to_json().unwrap()
        ),
        oracle,
        "chaos-disturbed build diverged from the single-process oracle"
    );

    DistributedRecord {
        scale: scale_name(scale),
        sites_per_country: quota,
        workers: dist_options.workers,
        single_process_ms,
        distributed_ms,
        efficiency: single_process_ms / distributed_ms.max(1e-9),
        units: stats.units_planned,
        waves: stats.waves,
        chaos_ms,
        chaos_reassignments: chaos.stats.reassignments,
    }
}

/// Cost and coverage of the span-tracing layer, at one scale.
///
/// `trace_overhead` is the ratio of a full traced build (session active,
/// every stage span recorded into the per-worker rings) to the identical
/// untraced build on the same corpus — CI gates it at ≤ 1.03. The traced
/// run must also reproduce the untraced dataset byte-for-byte (asserted
/// before timing), so the record doubles as the determinism contract's
/// bench-side witness.
#[derive(Debug, Clone, Serialize)]
pub struct ObservabilityRecord {
    pub scale: String,
    pub sites_per_country: usize,
    /// `build_dataset` with tracing disabled (the default), milliseconds.
    pub disabled_ms: f64,
    /// The same build inside an active trace session, milliseconds.
    pub enabled_ms: f64,
    /// `enabled_ms / disabled_ms` — the tracing tax, CI-gated ≤ 1.03.
    pub trace_overhead: f64,
    /// Spans the traced run recorded across all workers.
    pub spans: usize,
    /// Ring-overflow drops in the traced run (0 at default capacity).
    pub dropped_spans: u64,
    /// Distinct stage names the traced run covered, sorted.
    pub stages: Vec<String>,
}

/// Measure [`ObservabilityRecord`] at one scale.
pub fn observability_timing(seed: u64, scale: Scale) -> ObservabilityRecord {
    use langcrux_obs::trace;

    let corpus = build_corpus(seed, scale);
    let options = PipelineOptions {
        quota: scale.sites_per_country(),
        ..PipelineOptions::default()
    };

    // Determinism contract: a traced build yields the same dataset bytes
    // as the untraced one (checked once, outside the timed spans).
    let untraced = build_dataset(&corpus, options);
    let session = trace::start(trace::TraceConfig::default());
    let traced = build_dataset(&corpus, options);
    let probe_report = session.finish();
    assert_eq!(
        untraced.to_json().expect("serialize untraced"),
        traced.to_json().expect("serialize traced"),
        "tracing changed the dataset bytes"
    );

    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    let mut report = probe_report;
    // One extra run over the standard RUNS: the ratio gates CI at 3%,
    // so it needs the noise floor of min-of-3.
    for _ in 0..RUNS.max(3) {
        let start = Instant::now();
        let ds = build_dataset(&corpus, options);
        disabled_ms = disabled_ms.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(ds.len());

        let session = trace::start(trace::TraceConfig::default());
        let start = Instant::now();
        let ds = build_dataset(&corpus, options);
        enabled_ms = enabled_ms.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(ds.len());
        report = session.finish();
    }

    ObservabilityRecord {
        scale: scale_name(scale),
        sites_per_country: scale.sites_per_country(),
        disabled_ms,
        enabled_ms,
        trace_overhead: enabled_ms / disabled_ms.max(1e-9),
        spans: report.span_count() as usize,
        dropped_spans: report.dropped_spans,
        stages: report
            .stage_names()
            .into_iter()
            .map(str::to_string)
            .collect(),
    }
}

/// Cost and behaviour of the resilient crawl engine, at one scale.
///
/// `fault_free_ms` times the ledger-folding build on a RELIABLE corpus;
/// the `hostile_*` fields summarize a full degraded run under
/// [`FaultPlan::HOSTILE`] from its [`CrawlLedger`].
///
/// [`CrawlLedger`]: langcrux_core::CrawlLedger
#[derive(Debug, Clone, Serialize)]
pub struct ResilienceRecord {
    pub scale: String,
    pub sites_per_country: usize,
    /// RELIABLE-plan `build_dataset_with_ledger`, milliseconds.
    pub fault_free_ms: f64,
    /// HOSTILE-plan `build_dataset_with_ledger`, milliseconds.
    pub hostile_ms: f64,
    /// Records the HOSTILE run still produced.
    pub hostile_records: usize,
    pub hostile_selected: u64,
    /// Quota shortfall summed over countries (0 = quota met everywhere).
    pub hostile_shortfall: u64,
    /// Terminal errors across the taxonomy.
    pub hostile_errors: u64,
    pub hostile_retries: u64,
    pub hostile_breaker_opened: u64,
    pub hostile_truncated_bodies: u64,
    pub hostile_garbled_bodies: u64,
    /// Candidates the replacement rule consumed without selecting.
    pub hostile_replacements: u64,
    pub hostile_max_replacement_run: u64,
}

/// Measure [`ResilienceRecord`] at one scale.
pub fn resilience_timing(seed: u64, scale: Scale) -> ResilienceRecord {
    let quota = scale.sites_per_country();
    let options = PipelineOptions {
        quota,
        ..PipelineOptions::default()
    };

    let reliable = build_corpus_with_plan(seed, scale, FaultPlan::RELIABLE);
    // At least three runs, as every committed record was sampled.
    let mut fault_free_ms = f64::INFINITY;
    for _ in 0..RUNS.max(3) {
        let start = Instant::now();
        let (ds, ledger) = build_dataset_with_ledger(&reliable, options);
        fault_free_ms = fault_free_ms.min(start.elapsed().as_secs_f64() * 1e3);
        // Restricted/geo-block walls are vantage behaviour and fire even
        // under RELIABLE; only the *injected* transient classes must be
        // silent when every fault chance is zero.
        let injected = ledger.totals.errors.timeouts
            + ledger.totals.errors.resets
            + ledger.totals.errors.server_errors
            + ledger.totals.errors.deadline_exceeded
            + ledger.totals.errors.circuit_open;
        assert_eq!(injected, 0, "RELIABLE run had injected-fault errors");
        std::hint::black_box(ds.len());
    }

    let hostile = build_corpus_with_plan(seed, scale, FaultPlan::HOSTILE);
    let mut hostile_ms = f64::INFINITY;
    let mut records = 0;
    let mut totals = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let (ds, ledger) = build_dataset_with_ledger(&hostile, options);
        hostile_ms = hostile_ms.min(start.elapsed().as_secs_f64() * 1e3);
        records = ds.len();
        totals = Some(ledger.totals);
    }
    let totals = totals.expect("at least one hostile run");

    ResilienceRecord {
        scale: scale_name(scale),
        sites_per_country: quota,
        fault_free_ms,
        hostile_ms,
        hostile_records: records,
        hostile_selected: totals.selected,
        hostile_shortfall: (quota as u64 * Country::STUDY.len() as u64)
            .saturating_sub(totals.selected),
        hostile_errors: totals.errors.total(),
        hostile_retries: totals.retries,
        hostile_breaker_opened: totals.breaker_opened,
        hostile_truncated_bodies: totals.truncated_bodies,
        hostile_garbled_bodies: totals.garbled_bodies,
        hostile_replacements: totals.replacements,
        hostile_max_replacement_run: totals.max_replacement_run,
    }
}

/// Per-page render wall-clock of the pooled [`RenderScratch`] engine the
/// corpus content path runs. The bytes of this page sample are pinned by
/// committed digests in `crates/webgen/tests/render_digest.rs`.
#[derive(Debug, Clone, Serialize)]
pub struct RenderTiming {
    /// Pages in the sample (every study country, both content variants).
    pub pages: usize,
    /// Pooled-arena renderer, microseconds per page.
    pub render_us_per_page: f64,
}

/// Measure [`RenderTiming`] over a fresh plan sample.
pub fn render_timing(seed: u64) -> RenderTiming {
    let mut plans: Vec<(SitePlan, ContentVariant)> = Vec::new();
    for country in Country::STUDY {
        for index in 0..4u32 {
            let plan = SitePlan::build(seed, country, index, Some(index % 2 == 0));
            for variant in [ContentVariant::Localized, ContentVariant::Global] {
                plans.push((plan.clone(), variant));
            }
        }
    }
    let mut scratch = RenderScratch::new();
    let mut out = String::new();
    let mut pooled_s = f64::INFINITY;
    for _ in 0..RUNS.max(3) {
        let start = Instant::now();
        for (plan, variant) in &plans {
            out.clear();
            render_into(plan, *variant, "/", &mut scratch, &mut out);
            std::hint::black_box(out.len());
        }
        pooled_s = pooled_s.min(start.elapsed().as_secs_f64());
    }
    RenderTiming {
        pages: plans.len(),
        render_us_per_page: pooled_s * 1e6 / plans.len() as f64,
    }
}

/// Worker counts to sweep on a host with `cores` cores: powers of two up
/// to the core count, plus the core count itself.
pub fn worker_counts(cores: usize) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut w = 1;
    while w <= cores {
        counts.push(w);
        w *= 2;
    }
    if counts.last() != Some(&cores) {
        counts.push(cores);
    }
    counts
}

/// Time the fused pipeline at each worker count on a fresh corpus.
///
/// Returns an empty vector when `cores <= 1`: with a single hardware
/// thread every worker count degenerates to the same sequential run and
/// the sweep would only record noise (the ROADMAP records the parallel
/// share from multi-core CI hosts instead).
pub fn worker_scaling(seed: u64, scale: Scale, cores: usize) -> Vec<WorkerTiming> {
    if cores <= 1 {
        return Vec::new();
    }
    let corpus = build_corpus(seed, scale);
    let mut timings = Vec::new();
    let mut one_worker_ms = f64::NAN;
    for workers in worker_counts(cores) {
        let options = PipelineOptions {
            quota: scale.sites_per_country(),
            threads: workers,
            ..PipelineOptions::default()
        };
        let mut fused_ms = f64::INFINITY;
        for _ in 0..RUNS {
            let start = Instant::now();
            let ds = build_dataset(&corpus, options);
            fused_ms = fused_ms.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(ds.len());
        }
        if workers == 1 {
            one_worker_ms = fused_ms;
        }
        timings.push(WorkerTiming {
            workers,
            fused_ms,
            speedup_vs_one_worker: one_worker_ms / fused_ms.max(1e-9),
        });
    }
    timings
}

/// Per-visit extraction wall-clock: DOM materialisation (tokenize →
/// tree-build → walk → extract) vs the streaming tokenize→extract path
/// the crawl and serve hot loops run. Both produce identical
/// `PageExtract`s (asserted before timing), so the delta is exactly the
/// cost of materialising tokens and DOM nodes the crawl never reads.
#[derive(Debug, Clone, Serialize)]
pub struct StreamVsDomTiming {
    /// Pages in the sample (every study country, both content variants).
    pub pages: usize,
    /// parse + extract per page, microseconds.
    pub dom_us_per_page: f64,
    /// extract_streaming per page, microseconds.
    pub stream_us_per_page: f64,
    pub speedup: f64,
}

/// Measure [`StreamVsDomTiming`] over a fresh page sample.
pub fn stream_vs_dom(seed: u64) -> StreamVsDomTiming {
    let mut pages: Vec<String> = Vec::new();
    for country in Country::STUDY {
        for index in 0..4u32 {
            let plan = SitePlan::build(seed, country, index, Some(index % 2 == 0));
            for variant in [ContentVariant::Localized, ContentVariant::Global] {
                pages.push(render(&plan, variant, "/").0);
            }
        }
    }
    // The comparison is only meaningful if both paths did the same work.
    for html in &pages {
        assert_eq!(
            extract_streaming(html),
            extract(&parse(html)),
            "streaming extract diverged from the DOM oracle"
        );
    }
    let mut dom_s = f64::INFINITY;
    let mut stream_s = f64::INFINITY;
    for _ in 0..RUNS.max(3) {
        let start = Instant::now();
        for html in &pages {
            std::hint::black_box(extract(&parse(html)).elements.len());
        }
        dom_s = dom_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for html in &pages {
            std::hint::black_box(extract_streaming(html).elements.len());
        }
        stream_s = stream_s.min(start.elapsed().as_secs_f64());
    }
    let per_page = 1e6 / pages.len() as f64;
    StreamVsDomTiming {
        pages: pages.len(),
        dom_us_per_page: dom_s * per_page,
        stream_us_per_page: stream_s * per_page,
        speedup: dom_s / stream_s.max(1e-12),
    }
}

fn scale_name(scale: Scale) -> String {
    match scale {
        Scale::Quick => "Quick".to_string(),
        Scale::Default => "Default".to_string(),
        Scale::Full => "Full".to_string(),
        Scale::Sites(n) => format!("Sites({n})"),
    }
}

/// Runs per pipeline; the minimum is reported (standard practice for
/// wall-clock numbers on shared/noisy hosts).
const RUNS: usize = 2;

/// Time the fused pipeline on a fresh corpus at `scale`.
pub fn time_scale(seed: u64, scale: Scale) -> ScaleTiming {
    let corpus = build_corpus(seed, scale);
    let options = PipelineOptions {
        quota: scale.sites_per_country(),
        ..PipelineOptions::default()
    };

    let mut records = 0;
    let mut fused_ms = f64::INFINITY;
    for _ in 0..RUNS {
        let start = Instant::now();
        let ds = build_dataset(&corpus, options);
        fused_ms = fused_ms.min(start.elapsed().as_secs_f64() * 1e3);
        records = ds.len();
    }

    ScaleTiming {
        scale: scale_name(scale),
        sites_per_country: scale.sites_per_country(),
        fused_ms,
        records,
    }
}

/// Run the standard report (Quick + Default) and serialize it.
pub fn pipeline_bench_report(seed: u64, scales: &[Scale]) -> PipelineBenchReport {
    let cores = default_threads();
    let timings: Vec<ScaleTiming> = scales.iter().map(|&s| time_scale(seed, s)).collect();
    // Per-worker-count timings (ROADMAP open item: record the parallel
    // share). The sweep reuses the first requested scale.
    let worker_scaling =
        worker_scaling(seed, scales.first().copied().unwrap_or(Scale::Quick), cores);
    PipelineBenchReport {
        bench: "pipeline_hot_path/build_dataset".to_string(),
        seed,
        git_sha: langcrux_obs::registry::git_sha().to_string(),
        threads: cores,
        available_cores: cores,
        timings,
        worker_scaling,
        stream_vs_dom: stream_vs_dom(seed),
        render: render_timing(seed),
        resilience: resilience_timing(seed, scales.first().copied().unwrap_or(Scale::Quick)),
        observability: observability_timing(seed, scales.first().copied().unwrap_or(Scale::Quick)),
        distributed: distributed_timing(seed, scales.first().copied().unwrap_or(Scale::Quick)),
        notes: format!(
            "fused = single-pass engine with one build dispatcher per core, with the crawl path's \
             per-visit extraction running the streaming tokenize→extract pass (no token \
             buffer, no DOM node arena — stream_vs_dom isolates that per-visit win \
             against the parse-then-walk oracle on the same pages) and page generation \
             running the pooled zero-alloc render arena over build-once corpus shards \
             (render times that arena per page; the sample's bytes are pinned by \
             committed digests in crates/webgen/tests/render_digest.rs). With \
             available_parallelism() = {cores} on this host extra workers contribute \
             {par}; worker_scaling records the fused pipeline per worker count on \
             multi-core hosts, isolating that parallel share. resilience records the \
             ledger-folding build's time on a RELIABLE corpus and the headline ledger \
             numbers of a HOSTILE-plan degraded run at the first scale. observability \
             records the span-tracing tax (traced vs untraced build on the same corpus, \
             byte-identical datasets asserted; CI gates trace_overhead at 1.03) plus \
             the traced run's span count and stage coverage. distributed records the \
             fault-tolerant coordinator's cost over the in-process unit executor at the \
             first scale — byte-identity with the single-process oracle is asserted \
             before recording, clean and under a seeded kill schedule (chaos_ms / \
             chaos_reassignments); CI gates efficiency (single_process_ms / \
             distributed_ms) at 0.25.",
            par = if cores > 1 {
                "a parallel share"
            } else {
                "nothing (hardware-bound)"
            },
        ),
    }
}

/// Write an already-computed report as `BENCH_pipeline.json` at `path`.
pub fn write_bench_json(path: &str, report: &PipelineBenchReport) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report).expect("serialize bench report");
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counts_cover_powers_of_two_and_cores() {
        assert_eq!(worker_counts(1), vec![1]);
        assert_eq!(worker_counts(2), vec![1, 2]);
        assert_eq!(worker_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(worker_counts(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn worker_scaling_gated_on_cores() {
        assert!(worker_scaling(5, Scale::Sites(2), 1).is_empty());
        // A forced 2-core sweep runs and records both counts even on a
        // single-core host (timings are then just not informative).
        let sweep = worker_scaling(5, Scale::Sites(2), 2);
        assert_eq!(
            sweep.iter().map(|t| t.workers).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!((sweep[0].speedup_vs_one_worker - 1.0).abs() < 1e-9);
        assert!(sweep.iter().all(|t| t.fused_ms > 0.0));
    }

    #[test]
    fn stream_vs_dom_shape() {
        let t = stream_vs_dom(7);
        // 12 countries × 4 sites × 2 variants.
        assert_eq!(t.pages, 96);
        assert!(t.dom_us_per_page > 0.0 && t.stream_us_per_page > 0.0);
        assert!(t.speedup > 0.0);
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.contains("stream_us_per_page"));
    }

    #[test]
    fn render_timing_shape() {
        let t = render_timing(7);
        // 12 countries × 4 sites × 2 variants.
        assert_eq!(t.pages, 96);
        assert!(t.render_us_per_page > 0.0);
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.contains("render_us_per_page"));
    }

    #[test]
    fn resilience_record_shape() {
        let r = resilience_timing(23, Scale::Sites(5));
        assert_eq!(r.sites_per_country, 5);
        assert!(r.fault_free_ms > 0.0 && r.hostile_ms > 0.0);
        // The degraded run still completes and selects most of the quota.
        assert!(r.hostile_records > 0);
        assert_eq!(
            r.hostile_selected + r.hostile_shortfall,
            5 * Country::STUDY.len() as u64
        );
        // A HOSTILE plan must actually hurt: errors and replacements > 0.
        assert!(r.hostile_errors > 0, "{r:?}");
        assert!(r.hostile_replacements > 0, "{r:?}");
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("hostile_max_replacement_run"));
    }

    #[test]
    fn observability_record_shape() {
        let r = observability_timing(29, Scale::Sites(4));
        assert_eq!(r.sites_per_country, 4);
        assert!(r.disabled_ms > 0.0 && r.enabled_ms > 0.0);
        assert!(r.trace_overhead > 0.0);
        // A traced build must actually record spans, drop nothing at the
        // default capacity, and cover the orchestration stages.
        assert!(r.spans > 0, "{r:?}");
        assert_eq!(r.dropped_spans, 0, "{r:?}");
        for stage in ["pipeline.build", "crawl.fetch", "webgen.render"] {
            assert!(
                r.stages.iter().any(|s| s == stage),
                "stage {stage} missing from {:?}",
                r.stages
            );
        }
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("trace_overhead"));
    }

    #[test]
    fn distributed_record_shape() {
        let r = distributed_timing(37, Scale::Sites(5));
        assert_eq!(r.sites_per_country, 5);
        assert_eq!(r.workers, 2);
        assert!(r.single_process_ms > 0.0 && r.distributed_ms > 0.0 && r.chaos_ms > 0.0);
        assert!(r.efficiency > 0.0);
        assert!(r.units >= 12, "one unit per country at minimum: {r:?}");
        assert!(r.waves >= 1);
        // The seeded schedule must actually kill something, and byte
        // identity under it is asserted inside distributed_timing.
        assert!(r.chaos_reassignments > 0, "{r:?}");
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("chaos_reassignments"));
        assert!(json.contains("efficiency"));
    }

    #[test]
    fn timing_report_shape() {
        let report = pipeline_bench_report(41, &[Scale::Sites(6)]);
        assert_eq!(report.timings.len(), 1);
        let t = &report.timings[0];
        // 6 sites × 12 countries, allowing small-corpus shortfall.
        assert!(t.records > 60 && t.records <= 72, "records = {}", t.records);
        assert!(t.fused_ms > 0.0);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("pipeline_hot_path"));
    }
}
