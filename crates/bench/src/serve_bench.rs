//! The serve benchmark behind `repro --serve-bench`: spawn the audit
//! server on an ephemeral loopback port, drive it with the load
//! generator, and emit the machine-readable record `BENCH_serve.json`.
//!
//! Three runs over the same corpus pages quantify what the sharded
//! response cache buys and what the connection governor costs:
//!
//! * **cold** — one request per distinct page: every request misses the
//!   cache and pays the full parse → extract → audit → Kizuki → speak
//!   pipeline.
//! * **hot** — `rounds` further passes over the same pages: every
//!   request answers byte-identical JSON straight from the cache.
//! * **bounded** — the hot workload against a second server whose
//!   governor is at its tightest useful setting (connection cap ==
//!   loadgen connections, accept queue == cap, deadlines armed). The
//!   governor's bookkeeping sits on every request; this run proves the
//!   hot path keeps ≥ 90 % of its throughput with the front door
//!   bounded (`bounded_vs_hot`).
//!
//! The headline number is `hot_vs_cold` (cache-hot req/s over cold
//! req/s); the acceptance bar for the serve subsystem is ≥ 5×.

use crate::Scale;
use langcrux_lang::Country;
use langcrux_net::ContentVariant;
use langcrux_serve::{
    run_idle_load, run_load, IdleLoadRun, LoadGenRun, ServeConfig, ServeCore, StatsSnapshot,
};
use langcrux_webgen::{render, SitePlan};
use serde::Serialize;

/// Workload shape for one serve bench.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchConfig {
    /// Distinct corpus pages (= cold requests).
    pub pages: usize,
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Hot passes over the page set after the cold pass.
    pub rounds: usize,
    /// Idle keep-alive fleet size for the high-concurrency runs.
    pub idle_connections: usize,
    /// Hot subset driving audits while the idle fleet rides along.
    pub hot_connections: usize,
    /// Audit requests per high-concurrency measurement pass.
    pub high_requests: usize,
}

impl ServeBenchConfig {
    /// Scale-matched defaults: tiny under `--quick` (CI smoke), larger
    /// otherwise.
    pub fn for_scale(scale: Scale) -> ServeBenchConfig {
        match scale {
            Scale::Quick => ServeBenchConfig {
                pages: 48,
                connections: 4,
                rounds: 4,
                idle_connections: 512,
                hot_connections: 4,
                high_requests: 1024,
            },
            Scale::Sites(n) => ServeBenchConfig {
                pages: n.max(2),
                connections: 4,
                rounds: 4,
                idle_connections: 512,
                hot_connections: 4,
                high_requests: 1024,
            },
            _ => ServeBenchConfig {
                pages: 192,
                connections: 8,
                rounds: 8,
                idle_connections: 1024,
                hot_connections: 8,
                high_requests: 4096,
            },
        }
    }
}

/// The `BENCH_serve.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchReport {
    pub bench: String,
    pub seed: u64,
    /// Commit the producing binary was built from.
    pub git_sha: String,
    /// Hardware parallelism of the machine that produced the numbers.
    pub available_cores: usize,
    pub pages: usize,
    pub connections: usize,
    /// Mean page size of the workload, bytes.
    pub mean_page_bytes: usize,
    /// All-miss pass: full pipeline per request.
    pub cold: LoadGenRun,
    /// All-hit passes: sharded-cache lookups only.
    pub hot: LoadGenRun,
    /// Cache-hot req/s over cold req/s (acceptance bar: ≥ 5).
    pub hot_vs_cold: f64,
    /// The hot workload with the connection governor at its tightest
    /// (cap == connections, accept queue == cap, deadlines armed).
    pub bounded: LoadGenRun,
    /// Bounded req/s over hot req/s (acceptance bar: ≥ 0.9 — the
    /// governor must not cost the hot path more than 10 %).
    pub bounded_vs_hot: f64,
    /// Server-side view after the cold+hot run (cache + latency
    /// histogram); the bounded run uses its own server.
    pub server: StatsSnapshot,
    /// Mostly-idle keep-alive fleet + hot subset, per core: the event-
    /// driven reactor must hold its hot throughput flat while the
    /// thread-per-connection oracle may degrade.
    pub high_concurrency: HighConcurrencyReport,
    pub notes: String,
}

/// One core's high-concurrency comparison.
#[derive(Debug, Clone, Serialize)]
pub struct CoreHighConcurrency {
    /// Core name (`threaded` / `reactor`).
    pub core: String,
    /// Hot-only baseline: the hot subset alone, no idle fleet.
    pub hot_baseline: LoadGenRun,
    /// The same hot subset with the idle fleet held open.
    pub high: IdleLoadRun,
    /// `high.hot.req_per_sec / hot_baseline.req_per_sec` — the flatness
    /// measure. CI gates the reactor's ratio (≥ 0.95 on the committed
    /// record); the threaded oracle's ratio is recorded, not gated.
    pub flat_ratio: f64,
}

/// The `high_concurrency` section of `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct HighConcurrencyReport {
    pub idle_connections: usize,
    pub hot_connections: usize,
    /// Audit requests per measurement pass.
    pub requests: usize,
    /// One entry per available core (one on non-Linux, where the
    /// reactor falls back to the threaded core).
    pub cores: Vec<CoreHighConcurrency>,
}

/// Run the high-concurrency comparison: for each core, measure the hot
/// subset alone, then re-measure with the idle fleet held open.
pub fn high_concurrency_report(seed: u64, config: ServeBenchConfig) -> HighConcurrencyReport {
    // A small cache-hot page set (same generator and seed as the main
    // passes): the measurement isolates connection-engine overhead, not
    // audit compute.
    let pages = bench_pages(seed, 24);
    let mut available: Vec<ServeCore> = ServeCore::ALL.iter().map(|c| c.effective()).collect();
    available.dedup();
    let cores = available
        .into_iter()
        .map(|core| {
            let server = langcrux_serve::spawn(ServeConfig {
                core,
                cache_shards: 8,
                cache_capacity_per_shard: 64,
                max_connections: config.idle_connections + config.hot_connections + 16,
                accept_queue: 64,
                // The idle fleet must outlive the measurement window.
                idle_timeout: std::time::Duration::from_secs(120),
                ..ServeConfig::default()
            })
            .expect("spawn high-concurrency server");
            // Warm the cache so both passes measure pure hit throughput.
            run_load(server.addr(), &pages, config.hot_connections, pages.len())
                .expect("high-concurrency warm-up");
            // Interleaved best-of-3 on both sides: the flatness claim
            // compares the engine's *capacity* with and without the idle
            // fleet, and a single pass on a shared host measures the
            // scheduler as much as the server. Alternating
            // baseline/high passes exposes both measurements to the same
            // drift (thermal, page cache, sibling load).
            let mut hot_baseline: Option<LoadGenRun> = None;
            let mut high: Option<IdleLoadRun> = None;
            for _ in 0..3 {
                let pass = run_load(
                    server.addr(),
                    &pages,
                    config.hot_connections,
                    config.high_requests,
                )
                .expect("hot baseline");
                if hot_baseline
                    .as_ref()
                    .is_none_or(|best| pass.req_per_sec > best.req_per_sec)
                {
                    hot_baseline = Some(pass);
                }
                let pass = run_idle_load(
                    server.addr(),
                    &pages,
                    config.idle_connections,
                    config.hot_connections,
                    config.high_requests,
                )
                .expect("high-concurrency run");
                if high
                    .as_ref()
                    .is_none_or(|best| pass.hot.req_per_sec > best.hot.req_per_sec)
                {
                    high = Some(pass);
                }
            }
            let hot_baseline = hot_baseline.expect("three baseline passes");
            let high = high.expect("three high-concurrency passes");
            server.shutdown();
            let flat_ratio = high.hot.req_per_sec / hot_baseline.req_per_sec.max(1e-9);
            CoreHighConcurrency {
                core: core.name().to_string(),
                hot_baseline,
                high,
                flat_ratio,
            }
        })
        .collect();
    HighConcurrencyReport {
        idle_connections: config.idle_connections,
        hot_connections: config.hot_connections,
        requests: config.high_requests,
        cores,
    }
}

/// Render `pages` distinct localized corpus pages, cycling countries so
/// the workload spans every script family the study covers.
pub fn bench_pages(seed: u64, pages: usize) -> Vec<String> {
    (0..pages)
        .map(|i| {
            let country = Country::STUDY[i % Country::STUDY.len()];
            let plan = SitePlan::build(seed, country, i as u32, Some(true));
            render(&plan, ContentVariant::Localized, "/").0
        })
        .collect()
}

/// Spawn a server, run the cold and hot passes, and assemble the report.
pub fn serve_bench_report(seed: u64, config: ServeBenchConfig) -> ServeBenchReport {
    let pages = bench_pages(seed, config.pages);
    let mean_page_bytes = pages.iter().map(String::len).sum::<usize>() / pages.len().max(1);

    let server = langcrux_serve::spawn(ServeConfig {
        // Capacity sized to hold the whole working set so the hot pass
        // measures pure hit throughput, not eviction churn.
        cache_shards: 8,
        cache_capacity_per_shard: config.pages.div_ceil(8).max(64),
        ..ServeConfig::default()
    })
    .expect("spawn audit server on loopback");

    let cold = run_load(server.addr(), &pages, config.connections, pages.len()).expect("cold run");
    let hot = run_load(
        server.addr(),
        &pages,
        config.connections,
        pages.len() * config.rounds.max(1),
    )
    .expect("hot run");
    let stats = server.shutdown();

    // The bounded pass: a fresh server with the governor at its tightest
    // useful setting. One uncounted warm-up pass fills the cache so the
    // measured pass is the hot workload again, now with cap bookkeeping
    // and deadlines on every request. The accept queue equals the
    // connection count so the measured connections park (bounded
    // backpressure) rather than shed while the warm-up connections'
    // slots are still being released.
    let bounded_server = langcrux_serve::spawn(ServeConfig {
        cache_shards: 8,
        cache_capacity_per_shard: config.pages.div_ceil(8).max(64),
        max_connections: config.connections,
        accept_queue: config.connections,
        ..ServeConfig::default()
    })
    .expect("spawn bounded audit server on loopback");
    run_load(
        bounded_server.addr(),
        &pages,
        config.connections,
        pages.len(),
    )
    .expect("bounded warm-up");
    let bounded = run_load(
        bounded_server.addr(),
        &pages,
        config.connections,
        pages.len() * config.rounds.max(1),
    )
    .expect("bounded run");
    bounded_server.shutdown();

    let high_concurrency = high_concurrency_report(seed, config);

    let hot_vs_cold = hot.req_per_sec / cold.req_per_sec.max(1e-9);
    let bounded_vs_hot = bounded.req_per_sec / hot.req_per_sec.max(1e-9);
    ServeBenchReport {
        bench: "serve/audit_loopback".to_string(),
        seed,
        git_sha: langcrux_obs::registry::git_sha().to_string(),
        available_cores: langcrux_crawl::default_threads(),
        pages: config.pages,
        connections: config.connections,
        mean_page_bytes,
        cold,
        hot,
        hot_vs_cold,
        bounded,
        bounded_vs_hot,
        server: stats,
        high_concurrency,
        notes: format!(
            "cold = one POST /v1/audit per distinct corpus page (every request is a cache \
             miss and runs the full parse+extract+audit+Kizuki+speak pipeline); hot = {} \
             further passes over the same pages answered from the sharded LRU response \
             cache; bounded = the hot workload against a server with the connection \
             governor at connection cap == {} (loadgen connection count), accept queue == \
             cap, and request/write deadlines armed. high_concurrency = per serve core \
             ({} idle keep-alive connections held open while {} hot connections drive \
             cache-hot audits; flat_ratio compares against the same hot subset with no \
             idle fleet). Loopback HTTP/1.1 keep-alive, {} concurrent connections; \
             latencies are client-side.",
            config.rounds.max(1),
            config.connections,
            config.idle_connections,
            config.hot_connections,
            config.connections,
        ),
    }
}

/// Write an already-computed report as JSON at `path`.
pub fn write_serve_json(path: &str, report: &ServeBenchReport) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report).expect("serialize serve report");
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_pages_are_distinct_and_multilingual() {
        let pages = bench_pages(77, 24);
        assert_eq!(pages.len(), 24);
        let distinct: std::collections::HashSet<&String> = pages.iter().collect();
        assert_eq!(distinct.len(), 24, "cold pass needs all-distinct bodies");
        assert!(pages.iter().all(|p| p.len() > 1_000));
    }

    #[test]
    fn serve_bench_smoke_and_cache_accounting() {
        let report = serve_bench_report(
            41,
            ServeBenchConfig {
                pages: 10,
                connections: 2,
                rounds: 3,
                idle_connections: 24,
                hot_connections: 2,
                high_requests: 20,
            },
        );
        assert_eq!(report.cold.requests, 10);
        assert_eq!(report.hot.requests, 30);
        assert_eq!(report.cold.errors + report.hot.errors, 0);
        // Every cold request missed; every hot request hit.
        assert_eq!(report.server.cache.misses, 10);
        assert_eq!(report.server.cache.hits, 30);
        assert_eq!(report.server.requests.audit, 40);
        assert!(
            report.hot_vs_cold > 1.0,
            "hot {} <= cold {}",
            report.hot.req_per_sec,
            report.cold.req_per_sec
        );
        // The bounded pass ran the same hot workload under the governor
        // with zero shed capacity — every request must still succeed.
        assert_eq!(report.bounded.requests, 30);
        assert_eq!(report.bounded.errors, 0);
        assert!(report.bounded_vs_hot > 0.0);
        // The high-concurrency section covers every available core and
        // the idle fleet really rode along on each.
        assert!(!report.high_concurrency.cores.is_empty());
        for entry in &report.high_concurrency.cores {
            assert_eq!(entry.high.idle_connections, 24);
            assert_eq!(entry.high.hot.requests, 20);
            assert_eq!(entry.hot_baseline.errors + entry.high.hot.errors, 0);
            assert!(entry.flat_ratio > 0.0);
        }
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"hot_vs_cold\""));
        assert!(json.contains("\"bounded_vs_hot\""));
        assert!(json.contains("\"high_concurrency\""));
        assert!(json.contains("\"flat_ratio\""));
    }
}
