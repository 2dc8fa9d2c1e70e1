//! The `build` and `build-dist` workloads, and the traced build and
//! distributed-build stages.

use crate::common::{
    check_stored_digest, digest, peak_rss_with_children_mib, secs_since, CountingSink, Record,
};
use crate::spans::{self_times, totals_by_name, Recorder};
use crate::stats::{median, percentile, tail};
use crate::Layers;
use langcrux_audit::{audit_page, gap_report};
use langcrux_bench::dist::HttpExecutor;
use langcrux_bench::{build_corpus_with_gaps, Scale};
use langcrux_core::dist::WireOutcome;
use langcrux_core::selection::probe_candidate_traced;
use langcrux_core::{
    build_dataset_distributed, build_dataset_with_ledger, CrawlLedger, Dataset, DistOptions,
    PipelineOptions, UnitError, UnitExecutor, UnitRequest, WireBuildConfig,
};
use langcrux_crawl::{extract_streaming, Browser, BrowserConfig};
use langcrux_filter::classify;
use langcrux_html::tokenizer::tokenize_into;
use langcrux_kizuki::{page_language, Kizuki, ScreenReader};
use langcrux_langid::{classify_label, composition_of_histogram};
use langcrux_net::{vpn_vantage, FaultPlan, Request, Url};
use langcrux_webgen::{render_into, Corpus, RenderScratch};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker processes of the distributed build: one per core, like the
/// build pools, and at least two so the coordinator really distributes.
pub fn dist_workers() -> usize {
    crate::common::nproc().max(2)
}

/// The gap-enabled corpus every build workload runs on.
fn corpus_for(seed: u64, scale: Scale) -> Corpus {
    build_corpus_with_gaps(seed, scale, FaultPlan::default(), true)
}

/// Materialise every country shard, as a build would on first touch.
fn warm_shards(corpus: &Corpus) {
    for country in corpus.countries() {
        black_box(corpus.candidates(country).len());
    }
}

/// Set-up of the in-process build: corpus plus shard warm-up.
fn setup_corpus(seed: u64, scale: Scale) -> (Corpus, f64) {
    let t = Instant::now();
    let corpus = corpus_for(seed, scale);
    warm_shards(&corpus);
    (corpus, secs_since(t))
}

/// One build's serialized outputs and failure counts.
struct Built {
    dataset: Dataset,
    ledger: CrawlLedger,
    bytes_digest: u64,
    poisoned: u64,
    degraded: u64,
    /// Seconds for the build alone and for build plus serialisation.
    build_s: f64,
    wall_s: f64,
}

fn finish(dataset: Dataset, ledger: CrawlLedger, t: Instant, build_s: f64) -> Built {
    let dataset_json = dataset.to_json().expect("dataset serializes");
    let ledger_json = ledger.to_json().expect("ledger serializes");
    let wall_s = secs_since(t);
    let poisoned = ledger
        .countries
        .iter()
        .map(|c| c.poisoned_sites.len() as u64)
        .sum();
    let degraded = ledger.degraded_units.len() as u64;
    Built {
        bytes_digest: digest(&[dataset_json.as_bytes(), b"\n", ledger_json.as_bytes()]),
        dataset,
        ledger,
        poisoned,
        degraded,
        build_s,
        wall_s,
    }
}

fn build_local(corpus: &Corpus, quota: usize) -> Built {
    let t = Instant::now();
    let (dataset, ledger) = build_dataset_with_ledger(
        corpus,
        PipelineOptions {
            quota,
            ..PipelineOptions::default()
        },
    );
    let build_s = secs_since(t);
    finish(dataset, ledger, t, build_s)
}

fn dist_options(quota: usize) -> DistOptions {
    DistOptions {
        quota,
        workers: dist_workers(),
        ..DistOptions::default()
    }
}

fn build_dist<E: UnitExecutor + ?Sized>(corpus: &Corpus, executor: &E, quota: usize) -> Built {
    let t = Instant::now();
    let build = build_dataset_distributed(corpus, executor, &dist_options(quota))
        .expect("an uncheckpointed coordinator never halts");
    let build_s = secs_since(t);
    finish(build.dataset, build.ledger, t, build_s)
}

/// Spawn the worker processes and load every country shard on each of
/// them with a one-candidate unit, so the first timed build finds warm
/// workers. Returns the executor and the warm-up wall time in seconds.
fn spawn_workers(corpus: &Corpus) -> (HttpExecutor, f64) {
    let workers = dist_workers();
    let executor = HttpExecutor::spawn(workers, None, DistOptions::default().lease_ms)
        .expect("spawn distributed-build workers");
    let t = Instant::now();
    warm_workers(&executor, corpus, workers).expect("warm-up units succeed");
    (executor, secs_since(t))
}

fn warm_workers<E: UnitExecutor + ?Sized>(
    executor: &E,
    corpus: &Corpus,
    workers: usize,
) -> Result<(), UnitError> {
    let config = WireBuildConfig::of(corpus, BrowserConfig::default());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let config = &config;
                scope.spawn(move || {
                    for country in corpus.countries() {
                        let request = UnitRequest {
                            config: config.clone(),
                            country,
                            start: 0,
                            end: 1,
                            hold_ms: 0,
                        };
                        executor.execute(worker, 0, &request)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })
}

/// Add one build's counts and checks to the record.
fn tally(rec: &mut Record, built: &Built, reference: u64, what: &str) {
    let sites = built.dataset.len() as u64;
    rec.attempted += sites;
    rec.failed += built.poisoned + built.degraded;
    if built.bytes_digest != reference {
        rec.failed += sites;
        rec.check(false, || {
            format!("{what}: dataset+ledger bytes differ from the reference build")
        });
    }
}

/// Time repeated builds for `seconds` (at least three) and report the
/// end-to-end metrics.
fn measure_builds(rec: &mut Record, seconds: f64, reference: u64, mut one: impl FnMut() -> Built) {
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let t = Instant::now();
    while walls.len() < 3 || secs_since(t) < seconds {
        let built = one();
        tally(rec, &built, reference, "timed build");
        walls.push(built.wall_s * 1e3);
        rates.push(built.dataset.len() as f64 / built.wall_s);
    }
    let tail_ms = tail(&walls).expect("at least one build");
    rec.size("builds_timed", walls.len());
    rec.size("build_walls_ms", format!("{walls:.1?}"));
    rec.size("latency_tail_percentile", tail_ms.percentile);
    rec.size("latency_tail_ms", tail_ms.value);
    rec.metric("throughput_per_s", median(&rates).expect("builds"), "1/s");
    rec.size("latency_p50_ms", median(&walls).expect("builds"));
}

pub const SETUP_REPEATS: usize = 3;

const DEFAULT_SCALE_NOTE: &str =
    "Default: 12 countries x 400 sites, gap scenarios on, default fault plan";

pub fn run_build(rec: &mut Record, seed: u64, seconds: f64) {
    let scale = Scale::Default;
    rec.size("scale", DEFAULT_SCALE_NOTE);
    rec.size("build_threads", langcrux_crawl::pool::default_threads());
    let mut setups = Vec::new();
    let mut corpus = None;
    for _ in 0..SETUP_REPEATS {
        drop(corpus.take());
        let (c, s) = setup_corpus(seed, scale);
        setups.push(s);
        corpus = Some(c);
    }
    let corpus = corpus.expect("set up at least once");
    let quota = scale.sites_per_country();
    let first = build_local(&corpus, quota);
    let reference = first.bytes_digest;
    rec.check(
        check_stored_digest(&format!("build-{seed}"), reference),
        || "build bytes differ from an earlier run with this seed".to_string(),
    );
    tally(rec, &first, reference, "first build");
    measure_builds(rec, seconds, reference, || build_local(&corpus, quota));
    rec.metric("setup_s", median(&setups).expect("setups"), "s");
    rec.metric("peak_rss_mb", peak_rss_with_children_mib(), "MiB");
}

pub fn run_build_dist(rec: &mut Record, seed: u64, seconds: f64) {
    let scale = Scale::Default;
    rec.size("scale", DEFAULT_SCALE_NOTE);
    rec.size("dist_workers", dist_workers());
    let quota = scale.sites_per_country();
    // The in-process build of the same inputs is the byte reference. It
    // runs in a child process so its memory stays out of this process's
    // peak.
    let reference = reference_digest_in_child(seed);
    rec.check(
        check_stored_digest(&format!("build-{seed}"), reference),
        || "in-process build bytes differ from an earlier run with this seed".to_string(),
    );
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        let (corpus, _) = setup_corpus(seed, scale);
        let (executor, _) = spawn_workers(&corpus);
        setups.push(secs_since(t));
        state = Some((corpus, executor));
    }
    let (corpus, executor) = state.expect("set up at least once");
    measure_builds(rec, seconds, reference, || {
        build_dist(&corpus, &executor, quota)
    });
    rec.metric("setup_s", median(&setups).expect("setups"), "s");
    rec.metric("peak_rss_mb", peak_rss_with_children_mib(), "MiB");
    drop(executor);
}

/// Digest of the in-process Default-scale build for `seed`, computed by a
/// child process running [`print_build_digest`].
fn reference_digest_in_child(seed: u64) -> u64 {
    let exe = std::env::current_exe().expect("own executable");
    let out = std::process::Command::new(exe)
        .arg("--build-digest")
        .arg(seed.to_string())
        .output()
        .expect("run the reference build");
    assert!(out.status.success(), "reference build failed");
    let text = String::from_utf8_lossy(&out.stdout);
    u64::from_str_radix(text.trim(), 16).expect("reference digest")
}

/// Child-process entry point: print the digest of the in-process build.
pub fn print_build_digest(seed: u64) {
    let (corpus, _) = setup_corpus(seed, Scale::Default);
    let built = build_local(&corpus, Scale::Default.sites_per_country());
    println!("{:016x}", built.bytes_digest);
}

/// Check that the span self times account for the root's wall time and
/// return the share not attributed to any layer call (`replay.*` spans).
pub fn unattributed_share(rec: &mut Record, spans: &[crate::spans::Span]) -> f64 {
    let selfs = self_times(spans);
    let root = spans[0].end_ns - spans[0].start_ns;
    let sum: u64 = selfs.iter().sum();
    rec.check(sum == root, || {
        format!("span self times sum to {sum} ns, replay wall is {root} ns")
    });
    let harness: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name.starts_with("replay."))
        .map(|(_, t)| t)
        .sum();
    harness as f64 / root.max(1) as f64
}

/// The traced build stage: one untraced build, the trace-overhead pairs,
/// then a serial replay of the inputs that build consumed through each
/// layer's public calls.
pub fn traced_build(rec: &mut Record, layers: &mut Layers, seed: u64, scale: Scale, out: &str) {
    let (corpus, _) = setup_corpus(seed, scale);
    let quota = scale.sites_per_country();
    let built = build_local(&corpus, quota);
    tally(rec, &built, built.bytes_digest, "traced build");
    // Trace overhead: the program's own trace session on versus off,
    // alternating, two builds each.
    let mut on = Vec::new();
    let mut off = Vec::new();
    for _ in 0..2 {
        let session = langcrux_obs::trace::start(langcrux_obs::trace::TraceConfig::default());
        let traced = build_local(&corpus, quota);
        black_box(session.finish());
        on.push(traced.wall_s);
        rec.check(traced.bytes_digest == built.bytes_digest, || {
            "a build under a trace session changed the output bytes".to_string()
        });
        off.push(build_local(&corpus, quota).wall_s);
    }
    layers.put(
        "obs.trace_overhead_ratio",
        median(&on).unwrap() / median(&off).unwrap(),
        "ratio",
    );
    layers.put(
        "webgen.peak_live_shards",
        corpus.shard_stats().peak_live as f64,
        "count",
    );

    let mut spans = Recorder::new();
    let counts = replay_build(rec, &mut spans, &corpus, &built);
    let s = spans.spans();
    let totals = totals_by_name(s);
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_element = |name: &str| t(name).total_ns as f64 / 1e3 / counts.elements.max(1) as f64;
    let (render, fetch) = (t("webgen.render"), t("net.fetch"));
    let (probe, site) = (t("core.probe"), t("replay.site"));
    let us = "us";
    layers.put("webgen.render_us_per_page", render.us_per_call(), us);
    layers.put("webgen.pages_rendered", render.calls as f64, "count");
    let fetch_self_ns = fetch.total_ns.saturating_sub(render.total_ns);
    layers.put(
        "net.fetch_self_us_per_request",
        fetch_self_ns as f64 / 1e3 / fetch.calls.max(1) as f64,
        us,
    );
    layers.put("net.requests", counts.requests as f64, "count");
    layers.put("net.retries", counts.retries as f64, "count");
    layers.put(
        "html.tokenize_us_per_page",
        t("html.tokenize").us_per_call(),
        us,
    );
    layers.put(
        "crawl.extract_us_per_page",
        t("crawl.extract").us_per_call(),
        us,
    );
    layers.put(
        "crawl.visit_us_per_candidate",
        t("crawl.visit").us_per_call(),
        us,
    );
    let threads = langcrux_crawl::pool::default_threads() as f64;
    layers.put(
        "crawl.pool_busy_share",
        (probe.total_ns + site.total_ns) as f64 / 1e9 / (built.build_s * threads),
        "ratio",
    );
    layers.put(
        "langid.classify_label_us_per_element",
        per_element("langid.classify_label"),
        us,
    );
    layers.put(
        "langid.composition_us_per_candidate",
        t("langid.composition").us_per_call(),
        us,
    );
    layers.put(
        "langid.page_language_us_per_page",
        t("langid.page_language").us_per_call(),
        us,
    );
    layers.put(
        "filter.classify_us_per_element",
        per_element("filter.classify"),
        us,
    );
    layers.put("filter.elements", counts.elements as f64, "count");
    layers.put(
        "audit.audit_page_us_per_page",
        t("audit.audit_page").us_per_call(),
        us,
    );
    layers.put(
        "audit.gap_report_us_per_page",
        t("audit.gap_report").us_per_call(),
        us,
    );
    layers.put(
        "kizuki.evaluate_us_per_page",
        t("kizuki.evaluate").us_per_call(),
        us,
    );
    layers.put(
        "kizuki.gap_speech_us_per_page",
        t("kizuki.gap_speech").us_per_call(),
        us,
    );
    layers.put("core.probe_us_per_candidate", probe.us_per_call(), us);
    layers.put(
        "core.probe_useful_share",
        site.calls as f64 / probe.calls.max(1) as f64,
        "ratio",
    );
    layers.put("core.analyze_us_per_site", site.us_per_call(), us);
    layers.put(
        "core.serialize_ms",
        t("core.serialize").total_ns as f64 / 1e6,
        "ms",
    );
    let share = unattributed_share(rec, s);
    layers.put("core.unattributed_share", share, "ratio");
    if let Err(e) = spans.write(&crate::common::out_dir().join(format!("{out}-build-spans.json"))) {
        rec.check(false, || format!("writing the build span file: {e}"));
    }
}

struct ReplayCounts {
    requests: u64,
    retries: u64,
    elements: u64,
}

/// Replay, serially and in rank order, every candidate the build consumed
/// and every site it selected, and check the replayed verdicts and scores
/// against the dataset.
fn replay_build(
    rec: &mut Record,
    spans: &mut Recorder,
    corpus: &Corpus,
    built: &Built,
) -> ReplayCounts {
    let internet = corpus.internet();
    let mut prober = Browser::new(internet, BrowserConfig::default());
    let mut visitor = Browser::new(internet, BrowserConfig::default());
    let mut scratch = RenderScratch::new();
    let mut body = String::new();
    let mut page = String::new();
    let kizuki = Kizuki::standard();
    let reader = ScreenReader::voiceover_like();
    let mut counts = ReplayCounts {
        requests: 0,
        retries: 0,
        elements: 0,
    };
    let mut mismatches = 0u64;
    let mut id = 0u64;
    spans.enter("replay.build", 0);
    for summary in &built.dataset.crawl_summaries {
        let country = corpus
            .countries()
            .find(|c| c.code() == summary.country_code)
            .expect("summary country is in the corpus");
        let vantage = vpn_vantage(country).expect("every study country has a VPN vantage");
        let native = country.target_language();
        let candidates = corpus.candidates(country);
        let mut records = built.dataset.in_country(country);
        let mut selected = 0u64;
        for plan in &candidates[..summary.attempted as usize] {
            id += 1;
            spans.enter("replay.candidate", id);
            let (outcome, trace) = spans.time("core.probe", id, || {
                probe_candidate_traced(&mut prober, plan, vantage, native)
            });
            counts.requests += u64::from(trace.attempts);
            counts.retries += u64::from(trace.attempts.saturating_sub(1));
            let url = Url::from_host(&plan.host);
            let visit = spans.time("crawl.visit", id, || visitor.visit_traced(&url, vantage).0);
            let request = Request::new(url, vantage);
            let fetched = spans.time("net.fetch", id, || internet.fetch_into(&request, &mut body));
            if let Ok(meta) = fetched {
                page.clear();
                spans.time("webgen.render", id, || {
                    render_into(plan, meta.variant, "/", &mut scratch, &mut page)
                });
                black_box(spans.time("crawl.extract", id, || extract_streaming(&body)));
                let mut sink = CountingSink::default();
                spans.time("html.tokenize", id, || tokenize_into(&body, &mut sink));
                black_box(sink.0);
            }
            if let Ok(visit) = &visit {
                black_box(spans.time("langid.composition", id, || {
                    composition_of_histogram(&visit.extract.visible_hist, native)
                }));
            }
            spans.exit();
            let Ok(site) = outcome else { continue };
            selected += 1;
            spans.enter("replay.site", id);
            let extract = &site.visit.extract;
            let texts: Vec<&str> = extract
                .elements
                .iter()
                .filter(|e| !e.is_missing() && !e.is_empty_text())
                .filter_map(|e| e.content())
                .collect();
            counts.elements += texts.len() as u64;
            spans.time("filter.classify", id, || {
                for text in &texts {
                    black_box(classify(text));
                }
            });
            spans.time("langid.classify_label", id, || {
                for text in &texts {
                    black_box(classify_label(text, native));
                }
            });
            let base = spans.time("audit.audit_page", id, || audit_page(extract));
            let rescored = spans.time("kizuki.evaluate", id, || kizuki.evaluate(extract, &base));
            let gaps = spans.time("audit.gap_report", id, || gap_report(extract));
            let language = spans.time("langid.page_language", id, || page_language(extract));
            black_box(spans.time("kizuki.gap_speech", id, || {
                reader.gap_speech(&gaps, language)
            }));
            spans.exit();
            let same = records.next().is_some_and(|r| {
                r.host == site.plan.host
                    && r.base_score == base.score
                    && r.kizuki_score == rescored.new_score
            });
            mismatches += u64::from(!same);
        }
        let expected = built.dataset.in_country(country).count() as u64;
        rec.check(selected == expected, || {
            format!("{country:?}: replay selected {selected} sites, the build {expected}")
        });
    }
    black_box(spans.time("core.serialize", 0, || {
        let dataset = built.dataset.to_json().expect("dataset serializes");
        (dataset, built.ledger.to_json().expect("ledger serializes"))
    }));
    spans.exit();
    rec.check(mismatches == 0, || {
        format!("{mismatches} replayed sites differ from the dataset in host or score")
    });
    counts
}

/// One unit RPC as seen by the coordinator.
struct UnitCall {
    worker: usize,
    nanos: u64,
    verdict_bytes: usize,
    selected: usize,
}

/// A [`UnitExecutor`] that times every unit RPC of the executor it wraps.
struct TimingExecutor<'a, E: UnitExecutor> {
    inner: &'a E,
    calls: Mutex<Vec<UnitCall>>,
}

impl<E: UnitExecutor> UnitExecutor for TimingExecutor<'_, E> {
    fn execute(
        &self,
        worker: usize,
        attempt: u32,
        request: &UnitRequest,
    ) -> Result<Vec<langcrux_core::dist::WireVerdict>, UnitError> {
        let t = Instant::now();
        let verdicts = self.inner.execute(worker, attempt, request)?;
        let nanos = t.elapsed().as_nanos() as u64;
        let verdict_bytes = serde_json::to_string(&verdicts).map_or(0, |s| s.len());
        let selected = verdicts
            .iter()
            .filter(|v| matches!(v.outcome, WireOutcome::Selected { .. }))
            .count();
        self.calls.lock().expect("timing log").push(UnitCall {
            worker,
            nanos,
            verdict_bytes,
            selected,
        });
        Ok(verdicts)
    }

    fn heartbeat(&self, worker: usize) -> bool {
        self.inner.heartbeat(worker)
    }

    fn revive(&self, worker: usize) -> bool {
        self.inner.revive(worker)
    }
}

/// The traced distributed-build stage: worker spawn and warm-up, then one
/// build through a timing wrapper round the process transport.
pub fn traced_dist(rec: &mut Record, layers: &mut Layers, seed: u64, scale: Scale) {
    let (corpus, _) = setup_corpus(seed, scale);
    let quota = scale.sites_per_country();
    let reference = build_local(&corpus, quota).bytes_digest;
    let (executor, warm_s) = spawn_workers(&corpus);
    let timing = TimingExecutor {
        inner: &executor,
        calls: Mutex::new(Vec::new()),
    };
    let t = Instant::now();
    let build = build_dataset_distributed(&corpus, &timing, &dist_options(quota))
        .expect("an uncheckpointed coordinator never halts");
    let wall_s = secs_since(t);
    let reassignments = build.stats.reassignments;
    let sites = build.dataset.len();
    let built = finish(build.dataset, build.ledger, t, wall_s);
    tally(rec, &built, reference, "traced distributed build");
    let calls = timing.calls.into_inner().expect("timing log");
    drop(executor);
    let rpc_ms: Vec<f64> = calls.iter().map(|c| c.nanos as f64 / 1e6).collect();
    let busy_s: f64 = rpc_ms.iter().sum::<f64>() / 1e3;
    let units = calls.len().max(1) as f64;
    let selected: usize = calls.iter().map(|c| c.selected).sum();
    let workers = calls
        .iter()
        .map(|c| c.worker + 1)
        .max()
        .unwrap_or(1)
        .max(dist_workers());
    layers.put(
        "dist.unit_rpc_ms_p50",
        percentile(&rpc_ms, 50.0).unwrap_or(0.0),
        "ms",
    );
    layers.put(
        "dist.unit_rpc_ms_p99",
        percentile(&rpc_ms, 99.0).unwrap_or(0.0),
        "ms",
    );
    layers.put("dist.units", calls.len() as f64, "count");
    layers.put(
        "dist.verdict_bytes_per_unit",
        calls.iter().map(|c| c.verdict_bytes).sum::<usize>() as f64 / units,
        "bytes",
    );
    layers.put("dist.worker_warmup_ms", warm_s * 1e3, "ms");
    layers.put(
        "dist.worker_busy_share",
        busy_s / (wall_s * workers as f64),
        "ratio",
    );
    layers.put(
        "dist.analysed_beyond_quota",
        selected.saturating_sub(sites) as f64,
        "count",
    );
    layers.put("dist.reassignments", reassignments as f64, "count");
}

/// Worker-process entry point: an audit server on the thread-per-
/// connection core with the unit RPC installed, advertised through the
/// pid/port file the coordinator polls. Exits when its parent goes away,
/// so a coordinator that dies never leaves workers behind.
pub fn run_dist_worker(pidfile: &str) -> ! {
    use langcrux_serve::{RpcHook, ServeConfig, ServeCore};
    use std::sync::Arc;
    extern "C" {
        fn getppid() -> i32;
    }
    // SAFETY: getppid has no preconditions and touches no memory.
    let parent = unsafe { getppid() };
    let state = Arc::new(langcrux_core::WorkerState::new());
    let hook = RpcHook(Arc::new(move |name, body| match name {
        "unit" => Some(match state.handle_unit(body) {
            Ok(json) => (200, json.into_bytes()),
            Err(err) => (400, format!("{err:?}").into_bytes()),
        }),
        _ => None,
    }));
    let server = langcrux_serve::spawn(ServeConfig {
        core: ServeCore::Threaded,
        rpc: Some(hook),
        ..ServeConfig::default()
    })
    .expect("bind worker listener");
    let addr = server.addr();
    let doc = langcrux_serve::PidFileDoc::new(addr.port(), &addr.to_string());
    let path = std::path::Path::new(pidfile);
    if langcrux_serve::claim_pidfile(path, &doc).is_err() {
        eprintln!("worker: {pidfile} is held by a live process");
        std::process::exit(3);
    }
    // SAFETY: as above.
    while unsafe { getppid() } == parent {
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = std::fs::remove_file(path);
    std::process::exit(0);
}
