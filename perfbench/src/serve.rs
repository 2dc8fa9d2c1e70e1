//! The `serve-miss` and `serve-hit` workloads and the traced serve stage.
//!
//! Both run an in-process audit server on the default `ServeConfig`
//! (reactor core, 8 × 256 cache entries) and drive it open-loop from a
//! schedule fixed in advance from the seed. Pages are rendered by
//! `webgen` from the seed; the server receives only their bytes. Every
//! answer is compared with `AuditService::audit_json` of the page sent,
//! computed during set-up.

use crate::common::{nproc, peak_rss_with_children_mib, secs_since, CountingSink, Record, Rng};
use crate::loadgen::{self, Expect, Outcome, Payload, Planned, RunOptions};
use crate::spans::{totals_by_name, Recorder};
use crate::stats::{median, percentile, tail};
use crate::Layers;
use langcrux_audit::{audit_page, gap_report};
use langcrux_crawl::extract_streaming;
use langcrux_html::tokenizer::tokenize_into;
use langcrux_kizuki::{page_language, Kizuki, ScreenReader};
use langcrux_lang::{Country, Language};
use langcrux_net::ContentVariant;
use langcrux_serve::{route, AuditService, CacheKey, Routed, ServeConfig, ServerHandle};
use langcrux_webgen::{render_into, RenderScratch, SitePlan};
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Miss,
    Hit,
}

/// Everything that differs between the two serve workloads.
struct Shape {
    /// Distinct pages sent as single audits.
    audit_pages: usize,
    /// Distinct pages sent inside batches (0: no batches).
    batch_pool: usize,
    batch_size: usize,
    batch_interval_ms: u64,
    /// Latency limit on the tail for a ladder step to pass.
    limit_ms: f64,
    /// Fixed rate of the latency phase (single audits per second): about
    /// a third of `capacity_rps`, so that the host slowing down by half
    /// does not saturate the server.
    reference_rps: f64,
    /// Capacity measured when the benchmark was defined (2-core host);
    /// the ladder walk starts at the step nearest it.
    capacity_rps: f64,
    /// Offered single-audit rates of the capacity ladder, ascending.
    ladder: Vec<f64>,
    /// Zipf exponent of page popularity (`None`: pages in cyclic order).
    zipf: Option<f64>,
}

/// Geometric ladder from `low` to at most `high`, `factor` apart.
fn ladder(low: f64, high: f64, factor: f64) -> Vec<f64> {
    let mut steps = vec![low];
    while steps.last().unwrap() * factor <= high {
        let next = (steps.last().unwrap() * factor).round();
        steps.push(next);
    }
    steps
}

fn shape(mode: Mode) -> Shape {
    match mode {
        // 3072 audit pages + 1024 batch pages cycle through a cache of
        // 2048 entries: every lookup misses and every insert evicts.
        Mode::Miss => Shape {
            audit_pages: 3072,
            batch_pool: 1024,
            batch_size: 8,
            batch_interval_ms: 125,
            limit_ms: 50.0,
            reference_rps: 550.0,
            capacity_rps: 1270.0,
            ladder: ladder(400.0, 2400.0, 1.08),
            zipf: None,
        },
        // 1024 pages fit the cache twice over: after warm-up every lookup
        // hits.
        Mode::Hit => Shape {
            audit_pages: 1024,
            batch_pool: 0,
            batch_size: 0,
            batch_interval_ms: 0,
            limit_ms: 10.0,
            reference_rps: 4000.0,
            capacity_rps: 11987.0,
            ladder: ladder(3000.0, 30000.0, 1.08),
            zipf: Some(0.8),
        },
    }
}

/// Windows the latency phase is read in.
const LATENCY_WINDOWS: usize = 5;

/// Render `n` localized pages from the seed, cycling the study countries.
fn render_pages(seed: u64, n: usize, render_ns: &mut Vec<u64>) -> Vec<String> {
    let mut scratch = RenderScratch::new();
    (0..n)
        .map(|i| {
            let country = Country::STUDY[i % Country::STUDY.len()];
            let plan =
                SitePlan::build(seed, country, (i / Country::STUDY.len()) as u32, Some(true));
            let mut out = String::new();
            let t = Instant::now();
            render_into(
                &plan,
                ContentVariant::Localized,
                "/",
                &mut scratch,
                &mut out,
            );
            render_ns.push(t.elapsed().as_nanos() as u64);
            out
        })
        .collect()
}

/// `AuditService::audit_json` of every page, on `nproc` threads.
fn expected_answers(pages: &[String]) -> Vec<Arc<Vec<u8>>> {
    let threads = nproc().max(1);
    let chunk = pages.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pages
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let service = AuditService::new();
                    part.iter()
                        .map(|p| Arc::new(service.audit_json(p)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("expected-answer thread panicked"))
            .collect()
    })
}

/// The payload table: one single-audit payload per audit page, then one
/// batch payload per `batch_size` pages of the batch pool.
struct Workload {
    shape: Shape,
    payloads: Vec<Payload>,
    /// Payload indices of the batches.
    batches: Vec<usize>,
    /// Cumulative Zipf weights over the audit pages (hit mode).
    zipf_cdf: Vec<f64>,
}

fn workload(shape: Shape, pages: &[String], answers: &[Arc<Vec<u8>>]) -> Workload {
    let mut payloads: Vec<Payload> = (0..shape.audit_pages)
        .map(|i| Payload {
            path: "/v1/audit",
            body: Arc::new(pages[i].as_bytes().to_vec()),
            expect: Expect::Bytes(Arc::clone(&answers[i])),
        })
        .collect();
    let mut batches = Vec::new();
    if shape.batch_size > 0 {
        let pool = shape.audit_pages..shape.audit_pages + shape.batch_pool;
        for start in pool.clone().step_by(shape.batch_size) {
            let range = start..(start + shape.batch_size).min(pool.end);
            let body = serde_json::to_string(&pages[range.clone()].to_vec()).expect("batch body");
            batches.push(payloads.len());
            payloads.push(Payload {
                path: "/v1/batch",
                body: Arc::new(body.into_bytes()),
                expect: Expect::Splice(answers[range].to_vec()),
            });
        }
    }
    let zipf_cdf = match shape.zipf {
        Some(s) => {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (1..=shape.audit_pages)
                .map(|rank| {
                    acc += 1.0 / (rank as f64).powf(s);
                    acc
                })
                .collect();
            for w in &mut cdf {
                *w /= acc;
            }
            cdf
        }
        None => Vec::new(),
    };
    Workload {
        shape,
        payloads,
        batches,
        zipf_cdf,
    }
}

/// Where the next step's requests continue: miss mode walks pages and
/// batches cyclically across steps, hit mode draws from the seeded
/// generator.
struct Cursor {
    audit: usize,
    batch: usize,
    rng: Rng,
}

fn connections() -> usize {
    nproc().clamp(1, 2)
}

/// The fixed schedule of one step: single audits at `rate` per second,
/// evenly spaced, for `secs`; in miss mode one batch every interval on
/// the last connection.
fn step_plan(w: &Workload, rate: f64, secs: f64, cursor: &mut Cursor) -> Vec<Planned> {
    let conns = connections();
    let audit_conns = if w.batches.is_empty() {
        conns
    } else {
        (conns - 1).max(1)
    };
    let n = (rate * secs).round() as usize;
    let gap_ns = 1e9 / rate;
    let mut plan: Vec<Planned> = (0..n)
        .map(|i| {
            let page = if w.zipf_cdf.is_empty() {
                cursor.audit += 1;
                (cursor.audit - 1) % w.shape.audit_pages
            } else {
                let u = cursor.rng.next_f64();
                w.zipf_cdf
                    .partition_point(|&c| c < u)
                    .min(w.shape.audit_pages - 1)
            };
            Planned {
                due_ns: (i as f64 * gap_ns) as u64,
                conn: i % audit_conns,
                payload: page,
            }
        })
        .collect();
    if !w.batches.is_empty() {
        let interval_ns = w.shape.batch_interval_ms * 1_000_000;
        let span_ns = (secs * 1e9) as u64;
        let mut due = interval_ns / 2;
        while due < span_ns {
            plan.push(Planned {
                due_ns: due,
                conn: conns - 1,
                payload: w.batches[cursor.batch % w.batches.len()],
            });
            cursor.batch += 1;
            due += interval_ns;
        }
        plan.sort_by_key(|p| p.due_ns);
    }
    plan
}

/// What one step showed.
struct Step {
    rate: f64,
    /// Single-audit latencies from the due time; failures are infinite.
    latencies_ms: Vec<f64>,
    /// Due time of each entry of `latencies_ms`.
    audit_due_ns: Vec<u64>,
    /// Requests answered with a wrong status or body.
    wrong: u64,
    /// Requests with no answer by the end of the step.
    unanswered: u64,
    sent: u64,
    lag_p99_ms: f64,
    /// Requests sent but unanswered when the last one fell due.
    backlog_end: u64,
    batch_pages_done: u64,
    /// Answered single audits per second, first due time to last answer.
    achieved_rps: f64,
}

impl Step {
    fn passes(&self, limit_ms: f64) -> bool {
        let allowed = (self.rate * limit_ms / 1e3).ceil().max(4.0) as u64;
        self.wrong == 0
            && self.unanswered == 0
            && self.backlog_end <= allowed
            && tail(&self.latencies_ms).is_some_and(|t| t.value <= limit_ms)
    }
}

fn run_step(addr: SocketAddr, w: &Workload, rate: f64, secs: f64, cursor: &mut Cursor) -> Step {
    let plan = step_plan(w, rate, secs, cursor);
    let drain = Duration::from_millis((w.shape.limit_ms * 20.0) as u64 + 500);
    let outcomes = loadgen::run(addr, &plan, &w.payloads, &RunOptions { drain, stall: None })
        .expect("connect to the audit server");
    summarize(w, rate, &plan, &outcomes)
}

fn summarize(w: &Workload, rate: f64, plan: &[Planned], outcomes: &[Outcome]) -> Step {
    let end_ns = plan.iter().map(|p| p.due_ns).max().unwrap_or(0);
    let mut step = Step {
        rate,
        latencies_ms: Vec::new(),
        audit_due_ns: Vec::new(),
        wrong: 0,
        unanswered: 0,
        sent: outcomes.len() as u64,
        lag_p99_ms: percentile(
            &outcomes.iter().map(Outcome::lag_ms).collect::<Vec<_>>(),
            99.0,
        )
        .unwrap_or(0.0),
        backlog_end: 0,
        batch_pages_done: 0,
        achieved_rps: 0.0,
    };
    let mut last_done = 0u64;
    let mut answered_audits = 0u64;
    for (p, o) in plan.iter().zip(outcomes) {
        let is_batch = w.payloads[p.payload].path == "/v1/batch";
        if o.sent_ns <= end_ns && o.done_ns.is_none_or(|d| d > end_ns) {
            step.backlog_end += 1;
        }
        match o.done_ns {
            None => step.unanswered += 1,
            Some(_) if !o.ok => step.wrong += 1,
            Some(_) if is_batch => step.batch_pages_done += w.shape.batch_size as u64,
            Some(done) => {
                answered_audits += 1;
                last_done = last_done.max(done);
            }
        }
        if !is_batch {
            step.latencies_ms
                .push(o.latency_ms().unwrap_or(f64::INFINITY));
            step.audit_due_ns.push(o.due_ns);
        }
    }
    if last_done > 0 {
        step.achieved_rps = answered_audits as f64 / (last_done as f64 / 1e9);
    }
    step
}

/// Block until the server has stopped answering leftovers of an
/// overloaded step: its request counters stop moving.
fn settle(server: &ServerHandle) {
    let mut last = u64::MAX;
    for _ in 0..100 {
        let stats = server.state().stats();
        let now = stats.requests.audit + stats.requests.batch_pages;
        if now == last {
            return;
        }
        last = now;
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Send `pages` through `/v1/batch` in bodies of at most ~1.5 MB and
/// check every answer. Returns the number of wrong answers.
fn warm_cache(addr: SocketAddr, pages: &[String], answers: &[Arc<Vec<u8>>]) -> u64 {
    let mut stream = TcpStream::connect(addr).expect("connect for warm-up");
    let mut scratch = Vec::new();
    let mut wrong = 0;
    let mut start = 0;
    while start < pages.len() {
        let mut end = start;
        let mut bytes = 0;
        while end < pages.len() && (end == start || bytes + pages[end].len() < 1_500_000) {
            bytes += pages[end].len() + 16;
            end += 1;
        }
        let body = serde_json::to_string(&pages[start..end].to_vec()).expect("batch body");
        let expect = Expect::Splice(answers[start..end].to_vec());
        match langcrux_serve::loadgen::post(&mut stream, "/v1/batch", body.as_bytes(), &mut scratch)
        {
            Ok((200, got)) if expect.matches(&got) => {}
            _ => wrong += (end - start) as u64,
        }
        start = end;
    }
    wrong
}

/// One set-up: render the pages, spawn the server, warm its cache.
struct Setup {
    pages: Vec<String>,
    server: ServerHandle,
    render_ns: Vec<u64>,
    seconds: f64,
}

fn set_up(
    mode: Mode,
    seed: u64,
    pages_needed: usize,
    answers: &mut Option<Vec<Arc<Vec<u8>>>>,
    rec: &mut Record,
) -> Setup {
    let shape = shape(mode);
    let mut render_ns = Vec::new();
    let t = Instant::now();
    let pages = render_pages(seed, pages_needed, &mut render_ns);
    let render_s = secs_since(t);
    // The expected answers are the check's cost, not the server's: they
    // are computed once and kept out of the set-up time.
    let answers = answers.get_or_insert_with(|| expected_answers(&pages));
    let t = Instant::now();
    let server = langcrux_serve::spawn(ServeConfig::default()).expect("spawn audit server");
    let warm = match mode {
        // Fill the cache with the pages the schedule reaches last, so it
        // is full and evicting from the first timed request on.
        Mode::Miss => {
            let capacity = 8 * 256;
            let from = shape.audit_pages.saturating_sub(capacity);
            from..shape.audit_pages
        }
        Mode::Hit => 0..shape.audit_pages,
    };
    let wrong = warm_cache(server.addr(), &pages[warm.clone()], &answers[warm.clone()]);
    rec.attempted += warm.len() as u64;
    rec.failed += wrong;
    rec.check(wrong == 0, || format!("{wrong} warm-up answers were wrong"));
    Setup {
        pages,
        server,
        render_ns,
        seconds: render_s + secs_since(t),
    }
}

fn pages_needed(mode: Mode) -> usize {
    let s = shape(mode);
    s.audit_pages + s.batch_pool
}

fn record_shape(rec: &mut Record, mode: Mode, w: &Workload) {
    let s = &w.shape;
    rec.size("mode", format!("{mode:?}"));
    rec.size("audit_pages", s.audit_pages);
    rec.size("batch_pool_pages", s.batch_pool);
    rec.size("batch_size", s.batch_size);
    rec.size("batch_interval_ms", s.batch_interval_ms);
    rec.size("limit_ms", s.limit_ms);
    rec.size("reference_rps", s.reference_rps);
    rec.size("capacity_rps_at_definition", s.capacity_rps);
    rec.size("ladder_rps", format!("{:?}", s.ladder));
    rec.size("zipf_exponent", format!("{:?}", s.zipf));
    rec.size("connections", connections());
    rec.size("cache", "8 shards x 256 entries");
}

/// Count a step's requests into the record. Wrong answers always fail the
/// run; unanswered requests fail it only when `strict` (the latency phase
/// runs well below capacity, ladder steps above it may not be answered).
fn tally(rec: &mut Record, step: &Step, strict: bool, what: &str) {
    rec.attempted += step.sent;
    rec.failed += step.wrong;
    rec.check(step.wrong == 0, || {
        format!("{what}: {} answers had a wrong status or body", step.wrong)
    });
    if strict {
        rec.failed += step.unanswered;
        rec.check(step.unanswered == 0, || {
            format!("{what}: {} requests unanswered", step.unanswered)
        });
    }
}

/// Run ladder step `i`; a failing step is run a second time, and fails
/// only if both attempts fail, so one stall of the host cannot end the
/// search early.
fn probe_step(
    rec: &mut Record,
    server: &ServerHandle,
    w: &Workload,
    i: usize,
    secs: f64,
    cursor: &mut Cursor,
    log: &mut Vec<String>,
) -> Option<Step> {
    let rate = w.shape.ladder[i];
    for _ in 0..2 {
        let step = run_step(server.addr(), w, rate, secs, cursor);
        tally(rec, &step, false, "ladder step");
        let pass = step.passes(w.shape.limit_ms);
        log.push(format!("{rate}:{}", if pass { "pass" } else { "fail" }));
        if pass {
            return Some(step);
        }
        settle(server);
    }
    None
}

/// The highest ladder step that passes. The walk starts at the step
/// nearest the capacity measured when the benchmark was defined and
/// moves one step at a time: up while steps pass, or down until one
/// passes.
fn search_ladder(
    rec: &mut Record,
    server: &ServerHandle,
    w: &Workload,
    secs: f64,
    cursor: &mut Cursor,
) -> Option<Step> {
    let ladder = &w.shape.ladder;
    let target = w.shape.capacity_rps;
    let start = (0..ladder.len())
        .min_by(|&a, &b| {
            (ladder[a] - target)
                .abs()
                .total_cmp(&(ladder[b] - target).abs())
        })
        .expect("non-empty ladder");
    let mut log = Vec::new();
    let mut best = probe_step(rec, server, w, start, secs, cursor, &mut log);
    if best.is_some() {
        for i in start + 1..ladder.len() {
            match probe_step(rec, server, w, i, secs, cursor, &mut log) {
                Some(step) => best = Some(step),
                None => break,
            }
        }
    } else {
        for i in (0..start).rev() {
            best = probe_step(rec, server, w, i, secs, cursor, &mut log);
            if best.is_some() {
                break;
            }
        }
    }
    rec.size("ladder_probes", log.join(" "));
    best
}

pub fn run_serve(rec: &mut Record, mode: Mode, seed: u64, seconds: f64) {
    let mut answers = None;
    let mut setups = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..crate::build::SETUP_REPEATS {
        if let Some(old) = current.take() {
            old.server.shutdown();
        }
        let setup = set_up(mode, seed, pages_needed(mode), &mut answers, rec);
        setups.push(setup.seconds);
        current = Some(setup);
    }
    let setup = current.expect("set up at least once");
    let answers = answers.expect("answers computed in set-up");
    let w = workload(shape(mode), &setup.pages, &answers);
    record_shape(rec, mode, &w);
    let mut cursor = Cursor {
        audit: 0,
        batch: 0,
        rng: Rng::new(seed, 0x5E7E),
    };

    // Latency phase at the fixed reference rate, read in windows by due
    // time: the p50 and tail recorded are the medians of the windows'.
    let latency_secs = seconds * 0.25;
    let step = run_step(
        setup.server.addr(),
        &w,
        w.shape.reference_rps,
        latency_secs,
        &mut cursor,
    );
    tally(rec, &step, true, "latency phase");
    let window_ns = (latency_secs * 1e9 / LATENCY_WINDOWS as f64) as u64;
    let mut windows = vec![Vec::new(); LATENCY_WINDOWS];
    for (&due, &ms) in step.audit_due_ns.iter().zip(&step.latencies_ms) {
        windows[((due / window_ns.max(1)) as usize).min(LATENCY_WINDOWS - 1)].push(ms);
    }
    let tails: Vec<_> = windows.iter().filter_map(|w| tail(w)).collect();
    let p50s: Vec<f64> = windows.iter().filter_map(|w| median(w)).collect();
    rec.size("latency_windows", LATENCY_WINDOWS);
    rec.size(
        "latency_window_samples",
        format!("{:?}", tails.iter().map(|t| t.samples).collect::<Vec<_>>()),
    );
    rec.size(
        "latency_window_tail_percentiles",
        format!(
            "{:?}",
            tails.iter().map(|t| t.percentile).collect::<Vec<_>>()
        ),
    );
    rec.size("latency_phase_lag_p99_ms", step.lag_p99_ms);
    rec.size("latency_phase_backlog_end", step.backlog_end);
    let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    rec.size("latency_window_tails_ms", format!("{tail_values:.3?}"));
    rec.size("latency_window_p50s_ms", format!("{p50s:.4?}"));
    // The latencies are recorded, not reported as bounded metrics: on a
    // shared 2-vCPU host their run-to-run spread is wider than any bound.
    rec.size("latency_tail_ms", median(&tail_values).expect("samples"));
    rec.size("latency_p50_ms", median(&p50s).expect("samples"));
    settle(&setup.server);
    // Peak memory through set-up and the latency phase: ladder steps above
    // capacity queue requests in the server, so their memory depends on how
    // far the host let the walk go.
    rec.metric("peak_rss_mb", peak_rss_with_children_mib(), "MiB");

    // Capacity: a walk over the fixed ladder.
    let ladder_secs = seconds * 0.15;
    rec.size("ladder_step_secs", ladder_secs);
    match search_ladder(rec, &setup.server, &w, ladder_secs, &mut cursor) {
        Some(best) => {
            rec.size("max_rate_step_rps", best.rate);
            rec.metric("throughput_per_s", best.achieved_rps, "1/s");
        }
        None => {
            rec.check(false, || "no ladder step met the latency limit".to_string());
            rec.metric("throughput_per_s", w.shape.ladder[0] / 2.0, "1/s");
        }
    }
    rec.metric("setup_s", median(&setups).expect("setups"), "s");
    setup.server.shutdown();
}

/// Server-side figures read from `GET /v1/stats`.
struct ServerStats {
    /// `(upper bound µs, cumulative count)` of the latency histogram.
    buckets: Vec<(u64, u64)>,
    requests: u64,
    ready_events: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

fn fetch_stats(addr: SocketAddr) -> ServerStats {
    let mut stream = TcpStream::connect(addr).expect("connect for stats");
    let mut scratch = Vec::new();
    let (status, body) = langcrux_serve::loadgen::get(&mut stream, "/v1/stats", &mut scratch)
        .expect("GET /v1/stats");
    assert_eq!(status, 200, "GET /v1/stats");
    let doc: serde::Value =
        serde_json::from_str(std::str::from_utf8(&body).expect("utf-8 stats")).expect("stats json");
    let num = |v: Option<&serde::Value>| -> u64 {
        match v {
            Some(serde::Value::UInt(n)) => *n,
            Some(serde::Value::Int(n)) => *n as u64,
            Some(serde::Value::Float(f)) => *f as u64,
            _ => 0,
        }
    };
    let get = |path: &[&str]| -> Option<&serde::Value> {
        path.iter().try_fold(&doc, |v, key| v.get(key))
    };
    let buckets = get(&["latency", "buckets"])
        .and_then(|b| b.as_array())
        .unwrap_or(&[])
        .iter()
        .map(|b| (num(b.get("upper_us")), num(b.get("cumulative"))))
        .collect();
    ServerStats {
        buckets,
        requests: num(get(&["requests", "audit"])) + num(get(&["requests", "batch"])),
        ready_events: num(get(&["reactor", "ready_events"])),
        hits: num(get(&["cache", "hits"])),
        misses: num(get(&["cache", "misses"])),
        evictions: num(get(&["cache", "evictions"])),
    }
}

/// Quantile `q` of the requests recorded between two readings of the
/// server's cumulative latency histogram, in µs, interpolated linearly
/// inside the bucket it falls in (the series lists occupied buckets only,
/// so the previous listed bound stands in for the bucket's lower bound).
fn histogram_delta_quantile(before: &[(u64, u64)], after: &[(u64, u64)], q: f64) -> f64 {
    let at = |series: &[(u64, u64)], bound: u64| {
        series
            .iter()
            .take_while(|(b, _)| *b <= bound)
            .last()
            .map_or(0, |(_, c)| *c)
    };
    let total = after.last().map_or(0, |b| b.1) - before.last().map_or(0, |b| b.1);
    let rank = (q * total as f64).ceil().max(1.0);
    let (mut lower, mut below) = (0.0, 0.0);
    for &(bound, cum) in after {
        let count = (cum - at(before, bound)) as f64;
        if count >= rank {
            if bound == u64::MAX {
                return lower;
            }
            return lower + (rank - below) / (count - below) * (bound as f64 - lower);
        }
        (lower, below) = (bound as f64, count);
    }
    lower
}

/// The traced serve stage: set-up, one open-loop step at the reference
/// rate read through `/v1/stats`, then a serial replay of the page set
/// through the server's router, its cache and the audit engine's parts.
/// `small` runs a short step over a slice of the pages (for workloads
/// that do not serve).
pub fn traced_serve(
    rec: &mut Record,
    layers: &mut Layers,
    mode: Mode,
    seed: u64,
    small: bool,
    out: &str,
) {
    let needed = if small { 256 } else { pages_needed(mode) };
    let mut answers = None;
    let setup = if small {
        let mut render_ns = Vec::new();
        let pages = render_pages(seed, needed, &mut render_ns);
        answers = Some(expected_answers(&pages));
        let server = langcrux_serve::spawn(ServeConfig::default()).expect("spawn audit server");
        Setup {
            pages,
            server,
            render_ns,
            seconds: 0.0,
        }
    } else {
        set_up(mode, seed, needed, &mut answers, rec)
    };
    let answers = answers.expect("answers computed");
    let stage_shape = if small {
        // Every page once: single audits, and in miss mode the last 64
        // pages in batches.
        let batch_pool = if mode == Mode::Miss { 64 } else { 0 };
        Shape {
            audit_pages: needed - batch_pool,
            batch_pool,
            zipf: None,
            ..shape(mode)
        }
    } else {
        shape(mode)
    };
    let mut w = workload(stage_shape, &setup.pages, &answers);
    let mut cursor = Cursor {
        audit: 0,
        batch: 0,
        rng: Rng::new(seed, 0x5E7E),
    };
    let secs = if small { 1.0 } else { 3.0 };
    if small {
        // One pass over the distinct pages.
        w.shape.reference_rps = w.shape.reference_rps.min(w.shape.audit_pages as f64 / secs);
    }
    let addr = setup.server.addr();
    let before = fetch_stats(addr);
    let step = run_step(addr, &w, w.shape.reference_rps, secs, &mut cursor);
    let after = fetch_stats(addr);
    tally(rec, &step, true, "traced step");
    let requests = (after.requests - before.requests).max(1);
    let server_p50 = histogram_delta_quantile(&before.buckets, &after.buckets, 0.50);
    let server_p99 = histogram_delta_quantile(&before.buckets, &after.buckets, 0.99);
    let lookups = (after.hits + after.misses - before.hits - before.misses).max(1);
    let client_p50 = median(&step.latencies_ms).unwrap_or(0.0);
    layers.put("serve.server_p50_us", server_p50, "us");
    layers.put("serve.server_p99_us", server_p99, "us");
    layers.put("serve.wait_p50_ms", client_p50 - server_p50 / 1e3, "ms");
    layers.put(
        "serve.cache_hit_share",
        (after.hits - before.hits) as f64 / lookups as f64,
        "ratio",
    );
    layers.put(
        "serve.cache_evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    layers.put(
        "serve.reactor_events_per_request",
        (after.ready_events - before.ready_events) as f64 / requests as f64,
        "count",
    );
    layers.put("serve.batch_pages", step.batch_pages_done as f64, "count");
    layers.put("loadgen.sent", step.sent as f64, "count");
    layers.put("loadgen.lag_p99_ms", step.lag_p99_ms, "ms");
    layers.put("loadgen.backlog_end", step.backlog_end as f64, "count");
    let render_us: Vec<f64> = setup.render_ns.iter().map(|&n| n as f64 / 1e3).collect();
    layers.put(
        "webgen.render_us_per_page",
        render_us.iter().sum::<f64>() / render_us.len().max(1) as f64,
        "us",
    );
    layers.put("webgen.pages_rendered", render_us.len() as f64, "count");

    // Replay: each page through the router (the server's own state, so
    // the cache behaves as in the workload), the cache alone, and the
    // engine's parts.
    let replay_pages = if small {
        needed
    } else {
        w.shape.audit_pages.min(1024)
    };
    let mut spans = Recorder::new();
    let state = setup.server.state();
    let service = AuditService::new();
    let kizuki = Kizuki::standard();
    let reader = ScreenReader::voiceover_like();
    let mut wrong = 0u64;
    spans.enter("replay.serve", 0);
    for (i, page) in setup.pages[..replay_pages].iter().enumerate() {
        let id = i as u64 + 1;
        spans.enter("replay.request", id);
        let request = langcrux_serve::Request {
            method: "POST".to_string(),
            path: "/v1/audit".to_string(),
            headers: Vec::new(),
            body: page.as_bytes().to_vec(),
        };
        let routed = spans.time("serve.route", id, || route(state, &request));
        let key = CacheKey::of(page.as_bytes());
        black_box(spans.time("serve.cache_get", id, || state.cache.get(key)));
        let json = spans.time("serve.audit_json", id, || service.audit_json(page));
        black_box(spans.time("serve.audit", id, || service.audit(page)));
        let value = Arc::new(json);
        spans.time("serve.cache_insert", id, || {
            state.cache.insert(key, Arc::clone(&value))
        });
        let extract = spans.time("crawl.extract", id, || extract_streaming(page));
        let mut sink = CountingSink::default();
        spans.time("html.tokenize", id, || tokenize_into(page, &mut sink));
        black_box(sink.0);
        let base = spans.time("audit.audit_page", id, || audit_page(&extract));
        black_box(spans.time("kizuki.evaluate", id, || kizuki.evaluate(&extract, &base)));
        let language = spans.time("langid.page_language", id, || page_language(&extract));
        let gaps = spans.time("audit.gap_report", id, || gap_report(&extract));
        black_box(spans.time("kizuki.gap_speech", id, || {
            reader.gap_speech(&gaps, language)
        }));
        black_box(spans.time("kizuki.announce", id, || {
            reader.announce_page(&extract, language.unwrap_or(Language::English))
        }));
        spans.exit();
        let routed_ok = matches!(&routed, Routed::Response(r)
            if r.status == 200 && r.body.as_slice() == answers[i].as_slice());
        wrong += u64::from(!routed_ok || value.as_slice() != answers[i].as_slice());
    }
    spans.exit();
    rec.attempted += replay_pages as u64;
    rec.failed += wrong;
    rec.check(wrong == 0, || {
        format!("{wrong} replayed answers differ from the expected bytes")
    });

    let s = spans.spans();
    let totals = totals_by_name(s);
    let per = |name: &str| totals.get(name).map_or(0.0, |t| t.us_per_call());
    layers.put("serve.route_us_per_request", per("serve.route"), "us");
    layers.put(
        "serve.audit_json_us_per_page",
        per("serve.audit_json"),
        "us",
    );
    layers.put(
        "serve.encode_us_per_page",
        per("serve.audit_json") - per("serve.audit"),
        "us",
    );
    layers.put("serve.cache_get_us", per("serve.cache_get"), "us");
    layers.put("serve.cache_insert_us", per("serve.cache_insert"), "us");
    layers.put("crawl.extract_us_per_page", per("crawl.extract"), "us");
    layers.put("html.tokenize_us_per_page", per("html.tokenize"), "us");
    layers.put(
        "audit.audit_page_us_per_page",
        per("audit.audit_page"),
        "us",
    );
    layers.put(
        "audit.gap_report_us_per_page",
        per("audit.gap_report"),
        "us",
    );
    layers.put("kizuki.evaluate_us_per_page", per("kizuki.evaluate"), "us");
    layers.put(
        "kizuki.gap_speech_us_per_page",
        per("kizuki.gap_speech"),
        "us",
    );
    layers.put("kizuki.announce_us_per_page", per("kizuki.announce"), "us");
    layers.put(
        "langid.page_language_us_per_page",
        per("langid.page_language"),
        "us",
    );
    let share = crate::build::unattributed_share(rec, s);
    layers.put("core.unattributed_share", share, "ratio");
    if let Err(e) = spans.write(&crate::common::out_dir().join(format!("{out}-serve-spans.json"))) {
        rec.check(false, || format!("writing the serve span file: {e}"));
    }
    setup.server.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantile_interpolates_within_the_delta() {
        // 10 requests before, then 100 more: 50 in (0,100] and 50 in
        // (100,200] µs.
        let before = [(100, 10)];
        let after = [(100, 60), (200, 110)];
        assert_eq!(histogram_delta_quantile(&before, &after, 0.5), 100.0);
        assert_eq!(histogram_delta_quantile(&before, &after, 0.25), 50.0);
        assert_eq!(histogram_delta_quantile(&before, &after, 0.99), 198.0);
    }

    #[test]
    fn ladder_is_geometric_and_bounded() {
        let steps = ladder(400.0, 2400.0, 1.08);
        assert_eq!(steps[0], 400.0);
        assert!(*steps.last().unwrap() <= 2400.0);
        for pair in steps.windows(2) {
            let ratio = pair[1] / pair[0];
            assert!((1.07..1.09).contains(&ratio), "{pair:?}");
        }
    }
}
