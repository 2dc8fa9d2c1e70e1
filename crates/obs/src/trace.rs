//! Deterministic span tracing for the langcrux pipeline.
//!
//! [`start`] opens a *trace session* and makes it the calling thread's
//! trace context until [`TraceSession::finish`]. A thread records spans
//! only inside a session's context: the starting thread, plus any thread
//! running a task under a [`Context::fence`] opened from a [`context`]
//! captured inside the session. Each recording thread lazily registers a
//! fixed-capacity, single-producer span buffer ("worker ring") with its
//! session and appends completed spans to it with no locks on the hot
//! path; `finish` merges the session's rings into a [`TraceReport`].
//!
//! Sessions are independent values, not a process-wide mode: any number
//! may be live at once on different threads, `start` never waits for
//! another session, and work done outside a session's context — an
//! untraced build beside a traced one, a server thread — never lands in
//! its report.
//!
//! # Zero cost when disabled
//!
//! [`span`], [`virtual_wait`], [`context`] and [`Context::fence`] begin
//! with a single `Relaxed` load of the count of live sessions and return
//! an inert value when it is zero — no TLS access, no allocation, no time
//! reads. While some session is live, a thread outside every session's
//! context pays one TLS read per call, takes no lock and registers no
//! ring. The overhead of tracing is CI-gated (see `ObservabilityRecord`
//! in `langcrux-bench`).
//!
//! # Determinism contract
//!
//! Wall-clock fields (`start_us`, `dur_us`) vary run to run, and which
//! worker recorded a span depends on which dispatcher thread picked up
//! the work unit. Everything else is deterministic: span *names*, *keys*,
//! *counts*, fence-relative *depths*, and *virtual-clock durations* are
//! pure functions of `(seed, fault plan, scale)` — the canonical view is
//! [`TraceReport::structure_digest`], which is byte-identical across
//! worker counts and repeat runs (tested in `tests/trace_export.rs`).
//!
//! # Carrying the context to workers
//!
//! A spawner captures [`context`] once and runs each task under
//! `ctx.fence()`, on whichever thread picks the task up. The fence
//! installs the captured session and makes span depth relative to the
//! task rather than the thread. Without the depth reset, a
//! single-threaded run (pool tasks inlined on the caller thread under an
//! open orchestration span) would record different depths than a
//! multi-threaded one.

use std::cell::{RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. `name`/`key`/`depth`/`virtual_ms` are
/// deterministic; `start_us`/`dur_us` are wall-clock (µs since the
/// session started).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static stage name, e.g. `"crawl.fetch"`.
    pub name: &'static str,
    /// Deterministic discriminator within a stage (host hash, wave
    /// ordinal, country index, …).
    pub key: u64,
    /// Nesting depth relative to the enclosing [`Context::fence`].
    pub depth: u32,
    /// Wall-clock start, µs since the session epoch.
    pub start_us: u64,
    /// Wall-clock duration in µs.
    pub dur_us: u64,
    /// Virtual-clock milliseconds attributed to the span (crawl backoff
    /// and breaker waits tick a simulated clock, not the wall).
    pub virtual_ms: u64,
}

impl SpanRecord {
    const EMPTY: SpanRecord = SpanRecord {
        name: "",
        key: 0,
        depth: 0,
        start_us: 0,
        dur_us: 0,
        virtual_ms: 0,
    };
}

/// Trace session parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Span slots per worker ring. When a ring fills, further spans on
    /// that worker are counted in `dropped_spans` instead of recorded —
    /// never silently lost.
    pub capacity_per_worker: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // 64 Ki spans ≈ 3 MiB per worker: comfortably holds a Default
        // scale build; Full scale overflows by design (and reports it).
        TraceConfig {
            capacity_per_worker: 64 * 1024,
        }
    }
}

/// Single-producer span buffer owned by one thread via TLS. The producer
/// writes a slot then publishes it with a `Release` store of `len`; the
/// merging reader loads `len` with `Acquire` and reads only below it, so
/// a straggling producer can never race the reader onto the same slot.
struct WorkerRing {
    worker: u32,
    /// The session's start; span times are µs since it.
    origin: Instant,
    slots: Box<[UnsafeCell<SpanRecord>]>,
    len: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: slots below `len` are immutable once published (Release store
// by the unique producer, Acquire load by readers); slots at or above
// `len` are touched only by the producer thread.
unsafe impl Sync for WorkerRing {}
unsafe impl Send for WorkerRing {}

impl WorkerRing {
    fn new(worker: u32, origin: Instant, capacity: usize) -> WorkerRing {
        WorkerRing {
            worker,
            origin,
            slots: (0..capacity.max(1))
                .map(|_| UnsafeCell::new(SpanRecord::EMPTY))
                .collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer-side append; counts (never silently drops) overflow.
    fn push(&self, record: SpanRecord) {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: single producer; slot `i` is unpublished.
        unsafe { *self.slots[i].get() = record };
        self.len.store(i + 1, Ordering::Release);
    }

    /// Reader-side snapshot of all published spans.
    fn drain(&self) -> Vec<SpanRecord> {
        let n = self.len.load(Ordering::Acquire);
        // SAFETY: slots below `n` are published and immutable.
        (0..n).map(|i| unsafe { *self.slots[i].get() }).collect()
    }
}

/// One live session: its configuration, its start instant and the rings
/// its threads registered.
struct Session {
    config: TraceConfig,
    origin: Instant,
    rings: Mutex<Vec<Arc<WorkerRing>>>,
}

impl Session {
    /// Register a ring for the calling thread (once per thread).
    fn register(&self) -> Arc<WorkerRing> {
        let mut rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let ring = Arc::new(WorkerRing::new(
            rings.len() as u32,
            self.origin,
            self.config.capacity_per_worker,
        ));
        rings.push(Arc::clone(&ring));
        ring
    }
}

/// Sessions started and not yet finished. While it is zero no thread can
/// be inside a session's context, so one `Relaxed` load decides
/// span/fence inertness. `Relaxed` suffices because the count publishes
/// nothing: a thread enters a context only on the starting thread after
/// the increment, or through a [`Context`] handed over by a spawn or a
/// lock, which orders the increment before the entry.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Tls {
    /// The session this thread records into, if any.
    session: Option<Arc<Session>>,
    /// This thread's ring and the session it belongs to. It outlives the
    /// fences of that session, so a pool worker reuses one ring for
    /// every task it runs.
    ring: Option<(Arc<Session>, Arc<WorkerRing>)>,
    depth: u32,
    base: u32,
}

impl Tls {
    /// The ring this thread records into, registered on its first span
    /// in the session; `None` outside every session's context.
    fn ring(&mut self) -> Option<Arc<WorkerRing>> {
        let session = self.session.as_ref()?;
        if let Some((owner, ring)) = &self.ring {
            if Arc::ptr_eq(owner, session) {
                return Some(Arc::clone(ring));
            }
        }
        let ring = session.register();
        self.ring = Some((Arc::clone(session), Arc::clone(&ring)));
        Some(ring)
    }
}

thread_local! {
    static TLS: RefCell<Tls> = const {
        RefCell::new(Tls {
            session: None,
            ring: None,
            depth: 0,
            base: 0,
        })
    };
}

/// Does the calling thread record spans — is it inside a session's
/// context? Sessions on other threads do not count.
#[inline]
pub fn enabled() -> bool {
    LIVE.load(Ordering::Relaxed) != 0 && TLS.with(|t| t.borrow().session.is_some())
}

/// Start a trace session and make it the calling thread's trace context
/// until [`TraceSession::finish`]. Never blocks: sessions on other
/// threads are independent, and a session started inside another one's
/// context takes over this thread's recording until it finishes.
pub fn start(config: TraceConfig) -> TraceSession {
    let session = Arc::new(Session {
        config,
        origin: Instant::now(),
        rings: Mutex::new(Vec::new()),
    });
    LIVE.fetch_add(1, Ordering::Relaxed);
    TraceSession {
        _context: Fence::enter(Some(Arc::clone(&session))),
        session,
    }
}

/// Handle to a live session; finish it to collect the report. Spans
/// recorded after `finish` (or on a ring that filled) are dropped with
/// accounting, never corrupted.
///
/// The session is the starting thread's trace context, so it must be
/// finished on that thread; it is not `Send`:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<langcrux_obs::trace::TraceSession>();
/// ```
#[must_use = "finish() collects the report; dropping ends the session empty"]
pub struct TraceSession {
    session: Arc<Session>,
    /// Restores the thread's previous context on drop.
    _context: Fence,
}

impl TraceSession {
    /// End the session and merge every worker ring into a report. The
    /// caller must have joined all traced work first; spans still open
    /// on other threads are not recorded.
    pub fn finish(self) -> TraceReport {
        let rings = self.session.rings.lock().unwrap_or_else(|e| e.into_inner());
        let mut workers: Vec<WorkerTrace> = rings
            .iter()
            .map(|ring| WorkerTrace {
                worker: ring.worker,
                dropped: ring.dropped.load(Ordering::Relaxed),
                spans: ring.drain(),
            })
            .collect();
        workers.sort_by_key(|w| w.worker);
        TraceReport {
            capacity_per_worker: self.session.config.capacity_per_worker,
            dropped_spans: workers.iter().map(|w| w.dropped).sum(),
            workers,
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        // Free this thread's ring now rather than at its next session.
        TLS.with(|t| {
            let mut tls = t.borrow_mut();
            if tls
                .ring
                .as_ref()
                .is_some_and(|(owner, _)| Arc::ptr_eq(owner, &self.session))
            {
                tls.ring = None;
            }
        });
    }
}

/// RAII span guard. Records on drop; inert (a no-op shell) outside every
/// session's context.
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    data: Option<SpanData>,
}

struct SpanData {
    name: &'static str,
    key: u64,
    ring: Arc<WorkerRing>,
    depth: u32,
    start: Instant,
    virtual_ms: u64,
}

/// Open a span for `name` with a deterministic `key`. One relaxed atomic
/// load when no session is live.
#[inline]
pub fn span(name: &'static str, key: u64) -> Span {
    if LIVE.load(Ordering::Relaxed) == 0 {
        return Span { data: None };
    }
    span_slow(name, key)
}

#[cold]
fn span_slow(name: &'static str, key: u64) -> Span {
    TLS.with(|t| {
        let mut tls = t.borrow_mut();
        let Some(ring) = tls.ring() else {
            return Span { data: None };
        };
        let depth = tls.depth - tls.base;
        tls.depth += 1;
        Span {
            data: Some(SpanData {
                name,
                key,
                ring,
                depth,
                start: Instant::now(),
                virtual_ms: 0,
            }),
        }
    })
}

impl Span {
    /// Attribute virtual-clock milliseconds to this span (replaces).
    #[inline]
    pub fn set_virtual_ms(&mut self, ms: u64) {
        if let Some(d) = self.data.as_mut() {
            d.virtual_ms = ms;
        }
    }

    /// Attribute additional virtual-clock milliseconds to this span.
    #[inline]
    pub fn add_virtual_ms(&mut self, ms: u64) {
        if let Some(d) = self.data.as_mut() {
            d.virtual_ms += ms;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(d) = self.data.take() else { return };
        TLS.with(|t| {
            let mut tls = t.borrow_mut();
            tls.depth = tls.depth.saturating_sub(1);
        });
        d.ring.push(SpanRecord {
            name: d.name,
            key: d.key,
            depth: d.depth,
            start_us: d.start.duration_since(d.ring.origin).as_micros() as u64,
            dur_us: d.start.elapsed().as_micros() as u64,
            virtual_ms: d.virtual_ms,
        });
    }
}

/// Record an instantaneous virtual-clock wait (backoff sleep, breaker
/// cooldown) as a zero-wall-duration child span of the open span.
#[inline]
pub fn virtual_wait(name: &'static str, key: u64, virtual_ms: u64) {
    if LIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    virtual_wait_slow(name, key, virtual_ms);
}

#[cold]
fn virtual_wait_slow(name: &'static str, key: u64, virtual_ms: u64) {
    TLS.with(|t| {
        let mut tls = t.borrow_mut();
        let Some(ring) = tls.ring() else { return };
        ring.push(SpanRecord {
            name,
            key,
            depth: tls.depth - tls.base,
            start_us: ring.origin.elapsed().as_micros() as u64,
            dur_us: 0,
            virtual_ms,
        });
    });
}

/// A captured trace context: the session the capturing thread records
/// into, or none. Capture it once per spawner and run each task under
/// [`Context::fence`].
#[derive(Default)]
pub struct Context {
    session: Option<Arc<Session>>,
}

/// Capture the calling thread's trace context. One relaxed atomic load
/// and an empty context when no session is live.
#[inline]
pub fn context() -> Context {
    if LIVE.load(Ordering::Relaxed) == 0 {
        return Context::default();
    }
    Context {
        session: TLS.with(|t| t.borrow().session.clone()),
    }
}

impl Context {
    /// Run one task in this context: until the fence drops, the thread
    /// records into the captured session (or nowhere, if it captured
    /// none), at depths relative to the fence — so a task inlined on a
    /// thread with an open orchestration span nests identically to one
    /// on a fresh pool worker. Inert when no session is live.
    #[inline]
    pub fn fence(&self) -> Fence {
        if self.session.is_none() && LIVE.load(Ordering::Relaxed) == 0 {
            return Fence {
                saved: None,
                _thread: PhantomData,
            };
        }
        Fence::enter(self.session.clone())
    }
}

/// Guard of one task's trace context; restores the thread's previous
/// context and depth baseline on drop, so it stays on its thread.
#[must_use = "the fence restores the thread's trace context when dropped"]
pub struct Fence {
    saved: Option<(Option<Arc<Session>>, u32)>,
    _thread: PhantomData<*const ()>,
}

impl Fence {
    fn enter(session: Option<Arc<Session>>) -> Fence {
        TLS.with(|t| {
            let mut tls = t.borrow_mut();
            let saved = (std::mem::replace(&mut tls.session, session), tls.base);
            tls.base = tls.depth;
            Fence {
                saved: Some(saved),
                _thread: PhantomData,
            }
        })
    }
}

impl Drop for Fence {
    fn drop(&mut self) {
        let Some((session, base)) = self.saved.take() else {
            return;
        };
        TLS.with(|t| {
            let mut tls = t.borrow_mut();
            tls.session = session;
            tls.base = base;
        });
    }
}

/// FNV-1a hash of a string — the standard deterministic span key for
/// host- or code-keyed stages.
#[inline]
pub fn key_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Spans recorded by one worker ring, in close order.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Ring registration ordinal (Chrome-trace tid is `worker + 1`).
    pub worker: u32,
    /// Spans dropped by this ring after it filled.
    pub dropped: u64,
    /// Published spans, in the order they closed.
    pub spans: Vec<SpanRecord>,
}

/// The merged result of one trace session.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Per-worker spans, sorted by worker ordinal.
    pub workers: Vec<WorkerTrace>,
    /// Total spans dropped across all rings (overflow accounting —
    /// surfaced in the summary, Chrome export and metrics, never
    /// silent).
    pub dropped_spans: u64,
    /// Ring capacity the session ran with.
    pub capacity_per_worker: usize,
}

/// Per-stage aggregate for the `--trace-summary` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    pub stage: &'static str,
    pub count: u64,
    pub total_us: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub virtual_ms: u64,
}

impl TraceReport {
    /// Total recorded spans.
    pub fn span_count(&self) -> u64 {
        self.workers.iter().map(|w| w.spans.len() as u64).sum()
    }

    /// Sorted, de-duplicated stage names.
    pub fn stage_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .workers
            .iter()
            .flat_map(|w| w.spans.iter().map(|s| s.name))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Canonical deterministic view: the multiset of
    /// `(name, key, depth, virtual_ms)` over all spans, rendered as
    /// sorted run-length-encoded lines. Byte-identical across worker
    /// counts and repeat runs with the same seed — wall-clock fields and
    /// worker assignment are deliberately excluded.
    pub fn structure_digest(&self) -> String {
        let mut rows: Vec<(&'static str, u64, u32, u64)> = self
            .workers
            .iter()
            .flat_map(|w| {
                w.spans
                    .iter()
                    .map(|s| (s.name, s.key, s.depth, s.virtual_ms))
            })
            .collect();
        rows.sort_unstable();
        let mut out = String::with_capacity(rows.len() * 24);
        let mut i = 0;
        while i < rows.len() {
            let row = rows[i];
            let mut n = 1usize;
            while i + n < rows.len() && rows[i + n] == row {
                n += 1;
            }
            out.push_str(&format!(
                "{} {:016x} {} {} x{}\n",
                row.0, row.1, row.2, row.3, n
            ));
            i += n;
        }
        out
    }

    /// Per-stage count/total/p50/p99/max aggregates, sorted by total
    /// wall time descending.
    pub fn summary(&self) -> Vec<StageSummary> {
        let mut by_stage: Vec<(&'static str, Vec<u64>, u64)> = Vec::new();
        for w in &self.workers {
            for s in &w.spans {
                match by_stage.iter_mut().find(|(n, _, _)| *n == s.name) {
                    Some((_, durs, vms)) => {
                        durs.push(s.dur_us);
                        *vms += s.virtual_ms;
                    }
                    None => by_stage.push((s.name, vec![s.dur_us], s.virtual_ms)),
                }
            }
        }
        let mut rows: Vec<StageSummary> = by_stage
            .into_iter()
            .map(|(stage, mut durs, virtual_ms)| {
                durs.sort_unstable();
                let count = durs.len() as u64;
                let total_us: u64 = durs.iter().sum();
                let rank = |p: f64| -> u64 {
                    let idx = ((p / 100.0) * durs.len() as f64).ceil() as usize;
                    durs[idx.clamp(1, durs.len()) - 1]
                };
                StageSummary {
                    stage,
                    count,
                    total_us,
                    p50_us: rank(50.0),
                    p99_us: rank(99.0),
                    max_us: *durs.last().unwrap(),
                    virtual_ms,
                }
            })
            .collect();
        rows.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.stage.cmp(b.stage)));
        rows
    }

    /// The `--trace-summary` table as a string (one header, one row per
    /// stage, plus an overflow line when spans were dropped).
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>9} {:>12} {:>9} {:>9} {:>9} {:>10}\n",
            "stage", "count", "total_us", "p50_us", "p99_us", "max_us", "virtual_ms"
        ));
        for row in self.summary() {
            out.push_str(&format!(
                "{:<24} {:>9} {:>12} {:>9} {:>9} {:>9} {:>10}\n",
                row.stage,
                row.count,
                row.total_us,
                row.p50_us,
                row.p99_us,
                row.max_us,
                row.virtual_ms
            ));
        }
        out.push_str(&format!(
            "spans: {} across {} workers (capacity {}/worker, dropped {})\n",
            self.span_count(),
            self.workers.len(),
            self.capacity_per_worker,
            self.dropped_spans
        ));
        out
    }

    /// Register the report's aggregates into a metrics [`Encoder`]:
    /// per-stage wall-time/count/virtual-time families plus span and
    /// overflow totals.
    ///
    /// [`Encoder`]: crate::registry::Encoder
    pub fn encode_metrics(&self, enc: &mut crate::registry::Encoder) {
        enc.counter(
            "langcrux_trace_spans_total",
            "Spans recorded by this trace session.",
            self.span_count() as f64,
        );
        enc.counter(
            "langcrux_trace_dropped_spans_total",
            "Spans dropped on ring overflow (never silent).",
            self.dropped_spans as f64,
        );
        enc.gauge(
            "langcrux_trace_workers",
            "Worker rings registered during this trace session.",
            self.workers.len() as f64,
        );
        for row in self.summary() {
            let labels = &[("stage", row.stage)];
            enc.counter_with(
                "langcrux_pipeline_stage_spans_total",
                "Spans recorded per pipeline stage.",
                labels,
                row.count as f64,
            );
            enc.counter_with(
                "langcrux_pipeline_stage_wall_microseconds_total",
                "Wall-clock microseconds spent per pipeline stage.",
                labels,
                row.total_us as f64,
            );
            enc.counter_with(
                "langcrux_pipeline_stage_virtual_milliseconds_total",
                "Virtual-clock milliseconds attributed per pipeline stage.",
                labels,
                row.virtual_ms as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        assert!(!enabled());
        let mut s = span("test.stage", 1);
        s.set_virtual_ms(5);
        drop(s);
        virtual_wait("test.wait", 2, 10);
        // Nothing to observe: no session, no panic, no registration.
    }

    #[test]
    fn session_records_nested_spans_with_depth() {
        let session = start(TraceConfig::default());
        {
            let _outer = span("test.outer", 1);
            {
                let mut inner = span("test.inner", 2);
                inner.set_virtual_ms(40);
            }
            virtual_wait("test.wait", 3, 7);
        }
        let report = session.finish();
        assert_eq!(report.span_count(), 3);
        assert_eq!(report.dropped_spans, 0);
        let digest = report.structure_digest();
        assert!(digest.contains("test.outer 0000000000000001 0 0 x1"));
        assert!(digest.contains("test.inner 0000000000000002 1 40 x1"));
        assert!(digest.contains("test.wait 0000000000000003 1 7 x1"));
    }

    #[test]
    fn fence_resets_depth_baseline() {
        let session = start(TraceConfig::default());
        {
            let _orchestrator = span("test.orchestrator", 0);
            let _fence = context().fence();
            let _task = span("test.task", 9);
        }
        let report = session.finish();
        // The fenced task records depth 0 despite the open outer span.
        assert!(report
            .structure_digest()
            .contains("test.task 0000000000000009 0 0 x1"));
    }

    #[test]
    fn ring_overflow_is_counted_not_silent() {
        let session = start(TraceConfig {
            capacity_per_worker: 4,
        });
        for i in 0..10 {
            let _s = span("test.flood", i);
        }
        let report = session.finish();
        assert_eq!(report.span_count(), 4);
        assert_eq!(report.dropped_spans, 6);
        assert!(report.summary_table().contains("dropped 6"));
    }

    #[test]
    fn cross_thread_spans_merge_into_one_report() {
        let session = start(TraceConfig::default());
        let ctx = context();
        std::thread::scope(|scope| {
            for i in 0..3 {
                let ctx = &ctx;
                scope.spawn(move || {
                    let _fence = ctx.fence();
                    let _s = span("test.thread", i);
                });
            }
            // A thread that never enters the context records nothing and
            // registers no ring, though the session is live.
            scope.spawn(|| {
                assert!(!enabled());
                let _s = span("test.outside", 7);
                virtual_wait("test.outside_wait", 7, 1);
            });
        });
        let _main = span("test.main", 99);
        drop(_main);
        let report = session.finish();
        assert_eq!(report.span_count(), 4);
        assert_eq!(report.workers.len(), 4);
        assert_eq!(report.stage_names(), vec!["test.main", "test.thread"]);
    }

    #[test]
    fn two_sessions_on_two_threads_record_only_their_own_spans() {
        let names = ["test.left", "test.right"];
        let both_live = std::sync::Barrier::new(names.len());
        let reports: Vec<TraceReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = names
                .iter()
                .map(|&name| {
                    let both_live = &both_live;
                    scope.spawn(move || {
                        let session = start(TraceConfig::default());
                        // Both sessions are live from here to the second
                        // wait: neither `start` may block on the other.
                        both_live.wait();
                        for key in 0..3 {
                            let _s = span(name, key);
                        }
                        both_live.wait();
                        session.finish()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (report, name) in reports.iter().zip(names) {
            assert_eq!(report.stage_names(), vec![name]);
            assert_eq!(report.span_count(), 3);
            assert_eq!(report.workers.len(), 1);
        }
    }

    #[test]
    fn summary_percentiles_are_nearest_rank() {
        let report = TraceReport {
            workers: vec![WorkerTrace {
                worker: 0,
                dropped: 0,
                spans: (1..=100)
                    .map(|i| SpanRecord {
                        name: "test.p",
                        key: i,
                        depth: 0,
                        start_us: 0,
                        dur_us: i,
                        virtual_ms: 0,
                    })
                    .collect(),
            }],
            dropped_spans: 0,
            capacity_per_worker: 128,
        };
        let rows = report.summary();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 100);
        assert_eq!(rows[0].p50_us, 50);
        assert_eq!(rows[0].p99_us, 99);
        assert_eq!(rows[0].max_us, 100);
    }
}
