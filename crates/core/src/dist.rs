//! The build engine: coordinator, work units, checkpoint log, and the
//! deterministic replay that makes every build — in-process or across
//! worker processes — produce the same bytes.
//!
//! ## Shape
//!
//! The coordinator plans probe **waves**: each country still short of
//! quota extends its probed candidate prefix by a window of
//! `need + need/7 + 8` candidates, chunked into `(country,
//! candidate-range)` **work units**. It dispatches units through a
//! [`UnitExecutor`], which is only a transport: [`LocalExecutor`] runs
//! them on in-process dispatcher threads against the caller's corpus
//! ([`crate::pipeline::build_dataset`] is this engine over a
//! `LocalExecutor`), and the bench crate's `HttpExecutor` ships them to
//! `repro --dist-worker` processes. Either way a unit runs
//! [`execute_unit`]: probe every candidate in the range and fully analyse
//! each qualifying one, returning one serializable [`WireVerdict`] per
//! candidate. The coordinator then replays the paper's sequential
//! replacement walk over the concatenated verdicts, so `Dataset` and
//! `CrawlLedger` bytes are independent of transport, worker count,
//! scheduling, and failure timing.
//!
//! A unit analyses every qualifier it probes, so the last wave also
//! analyses a few qualifiers beyond quota that the replay then drops.
//! That overshoot is bounded by one window's slack per country and is
//! reported as `dist.analysed_beyond_quota` by the benchmark.
//!
//! ## Why the bytes cannot drift
//!
//! * **Probe purity**: a candidate's verdict is a pure function of
//!   `(corpus seed, host, vantage)`. Worker processes rebuild their
//!   corpus shards from [`WireBuildConfig`]; shard contents are pure in
//!   `(seed, country)`, so every worker — and every *retry* of a killed
//!   unit — computes the identical verdict list.
//! * **Wave congruence**: window extents depend only on quota and
//!   qualified counts, never on chunking, so every worker count probes
//!   the same candidate prefix.
//! * **One replay**: selection, ledger folding, and example caps run in
//!   one sequential loop over the verdicts (`assemble`), in study
//!   order and rank order.
//!
//! ## Panic containment
//!
//! [`execute_unit`] runs each site's analysis under the engine's one
//! unwind guard. A panic becomes a [`WireOutcome::Poisoned`] verdict: the
//! site still counts as selected (its probe qualified), its host is
//! listed in the ledger's `poisoned_sites`, and it contributes no record
//! or examples. The policy is the same on every transport, because the
//! guard sits in the unit, not in the executor.
//!
//! ## Fault tolerance
//!
//! Every dispatch carries a lease (the executor's per-unit deadline); a
//! worker that dies or stalls fails the dispatch, and the unit is
//! reassigned with capped-exponential virtual backoff (the crawl
//! engine's discipline, pure in `(seed, unit, attempt)`). A per-worker breaker
//! trips after consecutive failures and asks the executor to revive the
//! worker. Completed units are appended to an on-disk checkpoint log, so
//! a coordinator killed mid-run resumes without recomputation. A unit
//! still failing after `max_reassignments` is *degraded*: its country's
//! replay truncates at the hole (quota shortfall, not an abort) and the
//! loss is recorded in the ledger's `degraded_units` section.

use crate::dataset::{CountryCrawlSummary, Dataset, ExtremeExample, MismatchExample, SiteRecord};
use crate::ledger::{CountryLedger, CrawlLedger, DegradedUnit};
use crate::pipeline::process_site;
use crate::selection::{
    probe_candidate_traced, tally_outcome, Rejection, SelectedSite, SelectionStats,
};
use langcrux_crawl::{capped_backoff_ms, Browser, BrowserConfig, VisitTrace};
use langcrux_kizuki::{Kizuki, ScreenReader};
use langcrux_lang::Country;
use langcrux_net::{vpn_vantage, FaultPlan};
use langcrux_obs as obs;
use langcrux_webgen::{Corpus, CorpusConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Derivation stream tag for reassignment-backoff jitter (disjoint from
/// the crawl backoff stream `0xB0FF` and the fault-roll streams).
const DIST_BACKOFF_STREAM: u64 = 0xD1B0;

/// Everything a worker process needs to rebuild a corpus congruent with
/// the coordinator's, plus the browser discipline to probe it with.
/// Carried inside every [`UnitRequest`] so workers are stateless across
/// builds (a worker caches the corpus keyed by this config's JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireBuildConfig {
    pub seed: u64,
    pub sites_per_country: usize,
    pub countries: Vec<Country>,
    pub overprovision: f64,
    pub gap_scenarios: bool,
    pub fault_plan: FaultPlan,
    pub browser: BrowserConfig,
}

impl WireBuildConfig {
    /// Capture the corpus a coordinator is building from.
    pub fn of(corpus: &Corpus, browser: BrowserConfig) -> Self {
        let config = corpus.config();
        WireBuildConfig {
            seed: config.seed,
            sites_per_country: config.sites_per_country,
            countries: config.countries.clone(),
            overprovision: config.overprovision,
            gap_scenarios: config.gap_scenarios,
            fault_plan: *corpus.internet().fault_plan(),
            browser,
        }
    }

    /// The corpus configuration this wire config describes.
    pub fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            seed: self.seed,
            sites_per_country: self.sites_per_country,
            countries: self.countries.clone(),
            overprovision: self.overprovision,
            gap_scenarios: self.gap_scenarios,
            fault_plan: self.fault_plan,
        }
    }

    /// Rebuild the corpus (`O(1)` — shards materialise lazily on first
    /// candidate touch, bit-identical to the coordinator's).
    pub fn build_corpus(&self) -> Corpus {
        Corpus::build(self.corpus_config())
    }

    /// Stable cache key for worker-side corpus reuse.
    pub fn cache_key(&self) -> String {
        serde_json::to_string(self).expect("serialize wire build config")
    }
}

/// One `(country, candidate-range)` work unit, as shipped to a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitRequest {
    pub config: WireBuildConfig,
    pub country: Country,
    /// Candidate range `start..end` in rank order.
    pub start: usize,
    pub end: usize,
    /// Chaos support: wall milliseconds the worker sleeps before
    /// executing, giving an externally scheduled SIGKILL time to land
    /// mid-unit. `0` in production; never affects output bytes.
    pub hold_ms: u64,
}

impl UnitRequest {
    /// Stable unit key: independent of worker assignment and attempt,
    /// survives coordinator restarts. Used for the checkpoint log and
    /// the chaos kill schedule.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.country.code(), self.start, self.end)
    }
}

/// One candidate's verdict as computed by a worker. `Selected` carries
/// the *finished* site record (plus uncapped example captures) so the
/// coordinator never fetches or analyses anything itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireOutcome {
    Selected {
        record: SiteRecord,
        extremes: Vec<ExtremeExample>,
        mismatches: Vec<MismatchExample>,
    },
    /// The candidate qualified but its analysis panicked: it counts as
    /// selected, its host is listed in the ledger's `poisoned_sites`, and
    /// it contributes no record or examples.
    Poisoned {
        host: String,
    },
    Rejected(Rejection),
}

/// One probed candidate on the wire: verdict plus its visit trace, the
/// pair the replay folds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireVerdict {
    pub outcome: WireOutcome,
    pub trace: VisitTrace,
}

impl WireVerdict {
    /// Whether the candidate passed the inclusion test (analysed or
    /// poisoned): what wave planning and the replacement walk count.
    fn qualified(&self) -> bool {
        !matches!(self.outcome, WireOutcome::Rejected(_))
    }

    /// The site-free verdict the shared ledger/stats accumulators fold.
    fn outcome_ref(&self) -> Result<(), &Rejection> {
        match &self.outcome {
            WireOutcome::Rejected(r) => Err(r),
            _ => Ok(()),
        }
    }
}

/// Execute one work unit against a corpus: probe every candidate in the
/// range and fully analyse each qualifying one. Every executor runs
/// units through this function — `repro --dist-worker` behind the RPC
/// endpoint, [`LocalExecutor`] in-process.
///
/// `chaos_panic_host` panics inside the analysis of any site whose host
/// it matches, exercising the unwind guard; `None` in production.
pub fn execute_unit(
    corpus: &Corpus,
    browser_config: BrowserConfig,
    country: Country,
    start: usize,
    end: usize,
    chaos_panic_host: Option<fn(&str) -> bool>,
) -> Vec<WireVerdict> {
    let vantage = vpn_vantage(country).unwrap_or_else(|| panic!("no VPN endpoint for {country:?}"));
    let native = country.target_language();
    let kizuki = Kizuki::standard();
    // The reference reader maps each translation-gap region to what a
    // screen reader would do with it; only gap-enabled corpora need it.
    let reader = corpus
        .config()
        .gap_scenarios
        .then(ScreenReader::voiceover_like);
    let mut browser = Browser::new(corpus.internet(), browser_config);
    corpus.candidates(country)[start..end]
        .iter()
        .map(|plan| {
            let (outcome, trace) = probe_candidate_traced(&mut browser, plan, vantage, native);
            let outcome = match outcome {
                Ok(site) => {
                    analyse_guarded(&site, country, &kizuki, reader.as_ref(), chaos_panic_host)
                }
                Err(rejection) => WireOutcome::Rejected(rejection),
            };
            WireVerdict { outcome, trace }
        })
        .collect()
}

/// Analyse one qualifying site under the engine's unwind guard: a panic
/// poisons only this site. Examples land in per-site scratch vecs so a
/// partial capture from a poisoned site never reaches the output.
fn analyse_guarded(
    site: &SelectedSite,
    country: Country,
    kizuki: &Kizuki,
    gap_reader: Option<&ScreenReader>,
    chaos_panic_host: Option<fn(&str) -> bool>,
) -> WireOutcome {
    let host = &site.plan.host;
    // Opened outside the guard, so a poisoned site still records it.
    let _site_span = obs::trace::span("pipeline.analyze_site", obs::trace::key_str(host));
    let mut extremes = Vec::new();
    let mut mismatches = Vec::new();
    let analysed = catch_unwind(AssertUnwindSafe(|| {
        if chaos_panic_host.is_some_and(|hook| hook(host)) {
            panic!("chaos hook: injected analysis panic");
        }
        process_site(
            site,
            country,
            kizuki,
            gap_reader,
            &mut extremes,
            &mut mismatches,
        )
    }));
    match analysed {
        Ok(record) => WireOutcome::Selected {
            record,
            extremes,
            mismatches,
        },
        Err(_) => WireOutcome::Poisoned { host: host.clone() },
    }
}

/// Why one dispatch of a unit failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitError {
    /// The worker died mid-unit (connection dropped, process exited,
    /// injected chaos kill).
    WorkerDied(String),
    /// The per-unit lease deadline elapsed without a response (worker
    /// stalled).
    LeaseExpired(String),
}

/// Transport abstraction the coordinator dispatches through. The bench
/// crate implements it over loopback HTTP to `repro --dist-worker`
/// processes; [`LocalExecutor`] implements it in-process.
///
/// Called concurrently from one dispatcher thread per worker slot; a
/// given `worker` index is only ever used by its own dispatcher.
pub trait UnitExecutor: Sync {
    /// Execute `request` on worker slot `worker` (0-based). `attempt` is
    /// the 0-based dispatch attempt for this unit (drives the chaos
    /// schedule and backoff).
    fn execute(
        &self,
        worker: usize,
        attempt: u32,
        request: &UnitRequest,
    ) -> Result<Vec<WireVerdict>, UnitError>;

    /// Liveness probe issued before each dispatch. Default: always
    /// alive (in-process executors cannot die between units).
    fn heartbeat(&self, _worker: usize) -> bool {
        true
    }

    /// Restart a worker after a failed heartbeat or a tripped per-worker
    /// breaker. Returns whether a restart actually happened.
    fn revive(&self, _worker: usize) -> bool {
        false
    }
}

/// In-process executor: runs units on the coordinator's dispatcher
/// threads, with an injectable failure schedule. It either borrows the
/// caller's corpus ([`LocalExecutor::borrowing`], the in-process build)
/// or owns one rebuilt from the wire config, exactly as a worker process
/// would ([`LocalExecutor::new`], the kill-at-every-boundary suite).
pub struct LocalExecutor<'c> {
    corpus: LocalCorpus<'c>,
    /// Injected failure: `(unit key, attempt) -> fail?`. A failing
    /// dispatch still computes nothing — like a SIGKILLed worker, its
    /// partial work is simply never observed.
    #[allow(clippy::type_complexity)]
    pub fail: Option<Arc<dyn Fn(&str, u32) -> bool + Send + Sync>>,
    chaos_panic_host: Option<fn(&str) -> bool>,
}

enum LocalCorpus<'c> {
    Owned(Box<Corpus>),
    Borrowed(&'c Corpus),
}

impl LocalExecutor<'static> {
    /// Build the executor's own corpus from the wire config — the same
    /// reconstruction a worker process performs, so tests exercise the
    /// config round-trip too.
    pub fn new(config: &WireBuildConfig) -> Self {
        LocalExecutor {
            corpus: LocalCorpus::Owned(Box::new(config.build_corpus())),
            fail: None,
            chaos_panic_host: None,
        }
    }

    /// Fail dispatches according to `schedule`.
    pub fn with_failures(
        config: &WireBuildConfig,
        schedule: impl Fn(&str, u32) -> bool + Send + Sync + 'static,
    ) -> Self {
        LocalExecutor {
            fail: Some(Arc::new(schedule)),
            ..LocalExecutor::new(config)
        }
    }
}

impl<'c> LocalExecutor<'c> {
    /// Run units against the caller's corpus. Nothing is rebuilt, so its
    /// shards and shard statistics are the ones the build touches.
    pub fn borrowing(corpus: &'c Corpus) -> Self {
        LocalExecutor {
            corpus: LocalCorpus::Borrowed(corpus),
            fail: None,
            chaos_panic_host: None,
        }
    }

    /// Chaos hook: panic inside the analysis of any site whose host
    /// `hook` matches (see [`execute_unit`]).
    pub fn with_chaos_panic_host(mut self, hook: Option<fn(&str) -> bool>) -> Self {
        self.chaos_panic_host = hook;
        self
    }

    fn corpus(&self) -> &Corpus {
        match &self.corpus {
            LocalCorpus::Owned(corpus) => corpus,
            LocalCorpus::Borrowed(corpus) => corpus,
        }
    }
}

impl UnitExecutor for LocalExecutor<'_> {
    fn execute(
        &self,
        _worker: usize,
        attempt: u32,
        request: &UnitRequest,
    ) -> Result<Vec<WireVerdict>, UnitError> {
        if let Some(fail) = &self.fail {
            if fail(&request.key(), attempt) {
                return Err(UnitError::WorkerDied("injected failure".to_string()));
            }
        }
        Ok(execute_unit(
            self.corpus(),
            request.config.browser,
            request.country,
            request.start,
            request.end,
            self.chaos_panic_host,
        ))
    }
}

/// Coordinator options. The dataset/ledger bytes produced under any
/// transport, `workers` count or recovered failure schedule are the same
/// — the tested contract. `build_dataset_with_ledger` runs this engine
/// with the `PipelineOptions` `quota`, `browser`, example caps and
/// `threads` as `workers`.
#[derive(Debug, Clone)]
pub struct DistOptions {
    pub quota: usize,
    pub browser: BrowserConfig,
    pub max_extreme_examples: usize,
    pub max_mismatch_examples: usize,
    /// Worker slots (dispatcher threads / worker processes).
    pub workers: usize,
    /// Reassignments after a unit's first dispatch before it is given up
    /// as degraded.
    pub max_reassignments: u32,
    /// Consecutive dispatch failures on one worker slot that trip its
    /// breaker and force a revive.
    pub worker_breaker_threshold: u32,
    /// Per-unit lease: wall milliseconds the executor waits for a unit
    /// before declaring the worker stalled.
    pub lease_ms: u64,
    /// Virtual-clock reassignment backoff (the crawl discipline's shape:
    /// `min(base << attempt, cap) + jitter`, pure in
    /// `(seed, unit, attempt)`).
    pub backoff_base_ms: u64,
    pub backoff_cap_ms: u64,
    pub backoff_jitter_ms: u64,
    /// Append-only unit-checkpoint log; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Crash simulation: stop dispatching after this many units complete
    /// *in this run* and return [`DistHalted`]. The checkpoint log then
    /// holds exactly the completed units. `None` in production.
    pub halt_after_units: Option<usize>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            quota: 1_000,
            browser: BrowserConfig::default(),
            max_extreme_examples: 40,
            max_mismatch_examples: 24,
            workers: 2,
            max_reassignments: 5,
            worker_breaker_threshold: 3,
            lease_ms: 60_000,
            backoff_base_ms: 200,
            backoff_cap_ms: 5_000,
            backoff_jitter_ms: 50,
            checkpoint: None,
            halt_after_units: None,
        }
    }
}

/// Coordinator-side counters, exposed as the `langcrux_dist_*` metric
/// families.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct DistStats {
    /// Worker slots the run was configured with.
    pub workers: usize,
    /// Probe waves the coordinator planned.
    pub waves: u64,
    /// Work units planned (including checkpoint-satisfied ones).
    pub units_planned: u64,
    /// Units actually executed by workers in this run.
    pub units_executed: u64,
    /// Units satisfied from the checkpoint log without dispatch.
    pub units_from_checkpoint: u64,
    /// Failed dispatches that were retried on another attempt.
    pub reassignments: u64,
    /// Dispatches that failed because the worker died.
    pub worker_deaths: u64,
    /// Dispatches that failed because the lease deadline elapsed.
    pub lease_expirations: u64,
    /// Heartbeat probes that found a worker dead.
    pub heartbeat_failures: u64,
    /// Worker restarts the breaker (or a failed heartbeat) forced.
    pub worker_revivals: u64,
    /// Units permanently lost after exhausting reassignments.
    pub degraded_units: u64,
    /// Virtual milliseconds of reassignment backoff (never slept).
    pub backoff_virtual_ms: u64,
}

impl DistStats {
    /// Register the run's counters into the unified metrics registry
    /// (`langcrux_dist_*` family).
    pub fn encode_metrics(&self, enc: &mut obs::Encoder) {
        enc.gauge(
            "langcrux_dist_workers",
            "Worker slots the distributed build ran with.",
            self.workers as f64,
        );
        enc.counter(
            "langcrux_dist_waves_total",
            "Probe waves the coordinator planned.",
            self.waves as f64,
        );
        enc.counter(
            "langcrux_dist_units_total",
            "Work units planned, including checkpoint-satisfied ones.",
            self.units_planned as f64,
        );
        enc.counter(
            "langcrux_dist_units_executed_total",
            "Work units executed by workers in this run.",
            self.units_executed as f64,
        );
        enc.counter(
            "langcrux_dist_units_from_checkpoint_total",
            "Work units satisfied from the checkpoint log without dispatch.",
            self.units_from_checkpoint as f64,
        );
        enc.counter(
            "langcrux_dist_reassignments_total",
            "Failed unit dispatches that were reassigned.",
            self.reassignments as f64,
        );
        enc.counter(
            "langcrux_dist_worker_deaths_total",
            "Unit dispatches that failed because the worker died.",
            self.worker_deaths as f64,
        );
        enc.counter(
            "langcrux_dist_lease_expirations_total",
            "Unit dispatches that failed because the lease deadline elapsed.",
            self.lease_expirations as f64,
        );
        enc.counter(
            "langcrux_dist_heartbeat_failures_total",
            "Heartbeat probes that found a worker dead.",
            self.heartbeat_failures as f64,
        );
        enc.counter(
            "langcrux_dist_worker_revivals_total",
            "Worker restarts forced by the per-worker breaker or a failed heartbeat.",
            self.worker_revivals as f64,
        );
        enc.gauge(
            "langcrux_dist_degraded_units",
            "Work units permanently lost after exhausting reassignments.",
            self.degraded_units as f64,
        );
        enc.counter(
            "langcrux_dist_backoff_virtual_milliseconds_total",
            "Virtual milliseconds of reassignment backoff.",
            self.backoff_virtual_ms as f64,
        );
    }
}

/// A completed distributed build.
#[derive(Debug)]
pub struct DistBuild {
    pub dataset: Dataset,
    pub ledger: CrawlLedger,
    pub stats: DistStats,
}

/// The coordinator stopped early (crash simulation via
/// [`DistOptions::halt_after_units`]); completed units up to the halt
/// are durable in the checkpoint log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistHalted {
    /// Units that completed (and were checkpointed) in this run.
    pub units_completed: usize,
}

/// Reassignment backoff for dispatch attempt `attempt` of `unit_key`,
/// pure in `(seed, unit, attempt)` so degraded-run accounting is
/// reproducible.
fn reassignment_backoff_ms(options: &DistOptions, seed: u64, unit_key: &str, attempt: u32) -> u64 {
    capped_backoff_ms(
        seed,
        unit_key,
        attempt,
        DIST_BACKOFF_STREAM,
        options.backoff_base_ms,
        options.backoff_cap_ms,
        options.backoff_jitter_ms,
    )
}

// ---------------------------------------------------------------------
// Checkpoint log
// ---------------------------------------------------------------------

/// First line of a checkpoint file: identifies the build it belongs to.
/// A header mismatch (different seed/quota/config) invalidates the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointHeader {
    checkpoint: String,
    quota: usize,
    config: WireBuildConfig,
}

/// One completed unit: its stable key and the verdicts it produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointEntry {
    unit: String,
    verdicts: Vec<WireVerdict>,
}

/// Append-only JSON-lines log of completed units. Tolerates a torn
/// trailing line (the coordinator died mid-write); every complete line
/// is a durable unit that will never be recomputed.
struct CheckpointLog {
    file: Option<std::fs::File>,
}

impl CheckpointLog {
    /// Open (or create) the log at `path`, returning the verdicts of
    /// every durable unit recorded for *this* build. A file written for
    /// a different build (header mismatch) or with a corrupt prefix is
    /// discarded and restarted.
    fn open(
        path: Option<&Path>,
        config: &WireBuildConfig,
        quota: usize,
    ) -> (Self, HashMap<String, Vec<WireVerdict>>) {
        let Some(path) = path else {
            return (CheckpointLog { file: None }, HashMap::new());
        };
        let header = CheckpointHeader {
            checkpoint: "langcrux-dist".to_string(),
            quota,
            config: config.clone(),
        };
        let mut completed = HashMap::new();
        let mut valid = false;
        if let Ok(file) = std::fs::File::open(path) {
            let mut lines = BufReader::new(file).lines();
            if let Some(Ok(first)) = lines.next() {
                if serde_json::from_str::<CheckpointHeader>(&first)
                    .map(|h| h == header)
                    .unwrap_or(false)
                {
                    valid = true;
                    for line in lines {
                        let Ok(line) = line else { break };
                        // A torn trailing line parses as garbage; stop at
                        // the first bad line and keep the durable prefix.
                        let Ok(entry) = serde_json::from_str::<CheckpointEntry>(&line) else {
                            break;
                        };
                        completed.insert(entry.unit, entry.verdicts);
                    }
                }
            }
        }
        let mut file = if valid {
            std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .expect("reopen checkpoint log for append")
        } else {
            completed.clear();
            let mut f = std::fs::File::create(path).expect("create checkpoint log");
            writeln!(
                f,
                "{}",
                serde_json::to_string(&header).expect("serialize checkpoint header")
            )
            .expect("write checkpoint header");
            f
        };
        file.flush().expect("flush checkpoint log");
        (CheckpointLog { file: Some(file) }, completed)
    }

    /// Append one completed unit and flush — the unit is durable once
    /// this returns.
    fn append(&mut self, unit: &str, verdicts: &[WireVerdict]) {
        let Some(file) = &mut self.file else { return };
        let entry = CheckpointEntry {
            unit: unit.to_string(),
            verdicts: verdicts.to_vec(),
        };
        writeln!(
            file,
            "{}",
            serde_json::to_string(&entry).expect("serialize checkpoint entry")
        )
        .expect("append checkpoint entry");
        file.flush().expect("flush checkpoint log");
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Per-country coordinator state across waves.
struct CountryState {
    country: Country,
    /// Concatenated unit verdicts for the candidate prefix `0..probed`
    /// (frozen at the first hole once `degraded`).
    verdicts: Vec<WireVerdict>,
    qualified: usize,
    probed: usize,
    degraded: bool,
}

/// Resolution of one planned unit after the wave's scheduler drains.
enum UnitResolution {
    Pending,
    Done(Vec<WireVerdict>),
    Lost,
}

/// The probe window a country still short of quota extends its probed
/// prefix by: the outstanding need inflated by the expected ~12%
/// disqualification rate, plus slack so small quotas converge in one
/// wave.
fn probe_window(need: usize) -> usize {
    need + need / 7 + 8
}

/// Split `0..len` into consecutive ranges of at most `chunk`.
fn chunk_ranges(len: usize, chunk: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk = chunk.max(1);
    (0..len.div_ceil(chunk)).map(move |i| (i * chunk)..((i + 1) * chunk).min(len))
}

/// Run the build: plan waves, dispatch units through the executor with
/// lease/retry/checkpoint handling, then replay and assemble the
/// dataset + ledger.
///
/// Returns `Err(DistHalted)` only under the
/// [`DistOptions::halt_after_units`] crash simulation.
pub fn build_dataset_distributed<E: UnitExecutor + ?Sized>(
    corpus: &Corpus,
    executor: &E,
    options: &DistOptions,
) -> Result<DistBuild, DistHalted> {
    let workers = options.workers.max(1);
    let _build_span = obs::trace::span("pipeline.build", corpus.config().seed);
    let config = WireBuildConfig::of(corpus, options.browser);
    let (log, mut completed) =
        CheckpointLog::open(options.checkpoint.as_deref(), &config, options.quota);
    let checkpoint = Mutex::new(log);

    let mut states: Vec<CountryState> = corpus
        .countries()
        .map(|country| CountryState {
            country,
            verdicts: Vec::new(),
            qualified: 0,
            probed: 0,
            degraded: false,
        })
        .collect();
    let mut degraded_units: Vec<DegradedUnit> = Vec::new();
    let mut stats = DistStats {
        workers,
        ..DistStats::default()
    };
    let executed_this_run = AtomicUsize::new(0);
    let halted = AtomicBool::new(false);

    let mut wave_ordinal = 0u64;
    loop {
        // ---- Plan the wave: each country short of quota extends its
        // probed prefix; countries with enough qualifiers (or no
        // candidates left) contribute nothing. An empty plan ends probing.
        let mut windows: Vec<(usize, Range<usize>)> = Vec::new();
        let mut total = 0usize;
        for (ci, st) in states.iter().enumerate() {
            if st.degraded || st.qualified >= options.quota {
                continue;
            }
            let candidates = corpus.candidates(st.country).len();
            if st.probed >= candidates {
                continue;
            }
            let need = options.quota - st.qualified;
            let window = probe_window(need).min(candidates - st.probed);
            windows.push((ci, st.probed..st.probed + window));
            total += window;
        }
        if windows.is_empty() {
            break;
        }
        // Wave count and ordinal are quota-driven, not worker-driven, so
        // the span structure is stable across worker counts.
        let _wave_span = obs::trace::span("pipeline.probe_wave", wave_ordinal);
        wave_ordinal += 1;
        stats.waves += 1;
        // Chunk the windows so every worker gets several units.
        let chunk = (total / (workers * 4).max(1)).clamp(4, 64);
        let mut units: Vec<(usize, UnitRequest)> = Vec::new();
        for (ci, window) in windows {
            for r in chunk_ranges(window.len(), chunk) {
                units.push((
                    ci,
                    UnitRequest {
                        config: config.clone(),
                        country: states[ci].country,
                        start: window.start + r.start,
                        end: window.start + r.end,
                        hold_ms: 0,
                    },
                ));
            }
        }
        stats.units_planned += units.len() as u64;

        // ---- Execute the wave.
        let resolutions = run_wave(
            executor,
            &units,
            options,
            workers,
            corpus.config().seed,
            &checkpoint,
            &mut completed,
            &mut stats,
            &executed_this_run,
            &halted,
        );

        // ---- Fold unit results in plan order; a lost unit opens a hole
        // that freezes the country's verdict prefix (graceful
        // degradation: shortfall, not abort).
        let mut saw_pending = false;
        for ((ci, req), resolution) in units.iter().zip(resolutions) {
            let st = &mut states[*ci];
            match resolution {
                UnitResolution::Done(vs) => {
                    st.probed = req.end;
                    if !st.degraded {
                        st.qualified += vs.iter().filter(|v| v.qualified()).count();
                        st.verdicts.extend(vs);
                    }
                }
                UnitResolution::Lost => {
                    st.probed = req.end;
                    if !st.degraded {
                        st.degraded = true;
                        stats.degraded_units += 1;
                        degraded_units.push(DegradedUnit {
                            country_code: req.country.code().to_string(),
                            start: req.start as u64,
                            end: req.end as u64,
                            attempts: 1 + options.max_reassignments,
                        });
                    }
                }
                UnitResolution::Pending => saw_pending = true,
            }
        }
        if halted.load(Ordering::SeqCst) || saw_pending {
            return Err(DistHalted {
                units_completed: executed_this_run.load(Ordering::SeqCst),
            });
        }
    }

    let (dataset, ledger) = assemble(corpus, options, states, degraded_units);
    Ok(DistBuild {
        dataset,
        ledger,
        stats,
    })
}

/// A wave's dispatch queue: units awaiting a (re)dispatch, and how many
/// planned units are still unresolved (queued or in flight).
struct WaveQueue {
    jobs: VecDeque<(usize, u32)>,
    pending: usize,
}

/// Dispatch one wave's units across the worker slots until every unit is
/// done or lost (or the halt simulation fires). One dispatcher thread
/// per worker slot; failed dispatches re-queue with virtual backoff
/// until the reassignment budget is exhausted. Idle dispatchers park on
/// a condvar until a unit is re-queued or the wave resolves.
#[allow(clippy::too_many_arguments)]
fn run_wave<E: UnitExecutor + ?Sized>(
    executor: &E,
    units: &[(usize, UnitRequest)],
    options: &DistOptions,
    workers: usize,
    seed: u64,
    checkpoint: &Mutex<CheckpointLog>,
    completed: &mut HashMap<String, Vec<WireVerdict>>,
    stats: &mut DistStats,
    executed_this_run: &AtomicUsize,
    halted: &AtomicBool,
) -> Vec<UnitResolution> {
    let mut resolutions: Vec<UnitResolution> = Vec::with_capacity(units.len());
    let mut jobs: VecDeque<(usize, u32)> = VecDeque::new();
    for (idx, (_, req)) in units.iter().enumerate() {
        // No later wave plans the same key, so a checkpointed unit's
        // verdicts can be moved out of the log's map.
        if let Some(vs) = completed.remove(&req.key()) {
            stats.units_from_checkpoint += 1;
            resolutions.push(UnitResolution::Done(vs));
        } else {
            jobs.push_back((idx, 0));
            resolutions.push(UnitResolution::Pending);
        }
    }
    if jobs.is_empty() {
        return resolutions;
    }
    let queue = Mutex::new(WaveQueue {
        pending: jobs.len(),
        jobs,
    });
    let wake = Condvar::new();
    let resolutions = Mutex::new(resolutions);
    let stats = Mutex::new(stats);

    // Settle one dispatch: re-queue the unit for another attempt, or
    // count it resolved. Either way, wake the parked dispatchers.
    let settle = |retry: Option<(usize, u32)>| {
        {
            let mut q = queue.lock().unwrap();
            match retry {
                Some(job) => q.jobs.push_back(job),
                None => q.pending -= 1,
            }
        }
        wake.notify_all();
    };

    // Dispatchers run each unit in the caller's trace context.
    let trace = obs::trace::context();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (queue, wake, settle, trace) = (&queue, &wake, &settle, &trace);
            let (resolutions, stats) = (&resolutions, &stats);
            scope.spawn(move || {
                let mut consecutive_failures = 0u32;
                loop {
                    let job = {
                        let mut q = queue.lock().unwrap();
                        loop {
                            if halted.load(Ordering::SeqCst) {
                                break None;
                            }
                            if let Some(job) = q.jobs.pop_front() {
                                break Some(job);
                            }
                            if q.pending == 0 {
                                break None;
                            }
                            q = wake.wait(q).unwrap();
                        }
                    };
                    let Some((idx, attempt)) = job else { break };
                    let (_, req) = &units[idx];
                    let key = req.key();
                    if !executor.heartbeat(worker) {
                        let revived = executor.revive(worker);
                        let mut s = stats.lock().unwrap();
                        s.heartbeat_failures += 1;
                        s.worker_revivals += u64::from(revived);
                    }
                    // Fence the unit so its spans land in the caller's
                    // session and nest identically at every worker count.
                    let result = {
                        let _fence = trace.fence();
                        executor.execute(worker, attempt, req)
                    };
                    match result {
                        Ok(verdicts) => {
                            consecutive_failures = 0;
                            checkpoint.lock().unwrap().append(&key, &verdicts);
                            resolutions.lock().unwrap()[idx] = UnitResolution::Done(verdicts);
                            stats.lock().unwrap().units_executed += 1;
                            let done = executed_this_run.fetch_add(1, Ordering::SeqCst) + 1;
                            if options.halt_after_units.is_some_and(|halt| done >= halt) {
                                halted.store(true, Ordering::SeqCst);
                            }
                            settle(None);
                        }
                        Err(error) => {
                            consecutive_failures += 1;
                            let retry = attempt < options.max_reassignments;
                            {
                                let mut s = stats.lock().unwrap();
                                match &error {
                                    UnitError::WorkerDied(_) => s.worker_deaths += 1,
                                    UnitError::LeaseExpired(_) => s.lease_expirations += 1,
                                }
                                if retry {
                                    s.reassignments += 1;
                                    // Pure in (seed, unit, attempt), so the
                                    // degraded-run accounting reproduces.
                                    s.backoff_virtual_ms +=
                                        reassignment_backoff_ms(options, seed, &key, attempt);
                                }
                            }
                            if !retry {
                                resolutions.lock().unwrap()[idx] = UnitResolution::Lost;
                            }
                            settle(retry.then_some((idx, attempt + 1)));
                            if consecutive_failures >= options.worker_breaker_threshold.max(1) {
                                let revived = executor.revive(worker);
                                stats.lock().unwrap().worker_revivals += u64::from(revived);
                                consecutive_failures = 0;
                            }
                        }
                    }
                }
            });
        }
    });

    resolutions.into_inner().unwrap()
}

/// Replay the paper's sequential replacement walk over each country's
/// verdicts and assemble the dataset + ledger. This is the only place
/// selection stats, ledger counters and example caps are folded, so the
/// bytes depend only on the verdicts, never on who computed them.
fn assemble(
    corpus: &Corpus,
    options: &DistOptions,
    mut states: Vec<CountryState>,
    mut degraded_units: Vec<DegradedUnit>,
) -> (Dataset, CrawlLedger) {
    // Deterministic order: study order, then rank order.
    let study_position = |code: &str| Country::STUDY.iter().position(|&c| c.code() == code);
    states.sort_by_key(|st| study_position(st.country.code()));
    degraded_units.sort_by_key(|u| (study_position(&u.country_code), u.start));
    let mut dataset = Dataset {
        seed: corpus.config().seed,
        quota: options.quota,
        ..Dataset::default()
    };
    let mut country_ledgers: Vec<CountryLedger> = Vec::with_capacity(states.len());
    for st in states {
        let mut replay_span = obs::trace::span(
            "pipeline.verdict_replay",
            obs::trace::key_str(st.country.code()),
        );
        let mut ledger = CountryLedger::new(st.country.code());
        let mut stats = SelectionStats::default();
        let mut error_run = 0u64;
        let mut selected = 0usize;
        for verdict in st.verdicts {
            if selected >= options.quota {
                break;
            }
            ledger.record_probe_outcome(verdict.outcome_ref(), &verdict.trace);
            tally_outcome(verdict.outcome_ref(), &mut stats);
            if verdict.qualified() {
                selected += 1;
                ledger.note_replacement_run(error_run);
                error_run = 0;
            } else {
                error_run += 1;
            }
            match verdict.outcome {
                WireOutcome::Selected {
                    record,
                    extremes,
                    mismatches,
                } => {
                    if let Some(gaps) = &record.gaps {
                        ledger.gap_pages += 1;
                        ledger.gap_regions += u64::from(gaps.regions);
                    }
                    dataset.records.push(record);
                    dataset.extreme_examples.extend(extremes);
                    dataset.mismatch_examples.extend(mismatches);
                }
                WireOutcome::Poisoned { host } => ledger.poisoned_sites.push(host),
                WireOutcome::Rejected(_) => {}
            }
        }
        ledger.note_replacement_run(error_run);
        // First-N example capture, in study order then site order.
        dataset
            .extreme_examples
            .truncate(options.max_extreme_examples);
        dataset
            .mismatch_examples
            .truncate(options.max_mismatch_examples);
        stats.shortfall = (options.quota as u64).saturating_sub(stats.selected);
        replay_span.set_virtual_ms(ledger.virtual_ms);
        dataset.crawl_summaries.push(CountryCrawlSummary {
            country_code: st.country.code().to_string(),
            attempted: stats.attempted,
            selected: stats.selected,
            rejected_threshold: stats.rejected_threshold,
            failed_fetch: stats.failed_fetch,
            restricted: stats.restricted,
        });
        country_ledgers.push(ledger);
    }

    let _fold_span = obs::trace::span("pipeline.ledger_fold", 0);
    let mut ledger = CrawlLedger::new(
        corpus.config().seed,
        *corpus.internet().fault_plan(),
        country_ledgers,
    );
    ledger.degraded_units = degraded_units;
    (dataset, ledger)
}

// ---------------------------------------------------------------------
// Worker-side RPC handler
// ---------------------------------------------------------------------

/// Worker-process state: one cached corpus keyed by the wire config's
/// JSON. A worker serves one build at a time; a request carrying a new
/// config transparently replaces the cache (shards are pure in the
/// config, so a rebuilt corpus is bit-identical).
#[derive(Default)]
pub struct WorkerState {
    #[allow(clippy::type_complexity)]
    cache: Mutex<Option<(String, Arc<Corpus>)>>,
}

impl WorkerState {
    pub fn new() -> Self {
        WorkerState::default()
    }

    /// Handle one unit-RPC body (a [`UnitRequest`] as JSON). Returns the
    /// verdicts as a JSON array, or a human-readable error for a 400.
    pub fn handle_unit(&self, body: &[u8]) -> Result<String, String> {
        let text = std::str::from_utf8(body).map_err(|e| format!("body not UTF-8: {e}"))?;
        let request: UnitRequest =
            serde_json::from_str(text).map_err(|e| format!("bad unit request: {e}"))?;
        if request.end < request.start {
            return Err(format!("bad unit range {}..{}", request.start, request.end));
        }
        if request.hold_ms > 0 {
            // Chaos hold: park so an externally scheduled SIGKILL lands
            // mid-unit. Wall time only; never affects verdict bytes.
            std::thread::sleep(std::time::Duration::from_millis(request.hold_ms.min(2_000)));
        }
        let key = request.config.cache_key();
        let corpus = {
            let mut cache = self.cache.lock().unwrap();
            match cache.as_ref() {
                Some((cached_key, corpus)) if *cached_key == key => Arc::clone(corpus),
                _ => {
                    let corpus = Arc::new(request.config.build_corpus());
                    *cache = Some((key, Arc::clone(&corpus)));
                    corpus
                }
            }
        };
        let candidates = corpus.candidates(request.country).len();
        if request.end > candidates {
            return Err(format!(
                "unit range {}..{} exceeds {} candidates for {}",
                request.start,
                request.end,
                candidates,
                request.country.code()
            ));
        }
        let verdicts = execute_unit(
            &corpus,
            request.config.browser,
            request.country,
            request.start,
            request.end,
            None,
        );
        serde_json::to_string(&verdicts).map_err(|e| format!("serialize verdicts: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_dataset_with_ledger, PipelineOptions};

    fn small_config(seed: u64, sites: usize) -> WireBuildConfig {
        let corpus = Corpus::build(CorpusConfig::small(seed, sites));
        WireBuildConfig::of(&corpus, BrowserConfig::default())
    }

    fn oracle(seed: u64, sites: usize, quota: usize) -> (String, String) {
        let corpus = Corpus::build(CorpusConfig::small(seed, sites));
        let (ds, ledger) = build_dataset_with_ledger(
            &corpus,
            PipelineOptions {
                quota,
                ..PipelineOptions::default()
            },
        );
        (ds.to_json().unwrap(), ledger.to_json().unwrap())
    }

    fn dist_run(
        seed: u64,
        sites: usize,
        options: &DistOptions,
        executor: &LocalExecutor,
    ) -> DistBuild {
        let corpus = Corpus::build(CorpusConfig::small(seed, sites));
        build_dataset_distributed(&corpus, executor, options).expect("distributed build")
    }

    #[test]
    fn matches_single_process_bytes_at_every_worker_count() {
        let (ds_oracle, ledger_oracle) = oracle(19, 14, 14);
        let config = small_config(19, 14);
        let executor = LocalExecutor::new(&config);
        for workers in [1, 2, 3] {
            let options = DistOptions {
                quota: 14,
                workers,
                ..DistOptions::default()
            };
            let build = dist_run(19, 14, &options, &executor);
            assert_eq!(
                build.dataset.to_json().unwrap(),
                ds_oracle,
                "workers = {workers}"
            );
            assert_eq!(
                build.ledger.to_json().unwrap(),
                ledger_oracle,
                "workers = {workers}"
            );
            assert!(build.ledger.degraded_units.is_empty());
            assert_eq!(build.stats.workers, workers);
            assert!(build.stats.units_planned > 0);
        }
    }

    #[test]
    fn recovers_from_injected_failures_to_identical_bytes() {
        let (ds_oracle, ledger_oracle) = oracle(23, 12, 12);
        let config = small_config(23, 12);
        // Every unit fails its first two dispatches on a seeded schedule.
        let executor = LocalExecutor::with_failures(&config, |key, attempt| {
            attempt < (langcrux_lang::rng::stream_id(key) % 3) as u32
        });
        let options = DistOptions {
            quota: 12,
            workers: 2,
            ..DistOptions::default()
        };
        let build = dist_run(23, 12, &options, &executor);
        assert_eq!(build.dataset.to_json().unwrap(), ds_oracle);
        assert_eq!(build.ledger.to_json().unwrap(), ledger_oracle);
        assert!(build.stats.reassignments > 0, "{:?}", build.stats);
        assert_eq!(build.stats.worker_deaths, build.stats.reassignments);
        assert!(build.stats.backoff_virtual_ms > 0);
    }

    #[test]
    fn degrades_gracefully_when_a_unit_is_permanently_lost() {
        let config = small_config(31, 10);
        // One specific country's first unit never completes.
        let executor = LocalExecutor::with_failures(&config, |key, _| key.starts_with("jp:0:"));
        let options = DistOptions {
            quota: 10,
            workers: 2,
            max_reassignments: 2,
            ..DistOptions::default()
        };
        let build = dist_run(31, 10, &options, &executor);
        assert_eq!(build.stats.degraded_units, 1, "{:?}", build.stats);
        assert_eq!(build.ledger.degraded_units.len(), 1);
        let lost = &build.ledger.degraded_units[0];
        assert_eq!(lost.country_code, "jp");
        assert_eq!(lost.attempts, 3);
        // Japan's replay truncated at the hole: shortfall, not abort.
        let jp = build
            .dataset
            .crawl_summaries
            .iter()
            .find(|s| s.country_code == "jp")
            .unwrap();
        assert_eq!(jp.selected, 0);
        // Every other country matches the no-failure single-process run.
        let (ds_oracle, _) = oracle(31, 10, 10);
        let oracle_ds = crate::dataset::Dataset::from_json(&ds_oracle).unwrap();
        for s in &build.dataset.crawl_summaries {
            if s.country_code != "jp" {
                let expected = oracle_ds
                    .crawl_summaries
                    .iter()
                    .find(|o| o.country_code == s.country_code)
                    .unwrap();
                assert_eq!(s, expected, "{}", s.country_code);
            }
        }
        // The degraded section serializes (and the ledger round-trips).
        let json = build.ledger.to_json().unwrap();
        assert!(json.contains("degraded_units"));
        let back = CrawlLedger::from_json(&json).unwrap();
        assert_eq!(back, build.ledger);
    }

    #[test]
    fn checkpoint_resume_reproduces_bytes_without_recomputation() {
        let (ds_oracle, ledger_oracle) = oracle(37, 12, 12);
        let config = small_config(37, 12);
        let executor = LocalExecutor::new(&config);
        let dir = std::env::temp_dir().join(format!("langcrux-dist-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.jsonl");
        let _ = std::fs::remove_file(&path);

        // First run: crash after 3 units.
        let halted_options = DistOptions {
            quota: 12,
            workers: 1,
            checkpoint: Some(path.clone()),
            halt_after_units: Some(3),
            ..DistOptions::default()
        };
        let corpus = Corpus::build(CorpusConfig::small(37, 12));
        let halted = build_dataset_distributed(&corpus, &executor, &halted_options)
            .expect_err("run must halt");
        assert!(halted.units_completed >= 3);

        // Second run: resume from the log, complete, identical bytes.
        let resume_options = DistOptions {
            checkpoint: Some(path.clone()),
            halt_after_units: None,
            ..halted_options
        };
        let build = build_dataset_distributed(&corpus, &executor, &resume_options)
            .expect("resumed build completes");
        assert_eq!(build.dataset.to_json().unwrap(), ds_oracle);
        assert_eq!(build.ledger.to_json().unwrap(), ledger_oracle);
        assert!(build.stats.units_from_checkpoint >= 3, "{:?}", build.stats);

        // Third run over a complete log: no unit executes at all.
        let replay = build_dataset_distributed(&corpus, &executor, &resume_options)
            .expect("pure-checkpoint replay");
        assert_eq!(replay.stats.units_executed, 0, "{:?}", replay.stats);
        assert_eq!(replay.dataset.to_json().unwrap(), ds_oracle);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_for_a_different_build_is_discarded() {
        let dir = std::env::temp_dir().join(format!("langcrux-dist-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.jsonl");
        std::fs::write(&path, "not a checkpoint header\n").unwrap();
        let config = small_config(41, 8);
        let (_, completed) = CheckpointLog::open(Some(&path), &config, 8);
        assert!(completed.is_empty());
        // The file was restarted with a valid header for this build.
        let (_, completed) = CheckpointLog::open(Some(&path), &config, 8);
        assert!(completed.is_empty());
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.starts_with("{"));
        // A different quota invalidates it again.
        let (_, completed) = CheckpointLog::open(Some(&path), &config, 9);
        assert!(completed.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_checkpoint_line_is_ignored() {
        let dir = std::env::temp_dir().join(format!("langcrux-dist-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let config = small_config(43, 8);
        // Write a valid header + one durable entry, then a torn line.
        {
            let (mut log, _) = CheckpointLog::open(Some(&path), &config, 8);
            log.append("bd:0:4", &[]);
        }
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{{\"unit\":\"bd:4:8\",\"verd").unwrap();
        drop(f);
        let (_, completed) = CheckpointLog::open(Some(&path), &config, 8);
        assert_eq!(completed.len(), 1);
        assert!(completed.contains_key("bd:0:4"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wire_verdicts_round_trip_through_json() {
        let config = small_config(47, 6);
        let corpus = config.build_corpus();
        let country = corpus.countries().next().unwrap();
        let mut verdicts = execute_unit(&corpus, config.browser, country, 0, 6, None);
        assert_eq!(verdicts.len(), 6);
        assert!(verdicts.iter().any(|v| v.qualified()));
        // A poisoned site crosses the wire as its own verdict.
        verdicts.push(WireVerdict {
            outcome: WireOutcome::Poisoned {
                host: "sangbad-3.bd".to_string(),
            },
            trace: VisitTrace::default(),
        });
        let json = serde_json::to_string(&verdicts).unwrap();
        let back: Vec<WireVerdict> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, verdicts);
    }

    #[test]
    fn reassignment_backoff_is_capped_and_pure() {
        let options = DistOptions::default();
        let a = reassignment_backoff_ms(&options, 7, "bd:0:64", 3);
        assert_eq!(a, reassignment_backoff_ms(&options, 7, "bd:0:64", 3));
        // Deep attempts saturate at cap + jitter.
        let deep = reassignment_backoff_ms(&options, 7, "bd:0:64", 40);
        assert!(deep <= options.backoff_cap_ms + options.backoff_jitter_ms);
        assert!(deep >= options.backoff_cap_ms);
    }

    /// Exact waits for a few `(seed, unit, attempt)` triples, with and
    /// without jitter: the schedule is part of the ledger bytes.
    #[test]
    fn reassignment_backoff_schedule_is_pinned() {
        let options = DistOptions::default();
        let mut got = Vec::new();
        for (seed, unit) in [(7, "bd:0:64"), (42, "th:128:192")] {
            for attempt in [0, 1, 4, 40] {
                got.push(reassignment_backoff_ms(&options, seed, unit, attempt));
            }
        }
        assert_eq!(got, [201, 408, 3226, 5046, 226, 434, 3248, 5047]);
        let plain = DistOptions {
            backoff_jitter_ms: 0,
            ..DistOptions::default()
        };
        let got: Vec<u64> = [0, 2, 4, 9]
            .map(|a| reassignment_backoff_ms(&plain, 7, "bd:0:64", a))
            .to_vec();
        assert_eq!(got, [200, 800, 3200, 5000]);
    }

    #[test]
    fn worker_state_serves_units_and_rejects_garbage() {
        let config = small_config(53, 6);
        let state = WorkerState::new();
        let country = config.countries[0];
        let request = UnitRequest {
            config: config.clone(),
            country,
            start: 0,
            end: 4,
            hold_ms: 0,
        };
        let body = serde_json::to_string(&request).unwrap();
        let response = state.handle_unit(body.as_bytes()).expect("unit executes");
        let verdicts: Vec<WireVerdict> = serde_json::from_str(&response).unwrap();
        assert_eq!(verdicts.len(), 4);
        // Same config → cached corpus; different range still works.
        let request2 = UnitRequest {
            start: 4,
            end: 6,
            ..request.clone()
        };
        let body2 = serde_json::to_string(&request2).unwrap();
        assert!(state.handle_unit(body2.as_bytes()).is_ok());
        // Garbage and out-of-range units are rejected, not panicked.
        assert!(state.handle_unit(b"not json").is_err());
        let bad = UnitRequest {
            start: 0,
            end: 10_000,
            ..request
        };
        let body3 = serde_json::to_string(&bad).unwrap();
        assert!(state.handle_unit(body3.as_bytes()).is_err());
    }
}
