//! The degraded-run ledger: what a crawl *lost* and what it cost.
//!
//! The dataset records what survived the crawl; under fault injection
//! that is only half the story. [`CrawlLedger`] is the other half — a
//! serializable per-country account of every error by taxonomy class,
//! every retry and virtual-time wait, body damage, breaker activity, and
//! the replacement-chain depth the paper's next-candidate rule had to
//! walk. It is built from the same sequential verdict replay that picks
//! the sites, so for a given `(seed, fault plan)` the ledger bytes are
//! identical at every worker count — the same determinism contract as
//! `Dataset::to_json`, and a tested invariant.
//!
//! Sites whose analysis panicked (poisoned sites — see [`crate::dist`])
//! are listed per country by host, so a degraded run is auditable down
//! to the individual page.

use crate::selection::Rejection;
use langcrux_crawl::{VisitError, VisitTrace};
use langcrux_net::{FaultPlan, FetchError};
use serde::{field, DeError, Deserialize, Serialize, Value};

/// Terminal error counts, bucketed by the expanded fault taxonomy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorTaxonomy {
    /// Request timeouts that survived all retries.
    pub timeouts: u64,
    /// Connection resets that survived all retries.
    pub resets: u64,
    /// Transient 5xx answers that survived all retries.
    pub server_errors: u64,
    /// Vantage refused outright (geo-block wall).
    pub geo_blocks: u64,
    /// Hostname missing from the simulated DNS.
    pub unknown_hosts: u64,
    /// Bot-wall / VPN-detection pages served instead of content.
    pub restricted: u64,
    /// Per-visit virtual-time budget exhausted mid-retry-chain.
    pub deadline_exceeded: u64,
    /// Circuit breaker still open at the visit deadline.
    pub circuit_open: u64,
}

impl ErrorTaxonomy {
    /// Bucket one terminal visit error.
    pub fn record(&mut self, error: &VisitError) {
        match error {
            VisitError::Fetch(FetchError::Timeout) => self.timeouts += 1,
            VisitError::Fetch(FetchError::ConnectionReset) => self.resets += 1,
            VisitError::Fetch(FetchError::ServerError(_)) => self.server_errors += 1,
            VisitError::Fetch(FetchError::GeoBlocked) => self.geo_blocks += 1,
            VisitError::Fetch(FetchError::UnknownHost(_)) => self.unknown_hosts += 1,
            VisitError::Restricted => self.restricted += 1,
            VisitError::DeadlineExceeded => self.deadline_exceeded += 1,
            VisitError::CircuitOpen => self.circuit_open += 1,
        }
    }

    /// Sum over every bucket.
    pub fn total(&self) -> u64 {
        self.timeouts
            + self.resets
            + self.server_errors
            + self.geo_blocks
            + self.unknown_hosts
            + self.restricted
            + self.deadline_exceeded
            + self.circuit_open
    }
}

/// One country's degraded-run account.
///
/// Serialization is hand-written so the translation-gap counters — which
/// only a gap-enabled corpus can make nonzero — are *omitted* when zero.
/// Ledgers from runs with gap scenarios disabled therefore serialize
/// byte-identically to ledgers produced before the gap dimension existed,
/// and old ledger JSON still deserializes (missing counters read as 0).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountryLedger {
    pub country_code: String,
    /// Candidates consumed by the replacement walk.
    pub attempted: u64,
    /// Candidates that qualified (== sites selected).
    pub selected: u64,
    /// Fetch attempts issued, including retries.
    pub attempts: u64,
    /// Retries alone (attempts beyond each visit's first).
    pub retries: u64,
    /// Terminal errors by taxonomy class.
    pub errors: ErrorTaxonomy,
    /// Candidates rejected by the 50% native-content threshold.
    pub rejected_threshold: u64,
    /// Visits whose body arrived truncated.
    pub truncated_bodies: u64,
    /// Visits whose body arrived with a garbled span.
    pub garbled_bodies: u64,
    /// Virtual ms spent in exponential-backoff waits.
    pub backoff_wait_ms: u64,
    /// Virtual ms spent waiting out breaker cooldowns.
    pub breaker_wait_ms: u64,
    /// Total virtual ms the country's visits consumed.
    pub virtual_ms: u64,
    /// Circuit-breaker trips (including re-opens).
    pub breaker_opened: u64,
    /// Half-open probes admitted.
    pub breaker_probes: u64,
    /// Successful probes that re-closed a breaker.
    pub breaker_reclosed: u64,
    /// Candidates the replacement rule consumed without selecting
    /// (threshold rejections + terminal errors).
    pub replacements: u64,
    /// Longest consecutive run of non-selections — how deep the paper's
    /// next-candidate rule had to dig at the worst point.
    pub max_replacement_run: u64,
    /// Hosts whose site analysis panicked and was contained.
    pub poisoned_sites: Vec<String>,
    /// Selected pages carrying at least one translation-gap region.
    pub gap_pages: u64,
    /// Translation-gap regions flagged across the country's pages.
    pub gap_regions: u64,
}

impl Serialize for CountryLedger {
    fn to_value(&self) -> Value {
        let mut obj = vec![
            ("country_code".to_string(), self.country_code.to_value()),
            ("attempted".to_string(), self.attempted.to_value()),
            ("selected".to_string(), self.selected.to_value()),
            ("attempts".to_string(), self.attempts.to_value()),
            ("retries".to_string(), self.retries.to_value()),
            ("errors".to_string(), self.errors.to_value()),
            (
                "rejected_threshold".to_string(),
                self.rejected_threshold.to_value(),
            ),
            (
                "truncated_bodies".to_string(),
                self.truncated_bodies.to_value(),
            ),
            ("garbled_bodies".to_string(), self.garbled_bodies.to_value()),
            (
                "backoff_wait_ms".to_string(),
                self.backoff_wait_ms.to_value(),
            ),
            (
                "breaker_wait_ms".to_string(),
                self.breaker_wait_ms.to_value(),
            ),
            ("virtual_ms".to_string(), self.virtual_ms.to_value()),
            ("breaker_opened".to_string(), self.breaker_opened.to_value()),
            ("breaker_probes".to_string(), self.breaker_probes.to_value()),
            (
                "breaker_reclosed".to_string(),
                self.breaker_reclosed.to_value(),
            ),
            ("replacements".to_string(), self.replacements.to_value()),
            (
                "max_replacement_run".to_string(),
                self.max_replacement_run.to_value(),
            ),
            ("poisoned_sites".to_string(), self.poisoned_sites.to_value()),
        ];
        if self.gap_pages != 0 || self.gap_regions != 0 {
            obj.push(("gap_pages".to_string(), self.gap_pages.to_value()));
            obj.push(("gap_regions".to_string(), self.gap_regions.to_value()));
        }
        Value::Object(obj)
    }
}

impl Deserialize for CountryLedger {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        let optional = |name: &str| -> Result<u64, DeError> {
            match v.get(name) {
                Some(count) => u64::from_value(count),
                None => Ok(0),
            }
        };
        Ok(CountryLedger {
            country_code: field(obj, "country_code")?,
            attempted: field(obj, "attempted")?,
            selected: field(obj, "selected")?,
            attempts: field(obj, "attempts")?,
            retries: field(obj, "retries")?,
            errors: field(obj, "errors")?,
            rejected_threshold: field(obj, "rejected_threshold")?,
            truncated_bodies: field(obj, "truncated_bodies")?,
            garbled_bodies: field(obj, "garbled_bodies")?,
            backoff_wait_ms: field(obj, "backoff_wait_ms")?,
            breaker_wait_ms: field(obj, "breaker_wait_ms")?,
            virtual_ms: field(obj, "virtual_ms")?,
            breaker_opened: field(obj, "breaker_opened")?,
            breaker_probes: field(obj, "breaker_probes")?,
            breaker_reclosed: field(obj, "breaker_reclosed")?,
            replacements: field(obj, "replacements")?,
            max_replacement_run: field(obj, "max_replacement_run")?,
            poisoned_sites: field(obj, "poisoned_sites")?,
            gap_pages: optional("gap_pages")?,
            gap_regions: optional("gap_regions")?,
        })
    }
}

impl CountryLedger {
    pub fn new(country_code: &str) -> Self {
        CountryLedger {
            country_code: country_code.to_string(),
            ..CountryLedger::default()
        }
    }

    /// Fold one probed candidate (its site-free verdict and visit trace)
    /// into the account. Replacement-run depth is tracked by the caller,
    /// which owns the sequential walk — see [`note_replacement_run`].
    ///
    /// [`note_replacement_run`]: CountryLedger::note_replacement_run
    pub fn record_probe_outcome(&mut self, outcome: Result<(), &Rejection>, trace: &VisitTrace) {
        self.attempted += 1;
        self.attempts += u64::from(trace.attempts);
        self.retries += u64::from(trace.attempts.saturating_sub(1));
        self.truncated_bodies += u64::from(trace.truncated);
        self.garbled_bodies += u64::from(trace.garbled);
        self.backoff_wait_ms += trace.backoff_wait_ms;
        self.breaker_wait_ms += trace.breaker_wait_ms;
        self.virtual_ms += trace.virtual_ms;
        self.breaker_opened += u64::from(trace.breaker_opened);
        self.breaker_probes += u64::from(trace.breaker_probes);
        self.breaker_reclosed += u64::from(trace.breaker_reclosed);
        match outcome {
            Ok(()) => self.selected += 1,
            Err(Rejection::BelowThreshold) => {
                self.rejected_threshold += 1;
                self.replacements += 1;
            }
            Err(Rejection::Fetch(e)) => {
                self.errors.record(e);
                self.replacements += 1;
            }
        }
    }

    /// Report one consecutive run of non-selections from the replacement
    /// walk; keeps the maximum.
    pub fn note_replacement_run(&mut self, run: u64) {
        self.max_replacement_run = self.max_replacement_run.max(run);
    }

    /// Sum another account into this one (used for the run totals).
    pub fn absorb(&mut self, other: &CountryLedger) {
        self.attempted += other.attempted;
        self.selected += other.selected;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.errors.timeouts += other.errors.timeouts;
        self.errors.resets += other.errors.resets;
        self.errors.server_errors += other.errors.server_errors;
        self.errors.geo_blocks += other.errors.geo_blocks;
        self.errors.unknown_hosts += other.errors.unknown_hosts;
        self.errors.restricted += other.errors.restricted;
        self.errors.deadline_exceeded += other.errors.deadline_exceeded;
        self.errors.circuit_open += other.errors.circuit_open;
        self.rejected_threshold += other.rejected_threshold;
        self.truncated_bodies += other.truncated_bodies;
        self.garbled_bodies += other.garbled_bodies;
        self.backoff_wait_ms += other.backoff_wait_ms;
        self.breaker_wait_ms += other.breaker_wait_ms;
        self.virtual_ms += other.virtual_ms;
        self.breaker_opened += other.breaker_opened;
        self.breaker_probes += other.breaker_probes;
        self.breaker_reclosed += other.breaker_reclosed;
        self.replacements += other.replacements;
        self.max_replacement_run = self.max_replacement_run.max(other.max_replacement_run);
        self.poisoned_sites
            .extend(other.poisoned_sites.iter().cloned());
        self.gap_pages += other.gap_pages;
        self.gap_regions += other.gap_regions;
    }
}

/// A work unit a distributed build permanently lost: its worker died (or
/// stalled past its lease) more than `max_reassignments` times, so its
/// candidate range was never probed. The affected country's verdict
/// replay truncates at the hole — the run degrades to a quota shortfall
/// instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedUnit {
    pub country_code: String,
    /// Candidate range the unit covered (`start..end`, rank order).
    pub start: u64,
    pub end: u64,
    /// Dispatch attempts consumed before the unit was given up.
    pub attempts: u32,
}

/// The degraded-run ledger for one dataset build.
///
/// Serialization is hand-written for the same reason as
/// [`CountryLedger`]'s: the `degraded_units` section — which only a
/// distributed build that permanently lost a unit can populate — is
/// *omitted* when empty, so single-process ledgers (and every fully
/// recovered distributed run) serialize byte-identically to ledgers
/// produced before the distributed build existed.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlLedger {
    /// Corpus seed the run was built from.
    pub seed: u64,
    /// The fault plan in force (round-trips through JSON).
    pub fault_plan: FaultPlan,
    /// Per-country accounts, in study order.
    pub countries: Vec<CountryLedger>,
    /// Whole-run totals (`country_code == "total"`).
    pub totals: CountryLedger,
    /// Work units a distributed build lost after max reassignments;
    /// empty on single-process and fully recovered runs.
    pub degraded_units: Vec<DegradedUnit>,
}

impl Serialize for CrawlLedger {
    fn to_value(&self) -> Value {
        let mut obj = vec![
            ("seed".to_string(), self.seed.to_value()),
            ("fault_plan".to_string(), self.fault_plan.to_value()),
            ("countries".to_string(), self.countries.to_value()),
            ("totals".to_string(), self.totals.to_value()),
        ];
        if !self.degraded_units.is_empty() {
            obj.push(("degraded_units".to_string(), self.degraded_units.to_value()));
        }
        Value::Object(obj)
    }
}

impl Deserialize for CrawlLedger {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        Ok(CrawlLedger {
            seed: field(obj, "seed")?,
            fault_plan: field(obj, "fault_plan")?,
            countries: field(obj, "countries")?,
            totals: field(obj, "totals")?,
            degraded_units: match v.get("degraded_units") {
                Some(units) => Vec::from_value(units)?,
                None => Vec::new(),
            },
        })
    }
}

impl CrawlLedger {
    pub fn new(seed: u64, fault_plan: FaultPlan, countries: Vec<CountryLedger>) -> Self {
        let mut totals = CountryLedger::new("total");
        for country in &countries {
            totals.absorb(country);
        }
        CrawlLedger {
            seed,
            fault_plan,
            countries,
            totals,
            degraded_units: Vec::new(),
        }
    }

    /// Register the run totals into the unified metrics registry
    /// (`langcrux_crawl_*` family — see `docs/observability.md`).
    pub fn encode_metrics(&self, enc: &mut langcrux_obs::Encoder) {
        let t = &self.totals;
        enc.counter(
            "langcrux_crawl_candidates_attempted_total",
            "Candidates consumed by the replacement walk.",
            t.attempted as f64,
        );
        enc.counter(
            "langcrux_crawl_sites_selected_total",
            "Candidates that qualified (sites in the dataset).",
            t.selected as f64,
        );
        enc.counter(
            "langcrux_crawl_fetch_attempts_total",
            "Fetch attempts issued, including retries.",
            t.attempts as f64,
        );
        enc.counter(
            "langcrux_crawl_retries_total",
            "Retries beyond each visit's first attempt.",
            t.retries as f64,
        );
        const ERRORS: &str = "Terminal visit errors, by taxonomy class.";
        for (class, count) in [
            ("timeout", t.errors.timeouts),
            ("reset", t.errors.resets),
            ("server_error", t.errors.server_errors),
            ("geo_block", t.errors.geo_blocks),
            ("unknown_host", t.errors.unknown_hosts),
            ("restricted", t.errors.restricted),
            ("deadline_exceeded", t.errors.deadline_exceeded),
            ("circuit_open", t.errors.circuit_open),
        ] {
            enc.counter_with(
                "langcrux_crawl_errors_total",
                ERRORS,
                &[("class", class)],
                count as f64,
            );
        }
        enc.counter(
            "langcrux_crawl_rejected_threshold_total",
            "Candidates rejected by the 50% native-content threshold.",
            t.rejected_threshold as f64,
        );
        const DAMAGE: &str = "Visits whose body arrived damaged, by kind.";
        enc.counter_with(
            "langcrux_crawl_damaged_bodies_total",
            DAMAGE,
            &[("kind", "truncated")],
            t.truncated_bodies as f64,
        );
        enc.counter_with(
            "langcrux_crawl_damaged_bodies_total",
            DAMAGE,
            &[("kind", "garbled")],
            t.garbled_bodies as f64,
        );
        const WAITS: &str = "Virtual milliseconds spent waiting, by cause.";
        enc.counter_with(
            "langcrux_crawl_wait_virtual_milliseconds_total",
            WAITS,
            &[("cause", "backoff")],
            t.backoff_wait_ms as f64,
        );
        enc.counter_with(
            "langcrux_crawl_wait_virtual_milliseconds_total",
            WAITS,
            &[("cause", "breaker")],
            t.breaker_wait_ms as f64,
        );
        enc.counter(
            "langcrux_crawl_virtual_milliseconds_total",
            "Total virtual milliseconds the crawl consumed.",
            t.virtual_ms as f64,
        );
        enc.counter(
            "langcrux_crawl_breaker_opened_total",
            "Circuit-breaker trips, including re-opens.",
            t.breaker_opened as f64,
        );
        enc.counter(
            "langcrux_crawl_breaker_probes_total",
            "Half-open probes admitted.",
            t.breaker_probes as f64,
        );
        enc.counter(
            "langcrux_crawl_breaker_reclosed_total",
            "Successful probes that re-closed a breaker.",
            t.breaker_reclosed as f64,
        );
        enc.counter(
            "langcrux_crawl_replacements_total",
            "Candidates consumed without selection.",
            t.replacements as f64,
        );
        enc.gauge(
            "langcrux_crawl_max_replacement_run",
            "Deepest consecutive non-selection run of the replacement walk.",
            t.max_replacement_run as f64,
        );
        enc.gauge(
            "langcrux_crawl_poisoned_sites",
            "Hosts whose site analysis panicked and was contained.",
            t.poisoned_sites.len() as f64,
        );
        const GAP_PAGES: &str = "Selected pages with at least one translation-gap region.";
        const GAP_REGIONS: &str = "Translation-gap regions flagged by the audit.";
        for c in &self.countries {
            let labels = [("country", c.country_code.as_str())];
            enc.counter_with(
                "langcrux_crawl_gap_pages_total",
                GAP_PAGES,
                &labels,
                c.gap_pages as f64,
            );
            enc.counter_with(
                "langcrux_crawl_gap_regions_total",
                GAP_REGIONS,
                &labels,
                c.gap_regions as f64,
            );
        }
    }

    /// Serialize to JSON (written alongside the dataset).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Load from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<CrawlLedger> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(attempts: u32, virtual_ms: u64) -> VisitTrace {
        VisitTrace {
            attempts,
            virtual_ms,
            ..VisitTrace::default()
        }
    }

    #[test]
    fn taxonomy_buckets_every_error_kind() {
        let mut tax = ErrorTaxonomy::default();
        for e in [
            VisitError::Fetch(FetchError::Timeout),
            VisitError::Fetch(FetchError::ConnectionReset),
            VisitError::Fetch(FetchError::ServerError(503)),
            VisitError::Fetch(FetchError::GeoBlocked),
            VisitError::Fetch(FetchError::UnknownHost("x.bd".into())),
            VisitError::Restricted,
            VisitError::DeadlineExceeded,
            VisitError::CircuitOpen,
        ] {
            tax.record(&e);
        }
        assert_eq!(tax.total(), 8);
        assert_eq!(tax.timeouts, 1);
        assert_eq!(tax.server_errors, 1);
        assert_eq!(tax.circuit_open, 1);
    }

    #[test]
    fn record_probe_outcome_accumulates_and_counts_replacements() {
        let mut ledger = CountryLedger::new("bd");
        ledger.record_probe_outcome(Err(&Rejection::BelowThreshold), &trace(1, 50));
        ledger.record_probe_outcome(
            Err(&Rejection::Fetch(VisitError::Fetch(FetchError::Timeout))),
            &trace(3, 900),
        );
        ledger.note_replacement_run(2);
        ledger.record_probe_outcome(Ok(()), &trace(1, 0));
        assert_eq!(ledger.attempted, 3);
        assert_eq!(ledger.selected, 1);
        assert_eq!(ledger.attempts, 5);
        assert_eq!(ledger.retries, 2);
        assert_eq!(ledger.replacements, 2);
        assert_eq!(ledger.max_replacement_run, 2);
        assert_eq!(ledger.rejected_threshold, 1);
        assert_eq!(ledger.errors.timeouts, 1);
        assert_eq!(ledger.virtual_ms, 950);
    }

    #[test]
    fn totals_absorb_all_countries() {
        let mut bd = CountryLedger::new("bd");
        bd.record_probe_outcome(
            Err(&Rejection::Fetch(VisitError::Restricted)),
            &trace(1, 10),
        );
        bd.poisoned_sites.push("sangbad-3.bd".into());
        let mut th = CountryLedger::new("th");
        th.record_probe_outcome(Err(&Rejection::BelowThreshold), &trace(2, 20));
        let ledger = CrawlLedger::new(9, FaultPlan::RELIABLE, vec![bd, th]);
        assert_eq!(ledger.totals.country_code, "total");
        assert_eq!(ledger.totals.attempted, 2);
        assert_eq!(ledger.totals.attempts, 3);
        assert_eq!(ledger.totals.errors.restricted, 1);
        assert_eq!(ledger.totals.poisoned_sites, vec!["sangbad-3.bd"]);
    }

    #[test]
    fn gap_counters_are_elided_when_zero_and_round_trip_when_set() {
        // Zero counters: no keys at all, so gap-free ledgers serialize
        // byte-identically to pre-gap-dimension ledgers …
        let clean = CountryLedger::new("bd");
        let v = clean.to_value();
        assert!(v.get("gap_pages").is_none());
        assert!(v.get("gap_regions").is_none());
        // … and old JSON (no keys) still loads, defaulting to 0.
        let back = CountryLedger::from_value(&v).unwrap();
        assert_eq!(back, clean);

        let mut gappy = CountryLedger::new("th");
        gappy.gap_pages = 4;
        gappy.gap_regions = 11;
        let v = gappy.to_value();
        assert!(v.get("gap_pages").is_some());
        let back = CountryLedger::from_value(&v).unwrap();
        assert_eq!(back, gappy);

        let mut totals = CountryLedger::new("total");
        totals.absorb(&clean);
        totals.absorb(&gappy);
        assert_eq!(totals.gap_pages, 4);
        assert_eq!(totals.gap_regions, 11);
    }

    #[test]
    fn degraded_units_elided_when_empty_and_round_trip_when_set() {
        // Empty: no key at all, so fully recovered (and single-process)
        // ledgers serialize byte-identically to pre-distributed ones …
        let clean = CrawlLedger::new(7, FaultPlan::RELIABLE, vec![CountryLedger::new("bd")]);
        let v = clean.to_value();
        assert!(v.get("degraded_units").is_none());
        // … and old JSON (no key) still loads, defaulting to empty.
        let back = CrawlLedger::from_value(&v).unwrap();
        assert_eq!(back, clean);

        let mut degraded = clean.clone();
        degraded.degraded_units.push(DegradedUnit {
            country_code: "bd".into(),
            start: 64,
            end: 128,
            attempts: 6,
        });
        let v = degraded.to_value();
        assert!(v.get("degraded_units").is_some());
        let back = CrawlLedger::from_value(&v).unwrap();
        assert_eq!(back, degraded);
        assert_eq!(back.degraded_units[0].end, 128);
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let mut bd = CountryLedger::new("bd");
        bd.record_probe_outcome(
            Err(&Rejection::Fetch(VisitError::DeadlineExceeded)),
            &trace(4, 31_000),
        );
        let ledger = CrawlLedger::new(41, FaultPlan::HOSTILE, vec![bd]);
        let json = ledger.to_json().unwrap();
        let back = CrawlLedger::from_json(&json).unwrap();
        assert_eq!(back, ledger);
    }
}
