//! Deterministic fault injection.
//!
//! Real measurement crawls lose requests to timeouts, resets, geo-blocks
//! and VPN detection; the paper's methodology explicitly handles these by
//! replacing affected sites with "the next eligible candidate". The fault
//! plan makes those hazards reproducible: every roll is derived from
//! `(seed, host, attempt, purpose)`, so a crawl with the same seed loses
//! exactly the same requests — and the crawler's retry logic can be tested
//! against known outcomes.
//!
//! The shape follows the fault-injection options of smoltcp's examples
//! (drop chance, corruption chance, latency shaping) adapted to the HTTP
//! level.

use langcrux_lang::rng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Probabilities and latency model for the simulated network.
///
/// Fields beyond whole-request loss model *partial* damage — truncated and
/// garbled bodies, transient 5xx answers, persistently slow hosts — the
/// degradations a real measurement crawl sees far more often than clean
/// timeouts. Missing fields deserialize to their values in
/// `FaultPlan::default()` (the container `#[serde(default)]`), so a
/// hand-written `--fault-plan` JSON file only needs the knobs it changes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultPlan {
    /// Probability a request times out entirely.
    pub timeout_chance: f64,
    /// Probability the connection resets mid-transfer.
    pub reset_chance: f64,
    /// Probability a VPN-detecting site recognises the VPN *in addition to*
    /// the provider's own detectability factor.
    pub extra_vpn_detection: f64,
    /// Probability a request is answered with a transient 5xx instead of
    /// a body (retryable, like timeouts).
    pub server_error_chance: f64,
    /// Probability a served body is cut off mid-transfer (the response
    /// still arrives, but incomplete — the extractor sees partial HTML).
    pub truncate_chance: f64,
    /// Probability a served body has a span of characters garbled into
    /// U+FFFD replacement characters (mojibake after transport damage).
    pub garble_chance: f64,
    /// Fraction of hosts that are *persistently* slow — the property is
    /// derived from `(seed, host)` alone, so a slow host is slow on every
    /// attempt, from every vantage.
    pub slow_host_fraction: f64,
    /// Latency multiplier applied to slow hosts.
    pub slow_latency_multiplier: u32,
    /// Base round-trip latency in milliseconds.
    pub base_latency_ms: u32,
    /// Additional uniform jitter bound in milliseconds.
    pub jitter_ms: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            timeout_chance: 0.01,
            reset_chance: 0.005,
            extra_vpn_detection: 0.0,
            server_error_chance: 0.004,
            truncate_chance: 0.004,
            garble_chance: 0.002,
            slow_host_fraction: 0.04,
            slow_latency_multiplier: 8,
            base_latency_ms: 80,
            jitter_ms: 120,
        }
    }
}

impl FaultPlan {
    /// A perfectly reliable network (unit tests that do not exercise
    /// failure paths).
    pub const RELIABLE: FaultPlan = FaultPlan {
        timeout_chance: 0.0,
        reset_chance: 0.0,
        extra_vpn_detection: 0.0,
        server_error_chance: 0.0,
        truncate_chance: 0.0,
        garble_chance: 0.0,
        slow_host_fraction: 0.0,
        slow_latency_multiplier: 1,
        base_latency_ms: 50,
        jitter_ms: 0,
    };

    /// A hostile network for failure-injection tests (≈15% whole-request
    /// loss, echoing the smoltcp examples' recommended starting point,
    /// plus heavy partial damage and a sizeable slow-host population).
    pub const HOSTILE: FaultPlan = FaultPlan {
        timeout_chance: 0.10,
        reset_chance: 0.05,
        extra_vpn_detection: 0.10,
        server_error_chance: 0.05,
        truncate_chance: 0.04,
        garble_chance: 0.02,
        slow_host_fraction: 0.15,
        slow_latency_multiplier: 12,
        base_latency_ms: 200,
        jitter_ms: 400,
    };
}

/// What kind of roll is being made — part of the derivation stream so that
/// independent decisions do not correlate.
#[derive(Debug, Clone, Copy)]
pub enum RollPurpose {
    Timeout,
    Reset,
    VpnDetection,
    Latency,
    GeoBlock,
    ServerError,
    Truncate,
    TruncatePoint,
    Garble,
    GarblePoint,
    SlowHost,
}

impl RollPurpose {
    fn stream(self) -> u64 {
        match self {
            RollPurpose::Timeout => 0x71,
            RollPurpose::Reset => 0x72,
            RollPurpose::VpnDetection => 0x73,
            RollPurpose::Latency => 0x74,
            RollPurpose::GeoBlock => 0x75,
            RollPurpose::ServerError => 0x76,
            RollPurpose::Truncate => 0x77,
            RollPurpose::TruncatePoint => 0x78,
            RollPurpose::Garble => 0x79,
            RollPurpose::GarblePoint => 0x7A,
            RollPurpose::SlowHost => 0x7B,
        }
    }
}

/// Deterministic roll source for one request.
#[derive(Debug, Clone, Copy)]
pub struct FaultDice {
    seed: u64,
    host_id: u64,
    attempt: u32,
}

impl FaultDice {
    pub fn new(seed: u64, host: &str, attempt: u32) -> Self {
        FaultDice {
            seed,
            host_id: rng::stream_id(host),
            attempt,
        }
    }

    /// Uniform `[0,1)` roll for a purpose.
    pub fn roll(&self, purpose: RollPurpose) -> f64 {
        let mut r = rng::rng_for(
            self.seed,
            &[self.host_id, u64::from(self.attempt), purpose.stream()],
        );
        r.gen()
    }

    /// Whether an event with probability `p` fires.
    pub fn fires(&self, purpose: RollPurpose, p: f64) -> bool {
        p > 0.0 && self.roll(purpose) < p
    }

    /// Whether this host belongs to the plan's persistently slow
    /// population. Derived from `(seed, host)` alone — deliberately *not*
    /// from the attempt — so the property is stable across retries and
    /// vantages (a congested or distant server, not a flaky link).
    pub fn host_is_slow(&self, plan: &FaultPlan) -> bool {
        if plan.slow_host_fraction <= 0.0 {
            return false;
        }
        let mut r = rng::rng_for(self.seed, &[self.host_id, RollPurpose::SlowHost.stream()]);
        r.gen::<f64>() < plan.slow_host_fraction
    }

    /// Latency sample for this request (slow hosts pay the multiplier).
    pub fn latency_ms(&self, plan: &FaultPlan) -> u32 {
        let sample = if plan.jitter_ms == 0 {
            plan.base_latency_ms
        } else {
            let mut r = rng::rng_for(
                self.seed,
                &[
                    self.host_id,
                    u64::from(self.attempt),
                    RollPurpose::Latency.stream(),
                ],
            );
            plan.base_latency_ms + r.gen_range(0..=plan.jitter_ms)
        };
        if self.host_is_slow(plan) {
            sample.saturating_mul(plan.slow_latency_multiplier.max(1))
        } else {
            sample
        }
    }

    /// Which 5xx a fired server-error roll answers with.
    pub fn server_error_code(&self) -> u16 {
        const CODES: [u16; 4] = [500, 502, 503, 504];
        let mut r = rng::rng_for(
            self.seed,
            &[
                self.host_id,
                u64::from(self.attempt),
                RollPurpose::ServerError.stream(),
                1,
            ],
        );
        CODES[(r.gen::<u64>() % CODES.len() as u64) as usize]
    }

    /// Byte offset at which a fired truncation cuts a body of `len` bytes
    /// (somewhere in the middle 15–85% — a header-only fragment or a
    /// nearly complete page are both less interesting to the extractor).
    /// Callers must still floor the offset to a char boundary.
    pub fn truncate_cut(&self, len: usize) -> usize {
        let mut r = rng::rng_for(
            self.seed,
            &[
                self.host_id,
                u64::from(self.attempt),
                RollPurpose::TruncatePoint.stream(),
            ],
        );
        let frac = 0.15 + 0.70 * r.gen::<f64>();
        (len as f64 * frac) as usize
    }

    /// `(start, span)` in bytes of a fired garble over a body of `len`
    /// bytes. Callers must floor both edges to char boundaries.
    pub fn garble_span(&self, len: usize) -> (usize, usize) {
        let mut r = rng::rng_for(
            self.seed,
            &[
                self.host_id,
                u64::from(self.attempt),
                RollPurpose::GarblePoint.stream(),
            ],
        );
        let start = (len as f64 * (0.9 * r.gen::<f64>())) as usize;
        let span = 16 + (r.gen::<u64>() % 49) as usize; // 16..=64 bytes
        (start, span)
    }
}

/// Derivation stream tag for worker-kill chaos (disjoint from the
/// request-level [`RollPurpose`] streams and from the crawl backoff
/// stream `0xB0FF`).
const KILL_STREAM: u64 = 0xD157;

/// The distributed build's worker-kill chaos plan (`repro
/// --chaos-kill-workers`).
///
/// Like every other hazard in this module, kills are *scheduled*, not
/// random at runtime: how many times the worker executing a given work
/// unit is SIGKILLed is a pure function of `(seed, unit key)`, so a
/// chaos run is exactly reproducible and — because the schedule never
/// exceeds the coordinator's reassignment budget — provably recoverable.
/// The unit key is the coordinator's stable `"<country>:<start>:<end>"`
/// string, which survives coordinator restarts and is independent of
/// worker count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChaosKillPlan {
    /// Derivation seed (defaults to the corpus seed).
    pub seed: u64,
    /// Chance that a unit's schedule contains at least one kill.
    pub kill_chance: f64,
    /// Most kills any single unit's schedule may contain. Keep strictly
    /// below the coordinator's `max_reassignments` so every scheduled
    /// kill is eventually recovered and the output bytes stay identical
    /// to the no-failure run.
    pub max_kills_per_unit: u32,
}

impl ChaosKillPlan {
    /// The default chaos schedule: roughly half the units lose their
    /// worker at least once, some twice.
    pub fn standard(seed: u64) -> Self {
        ChaosKillPlan {
            seed,
            kill_chance: 0.5,
            max_kills_per_unit: 2,
        }
    }

    /// How many times the worker executing `unit_key` is killed before
    /// the unit is allowed to complete. Pure in `(seed, unit_key)`.
    pub fn kills_for_unit(&self, unit_key: &str) -> u32 {
        if self.kill_chance <= 0.0 || self.max_kills_per_unit == 0 {
            return 0;
        }
        let mut r = rng::rng_for(self.seed, &[rng::stream_id(unit_key), KILL_STREAM]);
        if r.gen::<f64>() >= self.kill_chance {
            return 0;
        }
        1 + (r.gen::<u64>() % u64::from(self.max_kills_per_unit)) as u32
    }

    /// Whether dispatch attempt `attempt` (0-based) of `unit_key` should
    /// be killed mid-unit. The first `kills_for_unit` attempts die; every
    /// later attempt runs to completion.
    pub fn should_kill(&self, unit_key: &str, attempt: u32) -> bool {
        attempt < self.kills_for_unit(unit_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic() {
        let a = FaultDice::new(1, "example.bd", 0);
        let b = FaultDice::new(1, "example.bd", 0);
        assert_eq!(a.roll(RollPurpose::Timeout), b.roll(RollPurpose::Timeout));
    }

    #[test]
    fn attempts_decorrelate() {
        let a = FaultDice::new(1, "example.bd", 0);
        let b = FaultDice::new(1, "example.bd", 1);
        assert_ne!(a.roll(RollPurpose::Timeout), b.roll(RollPurpose::Timeout));
    }

    #[test]
    fn purposes_decorrelate() {
        let d = FaultDice::new(1, "example.bd", 0);
        assert_ne!(d.roll(RollPurpose::Timeout), d.roll(RollPurpose::Reset));
    }

    #[test]
    fn zero_probability_never_fires() {
        for i in 0..100 {
            let d = FaultDice::new(9, "host", i);
            assert!(!d.fires(RollPurpose::Timeout, 0.0));
        }
    }

    #[test]
    fn one_probability_always_fires() {
        for i in 0..100 {
            let d = FaultDice::new(9, "host", i);
            assert!(d.fires(RollPurpose::Reset, 1.0));
        }
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let mut hits = 0;
        let n = 5000;
        for i in 0..n {
            let d = FaultDice::new(42, &format!("h{i}"), 0);
            if d.fires(RollPurpose::Timeout, 0.10) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((0.07..0.13).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn latency_within_bounds() {
        // Zero slow-host fraction isolates the jitter window.
        let plan = FaultPlan {
            slow_host_fraction: 0.0,
            ..FaultPlan::default()
        };
        for i in 0..200 {
            let d = FaultDice::new(3, "x", i);
            let l = d.latency_ms(&plan);
            assert!(l >= plan.base_latency_ms);
            assert!(l <= plan.base_latency_ms + plan.jitter_ms);
        }
        let d = FaultDice::new(3, "x", 0);
        assert_eq!(d.latency_ms(&FaultPlan::RELIABLE), 50);
    }

    #[test]
    fn slow_hosts_are_a_stable_per_host_property() {
        let plan = FaultPlan::HOSTILE;
        let mut slow = 0;
        for i in 0..2000 {
            let host = format!("s{i}.bd");
            let first = FaultDice::new(77, &host, 0).host_is_slow(&plan);
            // Stable across attempts — the roll must not consume attempt.
            for attempt in 1..4 {
                assert_eq!(
                    first,
                    FaultDice::new(77, &host, attempt).host_is_slow(&plan)
                );
            }
            if first {
                slow += 1;
            }
        }
        let rate = f64::from(slow) / 2000.0;
        assert!((0.10..0.20).contains(&rate), "slow rate = {rate}");
        // And the multiplier actually shows up in the latency sample.
        let slow_host = (0..200)
            .map(|i| format!("s{i}.bd"))
            .find(|h| FaultDice::new(77, h, 0).host_is_slow(&plan))
            .expect("a slow host in 200 draws");
        let d = FaultDice::new(77, &slow_host, 0);
        assert!(d.latency_ms(&plan) >= plan.base_latency_ms * plan.slow_latency_multiplier);
    }

    #[test]
    fn server_error_codes_are_5xx() {
        for i in 0..100 {
            let code = FaultDice::new(13, &format!("e{i}"), 0).server_error_code();
            assert!((500..=504).contains(&code), "{code}");
        }
    }

    #[test]
    fn truncate_cut_stays_in_the_middle() {
        for i in 0..100 {
            let cut = FaultDice::new(13, &format!("t{i}"), 0).truncate_cut(10_000);
            assert!((1_500..8_500).contains(&cut), "{cut}");
        }
    }

    #[test]
    fn garble_span_is_bounded() {
        for i in 0..100 {
            let (start, span) = FaultDice::new(13, &format!("g{i}"), 0).garble_span(10_000);
            assert!(start < 9_000, "{start}");
            assert!((16..=64).contains(&span), "{span}");
        }
    }

    #[test]
    fn kill_schedule_is_pure_and_bounded() {
        let plan = ChaosKillPlan::standard(41);
        let mut killed_units = 0u32;
        for i in 0..400 {
            let key = format!("bd:{}:{}", i * 64, (i + 1) * 64);
            let kills = plan.kills_for_unit(&key);
            assert_eq!(kills, plan.kills_for_unit(&key), "schedule must be pure");
            assert!(kills <= plan.max_kills_per_unit);
            if kills > 0 {
                killed_units += 1;
            }
            // The first `kills` attempts die, then the unit completes.
            for attempt in 0..kills {
                assert!(plan.should_kill(&key, attempt));
            }
            assert!(!plan.should_kill(&key, kills));
        }
        // Roughly kill_chance of units are scheduled to die at least once.
        let rate = f64::from(killed_units) / 400.0;
        assert!((0.35..0.65).contains(&rate), "kill rate = {rate}");
        // Chaos off: no unit ever dies.
        let off = ChaosKillPlan {
            kill_chance: 0.0,
            ..plan
        };
        assert_eq!(off.kills_for_unit("bd:0:64"), 0);
    }

    #[test]
    fn partial_plan_json_deserializes_with_defaults() {
        let plan: FaultPlan =
            serde_json::from_str(r#"{"timeout_chance":0.5,"garble_chance":0.25}"#).unwrap();
        assert_eq!(plan.timeout_chance, 0.5);
        assert_eq!(plan.garble_chance, 0.25);
        assert_eq!(plan.base_latency_ms, FaultPlan::default().base_latency_ms);
        let round: FaultPlan =
            serde_json::from_str(&serde_json::to_string(&FaultPlan::HOSTILE).unwrap()).unwrap();
        assert_eq!(round, FaultPlan::HOSTILE);
    }
}
