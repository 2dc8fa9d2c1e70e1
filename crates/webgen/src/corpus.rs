//! Corpus assembly: plans + simulated internet.
//!
//! [`Corpus::build`] stands in for "the web as seen from CrUX": for every
//! study country it describes an over-provisioned, rank-ordered candidate
//! list (the paper extends its search to lower-ranked sites when top sites
//! fail the language threshold) and exposes every site to the simulated
//! [`Internet`]. The selection pipeline in `langcrux-core` then walks
//! candidates in rank order exactly as §2 describes: fetch through the
//! country VPN, verify the 50% native-visible-text rule, replace failures
//! with the next candidate.
//!
//! ## Lazy shards
//!
//! The corpus materialises nothing up front. Each country's candidate
//! list is a **shard** built by the first [`Corpus::candidates`] call for
//! that country and kept for the corpus's lifetime, so a shard is built
//! at most once. Shard contents are a pure function of
//! `(corpus seed, country)`, so neither the order nor the thread of the
//! first touch can change a site plan, a fetch outcome or a
//! `Dataset::to_json` byte. The *fetch* path never touches the shards at
//! all — the host resolver re-derives a site's plan straight from its
//! hostname (see `CorpusResolver::plan_for`). [`Corpus::shard_stats`]
//! counts the builds.
//!
//! Page rendering inside the resolver runs through a shared
//! [`ScratchPool`] of render arenas, so steady-state crawling allocates
//! neither corpus memory (beyond the built shards) nor render scratch.

use crate::calibration::rank_quantile;
use crate::page::{render, render_into, PageTruth, ScratchPool};
use crate::site::SitePlan;
use langcrux_lang::{rng, Country};
use langcrux_net::{ContentVariant, FaultPlan, HostResolver, Internet, ResolvedHost};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Corpus construction parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Workspace seed: same seed ⇒ byte-identical corpus.
    pub seed: u64,
    /// Target number of *qualifying* sites per country (the paper: 10,000;
    /// the default harness: 1,500 for tractable runtimes).
    pub sites_per_country: usize,
    /// Countries to generate.
    pub countries: Vec<Country>,
    /// Fault behaviour of the simulated network.
    pub fault_plan: FaultPlan,
    /// Candidate overprovisioning factor (>1): extra lower-ranked sites
    /// available as replacements for threshold/fetch failures.
    pub overprovision: f64,
    /// Plant partial-localisation (translation-gap) scenarios: untranslated
    /// chrome, mistagged `lang` subtrees, unmarked English fallback blocks.
    /// Default `false`, under which the corpus is byte-identical to one
    /// built before gap support existed (gap sampling uses dedicated RNG
    /// streams that are never drawn when disabled).
    pub gap_scenarios: bool,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: rng::DEFAULT_SEED,
            sites_per_country: 1_500,
            countries: Country::STUDY.to_vec(),
            fault_plan: FaultPlan::default(),
            overprovision: 1.5,
            gap_scenarios: false,
        }
    }
}

impl CorpusConfig {
    /// A small corpus for unit/integration tests.
    pub fn small(seed: u64, sites_per_country: usize) -> Self {
        CorpusConfig {
            seed,
            sites_per_country,
            fault_plan: FaultPlan::RELIABLE,
            ..CorpusConfig::default()
        }
    }

    fn candidates_per_country(&self) -> usize {
        ((self.sites_per_country as f64) * self.overprovision).ceil() as usize
    }

    /// Materialise one country's candidate list, best rank first. Pure in
    /// `(seed, country, sites_per_country, overprovision, gap_scenarios)`.
    fn build_shard(&self, country: Country) -> Vec<SitePlan> {
        let _shard_span = langcrux_obs::trace::span(
            "corpus.shard_build",
            langcrux_obs::trace::key_str(country.code()),
        );
        let n = self.candidates_per_country();
        // The paper walks CrUX ranks downward until the quota of
        // *qualifying* sites is filled; the Figure 7 rank distribution is
        // therefore a property of the selected population. Candidate ranks
        // are assigned as order statistics of the country's rank model over
        // the expected selection depth (quota inflated by the ~12%
        // disqualification rate), so the walk's output reproduces the
        // calibrated distribution; overprovisioned spares extend past the
        // model's maximum.
        let expected_depth = (self.sites_per_country as f64 / 0.86).ceil();
        let mut plans = Vec::with_capacity(n);
        for index in 0..n as u32 {
            let mut plan =
                SitePlan::build_gapped(self.seed, country, index, None, self.gap_scenarios);
            let u = (f64::from(index) + 0.5) / expected_depth;
            plan.rank = if u <= 1.0 {
                rank_quantile(country, u)
            } else {
                // Spares live beyond the modelled range.
                (rank_quantile(country, 1.0) as f64 * u).round() as u64
            };
            plans.push(plan);
        }
        // CrUX presents sites by rank: best (lowest) rank first.
        plans.sort_by(|a, b| (a.rank, a.host.as_str()).cmp(&(b.rank, b.host.as_str())));
        plans
    }
}

/// Observability counters for the lazy shards (see
/// [`Corpus::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ShardStats {
    /// Shard constructions: one per country whose candidate list has been
    /// requested, since a shard is built at most once per corpus.
    pub builds: u64,
    /// High-water mark of shards alive at once. Shards live as long as
    /// the corpus, so this equals `builds`; peak corpus memory ≈
    /// `peak_live` × the per-country shard size.
    pub peak_live: usize,
}

impl ShardStats {
    /// Register the shard gauges into the unified metrics registry
    /// (`langcrux_corpus_*` family — see `docs/observability.md`).
    pub fn encode_metrics(&self, enc: &mut langcrux_obs::Encoder) {
        enc.counter(
            "langcrux_corpus_shard_builds_total",
            "Country-shard constructions (at most one per country).",
            self.builds as f64,
        );
        enc.gauge(
            "langcrux_corpus_shards_live_peak",
            "High-water mark of simultaneously live shard allocations.",
            self.peak_live as f64,
        );
    }
}

/// The lazy host registry the corpus installs on its [`Internet`]: derives
/// the country from the hostname's TLD, re-derives the site plan, and
/// renders pages through the shared render-arena pool.
struct CorpusResolver {
    config: CorpusConfig,
    scratch: ScratchPool,
}

impl CorpusResolver {
    fn country_of(&self, host: &str) -> Option<Country> {
        let tld = host.rsplit('.').next()?;
        self.config
            .countries
            .iter()
            .copied()
            .find(|c| c.tld() == tld)
    }

    /// Re-derive the site plan straight from the hostname, **without
    /// touching the shards**: hostnames embed their construction index
    /// (`{stem}-{index}.{tld}`), plans are pure in
    /// `(seed, country, index)`, and rendering never reads the
    /// shard-assigned rank. Negative lookups (typo'd hosts, `knows`,
    /// `host_count` overlap scans) therefore cannot build a shard, and a
    /// fetch costs one cheap plan sample: a fetch calls this twice
    /// (`resolve`, then `serve_into`), so the second call is answered by
    /// a per-thread one-entry memo (`LAST_PLAN`). The stem check
    /// (`plan.host == host`) rejects names whose archetype does not match
    /// the sampled one.
    fn plan_for(&self, host: &str) -> Option<SitePlan> {
        thread_local! {
            /// `(seed, candidate bound, gap flag, plan)` of the most
            /// recent derivation on this thread. Plans are pure in
            /// `(seed, gap flag, host)`; the bound keys the memo so a
            /// same-seed corpus with a smaller candidate range still
            /// rejects out-of-range indices.
            static LAST_PLAN: std::cell::RefCell<Option<(u64, usize, bool, SitePlan)>> =
                const { std::cell::RefCell::new(None) };
        }
        let seed = self.config.seed;
        let bound = self.config.candidates_per_country();
        let gaps = self.config.gap_scenarios;
        let memoized = LAST_PLAN.with(|memo| {
            memo.borrow()
                .as_ref()
                .filter(|(s, b, g, plan)| {
                    *s == seed && *b == bound && *g == gaps && plan.host == host
                })
                .map(|(_, _, _, plan)| plan.clone())
        });
        if let Some(plan) = memoized {
            return Some(plan);
        }
        let country = self.country_of(host)?;
        let name = host.strip_suffix(country.tld())?.strip_suffix('.')?;
        let index: u32 = name.rsplit('-').next()?.parse().ok()?;
        if index as usize >= bound {
            return None;
        }
        let plan = SitePlan::build_gapped(seed, country, index, None, gaps);
        if plan.host != host {
            return None;
        }
        LAST_PLAN.with(|memo| *memo.borrow_mut() = Some((seed, bound, gaps, plan.clone())));
        Some(plan)
    }
}

impl HostResolver for CorpusResolver {
    fn resolve(&self, host: &str) -> Option<ResolvedHost> {
        let plan = self.plan_for(host)?;
        Some(ResolvedHost {
            country: plan.country,
            vpn_detecting: plan.vpn_detecting,
            geo_block: plan.geo_block,
        })
    }

    fn serve_into(&self, host: &str, variant: ContentVariant, path: &str, out: &mut String) {
        let plan = self
            .plan_for(host)
            .expect("serve_into on unresolvable host");
        self.scratch.with(|scratch| {
            render_into(&plan, variant, path, scratch, out);
        });
    }

    fn host_count(&self) -> usize {
        self.config.candidates_per_country() * self.config.countries.len()
    }
}

/// The generated corpus: lazily sharded rank-ordered candidates per
/// country plus the simulated internet that serves them.
pub struct Corpus {
    config: CorpusConfig,
    internet: Internet,
    /// One candidate list per entry of `config.countries`, in the same
    /// order, each built on first request and then kept.
    shards: Vec<OnceLock<Vec<SitePlan>>>,
    /// Shard constructions, counted inside the build closure so tests can
    /// see a duplicate build that the slots alone would hide.
    builds: AtomicU64,
}

impl Corpus {
    /// Build the corpus handle. O(1): no shard is materialised until a
    /// candidate list is requested.
    pub fn build(config: CorpusConfig) -> Corpus {
        let mut internet = Internet::new(config.seed, config.fault_plan);
        internet.set_resolver(Box::new(CorpusResolver {
            config: config.clone(),
            scratch: ScratchPool::new(),
        }));
        Corpus {
            shards: config.countries.iter().map(|_| OnceLock::new()).collect(),
            config,
            internet,
            builds: AtomicU64::new(0),
        }
    }

    /// The simulated internet serving this corpus.
    pub fn internet(&self) -> &Internet {
        &self.internet
    }

    /// The build configuration.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Rank-ordered candidate plans for a country, building its shard on
    /// the first request. Concurrent first requests build it once; if
    /// the build panics the shard stays unbuilt and the next request
    /// retries. Empty for a country outside the corpus.
    pub fn candidates(&self, country: Country) -> &[SitePlan] {
        let Some(slot) = self.config.countries.iter().position(|&c| c == country) else {
            return &[];
        };
        self.shards[slot].get_or_init(|| {
            let plans = self.config.build_shard(country);
            self.builds.fetch_add(1, Ordering::Relaxed);
            plans
        })
    }

    /// Countries present in the corpus.
    pub fn countries(&self) -> impl Iterator<Item = Country> + '_ {
        self.config.countries.iter().copied()
    }

    /// Ground truth of what a given plan plants for a variant (renders the
    /// page and discards the HTML).
    pub fn truth_for(plan: &SitePlan, variant: ContentVariant) -> PageTruth {
        render(plan, variant, "/").1
    }

    /// Total candidate count across all countries (no materialisation —
    /// candidate counts are config-derived).
    pub fn total_candidates(&self) -> usize {
        self.config.candidates_per_country() * self.config.countries.len()
    }

    /// Lazy-shard gauges: how many shards have been built, which bounds
    /// corpus memory.
    pub fn shard_stats(&self) -> ShardStats {
        let builds = self.builds.load(Ordering::Relaxed);
        ShardStats {
            builds,
            peak_live: builds as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_net::{vpn_vantage, Request, Url};

    fn small() -> Corpus {
        Corpus::build(CorpusConfig::small(77, 30))
    }

    #[test]
    fn builds_overprovisioned_rank_ordered_lists() {
        let corpus = small();
        for country in Country::STUDY {
            let c = corpus.candidates(country);
            assert_eq!(c.len(), 45, "{country:?}"); // ceil(30 * 1.5)
            for w in c.windows(2) {
                assert!(w[0].rank <= w[1].rank);
            }
        }
        assert_eq!(corpus.total_candidates(), 45 * 12);
        assert_eq!(corpus.internet().host_count(), 45 * 12);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = small();
        let b = small();
        for country in Country::STUDY {
            let ca = a.candidates(country);
            let cb = b.candidates(country);
            let ha: Vec<&str> = ca.iter().map(|p| p.host.as_str()).collect();
            let hb: Vec<&str> = cb.iter().map(|p| p.host.as_str()).collect();
            assert_eq!(ha, hb);
        }
    }

    #[test]
    fn shards_build_lazily_and_only_once() {
        let corpus = Corpus::build(CorpusConfig::small(5, 8));
        assert_eq!(corpus.shard_stats().builds, 0, "no shard before first use");
        let first = corpus.candidates(Country::Japan).as_ptr();
        let _ = corpus.candidates(Country::Thailand);
        assert_eq!(corpus.shard_stats().builds, 2);
        // A second touch returns the kept shard instead of rebuilding it.
        assert_eq!(corpus.candidates(Country::Japan).as_ptr(), first);
        let stats = corpus.shard_stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.peak_live, 2);
    }

    #[test]
    fn concurrent_first_touches_build_one_shard() {
        let corpus = Corpus::build(CorpusConfig::small(13, 10));
        let start = std::sync::Barrier::new(8);
        let seen: Vec<&[SitePlan]> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        corpus.candidates(Country::Greece)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(corpus.shard_stats().builds, 1);
        for slice in &seen {
            assert!(
                std::ptr::eq(*slice, seen[0]),
                "threads saw different shards"
            );
        }
        assert_eq!(seen[0].len(), 15);
    }

    #[test]
    fn out_of_corpus_country_has_no_candidates() {
        let corpus = Corpus::build(CorpusConfig {
            countries: vec![Country::Japan],
            ..CorpusConfig::small(3, 4)
        });
        assert!(corpus.candidates(Country::Greece).is_empty());
        assert_eq!(corpus.shard_stats().builds, 0);
    }

    #[test]
    fn fetches_bypass_the_shard_cache_and_serve_identical_bytes() {
        // The fetch path derives plans straight from the hostname, so
        // serving costs no shard materialisation at all, and the bytes
        // match a corpus whose shards are built.
        let fetched = Corpus::build(CorpusConfig::small(31, 6));
        let listed = Corpus::build(CorpusConfig::small(31, 6));
        for country in [Country::Japan, Country::Greece, Country::Japan] {
            let vantage = vpn_vantage(country).unwrap();
            for plan in listed.candidates(country).iter().take(3) {
                let req = Request::new(Url::from_host(&plan.host), vantage);
                let a = fetched.internet().fetch(&req).unwrap();
                let b = listed.internet().fetch(&req).unwrap();
                assert_eq!(a.variant, b.variant, "{}", plan.host);
                assert_eq!(a.text(), b.text(), "{}", plan.host);
            }
        }
        assert_eq!(
            fetched.shard_stats().builds,
            0,
            "fetching must not build shards (plans re-derive from hostnames)"
        );
    }

    #[test]
    fn sites_are_fetchable_through_vpn() {
        let corpus = small();
        let candidates = corpus.candidates(Country::Thailand);
        let plan = &candidates[0];
        let vantage = vpn_vantage(Country::Thailand).unwrap();
        let req = Request::new(Url::from_host(&plan.host), vantage);
        let resp = corpus.internet().fetch(&req).unwrap();
        assert_eq!(resp.variant, ContentVariant::Localized);
        assert!(resp.text().contains("<!DOCTYPE html>"));
    }

    #[test]
    fn served_body_matches_direct_render() {
        let corpus = small();
        let candidates = corpus.candidates(Country::Greece);
        let plan = &candidates[3];
        let vantage = vpn_vantage(Country::Greece).unwrap();
        let req = Request::new(Url::from_host(&plan.host), vantage);
        let resp = corpus.internet().fetch(&req).unwrap();
        let (direct, _) = render(plan, ContentVariant::Localized, "/");
        assert_eq!(resp.text(), direct);
    }

    #[test]
    fn unknown_hosts_do_not_resolve() {
        let corpus = small();
        assert!(!corpus.internet().knows("no-such-site.jp"));
        assert!(!corpus.internet().knows("sangbad-0.zz"));
        let req = Request::new(
            Url::from_host("no-such-site.jp"),
            vpn_vantage(Country::Japan).unwrap(),
        );
        assert!(corpus.internet().fetch(&req).is_err());
    }

    #[test]
    fn truth_for_reports_planted_elements() {
        let corpus = small();
        let candidates = corpus.candidates(Country::Israel);
        let plan = &candidates[0];
        let truth = Corpus::truth_for(plan, ContentVariant::Localized);
        use langcrux_lang::a11y::ElementKind;
        assert!(truth.kind(ElementKind::LinkName).total >= 25);
        assert!(truth.kind(ElementKind::ImageAlt).total >= 6);
    }

    #[test]
    fn most_candidates_qualify() {
        let corpus = small();
        let candidates = corpus.candidates(Country::Egypt);
        let qualifying = candidates.iter().filter(|p| p.designed_qualifying).count();
        let total = candidates.len();
        assert!(qualifying as f64 / total as f64 > 0.75);
        assert!(qualifying < total, "some must fail to exercise replacement");
    }
}
