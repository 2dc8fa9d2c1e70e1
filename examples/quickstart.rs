//! Quickstart: the whole pipeline on one page.
//!
//! Builds a tiny synthetic corpus, visits one Bangladeshi site through the
//! in-country VPN vantage, and walks through everything the paper measures
//! on it: visible-language composition, accessibility elements, filter
//! verdicts, the base Lighthouse-style audit, and Kizuki's language-aware
//! rescoring.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use langcrux::audit::audit_page;
use langcrux::crawl::{Browser, BrowserConfig};
use langcrux::filter::classify;
use langcrux::kizuki::Kizuki;
use langcrux::lang::{Country, Language};
use langcrux::langid::composition;
use langcrux::net::{vpn_vantage, Url};
use langcrux::webgen::{Corpus, CorpusConfig};

fn main() {
    // 1. A small synthetic web: 10 candidate sites per study country.
    let corpus = Corpus::build(CorpusConfig::small(42, 10));
    println!(
        "simulated internet: {} hosts across 12 countries\n",
        corpus.internet().host_count()
    );

    // 2. Walk Bangladeshi candidates in CrUX rank order, applying the
    //    paper's 50%-native-content inclusion rule (disqualified sites are
    //    replaced by the next-ranked candidate).
    let vantage = vpn_vantage(Country::Bangladesh).expect("VPN endpoint");
    let mut browser = Browser::new(corpus.internet(), BrowserConfig::default());
    let candidates = corpus.candidates(Country::Bangladesh);
    let (plan, visit) = candidates
        .iter()
        .find_map(|plan| {
            let visit = browser.visit(&Url::from_host(&plan.host), vantage).ok()?;
            let comp = composition(&visit.extract.visible_text, Language::Bangla);
            if comp.native_pct >= 50.0 {
                Some((plan, visit))
            } else {
                println!(
                    "  skipped {} ({:.0}% Bangla — below the 50% threshold)",
                    plan.host, comp.native_pct
                );
                None
            }
        })
        .expect("a qualifying site");
    println!("selected https://{}/ (rank {})", plan.host, plan.rank);
    println!(
        "  served variant: {:?}, {} bytes, {} ms",
        visit.variant, visit.html_bytes, visit.latency_ms
    );

    // 3. Visible-language composition (the paper's 50% inclusion rule).
    let comp = composition(&visit.extract.visible_text, Language::Bangla);
    println!(
        "  visible text: {:.1}% Bangla, {:.1}% English ({} chars of evidence)",
        comp.native_pct, comp.english_pct, comp.total
    );

    // 4. Accessibility elements and filter verdicts.
    let total = visit.extract.elements.len();
    let missing = visit
        .extract
        .elements
        .iter()
        .filter(|e| e.is_missing())
        .count();
    let empty = visit
        .extract
        .elements
        .iter()
        .filter(|e| e.is_empty_text())
        .count();
    let mut discarded = 0;
    let mut informative = 0;
    for (_, text) in visit.extract.texts() {
        if classify(text).is_some() {
            discarded += 1;
        } else {
            informative += 1;
        }
    }
    println!(
        "  accessibility elements: {total} total — {missing} missing, {empty} empty, \
         {discarded} uninformative, {informative} informative"
    );

    // 5. Base audit vs Kizuki.
    let base = audit_page(&visit.extract);
    let kizuki = Kizuki::standard().evaluate(&visit.extract, &base);
    println!("\n  base Lighthouse-style score : {:>6.1}", base.score);
    println!("  Kizuki language-aware score : {:>6.1}", kizuki.new_score);
    if let Some(lang) = kizuki.page_language {
        println!("  detected page language      : {}", lang.name());
    }
    for check in &kizuki.checks {
        println!(
            "  {} -> {} ({} informative alt texts, {} language-mismatched)",
            check.id,
            if check.passed { "pass" } else { "FAIL" },
            check.examined,
            check.mismatched
        );
    }
}
