//! Committed byte digests of the page renderer.
//!
//! One FNV-1a digest per study country pins the HTML bytes and the
//! planted ground truth of a fixed page sample, so a change to the render
//! arena, the text generators or the RNG draw order cannot move a page
//! unnoticed. The sample per country is:
//!
//! * seed 97, plan indices 0..3 sampled with the natural qualification
//!   rate, each as Localized, Global and Restricted;
//! * the default workspace seed, plan indices 0..4 with qualification
//!   pinned to `index % 2 == 0`, each as Localized and Global (the page
//!   sample `repro --bench-json` times).
//!
//! Each page contributes its HTML followed by `format!("{truth:?}")`.

use langcrux_lang::rng::{fnv1a64, DEFAULT_SEED};
use langcrux_lang::Country;
use langcrux_net::ContentVariant;
use langcrux_webgen::{render, render_into, PageTruth, RenderScratch, SitePlan};

/// `(country, digest)` for every study country, in `Country::STUDY` order.
const PINNED: [(Country, u64); 12] = [
    (Country::Bangladesh, 0x206a_51ac_f83c_ba5b),
    (Country::China, 0x6487_e314_0706_7b6f),
    (Country::Algeria, 0x2257_f1f0_fb69_1b5f),
    (Country::Egypt, 0x08e8_6b4b_9f04_9e22),
    (Country::Greece, 0xbf26_6d53_98cc_99e3),
    (Country::HongKong, 0x06d5_2552_8724_df93),
    (Country::Israel, 0x4ffe_eee3_df45_9e98),
    (Country::India, 0xb847_f260_2bb2_8e4f),
    (Country::Japan, 0xc9cc_8665_35e8_7362),
    (Country::SouthKorea, 0x9640_1c10_4a66_f95c),
    (Country::Russia, 0xe774_974f_c757_c02d),
    (Country::Thailand, 0x8259_a978_91b9_ba10),
];

/// The sampled `(plan, variant)` pairs of one country.
fn sample(country: Country) -> Vec<(SitePlan, ContentVariant)> {
    let mut pages = Vec::new();
    for index in 0..3u32 {
        let plan = SitePlan::build(97, country, index, None);
        for variant in [
            ContentVariant::Localized,
            ContentVariant::Global,
            ContentVariant::Restricted,
        ] {
            pages.push((plan.clone(), variant));
        }
    }
    for index in 0..4u32 {
        let plan = SitePlan::build(DEFAULT_SEED, country, index, Some(index % 2 == 0));
        for variant in [ContentVariant::Localized, ContentVariant::Global] {
            pages.push((plan.clone(), variant));
        }
    }
    pages
}

/// Digest every country's sample, rendering each page with `render_page`.
fn digests(
    mut render_page: impl FnMut(&SitePlan, ContentVariant) -> (String, PageTruth),
) -> Vec<(Country, u64)> {
    Country::STUDY
        .iter()
        .map(|&country| {
            let mut bytes = String::new();
            for (plan, variant) in sample(country) {
                let (html, truth) = render_page(&plan, variant);
                bytes.push_str(&html);
                bytes.push_str(&format!("{truth:?}"));
            }
            (country, fnv1a64(bytes.as_bytes()))
        })
        .collect()
}

fn assert_pinned(got: &[(Country, u64)], what: &str) {
    let table: String = got
        .iter()
        .map(|(country, digest)| format!("    (Country::{country:?}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "{what} render digests moved; got:\n{table}");
}

#[test]
fn fresh_scratch_render_matches_pinned_digests() {
    assert_pinned(
        &digests(|plan, variant| render(plan, variant, "/")),
        "fresh-scratch",
    );
}

#[test]
fn long_lived_scratch_render_matches_pinned_digests() {
    // One arena across every page of every country: no state may bleed
    // from one page into the next.
    let mut scratch = RenderScratch::new();
    let got = digests(|plan, variant| {
        let mut html = String::new();
        let truth = render_into(plan, variant, "/", &mut scratch, &mut html);
        (html, truth)
    });
    assert_pinned(&got, "long-lived scratch");
}
