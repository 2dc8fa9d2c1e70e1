//! Ablation benches (A1–A3 in `langcrux_bench`): VPN vantage, language-id
//! method, and crawl worker scaling.
//!
//! Run with `cargo bench -p langcrux-bench --bench ablations`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use langcrux_bench::{build_corpus, langid_ablation, vpn_ablation, Scale};
use langcrux_crawl::{crawl_hosts, BrowserConfig, CrawlConfig};
use langcrux_lang::Country;
use langcrux_net::vpn_vantage;

fn bench_vpn(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_vpn_vantage");
    group.sample_size(10);
    group.bench_function("vpn_vs_cloud_12x10_hosts", |b| {
        b.iter(|| black_box(vpn_ablation(7, 10)))
    });
    group.finish();
}

fn bench_langid(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_langid");
    group.sample_size(10);
    group.bench_function("unicode_vs_trigram_100_labels", |b| {
        b.iter(|| black_box(langid_ablation(7, 100)))
    });
    group.finish();
}

fn bench_crawl_scaling(c: &mut Criterion) {
    let corpus = build_corpus(7, Scale::Sites(20));
    let hosts: Vec<String> = Country::STUDY
        .iter()
        .flat_map(|&country| {
            corpus
                .candidates(country)
                .iter()
                .take(20)
                .map(|p| p.host.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    let vantage = vpn_vantage(Country::Thailand).expect("endpoint");
    let mut group = c.benchmark_group("ablation_crawl_scaling");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("{threads}_workers"), |b| {
            b.iter(|| {
                crawl_hosts(
                    corpus.internet(),
                    vantage,
                    &hosts,
                    CrawlConfig {
                        threads,
                        browser: BrowserConfig::default(),
                    },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vpn, bench_langid, bench_crawl_scaling);
criterion_main!(benches);
