//! The fused-engine Criterion group: before/after microbenches for every
//! layer the single-pass refactor touched, plus the end-to-end pipeline.
//!
//! Run with `cargo bench -p langcrux-bench --bench pipeline_hot_path`.
//! The machine-readable record lives in `BENCH_pipeline.json` (regenerate
//! via `cargo run --release -p langcrux-bench --bin repro --
//! --bench-json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use langcrux_bench::{build_corpus, Scale};
use langcrux_core::{build_dataset, PipelineOptions};
use langcrux_crawl::{extract, extract_streaming};
use langcrux_html::{parse, stream_visible_text_histogram, visible_text, visible_text_histogram};
use langcrux_lang::script::{script_of, ScriptHistogram};
use langcrux_lang::{Country, Language};
use langcrux_langid::{classify_label, composition, composition_of_histogram};
use langcrux_net::ContentVariant;
use langcrux_textgen::TextGenerator;
use langcrux_webgen::{render, SitePlan};

fn sample_page() -> String {
    let plan = SitePlan::build(42, Country::Thailand, 0, Some(true));
    render(&plan, ContentVariant::Localized, "/").0
}

/// Layer 1: the DOM walk. Fused text+histogram vs walk-then-rescan.
fn bench_fused_extraction(c: &mut Criterion) {
    let html = sample_page();
    let doc = parse(&html);
    let mut group = c.benchmark_group("fused_extraction");
    group.throughput(Throughput::Bytes(html.len() as u64));
    group.bench_function("visible_text_then_rescan", |b| {
        b.iter(|| {
            let text = visible_text(black_box(&doc));
            ScriptHistogram::of(&text)
        })
    });
    group.bench_function("visible_text_histogram_fused", |b| {
        b.iter(|| visible_text_histogram(black_box(&doc)))
    });
    group.finish();
}

/// Layer 1b: the per-visit extraction pair — DOM materialisation
/// (tokenize → tree-build → walk) vs the streaming tokenize→extract path
/// the crawl and serve hot loops use. Both pairs produce identical
/// output (proptest- and corpus-pinned); the delta is the skipped token
/// buffer + node arena.
fn bench_stream_vs_dom(c: &mut Criterion) {
    let html = sample_page();
    let mut group = c.benchmark_group("stream_vs_dom");
    group.throughput(Throughput::Bytes(html.len() as u64));
    // Full PageExtract: what Browser::visit and /v1/audit run per page.
    group.bench_function("dom_parse_then_extract", |b| {
        b.iter(|| extract(&parse(black_box(&html))))
    });
    group.bench_function("streaming_extract", |b| {
        b.iter(|| extract_streaming(black_box(&html)))
    });
    // Visible text + histogram only: the langcrux-html layer in isolation.
    group.bench_function("dom_parse_then_visible_histogram", |b| {
        b.iter(|| visible_text_histogram(&parse(black_box(&html))))
    });
    group.bench_function("stream_visible_histogram", |b| {
        b.iter(|| stream_visible_text_histogram(black_box(&html)))
    });
    group.finish();
}

/// Layer 2: per-character script lookup and per-label classification.
fn bench_script_tables(c: &mut Criterion) {
    let mut gen = TextGenerator::new(Language::Japanese, 7);
    let paragraph = gen.paragraph(30);
    let label = gen.phrase(3, 5);
    let mut group = c.benchmark_group("script_lookup");
    group.throughput(Throughput::Elements(paragraph.chars().count() as u64));
    group.bench_function("script_of_paragraph", |b| {
        b.iter(|| {
            paragraph
                .chars()
                .map(|ch| script_of(black_box(ch)) as usize)
                .sum::<usize>()
        })
    });
    group.bench_function("histogram_of_paragraph", |b| {
        b.iter(|| ScriptHistogram::of(black_box(&paragraph)))
    });
    group.bench_function("classify_label_stack_histogram", |b| {
        b.iter(|| classify_label(black_box(&label), Language::Japanese))
    });
    group.finish();
}

/// Layer 3: selection's composition — carried histogram vs text re-scan.
fn bench_composition(c: &mut Criterion) {
    let mut gen = TextGenerator::new(Language::Thai, 11);
    let page_text = gen.paragraph(60);
    let hist = ScriptHistogram::of(&page_text);
    let mut group = c.benchmark_group("composition");
    group.bench_function("rescan_text", |b| {
        b.iter(|| composition(black_box(&page_text), Language::Thai))
    });
    group.bench_function("carried_histogram", |b| {
        b.iter(|| composition_of_histogram(black_box(&hist), Language::Thai))
    });
    group.finish();
}

/// Layer 4 (webgen allocation diet): textgen scratch-buffer reuse vs
/// per-call allocation, presized vs default-grown HtmlBuilder, and the
/// absolute page-render number both feed into.
fn bench_webgen_alloc(c: &mut Criterion) {
    use langcrux_html::HtmlBuilder;
    use langcrux_webgen::calibration::estimated_page_bytes;

    let mut group = c.benchmark_group("webgen_alloc");

    // Before: every paragraph allocates its own String (plus the
    // per-word/per-sentence intermediates the old join-based path made).
    group.bench_function("textgen_paragraph_fresh_alloc", |b| {
        let mut gen = TextGenerator::new(Language::Bangla, 3);
        b.iter(|| black_box(gen.paragraph(4)).len())
    });
    // After: one scratch buffer reused across paragraphs.
    group.bench_function("textgen_paragraph_scratch_reuse", |b| {
        let mut gen = TextGenerator::new(Language::Bangla, 3);
        let mut scratch = String::new();
        b.iter(|| {
            scratch.clear();
            gen.append_paragraph(4, &mut scratch);
            black_box(scratch.len())
        })
    });

    // Builder growth ladder vs one calibrated up-front reservation.
    let build_page = |mut b: HtmlBuilder| {
        b.open("html", &[("lang", Some("th"))]);
        for i in 0..220 {
            b.leaf(
                "p",
                &[("class", Some("row"))],
                "ข่าววันนี้ของประเทศไทยทั้งหมดพร้อมรายละเอียดเพิ่มเติมสำหรับผู้อ่าน",
            );
            if i % 4 == 0 {
                b.void("img", &[("src", Some("/img/a.jpg")), ("alt", Some("ภาพ"))]);
            }
        }
        b.finish()
    };
    group.bench_function("html_builder_default_growth", |b| {
        b.iter(|| black_box(build_page(HtmlBuilder::document())).len())
    });
    group.bench_function("html_builder_presized", |b| {
        b.iter(|| {
            black_box(build_page(HtmlBuilder::document_sized(
                estimated_page_bytes(),
            )))
            .len()
        })
    });

    // The end-to-end render the optimisations feed into, in two forms:
    // the fresh-scratch wrapper and the pooled arena the corpus content
    // path actually runs. Both emit identical bytes (pinned by
    // crates/webgen/tests/render_digest.rs).
    let plan = SitePlan::build(42, Country::Bangladesh, 1, Some(true));
    group.bench_function("render_fresh_scratch", |b| {
        b.iter(|| {
            black_box(render(&plan, ContentVariant::Localized, "/"))
                .0
                .len()
        })
    });
    group.bench_function("render_pooled", |b| {
        use langcrux_webgen::{render_into, RenderScratch};
        let mut scratch = RenderScratch::new();
        let mut out = String::new();
        b.iter(|| {
            out.clear();
            render_into(
                &plan,
                ContentVariant::Localized,
                "/",
                &mut scratch,
                &mut out,
            );
            black_box(out.len())
        })
    });
    group.finish();
}

/// End to end: the fused engine on a small corpus.
fn bench_pipeline_end_to_end(c: &mut Criterion) {
    let corpus = build_corpus(0xBEAC4, Scale::Sites(12));
    let options = PipelineOptions {
        quota: 12,
        ..PipelineOptions::default()
    };
    let mut group = c.benchmark_group("pipeline_hot_path");
    group.sample_size(10);
    group.bench_function("build_dataset_fused", |b| {
        b.iter(|| build_dataset(black_box(&corpus), options))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fused_extraction,
    bench_stream_vs_dom,
    bench_script_tables,
    bench_composition,
    bench_webgen_alloc,
    bench_pipeline_end_to_end
);
criterion_main!(benches);
