//! The repository benchmark.
//!
//! ```text
//! python3 perfbench/run.py \
//!     --workload <build|build-dist|serve-miss|serve-hit> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it measures the
//! workload with no tracing and prints the end-to-end metrics; with
//! `--trace 1` it runs the traced stages and prints the per-layer
//! metrics. The last line of standard output is the result object; the
//! line before it is the full record with provenance, which is also
//! written under `perfbench/out/`. The exit code is non-zero when any
//! output check failed. `perfbench/README.md` describes the workloads
//! and metrics.

mod build;
mod common;
mod loadgen;
mod serve;
mod spans;
mod stats;

use common::{out_dir, Record};
use langcrux_bench::Scale;
use std::collections::BTreeMap;

/// Per-layer metrics of a traced run. The stage of the workload's own
/// layers runs first; later stages only fill in layers it did not reach.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, (f64, &'static str)>);

impl Layers {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.entry(name).or_insert((value, unit));
    }
}

/// Every per-layer metric a traced run reports, in `BENCHMARK.json` order.
const PER_LAYER: &[&str] = &[
    "webgen.render_us_per_page",
    "webgen.pages_rendered",
    "webgen.peak_live_shards",
    "net.fetch_self_us_per_request",
    "net.requests",
    "net.retries",
    "html.tokenize_us_per_page",
    "crawl.extract_us_per_page",
    "crawl.visit_us_per_candidate",
    "crawl.pool_busy_share",
    "langid.classify_label_us_per_element",
    "langid.composition_us_per_candidate",
    "langid.page_language_us_per_page",
    "filter.classify_us_per_element",
    "filter.elements",
    "audit.audit_page_us_per_page",
    "audit.gap_report_us_per_page",
    "kizuki.evaluate_us_per_page",
    "kizuki.gap_speech_us_per_page",
    "kizuki.announce_us_per_page",
    "core.probe_us_per_candidate",
    "core.probe_useful_share",
    "core.analyze_us_per_site",
    "core.serialize_ms",
    "core.unattributed_share",
    "dist.unit_rpc_ms_p50",
    "dist.unit_rpc_ms_p99",
    "dist.units",
    "dist.verdict_bytes_per_unit",
    "dist.worker_warmup_ms",
    "dist.worker_busy_share",
    "dist.analysed_beyond_quota",
    "dist.reassignments",
    "serve.route_us_per_request",
    "serve.audit_json_us_per_page",
    "serve.encode_us_per_page",
    "serve.cache_get_us",
    "serve.cache_insert_us",
    "serve.cache_hit_share",
    "serve.cache_evictions",
    "serve.server_p50_us",
    "serve.server_p99_us",
    "serve.wait_p50_ms",
    "serve.reactor_events_per_request",
    "serve.batch_pages",
    "obs.trace_overhead_ratio",
    "loadgen.sent",
    "loadgen.lag_p99_ms",
    "loadgen.backlog_end",
];

const WORKLOADS: [&str; 4] = ["build", "build-dist", "serve-miss", "serve-hit"];

/// Size of the stages a traced run adds for layers its workload does not
/// reach.
const SIDE_SCALE: Scale = Scale::Sites(40);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn traced(rec: &mut Record, args: &Args) {
    let mut layers = Layers::default();
    let tag = format!("{}-seed{}", args.workload, args.seed);
    let own = |w: &str| {
        if args.workload == w {
            Scale::Default
        } else {
            SIDE_SCALE
        }
    };
    let builds = |rec: &mut Record, layers: &mut Layers| {
        let scale = match args.workload.as_str() {
            "build" | "build-dist" => Scale::Default,
            _ => SIDE_SCALE,
        };
        rec.size("stage.build", format!("{scale:?}"));
        build::traced_build(rec, layers, args.seed, scale, &tag);
        rec.size("stage.dist", format!("{:?}", own("build-dist")));
        build::traced_dist(rec, layers, args.seed, own("build-dist"));
    };
    match args.workload.as_str() {
        "serve-miss" | "serve-hit" => {
            let mode = if args.workload == "serve-hit" {
                serve::Mode::Hit
            } else {
                serve::Mode::Miss
            };
            rec.size("stage.serve", format!("{mode:?} full"));
            serve::traced_serve(rec, &mut layers, mode, args.seed, false, &tag);
            builds(rec, &mut layers);
        }
        _ => {
            builds(rec, &mut layers);
            rec.size("stage.serve", "Miss small");
            serve::traced_serve(rec, &mut layers, serve::Mode::Miss, args.seed, true, &tag);
        }
    }
    for name in PER_LAYER {
        match layers.0.get(name) {
            Some(&(value, unit)) => rec.metric(name, value, unit),
            None => rec.check(false, || {
                format!("per-layer metric {name} was not measured")
            }),
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--dist-worker") {
        build::run_dist_worker(argv.get(1).map_or("dist-worker.json", String::as_str));
    }
    if argv.first().map(String::as_str) == Some("--build-digest") {
        let seed = argv
            .get(1)
            .and_then(|s| s.parse().ok())
            .expect("--build-digest <seed>");
        build::print_build_digest(seed);
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Worker pid files and span files stay inside the checkout.
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).expect("create perfbench/out/tmp");
    let tmp = std::fs::canonicalize(&tmp).expect("resolve perfbench/out/tmp");
    std::env::set_var("TMPDIR", &tmp);

    let mut rec = Record::new(&args.workload, args.seed, args.seconds, args.trace);
    rec.size("nproc", common::nproc());
    let seconds = args.seconds as f64;
    if args.trace {
        traced(&mut rec, &args);
    } else {
        match args.workload.as_str() {
            "build" => build::run_build(&mut rec, args.seed, seconds),
            "build-dist" => build::run_build_dist(&mut rec, args.seed, seconds),
            "serve-miss" => serve::run_serve(&mut rec, serve::Mode::Miss, args.seed, seconds),
            _ => serve::run_serve(&mut rec, serve::Mode::Hit, args.seed, seconds),
        }
    }
    let record = rec.provenance_json();
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::write(out_dir().join(name), format!("{record}\n")) {
        eprintln!("perfbench: writing the record: {e}");
    }
    for failure in &rec.check_failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{record}");
    println!("{}", rec.result_line());
    if !rec.correct() {
        std::process::exit(1);
    }
}
