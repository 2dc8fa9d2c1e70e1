//! Prints an FNV-1a hash of the RELIABLE-plan dataset JSON at a given
//! scale — the byte-identity oracle for the resilience layer (a run with
//! faults disabled must serialize identically before and after the PR).
//!
//! ```text
//! cargo run --release --example reliable_oracle -- 400
//! ```

use langcrux::core::{build_dataset, PipelineOptions};
use langcrux::lang::rng::fnv1a64;
use langcrux::net::FaultPlan;
use langcrux::webgen::{Corpus, CorpusConfig};

fn main() {
    let sites: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    let corpus = Corpus::build(CorpusConfig {
        sites_per_country: sites,
        fault_plan: FaultPlan::RELIABLE,
        ..CorpusConfig::default()
    });
    let ds = build_dataset(
        &corpus,
        PipelineOptions {
            quota: sites,
            ..PipelineOptions::default()
        },
    );
    let json = ds.to_json().expect("serialize");
    println!(
        "sites={} records={} bytes={} fnv1a={:016x}",
        sites,
        ds.len(),
        json.len(),
        fnv1a64(json.as_bytes())
    );
}
