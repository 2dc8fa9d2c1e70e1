//! # langcrux-serve
//!
//! Audit-as-a-service: the paper's offline page-analysis pipeline
//! (Bhuiyan et al., IMC 2025) exposed as an HTTP service, the deployment
//! shape the ROADMAP's production north star asks for — site operators
//! POST a page and get back the language-composition, lang-attribute,
//! audit-rule, and screen-reader verdicts the paper computes offline.
//!
//! The crate is std-only (`std::net::TcpListener`; the build environment
//! has no crates.io access, so no hyper/tokio):
//!
//! * [`http`] — incremental HTTP/1.1 request parser (chunking-agnostic,
//!   `Content-Length` *and* `Transfer-Encoding: chunked` request bodies,
//!   typed protocol errors → 400/413/431/501) and response writer,
//!   including chunked-response helpers for streaming bodies.
//! * [`governor`] — bounded admission: hard connection cap, bounded
//!   pending queue, `503 + Retry-After` shedding beyond both.
//! * [`cache`] — sharded, content-hash-keyed LRU response cache
//!   (FNV-1a keys, per-shard `parking_lot` mutexes, exact-LRU eviction).
//! * [`service`] — the audit engine façade: HTML in, deterministic
//!   [`AuditResponse`] JSON out (fused extraction, `audit::rules`,
//!   Kizuki rescoring via the carried histogram, speak-order pass).
//! * [`server`] — the connection engines behind a [`ServeCore`]
//!   selection: the thread-per-connection oracle and (Linux) the epoll
//!   reactor, both calling one shared request step and one deadline rule
//!   (the per-connection `Session`) and keeping only their own I/O.
//!   Routes: `POST /v1/audit`,
//!   `POST /v1/batch` (streamed as chunked encoding while the batch
//!   workers complete units), `GET /v1/healthz`,
//!   `GET /v1/stats` (JSON, or the Prometheus text exposition via
//!   `Accept: text/plain`), `GET /v1/metrics` (always Prometheus).
//! * `reactor` (Linux) — the event-driven core: non-blocking sockets on
//!   a raw-`epoll` readiness loop, per-connection state machines over
//!   the same `Session`, deadlines on a hashed timing wheel.
//! * [`wheel`] — that timing wheel: tick-based, generation-cancelled,
//!   clock-free and unit-tested without time.
//! * [`fairness`] — per-peer token buckets (integer micro-token math on
//!   a virtual clock): greedy peers collect `429 + Retry-After` while
//!   quiet peers ride undisturbed.
//! * [`batch`] — the in-order batch executor and the bounded reorder
//!   window between its workers and the streaming batch writer
//!   (`peak_batch_buffer` gauge).
//! * [`stats`] — request counters (incl. shed/timeout) and a lock-free
//!   latency histogram (p50/p99) behind `GET /v1/stats`.
//! * [`loadgen`] — loopback load generator used by `repro --serve-bench`
//!   to produce `BENCH_serve.json` (cold vs cache-hot vs governed
//!   req/s); its response reader understands both framings.
//!
//! ## Quickstart
//!
//! ```no_run
//! use langcrux_serve::{spawn, ServeConfig};
//!
//! let server = spawn(ServeConfig::default()).expect("bind loopback");
//! println!("auditing on http://{}", server.addr());
//! // POST HTML to /v1/audit, then:
//! server.shutdown();
//! ```

pub mod batch;
pub mod cache;
pub mod fairness;
pub mod governor;
pub mod http;
pub mod loadgen;
pub mod pidfile;
#[cfg(target_os = "linux")]
mod reactor;
pub mod server;
pub mod service;
pub mod stats;
pub mod wheel;

pub use batch::{PeakGauge, StreamFanout};
pub use cache::{CacheKey, CacheSnapshot, ShardedCache};
pub use fairness::{FairnessConfig, PeerLimiter, TokenBucket};
pub use governor::{Admission, Governor};
pub use http::{Limits, ParseError, Request, RequestParser, Response};
pub use loadgen::{run_idle_load, run_load, IdleLoadRun, LoadGenRun};
pub use pidfile::{claim as claim_pidfile, examine as examine_pidfile, PidFileDoc, PidFileStatus};
pub use server::{
    batch_buffered, encode_stats, prometheus_text, route, spawn, ReactorSnapshot, Routed, RpcHook,
    ServeConfig, ServeCore, ServeState, ServerHandle, StatsSnapshot,
};
pub use service::{AuditResponse, AuditService, ScriptSlice};
pub use stats::{
    LatencyBucket, LatencyHistogram, LatencySnapshot, RequestCounters, RequestSnapshot,
};
