//! Worker-count default shared by the build and the benchmarks.
//!
//! The crawl layer runs no executor of its own: the dataset build
//! dispatches its work units through `langcrux-core`'s distributed
//! coordinator, and the serve crate's batch audits run on the ordered
//! map in `langcrux-serve::batch`. Both size themselves from
//! [`default_threads`] when the caller leaves the worker count at 0.

/// Number of workers to use when the caller does not care: all cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
