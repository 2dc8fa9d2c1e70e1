//! Batch fan-out for `/v1/batch`: one in-order executor and the bounded
//! reorder window the streaming writer drains.
//!
//! [`ordered_map`] runs a batch's pages on scoped workers that claim the
//! next index from one shared cursor, and hands back the results in page
//! order. The buffered batch body uses it directly. The streamed body
//! runs the same map with every unit feeding a [`StreamFanout`], and the
//! writer emits each element's JSON as soon as it (and everything before
//! it) is done — element order preserved, no full-array buffering. Two
//! mechanisms keep memory at O(window × element) instead of O(batch):
//!
//! * **Lookahead window** — a worker must [`StreamFanout::admit`] unit
//!   `i` before computing it, which blocks while `i ≥ next + window`.
//!   Completed-but-unwritten results therefore always live in
//!   `[next, next + window)`.
//! * **Non-blocking completion** — [`StreamFanout::complete`] never
//!   waits, which is what makes the window admission deadlock-free: the
//!   head unit `next` is always admissible (`next < next + window`), the
//!   worker holding it is never parked, and every park is released when
//!   the writer advances `next`.
//!
//! Why no worker can starve the head: units are claimed in index order,
//! so the claimed units are exactly those below the cursor. If the head
//! unit `next` is still unclaimed, no claimed unit lies beyond it, no
//! worker is parked, and the next claim takes it. If it is claimed, its
//! worker is admitted at once. The same order keeps the workers busy:
//! the units they hold are the lowest unwritten ones, so with a window
//! of twice the worker count a worker parks only when completed
//! elements pile up faster than the writer drains them.
//!
//! The peak of buffered bytes is tracked and surfaced as the
//! `peak_batch_buffer` gauge on `GET /v1/stats`, which is what the
//! large-batch memory test asserts against.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

struct FanState {
    /// Completed, not-yet-written elements, indexed absolutely.
    slots: Vec<Option<std::sync::Arc<Vec<u8>>>>,
    /// Next element the writer will emit.
    next: usize,
    /// Bytes currently parked in `slots`.
    buffered_bytes: usize,
    peak_bytes: usize,
    /// Writer gave up (client went away): stop parking workers and drop
    /// completions on the floor.
    abandoned: bool,
    /// A worker died without completing its unit: the writer must stop
    /// waiting for elements that will never arrive.
    poisoned: bool,
}

/// Run `f(i, &tasks[i])` for every task on `threads` scoped workers and
/// return the results in task order, so callers see the same output at
/// every worker count.
///
/// Each worker claims the next unclaimed index from one shared cursor,
/// so tasks start in index order (the property [`StreamFanout`]'s window
/// relies on). Every task runs under the caller's trace context behind a
/// depth fence, so its spans land in the caller's session and nest the
/// same way whether it runs inline (one worker) or on a scoped thread.
/// A panicking task propagates to the caller once every worker stops.
pub fn ordered_map<T, R, F>(threads: usize, tasks: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let trace = langcrux_obs::trace::context();
    let run = |i: usize| {
        let _fence = trace.fence();
        f(i, &tasks[i])
    };
    let threads = threads.min(tasks.len());
    if threads <= 1 {
        return (0..tasks.len()).map(run).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks.len() {
                            return done;
                        }
                        done.push((i, run(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("batch worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Reorder buffer between batch workers and the response writer.
pub struct StreamFanout {
    total: usize,
    window: usize,
    state: Mutex<FanState>,
    /// Notified on every `next` advance, completion, and abandon.
    changed: Condvar,
}

impl StreamFanout {
    /// `total` units, at most `window` (clamped to ≥ 1) in flight beyond
    /// the writer's cursor.
    pub fn new(total: usize, window: usize) -> Self {
        StreamFanout {
            total,
            window: window.max(1),
            state: Mutex::new(FanState {
                slots: (0..total).map(|_| None).collect(),
                next: 0,
                buffered_bytes: 0,
                peak_bytes: 0,
                abandoned: false,
                poisoned: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Block until unit `idx` is inside the lookahead window (or the
    /// stream failed — writer abandoned it or a worker died). Call
    /// before computing the unit.
    pub fn admit(&self, idx: usize) {
        let mut state = self.state.lock().expect("fanout lock");
        while idx >= state.next + self.window && !state.abandoned && !state.poisoned {
            state = self.changed.wait(state).expect("fanout wait");
        }
    }

    /// Deliver unit `idx`'s bytes. Never blocks.
    pub fn complete(&self, idx: usize, bytes: std::sync::Arc<Vec<u8>>) {
        let mut state = self.state.lock().expect("fanout lock");
        if state.abandoned || state.poisoned {
            return;
        }
        state.buffered_bytes += bytes.len();
        state.peak_bytes = state.peak_bytes.max(state.buffered_bytes);
        state.slots[idx] = Some(bytes);
        self.changed.notify_all();
    }

    /// Writer side: wait for and take the next in-order element. `None`
    /// once all `total` elements have been taken — or, on a poisoned
    /// fan-out, as soon as the next element can never arrive (the
    /// caller must treat an early `None` as a failed stream).
    pub fn next(&self) -> Option<std::sync::Arc<Vec<u8>>> {
        let mut state = self.state.lock().expect("fanout lock");
        if state.next >= self.total {
            return None;
        }
        while state.slots[state.next].is_none() {
            if state.poisoned {
                return None;
            }
            state = self.changed.wait(state).expect("fanout wait");
        }
        let idx = state.next;
        let bytes = state.slots[idx].take().expect("checked above");
        state.buffered_bytes -= bytes.len();
        state.next += 1;
        self.changed.notify_all();
        Some(bytes)
    }

    /// A worker is dying without completing its unit (panic unwinding):
    /// wake the writer so it fails the stream instead of waiting forever
    /// for an element that will never arrive, and release every parked
    /// worker.
    pub fn poison(&self) {
        let mut state = self.state.lock().expect("fanout lock");
        state.poisoned = true;
        self.changed.notify_all();
    }

    /// Writer bails (client closed mid-stream): release every parked
    /// worker permanently and discard any further completions so the
    /// workers can drain without the writer consuming.
    pub fn abandon(&self) {
        let mut state = self.state.lock().expect("fanout lock");
        state.abandoned = true;
        state.buffered_bytes = 0;
        for slot in &mut state.slots {
            *slot = None;
        }
        self.changed.notify_all();
    }

    /// High-water mark of bytes parked in the reorder buffer.
    pub fn peak_bytes(&self) -> usize {
        self.state.lock().expect("fanout lock").peak_bytes
    }
}

/// Monotonic high-water gauge for `peak_batch_buffer` (bytes). Lives on
/// the server state; every finished batch folds its fan-out peak in.
#[derive(Default)]
pub struct PeakGauge {
    peak: AtomicUsize,
}

impl PeakGauge {
    /// Raise the gauge to at least `value`.
    pub fn observe(&self, value: usize) {
        self.peak.fetch_max(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn bytes(len: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![b'x'; len])
    }

    #[test]
    fn ordered_map_returns_results_in_task_order() {
        // (workers, tasks, rounds, slow head): order at several worker
        // counts; a few heavy tasks at the front while the other workers
        // drain the cursor; many rounds of near-free tasks racing on the
        // cursor; empty and one-task input.
        let cases = [
            (1, 500, 1, false),
            (2, 500, 1, false),
            (7, 500, 1, false),
            (8, 64, 1, true),
            (8, 200, 50, false),
            (4, 0, 1, false),
            (8, 1, 1, false),
        ];
        for (threads, len, rounds, slow_head) in cases {
            let tasks: Vec<u64> = (0..len).collect();
            for round in 0..rounds {
                let out = ordered_map(threads, &tasks, |i, t| {
                    assert_eq!(i as u64, *t);
                    if slow_head && *t < 4 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    t * 3
                });
                let expected: Vec<u64> = tasks.iter().map(|t| t * 3).collect();
                assert_eq!(
                    out, expected,
                    "{threads} workers, {len} tasks, round {round}"
                );
            }
        }
    }

    #[test]
    fn streamed_head_units_run_side_by_side() {
        // 2 workers, window 4: units 0 and 1 are both admissible at the
        // start, so both workers must be computing them at once. Each
        // waits (at most 5 s, so a regression fails instead of hanging)
        // for the other to arrive.
        let total = 32;
        let fan = StreamFanout::new(total, 4);
        let arrived = Mutex::new(0usize);
        let met = Condvar::new();
        let meet = || {
            let mut count = arrived.lock().unwrap();
            *count += 1;
            met.notify_all();
            let (_count, wait) = met
                .wait_timeout_while(count, std::time::Duration::from_secs(5), |n| *n < 2)
                .unwrap();
            !wait.timed_out()
        };
        let units: Vec<usize> = (0..total).collect();
        let met_in_flight = std::thread::scope(|scope| {
            let workers = scope.spawn(|| {
                ordered_map(2, &units, |i, _| {
                    fan.admit(i);
                    let overlapped = i >= 2 || meet();
                    fan.complete(i, bytes(1));
                    overlapped
                })
            });
            for _ in 0..total {
                fan.next().expect("element");
            }
            workers.join().expect("workers")
        });
        assert!(fan.next().is_none());
        assert_eq!(
            met_in_flight,
            vec![true; total],
            "units 0 and 1 never overlapped"
        );
    }

    #[test]
    fn in_order_single_threaded_round_trip() {
        let fan = StreamFanout::new(3, 2);
        fan.admit(0);
        fan.complete(0, bytes(5));
        assert_eq!(fan.next().unwrap().len(), 5);
        fan.admit(1);
        fan.complete(1, bytes(7));
        fan.admit(2);
        fan.complete(2, bytes(9));
        assert_eq!(fan.next().unwrap().len(), 7);
        assert_eq!(fan.next().unwrap().len(), 9);
        assert!(fan.next().is_none());
        assert!(fan.next().is_none(), "exhausted fanout stays exhausted");
    }

    #[test]
    fn empty_batch_yields_nothing() {
        let fan = StreamFanout::new(0, 4);
        assert!(fan.next().is_none());
    }

    #[test]
    fn window_bounds_buffered_bytes() {
        // Workers race ahead; the writer drains slowly. Peak buffered
        // bytes must stay within window × element size.
        let total = 64;
        let window = 4;
        let element = 1000;
        let fan = StreamFanout::new(total, window);
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let fan = &fan;
                scope.spawn(move || {
                    let mut idx = worker;
                    while idx < total {
                        fan.admit(idx);
                        fan.complete(idx, bytes(element));
                        idx += 4;
                    }
                });
            }
            for _ in 0..total {
                let taken = fan.next().expect("element");
                assert_eq!(taken.len(), element);
            }
        });
        assert!(fan.next().is_none());
        let peak = fan.peak_bytes();
        assert!(peak > 0);
        assert!(
            peak <= window * element,
            "peak {peak} exceeds window bound {}",
            window * element
        );
    }

    #[test]
    fn out_of_order_completion_reorders() {
        let fan = StreamFanout::new(3, 3);
        fan.admit(2);
        fan.complete(2, bytes(3));
        fan.admit(1);
        fan.complete(1, bytes(2));
        fan.admit(0);
        fan.complete(0, bytes(1));
        assert_eq!(fan.next().unwrap().len(), 1);
        assert_eq!(fan.next().unwrap().len(), 2);
        assert_eq!(fan.next().unwrap().len(), 3);
    }

    #[test]
    fn abandon_releases_parked_workers() {
        let fan = StreamFanout::new(8, 1);
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| {
                // Unit 5 is far beyond the window with next == 0: parks
                // until abandon.
                fan.admit(5);
                fan.complete(5, bytes(10));
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            fan.abandon();
            parked.join().expect("parked worker released");
        });
        assert_eq!(fan.peak_bytes(), 0, "post-abandon completion discarded");
    }

    #[test]
    fn poison_wakes_a_blocked_writer_and_parked_workers() {
        let fan = StreamFanout::new(4, 1);
        fan.admit(0);
        fan.complete(0, bytes(5));
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                // Element 0 streams; element 1 never arrives — the
                // writer must get an early None, not hang.
                let first = fan.next();
                let second = fan.next();
                (first, second)
            });
            let parked = scope.spawn(|| {
                // Far beyond the window: parked until the poison.
                fan.admit(3);
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            fan.poison();
            let (first, second) = writer.join().expect("writer released");
            assert_eq!(first.map(|b| b.len()), Some(5));
            assert!(second.is_none(), "poisoned gap must yield None");
            parked.join().expect("parked worker released");
        });
    }

    #[test]
    fn peak_gauge_is_monotonic() {
        let gauge = PeakGauge::default();
        assert_eq!(gauge.get(), 0);
        gauge.observe(100);
        gauge.observe(40);
        assert_eq!(gauge.get(), 100);
        gauge.observe(250);
        assert_eq!(gauge.get(), 250);
    }
}
