//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions,
//! from the benchmark's side of the API. Each span carries its name,
//! start, end, parent span and the identifier of the request (candidate,
//! site or page) it belongs to. Nothing is written until [`Recorder::write`]
//! is called at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans from one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, trace: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            trace,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, trace);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        out.push_str("{\"unit\":\"ns\",\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Per-span self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (concurrent
/// children) or stick out of the parent; only the union of their
/// intervals, clipped to the parent, is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let covered = covered_ns(s.start_ns, s.end_ns, &mut kids);
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Call count and total duration of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
}

impl NameTotals {
    /// Mean duration per call in microseconds (0 without calls).
    pub fn us_per_call(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.calls.max(1) as f64
    }
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            parent,
            trace: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Children cover [10,40) ∪ [20,50) ∪ [45,60) = [10,60): 50 ns.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 20, 50),
            span(Some(0), 45, 60),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn nested_child_inside_another_child_does_not_count_twice() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 90),
            span(Some(0), 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_sticking_out_are_clipped_to_the_parent() {
        let spans = [
            span(None, 10, 50),
            span(Some(0), 0, 20),
            span(Some(0), 40, 80),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 0, 60),
            span(Some(1), 0, 50),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 50]);
    }

    #[test]
    fn recorder_self_times_sum_to_the_root_duration() {
        let mut rec = Recorder::new();
        rec.enter("root", 0);
        for i in 0..50u64 {
            rec.time("leaf", i, || {
                std::hint::black_box((0..1000u64).sum::<u64>())
            });
        }
        rec.exit();
        let spans = rec.spans();
        let root = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(self_times(spans).iter().sum::<u64>(), root);
        let totals = totals_by_name(spans);
        assert_eq!(totals["leaf"].calls, 50);
        assert_eq!(totals["root"].calls, 1);
    }
}
