//! Chrome trace-event export: renders a [`TraceReport`] as the JSON
//! object format (`{"traceEvents":[...]}`) understood by
//! `chrome://tracing` and Perfetto's legacy importer.
//!
//! Layout: one process (`pid 1`) per run, one thread lane per worker
//! ring (`tid = worker + 1`), named via `thread_name` metadata events.
//! Every span becomes a balanced `B`/`E` pair; `ts` is microseconds
//! since the session epoch and is non-decreasing per lane — both
//! properties are pinned by `tests/trace_export.rs`.
//!
//! Spans are recorded at close time (post-order), so the exporter
//! rebuilds begin-order nesting per worker from the wall-clock
//! intervals: RAII guards on one thread guarantee proper containment,
//! which a simple interval stack reconstructs exactly.

use crate::trace::{SpanRecord, TraceReport};
use serde::Serialize;

/// The trace document; field names are the format's keys.
#[allow(non_snake_case)]
#[derive(Serialize)]
struct Document {
    displayTimeUnit: &'static str,
    otherData: OtherData,
    traceEvents: Vec<Event>,
}

#[derive(Serialize)]
struct OtherData {
    dropped_spans: u64,
    capacity_per_worker: usize,
}

/// One trace event: `M` metadata (no `ts` or `cat`, `args.name`) or a
/// `B`/`E` duration event (`args.key` and `args.virtual_ms` on `B` only).
#[derive(Default, Serialize)]
struct Event {
    ph: &'static str,
    pid: u64,
    tid: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    ts: Option<u64>,
    name: &'static str,
    #[serde(skip_serializing_if = "Option::is_none")]
    cat: Option<&'static str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    args: Option<Args>,
}

#[derive(Default, Serialize)]
struct Args {
    #[serde(skip_serializing_if = "Option::is_none")]
    name: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    key: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    virtual_ms: Option<u64>,
}

/// Render the report as a Chrome trace JSON string.
pub fn trace_events_json(report: &TraceReport) -> String {
    let mut events = vec![metadata_event(
        0,
        "process_name",
        "langcrux run".to_string(),
    )];
    for w in &report.workers {
        let tid = u64::from(w.worker) + 1;
        events.push(metadata_event(
            tid,
            "thread_name",
            format!("worker-{}", w.worker),
        ));
        emit_worker_events(tid, &w.spans, &mut events);
    }
    let doc = Document {
        displayTimeUnit: "ms",
        otherData: OtherData {
            dropped_spans: report.dropped_spans,
            capacity_per_worker: report.capacity_per_worker,
        },
        traceEvents: events,
    };
    serde_json::to_string(&doc).expect("trace document serializes infallibly")
}

fn metadata_event(tid: u64, name: &'static str, value: String) -> Event {
    Event {
        ph: "M",
        pid: 1,
        tid,
        name,
        args: Some(Args {
            name: Some(value),
            ..Args::default()
        }),
        ..Event::default()
    }
}

fn duration_event(ph: &'static str, tid: u64, ts: u64, span: &SpanRecord) -> Event {
    Event {
        ph,
        pid: 1,
        tid,
        ts: Some(ts),
        name: span.name,
        cat: Some(category(span.name)),
        args: (ph == "B").then(|| Args {
            key: Some(format!("{:016x}", span.key)),
            virtual_ms: Some(span.virtual_ms),
            ..Args::default()
        }),
    }
}

/// Event category = the stage-name prefix before the first dot.
fn category(name: &'static str) -> &'static str {
    name.split_once('.').map_or(name, |(cat, _)| cat)
}

/// Emit balanced B/E events for one worker lane. Spans are sorted into
/// begin order, then an interval stack closes every span whose end
/// precedes the next begin — RAII guarantees proper nesting, so the
/// stack never sees a partial overlap.
///
/// `start_us` and `dur_us` are truncated independently, so a child's
/// computed end can overshoot its parent's by a microsecond; each
/// pushed span's end is clamped to the enclosing one, keeping `ts`
/// non-decreasing when the pair closes.
fn emit_worker_events(tid: u64, spans: &[SpanRecord], out: &mut Vec<Event>) {
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    // Begin order: earliest start first; at equal starts the longer span
    // is the parent and must open first.
    ordered.sort_by(|a, b| {
        a.start_us
            .cmp(&b.start_us)
            .then_with(|| (b.start_us + b.dur_us).cmp(&(a.start_us + a.dur_us)))
            .then_with(|| a.depth.cmp(&b.depth))
    });
    let mut stack: Vec<(&SpanRecord, u64)> = Vec::new(); // (span, clamped end)
    for span in ordered {
        let start = span.start_us;
        let mut end = start + span.dur_us;
        // Close finished spans. A zero-duration span landing exactly on
        // the top's end instant stays nested (E ties then pop inner
        // first); a span extending beyond it cannot be a child.
        while let Some(&(top, top_end)) = stack.last() {
            if top_end < start || (top_end == start && end > top_end) {
                out.push(duration_event("E", tid, top_end, top));
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, top_end)) = stack.last() {
            end = end.min(top_end);
        }
        out.push(duration_event("B", tid, start, span));
        stack.push((span, end));
    }
    while let Some((top, top_end)) = stack.pop() {
        out.push(duration_event("E", tid, top_end, top));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::WorkerTrace;
    use serde::Value;

    fn rec(name: &'static str, depth: u32, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name,
            key: 7,
            depth,
            start_us,
            dur_us,
            virtual_ms: 0,
        }
    }

    fn report(spans: Vec<SpanRecord>) -> TraceReport {
        TraceReport {
            workers: vec![WorkerTrace {
                worker: 0,
                dropped: 0,
                spans,
            }],
            dropped_spans: 0,
            capacity_per_worker: 16,
        }
    }

    /// Walk the rendered JSON and assert balanced B/E with
    /// non-decreasing ts per tid. Returns the event count.
    fn check_balance(json: &str) -> usize {
        let doc: Value = serde_json::from_str(json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let mut depth_by_tid: Vec<(u64, i64, u64)> = Vec::new(); // (tid, open, last_ts)
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            if ph == "M" {
                continue;
            }
            let tid = match ev.get("tid").unwrap() {
                Value::UInt(t) => *t,
                other => panic!("tid should be unsigned, got {other:?}"),
            };
            let ts = match ev.get("ts").unwrap() {
                Value::UInt(t) => *t,
                other => panic!("ts should be unsigned, got {other:?}"),
            };
            let entry = match depth_by_tid.iter_mut().find(|(t, _, _)| *t == tid) {
                Some(e) => e,
                None => {
                    depth_by_tid.push((tid, 0, 0));
                    depth_by_tid.last_mut().unwrap()
                }
            };
            assert!(
                ts >= entry.2,
                "ts regressed on tid {tid}: {ts} < {}",
                entry.2
            );
            entry.2 = ts;
            match ph {
                "B" => entry.1 += 1,
                "E" => {
                    entry.1 -= 1;
                    assert!(entry.1 >= 0, "E without matching B on tid {tid}");
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        for (tid, open, _) in &depth_by_tid {
            assert_eq!(*open, 0, "unbalanced events on tid {tid}");
        }
        events.len()
    }

    #[test]
    fn nested_spans_emit_balanced_monotone_events() {
        // parent [0,100] wrapping child [10,60], then sibling [120,130].
        let json = trace_events_json(&report(vec![
            rec("pipeline.child", 1, 10, 50),
            rec("pipeline.parent", 0, 0, 100),
            rec("pipeline.sibling", 0, 120, 10),
        ]));
        let n = check_balance(&json);
        assert_eq!(n, 2 + 6); // 2 metadata + 3 B/E pairs
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"cat\":\"pipeline\""));
    }

    #[test]
    fn zero_duration_span_at_parent_boundary_stays_balanced() {
        // child at the parent's exact end instant, zero duration.
        let json = trace_events_json(&report(vec![
            rec("crawl.backoff", 1, 50, 0),
            rec("crawl.fetch", 0, 0, 50),
            rec("crawl.fetch", 0, 50, 20),
        ]));
        check_balance(&json);
    }

    #[test]
    fn child_end_overshooting_parent_is_clamped() {
        // Truncation artefact: the child's computed end (1 + 10 = 11)
        // overshoots the parent's (0 + 10) even though the real
        // intervals nested properly; export must stay monotone.
        let json = trace_events_json(&report(vec![
            rec("pipeline.child", 1, 1, 10),
            rec("pipeline.parent", 0, 0, 10),
        ]));
        check_balance(&json);
    }

    /// The exact bytes of a small two-lane export: key order, the
    /// metadata and duration event shapes, `args` on `B` only, and the
    /// `otherData` counters.
    #[test]
    fn export_bytes_are_pinned() {
        let report = TraceReport {
            workers: vec![
                WorkerTrace {
                    worker: 0,
                    dropped: 0,
                    spans: vec![
                        SpanRecord {
                            name: "crawl.fetch",
                            key: 0xbeef,
                            depth: 1,
                            start_us: 3,
                            dur_us: 4,
                            virtual_ms: 250,
                        },
                        rec("pipeline.build", 0, 0, 9),
                    ],
                },
                WorkerTrace {
                    worker: 2,
                    dropped: 1,
                    spans: vec![rec("solo", 0, 5, 0)],
                },
            ],
            dropped_spans: 1,
            capacity_per_worker: 16,
        };
        let expected = concat!(
            r#"{"displayTimeUnit":"ms","otherData":{"dropped_spans":1,"capacity_per_worker":16},"traceEvents":["#,
            r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"langcrux run"}},"#,
            r#"{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"worker-0"}},"#,
            r#"{"ph":"B","pid":1,"tid":1,"ts":0,"name":"pipeline.build","cat":"pipeline","args":{"key":"0000000000000007","virtual_ms":0}},"#,
            r#"{"ph":"B","pid":1,"tid":1,"ts":3,"name":"crawl.fetch","cat":"crawl","args":{"key":"000000000000beef","virtual_ms":250}},"#,
            r#"{"ph":"E","pid":1,"tid":1,"ts":7,"name":"crawl.fetch","cat":"crawl"},"#,
            r#"{"ph":"E","pid":1,"tid":1,"ts":9,"name":"pipeline.build","cat":"pipeline"},"#,
            r#"{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"worker-2"}},"#,
            r#"{"ph":"B","pid":1,"tid":3,"ts":5,"name":"solo","cat":"solo","args":{"key":"0000000000000007","virtual_ms":0}},"#,
            r#"{"ph":"E","pid":1,"tid":3,"ts":5,"name":"solo","cat":"solo"}]}"#,
        );
        assert_eq!(trace_events_json(&report), expected);
    }

    #[test]
    fn multiple_workers_get_distinct_named_lanes() {
        let mut r = report(vec![rec("pipeline.a", 0, 0, 5)]);
        r.workers.push(WorkerTrace {
            worker: 1,
            dropped: 0,
            spans: vec![rec("pipeline.b", 0, 2, 5)],
        });
        let json = trace_events_json(&r);
        check_balance(&json);
        assert!(json.contains("worker-0"));
        assert!(json.contains("worker-1"));
    }
}
