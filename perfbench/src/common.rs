//! Shared helpers: the seeded generator, digests, memory readings,
//! provenance and the result record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where runs keep their scratch files, relative to the checkout root.
pub const OUT_DIR: &str = "perfbench/out";

pub fn out_dir() -> PathBuf {
    PathBuf::from(OUT_DIR)
}

/// SplitMix64: the benchmark's own seeded generator for schedules and
/// popularity draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a 64 over several byte strings, as if concatenated.
pub fn digest(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Compare `value` with the digest stored under `name` by an earlier run
/// in this checkout, storing it if there is none. `false` on a mismatch.
pub fn check_stored_digest(name: &str, value: u64) -> bool {
    let path = out_dir().join("digests").join(name);
    match std::fs::read_to_string(&path) {
        Ok(stored) => stored.trim() == format!("{value:016x}"),
        Err(_) => {
            let _ = std::fs::create_dir_all(path.parent().expect("digest dir"));
            let _ = std::fs::write(&path, format!("{value:016x}\n"));
            true
        }
    }
}

/// Peak resident set of a process in MiB (`VmHWM`), or `None` when the
/// process is gone or `/proc` is unavailable.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process plus the current peaks of its live
/// child processes, in MiB.
pub fn peak_rss_with_children_mib() -> f64 {
    let mut total = peak_rss_mib("self").unwrap_or(0.0);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let Ok(children) = std::fs::read_to_string(task.path().join("children")) else {
            continue;
        };
        for pid in children.split_whitespace() {
            total += peak_rss_mib(pid).unwrap_or(0.0);
        }
    }
    total
}

/// A token sink that only counts tokens: `tokenize_into` with nothing
/// behind it. The count keeps the lexer's work observable.
#[derive(Default)]
pub struct CountingSink(pub u64);

impl langcrux_html::tokenizer::TokenSink for CountingSink {
    fn start_tag(
        &mut self,
        _name: &str,
        _attrs: &mut Vec<langcrux_html::tokenizer::Attribute>,
        _self_closing: bool,
    ) {
        self.0 += 1;
    }
    fn end_tag(&mut self, _name: &str) {
        self.0 += 1;
    }
    fn text(&mut self, _raw: &str, _decode_entities: bool) {
        self.0 += 1;
    }
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The commit the checkout was made from, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&Path::new(".git").join(reference)) {
        return sha.trim().to_string();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The record one run produces.
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Workload sizes and other facts a reader needs to interpret the
    /// figures (page counts, scales, sample counts, rates).
    pub sizes: BTreeMap<String, String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, by description.
    pub check_failures: Vec<String>,
}

impl Record {
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool) -> Self {
        Record {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            sizes: BTreeMap::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
        }
    }

    pub fn size(&mut self, key: &str, value: impl std::fmt::Display) {
        self.sizes.insert(key.to_string(), value.to_string());
    }

    /// Record a metric. A value that is not finite (a latency over no
    /// answered request) fails the run and is written as 0.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("{name} is {value}"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record an output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty() && self.attempted > 0
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    value,
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The full record with provenance, as written next to the result.
    pub fn provenance_json(&self) -> String {
        let sizes: Vec<String> = self
            .sizes
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        let failures: Vec<String> = self.check_failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"provenance\":{{\"git_sha\":{},\"rustc\":{},\"nproc\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"traced\":{}}},\"sizes\":{{{}}},\"check_failures\":[{}],\"result\":{}}}",
            json_str(&git_sha()),
            json_str(&rustc_version()),
            nproc(),
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.traced,
            sizes.join(","),
            failures.join(","),
            self.result_line()
        )
    }
}
