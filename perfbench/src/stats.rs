//! Order statistics used by every workload: medians, quartiles and the
//! tail-percentile rule.

/// The median of `values` (mean of the two middle values for even
/// counts). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail latency together with the percentile it was read at and the
/// sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile read, e.g. 99.0. `100.0` means the maximum: the sample
    /// was too small to leave ten values beyond any lower percentile.
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The percentiles the tail rule may report, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.0, 98.0, 95.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_PERCENTILES`] (capped at p99) that
/// leaves at least ten samples beyond it, read by the nearest-rank
/// method. With fewer than eleven samples no percentile qualifies and the
/// maximum is reported as percentile 100. `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for p in TAIL_PERCENTILES {
        let rank = nearest_rank(p, n);
        if n - rank >= 10 {
            return Some(Tail {
                percentile: p,
                value: sorted[rank - 1],
                samples: n,
            });
        }
    }
    Some(Tail {
        percentile: 100.0,
        value: sorted[n - 1],
        samples: n,
    })
}

/// Nearest-rank percentile: the 1-based rank `ceil(p/100 · n)`, at least 1.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The value at percentile `p` by nearest rank. `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(p, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990 leaves exactly 10 beyond it.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 is rank 990, leaving only 9, so p98 it is
        // (rank 980, 19 beyond).
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.value), (98.0, 980.0));
    }

    #[test]
    fn tail_steps_down_as_samples_shrink() {
        assert_eq!(tail(&ramp(500)).unwrap().percentile, 98.0);
        assert_eq!(tail(&ramp(200)).unwrap().percentile, 95.0);
        assert_eq!(tail(&ramp(100)).unwrap().percentile, 90.0);
        assert_eq!(tail(&ramp(40)).unwrap().percentile, 50.0);
    }

    #[test]
    fn tiny_samples_report_the_maximum() {
        let t = tail(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 9.0, 3));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn every_reported_percentile_leaves_ten_beyond() {
        for n in 1..3000 {
            let values = ramp(n);
            let t = tail(&values).unwrap();
            let beyond = values.iter().filter(|&&v| v > t.value).count();
            if t.percentile < 100.0 {
                assert!(beyond >= 10, "n={n} p={} beyond={beyond}", t.percentile);
            } else {
                assert!(n <= 10 + 10, "n={n} fell through to the maximum");
            }
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        assert_eq!(percentile(&ramp(10), 50.0), Some(5.0));
        assert_eq!(percentile(&ramp(10), 99.0), Some(10.0));
        assert_eq!(percentile(&ramp(1), 0.0), Some(1.0));
    }
}
