//! Order statistics over measured samples.

/// Nearest-rank percentile `p` (0–100] of `samples`, with the number of
/// samples ranked above it. Returns `(0.0, 0)` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).0
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The tail of a latency sample: the highest of p99 and p90 that has at
/// least ten samples beyond it. A sample too small for p90 falls back to
/// the highest percentile that still has ten beyond it (the 11th-slowest
/// operation), so the tail never rests on fewer than ten samples.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
    pub samples: usize,
}

pub fn tail(samples: &[f64]) -> Tail {
    const MIN_BEYOND: usize = 10;
    let n = samples.len();
    for p in [99.0, 90.0] {
        let (value, beyond) = percentile(samples, p);
        if beyond >= MIN_BEYOND {
            return Tail {
                value,
                percentile: p,
                beyond,
                samples: n,
            };
        }
    }
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    let rank = n.saturating_sub(MIN_BEYOND).max(1);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), (50.0, 50));
        assert_eq!(percentile(&s, 99.0), (99.0, 1));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&big);
        assert_eq!((t.percentile, t.beyond), (99.0, 20));
        let mid: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&mid).percentile, 90.0);
        let small: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&small);
        assert_eq!((t.value, t.beyond), (20.0, 10));
    }
}
