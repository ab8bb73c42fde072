//! Order statistics of the harness: nearest-rank percentiles, the "ten
//! samples beyond" rule for tail percentiles, and medians over repetitions.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `q · len` elements at or below it.  `q` in `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `q`-percentile's rank.
fn beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64).ceil() as usize).clamp(1, len.max(1))
}

/// The `q`-percentile if at least [`MIN_BEYOND`] samples lie beyond it,
/// otherwise the highest-ranked sample that has that many beyond it (the
/// minimum when there are too few samples for any).  Returns the value and
/// the quantile actually reported.
pub fn tail_percentile(sorted: &[u64], q: f64) -> (u64, f64) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    if beyond(sorted.len(), q) >= MIN_BEYOND {
        return (percentile(sorted, q), q);
    }
    let rank = sorted.len().saturating_sub(MIN_BEYOND).max(1);
    (sorted[rank - 1], rank as f64 / sorted.len() as f64)
}

/// Median of a small set of per-repetition statistics (mean of the two
/// middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(min, median, max)` of per-repetition statistics.
pub fn spread(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, median(values), max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1000 samples: exactly ten lie beyond the p99 rank.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_percentile(&v, 0.99), (990, 0.99));
        // 999 samples: only nine beyond p99, so the rule backs off to the
        // highest rank that still has ten beyond it.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(beyond(999, 0.99), 9);
        let (value, q) = tail_percentile(&v, 0.99);
        assert_eq!(value, 989);
        assert!(q < 0.99);
        // Too few samples for any tail: the minimum.
        assert_eq!(tail_percentile(&[3, 4, 5], 0.99).0, 3);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
