//! Latency-distribution summaries for the load benches: nearest-rank
//! percentiles over microsecond samples, and the median the wall-clock
//! paper experiments report.

/// Summary statistics over a set of latency samples, microseconds.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min_us: u64,
    /// Largest sample.
    pub max_us: u64,
    /// Arithmetic mean.
    pub mean_us: u64,
    /// Median (nearest rank).
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample such that at least `q` of the distribution is at or below it.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarises `samples` (consumed: sorted in place). Returns the default
/// (all-zero) stats for an empty set.
pub fn latency_stats(samples: &mut [u64]) -> LatencyStats {
    if samples.is_empty() {
        return LatencyStats::default();
    }
    samples.sort_unstable();
    let total: u128 = samples.iter().map(|&s| u128::from(s)).sum();
    LatencyStats {
        count: samples.len(),
        min_us: samples[0],
        max_us: samples[samples.len() - 1],
        mean_us: (total / samples.len() as u128) as u64,
        p50_us: percentile(samples, 0.50),
        p90_us: percentile(samples, 0.90),
        p99_us: percentile(samples, 0.99),
        p999_us: percentile(samples, 0.999),
    }
}

/// The median of `samples` (the mean of the two middle samples for an
/// even count); `NaN` for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 0 => (sorted[mid - 1] + sorted[mid]) / 2.0,
        _ => sorted[mid],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn empty_set_is_all_zero() {
        let stats = latency_stats(&mut []);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.p999_us, 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let stats = latency_stats(&mut [42]);
        assert_eq!(
            (
                stats.min_us,
                stats.p50_us,
                stats.p99_us,
                stats.p999_us,
                stats.max_us
            ),
            (42, 42, 42, 42, 42)
        );
    }

    #[test]
    fn percentiles_of_a_known_distribution() {
        // 1..=1000: nearest-rank pXX is exactly XX0 (and p999 is 999).
        let mut samples: Vec<u64> = (1..=1000).collect();
        let stats = latency_stats(&mut samples);
        assert_eq!(stats.count, 1000);
        assert_eq!(stats.min_us, 1);
        assert_eq!(stats.max_us, 1000);
        assert_eq!(stats.p50_us, 500);
        assert_eq!(stats.p90_us, 900);
        assert_eq!(stats.p99_us, 990);
        assert_eq!(stats.p999_us, 999);
        assert_eq!(stats.mean_us, 500);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let mut a: Vec<u64> = vec![5, 1, 9, 3, 7];
        let mut b: Vec<u64> = vec![9, 7, 5, 3, 1];
        assert_eq!(latency_stats(&mut a).p50_us, latency_stats(&mut b).p50_us);
        assert_eq!(latency_stats(&mut a).p50_us, 5);
    }

    #[test]
    fn outlier_shows_in_the_tail_not_the_median() {
        let mut samples: Vec<u64> = vec![10; 999];
        samples.push(100_000);
        let stats = latency_stats(&mut samples);
        assert_eq!(stats.p50_us, 10);
        assert_eq!(stats.p99_us, 10);
        assert_eq!(stats.p999_us, 10);
        assert_eq!(stats.max_us, 100_000);
    }
}
