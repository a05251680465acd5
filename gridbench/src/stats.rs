//! Order statistics for timing samples.

/// Percentiles tried for a distribution's tail, highest first, in
/// thousandths (integers, so ranks are exact).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Mean of the samples left after dropping a quarter (rounded down) from
/// each end: as robust to stray samples as a median, but it averages, so
/// coarse-grained samples (10 ms CPU ticks) do not make it repeat exactly.
/// `None` when empty.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Nearest-rank position (1-based) of the `per_mille`/1000 quantile among
/// `n` samples.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples strictly above its nearest rank, and its
/// value: `(percentile, value)`. `None` when even the median has fewer
/// than ten samples beyond it (fewer than 20 samples).
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n > 0 && n - rank(p, n) >= TAIL_MIN_BEYOND)
        .map(|&p| (p as f64 / 10.0, sorted[rank(p, n) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_each_side() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[7.0]), Some(7.0));
        // n = 4: the middle pair, like a median.
        assert_eq!(interquartile_mean(&[9.0, 1.0, 3.0, 100.0]), Some(6.0));
        // n = 8: two dropped from each end.
        let v = [0.21, 0.2, 0.22, 5.0, 0.19, 0.2, 0.01, 0.21];
        let iqm = interquartile_mean(&v).unwrap();
        assert!((iqm - 0.205).abs() < 1e-12, "{iqm}");
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median (rank 10) has only 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: the median (rank 10) has exactly 10 beyond it.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 40 samples: p75 is rank 30 with 10 beyond; p90 would have 4.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 100 samples: p90 is rank 90 with 10 beyond; p95 would have 5.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 855 samples (the fig7 grid): p95 = rank 813 with 42 beyond;
        // p99 = rank 847 would have only 8.
        assert_eq!(tail(&ramp(855)), Some((95.0, 813.0)));
        // 10 000 samples: p99.9 = rank 9990 with exactly 10 beyond.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_value_leaves_the_promised_count_above_it() {
        for n in [20, 33, 96, 150, 855, 2400] {
            let samples = ramp(n);
            let (_, value) = tail(&samples).unwrap();
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond");
        }
    }
}
