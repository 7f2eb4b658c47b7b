//! Order statistics for the estimator: quantiles, the lower quartile
//! across rounds, and the "ten samples beyond" tail-percentile rule.

/// Linear-interpolated quantile of `xs` at `q` in `[0, 1]` (the
/// "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
/// Returns 0 for an empty sample so callers never divide by a NaN.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The reported value of every per-round timing. What is left of the
/// interference once a round is on the reference clock (`refclock`)
/// only ever *adds* time — a burst that hit the round and missed the
/// clock samples around it — so a low quantile of the per-round values
/// is the steadiest estimate of what the code costs; the quartile
/// rather than the minimum or a decile, so that a round whose clock
/// sample caught a burst it did not is never the value. (Four
/// 200-second runs cut into 25-second windows, twelve workload × timing
/// pairs: across windows the quartile's standard deviation averages
/// 2.0 %, the decile's 2.3 %, the median's 2.1 % with a worse worst
/// case.)
pub fn lower_quartile(xs: &[f64]) -> f64 {
    quantile(xs, 0.25)
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_ratio(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
    }
}

pub fn median_u64(xs: &[u64]) -> f64 {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// A tail percentile together with what supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`; 0 when the sample is too
    /// small to support any tail.
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it, so one outlier never *is* the reported tail.
pub fn tail(xs: &[u64]) -> Tail {
    let n = xs.len();
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    // Per-mille, so "how many lie beyond" is exact integer arithmetic.
    for per_mille in [999usize, 990, 950, 900] {
        let beyond = n * (1000 - per_mille) / 1000;
        if beyond >= 10 {
            return Tail {
                percentile: per_mille as f64 / 10.0,
                value: sorted[n - 1 - beyond] as f64,
                samples: n,
            };
        }
    }
    Tail {
        percentile: 0.0,
        value: 0.0,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_handle_edges() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(lower_quartile(&xs), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(lower_quartile(&[10.0, 20.0, 30.0, 40.0]), 17.5);
    }

    #[test]
    fn low_quantiles_ignore_additive_outliers() {
        let clean: Vec<f64> = (0..48).map(|i| 100.0 + (i % 4) as f64).collect();
        let mut noisy = clean.clone();
        for x in noisy.iter_mut().skip(16) {
            *x += 500.0; // two rounds in three disturbed
        }
        // Within the clean rounds' own 100..=103, far from the +500.
        assert!((lower_quartile(&noisy) - lower_quartile(&clean)).abs() <= 3.0);
    }

    #[test]
    fn iqr_ratio_is_relative_to_the_median() {
        assert_eq!(iqr_ratio(&[0.0, 0.0, 0.0]), 0.0);
        let xs = [90.0, 100.0, 100.0, 100.0, 110.0];
        assert!((iqr_ratio(&xs) - 0.0).abs() < 1e-12);
        let ys = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert!((iqr_ratio(&ys) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 99 samples: none of the percentiles leaves ten beyond but p90
        // does not either (9.9 -> 9).
        let xs: Vec<u64> = (1..=99).collect();
        assert_eq!(tail(&xs).percentile, 0.0);
        // 100 samples: p90 leaves exactly ten.
        let xs: Vec<u64> = (1..=100).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 90.0, 100));
        // 1000 samples: p99 leaves ten, p99.9 leaves one.
        let xs: Vec<u64> = (1..=1000).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        // 10 000 samples: p99.9 leaves ten.
        let xs: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&xs).percentile, 99.9);
    }
}
