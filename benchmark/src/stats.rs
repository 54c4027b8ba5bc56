//! Order statistics for latency samples.

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order): the smallest value
/// with at least `p` percent of the samples at or below it. `None` for an
/// empty sample or `p` outside `(0, 100]`.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Fewest samples for which the tail is p99 (it then has [`MIN_BEYOND`]
/// samples beyond it); smaller samples report p95.
pub const P99_SAMPLES: usize = 100 * MIN_BEYOND;

/// The tail latency: [`tail_at`] p99 for [`P99_SAMPLES`] or more samples,
/// else p95. Below 1000 samples the highest percentile the ten-beyond
/// rule allows sits where the distribution thins out, and it jumped
/// between identical runs (see the README's "Noise and bounds").
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = if samples.len() >= P99_SAMPLES {
        99.0
    } else {
        95.0
    };
    tail_at(samples, p)
}

/// The nearest-rank percentile `p`, or, when fewer than [`MIN_BEYOND`]
/// samples lie beyond it, the highest percentile that still has
/// [`MIN_BEYOND`] beyond it. Returns `(value, percentile)`; `None` for
/// [`MIN_BEYOND`] samples or fewer.
pub fn tail_at(samples: &[f64], p: f64) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let r = rank(n, p).min(n - MIN_BEYOND);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((sorted[r - 1], 100.0 * r as f64 / n as f64))
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_value_covering_p() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&xs, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&xs, 0.5), Some(1.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(nearest_rank(&rev, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&xs, 0.0), None);
        assert_eq!(nearest_rank(&xs, 101.0), None);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples support p99 itself: rank 990, ten beyond.
        assert_eq!(tail(&xs), Some((990.0, 99.0)));
        assert_eq!(nearest_rank(&xs, 99.0), Some(990.0));
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((1980.0, 99.0)));
        // Fewer than 1000 samples: p95.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(950.0));
        let xs: Vec<f64> = (1..=388).rev().map(f64::from).collect();
        let (v, p) = tail(&xs).expect("enough samples");
        assert_eq!(v, 369.0);
        assert!((p - 95.10).abs() < 0.01, "{p}");
        // p99 of 388 backs off to the highest percentile with ten beyond.
        let (v, p) = tail_at(&xs, 99.0).expect("enough samples");
        assert_eq!(v, 378.0);
        assert!((p - 97.42).abs() < 0.01, "{p}");
        // Below 200 samples the rank backs off to keep ten beyond.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(1.0));
        assert_eq!(tail(&[1.0; 10]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
