//! Order statistics over measured samples.

/// Nearest-rank percentile `q` (0 < q ≤ 100) of an ascending-sorted
/// sample: the smallest value with at least `q`% of the sample at or
/// below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps an exact rank exact despite rounding in q·n/100.
    let rank = (q * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle two when even); 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile a sample of `n` supports: the highest percentile
/// that leaves at least 10 samples strictly beyond it, `100·(n−10)/n`.
/// `None` when `n ≤ 10`. On `k·n` samples the same percentile leaves
/// `10·k` beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n > 10).then(|| 100.0 * (n - 10) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(10), None);
        for n in [11usize, 57, 100, 200, 1000, 1024] {
            let q = tail_percentile(n).unwrap();
            for k in 1..=3 {
                let sorted: Vec<f64> = (0..k * n).map(|x| x as f64).collect();
                let v = percentile(&sorted, q);
                let beyond = sorted.iter().filter(|&&x| x > v).count();
                assert_eq!(beyond, 10 * k, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
