//! Order statistics over timing samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Minimum, lower quartile, median, upper quartile and maximum
/// (nearest-rank quartiles); NaN when empty.
pub fn quartiles(xs: &[f64]) -> [f64; 5] {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return [f64::NAN; 5];
    }
    [
        v[0],
        v[(n - 1) / 4],
        median(xs),
        v[(3 * (n - 1)).div_ceil(4)],
        v[n - 1],
    ]
}

/// Mean; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The highest percentile that still has at least ten samples above
/// it: with `n` samples sorted ascending that is the sample at index
/// `n - 11`, the `100·(n-10)/n`-th percentile. Returns
/// `(percentile, value)`, or `None` with fewer than 11 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(tail(&[1.0; 10]).is_none());
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // Ten samples (11..=20) lie above the 10th value.
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
    }
}
