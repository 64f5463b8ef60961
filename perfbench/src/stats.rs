//! Order statistics over a run's samples.

/// Median: the middle value, or the mean of the two middle values.
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile: the smallest value with at least a share `q`
/// of the sample at or below it. `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), q) - 1]
}

/// Samples strictly above the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(beyond(v.len(), 0.99), 10);
        assert!(median(&[]).is_nan());
    }
}
