//! Order statistics for the reported metrics.

/// Median of `v` (mean of the two middle values for an even count); NaN
/// when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Arithmetic mean of `v`; NaN when empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Value at quantile `q` in `[0, 1]` by nearest rank; 0 when empty. Used
/// for tails of large span samples, where interpolation does not matter.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// First and third quartiles by the exclusive method, the default of
/// Python's `statistics.quantiles(v, n=4)`, so the in-process spread reads
/// the same way as a spread computed over whole runs. A single sample is
/// its own quartiles; NaN when empty.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let ld = s.len() as i64;
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (s[0], s[0]),
        _ => {}
    }
    let m = ld + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0
    };
    (at(1), at(3))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // Two points extrapolate: statistics.quantiles([1, 2], n=4)
        // == [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
