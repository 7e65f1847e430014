//! Summary statistics: medians, quartiles and the tail-percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! has at least ten samples ranked beyond it, always with the sample
//! count, so a tail figure never rests on one or two outliers.

/// The fewest samples that must rank beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in per mille, lowest first.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (the mean of the two middle samples for an even count);
/// NaN for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(samples, n=4)` computes them (its default
/// exclusive method), so a run summarises its samples by the same rule
/// that judges the spread between runs. One sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let s = sorted(samples);
    if s.len() < 2 {
        return [s.first().copied().unwrap_or(f64::NAN); 3];
    }
    let ld = s.len() as i64;
    let m = ld + 1;
    [1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0
    })
}

/// A nearest-rank percentile of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in per mille (900 is p90).
    pub per_mille: usize,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The nearest-rank percentile `per_mille` of `samples`; `None` for no
/// samples.
pub fn percentile(samples: &[f64], per_mille: usize) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    let rank = (per_mille * n).div_ceil(1000).max(1);
    (n > 0).then(|| Tail {
        per_mille,
        value: s[rank - 1],
        beyond: n - rank,
    })
}

/// The highest of p50, p75, p90, p95, p99 and p99.9 with at least
/// [`MIN_BEYOND`] samples ranked beyond it; `None` below 20 samples,
/// where not even the median qualifies.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    LADDER
        .iter()
        .rev()
        .filter_map(|&per_mille| percentile(samples, per_mille))
        .find(|t| t.beyond >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so every function has to sort.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&one_to(19)), None);
        let t = tail(&one_to(20)).unwrap();
        assert_eq!((t.per_mille, t.value, t.beyond), (500, 10.0, 10));
        assert_eq!(tail(&one_to(99)).unwrap().per_mille, 750);
        let t = tail(&one_to(100)).unwrap();
        assert_eq!((t.per_mille, t.value, t.beyond), (900, 90.0, 10));
        assert_eq!(tail(&one_to(200)).unwrap().per_mille, 950);
        assert_eq!(tail(&one_to(10_000)).unwrap().per_mille, 999);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 900), None);
        let t = percentile(&one_to(24), 900).unwrap();
        assert_eq!((t.value, t.beyond), (22.0, 2));
        let t = percentile(&one_to(100), 900).unwrap();
        assert_eq!((t.value, t.beyond), (90.0, 10));
        assert_eq!(percentile(&[7.0], 0).unwrap().value, 7.0);
    }
}
