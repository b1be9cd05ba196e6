//! Order statistics and the small pieces of arithmetic the report rests on.
//!
//! Two quantile definitions live here on purpose:
//! * latencies use ceil-based nearest rank ([`fairgen_obs::nearest_rank`],
//!   the one the serving stack's own summaries use), so a reported
//!   percentile is a latency some request actually saw;
//! * run-to-run spreads use Python's `statistics.quantiles(values, n=4)`
//!   (the default "exclusive" method), so the steadiness table reads the
//!   same as any external check computed over the same values.

use fairgen_obs::nearest_rank;

/// A percentile of a latency sample, with the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The quantile in `(0, 1]`.
    pub p: f64,
    /// The nearest-rank value, in the sample's unit.
    pub value: u64,
    /// Samples in the whole sample.
    pub samples: usize,
    /// Samples strictly ranked above the reported one.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` of an ascending-sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> Percentile {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    Percentile { p, value: nearest_rank(sorted, p), samples: n, beyond: n.saturating_sub(rank) }
}

/// The candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The highest tail percentile with at least `min_beyond` samples ranked
/// above it, or `None` when the sample is too small for any of them.
pub fn supported_tail(sorted: &[u64], min_beyond: usize) -> Option<Percentile> {
    TAILS.iter().map(|&p| percentile(sorted, p)).find(|t| t.beyond >= min_beyond)
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// computes them (method "exclusive"). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    /// `(q3 − q1) / median`.
    pub iqr_share: f64,
    /// `(max − min) / median`.
    pub range_share: f64,
}

/// Median, quartile spread and range of repeated measurements of one
/// metric, the spreads as shares of the median.
pub fn spread(values: &[f64]) -> Option<Spread> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    Some(Spread {
        median: med,
        iqr_share: (q3 - q1) / med.abs(),
        range_share: (max - min) / med.abs(),
    })
}

/// How much slower the traced run was than the untraced one, in percent:
/// for a lower-is-better metric `(traced − untraced) / untraced`, for a
/// higher-is-better one `(untraced − traced) / untraced`. Positive means
/// tracing cost something.
pub fn overhead_pct(untraced: f64, traced: f64, lower_is_better: bool) -> f64 {
    let worse_by = if lower_is_better { traced - untraced } else { untraced - traced };
    100.0 * worse_by / untraced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_with_counts() {
        let v: Vec<u64> = (1..=20).collect();
        let p50 = percentile(&v, 0.5);
        assert_eq!((p50.value, p50.samples, p50.beyond), (10, 20, 10));
        let p90 = percentile(&v, 0.9);
        assert_eq!((p90.value, p90.beyond), (18, 2));
        // An odd count: p50 of 7 samples is the 4th.
        let odd = [5, 1, 7, 3, 9, 2, 8].map(|x: u64| x);
        let mut sorted = odd.to_vec();
        sorted.sort_unstable();
        assert_eq!(percentile(&sorted, 0.5).value, 5);
        assert_eq!(percentile(&[42], 0.99).value, 42);
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        let t = supported_tail(&v, 10).expect("1000 samples support a tail");
        assert_eq!((t.p, t.value, t.beyond), (0.99, 990, 10));
        let small: Vec<u64> = (1..=18).collect();
        assert_eq!(supported_tail(&small, 10), None);
        let forty: Vec<u64> = (1..=40).collect();
        assert_eq!(supported_tail(&forty, 10).map(|t| t.p), Some(0.75));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = spread(&[9.0, 10.0, 11.0, 10.0, 10.0]).expect("five values");
        assert_eq!(s.median, 10.0);
        assert!((s.range_share - 0.2).abs() < 1e-12);
        // quantiles([9,10,10,10,11], n=4) == [9.5, 10.0, 10.5]
        assert!((s.iqr_share - 0.1).abs() < 1e-12);
    }

    #[test]
    fn overhead_sign_follows_the_metric_direction() {
        // Latency 10 ms untraced, 11 ms traced: tracing cost 10%.
        assert!((overhead_pct(10.0, 11.0, true) - 10.0).abs() < 1e-12);
        // Throughput 8/s untraced, 6/s traced: tracing cost 25%.
        assert!((overhead_pct(8.0, 6.0, false) - 25.0).abs() < 1e-12);
        // A traced run that happened to be faster reads negative.
        assert!(overhead_pct(10.0, 9.0, true) < 0.0);
    }
}
