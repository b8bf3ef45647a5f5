//! Exact quantiles and the slice estimator.
//!
//! A timed pass is cut into slices; each slice yields its own rate, exact
//! p50/p99 and CPU per request. Interference on a shared box only ever
//! slows a slice down, so the reported value of a metric is its
//! *best-decile slice* pooled over all rounds (P90 of a rate, P10 of a
//! time); the median slice and the quartiles are carried beside it as the
//! spread.

use crate::metrics::Better;

/// Nearest-rank quantile of an ascending slice (`q ∈ [0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Exact nearest-rank quantile of raw nanosecond samples (reorders them).
pub fn quantile_ns(samples: &mut [u32], q: f64) -> u32 {
    assert!(!samples.is_empty());
    let rank = (q * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1
}

/// A metric's value with the spread of the slices it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Best-decile slice: the reported value.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Slices pooled.
    pub n: usize,
}

/// Best-decile estimate over per-slice values.
pub fn best_decile(slices: &[f64], better: Better) -> Estimate {
    let mut sorted = slices.to_vec();
    sorted.sort_by(f64::total_cmp);
    let best_q = match better {
        Better::Higher => 0.9,
        Better::Lower => 0.1,
    };
    Estimate {
        value: quantile_sorted(&sorted, best_q),
        median: quantile_sorted(&sorted, 0.5),
        q1: quantile_sorted(&sorted, 0.25),
        q3: quantile_sorted(&sorted, 0.75),
        n: sorted.len(),
    }
}

/// Median of a few per-round values (reorders them).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        let mut ns: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(quantile_ns(&mut ns, 0.5), 500);
        assert_eq!(quantile_ns(&mut ns, 0.99), 990);
    }

    #[test]
    fn best_decile_ignores_slow_slices() {
        // 30 slices at 100k req/s, a third of them slowed by interference.
        let mut rates = vec![100_000.0; 30];
        for r in rates.iter_mut().take(10) {
            *r = 75_000.0;
        }
        let e = best_decile(&rates, Better::Higher);
        assert_eq!(e.value, 100_000.0);
        assert_eq!(e.q1, 75_000.0);
        assert_eq!(e.n, 30);
        // Times: the best decile is the low end.
        let times: Vec<f64> = (0..30).map(|i| 20.0 + i as f64).collect();
        let e = best_decile(&times, Better::Lower);
        assert_eq!(e.value, 22.0);
        assert_eq!(e.median, 34.0);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0]), 2.5);
    }
}
