//! Percentiles and the isolated-call timer.

use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule:
/// the smallest sample such that at least `q` of all samples are ≤ it.
/// With 400 samples, 40 lie beyond the 0.9-quantile.
///
/// # Panics
///
/// On an empty slice — every phase records at least one batch.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median by the same rule.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Batches per isolated-call timing; the reported value is their median.
const PROBE_BATCHES: usize = 15;

/// Median nanoseconds per call of `f` over [`PROBE_BATCHES`] batches of
/// `iters` calls, after one untimed batch to warm caches and lazy state.
pub fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(PROBE_BATCHES);
    for batch in 0..=PROBE_BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t.elapsed().as_nanos() as f64;
        if batch > 0 {
            per_call.push(dt / f64::from(iters));
        }
    }
    median(&per_call)
}

/// Median microseconds of `reps` individually timed calls of `f`, for
/// calls long enough (≥ 1 µs) that the clock reads do not matter.
pub fn time_each_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_percent_of_samples_lie_beyond_p90() {
        let v: Vec<f64> = (0..400).map(f64::from).collect();
        let p90 = percentile(&v, 0.9);
        assert_eq!(v.iter().filter(|x| **x > p90).count(), 40);
    }
}
