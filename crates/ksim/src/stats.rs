//! Measurement helpers shared by workloads, the profiler and the benches.

/// Power-of-two bucketed histogram, in the style of the kernel's `lockstat`
/// and BPF `hist` maps.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 also counts 0.
///
/// # Examples
///
/// ```
/// use ksim::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(1000);
/// assert_eq!(h.count(), 3);
/// assert!(h.max() >= 1000);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Reconstructs a histogram from raw parts — the snapshot of an
    /// atomic-bucket histogram (e.g. `telemetry::AtomicHistogram`), which
    /// shares this bucketing exactly. An all-zero `count` yields an empty
    /// histogram regardless of `min`.
    pub fn from_raw(buckets: [u64; 64], count: u64, sum: u64, min: u64, max: u64) -> Self {
        Histogram {
            buckets,
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = if v <= 1 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile from the bucket boundaries (`q` in `[0, 1]`).
    ///
    /// Returns the upper bound of the bucket containing the requested rank,
    /// which is exact to within a factor of two — the same fidelity as BPF
    /// log2 histograms.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0)) * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen > rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty `(bucket_floor, count)` pairs, for report rendering.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (if i == 0 { 0 } else { 1u64 << i }, *c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        let nz = h.nonzero_buckets();
        assert_eq!(nz, vec![(0, 2), (2, 2), (4, 1)]);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
    }

    #[test]
    fn quantile_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1024u64 {
            h.record(v);
        }
        assert!(h.quantile(0.5) <= h.quantile(0.9));
        assert!(h.quantile(0.9) <= h.quantile(1.0));
        // Median of 1..=1024 is ~512; log2 bucket upper bound is 512 or 1024.
        assert!((256..=1024).contains(&h.quantile(0.5)));
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
