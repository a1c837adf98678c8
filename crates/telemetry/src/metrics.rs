//! Atomic metrics: counters, gauges, log2 histograms, and a registry
//! that renders the counters and gauges in the Prometheus text exposition
//! format.
//!
//! [`AtomicHistogram`] uses the same power-of-two bucketing as
//! `ksim::Histogram` (bucket `k` holds values whose highest set bit is
//! `k`, with `v <= 1` in bucket 0), but records with a handful of relaxed
//! atomic RMWs instead of a mutex — this is what lets the profiler's
//! hook-path histogram updates run lock-free.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets; covers the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the counter to `v` if it is currently lower (monotonic sync
    /// from an external absolute count, e.g. the plane's drop total).
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
}

/// A signed instantaneous value.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log2 histogram. Bucketing matches `ksim::Histogram`
/// exactly so a snapshot converts losslessly via
/// `ksim::Histogram::from_raw`.
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    pub const fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: the position of its highest set bit
    /// (`v <= 1` lands in bucket 0) — identical to `ksim::Histogram`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Record one sample. A handful of relaxed RMWs; no locking.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Raw parts `(buckets, count, sum, min, max)` — the argument list of
    /// `ksim::Histogram::from_raw`. Not an atomic snapshot: concurrent
    /// recorders may leave the parts one sample apart, which log2
    /// profiling tolerates by design.
    pub fn raw_parts(&self) -> ([u64; HIST_BUCKETS], u64, u64, u64, u64) {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        (buckets, self.count(), self.sum(), self.min(), self.max())
    }

    /// Reset every cell to the empty state.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A named collection of metrics rendered in the Prometheus text
/// exposition format. Handles are `Arc`s, so hot paths keep a clone and
/// never touch the registry maps again.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Render every metric in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.counters.lock().unwrap().iter() {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.get());
        }
        for (name, g) in self.gauges.lock().unwrap().iter() {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", g.get());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let r = MetricsRegistry::new();
        r.counter("c3_events_total").add(3);
        r.counter("c3_events_total").inc();
        r.gauge("c3_patches_live").set(2);
        r.gauge("c3_patches_live").add(-1);
        assert_eq!(r.counter("c3_events_total").get(), 4);
        assert_eq!(r.gauge("c3_patches_live").get(), 1);
    }

    #[test]
    fn histogram_bucketing_matches_log2() {
        let h = AtomicHistogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        let (buckets, ..) = h.raw_parts();
        assert_eq!(buckets[0], 2); // 0, 1
        assert_eq!(buckets[1], 2); // 2, 3
        assert_eq!(buckets[2], 2); // 4, 7
        assert_eq!(buckets[3], 1); // 8
        assert_eq!(buckets[10], 1); // 1024
        assert_eq!(buckets[63], 1); // u64::MAX
    }

    #[test]
    fn prometheus_rendering() {
        let r = MetricsRegistry::new();
        r.counter("a_total").add(7);
        r.gauge("b_now").set(-2);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE a_total counter\na_total 7\n"));
        assert!(text.contains("# TYPE b_now gauge\nb_now -2\n"));
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let h = AtomicHistogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
