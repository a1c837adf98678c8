//! The hazard classifier: judges an observation window against its
//! baseline.
//!
//! Table 1 classifies what each hook can hazard — fairness (`cmp_node`,
//! `skip_shuffle`), performance (`schedule_waiter`) or critical-section
//! length (the event hooks). The verifier cannot rule these out: they are
//! *semantic* regressions a well-formed policy can cause. [`detect`]
//! compares a window of acquisition-latency and hold-time behavior with
//! the policy live against a baseline window taken without it, and names
//! the hazard class that fired.
//!
//! The classifier is policy-agnostic and works on any pair of
//! [`WindowStats`]. Its callers distill those from virtual-time
//! histograms: the schedule explorer judges every explored schedule with
//! it, and `table1_api_hazards` uses it to pick which policy to revert
//! and quarantine ([`crate::Concord::quarantine_sim`]).

use locks::hooks::Hazard;

use ksim::Histogram;

/// Summary of one observation window, distilled from the profiler's
/// wait-time and hold-time histograms.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowStats {
    /// Acquisitions observed in the window.
    pub acquisitions: u64,
    /// Mean acquisition wait (ns).
    pub wait_mean: f64,
    /// Approximate wait-time standard deviation (from log2 bucket
    /// midpoints — the fairness spread signal).
    pub wait_stddev: f64,
    /// p50 acquisition wait (ns).
    pub wait_p50: u64,
    /// p99 acquisition wait (ns).
    pub wait_p99: u64,
    /// Worst acquisition wait (ns) — the starvation signal.
    pub wait_max: u64,
    /// Mean hold time (ns) — the critical-section signal.
    pub hold_mean: f64,
    /// p50 hold time (ns).
    pub hold_p50: u64,
}

impl WindowStats {
    /// Distills a window from raw wait/hold histograms (the simulator
    /// path).
    pub fn from_hists(wait: &Histogram, hold: &Histogram) -> Self {
        WindowStats {
            acquisitions: wait.count(),
            wait_mean: wait.mean(),
            wait_stddev: hist_stddev(wait),
            wait_p50: wait.quantile(0.5),
            wait_p99: wait.quantile(0.99),
            wait_max: wait.max(),
            hold_mean: hold.mean(),
            hold_p50: hold.quantile(0.5),
        }
    }
}

/// Approximate standard deviation of a log2 histogram, treating every
/// sample as sitting at its bucket midpoint (1.5 × the bucket floor).
/// Exact to within the bucketing error, which is all the hazard
/// thresholds need.
fn hist_stddev(h: &Histogram) -> f64 {
    let n = h.count();
    if n < 2 {
        return 0.0;
    }
    let mean = h.mean();
    let mut m2 = 0.0;
    for (floor, count) in h.nonzero_buckets() {
        let mid = if floor == 0 { 0.5 } else { floor as f64 * 1.5 };
        m2 += count as f64 * (mid - mean) * (mid - mean);
    }
    (m2 / n as f64).sqrt()
}

// Hazard thresholds: multiplicative growth factors over the pre-attach
// baseline.

/// Wait-time spread growth (stddev, or worst-case wait) that flags a
/// fairness hazard: some waiters are being starved relative to the
/// unpatched lock.
const FAIRNESS_FACTOR: f64 = 4.0;
/// Mean-wait growth that flags a performance hazard: everyone is slower.
const SLOWDOWN_FACTOR: f64 = 4.0;
/// Hold-time growth that flags a critical-section hazard: the policy is
/// doing work inside the lock.
const CS_FACTOR: f64 = 3.0;

/// Watchdog settings.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Minimum acquisitions in the current window before the watchdog
    /// judges at all (small windows are noise).
    pub min_acquisitions: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            min_acquisitions: 200,
        }
    }
}

/// A detected hazard: which Table 1 class fired and the numbers behind
/// it.
#[derive(Clone, Debug)]
pub struct HazardReport {
    /// The hazard class.
    pub hazard: Hazard,
    /// Human-readable account (goes into the quarantine reason).
    pub detail: String,
    /// The pre-attach window.
    pub baseline: WindowStats,
    /// The window that fired.
    pub current: WindowStats,
}

/// Compares a window against its baseline. Checks run in Table 1 order
/// of severity: critical-section growth, then fairness spread, then
/// uniform slowdown; the first to fire wins.
pub fn detect(
    baseline: &WindowStats,
    current: &WindowStats,
    cfg: &WatchdogConfig,
) -> Option<HazardReport> {
    if current.acquisitions < cfg.min_acquisitions {
        return None;
    }
    // An idle baseline can't be regressed against; floor its signals at
    // one sample's worth of noise instead of dividing by zero.
    let base_hold = baseline.hold_mean.max(1.0);
    let base_wait = baseline.wait_mean.max(1.0);
    // Fairness signals are normalized by the window's own center, so a
    // uniform slowdown (everyone × k) moves neither: cov = stddev/mean,
    // starvation = worst wait / median wait.
    let cov = |w: &WindowStats| w.wait_stddev / w.wait_mean.max(1.0);
    let starvation = |w: &WindowStats| w.wait_max as f64 / w.wait_p50.max(1) as f64;
    let base_cov = cov(baseline).max(0.05);
    let base_starvation = starvation(baseline).max(1.0);

    let report = |hazard, detail| {
        Some(HazardReport {
            hazard,
            detail,
            baseline: *baseline,
            current: *current,
        })
    };
    if current.hold_mean > base_hold * CS_FACTOR {
        return report(
            Hazard::CriticalSection,
            format!(
                "mean hold time grew {:.1}x (baseline {:.0} ns, now {:.0} ns)",
                current.hold_mean / base_hold,
                baseline.hold_mean,
                current.hold_mean
            ),
        );
    }
    if cov(current) > base_cov * FAIRNESS_FACTOR
        || starvation(current) > base_starvation * FAIRNESS_FACTOR
    {
        return report(
            Hazard::Fairness,
            format!(
                "wait spread grew: cov {:.2} -> {:.2}, worst/median {:.1} -> {:.1} \
                 (worst wait {} -> {} ns)",
                base_cov,
                cov(current),
                base_starvation,
                starvation(current),
                baseline.wait_max,
                current.wait_max
            ),
        );
    }
    if current.wait_mean > base_wait * SLOWDOWN_FACTOR {
        return report(
            Hazard::Performance,
            format!(
                "mean wait grew {:.1}x (baseline {:.0} ns, now {:.0} ns)",
                current.wait_mean / base_wait,
                baseline.wait_mean,
                current.wait_mean
            ),
        );
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(vals: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in vals {
            h.record(v);
        }
        h
    }

    #[test]
    fn detect_flags_each_hazard_class() {
        let cfg = WatchdogConfig {
            min_acquisitions: 4,
        };
        let wait = filled(&[100, 110, 120, 130]);
        let hold = filled(&[50, 50, 60, 60]);
        let base = WindowStats::from_hists(&wait, &hold);
        assert!(
            detect(&base, &base, &cfg).is_none(),
            "self vs self is clean"
        );

        // Critical-section growth: hold times balloon.
        let cur = WindowStats::from_hists(&wait, &filled(&[500, 500, 600, 600]));
        let r = detect(&base, &cur, &cfg).expect("cs hazard");
        assert_eq!(r.hazard, Hazard::CriticalSection);
        assert!(r.detail.contains("hold"));

        // Fairness: same mean-ish, huge spread (one starved waiter).
        let cur = WindowStats::from_hists(&filled(&[1, 1, 1, 8_000]), &hold);
        let r = detect(&base, &cur, &cfg).expect("fairness hazard");
        assert_eq!(r.hazard, Hazard::Fairness);

        // Performance: everyone uniformly slower.
        let cur = WindowStats::from_hists(&filled(&[900, 900, 900, 900]), &hold);
        let r = detect(&base, &cur, &cfg).expect("performance hazard");
        assert_eq!(r.hazard, Hazard::Performance);

        // Too few samples: no judgment.
        let tiny = WindowStats::from_hists(&filled(&[9_999]), &hold);
        assert!(detect(&base, &tiny, &cfg).is_none());
    }

    #[test]
    fn hist_stddev_tracks_spread() {
        assert_eq!(hist_stddev(&filled(&[64])), 0.0, "one sample");
        let tight = hist_stddev(&filled(&[64, 64, 64, 64]));
        let wide = hist_stddev(&filled(&[1, 1, 4_096, 4_096]));
        assert!(wide > tight * 10.0, "wide {wide} vs tight {tight}");
    }
}
