//! The hazard watchdog: profiler-driven hazard detection with auto-revert.
//!
//! Table 1 classifies what each hook can hazard — fairness (`cmp_node`,
//! `skip_shuffle`), performance (`schedule_waiter`) or critical-section
//! length (the event hooks). The verifier cannot rule these out: they are
//! *semantic* regressions a well-formed policy can cause. The watchdog
//! closes the loop at runtime:
//!
//! 1. before the policy attaches, the dynamic profiler (§3.2) records a
//!    **baseline window** of acquisition-latency and hold-time behavior;
//! 2. with the policy live, the watchdog periodically compares the
//!    current window against the baseline ([`detect`]);
//! 3. a detected hazard **auto-reverts** the policy — a livepatch revert
//!    transaction pulls it without disturbing other patches — and files a
//!    quarantine record naming the hazard.
//!
//! The detection core is policy-agnostic and works on any pair of
//! [`WindowStats`], so the simulator benches (`table1_api_hazards`) reuse
//! it on virtual-time histograms.

use locks::hooks::Hazard;

use ksim::Histogram;

use crate::containment::QuarantineRecord;
use crate::profiler::{LockProfile, Profiler};
use crate::workflow::{AttachHandle, Concord, ConcordError};

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
    /// Distills a window from a profiler's per-lock profile.
    pub fn from_profile(p: &LockProfile) -> Self {
        WindowStats::from_hists(&p.wait_hist(), &p.hold_hist())
    }

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

/// Watchdog thresholds — multiplicative growth factors over the
/// pre-attach baseline.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Wait-time spread growth (stddev, or worst-case wait) that flags a
    /// fairness hazard: some waiters are being starved relative to the
    /// unpatched lock.
    pub fairness_factor: f64,
    /// Mean-wait growth that flags a performance hazard: everyone is
    /// slower.
    pub slowdown_factor: f64,
    /// Hold-time growth that flags a critical-section hazard: the policy
    /// is doing work inside the lock.
    pub cs_factor: f64,
    /// Minimum acquisitions in the current window before the watchdog
    /// judges at all (small windows are noise).
    pub min_acquisitions: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            fairness_factor: 4.0,
            slowdown_factor: 4.0,
            cs_factor: 3.0,
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
    if current.hold_mean > base_hold * cfg.cs_factor {
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
    if cov(current) > base_cov * cfg.fairness_factor
        || starvation(current) > base_starvation * cfg.fairness_factor
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
    if current.wait_mean > base_wait * cfg.slowdown_factor {
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

/// Outcome of a watchdog enforcement pass.
pub enum EnforceOutcome {
    /// No hazard: the policy stays attached and its handle comes back.
    Clean(AttachHandle),
    /// Hazard detected: the policy was auto-reverted and quarantined.
    /// The report is boxed to keep the enum as small as the common
    /// `Clean` case.
    Reverted(Box<HazardReport>, QuarantineRecord),
}

/// A watchdog on one real lock: owns a profiling session and the
/// baseline window.
pub struct LockWatchdog {
    lock: String,
    cfg: WatchdogConfig,
    profiler: Profiler,
    baseline: Option<WindowStats>,
}

impl LockWatchdog {
    /// Attaches profiling hooks to `lock`. Drive representative load,
    /// then call [`LockWatchdog::snapshot_baseline`] *before* attaching
    /// the policy under watch.
    ///
    /// # Errors
    ///
    /// Fails when the lock is unknown or not hookable.
    pub fn arm(concord: &Concord, lock: &str, cfg: WatchdogConfig) -> Result<Self, ConcordError> {
        let profiler = Profiler::attach(concord, &[lock])?;
        Ok(LockWatchdog {
            lock: lock.to_string(),
            cfg,
            profiler,
            baseline: None,
        })
    }

    /// Freezes the pre-attach window as the baseline and restarts
    /// profiling, so the watched window contains only post-attach
    /// behavior. Call between the baseline load and the policy attach.
    ///
    /// # Errors
    ///
    /// Fails if the lock was unregistered since [`LockWatchdog::arm`].
    pub fn snapshot_baseline(&mut self, concord: &Concord) -> Result<WindowStats, ConcordError> {
        let stats = self.current();
        self.profiler.detach(concord)?;
        self.profiler = Profiler::attach(concord, &[&self.lock])?;
        self.baseline = Some(stats);
        Ok(stats)
    }

    /// The frozen baseline, once snapshot.
    pub fn baseline(&self) -> Option<WindowStats> {
        self.baseline
    }

    /// The current observation window.
    pub fn current(&self) -> WindowStats {
        match self.profiler.profile(&self.lock) {
            Some(p) => WindowStats::from_profile(p),
            None => WindowStats::default(),
        }
    }

    /// Checks the current window against the baseline (no action taken).
    /// Every judgment — clean or hazardous — lands in the trace plane as
    /// a [`telemetry::EventKind::WatchdogVerdict`] record when armed.
    pub fn check(&self) -> Option<HazardReport> {
        let baseline = self.baseline?;
        let current = self.current();
        let verdict = detect(&baseline, &current, &self.cfg);
        if verdict.is_some() {
            telemetry::metrics()
                .counter("c3_watchdog_hazards_total")
                .inc();
        }
        if telemetry::armed() {
            let hazard_class = match verdict.as_ref().map(|r| r.hazard) {
                None => 0,
                Some(Hazard::Fairness) => 1,
                Some(Hazard::Performance) => 2,
                Some(Hazard::CriticalSection) => 3,
            };
            telemetry::emit(
                telemetry::EventKind::WatchdogVerdict,
                locks::now_ns(),
                locks::topo::current_cpu() as u16,
                telemetry::event::fnv64(&self.lock),
                hazard_class,
                current.acquisitions,
                u64::from(verdict.is_some()),
            );
        }
        verdict
    }

    /// One enforcement pass: on a hazard, auto-reverts the policy behind
    /// `handle` (livepatch revert transaction — the watchdog's own
    /// profiling patches survive) and files a quarantine record.
    ///
    /// # Errors
    ///
    /// Returns [`ConcordError::Patch`] when a hazard fired but the patch
    /// was already gone.
    pub fn enforce(
        &self,
        concord: &Concord,
        handle: AttachHandle,
    ) -> Result<EnforceOutcome, ConcordError> {
        match self.check() {
            None => Ok(EnforceOutcome::Clean(handle)),
            Some(report) => {
                let reason = format!("watchdog: {:?} hazard — {}", report.hazard, report.detail);
                let record = concord.quarantine(handle, reason)?;
                Ok(EnforceOutcome::Reverted(Box::new(report), record))
            }
        }
    }

    /// Detaches the profiling hooks; the watchdog is done.
    ///
    /// # Errors
    ///
    /// Propagates the patch-stack error if a profiling handle no longer
    /// reverts (see [`Profiler::detach`]).
    pub fn disarm(mut self, concord: &Concord) -> Result<(), ConcordError> {
        self.profiler.detach(concord).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use locks::hooks::HookKind;
    use locks::{RawLock, ShflLock};

    use crate::workflow::PolicySpec;

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
            ..WatchdogConfig::default()
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

    #[test]
    fn watchdog_auto_reverts_cs_hazard_on_real_lock() {
        let c = Concord::new();
        let lock = Arc::new(ShflLock::new());
        c.registry().register_shfl("watched", Arc::clone(&lock));
        let mut wd = LockWatchdog::arm(
            &c,
            "watched",
            WatchdogConfig {
                cs_factor: 3.0,
                min_acquisitions: 100,
                ..WatchdogConfig::default()
            },
        )
        .unwrap();

        // Baseline: empty critical sections.
        for _ in 0..300 {
            let _g = lock.lock();
        }
        let base = wd.snapshot_baseline(&c).unwrap();
        assert!(base.acquisitions >= 300);

        // Attach a policy that burns time inside the critical section —
        // the lock_acquired hook runs while the lock is held, after the
        // profiler's own (chained) subscriber stamps the acquired time.
        let h = c
            .attach_native_event(
                "watched",
                HookKind::LockAcquired,
                Arc::new(move |_| {
                    std::thread::sleep(std::time::Duration::from_micros(30));
                }),
            )
            .unwrap();
        for _ in 0..300 {
            let _g = lock.lock();
        }
        let outcome = wd.enforce(&c, h).unwrap();
        let (report, record) = match outcome {
            EnforceOutcome::Reverted(rep, rec) => (rep, rec),
            EnforceOutcome::Clean(_) => panic!("hazard must fire"),
        };
        assert_eq!(report.hazard, Hazard::CriticalSection);
        assert!(record.reason.contains("watchdog"));
        assert_eq!(c.registry().quarantines("watched").len(), 1);
        // The policy is gone; only the watchdog's own profiling remains.
        assert_eq!(c.live_patches().len(), 4);
        wd.disarm(&c).unwrap();
        assert!(c.live_patches().is_empty());
    }

    #[test]
    fn clean_policy_survives_enforcement() {
        let c = Concord::new();
        let lock = Arc::new(ShflLock::new());
        c.registry().register_shfl("ok", Arc::clone(&lock));
        // Generous factors: real-clock noise (a preempted iteration) must
        // not read as a hazard on an uncontended lock.
        let mut wd = LockWatchdog::arm(
            &c,
            "ok",
            WatchdogConfig {
                fairness_factor: 50.0,
                slowdown_factor: 50.0,
                cs_factor: 50.0,
                min_acquisitions: 100,
            },
        )
        .unwrap();
        for _ in 0..500 {
            let _g = lock.lock();
        }
        wd.snapshot_baseline(&c).unwrap();
        let loaded = c
            .load(PolicySpec::from_asm(
                "noop",
                HookKind::CmpNode,
                "mov r0, 0\nexit",
            ))
            .unwrap();
        let h = c.attach("ok", &loaded).unwrap();
        for _ in 0..500 {
            let _g = lock.lock();
        }
        match wd.enforce(&c, h).unwrap() {
            EnforceOutcome::Clean(h) => c.detach(h).unwrap(),
            EnforceOutcome::Reverted(rep, _) => panic!("false positive: {}", rep.detail),
        }
        wd.disarm(&c).unwrap();
    }
}
