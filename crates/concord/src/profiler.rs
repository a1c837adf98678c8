//! Dynamic lock profiling (§3.2).
//!
//! Unlike `lockstat`, "in which all locks are profiled together", the
//! profiler attaches to a chosen set of lock instances — one lock, a
//! class, or everything in the registry — through the four event hooks,
//! and renders a lockstat-style report with hold-time and wait-time
//! log2 histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cbpf::map::{Map, MapDef, MapKind};
use ksim::Histogram;
use locks::hooks::HookKind;
use telemetry::AtomicHistogram;

use crate::workflow::{AttachHandle, Concord, ConcordError};

/// In-flight tids one profiler tracks at once. Timestamps for tids past
/// this degrade gracefully: the acquire/release still counts, only the
/// latency sample is dropped.
const TS_MAP_ENTRIES: usize = 4096;

/// tid → timestamp table on the policy data plane: a sharded `cbpf` hash
/// map instead of a `Mutex<HashMap>`, so concurrent hook invocations
/// from different threads don't serialize on one lock (the profiler is
/// attached exactly where contention is suspected).
fn ts_map(name: &str) -> Map {
    Map::new(MapDef {
        name: name.into(),
        kind: MapKind::Hash,
        key_size: 8,
        value_size: 8,
        max_entries: TS_MAP_ENTRIES,
    })
}

/// Records `now` for `tid`, dropping the sample if the table is full.
fn ts_insert(map: &Map, tid: u64, now: u64) {
    let _ = map.update(&tid.to_le_bytes(), &now.to_le_bytes(), 0);
}

/// Takes the timestamp recorded for `tid`, if any (borrow-based lookup:
/// no allocation on the hook hot path).
fn ts_remove(map: &Map, tid: u64) -> Option<u64> {
    let key = tid.to_le_bytes();
    let slot = map.lookup_slot(&key, 0)?;
    let ts = map.value_load(slot, 0, 8)?;
    map.delete(&key).ok()?;
    Some(ts)
}

/// Per-lock profile counters.
pub struct LockProfile {
    acquires: AtomicU64,
    contended: AtomicU64,
    acquired: AtomicU64,
    releases: AtomicU64,
    // Lock-free log2 histograms: hook invocations from contending threads
    // record without serializing on a profiler mutex.
    hold_hist: AtomicHistogram,
    wait_hist: AtomicHistogram,
    // tid → timestamps for in-flight operations.
    attempt_ts: Map,
    acquired_ts: Map,
}

impl Default for LockProfile {
    fn default() -> Self {
        LockProfile {
            acquires: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            acquired: AtomicU64::new(0),
            releases: AtomicU64::new(0),
            hold_hist: AtomicHistogram::new(),
            wait_hist: AtomicHistogram::new(),
            attempt_ts: ts_map("attempt_ts"),
            acquired_ts: ts_map("acquired_ts"),
        }
    }
}

impl LockProfile {
    /// `(attempts, contended, acquired, releases)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.acquires.load(Ordering::Relaxed),
            self.contended.load(Ordering::Relaxed),
            self.acquired.load(Ordering::Relaxed),
            self.releases.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of the hold-time histogram.
    pub fn hold_hist(&self) -> Histogram {
        let (buckets, count, sum, min, max) = self.hold_hist.raw_parts();
        Histogram::from_raw(buckets, count, sum, min, max)
    }

    /// Snapshot of the wait-time histogram.
    pub fn wait_hist(&self) -> Histogram {
        let (buckets, count, sum, min, max) = self.wait_hist.raw_parts();
        Histogram::from_raw(buckets, count, sum, min, max)
    }

    /// Contention ratio (contended / attempts), 0 when idle.
    pub fn contention_ratio(&self) -> f64 {
        let a = self.acquires.load(Ordering::Relaxed);
        if a == 0 {
            0.0
        } else {
            self.contended.load(Ordering::Relaxed) as f64 / a as f64
        }
    }
}

/// A profiling session over a set of locks.
pub struct Profiler {
    profiles: Vec<(String, Arc<LockProfile>)>,
    handles: Vec<AttachHandle>,
}

impl Profiler {
    /// Attaches profiling hooks to the named locks.
    ///
    /// # Errors
    ///
    /// Fails if any lock is unknown or not hookable; locks attached before
    /// the failure are rolled back.
    pub fn attach(concord: &Concord, locks: &[&str]) -> Result<Profiler, ConcordError> {
        let mut profiler = Profiler {
            profiles: Vec::new(),
            handles: Vec::new(),
        };
        for name in locks {
            match profiler.attach_one(concord, name) {
                Ok(()) => {}
                Err(e) => {
                    // Best-effort rollback; the original error wins.
                    let _ = profiler.detach(concord);
                    return Err(e);
                }
            }
        }
        Ok(profiler)
    }

    /// Attaches to every lock in a registry class (§3.2's "namespace"
    /// granularity).
    ///
    /// # Errors
    ///
    /// See [`Profiler::attach`].
    pub fn attach_class(concord: &Concord, class: &str) -> Result<Profiler, ConcordError> {
        let names = concord.registry().names_in_class(class);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        Profiler::attach(concord, &refs)
    }

    /// Attaches to every registered lock (the `lockstat` equivalent).
    ///
    /// # Errors
    ///
    /// See [`Profiler::attach`].
    #[cfg(test)]
    pub fn attach_all(concord: &Concord) -> Result<Profiler, ConcordError> {
        let names = concord.registry().names();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        Profiler::attach(concord, &refs)
    }

    fn attach_one(&mut self, concord: &Concord, name: &str) -> Result<(), ConcordError> {
        let profile = Arc::new(LockProfile::default());

        let p = Arc::clone(&profile);
        let h = concord.attach_native_event(
            name,
            HookKind::LockAcquire,
            Arc::new(move |ctx| {
                p.acquires.fetch_add(1, Ordering::Relaxed);
                ts_insert(&p.attempt_ts, ctx.tid, ctx.now_ns);
            }),
        )?;
        self.handles.push(h);

        let p = Arc::clone(&profile);
        let h = concord.attach_native_event(
            name,
            HookKind::LockContended,
            Arc::new(move |_| {
                p.contended.fetch_add(1, Ordering::Relaxed);
            }),
        )?;
        self.handles.push(h);

        let p = Arc::clone(&profile);
        let h = concord.attach_native_event(
            name,
            HookKind::LockAcquired,
            Arc::new(move |ctx| {
                p.acquired.fetch_add(1, Ordering::Relaxed);
                if let Some(start) = ts_remove(&p.attempt_ts, ctx.tid) {
                    p.wait_hist.record(ctx.now_ns.saturating_sub(start));
                }
                ts_insert(&p.acquired_ts, ctx.tid, ctx.now_ns);
            }),
        )?;
        self.handles.push(h);

        let p = Arc::clone(&profile);
        let h = concord.attach_native_event(
            name,
            HookKind::LockRelease,
            Arc::new(move |ctx| {
                p.releases.fetch_add(1, Ordering::Relaxed);
                if let Some(start) = ts_remove(&p.acquired_ts, ctx.tid) {
                    p.hold_hist.record(ctx.now_ns.saturating_sub(start));
                }
            }),
        )?;
        self.handles.push(h);

        self.profiles.push((name.to_string(), profile));
        Ok(())
    }

    /// The profile of one lock.
    pub fn profile(&self, lock: &str) -> Option<&Arc<LockProfile>> {
        self.profiles
            .iter()
            .find(|(n, _)| n == lock)
            .map(|(_, p)| p)
    }

    /// Profiled lock names.
    pub fn locks(&self) -> Vec<&str> {
        self.profiles.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Detaches every hook (in reverse attach order, honoring the patch
    /// stack) and returns the collected profiles.
    ///
    /// # Errors
    ///
    /// Propagates the patch-stack error if a handle no longer reverts —
    /// e.g. a patch above it was attached out of band. The failed handle
    /// is kept so a later call can retry; no handle is silently dropped.
    pub fn detach(
        &mut self,
        concord: &Concord,
    ) -> Result<Vec<(String, Arc<LockProfile>)>, ConcordError> {
        while let Some(h) = self.handles.pop() {
            let saved = AttachHandle {
                patch: h.patch,
                lock: h.lock.clone(),
                hook: h.hook,
            };
            if let Err(e) = concord.detach(h) {
                self.handles.push(saved);
                return Err(e);
            }
        }
        Ok(std::mem::take(&mut self.profiles))
    }

    /// Renders a lockstat-style report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>8} {:>12} {:>12} {:>12}\n",
            "lock", "acquires", "contended", "cont%", "wait p50(ns)", "hold p50(ns)", "hold max"
        ));
        for (name, p) in &self.profiles {
            let (a, c, _, _) = p.counters();
            let wait = p.wait_hist();
            let hold = p.hold_hist();
            out.push_str(&format!(
                "{:<24} {:>10} {:>10} {:>7.1}% {:>12} {:>12} {:>12}\n",
                name,
                a,
                c,
                p.contention_ratio() * 100.0,
                wait.quantile(0.5),
                hold.quantile(0.5),
                hold.max(),
            ));
        }
        out
    }

    /// Joins the lockstat-style view with a trace-plane contention
    /// analysis: for each profiled lock that appears in the analysis
    /// (matched by registered name), renders the analyzer's measured
    /// wait, attribution fidelity, and the single most-blamed
    /// (tenant, policy) cell — the hook histograms and the timeline
    /// reconstruction answering the same question from two sides.
    pub fn contention_report(&self, analysis: &telemetry::Report) -> String {
        let mut out = String::new();
        for (name, _) in &self.profiles {
            let Some(l) = analysis.locks.values().find(|l| &l.name == name) else {
                continue;
            };
            let fidelity = if analysis.exact() {
                "exact"
            } else {
                "lower-bound"
            };
            match l
                .caused
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            {
                Some(((tenant, policy), ns)) => {
                    let tenant = if *tenant == telemetry::analyze::HANDOFF_TENANT {
                        "handoff".to_string()
                    } else {
                        tenant.to_string()
                    };
                    let share = ns.saturating_mul(1000).checked_div(l.wait_ns).unwrap_or(0);
                    out.push_str(&format!(
                        "{name:<24} analyzed wait={}ns ({fidelity}) top blame: \
                         tenant={tenant} policy={policy} {ns}ns ({share}‰)\n",
                        l.wait_ns
                    ));
                }
                None => {
                    out.push_str(&format!(
                        "{name:<24} analyzed wait={}ns ({fidelity}) no completed waits\n",
                        l.wait_ns
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locks::{RawLock, ShflLock};

    fn concord_with_lock(name: &str) -> (Concord, Arc<ShflLock>) {
        let c = Concord::new();
        let lock = Arc::new(ShflLock::new());
        c.registry().register_shfl(name, Arc::clone(&lock));
        (c, lock)
    }

    #[test]
    fn profiles_single_lock() {
        let (c, lock) = concord_with_lock("target");
        let mut prof = Profiler::attach(&c, &["target"]).unwrap();
        for _ in 0..100 {
            let _g = lock.lock();
        }
        let p = Arc::clone(prof.profile("target").unwrap());
        let (a, _, acq, rel) = p.counters();
        assert_eq!(a, 100);
        assert_eq!(acq, 100);
        assert_eq!(rel, 100);
        assert_eq!(p.hold_hist().count(), 100);
        let report = prof.report();
        assert!(report.contains("target"));
        prof.detach(&c).unwrap();
        assert!(c.live_patches().is_empty());
        // After detach the lock is unobserved again.
        {
            let _g = lock.lock();
        }
        assert_eq!(p.counters().0, 100);
    }

    #[test]
    fn selective_profiling_ignores_other_locks() {
        let c = Concord::new();
        let watched = Arc::new(ShflLock::new());
        let unwatched = Arc::new(ShflLock::new());
        c.registry().register_shfl("watched", Arc::clone(&watched));
        c.registry()
            .register_shfl("unwatched", Arc::clone(&unwatched));
        let mut prof = Profiler::attach(&c, &["watched"]).unwrap();
        for _ in 0..10 {
            let _g = watched.lock();
            let _h = unwatched.lock();
        }
        assert_eq!(prof.profile("watched").unwrap().counters().0, 10);
        assert!(prof.profile("unwatched").is_none());
        prof.detach(&c).unwrap();
    }

    #[test]
    fn class_and_all_granularity() {
        use crate::registry::{LockClass, LockHandle};
        let c = Concord::new();
        for (name, class) in [("a1", "alpha"), ("a2", "alpha"), ("b1", "beta")] {
            c.registry().register(
                name,
                LockHandle::Shfl(Arc::new(ShflLock::new())),
                LockClass(class.into()),
            );
        }
        let mut prof = Profiler::attach_class(&c, "alpha").unwrap();
        assert_eq!(prof.locks(), vec!["a1", "a2"]);
        prof.detach(&c).unwrap();
        let mut prof = Profiler::attach_all(&c).unwrap();
        assert_eq!(prof.locks().len(), 3);
        prof.detach(&c).unwrap();
    }

    #[test]
    fn attach_failure_rolls_back() {
        let (c, _lock) = concord_with_lock("ok");
        let err = match Profiler::attach(&c, &["ok", "missing"]) {
            Err(e) => e,
            Ok(_) => panic!("attach should fail on a missing lock"),
        };
        assert!(matches!(err, ConcordError::UnknownLock(_)));
        assert!(c.live_patches().is_empty(), "partial attach must roll back");
    }

    #[test]
    fn contention_recorded_under_load() {
        let (c, lock) = concord_with_lock("hot");
        let mut prof = Profiler::attach(&c, &["hot"]).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let _g = l.lock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let p = prof.profile("hot").unwrap();
        let (a, _, acq, rel) = p.counters();
        assert_eq!(a, 2_000);
        assert_eq!(acq, 2_000);
        assert_eq!(rel, 2_000);
        assert_eq!(p.wait_hist().count(), 2_000);
        prof.detach(&c).unwrap();
    }
}
