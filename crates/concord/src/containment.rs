//! Policy fault containment: fail-safe defaults, circuit breakers and
//! quarantine bookkeeping.
//!
//! The verifier proves memory and termination safety *before* a policy is
//! patched in (§4.2), but Table 1 is explicit that a verified policy can
//! still hazard fairness, performance or critical-section length at
//! runtime. This module is the runtime half of that safety story:
//!
//! * **fail-safe defaults** — when a policy invocation faults, the hook
//!   site degrades to the unpatched lock's decision instead of
//!   propagating an error into a lock acquisition;
//! * **circuit breakers** — one fault counter per attach; a
//!   configurable run of consecutive faults trips the breaker, which
//!   either bypasses the policy until a virtual-time cooldown elapses
//!   (half-open probe) or marks it for permanent quarantine;
//! * **quarantine records** — why a policy was pulled, kept in the lock
//!   registry for the administrator (`c3ctl quarantines`).
//!
//! The breaker is all atomics, so one implementation serves the real
//! multi-threaded locks and the single-threaded simulator.

use std::rc::Rc;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use cbpf::error::FaultKind;
use cbpf::fault::FaultInjector;
use ksim::Sim;
use locks::hooks::{CmpNodeCtx, HookKind, LockEventCtx, SkipShuffleCtx};
use simlocks::policy::{Decision, SimPolicy};

use crate::policy::Dispatch;

/// Modeled cost of the armed-containment check on a hook invocation: one
/// relaxed state load plus a counter update. This is what the
/// `containment_overhead` ablation charges on the Fig. 2(c) worst case.
pub const BREAKER_CHECK_NS: u64 = 2;

/// The default decision each hook degrades to on a policy fault — the
/// unpatched lock's behavior (`locks::hooks` vacant-slot semantics):
/// `cmp_node` → 0 (no reorder), `skip_shuffle` → 1 (skip, plain FIFO),
/// `schedule_waiter` → 1 (parking allowed), events → 0 (no-op).
pub fn fail_safe_default(hook: HookKind) -> u64 {
    match hook {
        HookKind::CmpNode => 0,
        HookKind::SkipShuffle => 1,
        HookKind::ScheduleWaiter => 1,
        _ => 0,
    }
}

/// Breaker tuning.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive faults that trip the breaker.
    pub threshold: u32,
    /// Virtual-time cooldown after which an open breaker lets one probe
    /// invocation through (half-open). `None` marks the policy for
    /// permanent quarantine instead: [`Concord::sweep_breakers`]
    /// (crate::Concord::sweep_breakers) detaches it via a livepatch
    /// revert transaction.
    pub cooldown_ns: Option<u64>,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            cooldown_ns: None,
        }
    }
}

/// Breaker state machine position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakerState {
    /// Policy runs; consecutive faults are being counted.
    Closed,
    /// Policy bypassed; hooks serve fail-safe defaults.
    Open,
    /// Cooldown elapsed; the next invocation probes the policy.
    HalfOpen,
}

const STATE_CLOSED: u8 = 0;
const STATE_OPEN: u8 = 1;
const STATE_HALF_OPEN: u8 = 2;

/// How many flight-recorder events a quarantine captures from the trace
/// plane (the most recent records still resident in the rings).
pub const FLIGHT_RECORDER_EVENTS: usize = 64;

/// Per-attach fault accounting and trip logic.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    state: AtomicU8,
    consecutive: AtomicU32,
    opened_at: AtomicU64,
    trips: AtomicU64,
    by_kind: [AtomicU64; 4],
    /// Telemetry identity: FNV hash of the guarded lock's name and the
    /// hook bit, carried by `BreakerTrip` trace records (0 = untagged).
    tag_lock: AtomicU64,
    tag_hook: AtomicU64,
}

impl Breaker {
    /// Creates a closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        Breaker {
            cfg,
            state: AtomicU8::new(STATE_CLOSED),
            consecutive: AtomicU32::new(0),
            opened_at: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            by_kind: Default::default(),
            tag_lock: AtomicU64::new(0),
            tag_hook: AtomicU64::new(0),
        }
    }

    /// Tags the breaker with the guarded lock (name hash) and hook bit so
    /// trip trace records identify the policy being contained.
    pub fn set_tag(&self, lock_hash: u64, hook_bit: u64) {
        self.tag_lock.store(lock_hash, Ordering::Relaxed);
        self.tag_hook.store(hook_bit, Ordering::Relaxed);
    }

    /// Current state (transitions Open → HalfOpen only happen inside
    /// [`Breaker::allow`], so this is a pure read).
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            STATE_OPEN => BreakerState::Open,
            STATE_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Whether the policy may run this invocation. An open breaker whose
    /// cooldown has elapsed transitions to half-open and admits one probe.
    pub fn allow(&self, now_ns: u64) -> bool {
        match self.state.load(Ordering::Acquire) {
            STATE_CLOSED | STATE_HALF_OPEN => true,
            _ => match self.cfg.cooldown_ns {
                Some(cd) if now_ns >= self.opened_at.load(Ordering::Acquire).saturating_add(cd) => {
                    // One winner flips to half-open and probes; racing
                    // losers stay bypassed this invocation.
                    self.state
                        .compare_exchange(
                            STATE_OPEN,
                            STATE_HALF_OPEN,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                }
                _ => false,
            },
        }
    }

    /// Records a successful policy invocation. A half-open probe that
    /// succeeds re-closes (re-arms) the breaker.
    pub fn record_ok(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
        let _ = self.state.compare_exchange(
            STATE_HALF_OPEN,
            STATE_CLOSED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Records a policy fault; returns `true` when this fault trips the
    /// breaker (closed threshold reached, or a half-open probe failing).
    pub fn record_fault(&self, kind: FaultKind, now_ns: u64) -> bool {
        self.by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        let tripped = match self.state.load(Ordering::Acquire) {
            STATE_OPEN => false,
            STATE_HALF_OPEN => {
                self.trip(now_ns);
                true
            }
            _ => {
                let run = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
                if run >= self.cfg.threshold {
                    self.trip(now_ns);
                    true
                } else {
                    false
                }
            }
        };
        if tripped {
            telemetry::metrics().counter("c3_breaker_trips_total").inc();
        }
        if tripped && telemetry::armed() {
            telemetry::emit(
                telemetry::EventKind::BreakerTrip,
                now_ns,
                0,
                self.tag_lock.load(Ordering::Relaxed),
                self.tag_hook.load(Ordering::Relaxed),
                u64::from(self.cfg.threshold),
                kind.index() as u64,
            );
        }
        tripped
    }

    fn trip(&self, now_ns: u64) {
        self.opened_at.store(now_ns, Ordering::Release);
        self.consecutive.store(0, Ordering::Relaxed);
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.state.store(STATE_OPEN, Ordering::Release);
    }

    /// Times the breaker has tripped.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Fault counts in [`FaultKind::ALL`] order.
    pub fn faults_by_kind(&self) -> [u64; 4] {
        [
            self.by_kind[0].load(Ordering::Relaxed),
            self.by_kind[1].load(Ordering::Relaxed),
            self.by_kind[2].load(Ordering::Relaxed),
            self.by_kind[3].load(Ordering::Relaxed),
        ]
    }

    /// Total faults across kinds.
    pub fn total_faults(&self) -> u64 {
        self.faults_by_kind().iter().sum()
    }

    /// True when the breaker is open with no cooldown configured — the
    /// policy is waiting for [`Concord::sweep_breakers`]
    /// (crate::Concord::sweep_breakers) to quarantine it permanently.
    pub fn wants_quarantine(&self) -> bool {
        self.cfg.cooldown_ns.is_none() && self.state() == BreakerState::Open
    }

    /// Renders the fault tally as a quarantine reason.
    pub fn reason(&self) -> String {
        let counts = self.faults_by_kind();
        let mut parts = Vec::new();
        for kind in FaultKind::ALL {
            let n = counts[kind.index()];
            if n > 0 {
                parts.push(format!("{kind}:{n}"));
            }
        }
        format!(
            "breaker tripped after {} consecutive faults ({})",
            self.cfg.threshold,
            parts.join(", ")
        )
    }
}

/// Why and when a policy was quarantined (kept in [`crate::LockRegistry`]).
#[derive(Clone, Debug)]
pub struct QuarantineRecord {
    /// The lock the policy was attached to.
    pub lock: String,
    /// The patched hook.
    pub hook: HookKind,
    /// The policy (patch) name.
    pub policy: String,
    /// Human-readable cause (fault tally or detected hazard).
    pub reason: String,
    /// Timestamp of the quarantine (ns; virtual time under the DES).
    pub at_ns: u64,
    /// Flight recorder: the last [`FLIGHT_RECORDER_EVENTS`] trace records
    /// still resident in the telemetry rings when the policy was pulled —
    /// what the lock was doing right before the quarantine. Empty when the
    /// trace plane was disarmed.
    pub events: Vec<telemetry::TraceEvent>,
}

/// Drains the flight recorder for a quarantine record: the most recent
/// trace records when armed, nothing when disarmed.
pub(crate) fn flight_record() -> Vec<telemetry::TraceEvent> {
    if telemetry::armed() {
        telemetry::snapshot_last(FLIGHT_RECORDER_EVENTS)
    } else {
        Vec::new()
    }
}

/// Containment wrapper for simulated locks: a [`SimPolicy`] that guards
/// an inner policy with a breaker and optional deterministic fault
/// injection through the hook dispatcher ([`crate::policy`]), which
/// charges [`BREAKER_CHECK_NS`] of virtual time per guarded invocation. An
/// open breaker serves fail-safe defaults instead of consulting the inner
/// policy — graceful degradation between the trip and the quarantine
/// sweep (or the cooldown re-arm).
pub struct ContainedPolicy {
    inner: Rc<dyn SimPolicy>,
    dispatch: Dispatch,
    sim: Sim,
}

impl ContainedPolicy {
    /// Wraps `inner` with `breaker`; `injector` optionally schedules
    /// deterministic faults at guarded invocations.
    pub fn new(
        sim: &Sim,
        inner: Rc<dyn SimPolicy>,
        breaker: Arc<Breaker>,
        injector: Option<Arc<FaultInjector>>,
    ) -> Self {
        ContainedPolicy {
            inner,
            dispatch: Dispatch::new(Some(breaker), injector),
            sim: sim.clone(),
        }
    }

    /// Fires one invocation of `hook`, consulting the inner policy through
    /// `decide` only when the breaker admits it and no fault is injected.
    fn guard(&self, hook: HookKind, decide: impl FnOnce() -> Decision) -> Decision {
        let fired = self.dispatch.fire_native(self.sim.now(), || {
            let (d, cost) = decide();
            (u64::from(d), cost)
        });
        (fired.verdict(hook) != 0, self.dispatch.charge(fired))
    }
}

impl SimPolicy for ContainedPolicy {
    fn cmp_node(&self, ctx: &CmpNodeCtx) -> Decision {
        self.guard(HookKind::CmpNode, || self.inner.cmp_node(ctx))
    }

    fn skip_shuffle(&self, ctx: &SkipShuffleCtx) -> Decision {
        self.guard(HookKind::SkipShuffle, || self.inner.skip_shuffle(ctx))
    }

    fn on_event(&self, kind: HookKind, ctx: &LockEventCtx) -> u64 {
        self.guard(kind, || (false, self.inner.on_event(kind, ctx)))
            .1
    }

    fn wants_event(&self, kind: HookKind) -> bool {
        self.inner.wants_event(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::HOOK_CALL_NS;
    use cbpf::fault::FaultPlan;
    use locks::hooks::NodeView;
    use simlocks::policy::FifoPolicy;

    fn view() -> NodeView {
        NodeView {
            tid: 1,
            cpu: 0,
            socket: 0,
            prio: 0,
            cs_hint: 0,
            held_locks: 0,
            wait_start_ns: 0,
        }
    }

    #[test]
    fn fail_safe_defaults_match_vacant_hook_semantics() {
        assert_eq!(fail_safe_default(HookKind::CmpNode), 0);
        assert_eq!(fail_safe_default(HookKind::SkipShuffle), 1);
        assert_eq!(fail_safe_default(HookKind::ScheduleWaiter), 1);
        assert_eq!(fail_safe_default(HookKind::LockAcquired), 0);
    }

    #[test]
    fn breaker_trips_on_consecutive_faults_only() {
        let b = Breaker::new(BreakerConfig {
            threshold: 3,
            cooldown_ns: None,
        });
        assert!(!b.record_fault(FaultKind::Trap, 10));
        assert!(!b.record_fault(FaultKind::Trap, 20));
        b.record_ok(); // Run broken: counter resets.
        assert!(!b.record_fault(FaultKind::Budget, 30));
        assert!(!b.record_fault(FaultKind::Budget, 40));
        assert!(
            b.record_fault(FaultKind::Budget, 50),
            "third in a row trips"
        );
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(60), "no cooldown: stays open");
        assert!(b.wants_quarantine());
        assert_eq!(b.trips(), 1);
        assert_eq!(b.total_faults(), 5);
        assert_eq!(b.faults_by_kind()[FaultKind::Budget.index()], 3);
        assert!(b.reason().contains("budget:3"));
    }

    #[test]
    fn cooldown_half_open_probe_rearms_or_reopens() {
        let b = Breaker::new(BreakerConfig {
            threshold: 1,
            cooldown_ns: Some(100),
        });
        assert!(b.record_fault(FaultKind::Helper, 1_000));
        assert!(!b.allow(1_050), "cooldown not elapsed");
        assert!(b.allow(1_100), "cooldown elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe faults: re-open with a fresh cooldown window.
        assert!(b.record_fault(FaultKind::Helper, 1_110));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(1_150));
        assert!(b.allow(1_210));
        // Probe succeeds: breaker re-arms.
        b.record_ok();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(1_220));
        assert!(!b.wants_quarantine());
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn contained_policy_degrades_then_bypasses() {
        let sim = ksim::SimBuilder::new().build();
        let breaker = Arc::new(Breaker::new(BreakerConfig {
            threshold: 2,
            cooldown_ns: None,
        }));
        let inj = Arc::new(FaultInjector::new(FaultPlan::from_invocation(
            1,
            FaultKind::Trap,
        )));
        let p = ContainedPolicy::new(
            &sim,
            Rc::new(FifoPolicy::new()),
            Arc::clone(&breaker),
            Some(inj),
        );
        let ctx = CmpNodeCtx {
            lock_id: 1,
            shuffler: view(),
            curr: view(),
        };
        // Every invocation faults → fail-safe decision, breaker counts.
        let (d, c) = p.cmp_node(&ctx);
        assert!(!d);
        assert_eq!(c, BREAKER_CHECK_NS + HOOK_CALL_NS);
        assert_eq!(breaker.state(), BreakerState::Closed);
        let _ = p.cmp_node(&ctx);
        assert_eq!(breaker.state(), BreakerState::Open, "threshold 2 tripped");
        // Open: inner never consulted, cost is the bare check.
        let (d, c) = p.cmp_node(&ctx);
        assert!(!d);
        assert_eq!(c, BREAKER_CHECK_NS);
        // Decision hooks degrade to the vacant-slot defaults.
        let (skip, _) = p.skip_shuffle(&SkipShuffleCtx {
            lock_id: 1,
            shuffler: view(),
        });
        assert!(skip, "fail-safe skip_shuffle is FIFO");
    }
}
