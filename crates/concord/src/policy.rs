//! Bytecode-backed policies for real and simulated locks, and the one
//! hook dispatcher both fire through.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cbpf::fault::FaultInjector;
use cbpf::helpers::PolicyEnv;
use cbpf::interp::RunReport;
use cbpf::store::VerifiedProgram;
use cbpf::FaultKind;
use ksim::Sim;
use locks::hooks::{
    CmpNodeCtx, CmpNodeFn, HookKind, LockEventCtx, LockEventFn, ScheduleWaiterCtx,
    ScheduleWaiterFn, SkipShuffleCtx, SkipShuffleFn,
};
use simlocks::policy::{Decision, SimPolicy};
use telemetry::CostModel;

use crate::containment::{fail_safe_default, Breaker};
use crate::env::{RealEnv, SimHookEnv};
use crate::hookctx;

/// Instruction budget per hook invocation (second-layer guard; verified
/// policies are loop-free and cannot come close).
pub(crate) const HOOK_BUDGET: u64 = 1 << 16;

/// Lock identity of a marshalled hook context: `lock_id` is field 0 of
/// every layout (see `hookctx`), so the policy layer can label telemetry
/// without widening its call signatures.
#[inline]
fn ctx_lock_id(ctx: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&ctx[..8]);
    u64::from_le_bytes(b)
}

/// A policy was loaded for one hook but requested as another — surfaced
/// as a typed error instead of a panic inside a lock's hook path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HookMismatch {
    /// The hook the policy was loaded (and verified) for.
    pub bound: HookKind,
    /// The hook shape the caller asked to install it as.
    pub requested: &'static str,
}

impl fmt::Display for HookMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy bound to {:?} cannot be installed as {}",
            self.bound, self.requested
        )
    }
}

impl std::error::Error for HookMismatch {}

/// How one hook fire ended. The DES charge is a function of this alone
/// ([`Dispatch::charge`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fired {
    /// A program ran to completion.
    Ran(RunReport),
    /// A native policy (what [`ContainedPolicy`](crate::ContainedPolicy)
    /// guards) decided `ret` at its own `cost`.
    Native { ret: u64, cost: u64 },
    /// The policy faulted; the hook served its fail-safe default.
    Faulted,
    /// An open breaker bypassed the policy; the hook served its fail-safe
    /// default.
    Bypassed,
}

impl Fired {
    /// The decision the hook site acts on.
    pub(crate) fn verdict(self, hook: HookKind) -> u64 {
        match self {
            Fired::Ran(report) => report.ret,
            Fired::Native { ret, .. } => ret,
            Fired::Faulted | Fired::Bypassed => fail_safe_default(hook),
        }
    }
}

/// The hook-dispatch contract, written once for both clocks: count the
/// invocation, ask the breaker, run under the injector, count and record
/// a fault, serve [`fail_safe_default`], emit the hook span. Real locks
/// ([`BytecodePolicy`]) and the DES ([`SimBytecodePolicy`],
/// [`ContainedPolicy`](crate::ContainedPolicy)) differ only in the
/// [`PolicyEnv`] a fire runs against, and in that the DES charges
/// [`Dispatch::charge`] of the outcome.
#[derive(Default)]
pub(crate) struct Dispatch {
    invocations: AtomicU64,
    faults_by_kind: [AtomicU64; 4],
    breaker: Option<Arc<Breaker>>,
    injector: Option<Arc<FaultInjector>>,
}

impl Dispatch {
    /// A dispatcher guarded by `breaker`, faulted by `injector`.
    pub(crate) fn new(breaker: Option<Arc<Breaker>>, injector: Option<Arc<FaultInjector>>) -> Self {
        Dispatch {
            breaker,
            injector,
            ..Dispatch::default()
        }
    }

    /// Counts a fire and asks the breaker whether the policy may run; the
    /// clock is read only when a breaker is armed.
    #[inline]
    fn admit(&self, now_ns: impl FnOnce() -> u64) -> bool {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.breaker.as_ref().is_none_or(|b| b.allow(now_ns()))
    }

    /// Records a completed run with the breaker (a half-open probe that
    /// completes re-closes it).
    fn ran(&self, fired: Fired) -> Fired {
        if let Some(b) = &self.breaker {
            b.record_ok();
        }
        fired
    }

    /// Counts and records a fault; the hook degrades to the unpatched
    /// lock's decision. A fault is a verifier bug or an injected one.
    fn fault(&self, kind: FaultKind, now_ns: impl FnOnce() -> u64) -> Fired {
        self.faults_by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(b) = &self.breaker {
            b.record_fault(kind, now_ns());
        }
        Fired::Faulted
    }

    /// Fires `prog` on `ctx`. A span is stamped with `site_ns`, the
    /// timestamp the hook site already took (event hooks carry one in
    /// their context), or with the environment's clock at entry.
    ///
    /// Inlined into each side, so a real fire sees `RealEnv` statically:
    /// one shared out-of-line copy cost a real fire about 7 ns.
    #[inline(always)]
    pub(crate) fn fire(
        &self,
        hook: HookKind,
        prog: &VerifiedProgram,
        ctx: &mut [u8],
        env: &dyn PolicyEnv,
        site_ns: Option<u64>,
    ) -> Fired {
        if !self.admit(|| env.ktime_ns()) {
            return Fired::Bypassed;
        }
        let span = telemetry::armed().then(|| {
            let lock_id = ctx_lock_id(ctx);
            crate::env::note_lock(lock_id);
            (site_ns.unwrap_or_else(|| env.ktime_ns()), lock_id)
        });
        match prog
            .prepared()
            .run_with_faults(ctx, env, HOOK_BUDGET, self.injector.as_deref())
        {
            Ok(report) => {
                if let Some((ts_ns, lock_id)) = span {
                    telemetry::emit(
                        telemetry::EventKind::HookSpan,
                        ts_ns,
                        env.cpu_id() as u16,
                        lock_id,
                        u64::from(hook.bit()),
                        report.insns,
                        HOOK_BUDGET - report.insns,
                    );
                }
                self.ran(Fired::Ran(report))
            }
            Err(e) => self.fault(e.fault_kind(), || env.ktime_ns()),
        }
    }

    /// Fires a native policy: the injector's invocation trigger stands in
    /// for a program's faults, and `run` returns the decision and its cost.
    pub(crate) fn fire_native(&self, now_ns: u64, run: impl FnOnce() -> (u64, u64)) -> Fired {
        if !self.admit(|| now_ns) {
            return Fired::Bypassed;
        }
        if let Some(fault) = self
            .injector
            .as_deref()
            .and_then(FaultInjector::invocation_fault)
        {
            return self.fault(fault.fault_kind(), || now_ns);
        }
        let (ret, cost) = run();
        self.ran(Fired::Native { ret, cost })
    }

    /// Virtual time a fire costs the DES, from [`CostModel::SEED`]: the
    /// breaker check when a breaker is armed, plus the fire cost of a
    /// completed run (a native policy's own cost), the call alone for a
    /// fault, and nothing for a bypass.
    pub(crate) fn charge(&self, fired: Fired) -> u64 {
        let model = CostModel::SEED;
        self.breaker.as_ref().map_or(0, |_| model.breaker_ns)
            + match fired {
                Fired::Ran(report) => model.fire_ns(report.insns),
                Fired::Native { cost, .. } => cost,
                Fired::Faulted => model.call_ns,
                Fired::Bypassed => 0,
            }
    }

    fn stats(&self) -> (u64, u64) {
        let faults = self.faults_by_kind().iter().sum();
        (self.invocations.load(Ordering::Relaxed), faults)
    }

    fn faults_by_kind(&self) -> [u64; 4] {
        self.faults_by_kind
            .each_ref()
            .map(|n| n.load(Ordering::Relaxed))
    }
}

/// A verified program bound to a hook, runnable on real-thread locks.
pub struct BytecodePolicy {
    prog: VerifiedProgram,
    hook: HookKind,
    env: Arc<RealEnv>,
    dispatch: Dispatch,
}

impl BytecodePolicy {
    /// Wraps a verified program for `hook`, executing against `env`.
    pub fn new(prog: VerifiedProgram, hook: HookKind, env: Arc<RealEnv>) -> Arc<Self> {
        BytecodePolicy::contained(prog, hook, env, None, None)
    }

    /// Like [`BytecodePolicy::new`] but armed with a circuit `breaker`
    /// and, optionally, a deterministic fault `injector` (test harnesses;
    /// production attaches pass `None`).
    pub fn contained(
        prog: VerifiedProgram,
        hook: HookKind,
        env: Arc<RealEnv>,
        breaker: Option<Arc<Breaker>>,
        injector: Option<Arc<FaultInjector>>,
    ) -> Arc<Self> {
        Arc::new(BytecodePolicy {
            prog,
            hook,
            env,
            dispatch: Dispatch::new(breaker, injector),
        })
    }

    /// The hook this policy was loaded for.
    pub(crate) fn hook(&self) -> HookKind {
        self.hook
    }

    /// `(invocations, runtime faults)` — faults stay zero for verified
    /// programs unless an injector is armed; the counters exist for the
    /// soundness test harness and the breaker plumbing.
    pub fn stats(&self) -> (u64, u64) {
        self.dispatch.stats()
    }

    /// Fault counts in [`cbpf::FaultKind::ALL`] order.
    pub fn faults_by_kind(&self) -> [u64; 4] {
        self.dispatch.faults_by_kind()
    }

    fn run(&self, ctx: &mut [u8], site_ns: Option<u64>) -> u64 {
        self.dispatch
            .fire(self.hook, &self.prog, ctx, &*self.env, site_ns)
            .verdict(self.hook)
    }

    fn expect_hook(&self, kind: HookKind, requested: &'static str) -> Result<(), HookMismatch> {
        if self.hook == kind {
            Ok(())
        } else {
            Err(HookMismatch {
                bound: self.hook,
                requested,
            })
        }
    }

    /// Produces the `cmp_node` closure to install in a hook table.
    ///
    /// # Errors
    ///
    /// Returns [`HookMismatch`] if this policy was loaded for a
    /// different hook.
    pub fn as_cmp_node(self: &Arc<Self>) -> Result<CmpNodeFn, HookMismatch> {
        self.expect_hook(HookKind::CmpNode, "cmp_node")?;
        let p = Arc::clone(self);
        Ok(Arc::new(move |ctx: &CmpNodeCtx| {
            let mut buf = hookctx::cmp_node_bytes(ctx);
            p.run(&mut buf, None) != 0
        }))
    }

    /// Produces the `skip_shuffle` closure.
    ///
    /// # Errors
    ///
    /// Returns [`HookMismatch`] if this policy was loaded for a
    /// different hook.
    pub fn as_skip_shuffle(self: &Arc<Self>) -> Result<SkipShuffleFn, HookMismatch> {
        self.expect_hook(HookKind::SkipShuffle, "skip_shuffle")?;
        let p = Arc::clone(self);
        Ok(Arc::new(move |ctx: &SkipShuffleCtx| {
            let mut buf = hookctx::skip_shuffle_bytes(ctx);
            p.run(&mut buf, None) != 0
        }))
    }

    /// Produces the `schedule_waiter` closure.
    ///
    /// # Errors
    ///
    /// Returns [`HookMismatch`] if this policy was loaded for a
    /// different hook.
    pub fn as_schedule_waiter(self: &Arc<Self>) -> Result<ScheduleWaiterFn, HookMismatch> {
        self.expect_hook(HookKind::ScheduleWaiter, "schedule_waiter")?;
        let p = Arc::clone(self);
        Ok(Arc::new(move |ctx: &ScheduleWaiterCtx| {
            let mut buf = hookctx::schedule_waiter_bytes(ctx);
            p.run(&mut buf, None) != 0
        }))
    }

    /// Produces an event-hook closure.
    ///
    /// # Errors
    ///
    /// Returns [`HookMismatch`] if this policy was loaded for a decision
    /// hook.
    pub fn as_event(self: &Arc<Self>) -> Result<LockEventFn, HookMismatch> {
        if !matches!(
            self.hook,
            HookKind::LockAcquire
                | HookKind::LockContended
                | HookKind::LockAcquired
                | HookKind::LockRelease
        ) {
            return Err(HookMismatch {
                bound: self.hook,
                requested: "an event hook",
            });
        }
        let p = Arc::clone(self);
        Ok(Arc::new(move |ctx: &LockEventCtx| {
            let mut buf = hookctx::event_bytes(ctx);
            p.run(&mut buf, Some(ctx.now_ns));
        }))
    }
}

/// A set of verified programs driving a simulated shuffle lock.
///
/// Each invocation runs the program for real (so maps fill, traces flow)
/// and charges [`Dispatch::charge`] of its outcome to virtual time — the
/// "Concord-ShflLock" series of Fig. 2(b)/(c).
pub struct SimBytecodePolicy {
    sim: Sim,
    cmp: Option<VerifiedProgram>,
    skip: Option<VerifiedProgram>,
    /// The four event hooks' programs, indexed by [`event_slot`].
    events: [Option<VerifiedProgram>; 4],
    rng: Cell<u64>,
    dispatch: Dispatch,
}

impl SimBytecodePolicy {
    /// Creates an empty policy set for `sim`'s machine.
    pub fn new(sim: &Sim) -> Self {
        SimBytecodePolicy {
            sim: sim.clone(),
            cmp: None,
            skip: None,
            events: Default::default(),
            rng: Cell::new(0x243F_6A88_85A3_08D3),
            dispatch: Dispatch::default(),
        }
    }

    /// The simulator this policy set charges.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Installs a verified program on `hook`.
    pub fn install(mut self, hook: HookKind, prog: VerifiedProgram) -> Self {
        match hook {
            HookKind::CmpNode => self.cmp = Some(prog),
            HookKind::SkipShuffle => self.skip = Some(prog),
            // No simulated lock parks, so nothing would run it.
            HookKind::ScheduleWaiter => {}
            k => {
                if let Some(i) = event_slot(k) {
                    self.events[i] = Some(prog);
                }
            }
        }
        self
    }

    /// Arms the policy set with a circuit `breaker` and an optional
    /// deterministic fault `injector`. Every hook invocation then charges
    /// the breaker check of [`CostModel::SEED`] on top of the fire cost,
    /// faults degrade to the fail-safe defaults, and an open breaker
    /// bypasses the programs entirely.
    pub fn with_containment(
        mut self,
        breaker: Arc<Breaker>,
        injector: Option<Arc<FaultInjector>>,
    ) -> Self {
        self.dispatch = Dispatch::new(Some(breaker), injector);
        self
    }

    /// Fault counts in [`cbpf::FaultKind::ALL`] order.
    pub fn faults_by_kind(&self) -> [u64; 4] {
        self.dispatch.faults_by_kind()
    }

    /// `(invocations, faults)` counters.
    pub fn stats(&self) -> (u64, u64) {
        self.dispatch.stats()
    }

    /// Fires `prog` for task `pid` on virtual CPU `cpu`; returns the
    /// verdict and its virtual-time charge.
    fn run(
        &self,
        hook: HookKind,
        prog: &VerifiedProgram,
        ctx: &mut [u8],
        cpu: u32,
        pid: u64,
    ) -> (u64, u64) {
        let env = SimHookEnv {
            cpu,
            pid,
            rng: &self.rng,
            sim: &self.sim,
        };
        let fired = self.dispatch.fire(hook, prog, ctx, &env, None);
        (fired.verdict(hook), self.dispatch.charge(fired))
    }
}

impl SimPolicy for SimBytecodePolicy {
    fn cmp_node(&self, ctx: &CmpNodeCtx) -> Decision {
        match &self.cmp {
            Some(prog) => {
                let mut buf = hookctx::cmp_node_bytes(ctx);
                let (ret, cost) = self.run(
                    HookKind::CmpNode,
                    prog,
                    &mut buf,
                    ctx.shuffler.cpu,
                    ctx.shuffler.tid,
                );
                (ret != 0, cost)
            }
            None => (false, 0),
        }
    }

    fn skip_shuffle(&self, ctx: &SkipShuffleCtx) -> Decision {
        match &self.skip {
            Some(prog) => {
                let mut buf = hookctx::skip_shuffle_bytes(ctx);
                let (ret, cost) = self.run(
                    HookKind::SkipShuffle,
                    prog,
                    &mut buf,
                    ctx.shuffler.cpu,
                    ctx.shuffler.tid,
                );
                (ret != 0, cost)
            }
            // No explicit skip program: shuffle exactly when a cmp_node
            // program is attached; consulting the vacant patched slot still
            // costs an indirect call.
            None => (self.cmp.is_none(), CostModel::SEED.call_ns),
        }
    }

    fn on_event(&self, kind: HookKind, ctx: &LockEventCtx) -> u64 {
        match event_slot(kind).and_then(|i| self.events[i].as_ref()) {
            Some(prog) => {
                let mut buf = hookctx::event_bytes(ctx);
                let (_, cost) = self.run(kind, prog, &mut buf, ctx.cpu, ctx.tid);
                cost
            }
            None => 0,
        }
    }

    fn wants_event(&self, kind: HookKind) -> bool {
        event_slot(kind).is_some_and(|i| self.events[i].is_some())
    }
}

/// Index of an event hook in [`SimBytecodePolicy`]'s program table;
/// `None` for the three decision hooks.
fn event_slot(kind: HookKind) -> Option<usize> {
    match kind {
        HookKind::LockAcquire => Some(0),
        HookKind::LockContended => Some(1),
        HookKind::LockAcquired => Some(2),
        HookKind::LockRelease => Some(3),
        HookKind::CmpNode | HookKind::SkipShuffle | HookKind::ScheduleWaiter => None,
    }
}

/// A patched lock with no user code: its acquire and release functions
/// have been live-patched (one indirection each) and the shuffler
/// consults a patched decision slot, each at a per-entry cost of `.0`
/// virtual ns. The Fig. 2(c) sensitivity ablation sweeps that cost.
pub struct PatchedEntryPolicy(pub u64);

/// The paper's Fig. 2(c) "worst-case scenario when no userspace code is
/// executed": a [`PatchedEntryPolicy`] at [`CostModel::SEED`]'s entry
/// cost. A constant, so it is written as the unit value it used to be.
#[allow(non_upper_case_globals)]
pub const AttachedNoopPolicy: PatchedEntryPolicy = PatchedEntryPolicy(CostModel::SEED.entry_ns);

impl SimPolicy for PatchedEntryPolicy {
    fn cmp_node(&self, _ctx: &CmpNodeCtx) -> Decision {
        (false, self.0)
    }

    fn skip_shuffle(&self, _ctx: &SkipShuffleCtx) -> Decision {
        (true, self.0)
    }

    fn on_event(&self, _kind: HookKind, _ctx: &LockEventCtx) -> u64 {
        self.0
    }

    fn wants_event(&self, kind: HookKind) -> bool {
        // One patched entry point on the acquire path, one on release.
        matches!(kind, HookKind::LockAcquire | HookKind::LockRelease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbpf::insn::{JmpOp, MemSize, Reg};
    use cbpf::program::ProgramBuilder;
    use locks::hooks::NodeView;

    fn view(cpu: u32) -> NodeView {
        NodeView {
            tid: u64::from(cpu) + 100,
            cpu,
            socket: cpu / 10,
            prio: 0,
            cs_hint: 0,
            held_locks: 0,
            wait_start_ns: 0,
        }
    }

    /// cmp_node: return shuffler_socket == curr_socket.
    fn numa_prog() -> VerifiedProgram {
        let layout = hookctx::cmp_node_layout();
        let sh = layout.field("shuffler_socket").unwrap().offset as i16;
        let cu = layout.field("curr_socket").unwrap().offset as i16;
        let mut b = ProgramBuilder::new("numa");
        b.load(MemSize::W, Reg::R2, Reg::R1, sh);
        b.load(MemSize::W, Reg::R3, Reg::R1, cu);
        b.mov_imm(Reg::R0, 0);
        b.jmp(JmpOp::Ne, Reg::R2, Reg::R3, "out");
        b.mov_imm(Reg::R0, 1);
        b.label("out");
        b.exit();
        VerifiedProgram::new(
            b.build().unwrap(),
            layout,
            &hookctx::rules_for(HookKind::CmpNode),
        )
        .unwrap()
    }

    #[test]
    fn real_policy_decides_from_ctx() {
        let policy = BytecodePolicy::new(numa_prog(), HookKind::CmpNode, Arc::new(RealEnv::new()));
        let f = policy.as_cmp_node().unwrap();
        let same = CmpNodeCtx {
            lock_id: 1,
            shuffler: view(12),
            curr: view(15),
        };
        let cross = CmpNodeCtx {
            lock_id: 1,
            shuffler: view(12),
            curr: view(55),
        };
        assert!(f(&same));
        assert!(!f(&cross));
        let (inv, faults) = policy.stats();
        assert_eq!(inv, 2);
        assert_eq!(faults, 0);
    }

    #[test]
    fn wrong_hook_binding_is_a_typed_error() {
        let policy = BytecodePolicy::new(numa_prog(), HookKind::CmpNode, Arc::new(RealEnv::new()));
        let err = match policy.as_skip_shuffle() {
            Err(e) => e,
            Ok(_) => panic!("cmp_node policy must not install as skip_shuffle"),
        };
        assert_eq!(err.bound, HookKind::CmpNode);
        assert_eq!(err.requested, "skip_shuffle");
        assert!(err.to_string().contains("bound to"));
        assert!(policy.as_event().is_err(), "decision hook is not an event");
        assert!(policy.as_cmp_node().is_ok());
    }

    #[test]
    fn injected_fault_degrades_to_fail_safe_and_trips_breaker() {
        use crate::containment::{BreakerConfig, BreakerState};
        use cbpf::fault::{FaultInjector, FaultPlan};
        use cbpf::FaultKind;

        let breaker = Arc::new(Breaker::new(BreakerConfig {
            threshold: 2,
            cooldown_ns: None,
        }));
        // skip_shuffle program returning 0 (= shuffle); faults must flip
        // the decision to the fail-safe 1 (= skip, plain FIFO).
        let layout = hookctx::skip_shuffle_layout();
        let mut b = ProgramBuilder::new("skip0");
        b.mov_imm(Reg::R0, 0);
        b.exit();
        let prog = VerifiedProgram::new(
            b.build().unwrap(),
            layout,
            &hookctx::rules_for(HookKind::SkipShuffle),
        )
        .unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::from_invocation(
            2,
            FaultKind::Budget,
        )));
        let policy = BytecodePolicy::contained(
            prog,
            HookKind::SkipShuffle,
            Arc::new(RealEnv::new()),
            Some(Arc::clone(&breaker)),
            Some(inj),
        );
        let f = policy.as_skip_shuffle().unwrap();
        let ctx = SkipShuffleCtx {
            lock_id: 1,
            shuffler: view(0),
        };
        assert!(!f(&ctx), "healthy program says shuffle");
        assert!(f(&ctx), "fault 1 degrades to fail-safe skip");
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(f(&ctx), "fault 2 trips the breaker");
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(f(&ctx), "open breaker bypasses the program");
        let (inv, faults) = policy.stats();
        assert_eq!(inv, 4);
        assert_eq!(faults, 2, "bypassed invocation does not run the program");
        assert_eq!(policy.faults_by_kind()[FaultKind::Budget.index()], 2);
    }

    #[test]
    fn sim_policy_charges_cost() {
        let sim = ksim::SimBuilder::new().build();
        let p = SimBytecodePolicy::new(&sim).install(HookKind::CmpNode, numa_prog());
        let ctx = CmpNodeCtx {
            lock_id: 1,
            shuffler: view(12),
            curr: view(15),
        };
        let (decision, cost) = p.cmp_node(&ctx);
        assert!(decision);
        assert!(
            cost > CostModel::SEED.call_ns,
            "instruction cost must be charged"
        );
        // skip_shuffle with cmp attached but no skip program: shuffle.
        let (skip, sc) = p.skip_shuffle(&SkipShuffleCtx {
            lock_id: 1,
            shuffler: view(12),
        });
        assert!(!skip);
        assert_eq!(sc, CostModel::SEED.call_ns);
        assert_eq!(p.stats().1, 0);
    }

    #[test]
    fn noop_policy_costs_trampoline_only() {
        let p = AttachedNoopPolicy;
        let (d, c) = p.cmp_node(&CmpNodeCtx {
            lock_id: 1,
            shuffler: view(0),
            curr: view(1),
        });
        assert!(!d);
        assert_eq!(c, CostModel::SEED.entry_ns);
        // One patched entry on the acquire path, one on release.
        assert!(p.wants_event(HookKind::LockAcquire));
        assert!(p.wants_event(HookKind::LockRelease));
        assert!(!p.wants_event(HookKind::LockAcquired));
        assert!(!p.wants_event(HookKind::LockContended));
    }

    #[test]
    fn unattached_hooks_cost_nothing() {
        let sim = ksim::SimBuilder::new().build();
        let p = SimBytecodePolicy::new(&sim);
        let (d, c) = p.cmp_node(&CmpNodeCtx {
            lock_id: 1,
            shuffler: view(0),
            curr: view(1),
        });
        assert!(!d);
        assert_eq!(c, 0);
        assert!(!p.wants_event(HookKind::LockAcquired));
        assert_eq!(
            p.on_event(
                HookKind::LockAcquired,
                &LockEventCtx {
                    lock_id: 1,
                    tid: 1,
                    cpu: 0,
                    socket: 0,
                    now_ns: 0,
                    owner_tid: 0
                }
            ),
            0
        );
    }
}
