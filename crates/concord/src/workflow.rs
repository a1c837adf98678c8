//! The Concord facade: the Fig. 1 workflow end to end.
//!
//! `specify → compile → verify → notify → store → patch` — plus the
//! reverse direction (detach/revert) and the simulated-machine variants
//! used by the figure benchmarks.

use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use cbpf::asm::assemble_named;
use cbpf::error::{AsmError, VerifyError};
use cbpf::fault::FaultInjector;
use cbpf::helpers::PolicyEnv;
use cbpf::map::Map;
use cbpf::program::Program;
use cbpf::store::{ObjectStore, VerifiedProgram};
use ksim::Sim;
use livepatch::{Patch, PatchError, PatchHandle, PatchManager, ShadowStore};
use locks::hooks::{HookKind, LockEventFn, ShflHooks};
use parking_lot::Mutex;
use simlocks::policy::SimPolicy;
use simlocks::SimShflLock;

use crate::containment::{flight_record, Breaker, BreakerConfig, QuarantineRecord};
use crate::env::RealEnv;
use crate::hookctx;
use crate::policy::{BytecodePolicy, HookMismatch, SimBytecodePolicy};
use crate::registry::LockRegistry;

/// Errors surfaced to the user — the "notify user" arrow of Fig. 1.
#[derive(Debug)]
pub enum ConcordError {
    /// The policy source failed to assemble.
    Asm(AsmError),
    /// The verifier rejected the policy.
    Verify(VerifyError),
    /// No lock registered under this name.
    UnknownLock(String),
    /// The target lock kind does not expose hooks.
    NotHookable(String),
    /// A loaded policy was requested as the wrong hook shape.
    HookMismatch(HookMismatch),
    /// Patch stack violation on detach.
    Patch(PatchError),
}

impl fmt::Display for ConcordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcordError::Asm(e) => write!(f, "assembly error: {e}"),
            ConcordError::Verify(e) => write!(f, "verifier rejected policy: {e}"),
            ConcordError::UnknownLock(n) => write!(f, "no lock named `{n}`"),
            ConcordError::NotHookable(n) => write!(f, "lock `{n}` does not expose hooks"),
            ConcordError::HookMismatch(e) => write!(f, "hook mismatch: {e}"),
            ConcordError::Patch(e) => write!(f, "patch error: {e}"),
        }
    }
}

impl std::error::Error for ConcordError {}

impl From<HookMismatch> for ConcordError {
    fn from(e: HookMismatch) -> Self {
        ConcordError::HookMismatch(e)
    }
}

impl From<AsmError> for ConcordError {
    fn from(e: AsmError) -> Self {
        ConcordError::Asm(e)
    }
}

impl From<VerifyError> for ConcordError {
    fn from(e: VerifyError) -> Self {
        ConcordError::Verify(e)
    }
}

impl From<PatchError> for ConcordError {
    fn from(e: PatchError) -> Self {
        ConcordError::Patch(e)
    }
}

/// Where a policy's instructions come from.
pub enum PolicySource {
    /// Assembly text.
    Asm(String),
    /// Restricted C-style source (the paper's §4.2 authoring surface);
    /// context fields appear as bare identifiers, helpers as calls.
    CStyle(String),
    /// A pre-built program (the builder API / prebuilt library).
    Program(Program),
}

/// A user-specified policy: Fig. 1 step 1.
pub struct PolicySpec {
    /// Name (object-store path component).
    pub name: String,
    /// The Table 1 hook this policy targets.
    pub hook: HookKind,
    /// Instruction source.
    pub source: PolicySource,
    /// Maps the policy references (`ldmap` by name for assembly sources).
    pub maps: Vec<Arc<Map>>,
}

impl PolicySpec {
    /// Convenience constructor from assembly text.
    pub fn from_asm(name: &str, hook: HookKind, asm: &str) -> Self {
        PolicySpec {
            name: name.to_string(),
            hook,
            source: PolicySource::Asm(asm.to_string()),
            maps: Vec::new(),
        }
    }

    /// Convenience constructor from C-style source.
    pub fn from_c(name: &str, hook: HookKind, src: &str) -> Self {
        PolicySpec {
            name: name.to_string(),
            hook,
            source: PolicySource::CStyle(src.to_string()),
            maps: Vec::new(),
        }
    }

    /// Convenience constructor from a built program.
    pub fn from_program(name: &str, hook: HookKind, prog: Program) -> Self {
        PolicySpec {
            name: name.to_string(),
            hook,
            source: PolicySource::Program(prog),
            maps: Vec::new(),
        }
    }
}

/// A verified, stored policy ready to attach: the product of Fig. 1
/// steps 2–5.
#[derive(Clone)]
pub struct LoadedPolicy {
    /// Policy name.
    pub name: String,
    /// Bound hook.
    pub hook: HookKind,
    /// The verified program.
    pub prog: VerifiedProgram,
}

/// Handle for detaching an attached policy.
#[derive(Debug)]
pub struct AttachHandle {
    pub(crate) patch: PatchHandle,
    /// Target lock name.
    pub lock: String,
    /// Patched hook.
    pub hook: HookKind,
}

/// A contained attach the framework still tracks: the breaker decides
/// whether the quarantine sweep pulls its patch.
struct ContainedAttach {
    patch: PatchHandle,
    lock: String,
    hook: HookKind,
    policy: String,
    breaker: Arc<Breaker>,
}

/// The framework object: registry + verifier + object store + livepatch.
pub struct Concord {
    registry: LockRegistry,
    store: ObjectStore,
    patches: PatchManager,
    shadows: ShadowStore,
    env: Arc<RealEnv>,
    contained: Mutex<Vec<ContainedAttach>>,
}

impl Default for Concord {
    fn default() -> Self {
        Concord::new()
    }
}

impl Concord {
    /// Creates a framework instance.
    pub fn new() -> Self {
        Concord {
            registry: LockRegistry::new(),
            store: ObjectStore::new(),
            patches: PatchManager::new(),
            shadows: ShadowStore::new(),
            env: Arc::new(RealEnv::new()),
            contained: Mutex::new(Vec::new()),
        }
    }

    /// The lock registry.
    pub fn registry(&self) -> &LockRegistry {
        &self.registry
    }

    /// The pinned-object store (Fig. 1 step 5's "file system").
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The policy execution environment for real locks.
    pub fn env(&self) -> &Arc<RealEnv> {
        &self.env
    }

    /// The shadow-variable store (livepatch shadow data, §4.2).
    pub fn shadows(&self) -> &ShadowStore {
        &self.shadows
    }

    /// Compiles, verifies and pins a policy (Fig. 1 steps 1–5).
    ///
    /// # Errors
    ///
    /// Returns [`ConcordError::Asm`] or [`ConcordError::Verify`] — the
    /// "notify user" outcome.
    pub fn load(&self, spec: PolicySpec) -> Result<LoadedPolicy, ConcordError> {
        let layout = hookctx::layout_for(spec.hook);
        let program = match spec.source {
            PolicySource::Asm(src) => assemble_named(&spec.name, &src, &spec.maps)?,
            PolicySource::CStyle(src) => cbpf::dsl::compile(&spec.name, &src, layout)?,
            PolicySource::Program(p) => {
                if spec.maps.is_empty() {
                    p
                } else {
                    Program::new(
                        p.name().to_string(),
                        p.insns().to_vec(),
                        p.maps().iter().cloned().chain(spec.maps).collect(),
                    )
                }
            }
        };
        let rules = hookctx::rules_for(spec.hook);
        let prog = VerifiedProgram::new(program, layout, &rules)?;
        let path = format!("policies/{}/{}", spec.name, spec.hook.name());
        self.store.pin_program(&path, prog.clone());
        for map in prog.program().maps() {
            self.store.pin_map(
                &format!("maps/{}/{}", spec.name, map.def().name),
                Arc::clone(map),
            );
        }
        Ok(LoadedPolicy {
            name: spec.name,
            hook: spec.hook,
            prog,
        })
    }

    fn hooks_of(&self, lock: &str) -> Result<Arc<ShflHooks>, ConcordError> {
        let handle = self
            .registry
            .get(lock)
            .ok_or_else(|| ConcordError::UnknownLock(lock.to_string()))?;
        handle
            .hooks()
            .cloned()
            .ok_or_else(|| ConcordError::NotHookable(lock.to_string()))
    }

    /// Attaches a loaded policy to a lock's hook via livepatch (Fig. 1
    /// step 6).
    ///
    /// # Errors
    ///
    /// Returns [`ConcordError::UnknownLock`] / [`ConcordError::NotHookable`].
    pub fn attach(&self, lock: &str, policy: &LoadedPolicy) -> Result<AttachHandle, ConcordError> {
        let bytecode = BytecodePolicy::new(policy.prog.clone(), policy.hook, Arc::clone(&self.env));
        self.attach_bytecode(lock, policy.hook, &bytecode)
    }

    /// Attaches a policy under a circuit breaker configured by `cfg`:
    /// runtime faults degrade to the lock's default decision, and
    /// `cfg.threshold` consecutive faults trip the breaker. With
    /// `cfg.cooldown_ns: None`, a tripped policy waits for
    /// [`Concord::sweep_breakers`] to quarantine it; with a cooldown, it
    /// re-probes (half-open) after the cooldown elapses.
    ///
    /// `injector`, when given, is a deterministic fault injector armed on
    /// the policy (the containment tests' entry point).
    ///
    /// Returns the attach handle plus the breaker for observation.
    ///
    /// # Errors
    ///
    /// See [`Concord::attach`].
    pub fn attach_contained(
        &self,
        lock: &str,
        policy: &LoadedPolicy,
        cfg: BreakerConfig,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<(AttachHandle, Arc<Breaker>), ConcordError> {
        let breaker = Arc::new(Breaker::new(cfg));
        breaker.set_tag(telemetry::event::fnv64(lock), u64::from(policy.hook.bit()));
        let bytecode = BytecodePolicy::contained(
            policy.prog.clone(),
            policy.hook,
            Arc::clone(&self.env),
            Some(Arc::clone(&breaker)),
            injector,
        );
        let handle = self.attach_bytecode(lock, policy.hook, &bytecode)?;
        self.contained.lock().push(ContainedAttach {
            patch: handle.patch,
            lock: lock.to_string(),
            hook: policy.hook,
            policy: policy.name.clone(),
            breaker: Arc::clone(&breaker),
        });
        Ok((handle, breaker))
    }

    fn attach_bytecode(
        &self,
        lock: &str,
        hook: HookKind,
        bytecode: &Arc<BytecodePolicy>,
    ) -> Result<AttachHandle, ConcordError> {
        let patch = self.build_bytecode_patch(lock, hook, bytecode, None)?;
        Ok(self.finish_attach(lock, hook, patch))
    }

    /// Builds (without applying) the livepatch that installs `bytecode`
    /// on `lock`'s `hook`. `name_prefix` lets a rollout tag the patch
    /// with its generation so crash recovery can probe it by name.
    ///
    /// This is the fallible half of an attach; [`Concord::attach_many`]
    /// and the rollout controller feed a sequence of these into
    /// [`PatchManager::apply_transaction`] so a mid-sequence error
    /// unwinds every lock already patched.
    pub(crate) fn build_bytecode_patch(
        &self,
        lock: &str,
        hook: HookKind,
        bytecode: &Arc<BytecodePolicy>,
        name_prefix: Option<&str>,
    ) -> Result<Patch, ConcordError> {
        let hooks = self.hooks_of(lock)?;
        let name = match name_prefix {
            Some(p) => format!("{p}{lock}/{}", hook.name()),
            None => format!("{lock}/{}", hook.name()),
        };
        let mut patch = Patch::new(name);
        match hook {
            HookKind::CmpNode => {
                let point = Arc::clone(&hooks.cmp_node);
                let old = point.get().clone();
                patch.swap(&point, Some(bytecode.as_cmp_node()?), old);
            }
            HookKind::SkipShuffle => {
                let point = Arc::clone(&hooks.skip_shuffle);
                let old = point.get().clone();
                patch.swap(&point, Some(bytecode.as_skip_shuffle()?), old);
            }
            HookKind::ScheduleWaiter => {
                let point = Arc::clone(&hooks.schedule_waiter);
                let old = point.get().clone();
                patch.swap(&point, Some(bytecode.as_schedule_waiter()?), old);
            }
            kind => chain_event(&mut patch, &hooks, kind, bytecode.as_event()?)?,
        }
        self.add_active_flag_ops(&mut patch, hooks, hook);
        Ok(patch)
    }

    /// Attaches `policy` to every lock in `locks` as one all-or-nothing
    /// livepatch transaction: if any lock is unknown, un-hookable, or
    /// hook-mismatched, the locks already patched by this call are
    /// unwound and nothing changes.
    ///
    /// # Errors
    ///
    /// The first per-lock error, after unwinding.
    pub fn attach_many(
        &self,
        locks: &[&str],
        policy: &LoadedPolicy,
    ) -> Result<Vec<AttachHandle>, ConcordError> {
        let bytecode = BytecodePolicy::new(policy.prog.clone(), policy.hook, Arc::clone(&self.env));
        let handles = self.patches.apply_transaction(
            locks
                .iter()
                .map(|lock| self.build_bytecode_patch(lock, policy.hook, &bytecode, None)),
        )?;
        Ok(handles
            .into_iter()
            .zip(locks)
            .map(|(patch, lock)| AttachHandle {
                patch,
                lock: lock.to_string(),
                hook: policy.hook,
            })
            .collect())
    }

    /// [`Concord::attach_many`] over every registered lock in `class`.
    ///
    /// # Errors
    ///
    /// See [`Concord::attach_many`]; also [`ConcordError::UnknownLock`]
    /// when the class is empty.
    pub fn attach_class(
        &self,
        class: &str,
        policy: &LoadedPolicy,
    ) -> Result<Vec<AttachHandle>, ConcordError> {
        let names = self.registry.names_in_class(class);
        if names.is_empty() {
            return Err(ConcordError::UnknownLock(format!("class {class}")));
        }
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        self.attach_many(&refs, policy)
    }

    /// The underlying patch manager (rollout controller / recovery use
    /// this to run transactions and probe live patch names).
    pub(crate) fn patch_manager(&self) -> &PatchManager {
        &self.patches
    }

    /// Attaches a native event closure.
    ///
    /// # Errors
    ///
    /// See [`Concord::attach`]; also fails on a decision-hook `kind`.
    pub fn attach_native_event(
        &self,
        lock: &str,
        kind: HookKind,
        f: LockEventFn,
    ) -> Result<AttachHandle, ConcordError> {
        let hooks = self.hooks_of(lock)?;
        let mut patch = Patch::new(format!("{lock}/{}", kind.name()));
        chain_event(&mut patch, &hooks, kind, f)?;
        self.add_active_flag_ops(&mut patch, hooks, kind);
        Ok(self.finish_attach(lock, kind, patch))
    }

    fn add_active_flag_ops(&self, patch: &mut Patch, hooks: Arc<ShflHooks>, kind: HookKind) {
        let was_active = hooks.is_active(kind);
        let h1 = Arc::clone(&hooks);
        patch.action(
            move || h1.set_active(kind, true),
            move || hooks.set_active(kind, was_active),
        );
    }

    fn finish_attach(&self, lock: &str, kind: HookKind, patch: Patch) -> AttachHandle {
        let handle = self.patches.apply(patch);
        AttachHandle {
            patch: handle,
            lock: lock.to_string(),
            hook: kind,
        }
    }

    /// Reverts an attached policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConcordError::Patch`] on a stack-order violation (patches
    /// revert LIFO, like kernel livepatch).
    pub fn detach(&self, handle: AttachHandle) -> Result<(), ConcordError> {
        self.patches.revert(handle.patch)?;
        self.contained.lock().retain(|c| c.patch != handle.patch);
        Ok(())
    }

    /// Quarantines tripped breakers: every contained attach whose breaker
    /// is open with no cooldown is detached via a livepatch revert
    /// transaction (unrelated patches stacked above it survive), and a
    /// [`QuarantineRecord`] lands in the registry. Returns the records for
    /// the policies pulled by this sweep.
    ///
    /// Hook closures run inside lock acquisitions and cannot detach
    /// themselves; the sweep is the deferred half of the breaker, called
    /// by the control plane.
    pub fn sweep_breakers(&self) -> Vec<QuarantineRecord> {
        let tripped: Vec<ContainedAttach> = {
            let mut tracked = self.contained.lock();
            let mut tripped = Vec::new();
            tracked.retain_mut(|c| {
                if c.breaker.wants_quarantine() {
                    tripped.push(ContainedAttach {
                        patch: c.patch,
                        lock: std::mem::take(&mut c.lock),
                        hook: c.hook,
                        policy: std::mem::take(&mut c.policy),
                        breaker: Arc::clone(&c.breaker),
                    });
                    false
                } else {
                    true
                }
            });
            tripped
        };
        let mut records = Vec::new();
        for entry in tripped {
            // Already reverted by hand → nothing to pull, no record.
            if self.patches.revert_transaction(entry.patch).is_err() {
                continue;
            }
            records.push(self.file_quarantine(
                QuarantineRecord {
                    lock: entry.lock,
                    hook: entry.hook,
                    policy: entry.policy,
                    reason: entry.breaker.reason(),
                    at_ns: self.env.ktime_ns(),
                    events: Vec::new(),
                },
                entry.breaker.total_faults(),
            ));
        }
        records
    }

    /// Counts and emits a quarantine whose policy is already pulled, fills
    /// in `record`'s flight record (which ends with that emit) and files
    /// it in the registry. `faults` is the emitted record's fault count.
    fn file_quarantine(&self, mut record: QuarantineRecord, faults: u64) -> QuarantineRecord {
        telemetry::metrics().counter("c3_quarantines_total").inc();
        telemetry::emit(
            telemetry::EventKind::Quarantine,
            record.at_ns,
            0,
            telemetry::event::fnv64(&record.lock),
            u64::from(record.hook.bit()),
            faults,
            0,
        );
        record.events = flight_record();
        self.registry.record_quarantine(record.clone());
        record
    }

    /// Names of live patches, bottom to top.
    pub fn live_patches(&self) -> Vec<String> {
        self.patches.live()
    }

    /// Flips BRAVO reader-bias on a registered lock — the lock-switching
    /// use case of §3.1.1 (neutral rwlock ⇄ distributed readers).
    ///
    /// # Errors
    ///
    /// Returns [`ConcordError::UnknownLock`] / [`ConcordError::NotHookable`].
    pub fn switch_bravo_bias(&self, lock: &str, enabled: bool) -> Result<(), ConcordError> {
        match self.registry.get(lock) {
            Some(crate::registry::LockHandle::Bravo(b)) => {
                b.set_bias_enabled(enabled);
                Ok(())
            }
            Some(_) => Err(ConcordError::NotHookable(lock.to_string())),
            None => Err(ConcordError::UnknownLock(lock.to_string())),
        }
    }

    /// Builds a simulated-machine policy set from loaded policies.
    pub fn make_sim_policy(&self, sim: &Sim, loaded: &[&LoadedPolicy]) -> SimBytecodePolicy {
        let mut p = SimBytecodePolicy::new(sim);
        for l in loaded {
            p = p.install(l.hook, l.prog.clone());
        }
        p
    }

    /// Attaches a policy set to a simulated lock (the sim analog of the
    /// livepatch step; the simulator is single-threaded, so the swap is a
    /// plain replace).
    pub fn attach_sim(&self, lock: &SimShflLock, policy: Rc<dyn SimPolicy>) {
        lock.set_policy(policy);
    }

    /// Restores a simulated lock to its unpatched FIFO behavior.
    pub fn detach_sim(&self, lock: &SimShflLock) {
        lock.set_policy(Rc::new(simlocks::FifoPolicy::new()));
    }

    /// The sim analog of a quarantine: restores the lock to FIFO and
    /// records why. `at_ns` is the virtual time of the decision.
    pub fn quarantine_sim(
        &self,
        lock: &SimShflLock,
        name: &str,
        hook: HookKind,
        policy: &str,
        reason: String,
        at_ns: u64,
    ) -> QuarantineRecord {
        self.detach_sim(lock);
        self.file_quarantine(
            QuarantineRecord {
                lock: name.to_string(),
                hook,
                policy: policy.to_string(),
                reason,
                at_ns,
                events: Vec::new(),
            },
            0,
        )
    }
}

/// Adds to `patch` the swap that chains `f` onto `hooks`' event hook
/// `kind`. Event hooks are observers with no return value, so they chain
/// (tracepoint-style): the previous subscriber keeps running ahead of the
/// new one. Decision hooks stay replace-only — there is one decision
/// maker. Reverting restores the previous chain.
fn chain_event(
    patch: &mut Patch,
    hooks: &ShflHooks,
    kind: HookKind,
    f: LockEventFn,
) -> Result<(), ConcordError> {
    let point = match kind {
        HookKind::LockAcquire => &hooks.lock_acquire,
        HookKind::LockContended => &hooks.lock_contended,
        HookKind::LockAcquired => &hooks.lock_acquired,
        HookKind::LockRelease => &hooks.lock_release,
        _ => {
            return Err(ConcordError::NotHookable(format!(
                "{} is not an event hook",
                kind.name()
            )))
        }
    };
    let old = point.get().clone();
    let installed: LockEventFn = match &old {
        Some(prev) => {
            let prev = Arc::clone(prev);
            Arc::new(move |ctx| {
                prev(ctx);
                f(ctx);
            })
        }
        None => f,
    };
    patch.swap(point, Some(installed), old);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use locks::{RawLock, ShflLock};

    fn trivial_spec(name: &str, hook: HookKind, ret: i32) -> PolicySpec {
        PolicySpec::from_asm(name, hook, &format!("mov r0, {ret}\nexit"))
    }

    #[test]
    fn load_verifies_and_pins() {
        let c = Concord::new();
        let loaded = c.load(trivial_spec("p1", HookKind::CmpNode, 0)).unwrap();
        assert_eq!(loaded.hook, HookKind::CmpNode);
        assert!(c.store().get_program("policies/p1/cmp_node").is_some());
    }

    #[test]
    fn load_rejects_bad_asm_and_unsafe_programs() {
        let c = Concord::new();
        let bad_asm = PolicySpec::from_asm("x", HookKind::CmpNode, "bogus r0");
        assert!(matches!(c.load(bad_asm), Err(ConcordError::Asm(_))));
        // Loop: rejected by the verifier.
        let looping =
            PolicySpec::from_asm("y", HookKind::CmpNode, "start:\nmov r0, 0\nja start\nexit");
        assert!(matches!(c.load(looping), Err(ConcordError::Verify(_))));
        // trace_printk is banned in decision hooks.
        let tracing = PolicySpec::from_asm(
            "z",
            HookKind::CmpNode,
            "stb [r10-1], 65\nmov r1, r10\nadd r1, -1\nmov r2, 1\ncall trace_printk\nexit",
        );
        assert!(matches!(c.load(tracing), Err(ConcordError::Verify(_))));
        // …but allowed in profiling hooks.
        let tracing_ok = PolicySpec::from_asm(
            "w",
            HookKind::LockAcquired,
            "stb [r10-1], 65\nmov r1, r10\nadd r1, -1\nmov r2, 1\ncall trace_printk\nexit",
        );
        assert!(c.load(tracing_ok).is_ok());
    }

    #[test]
    fn attach_detach_roundtrip() {
        let c = Concord::new();
        let lock = Arc::new(ShflLock::new());
        c.registry().register_shfl("l", Arc::clone(&lock));
        assert!(!lock.hooks().is_active(HookKind::CmpNode));

        let loaded = c.load(trivial_spec("p", HookKind::CmpNode, 1)).unwrap();
        let h = c.attach("l", &loaded).unwrap();
        assert!(lock.hooks().is_active(HookKind::CmpNode));
        assert_eq!(c.live_patches(), vec!["l/cmp_node"]);
        {
            let _g = lock.lock();
        }
        c.detach(h).unwrap();
        assert!(!lock.hooks().is_active(HookKind::CmpNode));
        assert!(c.live_patches().is_empty());
    }

    #[test]
    fn attach_unknown_lock_fails() {
        let c = Concord::new();
        let loaded = c.load(trivial_spec("p", HookKind::CmpNode, 1)).unwrap();
        assert!(matches!(
            c.attach("ghost", &loaded),
            Err(ConcordError::UnknownLock(_))
        ));
    }

    #[test]
    fn detach_out_of_order_is_rejected() {
        let c = Concord::new();
        let lock = Arc::new(ShflLock::new());
        c.registry().register_shfl("l", lock);
        let p1 = c.load(trivial_spec("p1", HookKind::CmpNode, 1)).unwrap();
        let p2 = c
            .load(trivial_spec("p2", HookKind::LockAcquired, 0))
            .unwrap();
        let h1 = c.attach("l", &p1).unwrap();
        let h2 = c.attach("l", &p2).unwrap();
        assert!(matches!(c.detach(h1), Err(ConcordError::Patch(_))));
        // LIFO order works.
        let h1 = AttachHandle {
            patch: h2.patch,
            lock: h2.lock,
            hook: h2.hook,
        };
        c.detach(h1).unwrap();
    }

    #[test]
    fn contained_attach_sweeps_tripped_breaker_into_quarantine() {
        use crate::containment::BreakerState;
        use cbpf::fault::{FaultInjector, FaultPlan};
        use cbpf::FaultKind;

        let c = Concord::new();
        let lock = Arc::new(ShflLock::new());
        c.registry().register_shfl("l", Arc::clone(&lock));
        // A profiling patch below, the contained policy above, another
        // event patch on top: the sweep must pull only the middle one.
        let below = c
            .load(trivial_spec("below", HookKind::LockAcquire, 0))
            .unwrap();
        let _hb = c.attach("l", &below).unwrap();
        let loaded = c.load(trivial_spec("p", HookKind::CmpNode, 1)).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::from_invocation(
            1,
            FaultKind::Trap,
        )));
        let (_h, breaker) = c
            .attach_contained(
                "l",
                &loaded,
                BreakerConfig {
                    threshold: 2,
                    cooldown_ns: None,
                },
                Some(inj),
            )
            .unwrap();
        let above = c
            .load(trivial_spec("above", HookKind::LockRelease, 0))
            .unwrap();
        let _ha = c.attach("l", &above).unwrap();
        assert_eq!(
            c.live_patches(),
            vec!["l/lock_acquire", "l/cmp_node", "l/lock_release"]
        );

        assert!(c.sweep_breakers().is_empty(), "nothing tripped yet");
        // Drive the installed cmp_node slot exactly as a shuffle phase
        // would (the phase itself only runs when >=2 waiters queue behind
        // the head inside its bounded rounds — a race, so we call the hook
        // table directly for determinism). Every invocation faults; the
        // decision degrades to the fail-safe `false` and the breaker trips
        // at the threshold.
        let view = locks::hooks::NodeView {
            tid: 1,
            cpu: 0,
            socket: 0,
            prio: 0,
            cs_hint: 0,
            held_locks: 0,
            wait_start_ns: 0,
        };
        let ctx = locks::hooks::CmpNodeCtx {
            lock_id: lock.id(),
            shuffler: view,
            curr: view,
        };
        for _ in 0..3 {
            assert!(!lock.hooks().eval_cmp_node(&ctx), "fail-safe decision");
        }
        assert_eq!(breaker.state(), BreakerState::Open);

        let records = c.sweep_breakers();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].lock, "l");
        assert_eq!(records[0].policy, "p");
        assert!(records[0].reason.contains("trap"));
        assert_eq!(
            c.live_patches(),
            vec!["l/lock_acquire", "l/lock_release"],
            "quarantine pulled only the faulting policy"
        );
        assert!(!lock.hooks().is_active(HookKind::CmpNode));
        assert_eq!(c.registry().quarantines("l").len(), 1);
        assert!(c.sweep_breakers().is_empty(), "sweep is idempotent");
    }

    #[test]
    fn bravo_switching() {
        use locks::{Bravo, NeutralRwLock};
        let c = Concord::new();
        let b = Arc::new(Bravo::new(NeutralRwLock::new()));
        c.registry().register_bravo("rw", Arc::clone(&b));
        c.switch_bravo_bias("rw", false).unwrap();
        assert!(!b.is_biased());
        c.switch_bravo_bias("rw", true).unwrap();
        assert!(matches!(
            c.switch_bravo_bias("none", true),
            Err(ConcordError::UnknownLock(_))
        ));
        // A hookable lock is not a BRAVO lock.
        c.registry().register_shfl("s", Arc::new(ShflLock::new()));
        assert!(matches!(
            c.switch_bravo_bias("s", true),
            Err(ConcordError::NotHookable(_))
        ));
    }
}
