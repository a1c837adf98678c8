//! The Concord facade: the Fig. 1 workflow end to end.
//!
//! `specify → compile → verify → notify → store → patch` — plus the
//! reverse direction (detach/revert) and the simulated-machine variants
//! used by the figure benchmarks.

use std::convert::Infallible;
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
use livepatch::{LocalOp, OpBound, Patch, PatchError, PatchHandle, PatchManager, PatchPoint};
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

    /// Attaches a loaded policy to a lock's hook via livepatch (Fig. 1
    /// step 6).
    ///
    /// # Errors
    ///
    /// Returns [`ConcordError::UnknownLock`] / [`ConcordError::NotHookable`].
    pub fn attach(&self, lock: &str, policy: &LoadedPolicy) -> Result<AttachHandle, ConcordError> {
        let bytecode = BytecodePolicy::new(policy.prog.clone(), policy.hook, Arc::clone(&self.env));
        self.attach_one(lock, LockPolicy::Bytecode(bytecode))
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
        let (bytecode, breaker) = self.contained_policy(lock, policy, cfg, injector);
        let handle = self.attach_one(lock, bytecode)?;
        self.contained.lock().push(ContainedAttach {
            patch: handle.patch,
            lock: lock.to_string(),
            hook: policy.hook,
            policy: policy.name.clone(),
            breaker: Arc::clone(&breaker),
        });
        Ok((handle, breaker))
    }

    /// `policy` as it goes on `lock` under a fresh circuit breaker, which
    /// is tagged with both so its trip records name them.
    pub(crate) fn contained_policy(
        &self,
        lock: &str,
        policy: &LoadedPolicy,
        cfg: BreakerConfig,
        injector: Option<Arc<FaultInjector>>,
    ) -> (LockPolicy, Arc<Breaker>) {
        let breaker = Arc::new(Breaker::new(cfg));
        breaker.set_tag(telemetry::event::fnv64(lock), u64::from(policy.hook.bit()));
        let bytecode = BytecodePolicy::contained(
            policy.prog.clone(),
            policy.hook,
            Arc::clone(&self.env),
            Some(Arc::clone(&breaker)),
            injector,
        );
        (LockPolicy::Bytecode(bytecode), breaker)
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
        self.attach_tagged(
            "",
            locks.iter().map(|lock| {
                Ok::<_, ConcordError>((*lock, LockPolicy::Bytecode(Arc::clone(&bytecode))))
            }),
        )
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
        self.attach_one(lock, LockPolicy::Event(kind, f))
    }

    fn attach_one(&self, lock: &str, policy: LockPolicy) -> Result<AttachHandle, ConcordError> {
        let mut handles = self.attach_tagged("", [Ok::<_, ConcordError>((lock, policy))])?;
        Ok(handles.remove(0))
    }

    /// The one way a policy gets onto a real lock: every `(lock, policy)`
    /// item becomes a patch named `{tag}{lock}/{hook}`, and all of them
    /// apply as one livepatch transaction. `tag` is `""` for a plain
    /// attach, `rollout-g<gen>:` for a rollout wave and `fleet-v<v>:` for
    /// a fleet delivery; crash recovery, the fleet's probes, the
    /// analyzer's policy attribution and `c3ctl` all read these names.
    ///
    /// Items are built lazily while the transaction holds the patch
    /// stack, so building one must not call back into the patch manager.
    ///
    /// # Errors
    ///
    /// The first `Err` item, or the first lock that is unknown,
    /// un-hookable or of the wrong hook shape. Every patch this call
    /// applied is unwound first: the stack is left as it was.
    pub(crate) fn attach_tagged<L: AsRef<str>, E: From<ConcordError>>(
        &self,
        tag: &str,
        items: impl IntoIterator<Item = Result<(L, LockPolicy), E>>,
    ) -> Result<Vec<AttachHandle>, E> {
        let applied = transaction(&self.patches, items, |(lock, policy)| {
            let lock = lock.as_ref();
            let hook = policy.hook();
            let patch = self.build_patch(patch_name(tag, lock, hook.name()), lock, policy)?;
            Ok((patch, (lock.to_string(), hook)))
        })?;
        Ok(applied
            .into_iter()
            .map(|(patch, (lock, hook))| AttachHandle { patch, lock, hook })
            .collect())
    }

    /// Which of `locks` carry a live `{tag}{lock}/{hook}` patch.
    pub(crate) fn tagged_locks<L: AsRef<str>>(
        &self,
        tag: &str,
        hook: HookKind,
        locks: impl IntoIterator<Item = L>,
    ) -> Vec<String> {
        tagged_locks(&self.patches, tag, hook.name(), locks)
    }

    /// Reverts the live `{tag}{lock}/{hook}` patch of each of `locks`
    /// that has one, wherever it sits on the stack, in one unwind
    /// (patches above the lowest are re-applied once), and returns the
    /// locks it reverted.
    ///
    /// # Errors
    ///
    /// The revert error, when a patch found by name is gone before the
    /// transaction takes the stack; no lock is then reverted.
    pub(crate) fn revert_tagged<L: AsRef<str>>(
        &self,
        tag: &str,
        hook: HookKind,
        locks: impl IntoIterator<Item = L>,
    ) -> Result<Vec<String>, PatchError> {
        revert_tagged(&self.patches, tag, hook.name(), locks)
    }

    /// Builds (without applying) the patch that puts `policy` on `lock`:
    /// the swap of a decision hook or the chaining of an event hook, then
    /// the hook's active flag.
    fn build_patch(
        &self,
        name: String,
        lock: &str,
        policy: LockPolicy,
    ) -> Result<Patch, ConcordError> {
        let handle = self
            .registry
            .get(lock)
            .ok_or_else(|| ConcordError::UnknownLock(lock.to_string()))?;
        let hooks = handle
            .hooks()
            .cloned()
            .ok_or_else(|| ConcordError::NotHookable(lock.to_string()))?;
        let kind = policy.hook();
        let mut patch = Patch::new(name);
        match policy {
            LockPolicy::Bytecode(b) => match kind {
                HookKind::CmpNode => swap_in(&mut patch, &hooks.cmp_node, b.as_cmp_node()?),
                HookKind::SkipShuffle => {
                    swap_in(&mut patch, &hooks.skip_shuffle, b.as_skip_shuffle()?)
                }
                HookKind::ScheduleWaiter => {
                    swap_in(&mut patch, &hooks.schedule_waiter, b.as_schedule_waiter()?)
                }
                _ => chain_event(&mut patch, &hooks, kind, b.as_event()?)?,
            },
            LockPolicy::Event(_, f) => chain_event(&mut patch, &hooks, kind, f)?,
        }
        let was_active = hooks.is_active(kind);
        let h1 = Arc::clone(&hooks);
        patch.action(
            move || h1.set_active(kind, true),
            move || hooks.set_active(kind, was_active),
        );
        Ok(patch)
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

    /// Attaches a policy set to a simulated lock as a one-patch untagged
    /// transaction on a stack of its own, named `sim{id}/policy` after
    /// the lock's id; the policy set's simulator stamps the record.
    /// Nothing can revert it: attach through a [`SimPatches`] instead.
    pub fn attach_sim(&self, lock: &SimShflLock, policy: Rc<SimBytecodePolicy>) {
        SimPatches::new(policy.sim()).attach(&format!("sim{}", lock.id()), lock, policy);
    }

    /// The sim analog of a quarantine: reverts `lock`'s untagged patch on
    /// `patches`, wherever it sits on the stack, and records why. `at_ns`
    /// is the virtual time of the decision. Like
    /// [`Concord::sweep_breakers`], a lock with no such patch has nothing
    /// to pull and gets no record.
    pub fn quarantine_sim(
        &self,
        patches: &SimPatches,
        lock: &str,
        hook: HookKind,
        policy: &str,
        reason: String,
        at_ns: u64,
    ) -> Option<QuarantineRecord> {
        if patches.revert_tagged("", [lock]).ok()?.is_empty() {
            return None;
        }
        Some(self.file_quarantine(
            QuarantineRecord {
                lock: lock.to_string(),
                hook,
                policy: policy.to_string(),
                reason,
                at_ns,
                events: Vec::new(),
            },
            0,
        ))
    }
}

/// The one slot of a sim lock: its whole policy set swaps as one.
const SIM_SLOT: &str = "policy";

/// The livepatch stack of one simulated machine. Every policy Concord
/// puts on a sim lock goes through it, as every policy on a real lock
/// goes through [`Concord`]'s: one tagged transaction, patches named
/// `{tag}{lock}/policy`, the same `PatchApply`/`PatchRevert` records
/// (stamped in the simulator's virtual time), the same probe and revert
/// by name. It lives beside `Concord` rather than in it because its
/// patches hold `Rc`s and `Concord` is shared across threads.
pub struct SimPatches {
    patches: PatchManager<LocalOp>,
}

impl SimPatches {
    /// An empty stack whose records carry `sim`'s virtual time.
    pub fn new(sim: &Sim) -> Self {
        let sim = sim.clone();
        SimPatches {
            patches: PatchManager::<LocalOp>::with_clock(Box::new(move || sim.now())),
        }
    }

    /// Puts each item's policy on its lock, named `{tag}{name}/policy`,
    /// as one transaction: the sim side of [`Concord::attach_tagged`].
    /// Reverting a patch puts back what its lock had when it was built.
    ///
    /// # Errors
    ///
    /// The first `Err` item, after every patch this call applied is
    /// unwound.
    pub fn attach_tagged<'l, L: AsRef<str>, E>(
        &self,
        tag: &str,
        items: impl IntoIterator<Item = Result<(L, &'l SimShflLock, Rc<dyn SimPolicy>), E>>,
    ) -> Result<(), E> {
        transaction(&self.patches, items, |(name, lock, policy)| {
            let mut patch = Patch::new(patch_name(tag, name.as_ref(), SIM_SLOT));
            let swap_to = |p: Rc<dyn SimPolicy>| {
                let slot = Rc::clone(lock.policy_slot());
                move || slot.set_policy(Rc::clone(&p))
            };
            patch.action(swap_to(policy), swap_to(lock.policy()));
            Ok((patch, ()))
        })
        .map(drop)
    }

    /// One untagged attach of `policy` on `lock`, named `{name}/policy`.
    pub fn attach(&self, name: &str, lock: &SimShflLock, policy: Rc<dyn SimPolicy>) {
        let Ok(()) = self.attach_tagged::<_, Infallible>("", [Ok((name, lock, policy))]);
    }

    /// Which of `locks` carry a live `{tag}{lock}/policy` patch.
    pub fn tagged_locks<L: AsRef<str>>(
        &self,
        tag: &str,
        locks: impl IntoIterator<Item = L>,
    ) -> Vec<String> {
        tagged_locks(&self.patches, tag, SIM_SLOT, locks)
    }

    /// Reverts the live `{tag}{lock}/policy` patch of each of `locks`
    /// that has one, wherever it sits on the stack, in one unwind, and
    /// returns the locks it reverted.
    ///
    /// # Errors
    ///
    /// The revert error, when a patch found by name is gone before the
    /// transaction takes the stack; no lock is then reverted.
    pub fn revert_tagged<L: AsRef<str>>(
        &self,
        tag: &str,
        locks: impl IntoIterator<Item = L>,
    ) -> Result<Vec<String>, PatchError> {
        revert_tagged(&self.patches, tag, SIM_SLOT, locks)
    }

    /// Names of live patches, bottom to top.
    pub fn live(&self) -> Vec<String> {
        self.patches.live()
    }
}

/// What an attach puts on one lock's hook.
pub(crate) enum LockPolicy {
    /// A bytecode policy, on the hook it was loaded for (any of the
    /// seven).
    Bytecode(Arc<BytecodePolicy>),
    /// A native closure chained onto an event hook.
    Event(HookKind, LockEventFn),
}

impl LockPolicy {
    fn hook(&self) -> HookKind {
        match self {
            LockPolicy::Bytecode(b) => b.hook(),
            LockPolicy::Event(kind, _) => *kind,
        }
    }
}

/// The name of the patch that puts a policy on `lock`'s `slot` under
/// `tag`: the hook name on a real lock, `policy` on a sim lock (see
/// [`Concord::attach_tagged`]).
fn patch_name(tag: &str, lock: &str, slot: &str) -> String {
    format!("{tag}{lock}/{slot}")
}

/// The one attach transaction of both clocks: `build` turns each item
/// into its patch plus what the caller keeps of it, and all the patches
/// apply as one livepatch transaction. Items are built lazily while the
/// transaction holds the patch stack, so building one must not call back
/// into `patches`.
fn transaction<O: ?Sized + OpBound, T, R, E>(
    patches: &PatchManager<O>,
    items: impl IntoIterator<Item = Result<T, E>>,
    mut build: impl FnMut(T) -> Result<(Patch<O>, R), E>,
) -> Result<Vec<(PatchHandle, R)>, E> {
    let mut kept = Vec::new();
    let handles = patches.apply_transaction(items.into_iter().map(|item| {
        let (patch, k) = build(item?)?;
        kept.push(k);
        Ok(patch)
    }))?;
    Ok(handles.into_iter().zip(kept).collect())
}

/// Which of `locks` carry a live `{tag}{lock}/{slot}` patch.
fn tagged_locks<O: ?Sized + OpBound, L: AsRef<str>>(
    patches: &PatchManager<O>,
    tag: &str,
    slot: &str,
    locks: impl IntoIterator<Item = L>,
) -> Vec<String> {
    locks
        .into_iter()
        .filter(|lock| {
            patches
                .find(&patch_name(tag, lock.as_ref(), slot))
                .is_some()
        })
        .map(|lock| lock.as_ref().to_string())
        .collect()
}

/// Reverts the live `{tag}{lock}/{slot}` patch of each of `locks` that
/// has one, wherever it sits on the stack, as one revert transaction
/// (one unwind, all or nothing), and returns the locks it reverted. A
/// lock listed twice has its two topmost such patches reverted.
fn revert_tagged<O: ?Sized + OpBound, L: AsRef<str>>(
    patches: &PatchManager<O>,
    tag: &str,
    slot: &str,
    locks: impl IntoIterator<Item = L>,
) -> Result<Vec<String>, PatchError> {
    let locks: Vec<L> = locks.into_iter().collect();
    let found = patches.find_distinct(
        locks
            .iter()
            .map(|lock| patch_name(tag, lock.as_ref(), slot)),
    );
    let mut reverted = Vec::new();
    let mut handles = Vec::new();
    for (lock, handle) in locks.iter().zip(found) {
        if let Some(handle) = handle {
            handles.push(handle);
            reverted.push(lock.as_ref().to_string());
        }
    }
    patches.revert_transaction(&handles)?;
    Ok(reverted)
}

/// Adds to `patch` the swap that installs decision `f` on `point`;
/// reverting restores what was there.
fn swap_in<F: Clone + Send + Sync + 'static>(
    patch: &mut Patch,
    point: &Arc<PatchPoint<Option<F>>>,
    f: F,
) {
    let old = point.get().clone();
    patch.swap(point, Some(f), old);
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

    /// A fleet host's revert: version 1 is pulled from under version 2
    /// on eight locks. One unwind reverts each lock's two patches once
    /// and re-applies version 2's once, so each `cmp_node` point moves
    /// three times; a pull per lock moved lock `k`'s `2k + 17` times.
    #[test]
    fn revert_tagged_unwinds_once() {
        let c = Concord::new();
        let loaded = c.load(trivial_spec("p", HookKind::CmpNode, 1)).unwrap();
        let locks: Vec<String> = (0..8).map(|i| format!("l{i}")).collect();
        let points: Vec<_> = locks
            .iter()
            .map(|name| {
                let lock = Arc::new(ShflLock::new());
                c.registry().register_shfl(name, Arc::clone(&lock));
                Arc::clone(&lock.hooks().cmp_node)
            })
            .collect();
        let bytecode = BytecodePolicy::new(loaded.prog.clone(), loaded.hook, Arc::clone(&c.env));
        for tag in ["v1:", "v2:"] {
            let items = locks.iter().map(|lock| {
                Ok::<_, ConcordError>((lock, LockPolicy::Bytecode(Arc::clone(&bytecode))))
            });
            c.attach_tagged(tag, items).unwrap();
        }
        let before: Vec<u64> = points.iter().map(|p| p.generation()).collect();
        let reverted = c.revert_tagged("v1:", HookKind::CmpNode, &locks).unwrap();
        assert_eq!(reverted, locks);
        for (k, p) in points.iter().enumerate() {
            assert_eq!(p.generation() - before[k], 3, "lock {k}'s point");
        }
        let v2: Vec<String> = locks.iter().map(|l| format!("v2:{l}/cmp_node")).collect();
        assert_eq!(c.live_patches(), v2);
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
