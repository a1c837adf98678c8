//! Staged, crash-consistent policy rollout.
//!
//! The paper's replacement scope "can range from one lock instance to
//! every lock in the kernel" (§4) — this module is the control loop that
//! makes the large end of that range operable. A [`RolloutPlan`] splits a
//! cohort of registered locks into waves (canary → N% → full); each wave
//! is applied as one all-or-nothing livepatch transaction
//! ([`livepatch::PatchManager::apply_transaction`]) and then judged by a
//! [`HealthEvaluator`] fed from the per-wave circuit breakers' fault
//! counts and the metrics registry's breaker trips. A red verdict aborts
//! the rollout and rolls every applied wave back.
//!
//! **Crash consistency.** Every step writes an intent record to a
//! write-ahead [`RolloutLog`] *before* mutating patch state, and probes
//! of actual patch state (gen-tagged patch names) — not the log alone —
//! drive recovery. [`Rollout::recover`] rolls forward iff a
//! [`Intent::CommitIntent`] record made it to the log (every wave had
//! already passed health), and rolls back otherwise, so a controller
//! killed at *any* step boundary converges to fully-applied or
//! fully-reverted, never a mix of generations. Recovery follows the same
//! log-then-mutate discipline, so a crash during recovery re-recovers.
//!
//! **Deterministic chaos.** A seeded [`ChaosPlan`] (the `cbpf::fault`
//! injector style) kills the controller at a chosen step boundary; the
//! [`chaos::crash_sweep`] harness re-runs a scenario once per reachable
//! step and asserts convergence after recovery. See DESIGN.md §4.7 for
//! the state machine and the intent-log schema.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cbpf::fault::FaultInjector;
use locks::hooks::HookKind;
use parking_lot::Mutex;
use simlocks::policy::SimPolicy;
use simlocks::SimShflLock;

use crate::containment::{Breaker, BreakerConfig};
use crate::policy::BytecodePolicy;
use crate::workflow::{Concord, LoadedPolicy};

/// Shared map of per-lock breakers a rollout installs — the health
/// evaluator reads fault/trip deltas out of it.
pub type BreakerMap = Arc<Mutex<BTreeMap<String, Arc<Breaker>>>>;

// ---------------------------------------------------------------------------
// Intent log

/// One write-ahead record. The log is append-only; the tail never
/// rewrites history, so any prefix is a valid crash state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Intent {
    /// A rollout began: the full plan is durable before any wave runs.
    PlanStart {
        /// Rollout generation (tags every patch name).
        generation: u64,
        /// Loaded policy name.
        policy: String,
        /// Target hook.
        hook: HookKind,
        /// Cohorts, canary first.
        waves: Vec<Vec<String>>,
    },
    /// About to apply wave `wave` (mutation may or may not have happened
    /// if this is the last record).
    WaveApplyIntent {
        /// Wave index.
        wave: usize,
    },
    /// Wave `wave`'s transaction committed to patch state.
    WaveApplied {
        /// Wave index.
        wave: usize,
    },
    /// Wave `wave` passed its health gate.
    WaveHealthy {
        /// Wave index.
        wave: usize,
    },
    /// Every wave passed health; the rollout will finish as applied.
    CommitIntent,
    /// Terminal: fully applied.
    Committed,
    /// Red health (or an operator abort): the rollout will finish as
    /// reverted.
    AbortIntent {
        /// Why.
        reason: String,
    },
    /// About to revert wave `wave`.
    WaveRevertIntent {
        /// Wave index.
        wave: usize,
    },
    /// Wave `wave`'s patches are gone.
    WaveReverted {
        /// Wave index.
        wave: usize,
    },
    /// Terminal: fully reverted.
    Aborted,
}

impl Intent {
    /// Stable discriminant (telemetry `c` field, DESIGN.md §4.7 schema).
    pub fn discriminant(&self) -> u64 {
        match self {
            Intent::PlanStart { .. } => 1,
            Intent::WaveApplyIntent { .. } => 2,
            Intent::WaveApplied { .. } => 3,
            Intent::WaveHealthy { .. } => 4,
            Intent::CommitIntent => 5,
            Intent::Committed => 6,
            Intent::AbortIntent { .. } => 7,
            Intent::WaveRevertIntent { .. } => 8,
            Intent::WaveReverted { .. } => 9,
            Intent::Aborted => 10,
        }
    }

    /// Wave index, for wave-scoped records.
    pub fn wave(&self) -> Option<usize> {
        match self {
            Intent::WaveApplyIntent { wave }
            | Intent::WaveApplied { wave }
            | Intent::WaveHealthy { wave }
            | Intent::WaveRevertIntent { wave }
            | Intent::WaveReverted { wave } => Some(*wave),
            _ => None,
        }
    }
}

impl fmt::Display for Intent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Intent::PlanStart {
                generation,
                policy,
                hook,
                waves,
            } => write!(
                f,
                "plan-start gen={generation} policy={policy} hook={} waves={}",
                hook.name(),
                waves.len()
            ),
            Intent::WaveApplyIntent { wave } => write!(f, "wave-apply-intent {wave}"),
            Intent::WaveApplied { wave } => write!(f, "wave-applied {wave}"),
            Intent::WaveHealthy { wave } => write!(f, "wave-healthy {wave}"),
            Intent::CommitIntent => write!(f, "commit-intent"),
            Intent::Committed => write!(f, "committed"),
            Intent::AbortIntent { reason } => write!(f, "abort-intent: {reason}"),
            Intent::WaveRevertIntent { wave } => write!(f, "wave-revert-intent {wave}"),
            Intent::WaveReverted { wave } => write!(f, "wave-reverted {wave}"),
            Intent::Aborted => write!(f, "aborted"),
        }
    }
}

/// The write-ahead rollout log. Models the durable side of the control
/// plane: it survives the controller's death (clones share one record
/// vector), while the controller itself keeps **no** state outside it —
/// every decision re-derives from the log plus patch-state probes.
#[derive(Clone, Default)]
pub struct RolloutLog {
    inner: Arc<Mutex<Vec<Intent>>>,
    generation: Arc<AtomicU64>,
}

impl RolloutLog {
    /// An empty log.
    pub fn new() -> Self {
        RolloutLog::default()
    }

    /// Appends a record (the write-ahead step) and emits the
    /// `rollout_step` trace event.
    pub fn append(&self, record: Intent) {
        let len;
        {
            let mut records = self.inner.lock();
            if let Intent::PlanStart { generation, .. } = &record {
                self.generation.store(*generation, Ordering::Relaxed);
            }
            records.push(record.clone());
            len = records.len() as u64;
        }
        telemetry::metrics()
            .counter("c3_rollout_log_records_total")
            .inc();
        if telemetry::armed() {
            telemetry::emit(
                telemetry::EventKind::RolloutStep,
                telemetry::clock::now_ns(),
                0,
                self.generation.load(Ordering::Relaxed),
                record.wave().map_or(u64::MAX, |w| w as u64),
                record.discriminant(),
                len,
            );
        }
    }

    /// A snapshot of all records, oldest first.
    pub fn records(&self) -> Vec<Intent> {
        self.inner.lock().clone()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing was ever logged.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Order-sensitive FNV-1a fold over every record — the replay
    /// fingerprint the chaos tests compare for bit-identical runs.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u64| {
            h ^= byte;
            h = h.wrapping_mul(0x1_0000_01b3);
        };
        for rec in self.inner.lock().iter() {
            mix(rec.discriminant());
            mix(rec.wave().map_or(u64::MAX, |w| w as u64));
            match rec {
                Intent::PlanStart {
                    generation,
                    policy,
                    hook,
                    waves,
                } => {
                    mix(*generation);
                    mix(u64::from(hook.bit()));
                    for b in policy.bytes() {
                        mix(u64::from(b));
                    }
                    for wave in waves {
                        mix(wave.len() as u64);
                        for lock in wave {
                            for b in lock.bytes() {
                                mix(u64::from(b));
                            }
                        }
                    }
                }
                Intent::AbortIntent { reason } => {
                    for b in reason.bytes() {
                        mix(u64::from(b));
                    }
                }
                _ => {}
            }
        }
        h
    }

    fn view(&self) -> LogView {
        let records = self.inner.lock();
        let mut v = LogView::default();
        for rec in records.iter() {
            match rec {
                Intent::PlanStart {
                    generation,
                    policy,
                    hook,
                    waves,
                } => {
                    v.plan = Some(PlanView {
                        generation: *generation,
                        policy: policy.clone(),
                        hook: *hook,
                        waves: waves.clone(),
                    });
                }
                Intent::WaveApplied { wave } => {
                    v.applied_waves.insert(*wave);
                }
                Intent::WaveHealthy { .. } => v.healthy_waves += 1,
                Intent::CommitIntent => v.commit_intent = true,
                Intent::Committed => v.committed = true,
                Intent::AbortIntent { reason } if v.abort_reason.is_none() => {
                    v.abort_reason = Some(reason.clone());
                }
                Intent::Aborted => v.aborted = true,
                _ => {}
            }
        }
        v.records = records.len();
        v
    }
}

/// The plan as recovered from the log.
#[derive(Clone, Debug)]
struct PlanView {
    generation: u64,
    policy: String,
    hook: HookKind,
    waves: Vec<Vec<String>>,
}

#[derive(Default)]
struct LogView {
    plan: Option<PlanView>,
    applied_waves: BTreeSet<usize>,
    healthy_waves: usize,
    commit_intent: bool,
    committed: bool,
    abort_reason: Option<String>,
    aborted: bool,
    records: usize,
}

impl LogView {
    fn terminal(&self) -> bool {
        self.committed || self.aborted
    }
}

// ---------------------------------------------------------------------------
// Plan

/// A generation-numbered staged delivery plan.
#[derive(Clone, Debug)]
pub struct RolloutPlan {
    /// Generation number; tags every patch this rollout applies
    /// (`rollout-g{generation}:{lock}/{hook}`), so recovery can probe
    /// which patches belong to it by name.
    pub generation: u64,
    /// Loaded policy name (for the log and `c3ctl rollout status`).
    pub policy: String,
    /// Target hook.
    pub hook: HookKind,
    /// Cohorts in apply order; the first is the canary.
    pub waves: Vec<Vec<String>>,
}

impl RolloutPlan {
    /// Splits `locks` into a canary (the first instance) followed by
    /// cumulative percentage waves and a final wave with the remainder.
    /// `wave_pcts` are cumulative targets: `&[10, 50]` over 20 locks
    /// yields waves of 1 (canary), 1 (to 10%), 8 (to 50%) and 10 (rest).
    pub fn staged(
        generation: u64,
        policy: &str,
        hook: HookKind,
        locks: &[String],
        wave_pcts: &[u32],
    ) -> Self {
        let total = locks.len();
        let mut waves = Vec::new();
        let mut taken = 0usize;
        if total > 0 {
            waves.push(vec![locks[0].clone()]);
            taken = 1;
        }
        for pct in wave_pcts {
            let target = (total * (*pct as usize)).div_ceil(100).clamp(taken, total);
            if target > taken {
                waves.push(locks[taken..target].to_vec());
                taken = target;
            }
        }
        if taken < total {
            waves.push(locks[taken..].to_vec());
        }
        RolloutPlan {
            generation,
            policy: policy.to_string(),
            hook,
            waves,
        }
    }

    /// Total instances across all waves.
    pub fn total_locks(&self) -> usize {
        self.waves.iter().map(Vec::len).sum()
    }
}

// ---------------------------------------------------------------------------
// Errors / outcomes

/// Controller failures. [`RolloutError::Crashed`] models the process
/// dying at a chaos-chosen step boundary — the log and patch state
/// survive; everything in the controller's head is lost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RolloutError {
    /// The chaos injector killed the controller at this step.
    Crashed(u64),
    /// The requested operation does not fit the log's current state.
    BadState(String),
    /// A target mutation failed in a way the controller cannot unwind
    /// by itself (recovery should be re-run).
    Target(String),
}

impl fmt::Display for RolloutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RolloutError::Crashed(step) => write!(f, "controller crashed at step {step}"),
            RolloutError::BadState(m) => write!(f, "bad rollout state: {m}"),
            RolloutError::Target(m) => write!(f, "rollout target error: {m}"),
        }
    }
}

impl std::error::Error for RolloutError {}

/// Terminal outcome of a rollout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// All waves applied and healthy.
    Committed,
    /// Rolled back; the reason of the first abort intent.
    Aborted(String),
}

/// Outcome of one stepwise advance ([`Rollout::start`] /
/// [`Rollout::promote`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaveOutcome {
    /// The wave applied and passed health; more waves remain.
    WaveHealthy {
        /// Wave index just promoted.
        wave: usize,
        /// Waves still to go.
        remaining: usize,
    },
    /// The final wave passed health and the rollout committed.
    Committed,
    /// Red health or an apply failure rolled everything back.
    Aborted(String),
}

/// What [`Rollout::recover`] found and did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoverOutcome {
    /// The log was empty: nothing to recover.
    NoRollout,
    /// The log already ended in a terminal record.
    AlreadyTerminal(RolloutOutcome),
    /// A commit intent was durable: stragglers applied, now committed.
    RolledForward,
    /// No commit intent: applied waves reverted, now aborted.
    RolledBack,
}

// ---------------------------------------------------------------------------
// Chaos injection

/// Seeded crash schedule, in the style of [`cbpf::fault::FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed: drives derived randomness ([`ChaosInjector::rng`]) so wave
    /// splits, fault schedules and health scripts built from one plan
    /// replay bit-identically.
    pub seed: u64,
    /// Kill the controller when the step counter reaches this boundary.
    pub crash_at_step: Option<u64>,
}

impl ChaosPlan {
    /// Never crashes (but still seeds derived randomness).
    pub fn inert(seed: u64) -> Self {
        ChaosPlan {
            seed,
            crash_at_step: None,
        }
    }

    /// Crashes at step `step` (0-based boundary count).
    pub fn crash_at(seed: u64, step: u64) -> Self {
        ChaosPlan {
            seed,
            crash_at_step: Some(step),
        }
    }
}

/// Executes a [`ChaosPlan`]: counts step boundaries and kills the
/// controller at the planned one.
pub struct ChaosInjector {
    plan: ChaosPlan,
    steps: AtomicU64,
}

impl ChaosInjector {
    /// Arms a plan.
    pub fn new(plan: ChaosPlan) -> Self {
        ChaosInjector {
            plan,
            steps: AtomicU64::new(0),
        }
    }

    /// An injector that never fires.
    pub fn inert() -> Self {
        ChaosInjector::new(ChaosPlan::inert(0))
    }

    /// The armed plan.
    pub fn plan(&self) -> ChaosPlan {
        self.plan
    }

    /// A step boundary: the controller calls this after every log append
    /// and after every patch-state mutation. Returns
    /// [`RolloutError::Crashed`] when the plan says to die here.
    ///
    /// # Errors
    ///
    /// [`RolloutError::Crashed`] at the planned step.
    pub fn barrier(&self) -> Result<(), RolloutError> {
        let step = self.steps.fetch_add(1, Ordering::Relaxed);
        if self.plan.crash_at_step == Some(step) {
            telemetry::metrics()
                .counter("c3_rollout_chaos_crashes_total")
                .inc();
            return Err(RolloutError::Crashed(step));
        }
        Ok(())
    }

    /// Step boundaries crossed so far (the sweep uses the inert run's
    /// count as the crash-point space).
    pub fn steps_taken(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Deterministic derived randomness: a splitmix64 finalize over
    /// `(seed, salt)`, so adjacent seeds never collide.
    pub fn rng(&self, salt: u64) -> u64 {
        let mut x = self
            .plan
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

// ---------------------------------------------------------------------------
// Health

/// A wave health verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HealthVerdict {
    /// Promote.
    Green,
    /// Abort and roll back everything; the reason lands in the log.
    Red(String),
}

/// Judges a wave. `baseline` runs before the wave's transaction applies;
/// `judge` runs after — the implementation owns whatever observation
/// (driving load, sleeping, sampling) happens in between.
pub trait HealthEvaluator {
    /// Snapshot pre-wave state.
    fn baseline(&mut self, wave: usize, locks: &[String]);
    /// Judge the wave against the snapshot.
    fn judge(&mut self, wave: usize, locks: &[String]) -> HealthVerdict;
}

/// Health that always promotes (plain `c3ctl` operation, tests).
#[derive(Default)]
pub struct AlwaysGreen;

impl HealthEvaluator for AlwaysGreen {
    fn baseline(&mut self, _wave: usize, _locks: &[String]) {}
    fn judge(&mut self, _wave: usize, _locks: &[String]) -> HealthVerdict {
        HealthVerdict::Green
    }
}

/// Scripted per-wave verdicts (chaos and model tests); waves beyond the
/// script are green.
pub struct ScriptedHealth {
    verdicts: Vec<HealthVerdict>,
    next: usize,
}

impl ScriptedHealth {
    /// Judges wave `i` with `verdicts[i]`.
    pub fn new(verdicts: Vec<HealthVerdict>) -> Self {
        ScriptedHealth { verdicts, next: 0 }
    }
}

impl HealthEvaluator for ScriptedHealth {
    fn baseline(&mut self, _wave: usize, _locks: &[String]) {}
    fn judge(&mut self, _wave: usize, _locks: &[String]) -> HealthVerdict {
        let v = self
            .verdicts
            .get(self.next)
            .cloned()
            .unwrap_or(HealthVerdict::Green);
        self.next += 1;
        v
    }
}

/// Thresholds for [`MetricsHealth`]. The default tolerates nothing:
/// zero faults, zero trips.
#[derive(Clone, Copy, Debug, Default)]
pub struct HealthConfig {
    /// Policy faults tolerated per wave (sum over the wave's breakers)
    /// before the verdict goes red.
    pub max_wave_faults: u64,
    /// Breaker trips tolerated per wave (delta of the registry-wide
    /// `c3_breaker_trips_total` counter).
    pub max_breaker_trips: u64,
}

/// Traffic driver run before judging a wave, so health gates see real
/// invocations (`(wave, locks)`).
pub type WaveExercise = Box<dyn FnMut(usize, &[String])>;

/// The production evaluator: policy faults from the wave's breakers and
/// breaker trips from the metrics registry, each counted since the wave's
/// baseline.
pub struct MetricsHealth {
    cfg: HealthConfig,
    breakers: BreakerMap,
    exercise: Option<WaveExercise>,
    base_faults: u64,
    base_trips: u64,
}

impl MetricsHealth {
    /// An evaluator over the rollout's breaker map.
    pub fn new(cfg: HealthConfig, breakers: BreakerMap) -> Self {
        MetricsHealth {
            cfg,
            breakers,
            exercise: None,
            base_faults: 0,
            base_trips: 0,
        }
    }

    /// Adds a closure that drives representative load on the wave's
    /// locks between apply and judgment (tests; production judges
    /// organically arriving traffic).
    pub fn with_exercise(mut self, exercise: impl FnMut(usize, &[String]) + 'static) -> Self {
        self.exercise = Some(Box::new(exercise));
        self
    }

    fn wave_faults(&self, locks: &[String]) -> u64 {
        let map = self.breakers.lock();
        locks
            .iter()
            .filter_map(|l| map.get(l))
            .map(|b| b.total_faults())
            .sum()
    }
}

impl HealthEvaluator for MetricsHealth {
    fn baseline(&mut self, _wave: usize, locks: &[String]) {
        self.base_faults = self.wave_faults(locks);
        self.base_trips = telemetry::metrics().counter("c3_breaker_trips_total").get();
    }

    fn judge(&mut self, wave: usize, locks: &[String]) -> HealthVerdict {
        if let Some(exercise) = &mut self.exercise {
            exercise(wave, locks);
        }
        let faults = self.wave_faults(locks).saturating_sub(self.base_faults);
        if faults > self.cfg.max_wave_faults {
            return HealthVerdict::Red(format!(
                "wave {wave}: {faults} policy faults (budget {})",
                self.cfg.max_wave_faults
            ));
        }
        let trips = telemetry::metrics()
            .counter("c3_breaker_trips_total")
            .get()
            .saturating_sub(self.base_trips);
        if trips > self.cfg.max_breaker_trips {
            return HealthVerdict::Red(format!(
                "wave {wave}: {trips} breaker trips (budget {})",
                self.cfg.max_breaker_trips
            ));
        }
        HealthVerdict::Green
    }
}

// ---------------------------------------------------------------------------
// Targets

/// What a rollout mutates. Implementations must make `apply_locks`
/// all-or-nothing and `revert_locks`/`applied_locks` idempotent probes of
/// *actual* state — recovery trusts them over the log's tail.
pub trait RolloutTarget {
    /// Applies the rollout's policy (gen-tagged) to every lock, or to
    /// none of them.
    ///
    /// # Errors
    ///
    /// A human-readable cause; the target must be unchanged.
    fn apply_locks(&self, generation: u64, locks: &[String]) -> Result<(), String>;

    /// Which of `locks` currently carry this generation's patch.
    fn applied_locks(&self, generation: u64, locks: &[String]) -> Vec<String>;

    /// Removes this generation's patch from each of `locks` that has it.
    ///
    /// # Errors
    ///
    /// A human-readable cause; already-clean locks are not an error.
    fn revert_locks(&self, generation: u64, locks: &[String]) -> Result<(), String>;
}

fn rollout_patch_name(generation: u64, lock: &str, hook: HookKind) -> String {
    format!("rollout-g{generation}:{lock}/{}", hook.name())
}

/// [`RolloutTarget`] over a real [`Concord`]: waves go through
/// `apply_transaction` on the livepatch stack, each lock wrapped in a
/// fresh circuit breaker registered in the shared [`BreakerMap`].
pub struct RealTarget<'a> {
    concord: &'a Concord,
    policy: LoadedPolicy,
    breaker_cfg: BreakerConfig,
    injector: Option<Arc<FaultInjector>>,
    breakers: BreakerMap,
}

impl<'a> RealTarget<'a> {
    /// A target delivering `policy` with per-lock breakers.
    pub fn new(concord: &'a Concord, policy: LoadedPolicy, breaker_cfg: BreakerConfig) -> Self {
        RealTarget {
            concord,
            policy,
            breaker_cfg,
            injector: None,
            breakers: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Arms a deterministic fault injector on every wave policy (chaos
    /// harness).
    pub fn with_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Reuses an existing breaker map (so `c3ctl` can keep one across
    /// commands).
    pub fn with_breakers(mut self, breakers: BreakerMap) -> Self {
        self.breakers = breakers;
        self
    }

    /// The shared breaker map (feed it to [`MetricsHealth`]).
    pub fn breakers(&self) -> BreakerMap {
        Arc::clone(&self.breakers)
    }
}

impl RolloutTarget for RealTarget<'_> {
    fn apply_locks(&self, generation: u64, locks: &[String]) -> Result<(), String> {
        let prefix = format!("rollout-g{generation}:");
        let staged: RefCell<Vec<(String, Arc<Breaker>)>> = RefCell::new(Vec::new());
        let result = self
            .concord
            .patch_manager()
            .apply_transaction(locks.iter().map(|lock| {
                let breaker = Arc::new(Breaker::new(self.breaker_cfg));
                breaker.set_tag(
                    telemetry::event::fnv64(lock),
                    u64::from(self.policy.hook.bit()),
                );
                let bytecode = BytecodePolicy::contained(
                    self.policy.prog.clone(),
                    self.policy.hook,
                    Arc::clone(self.concord.env()),
                    Some(Arc::clone(&breaker)),
                    self.injector.clone(),
                );
                let patch = self.concord.build_bytecode_patch(
                    lock,
                    self.policy.hook,
                    &bytecode,
                    Some(&prefix),
                )?;
                staged.borrow_mut().push((lock.clone(), breaker));
                Ok::<_, crate::workflow::ConcordError>(patch)
            }));
        match result {
            Ok(_handles) => {
                let mut map = self.breakers.lock();
                for (lock, breaker) in staged.into_inner() {
                    map.insert(lock, breaker);
                }
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn applied_locks(&self, generation: u64, locks: &[String]) -> Vec<String> {
        let mgr = self.concord.patch_manager();
        locks
            .iter()
            .filter(|lock| {
                mgr.find(&rollout_patch_name(generation, lock, self.policy.hook))
                    .is_some()
            })
            .cloned()
            .collect()
    }

    fn revert_locks(&self, generation: u64, locks: &[String]) -> Result<(), String> {
        let mgr = self.concord.patch_manager();
        for lock in locks {
            if let Some(handle) = mgr.find(&rollout_patch_name(generation, lock, self.policy.hook))
            {
                mgr.revert_transaction(handle).map_err(|e| e.to_string())?;
                self.breakers.lock().remove(lock);
            }
        }
        Ok(())
    }
}

/// [`RolloutTarget`] over simulated locks: `set_policy` swaps in virtual
/// time, with the previous policy saved for revert. Apply failures can
/// be scripted per lock to exercise the unwind path.
pub struct SimTarget {
    locks: BTreeMap<String, Rc<SimShflLock>>,
    make_policy: SimPolicyFactory,
    applied: RefCell<AppliedSimPolicies>,
    fail_locks: RefCell<BTreeSet<String>>,
}

/// Builds the per-lock policy a [`SimTarget`] installs.
pub type SimPolicyFactory = Box<dyn Fn(&str) -> Rc<dyn SimPolicy>>;

/// Lock name → (generation, the policy it displaced).
type AppliedSimPolicies = BTreeMap<String, (u64, Rc<dyn SimPolicy>)>;

impl SimTarget {
    /// A target over named sim locks; `make_policy` builds the per-lock
    /// policy to install (typically a `ContainedPolicy` wrapper).
    pub fn new(
        locks: Vec<(String, Rc<SimShflLock>)>,
        make_policy: impl Fn(&str) -> Rc<dyn SimPolicy> + 'static,
    ) -> Self {
        SimTarget {
            locks: locks.into_iter().collect(),
            make_policy: Box::new(make_policy),
            applied: RefCell::new(BTreeMap::new()),
            fail_locks: RefCell::new(BTreeSet::new()),
        }
    }

    /// Scripts an apply failure on `lock` — the wave containing it
    /// unwinds and the rollout aborts.
    pub fn fail_apply_on(&self, lock: &str) {
        self.fail_locks.borrow_mut().insert(lock.to_string());
    }

    /// Locks currently carrying a rollout policy (any generation).
    pub fn applied_count(&self) -> usize {
        self.applied.borrow().len()
    }
}

impl RolloutTarget for SimTarget {
    fn apply_locks(&self, generation: u64, locks: &[String]) -> Result<(), String> {
        let mut done: Vec<String> = Vec::new();
        for name in locks {
            if self.fail_locks.borrow().contains(name) {
                // Unwind this call's applies, newest first — the sim
                // analog of the livepatch transaction unwinding.
                for prev in done.iter().rev() {
                    if let Some((_, saved)) = self.applied.borrow_mut().remove(prev) {
                        self.locks[prev].set_policy(saved);
                    }
                }
                return Err(format!("injected apply failure on {name}"));
            }
            let lock = self
                .locks
                .get(name)
                .ok_or_else(|| format!("unknown sim lock {name}"))?;
            let saved = lock.policy();
            lock.set_policy((self.make_policy)(name));
            self.applied
                .borrow_mut()
                .insert(name.clone(), (generation, saved));
            done.push(name.clone());
        }
        Ok(())
    }

    fn applied_locks(&self, generation: u64, locks: &[String]) -> Vec<String> {
        let applied = self.applied.borrow();
        locks
            .iter()
            .filter(|n| applied.get(*n).is_some_and(|(g, _)| *g == generation))
            .cloned()
            .collect()
    }

    fn revert_locks(&self, generation: u64, locks: &[String]) -> Result<(), String> {
        for name in locks {
            let entry = {
                let mut applied = self.applied.borrow_mut();
                match applied.get(name) {
                    Some((g, _)) if *g == generation => applied.remove(name),
                    _ => None,
                }
            };
            if let Some((_, saved)) = entry {
                self.locks[name].set_policy(saved);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Controller

/// The rollout controller. All functions are stateless over
/// (log, target): the log plus patch-state probes *are* the state, which
/// is what makes a controller death at any barrier recoverable.
pub struct Rollout;

impl Rollout {
    /// Begins a rollout: logs the plan and applies + judges the canary
    /// wave.
    ///
    /// # Errors
    ///
    /// [`RolloutError::BadState`] when a rollout is already in flight on
    /// this log; [`RolloutError::Crashed`] from chaos.
    pub fn start<T: RolloutTarget + ?Sized, H: HealthEvaluator + ?Sized>(
        plan: RolloutPlan,
        log: &RolloutLog,
        target: &T,
        health: &mut H,
        chaos: &ChaosInjector,
    ) -> Result<WaveOutcome, RolloutError> {
        let view = log.view();
        if view.plan.is_some() && !view.terminal() {
            return Err(RolloutError::BadState(
                "a rollout is already in progress (recover or abort it first)".into(),
            ));
        }
        if plan.total_locks() == 0 {
            return Err(RolloutError::BadState("plan has no locks".into()));
        }
        telemetry::metrics()
            .counter("c3_rollout_started_total")
            .inc();
        chaos.barrier()?;
        log.append(Intent::PlanStart {
            generation: plan.generation,
            policy: plan.policy.clone(),
            hook: plan.hook,
            waves: plan.waves.clone(),
        });
        chaos.barrier()?;
        Self::advance(log, target, health, chaos)
    }

    /// Applies + judges the next wave, or commits when every wave is
    /// healthy.
    ///
    /// # Errors
    ///
    /// [`RolloutError::BadState`] without an in-flight rollout (or with
    /// one that needs recovery); [`RolloutError::Crashed`] from chaos.
    pub fn promote<T: RolloutTarget + ?Sized, H: HealthEvaluator + ?Sized>(
        log: &RolloutLog,
        target: &T,
        health: &mut H,
        chaos: &ChaosInjector,
    ) -> Result<WaveOutcome, RolloutError> {
        let view = log.view();
        let Some(plan) = view.plan.as_ref() else {
            return Err(RolloutError::BadState("no rollout in this log".into()));
        };
        if view.terminal() {
            return Err(RolloutError::BadState("rollout already finished".into()));
        }
        if view.abort_reason.is_some() {
            return Err(RolloutError::BadState(
                "rollout is aborting; run `rollout recover`".into(),
            ));
        }
        if view.commit_intent || view.healthy_waves >= plan.waves.len() {
            return Self::commit(&view, log, chaos);
        }
        Self::advance(log, target, health, chaos)
    }

    /// Runs the whole plan to a terminal outcome.
    ///
    /// # Errors
    ///
    /// See [`Rollout::start`] / [`Rollout::promote`].
    pub fn run<T: RolloutTarget + ?Sized, H: HealthEvaluator + ?Sized>(
        plan: RolloutPlan,
        log: &RolloutLog,
        target: &T,
        health: &mut H,
        chaos: &ChaosInjector,
    ) -> Result<RolloutOutcome, RolloutError> {
        let mut outcome = Self::start(plan, log, target, health, chaos)?;
        loop {
            match outcome {
                WaveOutcome::Committed => return Ok(RolloutOutcome::Committed),
                WaveOutcome::Aborted(reason) => return Ok(RolloutOutcome::Aborted(reason)),
                WaveOutcome::WaveHealthy { .. } => {
                    outcome = Self::promote(log, target, health, chaos)?;
                }
            }
        }
    }

    /// Operator abort: rolls back every applied wave.
    ///
    /// # Errors
    ///
    /// [`RolloutError::BadState`] without an in-flight rollout;
    /// [`RolloutError::Crashed`] from chaos.
    pub fn abort<T: RolloutTarget + ?Sized>(
        reason: &str,
        log: &RolloutLog,
        target: &T,
        chaos: &ChaosInjector,
    ) -> Result<RolloutOutcome, RolloutError> {
        let view = log.view();
        if view.plan.is_none() {
            return Err(RolloutError::BadState("no rollout in this log".into()));
        }
        if view.terminal() {
            return Err(RolloutError::BadState("rollout already finished".into()));
        }
        Self::abort_inner(reason.to_string(), log, target, chaos)?;
        Ok(RolloutOutcome::Aborted(reason.to_string()))
    }

    /// Replays the log after a crash and converges the target: rolls
    /// *forward* iff a [`Intent::CommitIntent`] is durable (all waves had
    /// passed health), rolls *back* otherwise. Idempotent: crashing
    /// during recovery and recovering again still converges, because
    /// every decision probes actual patch state.
    ///
    /// # Errors
    ///
    /// [`RolloutError::Crashed`] from chaos; [`RolloutError::Target`]
    /// when the target refuses a mutation (re-run recovery).
    pub fn recover<T: RolloutTarget + ?Sized>(
        log: &RolloutLog,
        target: &T,
        chaos: &ChaosInjector,
    ) -> Result<RecoverOutcome, RolloutError> {
        let view = log.view();
        let Some(plan) = view.plan.clone() else {
            return Ok(RecoverOutcome::NoRollout);
        };
        if view.committed {
            return Ok(RecoverOutcome::AlreadyTerminal(RolloutOutcome::Committed));
        }
        if view.aborted {
            return Ok(RecoverOutcome::AlreadyTerminal(RolloutOutcome::Aborted(
                view.abort_reason.unwrap_or_else(|| "aborted".into()),
            )));
        }
        telemetry::metrics()
            .counter("c3_rollout_recoveries_total")
            .inc();
        if view.commit_intent {
            // Roll forward: every wave already passed its health gate;
            // finish applying whatever the crash interrupted.
            for (wave, locks) in plan.waves.iter().enumerate() {
                let present: BTreeSet<String> = target
                    .applied_locks(plan.generation, locks)
                    .into_iter()
                    .collect();
                let missing: Vec<String> = locks
                    .iter()
                    .filter(|l| !present.contains(*l))
                    .cloned()
                    .collect();
                if missing.is_empty() {
                    continue;
                }
                log.append(Intent::WaveApplyIntent { wave });
                chaos.barrier()?;
                target
                    .apply_locks(plan.generation, &missing)
                    .map_err(RolloutError::Target)?;
                chaos.barrier()?;
                log.append(Intent::WaveApplied { wave });
                chaos.barrier()?;
            }
            log.append(Intent::Committed);
            chaos.barrier()?;
            telemetry::metrics()
                .counter("c3_rollout_commits_total")
                .inc();
            Ok(RecoverOutcome::RolledForward)
        } else {
            if view.abort_reason.is_none() {
                telemetry::metrics()
                    .counter("c3_rollout_aborts_total")
                    .inc();
                log.append(Intent::AbortIntent {
                    reason: "crash recovery rollback".into(),
                });
                chaos.barrier()?;
            }
            Self::rollback_waves(&plan, log, target, chaos)?;
            log.append(Intent::Aborted);
            chaos.barrier()?;
            Ok(RecoverOutcome::RolledBack)
        }
    }

    /// Human-readable state summary for `c3ctl rollout status`.
    pub fn status(log: &RolloutLog) -> RolloutStatus {
        let view = log.view();
        let Some(plan) = view.plan.as_ref() else {
            return RolloutStatus {
                generation: 0,
                policy: String::new(),
                hook: None,
                waves_total: 0,
                waves_healthy: 0,
                records: view.records,
                state: "idle".into(),
            };
        };
        let state = if view.committed {
            "committed".to_string()
        } else if view.aborted {
            format!(
                "aborted: {}",
                view.abort_reason.as_deref().unwrap_or("(no reason)")
            )
        } else if view.abort_reason.is_some() {
            "aborting (run `rollout recover` to finish)".into()
        } else if view.commit_intent {
            "committing (run `rollout recover` to finish)".into()
        } else if view.healthy_waves >= plan.waves.len() {
            "all waves healthy (promote to commit)".into()
        } else {
            format!(
                "wave {}/{} (promote to continue)",
                view.healthy_waves,
                plan.waves.len()
            )
        };
        RolloutStatus {
            generation: plan.generation,
            policy: plan.policy.clone(),
            hook: Some(plan.hook),
            waves_total: plan.waves.len(),
            waves_healthy: view.healthy_waves,
            records: view.records,
            state,
        }
    }

    fn advance<T: RolloutTarget + ?Sized, H: HealthEvaluator + ?Sized>(
        log: &RolloutLog,
        target: &T,
        health: &mut H,
        chaos: &ChaosInjector,
    ) -> Result<WaveOutcome, RolloutError> {
        let view = log.view();
        let plan = view
            .plan
            .clone()
            .ok_or_else(|| RolloutError::BadState("no rollout in this log".into()))?;
        let wave = view.healthy_waves;
        let locks = plan.waves[wave].clone();
        log.append(Intent::WaveApplyIntent { wave });
        chaos.barrier()?;
        health.baseline(wave, &locks);
        match target.apply_locks(plan.generation, &locks) {
            Ok(()) => {
                chaos.barrier()?;
                log.append(Intent::WaveApplied { wave });
                chaos.barrier()?;
                telemetry::metrics()
                    .counter("c3_rollout_waves_applied_total")
                    .inc();
                match health.judge(wave, &locks) {
                    HealthVerdict::Green => {
                        Self::emit_health(plan.generation, wave, None);
                        log.append(Intent::WaveHealthy { wave });
                        chaos.barrier()?;
                        if wave + 1 >= plan.waves.len() {
                            let view = log.view();
                            Self::commit(&view, log, chaos)
                        } else {
                            Ok(WaveOutcome::WaveHealthy {
                                wave,
                                remaining: plan.waves.len() - wave - 1,
                            })
                        }
                    }
                    HealthVerdict::Red(reason) => {
                        Self::emit_health(plan.generation, wave, Some(&reason));
                        Self::abort_inner(reason.clone(), log, target, chaos)?;
                        Ok(WaveOutcome::Aborted(reason))
                    }
                }
            }
            Err(msg) => {
                // The wave's transaction unwound; nothing from this wave
                // is live. Earlier waves still are — roll them back.
                chaos.barrier()?;
                let reason = format!("wave {wave} apply failed: {msg}");
                Self::abort_inner(reason.clone(), log, target, chaos)?;
                Ok(WaveOutcome::Aborted(reason))
            }
        }
    }

    fn commit(
        view: &LogView,
        log: &RolloutLog,
        chaos: &ChaosInjector,
    ) -> Result<WaveOutcome, RolloutError> {
        if !view.commit_intent {
            log.append(Intent::CommitIntent);
            chaos.barrier()?;
        }
        log.append(Intent::Committed);
        chaos.barrier()?;
        telemetry::metrics()
            .counter("c3_rollout_commits_total")
            .inc();
        Ok(WaveOutcome::Committed)
    }

    fn abort_inner<T: RolloutTarget + ?Sized>(
        reason: String,
        log: &RolloutLog,
        target: &T,
        chaos: &ChaosInjector,
    ) -> Result<(), RolloutError> {
        telemetry::metrics()
            .counter("c3_rollout_aborts_total")
            .inc();
        log.append(Intent::AbortIntent { reason });
        chaos.barrier()?;
        let plan = log
            .view()
            .plan
            .ok_or_else(|| RolloutError::BadState("abort without a plan".into()))?;
        Self::rollback_waves(&plan, log, target, chaos)?;
        log.append(Intent::Aborted);
        chaos.barrier()?;
        Ok(())
    }

    /// Reverts every wave that still has this generation's patches,
    /// newest wave first, probing actual state per wave so the pass is
    /// idempotent across crash/recover cycles.
    fn rollback_waves<T: RolloutTarget + ?Sized>(
        plan: &PlanView,
        log: &RolloutLog,
        target: &T,
        chaos: &ChaosInjector,
    ) -> Result<(), RolloutError> {
        for wave in (0..plan.waves.len()).rev() {
            let locks = &plan.waves[wave];
            let present = target.applied_locks(plan.generation, locks);
            if present.is_empty() {
                continue;
            }
            log.append(Intent::WaveRevertIntent { wave });
            chaos.barrier()?;
            target
                .revert_locks(plan.generation, &present)
                .map_err(RolloutError::Target)?;
            chaos.barrier()?;
            log.append(Intent::WaveReverted { wave });
            chaos.barrier()?;
        }
        Ok(())
    }

    fn emit_health(generation: u64, wave: usize, red: Option<&str>) {
        telemetry::metrics()
            .counter(if red.is_some() {
                "c3_rollout_health_red_total"
            } else {
                "c3_rollout_health_green_total"
            })
            .inc();
        if telemetry::armed() {
            telemetry::emit_payload(
                telemetry::EventKind::RolloutHealth,
                telemetry::clock::now_ns(),
                0,
                generation,
                wave as u64,
                0,
                u64::from(red.is_some()),
                red.unwrap_or("green").as_bytes(),
            );
        }
    }
}

/// Summary of a log for `c3ctl rollout status`.
#[derive(Clone, Debug)]
pub struct RolloutStatus {
    /// Plan generation (0 when idle).
    pub generation: u64,
    /// Policy being rolled out.
    pub policy: String,
    /// Target hook.
    pub hook: Option<HookKind>,
    /// Waves in the plan.
    pub waves_total: usize,
    /// Waves that passed health.
    pub waves_healthy: usize,
    /// Records in the log.
    pub records: usize,
    /// Human-readable state.
    pub state: String,
}

impl fmt::Display for RolloutStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.hook {
            Some(hook) => write!(
                f,
                "gen={} policy={} hook={} waves={}/{} records={} state: {}",
                self.generation,
                self.policy,
                hook.name(),
                self.waves_healthy,
                self.waves_total,
                self.records,
                self.state
            ),
            None => write!(
                f,
                "no rollout (records={}) state: {}",
                self.records, self.state
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos sweep harness

/// The crash-point sweep shared by `tests/rollout_chaos.rs` and the
/// `chaos_gate` CI bin.
pub mod chaos {
    use super::{ChaosPlan, RolloutError};

    /// How one scenario run left the world.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Convergence {
        /// Every lock in the plan carries the rollout policy.
        AllApplied,
        /// No lock carries it.
        AllReverted,
        /// Some do, some don't — the state the tentpole forbids.
        Mixed(String),
    }

    /// What a scenario reports back to the sweep.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SweepOutcome {
        /// Post-recovery state of the world.
        pub converged: Convergence,
        /// Step boundaries the run crossed (crash-point space).
        pub steps: u64,
        /// Replay fingerprint (log fold, sim trace hash, …).
        pub fingerprint: u64,
    }

    /// Aggregate result of a full sweep.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SweepReport {
        /// The seed swept.
        pub seed: u64,
        /// Crash points exercised (= the inert run's step count).
        pub crash_points: u64,
        /// Runs that converged to fully applied.
        pub applied_runs: u64,
        /// Runs that converged to fully reverted.
        pub reverted_runs: u64,
        /// The inert (no-crash) run's fingerprint.
        pub baseline_fingerprint: u64,
    }

    /// Runs `scenario` once with an inert plan to measure the step
    /// space, then once per crash point; every run must converge.
    /// `scenario` builds a fresh world, runs the rollout under the given
    /// plan, recovers if it crashed, and reports the final state.
    ///
    /// # Errors
    ///
    /// The first non-convergence, as `"seed S crash-at K: ..."`.
    pub fn crash_sweep(
        seed: u64,
        mut scenario: impl FnMut(ChaosPlan) -> Result<SweepOutcome, RolloutError>,
    ) -> Result<SweepReport, String> {
        let baseline = scenario(ChaosPlan::inert(seed))
            .map_err(|e| format!("seed {seed} inert run failed: {e}"))?;
        if let Convergence::Mixed(detail) = &baseline.converged {
            return Err(format!("seed {seed} inert run left mixed state: {detail}"));
        }
        let mut report = SweepReport {
            seed,
            crash_points: baseline.steps,
            applied_runs: 0,
            reverted_runs: 0,
            baseline_fingerprint: baseline.fingerprint,
        };
        let mut tally = |outcome: &SweepOutcome, at: String| match &outcome.converged {
            Convergence::AllApplied => {
                report.applied_runs += 1;
                Ok(())
            }
            Convergence::AllReverted => {
                report.reverted_runs += 1;
                Ok(())
            }
            Convergence::Mixed(detail) => Err(format!("seed {seed} {at}: mixed state: {detail}")),
        };
        tally(&baseline, "inert".into())?;
        for step in 0..baseline.steps {
            let outcome = scenario(ChaosPlan::crash_at(seed, step))
                .map_err(|e| format!("seed {seed} crash-at {step}: {e}"))?;
            tally(&outcome, format!("crash-at {step}"))?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pure in-memory target: the reference world for controller unit
    /// tests.
    struct MockTarget {
        locks: Vec<String>,
        applied: RefCell<BTreeMap<String, u64>>,
        fail_apply: RefCell<BTreeSet<String>>,
    }

    impl MockTarget {
        fn new(n: usize) -> Self {
            MockTarget {
                locks: (0..n).map(|i| format!("l{i}")).collect(),
                applied: RefCell::new(BTreeMap::new()),
                fail_apply: RefCell::new(BTreeSet::new()),
            }
        }
    }

    impl RolloutTarget for MockTarget {
        fn apply_locks(&self, generation: u64, locks: &[String]) -> Result<(), String> {
            for l in locks {
                if self.fail_apply.borrow().contains(l) {
                    return Err(format!("scripted failure on {l}"));
                }
            }
            let mut applied = self.applied.borrow_mut();
            for l in locks {
                applied.insert(l.clone(), generation);
            }
            Ok(())
        }

        fn applied_locks(&self, generation: u64, locks: &[String]) -> Vec<String> {
            let applied = self.applied.borrow();
            locks
                .iter()
                .filter(|l| applied.get(*l) == Some(&generation))
                .cloned()
                .collect()
        }

        fn revert_locks(&self, generation: u64, locks: &[String]) -> Result<(), String> {
            let mut applied = self.applied.borrow_mut();
            for l in locks {
                if applied.get(l) == Some(&generation) {
                    applied.remove(l);
                }
            }
            Ok(())
        }
    }

    fn plan_over(target: &MockTarget, waves_pcts: &[u32]) -> RolloutPlan {
        RolloutPlan::staged(1, "p", HookKind::CmpNode, &target.locks, waves_pcts)
    }

    #[test]
    fn staged_plan_shapes() {
        let locks: Vec<String> = (0..20).map(|i| format!("l{i}")).collect();
        let plan = RolloutPlan::staged(3, "p", HookKind::CmpNode, &locks, &[10, 50]);
        let sizes: Vec<usize> = plan.waves.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![1, 1, 8, 10]);
        assert_eq!(plan.total_locks(), 20);
        // One lock: just the canary.
        let one = RolloutPlan::staged(1, "p", HookKind::CmpNode, &locks[..1], &[50]);
        assert_eq!(one.waves, vec![vec!["l0".to_string()]]);
        // No percent waves: canary + rest.
        let two = RolloutPlan::staged(1, "p", HookKind::CmpNode, &locks[..5], &[]);
        assert_eq!(two.waves.len(), 2);
        assert_eq!(two.waves[0].len(), 1);
        assert_eq!(two.waves[1].len(), 4);
    }

    #[test]
    fn green_run_commits_all_waves() {
        let target = MockTarget::new(10);
        let log = RolloutLog::new();
        let chaos = ChaosInjector::inert();
        let outcome = Rollout::run(
            plan_over(&target, &[30]),
            &log,
            &target,
            &mut AlwaysGreen,
            &chaos,
        )
        .unwrap();
        assert_eq!(outcome, RolloutOutcome::Committed);
        assert_eq!(target.applied.borrow().len(), 10);
        let records = log.records();
        assert_eq!(records.last(), Some(&Intent::Committed));
        assert!(records.contains(&Intent::CommitIntent));
        assert_eq!(Rollout::status(&log).state, "committed");
    }

    #[test]
    fn red_health_aborts_and_rolls_back() {
        let target = MockTarget::new(10);
        let log = RolloutLog::new();
        let chaos = ChaosInjector::inert();
        let mut health = ScriptedHealth::new(vec![
            HealthVerdict::Green,
            HealthVerdict::Red("bad p99".into()),
        ]);
        let outcome = Rollout::run(
            plan_over(&target, &[30]),
            &log,
            &target,
            &mut health,
            &chaos,
        )
        .unwrap();
        assert_eq!(outcome, RolloutOutcome::Aborted("bad p99".into()));
        assert!(target.applied.borrow().is_empty(), "all waves rolled back");
        let records = log.records();
        assert_eq!(records.last(), Some(&Intent::Aborted));
        assert!(records
            .iter()
            .any(|r| matches!(r, Intent::AbortIntent { reason } if reason == "bad p99")));
        // Waves revert newest-first.
        let reverted: Vec<usize> = records
            .iter()
            .filter_map(|r| match r {
                Intent::WaveReverted { wave } => Some(*wave),
                _ => None,
            })
            .collect();
        assert_eq!(reverted, vec![1, 0]);
    }

    #[test]
    fn apply_failure_unwinds_and_aborts() {
        let target = MockTarget::new(6);
        target.fail_apply.borrow_mut().insert("l3".into());
        let log = RolloutLog::new();
        let chaos = ChaosInjector::inert();
        let outcome = Rollout::run(
            plan_over(&target, &[50]),
            &log,
            &target,
            &mut AlwaysGreen,
            &chaos,
        )
        .unwrap();
        match outcome {
            RolloutOutcome::Aborted(reason) => assert!(reason.contains("apply failed")),
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(target.applied.borrow().is_empty());
    }

    #[test]
    fn stepwise_promote_and_operator_abort() {
        let target = MockTarget::new(9);
        let log = RolloutLog::new();
        let chaos = ChaosInjector::inert();
        let out = Rollout::start(
            plan_over(&target, &[50]),
            &log,
            &target,
            &mut AlwaysGreen,
            &chaos,
        )
        .unwrap();
        assert_eq!(
            out,
            WaveOutcome::WaveHealthy {
                wave: 0,
                remaining: 2
            }
        );
        assert_eq!(target.applied.borrow().len(), 1, "canary only");
        // A second start on the same log is refused.
        assert!(matches!(
            Rollout::start(
                plan_over(&target, &[]),
                &log,
                &target,
                &mut AlwaysGreen,
                &chaos
            ),
            Err(RolloutError::BadState(_))
        ));
        let out = Rollout::promote(&log, &target, &mut AlwaysGreen, &chaos).unwrap();
        assert_eq!(
            out,
            WaveOutcome::WaveHealthy {
                wave: 1,
                remaining: 1
            }
        );
        assert_eq!(target.applied.borrow().len(), 5);
        let aborted = Rollout::abort("operator said no", &log, &target, &chaos).unwrap();
        assert_eq!(
            aborted,
            RolloutOutcome::Aborted("operator said no".to_string())
        );
        assert!(target.applied.borrow().is_empty());
        assert!(matches!(
            Rollout::promote(&log, &target, &mut AlwaysGreen, &chaos),
            Err(RolloutError::BadState(_))
        ));
    }

    #[test]
    fn crash_then_recover_converges_at_every_step() {
        // The micro version of the chaos suite: the mock world, every
        // crash point, one seed.
        let sweep = chaos::crash_sweep(7, |plan| {
            let target = MockTarget::new(8);
            let log = RolloutLog::new();
            let chaos_inj = ChaosInjector::new(plan);
            let run = Rollout::run(
                plan_over(&target, &[50]),
                &log,
                &target,
                &mut AlwaysGreen,
                &chaos_inj,
            );
            if let Err(RolloutError::Crashed(_)) = run {
                // Fresh controller, same durable log and world.
                let fresh = ChaosInjector::inert();
                Rollout::recover(&log, &target, &fresh)?;
            }
            let applied = target.applied.borrow().len();
            let converged = if applied == target.locks.len() {
                chaos::Convergence::AllApplied
            } else if applied == 0 {
                chaos::Convergence::AllReverted
            } else {
                chaos::Convergence::Mixed(format!("{applied}/{} applied", target.locks.len()))
            };
            Ok(chaos::SweepOutcome {
                converged,
                steps: chaos_inj.steps_taken(),
                fingerprint: log.fingerprint(),
            })
        })
        .unwrap();
        assert!(sweep.crash_points > 10);
        assert!(sweep.applied_runs >= 1, "inert run applies");
        assert!(sweep.reverted_runs >= 1, "early crashes revert");
    }

    #[test]
    fn recover_rolls_forward_after_commit_intent() {
        let target = MockTarget::new(4);
        let log = RolloutLog::new();
        // Hand-build a log that crashed right after CommitIntent with
        // one straggler wave un-applied (an impossible state for the
        // real controller, but recovery must still converge forward).
        let plan = plan_over(&target, &[]);
        log.append(Intent::PlanStart {
            generation: plan.generation,
            policy: plan.policy.clone(),
            hook: plan.hook,
            waves: plan.waves.clone(),
        });
        target.apply_locks(1, &plan.waves[0]).unwrap();
        log.append(Intent::WaveApplied { wave: 0 });
        log.append(Intent::WaveHealthy { wave: 0 });
        log.append(Intent::WaveHealthy { wave: 1 });
        log.append(Intent::CommitIntent);
        let out = Rollout::recover(&log, &target, &ChaosInjector::inert()).unwrap();
        assert_eq!(out, RecoverOutcome::RolledForward);
        assert_eq!(target.applied.borrow().len(), 4);
        assert_eq!(log.records().last(), Some(&Intent::Committed));
        // Recovery on a terminal log is a no-op.
        assert_eq!(
            Rollout::recover(&log, &target, &ChaosInjector::inert()).unwrap(),
            RecoverOutcome::AlreadyTerminal(RolloutOutcome::Committed)
        );
    }

    #[test]
    fn recover_empty_log_is_noop() {
        let target = MockTarget::new(2);
        let log = RolloutLog::new();
        assert_eq!(
            Rollout::recover(&log, &target, &ChaosInjector::inert()).unwrap(),
            RecoverOutcome::NoRollout
        );
    }

    #[test]
    fn log_fingerprint_is_order_and_content_sensitive() {
        let a = RolloutLog::new();
        let b = RolloutLog::new();
        a.append(Intent::WaveApplyIntent { wave: 0 });
        a.append(Intent::WaveApplied { wave: 0 });
        b.append(Intent::WaveApplied { wave: 0 });
        b.append(Intent::WaveApplyIntent { wave: 0 });
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = RolloutLog::new();
        c.append(Intent::AbortIntent { reason: "x".into() });
        let d = RolloutLog::new();
        d.append(Intent::AbortIntent { reason: "y".into() });
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn scripted_health_defaults_green_past_script() {
        let mut h = ScriptedHealth::new(vec![HealthVerdict::Red("no".into())]);
        assert_eq!(h.judge(0, &[]), HealthVerdict::Red("no".into()));
        assert_eq!(h.judge(1, &[]), HealthVerdict::Green);
    }

    #[test]
    fn chaos_rng_is_seed_stable() {
        let a = ChaosInjector::new(ChaosPlan::inert(42));
        let b = ChaosInjector::new(ChaosPlan::inert(42));
        let c = ChaosInjector::new(ChaosPlan::inert(43));
        assert_eq!(a.rng(1), b.rng(1));
        assert_ne!(a.rng(1), a.rng(2));
        assert_ne!(a.rng(1), c.rng(1));
    }
}
