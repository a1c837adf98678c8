//! Policy-driven schedule exploration (DESIGN.md §4.8).
//!
//! A systematic concurrency-testing subsystem: the hook sites that Concord
//! already intercepts for policy dispatch double as *injection points* for a
//! schedule explorer. A pluggable [`ScheduleStrategy`] decides at every
//! [`SchedPoint`] whether the arriving task proceeds, is delayed, or has its
//! CPU preempted — turning one deterministic simulation into a family of
//! adversarial schedules indexed by seed.
//!
//! Three strategy families are provided:
//!
//! - **random** — bounded delay injection with probability `p` per point;
//! - **pct** — PCT-style randomized priorities with `d` change points
//!   (Burckhardt et al.): each task gets a priority bucket, lower-priority
//!   tasks are slowed by a fixed unit per bucket, and priorities reshuffle
//!   at `d` randomly-drawn points;
//! - **policy** — a verified `cbpf` program decides from the same kind of
//!   context a production policy sees; the *test schedule itself* is a
//!   policy, closing the paper's loop (the mechanism that customizes locks
//!   also stress-tests them).
//!
//! Each schedule runs a fixture workload under `ksim` and is judged by
//! oracles: mutual exclusion, lock-order cycles (lockdep-style), deadlock
//! (stuck tasks at drain), starvation bounds, and the three Table 1 hazard
//! classes via [`watchdog::detect`]. On failure the injection list is
//! shrunk ddmin-style to a minimal [`Repro`] that replays bit-identically
//! (trace-hash pinned, like `chaos::crash_sweep`).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;
use std::sync::OnceLock;

use cbpf::helpers::{HelperId, PolicyEnv};
use cbpf::verifier::{verify_with_rules, HookRules};
use cbpf::{compile_dsl, CtxLayout, PreparedProgram};
use ksim::{
    CpuId, Histogram, Injection, PctStrategy, RandomDelayStrategy, ReplayStrategy, SchedAction,
    SchedController, SchedPoint, ScheduleStrategy, SimBuilder, SplitMix64,
};
use simlocks::{
    BrokenTicketLock, InversionPair, SimBravo, SimMcsLock, SimNeutralRwLock, SimPhaseFairRwLock,
    SimShflLock, SimTasLock, SimTicketLock, UnfairStealLock,
};

use crate::hookctx::{build_layout, packed, put32, put64, Fields};
use crate::watchdog::{detect, WatchdogConfig, WindowStats};

/// Seed used for the uninjected baseline run of fixtures whose hazard
/// oracle compares against a clean window. Fixed (not derived from the
/// exploration seed) so `explore` and [`Repro::replay`] agree.
pub const BASELINE_SEED: u64 = 0xba5e;

/// Budget for one policy-strategy decision (instructions).
const POLICY_DECIDE_BUDGET: u64 = 8_192;

/// High bit of a policy-strategy return value selects Preempt over Delay.
pub const PREEMPT_BIT: u64 = 1 << 63;

/// Starvation bound for the `steal` fixture: the longest single wait the
/// victim may see under an uninjected schedule, with margin. Exceeding it
/// under injection is the planted unfairness surfacing.
const STEAL_STARVATION_BOUND_NS: u64 = 250_000;

// ---------------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------------

/// What an oracle observed. `kind()` is the stable identity used by the
/// shrinker (a candidate schedule must reproduce the same kind) and by the
/// replay artifact.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Two owners inside one critical section.
    Mutex {
        lock: u64,
        holder: u32,
        intruder: u32,
    },
    /// The lock-order graph acquired a cycle (lockdep-style).
    LockOrder { first: u64, then: u64 },
    /// Tasks still suspended when the event heap drained.
    Deadlock { stuck: usize },
    /// A single wait exceeded the fixture's starvation bound.
    Starvation {
        task: u32,
        wait_ns: u64,
        bound_ns: u64,
    },
    /// A Table 1 hazard class fired against the baseline window.
    Hazard { class: &'static str, detail: String },
}

impl Violation {
    /// Stable kind name (artifact files, shrink equivalence).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Mutex { .. } => "mutex",
            Violation::LockOrder { .. } => "lock_order",
            Violation::Deadlock { .. } => "deadlock",
            Violation::Starvation { .. } => "starvation",
            Violation::Hazard { .. } => "hazard",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Mutex {
                lock,
                holder,
                intruder,
            } => write!(
                f,
                "mutual exclusion broken on lock {lock}: task {intruder} entered while task {holder} held it"
            ),
            Violation::LockOrder { first, then } => write!(
                f,
                "lock-order cycle: acquiring {then} while holding {first} closes a cycle"
            ),
            Violation::Deadlock { stuck } => write!(f, "deadlock: {stuck} task(s) stuck at drain"),
            Violation::Starvation {
                task,
                wait_ns,
                bound_ns,
            } => write!(
                f,
                "starvation: task {task} waited {wait_ns}ns (bound {bound_ns}ns)"
            ),
            Violation::Hazard { class, detail } => write!(f, "hazard ({class}): {detail}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Monitor: the oracles that watch a fixture run
// ---------------------------------------------------------------------------

/// Ordered tables throughout: what the oracles report (a conflicting
/// shared holder is the lowest task id) depends on the events alone.
#[derive(Default)]
struct MonState {
    /// lock -> (exclusive owner, shared owners).
    owners: BTreeMap<u64, (Option<u32>, BTreeSet<u32>)>,
    /// task -> locks currently held (for order edges).
    held: BTreeMap<u32, Vec<u64>>,
    /// Directed lock-order edges `held -> wanted`.
    edges: BTreeMap<u64, BTreeSet<u64>>,
    wait_from: BTreeMap<(u32, u64), u64>,
    held_from: BTreeMap<(u32, u64), u64>,
    wait: Histogram,
    hold: Histogram,
    max_wait: u64,
    max_wait_task: u32,
    violation: Option<Violation>,
}

/// Records lock events from a fixture workload and checks the safety
/// oracles inline. Non-async: workloads call it around their lock ops with
/// `t.now()` in hand, so it charges no virtual time and perturbs nothing.
#[derive(Default)]
pub struct Monitor {
    s: RefCell<MonState>,
}

impl Monitor {
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Task `task` starts waiting for `lock` at `now`. Adds lock-order
    /// edges from every lock it already holds and cycle-checks.
    pub fn acquiring(&self, lock: u64, task: u32, now: u64) {
        let mut s = self.s.borrow_mut();
        let MonState {
            held,
            edges,
            wait_from,
            violation,
            ..
        } = &mut *s;
        wait_from.insert((task, lock), now);
        for &h in held.get(&task).into_iter().flatten() {
            if h == lock {
                continue;
            }
            edges.entry(h).or_default().insert(lock);
            // Edge h -> lock just landed; a path lock ->* h closes a cycle.
            if violation.is_none() && has_path(edges, lock, h) {
                *violation = Some(Violation::LockOrder {
                    first: h,
                    then: lock,
                });
            }
        }
    }

    /// Task `task` entered the critical section of `lock` at `now`.
    pub fn acquired(&self, lock: u64, task: u32, now: u64, exclusive: bool) {
        let mut s = self.s.borrow_mut();
        let s = &mut *s;
        let (excl, shared) = s.owners.entry(lock).or_default();
        let conflict = if exclusive {
            excl.or_else(|| shared.first().copied())
        } else {
            *excl
        };
        if exclusive {
            *excl = Some(task);
        } else {
            shared.insert(task);
        }
        if let Some(holder) = conflict {
            if s.violation.is_none() {
                s.violation = Some(Violation::Mutex {
                    lock,
                    holder,
                    intruder: task,
                });
            }
        }
        s.held.entry(task).or_default().push(lock);
        if let Some(from) = s.wait_from.remove(&(task, lock)) {
            let w = now.saturating_sub(from);
            s.wait.record(w);
            if w > s.max_wait {
                s.max_wait = w;
                s.max_wait_task = task;
            }
        }
        s.held_from.insert((task, lock), now);
    }

    /// Task `task` left the critical section of `lock` at `now`.
    pub fn released(&self, lock: u64, task: u32, now: u64) {
        let mut s = self.s.borrow_mut();
        if let Some(from) = s.held_from.remove(&(task, lock)) {
            s.hold.record(now.saturating_sub(from));
        }
        if let Some((excl, shared)) = s.owners.get_mut(&lock) {
            if *excl == Some(task) {
                *excl = None;
            }
            shared.remove(&task);
        }
        if let Some(v) = s.held.get_mut(&task) {
            if let Some(pos) = v.iter().rposition(|l| *l == lock) {
                v.remove(pos);
            }
        }
    }

    fn take_violation(&self) -> Option<Violation> {
        self.s.borrow_mut().violation.take()
    }

    fn max_wait(&self) -> (u64, u32) {
        let s = self.s.borrow();
        (s.max_wait, s.max_wait_task)
    }

    fn window(&self) -> WindowStats {
        let s = self.s.borrow();
        WindowStats::from_hists(&s.wait, &s.hold)
    }
}

/// BFS reachability over the lock-order edge set.
fn has_path(edges: &BTreeMap<u64, BTreeSet<u64>>, from: u64, to: u64) -> bool {
    if from == to {
        return true;
    }
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = edges.get(&n) {
            for &m in next {
                if m == to {
                    return true;
                }
                stack.push(m);
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Fixtures: workloads the explorer drives
// ---------------------------------------------------------------------------

/// A lock from the correct simlocks zoo, for sweep testing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ZooLock {
    Mcs,
    Ticket,
    Tas,
    Shfl,
    PhaseFair,
    Bravo,
    Rw,
}

impl ZooLock {
    pub const ALL: [ZooLock; 7] = [
        ZooLock::Mcs,
        ZooLock::Ticket,
        ZooLock::Tas,
        ZooLock::Shfl,
        ZooLock::PhaseFair,
        ZooLock::Bravo,
        ZooLock::Rw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ZooLock::Mcs => "mcs",
            ZooLock::Ticket => "ticket",
            ZooLock::Tas => "tas",
            ZooLock::Shfl => "shfl",
            ZooLock::PhaseFair => "phasefair",
            ZooLock::Bravo => "bravo",
            ZooLock::Rw => "rw",
        }
    }
}

/// A workload + oracle configuration the explorer can run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fixture {
    /// Planted bug: ticket take is a non-atomic load/store pair.
    BrokenTicket,
    /// Planted bug: two lock orders for the same pair (AB vs BA).
    Inversion,
    /// Planted bug: barging lock that always lets stealers win.
    Steal,
    /// A correct zoo lock under generic contention (no planted bug).
    Zoo(ZooLock),
}

impl Fixture {
    /// The three deliberately buggy fixtures the CI gate must catch.
    pub const BROKEN: [Fixture; 3] = [Fixture::BrokenTicket, Fixture::Inversion, Fixture::Steal];

    pub fn name(&self) -> String {
        match self {
            Fixture::BrokenTicket => "broken_ticket".to_string(),
            Fixture::Inversion => "inversion".to_string(),
            Fixture::Steal => "steal".to_string(),
            Fixture::Zoo(z) => format!("zoo_{}", z.name()),
        }
    }

    pub fn from_name(name: &str) -> Option<Fixture> {
        match name {
            "broken_ticket" => Some(Fixture::BrokenTicket),
            "inversion" => Some(Fixture::Inversion),
            "steal" => Some(Fixture::Steal),
            _ => {
                let z = name.strip_prefix("zoo_")?;
                ZooLock::ALL
                    .into_iter()
                    .find(|l| l.name() == z)
                    .map(Fixture::Zoo)
            }
        }
    }

    /// Largest single wait tolerated before the starvation oracle fires.
    fn starvation_bound_ns(&self) -> Option<u64> {
        match self {
            Fixture::Steal => Some(STEAL_STARVATION_BOUND_NS),
            _ => None,
        }
    }

    /// Whether the Table 1 hazard oracle compares against a baseline window.
    fn uses_hazard_oracle(&self) -> bool {
        matches!(self, Fixture::Steal)
    }

    /// Runs the fixture's uninjected baseline and returns its window, for
    /// fixtures whose hazard oracle needs one. The run depends on nothing
    /// but the fixture and [`BASELINE_SEED`], so it runs once per process.
    pub fn baseline_window(&self) -> Option<WindowStats> {
        // One cell per fixture that `uses_hazard_oracle`.
        static STEAL: OnceLock<WindowStats> = OnceLock::new();
        match self {
            Fixture::Steal => {
                Some(*STEAL.get_or_init(|| self.run(BASELINE_SEED, None, None).window))
            }
            _ => None,
        }
    }

    /// Runs one schedule of this fixture: `seed` seeds the simulator,
    /// `strategy` (if any) drives the injection points, and `baseline`
    /// feeds the hazard oracle. Fully deterministic in its arguments.
    pub fn run(
        &self,
        seed: u64,
        strategy: Option<Box<dyn ScheduleStrategy>>,
        baseline: Option<&WindowStats>,
    ) -> RunOutcome {
        let sim = SimBuilder::new().seed(seed).build();
        let controller = strategy.map(|s| Rc::new(SchedController::new(s)));
        if let Some(c) = &controller {
            sim.set_sched_hook(Some(Rc::clone(c)));
        }
        let monitor = Rc::new(Monitor::new());
        self.spawn_workload(&sim, &monitor);
        let stats = sim.run();
        // A deadlocked schedule ends with stuck tasks, whose futures would
        // keep the whole simulation alive past this call.
        sim.teardown();

        let mut violation = monitor.take_violation();
        if violation.is_none() && !stats.stuck_tasks.is_empty() {
            violation = Some(Violation::Deadlock {
                stuck: stats.stuck_tasks.len(),
            });
        }
        if violation.is_none() {
            if let Some(bound) = self.starvation_bound_ns() {
                let (w, task) = monitor.max_wait();
                if w > bound {
                    violation = Some(Violation::Starvation {
                        task,
                        wait_ns: w,
                        bound_ns: bound,
                    });
                }
            }
        }
        let window = monitor.window();
        if violation.is_none() && self.uses_hazard_oracle() {
            if let Some(base) = baseline {
                let cfg = WatchdogConfig {
                    min_acquisitions: 50,
                };
                if let Some(report) = detect(base, &window, &cfg) {
                    let class = match report.hazard {
                        locks::hooks::Hazard::Fairness => "fairness",
                        locks::hooks::Hazard::Performance => "performance",
                        locks::hooks::Hazard::CriticalSection => "critical_section",
                    };
                    violation = Some(Violation::Hazard {
                        class,
                        detail: report.detail,
                    });
                }
            }
        }
        RunOutcome {
            violation,
            trace_hash: stats.trace_hash,
            final_time_ns: stats.final_time_ns,
            points: controller.as_ref().map(|c| c.points()).unwrap_or(0),
            injections: controller
                .as_ref()
                .map(|c| c.injections())
                .unwrap_or_default(),
            window,
        }
    }

    fn spawn_workload(&self, sim: &ksim::Sim, monitor: &Rc<Monitor>) {
        match self {
            Fixture::BrokenTicket => {
                let lock = Rc::new(BrokenTicketLock::new(sim));
                for i in 0..6u32 {
                    let lock = Rc::clone(&lock);
                    let mon = Rc::clone(monitor);
                    sim.spawn_on(CpuId(i * 10), move |t| async move {
                        t.advance(u64::from(i) * 5_000).await;
                        for _ in 0..6 {
                            mon.acquiring(lock.lock_id(), t.id().0, t.now());
                            lock.acquire(&t).await;
                            mon.acquired(lock.lock_id(), t.id().0, t.now(), true);
                            t.advance(150).await;
                            mon.released(lock.lock_id(), t.id().0, t.now());
                            lock.release(&t).await;
                            t.advance(40_000).await;
                        }
                    });
                }
            }
            Fixture::Inversion => {
                let pair = Rc::new(InversionPair::new(sim));
                for i in 0..4u32 {
                    let pair = Rc::clone(&pair);
                    let mon = Rc::clone(monitor);
                    // Tasks 0-1 take A then B; tasks 2-3 take B then A.
                    let ab = i < 2;
                    sim.spawn_on(CpuId(i * 10), move |t| async move {
                        t.advance(u64::from(i) * 1_000).await;
                        let (a, b) = (pair.a(), pair.b());
                        let (first, second) = if ab { (a, b) } else { (b, a) };
                        for _ in 0..8 {
                            mon.acquiring(first.lock_id(), t.id().0, t.now());
                            first.acquire(&t).await;
                            mon.acquired(first.lock_id(), t.id().0, t.now(), true);
                            t.advance(80).await;
                            mon.acquiring(second.lock_id(), t.id().0, t.now());
                            second.acquire(&t).await;
                            mon.acquired(second.lock_id(), t.id().0, t.now(), true);
                            t.advance(120).await;
                            mon.released(second.lock_id(), t.id().0, t.now());
                            second.release(&t).await;
                            mon.released(first.lock_id(), t.id().0, t.now());
                            first.release(&t).await;
                            t.advance(900).await;
                        }
                    });
                }
            }
            Fixture::Steal => {
                let lock = Rc::new(UnfairStealLock::new(sim));
                for i in 0..4u32 {
                    let lock = Rc::clone(&lock);
                    let mon = Rc::clone(monitor);
                    sim.spawn_on(CpuId(i), move |t| async move {
                        t.advance(u64::from(i) * 350).await;
                        for _ in 0..50 {
                            mon.acquiring(lock.lock_id(), t.id().0, t.now());
                            lock.acquire(&t).await;
                            mon.acquired(lock.lock_id(), t.id().0, t.now(), true);
                            t.advance(400).await;
                            mon.released(lock.lock_id(), t.id().0, t.now());
                            lock.release(&t).await;
                            t.advance(900).await;
                        }
                    });
                }
                let victim = Rc::clone(&lock);
                let mon = Rc::clone(monitor);
                sim.spawn_on(CpuId(79), move |t| async move {
                    for _ in 0..8 {
                        t.advance(700).await;
                        mon.acquiring(victim.lock_id(), t.id().0, t.now());
                        victim.acquire(&t).await;
                        mon.acquired(victim.lock_id(), t.id().0, t.now(), true);
                        t.advance(100).await;
                        mon.released(victim.lock_id(), t.id().0, t.now());
                        victim.release(&t).await;
                    }
                });
            }
            Fixture::Zoo(z) => spawn_zoo(*z, sim, monitor),
        }
    }
}

/// Exclusive-lock sweep workload shared by the mutex-style zoo locks.
macro_rules! zoo_mutex_workload {
    ($sim:expr, $monitor:expr, $lock_ty:ty) => {{
        let lock = Rc::new(<$lock_ty>::new($sim));
        for i in 0..8u32 {
            let lock = Rc::clone(&lock);
            let mon = Rc::clone($monitor);
            $sim.spawn_on(CpuId(i * 10), move |t| async move {
                t.advance(u64::from(i) * 300).await;
                for _ in 0..10 {
                    mon.acquiring(lock.lock_id(), t.id().0, t.now());
                    lock.acquire(&t).await;
                    mon.acquired(lock.lock_id(), t.id().0, t.now(), true);
                    t.advance(200).await;
                    mon.released(lock.lock_id(), t.id().0, t.now());
                    lock.release(&t).await;
                    t.advance(250).await;
                }
            });
        }
    }};
}

/// Reader/writer sweep workload shared by the rw-style zoo locks.
macro_rules! zoo_rw_workload {
    ($sim:expr, $monitor:expr, $lock_ty:ty) => {{
        let lock = Rc::new(<$lock_ty>::new($sim));
        for i in 0..8u32 {
            let lock = Rc::clone(&lock);
            let mon = Rc::clone($monitor);
            let writer = i < 2;
            $sim.spawn_on(CpuId(i * 10), move |t| async move {
                t.advance(u64::from(i) * 300).await;
                for _ in 0..10 {
                    mon.acquiring(lock.lock_id(), t.id().0, t.now());
                    if writer {
                        lock.write_acquire(&t).await;
                        mon.acquired(lock.lock_id(), t.id().0, t.now(), true);
                        t.advance(200).await;
                        mon.released(lock.lock_id(), t.id().0, t.now());
                        lock.write_release(&t).await;
                    } else {
                        lock.read_acquire(&t).await;
                        mon.acquired(lock.lock_id(), t.id().0, t.now(), false);
                        t.advance(150).await;
                        mon.released(lock.lock_id(), t.id().0, t.now());
                        lock.read_release(&t).await;
                    }
                    t.advance(250).await;
                }
            });
        }
    }};
}

fn spawn_zoo(z: ZooLock, sim: &ksim::Sim, monitor: &Rc<Monitor>) {
    match z {
        ZooLock::Mcs => zoo_mutex_workload!(sim, monitor, SimMcsLock),
        ZooLock::Ticket => zoo_mutex_workload!(sim, monitor, SimTicketLock),
        ZooLock::Tas => zoo_mutex_workload!(sim, monitor, SimTasLock),
        ZooLock::Shfl => {
            let lock = Rc::new(SimShflLock::new(sim));
            for i in 0..8u32 {
                let lock = Rc::clone(&lock);
                let mon = Rc::clone(monitor);
                sim.spawn_on(CpuId(i * 10), move |t| async move {
                    t.advance(u64::from(i) * 300).await;
                    for _ in 0..10 {
                        mon.acquiring(lock.id(), t.id().0, t.now());
                        lock.acquire(&t).await;
                        mon.acquired(lock.id(), t.id().0, t.now(), true);
                        t.advance(200).await;
                        mon.released(lock.id(), t.id().0, t.now());
                        lock.release(&t).await;
                        t.advance(250).await;
                    }
                });
            }
        }
        ZooLock::PhaseFair => zoo_rw_workload!(sim, monitor, SimPhaseFairRwLock),
        ZooLock::Bravo => zoo_rw_workload!(sim, monitor, SimBravo),
        ZooLock::Rw => zoo_rw_workload!(sim, monitor, SimNeutralRwLock),
    }
}

/// Everything one schedule produced.
pub struct RunOutcome {
    pub violation: Option<Violation>,
    pub trace_hash: u64,
    pub final_time_ns: u64,
    /// Schedule points visited (0 when run uninjected).
    pub points: u64,
    /// Non-Proceed decisions the strategy made, in visit order.
    pub injections: Vec<Injection>,
    /// Wait/hold window the monitor observed (hazard-oracle input).
    pub window: WindowStats,
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Serializable description of a strategy; `build(seed)` instantiates it.
#[derive(Clone, Debug, PartialEq)]
pub enum StrategySpec {
    Random { p_mille: u32, max_delay_ns: u64 },
    Pct { buckets: u64, change_points: u32 },
    Policy { src: String },
    Replay(Vec<Injection>),
}

impl StrategySpec {
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::Random { .. } => "random",
            StrategySpec::Pct { .. } => "pct",
            StrategySpec::Policy { .. } => "policy",
            StrategySpec::Replay(_) => "replay",
        }
    }

    /// Default parameterization by strategy name (the c3ctl surface).
    pub fn from_name(name: &str) -> Option<StrategySpec> {
        match name {
            "random" => Some(StrategySpec::Random {
                p_mille: 120,
                max_delay_ns: 60_000,
            }),
            "pct" => Some(StrategySpec::Pct {
                buckets: 8,
                change_points: 3,
            }),
            "policy" => Some(StrategySpec::Policy {
                src: default_policy_src().to_string(),
            }),
            _ => None,
        }
    }

    /// Instantiates the strategy for one schedule. Policy sources are
    /// compiled and verified here; a rejected program is an error, not a
    /// silent no-op.
    pub fn build(&self, seed: u64) -> Result<Box<dyn ScheduleStrategy>, ExploreError> {
        match self {
            StrategySpec::Random {
                p_mille,
                max_delay_ns,
            } => Ok(Box::new(RandomDelayStrategy::new(
                seed,
                *p_mille,
                *max_delay_ns,
            ))),
            StrategySpec::Pct {
                buckets,
                change_points,
            } => Ok(Box::new(PctStrategy::new(
                seed,
                *buckets,
                *change_points,
                4_096,
            ))),
            StrategySpec::Policy { src } => Ok(Box::new(PolicySchedStrategy::compile(src, seed)?)),
            StrategySpec::Replay(injections) => Ok(Box::new(ReplayStrategy::new(injections))),
        }
    }
}

/// The fields of a schedule-point context: the one table behind both the
/// layout a policy is verified against and the offsets the marshalling
/// writes through (see [`crate::hookctx`]).
const SCHED_FIELDS: Fields = &[&[
    ("lock_id", 8),
    ("now_ns", 8),
    ("point_index", 8),
    ("task_seq", 8),
    ("rnd", 8),
    ("site", 4),
    ("task", 4),
    ("cpu", 4),
    ("socket", 4),
]];

/// Size in bytes of a marshalled schedule-point context.
const SCHED_CTX_BYTES: usize = packed(SCHED_FIELDS, None);

/// Context layout a schedule policy sees at each point. All fields are
/// read-only: the program's influence flows only through its return value.
pub fn sched_ctx_layout() -> &'static CtxLayout {
    static LAYOUT: OnceLock<CtxLayout> = OnceLock::new();
    LAYOUT.get_or_init(|| build_layout(SCHED_FIELDS))
}

/// Verifier rules for schedule policies: decision-hook strictness (128
/// insns, no ctx writes) plus the `sched_hint` introspection helper.
pub fn sched_rules() -> HookRules {
    HookRules {
        max_insns: Some(128),
        allowed_helpers: Some(vec![
            HelperId::MapLookup,
            HelperId::MapUpdate,
            HelperId::KtimeNs,
            HelperId::CpuId,
            HelperId::NumaId,
            HelperId::Pid,
            HelperId::Prandom,
            HelperId::TaskPriority,
            HelperId::CpuToNode,
            HelperId::CpuOnline,
            HelperId::TraceEmit,
            HelperId::SchedHint,
        ]),
        allow_ctx_writes: false,
    }
}

/// The default schedule-steering policy, in the cbpf DSL. Concentrates
/// pressure on race windows (site 6) and contended arrivals (site 1); the
/// return encoding is `0` = proceed, high bit = preempt, else delay ns.
pub fn default_policy_src() -> &'static str {
    "let r = sched_hint(2);\n\
     if (site == 6 && (r % 3) != 2)\n\
         return 4000 + (r % 120000);\n\
     if (site == 1 && (r % 5) == 0)\n\
         return 9223372036854775808 + 30000;\n\
     return 0;\n"
}

/// Per-point environment a schedule policy's helpers read.
#[derive(Default)]
struct SchedEnv {
    cpu: Cell<u32>,
    socket: Cell<u32>,
    time: Cell<u64>,
    pid: Cell<u64>,
    rnd: Cell<u64>,
    points: Cell<u64>,
    injections: Cell<u64>,
}

impl PolicyEnv for SchedEnv {
    fn cpu_id(&self) -> u32 {
        self.cpu.get()
    }
    fn numa_id(&self) -> u32 {
        self.socket.get()
    }
    fn ktime_ns(&self) -> u64 {
        self.time.get()
    }
    fn pid(&self) -> u64 {
        self.pid.get()
    }
    fn prandom(&self) -> u64 {
        self.rnd.get()
    }
    fn sched_hint(&self, code: u64) -> u64 {
        match code {
            0 => self.points.get(),
            1 => self.injections.get(),
            2 => self.rnd.get(),
            _ => 0,
        }
    }
}

/// A [`ScheduleStrategy`] whose decisions come from a verified cbpf
/// program: the test schedule is itself a policy.
pub struct PolicySchedStrategy {
    prepared: Rc<PreparedProgram>,
    env: SchedEnv,
    rng: SplitMix64,
}

impl PolicySchedStrategy {
    /// Compiles `src` (cbpf DSL), verifies it under [`sched_rules`], and
    /// prepares it for per-point execution.
    pub fn compile(src: &str, seed: u64) -> Result<PolicySchedStrategy, ExploreError> {
        let layout = sched_ctx_layout();
        let prog = compile_dsl("sched_policy", src, layout)
            .map_err(|e| ExploreError::Policy(e.to_string()))?;
        verify_with_rules(&prog, layout, &sched_rules())
            .map_err(|e| ExploreError::Policy(e.to_string()))?;
        let prepared = prog.prepare(layout);
        Ok(PolicySchedStrategy::over(Rc::new(prepared), seed))
    }

    fn over(prepared: Rc<PreparedProgram>, seed: u64) -> PolicySchedStrategy {
        PolicySchedStrategy {
            prepared,
            env: SchedEnv::default(),
            rng: SplitMix64::new(seed ^ 0x9051_c7ed_0bad_f00d),
        }
    }

    /// The strategy `compile(src, seed)` would give, over the program this
    /// one already compiled: a DSL program has no maps, so everything a
    /// schedule can observe is the fresh environment and random stream.
    pub fn reseeded(&self, seed: u64) -> PolicySchedStrategy {
        PolicySchedStrategy::over(Rc::clone(&self.prepared), seed)
    }

    fn marshal(p: &SchedPoint, rnd: u64) -> [u8; SCHED_CTX_BYTES] {
        const F: Fields = SCHED_FIELDS;
        let mut buf = [0u8; SCHED_CTX_BYTES];
        put64(&mut buf, const { packed(F, Some("lock_id")) }, p.lock_id);
        put64(&mut buf, const { packed(F, Some("now_ns")) }, p.now_ns);
        put64(&mut buf, const { packed(F, Some("point_index")) }, p.index);
        put64(&mut buf, const { packed(F, Some("task_seq")) }, p.task_seq);
        put64(&mut buf, const { packed(F, Some("rnd")) }, rnd);
        put32(&mut buf, const { packed(F, Some("site")) }, p.site.code());
        put32(&mut buf, const { packed(F, Some("task")) }, p.task.0);
        put32(&mut buf, const { packed(F, Some("cpu")) }, p.cpu);
        put32(&mut buf, const { packed(F, Some("socket")) }, p.socket);
        buf
    }
}

impl ScheduleStrategy for PolicySchedStrategy {
    fn decide(&mut self, p: &SchedPoint) -> SchedAction {
        let rnd = self.rng.next_u64();
        self.env.cpu.set(p.cpu);
        self.env.socket.set(p.socket);
        self.env.time.set(p.now_ns);
        self.env.pid.set(u64::from(p.task.0));
        self.env.rnd.set(rnd);
        self.env.points.set(p.index);
        let mut ctx = PolicySchedStrategy::marshal(p, rnd);
        let ret = match self.prepared.run(&mut ctx, &self.env, POLICY_DECIDE_BUDGET) {
            Ok(report) => report.ret,
            // A verified program can only fail by budget; treat as Proceed.
            Err(_) => 0,
        };
        if ret == 0 {
            return SchedAction::Proceed;
        }
        self.env.injections.set(self.env.injections.get() + 1);
        if ret & PREEMPT_BIT != 0 {
            SchedAction::Preempt(ret & !PREEMPT_BIT)
        } else {
            SchedAction::Delay(ret)
        }
    }

    fn name(&self) -> &'static str {
        "policy"
    }
}

// ---------------------------------------------------------------------------
// Explorer + shrinker
// ---------------------------------------------------------------------------

/// Errors from the exploration surface (typed for `c3ctl`).
#[derive(Clone, Debug, PartialEq)]
pub enum ExploreError {
    /// Fixture name not recognized.
    UnknownFixture(String),
    /// Strategy name not recognized.
    UnknownStrategy(String),
    /// Schedule policy rejected by compiler or verifier.
    Policy(String),
    /// Replay artifact malformed.
    BadArtifact(String),
    /// Replaying the recorded injections did not reproduce the violation.
    ReplayDiverged { expected: String, got: String },
    /// Two replays of the shrunk schedule disagreed on trace hash.
    NondeterministicReplay { first: u64, second: u64 },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::UnknownFixture(n) => write!(f, "unknown fixture '{n}'"),
            ExploreError::UnknownStrategy(n) => write!(f, "unknown strategy '{n}'"),
            ExploreError::Policy(e) => write!(f, "schedule policy rejected: {e}"),
            ExploreError::BadArtifact(e) => write!(f, "bad repro artifact: {e}"),
            ExploreError::ReplayDiverged { expected, got } => {
                write!(f, "replay diverged: expected {expected}, got {got}")
            }
            ExploreError::NondeterministicReplay { first, second } => write!(
                f,
                "nondeterministic replay: trace hashes {first:#x} vs {second:#x}"
            ),
        }
    }
}

impl std::error::Error for ExploreError {}

/// Exploration parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Schedules to try before giving up.
    pub schedules: u32,
    /// Base seed; schedule `i` derives its seed deterministically from it.
    pub base_seed: u64,
}

/// Replay budget for the shrinker.
const SHRINK_BUDGET: u32 = 400;

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            schedules: 64,
            base_seed: 0x5eed,
        }
    }
}

/// Result of an exploration campaign.
pub struct ExploreReport {
    pub fixture: String,
    pub strategy: String,
    /// Schedules actually run (≤ configured budget).
    pub schedules_run: u32,
    /// 0-based index of the first failing schedule, if any.
    pub first_bug_schedule: Option<u32>,
    /// The violation the first failing schedule produced.
    pub violation: Option<Violation>,
    /// Minimal replayable artifact (present iff a bug was found).
    pub repro: Option<Repro>,
}

/// Deterministic per-schedule seed derivation.
fn schedule_seed(base: u64, i: u32) -> u64 {
    let mut r = SplitMix64::new(base ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_u64()
}

/// Runs up to `cfg.schedules` seeded schedules of `fixture` under `spec`,
/// stopping at the first oracle violation, which is then shrunk to a
/// minimal [`Repro`].
pub fn explore(
    fixture: Fixture,
    spec: &StrategySpec,
    cfg: &ExploreConfig,
) -> Result<ExploreReport, ExploreError> {
    // A schedule policy is compiled and verified once per campaign — so a
    // rejected program fails here, before any schedule runs — and re-seeded
    // per schedule.
    let policy = match spec {
        StrategySpec::Policy { src } => Some(PolicySchedStrategy::compile(src, 0)?),
        _ => None,
    };
    let baseline = fixture.baseline_window();
    for i in 0..cfg.schedules {
        let seed = schedule_seed(cfg.base_seed, i);
        let strat = match &policy {
            Some(p) => Box::new(p.reseeded(seed)),
            None => spec.build(seed)?,
        };
        let out = fixture.run(seed, Some(strat), baseline.as_ref());
        if let Some(v) = out.violation {
            let repro = shrink(
                fixture,
                seed,
                spec,
                &v,
                out.injections,
                baseline.as_ref(),
                SHRINK_BUDGET,
            )?;
            return Ok(ExploreReport {
                fixture: fixture.name(),
                strategy: spec.name().to_string(),
                schedules_run: i + 1,
                first_bug_schedule: Some(i),
                violation: Some(v),
                repro: Some(repro),
            });
        }
    }
    Ok(ExploreReport {
        fixture: fixture.name(),
        strategy: spec.name().to_string(),
        schedules_run: cfg.schedules,
        first_bug_schedule: None,
        violation: None,
        repro: None,
    })
}

/// ddmin-style shrink: greedily drop chunks of the injection list (halves
/// down to singles), keeping a candidate iff its deterministic replay
/// reproduces the same violation *kind*. Ends with a double replay whose
/// trace hashes must match — the repro is pinned bit-identically.
fn shrink(
    fixture: Fixture,
    seed: u64,
    spec: &StrategySpec,
    violation: &Violation,
    injections: Vec<Injection>,
    baseline: Option<&WindowStats>,
    budget: u32,
) -> Result<Repro, ExploreError> {
    let kind = violation.kind();
    let attempts = Cell::new(0u32);
    let replay = |inj: &[Injection]| -> RunOutcome {
        attempts.set(attempts.get() + 1);
        fixture.run(seed, Some(Box::new(ReplayStrategy::new(inj))), baseline)
    };
    let reproduces = |out: &RunOutcome| out.violation.as_ref().map(Violation::kind) == Some(kind);

    // The recorded injections must reproduce under replay before shrinking
    // means anything.
    let full = replay(&injections);
    if !reproduces(&full) {
        return Err(ExploreError::ReplayDiverged {
            expected: kind.to_string(),
            got: full
                .violation
                .as_ref()
                .map(|v| v.kind().to_string())
                .unwrap_or_else(|| "none".to_string()),
        });
    }

    let mut current = injections;
    if reproduces(&replay(&[])) {
        // Schedule-independent bug (e.g. a static ordering violation).
        current = Vec::new();
    } else {
        let mut chunk = (current.len() / 2).max(1);
        loop {
            let mut removed = false;
            let mut i = 0;
            while i < current.len() && attempts.get() < budget {
                let end = (i + chunk).min(current.len());
                let mut cand = current.clone();
                cand.drain(i..end);
                if reproduces(&replay(&cand)) {
                    current = cand;
                    removed = true;
                } else {
                    i = end;
                }
            }
            if attempts.get() >= budget || (chunk == 1 && !removed) {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }

    // Pin the artifact: two fresh replays must agree bit-for-bit.
    let first = replay(&current);
    let second = replay(&current);
    if first.trace_hash != second.trace_hash {
        return Err(ExploreError::NondeterministicReplay {
            first: first.trace_hash,
            second: second.trace_hash,
        });
    }
    if !reproduces(&first) {
        return Err(ExploreError::ReplayDiverged {
            expected: kind.to_string(),
            got: first
                .violation
                .as_ref()
                .map(|v| v.kind().to_string())
                .unwrap_or_else(|| "none".to_string()),
        });
    }
    Ok(Repro {
        fixture: fixture.name(),
        seed,
        strategy: spec.name().to_string(),
        violation: kind.to_string(),
        trace_hash: first.trace_hash,
        injections: current,
    })
}

// ---------------------------------------------------------------------------
// Replay artifact
// ---------------------------------------------------------------------------

/// A minimal, self-contained, bit-identical repro of one schedule bug:
/// `(fixture, seed, injection list)` plus the pinned trace hash.
///
/// Text format (`c3-schedule-repro v1`):
///
/// ```text
/// c3-schedule-repro v1
/// fixture broken_ticket
/// seed 12345
/// strategy random
/// violation mutex
/// trace_hash 0x1a2b3c4d
/// inj 3 7 delay 60000
/// inj 2 4 preempt 30000
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Repro {
    pub fixture: String,
    pub seed: u64,
    pub strategy: String,
    /// Violation kind the artifact reproduces.
    pub violation: String,
    /// Trace hash both pinning replays produced.
    pub trace_hash: u64,
    pub injections: Vec<Injection>,
}

impl Repro {
    /// Serializes to the `c3-schedule-repro v1` text format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("c3-schedule-repro v1\n");
        s.push_str(&format!("fixture {}\n", self.fixture));
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("strategy {}\n", self.strategy));
        s.push_str(&format!("violation {}\n", self.violation));
        s.push_str(&format!("trace_hash {:#x}\n", self.trace_hash));
        for inj in &self.injections {
            let (verb, ns) = match inj.action {
                SchedAction::Delay(ns) => ("delay", ns),
                SchedAction::Preempt(ns) => ("preempt", ns),
                SchedAction::Proceed => continue,
            };
            s.push_str(&format!(
                "inj {} {} {} {}\n",
                inj.task, inj.task_seq, verb, ns
            ));
        }
        s
    }

    /// Parses the `c3-schedule-repro v1` text format.
    pub fn from_text(text: &str) -> Result<Repro, ExploreError> {
        let bad = |m: &str| ExploreError::BadArtifact(m.to_string());
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        match lines.next() {
            Some("c3-schedule-repro v1") => {}
            _ => return Err(bad("missing 'c3-schedule-repro v1' header")),
        }
        let mut fixture = None;
        let mut seed = None;
        let mut strategy = None;
        let mut violation = None;
        let mut trace_hash = None;
        let mut injections = Vec::new();
        for line in lines {
            let mut parts = line.split_whitespace();
            let key = parts.next().unwrap_or_default();
            match key {
                "fixture" => fixture = parts.next().map(str::to_string),
                "strategy" => strategy = parts.next().map(str::to_string),
                "violation" => violation = parts.next().map(str::to_string),
                "seed" => {
                    seed = Some(
                        parts
                            .next()
                            .and_then(|v| v.parse::<u64>().ok())
                            .ok_or_else(|| bad("bad seed"))?,
                    )
                }
                "trace_hash" => {
                    let v = parts.next().ok_or_else(|| bad("bad trace_hash"))?;
                    let v = v.strip_prefix("0x").unwrap_or(v);
                    trace_hash =
                        Some(u64::from_str_radix(v, 16).map_err(|_| bad("bad trace_hash"))?);
                }
                "inj" => {
                    let task = parts
                        .next()
                        .and_then(|v| v.parse::<u32>().ok())
                        .ok_or_else(|| bad("bad inj task"))?;
                    let task_seq = parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| bad("bad inj task_seq"))?;
                    let verb = parts.next().ok_or_else(|| bad("bad inj verb"))?;
                    let ns = parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| bad("bad inj ns"))?;
                    let action = match verb {
                        "delay" => SchedAction::Delay(ns),
                        "preempt" => SchedAction::Preempt(ns),
                        _ => return Err(bad("inj verb must be delay|preempt")),
                    };
                    injections.push(Injection {
                        task,
                        task_seq,
                        action,
                    });
                }
                _ => return Err(bad(&format!("unknown key '{key}'"))),
            }
        }
        Ok(Repro {
            fixture: fixture.ok_or_else(|| bad("missing fixture"))?,
            seed: seed.ok_or_else(|| bad("missing seed"))?,
            strategy: strategy.ok_or_else(|| bad("missing strategy"))?,
            violation: violation.ok_or_else(|| bad("missing violation"))?,
            trace_hash: trace_hash.ok_or_else(|| bad("missing trace_hash"))?,
            injections,
        })
    }

    /// Replays the artifact once and checks it still reproduces: same
    /// violation kind, same trace hash. Returns the run for inspection.
    pub fn replay(&self) -> Result<RunOutcome, ExploreError> {
        let fixture = Fixture::from_name(&self.fixture)
            .ok_or_else(|| ExploreError::UnknownFixture(self.fixture.clone()))?;
        let baseline = fixture.baseline_window();
        let out = fixture.run(
            self.seed,
            Some(Box::new(ReplayStrategy::new(&self.injections))),
            baseline.as_ref(),
        );
        let got = out
            .violation
            .as_ref()
            .map(|v| v.kind().to_string())
            .unwrap_or_else(|| "none".to_string());
        if got != self.violation {
            return Err(ExploreError::ReplayDiverged {
                expected: self.violation.clone(),
                got,
            });
        }
        if out.trace_hash != self.trace_hash {
            return Err(ExploreError::NondeterministicReplay {
                first: self.trace_hash,
                second: out.trace_hash,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::SchedSite;

    #[test]
    fn zoo_baselines_clean() {
        for z in ZooLock::ALL {
            let out = Fixture::Zoo(z).run(7, None, None);
            assert!(
                out.violation.is_none(),
                "zoo {} baseline violated: {:?}",
                z.name(),
                out.violation
            );
        }
    }

    #[test]
    fn broken_ticket_baseline_clean_but_explorable() {
        let out = Fixture::BrokenTicket.run(7, None, None);
        assert!(out.violation.is_none(), "baseline must be race-free");
    }

    #[test]
    fn fixture_names_round_trip() {
        for f in Fixture::BROKEN
            .into_iter()
            .chain(ZooLock::ALL.into_iter().map(Fixture::Zoo))
        {
            assert_eq!(Fixture::from_name(&f.name()), Some(f));
        }
        assert_eq!(Fixture::from_name("no_such"), None);
    }

    #[test]
    fn repro_text_round_trips() {
        let r = Repro {
            fixture: "broken_ticket".to_string(),
            seed: 99,
            strategy: "random".to_string(),
            violation: "mutex".to_string(),
            trace_hash: 0xdead_beef,
            injections: vec![
                Injection {
                    task: 3,
                    task_seq: 7,
                    action: SchedAction::Delay(60_000),
                },
                Injection {
                    task: 2,
                    task_seq: 4,
                    action: SchedAction::Preempt(30_000),
                },
            ],
        };
        let text = r.to_text();
        assert_eq!(Repro::from_text(&text).unwrap(), r);
        assert!(Repro::from_text("garbage").is_err());
    }

    #[test]
    fn default_policy_compiles_and_verifies() {
        PolicySchedStrategy::compile(default_policy_src(), 1).unwrap();
    }

    // As in `hookctx`: the table sizes the buffer, so the two cannot
    // disagree; a changed table moves offsets and must be re-pinned here.
    const _: () = assert!(SCHED_CTX_BYTES == 56);

    #[test]
    fn stack_marshal_matches_the_layout_by_name() {
        let layout = sched_ctx_layout();
        assert_eq!(layout.size(), SCHED_CTX_BYTES);
        let p = SchedPoint {
            index: 0x1111_2222_3333_4444,
            task_seq: 0x5555_6666_7777_8888,
            site: SchedSite::Window,
            task: ksim::TaskId(0x9999_aaaa),
            cpu: 0xbbbb_cccc,
            socket: 0xdddd_eeee,
            lock_id: 0x0123_4567_89ab_cdef,
            now_ns: 0xfedc_ba98_7654_3210,
        };
        let rnd = 0x0f0f_f0f0_5a5a_a5a5;
        let mut want = vec![0u8; layout.size()];
        for (name, v) in [
            ("lock_id", p.lock_id),
            ("now_ns", p.now_ns),
            ("point_index", p.index),
            ("task_seq", p.task_seq),
            ("rnd", rnd),
            ("site", u64::from(p.site.code())),
            ("task", u64::from(p.task.0)),
            ("cpu", u64::from(p.cpu)),
            ("socket", u64::from(p.socket)),
        ] {
            layout.write(&mut want, name, v);
        }
        assert_eq!(PolicySchedStrategy::marshal(&p, rnd)[..], want[..]);
    }

    #[test]
    fn reseeded_policy_decides_as_a_fresh_compile_would() {
        let first = PolicySchedStrategy::compile(default_policy_src(), 0).unwrap();
        for seed in [1, 77, u64::MAX] {
            let mut fresh = PolicySchedStrategy::compile(default_policy_src(), seed).unwrap();
            let mut shared = first.reseeded(seed);
            let mut acted = 0;
            for i in 0..200u64 {
                let p = SchedPoint {
                    index: i,
                    task_seq: i / 4,
                    site: SchedSite::ALL[(i % 7) as usize],
                    task: ksim::TaskId((i % 4) as u32),
                    cpu: (i % 4) as u32 * 10,
                    socket: (i % 4) as u32,
                    lock_id: 1,
                    now_ns: i * 300,
                };
                let a = fresh.decide(&p);
                assert_eq!(a, shared.decide(&p), "seed {seed}, point {i}");
                acted += u32::from(a != SchedAction::Proceed);
            }
            assert!(acted > 0, "the default policy injects somewhere");
        }
    }

    #[test]
    fn rejected_policy_fails_the_campaign_before_any_schedule() {
        let spec = StrategySpec::Policy {
            src: "return foo(".to_string(),
        };
        let cfg = ExploreConfig {
            schedules: 0,
            ..ExploreConfig::default()
        };
        assert!(matches!(
            explore(Fixture::BrokenTicket, &spec, &cfg),
            Err(ExploreError::Policy(_))
        ));
    }

    #[test]
    fn policy_strategy_rejects_bad_source() {
        assert!(matches!(
            PolicySchedStrategy::compile("return foo(", 1),
            Err(ExploreError::Policy(_))
        ));
    }

    #[test]
    fn monitor_flags_mutex_violation() {
        let m = Monitor::new();
        m.acquiring(1, 0, 0);
        m.acquired(1, 0, 10, true);
        m.acquiring(1, 1, 12);
        m.acquired(1, 1, 15, true);
        assert!(matches!(
            m.take_violation(),
            Some(Violation::Mutex {
                lock: 1,
                holder: 0,
                intruder: 1
            })
        ));
    }

    #[test]
    fn monitor_flags_lock_order_cycle() {
        let m = Monitor::new();
        // Task 0: A then B. Task 1: B then A.
        m.acquiring(10, 0, 0);
        m.acquired(10, 0, 1, true);
        m.acquiring(20, 0, 2);
        m.acquired(20, 0, 3, true);
        m.released(20, 0, 4);
        m.released(10, 0, 5);
        m.acquiring(20, 1, 6);
        m.acquired(20, 1, 7, true);
        m.acquiring(10, 1, 8);
        assert!(matches!(
            m.take_violation(),
            Some(Violation::LockOrder {
                first: 20,
                then: 10
            })
        ));
    }

    #[test]
    fn exclusive_acquire_over_readers_names_the_lowest_holder() {
        // Fresh monitors, so a table whose order varied per instance would
        // name a different reader across the sixteen.
        for _ in 0..16 {
            let m = Monitor::new();
            for task in [5, 3, 9] {
                m.acquiring(1, task, 0);
                m.acquired(1, task, 1, false);
            }
            m.acquiring(1, 1, 2);
            m.acquired(1, 1, 3, true);
            assert_eq!(
                m.take_violation(),
                Some(Violation::Mutex {
                    lock: 1,
                    holder: 3,
                    intruder: 1
                })
            );
        }
    }

    #[test]
    fn shared_owners_do_not_conflict() {
        let m = Monitor::new();
        m.acquiring(1, 0, 0);
        m.acquired(1, 0, 1, false);
        m.acquiring(1, 1, 2);
        m.acquired(1, 1, 3, false);
        assert!(m.take_violation().is_none());
    }
}
