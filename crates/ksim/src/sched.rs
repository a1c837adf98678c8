//! Schedule exploration: strategy-driven interleaving control.
//!
//! Lock algorithms expose **schedule points** — the hook sites where the
//! paper's policies run: acquire entry, slow-path entry, critical-section
//! entry, release, shuffler phases. A [`SchedController`] installed on a
//! [`crate::Sim`] is consulted at every point and may inject a delay or a
//! vCPU preemption there, steering the interleaving. With no controller
//! installed a schedule point is a strict no-op: it charges no virtual
//! time, consumes no randomness and schedules no event, so every existing
//! run (figures, determinism gates) is bit-identical.
//!
//! This is the mechanism behind `concord::explore`, the systematic
//! concurrency-testing subsystem ("Concurrency Testing in the Linux Kernel
//! via eBPF" adapted to the DES): strategies perturb schedules, oracles
//! check the runs, and failing injection logs shrink to minimal replayable
//! artifacts.

use std::cell::RefCell;

use crate::exec::TaskId;
use crate::rng::SplitMix64;

/// Upper bound on a single injected delay or preemption window (virtual
/// ns). Keeps exploration runs finite and replay artifacts sane.
pub const MAX_INJECT_NS: u64 = 200_000;

/// Where in a lock algorithm a schedule point sits (the injection-point
/// enumeration of the hook sites in Table 1, plus the algorithm-internal
/// race windows a tester cares about).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SchedSite {
    /// Entry to an acquire path, before the fast-path attempt.
    Acquire,
    /// Slow path entered: the task is about to queue or spin.
    Contended,
    /// The lock was just acquired (critical-section entry).
    Acquired,
    /// The lock is about to be released.
    Release,
    /// A shuffler phase is about to run (queue reordering span).
    Shuffle,
    /// A policy/hook dispatch span.
    HookDispatch,
    /// An algorithm-internal window between two racy steps (e.g. between
    /// an MCS tail swap and the predecessor link store).
    Window,
}

impl SchedSite {
    /// Every site, in stable order.
    pub const ALL: [SchedSite; 7] = [
        SchedSite::Acquire,
        SchedSite::Contended,
        SchedSite::Acquired,
        SchedSite::Release,
        SchedSite::Shuffle,
        SchedSite::HookDispatch,
        SchedSite::Window,
    ];

    /// Stable name (artifact files, ctx marshalling).
    pub fn name(self) -> &'static str {
        match self {
            SchedSite::Acquire => "acquire",
            SchedSite::Contended => "contended",
            SchedSite::Acquired => "acquired",
            SchedSite::Release => "release",
            SchedSite::Shuffle => "shuffle",
            SchedSite::HookDispatch => "hook_dispatch",
            SchedSite::Window => "window",
        }
    }

    /// Inverse of [`SchedSite::name`].
    pub fn from_name(s: &str) -> Option<SchedSite> {
        SchedSite::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Stable small integer (ctx marshalling).
    pub fn code(self) -> u32 {
        SchedSite::ALL.iter().position(|s| *s == self).unwrap() as u32
    }
}

/// One visit to a schedule point, as presented to a strategy.
#[derive(Clone, Copy, Debug)]
pub struct SchedPoint {
    /// Global ordinal of this point within the run (0-based).
    pub index: u64,
    /// Ordinal of this point within the arriving task (0-based). Replay
    /// keys injections by `(task, task_seq)`: per-task ordinals survive
    /// cross-task reorderings that a global index would not.
    pub task_seq: u64,
    /// Which site fired.
    pub site: SchedSite,
    /// The arriving task.
    pub task: TaskId,
    /// Its pinned CPU.
    pub cpu: u32,
    /// Its socket.
    pub socket: u32,
    /// Identity of the lock (0 when the site has no lock).
    pub lock_id: u64,
    /// Virtual time of the visit.
    pub now_ns: u64,
}

/// What a strategy does at a schedule point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedAction {
    /// Continue untouched (charges nothing).
    Proceed,
    /// Suspend the arriving task for the given virtual nanoseconds.
    Delay(u64),
    /// Take the arriving task's vCPU offline for the given window (the
    /// §3.1.1 double-scheduling model: everything pinned there stalls).
    Preempt(u64),
}

impl SchedAction {
    fn capped(self) -> SchedAction {
        match self {
            SchedAction::Proceed | SchedAction::Delay(0) | SchedAction::Preempt(0) => {
                SchedAction::Proceed
            }
            SchedAction::Delay(ns) => SchedAction::Delay(ns.min(MAX_INJECT_NS)),
            SchedAction::Preempt(ns) => SchedAction::Preempt(ns.min(MAX_INJECT_NS)),
        }
    }
}

/// A pluggable schedule-exploration strategy.
pub trait ScheduleStrategy {
    /// Decides what happens at `p`. Called once per schedule point, in
    /// deterministic order.
    fn decide(&mut self, p: &SchedPoint) -> SchedAction;

    /// Short stable name for reports and artifacts.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// An injection a run actually performed: the `(task, task_seq)` key plus
/// the action. A list of these, with the seed and strategy descriptor, is
/// the replayable schedule artifact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Injection {
    /// Arriving task id (`TaskId.0`).
    pub task: u32,
    /// Per-task schedule-point ordinal at which the action fired.
    pub task_seq: u64,
    /// The (capped, non-`Proceed`) action.
    pub action: SchedAction,
}

struct ControllerState {
    strategy: Box<dyn ScheduleStrategy>,
    next_index: u64,
    /// Next per-task ordinal, indexed by `TaskId.0` (task ids are dense).
    per_task: Vec<u64>,
    log: Vec<Injection>,
}

/// Wraps a [`ScheduleStrategy`] for installation into a `Sim`: numbers
/// schedule points (globally and per task), caps actions at
/// [`MAX_INJECT_NS`], and records every non-`Proceed` decision so a
/// failing run can be shrunk and replayed.
pub struct SchedController {
    inner: RefCell<ControllerState>,
}

impl SchedController {
    /// Creates a controller around `strategy`.
    pub fn new(strategy: Box<dyn ScheduleStrategy>) -> Self {
        SchedController {
            inner: RefCell::new(ControllerState {
                strategy,
                next_index: 0,
                per_task: Vec::new(),
                log: Vec::new(),
            }),
        }
    }

    /// Schedule points visited so far.
    pub fn points(&self) -> u64 {
        self.inner.borrow().next_index
    }

    /// The injection log so far (non-`Proceed` decisions, in firing order).
    pub fn injections(&self) -> Vec<Injection> {
        self.inner.borrow().log.clone()
    }

    /// Consults the strategy for one point; called by the executor.
    pub(crate) fn on_point(
        &self,
        site: SchedSite,
        task: TaskId,
        cpu: u32,
        socket: u32,
        lock_id: u64,
        now_ns: u64,
    ) -> SchedAction {
        let mut st = self.inner.borrow_mut();
        let index = st.next_index;
        st.next_index += 1;
        let seq = task_slot(&mut st.per_task, task, 0);
        let task_seq = *seq;
        *seq += 1;
        let p = SchedPoint {
            index,
            task_seq,
            site,
            task,
            cpu,
            socket,
            lock_id,
            now_ns,
        };
        let action = st.strategy.decide(&p).capped();
        if action != SchedAction::Proceed {
            st.log.push(Injection {
                task: task.0,
                task_seq,
                action,
            });
        }
        action
    }
}

/// `task`'s entry in a per-task table, grown with `fill` to reach it: a
/// sim's task ids are dense, so bookkeeping keyed by task is a `Vec`
/// indexed by id rather than a map.
pub fn task_slot<T: Clone>(table: &mut Vec<T>, task: TaskId, fill: T) -> &mut T {
    let at = task.0 as usize;
    if at >= table.len() {
        table.resize(at + 1, fill);
    }
    &mut table[at]
}

/// Bounded random delay injection: at each point, with probability
/// `p_mille`/1000, delay the arriving task by a random amount up to
/// `max_delay_ns`. The classic "naive randomized" baseline.
pub struct RandomDelayStrategy {
    rng: SplitMix64,
    p_mille: u32,
    max_delay_ns: u64,
}

impl RandomDelayStrategy {
    /// Creates a strategy with its own RNG stream (independent of the
    /// sim's seed, so installing it never perturbs workload randomness).
    pub fn new(seed: u64, p_mille: u32, max_delay_ns: u64) -> Self {
        RandomDelayStrategy {
            rng: SplitMix64::new(seed ^ 0x5eed_5eed_0bad_cafe),
            p_mille: p_mille.min(1000),
            max_delay_ns: max_delay_ns.clamp(1, MAX_INJECT_NS),
        }
    }
}

impl ScheduleStrategy for RandomDelayStrategy {
    fn decide(&mut self, _p: &SchedPoint) -> SchedAction {
        if self.rng.next_u64() % 1000 < u64::from(self.p_mille) {
            SchedAction::Delay(1 + self.rng.next_u64() % self.max_delay_ns)
        } else {
            SchedAction::Proceed
        }
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// PCT-style randomized priorities with `d` change points, adapted to the
/// DES: each task draws a random priority in `0..buckets`; at every
/// schedule point the task is held back by `priority × unit` (priority 0
/// runs unhindered — the DES analog of "the highest-priority runnable
/// thread executes"). At `d` pre-drawn change-point ordinals, the arriving
/// task's priority is re-randomized, which is where the PCT guarantee of
/// covering depth-`d` bugs comes from.
pub struct PctStrategy {
    rng: SplitMix64,
    buckets: u64,
    unit_ns: u64,
    change_points: Vec<u64>,
    /// Each task's current priority, indexed by `TaskId.0`; `None` until
    /// the task's first point draws one.
    priorities: Vec<Option<u64>>,
}

impl PctStrategy {
    /// Creates a PCT strategy: `buckets` priority levels, `d` change
    /// points drawn over an expected `horizon` schedule points.
    pub fn new(seed: u64, buckets: u64, d: u32, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x9c7_0000_0bad_beef);
        let horizon = horizon.max(1);
        let mut change_points: Vec<u64> = (0..d).map(|_| rng.next_u64() % horizon).collect();
        change_points.sort_unstable();
        PctStrategy {
            rng,
            buckets: buckets.max(2),
            unit_ns: 2_000,
            change_points,
            priorities: Vec::new(),
        }
    }
}

impl ScheduleStrategy for PctStrategy {
    fn decide(&mut self, p: &SchedPoint) -> SchedAction {
        let prio = task_slot(&mut self.priorities, p.task, None);
        if self.change_points.binary_search(&p.index).is_ok() {
            *prio = Some(self.rng.next_u64() % self.buckets);
        }
        let prio = *prio.get_or_insert_with(|| self.rng.next_u64() % self.buckets);
        if prio == 0 {
            SchedAction::Proceed
        } else {
            SchedAction::Delay(prio * self.unit_ns)
        }
    }

    fn name(&self) -> &'static str {
        "pct"
    }
}

/// Replays a recorded injection list: the action fires when the arriving
/// task reaches the recorded per-task ordinal; everything else proceeds.
/// With the same sim seed this reproduces the recorded run bit-identically
/// (same trace hash), which is the repro-artifact contract.
pub struct ReplayStrategy {
    /// The recorded actions keyed by `(task, task_seq)`, sorted by key,
    /// one row per key: each task's rows in ordinal order.
    rows: Vec<((u32, u64), SchedAction)>,
    /// Per arriving task (indexed by `TaskId.0`; a sim's task ids are
    /// dense), the first row not below its last key; `None` before its
    /// first point. A task's ordinals only grow, so a lookup moves this
    /// forward by at most one row.
    cursor: Vec<Option<usize>>,
}

impl ReplayStrategy {
    /// Creates a replay strategy from an injection list. Of two rows with
    /// the same `(task, task_seq)`, the later one wins.
    pub fn new(injections: &[Injection]) -> Self {
        let mut rows: Vec<_> = injections
            .iter()
            .rev()
            .map(|i| ((i.task, i.task_seq), i.action))
            .collect();
        // Stable, so of equal keys the later row (now the earlier) is kept.
        rows.sort_by_key(|r| r.0);
        rows.dedup_by_key(|r| r.0);
        ReplayStrategy {
            rows,
            cursor: Vec::new(),
        }
    }
}

impl ScheduleStrategy for ReplayStrategy {
    fn decide(&mut self, p: &SchedPoint) -> SchedAction {
        let key = (p.task.0, p.task_seq);
        let cursor = task_slot(&mut self.cursor, p.task, None);
        let rows = &self.rows;
        let at = match *cursor {
            // Every row before the cursor is below `key`: walk forward.
            Some(at) if at == 0 || rows[at - 1].0 < key => {
                at + rows[at..].iter().take_while(|r| r.0 < key).count()
            }
            // The task's first point, or an ordinal that went back.
            _ => rows.partition_point(|r| r.0 < key),
        };
        match rows.get(at) {
            Some(&(k, action)) if k == key => {
                *cursor = Some(at + 1);
                action
            }
            _ => {
                *cursor = Some(at);
                SchedAction::Proceed
            }
        }
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(index: u64, task: u32, task_seq: u64) -> SchedPoint {
        SchedPoint {
            index,
            task_seq,
            site: SchedSite::Acquire,
            task: TaskId(task),
            cpu: 0,
            socket: 0,
            lock_id: 1,
            now_ns: 0,
        }
    }

    #[test]
    fn site_names_roundtrip() {
        for s in SchedSite::ALL {
            assert_eq!(SchedSite::from_name(s.name()), Some(s));
            assert_eq!(SchedSite::ALL[s.code() as usize], s);
        }
        assert_eq!(SchedSite::from_name("bogus"), None);
    }

    #[test]
    fn controller_numbers_points_and_logs_injections() {
        struct EveryOther(bool);
        impl ScheduleStrategy for EveryOther {
            fn decide(&mut self, _: &SchedPoint) -> SchedAction {
                self.0 = !self.0;
                if self.0 {
                    SchedAction::Delay(10)
                } else {
                    SchedAction::Proceed
                }
            }
        }
        let c = SchedController::new(Box::new(EveryOther(false)));
        for i in 0..4 {
            c.on_point(SchedSite::Acquire, TaskId(i % 2), 0, 0, 7, 0);
        }
        assert_eq!(c.points(), 4);
        let log = c.injections();
        assert_eq!(log.len(), 2);
        // Tasks 0 and 1 alternate, so each fired once at its ordinal 0.
        assert_eq!(
            log[0],
            Injection {
                task: 0,
                task_seq: 0,
                action: SchedAction::Delay(10)
            }
        );
        assert_eq!(
            log[1],
            Injection {
                task: 0,
                task_seq: 1,
                action: SchedAction::Delay(10)
            }
        );
    }

    #[test]
    fn actions_are_capped_and_normalized() {
        assert_eq!(SchedAction::Delay(0).capped(), SchedAction::Proceed);
        assert_eq!(
            SchedAction::Delay(u64::MAX).capped(),
            SchedAction::Delay(MAX_INJECT_NS)
        );
        assert_eq!(
            SchedAction::Preempt(u64::MAX).capped(),
            SchedAction::Preempt(MAX_INJECT_NS)
        );
    }

    #[test]
    fn random_strategy_is_seed_deterministic() {
        let run = |seed| {
            let mut s = RandomDelayStrategy::new(seed, 300, 5_000);
            (0..64)
                .map(|i| s.decide(&point(i, 0, i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        assert!(run(9).iter().any(|a| *a != SchedAction::Proceed));
        assert!(run(9).contains(&SchedAction::Proceed));
    }

    #[test]
    fn pct_priority_zero_tasks_proceed() {
        let mut s = PctStrategy::new(3, 4, 2, 100);
        let actions: Vec<_> = (0..50)
            .map(|i| s.decide(&point(i, (i % 5) as u32, i / 5)))
            .collect();
        // Deterministic for a fixed seed, and some task draws priority 0.
        let mut s2 = PctStrategy::new(3, 4, 2, 100);
        let actions2: Vec<_> = (0..50)
            .map(|i| s2.decide(&point(i, (i % 5) as u32, i / 5)))
            .collect();
        assert_eq!(actions, actions2);
        // Priority-driven holds are whole multiples of the unit and stay
        // under the bucket ceiling.
        for a in &actions {
            if let SchedAction::Delay(ns) = a {
                assert!(*ns % 2_000 == 0 && *ns <= 3 * 2_000, "bad PCT delay {ns}");
            }
        }
    }

    #[test]
    fn replay_matches_only_recorded_keys() {
        let inj = [Injection {
            task: 2,
            task_seq: 3,
            action: SchedAction::Delay(42),
        }];
        let mut s = ReplayStrategy::new(&inj);
        assert_eq!(s.decide(&point(0, 2, 3)), SchedAction::Delay(42));
        assert_eq!(s.decide(&point(1, 2, 4)), SchedAction::Proceed);
        assert_eq!(s.decide(&point(2, 1, 3)), SchedAction::Proceed);
        assert_eq!(s.decide(&point(3, 9, 3)), SchedAction::Proceed);

        // A duplicated `(task, task_seq)` row: the later action wins.
        let dup = |task_seq, action| Injection {
            task: 2,
            task_seq,
            action,
        };
        let inj = [
            dup(5, SchedAction::Delay(1)),
            dup(3, SchedAction::Delay(7)),
            dup(5, SchedAction::Preempt(9)),
        ];
        let mut s = ReplayStrategy::new(&inj);
        assert_eq!(s.decide(&point(0, 2, 3)), SchedAction::Delay(7));
        assert_eq!(s.decide(&point(1, 2, 5)), SchedAction::Preempt(9));
        assert_eq!(s.decide(&point(2, 2, 4)), SchedAction::Proceed);
    }

    #[test]
    fn replay_cursor_agrees_with_a_scan_in_any_order() {
        let mut rng = SplitMix64::new(11);
        let inj: Vec<Injection> = (0..60)
            .map(|i| Injection {
                task: (rng.next_u64() % 4) as u32,
                task_seq: rng.next_u64() % 30,
                action: SchedAction::Delay(i + 1),
            })
            .collect();
        let scan = |task, task_seq| {
            inj.iter()
                .rev()
                .find(|i| (i.task, i.task_seq) == (task, task_seq))
                .map_or(SchedAction::Proceed, |i| i.action)
        };
        // In ordinal order per task (as a controller calls it), then with
        // ordinals in random order.
        let mut s = ReplayStrategy::new(&inj);
        for seq in 0..32 {
            for task in 0..5 {
                assert_eq!(s.decide(&point(0, task, seq)), scan(task, seq));
            }
        }
        let mut s = ReplayStrategy::new(&inj);
        for _ in 0..500 {
            let (task, seq) = ((rng.next_u64() % 5) as u32, rng.next_u64() % 32);
            assert_eq!(s.decide(&point(0, task, seq)), scan(task, seq));
        }
    }
}
