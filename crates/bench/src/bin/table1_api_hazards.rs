//! Regenerates Table 1: the seven Concord APIs with their hazard classes,
//! plus a *measurement* of each hazard on the simulated machine:
//!
//! * fairness (`cmp_node` / `skip_shuffle`): per-task acquisition spread
//!   under an adversarial reorder policy vs FIFO;
//! * performance (`schedule_waiter`): parking behavior distortion of a
//!   never-park policy on the blocking mutex;
//! * critical-section growth (the four profiling hooks): throughput loss
//!   from increasingly heavy event policies.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use concord::watchdog::{detect, WatchdogConfig, WindowStats};
use concord::{Concord, SimPatches};
use ksim::{Histogram, SimBuilder};
use locks::hooks::{CmpNodeCtx, Hazard, HookKind, LockEventCtx, SkipShuffleCtx};
use locks::RawLock;
use simlocks::policy::{Decision, SimPolicy};
use simlocks::SimShflLock;

/// Adversarial `cmp_node`: prefer one lucky task id parity — a policy a
/// user *could* write, hazarding fairness but never correctness.
struct UnfairPolicy;

impl SimPolicy for UnfairPolicy {
    fn cmp_node(&self, c: &CmpNodeCtx) -> Decision {
        (c.curr.tid.is_multiple_of(4), 5)
    }
    fn skip_shuffle(&self, _: &SkipShuffleCtx) -> Decision {
        (false, 5)
    }
}

/// Event policy of configurable weight (critical-section growth hazard).
struct HeavyProfiling(u64);

impl SimPolicy for HeavyProfiling {
    fn cmp_node(&self, _: &CmpNodeCtx) -> Decision {
        (false, 0)
    }
    fn skip_shuffle(&self, _: &SkipShuffleCtx) -> Decision {
        (true, 0)
    }
    fn on_event(&self, _: HookKind, _: &LockEventCtx) -> u64 {
        self.0
    }
    fn wants_event(&self, _: HookKind) -> bool {
        true
    }
}

/// Runs a contended sim workload; returns (ops/ms, per-task min, max).
fn contended_run(policy: Option<Rc<dyn SimPolicy>>, n: u32) -> (f64, u64, u64) {
    const WINDOW: u64 = 3_000_000;
    let sim = SimBuilder::new().seed(7).build();
    let lock = Rc::new(SimShflLock::new(&sim));
    if let Some(p) = policy {
        lock.set_policy(p);
    }
    let per_task = Rc::new(RefCell::new(vec![0u64; n as usize]));
    for (i, cpu) in sim
        .topology()
        .compact_placement(n as usize)
        .into_iter()
        .enumerate()
    {
        let (l, pt) = (Rc::clone(&lock), Rc::clone(&per_task));
        sim.spawn_on(cpu, move |t| async move {
            while t.now() < WINDOW {
                l.acquire(&t).await;
                t.advance(300).await;
                l.release(&t).await;
                pt.borrow_mut()[i] += 1;
                t.advance(150 + t.rng_u64() % 600).await;
            }
        });
    }
    let stats = sim.run();
    assert!(stats.stuck_tasks.is_empty());
    let pt = per_task.borrow();
    let total: u64 = pt.iter().sum();
    (
        total as f64 / (WINDOW as f64 / 1e6),
        *pt.iter().min().unwrap(),
        *pt.iter().max().unwrap(),
    )
}

fn fairness_hazard() -> String {
    let (tp_fifo, min_f, max_f) = contended_run(None, 40);
    let (tp_bad, min_b, max_b) = contended_run(Some(Rc::new(UnfairPolicy)), 40);
    format!(
        "FIFO: {tp_fifo:.0} ops/ms, per-task {min_f}..{max_f}; \
         adversarial cmp_node: {tp_bad:.0} ops/ms, per-task {min_b}..{max_b} \
         (spread ×{:.1})",
        (max_b - min_b) as f64 / (max_f.saturating_sub(min_f).max(1)) as f64
    )
}

fn performance_hazard() -> String {
    // Real blocking mutex: a never-park policy keeps waiters spinning
    // through a long hold — throughput survives, CPU time is the casualty.
    let run = |never_park: bool| {
        let lock = Arc::new(locks::ShflLock::blocking());
        if never_park {
            lock.hooks().install_schedule_waiter(Arc::new(|_| false));
        }
        let held = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let holder = {
            let (l, h) = (Arc::clone(&lock), Arc::clone(&held));
            std::thread::spawn(move || {
                let _g = l.lock();
                h.store(true, std::sync::atomic::Ordering::Release);
                std::thread::sleep(std::time::Duration::from_millis(60));
            })
        };
        while !held.load(std::sync::atomic::Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let mut waiters = Vec::new();
        for _ in 0..3 {
            let l = Arc::clone(&lock);
            waiters.push(std::thread::spawn(move || {
                let _g = l.lock();
            }));
        }
        holder.join().unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        lock.park_count()
    };
    let parks_default = run(false);
    let parks_never = run(true);
    format!(
        "60ms hold, 3 waiters: default policy parked {parks_default} times, \
         never-park policy parked {parks_never} times (waiters burned CPU instead)"
    )
}

fn cs_growth_hazard() -> Vec<(u64, f64)> {
    let (base, _, _) = contended_run(None, 40);
    [0u64, 100, 500, 2_000]
        .into_iter()
        .map(|w| {
            if w == 0 {
                (w, 1.0)
            } else {
                let (tp, _, _) = contended_run(Some(Rc::new(HeavyProfiling(w))), 40);
                (w, tp / base)
            }
        })
        .collect()
}

/// Starving reorder policy: every task except each eighth one moves
/// forward past the victims on every shuffle phase — the worst-case
/// fairness hazard a `cmp_node` policy can express.
struct StarvingPolicy;

impl SimPolicy for StarvingPolicy {
    fn cmp_node(&self, c: &CmpNodeCtx) -> Decision {
        (!c.curr.tid.is_multiple_of(8), 5)
    }
    fn skip_shuffle(&self, _: &SkipShuffleCtx) -> Decision {
        (false, 5)
    }
}

/// Uniform-slowdown policy: charges virtual time on the acquire path of
/// every task (a policy doing expensive work per lock operation) — the
/// performance hazard without any fairness skew or hold-time growth.
struct SlowAcquirePath(u64);

impl SimPolicy for SlowAcquirePath {
    fn cmp_node(&self, _: &CmpNodeCtx) -> Decision {
        (false, 0)
    }
    fn skip_shuffle(&self, _: &SkipShuffleCtx) -> Decision {
        (true, 0)
    }
    fn on_event(&self, kind: HookKind, _: &LockEventCtx) -> u64 {
        if kind == HookKind::LockAcquire {
            self.0
        } else {
            0
        }
    }
    fn wants_event(&self, kind: HookKind) -> bool {
        kind == HookKind::LockAcquire
    }
}

/// The name `observed_window` attaches its policy under.
const WINDOW_LOCK: &str = "table1_lock";

/// One time-bounded observation window with `policy` attached, measured
/// the way the real-lock profiler measures: wait = acquire latency,
/// hold = acquired → released, both in virtual time. Returns the
/// distilled stats and the patch stack that holds the policy, for
/// quarantining.
fn observed_window(policy: Option<Rc<dyn SimPolicy>>) -> (WindowStats, SimPatches, u64) {
    const TASKS: usize = 40;
    const WINDOW: u64 = 3_000_000;
    let sim = SimBuilder::new().seed(11).build();
    let lock = Rc::new(SimShflLock::new(&sim));
    let patches = SimPatches::new(&sim);
    if let Some(p) = policy {
        patches.attach(WINDOW_LOCK, &lock, p);
    }
    let wait = Rc::new(RefCell::new(Histogram::new()));
    let hold = Rc::new(RefCell::new(Histogram::new()));
    for cpu in sim.topology().compact_placement(TASKS) {
        let (l, w, h) = (Rc::clone(&lock), Rc::clone(&wait), Rc::clone(&hold));
        sim.spawn_on(cpu, move |t| async move {
            while t.now() < WINDOW {
                let t0 = t.now();
                l.acquire(&t).await;
                let t1 = t.now();
                w.borrow_mut().record(t1 - t0);
                t.advance(300).await;
                l.release(&t).await;
                h.borrow_mut().record(t.now() - t1);
                t.advance(150 + t.rng_u64() % 600).await;
            }
        });
    }
    let stats = sim.run();
    let window = WindowStats::from_hists(&wait.borrow(), &hold.borrow());
    (window, patches, stats.final_time_ns)
}

/// The watchdog column: each hazardous policy from the measurement
/// sections, detected against the unpatched baseline window and
/// auto-reverted (sim quarantine) within one bounded window.
fn watchdog_column() {
    let concord = Concord::new();
    let cfg = WatchdogConfig::default();
    let (baseline, _, _) = observed_window(None);
    println!(
        "  baseline window: {} acquisitions, wait p50 {} ns, hold mean {:.0} ns\n",
        baseline.acquisitions, baseline.wait_p50, baseline.hold_mean
    );
    println!("| policy | hazard detected | watchdog action |");
    println!("|---|---|---|");
    let cases: Vec<(&str, HookKind, Rc<dyn SimPolicy>)> = vec![
        (
            "starving cmp_node",
            HookKind::CmpNode,
            Rc::new(StarvingPolicy),
        ),
        (
            "150 µs acquire-path work",
            HookKind::ScheduleWaiter,
            Rc::new(SlowAcquirePath(150_000)),
        ),
        (
            "2 µs event profiling",
            HookKind::LockRelease,
            Rc::new(HeavyProfiling(2_000)),
        ),
    ];
    for (name, hook, policy) in cases {
        let (current, patches, now_ns) = observed_window(Some(policy));
        match detect(&baseline, &current, &cfg) {
            Some(report) => {
                let record = concord
                    .quarantine_sim(
                        &patches,
                        WINDOW_LOCK,
                        hook,
                        name,
                        format!("watchdog: {:?} hazard — {}", report.hazard, report.detail),
                        now_ns,
                    )
                    .expect("the window's policy is attached");
                println!(
                    "| {name} | {:?} within {} acquisitions | auto-reverted to FIFO ({}) |",
                    report.hazard, current.acquisitions, record.reason
                );
            }
            None => println!("| {name} | none | left attached |"),
        }
    }
    println!(
        "\n  {} quarantine record(s) filed in the registry",
        concord.registry().all_quarantines().len()
    );
}

fn main() {
    println!("### Table 1 — Concord APIs and their hazards\n");
    println!("| API | Description | Hazard |");
    println!("|---|---|---|");
    for kind in HookKind::ALL {
        let desc = match kind {
            HookKind::CmpNode => "Decide whether to move current node forward",
            HookKind::SkipShuffle => "Skip shuffling on this shuffler and hand over shuffler",
            HookKind::ScheduleWaiter => "Waking/parking/priority for a lock",
            HookKind::LockAcquire => "Invoked when trying to acquire a lock",
            HookKind::LockContended => "Invoked when trylock failed and need to wait",
            HookKind::LockAcquired => "Invoked when actually acquired a lock",
            HookKind::LockRelease => "Invoked when release a lock",
        };
        let hazard = match kind.hazard() {
            Hazard::Fairness => "Fairness",
            Hazard::Performance => "Performance",
            Hazard::CriticalSection => "Increase critical section",
        };
        println!("| {} | {} | {} |", kind.name(), desc, hazard);
    }

    println!("\n### Hazard measurements\n");
    println!("**Fairness** ({}):", HookKind::CmpNode.name());
    println!("  {}\n", fairness_hazard());
    println!("**Performance** ({}):", HookKind::ScheduleWaiter.name());
    println!("  {}\n", performance_hazard());
    println!("**Critical-section growth** (profiling hooks):");
    println!("  per-event cost → normalized throughput (40 contending tasks)");
    for (w, norm) in cs_growth_hazard() {
        println!("    {w:>5} ns/event → {norm:.3}");
    }

    println!("\n### Watchdog — hazard detection and auto-revert\n");
    watchdog_column();
}
