//! The simulator must be bit-for-bit deterministic: identical seeds and
//! workloads produce identical event traces, times and results — the
//! property that makes figure regeneration reproducible.

use std::cell::Cell;
use std::rc::Rc;

use concord::{Concord, SimPatches};
use ksim::{
    CpuId, SchedAction, SchedController, SchedPoint, ScheduleStrategy, SimBuilder, SimStats,
    SimWord,
};
use simlocks::{NativePolicy, SimBravo, SimMcsLock, SimShflLock};

fn shfl_run(seed: u64, with_policy: bool) -> (SimStats, u64, u64) {
    let sim = SimBuilder::new().seed(seed).build();
    let lock = Rc::new(SimShflLock::new(&sim));
    if with_policy {
        let concord = Concord::new();
        let loaded = concord.load(concord::policies::numa_aware()).unwrap();
        let policy = concord.make_sim_policy(&sim, &[&loaded]);
        SimPatches::new(&sim).attach("lock", &lock, Rc::new(policy));
    }
    let acquired = Rc::new(Cell::new(0u64));
    for i in 0..32u32 {
        let (l, _a) = (Rc::clone(&lock), Rc::clone(&acquired));
        sim.spawn_on(CpuId((i % 8) * 10 + i / 8), move |t| async move {
            for _ in 0..40 {
                l.acquire(&t).await;
                t.advance(200 + t.rng_u64() % 100).await;
                l.release(&t).await;
                t.advance(t.rng_u64() % 500).await;
            }
        });
    }
    let stats = sim.run();
    (stats, acquired.get(), lock.move_count())
}

#[test]
fn identical_seeds_identical_traces() {
    let a = shfl_run(42, true);
    let b = shfl_run(42, true);
    assert_eq!(a.0, b.0, "SimStats must match exactly");
    assert_eq!(a.2, b.2, "shuffle moves must match exactly");
}

#[test]
fn different_seeds_different_traces() {
    let a = shfl_run(1, true);
    let b = shfl_run(2, true);
    assert_ne!(a.0.trace_hash, b.0.trace_hash);
}

#[test]
fn policy_attachment_changes_the_trace() {
    let plain = shfl_run(7, false);
    let patched = shfl_run(7, true);
    assert_ne!(
        plain.0.trace_hash, patched.0.trace_hash,
        "attaching a policy must be observable in the trace"
    );
    assert_eq!(plain.2, 0);
}

#[test]
fn mcs_and_bravo_runs_are_deterministic() {
    let run = |seed: u64| {
        let sim = SimBuilder::new().seed(seed).build();
        let mcs = Rc::new(SimMcsLock::new(&sim));
        let rw = Rc::new(SimBravo::new(&sim));
        for i in 0..16u32 {
            let (m, r) = (Rc::clone(&mcs), Rc::clone(&rw));
            sim.spawn_on(CpuId(i * 5), move |t| async move {
                for k in 0..30u64 {
                    m.acquire(&t).await;
                    t.advance(100 + t.rng_u64() % 50).await;
                    m.release(&t).await;
                    if k % 10 == 0 && i == 0 {
                        r.write_acquire(&t).await;
                        t.advance(300).await;
                        r.write_release(&t).await;
                    } else {
                        r.read_acquire(&t).await;
                        t.advance(150).await;
                        r.read_release(&t).await;
                    }
                }
            });
        }
        sim.run()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9).trace_hash, run(10).trace_hash);
}

#[test]
fn wall_clock_independence() {
    // Virtual time must not depend on host speed: two runs interleaved
    // with host-side delays still agree.
    let a = shfl_run(3, true);
    std::thread::sleep(std::time::Duration::from_millis(50));
    let b = shfl_run(3, true);
    assert_eq!(a.0.final_time_ns, b.0.final_time_ns);
    assert_eq!(a.0.trace_hash, b.0.trace_hash);
}

/// Delays every third schedule point and preempts every eleventh.
struct DelayAndPreempt;

impl ScheduleStrategy for DelayAndPreempt {
    fn decide(&mut self, p: &SchedPoint) -> SchedAction {
        if p.index % 11 == 10 {
            SchedAction::Preempt(3_000 + p.index % 700)
        } else if p.index % 3 == 2 {
            SchedAction::Delay(50 + p.index % 400)
        } else {
            SchedAction::Proceed
        }
    }
}

/// One workload over everything that decides how an event reaches its task:
/// a ShflLock under the NUMA policy, BRAVO, a spin-wait that times out and
/// one that is woken, a vCPU taken offline mid-run, and a schedule
/// controller that delays and preempts. Run whole when `slice_ns` is
/// `None`, else as `run_until` calls `slice_ns` apart.
fn mixed_run(seed: u64, slice_ns: Option<u64>) -> (SimStats, Vec<(u64, u32)>) {
    let sim = SimBuilder::new().seed(seed).build();
    sim.capture_trace(true);
    sim.set_sched_hook(Some(Rc::new(SchedController::new(Box::new(
        DelayAndPreempt,
    )))));
    let shfl = Rc::new(SimShflLock::new(&sim));
    shfl.set_policy(Rc::new(NativePolicy::numa_aware()));
    let rw = Rc::new(SimBravo::new(&sim));
    let flag = Rc::new(SimWord::new(&sim, 0));
    for i in 0..12u32 {
        let (l, r) = (Rc::clone(&shfl), Rc::clone(&rw));
        sim.spawn_on(CpuId((i % 4) * 10 + i / 4), move |t| async move {
            for k in 0..12u64 {
                l.acquire(&t).await;
                t.advance(150 + t.rng_u64() % 90).await;
                l.release(&t).await;
                if i == 0 && k % 5 == 4 {
                    r.write_acquire(&t).await;
                    t.advance(400).await;
                    r.write_release(&t).await;
                } else {
                    r.read_acquire(&t).await;
                    t.advance(1_100).await;
                    r.read_release(&t).await;
                }
                t.advance(t.rng_u64() % 700).await;
            }
        });
    }
    // Times out: nothing stores before 6 µs. Then waits again and is woken.
    let f = Rc::clone(&flag);
    sim.spawn_on(CpuId(50), move |t| async move {
        assert_eq!(f.wait_while_deadline(&t, |v| v == 0, 6_000).await, Err(0));
        assert_eq!(f.wait_while_deadline(&t, |v| v == 0, 900_000).await, Ok(7));
        t.advance(33).await;
    });
    let (f, s) = (Rc::clone(&flag), sim.clone());
    sim.spawn_on(CpuId(60), move |t| async move {
        t.advance(9_000).await;
        // Takes a lock waiter's vCPU away for a while, from inside the run.
        s.preempt_cpu(CpuId(11), t.now() + 7_500);
        t.advance(4_000).await;
        f.store(&t, 7).await;
    });
    let stats = match slice_ns {
        None => sim.run(),
        Some(width) => {
            let mut deadline = 0;
            loop {
                deadline += width;
                // Every task here finishes; what is left in the heap then
                // is a spin-wait's unused deadline event.
                if sim.run_until(deadline).stuck_tasks.is_empty() {
                    break sim.run();
                }
            }
        }
    };
    assert!(stats.stuck_tasks.is_empty());
    (stats, sim.take_trace())
}

#[test]
fn slicing_a_run_changes_nothing_but_the_in_place_count() {
    let (whole, whole_trace) = mixed_run(11, None);
    assert!(
        whole.in_place > 0 && whole.in_place < whole.events,
        "the workload must take both routes: {} of {} in place",
        whole.in_place,
        whole.events
    );
    assert_eq!(whole_trace.len() as u64, whole.events);
    let mut in_place = vec![whole.in_place];
    for width in [1, 37, 1_000, 25_000] {
        let (sliced, trace) = mixed_run(11, Some(width));
        in_place.push(sliced.in_place);
        // A timer due after the slice's deadline goes through the heap, so
        // slicing moves events between the routes — and nothing else.
        let same_route = SimStats {
            in_place: whole.in_place,
            ..sliced
        };
        assert_eq!(same_route, whole, "slices of {width} ns");
        assert_eq!(trace, whole_trace, "slices of {width} ns");
    }
    assert!(
        in_place.windows(2).any(|w| w[0] != w[1]),
        "slicing never changed a route: {in_place:?}"
    );
}
