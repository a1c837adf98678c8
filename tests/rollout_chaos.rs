//! Deterministic chaos for the staged rollout controller.
//!
//! Three layers, per the rollout design (DESIGN.md §4.7):
//!
//! 1. **ksim sweep** — the controller runs as a task inside the discrete
//!    event simulator, applying waves to simulated locks in virtual time
//!    while worker tasks hammer them. A seeded [`ChaosPlan`] kills the
//!    controller at every reachable step boundary (all intent-log
//!    prefixes); after `Rollout::recover` the world must be fully
//!    applied or fully reverted, never mixed — and same-seed replays
//!    must be bit-identical, including the sim's trace hash.
//! 2. **real-thread sweep** — the same sweep against a real [`Concord`]
//!    with livepatch transactions, while threads hammer the locks.
//! 3. **live auto-abort** — a canary running an always-faulting policy
//!    must go red, abort, and restore every pre-rollout generation.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use cbpf::error::FaultKind;
use cbpf::fault::{FaultInjector, FaultPlan};
use concord::rollout::{
    chaos::{crash_sweep, Convergence, SweepOutcome},
    AlwaysGreen, ChaosInjector, ChaosPlan, HealthConfig, HealthVerdict, MetricsHealth, RealTarget,
    Rollout, RolloutError, RolloutLog, RolloutOutcome, RolloutPlan, RolloutTarget, ScriptedHealth,
    SimTarget, WaveOutcome,
};
use concord::{BreakerConfig, Concord, PolicySpec, SimPatches};
use ksim::{CpuId, SimBuilder};
use locks::hooks::HookKind;
use locks::{RawLock, ShflLock};
use simlocks::policy::SimPolicy;
use simlocks::SimShflLock;

const SIM_LOCKS: usize = 6;

/// One full ksim scenario under a chaos plan: build the world, run the
/// rollout inside `sim.run()`, recover if the controller died, report
/// convergence and a replay fingerprint.
fn sim_scenario(plan: ChaosPlan, red_wave: Option<usize>) -> Result<SweepOutcome, RolloutError> {
    let sim = SimBuilder::new().seed(plan.seed).build();
    let concord = Concord::new();
    let loaded = concord.load(concord::policies::numa_aware()).unwrap();

    let locks: Vec<(String, Rc<SimShflLock>)> = (0..SIM_LOCKS)
        .map(|i| (format!("sim{i}"), Rc::new(SimShflLock::new(&sim))))
        .collect();
    let names: Vec<String> = locks.iter().map(|(n, _)| n.clone()).collect();
    let base_gens: Vec<u64> = locks.iter().map(|(_, l)| l.policy_generation()).collect();

    let policy: Rc<dyn SimPolicy> = Rc::new(concord.make_sim_policy(&sim, &[&loaded]));
    let target = Rc::new(SimTarget::new(
        Rc::new(SimPatches::new(&sim)),
        locks.clone(),
        move |_| Ok(Rc::clone(&policy)),
    ));
    let log = RolloutLog::new();
    let chaos = Rc::new(ChaosInjector::new(plan));
    let crashed = Rc::new(Cell::new(false));

    // Workers: contention on every lock, so policy swaps land mid-wave.
    for (i, (_, l)) in locks.iter().enumerate() {
        for w in 0..3u32 {
            let l = Rc::clone(l);
            sim.spawn_on(CpuId(((i as u32) * 3 + w) * 7 % 64), move |t| async move {
                for _ in 0..20 {
                    l.acquire(&t).await;
                    t.advance(150 + t.rng_u64() % 100).await;
                    l.release(&t).await;
                    t.advance(t.rng_u64() % 300).await;
                }
            });
        }
    }

    // The controller task: staged waves in virtual time.
    {
        let target = Rc::clone(&target);
        let log = log.clone();
        let chaos = Rc::clone(&chaos);
        let crashed = Rc::clone(&crashed);
        let rollout_plan = RolloutPlan::staged(1, "numa", HookKind::CmpNode, &names, &[50]);
        let verdicts: Vec<HealthVerdict> = (0..rollout_plan.waves.len())
            .map(|w| {
                if red_wave == Some(w) {
                    HealthVerdict::Red(format!("scripted red on wave {w}"))
                } else {
                    HealthVerdict::Green
                }
            })
            .collect();
        sim.spawn_on(CpuId(0), move |t| async move {
            let mut health = ScriptedHealth::new(verdicts);
            let mut outcome =
                match Rollout::start(rollout_plan, &log, &*target, &mut health, &chaos) {
                    Ok(o) => o,
                    Err(RolloutError::Crashed(_)) => {
                        crashed.set(true);
                        return;
                    }
                    Err(e) => panic!("unexpected rollout error: {e}"),
                };
            loop {
                match outcome {
                    WaveOutcome::Committed | WaveOutcome::Aborted(_) => return,
                    WaveOutcome::WaveHealthy { .. } => {
                        // Soak: let the applied wave run under load before
                        // the next promotion.
                        t.advance(4_000).await;
                        outcome = match Rollout::promote(&log, &*target, &mut health, &chaos) {
                            Ok(o) => o,
                            Err(RolloutError::Crashed(_)) => {
                                crashed.set(true);
                                return;
                            }
                            Err(e) => panic!("unexpected rollout error: {e}"),
                        };
                    }
                }
            }
        });
    }

    let stats = sim.run();
    if crashed.get() {
        // The controller process died; a fresh one recovers from the
        // durable log against the surviving lock state.
        Rollout::recover(&log, &*target, &ChaosInjector::inert())?;
    }

    let applied = target.applied_locks(1, &names).len();
    let converged = if applied == SIM_LOCKS {
        Convergence::AllApplied
    } else if applied == 0 {
        // Fully reverted also means every lock is back on its original
        // policy object: generation moved by exactly 0 or 2 (swap in +
        // swap out), never 1.
        for ((name, l), base) in locks.iter().zip(&base_gens) {
            let delta = l.policy_generation() - base;
            if delta % 2 != 0 {
                return Ok(SweepOutcome {
                    converged: Convergence::Mixed(format!(
                        "{name}: odd policy-generation delta {delta}"
                    )),
                    steps: chaos.steps_taken(),
                    fingerprint: 0,
                });
            }
        }
        Convergence::AllReverted
    } else {
        Convergence::Mixed(format!("{applied}/{SIM_LOCKS} locks patched"))
    };
    Ok(SweepOutcome {
        converged,
        steps: chaos.steps_taken(),
        // Replay fingerprint: the intent log fold mixed with the sim's
        // own trace hash — bit-identical across same-seed replays.
        fingerprint: log.fingerprint() ^ stats.trace_hash.rotate_left(17),
    })
}

/// Every intent-log prefix (crash point) converges in the simulator, for
/// several seeds, both on the commit path and on a red-health path.
#[test]
fn ksim_crash_sweep_converges_at_every_step() {
    for seed in [7, 42, 1009] {
        let report = crash_sweep(seed, |plan| sim_scenario(plan, None)).unwrap();
        assert!(
            report.crash_points > 15,
            "seed {seed}: suspiciously few steps ({})",
            report.crash_points
        );
        assert!(report.applied_runs >= 1, "seed {seed}: no run committed");
        assert!(
            report.reverted_runs >= 1,
            "seed {seed}: no crash forced a rollback"
        );
    }
    // Red health mid-rollout: every crash point still converges (all
    // runs end reverted — a red canary must never leave patches behind).
    let report = crash_sweep(5, |plan| sim_scenario(plan, Some(1))).unwrap();
    assert_eq!(
        report.applied_runs, 0,
        "a red wave must never end fully applied"
    );
}

/// Same seed, same chaos plan → bit-identical outcome, including the
/// simulator's trace hash folded into the fingerprint.
#[test]
fn ksim_chaos_replays_bit_identically() {
    for plan in [
        ChaosPlan::inert(42),
        ChaosPlan::crash_at(42, 5),
        ChaosPlan::crash_at(42, 19),
        ChaosPlan::crash_at(1234, 11),
    ] {
        let a = sim_scenario(plan, None).unwrap();
        let b = sim_scenario(plan, None).unwrap();
        assert_eq!(a, b, "replay of {plan:?} diverged");
    }
    // Different seeds must visibly change the world.
    let a = sim_scenario(ChaosPlan::inert(1), None).unwrap();
    let b = sim_scenario(ChaosPlan::inert(2), None).unwrap();
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// The real-thread analogue: livepatch transactions on real locks with
/// hammer threads racing every wave, crashed at every step boundary.
#[test]
fn real_thread_crash_sweep_converges() {
    let scenario = |plan: ChaosPlan| -> Result<SweepOutcome, RolloutError> {
        let concord = Concord::new();
        let mut handles = Vec::new();
        let mut names = Vec::new();
        for i in 0..5 {
            let name = format!("lock{i}");
            let l = Arc::new(ShflLock::new());
            concord.registry().register_shfl(&name, Arc::clone(&l));
            names.push(name);
            handles.push(l);
        }
        let loaded = concord.load(concord::policies::numa_aware()).unwrap();
        let target = RealTarget::new(&concord, loaded, BreakerConfig::default());
        let log = RolloutLog::new();
        let chaos = ChaosInjector::new(plan);

        // Two hammer threads race the whole rollout on the canary and
        // one late-wave lock.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hammers: Vec<_> = [0usize, 4]
            .into_iter()
            .map(|i| {
                let l = Arc::clone(&handles[i]);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let _g = l.lock();
                    }
                })
            })
            .collect();

        let rollout_plan = RolloutPlan::staged(1, "numa", HookKind::CmpNode, &names, &[50]);
        let run = Rollout::run(rollout_plan, &log, &target, &mut AlwaysGreen, &chaos);
        if let Err(RolloutError::Crashed(_)) = run {
            Rollout::recover(&log, &target, &ChaosInjector::inert())?;
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        for h in hammers {
            h.join().unwrap();
        }

        let live = target.applied_locks(1, &names).len();
        let converged = if live == names.len() {
            Convergence::AllApplied
        } else if live == 0 {
            Convergence::AllReverted
        } else {
            Convergence::Mixed(format!("{live}/{} locks patched", names.len()))
        };
        // Post-condition either way: the locks still work.
        for l in &handles {
            drop(l.lock());
        }
        Ok(SweepOutcome {
            converged,
            steps: chaos.steps_taken(),
            fingerprint: log.fingerprint(),
        })
    };
    let report = crash_sweep(3, scenario).unwrap();
    assert!(report.crash_points > 10);
    assert!(report.applied_runs >= 1);
    assert!(report.reverted_runs >= 1);
}

/// The acceptance scenario: a live rollout whose canary runs an
/// always-faulting policy must auto-abort on the canary's health gate
/// and restore every pre-rollout generation.
#[test]
fn live_canary_fault_auto_aborts_and_restores() {
    let concord = Concord::new();
    let mut names = Vec::new();
    let mut locks = Vec::new();
    for i in 0..4 {
        let name = format!("lock{i}");
        let l = Arc::new(ShflLock::new());
        concord.registry().register_shfl(&name, Arc::clone(&l));
        names.push(name);
        locks.push(l);
    }
    // A policy on the lock_acquire event hook: invoked on *every*
    // acquisition, with a fault injector that fails from the first
    // invocation on — the always-faulting canary.
    let loaded = concord
        .load(PolicySpec::from_c(
            "hot",
            HookKind::LockAcquire,
            "return 0;",
        ))
        .unwrap();
    let injector = Arc::new(FaultInjector::new(FaultPlan::from_invocation(
        1,
        FaultKind::Helper,
    )));
    let target = RealTarget::new(
        &concord,
        loaded,
        BreakerConfig {
            threshold: 3,
            cooldown_ns: None,
        },
    )
    .with_injector(injector);

    // Health judges each wave by driving real load on the wave's locks
    // and reading the fault deltas out of the wave's breakers.
    let exercise_locks = locks.clone();
    let exercise_names = names.clone();
    let mut health = MetricsHealth::new(HealthConfig::default(), target.breakers()).with_exercise(
        move |_wave, wave_locks| {
            for wl in wave_locks {
                let ix = exercise_names.iter().position(|n| n == wl).unwrap();
                for _ in 0..16 {
                    drop(exercise_locks[ix].lock());
                }
            }
        },
    );

    let pre_patches = concord.live_patches();
    let log = RolloutLog::new();
    let plan = RolloutPlan::staged(9, "hot", HookKind::LockAcquire, &names, &[50]);
    let outcome = Rollout::run(plan, &log, &target, &mut health, &ChaosInjector::inert()).unwrap();

    match &outcome {
        RolloutOutcome::Aborted(reason) => {
            assert!(
                reason.contains("policy faults") || reason.contains("breaker trips"),
                "abort must come from the health gate, got: {reason}"
            );
        }
        RolloutOutcome::Committed => panic!("a faulting canary must not commit"),
    }
    // Every pre-rollout generation is restored: no rollout patches
    // remain, the patch stack matches the pre-rollout stack, and the
    // locks dispatch normally.
    assert_eq!(target.applied_locks(9, &names), Vec::<String>::new());
    assert_eq!(concord.live_patches(), pre_patches);
    assert_eq!(
        Rollout::status(&log).state,
        format!(
            "aborted: {}",
            match outcome {
                RolloutOutcome::Aborted(r) => r,
                RolloutOutcome::Committed => unreachable!(),
            }
        )
    );
    for l in &locks {
        drop(l.lock());
    }
}

/// A canary whose faults stay *under* budget promotes: the gate reads
/// deltas, not absolutes.
#[test]
fn healthy_rollout_under_load_commits() {
    let concord = Concord::new();
    let mut names = Vec::new();
    let mut locks = Vec::new();
    for i in 0..4 {
        let name = format!("lock{i}");
        let l = Arc::new(ShflLock::new());
        concord.registry().register_shfl(&name, Arc::clone(&l));
        names.push(name);
        locks.push(l);
    }
    let loaded = concord
        .load(PolicySpec::from_c("ok", HookKind::LockAcquire, "return 0;"))
        .unwrap();
    let target = RealTarget::new(&concord, loaded, BreakerConfig::default());
    let exercise_locks = locks.clone();
    let exercise_names = names.clone();
    // The breaker-trip gate reads the process-global metrics registry;
    // sibling tests in this binary trip breakers concurrently, so only
    // the (per-rollout, isolated) fault gate is armed here.
    let cfg = HealthConfig {
        max_breaker_trips: u64::MAX / 2,
        ..HealthConfig::default()
    };
    let mut health =
        MetricsHealth::new(cfg, target.breakers()).with_exercise(move |_wave, wave_locks| {
            for wl in wave_locks {
                let ix = exercise_names.iter().position(|n| n == wl).unwrap();
                for _ in 0..16 {
                    drop(exercise_locks[ix].lock());
                }
            }
        });
    let log = RolloutLog::new();
    let plan = RolloutPlan::staged(2, "ok", HookKind::LockAcquire, &names, &[50]);
    let outcome = Rollout::run(plan, &log, &target, &mut health, &ChaosInjector::inert()).unwrap();
    assert_eq!(outcome, RolloutOutcome::Committed);
    assert_eq!(target.applied_locks(2, &names).len(), names.len());
    // And a follow-up generation can pull it all back out.
    Rollout::abort("test teardown", &log, &target, &ChaosInjector::inert()).unwrap_err();
    // (terminal log refuses abort — tear down via a probe-driven revert)
    target.revert_locks(2, &names).unwrap();
    assert!(target.applied_locks(2, &names).is_empty());
}

/// A SimTarget wave whose policy factory fails on one lock unwinds
/// mid-wave and the rollout aborts — the sim analogue of a torn livepatch
/// transaction.
#[test]
fn sim_apply_failure_mid_wave_unwinds() {
    let sim = SimBuilder::new().seed(11).build();
    let locks: Vec<(String, Rc<SimShflLock>)> = (0..4)
        .map(|i| (format!("sim{i}"), Rc::new(SimShflLock::new(&sim))))
        .collect();
    let names: Vec<String> = locks.iter().map(|(n, _)| n.clone()).collect();
    let before: Vec<Rc<dyn SimPolicy>> = locks.iter().map(|(_, l)| l.policy()).collect();
    let patches = Rc::new(SimPatches::new(&sim));
    let fifo: Rc<dyn SimPolicy> = Rc::new(simlocks::FifoPolicy);
    // Wave 1 (sim1, sim2 under [75]) fails on its second lock.
    let target = SimTarget::new(Rc::clone(&patches), locks.clone(), move |name| {
        if name == "sim2" {
            Err(format!("injected apply failure on {name}"))
        } else {
            Ok(Rc::clone(&fifo))
        }
    });
    let log = RolloutLog::new();
    let plan = RolloutPlan::staged(1, "fifo", HookKind::CmpNode, &names, &[75]);
    let outcome = Rollout::run(
        plan,
        &log,
        &target,
        &mut AlwaysGreen,
        &ChaosInjector::inert(),
    )
    .unwrap();
    match outcome {
        RolloutOutcome::Aborted(reason) => assert!(reason.contains("injected apply failure")),
        RolloutOutcome::Committed => panic!("expected abort"),
    }
    assert!(patches.live().is_empty(), "canary must unwind too");
    for ((name, l), p) in locks.iter().zip(&before) {
        assert!(Rc::ptr_eq(&l.policy(), p), "{name} lost its policy");
    }
}

/// The sim side of `rollout_and_fleet_patches_keep_their_tags`: a rollout
/// wave and a plain attach on one sim lock share its patch stack, each
/// probe answers for its own tag only, and reverting the buried wave
/// leaves the plain attach's policy live.
#[test]
fn sim_rollout_and_plain_patches_keep_their_tags() {
    let sim = SimBuilder::new().seed(1).build();
    let concord = Concord::new();
    let lock = Rc::new(SimShflLock::new(&sim));
    let locks = vec!["L".to_string()];
    let patches = Rc::new(SimPatches::new(&sim));
    let wave: Rc<dyn SimPolicy> = Rc::new(simlocks::FifoPolicy);
    let target = SimTarget::new(
        Rc::clone(&patches),
        vec![("L".to_string(), Rc::clone(&lock))],
        move |_| Ok(Rc::clone(&wave)),
    );
    target.apply_locks(1, &locks).unwrap();
    let loaded = concord.load(concord::policies::numa_aware()).unwrap();
    let plain: Rc<dyn SimPolicy> = Rc::new(concord.make_sim_policy(&sim, &[&loaded]));
    patches.attach("L", &lock, Rc::clone(&plain));

    assert_eq!(patches.live(), vec!["rollout-g1:L/policy", "L/policy"]);
    assert_eq!(target.applied_locks(1, &locks), locks);
    assert_eq!(patches.tagged_locks("", &locks), locks);
    assert!(target.applied_locks(2, &locks).is_empty());

    target.revert_locks(1, &locks).unwrap();
    assert_eq!(patches.live(), vec!["L/policy"]);
    assert!(target.applied_locks(1, &locks).is_empty());
    assert_eq!(patches.tagged_locks("", &locks), locks);
    assert!(
        Rc::ptr_eq(&lock.policy(), &plain),
        "reverting the buried wave must leave the plain attach live"
    );
}

/// Crash *during recovery* still converges: recovery is idempotent
/// because every decision probes live patch state.
#[test]
fn crash_during_recovery_reconverges() {
    // First crash the rollout at a point where waves are partially
    // applied, then crash recovery itself at each of *its* steps and
    // re-recover until it completes.
    let concord = Concord::new();
    let mut names = Vec::new();
    for i in 0..5 {
        let name = format!("lock{i}");
        concord
            .registry()
            .register_shfl(&name, Arc::new(ShflLock::new()));
        names.push(name);
    }
    let loaded = concord.load(concord::policies::numa_aware()).unwrap();
    let target = RealTarget::new(&concord, loaded, BreakerConfig::default());
    let log = RolloutLog::new();
    // Crash mid-rollout (step 8 lands after the canary applied).
    let plan = RolloutPlan::staged(1, "numa", HookKind::CmpNode, &names, &[50]);
    let run = Rollout::run(
        plan,
        &log,
        &target,
        &mut AlwaysGreen,
        &ChaosInjector::new(ChaosPlan::crash_at(0, 8)),
    );
    assert!(matches!(run, Err(RolloutError::Crashed(8))));
    assert!(
        !target.applied_locks(1, &names).is_empty(),
        "step 8 must land with patches applied"
    );

    // Sweep recovery's own crash points.
    let probe = ChaosInjector::inert();
    let baseline_log = log.clone();
    // Count recovery steps with a dry run on a cloned world? Recovery
    // mutates, so instead: crash recovery at step k for growing k until
    // a run completes without crashing; each attempt recovers the same
    // (durable) log and world.
    let mut k = 0;
    loop {
        match Rollout::recover(
            &baseline_log,
            &target,
            &ChaosInjector::new(ChaosPlan::crash_at(0, k)),
        ) {
            Err(RolloutError::Crashed(_)) => {
                k += 1;
                assert!(k < 200, "recovery never completes");
            }
            Ok(out) => {
                // Converged (possibly after several crashed attempts).
                assert!(matches!(
                    out,
                    concord::RecoverOutcome::RolledBack
                        | concord::RecoverOutcome::AlreadyTerminal(_)
                ));
                break;
            }
            Err(e) => panic!("unexpected recovery error: {e}"),
        }
    }
    assert!(target.applied_locks(1, &names).is_empty());
    // A final recover on the terminal log is a no-op.
    assert!(matches!(
        Rollout::recover(&baseline_log, &target, &probe).unwrap(),
        concord::RecoverOutcome::AlreadyTerminal(RolloutOutcome::Aborted(_))
    ));
}
