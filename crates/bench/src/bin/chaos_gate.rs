//! Rollout chaos-convergence gate, run by `scripts/ci.sh`.
//!
//! For every seed in `SEEDS` (3, 7 and 42), crash-sweeps a staged
//! rollout over a real `Concord` world: the controller is killed at
//! every intent-log step boundary, a fresh controller recovers from the
//! write-ahead log, and every run must converge fully applied or fully
//! reverted — never a mix of generations. Each seed's sweep then runs a
//! second time and the two reports must be identical, pinning the
//! deterministic-replay contract at the CI gate, not just in the test
//! suite.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use concord::rollout::chaos::{crash_sweep, Convergence, SweepOutcome, SweepReport};
use concord::rollout::{
    AlwaysGreen, ChaosInjector, ChaosPlan, RealTarget, Rollout, RolloutError, RolloutLog,
    RolloutPlan, RolloutTarget,
};
use concord::{BreakerConfig, Concord};
use locks::hooks::HookKind;
use locks::{RawLock, ShflLock};

const GATE_LOCKS: usize = 6;
const SEEDS: &[u64] = &[3, 7, 42];

/// One scenario run: fresh world, staged rollout under `plan`, recovery
/// if the controller crashed, convergence verdict.
fn scenario(plan: ChaosPlan) -> Result<SweepOutcome, RolloutError> {
    let concord = Concord::new();
    let mut handles = Vec::new();
    let mut names = Vec::new();
    for i in 0..GATE_LOCKS {
        let name = format!("gate{i}");
        let l = Arc::new(ShflLock::new());
        concord.registry().register_shfl(&name, Arc::clone(&l));
        names.push(name);
        handles.push(l);
    }
    let loaded = concord.load(concord::policies::numa_aware()).unwrap();
    let target = RealTarget::new(&concord, loaded, BreakerConfig::default());
    let log = RolloutLog::new();
    let chaos = ChaosInjector::new(plan);

    // One hammer thread on the canary so patch transactions race live
    // dispatch, as they would in production.
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let l = Arc::clone(&handles[0]);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let _g = l.lock();
            }
        })
    };

    let rollout_plan = RolloutPlan::staged(1, "numa", HookKind::CmpNode, &names, &[50]);
    let run = Rollout::run(rollout_plan, &log, &target, &mut AlwaysGreen, &chaos);
    if let Err(RolloutError::Crashed(_)) = run {
        Rollout::recover(&log, &target, &ChaosInjector::inert())?;
    }
    stop.store(true, Ordering::Release);
    hammer.join().expect("hammer thread panicked");

    let live = target.applied_locks(1, &names).len();
    let converged = if live == names.len() {
        Convergence::AllApplied
    } else if live == 0 {
        Convergence::AllReverted
    } else {
        Convergence::Mixed(format!("{live}/{} locks patched", names.len()))
    };
    // Whatever happened to the rollout, the locks must still work.
    for l in &handles {
        drop(l.lock());
    }
    Ok(SweepOutcome {
        converged,
        steps: chaos.steps_taken(),
        fingerprint: log.fingerprint(),
    })
}

fn print_report(r: &SweepReport) {
    println!(
        "chaos_gate: seed {} — {} crash points, {} applied / {} reverted, \
         baseline fingerprint {:#018x}",
        r.seed, r.crash_points, r.applied_runs, r.reverted_runs, r.baseline_fingerprint
    );
}

fn main() {
    println!("chaos_gate: sweeping seeds {SEEDS:?} over {GATE_LOCKS} locks");
    let mut failed = false;
    for &seed in SEEDS {
        let first = match crash_sweep(seed, scenario) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("chaos_gate: FAIL — {e}");
                failed = true;
                continue;
            }
        };
        print_report(&first);
        if first.applied_runs == 0 || first.reverted_runs == 0 {
            eprintln!(
                "chaos_gate: FAIL — seed {seed} sweep did not exercise both terminal states \
                 ({} applied, {} reverted)",
                first.applied_runs, first.reverted_runs
            );
            failed = true;
            continue;
        }
        // Replay: the sweep must be reproducible run-to-run.
        match crash_sweep(seed, scenario) {
            Ok(second) if second == first => {}
            Ok(second) => {
                eprintln!(
                    "chaos_gate: FAIL — seed {seed} replay diverged: {first:?} vs {second:?}"
                );
                failed = true;
            }
            Err(e) => {
                eprintln!("chaos_gate: FAIL — seed {seed} replay: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("chaos_gate: OK");
}
