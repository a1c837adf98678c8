//! Schedule-exploration gate, run by `scripts/ci.sh`.
//!
//! For every base seed in `SEEDS` (3, 7 and 42) and every strategy
//! (random, pct, policy), explores the three deliberately broken
//! fixtures in `simlocks::broken` under a fixed schedule budget. The
//! gate fails unless:
//!
//! - every planted bug is found by every strategy from every base seed;
//! - each failure shrinks to a minimal injection list (the shrinker
//!   already pins it with a double replay);
//! - the shrunk [`Repro`] round-trips through its text format and replays
//!   twice more with an identical violation kind and trace hash; and
//! - the correct zoo locks stay violation-free under the same strategies
//!   (no false positives).
//!
//! Throughput and schedules-to-first-bug are printed per strategy;
//! `BENCH_schedule.json` records them.

use std::time::Instant;

use concord::{explore, ExploreConfig, Fixture, Repro, StrategySpec, ZooLock};

const SEEDS: &[u64] = &[3, 7, 42];
const SCHEDULE_BUDGET: u32 = 64;
const STRATEGIES: &[&str] = &["random", "pct", "policy"];

/// Replays `repro` twice after a text round-trip; both runs must land on
/// the recorded violation kind and trace hash.
fn pin_repro(repro: &Repro) -> Result<(), String> {
    let text = repro.to_text();
    let parsed = Repro::from_text(&text).map_err(|e| format!("artifact round-trip: {e}"))?;
    if parsed != *repro {
        return Err("artifact round-trip changed the repro".to_string());
    }
    for pass in 1..=2 {
        parsed
            .replay()
            .map_err(|e| format!("replay pass {pass}: {e}"))?;
    }
    Ok(())
}

fn main() {
    println!(
        "schedule_gate: {} fixtures x {:?} x seeds {SEEDS:?}, budget {SCHEDULE_BUDGET} schedules",
        Fixture::BROKEN.len(),
        STRATEGIES,
    );
    let mut failed = false;

    for strat in STRATEGIES {
        let spec = StrategySpec::from_name(strat).expect("gate strategy");
        let mut campaigns = 0u32;
        let mut schedules = 0u64;
        let mut first_bug_sum = 0u64;
        let started = Instant::now();
        for fixture in Fixture::BROKEN {
            for &seed in SEEDS {
                let cfg = ExploreConfig {
                    schedules: SCHEDULE_BUDGET,
                    base_seed: seed,
                    ..ExploreConfig::default()
                };
                let report = match explore(fixture, &spec, &cfg) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!(
                            "schedule_gate: FAIL — {} under {strat} (seed {seed}): {e}",
                            fixture.name()
                        );
                        failed = true;
                        continue;
                    }
                };
                campaigns += 1;
                schedules += u64::from(report.schedules_run);
                let (Some(first), Some(violation), Some(repro)) = (
                    report.first_bug_schedule,
                    report.violation.as_ref(),
                    report.repro.as_ref(),
                ) else {
                    eprintln!(
                        "schedule_gate: FAIL — {} under {strat} (seed {seed}): planted bug \
                         not found in {SCHEDULE_BUDGET} schedules",
                        fixture.name()
                    );
                    failed = true;
                    continue;
                };
                first_bug_sum += u64::from(first) + 1;
                if let Err(e) = pin_repro(repro) {
                    eprintln!(
                        "schedule_gate: FAIL — {} under {strat} (seed {seed}): {e}",
                        fixture.name()
                    );
                    failed = true;
                    continue;
                }
                println!(
                    "schedule_gate: {} under {strat} (seed {seed}) — {} at schedule {}, \
                     shrunk to {} injection(s), trace {:#x}",
                    fixture.name(),
                    violation.kind(),
                    first,
                    repro.injections.len(),
                    repro.trace_hash,
                );
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        if campaigns > 0 {
            println!(
                "schedule_gate: {strat}: {:.0} schedules/sec, mean schedules-to-first-bug {:.2}",
                schedules as f64 / elapsed,
                first_bug_sum as f64 / f64::from(campaigns),
            );
        }
    }

    // False-positive sweep: the correct zoo must stay clean under the
    // same strategies and budgetted seeds.
    for z in ZooLock::ALL {
        for strat in STRATEGIES {
            let spec = StrategySpec::from_name(strat).expect("gate strategy");
            let cfg = ExploreConfig {
                schedules: 8,
                base_seed: SEEDS[0],
                ..ExploreConfig::default()
            };
            match explore(Fixture::Zoo(z), &spec, &cfg) {
                Ok(report) if report.violation.is_none() => {}
                Ok(report) => {
                    eprintln!(
                        "schedule_gate: FAIL — false positive on zoo_{} under {strat}: {:?}",
                        z.name(),
                        report.violation
                    );
                    failed = true;
                }
                Err(e) => {
                    eprintln!("schedule_gate: FAIL — zoo_{} under {strat}: {e}", z.name());
                    failed = true;
                }
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("schedule_gate: OK");
}
