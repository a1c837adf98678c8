//! End-to-end schedule exploration: every planted bug in `simlocks::broken`
//! must be found by every strategy, shrink to a minimal injection list, and
//! replay bit-identically from its text artifact (DESIGN.md §4.8).

use concord::{explore, ExploreConfig, ExploreError, Fixture, Repro, StrategySpec, Violation};

const STRATEGIES: &[&str] = &["random", "pct", "policy"];

fn campaign(fixture: Fixture, strategy: &str) -> concord::ExploreReport {
    let spec = StrategySpec::from_name(strategy).unwrap();
    let cfg = ExploreConfig {
        schedules: 64,
        base_seed: 7,
    };
    explore(fixture, &spec, &cfg).unwrap()
}

#[test]
fn every_strategy_finds_every_planted_bug() {
    for fixture in Fixture::BROKEN {
        for strategy in STRATEGIES {
            let report = campaign(fixture, strategy);
            let v = report
                .violation
                .unwrap_or_else(|| panic!("{} not caught under {strategy}", fixture.name()));
            let expected: &[&str] = match fixture {
                // The lost-ticket race surfaces as double entry or as the
                // second ticket-holder waiting forever.
                Fixture::BrokenTicket => &["mutex", "deadlock"],
                Fixture::Inversion => &["lock_order", "deadlock"],
                Fixture::Steal => &["starvation", "hazard"],
                Fixture::Zoo(_) => unreachable!(),
            };
            assert!(
                expected.contains(&v.kind()),
                "{} under {strategy}: unexpected violation {v}",
                fixture.name()
            );
            assert!(report.repro.is_some(), "violation without repro");
        }
    }
}

#[test]
fn shrunk_repros_replay_bit_identically() {
    for fixture in Fixture::BROKEN {
        let report = campaign(fixture, "random");
        let repro = report.repro.expect("planted bug not found");

        // Text artifact round-trips exactly.
        let parsed = Repro::from_text(&repro.to_text()).unwrap();
        assert_eq!(parsed, repro);

        // Two independent replays from the parsed artifact must both land
        // on the recorded violation kind and the pinned trace hash
        // (replay() verifies both internally).
        let first = parsed.replay().unwrap();
        let second = parsed.replay().unwrap();
        assert_eq!(first.trace_hash, repro.trace_hash);
        assert_eq!(second.trace_hash, repro.trace_hash);
    }
}

#[test]
fn exploration_is_deterministic() {
    for strategy in STRATEGIES {
        let a = campaign(Fixture::BrokenTicket, strategy);
        let b = campaign(Fixture::BrokenTicket, strategy);
        assert_eq!(a.first_bug_schedule, b.first_bug_schedule);
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.repro, b.repro, "shrink diverged under {strategy}");
    }
}

#[test]
fn shrunk_injection_lists_are_minimal() {
    // Dropping any single surviving injection must lose the violation —
    // otherwise the shrinker left slack. (Skip repros that already shrank
    // to the empty list, e.g. the schedule-independent ordering bug.)
    let report = campaign(Fixture::BrokenTicket, "random");
    let repro = report.repro.expect("planted bug not found");
    assert!(
        !repro.injections.is_empty(),
        "broken_ticket needs injections to race"
    );
    for drop_at in 0..repro.injections.len() {
        let mut trimmed = repro.clone();
        trimmed.injections.remove(drop_at);
        match trimmed.replay() {
            Err(ExploreError::ReplayDiverged { .. }) => {}
            Err(ExploreError::NondeterministicReplay { .. }) => {
                // Still failing, but along a different schedule — the
                // injection was load-bearing for the pinned trace.
            }
            Ok(_) => panic!("injection {drop_at} was removable; shrink not minimal"),
            Err(e) => panic!("unexpected replay error: {e}"),
        }
    }
}

#[test]
fn tampered_artifact_is_rejected() {
    let report = campaign(Fixture::BrokenTicket, "random");
    let repro = report.repro.expect("planted bug not found");
    let mut tampered = repro.clone();
    tampered.trace_hash ^= 1;
    assert!(matches!(
        tampered.replay(),
        Err(ExploreError::NondeterministicReplay { .. })
    ));
    let mut wrong_kind = repro;
    wrong_kind.violation = "starvation".to_string();
    assert!(matches!(
        wrong_kind.replay(),
        Err(ExploreError::ReplayDiverged { .. })
    ));
}

#[test]
fn inversion_is_schedule_independent() {
    // The AB/BA ordering bug is a protocol error, not a timing one: the
    // lock-order oracle flags it on the very first schedule and the
    // shrinker reduces the repro to the empty injection list.
    let report = campaign(Fixture::Inversion, "random");
    assert_eq!(report.first_bug_schedule, Some(0));
    let v = report.violation.unwrap();
    assert!(matches!(v, Violation::LockOrder { .. }), "got {v}");
    let repro = report.repro.unwrap();
    assert!(repro.injections.is_empty());
    repro.replay().unwrap();
}
