//! Differential tests: every prebuilt bytecode policy must make exactly
//! the decisions of its native reference implementation, over randomized
//! contexts — the correctness argument for replacing compiled-in policies
//! with verified user bytecode (§5's "pre-compiled versions of the same
//! locks").

use std::sync::Arc;

use cbpf::fault::{FaultInjector, FaultPlan};
use cbpf::interp::DEFAULT_BUDGET;
use cbpf::{ExecTier, FaultKind};
use concord::env::RealEnv;
use concord::policy::BytecodePolicy;
use concord::{hookctx, policies, Breaker, BreakerConfig, Concord, PolicySpec};
use ksim::{SimBuilder, SplitMix64};
use locks::hooks::{CmpNodeCtx, CmpNodeFn, HookKind, NodeView, ScheduleWaiterCtx};
use locks::ShflLock;
use proptest::prelude::*;
use simlocks::policy::SimPolicy;

fn view_strategy() -> impl Strategy<Value = NodeView> {
    (
        1u64..1000,
        0u32..80,
        -20i64..20,
        0u64..100_000,
        0u32..12,
        any::<u32>(),
    )
        .prop_map(|(tid, cpu, prio, cs_hint, held, wait)| NodeView {
            tid,
            cpu,
            socket: cpu / 10,
            prio,
            cs_hint,
            held_locks: held,
            wait_start_ns: u64::from(wait),
        })
}

fn cmp_ctx_strategy() -> impl Strategy<Value = CmpNodeCtx> {
    (any::<u64>(), view_strategy(), view_strategy()).prop_map(|(lock_id, shuffler, curr)| {
        CmpNodeCtx {
            lock_id,
            shuffler,
            curr,
        }
    })
}

fn bytecode_cmp(spec: concord::PolicySpec) -> CmpNodeFn {
    let c = Concord::new();
    let loaded = c.load(spec).expect("prebuilt policy verifies");
    BytecodePolicy::new(loaded.prog, loaded.hook, Arc::new(RealEnv::new()))
        .as_cmp_node()
        .expect("loaded for cmp_node")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn numa_aware_matches_native(ctx in cmp_ctx_strategy()) {
        let bytecode = bytecode_cmp(concord::policies::numa_aware());
        let native = concord::policies::numa_aware_native();
        prop_assert_eq!(bytecode(&ctx), native(&ctx));
    }

    #[test]
    fn priority_boost_matches_native(ctx in cmp_ctx_strategy()) {
        let bytecode = bytecode_cmp(concord::policies::priority_boost());
        let native = concord::policies::priority_boost_native();
        prop_assert_eq!(bytecode(&ctx), native(&ctx));
    }

    #[test]
    fn lock_inheritance_matches_native(ctx in cmp_ctx_strategy()) {
        let bytecode = bytecode_cmp(concord::policies::lock_inheritance());
        let native = concord::policies::lock_inheritance_native();
        prop_assert_eq!(bytecode(&ctx), native(&ctx));
    }

    #[test]
    fn scheduler_cooperative_matches_native(
        ctx in cmp_ctx_strategy(),
        threshold in 0u64..50_000,
    ) {
        let bytecode = bytecode_cmp(concord::policies::scheduler_cooperative(threshold));
        let native = concord::policies::scheduler_cooperative_native(threshold);
        prop_assert_eq!(bytecode(&ctx), native(&ctx));
    }

    #[test]
    fn amp_aware_matches_native(ctx in cmp_ctx_strategy(), fast in 1u32..80) {
        let bytecode = bytecode_cmp(concord::policies::amp_aware(fast));
        let native = concord::policies::amp_aware_native(fast);
        prop_assert_eq!(bytecode(&ctx), native(&ctx));
    }

    #[test]
    fn adaptive_parking_matches_native(
        curr in view_strategy(),
        waited in 0u64..200_000,
        spin in 0u64..100_000,
    ) {
        let c = Concord::new();
        let loaded = c.load(concord::policies::adaptive_parking(spin)).unwrap();
        let f = BytecodePolicy::new(loaded.prog, loaded.hook, Arc::new(RealEnv::new()))
            .as_schedule_waiter()
            .expect("loaded for schedule_waiter");
        let native = concord::policies::adaptive_parking_native(spin);
        let ctx = ScheduleWaiterCtx { lock_id: 1, curr, waited_ns: waited };
        prop_assert_eq!(f(&ctx), native(&ctx));
    }
}

#[test]
fn no_faults_across_many_invocations() {
    // The fault counter is the canary for verifier/interpreter drift.
    let c = Concord::new();
    let loaded = c.load(concord::policies::numa_aware()).unwrap();
    let policy = BytecodePolicy::new(loaded.prog, loaded.hook, Arc::new(RealEnv::new()));
    let f = policy.as_cmp_node().expect("loaded for cmp_node");
    let mk = |cpu| NodeView {
        tid: 1,
        cpu,
        socket: cpu / 10,
        prio: 0,
        cs_hint: 0,
        held_locks: 0,
        wait_start_ns: 0,
    };
    for i in 0..10_000u32 {
        f(&CmpNodeCtx {
            lock_id: u64::from(i),
            shuffler: mk(i % 80),
            curr: mk((i * 7) % 80),
        });
    }
    let (inv, faults) = policy.stats();
    assert_eq!(inv, 10_000);
    assert_eq!(faults, 0);
}

/// The three `cmp_node` policies that compare one field of the current
/// waiter with the same field of the shuffler, each with its native twin.
fn two_field_policies() -> [(PolicySpec, CmpNodeFn); 3] {
    [
        (policies::numa_aware(), policies::numa_aware_native()),
        (
            policies::priority_boost(),
            policies::priority_boost_native(),
        ),
        (
            policies::lock_inheritance(),
            policies::lock_inheritance_native(),
        ),
    ]
}

/// A waiter with every field the three policies read drawn from a range
/// narrow enough that both outcomes of each comparison come up.
fn seeded_view(rng: &mut SplitMix64) -> NodeView {
    let cpu = (rng.next_u64() % 80) as u32;
    NodeView {
        tid: rng.next_u64(),
        cpu,
        socket: cpu / 10,
        prio: (rng.next_u64() % 7) as i64 - 3,
        cs_hint: rng.next_u64(),
        held_locks: (rng.next_u64() % 4) as u32,
        wait_start_ns: rng.next_u64(),
    }
}

/// Every prebuilt two-field policy, installed the way an operator
/// installs it, decides as its native twin on 4 096 seeded contexts — at
/// the hook site, through the closure a lock calls, and on each
/// execution tier pinned — without one run-time fault.
#[test]
fn two_field_policies_match_native_on_both_tiers() {
    for (spec, native) in two_field_policies() {
        let name = spec.name.clone();
        let c = Concord::new();
        let lock = Arc::new(ShflLock::new());
        c.registry().register_shfl("l", Arc::clone(&lock));
        let loaded = c.load(spec).expect("prebuilt policy verifies");
        c.attach("l", &loaded)
            .expect("lock is registered and hookable");
        let policy =
            BytecodePolicy::new(loaded.prog.clone(), loaded.hook, Arc::new(RealEnv::new()));
        let closure = policy.as_cmp_node().expect("loaded for cmp_node");
        let prepared = loaded.prog.prepared();
        let env = RealEnv::new();
        let mut rng = SplitMix64::new(0xc3);
        let mut yes = 0;
        for _ in 0..4096 {
            let ctx = CmpNodeCtx {
                lock_id: lock.id(),
                shuffler: seeded_view(&mut rng),
                curr: seeded_view(&mut rng),
            };
            let want = native(&ctx);
            yes += u32::from(want);
            assert_eq!(
                lock.hooks().eval_cmp_node(&ctx),
                want,
                "{name} at the hook site"
            );
            assert_eq!(closure(&ctx), want, "{name} through the closure");
            for tier in [ExecTier::Interp, ExecTier::Jit] {
                let mut buf = hookctx::marshal_cmp_node(&ctx);
                let report = prepared
                    .run_tier(tier, &mut buf, &env, DEFAULT_BUDGET)
                    .unwrap_or_else(|e| panic!("{name} faults on {tier:?}: {e}"));
                assert_eq!(report.ret != 0, want, "{name} on {tier:?}");
            }
        }
        assert!(
            (400..3700).contains(&yes),
            "{name}: one-sided contexts ({yes} yes)"
        );
        assert_eq!(policy.stats(), (4096, 0), "{name}: run-time faults");
    }
}

/// The compiled tier reads these policies' fields as micro-ops of one
/// charge group: compare-and-branch, the `return 0` arm, exit, and the
/// end sentinel — four steps, none of them a load with run-time checks.
/// (Six before context reads folded; if this goes back up, the hook-fire
/// cost in EXPERIMENTS.md goes with it.) The one-field policies compare
/// against a constant the compiler turns into an immediate, and the
/// counter every profiling hook runs is four steps too: the lookup with
/// its null branch, the value's read-modify-write, exit, the sentinel
/// (six, with a generic load, if the lookup and the branch come apart).
/// Only the counter reaches its frame (its key lives there); the six
/// context-only policies run without one, so their entry zeroes none.
#[test]
fn two_field_policies_compile_without_a_load_step() {
    let others = [
        (policies::scheduler_cooperative(10_000), false),
        (policies::amp_aware(16), false),
        (policies::adaptive_parking(50_000), false),
        (
            policies::event_counter(HookKind::LockAcquired, policies::counter_map("acq")),
            true,
        ),
    ];
    for (spec, frame) in two_field_policies()
        .map(|(spec, _)| (spec, false))
        .into_iter()
        .chain(others)
    {
        let name = spec.name.clone();
        let loaded = Concord::new().load(spec).expect("prebuilt policy verifies");
        let jit = loaded.prog.prepared().compile_jit();
        assert_eq!(jit.step_count(), 4, "{name}: {jit:?}");
        assert_eq!(jit.generic_load_count(), 0, "{name}: {jit:?}");
        assert_eq!(jit.uses_frame(), frame, "{name}: {jit:?}");
    }
}

/// The real-thread and the DES hook paths are one dispatcher over two
/// clocks: one seeded context stream and one fault plan, driven through
/// `BytecodePolicy::contained` and through a contained `make_sim_policy`,
/// give equal verdicts, counters and fault tallies, and trip their
/// breakers at the same invocations. A zero cooldown keeps the trip
/// points clock-free: the half-open probe comes at the next invocation
/// on either clock.
#[test]
fn real_and_sim_dispatch_decide_alike_under_faults() {
    let cases = [
        (
            policies::numa_aware(),
            FaultPlan::from_invocation(700, FaultKind::Helper),
            BreakerConfig {
                threshold: 3,
                cooldown_ns: None,
            },
        ),
        (
            policies::priority_boost(),
            FaultPlan::on_invocation(300, FaultKind::Trap),
            BreakerConfig {
                threshold: 1,
                cooldown_ns: Some(0),
            },
        ),
        (
            policies::lock_inheritance(),
            FaultPlan::from_invocation(1_500, FaultKind::Budget),
            BreakerConfig {
                threshold: 4,
                cooldown_ns: Some(0),
            },
        ),
    ];
    for (spec, plan, cfg) in cases {
        let name = spec.name.clone();
        let c = Concord::new();
        let loaded = c.load(spec).expect("prebuilt policy verifies");
        let armed = || {
            (
                Arc::new(Breaker::new(cfg)),
                Arc::new(FaultInjector::new(plan.clone())),
            )
        };

        let (real_breaker, inj) = armed();
        let real = BytecodePolicy::contained(
            loaded.prog.clone(),
            loaded.hook,
            Arc::new(RealEnv::new()),
            Some(Arc::clone(&real_breaker)),
            Some(inj),
        );
        let real_fire = real.as_cmp_node().expect("loaded for cmp_node");
        let sim = SimBuilder::new().build();
        let (sim_breaker, inj) = armed();
        let simulated = c
            .make_sim_policy(&sim, &[&loaded])
            .with_containment(Arc::clone(&sim_breaker), Some(inj));

        let mut rng = SplitMix64::new(0xd1ff);
        let (mut real_trips, mut sim_trips) = (Vec::new(), Vec::new());
        let mut yes = 0;
        for i in 1..=2_048u64 {
            let ctx = CmpNodeCtx {
                lock_id: 1,
                shuffler: seeded_view(&mut rng),
                curr: seeded_view(&mut rng),
            };
            let verdict = real_fire(&ctx);
            yes += u32::from(verdict);
            assert_eq!(
                verdict,
                simulated.cmp_node(&ctx).0,
                "{name}: verdict at invocation {i}"
            );
            for (breaker, trips) in [
                (&real_breaker, &mut real_trips),
                (&sim_breaker, &mut sim_trips),
            ] {
                if breaker.trips() > trips.len() as u64 {
                    trips.push(i);
                }
            }
        }
        assert!(!real_trips.is_empty(), "{name}: the plan tripped nothing");
        assert!(yes > 0, "{name}: every verdict was the fail-safe one");
        assert_eq!(real_trips, sim_trips, "{name}: breaker trip points");
        assert_eq!(
            real.stats(),
            simulated.stats(),
            "{name}: (invocations, faults)"
        );
        assert_eq!(
            real.faults_by_kind(),
            simulated.faults_by_kind(),
            "{name}: faults by kind"
        );
    }
}
