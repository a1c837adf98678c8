//! Integration tests for the fleet control plane: convergence under the
//! full chaos sweep, deterministic replay, degraded-mode serving, the
//! exactly-once real-host apply path, rollout-driven batched attach, and
//! the Prometheus exposition of the fleet metrics.

use std::collections::BTreeMap;
use std::sync::Arc;

use concord::fleet::{
    fleet_sweep, run_fleet, seal_demo_artifact, DeliverOutcome, Delta, FleetConfig, FleetTarget,
    PolicyStore, RealFleetHost,
};
use concord::rollout::{
    AlwaysGreen, ChaosInjector, ChaosPlan, Rollout, RolloutLog, RolloutOutcome, RolloutPlan,
};
use locks::hooks::HookKind;
use locks::{RawLock, ShflLock};

/// An inert (no-crash) run on a lossy network with a partition window
/// converges every host to the store head, never tears an apply, and
/// exercises the whole failure surface: retries, dedupe, lease expiry,
/// reconciliation, degraded-mode serving.
#[test]
fn lossy_run_converges_and_serves_degraded() {
    let cfg = FleetConfig::small(7, seal_demo_artifact());
    let report = run_fleet(&cfg, ChaosPlan::inert(7));
    assert!(
        report.converged,
        "head {} hosts {:?}",
        report.head, report.host_versions
    );
    assert_eq!(report.torn, 0, "torn applies observed");
    assert_eq!(report.head, concord::fleet::VERSIONS);
    assert!(report.retries > 0, "lossy run should retransmit");
    assert!(report.dedup_drops > 0, "lossy run should deduplicate");
    assert!(
        report.lease_expiries > 0,
        "partition window should lapse a lease"
    );
    assert!(
        report.degraded_serves > 0,
        "degraded host should keep serving last-known-good"
    );
    assert!(report.reconciles > 0, "reconcile sweep should do work");
}

/// The same seed replays bit-identically, fingerprint included; a
/// different seed diverges.
#[test]
fn fleet_runs_are_bit_identical_per_seed() {
    let cfg = FleetConfig::small(11, seal_demo_artifact());
    let a = run_fleet(&cfg, ChaosPlan::inert(11));
    let b = run_fleet(&cfg, ChaosPlan::inert(11));
    assert_eq!(a, b, "same seed, different world");
    let cfg13 = FleetConfig::small(13, seal_demo_artifact());
    let c = run_fleet(&cfg13, ChaosPlan::inert(13));
    assert_ne!(a.fingerprint, c.fingerprint, "seed is not flowing");
}

/// The full crash sweep: the daemon is killed at every protocol step
/// boundary, and every run still converges all hosts to the head.
#[test]
fn crash_sweep_converges_at_every_step() {
    let cfg = FleetConfig::small(3, seal_demo_artifact());
    let report = fleet_sweep(3, &cfg).expect("sweep must converge");
    assert!(report.crash_points > 0, "no crash points swept");
    assert_eq!(
        report.applied_runs,
        report.crash_points + 1,
        "every run (inert + each crash) must end all-applied"
    );
    // And the sweep itself replays bit-identically.
    let again = fleet_sweep(3, &cfg).expect("sweep must converge");
    assert_eq!(report, again, "sweep is not deterministic");
}

/// At-least-once delivery composes with the version gate into
/// exactly-once livepatch effect: duplicated applies of the same
/// version change nothing, and the whole host moves in one transaction.
#[test]
fn real_host_applies_exactly_once() {
    let concord = concord::Concord::new();
    let mut locks = BTreeMap::new();
    let mut handles = Vec::new();
    for t in 0..3u64 {
        let name = format!("fleet_lock_{t}");
        let l = Arc::new(ShflLock::new());
        concord.registry().register_shfl(&name, Arc::clone(&l));
        locks.insert(t, name);
        handles.push(l);
    }
    let store = PolicyStore::new(16);
    let v1 = store
        .publish(&Delta::bind_all(&[0, 1, 2], 500, seal_demo_artifact()))
        .unwrap();
    let snap = store.snapshot(v1).unwrap();

    let host = RealFleetHost::new(&concord, HookKind::CmpNode, locks);
    assert_eq!(host.apply(v1, &snap).unwrap(), DeliverOutcome::Applied);
    let live_after_first = concord.live_patches().len();
    assert_eq!(host.patched_locks(v1).len(), 3);

    // Duplicate deliveries: wire-level at-least-once.
    for _ in 0..4 {
        assert_eq!(host.apply(v1, &snap).unwrap(), DeliverOutcome::Duplicate);
    }
    assert_eq!(
        concord.live_patches().len(),
        live_after_first,
        "duplicate delivery re-applied patches"
    );
    assert_eq!(host.applied(), v1);

    // The locks still work with the policy live.
    for l in &handles {
        drop(l.lock());
    }

    // A newer version applies once and supersedes.
    let v2 = store
        .publish(&Delta::bind_all(&[0, 1, 2], 501, seal_demo_artifact()))
        .unwrap();
    let snap2 = store.snapshot(v2).unwrap();
    assert_eq!(host.apply(v2, &snap2).unwrap(), DeliverOutcome::Applied);
    assert_eq!(host.apply(v1, &snap).unwrap(), DeliverOutcome::Duplicate);
    assert_eq!(host.applied(), v2);
}

/// A malformed artifact unwinds the whole host transaction: no lock
/// moves, the previous version keeps serving (never torn).
#[test]
fn real_host_apply_is_all_or_nothing() {
    let concord = concord::Concord::new();
    let mut locks = BTreeMap::new();
    for t in 0..2u64 {
        let name = format!("aon_lock_{t}");
        let l = Arc::new(ShflLock::new());
        concord.registry().register_shfl(&name, Arc::clone(&l));
        locks.insert(t, name);
    }
    let store = PolicyStore::new(16);
    // Tenant 1's artifact is garbage: it fails wire::open on the host.
    let mut delta = Delta::bind_all(&[0], 600, seal_demo_artifact());
    delta.artifacts.push((601, Arc::new(vec![0xff; 32])));
    delta.bindings.push((1, 601));
    let v = store.publish(&delta).unwrap();
    let snap = store.snapshot(v).unwrap();

    let host = RealFleetHost::new(&concord, HookKind::CmpNode, locks);
    let before = concord.live_patches().len();
    assert!(host.apply(v, &snap).is_err());
    assert_eq!(
        concord.live_patches().len(),
        before,
        "failed apply left partial patches"
    );
    assert_eq!(host.applied(), 0, "failed apply advanced the version");
}

/// A host verifies an artifact once per delivery however many of its
/// locks are bound to it, but map state stays per lock: the policy here
/// answers "has this instance been asked before?" out of a map.
#[test]
fn real_host_gives_each_lock_its_own_maps() {
    use concord::{hookctx, PolicySpec};
    use locks::hooks::{CmpNodeCtx, NodeView};

    let concord = concord::Concord::new();
    let mut spec = PolicySpec::from_asm(
        "asked_before",
        HookKind::CmpNode,
        "ldmap r1, seen\n stw [r10-4], 0\n mov r2, r10\n add r2, -4\n \
         call map_lookup_elem\n jeq r0, 0, no\n ldxdw r1, [r0]\n mov r2, r1\n \
         add r2, 1\n stxdw [r0], r2\n jeq r1, 0, no\n mov r0, 1\n exit\n\
         no:\n mov r0, 0\n exit",
    );
    spec.maps
        .push(Arc::new(cbpf::map::Map::new(cbpf::map::MapDef {
            name: "seen".into(),
            kind: cbpf::map::MapKind::Array,
            key_size: 4,
            value_size: 8,
            max_entries: 1,
        })));
    let loaded = concord.load(spec).expect("map policy verifies");
    let artifact = Arc::new(cbpf::wire::seal(
        &loaded.prog,
        &hookctx::rules_for(loaded.hook),
    ));

    let mut locks = BTreeMap::new();
    let mut handles = Vec::new();
    for t in 0..2u64 {
        let name = format!("maps_lock_{t}");
        let l = Arc::new(ShflLock::new());
        concord.registry().register_shfl(&name, Arc::clone(&l));
        locks.insert(t, name);
        handles.push(l);
    }
    let store = PolicyStore::new(16);
    let v = store
        .publish(&Delta::bind_all(&[0, 1], 800, artifact))
        .unwrap();
    let host = RealFleetHost::new(&concord, HookKind::CmpNode, locks);
    let applied = host.apply(v, &store.head_snapshot());
    assert_eq!(applied, Ok(DeliverOutcome::Applied));

    let node = NodeView {
        tid: 1,
        cpu: 0,
        socket: 0,
        prio: 0,
        cs_hint: 0,
        held_locks: 0,
        wait_start_ns: 0,
    };
    let ctx = CmpNodeCtx {
        lock_id: 1,
        shuffler: node,
        curr: node,
    };
    let asked_before = |lock: usize| handles[lock].hooks().eval_cmp_node(&ctx);
    assert!(!asked_before(0));
    assert!(asked_before(0));
    assert!(!asked_before(1), "lock 1 saw lock 0's map state");
    assert!(asked_before(1));
}

/// Batched cross-host attach through the rollout controller: hosts are
/// the "locks", waves are cohorts, and the staged rollout commits with
/// every host serving the pinned store version.
#[test]
fn rollout_waves_drive_fleet_hosts() {
    let concord = concord::Concord::new();
    let mut fleet_hosts = BTreeMap::new();
    let mut names = Vec::new();
    for h in 0..4u64 {
        let lock_name = format!("wave_lock_{h}");
        let l = Arc::new(ShflLock::new());
        concord.registry().register_shfl(&lock_name, Arc::clone(&l));
        let host_name = format!("host{h}");
        let mut locks = BTreeMap::new();
        locks.insert(h, lock_name);
        fleet_hosts.insert(
            host_name.clone(),
            RealFleetHost::new(&concord, HookKind::CmpNode, locks),
        );
        names.push(host_name);
    }
    let store = Arc::new(PolicyStore::new(16));
    store
        .publish(&Delta::bind_all(&[0, 1, 2, 3], 700, seal_demo_artifact()))
        .unwrap();

    let target = FleetTarget::new(Arc::clone(&store), fleet_hosts);
    let plan = RolloutPlan::staged(1, "fleet", HookKind::CmpNode, &names, &[25, 50]);
    let log = RolloutLog::new();
    let outcome = Rollout::run(
        plan,
        &log,
        &target,
        &mut AlwaysGreen,
        &ChaosInjector::inert(),
    )
    .expect("staged fleet rollout");
    assert_eq!(outcome, RolloutOutcome::Committed);
    let pinned = target.version_of(1).expect("generation pinned a version");
    assert_eq!(pinned, store.head());
    for name in &names {
        assert_eq!(target.host(name).unwrap().applied(), pinned);
    }
    // The target holds the generation's snapshot, so the store still
    // answers for that version however far the head has moved since.
    for i in 0..2 * concord::fleet::store::WINDOW as u64 {
        store
            .publish(&Delta::bind_all(&[i % 4], 700, seal_demo_artifact()))
            .unwrap();
    }
    assert_eq!(store.snapshot(pinned).map(|s| s.version), Some(pinned));
}

/// Every `c3_fleet_*` metric surfaces in the Prometheus exposition
/// after a run, with the right types.
#[test]
fn fleet_metrics_render_in_prometheus() {
    let cfg = FleetConfig::small(19, seal_demo_artifact());
    let report = run_fleet(&cfg, ChaosPlan::inert(19));
    assert!(report.converged);
    let text = telemetry::metrics().render_prometheus();
    for name in [
        "c3_fleet_publishes_total",
        "c3_fleet_retries_total",
        "c3_fleet_dedup_drops_total",
        "c3_fleet_lease_expired_total",
        "c3_fleet_reconciles_total",
        "c3_fleet_store_head",
        "c3_fleet_degraded_hosts",
        "c3_fleet_propagation_lag",
    ] {
        assert!(
            text.contains(name),
            "metric {name} missing from exposition:\n{text}"
        );
    }
    for line in [
        "# TYPE c3_fleet_retries_total counter",
        "# TYPE c3_fleet_degraded_hosts gauge",
        "# TYPE c3_fleet_propagation_lag gauge",
    ] {
        assert!(text.contains(line), "missing {line}");
    }
}

/// A rollout wave and a fleet delivery on the same lock and hook keep to
/// their own tags: each side's probe sees only its own patch, and pulling
/// the buried rollout patch leaves the fleet patch live on top.
#[test]
fn rollout_and_fleet_patches_keep_their_tags() {
    use concord::{BreakerConfig, PolicySpec, RealTarget, RolloutTarget};

    let concord = concord::Concord::new();
    let lock = Arc::new(ShflLock::new());
    concord.registry().register_shfl("L", Arc::clone(&lock));
    let locks = vec!["L".to_string()];

    let loaded = concord
        .load(PolicySpec::from_asm(
            "wave",
            HookKind::CmpNode,
            "mov r0, 1\nexit",
        ))
        .unwrap();
    let target = RealTarget::new(&concord, loaded, BreakerConfig::default());
    target.apply_locks(1, &locks).unwrap();

    let store = PolicyStore::new(16);
    let v1 = store
        .publish(&Delta::bind_all(&[0], 900, seal_demo_artifact()))
        .unwrap();
    assert_eq!(v1, 1);
    let host = RealFleetHost::new(
        &concord,
        HookKind::CmpNode,
        BTreeMap::from([(0, "L".to_string())]),
    );
    assert_eq!(
        host.apply(v1, &store.snapshot(v1).unwrap()),
        Ok(DeliverOutcome::Applied)
    );
    assert_eq!(
        concord.live_patches(),
        vec!["rollout-g1:L/cmp_node", "fleet-v1:L/cmp_node"]
    );
    assert_eq!(target.applied_locks(1, &locks), locks);
    assert_eq!(host.patched_locks(1), locks);

    // The rollout patch is buried under the fleet's: reverting it pulls
    // only the rollout's, and each probe still answers for its own tag.
    target.revert_locks(1, &locks).unwrap();
    assert_eq!(concord.live_patches(), vec!["fleet-v1:L/cmp_node"]);
    assert!(target.applied_locks(1, &locks).is_empty());
    assert_eq!(host.patched_locks(1), locks);
    assert!(lock.hooks().is_active(HookKind::CmpNode));

    host.revert(1).unwrap();
    assert!(concord.live_patches().is_empty());
    assert!(host.patched_locks(1).is_empty());
}
