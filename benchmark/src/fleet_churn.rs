//! `fleet_churn`: one policy change carried from the operator's publish to
//! live patches on a host's locks, on a store that keeps every version.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use concord::fleet::{run_fleet, DeliverOutcome, Delta, FleetConfig, PolicyStore, RealFleetHost};
use concord::{hookctx, policies, ChaosPlan, Concord};
use ksim::SplitMix64;
use locks::hooks::HookKind;
use locks::ShflLock;

use crate::gen;
use crate::stats::{percentile, time_ns};
use crate::trace::Tracer;
use crate::workload::{Metrics, Phase, Workload, ROOT};

/// Tenants bound in every epoch's store.
const TENANTS: u64 = 50_000;
/// Changes per epoch; the store retains one snapshot per change, so an
/// epoch bounds memory.
const CHANGES: u64 = 64;
const WARMUP_EPOCHS: u32 = 2;
const DELTA_TENANTS: usize = 24;
const PROBES: usize = 4_000;
const HOST_LOCKS: u64 = 8;
/// Policy id of the bulk bind; change `c` of an epoch publishes id
/// `FIRST_CHANGE_POLICY + c`.
const BULK_POLICY: u64 = 1;
const FIRST_CHANGE_POLICY: u64 = 100;

/// Fleet tenant the host serves on its `i`-th lock.
fn host_tenant(i: u64) -> u64 {
    i * (TENANTS / HOST_LOCKS) + 17
}

/// The `cmp_node` policies the changes rotate through, sealed for the wire.
fn sealed_policies() -> Vec<Arc<Vec<u8>>> {
    let concord = Concord::new();
    [
        policies::numa_aware(),
        policies::priority_boost(),
        policies::lock_inheritance(),
    ]
    .into_iter()
    .map(|spec| {
        let loaded = concord.load(spec).expect("prebuilt policy verifies");
        Arc::new(cbpf::wire::seal(
            &loaded.prog,
            &hookctx::rules_for(loaded.hook),
        ))
    })
    .collect()
}

pub struct FleetChurn {
    artifacts: Vec<Arc<Vec<u8>>>,
    all_tenants: Vec<u64>,
    seed: u64,
    rng: SplitMix64,
    probes: Vec<u64>,
    ops: u64,
}

impl FleetChurn {
    /// A fresh store with every tenant bound in one publish.
    fn bulk_store(&self, tr: &mut Tracer) -> (PolicyStore, u64) {
        let store = tr.span("fleet.store_new", self.ops, || {
            PolicyStore::new(TENANTS as usize)
        });
        let delta = Delta::bind_all(
            &self.all_tenants,
            BULK_POLICY,
            Arc::clone(&self.artifacts[0]),
        );
        let v = tr.span("fleet.bulk_bind", self.ops, || store.publish(&delta));
        (store, v.expect("bulk bind publishes"))
    }
}

impl Workload for FleetChurn {
    const NAME: &'static str = "fleet_churn";
    const MIN_CYCLES: u64 = 1;
    const MINI_CYCLES: u64 = 1;

    fn setup(seed: u64) -> Self {
        let mut w = FleetChurn {
            artifacts: sealed_policies(),
            all_tenants: (0..TENANTS).collect(),
            seed,
            rng: gen::stream(seed, 7),
            probes: Vec::with_capacity(PROBES),
            ops: 0,
        };
        // Warm-up: epochs on a stream of their own.
        let mut warm = Phase::default();
        for _ in 0..WARMUP_EPOCHS {
            w.cycle(&mut Tracer::off(), &mut warm);
        }
        assert_eq!(warm.failed, 0, "warm-up epoch failed its oracle");
        w.ops = 0;
        w.rng = gen::stream(seed, 8);
        w
    }

    fn cycle(&mut self, tr: &mut Tracer, phase: &mut Phase) {
        let failed_before = phase.failed;
        let concord = Concord::new();
        let mut lock_of = BTreeMap::new();
        for i in 0..HOST_LOCKS {
            let name = format!("fleet_lock_{i}");
            concord
                .registry()
                .register_shfl(&name, Arc::new(ShflLock::new()));
            lock_of.insert(host_tenant(i), name);
        }
        let baseline = concord.live_patches();
        let host = RealFleetHost::new(&concord, HookKind::CmpNode, lock_of);
        let (store, bulk) = self.bulk_store(tr);
        let mut epoch_ok = host.apply(bulk, &store.head_snapshot()) == Ok(DeliverOutcome::Applied);
        let mut serving = bulk;
        let mut changes_ns = 0;

        for change in 0..CHANGES {
            let policy = FIRST_CHANGE_POLICY + change;
            let artifact = Arc::clone(&self.artifacts[(change % 3) as usize]);
            let delta = Delta::bind_all(
                &gen::tenant_delta(&mut self.rng, TENANTS, DELTA_TENANTS),
                policy,
                artifact,
            );
            self.probes.clear();
            self.probes
                .extend((0..PROBES).map(|_| self.rng.next_u64() % TENANTS));

            tr.begin(ROOT, self.ops);
            let t = Instant::now();
            let published = tr.span("fleet.publish", self.ops, || store.publish(&delta));
            let probes = &self.probes;
            let resolved = tr.span("fleet.resolve", self.ops, || {
                probes
                    .iter()
                    .filter(|t| store.resolve(**t).is_some())
                    .count()
            });
            let mut ok = resolved == PROBES;
            match published {
                Ok(v) => {
                    // Too short for a span of its own; timed in isolation.
                    let snap = store.snapshot(v);
                    let applied = tr.span("fleet.apply", self.ops, || match &snap {
                        Some(snap) => host.apply(v, snap),
                        None => Err("published version has no snapshot".to_string()),
                    });
                    let reverted = tr.span("fleet.revert", self.ops, || host.revert(serving));
                    ok &= applied == Ok(DeliverOutcome::Applied) && reverted.is_ok();
                    serving = v;
                }
                Err(_) => ok = false,
            }
            changes_ns += t.elapsed().as_nanos() as u64;
            tr.end();
            self.ops += 1;
            phase.ops += 1;
            phase.failed += u64::from(!ok);
        }
        // One sample per epoch: the changes alone, without the epoch's
        // store build, bulk bind and simulated fleet.
        phase.samples.push(changes_ns as f64 / CHANGES as f64);

        epoch_ok &= host.revert(serving).is_ok() && concord.live_patches() == baseline;
        let fleet_seed = self.rng.next_u64();
        let cfg = FleetConfig::small(fleet_seed, Arc::clone(&self.artifacts[0]));
        let report = tr.span("fleet.sim_run", self.ops, || {
            run_fleet(&cfg, ChaosPlan::inert(fleet_seed))
        });
        epoch_ok &= report.converged && report.torn == 0;
        if !epoch_ok {
            // An epoch-wide check cannot name the change it lost.
            phase.failed = failed_before + CHANGES;
        }
    }

    fn layers(&mut self, tr: &Tracer, _traced: &Phase, m: &mut Metrics) {
        let agg = tr.aggregate();
        let mean_ns = |span: &str| agg[span].total_ns as f64 / agg[span].count as f64;
        m.set("fleet.bulk_bind_ms", mean_ns("fleet.bulk_bind") / 1e6);
        m.set("fleet.publish_ms", mean_ns("fleet.publish") / 1e6);
        m.set("fleet.resolve_ns", mean_ns("fleet.resolve") / PROBES as f64);
        m.set("fleet.apply_us", mean_ns("fleet.apply") / 1e3);
        m.set("fleet.revert_us", mean_ns("fleet.revert") / 1e3);
        m.set("fleet.sim_run_ms", mean_ns("fleet.sim_run") / 1e6);

        let (store, bulk) = self.bulk_store(&mut Tracer::off());
        m.set(
            "fleet.snapshot_ns",
            time_ns(20_000, || {
                black_box(store.snapshot(black_box(bulk)));
            }),
        );

        // Counts come from one simulated fleet whose seed depends on
        // `--seed` alone, not on how many epochs the clock allowed.
        let fleet_seed = gen::stream(self.seed, 9).next_u64();
        let cfg = FleetConfig::small(fleet_seed, Arc::clone(&self.artifacts[0]));
        let report = run_fleet(&cfg, ChaosPlan::inert(fleet_seed));
        assert!(
            report.converged && report.torn == 0,
            "count fleet did not converge"
        );
        let lag_us: Vec<f64> = report
            .propagation_ns
            .iter()
            .map(|ns| (ns / 1_000) as f64)
            .collect();
        m.set("fleet.propagation_virt_us_p50", percentile(&lag_us, 0.5));
        m.set("fleet.retries", report.retries as f64);
        m.set("fleet.dedup_drops", report.dedup_drops as f64);
    }
}
