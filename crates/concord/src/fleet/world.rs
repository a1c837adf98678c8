//! The simulated fleet: a control-plane daemon and many lock hosts
//! exchanging sealed policy artifacts over a lossy `ksim::net` transport
//! in virtual time.
//!
//! Everything here is deterministic per seed: the network's fault
//! schedule, the daemon's retry backoff jitter, the partition windows
//! and the crash point all derive from one seed, so a whole
//! distribution run — including its misbehavior — replays
//! bit-identically. That is what lets the fleet gate sweep *every*
//! crash point and partition schedule and compare fingerprints across
//! runs.
//!
//! Protocol (DESIGN.md §4.10):
//!
//! * the **writer** publishes deltas into the durable [`PolicyStore`]
//!   (CAS op-head, retry-merge);
//! * the **daemon** notices the head moved, broadcasts
//!   `Publish{head, snapshot}` to every host, and retransmits with
//!   capped exponential backoff until each host acknowledges the head;
//! * **hosts** apply a delivered snapshot with one whole-table swap iff
//!   it is newer than what they serve (generation-numbered idempotent
//!   apply: duplicates and stale reorders are dropped without effect),
//!   then acknowledge their applied version — at-least-once delivery
//!   composed with version-gated apply is exactly-once effect;
//! * **leases**: hosts heartbeat; a host the daemon hasn't heard from
//!   within the lease window is marked degraded (it keeps serving its
//!   last-known-good snapshot — fail-safe, never torn); a heartbeat
//!   from a degraded host renews the lease and the **anti-entropy
//!   reconcile sweep** pushes it back to the head;
//! * the **daemon may crash** at any protocol step boundary
//!   ([`ChaosInjector::barrier`]): it loses all volatile state (per-host
//!   acks, leases, backoffs), is offline for a restart delay (in-flight
//!   messages to it are lost), then re-derives everything from the
//!   durable store and incoming heartbeats.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use ksim::net::{Backoff, NetFaultPlan, NetStats, SimNet};
use ksim::{CpuId, SimBuilder};
use telemetry::{self, EventKind};

use super::store::{Delta, PolicyStore, Snapshot};
use crate::rollout::{ChaosInjector, ChaosPlan};

/// A message on the fleet wire. Snapshots travel by `Arc`, so a
/// duplicate costs a pointer, not a copy.
#[derive(Clone)]
pub enum FleetMsg {
    /// Daemon → host: install this snapshot.
    Publish {
        /// The snapshot's committed version.
        version: u64,
        /// The complete immutable state to serve.
        snapshot: Arc<Snapshot>,
    },
    /// Host → daemon: "I serve `version`". Cumulative: acknowledges
    /// every version up to it.
    Ack {
        /// Sending host id.
        host: usize,
        /// The version the host serves.
        version: u64,
    },
    /// Host → daemon: liveness beacon, carrying the served version so a
    /// restarted daemon re-learns fleet state from heartbeats alone.
    Heartbeat {
        /// Sending host id.
        host: usize,
        /// The version the host serves.
        applied: u64,
    },
}

/// What [`HostState::deliver`] did with a delivered snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// The snapshot was newer: the host swapped it in.
    Applied,
    /// Duplicate or stale (version ≤ served): dropped, zero effect.
    Duplicate,
}

/// One lock host's served policy state. The snapshot is immutable and
/// swapped whole, so a reader can never observe a half-applied table.
pub struct HostState {
    /// Host id (0-based; wire endpoint is `id + 1`).
    pub id: usize,
    /// The snapshot the host currently serves (last-known-good).
    pub served: Arc<Snapshot>,
    /// Whether the host considers itself cut off from the daemon (its
    /// lease lapsed): it keeps serving `served` fail-safe.
    pub degraded: bool,
    /// Every version this host applied, in apply order. The dedupe
    /// invariant — no version appears twice, strictly increasing — is
    /// property-checked in `tests/fleet_model.rs`.
    pub apply_log: Vec<u64>,
    /// Duplicate/stale deliveries dropped without effect.
    pub dedup_drops: u64,
}

impl HostState {
    /// A fresh host serving the genesis (empty) snapshot.
    pub fn new(id: usize, genesis: Arc<Snapshot>) -> HostState {
        HostState {
            id,
            served: genesis,
            degraded: false,
            apply_log: Vec::new(),
            dedup_drops: 0,
        }
    }

    /// Generation-numbered idempotent apply: installs `snapshot` iff
    /// `version` is strictly newer than what the host serves. This is
    /// the host half of the exactly-once argument — at-least-once
    /// delivery can hand the same version to this method any number of
    /// times, in any order, and the served state transitions once.
    pub fn deliver(&mut self, version: u64, snapshot: &Arc<Snapshot>) -> DeliverOutcome {
        if version <= self.served.version {
            self.dedup_drops += 1;
            return DeliverOutcome::Duplicate;
        }
        debug_assert_eq!(snapshot.version, version);
        self.served = Arc::clone(snapshot);
        self.apply_log.push(version);
        DeliverOutcome::Applied
    }
}

/// A partition schedule entry: cut or heal one host at a virtual time.
#[derive(Clone, Copy, Debug)]
pub struct PartitionEvent {
    /// When, virtual nanoseconds.
    pub at_ns: u64,
    /// Which host (0-based).
    pub host: usize,
    /// `false` = cut the host off, `true` = reconnect it.
    pub heal: bool,
}

// The small adversarial world the tests and the gates sweep. All times
// are virtual nanoseconds.

/// Number of lock hosts.
const HOSTS: usize = 4;
/// Tenant ids bound by every publish (`0..TENANTS`).
const TENANTS: u64 = 32;
/// Number of versions the writer publishes: a converged run ends with
/// every host at this store head.
pub const VERSIONS: u64 = 3;
/// Daemon/host loop tick.
const TICK_NS: u64 = 20_000;
/// Host heartbeat interval.
const HEARTBEAT_NS: u64 = 100_000;
/// Lease window: no heartbeat for this long → degraded.
const LEASE_NS: u64 = 400_000;
/// Anti-entropy reconcile sweep interval.
const RECONCILE_NS: u64 = 300_000;
/// Retransmit backoff base.
const BACKOFF_BASE_NS: u64 = 40_000;
/// Retransmit backoff cap.
const BACKOFF_CAP_NS: u64 = 640_000;
/// Gap between writer publishes.
const PUBLISH_GAP_NS: u64 = 2_000_000;
/// Daemon downtime after a crash.
const RESTART_DELAY_NS: u64 = 150_000;
/// Main-phase horizon; the run gets one more horizon after all partitions
/// heal to converge, so the total virtual-time bound is `2 * HORIZON_NS`.
const HORIZON_NS: u64 = 15_000_000;

/// What a fleet run is parameterized by beyond the constants above: the
/// partition schedule and the artifact. The network is
/// [`NetFaultPlan::lossy`] under the chaos plan's seed.
pub struct FleetConfig {
    /// Partition schedule.
    pub partitions: Vec<PartitionEvent>,
    /// The sealed artifact every publish ships (see
    /// [`super::seal_demo_artifact`]).
    pub artifact: Arc<Vec<u8>>,
}

impl FleetConfig {
    /// The world of `seed`: 4 hosts, 3 versions, lossy network, one
    /// seed-derived partition window long enough to lapse a lease.
    pub fn small(seed: u64, artifact: Arc<Vec<u8>>) -> FleetConfig {
        // One seed-derived partition window per run: cut one host for
        // 2–6ms somewhere in the middle of the publish phase. Long
        // enough (≫ LEASE_NS) that the lease reliably lapses.
        let fault = NetFaultPlan::lossy(seed);
        let roll = |salt: u64| fault.rng(0xF1EE_7000 + salt);
        let host = (roll(1) % HOSTS as u64) as usize;
        let start = 2_500_000 + roll(2) % 3_000_000;
        let len = 2_000_000 + roll(3) % 4_000_000;
        FleetConfig {
            partitions: vec![
                PartitionEvent {
                    at_ns: start,
                    host,
                    heal: false,
                },
                PartitionEvent {
                    at_ns: start + len,
                    host,
                    heal: true,
                },
            ],
            artifact,
        }
    }
}

/// Shared run counters (daemon, hosts and prober all bump these).
#[derive(Default)]
struct WorldCounters {
    retries: u64,
    lease_expiries: u64,
    lease_renewals: u64,
    reconciles: u64,
    crashes: u64,
    torn: u64,
    degraded_serves: u64,
}

/// What one fleet run reports. [`FleetReport::fingerprint`] folds every
/// observable of the run; two runs of the same seed must produce equal
/// fingerprints (the gate checks this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetReport {
    /// Store head at the end of the run.
    pub head: u64,
    /// Each host's served version at the end.
    pub host_versions: Vec<u64>,
    /// Every live host serves the head and the head saw all publishes.
    pub converged: bool,
    /// Prober-observed torn/partial applies (must be 0, always).
    pub torn: u64,
    /// Prober samples in which a degraded host successfully resolved
    /// every tenant from its last-known-good snapshot.
    pub degraded_serves: u64,
    /// Duplicate deliveries dropped by version-gated apply.
    pub dedup_drops: u64,
    /// Daemon retransmissions.
    pub retries: u64,
    /// Leases that lapsed.
    pub lease_expiries: u64,
    /// Anti-entropy pushes.
    pub reconciles: u64,
    /// Daemon crashes injected (0 or 1).
    pub crashes: u64,
    /// Chaos step boundaries the run crossed.
    pub steps: u64,
    /// Transport fault counters.
    pub net: NetStats,
    /// Per-(version, host) propagation lag samples, virtual ns from
    /// publish commit to host apply.
    pub propagation_ns: Vec<u64>,
    /// Replay fingerprint.
    pub fingerprint: u64,
}

fn fnv_fold(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Runs one fleet scenario to completion under `plan` and reports how
/// the world ended. Deterministic: same `cfg` + same plan ⇒ identical
/// [`FleetReport`], fingerprint included.
pub fn run_fleet(cfg: &FleetConfig, plan: ChaosPlan) -> FleetReport {
    let sim = SimBuilder::new().seed(plan.seed).build();
    let net: SimNet<FleetMsg> = SimNet::new(NetFaultPlan::lossy(plan.seed), HOSTS + 1);
    let store = Arc::new(PolicyStore::new((TENANTS as usize).max(16) * 2));
    let chaos = Rc::new(ChaosInjector::new(plan));
    let done = Rc::new(Cell::new(false));
    let counters = Rc::new(RefCell::new(WorldCounters::default()));
    let genesis = store.head_snapshot();
    let hosts: Vec<Rc<RefCell<HostState>>> = (0..HOSTS)
        .map(|i| Rc::new(RefCell::new(HostState::new(i, Arc::clone(&genesis)))))
        .collect();
    // version → commit virtual time, for propagation-lag samples.
    let publish_times = Rc::new(RefCell::new(BTreeMap::<u64, u64>::new()));
    let propagation = Rc::new(RefCell::new(Vec::<u64>::new()));

    // --- writer: publishes `versions` deltas into the durable store.
    {
        let store = Arc::clone(&store);
        let artifact = Arc::clone(&cfg.artifact);
        let done = Rc::clone(&done);
        let publish_times = Rc::clone(&publish_times);
        sim.spawn_on(CpuId(1), move |t| async move {
            let tenants: Vec<u64> = (0..TENANTS).collect();
            for v in 0..VERSIONS {
                t.advance(PUBLISH_GAP_NS).await;
                if done.get() {
                    return;
                }
                let delta = Delta::bind_all(&tenants, 1000 + v, Arc::clone(&artifact));
                let committed = store.publish(&delta).expect("writer delta is well-formed");
                publish_times.borrow_mut().insert(committed, t.now());
            }
        });
    }

    // --- partition schedule.
    {
        let net = net.clone();
        let done = Rc::clone(&done);
        let mut events = cfg.partitions.clone();
        events.sort_by_key(|e| e.at_ns);
        sim.spawn_on(CpuId(2), move |t| async move {
            for ev in events {
                let now = t.now();
                if ev.at_ns > now {
                    t.advance(ev.at_ns - now).await;
                }
                if done.get() {
                    return;
                }
                if ev.heal {
                    net.heal(ev.host + 1);
                } else {
                    net.partition(ev.host + 1);
                }
            }
        });
    }

    // --- hosts.
    for (i, host) in hosts.iter().enumerate() {
        let net = net.clone();
        let done = Rc::clone(&done);
        let host = Rc::clone(host);
        let publish_times = Rc::clone(&publish_times);
        let propagation = Rc::clone(&propagation);
        let ep = i + 1;
        sim.spawn_on(CpuId((3 + i as u32) % 8), move |t| async move {
            let mut last_beat = 0u64;
            let mut last_contact = 0u64;
            loop {
                if done.get() {
                    return;
                }
                let now = t.now();
                for msg in net.recv(now, ep) {
                    if let FleetMsg::Publish { version, snapshot } = msg {
                        last_contact = now;
                        let outcome = host.borrow_mut().deliver(version, &snapshot);
                        let dup = matches!(outcome, DeliverOutcome::Duplicate);
                        if dup {
                            telemetry::metrics()
                                .counter("c3_fleet_dedup_drops_total")
                                .inc();
                        } else if let Some(t0) = publish_times.borrow().get(&version).copied() {
                            propagation.borrow_mut().push(now.saturating_sub(t0));
                        }
                        if telemetry::armed() {
                            telemetry::emit(
                                EventKind::FleetDeliver,
                                now,
                                0,
                                i as u64,
                                version,
                                0,
                                u64::from(dup),
                            );
                        }
                        let served = host.borrow().served.version;
                        net.send(
                            now,
                            ep,
                            0,
                            FleetMsg::Ack {
                                host: i,
                                version: served,
                            },
                        );
                    }
                }
                // Host-side lease view: silence from the daemon longer
                // than the lease window means "assume partitioned, keep
                // serving last-known-good".
                let applied = {
                    let mut h = host.borrow_mut();
                    h.degraded = now.saturating_sub(last_contact) > LEASE_NS;
                    h.served.version
                };
                if now.saturating_sub(last_beat) >= HEARTBEAT_NS {
                    last_beat = now;
                    net.send(now, ep, 0, FleetMsg::Heartbeat { host: i, applied });
                }
                t.advance(TICK_NS).await;
            }
        });
    }

    // --- prober: checks the torn-free and degraded-serving invariants
    // continuously, not just at the end.
    {
        let store = Arc::clone(&store);
        let done = Rc::clone(&done);
        let hosts = hosts.clone();
        let counters = Rc::clone(&counters);
        sim.spawn_on(CpuId(0), move |t| async move {
            // Per host: the version whose bindings were last walked, and
            // what the walk found. A snapshot never changes, so one walk
            // per version a host serves answers every later probe.
            let mut walked: Vec<Option<(u64, bool)>> = vec![None; hosts.len()];
            loop {
                if done.get() {
                    return;
                }
                for (host, walked) in hosts.iter().zip(&mut walked) {
                    let h = host.borrow();
                    let v = h.served.version;
                    // The served snapshot must be *the* store snapshot
                    // for its version — same allocation, so a torn or
                    // stitched-together table is impossible to miss.
                    let intact = match store.snapshot(v) {
                        Some(s) => Arc::ptr_eq(&s, &h.served),
                        None => false,
                    };
                    // And every tenant it ever bound must resolve to a
                    // sealed artifact right now (fail-safe serving).
                    let resolvable = match *walked {
                        Some((seen, ok)) if seen == v => ok,
                        _ => {
                            let ok = (h.served.bindings.iter())
                                .all(|(_, p)| h.served.artifacts.contains_key(&p));
                            *walked = Some((v, ok));
                            ok
                        }
                    };
                    if !intact || !resolvable {
                        counters.borrow_mut().torn += 1;
                    } else if h.degraded && v > 0 {
                        counters.borrow_mut().degraded_serves += 1;
                    }
                }
                t.advance(TICK_NS * 2).await;
            }
        });
    }

    // --- daemon: broadcast, retransmit with backoff, leases, reconcile.
    {
        let store = Arc::clone(&store);
        let net = net.clone();
        let done = Rc::clone(&done);
        let chaos = Rc::clone(&chaos);
        let counters = Rc::clone(&counters);
        sim.spawn_on(CpuId(0), move |t| async move {
            let n = HOSTS;
            // Volatile daemon state: lost wholesale on a crash.
            let mut acked = vec![0u64; n];
            let mut last_hb = vec![t.now(); n];
            let mut degraded = vec![false; n];
            let mut backoff: Vec<Backoff> = (0..n)
                .map(|i| {
                    Backoff::new(
                        chaos.rng(0xB0FF_0000 + i as u64),
                        BACKOFF_BASE_NS,
                        BACKOFF_CAP_NS,
                    )
                })
                .collect();
            let mut next_send = vec![0u64; n];
            let mut broadcast_head = 0u64;
            let mut last_reconcile = 0u64;
            let mut crashing = false;
            loop {
                if done.get() {
                    return;
                }
                if crashing {
                    // The crashed daemon is gone: offline for the
                    // restart delay (in-flight messages to it are
                    // lost), then a fresh process with zero volatile
                    // state re-derives the world from the durable
                    // store and incoming heartbeats.
                    crashing = false;
                    counters.borrow_mut().crashes += 1;
                    net.partition(0);
                    t.advance(RESTART_DELAY_NS).await;
                    net.heal(0);
                    let now = t.now();
                    acked = vec![0u64; n];
                    last_hb = vec![now; n];
                    for d in degraded.iter_mut() {
                        if *d {
                            telemetry::metrics()
                                .gauge("c3_fleet_degraded_hosts")
                                .add(-1);
                        }
                        *d = false;
                    }
                    for b in &mut backoff {
                        b.reset();
                    }
                    next_send = vec![0u64; n];
                    broadcast_head = 0;
                    last_reconcile = now;
                    continue;
                }
                let now = t.now();
                for msg in net.recv(now, 0) {
                    match msg {
                        FleetMsg::Ack { host, version } => {
                            if version > acked[host] {
                                acked[host] = version;
                                backoff[host].reset();
                            }
                        }
                        FleetMsg::Heartbeat { host, applied } => {
                            last_hb[host] = now;
                            if applied > acked[host] {
                                acked[host] = applied;
                            }
                            if degraded[host] {
                                degraded[host] = false;
                                counters.borrow_mut().lease_renewals += 1;
                                telemetry::metrics()
                                    .gauge("c3_fleet_degraded_hosts")
                                    .add(-1);
                                if telemetry::armed() {
                                    telemetry::emit(
                                        EventKind::FleetLease,
                                        now,
                                        0,
                                        host as u64,
                                        applied,
                                        0,
                                        0,
                                    );
                                }
                            }
                        }
                        FleetMsg::Publish { .. } => {}
                    }
                }
                let head = store.head();
                // New head → broadcast to the whole fleet. One step
                // boundary per version: "publish dequeued".
                if head > broadcast_head {
                    if chaos.barrier().is_err() {
                        crashing = true;
                        continue;
                    }
                    let snapshot = store.head_snapshot();
                    for h in 0..n {
                        net.send(
                            now,
                            0,
                            h + 1,
                            FleetMsg::Publish {
                                version: head,
                                snapshot: Arc::clone(&snapshot),
                            },
                        );
                        next_send[h] = now + backoff[h].next_delay();
                    }
                    broadcast_head = head;
                }
                // Retransmit to laggards whose backoff window elapsed.
                for h in 0..n {
                    if acked[h] < broadcast_head && now >= next_send[h] {
                        net.send(
                            now,
                            0,
                            h + 1,
                            FleetMsg::Publish {
                                version: broadcast_head,
                                snapshot: store.head_snapshot(),
                            },
                        );
                        counters.borrow_mut().retries += 1;
                        telemetry::metrics().counter("c3_fleet_retries_total").inc();
                        next_send[h] = now + backoff[h].next_delay();
                    }
                }
                // Lease check. One step boundary per expiry.
                for h in 0..n {
                    if !degraded[h] && now.saturating_sub(last_hb[h]) > LEASE_NS {
                        if chaos.barrier().is_err() {
                            crashing = true;
                            break;
                        }
                        degraded[h] = true;
                        counters.borrow_mut().lease_expiries += 1;
                        let m = telemetry::metrics();
                        m.counter("c3_fleet_lease_expired_total").inc();
                        m.gauge("c3_fleet_degraded_hosts").add(1);
                        if telemetry::armed() {
                            telemetry::emit(
                                EventKind::FleetLease,
                                now,
                                0,
                                h as u64,
                                acked[h],
                                0,
                                1,
                            );
                        }
                    }
                }
                if crashing {
                    continue;
                }
                // Anti-entropy sweep: push anyone behind (degraded or
                // not — the partition eats what it eats) back to head.
                // One step boundary per sweep that does work.
                if now.saturating_sub(last_reconcile) >= RECONCILE_NS {
                    last_reconcile = now;
                    let behind: Vec<usize> = (0..n).filter(|h| acked[*h] < head).collect();
                    if !behind.is_empty() {
                        if chaos.barrier().is_err() {
                            crashing = true;
                            continue;
                        }
                        let snapshot = store.head_snapshot();
                        for h in behind {
                            net.send(
                                now,
                                0,
                                h + 1,
                                FleetMsg::Publish {
                                    version: head,
                                    snapshot: Arc::clone(&snapshot),
                                },
                            );
                            counters.borrow_mut().reconciles += 1;
                            telemetry::metrics()
                                .counter("c3_fleet_reconciles_total")
                                .inc();
                            if telemetry::armed() {
                                telemetry::emit(
                                    EventKind::FleetReconcile,
                                    now,
                                    0,
                                    h as u64,
                                    acked[h],
                                    head,
                                    0,
                                );
                            }
                        }
                    }
                }
                let min_acked = acked.iter().copied().min().unwrap_or(0);
                telemetry::metrics()
                    .gauge("c3_fleet_propagation_lag")
                    .set(head.saturating_sub(min_acked) as i64);
                t.advance(TICK_NS).await;
            }
        });
    }

    // Main phase: publishes, faults, partitions, possibly a crash.
    sim.run_until(HORIZON_NS);
    // Heal everything and give the protocol one more horizon to
    // converge — the bounded virtual-time convergence window.
    net.heal_all();
    sim.run_until(HORIZON_NS * 2);
    done.set(true);
    let stats = sim.run();

    let head = store.head();
    let host_versions: Vec<u64> = hosts.iter().map(|h| h.borrow().served.version).collect();
    let dedup_drops: u64 = hosts.iter().map(|h| h.borrow().dedup_drops).sum();
    let c = counters.borrow();
    let converged = head == VERSIONS && host_versions.iter().all(|v| *v == head);

    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    fnv_fold(&mut fp, head);
    for h in &hosts {
        let h = h.borrow();
        fnv_fold(&mut fp, h.served.version);
        fnv_fold(&mut fp, h.served.fingerprint());
        fnv_fold(&mut fp, h.dedup_drops);
        for v in &h.apply_log {
            fnv_fold(&mut fp, *v);
        }
    }
    let net_stats = net.stats();
    for v in [
        net_stats.sent,
        net_stats.delivered,
        net_stats.dropped,
        net_stats.duplicated,
        net_stats.reordered,
        net_stats.partitioned,
        c.retries,
        c.lease_expiries,
        c.reconciles,
        c.crashes,
        store.conflicts(),
        stats.trace_hash,
    ] {
        fnv_fold(&mut fp, v);
    }

    let propagation_ns = propagation.borrow().clone();
    FleetReport {
        head,
        host_versions,
        converged,
        torn: c.torn,
        degraded_serves: c.degraded_serves,
        dedup_drops,
        retries: c.retries,
        lease_expiries: c.lease_expiries,
        reconciles: c.reconciles,
        crashes: c.crashes,
        steps: chaos.steps_taken(),
        net: net_stats,
        propagation_ns,
        fingerprint: fp,
    }
}

/// Crash-sweeps a fleet scenario: an inert run measures the protocol's
/// step space, then one run per crash point, every one of which must end
/// with all live hosts at the store head and zero torn applies
/// (mapped onto [`crate::rollout::chaos::crash_sweep`]'s convergence
/// verdicts).
///
/// # Errors
///
/// The first non-converging run, as `"seed S crash-at K: ..."`.
pub fn fleet_sweep(
    seed: u64,
    cfg: &FleetConfig,
) -> Result<crate::rollout::chaos::SweepReport, String> {
    use crate::rollout::chaos::{crash_sweep, Convergence, SweepOutcome};
    crash_sweep(seed, |plan| {
        let report = run_fleet(cfg, plan);
        let converged = if report.torn > 0 {
            Convergence::Mixed(format!("{} torn applies observed", report.torn))
        } else if report.converged {
            Convergence::AllApplied
        } else {
            Convergence::Mixed(format!(
                "head {} vs hosts {:?}",
                report.head, report.host_versions
            ))
        };
        Ok(SweepOutcome {
            converged,
            steps: report.steps,
            fingerprint: report.fingerprint,
        })
    })
}
