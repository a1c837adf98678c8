//! Property-based model check of the fleet store's CAS op-head
//! convergence (DESIGN.md §4.10) and of the host-side version-gated
//! apply.
//!
//! Concurrent writers are modeled as interleaved state machines
//! (read-head → conditional publish → retry-merge on conflict), driven
//! by a deterministic seed-derived schedule, with injected stale reads
//! (forced CAS conflicts) and per-writer crash points (a writer simply
//! abandons mid-protocol). A reference model — a fold of the deltas in
//! observed commit order — predicts the exact final state:
//!
//! * the op-head equals the number of commits and the head snapshot
//!   equals the model fold, through `resolve` as well as through the
//!   snapshot;
//! * history is bounded by ownership: version `v` — while it is inside
//!   the store's window, or held by anyone — is the fold of the first
//!   `v` commits; outside the window and unheld it may be gone, never
//!   wrong, and a long-lived store retains no more than window + held;
//! * a crashed (abandoned) writer either committed fully or left zero
//!   trace — there is no partial publish;
//! * duplicate/reordered delivery into a host's version gate never
//!   double-applies a version and always converges the host to the
//!   newest version it saw.

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

use concord::fleet::store::WINDOW;
use concord::fleet::{DeliverOutcome, Delta, HostState, PolicyStore, Snapshot, StoreError};
use ksim::rng::mix;

fn artifact(tag: u64) -> Arc<Vec<u8>> {
    Arc::new(tag.to_le_bytes().to_vec())
}

/// The history invariant. `folds[v]` is the reference fold of the first
/// `v` commits and `held` the versions the caller still owns: each of
/// those, and each version inside the window, must be there and equal
/// its fold; any other version may be gone, but if it is there it must
/// equal its fold too.
fn check_history(
    store: &PolicyStore,
    folds: &[BTreeMap<u64, u64>],
    held: &BTreeMap<u64, Arc<Snapshot>>,
) -> Result<(), TestCaseError> {
    let head = store.head();
    prop_assert_eq!(head as usize + 1, folds.len());
    for (v, fold) in folds.iter().enumerate() {
        let v = v as u64;
        let snap = store.snapshot(v);
        if let Some(owned) = held.get(&v) {
            let snap = snap.as_ref().expect("a held version was dropped");
            prop_assert!(Arc::ptr_eq(snap, owned));
        }
        if head - v < WINDOW as u64 {
            prop_assert!(snap.is_some(), "version {} left the window early", v);
        }
        if let Some(snap) = snap {
            prop_assert_eq!(snap.version, v);
            prop_assert_eq!(&snap.bindings.iter().collect::<BTreeMap<_, _>>(), fold);
            prop_assert_eq!(snap.bindings.len(), fold.len());
        }
    }
    Ok(())
}

/// Versions `0..=head` still reachable through `snapshot`, once that
/// count is at most `bound`. A replaced head pointer gives up its
/// reference when the epoch collector frees it, which waits for every
/// thread pinned since before the swap — and a sibling test's thread can
/// be descheduled inside a pin — so an excess is asked about again
/// before it is believed.
fn retained_settled(store: &PolicyStore, bound: usize) -> usize {
    let count = || {
        drop(store.head_snapshot()); // unpinning runs the collector
        (0..=store.head())
            .filter(|v| store.snapshot(*v).is_some())
            .count()
    };
    for _ in 0..10_000 {
        if count() <= bound {
            break;
        }
        std::thread::yield_now();
    }
    count()
}

/// One writer's protocol position.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WriterStep {
    /// About to read the head.
    Read,
    /// Read `observed`; about to attempt the conditional publish.
    Commit {
        /// The head the writer will publish against.
        observed: u64,
    },
    /// Committed (or crashed) — no further steps.
    Done,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Interleaved writers with injected conflicts and crash points
    /// always leave the store exactly where the reference model says.
    #[test]
    fn store_matches_reference_model(
        n_writers in 1usize..=6,
        sched_seed in 0u64..=0xffff_ffff_ffff,
        stale_mask in 0u64..=63,     // writers whose first read is forced stale
        crash_sel in 0u64..=0xffff,  // packs per-writer crash points
        tenants_per in 1u64..=8,
    ) {
        let store = PolicyStore::new(256);
        // Writer w publishes policy 100+w over an overlapping tenant
        // range (overlap is what makes last-writer-wins interesting).
        let deltas: Vec<Delta> = (0..n_writers as u64)
            .map(|w| {
                let tenants: Vec<u64> = (0..tenants_per).map(|i| w * 2 + i).collect();
                Delta::bind_all(&tenants, 100 + w, artifact(w))
            })
            .collect();
        // Crash point per writer: steps allowed before abandoning.
        // 4 bits each; 0xF means "never crashes".
        let crash_at: Vec<Option<u64>> = (0..n_writers)
            .map(|w| {
                let nib = (crash_sel >> (4 * w)) & 0xF;
                (nib != 0xF).then_some(nib)
            })
            .collect();

        let mut steps = vec![WriterStep::Read; n_writers];
        let mut taken = vec![0u64; n_writers];
        let mut injected_stale = vec![false; n_writers];
        let mut commit_order: Vec<usize> = Vec::new();
        let mut conflicts_seen = 0u64;
        let mut tick = 0u64;
        // Drive the interleaving until every writer committed or
        // crashed. Each iteration steps one seed-chosen active writer.
        while steps.iter().any(|s| *s != WriterStep::Done) {
            let active: Vec<usize> = (0..n_writers)
                .filter(|w| steps[*w] != WriterStep::Done)
                .collect();
            let w = active[(mix(sched_seed, tick) % active.len() as u64) as usize];
            tick += 1;
            if let Some(limit) = crash_at[w] {
                if taken[w] >= limit {
                    // The writer dies mid-protocol: whatever it did so
                    // far must be all-or-nothing in the store.
                    steps[w] = WriterStep::Done;
                    continue;
                }
            }
            taken[w] += 1;
            steps[w] = match steps[w] {
                WriterStep::Read => {
                    let mut observed = store.head();
                    // Injected CAS conflict: the writer's first read is
                    // forced stale once the store has moved.
                    if !injected_stale[w] && (stale_mask >> w) & 1 == 1 && observed > 0 {
                        injected_stale[w] = true;
                        observed -= 1;
                    }
                    WriterStep::Commit { observed }
                }
                WriterStep::Commit { observed } => {
                    match store.try_publish(observed, &deltas[w]) {
                        Ok(_) => {
                            commit_order.push(w);
                            WriterStep::Done
                        }
                        Err(StoreError::StaleHead { current, .. }) => {
                            conflicts_seen += 1;
                            prop_assert_eq!(current, store.head());
                            WriterStep::Read // retry-merge
                        }
                        Err(e) => return Err(TestCaseError::fail(format!(
                            "unexpected store error: {e}"
                        ))),
                    }
                }
                WriterStep::Done => WriterStep::Done,
            };
        }

        // Reference model: fold committed deltas in commit order.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for w in &commit_order {
            for (t, p) in &deltas[*w].bindings {
                model.insert(*t, *p);
            }
        }

        // Head counts commits, nothing more (no partial publishes).
        prop_assert_eq!(store.head(), commit_order.len() as u64);
        prop_assert_eq!(store.publishes(), commit_order.len() as u64);
        // Every StaleHead the writers saw was a genuine lost CAS.
        prop_assert_eq!(store.conflicts(), conflicts_seen);

        // The head snapshot is exactly the model fold, and `resolve`
        // reads the same head.
        let head = store.head_snapshot();
        prop_assert_eq!(&head.bindings.iter().collect::<BTreeMap<_, _>>(), &model);
        for (t, p) in &model {
            prop_assert_eq!(store.resolve(*t).map(|(p, _)| p), Some(*p));
        }
        prop_assert_eq!(head.bindings.len(), model.len());

        // Versions are monotonically richer: version v holds the fold
        // of the first v commits (all of them inside the window here).
        let mut folds = vec![BTreeMap::new()];
        for w in &commit_order {
            let mut fold = folds.last().unwrap().clone();
            fold.extend(deltas[*w].bindings.iter().copied());
            folds.push(fold);
        }
        check_history(&store, &folds, &BTreeMap::new())?;
    }

    /// Past the window, a version lives exactly as long as someone
    /// holds it, and whatever is still there is still right.
    #[test]
    fn history_is_bounded_by_ownership(
        commits in 1u64..=80,
        hold_seed in 0u64..=0xffff_ffff_ffff,
        hold_one_in in 1u64..=8,
    ) {
        let store = PolicyStore::new(64);
        let mut folds = vec![BTreeMap::new()];
        let mut held = BTreeMap::new();
        for c in 0..commits {
            // Re-binds across deltas and a repeat inside one.
            let (t, p) = (mix(hold_seed, c) % 24, 100 + c % 3);
            let mut delta = Delta::bind_all(&[t, t + 1, t], p, artifact(p));
            delta.bindings.push((t + 1, p));
            let v = store.publish(&delta).unwrap();
            let mut fold = folds.last().unwrap().clone();
            fold.extend(delta.bindings.iter().copied());
            folds.push(fold);
            if mix(hold_seed, 1_000 + c).is_multiple_of(hold_one_in) {
                held.insert(v, store.snapshot(v).unwrap());
            }
            // Some holders let go again.
            if mix(hold_seed, 2_000 + c).is_multiple_of(5) {
                held.pop_first();
            }
        }
        check_history(&store, &folds, &held)?;
        let retained = retained_settled(&store, WINDOW + held.len());
        prop_assert!(retained <= WINDOW + held.len(), "{} retained", retained);
    }

    /// The host version gate: any delivery sequence with duplicates and
    /// reorders applies each version at most once, in strictly
    /// increasing order, and lands on the newest version delivered.
    #[test]
    fn dedupe_never_double_applies(
        n_versions in 1u64..=8,
        order_seed in 0u64..=0xffff_ffff_ffff,
        dup_factor in 1usize..=4,
    ) {
        let store = PolicyStore::new(64);
        for v in 0..n_versions {
            store
                .publish(&Delta::bind_all(&[v], 100 + v, artifact(v)))
                .unwrap();
        }
        // Delivery schedule: each version appears `dup_factor` times,
        // then the whole thing is seed-shuffled (duplicates + reorders).
        let mut schedule: Vec<u64> = (1..=n_versions)
            .flat_map(|v| std::iter::repeat_n(v, dup_factor))
            .collect();
        for i in (1..schedule.len()).rev() {
            schedule.swap(i, (mix(order_seed, i as u64) % (i as u64 + 1)) as usize);
        }

        let mut host = HostState::new(0, store.snapshot(0).unwrap());
        let mut applies = 0u64;
        for v in &schedule {
            let snap = store.snapshot(*v).unwrap();
            match host.deliver(*v, &snap) {
                DeliverOutcome::Applied => applies += 1,
                DeliverOutcome::Duplicate => {}
            }
        }
        // No version applied twice, order strictly increasing.
        prop_assert!(
            host.apply_log.windows(2).all(|w| w[0] < w[1]),
            "apply log not strictly increasing: {:?}",
            host.apply_log
        );
        prop_assert_eq!(applies as usize, host.apply_log.len());
        prop_assert_eq!(
            host.dedup_drops as usize,
            schedule.len() - host.apply_log.len()
        );
        // The host converged to the newest version it saw.
        let newest = *schedule.iter().max().unwrap();
        prop_assert_eq!(host.served.version, newest);
        prop_assert_eq!(host.apply_log.last().copied(), Some(newest));
    }
}

/// A long-lived store: after 10 000 single-tenant publishes it retains
/// the window and what is held, not the history.
#[test]
fn a_long_lived_store_retains_window_plus_held() {
    const PUBLISHES: u64 = 10_000;
    let store = PolicyStore::new(64);
    let mut held = Vec::new();
    for c in 0..PUBLISHES {
        let v = store
            .publish(&Delta::bind_all(&[c % 512], c % 4, artifact(c % 4)))
            .unwrap();
        if c % 1_000 == 500 {
            held.push(store.snapshot(v).unwrap());
        }
    }
    assert_eq!(store.head(), PUBLISHES);
    assert_eq!(held.len(), 10);
    for snap in &held {
        let again = store.snapshot(snap.version).expect("held version");
        assert!(Arc::ptr_eq(&again, snap));
    }
    assert_eq!(retained_settled(&store, WINDOW + 10), WINDOW + 10);
    // Letting go of a version is what drops it.
    held.pop();
    assert_eq!(retained_settled(&store, WINDOW + 9), WINDOW + 9);
}
