//! Lossy simulated message transport and deterministic retry backoff.
//!
//! The fleet control plane (crate `concord`, module `fleet`) distributes
//! sealed policy artifacts to many simulated lock hosts. The wire between
//! them is this module: a [`SimNet`] whose endpoints exchange messages in
//! virtual time, with every fault a real network exhibits — drop, delay,
//! duplication, reordering, partition — injected deterministically from a
//! seeded [`NetFaultPlan`]. Senders cope with the losses using a capped
//! exponential [`Backoff`] whose jitter is likewise derived from the
//! seed, so an entire distribution run replays bit-identically.
//!
//! Delivery is poll-based rather than task-based: `send` computes the
//! delivery timestamp up front (base delay + fault-plan jitter, plus a
//! reordering penalty when the plan says so) and enqueues the message on
//! the destination inbox keyed by that timestamp; the receiver drains
//! everything that has "arrived" by its current virtual time with
//! [`SimNet::recv`]. No courier tasks means the transport itself never
//! perturbs the executor's event order — determinism falls out of the
//! heap's existing tie-breaking.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Fault plan

/// Seeded fault schedule for a [`SimNet`], in the style of
/// `cbpf::fault::FaultPlan`: every per-message decision (drop? duplicate?
/// how much delay?) is a pure function of `(seed, message sequence
/// number)`, so two runs over the same plan inject byte-identical
/// schedules of misbehavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Seed for every derived decision.
    pub seed: u64,
    /// Probability of dropping a message, in permille (0..=1000).
    pub drop_permille: u16,
    /// Probability of duplicating a message, in permille.
    pub dup_permille: u16,
    /// Probability of adding a reordering penalty (an extra delay long
    /// enough that later sends overtake this one), in permille.
    pub reorder_permille: u16,
    /// Minimum one-way latency, virtual nanoseconds.
    pub min_delay_ns: u64,
    /// Maximum one-way latency (before any reordering penalty).
    pub max_delay_ns: u64,
}

impl NetFaultPlan {
    /// A perfectly reliable network with a fixed one-way latency: no
    /// drops, no duplicates, no reordering.
    #[cfg(test)]
    pub fn reliable(seed: u64, delay_ns: u64) -> Self {
        NetFaultPlan {
            seed,
            drop_permille: 0,
            dup_permille: 0,
            reorder_permille: 0,
            min_delay_ns: delay_ns,
            max_delay_ns: delay_ns,
        }
    }

    /// The default adversarial network the fleet gate sweeps: 10% drop,
    /// 5% duplication, 10% reordering, 10–80µs one-way latency.
    pub fn lossy(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            drop_permille: 100,
            dup_permille: 50,
            reorder_permille: 100,
            min_delay_ns: 10_000,
            max_delay_ns: 80_000,
        }
    }

    /// Deterministic derived randomness: [`crate::rng::mix`] over
    /// `(seed, salt)`.
    pub fn rng(&self, salt: u64) -> u64 {
        crate::rng::mix(self.seed, salt)
    }

    /// Roll a permille-probability event for message `seq`, decision
    /// channel `channel` (drop/dup/reorder use distinct channels so the
    /// decisions are independent).
    fn roll(&self, seq: u64, channel: u64, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        (self.rng(seq.wrapping_mul(3).wrapping_add(channel)) % 1000) < u64::from(permille)
    }

    /// The one-way latency for message `seq`, within
    /// `[min_delay_ns, max_delay_ns]`.
    fn delay(&self, seq: u64) -> u64 {
        let span = self.max_delay_ns.saturating_sub(self.min_delay_ns);
        if span == 0 {
            return self.min_delay_ns;
        }
        self.min_delay_ns + self.rng(seq.wrapping_mul(3).wrapping_add(2)) % (span + 1)
    }
}

// ---------------------------------------------------------------------------
// Transport

/// Counters a [`SimNet`] keeps about what the fault plan did; folded into
/// the fleet gate's replay fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to `send`.
    pub sent: u64,
    /// Messages drained by `recv`.
    pub delivered: u64,
    /// Messages the fault plan dropped.
    pub dropped: u64,
    /// Extra copies the fault plan injected.
    pub duplicated: u64,
    /// Messages that took a reordering penalty.
    pub reordered: u64,
    /// Messages discarded because an endpoint was partitioned at send or
    /// delivery time.
    pub partitioned: u64,
}

struct NetInner<M> {
    plan: NetFaultPlan,
    /// Per-send sequence number: the salt for every fault decision.
    seq: u64,
    /// Tie-breaker so two messages arriving in the same nanosecond keep
    /// a stable order.
    tie: u64,
    /// One inbox per endpoint, keyed by `(deliver_at_ns, tie)`.
    inboxes: Vec<BTreeMap<(u64, u64), M>>,
    /// Endpoints currently cut off from the network.
    partitioned: BTreeSet<usize>,
    stats: NetStats,
}

/// A shared lossy network between a fixed set of endpoints. Cloning is
/// cheap (an `Rc` bump); every task in the simulation holds a clone.
///
/// The executor is single-threaded, so the interior `RefCell` is never
/// contended; borrows are confined to each method body.
pub struct SimNet<M> {
    inner: Rc<RefCell<NetInner<M>>>,
}

impl<M> Clone for SimNet<M> {
    fn clone(&self) -> Self {
        SimNet {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<M: Clone> SimNet<M> {
    /// A network of `endpoints` endpoints under `plan`.
    pub fn new(plan: NetFaultPlan, endpoints: usize) -> Self {
        SimNet {
            inner: Rc::new(RefCell::new(NetInner {
                plan,
                seq: 0,
                tie: 0,
                inboxes: (0..endpoints).map(|_| BTreeMap::new()).collect(),
                partitioned: BTreeSet::new(),
                stats: NetStats::default(),
            })),
        }
    }

    /// Number of endpoints.
    pub fn endpoints(&self) -> usize {
        self.inner.borrow().inboxes.len()
    }

    /// Sends `msg` from endpoint `from` to endpoint `to` at virtual time
    /// `now`. The fault plan decides loss, duplication, reordering and
    /// latency; a partitioned sender or receiver loses the message
    /// outright (counted in [`NetStats::partitioned`]).
    pub fn send(&self, now: u64, from: usize, to: usize, msg: M) {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.seq;
        inner.seq += 1;
        inner.stats.sent += 1;
        if inner.partitioned.contains(&from) || inner.partitioned.contains(&to) {
            inner.stats.partitioned += 1;
            return;
        }
        let plan = inner.plan;
        let copies = if plan.roll(seq, 1, plan.dup_permille) {
            inner.stats.duplicated += 1;
            2
        } else {
            1
        };
        for copy in 0..copies {
            if plan.roll(seq.wrapping_add(copy), 0, plan.drop_permille) {
                inner.stats.dropped += 1;
                continue;
            }
            let mut delay = plan.delay(seq.wrapping_add(copy));
            if plan.roll(seq.wrapping_add(copy), 3, plan.reorder_permille) {
                // Push the arrival past several max-latency windows so
                // later sends genuinely overtake this one.
                delay += 3 * plan.max_delay_ns.max(1);
                inner.stats.reordered += 1;
            }
            let tie = inner.tie;
            inner.tie += 1;
            inner.inboxes[to].insert((now.saturating_add(delay), tie), msg.clone());
        }
    }

    /// Drains every message that has arrived at endpoint `ep` by virtual
    /// time `now`, in arrival order. A partitioned endpoint receives
    /// nothing; messages already in flight to it are discarded (the
    /// partition ate them).
    pub fn recv(&self, now: u64, ep: usize) -> Vec<M> {
        let mut inner = self.inner.borrow_mut();
        if inner.partitioned.contains(&ep) {
            let stale: Vec<(u64, u64)> = inner.inboxes[ep]
                .range(..=(now, u64::MAX))
                .map(|(k, _)| *k)
                .collect();
            inner.stats.partitioned += stale.len() as u64;
            for k in stale {
                inner.inboxes[ep].remove(&k);
            }
            return Vec::new();
        }
        let ready: Vec<(u64, u64)> = inner.inboxes[ep]
            .range(..=(now, u64::MAX))
            .map(|(k, _)| *k)
            .collect();
        let mut out = Vec::with_capacity(ready.len());
        for k in ready {
            if let Some(m) = inner.inboxes[ep].remove(&k) {
                out.push(m);
            }
        }
        inner.stats.delivered += out.len() as u64;
        out
    }

    /// Messages queued for endpoint `ep` (regardless of arrival time).
    pub fn pending(&self, ep: usize) -> usize {
        self.inner.borrow().inboxes[ep].len()
    }

    /// Cuts endpoint `ep` off: everything to or from it is lost until
    /// [`SimNet::heal`].
    pub fn partition(&self, ep: usize) {
        self.inner.borrow_mut().partitioned.insert(ep);
    }

    /// Reconnects endpoint `ep`.
    pub fn heal(&self, ep: usize) {
        self.inner.borrow_mut().partitioned.remove(&ep);
    }

    /// Reconnects every endpoint.
    pub fn heal_all(&self) {
        self.inner.borrow_mut().partitioned.clear();
    }

    /// Fault counters so far.
    pub fn stats(&self) -> NetStats {
        self.inner.borrow().stats
    }
}

// ---------------------------------------------------------------------------
// Backoff

/// Capped exponential backoff with deterministic jitter.
///
/// Attempt `n` waits `base * 2^n` plus a jitter drawn (deterministically,
/// from the seed) in `[0, base * 2^n)`, the whole thing clamped to
/// `cap`. Because the jitter never reaches the next doubling, the delay
/// sequence is monotonically non-decreasing until it pins at exactly
/// `cap` — property-checked in `crates/ksim/tests/net_faults.rs`.
#[derive(Clone, Debug)]
pub struct Backoff {
    seed: u64,
    base_ns: u64,
    cap_ns: u64,
    attempt: u32,
}

impl Backoff {
    /// A backoff starting at `base_ns` and pinning at `cap_ns`.
    /// `base_ns` is clamped up to 1 and `cap_ns` up to `base_ns`.
    pub fn new(seed: u64, base_ns: u64, cap_ns: u64) -> Self {
        let base_ns = base_ns.max(1);
        Backoff {
            seed,
            base_ns,
            cap_ns: cap_ns.max(base_ns),
            attempt: 0,
        }
    }

    /// Attempts taken since construction or the last [`Backoff::reset`].
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The delay attempt `attempt` would wait, without consuming it.
    pub fn peek(&self, attempt: u32) -> u64 {
        let exp = self
            .base_ns
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        if exp >= self.cap_ns {
            return self.cap_ns;
        }
        // Jitter strictly below the current rung keeps the sequence
        // monotone: next rung's minimum (2*exp) exceeds this rung's
        // maximum (exp + exp - 1).
        let jitter = crate::rng::mix(self.seed, u64::from(attempt)) % exp;
        (exp + jitter).min(self.cap_ns)
    }

    /// Consumes and returns the next delay.
    pub fn next_delay(&mut self) -> u64 {
        let d = self.peek(self.attempt);
        self.attempt = self.attempt.saturating_add(1);
        d
    }

    /// Starts the schedule over (call after a successful exchange).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_net_delivers_in_order() {
        let net: SimNet<u32> = SimNet::new(NetFaultPlan::reliable(1, 100), 2);
        for i in 0..4 {
            net.send(0, 0, 1, i);
        }
        assert_eq!(net.recv(99, 1), Vec::<u32>::new());
        assert_eq!(net.recv(100, 1), vec![0, 1, 2, 3]);
        let s = net.stats();
        assert_eq!((s.sent, s.delivered, s.dropped), (4, 4, 0));
    }

    #[test]
    fn partition_eats_messages_both_ways() {
        let net: SimNet<u32> = SimNet::new(NetFaultPlan::reliable(1, 10), 2);
        net.partition(1);
        net.send(0, 0, 1, 7); // lost at send
        net.heal(1);
        net.send(10, 0, 1, 8);
        net.partition(1);
        assert_eq!(net.recv(1000, 1), Vec::<u32>::new()); // lost at delivery
        net.heal(1);
        assert_eq!(net.recv(2000, 1), Vec::<u32>::new());
        assert_eq!(net.stats().partitioned, 2);
    }

    #[test]
    fn backoff_caps_and_replays() {
        let mut a = Backoff::new(9, 1000, 50_000);
        let mut b = Backoff::new(9, 1000, 50_000);
        let mut last = 0;
        for _ in 0..24 {
            let d = a.next_delay();
            assert_eq!(d, b.next_delay());
            assert!(d >= last, "backoff went backwards: {last} -> {d}");
            assert!(d <= 50_000);
            last = d;
        }
        assert_eq!(a.peek(63), 50_000); // shift overflow pins at cap
    }
}
