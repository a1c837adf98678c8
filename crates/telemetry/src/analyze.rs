//! Contention analysis over the trace stream.
//!
//! The trace plane (PR 4) records *what happened*; this module answers
//! *who is costing whom wait time*. From a `(ts, cpu, seq)`-ordered event
//! stream the [`Analyzer`] reconstructs, per lock:
//!
//! * the **acquisition timeline** — holder segments
//!   `[lock_acquired, lock_release)` and completed waiter intervals
//!   `[lock_contended, lock_acquired)`;
//! * the **wait-for graph** — holder→waiter blocking edges with
//!   durations, chained transitively into blocking chains ("A waits on L
//!   held by B, while B waits on M held by C") and exported as
//!   flamegraph collapsed stacks;
//! * **blame attribution** — per `(lock, tenant, policy)` nanoseconds of
//!   wait *caused* (holder side) and *suffered* (waiter side). Each
//!   completed wait interval is partitioned over the lock's holder
//!   segments; time not covered by any known holder goes to a synthetic
//!   `handoff` tenant, so the conservation law
//!   `sum(caused) == total wait == sum(suffered)` holds *by construction*
//!   ([`Report::conservation_holds`]). Under ksim virtual time the
//!   timeline itself is exact, so the attribution is too;
//! * **hook-cost rollup** — per-policy dispatch calls / instructions /
//!   budget from hook-span records, so policy overhead is first-class
//!   alongside lock wait.
//!
//! **Fidelity**: the rings overwrite oldest on overrun. A ring numbers its
//! records without gaps, so a number missing from the range seen on one
//! ring proves a record was lost; the analyzer counts those (plus timeline
//! anomalies and capacity truncation) and reports attribution as *exact*
//! or *lower bound* accordingly ([`Report::exact`]). The conservation law
//! still holds for the events that were seen — what degrades is coverage,
//! never consistency.
//!
//! **Clock domains**: timestamps are opaque nanoseconds. Real traces
//! carry monotonic time, sim traces carry DES virtual time; the analyzer
//! never reads a clock, so analyzing a fixed-seed sim trace is
//! byte-identical run-to-run ([`Report::stable_hash`]).
//!
//! **Tenants**: blame wants a principal coarser than a tid. The default
//! rule — the only one wired up — is `tenant == socket`, taken from the
//! `c` argument of transition records (NUMA domains are the natural
//! contention principals for a shuffle lock; `concord`'s tenant manager
//! assigns sockets to tenants the same way).
//!
//! Two modes: **offline** ([`analyze`] over a drained or saved trace) and
//! **continuous** — a bounded-memory windowed aggregator armed by one
//! atomic ([`set_continuous_armed`], same pattern as trace arming) that
//! feeds top-K contended-lock gauges into the global metrics registry on
//! every [`Continuous::step`].

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::event::{fnv64, EventKind, TraceEvent, EVENT_BYTES};
use crate::ring::NR_RINGS;

/// Synthetic tenant id charged for wait time not covered by any observed
/// holder segment (the lock was in handoff, or the holder's records were
/// outside the trace). Rendered as `handoff`.
pub const HANDOFF_TENANT: u64 = u64::MAX;

/// Modeled cost of invoking a policy at a hook site (indirect call +
/// context marshalling); the program itself is JIT-compiled, as kernel
/// eBPF is. One hook-cost model serves the DES (`concord::policy`
/// charges it to virtual time), hook-span estimates here and the
/// chrome-trace exporter.
pub const HOOK_CALL_NS: u64 = 15;

/// Modeled cost per bytecode instruction after JIT compilation (~2× native
/// per the usual eBPF JIT experience); see [`HOOK_CALL_NS`].
pub const NS_PER_INSN: u64 = 2;

/// Maximum blocking-chain depth followed before a chain is cut off.
pub const MAX_CHAIN_DEPTH: u32 = 16;

/// Minimum simultaneous waiters for a convoy window to open.
pub const CONVOY_MIN_WAITERS: usize = 3;

/// Policy label used when no live patch matches a lock.
const UNPATCHED: &str = "(unpatched)";

/// Analysis knobs. The defaults suit offline analysis of a full trace;
/// [`Continuous`] shrinks the caps for bounded-memory windowed use.
#[derive(Clone)]
pub struct AnalyzeConfig {
    /// Lock id → human name (from a registry); unknown ids render as
    /// `lock<id>`.
    pub lock_names: BTreeMap<u64, String>,
    /// How many top contended locks the continuous mode exports as gauges.
    pub top_k: usize,
    /// Most locks tracked at once; events for further locks are dropped
    /// (counted as truncation → lower-bound attribution).
    pub max_locks: usize,
    /// Most completed wait intervals / holder segments kept per lock.
    pub max_intervals: usize,
    /// Most in-flight (pending) waits or holds tracked per lock.
    pub max_pending: usize,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            lock_names: BTreeMap::new(),
            top_k: 5,
            max_locks: 1024,
            max_intervals: 1 << 16,
            max_pending: 4096,
        }
    }
}

impl AnalyzeConfig {
    fn lock_name(&self, id: u64) -> String {
        match self.lock_names.get(&id) {
            Some(n) => n.clone(),
            None => format!("lock{id}"),
        }
    }
}

/// Stream filter shared by the analyzer's decoding path and
/// `c3ctl trace tail --since/--lock/--event`.
#[derive(Clone, Copy, Default)]
pub struct EventFilter {
    /// Keep records with `ts_ns >= since_ns`.
    pub since_ns: Option<u64>,
    /// Keep records whose `a` argument (the lock id for lock-scoped
    /// kinds) equals this.
    pub lock: Option<u64>,
    /// Keep records of exactly this kind.
    pub kind: Option<EventKind>,
}

impl EventFilter {
    /// Does `ev` pass every set predicate?
    pub fn admits(&self, ev: &TraceEvent) -> bool {
        if let Some(s) = self.since_ns {
            if ev.ts_ns < s {
                return false;
            }
        }
        if let Some(l) = self.lock {
            if ev.a != l {
                return false;
            }
        }
        if let Some(k) = self.kind {
            if ev.kind != k {
                return false;
            }
        }
        true
    }
}

/// A saved trace failed to parse.
#[derive(Debug, PartialEq, Eq)]
pub enum TraceParseError {
    /// The byte length is not a multiple of the record size: the file was
    /// truncated (or is not a trace).
    Truncated {
        /// Total length of the rejected input.
        len: usize,
    },
    /// A record failed to decode (unknown kind discriminant — torn write
    /// or foreign data).
    BadRecord {
        /// Zero-based record index.
        index: usize,
    },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Truncated { len } => write!(
                f,
                "trace truncated: {len} bytes is not a multiple of the {EVENT_BYTES}-byte record"
            ),
            TraceParseError::BadRecord { index } => {
                write!(f, "trace record {index} failed to decode")
            }
        }
    }
}

/// Decode a saved trace (concatenated [`TraceEvent::to_bytes`] records,
/// the `c3ctl trace save` format).
///
/// # Errors
///
/// Rejects inputs whose length is not a whole number of records, and any
/// record with an unknown kind discriminant.
pub fn read_trace(bytes: &[u8]) -> Result<Vec<TraceEvent>, TraceParseError> {
    if !bytes.len().is_multiple_of(EVENT_BYTES) {
        return Err(TraceParseError::Truncated { len: bytes.len() });
    }
    let mut out = Vec::with_capacity(bytes.len() / EVENT_BYTES);
    for (index, chunk) in bytes.chunks_exact(EVENT_BYTES).enumerate() {
        let arr: &[u8; EVENT_BYTES] = chunk.try_into().expect("chunks_exact yields exact chunks");
        match TraceEvent::from_bytes(arr) {
            Some(ev) => out.push(ev),
            None => return Err(TraceParseError::BadRecord { index }),
        }
    }
    Ok(out)
}

/// Name of a hook-span `b` argument (the hook's activity-mask bit).
/// Mirrors `locks::hooks::HookKind::bit` — kept here because `telemetry`
/// sits below `locks` in the crate graph.
fn hook_bit_name(bit: u64) -> &'static str {
    match bit {
        1 => "cmp_node",
        2 => "skip_shuffle",
        4 => "schedule_waiter",
        8 => "lock_acquire",
        16 => "lock_contended",
        32 => "lock_acquired",
        64 => "lock_release",
        _ => "hook?",
    }
}

/// A completed waiter interval `[start_ns, end_ns)` on one lock.
#[derive(Clone, Copy)]
struct WaitInterval {
    start_ns: u64,
    end_ns: u64,
    tid: u64,
    /// Waiter's socket (the default tenant).
    socket: u64,
    /// Policy label live on the lock when the wait completed.
    policy: u32, // index into Analyzer::policy_pool
}

/// A completed holder segment `[start_ns, end_ns)` on one lock.
#[derive(Clone, Copy)]
struct HoldSegment {
    start_ns: u64,
    end_ns: u64,
    tid: u64,
    socket: u64,
}

/// An open wait or hold: when it began and the thread's socket.
#[derive(Clone, Copy)]
struct Pending {
    start_ns: u64,
    socket: u64,
}

/// Hashes a lock id or tid: one widening multiply, folded so the high
/// and the low bits both mix.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("id maps are keyed by u64");
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let m = u128::from(key) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by lock id or tid.
type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// What [`open`] did.
enum Put {
    New,
    /// The tid had an open entry already; it now holds the new one.
    Replaced,
    /// The tid had none and the map is at `cap`.
    Full,
}

/// Sets `tid`'s open wait or hold unless that would take `map` past `cap`.
#[inline]
fn open(map: &mut IdMap<Pending>, tid: u64, p: Pending, cap: usize) -> Put {
    let full = map.len() >= cap;
    match map.entry(tid) {
        Entry::Occupied(mut e) => {
            e.insert(p);
            Put::Replaced
        }
        Entry::Vacant(_) if full => Put::Full,
        Entry::Vacant(e) => {
            e.insert(p);
            Put::New
        }
    }
}

/// Shuffler / scheduler decision counters for one lock.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// `cmp_node` evaluations.
    pub cmp_calls: u64,
    /// `cmp_node` "group" verdicts — each one moves a waiter ahead of
    /// FIFO order, i.e. one shuffle inversion.
    pub inversions: u64,
    /// `skip_shuffle` evaluations.
    pub skip_calls: u64,
    /// `skip_shuffle` "skip" verdicts.
    pub skips: u64,
    /// `schedule_waiter` evaluations.
    pub sched_calls: u64,
    /// `schedule_waiter` "may park" verdicts.
    pub parks: u64,
}

#[derive(Default)]
struct LockState {
    acquires: u64,
    contended: u64,
    acquired: u64,
    releases: u64,
    /// Open waits and holds, by tid.
    pending_wait: IdMap<Pending>,
    pending_hold: IdMap<Pending>,
    waits: Vec<WaitInterval>,
    holds: Vec<HoldSegment>,
    shuffle: ShuffleStats,
}

/// Hook bits a span can carry (`HookKind::bit` is `1 << index`).
const HOOK_BITS: usize = 7;

/// The cost cell of one hook bit on one lock, for the policy the cell
/// last saw there.
#[derive(Default)]
struct HookCell {
    policy: u32,
    cost: HookCost,
}

/// Everything the analyzer keeps for one lock id.
struct LockSlot {
    id: u64,
    /// Interned label of the policy live on the lock, resolved at patch
    /// generation `policy_gen` and current while that is the analyzer's.
    policy: u32,
    policy_gen: u64,
    /// Hook-span costs, indexed by hook bit position.
    hooks: [HookCell; HOOK_BITS],
    /// Whether `state` counts against `max_locks` and is reported: a lock
    /// seen only in hook spans has no timeline.
    tracked: bool,
    state: LockState,
}

impl LockSlot {
    fn new(id: u64) -> LockSlot {
        LockSlot {
            id,
            policy: 0,
            // No generation: the first label request resolves it.
            policy_gen: u64::MAX,
            hooks: Default::default(),
            tracked: false,
            state: LockState::default(),
        }
    }
}

/// Aggregated dispatch cost of one `(lock, hook, policy)` cell.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct HookCost {
    /// Policy invocations.
    pub calls: u64,
    /// Executed instructions, summed.
    pub insns: u64,
    /// Estimated dispatch nanoseconds
    /// (`calls * HOOK_CALL_NS + insns * NS_PER_INSN`).
    pub est_ns: u64,
    /// Smallest remaining budget seen (how close the policy came to its
    /// instruction ceiling).
    pub min_budget: u64,
}

impl HookCost {
    /// Counts one span of `insns` instructions that left `budget`.
    fn add_span(&mut self, insns: u64, budget: u64) {
        self.min_budget = if self.calls == 0 {
            budget
        } else {
            self.min_budget.min(budget)
        };
        self.calls += 1;
        self.insns += insns;
        self.est_ns += HOOK_CALL_NS + insns * NS_PER_INSN;
    }

    /// Folds in the spans `other` counted.
    fn merge(&mut self, other: &HookCost) {
        if other.calls == 0 {
            return;
        }
        self.min_budget = if self.calls == 0 {
            other.min_budget
        } else {
            self.min_budget.min(other.min_budget)
        };
        self.calls += other.calls;
        self.insns += other.insns;
        self.est_ns += other.est_ns;
    }
}

/// Per-lock analysis results.
#[derive(Clone, Default)]
pub struct LockReport {
    /// Human name (config-provided or `lock<id>`).
    pub name: String,
    /// `lock_acquire` transitions.
    pub acquires: u64,
    /// `lock_contended` transitions.
    pub contended: u64,
    /// `lock_acquired` transitions.
    pub acquired: u64,
    /// `lock_release` transitions.
    pub releases: u64,
    /// Completed wait intervals.
    pub completed_waits: u64,
    /// Total measured wait over completed intervals.
    pub wait_ns: u64,
    /// Total measured hold over completed segments.
    pub hold_ns: u64,
    /// Longest single completed wait.
    pub max_wait_ns: u64,
    /// Wait ns *caused*, per `(tenant, policy)`; the [`HANDOFF_TENANT`]
    /// row absorbs time with no observed holder.
    pub caused: BTreeMap<(u64, String), u64>,
    /// Wait ns *suffered*, per `(waiter tenant, policy)`.
    pub suffered: BTreeMap<(u64, String), u64>,
    /// Convoy windows (≥ [`CONVOY_MIN_WAITERS`] simultaneous waiters).
    pub convoy_windows: u64,
    /// Total ns spent inside convoy windows.
    pub convoy_ns: u64,
    /// Peak simultaneous waiters.
    pub peak_waiters: u64,
    /// Shuffler decision counters.
    pub shuffle: ShuffleStats,
}

/// The result of an analysis pass. Every collection is ordered
/// (`BTreeMap`s and sorted `Vec`s), so [`Report::render`] — and therefore
/// [`Report::stable_hash`] — is byte-identical for identical inputs.
#[derive(Clone, Default)]
pub struct Report {
    /// Per-lock results, keyed by lock id.
    pub locks: BTreeMap<u64, LockReport>,
    /// Blocking chains as flamegraph collapsed stacks: frame strings
    /// joined by `;`, weighted by nanoseconds. Total weight per lock
    /// equals that lock's `wait_ns`.
    pub chains: BTreeMap<String, u64>,
    /// Deepest blocking chain observed (1 = plain holder→waiter).
    pub max_chain_depth: u32,
    /// Dispatch-cost rollup keyed by `(lock id, hook bit, policy)`.
    pub hook_costs: BTreeMap<(u64, u64, String), HookCost>,
    /// Records analyzed.
    pub events: u64,
    /// Per-ring sequence gaps (proven ring-overwrite drops).
    pub seq_gaps: u64,
    /// Timeline anomalies (releases without holds, double transitions).
    pub anomalies: u64,
    /// Records or intervals discarded by the analyzer's own memory caps.
    pub truncated: u64,
    /// Waits still open when the stream ended (excluded from blame).
    pub open_waits: u64,
    /// Holds still open when the stream ended (excluded from blame).
    pub open_holds: u64,
}

impl Report {
    /// Is the attribution exact (no proven drops, anomalies or
    /// truncation)? When false, every figure is a lower bound.
    pub fn exact(&self) -> bool {
        self.seq_gaps == 0 && self.anomalies == 0 && self.truncated == 0
    }

    /// The conservation law: for every lock,
    /// `sum(caused) == wait_ns == sum(suffered)`. Holds by construction;
    /// exposed so gates and proptests can assert it end to end.
    pub fn conservation_holds(&self) -> bool {
        self.locks.values().all(|l| {
            let caused: u64 = l.caused.values().sum();
            let suffered: u64 = l.suffered.values().sum();
            caused == l.wait_ns && suffered == l.wait_ns
        })
    }

    /// Total measured wait across all locks.
    pub fn total_wait_ns(&self) -> u64 {
        self.locks.values().map(|l| l.wait_ns).sum()
    }

    /// FNV-1a hash of the rendered report — the seed-stability pin for
    /// sim traces.
    pub fn stable_hash(&self) -> u64 {
        fnv64(&self.render())
    }

    /// Stable human-readable rendering (integer-only: no floats, so the
    /// bytes are reproducible).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let fidelity = if self.exact() { "exact" } else { "lower-bound" };
        let _ = writeln!(
            out,
            "contention analysis: {} events, {} locks, attribution={fidelity} \
             (seq_gaps={} anomalies={} truncated={} open_waits={} open_holds={})",
            self.events,
            self.locks.len(),
            self.seq_gaps,
            self.anomalies,
            self.truncated,
            self.open_waits,
            self.open_holds,
        );
        let _ = writeln!(
            out,
            "conservation: {}",
            if self.conservation_holds() {
                "holds"
            } else {
                "VIOLATED"
            }
        );
        for (id, l) in &self.locks {
            let _ = writeln!(
                out,
                "lock {} id={id}: acquires={} contended={} acquired={} releases={} \
                 completed_waits={}",
                l.name, l.acquires, l.contended, l.acquired, l.releases, l.completed_waits
            );
            let _ = writeln!(
                out,
                "  wait={}ns hold={}ns max_wait={}ns",
                l.wait_ns, l.hold_ns, l.max_wait_ns
            );
            let _ = writeln!(
                out,
                "  convoy: windows={} peak_waiters={} ns={}",
                l.convoy_windows, l.peak_waiters, l.convoy_ns
            );
            let s = &l.shuffle;
            let _ = writeln!(
                out,
                "  shuffle: cmp={} inversions={} skips={}/{} parks={}/{}",
                s.cmp_calls, s.inversions, s.skips, s.skip_calls, s.parks, s.sched_calls
            );
            let permille = |v: u64| v.saturating_mul(1000).checked_div(l.wait_ns).unwrap_or(0);
            let tenant_name = |t: u64| {
                if t == HANDOFF_TENANT {
                    "handoff".to_string()
                } else {
                    t.to_string()
                }
            };
            for ((tenant, policy), ns) in &l.caused {
                let _ = writeln!(
                    out,
                    "  caused  : tenant={} policy={policy} {ns}ns ({}‰)",
                    tenant_name(*tenant),
                    permille(*ns)
                );
            }
            for ((tenant, policy), ns) in &l.suffered {
                let _ = writeln!(
                    out,
                    "  suffered: tenant={} policy={policy} {ns}ns ({}‰)",
                    tenant_name(*tenant),
                    permille(*ns)
                );
            }
        }
        if !self.hook_costs.is_empty() {
            let _ = writeln!(out, "hook costs:");
            for ((lock, bit, policy), c) in &self.hook_costs {
                let _ = writeln!(
                    out,
                    "  lock={lock} hook={} policy={policy} calls={} insns={} est_ns={} \
                     min_budget={}",
                    hook_bit_name(*bit),
                    c.calls,
                    c.insns,
                    c.est_ns,
                    c.min_budget
                );
            }
        }
        if !self.chains.is_empty() {
            let _ = writeln!(out, "blocking chains: max_depth={}", self.max_chain_depth);
            let mut rows: Vec<(&String, &u64)> = self.chains.iter().collect();
            rows.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            for (stack, ns) in rows.into_iter().take(20) {
                let _ = writeln!(out, "  {stack} {ns}ns");
            }
        }
        out
    }

    /// Top `k` locks by completed wait, `(id, name, wait_ns)`,
    /// deterministically ordered (wait desc, id asc).
    pub fn top_waits(&self, k: usize) -> Vec<(u64, String, u64)> {
        let mut rows: Vec<(u64, String, u64)> = self
            .locks
            .iter()
            .map(|(id, l)| (*id, l.name.clone(), l.wait_ns))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }
}

/// A live patch observed in the stream.
#[derive(Clone)]
struct LivePatch {
    label: String,
    since_ns: u64,
}

/// The streaming analysis engine. Feed it `(ts, cpu, seq)`-ordered
/// events ([`Analyzer::observe_all`]), then [`Analyzer::finish`] to
/// partition timelines into a [`Report`].
pub struct Analyzer {
    cfg: AnalyzeConfig,
    /// Per-lock state, one slot per lock id, in first-seen order.
    slots: Vec<LockSlot>,
    /// Lock id → index into `slots`.
    ids: IdMap<usize>,
    /// The previous record's lock and its slot: a record on the same lock
    /// skips the id map.
    hot: Option<(u64, usize)>,
    /// Slots whose timeline is tracked, at most `cfg.max_locks`.
    tracked: usize,
    /// Sequence numbers seen per ring bucket, as `(lowest, highest,
    /// count)`: the numbers missing from that range prove drops.
    ring_seq: [(u64, u64, u64); NR_RINGS],
    /// Live patches keyed by label hash (from patch_apply payloads).
    live_patches: BTreeMap<u64, LivePatch>,
    /// Bumped by every patch record. A label is a function of
    /// `live_patches` and the immutable `cfg.lock_names` only, so a
    /// slot's cached label is true while its generation is this one.
    patch_gen: u64,
    /// Interned policy labels; records and cells store an index.
    policy_pool: Vec<String>,
    /// Dispatch cost per `(lock id, hook bit, interned policy)` for what
    /// no slot cell holds: a bit outside the seven, or a policy the lock
    /// has left since.
    hook_spill: BTreeMap<(u64, u64, u32), HookCost>,
    events: u64,
    anomalies: u64,
    truncated: u64,
}

/// The policy label live on `lock_id`, resolved by matching live
/// patch-label prefixes against the lock's registered name. Patch records
/// carry only a 16-byte label prefix, so the match is prefix-tolerant in
/// both directions; ties go to the most recent apply (then the larger
/// hash, for determinism).
fn policy_label<'a>(
    lock_names: &BTreeMap<u64, String>,
    live_patches: &'a BTreeMap<u64, LivePatch>,
    lock_id: u64,
) -> &'a str {
    let Some(name) = lock_names.get(&lock_id) else {
        return UNPATCHED;
    };
    let tag = format!("{name}/");
    let mut best: Option<(&LivePatch, u64)> = None;
    for (hash, p) in live_patches {
        let matches =
            p.label.starts_with(&tag) || tag.starts_with(&p.label) || p.label.contains(&tag);
        if !matches {
            continue;
        }
        let better = match best {
            None => true,
            Some((b, bh)) => (p.since_ns, *hash) > (b.since_ns, bh),
        };
        if better {
            best = Some((p, *hash));
        }
    }
    best.map_or(UNPATCHED, |(p, _)| p.label.as_str())
}

impl Analyzer {
    pub fn new(cfg: AnalyzeConfig) -> Analyzer {
        Analyzer {
            cfg,
            slots: Vec::new(),
            ids: IdMap::default(),
            hot: None,
            tracked: 0,
            ring_seq: [(u64::MAX, 0, 0); NR_RINGS],
            live_patches: BTreeMap::new(),
            patch_gen: 0,
            policy_pool: vec![UNPATCHED.to_string()],
            hook_spill: BTreeMap::new(),
            events: 0,
            anomalies: 0,
            truncated: 0,
        }
    }

    /// Index of lock `id`'s slot, created if it has none. The previous
    /// record's lock costs one compare.
    #[inline]
    fn slot(&mut self, id: u64) -> usize {
        match self.hot {
            Some((hot, i)) if hot == id => i,
            _ => self.slot_miss(id),
        }
    }

    #[inline(never)]
    fn slot_miss(&mut self, id: u64) -> usize {
        let i = *self.ids.entry(id).or_insert_with(|| {
            self.slots.push(LockSlot::new(id));
            self.slots.len() - 1
        });
        self.hot = Some((id, i));
        i
    }

    /// Index of lock `id`'s slot with its timeline tracked, or `None` —
    /// one more truncated record — when it is untracked and `max_locks`
    /// timelines are.
    #[inline]
    fn tracked_slot(&mut self, id: u64) -> Option<usize> {
        match self.hot {
            Some((hot, i)) if hot == id && self.slots[i].tracked => Some(i),
            _ => self.track(id),
        }
    }

    #[inline(never)]
    fn track(&mut self, id: u64) -> Option<usize> {
        let known = self.ids.get(&id).copied();
        if let Some(i) = known {
            self.hot = Some((id, i));
            if self.slots[i].tracked {
                return Some(i);
            }
        }
        if self.tracked >= self.cfg.max_locks {
            self.truncated += 1;
            return None;
        }
        let i = known.unwrap_or_else(|| self.slot_miss(id));
        self.slots[i].tracked = true;
        self.tracked += 1;
        Some(i)
    }

    /// Interned label of the policy live on slot `i`'s lock:
    /// [`policy_label`] runs once per lock and patch record.
    #[inline]
    fn policy_of(&mut self, i: usize) -> u32 {
        if self.slots[i].policy_gen != self.patch_gen {
            self.resolve_policy(i);
        }
        self.slots[i].policy
    }

    #[cold]
    fn resolve_policy(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        let label = policy_label(&self.cfg.lock_names, &self.live_patches, slot.id);
        slot.policy = match self.policy_pool.iter().position(|p| p == label) {
            Some(p) => p,
            None => {
                self.policy_pool.push(label.to_string());
                self.policy_pool.len() - 1
            }
        } as u32;
        slot.policy_gen = self.patch_gen;
    }

    /// Feed a slice of records. Events must arrive in the plane's merged
    /// `(ts_ns, cpu, seq)` order for timeline reconstruction to be exact;
    /// a stream may come in slices of any size.
    pub fn observe_all(&mut self, events: &[TraceEvent]) {
        self.events += events.len() as u64;
        let ring = |ev: &TraceEvent| usize::from(ev.cpu) % NR_RINGS;
        for run in events.chunk_by(|x, y| ring(x) == ring(y)) {
            // Per-ring drop detection: a ring numbers its records without
            // gaps, so whatever is missing from the range seen was
            // overwritten. Counted over the range, not between neighbours:
            // a hook span carries its entry time and so sorts ahead of the
            // records its policy emitted during the run, which the ring
            // numbered first. A run of one ring's records updates the
            // range once.
            let (lo, hi, seen) = &mut self.ring_seq[ring(&run[0])];
            for ev in run {
                *lo = (*lo).min(ev.seq);
                *hi = (*hi).max(ev.seq);
            }
            *seen += run.len() as u64;
            for ev in run {
                self.record(ev);
            }
        }
    }

    /// Applies one record to the per-lock state.
    #[inline]
    fn record(&mut self, ev: &TraceEvent) {
        match ev.kind {
            EventKind::LockAcquire
            | EventKind::LockContended
            | EventKind::LockAcquired
            | EventKind::LockRelease
            | EventKind::CmpNode
            | EventKind::SkipShuffle
            | EventKind::ScheduleWaiter => {
                if let Some(i) = self.tracked_slot(ev.a) {
                    self.transition(i, ev);
                }
            }
            EventKind::HookSpan => self.hook_span(ev),
            EventKind::PatchApply => {
                let label = String::from_utf8_lossy(ev.payload_bytes()).into_owned();
                self.live_patches.insert(
                    ev.a,
                    LivePatch {
                        label,
                        since_ns: ev.ts_ns,
                    },
                );
                self.patch_gen += 1;
            }
            EventKind::PatchRevert => {
                self.live_patches.remove(&ev.a);
                self.patch_gen += 1;
            }
            // Control-plane records carry no timeline information.
            _ => {}
        }
    }

    /// Charges a hook span to its lock's cell for the span's hook bit.
    #[inline]
    fn hook_span(&mut self, ev: &TraceEvent) {
        let i = self.slot(ev.a);
        let policy = self.policy_of(i);
        let index = (ev.b.is_power_of_two() && ev.b < 1 << HOOK_BITS)
            .then(|| ev.b.trailing_zeros() as usize);
        let cost = match index {
            Some(index) => {
                let cell = &mut self.slots[i].hooks[index];
                if cell.policy != policy {
                    // The lock's policy changed since this cell's last
                    // span: retire the cell of the policy it left, if it
                    // has counted any.
                    if cell.cost.calls > 0 {
                        self.hook_spill
                            .entry((ev.a, ev.b, cell.policy))
                            .or_default()
                            .merge(&std::mem::take(&mut cell.cost));
                    }
                    cell.policy = policy;
                }
                &mut cell.cost
            }
            None => self.hook_spill.entry((ev.a, ev.b, policy)).or_default(),
        };
        cost.add_span(ev.c, ev.d);
    }

    /// Applies a lock transition or shuffler decision to slot `i`'s
    /// timeline.
    #[inline]
    fn transition(&mut self, i: usize, ev: &TraceEvent) {
        let (cap_pending, cap_intervals) = (self.cfg.max_pending, self.cfg.max_intervals);
        let l = &mut self.slots[i].state;
        let pending = Pending {
            start_ns: ev.ts_ns,
            socket: ev.c,
        };
        match ev.kind {
            EventKind::LockAcquire => l.acquires += 1,
            EventKind::LockContended => {
                l.contended += 1;
                match open(&mut l.pending_wait, ev.b, pending, cap_pending) {
                    Put::New => {}
                    // A second contended without an acquired between:
                    // the acquired record was lost.
                    Put::Replaced => self.anomalies += 1,
                    Put::Full => self.truncated += 1,
                }
            }
            EventKind::LockAcquired => {
                l.acquired += 1;
                // Close the waiter interval, if this acquisition went
                // through the slow path.
                if let Some(w) = l.pending_wait.remove(&ev.b) {
                    if l.waits.len() < cap_intervals {
                        let policy = self.policy_of(i);
                        self.slots[i].state.waits.push(WaitInterval {
                            start_ns: w.start_ns,
                            end_ns: ev.ts_ns.max(w.start_ns),
                            tid: ev.b,
                            socket: w.socket,
                            policy,
                        });
                    } else {
                        self.truncated += 1;
                    }
                }
                // Open the holder segment.
                let l = &mut self.slots[i].state;
                match open(&mut l.pending_hold, ev.b, pending, cap_pending) {
                    Put::New => {}
                    // Double acquire without a release: the release
                    // record was lost.
                    Put::Replaced => self.anomalies += 1,
                    Put::Full => self.truncated += 1,
                }
            }
            EventKind::LockRelease => {
                l.releases += 1;
                match l.pending_hold.remove(&ev.b) {
                    Some(h) if l.holds.len() < cap_intervals => l.holds.push(HoldSegment {
                        start_ns: h.start_ns,
                        end_ns: ev.ts_ns.max(h.start_ns),
                        tid: ev.b,
                        socket: h.socket,
                    }),
                    Some(_) => self.truncated += 1,
                    // Release without an observed acquire: the stream
                    // started mid-hold or the record was lost.
                    None => self.anomalies += 1,
                }
            }
            EventKind::CmpNode => {
                l.shuffle.cmp_calls += 1;
                l.shuffle.inversions += u64::from(ev.d == 1);
            }
            EventKind::SkipShuffle => {
                l.shuffle.skip_calls += 1;
                l.shuffle.skips += u64::from(ev.d == 1);
            }
            EventKind::ScheduleWaiter => {
                l.shuffle.sched_calls += 1;
                l.shuffle.parks += u64::from(ev.d == 1);
            }
            _ => {}
        }
    }

    /// Partition the reconstructed timelines into a [`Report`].
    pub fn finish(self) -> Report {
        let Analyzer {
            cfg,
            slots,
            mut hook_spill,
            events,
            ring_seq,
            anomalies,
            truncated,
            policy_pool,
            ..
        } = self;
        let seq_gaps = ring_seq
            .iter()
            .filter(|(.., seen)| *seen > 0)
            .map(|(lo, hi, seen)| (hi - lo).saturating_sub(seen - 1))
            .sum();

        let mut locks = Vec::with_capacity(slots.len());
        for slot in slots {
            for (bit, cell) in slot.hooks.iter().enumerate() {
                if cell.cost.calls > 0 {
                    hook_spill
                        .entry((slot.id, 1 << bit, cell.policy))
                        .or_default()
                        .merge(&cell.cost);
                }
            }
            if slot.tracked {
                locks.push((slot.id, slot.state));
            }
        }
        locks.sort_unstable_by_key(|(id, _)| *id);

        let mut report = Report {
            hook_costs: hook_spill
                .into_iter()
                .map(|((lock, bit, policy), cost)| {
                    ((lock, bit, policy_pool[policy as usize].clone()), cost)
                })
                .collect(),
            events,
            seq_gaps,
            anomalies,
            truncated,
            ..Report::default()
        };

        // Indexes for chain reconstruction: every hold per lock, every
        // wait per tid (across locks), both time-sorted.
        let mut holds_by_lock: BTreeMap<u64, Vec<HoldSegment>> = BTreeMap::new();
        let mut waits_by_tid: BTreeMap<u64, Vec<(u64, u64, u64)>> = BTreeMap::new();
        for (id, l) in &mut locks {
            let mut holds = std::mem::take(&mut l.holds);
            holds.sort_by_key(|h| (h.start_ns, h.end_ns, h.tid));
            holds_by_lock.insert(*id, holds);
            for w in &l.waits {
                waits_by_tid
                    .entry(w.tid)
                    .or_default()
                    .push((*id, w.start_ns, w.end_ns));
            }
        }
        for waits in waits_by_tid.values_mut() {
            waits.sort_unstable();
        }

        for (id, l) in locks {
            let mut lr = LockReport {
                name: cfg.lock_name(id),
                acquires: l.acquires,
                contended: l.contended,
                acquired: l.acquired,
                releases: l.releases,
                completed_waits: l.waits.len() as u64,
                shuffle: l.shuffle,
                ..LockReport::default()
            };
            report.open_waits += l.pending_wait.len() as u64;
            report.open_holds += l.pending_hold.len() as u64;

            let holds = &holds_by_lock[&id];
            lr.hold_ns = holds.iter().map(|h| h.end_ns - h.start_ns).sum();

            // Blame: partition each completed wait over the holder
            // timeline; the uncovered remainder goes to the handoff
            // tenant. covered + handoff == wait by construction.
            for w in &l.waits {
                let dur = w.end_ns - w.start_ns;
                let policy = policy_pool[w.policy as usize].clone();
                lr.wait_ns += dur;
                lr.max_wait_ns = lr.max_wait_ns.max(dur);
                *lr.suffered.entry((w.socket, policy.clone())).or_default() += dur;
                let mut cur = w.start_ns;
                for h in holds {
                    if h.end_ns <= cur {
                        continue;
                    }
                    if h.start_ns >= w.end_ns {
                        break;
                    }
                    let os = h.start_ns.max(cur);
                    let oe = h.end_ns.min(w.end_ns);
                    if oe > os {
                        if os > cur {
                            // Gap before this hold (the lock was in
                            // handoff between two holders).
                            *lr.caused
                                .entry((HANDOFF_TENANT, policy.clone()))
                                .or_default() += os - cur;
                        }
                        *lr.caused.entry((h.socket, policy.clone())).or_default() += oe - os;
                        cur = oe;
                    }
                }
                if cur < w.end_ns {
                    *lr.caused
                        .entry((HANDOFF_TENANT, policy.clone()))
                        .or_default() += w.end_ns - cur;
                }
            }

            // Convoy sweep: +1 at each wait start, -1 at each end; a
            // window opens when the depth crosses CONVOY_MIN_WAITERS.
            let mut edges: Vec<(u64, i64)> = Vec::with_capacity(l.waits.len() * 2);
            for w in &l.waits {
                edges.push((w.start_ns, 1));
                edges.push((w.end_ns, -1));
            }
            edges.sort_unstable();
            let mut depth: i64 = 0;
            let mut opened_at: Option<u64> = None;
            for (ts, delta) in edges {
                depth += delta;
                lr.peak_waiters = lr.peak_waiters.max(depth.max(0) as u64);
                match opened_at {
                    None if depth >= CONVOY_MIN_WAITERS as i64 => {
                        lr.convoy_windows += 1;
                        opened_at = Some(ts);
                    }
                    Some(start) if depth < CONVOY_MIN_WAITERS as i64 => {
                        lr.convoy_ns += ts - start;
                        opened_at = None;
                    }
                    _ => {}
                }
            }

            // Chains: every completed wait becomes a collapsed stack of
            // (lock@holder) frames, recursing while the holder itself
            // waits elsewhere.
            for w in &l.waits {
                let mut stack = Vec::new();
                chain_cover(
                    id,
                    w.start_ns,
                    w.end_ns,
                    0,
                    &mut stack,
                    &holds_by_lock,
                    &waits_by_tid,
                    &cfg,
                    &mut report.chains,
                    &mut report.max_chain_depth,
                );
            }

            report.locks.insert(id, lr);
        }
        report
    }
}

/// Attribute the window `[s, e)` of a wait on `lock` to blocking-chain
/// stacks, recursing into the holder's own waits. Every nanosecond of the
/// window lands in exactly one stack.
#[allow(clippy::too_many_arguments)] // internal recursion, not API
fn chain_cover(
    lock: u64,
    s: u64,
    e: u64,
    depth: u32,
    stack: &mut Vec<String>,
    holds_by_lock: &BTreeMap<u64, Vec<HoldSegment>>,
    waits_by_tid: &BTreeMap<u64, Vec<(u64, u64, u64)>>,
    cfg: &AnalyzeConfig,
    out: &mut BTreeMap<String, u64>,
    max_depth: &mut u32,
) {
    let add = |out: &mut BTreeMap<String, u64>, stack: &[String], ns: u64| {
        if ns > 0 {
            *out.entry(stack.join(";")).or_default() += ns;
        }
    };
    let name = cfg.lock_name(lock);
    let empty = Vec::new();
    let holds = holds_by_lock.get(&lock).unwrap_or(&empty);
    let mut cur = s;
    for h in holds {
        if h.end_ns <= cur {
            continue;
        }
        if h.start_ns >= e {
            break;
        }
        let os = h.start_ns.max(cur);
        let oe = h.end_ns.min(e);
        if oe <= os {
            continue;
        }
        if os > cur {
            // No observed holder for [cur, os): a handoff frame.
            stack.push(format!("{name}@handoff"));
            add(out, stack, os - cur);
            stack.pop();
        }
        stack.push(format!("{name}@tid{}", h.tid));
        *max_depth = (*max_depth).max(depth + 1);
        let mut covered_deeper = false;
        if depth + 1 < MAX_CHAIN_DEPTH {
            if let Some(wlist) = waits_by_tid.get(&h.tid) {
                let mut c2 = os;
                for (wlock, ws, we) in wlist {
                    if *wlock == lock || *we <= c2 || *ws >= oe {
                        continue;
                    }
                    let is = (*ws).max(c2);
                    let ie = (*we).min(oe);
                    if ie <= is {
                        continue;
                    }
                    add(out, stack, is - c2);
                    chain_cover(
                        *wlock,
                        is,
                        ie,
                        depth + 1,
                        stack,
                        holds_by_lock,
                        waits_by_tid,
                        cfg,
                        out,
                        max_depth,
                    );
                    c2 = ie;
                    covered_deeper = true;
                }
                if covered_deeper {
                    add(out, stack, oe - c2);
                }
            }
        }
        if !covered_deeper {
            add(out, stack, oe - os);
        }
        stack.pop();
        cur = oe;
    }
    if cur < e {
        stack.push(format!("{name}@handoff"));
        add(out, stack, e - cur);
        stack.pop();
    }
}

/// One-shot offline analysis of a `(ts, cpu, seq)`-ordered event stream.
pub fn analyze(events: &[TraceEvent], cfg: AnalyzeConfig) -> Report {
    let mut a = Analyzer::new(cfg);
    a.observe_all(events);
    a.finish()
}

// ---------------------------------------------------------------------------
// Continuous mode

static CONTINUOUS_ARMED: AtomicBool = AtomicBool::new(false);

/// Is the continuous analyzer armed? One relaxed load, same contract as
/// [`crate::armed`].
#[inline]
pub fn continuous_armed() -> bool {
    CONTINUOUS_ARMED.load(Ordering::Relaxed)
}

/// Arm or disarm the continuous analyzer. Arming alone costs nothing on
/// lock paths; windows only advance when [`Continuous::step`] is called
/// (from a control-plane thread, never from a lock path).
pub fn set_continuous_armed(on: bool) {
    CONTINUOUS_ARMED.store(on, Ordering::SeqCst);
}

/// The bounded-memory windowed aggregator behind continuous mode. Each
/// [`Continuous::step`] drains the global plane, analyzes the batch as
/// one window, publishes top-K contended-lock gauges into the global
/// metrics registry, and resets — memory use is bounded by the window's
/// caps regardless of uptime.
pub struct Continuous {
    inner: Mutex<ContinuousInner>,
}

struct ContinuousInner {
    cfg: AnalyzeConfig,
    windows: u64,
}

impl Continuous {
    fn new() -> Continuous {
        Continuous {
            inner: Mutex::new(ContinuousInner {
                cfg: AnalyzeConfig {
                    // Windowed use wants tight caps, not full-trace fidelity.
                    max_locks: 256,
                    max_intervals: 4096,
                    max_pending: 1024,
                    ..AnalyzeConfig::default()
                },
                windows: 0,
            }),
        }
    }

    /// Replace the window configuration (lock names, top-K, caps).
    pub fn configure(&self, cfg: AnalyzeConfig) {
        self.inner.lock().unwrap().cfg = cfg;
    }

    /// Advance one window if armed: drain the plane, analyze, publish
    /// gauges. Returns the window's report, or `None` when disarmed.
    pub fn step(&self) -> Option<Report> {
        if !continuous_armed() {
            return None;
        }
        let mut inner = self.inner.lock().unwrap();
        let events = crate::drain();
        let report = analyze(&events, inner.cfg.clone());
        inner.windows += 1;

        let m = crate::metrics();
        m.counter("c3_analyze_windows_total").inc();
        m.counter("c3_analyze_events_total").add(report.events);
        m.gauge("c3_analyze_window_wait_ns")
            .set(report.total_wait_ns().min(i64::MAX as u64) as i64);
        m.gauge("c3_analyze_exact").set(i64::from(report.exact()));
        crate::sync_dropped_counter();
        let top = report.top_waits(inner.cfg.top_k);
        for rank in 0..inner.cfg.top_k {
            let (id, wait) = top.get(rank).map(|(id, _, w)| (*id, *w)).unwrap_or((0, 0));
            m.gauge(&format!("c3_analyze_top{rank}_lock_id"))
                .set(id.min(i64::MAX as u64) as i64);
            m.gauge(&format!("c3_analyze_top{rank}_wait_ns"))
                .set(wait.min(i64::MAX as u64) as i64);
        }
        Some(report)
    }

    /// Windows analyzed since process start.
    pub fn windows(&self) -> u64 {
        self.inner.lock().unwrap().windows
    }
}

/// The global continuous analyzer, created on first touch.
pub fn continuous() -> &'static Continuous {
    static C: OnceLock<Continuous> = OnceLock::new();
    C.get_or_init(Continuous::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, ts: u64, seq: u64, a: u64, b: u64, c: u64, d: u64) -> TraceEvent {
        let mut e = TraceEvent::new(kind, ts, 0, a, b, c, d);
        e.seq = seq;
        e
    }

    /// One holder (tid 1) holds [10, 50); waiter tid 2 waits [20, 50).
    fn simple_stream() -> Vec<TraceEvent> {
        vec![
            ev(EventKind::LockAcquire, 10, 0, 7, 1, 0, 0),
            ev(EventKind::LockAcquired, 10, 1, 7, 1, 0, 1),
            ev(EventKind::LockAcquire, 20, 2, 7, 2, 3, 1),
            ev(EventKind::LockContended, 20, 3, 7, 2, 3, 1),
            ev(EventKind::LockRelease, 50, 4, 7, 1, 0, 1),
            ev(EventKind::LockAcquired, 50, 5, 7, 2, 3, 2),
            ev(EventKind::LockRelease, 60, 6, 7, 2, 3, 2),
        ]
    }

    #[test]
    fn blame_conservation_simple() {
        let r = analyze(&simple_stream(), AnalyzeConfig::default());
        assert!(r.exact(), "clean stream must analyze exactly");
        assert!(r.conservation_holds());
        let l = &r.locks[&7];
        assert_eq!(l.wait_ns, 30);
        assert_eq!(l.completed_waits, 1);
        assert_eq!(l.hold_ns, 40 + 10);
        // All 30ns of wait were caused by tid 1's hold (socket/tenant 0).
        assert_eq!(l.caused[&(0, UNPATCHED.to_string())], 30);
        assert_eq!(l.suffered[&(3, UNPATCHED.to_string())], 30);
    }

    #[test]
    fn uncovered_wait_goes_to_handoff() {
        // Waiter waits [20, 60) but the holder releases at 40: 20ns of
        // the wait have no observed holder.
        let stream = vec![
            ev(EventKind::LockAcquired, 10, 0, 7, 1, 0, 1),
            ev(EventKind::LockContended, 20, 1, 7, 2, 1, 1),
            ev(EventKind::LockRelease, 40, 2, 7, 1, 0, 1),
            ev(EventKind::LockAcquired, 60, 3, 7, 2, 1, 2),
            ev(EventKind::LockRelease, 70, 4, 7, 2, 1, 2),
        ];
        let r = analyze(&stream, AnalyzeConfig::default());
        assert!(r.conservation_holds());
        let l = &r.locks[&7];
        assert_eq!(l.wait_ns, 40);
        assert_eq!(l.caused[&(0, UNPATCHED.to_string())], 20);
        assert_eq!(l.caused[&(HANDOFF_TENANT, UNPATCHED.to_string())], 20);
    }

    #[test]
    fn gap_between_two_holders_goes_to_handoff() {
        // tid2 waits [5, 60); holder tid1 covers [0, 20), tid3 covers
        // [30, 50) — the gaps [20, 30) and [50, 60) are handoff time.
        let stream = vec![
            ev(EventKind::LockAcquired, 0, 0, 7, 1, 0, 1),
            ev(EventKind::LockContended, 5, 1, 7, 2, 1, 1),
            ev(EventKind::LockRelease, 20, 2, 7, 1, 0, 1),
            ev(EventKind::LockAcquired, 30, 3, 7, 3, 2, 3),
            ev(EventKind::LockRelease, 50, 4, 7, 3, 2, 3),
            ev(EventKind::LockAcquired, 60, 5, 7, 2, 1, 2),
            ev(EventKind::LockRelease, 65, 6, 7, 2, 1, 2),
        ];
        let r = analyze(&stream, AnalyzeConfig::default());
        assert!(r.conservation_holds());
        let l = &r.locks[&7];
        assert_eq!(l.wait_ns, 55);
        assert_eq!(l.caused[&(0, UNPATCHED.to_string())], 15); // [5, 20)
        assert_eq!(l.caused[&(2, UNPATCHED.to_string())], 20); // [30, 50)
        assert_eq!(l.caused[&(HANDOFF_TENANT, UNPATCHED.to_string())], 20);
    }

    #[test]
    fn seq_gap_flags_lower_bound() {
        let mut stream = simple_stream();
        stream[3].seq = 9; // A gap of 6 records on ring 0.
        for e in &mut stream[4..] {
            e.seq += 6;
        }
        let r = analyze(&stream, AnalyzeConfig::default());
        assert_eq!(r.seq_gaps, 6);
        assert!(!r.exact());
        assert!(r.conservation_holds(), "law must survive drops");
    }

    #[test]
    fn release_without_hold_is_an_anomaly_not_a_panic() {
        let stream = vec![ev(EventKind::LockRelease, 5, 0, 7, 1, 0, 0)];
        let r = analyze(&stream, AnalyzeConfig::default());
        assert_eq!(r.anomalies, 1);
        assert!(!r.exact());
    }

    #[test]
    fn chains_cover_total_wait() {
        // tid3 waits on lock 8 held by tid2, while tid2 waits on lock 7
        // held by tid1 — a depth-2 chain.
        let stream = vec![
            ev(EventKind::LockAcquired, 0, 0, 7, 1, 0, 1),
            ev(EventKind::LockAcquired, 0, 1, 8, 2, 0, 2),
            ev(EventKind::LockContended, 10, 2, 7, 2, 0, 1),
            ev(EventKind::LockContended, 10, 3, 8, 3, 0, 2),
            ev(EventKind::LockRelease, 40, 4, 7, 1, 0, 1),
            ev(EventKind::LockAcquired, 40, 5, 7, 2, 0, 2),
            ev(EventKind::LockRelease, 50, 6, 8, 2, 0, 2),
            ev(EventKind::LockAcquired, 50, 7, 8, 3, 0, 3),
            ev(EventKind::LockRelease, 55, 8, 7, 2, 0, 2),
            ev(EventKind::LockRelease, 60, 9, 8, 3, 0, 3),
        ];
        let r = analyze(&stream, AnalyzeConfig::default());
        assert!(r.conservation_holds());
        assert_eq!(r.max_chain_depth, 2);
        // Chain weights partition the total wait exactly.
        let chain_ns: u64 = r.chains.values().sum();
        assert_eq!(chain_ns, r.total_wait_ns());
        assert!(
            r.chains.keys().any(|k| k == "lock8@tid2;lock7@tid1"),
            "expected transitive chain, got {:?}",
            r.chains.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn convoy_detection() {
        // Three waiters overlap on [30, 40).
        let mut stream = vec![ev(EventKind::LockAcquired, 0, 0, 7, 1, 0, 1)];
        for (i, start) in [(2u64, 10u64), (3, 20), (4, 30)] {
            stream.push(ev(EventKind::LockContended, start, i, 7, i, 0, 1));
        }
        stream.push(ev(EventKind::LockRelease, 40, 5, 7, 1, 0, 1));
        for (i, (tid, ts)) in [(2u64, 40u64), (3, 45), (4, 50)].iter().enumerate() {
            stream.push(ev(
                EventKind::LockAcquired,
                *ts,
                6 + i as u64 * 2,
                7,
                *tid,
                0,
                0,
            ));
            stream.push(ev(
                EventKind::LockRelease,
                *ts + 2,
                7 + i as u64 * 2,
                7,
                *tid,
                0,
                0,
            ));
        }
        let r = analyze(&stream, AnalyzeConfig::default());
        let l = &r.locks[&7];
        assert_eq!(l.peak_waiters, 3);
        assert_eq!(l.convoy_windows, 1);
        assert_eq!(l.convoy_ns, 10); // [30, 40)
    }

    #[test]
    fn hook_cost_rollup() {
        let stream = vec![
            ev(EventKind::HookSpan, 10, 0, 7, 1, 10, 100),
            ev(EventKind::HookSpan, 20, 1, 7, 1, 20, 80),
        ];
        let r = analyze(&stream, AnalyzeConfig::default());
        let c = &r.hook_costs[&(7, 1, UNPATCHED.to_string())];
        assert_eq!(c.calls, 2);
        assert_eq!(c.insns, 30);
        assert_eq!(c.est_ns, 2 * HOOK_CALL_NS + 30 * NS_PER_INSN);
        assert_eq!(c.min_budget, 80);
    }

    #[test]
    fn policy_attribution_from_patch_events() {
        let mut cfg = AnalyzeConfig::default();
        cfg.lock_names.insert(7, "mmap_sem".to_string());
        let mut apply = ev(
            EventKind::PatchApply,
            5,
            0,
            fnv64("mmap_sem/cmp_node"),
            1,
            1,
            0,
        );
        apply.set_payload(b"mmap_sem/cmp_node");
        let mut stream = vec![apply];
        stream.extend(simple_stream().into_iter().map(|mut e| {
            e.seq += 1;
            e
        }));
        let r = analyze(&stream, cfg);
        let l = &r.locks[&7];
        let key = l.caused.keys().next().unwrap();
        assert!(
            key.1.starts_with("mmap_sem/"),
            "blame should carry the live patch label, got {:?}",
            key.1
        );
    }

    #[test]
    fn a_patch_record_invalidates_the_cached_label() {
        let mut cfg = AnalyzeConfig::default();
        cfg.lock_names.insert(7, "mmap_sem".to_string());
        let span = |ts, seq| ev(EventKind::HookSpan, ts, seq, 7, 8, 11, 100);
        let mut apply = ev(EventKind::PatchApply, 20, 1, 1, 1, 1, 0);
        apply.set_payload(b"mmap_sem/lock_acquire");
        let stream = vec![
            span(10, 0),
            apply,
            span(30, 2),
            ev(EventKind::PatchRevert, 40, 3, 1, 1, 0, 0),
            span(50, 4),
        ];
        let r = analyze(&stream, cfg);
        // 16-byte label prefix, as the patch record carries it.
        let calls = |policy: &str| r.hook_costs[&(7, 8, policy.to_string())].calls;
        assert_eq!(calls(UNPATCHED), 2);
        assert_eq!(calls("mmap_sem/lock_ac"), 1);
    }

    #[test]
    fn a_first_span_under_a_patch_makes_one_cell() {
        let mut cfg = AnalyzeConfig::default();
        cfg.lock_names.insert(7, "mmap_sem".to_string());
        let mut apply = ev(EventKind::PatchApply, 10, 0, 1, 1, 1, 0);
        apply.set_payload(b"mmap_sem/lock_acquire");
        let stream = vec![apply, ev(EventKind::HookSpan, 20, 1, 7, 8, 11, 100)];
        let r = analyze(&stream, cfg);
        assert_eq!(r.hook_costs.len(), 1);
        assert_eq!(
            r.hook_costs[&(7, 8, "mmap_sem/lock_ac".to_string())].calls,
            1
        );
    }

    #[test]
    fn records_of_one_ring_out_of_seq_order_are_not_drops() {
        // A span stamped at hook entry sorts ahead of the record its
        // policy emitted during the run.
        let stream = vec![
            ev(EventKind::LockAcquired, 10, 0, 7, 1, 0, 1),
            ev(EventKind::HookSpan, 10, 2, 7, 32, 11, 100),
            ev(EventKind::PolicyEmit, 15, 1, 7, 1, 0, 0),
            ev(EventKind::LockRelease, 20, 3, 7, 1, 0, 1),
        ];
        let r = analyze(&stream, AnalyzeConfig::default());
        assert_eq!(r.seq_gaps, 0);
        assert!(r.exact());
    }

    mod cached_policy_differential {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use proptest::sample::select;

        /// Locks 2 and 3 tie on every label cut at 16 bytes; 99 has no name.
        const LOCKS: [u64; 4] = [1, 2, 3, 99];

        fn config() -> AnalyzeConfig {
            let mut cfg = AnalyzeConfig::default();
            for (id, name) in [
                (1, "dcache"),
                (2, "dcache_lru_list_lock"),
                (3, "dcache_lru_list_lockB"),
            ] {
                cfg.lock_names.insert(id, name.to_string());
            }
            cfg
        }

        /// Labels as patch records carry them (at most 16 bytes): exact
        /// tags, a cut tag two locks share, a tag in the middle, one that
        /// matches nothing and the empty label, a prefix of every tag.
        const LABELS: [&str; 7] = [
            "dcache/cmp_node",
            "dcache/lock_acqu",
            "dcache_lru_list_",
            "x/dcache/cmp",
            "dcache",
            "other/cmp_node",
            "",
        ];

        /// `(kind selector, lock, tid or hook bit, patch hash, label, ts step)`
        type Gen = (u8, u64, u64, u64, &'static str, u64);

        fn stream(gen: &[Gen]) -> Vec<TraceEvent> {
            let mut ts = 0;
            gen.iter()
                .zip(0u64..)
                .map(|(&(sel, lock, who, hash, label, step), seq)| {
                    // Steps of 0 keep same-time applies, which tie on `since_ns`.
                    ts += step;
                    let mut e = match sel {
                        0 => ev(EventKind::LockAcquire, ts, seq, lock, who, who % 2, 0),
                        1 => ev(EventKind::LockContended, ts, seq, lock, who, who % 2, 0),
                        2 | 3 => ev(EventKind::LockAcquired, ts, seq, lock, who, who % 2, who),
                        4 => ev(EventKind::LockRelease, ts, seq, lock, who, who % 2, who),
                        5..=7 => ev(EventKind::HookSpan, ts, seq, lock, 8 << (who % 4), 11, 100),
                        8 => ev(EventKind::PatchApply, ts, seq, hash, 1, 1, 0),
                        _ => ev(EventKind::PatchRevert, ts, seq, hash, 1, 0, 0),
                    };
                    if sel == 8 {
                        e.set_payload(label.as_bytes());
                    }
                    e
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The cache is invisible: resolving every record's label
            /// afresh with `policy_label` renders the same report.
            #[test]
            fn cached_labels_render_as_labels_resolved_per_record(
                gen in vec(
                    (
                        0u8..10,
                        select(LOCKS.to_vec()),
                        1u64..4,
                        0u64..3,
                        select(LABELS.to_vec()),
                        0u64..3,
                    ),
                    0..200,
                ),
            ) {
                let events = stream(&gen);
                let mut cached = Analyzer::new(config());
                cached.observe_all(&events);
                let mut reference = Analyzer::new(config());
                for e in &events {
                    reference.patch_gen += 1;
                    reference.observe_all(std::slice::from_ref(e));
                }
                let cached = cached.finish();
                // A cell exists only for spans it counted.
                prop_assert!(cached.hook_costs.values().all(|c| c.calls > 0));
                prop_assert_eq!(cached.render(), reference.finish().render());
            }
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let stream = simple_stream();
        let a = analyze(&stream, AnalyzeConfig::default());
        let b = analyze(&stream, AnalyzeConfig::default());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn caps_truncate_instead_of_growing() {
        let cfg = AnalyzeConfig {
            max_locks: 1,
            ..AnalyzeConfig::default()
        };
        let stream = vec![
            ev(EventKind::LockAcquire, 1, 0, 7, 1, 0, 0),
            ev(EventKind::LockAcquire, 2, 1, 8, 1, 0, 0),
        ];
        let r = analyze(&stream, cfg);
        assert_eq!(r.locks.len(), 1);
        assert!(r.truncated > 0);
        assert!(!r.exact());
    }

    #[test]
    fn pending_and_interval_caps_truncate_exactly() {
        let cfg = AnalyzeConfig {
            max_intervals: 64,
            ..AnalyzeConfig::default()
        };
        let mut stream = Vec::new();
        let mut push = |kind, lock, tid| {
            let seq = stream.len() as u64;
            stream.push(ev(kind, seq, seq, lock, tid, tid % 2, tid));
        };
        // 4 097 waiters queue on lock 7 at once: the last one is over
        // the 4 096 pending cap. A second contended from a waiter already
        // queued is an anomaly, not a truncation, even at the cap.
        for tid in 1..=4_097 {
            push(EventKind::LockContended, 7, tid);
        }
        push(EventKind::LockContended, 7, 5);
        // A hundred of them get the lock and leave: 64 waits and 64 holds
        // fit the interval cap, 36 of each do not.
        for tid in 1..=100 {
            push(EventKind::LockAcquired, 7, tid);
            push(EventKind::LockRelease, 7, tid);
        }
        // The waiter turned away at the cap queues again, now below it.
        push(EventKind::LockContended, 7, 4_097);
        // 4 097 holders on lock 8, never released.
        for tid in 1..=4_097 {
            push(EventKind::LockAcquired, 8, tid);
        }
        let r = analyze(&stream, cfg);
        assert_eq!(r.truncated, 1 + 36 + 36 + 1);
        assert_eq!(r.anomalies, 1);
        assert_eq!(r.open_waits, 4_096 - 100 + 1);
        assert_eq!(r.open_holds, 4_096);
        assert_eq!(r.locks[&7].completed_waits, 64);
        assert_eq!(r.locks[&7].contended, 4_099);
        assert_eq!(r.locks[&8].acquired, 4_097);
        assert!(r.conservation_holds());
    }

    #[test]
    fn filter_predicates() {
        let e = ev(EventKind::LockAcquired, 100, 0, 7, 1, 0, 0);
        assert!(EventFilter::default().admits(&e));
        assert!(!EventFilter {
            since_ns: Some(101),
            ..Default::default()
        }
        .admits(&e));
        assert!(!EventFilter {
            lock: Some(8),
            ..Default::default()
        }
        .admits(&e));
        assert!(EventFilter {
            kind: Some(EventKind::LockAcquired),
            ..Default::default()
        }
        .admits(&e));
    }

    #[test]
    fn read_trace_roundtrip_and_truncation() {
        let stream = simple_stream();
        let mut bytes = Vec::new();
        for e in &stream {
            bytes.extend_from_slice(&e.to_bytes());
        }
        assert_eq!(read_trace(&bytes).unwrap(), stream);
        assert_eq!(
            read_trace(&bytes[..bytes.len() - 1]),
            Err(TraceParseError::Truncated {
                len: bytes.len() - 1
            })
        );
        bytes[6 * 8] = 0xff; // Corrupt record 0's kind word.
        assert_eq!(
            read_trace(&bytes),
            Err(TraceParseError::BadRecord { index: 0 })
        );
    }
}
