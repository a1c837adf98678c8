//! The virtual-time cost model: what the simulator charges for the
//! machinery Concord adds to a lock, and what the analyzer and the
//! chrome exporter estimate a hook span at. It lives here, the lowest
//! crate its readers share (`concord`'s dispatcher and stubs, the
//! figure workloads, [`crate::analyze`], [`crate::export`]).
//!
//! Every value is a fit, not a measurement: it was chosen so the
//! simulated figures take the paper's shape. The measured cost of the
//! same thing is named beside each field.

/// Per-event costs in virtual nanoseconds. [`CostModel::SEED`] is the
/// one value in use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CostModel {
    /// A live-patched lock function entry (redirection through the patch
    /// site, epoch pin, register shuffling), paid on every acquire and
    /// release of a patched lock even when no user code runs: the source
    /// of Fig. 2(c)'s worst case. A fit (45) to the paper's ≈ 0.80; the
    /// measured patched call is 8.8 ns (`patchpoint/patched_call`,
    /// EXPERIMENTS.md).
    pub entry_ns: u64,
    /// The extra cost per read or write entry of a live-switched
    /// readers-writer lock, Fig. 2(a)'s Concord-BRAVO. A fit (30); the
    /// measured patched call is 8.8 ns (`patchpoint/patched_call`).
    pub switched_entry_ns: u64,
    /// One policy invocation at a hook site (indirect call and context
    /// marshalling), and what consulting a vacant patched slot costs.
    /// A fit (15); the measured whole `cmp_node` fire is ≈ 40 ns on a
    /// quiet host, stage by stage in EXPERIMENTS.md "Hook fire cost".
    pub call_ns: u64,
    /// One executed bytecode instruction, as if JIT-compiled (≈ 2×
    /// native). A fit (2); the measured compiled tier runs the NUMA
    /// policy's 5 instructions in 23.0 ns, entry included
    /// (`BENCH_interp.json` `numa_policy`).
    pub insn_ns: u64,
    /// The armed-containment check on a hook invocation: one relaxed
    /// state load plus a counter update. A fit (2); no committed row
    /// times it alone, and the nearest, a vacant hook check (one relaxed
    /// load and a branch), measures 1.5 ns (`locks.vacant_eval_ns` in
    /// EXPERIMENTS.md "Hook fire cost").
    pub breaker_ns: u64,
}

impl CostModel {
    /// The costs every committed figure was produced with.
    pub const SEED: CostModel = CostModel {
        entry_ns: 45,
        switched_entry_ns: 30,
        call_ns: 15,
        insn_ns: 2,
        breaker_ns: 2,
    };

    /// One policy fire that executed `insns` instructions.
    #[inline]
    pub const fn fire_ns(&self, insns: u64) -> u64 {
        self.call_ns + insns * self.insn_ns
    }
}
