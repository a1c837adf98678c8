//! `hook_fire`: one `eval_cmp_node` on a registered ShflLock carrying the
//! paper's NUMA policy, attached the way an operator attaches it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cbpf::helpers::FixedEnv;
use cbpf::interp::{run_with_budget, DEFAULT_BUDGET};
use cbpf::{CtxLayout, ExecTier, Program};
use concord::env::RealEnv;
use concord::{hookctx, policies, BytecodePolicy, Concord, LoadedPolicy};
use livepatch::PatchPoint;
use locks::hooks::{CmpNodeCtx, CmpNodeFn, HookKind};
use locks::ShflLock;

use crate::gen::{self, CTX_COUNT};
use crate::stats::{median, time_each_us, time_ns};
use crate::trace::Tracer;
use crate::workload::{Metrics, Phase, Workload, ROOT};

/// Ops per batch (one timing sample, one root span): about 25 ms, so a
/// ten-second run gives 400 samples and each averages over the short
/// stalls a shared host inflicts.
const BATCH: u64 = 200_000;
/// Warm-up ops of every set-up: far past the jit tier's hot-count
/// crossover, and enough to fill the caches the contexts live in.
const WARMUP_BATCHES: u64 = 10;
const LOCK: &str = "hook_fire";

pub struct HookFire {
    _concord: Concord,
    lock: Arc<ShflLock>,
    loaded: LoadedPolicy,
    ctxs: Vec<CmpNodeCtx>,
    /// What the compiled-in twin of the policy decides on each context.
    expected: Vec<bool>,
    cursor: usize,
    batches: u64,
}

impl HookFire {
    fn batch(&mut self) -> (u64, u64) {
        let hooks = self.lock.hooks();
        let mut failed = 0;
        let t = Instant::now();
        for _ in 0..BATCH {
            let i = self.cursor % CTX_COUNT;
            self.cursor += 1;
            let verdict = hooks.eval_cmp_node(black_box(&self.ctxs[i]));
            failed += u64::from(verdict != self.expected[i]);
        }
        (t.elapsed().as_nanos() as u64, failed)
    }
}

impl Workload for HookFire {
    const NAME: &'static str = "hook_fire";
    const MIN_CYCLES: u64 = 1;
    const MINI_CYCLES: u64 = 10;

    fn setup(seed: u64) -> Self {
        let concord = Concord::new();
        let lock = Arc::new(ShflLock::new());
        concord.registry().register_shfl(LOCK, Arc::clone(&lock));
        let loaded = concord
            .load(policies::numa_aware())
            .expect("prebuilt policy verifies");
        concord
            .attach(LOCK, &loaded)
            .expect("lock is registered and hookable");
        let ctxs = gen::ctx_array(seed, lock.id());
        let native = policies::numa_aware_native();
        let expected = ctxs.iter().map(|c| native(c)).collect();
        let mut w = HookFire {
            _concord: concord,
            lock,
            loaded,
            ctxs,
            expected,
            cursor: 0,
            batches: 0,
        };
        for _ in 0..WARMUP_BATCHES {
            let (_, failed) = w.batch();
            assert_eq!(
                failed, 0,
                "policy disagrees with its native twin during warm-up"
            );
        }
        w
    }

    fn cycle(&mut self, tr: &mut Tracer, phase: &mut Phase) {
        tr.begin(ROOT, self.batches);
        let (ns, failed) = self.batch();
        tr.end();
        self.batches += 1;
        phase.ops += BATCH;
        phase.failed += failed;
        phase.samples.push(ns as f64 / BATCH as f64);
    }

    fn layers(&mut self, _tr: &Tracer, _traced: &Phase, m: &mut Metrics) {
        let hooks = self.lock.hooks();
        let ctxs = &self.ctxs;
        let mut i = 0usize;
        let mut next = move || {
            i += 1;
            &ctxs[i % CTX_COUNT]
        };

        // livepatch: the read side every hook fire pays, the write side
        // every attach pays (on a slot of its own, not the lock's).
        m.set(
            "livepatch.get_ns",
            time_ns(20_000, || drop(black_box(hooks.cmp_node.get()))),
        );
        let installed: Option<CmpNodeFn> = hooks.cmp_node.get().clone();
        let scratch = PatchPoint::new(None::<CmpNodeFn>);
        m.set(
            "livepatch.replace_ns",
            time_ns(2_000, || scratch.replace(installed.clone())),
        );

        // locks: the hook site with nothing in the slot.
        let vacant = ShflLock::new();
        m.set(
            "locks.vacant_eval_ns",
            time_ns(20_000, || {
                black_box(vacant.hooks().eval_cmp_node(black_box(next())));
            }),
        );
        m.set(
            "telemetry.disarmed_emit_ns",
            time_ns(20_000, || {
                telemetry::emit(telemetry::EventKind::CmpNode, black_box(1), 0, 2, 3, 4, 5)
            }),
        );

        // concord: marshalling alone, then the closure a lock would call
        // (marshal + policy run + bookkeeping), outside any patch point.
        m.set(
            "concord.marshal_cmp_node_ns",
            time_ns(20_000, || {
                black_box(hookctx::marshal_cmp_node(black_box(next())));
            }),
        );
        let policy = BytecodePolicy::new(
            self.loaded.prog.clone(),
            HookKind::CmpNode,
            Arc::new(RealEnv::new()),
        );
        let closure = policy.as_cmp_node().expect("policy is bound to cmp_node");
        m.set(
            "concord.closure_cmp_node_ns",
            time_ns(20_000, || {
                black_box(closure(black_box(next())));
            }),
        );
        assert_eq!(policy.stats().1, 0, "verified policy faulted at run time");

        // concord: the control-plane calls around one policy.
        let scratch_concord = Concord::new();
        scratch_concord
            .registry()
            .register_shfl(LOCK, Arc::new(ShflLock::new()));
        let (mut load, mut attach, mut detach) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..200 {
            let t = Instant::now();
            let loaded = scratch_concord
                .load(policies::numa_aware())
                .expect("verifies");
            load.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            let handle = scratch_concord.attach(LOCK, &loaded).expect("attaches");
            attach.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            scratch_concord.detach(handle).expect("top patch reverts");
            detach.push(t.elapsed().as_nanos() as f64);
        }
        m.set("concord.load_us", median(&load) / 1e3);
        m.set("concord.attach_us", median(&attach) / 1e3);
        m.set("concord.detach_us", median(&detach) / 1e3);

        // cbpf: every tier on the policy's own program and contexts, and
        // the load-time stages.
        let prog: Program = self.loaded.prog.program().as_ref().clone();
        let layout = hookctx::cmp_node_layout();
        let mut bufs: Vec<Vec<u8>> = self.ctxs.iter().map(hookctx::marshal_cmp_node).collect();
        tier_probe(m, "numa", &prog, layout, &mut bufs);
        let rules = hookctx::rules_for(HookKind::CmpNode);
        m.set(
            "cbpf.verify_us",
            time_each_us(200, || {
                cbpf::verifier::verify_with_rules(&prog, layout, &rules).expect("verifies")
            }),
        );
        m.set(
            "cbpf.prepare_us",
            time_each_us(200, || drop(black_box(prog.prepare(layout)))),
        );
        let prepared = prog.prepare(layout);
        m.set(
            "cbpf.jit_compile_us",
            time_each_us(200, || drop(black_box(prepared.compile_jit()))),
        );
        m.set(
            "cbpf.wire_seal_us",
            time_each_us(200, || drop(black_box(self.loaded.prog.seal()))),
        );
        let sealed = self.loaded.prog.seal();
        m.set(
            "cbpf.wire_open_us",
            time_each_us(200, || {
                black_box(cbpf::wire::open(&sealed, layout, &rules).expect("own artifact opens"));
            }),
        );
    }

    /// `op_ns_p50` minus the isolated timings of the stages one fire
    /// passes through: the hook site, the patch-point read, the marshal
    /// and the VM tier the attached policy has settled on.
    fn unattributed_ns(
        &self,
        _tr: &Tracer,
        _traced: &Phase,
        untraced_p50: f64,
        m: &Metrics,
    ) -> f64 {
        let tier = if self.loaded.prog.prepared().jit_compiled() {
            "cbpf.run_jit_ns.numa"
        } else {
            "cbpf.run_interp_ns.numa"
        };
        untraced_p50
            - m.expect("locks.vacant_eval_ns")
            - m.expect("livepatch.get_ns")
            - m.expect("concord.marshal_cmp_node_ns")
            - m.expect(tier)
    }
}

/// Times `prog` on every execution tier over `bufs` (marshalled contexts,
/// cycled) and records the instruction count of the longest run.
pub fn tier_probe(
    m: &mut Metrics,
    tag: &str,
    prog: &Program,
    layout: &CtxLayout,
    bufs: &mut [Vec<u8>],
) {
    let env = FixedEnv::new();
    let n = bufs.len();
    let mut i = 0usize;
    // The longest path any of the contexts takes, so the count does not
    // depend on which context happens to come first.
    let insns = bufs
        .iter_mut()
        .map(|buf| {
            run_with_budget(prog, buf, layout, &env, DEFAULT_BUDGET)
                .expect("verified program runs")
                .insns
        })
        .max()
        .expect("at least one context");
    m.set(format!("cbpf.insns.{tag}"), insns as f64);
    m.set(
        format!("cbpf.run_legacy_ns.{tag}"),
        time_ns(10_000, || {
            i += 1;
            black_box(
                run_with_budget(prog, &mut bufs[i % n], layout, &env, DEFAULT_BUDGET)
                    .expect("runs"),
            );
        }),
    );
    let prepared = prog.prepare(layout);
    for (tier, name) in [(ExecTier::Interp, "interp"), (ExecTier::Jit, "jit")] {
        m.set(
            format!("cbpf.run_{name}_ns.{tag}"),
            time_ns(20_000, || {
                i += 1;
                let r = prepared
                    .run_tier(tier, &mut bufs[i % n], &env, DEFAULT_BUDGET)
                    .expect("runs");
                black_box(r);
            }),
        );
    }
}
