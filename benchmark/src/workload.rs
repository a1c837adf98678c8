//! What every workload provides, and the loop that drives it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::median;
use crate::trace::Tracer;

/// Name of the span a workload opens around each op (or each batch, for
/// the two real-thread workloads). Its self time is what no layer claims.
pub const ROOT: &str = "op";

/// One measured phase of a workload.
#[derive(Default)]
pub struct Phase {
    /// Ops attempted.
    pub ops: u64,
    /// Ops the workload's correctness oracle rejected.
    pub failed: u64,
    /// Wall time of the phase: ops, generation of their inputs and checks.
    pub wall_ns: u64,
    /// One sample per batch: batch wall time ÷ ops in the batch, in ns.
    pub samples: Vec<f64>,
    /// Ops per second of each [`RATE_WINDOW`] of the phase.
    pub window_rates: Vec<f64>,
    /// Program-side counts, taken where the harness calls into a layer.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Phase {
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }

    /// Ops completed ÷ wall time: the median over the phase's windows, so
    /// that a burst of interference from outside the process moves it no
    /// more than it moves the median op; over the whole phase when that
    /// was shorter than one window.
    pub fn ops_per_s(&self) -> f64 {
        if self.window_rates.is_empty() {
            self.ops as f64 / (self.wall_ns as f64 / 1e9)
        } else {
            median(&self.window_rates)
        }
    }
}

/// How long a phase runs. Both are rounded up to whole cycles, so every
/// run of a workload executes the same mix of ops.
#[derive(Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Cycles(u64),
}

/// Metric values by name, as measured.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Value of a metric a workload set earlier in the same run.
    pub fn expect(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("metric {name} read before it was measured"))
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Fewest cycles a phase may run (the oracle may need several).
    const MIN_CYCLES: u64;
    /// Cycles of the short traced pass this workload gets when another
    /// workload is the one selected.
    const MINI_CYCLES: u64;

    /// Builds the fixture from `seed` and runs the fixed-count warm-up.
    fn setup(seed: u64) -> Self;

    /// Runs one cycle — a fixed, seed-independent mix of ops — and
    /// records its batches in `phase`.
    fn cycle(&mut self, tr: &mut Tracer, phase: &mut Phase);

    /// Checks that only hold over a whole phase; may add failures.
    fn finish(&mut self, _phase: &mut Phase) {}

    /// Per-layer metrics of the layers this workload exercises: from the
    /// spans of a traced phase and from timing each layer's public
    /// functions in isolation on the workload's own inputs.
    fn layers(&mut self, tr: &Tracer, traced: &Phase, m: &mut Metrics);

    /// Nanoseconds per op that no layer metric accounts for.
    fn unattributed_ns(
        &self,
        tr: &Tracer,
        traced: &Phase,
        _untraced_p50: f64,
        _m: &Metrics,
    ) -> f64 {
        tr.aggregate().get(ROOT).map_or(0, |a| a.self_ns) as f64 / traced.ops as f64
    }
}

/// Shortest stretch of whole cycles whose rate is one sample of
/// `ops_per_s`; long enough to hold the checks between ops in proportion.
const RATE_WINDOW: Duration = Duration::from_millis(500);

/// Runs whole cycles of `w` until `budget` is used up.
pub fn run_phase<W: Workload>(w: &mut W, budget: Budget, tr: &mut Tracer) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut cycles = 0u64;
    let (mut window_start, mut window_ops) = (start, 0);
    loop {
        w.cycle(tr, &mut phase);
        cycles += 1;
        let window = window_start.elapsed();
        if window >= RATE_WINDOW {
            phase
                .window_rates
                .push((phase.ops - window_ops) as f64 / window.as_secs_f64());
            (window_start, window_ops) = (Instant::now(), phase.ops);
        }
        let enough = match budget {
            Budget::Time(d) => start.elapsed() >= d,
            Budget::Cycles(n) => cycles >= n,
        };
        if enough && cycles >= W::MIN_CYCLES {
            break;
        }
    }
    phase.wall_ns = start.elapsed().as_nanos() as u64;
    w.finish(&mut phase);
    phase
}
