//! `des_figures`: wall-clock per figure point — one `run_lock2`,
//! `run_hashtable` or `run_page_fault2` call of the figure binaries, run
//! serially (no sweep pool).

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use c3_bench::workloads::{
    run_hashtable, run_lock2, run_page_fault2, HtSeries, RwSeries, SpinSeries,
};
use concord::{policies, Concord};
use ksim::{SimBuilder, SimStats, SplitMix64};
use simlocks::policy::SimPolicy;

use crate::gen;
use crate::sim_replica;
use crate::stats::time_ns;
use crate::trace::Tracer;
use crate::workload::{Metrics, Phase, Workload, ROOT};

/// Virtual window of one point, as the figure binaries default to.
const WINDOW_NS: u64 = 3_000_000;
/// Seeds the committed figures average over; the first three cycles of a
/// fixture use them so their values can be held against `results/*.csv`.
const FIGURE_SEEDS: [u64; 3] = [42, 43, 44];
/// Every this many ops the point is run again and must repeat bit for bit.
const REPLAY_EVERY: u64 = 32;

const FIG2A: &str = include_str!("../../results/fig2a_page_fault2.csv");
const FIG2B: &str = include_str!("../../results/fig2b_lock2.csv");
const FIG2C: &str = include_str!("../../results/fig2c_hashtable.csv");

#[derive(Clone, Copy)]
enum Kind {
    Lock2(SpinSeries),
    Hashtable(HtSeries),
    PageFault2(RwSeries),
}

/// One series: its name in metric names, the span its points run under,
/// the thread counts measured, and where the committed figure holds it.
struct Series {
    name: &'static str,
    span: &'static str,
    kind: Kind,
    threads: &'static [u32],
    csv: Option<(&'static str, usize)>,
}

const SPIN_THREADS: &[u32] = &[8, 40, 80];
/// 80-thread page_fault2 points cost nine lock2 points each and would be
/// close to half of the wall alone.
const RW_THREADS: &[u32] = &[8, 40];

#[rustfmt::skip]
const SERIES: [Series; 9] = [
    Series { name: "stock_mcs", span: "simlocks.stock_mcs", kind: Kind::Lock2(SpinSeries::StockMcs), threads: SPIN_THREADS, csv: Some((FIG2B, 1)) },
    Series { name: "shfl_numa", span: "simlocks.shfl_numa", kind: Kind::Lock2(SpinSeries::ShflNuma), threads: SPIN_THREADS, csv: Some((FIG2B, 2)) },
    Series { name: "concord_shfl_numa", span: "simlocks.concord_shfl_numa", kind: Kind::Lock2(SpinSeries::ConcordShflNuma), threads: SPIN_THREADS, csv: Some((FIG2B, 3)) },
    Series { name: "ht_baseline", span: "simlocks.ht_baseline", kind: Kind::Hashtable(HtSeries::Baseline), threads: SPIN_THREADS, csv: Some((FIG2C, 1)) },
    Series { name: "ht_concord_noop", span: "simlocks.ht_concord_noop", kind: Kind::Hashtable(HtSeries::ConcordNoop), threads: SPIN_THREADS, csv: Some((FIG2C, 2)) },
    // The committed figure has no column for the contained series; it is
    // replay-checked only.
    Series { name: "ht_contained", span: "simlocks.ht_contained", kind: Kind::Hashtable(HtSeries::ConcordNoopContained), threads: SPIN_THREADS, csv: None },
    Series { name: "rw_stock", span: "simlocks.rw_stock", kind: Kind::PageFault2(RwSeries::Stock), threads: RW_THREADS, csv: Some((FIG2A, 1)) },
    Series { name: "rw_bravo", span: "simlocks.rw_bravo", kind: Kind::PageFault2(RwSeries::Bravo), threads: RW_THREADS, csv: Some((FIG2A, 2)) },
    Series { name: "rw_concord_bravo", span: "simlocks.rw_concord_bravo", kind: Kind::PageFault2(RwSeries::ConcordBravo), threads: RW_THREADS, csv: Some((FIG2A, 3)) },
];

/// `(series index, threads)` of every point of a cycle, in series order.
fn points() -> Vec<(usize, u32)> {
    SERIES
        .iter()
        .enumerate()
        .flat_map(|(s, series)| series.threads.iter().map(move |t| (s, *t)))
        .collect()
}

fn run_point(kind: Kind, threads: u32, seed: u64) -> f64 {
    match kind {
        Kind::Lock2(s) => run_lock2(threads, s, WINDOW_NS, seed),
        Kind::Hashtable(s) => run_hashtable(threads, s, WINDOW_NS, seed),
        Kind::PageFault2(s) => run_page_fault2(threads, s, WINDOW_NS, seed),
    }
}

fn replica_point(kind: Kind, threads: u32, seed: u64) -> (f64, SimStats) {
    match kind {
        Kind::Lock2(s) => sim_replica::lock2(threads, s, WINDOW_NS, seed),
        Kind::Hashtable(s) => sim_replica::hashtable(threads, s, WINDOW_NS, seed),
        Kind::PageFault2(s) => sim_replica::page_fault2(threads, s, WINDOW_NS, seed),
    }
}

/// The committed cell for `threads` in column `col` of a figure CSV.
fn csv_cell(csv: &'static str, threads: u32, col: usize) -> &'static str {
    csv.lines()
        .skip(1)
        .map(|line| line.split(',').collect::<Vec<_>>())
        .find(|cells| cells[0].parse() == Ok(threads))
        .map(|cells| cells[col])
        .unwrap_or_else(|| panic!("committed figure has no row for {threads} threads"))
}

pub struct DesFigures {
    points: Vec<(usize, u32)>,
    seeds: SplitMix64,
    order: SplitMix64,
    cycles: u64,
    ops: u64,
    /// Per figure seed, the value of every point (indexed as `points`).
    golden: Vec<Vec<f64>>,
}

impl DesFigures {
    /// Ops whose seed-averaged value does not format to the committed cell.
    fn csv_mismatches(&self) -> u64 {
        let mut bad = 0;
        for (i, &(s, threads)) in self.points.iter().enumerate() {
            let Some((csv, col)) = SERIES[s].csv else {
                continue;
            };
            // The same left-to-right sum the figure binaries take.
            let mean = self.golden.iter().map(|g| g[i]).sum::<f64>() / FIGURE_SEEDS.len() as f64;
            if format!("{mean:.4}") != csv_cell(csv, threads, col) {
                bad += FIGURE_SEEDS.len() as u64;
            }
        }
        bad
    }
}

impl Workload for DesFigures {
    const NAME: &'static str = "des_figures";
    const MIN_CYCLES: u64 = FIGURE_SEEDS.len() as u64;
    const MINI_CYCLES: u64 = FIGURE_SEEDS.len() as u64;

    fn setup(seed: u64) -> Self {
        let w = DesFigures {
            points: points(),
            seeds: gen::stream(seed, 2),
            order: gen::stream(seed, 3),
            cycles: 0,
            ops: 0,
            golden: Vec::new(),
        };
        // Warm-up: every point once, on a seed no measured cycle uses.
        for &(s, threads) in &w.points {
            black_box(run_point(SERIES[s].kind, threads, 41));
        }
        w
    }

    fn cycle(&mut self, tr: &mut Tracer, phase: &mut Phase) {
        let figure_seed = FIGURE_SEEDS.get(self.cycles as usize).copied();
        let seed = figure_seed.unwrap_or_else(|| self.seeds.next_u64());
        let mut values = vec![0.0; self.points.len()];
        for i in gen::permutation(&mut self.order, self.points.len()) {
            let (s, threads) = self.points[i];
            let series = &SERIES[s];
            tr.begin(ROOT, self.ops);
            let t = Instant::now();
            let v = tr.span(series.span, self.ops, || {
                run_point(series.kind, threads, seed)
            });
            phase.samples.push(t.elapsed().as_nanos() as f64);
            tr.end();
            values[i] = v;
            self.ops += 1;
            phase.ops += 1;
            if self.ops.is_multiple_of(REPLAY_EVERY)
                && run_point(series.kind, threads, seed).to_bits() != v.to_bits()
            {
                phase.failed += 1;
            }
        }
        if figure_seed.is_some() {
            self.golden.push(values);
            if self.golden.len() == FIGURE_SEEDS.len() {
                phase.failed += self.csv_mismatches();
            }
        }
        self.cycles += 1;
    }

    fn layers(&mut self, tr: &Tracer, _traced: &Phase, m: &mut Metrics) {
        let agg = tr.aggregate();
        for (s, series) in SERIES.iter().enumerate() {
            let a = agg[series.span];
            m.set(
                format!("simlocks.point_ms.{}", series.name),
                a.total_ns as f64 / a.count as f64 / 1e6,
            );
            // Virtual throughput of the series' points on the first
            // figure seed: the program's answer, not a speed.
            let virt: Vec<f64> = self
                .points
                .iter()
                .zip(&self.golden[0])
                .filter(|((ps, _), _)| *ps == s)
                .map(|(_, v)| *v)
                .collect();
            m.set(
                format!("simlocks.virt_ops_per_ms.{}", series.name),
                virt.iter().sum::<f64>() / virt.len() as f64,
            );
        }

        // ksim: the same cycle through the replicas, which hand back the
        // simulator's own counters.
        let (mut events, mut transfers, mut wall_ns) = (0u64, 0u64, 0u64);
        for (i, &(s, threads)) in self.points.iter().enumerate() {
            let t = Instant::now();
            let (v, stats) = replica_point(SERIES[s].kind, threads, FIGURE_SEEDS[0]);
            wall_ns += t.elapsed().as_nanos() as u64;
            assert_eq!(
                v.to_bits(),
                self.golden[0][i].to_bits(),
                "replica of {} at {threads} threads diverged from c3_bench",
                SERIES[s].name
            );
            assert!(
                stats.stuck_tasks.is_empty(),
                "stuck tasks in {}",
                SERIES[s].name
            );
            events += stats.events;
            transfers += stats.transfers;
        }
        let virt_ms = (self.points.len() as u64 * WINDOW_NS) as f64 / 1e6;
        m.set("ksim.events", events as f64);
        m.set("ksim.transfers", transfers as f64);
        m.set("ksim.ns_per_event", wall_ns as f64 / events as f64);
        m.set("ksim.events_per_s", events as f64 / (wall_ns as f64 / 1e9));
        m.set("ksim.virt_ms_per_wall_s", virt_ms / (wall_ns as f64 / 1e9));

        // concord: one hook call of the policy the Concord series attach.
        let sim = SimBuilder::new().seed(FIGURE_SEEDS[0]).build();
        let concord = Concord::new();
        let loaded = concord
            .load(policies::numa_aware())
            .expect("prebuilt policy verifies");
        let policy = Rc::new(concord.make_sim_policy(&sim, &[&loaded]));
        let ctx = gen::ctx_array(FIGURE_SEEDS[0], 1)[0];
        m.set(
            "concord.sim_hook_ns",
            time_ns(10_000, || {
                black_box(policy.cmp_node(black_box(&ctx)));
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_is_24_points_over_9_series() {
        let p = points();
        assert_eq!(p.len(), 24);
        assert_eq!(
            p.iter()
                .filter(|(s, _)| SERIES[*s].name.starts_with("rw_"))
                .count(),
            6
        );
    }

    #[test]
    fn committed_cells_are_found_by_thread_count() {
        assert_eq!(csv_cell(FIG2B, 8, 1), "5208.3333");
        assert_eq!(csv_cell(FIG2A, 8, 3), "6192.0000");
    }
}
