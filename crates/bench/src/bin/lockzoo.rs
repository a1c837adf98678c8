//! Scalability comparison of the full simulated lock zoo — the background
//! §2.2 story ("Locks: Past, Present, and Future?") as one sweep: TAS
//! collapses, ticket is fair but bounces one line, MCS scales, the shuffle
//! lock with the NUMA policy batches sockets.

use std::rc::Rc;

use c3_bench::sweep::sweep_rows;
use c3_bench::workloads::{contended_counts, SimMutex};
use c3_bench::{report::Report, run_window_ms, sweep_threads};
use ksim::SimBuilder;
use simlocks::{NativePolicy, SimMcsLock, SimShflLock, SimTasLock, SimTicketLock};

/// The series, in column order.
const KINDS: [&str; 5] = ["tas", "ticket", "mcs", "shfl_fifo", "shfl_numa"];

/// One point: the contended-lock loop on the lock `kind` names; returns
/// acquisitions per virtual millisecond.
fn run(kind: &str, threads: u32, window_ns: u64, seed: u64) -> f64 {
    let sim = SimBuilder::new().seed(seed).build();
    let lock = match kind {
        "tas" => SimMutex::Tas(SimTasLock::new(&sim)),
        "ticket" => SimMutex::Ticket(SimTicketLock::new(&sim)),
        "mcs" => SimMutex::Mcs(SimMcsLock::new(&sim)),
        "shfl_fifo" => SimMutex::Shfl(SimShflLock::new(&sim)),
        "shfl_numa" => {
            let l = SimShflLock::new(&sim);
            l.set_policy(Rc::new(NativePolicy::numa_aware()));
            SimMutex::Shfl(l)
        }
        other => panic!("unknown lock kind {other}"),
    };
    let ops: u64 = contended_counts(&sim, lock, threads, window_ns)
        .iter()
        .sum();
    ops as f64 / (window_ns as f64 / 1e6)
}

/// The report over `threads` at the figure's seed.
fn zoo_report(threads: &[u32], window_ns: u64) -> Report {
    let mut report = Report::new("Lock zoo scalability", "ops/msec", &KINDS);
    let rows = sweep_rows(threads, KINDS.len(), &[42], |n, k, sd| {
        run(KINDS[k], n, window_ns, sd)
    });
    for (n, row) in rows {
        report.push(n, row);
    }
    report
}

fn main() {
    let report = zoo_report(&sweep_threads(), run_window_ms() * 1_000_000);
    for (n, row) in report.rows() {
        eprintln!(
            "threads={n:<3} tas={:>8.0} ticket={:>8.0} mcs={:>8.0} shfl={:>8.0} shfl_numa={:>8.0}",
            row[0], row[1], row[2], row[3], row[4]
        );
    }
    println!("{}", report.to_markdown());
    match report.save_csv("lockzoo") {
        Ok(p) => eprintln!("csv: {}", p.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed figure's first rows (seed 42, the default 3 ms
    /// window) come out of the shared contended-lock loop unchanged.
    #[test]
    fn committed_rows_repeat() {
        const COMMITTED: &str = include_str!("../../../../results/lockzoo.csv");
        let want: String = COMMITTED
            .lines()
            .take(5)
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(zoo_report(&[1, 2, 4, 8], 3_000_000).to_csv(), want);
    }
}
