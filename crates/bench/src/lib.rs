//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5), plus the §3 use-case ablations.
//!
//! Each figure binary sweeps thread counts on the simulated 8-socket,
//! 80-core machine and emits a markdown table plus a CSV under `results/`.
//! See `EXPERIMENTS.md` for the index and the paper-vs-measured record.
//!
//! | Binary               | Paper artifact |
//! |----------------------|----------------|
//! | `fig2a_page_fault2`  | Fig. 2(a): Stock vs BRAVO vs Concord-BRAVO |
//! | `fig2b_lock2`        | Fig. 2(b): Stock vs ShflLock vs Concord-ShflLock |
//! | `fig2c_hashtable`    | Fig. 2(c): normalized Concord-ShflLock overhead |
//! | `table1_api_hazards` | Table 1: per-hook cost + hazard demonstration |
//! | `usecases`           | §3 use cases: inheritance, priority, SCL, AMP, parking, profiling |

pub mod hashtable;
pub mod report;
pub mod sweep;
pub mod workloads;

/// Thread counts swept by the figures, matching the paper's x-axis.
pub const SWEEP: &[u32] = &[1, 2, 4, 8, 10, 20, 30, 40, 50, 60, 70, 80];

/// Thread counts to actually sweep: `C3_BENCH_THREADS` (comma-separated)
/// overrides the paper's x-axis, e.g. `C3_BENCH_THREADS=8` for a smoke
/// run regenerating one point per figure (`scripts/smoke.sh`).
pub fn sweep_threads() -> Vec<u32> {
    match std::env::var("C3_BENCH_THREADS") {
        Ok(s) => {
            let v: Vec<u32> = s.split(',').filter_map(|t| t.trim().parse().ok()).collect();
            assert!(!v.is_empty(), "C3_BENCH_THREADS has no valid thread counts");
            v
        }
        Err(_) => SWEEP.to_vec(),
    }
}

/// Virtual milliseconds each configuration runs for.
///
/// `C3_BENCH_WINDOW_MS` pins the window (smoke runs use 1); the default
/// keeps a full figure under a few minutes on a small host. A value that
/// does not parse panics, like a bad `C3_BENCH_THREADS`, rather than
/// silently running the default.
pub fn run_window_ms() -> u64 {
    match std::env::var("C3_BENCH_WINDOW_MS") {
        Ok(ms) => match ms.trim().parse::<u64>() {
            Ok(v) => v.max(1),
            Err(_) => panic!("C3_BENCH_WINDOW_MS is not a number of milliseconds: {ms:?}"),
        },
        Err(_) => 3,
    }
}
