//! Parallel, deterministic sweep runner shared by the figure binaries.
//!
//! Every sweep point — one (thread-count × series × seed) DES run — is an
//! independent single-threaded simulation: all state lives behind the
//! simulator's own `Rc`s, and a point's value depends only on its inputs.
//! Points can therefore be computed on separate worker threads and
//! reassembled by input index, producing output byte-identical to a serial
//! run while the wall clock drops by roughly the host core count.
//!
//! Workers pull point indices from a shared atomic counter (work stealing
//! by index), so a slow point — high thread counts simulate more events —
//! does not stall the queue behind it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-thread count: `C3_BENCH_WORKERS` if set, otherwise the host's
/// available parallelism. Always at least 1.
pub fn workers() -> usize {
    std::env::var("C3_BENCH_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Runs `point` over every element of `points` on up to `workers` threads
/// and returns the results in input order, regardless of completion order.
///
/// # Panics
///
/// Propagates a panic from any worker (the sweep is aborted).
pub fn run_points_with<P, R, F>(points: &[P], workers: usize, point: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let workers = workers.clamp(1, points.len().max(1));
    if workers == 1 {
        return points.iter().map(&point).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = points.get(i) else { break };
                        got.push((i, point(p)));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = Vec::with_capacity(points.len());
    out.resize_with(points.len(), || None);
    for (i, r) in parts.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every point computed"))
        .collect()
}

/// [`run_points_with`] using the [`workers`] default.
pub fn run_points<P, R, F>(points: &[P], point: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    run_points_with(points, workers(), point)
}

/// One figure sweep: for every thread count and every series index in
/// `0..n_series`, runs `point(threads, series, seed)` for each seed and
/// averages, fanning all individual runs across the worker pool. Returns
/// `(threads, per-series averages)` rows in thread-count order.
///
/// The seed average uses the same left-to-right summation as the previous
/// serial loops, so the emitted CSVs are bit-identical.
pub fn sweep_rows<F>(
    threads: &[u32],
    n_series: usize,
    seeds: &[u64],
    point: F,
) -> Vec<(u32, Vec<f64>)>
where
    F: Fn(u32, usize, u64) -> f64 + Sync,
{
    let mut points = Vec::with_capacity(threads.len() * n_series * seeds.len());
    for &n in threads {
        for s in 0..n_series {
            for &sd in seeds {
                points.push((n, s, sd));
            }
        }
    }
    let vals = run_points(&points, |&(n, s, sd)| point(n, s, sd));
    let mut it = vals.into_iter();
    threads
        .iter()
        .map(|&n| {
            let row = (0..n_series)
                .map(|_| seeds.iter().map(|_| it.next().unwrap()).sum::<f64>() / seeds.len() as f64)
                .collect();
            (n, row)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let points: Vec<u64> = (0..97).collect();
        for workers in [1, 2, 7] {
            let out = run_points_with(&points, workers, |&p| p * p);
            assert_eq!(out, points.iter().map(|p| p * p).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        // Float math per point, compared exactly: reassembly must not
        // change any value or its position.
        let points: Vec<(u32, u64)> = (1..40).map(|i| (i, u64::from(i) * 7)).collect();
        let f = |&(n, sd): &(u32, u64)| (f64::from(n) * 0.1).sin() + sd as f64 / 3.0;
        let serial = run_points_with(&points, 1, f);
        let parallel = run_points_with(&points, 5, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_points_are_fine() {
        let out: Vec<u32> = run_points_with(&[] as &[u32], 4, |&p| p);
        assert!(out.is_empty());
    }

    #[test]
    fn sweep_rows_averages_seeds_in_order() {
        let rows = sweep_rows(&[1, 2], 2, &[10, 20], |n, s, sd| {
            f64::from(n) * 100.0 + s as f64 * 10.0 + sd as f64
        });
        assert_eq!(
            rows,
            vec![(1, vec![115.0, 125.0]), (2, vec![215.0, 225.0]),]
        );
    }

    #[test]
    fn real_simulations_are_deterministic_across_workers() {
        // A tiny DES run per point: the actual property the figure
        // binaries rely on.
        let run = |seed: u64| {
            let sim = ksim::SimBuilder::new().seed(seed).build();
            for cpu in 0..4u32 {
                sim.spawn_on(ksim::CpuId(cpu), move |t| async move {
                    for _ in 0..20 {
                        t.advance(10 + t.rng_u64() % 31).await;
                    }
                });
            }
            sim.run().trace_hash
        };
        let points: Vec<u64> = (0..12).collect();
        let serial = run_points_with(&points, 1, |&sd| run(sd));
        let parallel = run_points_with(&points, 4, |&sd| run(sd));
        assert_eq!(serial, parallel);
    }
}
