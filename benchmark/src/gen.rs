//! Seeded input generators. Every input a workload feeds the program is
//! drawn here from `--seed`; the program itself sees only these values.

use ksim::SplitMix64;
use locks::hooks::{CmpNodeCtx, NodeView};

/// Hook contexts `hook_fire` cycles through.
pub const CTX_COUNT: usize = 4_096;
/// Cores per socket of the paper's 8 × 10 machine.
const CORES_PER_SOCKET: u32 = 10;
const CPUS: u32 = 80;

/// An independent stream per (seed, purpose) pair, so adding a generator
/// never shifts the values another one draws.
pub fn stream(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn node(rng: &mut SplitMix64, cpu: u32) -> NodeView {
    NodeView {
        tid: 1 + rng.next_u64() % 4_096,
        cpu,
        socket: cpu / CORES_PER_SOCKET,
        prio: (rng.next_u64() % 40) as i64 - 20,
        cs_hint: rng.next_u64() % 10_000,
        held_locks: (rng.next_u64() % 4) as u32,
        wait_start_ns: rng.next_u64() % 1_000_000,
    }
}

/// [`CTX_COUNT`] `(shuffler, curr)` views, about half of them on one
/// socket, so the NUMA policy takes both branches.
pub fn ctx_array(seed: u64, lock_id: u64) -> Vec<CmpNodeCtx> {
    let mut rng = stream(seed, 1);
    (0..CTX_COUNT)
        .map(|_| {
            let shuffler_cpu = (rng.next_u64() % u64::from(CPUS)) as u32;
            let curr_cpu = if rng.next_u64().is_multiple_of(2) {
                let base = shuffler_cpu / CORES_PER_SOCKET * CORES_PER_SOCKET;
                base + (rng.next_u64() % u64::from(CORES_PER_SOCKET)) as u32
            } else {
                (rng.next_u64() % u64::from(CPUS)) as u32
            };
            CmpNodeCtx {
                lock_id,
                shuffler: node(&mut rng, shuffler_cpu),
                curr: node(&mut rng, curr_cpu),
            }
        })
        .collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

/// `count` distinct tenant ids below `tenants`.
pub fn tenant_delta(rng: &mut SplitMix64, tenants: u64, count: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let t = rng.next_u64() % tenants;
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(ctxs: &[CmpNodeCtx]) -> String {
        format!("{ctxs:?}")
    }

    #[test]
    fn same_seed_same_ctx_array_and_other_seed_differs() {
        assert_eq!(fingerprint(&ctx_array(7, 1)), fingerprint(&ctx_array(7, 1)));
        assert_ne!(fingerprint(&ctx_array(7, 1)), fingerprint(&ctx_array(8, 1)));
    }

    #[test]
    fn ctx_array_mixes_same_and_cross_socket_pairs() {
        let ctxs = ctx_array(3, 1);
        assert_eq!(ctxs.len(), CTX_COUNT);
        let same = ctxs
            .iter()
            .filter(|c| c.curr.socket == c.shuffler.socket)
            .count();
        assert!(
            same > CTX_COUNT / 3 && same < CTX_COUNT * 3 / 4,
            "same-socket share {same}"
        );
        assert!(ctxs
            .iter()
            .all(|c| c.curr.cpu < CPUS && c.shuffler.cpu < CPUS));
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(&mut stream(5, 2), 24);
        assert_eq!(a, permutation(&mut stream(5, 2), 24));
        assert_ne!(a, permutation(&mut stream(6, 2), 24));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn tenant_delta_is_seeded_distinct_and_in_range() {
        let a = tenant_delta(&mut stream(9, 3), 50_000, 24);
        assert_eq!(a, tenant_delta(&mut stream(9, 3), 50_000, 24));
        assert_ne!(a, tenant_delta(&mut stream(10, 3), 50_000, 24));
        let mut d = a.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 24);
        assert!(a.iter().all(|t| *t < 50_000));
    }
}
