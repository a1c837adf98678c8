//! The telemetry clock: monotonic nanoseconds since process start.
//!
//! `locks::now_ns()` delegates here so lock hold/wait profiling and trace
//! timestamps share one epoch. Data-plane emit sites (lock transitions,
//! hook spans) never read this clock implicitly: the real sites pass
//! `now_ns()` and the simulation sites pass `Sim::now()` explicitly. The
//! control-plane sites that have no simulation context in scope (a real
//! lock's livepatch apply, rollout steps) read it directly; a simulator's
//! patch stack stamps its records with `Sim::now()`.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Real monotonic nanoseconds since process start.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
