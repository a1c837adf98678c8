//! The Concord telemetry plane.
//!
//! Everything the framework can *observe* flows through this crate as a
//! single ordered stream of compact binary [`TraceEvent`] records, modeled
//! on the kernel's bpf ringbuf / ftrace pipe:
//!
//! * **lock slow-path transitions** — acquire / contended / acquired /
//!   release, plus the shuffler's per-node decisions, emitted from the
//!   `locks` hook sites;
//! * **hook-dispatch spans** — one per policy invocation, carrying the
//!   prepared program's executed instruction count and remaining budget;
//! * **control-plane transitions** — livepatch apply/revert, breaker
//!   trips, quarantines, rollout steps and fleet transitions;
//! * **policy-emitted events** — user bytecode calls the `trace_emit`
//!   cbpf helper and its bounded payload lands in the same stream.
//!
//! Events go into per-CPU, lock-free, fixed-capacity [`ring::Ring`]s
//! (overwrite-oldest, drops counted) and come out merged in timestamp
//! order. Timestamps come from one [`clock`] abstraction that resolves to
//! real monotonic nanoseconds in the `locks`/`concord` domain and to DES
//! virtual time in `ksim`/`simlocks`, so a simulated trace replays
//! bit-identically for a fixed seed.
//!
//! The whole plane is **disarmed by default**: every emit site guards on
//! [`armed`], a single relaxed atomic load, so the cost of compiled-in
//! telemetry is one predictable branch per site.

pub mod analyze;
pub mod clock;
pub mod event;
pub mod export;
pub mod metrics;
pub mod ring;

pub use analyze::{AnalyzeConfig, Analyzer, EventFilter, Report};
pub use event::{EventKind, TraceEvent, EVENT_BYTES, MAX_PAYLOAD};
pub use metrics::{AtomicHistogram, Counter, Gauge, MetricsRegistry};
pub use ring::{Plane, Ring};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ARMED: AtomicBool = AtomicBool::new(false);
static PLANE: OnceLock<Plane> = OnceLock::new();
static METRICS: OnceLock<MetricsRegistry> = OnceLock::new();

/// Is the global trace plane armed? One relaxed load — this is the only
/// cost telemetry adds to a lock's slow path while tracing is off.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm or disarm the global trace plane.
pub fn set_armed(on: bool) {
    ARMED.store(on, Ordering::SeqCst);
}

/// Arm the plane if the `C3_TRACE` environment variable is set to a
/// truthy value (`1`, `on`, `true`). Returns the resulting armed state.
pub fn arm_from_env() -> bool {
    if let Ok(v) = std::env::var("C3_TRACE") {
        if matches!(v.as_str(), "1" | "on" | "true" | "yes") {
            set_armed(true);
        }
    }
    armed()
}

/// The global trace plane (per-CPU rings), created on first touch.
pub fn plane() -> &'static Plane {
    PLANE.get_or_init(Plane::new)
}

/// The global metrics registry, created on first touch.
pub fn metrics() -> &'static MetricsRegistry {
    METRICS.get_or_init(MetricsRegistry::new)
}

/// Emit a payload-free event into the global plane, if armed.
///
/// The meaning of `a..d` depends on `kind`; see the schema table in
/// DESIGN.md §4.6. `ts_ns` is caller-supplied so that simulation emit
/// sites can pass DES virtual time and real sites can pass
/// `clock::now_ns()` — the plane itself never reads a clock.
#[inline]
pub fn emit(kind: EventKind, ts_ns: u64, cpu: u16, a: u64, b: u64, c: u64, d: u64) {
    if !armed() {
        return;
    }
    plane().emit(TraceEvent::new(kind, ts_ns, cpu, a, b, c, d));
}

/// Emit an event carrying up to [`MAX_PAYLOAD`] opaque payload bytes
/// (longer payloads are truncated), if armed.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the TraceEvent word layout
pub fn emit_payload(
    kind: EventKind,
    ts_ns: u64,
    cpu: u16,
    a: u64,
    b: u64,
    c: u64,
    d: u64,
    payload: &[u8],
) {
    if !armed() {
        return;
    }
    let mut ev = TraceEvent::new(kind, ts_ns, cpu, a, b, c, d);
    ev.set_payload(payload);
    plane().emit(ev);
}

/// Drain the global plane: consume every completed event, merged across
/// CPU rings in `(ts_ns, cpu, seq)` order.
pub fn drain() -> Vec<TraceEvent> {
    plane().drain()
}

/// Flight-recorder view: the last `n` events still resident in the rings,
/// in `(ts_ns, cpu, seq)` order, *without* consuming them.
pub fn snapshot_last(n: usize) -> Vec<TraceEvent> {
    plane().snapshot_last(n)
}

/// Total events lost to overwrite-oldest wraparound since process start.
pub fn dropped() -> u64 {
    plane().dropped()
}

/// Mirror the plane's drop total into the `c3_trace_dropped_total`
/// counter in the global metrics registry. The plane's count is the
/// source of truth; the counter is a monotonic mirror
/// ([`Counter::raise_to`]), so calling this from several control-plane
/// paths is safe.
pub fn sync_dropped_counter() {
    metrics()
        .counter("c3_trace_dropped_total")
        .raise_to(dropped());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_emit_is_a_noop() {
        set_armed(false);
        emit(EventKind::LockAcquire, 1, 0, 42, 0, 0, 0);
        assert!(drain()
            .iter()
            .all(|e| e.a != 42 || e.kind != EventKind::LockAcquire));
    }
}
