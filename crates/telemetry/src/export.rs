//! Trace exporters.
//!
//! [`to_chrome_json`] renders a drained event stream in the
//! chrome://tracing / Perfetto "Trace Event Format" (JSON array form):
//! hook-dispatch spans become complete (`"ph":"X"`) events with a
//! duration derived from the executed instruction count, everything else
//! becomes an instant (`"ph":"i"`) event. Timestamps are microseconds as
//! the format requires, kept fractional so nanosecond ordering survives.
//!
//! [`to_flamegraph`] and [`to_contention_csv`] render an analysis
//! [`Report`] (see [`crate::analyze`]): the former as collapsed stacks
//! (`frame;frame;... weight`, the `flamegraph.pl` / inferno input format,
//! weighted in nanoseconds of blocked time), the latter as a per-lock CSV
//! of contention and attribution figures.

use crate::analyze::{Report, HANDOFF_TENANT, NS_PER_INSN};
use crate::event::{EventKind, TraceEvent};
use std::fmt::Write as _;

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_payload_hex(out: &mut String, ev: &TraceEvent) {
    for b in ev.payload_bytes() {
        let _ = write!(out, "{b:02x}");
    }
}

/// Render a `(ts, cpu, seq)`-ordered event slice as a chrome://tracing
/// JSON array. Load the result in chrome://tracing or ui.perfetto.dev.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ts_us = ev.ts_ns as f64 / 1000.0;
        out.push_str("  {\"name\":\"");
        push_escaped(&mut out, ev.kind.name());
        let _ = write!(out, "\",\"cat\":\"c3\",\"pid\":1,\"tid\":{}", ev.cpu);
        match ev.kind {
            EventKind::HookSpan => {
                let dur_us = (ev.c * NS_PER_INSN) as f64 / 1000.0;
                let _ = write!(out, ",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us}");
            }
            _ => {
                let _ = write!(out, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us}");
            }
        }
        let _ = write!(
            out,
            ",\"args\":{{\"seq\":{},\"a\":{},\"b\":{},\"c\":{},\"d\":{}",
            ev.seq, ev.a, ev.b, ev.c, ev.d
        );
        if ev.len > 0 {
            out.push_str(",\"payload\":\"");
            push_payload_hex(&mut out, ev);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

/// Render a report's blocking chains as flamegraph collapsed stacks —
/// one `frame;frame;... <ns>` line per chain, weight = nanoseconds of
/// blocked time attributed to that chain. Feed the output straight to
/// `flamegraph.pl` or `inferno-flamegraph`; the resulting graph's total
/// width is the total measured wait across all locks. Lines are sorted
/// (the map is ordered), so the bytes are stable for a fixed report.
pub fn to_flamegraph(report: &Report) -> String {
    let mut out = String::new();
    for (stack, ns) in &report.chains {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

/// Render a report as a per-lock contention CSV: one row per
/// `(lock, tenant, policy)` attribution cell, caused and suffered side
/// by side, preceded by a header. Integer nanoseconds only — stable
/// bytes for a fixed report.
pub fn to_contention_csv(report: &Report) -> String {
    let mut out =
        String::from("lock,lock_id,tenant,policy,caused_ns,suffered_ns,wait_ns,completed_waits\n");
    for (id, l) in &report.locks {
        // Union of tenant/policy keys across both sides, ordered.
        let mut keys: Vec<&(u64, String)> = l.caused.keys().chain(l.suffered.keys()).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let (tenant, policy) = key;
            let caused = l.caused.get(key).copied().unwrap_or(0);
            let suffered = l.suffered.get(key).copied().unwrap_or(0);
            let tenant_s = if *tenant == HANDOFF_TENANT {
                "handoff".to_string()
            } else {
                tenant.to_string()
            };
            let _ = writeln!(
                out,
                "{},{id},{tenant_s},{policy},{caused},{suffered},{},{}",
                l.name, l.wait_ns, l.completed_waits
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, AnalyzeConfig};

    fn contended_stream() -> Vec<TraceEvent> {
        let mut evs = vec![
            TraceEvent::new(EventKind::LockAcquired, 10, 0, 7, 1, 0, 1),
            TraceEvent::new(EventKind::LockContended, 20, 0, 7, 2, 3, 1),
            TraceEvent::new(EventKind::LockRelease, 50, 0, 7, 1, 0, 1),
            TraceEvent::new(EventKind::LockAcquired, 50, 0, 7, 2, 3, 2),
            TraceEvent::new(EventKind::LockRelease, 60, 0, 7, 2, 3, 2),
        ];
        for (i, e) in evs.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        evs
    }

    #[test]
    fn flamegraph_collapsed_stacks() {
        let r = analyze(&contended_stream(), AnalyzeConfig::default());
        let fg = to_flamegraph(&r);
        assert_eq!(fg, "lock7@tid1 30\n");
        // Total flame width == total wait.
        let total: u64 = fg
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, r.total_wait_ns());
    }

    #[test]
    fn contention_csv_shape() {
        let r = analyze(&contended_stream(), AnalyzeConfig::default());
        let csv = to_contention_csv(&r);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "lock,lock_id,tenant,policy,caused_ns,suffered_ns,wait_ns,completed_waits"
        );
        let rows: Vec<&str> = lines.collect();
        // Tenant 0 caused 30ns; tenant 3 suffered 30ns.
        assert!(rows.contains(&"lock7,7,0,(unpatched),30,0,30,1"), "{csv}");
        assert!(rows.contains(&"lock7,7,3,(unpatched),0,30,30,1"), "{csv}");
    }

    #[test]
    fn chrome_json_shape() {
        let mut span = TraceEvent::new(EventKind::HookSpan, 2000, 3, 7, 1, 10, 100);
        span.seq = 1;
        let mut inst = TraceEvent::new(EventKind::LockAcquired, 1000, 0, 7, 42, 0, 0);
        inst.set_payload(&[0xde, 0xad]);
        let json = to_chrome_json(&[inst, span]);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"lock_acquired\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"payload\":\"dead\""));
        assert!(json.contains("\"name\":\"hook_span\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":0.02"));
        // Two objects, comma-separated.
        assert_eq!(json.matches("{\"name\"").count(), 2);
    }
}
