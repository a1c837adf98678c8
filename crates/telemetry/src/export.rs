//! Trace exporters.
//!
//! [`to_chrome_json`] renders a drained event stream in the
//! chrome://tracing / Perfetto "Trace Event Format" (JSON array form):
//! hook-dispatch spans become complete (`"ph":"X"`) events with a
//! duration derived from the executed instruction count, everything else
//! becomes an instant (`"ph":"i"`) event. Timestamps are microseconds as
//! the format requires, kept fractional so nanosecond ordering survives.
//!
//! [`to_flamegraph`] renders an analysis [`Report`] (see
//! [`crate::analyze`]) as collapsed stacks (`frame;frame;... weight`, the
//! `flamegraph.pl` / inferno input format, weighted in nanoseconds of
//! blocked time).

use crate::analyze::{Report, NS_PER_INSN};
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
