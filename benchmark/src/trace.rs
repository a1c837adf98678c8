//! Harness-side spans: recorded around the calls the benchmark makes into
//! each layer, kept in memory, written out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed interval. `parent` indexes the span that was open when this
/// one began; spans of one op share `op`.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the part their direct children cover.
    pub self_ns: u64,
}

/// Span recorder. A tracer that is off records nothing and reads no
/// clock, so the untraced run and the traced run execute the same code.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let r = f();
        self.end();
        r
    }

    /// Count, total and self time per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        aggregate(&self.spans)
    }

    /// Writes the trace as JSON: a name table, then one
    /// `[name, start_ns, end_ns, parent, op]` row per span (`parent` is a
    /// row index, -1 for a root), then the per-name aggregate.
    pub fn write_json(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\": \"{workload}\", \"unit\": \"ns\",")?;
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(w, "\"names\": [{}],", quoted.join(", "))?;
        writeln!(
            w,
            "\"columns\": [\"name\", \"start\", \"end\", \"parent\", \"op\"],"
        )?;
        writeln!(w, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name is in the table");
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "[{name},{},{},{parent},{}]{sep}",
                s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(w, "],\n\"aggregate\": {{")?;
        let agg = self.aggregate();
        for (i, (name, a)) in agg.iter().enumerate() {
            let sep = if i + 1 == agg.len() { "" } else { "," };
            writeln!(
                w,
                "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{sep}",
                a.count, a.total_ns, a.self_ns
            )?;
        }
        writeln!(w, "}}}}")?;
        w.flush()
    }
}

fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("publish", 10, 40, 0),
            span("apply", 50, 90, 0),
            span("open", 55, 75, 2),
        ];
        let agg = aggregate(&spans);
        assert_eq!(
            agg["op"],
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(agg["publish"].self_ns, 30);
        // Grandchildren are charged to their own parent only.
        assert_eq!(
            agg["apply"],
            Agg {
                count: 1,
                total_ns: 40,
                self_ns: 20
            }
        );
        assert_eq!(agg["open"].self_ns, 20);
        let self_sum: u64 = agg.values().map(|a| a.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root");
    }

    #[test]
    fn tracer_nests_and_an_off_tracer_records_nothing() {
        let mut tr = Tracer::on();
        tr.begin("op", 7);
        tr.span("child", 7, || ());
        tr.end();
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[0].parent, NO_PARENT);
        assert_eq!(tr.spans[1].parent, 0);
        assert_eq!(tr.spans[1].op, 7);
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);

        let mut off = Tracer::off();
        off.begin("op", 0);
        off.end();
        assert!(off.spans.is_empty());
    }
}
