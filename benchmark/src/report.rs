//! The metric schema — the same names, units and directions that
//! `BENCHMARK.json` declares (a unit test holds the two together) — and
//! the result line the driver reads.

use crate::workload::Metrics;

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the schema test only; the driver takes it from the manifest.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[Decl] = &[
    higher("ops_per_s", "op/s"),
    lower("op_ns_p50", "ns"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// One layer each; measured by the traced run. A `count` is made by the
/// program on inputs that depend on `--seed` alone and repeats exactly.
pub const PER_LAYER: &[Decl] = &[
    lower("livepatch.get_ns", "ns"),
    lower("livepatch.replace_ns", "ns"),
    lower("locks.bare_op_ns", "ns"),
    lower("locks.vacant_eval_ns", "ns"),
    lower("locks.attached_op_ns", "ns"),
    lower("locks.armed_op_ns", "ns"),
    lower("locks.attach_overhead_x", "x"),
    lower("concord.marshal_cmp_node_ns", "ns"),
    lower("concord.marshal_event_ns", "ns"),
    lower("concord.closure_cmp_node_ns", "ns"),
    lower("concord.closure_event_ns", "ns"),
    lower("concord.sim_hook_ns", "ns"),
    lower("concord.load_us", "us"),
    lower("concord.attach_us", "us"),
    lower("concord.detach_us", "us"),
    lower("cbpf.run_legacy_ns.numa", "ns"),
    lower("cbpf.run_legacy_ns.counter", "ns"),
    lower("cbpf.run_interp_ns.numa", "ns"),
    lower("cbpf.run_interp_ns.counter", "ns"),
    lower("cbpf.run_jit_ns.numa", "ns"),
    lower("cbpf.run_jit_ns.counter", "ns"),
    lower("cbpf.insns.numa", "count"),
    lower("cbpf.insns.counter", "count"),
    lower("cbpf.verify_us", "us"),
    lower("cbpf.prepare_us", "us"),
    lower("cbpf.jit_compile_us", "us"),
    lower("cbpf.wire_seal_us", "us"),
    lower("cbpf.wire_open_us", "us"),
    lower("cbpf.map_lookup_ns", "ns"),
    lower("cbpf.map_update_ns", "ns"),
    lower("telemetry.emit_ns", "ns"),
    lower("telemetry.disarmed_emit_ns", "ns"),
    lower("telemetry.drain_ns_per_event", "ns"),
    lower("telemetry.analyze_ns_per_event", "ns"),
    lower("telemetry.events", "count"),
    lower("telemetry.drop_share", "share"),
    lower("ksim.events", "count"),
    lower("ksim.transfers", "count"),
    lower("ksim.ns_per_event", "ns"),
    higher("ksim.events_per_s", "1/s"),
    higher("ksim.virt_ms_per_wall_s", "ms/s"),
    lower("simlocks.point_ms.stock_mcs", "ms"),
    lower("simlocks.point_ms.shfl_numa", "ms"),
    lower("simlocks.point_ms.concord_shfl_numa", "ms"),
    lower("simlocks.point_ms.ht_baseline", "ms"),
    lower("simlocks.point_ms.ht_concord_noop", "ms"),
    lower("simlocks.point_ms.ht_contained", "ms"),
    lower("simlocks.point_ms.rw_stock", "ms"),
    lower("simlocks.point_ms.rw_bravo", "ms"),
    lower("simlocks.point_ms.rw_concord_bravo", "ms"),
    higher("simlocks.virt_ops_per_ms.stock_mcs", "count"),
    higher("simlocks.virt_ops_per_ms.shfl_numa", "count"),
    higher("simlocks.virt_ops_per_ms.concord_shfl_numa", "count"),
    higher("simlocks.virt_ops_per_ms.ht_baseline", "count"),
    higher("simlocks.virt_ops_per_ms.ht_concord_noop", "count"),
    higher("simlocks.virt_ops_per_ms.ht_contained", "count"),
    higher("simlocks.virt_ops_per_ms.rw_stock", "count"),
    higher("simlocks.virt_ops_per_ms.rw_bravo", "count"),
    higher("simlocks.virt_ops_per_ms.rw_concord_bravo", "count"),
    lower("explore.schedules", "count"),
    higher("explore.schedules_per_s", "1/s"),
    lower("explore.campaign_ms.random", "ms"),
    lower("explore.campaign_ms.pct", "ms"),
    lower("explore.campaign_ms.policy", "ms"),
    lower("explore.first_bug_mean", "count"),
    lower("explore.shrunk_injections", "count"),
    lower("fleet.bulk_bind_ms", "ms"),
    lower("fleet.publish_ms", "ms"),
    lower("fleet.resolve_ns", "ns"),
    lower("fleet.snapshot_ns", "ns"),
    lower("fleet.apply_us", "us"),
    lower("fleet.revert_us", "us"),
    lower("fleet.sim_run_ms", "ms"),
    lower("fleet.propagation_virt_us_p50", "count"),
    lower("fleet.retries", "count"),
    lower("fleet.dedup_drops", "count"),
    lower("harness.unattributed_ns", "ns"),
    lower("harness.trace_overhead_share", "share"),
    lower("harness.op_ns_p90", "ns"),
    lower("harness.batch_ns_p99", "ns"),
];

/// Prints every declared metric by name and unit, then the result line:
/// one JSON object, the last line of standard output.
///
/// # Errors
///
/// Names the first declared metric that was not measured or is not a
/// finite number; nothing is printed then.
pub fn print_result(
    decls: &[Decl],
    m: &Metrics,
    attempted: u64,
    failed: u64,
) -> Result<(), String> {
    let mut rows = Vec::with_capacity(decls.len());
    for d in decls {
        match m.get(d.name) {
            Some(v) if v.is_finite() => rows.push((d, v)),
            Some(v) => return Err(format!("metric {} is {v}", d.name)),
            None => return Err(format!("metric {} was not measured", d.name)),
        }
    }
    for (d, v) in &rows {
        println!("{:<44} {v:>18.4} {}", d.name, d.unit);
    }
    let share = failed as f64 / attempted.max(1) as f64;
    println!(
        "{:<44} {share:>18.4} failed/attempted ({failed}/{attempted})",
        "fail_share"
    );
    let body: Vec<String> = rows
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Just enough JSON to read `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    enum Json {
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }

        fn peek(&mut self) -> u8 {
            self.ws();
            self.s[self.i]
        }

        fn string(&mut self) -> String {
            self.eat(b'"');
            let start = self.i;
            while self.s[self.i] != b'"' {
                assert_ne!(self.s[self.i], b'\\', "escapes are not needed here");
                self.i += 1;
            }
            self.i += 1;
            String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
        }

        fn value(&mut self) -> Json {
            match self.peek() {
                b'"' => Json::Str(self.string()),
                b'[' => {
                    self.eat(b'[');
                    let mut v = Vec::new();
                    while self.peek() != b']' {
                        v.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        }
                    }
                    self.eat(b']');
                    Json::Arr(v)
                }
                b'{' => {
                    self.eat(b'{');
                    let mut m = BTreeMap::new();
                    while self.peek() != b'}' {
                        let k = self.string();
                        self.eat(b':');
                        m.insert(k, self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        }
                    }
                    self.eat(b'}');
                    Json::Obj(m)
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    Json::Num(
                        std::str::from_utf8(&self.s[start..self.i])
                            .unwrap()
                            .parse()
                            .unwrap(),
                    )
                }
            }
        }
    }

    fn manifest() -> BTreeMap<String, Json> {
        let text = include_str!("../../BENCHMARK.json");
        match (Parser {
            s: text.as_bytes(),
            i: 0,
        })
        .value()
        {
            Json::Obj(m) => m,
            other => panic!("BENCHMARK.json is not an object: {other:?}"),
        }
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        match entry {
            Json::Obj(m) => match &m[key] {
                Json::Str(s) => s,
                other => panic!("{key} is {other:?}"),
            },
            other => panic!("entry is {other:?}"),
        }
    }

    fn declared(m: &BTreeMap<String, Json>, section: &str) -> Vec<(String, String, String)> {
        let Json::Arr(entries) = &m[section] else {
            panic!("{section} is not a list")
        };
        entries
            .iter()
            .map(|e| {
                (
                    field(e, "name").into(),
                    field(e, "unit").into(),
                    field(e, "better").into(),
                )
            })
            .collect()
    }

    fn printed(decls: &[Decl]) -> Vec<(String, String, String)> {
        decls
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_metrics() {
        let m = manifest();
        assert_eq!(printed(END_TO_END), declared(&m, "end_to_end"));
        assert_eq!(printed(PER_LAYER), declared(&m, "per_layer"));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(d.name, "_.-", 64), "name {}", d.name);
            assert!(
                d.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "name {}",
                d.name
            );
            assert!(ok(d.unit, "_/%.-", 16), "unit {} of {}", d.unit, d.name);
            assert!(["lower", "higher"].contains(&d.better));
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    #[test]
    fn manifest_names_the_workloads_and_the_run_length() {
        let m = manifest();
        let Json::Arr(workloads) = &m["workloads"] else {
            panic!("workloads is not a list")
        };
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, crate::WORKLOADS);
        assert_eq!(m["run_seconds"], Json::Num(crate::DEFAULT_SECONDS as f64));
    }
}
