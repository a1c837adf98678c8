//! The repository's benchmark: five workloads over the hook path, the DES
//! and the fleet control plane, measured end to end (`--trace 0`) and
//! layer by layer (`--trace 1`). See `README.md` beside `Cargo.toml`.

mod des_explore;
mod des_figures;
mod fleet_churn;
mod gen;
mod hook_fire;
mod lock_profiled;
mod report;
mod sim_replica;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use des_explore::DesExplore;
use des_figures::DesFigures;
use fleet_churn::FleetChurn;
use hook_fire::HookFire;
use lock_profiled::LockProfiled;
use stats::{median, percentile};
use trace::Tracer;
use workload::{run_phase, Budget, Metrics, Workload};

/// Seconds one run measures when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` the selected workload's untraced phase and its
/// traced phase each get in a traced run; the rest goes to the short
/// passes over the other workloads and to the isolated timings.
const TRACED_PHASE_SHARE: f64 = 0.4;

const WORKLOADS: [&str; 5] = [
    HookFire::NAME,
    LockProfiled::NAME,
    DesFigures::NAME,
    DesExplore::NAME,
    FleetChurn::NAME,
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The end-to-end run: tracing off, nothing else in the process.
fn end_to_end<W: Workload>(args: &Args) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(W::setup(args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = fixture.expect("SETUP_REPS is at least one");
    let phase = run_phase(
        &mut w,
        Budget::Time(Duration::from_secs(args.seconds)),
        &mut Tracer::off(),
    );

    let mut m = Metrics::default();
    m.set("ops_per_s", phase.ops_per_s());
    m.set("op_ns_p50", percentile(&phase.samples, 0.5));
    m.set("peak_rss_mb", peak_rss_mb()?);
    m.set("setup_s", median(&setup_s));
    println!(
        "{}: {} ops in {} samples, {SETUP_REPS} set-ups",
        W::NAME,
        phase.ops,
        phase.samples.len()
    );
    report::print_result(report::END_TO_END, &m, phase.ops, phase.failed)
}

/// Ops attempted and failed over every pass of a traced run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// One workload's part of a traced run. The selected workload runs an
/// untraced and a traced phase of equal length, which gives the tracing
/// overhead, and writes its spans out; every other workload runs a short
/// traced pass so that its layers' metrics are measured in this run too.
fn layer_pass<W: Workload>(args: &Args, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let selected = W::NAME == args.workload;
    let share = Duration::from_secs_f64(args.seconds as f64 * TRACED_PHASE_SHARE);
    let mut w = W::setup(args.seed);
    let untraced = selected.then(|| run_phase(&mut w, Budget::Time(share), &mut Tracer::off()));
    let mut tr = Tracer::on();
    let budget = if selected {
        Budget::Time(share)
    } else {
        Budget::Cycles(W::MINI_CYCLES)
    };
    let traced = run_phase(&mut w, budget, &mut tr);
    w.layers(&tr, &traced, m);
    tally.attempted += traced.ops;
    tally.failed += traced.failed;

    if let Some(untraced) = untraced {
        let p50 = percentile(&untraced.samples, 0.5);
        m.set(
            "harness.unattributed_ns",
            w.unattributed_ns(&tr, &traced, p50, m),
        );
        m.set(
            "harness.trace_overhead_share",
            1.0 - traced.ops_per_s() / untraced.ops_per_s(),
        );
        m.set("harness.op_ns_p90", percentile(&untraced.samples, 0.9));
        m.set("harness.batch_ns_p99", percentile(&untraced.samples, 0.99));
        tally.attempted += untraced.ops;
        tally.failed += untraced.failed;
        write_trace(&tr, &args.out, W::NAME)?;
    }
    Ok(())
}

fn write_trace(tr: &Tracer, dir: &Path, workload: &str) -> Result<(), String> {
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| tr.write_json(&path, workload))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn per_layer(args: &Args) -> Result<(), String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    layer_pass::<HookFire>(args, &mut m, &mut tally)?;
    layer_pass::<LockProfiled>(args, &mut m, &mut tally)?;
    layer_pass::<DesFigures>(args, &mut m, &mut tally)?;
    layer_pass::<DesExplore>(args, &mut m, &mut tally)?;
    layer_pass::<FleetChurn>(args, &mut m, &mut tally)?;
    println!(
        "{}: traced run, harness.* describe this workload",
        args.workload
    );
    report::print_result(report::PER_LAYER, &m, tally.attempted, tally.failed)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.trace {
        return per_layer(&args);
    }
    match args.workload.as_str() {
        HookFire::NAME => end_to_end::<HookFire>(&args),
        LockProfiled::NAME => end_to_end::<LockProfiled>(&args),
        DesFigures::NAME => end_to_end::<DesFigures>(&args),
        DesExplore::NAME => end_to_end::<DesExplore>(&args),
        _ => end_to_end::<FleetChurn>(&args),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("c3-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
