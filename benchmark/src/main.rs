//! The repository's benchmark. One run measures one workload:
//!
//! ```text
//! webml-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! webml-benchmark --aa <runs> [--seconds <s>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes `benchmark/out/trace-<workload>.json`. The last line of
//! standard output is one JSON object; see `benchmark/README.md`.

mod aa;
mod measure;
mod names;
mod workloads;

use measure::{median, quantile, HostProbe, Metrics, Recorder, Tracer};
use names::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{TracedPass, Workload};

/// Set-ups per untraced run; `setup_s` is their median, because one set-up
/// per process is one sample and does not repeat within a tenth.
const SETUPS: usize = 5;
/// Window length of a traced run. The program's telemetry rings hold 16k
/// events per thread and are drained after every window; the fleet records
/// some 50k events a second on its busiest thread.
const TRACED_WINDOW_SECS: f64 = 0.1;
/// Cold journeys timed after the traced pass, for the layers they cross.
const TRACED_COLD_RUNS: u64 = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run prints as its last line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub leaked: i64,
    pub first_error: Option<String>,
    pub metrics: Metrics,
}

/// One measured phase: `slots` windows, each optionally preceded by one
/// cold journey, so cold samples spread evenly, and each piece of work
/// bracketed by the host probe.
struct Phase {
    rec: Recorder,
    /// Raw milliseconds of each cold journey and the host speed around it.
    cold_ms: Vec<f64>,
    cold_speed: Vec<f64>,
    /// Host speed around each window; `rec.window_*` are raw.
    speed: Vec<f64>,
    secs: f64,
}

/// `values` at reference host speed, each corrected by the speed measured
/// around it: a time is multiplied, a rate divided.
fn at_reference(values: &[f64], speeds: &[f64], rate: bool) -> Vec<f64> {
    let corrected = |(v, &speed): (&f64, &f64)| {
        let c = HostProbe::correction(speed);
        if rate {
            v / c
        } else {
            v * c
        }
    };
    values.iter().zip(speeds).map(corrected).collect()
}

impl Phase {
    fn first_result_ms(&self) -> Vec<f64> {
        at_reference(&self.cold_ms, &self.cold_speed, false)
    }

    fn op_p50_ms(&self) -> Vec<f64> {
        at_reference(&self.rec.window_p50_ms, &self.speed, false)
    }

    fn ops_per_s(&self) -> Vec<f64> {
        at_reference(&self.rec.window_rates, &self.speed, true)
    }
}

fn run_phase<W: Workload>(
    w: &mut W,
    probe: &mut HostProbe,
    seconds: f64,
    window_secs: f64,
    with_cold: bool,
    tr: &mut Tracer,
    mut after_window: impl FnMut(),
) -> Phase {
    // A short run still gets two windows.
    let slots = ((seconds / window_secs).round() as usize).max(2);
    let slot = Duration::from_secs_f64(seconds / slots as f64);
    let mut phase = Phase {
        rec: Recorder::default(),
        cold_ms: Vec::new(),
        cold_speed: Vec::new(),
        speed: Vec::new(),
        secs: 0.0,
    };
    let start = Instant::now();
    let mut before = probe.ms();
    for i in 0..slots {
        if with_cold {
            let outcome = w.cold(i as u64, &mut Tracer::off());
            let after = probe.ms();
            if let Some(ms) = phase.rec.sample(outcome) {
                phase.cold_ms.push(ms);
                phase.cold_speed.push(HostProbe::speed(before, after));
            }
            before = after;
        }
        w.window(start + slot * (i as u32 + 1), &mut phase.rec, tr);
        let after = probe.ms();
        phase.speed.push(HostProbe::speed(before, after));
        before = after;
        after_window();
    }
    phase.secs = start.elapsed().as_secs_f64();
    phase
}

fn end_to_end<W: Workload>(args: &Args) -> Report {
    let mut probe = HostProbe::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        if let Some(previous) = w.take() {
            W::finish(previous);
        }
        let before = probe.ms();
        let t = Instant::now();
        w = Some(W::setup(args.seed));
        let secs = t.elapsed().as_secs_f64();
        setup_s.push(secs * HostProbe::correction(HostProbe::speed(before, probe.ms())));
    }
    let mut w = w.expect("SETUPS is at least one");

    let mut phase = run_phase(
        &mut w,
        &mut probe,
        args.seconds,
        1.0,
        true,
        &mut Tracer::off(),
        || (),
    );
    let peak_bytes = w.sequential_peak(&mut phase.rec);
    let leaked = w.leaked_tensors();
    w.finish();

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s));
    metrics.set("first_result_ms", median(&phase.first_result_ms()));
    metrics.set("op_p50_ms", median(&phase.op_p50_ms()));
    metrics.set("ops_per_s", median(&phase.ops_per_s()));
    metrics.set("peak_bytes", peak_bytes as f64);
    // Context for whoever reads a surprising number: the raw medians and
    // the host speed the run saw.
    eprintln!(
        "{}: {} op samples in {} windows, {} cold samples; raw host wall clock: op p50 {:.4} ms, {:.2} ops/s, first result {:.3} ms; host speed median {:.3} (min {:.3}, max {:.3})",
        args.workload,
        phase.rec.op_ms.len(),
        phase.speed.len(),
        phase.cold_ms.len(),
        median(&phase.rec.op_ms),
        median(&phase.rec.window_rates),
        median(&phase.cold_ms),
        median(&phase.speed),
        quantile(&phase.speed, 0.0),
        quantile(&phase.speed, 1.0),
    );
    // The series behind the medians, so a reader can see the host's
    // plateaus: raw values by window, and the speed they were scaled by.
    for (what, series) in [
        ("raw ops/s by window", &phase.rec.window_rates),
        ("raw op p50 ms by window", &phase.rec.window_p50_ms),
        ("raw first result ms", &phase.cold_ms),
        ("host speed by window", &phase.speed),
        ("host speed by journey", &phase.cold_speed),
    ] {
        let values: Vec<String> = series.iter().map(|x| format!("{x:.4}")).collect();
        eprintln!("{}: {what}: {}", args.workload, values.join(" "));
    }
    Report {
        attempted: phase.rec.attempted,
        failed: phase.rec.failed,
        leaked,
        first_error: phase.rec.first_error,
        metrics,
    }
}

fn per_layer<W: Workload>(args: &Args) -> Report {
    let mut probe = HostProbe::new();
    let mut w = W::setup(args.seed);
    // A third of the time untraced, for the overhead baseline; the rest
    // traced, with the program's own telemetry on as well.
    let untraced = run_phase(
        &mut w,
        &mut probe,
        args.seconds / 3.0,
        TRACED_WINDOW_SECS,
        false,
        &mut Tracer::off(),
        || (),
    );

    let mut tracer = Tracer::new(true, Instant::now());
    let mut events: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    w.begin_traced();
    let kernels_before = kernel_totals();
    webml_telemetry::clear();
    webml_telemetry::set_enabled(true);
    let traced = run_phase(
        &mut w,
        &mut probe,
        args.seconds * 2.0 / 3.0,
        TRACED_WINDOW_SECS,
        false,
        &mut tracer,
        || {
            for e in webml_telemetry::drain() {
                let slot = events.entry(e.name).or_default();
                slot.0 += 1;
                slot.1 += e.arg;
            }
        },
    );
    let kernels_after = kernel_totals();
    let leaked = w.leaked_tensors();
    let mut rec = Recorder::default();
    let mut cold_ms = Vec::new();
    for k in 0..TRACED_COLD_RUNS {
        let outcome = w.cold(k, &mut tracer);
        cold_ms.extend(rec.sample(outcome));
    }
    webml_telemetry::set_enabled(false);
    let untraced_p50 = median(&untraced.op_p50_ms());
    rec.absorb(untraced.rec);

    // Every completed op, also those outside the latency stream (the
    // fleet's heavy and closed-loop requests).
    let ops = traced.rec.attempted - traced.rec.failed;
    // Kernel dispatch is counted by the engine itself while telemetry is
    // on, over every engine of the process.
    let kernel_ms = (kernels_after.1 - kernels_before.1) / ops.max(1) as f64;
    let pass = TracedPass {
        tracer: &tracer,
        self_ms: tracer.self_ms(),
        ops,
        secs: traced.secs,
        kernel_ms_per_op: kernel_ms,
        events: &events,
    };
    let mut metrics = Metrics::default();
    metrics.set(
        "core.kernels_per_op",
        pass.per_op((kernels_after.0 - kernels_before.0) as f64),
    );
    metrics.set("core.kernel_wall_ms_per_op", kernel_ms);
    w.layer_metrics(&pass, &mut metrics);
    // What of an op is neither inside a kernel call, nor upload, nor
    // readback: planner, tape, tidy, queueing.
    let op_ms = pass.per_op(tracer.total_ms("op"));
    if op_ms > 0.0 {
        let known =
            kernel_ms + pass.self_ms_per_op("core.upload") + pass.self_ms_per_op("core.readback");
        metrics.set("core.unattributed_ms_per_op", op_ms - known);
    }

    let traced_p50 = median(&traced.op_p50_ms());
    if untraced_p50 > 0.0 {
        metrics.set(
            "telemetry.trace_overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
        );
    }
    let event_count: u64 = events.values().map(|(n, _)| n).sum();
    metrics.set("telemetry.events_per_op", pass.per_op(event_count as f64));
    metrics.set(
        "telemetry.dropped_events",
        webml_telemetry::dropped_events() as f64,
    );
    // Per-layer times are raw host wall clock; `host.speed` says how the
    // host ran meanwhile.
    metrics.set("op_p50_raw_ms", median(&traced.rec.op_ms));
    metrics.set("op_p99_ms", quantile(&traced.rec.op_ms, 0.99));
    metrics.set("op_samples", traced.rec.op_ms.len() as f64);
    metrics.set("first_result_samples", cold_ms.len() as f64);
    metrics.set("host.speed", median(&traced.speed));
    metrics.set(
        "host.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    metrics.set("host.traced_seconds", traced.secs);
    w.finish();

    rec.absorb(traced.rec);
    metrics.set(
        "failed_share",
        rec.failed as f64 / rec.attempted.max(1) as f64,
    );
    metrics.set("leaked_tensors", leaked as f64);
    write_trace(&args.workload, &tracer);
    Report {
        attempted: rec.attempted,
        failed: rec.failed,
        leaked,
        first_error: rec.first_error,
        metrics,
    }
}

/// `(count, total wall ms)` of kernels dispatched while telemetry was on.
fn kernel_totals() -> (u64, f64) {
    (
        webml_telemetry::counter("engine.kernels_total").get(),
        webml_telemetry::histogram("engine.kernel_wall_ms").sum(),
    )
}

/// Spans go to `benchmark/out/` under the working directory, which is the
/// root of the checkout for the driver and for the smoke test.
fn write_trace(workload: &str, tracer: &Tracer) {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{workload}.json"));
    let text = serde_json::to_string(&tracer.to_json()).expect("spans serialize");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {} spans to {}", tracer.spans.len(), path.display());
    }
}

fn run(args: &Args) -> Option<Report> {
    fn both<W: Workload>(args: &Args) -> Report {
        if args.trace {
            per_layer::<W>(args)
        } else {
            end_to_end::<W>(args)
        }
    }
    Some(match args.workload.as_str() {
        "infer_webgl" => both::<workloads::infer::Infer<false>>(args),
        "infer_webgpu_u8" => both::<workloads::infer::Infer<true>>(args),
        "train_native" => both::<workloads::train::Train>(args),
        "serve_fleet" => both::<workloads::fleet::ServeFleet>(args),
        _ => return None,
    })
}

/// The result line: every declared metric by name with its unit. A metric
/// the workload did not set is one whose layer it bypasses, and reads 0.
fn result_line(report: &Report, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = report
                .metrics
                .0
                .get(d.name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.leaked == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: webml-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       webml-benchmark --aa RUNS [--seconds S]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
    };
    let parsed = |flag: &str, default: f64| match value(flag) {
        None => Some(default),
        Some(text) => text
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0),
    };
    let (Some(seed), Some(seconds), Some(trace)) = (
        parsed("--seed", 1.0),
        parsed("--seconds", 28.0),
        parsed("--trace", 0.0),
    ) else {
        return usage();
    };
    if seconds <= 0.0 {
        return usage();
    }
    if let Some(runs) = value("--aa") {
        return match runs.parse::<usize>() {
            Ok(runs) if runs >= 2 => aa::run(runs, seconds),
            _ => usage(),
        };
    }
    let Some(workload) = value("--workload") else {
        return usage();
    };
    let args = Args {
        workload: workload.clone(),
        seed: seed as u64,
        seconds,
        trace: trace != 0.0,
    };
    let Some(report) = run(&args) else {
        return usage();
    };
    if let Some(why) = &report.first_error {
        eprintln!(
            "{}: {} of {} ops failed, first: {why}",
            args.workload, report.failed, report.attempted
        );
    }
    if report.leaked != 0 {
        eprintln!("{}: {} tensors leaked", args.workload, report.leaked);
    }
    println!(
        "{}",
        result_line(&report, if args.trace { &PER_LAYER } else { &END_TO_END })
    );
    ExitCode::SUCCESS
}
