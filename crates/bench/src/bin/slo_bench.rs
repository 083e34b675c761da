//! SLO-aware fleet serving harness: admission control, deadlines, load
//! shedding, and circuit-breaking across a heterogeneous 4-engine fleet.
//!
//! ```text
//! cargo run --release -p webml-bench --bin slo_bench
//!     [-- --tiny] [-- --json] [-- --seed N] [-- --clients N] [-- --requests N]
//! ```
//!
//! Three phases against a [`FleetServer`] spanning four engines on distinct
//! device profiles (GTX 1080, Intel Iris Pro, modern Android — each with a
//! CPU fallback rung — plus a CPU-only straggler):
//!
//! 1. **Steady**: mixed closed-loop clients (3:1 light:heavy model split)
//!    under per-model SLOs. Gates: zero caller-visible errors, and admitted
//!    p99 within the SLO envelope (deadline + one service quantum — the
//!    deadline check happens at dequeue, so an admitted request can still
//!    pay one batch execution beyond it).
//! 2. **Overload**: a queue-saturating burst with a 5 ms deadline. Gates:
//!    at least one request shed *explicitly* (admission/queue-full/deadline
//!    refusal, never a hang or a silent drop) and exact outcome accounting.
//! 3. **Seeded faults** (`--seed N`): a fresh fleet where one engine loses
//!    its WebGL context mid-traffic (restorable, with a recover hook) and
//!    another suffers seeded draw stalls (a straggler, not a failure).
//!    Gates: zero caller-visible errors — the degradation ladder, re-route,
//!    and breaker absorb every fault — and the tripped engine is re-admitted
//!    (breaker re-closed) by the end of the run.
//!
//! `--attribution` additionally gates the PR-9 observability contract:
//! per-model timeline completeness ≥ 99% (every completed request's six
//! phases reconstruct from its one trace id), a non-empty dominant-p99
//! phase per model, exact flight-recorder trigger accounting (phase-2 shed
//! triggers equal the observed sheds; phase 3 produces a breaker-trip
//! snapshot), and writes the attribution report into `BENCH_SLO.json` plus
//! the flight snapshots to `FLIGHT_SNAPSHOT.json`.
//!
//! `--assert-overhead-pct N` measures the per-request instrumentation cost
//! with tracing disabled (context mint + scope swap + seven timestamps +
//! attribution fold + flight-ring push) and fails unless it is ≤ N% of the
//! steady-phase light-model p50.
//!
//! `--json` writes `BENCH_SLO.json`. The CI `slo-smoke` job runs
//! `--tiny --json` across an 8-seed fault matrix; the `obs-smoke` job adds
//! `--attribution --assert-overhead-pct 5`.

// The nested `json!` report overflows the default macro recursion limit.
#![recursion_limit = "256"]

use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webml_telemetry as telemetry;
use webml_telemetry::attribution;
use webml_telemetry::flight;
use webml_backend_webgl::{WebGlBackend, WebGlConfig};
use webml_core::cpu::CpuBackend;
use webml_core::Engine;
use webml_models::serving::{classifier_artifacts, synthetic_example};
use webml_serve::{
    BreakerState, EngineSpec, FleetConfig, FleetServer, FleetStats, ModelSlo, ModelSource,
    ServeError,
};
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::fault::FaultPlan;

const LIGHT_IN: usize = 32;
const LIGHT_HIDDEN: usize = 64;
const HEAVY_IN: usize = 64;
const HEAVY_HIDDEN: usize = 256;
const CLASSES: usize = 10;
/// Latency slack beyond the SLO deadline an admitted request may pay: the
/// deadline check happens at dequeue, so one batch execution (plus reply
/// plumbing) can land after it.
const SERVICE_MARGIN_MS: f64 = 10.0;

/// An engine with a WebGL backend on `profile` (optionally faulted) over a
/// CPU fallback rung. Returns the backend too so a recover hook can reach
/// `recover`.
fn webgl_engine(profile: DeviceProfile, plan: Option<FaultPlan>) -> (Engine, Arc<WebGlBackend>) {
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    let backend = match plan {
        Some(plan) => WebGlBackend::with_faults(profile, WebGlConfig::default(), plan),
        None => WebGlBackend::new(profile, WebGlConfig::default()),
    }
    .expect("profile supports float textures");
    let backend = Arc::new(backend);
    e.register_backend("webgl", backend.clone(), 2);
    (e, backend)
}

fn cpu_engine() -> Engine {
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    e
}

struct Fleet {
    server: Arc<FleetServer>,
    light: webml_serve::ModelKey,
    heavy: webml_serve::ModelKey,
}

/// The heterogeneous fleet: a fast discrete GPU (heavy models prefer it),
/// two mid-tier profiles, and a CPU-only straggler. `iris_plan` /
/// `android_plan` inject faults for phase 3.
fn build_fleet(
    iris_plan: Option<FaultPlan>,
    android_plan: Option<FaultPlan>,
    light_slo: ModelSlo,
    heavy_slo: ModelSlo,
) -> Fleet {
    let (gtx, _) = webgl_engine(DeviceProfile::gtx_1080(), None);
    let (iris, iris_backend) = webgl_engine(DeviceProfile::intel_iris_pro(), iris_plan);
    let (android, _) = webgl_engine(DeviceProfile::android_modern(), android_plan);
    let cpu = cpu_engine();
    let specs = vec![
        EngineSpec::new("gtx", &gtx, 16),
        EngineSpec::new("iris", &iris, 4)
            .with_recover_hook(Arc::new(move || iris_backend.recover())),
        EngineSpec::new("android", &android, 2),
        EngineSpec::new("cpu", &cpu, 1),
    ];
    let server = Arc::new(FleetServer::new(specs, FleetConfig::default()));

    let build = cpu_engine();
    let light_artifacts = classifier_artifacts(&build, LIGHT_IN, LIGHT_HIDDEN, CLASSES, 11)
        .expect("build light model");
    let heavy_artifacts = classifier_artifacts(&build, HEAVY_IN, HEAVY_HIDDEN, CLASSES, 13)
        .expect("build heavy model");
    assert!(
        heavy_artifacts.weight_bytes() >= FleetConfig::default().heavy_model_bytes,
        "heavy model must cross the placement threshold"
    );
    let light = server.register(ModelSource::Artifacts(light_artifacts), light_slo);
    let heavy = server.register(ModelSource::Artifacts(heavy_artifacts), heavy_slo);
    // Warm every engine's cache so phase measurements exclude model builds.
    server.warm(light, synthetic_example(LIGHT_IN, 0), vec![LIGHT_IN]);
    server.warm(heavy, synthetic_example(HEAVY_IN, 0), vec![HEAVY_IN]);
    Fleet { server, light, heavy }
}

#[derive(Default, Clone)]
struct Outcomes {
    latencies_ms: Vec<f64>,
    shed: u64,
    deadline: u64,
    errors: u64,
}

impl Outcomes {
    fn absorb(&mut self, other: Outcomes) {
        self.latencies_ms.extend(other.latencies_ms);
        self.shed += other.shed;
        self.deadline += other.deadline;
        self.errors += other.errors;
    }

    fn record(&mut self, result: Result<webml_serve::InferResponse, ServeError>, ms: f64) {
        match result {
            Ok(resp) => {
                assert_eq!(resp.dims, vec![CLASSES]);
                self.latencies_ms.push(ms);
            }
            Err(ServeError::DeadlineExceeded { .. }) => self.deadline += 1,
            Err(ref e) if e.is_shed() => self.shed += 1,
            Err(_) => self.errors += 1,
        }
    }

    fn percentile(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    }

    fn to_json(&self, name: &str) -> serde_json::Value {
        json!({
            "model": name,
            "completed": self.latencies_ms.len(),
            "shed": self.shed,
            "deadline_rejected": self.deadline,
            "errors": self.errors,
            "p50_ms": self.percentile(0.50),
            "p99_ms": self.percentile(0.99),
        })
    }
}

/// Closed-loop mixed clients: every fourth client drives the heavy model.
fn run_clients(fleet: &Fleet, clients: usize, requests: usize) -> (Outcomes, Outcomes, f64) {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let server = fleet.server.clone();
            let heavy_client = c % 4 == 3;
            let key = if heavy_client { fleet.heavy } else { fleet.light };
            let in_dim = if heavy_client { HEAVY_IN } else { LIGHT_IN };
            std::thread::spawn(move || {
                let mut out = Outcomes::default();
                for r in 0..requests {
                    let example = synthetic_example(in_dim, c * requests + r);
                    let t = Instant::now();
                    let result = server.infer(key, example, vec![in_dim]);
                    out.record(result, t.elapsed().as_secs_f64() * 1e3);
                }
                (heavy_client, out)
            })
        })
        .collect();
    let mut light = Outcomes::default();
    let mut heavy = Outcomes::default();
    for h in handles {
        let (heavy_client, out) = h.join().expect("client thread");
        if heavy_client {
            heavy.absorb(out);
        } else {
            light.absorb(out);
        }
    }
    (light, heavy, t0.elapsed().as_secs_f64())
}

fn stats_json(stats: &FleetStats) -> serde_json::Value {
    json!({
        "submitted": stats.submitted,
        "completed": stats.completed,
        "rejected": stats.rejected,
        "deadline_rejected": stats.deadline_rejected,
        "shed_overloaded": stats.shed_overloaded,
        "shed_queue_full": stats.shed_queue_full,
        "shed_no_engine": stats.shed_no_engine,
        "engine_errors": stats.engine_errors,
        "rerouted": stats.rerouted,
        "probes": stats.probes,
        "warmups": stats.warmups,
        "breaker_trips": stats.breaker_trips,
        "breaker_recloses": stats.breaker_recloses,
        "degradations": stats.degradations,
        "engines": stats.engines.iter().map(|e| json!({
            "name": e.name,
            "parallelism": e.parallelism,
            "completed": e.completed,
            "ewma_ms": e.ewma_ms,
            "degradations": e.degradations,
            "breaker_state": format!("{:?}", e.breaker.state),
            "breaker_trips": e.breaker.trips,
            "breaker_recloses": e.breaker.recloses,
        })).collect::<Vec<_>>(),
    })
}

fn assert_accounted(stats: &FleetStats, phase: &str) {
    assert_eq!(
        stats.accounted(),
        stats.submitted,
        "{phase}: every submitted request must land in exactly one outcome bucket"
    );
}

/// Per-request cost of the always-on observability path with tracing
/// disabled: trace-context mint, scope swap, the seven timeline
/// timestamps, the attribution fold, and the flight-ring push — everything
/// a served request pays even when no trace is being recorded.
fn instrumentation_overhead_ns(iters: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        let ctx = telemetry::RequestCtx::mint();
        let _scope = telemetry::trace_scope(ctx.trace_id);
        let mut tl = telemetry::RequestTimeline::new(ctx.trace_id, ctx.parent_span, 0xbe9c);
        tl.submitted_ns = telemetry::now_ns();
        tl.admitted_ns = telemetry::now_ns();
        tl.drained_ns = telemetry::now_ns();
        tl.exec_start_ns = telemetry::now_ns();
        tl.upload_end_ns = telemetry::now_ns();
        tl.compute_end_ns = telemetry::now_ns();
        tl.done_ns = telemetry::now_ns();
        tl.outcome = telemetry::RequestOutcome::Completed;
        tl.batch_size = 1;
        telemetry::record_request(&tl);
        telemetry::flight::record_timeline(&tl);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The `--attribution` gate for one model: ≥ 99% of its completed requests
/// must reconstruct a complete six-phase timeline, and the report must
/// name a dominant p99 phase.
fn assert_model_attribution(report: &attribution::AttributionReport, label: &str) {
    let m = report
        .model(label)
        .unwrap_or_else(|| panic!("attribution report has no model labeled {label}"));
    assert!(m.complete > 0, "{label}: no complete timelines recorded");
    let completeness = m.completeness();
    assert!(
        completeness >= 0.99,
        "{label}: only {:.2}% of completed requests reconstruct a full timeline \
         ({} complete, {} incomplete)",
        completeness * 100.0,
        m.complete,
        m.incomplete,
    );
    assert!(
        !m.dominant_p99.is_empty(),
        "{label}: attribution report must name the dominant p99 phase"
    );
    println!(
        "  attribution | {label}: {} timelines {:.2}% complete; dominant phase p50={} \
         p95={} p99={}",
        m.complete + m.incomplete,
        completeness * 100.0,
        m.dominant_p50,
        m.dominant_p95,
        m.dominant_p99,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
    let tiny = flag("--tiny");
    let json_mode = flag("--json");
    let attribution_mode = flag("--attribution");
    let overhead_pct: Option<f64> = opt("--assert-overhead-pct").and_then(|v| v.parse().ok());
    let seed: u64 = opt("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    let clients: usize = opt("--clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if tiny { 24 } else { 256 });
    let requests: usize =
        opt("--requests").and_then(|v| v.parse().ok()).unwrap_or(if tiny { 25 } else { 40 });

    let light_slo = ModelSlo::new(25.0, Duration::from_millis(25));
    let heavy_slo = ModelSlo::new(60.0, Duration::from_millis(60));
    println!(
        "SLO fleet benchmark: 4 heterogeneous engines, {clients} mixed clients x {requests} \
         requests, light SLO {:.0} ms / heavy SLO {:.0} ms, fault seed {seed}",
        light_slo.target_ms, heavy_slo.target_ms
    );

    if attribution_mode {
        attribution::reset_attribution();
        flight::reset_flight();
    }

    // ---- Phase 1: steady state under per-model SLOs -----------------------
    let fleet = build_fleet(None, None, light_slo.clone(), heavy_slo.clone());
    attribution::set_model_label(fleet.light, "light");
    attribution::set_model_label(fleet.heavy, "heavy");
    let (light_out, heavy_out, wall_s) = run_clients(&fleet, clients, requests);
    let steady = fleet.server.stats();
    assert_accounted(&steady, "steady");
    let served = light_out.latencies_ms.len() + heavy_out.latencies_ms.len();
    println!(
        "  steady   | {served} served in {wall_s:.2} s ({:.0} req/s) | light p99 {:.2} ms \
         (shed {}) | heavy p99 {:.2} ms (shed {})",
        served as f64 / wall_s,
        light_out.percentile(0.99),
        light_out.shed + light_out.deadline,
        heavy_out.percentile(0.99),
        heavy_out.shed + heavy_out.deadline,
    );
    assert_eq!(
        light_out.errors + heavy_out.errors,
        0,
        "steady phase must produce zero caller-visible errors"
    );
    for (name, out, slo) in
        [("light", &light_out, &light_slo), ("heavy", &heavy_out, &heavy_slo)]
    {
        assert!(
            !out.latencies_ms.is_empty(),
            "steady phase must admit and complete {name} requests"
        );
        let p99 = out.percentile(0.99);
        let bound = slo.target_ms + SERVICE_MARGIN_MS;
        assert!(
            p99 <= bound,
            "{name} admitted p99 {p99:.2} ms exceeds SLO envelope {bound:.1} ms \
             (target {:.0} ms + {SERVICE_MARGIN_MS:.0} ms service quantum)",
            slo.target_ms
        );
    }

    // ---- Phase 2: overload burst — sheds must be explicit -----------------
    let shed_triggers_before = flight::trigger_count("shed");
    let burst = 2 * FleetConfig::default().queue_capacity;
    let pending: Vec<_> = (0..burst)
        .map(|i| {
            fleet.server.submit_with_deadline(
                fleet.light,
                synthetic_example(LIGHT_IN, i),
                vec![LIGHT_IN],
                Duration::from_millis(5),
            )
        })
        .collect();
    let mut overload = Outcomes::default();
    let t0 = Instant::now();
    for p in pending {
        overload.record(p.wait(), 0.0);
    }
    let overload_stats = fleet.server.stats();
    assert_accounted(&overload_stats, "overload");
    println!(
        "  overload | burst {burst} with 5 ms deadline in {:.2} s: {} completed, {} shed, \
         {} deadline-rejected, {} errors",
        t0.elapsed().as_secs_f64(),
        overload.latencies_ms.len(),
        overload.shed,
        overload.deadline,
        overload.errors,
    );
    assert_eq!(overload.errors, 0, "overload must shed explicitly, never error");
    assert!(
        overload.shed + overload.deadline > 0,
        "a {burst}-request burst with a 5 ms deadline must shed explicitly"
    );
    if attribution_mode {
        // Exact flight-recorder accounting: every explicit shed in this
        // burst fired exactly one "shed" trigger (the fleet is otherwise
        // idle between phases, so the delta is exact).
        let shed_triggers = flight::trigger_count("shed") - shed_triggers_before;
        assert_eq!(
            shed_triggers, overload.shed,
            "flight recorder must count one shed trigger per observed shed"
        );
        if overload.shed > 0 {
            assert!(
                flight::snapshots().iter().any(|s| s.kind == "shed"),
                "a shed storm must capture at least one flight snapshot"
            );
        }
    }

    // ---- Phase 3: seeded faults — absorb, trip, recover -------------------
    // One engine loses its (restorable) WebGL context mid-traffic; another
    // straggles with seeded draw stalls. Deadlines are generous: the gate is
    // fault *absorption* — zero caller-visible errors — not tail latency.
    let trips_before = flight::trigger_count("breaker_trip");
    let degradations_before = flight::trigger_count("degradation");
    let ctx_draw = 20 + (seed % 8) * 9;
    let iris_plan = FaultPlan::none().lose_context_at(ctx_draw);
    let android_plan = FaultPlan { seed, ..FaultPlan::none() }.with_draw_stall(0.05, 2_000_000);
    let relaxed = ModelSlo::new(500.0, Duration::from_millis(500));
    let fault_fleet = build_fleet(Some(iris_plan), Some(android_plan), relaxed.clone(), relaxed);
    let fault_clients = if tiny { 8 } else { 32 };
    let fault_requests = if tiny { 30 } else { 60 };
    let (f_light, f_heavy, f_wall) = run_clients(&fault_fleet, fault_clients, fault_requests);
    assert_eq!(
        f_light.errors + f_heavy.errors,
        0,
        "seeded fault run (seed {seed}) must complete with zero caller-visible errors"
    );

    // The tripped engine must be re-admitted: poll until the breaker
    // re-closes (context restore + backend promotion + canary probes).
    let recovery_deadline = Instant::now() + Duration::from_secs(10);
    let fault_stats = loop {
        let stats = fault_fleet.server.stats();
        let iris = stats.engines.iter().find(|e| e.name == "iris").expect("iris engine");
        if stats.breaker_trips >= 1
            && stats.breaker_recloses >= 1
            && iris.breaker.state == BreakerState::Closed
        {
            break stats;
        }
        assert!(
            Instant::now() < recovery_deadline,
            "tripped engine was not re-admitted within 10 s (seed {seed}): trips {}, \
             recloses {}, iris {:?}",
            stats.breaker_trips,
            stats.breaker_recloses,
            iris.breaker.state,
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_accounted(&fault_stats, "fault");
    println!(
        "  faults   | seed {seed}: {} served in {f_wall:.2} s, {} degradations, {} trips, \
         {} recloses, {} rerouted, 0 caller-visible errors; tripped engine re-admitted",
        f_light.latencies_ms.len() + f_heavy.latencies_ms.len(),
        fault_stats.degradations,
        fault_stats.breaker_trips,
        fault_stats.breaker_recloses,
        fault_stats.rerouted,
    );

    let mut attribution_json = serde_json::Value::Null;
    let mut overhead_json = serde_json::Value::Null;
    if attribution_mode {
        // Every breaker trip and degradation in the fault phase must have
        // fired the flight recorder, and the seeded trip must have produced
        // an inspectable snapshot.
        let trip_triggers = flight::trigger_count("breaker_trip") - trips_before;
        assert!(
            trip_triggers >= fault_stats.breaker_trips,
            "flight recorder saw {trip_triggers} breaker-trip triggers for \
             {} observed trips",
            fault_stats.breaker_trips,
        );
        let degradation_triggers = flight::trigger_count("degradation") - degradations_before;
        assert!(
            degradation_triggers >= 1,
            "seeded context loss (seed {seed}) must fire a degradation trigger"
        );
        let snaps = flight::snapshots();
        let trip_snap = snaps
            .iter()
            .find(|s| s.kind == "breaker_trip")
            .expect("seeded breaker trip must capture a flight snapshot");
        assert!(
            trip_snap.context.get("engines").is_some(),
            "breaker-trip snapshot must carry the fleet context"
        );
        assert!(
            trip_snap.entries.iter().any(|e| e.kind == "request"),
            "breaker-trip snapshot must see recent request timelines in the ring"
        );
        flight::write_snapshots("FLIGHT_SNAPSHOT.json").expect("write FLIGHT_SNAPSHOT.json");
        println!(
            "  flight   | {} shed / {} breaker-trip / {} degradation triggers, {} snapshots \
             retained; wrote FLIGHT_SNAPSHOT.json",
            flight::trigger_count("shed"),
            flight::trigger_count("breaker_trip"),
            flight::trigger_count("degradation"),
            flight::snapshot_count(),
        );

        let report = attribution::attribution_report();
        assert_model_attribution(&report, "light");
        assert_model_attribution(&report, "heavy");
        attribution_json = report.to_json();
    }

    if let Some(limit_pct) = overhead_pct {
        // The overhead gate: per-request instrumentation cost with tracing
        // disabled, as a fraction of the steady-phase light-model p50.
        // Measured after the report is built so the synthetic model never
        // appears in it.
        let iters = 200_000u64;
        let per_request_ns = instrumentation_overhead_ns(iters);
        let p50_ns = light_out.percentile(0.50) * 1e6;
        assert!(p50_ns > 0.0, "overhead gate needs a steady-phase p50");
        let pct = per_request_ns / p50_ns * 100.0;
        println!(
            "  overhead | {per_request_ns:.0} ns/request instrumentation over {iters} iters \
             = {pct:.4}% of steady light p50 ({:.3} ms) — limit {limit_pct}%",
            p50_ns / 1e6,
        );
        assert!(
            pct <= limit_pct,
            "tracing-disabled instrumentation overhead {pct:.3}% exceeds {limit_pct}% \
             of steady p50"
        );
        overhead_json = json!({
            "iterations": iters,
            "per_request_ns": per_request_ns,
            "steady_light_p50_ms": p50_ns / 1e6,
            "overhead_pct": pct,
            "limit_pct": limit_pct,
        });
    }

    if json_mode {
        let doc = json!({
            "bench": "SLO-aware fleet serving: admission, deadlines, shedding, circuit breaking",
            "fleet": ["gtx_1080 x16", "intel_iris_pro x4", "android_modern x2", "cpu x1"],
            "clients": clients,
            "requests_per_client": requests,
            "slo": {
                "light_target_ms": light_slo.target_ms,
                "heavy_target_ms": heavy_slo.target_ms,
                "service_margin_ms": SERVICE_MARGIN_MS,
            },
            "steady": {
                "wall_s": wall_s,
                "models": [light_out.to_json("light"), heavy_out.to_json("heavy")],
                "stats": stats_json(&steady),
            },
            "overload": {
                "burst": burst,
                "outcomes": overload.to_json("light"),
                "stats": stats_json(&overload_stats),
            },
            "faults": {
                "seed": seed,
                "context_loss_at_draw": ctx_draw,
                "models": [f_light.to_json("light"), f_heavy.to_json("heavy")],
                "stats": stats_json(&fault_stats),
            },
            "attribution": attribution_json,
            "instrumentation_overhead": overhead_json,
        });
        let text = serde_json::to_string_pretty(&doc).expect("serialize");
        std::fs::write("BENCH_SLO.json", text).expect("write BENCH_SLO.json");
        println!("\nwrote BENCH_SLO.json");
    }
    println!("all SLO gates passed");
}
