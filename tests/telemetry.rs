//! End-to-end telemetry: concurrent profiling correctness, Chrome trace
//! round-trip over a served webgl workload, and device-timer fallback on
//! simulated devices without `EXT_disjoint_timer_query`.

use std::sync::Arc;
use std::time::Duration;
use webml::backend_webgl::{WebGlBackend, WebGlConfig};
use webml::models::serving::{classifier_artifacts, synthetic_example};
use webml::serve::{EngineSpec, FleetConfig, FleetServer, ModelSlo, ModelSource};
use webml::webgl_sim::devices::DeviceProfile;
use webml::{ops, Engine};

/// Tracing is process-global: the tests that enable, clear and export it
/// take turns, or one's `clear` / `set_enabled(false)` cuts into the
/// other's trace.
static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn webgl_engine(profile: DeviceProfile) -> Engine {
    let e = Engine::new();
    let b = WebGlBackend::new(profile, WebGlConfig::default())
        .expect("profile supports float textures");
    e.register_backend("webgl", Arc::new(b), 2);
    e
}

/// A fleet of one engine (worker thread `webml-fleet-only`) batching up to
/// `max_batch` within a 50 ms window.
fn fleet_of_one(engine: &Engine, max_batch: usize) -> FleetServer {
    let max_wait = Duration::from_millis(50);
    let config = FleetConfig { max_batch, max_wait, cache_capacity: 2, ..Default::default() };
    FleetServer::new(vec![EngineSpec::new("only", engine, 8)], config)
}

/// An SLO nothing in these tests can miss.
fn unmissable() -> ModelSlo {
    ModelSlo::new(1_000.0, Duration::from_secs(10))
}

/// Satellite: `Engine::profile` must stay exact under concurrent kernel
/// traffic — the per-thread-striped collector may not lose or duplicate a
/// single kernel. 8 threads × 10 iterations × (Add, Mul, Relu).
#[test]
fn concurrent_profiling_counts_every_kernel_exactly() {
    let e = webml::new_engine();
    e.set_backend("cpu").unwrap();
    const THREADS: usize = 8;
    const ITERS: usize = 10;
    let (_, info) = e.profile(|| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let e = e.clone();
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        let a = e.fill([32], (t * ITERS + i) as f32, webml::DType::F32).unwrap();
                        let b = ops::add(&a, &a).unwrap();
                        let c = ops::mul(&b, &a).unwrap();
                        let d = ops::relu(&c).unwrap();
                        for t in [a, b, c, d] {
                            t.dispose();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let count = |name: &str| info.kernels.iter().filter(|k| k.name == name).count();
    assert_eq!(count("Add"), THREADS * ITERS, "every Add recorded exactly once");
    assert_eq!(count("Mul"), THREADS * ITERS);
    assert_eq!(count("Relu"), THREADS * ITERS);
    // `fill` registers data without a kernel dispatch, so the log holds
    // exactly the three op kernels per iteration — no loss, no duplicates.
    assert_eq!(info.kernels.len(), 3 * THREADS * ITERS, "kernel log is exact");
    assert!(info.new_tensors >= 4 * THREADS * ITERS, "every output tensor counted");
    assert!(info.kernels.iter().all(|k| k.wall_ms >= 0.0));
}

/// Tentpole: a served webgl workload exports a Chrome trace that parses
/// back with per-thread tracks, kernel spans nested inside the serve
/// span that dispatched them, and a virtual GPU track.
#[test]
fn chrome_trace_roundtrip_from_served_traffic() {
    let _tracing = TRACING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let engine = webgl_engine(DeviceProfile::intel_iris_pro());
    let artifacts = classifier_artifacts(&engine, 16, 32, 4, 3).expect("build model");
    let mut fleet = fleet_of_one(&engine, 8);
    let key = fleet.register(ModelSource::Artifacts(artifacts), unmissable());
    // Warm up untraced so the trace captures steady-state serving.
    fleet.infer(key, synthetic_example(16, 0), vec![16]).expect("warmup");

    webml::telemetry::clear();
    webml::telemetry::set_enabled(true);
    let pending: Vec<_> =
        (0..8).map(|i| fleet.submit(key, synthetic_example(16, i), vec![16])).collect();
    for p in pending {
        p.wait().expect("served inference");
    }
    fleet.shutdown();
    webml::telemetry::set_enabled(false);

    let text = webml::telemetry::chrome_trace_json();
    let doc: serde_json::Value = serde_json::from_str(&text).expect("trace parses back");
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents");

    // The trace-event schema: every event names itself and its phase and
    // sits on a process and thread track; phases are metadata, complete
    // spans or instants.
    for e in events {
        assert!(e.get("name").is_some_and(|n| n.is_string()), "event without a name: {e:?}");
        let ph = e.get("ph").and_then(|p| p.as_str()).unwrap_or_else(|| panic!("no ph: {e:?}"));
        assert!(["M", "X", "i"].contains(&ph), "unexpected phase {ph}: {e:?}");
        assert!(e.get("pid").is_some() && e.get("tid").is_some(), "event off-track: {e:?}");
    }

    // Thread tracks: metadata for the GPU track plus at least the engine
    // worker and device threads.
    let thread_names: Vec<(&serde_json::Value, &str)> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("M")
                && e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
        })
        .map(|e| {
            (
                e.get("tid").expect("meta tid"),
                e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()).unwrap_or(""),
            )
        })
        .collect();
    assert!(thread_names.len() >= 3, "GPU + worker + device tracks: {thread_names:?}");
    assert!(thread_names.iter().any(|(_, n)| n.contains("GPU")), "virtual GPU track declared");
    assert!(
        thread_names.iter().any(|(_, n)| n.contains("webml-fleet-only")),
        "engine worker thread named: {thread_names:?}"
    );
    let gpu_tid = thread_names.iter().find(|(_, n)| n.contains("GPU")).map(|(t, _)| *t).unwrap();

    let spans: Vec<&serde_json::Value> =
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    let field = |e: &serde_json::Value, k: &str| e.get(k).and_then(|v| v.as_f64()).unwrap();

    // A pass the worker submitted: the pipelined worker is two-phase, so
    // the submit span (`fleet.batch` for a coalesced pass, `fleet.single`
    // for a pass of one) carries the engine kernel spans it enqueued nested
    // inside (same track, contained interval) and a matching completion
    // span replies after the fence.
    assert!(
        spans.iter().any(|e| e.get("name").and_then(|n| n.as_str()) == Some("fleet.complete")),
        "a fleet.complete span (pipelined completion phase)"
    );
    let batch = spans
        .iter()
        .find(|e| {
            let name = e.get("name").and_then(|n| n.as_str());
            name == Some("fleet.batch") || name == Some("fleet.single")
        })
        .expect("a fleet.batch or fleet.single span (8 submits, max_batch 8)");
    let batch_tid = batch.get("tid").expect("span tid");
    let (b0, b1) = (field(batch, "ts"), field(batch, "ts") + field(batch, "dur"));
    let nested_kernels = spans
        .iter()
        .filter(|e| {
            e.get("cat").and_then(|c| c.as_str()) == Some("kernel")
                && e.get("tid") == Some(batch_tid)
                && field(e, "ts") >= b0
                && field(e, "ts") + field(e, "dur") <= b1 + 1.0
        })
        .count();
    assert!(nested_kernels >= 3, "MLP kernels nest inside the batch span, got {nested_kernels}");

    // The GPU track carries device spans annotated with timer-query time.
    let gpu_spans: Vec<_> = spans.iter().filter(|e| e.get("tid") == Some(gpu_tid)).collect();
    assert!(!gpu_spans.is_empty(), "device work appears on the GPU track");
    assert!(gpu_spans.iter().all(|e| {
        e.get("args").and_then(|a| a.get("modeled_device_ns")).and_then(|v| v.as_f64()).unwrap_or(-1.0)
            > 0.0
    }));

    // Each fence closes a utilization window: a busy/wall gauge instant.
    let utilization: Vec<&serde_json::Value> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("i")
                && e.get("name").and_then(|n| n.as_str()) == Some("device_utilization")
        })
        .collect();
    assert!(
        utilization.iter().any(|e| e.get("tid") == Some(gpu_tid)),
        "device_utilization instants on the GPU track"
    );
    for e in &utilization {
        let u = e.get("args").and_then(|a| a.get("utilization")).and_then(|v| v.as_f64());
        assert!(u.is_some_and(|u| (0.0..=1.0).contains(&u)), "utilization outside [0, 1]: {e:?}");
    }
}

/// Tentpole (PR-9): every request served with tracing on reconstructs a
/// complete causal lane from one trace id — every `serve`-category span
/// carries the id, a `serve.request` envelope brackets each request, all
/// spans sharing an envelope's id nest inside it, GPU spans inherit the
/// id across the device-thread boundary, and the attribution table holds
/// a complete six-phase timeline for every admitted request.
#[test]
fn request_scoped_tracing_reconstructs_causal_lanes() {
    let _tracing = TRACING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let engine = webgl_engine(DeviceProfile::intel_iris_pro());
    // Unique layer geometry: model keys are content hashes and the
    // attribution table is process-global, so these params must differ
    // from every other test in this binary.
    let artifacts = classifier_artifacts(&engine, 24, 48, 5, 9).expect("build model");
    let mut fleet = fleet_of_one(&engine, 4);
    let key = fleet.register(ModelSource::Artifacts(artifacts), unmissable());
    // Warm up untraced so the model build stays out of the trace window.
    fleet.infer(key, synthetic_example(24, 0), vec![24]).expect("warmup");

    const REQUESTS: usize = 12;
    webml::telemetry::clear();
    webml::telemetry::set_enabled(true);
    let pending: Vec<_> = (0..REQUESTS)
        .map(|i| fleet.submit(key, synthetic_example(24, i + 1), vec![24]))
        .collect();
    for p in pending {
        p.wait().expect("served inference");
    }
    fleet.shutdown();
    webml::telemetry::set_enabled(false);

    let text = webml::telemetry::chrome_trace_json();
    let doc: serde_json::Value = serde_json::from_str(&text).expect("trace parses back");
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents");
    let gpu_tid = events
        .iter()
        .find(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("M")
                && e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .is_some_and(|n| n.contains("GPU"))
        })
        .and_then(|e| e.get("tid"))
        .expect("virtual GPU track declared");

    let trace_id = |e: &serde_json::Value| {
        e.get("args").and_then(|a| a.get("trace_id")).and_then(|v| v.as_u64()).unwrap_or(0)
    };
    let spans: Vec<&serde_json::Value> =
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    let extent = |e: &serde_json::Value| {
        let ts = e.get("ts").and_then(|v| v.as_f64()).unwrap();
        (ts, ts + e.get("dur").and_then(|v| v.as_f64()).unwrap())
    };

    // No anonymous serve work: every serving-layer span carries its
    // request's (or batch's / dispatch pass's) trace id.
    let mut serve_spans = 0usize;
    for e in &spans {
        if e.get("cat").and_then(|c| c.as_str()) == Some("serve") {
            serve_spans += 1;
            assert!(trace_id(e) > 0, "serve span without a trace id: {e:?}");
        }
    }
    assert!(serve_spans > 0, "trace carries serve-layer spans");

    // One `serve.request` envelope per admitted request, and every span
    // sharing an envelope's id nests inside it (half a microsecond-tick
    // of export-rounding slack).
    let mut envelopes = std::collections::HashMap::new();
    let mut request_envelopes = 0usize;
    for e in &spans {
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or("");
        if name == "serve.request" || name == "serve.batch" || name == "fleet.dispatch" {
            if name == "serve.request" {
                request_envelopes += 1;
            }
            let (s, t) = extent(e);
            let entry = envelopes.entry(trace_id(e)).or_insert((s, t));
            entry.0 = entry.0.min(s);
            entry.1 = entry.1.max(t);
        }
    }
    assert_eq!(request_envelopes, REQUESTS, "one serve.request envelope per traced request");
    let mut nested = 0usize;
    for e in &spans {
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or("");
        let id = trace_id(e);
        if id == 0 || name == "serve.request" || name == "serve.batch" || name == "fleet.dispatch" {
            continue;
        }
        let Some((env_start, env_end)) = envelopes.get(&id) else { continue };
        let (s, t) = extent(e);
        assert!(
            s >= env_start - 0.002 && t <= env_end + 0.002,
            "span {name} [{s:.3}, {t:.3}] us escapes envelope [{env_start:.3}, {env_end:.3}] \
             us of trace id {id}"
        );
        nested += 1;
    }
    assert!(nested > 0, "traced spans nest inside their request/batch envelopes");

    // The trace id crosses the device-thread boundary: GPU spans emitted
    // by the simulated device loop carry the id captured at enqueue time.
    let traced_gpu = spans
        .iter()
        .filter(|e| e.get("tid") == Some(gpu_tid) && trace_id(e) > 0)
        .count();
    assert!(traced_gpu > 0, "GPU spans inherit the submitting request's trace id");

    // Attribution: every request for this model (warmup included)
    // reconstructed a complete six-phase timeline — zero incomplete.
    let (complete, incomplete) = webml::telemetry::attribution::model_counts(key);
    assert_eq!(incomplete, 0, "every admitted request yields a complete phase timeline");
    assert!(
        complete >= REQUESTS as u64,
        "all {REQUESTS} traced requests attributed, got {complete}"
    );
}

/// Device-timer plumbing: profiles report device `kernel_ms` when the
/// simulated device has `EXT_disjoint_timer_query`, and degrade to `None`
/// (never garbage) when it does not; `tf.time` reads the same timer, so it
/// agrees: a device time with one, NaN without.
#[test]
fn profile_device_time_degrades_without_timer_extension() {
    let matmul = |e: &Engine| {
        let a = e.fill([64, 64], 1.5, webml::DType::F32).unwrap();
        let b = ops::matmul(&a, &a, false, false).unwrap();
        b.to_f32_vec().unwrap();
        a.dispose();
        b.dispose();
    };
    // intel_iris_pro advertises the extension → Some(kernel_ms).
    let with_timer = webgl_engine(DeviceProfile::intel_iris_pro());
    let (_, info) = with_timer.profile(|| matmul(&with_timer));
    assert!(!info.kernels.is_empty());
    assert!(
        info.kernels.iter().all(|k| k.kernel_ms.is_some()),
        "every kernel carries device time on a timer-query device"
    );
    let device_total: f64 = info.kernels.iter().filter_map(|k| k.kernel_ms).sum();
    assert!(device_total > 0.0, "draw-call overhead alone makes device time positive");
    let (_, timed) = with_timer.time(|| matmul(&with_timer));
    assert!(timed.kernel_ms > 0.0, "tf.time reads the timer: {timed:?}");

    // android_modern lacks the extension → graceful None, wall time intact.
    let no_timer = webgl_engine(DeviceProfile::android_modern());
    let (_, info) = no_timer.profile(|| matmul(&no_timer));
    assert!(!info.kernels.is_empty());
    assert!(
        info.kernels.iter().all(|k| k.kernel_ms.is_none()),
        "no disjoint-timer-query extension → kernel_ms must be None"
    );
    assert!(info.kernels.iter().all(|k| k.wall_ms >= 0.0), "wall timing still reported");
    let (_, timed) = no_timer.time(|| matmul(&no_timer));
    assert!(timed.kernel_ms.is_nan(), "no timer → NaN, not a modelled number: {timed:?}");
    assert!(timed.wall_ms > 0.0);
}
