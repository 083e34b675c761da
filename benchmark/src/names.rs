//! The one table of workload and metric names. `BENCHMARK.json` repeats
//! it (the driver reads only that file) and `tests/smoke.rs` fails when the
//! two disagree, so a name is added here first.

/// Which way is better for a metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// `(name, one-line reason)` of every workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "infer_webgl",
        "one caller, planned f32 MobileNet on the webgl rung: converter plan + backend-webgl + webgl-sim do the work",
    ),
    (
        "infer_webgpu_u8",
        "same net with U8 weights on the webgpu rung, two requests in flight: the async + quantized kernel family",
    ),
    (
        "train_native",
        "one caller, Sequential conv-net fit steps on native: eager dispatch, tape, tidy churn; converter and sims bypassed",
    ),
    (
        "serve_fleet",
        "FleetServer over a webgl and a native engine, light:heavy 3:1, open loop at 300 req/s then closed loop",
    ),
];

use Better::{Higher, Lower};

/// What a user of the system sees. Printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 5] = [
    m("setup_s", "s", Lower),
    m("first_result_ms", "ms", Lower),
    m("op_p50_ms", "ms", Lower),
    m("ops_per_s", "1/s", Higher),
    m("peak_bytes", "bytes", Lower),
];

/// Single layers, named `<crate>.<metric>`. Printed with `--trace 1`; a
/// metric whose layer a workload bypasses reads 0 there.
pub const PER_LAYER: [MetricDef; 85] = [
    // Whole-run counts that are 0 on a healthy tree, so they cannot carry a
    // relative bound; a non-zero value also makes the run `correct: false`.
    m("failed_share", "share", Lower),
    m("leaked_tensors", "count", Lower),
    // Tails and sample counts of the traced pass.
    m("op_p50_raw_ms", "ms", Lower),
    m("op_p99_ms", "ms", Lower),
    m("op_samples", "count", Higher),
    m("first_result_samples", "count", Higher),
    // core
    m("core.kernels_per_op", "count", Lower),
    m("core.kernel_wall_ms_per_op", "ms", Lower),
    m("core.unattributed_ms_per_op", "ms", Lower),
    m("core.upload_ms_per_op", "ms", Lower),
    m("core.readback_ms_per_op", "ms", Lower),
    m("core.value_and_grads_ms_per_op", "ms", Lower),
    m("core.new_tensors_per_op", "count", Lower),
    m("core.new_bytes_per_op", "bytes", Lower),
    m("core.peak_tensors", "count", Lower),
    m("core.cpu_oracle_ms", "ms", Lower),
    // webgl-sim, backend-webgl
    m("webgl-sim.programs_per_op", "count", Lower),
    m("webgl-sim.device_busy_ms_per_op", "ms", Lower),
    m("webgl-sim.device_busy_share", "share", Higher),
    m("webgl-sim.modeled_device_ms_per_op", "ms", Lower),
    m("webgl-sim.fence_wait_ms_per_op", "ms", Lower),
    m("webgl-sim.drains_per_op", "count", Lower),
    m("webgl-sim.recycler_hit_share", "share", Higher),
    m("webgl-sim.page_outs", "count", Lower),
    m("webgl-sim.programs_compiled", "count", Lower),
    m("backend-webgl.fused_fallbacks", "count", Lower),
    m("backend-webgl.create_ms", "ms", Lower),
    // webgpu-sim, backend-webgpu
    m("webgpu-sim.dispatches_per_op", "count", Lower),
    m("webgpu-sim.device_busy_ms_per_op", "ms", Lower),
    m("webgpu-sim.device_busy_share", "share", Higher),
    m("webgpu-sim.modeled_device_ms_per_op", "ms", Lower),
    m("webgpu-sim.fence_wait_ms_per_op", "ms", Lower),
    m("webgpu-sim.recycler_hit_share", "share", Higher),
    m("webgpu-sim.pipelines_compiled", "count", Lower),
    m("backend-webgpu.fused_fallbacks", "count", Lower),
    m("backend-webgpu.create_ms", "ms", Lower),
    // backend-native
    m("backend-native.kernel_wall_ms_per_op", "ms", Lower),
    m("backend-native.threads", "count", Higher),
    m("backend-native.speedup_vs_1thread", "x", Higher),
    m("backend-native.speedup_samples", "count", Higher),
    // converter
    m("converter.load_ms", "ms", Lower),
    m("converter.quantize_ms", "ms", Lower),
    m("converter.plan_compile_ms", "ms", Lower),
    m("converter.weight_bytes", "bytes", Lower),
    m("converter.execute_ms_per_op", "ms", Lower),
    m("converter.plan_hit_share", "share", Higher),
    m("converter.plan_fallbacks", "count", Lower),
    m("converter.planned_ops", "count", Lower),
    m("converter.fused_nodes", "count", Higher),
    m("converter.inflight_mean", "count", Higher),
    m("converter.predicted_peak_bytes", "bytes", Lower),
    m("converter.u8_drift_max", "abs", Lower),
    // layers, models, data
    m("layers.forward_ms_per_op", "ms", Lower),
    m("layers.backward_ms_per_op", "ms", Lower),
    m("layers.optimizer_ms_per_op", "ms", Lower),
    m("layers.build_ms", "ms", Lower),
    m("models.build_spec_ms", "ms", Lower),
    m("data.synthesize_ms", "ms", Lower),
    // serve
    m("serve.phase_p50_ms.admission", "ms", Lower),
    m("serve.phase_p50_ms.queue", "ms", Lower),
    m("serve.phase_p50_ms.batch_form", "ms", Lower),
    m("serve.phase_p50_ms.upload", "ms", Lower),
    m("serve.phase_p50_ms.compute", "ms", Lower),
    m("serve.phase_p50_ms.readback", "ms", Lower),
    m("serve.submit_ms_per_op", "ms", Lower),
    m("serve.wait_ms_per_op", "ms", Lower),
    m("serve.queue_wait_p50_ms", "ms", Lower),
    m("serve.gen_late_p99_ms", "ms", Lower),
    m("serve.light_p99_ms", "ms", Lower),
    m("serve.heavy_p50_ms", "ms", Lower),
    m("serve.heavy_p99_ms", "ms", Lower),
    m("serve.latency_p99_ms", "ms", Lower),
    m("serve.batch_size_mean", "count", Higher),
    m("serve.engine_share.iris", "share", Higher),
    m("serve.engine_share.native", "share", Higher),
    m("serve.shed_share", "share", Lower),
    m("serve.deadline_rejected_share", "share", Lower),
    m("serve.rerouted", "count", Lower),
    m("serve.accounting_gap", "count", Lower),
    // telemetry
    m("telemetry.trace_overhead_pct", "%", Lower),
    m("telemetry.events_per_op", "count", Lower),
    m("telemetry.dropped_events", "count", Lower),
    // host context, never a layer: shows a run that sat in the slow state
    m("host.speed", "x", Higher),
    m("host.cores", "count", Higher),
    m("host.traced_seconds", "s", Higher),
];
