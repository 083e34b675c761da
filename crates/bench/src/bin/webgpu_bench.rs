//! Benchmarks the **WebGPU compute backend against the WebGL rung** it
//! sits above on the degradation ladder (paper Sec 4.3: compute APIs with
//! work groups and shared memory should close most of the Sec 3.9 WebGL
//! gap). Both backends run the same MobileNet workload on the same device
//! profile; the reported metric is *simulated device time* (the `tf.time`
//! kernel metric), so the ratio isolates the programming model — tiled
//! shared-memory compute pipelines vs one-output-per-invocation fragment
//! shaders — not host parallelism.
//!
//! ```text
//! cargo run --release -p webml-bench --bin webgpu_bench [-- --tiny]
//!     [-- --runs N] [-- --json]
//! ```
//!
//! `--json` writes `BENCH_WEBGPU.json`. The bin also checks the WebGPU
//! output against the reference CPU backend **bitwise** (the backend's
//! kernels accumulate in the reference order), and exits non-zero when the
//! speedup falls under the gate: every row must clear 2x, and on the
//! default MobileNet-class workload the integrated-GPU row — the paper's
//! Table 1 WebGL comparison point, where missing shared memory hurts most
//! — must clear 3x. (A discrete profile's raw core count hides part of
//! WebGL's algorithmic handicap, exactly as Sec 3.9's 3-10x range implies.)

use serde_json::{json, Value};
use std::sync::Arc;
use webml_bench::harness::{
    bench_mobilenet_config, mean_kernel_ms, mobilenet_workload, tiny_mobilenet_config, TableBackend,
};
use webml_core::cpu::CpuBackend;
use webml_core::Engine;
use webml_models::MobileNetConfig;

struct ProfileRow {
    profile: &'static str,
    webgl_ms: f64,
    webgpu_ms: f64,
    webgl_programs: u64,
    webgpu_dispatches: u64,
}

/// Simulated device ms per inference and device programs over the timed
/// runs, on one Table 1 GPU row.
fn measure(backend: TableBackend, config: MobileNetConfig, runs: usize) -> (f64, u64) {
    let (engine, programs) = backend.engine();
    let programs = programs.expect("a GPU row counts its programs");
    let (mut net, input) = mobilenet_workload(&engine, config);
    let before = programs();
    let ms = mean_kernel_ms(&engine, &mut net, &input, runs);
    (ms, programs() - before)
}

fn measure_profile(
    label: &'static str,
    [webgl, webgpu]: [TableBackend; 2],
    config: MobileNetConfig,
    runs: usize,
) -> ProfileRow {
    let (webgl_ms, webgl_programs) = measure(webgl, config, runs);
    let (webgpu_ms, webgpu_dispatches) = measure(webgpu, config, runs);
    ProfileRow { profile: label, webgl_ms, webgpu_ms, webgl_programs, webgpu_dispatches }
}

/// One inference on each backend from identical seeded weights; the WebGPU
/// logits must equal the CPU reference **bitwise**.
fn check_cpu_parity(config: MobileNetConfig) -> usize {
    let cpu_engine = Engine::new();
    cpu_engine.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    let (mut cpu_net, cpu_input) = mobilenet_workload(&cpu_engine, config);
    let reference = cpu_net.infer(&cpu_input).expect("cpu inference");
    let reference = reference.to_f32_vec().expect("cpu readback");

    let (gpu_engine, _) = TableBackend::WebGpuIntegrated.engine();
    let (mut gpu_net, gpu_input) = mobilenet_workload(&gpu_engine, config);
    let out = gpu_net.infer(&gpu_input).expect("webgpu inference");
    let out = out.to_f32_vec().expect("webgpu readback");

    assert_eq!(out, reference, "webgpu logits must match the cpu reference bitwise");
    reference.len()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let json_mode = args.iter().any(|a| a == "--json");
    let runs: usize = args
        .iter()
        .position(|a| a == "--runs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if tiny { 3 } else { 5 });
    let config = if tiny { tiny_mobilenet_config() } else { bench_mobilenet_config() };
    // Every row must clear the floor; on the full workload the integrated
    // row (first) must additionally clear the paper-gap 3x.
    let floor = 2.0;
    let integrated_gate = if tiny { 2.0 } else { 3.0 };

    println!(
        "MobileNet v1 alpha={} input={}x{}x3, simulated device ms over {} runs",
        config.alpha, config.input_size, config.input_size, runs
    );
    let logits = check_cpu_parity(config);
    println!("cpu bit-parity: OK ({logits} logits identical)\n");

    let rows = vec![
        measure_profile(
            "integrated (Intel Iris Pro-class)",
            [TableBackend::WebGlIntegrated, TableBackend::WebGpuIntegrated],
            config,
            runs,
        ),
        measure_profile(
            "discrete (GTX 1080-class)",
            [TableBackend::WebGlDiscrete, TableBackend::WebGpuDiscrete],
            config,
            runs,
        ),
    ];
    println!("| Profile | WebGL (ms) | WebGPU (ms) | Speedup | Draws -> Dispatches |");
    println!("|---|---|---|---|---|");
    let mut worst = f64::INFINITY;
    for row in &rows {
        let speedup = row.webgl_ms / row.webgpu_ms;
        worst = worst.min(speedup);
        println!(
            "| {} | {:.3} | {:.3} | {:.1}x | {} -> {} |",
            row.profile, row.webgl_ms, row.webgpu_ms, speedup, row.webgl_programs, row.webgpu_dispatches
        );
    }

    if json_mode {
        let doc = json!({
            "bench": "WebGPU compute backend vs WebGL rung, simulated device time",
            "workload": {
                "alpha": config.alpha,
                "input_size": config.input_size,
                "classes": config.classes,
                "runs": runs,
                "tiny": tiny,
            },
            "cpu_bit_parity": true,
            "gate_speedup_floor": floor,
            "gate_speedup_integrated": integrated_gate,
            "rows": rows.iter().map(|r| json!({
                "profile": r.profile,
                "webgl_simulated_ms": r.webgl_ms,
                "webgpu_simulated_ms": r.webgpu_ms,
                "speedup": r.webgl_ms / r.webgpu_ms,
                "webgl_programs": r.webgl_programs,
                "webgpu_dispatches": r.webgpu_dispatches,
            })).collect::<Vec<Value>>(),
        });
        let text = serde_json::to_string_pretty(&doc).expect("serialize");
        std::fs::write("BENCH_WEBGPU.json", text).expect("write BENCH_WEBGPU.json");
        println!("\nwrote BENCH_WEBGPU.json");
    }

    println!(
        "\npaper Sec 3.9 attributes the 3-10x WebGL-vs-CUDA gap to missing work\n\
         groups/shared memory; Sec 4.3 predicts compute APIs recover it."
    );
    let integrated = rows[0].webgl_ms / rows[0].webgpu_ms;
    if worst < floor || integrated < integrated_gate {
        eprintln!(
            "FAIL: speedups (integrated {integrated:.2}x, worst {worst:.2}x) miss the gate \
             (integrated >= {integrated_gate:.1}x, all rows >= {floor:.1}x)"
        );
        std::process::exit(1);
    }
    println!(
        "gate: integrated {integrated:.2}x >= {integrated_gate:.1}x, worst {worst:.2}x >= {floor:.1}x — OK"
    );
}
