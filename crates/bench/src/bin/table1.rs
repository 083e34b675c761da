//! Regenerates **Table 1** of the paper: single-inference MobileNet v1
//! latency per backend, with speedups over the plain-JS baseline.
//!
//! ```text
//! cargo run --release -p webml-bench --bin table1 [-- --full] [-- --tiny]
//!     [-- --runs N] [-- --json]
//! ```
//!
//! The default workload is MobileNet α=0.25 at 96x96 (see
//! `harness::bench_mobilenet_config`); `--full` runs the paper's exact
//! α=1.0 224x224 configuration (slow on the interpreter-style baseline) and
//! `--tiny` the 48x48 CI-smoke configuration. `--json` additionally measures
//! every row with kernel fusion disabled and writes `BENCH_TABLE1.json`
//! (per-row ms, speedups, and device program counts, fused vs unfused) to
//! the current directory, plus one derived section, `gaps`:
//! `gap_webgl_native` / `gap_webgpu_native` — simulated device time of each
//! GPU rung relative to the modeled CUDA-class row on the same discrete-GPU
//! profile. The paper's Sec 3.9 gap is WebGL's 3-10x; Sec 4.3 predicts
//! compute shaders close most of it, so `gap_webgpu_native` must land below
//! `gap_webgl_native`: `--json` exits non-zero when it does not (the
//! `bench-smoke` CI job runs it).

use serde_json::{json, Value};
use webml_bench::harness::{
    bench_mobilenet_config, measure_row, print_speedup_table, tiny_mobilenet_config, TableBackend,
};
use webml_models::MobileNetConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let tiny = args.iter().any(|a| a == "--tiny");
    let json_mode = args.iter().any(|a| a == "--json");
    let runs: usize = args
        .iter()
        .position(|a| a == "--runs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full { 3 } else { 10 });

    let config = if full {
        MobileNetConfig::paper_table1()
    } else if tiny {
        tiny_mobilenet_config()
    } else {
        bench_mobilenet_config()
    };
    println!(
        "MobileNet v1 alpha={} input={}x{}x3, single inference averaged over {} runs",
        config.alpha, config.input_size, config.input_size, runs
    );

    let mut rows = Vec::new();
    let mut json_rows: Vec<Value> = Vec::new();
    let mut base_ms = None;
    let mut fused_by_backend: Vec<(TableBackend, f64)> = Vec::new();
    for backend in TableBackend::all() {
        let fused = measure_row(backend, config, runs, true);
        fused_by_backend.push((backend, fused.ms));
        println!("  {:<40} {:>10.2} ms  [{}]", backend.label(), fused.ms, fused.method);
        rows.push((format!("{} ({})", backend.label(), fused.method), fused.ms));
        let base = *base_ms.get_or_insert(fused.ms);
        if json_mode {
            let unfused = measure_row(backend, config, runs, false);
            let programs = |p: Option<u64>| p.map(|v| json!(v)).unwrap_or(Value::Null);
            json_rows.push(json!({
                "backend": backend.label(),
                "method": fused.method,
                "fused_ms": fused.ms,
                "unfused_ms": unfused.ms,
                "speedup_vs_baseline": base / fused.ms,
                "fusion_time_ratio": unfused.ms / fused.ms,
                "fused_programs": programs(fused.programs),
                "unfused_programs": programs(unfused.programs),
            }));
        }
    }
    print_speedup_table("Table 1: backend speedups over the plain-JS baseline", &rows);
    if json_mode {
        let ms_of = |which: TableBackend| {
            fused_by_backend
                .iter()
                .find(|(b, _)| *b == which)
                .map(|(_, ms)| *ms)
                .expect("row measured")
        };
        // Gap rows: both GPU rungs against the modeled CUDA-class offload,
        // all three on the discrete-GPU profile (the paper's GTX 1080).
        let cuda_ms = ms_of(TableBackend::NativeCudaClass);
        let webgl_ms = ms_of(TableBackend::WebGlDiscrete);
        let webgpu_ms = ms_of(TableBackend::WebGpuDiscrete);
        let doc = json!({
            "table": "Table 1: MobileNet v1 single-inference latency",
            "workload": {
                "alpha": config.alpha,
                "input_size": config.input_size,
                "classes": config.classes,
                "runs": runs,
            },
            "rows": json_rows,
            "gaps": {
                "gap_webgl_native": webgl_ms / cuda_ms,
                "gap_webgpu_native": webgpu_ms / cuda_ms,
                "webgpu_speedup_over_webgl": webgl_ms / webgpu_ms,
                "note": "simulated GPU device ms over modeled CUDA-class ms, discrete profile; paper Sec 3.9 reports a 3-10x WebGL gap, Sec 4.3 predicts WebGPU closes it",
            },
        });
        let text = serde_json::to_string_pretty(&doc).expect("serialize");
        std::fs::write("BENCH_TABLE1.json", text).expect("write BENCH_TABLE1.json");
        println!("\nwrote BENCH_TABLE1.json");
        if webgpu_ms >= webgl_ms {
            eprintln!(
                "FAIL: gap_webgpu_native {:.2} is not below gap_webgl_native {:.2} \
                 (webgpu {webgpu_ms:.4} ms, webgl {webgl_ms:.4} ms, cuda-class {cuda_ms:.4} ms)",
                webgpu_ms / cuda_ms,
                webgl_ms / cuda_ms
            );
            std::process::exit(1);
        }
    }
    println!(
        "\npaper (MacBook Pro / GTX 1080): Plain JS 3426 ms (1x), WebGL Iris Pro 49 ms (71x),\n\
         WebGL GTX 1080 5 ms (685x), Node CPU AVX2 87 ms (39x), Node CUDA 3 ms (1105x)"
    );
}
