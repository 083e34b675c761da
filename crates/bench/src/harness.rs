//! Shared benchmark harness: engine construction per backend
//! configuration, timing helpers, and paper-style table printing.

use std::sync::Arc;
use std::time::Instant;
use webml_backend_cpu::PlainJsBackend;
use webml_backend_native::NativeBackend;
use webml_backend_webgl::GpuBackend;
use webml_core::backend::Backend;
use webml_core::{Engine, Tensor};
use webml_models::{Image, MobileNet, MobileNetConfig};
use webml_webgl_sim::context::ContextConfig;
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::WEBGPU;

/// The backend rows of Table 1 and their hardware analogues.
///
/// CPU rows report measured wall time. GPU rows report the device's
/// *simulated time*: the priced clock of `webml_webgl_sim::queue`, which
/// charges each program its declared work over the lanes it fills at the
/// profile's rate, so these rows are the same on every host and every run.
/// The CUDA-class row applies a documented modeled factor to the measured
/// native kernel time, so it is host wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableBackend {
    /// "Plain JS": the interpreter-style scalar baseline (wall time).
    PlainJs,
    /// "WebGL (Intel Iris Pro)": integrated-GPU profile (simulated time).
    WebGlIntegrated,
    /// "WebGL (GTX 1080)": discrete-GPU profile (simulated time).
    WebGlDiscrete,
    /// WebGPU compute backend on the integrated-GPU profile (simulated
    /// time): workgroup shared-memory tiles over storage buffers.
    WebGpuIntegrated,
    /// WebGPU compute backend on the discrete-GPU profile (simulated time).
    WebGpuDiscrete,
    /// "Node.js CPU w/ AVX2": optimized native kernels (wall time).
    NativeSingleThread,
    /// "Node.js CUDA (GTX 1080)": native kernels with the modeled
    /// GPU-offload factor applied (simulated time).
    NativeCudaClass,
}

/// Modeled speedup of offloading the optimized native kernels to a
/// CUDA-class accelerator (calibration constant; see EXPERIMENTS.md).
pub const CUDA_CLASS_MODEL_FACTOR: f64 = 24.0;

/// Reads how many device programs a GPU backend has run so far: draw calls
/// on WebGL, compute dispatches on WebGPU.
pub type ProgramCounter = Box<dyn Fn() -> u64>;

/// A GPU backend on the rung `config` names over `profile`, and its program
/// counter.
fn gpu(
    profile: DeviceProfile,
    config: ContextConfig,
) -> (Arc<dyn Backend>, Option<ProgramCounter>) {
    let backend = Arc::new(GpuBackend::new(profile, config).expect("profile hosts the GPU API"));
    let counted = backend.clone();
    (backend, Some(Box::new(move || counted.context().memory().programs_run)))
}

impl TableBackend {
    /// All rows, in Table 1 order (the two WebGPU rows extend the paper's
    /// table with its Sec 4.3 compute-shader prediction).
    pub fn all() -> [TableBackend; 7] {
        [
            TableBackend::PlainJs,
            TableBackend::WebGlIntegrated,
            TableBackend::WebGlDiscrete,
            TableBackend::WebGpuIntegrated,
            TableBackend::WebGpuDiscrete,
            TableBackend::NativeSingleThread,
            TableBackend::NativeCudaClass,
        ]
    }

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            TableBackend::PlainJs => "Plain JS",
            TableBackend::WebGlIntegrated => "WebGL (integrated-GPU profile)",
            TableBackend::WebGlDiscrete => "WebGL (discrete-GPU profile)",
            TableBackend::WebGpuIntegrated => "WebGPU (integrated-GPU profile)",
            TableBackend::WebGpuDiscrete => "WebGPU (discrete-GPU profile)",
            TableBackend::NativeSingleThread => "Native CPU (Node AVX2-class)",
            TableBackend::NativeCudaClass => "Native + modeled CUDA-class offload",
        }
    }

    /// A fresh engine with only this backend registered, and on the GPU
    /// rows the backend's program counter.
    pub fn engine(self) -> (Engine, Option<ProgramCounter>) {
        let webgl = ContextConfig::default();
        let webgpu = ContextConfig { caps: &WEBGPU, ..webgl };
        let (name, (backend, programs)): (&str, (Arc<dyn Backend>, _)) = match self {
            TableBackend::PlainJs => ("plainjs", (Arc::new(PlainJsBackend::new()), None)),
            TableBackend::WebGlIntegrated => ("webgl", gpu(DeviceProfile::intel_iris_pro(), webgl)),
            TableBackend::WebGlDiscrete => ("webgl", gpu(DeviceProfile::gtx_1080(), webgl)),
            TableBackend::WebGpuIntegrated => {
                ("webgpu", gpu(DeviceProfile::intel_iris_pro(), webgpu))
            }
            TableBackend::WebGpuDiscrete => ("webgpu", gpu(DeviceProfile::gtx_1080(), webgpu)),
            TableBackend::NativeSingleThread => {
                ("native1", (Arc::new(NativeBackend::with_threads("native1", 1)), None))
            }
            TableBackend::NativeCudaClass => ("native", (Arc::new(NativeBackend::new()), None)),
        };
        let engine = Engine::new();
        engine.register_backend(name, backend, 1);
        (engine, programs)
    }
}

/// The MobileNet workload of Table 1 at a reduced, benchmark-friendly
/// scale. The paper measures MobileNet v1 1.0 at 224; the plain-JS-style
/// baseline makes that configuration minutes-per-inference in a simulator,
/// so the default harness uses α=0.25 at 96x96 — relative speedups (the
/// quantity Table 1 reports) are preserved.
pub fn bench_mobilenet_config() -> MobileNetConfig {
    MobileNetConfig { alpha: 0.25, input_size: 96, classes: 100, batch_norm: false, seed: 1 }
}

/// The 48x48 configuration of the `--tiny` smoke runs and the tests.
pub fn tiny_mobilenet_config() -> MobileNetConfig {
    MobileNetConfig { alpha: 0.25, input_size: 48, classes: 10, batch_norm: false, seed: 1 }
}

/// Build the MobileNet + input pair on an engine.
pub fn mobilenet_workload(engine: &Engine, config: MobileNetConfig) -> (MobileNet, Tensor) {
    let net = MobileNet::new(engine, config).expect("build mobilenet");
    let img = Image::synthetic_person(config.input_size, config.input_size);
    let input = img.to_normalized_tensor(engine, config.input_size).expect("input tensor");
    (net, input)
}

/// One full inference including readback, in milliseconds.
pub fn time_inference(net: &mut MobileNet, input: &Tensor) -> f64 {
    let t0 = Instant::now();
    let out = net.infer(input).expect("inference");
    let _ = out.data_sync().expect("readback");
    out.dispose();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Mean of `runs` timed inferences after one warmup.
pub fn mean_inference_ms(net: &mut MobileNet, input: &Tensor, runs: usize) -> f64 {
    let _ = time_inference(net, input);
    let mut total = 0.0;
    for _ in 0..runs {
        total += time_inference(net, input);
    }
    total / runs as f64
}

/// Mean *device-kernel* milliseconds per inference (the `tf.time` metric:
/// pure device time, excluding upload/download — Sec 3.8), over `runs`.
pub fn mean_kernel_ms(engine: &Engine, net: &mut MobileNet, input: &Tensor, runs: usize) -> f64 {
    let _ = time_inference(net, input);
    let mut total = 0.0;
    for _ in 0..runs {
        let (_, t) = engine.time(|| {
            let out = net.infer(input).expect("inference");
            let _ = out.data_sync().expect("readback");
            out.dispose();
        });
        total += t.kernel_ms;
    }
    total / runs as f64
}

/// One Table 1 row, measured by [`measure_row`].
#[derive(Debug, Clone)]
pub struct RowMeasurement {
    /// Mean per-inference milliseconds (method-dependent, see `method`).
    pub ms: f64,
    /// How `ms` was obtained ("measured wall" / "simulated device" /
    /// "modeled offload").
    pub method: &'static str,
    /// Device programs issued by one warm inference — `Some` only on the
    /// GPU rows, where the simulator counts draw calls (WebGL) or compute
    /// dispatches (WebGPU).
    pub programs: Option<u64>,
}

/// Measure one Table 1 row over `runs` inferences, with kernel fusion
/// switched on or off via `fusion` — the fused-vs-unfused comparison behind
/// the `--json` bench output.
pub fn measure_row(
    backend: TableBackend,
    config: MobileNetConfig,
    runs: usize,
    fusion: bool,
) -> RowMeasurement {
    let (engine, program_counter) = backend.engine();
    engine.set_fusion_enabled(fusion);
    let (mut net, input) = mobilenet_workload(&engine, config);
    // Program count: one warm inference after one warmup.
    let programs = program_counter.map(|count| {
        let _ = time_inference(&mut net, &input);
        let before = count();
        let _ = time_inference(&mut net, &input);
        count() - before
    });
    let (ms, method) = match backend {
        TableBackend::PlainJs | TableBackend::NativeSingleThread => {
            (mean_inference_ms(&mut net, &input, runs), "measured wall")
        }
        TableBackend::WebGlIntegrated
        | TableBackend::WebGlDiscrete
        | TableBackend::WebGpuIntegrated
        | TableBackend::WebGpuDiscrete => {
            (mean_kernel_ms(&engine, &mut net, &input, runs), "simulated device")
        }
        TableBackend::NativeCudaClass => (
            mean_kernel_ms(&engine, &mut net, &input, runs) / CUDA_CLASS_MODEL_FACTOR,
            "modeled offload",
        ),
    };
    RowMeasurement { ms, method, programs }
}

/// Print a Table 1-style markdown table of `(label, ms)` rows; speedups are
/// relative to the first row.
pub fn print_speedup_table(title: &str, rows: &[(String, f64)]) {
    println!("\n## {title}\n");
    println!("| Backend | Time (ms) | Speedup |");
    println!("|---|---|---|");
    let base = rows.first().map(|(_, ms)| *ms).unwrap_or(1.0);
    for (label, ms) in rows {
        println!("| {label} | {ms:.2} | {:.1}x |", base / ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_backend_builds_and_runs() {
        for backend in TableBackend::all() {
            let (e, programs) = backend.engine();
            let t = e.tensor_1d(&[1.0, 2.0]).unwrap();
            let y = webml_core::ops::square(&t).unwrap();
            assert_eq!(y.to_f32_vec().unwrap(), vec![1.0, 4.0], "{}", backend.label());
            let gpu = e.backend_name().starts_with("web");
            let counted = programs.map(|count| count() > 0);
            assert_eq!(counted, gpu.then_some(true), "{}", backend.label());
        }
    }

    #[test]
    fn inference_timing_is_positive() {
        let (e, _) = TableBackend::NativeCudaClass.engine();
        let (mut net, input) = mobilenet_workload(&e, tiny_mobilenet_config());
        let ms = time_inference(&mut net, &input);
        assert!(ms > 0.0);
    }
}
