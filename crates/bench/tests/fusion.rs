//! Cross-backend fusion integration tests: bitwise equivalence of fused and
//! unfused execution, the MobileNet program-count win, and graceful fallback
//! to unfused kernels under injected shader-compile faults.

use std::sync::{Arc, Mutex};
use webml_backend_cpu::PlainJsBackend;
use webml_backend_native::NativeBackend;
use webml_backend_webgl::{GpuBackend, WebGlBackend, WebGlConfig};
use webml_bench::harness::{mobilenet_workload, tiny_mobilenet_config};
use webml_core::backend::{Backend, BinaryOp, UnaryOp};
use webml_core::conv_util::Padding;
use webml_core::cpu::CpuBackend;
use webml_core::{ops, Engine, FusedStep, QuantParams, Tensor};
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::{FaultPlan, WEBGPU};

/// The two rungs' configs: WebGL, and WebGPU.
fn webgl() -> WebGlConfig {
    WebGlConfig::default()
}

fn webgpu() -> WebGlConfig {
    WebGlConfig { caps: &WEBGPU, ..Default::default() }
}

/// Deterministic pseudo-random values in roughly [-2, 2] (xorshift).
fn data(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0) as f32
        })
        .collect()
}

/// One engine per registered backend family. The webgl profile must be an
/// f32 one (Intel Iris Pro): half-precision-only devices round per texture
/// write, so fused-vs-unfused is only bitwise on float32 textures.
fn engines() -> Vec<(&'static str, Engine)> {
    let cpu = Engine::new();
    cpu.register_backend("plainjs", Arc::new(PlainJsBackend::new()), 1);
    let native = Engine::new();
    native.register_backend("native", Arc::new(NativeBackend::new()), 1);
    let webgl = Engine::new();
    let b = WebGlBackend::new(DeviceProfile::intel_iris_pro(), WebGlConfig::default())
        .expect("f32 profile");
    webgl.register_backend("webgl", Arc::new(b), 1);
    vec![("plainjs", cpu), ("native", native), ("webgl", webgl)]
}

const ACTIVATIONS: [Option<UnaryOp>; 6] = [
    None,
    Some(UnaryOp::Relu),
    Some(UnaryOp::Relu6),
    Some(UnaryOp::Sigmoid),
    Some(UnaryOp::Tanh),
    Some(UnaryOp::LeakyRelu(0.2)),
];

/// Run `f` twice on `e` — fused, then with fusion disabled — and assert the
/// two results are bit-identical.
fn assert_fused_bitwise(e: &Engine, label: &str, f: &dyn Fn() -> Tensor) {
    e.set_fusion_enabled(true);
    let fused = f();
    e.set_fusion_enabled(false);
    let unfused = f();
    e.set_fusion_enabled(true);
    assert_eq!(fused.shape(), unfused.shape(), "{label}: shape");
    assert_eq!(
        fused.to_f32_vec().unwrap(),
        unfused.to_f32_vec().unwrap(),
        "{label}: fused output must be bit-identical to the unfused composition"
    );
    fused.dispose();
    unfused.dispose();
}

#[test]
fn fused_matmul_bitwise_across_backends_shapes_activations() {
    for (name, e) in engines() {
        for (ti, &(m, k, n)) in [(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 8, 8)].iter().enumerate() {
            let a = e.tensor(data(m * k, 11 + ti as u64), vec![m, k]).unwrap();
            let b = e.tensor(data(k * n, 23 + ti as u64), vec![k, n]).unwrap();
            let bias = e.tensor_1d(&data(n, 37 + ti as u64)).unwrap();
            for (ai, act) in ACTIVATIONS.iter().enumerate() {
                for with_bias in [false, true] {
                    let bias_opt = with_bias.then_some(&bias);
                    let label = format!("{name} matmul {m}x{k}x{n} act#{ai} bias={with_bias}");
                    assert_fused_bitwise(&e, &label, &|| {
                        ops::fused_matmul(&a, &b, bias_opt, *act, false, false).unwrap()
                    });
                }
            }
        }
        // Batched rank-3 and transposed operands take distinct shader paths.
        let a = e.tensor(data(2 * 3 * 4, 41), vec![2, 3, 4]).unwrap();
        let b = e.tensor(data(2 * 4 * 5, 43), vec![2, 4, 5]).unwrap();
        let bias = e.tensor_1d(&data(5, 47)).unwrap();
        assert_fused_bitwise(&e, &format!("{name} batched matmul"), &|| {
            ops::fused_matmul(&a, &b, Some(&bias), Some(UnaryOp::Relu6), false, false).unwrap()
        });
        let at = e.tensor(data(4 * 3, 53), vec![4, 3]).unwrap();
        let bt = e.tensor(data(5 * 4, 59), vec![5, 4]).unwrap();
        let bias = e.tensor_1d(&data(5, 61)).unwrap();
        assert_fused_bitwise(&e, &format!("{name} transposed matmul"), &|| {
            ops::fused_matmul(&at, &bt, Some(&bias), Some(UnaryOp::Sigmoid), true, true).unwrap()
        });
    }
}

#[test]
fn fused_conv2d_bitwise_across_backends() {
    for (name, e) in engines() {
        let x = e.tensor(data(5 * 5 * 3, 71), vec![1, 5, 5, 3]).unwrap();
        let w = e.tensor(data(3 * 3 * 3 * 4, 73), vec![3, 3, 3, 4]).unwrap();
        let bias = e.tensor_1d(&data(4, 79)).unwrap();
        for padding in [Padding::Same, Padding::Valid] {
            for strides in [(1, 1), (2, 2)] {
                for act in ACTIVATIONS {
                    for with_bias in [false, true] {
                        let bias_opt = with_bias.then_some(&bias);
                        let label = format!(
                            "{name} conv2d {padding:?} strides={strides:?} bias={with_bias}"
                        );
                        assert_fused_bitwise(&e, &label, &|| {
                            ops::fused_conv2d(&x, &w, bias_opt, act, strides, padding, (1, 1))
                                .unwrap()
                        });
                    }
                }
            }
        }
    }
}

#[test]
fn fused_depthwise_conv2d_bitwise_across_backends() {
    for (name, e) in engines() {
        let x = e.tensor(data(5 * 5 * 2, 83), vec![1, 5, 5, 2]).unwrap();
        let w = e.tensor(data(3 * 3 * 2 * 2, 89), vec![3, 3, 2, 2]).unwrap();
        let bias = e.tensor_1d(&data(4, 97)).unwrap();
        for padding in [Padding::Same, Padding::Valid] {
            for strides in [(1, 1), (2, 2)] {
                for act in ACTIVATIONS {
                    let label = format!("{name} dwconv {padding:?} strides={strides:?}");
                    assert_fused_bitwise(&e, &label, &|| {
                        ops::fused_depthwise_conv2d(
                            &x,
                            &w,
                            Some(&bias),
                            act,
                            strides,
                            padding,
                            (1, 1),
                        )
                        .unwrap()
                    });
                }
            }
        }
    }
}

#[test]
fn fused_elementwise_bitwise_across_backends() {
    for (name, e) in engines() {
        let x = e.tensor(data(2 * 3 * 4, 101), vec![2, 3, 4]).unwrap();
        let row = e.tensor(data(4, 103), vec![4]).unwrap();
        let col = e.tensor(data(3, 107), vec![1, 3, 1]).unwrap();
        let chains: Vec<(&str, Vec<FusedStep>)> = vec![
            ("scale-shift-relu", vec![
                FusedStep::Binary(BinaryOp::Mul, 0),
                FusedStep::Binary(BinaryOp::Add, 1),
                FusedStep::Unary(UnaryOp::Relu),
            ]),
            ("long-unary", vec![
                FusedStep::Unary(UnaryOp::Square),
                FusedStep::Unary(UnaryOp::Sqrt),
                FusedStep::Unary(UnaryOp::Tanh),
                FusedStep::Unary(UnaryOp::Neg),
            ]),
            ("broadcast-mix", vec![
                FusedStep::Binary(BinaryOp::Sub, 1),
                FusedStep::Unary(UnaryOp::Abs),
                FusedStep::Binary(BinaryOp::Maximum, 0),
                FusedStep::Binary(BinaryOp::Mul, 0),
                FusedStep::Unary(UnaryOp::Sigmoid),
            ]),
        ];
        for (cname, steps) in &chains {
            assert_fused_bitwise(&e, &format!("{name} elementwise {cname}"), &|| {
                ops::fused_elementwise(&x, &[&row, &col], steps).unwrap()
            });
        }
    }
}

/// The headline fusion claim: a fused MobileNet inference on the webgl
/// backend issues at least 25% fewer device programs than the unfused
/// composition, with a bit-identical result.
#[test]
fn fused_mobilenet_issues_fewer_webgl_programs() {
    let e = Engine::new();
    let backend = Arc::new(
        WebGlBackend::new(DeviceProfile::intel_iris_pro(), WebGlConfig::default())
            .expect("f32 profile"),
    );
    e.register_backend("webgl", backend.clone(), 1);
    let (mut net, input) = mobilenet_workload(&e, tiny_mobilenet_config());

    // Warm inference + program-count delta on a second run, per mode.
    let mut run = |fused: bool| -> (Vec<f32>, u64) {
        e.set_fusion_enabled(fused);
        let warm = net.infer(&input).unwrap();
        let vals = warm.to_f32_vec().unwrap();
        warm.dispose();
        let before = backend.context().memory().programs_run;
        let out = net.infer(&input).unwrap();
        let _ = out.data_sync().unwrap();
        out.dispose();
        (vals, backend.context().memory().programs_run - before)
    };
    let (unfused_vals, unfused_programs) = run(false);
    let (fused_vals, fused_programs) = run(true);

    assert!(
        fused_programs * 4 <= unfused_programs * 3,
        "fused MobileNet must issue >=25% fewer programs: fused={fused_programs} \
         unfused={unfused_programs}"
    );
    assert_eq!(
        fused_vals, unfused_vals,
        "fused MobileNet output must be bit-identical to unfused"
    );
}

/// The `<api>.fused_fallbacks_total` counters are process-wide, and each of
/// the two tests that read one holds this while it runs.
static FALLBACK_COUNTERS: Mutex<()> = Mutex::new(());

/// Blocked fused-shader compilation must degrade to the unfused composition
/// on the same backend — correct results, no surfaced error, and no entry in
/// the engine's degradation ledger (this is a kernel-level fallback, not a
/// backend-level one) — and each refused op leaves only its output behind.
#[test]
fn fused_kernels_fall_back_when_shader_compile_is_blocked() {
    let _counters = FALLBACK_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    fused_shaders_blocked(webgl());
    fused_shaders_blocked(webgpu());
}

fn fused_shaders_blocked(config: WebGlConfig) {
    let plan = FaultPlan::none()
        .block_shader("FusedMatMul")
        .block_shader("FusedConv2D")
        .block_shader("FusedDepthwiseConv2D")
        .block_shader("FusedElementwise");
    let b = GpuBackend::with_faults(DeviceProfile::intel_iris_pro(), config, plan)
        .expect("f32 profile");
    let b = Arc::new(b);
    // `cpu` below, so that a refusal the engine degraded would show.
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(CpuBackend::new()), 0);
    e.register_backend(config.caps.api, b.clone(), 1);
    // Bits equal to fusion-off, and the refused run — its composition, and
    // any dequantized weight — adds one tensor and one buffer: its output.
    let check = |label: &str, f: &dyn Fn() -> Tensor| {
        let label = format!("{} {label}", config.caps.api);
        let before = (e.num_tensors(), b.memory().num_buffers);
        let y = f();
        let after = (e.num_tensors(), b.memory().num_buffers);
        assert_eq!(after, (before.0 + 1, before.1 + 1), "{label}: only the output is left");
        y.dispose();
        assert_fused_bitwise(&e, &label, f);
    };

    let a = e.tensor(data(4 * 6, 211), vec![4, 6]).unwrap();
    let w = e.tensor(data(6 * 5, 223), vec![6, 5]).unwrap();
    let bias = e.tensor_1d(&data(5, 227)).unwrap();
    check("faulted matmul", &|| {
        ops::fused_matmul(&a, &w, Some(&bias), Some(UnaryOp::Relu), false, false).unwrap()
    });

    let x = e.tensor(data(6 * 6 * 3, 229), vec![1, 6, 6, 3]).unwrap();
    let f = e.tensor(data(3 * 3 * 3 * 4, 233), vec![3, 3, 3, 4]).unwrap();
    let cbias = e.tensor_1d(&data(4, 239)).unwrap();
    check("faulted conv2d", &|| {
        ops::fused_conv2d(&x, &f, Some(&cbias), Some(UnaryOp::Relu6), (1, 1), Padding::Same, (1, 1))
            .unwrap()
    });

    let dw = e.tensor(data(3 * 3 * 3, 241), vec![3, 3, 3, 1]).unwrap();
    let dbias = e.tensor_1d(&data(3, 251)).unwrap();
    check("faulted depthwise", &|| {
        ops::fused_depthwise_conv2d(
            &x,
            &dw,
            Some(&dbias),
            Some(UnaryOp::Relu),
            (1, 1),
            Padding::Same,
            (1, 1),
        )
        .unwrap()
    });

    // Quantized weights: the blocked dequant-free program falls back on
    // this same backend (dequantize, then the f32 path above), which is
    // exactly what the fusion-disabled run computes.
    let fallbacks = webml_telemetry::counter(&format!("{}.fused_fallbacks_total", config.caps.api));
    let before = fallbacks.get();
    let codes =
        |n: usize, step: usize| -> Vec<u8> { (0..n).map(|i| (i * step % 256) as u8).collect() };
    let cols = QuantParams::per_channel(1, vec![0.02, 0.05, 0.01, 0.03, 0.04], vec![-2.0; 5]);
    let wq = e.quantized_tensor(codes(6 * 5, 37), vec![6, 5], cols).unwrap();
    check("faulted quantized matmul", &|| {
        ops::fused_matmul(&a, &wq, Some(&bias), Some(UnaryOp::Relu), false, false).unwrap()
    });
    let whole = QuantParams::per_tensor(0.02, -2.5);
    let fq = e.quantized_tensor(codes(3 * 3 * 3 * 4, 29), vec![3, 3, 3, 4], whole).unwrap();
    check("faulted quantized conv2d", &|| {
        let relu6 = Some(UnaryOp::Relu6);
        ops::fused_conv2d(&x, &fq, Some(&cbias), relu6, (1, 1), Padding::Same, (1, 1)).unwrap()
    });
    let chans = QuantParams::per_channel(2, vec![0.03, 0.01, 0.02], vec![-2.0, -0.5, -1.0]);
    let dq = e.quantized_tensor(codes(3 * 3 * 3, 41), vec![3, 3, 3, 1], chans).unwrap();
    check("faulted quantized depthwise", &|| {
        ops::fused_depthwise_conv2d(
            &x,
            &dq,
            Some(&dbias),
            Some(UnaryOp::Relu),
            (1, 1),
            Padding::Same,
            (1, 1),
        )
        .unwrap()
    });
    assert!(
        fallbacks.get() >= before + 6,
        "each blocked quantized program and the f32 program behind it note a fallback"
    );

    let scale = e.tensor_1d(&data(3, 257)).unwrap();
    check("faulted elementwise", &|| {
        ops::fused_elementwise(
            &x,
            &[&scale],
            &[FusedStep::Binary(BinaryOp::Mul, 0), FusedStep::Unary(UnaryOp::Relu)],
        )
        .unwrap()
    });

    // A whole model still runs correctly on the faulted device.
    let (mut net, input) = mobilenet_workload(&e, tiny_mobilenet_config());
    let out = net.infer(&input).unwrap();
    e.set_fusion_enabled(false);
    let reference = net.infer(&input).unwrap();
    e.set_fusion_enabled(true);
    assert_eq!(out.to_f32_vec().unwrap(), reference.to_f32_vec().unwrap());

    assert_eq!(e.degradations(), 0, "kernel-level fallback must not log a degradation");
}

/// The product kernels, each a plain program and a fused one.
const PRODUCTS: [&str; 3] = ["MatMul", "Conv2D", "DepthwiseConv2D"];

/// `kernel` on `e`'s own copy of fixed operands: the plain op, or the fused
/// op with a bias and an activation.
fn product(e: &Engine, kernel: &str, fused: bool) -> Vec<u32> {
    let t = |dims: &[usize], seed| e.tensor(data(dims.iter().product(), seed), dims.to_vec()).unwrap();
    let (relu, same) = (Some(UnaryOp::Relu), Padding::Same);
    let y = match kernel {
        "MatMul" => {
            let (a, w, bias) = (t(&[4, 6], 301), t(&[6, 5], 307), t(&[5], 311));
            if fused {
                ops::fused_matmul(&a, &w, Some(&bias), relu, false, false)
            } else {
                ops::matmul(&a, &w, false, false)
            }
        }
        "Conv2D" => {
            let (x, f, bias) = (t(&[1, 6, 6, 3], 313), t(&[3, 3, 3, 4], 317), t(&[4], 331));
            if fused {
                ops::fused_conv2d(&x, &f, Some(&bias), relu, (1, 1), same, (1, 1))
            } else {
                ops::conv2d(&x, &f, (1, 1), same, (1, 1))
            }
        }
        _ => {
            let (x, f, bias) = (t(&[1, 6, 6, 3], 337), t(&[3, 3, 3, 1], 347), t(&[3], 349));
            if fused {
                ops::fused_depthwise_conv2d(&x, &f, Some(&bias), relu, (1, 1), same, (1, 1))
            } else {
                ops::depthwise_conv2d(&x, &f, (1, 1), same, (1, 1))
            }
        }
    };
    y.unwrap().to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect()
}

/// A backend on the rung `config` names whose driver rejects the plain
/// product programs (blocking is by name prefix: `MatMul` blocks
/// `MatMulPacked` and `MatMulTiled`, not `FusedMatMul`), above `cpu` on a
/// fresh engine.
fn plain_programs_blocked(config: WebGlConfig) -> (Engine, Arc<GpuBackend>) {
    let plan = PRODUCTS.into_iter().fold(FaultPlan::none(), FaultPlan::block_shader);
    let b = GpuBackend::with_faults(DeviceProfile::intel_iris_pro(), config, plan)
        .expect("f32 profile");
    let b = Arc::new(b);
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(CpuBackend::new()), 0);
    e.register_backend(config.caps.api, b.clone(), 1);
    (e, b)
}

/// A plain op runs the plain program and a fused op the fused one, never the
/// other: with the plain programs blocked, each plain op degrades to `cpu`
/// (bit-identical, one `DegradationEvent` naming it), while each fused op
/// with a bias keeps its fused program on the device — nothing rejected,
/// nothing composed, no degradation. The fused half runs on both rungs,
/// and on each the context's own compile-failure count stays 0;
/// `webgpu.fused_fallbacks_total` is read under [`FALLBACK_COUNTERS`].
#[test]
fn fused_kernels_fall_back_only_from_fused_programs() {
    let _counters = FALLBACK_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let cpu = Engine::new();
    cpu.register_backend("cpu", Arc::new(CpuBackend::new()), 0);
    for kernel in PRODUCTS {
        let (e, _) = plain_programs_blocked(webgl());
        assert_eq!(product(&e, kernel, false), product(&cpu, kernel, false), "{kernel}");
        let events = e.degradation_events();
        assert_eq!(events.len(), 1, "{kernel}: {events:?}");
        assert_eq!((events[0].kernel, events[0].to_backend.as_str()), (kernel, "cpu"));
    }

    fn fused_stay_on_device(config: WebGlConfig, cpu: &Engine) {
        let (e, b) = plain_programs_blocked(config);
        for kernel in PRODUCTS {
            let label = format!("{} fused {kernel}", config.caps.api);
            assert_eq!(product(&e, kernel, true), product(cpu, kernel, true), "{label}");
        }
        assert_eq!(b.context().fault_stats().compile_failures, 0, "{}", config.caps.api);
        assert_eq!((e.degradations(), e.backend_name()), (0, config.caps.api.to_string()));
    }
    let fallbacks = webml_telemetry::counter("webgpu.fused_fallbacks_total");
    let before = fallbacks.get();
    fused_stay_on_device(webgl(), &cpu);
    fused_stay_on_device(webgpu(), &cpu);
    assert_eq!(fallbacks.get(), before, "no fused program fell back");
}
