//! WebGPU-vs-CPU parity sweeps: the compute backend's tiled shared-memory
//! kernels accumulate in the reference order and its fused epilogues apply
//! the same scalar ops the unfused composition would, so every comparison
//! here is **bitwise** (`assert_eq!` on each f32's bits, so `-0.0` is not
//! `+0.0` and a NaN equals the same NaN) — across
//! fused/unfused execution, f32 and U8-quantized weights, and
//! synchronous / pipelined plan runs.

use std::sync::Arc;
use webml::backend_webgpu::WebGpuBackend;
use webml::core::backend::{BinaryOp, UnaryOp};
use webml::core::conv_util::Padding;
use webml::core::cpu::CpuBackend;
use webml::core::quant::QuantParams;
use webml::core::FusedStep;
use webml::webgl_sim::devices::DeviceProfile;
use webml::webgpu_sim::WebGpuConfig;
use webml::{ops, Engine, Tensor};

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

/// The bits of each value: what a bitwise comparison compares.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn cpu_engine() -> Engine {
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    e
}

fn webgpu_engine() -> Engine {
    let e = Engine::new();
    let b = WebGpuBackend::new(DeviceProfile::intel_iris_pro(), WebGpuConfig::default())
        .expect("profile exposes a WebGPU compute API");
    e.register_backend("webgpu", Arc::new(b), 1);
    e
}

/// Build the same graph on a CPU engine and a WebGPU engine, with fusion
/// both on and off, and require all four results bitwise-equal pairwise
/// per fusion mode (and fused-vs-unfused equal within each backend, since
/// every op used here has a bit-exact fused epilogue).
fn assert_parity(label: &str, build: &dyn Fn(&Engine) -> Tensor) {
    let cpu = cpu_engine();
    let gpu = webgpu_engine();
    for fusion in [true, false] {
        cpu.set_fusion_enabled(fusion);
        gpu.set_fusion_enabled(fusion);
        let want = bits(&build(&cpu).to_f32_vec().unwrap());
        let got = bits(&build(&gpu).to_f32_vec().unwrap());
        assert_eq!(got, want, "{label} (fusion={fusion}): webgpu must match cpu bitwise");
    }
}

const ACTIVATIONS: [Option<UnaryOp>; 4] =
    [None, Some(UnaryOp::Relu), Some(UnaryOp::Relu6), Some(UnaryOp::Sigmoid)];

#[test]
fn fused_matmul_parity_across_shapes_and_activations() {
    for (ti, &(m, k, n)) in [(1usize, 1usize, 1usize), (5, 7, 3), (17, 19, 18)].iter().enumerate() {
        for act in ACTIVATIONS {
            for with_bias in [false, true] {
                assert_parity(&format!("matmul {m}x{k}x{n} bias={with_bias}"), &|e| {
                    let a = e.tensor(data(m * k, 11 + ti as u64), vec![m, k]).unwrap();
                    let b = e.tensor(data(k * n, 23 + ti as u64), vec![k, n]).unwrap();
                    let bias = e.tensor_1d(&data(n, 37 + ti as u64)).unwrap();
                    let bias_opt = with_bias.then_some(&bias);
                    ops::fused_matmul(&a, &b, bias_opt, act, false, false).unwrap()
                });
            }
        }
    }
    // Transposed operands take a distinct staging path in the tiled kernel.
    assert_parity("matmul transposed", &|e| {
        let at = e.tensor(data(4 * 3, 53), vec![4, 3]).unwrap();
        let bt = e.tensor(data(5 * 4, 59), vec![5, 4]).unwrap();
        let bias = e.tensor_1d(&data(5, 61)).unwrap();
        ops::fused_matmul(&at, &bt, Some(&bias), Some(UnaryOp::Sigmoid), true, true).unwrap()
    });
}

#[test]
fn fused_conv_and_depthwise_parity() {
    for padding in [Padding::Same, Padding::Valid] {
        for strides in [(1usize, 1usize), (2, 2)] {
            assert_parity(&format!("conv2d {padding:?} {strides:?}"), &|e| {
                let x = e.tensor(data(5 * 5 * 3, 71), vec![1, 5, 5, 3]).unwrap();
                let w = e.tensor(data(3 * 3 * 3 * 4, 73), vec![3, 3, 3, 4]).unwrap();
                let bias = e.tensor_1d(&data(4, 79)).unwrap();
                ops::fused_conv2d(&x, &w, Some(&bias), Some(UnaryOp::Relu), strides, padding, (1, 1))
                    .unwrap()
            });
            assert_parity(&format!("dwconv {padding:?} {strides:?}"), &|e| {
                let x = e.tensor(data(5 * 5 * 2, 83), vec![1, 5, 5, 2]).unwrap();
                let w = e.tensor(data(3 * 3 * 2 * 2, 89), vec![3, 3, 2, 2]).unwrap();
                let bias = e.tensor_1d(&data(4, 97)).unwrap();
                ops::fused_depthwise_conv2d(
                    &x,
                    &w,
                    Some(&bias),
                    Some(UnaryOp::Relu6),
                    strides,
                    padding,
                    (1, 1),
                )
                .unwrap()
            });
        }
    }
    // Inputs wide enough for the bodies' register tiles: spans of interior
    // pixels, edge pixels beside them, and channel counts inside, across and
    // past a block. Filter tap (0, 0) of channel 0 is +inf: an interior pixel
    // multiplies it, an edge pixel finds it on the padding, where a body that
    // multiplied it by the zero there would read NaN.
    for (walk, (padding, stride, dilation)) in WALKS.into_iter().enumerate() {
        for (i, &in_c) in CHANNELS.iter().enumerate() {
            let out_c = CHANNELS[(i + walk + 1) % CHANNELS.len()];
            let (s, d) = ((stride, stride), (dilation, dilation));
            let label = format!("{padding:?} stride {stride} dilation {dilation} {in_c}->{out_c}");
            assert_parity(&format!("conv2d 2x9x13, {label}"), &|e| {
                let x = e.tensor(data(2 * 9 * 13 * in_c, 163), vec![2, 9, 13, in_c]).unwrap();
                let mut w = data(3 * 3 * in_c * out_c, 167);
                w[0] = f32::INFINITY;
                let w = e.tensor(w, vec![3, 3, in_c, out_c]).unwrap();
                let bias = e.tensor_1d(&data(out_c, 173)).unwrap();
                ops::fused_conv2d(&x, &w, Some(&bias), Some(UnaryOp::Relu), s, padding, d).unwrap()
            });
            assert_parity(&format!("dwconv 2x9x13, {label}"), &|e| {
                let x = e.tensor(data(2 * 9 * 13 * in_c, 179), vec![2, 9, 13, in_c]).unwrap();
                let mut w = data(3 * 3 * in_c, 181);
                w[0] = f32::INFINITY;
                let w = e.tensor(w, vec![3, 3, in_c, 1]).unwrap();
                ops::depthwise_conv2d(&x, &w, s, padding, d).unwrap()
            });
        }
    }
    // A 1x1 conv: every pixel is interior, so its spans cross rows.
    for (in_c, out_c) in [(3, 17), (35, 8)] {
        assert_parity(&format!("conv2d 1x1 2x9x13 {in_c}->{out_c}"), &|e| {
            let x = e.tensor(data(2 * 9 * 13 * in_c, 191), vec![2, 9, 13, in_c]).unwrap();
            let w = e.tensor(data(in_c * out_c, 193), vec![1, 1, in_c, out_c]).unwrap();
            let bias = e.tensor_1d(&data(out_c, 197)).unwrap();
            ops::fused_conv2d(&x, &w, Some(&bias), None, (1, 1), Padding::Same, (1, 1)).unwrap()
        });
    }
}

/// `(padding, stride, dilation)` of the wide conv inputs.
const WALKS: [(Padding, usize, usize); 5] = [
    (Padding::Same, 1, 1),
    (Padding::Valid, 1, 1),
    (Padding::Same, 2, 1),
    (Padding::Valid, 2, 1),
    (Padding::Same, 1, 2),
];

/// Channel counts of the wide conv inputs: one, below, at, across and past
/// a block of 8 or 16.
const CHANNELS: [usize; 5] = [1, 3, 8, 17, 35];

#[test]
fn fused_elementwise_parity() {
    assert_parity("elementwise chain", &|e| {
        let x = e.tensor(data(2 * 3 * 4, 101), vec![2, 3, 4]).unwrap();
        let row = e.tensor(data(4, 103), vec![4]).unwrap();
        let col = e.tensor(data(3, 107), vec![1, 3, 1]).unwrap();
        ops::fused_elementwise(
            &x,
            &[&row, &col],
            &[
                FusedStep::Binary(BinaryOp::Mul, 0),
                FusedStep::Binary(BinaryOp::Add, 1),
                FusedStep::Unary(UnaryOp::Relu),
            ],
        )
        .unwrap()
    });
}

/// U8-quantized fused ops (per-tensor and per-channel params): fused mode
/// runs the dequant-free tiled kernels, unfused mode dequantizes and runs
/// the f32 composition — both must match the CPU backend bitwise.
#[test]
fn quantized_fused_ops_parity() {
    let codes: Vec<u8> = (0..7 * 3).map(|i| ((i * 37) % 256) as u8).collect();
    assert_parity("quant matmul per-tensor", &|e| {
        let a = e.tensor(data(5 * 7, 113), vec![5, 7]).unwrap();
        let b = e
            .quantized_tensor(codes.clone(), vec![7, 3], QuantParams::per_tensor(0.05, -3.0))
            .unwrap();
        let bias = e.tensor_1d(&data(3, 127)).unwrap();
        ops::fused_matmul(&a, &b, Some(&bias), Some(UnaryOp::Relu), false, false).unwrap()
    });
    let wcodes: Vec<u8> = (0..3 * 3 * 3 * 4).map(|i| ((i * 29) % 256) as u8).collect();
    assert_parity("quant conv per-channel", &|e| {
        let x = e.tensor(data(6 * 6 * 3, 131), vec![1, 6, 6, 3]).unwrap();
        let w = e
            .quantized_tensor(
                wcodes.clone(),
                vec![3, 3, 3, 4],
                QuantParams::per_channel(
                    3,
                    vec![0.02, 0.04, 0.03, 0.05],
                    vec![-2.0, -1.5, -2.5, -1.0],
                ),
            )
            .unwrap();
        let bias = e.tensor_1d(&data(4, 137)).unwrap();
        ops::fused_conv2d(&x, &w, Some(&bias), Some(UnaryOp::Relu6), (1, 1), Padding::Same, (1, 1))
            .unwrap()
    });
    let dcodes: Vec<u8> = (0..3 * 3 * 2 * 2).map(|i| ((i * 41) % 256) as u8).collect();
    assert_parity("quant depthwise per-tensor", &|e| {
        let x = e.tensor(data(5 * 5 * 2, 139), vec![1, 5, 5, 2]).unwrap();
        let w = e
            .quantized_tensor(dcodes.clone(), vec![3, 3, 2, 2], QuantParams::per_tensor(0.03, -2.0))
            .unwrap();
        ops::fused_depthwise_conv2d(&x, &w, None, Some(UnaryOp::Relu), (1, 1), Padding::Same, (1, 1))
            .unwrap()
    });
    // The unfused ops look at the weight too: same dequant-free kernels,
    // empty epilogue.
    let col_params = || QuantParams::per_channel(1, vec![0.05, 0.02, 0.04], vec![-3.0, -1.0, 0.5]);
    assert_parity("unfused matmul, rank-2 per-channel weight", &|e| {
        let a = e.tensor(data(5 * 7, 149), vec![5, 7]).unwrap();
        let b = e.quantized_tensor(codes.clone(), vec![7, 3], col_params()).unwrap();
        ops::matmul(&a, &b, false, false).unwrap()
    });
    assert_parity("unfused conv per-tensor", &|e| {
        let x = e.tensor(data(6 * 6 * 3, 151), vec![1, 6, 6, 3]).unwrap();
        let w = e
            .quantized_tensor(wcodes.clone(), vec![3, 3, 3, 4], QuantParams::per_tensor(0.02, -2.0))
            .unwrap();
        ops::conv2d(&x, &w, (2, 2), Padding::Valid, (1, 1)).unwrap()
    });
    assert_parity("unfused depthwise per-channel", &|e| {
        let x = e.tensor(data(5 * 5 * 2, 157), vec![1, 5, 5, 2]).unwrap();
        let params = QuantParams::per_channel(2, vec![0.03, 0.01], vec![-2.0, -0.5]);
        let w = e.quantized_tensor(dcodes.clone(), vec![3, 3, 2, 2], params).unwrap();
        ops::depthwise_conv2d(&x, &w, (1, 1), Padding::Same, (1, 1)).unwrap()
    });
    // Wide U8 inputs, as in `fused_conv_and_depthwise_parity`: the factored
    // map takes each pixel's (or channel's) `Σ x` from the tiles' walk.
    let codes_of = |n: usize, seed: usize| -> Vec<u8> {
        (0..n).map(|i| ((i * 37 + seed) % 256) as u8).collect()
    };
    for (walk, (padding, stride, dilation)) in WALKS.into_iter().enumerate() {
        for (i, &in_c) in CHANNELS.iter().enumerate() {
            let out_c = CHANNELS[(i + walk + 2) % CHANNELS.len()];
            let (s, d) = ((stride, stride), (dilation, dilation));
            let label = format!("{padding:?} stride {stride} dilation {dilation} {in_c}->{out_c}");
            let scales = |n: usize| (0..n).map(|c| 0.01 + c as f32 * 0.003).collect::<Vec<_>>();
            let mins = |n: usize| (0..n).map(|c| -1.0 - c as f32 * 0.05).collect::<Vec<_>>();
            assert_parity(&format!("quant conv 2x9x13, {label}"), &|e| {
                let x = e.tensor(data(2 * 9 * 13 * in_c, 199), vec![2, 9, 13, in_c]).unwrap();
                let params = QuantParams::per_channel(3, scales(out_c), mins(out_c));
                let codes = codes_of(3 * 3 * in_c * out_c, walk);
                let w = e.quantized_tensor(codes, vec![3, 3, in_c, out_c], params).unwrap();
                let bias = e.tensor_1d(&data(out_c, 211)).unwrap();
                ops::fused_conv2d(&x, &w, Some(&bias), Some(UnaryOp::Relu6), s, padding, d).unwrap()
            });
            assert_parity(&format!("quant dwconv 2x9x13, {label}"), &|e| {
                let x = e.tensor(data(2 * 9 * 13 * in_c, 223), vec![2, 9, 13, in_c]).unwrap();
                let params = QuantParams::per_channel(2, scales(in_c), mins(in_c));
                let codes = codes_of(3 * 3 * in_c, walk + 1);
                let w = e.quantized_tensor(codes, vec![3, 3, in_c, 1], params).unwrap();
                let bias = e.tensor_1d(&data(in_c, 227)).unwrap();
                ops::fused_depthwise_conv2d(&x, &w, Some(&bias), None, s, padding, d).unwrap()
            });
        }
    }
    assert_parity("quant conv 1x1 2x9x13", &|e| {
        let x = e.tensor(data(2 * 9 * 13 * 17, 229), vec![2, 9, 13, 17]).unwrap();
        let params = QuantParams::per_tensor(0.02, -2.0);
        let w = e.quantized_tensor(codes_of(17 * 35, 5), vec![1, 1, 17, 35], params).unwrap();
        ops::conv2d(&x, &w, (1, 1), Padding::Valid, (1, 1)).unwrap()
    });
    // Quantized along `k`, the factored kernel cannot keep one scale per
    // output column: the op layer dequantizes once, on every backend, and
    // the result is exactly the f32 kernel on `QuantParams::dequantize`.
    let row_params =
        || QuantParams::per_channel(0, (1..=7).map(|i| i as f32 * 0.01).collect(), vec![-1.0; 7]);
    assert_parity("matmul weight quantized along k", &|e| {
        let a = e.tensor(data(5 * 7, 163), vec![5, 7]).unwrap();
        let b = e.quantized_tensor(codes.clone(), vec![7, 3], row_params()).unwrap();
        let bias = e.tensor_1d(&data(3, 167)).unwrap();
        let got =
            ops::fused_matmul(&a, &b, Some(&bias), Some(UnaryOp::Relu), false, false).unwrap();
        let bf = e.tensor(row_params().dequantize(&codes, &[7, 3]).unwrap(), vec![7, 3]).unwrap();
        let want =
            ops::fused_matmul(&a, &bf, Some(&bias), Some(UnaryOp::Relu), false, false).unwrap();
        assert_eq!(got.to_f32_vec().unwrap(), want.to_f32_vec().unwrap());
        got
    });
}

/// Synchronous and pipelined execution on the webgpu backend must both
/// reproduce the CPU reference bitwise — one plan runs the same kernels in
/// the same order; only the readback differs.
#[test]
fn planned_and_pipelined_match_cpu_bitwise() {
    use webml::models::graph_mlp;
    use webml::Shape;
    let spec = graph_mlp(12, &[24, 24], 5, 42);

    let cpu = cpu_engine();
    let ref_model = spec.build(&cpu).unwrap();
    let (vals, shape) = spec.example(3, 1);
    let xr = cpu.tensor(vals.clone(), Shape::new(shape.clone())).unwrap();
    let want = bits(
        &ref_model.execute(&[(&spec.input, &xr)], &[&spec.output]).unwrap()[0]
            .to_f32_vec()
            .unwrap(),
    );

    let gpu = webgpu_engine();
    let model = spec.build(&gpu).unwrap();
    let x = gpu.tensor(vals, Shape::new(shape)).unwrap();
    x.keep();
    let planned =
        model.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap()[0].to_f32_vec().unwrap();
    assert_eq!(bits(&planned), want, "planned webgpu vs cpu");
    let pending = model.execute_pipelined(&[(&spec.input, &x)], &[&spec.output]).unwrap();
    let got = pending.wait().unwrap();
    assert_eq!(bits(&got[0].to_f32_vec()), want, "pipelined webgpu vs cpu");

    // A quantized weight that reaches `MatMul` through a graph `Reshape`
    // (a slot, not a weight, at plan build): the alias carries the params
    // with the channel axis remapped, so both paths run the
    // dequant-free kernel, agree bitwise with the CPU, and stay within the
    // quantized-execution drift bound of the same model on f32 weights.
    use std::collections::HashMap;
    use webml::converter::{GraphDef, GraphModel};
    let mut graph = GraphDef::from_triples(&[
        ("x", "Placeholder", &[]),
        ("w", "Const", &[]),
        ("w2", "Reshape", &["w"]),
        ("y", "MatMul", &["x", "w2"]),
    ]);
    graph.nodes[2].attrs = serde_json::json!({ "shape": [4, 3] });
    let codes: Vec<u8> = (0..12).map(|i| ((i * 53) % 256) as u8).collect();
    let params = QuantParams::per_channel(2, vec![0.02, 0.05, 0.01], vec![-2.0, -6.0, 0.5]);
    let xvals = data(2 * 4, 173);
    let run = |e: &Engine, quantized: bool| -> Vec<Vec<u32>> {
        let w = if quantized {
            e.quantized_tensor(codes.clone(), vec![1, 4, 3], params.clone()).unwrap()
        } else {
            e.tensor(params.dequantize(&codes, &[1, 4, 3]).unwrap(), vec![1, 4, 3]).unwrap()
        };
        let weights = HashMap::from([("w".to_string(), w)]);
        let model = GraphModel::new(e, graph.clone(), weights).unwrap();
        let x = e.tensor(xvals.clone(), vec![2, 4]).unwrap();
        x.keep();
        let planned = model.execute(&[("x", &x)], &["y"]).unwrap()[0].to_f32_vec().unwrap();
        let pipelined = model.execute_pipelined(&[("x", &x)], &["y"]).unwrap().wait().unwrap();
        vec![bits(&planned), bits(&pipelined[0].to_f32_vec())]
    };
    let want = run(&cpu, true);
    assert_eq!(want[0], want[1], "cpu planned vs pipelined");
    assert_eq!(run(&gpu, true), want, "reshaped quantized weight: webgpu vs cpu");
    for (q, f) in want[0].iter().zip(&run(&cpu, false)[0]) {
        let (q, f) = (f32::from_bits(*q), f32::from_bits(*f));
        assert!((q - f).abs() < 0.05, "quantized {q} drifted from f32 {f}");
    }
}

/// Whole-model parity: a seeded MobileNet inference on webgpu equals the
/// CPU reference bitwise, fused and unfused.
#[test]
fn mobilenet_inference_matches_cpu_bitwise() {
    use webml::models::{Image, MobileNet, MobileNetConfig};
    let config = MobileNetConfig { input_size: 32, classes: 7, ..MobileNetConfig::small() };
    let infer = |e: &Engine, fused: bool| -> Vec<f32> {
        e.set_fusion_enabled(fused);
        let mut net = MobileNet::new(e, config).unwrap();
        let img = Image::synthetic_person(config.input_size, config.input_size);
        let input = img.to_normalized_tensor(e, config.input_size).unwrap();
        net.infer(&input).unwrap().to_f32_vec().unwrap()
    };
    let cpu = cpu_engine();
    let gpu = webgpu_engine();
    for fused in [true, false] {
        assert_eq!(
            bits(&infer(&gpu, fused)),
            bits(&infer(&cpu, fused)),
            "mobilenet logits (fused={fused}) must be bitwise identical"
        );
    }
}
