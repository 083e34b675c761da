//! The backend contract: one body per behaviour, run on every rung — the two
//! that ship and a third, test-only one ("WebGPU without shared memory")
//! that exists to show a rung is a value: a [`ContextConfig`] over a
//! [`Capabilities`] literal. What only the texture rung does (f16 devices,
//! packed programs) is tested in `webgl_edges.rs` and beside the code.

#[path = "support/oracle_calls.rs"]
mod oracle_calls;

use std::borrow::Cow;
use std::sync::Arc;
use webml_backend_webgl::programs::{self, TILE};
use webml_backend_webgl::GpuBackend;
use webml_core::backend::{
    Backend, BinaryOp, DataId, Epilogue, FusedStep, KTensor, KernelCall, UnaryOp,
};
use webml_core::conv_util::Padding;
use webml_core::quant::QuantParams;
use webml_core::{ops, DType, Engine, Error, Shape, TensorData};
use webml_webgl_sim::caps::{Capabilities, Storage, WEBGPU};
use webml_webgl_sim::context::ContextConfig;
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::fault::FaultPlan;

/// Compute kernels, linear storage, shared-memory reuse pinned to 1.
const NO_SHARED_MEMORY: Capabilities = Capabilities { shared_memory: false, ..WEBGPU };

fn on(caps: &'static Capabilities) -> ContextConfig {
    ContextConfig { caps, ..Default::default() }
}

/// WebGL, WebGPU, and WebGPU without shared memory.
fn rungs() -> [ContextConfig; 3] {
    [ContextConfig::default(), on(&WEBGPU), on(&NO_SHARED_MEMORY)]
}

/// Instantiate a contract body on every rung.
macro_rules! on_every_rung {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            for rung in super::rungs() {
                super::$name(rung);
            }
        }
    )*};
}

mod contract {
    on_every_rung!(
        matmul_matches_cpu_on_bits,
        conv_and_pool_match_cpu_on_bits,
        quantized_kernels_match_cpu,
        eager_surface_works,
        async_reads_resolve_or_fail_but_never_hang,
        quantized_weights_hold_one_byte_per_code,
        quantized_weights_rebuild_after_a_seeded_loss,
        byte_ledger_survives_a_device_loss,
        profiles_without_the_api_are_rejected,
        device_timer_follows_the_rule_of_the_api,
        foreign_fence_tokens_read_as_passed,
        malformed_calls_are_errors_not_panics,
        every_oracle_call_matches_cpu_on_bits,
    );

    /// Packing is the texture rung's own switch, so its "off" position
    /// is a fourth engine beside the three rungs.
    #[test]
    fn conv_depthwise_and_matmul_match_cpu_on_bits_at_texel_edges() {
        use super::*;
        let want = texel_edge_outputs(&cpu_engine());
        let [webgl, webgpu, no_shared_memory] = rungs();
        let engines = [
            ("webgl", engine(webgl)),
            ("webgl, packing off", engine(ContextConfig { packing: false, ..webgl })),
            ("webgpu", engine(webgpu)),
            ("webgpu without shared memory", engine(no_shared_memory)),
        ];
        for (rung, e) in &engines {
            for ((case, got), (_, want)) in texel_edge_outputs(e).iter().zip(&want) {
                assert_eq!(got, want, "{rung}: {case}");
            }
        }
    }
}

fn backend(config: ContextConfig, plan: FaultPlan) -> GpuBackend {
    GpuBackend::with_faults(DeviceProfile::intel_iris_pro(), config, plan).unwrap()
}

fn engine(config: ContextConfig) -> Engine {
    let e = Engine::new();
    e.register_backend(config.caps.api, Arc::new(backend(config, FaultPlan::none())), 2);
    e
}

fn cpu_engine() -> Engine {
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(webml_core::cpu::CpuBackend::new()), 1);
    e
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn matmul_matches_cpu_on_bits(config: ContextConfig) {
    let e = engine(config);
    let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
    let b = e.tensor_2d(&[5.0, 6.0, 7.0, 8.0], 2, 2).unwrap();
    let c = ops::matmul(&a, &b, false, false).unwrap();
    assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
    // Not "close": every rung accumulates in the reference order, so
    // every transpose combination must match the CPU backend exactly on
    // awkward (non-multiple-of-TILE) dims.
    let (m, kdim, n) = (37, 53, 29);
    let avals: Vec<f32> = (0..m * kdim).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
    let bvals: Vec<f32> = (0..kdim * n).map(|i| ((i as f32) * 0.91).cos() * 2.0).collect();
    let biasv: Vec<f32> = (0..n).map(|i| (i as f32) * 0.05 - 0.4).collect();
    for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
        let run = |e: &Engine| -> Vec<Vec<u32>> {
            let (ar, ac) = if ta { (kdim, m) } else { (m, kdim) };
            let (br, bc) = if tb { (n, kdim) } else { (kdim, n) };
            let a = e.tensor_2d(&avals[..ar * ac], ar, ac).unwrap();
            let b = e.tensor_2d(&bvals[..br * bc], br, bc).unwrap();
            let bias = e.tensor_1d(&biasv).unwrap();
            let relu = Some(UnaryOp::Relu);
            let fused = ops::fused_matmul(&a, &b, Some(&bias), relu, ta, tb).unwrap();
            let plain = ops::matmul(&a, &b, ta, tb).unwrap();
            vec![bits(&plain.to_f32_vec().unwrap()), bits(&fused.to_f32_vec().unwrap())]
        };
        assert_eq!(run(&engine(config)), run(&cpu_engine()), "{} ta={ta} tb={tb}", config.caps.api);
    }
}

/// Every output of conv2d, depthwise conv2d and matmul where a packed
/// program's texel meets an edge: channel / column counts that leave a
/// tail texel (1, 3), fill texels exactly (4, 8) and make texels straddle
/// pixels or rows (3, 6); padded, strided and dilated tap walks; a channel
/// multiplier; every transpose and an empty inner dimension; each with
/// and without the bias+activation epilogue, over f32 and U8 weights.
fn texel_edge_outputs(e: &Engine) -> Vec<(String, Vec<u32>)> {
    let vals = |n: usize, f: f32| -> Vec<f32> { (0..n).map(|i| (i as f32 * f).sin()).collect() };
    let codes = |n: usize| -> Vec<u8> { (0..n).map(|i| ((i * 37 + 11) % 256) as u8).collect() };
    let per_channel = |axis: usize, n: usize| {
        let scales = (0..n).map(|c| 0.01 + c as f32 * 0.003).collect();
        QuantParams::per_channel(axis, scales, (0..n).map(|c| c as f32 * 0.1 - 1.2).collect())
    };
    let relu6 = Some(UnaryOp::Relu6);
    let mut out: Vec<(String, Vec<u32>)> = Vec::new();
    let mut push = |case: String, y: webml_core::Tensor| out.push((case, bits(&y.to_f32_vec().unwrap())));
    let x = e.tensor_4d(&vals(7 * 7 * 3, 0.37), 1, 7, 7, 3).unwrap();
    let walks = [(Padding::Same, 1, 1), (Padding::Valid, 2, 1), (Padding::Same, 1, 2)];
    for (pad, stride, dilation) in walks {
        let (st, di) = ((stride, stride), (dilation, dilation));
        for oc in [1, 3, 4, 6, 8] {
            let case = format!("conv2d {pad:?} stride {stride} dilation {dilation} oc {oc}");
            let bias = e.tensor_1d(&vals(oc, 0.7)).unwrap();
            let w = e.tensor_4d(&vals(3 * 3 * 3 * oc, 0.19), 3, 3, 3, oc).unwrap();
            let dims = vec![3, 3, 3, oc];
            let wq = e.quantized_tensor(codes(27 * oc), dims, per_channel(3, oc)).unwrap();
            push(format!("{case} plain"), ops::conv2d(&x, &w, st, pad, di).unwrap());
            for (kind, w) in [("f32", &w), ("u8", &wq)] {
                for (b, act) in [(None, None), (Some(&bias), relu6)] {
                    let y = ops::fused_conv2d(&x, w, b, act, st, pad, di).unwrap();
                    push(format!("{case} fused {kind} epilogue {}", b.is_some()), y);
                }
            }
        }
        // Depthwise: `mul` 1 takes the packed program, 2 the per-element.
        for (ic, mul) in [(1, 1), (3, 1), (4, 1), (6, 1), (8, 1), (3, 2), (4, 2)] {
            let case = format!("depthwise {pad:?} stride {stride} dilation {dilation} {ic}x{mul}");
            let x = e.tensor_4d(&vals(7 * 7 * ic, 0.41), 1, 7, 7, ic).unwrap();
            let bias = e.tensor_1d(&vals(ic * mul, 0.7)).unwrap();
            let w = e.tensor_4d(&vals(9 * ic * mul, 0.23), 3, 3, ic, mul).unwrap();
            let dims = vec![3, 3, ic, mul];
            let wq = e.quantized_tensor(codes(9 * ic * mul), dims, per_channel(2, ic)).unwrap();
            push(format!("{case} plain"), ops::depthwise_conv2d(&x, &w, st, pad, di).unwrap());
            for (kind, w) in [("f32", &w), ("u8", &wq)] {
                for (b, act) in [(None, None), (Some(&bias), relu6)] {
                    let y = ops::fused_depthwise_conv2d(&x, w, b, act, st, pad, di).unwrap();
                    push(format!("{case} fused {kind} epilogue {}", b.is_some()), y);
                }
            }
        }
    }
    for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
        for (k, n) in [(5, 1), (5, 3), (5, 4), (5, 6), (5, 8), (0, 6)] {
            let case = format!("matmul ta {ta} tb {tb} k {k} n {n}");
            let (ar, ac) = if ta { (k, 3) } else { (3, k) };
            let (br, bc) = if tb { (n, k) } else { (k, n) };
            let a = e.tensor(vals(3 * k, 0.37), Shape::new(vec![ar, ac])).unwrap();
            let b = e.tensor(vals(k * n, 0.91), Shape::new(vec![br, bc])).unwrap();
            let params = per_channel(if tb { 0 } else { 1 }, n);
            let bq = e.quantized_tensor(codes(k * n), vec![br, bc], params).unwrap();
            let bias = e.tensor_1d(&vals(n, 0.7)).unwrap();
            push(format!("{case} plain"), ops::matmul(&a, &b, ta, tb).unwrap());
            for (kind, b) in [("f32", &b), ("u8", &bq)] {
                for (bi, act) in [(None, None), (Some(&bias), relu6)] {
                    let y = ops::fused_matmul(&a, b, bi, act, ta, tb).unwrap();
                    push(format!("{case} fused {kind} epilogue {}", bi.is_some()), y);
                }
            }
        }
    }
    out
}

fn conv_and_pool_match_cpu_on_bits(config: ContextConfig) {
    let vals: Vec<f32> = (0..8 * 8 * 3).map(|i| (i as f32 * 0.37).sin()).collect();
    let wvals: Vec<f32> = (0..3 * 3 * 3 * 4).map(|i| (i as f32 * 0.19).cos()).collect();
    let run = |e: &Engine| -> Vec<u32> {
        let x = e.tensor_4d(&vals, 1, 8, 8, 3).unwrap();
        let w = e.tensor_4d(&wvals, 3, 3, 3, 4).unwrap();
        let y = ops::conv2d(&x, &w, (2, 2), Padding::Same, (1, 1)).unwrap();
        let p = ops::max_pool(&y, (2, 2), (2, 2), Padding::Valid).unwrap();
        bits(&p.to_f32_vec().unwrap())
    };
    assert_eq!(run(&engine(config)), run(&cpu_engine()), "{}", config.caps.api);
}

/// Fused kernels over u8 weights, then the unfused ops on the same
/// weights: conv2d and depthwise on a quantized filter, matmul on a
/// column-quantized rank-2 weight (stays on the factored kernel across
/// the `[1, k, n]` alias) and on a row-quantized one (the op layer
/// dequantizes it once). Fused and unfused, every rung matches `cpu` on
/// bits: every rung runs the same product bodies, which keep the oracle's
/// factored accumulation.
fn quantized_kernels_match_cpu(config: ContextConfig) {
    let codes: Vec<u8> = (0..3 * 3 * 3 * 4).map(|i| ((i * 37) % 256) as u8).collect();
    let scales: Vec<f32> = (0..4).map(|c| 0.01 + c as f32 * 0.003).collect();
    let mins: Vec<f32> = (0..4).map(|c| -1.2 + c as f32 * 0.1).collect();
    let xvals: Vec<f32> = (0..8 * 8 * 3).map(|i| (i as f32 * 0.37).sin()).collect();
    let bvals = [0.05f32, -0.1, 0.2, 0.0];
    let dw_codes: Vec<u8> = (0..3 * 3 * 3 * 2).map(|i| ((i * 91) % 256) as u8).collect();
    let (same, relu) = (Padding::Same, Some(UnaryOp::Relu));
    // (fused outputs, unfused outputs)
    let run = |e: &Engine| -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let x = e.tensor_4d(&xvals, 1, 8, 8, 3).unwrap();
        let per_oc = QuantParams::per_channel(3, scales.clone(), mins.clone());
        let w = e.quantized_tensor(codes.clone(), vec![3, 3, 3, 4], per_oc).unwrap();
        let bias = e.tensor_1d(&bvals).unwrap();
        let conv = ops::fused_conv2d(&x, &w, Some(&bias), relu, (2, 2), same, (1, 1)).unwrap();
        let per_ic =
            QuantParams::per_channel(2, vec![0.02, 0.015, 0.03], vec![-2.0, -1.5, -2.5]);
        let dw = e.quantized_tensor(dw_codes.clone(), vec![3, 3, 3, 2], per_ic).unwrap();
        let depthwise =
            ops::fused_depthwise_conv2d(&x, &dw, None, relu, (1, 1), same, (1, 1)).unwrap();
        let mut unfused = vec![
            ops::conv2d(&x, &w, (2, 2), same, (1, 1)).unwrap().to_f32_vec().unwrap(),
            ops::depthwise_conv2d(&x, &dw, (1, 1), same, (1, 1)).unwrap().to_f32_vec().unwrap(),
        ];
        let a = e.tensor_2d(&xvals[..6 * 4], 6, 4).unwrap();
        for (axis, kernel) in [(1, "FusedMatMulQuant"), (0, "FusedMatMul")] {
            let params = QuantParams::per_channel(axis, scales.clone(), mins.clone());
            let wm = e.quantized_tensor(codes[..16].to_vec(), vec![4, 4], params).unwrap();
            let (y, profile) = e.profile(|| ops::matmul(&a, &wm, false, false).unwrap());
            assert!(profile.kernels.iter().any(|k| k.name == kernel), "axis {axis}: {kernel}");
            unfused.push(y.to_f32_vec().unwrap());
        }
        (vec![conv.to_f32_vec().unwrap(), depthwise.to_f32_vec().unwrap()], unfused)
    };
    let (want, got) = (run(&cpu_engine()), run(&engine(config)));
    assert_eq!(got.1, want.1, "{}: unfused ops on quantized weights", config.caps.api);
    assert_eq!(got.0, want.0, "{}: fused kernels on quantized weights", config.caps.api);
    // The simplest case, by hand: codes 5..8 at scale 1, fused and not.
    let e = engine(config);
    let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
    let params = QuantParams::per_tensor(1.0, 0.0);
    let w = e.quantized_tensor(vec![5, 6, 7, 8], vec![2, 2], params).unwrap();
    let c = ops::fused_matmul(&a, &w, None, None, false, false).unwrap();
    assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
    let (c, profile) = e.profile(|| ops::matmul(&a, &w, false, false).unwrap());
    assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
    assert_eq!(profile.kernels[0].name, "FusedMatMulQuant");
}

fn eager_surface_works(config: ContextConfig) {
    let e = engine(config);
    // data() resolves like a promise.
    let y = ops::square(&e.tensor_1d(&[2.0, 3.0]).unwrap()).unwrap();
    assert_eq!(y.data().unwrap().wait().unwrap().to_f32_vec(), vec![4.0, 9.0]);
    // Gradients run on the device.
    let x = e.tensor_1d(&[3.0]).unwrap();
    let g = e.grad(&x, || ops::sum(&ops::square(&x)?, None, false)).unwrap();
    assert_eq!(g.to_f32_vec().unwrap(), vec![6.0]);
    // Ops return before the device finishes: six chained 128x128
    // matmuls enqueue quickly; running them takes much longer.
    let a = e.rand_uniform([128, 128], -1.0, 1.0, 1).unwrap();
    let t0 = std::time::Instant::now();
    let mut y = ops::matmul(&a, &a, false, false).unwrap();
    for _ in 0..5 {
        y = ops::matmul(&y, &a, false, false).unwrap();
    }
    let enqueue_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(enqueue_ms < 100.0, "{}: enqueue took {enqueue_ms} ms", config.caps.api);
    assert_eq!(y.to_f32_vec().unwrap().len(), 128 * 128);
}

fn async_reads_resolve_or_fail_but_never_hang(config: ContextConfig) {
    let b = backend(config, FaultPlan::none().with_readback_failures(1.0, 1));
    let id = b.register(TensorData::F32(vec![1.5, 2.5]), DType::F32);
    // A transient readback fault surfaces synchronously and classified,
    // so the engine's retry policy sees it...
    let refused = b.read(id);
    assert!(refused.is_ready(), "{}", config.caps.api);
    assert!(matches!(refused.wait(), Err(Error::ResourceExhausted { .. })));
    // ...and the retry is completed by the device thread.
    assert_eq!(b.read(id).wait().unwrap().to_f32_vec(), vec![1.5, 2.5]);
    // An unknown id resolves to an error.
    assert!(b.read(webml_core::backend::DataId(999)).wait().is_err());
    b.dispose_data(id);
    assert!(b.read(id).wait().is_err() && b.read_sync(id).is_err());
}

fn quantized_weights_hold_one_byte_per_code(config: ContextConfig) {
    let byte_count = |dtype: DType, data: TensorData| -> usize {
        let b = backend(config, FaultPlan::none());
        let id = b.register(data, dtype);
        b.read_sync(id).unwrap(); // flush the upload through the queue
        b.context().memory().bytes_in_gpu
    };
    let q = byte_count(DType::U8, TensorData::U8(vec![7u8; 1024]));
    let f = byte_count(DType::F32, TensorData::F32(vec![7.0f32; 1024]));
    assert!(q * 3 <= f, "quantized residency {q} B should be ~4x below f32 {f} B");
    // The codes survive the round trip as codes.
    let b = backend(config, FaultPlan::none());
    let codes: Vec<u8> = (0..=255).collect();
    let id = b.register(TensorData::U8(codes.clone()), DType::U8);
    match b.read_sync(id).unwrap() {
        TensorData::U8(v) => assert_eq!(v, codes),
        other => panic!("expected U8 readback, got {other:?}"),
    }
    // Float values registered as U8 are rounded to codes, not truncated.
    let id = b.register(TensorData::F32(vec![1.6, -3.0, 300.0]), DType::U8);
    assert_eq!(b.read_sync(id).unwrap().to_f32_vec(), vec![2.0, 0.0, 255.0]);
}

fn quantized_weights_rebuild_after_a_seeded_loss(config: ContextConfig) {
    let b = backend(config, FaultPlan { seed: 42, ..FaultPlan::none() }.lose_context_at(2));
    let shape = Shape::new(vec![1, 2, 2]);
    let a_id = b.register(TensorData::F32(vec![1.0, 2.0, 3.0, 4.0]), DType::F32);
    let w_id = b.register(TensorData::U8(vec![5, 6, 7, 8]), DType::U8);
    let params = QuantParams::per_tensor(1.0, 0.0);
    let a = KTensor::new(a_id, &shape, DType::F32);
    let w = KTensor { quant: Some(&params), ..KTensor::new(w_id, &shape, DType::U8) };
    let matmul = KernelCall::MatMul {
        transpose_a: false,
        transpose_b: false,
        epilogue: Epilogue::Quant { bias: false, activation: None },
    };
    let first = b.run(&matmul, &[a, w]).unwrap();
    let expect = b.read_sync(first).unwrap().to_f32_vec();
    assert_eq!(expect, vec![19.0, 22.0, 43.0, 50.0]);
    // The second dispatch hits the injected loss.
    assert!(
        b.run(&matmul, &[a, w]).is_err(),
        "{}: dispatch 2 must observe the lost context",
        config.caps.api
    );
    // Registered while lost: kept on the host, uploaded by `recover`.
    let late = b.register(TensorData::U8(vec![9, 9]), DType::U8);
    assert_eq!(b.read_sync(late).unwrap().to_f32_vec(), vec![9.0, 9.0]);
    let host_resident = |b: &GpuBackend| {
        let details = b.memory().details;
        details.iter().find(|(k, _)| k == "host_resident_buffers").unwrap().1
    };
    assert_eq!(host_resident(&b), 1.0);
    assert!(b.recover(), "context restores");
    assert_eq!(host_resident(&b), 0.0);
    // The weight pages back into one-byte storage from its shadow: the
    // rebuilt kernel result and the raw codes are both intact.
    let again = b.run(&matmul, &[a, w]).unwrap();
    assert_eq!(b.read_sync(again).unwrap().to_f32_vec(), expect);
    for (id, codes) in [(w_id, vec![5, 6, 7, 8]), (late, vec![9, 9])] {
        match b.read_sync(id).unwrap() {
            TensorData::U8(v) => assert_eq!(v, codes),
            other => panic!("expected U8 codes after recovery, got {other:?}"),
        }
    }
}

fn byte_ledger_survives_a_device_loss(config: ContextConfig) {
    let b = backend(config, FaultPlan::none().lose_context_at(1));
    let baseline = b.memory().num_bytes;
    let vals: Vec<f32> = (0..1024).map(|i| i as f32).collect();
    let shape = Shape::new(vec![1024]);
    let id = b.register(TensorData::F32(vals.clone()), DType::F32);
    let held = b.memory().num_bytes;
    assert_eq!(held - baseline, 4096, "{}", config.caps.api);
    // The first dispatch loses the device.
    let x = KTensor::new(id, &shape, DType::F32);
    let neg = b.run(&KernelCall::Unary(UnaryOp::Neg), &[x]);
    assert!(matches!(neg, Err(Error::ContextLost { .. })));
    let m = b.memory();
    let detail = |key: &str| m.details.iter().find(|(k, _)| k == key).unwrap().1;
    assert_eq!(m.num_bytes, held, "{}: the device still holds and serves the 4 KB", config.caps.api);
    assert_eq!((detail("bytes_in_gpu"), detail("bytes_paged")), (0.0, 4096.0));
    assert_eq!(detail("context_losses"), 1.0);
    assert_eq!(b.read_sync(id).unwrap().to_f32_vec(), vals);
    b.dispose_data(id);
    assert_eq!(b.memory().num_bytes, baseline);
    // Every rung reports the same ledger.
    let keys: Vec<&str> = m.details.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "bytes_in_gpu",
            "bytes_paged",
            "page_outs",
            "page_ins",
            "recycler_hits",
            "recycler_misses",
            "programs_run",
            "host_resident_buffers",
            "context_losses",
            "oom_failures",
            "compile_failures",
            "transient_read_failures",
        ]
    );
}

fn profiles_without_the_api_are_rejected(config: ContextConfig) {
    let on = |p| GpuBackend::new(p, config);
    assert!(on(DeviceProfile::android_legacy()).is_err());
    assert_eq!(on(DeviceProfile::ios_safari()).is_ok(), config.caps.storage == Storage::Texture);
    // Built without a name, the backend carries its rung's registry name
    // into its errors.
    let unknown = on(DeviceProfile::intel_iris_pro()).unwrap().read_sync(DataId(999));
    assert!(matches!(unknown, Err(Error::Backend { backend, .. }) if backend == config.caps.api));
}

fn device_timer_follows_the_rule_of_the_api(config: ContextConfig) {
    // Timestamp queries are core in the compute API — even the Android
    // profile that lacks EXT_disjoint_timer_query on WebGL can time.
    let p = DeviceProfile::android_modern();
    assert!(!p.has_disjoint_timer_query && p.has_webgpu);
    let b = GpuBackend::new(p, config).unwrap();
    assert_eq!(b.device_timer_ns().is_some(), config.caps.storage == Storage::Linear);
    assert!(backend(config, FaultPlan::none()).device_timer_ns().is_some());
}

fn foreign_fence_tokens_read_as_passed(config: ContextConfig) {
    let minting = backend(config, FaultPlan::none());
    let other = backend(ContextConfig::default(), FaultPlan::none());
    let tokens: Vec<_> = (0..5).map(|_| minting.submit_fence().unwrap()).collect();
    // `other` never issued a fence: a bare sequence number would park
    // the caller on its condvar forever.
    assert!(other.fence_passed(tokens[4]), "{}", config.caps.api);
    other.wait_fence(tokens[4]);
    minting.wait_fence(tokens[4]);
    assert!(tokens.iter().all(|&t| minting.fence_passed(t)));
}

/// A call no program could run is refused by the call's own rule before
/// anything reaches the device thread — the same `Err` as on the host
/// sets — and the device keeps serving.
fn malformed_calls_are_errors_not_panics(config: ContextConfig) {
    let b = backend(config, FaultPlan::none());
    let shape = Shape::new(vec![4]);
    let id = b.register(TensorData::F32(vec![1.0; 4]), DType::F32);
    let x = KTensor::new(id, &shape, DType::F32);
    let chain =
        |steps: &[FusedStep]| b.run(&KernelCall::FusedElementwise(Cow::Borrowed(steps)), &[x]);
    assert!(matches!(chain(&[]), Err(Error::InvalidArgument { .. })), "{}", config.caps.api);
    let missing = chain(&[FusedStep::Binary(BinaryOp::Add, 0)]);
    assert!(matches!(missing, Err(Error::InvalidArgument { .. })), "{}", config.caps.api);
    let y = b.run(&KernelCall::Unary(UnaryOp::Neg), &[x]).unwrap();
    assert_eq!(b.read_sync(y).unwrap().to_f32_vec(), vec![-1.0; 4]);
}

/// One call of each kind the oracle adapter runs, `Unary` and both
/// `Binary` programs (same shape, broadcast), and the taped gradient
/// through each backprop, against `cpu` on bits.
fn every_oracle_call_matches_cpu_on_bits(config: ContextConfig) {
    use oracle_calls::{cases, differing, run, taped_gradients};
    let (b, cpu) = (backend(config, FaultPlan::none()), webml_core::cpu::CpuBackend::new());
    let mut differ = Vec::new();
    let mut check = |what: &str, got: &[f32], want: &[f32]| {
        let n = differing(got, want);
        if n > 0 {
            differ.push(format!("{what}: {n} of {} outputs differ", want.len()));
        }
    };
    for case in cases() {
        let (got, want) = (run(&b, &case).unwrap(), run(&cpu, &case).unwrap());
        check(&case.name, &got, &want);
    }
    let want = taped_gradients(&cpu_engine());
    for ((what, got), (_, want)) in taped_gradients(&engine(config)).iter().zip(&want) {
        check(what, got, want);
    }
    assert!(differ.is_empty(), "{}: {}", config.caps.api, differ.join("; "));
}

/// The matmul program each rung's `kernel` builds declares the family's
/// reuse, [`TILE`]; only a device with shared memory reads it.
#[test]
fn the_third_rung_ignores_declared_reuse() {
    use webml_webgl_sim::shader::occupancy;
    let shape = Shape::new(vec![1, 256, 256]);
    let x = KTensor::new(DataId(0), &shape, DType::F32);
    let matmul =
        KernelCall::MatMul { transpose_a: false, transpose_b: false, epilogue: Epilogue::None };
    for (config, lanes) in rungs().into_iter().zip([8, 8 * TILE, 8]) {
        let caps = config.caps;
        let tiled = programs::kernel(caps, &matmul, &[x, x], shape.dims(), config.packing);
        let tiled = tiled.unwrap();
        assert_eq!(tiled.shared_reuse, TILE, "{}", tiled.name);
        assert_eq!(occupancy(8, caps.shared_memory, &tiled), lanes, "{}", tiled.name);
    }
}
