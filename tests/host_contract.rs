//! The host contract: one body per behaviour, run on every host kernel set
//! — `cpu` (the reference), `plainjs`, and `native` on one thread and on all
//! cores. The three are one `HostBackend` over three `HostKernels` sets, so
//! what the substrate does (the store, dtype handling, the kernel timer, the
//! free list of disposed buffers, sharing between threads, the validation of
//! a call) holds for each of them or for none. What a set computes is
//! compared elsewhere: plainjs against the reference in `webml-backend-cpu`,
//! native's bit-equality sweeps in `webml-backend-native`, all of them in
//! `tests/cross_backend.rs`.

use std::borrow::Cow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use webml::backend_cpu::PlainJs;
use webml::backend_native::Native;
use webml::core::backend::{
    Backend, BackendMemory, BinaryOp, DataId, Epilogue, FusedStep, KTensor, KernelCall, UnaryOp,
};
use webml::core::conv_util::{conv2d_info, Padding};
use webml::core::cpu::Reference;
use webml::core::host::{FreeList, Host, HostBackend, HostKernels};
use webml::core::kernels::Operand;
use webml::core::quant::QuantParams;
use webml::data::synthetic;
use webml::layers::{Activation, Adam, Conv2D, Dense, FitConfig, Flatten, Loss, Sequential};
use webml::{ops, DType, Engine, Error, Shape, Tensor, TensorData};

/// Instantiate a contract body on every host kernel set.
macro_rules! on_every_host {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            super::$name::<super::Reference>(1);
            super::$name::<super::PlainJs>(1);
            super::$name::<super::Native>(1);
            super::$name::<super::Native>(<super::Native as super::HostKernels>::default_threads());
        }
    )*};
}

mod contract {
    on_every_host!(
        register_and_read_round_trip_per_dtype,
        dispose_returns_memory_to_baseline,
        unknown_id_is_an_error_naming_the_backend,
        cast_covers_every_dtype_pair,
        every_kernel_of_a_forward_pass_is_timed,
        concurrent_time_windows_keep_their_own_kernels,
        threads_sharing_a_backend_get_the_single_thread_answer,
        quantized_fused_matmul_matches_the_dequantize_fallback,
        mismatched_per_channel_axis_falls_back_not_errors,
        conv2d_backprop_filter_equals_the_reference_on_bits,
        malformed_calls_are_errors_not_panics,
        stale_buffer_contents_never_reach_an_output,
        a_buffer_still_held_is_never_recycled,
    );
}

fn host<K: HostKernels>(threads: usize) -> HostBackend<K> {
    HostBackend::with_threads(K::NAME, threads)
}

/// An engine with `host::<K>(threads)` as its only backend.
fn engine<K: HostKernels>(threads: usize) -> Engine {
    let e = Engine::new();
    e.register_backend(K::NAME, Arc::new(host::<K>(threads)), 1);
    e
}

fn register_and_read_round_trip_per_dtype<K: HostKernels>(threads: usize) {
    let b = host::<K>(threads);
    let round_trip = |data: TensorData, dtype| b.read_sync(b.register(data, dtype)).unwrap();
    let floats = TensorData::F32(vec![1.5, 0.0, -2.9]);
    assert_eq!(round_trip(floats.clone(), DType::F32), floats);
    // The host carries F16 values as f32.
    assert_eq!(round_trip(floats.clone(), DType::F16), floats);
    assert_eq!(round_trip(TensorData::I32(vec![7, -3]), DType::I32), TensorData::I32(vec![7, -3]));
    assert_eq!(round_trip(floats.clone(), DType::I32), TensorData::I32(vec![1, 0, -2]));
    // Bool normalises any non-zero to 1, whatever it was stored as.
    assert_eq!(round_trip(floats, DType::Bool), TensorData::U8(vec![1, 0, 1]));
    assert_eq!(round_trip(TensorData::U8(vec![7, 0]), DType::Bool), TensorData::U8(vec![1, 0]));
    // U8 codes are kept as they are.
    let codes = TensorData::U8(vec![0, 255, 17]);
    assert_eq!(round_trip(codes.clone(), DType::U8), codes);
    // The async read resolves to the same buffer.
    let id = b.register(codes.clone(), DType::U8);
    assert_eq!(b.read(id).wait().unwrap(), codes);
}

/// One of a backend's `details` gauges.
fn detail(memory: &BackendMemory, key: &str) -> f64 {
    let found = memory.details.iter().find(|(k, _)| k == key);
    found.unwrap_or_else(|| panic!("no {key} among {:?}", memory.details)).1
}

/// The store's gauges go back to zero. What the free list keeps of the
/// disposed buffers is reported beside them, and is bounded by what its
/// kernels took: never more free buffers of a length than it has made, so
/// nothing at all for a set whose kernels never take.
fn dispose_returns_memory_to_baseline<K: HostKernels>(threads: usize) {
    let b = host::<K>(threads);
    let baseline = b.memory();
    assert_eq!((baseline.num_buffers, baseline.num_bytes), (0, 0));
    assert_eq!(detail(&baseline, "pooled_bytes"), 0.0);
    let shape = Shape::new(vec![100]);
    let hundred = |v: f32| b.register(TensorData::F32(vec![v; 100]), DType::F32);
    let x = hundred(-1.0);
    assert_eq!((b.memory().num_buffers, b.memory().num_bytes), (1, 400));
    let unary = |op| b.run(&KernelCall::Unary(op), &[KTensor::new(x, &shape, DType::F32)]);
    let (y, flags) = (unary(UnaryOp::Relu).unwrap(), unary(UnaryOp::IsNan).unwrap());
    // A bool output is a byte an element.
    assert_eq!((b.memory().num_buffers, b.memory().num_bytes), (3, 900));
    for id in [x, y, flags] {
        b.dispose_data(id);
    }
    // More buffers of the one length the kernels took, disposed unused.
    for _ in 0..4 {
        b.dispose_data(hundred(0.0));
    }
    let after = b.memory();
    assert_eq!((after.num_buffers, after.num_bytes), (0, 0), "{}", K::NAME);
    let (pooled, made) = (detail(&after, "pooled_bytes"), detail(&after, "recycle_misses"));
    assert!(pooled <= 400.0 * made, "{}: {pooled} bytes pooled, {made} buffers made", K::NAME);
}

fn unknown_id_is_an_error_naming_the_backend<K: HostKernels>(threads: usize) {
    let b = host::<K>(threads);
    let names_backend =
        |err: Error| matches!(err, Error::Backend { backend, .. } if backend == K::NAME);
    let gone = b.register(TensorData::F32(vec![1.0]), DType::F32);
    b.dispose_data(gone);
    let shape = Shape::new(vec![1]);
    for id in [DataId(999), gone] {
        assert!(names_backend(b.read_sync(id).unwrap_err()));
        assert!(names_backend(b.read(id).wait().unwrap_err()));
        let t = [KTensor::new(id, &shape, DType::F32)];
        assert!(names_backend(b.run(&KernelCall::Unary(UnaryOp::Exp), &t).unwrap_err()));
        assert!(names_backend(b.run(&KernelCall::Cast(DType::I32), &t).unwrap_err()));
    }
}

fn cast_covers_every_dtype_pair<K: HostKernels>(threads: usize) {
    const DTYPES: [DType; 5] = [DType::F32, DType::F16, DType::I32, DType::Bool, DType::U8];
    let b = host::<K>(threads);
    let values = TensorData::F32(vec![0.0, 1.0, 2.7, 300.0]);
    let shape = Shape::new(vec![4]);
    for from in DTYPES {
        // What a tensor of `from` holds once these values are stored in it.
        let stored = values.cast(from);
        for to in DTYPES {
            let id = b.register(stored.clone(), from);
            let before = b.memory().num_bytes;
            let out = b.run(&KernelCall::Cast(to), &[KTensor::new(id, &shape, from)]).unwrap();
            assert_eq!(b.read_sync(out).unwrap(), stored.cast(to), "{from} -> {to}");
            assert_eq!(b.memory().num_bytes - before, 4 * to.byte_size(), "{from} -> {to}");
        }
    }
    // Spot values, so the expectation is not only `TensorData::cast` itself.
    let id = b.register(values, DType::F32);
    let cast = |id, from, to| b.run(&KernelCall::Cast(to), &[KTensor::new(id, &shape, from)]);
    let as_u8 = cast(id, DType::F32, DType::U8).unwrap();
    assert_eq!(b.read_sync(as_u8).unwrap(), TensorData::U8(vec![0, 1, 2, 255]));
    let as_bool = cast(as_u8, DType::U8, DType::Bool).unwrap();
    assert_eq!(b.read_sync(as_bool).unwrap(), TensorData::U8(vec![0, 1, 1, 1]));
}

fn wave(e: &Engine, dims: &[usize], step: f32) -> webml::Tensor {
    let vals: Vec<f32> = (0..dims.iter().product()).map(|i| (i as f32 * step).sin()).collect();
    e.tensor(vals, dims.to_vec()).unwrap()
}

/// Kernel time is counted by the substrate around every kernel, whichever
/// set supplies the body: a set's own kernels (all of plainjs's used to run
/// untimed) and the oracle's defaults alike.
fn every_kernel_of_a_forward_pass_is_timed<K: HostKernels>(threads: usize) {
    let e = engine::<K>(threads);
    let a = wave(&e, &[64, 64], 0.37);
    let (_, timed) = e.time(|| ops::matmul(&a, &a, false, false).unwrap());
    assert!(timed.kernel_ms > 0.0 && timed.kernel_ms <= timed.wall_ms, "{}: {timed:?}", K::NAME);

    let x = wave(&e, &[2, 8, 8, 3], 0.17);
    let w = wave(&e, &[3, 3, 3, 4], 0.29);
    let bias = wave(&e, &[4], 0.7);
    let dw = wave(&e, &[3, 3, 4, 1], 0.41);
    let dense = wave(&e, &[4 * 4 * 4, 5], 0.23);
    let backend = e.backend();
    let timer_before = backend.device_timer_ns().expect("a host backend has a timer");
    let (_, profile) = e.profile(|| {
        let y = ops::conv2d(&x, &w, (1, 1), Padding::Same, (1, 1)).unwrap();
        let y = ops::relu(&ops::add(&y, &bias).unwrap()).unwrap();
        let y = ops::depthwise_conv2d(&y, &dw, (1, 1), Padding::Same, (1, 1)).unwrap();
        let y = ops::max_pool(&y, (2, 2), (2, 2), Padding::Valid).unwrap();
        let y = ops::reshape(&y, [2, 4 * 4 * 4]).unwrap();
        let logits = ops::matmul(&y, &dense, false, false).unwrap();
        ops::argmax(&ops::softmax(&logits).unwrap(), 1).unwrap()
    });
    let names: Vec<&str> = profile.kernels.iter().map(|k| k.name).collect();
    for hot in ["Conv2D", "Add", "Relu", "DepthwiseConv2D", "MaxPool", "MatMul", "ArgMax"] {
        assert!(names.contains(&hot), "{}: no {hot} among {names:?}", K::NAME);
    }
    let mut total_ns = 0.0;
    for kernel in &profile.kernels {
        let ms = kernel.kernel_ms.expect("a host backend has a timer");
        assert!(ms > 0.0, "{}: {} ran untimed", K::NAME, kernel.name);
        total_ns += ms * 1e6;
    }
    let grown = (backend.device_timer_ns().unwrap() - timer_before) as f64;
    assert!(grown >= total_ns * 0.999, "{}: timer grew {grown} ns < {total_ns} ns", K::NAME);
}

/// `tf.time` is a difference of two samples of the one kernel timer, so a
/// window another thread opens while this one is running does not reset it.
/// The channels fix the order: A runs its matmul, B opens and closes its
/// window, then A closes its own.
fn concurrent_time_windows_keep_their_own_kernels<K: HostKernels>(threads: usize) {
    let e = engine::<K>(threads);
    let a = wave(&e, &[64, 64], 0.37);
    let (ran, a_ran) = channel();
    let (opened, b_opened) = channel();
    std::thread::scope(|s| {
        let b = &e;
        s.spawn(move || {
            a_ran.recv().unwrap();
            b.time(|| opened.send(()).unwrap());
        });
        let (_, timed) = e.time(|| {
            ops::matmul(&a, &a, false, false).unwrap();
            ran.send(()).unwrap();
            b_opened.recv().unwrap();
        });
        assert!(timed.kernel_ms > 0.0, "{}: {timed:?}", K::NAME);
    });
}

/// conv2d, matmul and an elementwise add; `salt` makes every caller's
/// operands its own.
fn mixed_kernels(backend: &dyn Backend, salt: usize) -> Vec<TensorData> {
    let x_shape = Shape::new(vec![2, 12, 12, 3]);
    let w_shape = Shape::new(vec![3, 3, 3, 4]);
    let a_shape = Shape::new(vec![1, 24, 16]);
    let b_shape = Shape::new(vec![1, 16, 20]);
    let v_shape = Shape::new(vec![4096]);
    let info = conv2d_info("t", &x_shape, &w_shape, (1, 1), Padding::Same, (1, 1)).unwrap();
    let put = |shape: &Shape, step: f32| {
        let vals = (0..shape.size()).map(|i| ((i + salt) as f32 * step).sin()).collect();
        backend.register(TensorData::F32(vals), DType::F32)
    };
    let (x, w) = (put(&x_shape, 0.17), put(&w_shape, 0.37));
    let (a, b) = (put(&a_shape, 0.13), put(&b_shape, 0.29));
    let v = put(&v_shape, 0.41);
    let k = |id, shape| KTensor::new(id, shape, DType::F32);
    let v = k(v, &v_shape);
    let plain = Epilogue::None;
    let conv = KernelCall::Conv2d { info: Cow::Borrowed(&info), epilogue: plain };
    let matmul = KernelCall::MatMul { transpose_a: false, transpose_b: false, epilogue: plain };
    let outs = [
        backend.run(&conv, &[k(x, &x_shape), k(w, &w_shape)]),
        backend.run(&matmul, &[k(a, &a_shape), k(b, &b_shape)]),
        backend.run(&KernelCall::Binary(BinaryOp::Add), &[v, v]),
    ]
    .map(Result::unwrap);
    let read = outs.iter().map(|&id| backend.read_sync(id).unwrap()).collect();
    for id in [x, w, a, b, v.data].into_iter().chain(outs) {
        backend.dispose_data(id);
    }
    read
}

fn threads_sharing_a_backend_get_the_single_thread_answer<K: HostKernels>(threads: usize) {
    let shared = host::<K>(threads);
    let start = Barrier::new(8);
    std::thread::scope(|s| {
        for salt in 0..8 {
            let (shared, start) = (&shared, &start);
            s.spawn(move || {
                let want = mixed_kernels(&host::<K>(1), salt);
                start.wait();
                for _ in 0..5 {
                    assert_eq!(mixed_kernels(shared, salt), want, "{} caller {salt}", K::NAME);
                }
            });
        }
    });
    assert_eq!(shared.memory().num_buffers, 0, "every caller disposed what it made");
}

fn quantized_fused_matmul_matches_the_dequantize_fallback<K: HostKernels>(threads: usize) {
    let b = host::<K>(threads);
    let a_shape = Shape::new(vec![1, 2, 3]);
    let w_shape = Shape::new(vec![1, 3, 2]);
    let bias_shape = Shape::new(vec![2]);
    let a_id = b.register(TensorData::F32(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]), DType::F32);
    let w_id = b.register(TensorData::U8(vec![0, 255, 100, 17, 200, 64]), DType::U8);
    let bias_id = b.register(TensorData::F32(vec![0.25, -0.5]), DType::F32);
    let params = QuantParams::per_tensor(0.03, -3.0);
    let a = KTensor::new(a_id, &a_shape, DType::F32);
    let w = KTensor { quant: Some(&params), ..KTensor::new(w_id, &w_shape, DType::U8) };
    let bias = KTensor::new(bias_id, &bias_shape, DType::F32);
    let epilogue = Epilogue::Quant { bias: true, activation: Some(UnaryOp::Relu) };
    let call = KernelCall::MatMul { transpose_a: false, transpose_b: false, epilogue };
    // The set's own dequant-free kernel (native) or the oracle's (cpu,
    // plainjs), against the f32 fused call over the codes dequantized
    // host-side — what the op layer runs when it cannot take the former.
    let fast = b.run(&call, &[a, w, bias]).unwrap();
    let codes = b.read_sync(w_id).unwrap().to_u8_codes();
    let values = params.dequantize(&codes, w_shape.dims()).unwrap();
    let fw_id = b.register(TensorData::F32(values), DType::F32);
    let fw = KTensor::new(fw_id, &w_shape, DType::F32);
    let f32_call =
        call.with_epilogue(Epilogue::Fused { bias: true, activation: Some(UnaryOp::Relu) });
    let slow = b.run(&f32_call, &[a, fw, bias]).unwrap();
    b.dispose_data(fw_id);
    let fv = b.read_sync(fast).unwrap().to_f32_vec();
    let sv = b.read_sync(slow).unwrap().to_f32_vec();
    assert_eq!(fv.len(), 4);
    for (f, s) in fv.iter().zip(&sv) {
        assert!((f - s).abs() < 1e-4, "{}: factored {f} vs dequantized {s}", K::NAME);
    }
    assert_eq!(b.memory().num_buffers, 5, "each call leaves only its output");
}

/// Both gradients of the training step's second conv (stride 2, `Same`).
/// The loss is `Σ y·g` for a fixed `g`, so `dy = g` on every set however its
/// forward pass sums: `dW` must then equal `cpu`'s to the bit, and `dx` be
/// within 1e-5 of it.
fn conv2d_backprop_filter_equals_the_reference_on_bits<K: HostKernels>(threads: usize) {
    let grads = |e: &Engine| {
        let x = wave(e, &[32, 14, 14, 8], 0.21);
        let w = wave(e, &[3, 3, 8, 16], 0.33);
        let g = wave(e, &[32, 7, 7, 16], 0.47);
        let grads = e
            .grads(&[&x, &w], || {
                let y = ops::conv2d(&x, &w, (2, 2), Padding::Same, (1, 1))?;
                ops::sum(&ops::mul(&y, &g)?, None, false)
            })
            .unwrap();
        grads.iter().map(|t| t.to_f32_vec().unwrap()).collect::<Vec<_>>()
    };
    let (want, got) = (grads(&engine::<Reference>(1)), grads(&engine::<K>(threads)));
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got[1]), bits(&want[1]), "{}: dW", K::NAME);
    assert_eq!(got[0].len(), want[0].len());
    for (i, (g, r)) in got[0].iter().zip(&want[0]).enumerate() {
        assert!((g - r).abs() <= 1e-5, "{}: dx[{i}] {g} vs {r}", K::NAME);
    }
}

fn mismatched_per_channel_axis_falls_back_not_errors<K: HostKernels>(threads: usize) {
    let e = engine::<K>(threads);
    let a = e.tensor(vec![1.0, 1.0], vec![1, 1, 2]).unwrap();
    // Per-channel along the k axis (1): the factored kernel cannot keep
    // a constant scale per output column, so the op layer dequantizes.
    let params = QuantParams::per_channel(1, vec![0.1, 0.2], vec![0.0, 0.0]);
    let w = e.quantized_tensor(vec![10, 20, 30, 40], vec![1, 2, 2], params).unwrap();
    let got = ops::fused_matmul(&a, &w, None, None, false, false).unwrap().to_f32_vec().unwrap();
    // Row 0 dequantizes with scale .1, row 1 with scale .2.
    assert!((got[0] - (10.0 * 0.1 + 30.0 * 0.2)).abs() < 1e-5, "{}", K::NAME);
    assert!((got[1] - (20.0 * 0.1 + 40.0 * 0.2)).abs() < 1e-5, "{}", K::NAME);
}

/// A call no kernel could run is refused by the call's own rule before any
/// kernel sees it — the same `Err` on every set, never a panic on a pool
/// worker: an empty chain, a step naming an extra that is not there, and an
/// operand count or shape out of line.
fn malformed_calls_are_errors_not_panics<K: HostKernels>(threads: usize) {
    let b = host::<K>(threads);
    let shape = Shape::new(vec![4]);
    let x = KTensor::new(b.register(TensorData::F32(vec![1.0; 4]), DType::F32), &shape, DType::F32);
    let chain =
        |steps: &[FusedStep]| b.run(&KernelCall::FusedElementwise(Cow::Borrowed(steps)), &[x]);
    assert!(matches!(chain(&[]), Err(Error::InvalidArgument { .. })), "{}: empty chain", K::NAME);
    let missing = chain(&[FusedStep::Binary(BinaryOp::Add, 0)]);
    assert!(matches!(missing, Err(Error::InvalidArgument { .. })), "{}: missing extra", K::NAME);
    assert!(b.run(&KernelCall::Binary(BinaryOp::Add), &[x]).is_err(), "{}: one operand", K::NAME);
    let matrix = Shape::new(vec![2, 2]);
    let m = KTensor::new(x.data, &matrix, DType::F32);
    let plain = Epilogue::None;
    let matmul = KernelCall::MatMul { transpose_a: false, transpose_b: false, epilogue: plain };
    assert!(b.run(&matmul, &[m, x]).is_err(), "{}: rank-1 weight", K::NAME);
    let gather = KernelCall::Gather { axis: 1 };
    assert!(b.run(&gather, &[x, x]).is_err(), "{}: axis out of range", K::NAME);
    assert_eq!(b.memory().num_buffers, 1, "{}: nothing was stored", K::NAME);
}

/// The outputs of a small conv net's forward layers, its loss and the loss's
/// gradient with respect to every input, as bits, in a tidy scope: conv,
/// bias add, relu, depthwise conv, a slice of the batch, a dense layer of
/// fewer rows than a register tile, softmax and their backward kernels; and
/// beside them, outside the loss, the three products over U8 weights.
fn conv_net_step(e: &Engine) -> Vec<Vec<u32>> {
    let mut bits = Vec::new();
    e.tidy(|| {
        let images = wave(e, &[6, 12, 12, 3], 0.17);
        let w1 = wave(e, &[3, 3, 3, 8], 0.37);
        let b1 = wave(e, &[8], 0.7);
        let dw = wave(e, &[3, 3, 8, 1], 0.53);
        let w2 = wave(e, &[3, 3, 8, 16], 0.29);
        let dense = wave(e, &[3 * 3 * 16, 5], 0.23);
        let target = wave(e, &[3, 5], 0.61);
        let codes = |dims: Vec<usize>| {
            let codes = (0..dims.iter().product()).map(|i: usize| (i * 37 % 251) as u8).collect();
            e.quantized_tensor(codes, dims, QuantParams::per_tensor(0.01, -1.2)).unwrap()
        };
        let (q_conv, q_depthwise, q_dense) =
            (codes(vec![3, 3, 3, 8]), codes(vec![3, 3, 8, 1]), codes(vec![3 * 3 * 16, 5]));
        let forward = || -> webml::Result<Vec<Tensor>> {
            let x = ops::slice(&images, &[1, 0, 0, 0], &[3, 12, 12, 3])?;
            let y1 = ops::conv2d(&x, &w1, (2, 2), Padding::Same, (1, 1))?;
            let a1 = ops::relu(&ops::add(&y1, &b1)?)?;
            let d1 = ops::depthwise_conv2d(&a1, &dw, (1, 1), Padding::Same, (1, 1))?;
            let a2 = ops::relu(&ops::conv2d(&d1, &w2, (2, 2), Padding::Same, (1, 1))?)?;
            let flat = ops::reshape(&a2, [3, 3 * 3 * 16])?;
            let logits = ops::matmul(&flat, &dense, false, false)?;
            let err = ops::sub(&ops::softmax(&logits)?, &target)?;
            let loss = ops::mean(&ops::square(&err)?, None, false)?;
            let q1 = ops::conv2d(&x, &q_conv, (2, 2), Padding::Same, (1, 1))?;
            let q2 = ops::depthwise_conv2d(&a1, &q_depthwise, (1, 1), Padding::Same, (1, 1))?;
            let q3 = ops::matmul(&flat, &q_dense, false, false)?;
            Ok(vec![x, y1, a1, d1, a2, logits, q1, q2, q3, loss])
        };
        let grads = e.grads(&[&images, &w1, &b1, &dw, &w2, &dense], || {
            Ok(forward()?.pop().expect("the loss"))
        });
        for t in forward().unwrap().iter().chain(&grads.unwrap()) {
            bits.push(t.to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect());
        }
    });
    bits
}

/// The kernel set `K`, each of whose kernels gets a free list of its own
/// that starts empty: every output and every scratch buffer is fresh zeros,
/// as before there was a free list.
struct Fresh<K>(PhantomData<K>);

impl<K: HostKernels> HostKernels for Fresh<K> {
    const NAME: &'static str = K::NAME;

    fn run(
        call: &KernelCall<'_>,
        operands: &[Operand<'_>],
        out: &Shape,
        host: &Host<'_>,
    ) -> TensorData {
        K::run(call, operands, out, &Host { pool: host.pool, buffers: &FreeList::default() })
    }
}

/// A recycled buffer holds what its last user left. Poison the free list
/// with NaN: for every output of a conv-net forward and backward pass, a
/// kernel writes NaN into a buffer of that size while all the others are
/// held, then all of them are disposed. Run the pass on that backend and
/// compare every output on bits with a backend that recycles nothing.
fn stale_buffer_contents_never_reach_an_output<K: HostKernels>(threads: usize) {
    let fresh = engine::<Fresh<K>>(threads);
    let (want, profile) = fresh.profile(|| conv_net_step(&fresh));
    let e = engine::<K>(threads);
    let backend = e.backend();
    let poison: Vec<(DataId, DataId)> = profile
        .kernels
        .iter()
        .flat_map(|k| k.output_shapes.iter().map(Shape::size))
        .map(|n| {
            let shape = Shape::new(vec![n]);
            let nan = backend.register(TensorData::F32(vec![f32::NAN; n]), DType::F32);
            let call = KernelCall::Unary(UnaryOp::Neg);
            (nan, backend.run(&call, &[KTensor::new(nan, &shape, DType::F32)]).unwrap())
        })
        .collect();
    for (nan, out) in poison {
        backend.dispose_data(out);
        backend.dispose_data(nan);
    }
    let hits = || detail(&backend.memory(), "recycle_hits");
    let before = hits();
    let got = conv_net_step(&e);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(g == w, "{} on {threads} threads: output {i} differs from fresh buffers'", K::NAME);
    }
    if detail(&backend.memory(), "pooled_bytes") > 0.0 {
        assert!(hits() > before, "{}: the pass took nothing from the free list", K::NAME);
    }
}

thread_local! {
    /// What the next `Gated` kernel on this thread runs before its body.
    static GATE: RefCell<Option<Box<dyn FnOnce()>>> = RefCell::new(None);
}

/// The kernel set `K`, with a one-shot hook before the next kernel a thread
/// runs: a kernel that stops while it holds its operands.
struct Gated<K>(PhantomData<K>);

impl<K: HostKernels> HostKernels for Gated<K> {
    const NAME: &'static str = K::NAME;

    fn default_threads() -> usize {
        K::default_threads()
    }

    fn run(
        call: &KernelCall<'_>,
        operands: &[Operand<'_>],
        out: &Shape,
        host: &Host<'_>,
    ) -> TensorData {
        if let Some(gate) = GATE.with(|g| g.borrow_mut().take()) {
            gate();
        }
        K::run(call, operands, out, host)
    }
}

/// `dispose` of a buffer that a kernel on another thread is reading, or that
/// a read has returned, frees nothing those still see: the kernel's result
/// and the read's value equal the single-thread answer, and the held buffer
/// never reaches the free list.
fn a_buffer_still_held_is_never_recycled<K: HostKernels>(threads: usize) {
    let b = HostBackend::<Gated<K>>::with_threads(K::NAME, threads);
    let shape = Shape::new(vec![64, 64]);
    let values: Vec<f32> = (0..shape.size()).map(|i| (i as f32 * 0.37).sin()).collect();
    let put = |b: &dyn Backend| b.register(TensorData::F32(values.clone()), DType::F32);
    let t = |id| KTensor::new(id, &shape, DType::F32);
    let plain = Epilogue::None;
    let matmul = KernelCall::MatMul { transpose_a: false, transpose_b: false, epilogue: plain };
    let single = host::<K>(1);
    let a = put(&single);
    let want = single.read_sync(single.run(&matmul, &[t(a), t(a)]).unwrap()).unwrap();
    let pooled = |b: &HostBackend<Gated<K>>| detail(&b.memory(), "pooled_bytes");
    // A product whose output stays live: a set that takes has made one
    // buffer of this length and holds none free.
    let first = put(&b);
    let kept = b.run(&matmul, &[t(first), t(first)]).unwrap();

    let x = put(&b);
    let (reading, is_reading) = channel();
    let (disposed, was_disposed) = channel::<()>();
    std::thread::scope(|s| {
        let b = &b;
        let kernel = s.spawn(move || {
            let gate = move || {
                reading.send(()).unwrap();
                was_disposed.recv().unwrap();
            };
            GATE.with(|g| *g.borrow_mut() = Some(Box::new(gate)));
            b.read_sync(b.run(&matmul, &[t(x), t(x)]).unwrap()).unwrap()
        });
        is_reading.recv().unwrap();
        b.dispose_data(x);
        let pooled_while_read = pooled(b);
        disposed.send(()).unwrap();
        assert_eq!(pooled_while_read, 0.0, "{}: pooled a buffer a kernel is reading", K::NAME);
        assert_eq!(kernel.join().unwrap(), want, "{}: the reading kernel's result", K::NAME);
        // The kernel dropped the last reference to `x`: freed, not pooled.
        assert_eq!(pooled(b), 0.0, "{}", K::NAME);
    });
    // A buffer nothing holds is pooled, by a set that takes.
    b.dispose_data(kept);
    let made = detail(&b.memory(), "recycle_misses");
    assert_eq!(pooled(&b) > 0.0, made > 0.0, "{}: {made} buffers made", K::NAME);

    let y = put(&b);
    let read = b.read(y);
    b.dispose_data(y);
    // Whatever takes the disposed buffer now writes over it.
    let z = b.register(TensorData::F32(vec![1.0; shape.size()]), DType::F32);
    b.run(&KernelCall::Unary(UnaryOp::Neg), &[t(z)]).unwrap();
    let read = read.wait().unwrap();
    assert_eq!(read, TensorData::F32(values.clone()), "{}: the read's value", K::NAME);
}

/// The benchmark's training step (conv 8 → conv 16 → dense, Adam, one
/// 32-example batch) on `native`: once the first step has run, a second
/// identical one takes every buffer it asks for from the free list. It asks
/// for 87:
/// * one output for each of the step's 91 kernels but the 11 the reference
///   runs, which take none: two `Gather`s, `Max`, `Equal`, two bool `Cast`s,
///   and five element-wise ops that broadcast a `[32, 1]` operand along its
///   kept axis (80);
/// * an im2col matrix for each forward convolution and each filter gradient
///   (4);
/// * the transposed weight that the `dy · Wᵀ` products of the dense layer
///   and of conv 2's `Conv2DBackpropInput` copy, and that kernel's `dcols`
///   (3).
///
/// The three filter and weight gradients (`colsᵀ · dy`, `xᵀ · dy`) read
/// their transposed left operand where it lies; a copy of it would be a
/// take more each.
/// The benchmark's `train_native` model on `e`, compiled with Adam, and one
/// 32-example batch with the `fit` config that takes it in one step.
fn training_step(e: &Engine) -> (Sequential, Tensor, Tensor, FitConfig) {
    let mut model = Sequential::new(e).with_seed(3);
    model.add(
        Conv2D::new(8, 3)
            .with_strides((2, 2))
            .with_activation(Activation::Relu)
            .with_input_shape([28, 28, 1]),
    );
    model.add(Conv2D::new(16, 3).with_strides((2, 2)).with_activation(Activation::Relu));
    model.add(Flatten::new());
    model.add(Dense::new(10).with_activation(Activation::Softmax));
    model.build([28, 28, 1]).unwrap();
    model.compile(Loss::CategoricalCrossentropy, Box::new(Adam::new(0.001)));
    let (x, y) = synthetic::mnist_like(32, 10, 28, 1).batch(e, 0, 32).unwrap();
    let config = FitConfig { epochs: 1, batch_size: 32, ..FitConfig::default() };
    (model, x, y, config)
}

#[test]
fn a_repeated_native_training_step_is_served_from_the_free_list() {
    for threads in [1, Native::default_threads()] {
        let e = engine::<Native>(threads);
        let (mut model, x, y, config) = training_step(&e);
        let gauges = || {
            let m = e.memory().backend;
            (detail(&m, "recycle_hits"), detail(&m, "recycle_misses"))
        };
        model.fit(&x, &y, config.clone()).unwrap();
        let (hits, misses) = gauges();
        model.fit(&x, &y, config).unwrap();
        let (hits_after, misses_after) = gauges();
        assert_eq!(misses_after, misses, "{threads} threads: step 2 missed");
        let takes = hits_after + misses_after - hits - misses;
        assert_eq!(takes, 87.0, "{threads} threads: step 2's takes");
    }
}

/// The same step holds at most 851 516 bytes above what lay on the engine
/// before it (`train_native`'s `peak_bytes`; 2 084 540 when every fused
/// product was composed from plain calls under the tape and backprop freed
/// nothing before its scope closed). The peak is the engine's, so it does
/// not depend on the thread count.
#[test]
fn a_native_training_step_holds_only_what_backprop_still_reads() {
    for threads in [1, Native::default_threads()] {
        let e = engine::<Native>(threads);
        let (mut model, x, y, config) = training_step(&e);
        model.fit(&x, &y, config.clone()).unwrap();
        let before = e.memory().num_bytes;
        let (step, profile) = e.profile(|| model.fit(&x, &y, config));
        step.unwrap();
        assert_eq!(profile.peak_bytes - before, 851_516, "{threads} threads");
        assert_eq!(e.memory().num_bytes, before, "{threads} threads: the step leaks");
    }
}
