//! The host contract: one body per behaviour, run on every host kernel set
//! — `cpu` (the reference), `plainjs`, and `native` on one thread and on all
//! cores. The three are one `HostBackend` over three `HostKernels` sets, so
//! what the substrate does (the store, dtype handling, the kernel timer,
//! sharing between threads, the validation of a call) holds for each of
//! them or for none. What a set computes is compared elsewhere: plainjs against the
//! reference in `webml-backend-cpu`, native's bit-equality sweeps in
//! `webml-backend-native`, all of them in `tests/cross_backend.rs`.

use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use webml::backend_cpu::PlainJs;
use webml::backend_native::Native;
use std::borrow::Cow;
use webml::core::backend::{
    compose, Backend, BinaryOp, DataId, Epilogue, FusedStep, KTensor, KernelCall, UnaryOp,
};
use webml::core::conv_util::{conv2d_info, Padding};
use webml::core::cpu::Reference;
use webml::core::host::{HostBackend, HostKernels};
use webml::core::quant::QuantParams;
use webml::{ops, DType, Engine, Error, Shape, TensorData};

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

fn dispose_returns_memory_to_baseline<K: HostKernels>(threads: usize) {
    let b = host::<K>(threads);
    let baseline = b.memory();
    assert_eq!((baseline.num_buffers, baseline.num_bytes), (0, 0));
    let shape = Shape::new(vec![100]);
    let x = b.register(TensorData::F32(vec![-1.0; 100]), DType::F32);
    assert_eq!((b.memory().num_buffers, b.memory().num_bytes), (1, 400));
    let unary = |op| b.run(&KernelCall::Unary(op), &[KTensor::new(x, &shape, DType::F32)]);
    let (y, flags) = (unary(UnaryOp::Relu).unwrap(), unary(UnaryOp::IsNan).unwrap());
    // A bool output is a byte an element.
    assert_eq!((b.memory().num_buffers, b.memory().num_bytes), (3, 900));
    for id in [x, y, flags] {
        b.dispose_data(id);
    }
    assert_eq!(b.memory(), baseline);
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
    // plainjs), against the composition that dequantizes first.
    let fast = b.run(&call, &[a, w, bias]).unwrap();
    let slow = compose(&b, &call, &[a, w, bias]).unwrap();
    let fv = b.read_sync(fast).unwrap().to_f32_vec();
    let sv = b.read_sync(slow).unwrap().to_f32_vec();
    assert_eq!(fv.len(), 4);
    for (f, s) in fv.iter().zip(&sv) {
        assert!((f - s).abs() < 1e-4, "{}: factored {f} vs dequantized {s}", K::NAME);
    }
    assert_eq!(b.memory().num_buffers, 5, "the fallback's f32 temporaries are disposed");
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
