//! # webml-backend-native
//!
//! The optimized native backend — the analogue of TensorFlow.js's Node.js
//! backend, which binds to the TensorFlow C library and gets AVX-class CPU
//! performance plus automatic memory finalization (paper Sec 4.2).
//!
//! It is the [`Native`] kernel set over the shared host substrate
//! ([`webml_core::host`]): one match that sends the hot kernels (matmul,
//! conv2d, depthwise conv, element-wise maps) to `compute`, multi-threaded,
//! cache-blocked and written for autovectorization, and hands every other
//! call to the shared reference implementations. The kernels' hot loops are
//! compiled twice, for the target's baseline and for AVX2, and each call
//! runs the build the CPU has (`codegen`): a binary built for any x86-64
//! runs 8-wide on a CPU with AVX2 (the paper's "Node.js CPU w/ AVX2" row),
//! with the same bits as the baseline build. Register it together with
//! [`MemoryPolicy::Finalized`](webml_core::MemoryPolicy) to reproduce the
//! Node.js property that dropping the last handle frees the tensor (no
//! manual `dispose`/`tidy` needed).

#![warn(missing_docs)]

mod codegen;
mod compute;
pub mod parallel;

use codegen::Codegen;
use std::borrow::Cow;
use webml_core::backend::{Epilogue, KernelCall, MatMulGeom, ReduceOp};
use webml_core::dtype::TensorData;
use webml_core::host::{Host, HostBackend, HostKernels};
use webml_core::kernels::{self as reference, Operand};
use webml_core::shape::Shape;

/// The optimized kernel set: `compute`'s threaded kernels where it has
/// one, the reference elsewhere.
pub struct Native;

/// Multi-threaded optimized CPU backend (the "Node.js" rows of Table 1).
/// [`new`](HostBackend::new) names it `"native"` and uses all available
/// cores — the "Node.js CUDA-class" configuration;
/// [`with_threads(name, 1)`](HostBackend::with_threads) models the
/// single-core "Node.js CPU w/ AVX2" row.
pub type NativeBackend = HostBackend<Native>;

/// Whether `b_dims` is a suffix of `a_dims` (the bias-add broadcast).
fn is_suffix(a: &Shape, b: &Shape) -> bool {
    let (ad, bd) = (a.dims(), b.dims());
    bd.len() <= ad.len() && ad[ad.len() - bd.len()..] == *bd
}

impl HostKernels for Native {
    const NAME: &'static str = "native";

    fn default_threads() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    }

    fn run(
        call: &KernelCall<'_>,
        operands: &[Operand<'_>],
        out: &Shape,
        host: &Host<'_>,
    ) -> TensorData {
        use KernelCall as C;
        let f = |i: usize| operands[i].values.f32s();
        let s = |i: usize| operands[i].shape;
        // Product kernels: a quantized weight operand selects the
        // dequant-free kernel (codes read in place), a plain call the plain
        // kernel, any other the fused one.
        let epilogue = call.epilogue().unwrap_or(Epilogue::None);
        let bias = epilogue.bias().then(|| operands[2].values.f32s());
        let (bias, act, plain) = (bias.as_deref(), epilogue.activation(), epilogue.is_plain());
        let codes = || operands[1].values.codes();
        let cg = Codegen::detect();
        TensorData::F32(match call {
            C::Unary(op) => compute::unary(cg, *op, &f(0), host),
            C::Binary(op) => {
                let (x, y) = (f(0), f(1));
                if s(0) == s(1) {
                    compute::binary(cg, *op, &x, &y, host)
                } else if is_suffix(s(0), s(1)) {
                    compute::binary_suffix(cg, *op, &x, &y, false, host)
                } else if is_suffix(s(1), s(0)) {
                    compute::binary_suffix(cg, *op, &y, &x, true, host)
                } else {
                    reference::binary(*op, &x, s(0), &y, s(1), out)
                }
            }
            C::Reduce { op, axes } => reduce(*op, &f(0), s(0), axes, host),
            C::MatMul { transpose_a: ta, transpose_b: tb, .. } => {
                let MatMulGeom { batch, m, k, n, .. } = MatMulGeom::of(s(0), s(1), *ta, *tb);
                let a = f(0);
                match operands[1].quant {
                    Some(p) => compute::fused_matmul_quant(
                        cg, &a, &codes(), p, batch, m, k, n, *ta, *tb, bias, act, host,
                    ),
                    None if plain => {
                        compute::matmul(cg, &a, &f(1), batch, m, k, n, *ta, *tb, host)
                    }
                    None => compute::fused_matmul(
                        cg, &a, &f(1), batch, m, k, n, *ta, *tb, bias, act, host,
                    ),
                }
            }
            C::Conv2d { info, .. } => match operands[1].quant {
                Some(p) => {
                    compute::fused_conv2d_quant(cg, &f(0), &codes(), p, info, bias, act, host)
                }
                None if plain => compute::conv2d(cg, &f(0), &f(1), info, host),
                None => compute::fused_conv2d(cg, &f(0), &f(1), info, bias, act, host),
            },
            C::DepthwiseConv2d { info, .. } => match operands[1].quant {
                Some(p) => compute::fused_depthwise_conv2d_quant(
                    cg, &f(0), &codes(), p, info, bias, act, host,
                ),
                None if plain => compute::depthwise_conv2d(cg, &f(0), &f(1), info, host),
                None => compute::fused_depthwise_conv2d(cg, &f(0), &f(1), info, bias, act, host),
            },
            C::Conv2dBackpropInput(info) => {
                compute::conv2d_backprop_input(cg, &f(0), &f(1), info, host)
            }
            C::Conv2dBackpropFilter(info) => {
                compute::conv2d_backprop_filter(cg, &f(0), &f(1), info, host)
            }
            C::Slice { begin, size } => compute::slice(&f(0), s(0), begin, size, host),
            C::FusedElementwise(steps) => {
                let extras: Vec<Cow<'_, [f32]>> = (1..operands.len()).map(f).collect();
                let extras: Vec<(&[f32], &[usize])> = extras
                    .iter()
                    .zip(&operands[1..])
                    .map(|(v, o)| (&**v, o.shape.dims()))
                    .collect();
                compute::fused_elementwise(cg, &f(0), s(0).dims(), &extras, steps, out.dims(), host)
            }
            _ => return reference::run(call, operands, out),
        })
    }
}

/// Sum and mean over a contiguous tail of axes (row sums) or a contiguous
/// leading run of them (column sums) have fast paths, when there is
/// something to add up: an empty sum is the reference's to define.
fn reduce(op: ReduceOp, x: &[f32], shape: &Shape, axes: &[usize], host: &Host<'_>) -> Vec<f32> {
    let rank = shape.rank();
    let size = shape.size();
    let reduced: usize = axes.iter().map(|&i| shape.dim(i)).product();
    let sums = (op == ReduceOp::Sum || op == ReduceOp::Mean) && rank > 0;
    let mean = op == ReduceOp::Mean;
    if sums && reduced > 0 && axes.iter().copied().eq(rank - axes.len()..rank) {
        compute::reduce_last(x, size / reduced, reduced, host, mean)
    } else if sums && size > 0 && axes.iter().copied().eq(0..axes.len()) {
        compute::reduce_leading(x, reduced, size / reduced, host, mean)
    } else {
        reference::reduce(op, x, shape, axes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use webml_core::backend::{Backend, BinaryOp, KTensor};
    use webml_core::dtype::{DType, TensorData};
    use webml_core::ops;
    use webml_core::{Engine, MemoryPolicy};

    fn engine() -> Engine {
        let e = Engine::new();
        e.register_backend("native", StdArc::new(NativeBackend::new()), 3);
        e
    }

    #[test]
    fn end_to_end_matmul() {
        let e = engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let b = e.tensor_2d(&[5.0, 6.0, 7.0, 8.0], 2, 2).unwrap();
        let c = ops::matmul(&a, &b, false, false).unwrap();
        assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn quantized_fused_matmul_end_to_end() {
        // Identity-ish quantization (scale 1, min 0): codes are the weights.
        let e = engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let w = e
            .quantized_tensor(vec![5, 6, 7, 8], vec![2, 2], webml_core::QuantParams::per_tensor(1.0, 0.0))
            .unwrap();
        let c = ops::fused_matmul(&a, &w, None, None, false, false).unwrap();
        assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
        // The unfused op reaches the same dequant-free kernel.
        let (c, profile) = e.profile(|| ops::matmul(&a, &w, false, false).unwrap());
        assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
        assert_eq!(profile.kernels[0].name, "FusedMatMulQuant");
    }

    #[test]
    fn bias_add_suffix_fast_path() {
        let e = engine();
        let x = e.tensor_4d(&[0.0; 2 * 2 * 2 * 3], 2, 2, 2, 3).unwrap();
        let bias = e.tensor_1d(&[1.0, 2.0, 3.0]).unwrap();
        let y = ops::add(&x, &bias).unwrap().to_f32_vec().unwrap();
        assert_eq!(&y[..6], &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    /// Work, in the pool's units, that a pool of three or more threads splits
    /// three ways, its worker awake or not.
    const SPLIT_WORK: usize = 3 * webml_core::pool::COLD_GRAIN;

    #[test]
    fn reduce_fast_paths_equal_the_reference_exactly() {
        let b = NativeBackend::with_threads("t", 3);
        let shape = Shape::new(vec![64, 48, 64]);
        const { assert!(64 * 48 * 64 >= SPLIT_WORK) };
        let x: Vec<f32> = (0..shape.size()).map(|i| (i as f32 * 0.37).sin()).collect();
        let id = b.register(TensorData::F32(x.clone()), DType::F32);
        let t = KTensor::new(id, &shape, DType::F32);
        // Tail run (row sums), leading run (column sums), and a middle axis
        // that neither fast path takes.
        for axes in [&[1, 2][..], &[2], &[0, 1], &[0], &[1], &[0, 1, 2]] {
            for op in [ReduceOp::Sum, ReduceOp::Mean] {
                let call = KernelCall::Reduce { op, axes: axes.into() };
                let got = b.read_sync(b.run(&call, &[t]).unwrap()).unwrap().to_f32_vec();
                let want = reference::reduce(op, &x, &shape, axes);
                assert!(
                    got.iter().map(|v| v.to_bits()).eq(want.iter().map(|v| v.to_bits())),
                    "{op:?} over {axes:?}"
                );
            }
        }
    }

    /// conv2d (its im2col and its product), matmul and an elementwise add,
    /// each large enough to be split three ways; `salt` makes every caller's
    /// operands its own.
    fn mixed_kernels(backend: &NativeBackend, salt: usize) -> Vec<Vec<f32>> {
        use crate::compute::TILED_MACS_PER_VISIT;
        use webml_core::conv_util::{conv2d_info, Padding};
        let x_shape = Shape::new(vec![4, 48, 48, 4]);
        let w_shape = Shape::new(vec![3, 3, 4, 8]);
        let a_shape = Shape::new(vec![1, 160, 96]);
        let b_shape = Shape::new(vec![1, 96, 70]);
        let v_shape = Shape::new(vec![SPLIT_WORK]);
        const { assert!(4 * 48 * 48 * 36 >= SPLIT_WORK) };
        const { assert!(4 * 48 * 48 * 36 * 8 / TILED_MACS_PER_VISIT >= SPLIT_WORK) };
        const { assert!(160 * 96 * 70 / TILED_MACS_PER_VISIT >= SPLIT_WORK) };
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
        outs.iter().map(|&id| backend.read_sync(id).unwrap().to_f32_vec()).collect()
    }

    /// Every activation an epilogue can carry: the fused matmul, conv2d and
    /// depthwise conv2d, with the bias and without, equal the unfused native
    /// composition — the plain kernel, a bias `Add`, the activation's
    /// `Unary` — on bits (a NaN may differ from another in its payload).
    #[test]
    fn every_fused_activation_equals_the_unfused_composition_on_bits() {
        use webml_core::backend::UnaryOp::{self, *};
        use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};
        fn wave<'s>(backend: &NativeBackend, shape: &'s Shape, step: f32) -> KTensor<'s> {
            let vals = (0..shape.size()).map(|i| 3.0 * (i as f32 * step).sin()).collect();
            KTensor::new(backend.register(TensorData::F32(vals), DType::F32), shape, DType::F32)
        }
        let backend = NativeBackend::with_threads("t", 2);
        let run = |call: &KernelCall<'_>, args: &[KTensor<'_>]| backend.run(call, args).unwrap();
        let read = |id| backend.read_sync(id).unwrap().to_f32_vec();
        let x_shape = Shape::new(vec![4, 9, 9, 3]);
        let (w_shape, dw_shape) = (Shape::new(vec![3, 3, 3, 8]), Shape::new(vec![3, 3, 3, 2]));
        let conv = conv2d_info("t", &x_shape, &w_shape, (2, 2), Padding::Same, (1, 1)).unwrap();
        let depthwise =
            depthwise_conv2d_info("t", &x_shape, &dw_shape, (1, 1), Padding::Same, (1, 1)).unwrap();
        let (a_shape, b_shape) = (Shape::new(vec![1, 37, 29]), Shape::new(vec![1, 29, 21]));
        let none = Epilogue::None;
        let x = wave(&backend, &x_shape, 0.17);
        let products = [
            (
                KernelCall::MatMul { transpose_a: false, transpose_b: false, epilogue: none },
                wave(&backend, &a_shape, 0.13),
                wave(&backend, &b_shape, 0.29),
                21,
            ),
            (
                KernelCall::Conv2d { info: Cow::Borrowed(&conv), epilogue: none },
                x,
                wave(&backend, &w_shape, 0.37),
                8,
            ),
            (
                KernelCall::DepthwiseConv2d { info: Cow::Borrowed(&depthwise), epilogue: none },
                x,
                wave(&backend, &dw_shape, 0.41),
                6,
            ),
        ];
        let activations: [UnaryOp; 36] = [
            Neg, Abs, Exp, Expm1, Log, Log1p, Sqrt, Rsqrt, Square, Relu, Relu6, Sigmoid, Tanh, Elu,
            Selu, Softplus, Sin, Cos, Tan, Asin, Acos, Atan, Floor, Ceil, Round, Sign, Reciprocal,
            LogicalNot, IsNan, IsInf, IsFinite, LeakyRelu(0.2), ClipByValue(-1.0, 2.0), Step(0.0),
            Step(-0.5), Erf,
        ];
        for (plain, x, w, channels) in &products {
            let bias_shape = Shape::new(vec![*channels]);
            let bias = wave(&backend, &bias_shape, 0.7);
            let (out_shape, _) = plain.output(&[*x, *w]).unwrap();
            let f32_of = |id| KTensor::new(id, &out_shape, DType::F32);
            let product = f32_of(run(plain, &[*x, *w]));
            let biased = f32_of(run(&KernelCall::Binary(BinaryOp::Add), &[product, bias]));
            for activation in activations {
                for with_bias in [false, true] {
                    let epilogue = Epilogue::Fused { bias: with_bias, activation: Some(activation) };
                    let fused = plain.with_epilogue(epilogue);
                    let (got, input) = if with_bias {
                        (run(&fused, &[*x, *w, bias]), biased)
                    } else {
                        (run(&fused, &[*x, *w]), product)
                    };
                    let want = read(run(&KernelCall::Unary(activation), &[input]));
                    let got = read(got);
                    let case = format!("{} {activation:?} bias {with_bias}", fused.name());
                    assert_eq!(got.len(), want.len(), "{case}");
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        let same = g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan();
                        assert!(same, "{case} at {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn threads_sharing_a_backend_get_the_single_thread_answer() {
        let shared = StdArc::new(NativeBackend::with_threads("shared", 3));
        let start = StdArc::new(std::sync::Barrier::new(8));
        let callers: Vec<_> = (0..8)
            .map(|salt| {
                let (shared, start) = (shared.clone(), start.clone());
                std::thread::spawn(move || {
                    let want = mixed_kernels(&NativeBackend::with_threads("one", 1), salt);
                    start.wait();
                    for _ in 0..5 {
                        assert_eq!(mixed_kernels(&shared, salt), want, "caller {salt}");
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller finished");
        }
    }

    #[test]
    fn finalized_policy_frees_on_drop() {
        let e = engine();
        e.set_memory_policy(MemoryPolicy::Finalized);
        {
            let t = e.tensor_1d(&[1.0, 2.0, 3.0]).unwrap();
            let _y = ops::relu(&t).unwrap();
        }
        // Handles dropped: garbage collected at next engine touch.
        assert_eq!(e.num_tensors(), 0);
        assert_eq!(e.memory().backend.num_buffers, 0);
    }

    #[test]
    fn a_gradient_asked_for_alone_equals_the_joint_one_on_bits() {
        use webml_core::conv_util::Padding;
        let e = engine();
        let wave = |dims: &[usize], step: f32| {
            let vals: Vec<f32> = (0..dims.iter().product()).map(|i| (i as f32 * step).sin()).collect();
            e.tensor(vals, dims.to_vec()).unwrap()
        };
        let x = wave(&[4, 12, 12, 3], 0.17);
        let w = wave(&[3, 3, 3, 8], 0.37);
        let bias = wave(&[8], 0.7);
        let dense = wave(&[6 * 6 * 8, 5], 0.23);
        let loss = || {
            let y = ops::conv2d(&x, &w, (2, 2), Padding::Same, (1, 1))?;
            let y = ops::relu(&ops::add(&y, &bias)?)?;
            let logits = ops::matmul(&ops::reshape(&y, [4, 6 * 6 * 8])?, &dense, false, false)?;
            ops::sum(&ops::square(&logits)?, None, false)
        };
        let bits = |t: &webml_core::Tensor| -> Vec<u32> {
            t.to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect()
        };
        let all = [&x, &w, &bias, &dense];
        let joint = e.grads(&all, loss).unwrap();
        for (i, t) in all.into_iter().enumerate() {
            let (alone, profile) = e.profile(|| e.grad(t, loss).unwrap());
            assert_eq!(bits(&alone), bits(&joint[i]), "input {i}");
            // Only `x` itself needs the gradient w.r.t. the conv's input.
            let dx = profile.kernels.iter().filter(|k| k.name == "Conv2DBackpropInput").count();
            assert_eq!(dx, usize::from(i == 0), "input {i}");
        }
    }

    #[test]
    fn training_a_small_network_converges() {
        // Linear regression with gradient descent on the native backend.
        let e = engine();
        let xs = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 4, 1).unwrap();
        let ys = e.tensor_2d(&[3.0, 5.0, 7.0, 9.0], 4, 1).unwrap();
        let mut w = e.tensor_2d(&[0.0], 1, 1).unwrap();
        let mut b = e.scalar(0.0).unwrap();
        for _ in 0..200 {
            let (_, grads) = e
                .value_and_grads(&[&w, &b], || {
                    let pred = ops::add(&ops::matmul(&xs, &w, false, false)?, &b)?;
                    let err = ops::sub(&pred, &ys)?;
                    ops::mean(&ops::mul(&err, &err)?, None, false)
                })
                .unwrap();
            let lr = e.scalar(0.05).unwrap();
            let w_new = ops::sub(&w, &ops::mul(&grads[0], &lr).unwrap()).unwrap();
            let b_new = ops::sub(&b, &ops::mul(&grads[1], &lr).unwrap()).unwrap();
            w.dispose();
            b.dispose();
            for g in grads {
                g.dispose();
            }
            w = w_new;
            b = b_new;
        }
        // y = 2x + 1.
        assert!((w.to_f32_vec().unwrap()[0] - 2.0).abs() < 0.05);
        assert!((b.to_scalar().unwrap() - 1.0).abs() < 0.15);
    }
}
