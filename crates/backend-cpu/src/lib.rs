//! # webml-backend-cpu
//!
//! The "plain JS" baseline backend of Table 1.
//!
//! TensorFlow.js's plain CPU backend is interpreted JavaScript: every
//! per-element operation pays dynamic dispatch, double-precision number
//! semantics, and bounds-checked property access. The [`PlainJs`] kernel
//! set reproduces those costs deliberately:
//!
//! - per-element math goes through **boxed function pointers** (no
//!   inlining, like a JS interpreter's dispatch),
//! - arithmetic is performed in **f64** (JS numbers) and cast back to f32
//!   on store (TypedArray semantics),
//! - loads go through **bounds-checked index closures**.
//!
//! It is five kernels — `unary`, `binary`, `matmul`, `conv2d`,
//! `depthwise_conv2d` — over the shared host substrate
//! ([`webml_core::host`]); a fused product is one of the three, then the
//! reference epilogue. Every other call — cold ops (slicing, padding,
//! gathering), element-wise chains, quantized weights — runs the reference
//! implementation: they are not what separates the backends in the paper's
//! evaluation.
//!
//! Correctness is tested against the reference [`webml_core::cpu::CpuBackend`].

#![warn(missing_docs)]

use webml_core::backend::{BinaryOp, KernelCall, MatMulGeom, UnaryOp};
use webml_core::conv_util::Conv2dInfo;
use webml_core::dtype::TensorData;
use webml_core::host::{Host, HostBackend, HostKernels};
use webml_core::kernels::{self as reference, Operand};
use webml_core::shape::{broadcast_source_index, Shape};

/// The interpreter-flavored kernel set: the Table 1 "Plain JS" row.
pub struct PlainJs;

/// An interpreter-flavored scalar CPU backend, named `"plainjs"`.
pub type PlainJsBackend = HostBackend<PlainJs>;

/// A boxed scalar function — the interpreter's dispatched "bytecode op".
type ScalarFn = Box<dyn Fn(f64) -> f64>;
/// A boxed binary scalar function.
type ScalarFn2 = Box<dyn Fn(f64, f64) -> f64>;
/// A boxed bounds-checked load.
type LoadFn<'a> = Box<dyn Fn(usize) -> f64 + 'a>;

fn loader(data: &[f32]) -> LoadFn<'_> {
    let len = data.len();
    // black_box keeps the closure opaque so the optimizer cannot
    // devirtualize the interpreter's dispatch into straight-line code.
    std::hint::black_box(Box::new(move |i| {
        // Bounds-checked property access, JS-style (OOB reads would be
        // `undefined`; here they are a hard error, which is stricter).
        assert!(i < len, "index {i} out of bounds for length {len}");
        data[i] as f64
    }))
}

impl HostKernels for PlainJs {
    const NAME: &'static str = "plainjs";

    fn run(call: &KernelCall<'_>, ops: &[Operand<'_>], out: &Shape, _: &Host<'_>) -> TensorData {
        use KernelCall as C;
        TensorData::F32(match call {
            C::Unary(op) => unary(*op, &ops[0].values.f32s()),
            C::Binary(op) => binary(*op, &ops[0], &ops[1], out),
            // A quantized weight, and every call without a kernel here, runs
            // the reference; an f32 product then takes the reference epilogue.
            _ if ops.get(1).is_some_and(|w| w.quant.is_some()) => {
                return reference::run(call, ops, out)
            }
            C::MatMul { transpose_a: ta, transpose_b: tb, .. } => {
                let g = MatMulGeom::of(ops[0].shape, ops[1].shape, *ta, *tb);
                reference::f32_product(call, ops, |x, w| matmul(x, w, &g))
            }
            C::Conv2d { info, .. } => reference::f32_product(call, ops, |x, w| conv2d(x, w, info)),
            C::DepthwiseConv2d { info, .. } => {
                reference::f32_product(call, ops, |x, w| depthwise_conv2d(x, w, info))
            }
            _ => return reference::run(call, ops, out),
        })
    }
}

fn unary(op: UnaryOp, x: &[f32]) -> Vec<f32> {
    let f: ScalarFn = std::hint::black_box(Box::new(move |v| op.apply(v as f32) as f64));
    let load = loader(x);
    let mut out = Vec::with_capacity(x.len());
    for i in 0..x.len() {
        out.push(f(load(i)) as f32);
    }
    out
}

fn binary(op: BinaryOp, a: &Operand<'_>, b: &Operand<'_>, out_shape: &Shape) -> Vec<f32> {
    let f: ScalarFn2 =
        std::hint::black_box(Box::new(move |u, v| op.apply(u as f32, v as f32) as f64));
    let (x, y, a_shape, b_shape) = (a.values.f32s(), b.values.f32s(), a.shape, b.shape);
    let load_a = loader(&x);
    let load_b = loader(&y);
    let size = out_shape.size();
    let mut out = Vec::with_capacity(size);
    if a_shape == b_shape {
        for i in 0..size {
            out.push(f(load_a(i), load_b(i)) as f32);
        }
    } else {
        // Broadcast with per-element coordinate arithmetic, the way an
        // interpreted index computation would run.
        for idx in 0..size {
            let coords = out_shape.coords(idx);
            let ai = broadcast_source_index(&coords, a_shape);
            let bi = broadcast_source_index(&coords, b_shape);
            out.push(f(load_a(ai), load_b(bi)) as f32);
        }
    }
    out
}

fn matmul(x: &[f32], y: &[f32], g: &MatMulGeom) -> Vec<f32> {
    let &MatMulGeom { batch, m, k, n, transpose_a, transpose_b, .. } = g;
    let load_a = loader(x);
    let load_b = loader(y);
    // Every arithmetic step goes through dispatched "bytecode ops".
    let mul: ScalarFn2 = std::hint::black_box(Box::new(|u, v| u * v));
    let add: ScalarFn2 = std::hint::black_box(Box::new(|u, v| u + v));
    let mut out = vec![0.0f32; batch * m * n];
    let mut oi = 0;
    for bi in 0..batch {
        let a_off = bi * m * k;
        let b_off = bi * k * n;
        for i in 0..m {
            for j in 0..n {
                // f64 accumulator: JS number semantics.
                let mut acc = 0.0f64;
                for p in 0..k {
                    let av = if transpose_a {
                        load_a(a_off + p * m + i)
                    } else {
                        load_a(a_off + i * k + p)
                    };
                    let bv = if transpose_b {
                        load_b(b_off + j * k + p)
                    } else {
                        load_b(b_off + p * n + j)
                    };
                    acc = add(acc, mul(av, bv));
                }
                out[oi] = acc as f32;
                oi += 1;
            }
        }
    }
    out
}

fn conv2d(xv: &[f32], wv: &[f32], info: &Conv2dInfo) -> Vec<f32> {
    let c = info;
    let load_x = loader(xv);
    let load_w = loader(wv);
    let mul: ScalarFn2 = std::hint::black_box(Box::new(|u, v| u * v));
    let add: ScalarFn2 = std::hint::black_box(Box::new(|u, v| u + v));
    let mut out = vec![0.0f32; c.batch * c.out_height * c.out_width * c.out_channels];
    let mut oi = 0;
    for b in 0..c.batch {
        for oh in 0..c.out_height {
            for ow in 0..c.out_width {
                for oc in 0..c.out_channels {
                    let mut acc = 0.0f64;
                    for fh in 0..c.filter_height {
                        let ih =
                            (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                        if ih < 0 || ih >= c.in_height as isize {
                            continue;
                        }
                        for fw in 0..c.filter_width {
                            let iw = (ow * c.stride_w + fw * c.dilation_w) as isize
                                - c.pad_left as isize;
                            if iw < 0 || iw >= c.in_width as isize {
                                continue;
                            }
                            for ic in 0..c.in_channels {
                                let x_idx = ((b * c.in_height + ih as usize) * c.in_width
                                    + iw as usize)
                                    * c.in_channels
                                    + ic;
                                let w_idx = ((fh * c.filter_width + fw) * c.in_channels + ic)
                                    * c.out_channels
                                    + oc;
                                acc = add(acc, mul(load_x(x_idx), load_w(w_idx)));
                            }
                        }
                    }
                    out[oi] = acc as f32;
                    oi += 1;
                }
            }
        }
    }
    out
}

fn depthwise_conv2d(xv: &[f32], wv: &[f32], info: &Conv2dInfo) -> Vec<f32> {
    let c = info;
    let mul = c.channel_mul;
    let load_x = loader(xv);
    let load_w = loader(wv);
    let mul_op: ScalarFn2 = std::hint::black_box(Box::new(|u, v| u * v));
    let add_op: ScalarFn2 = std::hint::black_box(Box::new(|u, v| u + v));
    let mut out = vec![0.0f32; c.batch * c.out_height * c.out_width * c.out_channels];
    let mut oi = 0;
    for b in 0..c.batch {
        for oh in 0..c.out_height {
            for ow in 0..c.out_width {
                for ic in 0..c.in_channels {
                    for m in 0..mul {
                        let mut acc = 0.0f64;
                        for fh in 0..c.filter_height {
                            let ih = (oh * c.stride_h + fh * c.dilation_h) as isize
                                - c.pad_top as isize;
                            if ih < 0 || ih >= c.in_height as isize {
                                continue;
                            }
                            for fw in 0..c.filter_width {
                                let iw = (ow * c.stride_w + fw * c.dilation_w) as isize
                                    - c.pad_left as isize;
                                if iw < 0 || iw >= c.in_width as isize {
                                    continue;
                                }
                                let x_idx = ((b * c.in_height + ih as usize) * c.in_width
                                    + iw as usize)
                                    * c.in_channels
                                    + ic;
                                let w_idx =
                                    ((fh * c.filter_width + fw) * c.in_channels + ic) * mul + m;
                                acc = add_op(acc, mul_op(load_x(x_idx), load_w(w_idx)));
                            }
                        }
                        out[oi] = acc as f32;
                        oi += 1;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;
    use webml_core::backend::{Backend, Epilogue, KTensor};
    use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};
    use webml_core::cpu::CpuBackend;
    use webml_core::dtype::{DType, TensorData};

    /// `call` over f32 operands of the given values and shapes, on plainjs
    /// and on the reference.
    fn on_both(call: &KernelCall<'_>, operands: &[(&[f32], &Shape)]) -> (TensorData, TensorData) {
        let run = |b: &dyn Backend| {
            let put = |vals: &[f32]| b.register(TensorData::F32(vals.to_vec()), DType::F32);
            let ids: Vec<KTensor<'_>> = operands
                .iter()
                .map(|&(vals, shape)| KTensor::new(put(vals), shape, DType::F32))
                .collect();
            b.read_sync(b.run(call, &ids).unwrap()).unwrap()
        };
        (run(&PlainJsBackend::new()), run(&CpuBackend::new()))
    }

    #[test]
    fn unary_matches_reference() {
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.1).collect();
        let shape = Shape::new(vec![64]);
        for op in [UnaryOp::Exp, UnaryOp::Relu, UnaryOp::Sigmoid, UnaryOp::Abs] {
            let (got, want) = on_both(&KernelCall::Unary(op), &[(&vals, &shape)]);
            assert_eq!(got, want, "op {op:?}");
        }
    }

    #[test]
    fn binary_broadcast_matches_reference() {
        let a_vals: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let b_vals = vec![10.0f32, 20.0, 30.0];
        let sa = Shape::new(vec![2, 3]);
        let sb = Shape::new(vec![3]);
        let (got, want) =
            on_both(&KernelCall::Binary(BinaryOp::Mul), &[(&a_vals, &sa), (&b_vals, &sb)]);
        assert_eq!(got, want);
    }

    #[test]
    fn matmul_matches_reference() {
        let a_vals: Vec<f32> = (0..24).map(|i| (i as f32 * 0.3).sin()).collect();
        let b_vals: Vec<f32> = (0..24).map(|i| (i as f32 * 0.7).cos()).collect();
        for (ta, tb, sa2, sb2) in [
            (false, false, Shape::new(vec![1, 4, 6]), Shape::new(vec![1, 6, 4])),
            (true, false, Shape::new(vec![1, 6, 4]), Shape::new(vec![1, 6, 4])),
            (false, true, Shape::new(vec![1, 4, 6]), Shape::new(vec![1, 4, 6])),
        ] {
            let epilogue = Epilogue::None;
            let call = KernelCall::MatMul { transpose_a: ta, transpose_b: tb, epilogue };
            let (got, want) = on_both(&call, &[(&a_vals, &sa2), (&b_vals, &sb2)]);
            for (g, w) in got.to_f32_vec().iter().zip(&want.to_f32_vec()) {
                assert!((g - w).abs() < 1e-5, "ta={ta} tb={tb}");
            }
        }
    }

    #[test]
    fn conv_and_depthwise_match_reference() {
        let x_vals: Vec<f32> = (0..150).map(|i| (i as f32 * 0.17).sin()).collect();
        let w_vals: Vec<f32> = (0..54).map(|i| (i as f32 * 0.31).cos()).collect();
        let xs = Shape::new(vec![1, 5, 5, 6]);
        let ws = Shape::new(vec![3, 3, 6, 1]);
        let info = conv2d_info("t", &xs, &ws, (1, 1), Padding::Same, (1, 1)).unwrap();
        let call = KernelCall::Conv2d { info: Cow::Borrowed(&info), epilogue: Epilogue::None };
        let (got, want) = on_both(&call, &[(&x_vals, &xs), (&w_vals, &ws)]);
        for (g, w) in got.to_f32_vec().iter().zip(&want.to_f32_vec()) {
            assert!((g - w).abs() < 1e-5);
        }

        let dws = Shape::new(vec![3, 3, 6, 2]);
        let dinfo = depthwise_conv2d_info("t", &xs, &dws, (1, 1), Padding::Same, (1, 1)).unwrap();
        let dw_vals: Vec<f32> = (0..108).map(|i| (i as f32 * 0.23).sin()).collect();
        let epilogue = Epilogue::None;
        let call = KernelCall::DepthwiseConv2d { info: Cow::Borrowed(&dinfo), epilogue };
        let (got, want) = on_both(&call, &[(&x_vals, &xs), (&dw_vals, &dws)]);
        for (g, w) in got.to_f32_vec().iter().zip(&want.to_f32_vec()) {
            assert!((g - w).abs() < 1e-5);
        }
    }

    #[test]
    fn registers_as_engine_backend() {
        use std::sync::Arc;
        let e = webml_core::Engine::new();
        e.register_backend("plainjs", Arc::new(PlainJsBackend::new()), 0);
        let t = e.tensor_1d(&[1.0, -2.0]).unwrap();
        let y = webml_core::ops::relu(&t).unwrap();
        assert_eq!(y.to_f32_vec().unwrap(), vec![1.0, 0.0]);
    }
}
