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
//! ([`webml_core::host`]). Cold ops (slicing, padding, gathering) are the
//! set's defaults, the reference implementations: they are memory-bound and
//! not what separates the backends in the paper's evaluation. Fused ops are
//! the reference composition over these five.
//!
//! Correctness is tested against the reference [`webml_core::cpu::CpuBackend`].

#![warn(missing_docs)]

use webml_core::backend::{BinaryOp, MatMulGeom, UnaryOp};
use webml_core::conv_util::Conv2dInfo;
use webml_core::host::{HostBackend, HostKernels};
use webml_core::pool::WorkerPool;
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

    fn unary(op: UnaryOp, x: &[f32], _pool: &WorkerPool) -> Vec<f32> {
        let f: ScalarFn = std::hint::black_box(Box::new(move |v| op.apply(v as f32) as f64));
        let load = loader(x);
        let mut out = Vec::with_capacity(x.len());
        for i in 0..x.len() {
            out.push(f(load(i)) as f32);
        }
        out
    }

    fn binary(
        op: BinaryOp,
        x: &[f32],
        a_shape: &Shape,
        y: &[f32],
        b_shape: &Shape,
        out_shape: &Shape,
        _pool: &WorkerPool,
    ) -> Vec<f32> {
        let f: ScalarFn2 =
            std::hint::black_box(Box::new(move |u, v| op.apply(u as f32, v as f32) as f64));
        let load_a = loader(x);
        let load_b = loader(y);
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

    fn matmul(x: &[f32], y: &[f32], g: &MatMulGeom, _pool: &WorkerPool) -> Vec<f32> {
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

    fn conv2d(xv: &[f32], wv: &[f32], info: &Conv2dInfo, _pool: &WorkerPool) -> Vec<f32> {
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

    fn depthwise_conv2d(xv: &[f32], wv: &[f32], info: &Conv2dInfo, _pool: &WorkerPool) -> Vec<f32> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use webml_core::backend::{Backend, DataId, KTensor};
    use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};
    use webml_core::cpu::CpuBackend;
    use webml_core::dtype::{DType, TensorData};

    fn pair() -> (PlainJsBackend, CpuBackend) {
        (PlainJsBackend::new(), CpuBackend::new())
    }

    fn upload(b: &dyn Backend, vals: &[f32]) -> DataId {
        b.register(TensorData::F32(vals.to_vec()), DType::F32)
    }

    #[test]
    fn unary_matches_reference() {
        let (pj, r) = pair();
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.1).collect();
        let shape = Shape::new(vec![64]);
        for op in [UnaryOp::Exp, UnaryOp::Relu, UnaryOp::Sigmoid, UnaryOp::Abs] {
            let a = upload(&pj, &vals);
            let b = upload(&r, &vals);
            let got = pj
                .read_sync(pj.unary(op, &KTensor::new(a, &shape, DType::F32)).unwrap())
                .unwrap();
            let want = r
                .read_sync(r.unary(op, &KTensor::new(b, &shape, DType::F32)).unwrap())
                .unwrap();
            assert_eq!(got, want, "op {op:?}");
        }
    }

    #[test]
    fn binary_broadcast_matches_reference() {
        let (pj, r) = pair();
        let a_vals: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let b_vals = vec![10.0f32, 20.0, 30.0];
        let sa = Shape::new(vec![2, 3]);
        let sb = Shape::new(vec![3]);
        let out = Shape::new(vec![2, 3]);
        let a1 = upload(&pj, &a_vals);
        let b1 = upload(&pj, &b_vals);
        let a2 = upload(&r, &a_vals);
        let b2 = upload(&r, &b_vals);
        let got = pj
            .read_sync(
                pj.binary(
                    BinaryOp::Mul,
                    &KTensor::new(a1, &sa, DType::F32),
                    &KTensor::new(b1, &sb, DType::F32),
                    &out,
                    DType::F32,
                )
                .unwrap(),
            )
            .unwrap();
        let want = r
            .read_sync(
                r.binary(
                    BinaryOp::Mul,
                    &KTensor::new(a2, &sa, DType::F32),
                    &KTensor::new(b2, &sb, DType::F32),
                    &out,
                    DType::F32,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn matmul_matches_reference() {
        let (pj, r) = pair();
        let a_vals: Vec<f32> = (0..24).map(|i| (i as f32 * 0.3).sin()).collect();
        let b_vals: Vec<f32> = (0..24).map(|i| (i as f32 * 0.7).cos()).collect();
        for (ta, tb, sa2, sb2) in [
            (false, false, Shape::new(vec![1, 4, 6]), Shape::new(vec![1, 6, 4])),
            (true, false, Shape::new(vec![1, 6, 4]), Shape::new(vec![1, 6, 4])),
            (false, true, Shape::new(vec![1, 4, 6]), Shape::new(vec![1, 4, 6])),
        ] {
            let a1 = upload(&pj, &a_vals);
            let b1 = upload(&pj, &b_vals);
            let a2 = upload(&r, &a_vals);
            let b2 = upload(&r, &b_vals);
            let got = pj
                .read_sync(
                    pj.matmul(
                        &KTensor::new(a1, &sa2, DType::F32),
                        &KTensor::new(b1, &sb2, DType::F32),
                        None,
                        None,
                        ta,
                        tb,
                    )
                    .unwrap(),
                )
                .unwrap()
                .to_f32_vec();
            let want = r
                .read_sync(
                    r.matmul(
                        &KTensor::new(a2, &sa2, DType::F32),
                        &KTensor::new(b2, &sb2, DType::F32),
                        None,
                        None,
                        ta,
                        tb,
                    )
                    .unwrap(),
                )
                .unwrap()
                .to_f32_vec();
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-5, "ta={ta} tb={tb}");
            }
        }
    }

    #[test]
    fn conv_and_depthwise_match_reference() {
        let (pj, r) = pair();
        let x_vals: Vec<f32> = (0..150).map(|i| (i as f32 * 0.17).sin()).collect();
        let w_vals: Vec<f32> = (0..54).map(|i| (i as f32 * 0.31).cos()).collect();
        let xs = Shape::new(vec![1, 5, 5, 6]);
        let ws = Shape::new(vec![3, 3, 6, 1]);
        let info = conv2d_info("t", &xs, &ws, (1, 1), Padding::Same, (1, 1)).unwrap();
        let x1 = upload(&pj, &x_vals);
        let w1 = upload(&pj, &w_vals);
        let x2 = upload(&r, &x_vals);
        let w2 = upload(&r, &w_vals);
        let got = pj
            .read_sync(
                pj.conv2d(
                    &KTensor::new(x1, &xs, DType::F32),
                    &KTensor::new(w1, &ws, DType::F32),
                    None,
                    None,
                    &info,
                )
                .unwrap(),
            )
            .unwrap()
            .to_f32_vec();
        let want = r
            .read_sync(
                r.conv2d(
                    &KTensor::new(x2, &xs, DType::F32),
                    &KTensor::new(w2, &ws, DType::F32),
                    None,
                    None,
                    &info,
                )
                .unwrap(),
            )
            .unwrap()
            .to_f32_vec();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-5);
        }

        let dws = Shape::new(vec![3, 3, 6, 2]);
        let dinfo = depthwise_conv2d_info("t", &xs, &dws, (1, 1), Padding::Same, (1, 1)).unwrap();
        let dw_vals: Vec<f32> = (0..108).map(|i| (i as f32 * 0.23).sin()).collect();
        let x1 = upload(&pj, &x_vals);
        let w1 = upload(&pj, &dw_vals);
        let x2 = upload(&r, &x_vals);
        let w2 = upload(&r, &dw_vals);
        let got = pj
            .read_sync(
                pj.depthwise_conv2d(
                    &KTensor::new(x1, &xs, DType::F32),
                    &KTensor::new(w1, &dws, DType::F32),
                    None,
                    None,
                    &dinfo,
                )
                .unwrap(),
            )
            .unwrap()
            .to_f32_vec();
        let want = r
            .read_sync(
                r.depthwise_conv2d(
                    &KTensor::new(x2, &xs, DType::F32),
                    &KTensor::new(w2, &dws, DType::F32),
                    None,
                    None,
                    &dinfo,
                )
                .unwrap(),
            )
            .unwrap()
            .to_f32_vec();
        for (g, w) in got.iter().zip(&want) {
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
