//! # webml-backend-cpu
//!
//! The "plain JS" baseline backend of Table 1.
//!
//! TensorFlow.js's plain CPU backend is interpreted JavaScript: every
//! per-element operation pays dynamic dispatch, double-precision number
//! semantics, and bounds-checked property access. [`PlainJsBackend`]
//! reproduces those costs deliberately:
//!
//! - per-element math goes through **boxed function pointers** (no
//!   inlining, like a JS interpreter's dispatch),
//! - arithmetic is performed in **f64** (JS numbers) and cast back to f32
//!   on store (TypedArray semantics),
//! - loads go through **bounds-checked index closures**.
//!
//! Cold ops (slicing, padding, gathering) delegate to the reference
//! implementations — they are memory-bound and not what separates the
//! backends in the paper's evaluation.
//!
//! Correctness is tested against the reference [`webml_core::cpu::CpuBackend`].

#![warn(missing_docs)]

use webml_core::backend::{
    ArgReduceOp, Backend, BackendMemory, BinaryOp, DataFuture, DataId, KTensor, KernelTiming,
    PoolOp, ReduceOp, UnaryOp,
};
use webml_core::conv_util::Conv2dInfo;
use webml_core::cpu::CpuBackend;
use webml_core::dtype::{DType, TensorData};
use webml_core::error::Result;
use webml_core::shape::Shape;

/// An interpreter-flavored scalar CPU backend: the Table 1 "Plain JS" row.
pub struct PlainJsBackend {
    inner: CpuBackend,
}

impl Default for PlainJsBackend {
    fn default() -> Self {
        PlainJsBackend::new()
    }
}

/// A boxed scalar function — the interpreter's dispatched "bytecode op".
type ScalarFn = Box<dyn Fn(f64) -> f64>;
/// A boxed binary scalar function.
type ScalarFn2 = Box<dyn Fn(f64, f64) -> f64>;
/// A boxed bounds-checked load.
type LoadFn<'a> = Box<dyn Fn(usize) -> f64 + 'a>;

impl PlainJsBackend {
    /// Create a backend named `"plainjs"`.
    pub fn new() -> PlainJsBackend {
        PlainJsBackend { inner: CpuBackend::with_name("plainjs") }
    }

    fn fetch(&self, id: DataId) -> Result<Vec<f32>> {
        Ok(self.inner.read_sync(id)?.to_f32_vec())
    }

    fn put(&self, vals: Vec<f32>, dtype: DType) -> DataId {
        self.inner.register(TensorData::F32(vals), dtype)
    }

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
}

impl Backend for PlainJsBackend {
    fn name(&self) -> &str {
        "plainjs"
    }

    fn register(&self, data: TensorData, dtype: DType) -> DataId {
        self.inner.register(data, dtype)
    }

    fn read_sync(&self, id: DataId) -> Result<TensorData> {
        self.inner.read_sync(id)
    }

    fn read(&self, id: DataId) -> DataFuture {
        self.inner.read(id)
    }

    fn dispose_data(&self, id: DataId) {
        self.inner.dispose_data(id)
    }

    fn memory(&self) -> BackendMemory {
        self.inner.memory()
    }

    fn begin_timing(&self) {
        self.inner.begin_timing()
    }

    fn end_timing(&self) -> KernelTiming {
        self.inner.end_timing()
    }

    fn device_timer_ns(&self) -> Option<u64> {
        self.inner.device_timer_ns()
    }

    fn unary(&self, op: UnaryOp, a: &KTensor<'_>) -> Result<DataId> {
        let x = self.fetch(a.data)?;
        let f: ScalarFn = std::hint::black_box(Box::new(move |v| op.apply(v as f32) as f64));
        let load = Self::loader(&x);
        let mut out = Vec::with_capacity(x.len());
        for i in 0..x.len() {
            out.push(f(load(i)) as f32);
        }
        Ok(self.put(out, op.out_dtype(a.dtype)))
    }

    fn binary(
        &self,
        op: BinaryOp,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
        out_dtype: DType,
    ) -> Result<DataId> {
        let x = self.fetch(a.data)?;
        let y = self.fetch(b.data)?;
        let f: ScalarFn2 = std::hint::black_box(Box::new(move |u, v| op.apply(u as f32, v as f32) as f64));
        let load_a = Self::loader(&x);
        let load_b = Self::loader(&y);
        let size = out_shape.size();
        let mut out = Vec::with_capacity(size);
        if a.shape == b.shape {
            for i in 0..size {
                out.push(f(load_a(i), load_b(i)) as f32);
            }
        } else {
            // Broadcast with per-element coordinate arithmetic, the way an
            // interpreted index computation would run.
            for idx in 0..size {
                let coords = out_shape.coords(idx);
                let ai = webml_core::shape::broadcast_source_index(&coords, a.shape);
                let bi = webml_core::shape::broadcast_source_index(&coords, b.shape);
                out.push(f(load_a(ai), load_b(bi)) as f32);
            }
        }
        Ok(self.put(out, out_dtype))
    }

    fn cast(&self, a: &KTensor<'_>, dtype: DType) -> Result<DataId> {
        self.inner.cast(a, dtype)
    }

    fn reduce(&self, op: ReduceOp, a: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        self.inner.reduce(op, a, axes)
    }

    fn arg_reduce(&self, op: ArgReduceOp, a: &KTensor<'_>, axis: usize) -> Result<DataId> {
        self.inner.arg_reduce(op, a, axis)
    }

    fn matmul(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        transpose_a: bool,
        transpose_b: bool,
    ) -> Result<DataId> {
        let x = self.fetch(a.data)?;
        let y = self.fetch(b.data)?;
        let batch = a.shape.dim(0);
        let (m, k) = if transpose_a {
            (a.shape.dim(2), a.shape.dim(1))
        } else {
            (a.shape.dim(1), a.shape.dim(2))
        };
        let n = if transpose_b { b.shape.dim(1) } else { b.shape.dim(2) };
        let load_a = Self::loader(&x);
        let load_b = Self::loader(&y);
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
        Ok(self.put(out, DType::F32))
    }

    fn conv2d(&self, x: &KTensor<'_>, filter: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        let xv = self.fetch(x.data)?;
        let wv = self.fetch(filter.data)?;
        let c = info;
        let load_x = Self::loader(&xv);
        let load_w = Self::loader(&wv);
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
        Ok(self.put(out, DType::F32))
    }

    fn conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        self.inner.conv2d_backprop_input(dy, filter, info)
    }

    fn conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        self.inner.conv2d_backprop_filter(x, dy, info)
    }

    fn depthwise_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let xv = self.fetch(x.data)?;
        let wv = self.fetch(filter.data)?;
        let c = info;
        let mul = c.channel_mul;
        let load_x = Self::loader(&xv);
        let load_w = Self::loader(&wv);
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
        Ok(self.put(out, DType::F32))
    }

    fn depthwise_conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        self.inner.depthwise_conv2d_backprop_input(dy, filter, info)
    }

    fn depthwise_conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        self.inner.depthwise_conv2d_backprop_filter(x, dy, info)
    }

    fn pool2d(&self, op: PoolOp, x: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        self.inner.pool2d(op, x, info)
    }

    fn pool2d_backprop(
        &self,
        op: PoolOp,
        dy: &KTensor<'_>,
        x: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        self.inner.pool2d_backprop(op, dy, x, info)
    }

    fn slice(&self, x: &KTensor<'_>, begin: &[usize], size: &[usize]) -> Result<DataId> {
        self.inner.slice(x, begin, size)
    }

    fn concat(&self, xs: &[KTensor<'_>], axis: usize) -> Result<DataId> {
        self.inner.concat(xs, axis)
    }

    fn transpose(&self, x: &KTensor<'_>, perm: &[usize]) -> Result<DataId> {
        self.inner.transpose(x, perm)
    }

    fn pad(&self, x: &KTensor<'_>, paddings: &[(usize, usize)], value: f32) -> Result<DataId> {
        self.inner.pad(x, paddings, value)
    }

    fn gather(&self, x: &KTensor<'_>, indices: &KTensor<'_>, axis: usize) -> Result<DataId> {
        self.inner.gather(x, indices, axis)
    }

    fn tile(&self, x: &KTensor<'_>, reps: &[usize]) -> Result<DataId> {
        self.inner.tile(x, reps)
    }

    fn reverse(&self, x: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        self.inner.reverse(x, axes)
    }

    fn select(
        &self,
        cond: &KTensor<'_>,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
    ) -> Result<DataId> {
        self.inner.select(cond, a, b, out_shape)
    }

    fn one_hot(&self, indices: &KTensor<'_>, depth: usize, on: f32, off: f32) -> Result<DataId> {
        self.inner.one_hot(indices, depth, on, off)
    }

    fn resize_bilinear(
        &self,
        x: &KTensor<'_>,
        new_h: usize,
        new_w: usize,
        align_corners: bool,
    ) -> Result<DataId> {
        self.inner.resize_bilinear(x, new_h, new_w, align_corners)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};

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
