//! # webml-backend-native
//!
//! The optimized native backend — the analogue of TensorFlow.js's Node.js
//! backend, which binds to the TensorFlow C library and gets AVX-class CPU
//! performance plus automatic memory finalization (paper Sec 4.2).
//!
//! Hot kernels (matmul, conv2d, depthwise conv, element-wise maps) are
//! multi-threaded, cache-blocked and written for autovectorization in
//! [`compute`]; geometry-heavy cold ops reuse the shared reference
//! implementations. Register it together with
//! [`MemoryPolicy::Finalized`](webml_core::MemoryPolicy) to reproduce the
//! Node.js property that dropping the last handle frees the tensor (no
//! manual `dispose`/`tidy` needed).

#![warn(missing_docs)]

pub mod compute;
pub mod parallel;

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use webml_core::backend::{
    ArgReduceOp, Backend, BackendMemory, BinaryOp, DataFuture, DataId, FusedStep, KTensor,
    KernelTiming, PoolOp, ReduceOp, UnaryOp,
};
use webml_core::conv_util::Conv2dInfo;
use webml_core::dtype::{DType, TensorData};
use webml_core::error::{Error, Result};
use webml_core::kernels as reference;
use webml_core::pool::WorkerPool;
use webml_core::shape::Shape;

struct Entry {
    data: Arc<TensorData>,
    dtype: DType,
}

/// Multi-threaded optimized CPU backend (the "Node.js" rows of Table 1).
pub struct NativeBackend {
    name: String,
    /// The kernels' threads, this backend's own: engines do not queue behind
    /// each other's kernels, and a one-thread backend has no workers at all.
    pool: WorkerPool,
    store: Mutex<HashMap<DataId, Entry>>,
    next_id: AtomicU64,
    kernel_nanos: AtomicU64,
    timing_mark: AtomicU64,
}

impl Default for NativeBackend {
    fn default() -> Self {
        NativeBackend::new()
    }
}

impl NativeBackend {
    /// Create a backend named `"native"` using all available cores — the
    /// "Node.js CUDA-class" configuration.
    pub fn new() -> NativeBackend {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        NativeBackend::with_threads("native", threads)
    }

    /// Create a backend whose kernels run on a pool of `threads` threads,
    /// the calling one included, spawned here and kept until the backend is
    /// dropped. `1` spawns nothing and models the single-core "Node.js CPU
    /// w/ AVX2" row of Table 1.
    pub fn with_threads(name: impl Into<String>, threads: usize) -> NativeBackend {
        NativeBackend {
            name: name.into(),
            pool: WorkerPool::new(threads),
            store: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            kernel_nanos: AtomicU64::new(0),
            timing_mark: AtomicU64::new(0),
        }
    }

    /// Threads a kernel can run on, the calling one included.
    pub fn threads(&self) -> usize {
        self.pool.size()
    }

    fn fetch(&self, id: DataId) -> Result<Arc<TensorData>> {
        self.store
            .lock()
            .get(&id)
            .map(|e| e.data.clone())
            .ok_or_else(|| Error::backend(&self.name, format!("unknown data id {id:?}")))
    }

    fn fetch_f32(&self, id: DataId) -> Result<FloatView> {
        let data = self.fetch(id)?;
        Ok(FloatView::new(data))
    }

    fn fetch_u8(&self, id: DataId) -> Result<Vec<u8>> {
        Ok(self.fetch(id)?.to_u8_codes())
    }

    fn put(&self, data: TensorData, dtype: DType) -> DataId {
        let id = DataId(self.next_id.fetch_add(1, Ordering::Relaxed));
        // A buffer already stored the way `dtype` is stored (every kernel
        // output) moves in; `Bool` still goes through the cast, which
        // normalises non-zero bytes to 1.
        let data = match (&data, dtype) {
            (TensorData::F32(_), DType::F32 | DType::F16)
            | (TensorData::I32(_), DType::I32)
            | (TensorData::U8(_), DType::U8) => data,
            _ => data.cast(dtype),
        };
        self.store.lock().insert(id, Entry { data: Arc::new(data), dtype });
        id
    }

    fn put_f32(&self, vals: Vec<f32>, dtype: DType) -> DataId {
        self.put(TensorData::F32(vals), dtype)
    }

    fn timer(&self) -> Timer<'_> {
        Timer { backend: self, start: Instant::now() }
    }
}

/// A zero-copy f32 view when possible, converting otherwise.
struct FloatView {
    data: Arc<TensorData>,
    converted: Option<Vec<f32>>,
}

impl FloatView {
    fn new(data: Arc<TensorData>) -> FloatView {
        let converted = match &*data {
            TensorData::F32(_) => None,
            other => Some(other.to_f32_vec()),
        };
        FloatView { data, converted }
    }

    fn as_slice(&self) -> &[f32] {
        match &self.converted {
            Some(v) => v,
            None => self.data.as_f32().expect("checked F32"),
        }
    }
}

struct Timer<'a> {
    backend: &'a NativeBackend,
    start: Instant,
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.backend
            .kernel_nanos
            .fetch_add(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Whether `b_dims` is a suffix of `a_dims` (the bias-add broadcast).
fn is_suffix(a: &Shape, b: &Shape) -> bool {
    let (ad, bd) = (a.dims(), b.dims());
    bd.len() <= ad.len() && ad[ad.len() - bd.len()..] == *bd
}

impl Backend for NativeBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn register(&self, data: TensorData, dtype: DType) -> DataId {
        self.put(data, dtype)
    }

    fn read_sync(&self, id: DataId) -> Result<TensorData> {
        Ok((*self.fetch(id)?).clone())
    }

    fn read(&self, id: DataId) -> DataFuture {
        DataFuture::ready(self.read_sync(id))
    }

    fn dispose_data(&self, id: DataId) {
        self.store.lock().remove(&id);
    }

    fn memory(&self) -> BackendMemory {
        let store = self.store.lock();
        BackendMemory {
            num_buffers: store.len(),
            num_bytes: store.values().map(|e| e.data.byte_len(e.dtype)).sum(),
            details: vec![("threads".to_string(), self.pool.size() as f64)],
        }
    }

    fn begin_timing(&self) {
        self.timing_mark.store(self.kernel_nanos.load(Ordering::Relaxed), Ordering::SeqCst);
    }

    fn end_timing(&self) -> KernelTiming {
        let now = self.kernel_nanos.load(Ordering::Relaxed);
        KernelTiming {
            kernel_ms: (now - self.timing_mark.load(Ordering::SeqCst)) as f64 / 1e6,
        }
    }

    fn device_timer_ns(&self) -> Option<u64> {
        Some(self.kernel_nanos.load(Ordering::Relaxed))
    }

    fn unary(&self, op: UnaryOp, a: &KTensor<'_>) -> Result<DataId> {
        let _t = self.timer();
        let x = self.fetch_f32(a.data)?;
        let out = compute::unary(op, x.as_slice(), &self.pool);
        Ok(self.put_f32(out, op.out_dtype(a.dtype)))
    }

    fn binary(
        &self,
        op: BinaryOp,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
        out_dtype: DType,
    ) -> Result<DataId> {
        let _t = self.timer();
        let x = self.fetch_f32(a.data)?;
        let y = self.fetch_f32(b.data)?;
        let out = if a.shape == b.shape {
            compute::binary(op, x.as_slice(), y.as_slice(), &self.pool)
        } else if is_suffix(a.shape, b.shape) {
            compute::binary_suffix(op, x.as_slice(), y.as_slice(), false, &self.pool)
        } else if is_suffix(b.shape, a.shape) {
            compute::binary_suffix(op, y.as_slice(), x.as_slice(), true, &self.pool)
        } else {
            reference::binary(op, x.as_slice(), a.shape, y.as_slice(), b.shape, out_shape)
        };
        Ok(self.put_f32(out, out_dtype))
    }

    fn cast(&self, a: &KTensor<'_>, dtype: DType) -> Result<DataId> {
        let _t = self.timer();
        let data = self.fetch(a.data)?;
        Ok(self.put(data.cast(dtype), dtype))
    }

    fn reduce(&self, op: ReduceOp, a: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        let _t = self.timer();
        let x = self.fetch_f32(a.data)?;
        // Fast paths: sum/mean over a contiguous tail of axes (row sums) or
        // a contiguous leading run of them (column sums).
        let rank = a.shape.rank();
        let size = a.shape.size();
        let reduced: usize = axes.iter().map(|&i| a.shape.dim(i)).product();
        let sums = (op == ReduceOp::Sum || op == ReduceOp::Mean) && rank > 0;
        let mean = op == ReduceOp::Mean;
        let out = if sums && axes.iter().copied().eq(rank - axes.len()..rank) {
            let inner = reduced.max(1);
            compute::reduce_last(x.as_slice(), size / inner, inner, &self.pool, mean)
        } else if sums && size > 0 && axes.iter().copied().eq(0..axes.len()) {
            compute::reduce_leading(x.as_slice(), reduced, size / reduced, &self.pool, mean)
        } else {
            reference::reduce(op, x.as_slice(), a.shape, axes)
        };
        Ok(self.put_f32(out, op.out_dtype(a.dtype)))
    }

    fn arg_reduce(&self, op: ArgReduceOp, a: &KTensor<'_>, axis: usize) -> Result<DataId> {
        let _t = self.timer();
        let x = self.fetch_f32(a.data)?;
        Ok(self.put(
            TensorData::I32(reference::arg_reduce(op, x.as_slice(), a.shape, axis)),
            DType::I32,
        ))
    }

    fn matmul(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        transpose_a: bool,
        transpose_b: bool,
    ) -> Result<DataId> {
        let _t = self.timer();
        let x = self.fetch_f32(a.data)?;
        let y = self.fetch_f32(b.data)?;
        let batch = a.shape.dim(0);
        let (m, k) = if transpose_a {
            (a.shape.dim(2), a.shape.dim(1))
        } else {
            (a.shape.dim(1), a.shape.dim(2))
        };
        let n = if transpose_b { b.shape.dim(1) } else { b.shape.dim(2) };
        let out = compute::matmul(
            x.as_slice(),
            y.as_slice(),
            batch,
            m,
            k,
            n,
            transpose_a,
            transpose_b,
            &self.pool,
        );
        Ok(self.put_f32(out, DType::F32))
    }

    fn conv2d(&self, x: &KTensor<'_>, filter: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        let wv = self.fetch_f32(filter.data)?;
        Ok(self.put_f32(compute::conv2d(xv.as_slice(), wv.as_slice(), info, &self.pool), DType::F32))
    }

    fn conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let dyv = self.fetch_f32(dy.data)?;
        let wv = self.fetch_f32(filter.data)?;
        Ok(self.put_f32(
            compute::conv2d_backprop_input(dyv.as_slice(), wv.as_slice(), info, &self.pool),
            DType::F32,
        ))
    }

    fn conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        let dyv = self.fetch_f32(dy.data)?;
        Ok(self.put_f32(
            compute::conv2d_backprop_filter(xv.as_slice(), dyv.as_slice(), info, &self.pool),
            DType::F32,
        ))
    }

    fn depthwise_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        let wv = self.fetch_f32(filter.data)?;
        Ok(self.put_f32(
            compute::depthwise_conv2d(xv.as_slice(), wv.as_slice(), info, &self.pool),
            DType::F32,
        ))
    }

    fn depthwise_conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let dyv = self.fetch_f32(dy.data)?;
        let wv = self.fetch_f32(filter.data)?;
        Ok(self.put_f32(
            reference::depthwise_conv2d_backprop_input(dyv.as_slice(), wv.as_slice(), info),
            DType::F32,
        ))
    }

    fn depthwise_conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        let dyv = self.fetch_f32(dy.data)?;
        Ok(self.put_f32(
            reference::depthwise_conv2d_backprop_filter(xv.as_slice(), dyv.as_slice(), info),
            DType::F32,
        ))
    }

    fn pool2d(&self, op: PoolOp, x: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        Ok(self.put_f32(reference::pool2d(op, xv.as_slice(), info), x.dtype))
    }

    fn pool2d_backprop(
        &self,
        op: PoolOp,
        dy: &KTensor<'_>,
        x: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let dyv = self.fetch_f32(dy.data)?;
        let xv = self.fetch_f32(x.data)?;
        Ok(self.put_f32(reference::pool2d_backprop(op, dyv.as_slice(), xv.as_slice(), info), DType::F32))
    }

    fn slice(&self, x: &KTensor<'_>, begin: &[usize], size: &[usize]) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        Ok(self.put_f32(compute::slice(xv.as_slice(), x.shape, begin, size), x.dtype))
    }

    fn concat(&self, xs: &[KTensor<'_>], axis: usize) -> Result<DataId> {
        let _t = self.timer();
        let views: Vec<FloatView> = xs.iter().map(|t| self.fetch_f32(t.data)).collect::<Result<_>>()?;
        let pairs: Vec<(&[f32], &Shape)> =
            views.iter().zip(xs).map(|(v, t)| (v.as_slice(), t.shape)).collect();
        Ok(self.put_f32(reference::concat(&pairs, axis), xs[0].dtype))
    }

    fn transpose(&self, x: &KTensor<'_>, perm: &[usize]) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        Ok(self.put_f32(reference::transpose(xv.as_slice(), x.shape, perm), x.dtype))
    }

    fn pad(&self, x: &KTensor<'_>, paddings: &[(usize, usize)], value: f32) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        Ok(self.put_f32(reference::pad(xv.as_slice(), x.shape, paddings, value), x.dtype))
    }

    fn gather(&self, x: &KTensor<'_>, indices: &KTensor<'_>, axis: usize) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        let ix = self.fetch(indices.data)?.to_i32_vec();
        Ok(self.put_f32(reference::gather(xv.as_slice(), x.shape, &ix, axis), x.dtype))
    }

    fn tile(&self, x: &KTensor<'_>, reps: &[usize]) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        Ok(self.put_f32(reference::tile(xv.as_slice(), x.shape, reps), x.dtype))
    }

    fn reverse(&self, x: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        Ok(self.put_f32(reference::reverse(xv.as_slice(), x.shape, axes), x.dtype))
    }

    fn select(
        &self,
        cond: &KTensor<'_>,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
    ) -> Result<DataId> {
        let _t = self.timer();
        let cv = self.fetch_f32(cond.data)?;
        let av = self.fetch_f32(a.data)?;
        let bv = self.fetch_f32(b.data)?;
        Ok(self.put_f32(
            reference::select(
                cv.as_slice(),
                cond.shape,
                av.as_slice(),
                a.shape,
                bv.as_slice(),
                b.shape,
                out_shape,
            ),
            a.dtype,
        ))
    }

    fn one_hot(&self, indices: &KTensor<'_>, depth: usize, on: f32, off: f32) -> Result<DataId> {
        let _t = self.timer();
        let ix = self.fetch(indices.data)?.to_i32_vec();
        Ok(self.put_f32(reference::one_hot(&ix, depth, on, off), DType::F32))
    }

    fn resize_bilinear(
        &self,
        x: &KTensor<'_>,
        new_h: usize,
        new_w: usize,
        align_corners: bool,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        Ok(self.put_f32(
            reference::resize_bilinear(xv.as_slice(), x.shape, new_h, new_w, align_corners),
            DType::F32,
        ))
    }

    // Fused kernels: a quantized weight operand selects the dequant-free
    // compute kernel (codes read in place), an f32 one the plain kernel.

    fn fused_matmul(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        transpose_a: bool,
        transpose_b: bool,
    ) -> Result<DataId> {
        let _t = self.timer();
        let x = self.fetch_f32(a.data)?;
        let bv = bias.map(|bt| self.fetch_f32(bt.data)).transpose()?;
        let bv = bv.as_ref().map(|v| v.as_slice());
        let batch = a.shape.dim(0);
        let (m, k) = if transpose_a {
            (a.shape.dim(2), a.shape.dim(1))
        } else {
            (a.shape.dim(1), a.shape.dim(2))
        };
        let n = if transpose_b { b.shape.dim(1) } else { b.shape.dim(2) };
        let out = match b.quant {
            Some(params) => compute::fused_matmul_quant(
                x.as_slice(),
                &self.fetch_u8(b.data)?,
                params,
                batch,
                m,
                k,
                n,
                transpose_a,
                transpose_b,
                bv,
                activation,
                &self.pool,
            ),
            None => compute::fused_matmul(
                x.as_slice(),
                self.fetch_f32(b.data)?.as_slice(),
                batch,
                m,
                k,
                n,
                transpose_a,
                transpose_b,
                bv,
                activation,
                &self.pool,
            ),
        };
        Ok(self.put_f32(out, DType::F32))
    }

    fn fused_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        let bv = bias.map(|bt| self.fetch_f32(bt.data)).transpose()?;
        let bv = bv.as_ref().map(|v| v.as_slice());
        let out = match filter.quant {
            Some(params) => compute::fused_conv2d_quant(
                xv.as_slice(),
                &self.fetch_u8(filter.data)?,
                params,
                info,
                bv,
                activation,
                &self.pool,
            ),
            None => compute::fused_conv2d(
                xv.as_slice(),
                self.fetch_f32(filter.data)?.as_slice(),
                info,
                bv,
                activation,
                &self.pool,
            ),
        };
        Ok(self.put_f32(out, DType::F32))
    }

    fn fused_depthwise_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        let bv = bias.map(|bt| self.fetch_f32(bt.data)).transpose()?;
        let bv = bv.as_ref().map(|v| v.as_slice());
        let out = match filter.quant {
            Some(params) => compute::fused_depthwise_conv2d_quant(
                xv.as_slice(),
                &self.fetch_u8(filter.data)?,
                params,
                info,
                bv,
                activation,
                &self.pool,
            ),
            None => compute::fused_depthwise_conv2d(
                xv.as_slice(),
                self.fetch_f32(filter.data)?.as_slice(),
                info,
                bv,
                activation,
                &self.pool,
            ),
        };
        Ok(self.put_f32(out, DType::F32))
    }

    fn fused_elementwise(
        &self,
        x: &KTensor<'_>,
        extras: &[KTensor<'_>],
        steps: &[FusedStep],
        out_shape: &Shape,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.fetch_f32(x.data)?;
        let views: Vec<FloatView> =
            extras.iter().map(|t| self.fetch_f32(t.data)).collect::<Result<_>>()?;
        let pairs: Vec<(&[f32], &[usize])> =
            views.iter().zip(extras).map(|(v, t)| (v.as_slice(), t.shape.dims())).collect();
        let out = compute::fused_elementwise(
            xv.as_slice(),
            x.shape.dims(),
            &pairs,
            steps,
            out_shape.dims(),
            &self.pool,
        );
        Ok(self.put_f32(out, DType::F32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
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
    fn fused_matmul_quant_override_matches_dequantize_fallback() {
        use webml_core::backend::fused_matmul_fallback;
        use webml_core::quant::QuantParams;
        let b = NativeBackend::with_threads("t", 3);
        let a_shape = Shape::new(vec![1, 2, 3]);
        let w_shape = Shape::new(vec![1, 3, 2]);
        let a_id = b.register(TensorData::F32(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]), DType::F32);
        let w_id = b.register(TensorData::U8(vec![0, 255, 100, 17, 200, 64]), DType::U8);
        let params = QuantParams::per_tensor(0.03, -3.0);
        let a = KTensor::new(a_id, &a_shape, DType::F32);
        let w = KTensor { quant: Some(&params), ..KTensor::new(w_id, &w_shape, DType::U8) };
        let fast = b.fused_matmul(&a, &w, None, Some(UnaryOp::Relu), false, false).unwrap();
        let slow =
            fused_matmul_fallback(&b, &a, &w, None, Some(UnaryOp::Relu), false, false).unwrap();
        let fv = b.read_sync(fast).unwrap().to_f32_vec();
        let sv = b.read_sync(slow).unwrap().to_f32_vec();
        for (f, s) in fv.iter().zip(&sv) {
            assert!((f - s).abs() < 1e-4, "factored {f} vs dequantized {s}");
        }
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
    /// three ways.
    const SPLIT_WORK: usize = 3 * crate::parallel::GRAIN;

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
                let got = b.read_sync(b.reduce(op, &t, axes).unwrap()).unwrap().to_f32_vec();
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
        let outs = [
            backend.conv2d(&k(x, &x_shape), &k(w, &w_shape), &info).unwrap(),
            backend.matmul(&k(a, &a_shape), &k(b, &b_shape), false, false).unwrap(),
            backend.binary(BinaryOp::Add, &v, &v, &v_shape, DType::F32).unwrap(),
        ];
        outs.iter().map(|&id| backend.read_sync(id).unwrap().to_f32_vec()).collect()
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
