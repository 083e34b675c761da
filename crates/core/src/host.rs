//! The host substrate: one [`Backend`] for every backend that computes on
//! host memory.
//!
//! A host backend is two things. The *substrate* — an id → buffer store, a
//! kernel-time counter, a [`WorkerPool`], and the marshalling of every
//! [`Backend`] method (fetch the operands as slices, run a function on them,
//! store the `Vec` it returns) — is [`HostBackend`], written once here. The
//! *kernel set* — which function runs on the slices — is a [`HostKernels`]
//! marker type: every method defaults to the [`crate::kernels`] oracle and a
//! set overrides the ones it has an implementation of its own for. The three
//! sets that ship are [`crate::cpu::Reference`] (the oracle, overriding
//! nothing but the quantized fused hooks), `webml_backend_cpu::PlainJs` (five
//! interpreter-style kernels, the Table-1 baseline) and
//! `webml_backend_native::Native` (thirteen optimized ones).
//!
//! `K` is a zero-sized marker resolved at compile time, so a kernel call is
//! a direct call: no `dyn`, no table, no box between the marshal layer and
//! the loop.

use crate::backend::{
    fused_conv2d_fallback, fused_depthwise_conv2d_fallback, fused_elementwise_fallback,
    fused_matmul_fallback, is_plain, ArgReduceOp, Backend, BackendMemory, BinaryOp, DataFuture,
    DataId, FusedStep, KTensor, MatMulGeom, PoolOp, ReduceOp, UnaryOp,
};
use crate::conv_util::Conv2dInfo;
use crate::dtype::{DType, TensorData};
use crate::error::{Error, Result};
use crate::kernels as k;
use crate::pool::WorkerPool;
use crate::quant::QuantParams;
use crate::shape::Shape;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The weight operand of a fused kernel: f32 values, or raw U8 codes with
/// their affine params ([`KTensor::quant`]), read in place.
#[derive(Debug, Clone, Copy)]
pub enum Weights<'a> {
    /// Plain f32 weights.
    F32(&'a [f32]),
    /// Quantization codes and the params that dequantize them.
    Quant(&'a [u8], &'a QuantParams),
}

/// A host kernel set: the functions [`HostBackend`] runs on plain slices.
///
/// Every kernel defaults to the [`crate::kernels`] oracle, so the empty set
/// is the reference backend. An override must keep the oracle's accumulation
/// order where the parity suites compare on bits. `pool` is the backend's
/// own; the defaults ignore it.
///
/// A product kernel call with an f32 weight and an empty epilogue runs the
/// f32 kernel (`matmul`, `conv2d`, `depthwise_conv2d`); any other goes to
/// the matching `fused_*` hook. The four hooks return `None` for "this set
/// has no such kernel": the backend then runs the matching
/// `fused_*_fallback` composition on itself, which is also what dequantizes
/// a [`Weights::Quant`] operand for a set without a dequant-free kernel.
#[allow(missing_docs)]
pub trait HostKernels: 'static {
    /// Registry name of a backend built with [`HostBackend::new`].
    const NAME: &'static str;

    /// Pool size of a backend built without an explicit thread count.
    fn default_threads() -> usize {
        1
    }

    fn unary(op: UnaryOp, x: &[f32], _pool: &WorkerPool) -> Vec<f32> {
        k::unary(op, x)
    }

    fn binary(
        op: BinaryOp,
        a: &[f32],
        a_shape: &Shape,
        b: &[f32],
        b_shape: &Shape,
        out_shape: &Shape,
        _pool: &WorkerPool,
    ) -> Vec<f32> {
        k::binary(op, a, a_shape, b, b_shape, out_shape)
    }

    fn reduce(
        op: ReduceOp,
        x: &[f32],
        shape: &Shape,
        axes: &[usize],
        _pool: &WorkerPool,
    ) -> Vec<f32> {
        k::reduce(op, x, shape, axes)
    }

    fn arg_reduce(op: ArgReduceOp, x: &[f32], shape: &Shape, axis: usize) -> Vec<i32> {
        k::arg_reduce(op, x, shape, axis)
    }

    fn matmul(a: &[f32], b: &[f32], g: &MatMulGeom, _pool: &WorkerPool) -> Vec<f32> {
        k::matmul(a, b, g.batch, g.m, g.k, g.n, g.transpose_a, g.transpose_b)
    }

    fn conv2d(x: &[f32], w: &[f32], info: &Conv2dInfo, _pool: &WorkerPool) -> Vec<f32> {
        k::conv2d(x, w, info)
    }

    fn conv2d_backprop_input(
        dy: &[f32],
        w: &[f32],
        info: &Conv2dInfo,
        _pool: &WorkerPool,
    ) -> Vec<f32> {
        k::conv2d_backprop_input(dy, w, info)
    }

    fn conv2d_backprop_filter(
        x: &[f32],
        dy: &[f32],
        info: &Conv2dInfo,
        _pool: &WorkerPool,
    ) -> Vec<f32> {
        k::conv2d_backprop_filter(x, dy, info)
    }

    fn depthwise_conv2d(x: &[f32], w: &[f32], info: &Conv2dInfo, _pool: &WorkerPool) -> Vec<f32> {
        k::depthwise_conv2d(x, w, info)
    }

    fn depthwise_conv2d_backprop_input(dy: &[f32], w: &[f32], info: &Conv2dInfo) -> Vec<f32> {
        k::depthwise_conv2d_backprop_input(dy, w, info)
    }

    fn depthwise_conv2d_backprop_filter(x: &[f32], dy: &[f32], info: &Conv2dInfo) -> Vec<f32> {
        k::depthwise_conv2d_backprop_filter(x, dy, info)
    }

    fn pool2d(op: PoolOp, x: &[f32], info: &Conv2dInfo) -> Vec<f32> {
        k::pool2d(op, x, info)
    }

    fn pool2d_backprop(op: PoolOp, dy: &[f32], x: &[f32], info: &Conv2dInfo) -> Vec<f32> {
        k::pool2d_backprop(op, dy, x, info)
    }

    fn slice(x: &[f32], shape: &Shape, begin: &[usize], size: &[usize]) -> Vec<f32> {
        k::slice(x, shape, begin, size)
    }

    fn concat(xs: &[(&[f32], &Shape)], axis: usize) -> Vec<f32> {
        k::concat(xs, axis)
    }

    fn transpose(x: &[f32], shape: &Shape, perm: &[usize]) -> Vec<f32> {
        k::transpose(x, shape, perm)
    }

    fn pad(x: &[f32], shape: &Shape, paddings: &[(usize, usize)], value: f32) -> Vec<f32> {
        k::pad(x, shape, paddings, value)
    }

    fn gather(x: &[f32], shape: &Shape, indices: &[i32], axis: usize) -> Vec<f32> {
        k::gather(x, shape, indices, axis)
    }

    fn tile(x: &[f32], shape: &Shape, reps: &[usize]) -> Vec<f32> {
        k::tile(x, shape, reps)
    }

    fn reverse(x: &[f32], shape: &Shape, axes: &[usize]) -> Vec<f32> {
        k::reverse(x, shape, axes)
    }

    fn select(
        cond: &[f32],
        cond_shape: &Shape,
        a: &[f32],
        a_shape: &Shape,
        b: &[f32],
        b_shape: &Shape,
        out_shape: &Shape,
    ) -> Vec<f32> {
        k::select(cond, cond_shape, a, a_shape, b, b_shape, out_shape)
    }

    fn one_hot(indices: &[i32], depth: usize, on: f32, off: f32) -> Vec<f32> {
        k::one_hot(indices, depth, on, off)
    }

    fn resize_bilinear(
        x: &[f32],
        shape: &Shape,
        new_h: usize,
        new_w: usize,
        align_corners: bool,
    ) -> Vec<f32> {
        k::resize_bilinear(x, shape, new_h, new_w, align_corners)
    }

    fn fused_matmul(
        _a: &[f32],
        _b: Weights<'_>,
        _g: &MatMulGeom,
        _bias: Option<&[f32]>,
        _activation: Option<UnaryOp>,
        _pool: &WorkerPool,
    ) -> Option<Vec<f32>> {
        None
    }

    fn fused_conv2d(
        _x: &[f32],
        _w: Weights<'_>,
        _info: &Conv2dInfo,
        _bias: Option<&[f32]>,
        _activation: Option<UnaryOp>,
        _pool: &WorkerPool,
    ) -> Option<Vec<f32>> {
        None
    }

    fn fused_depthwise_conv2d(
        _x: &[f32],
        _w: Weights<'_>,
        _info: &Conv2dInfo,
        _bias: Option<&[f32]>,
        _activation: Option<UnaryOp>,
        _pool: &WorkerPool,
    ) -> Option<Vec<f32>> {
        None
    }

    /// `extras` pairs each extra operand with its dims.
    fn fused_elementwise(
        _x: &[f32],
        _x_dims: &[usize],
        _extras: &[(&[f32], &[usize])],
        _steps: &[FusedStep],
        _out_dims: &[usize],
        _pool: &WorkerPool,
    ) -> Option<Vec<f32>> {
        None
    }
}

struct Entry {
    data: Arc<TensorData>,
    dtype: DType,
}

/// A backend computing on host memory with the kernel set `K` (see the
/// module docs).
pub struct HostBackend<K: HostKernels> {
    name: String,
    /// The kernels' threads, this backend's own: engines do not queue behind
    /// each other's kernels, and a one-thread backend has no workers at all.
    pool: WorkerPool,
    store: Mutex<HashMap<DataId, Entry>>,
    next_id: AtomicU64,
    kernel_nanos: AtomicU64,
    kernels: PhantomData<fn() -> K>,
}

impl<K: HostKernels> Default for HostBackend<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: HostKernels> HostBackend<K> {
    /// Create a backend under the set's own name and default thread count.
    pub fn new() -> Self {
        Self::with_name(K::NAME)
    }

    /// Create a backend with a custom registry name.
    pub fn with_name(name: impl Into<String>) -> Self {
        Self::with_threads(name, K::default_threads())
    }

    /// Create a backend whose kernels run on a pool of `threads` threads,
    /// the calling one included, spawned here and kept until the backend is
    /// dropped. `1` spawns nothing.
    pub fn with_threads(name: impl Into<String>, threads: usize) -> Self {
        HostBackend {
            name: name.into(),
            pool: WorkerPool::new(threads),
            store: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            kernel_nanos: AtomicU64::new(0),
            kernels: PhantomData,
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

    fn view<T: Element>(&self, id: DataId) -> Result<View<T>> {
        let data = self.fetch(id)?;
        let converted = T::stored(&data).is_none().then(|| T::convert(&data));
        Ok(View { data, converted })
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

    /// Every kernel method holds one of these from entry to return, so a
    /// kernel set has no way to run untimed.
    fn timer(&self) -> Timer<'_> {
        Timer { nanos: &self.kernel_nanos, start: Instant::now() }
    }

    /// One f32 operand in, one buffer of `dtype` out.
    fn map1(
        &self,
        x: &KTensor<'_>,
        dtype: DType,
        kernel: impl FnOnce(&[f32]) -> Vec<f32>,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.view::<f32>(x.data)?;
        Ok(self.put_f32(kernel(xv.as_slice()), dtype))
    }

    /// Two f32 operands in, one buffer of `dtype` out.
    fn map2(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        dtype: DType,
        kernel: impl FnOnce(&[f32], &[f32]) -> Vec<f32>,
    ) -> Result<DataId> {
        let _t = self.timer();
        let av = self.view::<f32>(a.data)?;
        let bv = self.view::<f32>(b.data)?;
        Ok(self.put_f32(kernel(av.as_slice(), bv.as_slice()), dtype))
    }

    /// Run a fused hook on `x`, the weights `w` (codes when it carries quant
    /// params) and the bias; `None` when the set has no kernel for them.
    fn fused(
        &self,
        x: &KTensor<'_>,
        w: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        hook: impl FnOnce(&[f32], Weights<'_>, Option<&[f32]>) -> Option<Vec<f32>>,
    ) -> Result<Option<DataId>> {
        let _t = self.timer();
        let xv = self.view::<f32>(x.data)?;
        let bias = bias.map(|t| self.view::<f32>(t.data)).transpose()?;
        let bias = bias.as_ref().map(View::as_slice);
        let out = match w.quant {
            Some(params) => hook(
                xv.as_slice(),
                Weights::Quant(self.view::<u8>(w.data)?.as_slice(), params),
                bias,
            ),
            None => hook(xv.as_slice(), Weights::F32(self.view::<f32>(w.data)?.as_slice()), bias),
        };
        Ok(out.map(|vals| self.put_f32(vals, DType::F32)))
    }
}

/// An element type a stored buffer can be read as.
trait Element: Sized {
    /// The buffer itself, when it is stored as this type.
    fn stored(data: &TensorData) -> Option<&[Self]>;
    fn convert(data: &TensorData) -> Vec<Self>;
}

impl Element for f32 {
    fn stored(data: &TensorData) -> Option<&[f32]> {
        data.as_f32()
    }
    fn convert(data: &TensorData) -> Vec<f32> {
        data.to_f32_vec()
    }
}

impl Element for i32 {
    fn stored(data: &TensorData) -> Option<&[i32]> {
        data.as_i32()
    }
    fn convert(data: &TensorData) -> Vec<i32> {
        data.to_i32_vec()
    }
}

/// `u8` reads quantization codes ([`TensorData::to_u8_codes`]).
impl Element for u8 {
    fn stored(data: &TensorData) -> Option<&[u8]> {
        data.as_u8()
    }
    fn convert(data: &TensorData) -> Vec<u8> {
        data.to_u8_codes()
    }
}

/// A stored buffer as `&[T]`: zero-copy when it is stored as `T`, converted
/// once otherwise. Holding the `Arc` keeps the slice valid after the store's
/// lock is released and across a concurrent `dispose_data`.
struct View<T> {
    data: Arc<TensorData>,
    converted: Option<Vec<T>>,
}

impl<T: Element> View<T> {
    fn as_slice(&self) -> &[T] {
        match &self.converted {
            Some(v) => v,
            None => T::stored(&self.data).expect("converted when not stored as T"),
        }
    }
}

struct Timer<'a> {
    nanos: &'a AtomicU64,
    start: Instant,
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.nanos.fetch_add(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl<K: HostKernels> Backend for HostBackend<K> {
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

    fn device_timer_ns(&self) -> Option<u64> {
        Some(self.kernel_nanos.load(Ordering::Relaxed))
    }

    fn unary(&self, op: UnaryOp, a: &KTensor<'_>) -> Result<DataId> {
        self.map1(a, op.out_dtype(a.dtype), |x| K::unary(op, x, &self.pool))
    }

    fn binary(
        &self,
        op: BinaryOp,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
        out_dtype: DType,
    ) -> Result<DataId> {
        self.map2(a, b, out_dtype, |x, y| {
            K::binary(op, x, a.shape, y, b.shape, out_shape, &self.pool)
        })
    }

    fn cast(&self, a: &KTensor<'_>, dtype: DType) -> Result<DataId> {
        let _t = self.timer();
        let data = self.fetch(a.data)?;
        Ok(self.put(data.cast(dtype), dtype))
    }

    fn reduce(&self, op: ReduceOp, a: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        self.map1(a, op.out_dtype(a.dtype), |x| K::reduce(op, x, a.shape, axes, &self.pool))
    }

    fn arg_reduce(&self, op: ArgReduceOp, a: &KTensor<'_>, axis: usize) -> Result<DataId> {
        let _t = self.timer();
        let x = self.view::<f32>(a.data)?;
        Ok(self.put(TensorData::I32(K::arg_reduce(op, x.as_slice(), a.shape, axis)), DType::I32))
    }

    // An f32 weight with an empty epilogue is the set's plain kernel;
    // anything else its fused hook, or the composition when it has none.

    fn matmul(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        transpose_a: bool,
        transpose_b: bool,
    ) -> Result<DataId> {
        let geom = MatMulGeom::of(a.shape, b.shape, transpose_a, transpose_b);
        if is_plain(b, bias, activation) {
            return self.map2(a, b, DType::F32, |x, y| K::matmul(x, y, &geom, &self.pool));
        }
        self.fused(a, b, bias, |x, w, bias| {
            K::fused_matmul(x, w, &geom, bias, activation, &self.pool)
        })?
        .map_or_else(
            || fused_matmul_fallback(self, a, b, bias, activation, transpose_a, transpose_b),
            Ok,
        )
    }

    fn conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        if is_plain(filter, bias, activation) {
            return self.map2(x, filter, DType::F32, |x, w| K::conv2d(x, w, info, &self.pool));
        }
        self.fused(x, filter, bias, |x, w, bias| {
            K::fused_conv2d(x, w, info, bias, activation, &self.pool)
        })?
        .map_or_else(|| fused_conv2d_fallback(self, x, filter, bias, activation, info), Ok)
    }

    fn conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        self.map2(dy, filter, DType::F32, |dy, w| K::conv2d_backprop_input(dy, w, info, &self.pool))
    }

    fn conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        self.map2(x, dy, DType::F32, |x, dy| K::conv2d_backprop_filter(x, dy, info, &self.pool))
    }

    fn depthwise_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        if is_plain(filter, bias, activation) {
            let kernel = |x: &[f32], w: &[f32]| K::depthwise_conv2d(x, w, info, &self.pool);
            return self.map2(x, filter, DType::F32, kernel);
        }
        self.fused(x, filter, bias, |x, w, bias| {
            K::fused_depthwise_conv2d(x, w, info, bias, activation, &self.pool)
        })?
        .map_or_else(
            || fused_depthwise_conv2d_fallback(self, x, filter, bias, activation, info),
            Ok,
        )
    }

    fn depthwise_conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        self.map2(dy, filter, DType::F32, |dy, w| K::depthwise_conv2d_backprop_input(dy, w, info))
    }

    fn depthwise_conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        self.map2(x, dy, DType::F32, |x, dy| K::depthwise_conv2d_backprop_filter(x, dy, info))
    }

    fn pool2d(&self, op: PoolOp, x: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        self.map1(x, x.dtype, |xv| K::pool2d(op, xv, info))
    }

    fn pool2d_backprop(
        &self,
        op: PoolOp,
        dy: &KTensor<'_>,
        x: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        self.map2(dy, x, DType::F32, |dy, x| K::pool2d_backprop(op, dy, x, info))
    }

    fn slice(&self, x: &KTensor<'_>, begin: &[usize], size: &[usize]) -> Result<DataId> {
        self.map1(x, x.dtype, |xv| K::slice(xv, x.shape, begin, size))
    }

    fn concat(&self, xs: &[KTensor<'_>], axis: usize) -> Result<DataId> {
        let _t = self.timer();
        let views: Vec<View<f32>> = xs.iter().map(|t| self.view(t.data)).collect::<Result<_>>()?;
        let pairs: Vec<(&[f32], &Shape)> =
            views.iter().zip(xs).map(|(v, t)| (v.as_slice(), t.shape)).collect();
        Ok(self.put_f32(K::concat(&pairs, axis), xs[0].dtype))
    }

    fn transpose(&self, x: &KTensor<'_>, perm: &[usize]) -> Result<DataId> {
        self.map1(x, x.dtype, |xv| K::transpose(xv, x.shape, perm))
    }

    fn pad(&self, x: &KTensor<'_>, paddings: &[(usize, usize)], value: f32) -> Result<DataId> {
        self.map1(x, x.dtype, |xv| K::pad(xv, x.shape, paddings, value))
    }

    fn gather(&self, x: &KTensor<'_>, indices: &KTensor<'_>, axis: usize) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.view::<f32>(x.data)?;
        let ix = self.view::<i32>(indices.data)?;
        Ok(self.put_f32(K::gather(xv.as_slice(), x.shape, ix.as_slice(), axis), x.dtype))
    }

    fn tile(&self, x: &KTensor<'_>, reps: &[usize]) -> Result<DataId> {
        self.map1(x, x.dtype, |xv| K::tile(xv, x.shape, reps))
    }

    fn reverse(&self, x: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        self.map1(x, x.dtype, |xv| K::reverse(xv, x.shape, axes))
    }

    fn select(
        &self,
        cond: &KTensor<'_>,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
    ) -> Result<DataId> {
        let _t = self.timer();
        let cv = self.view::<f32>(cond.data)?;
        let av = self.view::<f32>(a.data)?;
        let bv = self.view::<f32>(b.data)?;
        let (c, x, y) = (cv.as_slice(), av.as_slice(), bv.as_slice());
        Ok(self.put_f32(K::select(c, cond.shape, x, a.shape, y, b.shape, out_shape), a.dtype))
    }

    fn one_hot(&self, indices: &KTensor<'_>, depth: usize, on: f32, off: f32) -> Result<DataId> {
        let _t = self.timer();
        let ix = self.view::<i32>(indices.data)?;
        Ok(self.put_f32(K::one_hot(ix.as_slice(), depth, on, off), DType::F32))
    }

    fn resize_bilinear(
        &self,
        x: &KTensor<'_>,
        new_h: usize,
        new_w: usize,
        align_corners: bool,
    ) -> Result<DataId> {
        self.map1(x, DType::F32, |xv| K::resize_bilinear(xv, x.shape, new_h, new_w, align_corners))
    }

    fn fused_elementwise(
        &self,
        x: &KTensor<'_>,
        extras: &[KTensor<'_>],
        steps: &[FusedStep],
        out_shape: &Shape,
    ) -> Result<DataId> {
        let fused = {
            let _t = self.timer();
            let xv = self.view::<f32>(x.data)?;
            let views: Vec<View<f32>> =
                extras.iter().map(|t| self.view(t.data)).collect::<Result<_>>()?;
            let pairs: Vec<(&[f32], &[usize])> =
                views.iter().zip(extras).map(|(v, t)| (v.as_slice(), t.shape.dims())).collect();
            K::fused_elementwise(
                xv.as_slice(),
                x.shape.dims(),
                &pairs,
                steps,
                out_shape.dims(),
                &self.pool,
            )
            .map(|vals| self.put_f32(vals, DType::F32))
        };
        match fused {
            Some(id) => Ok(id),
            None => fused_elementwise_fallback(self, x, extras, steps, out_shape),
        }
    }
}
