//! The bundled fallback CPU backend.
//!
//! Straightforward single-threaded scalar loops over host vectors, used as
//! the correctness reference for every other backend and registered as the
//! default backend of the global engine — mirroring the role of the plain-JS
//! CPU implementation in TensorFlow.js ("automatically used when the
//! environment has no access to WebGL or the TensorFlow binary", Sec 3.1).

use crate::backend::{
    fused_conv2d_fallback, fused_depthwise_conv2d_fallback, fused_matmul_fallback, ArgReduceOp,
    Backend, BackendMemory, BinaryOp, DataFuture, DataId, KTensor, KernelTiming, PoolOp, ReduceOp,
    UnaryOp,
};
use crate::conv_util::Conv2dInfo;
use crate::dtype::{DType, TensorData};
use crate::error::{Error, Result};
use crate::kernels as k;
use crate::shape::Shape;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

struct Entry {
    data: TensorData,
    dtype: DType,
}

/// Single-threaded scalar CPU backend; the reference implementation.
pub struct CpuBackend {
    name: String,
    store: Mutex<HashMap<DataId, Entry>>,
    next_id: AtomicU64,
    kernel_nanos: AtomicU64,
    timing_mark: Mutex<u64>,
}

impl Default for CpuBackend {
    fn default() -> Self {
        CpuBackend::new()
    }
}

impl CpuBackend {
    /// Create a backend named `"cpu"`.
    pub fn new() -> CpuBackend {
        CpuBackend::with_name("cpu")
    }

    /// Create a backend with a custom registry name.
    pub fn with_name(name: impl Into<String>) -> CpuBackend {
        CpuBackend {
            name: name.into(),
            store: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            kernel_nanos: AtomicU64::new(0),
            timing_mark: Mutex::new(0),
        }
    }

    fn fresh(&self) -> DataId {
        DataId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    fn put(&self, data: TensorData, dtype: DType) -> DataId {
        let id = self.fresh();
        self.store.lock().insert(id, Entry { data, dtype });
        id
    }

    fn get_f32(&self, id: DataId) -> Result<Vec<f32>> {
        let store = self.store.lock();
        let entry = store
            .get(&id)
            .ok_or_else(|| Error::backend(&self.name, format!("unknown data id {id:?}")))?;
        Ok(entry.data.to_f32_vec())
    }

    fn get_i32(&self, id: DataId) -> Result<Vec<i32>> {
        let store = self.store.lock();
        let entry = store
            .get(&id)
            .ok_or_else(|| Error::backend(&self.name, format!("unknown data id {id:?}")))?;
        Ok(entry.data.to_i32_vec())
    }

    /// Raw u8 quantization codes (see [`TensorData::to_u8_codes`]).
    fn get_u8(&self, id: DataId) -> Result<Vec<u8>> {
        let store = self.store.lock();
        let entry = store
            .get(&id)
            .ok_or_else(|| Error::backend(&self.name, format!("unknown data id {id:?}")))?;
        Ok(entry.data.to_u8_codes())
    }

    fn put_f32(&self, v: Vec<f32>, dtype: DType) -> DataId {
        let data = TensorData::F32(v).cast(dtype);
        self.put(data, dtype)
    }

    fn timer(&self) -> KernelTimer<'_> {
        KernelTimer { backend: self, start: Instant::now() }
    }
}

struct KernelTimer<'a> {
    backend: &'a CpuBackend,
    start: Instant,
}

impl Drop for KernelTimer<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        self.backend.kernel_nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn register(&self, data: TensorData, dtype: DType) -> DataId {
        self.put(data.cast(dtype), dtype)
    }

    fn read_sync(&self, id: DataId) -> Result<TensorData> {
        let store = self.store.lock();
        store
            .get(&id)
            .map(|e| e.data.clone())
            .ok_or_else(|| Error::backend(&self.name, format!("unknown data id {id:?}")))
    }

    fn read(&self, id: DataId) -> DataFuture {
        DataFuture::ready(self.read_sync(id))
    }

    fn dispose_data(&self, id: DataId) {
        self.store.lock().remove(&id);
    }

    fn memory(&self) -> BackendMemory {
        let store = self.store.lock();
        let num_bytes = store.values().map(|e| e.data.byte_len(e.dtype)).sum();
        BackendMemory { num_buffers: store.len(), num_bytes, details: Vec::new() }
    }

    fn begin_timing(&self) {
        *self.timing_mark.lock() = self.kernel_nanos.load(Ordering::Relaxed);
    }

    fn end_timing(&self) -> KernelTiming {
        let mark = *self.timing_mark.lock();
        let now = self.kernel_nanos.load(Ordering::Relaxed);
        KernelTiming { kernel_ms: (now - mark) as f64 / 1e6 }
    }

    fn device_timer_ns(&self) -> Option<u64> {
        Some(self.kernel_nanos.load(Ordering::Relaxed))
    }

    fn unary(&self, op: UnaryOp, a: &KTensor<'_>) -> Result<DataId> {
        let _t = self.timer();
        let x = self.get_f32(a.data)?;
        Ok(self.put_f32(k::unary(op, &x), op.out_dtype(a.dtype)))
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
        let x = self.get_f32(a.data)?;
        let y = self.get_f32(b.data)?;
        Ok(self.put_f32(k::binary(op, &x, a.shape, &y, b.shape, out_shape), out_dtype))
    }

    fn cast(&self, a: &KTensor<'_>, dtype: DType) -> Result<DataId> {
        let _t = self.timer();
        let store = self.store.lock();
        let entry = store
            .get(&a.data)
            .ok_or_else(|| Error::backend(&self.name, "unknown data id"))?;
        let data = entry.data.cast(dtype);
        drop(store);
        Ok(self.put(data, dtype))
    }

    fn reduce(&self, op: ReduceOp, a: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        let _t = self.timer();
        let x = self.get_f32(a.data)?;
        Ok(self.put_f32(k::reduce(op, &x, a.shape, axes), op.out_dtype(a.dtype)))
    }

    fn arg_reduce(&self, op: ArgReduceOp, a: &KTensor<'_>, axis: usize) -> Result<DataId> {
        let _t = self.timer();
        let x = self.get_f32(a.data)?;
        Ok(self.put(TensorData::I32(k::arg_reduce(op, &x, a.shape, axis)), DType::I32))
    }

    fn matmul(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        transpose_a: bool,
        transpose_b: bool,
    ) -> Result<DataId> {
        let _t = self.timer();
        let x = self.get_f32(a.data)?;
        let y = self.get_f32(b.data)?;
        let batch = a.shape.dim(0);
        let (m, kk) = if transpose_a {
            (a.shape.dim(2), a.shape.dim(1))
        } else {
            (a.shape.dim(1), a.shape.dim(2))
        };
        let n = if transpose_b { b.shape.dim(1) } else { b.shape.dim(2) };
        Ok(self.put_f32(k::matmul(&x, &y, batch, m, kk, n, transpose_a, transpose_b), DType::F32))
    }

    fn conv2d(&self, x: &KTensor<'_>, filter: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        let wv = self.get_f32(filter.data)?;
        Ok(self.put_f32(k::conv2d(&xv, &wv, info), DType::F32))
    }

    fn conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let dyv = self.get_f32(dy.data)?;
        let wv = self.get_f32(filter.data)?;
        Ok(self.put_f32(k::conv2d_backprop_input(&dyv, &wv, info), DType::F32))
    }

    fn conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        let dyv = self.get_f32(dy.data)?;
        Ok(self.put_f32(k::conv2d_backprop_filter(&xv, &dyv, info), DType::F32))
    }

    fn depthwise_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        let wv = self.get_f32(filter.data)?;
        Ok(self.put_f32(k::depthwise_conv2d(&xv, &wv, info), DType::F32))
    }

    fn depthwise_conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let dyv = self.get_f32(dy.data)?;
        let wv = self.get_f32(filter.data)?;
        Ok(self.put_f32(k::depthwise_conv2d_backprop_input(&dyv, &wv, info), DType::F32))
    }

    fn depthwise_conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        let dyv = self.get_f32(dy.data)?;
        Ok(self.put_f32(k::depthwise_conv2d_backprop_filter(&xv, &dyv, info), DType::F32))
    }

    fn pool2d(&self, op: PoolOp, x: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        Ok(self.put_f32(k::pool2d(op, &xv, info), x.dtype))
    }

    fn pool2d_backprop(
        &self,
        op: PoolOp,
        dy: &KTensor<'_>,
        x: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let _t = self.timer();
        let dyv = self.get_f32(dy.data)?;
        let xv = self.get_f32(x.data)?;
        Ok(self.put_f32(k::pool2d_backprop(op, &dyv, &xv, info), DType::F32))
    }

    fn slice(&self, x: &KTensor<'_>, begin: &[usize], size: &[usize]) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        Ok(self.put_f32(k::slice(&xv, x.shape, begin, size), x.dtype))
    }

    fn concat(&self, xs: &[KTensor<'_>], axis: usize) -> Result<DataId> {
        let _t = self.timer();
        let vals: Vec<Vec<f32>> = xs.iter().map(|t| self.get_f32(t.data)).collect::<Result<_>>()?;
        let pairs: Vec<(&[f32], &Shape)> =
            vals.iter().zip(xs).map(|(v, t)| (v.as_slice(), t.shape)).collect();
        Ok(self.put_f32(k::concat(&pairs, axis), xs[0].dtype))
    }

    fn transpose(&self, x: &KTensor<'_>, perm: &[usize]) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        Ok(self.put_f32(k::transpose(&xv, x.shape, perm), x.dtype))
    }

    fn pad(&self, x: &KTensor<'_>, paddings: &[(usize, usize)], value: f32) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        Ok(self.put_f32(k::pad(&xv, x.shape, paddings, value), x.dtype))
    }

    fn gather(&self, x: &KTensor<'_>, indices: &KTensor<'_>, axis: usize) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        let ix = self.get_i32(indices.data)?;
        Ok(self.put_f32(k::gather(&xv, x.shape, &ix, axis), x.dtype))
    }

    fn tile(&self, x: &KTensor<'_>, reps: &[usize]) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        Ok(self.put_f32(k::tile(&xv, x.shape, reps), x.dtype))
    }

    fn reverse(&self, x: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        Ok(self.put_f32(k::reverse(&xv, x.shape, axes), x.dtype))
    }

    fn select(
        &self,
        cond: &KTensor<'_>,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
    ) -> Result<DataId> {
        let _t = self.timer();
        let cv = self.get_f32(cond.data)?;
        let av = self.get_f32(a.data)?;
        let bv = self.get_f32(b.data)?;
        Ok(self.put_f32(
            k::select(&cv, cond.shape, &av, a.shape, &bv, b.shape, out_shape),
            a.dtype,
        ))
    }

    fn one_hot(&self, indices: &KTensor<'_>, depth: usize, on: f32, off: f32) -> Result<DataId> {
        let _t = self.timer();
        let ix = self.get_i32(indices.data)?;
        Ok(self.put_f32(k::one_hot(&ix, depth, on, off), DType::F32))
    }

    fn resize_bilinear(
        &self,
        x: &KTensor<'_>,
        new_h: usize,
        new_w: usize,
        align_corners: bool,
    ) -> Result<DataId> {
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        Ok(self.put_f32(k::resize_bilinear(&xv, x.shape, new_h, new_w, align_corners), DType::F32))
    }

    // --- fused kernels -----------------------------------------------------
    //
    // f32 weights take the trait's reference composition. A quantized weight
    // runs the reference dequant-free kernel: the u8 codes feed the factored
    // accumulation in crate::kernels directly; no f32 weight buffer is ever
    // materialized.

    fn fused_matmul(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        transpose_a: bool,
        transpose_b: bool,
    ) -> Result<DataId> {
        let Some(params) = b.quant else {
            return fused_matmul_fallback(self, a, b, bias, activation, transpose_a, transpose_b);
        };
        let _t = self.timer();
        let x = self.get_f32(a.data)?;
        let codes = self.get_u8(b.data)?;
        let bias_v = bias.map(|t| self.get_f32(t.data)).transpose()?;
        let batch = a.shape.dim(0);
        let (m, kk) = if transpose_a {
            (a.shape.dim(2), a.shape.dim(1))
        } else {
            (a.shape.dim(1), a.shape.dim(2))
        };
        let n = if transpose_b { b.shape.dim(1) } else { b.shape.dim(2) };
        Ok(self.put_f32(
            k::fused_matmul_quant(
                &x,
                &codes,
                params,
                bias_v.as_deref(),
                activation,
                batch,
                m,
                kk,
                n,
                transpose_a,
                transpose_b,
            ),
            DType::F32,
        ))
    }

    fn fused_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let Some(params) = filter.quant else {
            return fused_conv2d_fallback(self, x, filter, bias, activation, info);
        };
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        let codes = self.get_u8(filter.data)?;
        let bias_v = bias.map(|t| self.get_f32(t.data)).transpose()?;
        Ok(self.put_f32(
            k::fused_conv2d_quant(&xv, &codes, params, bias_v.as_deref(), activation, info),
            DType::F32,
        ))
    }

    fn fused_depthwise_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let Some(params) = filter.quant else {
            return fused_depthwise_conv2d_fallback(self, x, filter, bias, activation, info);
        };
        let _t = self.timer();
        let xv = self.get_f32(x.data)?;
        let codes = self.get_u8(filter.data)?;
        let bias_v = bias.map(|t| self.get_f32(t.data)).transpose()?;
        Ok(self.put_f32(
            k::fused_depthwise_conv2d_quant(
                &xv,
                &codes,
                params,
                bias_v.as_deref(),
                activation,
                info,
            ),
            DType::F32,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_read_round_trip() {
        let b = CpuBackend::new();
        let id = b.register(TensorData::F32(vec![1.0, 2.0]), DType::F32);
        assert_eq!(b.read_sync(id).unwrap(), TensorData::F32(vec![1.0, 2.0]));
    }

    #[test]
    fn register_casts_to_dtype() {
        let b = CpuBackend::new();
        let id = b.register(TensorData::F32(vec![1.5, 0.0]), DType::Bool);
        assert_eq!(b.read_sync(id).unwrap(), TensorData::U8(vec![1, 0]));
    }

    #[test]
    fn dispose_frees_memory() {
        let b = CpuBackend::new();
        let id = b.register(TensorData::F32(vec![0.0; 100]), DType::F32);
        assert_eq!(b.memory().num_bytes, 400);
        b.dispose_data(id);
        assert_eq!(b.memory().num_buffers, 0);
        assert_eq!(b.memory().num_bytes, 0);
    }

    #[test]
    fn read_unknown_id_errors() {
        let b = CpuBackend::new();
        assert!(b.read_sync(DataId(999)).is_err());
    }

    #[test]
    fn fused_matmul_quant_override_matches_dequantize_fallback() {
        use crate::quant::QuantParams;
        let b = CpuBackend::new();
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
        let fast =
            b.fused_matmul(&a, &w, Some(&bias), Some(UnaryOp::Relu), false, false).unwrap();
        let slow =
            fused_matmul_fallback(&b, &a, &w, Some(&bias), Some(UnaryOp::Relu), false, false)
                .unwrap();
        let fv = b.read_sync(fast).unwrap().to_f32_vec();
        let sv = b.read_sync(slow).unwrap().to_f32_vec();
        for (f, s) in fv.iter().zip(&sv) {
            assert!((f - s).abs() < 1e-4, "factored {f} vs dequantized {s}");
        }
        assert_eq!(b.memory().num_buffers, 5, "the fallback's f32 temporary is disposed");
    }

    #[test]
    fn mismatched_per_channel_axis_falls_back_not_errors() {
        use crate::quant::QuantParams;
        let e = crate::Engine::new();
        e.register_backend("cpu", std::sync::Arc::new(CpuBackend::new()), 1);
        let a = e.tensor(vec![1.0, 1.0], vec![1, 1, 2]).unwrap();
        // Per-channel along the k axis (1): the factored kernel cannot keep
        // a constant scale per output column, so the op layer dequantizes.
        let params = QuantParams::per_channel(1, vec![0.1, 0.2], vec![0.0, 0.0]);
        let w = e.quantized_tensor(vec![10, 20, 30, 40], vec![1, 2, 2], params).unwrap();
        let got = crate::ops::fused_matmul(&a, &w, None, None, false, false)
            .unwrap()
            .to_f32_vec()
            .unwrap();
        // Row 0 dequantizes with scale .1, row 1 with scale .2.
        assert!((got[0] - (10.0 * 0.1 + 30.0 * 0.2)).abs() < 1e-5);
        assert!((got[1] - (20.0 * 0.1 + 40.0 * 0.2)).abs() < 1e-5);
    }

    #[test]
    fn timing_window_accumulates_kernel_time() {
        let b = CpuBackend::new();
        let shape = Shape::new(vec![64, 64]);
        let id = b.register(TensorData::F32(vec![1.0; 64 * 64]), DType::F32);
        b.begin_timing();
        let kt = KTensor::new(id, &shape, DType::F32);
        let _ = b.unary(UnaryOp::Exp, &kt).unwrap();
        let t = b.end_timing();
        assert!(t.kernel_ms >= 0.0);
    }
}
