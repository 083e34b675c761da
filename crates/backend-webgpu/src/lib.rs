//! # webml-backend-webgpu
//!
//! The WebGPU-class compute backend (paper Sec 4.3: compute APIs "allow us
//! to implement more optimized kernels" than WebGL's fragment shaders).
//! Kernels are compute pipelines dispatched over the [`webml_webgpu_sim`]
//! substrate: workgroup shared-memory tiled matmul/conv, storage buffers
//! instead of textures, ~3 µs dispatch encode instead of ~8 µs draw-call
//! setup, and native timestamp queries on every profile. It sits one rung
//! *above* webgl on the engine's degradation ladder: a lost device degrades
//! to webgl (then cpu), and canary re-admission climbs back.
//!
//! Numerically this backend is **bit-identical** to the CPU reference:
//! tiled kernels accumulate in the reference order and fused epilogues
//! apply the same scalar ops the unfused composition would, so parity
//! tests can `assert_eq!` on raw f32 values rather than compare within an
//! epsilon.

#![warn(missing_docs)]

pub mod pipelines;

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use webml_core::backend::{
    fused_conv2d_fallback, fused_depthwise_conv2d_fallback, fused_elementwise_fallback,
    fused_matmul_fallback, ArgReduceOp, Backend, BackendMemory, DataFuture, DataId, FenceToken,
    FusedStep, KTensor, KernelTiming, PoolOp, ReduceOp, UnaryOp,
};
use webml_core::backend::BinaryOp;
use webml_core::conv_util::Conv2dInfo;
use webml_core::dtype::{DType, TensorData};
use webml_core::error::{Error, Result};
use webml_core::shape::{broadcast_shapes, Shape};
use webml_webgpu_sim::{
    BufHandle, ComputePipeline, FaultPlan, GpuFenceHandle, WebGpuConfig, WebGpuContext, WebGpuError,
};
use webml_webgl_sim::devices::DeviceProfile;

/// Where a data container's values currently live.
enum Residency {
    /// On the (simulated) device, behind a storage-buffer handle.
    Device(BufHandle),
    /// On the host only: the device refused the upload (device lost,
    /// allocation OOM). Reads are served directly; the next kernel use, or
    /// [`WebGpuBackend::recover_device`], re-acquires a buffer.
    Host(Vec<f32>),
}

struct Entry {
    res: Residency,
    dtype: DType,
}

/// Map a substrate error to the engine's classified error surface, so the
/// engine can tell transient faults (retry / degrade) from logic errors.
fn map_gpu(name: &str, e: WebGpuError) -> Error {
    match e {
        WebGpuError::DeviceLost => Error::context_lost(name),
        WebGpuError::Oom { .. } | WebGpuError::TransientReadback { .. } => {
            Error::resource_exhausted(name, e.to_string())
        }
        WebGpuError::PipelineCompile { ref pipeline } => {
            Error::kernel_unsupported(name, pipeline.clone())
        }
        other => Error::backend(name, other.to_string()),
    }
}

/// The WebGPU-class compute backend over a simulated device.
pub struct WebGpuBackend {
    name: String,
    ctx: WebGpuContext,
    store: Mutex<HashMap<DataId, Entry>>,
    next_id: AtomicU64,
}

impl WebGpuBackend {
    /// Create a backend named `"webgpu"` on the given device profile.
    ///
    /// # Errors
    /// Fails when the profile exposes no WebGPU-class compute API (older
    /// iOS/Android) — callers should stay on the webgl rung, exactly as the
    /// degradation ladder does automatically.
    pub fn new(profile: DeviceProfile, config: WebGpuConfig) -> Result<WebGpuBackend> {
        Self::with_name("webgpu", profile, config)
    }

    /// Create a backend with a custom registry name (used to register
    /// multiple device profiles side by side for the benchmark tables).
    ///
    /// # Errors
    /// Same as [`WebGpuBackend::new`].
    pub fn with_name(
        name: impl Into<String>,
        profile: DeviceProfile,
        config: WebGpuConfig,
    ) -> Result<WebGpuBackend> {
        Self::with_faults_named(name, profile, config, FaultPlan::none())
    }

    /// Create a backend named `"webgpu"` whose device injects faults
    /// according to `plan` — the same seedable vocabulary as the WebGL
    /// substrate, so one soak seed exercises either ladder rung.
    ///
    /// # Errors
    /// Same as [`WebGpuBackend::new`].
    pub fn with_faults(
        profile: DeviceProfile,
        config: WebGpuConfig,
        plan: FaultPlan,
    ) -> Result<WebGpuBackend> {
        Self::with_faults_named("webgpu", profile, config, plan)
    }

    /// [`WebGpuBackend::with_faults`] with a custom registry name.
    ///
    /// # Errors
    /// Same as [`WebGpuBackend::new`].
    pub fn with_faults_named(
        name: impl Into<String>,
        profile: DeviceProfile,
        config: WebGpuConfig,
        plan: FaultPlan,
    ) -> Result<WebGpuBackend> {
        let name = name.into();
        let ctx = WebGpuContext::with_faults(profile, config, plan)
            .map_err(|e| Error::backend(&name, e.to_string()))?;
        Ok(WebGpuBackend { name, ctx, store: Mutex::new(HashMap::new()), next_id: AtomicU64::new(1) })
    }

    /// The underlying device context (for diagnostics and benchmarks).
    pub fn context(&self) -> &WebGpuContext {
        &self.ctx
    }

    /// Device-queue counters (busy time, fence waits, pipeline drains,
    /// pending commands). Does not flush.
    pub fn queue_stats(&self) -> webml_webgpu_sim::WebGpuQueueStats {
        self.ctx.queue_stats()
    }

    /// After a device loss: attempt recovery and re-acquire storage buffers
    /// for host-resident entries. Returns whether the device is usable
    /// again. The pipeline cache was cleared at loss time, so pipelines
    /// re-create on next dispatch; shadowed buffers re-upload lazily.
    pub fn recover_device(&self) -> bool {
        if !self.ctx.restore_device() {
            return false;
        }
        let mut store = self.store.lock();
        for e in store.values_mut() {
            let data = match &e.res {
                Residency::Host(d) => d.clone(),
                Residency::Device(_) => continue,
            };
            let uploaded = if e.dtype == DType::U8 {
                let codes: Vec<u8> =
                    data.iter().map(|&x| x.round().clamp(0.0, 255.0) as u8).collect();
                self.ctx.upload_quantized(&codes).ok()
            } else {
                self.ctx.try_upload(data).ok()
            };
            if let Some(h) = uploaded {
                e.res = Residency::Device(h);
            }
        }
        true
    }

    /// Fetch the buffer handle for `id`, re-acquiring a device buffer for
    /// host-resident entries (the lazy half of device-loss recovery).
    /// Storage buffers are linear, so free reshapes need no relayout — the
    /// kernel's logical shape travels in the pipeline closure instead.
    fn handle(&self, id: DataId) -> Result<BufHandle> {
        let mut store = self.store.lock();
        let e = store
            .get_mut(&id)
            .ok_or_else(|| Error::backend(&self.name, format!("unknown data id {id:?}")))?;
        match &e.res {
            Residency::Device(h) => Ok(h.clone()),
            Residency::Host(data) => {
                let h = if e.dtype == DType::U8 {
                    let codes: Vec<u8> =
                        data.iter().map(|&x| x.round().clamp(0.0, 255.0) as u8).collect();
                    self.ctx.upload_quantized(&codes).map_err(|g| map_gpu(&self.name, g))?
                } else {
                    self.ctx
                        .try_upload(data.clone())
                        .map_err(|(g, _)| map_gpu(&self.name, g))?
                };
                e.res = Residency::Device(h.clone());
                Ok(h)
            }
        }
    }

    fn insert(&self, res: Residency, dtype: DType) -> DataId {
        let id = DataId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.store.lock().insert(id, Entry { res, dtype });
        id
    }

    fn dispatch_pl(
        &self,
        pipeline: ComputePipeline,
        inputs: &[&BufHandle],
        dtype: DType,
    ) -> Result<DataId> {
        let out = self.ctx.dispatch(pipeline, inputs).map_err(|e| map_gpu(&self.name, e))?;
        Ok(self.insert(Residency::Device(out), dtype))
    }

    /// Dispatch a fused matmul/conv `pipeline` over its two operands plus
    /// the optional bias. A rejected pipeline is noted under `kernel` and
    /// answered with `fallback`, composed on this same backend.
    fn dispatch_fused(
        &self,
        kernel: &'static str,
        pipeline: ComputePipeline,
        operands: [&KTensor<'_>; 2],
        bias: Option<&KTensor<'_>>,
        fallback: impl FnOnce() -> Result<DataId>,
    ) -> Result<DataId> {
        let buffers: Vec<BufHandle> =
            operands.into_iter().chain(bias).map(|t| self.handle(t.data)).collect::<Result<_>>()?;
        match self.dispatch_pl(pipeline, &buffers.iter().collect::<Vec<_>>(), DType::F32) {
            Err(Error::KernelUnsupported { .. }) => {
                note_fused_fallback(kernel);
                fallback()
            }
            r => r,
        }
    }
}

fn to_tensor_data(vals: Vec<f32>, dtype: DType) -> TensorData {
    TensorData::F32(vals).cast(dtype)
}

impl Backend for WebGpuBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn register(&self, data: TensorData, dtype: DType) -> DataId {
        // U8 containers (quantized weight codes) land in one-byte-per-code
        // storage buffers — codes never widen to f32 on the device; the
        // pipeline reads them widened like any other buffer and the
        // consuming kernel keeps the affine map in its epilogue.
        if dtype == DType::U8 {
            let codes: Vec<u8> = match data {
                TensorData::U8(v) => v,
                other => other
                    .to_f32_vec()
                    .iter()
                    .map(|&x| x.round().clamp(0.0, 255.0) as u8)
                    .collect(),
            };
            let res = match self.ctx.upload_quantized(&codes) {
                Ok(buf) => Residency::Device(buf),
                Err(_) => Residency::Host(codes.iter().map(|&c| c as f32).collect()),
            };
            return self.insert(res, dtype);
        }
        let vals = data.to_f32_vec();
        let res = match self.ctx.try_upload(vals) {
            Ok(buf) => Residency::Device(buf),
            // The device refused the upload (lost, OOM): keep the values
            // host-side rather than fail an infallible registration.
            Err((_, vals)) => Residency::Host(vals),
        };
        self.insert(res, dtype)
    }

    fn read_sync(&self, id: DataId) -> Result<TensorData> {
        let (buf, dtype) = {
            let store = self.store.lock();
            let e = store
                .get(&id)
                .ok_or_else(|| Error::backend(&self.name, format!("unknown data id {id:?}")))?;
            match &e.res {
                Residency::Device(h) => (h.clone(), e.dtype),
                Residency::Host(data) => return Ok(to_tensor_data(data.clone(), e.dtype)),
            }
        };
        let vals = self.ctx.read_sync(&buf).map_err(|e| map_gpu(&self.name, e))?;
        Ok(to_tensor_data(vals, dtype))
    }

    fn read(&self, id: DataId) -> DataFuture {
        let (buf, dtype) = {
            let store = self.store.lock();
            match store.get(&id) {
                Some(e) => match &e.res {
                    Residency::Device(h) => (h.clone(), e.dtype),
                    Residency::Host(data) => {
                        return DataFuture::ready(Ok(to_tensor_data(data.clone(), e.dtype)))
                    }
                },
                None => {
                    return DataFuture::ready(Err(Error::backend(
                        &self.name,
                        format!("unknown data id {id:?}"),
                    )))
                }
            }
        };
        // Transient faults surface synchronously and classified; only
        // device-side failures travel through the future as strings.
        let inner = match self.ctx.read_async_checked(&buf) {
            Ok(f) => f,
            Err(e) => return DataFuture::ready(Err(map_gpu(&self.name, e))),
        };
        let (future, promise) = DataFuture::pending();
        let backend_name = self.name.clone();
        // Bridge the substrate future onto the engine future; the waiting
        // thread parks until the device resolves (promise semantics).
        std::thread::spawn(move || {
            let result = inner
                .wait()
                .map(|vals| to_tensor_data(vals, dtype))
                .map_err(|e| Error::backend(&backend_name, e));
            promise.complete(result);
        });
        future
    }

    fn dispose_data(&self, id: DataId) {
        if let Some(entry) = self.store.lock().remove(&id) {
            if let Residency::Device(buf) = entry.res {
                self.ctx.dispose(&buf);
            }
        }
    }

    fn memory(&self) -> BackendMemory {
        let m = self.ctx.memory();
        let faults = self.ctx.fault_stats();
        let store = self.store.lock();
        let host_resident =
            store.values().filter(|e| matches!(e.res, Residency::Host(_))).count();
        BackendMemory {
            num_buffers: store.len(),
            num_bytes: m.bytes_in_gpu,
            details: vec![
                ("bytes_in_gpu".to_string(), m.bytes_in_gpu as f64),
                ("dispatches_run".to_string(), m.dispatches_run as f64),
                // Harness compatibility: the webgl backend reports draw
                // calls under this key; a dispatch is the compute analogue.
                ("programs_run".to_string(), m.dispatches_run as f64),
                ("recycler_hits".to_string(), m.recycler_hits as f64),
                ("recycler_misses".to_string(), m.recycler_misses as f64),
                ("host_resident_buffers".to_string(), host_resident as f64),
                ("host_shadow_buffers".to_string(), m.host_shadow_buffers as f64),
                ("context_losses".to_string(), faults.context_losses as f64),
                ("oom_failures".to_string(), faults.oom_failures as f64),
                ("compile_failures".to_string(), faults.compile_failures as f64),
                ("transient_read_failures".to_string(), faults.transient_read_failures as f64),
            ],
        }
    }

    fn epsilon(&self) -> f32 {
        self.ctx.epsilon()
    }

    fn float_precision(&self) -> u8 {
        // WebGPU-capable profiles are full-precision by construction (the
        // f16-only cohort predates the compute API; the simulator rejects
        // such profiles at context creation).
        32
    }

    fn begin_timing(&self) {
        self.ctx.begin_timing();
    }

    fn end_timing(&self) -> KernelTiming {
        KernelTiming { kernel_ms: self.ctx.end_timing() }
    }

    fn submit_fence(&self) -> Option<FenceToken> {
        Some(FenceToken(self.ctx.fence().raw()))
    }

    fn fence_passed(&self, token: FenceToken) -> bool {
        self.ctx.fence_passed(GpuFenceHandle::from_raw(token.0))
    }

    fn wait_fence(&self, token: FenceToken) {
        self.ctx.wait_fence(GpuFenceHandle::from_raw(token.0));
    }

    fn device_timer_ns(&self) -> Option<u64> {
        // Unlike EXT_disjoint_timer_query on WebGL (an optional extension),
        // timestamp queries are a core WebGPU feature: every profile that
        // has the compute API can time. Sampling serializes the queue.
        self.ctx.flush();
        Some(self.ctx.device_nanos())
    }

    fn unary(&self, op: UnaryOp, a: &KTensor<'_>) -> Result<DataId> {
        let ha = self.handle(a.data)?;
        self.dispatch_pl(pipelines::unary(op, a.shape.size()), &[&ha], op.out_dtype(a.dtype))
    }

    fn binary(
        &self,
        op: BinaryOp,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
        out_dtype: DType,
    ) -> Result<DataId> {
        let ha = self.handle(a.data)?;
        let hb = self.handle(b.data)?;
        let pl = pipelines::binary(op, a.shape.0.clone(), b.shape.0.clone(), out_shape.0.clone());
        self.dispatch_pl(pl, &[&ha, &hb], out_dtype)
    }

    fn cast(&self, a: &KTensor<'_>, dtype: DType) -> Result<DataId> {
        let ha = self.handle(a.data)?;
        self.dispatch_pl(pipelines::cast(a.shape.size(), dtype), &[&ha], dtype)
    }

    fn reduce(&self, op: ReduceOp, a: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        let ha = self.handle(a.data)?;
        let out_len: usize = a
            .shape
            .dims()
            .iter()
            .enumerate()
            .filter(|(i, _)| !axes.contains(i))
            .map(|(_, &d)| d)
            .product();
        let pl = pipelines::reduce(op, a.shape.0.clone(), axes.to_vec(), out_len);
        self.dispatch_pl(pl, &[&ha], op.out_dtype(a.dtype))
    }

    fn arg_reduce(&self, op: ArgReduceOp, a: &KTensor<'_>, axis: usize) -> Result<DataId> {
        let ha = self.handle(a.data)?;
        let out_len: usize = a
            .shape
            .dims()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != axis)
            .map(|(_, &d)| d)
            .product();
        let pl = pipelines::arg_reduce(op, a.shape.0.clone(), axis, out_len);
        self.dispatch_pl(pl, &[&ha], DType::I32)
    }

    fn matmul(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        transpose_a: bool,
        transpose_b: bool,
    ) -> Result<DataId> {
        let ha = self.handle(a.data)?;
        let hb = self.handle(b.data)?;
        let batch = a.shape.dim(0);
        let (m, kdim) = if transpose_a {
            (a.shape.dim(2), a.shape.dim(1))
        } else {
            (a.shape.dim(1), a.shape.dim(2))
        };
        let n = if transpose_b { b.shape.dim(1) } else { b.shape.dim(2) };
        let pl = pipelines::matmul(batch, m, kdim, n, transpose_a, transpose_b);
        self.dispatch_pl(pl, &[&ha, &hb], DType::F32)
    }

    fn conv2d(&self, x: &KTensor<'_>, filter: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        let hw = self.handle(filter.data)?;
        self.dispatch_pl(pipelines::conv2d(info.clone()), &[&hx, &hw], DType::F32)
    }

    fn conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let hdy = self.handle(dy.data)?;
        let hw = self.handle(filter.data)?;
        self.dispatch_pl(pipelines::conv2d_backprop_input(info.clone()), &[&hdy, &hw], DType::F32)
    }

    fn conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        let hdy = self.handle(dy.data)?;
        self.dispatch_pl(pipelines::conv2d_backprop_filter(info.clone()), &[&hx, &hdy], DType::F32)
    }

    fn depthwise_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        let hw = self.handle(filter.data)?;
        self.dispatch_pl(pipelines::depthwise_conv2d(info.clone()), &[&hx, &hw], DType::F32)
    }

    fn depthwise_conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let hdy = self.handle(dy.data)?;
        let hw = self.handle(filter.data)?;
        self.dispatch_pl(
            pipelines::depthwise_conv2d_backprop_input(info.clone()),
            &[&hdy, &hw],
            DType::F32,
        )
    }

    fn depthwise_conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        let hdy = self.handle(dy.data)?;
        self.dispatch_pl(
            pipelines::depthwise_conv2d_backprop_filter(info.clone()),
            &[&hx, &hdy],
            DType::F32,
        )
    }

    fn pool2d(&self, op: PoolOp, x: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        self.dispatch_pl(pipelines::pool2d(op, info.clone()), &[&hx], x.dtype)
    }

    fn pool2d_backprop(
        &self,
        op: PoolOp,
        dy: &KTensor<'_>,
        x: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let hdy = self.handle(dy.data)?;
        let hx = self.handle(x.data)?;
        self.dispatch_pl(pipelines::pool2d_backprop(op, info.clone()), &[&hdy, &hx], DType::F32)
    }

    fn slice(&self, x: &KTensor<'_>, begin: &[usize], size: &[usize]) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        let pl = pipelines::slice(x.shape.0.clone(), begin.to_vec(), size.to_vec());
        self.dispatch_pl(pl, &[&hx], x.dtype)
    }

    fn concat(&self, xs: &[KTensor<'_>], axis: usize) -> Result<DataId> {
        let handles: Vec<BufHandle> =
            xs.iter().map(|t| self.handle(t.data)).collect::<Result<_>>()?;
        let refs: Vec<&BufHandle> = handles.iter().collect();
        let out_len: usize = xs.iter().map(|t| t.shape.size()).sum();
        let dims: Vec<Vec<usize>> = xs.iter().map(|t| t.shape.0.clone()).collect();
        self.dispatch_pl(pipelines::concat(dims, axis, out_len), &refs, xs[0].dtype)
    }

    fn transpose(&self, x: &KTensor<'_>, perm: &[usize]) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        self.dispatch_pl(pipelines::transpose(x.shape.0.clone(), perm.to_vec()), &[&hx], x.dtype)
    }

    fn pad(&self, x: &KTensor<'_>, paddings: &[(usize, usize)], value: f32) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        let pl = pipelines::pad(x.shape.0.clone(), paddings.to_vec(), value);
        self.dispatch_pl(pl, &[&hx], x.dtype)
    }

    fn gather(&self, x: &KTensor<'_>, indices: &KTensor<'_>, axis: usize) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        let hi = self.handle(indices.data)?;
        let n_indices = indices.shape.size();
        let out_len = x.shape.size() / x.shape.dim(axis).max(1) * n_indices;
        let pl = pipelines::gather(x.shape.0.clone(), axis, out_len);
        self.dispatch_pl(pl, &[&hx, &hi], x.dtype)
    }

    fn tile(&self, x: &KTensor<'_>, reps: &[usize]) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        self.dispatch_pl(pipelines::tile(x.shape.0.clone(), reps.to_vec()), &[&hx], x.dtype)
    }

    fn reverse(&self, x: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        self.dispatch_pl(pipelines::reverse(x.shape.0.clone(), axes.to_vec()), &[&hx], x.dtype)
    }

    fn select(
        &self,
        cond: &KTensor<'_>,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
    ) -> Result<DataId> {
        let hc = self.handle(cond.data)?;
        let ha = self.handle(a.data)?;
        let hb = self.handle(b.data)?;
        let pl = pipelines::select(
            cond.shape.0.clone(),
            a.shape.0.clone(),
            b.shape.0.clone(),
            out_shape.0.clone(),
        );
        self.dispatch_pl(pl, &[&hc, &ha, &hb], a.dtype)
    }

    fn one_hot(&self, indices: &KTensor<'_>, depth: usize, on: f32, off: f32) -> Result<DataId> {
        let hi = self.handle(indices.data)?;
        let out_len = indices.shape.size() * depth;
        self.dispatch_pl(pipelines::one_hot(depth, on, off, out_len), &[&hi], DType::F32)
    }

    fn resize_bilinear(
        &self,
        x: &KTensor<'_>,
        new_h: usize,
        new_w: usize,
        align_corners: bool,
    ) -> Result<DataId> {
        let hx = self.handle(x.data)?;
        let pl = pipelines::resize_bilinear(x.shape.0.clone(), new_h, new_w, align_corners);
        self.dispatch_pl(pl, &[&hx], DType::F32)
    }

    // Fused kernels: one dispatch each, epilogue in-register. A quantized
    // weight operand selects the dequant-free pipeline, which reads the u8
    // codes in place. When the fused pipeline is rejected at creation time
    // (an injected fault or a driver quirk), fall back to the unfused
    // composition on this same backend instead of surfacing the error —
    // fusion must never make the degradation ladder worse than the unfused
    // path.

    fn fused_matmul(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        transpose_a: bool,
        transpose_b: bool,
    ) -> Result<DataId> {
        let batch = a.shape.dim(0);
        let (m, kdim) = if transpose_a {
            (a.shape.dim(2), a.shape.dim(1))
        } else {
            (a.shape.dim(1), a.shape.dim(2))
        };
        let n = if transpose_b { b.shape.dim(1) } else { b.shape.dim(2) };
        let (kernel, pl) = match b.quant {
            Some(params) => (
                "FusedMatMulQuant",
                pipelines::fused_matmul_quant(
                    batch,
                    m,
                    kdim,
                    n,
                    transpose_a,
                    transpose_b,
                    params,
                    bias.is_some(),
                    activation,
                ),
            ),
            None => (
                "FusedMatMul",
                pipelines::fused_matmul(
                    batch,
                    m,
                    kdim,
                    n,
                    transpose_a,
                    transpose_b,
                    bias.is_some(),
                    activation,
                ),
            ),
        };
        self.dispatch_fused(kernel, pl, [a, b], bias, || {
            fused_matmul_fallback(self, a, b, bias, activation, transpose_a, transpose_b)
        })
    }

    fn fused_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let (kernel, pl) = match filter.quant {
            Some(params) => (
                "FusedConv2DQuant",
                pipelines::fused_conv2d_quant(
                    info.clone(),
                    params,
                    bias.is_some(),
                    activation,
                ),
            ),
            None => {
                ("FusedConv2D", pipelines::fused_conv2d(info.clone(), bias.is_some(), activation))
            }
        };
        self.dispatch_fused(kernel, pl, [x, filter], bias, || {
            fused_conv2d_fallback(self, x, filter, bias, activation, info)
        })
    }

    fn fused_depthwise_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        bias: Option<&KTensor<'_>>,
        activation: Option<UnaryOp>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let (kernel, pl) = match filter.quant {
            Some(params) => (
                "FusedDepthwiseConv2DQuant",
                pipelines::fused_depthwise_conv2d_quant(
                    info.clone(),
                    params,
                    bias.is_some(),
                    activation,
                ),
            ),
            None => (
                "FusedDepthwiseConv2D",
                pipelines::fused_depthwise_conv2d(info.clone(), bias.is_some(), activation),
            ),
        };
        self.dispatch_fused(kernel, pl, [x, filter], bias, || {
            fused_depthwise_conv2d_fallback(self, x, filter, bias, activation, info)
        })
    }

    fn fused_elementwise(
        &self,
        x: &KTensor<'_>,
        extras: &[KTensor<'_>],
        steps: &[FusedStep],
        out_shape: &Shape,
    ) -> Result<DataId> {
        if steps.is_empty() {
            return Err(Error::invalid("FusedElementwise", "steps must be non-empty"));
        }
        // Precompute the chain's shape after each step (host-side; the op
        // layer already validated the chain so broadcasts succeed).
        let mut chain = x.shape.clone();
        let mut step_shapes = Vec::with_capacity(steps.len());
        for step in steps {
            if let FusedStep::Binary(_, i) = *step {
                let e = extras.get(i).ok_or_else(|| {
                    Error::invalid(
                        "FusedElementwise",
                        format!("binary step references extra {i} of {}", extras.len()),
                    )
                })?;
                chain = broadcast_shapes("FusedElementwise", &chain, e.shape)?;
            }
            step_shapes.push(chain.clone());
        }
        let hx = self.handle(x.data)?;
        let hextras: Vec<BufHandle> =
            extras.iter().map(|e| self.handle(e.data)).collect::<Result<_>>()?;
        let mut inputs: Vec<&BufHandle> = vec![&hx];
        inputs.extend(hextras.iter());
        let pl = pipelines::fused_elementwise(
            x.shape.0.clone(),
            extras.iter().map(|e| e.shape.0.clone()).collect(),
            steps.to_vec(),
            step_shapes,
            out_shape.size(),
        );
        match self.dispatch_pl(pl, &inputs, DType::F32) {
            Err(Error::KernelUnsupported { .. }) => {
                note_fused_fallback("FusedElementwise");
                fused_elementwise_fallback(self, x, extras, steps, out_shape)
            }
            r => r,
        }
    }
}

/// Record a fused-kernel pipeline rejection (telemetry instant + counter)
/// just before composing the unfused fallback. Rare by construction, so
/// the registry `OnceLock` resolution here is off any hot path.
fn note_fused_fallback(kernel: &'static str) {
    static FALLBACKS: std::sync::OnceLock<std::sync::Arc<webml_telemetry::Counter>> =
        std::sync::OnceLock::new();
    FALLBACKS.get_or_init(|| webml_telemetry::counter("webgpu.fused_fallbacks_total")).inc();
    webml_telemetry::instant(kernel, "fused-fallback");
}

/// Convenience: a webgpu backend on the integrated-GPU profile with default
/// config.
///
/// # Errors
/// Never in practice: the built-in profile has the compute API.
pub fn default_webgpu_backend() -> Result<WebGpuBackend> {
    WebGpuBackend::new(DeviceProfile::intel_iris_pro(), WebGpuConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webml_core::ops;
    use webml_core::Engine;

    fn engine() -> Engine {
        let e = Engine::new();
        let backend =
            WebGpuBackend::new(DeviceProfile::intel_iris_pro(), WebGpuConfig::default()).unwrap();
        e.register_backend("webgpu", Arc::new(backend), 3);
        e
    }

    fn cpu_engine() -> Engine {
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(webml_core::cpu::CpuBackend::new()), 1);
        e
    }

    #[test]
    fn matmul_on_webgpu() {
        let e = engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let b = e.tensor_2d(&[5.0, 6.0, 7.0, 8.0], 2, 2).unwrap();
        let c = ops::matmul(&a, &b, false, false).unwrap();
        assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn unsupported_profile_is_rejected() {
        for p in [DeviceProfile::ios_safari(), DeviceProfile::android_legacy()] {
            assert!(WebGpuBackend::new(p, WebGpuConfig::default()).is_err());
        }
    }

    #[test]
    fn tiled_matmul_is_bitwise_identical_to_cpu() {
        // Not "close": the tiled kernel accumulates in the reference order,
        // so every transpose combination must match the CPU backend exactly
        // on awkward (non-multiple-of-TILE) dims.
        let (m, kdim, n) = (37, 53, 29);
        let avals: Vec<f32> = (0..m * kdim).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        let bvals: Vec<f32> = (0..kdim * n).map(|i| ((i as f32) * 0.91).cos() * 2.0).collect();
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let run = |e: &Engine| -> Vec<f32> {
                let (ar, ac) = if ta { (kdim, m) } else { (m, kdim) };
                let (br, bc) = if tb { (n, kdim) } else { (kdim, n) };
                let a = e.tensor_2d(&avals[..ar * ac], ar, ac).unwrap();
                let b = e.tensor_2d(&bvals[..br * bc], br, bc).unwrap();
                ops::matmul(&a, &b, ta, tb).unwrap().to_f32_vec().unwrap()
            };
            assert_eq!(run(&engine()), run(&cpu_engine()), "ta={ta} tb={tb}");
        }
    }

    #[test]
    fn fused_matmul_is_bitwise_identical_to_cpu() {
        let (m, kdim, n) = (19, 41, 23);
        let avals: Vec<f32> = (0..m * kdim).map(|i| ((i as f32) * 0.13).sin()).collect();
        let bvals: Vec<f32> = (0..kdim * n).map(|i| ((i as f32) * 0.29).cos()).collect();
        let biasv: Vec<f32> = (0..n).map(|i| (i as f32) * 0.05 - 0.4).collect();
        let run = |e: &Engine| -> Vec<f32> {
            let a = e.tensor_2d(&avals, m, kdim).unwrap();
            let b = e.tensor_2d(&bvals, kdim, n).unwrap();
            let bias = e.tensor_1d(&biasv).unwrap();
            ops::fused_matmul(&a, &b, Some(&bias), Some(UnaryOp::Relu), false, false)
                .unwrap()
                .to_f32_vec()
                .unwrap()
        };
        assert_eq!(run(&engine()), run(&cpu_engine()));
    }

    #[test]
    fn conv_and_pool_are_bitwise_identical_to_cpu() {
        let vals: Vec<f32> = (0..8 * 8 * 3).map(|i| (i as f32 * 0.37).sin()).collect();
        let wvals: Vec<f32> = (0..3 * 3 * 3 * 4).map(|i| (i as f32 * 0.19).cos()).collect();
        let run = |e: &Engine| -> Vec<f32> {
            let x = e.tensor_4d(&vals, 1, 8, 8, 3).unwrap();
            let w = e.tensor_4d(&wvals, 3, 3, 3, 4).unwrap();
            let y =
                ops::conv2d(&x, &w, (2, 2), webml_core::conv_util::Padding::Same, (1, 1)).unwrap();
            let p =
                ops::max_pool(&y, (2, 2), (2, 2), webml_core::conv_util::Padding::Valid).unwrap();
            p.to_f32_vec().unwrap()
        };
        assert_eq!(run(&engine()), run(&cpu_engine()));
    }

    #[test]
    fn quantized_fused_ops_are_bitwise_identical_to_cpu() {
        let n_w = 3 * 3 * 3 * 4;
        let codes: Vec<u8> = (0..n_w).map(|i| ((i * 37) % 256) as u8).collect();
        let scales: Vec<f32> = (0..4).map(|c| 0.01 + c as f32 * 0.003).collect();
        let mins: Vec<f32> = (0..4).map(|c| -1.2 + c as f32 * 0.1).collect();
        let xvals: Vec<f32> = (0..8 * 8 * 3).map(|i| (i as f32 * 0.37).sin()).collect();
        let bvals = [0.05f32, -0.1, 0.2, 0.0];
        let run = |e: &Engine| -> Vec<f32> {
            let x = e.tensor_4d(&xvals, 1, 8, 8, 3).unwrap();
            let w = e
                .quantized_tensor(
                    codes.clone(),
                    vec![3, 3, 3, 4],
                    webml_core::quant::QuantParams::per_channel(3, scales.clone(), mins.clone()),
                )
                .unwrap();
            let bias = e.tensor_1d(&bvals).unwrap();
            let y = ops::fused_conv2d(
                &x,
                &w,
                Some(&bias),
                Some(UnaryOp::Relu),
                (2, 2),
                webml_core::conv_util::Padding::Same,
                (1, 1),
            )
            .unwrap();
            y.to_f32_vec().unwrap()
        };
        // Same factored-accumulation kernel runs on both backends:
        // bit-identical, not merely within 1e-3.
        assert_eq!(run(&engine()), run(&cpu_engine()));
    }

    #[test]
    fn async_data_resolves() {
        let e = engine();
        let a = e.tensor_1d(&[2.0, 3.0]).unwrap();
        let y = ops::square(&a).unwrap();
        let fut = y.data().unwrap();
        assert_eq!(fut.wait().unwrap().to_f32_vec(), vec![4.0, 9.0]);
    }

    #[test]
    fn ops_return_before_device_finishes() {
        let e = engine();
        let a = e.rand_uniform([128, 128], -1.0, 1.0, 1).unwrap();
        let t0 = std::time::Instant::now();
        let mut y = ops::matmul(&a, &a, false, false).unwrap();
        for _ in 0..5 {
            y = ops::matmul(&y, &a, false, false).unwrap();
        }
        let enqueue_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(enqueue_ms < 100.0, "enqueue took {enqueue_ms} ms");
        let vals = y.to_f32_vec().unwrap();
        assert_eq!(vals.len(), 128 * 128);
    }

    #[test]
    fn gradients_run_on_webgpu() {
        let e = engine();
        let x = e.tensor_1d(&[3.0]).unwrap();
        let g = e.grad(&x, || ops::sum(&ops::square(&x)?, None, false)).unwrap();
        assert_eq!(g.to_f32_vec().unwrap(), vec![6.0]);
    }

    #[test]
    fn quantized_weights_hold_one_byte_per_code_on_device() {
        let byte_count = |dtype: DType, data: TensorData| -> usize {
            let b = WebGpuBackend::new(DeviceProfile::intel_iris_pro(), WebGpuConfig::default())
                .unwrap();
            let id = b.register(data, dtype);
            b.read_sync(id).unwrap();
            b.context().memory().bytes_in_gpu
        };
        let q = byte_count(DType::U8, TensorData::U8(vec![7u8; 1024]));
        let f = byte_count(DType::F32, TensorData::F32(vec![7.0f32; 1024]));
        assert!(q * 3 <= f, "quantized residency {q} B should be ~4x below f32 {f} B");
    }

    #[test]
    fn quantized_codes_survive_round_trip() {
        let b =
            WebGpuBackend::new(DeviceProfile::intel_iris_pro(), WebGpuConfig::default()).unwrap();
        let codes: Vec<u8> = (0..=255).collect();
        let id = b.register(TensorData::U8(codes.clone()), DType::U8);
        match b.read_sync(id).unwrap() {
            TensorData::U8(v) => assert_eq!(v, codes),
            other => panic!("expected U8 readback, got {other:?}"),
        }
    }

    #[test]
    fn quantized_weights_rebuild_after_seeded_device_loss() {
        use webml_core::quant::QuantParams;
        use webml_core::Shape;
        let b = WebGpuBackend::with_faults(
            DeviceProfile::intel_iris_pro(),
            WebGpuConfig::default(),
            FaultPlan { seed: 42, ..FaultPlan::none() }.lose_context_at(2),
        )
        .unwrap();
        let a_shape = Shape::new(vec![1, 2, 2]);
        let w_shape = Shape::new(vec![1, 2, 2]);
        let a_id = b.register(TensorData::F32(vec![1.0, 2.0, 3.0, 4.0]), DType::F32);
        let w_id = b.register(TensorData::U8(vec![5, 6, 7, 8]), DType::U8);
        let params = QuantParams::per_tensor(1.0, 0.0);
        let a = KTensor::new(a_id, &a_shape, DType::F32);
        let w = KTensor { quant: Some(&params), ..KTensor::new(w_id, &w_shape, DType::U8) };
        let first = b.fused_matmul(&a, &w, None, None, false, false).unwrap();
        let expect = b.read_sync(first).unwrap().to_f32_vec();
        assert_eq!(expect, vec![19.0, 22.0, 43.0, 50.0]);
        // The second dispatch hits the injected device loss.
        assert!(
            b.fused_matmul(&a, &w, None, None, false, false).is_err(),
            "dispatch 2 must observe the lost device"
        );
        assert!(b.recover_device(), "device restores");
        let again = b.fused_matmul(&a, &w, None, None, false, false).unwrap();
        assert_eq!(b.read_sync(again).unwrap().to_f32_vec(), expect);
        match b.read_sync(w_id).unwrap() {
            TensorData::U8(v) => assert_eq!(v, vec![5, 6, 7, 8]),
            other => panic!("expected U8 codes after recovery, got {other:?}"),
        }
    }

    #[test]
    fn device_timer_is_available_on_profiles_without_disjoint_query() {
        // Timestamp queries are core in the compute API — even the Android
        // profile that lacks EXT_disjoint_timer_query on WebGL can time.
        let p = DeviceProfile::android_modern();
        assert!(!p.has_disjoint_timer_query && p.has_webgpu);
        let b = WebGpuBackend::new(p, WebGpuConfig::default()).unwrap();
        assert!(b.device_timer_ns().is_some());
    }
}
