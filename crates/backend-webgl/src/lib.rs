//! # webml-backend-webgl
//!
//! The WebGL backend (paper Sec 4.1): kernels are fragment-shader programs
//! executed over the [`webml_webgl_sim`] substrate through a
//! `GPGPUContext`. Ops enqueue programs on the device command queue and
//! return immediately; `read`/`read_sync` are the `data()`/`dataSync()`
//! readback paths of Figures 2 and 3. Texture recycling, CPU paging,
//! RGBA-texel packing, the layout squeeze optimization and per-device f16
//! precision all come from the substrate and are switchable through
//! [`WebGlConfig`] for the ablation benchmarks.

#![warn(missing_docs)]

pub mod programs;

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use webml_core::backend::{
    fused_conv2d_fallback, fused_depthwise_conv2d_fallback, fused_elementwise_fallback,
    fused_matmul_fallback, ArgReduceOp, Backend, BackendMemory, BinaryOp, DataFuture, DataId,
    FenceToken, FusedStep, KTensor, KernelTiming, PoolOp, ReduceOp, UnaryOp,
};
use webml_core::conv_util::Conv2dInfo;
use webml_core::dtype::{DType, TensorData};
use webml_core::error::{Error, Result};
use webml_core::shape::Shape;
use webml_webgl_sim::context::{ContextConfig, FenceHandle, GlError, GpgpuContext, TexHandle};
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::fault::FaultPlan;
use webml_webgl_sim::pager::PagingPolicy;
use webml_webgl_sim::shader::Program;

/// Re-exported configuration of the underlying GPGPU context.
pub type WebGlConfig = ContextConfig;

/// Where a data container's values currently live.
enum Residency {
    /// On the (simulated) device, behind a texture handle.
    Device(TexHandle),
    /// On the host only: the device refused the upload (context lost,
    /// allocation OOM). Reads are served directly; the next kernel use, or
    /// [`WebGlBackend::recover_context`], re-acquires a texture.
    Host(Vec<f32>),
}

struct Entry {
    res: Residency,
    dtype: DType,
}

/// Map a substrate error to the engine's classified error surface, so the
/// engine can tell transient faults (retry / degrade) from logic errors.
fn map_gl(name: &str, e: GlError) -> Error {
    match e {
        GlError::ContextLost => Error::context_lost(name),
        GlError::Oom { .. } | GlError::TransientReadback { .. } => {
            Error::resource_exhausted(name, e.to_string())
        }
        GlError::ShaderCompile { ref program } => Error::kernel_unsupported(name, program.clone()),
        other => Error::backend(name, other.to_string()),
    }
}

/// The WebGL backend over a simulated device.
pub struct WebGlBackend {
    name: String,
    ctx: GpgpuContext,
    store: Mutex<HashMap<DataId, Entry>>,
    next_id: AtomicU64,
}

impl WebGlBackend {
    /// Create a backend named `"webgl"` on the given device profile.
    ///
    /// # Errors
    /// Fails when the device lacks float-texture support — callers should
    /// fall back to a CPU backend, as TensorFlow.js does automatically.
    pub fn new(profile: DeviceProfile, config: WebGlConfig) -> Result<WebGlBackend> {
        Self::with_name("webgl", profile, config)
    }

    /// Create a backend with a custom registry name (used to register
    /// multiple device profiles side by side, e.g. `webgl-integrated` and
    /// `webgl-discrete` for Table 1).
    ///
    /// # Errors
    /// Same as [`WebGlBackend::new`].
    pub fn with_name(
        name: impl Into<String>,
        profile: DeviceProfile,
        config: WebGlConfig,
    ) -> Result<WebGlBackend> {
        Self::with_faults_named(name, profile, config, FaultPlan::none())
    }

    /// Create a backend named `"webgl"` whose context injects faults
    /// according to `plan` — the entry point of the fault suite.
    ///
    /// # Errors
    /// Same as [`WebGlBackend::new`].
    pub fn with_faults(
        profile: DeviceProfile,
        config: WebGlConfig,
        plan: FaultPlan,
    ) -> Result<WebGlBackend> {
        Self::with_faults_named("webgl", profile, config, plan)
    }

    /// [`WebGlBackend::with_faults`] with a custom registry name.
    ///
    /// # Errors
    /// Same as [`WebGlBackend::new`].
    pub fn with_faults_named(
        name: impl Into<String>,
        profile: DeviceProfile,
        config: WebGlConfig,
        plan: FaultPlan,
    ) -> Result<WebGlBackend> {
        let name = name.into();
        let ctx = GpgpuContext::with_faults(profile, config, plan)
            .map_err(|e| Error::backend(&name, e.to_string()))?;
        Ok(WebGlBackend { name, ctx, store: Mutex::new(HashMap::new()), next_id: AtomicU64::new(1) })
    }

    /// The underlying GPGPU context (for diagnostics and benchmarks).
    pub fn context(&self) -> &GpgpuContext {
        &self.ctx
    }

    /// Device-queue counters (busy time, fence waits, pipeline drains,
    /// pending commands). Does not flush.
    pub fn queue_stats(&self) -> webml_webgl_sim::QueueStats {
        self.ctx.queue_stats()
    }

    /// After a context loss: attempt restoration and re-acquire textures
    /// for host-resident entries. Returns whether the context is usable
    /// again. The substrate's program cache was cleared at loss time, so
    /// shaders recompile on next use; textures the device still shadows
    /// page back in lazily.
    pub fn recover_context(&self) -> bool {
        if !self.ctx.restore_context() {
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
                self.ctx.upload_quantized(&codes, &[codes.len()]).ok()
            } else {
                let n = data.len();
                self.ctx.try_upload(data, &[n]).ok()
            };
            if let Some(h) = uploaded {
                e.res = Residency::Device(h);
            }
        }
        true
    }

    /// Fetch the texture handle for `id`, re-acquiring a device texture
    /// for host-resident entries (the lazy half of context-loss recovery).
    fn handle(&self, id: DataId) -> Result<TexHandle> {
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
                    self.ctx
                        .upload_quantized(&codes, &[codes.len()])
                        .map_err(|g| map_gl(&self.name, g))?
                } else {
                    self.ctx
                        .try_upload(data.clone(), &[data.len()])
                        .map_err(|(g, _)| map_gl(&self.name, g))?
                };
                e.res = Residency::Device(h.clone());
                Ok(h)
            }
        }
    }

    /// Handle re-viewed under the kernel's logical shape. Tensors share
    /// data containers across free reshapes, so the stored layout may not
    /// match the shape the op sees; the accessor math must.
    fn view(&self, id: DataId, shape: &Shape) -> Result<TexHandle> {
        let h = self.handle(id)?;
        self.ctx.relayout(&h, shape.dims()).map_err(|e| map_gl(&self.name, e))
    }

    fn insert(&self, res: Residency, dtype: DType) -> DataId {
        let id = DataId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.store.lock().insert(id, Entry { res, dtype });
        id
    }

    fn run1(&self, program: Program, a: &TexHandle, dtype: DType) -> Result<DataId> {
        let out = self.ctx.run(program, &[a]).map_err(|e| map_gl(&self.name, e))?;
        Ok(self.insert(Residency::Device(out), dtype))
    }

    fn run_n(&self, program: Program, inputs: &[&TexHandle], dtype: DType) -> Result<DataId> {
        let out = self.ctx.run(program, inputs).map_err(|e| map_gl(&self.name, e))?;
        Ok(self.insert(Residency::Device(out), dtype))
    }

    /// Run a fused matmul/conv `program` over its two operands plus the
    /// optional bias. A rejected shader is noted under `kernel` and answered
    /// with `fallback`, composed on this same backend.
    fn run_fused(
        &self,
        kernel: &'static str,
        program: Program,
        operands: [&KTensor<'_>; 2],
        bias: Option<&KTensor<'_>>,
        fallback: impl FnOnce() -> Result<DataId>,
    ) -> Result<DataId> {
        let textures: Vec<TexHandle> = operands
            .into_iter()
            .chain(bias)
            .map(|t| self.view(t.data, t.shape))
            .collect::<Result<_>>()?;
        match self.run_n(program, &textures.iter().collect::<Vec<_>>(), DType::F32) {
            Err(Error::KernelUnsupported { .. }) => {
                note_fused_fallback(kernel);
                fallback()
            }
            r => r,
        }
    }

    fn packing(&self) -> bool {
        self.ctx.config().packing
    }
}

fn to_tensor_data(vals: Vec<f32>, dtype: DType) -> TensorData {
    TensorData::F32(vals).cast(dtype)
}

impl Backend for WebGlBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn register(&self, data: TensorData, dtype: DType) -> DataId {
        // U8 containers (quantized weight codes) land in 1-byte `R8`
        // textures — the whole point of quantization is that codes never
        // widen to f32 on the device. Sampling still yields the code as a
        // float, so every program addresses them like any other texture.
        if dtype == DType::U8 {
            let codes: Vec<u8> = match data {
                TensorData::U8(v) => v,
                other => other
                    .to_f32_vec()
                    .iter()
                    .map(|&x| x.round().clamp(0.0, 255.0) as u8)
                    .collect(),
            };
            let res = match self.ctx.upload_quantized(&codes, &[codes.len()]) {
                Ok(tex) => Residency::Device(tex),
                Err(_) => Residency::Host(codes.iter().map(|&c| c as f32).collect()),
            };
            return self.insert(res, dtype);
        }
        let vals = data.to_f32_vec();
        let n = vals.len();
        let res = match self.ctx.try_upload(vals, &[n]) {
            Ok(tex) => Residency::Device(tex),
            // The device refused the upload (context lost, OOM): keep the
            // values host-side rather than fail an infallible registration.
            // Reads serve the host copy; kernel use or `recover_context`
            // re-acquires a texture when the device allows it again.
            Err((_, vals)) => Residency::Host(vals),
        };
        self.insert(res, dtype)
    }

    fn read_sync(&self, id: DataId) -> Result<TensorData> {
        let (tex, dtype) = {
            let store = self.store.lock();
            let e = store
                .get(&id)
                .ok_or_else(|| Error::backend(&self.name, format!("unknown data id {id:?}")))?;
            match &e.res {
                Residency::Device(h) => (h.clone(), e.dtype),
                Residency::Host(data) => return Ok(to_tensor_data(data.clone(), e.dtype)),
            }
        };
        let vals = self.ctx.read_sync(&tex).map_err(|e| map_gl(&self.name, e))?;
        Ok(to_tensor_data(vals, dtype))
    }

    fn read(&self, id: DataId) -> DataFuture {
        let (tex, dtype) = {
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
        // Transient faults surface synchronously and classified, so the
        // engine's retry policy sees them; only device-side failures
        // (nonexistent texture) travel through the future as strings.
        let inner = match self.ctx.read_async_checked(&tex) {
            Ok(f) => f,
            Err(e) => return DataFuture::ready(Err(map_gl(&self.name, e))),
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
            if let Residency::Device(tex) = entry.res {
                self.ctx.dispose(&tex);
            }
        }
    }

    fn memory(&self) -> BackendMemory {
        let m = self.ctx.memory();
        let faults = self.ctx.fault_stats();
        let store = self.store.lock();
        let host_resident = store
            .values()
            .filter(|e| matches!(e.res, Residency::Host(_)))
            .count();
        BackendMemory {
            num_buffers: store.len(),
            num_bytes: m.bytes_in_gpu + m.pager.bytes_paged,
            details: vec![
                ("bytes_in_gpu".to_string(), m.bytes_in_gpu as f64),
                ("bytes_paged".to_string(), m.pager.bytes_paged as f64),
                ("page_outs".to_string(), m.pager.page_outs as f64),
                ("page_ins".to_string(), m.pager.page_ins as f64),
                ("recycler_hits".to_string(), m.recycler.hits as f64),
                ("recycler_misses".to_string(), m.recycler.misses as f64),
                ("programs_run".to_string(), m.programs_run as f64),
                ("host_resident_buffers".to_string(), host_resident as f64),
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
        if self.ctx.profile().half_precision_only {
            16
        } else {
            32
        }
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
        self.ctx.fence_passed(FenceHandle::from_raw(token.0))
    }

    fn wait_fence(&self, token: FenceToken) {
        self.ctx.wait_fence(FenceHandle::from_raw(token.0));
    }

    fn device_timer_ns(&self) -> Option<u64> {
        if !self.ctx.profile().has_disjoint_timer_query {
            return None;
        }
        // Like real EXT_disjoint_timer_query reads, sampling the counter
        // serializes the pipeline: flush so it covers enqueued programs.
        self.ctx.flush();
        Some(self.ctx.device_nanos())
    }

    fn unary(&self, op: UnaryOp, a: &KTensor<'_>) -> Result<DataId> {
        let tex = self.view(a.data, a.shape)?;
        let program = programs::unary(op, a.shape.0.clone(), self.packing());
        self.run1(program, &tex, op.out_dtype(a.dtype))
    }

    fn binary(
        &self,
        op: BinaryOp,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
        out_dtype: DType,
    ) -> Result<DataId> {
        let ta = self.view(a.data, a.shape)?;
        let tb = self.view(b.data, b.shape)?;
        let program =
            programs::binary(op, a.shape.0.clone(), b.shape.0.clone(), out_shape.0.clone(), self.packing());
        self.run_n(program, &[&ta, &tb], out_dtype)
    }

    fn cast(&self, a: &KTensor<'_>, dtype: DType) -> Result<DataId> {
        let tex = self.view(a.data, a.shape)?;
        let program = programs::cast(a.shape.0.clone(), dtype);
        self.run1(program, &tex, dtype)
    }

    fn reduce(&self, op: ReduceOp, a: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        let tex = self.view(a.data, a.shape)?;
        let out_dims: Vec<usize> = a
            .shape
            .dims()
            .iter()
            .enumerate()
            .filter(|(i, _)| !axes.contains(i))
            .map(|(_, &d)| d)
            .collect();
        let program = programs::reduce(op, a.shape.0.clone(), axes.to_vec(), out_dims);
        self.run1(program, &tex, op.out_dtype(a.dtype))
    }

    fn arg_reduce(&self, op: ArgReduceOp, a: &KTensor<'_>, axis: usize) -> Result<DataId> {
        let tex = self.view(a.data, a.shape)?;
        let out_dims: Vec<usize> = a
            .shape
            .dims()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != axis)
            .map(|(_, &d)| d)
            .collect();
        let program = programs::arg_reduce(op, a.shape.0.clone(), axis, out_dims);
        self.run1(program, &tex, DType::I32)
    }

    fn matmul(
        &self,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        transpose_a: bool,
        transpose_b: bool,
    ) -> Result<DataId> {
        let ta = self.view(a.data, a.shape)?;
        let tb = self.view(b.data, b.shape)?;
        let batch = a.shape.dim(0);
        let (m, k) = if transpose_a {
            (a.shape.dim(2), a.shape.dim(1))
        } else {
            (a.shape.dim(1), a.shape.dim(2))
        };
        let n = if transpose_b { b.shape.dim(1) } else { b.shape.dim(2) };
        let program = programs::matmul(batch, m, k, n, transpose_a, transpose_b, self.packing());
        self.run_n(program, &[&ta, &tb], DType::F32)
    }

    fn conv2d(&self, x: &KTensor<'_>, filter: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        let tw = self.view(filter.data, filter.shape)?;
        self.run_n(programs::conv2d(info.clone(), self.packing()), &[&tx, &tw], DType::F32)
    }

    fn conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let tdy = self.view(dy.data, dy.shape)?;
        let tw = self.view(filter.data, filter.shape)?;
        self.run_n(programs::conv2d_backprop_input(info.clone()), &[&tdy, &tw], DType::F32)
    }

    fn conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        let tdy = self.view(dy.data, dy.shape)?;
        self.run_n(programs::conv2d_backprop_filter(info.clone()), &[&tx, &tdy], DType::F32)
    }

    fn depthwise_conv2d(
        &self,
        x: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        let tw = self.view(filter.data, filter.shape)?;
        let program = programs::depthwise_conv2d(info.clone(), self.packing());
        self.run_n(program, &[&tx, &tw], DType::F32)
    }

    fn depthwise_conv2d_backprop_input(
        &self,
        dy: &KTensor<'_>,
        filter: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let tdy = self.view(dy.data, dy.shape)?;
        let tw = self.view(filter.data, filter.shape)?;
        self.run_n(programs::depthwise_conv2d_backprop_input(info.clone()), &[&tdy, &tw], DType::F32)
    }

    fn depthwise_conv2d_backprop_filter(
        &self,
        x: &KTensor<'_>,
        dy: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        let tdy = self.view(dy.data, dy.shape)?;
        self.run_n(programs::depthwise_conv2d_backprop_filter(info.clone()), &[&tx, &tdy], DType::F32)
    }

    fn pool2d(&self, op: PoolOp, x: &KTensor<'_>, info: &Conv2dInfo) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        self.run1(programs::pool2d(op, info.clone()), &tx, x.dtype)
    }

    fn pool2d_backprop(
        &self,
        op: PoolOp,
        dy: &KTensor<'_>,
        x: &KTensor<'_>,
        info: &Conv2dInfo,
    ) -> Result<DataId> {
        let tdy = self.view(dy.data, dy.shape)?;
        let tx = self.view(x.data, x.shape)?;
        self.run_n(programs::pool2d_backprop(op, info.clone()), &[&tdy, &tx], DType::F32)
    }

    fn slice(&self, x: &KTensor<'_>, begin: &[usize], size: &[usize]) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        self.run1(programs::slice(x.shape.rank(), begin.to_vec(), size.to_vec()), &tx, x.dtype)
    }

    fn concat(&self, xs: &[KTensor<'_>], axis: usize) -> Result<DataId> {
        let handles: Vec<TexHandle> = xs.iter().map(|t| self.view(t.data, t.shape)).collect::<Result<_>>()?;
        let refs: Vec<&TexHandle> = handles.iter().collect();
        let sizes: Vec<usize> = xs.iter().map(|t| t.shape.dim(axis)).collect();
        let mut out_dims = xs[0].shape.0.clone();
        out_dims[axis] = sizes.iter().sum();
        self.run_n(programs::concat(sizes, axis, out_dims), &refs, xs[0].dtype)
    }

    fn transpose(&self, x: &KTensor<'_>, perm: &[usize]) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        let out_dims: Vec<usize> = perm.iter().map(|&p| x.shape.dim(p)).collect();
        self.run1(programs::transpose(perm.to_vec(), out_dims), &tx, x.dtype)
    }

    fn pad(&self, x: &KTensor<'_>, paddings: &[(usize, usize)], value: f32) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        let out_dims: Vec<usize> =
            x.shape.dims().iter().zip(paddings).map(|(&d, &(b, a))| d + b + a).collect();
        self.run1(programs::pad(x.shape.0.clone(), paddings.to_vec(), value, out_dims), &tx, x.dtype)
    }

    fn gather(&self, x: &KTensor<'_>, indices: &KTensor<'_>, axis: usize) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        let ti = self.view(indices.data, indices.shape)?;
        let n_indices = indices.shape.size();
        let mut out_dims = x.shape.0.clone();
        out_dims[axis] = n_indices;
        self.run_n(
            programs::gather(x.shape.0.clone(), axis, n_indices, out_dims),
            &[&tx, &ti],
            x.dtype,
        )
    }

    fn tile(&self, x: &KTensor<'_>, reps: &[usize]) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        let out_dims: Vec<usize> =
            x.shape.dims().iter().zip(reps).map(|(&d, &r)| d * r).collect();
        self.run1(programs::tile(x.shape.0.clone(), out_dims), &tx, x.dtype)
    }

    fn reverse(&self, x: &KTensor<'_>, axes: &[usize]) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        self.run1(programs::reverse(x.shape.0.clone(), axes.to_vec(), x.shape.0.clone()), &tx, x.dtype)
    }

    fn select(
        &self,
        cond: &KTensor<'_>,
        a: &KTensor<'_>,
        b: &KTensor<'_>,
        out_shape: &Shape,
    ) -> Result<DataId> {
        let tc = self.view(cond.data, cond.shape)?;
        let ta = self.view(a.data, a.shape)?;
        let tb = self.view(b.data, b.shape)?;
        self.run_n(
            programs::select(cond.shape.0.clone(), a.shape.0.clone(), b.shape.0.clone(), out_shape.0.clone()),
            &[&tc, &ta, &tb],
            a.dtype,
        )
    }

    fn one_hot(&self, indices: &KTensor<'_>, depth: usize, on: f32, off: f32) -> Result<DataId> {
        let ti = self.view(indices.data, indices.shape)?;
        let mut out_dims = indices.shape.0.clone();
        out_dims.push(depth);
        self.run1(programs::one_hot(depth, on, off, out_dims), &ti, DType::F32)
    }

    fn resize_bilinear(
        &self,
        x: &KTensor<'_>,
        new_h: usize,
        new_w: usize,
        align_corners: bool,
    ) -> Result<DataId> {
        let tx = self.view(x.data, x.shape)?;
        self.run1(
            programs::resize_bilinear(x.shape.0.clone(), new_h, new_w, align_corners),
            &tx,
            DType::F32,
        )
    }

    // Fused kernels: one draw call each, epilogue applied in-register. A
    // quantized weight operand selects the dequant-free program, which reads
    // the R8 codes in place. When the fused shader is rejected at compile
    // time (an injected fault or a driver quirk), fall back to the unfused
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
        let (m, k) = if transpose_a {
            (a.shape.dim(2), a.shape.dim(1))
        } else {
            (a.shape.dim(1), a.shape.dim(2))
        };
        let n = if transpose_b { b.shape.dim(1) } else { b.shape.dim(2) };
        let (kernel, program) = match b.quant {
            Some(params) => (
                "FusedMatMulQuant",
                programs::fused_matmul_quant(
                    batch,
                    m,
                    k,
                    n,
                    b.shape.dim(0),
                    transpose_a,
                    transpose_b,
                    params.clone(),
                    bias.is_some(),
                    activation,
                ),
            ),
            None => (
                "FusedMatMul",
                programs::fused_matmul(
                    batch,
                    m,
                    k,
                    n,
                    transpose_a,
                    transpose_b,
                    self.packing(),
                    bias.is_some(),
                    activation,
                ),
            ),
        };
        self.run_fused(kernel, program, [a, b], bias, || {
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
        let (kernel, program) = match filter.quant {
            Some(params) => (
                "FusedConv2DQuant",
                programs::fused_conv2d_quant(
                    info.clone(),
                    params.clone(),
                    bias.is_some(),
                    activation,
                ),
            ),
            None => (
                "FusedConv2D",
                programs::fused_conv2d(info.clone(), self.packing(), bias.is_some(), activation),
            ),
        };
        self.run_fused(kernel, program, [x, filter], bias, || {
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
        let (kernel, program) = match filter.quant {
            Some(params) => (
                "FusedDepthwiseConv2DQuant",
                programs::fused_depthwise_conv2d_quant(
                    info.clone(),
                    params.clone(),
                    bias.is_some(),
                    activation,
                ),
            ),
            None => (
                "FusedDepthwiseConv2D",
                programs::fused_depthwise_conv2d(
                    info.clone(),
                    self.packing(),
                    bias.is_some(),
                    activation,
                ),
            ),
        };
        self.run_fused(kernel, program, [x, filter], bias, || {
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
        let tx = self.view(x.data, x.shape)?;
        let textras: Vec<TexHandle> =
            extras.iter().map(|e| self.view(e.data, e.shape)).collect::<Result<_>>()?;
        let mut inputs: Vec<&TexHandle> = vec![&tx];
        inputs.extend(textras.iter());
        let mut in_dims = vec![x.shape.0.clone()];
        in_dims.extend(extras.iter().map(|e| e.shape.0.clone()));
        let program = programs::fused_elementwise(in_dims, steps.to_vec(), out_shape.0.clone());
        match self.run_n(program, &inputs, DType::F32) {
            Err(Error::KernelUnsupported { .. }) => {
                note_fused_fallback("FusedElementwise");
                fused_elementwise_fallback(self, x, extras, steps, out_shape)
            }
            r => r,
        }
    }
}

/// Record a fused-kernel shader rejection (telemetry instant + counter)
/// just before composing the unfused fallback. Rare by construction, so
/// the registry `OnceLock` resolution here is off any hot path.
fn note_fused_fallback(kernel: &'static str) {
    static FALLBACKS: std::sync::OnceLock<std::sync::Arc<webml_telemetry::Counter>> =
        std::sync::OnceLock::new();
    FALLBACKS.get_or_init(|| webml_telemetry::counter("webgl.fused_fallbacks_total")).inc();
    webml_telemetry::instant(kernel, "fused-fallback");
}

/// Convenience: a webgl backend on the integrated-GPU profile with default
/// config and paging estimated from a 1080p screen.
///
/// # Errors
/// Never in practice: the built-in profile supports float textures.
pub fn default_webgl_backend() -> Result<WebGlBackend> {
    let config = WebGlConfig { paging: PagingPolicy::from_screen(1920, 1080), ..Default::default() };
    WebGlBackend::new(DeviceProfile::intel_iris_pro(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webml_core::ops;
    use webml_core::Engine;

    fn engine() -> Engine {
        let e = Engine::new();
        let backend = WebGlBackend::new(DeviceProfile::intel_iris_pro(), WebGlConfig::default()).unwrap();
        e.register_backend("webgl", Arc::new(backend), 2);
        e
    }

    #[test]
    fn matmul_on_webgl() {
        let e = engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let b = e.tensor_2d(&[5.0, 6.0, 7.0, 8.0], 2, 2).unwrap();
        let c = ops::matmul(&a, &b, false, false).unwrap();
        assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
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
        // Six chained 128x128 matmuls enqueue quickly; the Listing-2 style
        // per-output dot products take much longer to actually run.
        assert!(enqueue_ms < 100.0, "enqueue took {enqueue_ms} ms");
        let vals = y.to_f32_vec().unwrap();
        assert_eq!(vals.len(), 128 * 128);
    }

    #[test]
    fn gradients_run_on_webgl() {
        let e = engine();
        let x = e.tensor_1d(&[3.0]).unwrap();
        let g = e.grad(&x, || ops::sum(&ops::square(&x)?, None, false)).unwrap();
        assert_eq!(g.to_f32_vec().unwrap(), vec![6.0]);
    }

    #[test]
    fn f16_device_underflows_small_epsilon() {
        let e = Engine::new();
        let backend =
            WebGlBackend::new(DeviceProfile::ios_safari(), WebGlConfig::default()).unwrap();
        e.register_backend("webgl", Arc::new(backend), 2);
        // The paper's bug: log(x + eps) with the f32 default eps = 1e-8
        // becomes log(x + 0) on a 16-bit device because 1e-8 rounds to 0...
        let x = e.tensor_1d(&[0.0]).unwrap();
        let tiny = e.scalar(1e-8).unwrap();
        let y = ops::log(&ops::add(&x, &tiny).unwrap()).unwrap();
        assert!(y.to_f32_vec().unwrap()[0].is_infinite(), "log(0 + 1e-8) must collapse to log(0)");
        // ...and the per-device adjusted epsilon (1e-4) survives.
        assert_eq!(e.epsilon(), 1e-4);
        let eps = e.scalar(e.epsilon()).unwrap();
        let z = ops::log(&ops::add(&x, &eps).unwrap()).unwrap();
        assert!(z.to_f32_vec().unwrap()[0].is_finite());
    }

    #[test]
    fn quantized_matmul_on_webgl() {
        let e = engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let w = e
            .quantized_tensor(
                vec![5, 6, 7, 8],
                vec![2, 2],
                webml_core::quant::QuantParams::per_tensor(1.0, 0.0),
            )
            .unwrap();
        let c = ops::fused_matmul(&a, &w, None, None, false, false).unwrap();
        assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
        // The unfused op multiplies by the dequantized values too, through
        // the same dequant-free program.
        let (c, profile) = e.profile(|| ops::matmul(&a, &w, false, false).unwrap());
        assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
        assert_eq!(profile.kernels[0].name, "FusedMatMulQuant");
    }

    #[test]
    fn quantized_fused_ops_match_cpu_reference() {
        let cpu = Engine::new();
        cpu.register_backend("cpu", Arc::new(webml_core::cpu::CpuBackend::new()), 1);
        let gl = engine();
        let n_w = 3 * 3 * 3 * 4;
        let codes: Vec<u8> = (0..n_w).map(|i| ((i * 37) % 256) as u8).collect();
        let scales: Vec<f32> = (0..4).map(|c| 0.01 + c as f32 * 0.003).collect();
        let mins: Vec<f32> = (0..4).map(|c| -1.2 + c as f32 * 0.1).collect();
        let xvals: Vec<f32> = (0..8 * 8 * 3).map(|i| (i as f32 * 0.37).sin()).collect();
        let bvals = [0.05f32, -0.1, 0.2, 0.0];
        let same = webml_core::conv_util::Padding::Same;
        // Fused conv, then the unfused ops on quantized weights: conv2d on
        // the same filter, and matmul on a column-quantized rank-2 weight
        // (stays on the factored program across the `[1, k, n]` alias) and
        // on a row-quantized one (the op layer dequantizes it once).
        let run = |e: &Engine| -> Vec<Vec<f32>> {
            let x = e.tensor_4d(&xvals, 1, 8, 8, 3).unwrap();
            let w = e
                .quantized_tensor(
                    codes.clone(),
                    vec![3, 3, 3, 4],
                    webml_core::quant::QuantParams::per_channel(3, scales.clone(), mins.clone()),
                )
                .unwrap();
            let bias = e.tensor_1d(&bvals).unwrap();
            let fused =
                ops::fused_conv2d(&x, &w, Some(&bias), Some(UnaryOp::Relu), (2, 2), same, (1, 1))
                    .unwrap();
            let unfused = ops::conv2d(&x, &w, (2, 2), same, (1, 1)).unwrap();
            let a = e.tensor_2d(&xvals[..6 * 4], 6, 4).unwrap();
            let mut outs = vec![fused.to_f32_vec().unwrap(), unfused.to_f32_vec().unwrap()];
            for (axis, kernel) in [(1, "FusedMatMulQuant"), (0, "FusedMatMul")] {
                let params =
                    webml_core::quant::QuantParams::per_channel(axis, scales.clone(), mins.clone());
                let wm = e.quantized_tensor(codes[..16].to_vec(), vec![4, 4], params).unwrap();
                let (y, profile) = e.profile(|| ops::matmul(&a, &wm, false, false).unwrap());
                assert!(profile.kernels.iter().any(|k| k.name == kernel), "axis {axis}: {kernel}");
                outs.push(y.to_f32_vec().unwrap());
            }
            outs
        };
        let want = run(&cpu);
        let got = run(&gl);
        for (g, w) in got[0].iter().zip(&want[0]) {
            assert!((g - w).abs() < 1e-3, "webgl {g} vs cpu {w}");
        }
        assert_eq!(got[1..], want[1..], "unfused ops on quantized weights: bitwise vs cpu");
    }

    #[test]
    fn quantized_depthwise_matches_cpu_reference() {
        let cpu = Engine::new();
        cpu.register_backend("cpu", Arc::new(webml_core::cpu::CpuBackend::new()), 1);
        let gl = engine();
        let codes: Vec<u8> = (0..3 * 3 * 3 * 2).map(|i| ((i * 91) % 256) as u8).collect();
        let xvals: Vec<f32> = (0..6 * 6 * 3).map(|i| (i as f32 * 0.23).cos()).collect();
        let run = |e: &Engine| -> (Vec<f32>, Vec<f32>) {
            let x = e.tensor_4d(&xvals, 1, 6, 6, 3).unwrap();
            let w = e
                .quantized_tensor(
                    codes.clone(),
                    vec![3, 3, 3, 2],
                    webml_core::quant::QuantParams::per_channel(
                        2,
                        vec![0.02, 0.015, 0.03],
                        vec![-2.0, -1.5, -2.5],
                    ),
                )
                .unwrap();
            let same = webml_core::conv_util::Padding::Same;
            let relu = Some(UnaryOp::Relu);
            let y = ops::fused_depthwise_conv2d(&x, &w, None, relu, (1, 1), same, (1, 1)).unwrap();
            let unfused = ops::depthwise_conv2d(&x, &w, (1, 1), same, (1, 1)).unwrap();
            (y.to_f32_vec().unwrap(), unfused.to_f32_vec().unwrap())
        };
        let want = run(&cpu);
        let got = run(&gl);
        assert_eq!(want.0.len(), got.0.len());
        for (g, w) in got.0.iter().zip(&want.0) {
            assert!((g - w).abs() < 1e-3, "webgl {g} vs cpu {w}");
        }
        assert_eq!(got.1, want.1, "unfused depthwise on a quantized filter: bitwise vs cpu");
    }

    #[test]
    fn quantized_weights_hold_one_byte_per_code_on_device() {
        let byte_count = |dtype: DType, data: TensorData| -> usize {
            let b =
                WebGlBackend::new(DeviceProfile::intel_iris_pro(), WebGlConfig::default()).unwrap();
            let id = b.register(data, dtype);
            b.read_sync(id).unwrap(); // flush the upload through the queue
            b.context().memory().bytes_in_gpu
        };
        let q = byte_count(DType::U8, TensorData::U8(vec![7u8; 1024]));
        let f = byte_count(DType::F32, TensorData::F32(vec![7.0f32; 1024]));
        assert!(q * 3 <= f, "quantized residency {q} B should be ~4x below f32 {f} B");
    }

    #[test]
    fn quantized_codes_survive_round_trip() {
        let b = WebGlBackend::new(DeviceProfile::intel_iris_pro(), WebGlConfig::default()).unwrap();
        let codes: Vec<u8> = (0..=255).collect();
        let id = b.register(TensorData::U8(codes.clone()), DType::U8);
        match b.read_sync(id).unwrap() {
            TensorData::U8(v) => assert_eq!(v, codes),
            other => panic!("expected U8 readback, got {other:?}"),
        }
    }

    #[test]
    fn quantized_weights_rebuild_after_seeded_context_loss() {
        use webml_core::quant::QuantParams;
        use webml_core::Shape;
        let b = WebGlBackend::with_faults(
            DeviceProfile::intel_iris_pro(),
            WebGlConfig::default(),
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
        // The second draw hits the injected context loss.
        assert!(
            b.fused_matmul(&a, &w, None, None, false, false).is_err(),
            "draw 2 must observe the lost context"
        );
        assert!(b.recover_context(), "context restores");
        // The weight pages back into an R8 texture from its shadow: the
        // rebuilt kernel result and the raw codes are both intact.
        let again = b.fused_matmul(&a, &w, None, None, false, false).unwrap();
        assert_eq!(b.read_sync(again).unwrap().to_f32_vec(), expect);
        match b.read_sync(w_id).unwrap() {
            TensorData::U8(v) => assert_eq!(v, vec![5, 6, 7, 8]),
            other => panic!("expected U8 codes after recovery, got {other:?}"),
        }
    }

    #[test]
    fn conv_and_pool_match_cpu_reference() {
        let cpu = Engine::new();
        cpu.register_backend("cpu", Arc::new(webml_core::cpu::CpuBackend::new()), 1);
        let gl = engine();
        let vals: Vec<f32> = (0..8 * 8 * 3).map(|i| (i as f32 * 0.37).sin()).collect();
        let wvals: Vec<f32> = (0..3 * 3 * 3 * 4).map(|i| (i as f32 * 0.19).cos()).collect();
        let run = |e: &Engine| -> Vec<f32> {
            let x = e.tensor_4d(&vals, 1, 8, 8, 3).unwrap();
            let w = e.tensor_4d(&wvals, 3, 3, 3, 4).unwrap();
            let y = ops::conv2d(&x, &w, (2, 2), webml_core::conv_util::Padding::Same, (1, 1)).unwrap();
            let p = ops::max_pool(&y, (2, 2), (2, 2), webml_core::conv_util::Padding::Valid).unwrap();
            p.to_f32_vec().unwrap()
        };
        let want = run(&cpu);
        let got = run(&gl);
        assert_eq!(want.len(), got.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4);
        }
    }

    /// The packed depthwise program is a pure optimisation of the
    /// per-element body: same bits, fused and unfused, on the f32 and the
    /// half-precision profile, whether texels sit inside one pixel's
    /// channels (8), straddle pixels (3, 6) or the multiplier rules the
    /// packed body out (channel_mul 2).
    #[test]
    fn packed_depthwise_equals_its_per_element_body() {
        use webml_core::conv_util::Padding;
        let run = |profile: DeviceProfile, packing: bool, channels: usize, mul: usize| {
            let e = Engine::new();
            let config = WebGlConfig { packing, ..Default::default() };
            e.register_backend("webgl", Arc::new(WebGlBackend::new(profile, config).unwrap()), 2);
            let mut outs = Vec::new();
            for (pad, stride, dilation) in
                [(Padding::Same, 1, 1), (Padding::Valid, 2, 1), (Padding::Same, 1, 2)]
            {
                let x = e.rand_uniform([2, 7, 6, channels], -2.0, 2.0, 3).unwrap();
                let w = e.rand_uniform([3, 3, channels, mul], -1.0, 1.0, 5).unwrap();
                let bias = e.rand_uniform([channels * mul], -1.0, 1.0, 7).unwrap();
                let (s, d) = ((stride, stride), (dilation, dilation));
                let relu6 = Some(UnaryOp::Relu6);
                let y =
                    ops::fused_depthwise_conv2d(&x, &w, Some(&bias), relu6, s, pad, d).unwrap();
                outs.push(y.to_f32_vec().unwrap());
                outs.push(ops::depthwise_conv2d(&x, &w, s, pad, d).unwrap().to_f32_vec().unwrap());
            }
            outs
        };
        // Which body runs, under the names the fault plan blocks by prefix.
        let program = |packing: bool, mul: usize| {
            let shapes = (Shape::new(vec![1, 5, 5, 4]), Shape::new(vec![3, 3, 4, mul]));
            let info = webml_core::conv_util::depthwise_conv2d_info(
                "t", &shapes.0, &shapes.1, (1, 1), Padding::Same, (1, 1),
            )
            .unwrap();
            let unfused = programs::depthwise_conv2d(info.clone(), packing);
            let fused = programs::fused_depthwise_conv2d(info, packing, true, None);
            assert_eq!(unfused.is_packed(), fused.is_packed());
            (unfused.name, fused.name)
        };
        assert_eq!(program(true, 1), ("DepthwiseConv2DPacked", "FusedDepthwiseConv2DPacked"));
        assert_eq!(program(true, 2), ("DepthwiseConv2D", "FusedDepthwiseConv2D"));
        assert_eq!(program(false, 1), ("DepthwiseConv2D", "FusedDepthwiseConv2D"));
        for profile in [DeviceProfile::intel_iris_pro, DeviceProfile::ios_safari] {
            for (channels, mul) in [(8, 1), (3, 1), (6, 1), (3, 2)] {
                let (packed, unpacked) =
                    (run(profile(), true, channels, mul), run(profile(), false, channels, mul));
                for (p, u) in packed.iter().zip(&unpacked) {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(p), bits(u), "channels={channels} mul={mul}");
                }
            }
        }
    }
}
