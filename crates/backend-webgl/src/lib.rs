//! # webml-backend-webgl
//!
//! The GPU backend — every GPU backend. [`GpuBackend`] owns what a browser
//! GPU backend needs whatever its API: where each data container lives
//! (device or host), registration, lazy re-upload and recovery after a
//! context loss, the `data()`/`dataSync()` readback paths of Figures 2
//! and 3, fences, timing, the byte ledger, the "rejected fused kernel →
//! unfused composition" tail, and [`Backend::run`]. The rung is a value:
//! the [`Capabilities`] descriptor of the [`webml_webgl_sim`] device core
//! that the backend's [`ContextConfig::caps`] names — WebGL (paper Sec 4.1)
//! by default, the WebGPU-class compute API of Sec 4.3 with
//! [`webml_webgl_sim::WEBGPU`].
//!
//! One match, [`programs::kernel`], builds the program for a [`KernelCall`]
//! on either rung: the products are one run body per family, wrapped as a
//! fragment program over textures or a compute body over storage buffers;
//! on textures `Unary` and `Binary` are fragment programs too; every other
//! call is the [`oracle`] adapter. Ops enqueue programs on the device
//! command queue and return immediately. Texture recycling, CPU paging,
//! RGBA-texel packing, the layout squeeze optimization and per-device f16
//! precision all come from the substrate and are switchable through
//! [`WebGlConfig`] for the ablation benchmarks.

#![warn(missing_docs)]

pub mod oracle;
pub mod programs;

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use webml_core::backend::{
    Backend, BackendMemory, DataFuture, DataId, FenceToken, KTensor, KernelCall,
};
use webml_core::dtype::{DType, TensorData};
use webml_core::error::{Error, Result};
use webml_webgl_sim::caps::Capabilities;
use webml_webgl_sim::context::{ContextConfig, DeviceError, FenceHandle, GpgpuContext, Handle};
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::fault::FaultPlan;

/// Re-exported configuration of the underlying GPGPU context.
pub type WebGlConfig = ContextConfig;

/// The WebGL backend over a simulated device: a [`GpuBackend`] on the
/// default [`ContextConfig`].
pub type WebGlBackend = GpuBackend;

/// Where a data container's values currently live.
enum Residency {
    /// On the (simulated) device, behind a handle.
    Device(Handle),
    /// On the host only: the device refused the upload (context lost,
    /// allocation OOM). Reads are served directly; the next kernel use, or
    /// [`GpuBackend::recover`], re-acquires a device allocation.
    Host(Vec<f32>),
}

struct Entry {
    res: Residency,
    dtype: DType,
}

/// A GPU backend over a simulated device, on the rung its context's
/// [`ContextConfig::caps`] names.
pub struct GpuBackend {
    name: String,
    ctx: GpgpuContext,
    store: Mutex<HashMap<DataId, Entry>>,
    next_id: AtomicU64,
}

impl GpuBackend {
    /// Create a backend named after the rung's API (`"webgl"`, `"webgpu"`)
    /// on the given device profile.
    ///
    /// # Errors
    /// Fails when the device cannot host the API (no float textures, no
    /// compute API) — callers should fall back down the ladder, as
    /// TensorFlow.js does automatically.
    pub fn new(profile: DeviceProfile, config: impl Into<ContextConfig>) -> Result<Self> {
        Self::with_faults(profile, config, FaultPlan::none())
    }

    /// Create a backend with a custom registry name (used to register
    /// multiple device profiles side by side, e.g. `webgl-integrated` and
    /// `webgl-discrete` for Table 1).
    ///
    /// # Errors
    /// Same as [`GpuBackend::new`].
    pub fn with_name(
        name: impl Into<String>,
        profile: DeviceProfile,
        config: impl Into<ContextConfig>,
    ) -> Result<Self> {
        Self::with_faults_named(name, profile, config, FaultPlan::none())
    }

    /// Create a backend named after the rung's API whose context injects
    /// faults according to `plan` — the entry point of the fault suite.
    ///
    /// # Errors
    /// Same as [`GpuBackend::new`].
    pub fn with_faults(
        profile: DeviceProfile,
        config: impl Into<ContextConfig>,
        plan: FaultPlan,
    ) -> Result<Self> {
        let config = config.into();
        Self::with_faults_named(config.caps.api, profile, config, plan)
    }

    /// [`GpuBackend::with_faults`] with a custom registry name.
    ///
    /// # Errors
    /// Same as [`GpuBackend::new`].
    pub fn with_faults_named(
        name: impl Into<String>,
        profile: DeviceProfile,
        config: impl Into<ContextConfig>,
        plan: FaultPlan,
    ) -> Result<Self> {
        let name = name.into();
        let ctx = GpgpuContext::new(profile, config.into(), plan)
            .map_err(|e| Error::backend(&name, e.to_string()))?;
        Ok(GpuBackend { name, ctx, store: Mutex::new(HashMap::new()), next_id: AtomicU64::new(1) })
    }

    /// The underlying GPGPU context (for diagnostics and benchmarks).
    pub fn context(&self) -> &GpgpuContext {
        &self.ctx
    }

    /// The API the backend runs on.
    fn caps(&self) -> &'static Capabilities {
        self.ctx.config().caps
    }

    /// Device-queue counters (busy time, fence waits, pipeline drains).
    /// Does not flush.
    pub fn queue_stats(&self) -> webml_webgl_sim::QueueStats {
        self.ctx.queue_stats()
    }

    /// After a context loss: attempt restoration and re-acquire device
    /// allocations for host-resident entries. Returns whether the context
    /// is usable again. The substrate's kernel cache was cleared at loss
    /// time, so kernels recompile on next use; allocations the device still
    /// shadows page back in lazily.
    pub fn recover(&self) -> bool {
        if !self.ctx.restore_context() {
            return false;
        }
        for e in self.store.lock().values_mut() {
            // An entry the device still refuses stays on the host.
            let _ = self.make_resident(e);
        }
        true
    }

    /// Move a host-resident entry onto the device; a no-op for an entry
    /// already there. U8 containers (quantized weight codes) land in one
    /// byte per code — the whole point of quantization is that codes never
    /// widen to f32 on the device.
    fn make_resident(&self, e: &mut Entry) -> std::result::Result<(), DeviceError> {
        if let Residency::Host(data) = &mut e.res {
            let n = data.len();
            match self.ctx.try_upload(std::mem::take(data), &[n], e.dtype == DType::U8) {
                Ok(h) => e.res = Residency::Device(h),
                Err((err, rejected)) => {
                    *data = rejected;
                    return Err(err);
                }
            }
        }
        Ok(())
    }

    /// Map a substrate error to the engine's classified error surface, so
    /// the engine can tell transient faults (retry / degrade) from logic
    /// errors.
    fn classify(&self, e: DeviceError) -> Error {
        match e {
            DeviceError::ContextLost => Error::context_lost(&self.name),
            DeviceError::Oom { .. } | DeviceError::TransientReadback { .. } => {
                Error::resource_exhausted(&self.name, e.to_string())
            }
            DeviceError::Compile { kernel } => Error::kernel_unsupported(&self.name, kernel),
            other => Error::backend(&self.name, other.to_string()),
        }
    }

    fn unknown(&self, id: DataId) -> Error {
        Error::backend(&self.name, format!("unknown data id {id:?}"))
    }

    /// The device handle of operand `t`, re-acquiring a device allocation
    /// for a host-resident entry (the lazy half of context-loss recovery)
    /// and re-viewed under the kernel's logical shape: tensors share data
    /// containers across free reshapes, so the stored layout may not match
    /// the shape the op sees; a fragment body's accessor math must.
    fn view(&self, t: &KTensor<'_>) -> Result<Handle> {
        let mut store = self.store.lock();
        let e = store.get_mut(&t.data).ok_or_else(|| self.unknown(t.data))?;
        self.make_resident(e).map_err(|g| self.classify(g))?;
        let Residency::Device(h) = &e.res else { unreachable!("made resident above") };
        self.ctx.relayout(h, t.shape.dims()).map_err(|g| self.classify(g))
    }

    fn insert(&self, res: Residency, dtype: DType) -> DataId {
        let id = DataId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.store.lock().insert(id, Entry { res, dtype });
        id
    }

    /// Where a read of `id` is served from.
    fn locate(&self, id: DataId) -> Result<ReadFrom> {
        let store = self.store.lock();
        let e = store.get(&id).ok_or_else(|| self.unknown(id))?;
        Ok(match &e.res {
            Residency::Device(h) => ReadFrom::Device(h.clone(), e.dtype),
            Residency::Host(data) => ReadFrom::Host(to_tensor_data(data.clone(), e.dtype)),
        })
    }
}

/// The two sources of a read: a device allocation to read back (and the
/// dtype to convert to), or the host-resident values themselves.
enum ReadFrom {
    Device(Handle, DType),
    Host(TensorData),
}

/// Record a fused kernel's rejection (telemetry instant +
/// `<api>.fused_fallbacks_total`) just before returning it for the op layer
/// to compose. Rare by construction, so the registry lookup here is off any
/// hot path.
fn note_fused_fallback(api: &str, kernel: &'static str) {
    webml_telemetry::counter(&format!("{api}.fused_fallbacks_total")).inc();
    webml_telemetry::instant(kernel, "fused-fallback");
}

fn to_tensor_data(vals: Vec<f32>, dtype: DType) -> TensorData {
    TensorData::F32(vals).cast(dtype)
}

impl Backend for GpuBackend {
    fn register(&self, data: TensorData, dtype: DType) -> DataId {
        let mut vals = data.to_f32_vec();
        if dtype == DType::U8 && !matches!(data, TensorData::U8(_)) {
            vals.iter_mut().for_each(|x| *x = x.round().clamp(0.0, 255.0));
        }
        // When the device refuses the upload (context lost, OOM), keep the
        // values host-side rather than fail an infallible registration.
        // Reads serve the host copy; kernel use or `recover` re-acquires a
        // device allocation when the device allows it again.
        let mut entry = Entry { res: Residency::Host(vals), dtype };
        let _ = self.make_resident(&mut entry);
        self.insert(entry.res, dtype)
    }

    fn read_sync(&self, id: DataId) -> Result<TensorData> {
        match self.locate(id)? {
            ReadFrom::Device(h, dtype) => {
                let vals = self.ctx.read_sync(&h).map_err(|e| self.classify(e))?;
                Ok(to_tensor_data(vals, dtype))
            }
            ReadFrom::Host(data) => Ok(data),
        }
    }

    fn read(&self, id: DataId) -> DataFuture {
        let (h, dtype) = match self.locate(id) {
            Ok(ReadFrom::Device(h, dtype)) => (h, dtype),
            Ok(ReadFrom::Host(data)) => return DataFuture::ready(Ok(data)),
            Err(unknown) => return DataFuture::ready(Err(unknown)),
        };
        let (future, promise) = DataFuture::pending();
        let name = self.name.clone();
        // The device thread converts and completes. Transient faults
        // surface synchronously and classified, so the engine's retry
        // policy sees them; only device-side failures (nonexistent
        // allocation) travel through the future as strings.
        let enqueued = self.ctx.read_async(&h, move |vals| {
            let data = vals.map(|v| to_tensor_data(v, dtype)).map_err(|e| Error::backend(&name, e));
            promise.complete(data);
        });
        match enqueued {
            Ok(()) => future,
            Err(e) => DataFuture::ready(Err(self.classify(e))),
        }
    }

    fn dispose_data(&self, id: DataId) {
        if let Some(Entry { res: Residency::Device(h), .. }) = self.store.lock().remove(&id) {
            self.ctx.dispose(&h);
        }
    }

    fn memory(&self) -> BackendMemory {
        let m = self.ctx.memory();
        let faults = self.ctx.fault_stats();
        let store = self.store.lock();
        let host_resident =
            store.values().filter(|e| matches!(e.res, Residency::Host(_))).count();
        let details = [
            ("bytes_in_gpu", m.bytes_in_gpu as f64),
            ("bytes_paged", m.pager.bytes_paged as f64),
            ("page_outs", m.pager.page_outs as f64),
            ("page_ins", m.pager.page_ins as f64),
            ("recycler_hits", m.recycler.hits as f64),
            ("recycler_misses", m.recycler.misses as f64),
            ("programs_run", m.programs_run as f64),
            ("host_resident_buffers", host_resident as f64),
            ("context_losses", faults.context_losses as f64),
            ("oom_failures", faults.oom_failures as f64),
            ("compile_failures", faults.compile_failures as f64),
            ("transient_read_failures", faults.transient_read_failures as f64),
        ];
        BackendMemory {
            num_buffers: store.len(),
            // Device-resident plus host-shadowed: what the device holds for
            // its callers, whichever side of a context loss it is on.
            num_bytes: m.bytes_in_gpu + m.pager.bytes_paged,
            details: details.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    fn float_precision(&self) -> u8 {
        if self.ctx.profile().half_precision_only {
            16
        } else {
            32
        }
    }

    fn submit_fence(&self) -> Option<FenceToken> {
        Some(FenceToken(self.ctx.fence().raw()))
    }

    // A token carries the context that minted it; one this backend's
    // context did not mint (the ladder moved since) reads as passed.

    fn fence_passed(&self, token: FenceToken) -> bool {
        self.ctx.fence_passed(FenceHandle::from_raw(token.0))
    }

    fn wait_fence(&self, token: FenceToken) {
        self.ctx.wait_fence(FenceHandle::from_raw(token.0));
    }

    fn device_timer_ns(&self) -> Option<u64> {
        if !self.caps().has_timer(self.ctx.profile()) {
            return None;
        }
        // Like real EXT_disjoint_timer_query reads, sampling the counter
        // serializes the pipeline: flush so it covers enqueued kernels.
        self.ctx.flush();
        Some(self.ctx.device_nanos())
    }

    // A program the driver rejects at compile time (an injected fault or a
    // driver quirk) surfaces as `KernelUnsupported`. For a plain kernel the
    // engine degrades; a fused one is counted here, and the engine hands it
    // back to the op layer, which composes it from plain calls on this same
    // backend — fusion must never make the degradation ladder worse than the
    // unfused path.
    fn run(&self, call: &KernelCall<'_>, operands: &[KTensor<'_>]) -> Result<DataId> {
        let (out, dtype) = call.output(operands)?;
        let packed = self.ctx.config().packing;
        let kernel = programs::kernel(self.caps(), call, operands, out.dims(), packed)?;
        let name = kernel.name;
        let views: Vec<Handle> = operands.iter().map(|t| self.view(t)).collect::<Result<_>>()?;
        match self.ctx.run(kernel, &views) {
            Ok(handle) => Ok(self.insert(Residency::Device(handle), dtype)),
            Err(e) => {
                if matches!(e, DeviceError::Compile { .. }) && call.is_fused() {
                    note_fused_fallback(self.caps().api, name);
                }
                Err(self.classify(e))
            }
        }
    }
}

/// What only the texture rung does. The behaviours every rung shares are one
/// contract suite, `tests/contract.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use webml_core::codegen::Codegen;
    use std::sync::Arc;
    use webml_core::backend::{Epilogue, UnaryOp};
    use webml_core::shape::Shape;
    use webml_core::ops;
    use webml_core::Engine;
    use webml_webgl_sim::shader::Kernel;
    use webml_webgl_sim::WEBGL;

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

    /// The engine derives Sec 4.1.3's epsilon from the active backend's
    /// float precision: 1e-4 on the half-precision profile, 1e-7 on the f32
    /// ones and on the host.
    #[test]
    fn engine_epsilon_follows_the_device_precision() {
        for (profile, eps) in [
            (DeviceProfile::ios_safari(), 1e-4),
            (DeviceProfile::intel_iris_pro(), 1e-7),
            (DeviceProfile::gtx_1080(), 1e-7),
        ] {
            let e = Engine::new();
            let b = WebGlBackend::new(profile.clone(), WebGlConfig::default()).unwrap();
            e.register_backend("webgl", Arc::new(b), 2);
            assert_eq!(e.epsilon(), eps, "{}", profile.name);
        }
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(webml_core::cpu::CpuBackend::new()), 1);
        assert_eq!(e.epsilon(), 1e-7);
    }

    /// Channel counts the product tests cover: inside one texel's run (3),
    /// straddling texels (6), filling two texels (8), and taking every
    /// block width of a run body (21 = 16 + 4 + 1).
    const CHANNELS: [usize; 4] = [3, 6, 8, 21];

    /// The packed conv2d, depthwise and matmul programs are a pure
    /// optimisation of their per-element bodies: same bits, fused and
    /// plain, on the f32 and the half-precision profile, over padded,
    /// strided and dilated tap walks, every transpose, and a channel
    /// multiplier that rules the packed depthwise body out.
    #[test]
    fn packed_products_equal_their_per_element_bodies() {
        use webml_core::conv_util::Padding;
        let run = |profile: DeviceProfile, packing: bool, channels: usize| {
            let e = Engine::new();
            let config = WebGlConfig { packing, ..Default::default() };
            e.register_backend("webgl", Arc::new(WebGlBackend::new(profile, config).unwrap()), 2);
            let relu6 = Some(UnaryOp::Relu6);
            let mut outs = Vec::new();
            for (pad, stride, dilation) in
                [(Padding::Same, 1, 1), (Padding::Valid, 2, 1), (Padding::Same, 1, 2)]
            {
                let (s, d) = ((stride, stride), (dilation, dilation));
                let x = e.rand_uniform([2, 7, 6, channels], -2.0, 2.0, 3).unwrap();
                for mul in [1, 2] {
                    let w = e.rand_uniform([3, 3, channels, mul], -1.0, 1.0, 5).unwrap();
                    let bias = e.rand_uniform([channels * mul], -1.0, 1.0, 7).unwrap();
                    let y = ops::fused_depthwise_conv2d(&x, &w, Some(&bias), relu6, s, pad, d);
                    outs.push(y.unwrap());
                    outs.push(ops::depthwise_conv2d(&x, &w, s, pad, d).unwrap());
                }
                let x = e.rand_uniform([2, 7, 6, 3], -2.0, 2.0, 9).unwrap();
                let w = e.rand_uniform([3, 3, 3, channels], -1.0, 1.0, 11).unwrap();
                let bias = e.rand_uniform([channels], -1.0, 1.0, 13).unwrap();
                outs.push(ops::fused_conv2d(&x, &w, Some(&bias), relu6, s, pad, d).unwrap());
                outs.push(ops::conv2d(&x, &w, s, pad, d).unwrap());
            }
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let a = if ta { [2, 7, 5] } else { [2, 5, 7] };
                let b = if tb { [2, channels, 7] } else { [2, 7, channels] };
                let a = e.rand_uniform(a, -2.0, 2.0, 15).unwrap();
                let b = e.rand_uniform(b, -1.0, 1.0, 17).unwrap();
                let bias = e.rand_uniform([channels], -1.0, 1.0, 19).unwrap();
                outs.push(ops::fused_matmul(&a, &b, Some(&bias), relu6, ta, tb).unwrap());
                outs.push(ops::matmul(&a, &b, ta, tb).unwrap());
            }
            outs.iter().map(|t| bits(&t.to_f32_vec().unwrap())).collect::<Vec<_>>()
        };
        // Which body runs, under the names the fault plan blocks by prefix.
        let program = |packing: bool, mul: usize| {
            let shapes = (Shape::new(vec![1, 5, 5, 4]), Shape::new(vec![3, 3, 4, mul]));
            let info = webml_core::conv_util::depthwise_conv2d_info(
                "t", &shapes.0, &shapes.1, (1, 1), Padding::Same, (1, 1),
            )
            .unwrap();
            let (out, fused) = (info.out_shape(), Epilogue::Fused { bias: true, activation: None });
            let cg = Codegen::detect();
            let program =
                |epi| programs::depthwise_conv2d(&WEBGL, cg, &info, None, packing, epi, out.dims());
            let (unfused, fused) = (program(Epilogue::None), program(fused));
            assert_eq!(unfused.is_packed(), fused.is_packed());
            (unfused.name, fused.name)
        };
        assert_eq!(program(true, 1), ("DepthwiseConv2DPacked", "FusedDepthwiseConv2DPacked"));
        assert_eq!(program(true, 2), ("DepthwiseConv2D", "FusedDepthwiseConv2D"));
        assert_eq!(program(false, 1), ("DepthwiseConv2D", "FusedDepthwiseConv2D"));
        for profile in [DeviceProfile::intel_iris_pro, DeviceProfile::ios_safari] {
            for channels in CHANNELS {
                let packed = run(profile(), true, channels);
                assert_eq!(packed, run(profile(), false, channels), "channels={channels}");
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// However the shader-core pool cuts the output into runs — on 1, 2, 3
    /// or 7 cores, so that runs start inside a pixel's (or row's) channel
    /// run — and on every build of the hot loops this CPU runs, a packed
    /// product program stores the bits of its per-element body, with and
    /// without f16 rounding.
    #[test]
    fn packed_products_equal_their_per_element_bodies_on_every_pool() {
        use webml_core::backend::MatMulGeom;
        use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};
        use webml_core::pool::WorkerPool;
        use webml_webgl_sim::shader::execute;
        use webml_webgl_sim::{TextureFormat, TextureLayout};
        let data = |dims: &[usize], seed: usize| -> Vec<f32> {
            let n = dims.iter().product::<usize>();
            (0..n).map(|i| ((i + seed) as f32 * 0.731).sin() * 2.0).collect()
        };
        let pools = [1, 2, 3, 7].map(WorkerPool::new);
        // Run `kernel` over inputs of `dims` on `pool`.
        let exec = |kernel: &Kernel, dims: &[Vec<usize>], pool: &WorkerPool, half: bool| {
            let inputs: Vec<Vec<f32>> = dims.iter().zip(1..).map(|(d, i)| data(d, i)).collect();
            let layouts: Vec<TextureLayout> = dims
                .iter()
                .map(|d| TextureLayout::compile(d, TextureFormat::R32F, 16_384, true).unwrap())
                .collect();
            let buffers: Vec<&[f32]> = inputs.iter().map(|v| &v[..]).collect();
            let layouts: Vec<&TextureLayout> = layouts.iter().collect();
            let mut out = vec![f32::NAN; kernel.out_size()];
            execute(kernel, &buffers, &layouts, &mut out, pool, pool.size(), half);
            bits(&out)
        };
        let fused = Epilogue::Fused { bias: true, activation: Some(UnaryOp::Relu6) };
        // A product program, built packed or not with an epilogue.
        type Program = Box<dyn Fn(bool, Epilogue) -> Kernel>;
        // Each program with its input dims, the bias left out.
        let mut cases: Vec<(Program, Vec<Vec<usize>>)> = Vec::new();
        for channels in CHANNELS {
            let walks = [(Padding::Same, 1, 1), (Padding::Valid, 2, 1), (Padding::Same, 1, 2)];
            let builds = |walk| Codegen::all().into_iter().map(move |cg| (walk, cg));
            for ((pad, stride, dilation), cg) in walks.into_iter().flat_map(builds) {
                let (s, d) = ((stride, stride), (dilation, dilation));
                let (x, w) = (vec![2, 7, 6, 3], vec![3, 3, 3, channels]);
                let shapes = (Shape::new(x.clone()), Shape::new(w.clone()));
                let info = conv2d_info("t", &shapes.0, &shapes.1, s, pad, d).unwrap();
                let out = info.out_shape().dims().to_vec();
                let conv =
                    move |packed, epi| programs::conv2d(&WEBGL, cg, &info, None, packed, epi, &out);
                cases.push((Box::new(conv), vec![x, w]));
                let (x, w) = (vec![2, 7, 6, channels], vec![3, 3, channels, 1]);
                let shapes = (Shape::new(x.clone()), Shape::new(w.clone()));
                let info = depthwise_conv2d_info("t", &shapes.0, &shapes.1, s, pad, d).unwrap();
                let out = info.out_shape().dims().to_vec();
                let depthwise = move |packed, epi| {
                    programs::depthwise_conv2d(&WEBGL, cg, &info, None, packed, epi, &out)
                };
                cases.push((Box::new(depthwise), vec![x, w]));
            }
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let a = if ta { vec![2, 7, 5] } else { vec![2, 5, 7] };
                let b = if tb { vec![2, channels, 7] } else { vec![2, 7, channels] };
                let geom = MatMulGeom::of(&Shape::new(a.clone()), &Shape::new(b.clone()), ta, tb);
                let out = [2, 5, channels];
                let matmul =
                    move |packed, epi| programs::matmul(&WEBGL, &geom, None, packed, epi, &out);
                cases.push((Box::new(matmul), vec![a, b]));
            }
        }
        for (program, dims) in &cases {
            for epilogue in [Epilogue::None, fused] {
                let (packed, unpacked) = (program(true, epilogue), program(false, epilogue));
                assert!(packed.is_packed() && !unpacked.is_packed(), "{}", packed.name);
                let mut dims = dims.clone();
                if epilogue.bias() {
                    dims.push(vec![*packed.out_shape.last().unwrap()]);
                }
                for half in [false, true] {
                    let reference = exec(&unpacked, &dims, &pools[0], half);
                    for pool in &pools {
                        let got = exec(&packed, &dims, pool, half);
                        assert_eq!(got, reference, "{} on {} cores", packed.name, pool.size());
                    }
                }
            }
        }
    }
}
