//! The host-side context over the simulated WebGPU device: buffer upload
//! and mapping, pipeline dispatch, fences, timestamp queries, and the
//! seeded fault surface (device loss, pipeline-compile rejection,
//! allocation OOM, transient readbacks).

use crate::buffer::BufferFormat;
use crate::pipeline::ComputePipeline;
use crate::queue::{device_loop, BufId, Command, DeviceShared, WebGpuQueueStats};
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::fault::{ContextLossEvent, FaultPlan, FaultState, FaultStats};
use webml_webgl_sim::future::ReadFuture;

/// Context configuration. The compute API needs far fewer knobs than the
/// WebGL substrate: no texel packing, no 2-D layout squeezing, no paging
/// (storage buffers page at driver level; the simulator models OOM via
/// fault plans instead).
#[derive(Debug, Clone, Copy)]
pub struct WebGpuConfig {
    /// Recycle disposed storage buffers by (length, format).
    pub recycling: bool,
}

impl Default for WebGpuConfig {
    fn default() -> Self {
        WebGpuConfig { recycling: true }
    }
}

/// Memory/diagnostic gauges of the device.
#[derive(Debug, Clone, Default)]
pub struct GpuMemoryStats {
    /// Bytes resident in device storage buffers.
    pub bytes_in_gpu: usize,
    /// Live buffer handles (excluding the recycler's free pool).
    pub num_buffers: usize,
    /// Pipelines dispatched so far.
    pub dispatches_run: u64,
    /// Buffer-recycler hits.
    pub recycler_hits: u64,
    /// Buffer-recycler misses.
    pub recycler_misses: u64,
    /// Buffers surviving only as host shadows (post-device-loss).
    pub host_shadow_buffers: usize,
}

/// Errors from context operations — the compute-API analogue of the WebGL
/// simulator's `GlError`, with the same transient/permanent split so the
/// engine's degradation ladder classifies both rungs identically.
#[derive(Debug, Clone, PartialEq)]
pub enum WebGpuError {
    /// The device does not expose a WebGPU-class compute API at all
    /// (older iOS/Android profiles) — callers fall down the ladder.
    Unsupported {
        /// Device name.
        device: String,
    },
    /// Readback failed.
    Read(String),
    /// The device was lost (`device.lost` resolved). All storage buffers
    /// are invalidated; uploads and dispatches fail until the device is
    /// recovered, but host-side shadows remain readable.
    DeviceLost,
    /// Buffer allocation failed against the device's byte budget.
    Oom {
        /// Bytes the allocation asked for.
        requested: usize,
        /// The device's byte budget.
        limit: usize,
    },
    /// The driver rejected a compute pipeline at creation time.
    PipelineCompile {
        /// Name of the rejected pipeline.
        pipeline: String,
    },
    /// A readback failed transiently; retrying is expected to succeed.
    TransientReadback {
        /// 1-based count of injected readback failures so far.
        attempt: u32,
    },
}

impl WebGpuError {
    /// Whether retrying the same operation on the same context can succeed
    /// without intervention (only transient readbacks qualify).
    pub fn is_transient(&self) -> bool {
        matches!(self, WebGpuError::TransientReadback { .. })
    }
}

impl std::fmt::Display for WebGpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WebGpuError::Unsupported { device } => {
                write!(f, "device {device} exposes no WebGPU-class compute API")
            }
            WebGpuError::Read(e) => write!(f, "readback failed: {e}"),
            WebGpuError::DeviceLost => write!(f, "webgpu device lost"),
            WebGpuError::Oom { requested, limit } => {
                write!(f, "buffer allocation of {requested} bytes failed (limit {limit} bytes)")
            }
            WebGpuError::PipelineCompile { pipeline } => {
                write!(f, "pipeline creation failed for {pipeline}")
            }
            WebGpuError::TransientReadback { attempt } => {
                write!(f, "transient readback failure (injected failure #{attempt})")
            }
        }
    }
}

impl std::error::Error for WebGpuError {}

/// A handle to a device storage buffer holding one logical tensor.
/// Linear memory: no layout, just the element count and format.
#[derive(Debug, Clone, PartialEq)]
pub struct BufHandle {
    /// Device buffer id.
    pub id: BufId,
    /// Logical element count.
    pub len: usize,
    /// Element format.
    pub format: BufferFormat,
}

/// A fence inserted into the command queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuFenceHandle(u64);

impl GpuFenceHandle {
    /// The raw fence id, for embedding in backend-neutral tokens.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from [`GpuFenceHandle::raw`].
    pub fn from_raw(id: u64) -> GpuFenceHandle {
        GpuFenceHandle(id)
    }
}

/// The host-side context over a simulated WebGPU device.
pub struct WebGpuContext {
    profile: DeviceProfile,
    config: WebGpuConfig,
    shared: Arc<DeviceShared>,
    sender: Sender<Command>,
    next_buf: AtomicU64,
    next_fence: AtomicU64,
    timing_mark: AtomicU64,
    faults: FaultState,
    /// Created-pipeline cache by name: creation is attempted on first
    /// dispatch of each pipeline and the result cached, so an injected
    /// compile failure repeats deterministically and a device loss forces
    /// re-creation.
    compiled: Mutex<HashSet<&'static str>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl WebGpuContext {
    /// Create a context on `profile`.
    ///
    /// # Errors
    /// [`WebGpuError::Unsupported`] when the profile exposes no compute
    /// API — callers should fall down the ladder to webgl or cpu.
    pub fn new(profile: DeviceProfile, config: WebGpuConfig) -> Result<WebGpuContext, WebGpuError> {
        WebGpuContext::with_faults(profile, config, FaultPlan::none())
    }

    /// Create a context that injects faults according to `plan` — the same
    /// seedable [`FaultPlan`] vocabulary as the WebGL simulator, evaluated
    /// by the same [`FaultState`] runtime, so one soak seed exercises the
    /// same schedule on either rung.
    ///
    /// # Errors
    /// [`WebGpuError::Unsupported`] when the profile lacks the compute API.
    pub fn with_faults(
        profile: DeviceProfile,
        config: WebGpuConfig,
        plan: FaultPlan,
    ) -> Result<WebGpuContext, WebGpuError> {
        if !profile.has_webgpu {
            return Err(WebGpuError::Unsupported { device: profile.name.clone() });
        }
        let shared = Arc::new(DeviceShared::new(config.recycling));
        let (tx, rx) = crossbeam::channel::unbounded();
        let worker_shared = shared.clone();
        let parallelism = profile.parallelism;
        let worker = std::thread::Builder::new()
            .name("webgpu-device".into())
            .spawn(move || device_loop(rx, worker_shared, parallelism))
            .expect("spawn device thread");
        Ok(WebGpuContext {
            profile,
            config,
            shared,
            sender: tx,
            next_buf: AtomicU64::new(1),
            next_fence: AtomicU64::new(1),
            timing_mark: AtomicU64::new(0),
            faults: FaultState::new(plan),
            compiled: Mutex::new(HashSet::new()),
            worker: Some(worker),
        })
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The context configuration.
    pub fn config(&self) -> &WebGpuConfig {
        &self.config
    }

    /// Per-device epsilon. WebGPU-capable profiles are full-precision, so
    /// this is the standard 1e-7.
    pub fn epsilon(&self) -> f32 {
        self.profile.epsilon()
    }

    /// Upload host values as a new storage buffer.
    ///
    /// # Errors
    /// [`WebGpuError::DeviceLost`] / [`WebGpuError::Oom`] under injected
    /// faults.
    pub fn upload(&self, data: Vec<f32>) -> Result<BufHandle, WebGpuError> {
        self.try_upload(data).map_err(|(e, _)| e)
    }

    /// Like [`upload`](Self::upload), but returns the data on failure so
    /// callers keep a host-side copy instead of losing the values — the
    /// basis of graceful degradation in the backend above.
    ///
    /// # Errors
    /// As [`upload`](Self::upload), with the rejected data attached.
    pub fn try_upload(&self, data: Vec<f32>) -> Result<BufHandle, (WebGpuError, Vec<f32>)> {
        if self.faults.is_lost() {
            return Err((WebGpuError::DeviceLost, data));
        }
        let len = data.len();
        if let Err(e) = self.check_alloc(len * BufferFormat::F32.bytes_per_element()) {
            return Err((e, data));
        }
        let id = self.next_buf.fetch_add(1, Ordering::Relaxed);
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.sender
            .send(Command::Upload { buf: id, data, format: BufferFormat::F32 })
            .expect("device thread alive");
        Ok(BufHandle { id, len, format: BufferFormat::F32 })
    }

    /// Upload u8 quantization codes as a one-byte-per-code storage buffer
    /// (4x less device memory than f32), which is what the allocator and
    /// the injected OOM fault see. Pipelines read the codes widened to
    /// f32; the affine dequantization stays in the consuming kernel's
    /// epilogue.
    ///
    /// # Errors
    /// [`WebGpuError::DeviceLost`] / [`WebGpuError::Oom`] under injected
    /// faults.
    pub fn upload_quantized(&self, codes: &[u8]) -> Result<BufHandle, WebGpuError> {
        if self.faults.is_lost() {
            return Err(WebGpuError::DeviceLost);
        }
        self.check_alloc(codes.len() * BufferFormat::U8.bytes_per_element())?;
        let id = self.next_buf.fetch_add(1, Ordering::Relaxed);
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.sender
            .send(Command::Upload {
                buf: id,
                data: codes.iter().map(|&c| c as f32).collect(),
                format: BufferFormat::U8,
            })
            .expect("device thread alive");
        Ok(BufHandle { id, len: codes.len(), format: BufferFormat::U8 })
    }

    /// Host-side allocation gate for the injected OOM fault (a real
    /// driver reports buffer-creation failure synchronously). Only runs —
    /// and only drains the queue, for an accurate residency figure — when
    /// the fault plan sets a byte limit. Storage buffers have no paging
    /// tier, so cumulative pressure over the limit always fails.
    fn check_alloc(&self, requested: usize) -> Result<(), WebGpuError> {
        if self.faults.plan().texture_byte_limit.is_none() {
            return Ok(());
        }
        self.flush();
        let resident = self.shared.bytes_gpu.load(Ordering::Relaxed);
        match self.faults.alloc_blocked(requested, resident, false) {
            Some(limit) => Err(WebGpuError::Oom { requested, limit }),
            None => Ok(()),
        }
    }

    /// Enqueue a compute pipeline over `inputs`, returning the output
    /// handle immediately (sub-millisecond) while the device computes.
    ///
    /// # Errors
    /// [`WebGpuError::DeviceLost`], [`WebGpuError::PipelineCompile`] or
    /// [`WebGpuError::Oom`] under injected faults.
    pub fn dispatch(
        &self,
        pipeline: ComputePipeline,
        inputs: &[&BufHandle],
    ) -> Result<BufHandle, WebGpuError> {
        if self.faults.is_lost() {
            return Err(WebGpuError::DeviceLost);
        }
        self.create_pipeline(&pipeline)?;
        let out_len = pipeline.out_len;
        self.check_alloc(out_len * BufferFormat::F32.bytes_per_element())?;
        if let Some(event) = self.faults.before_draw() {
            // The dispatch itself loses the device: invalidate every
            // buffer (the device keeps host shadows) and fire observers.
            self.sender.send(Command::LoseDevice).expect("device thread alive");
            self.compiled.lock().clear();
            self.faults.notify_loss(&event);
            return Err(WebGpuError::DeviceLost);
        }
        let id = self.next_buf.fetch_add(1, Ordering::Relaxed);
        // Straggler injection: decided host-side (seeded, synchronous),
        // paid on the device thread where a throttled GPU would pay it.
        let stall_ns = self.faults.draw_stall().unwrap_or(0);
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.sender
            .send(Command::Dispatch {
                pipeline,
                inputs: inputs.iter().map(|h| h.id).collect(),
                output: id,
                stall_ns,
                trace_id: webml_telemetry::current_trace_id(),
            })
            .expect("device thread alive");
        Ok(BufHandle { id, len: out_len, format: BufferFormat::F32 })
    }

    /// Attempt to create (or fetch from the cache) a compute pipeline.
    fn create_pipeline(&self, pipeline: &ComputePipeline) -> Result<(), WebGpuError> {
        let mut cache = self.compiled.lock();
        if cache.contains(pipeline.name) {
            return Ok(());
        }
        if self.faults.compile_blocked(pipeline.name, self.profile.half_precision_only) {
            return Err(WebGpuError::PipelineCompile { pipeline: pipeline.name.to_string() });
        }
        cache.insert(pipeline.name);
        Ok(())
    }

    /// Blocking readback (`mapAsync` + spin on the queue) — the
    /// `dataSync()` path. When the command queue still has unexecuted
    /// uploads or dispatches, the simulated driver charges the profile's
    /// pipeline-drain penalty as wall-clock latency; synchronize with
    /// [`WebGpuContext::wait_fence`] first to read for free.
    ///
    /// Readback keeps working after a device loss: host shadows of
    /// invalidated buffers remain readable.
    ///
    /// # Errors
    /// [`WebGpuError::Read`] when the buffer does not exist;
    /// [`WebGpuError::TransientReadback`] under injected faults.
    pub fn read_sync(&self, h: &BufHandle) -> Result<Vec<f32>, WebGpuError> {
        let drain_ns = if self.shared.pending.load(Ordering::SeqCst) > 0 {
            self.profile.readback_sync_penalty_ns
        } else {
            0
        };
        self.enqueue_read(h, drain_ns)?.wait().map_err(WebGpuError::Read)
    }

    /// Asynchronous readback — the `data()` path. The future resolves once
    /// the device has executed all prior commands and copied the values.
    pub fn read_async(&self, h: &BufHandle) -> ReadFuture {
        match self.read_async_checked(h) {
            Ok(f) => f,
            Err(e) => {
                let (future, promise) = ReadFuture::pending();
                promise.complete(Err(e.to_string()));
                future
            }
        }
    }

    /// Fallible asynchronous readback: transient faults are reported
    /// synchronously as structured errors so callers can classify and
    /// retry. Asynchronous reads never pay the pipeline drain.
    ///
    /// # Errors
    /// [`WebGpuError::TransientReadback`] under injected faults.
    pub fn read_async_checked(&self, h: &BufHandle) -> Result<ReadFuture, WebGpuError> {
        self.enqueue_read(h, 0)
    }

    fn enqueue_read(&self, h: &BufHandle, drain_ns: u64) -> Result<ReadFuture, WebGpuError> {
        if let Some(attempt) = self.faults.readback_blocked() {
            return Err(WebGpuError::TransientReadback { attempt });
        }
        let (future, promise) = ReadFuture::pending();
        self.sender
            .send(Command::MapRead { buf: h.id, len: h.len, drain_ns, promise })
            .expect("device thread alive");
        Ok(future)
    }

    /// Whether the device is currently lost.
    pub fn is_device_lost(&self) -> bool {
        self.faults.is_lost()
    }

    /// Attempt to recover a lost device (request a new device from the
    /// adapter). Returns whether the device is usable: `true` when it was
    /// not lost, or when the fault plan allows recovery. The pipeline
    /// cache stays cleared after a loss; invalidated buffers re-upload
    /// lazily from their host shadows.
    pub fn restore_device(&self) -> bool {
        if !self.faults.is_lost() {
            return true;
        }
        self.faults.try_restore()
    }

    /// Register an observer for device-loss events — the simulator's
    /// `device.lost` listener.
    pub fn on_device_lost(&self, f: impl Fn(&ContextLossEvent) + Send + Sync + 'static) {
        self.faults.add_observer(Box::new(f));
    }

    /// The fault plan this context was created with.
    pub fn fault_plan(&self) -> &FaultPlan {
        self.faults.plan()
    }

    /// Counters of injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Number of pipelines in the created-pipeline cache.
    pub fn pipelines_compiled(&self) -> usize {
        self.compiled.lock().len()
    }

    /// Release a buffer back to the recycler.
    pub fn dispose(&self, h: &BufHandle) {
        let _ = self.sender.send(Command::Dispose { buf: h.id });
    }

    /// Insert a fence into the command queue.
    pub fn fence(&self) -> GpuFenceHandle {
        let id = self.next_fence.fetch_add(1, Ordering::Relaxed);
        self.sender.send(Command::Fence { id }).expect("device thread alive");
        GpuFenceHandle(id)
    }

    /// Poll whether a fence has passed.
    pub fn fence_passed(&self, f: GpuFenceHandle) -> bool {
        self.shared.last_fence.load(Ordering::SeqCst) >= f.0
    }

    /// Block until a fence passes. A condvar sleep, not a spin; only
    /// genuine sleeps count in the queue stats.
    pub fn wait_fence(&self, f: GpuFenceHandle) {
        if self.fence_passed(f) {
            return;
        }
        let t0 = webml_telemetry::now_ns();
        let mut guard = self.shared.fence_lock.lock();
        while self.shared.last_fence.load(Ordering::SeqCst) < f.0 {
            self.shared.fence_cond.wait(&mut guard);
        }
        drop(guard);
        self.shared.fence_waits.fetch_add(1, Ordering::Relaxed);
        self.shared
            .fence_wait_ns
            .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
    }

    /// Block until every queued command has executed.
    pub fn flush(&self) {
        self.wait_fence(self.fence());
    }

    /// Snapshot of device-queue counters. Does not flush.
    pub fn queue_stats(&self) -> WebGpuQueueStats {
        self.shared.queue_stats()
    }

    /// Begin a timestamp-query window measuring pure device time.
    pub fn begin_timing(&self) {
        self.flush();
        self.timing_mark.store(self.shared.gpu_nanos.load(Ordering::Relaxed), Ordering::SeqCst);
    }

    /// End the timing window, returning modeled device milliseconds spent
    /// in pipelines (excluding upload/download).
    pub fn end_timing(&self) -> f64 {
        self.flush();
        let now = self.shared.gpu_nanos.load(Ordering::Relaxed);
        (now - self.timing_mark.load(Ordering::SeqCst)) as f64 / 1e6
    }

    /// The cumulative timestamp-query counter: modeled device nanoseconds
    /// since context creation. Does *not* flush.
    pub fn device_nanos(&self) -> u64 {
        self.shared.gpu_nanos.load(Ordering::Relaxed)
    }

    /// Memory and diagnostics snapshot (flushes first for stable numbers).
    pub fn memory(&self) -> GpuMemoryStats {
        self.flush();
        let (recycler_hits, recycler_misses) = self.shared.recycler.lock().stats();
        let buffers = self.shared.buffers.lock();
        GpuMemoryStats {
            bytes_in_gpu: self.shared.bytes_gpu.load(Ordering::Relaxed),
            num_buffers: buffers.len(),
            dispatches_run: self.shared.dispatch_count.load(Ordering::Relaxed),
            recycler_hits,
            recycler_misses,
            host_shadow_buffers: buffers.values().filter(|b| !b.on_device).count(),
        }
    }
}

impl Drop for WebGpuContext {
    fn drop(&mut self) {
        let _ = self.sender.send(Command::Shutdown);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ComputePipeline;

    fn ctx() -> WebGpuContext {
        WebGpuContext::new(DeviceProfile::intel_iris_pro(), WebGpuConfig::default()).unwrap()
    }

    #[test]
    fn upload_read_round_trip() {
        let c = ctx();
        let h = c.upload(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(c.read_sync(&h).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn unsupported_profile_is_rejected() {
        for p in [DeviceProfile::ios_safari(), DeviceProfile::android_legacy()] {
            let e = WebGpuContext::new(p, WebGpuConfig::default());
            assert!(matches!(e, Err(WebGpuError::Unsupported { .. })));
        }
    }

    #[test]
    fn dispatch_runs_a_pipeline() {
        let c = ctx();
        let a = c.upload(vec![1.0, 2.0]).unwrap();
        let b = c.upload(vec![10.0, 20.0]).unwrap();
        let add = ComputePipeline::elementwise("Add", 2, 1, |inp, out| {
            for ((o, x), y) in out.iter_mut().zip(inp[0]).zip(inp[1]) {
                *o = x + y;
            }
        });
        let out = c.dispatch(add, &[&a, &b]).unwrap();
        assert_eq!(c.read_sync(&out).unwrap(), vec![11.0, 22.0]);
    }

    #[test]
    fn quantized_upload_is_one_byte_per_code() {
        let c = ctx();
        let codes: Vec<u8> = (0..=255).collect();
        let h = c.upload_quantized(&codes).unwrap();
        assert_eq!(h.format, BufferFormat::U8);
        let vals = c.read_sync(&h).unwrap();
        assert_eq!(vals[0], 0.0);
        assert_eq!(vals[255], 255.0);
        c.flush();
        // 256 codes = 256 bytes; an f32 buffer of the same length is 1024.
        let m = c.memory();
        assert_eq!(m.bytes_in_gpu, 256);
    }

    #[test]
    fn shared_memory_model_rewards_tiling() {
        // Two pipelines with identical serial bodies; the cooperative one
        // must be modeled meaningfully faster on the device clock.
        let c = ctx();
        let n = 1usize << 16;
        let a = c.upload(vec![1.0; n]).unwrap();
        let work = |inp: &[&[f32]], out: &mut [f32]| {
            for (o, &v) in out.iter_mut().zip(inp[0]) {
                let mut x = v;
                for _ in 0..64 {
                    x = x * 1.000_1 + 0.1;
                }
                *o = x;
            }
        };
        c.begin_timing();
        let naive = ComputePipeline::cooperative("Naive", n, 256, 1, 64, work);
        let _ = c.read_sync(&c.dispatch(naive, &[&a]).unwrap()).unwrap();
        let naive_ms = c.end_timing();
        c.begin_timing();
        let tiled = ComputePipeline::cooperative("Tiled", n, 256, 16, 64, work);
        let _ = c.read_sync(&c.dispatch(tiled, &[&a]).unwrap()).unwrap();
        let tiled_ms = c.end_timing();
        assert!(
            tiled_ms * 2.0 < naive_ms,
            "tiled {tiled_ms} ms must be well under naive {naive_ms} ms"
        );
    }

    #[test]
    fn enqueue_returns_before_completion() {
        let c = ctx();
        let a = c.upload(vec![1.0; 256]).unwrap();
        let slow = ComputePipeline::elementwise("Slow", 256, 20_000, |inp, out| {
            for (o, &v) in out.iter_mut().zip(inp[0]) {
                let mut x = v;
                for _ in 0..20_000 {
                    x = (x * 1.000_001).sin() + 1.0;
                }
                *o = x;
            }
        });
        let t0 = std::time::Instant::now();
        let out = c.dispatch(slow, &[&a]).unwrap();
        let fence = c.fence();
        let enqueue_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(enqueue_ms < 50.0, "enqueue took {enqueue_ms} ms");
        let vals = c.read_sync(&out).unwrap();
        assert_eq!(vals.len(), 256);
        assert!(c.fence_passed(fence));
    }

    #[test]
    fn device_loss_invalidates_buffers_but_preserves_shadows() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let c = WebGpuContext::with_faults(
            DeviceProfile::intel_iris_pro(),
            WebGpuConfig::default(),
            FaultPlan::none().lose_context_at(2),
        )
        .unwrap();
        let events = Arc::new(AtomicU64::new(0));
        let ev = events.clone();
        c.on_device_lost(move |e| {
            assert_eq!(e.draws_completed, 1);
            assert!(e.restorable);
            ev.fetch_add(1, Ordering::SeqCst);
        });
        let a = c.upload(vec![1.0, 2.0]).unwrap();
        let double = || {
            ComputePipeline::elementwise("Double", 2, 1, |inp, out| {
                out.iter_mut().zip(inp[0]).for_each(|(o, v)| *o = v * 2.0)
            })
        };
        let out = c.dispatch(double(), &[&a]).unwrap();
        assert_eq!(c.dispatch(double(), &[&out]), Err(WebGpuError::DeviceLost));
        assert!(c.is_device_lost());
        assert_eq!(events.load(Ordering::SeqCst), 1);
        // Uploads and dispatches fail while lost; reads serve shadows.
        assert!(matches!(c.upload(vec![0.0]), Err(WebGpuError::DeviceLost)));
        assert_eq!(c.read_sync(&a).unwrap(), vec![1.0, 2.0]);
        assert_eq!(c.read_sync(&out).unwrap(), vec![2.0, 4.0]);
        let m = c.memory();
        assert_eq!(m.bytes_in_gpu, 0, "all buffers invalidated");
        assert!(m.host_shadow_buffers >= 2);
        // Recovery: pipelines re-create, shadows re-upload lazily.
        assert_eq!(c.pipelines_compiled(), 0, "pipeline cache cleared on loss");
        assert!(c.restore_device());
        let out2 = c.dispatch(double(), &[&out]).unwrap();
        assert_eq!(c.read_sync(&out2).unwrap(), vec![4.0, 8.0]);
        assert_eq!(c.fault_stats().context_losses, 1);
    }

    #[test]
    fn unrestorable_loss_stays_lost() {
        let c = WebGpuContext::with_faults(
            DeviceProfile::intel_iris_pro(),
            WebGpuConfig::default(),
            FaultPlan::none().lose_context_at(1).unrestorable(),
        )
        .unwrap();
        let a = c.upload(vec![1.0]).unwrap();
        let id = ComputePipeline::elementwise("Id", 1, 1, |inp, out| out.copy_from_slice(inp[0]));
        assert_eq!(c.dispatch(id, &[&a]), Err(WebGpuError::DeviceLost));
        assert!(!c.restore_device());
        assert!(c.is_device_lost());
    }

    #[test]
    fn blocked_pipeline_fails_creation_deterministically() {
        let c = WebGpuContext::with_faults(
            DeviceProfile::intel_iris_pro(),
            WebGpuConfig::default(),
            FaultPlan::none().block_shader("Square"),
        )
        .unwrap();
        let a = c.upload(vec![3.0]).unwrap();
        let square = || {
            ComputePipeline::elementwise("Square", 1, 1, |inp, out| out[0] = inp[0][0] * inp[0][0])
        };
        let cube =
            ComputePipeline::elementwise("Cube", 1, 1, |inp, out| out[0] = inp[0][0].powi(3));
        for _ in 0..3 {
            assert!(matches!(
                c.dispatch(square(), &[&a]),
                Err(WebGpuError::PipelineCompile { ref pipeline }) if pipeline == "Square"
            ));
        }
        assert_eq!(c.read_sync(&c.dispatch(cube, &[&a]).unwrap()).unwrap(), vec![27.0]);
        assert_eq!(c.fault_stats().compile_failures, 3);
        assert_eq!(c.pipelines_compiled(), 1);
    }

    #[test]
    fn buffer_byte_limit_injects_oom() {
        let c = WebGpuContext::with_faults(
            DeviceProfile::intel_iris_pro(),
            WebGpuConfig::default(),
            FaultPlan::none().with_texture_byte_limit(32 * 1024),
        )
        .unwrap();
        let _a = c.upload(vec![0.0; 4096]).unwrap(); // 16 KB
        let _b = c.upload(vec![0.0; 4096]).unwrap(); // 32 KB
        let err = c.upload(vec![0.0; 4096]).unwrap_err();
        assert!(matches!(err, WebGpuError::Oom { limit, .. } if limit == 32 * 1024));
        assert_eq!(c.fault_stats().oom_failures, 1);
    }

    #[test]
    fn transient_readback_errors_then_succeeds() {
        let c = WebGpuContext::with_faults(
            DeviceProfile::intel_iris_pro(),
            WebGpuConfig::default(),
            FaultPlan::none().with_readback_failures(1.0, 2),
        )
        .unwrap();
        let h = c.upload(vec![5.0]).unwrap();
        assert!(matches!(c.read_sync(&h), Err(WebGpuError::TransientReadback { attempt: 1 })));
        assert!(c.read_sync(&h).unwrap_err().is_transient());
        assert_eq!(c.read_sync(&h).unwrap(), vec![5.0]);
        assert_eq!(c.fault_stats().transient_read_failures, 2);
    }

    #[test]
    fn dispose_recycles_buffers() {
        let c = ctx();
        let h = c.upload(vec![0.0; 64]).unwrap();
        c.flush();
        c.dispose(&h);
        let h2 = c.upload(vec![1.0; 64]).unwrap();
        let m = c.memory();
        assert_eq!(m.recycler_hits, 1, "second same-length upload must recycle");
        assert_eq!(c.read_sync(&h2).unwrap()[0], 1.0);
    }

    #[test]
    fn dispatch_overhead_is_below_webgl_draw_overhead() {
        // The headline claim of the compute API: cheaper command encode.
        const { assert!(crate::queue::DISPATCH_OVERHEAD_NANOS * 2 < 8_000) };
        const { assert!(crate::queue::BUFFER_ALLOC_OVERHEAD_NANOS < 60_000) };
    }
}
