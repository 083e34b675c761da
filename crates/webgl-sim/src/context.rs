//! The GPGPUContext (paper Sec 4.1): the host-side abstraction over a
//! simulated GPU device — upload/readback, kernel dispatch, fences, timer
//! queries, recycling and paging. One context type serves every GPU API;
//! the [`Capabilities`] descriptor it is created with says which one.

use crate::caps::{Capabilities, Storage, WEBGL};
use crate::devices::DeviceProfile;
use crate::fault::{ContextLossEvent, FaultPlan, FaultState, FaultStats};
use crate::future::ReadFuture;
use crate::layout::{LayoutError, TextureLayout};
use crate::pager::{PagerStats, PagingPolicy};
use crate::queue::{device_loop, Command, DeviceShared, Geometry, QueueStats, ReadDone, TexId};
use crate::recycler::RecyclerStats;
use crate::shader::{Kernel, KernelBody};
use crate::texture::TextureFormat;
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Context configuration (the tfjs environment flags).
#[derive(Debug, Clone, Copy)]
pub struct ContextConfig {
    /// The GPU API the context serves ([`WEBGL`] by default): the one
    /// choice of rung.
    pub caps: &'static Capabilities,
    /// Use RGBA texel packing for programs that provide a packed body
    /// (paper Sec 3.9, 1.3-1.4x on PoseNet).
    pub packing: bool,
    /// Use the squeezed logical→physical mapping (paper Sec 4.1, ~1.3x).
    pub squeeze_layout: bool,
    /// Automatic texture paging policy (paper Sec 4.1.2).
    pub paging: PagingPolicy,
    /// Texture recycling (paper Sec 4.1.2).
    pub recycling: bool,
}

impl Default for ContextConfig {
    fn default() -> Self {
        ContextConfig {
            caps: &WEBGL,
            packing: true,
            squeeze_layout: true,
            paging: PagingPolicy::disabled(),
            recycling: true,
        }
    }
}

/// Memory/diagnostic gauges of the device.
#[derive(Debug, Clone, Default)]
pub struct GpuMemoryStats {
    /// Bytes resident in GPU memory.
    pub bytes_in_gpu: usize,
    /// Live allocations (excluding the recycler's free pool).
    pub num_textures: usize,
    /// Kernels executed so far.
    pub programs_run: u64,
    /// Recycler counters.
    pub recycler: RecyclerStats,
    /// Paging counters; `bytes_paged` includes post-loss host shadows.
    pub pager: PagerStats,
    /// Frozen benchmark surface: the compute rung's spelling of
    /// `programs_run`.
    pub dispatches_run: u64,
    /// Frozen benchmark surface: `recycler.hits`.
    pub recycler_hits: u64,
    /// Frozen benchmark surface: `recycler.misses`.
    pub recycler_misses: u64,
}

/// Errors from context operations. The transient/permanent split is what
/// the engine's degradation ladder classifies by, identically on every
/// rung.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// The device cannot host a context of this API at all (Sec 4.1.3): no
    /// float textures for WebGL, no compute API for WebGPU.
    Unsupported {
        /// Device name.
        device: String,
        /// The API asked for.
        api: &'static str,
    },
    /// A tensor exceeded the device texture limits.
    Layout(LayoutError),
    /// Readback failed.
    Read(String),
    /// The context was lost (`webglcontextlost`, `device.lost`). All device
    /// allocations are invalidated; uploads and dispatches fail until the
    /// context is restored, but host-side shadow copies remain readable.
    ContextLost,
    /// Allocation failed: the driver refused `requested` bytes against a
    /// `limit`-byte budget.
    Oom {
        /// Bytes the allocation asked for.
        requested: usize,
        /// The device's byte budget.
        limit: usize,
    },
    /// The driver rejected a kernel at compile / pipeline-creation time.
    Compile {
        /// Name of the rejected kernel.
        kernel: String,
    },
    /// A readback failed transiently; retrying is expected to succeed.
    TransientReadback {
        /// 1-based count of injected readback failures so far.
        attempt: u32,
    },
}

impl DeviceError {
    /// Whether retrying the same operation on the same context can succeed
    /// without intervention (only transient readbacks qualify; context loss
    /// needs a restore, OOM needs frees, compile failures are permanent).
    pub fn is_transient(&self) -> bool {
        matches!(self, DeviceError::TransientReadback { .. })
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Unsupported { device, api } => {
                write!(f, "device {device} cannot host a {api} context")
            }
            DeviceError::Layout(e) => write!(f, "{e}"),
            DeviceError::Read(e) => write!(f, "readback failed: {e}"),
            DeviceError::ContextLost => write!(f, "gpu context lost"),
            DeviceError::Oom { requested, limit } => {
                write!(f, "allocation of {requested} bytes failed (limit {limit} bytes)")
            }
            DeviceError::Compile { kernel } => write!(f, "compilation failed for kernel {kernel}"),
            DeviceError::TransientReadback { attempt } => {
                write!(f, "transient readback failure (injected failure #{attempt})")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<LayoutError> for DeviceError {
    fn from(e: LayoutError) -> Self {
        DeviceError::Layout(e)
    }
}

/// A handle to a device allocation holding one logical tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Handle {
    /// Device allocation id.
    pub id: TexId,
    /// Logical element count.
    pub len: usize,
    /// The compiled logical→physical mapping a fragment body samples
    /// through. `None` on linear storage, where a tensor is just its
    /// flattened values. Shared, so binding the tensor to a draw copies a
    /// pointer rather than the layout's four vectors.
    pub layout: Option<Arc<TextureLayout>>,
}

/// A fence inserted into the command queue (`gl.fenceSync`, Sec 4.1.1). It
/// knows the context that minted it, so it can be handed to any context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FenceHandle {
    context: u64,
    seq: u64,
}

/// Bits of a raw fence token that hold the sequence number; the minting
/// context's process-unique id sits above them.
const FENCE_SEQ_BITS: u32 = 40;

impl FenceHandle {
    /// The fence as one integer, for embedding in backend-neutral tokens.
    pub fn raw(self) -> u64 {
        self.context << FENCE_SEQ_BITS | self.seq
    }

    /// Rebuild a handle from [`FenceHandle::raw`].
    pub fn from_raw(raw: u64) -> FenceHandle {
        FenceHandle { context: raw >> FENCE_SEQ_BITS, seq: raw & ((1 << FENCE_SEQ_BITS) - 1) }
    }
}

/// The host-side GPGPU context over a simulated device.
pub struct GpgpuContext {
    profile: DeviceProfile,
    config: ContextConfig,
    /// Process-unique id, stamped on the fences this context mints.
    id: u64,
    shared: Arc<DeviceShared>,
    sender: Sender<Command>,
    /// Numbers every upload, dispatch (its allocation id) and fence in
    /// submission order, so a fence's number says which work it covers.
    next_id: AtomicU64,
    /// Number of the latest upload or dispatch.
    last_work: AtomicU64,
    /// Work up to this number is covered: a fence the host waited on, or a
    /// blocking read, came after it.
    covered: AtomicU64,
    faults: FaultState,
    /// Compiled-kernel cache, keyed by (name, packed). Compilation is
    /// attempted on first use of each kernel variant and the result cached
    /// — like a real GL program cache — so an injected compile failure
    /// repeats deterministically and a context loss forces recompilation.
    compiled: Mutex<HashSet<(&'static str, bool)>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl GpgpuContext {
    /// Create a context of the API `config.caps` describes on `profile`,
    /// injecting faults according to `plan`. One seedable [`FaultPlan`]
    /// vocabulary serves every API, so a soak seed schedules the same faults
    /// on either rung of the degradation ladder.
    ///
    /// # Errors
    /// [`DeviceError::Unsupported`] when `profile` cannot host the API (no
    /// float textures, no compute API) — callers should fall back down the
    /// ladder, as TensorFlow.js does.
    pub fn new(
        profile: DeviceProfile,
        config: ContextConfig,
        plan: FaultPlan,
    ) -> Result<GpgpuContext, DeviceError> {
        static NEXT_CONTEXT: AtomicU64 = AtomicU64::new(1);
        let caps = config.caps;
        if !caps.supported_on(&profile) {
            return Err(DeviceError::Unsupported { device: profile.name.clone(), api: caps.api });
        }
        let shared = Arc::new(DeviceShared::new(config.recycling));
        let (tx, rx) = crossbeam::channel::unbounded();
        let worker_shared = shared.clone();
        let (device, paging) = (profile.clone(), config.paging);
        let worker = std::thread::Builder::new()
            .name(caps.device_thread.into())
            .spawn(move || device_loop(rx, worker_shared, caps, &device, paging))
            .expect("spawn device thread");
        Ok(GpgpuContext {
            profile,
            config,
            id: NEXT_CONTEXT.fetch_add(1, Ordering::Relaxed),
            shared,
            sender: tx,
            next_id: AtomicU64::new(1),
            last_work: AtomicU64::new(0),
            covered: AtomicU64::new(0),
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
    pub fn config(&self) -> &ContextConfig {
        &self.config
    }

    fn base_format(&self, packed: bool) -> TextureFormat {
        let fmt = if self.profile.half_precision_only { TextureFormat::R16F } else { TextureFormat::R32F };
        fmt.with_packing(packed)
    }

    /// Where a `len`-element tensor of logical `shape` goes on this device:
    /// a compiled texture layout, or a bare `1 × len` linear buffer.
    fn place(
        &self,
        shape: &[usize],
        len: usize,
        format: TextureFormat,
    ) -> Result<(Option<Arc<TextureLayout>>, Geometry), DeviceError> {
        match self.config.caps.storage {
            Storage::Texture => {
                let layout = TextureLayout::compile(
                    shape,
                    format,
                    self.profile.max_texture_size,
                    self.config.squeeze_layout,
                )?;
                let geometry = (layout.tex_rows, layout.tex_cols, format);
                Ok((Some(Arc::new(layout)), geometry))
            }
            Storage::Linear => Ok((None, (1, len, format))),
        }
    }

    /// Upload host values as a new device tensor.
    ///
    /// # Errors
    /// [`DeviceError::Layout`] when the tensor exceeds texture limits;
    /// [`DeviceError::ContextLost`] / [`DeviceError::Oom`] under injected
    /// faults.
    pub fn upload(&self, data: Vec<f32>, shape: &[usize]) -> Result<Handle, DeviceError> {
        self.try_upload(data, shape, false).map_err(|(e, _)| e)
    }

    /// Like [`upload`](Self::upload), but returns the data on failure so
    /// callers can keep a host-side copy instead of losing the values —
    /// the basis of graceful degradation in the backend above.
    ///
    /// With `byte_codes` the values are u8 quantization codes widened to
    /// f32 and land in one byte per code of device memory (`R8`, 4x less
    /// than f32), which is what the allocator, the paging policy and the
    /// injected OOM fault all see. Kernels read the codes widened; the
    /// affine dequantization stays in the consuming kernel's epilogue.
    ///
    /// # Errors
    /// As [`upload`](Self::upload), with the rejected data attached.
    pub fn try_upload(
        &self,
        data: Vec<f32>,
        shape: &[usize],
        byte_codes: bool,
    ) -> Result<Handle, (DeviceError, Vec<f32>)> {
        if self.faults.is_lost() {
            return Err((DeviceError::ContextLost, data));
        }
        let format = if byte_codes { TextureFormat::R8 } else { self.base_format(false) };
        let placed = self.place(shape, data.len(), format);
        let (layout, geometry) = match placed.and_then(|p| self.check_alloc(p.1).map(|()| p)) {
            Ok(p) => p,
            Err(e) => return Err((e, data)),
        };
        let (id, len) = (self.work_id(), data.len());
        self.sender.send(Command::Upload { tex: id, data, geometry }).expect("device thread alive");
        Ok(Handle { id, len, layout })
    }

    /// Upload u8 quantization codes, one byte each on the device (see
    /// [`try_upload`](Self::try_upload)).
    ///
    /// # Errors
    /// As [`upload`](Self::upload).
    pub fn upload_quantized(&self, codes: &[u8], shape: &[usize]) -> Result<Handle, DeviceError> {
        let widened = codes.iter().map(|&c| c as f32).collect();
        self.try_upload(widened, shape, true).map_err(|(e, _)| e)
    }

    /// Number a new upload or dispatch.
    fn work_id(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.last_work.fetch_max(id, Ordering::SeqCst);
        id
    }

    /// Host-side allocation gate for the injected OOM fault: a real driver
    /// reports `gl.OUT_OF_MEMORY` synchronously at allocation. Only runs
    /// (and only drains the queue, for an accurate residency figure) when
    /// the fault plan sets a byte limit.
    fn check_alloc(&self, (rows, cols, format): Geometry) -> Result<(), DeviceError> {
        if self.faults.plan().texture_byte_limit.is_none() {
            return Ok(());
        }
        self.flush();
        let requested = rows * cols * format.texel_bytes();
        let resident = self.shared.bytes_gpu.load(Ordering::Relaxed);
        let paging = self.config.caps.paging && self.config.paging.enabled;
        match self.faults.alloc_blocked(requested, resident, paging) {
            Some(limit) => Err(DeviceError::Oom { requested, limit }),
            None => Ok(()),
        }
    }

    /// Enqueue a kernel over `inputs`, returning the output handle
    /// immediately (sub-millisecond) while the device computes.
    ///
    /// Packed fragment bodies run packed only when the context enables
    /// packing; otherwise the per-element path must be provided by the
    /// caller (kernels carry a single body).
    ///
    /// # Errors
    /// [`DeviceError::Layout`] when the output exceeds texture limits;
    /// [`DeviceError::ContextLost`], [`DeviceError::Compile`] or
    /// [`DeviceError::Oom`] under injected faults. A fragment body given an
    /// input without a texture layout cannot compile either.
    pub fn run<H: Borrow<Handle>>(&self, kernel: Kernel, inputs: &[H]) -> Result<Handle, DeviceError> {
        if self.faults.is_lost() {
            return Err(DeviceError::ContextLost);
        }
        let packed = kernel.is_packed() && self.config.packing;
        self.compile(&kernel, packed)?;
        let len = kernel.out_size();
        let (layout, out_geometry) = self.place(&kernel.out_shape, len, self.base_format(packed))?;
        self.check_alloc(out_geometry)?;
        let in_layouts = match kernel.body {
            KernelBody::Compute { .. } => Vec::new(),
            KernelBody::Fragment { .. } => inputs
                .iter()
                .map(|h| h.borrow().layout.clone())
                .collect::<Option<_>>()
                .ok_or_else(|| DeviceError::Compile { kernel: kernel.name.to_string() })?,
        };
        if let Some(event) = self.faults.before_draw() {
            // The dispatch itself loses the context: invalidate every
            // device allocation (the device converts them to host-side
            // shadows) and fire the loss observers.
            self.sender.send(Command::LoseContext).expect("device thread alive");
            self.compiled.lock().clear();
            self.faults.notify_loss(&event);
            return Err(DeviceError::ContextLost);
        }
        let id = self.work_id();
        // Straggler injection: decided host-side (seeded, synchronous, like
        // every other fault decision) but paid on the device thread, where a
        // real throttled GPU would pay it.
        let stall_ns = self.faults.draw_stall().unwrap_or(0);
        self.sender
            .send(Command::Run {
                kernel,
                inputs: inputs.iter().map(|h| h.borrow().id).collect(),
                in_layouts,
                output: id,
                out_geometry,
                stall_ns,
                trace_id: webml_telemetry::current_trace_id(),
            })
            .expect("device thread alive");
        Ok(Handle { id, len, layout })
    }

    /// Re-view a tensor under a different logical shape (same element
    /// count): the free `reshape` of paper Sec 3.4 — no data moves, only
    /// the layout's accessor math changes. Linear storage has no accessor
    /// math, so there the handle comes back as it is, as does one already
    /// viewed under `shape`.
    ///
    /// # Errors
    /// [`DeviceError::Layout`] when the shape cannot be laid out (cannot
    /// happen for shapes of equal size to an existing layout, kept for
    /// safety).
    pub fn relayout(&self, h: &Handle, shape: &[usize]) -> Result<Handle, DeviceError> {
        let Some(old) = h.layout.as_ref().filter(|old| old.logical != shape) else {
            return Ok(h.clone());
        };
        let mut layout = TextureLayout::compile(
            shape,
            old.format,
            self.profile.max_texture_size,
            self.config.squeeze_layout,
        )?;
        // Keep the physical texture geometry of the existing allocation.
        layout.tex_rows = old.tex_rows;
        layout.tex_cols = old.tex_cols;
        Ok(Handle { id: h.id, len: h.len, layout: Some(Arc::new(layout)) })
    }

    /// Attempt to compile (or fetch from the kernel cache) a kernel.
    fn compile(&self, kernel: &Kernel, packed: bool) -> Result<(), DeviceError> {
        let key = (kernel.name, packed);
        let mut cache = self.compiled.lock();
        if cache.contains(&key) {
            return Ok(());
        }
        if self.faults.compile_blocked(kernel.name, self.profile.half_precision_only) {
            return Err(DeviceError::Compile { kernel: kernel.name.to_string() });
        }
        cache.insert(key);
        Ok(())
    }

    /// Blocking readback (`gl.readPixels` after an implicit flush) — the
    /// `dataSync()` path of Figure 2. A read that follows an upload or
    /// dispatch which no fence the host waited on, and no earlier blocking
    /// read, covers pays the profile's pipeline drain on the device
    /// timeline ([`timeline_ns`](Self::timeline_ns)); wait on a fence
    /// first (the Figure 3 discipline) to read for free. The decision reads
    /// only what the host submitted and waited on, never how far the device
    /// thread has got.
    ///
    /// Readback keeps working after a context loss: the device preserves
    /// host-side shadows of invalidated allocations, exactly the copies a
    /// recovery path re-uploads elsewhere.
    ///
    /// # Errors
    /// [`DeviceError::Read`] when the allocation does not exist;
    /// [`DeviceError::TransientReadback`] under injected faults.
    pub fn read_sync(&self, h: &Handle) -> Result<Vec<f32>, DeviceError> {
        let (future, promise) = ReadFuture::pending();
        self.enqueue_read(h, true, Box::new(move |values| promise.complete(values)))?;
        future.wait().map_err(DeviceError::Read)
    }

    /// Asynchronous readback — the `data()` path of Figure 3. `done` runs
    /// on the device thread once the device has executed all prior commands
    /// and copied the values out; a device-side failure (nonexistent
    /// allocation) reaches it as a string. Asynchronous reads model the
    /// fence-synchronized path and never pay the pipeline drain — the host
    /// is not blocked while the queue executes.
    ///
    /// # Errors
    /// [`DeviceError::TransientReadback`] under injected faults: reported
    /// synchronously and structured (`done` is dropped uncalled), so callers
    /// can classify and retry.
    pub fn read_async(
        &self,
        h: &Handle,
        done: impl FnOnce(Result<Vec<f32>, String>) + Send + 'static,
    ) -> Result<(), DeviceError> {
        self.enqueue_read(h, false, Box::new(done))
    }

    fn enqueue_read(&self, h: &Handle, blocking: bool, done: ReadDone) -> Result<(), DeviceError> {
        if let Some(attempt) = self.faults.readback_blocked() {
            return Err(DeviceError::TransientReadback { attempt });
        }
        let work = self.last_work.load(Ordering::SeqCst);
        let drain_ns = if blocking && self.covered.fetch_max(work, Ordering::SeqCst) < work {
            self.profile.readback_sync_penalty_ns
        } else {
            0
        };
        self.sender
            .send(Command::ReadPixels { tex: h.id, len: h.len, drain_ns, done })
            .expect("device thread alive");
        Ok(())
    }

    /// Whether the context is currently lost.
    pub fn is_context_lost(&self) -> bool {
        self.faults.is_lost()
    }

    /// Attempt to restore a lost context, like the browser's
    /// `webglcontextrestored` flow (or requesting a new device from the
    /// adapter). Returns whether the context is usable: `true` when it was
    /// not lost, or when the fault plan allows restoration. The kernel cache
    /// stays cleared after a loss, so kernels recompile on next use;
    /// invalidated allocations page back onto the device lazily from their
    /// host shadows.
    pub fn restore_context(&self) -> bool {
        if !self.faults.is_lost() {
            return true;
        }
        self.faults.try_restore()
    }

    /// Register an observer for context-loss events — the simulator's
    /// `webglcontextlost` / `device.lost` listener.
    pub fn on_context_lost(&self, f: impl Fn(&ContextLossEvent) + Send + Sync + 'static) {
        self.faults.add_observer(Box::new(f));
    }

    /// Counters of injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Number of kernel variants in the compiled-kernel cache.
    pub fn programs_compiled(&self) -> usize {
        self.compiled.lock().len()
    }

    /// Frozen benchmark surface: the compute rung's spelling of
    /// [`programs_compiled`](Self::programs_compiled).
    pub fn pipelines_compiled(&self) -> usize {
        self.programs_compiled()
    }

    /// Release an allocation back to the recycler.
    pub fn dispose(&self, h: &Handle) {
        let _ = self.sender.send(Command::Dispose { tex: h.id });
    }

    /// Insert a fence into the command queue (`gl.fenceSync`).
    pub fn fence(&self) -> FenceHandle {
        let seq = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.sender.send(Command::Fence { id: seq }).expect("device thread alive");
        FenceHandle { context: self.id, seq }
    }

    /// Poll whether a fence has passed (all commands before it completed).
    /// A fence another context minted counts as passed: that device's queue
    /// drains independently of this one, and nothing here can wait on it.
    pub fn fence_passed(&self, f: FenceHandle) -> bool {
        f.context != self.id || self.shared.last_fence.load(Ordering::SeqCst) >= f.seq
    }

    /// Block until a fence passes — `gl.clientWaitSync`. A condvar sleep,
    /// not a spin: the device thread notifies as each fence command
    /// executes. Fast-path returns without locking when the fence already
    /// passed (or is foreign, see [`fence_passed`](Self::fence_passed));
    /// only genuine sleeps count in
    /// [`QueueStats::fence_waits`]/[`QueueStats::fence_wait_ns`]. Either
    /// way, the work submitted before the fence is covered: a blocking read
    /// of it pays no pipeline drain.
    pub fn wait_fence(&self, f: FenceHandle) {
        if f.context != self.id {
            return;
        }
        if self.shared.last_fence.load(Ordering::SeqCst) < f.seq {
            let t0 = webml_telemetry::now_ns();
            let mut guard = self.shared.fence_lock.lock();
            while self.shared.last_fence.load(Ordering::SeqCst) < f.seq {
                self.shared.fence_cond.wait(&mut guard);
            }
            drop(guard);
            self.shared.fence_waits.fetch_add(1, Ordering::Relaxed);
            self.shared
                .fence_wait_ns
                .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
        }
        self.covered.fetch_max(f.seq, Ordering::SeqCst);
    }

    /// Block until every queued command has executed: insert a fence and
    /// wait for it.
    pub fn flush(&self) {
        self.wait_fence(self.fence());
    }

    /// Snapshot of device-queue counters (busy time, fence waits, pipeline
    /// drains). Does not flush.
    pub fn queue_stats(&self) -> QueueStats {
        self.shared.queue_stats()
    }

    /// The cumulative timer-query counter: modeled device nanoseconds spent
    /// executing kernels (excluding upload/download, as the paper's WebGL
    /// timing does) since context creation; a timing window is the
    /// difference of two samples. Does *not* flush — pair with
    /// [`GpgpuContext::flush`] when the sample must cover already-enqueued
    /// work.
    pub fn device_nanos(&self) -> u64 {
        self.shared.gpu_nanos.load(Ordering::Relaxed)
    }

    /// The device timeline: [`device_nanos`](Self::device_nanos) plus the
    /// pipeline drains blocking reads paid ([`QueueStats::drain_ns`]), in
    /// nanoseconds. It is the clock of the main-thread figures: a blocking
    /// read holds the main thread for the timeline's advance across it.
    /// Flushes first, so the sample covers every enqueued command.
    pub fn timeline_ns(&self) -> u64 {
        self.flush();
        self.device_nanos() + self.shared.drain_ns.load(Ordering::Relaxed)
    }

    /// Memory and diagnostics snapshot (flushes first for stable numbers).
    pub fn memory(&self) -> GpuMemoryStats {
        self.flush();
        let programs_run = self.shared.program_count.load(Ordering::Relaxed);
        let recycler = self.shared.recycler_stats();
        GpuMemoryStats {
            bytes_in_gpu: self.shared.bytes_gpu.load(Ordering::Relaxed),
            num_textures: self.shared.textures.lock().len(),
            programs_run,
            recycler,
            pager: *self.shared.pager.lock(),
            dispatches_run: programs_run,
            recycler_hits: recycler.hits,
            recycler_misses: recycler.misses,
        }
    }
}

impl Drop for GpgpuContext {
    fn drop(&mut self) {
        let _ = self.sender.send(Command::Shutdown);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

/// What only a texture device does. The behaviours every descriptor shares
/// (round trips, fences, recycling, loss and recovery, injected faults,
/// timing) are one contract suite, `tests/descriptors.rs`.
#[cfg(test)]
mod tests {
    use super::*;

    fn paging_ctx(threshold_bytes: usize, plan: FaultPlan) -> GpgpuContext {
        let config = ContextConfig {
            paging: PagingPolicy { enabled: true, threshold_bytes },
            ..Default::default()
        };
        GpgpuContext::new(DeviceProfile::intel_iris_pro(), config, plan).unwrap()
    }

    fn webgl(profile: DeviceProfile) -> GpgpuContext {
        GpgpuContext::new(profile, ContextConfig::default(), FaultPlan::none()).unwrap()
    }

    #[test]
    fn f16_device_rounds_uploads() {
        let c = webgl(DeviceProfile::ios_safari());
        let h = c.upload(vec![1e-8, 1.0], &[2]).unwrap();
        assert_eq!(c.read_sync(&h).unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn handles_carry_the_compiled_layout_and_relayout_keeps_the_allocation() {
        let c = webgl(DeviceProfile::intel_iris_pro());
        let codes = c.upload_quantized(&[0; 256], &[256]).unwrap();
        let layout = codes.layout.as_ref().expect("texture storage");
        assert_eq!((layout.format, layout.byte_size()), (TextureFormat::R8, 256));
        let h = c.upload((0..6).map(|i| i as f32).collect(), &[6]).unwrap();
        assert_eq!(h.layout.as_ref().unwrap().byte_size(), 2 * 3 * 4, "a near-square texture");
        // The free reshape of Sec 3.4: same texture, new accessor math.
        let view = c.relayout(&h, &[2, 3]).unwrap();
        let (old, new) = (h.layout.as_ref().unwrap(), view.layout.as_ref().unwrap());
        assert_eq!((view.id, new.tex_rows, new.tex_cols), (h.id, old.tex_rows, old.tex_cols));
        let row1 = Kernel::per_element("Row1", vec![3], |s, _, at| s.get(0, &[1, at[0]]));
        assert_eq!(c.read_sync(&c.run(row1, &[&view]).unwrap()).unwrap(), vec![3.0, 4.0, 5.0]);
        // A tensor beyond the device's texture limit does not lay out.
        let tiny = DeviceProfile { max_texture_size: 4, ..DeviceProfile::intel_iris_pro() };
        let c = webgl(tiny);
        assert!(matches!(c.upload(vec![0.0; 17], &[17]), Err(DeviceError::Layout(_))));
    }

    #[test]
    fn samplers_see_logical_values_not_a_recycled_textures_padding() {
        let c = webgl(DeviceProfile::intel_iris_pro());
        // A 4x4 texture full of 9s goes back to the recycler...
        c.dispose(&c.upload(vec![9.0; 16], &[16]).unwrap());
        // ...and comes out again for a 13-value output, 3 stale slots beyond.
        let ramp = Kernel::per_element("Ramp", vec![13], |_, i, _| i as f32);
        let h = c.run(ramp, &[] as &[&Handle]).unwrap();
        assert_eq!(c.memory().recycler.hits, 1);
        let last = Kernel::packed("LastTexel", vec![4], |s, _| s.texel(0, 12));
        assert_eq!(c.read_sync(&c.run(last, &[&h]).unwrap()).unwrap(), vec![12.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn paging_prevents_unbounded_gpu_growth() {
        let c = paging_ctx(64 * 1024, FaultPlan::none());
        // Allocate ~1 MB without disposing anything (a leaky app).
        let mut handles = Vec::new();
        for i in 0..64 {
            handles.push(c.upload(vec![i as f32; 4096], &[4096]).unwrap());
        }
        let m = c.memory();
        assert!(m.bytes_in_gpu <= 96 * 1024, "GPU stays near threshold, got {}", m.bytes_in_gpu);
        assert!(m.pager.page_outs > 0);
        // Paged textures are still readable and correct.
        assert_eq!(c.read_sync(&handles[0]).unwrap()[0], 0.0);
        assert_eq!(c.read_sync(&handles[5]).unwrap()[0], 5.0);
    }

    #[test]
    fn paging_absorbs_pressure_under_a_byte_limit() {
        // Without paging this pressure is an OOM (the contract suite's
        // `byte_limit_injects_oom`); with it, page-outs absorb it.
        let c = paging_ctx(24 * 1024, FaultPlan::none().with_texture_byte_limit(32 * 1024));
        let mut handles = Vec::new();
        for i in 0..8 {
            handles.push(c.upload(vec![i as f32; 4096], &[4096]).unwrap());
        }
        assert!(c.memory().pager.page_outs > 0);
        assert_eq!(c.read_sync(&handles[0]).unwrap()[0], 0.0);
        // A single allocation beyond the limit still fails.
        assert!(matches!(c.upload(vec![0.0; 16384], &[16384]), Err(DeviceError::Oom { .. })));
    }

    #[test]
    fn paged_texture_pages_back_in_when_sampled() {
        let c = paging_ctx(32 * 1024, FaultPlan::none());
        let first = c.upload(vec![7.0; 4096], &[4096]).unwrap();
        for _ in 0..16 {
            let _ = c.upload(vec![0.0; 4096], &[4096]).unwrap();
        }
        // `first` should have been paged out by now; running a program on it
        // pages it back in.
        let prog = Kernel::per_element("AddOne", vec![4096], |s, i, _| s.get_flat(0, i) + 1.0);
        let out = c.run(prog, &[&first]).unwrap();
        assert_eq!(c.read_sync(&out).unwrap()[0], 8.0);
        assert!(c.memory().pager.page_ins > 0);
    }
}
