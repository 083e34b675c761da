//! The GPU command queue and device thread (paper Sec 4.1.1).
//!
//! "When the user calls an operation, we enqueue a program onto the GPU
//! command queue, which typically takes sub-millisecond time, and
//! immediately return a handle to the resulting tensor despite the
//! computation not being done." Commands execute in order on a dedicated
//! device thread; fences and readbacks are themselves commands, which gives
//! the same ordering guarantees as a real GL command stream.

use crate::future::ReadPromise;
use crate::layout::TextureLayout;
use crate::pager::{select_victims, PagerStats, PagingPolicy};
use crate::recycler::{RecyclerStats, TextureRecycler};
use crate::shader::{execute, Program};
use crate::texture::{Texture, TextureFormat};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Identifier of a device texture.
pub type TexId = u64;

/// Residency state of a texture.
pub enum SlotState {
    /// Resident in (simulated) GPU memory.
    Gpu(Texture),
    /// Paged out to CPU memory (paper Sec 4.1.2).
    Paged {
        /// Physical rows.
        rows: usize,
        /// Physical cols.
        cols: usize,
        /// Texture format to restore with.
        format: TextureFormat,
        /// The values, kept on the host.
        data: Vec<f32>,
    },
}

/// A texture slot with LRU bookkeeping.
pub struct Slot {
    /// Residency.
    pub state: SlotState,
    /// Monotone use counter for LRU eviction.
    pub last_use: u64,
}

/// Commands accepted by the device thread, executed strictly in order.
// Run dominates real queues anyway, and boxing its fields would cost an
// allocation per draw call on the hot path.
#[allow(clippy::large_enum_variant)]
pub enum Command {
    /// Upload host data into a new texture.
    Upload {
        /// Destination texture id.
        tex: TexId,
        /// Values to upload.
        data: Vec<f32>,
        /// Physical rows.
        rows: usize,
        /// Physical cols.
        cols: usize,
        /// Texture format.
        format: TextureFormat,
    },
    /// Execute a shader program into a fresh output texture.
    Run {
        /// The program.
        program: Program,
        /// Input texture ids.
        inputs: Vec<TexId>,
        /// Input layouts (parallel to `inputs`).
        in_layouts: Vec<TextureLayout>,
        /// Output texture id (fresh).
        output: TexId,
        /// Output layout.
        out_layout: TextureLayout,
        /// Injected straggler stall: device nanoseconds added to the clock
        /// (and slept wall-clock) before the program runs. 0 = no stall.
        stall_ns: u64,
        /// Request trace id active on the submitting thread at enqueue
        /// time (0 = untraced). Carried across the thread hop so the GPU
        /// span lands in the same causal lane as the request that issued
        /// the draw call.
        trace_id: u64,
    },
    /// Read a texture back to the host (`gl.readPixels`), resolving the
    /// promise with the first `len` values.
    ReadPixels {
        /// Texture to read.
        tex: TexId,
        /// Number of logical values wanted.
        len: usize,
        /// Simulated driver pipeline-drain cost (paper Fig 2): non-zero
        /// only for a *synchronous* read issued while the queue still had
        /// unfinished work. Slept as wall-clock before the copy-out; never
        /// added to the device compute clock and never counted busy.
        drain_ns: u64,
        /// Completion promise.
        promise: ReadPromise,
    },
    /// Mark a fence as passed once all prior commands completed
    /// (`gl.fenceSync`).
    Fence {
        /// Fence id.
        id: u64,
    },
    /// Release a texture (returned to the recycler).
    Dispose {
        /// Texture to release.
        tex: TexId,
    },
    /// The context was lost: invalidate every device texture. GPU residency
    /// drops to zero; contents are preserved as host-side shadows (the
    /// copies a recovery path re-uploads), so readback keeps working.
    LoseContext,
    /// Stop the device thread.
    Shutdown,
}

/// State shared between the host-side context and the device thread.
pub struct DeviceShared {
    /// Texture registry.
    pub textures: Mutex<HashMap<TexId, Slot>>,
    /// Highest fence id that has passed. Kept atomic so `fence_passed`
    /// stays a lock-free poll; the device thread additionally stores it
    /// under `fence_lock` and notifies `fence_cond`, so a blocking
    /// `wait_fence` can sleep instead of spinning.
    pub last_fence: AtomicU64,
    /// Guards fence-passing notification (pairs with `fence_cond`).
    pub fence_lock: Mutex<()>,
    /// Signalled by the device thread each time a fence passes.
    pub fence_cond: Condvar,
    /// Total device-side execution time (the disjoint-timer-query counter).
    pub gpu_nanos: AtomicU64,
    /// Wall-clock nanoseconds the device thread spent executing commands
    /// (uploads, draws, readbacks, disposals) — the numerator of the
    /// device-thread utilization gauge. Injected drain sleeps are idle,
    /// not busy.
    pub busy_ns: AtomicU64,
    /// Number of blocking `wait_fence` calls that actually slept.
    pub fence_waits: AtomicU64,
    /// Total nanoseconds hosts spent blocked in `wait_fence`.
    pub fence_wait_ns: AtomicU64,
    /// Synchronous readbacks that forced a driver pipeline drain.
    pub drains: AtomicU64,
    /// Total wall-clock nanoseconds lost to those drains.
    pub drain_ns: AtomicU64,
    /// Upload/draw commands enqueued by the host but not yet executed by
    /// the device thread. `read_sync` uses this to decide whether a
    /// blocking read stalls the pipeline.
    pub pending: AtomicU64,
    /// Number of programs executed.
    pub program_count: AtomicU64,
    /// Bytes resident in GPU memory.
    pub bytes_gpu: AtomicUsize,
    /// Paging statistics.
    pub pager: Mutex<PagerStats>,
    /// The texture recycler.
    pub recycler: Mutex<TextureRecycler>,
    /// Monotone use counter.
    pub use_counter: AtomicU64,
}

/// Counters of device-queue behaviour, snapshotted without flushing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Wall-clock ns the device thread spent executing commands.
    pub busy_ns: u64,
    /// Blocking `wait_fence` calls that actually slept.
    pub fence_waits: u64,
    /// Total ns hosts spent blocked in `wait_fence`.
    pub fence_wait_ns: u64,
    /// Synchronous readbacks that forced a pipeline drain.
    pub drains: u64,
    /// Total ns lost to those drains.
    pub drain_ns: u64,
    /// Upload/draw commands enqueued but not yet executed.
    pub pending: u64,
}

impl DeviceShared {
    /// Fresh shared state.
    pub fn new(recycling_enabled: bool) -> DeviceShared {
        DeviceShared {
            textures: Mutex::new(HashMap::new()),
            last_fence: AtomicU64::new(0),
            fence_lock: Mutex::new(()),
            fence_cond: Condvar::new(),
            gpu_nanos: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            fence_waits: AtomicU64::new(0),
            fence_wait_ns: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            drain_ns: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            program_count: AtomicU64::new(0),
            bytes_gpu: AtomicUsize::new(0),
            pager: Mutex::new(PagerStats::default()),
            recycler: Mutex::new(TextureRecycler::new(recycling_enabled)),
            use_counter: AtomicU64::new(0),
        }
    }

    /// Snapshot of recycler statistics.
    pub fn recycler_stats(&self) -> RecyclerStats {
        self.recycler.lock().stats()
    }

    /// Snapshot of queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        QueueStats {
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            fence_waits: self.fence_waits.load(Ordering::Relaxed),
            fence_wait_ns: self.fence_wait_ns.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            drain_ns: self.drain_ns.load(Ordering::Relaxed),
            pending: self.pending.load(Ordering::SeqCst),
        }
    }

    fn touch(&self) -> u64 {
        self.use_counter.fetch_add(1, Ordering::Relaxed)
    }
}

/// Run the device loop until [`Command::Shutdown`]. Executed on the device
/// thread spawned by [`crate::context::GpgpuContext`].
pub fn device_loop(
    rx: crossbeam::channel::Receiver<Command>,
    shared: Arc<DeviceShared>,
    parallelism: usize,
    half_precision: bool,
    paging: PagingPolicy,
) {
    // The device's persistent shader cores. The pool is bounded by the
    // host machine; `parallelism` stays the *modeled* core count used by
    // the simulated-time accounting below.
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let pool = webml_core::pool::WorkerPool::new(parallelism.min(host));
    // Device-thread utilization window: busy nanoseconds accumulated since
    // the last fence over the wall-clock extent of the window. Fences are
    // exactly the points a pipelined executor punctuates its schedule with,
    // so each window covers one submit→fence interval.
    let mut window_wall = webml_telemetry::now_ns();
    let mut window_busy = 0u64;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Upload { tex, data, rows, cols, format } => {
                let t0 = webml_telemetry::now_ns();
                let (mut t, recycled) = shared.recycler.lock().acquire(rows, cols, format);
                if !recycled {
                    shared.gpu_nanos.fetch_add(TEXTURE_ALLOC_OVERHEAD_NANOS, Ordering::Relaxed);
                }
                // Recycled textures may be dirty; the upload overwrites the
                // prefix, so only the tail beyond the uploaded data needs
                // zeroing.
                let tail = data.len().min(t.data.len());
                t.data[tail..].fill(0.0);
                t.upload(&data);
                shared.bytes_gpu.fetch_add(t.byte_size(), Ordering::Relaxed);
                let last_use = shared.touch();
                shared.textures.lock().insert(tex, Slot { state: SlotState::Gpu(t), last_use });
                maybe_page_out(&shared, &paging);
                shared
                    .busy_ns
                    .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
                shared.pending.fetch_sub(1, Ordering::SeqCst);
            }
            Command::Run { program, inputs, in_layouts, output, out_layout, stall_ns, trace_id } => {
                let t0 = webml_telemetry::now_ns();
                if stall_ns > 0 {
                    // An injected straggler: the device clock advances and
                    // the device thread really stalls, so the spike is
                    // observable both in modeled time and in wall-clock
                    // latency (the signal a serving router's health tracker
                    // reacts to).
                    shared.gpu_nanos.fetch_add(stall_ns, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_nanos(stall_ns));
                }
                run_program(
                    &shared, program, &inputs, &in_layouts, output, &out_layout, &pool,
                    parallelism, half_precision, trace_id,
                );
                maybe_page_out(&shared, &paging);
                shared
                    .busy_ns
                    .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
                shared.pending.fetch_sub(1, Ordering::SeqCst);
            }
            Command::ReadPixels { tex, len, drain_ns, promise } => {
                if drain_ns > 0 {
                    // Fig 2: a blocking readPixels issued against a busy
                    // pipeline stalls until the driver drains. The host is
                    // already blocked on the promise, so the sleep lands as
                    // caller-visible latency — and as device *idle* time.
                    shared.drains.fetch_add(1, Ordering::Relaxed);
                    shared.drain_ns.fetch_add(drain_ns, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_nanos(drain_ns));
                }
                let t0 = webml_telemetry::now_ns();
                let textures = shared.textures.lock();
                match textures.get(&tex) {
                    Some(slot) => {
                        let data = match &slot.state {
                            SlotState::Gpu(t) => t.data[..len.min(t.data.len())].to_vec(),
                            SlotState::Paged { data, .. } => data[..len.min(data.len())].to_vec(),
                        };
                        drop(textures);
                        promise.complete(Ok(data));
                    }
                    None => {
                        drop(textures);
                        promise.complete(Err(format!("texture {tex} does not exist")));
                    }
                }
                shared
                    .busy_ns
                    .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
            }
            Command::Fence { id } => {
                // Close the utilization window first so the gauge reflects
                // the interval this fence terminates.
                let now = webml_telemetry::now_ns();
                let busy_total = shared.busy_ns.load(Ordering::Relaxed);
                let wall = now.saturating_sub(window_wall);
                if wall > 0 {
                    let util = ((busy_total.saturating_sub(window_busy)) as f64 / wall as f64)
                        .clamp(0.0, 1.0);
                    webml_telemetry::fgauge("webml_device_utilization").set(util);
                    if webml_telemetry::enabled() {
                        webml_telemetry::gpu_instant("device_utilization", "utilization", util);
                    }
                }
                window_wall = now;
                window_busy = busy_total;
                // Publish under the lock so a host blocked in `wait_fence`
                // cannot check the atomic, miss this store, and then sleep
                // past the notification.
                let _guard = shared.fence_lock.lock();
                shared.last_fence.store(id, Ordering::SeqCst);
                shared.fence_cond.notify_all();
            }
            Command::Dispose { tex } => {
                // Queue order makes disposal fence-safe: every consumer of
                // this texture was enqueued (and therefore executes) before
                // the Dispose, so recycling here can never race a use.
                let slot = shared.textures.lock().remove(&tex);
                if let Some(slot) = slot {
                    match slot.state {
                        SlotState::Gpu(t) => {
                            shared.bytes_gpu.fetch_sub(t.byte_size(), Ordering::Relaxed);
                            shared.recycler.lock().release(t);
                        }
                        SlotState::Paged { data, .. } => {
                            shared.pager.lock().bytes_paged -= data.len() * 4;
                        }
                    }
                }
            }
            Command::LoseContext => {
                // All GPU-resident textures are gone. Keep each texture's
                // values as a host shadow in the paged state so readback
                // (and later lazy re-upload) still works; drop the
                // recycler's free pool outright.
                shared.recycler.lock().clear();
                let mut textures = shared.textures.lock();
                let mut freed = 0usize;
                let mut shadow_bytes = 0usize;
                for slot in textures.values_mut() {
                    if matches!(slot.state, SlotState::Gpu(_)) {
                        let placeholder = SlotState::Paged {
                            rows: 0,
                            cols: 0,
                            format: TextureFormat::R32F,
                            data: Vec::new(),
                        };
                        if let SlotState::Gpu(t) = std::mem::replace(&mut slot.state, placeholder)
                        {
                            freed += t.byte_size();
                            let (rows, cols, format, data) = t.into_shadow();
                            shadow_bytes += data.len() * 4;
                            slot.state = SlotState::Paged { rows, cols, format, data };
                        }
                    }
                }
                drop(textures);
                shared.bytes_gpu.fetch_sub(freed, Ordering::Relaxed);
                shared.pager.lock().bytes_paged += shadow_bytes;
            }
            Command::Shutdown => break,
        }
    }
}

#[allow(clippy::too_many_arguments)]
/// Fixed per-draw-call device overhead in the simulated-time model
/// (command decode, pipeline state, framebuffer bind).
const DRAW_CALL_OVERHEAD_NANOS: u64 = 8_000;

/// Simulated driver cost of allocating a fresh WebGL texture (paper
/// Sec 4.1.2: "disposing and re-allocating WebGL textures is relatively
/// expensive") — avoided entirely when the recycler supplies a texture.
const TEXTURE_ALLOC_OVERHEAD_NANOS: u64 = 60_000;

#[allow(clippy::too_many_arguments)]
fn run_program(
    shared: &Arc<DeviceShared>,
    program: Program,
    inputs: &[TexId],
    in_layouts: &[TextureLayout],
    output: TexId,
    out_layout: &TextureLayout,
    pool: &webml_core::pool::WorkerPool,
    modeled_parallelism: usize,
    half_precision: bool,
    trace_id: u64,
) {
    let t0 = Instant::now();
    let tracing = webml_telemetry::enabled();
    let program_name = program.name;
    let trace_t0 = if tracing { webml_telemetry::now_ns() } else { 0 };
    // Page in any evicted inputs and temporarily take them out of the
    // registry so the executor can borrow them while the lock is released.
    let mut taken: Vec<(TexId, Texture)> = Vec::new();
    {
        let mut textures = shared.textures.lock();
        let mut seen = Vec::new();
        for &id in inputs {
            if seen.contains(&id) {
                continue;
            }
            seen.push(id);
            let slot = textures.remove(&id).expect("input texture exists (queue order)");
            let tex = match slot.state {
                SlotState::Gpu(t) => t,
                SlotState::Paged { rows, cols, format, data } => {
                    // Page back in.
                    let mut stats = shared.pager.lock();
                    stats.page_ins += 1;
                    stats.bytes_paged -= data.len() * 4;
                    drop(stats);
                    if tracing {
                        webml_telemetry::instant_arg(
                            "page_in",
                            "texture-pool",
                            "bytes",
                            (data.len() * 4) as f64,
                        );
                    }
                    let (mut t, recycled) = shared.recycler.lock().acquire(rows, cols, format);
                    if !recycled {
                        shared.gpu_nanos.fetch_add(TEXTURE_ALLOC_OVERHEAD_NANOS, Ordering::Relaxed);
                    }
                    let tail = data.len().min(t.data.len());
                    t.data[tail..].fill(0.0);
                    t.upload(&data);
                    shared.bytes_gpu.fetch_add(t.byte_size(), Ordering::Relaxed);
                    t
                }
            };
            taken.push((id, tex));
        }
    }

    // Allocate the output (possibly recycled).
    let out_format = out_layout.format;
    let (mut out_tex, recycled) =
        shared.recycler.lock().acquire(out_layout.tex_rows, out_layout.tex_cols, out_format);
    if !recycled {
        shared.gpu_nanos.fetch_add(TEXTURE_ALLOC_OVERHEAD_NANOS, Ordering::Relaxed);
    }
    if tracing {
        webml_telemetry::instant(
            if recycled { "texture_recycle" } else { "texture_alloc" },
            "texture-pool",
        );
    }

    let stats = {
        // Index the taken textures once so each sampler binding is an O(1)
        // map hit instead of an O(n) scan per input.
        let taken_index: HashMap<TexId, &Texture> =
            taken.iter().map(|(tid, tex)| (*tid, tex)).collect();
        let sampler_inputs: Vec<(&[f32], &TextureLayout)> = inputs
            .iter()
            .zip(in_layouts)
            .map(|(id, layout)| {
                let tex = taken_index.get(id).expect("taken above");
                (tex.data.as_slice(), layout)
            })
            .collect();
        execute(&program, &sampler_inputs, &mut out_tex.data, pool, modeled_parallelism, half_precision)
    };

    // Return inputs and publish the output.
    let out_bytes = out_tex.byte_size();
    {
        let mut textures = shared.textures.lock();
        for (id, tex) in taken {
            let last_use = shared.touch();
            textures.insert(id, Slot { state: SlotState::Gpu(tex), last_use });
        }
        let last_use = shared.touch();
        textures.insert(output, Slot { state: SlotState::Gpu(out_tex), last_use });
    }
    shared.bytes_gpu.fetch_add(out_bytes, Ordering::Relaxed);
    shared.program_count.fetch_add(1, Ordering::Relaxed);
    // Simulated device time: the measured execution, rescaled from the
    // host threads actually engaged to the occupancy the draw call would
    // achieve on the modeled device, plus fixed draw-call overhead. On a
    // single-core host the measurement is the serial time and the model
    // divides by occupancy; on a many-core host the measurement already
    // reflects `real_engaged`-way parallelism.
    let elapsed = t0.elapsed().as_nanos() as u64;
    let modeled =
        elapsed.saturating_mul(stats.real_engaged as u64) / stats.occupancy.max(1) as u64;
    let device_ns = modeled + DRAW_CALL_OVERHEAD_NANOS;
    shared.gpu_nanos.fetch_add(device_ns, Ordering::Relaxed);
    if tracing {
        // The virtual GPU track: wall-clock extent of the draw call on the
        // device thread, annotated with the modeled (timer-query) time.
        webml_telemetry::gpu_span_traced(
            program_name,
            trace_t0,
            webml_telemetry::now_ns(),
            "modeled_device_ns",
            device_ns as f64,
            trace_id,
        );
    }
}

fn maybe_page_out(shared: &Arc<DeviceShared>, paging: &PagingPolicy) {
    if !paging.enabled {
        return;
    }
    let bytes = shared.bytes_gpu.load(Ordering::Relaxed);
    if bytes <= paging.threshold_bytes {
        return;
    }
    // Under pressure, first drop the recycler's free pool.
    shared.recycler.lock().clear();
    let mut textures = shared.textures.lock();
    let candidates: Vec<(u64, usize, u64)> = textures
        .iter()
        .filter_map(|(&id, slot)| match &slot.state {
            SlotState::Gpu(t) => Some((id, t.byte_size(), slot.last_use)),
            SlotState::Paged { .. } => None,
        })
        .collect();
    let victims = select_victims(&candidates, bytes, paging.threshold_bytes);
    for id in victims {
        if let Some(slot) = textures.get_mut(&id) {
            if let SlotState::Gpu(t) = &slot.state {
                let bytes = t.byte_size();
                let data = t.data.clone();
                let (rows, cols, format) = (t.rows, t.cols, t.format);
                shared.bytes_gpu.fetch_sub(bytes, Ordering::Relaxed);
                let mut stats = shared.pager.lock();
                stats.page_outs += 1;
                stats.bytes_paged += data.len() * 4;
                drop(stats);
                webml_telemetry::instant_arg(
                    "page_out",
                    "texture-pool",
                    "bytes",
                    (data.len() * 4) as f64,
                );
                slot.state = SlotState::Paged { rows, cols, format, data };
            }
        }
    }
}
