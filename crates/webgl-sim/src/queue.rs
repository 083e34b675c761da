//! The GPU command queue and device thread (paper Sec 4.1.1).
//!
//! "When the user calls an operation, we enqueue a program onto the GPU
//! command queue, which typically takes sub-millisecond time, and
//! immediately return a handle to the resulting tensor despite the
//! computation not being done." Commands execute in order on a dedicated
//! device thread; fences and readbacks are themselves commands, which gives
//! the same ordering guarantees as a real GL command stream.
//!
//! One loop serves every GPU API: what differs between a WebGL draw call
//! and a WebGPU dispatch is read from the context's
//! [`Capabilities`] and from the [`crate::shader::KernelBody`] the kernel
//! carries.
//!
//! ## The modeled clock
//!
//! The clock is priced from the work a dispatch declares, never read from
//! the host: `device_ns = ⌈out_size × cost_per_element / occupancy⌉ ×
//! ns_per_op + dispatch overhead`, plus the allocation overhead of every
//! recycler miss and any injected stall. [`occupancy`] is
//! `min(parallelism × reuse, work / 2048)`, `ns_per_op` the profile's rate
//! ([`crate::devices::DeviceProfile::ns_per_op`]) and the overheads the
//! API's ([`Capabilities`]). So the same dispatches cost the same device
//! time on any host, under any load, with any number of shader-core
//! threads.
//!
//! The device's *timeline* is that kernel time plus the pipeline drains
//! synchronous reads pay ([`QueueStats::drain_ns`]): the one clock the
//! main-thread figures (2 and 3) are read from. Nothing sleeps to model it.

use crate::caps::Capabilities;
use crate::devices::DeviceProfile;
use crate::layout::TextureLayout;
use crate::pager::{select_victims, PagerStats, PagingPolicy};
use crate::recycler::{RecyclerStats, TextureRecycler};
use crate::shader::{execute, occupancy, Kernel};
use crate::texture::{Texture, TextureFormat};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use webml_core::pool::WorkerPool;

/// Identifier of a device allocation.
pub type TexId = u64;

/// Physical geometry of an allocation: texture rows × cols and format. A
/// linear storage buffer is `1 × len`.
pub type Geometry = (usize, usize, TextureFormat);

/// Completion of a readback, run on the device thread with the values.
pub type ReadDone = Box<dyn FnOnce(Result<Vec<f32>, String>) + Send>;

/// Residency state of an allocation.
pub enum SlotState {
    /// Resident in (simulated) GPU memory.
    Gpu(Texture),
    /// On the host: paged out (paper Sec 4.1.2), or the shadow a context
    /// loss leaves behind.
    Paged {
        /// Geometry to restore with.
        geometry: Geometry,
        /// The values, kept on the host.
        data: Vec<f32>,
    },
}

/// An allocation slot with LRU bookkeeping.
pub struct Slot {
    /// Residency.
    pub state: SlotState,
    /// Monotone use counter for LRU eviction.
    pub last_use: u64,
}

/// Commands accepted by the device thread, executed strictly in order.
// Run dominates real queues anyway, and boxing its fields would cost an
// allocation per dispatch on the hot path.
#[allow(clippy::large_enum_variant)]
pub enum Command {
    /// Upload host data into a new allocation.
    Upload {
        /// Destination id.
        tex: TexId,
        /// Values to upload (u8 codes arrive widened).
        data: Vec<f32>,
        /// Physical geometry.
        geometry: Geometry,
    },
    /// Execute a kernel into a fresh output allocation.
    Run {
        /// The kernel.
        kernel: Kernel,
        /// Input ids.
        inputs: Vec<TexId>,
        /// Input layouts, parallel to `inputs`, for a fragment body's
        /// samplers; empty for a compute body.
        in_layouts: Vec<Arc<TextureLayout>>,
        /// Output id (fresh).
        output: TexId,
        /// Output geometry.
        out_geometry: Geometry,
        /// Injected straggler stall: device nanoseconds added to the clock
        /// (and slept on the device thread, for the host-time readers of the
        /// serving stack) before the kernel runs. 0 = no stall.
        stall_ns: u64,
        /// Request trace id active on the submitting thread at enqueue
        /// time (0 = untraced). Carried across the thread hop so the GPU
        /// span lands in the same causal lane as the request that issued
        /// the dispatch.
        trace_id: u64,
    },
    /// Read an allocation back to the host (`gl.readPixels`,
    /// `buffer.mapAsync`), completing with the first `len` values.
    ReadPixels {
        /// Allocation to read.
        tex: TexId,
        /// Number of logical values wanted.
        len: usize,
        /// Simulated driver pipeline-drain cost (paper Fig 2): non-zero
        /// only for a *synchronous* read that follows work no host wait
        /// covered. It advances the device timeline, never the kernel clock,
        /// and is never counted busy.
        drain_ns: u64,
        /// Completion, called here on the device thread.
        done: ReadDone,
    },
    /// Mark a fence as passed once all prior commands completed
    /// (`gl.fenceSync`).
    Fence {
        /// Fence sequence number.
        id: u64,
    },
    /// Release an allocation (returned to the recycler).
    Dispose {
        /// Allocation to release.
        tex: TexId,
    },
    /// The context was lost: invalidate every device allocation. GPU
    /// residency drops to zero; contents are preserved as host-side shadows
    /// (the copies a recovery path re-uploads), so readback keeps working.
    LoseContext,
    /// Stop the device thread.
    Shutdown,
}

/// State shared between the host-side context and the device thread.
pub struct DeviceShared {
    /// Allocation registry.
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
    /// Total device-side execution time (the timer-query counter).
    pub gpu_nanos: AtomicU64,
    /// Host nanoseconds the device thread spent executing commands
    /// (uploads, dispatches, readbacks, disposals) — the numerator of the
    /// device-thread utilization gauge.
    pub busy_ns: AtomicU64,
    /// Number of blocking `wait_fence` calls that actually slept.
    pub fence_waits: AtomicU64,
    /// Total nanoseconds hosts spent blocked in `wait_fence`.
    pub fence_wait_ns: AtomicU64,
    /// Synchronous readbacks that forced a driver pipeline drain.
    pub drains: AtomicU64,
    /// Device-timeline nanoseconds those drains took: the timeline is
    /// `gpu_nanos + drain_ns`.
    pub drain_ns: AtomicU64,
    /// Number of kernels executed.
    pub program_count: AtomicU64,
    /// Bytes resident in GPU memory.
    pub bytes_gpu: AtomicUsize,
    /// Paging statistics.
    pub pager: Mutex<PagerStats>,
    /// The allocation recycler.
    pub recycler: Mutex<TextureRecycler>,
    /// Monotone use counter.
    pub use_counter: AtomicU64,
}

/// Counters of device-queue behaviour, snapshotted without flushing.
///
/// Two clocks, never summed: `busy_ns` is the host time the device thread
/// spent on uploads, dispatches, readbacks and disposals (the rest of its
/// host time it is parked on an empty queue), and `drain_ns` is the Fig-2
/// pipeline stall blocking reads paid on the priced device timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Host ns the device thread spent executing commands.
    pub busy_ns: u64,
    /// Blocking `wait_fence` calls that actually slept.
    pub fence_waits: u64,
    /// Total ns hosts spent blocked in `wait_fence`.
    pub fence_wait_ns: u64,
    /// Synchronous readbacks that forced a pipeline drain.
    pub drains: u64,
    /// Device-timeline ns those drains took.
    pub drain_ns: u64,
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
        }
    }

    fn touch(&self) -> u64 {
        self.use_counter.fetch_add(1, Ordering::Relaxed)
    }
}

/// The device thread's fixed parameters.
struct Device {
    shared: Arc<DeviceShared>,
    caps: &'static Capabilities,
    /// Modeled core count of the priced clock.
    parallelism: usize,
    /// The priced clock's rate.
    ns_per_op: f64,
    half_precision: bool,
    paging: PagingPolicy,
}

/// Run the device loop until [`Command::Shutdown`]. Executed on the device
/// thread spawned by [`crate::context::GpgpuContext`].
pub fn device_loop(
    rx: crossbeam::channel::Receiver<Command>,
    shared: Arc<DeviceShared>,
    caps: &'static Capabilities,
    profile: &DeviceProfile,
    paging: PagingPolicy,
) {
    let paging = if caps.paging { paging } else { PagingPolicy::disabled() };
    let dev = Device {
        shared,
        caps,
        parallelism: profile.parallelism,
        ns_per_op: profile.ns_per_op,
        half_precision: profile.half_precision_only,
        paging,
    };
    let shared = &dev.shared;
    // The device's persistent shader cores, started with the context: every
    // dispatch's body runs on them.
    let pool = dev.shader_cores();
    // Device-thread utilization window: busy nanoseconds accumulated since
    // the last fence over the wall-clock extent of the window. Fences are
    // exactly the points a pipelined executor punctuates its schedule with,
    // so each window covers one submit→fence interval.
    let mut window_wall = webml_telemetry::now_ns();
    let mut window_busy = 0u64;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Upload { tex, data, geometry } => {
                let t0 = webml_telemetry::now_ns();
                let t = dev.resident(geometry, &data);
                let last_use = shared.touch();
                shared.textures.lock().insert(tex, Slot { state: SlotState::Gpu(t), last_use });
                dev.maybe_page_out();
                shared
                    .busy_ns
                    .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
            }
            Command::Run { kernel, inputs, in_layouts, output, out_geometry, stall_ns, trace_id } => {
                let t0 = webml_telemetry::now_ns();
                if stall_ns > 0 {
                    // An injected straggler: the device clock advances, and
                    // the device thread also stalls for as long, because the
                    // serving router's health tracker reads host latency.
                    shared.gpu_nanos.fetch_add(stall_ns, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_nanos(stall_ns));
                }
                dev.run_kernel(
                    &kernel,
                    &inputs,
                    &in_layouts,
                    output,
                    out_geometry,
                    &pool,
                    trace_id,
                );
                dev.maybe_page_out();
                shared
                    .busy_ns
                    .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
            }
            Command::ReadPixels { tex, len, drain_ns, done } => {
                if drain_ns > 0 {
                    // Fig 2: a blocking read behind uncovered work waits for
                    // the pipeline to drain, on the timeline.
                    shared.drains.fetch_add(1, Ordering::Relaxed);
                    shared.drain_ns.fetch_add(drain_ns, Ordering::Relaxed);
                }
                let t0 = webml_telemetry::now_ns();
                let values = match shared.textures.lock().get(&tex).map(|slot| &slot.state) {
                    Some(SlotState::Gpu(t)) => Ok(t.data[..len.min(t.data.len())].to_vec()),
                    Some(SlotState::Paged { data, .. }) => Ok(data[..len.min(data.len())].to_vec()),
                    None => Err(format!("allocation {tex} does not exist")),
                };
                done(values);
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
                // past the notification. Two threads fencing one context
                // may enqueue their fences out of minting order; a fence
                // that passes covers every lower one, so the mark only
                // rises.
                let _guard = shared.fence_lock.lock();
                shared.last_fence.fetch_max(id, Ordering::SeqCst);
                shared.fence_cond.notify_all();
            }
            Command::Dispose { tex } => {
                // Queue order makes disposal fence-safe: every consumer of
                // this allocation was enqueued (and therefore executes)
                // before the Dispose, so recycling here can never race a use.
                let t0 = webml_telemetry::now_ns();
                let slot = shared.textures.lock().remove(&tex);
                match slot.map(|slot| slot.state) {
                    Some(SlotState::Gpu(t)) => {
                        shared.bytes_gpu.fetch_sub(t.byte_size(), Ordering::Relaxed);
                        shared.recycler.lock().release(t);
                    }
                    Some(SlotState::Paged { data, .. }) => {
                        shared.pager.lock().bytes_paged -= data.len() * 4;
                    }
                    None => {}
                }
                shared
                    .busy_ns
                    .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
            }
            Command::LoseContext => {
                // All GPU-resident allocations are gone. Keep each one's
                // values as a host shadow in the paged state so readback
                // (and later lazy re-upload) still works; drop the
                // recycler's free pool outright.
                shared.recycler.lock().clear();
                let mut textures = shared.textures.lock();
                let mut freed = 0usize;
                let mut shadow_bytes = 0usize;
                for slot in textures.values_mut() {
                    if let SlotState::Gpu(t) = &mut slot.state {
                        freed += t.byte_size();
                        shadow_bytes += t.data.len() * 4;
                        let geometry = (t.rows, t.cols, t.format);
                        slot.state = SlotState::Paged { geometry, data: std::mem::take(&mut t.data) };
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

/// The values of input `id` among the allocations taken for a dispatch.
fn bound_data(taken: &[(TexId, Texture)], id: TexId) -> &[f32] {
    let (_, tex) = taken.iter().find(|(tid, _)| *tid == id).expect("taken for this dispatch");
    &tex.data
}

impl Device {
    /// A pool of the device's modeled core count, bounded by the host
    /// machine; `parallelism` stays the *modeled* count the priced clock
    /// uses. Like every [`WorkerPool`], its workers poll for about 50 µs
    /// after a dispatch before they park, so the programs of a pass, queued
    /// back to back, find them awake; [`WorkerPool::split`] keeps a dispatch
    /// too small to pay for the hand-off on the device thread.
    fn shader_cores(&self) -> WorkerPool {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        WorkerPool::new(self.parallelism.min(host))
    }

    /// Acquire an allocation (recycled when possible; a miss pays the
    /// driver's allocation cost on the device clock) and account it
    /// resident; the flag reports whether it was recycled.
    fn acquire(&self, (rows, cols, format): Geometry) -> (Texture, bool) {
        let (t, recycled) = self.shared.recycler.lock().acquire(rows, cols, format);
        if !recycled {
            self.shared.gpu_nanos.fetch_add(self.caps.alloc_overhead_ns, Ordering::Relaxed);
        }
        self.shared.bytes_gpu.fetch_add(t.byte_size(), Ordering::Relaxed);
        (t, recycled)
    }

    /// A resident allocation holding `data`.
    fn resident(&self, geometry: Geometry, data: &[f32]) -> Texture {
        let (mut t, _) = self.acquire(geometry);
        // Recycled allocations may be dirty; the upload overwrites the
        // prefix, so only the tail beyond the uploaded data needs zeroing.
        let tail = data.len().min(t.data.len());
        t.data[tail..].fill(0.0);
        t.upload(data);
        t
    }

    #[allow(clippy::too_many_arguments)]
    fn run_kernel(
        &self,
        kernel: &Kernel,
        inputs: &[TexId],
        in_layouts: &[Arc<TextureLayout>],
        output: TexId,
        out_geometry: Geometry,
        pool: &WorkerPool,
        trace_id: u64,
    ) {
        let (shared, caps) = (&self.shared, self.caps);
        let tracing = webml_telemetry::enabled();
        let trace_t0 = if tracing { webml_telemetry::now_ns() } else { 0 };
        // Page in any evicted inputs and temporarily take them out of the
        // registry so the body can borrow them while the lock is released.
        let mut taken: Vec<(TexId, Texture)> = Vec::with_capacity(inputs.len());
        {
            let mut textures = shared.textures.lock();
            for &id in inputs {
                if taken.iter().any(|(seen, _)| *seen == id) {
                    continue;
                }
                let slot = textures.remove(&id).expect("input allocation exists (queue order)");
                let tex = match slot.state {
                    SlotState::Gpu(t) => t,
                    SlotState::Paged { geometry, data } => {
                        // Page back in (also the lazy re-upload of a
                        // post-loss shadow).
                        let mut stats = shared.pager.lock();
                        stats.page_ins += 1;
                        stats.bytes_paged -= data.len() * 4;
                        drop(stats);
                        let bytes = (data.len() * 4) as f64;
                        webml_telemetry::instant_arg("page_in", caps.pool_category, "bytes", bytes);
                        self.resident(geometry, &data)
                    }
                };
                taken.push((id, tex));
            }
        }

        let (mut out_tex, recycled) = self.acquire(out_geometry);
        if tracing {
            let name = if recycled { caps.recycle_instant } else { caps.alloc_instant };
            webml_telemetry::instant(name, caps.pool_category);
        }

        // The host splits by the host work a hand-off pays for, not by the
        // modeled lanes.
        let runs = kernel.runs_on(pool);
        let buffers: Vec<&[f32]> = inputs.iter().map(|id| bound_data(&taken, *id)).collect();
        let layouts: Vec<&TextureLayout> = in_layouts.iter().map(|layout| &**layout).collect();
        execute(kernel, &buffers, &layouts, &mut out_tex.data, pool, runs, self.half_precision);

        // Return inputs and publish the output.
        {
            let mut textures = shared.textures.lock();
            for (id, tex) in taken {
                let last_use = shared.touch();
                textures.insert(id, Slot { state: SlotState::Gpu(tex), last_use });
            }
            let last_use = shared.touch();
            textures.insert(output, Slot { state: SlotState::Gpu(out_tex), last_use });
        }
        shared.program_count.fetch_add(1, Ordering::Relaxed);
        // The priced clock: the declared operations spread over the lanes
        // the dispatch fills, at the profile's rate, plus the fixed
        // dispatch overhead.
        let work = kernel.out_size().saturating_mul(kernel.cost_per_element);
        let lanes = occupancy(self.parallelism, caps.shared_memory, kernel);
        let ops_per_lane = work.div_ceil(lanes) as f64;
        let device_ns = (ops_per_lane * self.ns_per_op).round() as u64 + caps.dispatch_overhead_ns;
        shared.gpu_nanos.fetch_add(device_ns, Ordering::Relaxed);
        if tracing {
            // The virtual GPU track: wall-clock extent of the dispatch on
            // the device thread, annotated with the modeled (timer-query)
            // time.
            webml_telemetry::gpu_span_traced(
                kernel.name,
                trace_t0,
                webml_telemetry::now_ns(),
                "modeled_device_ns",
                device_ns as f64,
                trace_id,
            );
        }
    }

    fn maybe_page_out(&self) {
        let (shared, paging) = (&self.shared, &self.paging);
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
                    let data = t.data.clone();
                    shared.bytes_gpu.fetch_sub(t.byte_size(), Ordering::Relaxed);
                    let mut stats = shared.pager.lock();
                    stats.page_outs += 1;
                    stats.bytes_paged += data.len() * 4;
                    drop(stats);
                    let bytes = (data.len() * 4) as f64;
                    webml_telemetry::instant_arg("page_out", self.caps.pool_category, "bytes", bytes);
                    slot.state = SlotState::Paged { geometry: (t.rows, t.cols, t.format), data };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Fence 11 enqueued before fence 10, as two threads fencing one
    /// context can do: the passed mark stays at 11, and a waiter on 11
    /// returns.
    #[test]
    fn a_fence_enqueued_late_never_moves_the_mark_back() {
        let (tx, rx) = crossbeam::channel::unbounded();
        let shared = Arc::new(DeviceShared::new(true));
        let device = {
            let (shared, profile) = (shared.clone(), DeviceProfile::intel_iris_pro());
            std::thread::spawn(move || {
                device_loop(rx, shared, &crate::WEBGL, &profile, PagingPolicy::disabled())
            })
        };
        for id in [11, 10] {
            tx.send(Command::Fence { id }).unwrap();
        }
        tx.send(Command::Shutdown).unwrap();
        device.join().unwrap();
        assert_eq!(shared.last_fence.load(Ordering::SeqCst), 11);
        // The wait of `GpgpuContext::wait_fence`, on a thread of its own so
        // that a waiter that never returns fails the test instead of hanging it.
        let (done, returned) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let mut guard = shared.fence_lock.lock();
            while shared.last_fence.load(Ordering::SeqCst) < 11 {
                shared.fence_cond.wait(&mut guard);
            }
            done.send(()).unwrap();
        });
        returned.recv_timeout(Duration::from_secs(10)).expect("a waiter on fence 11 returns");
        waiter.join().unwrap();
    }
}
