//! The compute command queue and device thread.
//!
//! Same discipline as the WebGL simulator (commands execute strictly in
//! order on a dedicated device thread; fences and readbacks are commands),
//! different cost model: dispatch overhead is a fraction of a draw call's
//! (command encoding, no framebuffer bind), buffer allocation is a
//! fraction of texture allocation, and a pipeline's *shared-memory reuse*
//! multiplies its effective occupancy — the reward real hardware pays for
//! tiling.

use crate::buffer::{BufferFormat, StorageBuffer};
use crate::pipeline::ComputePipeline;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use webml_webgl_sim::future::ReadPromise;

/// Identifier of a device storage buffer.
pub type BufId = u64;

/// Fixed per-dispatch device overhead (command decode, bind groups). A
/// quarter of the WebGL simulator's 8 µs draw-call overhead: compute
/// dispatches skip rasterizer, viewport, and framebuffer state entirely,
/// and bind groups are baked once at pipeline creation rather than
/// re-validated per draw.
pub const DISPATCH_OVERHEAD_NANOS: u64 = 2_000;

/// Simulated driver cost of allocating a fresh storage buffer — far below
/// the 60 µs WebGL texture allocation (no image layout, no sampler state),
/// and avoided entirely when the recycler supplies a buffer.
pub const BUFFER_ALLOC_OVERHEAD_NANOS: u64 = 20_000;

/// Work-granularity divisor of the occupancy model: a dispatch needs about
/// this many element-ops per occupancy unit before it can fill the device.
const OCCUPANCY_WORK_GRAIN: u64 = 2_048;

/// Commands accepted by the device thread, executed strictly in order.
// Dispatch dominates real queues; boxing its fields would cost an
// allocation per dispatch on the hot path.
#[allow(clippy::large_enum_variant)]
pub enum Command {
    /// Upload host values into a new storage buffer.
    Upload {
        /// Destination buffer id.
        buf: BufId,
        /// Values to upload (U8 codes arrive widened).
        data: Vec<f32>,
        /// Element format for byte accounting.
        format: BufferFormat,
    },
    /// Execute a compute pipeline into a fresh output buffer.
    Dispatch {
        /// The pipeline.
        pipeline: ComputePipeline,
        /// Input buffer ids.
        inputs: Vec<BufId>,
        /// Output buffer id (fresh).
        output: BufId,
        /// Injected straggler stall (device ns, also slept). 0 = none.
        stall_ns: u64,
        /// Request trace id active on the submitting thread at enqueue
        /// time (0 = untraced), carried across the thread hop so the GPU
        /// span lands in the issuing request's causal lane.
        trace_id: u64,
    },
    /// Map a buffer for reading (`buffer.mapAsync`), resolving the promise
    /// with the first `len` values.
    MapRead {
        /// Buffer to read.
        buf: BufId,
        /// Number of values wanted.
        len: usize,
        /// Simulated driver pipeline-drain cost for a synchronous map
        /// issued against a busy queue; slept as wall-clock, never device
        /// time, never busy.
        drain_ns: u64,
        /// Completion promise.
        promise: ReadPromise,
    },
    /// Mark a fence as passed once all prior commands completed.
    Fence {
        /// Fence id.
        id: u64,
    },
    /// Release a buffer (returned to the recycler).
    Dispose {
        /// Buffer to release.
        buf: BufId,
    },
    /// The device was lost (`device.lost` resolved): every storage buffer
    /// drops to a host shadow. GPU residency falls to zero; contents stay
    /// readable, and recovery re-uploads lazily.
    LoseDevice,
    /// Stop the device thread.
    Shutdown,
}

/// A free-list of disposed buffers keyed by (length, format), so steady-
/// state inference re-binds buffers instead of re-allocating them — the
/// storage-buffer analogue of the WebGL texture recycler.
#[derive(Default)]
pub struct BufferRecycler {
    enabled: bool,
    free: HashMap<(usize, BufferFormat), Vec<Vec<f32>>>,
    hits: u64,
    misses: u64,
}

impl BufferRecycler {
    /// A recycler; when disabled every acquire is a miss.
    pub fn new(enabled: bool) -> BufferRecycler {
        BufferRecycler { enabled, ..Default::default() }
    }

    /// Acquire backing storage of `len` elements; `true` when recycled.
    pub fn acquire(&mut self, len: usize, format: BufferFormat) -> (Vec<f32>, bool) {
        if self.enabled {
            if let Some(data) = self.free.get_mut(&(len, format)).and_then(|v| v.pop()) {
                self.hits += 1;
                return (data, true);
            }
        }
        self.misses += 1;
        (vec![0.0; len], false)
    }

    /// Return a buffer's storage to the free list.
    pub fn release(&mut self, data: Vec<f32>, format: BufferFormat) {
        if self.enabled {
            self.free.entry((data.len(), format)).or_default().push(data);
        }
    }

    /// Drop the free pool (device loss, memory pressure).
    pub fn clear(&mut self) {
        self.free.clear();
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// State shared between the host-side context and the device thread.
pub struct DeviceShared {
    /// Buffer registry.
    pub buffers: Mutex<HashMap<BufId, StorageBuffer>>,
    /// Highest fence id that has passed (lock-free poll; also published
    /// under `fence_lock` + `fence_cond` for blocking waits).
    pub last_fence: AtomicU64,
    /// Guards fence-passing notification.
    pub fence_lock: Mutex<()>,
    /// Signalled as each fence passes.
    pub fence_cond: Condvar,
    /// Total modeled device time (the timestamp-query counter).
    pub gpu_nanos: AtomicU64,
    /// Wall-clock ns the device thread spent executing commands (the
    /// utilization numerator; injected drains are idle, not busy).
    pub busy_ns: AtomicU64,
    /// Blocking `wait_fence` calls that actually slept.
    pub fence_waits: AtomicU64,
    /// Total ns hosts spent blocked in `wait_fence`.
    pub fence_wait_ns: AtomicU64,
    /// Synchronous reads that forced a pipeline drain.
    pub drains: AtomicU64,
    /// Total wall-clock ns lost to those drains.
    pub drain_ns: AtomicU64,
    /// Upload/dispatch commands enqueued but not yet executed.
    pub pending: AtomicU64,
    /// Pipelines dispatched.
    pub dispatch_count: AtomicU64,
    /// Bytes resident in device memory.
    pub bytes_gpu: AtomicUsize,
    /// The buffer recycler.
    pub recycler: Mutex<BufferRecycler>,
}

/// Counters of device-queue behaviour, snapshotted without flushing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WebGpuQueueStats {
    /// Wall-clock ns the device thread spent executing commands.
    pub busy_ns: u64,
    /// Blocking `wait_fence` calls that actually slept.
    pub fence_waits: u64,
    /// Total ns hosts spent blocked in `wait_fence`.
    pub fence_wait_ns: u64,
    /// Synchronous reads that forced a pipeline drain.
    pub drains: u64,
    /// Total ns lost to those drains.
    pub drain_ns: u64,
    /// Upload/dispatch commands enqueued but not yet executed.
    pub pending: u64,
}

impl DeviceShared {
    /// Fresh shared state.
    pub fn new(recycling_enabled: bool) -> DeviceShared {
        DeviceShared {
            buffers: Mutex::new(HashMap::new()),
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
            dispatch_count: AtomicU64::new(0),
            bytes_gpu: AtomicUsize::new(0),
            recycler: Mutex::new(BufferRecycler::new(recycling_enabled)),
        }
    }

    /// Snapshot of queue counters.
    pub fn queue_stats(&self) -> WebGpuQueueStats {
        WebGpuQueueStats {
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            fence_waits: self.fence_waits.load(Ordering::Relaxed),
            fence_wait_ns: self.fence_wait_ns.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            drain_ns: self.drain_ns.load(Ordering::Relaxed),
            pending: self.pending.load(Ordering::SeqCst),
        }
    }
}

/// Effective occupancy of one dispatch on a device with `parallelism`
/// modeled cores: shared-memory reuse multiplies the core count (each
/// staged load feeds `shared_reuse` invocations, so the same bandwidth
/// sustains that many more lanes), bounded below by 1 and above by how
/// much work the dispatch actually has to hand out.
pub fn dispatch_occupancy(parallelism: usize, pipeline: &ComputePipeline) -> u64 {
    let effective = (parallelism as u64).saturating_mul(pipeline.shared_reuse as u64).max(1);
    let work =
        (pipeline.out_len as u64).saturating_mul(pipeline.cost_per_element as u64);
    effective.min((work / OCCUPANCY_WORK_GRAIN).max(1))
}

/// Run the device loop until [`Command::Shutdown`]. Executed on the device
/// thread spawned by [`crate::context::WebGpuContext`].
pub fn device_loop(
    rx: crossbeam::channel::Receiver<Command>,
    shared: Arc<DeviceShared>,
    parallelism: usize,
) {
    // Device-thread utilization window, closed at each fence — the same
    // telemetry contract as the WebGL device thread, so dashboards and the
    // pipelined executor see one gauge regardless of rung.
    let mut window_wall = webml_telemetry::now_ns();
    let mut window_busy = 0u64;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Upload { buf, data, format } => {
                let t0 = webml_telemetry::now_ns();
                let (mut storage, recycled) = shared.recycler.lock().acquire(data.len(), format);
                if !recycled {
                    shared.gpu_nanos.fetch_add(BUFFER_ALLOC_OVERHEAD_NANOS, Ordering::Relaxed);
                }
                storage.copy_from_slice(&data);
                let b = StorageBuffer { data: storage, format, on_device: true };
                shared.bytes_gpu.fetch_add(b.byte_size(), Ordering::Relaxed);
                shared.buffers.lock().insert(buf, b);
                shared
                    .busy_ns
                    .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
                shared.pending.fetch_sub(1, Ordering::SeqCst);
            }
            Command::Dispatch { pipeline, inputs, output, stall_ns, trace_id } => {
                let t0 = webml_telemetry::now_ns();
                if stall_ns > 0 {
                    // An injected straggler: the device clock advances and
                    // the thread really stalls, so the spike shows up in
                    // modeled time and in wall-clock latency alike.
                    shared.gpu_nanos.fetch_add(stall_ns, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_nanos(stall_ns));
                }
                run_pipeline(&shared, pipeline, &inputs, output, parallelism, trace_id);
                shared
                    .busy_ns
                    .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
                shared.pending.fetch_sub(1, Ordering::SeqCst);
            }
            Command::MapRead { buf, len, drain_ns, promise } => {
                if drain_ns > 0 {
                    // A blocking map against a busy queue stalls until the
                    // driver drains — caller-visible latency, device idle.
                    shared.drains.fetch_add(1, Ordering::Relaxed);
                    shared.drain_ns.fetch_add(drain_ns, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_nanos(drain_ns));
                }
                let t0 = webml_telemetry::now_ns();
                let buffers = shared.buffers.lock();
                match buffers.get(&buf) {
                    Some(b) => {
                        let data = b.data[..len.min(b.data.len())].to_vec();
                        drop(buffers);
                        promise.complete(Ok(data));
                    }
                    None => {
                        drop(buffers);
                        promise.complete(Err(format!("buffer {buf} does not exist")));
                    }
                }
                shared
                    .busy_ns
                    .fetch_add(webml_telemetry::now_ns().saturating_sub(t0), Ordering::Relaxed);
            }
            Command::Fence { id } => {
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
                // Publish under the lock so a blocked `wait_fence` cannot
                // miss the store and sleep past the notification.
                let _guard = shared.fence_lock.lock();
                shared.last_fence.store(id, Ordering::SeqCst);
                shared.fence_cond.notify_all();
            }
            Command::Dispose { buf } => {
                // Queue order makes disposal fence-safe: every consumer of
                // this buffer executed before the Dispose.
                let slot = shared.buffers.lock().remove(&buf);
                if let Some(b) = slot {
                    if b.on_device {
                        shared.bytes_gpu.fetch_sub(b.byte_size(), Ordering::Relaxed);
                        shared.recycler.lock().release(b.data, b.format);
                    }
                }
            }
            Command::LoseDevice => {
                // Every resident buffer drops to a host shadow: contents
                // stay readable, device residency falls to zero, and the
                // recycler's free pool is gone with the device.
                shared.recycler.lock().clear();
                let mut buffers = shared.buffers.lock();
                let mut freed = 0usize;
                for b in buffers.values_mut() {
                    if b.on_device {
                        freed += b.byte_size();
                        b.on_device = false;
                    }
                }
                drop(buffers);
                shared.bytes_gpu.fetch_sub(freed, Ordering::Relaxed);
            }
            Command::Shutdown => break,
        }
    }
}

fn run_pipeline(
    shared: &Arc<DeviceShared>,
    pipeline: ComputePipeline,
    inputs: &[BufId],
    output: BufId,
    parallelism: usize,
    trace_id: u64,
) {
    let t0 = Instant::now();
    let tracing = webml_telemetry::enabled();
    let trace_t0 = if tracing { webml_telemetry::now_ns() } else { 0 };
    // Take the inputs out of the registry so the body can borrow them with
    // the lock released; re-upload any host shadows (post-loss recovery).
    let mut taken: Vec<(BufId, StorageBuffer)> = Vec::new();
    {
        let mut buffers = shared.buffers.lock();
        let mut seen = Vec::new();
        for &id in inputs {
            if seen.contains(&id) {
                continue;
            }
            seen.push(id);
            let mut b = buffers.remove(&id).expect("input buffer exists (queue order)");
            if !b.on_device {
                // Lazy re-upload of a shadow: pay the allocation.
                shared.gpu_nanos.fetch_add(BUFFER_ALLOC_OVERHEAD_NANOS, Ordering::Relaxed);
                b.on_device = true;
                shared.bytes_gpu.fetch_add(b.byte_size(), Ordering::Relaxed);
            }
            taken.push((id, b));
        }
    }

    // Allocate the output (possibly recycled).
    let (mut storage, recycled) =
        shared.recycler.lock().acquire(pipeline.out_len, BufferFormat::F32);
    if !recycled {
        shared.gpu_nanos.fetch_add(BUFFER_ALLOC_OVERHEAD_NANOS, Ordering::Relaxed);
    }
    if tracing {
        webml_telemetry::instant(
            if recycled { "buffer_recycle" } else { "buffer_alloc" },
            "buffer-pool",
        );
    }

    {
        let taken_index: HashMap<BufId, &StorageBuffer> =
            taken.iter().map(|(bid, b)| (*bid, b)).collect();
        let bound: Vec<&[f32]> = inputs
            .iter()
            .map(|id| taken_index.get(id).expect("taken above").data.as_slice())
            .collect();
        (pipeline.body)(&bound, &mut storage);
    }

    // Return inputs and publish the output.
    let out = StorageBuffer { data: storage, format: BufferFormat::F32, on_device: true };
    let out_bytes = out.byte_size();
    {
        let mut buffers = shared.buffers.lock();
        for (id, b) in taken {
            buffers.insert(id, b);
        }
        buffers.insert(output, out);
    }
    shared.bytes_gpu.fetch_add(out_bytes, Ordering::Relaxed);
    shared.dispatch_count.fetch_add(1, Ordering::Relaxed);
    // Simulated device time: the body runs serially on the device thread,
    // so the measurement is the serial time; divide by the occupancy the
    // dispatch achieves on the modeled device (cores × shared-memory
    // reuse, bounded by available work), plus fixed dispatch overhead.
    let elapsed = t0.elapsed().as_nanos() as u64;
    let occupancy = dispatch_occupancy(parallelism, &pipeline);
    let device_ns = elapsed / occupancy + DISPATCH_OVERHEAD_NANOS;
    shared.gpu_nanos.fetch_add(device_ns, Ordering::Relaxed);
    if tracing {
        webml_telemetry::gpu_span_traced(
            pipeline.name,
            trace_t0,
            webml_telemetry::now_ns(),
            "modeled_device_ns",
            device_ns as f64,
            trace_id,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pipe(out_len: usize, reuse: usize, cost: usize) -> ComputePipeline {
        ComputePipeline::cooperative("T", out_len, 256, reuse, cost, |_, _| {})
    }

    #[test]
    fn occupancy_rewards_shared_reuse() {
        // Large dispatch: tiled kernel gets reuse× the cores.
        let big = 1 << 20;
        assert_eq!(dispatch_occupancy(8, &pipe(big, 1, 64)), 8);
        assert_eq!(dispatch_occupancy(8, &pipe(big, 16, 64)), 128);
    }

    #[test]
    fn occupancy_is_bounded_by_available_work() {
        // A tiny dispatch cannot fill the device no matter the reuse.
        assert_eq!(dispatch_occupancy(64, &pipe(16, 16, 1)), 1);
        // Work bound sits between 1 and the effective core count.
        let o = dispatch_occupancy(64, &pipe(4_096, 16, 2));
        assert!((1..=1_024).contains(&o));
    }

    #[test]
    fn recycler_hits_on_matching_len_and_format() {
        let mut r = BufferRecycler::new(true);
        let (a, hit) = r.acquire(64, BufferFormat::F32);
        assert!(!hit);
        r.release(a, BufferFormat::F32);
        let (_, hit) = r.acquire(64, BufferFormat::F32);
        assert!(hit);
        // Format is part of the key: a U8 request must not get F32 storage.
        let (_, hit) = r.acquire(64, BufferFormat::U8);
        assert!(!hit);
        assert_eq!(r.stats(), (1, 2));
    }

    #[test]
    fn device_loop_runs_a_dispatch() {
        let shared = Arc::new(DeviceShared::new(true));
        let (tx, rx) = crossbeam::channel::unbounded();
        let s2 = shared.clone();
        let t = std::thread::spawn(move || device_loop(rx, s2, 8));
        shared.pending.fetch_add(1, Ordering::SeqCst);
        tx.send(Command::Upload { buf: 1, data: vec![1.0, 2.0, 3.0], format: BufferFormat::F32 })
            .unwrap();
        let double = ComputePipeline::elementwise("Double", 3, 1, |inp, out| {
            out.iter_mut().zip(inp[0]).for_each(|(o, v)| *o = v * 2.0)
        });
        shared.pending.fetch_add(1, Ordering::SeqCst);
        tx.send(Command::Dispatch {
            pipeline: double,
            inputs: vec![1],
            output: 2,
            stall_ns: 0,
            trace_id: 0,
        })
        .unwrap();
        let (future, promise) = webml_webgl_sim::future::ReadFuture::pending();
        tx.send(Command::MapRead { buf: 2, len: 3, drain_ns: 0, promise }).unwrap();
        assert_eq!(future.wait().unwrap(), vec![2.0, 4.0, 6.0]);
        assert_eq!(shared.dispatch_count.load(Ordering::Relaxed), 1);
        assert!(shared.gpu_nanos.load(Ordering::Relaxed) >= DISPATCH_OVERHEAD_NANOS);
        tx.send(Command::Shutdown).unwrap();
        t.join().unwrap();
    }
}
