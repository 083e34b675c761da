//! The eager execution engine.
//!
//! The engine owns backend registration, the tensor/data registries with
//! reference counting (paper Sec 3.4), memory scopes for `tidy()` (Sec 3.7),
//! the gradient tape (Sec 3.5), and the profiling/debugging hooks (Sec 3.8).
//!
//! ## Concurrency model (sharded registries)
//!
//! The registries are *sharded*: tensor records and data records live in
//! `SHARD_COUNT` independently locked maps keyed by tensor id / data
//! handle, and the engine-wide gauges (`num_tensors`, `num_bytes`,
//! degradation count) are atomics. A kernel dispatch therefore touches only
//! the shards its inputs and outputs hash to, so independent inferences on
//! different threads overlap instead of serializing behind one mutex.
//! Kernel execution itself, profiling appends, and degradation logging all
//! happen off the registry locks.
//!
//! Lock ordering (outermost first): `meta` (scopes/tape) → tensor shard →
//! data shard → backend table → profile/degradation log. No code path may
//! acquire an earlier lock while holding a later one, and no path holds two
//! shards of the same registry at once.
//!
//! `tidy` scopes are tracked **per thread**: a scope opened on one thread
//! only collects tensors created on that thread, so concurrent inference
//! requests cannot dispose each other's intermediates.

use crate::backend::{Backend, BackendMemory, DataId, KTensor, KernelCall};
use crate::dtype::{DType, TensorData};
use crate::error::{Error, Result};
use crate::int_hash::{IntMap, IntSet};
use crate::shape::Shape;
use crate::tape::{Grad, GradFn, Tape, TapeNode};
use crate::tensor::Tensor;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

/// Number of independently locked registry shards (power of two).
const SHARD_COUNT: usize = 16;

/// How tensor memory is reclaimed.
///
/// The paper contrasts the browser (no finalization: manual `dispose()` /
/// `tidy()`, Sec 3.7) with Node.js (V8 finalization frees memory
/// automatically, Sec 4.2). [`MemoryPolicy::Manual`] reproduces browser
/// semantics — dropping a [`Tensor`] handle does *not* free its memory;
/// [`MemoryPolicy::Finalized`] reproduces Node semantics — the last handle
/// drop disposes the tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryPolicy {
    /// Browser-like: only `dispose()`/`tidy()` free memory. Forgetting them
    /// leaks, exactly as in WebGL TensorFlow.js.
    Manual,
    /// Node-like: dropping the last handle frees the tensor.
    Finalized,
}

/// Engine-level memory snapshot (`tf.memory()`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryInfo {
    /// Number of live (undisposed) tensors.
    pub num_tensors: usize,
    /// Number of live data containers (shared by shallow copies).
    pub num_data_buffers: usize,
    /// Total bytes across live containers.
    pub num_bytes: usize,
    /// Backend-specific gauges.
    pub backend: BackendMemory,
    /// Times the engine abandoned a failing backend for a lower-priority
    /// one (graceful degradation).
    pub degradations: u64,
    /// Name of the backend currently serving kernels.
    pub current_backend: String,
}

/// Health snapshot of the engine's backend stack — the surface a serving
/// router's circuit breaker watches. Cheap to take: one read lock plus one
/// relaxed atomic load.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendHealth {
    /// Backend currently serving kernels.
    pub current_backend: String,
    /// Highest-priority registered backend (where the engine *wants* to be).
    pub preferred_backend: String,
    /// Whether the engine is running on its preferred backend — `false`
    /// means a degradation ladder step is still in effect and the engine is
    /// serving slower than its device allows.
    pub at_preferred: bool,
    /// The degradation generation (see [`Engine::degradation_generation`]).
    pub degradation_generation: u64,
}

/// One graceful-degradation event: a kernel abandoned a failing backend and
/// the engine fell back to the next backend in the priority chain.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationEvent {
    /// Kernel that was executing when the backend failed.
    pub kernel: &'static str,
    /// Backend that failed.
    pub from_backend: String,
    /// Backend the engine fell back to.
    pub to_backend: String,
    /// Display form of the error that triggered the fallback.
    pub reason: String,
}

/// Cached handles to the engine's registered telemetry metrics, resolved
/// once so the kernel hot path never touches the registry lock.
struct KernelMetrics {
    kernels: Arc<webml_telemetry::Counter>,
    wall_ms: Arc<webml_telemetry::Histogram>,
    device_ms: Arc<webml_telemetry::Histogram>,
    retries: Arc<webml_telemetry::Counter>,
    degradations: Arc<webml_telemetry::Counter>,
}

fn kernel_metrics() -> &'static KernelMetrics {
    static METRICS: std::sync::OnceLock<KernelMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| KernelMetrics {
        kernels: webml_telemetry::counter("engine.kernels_total"),
        wall_ms: webml_telemetry::histogram("engine.kernel_wall_ms"),
        device_ms: webml_telemetry::histogram("engine.kernel_device_ms"),
        retries: webml_telemetry::counter("engine.kernel_retries_total"),
        degradations: webml_telemetry::counter("engine.degradations_total"),
    })
}

/// Bounded in-place retries of a transient kernel failure before the engine
/// degrades to the next backend.
const MAX_TRANSIENT_ATTEMPTS: u32 = 3;

/// Bounded retries of a transient data read (migration or `dataSync`).
const MAX_READ_ATTEMPTS: u32 = 4;

/// Exponential backoff schedule for transient retries (bounded; the last
/// attempt waits under a millisecond, keeping kernels responsive).
fn backoff_delay(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_micros(100u64 << attempt.min(4))
}

/// Per-kernel profile entry (paper Sec 3.8: "users can profile every kernel
/// that gets called, seeing the output shape, memory footprint, as well as
/// device-specific timing information").
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: &'static str,
    /// Wall-clock milliseconds spent in the kernel call.
    pub wall_ms: f64,
    /// Device-side milliseconds for the kernel, as measured by the
    /// backend's device timer (the disjoint-timer-query counter on the
    /// webgl backend). `None` when the device exposes no timer — e.g. a
    /// simulated device profile without `EXT_disjoint_timer_query`.
    pub kernel_ms: Option<f64>,
    /// Shapes of the outputs.
    pub output_shapes: Vec<Shape>,
    /// Bytes allocated for the outputs.
    pub bytes_added: usize,
}

/// Result of [`Engine::profile`] (`tf.profile(f)`).
#[derive(Debug, Clone, Default)]
pub struct ProfileInfo {
    /// Tensors newly allocated while running the function.
    pub new_tensors: usize,
    /// Bytes newly allocated while running the function.
    pub new_bytes: usize,
    /// Peak live tensor count inside the function.
    pub peak_tensors: usize,
    /// Peak live bytes inside the function.
    pub peak_bytes: usize,
    /// Every kernel invocation, in order.
    pub kernels: Vec<KernelProfile>,
}

/// Result of [`Engine::time`] (`tf.time(f)`).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeInfo {
    /// Wall-clock milliseconds for the whole function, including scheduling.
    pub wall_ms: f64,
    /// Device kernel milliseconds: the growth of the backend's device timer
    /// over the window (on the webgl backend pure GPU time, excluding
    /// upload/download). NaN on a device with no timer — the analogue of the
    /// error object TF.js returns there.
    pub kernel_ms: f64,
}

/// Number of lock-striped kernel buffers in the profile collector.
/// Threads hash onto stripes by [`webml_telemetry::thread_index`], so with
/// typical thread counts each stripe is effectively thread-private and its
/// mutex is uncontended — this is what keeps `run_kernel` off a shared
/// profile lock while profiling (the counters are plain atomics).
const PROFILE_STRIPES: usize = 16;

/// Concurrent profile collector for [`Engine::profile`]: atomic counters
/// plus per-thread-striped kernel logs, folded into a [`ProfileInfo`] at
/// scope exit. One profiling window at a time (like the old
/// `Mutex<Option<ProfileState>>` it replaces).
struct ProfileCollector {
    new_tensors: AtomicUsize,
    new_bytes: AtomicUsize,
    peak_tensors: AtomicUsize,
    peak_bytes: AtomicUsize,
    /// Global kernel sequence number, so the folded log preserves
    /// cross-thread dispatch order.
    seq: AtomicU64,
    kernels: Vec<Mutex<Vec<(u64, KernelProfile)>>>,
}

impl ProfileCollector {
    fn new() -> ProfileCollector {
        ProfileCollector {
            new_tensors: AtomicUsize::new(0),
            new_bytes: AtomicUsize::new(0),
            peak_tensors: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            kernels: (0..PROFILE_STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn stripe(&self) -> &Mutex<Vec<(u64, KernelProfile)>> {
        &self.kernels[webml_telemetry::thread_index() & (PROFILE_STRIPES - 1)]
    }
}

pub(crate) struct DataRecord {
    backend_name: String,
    id: DataId,
    refcount: usize,
    bytes: usize,
    dtype: DType,
}

pub(crate) struct TensorRecord {
    data: u64,
    kept: bool,
    variable: bool,
    scope: Option<usize>,
    /// Affine dequantization params for U8-stored quantized tensors.
    /// Keyed by tensor id (not data handle), so they survive backend
    /// migration and context-loss recovery — only raw codes move between
    /// devices. Disposal frees them with the record.
    quant: Option<Arc<crate::quant::QuantParams>>,
}

struct Scope {
    id: usize,
    name: &'static str,
    tensors: Vec<usize>,
}

/// Registered backends and the index of the active one (read-mostly; only
/// `register_backend`/`set_backend`/degradation take the write lock).
struct BackendTable {
    entries: Vec<(String, i32, Arc<dyn Backend>)>,
    current: Option<usize>,
}

/// Cold bookkeeping: per-thread `tidy` scope stacks and the gradient tape.
/// Held only for scope membership pushes and tape recording — never across
/// kernel execution, data migration, or backend calls.
struct MetaState {
    scopes: HashMap<ThreadId, Vec<Scope>>,
    tape_stack: Vec<Tape>,
    recording_paused: bool,
    kept_by_tape: IntSet<usize>,
}

/// The eager execution engine. Cheap to clone (`Arc` internally); usually
/// accessed through [`crate::global::engine`] the way `tf` is the global
/// namespace in TensorFlow.js.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

struct EngineInner {
    /// Sharded tensor registry, keyed by tensor id.
    tensor_shards: Vec<Mutex<IntMap<usize, TensorRecord>>>,
    /// Sharded data-container registry, keyed by data handle.
    data_shards: Vec<Mutex<IntMap<u64, DataRecord>>>,
    /// Live tensor count (exact: mutated adjacent to every shard mutation).
    num_tensors: AtomicUsize,
    /// Live data-container count.
    num_data: AtomicUsize,
    /// Total live bytes.
    num_bytes: AtomicUsize,
    /// High-water mark of `num_bytes` since creation (or the last
    /// [`Engine::reset_peak_bytes`]). Always on, unlike the profile
    /// collector's windowed peak — one relaxed `fetch_max` per allocation.
    peak_bytes: AtomicUsize,
    backends: RwLock<BackendTable>,
    meta: Mutex<MetaState>,
    /// Whether any tape is active (fast-path skip of `meta` in kernels).
    tape_active: AtomicBool,
    profile: ProfileCollector,
    /// Whether profiling is active (fast-path skip of the collector).
    profiling: AtomicBool,
    debug: AtomicBool,
    degradations: AtomicU64,
    degradation_log: Mutex<Vec<DegradationEvent>>,
    garbage: Mutex<Vec<usize>>,
    /// Whether `garbage` may be non-empty (skip the lock when clean).
    garbage_pending: AtomicBool,
    next_data_handle: AtomicU64,
    next_tensor_id: AtomicUsize,
    next_scope_id: AtomicUsize,
    policy: AtomicU8,
    fusion_enabled: AtomicBool,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let table = self.inner.backends.read();
        f.debug_struct("Engine")
            .field("num_tensors", &self.inner.num_tensors.load(Ordering::Relaxed))
            .field("num_bytes", &self.inner.num_bytes.load(Ordering::Relaxed))
            .field("backend", &table.current.map(|i| table.entries[i].0.clone()))
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl PartialEq for Engine {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Engine {
    /// Create an engine with no backends registered.
    pub fn new() -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                tensor_shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
                data_shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
                num_tensors: AtomicUsize::new(0),
                num_data: AtomicUsize::new(0),
                num_bytes: AtomicUsize::new(0),
                peak_bytes: AtomicUsize::new(0),
                backends: RwLock::new(BackendTable { entries: Vec::new(), current: None }),
                meta: Mutex::new(MetaState {
                    scopes: HashMap::new(),
                    tape_stack: Vec::new(),
                    recording_paused: false,
                    kept_by_tape: IntSet::default(),
                }),
                tape_active: AtomicBool::new(false),
                profile: ProfileCollector::new(),
                profiling: AtomicBool::new(false),
                debug: AtomicBool::new(false),
                degradations: AtomicU64::new(0),
                degradation_log: Mutex::new(Vec::new()),
                garbage: Mutex::new(Vec::new()),
                garbage_pending: AtomicBool::new(false),
                next_data_handle: AtomicU64::new(1),
                next_tensor_id: AtomicUsize::new(1),
                next_scope_id: AtomicUsize::new(0),
                policy: AtomicU8::new(0), // Manual
                fusion_enabled: AtomicBool::new(true),
            }),
        }
    }

    fn tensor_shard(&self, id: usize) -> &Mutex<IntMap<usize, TensorRecord>> {
        &self.inner.tensor_shards[id & (SHARD_COUNT - 1)]
    }

    fn data_shard(&self, handle: u64) -> &Mutex<IntMap<u64, DataRecord>> {
        &self.inner.data_shards[(handle as usize) & (SHARD_COUNT - 1)]
    }

    /// Enable or disable kernel fusion. When disabled, the `ops::fused_*`
    /// family always runs the unfused kernel composition — useful for
    /// fused-vs-unfused benchmark comparisons and bitwise-equality tests.
    pub fn set_fusion_enabled(&self, enabled: bool) {
        self.inner.fusion_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether fused kernels are dispatched (default true).
    pub fn fusion_enabled(&self) -> bool {
        self.inner.fusion_enabled.load(Ordering::Relaxed)
    }

    // --- backends ----------------------------------------------------------

    /// Register a backend under `name`. The highest-priority backend becomes
    /// the default, mirroring `tf.registerBackend` semantics.
    pub fn register_backend(&self, name: impl Into<String>, backend: Arc<dyn Backend>, priority: i32) {
        let name = name.into();
        let mut table = self.inner.backends.write();
        table.entries.retain(|(n, _, _)| n != &name);
        table.entries.push((name, priority, backend));
        // Default to the highest priority backend.
        let best = table
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(_, (_, p, _))| *p)
            .map(|(i, _)| i);
        table.current = best;
    }

    /// The registered backend names in descending priority order — the
    /// degradation ladder as configured, head first.
    pub fn backend_ladder(&self) -> Vec<String> {
        let table = self.inner.backends.read();
        let mut entries: Vec<(String, i32)> =
            table.entries.iter().map(|(n, p, _)| (n.clone(), *p)).collect();
        entries.sort_by_key(|(_, p)| std::cmp::Reverse(*p));
        entries.into_iter().map(|(n, _)| n).collect()
    }

    /// Switch the active backend by name.
    ///
    /// # Errors
    /// [`Error::UnknownBackend`] when no backend has that name.
    pub fn set_backend(&self, name: &str) -> Result<()> {
        let mut table = self.inner.backends.write();
        match table.entries.iter().position(|(n, _, _)| n == name) {
            Some(i) => {
                table.current = Some(i);
                Ok(())
            }
            None => Err(Error::UnknownBackend { name: name.to_string() }),
        }
    }

    /// Name of the active backend.
    ///
    /// # Panics
    /// Panics if no backend is registered.
    pub fn backend_name(&self) -> String {
        let table = self.inner.backends.read();
        let i = table.current.expect("no backend registered");
        table.entries[i].0.clone()
    }

    /// Names of all registered backends.
    pub fn backend_names(&self) -> Vec<String> {
        let table = self.inner.backends.read();
        table.entries.iter().map(|(n, _, _)| n.clone()).collect()
    }

    /// Handle to the active backend.
    ///
    /// # Panics
    /// Panics if no backend is registered.
    pub fn backend(&self) -> Arc<dyn Backend> {
        let table = self.inner.backends.read();
        let i = table.current.expect("no backend registered");
        table.entries[i].2.clone()
    }

    /// The active backend together with its *registry* name (the same
    /// backend implementation can be registered under several names).
    fn current_backend(&self) -> Result<(Arc<dyn Backend>, String)> {
        let table = self.inner.backends.read();
        let i = table.current.ok_or_else(|| Error::UnknownBackend { name: "<none>".into() })?;
        Ok((table.entries[i].2.clone(), table.entries[i].0.clone()))
    }

    fn backend_by_name(&self, name: &str) -> Arc<dyn Backend> {
        self.inner
            .backends
            .read()
            .entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, b)| b.clone())
            .expect("backend of live data must stay registered")
    }

    /// Smallest safely representable positive value on the active backend
    /// (paper Sec 4.1.3): 1e-7 at full precision, 1e-4 on 16-bit devices,
    /// where the f32 default 1e-8 rounds to zero and `log(x + eps)` collapses
    /// to `log(x)`.
    pub fn epsilon(&self) -> f32 {
        if self.backend().float_precision() == 16 {
            1e-4
        } else {
            1e-7
        }
    }

    /// Insert a fence covering all work submitted to the active backend so
    /// far (`gl.fenceSync`, Sec 4.1.1). `None` on synchronous backends,
    /// meaning everything already completed.
    pub fn submit_fence(&self) -> Option<crate::backend::FenceToken> {
        self.backend().submit_fence()
    }

    /// Poll whether a fence has passed. `None` tokens (synchronous
    /// backends) have trivially passed.
    pub fn fence_passed(&self, token: Option<crate::backend::FenceToken>) -> bool {
        match token {
            Some(t) => self.backend().fence_passed(t),
            None => true,
        }
    }

    /// Block until a fence passes (`gl.clientWaitSync`); a no-op for
    /// `None` tokens. Waiting on a token after a degradation switched the
    /// active backend is safe: a GPU backend's token names the device
    /// context that minted it, every other context reads it as passed (as do
    /// the synchronous backends, which pass every token), and the failed
    /// device's queue keeps executing fences independently.
    pub fn wait_fence(&self, token: Option<crate::backend::FenceToken>) {
        if let Some(t) = token {
            self.backend().wait_fence(t);
        }
    }

    // --- memory policy -----------------------------------------------------

    /// Set how memory is reclaimed (browser-manual vs node-finalized).
    pub fn set_memory_policy(&self, policy: MemoryPolicy) {
        let v = match policy {
            MemoryPolicy::Manual => 0,
            MemoryPolicy::Finalized => 1,
        };
        self.inner.policy.store(v, Ordering::SeqCst);
    }

    /// The active memory policy.
    pub fn memory_policy(&self) -> MemoryPolicy {
        match self.inner.policy.load(Ordering::SeqCst) {
            0 => MemoryPolicy::Manual,
            _ => MemoryPolicy::Finalized,
        }
    }

    pub(crate) fn enqueue_garbage(&self, tensor_id: usize) {
        self.inner.garbage.lock().push(tensor_id);
        self.inner.garbage_pending.store(true, Ordering::Release);
    }

    fn collect_garbage(&self) {
        if !self.inner.garbage_pending.swap(false, Ordering::AcqRel) {
            return;
        }
        let ids: Vec<usize> = std::mem::take(&mut *self.inner.garbage.lock());
        for id in ids {
            self.dispose_tensor(id);
        }
    }

    // --- tensor/data registry ----------------------------------------------

    fn fresh_tensor_id(&self) -> usize {
        self.inner.next_tensor_id.fetch_add(1, Ordering::Relaxed)
    }

    fn fresh_data_handle(&self) -> u64 {
        self.inner.next_data_handle.fetch_add(1, Ordering::Relaxed)
    }

    fn register_tensor(&self, data_handle: u64, shape: Shape, dtype: DType) -> Tensor {
        let id = self.fresh_tensor_id();
        let scope = {
            let mut meta = self.inner.meta.lock();
            match meta.scopes.get_mut(&std::thread::current().id()).and_then(|s| s.last_mut()) {
                Some(s) => {
                    s.tensors.push(id);
                    Some(s.id)
                }
                None => None,
            }
        };
        self.tensor_shard(id).lock().insert(
            id,
            TensorRecord { data: data_handle, kept: false, variable: false, scope, quant: None },
        );
        let live = self.inner.num_tensors.fetch_add(1, Ordering::Relaxed) + 1;
        if self.inner.profiling.load(Ordering::Relaxed) {
            let p = &self.inner.profile;
            p.new_tensors.fetch_add(1, Ordering::Relaxed);
            p.peak_tensors.fetch_max(live, Ordering::Relaxed);
        }
        Tensor::from_parts(self.clone(), id, shape, dtype)
    }

    fn register_data(&self, backend_name: String, id: DataId, bytes: usize, dtype: DType) -> u64 {
        let handle = self.fresh_data_handle();
        self.data_shard(handle)
            .lock()
            .insert(handle, DataRecord { backend_name, id, refcount: 1, bytes, dtype });
        self.inner.num_data.fetch_add(1, Ordering::Relaxed);
        let live_bytes = self.inner.num_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.peak_bytes.fetch_max(live_bytes, Ordering::Relaxed);
        if self.inner.profiling.load(Ordering::Relaxed) {
            let p = &self.inner.profile;
            p.new_bytes.fetch_add(bytes, Ordering::Relaxed);
            p.peak_bytes.fetch_max(live_bytes, Ordering::Relaxed);
        }
        handle
    }

    /// Create a tensor from host data on the active backend.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] when `data.len() != shape.size()`.
    pub fn make_tensor(&self, data: TensorData, shape: Shape, dtype: DType) -> Result<Tensor> {
        if data.len() != shape.size() {
            return Err(Error::invalid(
                "tensor",
                format!("data length {} does not match shape {} (size {})", data.len(), shape, shape.size()),
            ));
        }
        // The float→U8 cast saturates and maps NaN to 0 (see
        // `TensorData::cast`); a NaN pixel silently zeroing out would
        // corrupt quantized image inputs, so the engine boundary rejects
        // non-finite values instead.
        if dtype == DType::U8 {
            if let Some((i, v)) = data.first_non_finite() {
                return Err(Error::invalid(
                    "tensor",
                    format!(
                        "cannot create a uint8 tensor: non-finite value {v} at index {i} would silently cast to 0"
                    ),
                ));
            }
        }
        let data = data.into_dtype(dtype);
        let bytes = shape.size() * dtype.byte_size();
        self.collect_garbage();
        // Record the *registry* name, not `backend.name()`: the same backend
        // implementation can be registered under several names (and the data
        // must follow the registration it actually lives on).
        let (backend, backend_name) = self.current_backend()?;
        let id = backend.register(data, dtype);
        let handle = self.register_data(backend_name, id, bytes, dtype);
        Ok(self.register_tensor(handle, shape, dtype))
    }

    /// Create a **quantized** tensor from raw U8 codes plus affine
    /// dequantization parameters (paper Sec 5.1), stored at one byte per
    /// element with `value ≈ code * scale + min` semantics. The params live
    /// in the tensor registry — they survive backend migration and
    /// context-loss recovery, and fused quantized kernels read them to run
    /// dequant-free (see [`crate::quant::QuantParams`]).
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] when `codes.len() != shape.size()` or the
    /// params fail [`crate::quant::QuantParams::validate`].
    pub fn quantized_tensor(
        &self,
        codes: Vec<u8>,
        shape: impl Into<Shape>,
        params: crate::quant::QuantParams,
    ) -> Result<Tensor> {
        let shape = shape.into();
        params.validate(&shape)?;
        let t = self.make_tensor(TensorData::U8(codes), shape, DType::U8)?;
        self.set_quant_params(t.id(), Arc::new(params));
        Ok(t)
    }

    /// Attach dequantization params to an existing tensor (used by alias
    /// propagation and the quantized-weight loader).
    pub(crate) fn set_quant_params(&self, tensor_id: usize, params: Arc<crate::quant::QuantParams>) {
        if let Some(rec) = self.tensor_shard(tensor_id).lock().get_mut(&tensor_id) {
            rec.quant = Some(params);
        }
    }

    /// The dequantization params attached to a tensor, if it is quantized.
    pub fn quant_params(&self, tensor_id: usize) -> Option<Arc<crate::quant::QuantParams>> {
        self.tensor_shard(tensor_id).lock().get(&tensor_id).and_then(|r| r.quant.clone())
    }

    /// Create a new tensor that shares the data of `t` under a new shape —
    /// the free `reshape`/`clone` of paper Sec 3.4. Records an alias node
    /// while a tape records.
    ///
    /// # Errors
    /// Fails when `t` is disposed or the element counts differ.
    pub fn run_alias(&self, kernel: &'static str, t: &Tensor, new_shape: Shape) -> Result<Tensor> {
        if t.shape().size() != new_shape.size() {
            return Err(Error::shape(
                kernel,
                format!("cannot view {} as {} (different sizes)", t.shape(), new_shape),
            ));
        }
        // A view of quantized codes keeps its params, with a per-channel
        // axis remapped to where it lands in the new shape; a view the
        // params cannot describe is refused before anything is registered.
        let quant = match t.quant_params() {
            Some(q) => Some(q.reshaped(t.shape_ref().dims(), new_shape.dims())?),
            None => None,
        };
        self.collect_garbage();
        let data_handle = self
            .tensor_shard(t.id())
            .lock()
            .get(&t.id())
            .ok_or(Error::TensorDisposed { tensor_id: t.id() })?
            .data;
        {
            let mut shard = self.data_shard(data_handle).lock();
            let rec = shard
                .get_mut(&data_handle)
                .ok_or(Error::TensorDisposed { tensor_id: t.id() })?;
            rec.refcount += 1;
        }
        let out = self.register_tensor(data_handle, new_shape, t.dtype());
        if let Some(q) = quant {
            self.set_quant_params(out.id(), q);
        }
        self.maybe_record(kernel, &[t], std::slice::from_ref(&out), || Grad::Alias);
        Ok(out)
    }

    /// Record a tape node for `outputs` on every tape on the stack while one
    /// records — an outer tape differentiates what an inner one saw, so a
    /// gradient of a gradient is right — unless every output is an integer
    /// or bool result, which carries no gradient.
    fn maybe_record(
        &self,
        kernel: &'static str,
        inputs: &[&Tensor],
        outputs: &[Tensor],
        grad: impl FnOnce() -> Grad,
    ) {
        if !self.inner.tape_active.load(Ordering::Acquire)
            || !outputs.iter().any(|t| t.dtype().is_float())
        {
            return;
        }
        let mut meta = self.inner.meta.lock();
        if meta.tape_stack.is_empty() || meta.recording_paused {
            return;
        }
        let node = TapeNode {
            kernel,
            input_ids: inputs.iter().map(|t| t.id()).collect(),
            output_ids: outputs.iter().map(|t| t.id()).collect(),
            inputs: inputs.iter().map(|&t| t.clone()).collect(),
            outputs: outputs.to_vec(),
            grad: grad(),
        };
        for t in inputs {
            meta.kept_by_tape.insert(t.id());
        }
        for t in outputs {
            meta.kept_by_tape.insert(t.id());
        }
        let (inner, outer) = meta.tape_stack.split_last_mut().expect("tape active");
        for tape in outer {
            tape.record(node.clone());
        }
        inner.record(node);
    }

    /// Resolve `t`'s data record, migrate it to the active backend when it
    /// lives elsewhere, and pin it (refcount) so a concurrent dispose cannot
    /// free it mid-kernel. The migration happens while this data shard's
    /// lock is held, so the same container is never migrated twice.
    fn pin_input(
        &self,
        t: &Tensor,
        backend: &dyn Backend,
        backend_name: &str,
    ) -> Result<(u64, DataId)> {
        let data_handle = self
            .tensor_shard(t.id())
            .lock()
            .get(&t.id())
            .ok_or(Error::TensorDisposed { tensor_id: t.id() })?
            .data;
        let mut shard = self.data_shard(data_handle).lock();
        let rec = shard
            .get_mut(&data_handle)
            .ok_or(Error::TensorDisposed { tensor_id: t.id() })?;
        // Migrate data living on another backend (lazy movement on first
        // use, like tfjs `moveData`). After a degradation this is the
        // recovery path: the read serves the failed backend's host-side
        // copies.
        if rec.backend_name != backend_name {
            let old_backend = self.backend_by_name(&rec.backend_name);
            let host = Self::read_sync_with_retry(old_backend.as_ref(), rec.id)?;
            old_backend.dispose_data(rec.id);
            let new_id = backend.register(host, rec.dtype);
            rec.backend_name = backend_name.to_string();
            rec.id = new_id;
        }
        rec.refcount += 1; // pin
        Ok((data_handle, rec.id))
    }

    /// Run one kernel call over `inputs`: migrate and pin them, run the call
    /// on the active backend, register its output under the name, shape and
    /// dtype the call reports ([`KernelCall::name`], [`KernelCall::output`]),
    /// and, while a tape records, record the call itself — backprop
    /// differentiates it by its rule ([`crate::grads`]).
    ///
    /// This is the single funnel every op goes through; profiling, the
    /// NaN-debug mode (paper Sec 3.8), and the fault-recovery policy hook
    /// in here. On a transient backend failure the kernel is retried in
    /// place with bounded exponential backoff; on context loss — or when
    /// retries are exhausted, or the backend cannot run the kernel at all —
    /// the engine *degrades*: it switches to the next backend in the
    /// priority chain and re-dispatches. The input-migration step at the
    /// top of the funnel then re-uploads the tensors' data from the failing
    /// backend's host-side copies, so no data is lost and callers only
    /// observe a [`DegradationEvent`] instead of an error. A fused call
    /// ([`KernelCall::is_fused`]) the backend refuses
    /// ([`Error::KernelUnsupported`]) is the exception: the refusal is
    /// returned, never degraded, and [`crate::ops::run`] composes the call
    /// from plain calls on the same backend.
    ///
    /// Only the registry shards holding the kernel's inputs/outputs are
    /// locked, and never across the kernel itself — concurrent kernels on
    /// disjoint tensors proceed in parallel.
    ///
    /// # Errors
    /// Propagates a malformed call, disposed-tensor, NaN-debug, and
    /// non-degradable backend errors, a fused call's refusal, plus
    /// degradable errors once no lower-priority backend is left to fall
    /// back to.
    pub fn run_kernel(&self, call: &KernelCall<'_>, inputs: &[&Tensor]) -> Result<Tensor> {
        let kernel = call.name();
        // Transient in-place retries against the current backend; reset on
        // every degradation so a fresh backend gets its full budget.
        let mut attempts: u32 = 0;
        loop {
            self.collect_garbage();
            // Phase 1: resolve the backend, then validate/migrate/pin each
            // input under its own shard locks.
            let (backend, backend_name) = self.current_backend()?;
            let mut input_data: Vec<(u64, DataId)> = Vec::with_capacity(inputs.len());
            let mut pin_failure: Option<Error> = None;
            for t in inputs {
                match self.pin_input(t, backend.as_ref(), &backend_name) {
                    Ok(pinned) => input_data.push(pinned),
                    Err(e) => {
                        pin_failure = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = pin_failure {
                self.unpin(&input_data);
                return Err(e);
            }

            // Phase 2 (no registry locks held): run the kernel. Quantized
            // operands carry their params on the descriptor; `quants` stays
            // unallocated unless some input is U8.
            let quants: Vec<_> = if inputs.iter().any(|t| t.dtype() == DType::U8) {
                inputs.iter().map(|t| t.quant_params()).collect()
            } else {
                Vec::new()
            };
            let ktensors: Vec<KTensor<'_>> = inputs
                .iter()
                .zip(&input_data)
                .enumerate()
                .map(|(i, (t, (_, id)))| KTensor {
                    data: *id,
                    shape: t.shape_ref(),
                    dtype: t.dtype(),
                    quant: quants.get(i).and_then(|q| q.as_deref()),
                })
                .collect();
            let (shape, dtype) = match call.output(&ktensors) {
                Ok(out) => out,
                Err(e) => {
                    self.unpin(&input_data);
                    return Err(e);
                }
            };
            let profiling = self.inner.profiling.load(Ordering::Relaxed);
            let tracing = webml_telemetry::enabled();
            // Device-timer bracket: sampling may flush the device queue
            // (disjoint timer queries serialize the pipeline), so it is
            // only done while a profile window is open.
            let dev0 = if profiling { backend.device_timer_ns() } else { None };
            let trace_t0 = if tracing { webml_telemetry::now_ns() } else { 0 };
            let t0 = Instant::now();
            let result = backend.run(call, &ktensors);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let kernel_ms = device_ms_since(backend.as_ref(), dev0);
            if tracing {
                webml_telemetry::record_span(kernel, "kernel", trace_t0, webml_telemetry::now_ns());
                let tele = kernel_metrics();
                tele.kernels.inc();
                tele.wall_ms.observe(wall_ms);
                if let Some(d) = kernel_ms {
                    tele.device_ms.observe(d);
                }
            }

            // NaN-debug mode: download the output and fail at the first
            // NaN, naming the kernel (paper Sec 3.8).
            if let (true, Ok(id)) = (self.inner.debug.load(Ordering::Relaxed), &result) {
                if dtype.is_float() && backend.read_sync(*id)?.has_nan() {
                    backend.dispose_data(*id);
                    self.unpin(&input_data);
                    return Err(Error::NanDetected { kernel });
                }
            }

            // Phase 3: unpin inputs, then register the output / handle failure.
            self.unpin(&input_data);
            let id = match result {
                Ok(id) => id,
                Err(e) => {
                    // Context loss cannot heal by itself, so it skips the
                    // in-place retries and degrades immediately.
                    let retryable = e.is_transient() && !matches!(e, Error::ContextLost { .. });
                    if retryable && attempts + 1 < MAX_TRANSIENT_ATTEMPTS {
                        attempts += 1;
                        if tracing {
                            webml_telemetry::instant_arg(kernel, "retry", "attempt", attempts as f64);
                        }
                        kernel_metrics().retries.inc();
                        std::thread::sleep(backoff_delay(attempts));
                        continue;
                    }
                    // A device's refusal of a fused call goes back to the
                    // op layer, which composes the call from plain ones.
                    let refused = call.is_fused() && matches!(e, Error::KernelUnsupported { .. });
                    if e.is_degradable() && !refused && self.try_degrade(kernel, &backend_name, &e)
                    {
                        attempts = 0;
                        continue;
                    }
                    return Err(e);
                }
            };
            let bytes_added = shape.size() * dtype.byte_size();
            let handle = self.register_data(backend_name, id, bytes_added, dtype);
            let output = self.register_tensor(handle, shape, dtype);
            if profiling {
                let p = &self.inner.profile;
                let seq = p.seq.fetch_add(1, Ordering::Relaxed);
                let output_shapes = vec![output.shape()];
                p.stripe().lock().push((
                    seq,
                    KernelProfile { name: kernel, wall_ms, kernel_ms, output_shapes, bytes_added },
                ));
            }
            let outputs = std::slice::from_ref(&output);
            self.maybe_record(kernel, inputs, outputs, || Grad::Call(call.clone().into_owned()));
            return Ok(output);
        }
    }

    /// Switch the active backend to the highest-priority backend strictly
    /// below the failing one, recording a [`DegradationEvent`]. Returns
    /// whether a fallback target exists. When another thread already
    /// degraded away from `failed_backend`, no event is recorded and the
    /// caller simply retries on the new backend.
    fn try_degrade(&self, kernel: &'static str, failed_backend: &str, err: &Error) -> bool {
        let mut table = self.inner.backends.write();
        let cur = match table.current {
            Some(i) => i,
            None => return false,
        };
        if table.entries[cur].0 != failed_backend {
            return true;
        }
        let cur_priority = table.entries[cur].1;
        let next = table
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (n, p, _))| *p < cur_priority && n != failed_backend)
            .max_by_key(|(_, (_, p, _))| *p)
            .map(|(i, _)| i);
        match next {
            Some(i) => {
                let event = DegradationEvent {
                    kernel,
                    from_backend: failed_backend.to_string(),
                    to_backend: table.entries[i].0.clone(),
                    reason: err.to_string(),
                };
                table.current = Some(i);
                self.inner.degradations.fetch_add(1, Ordering::Relaxed);
                webml_telemetry::flight::transition(
                    "engine.degrade",
                    format!("{} -> {} on {kernel}: {err}", event.from_backend, event.to_backend),
                );
                self.inner.degradation_log.lock().push(event);
                kernel_metrics().degradations.inc();
                webml_telemetry::instant(kernel, "degrade");
                true
            }
            None => false,
        }
    }

    /// Read from a backend, retrying transient failures (e.g. an injected
    /// readback fault) with bounded backoff. Context loss is not retried:
    /// backends keep host-side copies readable across a loss.
    fn read_sync_with_retry(backend: &dyn Backend, id: DataId) -> Result<TensorData> {
        let mut attempt = 0;
        loop {
            match backend.read_sync(id) {
                Err(ref e) if e.is_transient() && attempt + 1 < MAX_READ_ATTEMPTS => {
                    attempt += 1;
                    std::thread::sleep(backoff_delay(attempt));
                }
                other => return other,
            }
        }
    }

    /// Times the engine abandoned a failing backend for a lower-priority
    /// one (graceful degradation) over its lifetime.
    pub fn degradations(&self) -> u64 {
        self.inner.degradations.load(Ordering::SeqCst)
    }

    /// The full degradation event log, oldest first.
    pub fn degradation_events(&self) -> Vec<DegradationEvent> {
        self.inner.degradation_log.lock().clone()
    }

    /// A generation counter that changes whenever the engine degrades to a
    /// fallback backend. One relaxed atomic load — the cheap way for
    /// caches (e.g. the serve-side warm-model cache) to poll "did the
    /// world change since I last looked?" without touching the event log.
    pub fn degradation_generation(&self) -> u64 {
        self.inner.degradations.load(Ordering::Relaxed)
    }

    /// Health snapshot of the backend stack: which backend is serving,
    /// which one the engine would prefer, and the degradation generation.
    /// A serving router's circuit breaker polls this to decide whether an
    /// engine is degraded (running below its preferred backend) and whether
    /// anything changed since it last looked.
    pub fn backend_health(&self) -> BackendHealth {
        let table = self.inner.backends.read();
        let current = table
            .current
            .map(|i| table.entries[i].0.clone())
            .unwrap_or_else(|| "<none>".to_string());
        let preferred = table
            .entries
            .iter()
            .max_by_key(|(_, p, _)| *p)
            .map(|(n, _, _)| n.clone())
            .unwrap_or_else(|| "<none>".to_string());
        BackendHealth {
            at_preferred: current == preferred,
            current_backend: current,
            preferred_backend: preferred,
            degradation_generation: self.inner.degradations.load(Ordering::Relaxed),
        }
    }

    /// Re-select the highest-priority registered backend after external
    /// recovery (e.g. a restored WebGL context) — the re-admission half of
    /// the degradation ladder. Returns the name of the backend promoted to,
    /// or `None` when the engine is already on its preferred backend (or no
    /// backend is registered). Safe to call optimistically: if the promoted
    /// backend is still broken, the next kernel simply degrades again.
    pub fn promote_backend(&self) -> Option<String> {
        let mut table = self.inner.backends.write();
        let best = table
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(_, (_, p, _))| *p)
            .map(|(i, _)| i)?;
        if table.current == Some(best) {
            return None;
        }
        table.current = Some(best);
        Some(table.entries[best].0.clone())
    }

    /// Run a *composite* op with a user-supplied gradient (`tf.customGrad`):
    /// `forward` computes the outputs using ordinary ops, but those inner
    /// ops are not recorded — instead a single tape node with `grad` is,
    /// so backprop treats the whole composite as one differentiable unit.
    ///
    /// Useful for numerically better gradients than the composed ones
    /// (e.g. fused softmax-cross-entropy) and for gradient overrides.
    ///
    /// # Errors
    /// Propagates errors from `forward`.
    pub fn run_custom(
        &self,
        kernel: &'static str,
        inputs: &[&Tensor],
        forward: impl FnOnce() -> Result<Vec<Tensor>>,
        grad: GradFn,
    ) -> Result<Vec<Tensor>> {
        let outputs = self.pause_recording(forward)?;
        self.maybe_record(kernel, inputs, &outputs, || Grad::Custom(grad));
        Ok(outputs)
    }

    fn unpin(&self, input_data: &[(u64, DataId)]) {
        for (handle, _) in input_data {
            self.release_data(*handle);
        }
    }

    fn release_data(&self, handle: u64) {
        let removed = {
            let mut shard = self.data_shard(handle).lock();
            let rec = shard.get_mut(&handle).expect("pinned data exists");
            rec.refcount -= 1;
            if rec.refcount == 0 {
                shard.remove(&handle)
            } else {
                None
            }
        };
        if let Some(rec) = removed {
            self.inner.num_data.fetch_sub(1, Ordering::Relaxed);
            self.inner.num_bytes.fetch_sub(rec.bytes, Ordering::Relaxed);
            let backend = self.backend_by_name(&rec.backend_name);
            backend.dispose_data(rec.id);
        }
    }

    // --- reads -------------------------------------------------------------

    pub(crate) fn read_sync(&self, tensor_id: usize) -> Result<TensorData> {
        let (backend, id) = self.locate_data(tensor_id)?;
        Self::read_sync_with_retry(backend.as_ref(), id)
    }

    pub(crate) fn read(&self, tensor_id: usize) -> Result<crate::backend::DataFuture> {
        let (backend, id) = self.locate_data(tensor_id)?;
        Ok(backend.read(id))
    }

    fn locate_data(&self, tensor_id: usize) -> Result<(Arc<dyn Backend>, DataId)> {
        let handle = self
            .tensor_shard(tensor_id)
            .lock()
            .get(&tensor_id)
            .ok_or(Error::TensorDisposed { tensor_id })?
            .data;
        let (backend_name, id) = {
            let shard = self.data_shard(handle).lock();
            let rec = shard.get(&handle).ok_or(Error::TensorDisposed { tensor_id })?;
            (rec.backend_name.clone(), rec.id)
        };
        Ok((self.backend_by_name(&backend_name), id))
    }

    pub(crate) fn is_disposed(&self, tensor_id: usize) -> bool {
        !self.tensor_shard(tensor_id).lock().contains_key(&tensor_id)
    }

    /// Bytes held by a live tensor's data container (0 when disposed).
    pub(crate) fn tensor_bytes(&self, tensor_id: usize) -> usize {
        let handle = match self.tensor_shard(tensor_id).lock().get(&tensor_id) {
            Some(rec) => rec.data,
            None => return 0,
        };
        self.data_shard(handle).lock().get(&handle).map(|rec| rec.bytes).unwrap_or(0)
    }

    // --- disposal, keep, scopes ---------------------------------------------

    /// Dispose a tensor explicitly (`tensor.dispose()`). Idempotent.
    pub fn dispose_tensor(&self, tensor_id: usize) {
        let removed = self.tensor_shard(tensor_id).lock().remove(&tensor_id);
        if let Some(rec) = removed {
            self.inner.num_tensors.fetch_sub(1, Ordering::Relaxed);
            self.release_data(rec.data);
        }
    }

    /// Dispose a tensor that the end of `scope` would dispose anyway: one
    /// registered in it that is neither kept nor a variable. Anything else
    /// is left alone. Backprop frees a tensor at its last use this way.
    pub(crate) fn dispose_in_scope(&self, tensor_id: usize, scope: usize) {
        let removed = {
            let mut shard = self.tensor_shard(tensor_id).lock();
            match shard.get(&tensor_id) {
                Some(rec) if rec.scope == Some(scope) && !rec.kept && !rec.variable => {
                    shard.remove(&tensor_id)
                }
                _ => None,
            }
        };
        if let Some(rec) = removed {
            self.inner.num_tensors.fetch_sub(1, Ordering::Relaxed);
            self.release_data(rec.data);
        }
    }

    /// Mark a tensor as kept: it survives all enclosing `tidy` scopes
    /// (`tf.keep`).
    pub fn keep(&self, tensor_id: usize) {
        if let Some(rec) = self.tensor_shard(tensor_id).lock().get_mut(&tensor_id) {
            rec.kept = true;
        }
    }

    pub(crate) fn mark_variable(&self, tensor_id: usize) {
        if let Some(rec) = self.tensor_shard(tensor_id).lock().get_mut(&tensor_id) {
            rec.variable = true;
            rec.kept = true;
        }
    }

    /// Push a named memory scope onto the *calling thread's* scope stack.
    /// Prefer [`Engine::tidy`].
    pub fn start_scope(&self, name: &'static str) {
        let id = self.inner.next_scope_id.fetch_add(1, Ordering::Relaxed);
        let mut meta = self.inner.meta.lock();
        meta.scopes
            .entry(std::thread::current().id())
            .or_default()
            .push(Scope { id, name, tensors: Vec::new() });
    }

    /// Pop the calling thread's current scope, disposing every tensor
    /// allocated inside it except kept tensors, variables, tape-referenced
    /// tensors, and the ids in `keep_ids` (which move to the parent scope).
    pub fn end_scope(&self, keep_ids: &[usize]) {
        self.collect_garbage();
        let tid = std::thread::current().id();
        let mut meta = self.inner.meta.lock();
        let scope = {
            let stack = match meta.scopes.get_mut(&tid) {
                Some(s) => s,
                None => return,
            };
            match stack.pop() {
                Some(s) => s,
                None => return,
            }
        };
        if meta.scopes.get(&tid).is_some_and(|s| s.is_empty()) {
            meta.scopes.remove(&tid);
        }
        let parent = meta.scopes.get(&tid).and_then(|s| s.last()).map(|s| s.id);
        let mut to_dispose = Vec::new();
        let mut to_parent = Vec::new();
        for id in &scope.tensors {
            let shard = self.tensor_shard(*id).lock();
            let rec = match shard.get(id) {
                Some(r) => r,
                None => continue, // already disposed
            };
            // Tensors may have been re-homed (kept) since creation.
            if rec.scope != Some(scope.id) {
                continue;
            }
            let survive = rec.kept
                || rec.variable
                || keep_ids.contains(id)
                || meta.kept_by_tape.contains(id);
            if survive {
                to_parent.push(*id);
            } else {
                to_dispose.push(*id);
            }
        }
        for id in to_parent {
            if let Some(rec) = self.tensor_shard(id).lock().get_mut(&id) {
                rec.scope = parent;
            }
            if let Some(p) = meta.scopes.get_mut(&tid).and_then(|s| s.last_mut()) {
                p.tensors.push(id);
            }
        }
        drop(meta);
        for id in to_dispose {
            self.dispose_tensor(id);
        }
        let _ = scope.name;
    }

    /// Execute `f` inside a memory scope and dispose every intermediate
    /// tensor it allocated, except those referenced by the return value —
    /// `tf.tidy()` (paper Sec 3.7). Scopes are per-thread: concurrent
    /// `tidy` calls on different threads are fully independent.
    pub fn tidy<R: TidyOutput>(&self, f: impl FnOnce() -> R) -> R {
        self.start_scope("tidy");
        let out = f();
        self.end_scope(&out.tensor_ids());
        out
    }

    /// The id of the calling thread's current scope, if one is open.
    pub(crate) fn scope_id(&self) -> Option<usize> {
        let meta = self.inner.meta.lock();
        meta.scopes.get(&std::thread::current().id()).and_then(|s| s.last()).map(|s| s.id)
    }

    /// Number of tensors registered so far in the calling thread's current
    /// scope; `None` without a scope. Pair with [`Engine::trim_scope`] for
    /// cheap composite-op cleanup on a hot path.
    pub(crate) fn scope_mark(&self) -> Option<usize> {
        let meta = self.inner.meta.lock();
        let scope = meta.scopes.get(&std::thread::current().id()).and_then(|s| s.last());
        scope.map(|s| s.tensors.len())
    }

    /// Dispose every tensor registered in the current scope from index
    /// `mark` onward, except `keep_id` and kept/variable/tape-referenced
    /// tensors. Semantically a `tidy` wrapped around just those
    /// registrations, but without the scope push/pop, parent re-homing, or
    /// garbage pass — a composite op cleans up after itself this way at a
    /// fraction of a nested scope's cost.
    pub(crate) fn trim_scope(&self, mark: usize, keep_id: usize) {
        let mut to_dispose = Vec::new();
        {
            let mut meta = self.inner.meta.lock();
            let tid = std::thread::current().id();
            let tail = {
                let scope = match meta.scopes.get_mut(&tid).and_then(|s| s.last_mut()) {
                    Some(s) => s,
                    None => return,
                };
                if mark >= scope.tensors.len() {
                    return;
                }
                scope.tensors.split_off(mark)
            };
            let mut survivors = Vec::new();
            for id in tail {
                if id == keep_id {
                    survivors.push(id);
                    continue;
                }
                let survive = {
                    let shard = self.tensor_shard(id).lock();
                    match shard.get(&id) {
                        None => continue, // already disposed
                        Some(rec) => rec.kept || rec.variable,
                    }
                } || meta.kept_by_tape.contains(&id);
                if survive {
                    survivors.push(id);
                } else {
                    to_dispose.push(id);
                }
            }
            if !survivors.is_empty() {
                if let Some(scope) = meta.scopes.get_mut(&tid).and_then(|s| s.last_mut()) {
                    scope.tensors.extend(survivors);
                }
            }
        }
        for id in to_dispose {
            self.dispose_tensor(id);
        }
    }

    // --- tape --------------------------------------------------------------

    pub(crate) fn push_tape(&self) {
        let mut meta = self.inner.meta.lock();
        meta.tape_stack.push(Tape::new());
        self.inner.tape_active.store(true, Ordering::Release);
    }

    /// Pop the active tape. Clears the tape-keep set when the stack empties.
    pub(crate) fn pop_tape(&self) -> Tape {
        let (tape, _leftover): (Tape, Vec<usize>) = {
            let mut meta = self.inner.meta.lock();
            let tape = meta.tape_stack.pop().expect("tape stack underflow");
            let leftover = if meta.tape_stack.is_empty() {
                self.inner.tape_active.store(false, Ordering::Release);
                meta.kept_by_tape.drain().collect()
            } else {
                Vec::new()
            };
            (tape, leftover)
        };
        // Tape node drops (and the saved tensor handle drops inside) happen
        // here, outside the meta lock, via the caller dropping `tape`.
        tape
    }

    /// Whether any tape is on the stack, recording or paused: while one is,
    /// the tensors its nodes save outlive every scope.
    pub(crate) fn has_tape(&self) -> bool {
        self.inner.tape_active.load(Ordering::Acquire)
    }

    pub(crate) fn pause_recording<R>(&self, f: impl FnOnce() -> R) -> R {
        {
            self.inner.meta.lock().recording_paused = true;
        }
        let r = f();
        {
            self.inner.meta.lock().recording_paused = false;
        }
        r
    }

    // --- diagnostics ---------------------------------------------------------

    /// Engine-plus-backend memory snapshot (`tf.memory()`).
    pub fn memory(&self) -> MemoryInfo {
        let backend = self.backend();
        self.collect_garbage();
        let table = self.inner.backends.read();
        MemoryInfo {
            num_tensors: self.inner.num_tensors.load(Ordering::SeqCst),
            num_data_buffers: self.inner.num_data.load(Ordering::SeqCst),
            num_bytes: self.inner.num_bytes.load(Ordering::SeqCst),
            backend: backend.memory(),
            degradations: self.inner.degradations.load(Ordering::SeqCst),
            current_backend: table
                .current
                .map(|i| table.entries[i].0.clone())
                .unwrap_or_default(),
        }
    }

    /// Count of live tensors (`tf.memory().numTensors`).
    pub fn num_tensors(&self) -> usize {
        self.collect_garbage();
        self.inner.num_tensors.load(Ordering::SeqCst)
    }

    /// High-water mark of live bytes since engine creation or the last
    /// [`Engine::reset_peak_bytes`]. Always maintained (one relaxed
    /// `fetch_max` per allocation), unlike [`Engine::profile`]'s peak which
    /// only tracks inside a profiling window — memory planners and benches
    /// read this without paying for kernel-log collection.
    pub fn peak_bytes(&self) -> usize {
        self.inner.peak_bytes.load(Ordering::Relaxed)
    }

    /// Reset the peak-bytes high-water mark to the current live bytes, so a
    /// subsequent [`Engine::peak_bytes`] measures only the window after this
    /// call.
    pub fn reset_peak_bytes(&self) {
        self.inner
            .peak_bytes
            .store(self.inner.num_bytes.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    /// Whether a gradient tape is currently recording on this thread's
    /// engine (and not paused). The graph executor reads it once per run
    /// and keeps its intermediates while it holds: eager disposal would
    /// destroy tensors the tape still references.
    pub fn is_recording(&self) -> bool {
        if !self.inner.tape_active.load(Ordering::Acquire) {
            return false;
        }
        let meta = self.inner.meta.lock();
        !meta.tape_stack.is_empty() && !meta.recording_paused
    }

    /// Enable or disable NaN-checking debug mode (paper Sec 3.8).
    pub fn set_debug(&self, on: bool) {
        self.inner.debug.store(on, Ordering::Relaxed);
    }

    /// Whether NaN-checking debug mode is on.
    pub fn debug(&self) -> bool {
        self.inner.debug.load(Ordering::Relaxed)
    }

    /// Profile the memory and kernel behaviour of `f` (`tf.profile`).
    ///
    /// Kernels run by *any* thread while the window is open are recorded
    /// (into per-thread-striped buffers, folded here in dispatch order),
    /// so `f` may fan work out across threads as long as it joins them
    /// before returning. One profile window at a time per engine.
    pub fn profile<R>(&self, f: impl FnOnce() -> R) -> (R, ProfileInfo) {
        let p = &self.inner.profile;
        for stripe in &p.kernels {
            stripe.lock().clear();
        }
        p.new_tensors.store(0, Ordering::Relaxed);
        p.new_bytes.store(0, Ordering::Relaxed);
        p.peak_tensors.store(self.inner.num_tensors.load(Ordering::SeqCst), Ordering::Relaxed);
        p.peak_bytes.store(self.inner.num_bytes.load(Ordering::SeqCst), Ordering::Relaxed);
        p.seq.store(0, Ordering::Relaxed);
        self.inner.profiling.store(true, Ordering::Release);
        let r = f();
        self.inner.profiling.store(false, Ordering::Release);
        let mut ordered: Vec<(u64, KernelProfile)> = Vec::new();
        for stripe in &p.kernels {
            ordered.append(&mut stripe.lock());
        }
        ordered.sort_by_key(|(seq, _)| *seq);
        (
            r,
            ProfileInfo {
                new_tensors: p.new_tensors.load(Ordering::Relaxed),
                new_bytes: p.new_bytes.load(Ordering::Relaxed),
                peak_tensors: p.peak_tensors.load(Ordering::Relaxed),
                peak_bytes: p.peak_bytes.load(Ordering::Relaxed),
                kernels: ordered.into_iter().map(|(_, k)| k).collect(),
            },
        )
    }

    /// Time `f`, reporting wall time and backend kernel time (`tf.time`):
    /// the kernel time is the difference of two samples of the device timer
    /// of the backend the window starts on, so windows open on other threads
    /// do not disturb it (see [`TimeInfo::kernel_ms`]).
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, TimeInfo) {
        let backend = self.backend();
        let start = backend.device_timer_ns();
        let t0 = Instant::now();
        let r = f();
        let kernel_ms = device_ms_since(backend.as_ref(), start).unwrap_or(f64::NAN);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        (r, TimeInfo { wall_ms, kernel_ms })
    }
}

/// Device-timer milliseconds since the sample `start`; `None` without one.
fn device_ms_since(backend: &dyn Backend, start: Option<u64>) -> Option<f64> {
    let start = start?;
    Some(backend.device_timer_ns()?.saturating_sub(start) as f64 / 1e6)
}

/// Types that can be returned from [`Engine::tidy`]: the engine must be able
/// to see which tensors the return value references so it can keep them.
pub trait TidyOutput {
    /// Ids of the tensors referenced by this value.
    fn tensor_ids(&self) -> Vec<usize>;
}

impl TidyOutput for () {
    fn tensor_ids(&self) -> Vec<usize> {
        Vec::new()
    }
}

impl TidyOutput for Tensor {
    fn tensor_ids(&self) -> Vec<usize> {
        vec![self.id()]
    }
}

impl TidyOutput for Vec<Tensor> {
    fn tensor_ids(&self) -> Vec<usize> {
        self.iter().map(|t| t.id()).collect()
    }
}

impl<const N: usize> TidyOutput for [Tensor; N] {
    fn tensor_ids(&self) -> Vec<usize> {
        self.iter().map(|t| t.id()).collect()
    }
}

impl<T: TidyOutput> TidyOutput for Option<T> {
    fn tensor_ids(&self) -> Vec<usize> {
        self.as_ref().map(|t| t.tensor_ids()).unwrap_or_default()
    }
}

impl<T: TidyOutput> TidyOutput for Result<T> {
    fn tensor_ids(&self) -> Vec<usize> {
        self.as_ref().map(|t| t.tensor_ids()).unwrap_or_default()
    }
}

impl<A: TidyOutput, B: TidyOutput> TidyOutput for (A, B) {
    fn tensor_ids(&self) -> Vec<usize> {
        let mut v = self.0.tensor_ids();
        v.extend(self.1.tensor_ids());
        v
    }
}

impl<A: TidyOutput, B: TidyOutput, C: TidyOutput> TidyOutput for (A, B, C) {
    fn tensor_ids(&self) -> Vec<usize> {
        let mut v = self.0.tensor_ids();
        v.extend(self.1.tensor_ids());
        v.extend(self.2.tensor_ids());
        v
    }
}

impl TidyOutput for f32 {
    fn tensor_ids(&self) -> Vec<usize> {
        Vec::new()
    }
}

impl TidyOutput for Vec<f32> {
    fn tensor_ids(&self) -> Vec<usize> {
        Vec::new()
    }
}

impl TidyOutput for usize {
    fn tensor_ids(&self) -> Vec<usize> {
        Vec::new()
    }
}

impl TidyOutput for bool {
    fn tensor_ids(&self) -> Vec<usize> {
        Vec::new()
    }
}

impl TidyOutput for String {
    fn tensor_ids(&self) -> Vec<usize> {
        Vec::new()
    }
}

impl TidyOutput for f64 {
    fn tensor_ids(&self) -> Vec<usize> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuBackend;
    use crate::ops;

    /// `script(rung, n)`: the error the `n`-th kernel call, on `rung`, fails
    /// with, if any.
    type Script = Arc<dyn Fn(&str, u64) -> Option<Error> + Send + Sync>;

    /// A reference backend whose kernel calls consult a script first, `n`
    /// counting the calls every rung sharing `calls` got.
    struct Scripted {
        rung: &'static str,
        calls: Arc<AtomicU64>,
        script: Script,
        cpu: CpuBackend,
    }

    impl Backend for Scripted {
        fn register(&self, data: TensorData, dtype: DType) -> DataId {
            self.cpu.register(data, dtype)
        }
        fn read_sync(&self, id: DataId) -> Result<TensorData> {
            self.cpu.read_sync(id)
        }
        fn read(&self, id: DataId) -> crate::backend::DataFuture {
            self.cpu.read(id)
        }
        fn dispose_data(&self, id: DataId) {
            self.cpu.dispose_data(id)
        }
        fn memory(&self) -> BackendMemory {
            self.cpu.memory()
        }
        fn run(&self, call: &KernelCall<'_>, operands: &[KTensor<'_>]) -> Result<DataId> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
            match (self.script)(self.rung, n) {
                Some(e) => Err(e),
                None => self.cpu.run(call, operands),
            }
        }
    }

    /// An engine whose `rungs`, head first, follow `script`, and the count of
    /// kernel calls they got.
    fn scripted(
        rungs: &[&'static str],
        script: impl Fn(&str, u64) -> Option<Error> + Send + Sync + 'static,
    ) -> (Engine, Arc<AtomicU64>) {
        let (calls, script) = (Arc::new(AtomicU64::new(0)), Arc::new(script));
        let e = Engine::new();
        // Descending priorities: degradation walks the rungs head first.
        for (i, &rung) in rungs.iter().enumerate() {
            let cpu = CpuBackend::new();
            let (calls, script) = (calls.clone(), script.clone());
            let priority = (rungs.len() - i) as i32;
            e.register_backend(rung, Arc::new(Scripted { rung, calls, script, cpu }), priority);
        }
        (e, calls)
    }

    /// An engine with two CPU-identical tiers: "gpu" (the default) and
    /// "cpu" (the degradation target), following `script`.
    fn two_tier_engine(
        script: impl Fn(&str, u64) -> Option<Error> + Send + Sync + 'static,
    ) -> (Engine, Arc<AtomicU64>) {
        scripted(&["gpu", "cpu"], script)
    }

    /// `|v|` of a fresh `[v]`: one kernel call, answering `v`.
    fn one_kernel(e: &Engine, v: f32) -> Result<Tensor> {
        ops::abs(&e.tensor_1d(&[v])?)
    }

    #[test]
    fn transient_failure_retries_in_place_without_degrading() {
        let (e, calls) = two_tier_engine(|_, n| {
            let fail = n < MAX_TRANSIENT_ATTEMPTS as u64;
            fail.then(|| Error::resource_exhausted("gpu", "simulated pressure"))
        });
        let out = one_kernel(&e, 7.0).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), MAX_TRANSIENT_ATTEMPTS as u64);
        assert_eq!(e.degradations(), 0, "in-place retry must not degrade");
        assert_eq!(e.backend_name(), "gpu");
        assert_eq!(out.to_f32_vec().unwrap(), vec![7.0]);
    }

    #[test]
    fn context_loss_degrades_immediately_with_event() {
        let (e, calls) = two_tier_engine(|_, n| (n == 1).then(|| Error::context_lost("gpu")));
        let one = e.tensor_2d(&[1.0], 1, 1).unwrap();
        let out = ops::matmul(&one, &one, false, false).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2, "context loss must skip in-place retries");
        assert_eq!(e.degradations(), 1);
        assert_eq!(e.backend_name(), "cpu");
        let events = e.degradation_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kernel, "MatMul");
        assert_eq!(events[0].from_backend, "gpu");
        assert_eq!(events[0].to_backend, "cpu");
        assert!(events[0].reason.contains("lost"), "reason: {}", events[0].reason);
        assert_eq!(out.to_f32_vec().unwrap(), vec![1.0]);
        let mem = e.memory();
        assert_eq!(mem.degradations, 1);
        assert_eq!(mem.current_backend, "cpu");
    }

    #[test]
    fn three_rung_ladder_walks_in_order_and_promotes_back() {
        let (e, _) = scripted(&["webgpu", "webgl", "cpu"], |rung, _| match rung {
            "cpu" => None,
            lost => Some(Error::context_lost(lost)),
        });
        assert_eq!(e.backend_ladder(), vec!["webgpu", "webgl", "cpu"]);
        assert_eq!(e.backend_name(), "webgpu", "head of the ladder is the default");
        // The top two rungs lose their device in turn: the kernel walks
        // webgpu → webgl → cpu and succeeds with no caller-visible error.
        let out = one_kernel(&e, 9.0).unwrap();
        assert_eq!(out.to_f32_vec().unwrap(), vec![9.0]);
        assert_eq!(e.degradations(), 2);
        let events = e.degradation_events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].from_backend.as_str(), events[0].to_backend.as_str()), ("webgpu", "webgl"));
        assert_eq!((events[1].from_backend.as_str(), events[1].to_backend.as_str()), ("webgl", "cpu"));
        let health = e.backend_health();
        assert!(!health.at_preferred);
        assert_eq!(health.current_backend, "cpu");
        assert_eq!(health.preferred_backend, "webgpu");
        // Re-admission climbs back to the head of the ladder.
        assert_eq!(e.promote_backend().as_deref(), Some("webgpu"));
        assert!(e.backend_health().at_preferred);
    }

    #[test]
    fn exhausted_transient_retries_fall_back_to_next_backend() {
        let (e, calls) = two_tier_engine(|_, n| {
            let fail = n <= MAX_TRANSIENT_ATTEMPTS as u64;
            fail.then(|| Error::resource_exhausted("gpu", "texture pool exhausted"))
        });
        let out = one_kernel(&e, 2.0).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), MAX_TRANSIENT_ATTEMPTS as u64 + 1);
        assert_eq!(e.degradations(), 1);
        assert_eq!(e.backend_name(), "cpu");
        assert_eq!(out.to_f32_vec().unwrap(), vec![2.0]);
    }

    #[test]
    fn kernel_unsupported_degrades_without_retrying() {
        let (e, calls) =
            two_tier_engine(|_, n| (n == 1).then(|| Error::kernel_unsupported("gpu", "Abs")));
        let out = one_kernel(&e, 3.0).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2, "unsupported kernels are not transient");
        assert_eq!(e.degradations(), 1);
        assert_eq!(out.to_f32_vec().unwrap(), vec![3.0]);
    }

    #[test]
    fn non_degradable_error_propagates_untouched() {
        let (e, calls) = two_tier_engine(|_, _| Some(Error::backend("gpu", "driver bug")));
        let err = one_kernel(&e, 1.0).unwrap_err();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(e.degradations(), 0);
        assert_eq!(e.backend_name(), "gpu", "fatal errors must not switch backends");
        assert!(matches!(err, Error::Backend { .. }));
    }

    #[test]
    fn degradation_stops_when_no_fallback_is_left() {
        let (e, calls) = two_tier_engine(|_, _| Some(Error::context_lost("everything")));
        let err = one_kernel(&e, 1.0).unwrap_err();
        // One failure per tier: gpu degrades to cpu, cpu has nowhere to go.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(e.degradations(), 1);
        assert!(matches!(err, Error::ContextLost { .. }));
    }

    #[test]
    fn inputs_migrate_to_fallback_backend_after_degradation() {
        // The gpu tier is lost for good; the cpu tier fails the second call
        // only, so the first kernel fails on both tiers, but the degradation
        // it causes sticks.
        let (e, _) =
            two_tier_engine(|rung, n| (rung == "gpu" || n == 2).then(|| Error::context_lost(rung)));
        let x = e.tensor_1d(&[1.0, 2.0]).unwrap(); // lives on "gpu"
        assert!(one_kernel(&e, 1.0).is_err());
        assert_eq!(e.backend_name(), "cpu");
        // First use on the cpu tier migrates x's data across backends.
        let y = ops::add(&x, &x).unwrap();
        assert_eq!(y.to_f32_vec().unwrap(), vec![2.0, 4.0]);
        assert_eq!(e.degradations(), 1);
    }

    #[test]
    fn disposed_input_mid_list_unpins_earlier_inputs() {
        // A kernel whose second input is disposed must release the pin it
        // took on the first input (no refcount leak).
        let (e, calls) = two_tier_engine(|_, _| None);
        let a = e.tensor_1d(&[1.0]).unwrap();
        let b = e.tensor_1d(&[2.0]).unwrap();
        b.dispose();
        let add = KernelCall::Binary(crate::backend::BinaryOp::Add);
        let err = e.run_kernel(&add, &[&a, &b]).unwrap_err();
        assert!(matches!(err, Error::TensorDisposed { .. }));
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        // The pin on `a` was released: disposing it now frees its bytes.
        let before = e.memory().num_bytes;
        a.dispose();
        assert_eq!(e.memory().num_bytes, before - 4);
        assert_eq!(e.num_tensors(), 0);
    }

    #[test]
    fn tidy_scopes_are_per_thread() {
        let (e, _) = two_tier_engine(|_, _| None);
        let e2 = e.clone();
        // A scope left open on a worker thread must not capture tensors
        // created later on the main thread.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            e2.start_scope("worker");
            let t = e2.tensor_1d(&[1.0]).unwrap();
            started_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            e2.end_scope(&[]);
            assert!(t.is_disposed(), "worker scope disposes its own tensor");
        });
        started_rx.recv().unwrap();
        let mine = e.tensor_1d(&[5.0]).unwrap();
        done_tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(!mine.is_disposed(), "main-thread tensor survives the worker's scope");
        assert_eq!(mine.to_f32_vec().unwrap(), vec![5.0]);
        mine.dispose();
        assert_eq!(e.num_tensors(), 0);
    }

    #[test]
    fn backend_health_tracks_degradation_and_promotion() {
        let (e, _) = two_tier_engine(|rung, _| (rung == "gpu").then(|| Error::context_lost("gpu")));
        let h = e.backend_health();
        assert_eq!(h.current_backend, "gpu");
        assert_eq!(h.preferred_backend, "gpu");
        assert!(h.at_preferred);
        assert_eq!(h.degradation_generation, 0);
        assert!(e.promote_backend().is_none(), "already at the preferred backend");

        // A context loss degrades to the cpu tier.
        let out = one_kernel(&e, 3.0).unwrap();
        assert_eq!(out.to_scalar().unwrap(), 3.0);
        let h = e.backend_health();
        assert_eq!(h.current_backend, "cpu");
        assert_eq!(h.preferred_backend, "gpu");
        assert!(!h.at_preferred);
        assert_eq!(h.degradation_generation, 1);

        // Promotion (post-recovery) returns the engine to the fast tier.
        assert_eq!(e.promote_backend().as_deref(), Some("gpu"));
        assert!(e.backend_health().at_preferred);
        // The generation only counts degradations, not promotions.
        assert_eq!(e.degradation_generation(), 1);
        out.dispose();
    }

    #[test]
    fn peak_bytes_tracks_high_water_and_resets() {
        let (e, _) = two_tier_engine(|_, _| None);
        e.reset_peak_bytes();
        let a = e.tensor_1d(&[1.0, 2.0]).unwrap(); // 8 bytes
        let b = e.tensor_1d(&[3.0, 4.0]).unwrap(); // 8 bytes
        assert_eq!(e.peak_bytes(), 16);
        a.dispose();
        b.dispose();
        // The high-water mark survives disposals...
        assert_eq!(e.peak_bytes(), 16);
        // ...until explicitly reset to the (now zero) live bytes.
        e.reset_peak_bytes();
        assert_eq!(e.peak_bytes(), 0);
        let c = e.tensor_1d(&[5.0]).unwrap();
        assert_eq!(e.peak_bytes(), 4);
        c.dispose();
    }
}
