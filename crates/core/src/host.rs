//! The host substrate: one [`Backend`] for every backend that computes on
//! host memory.
//!
//! A host backend is two things. The *substrate* — an id → buffer store, a
//! kernel-time counter, a [`WorkerPool`], and [`Backend::run`]: validate the
//! call, fetch its operands' buffers, run the kernel on them under the
//! timer, store what it returns — is [`HostBackend`], written once here. The
//! *kernel set* — which function runs a call on the buffers — is a
//! [`HostKernels`] marker type whose one `run` defaults to the
//! [`crate::kernels`] oracle; a set matches the calls it has an
//! implementation of its own for and hands the rest to the oracle. The three
//! sets that ship are [`crate::cpu::Reference`] (the oracle itself),
//! `webml_backend_cpu::PlainJs` (five interpreter-style kernels, the Table-1
//! baseline) and `webml_backend_native::Native` (thirteen optimized ones).
//!
//! `K` is a zero-sized marker resolved at compile time, so a kernel call is
//! a direct call: no `dyn`, no table, no box between the substrate and the
//! loop.

use crate::backend::{Backend, BackendMemory, DataFuture, DataId, KTensor, KernelCall};
use crate::dtype::{DType, TensorData};
use crate::error::{Error, Result};
use crate::kernels::{self as k, Operand, Values};
use crate::pool::WorkerPool;
use crate::shape::Shape;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A host kernel set: how [`HostBackend`] runs a call on host buffers.
///
/// The default is the [`crate::kernels`] oracle, so the empty set is the
/// reference backend. A set's own kernel must keep the oracle's accumulation
/// order where the parity suites compare on bits. `pool` is the backend's
/// own; the oracle ignores it.
pub trait HostKernels: 'static {
    /// Registry name of a backend built with [`HostBackend::new`].
    const NAME: &'static str;

    /// Pool size of a backend built without an explicit thread count.
    fn default_threads() -> usize {
        1
    }

    /// Run `call` — validated, `out` its output shape — on `operands`.
    fn run(
        call: &KernelCall<'_>,
        operands: &[Operand<'_>],
        out: &Shape,
        _pool: &WorkerPool,
    ) -> TensorData {
        k::run(call, operands, out)
    }
}

struct Entry {
    data: Arc<TensorData>,
    dtype: DType,
}

/// A backend computing on host memory with the kernel set `K` (see the
/// module docs).
pub struct HostBackend<K: HostKernels> {
    name: String,
    /// The kernels' threads, this backend's own: engines do not queue behind
    /// each other's kernels, and a one-thread backend has no workers at all.
    pool: WorkerPool,
    store: Mutex<HashMap<DataId, Entry>>,
    next_id: AtomicU64,
    kernel_nanos: AtomicU64,
    kernels: PhantomData<fn() -> K>,
}

impl<K: HostKernels> Default for HostBackend<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: HostKernels> HostBackend<K> {
    /// Create a backend under the set's own name and default thread count.
    pub fn new() -> Self {
        Self::with_name(K::NAME)
    }

    /// Create a backend with a custom registry name.
    pub fn with_name(name: impl Into<String>) -> Self {
        Self::with_threads(name, K::default_threads())
    }

    /// Create a backend whose kernels run on a pool of `threads` threads,
    /// the calling one included, spawned here and kept until the backend is
    /// dropped. `1` spawns nothing.
    pub fn with_threads(name: impl Into<String>, threads: usize) -> Self {
        HostBackend {
            name: name.into(),
            pool: WorkerPool::new(threads),
            store: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            kernel_nanos: AtomicU64::new(0),
            kernels: PhantomData,
        }
    }

    /// Threads a kernel can run on, the calling one included.
    pub fn threads(&self) -> usize {
        self.pool.size()
    }

    fn fetch(&self, id: DataId) -> Result<Arc<TensorData>> {
        self.store
            .lock()
            .get(&id)
            .map(|e| e.data.clone())
            .ok_or_else(|| Error::backend(&self.name, format!("unknown data id {id:?}")))
    }

    fn put(&self, data: TensorData, dtype: DType) -> DataId {
        let id = DataId(self.next_id.fetch_add(1, Ordering::Relaxed));
        // A buffer already stored the way `dtype` is stored (every kernel
        // output) moves in; `Bool` still goes through the cast, which
        // normalises non-zero bytes to 1.
        let data = match (&data, dtype) {
            (TensorData::F32(_), DType::F32 | DType::F16)
            | (TensorData::I32(_), DType::I32)
            | (TensorData::U8(_), DType::U8) => data,
            _ => data.cast(dtype),
        };
        self.store.lock().insert(id, Entry { data: Arc::new(data), dtype });
        id
    }

    /// `run` holds one of these from entry to return, so a kernel set has no
    /// way to run untimed.
    fn timer(&self) -> Timer<'_> {
        Timer { nanos: &self.kernel_nanos, start: Instant::now() }
    }
}

struct Timer<'a> {
    nanos: &'a AtomicU64,
    start: Instant,
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.nanos.fetch_add(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl<K: HostKernels> Backend for HostBackend<K> {
    fn register(&self, data: TensorData, dtype: DType) -> DataId {
        self.put(data, dtype)
    }

    fn read_sync(&self, id: DataId) -> Result<TensorData> {
        Ok((*self.fetch(id)?).clone())
    }

    fn read(&self, id: DataId) -> DataFuture {
        DataFuture::ready(self.read_sync(id))
    }

    fn dispose_data(&self, id: DataId) {
        self.store.lock().remove(&id);
    }

    fn memory(&self) -> BackendMemory {
        let store = self.store.lock();
        BackendMemory {
            num_buffers: store.len(),
            num_bytes: store.values().map(|e| e.data.byte_len(e.dtype)).sum(),
            details: vec![("threads".to_string(), self.pool.size() as f64)],
        }
    }

    fn device_timer_ns(&self) -> Option<u64> {
        Some(self.kernel_nanos.load(Ordering::Relaxed))
    }

    fn run(&self, call: &KernelCall<'_>, operands: &[KTensor<'_>]) -> Result<DataId> {
        let _t = self.timer();
        let (out, dtype) = call.output(operands)?;
        let stored: Vec<Arc<TensorData>> =
            operands.iter().map(|t| self.fetch(t.data)).collect::<Result<_>>()?;
        let operands: Vec<Operand<'_>> = stored
            .iter()
            .zip(operands)
            .map(|(data, t)| Operand { values: Values::of(data), shape: t.shape, quant: t.quant })
            .collect();
        Ok(self.put(K::run(call, &operands, &out, &self.pool), dtype))
    }
}
