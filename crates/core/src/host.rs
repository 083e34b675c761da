//! The host substrate: one [`Backend`] for every backend that computes on
//! host memory.
//!
//! A host backend is two things. The *substrate* — an id → buffer store, a
//! kernel-time counter, a [`WorkerPool`], a [`FreeList`] of disposed
//! buffers, and [`Backend::run`]: validate the call, fetch its operands'
//! buffers, run the kernel on them under the timer, store what it returns —
//! is [`HostBackend`], written once here. The *kernel set* — which function
//! runs a call on the buffers — is a [`HostKernels`] marker type whose one
//! `run` defaults to the [`crate::kernels`] oracle; a set matches the calls
//! it has an implementation of its own for and hands the rest to the oracle.
//! The three sets that ship are [`crate::cpu::Reference`] (the oracle
//! itself), `webml_backend_cpu::PlainJs` (five interpreter-style kernels, the
//! Table-1 baseline) and `webml_backend_native::Native` (thirteen optimized
//! ones).
//!
//! A disposed `f32` buffer is not freed but kept on the backend's free list,
//! and a set's own kernels take their outputs and scratch from it ([`Host`]):
//! the host twin of the GPU substrate's texture recycler (paper Sec 4.1.2).
//! A training step then reuses the pages of the step before instead of
//! faulting in fresh ones, and a dropped backend's free buffers serve the
//! next backend's first step.
//!
//! `K` is a zero-sized marker resolved at compile time, so a kernel call is
//! a direct call: no `dyn`, no table, no box between the substrate and the
//! loop.

use crate::backend::{Backend, BackendMemory, DataFuture, DataId, KTensor, KernelCall};
use crate::dtype::{DType, TensorData};
use crate::error::{Error, Result};
use crate::int_hash::IntMap;
use crate::kernels::{self as k, Operand, Values};
use crate::pool::WorkerPool;
use crate::shape::Shape;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::mem::size_of_val;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A host kernel set: how [`HostBackend`] runs a call on host buffers.
///
/// The default is the [`crate::kernels`] oracle, so the empty set is the
/// reference backend. A set's own kernel must keep the oracle's accumulation
/// order where the parity suites compare on bits. `host` is the backend's
/// own pool and free list; the oracle uses neither.
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
        _host: &Host<'_>,
    ) -> TensorData {
        k::run(call, operands, out)
    }
}

/// What a kernel set's `run` has of its backend: the threads to split a
/// kernel over and the free list to take its buffers from.
#[derive(Clone, Copy)]
pub struct Host<'a> {
    /// The backend's kernel threads.
    pub pool: &'a WorkerPool,
    /// The backend's disposed `f32` buffers.
    pub buffers: &'a FreeList,
}

/// Disposed `f32` buffers, by length, for the kernels of one backend to take
/// their outputs and scratch from.
///
/// A taken buffer's contents are unspecified, as a recycled texture's are:
/// whatever its last user left, or zeros when it is fresh. A kernel that
/// writes every element takes it as it is; one that adds into its output
/// asks for it [`zeroed`](FreeList::zeroed).
///
/// Bounded without a setting: the list never keeps more free buffers of a
/// length than it has made of that length, which is the most its kernels
/// have held at once. So a length no kernel takes (every length, under the
/// oracle) is never kept, and a repeated step settles on its own working set
/// — the buffers of the busiest step, not one more, whatever else is disposed
/// at those lengths.
///
/// A backend's list outlives its backend in part: dropped, it hands its free
/// buffers to the process's spares, and a backend's list that misses takes a
/// spare of the length before it asks the allocator. A backend built after
/// another was dropped — a cold start — then reuses the pages the dropped
/// one faulted in, whether or not the allocator gave them back to the OS in
/// between. The spares keep no more buffers of a length than one list made
/// of it. A list made with `default` stands alone: it neither takes spares
/// nor leaves any.
#[derive(Default)]
pub struct FreeList {
    lists: Mutex<Lists>,
    /// Whether this is a backend's list, which shares [`SPARES`].
    shares_spares: bool,
}

/// Free buffers of dropped backends' lists, by length; each entry's `made`
/// is the most buffers of its length one dropped list had made.
static SPARES: Mutex<BTreeMap<usize, Free>> = Mutex::new(BTreeMap::new());

#[derive(Default)]
struct Lists {
    by_len: IntMap<usize, Free>,
    bytes: usize,
    hits: u64,
    misses: u64,
}

/// The free buffers of one length.
#[derive(Default)]
struct Free {
    buffers: Vec<Vec<f32>>,
    /// Buffers of this length the list has made and not seen dropped.
    made: usize,
}

impl FreeList {
    /// A backend's list, which shares the process's spares.
    fn of_backend() -> FreeList {
        FreeList { lists: Mutex::default(), shares_spares: true }
    }

    /// A buffer of `len` elements, recycled when one is free; its contents
    /// are unspecified.
    pub fn take(&self, len: usize) -> Vec<f32> {
        {
            let mut guard = self.lists.lock();
            let lists = &mut *guard;
            let free = lists.by_len.entry(len).or_default();
            if let Some(buf) = free.buffers.pop() {
                lists.hits += 1;
                lists.bytes -= size_of_val(buf.as_slice());
                return buf;
            }
            free.made += 1;
            lists.misses += 1;
        }
        let spare = if self.shares_spares {
            SPARES.lock().get_mut(&len).and_then(|s| s.buffers.pop())
        } else {
            None
        };
        spare.unwrap_or_else(|| vec![0.0; len])
    }

    /// [`take`](FreeList::take), zero-filled.
    pub fn zeroed(&self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Hand back a buffer nothing reads any more: kept while the list holds
    /// fewer free buffers of its length than it has made, freed otherwise.
    pub fn give(&self, buf: Vec<f32>) {
        let mut guard = self.lists.lock();
        let lists = &mut *guard;
        if let Some(free) = lists.by_len.get_mut(&buf.len()) {
            if free.buffers.len() < free.made {
                lists.bytes += size_of_val(buf.as_slice());
                free.buffers.push(buf);
            }
        }
    }

    /// A buffer of `len` elements went to the allocator, not to the list.
    fn dropped(&self, len: usize) {
        if let Some(free) = self.lists.lock().by_len.get_mut(&len) {
            free.made = free.made.saturating_sub(1);
        }
    }
}

impl Drop for FreeList {
    fn drop(&mut self) {
        if !self.shares_spares {
            return;
        }
        let by_len = std::mem::take(&mut self.lists.get_mut().by_len);
        let mut spares = SPARES.lock();
        for (len, free) in by_len {
            let spare = spares.entry(len).or_default();
            spare.made = spare.made.max(free.made);
            let room = spare.made.saturating_sub(spare.buffers.len());
            spare.buffers.extend(free.buffers.into_iter().take(room));
        }
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
    buffers: FreeList,
    store: Mutex<IntMap<DataId, Entry>>,
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
    /// dropped. `1` spawns nothing. The workers poll for about 50 µs after
    /// each job before they park ([`WorkerPool::new`]): a kernel's chunks
    /// mostly follow another kernel's within that time.
    pub fn with_threads(name: impl Into<String>, threads: usize) -> Self {
        HostBackend {
            name: name.into(),
            pool: WorkerPool::new(threads),
            buffers: FreeList::of_backend(),
            store: Mutex::default(),
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
        // normalises non-zero bytes to 1. A cast `f32` buffer goes back to
        // the free list, which it may have come from.
        let data = match (&data, dtype) {
            (TensorData::F32(_), DType::F32 | DType::F16)
            | (TensorData::I32(_), DType::I32)
            | (TensorData::U8(_), DType::U8) => data,
            _ => {
                let cast = data.cast(dtype);
                if let TensorData::F32(buf) = data {
                    self.buffers.give(buf);
                }
                cast
            }
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
        let Some(entry) = self.store.lock().remove(&id) else { return };
        match Arc::try_unwrap(entry.data) {
            Ok(TensorData::F32(buf)) => self.buffers.give(buf),
            // A buffer that a kernel or a read still holds is theirs to free.
            Err(held) => {
                if let TensorData::F32(buf) = &*held {
                    self.buffers.dropped(buf.len());
                }
            }
            Ok(_) => {}
        }
    }

    fn memory(&self) -> BackendMemory {
        let (num_buffers, num_bytes) = {
            let store = self.store.lock();
            (store.len(), store.values().map(|e| e.data.byte_len(e.dtype)).sum())
        };
        let lists = self.buffers.lists.lock();
        let details = [
            ("threads", self.pool.size() as f64),
            ("pooled_bytes", lists.bytes as f64),
            ("recycle_hits", lists.hits as f64),
            ("recycle_misses", lists.misses as f64),
        ];
        BackendMemory {
            num_buffers,
            num_bytes,
            details: details.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
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
        let host = Host { pool: &self.pool, buffers: &self.buffers };
        Ok(self.put(K::run(call, &operands, &out, &host), dtype))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend's list, dropped, leaves its free buffers to the next
    /// backend's misses, no more of a length than it made; a list made with
    /// `default` leaves none.
    #[test]
    fn a_dropped_backends_buffers_serve_the_next_backends_misses() {
        // Lengths no other test takes.
        let (shared, alone) = (7919, 7927);
        let marked = |list: &FreeList, len| {
            let mut buf = list.take(len);
            buf.fill(7.0);
            list.give(buf);
        };
        let first = FreeList::of_backend();
        marked(&first, shared);
        // One more than the list made: freed, not kept.
        first.give(vec![5.0; shared]);
        drop(first);
        let standalone = FreeList::default();
        marked(&standalone, alone);
        drop(standalone);

        let next = FreeList::of_backend();
        assert_eq!(next.take(shared), vec![7.0; shared]);
        assert_eq!(next.take(shared), vec![0.0; shared]);
        assert_eq!(next.take(alone), vec![0.0; alone]);
        assert_eq!(next.lists.lock().misses, 3);
    }
}
