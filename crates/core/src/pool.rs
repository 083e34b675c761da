//! The workspace's one persistent worker pool, and its one rule for how
//! finely to split work over it.
//!
//! Creating a thread costs tens of microseconds — more than most kernels of
//! a training step and more than most simulated draw calls — so nothing that
//! runs per kernel may spawn. A [`WorkerPool`] is built once by whoever owns
//! the cores it stands for (the WebGL simulator's device thread: its "shader
//! cores"; a host backend: its kernel threads) and every later
//! [`run`](WorkerPool::run) only hands chunks to threads that already exist.
//!
//! Several threads may call `run` on one pool at once. Each call is its own
//! job; the caller works on its job too, so it never waits for a worker that
//! is busy with somebody else's chunk, only for chunks a worker has already
//! begun.
//!
//! Every pool waits the same way: a worker polls its queue for about 50 µs
//! after each job before it parks, so a job that follows within that time
//! is handed over warm, and the dispatcher polls for its stragglers before
//! it blocks. What keeps a pool from taking cores it has no use for is
//! [`split`](WorkerPool::split): an op too small to pay for a hand-off runs
//! whole on the calling thread, and wakes nobody unless the ops after it
//! would gain. Native kernels and the simulated devices' dispatches both
//! split by it, in one unit of work, the element visit ([`GRAIN`]).

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::hint::spin_loop;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Polls a pool's idle thread makes before it blocks, each a check
/// and a `spin_loop` hint. On the 2-vCPU Sapphire Rapids Xeon the benchmark
/// runs on, a worker's round (a `try_recv` on its empty queue) takes 60–65 ns
/// and the dispatcher's (a load of the job's `done`) 28–30 ns (quartiles of
/// 200 runs of 20 000 rounds), so a worker stays awake about 50 µs after its
/// last chunk and the dispatcher waits about 23 µs for a straggler before it
/// blocks. 50 µs outlasts the gaps between the split kernels of a training
/// step; longer only takes the core from the process's other threads.
/// Counted, not timed, so the loop reads no clock.
const SPIN_ROUNDS: u32 = 800;

/// Least work a chunk must hold before an op is split one more way while the
/// pool's worker is awake ([`WorkerPool::warm`]), in the one unit every
/// caller counts: an element visit — a load, an operation and a store. A
/// multiply-add of the native backend's untiled kernels (depthwise conv,
/// the quantised product) is exactly that, and is measured at a visit's
/// price (1.8 M of them in the conv backprops' former gather loops took
/// 0.72–0.75 ms on one thread, 0.40 ns each), so those kernels pass their
/// multiply-adds as they are; col2im passes its adds. The register-tiled
/// product is the one kernel whose multiply-add touches no memory; the
/// native backend's `compute::TILED_MACS_PER_VISIT`, kept beside the tile
/// it describes, says how many of them make a visit. A simulated device
/// counts a dispatch's declared operations (`out_size × cost_per_element`)
/// as visits.
///
/// Derived from what handing a chunk to the *awake* worker costs, measured
/// as [`COLD_GRAIN`]'s cold hand-off was (2-vCPU Sapphire Rapids Xeon, KVM,
/// release build). An empty `WorkerPool::run(2, ..)` to a polling worker
/// takes 1.15 µs (median of 2000, back to back; 7.0 µs to a parked one, 200
/// µs idle before each). Inside a training step (per-kernel wall time from
/// `Engine::profile`, 400 steps a side on one thread and on two, in
/// alternating blocks), the maps, products and element-wise gradients that
/// split warm and gain took half their one-thread time plus 2.4–8.6 µs in
/// two such runs (the dense `dW` product, 15.6 µs): that is the warm
/// hand-off. A streaming element visit costs 0.34 ns
/// (`max(a[i], 0)`) to 0.45 ns (`a[i] * b[i]`) over 1 Mi floats, so the
/// hand-off is worth 5 300–25 000 visits; the constant is the power of two
/// at the low end. With every chunk holding at least that much, the
/// hand-off costs a chunk at most what the chunk itself costs, as with the
/// cold grain. Three kinds of split still lose in the step (EXPERIMENTS.md
/// "the worker stays awake"): the bias-gradient column sums, whose chunks
/// each walk every row; the 50 176-element maps right after conv 1; and an
/// op that finds the worker parked, which runs whole and pays the wake-up's
/// send.
///
/// Re-checked for the AVX2 build of the native hot loops: the two maps
/// above cost the same in both builds (0.43 and 0.60 ns portable, 0.42 and
/// 0.60 ns AVX2, 31 rounds alternating the builds, in a slower host state
/// than the figures above), and no hand-off changed, so neither grain
/// depends on the build.
///
/// In the training step the worker is awake from its first split of a step
/// to its last, so the step's element-wise maps, both im2cols, conv 1's
/// products, col2im, the dense products and the bias-gradient sums split
/// too (the native backend's `the_training_steps_kernels_split_as_listed`).
pub const GRAIN: usize = 8_192;

/// The same least work per chunk while the worker is parked: a chunk handed
/// to it pays its wake-up. Derived from what that cost *inside a training
/// step* (2 vCPU Xeon @ 2.10 GHz, release build, per-kernel wall time from
/// `Engine::profile`, 400 steps): kernels too small to gain from a second
/// thread took 29 µs (a 32x784x10 `MatMul`), 33 µs (a 50 176-element
/// `Relu`, 14 → 47 µs) and 37 µs (a bias-gradient `Sum`) longer split in two
/// than whole. That is three times the 10.0–11.6 µs round trip of an empty
/// `WorkerPool::run(2, ..)` measured on its own (median of 2000, the worker
/// parked 200 µs before each), because between the kernels of a step the
/// worker has slept for longer. At a visit's 0.34–0.45 ns the wake-up is
/// worth 65 000–110 000 visits; the constant is the power of two at the low
/// end. Finer cold grains lost in the step: two threads against one read
/// 1.00 at 16 384 and 1.05 at 32 768 against 1.10 at 65 536 (DESIGN.md §19).
/// Cold, what splits in the training step is conv 2's register-tiled
/// product — forward, `dW` and `dx`, 451 k visits each.
///
/// An op that would split warm but not cold runs whole on the calling thread
/// and wakes the worker ([`WorkerPool::split`]), so the ops that follow find
/// it awake. The grain thus depends on the one thing that sets the hand-off's
/// price, the worker's state, which the pool observes; an owner with sparse
/// work keeps its worker parked between ops and splits only what pays for a
/// wake-up.
pub const COLD_GRAIN: usize = 65_536;

/// How many ways to split `n` items of `work_per_item` units each over a
/// pool of `cores`: one chunk per `grain` of work, at most one per core.
pub fn chunk_count(cores: usize, n: usize, work_per_item: usize, grain: usize) -> usize {
    (n.saturating_mul(work_per_item) / grain).clamp(1, cores.min(n).max(1))
}

/// A chunk-executing job shared with the workers.
struct Job {
    /// Executes chunk `i`. The pointee lives on the dispatcher's stack;
    /// `run` blocks until all chunks complete, which keeps it alive.
    func: ChunkFn,
    next: AtomicUsize,
    total: usize,
    /// Chunks that have returned or unwound. Incremented with `Release` once
    /// a chunk's writes (and its panic, in `panic`) are made; the dispatcher
    /// reads it with `Acquire` before it returns.
    done: AtomicUsize,
    /// What the first chunk to panic panicked with.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    cv: Condvar,
}

impl Job {
    fn new(func: ChunkFn, total: usize) -> Arc<Job> {
        Arc::new(Job {
            func,
            next: AtomicUsize::new(0),
            total,
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            cv: Condvar::new(),
        })
    }
}

/// Type-erased chunk function pointer.
struct ChunkFn(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync`, so calling it from several threads is
// allowed, and it lives for as long as any thread can reach it through a
// `Job`: `run`'s dispatcher blocks until every chunk is accounted for, and a
// chunk index is claimed before the pointer is read; a wake-up job's is a
// `'static` closure with no chunk to claim.
unsafe impl Send for ChunkFn {}
// SAFETY: as above; the pointer itself is never written after construction.
unsafe impl Sync for ChunkFn {}

/// A fixed-size pool of long-lived worker threads.
pub struct WorkerPool {
    size: usize,
    /// Workers between being handed a job and parking again.
    awake: Arc<AtomicUsize>,
    senders: Vec<Sender<Arc<Job>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `size` workers (0 and 1 both mean "run inline") that poll their
    /// queue for about 50 µs after each job before they park, with a
    /// dispatcher that polls for them before it blocks.
    pub fn new(size: usize) -> WorkerPool {
        let size = size.max(1);
        let awake = Arc::new(AtomicUsize::new(0));
        let mut senders = Vec::new();
        let mut workers = Vec::new();
        // One fewer worker than `size`: the dispatcher itself is a core.
        for i in 1..size {
            let (tx, rx) = unbounded::<Arc<Job>>();
            senders.push(tx);
            let awake = awake.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || serve(&rx, &awake))
                    .expect("spawn pool worker"),
            );
        }
        WorkerPool { size, awake, senders, workers }
    }

    /// Number of cores (including the dispatcher).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether a chunk handed over now costs a warm hand-off, not a
    /// wake-up: a worker is awake, running a chunk or polling for the next.
    pub fn warm(&self) -> bool {
        self.awake.load(Ordering::Relaxed) > 0
    }

    /// How many chunks to cut `work` element visits into, at most `max` (an
    /// op's items) and at most one per core: one per [`GRAIN`] while the
    /// pool is [`warm`](WorkerPool::warm), one per [`COLD_GRAIN`] while it
    /// is not. An op that would split warm but not cold runs whole and
    /// wakes the workers, so the ops after it find them awake.
    pub fn split(&self, work: usize, max: usize) -> usize {
        let cores = self.size.min(max);
        let warm_chunks = chunk_count(cores, work, 1, GRAIN);
        let chunks = if self.warm() { warm_chunks } else { chunk_count(cores, work, 1, COLD_GRAIN) };
        if chunks < warm_chunks {
            // Cold, so every worker is parked: hand each an empty job.
            let job = Job::new(ChunkFn(&|_| {}), 0);
            for tx in &self.senders {
                let _ = tx.send(job.clone());
            }
        }
        chunks
    }

    /// Execute `func(0..chunks)` across the pool, blocking until every
    /// chunk has run. `func` must be safe to call concurrently for distinct
    /// chunk indices.
    ///
    /// # Panics
    ///
    /// If a chunk panics, on whichever thread, the other chunks still run,
    /// and once all are accounted for `run` panics in the caller with the
    /// first payload. The workers survive and the pool stays usable.
    pub fn run(&self, chunks: usize, func: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if self.senders.is_empty() || chunks == 1 {
            for i in 0..chunks {
                func(i);
            }
            return;
        }
        // SAFETY: the pointee outlives the job because `run` blocks below
        // until every chunk completed — `work_until_drained` catches a
        // panicking chunk, so this frame cannot unwind earlier — and the
        // transmute only erases the lifetime, not the type.
        let func_static: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(func as *const (dyn Fn(usize) + Sync)) };
        let job = Job::new(ChunkFn(func_static), chunks);
        // Waking a parked worker is most of a job's fixed cost, so wake no
        // more than there are chunks beyond the dispatcher's own.
        for tx in self.senders.iter().take(chunks - 1) {
            let _ = tx.send(job.clone());
        }
        // The dispatcher participates as a core.
        work_until_drained(&job);
        // Wait for the stragglers: poll first, then block. `Acquire` pairs
        // with the `Release` increment of `done`, so every chunk's writes are
        // visible once all are counted.
        let finished = || job.done.load(Ordering::Acquire) == job.total;
        for _ in 0..SPIN_ROUNDS {
            if finished() {
                break;
            }
            spin_loop();
        }
        let mut panic = job.panic.lock();
        while !finished() {
            job.cv.wait(&mut panic);
        }
        if let Some(payload) = panic.take() {
            drop(panic);
            resume_unwind(payload);
        }
    }
}

/// A worker's life: parked until a job arrives; after each job it polls its
/// queue for `SPIN_ROUNDS` before it parks again, and it exits when the pool
/// drops its sender, whether it is polling or parked then.
fn serve(rx: &Receiver<Arc<Job>>, awake: &AtomicUsize) {
    // Relaxed: `awake` publishes nothing; it only steers how finely the
    // owner splits its next op.
    while let Ok(mut job) = rx.recv() {
        awake.fetch_add(1, Ordering::Relaxed);
        loop {
            work_until_drained(&job);
            match poll(rx) {
                Ok(Some(next)) => job = next,
                Ok(None) => break,
                Err(_) => return,
            }
        }
        awake.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The next job, if one arrives within `SPIN_ROUNDS` polls; `Err` when the
/// pool has dropped its sender.
fn poll(rx: &Receiver<Arc<Job>>) -> Result<Option<Arc<Job>>, TryRecvError> {
    for _ in 0..SPIN_ROUNDS {
        match rx.try_recv() {
            Err(TryRecvError::Empty) => spin_loop(),
            received => return received.map(Some),
        }
    }
    Ok(None)
}

fn work_until_drained(job: &Job) {
    loop {
        // Relaxed: the index publishes nothing; the closure's captures reach
        // a worker through the channel and its writes reach the dispatcher
        // through the `Release` increment of `done`.
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.total {
            return;
        }
        // SAFETY: the dispatcher blocks inside `run` until `done == total`,
        // and chunk `i` is not done yet, so the closure behind the raw
        // pointer outlives this call.
        let func = unsafe { &*job.func.0 };
        // A chunk that unwinds must still be counted, or the dispatcher
        // parks forever; it sees the panic when it collects the job.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(i))) {
            job.panic.lock().get_or_insert(payload);
        }
        if job.done.fetch_add(1, Ordering::Release) + 1 == job.total {
            // Under the lock, so a dispatcher between its last check of
            // `done` and its wait cannot miss the notification.
            let _guard = job.panic.lock();
            job.cv.notify_all();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.senders.clear(); // disconnect: workers exit their recv loops
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = WorkerPool::new(4);
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.run(10, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        assert!(!pool.warm());
    }

    #[test]
    fn sequential_jobs_reuse_workers() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.run(8, &|i| {
                sum.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 28 + 8 * round);
        }
    }

    #[test]
    fn disjoint_mut_slices_can_be_written() {
        let pool = WorkerPool::new(4);
        let mut data = vec![0u32; 64];
        {
            let base = data.as_mut_ptr() as usize;
            pool.run(8, &move |i| {
                // SAFETY: each chunk owns a disjoint 8-element window.
                let slice = unsafe {
                    std::slice::from_raw_parts_mut((base as *mut u32).add(i * 8), 8)
                };
                for (k, v) in slice.iter_mut().enumerate() {
                    *v = (i * 8 + k) as u32;
                }
            });
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    /// Runs a two-chunk job whose chunks meet at a barrier, so the worker
    /// takes one; `on_worker` runs inside the worker's.
    fn run_on_both_threads(pool: &WorkerPool, on_worker: impl Fn() + Sync) {
        let dispatcher = std::thread::current().id();
        let met = Barrier::new(2);
        pool.run(2, &|_| {
            met.wait();
            if std::thread::current().id() != dispatcher {
                on_worker();
            }
        });
    }

    /// Polls `pool.warm()` until it reads false; panics after ten seconds.
    fn until_cold(pool: &WorkerPool) {
        let start = Instant::now();
        while pool.warm() {
            assert!(start.elapsed() < Duration::from_secs(10), "the worker never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn warm_while_a_worker_runs_or_polls_cold_once_it_parks() {
        let pool = WorkerPool::new(2);
        assert!(!pool.warm(), "a new pool's worker is parked");
        run_on_both_threads(&pool, || assert!(pool.warm()));
        // The worker parks once its rounds run out.
        until_cold(&pool);
        run_on_both_threads(&pool, || assert!(pool.warm()));
    }

    #[test]
    fn a_pool_dropped_while_its_worker_polls_returns_promptly() {
        for _ in 0..100 {
            let pool = WorkerPool::new(2);
            run_on_both_threads(&pool, || {});
            // The worker is polling (or, preempted, about to); the drop
            // disconnects its queue and joins it.
            let start = Instant::now();
            drop(pool);
            assert!(start.elapsed() < Duration::from_secs(1));
        }
    }

    /// Runs a job of which one chunk panics, on a thread that is not the
    /// dispatcher when `on_worker` is set; returns what `run` did.
    fn run_with_panicking_chunk(pool: &WorkerPool, on_worker: bool) -> std::thread::Result<()> {
        let dispatcher = std::thread::current().id();
        let armed = AtomicUsize::new(1);
        catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|_| {
                let here = std::thread::current().id();
                if (here != dispatcher) == on_worker && armed.swap(0, Ordering::SeqCst) == 1 {
                    panic!("chunk failed");
                }
                // Keep the chunks long enough for the other side to take one.
                while armed.load(Ordering::SeqCst) == 1 {
                    std::thread::yield_now();
                }
            });
        }))
    }

    /// Every job after the first finds the worker warm: it is still polling
    /// after the job before.
    #[test]
    fn panicking_chunk_reaches_the_caller_and_the_pool_survives() {
        let pool = WorkerPool::new(3);
        for on_worker in [true, false, true] {
            let outcome = run_with_panicking_chunk(&pool, on_worker);
            let payload = outcome.expect_err("run re-raises the chunk's panic");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk failed"));
            // Same pool, same workers: the next job completes exactly.
            let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            pool.run(64, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn concurrent_dispatchers_each_get_their_own_job_back() {
        let pool = WorkerPool::new(3);
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..200 {
                        let sum = AtomicUsize::new(0);
                        pool.run(5, &|i| {
                            sum.fetch_add(i + t + round, Ordering::Relaxed);
                        });
                        assert_eq!(sum.load(Ordering::Relaxed), 10 + 5 * (t + round));
                    }
                });
            }
        });
    }

    #[test]
    fn chunks_follow_work_not_output_size() {
        // Two grains or more split, never more ways than cores or items.
        for grain in [GRAIN, COLD_GRAIN] {
            assert_eq!(chunk_count(8, 2 * grain - 1, 1, grain), 1);
            assert_eq!(chunk_count(8, 2 * grain, 1, grain), 2);
            assert_eq!(chunk_count(8, 3, usize::MAX, grain), 3);
            assert_eq!(chunk_count(1, 1 << 20, 1 << 20, grain), 1);
            assert_eq!(chunk_count(4, 0, 7, grain), 1);
        }
    }

    /// A pool of `size` cores whose workers are the test itself: it sets
    /// whether they are awake and reads every job handed to them from the
    /// returned queues.
    fn puppet(size: usize, awake: bool) -> (WorkerPool, Vec<Receiver<Arc<Job>>>) {
        let (senders, queues) = (1..size).map(|_| unbounded()).unzip();
        let awake = Arc::new(AtomicUsize::new(usize::from(awake)));
        (WorkerPool { size, awake, senders, workers: Vec::new() }, queues)
    }

    /// How many wake-up jobs `queues` received since the last call.
    fn wakes(queues: &[Receiver<Arc<Job>>]) -> usize {
        queues.iter().map(|q| std::iter::from_fn(|| q.try_recv().ok()).count()).sum()
    }

    #[test]
    fn split_takes_the_grain_of_the_workers_state() {
        let (cold, _) = puppet(2, false);
        assert_eq!(cold.split(2 * COLD_GRAIN - 1, usize::MAX), 1);
        assert_eq!(cold.split(2 * COLD_GRAIN, usize::MAX), 2);
        let (warm, _) = puppet(2, true);
        assert_eq!(warm.split(2 * GRAIN - 1, usize::MAX), 1);
        assert_eq!(warm.split(2 * GRAIN, usize::MAX), 2);
    }

    #[test]
    fn split_is_capped_by_its_max_and_the_pools_cores() {
        let (pool, _) = puppet(4, true);
        assert_eq!(pool.split(100 * GRAIN, usize::MAX), 4);
        assert_eq!(pool.split(100 * GRAIN, 3), 3);
        assert_eq!(pool.split(100 * GRAIN, 1), 1);
        assert_eq!(pool.split(100 * GRAIN, 0), 1);
        assert_eq!(pool.split(0, usize::MAX), 1);
        let (alone, _) = puppet(1, true);
        assert_eq!(alone.split(100 * COLD_GRAIN, usize::MAX), 1);
    }

    #[test]
    fn split_wakes_the_workers_only_when_a_warm_split_would_be_larger() {
        let (pool, queues) = puppet(4, false);
        // Below two warm grains: whole, and nothing to wake for.
        assert_eq!(pool.split(2 * GRAIN - 1, usize::MAX), 1);
        assert_eq!(wakes(&queues), 0);
        // Warm, two ways; cold, one: whole, and every worker woken.
        assert_eq!(pool.split(2 * GRAIN, usize::MAX), 1);
        assert_eq!(wakes(&queues), 3);
        // Unless the op has no second item to hand over.
        assert_eq!(pool.split(2 * GRAIN, 1), 1);
        assert_eq!(wakes(&queues), 0);
        // Cold, two ways; warm, four: split, and woken for the next op.
        assert_eq!(pool.split(2 * COLD_GRAIN, usize::MAX), 2);
        assert_eq!(wakes(&queues), 3);
        // Cold and warm both at the pool's four cores: nobody to wake.
        assert_eq!(pool.split(4 * COLD_GRAIN, usize::MAX), 4);
        assert_eq!(wakes(&queues), 0);
        // Awake workers are never woken.
        pool.awake.store(1, Ordering::Relaxed);
        assert_eq!(pool.split(2 * GRAIN, usize::MAX), 2);
        assert_eq!(wakes(&queues), 0);
    }
}
