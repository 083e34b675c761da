//! The workspace's one persistent worker pool.
//!
//! Creating a thread costs tens of microseconds — more than most kernels of
//! a training step and more than most simulated draw calls — so nothing that
//! runs per kernel may spawn. A [`WorkerPool`] is built once by whoever owns
//! the cores it stands for (the WebGL simulator's device thread: its "shader
//! cores"; a native backend: its kernel threads) and every later
//! [`run`](WorkerPool::run) only hands chunks to threads that already exist.
//!
//! Several threads may call `run` on one pool at once. Each call is its own
//! job; the caller works on its job too, so it never waits for a worker that
//! is busy with somebody else's chunk, only for chunks a worker has already
//! begun.
//!
//! How an idle thread waits is the owner's choice, made once. A parked
//! worker costs nothing while idle but takes tens of microseconds to wake;
//! a [`spinning`](WorkerPool::spinning) one polls its queue for about
//! 50 µs after each job before it parks, so a kernel that follows within
//! that time is handed over warm, and the dispatcher polls for its
//! stragglers before it blocks. The native backend's kernels come
//! back to back and spin; the WebGL simulator's shader cores park: a
//! simulated device shares the host with whatever else the process runs (a
//! serving fleet puts a native engine beside it), and a spinning shader core
//! would take those threads' cores between programs.

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::hint::spin_loop;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Polls a spinning pool's idle thread makes before it blocks, each a check
/// and a `spin_loop` hint. On the 2-vCPU Sapphire Rapids Xeon the benchmark
/// runs on, a worker's round (a `try_recv` on its empty queue) takes 60–65 ns
/// and the dispatcher's (a load of the job's `done`) 28–30 ns (quartiles of
/// 200 runs of 20 000 rounds), so a worker stays awake about 50 µs after its
/// last chunk and the dispatcher waits about 23 µs for a straggler before it
/// blocks. 50 µs outlasts the gaps between the split kernels of a training
/// step; longer only takes the core from the process's other threads.
/// Counted, not timed, so the loop reads no clock.
const SPIN_ROUNDS: u32 = 800;

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
    /// Polls an idle thread makes before it blocks: 0 or `SPIN_ROUNDS`.
    spin_rounds: u32,
    /// Workers between being handed a job and parking again.
    awake: Arc<AtomicUsize>,
    senders: Vec<Sender<Arc<Job>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `size` workers (0 and 1 both mean "run inline") that park as
    /// soon as they are idle.
    pub fn new(size: usize) -> WorkerPool {
        Self::build(size, 0)
    }

    /// Spawn `size` workers that poll their queue for about 50 µs after each
    /// job before they park, with a dispatcher that polls for them before it
    /// blocks.
    pub fn spinning(size: usize) -> WorkerPool {
        Self::build(size, SPIN_ROUNDS)
    }

    fn build(size: usize, spin_rounds: u32) -> WorkerPool {
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
                    .spawn(move || serve(&rx, spin_rounds, &awake))
                    .expect("spawn pool worker"),
            );
        }
        WorkerPool { size, spin_rounds, awake, senders, workers }
    }

    /// Number of cores (including the dispatcher).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether a chunk handed over now costs a warm hand-off, not a
    /// wake-up: the pool spins and a worker is awake, running a chunk or
    /// polling for the next. Always false for a pool that parks, whose
    /// workers park as soon as their chunk is done.
    pub fn warm(&self) -> bool {
        self.spin_rounds > 0 && self.awake.load(Ordering::Relaxed) > 0
    }

    /// Hand the parked workers of a spinning pool an empty job, so that they
    /// are awake for the ops that follow; returns at once, and does nothing
    /// on a pool that parks or is already [`warm`](WorkerPool::warm).
    pub fn wake(&self) {
        if self.spin_rounds == 0 || self.warm() {
            return;
        }
        let job = Job::new(ChunkFn(&|_| {}), 0);
        for tx in &self.senders {
            let _ = tx.send(job.clone());
        }
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
        // Wait for the stragglers: poll first, if the pool spins, then block.
        // `Acquire` pairs with the `Release` increment of `done`, so every
        // chunk's writes are visible once all are counted.
        let finished = || job.done.load(Ordering::Acquire) == job.total;
        for _ in 0..self.spin_rounds {
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
/// queue for `spin_rounds` before it parks again, and it exits when the pool
/// drops its sender, whether it is polling or parked then.
fn serve(rx: &Receiver<Arc<Job>>, spin_rounds: u32, awake: &AtomicUsize) {
    // Relaxed: `awake` publishes nothing; it only steers how finely the
    // owner splits its next op.
    while let Ok(mut job) = rx.recv() {
        awake.fetch_add(1, Ordering::Relaxed);
        loop {
            work_until_drained(&job);
            match poll(rx, spin_rounds) {
                Ok(Some(next)) => job = next,
                Ok(None) => break,
                Err(_) => return,
            }
        }
        awake.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The next job, if one arrives within `rounds` polls; `Err` when the pool
/// has dropped its sender.
fn poll(rx: &Receiver<Arc<Job>>, rounds: u32) -> Result<Option<Arc<Job>>, TryRecvError> {
    for _ in 0..rounds {
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

    /// A parking and a spinning pool of `size`: every behaviour holds on both.
    fn both(size: usize) -> [WorkerPool; 2] {
        [WorkerPool::new(size), WorkerPool::spinning(size)]
    }

    #[test]
    fn runs_every_chunk_exactly_once() {
        for pool in both(4) {
            let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            pool.run(100, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn single_worker_runs_inline() {
        for pool in both(1) {
            let hits = AtomicUsize::new(0);
            pool.run(10, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 10);
            assert!(!pool.warm());
        }
    }

    #[test]
    fn sequential_jobs_reuse_workers() {
        for pool in both(3) {
            for round in 0..50 {
                let sum = AtomicUsize::new(0);
                pool.run(8, &|i| {
                    sum.fetch_add(i + round, Ordering::Relaxed);
                });
                assert_eq!(sum.load(Ordering::Relaxed), 28 + 8 * round);
            }
        }
    }

    #[test]
    fn disjoint_mut_slices_can_be_written() {
        for pool in both(4) {
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
        let pool = WorkerPool::spinning(2);
        assert!(!pool.warm(), "a new pool's worker is parked");
        run_on_both_threads(&pool, || assert!(pool.warm()));
        // The worker parks once its rounds run out.
        until_cold(&pool);
        run_on_both_threads(&pool, || assert!(pool.warm()));
        let parking = WorkerPool::new(2);
        run_on_both_threads(&parking, || assert!(!parking.warm()));
    }

    #[test]
    fn a_pool_dropped_while_its_worker_polls_returns_promptly() {
        for _ in 0..100 {
            let pool = WorkerPool::spinning(2);
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

    /// On the spinning pool every job after the first finds the worker
    /// warm: it is still polling after the job before.
    #[test]
    fn panicking_chunk_reaches_the_caller_and_the_pool_survives() {
        for pool in both(3) {
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
    }

    #[test]
    fn concurrent_dispatchers_each_get_their_own_job_back() {
        for pool in both(3) {
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
    }
}
