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

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A chunk-executing job shared with the workers.
struct Job {
    /// Executes chunk `i`. The pointee lives on the dispatcher's stack;
    /// `run` blocks until all chunks complete, which keeps it alive.
    func: ChunkFn,
    next: AtomicUsize,
    total: usize,
    progress: Mutex<Progress>,
    cv: Condvar,
}

#[derive(Default)]
struct Progress {
    /// Chunks that have returned or unwound.
    done: usize,
    /// What the first chunk to panic panicked with.
    panic: Option<Box<dyn Any + Send>>,
}

/// Type-erased chunk function pointer.
struct ChunkFn(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync`, so calling it from several threads is
// allowed, and the dispatcher keeps it alive for as long as any thread can
// reach it through a `Job` (it blocks in `run` until every chunk is
// accounted for, and a chunk index is claimed before the pointer is read).
unsafe impl Send for ChunkFn {}
// SAFETY: as above; the pointer itself is never written after construction.
unsafe impl Sync for ChunkFn {}

/// A fixed-size pool of long-lived worker threads.
pub struct WorkerPool {
    size: usize,
    senders: Vec<Sender<Arc<Job>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `size` workers (0 and 1 both mean "run inline").
    pub fn new(size: usize) -> WorkerPool {
        let size = size.max(1);
        let mut senders = Vec::new();
        let mut workers = Vec::new();
        // One fewer worker than `size`: the dispatcher itself is a core.
        for i in 1..size {
            let (tx, rx) = unbounded::<Arc<Job>>();
            senders.push(tx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            work_until_drained(&job);
                        }
                    })
                    .expect("spawn pool worker"),
            );
        }
        WorkerPool { size, senders, workers }
    }

    /// Number of cores (including the dispatcher).
    pub fn size(&self) -> usize {
        self.size
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
        let job = Arc::new(Job {
            func: ChunkFn(func_static),
            next: AtomicUsize::new(0),
            total: chunks,
            progress: Mutex::new(Progress::default()),
            cv: Condvar::new(),
        });
        // Waking a parked worker is most of a job's fixed cost, so wake no
        // more than there are chunks beyond the dispatcher's own.
        for tx in self.senders.iter().take(chunks - 1) {
            let _ = tx.send(job.clone());
        }
        // The dispatcher participates as a core.
        work_until_drained(&job);
        // Wait for the stragglers.
        let mut progress = job.progress.lock();
        while progress.done < job.total {
            job.cv.wait(&mut progress);
        }
        if let Some(payload) = progress.panic.take() {
            drop(progress);
            resume_unwind(payload);
        }
    }
}

fn work_until_drained(job: &Job) {
    loop {
        // Relaxed: the index publishes nothing; the closure's captures reach
        // a worker through the channel and its writes reach the dispatcher
        // through the `progress` mutex.
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
        let outcome = catch_unwind(AssertUnwindSafe(|| func(i)));
        let mut progress = job.progress.lock();
        progress.done += 1;
        if let Err(payload) = outcome {
            progress.panic.get_or_insert(payload);
        }
        if progress.done == job.total {
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
        let start = std::sync::Barrier::new(8);
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
