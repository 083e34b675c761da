//! Splitting a kernel's output over the backend's persistent
//! [`WorkerPool`], when the kernel is big enough to pay for the hand-off.

use parking_lot::Mutex;
use std::mem::MaybeUninit;
use std::ops::Range;
use webml_core::host::Host;
use webml_core::pool::WorkerPool;

/// Run `f` over `0..n`, split into contiguous ranges on `pool`, handing each
/// call the disjoint `&mut` slice of `out` aligned with its range
/// (`out.len()` must be `n * stride`). `work_per_item` is the cost of one
/// item in element visits ([`GRAIN`]'s unit); the pool's one split rule,
/// [`WorkerPool::split`], decides how many ranges, and an op too small to
/// pay for a hand-off runs inline on the calling thread.
///
/// [`GRAIN`]: webml_core::pool::GRAIN
pub fn parallel_for_slices<T: Send>(
    pool: &WorkerPool,
    out: &mut [T],
    n: usize,
    stride: usize,
    work_per_item: usize,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    debug_assert_eq!(out.len(), n * stride);
    let chunks = pool.split(n.saturating_mul(work_per_item), n);
    if chunks == 1 || out.is_empty() {
        f(0..n, out);
        return;
    }
    let per_chunk = n.div_ceil(chunks);
    // Each chunk takes its slice out of its slot exactly once.
    let parts: Vec<Mutex<Option<&mut [T]>>> =
        out.chunks_mut(per_chunk * stride).map(|part| Mutex::new(Some(part))).collect();
    pool.run(parts.len(), &|i| {
        let part = parts[i].lock().take().expect("the pool runs each chunk once");
        let start = i * per_chunk;
        f(start..(start + per_chunk).min(n), part);
    });
}

/// The unwritten part of one chunk of a kernel's output: [`Slots::extend`]
/// fills it front to back and counts what it wrote, which is what lets
/// [`parallel_collect`] hand out uninitialised memory through a safe API.
pub struct Slots<'a, T> {
    chunk: &'a mut [MaybeUninit<T>],
    filled: usize,
}

impl<T> Slots<'_, T> {
    /// Write `items` into the next free slots, stopping at the chunk's end.
    #[inline(always)]
    pub fn extend(&mut self, items: impl Iterator<Item = T>) {
        self.filled += self.chunk[self.filled..]
            .iter_mut()
            .zip(items)
            .map(|(slot, item)| {
                slot.write(item);
            })
            .count();
    }
}

/// Build a kernel's output of `n * stride` elements, every element written
/// once, in a buffer from `host`'s free list: `f` gets the same contiguous
/// ranges [`parallel_for_slices`] would hand it and must fill its chunk's
/// [`Slots`] completely. Unlike `vec![0.0; n]` followed by a kernel pass, no
/// element is stored twice, and what the buffer held before is never read.
///
/// # Panics
/// When a call to `f` leaves part of its chunk unwritten.
pub fn parallel_collect(
    host: &Host<'_>,
    n: usize,
    stride: usize,
    work_per_item: usize,
    f: impl Fn(Range<usize>, &mut Slots<'_, f32>) + Sync,
) -> Vec<f32> {
    let len = n * stride;
    let mut out = host.buffers.take(len);
    out.clear();
    let spare = &mut out.spare_capacity_mut()[..len];
    parallel_for_slices(host.pool, spare, n, stride, work_per_item, |range, chunk| {
        let mut slots = Slots { chunk, filled: 0 };
        f(range, &mut slots);
        assert_eq!(slots.filled, slots.chunk.len(), "a kernel left part of its output unwritten");
    });
    // SAFETY: `parallel_for_slices` passes every one of the first `len` spare
    // slots to exactly one call above and returns after all of them did (a
    // panicking chunk is re-raised by the pool, so this line is not reached);
    // each call asserted that it wrote all of its slots, and `Slots::extend`
    // counts a slot only after `MaybeUninit::write` initialised it.
    unsafe { out.set_len(len) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use webml_core::host::FreeList;
    use webml_core::pool::{chunk_count, COLD_GRAIN, GRAIN};

    #[test]
    fn covers_whole_range_once() {
        let pool = WorkerPool::new(4);
        let n = 10_000;
        let mut hits = vec![0u32; n];
        parallel_for_slices(&pool, &mut hits, n, 1, GRAIN, |range, chunk| {
            assert_eq!(range.len(), chunk.len());
            chunk.iter_mut().for_each(|h| *h += 1);
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn slices_align_with_ranges() {
        let pool = WorkerPool::new(4);
        let n = 2048;
        let stride = 3;
        let mut out = vec![0usize; n * stride];
        parallel_for_slices(&pool, &mut out, n, stride, GRAIN, |range, chunk| {
            for (k, i) in range.enumerate() {
                for s in 0..stride {
                    chunk[k * stride + s] = i;
                }
            }
        });
        for (i, v) in out.chunks(stride).enumerate() {
            assert!(v.iter().all(|&x| x == i));
        }
    }

    #[test]
    fn single_thread_inline() {
        let pool = WorkerPool::new(1);
        let mut out = vec![0; 8];
        parallel_for_slices(&pool, &mut out, 8, 1, GRAIN, |range, chunk| {
            for (k, i) in range.enumerate() {
                chunk[k] = i * 2;
            }
        });
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    /// Every kernel of the benchmark's training step (`Sequential` conv 8 →
    /// conv 16 → dense 10 on a 32-image batch, then Adam) worth two warm
    /// grains, and two of the rest, as its call site counts it —
    /// items and work per item — with whether two threads split it while
    /// the worker is awake, and while it is parked.
    #[test]
    fn the_training_steps_kernels_split_as_listed() {
        let tiled = |k_n: usize| k_n.div_ceil(crate::compute::TILED_MACS_PER_VISIT);
        let step = [
            // (kernel, items, work per item, splits warm, splits cold)
            ("conv 1 im2col: 448 image rows of 14 windows x 9", 32 * 14, 14 * 9, true, false),
            ("conv 1 product: 6272 rows of 9x8", 6272, tiled(9 * 8), true, false),
            ("conv 1 bias add and relu: 50 176 elements", 50_176, 1, true, false),
            ("conv 2 im2col: 224 image rows of 7 windows x 72", 32 * 7, 7 * 72, true, false),
            ("conv 2 product: 1568 rows of 72x16", 1568, tiled(72 * 16), true, true),
            ("conv 2 bias add and relu: 25 088 elements", 25_088, 1, true, false),
            ("dense product: 32 rows of 784x10", 32, tiled(784 * 10), true, false),
            ("dense dx: 32 rows of 10x784", 32, tiled(10 * 784), true, false),
            ("dense dW: 784 rows of 32x10, A transposed", 784, tiled(32 * 10), true, false),
            ("conv 2 relu gradient, step and mul: 25 088", 25_088, 1, true, false),
            ("conv 2 bias gradient: 16 columns of 1568", 16, 1568, true, false),
            ("conv 2 dx product: 1568 rows of 16x72", 1568, tiled(16 * 72), true, true),
            ("conv 2 col2im: 6272 pixels of 18 adds", 6272, 18, true, false),
            ("conv 2 dW product: 72 rows of 1568x16", 72, tiled(1568 * 16), true, true),
            ("conv 1 relu gradient, step and mul: 50 176", 50_176, 1, true, false),
            ("conv 1 bias gradient: 8 columns of 6272", 8, 6272, true, false),
            ("conv 1 dW product: 9 rows of 6272x8", 9, tiled(6272 * 8), true, false),
            ("dense bias gradient: 10 columns of 32", 10, 32, false, false),
            ("Adam on the dense kernel: 7840 elements", 7840, 1, false, false),
        ];
        for (kernel, n, work, warm, cold) in step {
            assert_eq!(chunk_count(2, n, work, GRAIN) == 2, warm, "{kernel}, warm");
            assert_eq!(chunk_count(2, n, work, COLD_GRAIN) == 2, cold, "{kernel}, cold");
        }
    }

    /// `f` run on a host of `cores` threads and an empty free list.
    fn on_host<R>(cores: usize, f: impl FnOnce(&Host<'_>) -> R) -> R {
        let (pool, buffers) = (WorkerPool::new(cores), FreeList::default());
        f(&Host { pool: &pool, buffers: &buffers })
    }

    #[test]
    fn collect_writes_every_element_once_on_any_split() {
        for cores in [1, 2, 3, 8] {
            let (n, stride) = (COLD_GRAIN + 77, 3);
            let out = on_host(cores, |host| {
                parallel_collect(host, n, stride, stride, |range, slots| {
                    // Two writes per chunk, the second one offered too much.
                    slots.extend(range.clone().take(1).flat_map(|i| [i as f32; 3]));
                    slots.extend(range.skip(1).flat_map(|i| [i as f32; 3]).chain([0.0; 5]));
                })
            });
            let want = |i: usize| [i as f32; 3];
            assert!(out.chunks(stride).enumerate().all(|(i, v)| v == want(i)), "{cores} cores");
        }
    }

    #[test]
    #[should_panic(expected = "unwritten")]
    fn collect_refuses_a_chunk_left_partly_unwritten() {
        on_host(2, |host| {
            parallel_collect(host, 4 * COLD_GRAIN, 1, 1, |range, slots| {
                slots.extend(range.skip(1).map(|i| i as f32));
            })
        });
    }

    /// The threads `parallel_for_slices` ran an op of `n` unit-work items on:
    /// `chunks` of them, which wait for each other, so no thread can take
    /// two.
    fn threads_used(pool: &WorkerPool, n: usize, chunks: usize) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        let barrier = std::sync::Barrier::new(chunks);
        let mut out = vec![0u8; n];
        parallel_for_slices(pool, &mut out, n, 1, 1, |_, _| {
            seen.lock().insert(std::thread::current().id());
            barrier.wait();
        });
        seen.into_inner()
    }

    #[test]
    fn below_grain_stays_on_the_caller_above_it_spreads() {
        // A new pool's workers are parked: the cold grain.
        let pool = WorkerPool::new(3);
        let caller = std::thread::current().id();
        assert_eq!(threads_used(&pool, 2 * COLD_GRAIN - 1, 1), HashSet::from([caller]));
        let spread = threads_used(&pool, 3 * COLD_GRAIN, 3);
        assert_eq!(spread.len(), 3);
        assert!(spread.contains(&caller));
    }

    /// How many ranges an op of `n` unit-work items was split into.
    fn ranges(pool: &WorkerPool, n: usize) -> usize {
        let calls = AtomicUsize::new(0);
        parallel_for_slices(pool, &mut vec![0u8; n], n, 1, 1, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        calls.into_inner()
    }

    #[test]
    fn an_op_worth_two_warm_grains_splits_only_while_the_worker_is_awake() {
        let pool = WorkerPool::new(2);
        // Parked: whole (and the worker is woken for the ops after it).
        assert_eq!(ranges(&pool, 2 * GRAIN), 1);
        // Awake, right after a job both threads took part in: split. The
        // worker parks again if the op comes after its rounds run out (the
        // test thread preempted), so allow retries.
        let split = (0..1000).any(|_| {
            let met = std::sync::Barrier::new(2);
            pool.run(2, &|_| {
                met.wait();
            });
            ranges(&pool, 2 * GRAIN) == 2
        });
        assert!(split, "a warm pool never split two warm grains");
        assert_eq!(ranges(&pool, 2 * GRAIN - 1), 1);
    }
}
