//! Splitting a kernel's output over the backend's persistent
//! [`WorkerPool`], when the kernel is big enough to pay for the hand-off.

use parking_lot::Mutex;
use std::mem::MaybeUninit;
use std::ops::Range;
use webml_core::host::Host;
use webml_core::pool::WorkerPool;

/// Least work a chunk must hold before an op is split one more way, in the
/// one unit every call site counts: an element visit — a load, an operation
/// and a store. A multiply-add of the untiled kernels (depthwise conv, the
/// quantised product) is exactly that, and is measured at a visit's price
/// (1.8 M of them in the conv backprops' former gather loops took 0.72–0.75 ms
/// on one thread, 0.40 ns each), so those kernels pass their multiply-adds as
/// they are; col2im passes its adds. The register-tiled product is the one
/// kernel whose multiply-add touches no memory;
/// `compute::TILED_MACS_PER_VISIT`, kept beside the tile it describes, says
/// how many of them make a visit.
///
/// Derived from what handing a chunk to the parked worker costs *inside a
/// training step* (2 vCPU Xeon @ 2.10 GHz, release build, per-kernel wall
/// time from `Engine::profile`, 400 steps): kernels too small to gain from a
/// second thread took 29 µs (a 32x784x10 `MatMul`), 33 µs (a 50 176-element
/// `Relu`, 14 → 47 µs) and 37 µs (a bias-gradient `Sum`) longer split in two
/// than whole. That is three times the 10.0–11.6 µs round trip of an empty
/// `WorkerPool::run(2, ..)` measured on its own (median of 2000, the worker
/// parked 200 µs before each), because between the kernels of a step the
/// worker has slept for longer. A streaming element visit costs 0.34 ns
/// (`max(a[i], 0)`) to 0.45 ns (`a[i] * b[i]`) over 1 Mi floats now that the
/// scalar op is inlined into the loop (0.7 ns behind a call per element, when
/// this constant was a quarter of what it is), so the hand-off is worth
/// 65 000–110 000 visits; the constant is the power of two at the low end.
/// With every chunk holding at least that much, the hand-off costs a chunk at
/// most what the chunk itself costs, and the smallest op that is split (two
/// grains) breaks even when its halves do run in parallel. The 50 176-element
/// maps of the training step stay whole, and so do its conv-2 col2im (113 k
/// adds) and everything of conv 1; what splits is conv 2's register-tiled
/// product — forward, `dW` and `dx`, 1.8 M multiply-adds each, 451 k visits.
/// On a 2-vCPU Sapphire Rapids Xeon (KVM) those three splits gain nothing in
/// the step: the two-thread step reads 0.95–0.99 of the one-thread one, and
/// 0.99–1.06 with the three kept whole (EXPERIMENTS.md, "conv backprops as
/// products").
///
/// The smaller grains lose on both counts. The same step on two threads
/// against one (the benchmark's `speedup_vs_1thread` with ten times the
/// samples: 600 steps a side in alternating blocks of ten, nine rounds,
/// q1 / median / q3): 16 384 → 0.98 / 1.00 / 1.01 with a two-thread step of
/// 3.50 ms, 32 768 → 1.05 / 1.05 / 1.07 and 3.29 ms (conv-1's product and
/// conv-2's im2col split for a loss), 65 536 → 1.06 / 1.10 / 1.10 and 3.16 ms;
/// the commit before these kernels were rewritten read 1.04 / 1.09 / 1.10 in
/// the same rounds.
pub(crate) const GRAIN: usize = 65_536;

/// How many ways to split `n` items of `work_per_item` units each over a
/// pool of `cores`: one chunk per [`GRAIN`] of work, at most one per core.
fn chunk_count(cores: usize, n: usize, work_per_item: usize) -> usize {
    (n.saturating_mul(work_per_item) / GRAIN).clamp(1, cores.min(n).max(1))
}

/// Run `f` over `0..n`, split into contiguous ranges on `pool`, handing each
/// call the disjoint `&mut` slice of `out` aligned with its range
/// (`out.len()` must be `n * stride`). `work_per_item` is the cost of one
/// item in element visits ([`GRAIN`]'s unit); an op worth less than two
/// grains runs inline on the calling thread.
pub fn parallel_for_slices<T: Send>(
    pool: &WorkerPool,
    out: &mut [T],
    n: usize,
    stride: usize,
    work_per_item: usize,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    debug_assert_eq!(out.len(), n * stride);
    let chunks = chunk_count(pool.size(), n, work_per_item);
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
    #[inline]
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
    use webml_core::host::FreeList;
    use std::thread::ThreadId;

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

    #[test]
    fn chunks_follow_work_not_output_size() {
        // A 1152-element Mul and the 50 176-element Relu of the training
        // step stay whole, and so does conv 2's col2im (6272 input pixels
        // of 18 adds); its dW product, 72 filter rows of 32*7*7*16 tiled
        // multiply-adds each, is split; never more ways than cores or items.
        assert_eq!(chunk_count(2, 1152, 1), 1);
        assert_eq!(chunk_count(2, 50_176, 1), 1);
        assert_eq!(chunk_count(2, 32 * 14 * 14, 18), 1);
        let tiled_row = (32 * 7 * 7 * 16usize).div_ceil(crate::compute::TILED_MACS_PER_VISIT);
        assert_eq!(chunk_count(2, 72, tiled_row), 2);
        assert_eq!(chunk_count(8, 2 * GRAIN - 1, 1), 1);
        assert_eq!(chunk_count(8, 2 * GRAIN, 1), 2);
        assert_eq!(chunk_count(8, 3, usize::MAX), 3);
        assert_eq!(chunk_count(1, 1 << 20, 1 << 20), 1);
        assert_eq!(chunk_count(4, 0, 7), 1);
    }

    /// `f` run on a host of `cores` threads and an empty free list.
    fn on_host<R>(cores: usize, f: impl FnOnce(&Host<'_>) -> R) -> R {
        let (pool, buffers) = (WorkerPool::new(cores), FreeList::default());
        f(&Host { pool: &pool, buffers: &buffers })
    }

    #[test]
    fn collect_writes_every_element_once_on_any_split() {
        for cores in [1, 2, 3, 8] {
            let (n, stride) = (GRAIN + 77, 3);
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
            parallel_collect(host, 4 * GRAIN, 1, 1, |range, slots| {
                slots.extend(range.skip(1).map(|i| i as f32));
            })
        });
    }

    /// The threads `parallel_for_slices` ran an op of `n` unit-work items on.
    fn threads_used(pool: &WorkerPool, n: usize) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        // Every chunk waits until all are running, so no thread can take two.
        let chunks = chunk_count(pool.size(), n, 1);
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
        let pool = WorkerPool::new(3);
        let caller = std::thread::current().id();
        assert_eq!(threads_used(&pool, 2 * GRAIN - 1), HashSet::from([caller]));
        let spread = threads_used(&pool, 3 * GRAIN);
        assert_eq!(spread.len(), 3);
        assert!(spread.contains(&caller));
    }
}
