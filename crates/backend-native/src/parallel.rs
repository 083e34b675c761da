//! Splitting a kernel's output over the backend's persistent
//! [`WorkerPool`], when the kernel is big enough to pay for the hand-off.

use parking_lot::Mutex;
use std::ops::Range;
use webml_core::pool::WorkerPool;

/// Least work a chunk must hold before an op is split one more way, in the
/// unit the kernels count: one multiply-add or one element visited.
///
/// Derived from the round trip of an empty `WorkerPool::run(2, ..)` whose
/// worker is parked, as it is between the kernels of a step: 9.8–11.7 µs
/// (median of 2000, five repeats; 2 vCPU Xeon @ 2.10 GHz, release build),
/// nearly all of it the wake-up of the worker. Back to back, with the worker
/// still awake, the same call takes 0.4 µs, which no kernel ever sees. A
/// streaming element visit (`a[i] + b[i]` over 1 Mi floats) costs 0.7 ns on
/// that host, so one round trip is worth about 14 000 units, rounded to the
/// next power of two. With every chunk holding at least that much, the
/// hand-off costs a chunk at most what the chunk itself costs, and the
/// smallest op that is split (two grains) breaks even when its halves do run
/// in parallel. Multiply-adds vectorise and cost less than a visit, so ops
/// counted in them split up to three times earlier than break-even; they are
/// also the ops with the most to gain from more cores.
const GRAIN: usize = 16_384;

/// How many ways to split `n` items of `work_per_item` units each over a
/// pool of `cores`: one chunk per [`GRAIN`] of work, at most one per core.
fn chunk_count(cores: usize, n: usize, work_per_item: usize) -> usize {
    (n.saturating_mul(work_per_item) / GRAIN).clamp(1, cores.min(n).max(1))
}

/// Run `f` over `0..n`, split into contiguous ranges on `pool`, handing each
/// call the disjoint `&mut` slice of `out` aligned with its range
/// (`out.len()` must be `n * stride`). `work_per_item` is the cost of one
/// item in multiply-adds or element visits; an op worth less than two
/// grains of it runs inline on the calling thread.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
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
        // A 1152-element Mul stays whole; Conv2DBackpropFilter's 72 filter
        // rows of 32*7*7*16 multiply-adds each are split; never more ways
        // than cores or items.
        assert_eq!(chunk_count(2, 1152, 1), 1);
        assert_eq!(chunk_count(2, 72, 32 * 7 * 7 * 16), 2);
        assert_eq!(chunk_count(8, 2 * GRAIN - 1, 1), 1);
        assert_eq!(chunk_count(8, 2 * GRAIN, 1), 2);
        assert_eq!(chunk_count(8, 3, usize::MAX), 3);
        assert_eq!(chunk_count(1, 1 << 20, 1 << 20), 1);
        assert_eq!(chunk_count(4, 0, 7), 1);
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
