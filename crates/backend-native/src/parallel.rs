//! Splitting a kernel's output over the backend's persistent
//! [`WorkerPool`], when the kernel is big enough to pay for the hand-off.

use parking_lot::Mutex;
use std::mem::MaybeUninit;
use std::ops::Range;
use webml_core::host::Host;
use webml_core::pool::WorkerPool;

/// Least work a chunk must hold before an op is split one more way while the
/// pool's worker is awake ([`WorkerPool::warm`]), in the one unit every call
/// site counts: an element visit — a load, an operation and a store. A
/// multiply-add of the untiled kernels (depthwise conv, the quantised
/// product) is exactly that, and is measured at a visit's price (1.8 M of
/// them in the conv backprops' former gather loops took 0.72–0.75 ms on one
/// thread, 0.40 ns each), so those kernels pass their multiply-adds as they
/// are; col2im passes its adds. The register-tiled product is the one kernel
/// whose multiply-add touches no memory; `compute::TILED_MACS_PER_VISIT`,
/// kept beside the tile it describes, says how many of them make a visit.
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
/// Re-checked for the AVX2 build of the hot loops (`codegen`): the two maps
/// above cost the same in both builds (0.43 and 0.60 ns portable, 0.42 and
/// 0.60 ns AVX2, 31 rounds alternating the builds, in a slower host state
/// than the figures above), and no hand-off changed, so neither grain
/// depends on the build.
///
/// In the training step the worker is awake from its first split of a step
/// to its last, so the step's element-wise maps, both im2cols, conv 1's
/// products, col2im, the dense products and the bias-gradient sums split
/// too (`tests::the_training_steps_kernels_split_as_listed`).
pub(crate) const GRAIN: usize = 8_192;

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
/// and wakes the worker ([`WorkerPool::wake`]), so the ops that follow find
/// it awake. The grain thus depends on the one thing that sets the hand-off's
/// price, the worker's state, which the pool observes; a backend serving
/// sparse requests keeps its worker parked between them and splits only what
/// pays for a wake-up.
pub(crate) const COLD_GRAIN: usize = 65_536;

/// How many ways to split `n` items of `work_per_item` units each over a
/// pool of `cores`: one chunk per `grain` of work, at most one per core.
fn chunk_count(cores: usize, n: usize, work_per_item: usize, grain: usize) -> usize {
    (n.saturating_mul(work_per_item) / grain).clamp(1, cores.min(n).max(1))
}

/// Run `f` over `0..n`, split into contiguous ranges on `pool`, handing each
/// call the disjoint `&mut` slice of `out` aligned with its range
/// (`out.len()` must be `n * stride`). `work_per_item` is the cost of one
/// item in element visits ([`GRAIN`]'s unit); an op worth less than two
/// grains — [`GRAIN`]s while the pool is warm, [`COLD_GRAIN`]s while it is
/// not — runs inline on the calling thread.
pub fn parallel_for_slices<T: Send>(
    pool: &WorkerPool,
    out: &mut [T],
    n: usize,
    stride: usize,
    work_per_item: usize,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    debug_assert_eq!(out.len(), n * stride);
    let split = |grain| chunk_count(pool.size(), n, work_per_item, grain);
    let warm_chunks = split(GRAIN);
    let chunks = if pool.warm() { warm_chunks } else { split(COLD_GRAIN) };
    if chunks < warm_chunks {
        pool.wake();
    }
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
        // Two grains or more split, never more ways than cores or items.
        for grain in [GRAIN, COLD_GRAIN] {
            assert_eq!(chunk_count(8, 2 * grain - 1, 1, grain), 1);
            assert_eq!(chunk_count(8, 2 * grain, 1, grain), 2);
            assert_eq!(chunk_count(8, 3, usize::MAX, grain), 3);
            assert_eq!(chunk_count(1, 1 << 20, 1 << 20, grain), 1);
            assert_eq!(chunk_count(4, 0, 7, grain), 1);
        }
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

    /// The threads `parallel_for_slices` ran an op of `n` unit-work items on,
    /// on a pool that parks: `chunks` of them, which wait for each other, so
    /// no thread can take two.
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
        // A parking pool is never warm: the cold grain.
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
        let pool = WorkerPool::spinning(2);
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
