//! # webml-webgpu-sim
//!
//! The WebGPU-class compute API the paper's future-work section (Sec 4.3)
//! predicts — "general purpose parallel programming" in the browser —
//! expressed as what it is: a second capability descriptor over the device
//! core of [`webml_webgl_sim`]. Queue, fences, recycler, fault plans,
//! readback and the modeled clock are that crate's; this one holds
//!
//! - [`WEBGPU`], the descriptor: **linear storage buffers** instead of
//!   float textures (no 2-D layout compilation, no texel packing; quantized
//!   weights still live as one-byte codes), **workgroup shared memory**
//!   (a kernel's declared reuse multiplies its occupancy), a dispatch and a
//!   fresh allocation at a quarter and a third of WebGL's cost (command
//!   encoding without rasterizer, viewport or framebuffer state; no image
//!   layout or sampler state), no paging tier, and timestamp queries as a
//!   core feature;
//! - [`WebGpuConfig`], the one knob the compute rung exposes;
//! - the [`pipeline`] constructors that build compute kernels.
//!
//! The cheaper dispatch and allocation are where most of the measured
//! webgpu-vs-webgl win on small kernels comes from, shared memory where the
//! win on large ones does — exactly the paper's prediction for what a
//! compute API buys the browser.

#![warn(missing_docs)]

pub mod pipeline;

use webml_webgl_sim::caps::{Capabilities, Storage};
use webml_webgl_sim::context::ContextConfig;
use webml_webgl_sim::pager::PagingPolicy;

/// WebGPU: compute pipelines over storage buffers (paper Sec 4.3).
pub const WEBGPU: Capabilities = Capabilities {
    api: "webgpu",
    storage: Storage::Linear,
    shared_memory: true,
    dispatch_overhead_ns: 2_000,
    alloc_overhead_ns: 20_000,
    paging: false,
    timestamp_queries: true,
    device_thread: "webgpu-device",
    pool_category: "buffer-pool",
    alloc_instant: "buffer_alloc",
    recycle_instant: "buffer_recycle",
};

/// Context configuration. The compute API needs far fewer knobs than the
/// WebGL substrate: no texel packing, no 2-D layout squeezing, no paging
/// (storage buffers page at driver level; the simulator models OOM via
/// fault plans instead).
#[derive(Debug, Clone, Copy)]
pub struct WebGpuConfig {
    /// Recycle disposed storage buffers by (length, format).
    pub recycling: bool,
}

impl Default for WebGpuConfig {
    fn default() -> Self {
        WebGpuConfig { recycling: true }
    }
}

impl From<WebGpuConfig> for ContextConfig {
    fn from(config: WebGpuConfig) -> ContextConfig {
        ContextConfig {
            packing: false,
            squeeze_layout: false,
            paging: PagingPolicy::disabled(),
            recycling: config.recycling,
        }
    }
}

/// The substrate contract: one body per behaviour, run over every
/// descriptor — the two that ship and a third, test-only one ("WebGPU
/// without shared memory") that exists to show a rung is a descriptor.
/// This crate sees every descriptor, so the suite lives here; what only a
/// texture device does (layout limits, packing, squeeze, paging, f16
/// rounding) is tested in `webml-webgl-sim`.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use webml_webgl_sim::context::{DeviceError, GpgpuContext, Handle};
    use webml_webgl_sim::devices::DeviceProfile;
    use webml_webgl_sim::fault::FaultPlan;
    use webml_webgl_sim::shader::{occupancy, Kernel};
    use webml_webgl_sim::WEBGL;

    /// Compute kernels, linear storage, shared-memory reuse pinned to 1.
    const NO_SHARED_MEMORY: Capabilities = Capabilities { shared_memory: false, ..WEBGPU };

    const DESCRIPTORS: [&Capabilities; 3] = [&WEBGL, &WEBGPU, &NO_SHARED_MEMORY];

    fn ctx_with(caps: &'static Capabilities, plan: FaultPlan) -> GpgpuContext {
        GpgpuContext::on(caps, DeviceProfile::intel_iris_pro(), ContextConfig::default(), plan)
            .unwrap()
    }

    fn ctx(caps: &'static Capabilities) -> GpgpuContext {
        ctx_with(caps, FaultPlan::none())
    }

    /// `out[i] = f(&[in0[i], in1[i], ..])` over `n` elements, as the kind
    /// of body the API runs.
    fn map(
        caps: &Capabilities,
        name: &'static str,
        n: usize,
        cost: usize,
        f: fn(&[f32]) -> f32,
    ) -> Kernel {
        match caps.storage {
            Storage::Texture => Kernel::per_element(name, vec![n], move |s, i, _| {
                f(&(0..s.len()).map(|k| s.get_flat(k, i)).collect::<Vec<_>>())
            })
            .with_cost(cost),
            Storage::Linear => {
                pipeline::cooperative(name, n, 1, cost, 1, move |inp, start, out| {
                    for (i, o) in (start..).zip(out) {
                        *o = f(&inp.iter().map(|b| b[i]).collect::<Vec<_>>());
                    }
                })
            }
        }
    }

    fn double(caps: &Capabilities, n: usize) -> Kernel {
        map(caps, "Double", n, 1, |x| x[0] * 2.0)
    }

    #[test]
    fn upload_read_round_trip() {
        for caps in DESCRIPTORS {
            let c = ctx(caps);
            let h = c.upload(vec![1.0, 2.0, 3.0], &[3]).unwrap();
            assert_eq!(c.read_sync(&h).unwrap(), vec![1.0, 2.0, 3.0], "{}", caps.api);
        }
    }

    #[test]
    fn u8_codes_cost_one_byte_each_and_feed_kernels() {
        for caps in DESCRIPTORS {
            let c = ctx(caps);
            let codes: Vec<u8> = (0..=255).collect();
            let h = c.upload_quantized(&codes, &[256]).unwrap();
            // Reading returns the raw codes widened to f32.
            let vals = c.read_sync(&h).unwrap();
            assert_eq!((vals[0], vals[255]), (0.0, 255.0));
            // Device residency is 1 byte per code, vs 4 for an f32 upload.
            assert_eq!(c.memory().bytes_in_gpu, 256, "{}", caps.api);
            let f = c.upload(vec![0.0; 256], &[256]).unwrap();
            assert_eq!(c.memory().bytes_in_gpu, 256 + 1024, "{}", caps.api);
            // A kernel can consume the codes like any other input.
            let dequant = map(caps, "Dequant", 256, 1, |x| x[0] * 0.5 - 4.0);
            let out = c.run(dequant, &[&h]).unwrap();
            assert_eq!(c.read_sync(&out).unwrap()[8], 8.0 * 0.5 - 4.0);
            c.dispose(&f);
        }
    }

    #[test]
    fn profiles_without_the_api_are_rejected() {
        for caps in DESCRIPTORS {
            let on = |p| GpgpuContext::on(caps, p, ContextConfig::default(), FaultPlan::none());
            assert!(matches!(
                on(DeviceProfile::android_legacy()),
                Err(DeviceError::Unsupported { api, .. }) if api == caps.api
            ));
            // iOS Safari has (16-bit) float textures but no compute API.
            let ios = on(DeviceProfile::ios_safari());
            assert_eq!(ios.is_ok(), caps.storage == Storage::Texture, "{}", caps.api);
        }
    }

    #[test]
    fn kernel_runs_over_two_inputs() {
        for caps in DESCRIPTORS {
            let c = ctx(caps);
            let a = c.upload(vec![1.0, 2.0], &[2]).unwrap();
            let b = c.upload(vec![10.0, 20.0], &[2]).unwrap();
            let out = c.run(map(caps, "Add", 2, 1, |x| x[0] + x[1]), &[&a, &b]).unwrap();
            assert_eq!(c.read_sync(&out).unwrap(), vec![11.0, 22.0], "{}", caps.api);
        }
    }

    fn slow(caps: &Capabilities) -> Kernel {
        map(caps, "Slow", 256, 20_000, |x| {
            (0..20_000).fold(x[0], |v, _| (v * 1.000_001).sin() + 1.0)
        })
    }

    #[test]
    fn enqueue_returns_before_completion() {
        // run() must return quickly while the fence only passes later.
        for caps in DESCRIPTORS {
            let c = ctx(caps);
            let a = c.upload(vec![1.0; 256], &[256]).unwrap();
            let t0 = std::time::Instant::now();
            let out = c.run(slow(caps), &[&a]).unwrap();
            let fence = c.fence();
            let enqueue_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert!(enqueue_ms < 50.0, "{}: enqueue took {enqueue_ms} ms", caps.api);
            // Blocking read waits for the result.
            assert_eq!(c.read_sync(&out).unwrap().len(), 256);
            assert!(c.fence_passed(fence));
        }
    }

    #[test]
    fn async_read_completes_on_the_device_thread() {
        for caps in DESCRIPTORS {
            let c = ctx(caps);
            let a = c.upload(vec![3.0], &[1]).unwrap();
            let out = c.run(map(caps, "Square", 1, 1, |x| x[0] * x[0]), &[&a]).unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            let done = move |vals| {
                tx.send((vals, std::thread::current().name().map(String::from))).unwrap()
            };
            c.read_async(&out, done.clone()).unwrap();
            let (vals, thread) = rx.recv().unwrap();
            assert_eq!(vals.unwrap(), vec![9.0]);
            assert_eq!(thread.as_deref(), Some(caps.device_thread));
            // An allocation that does not exist is an error, never a hang.
            let ghost = Handle { id: 999, ..out };
            c.read_async(&ghost, done).unwrap();
            assert!(rx.recv().unwrap().0.unwrap_err().contains("999"));
            assert!(matches!(c.read_sync(&ghost), Err(DeviceError::Read(_))));
        }
    }

    #[test]
    fn fences_pass_in_order_and_only_real_sleeps_are_counted() {
        for caps in DESCRIPTORS {
            let c = ctx(caps);
            let a = c.upload(vec![1.0; 256], &[256]).unwrap();
            let first = c.fence();
            c.run(slow(caps), &[&a]).unwrap();
            let second = c.fence();
            c.wait_fence(second);
            assert!(c.fence_passed(first) && c.fence_passed(second), "{}", caps.api);
            let slept = c.queue_stats();
            assert!(slept.fence_waits <= 1);
            assert_eq!(slept.fence_waits == 1, slept.fence_wait_ns > 0);
            // Waiting on a passed fence is the lock-free fast path.
            c.wait_fence(first);
            c.wait_fence(second);
            assert_eq!(c.queue_stats().fence_waits, slept.fence_waits);
        }
    }

    /// A blocking read pays the pipeline drain exactly when it follows work
    /// that no fence the host waited on, and no earlier blocking read,
    /// covers — whatever the device thread has done by then. The drains
    /// advance the timeline and never the kernel clock.
    #[test]
    fn a_blocking_read_drains_only_behind_uncovered_work() {
        for caps in DESCRIPTORS {
            let c = ctx(caps);
            let drains = || c.queue_stats().drains;
            let a = c.upload(vec![1.0; 256], &[256]).unwrap();
            let out = c.run(double(caps, 256), &[&a]).unwrap();
            c.read_sync(&out).unwrap();
            assert_eq!(drains(), 1, "{}: right after an enqueue", caps.api);
            c.read_sync(&out).unwrap();
            assert_eq!(drains(), 1, "{}: the earlier read covered the work", caps.api);
            let out = c.run(double(caps, 256), &[&a]).unwrap();
            c.wait_fence(c.fence());
            c.read_sync(&out).unwrap();
            assert_eq!(drains(), 1, "{}: after wait_fence", caps.api);
            // A fence covers only the work submitted before it.
            let fence = c.fence();
            let out = c.run(double(caps, 256), &[&a]).unwrap();
            c.wait_fence(fence);
            c.read_sync(&out).unwrap();
            assert_eq!(drains(), 2, "{}: work behind the waited fence", caps.api);
            // An asynchronous read never drains.
            let out = c.run(double(caps, 256), &[&a]).unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            c.read_async(&out, move |v| tx.send(v).unwrap()).unwrap();
            rx.recv().unwrap().unwrap();
            assert_eq!(drains(), 2, "{}: asynchronous read", caps.api);
            let penalty = c.profile().readback_sync_penalty_ns;
            assert_eq!(c.queue_stats().drain_ns, 2 * penalty);
            assert_eq!(c.timeline_ns(), c.device_nanos() + 2 * penalty, "{}", caps.api);
        }
    }

    #[test]
    fn a_fence_from_another_context_reads_as_passed() {
        for caps in DESCRIPTORS {
            let (minting, other) = (ctx(caps), ctx(&WEBGL));
            let a = minting.upload(vec![1.0; 256], &[256]).unwrap();
            // Push the minting context's sequence numbers past the other's.
            (0..4).for_each(|_| minting.flush());
            minting.run(slow(caps), &[&a]).unwrap();
            let fence = minting.fence();
            let round_trip = webml_webgl_sim::FenceHandle::from_raw(fence.raw());
            assert_eq!(round_trip, fence);
            // Nothing on `other` can wait for it: passed, and no sleep.
            assert!(other.fence_passed(round_trip));
            other.wait_fence(round_trip);
            assert_eq!(other.queue_stats().fence_waits, 0);
            // On its own context it is a real fence.
            minting.wait_fence(round_trip);
            assert!(minting.fence_passed(fence));
        }
    }

    #[test]
    fn recycler_hits_on_the_same_key_and_misses_on_another_format() {
        for caps in DESCRIPTORS {
            let c = ctx(caps);
            let h = c.upload(vec![0.0; 64], &[64]).unwrap();
            c.dispose(&h);
            let h2 = c.upload(vec![1.0; 64], &[64]).unwrap();
            let m = c.memory();
            assert_eq!((m.recycler.hits, m.recycler.misses), (1, 1), "{}", caps.api);
            assert_eq!((m.recycler_hits, m.recycler_misses), (1, 1));
            assert_eq!(c.read_sync(&h2).unwrap()[0], 1.0);
            // Format is part of the key: codes must not get f32 storage.
            c.dispose(&h2);
            c.upload_quantized(&[0; 64], &[64]).unwrap();
            let m = c.memory();
            assert_eq!((m.recycler.hits, m.recycler.misses), (1, 2), "{}", caps.api);
        }
    }

    #[test]
    fn loss_leaves_readable_shadows_and_restores_lazily() {
        for caps in DESCRIPTORS {
            let c = ctx_with(caps, FaultPlan::none().lose_context_at(2));
            let events = Arc::new(AtomicU64::new(0));
            let ev = events.clone();
            c.on_context_lost(move |e| {
                assert_eq!(e.draws_completed, 1);
                assert!(e.restorable);
                ev.fetch_add(1, Ordering::SeqCst);
            });
            let a = c.upload(vec![1.0, 2.0], &[2]).unwrap();
            let q = c.upload_quantized(&[7, 19, 255], &[3]).unwrap();
            let out = c.run(double(caps, 2), &[&a]).unwrap();
            // The second dispatch loses the context.
            assert_eq!(c.run(double(caps, 2), &[&out]), Err(DeviceError::ContextLost));
            assert!(c.is_context_lost());
            assert_eq!(events.load(Ordering::SeqCst), 1);
            // Uploads and dispatches fail while lost; reads serve shadows.
            assert!(matches!(c.upload(vec![0.0], &[1]), Err(DeviceError::ContextLost)));
            assert_eq!(c.read_sync(&a).unwrap(), vec![1.0, 2.0]);
            assert_eq!(c.read_sync(&out).unwrap(), vec![2.0, 4.0]);
            assert_eq!(c.read_sync(&q).unwrap(), vec![7.0, 19.0, 255.0]);
            let m = c.memory();
            assert_eq!(m.bytes_in_gpu, 0, "{}: every allocation invalidated", caps.api);
            assert!(m.pager.bytes_paged >= (2 + 2 + 3) * 4, "shadows are on the ledger");
            // Restore: kernels recompile, shadows page back in lazily.
            assert_eq!(c.programs_compiled(), 0, "kernel cache cleared on loss");
            assert!(c.restore_context());
            let out2 = c.run(double(caps, 2), &[&out]).unwrap();
            assert_eq!(c.read_sync(&out2).unwrap(), vec![4.0, 8.0]);
            let codes = c.run(double(caps, 3), &[&q]).unwrap();
            assert_eq!(c.read_sync(&codes).unwrap(), vec![14.0, 38.0, 510.0]);
            let m = c.memory();
            assert_eq!(m.pager.page_ins, 2, "{}: `out` and `q` came back", caps.api);
            assert_eq!(m.pager.bytes_paged, c.read_sync(&a).unwrap().len() * 4);
            assert_eq!(c.fault_stats().context_losses, 1);
        }
    }

    #[test]
    fn unrestorable_loss_stays_lost() {
        for caps in DESCRIPTORS {
            let c = ctx_with(caps, FaultPlan::none().lose_context_at(1).unrestorable());
            let a = c.upload(vec![1.0], &[1]).unwrap();
            assert_eq!(c.run(double(caps, 1), &[&a]), Err(DeviceError::ContextLost));
            assert!(!c.restore_context());
            assert!(c.is_context_lost());
        }
    }

    #[test]
    fn blocked_kernel_fails_compilation_deterministically() {
        for caps in DESCRIPTORS {
            let c = ctx_with(caps, FaultPlan::none().block_shader("Square"));
            let a = c.upload(vec![3.0], &[1]).unwrap();
            for _ in 0..3 {
                let square = map(caps, "Square", 1, 1, |x| x[0] * x[0]);
                assert!(matches!(
                    c.run(square, &[&a]),
                    Err(DeviceError::Compile { ref kernel }) if kernel == "Square"
                ));
            }
            let cube = || map(caps, "Cube", 1, 1, |x| x[0].powi(3));
            assert_eq!(c.read_sync(&c.run(cube(), &[&a]).unwrap()).unwrap(), vec![27.0]);
            // A successful compilation is cached; a rejection is retried
            // (and rejected again) on every use.
            c.run(cube(), &[&a]).unwrap();
            assert_eq!(c.fault_stats().compile_failures, 3, "{}", caps.api);
            assert_eq!((c.programs_compiled(), c.pipelines_compiled()), (1, 1));
        }
    }

    #[test]
    fn fragment_bodies_do_not_compile_on_linear_storage() {
        let c = ctx(&WEBGPU);
        let a = c.upload(vec![1.0], &[1]).unwrap();
        assert!(a.layout.is_none(), "a storage buffer has no texture layout");
        let fragment = Kernel::per_element("Id", vec![1], |s, i, _| s.get_flat(0, i));
        assert!(matches!(c.run(fragment, &[&a]), Err(DeviceError::Compile { .. })));
    }

    #[test]
    fn byte_limit_injects_oom() {
        // No paging: cumulative pressure hits the limit.
        for caps in DESCRIPTORS {
            let c = ctx_with(caps, FaultPlan::none().with_texture_byte_limit(32 * 1024));
            let _a = c.upload(vec![0.0; 4096], &[4096]).unwrap(); // 16 KB
            let _b = c.upload(vec![0.0; 4096], &[4096]).unwrap(); // 32 KB
            let err = c.upload(vec![0.0; 4096], &[4096]).unwrap_err();
            assert!(matches!(err, DeviceError::Oom { limit, .. } if limit == 32 * 1024));
            assert_eq!(c.fault_stats().oom_failures, 1, "{}", caps.api);
        }
    }

    #[test]
    fn transient_readback_errors_then_succeeds() {
        for caps in DESCRIPTORS {
            let c = ctx_with(caps, FaultPlan::none().with_readback_failures(1.0, 2));
            let h = c.upload(vec![5.0], &[1]).unwrap();
            let first = c.read_sync(&h);
            assert!(matches!(first, Err(DeviceError::TransientReadback { attempt: 1 })));
            // The asynchronous path reports it synchronously too.
            assert!(c.read_async(&h, |_| panic!("never enqueued")).unwrap_err().is_transient());
            assert_eq!(c.read_sync(&h).unwrap(), vec![5.0]);
            assert_eq!(c.fault_stats().transient_read_failures, 2, "{}", caps.api);
        }
    }

    #[test]
    fn timer_query_measures_device_time() {
        for caps in DESCRIPTORS {
            let c = ctx(caps);
            let a = c.upload(vec![1.0; 4096], &[4096]).unwrap();
            c.flush();
            let before = c.device_nanos();
            let work = map(caps, "Work", 4096, 100, |x| (0..100).fold(x[0], |v, _| v * 1.0001 + 0.1));
            let out = c.run(work, &[&a]).unwrap();
            c.flush();
            assert!(c.device_nanos() > before);
            // A dispatch costs at least the API's fixed overhead.
            assert!(c.device_nanos() >= caps.dispatch_overhead_ns, "{}", caps.api);
            let m = c.memory();
            assert_eq!((m.programs_run, m.dispatches_run), (1, 1));
            let _ = c.read_sync(&out);
            // WebGL times through an extension some profiles lack; the
            // compute API's timestamp queries are core.
            let android = DeviceProfile::android_modern();
            assert!(!android.has_disjoint_timer_query && android.has_webgpu);
            assert_eq!(caps.has_timer(&android), caps.storage == Storage::Linear);
            assert!(caps.has_timer(c.profile()));
        }
    }

    #[test]
    fn draw_stalls_hit_the_device_clock_and_stay_correct() {
        let stall_ns = 2_000_000; // 2 ms
        for caps in DESCRIPTORS {
            let plan = FaultPlan { seed: 7, ..FaultPlan::none() }.with_draw_stall(1.0, stall_ns);
            let c = ctx_with(caps, plan);
            let a = c.upload(vec![1.0, 2.0], &[2]).unwrap();
            c.flush();
            let before = c.device_nanos();
            let t0 = std::time::Instant::now();
            let out = c.run(double(caps, 2), &[&a]).unwrap();
            // Stalled dispatches still compute the right answer.
            assert_eq!(c.read_sync(&out).unwrap(), vec![2.0, 4.0]);
            c.flush();
            let device_ms = (c.device_nanos() - before) as f64 / 1e6;
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let stall_ms = stall_ns as f64 / 1e6;
            assert!(device_ms >= stall_ms, "stall on the device clock: {device_ms} ms");
            assert!(wall_ms >= stall_ms, "stall visible in wall latency: {wall_ms} ms");
            assert_eq!(c.fault_stats().draw_stalls, 1);
        }
    }

    #[test]
    fn shared_memory_rewards_tiling_only_where_it_exists() {
        let n = 1usize << 16;
        let work = |inp: &[&[f32]], start: usize, out: &mut [f32]| {
            for (o, &v) in out.iter_mut().zip(&inp[0][start..]) {
                *o = (0..64).fold(v, |x, _| x * 1.000_1 + 0.1);
            }
        };
        let naive = pipeline::cooperative("Naive", n, 1, 64, 1, work);
        let tiled = pipeline::cooperative("Tiled", n, 16, 64, 1, work);
        // The model: a tiled kernel fills reuse× the lanes — unless the API
        // has no shared memory, where the declared reuse is ignored.
        assert_eq!(occupancy(8, WEBGPU.shared_memory, &naive), 8);
        assert_eq!(occupancy(8, WEBGPU.shared_memory, &tiled), 128);
        assert_eq!(occupancy(8, NO_SHARED_MEMORY.shared_memory, &tiled), 8);
        // The clock: two pipelines with identical serial bodies; the
        // cooperative one must be modeled meaningfully faster.
        let c = ctx(&WEBGPU);
        let a = c.upload(vec![1.0; n], &[n]).unwrap();
        let timed = |kernel: Kernel| {
            c.flush();
            let before = c.device_nanos();
            let _ = c.read_sync(&c.run(kernel, &[&a]).unwrap()).unwrap();
            c.flush();
            c.device_nanos() - before
        };
        let (naive_ns, tiled_ns) = (timed(naive), timed(tiled));
        assert!(tiled_ns * 2 < naive_ns, "tiled {tiled_ns} ns vs naive {naive_ns} ns");
    }

    #[test]
    fn compute_dispatch_and_allocation_are_cheaper_than_webgl() {
        // The headline claim of the compute API: cheaper command encode.
        const { assert!(WEBGPU.dispatch_overhead_ns * 2 < WEBGL.dispatch_overhead_ns) };
        const { assert!(WEBGPU.alloc_overhead_ns < WEBGL.alloc_overhead_ns) };
    }
}
