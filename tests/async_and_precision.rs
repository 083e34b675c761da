//! Asynchronous execution (paper Sec 3.6 / 4.1.1, Figures 2-3) and the
//! per-device precision handling of Sec 4.1.3, exercised end to end through
//! the engine on the webgl backend.

use std::sync::Arc;
use std::time::Duration;
use webml::backend_webgl::{WebGlBackend, WebGlConfig};
use webml::core::asyncx::EventLoop;
use webml::core::backend::Backend;
use webml::webgl_sim::devices::DeviceProfile;
use webml::{ops, Engine, Tensor};

fn webgl_engine() -> Engine {
    let e = webml::new_engine();
    e.set_backend("webgl").unwrap();
    e
}

/// An engine on a webgl backend the test keeps, to read its device clocks.
fn webgl_on_iris() -> (Engine, Arc<WebGlBackend>) {
    let backend = Arc::new(
        WebGlBackend::new(DeviceProfile::intel_iris_pro(), WebGlConfig::default()).unwrap(),
    );
    let e = Engine::new();
    e.register_backend("webgl", backend.clone(), 2);
    (e, backend)
}

/// The pipeline drain the profile charges a blocking read.
fn drain_ns() -> u64 {
    DeviceProfile::intel_iris_pro().readback_sync_penalty_ns
}

/// Kernel time on the device clock (flushed), in ns.
fn kernel_ns(backend: &WebGlBackend) -> u64 {
    backend.device_timer_ns().expect("iris pro has a timer query")
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn heavy_chain(e: &Engine, n: usize, depth: usize) -> Tensor {
    let a = e.rand_uniform([n, n], -1.0, 1.0, 1).unwrap();
    let mut y = ops::matmul(&a, &a, false, false).unwrap();
    for _ in 0..depth {
        y = ops::matmul(&y, &a, false, false).unwrap();
    }
    y
}

#[test]
fn ops_are_synchronous_but_nonblocking() {
    // Paper Sec 3.6: "operations like tf.matMul() are purposefully
    // synchronous and return a tensor whose data might not be computed
    // yet." On the device timeline: enqueuing the chain waits on none of
    // it — no fence wait and no read covered it, so the read still pays the
    // one pipeline drain — and the read costs the main thread the chain's
    // priced time plus that drain.
    let (e, backend) = webgl_on_iris();
    let (start, kernel_start) = (backend.context().timeline_ns(), kernel_ns(&backend));
    let waits = backend.queue_stats().fence_waits;
    let y = heavy_chain(&e, 160, 5);
    assert_eq!(backend.queue_stats().fence_waits, waits, "enqueuing waited on the device");
    let vals = y.data_sync().unwrap();
    let read = backend.context().timeline_ns() - start;
    assert_eq!(vals.len(), 160 * 160);
    assert_eq!(backend.queue_stats().drains, 1);
    assert_eq!(read, kernel_ns(&backend) - kernel_start + drain_ns());
}

#[test]
fn figure2_sync_read_blocks_main_thread() {
    let (e, backend) = webgl_on_iris();
    let lp = EventLoop::new(Duration::from_millis(2), || backend.context().timeline_ns());
    let before = kernel_ns(&backend);
    let (data, report) = lp.run_sync(
        || heavy_chain(&e, 160, 5),
        |y| y.data_sync(),
        Duration::from_millis(20),
    );
    let priced = kernel_ns(&backend) - before;
    assert!(data.is_ok());
    // The main thread stalls for exactly the chain's priced time plus the
    // drain, and renders no frame meanwhile.
    assert_eq!(report.blocked_ms, ms(priced + drain_ns()));
    assert!(report.longest_frame_gap_ms >= report.blocked_ms);
}

#[test]
fn figure3_async_read_keeps_frames_flowing() {
    const FRAME_NS: u64 = 2_000_000;
    const TAIL_NS: u64 = 20_000_000;
    let (e, backend) = webgl_on_iris();
    let lp = EventLoop::new(Duration::from_nanos(FRAME_NS), || backend.context().timeline_ns());
    let before = kernel_ns(&backend);
    let (data, report) = lp.run_async(
        || {
            let y = heavy_chain(&e, 160, 5);
            y.data()
        },
        Duration::from_nanos(TAIL_NS),
    );
    let priced = kernel_ns(&backend) - before;
    assert_eq!(data.unwrap().len(), 160 * 160);
    assert_eq!(report.blocked_ms, 0.0);
    // The promise resolves at the priced completion, with no drain, and a
    // frame fell every interval until the tail ended.
    assert_eq!(report.data_ready_at_ms, ms(priced));
    assert_eq!(report.frames_rendered as u64, (priced + TAIL_NS).div_ceil(FRAME_NS));
    assert_eq!(report.longest_frame_gap_ms, ms(FRAME_NS));
}

/// `tf.time`'s kernel time is the device clock's advance over the window's
/// dispatches; the pipeline drain a blocking read inside it pays goes on the
/// timeline only.
#[test]
fn tf_time_reports_kernel_time_without_the_drain() {
    let (e, backend) = webgl_on_iris();
    let x = e.rand_uniform([64, 64], -1.0, 1.0, 1).unwrap();
    let (start, kernel_start) = (backend.context().timeline_ns(), kernel_ns(&backend));
    let (vals, info) = e.time(|| ops::matmul(&x, &x, false, false).unwrap().data_sync());
    let dispatched = kernel_ns(&backend) - kernel_start;
    assert_eq!(vals.unwrap().len(), 64 * 64);
    assert!(dispatched > 0);
    assert_eq!(info.kernel_ms, ms(dispatched));
    assert_eq!(backend.queue_stats().drains, 1, "the read inside the window drained");
    assert_eq!(backend.context().timeline_ns() - start, dispatched + drain_ns());
}

#[test]
fn async_data_can_be_polled_like_a_promise() {
    let e = webgl_engine();
    let y = heavy_chain(&e, 128, 4);
    let future = y.data().unwrap();
    // Poll until resolution, doing "other main-thread work" in between.
    let mut polls = 0;
    let data = loop {
        if let Some(result) = future.poll() {
            break result.unwrap();
        }
        polls += 1;
        std::thread::sleep(Duration::from_micros(200));
    };
    assert_eq!(data.len(), 128 * 128);
    let _ = polls; // may be zero on very fast machines; correctness only
}

#[test]
fn f16_device_adjusts_epsilon_and_underflows() {
    // Sec 4.1.3: on iOS-class devices log(x + 1e-8) becomes log(x); the
    // library-wide epsilon is raised to 1e-4 on such devices.
    let e = Engine::new();
    let ios = WebGlBackend::new(DeviceProfile::ios_safari(), WebGlConfig::default()).unwrap();
    e.register_backend("webgl", Arc::new(ios), 2);
    assert_eq!(e.epsilon(), 1e-4);
    assert_eq!(e.backend().float_precision(), 16);

    let x = e.tensor_1d(&[0.0]).unwrap();
    let bad_eps = e.scalar(1e-8).unwrap();
    let y = ops::log(&ops::add(&x, &bad_eps).unwrap()).unwrap();
    assert!(y.to_f32_vec().unwrap()[0].is_infinite());

    let good_eps = e.scalar(e.epsilon()).unwrap();
    let z = ops::log(&ops::add(&x, &good_eps).unwrap()).unwrap();
    assert!(z.to_f32_vec().unwrap()[0].is_finite());
}

#[test]
fn f32_device_keeps_default_epsilon() {
    let e = webgl_engine();
    assert_eq!(e.epsilon(), 1e-7);
    assert_eq!(e.backend().float_precision(), 32);
}

#[test]
fn f16_values_round_through_half_precision() {
    let e = Engine::new();
    let ios = WebGlBackend::new(DeviceProfile::ios_safari(), WebGlConfig::default()).unwrap();
    e.register_backend("webgl", Arc::new(ios), 2);
    // 0.1 is inexact in binary16: the stored value differs from f32's 0.1.
    let t = e.tensor_1d(&[0.1]).unwrap();
    let v = t.to_f32_vec().unwrap()[0];
    assert_ne!(v, 0.1f32);
    assert!((v - 0.1).abs() < 1e-4);
}

#[test]
fn unsupported_device_falls_back_to_cpu_pattern() {
    // Sec 4.1.3 / 3.1: devices without float-texture support cannot run the
    // WebGL backend; the engine keeps working on the CPU fallback.
    let legacy = WebGlBackend::new(DeviceProfile::android_legacy(), WebGlConfig::default());
    assert!(legacy.is_err(), "legacy Android must be rejected");
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(webml::core::cpu::CpuBackend::new()), 1);
    if let Ok(b) = WebGlBackend::new(DeviceProfile::android_legacy(), WebGlConfig::default()) {
        e.register_backend("webgl", Arc::new(b), 2);
    }
    // webgl absent; cpu serves.
    assert_eq!(e.backend_name(), "cpu");
    let t = e.tensor_1d(&[1.0, 2.0]).unwrap();
    assert_eq!(ops::add(&t, &t).unwrap().to_f32_vec().unwrap(), vec![2.0, 4.0]);
}
