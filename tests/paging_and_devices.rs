//! Paging under memory pressure (paper Sec 4.1.2: a leaky loop must not
//! crash — textures page to the CPU past the threshold), the device
//! support statistics of Sec 4.1.3, and the priced device clock.

#![allow(clippy::field_reassign_with_default)] // ablations toggle single config fields

use std::sync::Arc;
use webml::backend_webgl::{WebGlBackend, WebGlConfig};
use webml::backend_webgpu::WebGpuBackend;
use webml::core::backend::Backend;
use webml::models::{Image, MobileNet, MobileNetConfig};
use webml::webgl_sim::devices::{self, DeviceProfile, Platform};
use webml::webgl_sim::pager::PagingPolicy;
use webml::{ops, Engine};

fn paged_engine(threshold_bytes: usize) -> Engine {
    let e = Engine::new();
    let mut config = WebGlConfig::default();
    config.paging = PagingPolicy { enabled: true, threshold_bytes };
    let backend = WebGlBackend::new(DeviceProfile::intel_iris_pro(), config).unwrap();
    e.register_backend("webgl", Arc::new(backend), 2);
    e
}

fn gauge(e: &Engine, key: &str) -> f64 {
    e.memory().backend.details.iter().find(|(k, _)| k == key).map(|(_, v)| *v).unwrap_or(0.0)
}

#[test]
fn leaky_loop_pages_instead_of_crashing() {
    // "a program with a loop creates one or more tensors during each tick
    // that never get disposed" — with paging on, GPU memory stays bounded.
    let e = paged_engine(128 * 1024);
    let mut results = Vec::new();
    for i in 0..48 {
        // Never disposed: a leak.
        let t = e.fill([4096], i as f32, webml::DType::F32).unwrap();
        results.push(t);
    }
    // ~768 KB allocated against a 128 KB budget: paging must have kicked in.
    assert!(gauge(&e, "page_outs") > 0.0, "no page-outs recorded");
    assert!(
        gauge(&e, "bytes_in_gpu") <= 256.0 * 1024.0,
        "GPU bytes stayed near the threshold, got {}",
        gauge(&e, "bytes_in_gpu")
    );
    // Every tensor — paged or resident — still reads back correctly.
    assert_eq!(results[0].to_f32_vec().unwrap()[0], 0.0);
    assert_eq!(results[47].to_f32_vec().unwrap()[0], 47.0);
    assert_eq!(results[13].to_f32_vec().unwrap()[0], 13.0);
}

#[test]
fn paged_tensors_can_be_computed_with() {
    let e = paged_engine(64 * 1024);
    let first = e.fill([4096], 7.0, webml::DType::F32).unwrap();
    for _ in 0..24 {
        let _leak = e.fill([4096], 0.0, webml::DType::F32).unwrap();
    }
    // `first` was LRU-evicted; using it pages it back in.
    let doubled = ops::add(&first, &first).unwrap();
    assert_eq!(doubled.to_f32_vec().unwrap()[0], 14.0);
    assert!(gauge(&e, "page_ins") > 0.0);
}

#[test]
fn paging_disabled_lets_gpu_grow() {
    let e = Engine::new();
    let backend =
        WebGlBackend::new(DeviceProfile::intel_iris_pro(), WebGlConfig::default()).unwrap();
    e.register_backend("webgl", Arc::new(backend), 2);
    for _ in 0..16 {
        let _t = e.fill([4096], 1.0, webml::DType::F32).unwrap();
    }
    assert_eq!(gauge(&e, "page_outs"), 0.0);
    assert!(gauge(&e, "bytes_in_gpu") >= 16.0 * 4096.0 * 4.0);
}

#[test]
fn device_support_statistics_match_paper() {
    // Sec 4.1.3: 99% of desktop, 98% of iOS/Windows mobile, 52% of Android.
    let desktop = devices::coverage(Platform::Desktop);
    let ios = devices::coverage(Platform::IosAndWindowsMobile);
    let android = devices::coverage(Platform::Android);
    assert!((desktop - 0.99).abs() < 0.005, "desktop {desktop}");
    assert!((ios - 0.98).abs() < 0.005, "ios {ios}");
    assert!((android - 0.52).abs() < 0.005, "android {android}");
}

#[test]
fn fences_pass_in_order() {
    let e = paged_engine(usize::MAX);
    e.set_backend("webgl").unwrap();
    let a = e.rand_uniform([64, 64], -1.0, 1.0, 1).unwrap();
    let _y = ops::matmul(&a, &a, false, false).unwrap();
    // The fence lives behind the backend; flush via a read and confirm the
    // queued work completed in order (no error = fences consistent).
    let z = ops::matmul(&a, &a, false, true).unwrap();
    let v = z.to_f32_vec().unwrap();
    assert_eq!(v.len(), 64 * 64);
}

/// The device-timer nanoseconds of one tiny MobileNet inference on a fresh
/// engine over `backend`, readback included.
fn priced_pass(backend: Arc<dyn Backend>) -> u64 {
    let e = Engine::new();
    e.register_backend("gpu", backend.clone(), 1);
    let config =
        MobileNetConfig { alpha: 0.25, input_size: 48, classes: 10, batch_norm: false, seed: 1 };
    let mut net = MobileNet::new(&e, config).unwrap();
    let input = Image::synthetic_person(48, 48).to_normalized_tensor(&e, 48).unwrap();
    let before = backend.device_timer_ns().unwrap();
    net.infer(&input).unwrap().data_sync().unwrap();
    backend.device_timer_ns().unwrap() - before
}

/// Device time is priced from the work each program declares, not read
/// from the host: the same pass costs the same nanoseconds on either rung
/// whether it runs alone or beside another thread running it too.
#[test]
fn device_time_is_priced_not_measured() {
    let webgl = || -> Arc<dyn Backend> {
        Arc::new(WebGlBackend::new(DeviceProfile::intel_iris_pro(), Default::default()).unwrap())
    };
    let webgpu = || -> Arc<dyn Backend> {
        Arc::new(WebGpuBackend::new(DeviceProfile::intel_iris_pro(), Default::default()).unwrap())
    };
    for make in [webgl as fn() -> _, webgpu] {
        let alone = priced_pass(make());
        assert!(alone > 0);
        let (loaded, beside) = std::thread::scope(|s| {
            let beside = s.spawn(|| priced_pass(make()));
            (priced_pass(make()), beside.join().unwrap())
        });
        assert_eq!((loaded, beside), (alone, alone));
    }
}
