//! # WebML
//!
//! A Rust reproduction of *TensorFlow.js: Machine Learning for the Web and
//! Beyond* (Smilkov et al., SysML 2019): an eager tensor engine with
//! automatic differentiation, a Keras-style Layers API, a model converter,
//! a pretrained-style models repo — and, underneath, a faithful software
//! simulation of the browser GPGPU execution model the paper repurposes for
//! numeric computing: one device core ([`webgl_sim`]) that a capability
//! descriptor turns into WebGL or into the WebGPU-class compute API of the
//! paper's Sec 4.3 ([`webgpu_sim`]), and one GPU backend
//! ([`backend_webgl::GpuBackend`]) over a kernel match per API.
//!
//! ## Backends
//!
//! [`init`] registers five backends on the global engine, mirroring
//! Figure 1 of the paper plus the compute-API future work of Sec 4.3:
//!
//! | name       | analogue                           | priority |
//! |------------|------------------------------------|----------|
//! | `plainjs`  | interpreted plain-JS CPU baseline  | 0        |
//! | `cpu`      | bundled reference CPU fallback     | 1        |
//! | `webgl`    | WebGL fragment-shader GPGPU        | 2        |
//! | `webgpu`   | WebGPU compute-shader GPGPU        | 3        |
//! | `native`   | Node.js binding to TensorFlow C    | 4        |
//!
//! The highest-priority registered backend is the default, as in
//! TensorFlow.js; switch with [`Engine::set_backend`]. The `webgpu` rung is
//! only registered when the device profile exposes a WebGPU-class compute
//! API ([`webml_webgl_sim::devices::DeviceProfile::has_webgpu`]); in the
//! browser-side degradation ladder a lost webgpu device falls back to
//! webgl, then cpu (`webgpu → webgl → cpu`), and
//! [`Engine::promote_backend`] climbs back after canary re-admission. The
//! two GPU rows are the same backend type on two rungs
//! ([`backend_webgl::WebGl`], [`backend_webgpu::WebGpu`]), and the three
//! host rows are the same backend type ([`core::host::HostBackend`]: store,
//! kernel timer, thread pool, free list, one `run`) over three kernel sets
//! ([`backend_cpu::PlainJs`], [`core::cpu::Reference`],
//! [`backend_native::Native`]).
//!
//! ## Quickstart (Listing 1 of the paper)
//!
//! ```
//! use webml::prelude::*;
//!
//! # fn main() -> webml::Result<()> {
//! let engine = webml::init();
//! let mut model = Sequential::new(&engine);
//! model.add(Dense::new(1).with_input_dim(1));
//! model.compile(Loss::MeanSquaredError, Box::new(Sgd::new(0.1)));
//! let xs = engine.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 4, 1)?;
//! let ys = engine.tensor_2d(&[1.0, 3.0, 5.0, 7.0], 4, 1)?;
//! model.fit(&xs, &ys, FitConfig { epochs: 100, batch_size: 4, ..Default::default() })?;
//! let pred = model.predict(&engine.tensor_2d(&[5.0], 1, 1)?)?;
//! assert!((pred.to_scalar()? - 9.0).abs() < 0.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use webml_backend_cpu as backend_cpu;
pub use webml_backend_native as backend_native;
pub use webml_backend_webgl as backend_webgl;
pub use webml_backend_webgpu as backend_webgpu;
pub use webml_converter as converter;
pub use webml_core as core;
pub use webml_data as data;
pub use webml_layers as layers;
pub use webml_models as models;
pub use webml_serve as serve;
pub use webml_telemetry as telemetry;
pub use webml_webgl_sim as webgl_sim;
pub use webml_webgpu_sim as webgpu_sim;

pub use webml_core::{
    ops, DType, DegradationEvent, Engine, Error, MemoryPolicy, Result, Shape, Tensor, TensorData,
    Variable,
};
pub use webml_webgl_sim::{ContextLossEvent, FaultPlan};

use std::sync::Arc;
use std::sync::OnceLock;
use webml_backend_cpu::PlainJsBackend;
use webml_backend_native::NativeBackend;
use webml_backend_webgl::{WebGlBackend, WebGlConfig};
use webml_backend_webgpu::WebGpuBackend;
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::pager::PagingPolicy;
use webml_webgpu_sim::WebGpuConfig;

/// Commonly used items, for `use webml::prelude::*`.
pub mod prelude {
    pub use webml_core::{ops, DType, Engine, Shape, Tensor, Variable};
    pub use webml_layers::{
        Activation, Adam, Conv2D, Dense, DepthwiseConv2D, Dropout, FitConfig, Flatten,
        GlobalAveragePooling2D, Loss, MaxPooling2D, Metric, Momentum, RmsProp, Sequential, Sgd,
    };
    pub use webml_models::{Image, KnnClassifier, MobileNet, MobileNetConfig, PoseNet};
}

static INITED: OnceLock<Engine> = OnceLock::new();

/// Create a *fresh, private* engine with all five backends registered —
/// unlike [`init`], nothing is shared. Useful for tests and for embedding
/// several independent engines in one process. The `webgpu` rung is only
/// registered when the device profile supports it.
pub fn new_engine() -> Engine {
    new_engine_on(DeviceProfile::intel_iris_pro())
}

/// [`new_engine`] on a specific device profile: GPU-class backends that the
/// profile cannot host (no WebGL context, no WebGPU compute API) are simply
/// not registered, so the degradation ladder is exactly what the device
/// supports — this is how fleet placement avoids offering `webgpu` on
/// older iOS/Android profiles.
pub fn new_engine_on(profile: DeviceProfile) -> Engine {
    let engine = Engine::new();
    engine.register_backend("cpu", Arc::new(webml_core::cpu::CpuBackend::new()), 1);
    engine.register_backend("plainjs", Arc::new(PlainJsBackend::new()), 0);
    if let Ok(webgl) = WebGlBackend::new(profile.clone(), WebGlConfig::default()) {
        engine.register_backend("webgl", Arc::new(webgl), 2);
    }
    if let Ok(webgpu) = WebGpuBackend::new(profile, WebGpuConfig::default()) {
        engine.register_backend("webgpu", Arc::new(webgpu), 3);
    }
    engine.register_backend("native", Arc::new(NativeBackend::new()), 4);
    engine
}

/// Create a fresh, private engine whose `webgl` backend injects faults
/// according to `plan`, with the reference `cpu` backend registered below
/// it as the degradation target. The `webgl` backend is the default, so
/// kernels hit the faulty device first and the engine's graceful
/// degradation (retry, then fall back down the priority chain) can be
/// observed via [`Engine::degradations`] and `Engine::memory()`.
pub fn new_engine_with_faults(plan: FaultPlan) -> Engine {
    let engine = Engine::new();
    engine.register_backend("cpu", Arc::new(webml_core::cpu::CpuBackend::new()), 1);
    if let Ok(webgl) =
        WebGlBackend::with_faults(DeviceProfile::intel_iris_pro(), WebGlConfig::default(), plan)
    {
        engine.register_backend("webgl", Arc::new(webgl), 2);
    }
    engine
}

/// Create a fresh, private engine whose `webgpu` backend injects faults
/// according to `plan`, with healthy `webgl` and reference `cpu` backends
/// registered below it — the full three-rung degradation ladder
/// `webgpu → webgl → cpu`. The faulty `webgpu` backend is the default, so
/// a seeded device loss walks the ladder exactly as a browser losing its
/// WebGPU device would, with no caller-visible errors. Both substrates
/// share one seedable [`FaultPlan`] vocabulary, so the same soak seed can
/// drive either rung.
pub fn new_engine_with_webgpu_faults(plan: FaultPlan) -> Engine {
    let engine = Engine::new();
    engine.register_backend("cpu", Arc::new(webml_core::cpu::CpuBackend::new()), 1);
    if let Ok(webgl) = WebGlBackend::new(DeviceProfile::intel_iris_pro(), WebGlConfig::default()) {
        engine.register_backend("webgl", Arc::new(webgl), 2);
    }
    if let Ok(webgpu) =
        WebGpuBackend::with_faults(DeviceProfile::intel_iris_pro(), WebGpuConfig::default(), plan)
    {
        engine.register_backend("webgpu", Arc::new(webgpu), 3);
    }
    engine
}

/// Initialize the global engine with every backend registered (idempotent)
/// and return it. The `native` backend becomes the default.
pub fn init() -> Engine {
    INITED
        .get_or_init(|| {
            let engine = webml_core::global::engine();
            engine.register_backend("plainjs", Arc::new(PlainJsBackend::new()), 0);
            let config =
                WebGlConfig { paging: PagingPolicy::from_screen(1920, 1080), ..Default::default() };
            if let Ok(webgl) = WebGlBackend::new(DeviceProfile::intel_iris_pro(), config) {
                engine.register_backend("webgl", Arc::new(webgl), 2);
            }
            if let Ok(webgpu) =
                WebGpuBackend::new(DeviceProfile::intel_iris_pro(), WebGpuConfig::default())
            {
                engine.register_backend("webgpu", Arc::new(webgpu), 3);
            }
            engine.register_backend("native", Arc::new(NativeBackend::new()), 4);
            engine
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_registers_all_backends_with_native_default() {
        let e = init();
        let names = e.backend_names();
        for expected in ["cpu", "plainjs", "webgl", "webgpu", "native"] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        // Highest priority wins.
        assert_eq!(e.backend_name(), "native");
        // Idempotent.
        let e2 = init();
        assert_eq!(e, e2);
    }

    #[test]
    fn webgpu_rung_follows_device_profile_support() {
        let modern = new_engine_on(DeviceProfile::intel_iris_pro());
        let ladder = modern.backend_ladder();
        assert_eq!(
            ladder.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["native", "webgpu", "webgl", "cpu", "plainjs"],
        );
        // Profiles without a WebGPU-class compute API never get the rung,
        // so fleet placement cannot route webgpu work to them.
        let legacy = new_engine_on(DeviceProfile::ios_safari());
        assert!(!legacy.backend_names().contains(&"webgpu".to_string()));
        assert!(legacy.backend_names().contains(&"webgl".to_string()));
    }

    #[test]
    fn seeded_webgpu_loss_degrades_to_webgl_without_caller_errors() {
        let e = new_engine_with_webgpu_faults(FaultPlan::from_seed(7).lose_context_at(1));
        assert_eq!(e.backend_name(), "webgpu");
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let b = e.tensor_2d(&[5.0, 6.0, 7.0, 8.0], 2, 2).unwrap();
        // The first dispatch loses the webgpu device; the engine must land
        // the kernel on the webgl rung with no error surfaced to us.
        let c = ops::matmul(&a, &b, false, false).unwrap();
        assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
        assert_eq!(e.backend_name(), "webgl");
        let events = e.degradation_events();
        assert!(!events.is_empty());
        assert_eq!(events[0].from_backend, "webgpu");
        assert_eq!(events[0].to_backend, "webgl");
    }

    #[test]
    fn ops_run_on_every_backend() {
        // A private engine: switching backends on the shared `init()` engine
        // raced with the default-backend assertion in the test above.
        let e = new_engine();
        let original = e.backend_name();
        for name in ["plainjs", "cpu", "webgl", "webgpu", "native"] {
            e.set_backend(name).unwrap();
            let a = e.tensor_1d(&[1.0, 2.0]).unwrap();
            let b = e.tensor_1d(&[3.0, 4.0]).unwrap();
            let c = ops::add(&a, &b).unwrap();
            assert_eq!(c.to_f32_vec().unwrap(), vec![4.0, 6.0], "backend {name}");
            a.dispose();
            b.dispose();
            c.dispose();
        }
        e.set_backend(&original).unwrap();
    }

    /// A fence token knows its device: after `webgpu → webgl`, a token the
    /// webgpu context minted must read as passed instead of parking the
    /// caller on webgl's condvar behind a sequence number webgl never
    /// reaches — which is the wait the serve dispatcher's `complete_run`
    /// does.
    #[test]
    fn fence_tokens_survive_a_rung_change() {
        use std::time::{Duration, Instant};
        let e = new_engine_with_webgpu_faults(FaultPlan::none().lose_context_at(6));
        let x = e.tensor_1d(&[1.0, 2.0]).unwrap();
        let mut token = None;
        for _ in 0..5 {
            ops::square(&x).unwrap();
            token = e.submit_fence();
        }
        assert_eq!(e.backend_name(), "webgpu");
        // The sixth dispatch loses the device; the ladder lands on webgl.
        assert_eq!(ops::square(&x).unwrap().to_f32_vec().unwrap(), vec![1.0, 4.0]);
        assert_eq!(e.backend_name(), "webgl");
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = e.clone();
        let watchdog = std::thread::spawn(move || {
            waiter.wait_fence(token);
            tx.send(waiter.fence_passed(token)).unwrap();
        });
        let passed = rx.recv_timeout(Duration::from_secs(2));
        assert_eq!(passed, Ok(true), "wait_fence on a foreign token must return");
        watchdog.join().unwrap();

        // The same through a pipelined run submitted on webgpu and
        // completed after the ladder moved.
        let spec = models::graph_mlp(8, &[16, 16], 4, 33);
        let (vals, shape) = spec.example(1, 0);
        let cpu = new_engine();
        cpu.set_backend("cpu").unwrap();
        let x = cpu.tensor(vals.clone(), Shape::new(shape.clone())).unwrap();
        let want = spec.build(&cpu).unwrap().execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
        let e = new_engine_with_webgpu_faults(FaultPlan::none().lose_context_at(60));
        let model = spec.build(&e).unwrap();
        let x = e.tensor(vals, Shape::new(shape)).unwrap();
        let pending = model.execute_pipelined(&[(&spec.input, &x)], &[&spec.output]).unwrap();
        assert_eq!(e.backend_name(), "webgpu", "submitted before the loss");
        for _ in 0..60 {
            ops::square(&x).unwrap();
        }
        assert_eq!(e.backend_name(), "webgl");
        let deadline = Instant::now() + Duration::from_secs(2);
        while !pending.is_done(&e) {
            assert!(Instant::now() < deadline, "is_done never turned true");
            std::thread::yield_now();
        }
        let got = pending.wait().unwrap();
        assert_eq!(got[0].to_f32_vec(), want[0].to_f32_vec().unwrap());
    }
}
