//! Memory-management semantics (paper Sec 3.7 and 4.1.2): manual
//! dispose/tidy under browser semantics, finalization under Node semantics,
//! refcounted data sharing, texture recycling, and the keep escape hatch.

use std::sync::{Arc, Mutex};
use webml::backend_webgpu::WebGpuBackend;
use webml::core::backend::{Backend, BackendMemory, DataFuture, DataId, KTensor, KernelCall};
use webml::core::quant::QuantParams;
use webml::webgl_sim::devices::DeviceProfile;
use webml::webgpu_sim::WebGpuConfig;
use webml::{ops, DType, Engine, MemoryPolicy, Result, Shape, TensorData};

#[test]
fn forgetting_dispose_leaks_like_a_browser() {
    // Under the Manual policy (browser), dropping handles does NOT free.
    let e = webml::new_engine();
    e.set_backend("webgl").unwrap();
    let before = e.memory().num_bytes;
    for _ in 0..10 {
        let t = e.tensor_1d(&[0.0; 256]).unwrap();
        let _sq = ops::square(&t).unwrap();
        // Both handles dropped here without dispose.
    }
    let after = e.memory().num_bytes;
    assert_eq!(after - before, 20 * 256 * 4, "every undisposed tensor leaks");
}

#[test]
fn tidy_disposes_intermediates_keeps_result() {
    let e = webml::new_engine();
    e.set_backend("webgl").unwrap();
    let baseline = e.num_tensors();
    let result = e.tidy(|| {
        let a = e.tensor_1d(&[1.0, 2.0]).unwrap();
        let b = ops::square(&a).unwrap();
        let c = ops::add(&a, &b).unwrap();
        let _unused = ops::exp(&c).unwrap();
        c
    });
    assert_eq!(e.num_tensors(), baseline + 1, "only the returned tensor survives");
    assert_eq!(result.to_f32_vec().unwrap(), vec![2.0, 6.0]);
    result.dispose();
    assert_eq!(e.num_tensors(), baseline);
}

#[test]
fn nested_tidy_moves_kept_to_parent() {
    let e = webml::new_engine();
    let baseline = e.num_tensors();
    e.tidy(|| {
        let inner = e.tidy(|| {
            let a = e.tensor_1d(&[1.0]).unwrap();
            ops::square(&a).unwrap()
        });
        // Inner result alive inside the outer scope.
        assert!(!inner.is_disposed());
        // Returning nothing from the outer tidy.
    });
    assert_eq!(e.num_tensors(), baseline, "outer tidy reclaims the inner result");
}

#[test]
fn keep_survives_tidy() {
    let e = webml::new_engine();
    let baseline = e.num_tensors();
    let mut kept_id = 0;
    e.tidy(|| {
        let a = e.tensor_1d(&[5.0]).unwrap();
        a.keep();
        kept_id = a.id();
    });
    assert_eq!(e.num_tensors(), baseline + 1);
    e.dispose_tensor(kept_id);
    assert_eq!(e.num_tensors(), baseline);
}

#[test]
fn dispose_is_idempotent_and_reads_fail_after() {
    let e = webml::new_engine();
    let a = e.tensor_1d(&[1.0]).unwrap();
    a.dispose();
    a.dispose();
    assert!(a.is_disposed());
    assert!(a.data_sync().is_err());
    assert!(ops::square(&a).is_err(), "ops on disposed tensors error");
}

#[test]
fn reshape_shares_data_and_refcounts() {
    let e = webml::new_engine();
    let a = e.tensor_1d(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    let b = ops::reshape(&a, [2, 2]).unwrap();
    let c = ops::reshape(&b, [4, 1]).unwrap();
    let m = e.memory();
    assert_eq!(m.num_tensors, 3);
    assert_eq!(m.num_data_buffers, 1, "three views over one container");
    a.dispose();
    b.dispose();
    assert_eq!(c.to_f32_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    c.dispose();
    assert_eq!(e.memory().num_data_buffers, 0);
}

#[test]
fn finalized_policy_frees_on_drop() {
    let e = webml::new_engine();
    e.set_memory_policy(MemoryPolicy::Finalized);
    {
        let a = e.tensor_1d(&[1.0; 100]).unwrap();
        let _b = ops::exp(&a).unwrap();
    }
    assert_eq!(e.num_tensors(), 0, "Node-style finalization reclaims dropped handles");
}

#[test]
fn profile_reports_new_tensors_and_peak(){
    let e = webml::new_engine();
    let ((), info) = e.profile(|| {
        e.tidy(|| {
            let a = e.tensor_1d(&[0.0; 1024]).unwrap();
            let _b = ops::square(&a).unwrap();
            let _c = ops::exp(&a).unwrap();
        });
    });
    assert_eq!(info.new_tensors, 3);
    assert_eq!(info.new_bytes, 3 * 1024 * 4);
    assert!(info.peak_bytes >= 3 * 1024 * 4);
    assert!(info.kernels.iter().any(|k| k.name == "Square"));
    assert!(info.kernels.iter().any(|k| k.name == "Exp"));
}

#[test]
fn time_reports_kernel_time() {
    let e = webml::new_engine();
    e.set_backend("webgl").unwrap();
    let a = e.rand_uniform([64, 64], -1.0, 1.0, 1).unwrap();
    let (y, t) = e.time(|| ops::matmul(&a, &a, false, false).unwrap());
    let _ = y.to_f32_vec().unwrap();
    assert!(t.wall_ms >= 0.0);
    // Kernel (device) time is measured by the disjoint timer query.
    assert!(t.kernel_ms > 0.0);
}

#[test]
fn webgl_texture_recycling_hits_on_repeated_shapes() {
    // Sec 4.1.2: "multiple passes through the same ML model often generate
    // tensors of the same shapes" — the recycler turns those into hits.
    let e = webml::new_engine();
    e.set_backend("webgl").unwrap();
    let x = e.rand_uniform([32, 32], -1.0, 1.0, 1).unwrap();
    let pass = || {
        e.tidy(|| {
            let y = ops::matmul(&x, &x, false, false).unwrap();
            let z = ops::relu(&y).unwrap();
            let _ = z.data_sync().unwrap();
        })
    };
    pass();
    let before: f64 = e
        .memory()
        .backend
        .details
        .iter()
        .find(|(k, _)| k == "recycler_hits")
        .map(|(_, v)| *v)
        .unwrap();
    for _ in 0..3 {
        pass();
    }
    let after: f64 = e
        .memory()
        .backend
        .details
        .iter()
        .find(|(k, _)| k == "recycler_hits")
        .map(|(_, v)| *v)
        .unwrap();
    assert!(after >= before + 6.0, "3 passes x 2 same-shape textures: {before} -> {after}");
}

#[test]
fn nan_debug_mode_names_offending_kernel() {
    // Paper Sec 3.8: "throwing an exception at the first line a NaN is
    // introduced, showing model developers which operation is the source".
    let e = webml::new_engine();
    e.set_debug(true);
    let a = e.tensor_1d(&[-1.0]).unwrap();
    let sq = ops::sqrt(&a); // sqrt(-1) = NaN
    match sq {
        Err(webml::Error::NanDetected { kernel }) => assert_eq!(kernel, "Sqrt"),
        other => panic!("expected NanDetected, got {other:?}"),
    }
    // Healthy ops pass.
    let b = e.tensor_1d(&[4.0]).unwrap();
    assert_eq!(ops::sqrt(&b).unwrap().to_f32_vec().unwrap(), vec![2.0]);
    e.set_debug(false);
}

/// A backend that notes where each buffer handed to `register` lives, then
/// hands it on.
struct Seen {
    inner: WebGpuBackend,
    at: Mutex<Vec<usize>>,
}

impl Backend for Seen {
    fn register(&self, data: TensorData, dtype: DType) -> DataId {
        let at = match &data {
            TensorData::F32(v) => v.as_ptr() as usize,
            TensorData::I32(v) => v.as_ptr() as usize,
            TensorData::U8(v) => v.as_ptr() as usize,
        };
        self.at.lock().unwrap().push(at);
        self.inner.register(data, dtype)
    }
    fn read_sync(&self, id: DataId) -> Result<TensorData> {
        self.inner.read_sync(id)
    }
    fn read(&self, id: DataId) -> DataFuture {
        self.inner.read(id)
    }
    fn dispose_data(&self, id: DataId) {
        self.inner.dispose_data(id)
    }
    fn memory(&self) -> BackendMemory {
        self.inner.memory()
    }
    fn run(&self, call: &KernelCall<'_>, operands: &[KTensor<'_>]) -> Result<DataId> {
        self.inner.run(call, operands)
    }
}

/// Creating a tensor moves its buffer to the backend when the buffer is
/// already stored as the tensor's dtype: f32 values on the GPU rung and the
/// U8 codes of a quantized tensor arrive where they were made. Bool data
/// is still normalised to 0/1 on the way.
#[test]
fn tensor_creation_moves_its_buffer_to_the_backend() {
    let gpu = WebGpuBackend::new(DeviceProfile::intel_iris_pro(), WebGpuConfig::default()).unwrap();
    let seen = Arc::new(Seen { inner: gpu, at: Mutex::default() });
    let e = Engine::new();
    e.register_backend("webgpu", seen.clone(), 2);
    let values = vec![0.5f32; 64];
    let codes = vec![3u8; 64];
    let made = [values.as_ptr() as usize, codes.as_ptr() as usize];
    let t = e.tensor(values, vec![64]).unwrap();
    let params = QuantParams::per_channel(1, vec![0.5; 8], vec![-1.0; 8]);
    let q = e.quantized_tensor(codes, vec![8, 8], params).unwrap();
    assert_eq!(*seen.at.lock().unwrap(), made);
    assert_eq!(t.to_f32_vec().unwrap(), vec![0.5; 64]);
    assert_eq!(q.data_sync().unwrap(), TensorData::U8(vec![3; 64]));
    let flags = TensorData::U8(vec![7, 0, 1]);
    let b = e.make_tensor(flags, Shape::new(vec![3]), DType::Bool).unwrap();
    assert_eq!(b.to_f32_vec().unwrap(), vec![1.0, 0.0, 1.0]);
}
