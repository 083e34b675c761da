//! Tensor creation ops, exposed as methods on [`Engine`] (the analogue of
//! `tf.tensor`, `tf.zeros`, `tf.randomNormal`, ...).

use crate::backend::KernelCall;
use crate::dtype::{DType, TensorData};
use crate::engine::Engine;
use crate::error::{Error, Result};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

impl Engine {
    /// Create a tensor from values and an explicit shape.
    ///
    /// # Errors
    /// Fails when `values.len() != shape.size()`.
    pub fn tensor(&self, values: impl Into<TensorData>, shape: impl Into<Shape>) -> Result<Tensor> {
        let data = values.into();
        let dtype = match &data {
            TensorData::F32(_) => DType::F32,
            TensorData::I32(_) => DType::I32,
            TensorData::U8(_) => DType::U8,
        };
        self.make_tensor(data, shape.into(), dtype)
    }

    /// Create a tensor with an explicit dtype.
    ///
    /// # Errors
    /// Fails when `values.len() != shape.size()`.
    pub fn tensor_with_dtype(
        &self,
        values: impl Into<TensorData>,
        shape: impl Into<Shape>,
        dtype: DType,
    ) -> Result<Tensor> {
        self.make_tensor(values.into(), shape.into(), dtype)
    }

    /// Create a rank-0 tensor.
    ///
    /// # Errors
    /// Never fails in practice; returns `Result` for API uniformity.
    pub fn scalar(&self, value: f32) -> Result<Tensor> {
        self.make_tensor(TensorData::F32(vec![value]), Shape::scalar(), DType::F32)
    }

    /// Create a rank-1 tensor from values.
    ///
    /// # Errors
    /// Never fails in practice.
    pub fn tensor_1d(&self, values: &[f32]) -> Result<Tensor> {
        self.make_tensor(TensorData::F32(values.to_vec()), Shape::new(vec![values.len()]), DType::F32)
    }

    /// Create a rank-2 tensor (`tf.tensor2d(values, [rows, cols])`).
    ///
    /// # Errors
    /// Fails when `values.len() != rows * cols`.
    pub fn tensor_2d(&self, values: &[f32], rows: usize, cols: usize) -> Result<Tensor> {
        self.make_tensor(TensorData::F32(values.to_vec()), Shape::new(vec![rows, cols]), DType::F32)
    }

    /// Create a rank-3 tensor.
    ///
    /// # Errors
    /// Fails when the element count does not match.
    pub fn tensor_3d(&self, values: &[f32], d0: usize, d1: usize, d2: usize) -> Result<Tensor> {
        self.make_tensor(TensorData::F32(values.to_vec()), Shape::new(vec![d0, d1, d2]), DType::F32)
    }

    /// Create a rank-4 tensor.
    ///
    /// # Errors
    /// Fails when the element count does not match.
    pub fn tensor_4d(
        &self,
        values: &[f32],
        d0: usize,
        d1: usize,
        d2: usize,
        d3: usize,
    ) -> Result<Tensor> {
        self.make_tensor(
            TensorData::F32(values.to_vec()),
            Shape::new(vec![d0, d1, d2, d3]),
            DType::F32,
        )
    }

    /// Zero-filled tensor.
    ///
    /// # Errors
    /// Never fails in practice.
    pub fn zeros(&self, shape: impl Into<Shape>, dtype: DType) -> Result<Tensor> {
        let shape = shape.into();
        self.make_tensor(TensorData::zeros(dtype, shape.size()), shape, dtype)
    }

    /// One-filled tensor.
    ///
    /// # Errors
    /// Never fails in practice.
    pub fn ones(&self, shape: impl Into<Shape>, dtype: DType) -> Result<Tensor> {
        self.fill(shape, 1.0, dtype)
    }

    /// Tensor filled with `value`.
    ///
    /// # Errors
    /// Never fails in practice.
    pub fn fill(&self, shape: impl Into<Shape>, value: f32, dtype: DType) -> Result<Tensor> {
        let shape = shape.into();
        self.make_tensor(TensorData::F32(vec![value; shape.size()]), shape, dtype)
    }

    /// `num` evenly spaced values in `[start, stop]`.
    ///
    /// # Errors
    /// Fails when `num == 0`.
    pub fn linspace(&self, start: f32, stop: f32, num: usize) -> Result<Tensor> {
        if num == 0 {
            return Err(Error::invalid("linspace", "num must be positive"));
        }
        let step = if num == 1 { 0.0 } else { (stop - start) / (num - 1) as f32 };
        let vals: Vec<f32> = (0..num).map(|i| start + step * i as f32).collect();
        self.tensor_1d(&vals)
    }

    /// Integer range `[start, stop)` with `step`.
    ///
    /// # Errors
    /// Fails when `step == 0`.
    pub fn range(&self, start: i32, stop: i32, step: i32) -> Result<Tensor> {
        if step == 0 {
            return Err(Error::invalid("range", "step must be nonzero"));
        }
        let mut vals = Vec::new();
        let mut v = start;
        while (step > 0 && v < stop) || (step < 0 && v > stop) {
            vals.push(v);
            v += step;
        }
        let n = vals.len();
        self.make_tensor(TensorData::I32(vals), Shape::new(vec![n]), DType::I32)
    }

    /// Identity matrix of size `n`.
    ///
    /// # Errors
    /// Never fails in practice.
    pub fn eye(&self, n: usize) -> Result<Tensor> {
        let mut vals = vec![0.0f32; n * n];
        for i in 0..n {
            vals[i * n + i] = 1.0;
        }
        self.make_tensor(TensorData::F32(vals), Shape::new(vec![n, n]), DType::F32)
    }

    /// Uniform random tensor in `[min, max)`, seeded for reproducibility.
    ///
    /// # Errors
    /// Fails when `min >= max`.
    pub fn rand_uniform(
        &self,
        shape: impl Into<Shape>,
        min: f32,
        max: f32,
        seed: u64,
    ) -> Result<Tensor> {
        if min >= max {
            return Err(Error::invalid("randUniform", "min must be < max"));
        }
        let shape = shape.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let vals: Vec<f32> = (0..shape.size()).map(|_| rng.gen::<f32>() * (max - min) + min).collect();
        self.make_tensor(TensorData::F32(vals), shape, DType::F32)
    }

    /// Normal random tensor (Box–Muller), seeded for reproducibility.
    ///
    /// # Errors
    /// Fails when `std < 0`.
    pub fn rand_normal(
        &self,
        shape: impl Into<Shape>,
        mean: f32,
        std: f32,
        seed: u64,
    ) -> Result<Tensor> {
        if std < 0.0 {
            return Err(Error::invalid("randNormal", "std must be non-negative"));
        }
        let shape = shape.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let vals = normal_values(&mut rng, shape.size(), mean, std, false);
        self.make_tensor(TensorData::F32(vals), shape, DType::F32)
    }

    /// Normal random tensor with samples beyond 2 std re-drawn
    /// (`tf.truncatedNormal`), the initializer default in Keras.
    ///
    /// # Errors
    /// Fails when `std < 0`.
    pub fn truncated_normal(
        &self,
        shape: impl Into<Shape>,
        mean: f32,
        std: f32,
        seed: u64,
    ) -> Result<Tensor> {
        if std < 0.0 {
            return Err(Error::invalid("truncatedNormal", "std must be non-negative"));
        }
        let shape = shape.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let vals = normal_values(&mut rng, shape.size(), mean, std, true);
        self.make_tensor(TensorData::F32(vals), shape, DType::F32)
    }

    /// One-hot encode `indices` (an I32 tensor) with a trailing `depth` dim.
    ///
    /// # Errors
    /// Fails when `indices` is disposed.
    pub fn one_hot(&self, indices: &Tensor, depth: usize) -> Result<Tensor> {
        self.run_kernel(&KernelCall::OneHot { depth, on: 1.0, off: 0.0 }, &[indices])
    }
}

/// Generate `n` normal samples; truncated resamples beyond 2 sigma.
fn normal_values(rng: &mut StdRng, n: usize, mean: f32, std: f32, truncated: bool) -> Vec<f32> {
    let mut vals = Vec::with_capacity(n);
    while vals.len() < n {
        // Box–Muller transform.
        let u1: f32 = rng.gen::<f32>().max(1e-12);
        let u2: f32 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        for z in [r * theta.cos(), r * theta.sin()] {
            if vals.len() < n && (!truncated || z.abs() <= 2.0) {
                vals.push(mean + std * z);
            }
        }
    }
    vals
}

#[cfg(test)]
mod tests {
    use super::super::testutil::test_engine;
    use crate::dtype::DType;
    use crate::shape::Shape;

    #[test]
    fn tensor_shape_validation() {
        let e = test_engine();
        assert!(e.tensor(vec![1.0f32, 2.0], [3]).is_err());
        let t = e.tensor(vec![1.0f32, 2.0], [2]).unwrap();
        assert_eq!(t.shape(), Shape::new(vec![2]));
    }

    #[test]
    fn zeros_and_ones() {
        let e = test_engine();
        let z = e.zeros([2, 2], DType::F32).unwrap();
        assert_eq!(z.to_f32_vec().unwrap(), vec![0.0; 4]);
        let o = e.ones([3], DType::I32).unwrap();
        assert_eq!(o.to_i32_vec().unwrap(), vec![1, 1, 1]);
        assert_eq!(o.dtype(), DType::I32);
    }

    #[test]
    fn linspace_endpoints() {
        let e = test_engine();
        let t = e.linspace(0.0, 1.0, 5).unwrap();
        assert_eq!(t.to_f32_vec().unwrap(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert!(e.linspace(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn range_directions() {
        let e = test_engine();
        assert_eq!(e.range(0, 5, 2).unwrap().to_i32_vec().unwrap(), vec![0, 2, 4]);
        assert_eq!(e.range(5, 0, -2).unwrap().to_i32_vec().unwrap(), vec![5, 3, 1]);
        assert!(e.range(0, 5, 0).is_err());
    }

    #[test]
    fn eye_diagonal() {
        let e = test_engine();
        let t = e.eye(3).unwrap();
        assert_eq!(t.to_f32_vec().unwrap(), vec![1., 0., 0., 0., 1., 0., 0., 0., 1.]);
    }

    #[test]
    fn rand_uniform_bounds_and_determinism() {
        let e = test_engine();
        let a = e.rand_uniform([100], -1.0, 1.0, 42).unwrap().to_f32_vec().unwrap();
        let b = e.rand_uniform([100], -1.0, 1.0, 42).unwrap().to_f32_vec().unwrap();
        assert_eq!(a, b, "same seed must reproduce");
        assert!(a.iter().all(|&v| (-1.0..1.0).contains(&v)));
        let c = e.rand_uniform([100], -1.0, 1.0, 43).unwrap().to_f32_vec().unwrap();
        assert_ne!(a, c, "different seed must differ");
    }

    #[test]
    fn rand_normal_moments() {
        let e = test_engine();
        let v = e.rand_normal([10_000], 2.0, 0.5, 7).unwrap().to_f32_vec().unwrap();
        let mean: f32 = v.iter().sum::<f32>() / v.len() as f32;
        let var: f32 = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / v.len() as f32;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn truncated_normal_is_bounded() {
        let e = test_engine();
        let v = e.truncated_normal([10_000], 0.0, 1.0, 3).unwrap().to_f32_vec().unwrap();
        assert!(v.iter().all(|&x| x.abs() <= 2.0));
    }

    #[test]
    fn one_hot_encodes() {
        let e = test_engine();
        let ix = e.tensor(vec![1i32, 0], [2]).unwrap();
        let oh = e.one_hot(&ix, 3).unwrap();
        assert_eq!(oh.shape(), Shape::new(vec![2, 3]));
        assert_eq!(oh.to_f32_vec().unwrap(), vec![0., 1., 0., 1., 0., 0.]);
    }
}
