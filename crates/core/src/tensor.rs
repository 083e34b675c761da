//! The [`Tensor`] handle.
//!
//! A tensor is a cheap handle (shape, dtype, data pointer) onto a data
//! container owned by a backend; handles are decoupled from the data so
//! `reshape` and `clone` are free shallow copies (paper Sec 3.4). Under the
//! browser-like [`MemoryPolicy::Manual`](crate::engine::MemoryPolicy) memory
//! is freed only by [`Tensor::dispose`] or `tidy`; under the Node-like
//! `Finalized` policy, dropping the last handle frees it.

use crate::dtype::{DType, TensorData};
use crate::engine::{Engine, MemoryPolicy};
use crate::error::{Error, Result};
use crate::shape::Shape;
use std::fmt;
use std::sync::Arc;

struct TensorInner {
    id: usize,
    shape: Shape,
    dtype: DType,
    engine: Engine,
}

impl Drop for TensorInner {
    fn drop(&mut self) {
        if self.engine.memory_policy() == MemoryPolicy::Finalized {
            self.engine.enqueue_garbage(self.id);
        }
    }
}

/// A handle to an immutable n-dimensional array of values on a backend.
///
/// Cloning a `Tensor` clones the *handle* (same tensor id, same data);
/// use [`crate::ops::identity`] for a new tensor sharing the data, and ops in
/// [`crate::ops`] to compute new tensors.
#[derive(Clone)]
pub struct Tensor {
    inner: Arc<TensorInner>,
}

impl Tensor {
    pub(crate) fn from_parts(engine: Engine, id: usize, shape: Shape, dtype: DType) -> Tensor {
        Tensor { inner: Arc::new(TensorInner { id, shape, dtype, engine }) }
    }

    /// Unique id of this tensor within its engine.
    pub fn id(&self) -> usize {
        self.inner.id
    }

    /// Logical shape.
    pub fn shape(&self) -> Shape {
        self.inner.shape.clone()
    }

    /// Borrowed logical shape.
    pub fn shape_ref(&self) -> &Shape {
        &self.inner.shape
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.inner.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.inner.shape.rank()
    }

    /// Number of elements.
    pub fn size(&self) -> usize {
        self.inner.shape.size()
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.inner.dtype
    }

    /// Bytes held by this tensor's data container (0 once disposed). Shallow
    /// copies share one container, so summing `bytes()` over aliases
    /// over-counts relative to `Engine::memory().num_bytes`.
    pub fn bytes(&self) -> usize {
        self.inner.engine.tensor_bytes(self.inner.id)
    }

    /// The engine that owns this tensor.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Synchronously download the tensor's values, blocking the calling
    /// thread until the backend has finished computing them — the
    /// `tensor.dataSync()` path of Figure 2.
    ///
    /// # Errors
    /// Fails when the tensor has been disposed or the backend errored.
    pub fn data_sync(&self) -> Result<TensorData> {
        self.inner.engine.read_sync(self.inner.id)
    }

    /// Asynchronously download the tensor's values; the returned future
    /// resolves when the device has finished — the `tensor.data()` path of
    /// Figure 3. The calling thread is free while the device works.
    ///
    /// # Errors
    /// Fails when the tensor has been disposed.
    pub fn data(&self) -> Result<crate::backend::DataFuture> {
        self.inner.engine.read(self.inner.id)
    }

    /// Convenience: download and convert to `Vec<f32>`.
    ///
    /// # Errors
    /// Same as [`Tensor::data_sync`].
    pub fn to_f32_vec(&self) -> Result<Vec<f32>> {
        Ok(self.data_sync()?.to_f32_vec())
    }

    /// Convenience: download and convert to `Vec<i32>`.
    ///
    /// # Errors
    /// Same as [`Tensor::data_sync`].
    pub fn to_i32_vec(&self) -> Result<Vec<i32>> {
        Ok(self.data_sync()?.to_i32_vec())
    }

    /// Convenience: download a scalar (or single-element) tensor's value.
    ///
    /// # Errors
    /// Fails when the tensor is disposed or has more than one element.
    pub fn to_scalar(&self) -> Result<f32> {
        if self.size() != 1 {
            return Err(Error::invalid(
                "toScalar",
                format!("tensor has {} elements, expected 1", self.size()),
            ));
        }
        Ok(self.data_sync()?.to_f32_vec()[0])
    }

    /// Explicitly release the memory backing this tensor (paper Sec 3.7).
    /// Idempotent; later reads fail with
    /// [`Error::TensorDisposed`](crate::error::Error).
    pub fn dispose(&self) {
        self.inner.engine.dispose_tensor(self.inner.id);
    }

    /// Whether the tensor's storage has been released.
    pub fn is_disposed(&self) -> bool {
        self.inner.engine.is_disposed(self.inner.id)
    }

    /// Mark this tensor to survive all enclosing `tidy` scopes (`tf.keep`).
    pub fn keep(&self) -> &Tensor {
        self.inner.engine.keep(self.inner.id);
        self
    }

    /// The affine dequantization parameters attached to this tensor, when
    /// it stores quantized U8 codes (`Engine::quantized_tensor`). Only U8
    /// tensors carry params, so the dtype is checked first and f32 tensors
    /// (every hot path) never touch the registry lock.
    pub fn quant_params(&self) -> Option<Arc<crate::quant::QuantParams>> {
        if self.dtype() != DType::U8 {
            return None;
        }
        self.inner.engine.quant_params(self.inner.id)
    }

    /// Whether this tensor stores quantized codes with attached params.
    pub fn is_quantized(&self) -> bool {
        self.quant_params().is_some()
    }

    /// Pretty-print the tensor's values to stdout (`tensor.print()`).
    pub fn print(&self) {
        println!("{self}");
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("id", &self.inner.id)
            .field("shape", &self.inner.shape)
            .field("dtype", &self.inner.dtype)
            .finish()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor (shape: {}, dtype: {})", self.inner.shape, self.inner.dtype)?;
        match self.data_sync() {
            Err(_) => write!(f, "  <disposed>"),
            Ok(data) => {
                let vals = data.to_f64_vec();
                write!(f, "  ")?;
                format_nd(f, &vals, self.inner.shape.dims())
            }
        }
    }
}

/// Recursively format an n-d array with nested brackets, eliding long rows.
#[allow(clippy::needless_range_loop)]
fn format_nd(f: &mut fmt::Formatter<'_>, vals: &[f64], dims: &[usize]) -> fmt::Result {
    const MAX_ITEMS: usize = 8;
    if dims.is_empty() {
        return write!(f, "{}", vals[0]);
    }
    if dims.len() == 1 {
        write!(f, "[")?;
        let n = dims[0];
        for i in 0..n.min(MAX_ITEMS) {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", vals[i])?;
        }
        if n > MAX_ITEMS {
            write!(f, ", ... {} more", n - MAX_ITEMS)?;
        }
        return write!(f, "]");
    }
    let inner: usize = dims[1..].iter().product();
    write!(f, "[")?;
    let n = dims[0];
    for i in 0..n.min(MAX_ITEMS) {
        if i > 0 {
            write!(f, ", ")?;
        }
        format_nd(f, &vals[i * inner..(i + 1) * inner], &dims[1..])?;
    }
    if n > MAX_ITEMS {
        write!(f, ", ... {} more", n - MAX_ITEMS)?;
    }
    write!(f, "]")
}
