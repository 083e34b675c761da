//! # webml-core
//!
//! An eager tensor-computation engine with automatic differentiation and
//! pluggable backends — a Rust reproduction of the core of *TensorFlow.js:
//! Machine Learning for the Web and Beyond* (Smilkov et al., SysML 2019).
//!
//! The crate provides:
//!
//! - [`tensor::Tensor`]: immutable handles decoupled from refcounted data
//!   containers, making `reshape`/`clone` free (paper Sec 3.4);
//! - [`engine::Engine`]: kernel dispatch, `tidy()` memory scopes (Sec 3.7),
//!   the gradient tape (Sec 3.5), profiling and NaN-debug mode (Sec 3.8);
//! - [`ops`]: the Ops API — synchronous ops whose results may still be
//!   computing on the device; only `data()`/`data_sync()` synchronize
//!   (Sec 3.6);
//! - [`backend::Backend`]: the device abstraction, implemented twice: by
//!   [`host::HostBackend`] for every backend that computes on host memory
//!   (the bundled [`cpu::CpuBackend`] is its empty kernel set; `plainjs` and
//!   `native` are two more sets) and by the GPU crates' `GpuBackend`;
//! - [`asyncx::EventLoop`]: a browser main-thread simulator reproducing the
//!   Figure 2/3 timelines;
//! - [`pool::WorkerPool`]: the workspace's one persistent thread pool and
//!   its one split rule, shared by a host backend's kernels and the GPU
//!   simulators' shader cores;
//! - [`codegen::Codegen`] and [`tile::gemm_tile`]: the one CPU-feature check
//!   and the one register tile every backend's hot loops share.
//!
//! ## Example
//!
//! ```
//! use webml_core::{global, ops};
//!
//! # fn main() -> webml_core::error::Result<()> {
//! let engine = global::engine();
//! let (y, grads) = engine.tidy(|| {
//!     let x = engine.tensor_1d(&[1.0, 2.0, 3.0])?;
//!     engine.value_and_grads(&[&x], || ops::sum(&ops::square(&x)?, None, false))
//! })?;
//! assert_eq!(y.to_scalar()?, 14.0);
//! assert_eq!(grads[0].to_f32_vec()?, vec![2.0, 4.0, 6.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod asyncx;
pub mod backend;
pub mod buffer;
pub mod codegen;
pub mod conv_util;
pub mod cpu;
pub mod dtype;
pub mod engine;
pub mod error;
pub mod global;
pub mod grads;
pub mod host;
mod int_hash;
pub mod kernels;
pub mod ops;
pub mod pool;
pub mod quant;
pub mod shape;
pub mod tape;
pub mod tensor;
pub mod tile;
pub mod variable;

pub use backend::{Backend, DataFuture, DataId, FenceToken, FusedStep};
pub use buffer::TensorBuffer;
pub use dtype::{DType, TensorData};
pub use engine::{
    BackendHealth, DegradationEvent, Engine, MemoryInfo, MemoryPolicy, ProfileInfo, TimeInfo,
};
pub use error::{Error, Result};
pub use quant::QuantParams;
pub use shape::Shape;
pub use tensor::Tensor;
pub use variable::Variable;
