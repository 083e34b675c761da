//! The bundled fallback CPU backend.
//!
//! Straightforward single-threaded scalar loops over host vectors, used as
//! the correctness reference for every other backend and registered as the
//! default backend of the global engine — mirroring the role of the plain-JS
//! CPU implementation in TensorFlow.js ("automatically used when the
//! environment has no access to WebGL or the TensorFlow binary", Sec 3.1).
//!
//! It is [`HostBackend`] over the empty kernel set: every call runs the
//! [`crate::kernels`] oracle, the [`HostKernels`] default — a fused product
//! applies its epilogue in the composition's order, and a quantized weight's
//! u8 codes feed the factored accumulation directly, so no f32 weight
//! buffer is ever materialized.

use crate::host::{HostBackend, HostKernels};

/// The reference kernel set: the oracle for every kernel.
pub struct Reference;

/// Single-threaded scalar CPU backend; the reference implementation.
pub type CpuBackend = HostBackend<Reference>;

impl HostKernels for Reference {
    const NAME: &'static str = "cpu";
}
