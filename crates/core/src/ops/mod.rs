//! The Ops API (paper Sec 3.3): operations validate shapes/dtypes and hand
//! the engine one [`crate::backend::KernelCall`] each — through
//! [`Engine::run_kernel`](crate::Engine::run_kernel), or through [`run`] for a
//! product or element-wise chain, whose quantized-weight gate and unfused
//! composition live there. An op registers no gradient: while a tape records,
//! the engine records the call, and backprop differentiates it by the call's
//! rule in [`crate::grads`] (paper Sec 3.5).
//!
//! Ops are synchronous and return immediately with a [`Tensor`] handle whose
//! data may still be computing on the device (Sec 3.6); only
//! [`Tensor::data_sync`]/[`Tensor::data`] synchronize.

mod binary;
mod compare;
mod conv;
mod creation;
mod fused;
mod image;
mod matmul;
mod misc;
mod norm;
mod reduce;
mod shape_ops;
mod softmax;
mod unary;

pub use binary::*;
pub use compare::*;
pub use conv::*;
pub use fused::*;
pub use image::*;
pub use matmul::*;
pub use misc::*;
pub use norm::*;
pub use reduce::*;
pub use shape_ops::*;
pub use softmax::*;
pub use unary::*;

use crate::dtype::DType;
use crate::engine::Engine;
use crate::error::{Error, Result};
use crate::tensor::Tensor;

/// Zero tensor with the shape and dtype of `t`.
///
/// # Errors
/// Never fails in practice.
pub fn zeros_like(t: &Tensor) -> Result<Tensor> {
    t.engine().zeros(t.shape(), t.dtype())
}

/// One-filled tensor with the shape and dtype of `t`.
///
/// # Errors
/// Never fails in practice.
pub fn ones_like(t: &Tensor) -> Result<Tensor> {
    t.engine().ones(t.shape(), t.dtype())
}

/// Check two tensors live on the same engine.
pub(crate) fn same_engine(op: &'static str, a: &Tensor, b: &Tensor) -> Result<()> {
    if a.engine() != b.engine() {
        return Err(Error::invalid(op, "tensors belong to different engines"));
    }
    Ok(())
}

/// Run `body`, a composite op that dispatches several kernels, and dispose
/// what it registered besides its output (paper Sec 3.7: an op's
/// intermediates never outlive it). Inside a scope this trims the scope back
/// to where `body` started ([`Engine::trim_scope`], which spares kept,
/// variable and tape-saved tensors); without one it runs `body` in a `tidy`.
pub(crate) fn composite(engine: &Engine, body: impl FnOnce() -> Result<Tensor>) -> Result<Tensor> {
    let Some(mark) = engine.scope_mark() else { return engine.tidy(body) };
    let out = body();
    engine.trim_scope(mark, out.as_ref().map_or(usize::MAX, Tensor::id));
    out
}

/// Cast both operands to their promoted dtype, returning possibly-new
/// tensors.
pub(crate) fn promote_pair(a: &Tensor, b: &Tensor) -> Result<(Tensor, Tensor, DType)> {
    let dt = a.dtype().promote(b.dtype());
    let a2 = if a.dtype() == dt { a.clone() } else { cast(a, dt)? };
    let b2 = if b.dtype() == dt { b.clone() } else { cast(b, dt)? };
    Ok((a2, b2, dt))
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::cpu::CpuBackend;
    use crate::engine::Engine;
    use std::sync::Arc;

    /// A fresh engine with the reference cpu backend, for op unit tests.
    pub fn test_engine() -> Engine {
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
        e
    }

    /// Assert two float slices agree within `tol`.
    pub fn assert_close(actual: &[f32], expected: &[f32], tol: f32) {
        assert_eq!(actual.len(), expected.len(), "length mismatch: {actual:?} vs {expected:?}");
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert!(
                (a - e).abs() <= tol || (a.is_nan() && e.is_nan()),
                "index {i}: actual {a} vs expected {e} (tol {tol})"
            );
        }
    }
}
