//! The bundled fallback CPU backend.
//!
//! Single-threaded scalar loops over host vectors: the correctness reference
//! for every other backend and the last rung of every webgpu → webgl → cpu
//! ladder — mirroring the role of the plain-JS CPU implementation in
//! TensorFlow.js ("automatically used when the environment has no access to
//! WebGL or the TensorFlow binary", Sec 3.1). It is the default backend only
//! of the bare [`crate::global::engine`]; `webml::init()` registers `native`
//! (and `plainjs` and the GPU rungs) above it.
//!
//! It is [`HostBackend`] over the empty kernel set: every call runs the
//! [`crate::kernels`] oracle, the [`HostKernels`] default — a fused product
//! applies its epilogue in the composition's order, and a quantized weight's
//! u8 codes feed the factored accumulation directly, so no f32 weight
//! buffer is ever materialized.
//!
//! **Loop order.** Every oracle output keeps the IEEE operations of a
//! one-output-at-a-time loop: it starts at +0, adds its products in the
//! reference's order (`(fh, fw, ic)` for a conv, `p` for a matmul) with the
//! same operand order in each multiply, multiplies no padding tap, and skips
//! a zero gradient. Within that rule the product kernels run their innermost
//! loop over the contiguous output-channel or column axis, adding into a row
//! of accumulators that the compiler vectorises without moving a bit. The
//! oracle stays off [`crate::tile`], `hot_loop!` and the pool: those are the
//! code every other rung shares, and an oracle built on them would agree
//! with a fault in them.
//!
//! The product kernels (`matmul`, the convs, their U8 forms and the conv and
//! depthwise backprops) are called from four places:
//! - this `cpu` rung: oracle, fallback, and the base rung of
//!   [`crate::global::engine`];
//! - the GPU rungs' oracle adapter, for the backprops;
//! - `plainjs`, for U8 products only;
//! - `native`, for the depthwise backprops only.

use crate::host::{HostBackend, HostKernels};

/// The reference kernel set: the oracle for every kernel.
pub struct Reference;

/// Single-threaded scalar CPU backend; the reference implementation.
pub type CpuBackend = HostBackend<Reference>;

impl HostKernels for Reference {
    const NAME: &'static str = "cpu";
}
