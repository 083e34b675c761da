//! The bundled fallback CPU backend.
//!
//! Straightforward single-threaded scalar loops over host vectors, used as
//! the correctness reference for every other backend and registered as the
//! default backend of the global engine — mirroring the role of the plain-JS
//! CPU implementation in TensorFlow.js ("automatically used when the
//! environment has no access to WebGL or the TensorFlow binary", Sec 3.1).
//!
//! It is [`HostBackend`] over the empty kernel set: every kernel is the
//! [`crate::kernels`] oracle the [`HostKernels`] defaults name.

use crate::backend::{MatMulGeom, UnaryOp};
use crate::conv_util::Conv2dInfo;
use crate::host::{HostBackend, HostKernels, Weights};
use crate::kernels as k;
use crate::pool::WorkerPool;

/// The reference kernel set: the oracle for every kernel.
///
/// f32 fused ops stay the reference composition (the hooks return `None`);
/// a quantized weight runs the reference dequant-free kernel — the u8 codes
/// feed the factored accumulation in [`crate::kernels`] directly, and no f32
/// weight buffer is ever materialized.
pub struct Reference;

/// Single-threaded scalar CPU backend; the reference implementation.
pub type CpuBackend = HostBackend<Reference>;

impl HostKernels for Reference {
    const NAME: &'static str = "cpu";

    fn fused_matmul(
        a: &[f32],
        b: Weights<'_>,
        g: &MatMulGeom,
        bias: Option<&[f32]>,
        activation: Option<UnaryOp>,
        _pool: &WorkerPool,
    ) -> Option<Vec<f32>> {
        let Weights::Quant(codes, params) = b else {
            return None;
        };
        let (ta, tb) = (g.transpose_a, g.transpose_b);
        Some(k::fused_matmul_quant(
            a, codes, params, bias, activation, g.batch, g.m, g.k, g.n, ta, tb,
        ))
    }

    fn fused_conv2d(
        x: &[f32],
        w: Weights<'_>,
        info: &Conv2dInfo,
        bias: Option<&[f32]>,
        activation: Option<UnaryOp>,
        _pool: &WorkerPool,
    ) -> Option<Vec<f32>> {
        let Weights::Quant(codes, params) = w else {
            return None;
        };
        Some(k::fused_conv2d_quant(x, codes, params, bias, activation, info))
    }

    fn fused_depthwise_conv2d(
        x: &[f32],
        w: Weights<'_>,
        info: &Conv2dInfo,
        bias: Option<&[f32]>,
        activation: Option<UnaryOp>,
        _pool: &WorkerPool,
    ) -> Option<Vec<f32>> {
        let Weights::Quant(codes, params) = w else {
            return None;
        };
        Some(k::fused_depthwise_conv2d_quant(x, codes, params, bias, activation, info))
    }
}
