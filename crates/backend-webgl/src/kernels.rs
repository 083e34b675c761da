//! The kernel-set contract: what a GPU API must supply for [`GpuBackend`]
//! to run on it.
//!
//! A [`KernelSet`] is a table of kernel builders, one per device kernel the
//! [`Backend`] trait asks for. Each builder takes the op's parameters and
//! the operands' *logical* shapes and returns the [`Kernel`] to dispatch —
//! the output shape, the cost hint and the body are the builder's business.
//! Operands are bound in the order the `Backend` method lists them; a
//! product kernel's bias, when present, is bound last.
//!
//! The fragment-program builders of [`crate::programs`] and the tiled
//! compute pipelines of `webml-backend-webgpu` *are* the two sets: their
//! signatures match the table's fields, so a set is the list of their names.
//!
//! `packed` asks for the RGBA-texel variant where a set has one (the
//! context's packing switch); a set without packed variants ignores it.
//!
//! [`GpuBackend`]: crate::GpuBackend
//! [`Backend`]: webml_core::backend::Backend

pub use webml_core::backend::MatMulGeom;
use webml_core::backend::{ArgReduceOp, BinaryOp, FusedStep, PoolOp, ReduceOp, UnaryOp};
use webml_core::conv_util::Conv2dInfo;
use webml_core::dtype::DType;
use webml_core::error::Result;
use webml_core::quant::QuantParams;
use webml_webgl_sim::shader::Kernel;

/// Whether a product kernel binds a bias, and the activation it applies;
/// `(false, None)` is the plain kernel.
pub type Epilogue = (bool, Option<UnaryOp>);

/// One GPU API's kernels (see the module docs for the contract).
#[allow(missing_docs, clippy::type_complexity)]
pub struct KernelSet {
    pub unary: fn(UnaryOp, &[usize], bool) -> Kernel,
    /// `(op, a, b, out, packed)`.
    pub binary: fn(BinaryOp, &[usize], &[usize], &[usize], bool) -> Kernel,
    pub cast: fn(&[usize], DType) -> Kernel,
    /// `(op, in, axes)`; the output drops the reduced axes.
    pub reduce: fn(ReduceOp, &[usize], &[usize]) -> Kernel,
    /// `(op, in, axis)`.
    pub arg_reduce: fn(ArgReduceOp, &[usize], usize) -> Kernel,
    /// `(geom, packed, epilogue)`: the plain program for an empty
    /// epilogue, the fused one otherwise; the same for conv and depthwise.
    pub matmul: fn(&MatMulGeom, bool, Epilogue) -> Kernel,
    /// The right operand holds u8 codes; `params` index the output column.
    pub fused_matmul_quant: fn(&MatMulGeom, &QuantParams, Epilogue) -> Kernel,
    pub conv2d: fn(&Conv2dInfo, bool, Epilogue) -> Kernel,
    /// The filter holds u8 codes; `params` index the output channel.
    pub fused_conv2d_quant: fn(&Conv2dInfo, &QuantParams, Epilogue) -> Kernel,
    pub conv2d_backprop_input: fn(&Conv2dInfo) -> Kernel,
    pub conv2d_backprop_filter: fn(&Conv2dInfo) -> Kernel,
    pub depthwise_conv2d: fn(&Conv2dInfo, bool, Epilogue) -> Kernel,
    /// The filter holds u8 codes; `params` run along filter axis 2 or 3.
    pub fused_depthwise_conv2d_quant: fn(&Conv2dInfo, &QuantParams, Epilogue) -> Kernel,
    pub depthwise_conv2d_backprop_input: fn(&Conv2dInfo) -> Kernel,
    pub depthwise_conv2d_backprop_filter: fn(&Conv2dInfo) -> Kernel,
    pub pool2d: fn(PoolOp, &Conv2dInfo) -> Kernel,
    pub pool2d_backprop: fn(PoolOp, &Conv2dInfo) -> Kernel,
    /// `(in, begin, size)`.
    pub slice: fn(&[usize], &[usize], &[usize]) -> Kernel,
    /// `(inputs, axis)`.
    pub concat: fn(&[&[usize]], usize) -> Kernel,
    /// `(in, perm)`.
    pub transpose: fn(&[usize], &[usize]) -> Kernel,
    /// `(in, paddings, value)`.
    pub pad: fn(&[usize], &[(usize, usize)], f32) -> Kernel,
    /// `(in, axis, index count)`; the index buffer is bound second.
    pub gather: fn(&[usize], usize, usize) -> Kernel,
    /// `(in, reps)`.
    pub tile: fn(&[usize], &[usize]) -> Kernel,
    /// `(in, axes)`.
    pub reverse: fn(&[usize], &[usize]) -> Kernel,
    /// `(cond, a, b, out)`.
    pub select: fn(&[usize], &[usize], &[usize], &[usize]) -> Kernel,
    /// `(indices, depth, on, off)`; the output appends a `depth` axis.
    pub one_hot: fn(&[usize], usize, f32, f32) -> Kernel,
    /// `(in, new_h, new_w, align_corners)` over NHWC.
    pub resize_bilinear: fn(&[usize], usize, usize, bool) -> Kernel,
    /// `(inputs: the chain head then the extras, steps, out)`. Every binary
    /// step's extra index is in range (the backend checked).
    ///
    /// # Errors
    /// A step's broadcast does not exist.
    pub fused_elementwise: fn(&[&[usize]], &[FusedStep], &[usize]) -> Result<Kernel>,
}
