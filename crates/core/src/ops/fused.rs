//! Fused ops (the `tf.fused.*` namespace of TensorFlow.js, paper Sec 3.9):
//! matmul/conv with a bias+activation epilogue and elementwise chains, each
//! dispatched to the backend as one kernel.
//!
//! Fusion is a pure dispatch optimization — results are bit-identical to the
//! unfused composition on f32 backends because every backend routes scalar
//! math through [`UnaryOp::apply`] / [`BinaryOp::apply`] and fused kernels
//! apply the epilogue in the same order (full accumulation, then bias add,
//! then activation). On f16-only devices fused kernels round once instead of
//! once per intermediate, so they are *more* accurate there, not identical.
//!
//! Gradients: when a gradient tape is recording, these ops run the unfused
//! composition instead, so the tape records exactly the entries the unfused
//! ops would — fusion never changes training behavior, it only accelerates
//! inference.

use super::same_engine;
use crate::backend::{BinaryOp, Epilogue, FusedStep, KernelCall, UnaryOp};
use crate::conv_util::{conv2d_info, depthwise_conv2d_info, Conv2dInfo, Padding};
use crate::dtype::DType;
use crate::error::{Error, Result};
use crate::tensor::Tensor;
use std::borrow::Cow;

/// Dispatch a unary op to its tape-recording tensor-level op.
fn unary_tensor_op(op: UnaryOp, x: &Tensor) -> Result<Tensor> {
    match op {
        UnaryOp::Neg => super::neg(x),
        UnaryOp::Abs => super::abs(x),
        UnaryOp::Exp => super::exp(x),
        UnaryOp::Expm1 => super::expm1(x),
        UnaryOp::Log => super::log(x),
        UnaryOp::Log1p => super::log1p(x),
        UnaryOp::Sqrt => super::sqrt(x),
        UnaryOp::Rsqrt => super::rsqrt(x),
        UnaryOp::Square => super::square(x),
        UnaryOp::Relu => super::relu(x),
        UnaryOp::Relu6 => super::relu6(x),
        UnaryOp::Sigmoid => super::sigmoid(x),
        UnaryOp::Tanh => super::tanh(x),
        UnaryOp::Elu => super::elu(x),
        UnaryOp::Selu => super::selu(x),
        UnaryOp::Softplus => super::softplus(x),
        UnaryOp::Sin => super::sin(x),
        UnaryOp::Cos => super::cos(x),
        UnaryOp::Tan => super::tan(x),
        UnaryOp::Asin => super::asin(x),
        UnaryOp::Acos => super::acos(x),
        UnaryOp::Atan => super::atan(x),
        UnaryOp::Floor => super::floor(x),
        UnaryOp::Ceil => super::ceil(x),
        UnaryOp::Round => super::round(x),
        UnaryOp::Sign => super::sign(x),
        UnaryOp::Reciprocal => super::reciprocal(x),
        UnaryOp::LeakyRelu(alpha) => super::leaky_relu(x, alpha),
        UnaryOp::ClipByValue(lo, hi) => super::clip_by_value(x, lo, hi),
        UnaryOp::Step(alpha) => super::step(x, alpha),
        UnaryOp::Erf => super::erf(x),
        UnaryOp::LogicalNot | UnaryOp::IsNan | UnaryOp::IsInf | UnaryOp::IsFinite => Err(
            Error::invalid("Fused", format!("{} produces a bool output and cannot be fused", op.name())),
        ),
    }
}

/// Dispatch a binary op to its tape-recording tensor-level op.
fn binary_tensor_op(op: BinaryOp, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    match op {
        BinaryOp::Add => super::add(a, b),
        BinaryOp::Sub => super::sub(a, b),
        BinaryOp::Mul => super::mul(a, b),
        BinaryOp::Div => super::div(a, b),
        BinaryOp::FloorDiv => super::floor_div(a, b),
        BinaryOp::Pow => super::pow(a, b),
        BinaryOp::Maximum => super::maximum(a, b),
        BinaryOp::Minimum => super::minimum(a, b),
        BinaryOp::Mod => super::modulo(a, b),
        BinaryOp::SquaredDifference => super::squared_difference(a, b),
        BinaryOp::Atan2 => super::atan2(a, b),
        _ => Err(Error::invalid(
            "Fused",
            format!("{} produces a bool output and cannot be fused", op.name()),
        )),
    }
}

/// Reject epilogue activations whose output dtype is not float.
fn check_activation(op: &'static str, activation: Option<UnaryOp>) -> Result<()> {
    if let Some(act) = activation {
        if act.out_dtype(DType::F32) != DType::F32 {
            return Err(Error::invalid(
                op,
                format!("activation {} produces a bool output and cannot be fused", act.name()),
            ));
        }
    }
    Ok(())
}

/// The unfused `+ bias`, `activation` tail of a composed fused op.
fn unfused_epilogue(
    mut y: Tensor,
    bias: Option<&Tensor>,
    activation: Option<UnaryOp>,
) -> Result<Tensor> {
    if let Some(bias) = bias {
        y = super::add(&y, bias)?;
    }
    if let Some(act) = activation {
        y = unary_tensor_op(act, &y)?;
    }
    Ok(y)
}

/// The kernel families with a dequant-free variant, i.e. the ops whose
/// weight operand may be a quantized tensor.
#[derive(Clone, Copy)]
enum WeightKernel {
    MatMul { transpose_b: bool },
    Conv2d,
    DepthwiseConv2d,
}

/// The single gate for quantized weight operands (paper Sec 5.1):
/// quantization is metadata on the weight, and this decides once, for every
/// backend, how the op consumes it. Returns the operand to dispatch and
/// whether it still carries its codes (the backend then runs the factored
/// two-sum kernel, reading them in place). It is dequantized to a temporary
/// f32 tensor instead — and continues down the ordinary f32 path — when the
/// op is being composed from unfused ops (`unfused`: a tape records, or
/// fusion is off) or when per-channel params do not run along the axis the
/// kernel keeps constant over its accumulation. Unquantized weights pass
/// through on a dtype check alone. `w`'s rank must already be validated.
fn lower_weight(
    kernel: WeightKernel,
    w: &Tensor,
    unfused: bool,
) -> Result<(Cow<'_, Tensor>, bool)> {
    let Some(params) = w.quant_params() else {
        return Ok((Cow::Borrowed(w), false));
    };
    let dims = w.shape_ref().dims();
    let on_axis = |axis: usize| crate::kernels::quant_axis_ok(&params, axis, dims[axis]);
    let factorable = match kernel {
        WeightKernel::MatMul { transpose_b } => {
            on_axis(if transpose_b { dims.len() - 2 } else { dims.len() - 1 })
        }
        WeightKernel::Conv2d => on_axis(3),
        WeightKernel::DepthwiseConv2d => on_axis(2) || on_axis(3),
    };
    if factorable && !unfused {
        Ok((Cow::Borrowed(w), true))
    } else {
        Ok((Cow::Owned(dequantize(w)?), false))
    }
}

/// `activation(a x b + bias)` as one kernel (`tf.fused.matMul`).
///
/// Accepts rank-2 or rank-3 operands like [`super::matmul`]; `bias` must be
/// rank-1 `[n]` and is added to every output row. When a gradient tape is
/// recording, this runs the unfused `matmul → add → activation` composition
/// so the tape sees the standard entries.
///
/// `b` may be a quantized weight ([`crate::engine::Engine::quantized_tensor`]):
/// the kernel then folds dequantization into its epilogue and no f32 weight
/// tensor is materialized on the fast path. It is dequantized first, once,
/// when the op composes unfused kernels (tape recording, fusion disabled) or
/// its per-channel params run along the reduced axis `k`.
///
/// # Errors
/// Fails on rank/inner-dimension/bias-shape mismatches or backend errors.
pub fn fused_matmul(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    activation: Option<UnaryOp>,
    transpose_a: bool,
    transpose_b: bool,
) -> Result<Tensor> {
    same_engine("FusedMatMul", a, b)?;
    if let Some(bias) = bias {
        same_engine("FusedMatMul", a, bias)?;
    }
    check_activation("FusedMatMul", activation)?;
    super::matmul::check_ranks("FusedMatMul", a, b)?;
    let unfused = a.engine().tape_active() || !a.engine().fusion_enabled();
    let (b, quant) = lower_weight(WeightKernel::MatMul { transpose_b }, b, unfused)?;
    let b: &Tensor = &b;
    if unfused {
        let y = super::matmul(a, b, transpose_a, transpose_b)?;
        return unfused_epilogue(y, bias, activation);
    }
    let (a3, b3) = super::matmul::batched("FusedMatMul", a, b, quant)?;
    let inputs: Vec<&Tensor> = [&a3, &b3].into_iter().chain(bias).collect();
    let epilogue = fused_epilogue(quant, bias, activation);
    let call = KernelCall::MatMul { transpose_a, transpose_b, epilogue };
    let out = a.engine().run_kernel(&call, &inputs, None)?;
    super::matmul::unbatched(a, b, out)
}

/// The epilogue of a fused op; a quantized dispatch reports its own kernel
/// name in profiles and traces.
fn fused_epilogue(quant: bool, bias: Option<&Tensor>, activation: Option<UnaryOp>) -> Epilogue {
    let bias = bias.is_some();
    if quant {
        Epilogue::Quant { bias, activation }
    } else {
        Epilogue::Fused { bias, activation }
    }
}

/// Shared body of the two fused conv ops.
#[allow(clippy::too_many_arguments)] // the public conv signature plus the variant
fn fused_conv_impl(
    depthwise: bool,
    x: &Tensor,
    filter: &Tensor,
    bias: Option<&Tensor>,
    activation: Option<UnaryOp>,
    strides: (usize, usize),
    padding: Padding,
    dilations: (usize, usize),
) -> Result<Tensor> {
    let (kernel, weight_kernel) = if depthwise {
        ("FusedDepthwiseConv2D", WeightKernel::DepthwiseConv2d)
    } else {
        ("FusedConv2D", WeightKernel::Conv2d)
    };
    same_engine(kernel, x, filter)?;
    if let Some(bias) = bias {
        same_engine(kernel, x, bias)?;
    }
    check_activation(kernel, activation)?;
    let (xs, fs) = (x.shape_ref(), filter.shape_ref());
    let info: Conv2dInfo = if depthwise {
        depthwise_conv2d_info(kernel, xs, fs, strides, padding, dilations)?
    } else {
        conv2d_info(kernel, xs, fs, strides, padding, dilations)?
    };
    let unfused = x.engine().tape_active() || !x.engine().fusion_enabled();
    let (filter, quant) = lower_weight(weight_kernel, filter, unfused)?;
    let filter: &Tensor = &filter;
    if unfused {
        let y = if depthwise {
            super::depthwise_conv2d(x, filter, strides, padding, dilations)?
        } else {
            super::conv2d(x, filter, strides, padding, dilations)?
        };
        return unfused_epilogue(y, bias, activation);
    }
    let inputs: Vec<&Tensor> = [x, filter].into_iter().chain(bias).collect();
    let (info, epilogue) = (Cow::Owned(info), fused_epilogue(quant, bias, activation));
    let call = if depthwise {
        KernelCall::DepthwiseConv2d { info, epilogue }
    } else {
        KernelCall::Conv2d { info, epilogue }
    };
    x.engine().run_kernel(&call, &inputs, None)
}

/// `activation(conv2d(x, filter) + bias)` as one kernel (`tf.fused.conv2d`).
///
/// `bias` must be rank-1 `[out_channels]`. When a gradient tape is recording
/// this runs the unfused composition, and a quantized HWIO `filter` runs the
/// dequant-free kernel (see [`fused_matmul`] for both).
///
/// # Errors
/// Fails on rank/channel/bias-shape mismatches or backend errors.
pub fn fused_conv2d(
    x: &Tensor,
    filter: &Tensor,
    bias: Option<&Tensor>,
    activation: Option<UnaryOp>,
    strides: (usize, usize),
    padding: Padding,
    dilations: (usize, usize),
) -> Result<Tensor> {
    fused_conv_impl(false, x, filter, bias, activation, strides, padding, dilations)
}

/// `activation(depthwise_conv2d(x, filter) + bias)` as one kernel
/// (`tf.fused.depthwiseConv2d`); `filter` is `[fh, fw, c, mul]`, f32 or
/// quantized.
///
/// # Errors
/// See [`fused_conv2d`].
pub fn fused_depthwise_conv2d(
    x: &Tensor,
    filter: &Tensor,
    bias: Option<&Tensor>,
    activation: Option<UnaryOp>,
    strides: (usize, usize),
    padding: Padding,
    dilations: (usize, usize),
) -> Result<Tensor> {
    fused_conv_impl(true, x, filter, bias, activation, strides, padding, dilations)
}

/// Materialize a quantized tensor's f32 values as a new tensor by applying
/// its attached affine params host-side. This is the explicit escape hatch
/// for consuming quantized weights in ops that have no dequant-free kernel
/// (and what the fused ops do when the factored kernel cannot use its params).
///
/// # Errors
/// Fails when `t` carries no quantization params or has been disposed.
pub fn dequantize(t: &Tensor) -> Result<Tensor> {
    let params = t
        .quant_params()
        .ok_or_else(|| Error::invalid("Dequantize", "tensor has no quantization params"))?;
    let codes = t.data_sync()?.to_u8_codes();
    let values = params.dequantize(&codes, t.shape_ref().dims())?;
    t.engine().tensor(values, t.shape())
}

/// Execute a chain of elementwise steps over `x` as one kernel. Each
/// [`FusedStep::Binary`] combines the running value (left operand) with
/// `extras[i]` under NumPy broadcasting. When a gradient tape is recording
/// this runs one unfused op per step instead.
///
/// # Errors
/// Fails on an empty chain, an out-of-range extra index, bool-producing
/// steps, incompatible broadcast shapes, or backend errors.
pub fn fused_elementwise(x: &Tensor, extras: &[&Tensor], steps: &[FusedStep]) -> Result<Tensor> {
    for e in extras {
        same_engine("FusedElementwise", x, e)?;
    }
    if steps.is_empty() {
        return Err(Error::invalid("FusedElementwise", "steps must be non-empty"));
    }
    let bool_step = steps.iter().find_map(|step| match *step {
        FusedStep::Unary(op) => (op.out_dtype(DType::F32) != DType::F32).then(|| op.name()),
        FusedStep::Binary(op, _) => op.is_comparison().then(|| op.name()),
    });
    if let Some(name) = bool_step {
        let msg = format!("{name} produces a bool output and cannot be fused");
        return Err(Error::invalid("FusedElementwise", msg));
    }
    if x.engine().tape_active() || !x.engine().fusion_enabled() {
        let mut y = x.clone();
        for step in steps {
            y = match *step {
                FusedStep::Unary(op) => unary_tensor_op(op, &y)?,
                FusedStep::Binary(op, i) => {
                    let e = extras.get(i).ok_or_else(|| {
                        let msg = format!("binary step references extra {i} of {}", extras.len());
                        Error::invalid("FusedElementwise", msg)
                    })?;
                    binary_tensor_op(op, &y, e)?
                }
            };
        }
        return Ok(y);
    }
    let inputs: Vec<&Tensor> = std::iter::once(x).chain(extras.iter().copied()).collect();
    x.engine().run_kernel(&KernelCall::FusedElementwise(steps.into()), &inputs, None)
}

#[cfg(test)]
mod tests {
    use super::super::reshape;
    use super::super::testutil::{assert_close, test_engine};
    use super::*;

    #[test]
    fn fused_matmul_matches_unfused() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        let b = e.tensor_2d(&[0.5, -1.0, 2.0, 0.25, -0.5, 1.5], 3, 2).unwrap();
        let bias = e.tensor_1d(&[0.1, -0.2]).unwrap();
        let fused =
            fused_matmul(&a, &b, Some(&bias), Some(UnaryOp::Relu), false, false).unwrap();
        let unfused = super::super::relu(
            &super::super::add(&super::super::matmul(&a, &b, false, false).unwrap(), &bias)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(fused.to_f32_vec().unwrap(), unfused.to_f32_vec().unwrap());
        assert_eq!(fused.shape(), unfused.shape());
    }

    #[test]
    fn fused_matmul_without_epilogue_is_plain_matmul() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let b = e.tensor_2d(&[5.0, 6.0, 7.0, 8.0], 2, 2).unwrap();
        let fused = fused_matmul(&a, &b, None, None, false, false).unwrap();
        assert_eq!(fused.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn fused_matmul_rejects_bad_bias() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0; 4], 2, 2).unwrap();
        let b = e.tensor_2d(&[1.0; 4], 2, 2).unwrap();
        let bias = e.tensor_1d(&[1.0, 2.0, 3.0]).unwrap();
        assert!(fused_matmul(&a, &b, Some(&bias), None, false, false).is_err());
    }

    #[test]
    fn fused_matmul_records_unfused_tape_entries() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, -2.0, 3.0, -4.0], 2, 2).unwrap();
        let b = e.tensor_2d(&[1.0, 0.0, 0.0, 1.0], 2, 2).unwrap();
        let bias = e.tensor_1d(&[0.5, -0.5]).unwrap();
        // d/da sum(relu(a·I + bias)) — the tape must thread through the
        // unfused matmul/add/relu gradients.
        let g = e
            .grad(&a, || {
                let y = fused_matmul(&a, &b, Some(&bias), Some(UnaryOp::Relu), false, false)?;
                super::super::sum(&y, None, false)
            })
            .unwrap();
        // relu' = 1 where a + bias > 0: entries 1.5, -2.5, 3.5, -4.5.
        assert_eq!(g.to_f32_vec().unwrap(), vec![1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn fused_conv2d_matches_unfused() {
        let e = test_engine();
        let x: Vec<f32> = (0..32).map(|i| (i as f32) * 0.25 - 4.0).collect();
        let x = e.tensor(x, vec![1, 4, 4, 2]).unwrap();
        let w: Vec<f32> = (0..36).map(|i| ((i % 7) as f32) * 0.5 - 1.5).collect();
        let w = e.tensor(w, vec![3, 3, 2, 2]).unwrap();
        let bias = e.tensor_1d(&[0.25, -0.75]).unwrap();
        let fused = fused_conv2d(
            &x,
            &w,
            Some(&bias),
            Some(UnaryOp::Relu6),
            (1, 1),
            Padding::Same,
            (1, 1),
        )
        .unwrap();
        let unfused = super::super::relu6(
            &super::super::add(
                &super::super::conv2d(&x, &w, (1, 1), Padding::Same, (1, 1)).unwrap(),
                &bias,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(fused.to_f32_vec().unwrap(), unfused.to_f32_vec().unwrap());
    }

    #[test]
    fn fused_matmul_quant_matches_dequantized_f32_path() {
        use crate::quant::QuantParams;
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        let codes: Vec<u8> = vec![0, 255, 100, 17, 200, 64];
        let w = e
            .quantized_tensor(codes, vec![3, 2], QuantParams::per_tensor(0.01, -1.2))
            .unwrap();
        let bias = e.tensor_1d(&[0.1, -0.2]).unwrap();
        let fused =
            fused_matmul(&a, &w, Some(&bias), Some(UnaryOp::Relu), false, false).unwrap();
        let wf = dequantize(&w).unwrap();
        let reference =
            fused_matmul(&a, &wf, Some(&bias), Some(UnaryOp::Relu), false, false).unwrap();
        assert_close(&fused.to_f32_vec().unwrap(), &reference.to_f32_vec().unwrap(), 1e-4);
        assert_eq!(fused.shape(), reference.shape());
    }

    #[test]
    fn fused_matmul_quant_broadcasts_weight_batch() {
        use crate::quant::QuantParams;
        let e = test_engine();
        // Batched rank-3 activations against rank-2 quantized weights.
        let a = e.tensor(vec![1.0; 2 * 2 * 3], vec![2, 2, 3]).unwrap();
        let w = e
            .quantized_tensor(vec![128; 6], vec![3, 2], QuantParams::per_tensor(0.5, -32.0))
            .unwrap();
        let y = fused_matmul(&a, &w, None, None, false, false).unwrap();
        assert_eq!(y.dims(), &[2, 2, 2]);
        // Each weight dequantizes to 128*0.5 - 32 = 32; each output is 3*32.
        for v in y.to_f32_vec().unwrap() {
            assert!((v - 96.0).abs() < 1e-3, "{v}");
        }
    }

    /// Kernel names `f` dispatched, in order.
    fn kernels_of(e: &crate::Engine, f: impl FnOnce() -> Tensor) -> (Vec<&'static str>, Tensor) {
        let (out, profile) = e.profile(f);
        (profile.kernels.iter().map(|k| k.name).collect(), out)
    }

    #[test]
    fn unquantized_operands_take_the_f32_kernel_and_dequantize_rejects_them() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0; 4], 2, 2).unwrap();
        let w = e.tensor_2d(&[1.0; 4], 2, 2).unwrap();
        let (names, _) = kernels_of(&e, || fused_matmul(&a, &w, None, None, false, false).unwrap());
        assert_eq!(names, ["FusedMatMul"]);
        assert!(dequantize(&w).is_err());
    }

    #[test]
    fn rank2_per_channel_quant_weight_reaches_the_dequant_free_kernel() {
        use crate::quant::QuantParams;
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let cols = QuantParams::per_channel(1, vec![0.5, 2.0], vec![0.0, -1.0]);
        let w = e.quantized_tensor(vec![2, 4, 6, 8], vec![2, 2], cols).unwrap();
        // The `[1, k, n]` kernel view is a reshape alias whose params carry
        // the remapped axis, so the column-quantized weight stays on the
        // factored kernel — fused, unfused, and behind a graph `Reshape`.
        let expect = [7.0, 37.0, 15.0, 81.0];
        let w3 = reshape(&w, vec![1, 2, 2]).unwrap();
        let w2 = reshape(&w3, vec![2, 2]).unwrap();
        for (label, w) in [("rank 2", &w), ("reshaped", &w2)] {
            for fused in [true, false] {
                let (names, y) = kernels_of(&e, || {
                    if fused {
                        fused_matmul(&a, w, None, None, false, false).unwrap()
                    } else {
                        super::super::matmul(&a, w, false, false).unwrap()
                    }
                });
                assert_eq!(names, ["FusedMatMulQuant"], "{label} fused={fused}");
                assert_eq!(y.to_f32_vec().unwrap(), expect, "{label} fused={fused}");
            }
        }
        // Quantized along `k` the factored kernel cannot keep one scale per
        // output: the gate dequantizes once and the f32 kernel runs.
        let rows = QuantParams::per_channel(0, vec![0.5, 2.0], vec![0.0, -1.0]);
        let wk = e.quantized_tensor(vec![2, 4, 6, 8], vec![2, 2], rows).unwrap();
        let (names, y) =
            kernels_of(&e, || fused_matmul(&a, &wk, None, None, false, false).unwrap());
        assert_eq!(names, ["FusedMatMul"]);
        let wf = dequantize(&wk).unwrap();
        let reference = fused_matmul(&a, &wf, None, None, false, false).unwrap();
        assert_eq!(y.to_f32_vec().unwrap(), reference.to_f32_vec().unwrap());
    }

    #[test]
    fn reshaped_quant_alias_dequantizes_correctly_or_is_refused() {
        use crate::quant::QuantParams;
        let e = test_engine();
        let cols = QuantParams::per_channel(1, vec![1.0, 10.0, 100.0], vec![0.0; 3]);
        let w = e.quantized_tensor(vec![1; 6], vec![2, 3], cols).unwrap();
        let view = reshape(&w, vec![1, 2, 3]).unwrap();
        assert_eq!(
            dequantize(&view).unwrap().to_f32_vec().unwrap(),
            [1.0, 10.0, 100.0, 1.0, 10.0, 100.0]
        );
        let deep = QuantParams::per_channel(2, vec![1.0; 4], vec![0.0; 4]);
        let w3 = e.quantized_tensor(vec![0; 24], vec![2, 3, 4], deep).unwrap();
        let before = e.num_tensors();
        let err = super::super::flatten(&w3).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument { .. }), "{err}");
        assert_eq!(e.num_tensors(), before, "a refused alias registers nothing");
        // Per-tensor params describe any view.
        let whole = QuantParams::per_tensor(0.5, 1.0);
        let pt = e.quantized_tensor(vec![2; 6], vec![2, 3], whole).unwrap();
        let flat = super::super::flatten(&pt).unwrap();
        assert_eq!(dequantize(&flat).unwrap().to_f32_vec().unwrap(), [2.0; 6]);
    }

    #[test]
    fn fused_conv2d_quant_matches_dequantized_f32_path() {
        use crate::quant::QuantParams;
        let e = test_engine();
        let x: Vec<f32> = (0..18).map(|i| (i as f32 * 0.37).sin()).collect();
        let x = e.tensor(x, vec![1, 3, 3, 2]).unwrap();
        let codes: Vec<u8> = (0..24).map(|i| ((i * 11) % 256) as u8).collect();
        let w = e
            .quantized_tensor(codes, vec![2, 2, 2, 3], QuantParams::per_tensor(0.02, -2.5))
            .unwrap();
        let bias = e.tensor_1d(&[0.1, -0.2, 0.3]).unwrap();
        let fused = fused_conv2d(
            &x,
            &w,
            Some(&bias),
            Some(UnaryOp::Relu6),
            (1, 1),
            Padding::Same,
            (1, 1),
        )
        .unwrap();
        let wf = dequantize(&w).unwrap();
        let reference = fused_conv2d(
            &x,
            &wf,
            Some(&bias),
            Some(UnaryOp::Relu6),
            (1, 1),
            Padding::Same,
            (1, 1),
        )
        .unwrap();
        assert_close(&fused.to_f32_vec().unwrap(), &reference.to_f32_vec().unwrap(), 1e-3);
    }

    #[test]
    fn fused_depthwise_conv2d_quant_per_channel() {
        use crate::quant::QuantParams;
        let e = test_engine();
        let x = e.tensor(vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0], vec![1, 2, 2, 2]).unwrap();
        // 1x1 depthwise; per-channel params along the input-channel axis.
        let w = e
            .quantized_tensor(
                vec![100, 100],
                vec![1, 1, 2, 1],
                QuantParams::per_channel(2, vec![0.02, 0.03], vec![0.0, 0.0]),
            )
            .unwrap();
        let y =
            fused_depthwise_conv2d(&x, &w, None, None, (1, 1), Padding::Valid, (1, 1)).unwrap();
        // Channel 0 weight = 2.0, channel 1 weight = 3.0.
        assert_close(
            &y.to_f32_vec().unwrap(),
            &[2.0, 30.0, 4.0, 60.0, 6.0, 90.0, 8.0, 120.0],
            1e-3,
        );
    }

    #[test]
    fn fused_matmul_quant_under_tape_dequantizes_and_composes() {
        use crate::quant::QuantParams;
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, -2.0, 3.0, -4.0], 2, 2).unwrap();
        let w = e
            .quantized_tensor(vec![255, 0, 0, 255], vec![2, 2], QuantParams::per_tensor(1.0 / 255.0, 0.0))
            .unwrap();
        // d/da sum(a · I): gradient of ones flows through the dequantized
        // composition.
        let g = e
            .grad(&a, || {
                let y = fused_matmul(&a, &w, None, None, false, false)?;
                super::super::sum(&y, None, false)
            })
            .unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[1.0, 1.0, 1.0, 1.0], 1e-5);
    }

    #[test]
    fn fused_elementwise_chain() {
        let e = test_engine();
        let x = e.tensor_1d(&[-2.0, -1.0, 0.0, 1.0, 2.0]).unwrap();
        let scale = e.tensor_1d(&[2.0]).unwrap();
        let shift = e.tensor_1d(&[0.5]).unwrap();
        // relu(x * 2 + 0.5)
        let y = fused_elementwise(
            &x,
            &[&scale, &shift],
            &[
                FusedStep::Binary(BinaryOp::Mul, 0),
                FusedStep::Binary(BinaryOp::Add, 1),
                FusedStep::Unary(UnaryOp::Relu),
            ],
        )
        .unwrap();
        assert_close(&y.to_f32_vec().unwrap(), &[0.0, 0.0, 0.5, 2.5, 4.5], 1e-6);
    }

    #[test]
    fn fused_elementwise_rejects_empty_and_bool() {
        let e = test_engine();
        let x = e.tensor_1d(&[1.0]).unwrap();
        assert!(fused_elementwise(&x, &[], &[]).is_err());
        assert!(fused_elementwise(&x, &[], &[FusedStep::Unary(UnaryOp::IsNan)]).is_err());
        assert!(
            fused_elementwise(&x, &[], &[FusedStep::Binary(BinaryOp::Add, 0)]).is_err(),
            "out-of-range extra index"
        );
    }
}
