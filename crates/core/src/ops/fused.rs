//! Fused ops (the `tf.fused.*` namespace of TensorFlow.js, paper Sec 3.9):
//! matmul/conv with a bias+activation epilogue and elementwise chains, each
//! dispatched to the backend as one kernel — and [`run`], the op layer's one
//! entry for such a call.
//!
//! Fusion is a pure dispatch optimization — results are bit-identical to the
//! unfused composition on f32 backends because every backend routes scalar
//! math through [`UnaryOp::apply`] / [`BinaryOp::apply`] and fused kernels
//! apply the epilogue in the same order (full accumulation, then bias add,
//! then activation). On f16-only devices fused kernels round once instead of
//! once per intermediate, so they are *more* accurate there, not identical.
//!
//! Gradients: a fused product whose activation's gradient can be read from
//! its output (none, `Relu`, `Relu6`, `Sigmoid`, `Tanh`) is recorded on the
//! tape as itself, and its rule runs the kernels the unfused tape would, in
//! the same order, so training through it gives the same bits while the
//! step holds neither the pre-bias nor the pre-activation tensor. A
//! quantized weight is dequantized first while a tape records, and the f32
//! call then goes the same way. Any other fused call — another activation,
//! an element-wise chain — is composed from plain calls while a tape
//! records, so the tape records exactly the entries the unfused ops would.
//!
//! Refusal: a fused program the device refuses to compile is composed from
//! plain calls on the same backend, by [`run`] — the one composition of a
//! fused call, with the one dequantizer ([`dequantize`]) — so fusion never
//! makes the degradation ladder worse than the unfused path, and a refusal
//! is never a degradation. The composition disposes its intermediates.

use super::same_engine;
use crate::backend::{BinaryOp, Epilogue, FusedStep, KernelCall as C, UnaryOp};
use crate::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};
use crate::dtype::DType;
use crate::error::{Error, Result};
use crate::tensor::Tensor;
use std::borrow::Cow;

/// Run `call` over `inputs`: the op layer's one entry for a kernel call,
/// which makes the decisions a product or element-wise chain needs before
/// the engine runs it.
///
/// * **The quantized-weight gate** (paper Sec 5.1). Quantization is metadata
///   on a product call's weight (`inputs[1]`), and this decides once, for
///   every backend, how the call consumes it: as its [`Epilogue::Quant`] form,
///   whose kernel reads the codes in place (the factored two-sum kernel) —
///   or, when the call is composed from unfused calls, per-channel params do
///   not run along the axis the kernel keeps constant over its accumulation,
///   or the device refuses the quantized program, over a temporary f32 copy
///   dequantized once ([`dequantize`]), as its f32 fused form.
/// * **The unfused composition.** While fusion is off, while a tape records
///   and the call has no rule of its own (see the module doc), or when the
///   device refuses the fused program ([`Error::KernelUnsupported`], which
///   [`crate::Engine::run_kernel`] returns for a fused call instead of
///   degrading), a fused call runs as its plain calls — the plain product,
///   `Add` of the bias, the activation; one `Unary` or `Binary` per chain
///   step — each through the engine, which records its rule.
///
/// The composition and the dequantized route dispose what they registered
/// besides the output (unless a tape saved it). Every other call goes
/// straight to the engine.
///
/// # Errors
/// A malformed call, or the first failing kernel.
pub fn run(call: &C<'_>, inputs: &[&Tensor]) -> Result<Tensor> {
    let Some(&x) = inputs.first() else {
        return Err(Error::invalid(call.name(), "no operands"));
    };
    let engine = x.engine();
    let epilogue = call.epilogue();
    let weight = epilogue.and(inputs.get(1)).and_then(|w| w.quant_params().map(|p| (w, p)));
    let fused =
        matches!(call, C::FusedElementwise(_)) || epilogue.is_some_and(|e| e != Epilogue::None);
    if weight.is_none() && !fused {
        return engine.run_kernel(call, inputs);
    }
    let recording = engine.is_recording();
    let composing = recording || !engine.fusion_enabled();
    if let (Some(epilogue), Some((w, params))) = (epilogue, weight) {
        let (bias, activation) = (epilogue.bias(), epilogue.activation());
        let dims = w.shape_ref().dims();
        let on_axis = |axis: usize| {
            dims.get(axis).is_some_and(|&c| crate::kernels::quant_axis_ok(&params, axis, c))
        };
        let factorable = match call {
            C::MatMul { transpose_b, .. } => {
                dims.len().checked_sub(if *transpose_b { 2 } else { 1 }).is_some_and(on_axis)
            }
            C::Conv2d { .. } => on_axis(3),
            _ => on_axis(2) || on_axis(3),
        };
        if factorable && !composing {
            let quant = call.with_epilogue(Epilogue::Quant { bias, activation });
            if let Some(y) = unless_refused(engine.run_kernel(&quant, inputs))? {
                return Ok(y);
            }
        }
        return super::composite(engine, || {
            let mut w = dequantize(w)?;
            // The kernels broadcast a batch of 1 of codes; f32 values are tiled.
            let batch = x.dims().first().copied().unwrap_or(1);
            let batch_of_one = x.rank() == 3 && w.rank() == 3 && w.dims()[0] == 1;
            if matches!(call, C::MatMul { .. }) && batch_of_one && batch > 1 {
                w = super::tile(&w, &[batch, 1, 1])?;
            }
            let args: Vec<&Tensor> = [x, &w].into_iter().chain(inputs.get(2).copied()).collect();
            run(&call.with_epilogue(Epilogue::Fused { bias, activation }), &args)
        });
    }
    let taped_as_itself = matches!(epilogue, Some(Epilogue::Fused { activation, .. })
        if activation.is_none_or(crate::grads::reads_output));
    if !composing || (recording && engine.fusion_enabled() && taped_as_itself) {
        if let Some(y) = unless_refused(engine.run_kernel(call, inputs))? {
            return Ok(y);
        }
    }
    super::composite(engine, || compose(call, inputs))
}

/// A kernel's result, or `None` for the device's refusal of the fused
/// program, which the caller answers by composing the call.
fn unless_refused(result: Result<Tensor>) -> Result<Option<Tensor>> {
    match result {
        Err(Error::KernelUnsupported { .. }) => Ok(None),
        other => other.map(Some),
    }
}

/// The unfused composition of fused `call` over `inputs`: its plain calls,
/// each through the engine.
fn compose(call: &C<'_>, inputs: &[&Tensor]) -> Result<Tensor> {
    let (x, engine) = (inputs[0], inputs[0].engine());
    if let C::FusedElementwise(steps) = call {
        let extra = |i: usize| {
            inputs.get(1 + i).copied().ok_or_else(|| {
                let msg = format!("binary step references extra {i} of {}", inputs.len() - 1);
                Error::invalid(call.name(), msg)
            })
        };
        let mut y: Option<Tensor> = None;
        for step in steps.iter() {
            let cur = y.as_ref().unwrap_or(x);
            y = Some(match *step {
                FusedStep::Unary(op) => engine.run_kernel(&C::Unary(op), &[cur])?,
                FusedStep::Binary(op, i) => engine.run_kernel(&C::Binary(op), &[cur, extra(i)?])?,
            });
        }
        return y.ok_or_else(|| Error::invalid(call.name(), "steps must be non-empty"));
    }
    let epilogue = call.epilogue().unwrap_or(Epilogue::None);
    let plain = call.with_epilogue(Epilogue::None);
    let mut y = engine.run_kernel(&plain, &inputs[..2.min(inputs.len())])?;
    if epilogue.bias() {
        let bias = inputs.get(2).ok_or_else(|| Error::invalid(call.name(), "no bias operand"))?;
        y = engine.run_kernel(&C::Binary(BinaryOp::Add), &[&y, *bias])?;
    }
    if let Some(act) = epilogue.activation() {
        y = engine.run_kernel(&C::Unary(act), &[&y])?;
    }
    Ok(y)
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

/// `activation(a x b + bias)` as one kernel (`tf.fused.matMul`).
///
/// Accepts rank-2 or rank-3 operands like [`super::matmul`]; `bias` must be
/// rank-1 `[n]` and is added to every output row. While a gradient tape
/// records, the one kernel is recorded when the activation's gradient reads
/// its output (see the module doc); otherwise this runs the unfused
/// `matmul → add → activation` composition so the tape sees the standard
/// entries.
///
/// `b` may be a quantized weight ([`crate::engine::Engine::quantized_tensor`]):
/// the kernel then folds dequantization into its epilogue and no f32 weight
/// tensor is materialized on the fast path. It is dequantized first, once,
/// when the op composes unfused kernels (tape recording, fusion disabled) or
/// its per-channel params run along the reduced axis `k` (see [`run`]).
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
    let (a, b) = super::matmul::batched("FusedMatMul", a, b)?;
    let epilogue = Epilogue::Fused { bias: bias.is_some(), activation };
    let inputs: Vec<&Tensor> = [&a, &b].into_iter().chain(bias).collect();
    run(&C::MatMul { transpose_a, transpose_b, epilogue }, &inputs)
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
    let kernel = if depthwise { "FusedDepthwiseConv2D" } else { "FusedConv2D" };
    same_engine(kernel, x, filter)?;
    if let Some(bias) = bias {
        same_engine(kernel, x, bias)?;
    }
    check_activation(kernel, activation)?;
    let (xs, fs) = (x.shape_ref(), filter.shape_ref());
    let epilogue = Epilogue::Fused { bias: bias.is_some(), activation };
    let call = if depthwise {
        let info = depthwise_conv2d_info(kernel, xs, fs, strides, padding, dilations)?;
        C::DepthwiseConv2d { info: Cow::Owned(info), epilogue }
    } else {
        let info = conv2d_info(kernel, xs, fs, strides, padding, dilations)?;
        C::Conv2d { info: Cow::Owned(info), epilogue }
    };
    let inputs: Vec<&Tensor> = [x, filter].into_iter().chain(bias).collect();
    run(&call, &inputs)
}

/// `activation(conv2d(x, filter) + bias)` as one kernel (`tf.fused.conv2d`).
///
/// `bias` must be rank-1 `[out_channels]`. While a gradient tape records
/// this is recorded as itself or runs the unfused composition, and a
/// quantized HWIO `filter` runs the dequant-free kernel (see [`fused_matmul`]
/// for both).
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
/// (and what [`run`] does when the factored kernel cannot use its params).
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
    let bool_step = steps.iter().find_map(|step| match *step {
        FusedStep::Unary(op) => (op.out_dtype(DType::F32) != DType::F32).then(|| op.name()),
        FusedStep::Binary(op, _) => op.is_comparison().then(|| op.name()),
    });
    if let Some(name) = bool_step {
        let msg = format!("{name} produces a bool output and cannot be fused");
        return Err(Error::invalid("FusedElementwise", msg));
    }
    let inputs: Vec<&Tensor> = std::iter::once(x).chain(extras.iter().copied()).collect();
    run(&C::FusedElementwise(steps.into()), &inputs)
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
    fn fused_matmul_is_differentiated_as_itself() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, -2.0, 3.0, -4.0], 2, 2).unwrap();
        let b = e.tensor_2d(&[1.0, 0.0, 0.0, 1.0], 2, 2).unwrap();
        let bias = e.tensor_1d(&[0.5, -0.5]).unwrap();
        // d/da sum(relu(a·I + bias)) — the tape records the one fused call,
        // whose rule reads ReLU's mask from its output.
        let (names, g) = kernels_of(&e, || {
            e.grad(&a, || {
                let y = fused_matmul(&a, &b, Some(&bias), Some(UnaryOp::Relu), false, false)?;
                super::super::sum(&y, None, false)
            })
            .unwrap()
        });
        assert_eq!(names[0], "FusedMatMul");
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
