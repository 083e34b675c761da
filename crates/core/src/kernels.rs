//! Reference implementations of every kernel, as straightforward scalar
//! loops over `f32` slices, and [`run`]: the one match from a
//! [`KernelCall`] to them.
//!
//! These functions define the numeric ground truth all backends are tested
//! against. [`run`] is the default of [`crate::host::HostKernels::run`]: the
//! bundled [`crate::cpu`] fallback backend runs it for every call, the
//! optimized native and plain-JS sets for every call they have no kernel of
//! their own for, and the webgpu rung wraps it in a pipeline for every
//! kernel but its tiled products; the webgl backend re-expresses the kernels
//! as data-parallel shader programs whose per-texel math routes through the
//! same [`UnaryOp::apply`]/[`BinaryOp::apply`] scalar semantics.
//!
//! Backends must also preserve these loops' *accumulation order* (e.g. the
//! inner-dimension order of [`matmul`], the row-major reduction order of
//! [`reduce`]): with every backend bit-identical on `f32` devices, the
//! engine's graceful degradation — re-dispatching a kernel on the next
//! backend after a device fault — is numerically transparent, and the fault
//! suite can assert exact equality between faulted and fault-free runs.
//!
//! The products and their gradients accumulate a row of outputs at a time
//! along the contiguous channel or column axis, each output keeping the IEEE
//! operations of a one-output loop (the rule is in [`crate::cpu`]):
//! single-threaded scalar source that the compiler vectorises.

use crate::backend::{
    ArgReduceOp, BinaryOp, Epilogue, FusedStep, KernelCall, MatMulGeom, PoolOp, ReduceOp, UnaryOp,
};
use crate::conv_util::Conv2dInfo;
use crate::dtype::TensorData;
use crate::quant::QuantParams;
use crate::shape::{broadcast_source_index, Shape};
use std::borrow::Cow;

/// A stored buffer's values, in the type they are stored as.
#[derive(Debug, Clone, Copy)]
pub enum Values<'a> {
    /// f32 values (F16 ones on the host; every buffer on a GPU device).
    F32(&'a [f32]),
    /// I32 values.
    I32(&'a [i32]),
    /// Bytes: U8 codes and Bool flags.
    U8(&'a [u8]),
}

impl<'a> Values<'a> {
    /// The values of a host buffer.
    pub fn of(data: &'a TensorData) -> Values<'a> {
        match data {
            TensorData::F32(v) => Values::F32(v),
            TensorData::I32(v) => Values::I32(v),
            TensorData::U8(v) => Values::U8(v),
        }
    }

    /// As f32: borrowed when stored so, converted once otherwise.
    pub fn f32s(self) -> Cow<'a, [f32]> {
        match self {
            Values::F32(v) => Cow::Borrowed(v),
            Values::I32(v) => Cow::Owned(v.iter().map(|&x| x as f32).collect()),
            Values::U8(v) => Cow::Owned(v.iter().map(|&x| x as f32).collect()),
        }
    }

    /// As i32 indices, floats truncated.
    pub fn i32s(self) -> Cow<'a, [i32]> {
        match self {
            Values::I32(v) => Cow::Borrowed(v),
            Values::F32(v) => Cow::Owned(v.iter().map(|&x| x as i32).collect()),
            Values::U8(v) => Cow::Owned(v.iter().map(|&x| x as i32).collect()),
        }
    }

    /// As U8 quantization codes: any other storage (a float copy of codes
    /// read back from a device) is rounded and clamped back into code space,
    /// as [`TensorData::to_u8_codes`] does.
    pub fn codes(self) -> Cow<'a, [u8]> {
        match self {
            Values::U8(v) => Cow::Borrowed(v),
            other => Cow::Owned(
                other.f32s().iter().map(|&x| x.round().clamp(0.0, 255.0) as u8).collect(),
            ),
        }
    }

    /// An owned copy.
    pub fn to_data(self) -> TensorData {
        match self {
            Values::F32(v) => TensorData::F32(v.to_vec()),
            Values::I32(v) => TensorData::I32(v.to_vec()),
            Values::U8(v) => TensorData::U8(v.to_vec()),
        }
    }
}

/// One operand of a host kernel: its values, under the call's view of them.
#[derive(Debug, Clone, Copy)]
pub struct Operand<'a> {
    /// The stored values.
    pub values: Values<'a>,
    /// The logical shape the call reads them under.
    pub shape: &'a Shape,
    /// Dequantization params when the values are a weight's U8 codes.
    pub quant: Option<&'a QuantParams>,
}

/// Run `call` on host values — the oracle of every kernel. `out` is the
/// call's output shape from [`KernelCall::output`], which validated it.
pub fn run(call: &KernelCall<'_>, operands: &[Operand<'_>], out: &Shape) -> TensorData {
    use KernelCall as C;
    let f = |i: usize| operands[i].values.f32s();
    let s = |i: usize| operands[i].shape;
    // Every operand as f32, for the kernels that take a list of them.
    let all = || -> Vec<Cow<'_, [f32]>> { (0..operands.len()).map(f).collect() };
    let epilogue = call.epilogue().unwrap_or(Epilogue::None);
    let bias = epilogue.bias().then(|| operands[2].values.f32s());
    let (bias, act) = (bias.as_deref(), epilogue.activation());
    TensorData::F32(match call {
        C::Unary(op) => unary(*op, &f(0)),
        C::Binary(op) => binary(*op, &f(0), s(0), &f(1), s(1), out),
        C::Cast(dtype) => return operands[0].values.to_data().cast(*dtype),
        C::Reduce { op, axes } => reduce(*op, &f(0), s(0), axes),
        C::ArgReduce { op, axis } => return TensorData::I32(arg_reduce(*op, &f(0), s(0), *axis)),
        C::MatMul { transpose_a: ta, transpose_b: tb, .. } => {
            let MatMulGeom { batch, m, k, n, .. } = MatMulGeom::of(s(0), s(1), *ta, *tb);
            match operands[1].quant {
                Some(p) => {
                    let codes = operands[1].values.codes();
                    fused_matmul_quant(&f(0), &codes, p, bias, act, batch, m, k, n, *ta, *tb)
                }
                None => f32_product(call, operands, |a, b| matmul(a, b, batch, m, k, n, *ta, *tb)),
            }
        }
        C::Conv2d { info, .. } => match operands[1].quant {
            Some(p) => fused_conv2d_quant(&f(0), &operands[1].values.codes(), p, bias, act, info),
            None => f32_product(call, operands, |x, w| conv2d(x, w, info)),
        },
        C::DepthwiseConv2d { info, .. } => match operands[1].quant {
            Some(p) => {
                let codes = operands[1].values.codes();
                fused_depthwise_conv2d_quant(&f(0), &codes, p, bias, act, info)
            }
            None => f32_product(call, operands, |x, w| depthwise_conv2d(x, w, info)),
        },
        C::Conv2dBackpropInput(info) => conv2d_backprop_input(&f(0), &f(1), info),
        C::Conv2dBackpropFilter(info) => conv2d_backprop_filter(&f(0), &f(1), info),
        C::DepthwiseConv2dBackpropInput(info) => {
            depthwise_conv2d_backprop_input(&f(0), &f(1), info)
        }
        C::DepthwiseConv2dBackpropFilter(info) => {
            depthwise_conv2d_backprop_filter(&f(0), &f(1), info)
        }
        C::Pool2d { op, info } => pool2d(*op, &f(0), info),
        C::Pool2dBackprop { op, info } => pool2d_backprop(*op, &f(0), &f(1), info),
        C::Slice { begin, size } => slice(&f(0), s(0), begin, size),
        C::Concat { axis } => concat(&with_shapes(&all(), operands), *axis),
        C::Transpose { perm } => transpose(&f(0), s(0), perm),
        C::Pad { paddings, value } => pad(&f(0), s(0), paddings, *value),
        C::Gather { axis } => gather(&f(0), s(0), &operands[1].values.i32s(), *axis),
        C::Tile { reps } => tile(&f(0), s(0), reps),
        C::Reverse { axes } => reverse(&f(0), s(0), axes),
        C::Select => select(&f(0), s(0), &f(1), s(1), &f(2), s(2), out),
        C::OneHot { depth, on, off } => one_hot(&operands[0].values.i32s(), *depth, *on, *off),
        C::ResizeBilinear { new_h, new_w, align_corners } => {
            resize_bilinear(&f(0), s(0), *new_h, *new_w, *align_corners)
        }
        C::FusedElementwise(steps) => {
            let vals = all();
            fused_elementwise(&vals[0], s(0), &with_shapes(&vals[1..], &operands[1..]), steps, out)
        }
    })
}

/// Values paired with their operands' shapes.
fn with_shapes<'v>(
    vals: &'v [Cow<'v, [f32]>],
    operands: &[Operand<'v>],
) -> Vec<(&'v [f32], &'v Shape)> {
    vals.iter().zip(operands).map(|(v, o)| (&**v, o.shape)).collect()
}

/// A product call over an f32 weight: `product` of the input and the
/// weight, then the call's epilogue in the unfused composition's order —
/// `+ bias[channel]` (the innermost axis is the channel or column), then the
/// activation.
pub fn f32_product(
    call: &KernelCall<'_>,
    operands: &[Operand<'_>],
    product: impl FnOnce(&[f32], &[f32]) -> Vec<f32>,
) -> Vec<f32> {
    let mut out = product(&operands[0].values.f32s(), &operands[1].values.f32s());
    let epilogue = call.epilogue().unwrap_or(Epilogue::None);
    if let Some(bias) = epilogue.bias().then(|| operands[2].values.f32s()) {
        for (v, &b) in out.iter_mut().zip(bias.iter().cycle()) {
            *v = BinaryOp::Add.apply(*v, b);
        }
    }
    if let Some(act) = epilogue.activation() {
        out.iter_mut().for_each(|v| *v = act.apply(*v));
    }
    out
}

/// A chain of element-wise steps over `x`, each output element taken
/// through the whole chain — the running value is every binary step's left
/// operand, each extra broadcast against `out`. Bit-identical to one
/// [`unary`] or [`binary`] kernel per step: the same scalar ops on the same
/// values.
pub fn fused_elementwise(
    x: &[f32],
    x_shape: &Shape,
    extras: &[(&[f32], &Shape)],
    steps: &[FusedStep],
    out: &Shape,
) -> Vec<f32> {
    let mut vals = vec![0.0; out.size()];
    for_each_coord(out.dims(), |idx, coords| {
        let mut v = x[broadcast_source_index(coords, x_shape)];
        for step in steps {
            v = match *step {
                FusedStep::Unary(op) => op.apply(v),
                FusedStep::Binary(op, i) => {
                    let (e, e_shape) = extras[i];
                    op.apply(v, e[broadcast_source_index(coords, e_shape)])
                }
            };
        }
        vals[idx] = v;
    });
    vals
}

/// Call `f(flat_index, coords)` for every coordinate of `dims` in row-major
/// order, without per-iteration allocation.
pub fn for_each_coord(dims: &[usize], mut f: impl FnMut(usize, &[usize])) {
    let size: usize = dims.iter().product();
    if size == 0 {
        return;
    }
    let mut coords = vec![0usize; dims.len()];
    for idx in 0..size {
        f(idx, &coords);
        for d in (0..dims.len()).rev() {
            coords[d] += 1;
            if coords[d] < dims[d] {
                break;
            }
            coords[d] = 0;
        }
    }
}

/// Element-wise unary kernel.
pub fn unary(op: UnaryOp, a: &[f32]) -> Vec<f32> {
    a.iter().map(|&x| op.apply(x)).collect()
}

/// Element-wise binary kernel with broadcasting.
pub fn binary(op: BinaryOp, a: &[f32], a_shape: &Shape, b: &[f32], b_shape: &Shape, out_shape: &Shape) -> Vec<f32> {
    if a_shape == b_shape {
        return a.iter().zip(b).map(|(&x, &y)| op.apply(x, y)).collect();
    }
    // Scalar fast paths.
    if a.len() == 1 {
        let x = a[0];
        return b.iter().map(|&y| op.apply(x, y)).collect();
    }
    if b.len() == 1 {
        let y = b[0];
        return a.iter().map(|&x| op.apply(x, y)).collect();
    }
    let mut out = vec![0.0; out_shape.size()];
    for_each_coord(out_shape.dims(), |idx, coords| {
        let ai = broadcast_source_index(coords, a_shape);
        let bi = broadcast_source_index(coords, b_shape);
        out[idx] = op.apply(a[ai], b[bi]);
    });
    out
}

/// Reduction over `axes` (sorted, unique); output drops the reduced dims.
/// Each output combines its inputs in ascending input index, whichever loop
/// visits them.
pub fn reduce(op: ReduceOp, a: &[f32], shape: &Shape, axes: &[usize]) -> Vec<f32> {
    let out_dims: Vec<usize> = shape
        .dims()
        .iter()
        .enumerate()
        .filter(|(i, _)| !axes.contains(i))
        .map(|(_, &d)| d)
        .collect();
    let out_size: usize = out_dims.iter().product();
    let reduce_count: usize = axes.iter().map(|&i| shape.dim(i)).product();
    let mut out = vec![op.init(); out_size.max(1)];
    match axes.last() {
        // Consecutive axes of a non-empty input: it is `outer × reduced ×
        // inner`, and output `o × inner + i` reads a strided run of
        // `reduced` inputs.
        Some(&last) if !a.is_empty() && axes.windows(2).all(|w| w[1] == w[0] + 1) => {
            let inner: usize = shape.dims()[last + 1..].iter().product();
            let inputs = a.chunks_exact(reduce_count * inner);
            for (acc, input) in out.chunks_exact_mut(inner).zip(inputs) {
                for row in input.chunks_exact(inner) {
                    acc.iter_mut().zip(row).for_each(|(v, &x)| *v = op.combine(*v, x));
                }
            }
        }
        _ => {
            // Map each input coordinate to its output flat index.
            let out_strides = Shape::new(out_dims.clone()).strides();
            let mut contrib = vec![0usize; shape.rank()];
            let mut oi = 0;
            for (i, _) in shape.dims().iter().enumerate() {
                if !axes.contains(&i) {
                    contrib[i] = out_strides[oi];
                    oi += 1;
                }
            }
            for_each_coord(shape.dims(), |idx, coords| {
                let out_idx: usize = coords.iter().zip(&contrib).map(|(&c, &s)| c * s).sum();
                out[out_idx] = op.combine(out[out_idx], a[idx]);
            });
        }
    }
    for v in &mut out {
        *v = op.finalize(*v, reduce_count.max(1));
    }
    out
}

/// Arg-reduction along a single axis; returns indices as `i32`.
pub fn arg_reduce(op: ArgReduceOp, a: &[f32], shape: &Shape, axis: usize) -> Vec<i32> {
    let dims = shape.dims();
    let outer: usize = dims[..axis].iter().product();
    let n = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    let mut out = vec![0i32; outer * inner];
    for o in 0..outer {
        for i in 0..inner {
            let mut best_idx = 0usize;
            let mut best = a[o * n * inner + i];
            for j in 1..n {
                let v = a[(o * n + j) * inner + i];
                let better = match op {
                    ArgReduceOp::ArgMax => v > best,
                    ArgReduceOp::ArgMin => v < best,
                };
                if better {
                    best = v;
                    best_idx = j;
                }
            }
            out[o * inner + i] = best_idx as i32;
        }
    }
    out
}

/// Batched matrix multiply `[batch, m, k] x [batch, k, n]`.
#[allow(clippy::too_many_arguments)]
pub fn matmul(
    a: &[f32],
    b: &[f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    transpose_a: bool,
    transpose_b: bool,
) -> Vec<f32> {
    matmul_sums(a, b, (batch, m, k, n), (transpose_a, transpose_b), None)
}

/// `Σₚ a·b` of every output of a batched matmul, a row of `n` at a time: `p`
/// runs outside the row, so each output adds its products in `p` order. A
/// batch-1 `b` broadcasts across the batch. With `a_sums`, also each row's
/// `Σₚ a`, in the same order.
fn matmul_sums<B: Copy + Into<f32>>(
    a: &[f32],
    b: &[B],
    (batch, m, k, n): (usize, usize, usize, usize),
    (transpose_a, transpose_b): (bool, bool),
    mut a_sums: Option<&mut [f32]>,
) -> Vec<f32> {
    let mut out = vec![0.0f32; batch * m * n];
    for bi in 0..batch {
        let b = &b[if b.len() == k * n { 0 } else { bi * k * n }..];
        for i in 0..m {
            let row = &mut out[(bi * m + i) * n..][..n];
            for p in 0..k {
                let av =
                    if transpose_a { a[(bi * k + p) * m + i] } else { a[(bi * m + i) * k + p] };
                if let Some(sums) = a_sums.as_deref_mut() {
                    sums[bi * m + i] += av;
                }
                if transpose_b {
                    let column = b.iter().skip(p).step_by(k);
                    row.iter_mut().zip(column).for_each(|(acc, &bv)| *acc += av * bv.into());
                } else {
                    let bs = &b[p * n..][..n];
                    row.iter_mut().zip(bs).for_each(|(acc, &bv)| *acc += av * bv.into());
                }
            }
        }
    }
    out
}

/// Whether `params` can drive a factored (dequant-free) kernel whose
/// accumulation keeps one `(scale, min)` pair per output element: per-tensor
/// always can; per-channel only when the channel axis is `axis` with exactly
/// `channels` entries, so scale/min are constant over the inner loop.
pub fn quant_axis_ok(params: &QuantParams, axis: usize, channels: usize) -> bool {
    match params {
        QuantParams::PerTensor { .. } => true,
        QuantParams::PerChannel { axis: a, scales, .. } => *a == axis && scales.len() == channels,
    }
}

/// Quantized-weight fused matmul: f32 `a` times raw u8 codes `b_q` carrying
/// affine `params` (`value = code*scale + min`), with the shared fused
/// epilogue. Dequant-free — no f32 weight buffer is materialized; instead
/// the inner loop keeps two accumulators and factors the affine map out of
/// the dot product:
///
/// ```text
/// Σₚ aₚ·(qₚ·s + m)  =  s·Σₚ aₚqₚ  +  m·Σₚ aₚ
/// ```
///
/// Per-channel `params` index the output-column axis `j` (callers guarantee
/// `channel_count == n` via [`quant_axis_ok`]). Epilogue order matches the
/// fused f32 kernels: full accumulation, then `+ bias[j]`, then activation,
/// through [`BinaryOp::apply`] / [`UnaryOp::apply`].
#[allow(clippy::too_many_arguments)]
pub fn fused_matmul_quant(
    a: &[f32],
    b_q: &[u8],
    params: &QuantParams,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    transpose_a: bool,
    transpose_b: bool,
) -> Vec<f32> {
    let mut a_sums = vec![0.0f32; batch * m];
    let geom = (batch, m, k, n);
    let mut out = matmul_sums(a, b_q, geom, (transpose_a, transpose_b), Some(&mut a_sums));
    finish_quant(&mut out, n, &a_sums, |j| params.scale_min(j), bias, activation);
    out
}

/// The U8 products' epilogue, in place, a row of `channels` outputs at a
/// time: output `j` of row `r`, holding `Σ x·q`, becomes `s·Σxq + m·Σx` with
/// `(s, m) = scale_min(j)` and `Σx` row `r`'s sum of group `j·g / channels`
/// (`x_sums` holds `g` per row), then `+ bias[j]`, then the activation.
fn finish_quant(
    out: &mut [f32],
    channels: usize,
    x_sums: &[f32],
    scale_min: impl Fn(usize) -> (f32, f32),
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
) {
    if out.is_empty() {
        return;
    }
    let groups = x_sums.len() / (out.len() / channels);
    let per_channel: Vec<_> =
        (0..channels).map(|j| (scale_min(j), j * groups / channels)).collect();
    for (row, sums) in out.chunks_exact_mut(channels).zip(x_sums.chunks_exact(groups)) {
        for (j, (v, &((s, mn), group))) in row.iter_mut().zip(&per_channel).enumerate() {
            *v = s * *v + mn * sums[group];
            if let Some(bias) = bias {
                *v = BinaryOp::Add.apply(*v, bias[j]);
            }
            if let Some(act) = activation {
                *v = act.apply(*v);
            }
        }
    }
}

/// Fully-integer quantized matmul `[b,m,k] x [b,k,n]`: *both* operands are
/// u8 codes, and all three data-dependent sums accumulate in `i32`:
///
/// ```text
/// Σ (qa·sa+ma)(qb·sb+mb) = sa·sb·Σqa·qb + sa·mb·Σqa + ma·sb·Σqb + k·ma·mb
/// ```
///
/// The affine expansion is applied once per output in f32. Overflow bound:
/// each product is at most `255·255`, so `k · 255·255 ≤ i32::MAX` holds for
/// `k ≤ 33025` — far above any inner dimension in the bundled models
/// (debug-asserted).
#[allow(clippy::too_many_arguments)]
pub fn matmul_q8_i32(
    a_q: &[u8],
    (a_scale, a_min): (f32, f32),
    b_q: &[u8],
    (b_scale, b_min): (f32, f32),
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    debug_assert!(k <= 33_025, "i32 accumulator would overflow: k={k} > 33025");
    let mut out = vec![0.0f32; batch * m * n];
    for bi in 0..batch {
        let a_off = bi * m * k;
        let b_off = bi * k * n;
        let o_off = bi * m * n;
        for i in 0..m {
            let mut sum_a = 0i32;
            for p in 0..k {
                sum_a += a_q[a_off + i * k + p] as i32;
            }
            for j in 0..n {
                let mut dot = 0i32;
                let mut sum_b = 0i32;
                for p in 0..k {
                    let qa = a_q[a_off + i * k + p] as i32;
                    let qb = b_q[b_off + p * n + j] as i32;
                    dot += qa * qb;
                    sum_b += qb;
                }
                out[o_off + i * n + j] = a_scale * b_scale * dot as f32
                    + a_scale * b_min * sum_a as f32
                    + a_min * b_scale * sum_b as f32
                    + k as f32 * a_min * b_min;
            }
        }
    }
    out
}

/// Every in-bounds tap of every conv output pixel: pixels in `(b, oh, ow)`
/// order and each pixel's taps in `(fh, fw)` order, as `tap(pixel, t, input)`
/// with `t = fh · filter_width + fw` and `input` the flat `(b, ih, iw)` index
/// of the input pixel the tap reads. A padding tap is skipped, never read.
fn for_each_tap(c: &Conv2dInfo, mut tap: impl FnMut(usize, usize, usize)) {
    let mut pixel = 0;
    for b in 0..c.batch {
        for oh in 0..c.out_height {
            for ow in 0..c.out_width {
                for fh in 0..c.filter_height {
                    let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                    if ih < 0 || ih >= c.in_height as isize {
                        continue;
                    }
                    for fw in 0..c.filter_width {
                        let iw =
                            (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                        if iw < 0 || iw >= c.in_width as isize {
                            continue;
                        }
                        let input = (b * c.in_height + ih as usize) * c.in_width + iw as usize;
                        tap(pixel, fh * c.filter_width + fw, input);
                    }
                }
                pixel += 1;
            }
        }
    }
}

/// A zero gradient adds no term: `acc + g·v` unless `g == 0`. A select, not
/// a branch, so a row of them vectorises.
#[inline]
fn add_term(acc: f32, g: f32, v: f32) -> f32 {
    if g != 0.0 {
        acc + g * v
    } else {
        acc
    }
}

/// 2-D convolution, NHWC input, HWIO filter.
pub fn conv2d(x: &[f32], w: &[f32], info: &Conv2dInfo) -> Vec<f32> {
    conv2d_sums(x, w, info, None)
}

/// `Σ x·w` of every conv output, a row of output channels at a time, each
/// output adding its products in `(fh, fw, ic)` order. With `x_sums`, also
/// each pixel's `Σ x` over the same taps, in the same order.
fn conv2d_sums<W: Copy + Into<f32>>(
    x: &[f32],
    w: &[W],
    c: &Conv2dInfo,
    mut x_sums: Option<&mut [f32]>,
) -> Vec<f32> {
    let (ic_n, oc_n) = (c.in_channels, c.out_channels);
    let mut out = vec![0.0f32; c.batch * c.out_height * c.out_width * oc_n];
    for_each_tap(c, |pixel, t, input| {
        let (row, xs) = (&mut out[pixel * oc_n..][..oc_n], &x[input * ic_n..][..ic_n]);
        for (ic, &xv) in xs.iter().enumerate() {
            let ws = &w[(t * ic_n + ic) * oc_n..][..oc_n];
            row.iter_mut().zip(ws).for_each(|(acc, &wv)| *acc += xv * wv.into());
        }
        if let Some(sums) = x_sums.as_deref_mut() {
            xs.iter().for_each(|&xv| sums[pixel] += xv);
        }
    });
    out
}

/// Quantized-filter fused conv2d (see [`fused_matmul_quant`]): NHWC `x`
/// against raw u8 HWIO codes. Per output position the valid-tap input sum
/// `Σ x` is shared across output channels; per-channel `params` index the
/// HWIO output-channel axis 3 (callers guarantee via [`quant_axis_ok`]).
pub fn fused_conv2d_quant(
    x: &[f32],
    w_q: &[u8],
    params: &QuantParams,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    info: &Conv2dInfo,
) -> Vec<f32> {
    let mut x_sums = vec![0.0f32; info.batch * info.out_height * info.out_width];
    let mut out = conv2d_sums(x, w_q, info, Some(&mut x_sums));
    finish_quant(&mut out, info.out_channels, &x_sums, |j| params.scale_min(j), bias, activation);
    out
}

/// Gradient of [`conv2d`] with respect to its input (scatter form).
pub fn conv2d_backprop_input(dy: &[f32], w: &[f32], info: &Conv2dInfo) -> Vec<f32> {
    let c = info;
    let (ic_n, oc_n) = (c.in_channels, c.out_channels);
    // The filter as `[fh, fw, oc, ic]`, so each gradient's terms are a row.
    let taps = c.filter_height * c.filter_width;
    let w_t = transpose(w, &Shape::new(vec![taps, ic_n, oc_n]), &[0, 2, 1]);
    let mut dx = vec![0.0f32; c.batch * c.in_height * c.in_width * ic_n];
    for_each_tap(c, |pixel, t, input| {
        let dxs = &mut dx[input * ic_n..][..ic_n];
        for (oc, &g) in dy[pixel * oc_n..][..oc_n].iter().enumerate() {
            if g != 0.0 {
                let ws = &w_t[(t * oc_n + oc) * ic_n..][..ic_n];
                dxs.iter_mut().zip(ws).for_each(|(d, &wv)| *d += g * wv);
            }
        }
    });
    dx
}

/// Gradient of [`conv2d`] with respect to its filter.
pub fn conv2d_backprop_filter(x: &[f32], dy: &[f32], info: &Conv2dInfo) -> Vec<f32> {
    let c = info;
    let (ic_n, oc_n) = (c.in_channels, c.out_channels);
    let mut dw = vec![0.0f32; c.filter_height * c.filter_width * ic_n * oc_n];
    for_each_tap(c, |pixel, t, input| {
        let gs = &dy[pixel * oc_n..][..oc_n];
        for (ic, &xv) in x[input * ic_n..][..ic_n].iter().enumerate() {
            let dws = &mut dw[(t * ic_n + ic) * oc_n..][..oc_n];
            dws.iter_mut().zip(gs).for_each(|(d, &g)| *d = add_term(*d, g, xv));
        }
    });
    dw
}

/// Depthwise 2-D convolution; filter is `[fh, fw, in_c, channel_mul]` and
/// output channel `ic * mul + m` only reads input channel `ic`.
pub fn depthwise_conv2d(x: &[f32], w: &[f32], info: &Conv2dInfo) -> Vec<f32> {
    depthwise_sums(x, w, info, None)
}

/// `Σ x·w` of every depthwise output, a row of output channels at a time,
/// each output adding its products in `(fh, fw)` order. With `x_sums`, also
/// each pixel's `Σ x` per input channel over the same taps.
fn depthwise_sums<W: Copy + Into<f32>>(
    x: &[f32],
    w: &[W],
    c: &Conv2dInfo,
    mut x_sums: Option<&mut [f32]>,
) -> Vec<f32> {
    let (ic_n, mul, oc_n) = (c.in_channels, c.channel_mul, c.out_channels);
    let mut out = vec![0.0f32; c.batch * c.out_height * c.out_width * oc_n];
    for_each_tap(c, |pixel, t, input| {
        let (row, xs) = (&mut out[pixel * oc_n..][..oc_n], &x[input * ic_n..][..ic_n]);
        let products = row.iter_mut().zip(&w[t * oc_n..][..oc_n]);
        if mul == 1 {
            products.zip(xs).for_each(|((acc, &wv), &xv)| *acc += xv * wv.into());
        } else {
            products.enumerate().for_each(|(oc, (acc, &wv))| *acc += xs[oc / mul] * wv.into());
        }
        if let Some(sums) = x_sums.as_deref_mut() {
            sums[pixel * ic_n..][..ic_n].iter_mut().zip(xs).for_each(|(s, &xv)| *s += xv);
        }
    });
    out
}

/// Quantized-filter fused depthwise conv2d. Each output channel
/// `oc = ic·mul + m` reads one input channel, so a per-channel scale along
/// filter axis 2 (`ic`) or 3 (`m`) is constant over the accumulation and the
/// factored form still applies; the valid-tap input sum depends on `ic`.
pub fn fused_depthwise_conv2d_quant(
    x: &[f32],
    w_q: &[u8],
    params: &QuantParams,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    info: &Conv2dInfo,
) -> Vec<f32> {
    let mul = info.channel_mul;
    let pixels = info.batch * info.out_height * info.out_width;
    let mut x_sums = vec![0.0f32; pixels * info.in_channels];
    let mut out = depthwise_sums(x, w_q, info, Some(&mut x_sums));
    let by_ic = matches!(params, QuantParams::PerChannel { axis: 2, .. });
    let scale_min = |oc| params.scale_min(if by_ic { oc / mul } else { oc % mul });
    finish_quant(&mut out, info.out_channels, &x_sums, scale_min, bias, activation);
    out
}

/// Gradient of [`depthwise_conv2d`] w.r.t. its input.
pub fn depthwise_conv2d_backprop_input(dy: &[f32], w: &[f32], info: &Conv2dInfo) -> Vec<f32> {
    let c = info;
    let (ic_n, mul, oc_n) = (c.in_channels, c.channel_mul, c.out_channels);
    let mut dx = vec![0.0f32; c.batch * c.in_height * c.in_width * ic_n];
    for_each_tap(c, |pixel, t, input| {
        let dxs = &mut dx[input * ic_n..][..ic_n];
        let terms = dy[pixel * oc_n..][..oc_n].iter().zip(&w[t * oc_n..][..oc_n]);
        if mul == 1 {
            dxs.iter_mut().zip(terms).for_each(|(d, (&g, &wv))| *d = add_term(*d, g, wv));
        } else {
            for (oc, (&g, &wv)) in terms.enumerate() {
                dxs[oc / mul] = add_term(dxs[oc / mul], g, wv);
            }
        }
    });
    dx
}

/// Gradient of [`depthwise_conv2d`] w.r.t. its filter.
pub fn depthwise_conv2d_backprop_filter(x: &[f32], dy: &[f32], info: &Conv2dInfo) -> Vec<f32> {
    let c = info;
    let (ic_n, mul, oc_n) = (c.in_channels, c.channel_mul, c.out_channels);
    let mut dw = vec![0.0f32; c.filter_height * c.filter_width * oc_n];
    for_each_tap(c, |pixel, t, input| {
        let xs = &x[input * ic_n..][..ic_n];
        let terms = dw[t * oc_n..][..oc_n].iter_mut().zip(&dy[pixel * oc_n..][..oc_n]);
        if mul == 1 {
            terms.zip(xs).for_each(|((d, &g), &xv)| *d = add_term(*d, g, xv));
        } else {
            terms.enumerate().for_each(|(oc, (d, &g))| *d = add_term(*d, g, xs[oc / mul]));
        }
    });
    dw
}

/// 2-D max/avg pooling. Average pooling divides by the number of *valid*
/// (in-bounds) window positions, matching TensorFlow's `SAME` semantics.
pub fn pool2d(op: PoolOp, x: &[f32], info: &Conv2dInfo) -> Vec<f32> {
    let c = info;
    let mut out = vec![0.0f32; c.batch * c.out_height * c.out_width * c.out_channels];
    let mut oi = 0;
    for b in 0..c.batch {
        for oh in 0..c.out_height {
            for ow in 0..c.out_width {
                for ch in 0..c.in_channels {
                    let mut acc = match op {
                        PoolOp::Max => f32::NEG_INFINITY,
                        PoolOp::Avg => 0.0,
                    };
                    let mut count = 0usize;
                    for fh in 0..c.filter_height {
                        let ih = (oh * c.stride_h + fh) as isize - c.pad_top as isize;
                        if ih < 0 || ih >= c.in_height as isize {
                            continue;
                        }
                        for fw in 0..c.filter_width {
                            let iw = (ow * c.stride_w + fw) as isize - c.pad_left as isize;
                            if iw < 0 || iw >= c.in_width as isize {
                                continue;
                            }
                            let v = x[((b * c.in_height + ih as usize) * c.in_width + iw as usize)
                                * c.in_channels
                                + ch];
                            match op {
                                PoolOp::Max => acc = acc.max(v),
                                PoolOp::Avg => acc += v,
                            }
                            count += 1;
                        }
                    }
                    out[oi] = match op {
                        PoolOp::Max => acc,
                        PoolOp::Avg => acc / count.max(1) as f32,
                    };
                    oi += 1;
                }
            }
        }
    }
    out
}

/// Gradient of [`pool2d`]: max-pool routes gradient to the first argmax in
/// each window, avg-pool distributes it uniformly over valid positions.
pub fn pool2d_backprop(op: PoolOp, dy: &[f32], x: &[f32], info: &Conv2dInfo) -> Vec<f32> {
    let c = info;
    let mut dx = vec![0.0f32; c.batch * c.in_height * c.in_width * c.in_channels];
    let mut di = 0;
    for b in 0..c.batch {
        for oh in 0..c.out_height {
            for ow in 0..c.out_width {
                for ch in 0..c.in_channels {
                    let g = dy[di];
                    di += 1;
                    // Collect valid window positions.
                    let mut best_idx = usize::MAX;
                    let mut best = f32::NEG_INFINITY;
                    let mut valid = Vec::new();
                    for fh in 0..c.filter_height {
                        let ih = (oh * c.stride_h + fh) as isize - c.pad_top as isize;
                        if ih < 0 || ih >= c.in_height as isize {
                            continue;
                        }
                        for fw in 0..c.filter_width {
                            let iw = (ow * c.stride_w + fw) as isize - c.pad_left as isize;
                            if iw < 0 || iw >= c.in_width as isize {
                                continue;
                            }
                            let idx = ((b * c.in_height + ih as usize) * c.in_width + iw as usize)
                                * c.in_channels
                                + ch;
                            valid.push(idx);
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    match op {
                        PoolOp::Max => {
                            if best_idx != usize::MAX {
                                dx[best_idx] += g;
                            }
                        }
                        PoolOp::Avg => {
                            let share = g / valid.len().max(1) as f32;
                            for idx in valid {
                                dx[idx] += share;
                            }
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Contiguous slice.
pub fn slice(x: &[f32], shape: &Shape, begin: &[usize], size: &[usize]) -> Vec<f32> {
    let mut out = vec![0.0f32; size.iter().product()];
    let strides = shape.strides();
    for_each_coord(size, |idx, coords| {
        let src: usize = coords.iter().zip(begin).zip(&strides).map(|((&c, &b), &s)| (c + b) * s).sum();
        out[idx] = x[src];
    });
    out
}

/// Concatenate along `axis`.
pub fn concat(xs: &[(&[f32], &Shape)], axis: usize) -> Vec<f32> {
    let first = xs[0].1;
    let outer: usize = first.dims()[..axis].iter().product();
    let inner: usize = first.dims()[axis + 1..].iter().product();
    let total_axis: usize = xs.iter().map(|(_, s)| s.dim(axis)).sum();
    let mut out = vec![0.0f32; outer * total_axis * inner];
    let mut axis_off = 0;
    for (data, s) in xs {
        let n = s.dim(axis);
        for o in 0..outer {
            let src = o * n * inner;
            let dst = (o * total_axis + axis_off) * inner;
            out[dst..dst + n * inner].copy_from_slice(&data[src..src + n * inner]);
        }
        axis_off += n;
    }
    out
}

/// Permute dimensions.
pub fn transpose(x: &[f32], shape: &Shape, perm: &[usize]) -> Vec<f32> {
    let in_strides = shape.strides();
    let out_dims: Vec<usize> = perm.iter().map(|&p| shape.dim(p)).collect();
    let src_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let mut out = vec![0.0f32; shape.size()];
    for_each_coord(&out_dims, |idx, coords| {
        let src: usize = coords.iter().zip(&src_strides).map(|(&c, &s)| c * s).sum();
        out[idx] = x[src];
    });
    out
}

/// Constant-pad.
pub fn pad(x: &[f32], shape: &Shape, paddings: &[(usize, usize)], value: f32) -> Vec<f32> {
    let out_dims: Vec<usize> = shape
        .dims()
        .iter()
        .zip(paddings)
        .map(|(&d, &(b, a))| d + b + a)
        .collect();
    let out_size: usize = out_dims.iter().product();
    let mut out = vec![value; out_size];
    let in_strides = shape.strides();
    let out_shape = Shape::new(out_dims);
    let out_strides = out_shape.strides();
    for_each_coord(shape.dims(), |idx, coords| {
        let dst: usize = coords
            .iter()
            .zip(paddings)
            .zip(&out_strides)
            .map(|((&c, &(b, _)), &s)| (c + b) * s)
            .sum();
        out[dst] = x[idx];
    });
    let _ = in_strides;
    out
}

/// Gather slices along `axis` by integer indices.
pub fn gather(x: &[f32], shape: &Shape, indices: &[i32], axis: usize) -> Vec<f32> {
    let outer: usize = shape.dims()[..axis].iter().product();
    let n = shape.dim(axis);
    let inner: usize = shape.dims()[axis + 1..].iter().product();
    let mut out = vec![0.0f32; outer * indices.len() * inner];
    for o in 0..outer {
        for (k, &ix) in indices.iter().enumerate() {
            let ix = ix.rem_euclid(n as i32) as usize;
            let src = (o * n + ix) * inner;
            let dst = (o * indices.len() + k) * inner;
            out[dst..dst + inner].copy_from_slice(&x[src..src + inner]);
        }
    }
    out
}

/// Tile each dimension `reps[i]` times.
pub fn tile(x: &[f32], shape: &Shape, reps: &[usize]) -> Vec<f32> {
    let out_dims: Vec<usize> = shape.dims().iter().zip(reps).map(|(&d, &r)| d * r).collect();
    let in_strides = shape.strides();
    let out_size: usize = out_dims.iter().product();
    let mut out = vec![0.0f32; out_size];
    for_each_coord(&out_dims, |idx, coords| {
        let src: usize = coords
            .iter()
            .zip(shape.dims())
            .zip(&in_strides)
            .map(|((&c, &d), &s)| (c % d) * s)
            .sum();
        out[idx] = x[src];
    });
    out
}

/// Reverse along the given axes.
pub fn reverse(x: &[f32], shape: &Shape, axes: &[usize]) -> Vec<f32> {
    let strides = shape.strides();
    let mut out = vec![0.0f32; shape.size()];
    for_each_coord(shape.dims(), |idx, coords| {
        let src: usize = coords
            .iter()
            .enumerate()
            .zip(&strides)
            .map(|((d, &c), &s)| {
                let c = if axes.contains(&d) { shape.dim(d) - 1 - c } else { c };
                c * s
            })
            .sum();
        out[idx] = x[src];
    });
    out
}

/// Element-wise select with broadcasting: `cond ? a : b`.
pub fn select(
    cond: &[f32],
    cond_shape: &Shape,
    a: &[f32],
    a_shape: &Shape,
    b: &[f32],
    b_shape: &Shape,
    out_shape: &Shape,
) -> Vec<f32> {
    let mut out = vec![0.0f32; out_shape.size()];
    for_each_coord(out_shape.dims(), |idx, coords| {
        let ci = broadcast_source_index(coords, cond_shape);
        out[idx] = if cond[ci] != 0.0 {
            a[broadcast_source_index(coords, a_shape)]
        } else {
            b[broadcast_source_index(coords, b_shape)]
        };
    });
    out
}

/// One-hot encode integer indices into a trailing dim of `depth`.
pub fn one_hot(indices: &[i32], depth: usize, on: f32, off: f32) -> Vec<f32> {
    let mut out = vec![off; indices.len() * depth];
    for (i, &ix) in indices.iter().enumerate() {
        if ix >= 0 && (ix as usize) < depth {
            out[i * depth + ix as usize] = on;
        }
    }
    out
}

/// Bilinear resize of an NHWC tensor, with TensorFlow `align_corners`.
pub fn resize_bilinear(
    x: &[f32],
    shape: &Shape,
    new_h: usize,
    new_w: usize,
    align_corners: bool,
) -> Vec<f32> {
    let (batch, in_h, in_w, c) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
    let scale = |out_size: usize, in_size: usize| -> f32 {
        if align_corners && out_size > 1 {
            (in_size - 1) as f32 / (out_size - 1) as f32
        } else {
            in_size as f32 / out_size as f32
        }
    };
    let h_scale = scale(new_h, in_h);
    let w_scale = scale(new_w, in_w);
    let mut out = vec![0.0f32; batch * new_h * new_w * c];
    let mut oi = 0;
    for b in 0..batch {
        for oh in 0..new_h {
            let src_h = if align_corners { oh as f32 * h_scale } else { (oh as f32 + 0.5) * h_scale - 0.5 };
            let src_h = src_h.max(0.0);
            let h0 = (src_h.floor() as usize).min(in_h - 1);
            let h1 = (h0 + 1).min(in_h - 1);
            let hf = src_h - h0 as f32;
            for ow in 0..new_w {
                let src_w =
                    if align_corners { ow as f32 * w_scale } else { (ow as f32 + 0.5) * w_scale - 0.5 };
                let src_w = src_w.max(0.0);
                let w0 = (src_w.floor() as usize).min(in_w - 1);
                let w1 = (w0 + 1).min(in_w - 1);
                let wf = src_w - w0 as f32;
                for ch in 0..c {
                    let at = |h: usize, w: usize| x[((b * in_h + h) * in_w + w) * c + ch];
                    let top = at(h0, w0) + (at(h0, w1) - at(h0, w0)) * wf;
                    let bot = at(h1, w0) + (at(h1, w1) - at(h1, w0)) * wf;
                    out[oi] = top + (bot - top) * hf;
                    oi += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(d: &[usize]) -> Shape {
        Shape::new(d.to_vec())
    }

    #[test]
    fn binary_broadcast_row() {
        let out = binary(
            BinaryOp::Add,
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            &s(&[2, 3]),
            &[10.0, 20.0, 30.0],
            &s(&[3]),
            &s(&[2, 3]),
        );
        assert_eq!(out, vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn reduce_sum_axis0() {
        let out = reduce(ReduceOp::Sum, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &s(&[2, 3]), &[0]);
        assert_eq!(out, vec![5.0, 7.0, 9.0]);
    }

    /// `reduce` as one loop per output over every input in ascending index.
    fn reduce_per_output(op: ReduceOp, a: &[f32], shape: &Shape, axes: &[usize]) -> Vec<f32> {
        let dims = shape.dims();
        let kept: Vec<usize> = (0..dims.len()).filter(|i| !axes.contains(i)).collect();
        let out_size: usize = kept.iter().map(|&i| dims[i]).product();
        let count = axes.iter().map(|&i| dims[i]).product::<usize>().max(1);
        let out_of = |coords: &[usize]| kept.iter().fold(0, |flat, &i| flat * dims[i] + coords[i]);
        let output = |o| {
            let mut acc = op.init();
            for_each_coord(dims, |idx, coords| {
                if out_of(coords) == o {
                    acc = op.combine(acc, a[idx]);
                }
            });
            op.finalize(acc, count)
        };
        (0..out_size.max(1)).map(output).collect()
    }

    #[test]
    fn reduce_equals_a_per_output_ascending_loop_on_bits() {
        use ReduceOp::*;
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        let value = |i: usize| match i % 3 {
            0 => specials[i / 3 % 5],
            _ => (i as f32 * 0.37).sin() * 3.0,
        };
        // Every NaN as one: Rust leaves the sign and payload of a NaN result
        // unspecified, and an optimised build may swap a product's operands.
        let bits = |v: &[f32]| {
            v.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect::<Vec<_>>()
        };
        // Leading, middle, trailing and whole runs of axes, and one set that
        // is not a run; zero-size dims kept and reduced.
        let cases: [(&[usize], &[&[usize]]); 5] = [
            (&[2, 3, 4, 5], &[&[0], &[0, 1], &[1], &[1, 2], &[2, 3], &[3], &[0, 1, 2, 3], &[0, 2]]),
            (&[7], &[&[0]]),
            (&[3, 0, 2], &[&[0], &[1], &[1, 2], &[2], &[0, 2]]),
            (&[0, 3], &[&[0], &[1], &[0, 1]]),
            (&[4, 1, 6], &[&[1], &[0, 1], &[1, 2]]),
        ];
        for (dims, axis_sets) in cases {
            let shape = s(dims);
            let a: Vec<f32> = (0..shape.size()).map(value).collect();
            for axes in axis_sets {
                for op in [Sum, Mean, Prod, Max, Min, Any, All] {
                    let (got, want) =
                        (reduce(op, &a, &shape, axes), reduce_per_output(op, &a, &shape, axes));
                    assert_eq!(bits(&got), bits(&want), "{op:?} of {dims:?} over {axes:?}");
                }
            }
        }
    }

    #[test]
    fn reduce_mean_all() {
        let out = reduce(ReduceOp::Mean, &[1.0, 2.0, 3.0, 4.0], &s(&[2, 2]), &[0, 1]);
        assert_eq!(out, vec![2.5]);
    }

    #[test]
    fn arg_reduce_middle_axis() {
        // shape [2,3]: argmax along axis 1.
        let out = arg_reduce(ArgReduceOp::ArgMax, &[1.0, 9.0, 3.0, 7.0, 2.0, 8.0], &s(&[2, 3]), 1);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn matmul_identity() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let eye = vec![1.0, 0.0, 0.0, 1.0];
        assert_eq!(matmul(&a, &eye, 1, 2, 2, 2, false, false), a);
    }

    #[test]
    fn matmul_transpose_flags() {
        // a = [[1,2],[3,4]]; a^T x a = [[10,14],[14,20]].
        let a = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(matmul(&a, &a, 1, 2, 2, 2, true, false), vec![10.0, 14.0, 14.0, 20.0]);
        // a x a^T = [[5,11],[11,25]].
        assert_eq!(matmul(&a, &a, 1, 2, 2, 2, false, true), vec![5.0, 11.0, 11.0, 25.0]);
    }

    /// Host-side dequantize reference used by the quant-kernel tests.
    fn deq(q: &[u8], scale: f32, min: f32) -> Vec<f32> {
        q.iter().map(|&c| c as f32 * scale + min).collect()
    }

    #[test]
    fn fused_matmul_quant_matches_dequantized_reference() {
        // a: [1,2,3], b codes: [1,3,2] with scale 0.5 min -1.
        let a = vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5];
        let b_q: Vec<u8> = vec![0, 100, 255, 17, 64, 200];
        let (scale, min) = (0.5f32, -1.0f32);
        let params = QuantParams::per_tensor(scale, min);
        let bias = vec![0.25, -0.5];
        let expect_pre = matmul(&a, &deq(&b_q, scale, min), 1, 2, 3, 2, false, false);
        let got = fused_matmul_quant(
            &a,
            &b_q,
            &params,
            Some(&bias),
            Some(UnaryOp::Relu),
            1,
            2,
            3,
            2,
            false,
            false,
        );
        for (i, g) in got.iter().enumerate() {
            let want = UnaryOp::Relu.apply(expect_pre[i] + bias[i % 2]);
            assert!((g - want).abs() < 1e-4, "out[{i}]: {g} vs {want}");
        }
    }

    #[test]
    fn fused_matmul_quant_per_channel_columns() {
        // Two output columns with very different scales; per-tensor would
        // clamp the small-scale column badly.
        let a = vec![1.0, 1.0];
        let b_q: Vec<u8> = vec![200, 10, 100, 20];
        let params = QuantParams::per_channel(2, vec![0.01, 10.0], vec![0.0, -50.0]);
        let got = fused_matmul_quant(&a, &b_q, &params, None, None, 1, 1, 2, 2, false, false);
        let want0 = (200.0 + 100.0) * 0.01;
        let want1 = (10.0f32 * 10.0 - 50.0) + (20.0 * 10.0 - 50.0);
        assert!((got[0] - want0).abs() < 1e-4);
        assert!((got[1] - want1).abs() < 1e-3);
    }

    #[test]
    fn matmul_q8_i32_matches_dequantized_reference() {
        let a_q: Vec<u8> = (0..6).map(|i| (i * 40) as u8).collect();
        let b_q: Vec<u8> = (0..6).map(|i| 255 - (i * 30) as u8).collect();
        let (sa, ma) = (0.03f32, -2.0f32);
        let (sb, mb) = (0.7f32, 1.0f32);
        let got = matmul_q8_i32(&a_q, (sa, ma), &b_q, (sb, mb), 1, 2, 3, 2);
        let want = matmul(&deq(&a_q, sa, ma), &deq(&b_q, sb, mb), 1, 2, 3, 2, false, false);
        for (g, w) in got.iter().zip(&want) {
            // The i32 path regroups the sums; agreement is to f32 rounding.
            assert!((g - w).abs() < 1e-2 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn fused_conv2d_quant_matches_dequantized_reference() {
        use crate::conv_util::{conv2d_info, Padding};
        let info =
            conv2d_info("t", &s(&[1, 3, 3, 2]), &s(&[2, 2, 2, 3]), (1, 1), Padding::Same, (1, 1))
                .unwrap();
        let x: Vec<f32> = (0..18).map(|i| (i as f32 * 0.37).sin()).collect();
        let w_q: Vec<u8> = (0..24).map(|i| ((i * 11) % 256) as u8).collect();
        let (scale, min) = (0.02f32, -2.5f32);
        let params = QuantParams::per_tensor(scale, min);
        let bias = vec![0.1, -0.2, 0.3];
        let pre = conv2d(&x, &deq(&w_q, scale, min), &info);
        let got = fused_conv2d_quant(&x, &w_q, &params, Some(&bias), Some(UnaryOp::Relu6), &info);
        for (i, g) in got.iter().enumerate() {
            let want = UnaryOp::Relu6.apply(pre[i] + bias[i % 3]);
            assert!((g - want).abs() < 1e-3, "out[{i}]: {g} vs {want}");
        }
    }

    #[test]
    fn fused_conv2d_quant_per_channel_axis3() {
        use crate::conv_util::{conv2d_info, Padding};
        let info =
            conv2d_info("t", &s(&[1, 2, 2, 1]), &s(&[1, 1, 1, 2]), (1, 1), Padding::Valid, (1, 1))
                .unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let w_q: Vec<u8> = vec![10, 200];
        let params = QuantParams::per_channel(3, vec![0.1, 0.001], vec![0.0, 0.5]);
        let got = fused_conv2d_quant(&x, &w_q, &params, None, None, &info);
        // Channel 0 weight = 1.0, channel 1 weight = 0.7.
        for (i, &xv) in x.iter().enumerate() {
            assert!((got[2 * i] - xv * 1.0).abs() < 1e-5);
            assert!((got[2 * i + 1] - xv * 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn fused_depthwise_conv2d_quant_matches_dequantized_reference() {
        use crate::conv_util::{depthwise_conv2d_info, Padding};
        let info = depthwise_conv2d_info(
            "t",
            &s(&[1, 3, 3, 2]),
            &s(&[2, 2, 2, 2]),
            (1, 1),
            Padding::Same,
            (1, 1),
        )
        .unwrap();
        let x: Vec<f32> = (0..18).map(|i| (i as f32 * 0.21).cos()).collect();
        let w_q: Vec<u8> = (0..16).map(|i| ((i * 37) % 256) as u8).collect();
        let (scale, min) = (0.015f32, -1.9f32);
        let pre = depthwise_conv2d(&x, &deq(&w_q, scale, min), &info);
        // Per-channel along the input-channel axis (2): both channels get
        // the same scale here so the f32 reference still applies.
        let params = QuantParams::per_channel(2, vec![scale, scale], vec![min, min]);
        let got = fused_depthwise_conv2d_quant(&x, &w_q, &params, None, Some(UnaryOp::Tanh), &info);
        for (i, g) in got.iter().enumerate() {
            let want = UnaryOp::Tanh.apply(pre[i]);
            assert!((g - want).abs() < 1e-3, "out[{i}]: {g} vs {want}");
        }
    }

    #[test]
    fn quant_axis_ok_gates_factored_kernels() {
        let pt = QuantParams::per_tensor(1.0, 0.0);
        assert!(quant_axis_ok(&pt, 3, 7));
        let pc = QuantParams::per_channel(3, vec![1.0; 4], vec![0.0; 4]);
        assert!(quant_axis_ok(&pc, 3, 4));
        assert!(!quant_axis_ok(&pc, 2, 4), "wrong axis must fall back");
        assert!(!quant_axis_ok(&pc, 3, 5), "wrong channel count must fall back");
    }

    #[test]
    fn conv2d_identity_filter() {
        use crate::conv_util::{conv2d_info, Padding};
        let info = conv2d_info("t", &s(&[1, 3, 3, 1]), &s(&[1, 1, 1, 1]), (1, 1), Padding::Valid, (1, 1))
            .unwrap();
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        assert_eq!(conv2d(&x, &[1.0], &info), x);
    }

    #[test]
    fn conv2d_sum_filter_same_padding() {
        use crate::conv_util::{conv2d_info, Padding};
        let info = conv2d_info("t", &s(&[1, 3, 3, 1]), &s(&[3, 3, 1, 1]), (1, 1), Padding::Same, (1, 1))
            .unwrap();
        let x = vec![1.0f32; 9];
        let w = vec![1.0f32; 9];
        let out = conv2d(&x, &w, &info);
        // Center sees 9 ones; corners see 4; edges see 6.
        assert_eq!(out[4], 9.0);
        assert_eq!(out[0], 4.0);
        assert_eq!(out[1], 6.0);
    }

    #[test]
    fn conv_grads_match_finite_difference() {
        use crate::conv_util::{conv2d_info, Padding};
        let info = conv2d_info("t", &s(&[1, 4, 4, 2]), &s(&[3, 3, 2, 3]), (1, 1), Padding::Same, (1, 1))
            .unwrap();
        let nx = 32;
        let nw = 54;
        let x: Vec<f32> = (0..nx).map(|i| (i as f32 * 0.37).sin()).collect();
        let w: Vec<f32> = (0..nw).map(|i| (i as f32 * 0.13).cos()).collect();
        let dy: Vec<f32> = (0..48).map(|i| (i as f32 * 0.7).sin()).collect();
        let loss = |x: &[f32], w: &[f32]| -> f32 {
            conv2d(x, w, &info).iter().zip(&dy).map(|(a, b)| a * b).sum()
        };
        let dx = conv2d_backprop_input(&dy, &w, &info);
        let dw = conv2d_backprop_filter(&x, &dy, &info);
        let eps = 1e-2;
        for i in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let fd = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((fd - dx[i]).abs() < 1e-2, "dx[{i}]: fd={fd} analytic={}", dx[i]);
        }
        for i in [0usize, 10, 33, 53] {
            let mut wp = w.to_vec();
            wp[i] += eps;
            let mut wm = w.to_vec();
            wm[i] -= eps;
            let fd = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((fd - dw[i]).abs() < 1e-2, "dw[{i}]: fd={fd} analytic={}", dw[i]);
        }
    }

    #[test]
    fn depthwise_matches_manual() {
        use crate::conv_util::{depthwise_conv2d_info, Padding};
        let info = depthwise_conv2d_info(
            "t",
            &s(&[1, 2, 2, 2]),
            &s(&[1, 1, 2, 1]),
            (1, 1),
            Padding::Valid,
            (1, 1),
        )
        .unwrap();
        // 1x1 depthwise with weights [2, 3] scales each channel.
        let x = vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0];
        let w = vec![2.0, 3.0];
        let out = depthwise_conv2d(&x, &w, &info);
        assert_eq!(out, vec![2.0, 30.0, 4.0, 60.0, 6.0, 90.0, 8.0, 120.0]);
    }

    #[test]
    fn maxpool_and_backprop() {
        use crate::conv_util::{pool2d_info, Padding};
        let info = pool2d_info("t", &s(&[1, 2, 2, 1]), (2, 2), (2, 2), Padding::Valid).unwrap();
        let x = vec![1.0, 3.0, 2.0, 4.0];
        assert_eq!(pool2d(PoolOp::Max, &x, &info), vec![4.0]);
        let dx = pool2d_backprop(PoolOp::Max, &[1.0], &x, &info);
        assert_eq!(dx, vec![0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn avgpool_same_counts_valid_only() {
        use crate::conv_util::{pool2d_info, Padding};
        let info = pool2d_info("t", &s(&[1, 2, 2, 1]), (2, 2), (1, 1), Padding::Same).unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let out = pool2d(PoolOp::Avg, &x, &info);
        // Window at (1,1) only covers element 4.
        assert_eq!(out[3], 4.0);
        assert_eq!(out[0], 2.5);
    }

    #[test]
    fn slice_middle() {
        let x: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let out = slice(&x, &s(&[3, 4]), &[1, 1], &[2, 2]);
        assert_eq!(out, vec![5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn concat_axis1() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0];
        let sa = s(&[2, 2]);
        let sb = s(&[2, 1]);
        let out = concat(&[(&a[..], &sa), (&b[..], &sb)], 1);
        assert_eq!(out, vec![1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn transpose_2d() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(transpose(&x, &s(&[2, 3]), &[1, 0]), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_3d_rotation() {
        let x: Vec<f32> = (0..8).map(|v| v as f32).collect();
        let out = transpose(&x, &s(&[2, 2, 2]), &[2, 0, 1]);
        assert_eq!(out, vec![0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn pad_2d() {
        let out = pad(&[1.0, 2.0], &s(&[1, 2]), &[(1, 0), (0, 1)], 9.0);
        assert_eq!(out, vec![9.0, 9.0, 9.0, 1.0, 2.0, 9.0]);
    }

    #[test]
    fn gather_rows() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let out = gather(&x, &s(&[3, 2]), &[2, 0], 0);
        assert_eq!(out, vec![5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn tile_2d() {
        let out = tile(&[1.0, 2.0], &s(&[1, 2]), &[2, 2]);
        assert_eq!(out, vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn reverse_axis() {
        let out = reverse(&[1.0, 2.0, 3.0, 4.0], &s(&[2, 2]), &[1]);
        assert_eq!(out, vec![2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn select_broadcasts_condition() {
        let out = select(
            &[1.0, 0.0],
            &s(&[2, 1]),
            &[1.0, 2.0, 3.0, 4.0],
            &s(&[2, 2]),
            &[9.0, 9.0, 9.0, 9.0],
            &s(&[2, 2]),
            &s(&[2, 2]),
        );
        assert_eq!(out, vec![1.0, 2.0, 9.0, 9.0]);
    }

    #[test]
    fn one_hot_basic() {
        assert_eq!(one_hot(&[1, 0, 3], 3, 1.0, 0.0), vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn resize_bilinear_doubles() {
        let x = vec![0.0, 1.0, 2.0, 3.0];
        let out = resize_bilinear(&x, &s(&[1, 2, 2, 1]), 4, 4, false);
        assert_eq!(out.len(), 16);
        // Corners equal the corner pixels (half-pixel model clamps).
        assert_eq!(out[0], 0.0);
        assert_eq!(out[15], 3.0);
    }

    #[test]
    fn resize_bilinear_align_corners_interpolates_ends() {
        let x = vec![0.0, 3.0];
        let out = resize_bilinear(&x, &s(&[1, 1, 2, 1]), 1, 4, true);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0]);
    }

    /// `n` values from `seed`: about one in six an IEEE corner (±0, ±inf,
    /// NaN), the rest finite over sixteen binades, so a changed summation
    /// order rounds differently. With `zeros`, every third value is ±0 too.
    fn operand(seed: u64, n: usize, zeros: bool) -> Vec<f32> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let finite = |h: u64| ((h >> 8) % 2001) as f32 / 1000.0 - 1.0;
        let value = |h: u64| match h % 32 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            _ => finite(h) * 2f32.powi((h >> 20) as i32 % 16 - 8),
        };
        let zero = |h: u64| [0.0, -0.0][(h >> 2) as usize % 2];
        let one = |h: u64| if zeros && h.is_multiple_of(3) { zero(h) } else { value(h >> 2) };
        (0..n).map(|_| one(next())).collect()
    }

    /// Bits with every NaN as one: Rust leaves a NaN result's sign and
    /// payload unspecified.
    fn nan_blind(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Every product kernel against its first form in `old`, on bits.
        #[test]
        fn reference_products_keep_their_bits(
            batch in 1usize..4,
            hw in proptest::prop::collection::vec(0usize..7, 2..3),
            filter in proptest::prop::collection::vec(1usize..4, 2..3),
            channels in proptest::prop::collection::vec(0usize..4, 3..4),
            steps in proptest::prop::collection::vec(1usize..3, 4..5),
            mkn in proptest::prop::collection::vec(0usize..6, 3..4),
            same in 0usize..2,
            seed in 0u64..1 << 62,
        ) {
            use crate::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};
            let check = |name: &str, got: Vec<f32>, want: Vec<f32>| {
                let same_bits = nan_blind(&got) == nan_blind(&want);
                proptest::prop_assert!(same_bits, "{name}: {got:?} != {want:?}");
                Ok(())
            };
            let (in_c, out_c, mul) = (channels[0], channels[1], channels[2]);
            let same = same == 1 && hw[0] > 0 && hw[1] > 0;
            let pad = if same { Padding::Same } else { Padding::Valid };
            let x_shape = s(&[batch, hw[0], hw[1], in_c]);
            let filter_of = |last| s(&[filter[0], filter[1], in_c, last]);
            let (st, dl) = ((steps[0], steps[1]), (steps[2], steps[3]));
            let conv = conv2d_info("t", &x_shape, &filter_of(out_c), st, pad, dl).unwrap();
            let depthwise =
                depthwise_conv2d_info("t", &x_shape, &filter_of(mul), st, pad, dl).unwrap();
            let x = operand(seed, x_shape.size(), false);
            let codes: Vec<u8> =
                operand(seed ^ 1, 256, false).iter().map(|v| v.to_bits() as u8).collect();
            let bias = operand(seed ^ 2, 16, false);
            let bias = (seed % 2 == 0).then_some(&bias[..]);
            let acts = [None, Some(UnaryOp::Relu), Some(UnaryOp::Relu6), Some(UnaryOp::Tanh)];
            let act = acts[seed as usize / 2 % 4];
            // Per-tensor, then per-channel along `axis` with `n` channels.
            let params = |axis, n| {
                let (scales, mins) = (operand(seed ^ 3, n, false), operand(seed ^ 4, n, false));
                let per_channel = QuantParams::per_channel(axis, scales, mins);
                [QuantParams::per_tensor(0.0173, -1.25), per_channel]
            };

            let c = &conv;
            let w = operand(seed ^ 5, filter_of(out_c).size(), false);
            let dy = operand(seed ^ 6, c.out_shape().size(), true);
            check("conv2d", conv2d(&x, &w, c), old::conv2d(&x, &w, c))?;
            let dx = conv2d_backprop_input(&dy, &w, c);
            check("conv2d_backprop_input", dx, old::conv2d_backprop_input(&dy, &w, c))?;
            let dw = conv2d_backprop_filter(&x, &dy, c);
            check("conv2d_backprop_filter", dw, old::conv2d_backprop_filter(&x, &dy, c))?;
            let w_q = &codes[..w.len()];
            for p in params(3, out_c) {
                let want = old::fused_conv2d_quant(&x, w_q, &p, bias, act, c);
                check("fused_conv2d_quant", fused_conv2d_quant(&x, w_q, &p, bias, act, c), want)?;
            }

            let c = &depthwise;
            let w = operand(seed ^ 7, filter_of(mul).size(), false);
            let dy = operand(seed ^ 8, c.out_shape().size(), true);
            let out = depthwise_conv2d(&x, &w, c);
            check("depthwise_conv2d", out, old::depthwise_conv2d(&x, &w, c))?;
            let dx = depthwise_conv2d_backprop_input(&dy, &w, c);
            check("depthwise_input", dx, old::depthwise_conv2d_backprop_input(&dy, &w, c))?;
            let dw = depthwise_conv2d_backprop_filter(&x, &dy, c);
            check("depthwise_filter", dw, old::depthwise_conv2d_backprop_filter(&x, &dy, c))?;
            let w_q = &codes[..w.len()];
            // Per-tensor, per input channel (axis 2) and per multiplier (axis 3).
            for p in params(2, in_c).into_iter().chain(params(3, mul).into_iter().skip(1)) {
                let got = fused_depthwise_conv2d_quant(&x, w_q, &p, bias, act, c);
                let want = old::fused_depthwise_conv2d_quant(&x, w_q, &p, bias, act, c);
                check("fused_depthwise_quant", got, want)?;
            }

            let (m, k, n) = (mkn[0], mkn[1], mkn[2]);
            let a = operand(seed ^ 9, batch * m * k, false);
            let b = operand(seed ^ 10, batch * k * n, false);
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let want = old::matmul(&a, &b, batch, m, k, n, ta, tb);
                check("matmul", matmul(&a, &b, batch, m, k, n, ta, tb), want)?;
                // A per-batch `b` and a batch-1 one, which broadcasts.
                for bq in [&codes[..batch * k * n], &codes[..k * n]] {
                    for p in params(1, n) {
                        let got = fused_matmul_quant(&a, bq, &p, bias, act, batch, m, k, n, ta, tb);
                        let want =
                            old::fused_matmul_quant(&a, bq, &p, bias, act, batch, m, k, n, ta, tb);
                        check("fused_matmul_quant", got, want)?;
                    }
                }
            }
        }
    }

    /// The product kernels as first written, one scalar dot product (or one
    /// gradient term) at a time: the row forms must keep their bits.
    mod old {
        use super::*;

        #[allow(clippy::too_many_arguments)]
        pub fn matmul(
            a: &[f32],
            b: &[f32],
            batch: usize,
            m: usize,
            k: usize,
            n: usize,
            transpose_a: bool,
            transpose_b: bool,
        ) -> Vec<f32> {
            let mut out = vec![0.0f32; batch * m * n];
            for bi in 0..batch {
                let a_off = bi * m * k;
                let b_off = bi * k * n;
                let o_off = bi * m * n;
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            let av = if transpose_a { a[a_off + p * m + i] } else { a[a_off + i * k + p] };
                            let bv = if transpose_b { b[b_off + j * k + p] } else { b[b_off + p * n + j] };
                            acc += av * bv;
                        }
                        out[o_off + i * n + j] = acc;
                    }
                }
            }
            out
        }

        #[allow(clippy::too_many_arguments)]
        pub fn fused_matmul_quant(
            a: &[f32],
            b_q: &[u8],
            params: &QuantParams,
            bias: Option<&[f32]>,
            activation: Option<UnaryOp>,
            batch: usize,
            m: usize,
            k: usize,
            n: usize,
            transpose_a: bool,
            transpose_b: bool,
        ) -> Vec<f32> {
            let mut out = vec![0.0f32; batch * m * n];
            for bi in 0..batch {
                let a_off = bi * m * k;
                // A batch-1 `b` (the usual weight case) broadcasts across the batch
                // instead of being tiled — tiling would copy the codes.
                let b_off = if b_q.len() == k * n { 0 } else { bi * k * n };
                let o_off = bi * m * n;
                for i in 0..m {
                    // Σₚ aᵢₚ is shared by every output column of row i.
                    let mut acc_a = 0.0f32;
                    for p in 0..k {
                        acc_a += if transpose_a { a[a_off + p * m + i] } else { a[a_off + i * k + p] };
                    }
                    for j in 0..n {
                        let (s, mn) = params.scale_min(j);
                        let mut acc_q = 0.0f32;
                        for p in 0..k {
                            let av = if transpose_a { a[a_off + p * m + i] } else { a[a_off + i * k + p] };
                            let qv =
                                if transpose_b { b_q[b_off + j * k + p] } else { b_q[b_off + p * n + j] };
                            acc_q += av * qv as f32;
                        }
                        let mut v = s * acc_q + mn * acc_a;
                        if let Some(bias) = bias {
                            v = BinaryOp::Add.apply(v, bias[j]);
                        }
                        if let Some(act) = activation {
                            v = act.apply(v);
                        }
                        out[o_off + i * n + j] = v;
                    }
                }
            }
            out
        }

        pub fn fused_conv2d_quant(
            x: &[f32],
            w_q: &[u8],
            params: &QuantParams,
            bias: Option<&[f32]>,
            activation: Option<UnaryOp>,
            info: &Conv2dInfo,
        ) -> Vec<f32> {
            let c = info;
            let mut out = vec![0.0f32; c.batch * c.out_height * c.out_width * c.out_channels];
            let x_strides =
                [c.in_height * c.in_width * c.in_channels, c.in_width * c.in_channels, c.in_channels];
            let w_strides = [
                c.filter_width * c.in_channels * c.out_channels,
                c.in_channels * c.out_channels,
                c.out_channels,
            ];
            let mut acc_q = vec![0.0f32; c.out_channels];
            let mut oi = 0;
            for b in 0..c.batch {
                for oh in 0..c.out_height {
                    for ow in 0..c.out_width {
                        acc_q.iter_mut().for_each(|v| *v = 0.0);
                        let mut acc_x = 0.0f32;
                        for fh in 0..c.filter_height {
                            let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                            if ih < 0 || ih >= c.in_height as isize {
                                continue;
                            }
                            for fw in 0..c.filter_width {
                                let iw =
                                    (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                                if iw < 0 || iw >= c.in_width as isize {
                                    continue;
                                }
                                let x_base = b * x_strides[0]
                                    + ih as usize * x_strides[1]
                                    + iw as usize * x_strides[2];
                                let w_base = fh * w_strides[0] + fw * w_strides[1];
                                for ic in 0..c.in_channels {
                                    let xv = x[x_base + ic];
                                    acc_x += xv;
                                    let wq_base = w_base + ic * w_strides[2];
                                    for (oc, acc) in acc_q.iter_mut().enumerate() {
                                        *acc += xv * w_q[wq_base + oc] as f32;
                                    }
                                }
                            }
                        }
                        for (oc, &aq) in acc_q.iter().enumerate() {
                            let (s, mn) = params.scale_min(oc);
                            let mut v = s * aq + mn * acc_x;
                            if let Some(bias) = bias {
                                v = BinaryOp::Add.apply(v, bias[oc]);
                            }
                            if let Some(act) = activation {
                                v = act.apply(v);
                            }
                            out[oi] = v;
                            oi += 1;
                        }
                    }
                }
            }
            out
        }

        /// Quantized-filter fused depthwise conv2d. Each output channel
        /// `oc = ic·mul + m` reads one input channel, so a per-channel scale along
        /// filter axis 2 (`ic`) or 3 (`m`) is constant over the accumulation and the
        /// factored form still applies; the valid-tap input sum depends on `ic`.
        pub fn fused_depthwise_conv2d_quant(
            x: &[f32],
            w_q: &[u8],
            params: &QuantParams,
            bias: Option<&[f32]>,
            activation: Option<UnaryOp>,
            info: &Conv2dInfo,
        ) -> Vec<f32> {
            let c = info;
            let mul = c.channel_mul;
            let mut out = vec![0.0f32; c.batch * c.out_height * c.out_width * c.out_channels];
            let mut oi = 0;
            for b in 0..c.batch {
                for oh in 0..c.out_height {
                    for ow in 0..c.out_width {
                        for ic in 0..c.in_channels {
                            for m in 0..mul {
                                let ch = match params {
                                    QuantParams::PerTensor { .. } => 0,
                                    QuantParams::PerChannel { axis, .. } => {
                                        if *axis == 2 {
                                            ic
                                        } else {
                                            m
                                        }
                                    }
                                };
                                let (s, mn) = params.scale_min(ch);
                                let mut acc_q = 0.0f32;
                                let mut acc_x = 0.0f32;
                                for fh in 0..c.filter_height {
                                    let ih = (oh * c.stride_h + fh * c.dilation_h) as isize
                                        - c.pad_top as isize;
                                    if ih < 0 || ih >= c.in_height as isize {
                                        continue;
                                    }
                                    for fw in 0..c.filter_width {
                                        let iw = (ow * c.stride_w + fw * c.dilation_w) as isize
                                            - c.pad_left as isize;
                                        if iw < 0 || iw >= c.in_width as isize {
                                            continue;
                                        }
                                        let xv = x[((b * c.in_height + ih as usize) * c.in_width
                                            + iw as usize)
                                            * c.in_channels
                                            + ic];
                                        let wq =
                                            w_q[((fh * c.filter_width + fw) * c.in_channels + ic) * mul + m];
                                        acc_q += xv * wq as f32;
                                        acc_x += xv;
                                    }
                                }
                                let mut v = s * acc_q + mn * acc_x;
                                if let Some(bias) = bias {
                                    v = BinaryOp::Add.apply(v, bias[ic * mul + m]);
                                }
                                if let Some(act) = activation {
                                    v = act.apply(v);
                                }
                                out[oi] = v;
                                oi += 1;
                            }
                        }
                    }
                }
            }
            out
        }

        pub fn conv2d(x: &[f32], w: &[f32], info: &Conv2dInfo) -> Vec<f32> {
            let c = info;
            let mut out = vec![0.0f32; c.batch * c.out_height * c.out_width * c.out_channels];
            let x_strides = [c.in_height * c.in_width * c.in_channels, c.in_width * c.in_channels, c.in_channels];
            let w_strides = [c.filter_width * c.in_channels * c.out_channels, c.in_channels * c.out_channels, c.out_channels];
            let mut oi = 0;
            for b in 0..c.batch {
                for oh in 0..c.out_height {
                    for ow in 0..c.out_width {
                        for oc in 0..c.out_channels {
                            let mut acc = 0.0f32;
                            for fh in 0..c.filter_height {
                                let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                                if ih < 0 || ih >= c.in_height as isize {
                                    continue;
                                }
                                for fw in 0..c.filter_width {
                                    let iw = (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                                    if iw < 0 || iw >= c.in_width as isize {
                                        continue;
                                    }
                                    let x_base = b * x_strides[0] + ih as usize * x_strides[1] + iw as usize * x_strides[2];
                                    let w_base = fh * w_strides[0] + fw * w_strides[1];
                                    for ic in 0..c.in_channels {
                                        acc += x[x_base + ic] * w[w_base + ic * w_strides[2] + oc];
                                    }
                                }
                            }
                            out[oi] = acc;
                            oi += 1;
                        }
                    }
                }
            }
            out
        }

        /// Gradient of [`conv2d`] with respect to its input (scatter form).
        pub fn conv2d_backprop_input(dy: &[f32], w: &[f32], info: &Conv2dInfo) -> Vec<f32> {
            let c = info;
            let mut dx = vec![0.0f32; c.batch * c.in_height * c.in_width * c.in_channels];
            let mut di = 0;
            for b in 0..c.batch {
                for oh in 0..c.out_height {
                    for ow in 0..c.out_width {
                        for oc in 0..c.out_channels {
                            let g = dy[di];
                            di += 1;
                            if g == 0.0 {
                                continue;
                            }
                            for fh in 0..c.filter_height {
                                let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                                if ih < 0 || ih >= c.in_height as isize {
                                    continue;
                                }
                                for fw in 0..c.filter_width {
                                    let iw = (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                                    if iw < 0 || iw >= c.in_width as isize {
                                        continue;
                                    }
                                    for ic in 0..c.in_channels {
                                        let x_idx = ((b * c.in_height + ih as usize) * c.in_width + iw as usize)
                                            * c.in_channels
                                            + ic;
                                        let w_idx = ((fh * c.filter_width + fw) * c.in_channels + ic)
                                            * c.out_channels
                                            + oc;
                                        dx[x_idx] += g * w[w_idx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            dx
        }

        /// Gradient of [`conv2d`] with respect to its filter.
        pub fn conv2d_backprop_filter(x: &[f32], dy: &[f32], info: &Conv2dInfo) -> Vec<f32> {
            let c = info;
            let mut dw = vec![0.0f32; c.filter_height * c.filter_width * c.in_channels * c.out_channels];
            let mut di = 0;
            for b in 0..c.batch {
                for oh in 0..c.out_height {
                    for ow in 0..c.out_width {
                        for oc in 0..c.out_channels {
                            let g = dy[di];
                            di += 1;
                            if g == 0.0 {
                                continue;
                            }
                            for fh in 0..c.filter_height {
                                let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                                if ih < 0 || ih >= c.in_height as isize {
                                    continue;
                                }
                                for fw in 0..c.filter_width {
                                    let iw = (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                                    if iw < 0 || iw >= c.in_width as isize {
                                        continue;
                                    }
                                    for ic in 0..c.in_channels {
                                        let x_idx = ((b * c.in_height + ih as usize) * c.in_width + iw as usize)
                                            * c.in_channels
                                            + ic;
                                        let w_idx = ((fh * c.filter_width + fw) * c.in_channels + ic)
                                            * c.out_channels
                                            + oc;
                                        dw[w_idx] += g * x[x_idx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            dw
        }

        /// Depthwise 2-D convolution; filter is `[fh, fw, in_c, channel_mul]` and
        /// output channel `ic * mul + m` only reads input channel `ic`.
        pub fn depthwise_conv2d(x: &[f32], w: &[f32], info: &Conv2dInfo) -> Vec<f32> {
            let c = info;
            let mul = c.channel_mul;
            let mut out = vec![0.0f32; c.batch * c.out_height * c.out_width * c.out_channels];
            let mut oi = 0;
            for b in 0..c.batch {
                for oh in 0..c.out_height {
                    for ow in 0..c.out_width {
                        for ic in 0..c.in_channels {
                            for m in 0..mul {
                                let mut acc = 0.0f32;
                                for fh in 0..c.filter_height {
                                    let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                                    if ih < 0 || ih >= c.in_height as isize {
                                        continue;
                                    }
                                    for fw in 0..c.filter_width {
                                        let iw = (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                                        if iw < 0 || iw >= c.in_width as isize {
                                            continue;
                                        }
                                        let x_idx = ((b * c.in_height + ih as usize) * c.in_width + iw as usize)
                                            * c.in_channels
                                            + ic;
                                        let w_idx = ((fh * c.filter_width + fw) * c.in_channels + ic) * mul + m;
                                        acc += x[x_idx] * w[w_idx];
                                    }
                                }
                                out[oi] = acc;
                                oi += 1;
                            }
                        }
                    }
                }
            }
            out
        }

        /// Gradient of [`depthwise_conv2d`] w.r.t. its input.
        pub fn depthwise_conv2d_backprop_input(dy: &[f32], w: &[f32], info: &Conv2dInfo) -> Vec<f32> {
            let c = info;
            let mul = c.channel_mul;
            let mut dx = vec![0.0f32; c.batch * c.in_height * c.in_width * c.in_channels];
            let mut di = 0;
            for b in 0..c.batch {
                for oh in 0..c.out_height {
                    for ow in 0..c.out_width {
                        for ic in 0..c.in_channels {
                            for m in 0..mul {
                                let g = dy[di];
                                di += 1;
                                if g == 0.0 {
                                    continue;
                                }
                                for fh in 0..c.filter_height {
                                    let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                                    if ih < 0 || ih >= c.in_height as isize {
                                        continue;
                                    }
                                    for fw in 0..c.filter_width {
                                        let iw = (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                                        if iw < 0 || iw >= c.in_width as isize {
                                            continue;
                                        }
                                        let x_idx = ((b * c.in_height + ih as usize) * c.in_width + iw as usize)
                                            * c.in_channels
                                            + ic;
                                        let w_idx = ((fh * c.filter_width + fw) * c.in_channels + ic) * mul + m;
                                        dx[x_idx] += g * w[w_idx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            dx
        }

        /// Gradient of [`depthwise_conv2d`] w.r.t. its filter.
        pub fn depthwise_conv2d_backprop_filter(x: &[f32], dy: &[f32], info: &Conv2dInfo) -> Vec<f32> {
            let c = info;
            let mul = c.channel_mul;
            let mut dw = vec![0.0f32; c.filter_height * c.filter_width * c.in_channels * mul];
            let mut di = 0;
            for b in 0..c.batch {
                for oh in 0..c.out_height {
                    for ow in 0..c.out_width {
                        for ic in 0..c.in_channels {
                            for m in 0..mul {
                                let g = dy[di];
                                di += 1;
                                if g == 0.0 {
                                    continue;
                                }
                                for fh in 0..c.filter_height {
                                    let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                                    if ih < 0 || ih >= c.in_height as isize {
                                        continue;
                                    }
                                    for fw in 0..c.filter_width {
                                        let iw = (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                                        if iw < 0 || iw >= c.in_width as isize {
                                            continue;
                                        }
                                        let x_idx = ((b * c.in_height + ih as usize) * c.in_width + iw as usize)
                                            * c.in_channels
                                            + ic;
                                        let w_idx = ((fh * c.filter_width + fw) * c.in_channels + ic) * mul + m;
                                        dw[w_idx] += g * x[x_idx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            dw
        }
    }
}
