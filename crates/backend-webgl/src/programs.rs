//! Shader-program builders: every kernel re-expressed as a per-output
//! gather computation (fragment shaders cannot scatter), in the style of
//! the paper's Figure 4 (element-wise add) and Listing 2 (matmul). The
//! builders are WebGL's [`KernelSet`]: [`KERNELS`] lists them.

use crate::kernels::{Epilogue, KernelSet, MatMulGeom};
use webml_core::backend::{ArgReduceOp, BinaryOp, FusedStep, PoolOp, ReduceOp, UnaryOp};
use webml_core::conv_util::Conv2dInfo;
use webml_core::dtype::DType;
use webml_core::error::Result;
use webml_core::quant::QuantParams;
use webml_webgl_sim::shader::{Kernel, Samplers};

/// The fragment-program kernel set.
pub const KERNELS: KernelSet = KernelSet {
    unary,
    binary,
    cast,
    reduce,
    arg_reduce,
    matmul,
    fused_matmul,
    fused_matmul_quant,
    conv2d,
    fused_conv2d,
    fused_conv2d_quant,
    conv2d_backprop_input,
    conv2d_backprop_filter,
    depthwise_conv2d,
    fused_depthwise_conv2d,
    fused_depthwise_conv2d_quant,
    depthwise_conv2d_backprop_input,
    depthwise_conv2d_backprop_filter,
    pool2d,
    pool2d_backprop,
    slice,
    concat,
    transpose,
    pad,
    gather,
    tile,
    reverse,
    select,
    one_hot,
    resize_bilinear,
    fused_elementwise,
};

/// Maximum tensor rank supported by the shader address math.
pub const MAX_RANK: usize = 8;

/// Fused bias+activation epilogue applied to a finished accumulator
/// in-register. Float order matches the unfused `Add`-then-activation
/// kernel composition exactly, so fused and unfused agree bit-for-bit on
/// f32 devices.
#[inline]
fn apply_epilogue(
    s: &Samplers<'_>,
    bias_input: Option<usize>,
    activation: Option<UnaryOp>,
    channel: usize,
    acc: f32,
) -> f32 {
    let v = match bias_input {
        Some(i) => BinaryOp::Add.apply(acc, s.get_flat(i, channel)),
        None => acc,
    };
    match activation {
        Some(act) => act.apply(v),
        None => v,
    }
}

/// Element-wise unary kernel. Uses a packed (RGBA texel) body when
/// requested: one invocation computes 4 consecutive outputs.
pub fn unary(op: UnaryOp, dims: &[usize], packed: bool) -> Kernel {
    let out_shape = dims.to_vec();
    if packed {
        let n = out_shape.iter().product::<usize>().max(1);
        Kernel::packed("Unary", out_shape, move |s, base| {
            let mut quad = [0.0f32; 4];
            for (i, q) in quad.iter_mut().enumerate() {
                if base + i < n {
                    *q = op.apply(s.get_flat(0, base + i));
                }
            }
            quad
        })
    } else {
        Kernel::per_element("Unary", out_shape, move |s, flat, _| op.apply(s.get_flat(0, flat)))
    }
}

/// Map output coordinates to an input's (right-aligned, broadcast) coords.
#[inline]
fn broadcast_coords(out_coords: &[usize], in_dims: &[usize], buf: &mut [usize; MAX_RANK]) -> usize {
    let offset = out_coords.len() - in_dims.len();
    for (i, &d) in in_dims.iter().enumerate() {
        buf[i] = if d == 1 { 0 } else { out_coords[i + offset] };
    }
    in_dims.len()
}

/// Element-wise binary kernel with broadcasting.
pub fn binary(
    op: BinaryOp,
    a_dims: &[usize],
    b_dims: &[usize],
    out_dims: &[usize],
    packed: bool,
) -> Kernel {
    let same = a_dims == out_dims && b_dims == out_dims;
    let out_shape = out_dims.to_vec();
    if same && packed {
        let n = out_shape.iter().product::<usize>().max(1);
        return Kernel::packed("BinaryPacked", out_shape, move |s, base| {
            let mut quad = [0.0f32; 4];
            for (i, q) in quad.iter_mut().enumerate() {
                if base + i < n {
                    *q = op.apply(s.get_flat(0, base + i), s.get_flat(1, base + i));
                }
            }
            quad
        });
    }
    if same {
        return Kernel::per_element("Binary", out_shape, move |s, flat, _| {
            op.apply(s.get_flat(0, flat), s.get_flat(1, flat))
        });
    }
    let (a_dims, b_dims) = (a_dims.to_vec(), b_dims.to_vec());
    Kernel::per_element("BinaryBroadcast", out_shape, move |s, _, coords| {
        let mut buf = [0usize; MAX_RANK];
        let la = broadcast_coords(coords, &a_dims, &mut buf);
        let av = s.get(0, &buf[..la]);
        let lb = broadcast_coords(coords, &b_dims, &mut buf);
        let bv = s.get(1, &buf[..lb]);
        op.apply(av, bv)
    })
}

/// Cast kernel (values live in float textures; semantics applied here).
pub fn cast(dims: &[usize], dtype: DType) -> Kernel {
    Kernel::per_element("Cast", dims.to_vec(), move |s, flat, _| {
        let v = s.get_flat(0, flat);
        match dtype {
            DType::F32 | DType::F16 => v,
            DType::I32 => v as i32 as f32,
            DType::Bool => (v != 0.0) as u8 as f32,
            DType::U8 => v.clamp(0.0, 255.0) as u8 as f32,
        }
    })
}

/// Reduction over `axes`: each output walks its reduced subspace (a naive
/// O(k)-per-output WebGL reduce; no shared memory to build a tree with).
pub fn reduce(op: ReduceOp, in_dims: &[usize], axes: &[usize]) -> Kernel {
    let (in_dims, axes) = (in_dims.to_vec(), axes.to_vec());
    let reduce_dims: Vec<usize> = axes.iter().map(|&i| in_dims[i]).collect();
    let count: usize = reduce_dims.iter().product::<usize>().max(1);
    let cost = count.max(1);
    let kept_axes: Vec<usize> =
        (0..in_dims.len()).filter(|i| !axes.contains(i)).collect();
    let out_shape = kept_axes.iter().map(|&i| in_dims[i]).collect();
    Kernel::per_element("Reduce", out_shape, move |s, _, out_coords| {
        let mut in_coords = [0usize; MAX_RANK];
        for (k, &ax) in kept_axes.iter().enumerate() {
            in_coords[ax] = out_coords[k];
        }
        let mut acc = op.init();
        let mut idx = vec![0usize; reduce_dims.len()];
        loop {
            for (k, &ax) in axes.iter().enumerate() {
                in_coords[ax] = idx[k];
            }
            acc = op.combine(acc, s.get(0, &in_coords[..in_dims.len()]));
            // Odometer.
            let mut d = reduce_dims.len();
            loop {
                if d == 0 {
                    return op.finalize(acc, count);
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < reduce_dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    })
    .with_cost(cost)
}

/// Arg-reduction along one axis.
#[allow(clippy::needless_range_loop)] // coordinate scatter across two arrays
pub fn arg_reduce(op: ArgReduceOp, in_dims: &[usize], axis: usize) -> Kernel {
    let in_dims = in_dims.to_vec();
    let n = in_dims[axis];
    let mut out_shape = in_dims.clone();
    out_shape.remove(axis);
    Kernel::per_element("ArgReduce", out_shape, move |s, _, out_coords| {
        let mut in_coords = [0usize; MAX_RANK];
        let mut k = 0;
        for i in 0..in_dims.len() {
            if i != axis {
                in_coords[i] = out_coords[k];
                k += 1;
            }
        }
        in_coords[axis] = 0;
        let mut best = s.get(0, &in_coords[..in_dims.len()]);
        let mut best_i = 0usize;
        for j in 1..n {
            in_coords[axis] = j;
            let v = s.get(0, &in_coords[..in_dims.len()]);
            let better = match op {
                ArgReduceOp::ArgMax => v > best,
                ArgReduceOp::ArgMin => v < best,
            };
            if better {
                best = v;
                best_i = j;
            }
        }
        best_i as f32
    })
}

/// Batched matmul, Listing 2 style: each output recomputes a full dot
/// product (no shared memory — the architectural handicap behind the
/// WebGL/CUDA gap of Sec 3.9). The packed variant computes 4 adjacent
/// outputs per invocation, reusing each A element across the quad.
pub fn matmul(geom: &MatMulGeom, packed: bool) -> Kernel {
    matmul_impl(("MatMul", "MatMulPacked"), geom, packed, (false, None))
}

/// Matmul with the bias+activation epilogue fused in-register: the whole
/// `matmul → add → activation` chain in one draw call, no intermediate
/// textures. Bias (when present) is sampler input 2, indexed by output
/// column.
pub fn fused_matmul(geom: &MatMulGeom, packed: bool, epilogue: Epilogue) -> Kernel {
    matmul_impl(("FusedMatMul", "FusedMatMulPacked"), geom, packed, epilogue)
}

fn matmul_impl(
    names: (&'static str, &'static str),
    &MatMulGeom { batch, m, k, n, transpose_a, transpose_b, .. }: &MatMulGeom,
    packed: bool,
    (has_bias, activation): Epilogue,
) -> Kernel {
    let out_shape = vec![batch, m, n];
    let cost = (k * 2).max(1);
    let bias_input = if has_bias { Some(2) } else { None };
    if packed {
        let total = batch * m * n;
        return Kernel::packed(names.1, out_shape, move |s, base| {
            // base indexes the flattened [batch, m, n] output.
            let j0 = base % n;
            let rest = base / n;
            let i = rest % m;
            let b = rest / m;
            let mut acc = [0.0f32; 4];
            if j0 + 3 < n {
                // Fast path: all four outputs share row (b, i), so each A
                // element is loaded once for the whole quad — the vec4
                // benefit of Listing 2.
                let a_off = b * m * k;
                let b_off = b * k * n;
                for p in 0..k {
                    let av = if transpose_a { s.get_flat(0, a_off + p * m + i) } else { s.get_flat(0, a_off + i * k + p) };
                    for (q, a) in acc.iter_mut().enumerate() {
                        let j = j0 + q;
                        let bv = if transpose_b {
                            s.get_flat(1, b_off + j * k + p)
                        } else {
                            s.get_flat(1, b_off + p * n + j)
                        };
                        *a += av * bv;
                    }
                }
                for (q, a) in acc.iter_mut().enumerate() {
                    *a = apply_epilogue(s, bias_input, activation, j0 + q, *a);
                }
            } else {
                // Row-straddling texel: compute each output independently.
                for (q, a) in acc.iter_mut().enumerate() {
                    let idx = base + q;
                    if idx >= total {
                        break;
                    }
                    let j = idx % n;
                    let rest = idx / n;
                    let i = rest % m;
                    let b = rest / m;
                    let mut dot = 0.0f32;
                    for p in 0..k {
                        let av = if transpose_a { s.get(0, &[b, p, i]) } else { s.get(0, &[b, i, p]) };
                        let bv = if transpose_b { s.get(1, &[b, j, p]) } else { s.get(1, &[b, p, j]) };
                        dot += av * bv;
                    }
                    *a = apply_epilogue(s, bias_input, activation, j, dot);
                }
            }
            acc
        })
        .with_cost(cost);
    }
    Kernel::per_element(names.0, out_shape, move |s, _, coords| {
        let (b, i, j) = (coords[0], coords[1], coords[2]);
        let a_off = b * m * k;
        let b_off = b * k * n;
        let mut acc = 0.0f32;
        for p in 0..k {
            let av = if transpose_a { s.get_flat(0, a_off + p * m + i) } else { s.get_flat(0, a_off + i * k + p) };
            let bv = if transpose_b { s.get_flat(1, b_off + j * k + p) } else { s.get_flat(1, b_off + p * n + j) };
            acc += av * bv;
        }
        apply_epilogue(s, bias_input, activation, j, acc)
    })
    .with_cost(cost)
}

/// Quantized-weight fused matmul: input 1 is an `R8` codes texture
/// (sampling yields the integer code widened to f32, never a dequantized
/// weight buffer). The accumulation is factored as
/// `Σ a·(q·s + m) = s·Σ a·q + m·Σ a`, with the affine scale/min applied
/// in-register before the shared bias+activation epilogue — one draw call,
/// 1-byte-per-weight device residency. `b_batch == 1` broadcasts the single
/// code matrix across the batch.
pub fn fused_matmul_quant(
    &MatMulGeom { batch, m, k, n, b_batch, transpose_a, transpose_b }: &MatMulGeom,
    params: &QuantParams,
    (has_bias, activation): Epilogue,
) -> Kernel {
    let params = params.clone();
    let out_shape = vec![batch, m, n];
    let cost = (k * 3).max(1);
    let bias_input = if has_bias { Some(2) } else { None };
    Kernel::per_element("FusedMatMulQuant", out_shape, move |s, _, coords| {
        let (b, i, j) = (coords[0], coords[1], coords[2]);
        let a_off = b * m * k;
        let b_off = if b_batch == 1 { 0 } else { b * k * n };
        let mut acc_q = 0.0f32;
        let mut acc_a = 0.0f32;
        for p in 0..k {
            let av = if transpose_a {
                s.get_flat(0, a_off + p * m + i)
            } else {
                s.get_flat(0, a_off + i * k + p)
            };
            let qv = if transpose_b {
                s.get_flat(1, b_off + j * k + p)
            } else {
                s.get_flat(1, b_off + p * n + j)
            };
            acc_q += av * qv;
            acc_a += av;
        }
        let (sc, mn) = params.scale_min(j);
        apply_epilogue(s, bias_input, activation, j, sc * acc_q + mn * acc_a)
    })
    .with_cost(cost)
}

/// Quantized-filter fused conv2d: input 1 holds `R8` HWIO codes. The
/// valid-tap input sum is shared across the factored epilogue; per-channel
/// `params` index the output-channel axis (the caller guarantees this via
/// `quant_axis_ok`).
pub fn fused_conv2d_quant(
    info: &Conv2dInfo,
    params: &QuantParams,
    (has_bias, activation): Epilogue,
) -> Kernel {
    let (info, params) = (info.clone(), params.clone());
    let out_shape = vec![info.batch, info.out_height, info.out_width, info.out_channels];
    let cost = info.filter_height * info.filter_width * info.in_channels * 3;
    let bias_input = if has_bias { Some(2) } else { None };
    Kernel::per_element("FusedConv2DQuant", out_shape, move |s, _, coords| {
        let (b, oh, ow, oc) = (coords[0], coords[1], coords[2], coords[3]);
        let c = &info;
        let row_stride = c.in_width * c.in_channels;
        let img_stride = c.in_height * row_stride;
        let w_oc_stride = c.out_channels;
        let mut acc_q = 0.0f32;
        let mut acc_x = 0.0f32;
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
                let x_base = b * img_stride + ih as usize * row_stride + iw as usize * c.in_channels;
                let w_base = ((fh * c.filter_width + fw) * c.in_channels) * w_oc_stride + oc;
                for ic in 0..c.in_channels {
                    let xv = s.get_flat(0, x_base + ic);
                    acc_q += xv * s.get_flat(1, w_base + ic * w_oc_stride);
                    acc_x += xv;
                }
            }
        }
        let (sc, mn) = params.scale_min(oc);
        apply_epilogue(s, bias_input, activation, oc, sc * acc_q + mn * acc_x)
    })
    .with_cost(cost)
}

/// Quantized-filter fused depthwise conv2d over `R8` codes. Per-channel
/// scales index filter axis 2 (input channel) or 3 (channel multiplier).
pub fn fused_depthwise_conv2d_quant(
    info: &Conv2dInfo,
    params: &QuantParams,
    (has_bias, activation): Epilogue,
) -> Kernel {
    let (info, params) = (info.clone(), params.clone());
    let out_shape = vec![info.batch, info.out_height, info.out_width, info.out_channels];
    let cost = info.filter_height * info.filter_width * 3;
    let bias_input = if has_bias { Some(2) } else { None };
    Kernel::per_element("FusedDepthwiseConv2DQuant", out_shape, move |s, _, coords| {
        let (b, oh, ow, och) = (coords[0], coords[1], coords[2], coords[3]);
        let c = &info;
        let ic = och / c.channel_mul;
        let m = och % c.channel_mul;
        let row_stride = c.in_width * c.in_channels;
        let img_stride = c.in_height * row_stride;
        let mut acc_q = 0.0f32;
        let mut acc_x = 0.0f32;
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
                let x_idx =
                    b * img_stride + ih as usize * row_stride + iw as usize * c.in_channels + ic;
                let w_idx = ((fh * c.filter_width + fw) * c.in_channels + ic) * c.channel_mul + m;
                let xv = s.get_flat(0, x_idx);
                acc_q += xv * s.get_flat(1, w_idx);
                acc_x += xv;
            }
        }
        let ch = match &params {
            QuantParams::PerTensor { .. } => 0,
            QuantParams::PerChannel { axis, .. } => {
                if *axis == 2 {
                    ic
                } else {
                    m
                }
            }
        };
        let (sc, mn) = params.scale_min(ch);
        apply_epilogue(s, bias_input, activation, och, sc * acc_q + mn * acc_x)
    })
    .with_cost(cost)
}

/// conv2d: one output activation per invocation, walking its receptive
/// field. Index math is pre-resolved to flat fetches, as a GLSL compiler
/// resolves the generated accessors into direct texture fetches.
///
/// The packed variant computes the 4 output channels of one RGBA texel per
/// invocation, loading every input activation once for all four filters —
/// the packed-conv win behind the paper's 1.3-1.4x PoseNet speedup.
pub fn conv2d(info: &Conv2dInfo, packed: bool) -> Kernel {
    conv2d_impl(("Conv2D", "Conv2DPacked"), info, packed, (false, None))
}

/// conv2d with the bias+activation epilogue fused in-register. Bias (when
/// present) is sampler input 2, indexed by output channel.
pub fn fused_conv2d(info: &Conv2dInfo, packed: bool, epilogue: Epilogue) -> Kernel {
    conv2d_impl(("FusedConv2D", "FusedConv2DPacked"), info, packed, epilogue)
}

fn conv2d_impl(
    names: (&'static str, &'static str),
    info: &Conv2dInfo,
    packed: bool,
    (has_bias, activation): Epilogue,
) -> Kernel {
    let info = info.clone();
    let out_shape = vec![info.batch, info.out_height, info.out_width, info.out_channels];
    let cost = info.filter_height * info.filter_width * info.in_channels * 2;
    let bias_input = if has_bias { Some(2) } else { None };
    if packed {
        let c = info.clone();
        let total = out_shape.iter().product::<usize>();
        return Kernel::packed(names.1, out_shape, move |s, base| {
            let mut acc = [0.0f32; 4];
            let oc0 = base % c.out_channels;
            let pix = base / c.out_channels;
            let row_stride = c.in_width * c.in_channels;
            let img_stride = c.in_height * row_stride;
            if oc0 + 3 < c.out_channels {
                // All four outputs share the pixel: one x fetch feeds four
                // filter channels.
                let ow = pix % c.out_width;
                let rest = pix / c.out_width;
                let oh = rest % c.out_height;
                let b = rest / c.out_height;
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
                        let x_base = b * img_stride
                            + ih as usize * row_stride
                            + iw as usize * c.in_channels;
                        let w_base = (fh * c.filter_width + fw) * c.in_channels * c.out_channels + oc0;
                        for ic in 0..c.in_channels {
                            let xv = s.get_flat(0, x_base + ic);
                            let w_at = w_base + ic * c.out_channels;
                            acc[0] += xv * s.get_flat(1, w_at);
                            acc[1] += xv * s.get_flat(1, w_at + 1);
                            acc[2] += xv * s.get_flat(1, w_at + 2);
                            acc[3] += xv * s.get_flat(1, w_at + 3);
                        }
                    }
                }
                for (q, a) in acc.iter_mut().enumerate() {
                    *a = apply_epilogue(s, bias_input, activation, oc0 + q, *a);
                }
            } else {
                // Channel-straddling texel: per-output fallback.
                for (q, a) in acc.iter_mut().enumerate() {
                    let idx = base + q;
                    if idx >= total {
                        break;
                    }
                    let oc = idx % c.out_channels;
                    let pix = idx / c.out_channels;
                    let ow = pix % c.out_width;
                    let rest = pix / c.out_width;
                    let oh = rest % c.out_height;
                    let b = rest / c.out_height;
                    let mut dot = 0.0f32;
                    for fh in 0..c.filter_height {
                        let ih =
                            (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                        if ih < 0 || ih >= c.in_height as isize {
                            continue;
                        }
                        for fw in 0..c.filter_width {
                            let iw = (ow * c.stride_w + fw * c.dilation_w) as isize
                                - c.pad_left as isize;
                            if iw < 0 || iw >= c.in_width as isize {
                                continue;
                            }
                            let x_base = b * img_stride
                                + ih as usize * row_stride
                                + iw as usize * c.in_channels;
                            let w_base =
                                (fh * c.filter_width + fw) * c.in_channels * c.out_channels + oc;
                            for ic in 0..c.in_channels {
                                dot += s.get_flat(0, x_base + ic)
                                    * s.get_flat(1, w_base + ic * c.out_channels);
                            }
                        }
                    }
                    *a = apply_epilogue(s, bias_input, activation, oc, dot);
                }
            }
            acc
        })
        .with_cost(cost);
    }
    Kernel::per_element(names.0, out_shape, move |s, _, coords| {
        let (b, oh, ow, oc) = (coords[0], coords[1], coords[2], coords[3]);
        let c = &info;
        let row_stride = c.in_width * c.in_channels;
        let img_stride = c.in_height * row_stride;
        let w_oc_stride = c.out_channels;
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
                let x_base = b * img_stride + ih as usize * row_stride + iw as usize * c.in_channels;
                let w_base = ((fh * c.filter_width + fw) * c.in_channels) * w_oc_stride + oc;
                for ic in 0..c.in_channels {
                    acc += s.get_flat(0, x_base + ic) * s.get_flat(1, w_base + ic * w_oc_stride);
                }
            }
        }
        apply_epilogue(s, bias_input, activation, oc, acc)
    })
    .with_cost(cost)
}

/// Gather-form gradient of conv2d w.r.t. the input.
pub fn conv2d_backprop_input(info: &Conv2dInfo) -> Kernel {
    let info = info.clone();
    let out_shape = vec![info.batch, info.in_height, info.in_width, info.in_channels];
    Kernel::per_element("Conv2DBackpropInput", out_shape, move |s, _, coords| {
        let (b, ih, iw, ic) = (coords[0], coords[1], coords[2], coords[3]);
        let c = &info;
        let mut acc = 0.0f32;
        for fh in 0..c.filter_height {
            let num_h = ih as isize + c.pad_top as isize - (fh * c.dilation_h) as isize;
            if num_h < 0 || num_h % c.stride_h as isize != 0 {
                continue;
            }
            let oh = (num_h / c.stride_h as isize) as usize;
            if oh >= c.out_height {
                continue;
            }
            for fw in 0..c.filter_width {
                let num_w = iw as isize + c.pad_left as isize - (fw * c.dilation_w) as isize;
                if num_w < 0 || num_w % c.stride_w as isize != 0 {
                    continue;
                }
                let ow = (num_w / c.stride_w as isize) as usize;
                if ow >= c.out_width {
                    continue;
                }
                for oc in 0..c.out_channels {
                    acc += s.get(0, &[b, oh, ow, oc]) * s.get(1, &[fh, fw, ic, oc]);
                }
            }
        }
        acc
    })
}

/// Gather-form gradient of conv2d w.r.t. the filter.
pub fn conv2d_backprop_filter(info: &Conv2dInfo) -> Kernel {
    let info = info.clone();
    let out_shape = vec![info.filter_height, info.filter_width, info.in_channels, info.out_channels];
    Kernel::per_element("Conv2DBackpropFilter", out_shape, move |s, _, coords| {
        let (fh, fw, ic, oc) = (coords[0], coords[1], coords[2], coords[3]);
        let c = &info;
        let mut acc = 0.0f32;
        for b in 0..c.batch {
            for oh in 0..c.out_height {
                let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                if ih < 0 || ih >= c.in_height as isize {
                    continue;
                }
                for ow in 0..c.out_width {
                    let iw = (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                    if iw < 0 || iw >= c.in_width as isize {
                        continue;
                    }
                    acc += s.get(0, &[b, ih as usize, iw as usize, ic])
                        * s.get(1, &[b, oh, ow, oc]);
                }
            }
        }
        acc
    })
}

/// Depthwise conv2d, with pre-resolved flat index math.
///
/// With `channel_mul == 1` the packed variant computes the four consecutive
/// channels of one RGBA texel per invocation: they share the pixel, so the
/// tap walk and its bounds checks are paid once for four independent
/// accumulators.
pub fn depthwise_conv2d(info: &Conv2dInfo, packed: bool) -> Kernel {
    depthwise_conv2d_impl(("DepthwiseConv2D", "DepthwiseConv2DPacked"), info, packed, (false, None))
}

/// Depthwise conv2d with the bias+activation epilogue fused in-register.
/// Bias (when present) is sampler input 2, indexed by output channel.
pub fn fused_depthwise_conv2d(info: &Conv2dInfo, packed: bool, epilogue: Epilogue) -> Kernel {
    let names = ("FusedDepthwiseConv2D", "FusedDepthwiseConv2DPacked");
    depthwise_conv2d_impl(names, info, packed, epilogue)
}

/// Visit the in-bounds filter taps of output pixel `(b, oh, ow)` in
/// `(fh, fw)` order: `tap(input pixel index, filter tap index)`.
#[inline]
fn for_each_tap(
    c: &Conv2dInfo,
    (b, oh, ow): (usize, usize, usize),
    mut tap: impl FnMut(usize, usize),
) {
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
            let px = (b * c.in_height + ih as usize) * c.in_width + iw as usize;
            tap(px, fh * c.filter_width + fw);
        }
    }
}

/// One depthwise output: channel `och` of the pixel at `at`.
#[inline]
fn depthwise_at(s: &Samplers<'_>, c: &Conv2dInfo, at: (usize, usize, usize), och: usize) -> f32 {
    let ic = och / c.channel_mul;
    let mut acc = 0.0f32;
    for_each_tap(c, at, |px, t| {
        // Filter `[fh, fw, in_c, mul]` flattens to `t * out_channels + och`.
        acc += s.get_flat(0, px * c.in_channels + ic) * s.get_flat(1, t * c.out_channels + och);
    });
    acc
}

fn depthwise_conv2d_impl(
    names: (&'static str, &'static str),
    info: &Conv2dInfo,
    packed: bool,
    (has_bias, activation): Epilogue,
) -> Kernel {
    let info = info.clone();
    let out_shape = vec![info.batch, info.out_height, info.out_width, info.out_channels];
    let cost = info.filter_height * info.filter_width * 2;
    let bias_input = if has_bias { Some(2) } else { None };
    if packed && info.channel_mul == 1 {
        let c = info;
        let total = out_shape.iter().product::<usize>();
        // Pixel index -> (b, oh, ow).
        let pixel = |c: &Conv2dInfo, pix: usize| {
            let (ow, rest) = (pix % c.out_width, pix / c.out_width);
            (rest / c.out_height, rest % c.out_height, ow)
        };
        return Kernel::packed(names.1, out_shape, move |s, base| {
            let channels = c.out_channels;
            let mut acc = [0.0f32; 4];
            let ch0 = base % channels;
            if ch0 + 3 < channels {
                // All four outputs share the pixel: one tap walk feeds four
                // independent accumulators (channel_mul is 1, so output
                // channel == input channel).
                for_each_tap(&c, pixel(&c, base / channels), |px, t| {
                    let (x_at, w_at) = (px * channels + ch0, t * channels + ch0);
                    for (q, a) in acc.iter_mut().enumerate() {
                        *a += s.get_flat(0, x_at + q) * s.get_flat(1, w_at + q);
                    }
                });
                for (q, a) in acc.iter_mut().enumerate() {
                    *a = apply_epilogue(s, bias_input, activation, ch0 + q, *a);
                }
            } else {
                // Channel-straddling texel: per-output fallback.
                for (q, a) in acc.iter_mut().enumerate().take(total.saturating_sub(base)) {
                    let idx = base + q;
                    let och = idx % channels;
                    let dot = depthwise_at(s, &c, pixel(&c, idx / channels), och);
                    *a = apply_epilogue(s, bias_input, activation, och, dot);
                }
            }
            acc
        })
        .with_cost(cost);
    }
    Kernel::per_element(names.0, out_shape, move |s, _, coords| {
        let och = coords[3];
        let acc = depthwise_at(s, &info, (coords[0], coords[1], coords[2]), och);
        apply_epilogue(s, bias_input, activation, och, acc)
    })
    .with_cost(cost)
}

/// A chain of elementwise steps executed as one program: input 0 is the
/// chain head, inputs 1.. are the extras referenced by binary steps, each
/// sampled with right-aligned broadcast against the output coordinates.
pub fn fused_elementwise(
    in_dims: &[&[usize]],
    steps: &[FusedStep],
    out_dims: &[usize],
) -> Result<Kernel> {
    let in_dims: Vec<Vec<usize>> = in_dims.iter().map(|d| d.to_vec()).collect();
    let steps = steps.to_vec();
    let cost = (steps.len() * 2).max(1);
    let kernel = Kernel::per_element("FusedElementwise", out_dims.to_vec(), move |s, _, coords| {
        let mut buf = [0usize; MAX_RANK];
        let l = broadcast_coords(coords, &in_dims[0], &mut buf);
        let mut v = s.get(0, &buf[..l]);
        for step in &steps {
            v = match *step {
                FusedStep::Unary(op) => op.apply(v),
                FusedStep::Binary(op, i) => {
                    let l = broadcast_coords(coords, &in_dims[i + 1], &mut buf);
                    op.apply(v, s.get(i + 1, &buf[..l]))
                }
            };
        }
        v
    });
    Ok(kernel.with_cost(cost))
}

/// Gather-form gradient of depthwise conv2d w.r.t. the input.
pub fn depthwise_conv2d_backprop_input(info: &Conv2dInfo) -> Kernel {
    let info = info.clone();
    let out_shape = vec![info.batch, info.in_height, info.in_width, info.in_channels];
    Kernel::per_element("DepthwiseBackpropInput", out_shape, move |s, _, coords| {
        let (b, ih, iw, ic) = (coords[0], coords[1], coords[2], coords[3]);
        let c = &info;
        let mut acc = 0.0f32;
        for fh in 0..c.filter_height {
            let num_h = ih as isize + c.pad_top as isize - (fh * c.dilation_h) as isize;
            if num_h < 0 || num_h % c.stride_h as isize != 0 {
                continue;
            }
            let oh = (num_h / c.stride_h as isize) as usize;
            if oh >= c.out_height {
                continue;
            }
            for fw in 0..c.filter_width {
                let num_w = iw as isize + c.pad_left as isize - (fw * c.dilation_w) as isize;
                if num_w < 0 || num_w % c.stride_w as isize != 0 {
                    continue;
                }
                let ow = (num_w / c.stride_w as isize) as usize;
                if ow >= c.out_width {
                    continue;
                }
                for m in 0..c.channel_mul {
                    acc += s.get(0, &[b, oh, ow, ic * c.channel_mul + m])
                        * s.get(1, &[fh, fw, ic, m]);
                }
            }
        }
        acc
    })
}

/// Gather-form gradient of depthwise conv2d w.r.t. the filter.
pub fn depthwise_conv2d_backprop_filter(info: &Conv2dInfo) -> Kernel {
    let info = info.clone();
    let out_shape = vec![info.filter_height, info.filter_width, info.in_channels, info.channel_mul];
    Kernel::per_element("DepthwiseBackpropFilter", out_shape, move |s, _, coords| {
        let (fh, fw, ic, m) = (coords[0], coords[1], coords[2], coords[3]);
        let c = &info;
        let mut acc = 0.0f32;
        for b in 0..c.batch {
            for oh in 0..c.out_height {
                let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                if ih < 0 || ih >= c.in_height as isize {
                    continue;
                }
                for ow in 0..c.out_width {
                    let iw = (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                    if iw < 0 || iw >= c.in_width as isize {
                        continue;
                    }
                    acc += s.get(0, &[b, ih as usize, iw as usize, ic])
                        * s.get(1, &[b, oh, ow, ic * c.channel_mul + m]);
                }
            }
        }
        acc
    })
}

/// Max/avg pooling. Average divides by the count of in-bounds positions.
pub fn pool2d(op: PoolOp, info: &Conv2dInfo) -> Kernel {
    let info = info.clone();
    let out_shape = vec![info.batch, info.out_height, info.out_width, info.out_channels];
    let cost = info.filter_height * info.filter_width;
    Kernel::per_element("Pool2D", out_shape, move |s, _, coords| {
        let (b, oh, ow, ch) = (coords[0], coords[1], coords[2], coords[3]);
        let c = &info;
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
                let v = s.get(0, &[b, ih as usize, iw as usize, ch]);
                match op {
                    PoolOp::Max => acc = acc.max(v),
                    PoolOp::Avg => acc += v,
                }
                count += 1;
            }
        }
        match op {
            PoolOp::Max => acc,
            PoolOp::Avg => acc / count.max(1) as f32,
        }
    })
    .with_cost(cost)
}

/// Gather-form pooling gradient: each input pixel scans the windows that
/// contain it; max-pool matches the reference's first-argmax tie rule by
/// recomputing each window scan in the same order.
pub fn pool2d_backprop(op: PoolOp, info: &Conv2dInfo) -> Kernel {
    let info = info.clone();
    // Input 0 = dy, input 1 = x.
    let out_shape = vec![info.batch, info.in_height, info.in_width, info.in_channels];
    Kernel::per_element("Pool2DBackprop", out_shape, move |s, _, coords| {
        let (b, ih, iw, ch) = (coords[0], coords[1], coords[2], coords[3]);
        let c = &info;
        let mut acc = 0.0f32;
        // Which output windows include (ih, iw)?
        for fh in 0..c.filter_height {
            let num_h = ih as isize + c.pad_top as isize - fh as isize;
            if num_h < 0 || num_h % c.stride_h as isize != 0 {
                continue;
            }
            let oh = (num_h / c.stride_h as isize) as usize;
            if oh >= c.out_height {
                continue;
            }
            for fw in 0..c.filter_width {
                let num_w = iw as isize + c.pad_left as isize - fw as isize;
                if num_w < 0 || num_w % c.stride_w as isize != 0 {
                    continue;
                }
                let ow = (num_w / c.stride_w as isize) as usize;
                if ow >= c.out_width {
                    continue;
                }
                let g = s.get(0, &[b, oh, ow, ch]);
                match op {
                    PoolOp::Avg => {
                        // Count valid positions of this window.
                        let mut count = 0usize;
                        for wfh in 0..c.filter_height {
                            let wih = (oh * c.stride_h + wfh) as isize - c.pad_top as isize;
                            if wih < 0 || wih >= c.in_height as isize {
                                continue;
                            }
                            for wfw in 0..c.filter_width {
                                let wiw = (ow * c.stride_w + wfw) as isize - c.pad_left as isize;
                                if wiw < 0 || wiw >= c.in_width as isize {
                                    continue;
                                }
                                count += 1;
                            }
                        }
                        acc += g / count.max(1) as f32;
                    }
                    PoolOp::Max => {
                        // First-argmax of the window, reference scan order.
                        let mut best = f32::NEG_INFINITY;
                        let mut best_pos = (usize::MAX, usize::MAX);
                        for wfh in 0..c.filter_height {
                            let wih = (oh * c.stride_h + wfh) as isize - c.pad_top as isize;
                            if wih < 0 || wih >= c.in_height as isize {
                                continue;
                            }
                            for wfw in 0..c.filter_width {
                                let wiw = (ow * c.stride_w + wfw) as isize - c.pad_left as isize;
                                if wiw < 0 || wiw >= c.in_width as isize {
                                    continue;
                                }
                                let v = s.get(1, &[b, wih as usize, wiw as usize, ch]);
                                if v > best {
                                    best = v;
                                    best_pos = (wih as usize, wiw as usize);
                                }
                            }
                        }
                        if best_pos == (ih, iw) {
                            acc += g;
                        }
                    }
                }
            }
        }
        acc
    })
}

/// Contiguous slice.
pub fn slice(in_dims: &[usize], begin: &[usize], size: &[usize]) -> Kernel {
    let (in_rank, begin) = (in_dims.len(), begin.to_vec());
    Kernel::per_element("Slice", size.to_vec(), move |s, _, coords| {
        let mut src = [0usize; MAX_RANK];
        for i in 0..in_rank {
            src[i] = coords[i] + begin[i];
        }
        s.get(0, &src[..in_rank])
    })
}

/// Constant pad.
pub fn pad(in_dims: &[usize], paddings: &[(usize, usize)], value: f32) -> Kernel {
    let (in_dims, paddings) = (in_dims.to_vec(), paddings.to_vec());
    let out_shape = in_dims.iter().zip(&paddings).map(|(&d, &(b, a))| d + b + a).collect();
    Kernel::per_element("Pad", out_shape, move |s, _, coords| {
        let mut src = [0usize; MAX_RANK];
        for i in 0..in_dims.len() {
            let c = coords[i] as isize - paddings[i].0 as isize;
            if c < 0 || c >= in_dims[i] as isize {
                return value;
            }
            src[i] = c as usize;
        }
        s.get(0, &src[..in_dims.len()])
    })
}

/// Concat along `axis`: each output texel picks its source input.
pub fn concat(in_dims: &[&[usize]], axis: usize) -> Kernel {
    let sizes_along_axis: Vec<usize> = in_dims.iter().map(|d| d[axis]).collect();
    let mut out_shape = in_dims[0].to_vec();
    out_shape[axis] = sizes_along_axis.iter().sum();
    Kernel::per_element("Concat", out_shape, move |s, _, coords| {
        let mut c = coords[axis];
        let mut input = 0usize;
        while c >= sizes_along_axis[input] {
            c -= sizes_along_axis[input];
            input += 1;
        }
        let mut src = [0usize; MAX_RANK];
        src[..coords.len()].copy_from_slice(coords);
        src[axis] = c;
        s.get(input, &src[..coords.len()])
    })
}

/// Transpose by permutation.
pub fn transpose(in_dims: &[usize], perm: &[usize]) -> Kernel {
    let perm = perm.to_vec();
    let out_shape = perm.iter().map(|&p| in_dims[p]).collect();
    Kernel::per_element("Transpose", out_shape, move |s, _, coords| {
        let mut src = [0usize; MAX_RANK];
        for (d, &p) in perm.iter().enumerate() {
            src[p] = coords[d];
        }
        s.get(0, &src[..perm.len()])
    })
}

/// Gather rows along `axis` via an index texture (input 1).
pub fn gather(in_dims: &[usize], axis: usize, n_indices: usize) -> Kernel {
    let in_dims = in_dims.to_vec();
    let n = in_dims[axis];
    let mut out_shape = in_dims.clone();
    out_shape[axis] = n_indices;
    Kernel::per_element("Gather", out_shape, move |s, _, coords| {
        let ix = s.get(1, &[coords[axis]]) as i64;
        let ix = ix.rem_euclid(n as i64) as usize;
        let mut src = [0usize; MAX_RANK];
        // coords: [..axis] from out, axis index replaced, [axis+1..].
        src[..in_dims.len()].copy_from_slice(&coords[..in_dims.len()]);
        src[axis] = ix;
        s.get(0, &src[..in_dims.len()])
    })
}

/// Tile by repetition.
pub fn tile(in_dims: &[usize], reps: &[usize]) -> Kernel {
    let in_dims = in_dims.to_vec();
    let out_shape = in_dims.iter().zip(reps).map(|(&d, &r)| d * r).collect();
    Kernel::per_element("Tile", out_shape, move |s, _, coords| {
        let mut src = [0usize; MAX_RANK];
        for (i, &d) in in_dims.iter().enumerate() {
            src[i] = coords[i] % d;
        }
        s.get(0, &src[..in_dims.len()])
    })
}

/// Reverse along axes.
pub fn reverse(in_dims: &[usize], axes: &[usize]) -> Kernel {
    let (in_dims, axes) = (in_dims.to_vec(), axes.to_vec());
    Kernel::per_element("Reverse", in_dims.clone(), move |s, _, coords| {
        let mut src = [0usize; MAX_RANK];
        for (i, &d) in in_dims.iter().enumerate() {
            src[i] = if axes.contains(&i) { d - 1 - coords[i] } else { coords[i] };
        }
        s.get(0, &src[..in_dims.len()])
    })
}

/// Broadcast select `cond ? a : b`.
pub fn select(
    cond_dims: &[usize],
    a_dims: &[usize],
    b_dims: &[usize],
    out_dims: &[usize],
) -> Kernel {
    let (cond_dims, a_dims, b_dims) = (cond_dims.to_vec(), a_dims.to_vec(), b_dims.to_vec());
    Kernel::per_element("Select", out_dims.to_vec(), move |s, _, coords| {
        let mut buf = [0usize; MAX_RANK];
        let lc = broadcast_coords(coords, &cond_dims, &mut buf);
        let c = s.get(0, &buf[..lc]);
        if c != 0.0 {
            let la = broadcast_coords(coords, &a_dims, &mut buf);
            s.get(1, &buf[..la])
        } else {
            let lb = broadcast_coords(coords, &b_dims, &mut buf);
            s.get(2, &buf[..lb])
        }
    })
}

/// One-hot encode: indices are input 0, trailing dim is `depth`.
pub fn one_hot(indices_dims: &[usize], depth: usize, on: f32, off: f32) -> Kernel {
    let mut out_shape = indices_dims.to_vec();
    out_shape.push(depth);
    Kernel::per_element("OneHot", out_shape, move |s, flat, _| {
        let row = flat / depth;
        let col = flat % depth;
        let ix = s.get_flat(0, row) as i64;
        if ix == col as i64 {
            on
        } else {
            off
        }
    })
}

/// Bilinear resize of NHWC.
pub fn resize_bilinear(
    in_dims: &[usize],
    new_h: usize,
    new_w: usize,
    align_corners: bool,
) -> Kernel {
    let (in_h, in_w) = (in_dims[1], in_dims[2]);
    let out_shape = vec![in_dims[0], new_h, new_w, in_dims[3]];
    let scale = |out_size: usize, in_size: usize| -> f32 {
        if align_corners && out_size > 1 {
            (in_size - 1) as f32 / (out_size - 1) as f32
        } else {
            in_size as f32 / out_size as f32
        }
    };
    let h_scale = scale(new_h, in_h);
    let w_scale = scale(new_w, in_w);
    Kernel::per_element("ResizeBilinear", out_shape, move |s, _, coords| {
        let (b, oh, ow, ch) = (coords[0], coords[1], coords[2], coords[3]);
        let src_h = if align_corners { oh as f32 * h_scale } else { (oh as f32 + 0.5) * h_scale - 0.5 };
        let src_h = src_h.max(0.0);
        let h0 = (src_h.floor() as usize).min(in_h - 1);
        let h1 = (h0 + 1).min(in_h - 1);
        let hf = src_h - h0 as f32;
        let src_w = if align_corners { ow as f32 * w_scale } else { (ow as f32 + 0.5) * w_scale - 0.5 };
        let src_w = src_w.max(0.0);
        let w0 = (src_w.floor() as usize).min(in_w - 1);
        let w1 = (w0 + 1).min(in_w - 1);
        let wf = src_w - w0 as f32;
        let at = |h: usize, w: usize| s.get(0, &[b, h, w, ch]);
        let top = at(h0, w0) + (at(h0, w1) - at(h0, w0)) * wf;
        let bot = at(h1, w0) + (at(h1, w1) - at(h1, w0)) * wf;
        top + (bot - top) * hf
    })
}
