//! Optimized kernels: blocked parallel matmul, im2col convolution, and
//! vector-friendly element-wise loops — the AVX/TF-C class of performance
//! the Node.js backend gets by binding to the TensorFlow C library
//! (paper Sec 4.2).

use crate::parallel::parallel_for_slices;
use std::borrow::Cow;
use webml_core::backend::{BinaryOp, FusedStep, UnaryOp};
use webml_core::conv_util::Conv2dInfo;
use webml_core::pool::WorkerPool;
use webml_core::quant::QuantParams;

/// The fused epilogue: optional per-channel bias add, then optional
/// activation. Uses the same `BinaryOp::apply`/`UnaryOp::apply` scalar math
/// as the unfused kernels so fused output is bit-identical to the
/// matmul→add→activation composition.
#[inline]
fn apply_epilogue(v: f32, channel: usize, bias: Option<&[f32]>, act: Option<UnaryOp>) -> f32 {
    let v = match bias {
        Some(b) => BinaryOp::Add.apply(v, b[channel]),
        None => v,
    };
    match act {
        Some(a) => a.apply(v),
        None => v,
    }
}

/// Batched matmul `[b, m, k] x [b, k, n]` with transposes, parallel over
/// output rows, ikj loop order for contiguous vectorizable inner loops.
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
    pool: &WorkerPool,
) -> Vec<f32> {
    matmul_impl(a, b, batch, m, k, n, transpose_a, transpose_b, None, None, pool)
}

/// Matmul with a fused epilogue: the bias add and activation run on each
/// output row while it is still hot in cache, in the same parallel pass as
/// the accumulation (no extra buffer, no second sweep over memory).
#[allow(clippy::too_many_arguments)]
pub fn fused_matmul(
    a: &[f32],
    b: &[f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    transpose_a: bool,
    transpose_b: bool,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    pool: &WorkerPool,
) -> Vec<f32> {
    matmul_impl(a, b, batch, m, k, n, transpose_a, transpose_b, bias, activation, pool)
}

#[allow(clippy::too_many_arguments)]
fn matmul_impl(
    a: &[f32],
    b: &[f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    transpose_a: bool,
    transpose_b: bool,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    pool: &WorkerPool,
) -> Vec<f32> {
    let mut out = vec![0.0f32; batch * m * n];
    let fused = bias.is_some() || activation.is_some();
    for bi in 0..batch {
        let a_mat = gather_matrix(&a[bi * m * k..(bi + 1) * m * k], m, k, transpose_a);
        let b_mat = gather_matrix(&b[bi * k * n..(bi + 1) * k * n], k, n, transpose_b);
        let out_b = &mut out[bi * m * n..(bi + 1) * m * n];
        parallel_for_slices(pool, out_b, m, n, k * n, |rows, chunk| {
            for (local_i, i) in rows.enumerate() {
                let out_row = &mut chunk[local_i * n..(local_i + 1) * n];
                let a_row = &a_mat[i * k..(i + 1) * k];
                for (p, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &b_mat[p * n..(p + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
                if fused {
                    for (j, o) in out_row.iter_mut().enumerate() {
                        *o = apply_epilogue(*o, j, bias, activation);
                    }
                }
            }
        });
    }
    out
}

/// Row-major `[rows, cols]` view of `src`: borrowed as is, or transposed
/// into a fresh matrix so the inner loops stay contiguous (an O(rows·cols)
/// copy, negligible next to the O(mkn) product).
fn gather_matrix(src: &[f32], rows: usize, cols: usize, transposed: bool) -> Cow<'_, [f32]> {
    if !transposed {
        return Cow::Borrowed(src);
    }
    // src is [cols, rows] and we want row-major [rows, cols].
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[r * cols + c] = src[c * rows + r];
        }
    }
    Cow::Owned(out)
}

/// conv2d via im2col + blocked matmul.
pub fn conv2d(x: &[f32], w: &[f32], info: &Conv2dInfo, pool: &WorkerPool) -> Vec<f32> {
    conv2d_impl(x, w, info, None, None, pool)
}

/// conv2d with the bias/activation epilogue fused into the im2col matmul.
pub fn fused_conv2d(
    x: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    pool: &WorkerPool,
) -> Vec<f32> {
    conv2d_impl(x, w, info, bias, activation, pool)
}

fn conv2d_impl(
    x: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    pool: &WorkerPool,
) -> Vec<f32> {
    let c = info;
    let patch = c.filter_height * c.filter_width * c.in_channels;
    let rows = c.batch * c.out_height * c.out_width;
    let cols = im2col(x, c, pool);
    // [rows, patch] x [patch, out_c]; the epilogue channel is the output
    // column, i.e. the conv output channel.
    matmul_impl(&cols, w, 1, rows, patch, c.out_channels, false, false, bias, activation, pool)
}

/// Build the im2col patch matrix `[batch*oh*ow, fh*fw*ic]` in parallel over
/// output rows; out-of-bounds taps are zero-filled.
fn im2col(x: &[f32], c: &Conv2dInfo, pool: &WorkerPool) -> Vec<f32> {
    let patch = c.filter_height * c.filter_width * c.in_channels;
    let rows = c.batch * c.out_height * c.out_width;
    let mut cols = vec![0.0f32; rows * patch];
    parallel_for_slices(pool, &mut cols, rows, patch, patch, |range, chunk| {
        for (local, row) in range.enumerate() {
            let oc_spatial = c.out_height * c.out_width;
            let b = row / oc_spatial;
            let rem = row % oc_spatial;
            let oh = rem / c.out_width;
            let ow = rem % c.out_width;
            let dst = &mut chunk[local * patch..(local + 1) * patch];
            let mut di = 0;
            for fh in 0..c.filter_height {
                let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                for fw in 0..c.filter_width {
                    let iw = (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                    if ih < 0 || ih >= c.in_height as isize || iw < 0 || iw >= c.in_width as isize {
                        dst[di..di + c.in_channels].fill(0.0);
                    } else {
                        let base = ((b * c.in_height + ih as usize) * c.in_width + iw as usize)
                            * c.in_channels;
                        dst[di..di + c.in_channels].copy_from_slice(&x[base..base + c.in_channels]);
                    }
                    di += c.in_channels;
                }
            }
        }
    });
    cols
}

/// Depthwise conv2d, parallel over output pixels.
pub fn depthwise_conv2d(x: &[f32], w: &[f32], info: &Conv2dInfo, pool: &WorkerPool) -> Vec<f32> {
    depthwise_conv2d_impl(x, w, info, None, None, pool)
}

/// Depthwise conv2d with the bias/activation epilogue applied to each output
/// pixel's channel slice right after its accumulation completes.
pub fn fused_depthwise_conv2d(
    x: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    pool: &WorkerPool,
) -> Vec<f32> {
    depthwise_conv2d_impl(x, w, info, bias, activation, pool)
}

fn depthwise_conv2d_impl(
    x: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    pool: &WorkerPool,
) -> Vec<f32> {
    let c = info.clone();
    let fused = bias.is_some() || activation.is_some();
    let mul = c.channel_mul;
    let pixels = c.batch * c.out_height * c.out_width;
    let stride = c.out_channels;
    let taps = c.filter_height * c.filter_width;
    let mut out = vec![0.0f32; pixels * stride];
    parallel_for_slices(pool, &mut out, pixels, stride, taps * stride, |range, chunk| {
        for (local, pix) in range.enumerate() {
            let spatial = c.out_height * c.out_width;
            let b = pix / spatial;
            let rem = pix % spatial;
            let oh = rem / c.out_width;
            let ow = rem % c.out_width;
            let dst = &mut chunk[local * stride..(local + 1) * stride];
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
                    let x_base =
                        ((b * c.in_height + ih as usize) * c.in_width + iw as usize) * c.in_channels;
                    let w_base = (fh * c.filter_width + fw) * c.in_channels * mul;
                    if mul == 1 {
                        // The common MobileNet case: contiguous multiply-add.
                        let xs = &x[x_base..x_base + c.in_channels];
                        let ws = &w[w_base..w_base + c.in_channels];
                        for ((d, &xv), &wv) in dst.iter_mut().zip(xs).zip(ws) {
                            *d += xv * wv;
                        }
                    } else {
                        for ic in 0..c.in_channels {
                            let xv = x[x_base + ic];
                            for m in 0..mul {
                                dst[ic * mul + m] += xv * w[w_base + ic * mul + m];
                            }
                        }
                    }
                }
            }
            if fused {
                for (och, d) in dst.iter_mut().enumerate() {
                    *d = apply_epilogue(*d, och, bias, activation);
                }
            }
        }
    });
    out
}

/// Quantized-weight fused matmul: f32 `a` against raw u8 codes `b_q`
/// (`value = code*scale + min`), parallel over output rows. The codes are
/// never expanded into an f32 weight buffer — the gathered code matrix stays
/// one byte per element and the affine factoring
/// `Σ a·(q·s + m) = s·Σ a·q + m·Σ a` moves scale/min into the per-output
/// epilogue, before bias and activation. A rank-2 `b_q` of `k*n` codes is
/// broadcast across the batch.
#[allow(clippy::too_many_arguments)]
pub fn fused_matmul_quant(
    a: &[f32],
    b_q: &[u8],
    params: &QuantParams,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    transpose_a: bool,
    transpose_b: bool,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    pool: &WorkerPool,
) -> Vec<f32> {
    let mut out = vec![0.0f32; batch * m * n];
    let shared_b = if b_q.len() == k * n {
        Some(gather_codes(b_q, k, n, transpose_b))
    } else {
        None
    };
    for bi in 0..batch {
        let a_mat = gather_matrix(&a[bi * m * k..(bi + 1) * m * k], m, k, transpose_a);
        let batch_b;
        let b_mat: &[u8] = match &shared_b {
            Some(sb) => sb,
            None => {
                batch_b = gather_codes(&b_q[bi * k * n..(bi + 1) * k * n], k, n, transpose_b);
                &batch_b
            }
        };
        let out_b = &mut out[bi * m * n..(bi + 1) * m * n];
        parallel_for_slices(pool, out_b, m, n, k * n, |rows, chunk| {
            for (local_i, i) in rows.enumerate() {
                let out_row = &mut chunk[local_i * n..(local_i + 1) * n];
                let a_row = &a_mat[i * k..(i + 1) * k];
                let mut acc_a = 0.0f32;
                for (p, &av) in a_row.iter().enumerate() {
                    acc_a += av;
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &b_mat[p * n..(p + 1) * n];
                    for (o, &qv) in out_row.iter_mut().zip(b_row) {
                        *o += av * qv as f32;
                    }
                }
                for (j, o) in out_row.iter_mut().enumerate() {
                    let (s, mn) = params.scale_min(j);
                    *o = apply_epilogue(s * *o + mn * acc_a, j, bias, activation);
                }
            }
        });
    }
    out
}

fn gather_codes(src: &[u8], rows: usize, cols: usize, transposed: bool) -> Cow<'_, [u8]> {
    if !transposed {
        return Cow::Borrowed(src);
    }
    // src is [cols, rows] and we want row-major [rows, cols].
    let mut out = vec![0u8; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[r * cols + c] = src[c * rows + r];
        }
    }
    Cow::Owned(out)
}

/// Quantized-filter fused conv2d: im2col on the f32 input only, then the
/// dequant-free quant matmul against the HWIO codes `[patch, out_c]`.
/// Per-channel `params` index the output-channel axis (matmul column).
pub fn fused_conv2d_quant(
    x: &[f32],
    w_q: &[u8],
    params: &QuantParams,
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    pool: &WorkerPool,
) -> Vec<f32> {
    let patch = info.filter_height * info.filter_width * info.in_channels;
    let rows = info.batch * info.out_height * info.out_width;
    let cols = im2col(x, info, pool);
    fused_matmul_quant(
        &cols,
        w_q,
        params,
        1,
        rows,
        patch,
        info.out_channels,
        false,
        false,
        bias,
        activation,
        pool,
    )
}

/// Quantized-filter fused depthwise conv2d, parallel over output pixels.
/// Output channel `oc = ic*mul + m` reads one input channel, so the factored
/// form needs the valid-tap input sum per `ic`; per-channel scales index
/// filter axis 2 (`ic`) or axis 3 (`m`).
pub fn fused_depthwise_conv2d_quant(
    x: &[f32],
    w_q: &[u8],
    params: &QuantParams,
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    pool: &WorkerPool,
) -> Vec<f32> {
    let c = info.clone();
    let mul = c.channel_mul;
    let pixels = c.batch * c.out_height * c.out_width;
    let stride = c.out_channels;
    let taps = c.filter_height * c.filter_width;
    let mut out = vec![0.0f32; pixels * stride];
    parallel_for_slices(pool, &mut out, pixels, stride, taps * stride, |range, chunk| {
        let mut acc_x = vec![0.0f32; c.in_channels];
        for (local, pix) in range.enumerate() {
            let spatial = c.out_height * c.out_width;
            let b = pix / spatial;
            let rem = pix % spatial;
            let oh = rem / c.out_width;
            let ow = rem % c.out_width;
            let dst = &mut chunk[local * stride..(local + 1) * stride];
            acc_x.fill(0.0);
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
                    let x_base =
                        ((b * c.in_height + ih as usize) * c.in_width + iw as usize) * c.in_channels;
                    let w_base = (fh * c.filter_width + fw) * c.in_channels * mul;
                    for ic in 0..c.in_channels {
                        let xv = x[x_base + ic];
                        acc_x[ic] += xv;
                        if xv == 0.0 {
                            continue;
                        }
                        for m in 0..mul {
                            dst[ic * mul + m] += xv * w_q[w_base + ic * mul + m] as f32;
                        }
                    }
                }
            }
            for (och, d) in dst.iter_mut().enumerate() {
                let ic = och / mul;
                let ch = match params {
                    QuantParams::PerTensor { .. } => 0,
                    QuantParams::PerChannel { axis, .. } => {
                        if *axis == 2 {
                            ic
                        } else {
                            och % mul
                        }
                    }
                };
                let (s, mn) = params.scale_min(ch);
                *d = apply_epilogue(s * *d + mn * acc_x[ic], och, bias, activation);
            }
        }
    });
    out
}

/// Gradient of conv2d w.r.t. input, gather form, parallel over input pixels.
pub fn conv2d_backprop_input(dy: &[f32], w: &[f32], info: &Conv2dInfo, pool: &WorkerPool) -> Vec<f32> {
    let c = info.clone();
    let pixels = c.batch * c.in_height * c.in_width;
    let stride = c.in_channels;
    let mut dx = vec![0.0f32; pixels * stride];
    // Only every stride-th tap lands on an output pixel.
    let macs_per_pixel = (c.filter_height * c.filter_width).div_ceil(c.stride_h * c.stride_w)
        * c.in_channels
        * c.out_channels;
    parallel_for_slices(pool, &mut dx, pixels, stride, macs_per_pixel, |range, chunk| {
        for (local, pix) in range.enumerate() {
            let spatial = c.in_height * c.in_width;
            let b = pix / spatial;
            let rem = pix % spatial;
            let ih = rem / c.in_width;
            let iw = rem % c.in_width;
            let dst = &mut chunk[local * stride..(local + 1) * stride];
            for fh in 0..c.filter_height {
                // oh * stride_h = ih + pad_top - fh * dil_h, must divide.
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
                    let dy_base =
                        ((b * c.out_height + oh) * c.out_width + ow) * c.out_channels;
                    let w_base = (fh * c.filter_width + fw) * c.in_channels * c.out_channels;
                    for (ic, d) in dst.iter_mut().enumerate() {
                        let w_row = &w[w_base + ic * c.out_channels..w_base + (ic + 1) * c.out_channels];
                        let dy_row = &dy[dy_base..dy_base + c.out_channels];
                        let mut acc = 0.0f32;
                        for (&g, &wv) in dy_row.iter().zip(w_row) {
                            acc += g * wv;
                        }
                        *d += acc;
                    }
                }
            }
        }
    });
    dx
}

/// Gradient of conv2d w.r.t. filter, gather form, parallel over filter rows.
pub fn conv2d_backprop_filter(x: &[f32], dy: &[f32], info: &Conv2dInfo, pool: &WorkerPool) -> Vec<f32> {
    let c = info.clone();
    let positions = c.filter_height * c.filter_width * c.in_channels;
    let stride = c.out_channels;
    let mut dw = vec![0.0f32; positions * stride];
    let macs_per_position = c.batch * c.out_height * c.out_width * c.out_channels;
    parallel_for_slices(pool, &mut dw, positions, stride, macs_per_position, |range, chunk| {
        for (local, pos) in range.enumerate() {
            let fh = pos / (c.filter_width * c.in_channels);
            let rem = pos % (c.filter_width * c.in_channels);
            let fw = rem / c.in_channels;
            let ic = rem % c.in_channels;
            let dst = &mut chunk[local * stride..(local + 1) * stride];
            for b in 0..c.batch {
                for oh in 0..c.out_height {
                    let ih = (oh * c.stride_h + fh * c.dilation_h) as isize - c.pad_top as isize;
                    if ih < 0 || ih >= c.in_height as isize {
                        continue;
                    }
                    for ow in 0..c.out_width {
                        let iw =
                            (ow * c.stride_w + fw * c.dilation_w) as isize - c.pad_left as isize;
                        if iw < 0 || iw >= c.in_width as isize {
                            continue;
                        }
                        let xv = x[((b * c.in_height + ih as usize) * c.in_width + iw as usize)
                            * c.in_channels
                            + ic];
                        if xv == 0.0 {
                            continue;
                        }
                        let dy_base =
                            ((b * c.out_height + oh) * c.out_width + ow) * c.out_channels;
                        let dy_row = &dy[dy_base..dy_base + c.out_channels];
                        for (d, &g) in dst.iter_mut().zip(dy_row) {
                            *d += xv * g;
                        }
                    }
                }
            }
        }
    });
    dw
}

/// Parallel element-wise unary map.
pub fn unary_map(x: &[f32], pool: &WorkerPool, f: impl Fn(f32) -> f32 + Sync) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    parallel_for_slices(pool, &mut out, x.len(), 1, 1, |range, chunk| {
        for (o, &v) in chunk.iter_mut().zip(&x[range]) {
            *o = f(v);
        }
    });
    out
}

/// Parallel element-wise binary map for equal shapes.
pub fn binary_map(a: &[f32], b: &[f32], pool: &WorkerPool, f: impl Fn(f32, f32) -> f32 + Sync) -> Vec<f32> {
    let mut out = vec![0.0f32; a.len()];
    parallel_for_slices(pool, &mut out, a.len(), 1, 1, |range, chunk| {
        for ((o, &u), &v) in chunk.iter_mut().zip(&a[range.clone()]) .zip(&b[range]) {
            *o = f(u, v);
        }
    });
    out
}

/// Suffix-broadcast binary map: `b` repeats every `b.len()` elements (the
/// bias-add pattern `[n, h, w, c] + [c]`).
pub fn binary_map_suffix(
    a: &[f32],
    b: &[f32],
    pool: &WorkerPool,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Vec<f32> {
    let bl = b.len();
    let mut out = vec![0.0f32; a.len()];
    parallel_for_slices(pool, &mut out, a.len(), 1, 1, |range, chunk| {
        for (k, (o, &u)) in chunk.iter_mut().zip(&a[range.clone()]).enumerate() {
            let i = range.start + k;
            *o = f(u, b[i % bl]);
        }
    });
    out
}

/// Per-output-dimension element strides for sampling an input of shape
/// `in_dims` at coordinates of the (right-aligned broadcast) output shape
/// `out_dims`; broadcast dimensions get stride 0.
fn broadcast_strides(in_dims: &[usize], out_dims: &[usize]) -> Vec<usize> {
    let offset = out_dims.len() - in_dims.len();
    let mut in_strides = vec![0usize; in_dims.len()];
    let mut s = 1usize;
    for d in (0..in_dims.len()).rev() {
        in_strides[d] = s;
        s *= in_dims[d];
    }
    let mut out = vec![0usize; out_dims.len()];
    for (d, o) in out.iter_mut().enumerate() {
        if d >= offset && in_dims[d - offset] != 1 {
            *o = in_strides[d - offset];
        }
    }
    out
}

/// A whole elementwise chain — `x` followed by `steps`, where binary steps
/// pull their right-hand side from `extras` — evaluated in a single parallel
/// pass with no intermediate buffers. Sampling every operand right-aligned
/// against the *final* output coordinates is equivalent to the progressive
/// per-step broadcast of the unfused chain because elementwise ops are
/// pointwise, so fused output is bit-identical.
pub fn fused_elementwise(
    x: &[f32],
    x_dims: &[usize],
    extras: &[(&[f32], &[usize])],
    steps: &[FusedStep],
    out_dims: &[usize],
    pool: &WorkerPool,
) -> Vec<f32> {
    let size: usize = out_dims.iter().product::<usize>().max(1);
    let rank = out_dims.len();
    let mut out_strides = vec![1usize; rank];
    for d in (0..rank.saturating_sub(1)).rev() {
        out_strides[d] = out_strides[d + 1] * out_dims[d + 1];
    }
    let x_strides = broadcast_strides(x_dims, out_dims);
    let extra_strides: Vec<Vec<usize>> =
        extras.iter().map(|(_, dims)| broadcast_strides(dims, out_dims)).collect();
    let sample = |strides: &[usize], flat: usize| -> usize {
        let mut rem = flat;
        let mut idx = 0usize;
        for d in 0..rank {
            idx += (rem / out_strides[d]) * strides[d];
            rem %= out_strides[d];
        }
        idx
    };
    let mut out = vec![0.0f32; size];
    parallel_for_slices(pool, &mut out, size, 1, 1 + steps.len(), |range, chunk| {
        for (local, o) in chunk.iter_mut().enumerate() {
            let flat = range.start + local;
            let mut v = x[sample(&x_strides, flat)];
            for step in steps {
                v = match *step {
                    FusedStep::Unary(op) => op.apply(v),
                    FusedStep::Binary(op, i) => {
                        op.apply(v, extras[i].0[sample(&extra_strides[i], flat)])
                    }
                };
            }
            *o = v;
        }
    });
    out
}

/// Parallel sum over the trailing `inner` elements of each of `outer` rows.
pub fn reduce_last(x: &[f32], outer: usize, inner: usize, pool: &WorkerPool, mean: bool) -> Vec<f32> {
    let mut out = vec![0.0f32; outer];
    parallel_for_slices(pool, &mut out, outer, 1, inner, |range, chunk| {
        for (o, row) in chunk.iter_mut().zip(x[range.start * inner..range.end * inner].chunks(inner)) {
            let mut acc = 0.0f32;
            for &v in row {
                acc += v;
            }
            *o = if mean { acc / inner as f32 } else { acc };
        }
    });
    out
}

/// Parallel sum over the `rows` of each of `cols` columns of a row-major
/// `[rows, cols]` matrix (the bias gradient `[n, h, w, c] → [c]`), split over
/// output columns. Every column adds its rows in index order starting from
/// zero, the order `kernels::reduce` visits them in, so the result is
/// bit-identical to the reference however the columns are split.
pub fn reduce_leading(x: &[f32], rows: usize, cols: usize, pool: &WorkerPool, mean: bool) -> Vec<f32> {
    let mut out = vec![0.0f32; cols];
    parallel_for_slices(pool, &mut out, cols, 1, rows, |range, chunk| {
        for row in x.chunks(cols) {
            for (o, &v) in chunk.iter_mut().zip(&row[range.clone()]) {
                *o += v;
            }
        }
        if mean {
            for o in chunk.iter_mut() {
                *o /= rows as f32;
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webml_core::backend::ReduceOp;
    use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};
    use webml_core::kernels as reference;
    use webml_core::shape::Shape;

    fn close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "i={i}: {x} vs {y}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `kernel`'s output, the same to the bit on pools of 1, 2, 3 and 8. The
    /// second shape of every test below is large enough to be split on all
    /// but the first.
    fn on_every_pool(kernel: impl Fn(&WorkerPool) -> Vec<f32>) -> Vec<f32> {
        let inline = kernel(&WorkerPool::new(1));
        for cores in [2, 3, 8] {
            let split = kernel(&WorkerPool::new(cores));
            assert_eq!(bits(&split), bits(&inline), "{cores} threads disagree with one");
        }
        inline
    }

    fn wave(len: usize, step: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * step).sin()).collect()
    }

    fn codes(len: usize, mul: usize) -> Vec<u8> {
        (0..len).map(|i| (i * mul % 251) as u8).collect()
    }

    #[test]
    fn matmul_matches_reference_all_flags() {
        for (batch, m, k, n) in [(2, 5, 7, 3), (2, 64, 48, 40)] {
            let a = wave(batch * m * k, 0.13);
            let b = wave(batch * k * n, 0.29);
            for ta in [false, true] {
                for tb in [false, true] {
                    // The logical m, k, n are the same whatever the flags.
                    let got = on_every_pool(|pool| matmul(&a, &b, batch, m, k, n, ta, tb, pool));
                    let want = reference::matmul(&a, &b, batch, m, k, n, ta, tb);
                    close(&got, &want, 1e-4);
                }
            }
        }
    }

    #[test]
    fn conv2d_matches_reference() {
        for dims in [[2, 9, 9, 4], [4, 16, 16, 4]] {
            let xs = Shape::new(dims.to_vec());
            let ws = Shape::new(vec![3, 3, 4, 8]);
            let info = conv2d_info("t", &xs, &ws, (2, 2), Padding::Same, (1, 1)).unwrap();
            let x = wave(xs.size(), 0.17);
            let w = wave(ws.size(), 0.37);
            let got = on_every_pool(|pool| conv2d(&x, &w, &info, pool));
            close(&got, &reference::conv2d(&x, &w, &info), 1e-3);
        }
    }

    #[test]
    fn conv2d_dilated_matches_reference() {
        for dims in [[1, 10, 10, 3], [2, 20, 20, 3]] {
            let xs = Shape::new(dims.to_vec());
            let ws = Shape::new(vec![3, 3, 3, 5]);
            let info = conv2d_info("t", &xs, &ws, (1, 1), Padding::Valid, (2, 2)).unwrap();
            let x = wave(xs.size(), 0.11);
            let w = wave(ws.size(), 0.23);
            let got = on_every_pool(|pool| conv2d(&x, &w, &info, pool));
            close(&got, &reference::conv2d(&x, &w, &info), 1e-3);
        }
    }

    #[test]
    fn depthwise_matches_reference() {
        for dims in [[2, 8, 8, 6], [4, 16, 16, 6]] {
            let xs = Shape::new(dims.to_vec());
            let ws = Shape::new(vec![3, 3, 6, 2]);
            let info =
                depthwise_conv2d_info("t", &xs, &ws, (1, 1), Padding::Same, (1, 1)).unwrap();
            let x = wave(xs.size(), 0.19);
            let w = wave(ws.size(), 0.41);
            let got = on_every_pool(|pool| depthwise_conv2d(&x, &w, &info, pool));
            close(&got, &reference::depthwise_conv2d(&x, &w, &info), 1e-4);
        }
    }

    #[test]
    fn conv_backprops_match_reference() {
        for (dims, filter) in [([1, 6, 6, 3], [3, 3, 3, 4]), ([8, 16, 16, 4], [3, 3, 4, 8])] {
            let xs = Shape::new(dims.to_vec());
            let ws = Shape::new(filter.to_vec());
            let info = conv2d_info("t", &xs, &ws, (2, 2), Padding::Same, (1, 1)).unwrap();
            let x = wave(xs.size(), 0.21);
            let w = wave(ws.size(), 0.33);
            let dy = wave(info.out_shape().size(), 0.47);
            close(
                &on_every_pool(|pool| conv2d_backprop_input(&dy, &w, &info, pool)),
                &reference::conv2d_backprop_input(&dy, &w, &info),
                1e-4,
            );
            close(
                &on_every_pool(|pool| conv2d_backprop_filter(&x, &dy, &info, pool)),
                &reference::conv2d_backprop_filter(&x, &dy, &info),
                1e-4,
            );
        }
    }

    #[test]
    fn fused_matmul_quant_matches_reference_all_flags() {
        for (batch, m, k, n) in [(2, 5, 7, 3), (2, 64, 48, 40)] {
            let a = wave(batch * m * k, 0.13);
            let b_q = codes(batch * k * n, 37);
            let params = QuantParams::per_tensor(0.05, -3.1);
            let bias = wave(n, 0.7);
            for ta in [false, true] {
                for tb in [false, true] {
                    let got = on_every_pool(|pool| {
                        fused_matmul_quant(
                            &a, &b_q, &params, batch, m, k, n, ta, tb,
                            Some(&bias), Some(UnaryOp::Relu), pool,
                        )
                    });
                    let want = reference::fused_matmul_quant(
                        &a, &b_q, &params, Some(&bias), Some(UnaryOp::Relu), batch, m, k, n, ta, tb,
                    );
                    close(&got, &want, 1e-3);
                }
            }
        }
    }

    #[test]
    fn fused_matmul_quant_broadcasts_rank2_codes() {
        // One shared [k,n] code matrix across batch=3, per-channel columns.
        let a: Vec<f32> = (0..3 * 4 * 6).map(|i| (i as f32 * 0.21).cos()).collect();
        let b_q: Vec<u8> = (0..6 * 2).map(|i| (i * 19 % 256) as u8).collect();
        let params = QuantParams::per_channel(2, vec![0.1, 0.02], vec![-1.0, 2.0]);
        let got = on_every_pool(|pool| {
            fused_matmul_quant(&a, &b_q, &params, 3, 4, 6, 2, false, false, None, None, pool)
        });
        let want = reference::fused_matmul_quant(
            &a, &b_q, &params, None, None, 3, 4, 6, 2, false, false,
        );
        close(&got, &want, 1e-4);
    }

    #[test]
    fn fused_conv2d_quant_matches_reference() {
        for dims in [[2, 9, 9, 4], [4, 16, 16, 4]] {
            let xs = Shape::new(dims.to_vec());
            let ws = Shape::new(vec![3, 3, 4, 8]);
            let info = conv2d_info("t", &xs, &ws, (2, 2), Padding::Same, (1, 1)).unwrap();
            let x = wave(xs.size(), 0.17);
            let w_q = codes(ws.size(), 53);
            let params = QuantParams::per_channel(
                3,
                (0..8).map(|i| 0.01 + i as f32 * 0.005).collect(),
                (0..8).map(|i| -1.0 + i as f32 * 0.1).collect(),
            );
            let bias: Vec<f32> = (0..8).map(|i| i as f32 * 0.3 - 1.0).collect();
            let got = on_every_pool(|pool| {
                fused_conv2d_quant(&x, &w_q, &params, &info, Some(&bias), Some(UnaryOp::Relu), pool)
            });
            let want = reference::fused_conv2d_quant(
                &x, &w_q, &params, Some(&bias), Some(UnaryOp::Relu), &info,
            );
            close(&got, &want, 1e-3);
        }
    }

    #[test]
    fn fused_depthwise_conv2d_quant_matches_reference() {
        for dims in [[2, 8, 8, 6], [4, 16, 16, 6]] {
            let xs = Shape::new(dims.to_vec());
            let ws = Shape::new(vec![3, 3, 6, 2]);
            let info =
                depthwise_conv2d_info("t", &xs, &ws, (1, 1), Padding::Same, (1, 1)).unwrap();
            let x = wave(xs.size(), 0.19);
            let w_q = codes(ws.size(), 71);
            for params in [
                QuantParams::per_tensor(0.04, -5.0),
                QuantParams::per_channel(
                    2,
                    (0..6).map(|i| 0.01 * (i + 1) as f32).collect(),
                    vec![-0.5; 6],
                ),
                QuantParams::per_channel(3, vec![0.03, 0.07], vec![-2.0, 1.0]),
            ] {
                let got = on_every_pool(|pool| {
                    fused_depthwise_conv2d_quant(&x, &w_q, &params, &info, None, None, pool)
                });
                let want =
                    reference::fused_depthwise_conv2d_quant(&x, &w_q, &params, None, None, &info);
                close(&got, &want, 1e-3);
            }
        }
    }

    #[test]
    fn elementwise_helpers() {
        for len in [5000, 100_000] {
            let a: Vec<f32> = (0..len).map(|i| i as f32 * 0.01).collect();
            let b: Vec<f32> = (0..len).map(|i| 1.0 + i as f32 * 0.02).collect();
            let bias = vec![1.0f32, 2.0];
            let sum = on_every_pool(|pool| binary_map(&a, &b, pool, |x, y| x + y));
            let biased = on_every_pool(|pool| binary_map_suffix(&a, &bias, pool, |x, y| x + y));
            let doubled = on_every_pool(|pool| unary_map(&a, pool, |x| x * 2.0));
            // relu(a + bias) * b in one pass, `bias` broadcast along rows.
            let steps = [
                FusedStep::Binary(BinaryOp::Add, 0),
                FusedStep::Unary(UnaryOp::Relu),
                FusedStep::Binary(BinaryOp::Mul, 1),
            ];
            let dims = [len / 2, 2];
            let extras: [(&[f32], &[usize]); 2] = [(&bias, &[2]), (&b, &dims)];
            let chain =
                on_every_pool(|pool| fused_elementwise(&a, &dims, &extras, &steps, &dims, pool));
            for i in 0..len {
                assert_eq!(sum[i], a[i] + b[i]);
                assert_eq!(biased[i], a[i] + bias[i % 2]);
                assert_eq!(doubled[i], a[i] * 2.0);
                assert_eq!(chain[i], (a[i] + bias[i % 2]).max(0.0) * b[i]);
            }
        }
    }

    #[test]
    fn reduce_last_sums_rows() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(on_every_pool(|pool| reduce_last(&x, 2, 3, pool, false)), vec![6.0, 15.0]);
        assert_eq!(on_every_pool(|pool| reduce_last(&x, 2, 3, pool, true)), vec![2.0, 5.0]);
        let x = wave(96 * 700, 0.31);
        let rows = on_every_pool(|pool| reduce_last(&x, 96, 700, pool, false));
        assert_eq!(rows, reference::reduce(ReduceOp::Sum, &x, &Shape::new(vec![96, 700]), &[1]));
    }

    #[test]
    fn reduce_leading_equals_reference_bit_for_bit() {
        // The bias gradients of the training workload, and a wide one that
        // is split eight ways.
        for dims in [[32, 14, 14, 8], [32, 7, 7, 16], [4, 5, 6, 512]] {
            let shape = Shape::new(dims.to_vec());
            let x = wave(shape.size(), 0.43);
            let (rows, cols) = (dims[0] * dims[1] * dims[2], dims[3]);
            for (op, mean) in [(ReduceOp::Sum, false), (ReduceOp::Mean, true)] {
                let got = on_every_pool(|pool| reduce_leading(&x, rows, cols, pool, mean));
                let want = reference::reduce(op, &x, &shape, &[0, 1, 2]);
                assert_eq!(bits(&got), bits(&want));
            }
        }
    }
}
