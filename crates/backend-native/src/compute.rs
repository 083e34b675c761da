//! Optimized kernels: blocked parallel matmul, im2col convolution and its
//! two gradients as products, and vector-friendly element-wise loops — the
//! AVX-class performance the Node.js backend gets by binding to the
//! TensorFlow C library (paper Sec 4.2).
//!
//! The hot loops — the register-tiled product, im2col, col2im, the fused
//! epilogue and the element-wise maps — are each written once and compiled
//! twice ([`hot_loop!`]): for the baseline and for AVX2. Every kernel takes
//! the [`Codegen`] to run, which [`Native`](crate::Native) detects once per
//! call; both builds give the same bits.
//!
//! Every kernel takes its output, and its `f32` scratch (im2col matrices, a
//! transposed right operand, `dy · Wᵀ`), from the backend's free list
//! ([`Host::buffers`]) and hands the scratch back before it returns. A taken
//! buffer holds whatever its last user left, so a kernel either writes every
//! element or asks for the buffer zeroed.

use crate::parallel::{parallel_collect, parallel_for_slices, Slots};
use std::borrow::Cow;
use std::ops::Range;
use webml_core::backend::{BinaryOp, FusedStep, UnaryOp};
use webml_core::codegen::Codegen;
use webml_core::conv_util::Conv2dInfo;
use webml_core::host::Host;
use webml_core::kernels as reference;
use webml_core::quant::QuantParams;
use webml_core::shape::Shape;
use webml_core::tile::{self, gemm_column_block, Lhs, RowMajor, Transposed};
use webml_core::{hot_loop, with_unary_fn};

/// [`with_unary_fn!`] for a binary op: `$f` is `BinaryOp::apply` with the op
/// a constant.
macro_rules! with_binary_fn {
    ($op:expr, $f:ident => $body:expr) => {
        with_binary_fn!(@arms $op, $f => $body;
            Add, Sub, Mul, Div, FloorDiv, Pow, Maximum, Minimum, Mod, SquaredDifference, Atan2,
            Equal, NotEqual, Greater, GreaterEqual, Less, LessEqual, LogicalAnd, LogicalOr,
            LogicalXor)
    };
    (@arms $op:expr, $f:ident => $body:expr; $($unit:ident),*) => {
        match $op {
            $(BinaryOp::$unit => {
                let $f = |u: f32, v: f32| BinaryOp::$unit.apply(u, v);
                $body
            })*
        }
    };
}

hot_loop! {
    /// The fused epilogue over `rows` ([`tile::epilogue`]).
    fn epilogue<const WIDE: bool>(
        rows: &mut [f32],
        n: usize,
        bias: Option<&[f32]>,
        activation: Option<UnaryOp>,
    ) {
        tile::epilogue(rows, n, bias, activation)
    }
}

/// Batched matmul `[b, m, k] x [b, k, n]` with transposes, parallel over
/// output rows, register-tiled within each run of rows ([`gemm_rows`]).
#[allow(clippy::too_many_arguments)]
pub fn matmul(
    codegen: Codegen,
    a: &[f32],
    b: &[f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    transpose_a: bool,
    transpose_b: bool,
    host: &Host<'_>,
) -> Vec<f32> {
    matmul_impl(codegen, a, b, batch, m, k, n, transpose_a, transpose_b, None, None, host)
}

/// Matmul with a fused epilogue: the bias add and activation run on each
/// chunk of output rows while it is still hot in cache, in the same parallel
/// pass as the accumulation (no extra buffer, no second sweep over memory).
#[allow(clippy::too_many_arguments)]
pub fn fused_matmul(
    codegen: Codegen,
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
    host: &Host<'_>,
) -> Vec<f32> {
    matmul_impl(codegen, a, b, batch, m, k, n, transpose_a, transpose_b, bias, activation, host)
}

/// How many multiply-adds of the register-tiled product make one element
/// visit, the unit `webml_core::pool::GRAIN` counts work in. Every other kernel's
/// multiply-add loads and stores its accumulator and *is* a visit; a tile
/// keeps its accumulators in registers. Counted one for one, the three
/// 250 k-multiply-add products of the training step's dense layer are split
/// for a loss (`speedup_vs_1thread` 1.07 against 1.10, same rounds as
/// `GRAIN`'s), and it is on them that the value decides a split.
///
/// Measured for both builds on one thread (the step's eight products, 31
/// rounds with the builds alternating; 2-vCPU Sapphire Rapids Xeon, release
/// build): a tiled multiply-add of the dense products takes 0.115–0.148 ns
/// portable and 0.083–0.119 ns with AVX2, which gains least there (8 + 2
/// columns; the conv products went 0.089–0.112 → 0.040–0.070 ns), while a
/// visit takes 0.42–0.60 ns in both (`max(a[i], 0)`, `a[i] · b[i]` over
/// 1 Mi floats). A visit is thus 2.8–5.2 of those multiply-adds portable and
/// 3.5–7.2 with AVX2, and the power of two at the low end is 4 for both.
pub(crate) const TILED_MACS_PER_VISIT: usize = 4;

#[allow(clippy::too_many_arguments)]
fn matmul_impl(
    codegen: Codegen,
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
    host: &Host<'_>,
) -> Vec<f32> {
    let mut out = host.buffers.take(batch * m * n);
    if out.is_empty() {
        return out;
    }
    let epilogue = (bias, activation);
    for bi in 0..batch {
        let a_b = &a[bi * m * k..(bi + 1) * m * k];
        let b_mat = gather_matrix(&b[bi * k * n..(bi + 1) * k * n], k, n, transpose_b, host);
        let out_b = &mut out[bi * m * n..(bi + 1) * m * n];
        if transpose_a {
            let a_b = Transposed { data: a_b, rows: m };
            tiled_product(codegen, a_b, &b_mat, m, n, epilogue, host, out_b);
        } else {
            let a_b = RowMajor { data: a_b, cols: k };
            tiled_product(codegen, a_b, &b_mat, m, n, epilogue, host, out_b);
        }
        give_back(b_mat, host);
    }
    out
}

/// `out = a · b` for one matrix of the batch, then the epilogue if any,
/// parallel over output rows.
#[allow(clippy::too_many_arguments)]
fn tiled_product(
    codegen: Codegen,
    a: impl Lhs,
    b: &[f32],
    m: usize,
    n: usize,
    (bias, activation): (Option<&[f32]>, Option<UnaryOp>),
    host: &Host<'_>,
    out: &mut [f32],
) {
    let fused = bias.is_some() || activation.is_some();
    // `b` is `[k, n]`: a row of the output is `k · n` multiply-adds.
    let row_work = b.len().div_ceil(TILED_MACS_PER_VISIT);
    parallel_for_slices(host.pool, out, m, n, row_work, |rows, chunk| {
        gemm_rows(codegen, a, rows.start, b, n, chunk);
        if fused {
            epilogue(codegen, chunk, n, bias, activation);
        }
    });
}

hot_loop! {
    /// `out = a · b` for rows `i0..` of `a`: `b` is `[k, n]`, `out`
    /// `[rows, n]`, whose contents on entry are never read.
    ///
    /// The columns are cut into register tiles
    /// ([`gemm_tile`](webml_core::tile::gemm_tile)) 16 wide while 16 are
    /// left, then one each of 8, 4, 2 and 1 as `n` requires. Whatever
    /// the width, an output element is *one* accumulator that starts at zero
    /// and takes `a[i, p] · b[p, j]` for `p = 0, 1, ..` in that order — the
    /// order of `webml_core::kernels::matmul` and, through im2col, of
    /// `conv2d` — so the result equals theirs to the bit and does not depend
    /// on the tile a column fell into, on the build, on how the pool split
    /// the rows, or on the layout of `a`.
    ///
    /// A tile holds its `R x W` accumulators in registers, at most 8 of the
    /// 16 a build has, which leaves room for the row segment of `b`, the
    /// broadcast `a` element and the product. The baseline's registers hold
    /// 4 floats, so its 16-wide tile is 2x16; AVX2's hold 8, so its 16-wide
    /// tile is 4x16 — twice the rows, half the reads of `b` per multiply-add.
    /// Both builds take 4x8 for the 8-wide block: with AVX2, 8x8 ran the
    /// training step's row-major products with `n = 8` and `n = 10` at half
    /// the speed (6272x9x8: 111 µs against 46 µs, one thread, 25 rounds).
    ///
    /// A tile pays by re-reading its column block of `b` from L1 for every
    /// tile of rows. With fewer rows than one tile nothing is re-read, and
    /// the block is `k` cache lines `n` floats apart — a stride no
    /// prefetcher follows — so those few rows walk `b` row by row, the order
    /// it is stored in, with the output row as the accumulators: the same
    /// additions in the same order. (A served 1x256x1024 dense layer, its
    /// 1 MB of weights cold between requests, cost `serve_fleet` 13% of its
    /// throughput through the tiles.)
    fn gemm_rows<const WIDE: bool>(a: impl Lhs, i0: usize, b: &[f32], n: usize, out: &mut [f32]) {
        if out.len() < 4 * n {
            out.fill(0.0);
            for (i, out_row) in (i0..).zip(out.chunks_exact_mut(n)) {
                for ([av], b_row) in a.rows(i).zip(b.chunks_exact(n)) {
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
            return;
        }
        let (b, mut j) = (RowMajor { data: b, cols: n }, 0);
        while j + 16 <= n {
            if WIDE {
                gemm_column_block::<4, 16>(a, i0, b, n, j, out);
            } else {
                gemm_column_block::<2, 16>(a, i0, b, n, j, out);
            }
            j += 16;
        }
        if j + 8 <= n {
            gemm_column_block::<4, 8>(a, i0, b, n, j, out);
            j += 8;
        }
        if j + 4 <= n {
            gemm_column_block::<4, 4>(a, i0, b, n, j, out);
            j += 4;
        }
        if j + 2 <= n {
            gemm_column_block::<4, 2>(a, i0, b, n, j, out);
            j += 2;
        }
        if j < n {
            gemm_column_block::<4, 1>(a, i0, b, n, j, out);
        }
    }
}

/// Row-major `[rows, cols]` view of a product's right operand `B`, so a tile
/// reads one contiguous row segment of it per `p`: borrowed as is, or
/// transposed into a scratch matrix; [`give_back`] it after use. A transposed
/// `B` is a weight matrix (`dy · Wᵀ` of a conv's or a dense layer's input
/// gradient, 7 840 values at most in the training step), so the copy costs
/// little; the left operand, whose transposed copies were 8–9 % of that step
/// (`colsᵀ · dy`, `xᵀ · dy`), is never copied ([`Lhs`]).
fn gather_matrix<'a>(
    src: &'a [f32],
    rows: usize,
    cols: usize,
    transposed: bool,
    host: &Host<'_>,
) -> Cow<'a, [f32]> {
    if !transposed {
        return Cow::Borrowed(src);
    }
    // src is [cols, rows] and we want row-major [rows, cols]; every element
    // is written.
    let mut out = host.buffers.take(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            out[r * cols + c] = src[c * rows + r];
        }
    }
    Cow::Owned(out)
}

/// Return a kernel's scratch matrix to the free list; a borrowed view is
/// nobody's to return.
fn give_back(matrix: Cow<'_, [f32]>, host: &Host<'_>) {
    if let Cow::Owned(buf) = matrix {
        host.buffers.give(buf);
    }
}

/// conv2d via im2col + blocked matmul.
pub fn conv2d(
    codegen: Codegen,
    x: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    host: &Host<'_>,
) -> Vec<f32> {
    conv2d_impl(codegen, x, w, info, None, None, host)
}

/// conv2d with the bias/activation epilogue fused into the im2col matmul.
pub fn fused_conv2d(
    codegen: Codegen,
    x: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    host: &Host<'_>,
) -> Vec<f32> {
    conv2d_impl(codegen, x, w, info, bias, activation, host)
}

fn conv2d_impl(
    codegen: Codegen,
    x: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    host: &Host<'_>,
) -> Vec<f32> {
    let c = info;
    let patch = c.filter_height * c.filter_width * c.in_channels;
    let rows = c.batch * c.out_height * c.out_width;
    let cols = im2col(codegen, x, c, host);
    // [rows, patch] x [patch, out_c]; the epilogue channel is the output
    // column, i.e. the conv output channel.
    let (n, ta, tb) = (c.out_channels, false, false);
    let out = matmul_impl(codegen, &cols, w, 1, rows, patch, n, ta, tb, bias, activation, host);
    host.buffers.give(cols);
    out
}

/// Build the im2col patch matrix `[batch*oh*ow, fh*fw*ic]`, in parallel over
/// image rows `(b, oh)` ([`im2col_rows`]).
fn im2col(codegen: Codegen, x: &[f32], c: &Conv2dInfo, host: &Host<'_>) -> Vec<f32> {
    let image_row = c.out_width * c.filter_height * c.filter_width * c.in_channels;
    let image_rows = c.batch * c.out_height;
    let mut cols = host.buffers.take(image_rows * image_row);
    if cols.is_empty() {
        return cols;
    }
    parallel_for_slices(host.pool, &mut cols, image_rows, image_row, image_row, |range, chunk| {
        im2col_rows(codegen, x, c, range, chunk);
    });
    cols
}

hot_loop! {
    /// Image rows `rows` of the im2col matrix, into `cols`, every element of
    /// which is written: each filter row of each output column, as a copy,
    /// a tap at a time, or zeros. Out-of-bounds taps are zero-filled. (The
    /// reference kernel skips a tap outside the image; the zero written here
    /// adds `0 · w` to the accumulator instead, which leaves it as it was
    /// for any finite `w`.)
    ///
    /// An image row is filled one filter row at a time, from the one input
    /// line `ih` that filter row reads, stepping `stride_w · in_channels`
    /// along it per output column. NHWC keeps the `filter_width ·
    /// in_channels` values under a filter row next to each other, so with
    /// `dilation_w == 1` a window inside the line is one copy; the windows
    /// that hang over its left or right end go tap by tap. With one input
    /// channel that copy is of a few values, and a call to `memcpy` per
    /// output column cost more than the values (conv 1 of the training step:
    /// 6 272 rows of 9); there each tap instead walks the line, one value
    /// per output column.
    fn im2col_rows<const WIDE: bool>(
        x: &[f32],
        c: &Conv2dInfo,
        rows: Range<usize>,
        cols: &mut [f32],
    ) {
        let ic = c.in_channels;
        let run = c.filter_width * ic;
        let patch = c.filter_height * run;
        let line_len = c.in_width * ic;
        let image_row = c.out_width * patch;
        for (row, dst) in rows.zip(cols.chunks_exact_mut(image_row)) {
            let (b, oh) = (row / c.out_height, row % c.out_height);
            for fh in 0..c.filter_height {
                let dst = &mut dst[fh * run..];
                // Above the image the subtraction wraps, and fails the test.
                let ih = (oh * c.stride_h + fh * c.dilation_h).wrapping_sub(c.pad_top);
                if ih >= c.in_height {
                    for ow in 0..c.out_width {
                        dst[ow * patch..][..run].fill(0.0);
                    }
                    continue;
                }
                let line = &x[(b * c.in_height + ih) * line_len..][..line_len];
                let iw = |ow: usize, fw: usize| {
                    (ow * c.stride_w + fw * c.dilation_w).wrapping_sub(c.pad_left)
                };
                if ic == 1 {
                    for fw in 0..c.filter_width {
                        for ow in 0..c.out_width {
                            let iw = iw(ow, fw);
                            dst[ow * patch + fw] = if iw < c.in_width { line[iw] } else { 0.0 };
                        }
                    }
                    continue;
                }
                for ow in 0..c.out_width {
                    let window = &mut dst[ow * patch..][..run];
                    let iw0 = iw(ow, 0);
                    if c.dilation_w == 1 && iw0 < c.in_width && iw0 + c.filter_width <= c.in_width {
                        window.copy_from_slice(&line[iw0 * ic..][..run]);
                        continue;
                    }
                    for (fw, tap) in window.chunks_exact_mut(ic).enumerate() {
                        let iw = iw(ow, fw);
                        if iw < c.in_width {
                            tap.copy_from_slice(&line[iw * ic..][..ic]);
                        } else {
                            tap.fill(0.0);
                        }
                    }
                }
            }
        }
    }
}

/// Depthwise conv2d, parallel over output pixels.
pub fn depthwise_conv2d(
    codegen: Codegen,
    x: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    host: &Host<'_>,
) -> Vec<f32> {
    depthwise_conv2d_impl(codegen, x, w, info, None, None, host)
}

/// Depthwise conv2d with the bias/activation epilogue applied to each chunk
/// of output pixels right after their accumulation completes.
pub fn fused_depthwise_conv2d(
    codegen: Codegen,
    x: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    host: &Host<'_>,
) -> Vec<f32> {
    depthwise_conv2d_impl(codegen, x, w, info, bias, activation, host)
}

fn depthwise_conv2d_impl(
    codegen: Codegen,
    x: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    host: &Host<'_>,
) -> Vec<f32> {
    let c = info.clone();
    let fused = bias.is_some() || activation.is_some();
    let mul = c.channel_mul;
    let pixels = c.batch * c.out_height * c.out_width;
    let stride = c.out_channels;
    let taps = c.filter_height * c.filter_width;
    let mut out = host.buffers.zeroed(pixels * stride);
    parallel_for_slices(host.pool, &mut out, pixels, stride, taps * stride, |range, chunk| {
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
        }
        if fused {
            epilogue(codegen, chunk, stride, bias, activation);
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
    codegen: Codegen,
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
    host: &Host<'_>,
) -> Vec<f32> {
    let mut out = host.buffers.zeroed(batch * m * n);
    let shared_b = if b_q.len() == k * n {
        Some(gather_codes(b_q, k, n, transpose_b))
    } else {
        None
    };
    let epilogue = (bias, activation);
    for bi in 0..batch {
        let a_b = &a[bi * m * k..(bi + 1) * m * k];
        let batch_b;
        let b_mat: &[u8] = match &shared_b {
            Some(sb) => sb,
            None => {
                batch_b = gather_codes(&b_q[bi * k * n..(bi + 1) * k * n], k, n, transpose_b);
                &batch_b
            }
        };
        let out_b = &mut out[bi * m * n..(bi + 1) * m * n];
        if transpose_a {
            let a_b = Transposed { data: a_b, rows: m };
            quant_product(codegen, a_b, b_mat, params, m, n, epilogue, host, out_b);
        } else {
            let a_b = RowMajor { data: a_b, cols: k };
            quant_product(codegen, a_b, b_mat, params, m, n, epilogue, host, out_b);
        }
    }
    out
}

/// One matrix of [`fused_matmul_quant`]'s batch: `out`, zeroed, becomes
/// `a · dequant(b_q)` through the epilogue, parallel over rows.
#[allow(clippy::too_many_arguments)]
fn quant_product(
    codegen: Codegen,
    a: impl Lhs,
    b_q: &[u8],
    params: &QuantParams,
    m: usize,
    n: usize,
    (bias, activation): (Option<&[f32]>, Option<UnaryOp>),
    host: &Host<'_>,
    out: &mut [f32],
) {
    // `b_q` is `[k, n]`: a row of the output is `k · n` multiply-adds.
    parallel_for_slices(host.pool, out, m, n, b_q.len(), |rows, chunk| {
        for (local_i, i) in rows.enumerate() {
            let out_row = &mut chunk[local_i * n..(local_i + 1) * n];
            let mut acc_a = 0.0f32;
            for (p, [av]) in a.rows(i).enumerate() {
                acc_a += av;
                if av == 0.0 {
                    continue;
                }
                let b_row = &b_q[p * n..(p + 1) * n];
                for (o, &qv) in out_row.iter_mut().zip(b_row) {
                    *o += av * qv as f32;
                }
            }
            for (j, o) in out_row.iter_mut().enumerate() {
                let (s, mn) = params.scale_min(j);
                *o = s * *o + mn * acc_a;
            }
        }
        epilogue(codegen, chunk, n, bias, activation);
    });
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
#[allow(clippy::too_many_arguments)]
pub fn fused_conv2d_quant(
    codegen: Codegen,
    x: &[f32],
    w_q: &[u8],
    params: &QuantParams,
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    host: &Host<'_>,
) -> Vec<f32> {
    let patch = info.filter_height * info.filter_width * info.in_channels;
    let rows = info.batch * info.out_height * info.out_width;
    let cols = im2col(codegen, x, info, host);
    let out = fused_matmul_quant(
        codegen,
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
        host,
    );
    host.buffers.give(cols);
    out
}

/// Quantized-filter fused depthwise conv2d, parallel over output pixels.
/// Output channel `oc = ic*mul + m` reads one input channel, so the factored
/// form needs the valid-tap input sum per `ic`; per-channel scales index
/// filter axis 2 (`ic`) or axis 3 (`m`).
#[allow(clippy::too_many_arguments)]
pub fn fused_depthwise_conv2d_quant(
    codegen: Codegen,
    x: &[f32],
    w_q: &[u8],
    params: &QuantParams,
    info: &Conv2dInfo,
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    host: &Host<'_>,
) -> Vec<f32> {
    let c = info.clone();
    let mul = c.channel_mul;
    let pixels = c.batch * c.out_height * c.out_width;
    let stride = c.out_channels;
    let taps = c.filter_height * c.filter_width;
    let mut out = host.buffers.zeroed(pixels * stride);
    parallel_for_slices(host.pool, &mut out, pixels, stride, taps * stride, |range, chunk| {
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
                *d = s * *d + mn * acc_x[ic];
            }
        }
        epilogue(codegen, chunk, stride, bias, activation);
    });
    out
}

/// Gradient of conv2d w.r.t. input: `dcols = dy · Wᵀ` through the tiled
/// product, then col2im ([`col2im_pixels`]), parallel over input pixels.
pub fn conv2d_backprop_input(
    codegen: Codegen,
    dy: &[f32],
    w: &[f32],
    info: &Conv2dInfo,
    host: &Host<'_>,
) -> Vec<f32> {
    let c = info;
    let patch = c.filter_height * c.filter_width * c.in_channels;
    let rows = c.batch * c.out_height * c.out_width;
    let (k, ta, tb) = (c.out_channels, false, true);
    let dcols = matmul_impl(codegen, dy, w, 1, rows, k, patch, ta, tb, None, None, host);
    let taps_h = covering_taps(c.in_height, c.pad_top, c.stride_h, c.dilation_h, c.filter_height, c.out_height);
    let taps_w = covering_taps(c.in_width, c.pad_left, c.stride_w, c.dilation_w, c.filter_width, c.out_width);
    let pixels = c.batch * c.in_height * c.in_width;
    let mut dx = host.buffers.zeroed(pixels * c.in_channels);
    // Every entry of `dcols` is added at most once: its taps outside the
    // image not at all.
    let adds_per_pixel = dcols.len().div_ceil(pixels.max(1));
    parallel_for_slices(host.pool, &mut dx, pixels, c.in_channels, adds_per_pixel, |range, chunk| {
        col2im_pixels(codegen, &dcols, c, &taps_h, &taps_w, range, chunk);
    });
    host.buffers.give(dcols);
    dx
}

hot_loop! {
    /// Input pixels `pixels` of `dx`, zeroed on entry, from `dcols`: row `r`
    /// of `dcols` holds, for every tap of output pixel `r`'s window, the dot
    /// of its gradient with that tap's filter slice, summed over the output
    /// channels from zero; each input pixel adds those of the taps that
    /// cover it ([`covering_taps`]) in (fh, fw) order.
    fn col2im_pixels<const WIDE: bool>(
        dcols: &[f32],
        c: &Conv2dInfo,
        taps_h: &[Vec<(usize, usize)>],
        taps_w: &[Vec<(usize, usize)>],
        pixels: Range<usize>,
        dx: &mut [f32],
    ) {
        let patch = c.filter_height * c.filter_width * c.in_channels;
        let spatial = c.in_height * c.in_width;
        for (local, pix) in pixels.enumerate() {
            let dst = &mut dx[local * c.in_channels..][..c.in_channels];
            let (b, rem) = (pix / spatial, pix % spatial);
            for &(fh, oh) in &taps_h[rem / c.in_width] {
                for &(fw, ow) in &taps_w[rem % c.in_width] {
                    let row = (b * c.out_height + oh) * c.out_width + ow;
                    let tap = row * patch + (fh * c.filter_width + fw) * c.in_channels;
                    for (d, &g) in dst.iter_mut().zip(&dcols[tap..tap + c.in_channels]) {
                        *d += g;
                    }
                }
            }
        }
    }
}

/// For each of `len` input positions `i` along one axis, the filter taps
/// whose window covers it, as `(tap, out)` with
/// `out · stride + tap · dilation = i + pad`, in tap order: col2im's
/// divisibility tests, made once per image row or column instead of once per
/// pixel.
fn covering_taps(
    len: usize,
    pad: usize,
    stride: usize,
    dilation: usize,
    taps: usize,
    out_len: usize,
) -> Vec<Vec<(usize, usize)>> {
    let cover = |i: usize| {
        (0..taps)
            .filter_map(|tap| {
                let num = (i + pad).checked_sub(tap * dilation)?;
                (num % stride == 0 && num / stride < out_len).then_some((tap, num / stride))
            })
            .collect()
    };
    (0..len).map(cover).collect()
}

/// Gradient of conv2d w.r.t. filter: `dW = colsᵀ · dy`, the forward pass's
/// im2col matrix against the output gradient through the tiled product. A
/// filter element adds `x · g` over the output pixels in (b, oh, ow) order
/// from zero, the order of `kernels::conv2d_backprop_filter`, so on finite
/// operands the two are equal on bits: where the reference skips a `g == 0`
/// term or a tap outside the image, the product adds `x · 0` or `0 · g`, a
/// `±0` that changes no sum.
pub fn conv2d_backprop_filter(
    codegen: Codegen,
    x: &[f32],
    dy: &[f32],
    info: &Conv2dInfo,
    host: &Host<'_>,
) -> Vec<f32> {
    let c = info;
    let patch = c.filter_height * c.filter_width * c.in_channels;
    let rows = c.batch * c.out_height * c.out_width;
    let cols = im2col(codegen, x, c, host);
    let (n, ta, tb) = (c.out_channels, true, false);
    let dw = matmul_impl(codegen, &cols, dy, 1, patch, rows, n, ta, tb, None, None, host);
    host.buffers.give(cols);
    dw
}

/// Parallel element-wise unary kernel.
pub fn unary(codegen: Codegen, op: UnaryOp, x: &[f32], host: &Host<'_>) -> Vec<f32> {
    with_unary_fn!(op, f => parallel_collect(host, x.len(), 1, 1, |range, out| {
        map_unary(codegen, f, &x[range], out);
    }))
}

hot_loop! {
    /// `f(x[i])` for every element, into `out`.
    fn map_unary<const WIDE: bool>(f: impl Fn(f32) -> f32, x: &[f32], out: &mut Slots<'_, f32>) {
        out.extend(x.iter().map(|&v| f(v)));
    }
}

/// Parallel element-wise binary kernel for equal shapes.
pub fn binary(codegen: Codegen, op: BinaryOp, a: &[f32], b: &[f32], host: &Host<'_>) -> Vec<f32> {
    with_binary_fn!(op, f => parallel_collect(host, a.len(), 1, 1, |range, out| {
        map_binary(codegen, f, &a[range.clone()], &b[range], out);
    }))
}

hot_loop! {
    /// `f(a[i], b[i])` for every element, into `out`.
    fn map_binary<const WIDE: bool>(
        f: impl Fn(f32, f32) -> f32,
        a: &[f32],
        b: &[f32],
        out: &mut Slots<'_, f32>,
    ) {
        out.extend(a.iter().zip(b).map(|(&u, &v)| f(u, v)));
    }
}

/// Suffix-broadcast binary kernel: `b` repeats every `b.len()` elements of
/// `a` (the bias-add pattern `[n, h, w, c] + [c]`, and `tensor ∘ scalar`).
/// Computes `op(a, b)`, or `op(b, a)` when `b_on_left`.
pub fn binary_suffix(
    codegen: Codegen,
    op: BinaryOp,
    a: &[f32],
    b: &[f32],
    b_on_left: bool,
    host: &Host<'_>,
) -> Vec<f32> {
    with_binary_fn!(op, f => if b_on_left {
        suffix_map(codegen, a, b, host, |u, v| f(v, u))
    } else {
        suffix_map(codegen, a, b, host, f)
    })
}

/// `f(a[i], b[i % b.len()])` without the division: `a` is walked in rows the
/// length of the pattern and zipped with it ([`suffix_rows`]). A pattern
/// shorter than `MIN_ROW` (a scalar, a few channels) is first repeated up to
/// that length, so that the loop over a row is long enough to vectorise.
fn suffix_map(
    codegen: Codegen,
    a: &[f32],
    b: &[f32],
    host: &Host<'_>,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Vec<f32> {
    const MIN_ROW: usize = 64;
    if b.is_empty() {
        return Vec::new();
    }
    let pattern = if b.len() < MIN_ROW {
        Cow::Owned(b.repeat(MIN_ROW.div_ceil(b.len())))
    } else {
        Cow::Borrowed(b)
    };
    let pattern: &[f32] = &pattern;
    parallel_collect(host, a.len(), 1, 1, |range, out| {
        let phase = range.start % pattern.len();
        suffix_rows(codegen, &f, &a[range], phase, pattern, out);
    })
}

hot_loop! {
    /// `f(a[i], pattern[(phase + i) % pattern.len()])` for every element of
    /// `a`, into `out`. A chunk may begin mid-pattern: it finishes that row
    /// first, or as much of it as the chunk holds when the pattern is the
    /// longer of the two.
    fn suffix_rows<const WIDE: bool>(
        f: impl Fn(f32, f32) -> f32,
        a: &[f32],
        phase: usize,
        pattern: &[f32],
        out: &mut Slots<'_, f32>,
    ) {
        let head_len = if phase == 0 { 0 } else { (pattern.len() - phase).min(a.len()) };
        let (head, rows) = a.split_at(head_len);
        out.extend(head.iter().zip(&pattern[phase..]).map(|(&u, &v)| f(u, v)));
        for row in rows.chunks(pattern.len()) {
            out.extend(row.iter().zip(pattern).map(|(&u, &v)| f(u, v)));
        }
    }
}

/// One operand of a fused chain, read at the coordinates of the (right-
/// aligned broadcast) output shape.
struct Broadcast<'a> {
    data: &'a [f32],
    /// Element stride per output dimension; 0 where the operand broadcasts.
    strides: Vec<usize>,
    /// The operand already has the output's layout.
    dense: bool,
}

impl<'a> Broadcast<'a> {
    fn new(data: &'a [f32], in_dims: &[usize], out_dims: &[usize]) -> Broadcast<'a> {
        let offset = out_dims.len() - in_dims.len();
        let mut strides = vec![0usize; out_dims.len()];
        let mut s = 1usize;
        for d in (0..in_dims.len()).rev() {
            if in_dims[d] != 1 {
                strides[d + offset] = s;
            }
            s *= in_dims[d];
        }
        // Broadcasting only ever adds elements.
        let dense = s == out_dims.iter().product::<usize>();
        Broadcast { data, strides, dense }
    }

    /// Fill `dst` with the operand's values at flat output indices
    /// `start..start + dst.len()`: a plain copy when dense, its one value
    /// when it has one, otherwise the coordinates of `start` once and an
    /// odometer from there on, in `coords` (one per output dimension).
    #[inline(always)]
    fn read(&self, out_dims: &[usize], start: usize, dst: &mut [f32], coords: &mut [usize]) {
        if self.dense {
            dst.copy_from_slice(&self.data[start..start + dst.len()]);
            return;
        }
        if let [value] = *self.data {
            dst.fill(value);
            return;
        }
        let mut idx = 0usize;
        let mut rem = start;
        for d in (0..out_dims.len()).rev() {
            coords[d] = rem % out_dims[d];
            rem /= out_dims[d];
            idx += coords[d] * self.strides[d];
        }
        for slot in dst {
            *slot = self.data[idx];
            for d in (0..out_dims.len()).rev() {
                coords[d] += 1;
                idx += self.strides[d];
                if coords[d] < out_dims[d] {
                    break;
                }
                idx -= coords[d] * self.strides[d];
                coords[d] = 0;
            }
        }
    }
}

/// A whole elementwise chain — `x` followed by `steps`, where binary steps
/// pull their right-hand side from `extras` — evaluated in a single parallel
/// pass with no intermediate buffers ([`fused_chunk`]). Sampling every
/// operand right-aligned against the *final* output coordinates is
/// equivalent to the progressive per-step broadcast of the unfused chain
/// because elementwise ops are pointwise, so fused output is bit-identical.
pub fn fused_elementwise(
    codegen: Codegen,
    x: &[f32],
    x_dims: &[usize],
    extras: &[(&[f32], &[usize])],
    steps: &[FusedStep],
    out_dims: &[usize],
    host: &Host<'_>,
) -> Vec<f32> {
    let size: usize = out_dims.iter().product();
    let x = Broadcast::new(x, x_dims, out_dims);
    let extras: Vec<Broadcast<'_>> =
        extras.iter().map(|(data, dims)| Broadcast::new(data, dims, out_dims)).collect();
    // Every element is written: `x` is read into each block first.
    let mut out = host.buffers.take(size);
    if out.is_empty() {
        return out;
    }
    parallel_for_slices(host.pool, &mut out, size, 1, 1 + steps.len(), |range, chunk| {
        fused_chunk(codegen, &x, &extras, steps, out_dims, range.start, chunk);
    });
    out
}

hot_loop! {
    /// Outputs `start..start + out.len()` of a fused chain, into `out`, a
    /// block at a time: `x` is read into the block, then every step runs
    /// over it in place (it stays in L1) with its op dispatched once per
    /// block, not once per element. A one-element operand is a constant of
    /// its step's loop.
    fn fused_chunk<const WIDE: bool>(
        x: &Broadcast<'_>,
        extras: &[Broadcast<'_>],
        steps: &[FusedStep],
        out_dims: &[usize],
        start: usize,
        out: &mut [f32],
    ) {
        const BLOCK: usize = 1024;
        let mut operand = [0.0f32; BLOCK];
        let mut coords = vec![0usize; out_dims.len()];
        for (block_start, values) in (start..).step_by(BLOCK).zip(out.chunks_mut(BLOCK)) {
            x.read(out_dims, block_start, values, &mut coords);
            for step in steps {
                match *step {
                    FusedStep::Unary(op) => {
                        with_unary_fn!(op, f => values.iter_mut().for_each(|v| *v = f(*v)))
                    }
                    FusedStep::Binary(op, i) => {
                        if let [r] = *extras[i].data {
                            with_binary_fn!(op, f => values.iter_mut().for_each(|v| *v = f(*v, r)));
                            continue;
                        }
                        let rhs = &mut operand[..values.len()];
                        extras[i].read(out_dims, block_start, rhs, &mut coords);
                        with_binary_fn!(op, f => {
                            values.iter_mut().zip(&*rhs).for_each(|(v, &r)| *v = f(*v, r))
                        })
                    }
                }
            }
        }
    }
}

/// `x[begin .. begin + size]` per axis of a row-major tensor. The trailing
/// dimensions that are taken whole, together with the innermost one that is
/// cut, are one contiguous run of the source, so the copy goes run by run — a
/// slice that keeps every dimension but the first (a batch of examples) is a
/// single `memcpy`.
pub fn slice(x: &[f32], shape: &Shape, begin: &[usize], size: &[usize], host: &Host<'_>) -> Vec<f32> {
    let dims = shape.dims();
    let total: usize = size.iter().product();
    if total == 0 {
        return Vec::new();
    }
    let mut out = host.buffers.take(total);
    out.clear();
    // Dimensions before `outer` are walked coordinate by coordinate; from
    // `outer` (the innermost cut dimension, if any is cut) on they are a run.
    let mut whole_from = dims.len();
    while whole_from > 0 && size[whole_from - 1] == dims[whole_from - 1] {
        whole_from -= 1;
    }
    let outer = whole_from.saturating_sub(1);
    let run: usize = size[outer..].iter().product();
    let strides = shape.strides();
    let run_start: usize = begin[outer..].iter().zip(&strides[outer..]).map(|(&b, &s)| b * s).sum();
    reference::for_each_coord(&size[..outer], |_, coords| {
        let src = run_start
            + coords.iter().zip(begin).zip(&strides).map(|((&c, &b), &s)| (c + b) * s).sum::<usize>();
        out.extend_from_slice(&x[src..src + run]);
    });
    out
}

/// Parallel sum over the trailing `inner` elements of each of `outer` rows.
pub fn reduce_last(x: &[f32], outer: usize, inner: usize, host: &Host<'_>, mean: bool) -> Vec<f32> {
    let mut out = host.buffers.take(outer);
    parallel_for_slices(host.pool, &mut out, outer, 1, inner, |range, chunk| {
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
/// bit-identical to the reference however the columns are split. A chunk
/// adds into its own accumulators and stores them once: the columns of two
/// chunks share a cache line when there are few, and adding into the output
/// in place made the two threads fight for it on every row.
pub fn reduce_leading(x: &[f32], rows: usize, cols: usize, host: &Host<'_>, mean: bool) -> Vec<f32> {
    let mut out = host.buffers.take(cols);
    parallel_for_slices(host.pool, &mut out, cols, 1, rows, |range, chunk| {
        let mut acc = vec![0.0f32; chunk.len()];
        for row in x.chunks(cols) {
            for (a, &v) in acc.iter_mut().zip(&row[range.clone()]) {
                *a += v;
            }
        }
        for (o, a) in chunk.iter_mut().zip(acc) {
            *o = if mean { a / rows as f32 } else { a };
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webml_core::backend::ReduceOp;
    use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};
    use webml_core::host::FreeList;
    use webml_core::pool::{WorkerPool, COLD_GRAIN, GRAIN};

    fn close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "i={i}: {x} vs {y}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `kernel` run on a host of `cores` threads and an empty free list.
    fn on_host<R>(cores: usize, kernel: impl FnOnce(&Host<'_>) -> R) -> R {
        let (pool, buffers) = (WorkerPool::new(cores), FreeList::default());
        kernel(&Host { pool: &pool, buffers: &buffers })
    }

    /// [`on_host`] right after a job every thread took part in, so its
    /// workers are awake and an op of two warm grains is split too (unless
    /// they park again first, when the run is one more of a parked pool's).
    fn on_warm_host<R>(cores: usize, kernel: impl FnOnce(&Host<'_>) -> R) -> R {
        let (pool, buffers) = (WorkerPool::new(cores), FreeList::default());
        let met = std::sync::Barrier::new(cores);
        pool.run(cores, &|_| {
            met.wait();
        });
        kernel(&Host { pool: &pool, buffers: &buffers })
    }

    /// `kernel`'s output, the same to the bit from every build this CPU
    /// runs ([`Codegen::all`]: the portable one and, on a CPU with AVX2, the
    /// AVX2 one) on new pools of 1, 2, 3 and 8, whose workers start parked,
    /// and of 2 — the benchmark host's — whose worker is awake. The second shape of every
    /// test below is large enough to be split on all but the first; the
    /// training step's layers are split only awake.
    fn on_every_pool(kernel: impl Fn(Codegen, &Host<'_>) -> Vec<f32>) -> Vec<f32> {
        let inline = on_host(1, |host| kernel(Codegen::PORTABLE, host));
        for cg in Codegen::all() {
            for cores in [1, 2, 3, 8] {
                let split = on_host(cores, |host| kernel(cg, host));
                assert_eq!(bits(&split), bits(&inline), "{cg:?} on {cores} threads disagrees");
            }
            let warm = on_warm_host(2, |host| kernel(cg, host));
            assert_eq!(bits(&warm), bits(&inline), "{cg:?} on two awake threads disagrees");
        }
        inline
    }

    fn wave(len: usize, step: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * step).sin()).collect()
    }

    fn codes(len: usize, mul: usize) -> Vec<u8> {
        (0..len).map(|i| (i * mul % 251) as u8).collect()
    }

    /// Work, in the pool's units, that `on_every_pool` splits two ways on
    /// two threads and three or more on the larger pools, parked or awake.
    const SPLIT_WORK: usize = 3 * COLD_GRAIN;

    #[test]
    fn matmul_equals_reference_on_bits_all_flags() {
        // Widths that are one tile (16, 8), several (35 = 16+16+2+1, 70) and
        // none but the narrow ones (3); rows that leave a tile remainder, and
        // fewer rows than a tile.
        for (batch, m, k, n) in [(2, 5, 7, 3), (1, 9, 4, 35), (2, 160, 96, 70), (1, 1, 33, 70), (2, 3, 8, 17)] {
            let a = wave(batch * m * k, 0.13);
            let b = wave(batch * k * n, 0.29);
            for ta in [false, true] {
                for tb in [false, true] {
                    // The logical m, k, n are the same whatever the flags.
                    let got =
                        on_every_pool(|cg, host| matmul(cg, &a, &b, batch, m, k, n, ta, tb, host));
                    let want = reference::matmul(&a, &b, batch, m, k, n, ta, tb);
                    assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} ta={ta} tb={tb}");
                }
            }
        }
        const { assert!(160 * 96 * 70 / TILED_MACS_PER_VISIT >= SPLIT_WORK) };
        // The training step's three products with a transposed left operand,
        // read in place: conv 1's and conv 2's `colsᵀ · dy` and the dense
        // layer's `xᵀ · dy`. The second is split on every pool of two or more.
        for (m, k, n) in [(9, 6272, 8), (72, 1568, 16), (784, 32, 10)] {
            let a = wave(m * k, 0.13);
            let b = wave(k * n, 0.29);
            for tb in [false, true] {
                let got = on_every_pool(|cg, host| matmul(cg, &a, &b, 1, m, k, n, true, tb, host));
                let want = reference::matmul(&a, &b, 1, m, k, n, true, tb);
                assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} ta=true tb={tb}");
            }
        }
        const { assert!(72 * 1568 * 16 / TILED_MACS_PER_VISIT >= SPLIT_WORK) };
    }

    #[test]
    fn matmul_of_nothing_is_nothing() {
        on_host(2, |host| for cg in Codegen::all() {
            assert!(matmul(cg, &[], &[], 1, 0, 3, 4, false, false, host).is_empty());
            assert!(matmul(cg, &[], &[], 1, 3, 4, 0, false, false, host).is_empty());
            // No inner dimension: every product is the empty sum, then the bias.
            let bias = [1.0, -2.0];
            let got = fused_matmul(cg, &[], &[], 1, 3, 0, 2, false, false, Some(&bias), None, host);
            assert_eq!(got, [1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
        });
    }

    /// `gemm_rows` of every build against the reference product, on every
    /// tile width and remainder (`n` of 1, 2, 4, 8, 16, 17 and 33 columns),
    /// on fewer rows than a tile (the few-row path), one tile and more, with
    /// `A` row-major and transposed, from the first row and from a row
    /// offset, on finite operands and on operands holding NaN, ±inf and −0.
    /// Equal on bits; a NaN may differ from another in its payload only.
    #[test]
    fn every_build_of_the_tile_equals_the_reference() {
        for n in [1, 2, 4, 8, 16, 17, 33] {
            for m in [1, 2, 3, 4, 5, 8, 9, 13] {
                for k in [1, 6, 19] {
                    for salted in [false, true] {
                        let mut a = wave(m * k, 0.13);
                        let mut b = wave(k * n, 0.29);
                        if salted {
                            let (la, lb) = (a.len(), b.len());
                            (a[la / 2], a[la - 1], a[k % la]) = (-0.0, f32::NAN, f32::INFINITY);
                            (b[lb / 3], b[lb * 2 / 3]) = (f32::NEG_INFINITY, -0.0);
                        }
                        let mut a_t = vec![0.0; m * k];
                        for (i, row) in a.chunks_exact(k).enumerate() {
                            for (p, &v) in row.iter().enumerate() {
                                a_t[p * m + i] = v;
                            }
                        }
                        let want = reference::matmul(&a, &b, 1, m, k, n, false, false);
                        let case = format!("{m}x{k}x{n}, salted {salted}");
                        for cg in Codegen::all() {
                            for i0 in [0, m / 2] {
                                let want = &want[i0 * n..];
                                let mut got = vec![f32::NAN; want.len()];
                                gemm_rows(cg, RowMajor { data: &a, cols: k }, i0, &b, n, &mut got);
                                same_values(&got, want, &format!("{cg:?} {case} from row {i0}"));
                                got.fill(f32::NAN);
                                let a_t = Transposed { data: &a_t, rows: m };
                                gemm_rows(cg, a_t, i0, &b, n, &mut got);
                                let what = format!("{cg:?} {case} Aᵀ from row {i0}");
                                same_values(&got, want, &what);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A 3x3 conv of `dims` to `out_channels`: its geometry, input and filter
    /// shapes, and a name for assertion messages.
    fn conv_case(
        dims: [usize; 4],
        out_channels: usize,
        stride: usize,
        padding: Padding,
        dilation: usize,
    ) -> (Conv2dInfo, Shape, Shape, String) {
        let xs = Shape::new(dims.to_vec());
        let ws = Shape::new(vec![3, 3, dims[3], out_channels]);
        let info = conv2d_info("t", &xs, &ws, (stride, stride), padding, (dilation, dilation))
            .unwrap();
        let case = format!("{dims:?} -> {out_channels}, stride {stride}, {padding:?}, dilation {dilation}");
        (info, xs, ws, case)
    }

    /// The geometry sweep of the conv tests. Out-channel counts cover every
    /// tile width and their sums; the 6x7 image makes most windows of a 3x3
    /// (5x5 dilated) filter hang over a border; batch 0 has no rows at all.
    /// Then the training step's two layers, and two shapes whose every pass
    /// is split on every pool.
    fn conv_geometry_sweep(check: impl Fn([usize; 4], usize, usize, Padding, usize)) {
        use Padding::{Same, Valid};
        let geometries =
            [(1, Same, 1), (2, Same, 1), (1, Valid, 1), (2, Valid, 1), (1, Same, 2), (2, Valid, 2)];
        for (stride, padding, dilation) in geometries {
            for batch in [0, 1, 2] {
                for in_channels in [1, 3, 8] {
                    for out_channels in [1, 3, 8, 16, 17, 35] {
                        check([batch, 6, 7, in_channels], out_channels, stride, padding, dilation);
                    }
                }
            }
        }
        check([32, 28, 28, 1], 8, 2, Same, 1);
        check([32, 14, 14, 8], 16, 2, Same, 1);
        check([2, 48, 48, 8], 35, 1, Same, 1);
        check([3, 61, 61, 3], 17, 2, Valid, 2);
        // Conv 1 of the step (im2col: 448 image rows of 126 visits) splits
        // only while the worker is awake.
        const { assert!(2 * GRAIN <= 448 * 126 && 448 * 126 < 2 * COLD_GRAIN) };
        // im2col, and col2im, of the first; the product of the second.
        const { assert!(2 * 48 * 48 * 72 >= SPLIT_WORK) };
        const { assert!(3 * 29 * 29 * 27 * 17 / TILED_MACS_PER_VISIT >= SPLIT_WORK) };
    }

    /// Native conv forward, plain and with the fused epilogue, against the
    /// reference kernel (and the scalar `apply` for the epilogue), on bits,
    /// on every pool.
    fn check_conv(
        dims: [usize; 4],
        out_channels: usize,
        stride: usize,
        padding: Padding,
        dilation: usize,
    ) {
        let (info, xs, ws, case) = conv_case(dims, out_channels, stride, padding, dilation);
        let x = wave(xs.size(), 0.17);
        let w = wave(ws.size(), 0.37);
        let bias = wave(out_channels, 0.7);
        let plain = reference::conv2d(&x, &w, &info);
        let got = on_every_pool(|cg, host| conv2d(cg, &x, &w, &info, host));
        assert_eq!(bits(&got), bits(&plain), "{case}");
        let fused: Vec<f32> = plain
            .iter()
            .enumerate()
            .map(|(i, &v)| UnaryOp::Relu6.apply(BinaryOp::Add.apply(v, bias[i % out_channels])))
            .collect();
        let got = on_every_pool(|cg, host| {
            fused_conv2d(cg, &x, &w, &info, Some(&bias), Some(UnaryOp::Relu6), host)
        });
        assert_eq!(bits(&got), bits(&fused), "fused {case}");
    }

    #[test]
    fn conv2d_equals_reference_on_bits_across_geometry() {
        conv_geometry_sweep(check_conv);
    }

    #[test]
    fn a_padded_tap_is_a_zero_term_not_a_skipped_one() {
        // The one input on which conv forward leaves the reference: im2col
        // writes a zero where `kernels::conv2d` skips a tap outside the
        // image, and `0 · inf` is NaN. The top-left filter weight is infinite,
        // so the outputs whose window hangs over the top or left border differ
        // (the reference never reads the weight there); the rest are `inf` in
        // both.
        let xs = Shape::new(vec![1, 4, 4, 1]);
        let ws = Shape::new(vec![3, 3, 1, 1]);
        let info = conv2d_info("t", &xs, &ws, (1, 1), Padding::Same, (1, 1)).unwrap();
        let x = vec![1.0f32; 16];
        let mut w = vec![1.0f32; 9];
        w[0] = f32::INFINITY;
        let want = reference::conv2d(&x, &w, &info);
        let got = on_every_pool(|cg, host| conv2d(cg, &x, &w, &info, host));
        for (i, (g, r)) in got.iter().zip(&want).enumerate() {
            if i / 4 == 0 || i % 4 == 0 {
                assert!(g.is_nan() && r.is_finite(), "border output {i}: {g} vs {r}");
            } else {
                assert_eq!(g.to_bits(), r.to_bits(), "interior output {i}");
            }
        }
    }

    #[test]
    fn a_zero_input_tap_is_a_term_not_a_skipped_one() {
        // dW on non-finite operands: `kernels::conv2d_backprop_filter` skips
        // a term whose gradient is zero, the product skips none. A zero input
        // against an infinite gradient is `0 · inf`, NaN in both; an infinite
        // input against a zero gradient is NaN here and finite in the
        // reference, as a padded tap is in the forward pass above. A 1x1
        // filter's one element is the sum over all nine pixels.
        let xs = Shape::new(vec![1, 3, 3, 1]);
        let ws = Shape::new(vec![1, 1, 1, 1]);
        let info = conv2d_info("t", &xs, &ws, (1, 1), Padding::Valid, (1, 1)).unwrap();
        let (mut x, mut dy) = (vec![1.0f32; 9], vec![1.0f32; 9]);
        (x[4], dy[4]) = (0.0, f32::INFINITY);
        let got = on_every_pool(|cg, host| conv2d_backprop_filter(cg, &x, &dy, &info, host));
        let want = reference::conv2d_backprop_filter(&x, &dy, &info);
        assert!(got[0].is_nan() && want[0].is_nan(), "zero input: {got:?} vs {want:?}");
        (x[4], dy[4]) = (f32::INFINITY, 0.0);
        let got = on_every_pool(|cg, host| conv2d_backprop_filter(cg, &x, &dy, &info, host));
        let want = reference::conv2d_backprop_filter(&x, &dy, &info);
        assert!(got[0].is_nan() && want == [8.0], "zero gradient: {got:?} vs {want:?}");
    }

    /// `dx` summed in the order the native kernel sums it: for each input
    /// element, the taps whose window covers it in (fh, fw) order, each one
    /// a dot over the output channels started from zero.
    fn dx_in_tap_order(dy: &[f32], w: &[f32], c: &Conv2dInfo) -> Vec<f32> {
        let (sh, sw) = (c.stride_h as isize, c.stride_w as isize);
        let mut dx = Vec::new();
        for b in 0..c.batch {
            for ih in 0..c.in_height {
                for iw in 0..c.in_width {
                    for ic in 0..c.in_channels {
                        let mut d = 0.0f32;
                        for fh in 0..c.filter_height {
                            for fw in 0..c.filter_width {
                                let nh = (ih + c.pad_top) as isize - (fh * c.dilation_h) as isize;
                                let nw = (iw + c.pad_left) as isize - (fw * c.dilation_w) as isize;
                                let (oh, ow) = (nh / sh, nw / sw);
                                if nh < 0 || nw < 0 || nh % sh != 0 || nw % sw != 0 {
                                    continue;
                                }
                                if oh >= c.out_height as isize || ow >= c.out_width as isize {
                                    continue;
                                }
                                let g = ((b * c.out_height + oh as usize) * c.out_width + ow as usize)
                                    * c.out_channels;
                                let f = ((fh * c.filter_width + fw) * c.in_channels + ic) * c.out_channels;
                                let mut acc = 0.0f32;
                                for oc in 0..c.out_channels {
                                    acc += dy[g + oc] * w[f + oc];
                                }
                                d += acc;
                            }
                        }
                        dx.push(d);
                    }
                }
            }
        }
        dx
    }

    /// Native conv backprops on every pool: `dW` against the reference
    /// kernel on bits, `dx` against its summation order on bits and the
    /// reference's scatter order within a tolerance.
    fn check_conv_backprops(
        dims: [usize; 4],
        out_channels: usize,
        stride: usize,
        padding: Padding,
        dilation: usize,
    ) {
        let (info, xs, ws, case) = conv_case(dims, out_channels, stride, padding, dilation);
        let x = wave(xs.size(), 0.21);
        let w = wave(ws.size(), 0.33);
        let dy = wave(info.out_shape().size(), 0.47);
        let dw = on_every_pool(|cg, host| conv2d_backprop_filter(cg, &x, &dy, &info, host));
        assert_eq!(bits(&dw), bits(&reference::conv2d_backprop_filter(&x, &dy, &info)), "dW {case}");
        let dx = on_every_pool(|cg, host| conv2d_backprop_input(cg, &dy, &w, &info, host));
        assert_eq!(bits(&dx), bits(&dx_in_tap_order(&dy, &w, &info)), "dx {case}");
        close(&dx, &reference::conv2d_backprop_input(&dy, &w, &info), 1e-4);
    }

    #[test]
    fn conv_backprops_match_reference() {
        conv_geometry_sweep(check_conv_backprops);
    }

    #[test]
    fn depthwise_matches_reference() {
        for dims in [[2, 8, 8, 6], [4, 40, 40, 6]] {
            let xs = Shape::new(dims.to_vec());
            let ws = Shape::new(vec![3, 3, 6, 2]);
            let info =
                depthwise_conv2d_info("t", &xs, &ws, (1, 1), Padding::Same, (1, 1)).unwrap();
            let x = wave(xs.size(), 0.19);
            let w = wave(ws.size(), 0.41);
            let got = on_every_pool(|cg, host| depthwise_conv2d(cg, &x, &w, &info, host));
            close(&got, &reference::depthwise_conv2d(&x, &w, &info), 1e-4);
        }
    }

    #[test]
    fn fused_matmul_quant_matches_reference_all_flags() {
        for (batch, m, k, n) in [(2, 5, 7, 3), (2, 160, 96, 70)] {
            let a = wave(batch * m * k, 0.13);
            let b_q = codes(batch * k * n, 37);
            let params = QuantParams::per_tensor(0.05, -3.1);
            let bias = wave(n, 0.7);
            for ta in [false, true] {
                for tb in [false, true] {
                    let got = on_every_pool(|cg, host| {
                        fused_matmul_quant(cg, 
                            &a, &b_q, &params, batch, m, k, n, ta, tb,
                            Some(&bias), Some(UnaryOp::Relu), host,
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
        let got = on_every_pool(|cg, host| {
            fused_matmul_quant(cg, &a, &b_q, &params, 3, 4, 6, 2, false, false, None, None, host)
        });
        let want = reference::fused_matmul_quant(
            &a, &b_q, &params, None, None, 3, 4, 6, 2, false, false,
        );
        close(&got, &want, 1e-4);
    }

    #[test]
    fn fused_conv2d_quant_matches_reference() {
        for dims in [[2, 9, 9, 4], [4, 48, 48, 4]] {
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
            let got = on_every_pool(|cg, host| {
                let relu = Some(UnaryOp::Relu);
                fused_conv2d_quant(cg, &x, &w_q, &params, &info, Some(&bias), relu, host)
            });
            let want = reference::fused_conv2d_quant(
                &x, &w_q, &params, Some(&bias), Some(UnaryOp::Relu), &info,
            );
            close(&got, &want, 1e-3);
        }
    }

    #[test]
    fn fused_depthwise_conv2d_quant_matches_reference() {
        for dims in [[2, 8, 8, 6], [4, 40, 40, 6]] {
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
                let got = on_every_pool(|cg, host| {
                    fused_depthwise_conv2d_quant(cg, &x, &w_q, &params, &info, None, None, host)
                });
                let want =
                    reference::fused_depthwise_conv2d_quant(&x, &w_q, &params, None, None, &info);
                close(&got, &want, 1e-3);
            }
        }
    }

    #[test]
    fn elementwise_helpers() {
        for len in [5000, 200_000] {
            let a: Vec<f32> = (0..len).map(|i| i as f32 * 0.01).collect();
            let b: Vec<f32> = (0..len).map(|i| 1.0 + i as f32 * 0.02).collect();
            let bias = vec![1.0f32, 2.0];
            let sum = on_every_pool(|cg, host| binary(cg, BinaryOp::Add, &a, &b, host));
            let suffix = |op, b: &[f32], b_on_left| {
                on_every_pool(|cg, host| binary_suffix(cg, op, &a, b, b_on_left, host))
            };
            let biased = suffix(BinaryOp::Add, &bias, false);
            let halved = suffix(BinaryOp::Div, &[2.0], false);
            let inverse = suffix(BinaryOp::Div, &[2.0], true);
            let squared = on_every_pool(|cg, host| unary(cg, UnaryOp::Square, &a, host));
            // relu(a + bias) * b in one pass, `bias` broadcast along rows.
            let steps = [
                FusedStep::Binary(BinaryOp::Add, 0),
                FusedStep::Unary(UnaryOp::Relu),
                FusedStep::Binary(BinaryOp::Mul, 1),
            ];
            let dims = [len / 2, 2];
            let extras: [(&[f32], &[usize]); 2] = [(&bias, &[2]), (&b, &dims)];
            let chain =
                on_every_pool(|cg, host| fused_elementwise(cg, &a, &dims, &extras, &steps, &dims, host));
            for i in 0..len {
                assert_eq!(sum[i], a[i] + b[i]);
                assert_eq!(biased[i], a[i] + bias[i % 2]);
                assert_eq!(halved[i], a[i] / 2.0);
                assert_eq!(inverse[i].to_bits(), (2.0 / a[i]).to_bits());
                assert_eq!(squared[i], a[i] * a[i]);
                assert_eq!(chain[i], (a[i] + bias[i % 2]).max(0.0) * b[i]);
            }
        }
    }

    #[test]
    fn suffix_pattern_longer_than_a_chunk() {
        // Few rows of a long pattern: on the larger pools a chunk begins
        // mid-pattern and ends before the pattern does.
        const PATTERN: usize = SPLIT_WORK + 3;
        for rows in [1, 2, 3] {
            let a = wave(rows * PATTERN, 0.11);
            let b = wave(PATTERN, 0.23);
            for b_on_left in [false, true] {
                let got = on_every_pool(|cg, host| {
                    binary_suffix(cg, BinaryOp::Sub, &a, &b, b_on_left, host)
                });
                let want: Vec<f32> = (0..a.len())
                    .map(|i| {
                        let (u, v) = (a[i], b[i % PATTERN]);
                        if b_on_left { BinaryOp::Sub.apply(v, u) } else { BinaryOp::Sub.apply(u, v) }
                    })
                    .collect();
                assert_eq!(bits(&got), bits(&want), "{rows} rows, b_on_left={b_on_left}");
            }
        }
    }

    /// NaN, both zeros, both infinities, subnormals, and ordinary values on
    /// both sides of every threshold the ops have (0, 1, 6), repeated to a
    /// length that runs the vector body and leaves a remainder.
    fn special_values() -> Vec<f32> {
        let specials = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 4.0,
            f32::MIN_POSITIVE,
            0.5,
            -0.5,
            1.0,
            -1.0,
            2.5,
            -3.0,
            6.5,
            100.0,
            -1e30,
        ];
        specials.iter().cycle().take(specials.len() * 7 + 3).copied().collect()
    }

    /// Equal on bits; a NaN may differ from another in its payload only.
    fn same_values(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()), "{what} at {i}: {g} vs {w}");
        }
    }

    #[test]
    fn every_unary_op_equals_scalar_apply_on_special_values() {
        use UnaryOp::*;
        let ops = [
            Neg, Abs, Exp, Expm1, Log, Log1p, Sqrt, Rsqrt, Square, Relu, Relu6, Sigmoid, Tanh, Elu,
            Selu, Softplus, Sin, Cos, Tan, Asin, Acos, Atan, Floor, Ceil, Round, Sign, Reciprocal,
            LogicalNot, IsNan, IsInf, IsFinite, LeakyRelu(0.2), ClipByValue(-1.0, 2.0), Step(0.0),
            Step(-0.5), Erf,
        ];
        let x = special_values();
        on_host(2, |host| for cg in Codegen::all() {
            for op in ops {
                let want: Vec<f32> = x.iter().map(|&v| op.apply(v)).collect();
                same_values(&unary(cg, op, &x, host), &want, op.name());
                // The same op as a step of a fused chain.
                let dims = [x.len()];
                let step = [FusedStep::Unary(op)];
                let chain = fused_elementwise(cg, &x, &dims, &[], &step, &dims, host);
                same_values(&chain, &want, op.name());
            }
        });
    }

    #[test]
    fn every_binary_op_equals_scalar_apply_on_special_values() {
        use BinaryOp::*;
        let ops = [
            Add, Sub, Mul, Div, FloorDiv, Pow, Maximum, Minimum, Mod, SquaredDifference, Atan2,
            Equal, NotEqual, Greater, GreaterEqual, Less, LessEqual, LogicalAnd, LogicalOr,
            LogicalXor,
        ];
        let a = special_values();
        // Every special value meets every other one.
        let b: Vec<f32> = (0..a.len()).map(|i| a[(i + i / 17) % a.len()]).collect();
        let pattern = [f32::NAN, -0.0, 2.0];
        let a3 = &a[..a.len() / 3 * 3];
        on_host(2, |host| for cg in Codegen::all() {
            for op in ops {
                let name = op.name();
                let want: Vec<f32> = a.iter().zip(&b).map(|(&u, &v)| op.apply(u, v)).collect();
                same_values(&binary(cg, op, &a, &b, host), &want, name);
                let dims = [a.len()];
                let extras: [(&[f32], &[usize]); 1] = [(&b, &dims)];
                let steps = [FusedStep::Binary(op, 0)];
                let chain = fused_elementwise(cg, &a, &dims, &extras, &steps, &dims, host);
                same_values(&chain, &want, name);
                // A repeating right operand, then the same one on the left.
                let want: Vec<f32> =
                    a3.iter().enumerate().map(|(i, &u)| op.apply(u, pattern[i % 3])).collect();
                same_values(&binary_suffix(cg, op, a3, &pattern, false, host), &want, name);
                let want: Vec<f32> =
                    a3.iter().enumerate().map(|(i, &u)| op.apply(pattern[i % 3], u)).collect();
                same_values(&binary_suffix(cg, op, a3, &pattern, true, host), &want, name);
                // A scalar operand.
                let want: Vec<f32> = a.iter().map(|&u| op.apply(u, -0.5)).collect();
                same_values(&binary_suffix(cg, op, &a, &[-0.5], false, host), &want, name);
            }
        });
    }

    #[test]
    fn fused_chain_broadcasts_every_operand_against_the_output() {
        // x: [3, 1, 5] broadcast along the middle; a row vector, a scalar, a
        // column and a full-shape operand; big enough to cross block and
        // chunk boundaries.
        let out_dims = [3usize, 2500, 5];
        let x = wave(15, 0.3);
        let row = wave(5, 0.9);
        let column = wave(2500, 0.07);
        let full = wave(3 * 2500 * 5, 0.011);
        let extras: [(&[f32], &[usize]); 4] =
            [(&row, &[5]), (&[1.5], &[]), (&column, &[2500, 1]), (&full, &out_dims)];
        let steps = [
            FusedStep::Binary(BinaryOp::Mul, 0),
            FusedStep::Binary(BinaryOp::Add, 1),
            FusedStep::Unary(UnaryOp::Tanh),
            FusedStep::Binary(BinaryOp::Sub, 2),
            FusedStep::Binary(BinaryOp::Maximum, 3),
            FusedStep::Binary(BinaryOp::Div, 1),
        ];
        let got =
            on_every_pool(|cg, host| fused_elementwise(cg, &x, &[3, 1, 5], &extras, &steps, &out_dims, host));
        assert!(got.len() * (1 + steps.len()) >= SPLIT_WORK);
        for (flat, &g) in got.iter().enumerate() {
            let (i, j, k) = (flat / 12_500, flat / 5 % 2500, flat % 5);
            let want = ((x[i * 5 + k] * row[k] + 1.5).tanh() - column[j]).max(full[flat]) / 1.5;
            assert_eq!(g.to_bits(), want.to_bits(), "at [{i}, {j}, {k}]");
        }
        // A one-element `x`, broadcast to every output.
        let (full_only, minus): ([(&[f32], &[usize]); 1], _) =
            ([(&full, &out_dims)], [FusedStep::Binary(BinaryOp::Sub, 0)]);
        let got = on_every_pool(|cg, host| {
            fused_elementwise(cg, &[1.5], &[1], &full_only, &minus, &out_dims, host)
        });
        assert!(got.iter().zip(&full).all(|(g, f)| g.to_bits() == (1.5 - f).to_bits()));
        let empty = on_every_pool(|cg, host| {
            fused_elementwise(cg, &[], &[0, 4], &[], &steps[2..3], &[0, 4], host)
        });
        assert!(empty.is_empty());
    }

    #[test]
    fn slice_equals_reference_on_chosen_windows() {
        let dims = [4usize, 5, 6, 3];
        let shape = Shape::new(dims.to_vec());
        let x = wave(shape.size(), 0.21);
        for (begin, size) in [
            ([0, 0, 0, 0], [4, 5, 6, 3]), // the whole tensor
            ([1, 0, 0, 0], [2, 5, 6, 3]), // a batch of examples: one run
            ([0, 2, 0, 0], [4, 2, 6, 3]), // an interior axis
            ([0, 0, 0, 1], [4, 5, 6, 1]), // one channel: runs of one
            ([3, 4, 5, 2], [1, 1, 1, 1]), // the last element
            ([1, 1, 1, 1], [2, 0, 3, 2]), // nothing
        ] {
            let want = reference::slice(&x, &shape, &begin, &size);
            let got = on_host(1, |host| slice(&x, &shape, &begin, &size, host));
            assert_eq!(bits(&got), bits(&want), "{begin:?}+{size:?}");
        }
        // A scalar has one element and no axes.
        assert_eq!(on_host(1, |host| slice(&[7.0], &Shape::scalar(), &[], &[], host)), [7.0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        #[test]
        fn slice_equals_reference_on_any_window(
            dims in proptest::prop::collection::vec(1usize..6, 0..5),
            cuts in proptest::prop::collection::vec(0usize..1000, 10..11),
        ) {
            // Any begin, any size that fits, zero and the whole axis included.
            let begin: Vec<usize> = dims.iter().zip(&cuts).map(|(&d, &c)| c % (d + 1)).collect();
            let size: Vec<usize> = dims
                .iter()
                .zip(&begin)
                .zip(&cuts[5..])
                .map(|((&d, &b), &c)| c % (d - b + 1))
                .collect();
            let shape = Shape::new(dims.clone());
            let x = wave(shape.size(), 0.37);
            let want = reference::slice(&x, &shape, &begin, &size);
            let got = on_host(1, |host| slice(&x, &shape, &begin, &size, host));
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn reduce_last_sums_rows() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(on_every_pool(|_, host| reduce_last(&x, 2, 3, host, false)), vec![6.0, 15.0]);
        assert_eq!(on_every_pool(|_, host| reduce_last(&x, 2, 3, host, true)), vec![2.0, 5.0]);
        let x = wave(96 * 2100, 0.31);
        let rows = on_every_pool(|_, host| reduce_last(&x, 96, 2100, host, false));
        assert_eq!(rows, reference::reduce(ReduceOp::Sum, &x, &Shape::new(vec![96, 2100]), &[1]));
    }

    #[test]
    fn reduce_leading_equals_reference_bit_for_bit() {
        // The bias gradients of the training workload, and a wide one that
        // is split on every pool.
        for dims in [[32, 14, 14, 8], [32, 7, 7, 16], [8, 8, 6, 512]] {
            let shape = Shape::new(dims.to_vec());
            let x = wave(shape.size(), 0.43);
            let (rows, cols) = (dims[0] * dims[1] * dims[2], dims[3]);
            for (op, mean) in [(ReduceOp::Sum, false), (ReduceOp::Mean, true)] {
                let got = on_every_pool(|_, host| reduce_leading(&x, rows, cols, host, mean));
                let want = reference::reduce(op, &x, &shape, &[0, 1, 2]);
                assert_eq!(bits(&got), bits(&want));
            }
        }
    }
}
