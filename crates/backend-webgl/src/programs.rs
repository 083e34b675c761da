//! Shader-program builders: the calls the WebGL rung writes as per-output
//! gather computations (fragment shaders cannot scatter), in the style of
//! the paper's Figure 4 (element-wise add) and Listing 2 (matmul) — the
//! products, packed, unpacked and over U8 codes, and `Unary` and `Binary`,
//! whose host bodies the paper's packing and layout claims read. [`kernel`]
//! is WebGL's one match from a [`KernelCall`] to its builder; every other
//! call goes to the [`crate::oracle`] adapter the WebGPU rung uses too.
//! Every builder takes the output dims [`KernelCall::output`] gave.
//!
//! The packed conv and depthwise bodies, [`conv2d_run`] and
//! [`depthwise_conv2d_run`], which the WebGPU rung's pipelines run too, are
//! hot loops compiled for the baseline and for AVX2
//! ([`webml_core::codegen`]); their builders take the build to run
//! (`Codegen::detect()` from [`kernel`], each in turn in the tests). They
//! tile the output pixels whose every filter tap lies inside the input, in
//! spans of a multiple of 4 whole pixels that may cross output rows (every
//! pixel of a 1×1 conv): a conv's through the register tile
//! `backend-native`'s products use ([`webml_core::tile::gemm_tile`]), a
//! depthwise conv's through a tile of its own of the same shape. Every
//! other pixel — one with a tap on the padding, a part-pixel at either end
//! of a run, one left over from a span — walks its in-bounds taps alone.
//! Either way each
//! output has the bits of `cpu`'s: it starts at 0, adds its products in
//! the reference's order, multiplies no padding tap, and its U8 `Σ x` comes
//! from the same walk. [`matmul_run`] keeps its row-at-a-time walk.

use crate::oracle;
use std::ops::Range;
use webml_core::backend::{BinaryOp, Epilogue, KTensor, KernelCall, MatMulGeom, UnaryOp};
use webml_core::codegen::Codegen;
use webml_core::conv_util::Conv2dInfo;
use webml_core::error::Result;
use webml_core::hot_loop;
use webml_core::quant::QuantParams;
use webml_core::tile::{epilogue, gemm_tile, Lhs};
use webml_webgl_sim::shader::{Kernel, Samplers};

/// The fragment program for `call` over `operands` into `out` (see
/// [`crate::Rung::kernel`]). A product call over a quantized weight takes
/// the dequant-free program, which samples the `R8` codes. A `Binary` whose
/// output rank is above [`MAX_RANK`], and every call but these, runs on the
/// oracle adapter.
pub fn kernel(
    call: &KernelCall<'_>,
    operands: &[KTensor<'_>],
    out: &[usize],
    packed: bool,
) -> Result<Kernel> {
    use KernelCall as C;
    let dims = |i: usize| operands[i].shape.dims();
    let quant = || operands[1].quant;
    Ok(match call {
        C::Unary(op) => unary(*op, out, packed),
        C::Binary(op) if out.len() <= MAX_RANK => binary(*op, dims(0), dims(1), out, packed),
        C::MatMul { transpose_a, transpose_b, epilogue } => {
            let (a, b) = (operands[0].shape, operands[1].shape);
            let geom = MatMulGeom::of(a, b, *transpose_a, *transpose_b);
            match quant() {
                Some(params) => fused_matmul_quant(&geom, params, *epilogue, out),
                None => matmul(&geom, packed, *epilogue, out),
            }
        }
        C::Conv2d { info, epilogue } => match quant() {
            Some(params) => fused_conv2d_quant(Codegen::detect(), info, params, *epilogue, out),
            None => conv2d(Codegen::detect(), info, packed, *epilogue, out),
        },
        C::DepthwiseConv2d { info, epilogue } => match quant() {
            Some(params) => {
                fused_depthwise_conv2d_quant(Codegen::detect(), info, params, *epilogue, out)
            }
            None => depthwise_conv2d(Codegen::detect(), info, packed, *epilogue, out),
        },
        _ => return oracle::kernel(call, operands, out),
    })
}

/// Maximum output rank of the broadcast `Binary` program's address math.
pub const MAX_RANK: usize = 8;

/// Fused bias+activation epilogue applied to a finished accumulator
/// in-register; `bias` is the bias texture (sampler input 2), resolved once
/// per invocation. Float order matches the unfused `Add`-then-activation
/// kernel composition exactly, so fused and unfused agree bit-for-bit on
/// f32 devices.
#[inline]
fn apply_epilogue(
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    channel: usize,
    acc: f32,
) -> f32 {
    let v = match bias {
        Some(bias) => BinaryOp::Add.apply(acc, bias[channel]),
        None => acc,
    };
    match activation {
        Some(act) => act.apply(v),
        None => v,
    }
}

/// The bias texture of a fused kernel, when it binds one.
#[inline]
fn bias_of<'a>(s: &Samplers<'a>, has_bias: bool) -> Option<&'a [f32]> {
    has_bias.then(|| s.tex(2))
}

/// A product's epilogue: `(scale, min)` per output channel (or column) when
/// the weight operand holds U8 codes, for the factored map `s·Σxq + m·Σx`
/// of the oracle's quantized kernels; then the bias, when the program binds
/// one; then the activation.
pub type Finish<'a> = (Option<&'a [(f32, f32)]>, Option<&'a [f32]>, Option<UnaryOp>);

/// Cut the run `out`, which starts at flat output `start`, into the channel
/// runs of consecutive pixels (or rows) of `channels` outputs each:
/// `each(pixel, first channel, its outputs)`. A run may begin or end inside
/// a pixel, wherever the executor cut the output.
#[inline(always)]
fn pixel_runs(
    channels: usize,
    start: usize,
    out: &mut [f32],
    mut each: impl FnMut(usize, usize, &mut [f32]),
) {
    let (mut pix, mut ch0) = (start / channels, start % channels);
    let mut rest = out;
    while !rest.is_empty() {
        let len = (channels - ch0).min(rest.len());
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
        each(pix, ch0, run);
        (pix, ch0, rest) = (pix + 1, 0, tail);
    }
}

/// A product program's accumulation over one pixel (or row) whose index
/// math is already resolved: `block::<W>(ch)` sums output channels (or
/// columns) `ch .. ch + W`, each in its own accumulator from 0 with the
/// products added in the per-element body's order, so every output has
/// that body's bits.
trait Accumulate {
    fn block<const W: usize>(&self, ch: usize) -> [f32; W];
}

/// One `Σ x` shared by every channel: a conv pixel's or a matmul row's.
impl Accumulate for f32 {
    #[inline(always)]
    fn block<const W: usize>(&self, _: usize) -> [f32; W] {
        [*self; W]
    }
}

/// A product over U8 codes in the oracle's factored form: `s·Σxq + m·Σx`
/// per channel, `codes` summing `Σ x·q` and `sum_x` the channel's `Σ x`.
struct Factored<'a, Q, X> {
    codes: &'a Q,
    sum_x: X,
    affine: &'a [(f32, f32)],
}

impl<Q: Accumulate, X: Accumulate> Accumulate for Factored<'_, Q, X> {
    #[inline(always)]
    fn block<const W: usize>(&self, ch: usize) -> [f32; W] {
        let (mut q, x) = (self.codes.block::<W>(ch), self.sum_x.block::<W>(ch));
        let affine: &[(f32, f32); W] = self.affine[ch..ch + W].try_into().expect("W channels");
        for ((v, &(s, mn)), xv) in q.iter_mut().zip(affine).zip(x) {
            *v = s * *v + mn * xv;
        }
        q
    }
}

/// One pixel's (or row's) run of outputs from channel `ch0`: in blocks of 16
/// channels, then 8, then 4, then one at a time, so the accumulators of a
/// block stay in registers whatever the run's length; then the bias and the
/// activation over the run.
#[inline(always)]
fn fill_channels(
    acc: &impl Accumulate,
    (bias, activation): (Option<&[f32]>, Option<UnaryOp>),
    ch0: usize,
    out: &mut [f32],
) {
    let mut done = 0;
    while out.len() - done >= 16 {
        out[done..done + 16].copy_from_slice(&acc.block::<16>(ch0 + done));
        done += 16;
    }
    if out.len() - done >= 8 {
        out[done..done + 8].copy_from_slice(&acc.block::<8>(ch0 + done));
        done += 8;
    }
    if out.len() - done >= 4 {
        out[done..done + 4].copy_from_slice(&acc.block::<4>(ch0 + done));
        done += 4;
    }
    for (ch, v) in (ch0 + done..).zip(&mut out[done..]) {
        *v = acc.block::<1>(ch)[0];
    }
    if let Some(bias) = bias {
        for (v, &b) in out.iter_mut().zip(&bias[ch0..]) {
            *v = BinaryOp::Add.apply(*v, b);
        }
    }
    if let Some(act) = activation {
        for v in out.iter_mut() {
            *v = act.apply(*v);
        }
    }
}

/// [`fill_channels`] through a product's whole epilogue: over U8 codes the
/// accumulators of `codes` are `Σ x·q`, factored with `sum_x()`, the pixel's
/// (or row's) `Σ x`, which is only computed then.
#[inline(always)]
fn fill_product<X: Accumulate>(
    codes: &impl Accumulate,
    sum_x: impl FnOnce() -> X,
    (affine, bias, activation): Finish<'_>,
    ch: usize,
    out: &mut [f32],
) {
    match affine {
        None => fill_channels(codes, (bias, activation), ch, out),
        Some(affine) => {
            let factored = Factored { codes, sum_x: sum_x(), affine };
            fill_channels(&factored, (bias, activation), ch, out)
        }
    }
}

/// Element-wise unary kernel. Uses a packed (RGBA texel) body when
/// requested: one invocation computes 4 consecutive outputs.
pub fn unary(op: UnaryOp, out: &[usize], packed: bool) -> Kernel {
    let out_shape = out.to_vec();
    if packed {
        // Lanes past the end read the texture's zero padding and are dropped
        // by the store.
        Kernel::packed("Unary", out_shape, move |s, base| s.texel(0, base).map(|v| op.apply(v)))
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
        return Kernel::packed("BinaryPacked", out_shape, move |s, base| {
            let (a, b) = (s.texel(0, base), s.texel(1, base));
            std::array::from_fn(|q| op.apply(a[q], b[q]))
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

/// Batch `b`'s operands of `[batch, m, k] × [b_batch, k, n]`: row `i` of A
/// as a `k`-long walk in `p` order, and B from its first row. Each texture
/// is resolved once per invocation and walked by its stride, so no sample
/// pays a bounds check (`get`: with `k == 0` the operands are empty and an
/// offset into them would not exist).
#[inline]
fn matmul_operands<'a>(
    (a, bm): (&'a [f32], &'a [f32]),
    &MatMulGeom { m, k, n, b_batch, transpose_a, .. }: &MatMulGeom,
    (b, i): (usize, usize),
) -> (impl Iterator<Item = &'a f32> + Clone, &'a [f32]) {
    let (a0, a_step) = if transpose_a { (i, m) } else { (i * k, 1) };
    let a = a.get(b * m * k + a0..).unwrap_or_default();
    let b_off = if b_batch == 1 { 0 } else { b * k * n };
    (a.iter().step_by(a_step).take(k), bm.get(b_off..).unwrap_or_default())
}

/// The `(a, b)` value pairs of output `(b, i, j)`, in `p` order.
#[inline]
fn dot_operands<'a>(
    s: &Samplers<'a>,
    geom: &MatMulGeom,
    (b, i, j): (usize, usize, usize),
) -> impl Iterator<Item = (&'a f32, &'a f32)> {
    let (a_row, bm) = matmul_operands((s.tex(0), s.tex(1)), geom, (b, i));
    let (b0, b_step) = if geom.transpose_b { (j * geom.k, 1) } else { (j, geom.n) };
    a_row.zip(bm.get(b0..).unwrap_or_default().iter().step_by(b_step))
}

/// Batched matmul, Listing 2 style: each output recomputes a full dot
/// product (no shared memory — the architectural handicap behind the
/// WebGL/CUDA gap of Sec 3.9). The packed variant is a run body,
/// [`matmul_run`].
///
/// A non-empty epilogue is fused in-register and makes it the `FusedMatMul`
/// program: the whole `matmul → add → activation` chain in one draw call,
/// no intermediate textures. Bias (when present) is sampler input 2,
/// indexed by output column. Outputs are addressed by flat index, the
/// `[batch, m, n]` order a rank-2 product's `[m, n]` shares.
pub fn matmul(geom: &MatMulGeom, packed: bool, epilogue: Epilogue, out: &[usize]) -> Kernel {
    let names = match epilogue.is_plain() {
        true => ("MatMul", "MatMulPacked"),
        false => ("FusedMatMul", "FusedMatMulPacked"),
    };
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    let geom = *geom;
    let MatMulGeom { m, k, n, .. } = geom;
    let out_shape = out.to_vec();
    let cost = (k * 2).max(1);
    // One output, epilogue applied.
    let one = move |s: &Samplers<'_>, (b, i, j): (usize, usize, usize)| {
        let mut acc = 0.0f32;
        for (&av, &bv) in dot_operands(s, &geom, (b, i, j)) {
            acc += av * bv;
        }
        apply_epilogue(bias_of(s, has_bias), activation, j, acc)
    };
    if packed {
        return Kernel::fragment(names.1, out_shape, true, move |s, start, out| {
            let finish = (None, bias_of(s, has_bias), activation);
            matmul_run(&geom, s.tex(0), s.tex(1), finish, start, out);
        })
        .with_cost(cost);
    }
    Kernel::per_element(names.0, out_shape, move |s, flat, _| {
        one(s, (flat / n / m, flat / n % m, flat % n))
    })
    .with_cost(cost)
}

/// The run of `[batch, m, n]` matmul outputs from flat `start`, of `a`
/// against `b` (or its U8 codes, under `finish`'s affine map). Every output
/// of row `(b, i)` shares its A row: it is resolved once per row, and each
/// A element loaded once per block of columns — the vec4 benefit of
/// Listing 2, wider. Each output adds its products in ascending `p` from 0,
/// and `Σ a` over the same walk feeds the factored U8 form, as in
/// [`webml_core::kernels::fused_matmul_quant`].
pub fn matmul_run(
    geom: &MatMulGeom,
    a: &[f32],
    b: &[f32],
    finish: Finish<'_>,
    start: usize,
    out: &mut [f32],
) {
    let MatMulGeom { m, k, n, transpose_b, .. } = *geom;
    pixel_runs(n, start, out, |row, j0, run| {
        let (a_row, bm) = matmul_operands((a, b), geom, (row / m, row % m));
        let sum_a = || a_row.clone().fold(0.0f32, |acc, &v| acc + v);
        let codes = MatMulRow { a_row: a_row.clone(), bm, k, n, transpose_b };
        fill_product(&codes, sum_a, finish, j0, run);
    });
}

/// One row of a matmul's output: its A row (`k` values in `p` order) and B.
struct MatMulRow<'a, A> {
    a_row: A,
    bm: &'a [f32],
    k: usize,
    n: usize,
    transpose_b: bool,
}

impl<'a, A: Iterator<Item = &'a f32> + Clone> Accumulate for MatMulRow<'a, A> {
    #[inline(always)]
    fn block<const W: usize>(&self, j0: usize) -> [f32; W] {
        let (k, n) = (self.k, self.n);
        let mut acc = [0.0f32; W];
        if self.transpose_b {
            let cols: [&[f32]; W] = std::array::from_fn(|q| &self.bm[(j0 + q) * k..][..k]);
            for (p, &av) in self.a_row.clone().enumerate() {
                for (a, col) in acc.iter_mut().zip(cols) {
                    *a += av * col[p];
                }
            }
        } else {
            for (&av, row) in self.a_row.clone().zip(self.bm.chunks_exact(n)) {
                let row: &[f32; W] = row[j0..j0 + W].try_into().expect("W columns");
                for (a, &bv) in acc.iter_mut().zip(row) {
                    *a += av * bv;
                }
            }
        }
        acc
    }
}

/// Quantized-weight fused matmul: input 1 is an `R8` codes texture
/// (sampling yields the integer code widened to f32, never a dequantized
/// weight buffer). The accumulation is factored as
/// `Σ a·(q·s + m) = s·Σ a·q + m·Σ a`, with the affine scale/min applied
/// in-register before the shared bias+activation epilogue — one draw call,
/// 1-byte-per-weight device residency. `b_batch == 1` broadcasts the single
/// code matrix across the batch.
pub fn fused_matmul_quant(
    geom: &MatMulGeom,
    params: &QuantParams,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let geom = *geom;
    let affine: Vec<(f32, f32)> = (0..geom.n).map(|j| params.scale_min(j)).collect();
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    let cost = (geom.k * 3).max(1);
    Kernel::fragment("FusedMatMulQuant", out.to_vec(), false, move |s, start, out| {
        let finish = (Some(&affine[..]), bias_of(s, has_bias), activation);
        matmul_run(&geom, s.tex(0), s.tex(1), finish, start, out);
    })
    .with_cost(cost)
}

/// Quantized-filter fused conv2d: input 1 holds `R8` HWIO codes. The
/// valid-tap input sum is shared across the factored epilogue; per-channel
/// `params` index the output-channel axis (the caller guarantees this via
/// `quant_axis_ok`).
pub fn fused_conv2d_quant(
    codegen: Codegen,
    info: &Conv2dInfo,
    params: &QuantParams,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let c = info.clone();
    let affine: Vec<(f32, f32)> = (0..c.out_channels).map(|oc| params.scale_min(oc)).collect();
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    let cost = c.filter_height * c.filter_width * c.in_channels * 3;
    Kernel::fragment("FusedConv2DQuant", out.to_vec(), false, move |s, start, out| {
        let finish = (Some(&affine[..]), bias_of(s, has_bias), activation);
        conv2d_run(codegen, &c, s.tex(0), s.tex(1), finish, start, out);
    })
    .with_cost(cost)
}

/// Quantized-filter fused depthwise conv2d over `R8` codes.
pub fn fused_depthwise_conv2d_quant(
    codegen: Codegen,
    info: &Conv2dInfo,
    params: &QuantParams,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let (c, affine) = (info.clone(), depthwise_affine(params, info));
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    let cost = c.filter_height * c.filter_width * 3;
    Kernel::fragment("FusedDepthwiseConv2DQuant", out.to_vec(), false, move |s, start, out| {
        let finish = (Some(&affine[..]), bias_of(s, has_bias), activation);
        depthwise_conv2d_run(codegen, &c, s.tex(0), s.tex(1), finish, start, out);
    })
    .with_cost(cost)
}

/// `(scale, min)` of each output channel `ic·mul + m` of a depthwise filter
/// over U8 codes: per-channel `params` run along filter axis 2 (`ic`) or
/// 3 (`m`), either constant over an output's accumulation.
pub fn depthwise_affine(params: &QuantParams, c: &Conv2dInfo) -> Vec<(f32, f32)> {
    let mul = c.channel_mul;
    (0..c.out_channels)
        .map(|oc| match params {
            QuantParams::PerChannel { axis: 2, .. } => params.scale_min(oc / mul),
            _ => params.scale_min(oc % mul),
        })
        .collect()
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

/// Output pixel index -> `(b, oh, ow)`.
#[inline]
fn pixel(c: &Conv2dInfo, pix: usize) -> (usize, usize, usize) {
    let (ow, rest) = (pix % c.out_width, pix / c.out_width);
    (rest / c.out_height, rest % c.out_height, ow)
}

/// Walk the receptive field of output pixel `at` in the reference's
/// `(fh, fw, ic)` order: `step(input value, its filter row of out_channels
/// weights)`. `x` and `w` are the textures, resolved once per invocation;
/// each tap's operands are sliced once, so a step pays no bounds check.
#[inline]
fn for_each_conv_step<'a>(
    x: &[f32],
    w: &'a [f32],
    c: &Conv2dInfo,
    at: (usize, usize, usize),
    mut step: impl FnMut(f32, &'a [f32]),
) {
    let (in_c, tap_len) = (c.in_channels, c.in_channels * c.out_channels);
    for_each_tap(c, at, |px, t| {
        let rows = w[t * tap_len..][..tap_len].chunks_exact(c.out_channels);
        for (&xv, row) in x[px * in_c..][..in_c].iter().zip(rows) {
            step(xv, row);
        }
    });
}

/// One conv2d output pixel: its in-bounds taps, in `(fh, fw)` order, as
/// (offset of the input pixel's channels in x, offset of the tap's filter
/// rows in w).
struct ConvPixel<'a> {
    x: &'a [f32],
    w: &'a [f32],
    in_c: usize,
    out_c: usize,
    taps: &'a [(usize, usize)],
}

impl Accumulate for ConvPixel<'_> {
    #[inline(always)]
    fn block<const W: usize>(&self, oc: usize) -> [f32; W] {
        let (in_c, out_c) = (self.in_c, self.out_c);
        let mut acc = [0.0f32; W];
        for &(xo, wo) in self.taps {
            let rows = self.w[wo..][..in_c * out_c].chunks_exact(out_c);
            for (&xv, row) in self.x[xo..][..in_c].iter().zip(rows) {
                let row: &[f32; W] = row[oc..oc + W].try_into().expect("W filters");
                for (a, &wv) in acc.iter_mut().zip(row) {
                    *a += xv * wv;
                }
            }
        }
        acc
    }
}

/// conv2d: one output activation per invocation, walking its receptive
/// field. Index math is pre-resolved to flat fetches, as a GLSL compiler
/// resolves the generated accessors into direct texture fetches.
///
/// The packed variant is a run body, [`conv2d_run`]. A non-empty epilogue
/// is fused in-register (`FusedConv2D`); bias (when present) is sampler
/// input 2, indexed by output channel.
pub fn conv2d(
    codegen: Codegen,
    info: &Conv2dInfo,
    packed: bool,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let names = match epilogue.is_plain() {
        true => ("Conv2D", "Conv2DPacked"),
        false => ("FusedConv2D", "FusedConv2DPacked"),
    };
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    let c = info.clone();
    let out_shape = out.to_vec();
    let cost = c.filter_height * c.filter_width * c.in_channels * 2;
    // One output: channel `oc` of the pixel at `at`, epilogue applied.
    let one = move |s: &Samplers<'_>, c: &Conv2dInfo, at: (usize, usize, usize), oc: usize| {
        let mut acc = 0.0f32;
        for_each_conv_step(s.tex(0), s.tex(1), c, at, |xv, row| acc += xv * row[oc]);
        apply_epilogue(bias_of(s, has_bias), activation, oc, acc)
    };
    if packed {
        return Kernel::fragment(names.1, out_shape, true, move |s, start, out| {
            let finish = (None, bias_of(s, has_bias), activation);
            conv2d_run(codegen, &c, s.tex(0), s.tex(1), finish, start, out);
        })
        .with_cost(cost);
    }
    Kernel::per_element(names.0, out_shape, move |s, _, at| one(s, &c, (at[0], at[1], at[2]), at[3]))
        .with_cost(cost)
}

hot_loop! {
    /// The run of NHWC conv2d outputs from flat `start`, of `x` against the
    /// HWIO filter `w` (or its U8 codes, under `finish`'s affine map). Each
    /// output adds its products in the reference's `(fh, fw, ic)` order from
    /// 0, and `Σ x` over the same walk feeds the factored U8 form.
    ///
    /// A span of whole pixels whose every tap is inside the input ([`spans`])
    /// is a product: its receptive fields ([`Field`]) against the whole
    /// filter read as `[fh·fw·in_c, out_c]`, in register tiles of 4 pixels by
    /// up to 16 channels ([`tile_columns`]). Each x fetch feeds a block of
    /// filters and each filter fetch 4 pixels: the packed-conv win behind
    /// the paper's 1.3-1.4x PoseNet speedup, wider. Every other pixel walks
    /// its in-bounds taps alone ([`ConvPixel`]), so no padding is multiplied.
    pub fn conv2d_run<const WIDE: bool>(
        c: &Conv2dInfo,
        x: &[f32],
        w: &[f32],
        finish: Finish<'_>,
        start: usize,
        out: &mut [f32],
    ) {
        match finish.0 {
            Some(_) => conv_spans::<WIDE, true>(c, x, w, finish, start, out),
            None => conv_spans::<WIDE, false>(c, x, w, finish, start, out),
        }
    }
}

/// [`conv2d_run`]'s body; `FACTORED` when the filter holds U8 codes.
#[inline(always)]
fn conv_spans<const WIDE: bool, const FACTORED: bool>(
    c: &Conv2dInfo,
    x: &[f32],
    w: &[f32],
    (affine, bias, activation): Finish<'_>,
    start: usize,
    out: &mut [f32],
) {
    let (in_c, out_c) = (c.in_channels, c.out_channels);
    let offsets: Vec<usize> = field_taps(c).flat_map(|(xo, _)| xo..xo + in_c).collect();
    let (mut taps, mut bases) = (Vec::new(), Vec::new());
    for span in spans(c, start, out) {
        let (oc0, run) = match span {
            Span::Edge(at, oc0, run) => {
                taps.clear();
                for_each_tap(c, at, |px, t| taps.push((px * in_c, t * in_c * out_c)));
                let sum_x = || {
                    taps.iter().flat_map(|&(xo, _)| &x[xo..][..in_c]).fold(0.0f32, |a, &v| a + v)
                };
                let pixel = ConvPixel { x, w, in_c, out_c, taps: &taps };
                fill_product(&pixel, sum_x, (affine, None, None), oc0, run);
                (oc0, run)
            }
            Span::Inside(pix, run) => {
                bases.clear();
                bases.extend(first_taps(c, pix, run.len() / out_c));
                let a = Field { x, bases: &bases, offsets: &offsets };
                for (i, tile) in (0..).step_by(4).zip(run.chunks_exact_mut(4 * out_c)) {
                    let sums = tile_columns::<WIDE, 4>(a, i, w, out_c, tile);
                    for (pixel, sum) in tile.chunks_exact_mut(out_c).zip(sums) {
                        factor::<FACTORED>(affine, 0, pixel, |_| sum);
                    }
                }
                (0, run)
            }
        };
        epilogue(run, run.len().min(out_c - oc0), bias.map(|b| &b[oc0..]), activation);
    }
}

/// A conv's left operand over a span of pixels whose every tap is inside
/// the input: row `i` is pixel `i`'s receptive field, `x[bases[i] +
/// offsets[p]]` for `p` in the reference's `(fh, fw, ic)` order.
#[derive(Clone, Copy)]
struct Field<'a> {
    x: &'a [f32],
    bases: &'a [usize],
    offsets: &'a [usize],
}

impl Lhs for Field<'_> {
    #[inline(always)]
    fn rows<const R: usize>(self, i: usize) -> impl Iterator<Item = [f32; R]> {
        let fields: [&[f32]; R] = std::array::from_fn(|r| &self.x[self.bases[i + r]..]);
        self.offsets.iter().map(move |&o| std::array::from_fn(|r| fields[r][o]))
    }
}

/// Columns `0..n` of rows `i..i + R` of `a · b`, in register tiles from the
/// widest a build holds in registers (16 columns with AVX2, 8 without) down
/// to 1, as `backend-native`'s `gemm_rows` cuts them. Each row's `Σ A` comes
/// from the first tile's walk.
#[inline(always)]
fn tile_columns<const WIDE: bool, const R: usize>(
    a: impl Lhs,
    i: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) -> [f32; R] {
    let width =
        |j: usize| [if WIDE { 16 } else { 8 }, 8, 4, 2, 1].into_iter().find(|&w| j + w <= n);
    let sums = columns::<R>(width(0), (a, i), b, n, 0, out);
    let mut j = width(0).unwrap_or(n);
    while let Some(w) = width(j) {
        columns::<R>(Some(w), (a, i), b, n, j, out);
        j += w;
    }
    sums
}

/// [`gemm_tile`] over rows `i..i + R`, `width` columns from column `j`.
#[inline(always)]
fn columns<const R: usize>(
    width: Option<usize>,
    (a, i): (impl Lhs, usize),
    b: &[f32],
    n: usize,
    j: usize,
    out: &mut [f32],
) -> [f32; R] {
    match width {
        Some(16) => gemm_tile::<R, 16>(a, i, b, n, j, out),
        Some(8) => gemm_tile::<R, 8>(a, i, b, n, j, out),
        Some(4) => gemm_tile::<R, 4>(a, i, b, n, j, out),
        Some(2) => gemm_tile::<R, 2>(a, i, b, n, j, out),
        _ => gemm_tile::<R, 1>(a, i, b, n, j, out),
    }
}

/// With `FACTORED`, the U8 map `s·Σxq + m·Σx` over a run of stored
/// accumulators from channel `ch0`, `sum_x(q)` the `Σ x` of its `q`th
/// output. Without it the sums are never read, so the walk that made them
/// drops them.
#[inline(always)]
fn factor<const FACTORED: bool>(
    affine: Option<&[(f32, f32)]>,
    ch0: usize,
    out: &mut [f32],
    sum_x: impl Fn(usize) -> f32,
) {
    if let Some(affine) = affine.filter(|_| FACTORED) {
        for (q, (v, &(s, mn))) in out.iter_mut().zip(&affine[ch0..]).enumerate() {
            *v = s * *v + mn * sum_x(q);
        }
    }
}

/// A piece of a run of NHWC outputs (see [`spans`]).
enum Span<'a> {
    /// Outputs from channel `.1` of the pixel at `.0`: one with a tap
    /// outside the input, cut by the run's end, or left over from a span.
    Edge((usize, usize, usize), usize, &'a mut [f32]),
    /// Whole pixels from pixel index `.0`, a multiple of 4, every tap of
    /// each inside the input. The span may cross output rows.
    Inside(usize, &'a mut [f32]),
}

/// Cut the run `out` of NHWC outputs, which starts at flat output `start`,
/// into [`Span`]s: the longest spans of a multiple of 4 whole pixels whose
/// every tap is inside the input, and every other pixel or part-pixel on
/// its own.
fn spans<'a>(
    c: &'a Conv2dInfo,
    start: usize,
    out: &'a mut [f32],
) -> impl Iterator<Item = Span<'a>> {
    let (ch, oh, ow) = (c.out_channels.max(1), c.out_height, c.out_width);
    let rows = inside(oh, c.in_height, [c.stride_h, c.pad_top, c.filter_height, c.dilation_h]);
    let cols = inside(ow, c.in_width, [c.stride_w, c.pad_left, c.filter_width, c.dilation_w]);
    let (mut pix, mut ch0, mut rest) = (start / ch, start % ch, out);
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (row, col) = (pix / ow, pix % ow);
        let limit = pix + if ch0 == 0 { rest.len() / ch } else { 0 };
        let mut end = pix;
        if rows.contains(&(row % oh)) && cols.contains(&col) {
            end = row * ow + cols.end;
            // Rows inside from edge to edge continue the span.
            while cols.len() == ow && end < limit && rows.contains(&(end / ow % oh)) {
                end += ow;
            }
            end = pix + (end.min(limit) - pix) / 4 * 4;
        }
        let len = if end > pix { (end - pix) * ch } else { (ch - ch0).min(rest.len()) };
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut(len);
        let span = match end > pix {
            true => Span::Inside(pix, piece),
            false => Span::Edge((row / oh, row % oh, col), ch0, piece),
        };
        (pix, ch0, rest) = (end.max(pix + 1), 0, tail);
        Some(span)
    })
}

/// The output positions along one axis — `stride` apart, the first `pad`
/// before the input's first — whose every one of `taps` taps, `dilation`
/// apart, lands on one of the `input` positions: `lo..hi` of `0..out`.
fn inside(out: usize, input: usize, [stride, pad, taps, dilation]: [usize; 4]) -> Range<usize> {
    let reach = taps.saturating_sub(1) * dilation + 1;
    let hi = (input + pad).checked_sub(reach).map_or(0, |last| last / stride + 1).min(out);
    pad.div_ceil(stride).min(hi)..hi
}

/// The offset in `x` of the first tap of each of the `n` pixels from pixel
/// index `pix`, every one inside the input.
fn first_taps(c: &Conv2dInfo, pix: usize, n: usize) -> impl Iterator<Item = usize> + '_ {
    let (mut b, mut oh, mut ow) = pixel(c, pix);
    (0..n).map(move |_| {
        let ih = b * c.in_height + oh * c.stride_h - c.pad_top;
        let at = (ih * c.in_width + ow * c.stride_w - c.pad_left) * c.in_channels;
        ow += 1;
        if ow == c.out_width {
            (oh, ow) = (oh + 1, 0);
            if oh == c.out_height {
                (b, oh) = (b + 1, 0);
            }
        }
        at
    })
}

/// Each filter tap in `(fh, fw)` order: (its offset in `x` from a pixel's
/// first tap, its index).
fn field_taps(c: &Conv2dInfo) -> impl Iterator<Item = (usize, usize)> + '_ {
    let taps = (0..c.filter_height).flat_map(|h| (0..c.filter_width).map(move |w| (h, w)));
    taps.map(|(h, w)| {
        ((h * c.dilation_h * c.in_width + w * c.dilation_w) * c.in_channels, h * c.filter_width + w)
    })
}

/// Depthwise conv2d, with pre-resolved flat index math.
///
/// With `channel_mul == 1` the packed variant is a run body,
/// [`depthwise_conv2d_run`]. A non-empty epilogue is fused in-register
/// (`FusedDepthwiseConv2D`); bias (when present) is sampler input 2,
/// indexed by output channel.
pub fn depthwise_conv2d(
    codegen: Codegen,
    info: &Conv2dInfo,
    packed: bool,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let names = match epilogue.is_plain() {
        true => ("DepthwiseConv2D", "DepthwiseConv2DPacked"),
        false => ("FusedDepthwiseConv2D", "FusedDepthwiseConv2DPacked"),
    };
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    let c = info.clone();
    let out_shape = out.to_vec();
    let cost = c.filter_height * c.filter_width * 2;
    // One output: channel `och` of the pixel at `at`, epilogue applied.
    let one = move |s: &Samplers<'_>, c: &Conv2dInfo, at: (usize, usize, usize), och: usize| {
        let (x, w, ic) = (s.tex(0), s.tex(1), och / c.channel_mul);
        let mut acc = 0.0f32;
        // Filter `[fh, fw, in_c, mul]` flattens to `t * out_channels + och`.
        for_each_tap(c, at, |px, t| acc += x[px * c.in_channels + ic] * w[t * c.out_channels + och]);
        apply_epilogue(bias_of(s, has_bias), activation, och, acc)
    };
    if packed && c.channel_mul == 1 {
        return Kernel::fragment(names.1, out_shape, true, move |s, start, out| {
            let finish = (None, bias_of(s, has_bias), activation);
            depthwise_conv2d_run(codegen, &c, s.tex(0), s.tex(1), finish, start, out);
        })
        .with_cost(cost);
    }
    Kernel::per_element(names.0, out_shape, move |s, _, at| one(s, &c, (at[0], at[1], at[2]), at[3]))
        .with_cost(cost)
}

hot_loop! {
    /// The run of depthwise conv2d outputs from flat `start`, of `x` against
    /// the `[fh, fw, in_c, mul]` filter `w` (or its U8 codes, under
    /// `finish`'s affine map). Each output adds its taps in `(fh, fw)` order
    /// from 0, and its input channel's `Σ x` over the same walk feeds the
    /// factored U8 form.
    ///
    /// A span of whole pixels whose every tap is inside the input ([`spans`])
    /// runs in tiles of 4 pixels ([`depthwise_tile`]): each filter fetch
    /// feeds 4 pixels. Every other pixel takes tiles of one pixel over its
    /// in-bounds taps alone, so no padding is multiplied.
    pub fn depthwise_conv2d_run<const WIDE: bool>(
        c: &Conv2dInfo,
        x: &[f32],
        w: &[f32],
        finish: Finish<'_>,
        start: usize,
        out: &mut [f32],
    ) {
        match finish.0 {
            Some(_) => depthwise_spans::<WIDE, true>(c, x, w, finish, start, out),
            None => depthwise_spans::<WIDE, false>(c, x, w, finish, start, out),
        }
    }
}

/// [`depthwise_conv2d_run`]'s body; `FACTORED` when the filter holds U8
/// codes.
#[inline(always)]
fn depthwise_spans<const WIDE: bool, const FACTORED: bool>(
    c: &Conv2dInfo,
    x: &[f32],
    w: &[f32],
    (affine, bias, activation): Finish<'_>,
    start: usize,
    out: &mut [f32],
) {
    let (in_c, out_c) = (c.in_channels, c.out_channels);
    let field: Vec<(usize, usize)> = field_taps(c).map(|(xo, t)| (xo, t * out_c)).collect();
    let (mut taps, mut bases) = (Vec::new(), Vec::new());
    let dw = (x, w, c.channel_mul, affine);
    for span in spans(c, start, out) {
        let (ch0, run) = match span {
            Span::Edge(at, ch0, run) => {
                taps.clear();
                for_each_tap(c, at, |px, t| taps.push((px * in_c, t * out_c)));
                depthwise_pixels::<WIDE, FACTORED, 1>(dw, [0], &taps, ch0, run);
                (ch0, run)
            }
            Span::Inside(pix, run) => {
                bases.clear();
                bases.extend(first_taps(c, pix, run.len() / out_c));
                for (tile, b) in run.chunks_exact_mut(4 * out_c).zip(bases.chunks_exact(4)) {
                    let b = b.try_into().expect("4 pixels");
                    depthwise_pixels::<WIDE, FACTORED, 4>(dw, b, &field, 0, tile);
                }
                (0, run)
            }
        };
        epilogue(run, run.len().min(out_c - ch0), bias.map(|b| &b[ch0..]), activation);
    }
}

/// A depthwise operand set: `x`, `w`, the channel multiplier, and the U8
/// `(scale, min)` per output channel when `w` holds codes.
type Depthwise<'a> = (&'a [f32], &'a [f32], usize, Option<&'a [(f32, f32)]>);

/// The outputs from channel `ch0` of `R` pixels, `out` holding `R` equal
/// rows, whose first taps in `x` are at `bases`, over `taps` (offset in `x`
/// from a first tap, offset in `w`): in blocks of 8 channels with AVX2,
/// then of 4, then single channels. Under a channel multiplier every block
/// is one channel: consecutive outputs do not read consecutive inputs.
#[inline(always)]
fn depthwise_pixels<const WIDE: bool, const FACTORED: bool, const R: usize>(
    dw: Depthwise<'_>,
    bases: [usize; R],
    taps: &[(usize, usize)],
    ch0: usize,
    out: &mut [f32],
) {
    let (len, mul) = (out.len() / R, dw.2);
    let mut q = 0;
    while WIDE && mul == 1 && q + 8 <= len {
        depthwise_tile::<FACTORED, R, 8>(dw, bases, taps, (ch0, q, len), out);
        q += 8;
    }
    while mul == 1 && q + 4 <= len {
        depthwise_tile::<FACTORED, R, 4>(dw, bases, taps, (ch0, q, len), out);
        q += 4;
    }
    for q in q..len {
        depthwise_tile::<FACTORED, R, 1>(dw, bases, taps, (ch0, q, len), out);
    }
}

/// An `R`-pixel by `W`-channel depthwise tile: channels `ch0 + q ..` of the
/// `R` rows of `len` in `out`. Each output is one accumulator from 0 that
/// adds its taps in `(fh, fw)` order, each tap's `W` weights loaded once
/// for the `R` pixels; with `FACTORED`, each output's `Σ x` beside it feeds
/// the U8 map.
#[inline(always)]
fn depthwise_tile<const FACTORED: bool, const R: usize, const W: usize>(
    (x, w, mul, affine): Depthwise<'_>,
    bases: [usize; R],
    taps: &[(usize, usize)],
    (ch0, q, len): (usize, usize, usize),
    out: &mut [f32],
) {
    let (ch, mut acc, mut sums) = (ch0 + q, [[0.0f32; W]; R], [[0.0f32; W]; R]);
    for &(xo, wo) in taps {
        let ws: &[f32; W] = w[wo + ch..][..W].try_into().expect("W channels");
        for r in 0..R {
            let xs: &[f32; W] = x[bases[r] + xo + ch / mul..][..W].try_into().expect("W channels");
            for k in 0..W {
                acc[r][k] += xs[k] * ws[k];
                sums[r][k] += xs[k];
            }
        }
    }
    for r in 0..R {
        let run = &mut out[r * len + q..][..W];
        run.copy_from_slice(&acc[r]);
        factor::<FACTORED>(affine, ch, run, |k| sums[r][k]);
    }
}
