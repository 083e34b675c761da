//! Program builders: the calls both GPU rungs write programs for, and the
//! one match, [`kernel`], from a [`KernelCall`] to its program on the API a
//! [`Capabilities`] descriptor names. The products — matmul, conv2d and
//! depthwise conv2d, each plain, fused and over U8 codes — are one builder
//! per family around one run body, [`matmul_run`], [`conv2d_run`] or
//! [`depthwise_conv2d_run`], in the style of the paper's Listing 2: on
//! textures a fragment program (fragment shaders cannot scatter; packed
//! where the context packs and the family has a packed body, otherwise a
//! per-output gather), on storage buffers a compute body. Their names come
//! from one table, and their declared shared-memory reuse
//! belongs to the family on every rung; only a device with workgroup shared
//! memory reads it ([`webml_webgl_sim::shader::occupancy`]). On textures
//! `Unary` and `Binary` are fragment programs too (Figure 4's element-wise
//! add), whose host bodies the paper's packing and layout claims read.
//! Every other call goes to the [`crate::oracle`] adapter. Every builder
//! takes the output dims [`KernelCall::output`] gave.
//!
//! The conv and depthwise bodies are hot loops compiled for the baseline
//! and for AVX2 ([`webml_core::codegen`]); their builders take the build to
//! run (`Codegen::detect()` from [`kernel`], each in turn in the tests).
//! They tile the output pixels whose every filter tap lies inside the
//! input, in spans of a multiple of 4 whole pixels that may cross output
//! rows (every pixel of a 1×1 conv): a conv's through the register tile
//! `backend-native`'s products use ([`webml_core::tile::gemm_tile`]), a
//! depthwise conv's through a tile of its own of the same shape. Every
//! other pixel — one with a tap on the padding, a part-pixel at either end
//! of a run, one left over from a span — walks its in-bounds taps alone.
//! Either way each output has the bits of `cpu`'s: it starts at 0, adds its
//! products in the reference's order, multiplies no padding tap, and its U8
//! `Σ x` comes from the same walk; the epilogue (`s·Σxq + m·Σx`, then
//! `BinaryOp::Add` bias, then `UnaryOp::apply`) goes through the scalar
//! paths the `cpu` backend composes. [`matmul_run`] keeps its
//! row-at-a-time walk. A compute body's runs may start on any output.

use crate::oracle;
use std::ops::Range;
use webml_core::backend::{BinaryOp, Epilogue, KTensor, KernelCall, MatMulGeom, UnaryOp};
use webml_core::codegen::Codegen;
use webml_core::conv_util::Conv2dInfo;
use webml_core::error::Result;
use webml_core::hot_loop;
use webml_core::quant::QuantParams;
use webml_core::tile::{epilogue, gemm_tile, Lhs};
use webml_webgl_sim::caps::{Capabilities, Storage};
use webml_webgl_sim::shader::{Kernel, Samplers};

/// The program for `call` over `operands` — bound in the order the call
/// lists them, read under their logical shapes — into `out`, the dims
/// [`KernelCall::output`] gave, on the API `caps` describes; `packed` asks
/// for the RGBA-texel body where a texture program has one (the context's
/// packing switch). A product over a quantized weight takes the
/// dequant-free program, which reads the one-byte codes. On storage
/// buffers `Unary` and `Binary`, on textures a `Binary` whose output rank
/// is above [`MAX_RANK`], and every other call run on the oracle adapter.
///
/// # Errors
/// The oracle adapter's.
pub fn kernel(
    caps: &Capabilities,
    call: &KernelCall<'_>,
    operands: &[KTensor<'_>],
    out: &[usize],
    packed: bool,
) -> Result<Kernel> {
    use KernelCall as C;
    let texture = caps.storage == Storage::Texture;
    let dims = |i: usize| operands[i].shape.dims();
    let quant = || operands[1].quant;
    Ok(match call {
        C::Unary(op) if texture => unary(*op, out, packed),
        C::Binary(op) if texture && out.len() <= MAX_RANK => {
            binary(*op, dims(0), dims(1), out, packed)
        }
        C::MatMul { transpose_a, transpose_b, epilogue } => {
            let (a, b) = (operands[0].shape, operands[1].shape);
            let geom = MatMulGeom::of(a, b, *transpose_a, *transpose_b);
            matmul(caps, &geom, quant(), packed, *epilogue, out)
        }
        C::Conv2d { info, epilogue } => {
            conv2d(caps, Codegen::detect(), info, quant(), packed, *epilogue, out)
        }
        C::DepthwiseConv2d { info, epilogue } => {
            depthwise_conv2d(caps, Codegen::detect(), info, quant(), packed, *epilogue, out)
        }
        _ => return oracle::kernel(call, operands, out),
    })
}

/// The product families.
#[derive(Clone, Copy)]
enum Family {
    MatMul,
    Conv2d,
    Depthwise,
}

/// Workgroup tile width of the matmul and conv programs on a device with
/// shared memory: each workgroup is `TILE`×`TILE` invocations staging
/// `TILE`-deep input tiles, so each staged value serves `TILE` of them.
pub const TILE: usize = 16;

impl Family {
    /// How many invocations each shared-memory load serves: a matmul or
    /// conv stages both operands' tiles ([`TILE`]); a depthwise output reads
    /// one input channel, so only the filter tile is shared (8).
    fn reuse(self) -> usize {
        match self {
            Family::MatMul | Family::Conv2d => TILE,
            Family::Depthwise => 8,
        }
    }
}

/// Every product program's name, by [`Family`]; then plain, fused, over U8
/// codes; then as a per-output fragment program, a packed one, a compute
/// body. A U8 program has no packed body.
const NAMES: [[[&str; 3]; 3]; 3] = [
    [
        ["MatMul", "MatMulPacked", "MatMulTiled"],
        ["FusedMatMul", "FusedMatMulPacked", "FusedMatMulTiled"],
        ["FusedMatMulQuant", "FusedMatMulQuant", "FusedMatMulQuantTiled"],
    ],
    [
        ["Conv2D", "Conv2DPacked", "Conv2DTiled"],
        ["FusedConv2D", "FusedConv2DPacked", "FusedConv2DTiled"],
        ["FusedConv2DQuant", "FusedConv2DQuant", "FusedConv2DQuantTiled"],
    ],
    [
        ["DepthwiseConv2D", "DepthwiseConv2DPacked", "DepthwiseConv2DTiled"],
        ["FusedDepthwiseConv2D", "FusedDepthwiseConv2DPacked", "FusedDepthwiseConv2DTiled"],
        [
            "FusedDepthwiseConv2DQuant",
            "FusedDepthwiseConv2DQuant",
            "FusedDepthwiseConv2DQuantTiled",
        ],
    ],
];

/// A product family's program into `out`, `steps` multiply-adds per output.
/// `run(x, w, finish, start, run_out)` is the family's run body over the
/// first two bound inputs, `finish` holding the U8 `affine` map when the
/// weight holds codes, the bias (bound third) when `epilogue` has one, and
/// its activation; `one(samplers, flat, coords)` is the f32 variants'
/// per-output body. On storage buffers `run` is a compute body whose runs
/// start on any output. On textures it is a fragment program, packed with
/// `packed` — except an unpacked f32 program, which is `one`.
fn product(
    (caps, family): (&Capabilities, Family),
    (epilogue, affine): (Epilogue, Option<Vec<(f32, f32)>>),
    (out, steps, packed): (&[usize], usize, bool),
    run: impl Fn(&[f32], &[f32], Finish<'_>, usize, &mut [f32]) + Send + Sync + 'static,
    one: impl Fn(&Samplers<'_>, usize, &[usize]) -> f32 + Send + Sync + 'static,
) -> Kernel {
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    let (u8, packed) = (affine.is_some(), packed && affine.is_none());
    let variant = if u8 { 2 } else { usize::from(!epilogue.is_plain()) };
    let names = NAMES[family as usize][variant];
    // Operations per multiply-add: a U8 fragment program counts the `Σ x`
    // add beside each product.
    let ops = if u8 && caps.storage == Storage::Texture { 3 } else { 2 };
    let kernel = match caps.storage {
        Storage::Linear => Kernel::compute(names[2], out.to_vec(), 1, move |inp, start, out| {
            let finish = (affine.as_deref(), has_bias.then(|| inp[2]), activation);
            run(inp[0], inp[1], finish, start, out)
        }),
        Storage::Texture if packed || u8 => {
            let name = names[usize::from(packed)];
            Kernel::fragment(name, out.to_vec(), packed, move |s, start, out| {
                let finish = (affine.as_deref(), bias_of(s, has_bias), activation);
                run(s.tex(0), s.tex(1), finish, start, out)
            })
        }
        Storage::Texture => Kernel::per_element(names[0], out.to_vec(), one),
    };
    Kernel { shared_reuse: family.reuse(), ..kernel.with_cost(steps * ops) }
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

/// Batched matmul, Listing 2 style, of `a` (input 0) against `b` (input 1,
/// or its U8 codes with `quant`, the affine map `Σ a·(q·s + m) = s·Σ a·q +
/// m·Σ a` applied in-register). The per-output program recomputes a full
/// dot product per output (no shared memory — the architectural handicap
/// behind the WebGL/CUDA gap of Sec 3.9); every other is a run body,
/// [`matmul_run`]. A non-empty epilogue is fused in-register and makes it
/// the `FusedMatMul` program: the whole `matmul → add → activation` chain
/// in one draw call or dispatch, no intermediate buffers. Bias (when
/// present) is input 2, indexed by output column. Outputs are addressed by
/// flat index, the `[batch, m, n]` order a rank-2 product's `[m, n]`
/// shares; a batch-1 `b` broadcasts over the batch.
pub fn matmul(
    caps: &Capabilities,
    geom: &MatMulGeom,
    quant: Option<&QuantParams>,
    packed: bool,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let geom = *geom;
    let MatMulGeom { m, k, n, .. } = geom;
    let affine = quant.map(|params| (0..n).map(|j| params.scale_min(j)).collect());
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    let one = move |s: &Samplers<'_>, flat: usize, _: &[usize]| {
        let (b, i, j) = (flat / n / m, flat / n % m, flat % n);
        let mut acc = 0.0f32;
        for (&av, &bv) in dot_operands(s, &geom, (b, i, j)) {
            acc += av * bv;
        }
        apply_epilogue(bias_of(s, has_bias), activation, j, acc)
    };
    let run = move |a: &[f32], b: &[f32], finish: Finish<'_>, start: usize, out: &mut [f32]| {
        matmul_run(&geom, a, b, finish, start, out)
    };
    product((caps, Family::MatMul), (epilogue, affine), (out, k, packed), run, one)
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

/// `(scale, min)` of each output channel `ic·mul + m` of a depthwise filter
/// over U8 codes: per-channel `params` run along filter axis 2 (`ic`) or
/// 3 (`m`), either constant over an output's accumulation.
fn depthwise_affine(params: &QuantParams, c: &Conv2dInfo) -> Vec<(f32, f32)> {
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

/// conv2d of NHWC `x` (input 0) against the HWIO filter `w` (input 1, or
/// its U8 codes with `quant`; per-channel params index the output-channel
/// axis, which the caller guarantees via `quant_axis_ok`). The per-output
/// program walks one output's receptive field, its index math pre-resolved
/// to flat fetches as a GLSL compiler resolves the generated accessors into
/// direct texture fetches; every other is a run body, [`conv2d_run`]. A
/// non-empty epilogue is fused in-register (`FusedConv2D`); bias (when
/// present) is input 2, indexed by output channel.
pub fn conv2d(
    caps: &Capabilities,
    codegen: Codegen,
    info: &Conv2dInfo,
    quant: Option<&QuantParams>,
    packed: bool,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let c = info.clone();
    let affine = quant.map(|params| (0..c.out_channels).map(|oc| params.scale_min(oc)).collect());
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    let steps = c.filter_height * c.filter_width * c.in_channels;
    let walk = c.clone();
    let one = move |s: &Samplers<'_>, _: usize, at: &[usize]| {
        let mut acc = 0.0f32;
        let (pixel, oc) = ((at[0], at[1], at[2]), at[3]);
        for_each_conv_step(s.tex(0), s.tex(1), &walk, pixel, |xv, row| acc += xv * row[oc]);
        apply_epilogue(bias_of(s, has_bias), activation, oc, acc)
    };
    let run = move |x: &[f32], w: &[f32], finish: Finish<'_>, start: usize, out: &mut [f32]| {
        conv2d_run(codegen, &c, x, w, finish, start, out)
    };
    product((caps, Family::Conv2d), (epilogue, affine), (out, steps, packed), run, one)
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

/// Depthwise conv2d of NHWC `x` (input 0) against the `[fh, fw, in_c, mul]`
/// filter `w` (input 1, or its U8 codes with `quant`), with pre-resolved
/// flat index math. With `channel_mul == 1` the packed program is a run
/// body, [`depthwise_conv2d_run`], as is every program but the per-output
/// one. A non-empty epilogue is fused in-register (`FusedDepthwiseConv2D`);
/// bias (when present) is input 2, indexed by output channel.
pub fn depthwise_conv2d(
    caps: &Capabilities,
    codegen: Codegen,
    info: &Conv2dInfo,
    quant: Option<&QuantParams>,
    packed: bool,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let c = info.clone();
    let affine = quant.map(|params| depthwise_affine(params, &c));
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    let (steps, packed) = (c.filter_height * c.filter_width, packed && c.channel_mul == 1);
    let walk = c.clone();
    let one = move |s: &Samplers<'_>, _: usize, at: &[usize]| {
        let (x, w, och) = (s.tex(0), s.tex(1), at[3]);
        let (ic, mut acc) = (och / walk.channel_mul, 0.0f32);
        // Filter `[fh, fw, in_c, mul]` flattens to `t * out_channels + och`.
        for_each_tap(&walk, (at[0], at[1], at[2]), |px, t| {
            acc += x[px * walk.in_channels + ic] * w[t * walk.out_channels + och]
        });
        apply_epilogue(bias_of(s, has_bias), activation, och, acc)
    };
    let run = move |x: &[f32], w: &[f32], finish: Finish<'_>, start: usize, out: &mut [f32]| {
        depthwise_conv2d_run(codegen, &c, x, w, finish, start, out)
    };
    product((caps, Family::Depthwise), (epilogue, affine), (out, steps, packed), run, one)
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

/// Differential tests: each product program a compute rung runs against its
/// `webml_core::kernels` oracle, on bits, however the shader-core pool cuts
/// the output into runs.
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use webml_core::kernels as k;
    use webml_core::shape::Shape;
    use webml_core::backend::{BinaryOp, UnaryOp};
    use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};
    use webml_core::pool::WorkerPool;
    use webml_webgl_sim::caps::WEBGPU;
    use webml_webgl_sim::shader::{execute, KernelBody};

    /// Deterministic values in roughly [-2, 2] (xorshift).
    fn data(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0) as f32
            })
            .collect()
    }

    fn codes(n: usize, seed: u64) -> Vec<u8> {
        data(n, seed).iter().map(|v| ((v + 2.0) * 63.9) as u8).collect()
    }

    /// The widened form a U8 storage buffer binds as.
    fn widen(codes: &[u8]) -> Vec<f32> {
        codes.iter().map(|&q| q as f32).collect()
    }

    /// Shader-core pools of 1, 2, 3 and 7 threads: on more than one, runs
    /// start inside a pixel's (or row's) channel run.
    fn pools() -> &'static [WorkerPool; 4] {
        static POOLS: OnceLock<[WorkerPool; 4]> = OnceLock::new();
        POOLS.get_or_init(|| [1, 2, 3, 7].map(WorkerPool::new))
    }

    /// Run a pipeline the way the queue does — through `execute`, into a
    /// buffer holding stale values — on every pool, split as finely as the
    /// pool allows; the bits, which every pool must agree on.
    fn run(pl: &Kernel, inputs: &[&[f32]]) -> Vec<u32> {
        assert!(matches!(pl.body, KernelBody::Compute { .. }), "{} is not a pipeline", pl.name);
        let mut runs = pools().iter().map(|pool| {
            let mut out = vec![f32::NAN; pl.out_size()];
            execute(pl, inputs, &[], &mut out, pool, pool.size(), false);
            (pool.size(), bits(&out))
        });
        let (_, first) = runs.next().expect("a pool");
        for (cores, got) in runs {
            assert!(got == first, "{} on {cores} cores differs from 1 core", pl.name);
        }
        first
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// What the unfused composition computes after an f32 kernel.
    fn epilogue(mut y: Vec<f32>, bias: Option<&[f32]>, act: Option<UnaryOp>) -> Vec<f32> {
        for (i, v) in y.iter_mut().enumerate() {
            if let Some(b) = bias {
                *v = BinaryOp::Add.apply(*v, b[i % b.len()]);
            }
            if let Some(a) = act {
                *v = a.apply(*v);
            }
        }
        y
    }

    /// Per-tensor params, then per-channel params along `axis` with `n` entries.
    fn params(axis: usize, n: usize, seed: u64) -> [QuantParams; 2] {
        let scales = data(n, seed).iter().map(|v| v.abs() * 0.01 + 0.001).collect();
        let per_channel = QuantParams::per_channel(axis, scales, data(n, seed + 1));
        [QuantParams::per_tensor(0.017, -1.3), per_channel]
    }

    const EPILOGUES: [(bool, Option<UnaryOp>); 4] = [
        (false, None),
        (true, None),
        (false, Some(UnaryOp::Relu6)),
        (true, Some(UnaryOp::Sigmoid)),
    ];

    /// `case` on every build of the hot loops this CPU runs
    /// ([`Codegen::all`]), so that an AVX2 CPU checks the portable build too.
    fn every_build<T: Copy>(case: T) -> impl Iterator<Item = (T, Codegen)> {
        Codegen::all().into_iter().map(move |cg| (case, cg))
    }

    /// The epilogue of an f32 kernel, and of a kernel over U8 codes.
    fn fused((bias, activation): (bool, Option<UnaryOp>)) -> Epilogue {
        Epilogue::Fused { bias, activation }
    }

    fn quant((bias, activation): (bool, Option<UnaryOp>)) -> Epilogue {
        Epilogue::Quant { bias, activation }
    }

    /// All three conv programs against the oracle for one geometry.
    fn check_conv(info: &Conv2dInfo, seed: u64) {
        let c = info;
        let x = data(c.batch * c.in_height * c.in_width * c.in_channels, seed);
        let w_len = c.filter_height * c.filter_width * c.in_channels * c.out_channels;
        let (w, w_q) = (data(w_len, seed + 1), codes(w_len, seed + 2));
        let bias = data(c.out_channels, seed + 3);
        let (want, out) = (k::conv2d(&x, &w, c), c.out_shape());
        for ((has_bias, act), cg) in EPILOGUES.into_iter().flat_map(every_build) {
            let b = has_bias.then_some(bias.as_slice());
            let pl = conv2d(&WEBGPU, cg, c, None, false, fused((has_bias, act)), out.dims());
            assert_eq!(
                run(&pl, &[&x, &w, &bias]),
                bits(&epilogue(want.clone(), b, act)),
                "conv2d bias={has_bias} {act:?} {cg:?} {c:?}"
            );
            for p in params(3, c.out_channels, seed + 4) {
                let epi = quant((has_bias, act));
                let pl = conv2d(&WEBGPU, cg, c, Some(&p), false, epi, out.dims());
                assert_eq!(
                    run(&pl, &[&x, &widen(&w_q), &bias]),
                    bits(&k::fused_conv2d_quant(&x, &w_q, &p, b, act, c)),
                    "fused_conv2d_quant bias={has_bias} {act:?} {cg:?} {p:?} {c:?}"
                );
            }
        }
    }

    /// All three depthwise programs against the oracle for one geometry.
    fn check_depthwise(info: &Conv2dInfo, seed: u64) {
        let c = info;
        let x = data(c.batch * c.in_height * c.in_width * c.in_channels, seed);
        let w_len = c.filter_height * c.filter_width * c.out_channels;
        let (w, w_q) = (data(w_len, seed + 1), codes(w_len, seed + 2));
        let bias = data(c.out_channels, seed + 3);
        let (want, out) = (k::depthwise_conv2d(&x, &w, c), c.out_shape());
        let per_ic = params(2, c.in_channels, seed + 4);
        let [_, per_m] = params(3, c.channel_mul, seed + 6);
        for ((has_bias, act), cg) in EPILOGUES.into_iter().flat_map(every_build) {
            let b = has_bias.then_some(bias.as_slice());
            let epi = fused((has_bias, act));
            let pl = depthwise_conv2d(&WEBGPU, cg, c, None, false, epi, out.dims());
            assert_eq!(
                run(&pl, &[&x, &w, &bias]),
                bits(&epilogue(want.clone(), b, act)),
                "depthwise bias={has_bias} {act:?} {cg:?} {c:?}"
            );
            for p in per_ic.iter().chain([&per_m]) {
                let epi = quant((has_bias, act));
                let pl = depthwise_conv2d(&WEBGPU, cg, c, Some(p), false, epi, out.dims());
                assert_eq!(
                    run(&pl, &[&x, &widen(&w_q), &bias]),
                    bits(&k::fused_depthwise_conv2d_quant(&x, &w_q, p, b, act, c)),
                    "fused_depthwise_quant bias={has_bias} {act:?} {cg:?} {p:?} {c:?}"
                );
            }
        }
    }

    fn geometry(
        depthwise: bool,
        (batch, h, w, ic, last): (usize, usize, usize, usize, usize),
        (fh, fw): (usize, usize),
        stride: usize,
        pad: Padding,
        dilation: usize,
    ) -> Conv2dInfo {
        let make = if depthwise { depthwise_conv2d_info } else { conv2d_info };
        make(
            "test",
            &Shape::new(vec![batch, h, w, ic]),
            &Shape::new(vec![fh, fw, ic, last]),
            (stride, stride),
            pad,
            (dilation, dilation),
        )
        .expect("valid geometry")
    }

    /// Both matmul programs against the oracle for one geometry: the f32
    /// weight `[batch, ..]` (`b_len` permitting), the U8 one `b_len` long,
    /// so that a batch-1 code matrix broadcasts over the batch.
    fn check_matmul((batch, m, kdim, n): (usize, usize, usize, usize), b_len: usize, seed: u64) {
        let (a, b, b_q) =
            (data(batch * m * kdim, seed), data(b_len, seed + 1), codes(b_len, seed + 2));
        let bias = data(n, seed + 3);
        let b_batch = if b_len == kdim * n { 1 } else { batch };
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let (geom, out) = (
                MatMulGeom { batch, m, k: kdim, n, b_batch, transpose_a: ta, transpose_b: tb },
                [batch, m, n],
            );
            let want =
                (b_len == batch * kdim * n).then(|| k::matmul(&a, &b, batch, m, kdim, n, ta, tb));
            for (has_bias, act) in EPILOGUES {
                let bb = has_bias.then_some(bias.as_slice());
                let case = format!(
                    "{batch}x{m}x{kdim}x{n} ta={ta} tb={tb} b_len={b_len} bias={has_bias} {act:?}"
                );
                if let Some(want) = &want {
                    let pl = matmul(&WEBGPU, &geom, None, false, fused((has_bias, act)), &out);
                    assert_eq!(
                        run(&pl, &[&a, &b, &bias]),
                        bits(&epilogue(want.clone(), bb, act)),
                        "matmul {case}"
                    );
                }
                for p in params(if tb { 1 } else { 2 }, n, seed + 4) {
                    let pl = matmul(&WEBGPU, &geom, Some(&p), false, quant((has_bias, act)), &out);
                    let want =
                        k::fused_matmul_quant(&a, &b_q, &p, bb, act, batch, m, kdim, n, ta, tb);
                    assert_eq!(
                        run(&pl, &[&a, &widen(&b_q), &bias]),
                        bits(&want),
                        "quant {case} {p:?}"
                    );
                }
            }
        }
    }

    /// Every compute product program — conv, depthwise (multiplier 1 and 2) and matmul,
    /// over f32 weights and U8 codes, fused and plain — on every pool and
    /// every build of the conv and depthwise bodies, over
    /// channel counts inside, across and past a block of 16, 8 or 4, and
    /// padded, strided and dilated walks.
    #[test]
    fn own_pipelines_match_the_oracle_on_every_pool() {
        let mut seed = 100;
        for channels in [1, 3, 8, 17, 21, 35] {
            for (pad, stride, dilation) in
                [(Padding::Same, 1, 1), (Padding::Valid, 2, 1), (Padding::Same, 1, 2)]
            {
                seed += 10;
                let walk =
                    |depthwise, dims| geometry(depthwise, dims, (3, 3), stride, pad, dilation);
                check_conv(&walk(false, (2, 7, 6, 3, channels)), seed);
                check_depthwise(&walk(true, (2, 7, 6, channels, 1)), seed + 1);
                check_depthwise(&walk(true, (2, 7, 6, channels, 2)), seed + 2);
            }
            check_matmul((2, 5, 7, channels), 2 * 7 * channels, seed + 3);
        }
    }

    #[test]
    fn conv_family_matches_the_oracle_bit_for_bit() {
        let mut seed = 100;
        for pad in [Padding::Same, Padding::Valid] {
            for (stride, dilation) in [(1, 1), (2, 1), (1, 2)] {
                // Out-channel counts around the blocks of 16, 8 and 4: below
                // them, between them, exactly two blocks, two and a tail.
                for oc in [1, 3, 17, 32, 35] {
                    seed += 10;
                    let dims = (2, 7, 6, 3, oc);
                    check_conv(&geometry(false, dims, (3, 3), stride, pad, dilation), seed);
                }
            }
        }
        // Pointwise, a non-square filter, and an empty batch.
        check_conv(&geometry(false, (1, 4, 4, 5, 70), (1, 1), 1, Padding::Same, 1), 7);
        check_conv(&geometry(false, (1, 6, 5, 2, 4), (2, 3), 1, Padding::Same, 1), 8);
        check_conv(&geometry(false, (0, 5, 5, 3, 4), (3, 3), 1, Padding::Same, 1), 9);
    }

    #[test]
    fn depthwise_family_matches_the_oracle_bit_for_bit() {
        let mut seed = 500;
        for pad in [Padding::Same, Padding::Valid] {
            for (stride, dilation) in [(1, 1), (2, 1), (1, 2)] {
                for (ic, mul) in [(1, 1), (3, 1), (17, 1), (3, 2), (1, 3)] {
                    seed += 10;
                    let dims = (2, 7, 6, ic, mul);
                    check_depthwise(&geometry(true, dims, (3, 3), stride, pad, dilation), seed);
                }
            }
        }
        check_depthwise(&geometry(true, (0, 5, 5, 3, 1), (3, 3), 1, Padding::Same, 1), 9);
    }

    #[test]
    fn matmul_family_matches_the_oracle_bit_for_bit() {
        let shapes = [(1, 1, 1, 1), (1, 5, 7, 3), (2, 4, 19, 17), (2, 3, 0, 4), (0, 3, 4, 5)];
        for (seed, (batch, m, kdim, n)) in (900..).step_by(10).zip(shapes) {
            // A per-batch weight and a batch-1 weight broadcast over the batch.
            for b_len in [batch * kdim * n, kdim * n] {
                check_matmul((batch, m, kdim, n), b_len, seed + b_len as u64);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_geometries_match_the_oracle(
            batch in 1usize..3,
            h in 1usize..9,
            w in 1usize..9,
            ic in 1usize..6,
            fh in 1usize..4,
            fw in 1usize..4,
            oc in 1usize..40,
            mul in 1usize..4,
            stride in 1usize..3,
            dilation in 1usize..3,
            same in 0usize..2,
            seed in 0u64..1000,
        ) {
            let pad = if same == 1 { Padding::Same } else { Padding::Valid };
            let conv = geometry(false, (batch, h, w, ic, oc), (fh, fw), stride, pad, dilation);
            check_conv(&conv, seed);
            let dw = geometry(true, (batch, h, w, ic, mul), (fh, fw), stride, pad, dilation);
            check_depthwise(&dw, seed);
        }
    }
}
