//! Compute-pipeline builders: each kernel family becomes a compute
//! [`Kernel`] whose body runs on the simulated device thread and whose
//! `shared_reuse` declaration tells the device's occupancy model how
//! aggressively the kernel exploits workgroup shared memory. The builders
//! are WebGPU's [`KernelSet`]: [`KERNELS`] lists them.
//!
//! The matmul / conv families are written as *cooperative tiled* kernels: a
//! 16×16 workgroup stages input tiles into shared-memory arrays once and
//! every invocation reads the staged values `TILE` times — the classic
//! shared-memory matmul that fragment shaders cannot express (no
//! cross-invocation communication) and the core perf claim of the
//! WebGPU-class backend. Movement and elementwise kernels stay
//! uncooperative (`reuse 1`): they are bandwidth-bound either way.
//!
//! Body contract: a body reads the bound input buffers and writes the bound
//! output buffer **in place** (`Fn(&[&[f32]], &mut [f32])`). The slice is
//! exactly `out_len` long and holds whatever the recycled buffer last held,
//! so every element is stored. The forward matmul / conv / depthwise
//! families are this rung's own kernels and accumulate straight into it;
//! every other call is one adapter over the [`webml_core::kernels`] oracle
//! that copies its result in. [`kernel`] is the one match from a
//! [`KernelCall`] to either.
//!
//! Bit-exactness contract: the own kernels change the loop *nest*, never an
//! output's summation order. Per output pixel the conv and depthwise bodies
//! run the filter taps outermost and the pixel's contiguous output channels
//! innermost, so each output still adds its products in the oracle's
//! `(fh, fw, ic)` order into one accumulator starting at 0 (the tiled matmul
//! likewise keeps ascending `p`). Quantised variants multiply by the widened
//! u8 code read from the storage buffer — the same f32 value the oracle gets
//! from `code as f32` — and keep `Σ x` in the oracle's order too. The
//! epilogue (`s·Σxq + m·Σx`, then [`BinaryOp::Add`] bias, then
//! [`UnaryOp::apply`]) goes through the scalar paths the CPU backend
//! composes. Outputs are therefore bit-identical to the CPU reference, not
//! merely close; the unit tests below compare every family with its
//! [`webml_core::kernels`] function on bits.
//!
//! Dispatches run serially on the device thread and do not use
//! `webml_core::pool::WorkerPool`: on the 2-vCPU benchmark host the
//! prototype behind this design measured a 2-way split of these kernels
//! slower end to end than the serial bodies (`infer_webgpu_u8` `op_p50_ms`
//! 5.99 against 5.56 ms), because the thread submitting and reading back
//! needs the second core (DESIGN.md §7).

use webml_core::backend::{BinaryOp, Epilogue, KTensor, KernelCall, MatMulGeom, UnaryOp};
use webml_core::conv_util::Conv2dInfo;
use webml_core::dtype::TensorData;
use webml_core::error::Result;
use webml_core::kernels::{self as k, Operand, Values};
use webml_core::quant::QuantParams;
use webml_core::shape::Shape;
use webml_webgl_sim::shader::Kernel;
use webml_webgpu_sim::pipeline::cooperative;

/// Workgroup tile width of the cooperative matmul/conv kernels: each
/// workgroup is `TILE`×`TILE` invocations staging `TILE`-deep input tiles.
pub const TILE: usize = 16;

/// The compute pipeline for `call` over `operands` into `out` (see
/// `webml_backend_webgl::Rung::kernel`): the tiled products, or the oracle
/// under each kernel's program name with its declared reuse and per-output
/// cost — workgroup reductions stage partials in shared memory (reuse 4),
/// the gradients stage the filter tile (8), movement and element-wise
/// kernels are bandwidth-bound either way (1).
pub fn kernel(call: &KernelCall<'_>, operands: &[KTensor<'_>], out: &[usize]) -> Result<Kernel> {
    use KernelCall as C;
    let oracle = |name, reuse, cost: usize| oracle(name, call, operands, out, reuse, cost.max(1));
    // A gradient output's multiply-adds: over the filter taps, or the output pixels.
    let taps = |c: &Conv2dInfo| 2 * c.filter_height * c.filter_width;
    let spatial = |c: &Conv2dInfo| 2 * c.batch * c.out_height * c.out_width;
    Ok(match call {
        C::MatMul { transpose_a, transpose_b, epilogue } => {
            let (a, b) = (operands[0].shape, operands[1].shape);
            let geom = MatMulGeom::of(a, b, *transpose_a, *transpose_b);
            match operands[1].quant {
                Some(params) => fused_matmul_quant(&geom, params, *epilogue, out),
                None => matmul(&geom, *epilogue, out),
            }
        }
        C::Conv2d { info, epilogue } => match operands[1].quant {
            Some(params) => fused_conv2d_quant(info, params, *epilogue, out),
            None => conv2d(info, *epilogue, out),
        },
        C::DepthwiseConv2d { info, epilogue } => match operands[1].quant {
            Some(params) => fused_depthwise_conv2d_quant(info, params, *epilogue, out),
            None => depthwise_conv2d(info, *epilogue, out),
        },
        C::Unary(_) => oracle("Unary", 1, 1),
        C::Binary(_) => oracle("Binary", 1, 1),
        C::Cast(_) => oracle("Cast", 1, 1),
        C::Reduce { axes, .. } => {
            oracle("Reduce", 4, axes.iter().map(|&ax| operands[0].shape.dim(ax)).product())
        }
        C::ArgReduce { axis, .. } => oracle("ArgReduce", 4, operands[0].shape.dim(*axis)),
        C::Conv2dBackpropInput(c) => oracle("Conv2DBackpropInput", 8, taps(c) * c.out_channels),
        C::Conv2dBackpropFilter(c) => oracle("Conv2DBackpropFilter", 8, spatial(c)),
        C::DepthwiseConv2dBackpropInput(c) => {
            oracle("DepthwiseBackpropInput", 8, taps(c) * c.channel_mul)
        }
        C::DepthwiseConv2dBackpropFilter(c) => oracle("DepthwiseBackpropFilter", 8, spatial(c)),
        C::Pool2d { info: c, .. } => oracle("Pool2D", 1, c.filter_height * c.filter_width),
        C::Pool2dBackprop { info: c, .. } => {
            oracle("Pool2DBackprop", 1, c.filter_height * c.filter_width)
        }
        C::Slice { .. } => oracle("Slice", 1, 1),
        C::Concat { .. } => oracle("Concat", 1, 1),
        C::Transpose { .. } => oracle("Transpose", 1, 1),
        C::Pad { .. } => oracle("Pad", 1, 1),
        C::Gather { .. } => oracle("Gather", 1, 1),
        C::Tile { .. } => oracle("Tile", 1, 1),
        C::Reverse { .. } => oracle("Reverse", 1, 1),
        C::Select => oracle("Select", 1, 1),
        C::OneHot { .. } => oracle("OneHot", 1, 1),
        C::ResizeBilinear { .. } => oracle("ResizeBilinear", 1, 4),
        C::FusedElementwise(steps) => oracle("FusedElementwise", 1, steps.len()),
    })
}

/// The cooperative tiled matmul body shared by the plain, fused and
/// quantized-epilogue matmul pipelines. A `TILE`×`TILE` workgroup computes
/// one output tile: for each `TILE`-deep slab of the inner dimension the
/// workgroup stages `a_tile` and `b_tile` into shared memory (transpose
/// resolved at load time), then every invocation accumulates its dot
/// product from the staged values — each staged element is read `TILE`
/// times, which is exactly the `shared_reuse` the pipeline declares.
///
/// Accumulation visits `p` in ascending order with a single register
/// accumulator per output, so the result is bit-identical to the reference
/// [`webml_core::kernels::matmul`] loop.
fn tiled_matmul(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    activation: Option<UnaryOp>,
    &MatMulGeom { batch, m, k: kdim, n, transpose_a, transpose_b, .. }: &MatMulGeom,
    out: &mut [f32],
) {
    for bi in 0..batch {
        let a_off = bi * m * kdim;
        let b_off = bi * kdim * n;
        let o_off = bi * m * n;
        for i0 in (0..m).step_by(TILE) {
            let rows = TILE.min(m - i0);
            for j0 in (0..n).step_by(TILE) {
                let cols = TILE.min(n - j0);
                // Per-invocation register accumulators for this workgroup.
                let mut acc = [[0.0f32; TILE]; TILE];
                // Workgroup shared memory.
                let mut a_tile = [[0.0f32; TILE]; TILE];
                let mut b_tile = [[0.0f32; TILE]; TILE];
                for p0 in (0..kdim).step_by(TILE) {
                    let depth = TILE.min(kdim - p0);
                    // Stage: each invocation loads one a and one b element.
                    for (ti, row) in a_tile.iter_mut().enumerate().take(rows) {
                        for (tp, slot) in row.iter_mut().enumerate().take(depth) {
                            let (i, p) = (i0 + ti, p0 + tp);
                            *slot = if transpose_a {
                                a[a_off + p * m + i]
                            } else {
                                a[a_off + i * kdim + p]
                            };
                        }
                    }
                    for (tp, row) in b_tile.iter_mut().enumerate().take(depth) {
                        for (tj, slot) in row.iter_mut().enumerate().take(cols) {
                            let (p, j) = (p0 + tp, j0 + tj);
                            *slot = if transpose_b {
                                b[b_off + j * kdim + p]
                            } else {
                                b[b_off + p * n + j]
                            };
                        }
                    }
                    // workgroupBarrier(); accumulate from shared memory.
                    for (ti, arow) in a_tile.iter().enumerate().take(rows) {
                        for tj in 0..cols {
                            let mut s = acc[ti][tj];
                            for (tp, &av) in arow.iter().enumerate().take(depth) {
                                s += av * b_tile[tp][tj];
                            }
                            acc[ti][tj] = s;
                        }
                    }
                }
                // Fused epilogue, in-register: + bias, then activation —
                // the same scalar ops the unfused composition applies.
                for (ti, arow) in acc.iter().enumerate().take(rows) {
                    for (tj, &s) in arow.iter().enumerate().take(cols) {
                        let mut v = s;
                        if let Some(bias) = bias {
                            v = BinaryOp::Add.apply(v, bias[j0 + tj]);
                        }
                        if let Some(act) = activation {
                            v = act.apply(v);
                        }
                        out[o_off + (i0 + ti) * n + j0 + tj] = v;
                    }
                }
            }
        }
    }
}

/// Batched matmul as a cooperative tiled pipeline; a non-empty epilogue
/// (+bias +activation) makes it the fused pipeline, run in-register before
/// the single output write.
pub fn matmul(geom: &MatMulGeom, epilogue: Epilogue, out: &[usize]) -> Kernel {
    let name = if epilogue.is_plain() { "MatMulTiled" } else { "FusedMatMulTiled" };
    let (has_bias, activation, g) = (epilogue.bias(), epilogue.activation(), *geom);
    cooperative(name, out.iter().product(), TILE, 2 * g.k.max(1), move |inp, out| {
        tiled_matmul(inp[0], inp[1], has_bias.then(|| inp[2]), activation, &g, out)
    })
}

/// What a fused kernel does to one finished accumulator row before moving
/// on: the affine map of the factored U8 form, then bias, then activation —
/// the scalar ops, in the order, of the [`webml_core::kernels`] epilogues.
struct RowEpilogue {
    /// `(scale, min)` per output channel when the weight operand is U8
    /// codes; `None` for f32 weights.
    affine: Option<Vec<(f32, f32)>>,
    has_bias: bool,
    activation: Option<UnaryOp>,
}

impl RowEpilogue {
    /// `epilogue`, with the affine map of U8 weights when `affine` holds one
    /// `(scale, min)` pair per output channel.
    fn new(epilogue: Epilogue, affine: Option<Vec<(f32, f32)>>) -> RowEpilogue {
        RowEpilogue { affine, has_bias: epilogue.bias(), activation: epilogue.activation() }
    }

    /// The bias buffer, bound third when the kernel has one.
    fn bias<'a>(&self, inp: &[&'a [f32]]) -> Option<&'a [f32]> {
        self.has_bias.then(|| inp[2])
    }

    /// Finish `row` in place. With U8 weights the row holds `Σ x·q` and
    /// becomes `s·Σxq + m·Σx`, `sum_x(oc)` being the `Σ x` over the taps of
    /// output channel `oc` (one value per row for conv and matmul, one per
    /// input channel for depthwise).
    fn finish(&self, row: &mut [f32], sum_x: impl Fn(usize) -> f32, bias: Option<&[f32]>) {
        if let Some(affine) = &self.affine {
            for (oc, (v, &(s, mn))) in row.iter_mut().zip(affine).enumerate() {
                *v = s * *v + mn * sum_x(oc);
            }
        }
        if let Some(bias) = bias {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = BinaryOp::Add.apply(*v, b);
            }
        }
        if let Some(act) = self.activation {
            for v in row.iter_mut() {
                *v = act.apply(*v);
            }
        }
    }
}

/// `out` as consecutive accumulator rows of `width` elements, numbered.
/// A zero `width` means `out` is empty, and so is the iteration.
fn rows(out: &mut [f32], width: usize) -> impl Iterator<Item = (usize, &mut [f32])> {
    out.chunks_exact_mut(width.max(1)).enumerate()
}

/// Dequant-free quantized fused matmul: the u8 weight codes are read,
/// widened, straight from the bound storage buffer. One output row at a
/// time: `p` outermost, the row's `n` accumulators innermost, `Σₚ aₚ` on
/// the side, then the row epilogue — every output still adds its products
/// in ascending `p` with one accumulator, as
/// [`webml_core::kernels::fused_matmul_quant`] does.
pub fn fused_matmul_quant(
    &MatMulGeom { m, k: kdim, n, b_batch, transpose_a, transpose_b, .. }: &MatMulGeom,
    params: &QuantParams,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let ep = RowEpilogue::new(epilogue, Some((0..n).map(|j| params.scale_min(j)).collect()));
    cooperative(
        "FusedMatMulQuantTiled",
        out.iter().product(),
        TILE,
        2 * kdim.max(1),
        move |inp, out| {
            let (a, b_q, bias) = (inp[0], inp[1], ep.bias(inp));
            for (r, row) in rows(out, n) {
                let (bi, i) = (r / m, r % m);
                let a_off = bi * m * kdim;
                // A batch-1 weight broadcasts across the batch.
                let b_off = if b_batch == 1 { 0 } else { bi * kdim * n };
                row.fill(0.0);
                let mut sum_a = 0.0f32;
                for p in 0..kdim {
                    let av =
                        if transpose_a { a[a_off + p * m + i] } else { a[a_off + i * kdim + p] };
                    sum_a += av;
                    if transpose_b {
                        for (j, acc) in row.iter_mut().enumerate() {
                            *acc += av * b_q[b_off + j * kdim + p];
                        }
                    } else {
                        for (acc, &q) in row.iter_mut().zip(&b_q[b_off + p * n..][..n]) {
                            *acc += av * q;
                        }
                    }
                }
                ep.finish(row, |_| sum_a, bias);
            }
        },
    )
}

/// Visit the in-bounds filter taps of output pixel `(b, oh, ow)` in the
/// oracle's `(fh, fw)` order: `tap(input pixel index, filter tap index)`.
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

/// Output pixel `p` (row-major over batch, height, width) as `(b, oh, ow)`.
fn pixel_coords(c: &Conv2dInfo, p: usize) -> (usize, usize, usize) {
    (p / (c.out_height * c.out_width), p / c.out_width % c.out_height, p % c.out_width)
}

/// Output channels the conv kernel accumulates at a time. A full block's
/// accumulators sit in a stack array — registers — across all of the
/// pixel's taps instead of being loaded from and stored to the output row
/// once per input value. Eight SSE registers' worth; measured on the
/// benchmark's `infer_webgpu_u8` (EXPERIMENTS.md, PR 15).
const OC_BLOCK: usize = 32;

/// Add output pixel `at`'s products into `acc`, the accumulators of output
/// channels `oc0 .. oc0 + len`: taps outermost, channels innermost. Generic
/// so that a by-value `[f32; OC_BLOCK]` keeps its compile-time length.
#[inline(always)]
fn conv_accumulate<A: AsMut<[f32]>>(
    mut acc: A,
    oc0: usize,
    x: &[f32],
    w: &[f32],
    c: &Conv2dInfo,
    at: (usize, usize, usize),
) -> A {
    let (icn, ocn) = (c.in_channels, c.out_channels);
    for_each_tap(c, at, |px, t| {
        let xs = &x[px * icn..][..icn];
        let ws = &w[t * icn * ocn..][..icn * ocn];
        for (&xv, w_row) in xs.iter().zip(ws.chunks_exact(ocn)) {
            let acc = acc.as_mut();
            let w_blk = &w_row[oc0..][..acc.len()];
            for (a, &wv) in acc.iter_mut().zip(w_blk) {
                *a += xv * wv;
            }
        }
    });
    acc
}

/// The conv2d family (plain, fused, fused over U8 codes) as one cooperative
/// pipeline: NHWC `x` (binding 0) against an HWIO filter (binding 1), whose
/// values are f32 weights or widened codes depending on `ep`. Per output
/// pixel and block of output channels the taps run outermost and the
/// channels innermost, so a filter row streams once per input value instead
/// of once per output; each output still adds its products in the oracle's
/// `(fh, fw, ic)` order into one accumulator. `Σ x` over the same taps, in
/// the same order, feeds the factored U8 epilogue.
fn conv_pipeline(
    name: &'static str,
    info: &Conv2dInfo,
    ep: RowEpilogue,
    out: &[usize],
) -> Kernel {
    let info = info.clone();
    let (icn, ocn) = (info.in_channels, info.out_channels);
    let cost = 2 * info.filter_height * info.filter_width * icn;
    cooperative(name, out.iter().product(), TILE, cost.max(1), move |inp, out| {
        let (x, w, bias) = (inp[0], inp[1], ep.bias(inp));
        for (p, row) in rows(out, ocn) {
            let at = pixel_coords(&info, p);
            for (blk, accs) in row.chunks_mut(OC_BLOCK).enumerate() {
                let oc0 = blk * OC_BLOCK;
                if let Ok(accs) = <&mut [f32; OC_BLOCK]>::try_from(&mut *accs) {
                    *accs = conv_accumulate([0.0f32; OC_BLOCK], oc0, x, w, &info, at);
                } else {
                    accs.fill(0.0);
                    conv_accumulate(accs, oc0, x, w, &info, at);
                }
            }
            let mut sum_x = 0.0f32;
            if ep.affine.is_some() {
                for_each_tap(&info, at, |px, _| {
                    for &xv in &x[px * icn..][..icn] {
                        sum_x += xv;
                    }
                });
            }
            ep.finish(row, |_| sum_x, bias);
        }
    })
}

/// Conv2d as a cooperative pipeline: the workgroup stages the filter tile
/// and an input patch in shared memory (reuse ≈ `TILE`). A non-empty
/// epilogue makes it the fused pipeline: in-register `+bias` / activation,
/// applied through the same scalar ops the unfused composition uses.
pub fn conv2d(info: &Conv2dInfo, epilogue: Epilogue, out: &[usize]) -> Kernel {
    let name = if epilogue.is_plain() { "Conv2DTiled" } else { "FusedConv2DTiled" };
    conv_pipeline(name, info, RowEpilogue::new(epilogue, None), out)
}

/// Dequant-free quantized fused conv2d: the filter binding holds widened u8
/// codes; per-channel `params` index the HWIO output-channel axis.
pub fn fused_conv2d_quant(
    info: &Conv2dInfo,
    params: &QuantParams,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let affine = (0..info.out_channels).map(|oc| params.scale_min(oc)).collect();
    conv_pipeline("FusedConv2DQuantTiled", info, RowEpilogue::new(epilogue, Some(affine)), out)
}

/// The depthwise family as one cooperative pipeline; the filter is
/// `[fh, fw, in_c, channel_mul]` and output channel `ic·mul + m` reads input
/// channel `ic` only, so the shared-memory win is the filter tile (reuse 8,
/// not `TILE`). Same nest as [`conv_pipeline`]: taps outermost, the pixel's
/// accumulator row innermost, each input channel's `Σ x` beside it when
/// `ep` is the factored U8 form; each output adds its taps in `(fh, fw)`
/// order. The row is not blocked as conv's is: there is no filter row to
/// reuse and the tap walk would be paid per block (measured slower).
fn depthwise_pipeline(
    name: &'static str,
    info: &Conv2dInfo,
    ep: RowEpilogue,
    out: &[usize],
) -> Kernel {
    let info = info.clone();
    let (icn, mul, ocn) = (info.in_channels, info.channel_mul, info.out_channels);
    let cost = 2 * info.filter_height * info.filter_width;
    cooperative(name, out.iter().product(), 8, cost.max(1), move |inp, out| {
        let (x, w, bias) = (inp[0], inp[1], ep.bias(inp));
        let quant = ep.affine.is_some();
        // Σ x per output channel (`channel_mul` copies of each input
        // channel's sum), kept only for the factored U8 epilogue.
        let mut sum_x = vec![0.0f32; if quant { ocn } else { 0 }];
        for (p, row) in rows(out, ocn) {
            let at = pixel_coords(&info, p);
            row.fill(0.0);
            sum_x.fill(0.0);
            for_each_tap(&info, at, |px, t| {
                let xs = &x[px * icn..][..icn];
                let ws = &w[t * ocn..][..ocn];
                if mul == 1 {
                    // MobileNet's case: one flat, vectorisable channel loop.
                    for ((acc, &xv), &wv) in row.iter_mut().zip(xs).zip(ws) {
                        *acc += xv * wv;
                    }
                    for (s, &xv) in sum_x.iter_mut().zip(xs) {
                        *s += xv;
                    }
                } else {
                    let per_ic = row.chunks_exact_mut(mul).zip(ws.chunks_exact(mul));
                    for ((accs, w_m), &xv) in per_ic.zip(xs) {
                        for (acc, &wv) in accs.iter_mut().zip(w_m) {
                            *acc += xv * wv;
                        }
                    }
                    for (ss, &xv) in sum_x.chunks_exact_mut(mul).zip(xs) {
                        ss.iter_mut().for_each(|s| *s += xv);
                    }
                }
            });
            ep.finish(row, |oc| sum_x[oc], bias);
        }
    })
}

/// Depthwise conv2d; fused with a non-empty epilogue.
pub fn depthwise_conv2d(info: &Conv2dInfo, epilogue: Epilogue, out: &[usize]) -> Kernel {
    let name =
        if epilogue.is_plain() { "DepthwiseConv2DTiled" } else { "FusedDepthwiseConv2DTiled" };
    depthwise_pipeline(name, info, RowEpilogue::new(epilogue, None), out)
}

/// Dequant-free quantized fused depthwise conv2d. Per-channel `params` run
/// along filter axis 2 (`ic`) or 3 (`m`); either is constant over an
/// output's accumulation.
pub fn fused_depthwise_conv2d_quant(
    info: &Conv2dInfo,
    params: &QuantParams,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let mul = info.channel_mul;
    let affine = (0..info.out_channels)
        .map(|oc| match params {
            QuantParams::PerChannel { axis: 2, .. } => params.scale_min(oc / mul),
            _ => params.scale_min(oc % mul),
        })
        .collect();
    let ep = RowEpilogue::new(epilogue, Some(affine));
    depthwise_pipeline("FusedDepthwiseConv2DQuantTiled", info, ep, out)
}

/// A pipeline whose body is the [`webml_core::kernels`] oracle for `call`,
/// run on the device thread over the bound buffers: every kernel but the
/// tiled products. `name`, `reuse` and `cost` are the program name the
/// fault plans and the compile cache key on and the occupancy model's
/// declarations; `reuse` 1 is an uncooperative pipeline.
fn oracle(
    name: &'static str,
    call: &KernelCall<'_>,
    operands: &[KTensor<'_>],
    out: &[usize],
    reuse: usize,
    cost: usize,
) -> Kernel {
    let call = call.clone().into_owned();
    let shapes: Vec<Shape> = operands.iter().map(|t| t.shape.clone()).collect();
    let out = Shape::new(out);
    cooperative(name, out.size(), reuse, cost, move |inp, dst| {
        let operands: Vec<Operand<'_>> = inp
            .iter()
            .zip(&shapes)
            .map(|(&v, shape)| Operand { values: Values::F32(v), shape, quant: None })
            .collect();
        match k::run(&call, &operands, &out) {
            TensorData::F32(v) => dst.copy_from_slice(&v),
            other => dst.copy_from_slice(&other.to_f32_vec()),
        }
    })
}

/// Differential tests: each own kernel against its `webml_core::kernels`
/// oracle, on bits.
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, Padding};
    use webml_webgl_sim::shader::KernelBody;

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

    /// Run a body the way the queue does: into a buffer holding stale values.
    fn run(pl: &Kernel, inputs: &[&[f32]]) -> Vec<u32> {
        let mut out = vec![f32::NAN; pl.out_size()];
        match &pl.body {
            KernelBody::Compute(body) => body(inputs, &mut out),
            KernelBody::Fragment(_) => panic!("{} is not a compute pipeline", pl.name),
        }
        bits(&out)
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

    /// The epilogue of an f32 kernel, and of a kernel over U8 codes.
    fn fused((bias, activation): (bool, Option<UnaryOp>)) -> Epilogue {
        Epilogue::Fused { bias, activation }
    }

    fn quant((bias, activation): (bool, Option<UnaryOp>)) -> Epilogue {
        Epilogue::Quant { bias, activation }
    }

    /// All three conv pipelines against the oracle for one geometry.
    fn check_conv(info: &Conv2dInfo, seed: u64) {
        let c = info;
        let x = data(c.batch * c.in_height * c.in_width * c.in_channels, seed);
        let w_len = c.filter_height * c.filter_width * c.in_channels * c.out_channels;
        let (w, w_q) = (data(w_len, seed + 1), codes(w_len, seed + 2));
        let bias = data(c.out_channels, seed + 3);
        let (want, out) = (k::conv2d(&x, &w, c), c.out_shape());
        for (has_bias, act) in EPILOGUES {
            let b = has_bias.then_some(bias.as_slice());
            assert_eq!(
                run(&conv2d(c, fused((has_bias, act)), out.dims()), &[&x, &w, &bias]),
                bits(&epilogue(want.clone(), b, act)),
                "conv2d bias={has_bias} {act:?} {c:?}"
            );
            for p in params(3, c.out_channels, seed + 4) {
                let pl = fused_conv2d_quant(c, &p, quant((has_bias, act)), out.dims());
                assert_eq!(
                    run(&pl, &[&x, &widen(&w_q), &bias]),
                    bits(&k::fused_conv2d_quant(&x, &w_q, &p, b, act, c)),
                    "fused_conv2d_quant bias={has_bias} {act:?} {p:?} {c:?}"
                );
            }
        }
    }

    /// All three depthwise pipelines against the oracle for one geometry.
    fn check_depthwise(info: &Conv2dInfo, seed: u64) {
        let c = info;
        let x = data(c.batch * c.in_height * c.in_width * c.in_channels, seed);
        let w_len = c.filter_height * c.filter_width * c.out_channels;
        let (w, w_q) = (data(w_len, seed + 1), codes(w_len, seed + 2));
        let bias = data(c.out_channels, seed + 3);
        let (want, out) = (k::depthwise_conv2d(&x, &w, c), c.out_shape());
        let per_ic = params(2, c.in_channels, seed + 4);
        let [_, per_m] = params(3, c.channel_mul, seed + 6);
        for (has_bias, act) in EPILOGUES {
            let b = has_bias.then_some(bias.as_slice());
            assert_eq!(
                run(&depthwise_conv2d(c, fused((has_bias, act)), out.dims()), &[&x, &w, &bias]),
                bits(&epilogue(want.clone(), b, act)),
                "depthwise bias={has_bias} {act:?} {c:?}"
            );
            for p in per_ic.iter().chain([&per_m]) {
                let pl = fused_depthwise_conv2d_quant(c, p, quant((has_bias, act)), out.dims());
                assert_eq!(
                    run(&pl, &[&x, &widen(&w_q), &bias]),
                    bits(&k::fused_depthwise_conv2d_quant(&x, &w_q, p, b, act, c)),
                    "fused_depthwise_quant bias={has_bias} {act:?} {p:?} {c:?}"
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

    #[test]
    fn conv_family_matches_the_oracle_bit_for_bit() {
        let mut seed = 100;
        for pad in [Padding::Same, Padding::Valid] {
            for (stride, dilation) in [(1, 1), (2, 1), (1, 2)] {
                // Out-channel counts around the block width: below it, not a
                // multiple of anything, exactly one block, a block plus a tail.
                for oc in [1, 3, 17, OC_BLOCK, OC_BLOCK + 3] {
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
    fn quant_matmul_matches_the_oracle_bit_for_bit() {
        let mut seed = 900;
        let shapes = [(1, 1, 1, 1), (1, 5, 7, 3), (2, 4, 19, 17), (2, 3, 0, 4), (0, 3, 4, 5)];
        for (batch, m, kdim, n) in shapes {
            for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                // A per-batch weight and a batch-1 weight broadcast over the batch.
                for b_len in [batch * kdim * n, kdim * n] {
                    seed += 10;
                    let (a, b_q) = (data(batch * m * kdim, seed), codes(b_len, seed + 1));
                    let bias = data(n, seed + 2);
                    for (has_bias, act) in EPILOGUES {
                        for p in params(if tb { 1 } else { 2 }, n, seed + 3) {
                            let b = has_bias.then_some(bias.as_slice());
                            let geom = MatMulGeom {
                                batch,
                                m,
                                k: kdim,
                                n,
                                b_batch: if b_len == kdim * n { 1 } else { batch },
                                transpose_a: ta,
                                transpose_b: tb,
                            };
                            let out = [batch, m, n];
                            let pl = fused_matmul_quant(&geom, &p, quant((has_bias, act)), &out);
                            let want = k::fused_matmul_quant(
                                &a, &b_q, &p, b, act, batch, m, kdim, n, ta, tb,
                            );
                            assert_eq!(
                                run(&pl, &[&a, &widen(&b_q), &bias]),
                                bits(&want),
                                "{batch}x{m}x{kdim}x{n} ta={ta} tb={tb} b_len={b_len} \
                                 bias={has_bias} {act:?} {p:?}"
                            );
                        }
                    }
                }
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
