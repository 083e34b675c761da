//! Compute-pipeline builders: the product families become compute
//! [`Kernel`]s whose `shared_reuse` declaration tells the device's occupancy
//! model how aggressively the kernel exploits workgroup shared memory.
//! [`kernel`] is the one match from a [`KernelCall`] to a pipeline.
//!
//! The matmul / conv families are declared as *cooperative tiled* kernels: a
//! 16×16 workgroup stages input tiles into shared memory once and every
//! invocation reads the staged values `TILE` times — the classic
//! shared-memory matmul that fragment shaders cannot express (no
//! cross-invocation communication) and the core perf claim of the
//! WebGPU-class backend. The device prices that cooperation from the
//! declared reuse; a body computes the values the workgroups would. Every
//! other call is the [`oracle`] adapter the WebGL rung uses too: one kernel
//! over the [`webml_core::kernels`] oracle, declared in that module's one
//! table, which runs once per dispatch and copies its result in.
//!
//! Body contract: a body fills one run of consecutive outputs from the whole
//! bound input buffers (`Fn(&[&[f32]], start, &mut [f32])`, see
//! [`webml_webgl_sim::shader::ComputeBody`]); the run holds whatever the
//! recycled buffer last held, so every element is stored. The forward
//! matmul / conv / depthwise families are this rung's own pipelines: the run
//! bodies of the WebGL rung's packed products
//! ([`webgl::conv2d_run`], [`webgl::depthwise_conv2d_run`],
//! [`webgl::matmul_run`]) over storage buffers, whose runs may start on any
//! output.
//!
//! Bit-exactness contract: the own pipelines change the loop *nest*, never
//! an output's summation order. Per output pixel (or row) the bodies resolve
//! the filter taps (or the A row) once and accumulate blocks of the pixel's
//! contiguous output channels, each output adding its products in the
//! oracle's `(fh, fw, ic)` (or ascending `p`) order into one accumulator
//! starting at 0. Quantised variants multiply by the widened u8 code read
//! from the storage buffer — the same f32 value the oracle gets from
//! `code as f32` — and keep `Σ x` in the oracle's order too. The epilogue
//! (`s·Σxq + m·Σx`, then `BinaryOp::Add` bias, then `UnaryOp::apply`)
//! goes through the scalar paths the CPU backend composes. Outputs are
//! therefore bit-identical to the CPU reference, not merely close; the unit
//! tests below compare every family with its [`webml_core::kernels`]
//! function on bits, on shader-core pools of 1, 2, 3 and 7 threads.
//!
//! Like a fragment program, a dispatch is split over the device's
//! shader-core pool, one run per thread (DESIGN.md §7 has what the split
//! costs and buys per dispatch).

use webml_backend_webgl::oracle;
use webml_backend_webgl::programs::{self as webgl, Finish};
use webml_core::backend::{Epilogue, KTensor, KernelCall, MatMulGeom};
use webml_core::codegen::Codegen;
use webml_core::conv_util::Conv2dInfo;
use webml_core::error::Result;
use webml_core::quant::QuantParams;
use webml_webgl_sim::shader::Kernel;
use webml_webgpu_sim::pipeline::cooperative;

/// Workgroup tile width of the cooperative matmul/conv kernels: each
/// workgroup is `TILE`×`TILE` invocations staging `TILE`-deep input tiles.
pub const TILE: usize = 16;

/// The compute pipeline for `call` over `operands` into `out` (see
/// `webml_backend_webgl::Rung::kernel`): the tiled products, or the
/// [`oracle`] adapter both rungs share for every other call.
pub fn kernel(call: &KernelCall<'_>, operands: &[KTensor<'_>], out: &[usize]) -> Result<Kernel> {
    use KernelCall as C;
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
            Some(params) => fused_conv2d_quant(Codegen::detect(), info, params, *epilogue, out),
            None => conv2d(Codegen::detect(), info, *epilogue, out),
        },
        C::DepthwiseConv2d { info, epilogue } => match operands[1].quant {
            Some(params) => {
                fused_depthwise_conv2d_quant(Codegen::detect(), info, params, *epilogue, out)
            }
            None => depthwise_conv2d(Codegen::detect(), info, *epilogue, out),
        },
        _ => return oracle::kernel(call, operands, out),
    })
}

/// A product pipeline over `out`: `run(x, w, finish, start, run_out)` over
/// the first two bound buffers — `finish` holding the U8 `affine` map when
/// the weights are codes, the bias (bound third) when `epilogue` has one,
/// and its activation. Its runs start on any output.
fn product(
    name: &'static str,
    out: &[usize],
    (reuse, cost): (usize, usize),
    (epilogue, affine): (Epilogue, Option<Vec<(f32, f32)>>),
    run: impl Fn(&[f32], &[f32], Finish<'_>, usize, &mut [f32]) + Send + Sync + 'static,
) -> Kernel {
    let (has_bias, activation) = (epilogue.bias(), epilogue.activation());
    cooperative(name, out.iter().product(), reuse, cost, 1, move |inp, start, out| {
        let finish = (affine.as_deref(), has_bias.then(|| inp[2]), activation);
        run(inp[0], inp[1], finish, start, out)
    })
}

/// Batched matmul as a cooperative tiled pipeline; a non-empty epilogue
/// (+bias +activation) makes it the fused pipeline, run in-register before
/// the single output write.
pub fn matmul(geom: &MatMulGeom, epilogue: Epilogue, out: &[usize]) -> Kernel {
    let name = if epilogue.is_plain() { "MatMulTiled" } else { "FusedMatMulTiled" };
    matmul_family(name, geom, (epilogue, None), out)
}

/// Dequant-free quantized fused matmul: the u8 weight codes are read,
/// widened, straight from the bound storage buffer, and `Σₚ aₚ` beside
/// them, as [`webml_core::kernels::fused_matmul_quant`] does.
pub fn fused_matmul_quant(
    geom: &MatMulGeom,
    params: &QuantParams,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let affine = (0..geom.n).map(|j| params.scale_min(j)).collect();
    matmul_family("FusedMatMulQuantTiled", geom, (epilogue, Some(affine)), out)
}

/// The matmul family (plain, fused, fused over U8 codes) as one cooperative
/// pipeline: `a` (binding 0) against `b` (binding 1).
fn matmul_family(
    name: &'static str,
    geom: &MatMulGeom,
    finish: (Epilogue, Option<Vec<(f32, f32)>>),
    out: &[usize],
) -> Kernel {
    let g = *geom;
    product(name, out, (TILE, 2 * g.k.max(1)), finish, move |a, b, finish, start, out| {
        webgl::matmul_run(&g, a, b, finish, start, out)
    })
}

/// Conv2d as a cooperative pipeline: the workgroup stages the filter tile
/// and an input patch in shared memory (reuse ≈ `TILE`). A non-empty
/// epilogue makes it the fused pipeline: in-register `+bias` / activation,
/// applied through the same scalar ops the unfused composition uses.
pub fn conv2d(codegen: Codegen, info: &Conv2dInfo, epilogue: Epilogue, out: &[usize]) -> Kernel {
    let name = if epilogue.is_plain() { "Conv2DTiled" } else { "FusedConv2DTiled" };
    conv_family(codegen, name, info, (epilogue, None), out)
}

/// Dequant-free quantized fused conv2d: the filter binding holds widened u8
/// codes; per-channel `params` index the HWIO output-channel axis.
pub fn fused_conv2d_quant(
    codegen: Codegen,
    info: &Conv2dInfo,
    params: &QuantParams,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let affine = (0..info.out_channels).map(|oc| params.scale_min(oc)).collect();
    conv_family(codegen, "FusedConv2DQuantTiled", info, (epilogue, Some(affine)), out)
}

/// The conv2d family (plain, fused, fused over U8 codes) as one cooperative
/// pipeline: NHWC `x` (binding 0) against an HWIO filter (binding 1).
fn conv_family(
    codegen: Codegen,
    name: &'static str,
    info: &Conv2dInfo,
    finish: (Epilogue, Option<Vec<(f32, f32)>>),
    out: &[usize],
) -> Kernel {
    let c = info.clone();
    let cost = 2 * c.filter_height * c.filter_width * c.in_channels;
    product(name, out, (TILE, cost), finish, move |x, w, finish, start, out| {
        webgl::conv2d_run(codegen, &c, x, w, finish, start, out)
    })
}

/// Depthwise conv2d; fused with a non-empty epilogue.
pub fn depthwise_conv2d(
    codegen: Codegen,
    info: &Conv2dInfo,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let name =
        if epilogue.is_plain() { "DepthwiseConv2DTiled" } else { "FusedDepthwiseConv2DTiled" };
    depthwise_family(codegen, name, info, (epilogue, None), out)
}

/// Dequant-free quantized fused depthwise conv2d. Per-channel `params` run
/// along filter axis 2 (`ic`) or 3 (`m`); either is constant over an
/// output's accumulation.
pub fn fused_depthwise_conv2d_quant(
    codegen: Codegen,
    info: &Conv2dInfo,
    params: &QuantParams,
    epilogue: Epilogue,
    out: &[usize],
) -> Kernel {
    let finish = (epilogue, Some(webgl::depthwise_affine(params, info)));
    depthwise_family(codegen, "FusedDepthwiseConv2DQuantTiled", info, finish, out)
}

/// The depthwise family as one cooperative pipeline; the filter is
/// `[fh, fw, in_c, channel_mul]` and output channel `ic·mul + m` reads input
/// channel `ic` only, so the shared-memory win is the filter tile (reuse 8,
/// not `TILE`).
fn depthwise_family(
    codegen: Codegen,
    name: &'static str,
    info: &Conv2dInfo,
    finish: (Epilogue, Option<Vec<(f32, f32)>>),
    out: &[usize],
) -> Kernel {
    let c = info.clone();
    let cost = 2 * c.filter_height * c.filter_width;
    product(name, out, (8, cost), finish, move |x, w, finish, start, out| {
        webgl::depthwise_conv2d_run(codegen, &c, x, w, finish, start, out)
    })
}

/// Differential tests: each own kernel against its `webml_core::kernels`
/// oracle, on bits, however the shader-core pool cuts the output into runs.
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

    /// All three conv pipelines against the oracle for one geometry.
    fn check_conv(info: &Conv2dInfo, seed: u64) {
        let c = info;
        let x = data(c.batch * c.in_height * c.in_width * c.in_channels, seed);
        let w_len = c.filter_height * c.filter_width * c.in_channels * c.out_channels;
        let (w, w_q) = (data(w_len, seed + 1), codes(w_len, seed + 2));
        let bias = data(c.out_channels, seed + 3);
        let (want, out) = (k::conv2d(&x, &w, c), c.out_shape());
        for ((has_bias, act), cg) in EPILOGUES.into_iter().flat_map(every_build) {
            let b = has_bias.then_some(bias.as_slice());
            assert_eq!(
                run(&conv2d(cg, c, fused((has_bias, act)), out.dims()), &[&x, &w, &bias]),
                bits(&epilogue(want.clone(), b, act)),
                "conv2d bias={has_bias} {act:?} {cg:?} {c:?}"
            );
            for p in params(3, c.out_channels, seed + 4) {
                let pl = fused_conv2d_quant(cg, c, &p, quant((has_bias, act)), out.dims());
                assert_eq!(
                    run(&pl, &[&x, &widen(&w_q), &bias]),
                    bits(&k::fused_conv2d_quant(&x, &w_q, &p, b, act, c)),
                    "fused_conv2d_quant bias={has_bias} {act:?} {cg:?} {p:?} {c:?}"
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
        for ((has_bias, act), cg) in EPILOGUES.into_iter().flat_map(every_build) {
            let b = has_bias.then_some(bias.as_slice());
            let pl = depthwise_conv2d(cg, c, fused((has_bias, act)), out.dims());
            assert_eq!(
                run(&pl, &[&x, &w, &bias]),
                bits(&epilogue(want.clone(), b, act)),
                "depthwise bias={has_bias} {act:?} {cg:?} {c:?}"
            );
            for p in per_ic.iter().chain([&per_m]) {
                let pl = fused_depthwise_conv2d_quant(cg, c, p, quant((has_bias, act)), out.dims());
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

    /// Both matmul pipelines against the oracle for one geometry: the f32
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
                    let pl = matmul(&geom, fused((has_bias, act)), &out);
                    assert_eq!(
                        run(&pl, &[&a, &b, &bias]),
                        bits(&epilogue(want.clone(), bb, act)),
                        "matmul {case}"
                    );
                }
                for p in params(if tb { 1 } else { 2 }, n, seed + 4) {
                    let pl = fused_matmul_quant(&geom, &p, quant((has_bias, act)), &out);
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

    /// Every own pipeline — conv, depthwise (multiplier 1 and 2) and matmul,
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
