//! The oracle adapter: every call a rung has no program of its own for runs
//! as one kernel whose body is [`webml_core::kernels::run`], the host
//! oracle's one match, over the bound inputs. Both GPU rungs hand it the
//! same calls — everything but the products and, on WebGL, `Unary` and
//! `Binary` — so each call has one declaration, its row in [`kernel`]'s
//! table, and one body on either storage. Its bits are the `cpu` backend's
//! by construction, with the f16 rounding of a half-precision device
//! applied per output after it, as after any body.
//!
//! The kernel is a compute body that declares its whole output as its
//! grain, so it runs once per dispatch, whole, on the device thread. It
//! reads each input at its logical length — a recycled texture's padding
//! holds whatever its last owner left — and stores its output under the
//! call's N-D output shape, so a texture device places it as it would a
//! fragment program's.

use std::sync::Arc;
use webml_core::backend::{KTensor, KernelCall};
use webml_core::conv_util::Conv2dInfo;
use webml_core::dtype::TensorData;
use webml_core::error::{Error, Result};
use webml_core::kernels::{self as k, Operand, Values};
use webml_core::shape::Shape;
use webml_webgl_sim::shader::{Kernel, KernelBody};

/// The oracle kernel for `call` over `operands` into `out` (see
/// [`crate::Rung::kernel`]), under its program name with its declared
/// shared-memory reuse and per-output cost: workgroup reductions stage
/// partials in shared memory (reuse 4), the gradients stage the filter tile
/// (8), movement and element-wise kernels are bandwidth-bound either way
/// (1). A rung without shared memory ignores the reuse.
///
/// # Errors
/// A product call (`MatMul`, `Conv2d`, `DepthwiseConv2d`): each rung runs
/// those on its own programs.
pub fn kernel(call: &KernelCall<'_>, operands: &[KTensor<'_>], out: &[usize]) -> Result<Kernel> {
    use KernelCall as C;
    let dim = |axis: usize| operands[0].shape.dim(axis);
    // A gradient output's multiply-adds: over the filter taps, or the output pixels.
    let taps = |c: &Conv2dInfo| 2 * c.filter_height * c.filter_width;
    let spatial = |c: &Conv2dInfo| 2 * c.batch * c.out_height * c.out_width;
    let (name, reuse, cost) = match call {
        C::Unary(_) => ("Unary", 1, 1),
        C::Binary(_) => ("Binary", 1, 1),
        C::Cast(_) => ("Cast", 1, 1),
        C::Reduce { axes, .. } => ("Reduce", 4, axes.iter().map(|&axis| dim(axis)).product()),
        C::ArgReduce { axis, .. } => ("ArgReduce", 4, dim(*axis)),
        C::Conv2dBackpropInput(c) => ("Conv2DBackpropInput", 8, taps(c) * c.out_channels),
        C::Conv2dBackpropFilter(c) => ("Conv2DBackpropFilter", 8, spatial(c)),
        C::DepthwiseConv2dBackpropInput(c) => {
            ("DepthwiseBackpropInput", 8, taps(c) * c.channel_mul)
        }
        C::DepthwiseConv2dBackpropFilter(c) => ("DepthwiseBackpropFilter", 8, spatial(c)),
        C::Pool2d { info: c, .. } => ("Pool2D", 1, c.filter_height * c.filter_width),
        C::Pool2dBackprop { info: c, .. } => {
            ("Pool2DBackprop", 1, c.filter_height * c.filter_width)
        }
        C::Slice { .. } => ("Slice", 1, 1),
        C::Concat { .. } => ("Concat", 1, 1),
        C::Transpose { .. } => ("Transpose", 1, 1),
        C::Pad { .. } => ("Pad", 1, 1),
        C::Gather { .. } => ("Gather", 1, 1),
        C::Tile { .. } => ("Tile", 1, 1),
        C::Reverse { .. } => ("Reverse", 1, 1),
        C::Select => ("Select", 1, 1),
        C::OneHot { .. } => ("OneHot", 1, 1),
        C::ResizeBilinear { .. } => ("ResizeBilinear", 1, 4),
        C::FusedElementwise(steps) => ("FusedElementwise", 1, steps.len()),
        C::MatMul { .. } | C::Conv2d { .. } | C::DepthwiseConv2d { .. } => {
            return Err(Error::invalid(call.name(), "a product runs on its rung's own program"));
        }
    };
    let call = call.clone().into_owned();
    let shapes: Vec<Shape> = operands.iter().map(|t| t.shape.clone()).collect();
    let (out_shape, out) = (out.to_vec(), Shape::new(out));
    let size = out.size();
    let run = move |inp: &[&[f32]], start: usize, dst: &mut [f32]| {
        let operands: Vec<Operand<'_>> = inp
            .iter()
            .zip(&shapes)
            .map(|(&v, shape)| Operand {
                values: Values::F32(&v[..shape.size()]),
                shape,
                quant: None,
            })
            .collect();
        let values = match k::run(&call, &operands, &out) {
            TensorData::F32(v) => v,
            other => other.to_f32_vec(),
        };
        dst.copy_from_slice(&values[start..][..dst.len()]);
    };
    Ok(Kernel {
        name,
        out_shape,
        body: KernelBody::Compute { run: Arc::new(run), grain: size },
        cost_per_element: cost.max(1),
        shared_reuse: reuse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use webml_core::backend::{DataId, ReduceOp};
    use webml_core::pool::WorkerPool;
    use webml_core::DType;
    use webml_webgl_sim::shader::execute;

    /// The adapter computes its output whole, so however many cores the
    /// device has, its body is called once per dispatch; and it reads each
    /// input at its logical length, whatever a recycled texture's padding
    /// past it holds.
    #[test]
    fn the_oracle_adapter_runs_once_per_dispatch_over_logical_inputs() {
        let x_shape = Shape::new(vec![3, 7, 11]);
        let x: Vec<f32> = (0..3 * 7 * 11).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut padded = x.clone();
        padded.extend([f32::NAN; 5]);
        let operand = KTensor::new(DataId(0), &x_shape, DType::F32);
        let call = KernelCall::Reduce { op: ReduceOp::Sum, axes: vec![1, 2].into() };
        let kernel = super::kernel(&call, &[operand], &[3]).unwrap();
        assert_eq!((kernel.name, kernel.out_shape.as_slice()), ("Reduce", &[3][..]));
        let KernelBody::Compute { run: body, grain } = kernel.body.clone() else {
            panic!("a compute body")
        };
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = calls.clone();
        let body = KernelBody::Compute {
            run: Arc::new(move |inp: &[&[f32]], start: usize, out: &mut [f32]| {
                counted.fetch_add(1, Ordering::Relaxed);
                body(inp, start, out)
            }),
            grain,
        };
        let counting = Kernel { body, ..kernel };
        let want: Vec<u32> = x.chunks(77).map(|c| c.iter().sum::<f32>().to_bits()).collect();
        for cores in [1, 2, 3, 7] {
            let pool = WorkerPool::new(cores);
            calls.store(0, Ordering::Relaxed);
            let mut out = [f32::NAN; 3];
            execute(&counting, &[&padded], &[], &mut out, &pool, pool.size(), false);
            assert_eq!(calls.load(Ordering::Relaxed), 1, "{cores} cores");
            assert_eq!(out.map(f32::to_bits).to_vec(), want, "{cores} cores");
        }
    }
}
