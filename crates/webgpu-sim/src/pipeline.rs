//! Compute pipelines: the kernel constructors of the compute API.
//!
//! A fragment shader runs one isolated `main()` per output texel — no
//! shared memory, no scatter. A compute pipeline dispatches *workgroups*
//! whose invocations cooperate: they stage input tiles into workgroup
//! shared memory once and then each invocation reads the staged values
//! many times. The simulator captures that difference in one number,
//! [`Kernel::shared_reuse`]: how many invocations each shared-memory load
//! serves. An uncooperative (elementwise) kernel has reuse 1; a 16×16-tiled
//! matmul has reuse 16 (each staged `a` and `b` value feeds a whole tile
//! row/column). A device with shared memory multiplies effective occupancy
//! by this factor, so tiling is rewarded exactly where real hardware
//! rewards it — memory bandwidth.
//!
//! A body computes a run of consecutive outputs from the (widened-f32)
//! contents of the bound input buffers, and runs on the device's shader
//! cores like a fragment body (see [`webml_webgl_sim::shader::execute`]).

use std::sync::Arc;
use webml_webgl_sim::shader::{Kernel, KernelBody};

/// A pipeline of `out_len` outputs whose workgroups serve each
/// shared-memory load to `shared_reuse` invocations; an uncooperative
/// (element-wise) pipeline, the compute-API equivalent of a fragment shader,
/// has reuse 1. `body(buffers, start, out)` computes the outputs from
/// `start` (see [`webml_webgl_sim::shader::ComputeBody`]); its runs start on
/// multiples of `grain`, and a `grain` of `out_len` runs it once, whole.
pub fn cooperative(
    name: &'static str,
    out_len: usize,
    shared_reuse: usize,
    cost_per_element: usize,
    grain: usize,
    body: impl Fn(&[&[f32]], usize, &mut [f32]) + Send + Sync + 'static,
) -> Kernel {
    Kernel {
        name,
        out_shape: vec![out_len],
        body: KernelBody::Compute { run: Arc::new(body), grain },
        cost_per_element: cost_per_element.max(1),
        shared_reuse: shared_reuse.max(1),
    }
}
