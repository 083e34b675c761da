//! Compute pipelines: the kernel abstraction of the compute API.
//!
//! A fragment shader runs one isolated `main()` per output texel — no
//! shared memory, no scatter. A compute pipeline dispatches *workgroups*
//! whose invocations cooperate: they stage input tiles into workgroup
//! shared memory once and then each invocation reads the staged values
//! many times. The simulator captures that difference in one number,
//! [`ComputePipeline::shared_reuse`]: how many invocations each
//! shared-memory load serves. An uncooperative (elementwise) kernel has
//! reuse 1; a 16×16-tiled matmul has reuse 16 (each staged `a` and `b`
//! value feeds a whole tile row/column). The device's simulated-time
//! model multiplies effective occupancy by this factor, so tiling is
//! rewarded exactly where real hardware rewards it — memory bandwidth.

use std::sync::Arc;

/// Body of a compute pipeline: reads the (widened-f32) contents of the
/// bound input buffers and writes the bound output buffer in place. The
/// output slice is exactly `out_len` long and arrives with whatever a
/// recycled buffer last held, so a body must store every element. Runs on
/// the device thread.
pub type PipelineBody = Arc<dyn Fn(&[&[f32]], &mut [f32]) + Send + Sync>;

/// A compute pipeline plus its dispatch geometry and cost declaration.
#[derive(Clone)]
pub struct ComputePipeline {
    /// Pipeline name (compile cache key, telemetry span label).
    pub name: &'static str,
    /// Output element count (the output buffer's length).
    pub out_len: usize,
    /// Invocations per workgroup (typically tile area, e.g. 256 for a
    /// 16×16 tile). Purely descriptive in the simulator; the cost model
    /// keys off `shared_reuse`.
    pub workgroup_size: usize,
    /// How many invocations each workgroup-shared-memory load serves.
    /// 1 = no cooperation (elementwise); 16 = a 16-wide tiled kernel.
    pub shared_reuse: usize,
    /// Approximate arithmetic operations per output element, used by the
    /// occupancy model to distinguish tiny dispatches (which cannot fill
    /// the device) from large ones.
    pub cost_per_element: usize,
    /// The kernel body.
    pub body: PipelineBody,
}

impl ComputePipeline {
    /// A cooperative (tiled / shared-memory) pipeline.
    pub fn cooperative(
        name: &'static str,
        out_len: usize,
        workgroup_size: usize,
        shared_reuse: usize,
        cost_per_element: usize,
        body: impl Fn(&[&[f32]], &mut [f32]) + Send + Sync + 'static,
    ) -> ComputePipeline {
        ComputePipeline {
            name,
            out_len,
            workgroup_size,
            shared_reuse: shared_reuse.max(1),
            cost_per_element: cost_per_element.max(1),
            body: Arc::new(body),
        }
    }

    /// An uncooperative pipeline: one invocation per output element, no
    /// shared-memory staging (reuse 1) — the compute-API equivalent of a
    /// fragment shader.
    pub fn elementwise(
        name: &'static str,
        out_len: usize,
        cost_per_element: usize,
        body: impl Fn(&[&[f32]], &mut [f32]) + Send + Sync + 'static,
    ) -> ComputePipeline {
        ComputePipeline::cooperative(name, out_len, 64, 1, cost_per_element, body)
    }
}

impl std::fmt::Debug for ComputePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePipeline")
            .field("name", &self.name)
            .field("out_len", &self.out_len)
            .field("workgroup_size", &self.workgroup_size)
            .field("shared_reuse", &self.shared_reuse)
            .field("cost_per_element", &self.cost_per_element)
            .finish()
    }
}
