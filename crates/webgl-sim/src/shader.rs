//! The kernel abstraction: what a device runs, in either of the two shapes
//! a browser GPU API offers.
//!
//! A **fragment** kernel (paper Sec 4.1, Figure 4 and Listing 2) is the
//! analogue of a compiled fragment shader: its body is invoked once per
//! output value (or once per packed texel), in parallel, with **no shared
//! memory** and **no scatter** — the body can only return the value for its
//! own output coordinates (`setOutput`), and reads inputs exclusively
//! through [`Samplers`], the layout-compiled `getA(...)` accessors the
//! shader compiler generates. These are exactly the constraints the paper
//! identifies as the source of the WebGL/CUDA gap (no work groups, no
//! shared memory — Sec 3.9).
//!
//! A **compute** kernel (Sec 4.3) dispatches workgroups whose invocations
//! cooperate through shared memory; its body sees whole linear buffers. The
//! simulator captures the cooperation in one number,
//! [`Kernel::shared_reuse`], which a device with shared memory multiplies
//! into the kernel's [`occupancy`].
//!
//! Either body is a *run* body: the simulator calls it once per run of
//! consecutive outputs, not once per output, so a program can hoist its
//! index math out of the outputs that share it; what each output may read
//! stays the same. [`execute`] cuts every dispatch into runs the same way,
//! as many as its work pays to hand to the shader-core threads, each
//! starting on the grain the body declares.

use crate::layout::TextureLayout;
use std::sync::Arc;
use webml_core::pool::WorkerPool;

/// Read-only access to the program's input textures in logical coordinates.
pub struct Samplers<'a> {
    inputs: &'a [(&'a [f32], &'a TextureLayout)],
}

impl<'a> Samplers<'a> {
    /// Wrap input textures: each one's logical values (`layout.size()` of
    /// them, without the physical texture's padding) and its layout.
    pub fn new(inputs: &'a [(&'a [f32], &'a TextureLayout)]) -> Samplers<'a> {
        Samplers { inputs }
    }

    /// Sample input `i` at logical N-D `coords` — the generated
    /// `getA(b, r, c, d)` accessor.
    #[inline]
    pub fn get(&self, i: usize, coords: &[usize]) -> f32 {
        let (data, layout) = &self.inputs[i];
        data[layout.slot(coords)]
    }

    /// Sample input `i` at a logical flat index (element-wise kernels).
    #[inline]
    pub fn get_flat(&self, i: usize, flat: usize) -> f32 {
        self.inputs[i].0[flat]
    }

    /// The whole bound texture of input `i` in logical flat order — the
    /// sampler a program resolves once per invocation and then walks rows
    /// of, instead of re-resolving it per sample.
    #[inline]
    pub fn tex(&self, i: usize) -> &'a [f32] {
        self.inputs[i].0
    }

    /// One RGBA fetch: the four consecutive values of input `i` starting at
    /// logical flat index `flat`, as one `vec4` (Listing 2). Channels past
    /// the end of the texture read 0, like a real texture's padding.
    #[inline]
    pub fn texel(&self, i: usize, flat: usize) -> [f32; 4] {
        let data = self.inputs[i].0;
        match data.get(flat..flat + 4) {
            Some(q) => [q[0], q[1], q[2], q[3]],
            None => edge_texel(data, flat),
        }
    }

    /// Logical shape of input `i`.
    pub fn shape(&self, i: usize) -> &[usize] {
        &self.inputs[i].1.logical
    }

    /// Number of inputs bound.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether no inputs are bound.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// The texel at `flat` when it straddles the end of the texture.
#[cold]
fn edge_texel(data: &[f32], flat: usize) -> [f32; 4] {
    std::array::from_fn(|q| data.get(flat + q).copied().unwrap_or(0.0))
}

/// The invocations of a fragment program over one run of consecutive
/// outputs: `run(samplers, start, out)` stores output `start + i` in
/// `out[i]`, each a function of sampler reads only — no scatter, no shared
/// memory, no output another one reads. A run starts on a texel boundary
/// (a multiple of 4), so a packed program's RGBA texels are never split;
/// how the output is cut into runs is [`execute`]'s choice.
pub type RunBody = Arc<dyn Fn(&Samplers<'_>, usize, &mut [f32]) + Send + Sync>;

/// The invocations of a compute pipeline over one run of consecutive
/// outputs: `run(buffers, start, out)` reads the bound input buffers (whole,
/// in binding order) and stores output `start + i` in `out[i]`. `out`
/// arrives with whatever a recycled allocation last held, so a body stores
/// every element of it. A run starts on a multiple of the body's grain.
pub type ComputeBody = Arc<dyn Fn(&[&[f32]], usize, &mut [f32]) + Send + Sync>;

/// Outputs per RGBA texel, the grain fragment runs start on.
const TEXEL: usize = 4;

/// A compiled GPGPU kernel.
#[derive(Clone)]
pub struct Kernel {
    /// Kernel name: compile-cache key, fault-plan blocklist key, and the
    /// label timer queries and profiling report.
    pub name: &'static str,
    /// Logical output shape (`[out_len]` for a compute kernel).
    pub out_shape: Vec<usize>,
    /// Execution body.
    pub body: KernelBody,
    /// Approximate arithmetic operations per output element — the
    /// occupancy hint that tells tiny dispatches (which underutilize a real
    /// GPU the same way) from large ones.
    pub cost_per_element: usize,
    /// How many invocations each workgroup-shared-memory load serves:
    /// 1 = no cooperation (every fragment kernel, elementwise compute
    /// kernels); 16 = a 16-wide tiled kernel.
    pub shared_reuse: usize,
}

/// What a dispatch runs: a run body over the device's inputs, split over
/// its shader cores (a [`WorkerPool`], see [`execute`]).
#[derive(Clone)]
pub enum KernelBody {
    /// One `main()` per output value or texel, inputs through [`Samplers`].
    Fragment {
        /// The program's invocations, a run of outputs at a time.
        run: RunBody,
        /// Whether one invocation computes the 4 outputs of an RGBA texel
        /// (the packing optimization of Sec 3.9), so the output is stored
        /// as RGBA texels where the context packs.
        packed: bool,
    },
    /// Workgroups over whole linear buffers.
    Compute {
        /// The pipeline's invocations, a run of outputs at a time.
        run: ComputeBody,
        /// The outputs a run starts on a multiple of; a body that can only
        /// compute its output whole declares all of it.
        grain: usize,
    },
}

impl Kernel {
    /// A fragment kernel whose body computes a run of outputs at a time
    /// (see [`RunBody`]); `packed` says its invocations write RGBA texels.
    pub fn fragment(
        name: &'static str,
        out_shape: Vec<usize>,
        packed: bool,
        run: impl Fn(&Samplers<'_>, usize, &mut [f32]) + Send + Sync + 'static,
    ) -> Kernel {
        let body = KernelBody::Fragment { run: Arc::new(run), packed };
        Kernel { name, out_shape, body, cost_per_element: 1, shared_reuse: 1 }
    }

    /// A compute kernel whose body computes a run of outputs at a time from
    /// whole linear buffers (see [`ComputeBody`]), its runs starting on
    /// multiples of `grain`; a `grain` of the output's size runs it once,
    /// whole.
    pub fn compute(
        name: &'static str,
        out_shape: Vec<usize>,
        grain: usize,
        run: impl Fn(&[&[f32]], usize, &mut [f32]) + Send + Sync + 'static,
    ) -> Kernel {
        let body = KernelBody::Compute { run: Arc::new(run), grain };
        Kernel { name, out_shape, body, cost_per_element: 1, shared_reuse: 1 }
    }

    /// An unpacked fragment kernel: `main()` runs per output element with
    /// its flat index and N-D coordinates, returning the value for
    /// `setOutput`.
    pub fn per_element(
        name: &'static str,
        out_shape: Vec<usize>,
        body: impl Fn(&Samplers<'_>, usize, &[usize]) -> f32 + Send + Sync + 'static,
    ) -> Kernel {
        let dims = out_shape.clone();
        Kernel::fragment(name, out_shape, false, move |s, start, out| {
            let mut coords = coords_of(&dims, start);
            for (off, slot) in out.iter_mut().enumerate() {
                *slot = body(s, start + off, &coords);
                advance(&dims, &mut coords);
            }
        })
    }

    /// A packed fragment kernel: one invocation computes the 4 consecutive
    /// outputs of an RGBA texel from its first flat index (the packing
    /// optimization of Sec 3.9). Lanes past the end of the output are
    /// dropped.
    pub fn packed(
        name: &'static str,
        out_shape: Vec<usize>,
        body: impl Fn(&Samplers<'_>, usize) -> [f32; 4] + Send + Sync + 'static,
    ) -> Kernel {
        Kernel::fragment(name, out_shape, true, move |s, start, out| {
            for (t, texel) in out.chunks_mut(TEXEL).enumerate() {
                let quad = body(s, start + t * TEXEL);
                texel.copy_from_slice(&quad[..texel.len()]);
            }
        })
    }

    /// Attach an occupancy cost hint (arithmetic ops per output element).
    pub fn with_cost(mut self, cost_per_element: usize) -> Kernel {
        self.cost_per_element = cost_per_element.max(1);
        self
    }

    /// Logical output element count.
    pub fn out_size(&self) -> usize {
        self.out_shape.iter().product()
    }

    /// Whether the body is packed.
    pub fn is_packed(&self) -> bool {
        matches!(self.body, KernelBody::Fragment { packed: true, .. })
    }

    /// The outputs a run starts on a multiple of: an RGBA texel for a
    /// fragment body, the declared grain for a compute body.
    pub(crate) fn grain(&self) -> usize {
        match self.body {
            KernelBody::Fragment { .. } => TEXEL,
            KernelBody::Compute { grain, .. } => grain.max(1),
        }
    }

    /// How many runs a dispatch is cut into on `pool`: as many as its
    /// declared operations, counted as element visits, pay to hand out
    /// ([`WorkerPool::split`]), at most one per grain.
    pub(crate) fn runs_on(&self, pool: &WorkerPool) -> usize {
        let work = self.out_size().saturating_mul(self.cost_per_element);
        pool.split(work, self.out_size().div_ceil(self.grain()))
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let body = match &self.body {
            KernelBody::Fragment { packed: true, .. } => "packed",
            KernelBody::Fragment { .. } => "per-element",
            KernelBody::Compute { .. } => "compute",
        };
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("out_shape", &self.out_shape)
            .field("body", &body)
            .field("cost_per_element", &self.cost_per_element)
            .field("shared_reuse", &self.shared_reuse)
            .finish()
    }
}

/// Modeled lanes one dispatch of `kernel` fills on a device with
/// `parallelism` cores: with workgroup shared memory each staged load feeds
/// `shared_reuse` invocations, so the same bandwidth sustains that many more
/// lanes; without it the declared reuse is ignored. Bounded below by 1 and
/// above by how much work the dispatch has to hand out (tiny dispatches
/// underutilize a real GPU).
pub fn occupancy(parallelism: usize, shared_memory: bool, kernel: &Kernel) -> usize {
    let reuse = if shared_memory { kernel.shared_reuse } else { 1 };
    let work = kernel.out_size().saturating_mul(kernel.cost_per_element);
    parallelism.saturating_mul(reuse).max(1).min((work / 2_048).max(1))
}

/// Execute `kernel` over its bound inputs (`buffers` in binding order, and
/// for a fragment body each one's texture `layouts`) into `out`, cut into
/// at most `runs` runs of consecutive outputs, each starting on the body's
/// grain (an RGBA texel for a fragment body), on the device's persistent
/// [`WorkerPool`] — the simulator's model of shader-core parallelism. The
/// device asks the pool how many runs a dispatch's work pays for
/// ([`WorkerPool::split`]); a dispatch too small for a hand-off runs whole
/// on the device thread. Each invocation writes only its own output slot.
///
/// Fills `out` at logical flat indices, with f16 rounding applied per
/// element after the body when the device is half-precision. How many runs
/// there were does not reach the device clock, which is priced from the
/// declared work and the modeled [`occupancy`] (see [`crate::queue`]).
pub fn execute(
    kernel: &Kernel,
    buffers: &[&[f32]],
    layouts: &[&TextureLayout],
    out: &mut [f32],
    pool: &WorkerPool,
    runs: usize,
    half_precision: bool,
) {
    let size = kernel.out_size();
    if size == 0 {
        return;
    }
    assert!(out.len() >= size, "{}: output allocation too small", kernel.name);
    // A sampler sees the tensor's logical values: the padding of a recycled
    // texture holds whatever its last owner left.
    let samplers: Vec<(&[f32], &TextureLayout)> = match kernel.body {
        KernelBody::Fragment { .. } => {
            let bound = buffers.iter().zip(layouts);
            bound.map(|(data, &layout)| (&data[..layout.size()], layout)).collect()
        }
        KernelBody::Compute { .. } => Vec::new(),
    };
    let chunk_len = size.div_ceil(runs.max(1)).next_multiple_of(kernel.grain());
    let n_chunks = size.div_ceil(chunk_len);
    let base_ptr = out.as_mut_ptr() as usize;
    pool.run(n_chunks, &|ci| {
        let start = ci * chunk_len;
        let len = chunk_len.min(size - start);
        // SAFETY: chunks are disjoint windows of `out`'s first `size`
        // elements, and `execute` blocks inside `pool.run` until all chunks
        // are done.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut((base_ptr as *mut f32).add(start), len) };
        match &kernel.body {
            KernelBody::Fragment { run, .. } => run(&Samplers::new(&samplers), start, chunk),
            KernelBody::Compute { run, .. } => run(buffers, start, chunk),
        }
        if half_precision {
            for v in chunk.iter_mut() {
                *v = crate::f16::round(*v);
            }
        }
    });
}

fn coords_of(dims: &[usize], mut flat: usize) -> Vec<usize> {
    let mut coords = vec![0usize; dims.len()];
    for i in (0..dims.len()).rev() {
        coords[i] = flat % dims[i];
        flat /= dims[i];
    }
    coords
}

fn advance(dims: &[usize], coords: &mut [usize]) {
    for i in (0..dims.len()).rev() {
        coords[i] += 1;
        if coords[i] < dims[i] {
            return;
        }
        coords[i] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::texture::TextureFormat;

    fn layout(dims: &[usize]) -> TextureLayout {
        TextureLayout::compile(dims, TextureFormat::R32F, 16_384, true).unwrap()
    }

    /// Runs `kernel` on a pool of `cores`, one run per core.
    fn run(kernel: &Kernel, inputs: &[(&[f32], &TextureLayout)], out: &mut [f32], cores: usize) {
        let pool = WorkerPool::new(cores);
        let (buffers, layouts): (Vec<&[f32]>, Vec<&TextureLayout>) = inputs.iter().copied().unzip();
        execute(kernel, &buffers, &layouts, out, &pool, pool.size(), false);
    }

    #[test]
    fn per_element_addition_matches_figure4() {
        // Figure 4: element-wise addition of two equally shaped matrices,
        // one main() per output value.
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![10.0, 20.0, 30.0, 40.0];
        let la = layout(&[2, 2]);
        let lb = layout(&[2, 2]);
        let prog = Kernel::per_element("Add", vec![2, 2], |s, flat, _| {
            s.get_flat(0, flat) + s.get_flat(1, flat)
        });
        let mut out = vec![0.0; 4];
        run(&prog, &[(&a, &la), (&b, &lb)], &mut out, 1);
        assert_eq!(out, vec![11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let n = 100_000;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let la = layout(&[n]);
        let prog = Kernel::per_element("Square", vec![n], |s, flat, _| {
            let v = s.get_flat(0, flat);
            v * v
        })
        .with_cost(64);
        let mut serial = vec![0.0; n];
        run(&prog, &[(&a, &la)], &mut serial, 1);
        let mut parallel = vec![0.0; n];
        run(&prog, &[(&a, &la)], &mut parallel, 8);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn coords_are_row_major() {
        let prog = Kernel::per_element("CoordProbe", vec![2, 3], |_, _, coords| {
            (coords[0] * 10 + coords[1]) as f32
        });
        let mut out = vec![0.0; 6];
        run(&prog, &[], &mut out, 1);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn packed_program_computes_quads() {
        let a: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let la = layout(&[10]);
        let prog = Kernel::packed("AddOnePacked", vec![10], |s, base| {
            let mut quad = [0.0; 4];
            for (i, q) in quad.iter_mut().enumerate() {
                if base + i < 10 {
                    *q = s.get_flat(0, base + i) + 1.0;
                }
            }
            quad
        });
        let mut out = vec![0.0; 10];
        run(&prog, &[(&a, &la)], &mut out, 1);
        let expected: Vec<f32> = (0..10).map(|i| (i + 1) as f32).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn texel_fetch_is_zero_padded_past_the_end_and_equals_four_scalar_fetches() {
        let a: Vec<f32> = (0..10).map(|i| i as f32 + 0.5).collect();
        let la = layout(&[10]);
        let inputs = [(&a[..], &la)];
        let s = Samplers::new(&inputs);
        assert_eq!(s.tex(0), &a[..]);
        // Any start, aligned or not: four scalar fetches where the texture
        // has values, 0 where it ends.
        for flat in 0..14 {
            let scalars: [f32; 4] =
                std::array::from_fn(|q| if flat + q < 10 { s.get_flat(0, flat + q) } else { 0.0 });
            assert_eq!(s.texel(0, flat), scalars, "texel at {flat}");
        }
        assert_eq!(s.texel(0, 8), [8.5, 9.5, 0.0, 0.0]);
    }

    #[test]
    fn packed_parallel_matches_serial() {
        let n = 99_999;
        let a: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let la = layout(&[n]);
        let prog = Kernel::packed("NegPacked", vec![n], move |s, base| {
            let mut quad = [0.0; 4];
            for (i, q) in quad.iter_mut().enumerate() {
                if base + i < n {
                    *q = -s.get_flat(0, base + i);
                }
            }
            quad
        })
        .with_cost(64);
        let mut serial = vec![0.0; n];
        run(&prog, &[(&a, &la)], &mut serial, 1);
        let mut parallel = vec![0.0; n];
        run(&prog, &[(&a, &la)], &mut parallel, 7);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn half_precision_rounds_outputs() {
        let a = vec![1e-8f32];
        let la = layout(&[1]);
        let prog = Kernel::per_element("Id", vec![1], |s, flat, _| s.get_flat(0, flat));
        let mut out = vec![9.0; 1];
        let pool = WorkerPool::new(1);
        execute(&prog, &[&a], &[&la], &mut out, &pool, 1, true);
        assert_eq!(out, vec![0.0]);
    }

    #[test]
    fn matmul_listing2_style() {
        // Listing 2: per-output dot product. No shared memory: each output
        // recomputes its whole row x column walk.
        let a = vec![1.0, 2.0, 3.0, 4.0]; // 2x2
        let b = vec![5.0, 6.0, 7.0, 8.0]; // 2x2
        let la = layout(&[2, 2]);
        let lb = layout(&[2, 2]);
        let n = 2;
        let prog = Kernel::per_element("MatMul", vec![2, 2], move |s, _, coords| {
            let (row, col) = (coords[0], coords[1]);
            let mut acc = 0.0;
            for i in 0..n {
                acc += s.get(0, &[row, i]) * s.get(1, &[i, col]);
            }
            acc
        });
        let mut out = vec![0.0; 4];
        run(&prog, &[(&a, &la), (&b, &lb)], &mut out, 1);
        assert_eq!(out, vec![19.0, 22.0, 43.0, 50.0]);
    }

    fn compute(out_len: usize, reuse: usize, cost: usize) -> Kernel {
        let body = KernelBody::Compute { run: Arc::new(|_, _, _| {}), grain: 1 };
        Kernel {
            name: "T",
            out_shape: vec![out_len],
            body,
            cost_per_element: cost,
            shared_reuse: reuse,
        }
    }

    #[test]
    fn compute_runs_start_on_their_grain_and_cover_the_output() {
        use std::sync::Mutex;
        let n = 10_001;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        for grain in [1, 3, 64, n] {
            let runs = Arc::new(Mutex::new(Vec::new()));
            let seen = runs.clone();
            let run: ComputeBody =
                Arc::new(move |inp: &[&[f32]], start: usize, out: &mut [f32]| {
                    seen.lock().unwrap().push((start, out.len()));
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = inp[0][start + i] + 1.0;
                    }
                });
            let body = KernelBody::Compute { run, grain };
            let kernel = Kernel {
                name: "T",
                out_shape: vec![n],
                body,
                cost_per_element: 64,
                shared_reuse: 1,
            };
            for cores in [1, 2, 3, 7] {
                runs.lock().unwrap().clear();
                let mut out = vec![f32::NAN; n];
                let pool = WorkerPool::new(cores);
                execute(&kernel, &[&x], &[], &mut out, &pool, pool.size(), false);
                assert!(
                    out.iter().zip(&x).all(|(o, v)| *o == v + 1.0),
                    "grain {grain}, {cores} cores"
                );
                let mut runs = runs.lock().unwrap().clone();
                runs.sort();
                assert!(
                    runs.iter().all(|&(start, _)| start % grain == 0),
                    "grain {grain}: {runs:?}"
                );
                assert_eq!(runs.iter().map(|r| r.1).sum::<usize>(), n);
                let whole = grain == n || cores == 1;
                assert_eq!(runs.len() == 1, whole, "grain {grain}, {cores} cores: {runs:?}");
            }
        }
    }

    /// The runs a dispatch of `kernel` ran in on `pool`.
    fn runs_executed(kernel: &Kernel, pool: &WorkerPool) -> usize {
        let mut out = vec![0.0; kernel.out_size()];
        execute(kernel, &[], &[], &mut out, pool, kernel.runs_on(pool), false);
        out.iter().filter(|&&v| v == 1.0).count()
    }

    #[test]
    fn a_dispatch_splits_only_when_its_work_pays_for_the_hand_off() {
        // Each run marks its first output.
        let marking = |name, out_shape, cost| {
            Kernel::fragment(name, out_shape, true, |_, _, out: &mut [f32]| {
                out.fill(0.0);
                out[0] = 1.0;
            })
            .with_cost(cost)
        };
        // The fleet benchmark's light MLP: a [1, 64] product over k = 32,
        // two operations per multiply-add.
        let light = marking("MatMul", vec![1, 64], 2 * 32);
        // MobileNet-small's first pointwise conv: 48x48, 8 → 16 channels.
        let pointwise = marking("Conv2D", vec![1, 48, 48, 16], 2 * 8);
        for cores in [2, 4] {
            let pool = WorkerPool::new(cores);
            // Parked, then (likely) awake after the first split.
            for _ in 0..2 {
                assert_eq!(runs_executed(&light, &pool), 1, "{cores} cores");
                assert_eq!(runs_executed(&pointwise, &pool), cores, "{cores} cores");
            }
        }
    }

    #[test]
    fn occupancy_rewards_shared_reuse_only_with_shared_memory() {
        // Large dispatch: a tiled kernel gets reuse× the cores...
        let big = 1 << 20;
        assert_eq!(occupancy(8, true, &compute(big, 1, 64)), 8);
        assert_eq!(occupancy(8, true, &compute(big, 16, 64)), 128);
        // ...unless the API has no workgroup shared memory to stage into.
        assert_eq!(occupancy(8, false, &compute(big, 16, 64)), 8);
    }

    #[test]
    fn occupancy_is_bounded_by_available_work() {
        // A tiny dispatch cannot fill the device no matter the reuse.
        assert_eq!(occupancy(64, true, &compute(16, 16, 1)), 1);
        // Work bound sits between 1 and the effective core count.
        let o = occupancy(64, true, &compute(4_096, 16, 2));
        assert!((1..=1_024).contains(&o));
    }
}
