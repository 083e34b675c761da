//! # webml-webgl-sim
//!
//! The simulated GPU substrate: one device core that serves every browser
//! GPU API this repository models, and the WebGL GPGPU execution model that
//! TensorFlow.js repurposes for numeric computation (paper Sec 4.1) as its
//! first descriptor.
//!
//! The paper builds everything GPU-side on one `GPGPUContext` (queue,
//! fences, recycler, paging, readback), and its Sec 4.3 says a compute API
//! differs from WebGL by *capabilities*, not by execution model. So the
//! core is written once —
//!
//! - a **command queue** on a dedicated device thread ([`queue`],
//!   [`context`]): kernels are enqueued in sub-millisecond time and run
//!   asynchronously; readback is a queue command that completes on the
//!   device thread; fences (core's `FenceToken`, which knows the context
//!   that minted it) and timer queries provide completion signals and
//!   pure-GPU timing. A device thread that dies answers its waiters: a
//!   blocking read errors with [`DeviceError::ContextLost`] and every fence
//!   reads as passed;
//! - **recycling** and threshold-based **paging to the CPU** ([`recycler`],
//!   [`pager`]), the memory-management strategies of paper Sec 4.1.2;
//! - one **kernel** type ([`shader`]) whose body is a fragment body — one
//!   `main()` per output texel, in parallel, with *no shared memory and no
//!   scatter*, inputs only sampled through the layout-compiled `get(...)`
//!   accessors — or a compute body over whole linear buffers;
//! - **deterministic fault injection** ([`fault`]): seedable plans for
//!   context loss, compile failure, allocation OOM and transient readback
//!   errors, so the engine's graceful-degradation ladder can be exercised
//!   reproducibly on any rung;
//! - a **device capability database** ([`devices`]) modelling the support
//!   landscape of Sec 4.1.3 (OES_texture_float availability, 16-bit-only
//!   mobile GPUs, compute-API availability, market shares)
//!
//! — and driven by a **capability descriptor** ([`caps`]): storage kind,
//! shared memory, dispatch and allocation overhead, paging tier, timer-query
//! rule. A context's [`ContextConfig::caps`] picks one. [`caps::WEBGL`]
//! selects the WebGL-only constraints real WebGL imposes:
//!
//! - **Float textures** are the only storage ([`texture`]): 2-D grids of
//!   texels with 1 (`R`) or 4 (`RGBA`) float channels, at 32- or 16-bit
//!   precision ([`mod@f16`]); device size limits apply.
//! - The **layout compiler** ([`layout`]) separates the logical N-D shape
//!   from the physical 2-D texture, including the squeeze optimization for
//!   unit dimensions the paper credits with a 1.3x speedup.
//!
//! [`caps::WEBGPU`], the second descriptor, is the compute rung: linear
//! storage buffers, workgroup shared memory, cheaper dispatch.

#![warn(missing_docs)]

pub mod caps;
pub mod context;
pub mod devices;
pub mod f16;
pub mod fault;
pub mod layout;
pub mod pager;
pub mod queue;
pub mod recycler;
pub mod shader;
pub mod texture;

pub use caps::{Capabilities, Storage, WEBGL, WEBGPU};
pub use context::{ContextConfig, DeviceError, GpgpuContext, GpuMemoryStats, Handle};
pub use fault::{ContextLossEvent, FaultPlan, FaultState, FaultStats};
pub use devices::{DeviceClass, DeviceProfile, GlVersion};
pub use queue::QueueStats;
pub use layout::TextureLayout;
pub use shader::{Kernel, KernelBody, Samplers};
pub use texture::{TextureFormat, MAX_TEXTURE_SIZE_DEFAULT};
