//! # webml-webgl-sim
//!
//! A software simulation of the WebGL GPGPU execution model that
//! TensorFlow.js repurposes for numeric computation (paper Sec 4.1).
//!
//! The simulator enforces the same architectural constraints real WebGL
//! imposes, so code built on top faces the same engineering trade-offs:
//!
//! - **Float textures** are the only storage ([`texture`]): 2-D grids of
//!   texels with 1 (`R`) or 4 (`RGBA`) float channels, at 32- or 16-bit
//!   precision ([`mod@f16`]); device size limits apply.
//! - **Fragment-shader programs** ([`shader`]) run one `main()` per output
//!   texel, in parallel, with *no shared memory and no scatter* — outputs
//!   can only be written at the invocation's own coordinates, inputs only
//!   sampled through the layout-compiled `get(...)` accessors.
//! - The **layout compiler** ([`layout`]) separates the logical N-D shape
//!   from the physical 2-D texture, including the squeeze optimization for
//!   unit dimensions the paper credits with a 1.3x speedup.
//! - A **command queue** on a dedicated device thread ([`queue`],
//!   [`context`]): programs are enqueued in sub-millisecond time and run
//!   asynchronously; readback is a queue flush; fences and disjoint timer
//!   queries provide completion signals and pure-GPU timing.
//! - **Texture recycling** and threshold-based **paging to the CPU**
//!   ([`recycler`], [`pager`]) reproduce the memory-management strategies of
//!   paper Sec 4.1.2.
//! - A **device capability database** ([`devices`]) models the WebGL
//!   support landscape of Sec 4.1.3 (OES_texture_float availability,
//!   16-bit-only mobile GPUs, market shares).
//! - **Deterministic fault injection** ([`fault`]): seedable plans for
//!   context loss, shader-compile failure, allocation OOM and transient
//!   readback errors, so the engine's graceful-degradation ladder can be
//!   exercised reproducibly.

#![warn(missing_docs)]

pub mod context;
pub mod devices;
pub mod f16;
pub mod fault;
pub mod future;
pub mod layout;
pub mod pager;
pub mod queue;
pub mod recycler;
pub mod shader;
pub mod texture;

pub use context::{ContextConfig, FenceHandle, GpgpuContext, GpuMemoryStats, TexHandle};
pub use fault::{ContextLossEvent, FaultPlan, FaultState, FaultStats};
pub use devices::{DeviceClass, DeviceProfile, GlVersion};
pub use future::ReadFuture;
pub use queue::QueueStats;
pub use layout::TextureLayout;
pub use shader::{Program, ProgramBody, Samplers};
pub use texture::{TextureFormat, MAX_TEXTURE_SIZE_DEFAULT};
