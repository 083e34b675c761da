//! The capability descriptor: what one GPU API lets the device core do.
//!
//! Paper Sec 4.3 says a compute API differs from WebGL by *capabilities* —
//! work groups, shared memory, linear buffers, cheaper dispatch — not by
//! execution model. The device core ([`crate::queue`], [`crate::context`])
//! is therefore written once and reads every per-API difference from one
//! [`Capabilities`] value. Descriptors are constants: [`WEBGL`] lives here,
//! the compute rung's in `webml-webgpu-sim`, and a context is handed one at
//! creation. Nothing in a descriptor is user-settable.

use crate::devices::DeviceProfile;

/// How a device stores a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// 2-D float textures: a per-dimension size limit, the logical→physical
    /// layout compiler with its squeeze optimization, and RGBA texel
    /// packing. Needs float-texture support on the device.
    Texture,
    /// Linear storage buffers: a tensor is `1 × len` values, shape stays a
    /// host-side concern. Needs the compute API on the device.
    Linear,
}

/// One GPU API as the device core sees it.
#[derive(Debug, Clone, Copy)]
pub struct Capabilities {
    /// API name: the default backend registry name and the prefix of the
    /// `<api>.fused_fallbacks_total` counter.
    pub api: &'static str,
    /// Storage kind.
    pub storage: Storage,
    /// Whether a kernel's declared shared-memory reuse multiplies its
    /// occupancy; without workgroup shared memory it is pinned to 1.
    pub shared_memory: bool,
    /// Fixed device nanoseconds per draw call / dispatch (command decode,
    /// pipeline state; a draw call also binds a framebuffer).
    pub dispatch_overhead_ns: u64,
    /// Simulated driver cost of a fresh allocation, paid when the recycler
    /// misses (paper Sec 4.1.2: "disposing and re-allocating WebGL textures
    /// is relatively expensive").
    pub alloc_overhead_ns: u64,
    /// Whether the context's [`crate::pager::PagingPolicy`] applies. Storage
    /// buffers page at driver level, so the compute rung has no tier of its
    /// own and cumulative pressure over a byte limit always fails.
    pub paging: bool,
    /// Whether timestamp queries are a core feature. Otherwise timing is an
    /// optional extension the profile may lack
    /// ([`DeviceProfile::has_disjoint_timer_query`]).
    pub timestamp_queries: bool,
    /// Name of the device thread.
    pub device_thread: &'static str,
    /// Telemetry category of allocator events.
    pub pool_category: &'static str,
    /// Telemetry instant for a fresh output allocation.
    pub alloc_instant: &'static str,
    /// Telemetry instant for a recycled output allocation.
    pub recycle_instant: &'static str,
}

/// WebGL: fragment shaders over float textures (paper Sec 4.1).
pub const WEBGL: Capabilities = Capabilities {
    api: "webgl",
    storage: Storage::Texture,
    shared_memory: false,
    dispatch_overhead_ns: 8_000,
    alloc_overhead_ns: 60_000,
    paging: true,
    timestamp_queries: false,
    device_thread: "webgl-device",
    pool_category: "texture-pool",
    alloc_instant: "texture_alloc",
    recycle_instant: "texture_recycle",
};

impl Capabilities {
    /// Whether `profile` can host a context of this API at all
    /// (paper Sec 4.1.3).
    pub fn supported_on(&self, profile: &DeviceProfile) -> bool {
        match self.storage {
            Storage::Texture => profile.supports_float_textures(),
            Storage::Linear => profile.has_webgpu,
        }
    }

    /// Whether a context of this API on `profile` can time device work.
    pub fn has_timer(&self, profile: &DeviceProfile) -> bool {
        self.timestamp_queries || profile.has_disjoint_timer_query
    }
}
