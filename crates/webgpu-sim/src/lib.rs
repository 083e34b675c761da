//! # webml-webgpu-sim
//!
//! Frozen import path of the benchmark (`benchmark/`, which imports this
//! crate by path and may not change with a refactor): [`WebGpuConfig`] and
//! its conversion into a [`ContextConfig`] over the compute descriptor,
//! [`WEBGPU`]. The descriptor and the device core it drives are
//! `webml-webgl-sim`'s, where a rung is chosen by
//! [`ContextConfig::caps`].

#![warn(missing_docs)]

use webml_webgl_sim::caps::WEBGPU;
use webml_webgl_sim::context::ContextConfig;
use webml_webgl_sim::pager::PagingPolicy;

/// Context configuration of the compute rung: storage buffers have no texel
/// packing, no 2-D layout squeezing and no paging tier.
#[derive(Debug, Clone, Copy)]
pub struct WebGpuConfig {
    /// Recycle disposed storage buffers by (length, format).
    pub recycling: bool,
}

impl Default for WebGpuConfig {
    fn default() -> Self {
        WebGpuConfig { recycling: true }
    }
}

impl From<WebGpuConfig> for ContextConfig {
    fn from(config: WebGpuConfig) -> ContextConfig {
        ContextConfig {
            caps: &WEBGPU,
            packing: false,
            squeeze_layout: false,
            paging: PagingPolicy::disabled(),
            recycling: config.recycling,
        }
    }
}
