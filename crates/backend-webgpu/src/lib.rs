//! # webml-backend-webgpu
//!
//! Frozen import path of the benchmark (`benchmark/`, which imports this
//! crate by path and may not change with a refactor): the name of the
//! WebGPU-class compute rung's backend. The rung is a value, the
//! `webml_webgl_sim::WEBGPU` descriptor that
//! `webml_webgpu_sim::WebGpuConfig` converts into, so the backend is
//! `webml-backend-webgl`'s one [`GpuBackend`].

#![warn(missing_docs)]

use webml_backend_webgl::GpuBackend;

/// The WebGPU-class compute backend over a simulated device: a
/// [`GpuBackend`] built with `webml_webgpu_sim::WebGpuConfig`.
pub type WebGpuBackend = GpuBackend;
