//! Device capability profiles and the market-share database used to
//! reproduce the device-support statistics of paper Sec 4.1.3 ("TensorFlow.js
//! can run on 99% of desktop devices, 98% of iOS and Windows mobile devices,
//! and 52% of Android devices").

/// WebGL specification level implemented by a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlVersion {
    /// WebGL 1.0 (needs `OES_texture_float` for float textures).
    WebGl1,
    /// WebGL 2.0 (float textures and `fenceSync` built in).
    WebGl2,
}

/// Broad device category, for Table 1-style reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Laptop/desktop with an integrated GPU (e.g. Intel Iris Pro).
    DesktopIntegrated,
    /// Desktop with a discrete GPU (e.g. GTX 1080).
    DesktopDiscrete,
    /// iOS device (Safari: WebGL 1.0, 16-bit float textures).
    MobileIos,
    /// Android device.
    MobileAndroid,
    /// Windows mobile device.
    MobileWindows,
}

/// The integrated profile's rate, fitted to the paper's WebGL Iris Pro row
/// of Table 1 (49 ms). `table1 --full`'s WebGL integrated row (MobileNet v1
/// α=1.0 at 224×224) prices 145.37 ms per unit of rate on top of 1.784 ms
/// of dispatch and allocation overhead, so the rate is
/// `(49 − 1.784) / 145.37`. Profiles with no Table 1 row use it too.
pub const INTEGRATED_NS_PER_OP: f64 = 0.3248;

/// The discrete profile's rate, fitted to the paper's WebGL GTX 1080 row
/// (5 ms): `table1 --full`'s WebGL discrete row prices 18.26 ms per unit of
/// rate on top of the same 1.784 ms, so the rate is `(5 − 1.784) / 18.26`.
pub const DISCRETE_NS_PER_OP: f64 = 0.1761;

/// Capabilities of one simulated device.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Human-readable name.
    pub name: String,
    /// Device category.
    pub class: DeviceClass,
    /// WebGL level.
    pub gl_version: GlVersion,
    /// Whether WebGL 1.0 exposes `OES_texture_float` (required to upload
    /// and read float textures; the gating capability of Sec 4.1.3).
    pub has_oes_texture_float: bool,
    /// iOS-style devices only support 16-bit float textures.
    pub half_precision_only: bool,
    /// `MAX_TEXTURE_SIZE` per dimension.
    pub max_texture_size: usize,
    /// Modeled shader-core parallelism: the lanes a dispatch can fill on
    /// the priced clock (see [`crate::queue`]), and, up to the host
    /// machine's size, the shader-core threads fragment bodies run on.
    /// Integrated 8, discrete 64.
    pub parallelism: usize,
    /// Device nanoseconds one lane takes per declared arithmetic operation:
    /// the rate of the priced clock, which charges a dispatch
    /// `⌈out_size × cost_per_element / occupancy⌉ × ns_per_op`.
    pub ns_per_op: f64,
    /// `gl.fenceSync` availability (WebGL 2.0 path of Sec 4.1.1).
    pub has_fence_sync: bool,
    /// `EXT_disjoint_timer_query` availability (WebGL 1.0 path).
    pub has_disjoint_timer_query: bool,
    /// Driver pipeline-drain cost of a *synchronous* `readPixels` issued
    /// behind work no host wait covered (paper Fig 2: a blocking
    /// `dataSync()` stalls the main thread until the whole pipeline
    /// drains). Fence-synchronized readback (Fig 3) pays nothing. Charged
    /// on the device timeline, not in kernel time.
    pub readback_sync_penalty_ns: u64,
    /// Whether the browser on this device exposes a WebGPU-class compute
    /// API (compute shaders, workgroups, storage buffers — paper Sec 4.3's
    /// "general purpose parallel programming" future work). Absent on older
    /// iOS Safari and legacy Android profiles, so the degradation ladder
    /// and fleet placement only offer the webgpu backend where it exists.
    pub has_webgpu: bool,
}

impl DeviceProfile {
    /// Whether the WebGL backend can run at all on this device.
    pub fn supports_float_textures(&self) -> bool {
        match self.gl_version {
            GlVersion::WebGl2 => true,
            GlVersion::WebGl1 => self.has_oes_texture_float,
        }
    }

    /// An integrated-GPU laptop (the paper's MacBook Pro / Intel Iris Pro
    /// measurement platform), at [`INTEGRATED_NS_PER_OP`].
    pub fn intel_iris_pro() -> DeviceProfile {
        DeviceProfile {
            name: "Intel Iris Pro (integrated)".into(),
            class: DeviceClass::DesktopIntegrated,
            gl_version: GlVersion::WebGl2,
            has_oes_texture_float: true,
            half_precision_only: false,
            max_texture_size: 16_384,
            parallelism: 8,
            ns_per_op: INTEGRATED_NS_PER_OP,
            has_fence_sync: true,
            has_disjoint_timer_query: true,
            readback_sync_penalty_ns: 1_500_000,
            has_webgpu: true,
        }
    }

    /// A discrete desktop GPU (the paper's GTX 1080 platform), at
    /// [`DISCRETE_NS_PER_OP`].
    pub fn gtx_1080() -> DeviceProfile {
        DeviceProfile {
            name: "GTX 1080 (discrete)".into(),
            class: DeviceClass::DesktopDiscrete,
            gl_version: GlVersion::WebGl2,
            has_oes_texture_float: true,
            half_precision_only: false,
            max_texture_size: 16_384,
            parallelism: 64,
            ns_per_op: DISCRETE_NS_PER_OP,
            has_fence_sync: true,
            has_disjoint_timer_query: true,
            readback_sync_penalty_ns: 1_200_000,
            has_webgpu: true,
        }
    }

    /// iOS Safari: WebGL 1.0, 16-bit float textures only (Sec 4.1.3).
    /// No Table 1 row anchors its clock, so it takes the integrated rate
    /// ([`INTEGRATED_NS_PER_OP`]).
    pub fn ios_safari() -> DeviceProfile {
        DeviceProfile {
            name: "iOS Safari".into(),
            class: DeviceClass::MobileIos,
            gl_version: GlVersion::WebGl1,
            has_oes_texture_float: true,
            half_precision_only: true,
            max_texture_size: 4_096,
            parallelism: 2,
            ns_per_op: INTEGRATED_NS_PER_OP,
            has_fence_sync: false,
            has_disjoint_timer_query: true,
            readback_sync_penalty_ns: 3_000_000,
            has_webgpu: false,
        }
    }

    /// A modern Android device with full float support.
    /// No Table 1 row anchors its clock, so it takes the integrated rate
    /// ([`INTEGRATED_NS_PER_OP`]).
    pub fn android_modern() -> DeviceProfile {
        DeviceProfile {
            name: "Android (modern)".into(),
            class: DeviceClass::MobileAndroid,
            gl_version: GlVersion::WebGl2,
            has_oes_texture_float: true,
            half_precision_only: false,
            max_texture_size: 8_192,
            parallelism: 4,
            ns_per_op: INTEGRATED_NS_PER_OP,
            has_fence_sync: true,
            has_disjoint_timer_query: false,
            readback_sync_penalty_ns: 2_500_000,
            has_webgpu: true,
        }
    }

    /// An old Android device without GPU float-texture support — the WebGL
    /// backend cannot run here and the engine falls back to plain CPU.
    /// No Table 1 row anchors its clock, so it takes the integrated rate
    /// ([`INTEGRATED_NS_PER_OP`]).
    pub fn android_legacy() -> DeviceProfile {
        DeviceProfile {
            name: "Android (legacy, no GPU float)".into(),
            class: DeviceClass::MobileAndroid,
            gl_version: GlVersion::WebGl1,
            has_oes_texture_float: false,
            half_precision_only: false,
            max_texture_size: 2_048,
            parallelism: 1,
            ns_per_op: INTEGRATED_NS_PER_OP,
            has_fence_sync: false,
            has_disjoint_timer_query: false,
            readback_sync_penalty_ns: 4_000_000,
            has_webgpu: false,
        }
    }
}

/// One entry of the simulated WebGLStats-style population: a device model
/// with a within-platform market share.
#[derive(Debug, Clone)]
pub struct PopulationEntry {
    /// Platform bucket the share is relative to.
    pub platform: Platform,
    /// Device model name.
    pub model: String,
    /// Share within the platform (entries per platform sum to 1.0).
    pub share: f64,
    /// Whether the device supports float textures (can run the WebGL
    /// backend).
    pub supports_webgl_backend: bool,
    /// Whether the browser on this device exposes a WebGPU-class compute
    /// API (can run the webgpu backend). Strictly a subset of the WebGL
    /// population: modern WebGL2-era devices only.
    pub supports_webgpu_backend: bool,
}

/// Reporting platform of Sec 4.1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Desktop browsers.
    Desktop,
    /// iOS and Windows mobile devices (reported jointly in the paper).
    IosAndWindowsMobile,
    /// Android devices.
    Android,
}

/// The simulated device population, calibrated to the WebGLStats figures
/// the paper cites. The Android gap is dominated by a long tail of older
/// devices with no usable GPU float support.
pub fn population() -> Vec<PopulationEntry> {
    use Platform::*;
    let e = |platform, model: &str, share, gl, gpu| PopulationEntry {
        platform,
        model: model.to_string(),
        share,
        supports_webgl_backend: gl,
        supports_webgpu_backend: gpu,
    };
    vec![
        // Desktop: overwhelmingly supported; a sliver of ancient GPUs or
        // blacklisted drivers is not. WebGPU ships only on the WebGL2-era
        // browsers.
        e(Desktop, "desktop-webgl2", 0.82, true, true),
        e(Desktop, "desktop-webgl1-oes", 0.17, true, false),
        e(Desktop, "desktop-blacklisted-driver", 0.01, false, false),
        // iOS + Windows mobile: Safari exposes 16-bit float textures, which
        // still counts as supported (reduced precision) — but no compute
        // API on any of these profiles.
        e(IosAndWindowsMobile, "ios-safari-f16", 0.90, true, false),
        e(IosAndWindowsMobile, "windows-mobile-webgl1", 0.08, true, false),
        e(IosAndWindowsMobile, "ios-legacy", 0.02, false, false),
        // Android: modern devices support it; a long tail of older devices
        // has no GPU float path at all (the 52% of the paper). Only the
        // WebGL2 cohort carries a compute-capable browser.
        e(Android, "android-webgl2", 0.40, true, true),
        e(Android, "android-webgl1-oes", 0.12, true, false),
        e(Android, "android-legacy-no-float", 0.48, false, false),
    ]
}

/// Fraction of a platform's population able to run the WebGL backend.
pub fn coverage(platform: Platform) -> f64 {
    let pop = population();
    let total: f64 = pop.iter().filter(|p| p.platform == platform).map(|p| p.share).sum();
    let ok: f64 = pop
        .iter()
        .filter(|p| p.platform == platform && p.supports_webgl_backend)
        .map(|p| p.share)
        .sum();
    ok / total
}

/// Fraction of a platform's population able to run the WebGPU compute
/// backend (the Sec 4.3 future-work API). Always ≤ the WebGL coverage:
/// the compute API only exists on the modern end of each platform.
pub fn webgpu_coverage(platform: Platform) -> f64 {
    let pop = population();
    let total: f64 = pop.iter().filter(|p| p.platform == platform).map(|p| p.share).sum();
    let ok: f64 = pop
        .iter()
        .filter(|p| p.platform == platform && p.supports_webgpu_backend)
        .map(|p| p.share)
        .sum();
    ok / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_shares_sum_to_one_per_platform() {
        for platform in [Platform::Desktop, Platform::IosAndWindowsMobile, Platform::Android] {
            let total: f64 =
                population().iter().filter(|p| p.platform == platform).map(|p| p.share).sum();
            assert!((total - 1.0).abs() < 1e-9, "{platform:?} sums to {total}");
        }
    }

    #[test]
    fn coverage_matches_paper_figures() {
        assert!((coverage(Platform::Desktop) - 0.99).abs() < 0.005);
        assert!((coverage(Platform::IosAndWindowsMobile) - 0.98).abs() < 0.005);
        assert!((coverage(Platform::Android) - 0.52).abs() < 0.005);
    }

    #[test]
    fn ios_profile_is_half_precision_webgl1() {
        let p = DeviceProfile::ios_safari();
        assert!(p.supports_float_textures());
        assert!(p.half_precision_only);
        assert!(!p.has_fence_sync, "WebGL 1.0 has no fenceSync");
        assert!(p.has_disjoint_timer_query);
    }

    #[test]
    fn legacy_android_cannot_run_webgl_backend() {
        assert!(!DeviceProfile::android_legacy().supports_float_textures());
    }

    #[test]
    fn webgpu_only_on_modern_profiles() {
        assert!(DeviceProfile::intel_iris_pro().has_webgpu);
        assert!(DeviceProfile::gtx_1080().has_webgpu);
        assert!(DeviceProfile::android_modern().has_webgpu);
        assert!(!DeviceProfile::ios_safari().has_webgpu);
        assert!(!DeviceProfile::android_legacy().has_webgpu);
    }

    #[test]
    fn webgpu_coverage_is_subset_of_webgl_coverage() {
        for platform in [Platform::Desktop, Platform::IosAndWindowsMobile, Platform::Android] {
            assert!(
                webgpu_coverage(platform) <= coverage(platform) + 1e-12,
                "{platform:?}: webgpu coverage must not exceed webgl coverage"
            );
        }
        // Every webgpu-capable entry must also be webgl-capable.
        for p in population() {
            if p.supports_webgpu_backend {
                assert!(p.supports_webgl_backend, "{} claims webgpu without webgl", p.model);
            }
        }
    }

    #[test]
    fn webgpu_coverage_matches_modern_cohorts() {
        assert!((webgpu_coverage(Platform::Desktop) - 0.82).abs() < 0.005);
        assert!((webgpu_coverage(Platform::IosAndWindowsMobile) - 0.0).abs() < 0.005);
        assert!((webgpu_coverage(Platform::Android) - 0.40).abs() < 0.005);
    }

    #[test]
    fn desktop_profiles_support_everything() {
        for p in [DeviceProfile::intel_iris_pro(), DeviceProfile::gtx_1080()] {
            assert!(p.supports_float_textures());
            assert!(!p.half_precision_only);
            assert!(p.has_fence_sync);
        }
    }
}
