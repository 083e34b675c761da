//! Text report of every design-choice ablation:
//!
//! - **E-pack**: RGBA texel packing on/off (paper: 1.3-1.4x on PoseNet)
//! - **E-map**: layout squeeze optimization on/off (paper: ~1.3x)
//! - **E-recycle**: texture recycler on/off
//! - **E-page**: paging overhead under a tight GPU budget
//! - **E-gap**: per-thread webgl (no shared memory) vs native blocked
//!
//! ```text
//! cargo run --release -p webml-bench --bin ablations
//! ```

#![allow(clippy::field_reassign_with_default)] // ablations toggle single config fields

use std::sync::Arc;
use std::time::Instant;
use webml_backend_webgl::{WebGlBackend, WebGlConfig};
use webml_bench::harness::TableBackend;
use webml_core::conv_util::Padding;
use webml_core::{ops, Engine};
use webml_webgl_sim::devices::DeviceProfile;
use webml_webgl_sim::pager::PagingPolicy;

fn webgl_engine(configure: impl FnOnce(&mut WebGlConfig)) -> Engine {
    let e = Engine::new();
    let mut config = WebGlConfig::default();
    configure(&mut config);
    let backend = WebGlBackend::new(DeviceProfile::intel_iris_pro(), config).expect("device");
    e.register_backend("webgl", Arc::new(backend), 1);
    e
}

fn time_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let t0 = Instant::now();
    for _ in 0..runs {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / runs as f64
}

fn report(name: &str, baseline_label: &str, baseline_ms: f64, variant_label: &str, variant_ms: f64) {
    println!(
        "{name}: {baseline_label} {baseline_ms:.2} ms vs {variant_label} {variant_ms:.2} ms -> {:.2}x",
        baseline_ms / variant_ms
    );
}

fn posenet_like_pass(e: &Engine) {
    e.tidy(|| {
        let x = e.rand_uniform([1, 64, 64, 3], -1.0, 1.0, 1).unwrap();
        let w1 = e.rand_uniform([3, 3, 3, 8], -0.5, 0.5, 2).unwrap();
        let w2 = e.rand_uniform([3, 3, 8, 16], -0.5, 0.5, 3).unwrap();
        let y = ops::conv2d(&x, &w1, (2, 2), Padding::Same, (1, 1)).unwrap();
        let y = ops::relu6(&y).unwrap();
        let y = ops::conv2d(&y, &w2, (2, 2), Padding::Same, (1, 1)).unwrap();
        let y = ops::relu6(&y).unwrap();
        let y = ops::add(&y, &y).unwrap();
        let _ = y.data_sync().unwrap();
    });
}

fn main() {
    let runs = 12;

    // E-pack.
    let packed = webgl_engine(|c| c.packing = true);
    let unpacked = webgl_engine(|c| c.packing = false);
    let t_packed = time_ms(runs, || posenet_like_pass(&packed));
    let t_unpacked = time_ms(runs, || posenet_like_pass(&unpacked));
    report("E-pack   texel packing (paper 1.3-1.4x)", "unpacked", t_unpacked, "packed", t_packed);

    // E-map.
    let squeezed = webgl_engine(|c| c.squeeze_layout = true);
    let naive = webgl_engine(|c| c.squeeze_layout = false);
    let unit_dim_pass = |e: &Engine| {
        e.tidy(|| {
            let x = e.rand_uniform([1, 96, 1, 64], -1.0, 1.0, 1).unwrap();
            let s = e.rand_uniform([1, 96, 1, 1], 0.5, 1.5, 2).unwrap();
            let b = e.rand_uniform([1, 1, 1, 64], -0.5, 0.5, 3).unwrap();
            let y = ops::add(&ops::mul(&x, &s).unwrap(), &b).unwrap();
            let z = ops::mul(&y, &s).unwrap();
            let _ = z.data_sync().unwrap();
        });
    };
    let t_squeezed = time_ms(runs, || unit_dim_pass(&squeezed));
    let t_naive = time_ms(runs, || unit_dim_pass(&naive));
    report("E-map    layout squeeze (paper ~1.3x)", "naive map", t_naive, "squeezed", t_squeezed);

    // E-recycle.
    let recycle_on = webgl_engine(|c| c.recycling = true);
    let recycle_off = webgl_engine(|c| c.recycling = false);
    // Repeated same-shape passes; the avoided cost is the driver-side
    // texture allocation, which the simulator charges to *device time*
    // (paper: "disposing and re-allocating WebGL textures is relatively
    // expensive"). Reported in simulated device ms, like Table 1's GPU rows.
    let model_pass = |e: &Engine, x: &webml_core::Tensor| {
        e.tidy(|| {
            let mut y = ops::relu(x).unwrap();
            for _ in 0..7 {
                y = ops::add(&y, x).unwrap();
            }
            let _ = y.data_sync().unwrap();
        });
    };
    let device_ms = |e: &Engine, x: &webml_core::Tensor| -> f64 {
        model_pass(e, x); // warmup
        let mut total = 0.0;
        for _ in 0..runs {
            let (_, t) = e.time(|| model_pass(e, x));
            total += t.kernel_ms;
        }
        total / runs as f64
    };
    let x_on = recycle_on.rand_uniform([64 * 64 * 16], -1.0, 1.0, 1).unwrap();
    let x_off = recycle_off.rand_uniform([64 * 64 * 16], -1.0, 1.0, 1).unwrap();
    let t_on = device_ms(&recycle_on, &x_on);
    let t_off = device_ms(&recycle_off, &x_off);
    report("E-recycle texture recycler (device time)", "recycler off", t_off, "recycler on", t_on);

    // E-page.
    let no_page = webgl_engine(|c| c.paging = PagingPolicy::disabled());
    let tight = webgl_engine(|c| {
        c.paging = PagingPolicy { enabled: true, threshold_bytes: 96 * 1024 };
    });
    let working_set = |e: &Engine| {
        let set: Vec<_> =
            (0..8).map(|i| e.fill([16_384], i as f32, webml_core::DType::F32).unwrap()).collect();
        let t = time_ms(6, || {
            for t in &set {
                let y = ops::sum(t, None, false).unwrap();
                let _ = y.to_scalar().unwrap();
                y.dispose();
            }
        });
        for t in &set {
            t.dispose();
        }
        t
    };
    let t_free = working_set(&no_page);
    let t_tight = working_set(&tight);
    report("E-page   paging under tight budget", "unconstrained", t_free, "tight budget", t_tight);
    println!("         (ratios < 1x are the cost of staying alive past the GPU budget)");

    // E-gap: per-thread matmul, no shared memory vs blocked.
    let gl1 = {
        let e = Engine::new();
        let mut p = DeviceProfile::intel_iris_pro();
        p.parallelism = 1;
        e.register_backend("webgl", Arc::new(WebGlBackend::new(p, WebGlConfig::default()).unwrap()), 1);
        e
    };
    let (nt1, _) = TableBackend::NativeSingleThread.engine();
    let matmul_pass = |e: &Engine| {
        e.tidy(|| {
            let a = e.rand_uniform([128, 128], -1.0, 1.0, 1).unwrap();
            let b = e.rand_uniform([128, 128], -1.0, 1.0, 2).unwrap();
            let y = ops::matmul(&a, &b, false, false).unwrap();
            let _ = y.data_sync().unwrap();
        });
    };
    let t_gl = time_ms(runs, || matmul_pass(&gl1));
    let t_nt = time_ms(runs, || matmul_pass(&nt1));
    report(
        "E-gap    per-thread matmul 128 (paper 3-10x)",
        "webgl (no shared mem)",
        t_gl,
        "native (blocked)",
        t_nt,
    );
}
