//! Regenerates **Figures 2 and 3**: the main-thread timeline under a
//! blocking `dataSync()` versus an asynchronous `data()` read on the webgl
//! backend, on the integrated-GPU profile's priced device timeline. Every
//! figure is a function of the priced work, so two runs print the same
//! bytes.
//!
//! ```text
//! cargo run --release -p webml-bench --bin async_timeline
//! ```

use std::sync::Arc;
use std::time::Duration;
use webml_backend_webgl::{WebGlBackend, WebGlConfig};
use webml_core::asyncx::EventLoop;
use webml_core::backend::Backend;
use webml_core::{ops, Engine, Tensor};
use webml_webgl_sim::devices::DeviceProfile;

fn heavy_chain(e: &Engine) -> Tensor {
    let a = e.rand_uniform([192, 192], -1.0, 1.0, 1).expect("input");
    let mut y = ops::matmul(&a, &a, false, false).expect("matmul");
    for _ in 0..6 {
        y = ops::matmul(&y, &a, false, false).expect("matmul");
    }
    y
}

fn render_timeline(frames: &[f64], total: f64, width: usize) -> String {
    // One cell per (total/width) ms: '|' if a frame rendered in that slice.
    let mut cells = vec!['.'; width];
    for &t in frames {
        let idx = ((t / total) * width as f64) as usize;
        cells[idx.min(width - 1)] = '|';
    }
    cells.into_iter().collect()
}

fn main() {
    let profile = DeviceProfile::intel_iris_pro();
    let backend = Arc::new(
        WebGlBackend::new(profile.clone(), WebGlConfig::default()).expect("profile hosts webgl"),
    );
    let engine = Engine::new();
    engine.register_backend("webgl", backend.clone(), 1);
    let event_loop = EventLoop::new(Duration::from_millis(4), || backend.context().timeline_ns());
    // The chain's priced kernel time, read apart from the timeline.
    let kernel_ms = || backend.device_timer_ns().expect("timer query") as f64 / 1e6;
    let width = 72;

    println!("clock: the priced device timeline of {} (kernel time plus drains)", profile.name);
    println!("each '|' is a rendered UI frame; '.' is a 1-cell gap (jank)\n");

    let before = kernel_ms();

    let (result, fig2) = event_loop.run_sync(
        || heavy_chain(&engine),
        |y| y.data_sync(),
        Duration::from_millis(48),
    );
    result.expect("sync read");
    let chain_ms = kernel_ms() - before;
    let drain_ms = profile.readback_sync_penalty_ns as f64 / 1e6;
    println!("Figure 2 — tensor.dataSync() blocks the main thread:");
    println!("  {}", render_timeline(&fig2.frame_times_ms, fig2.total_ms, width));
    println!(
        "  blocked {:.3} ms = chain {chain_ms:.3} ms + drain {drain_ms:.3} ms | frames {} | longest gap {:.1} ms\n",
        fig2.blocked_ms, fig2.frames_rendered, fig2.longest_frame_gap_ms
    );

    let (result, fig3) = event_loop.run_async(
        || {
            let y = heavy_chain(&engine);
            y.data()
        },
        Duration::from_millis(48),
    );
    result.expect("async read");
    println!("Figure 3 — tensor.data() releases the main thread:");
    println!("  {}", render_timeline(&fig3.frame_times_ms, fig3.total_ms, width));
    println!(
        "  blocked {:.1} ms | frames {} | longest gap {:.1} ms | promise resolved at {:.3} ms",
        fig3.blocked_ms, fig3.frames_rendered, fig3.longest_frame_gap_ms, fig3.data_ready_at_ms
    );

    println!(
        "\njank ratio (sync longest gap / async longest gap): {:.1}x",
        fig2.longest_frame_gap_ms / fig3.longest_frame_gap_ms.max(0.01)
    );
}
