//! Figures 2 and 3 of the paper, live: on the webgl backend, a blocking
//! `data_sync()` stalls the simulated browser main thread for the whole
//! GPU computation, while the asynchronous `data()` keeps UI frames
//! flowing and resolves when the device finishes. The main thread's clock
//! is the device's priced timeline, so every figure repeats exactly.
//!
//! ```text
//! cargo run --release --example async_inference
//! ```

use std::sync::Arc;
use std::time::Duration;
use webml::backend_webgl::{WebGlBackend, WebGlConfig};
use webml::core::asyncx::EventLoop;
use webml::prelude::*;
use webml::webgl_sim::devices::DeviceProfile;

fn main() -> webml::Result<()> {
    // Keep the webgl backend: its context's timeline is the event loop's
    // clock.
    let webgl = Arc::new(WebGlBackend::new(DeviceProfile::intel_iris_pro(), WebGlConfig::default())?);
    let engine = Engine::new();
    engine.register_backend("webgl", webgl.clone(), 2);

    // A matmul chain heavy enough to keep the simulated GPU busy a while.
    let a = engine.rand_uniform([192, 192], -1.0, 1.0, 1)?;
    let chain = |a: &Tensor| -> webml::Result<Tensor> {
        let mut y = ops::matmul(a, a, false, false)?;
        for _ in 0..6 {
            y = ops::matmul(&y, a, false, false)?;
        }
        Ok(y)
    };

    let event_loop = EventLoop::new(Duration::from_millis(4), || webgl.context().timeline_ns());

    // Figure 2: synchronous read — the main thread blocks.
    let (result, sync_report) = event_loop.run_sync(
        || chain(&a).expect("enqueue"),
        |y| y.data_sync(),
        Duration::from_millis(40),
    );
    result?;
    println!("Figure 2 (dataSync): main thread BLOCKED {:.1} ms;", sync_report.blocked_ms);
    println!(
        "  frames rendered: {}, longest frame gap: {:.1} ms",
        sync_report.frames_rendered, sync_report.longest_frame_gap_ms
    );

    // Figure 3: asynchronous read — frames keep flowing while the GPU works.
    let (result, async_report) = event_loop.run_async(
        || {
            let y = chain(&a)?;
            y.data()
        },
        Duration::from_millis(40),
    );
    result?;
    println!("\nFigure 3 (data): main thread blocked {:.1} ms;", async_report.blocked_ms);
    println!(
        "  frames rendered: {}, longest frame gap: {:.1} ms, data ready at {:.1} ms",
        async_report.frames_rendered,
        async_report.longest_frame_gap_ms,
        async_report.data_ready_at_ms
    );

    println!(
        "\njank ratio (sync gap / async gap): {:.1}x",
        sync_report.longest_frame_gap_ms / async_report.longest_frame_gap_ms.max(0.01)
    );
    Ok(())
}
