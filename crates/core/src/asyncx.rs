//! A browser main-thread (event-loop) simulator, used to reproduce the
//! timelines of Figures 2 and 3 of the paper.
//!
//! The browser UI thread must keep rendering frames (~60 fps). A blocking
//! `tensor.dataSync()` stalls it for the whole GPU computation (Figure 2);
//! the asynchronous `tensor.data()` releases it, so frames keep rendering
//! while the device works and the promise resolves at the end (Figure 3).
//!
//! [`EventLoop`] keeps simulated time, read from a clock it is given: a
//! device's priced timeline (`GpgpuContext::timeline_ns` in
//! `webml-webgl-sim`), sampled when the device has run everything
//! submitted. Enqueuing an op costs the main thread nothing; a blocking read
//! holds it for the timeline's advance across the read; frames fall at
//! k × the frame interval. So each report is a function of the priced work
//! and the same on every host and every run.

use crate::backend::DataFuture;
use crate::dtype::TensorData;
use crate::error::Result;
use std::time::Duration;

/// Statistics of one simulated main-thread run.
#[derive(Debug, Clone, Default)]
pub struct TimelineReport {
    /// Total simulated time of the run, in milliseconds.
    pub total_ms: f64,
    /// Timestamps (ms from start) when each frame was rendered.
    pub frame_times_ms: Vec<f64>,
    /// Number of frames rendered.
    pub frames_rendered: usize,
    /// Largest gap between consecutive frames (ms): the "jank" measure.
    /// Under a blocking read it is at least the whole blocked time; under
    /// an async read it is the frame interval.
    pub longest_frame_gap_ms: f64,
    /// Milliseconds the main thread spent blocked inside a synchronous read.
    pub blocked_ms: f64,
    /// When the tensor data became available (ms from start).
    pub data_ready_at_ms: f64,
}

/// A simulated browser event loop rendering frames at a fixed interval on
/// the time `clock` reads, in nanoseconds.
pub struct EventLoop<C> {
    frame_interval_ns: u64,
    clock: C,
}

impl<C: Fn() -> u64> EventLoop<C> {
    /// Event loop rendering a frame every `frame_interval` of the time
    /// `clock` reads.
    pub fn new(frame_interval: Duration, clock: C) -> EventLoop<C> {
        EventLoop { frame_interval_ns: (frame_interval.as_nanos() as u64).max(1), clock }
    }

    /// Reproduce **Figure 2**: enqueue device work via `enqueue` (an op
    /// call, which costs the main thread nothing), then perform a
    /// *blocking* read with `read_sync`, then keep rendering frames for
    /// `tail`.
    ///
    /// The main thread renders no frame from the start of the read until
    /// the data arrives, so `longest_frame_gap_ms` is at least
    /// `blocked_ms`.
    pub fn run_sync<T>(
        &self,
        enqueue: impl FnOnce() -> T,
        read_sync: impl FnOnce(&T) -> Result<TensorData>,
        tail: Duration,
    ) -> (Result<TensorData>, TimelineReport) {
        let start = (self.clock)();
        let handle = enqueue();
        let data = read_sync(&handle);
        let ready = (self.clock)().saturating_sub(start);
        (data, self.report(ready, ready, tail))
    }

    /// Reproduce **Figure 3**: enqueue device work returning a
    /// [`DataFuture`]; the main thread never blocks and renders every frame
    /// while the device works, and the promise resolves when the device is
    /// done.
    pub fn run_async(
        &self,
        enqueue: impl FnOnce() -> Result<DataFuture>,
        tail: Duration,
    ) -> (Result<TensorData>, TimelineReport) {
        let start = (self.clock)();
        let data = enqueue().and_then(|future| future.wait());
        let ready = (self.clock)().saturating_sub(start);
        (data, self.report(ready, 0, tail))
    }

    /// The frames of a run whose data arrived at `ready_ns` and whose main
    /// thread was blocked from 0 to `blocked_ns`: frame 0, then every frame
    /// from the end of the block to the end of the tail.
    fn report(&self, ready_ns: u64, blocked_ns: u64, tail: Duration) -> TimelineReport {
        let end = ready_ns + tail.as_nanos() as u64;
        let interval = self.frame_interval_ns;
        let frames: Vec<u64> = (0..end.div_ceil(interval).max(1))
            .map(|k| k * interval)
            .filter(|&t| t == 0 || t >= blocked_ns)
            .collect();
        let last = frames[frames.len() - 1];
        let gaps = frames.windows(2).map(|w| w[1] - w[0]);
        let longest = gaps.chain([end.saturating_sub(last)]).max().unwrap_or(0);
        let ms = |ns: u64| ns as f64 / 1e6;
        TimelineReport {
            total_ms: ms(end),
            frame_times_ms: frames.iter().map(|&t| ms(t)).collect(),
            frames_rendered: frames.len(),
            longest_frame_gap_ms: ms(longest),
            blocked_ms: ms(blocked_ns),
            data_ready_at_ms: ms(ready_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DataFuture;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const MS: u64 = 1_000_000;

    #[test]
    fn sync_read_blocks_frames() {
        // The scripted device takes 40 ms to answer the blocking read.
        let now = Cell::new(5 * MS);
        let lp = EventLoop::new(Duration::from_millis(2), || now.get());
        let (data, report) = lp.run_sync(
            || (),
            |_| {
                now.set(now.get() + 40 * MS);
                Ok(TensorData::F32(vec![1.0]))
            },
            Duration::from_millis(10),
        );
        assert!(data.is_ok());
        assert_eq!(report.blocked_ms, 40.0);
        assert_eq!(report.data_ready_at_ms, 40.0);
        assert_eq!(report.frame_times_ms, [0.0, 40.0, 42.0, 44.0, 46.0, 48.0]);
        assert_eq!(report.longest_frame_gap_ms, 40.0);
        assert_eq!(report.total_ms, 50.0);
    }

    #[test]
    fn async_read_keeps_frames_flowing() {
        let now = Arc::new(AtomicU64::new(0));
        let lp = EventLoop::new(Duration::from_millis(2), || now.load(Ordering::SeqCst));
        let (fut, promise) = DataFuture::pending();
        // Once the read is enqueued, the scripted device resolves the
        // promise 40 ms on.
        let ((enqueued, wake), device) = (std::sync::mpsc::channel(), now.clone());
        let worker = std::thread::spawn(move || {
            wake.recv().unwrap();
            device.store(40 * MS, Ordering::SeqCst);
            promise.complete(Ok(TensorData::F32(vec![2.0])));
        });
        let enqueue = move || {
            enqueued.send(()).unwrap();
            Ok(fut)
        };
        let (data, report) = lp.run_async(enqueue, Duration::from_millis(10));
        worker.join().unwrap();
        assert_eq!(data.unwrap(), TensorData::F32(vec![2.0]));
        assert_eq!(report.blocked_ms, 0.0);
        assert_eq!(report.data_ready_at_ms, 40.0);
        // A frame every 2 ms of the 50, through the device's 40.
        assert_eq!(report.frames_rendered, 25);
        assert_eq!(report.longest_frame_gap_ms, 2.0);
    }
}
