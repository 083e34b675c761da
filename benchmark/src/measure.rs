//! Measurement plumbing shared by the workloads: order statistics, the
//! latency/throughput recorder, benchmark-owned spans, the metric map and
//! the host ALU probe. Every time here is raw host wall clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What a measured phase collects: one latency per completed op, one rate
/// per window, and the attempt/failure ledger behind `failed_share`.
#[derive(Default)]
pub struct Recorder {
    pub op_ms: Vec<f64>,
    /// Per window: completed ops per second, and the median of the
    /// latencies recorded since the window before.
    pub window_rates: Vec<f64>,
    pub window_p50_ms: Vec<f64>,
    window_start: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Recorder {
    /// Count one attempted op: its milliseconds when it succeeded; a
    /// failure keeps the first reason for the error line.
    pub fn sample(&mut self, outcome: Result<f64, String>) -> Option<f64> {
        self.attempted += 1;
        match outcome {
            Ok(ms) => Some(ms),
            Err(why) => {
                self.failed += 1;
                self.first_error.get_or_insert(why);
                None
            }
        }
    }

    /// An attempted op of the latency stream.
    pub fn op(&mut self, outcome: Result<f64, String>) {
        let ms = self.sample(outcome);
        self.op_ms.extend(ms);
    }

    /// An attempted op outside the latency stream (cold journeys, the
    /// sequential pass, the heavy half of the fleet mix).
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.sample(outcome.map(|()| 0.0));
    }

    /// Close a window: `done` ops completed in `secs`.
    pub fn window(&mut self, done: u64, secs: f64) {
        self.window_rates
            .push(if secs > 0.0 { done as f64 / secs } else { 0.0 });
        self.window_p50_ms
            .push(median(&self.op_ms[self.window_start..]));
        self.window_start = self.op_ms.len();
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.op_ms.extend(other.op_ms);
        self.window_rates.extend(other.window_rates);
        self.window_p50_ms.extend(other.window_p50_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// One benchmark-owned span: a call into a layer, timed from outside it.
#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The op (request, step) the span belongs to.
    pub op: u64,
}

/// Spans kept in memory and written out when the benchmark ends. A tracer
/// that is off records nothing and costs one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`; ops that overlap (a pipelined window)
    /// cannot use the call stack, so they pass their own op span here.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Time `f` as a span named `name` under the currently open span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let parent = self.stack.last().copied();
        self.under(parent, name, op, f)
    }

    /// Time `f` as a span named `name` under an explicit parent.
    pub fn under<R>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.begin(name, op, parent);
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.end(id);
        r
    }

    /// Append another thread's spans, keeping its parent links valid.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name in ms: a span's duration minus the part its
    /// children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Total duration per span name in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    pub fn to_json(&self) -> serde_json::Value {
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                serde_json::json!({
                    "id": id,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map(|p| p as i64).unwrap_or(-1),
                    "op": s.op,
                })
            })
            .collect();
        serde_json::Value::Array(spans)
    }
}

/// Metric values by name; the printer looks every declared name up here.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// The host-speed reference: a fixed, benchmark-owned 3x3 convolution
/// (scalar f32 multiply-adds over a working set that fits L2), timed on the
/// measuring thread around every window.
///
/// This VM's speed moves by 20 to 40% for minutes at a time, all workloads
/// together, and no statistic inside one run can undo that. A dependent ALU
/// chain does not follow those moves; this loop does, but it swings about
/// twice as far as the workloads (it has nothing to wait for), so times are
/// scaled by the square root of what it reads. On twenty interleaved runs
/// per workload that took the quartile spread of every timing from 7..26%
/// to 5..10%; see `benchmark/README.md`. Later changes may not edit this
/// loop: it is the yardstick, not the code under test.
pub struct HostProbe {
    input: Vec<f32>,
    weights: Vec<f32>,
    out: Vec<f32>,
}

impl HostProbe {
    const SIDE: usize = 34;
    const CHANNELS: usize = 16;
    const REPS: usize = 8;
    /// What one probe takes on this host in its usual state. Times are
    /// multiplied by `REFERENCE_MS / probe ms`, so this constant only sets
    /// the scale: reported and raw milliseconds agree when the host is in
    /// that state.
    pub const REFERENCE_MS: f64 = 10.0;

    pub fn new() -> HostProbe {
        let (h, c) = (Self::SIDE, Self::CHANNELS);
        HostProbe {
            input: (0..h * h * c).map(|i| (i % 13) as f32 * 0.1).collect(),
            weights: (0..9 * c * c).map(|i| (i % 7) as f32 * 0.01).collect(),
            out: vec![0.0; (h - 2) * (h - 2) * c],
        }
    }

    /// Milliseconds one probe takes now.
    pub fn ms(&mut self) -> f64 {
        let (h, c, o) = (Self::SIDE, Self::CHANNELS, Self::SIDE - 2);
        let t = Instant::now();
        for _ in 0..Self::REPS {
            for y in 0..o {
                for x in 0..o {
                    for oc in 0..c {
                        let mut acc = 0.0f32;
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let pixel = ((y + ky) * h + (x + kx)) * c;
                                let tap = (ky * 3 + kx) * c * c + oc;
                                for ic in 0..c {
                                    acc += self.input[pixel + ic] * self.weights[tap + ic * c];
                                }
                            }
                        }
                        self.out[(y * o + x) * c + oc] = acc;
                    }
                }
            }
            std::hint::black_box(&mut self.out);
        }
        ms_since(t)
    }

    /// Host speed relative to the reference state around a piece of work,
    /// below 1 when the host is slow. `before` and `after` are probe times.
    pub fn speed(before: f64, after: f64) -> f64 {
        Self::REFERENCE_MS / ((before + after) / 2.0)
    }

    /// What a time measured at `speed` is multiplied by, and a rate divided
    /// by, to read as at reference speed.
    pub fn correction(speed: f64) -> f64 {
        speed.sqrt()
    }
}
