//! The four workloads behind one interface, so one driver measures them all.

pub mod fleet;
pub mod infer;
pub mod train;

use crate::measure::{Metrics, Recorder, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use webml_core::cpu::CpuBackend;
use webml_core::Engine;

/// What the driver hands a workload after its traced pass.
pub struct TracedPass<'a> {
    pub tracer: &'a Tracer,
    /// Self time per span name in ms, over the whole trace.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Ops completed in the pass.
    pub ops: u64,
    /// Wall seconds the pass took.
    pub secs: f64,
    /// Wall ms per op inside kernel calls, as the engines counted them.
    pub kernel_ms_per_op: f64,
    /// `(count, sum of the numeric argument)` per name of the telemetry
    /// events the program itself recorded during the pass.
    pub events: &'a BTreeMap<&'static str, (u64, f64)>,
}

impl TracedPass<'_> {
    /// `total / ops`, 0 when the pass completed nothing.
    pub fn per_op(&self, total: f64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            total / self.ops as f64
        }
    }

    pub fn event(&self, name: &str) -> (u64, f64) {
        self.events.get(name).copied().unwrap_or((0, 0.0))
    }

    /// Self time of the spans named `name`, per op, in ms.
    pub fn self_ms_per_op(&self, name: &str) -> f64 {
        self.per_op(self.self_ms.get(name).copied().unwrap_or(0.0))
    }
}

pub trait Workload: Sized {
    /// Everything from nothing to the end of warm-up: specs, inputs from
    /// `seed`, `cpu`-oracle outputs, engines, models, warm ops.
    fn setup(seed: u64) -> Self;

    /// One cold journey on a fresh engine, model in memory to first correct
    /// result; returns its milliseconds, or why the result was wrong.
    fn cold(&mut self, k: u64, tr: &mut Tracer) -> Result<f64, String>;

    /// Run ops until `until`: one latency per op and one rate per call go
    /// to `rec`, every output is checked against the oracle.
    fn window(&mut self, until: Instant, rec: &mut Recorder, tr: &mut Tracer);

    /// Twenty ops one at a time; returns `Engine::peak_bytes()` above the
    /// level before the pass.
    fn sequential_peak(&mut self, rec: &mut Recorder) -> u64;

    /// Snapshot the layers' counters: the traced pass starts now.
    fn begin_traced(&mut self);

    /// Layer metrics of the traced pass that just ended.
    fn layer_metrics(&mut self, pass: &TracedPass, out: &mut Metrics);

    /// Tensors alive now that were not alive at the end of warm-up.
    fn leaked_tensors(&self) -> i64;

    /// Dispose the models and stop every thread the workload started.
    fn finish(self);
}

/// The reference engine every output is compared with.
pub fn cpu_engine() -> Engine {
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    e
}

/// Bitwise comparison with the oracle; the message names the first
/// difference so a wrong answer is easy to find.
pub fn same_bits(got: &[f32], want: &[f32], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, oracle has {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: value {i} is {} but the cpu oracle says {}",
            got[i], want[i]
        )),
    }
}
