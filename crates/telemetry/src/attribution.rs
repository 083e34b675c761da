//! Tail-latency attribution: per-request phase timelines aggregated into
//! per-model, per-phase histograms.
//!
//! The serving layers stamp seven wall-clock timestamps on every request
//! as it moves through the system (submit → admission → queue drain →
//! batch formation → upload → compute → readback/reply). A finished
//! [`RequestTimeline`] is fed to [`record_request`], which folds the six
//! phase durations into per-model histograms and mirrors them into the
//! metrics registry as `webml_attr_phase_ms{model=...,phase=...}`.
//! [`attribution_report`] then answers the question tracing alone cannot:
//! *which phase dominates this model's p99?*
//!
//! Recording is a handful of relaxed atomics under one short mutex — cheap
//! enough to stay on.

use crate::metrics::{histogram_labeled, Histogram, HistogramSummary};
use parking_lot::Mutex;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The six attributed phases, in timeline order. Durations are the
/// differences of consecutive timeline timestamps.
pub const PHASE_NAMES: [&str; 6] =
    ["admission", "queue", "batch_form", "upload", "compute", "readback"];

/// Terminal outcome of a request, mirroring the serving error taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Answered successfully.
    Completed,
    /// Refused by admission control / load shedding (never executed).
    Shed,
    /// Deadline expired before completion.
    DeadlineExceeded,
    /// Rejected as invalid (bad shape, unknown model, ...).
    Rejected,
    /// Failed with a caller-visible engine error.
    Error,
}

impl RequestOutcome {
    /// Stable lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RequestOutcome::Completed => "completed",
            RequestOutcome::Shed => "shed",
            RequestOutcome::DeadlineExceeded => "deadline_exceeded",
            RequestOutcome::Rejected => "rejected",
            RequestOutcome::Error => "error",
        }
    }
}

/// Execution-phase timestamps stamped by a batch (or single-request)
/// executor and copied onto every member's [`RequestTimeline`]. All values
/// are [`crate::now_ns`] clocks; 0 means "never reached".
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStamps {
    /// Execution began (inputs about to be concatenated/uploaded).
    pub exec_start_ns: u64,
    /// Host→device upload finished (input tensors created).
    pub upload_end_ns: u64,
    /// Device compute finished (the compute fence passed). Readback ends
    /// at the timeline's `done_ns`.
    pub compute_end_ns: u64,
}

/// One request's phase timeline, keyed by its trace id. Built up by the
/// serving layers as the request moves through the system and finalized at
/// reply time.
#[derive(Clone, Copy, Debug)]
pub struct RequestTimeline {
    /// The request's trace id (joins this timeline to its trace spans).
    pub trace_id: u64,
    /// Trace id of the batch/dispatch context that executed it (0 = none).
    pub parent_span: u64,
    /// Model identity (the serving layer's model key).
    pub model: u64,
    /// Request entered the front door.
    pub submitted_ns: u64,
    /// Admission control accepted it onto a queue.
    pub admitted_ns: u64,
    /// A dispatcher drained it off the queue.
    pub drained_ns: u64,
    /// Its batch began executing.
    pub exec_start_ns: u64,
    /// Inputs finished uploading.
    pub upload_end_ns: u64,
    /// Device compute finished.
    pub compute_end_ns: u64,
    /// Reply sent (readback complete for successful requests).
    pub done_ns: u64,
    /// Size of the batch it executed in (1 for singles; 0 if it never
    /// reached execution).
    pub batch_size: u32,
    /// Terminal outcome.
    pub outcome: RequestOutcome,
}

impl RequestTimeline {
    /// A fresh timeline for `trace_id` on `model`, all timestamps unset.
    pub fn new(trace_id: u64, parent_span: u64, model: u64) -> RequestTimeline {
        RequestTimeline {
            trace_id,
            parent_span,
            model,
            submitted_ns: 0,
            admitted_ns: 0,
            drained_ns: 0,
            exec_start_ns: 0,
            upload_end_ns: 0,
            compute_end_ns: 0,
            done_ns: 0,
            batch_size: 0,
            outcome: RequestOutcome::Error,
        }
    }

    /// Copy an executor's [`PhaseStamps`] onto this timeline.
    pub fn apply_stamps(&mut self, stamps: &PhaseStamps) {
        self.exec_start_ns = stamps.exec_start_ns;
        self.upload_end_ns = stamps.upload_end_ns;
        self.compute_end_ns = stamps.compute_end_ns;
    }

    /// The seven timestamps in timeline order.
    fn stamps(&self) -> [u64; 7] {
        [
            self.submitted_ns,
            self.admitted_ns,
            self.drained_ns,
            self.exec_start_ns,
            self.upload_end_ns,
            self.compute_end_ns,
            self.done_ns,
        ]
    }

    /// `(phase name, duration ns)` for the six phases. Meaningful only
    /// when [`RequestTimeline::is_complete`].
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        let t = self.stamps();
        let mut out = [("", 0u64); 6];
        for i in 0..6 {
            out[i] = (PHASE_NAMES[i], t[i + 1].saturating_sub(t[i]));
        }
        out
    }

    /// Whether every phase timestamp was stamped, in monotone order — i.e.
    /// the full queue→admission→batch→upload→compute→readback path can be
    /// reconstructed from this one record.
    pub fn is_complete(&self) -> bool {
        let t = self.stamps();
        t.iter().all(|&x| x > 0) && t.windows(2).all(|w| w[0] <= w[1])
    }
}

struct ModelAttr {
    label: String,
    /// One histogram per phase (ms), plus end-to-end latency.
    phase_hists: [Histogram; 6],
    total: Histogram,
    /// Registry mirrors (resolved once, so recording takes no registry
    /// lock). Refreshed when the label changes.
    phase_series: [Arc<Histogram>; 6],
    complete: u64,
    incomplete: u64,
    outcomes: [u64; 5],
}

fn series_for(label: &str) -> [Arc<Histogram>; 6] {
    std::array::from_fn(|i| {
        histogram_labeled("webml_attr_phase_ms", &[("model", label), ("phase", PHASE_NAMES[i])])
    })
}

impl ModelAttr {
    fn new(model: u64) -> ModelAttr {
        let label = format!("model_{model:08x}");
        let phase_series = series_for(&label);
        ModelAttr {
            label,
            phase_hists: std::array::from_fn(|_| Histogram::new()),
            total: Histogram::new(),
            phase_series,
            complete: 0,
            incomplete: 0,
            outcomes: [0; 5],
        }
    }
}

fn outcome_slot(o: RequestOutcome) -> usize {
    match o {
        RequestOutcome::Completed => 0,
        RequestOutcome::Shed => 1,
        RequestOutcome::DeadlineExceeded => 2,
        RequestOutcome::Rejected => 3,
        RequestOutcome::Error => 4,
    }
}

fn models() -> &'static Mutex<HashMap<u64, ModelAttr>> {
    static MODELS: OnceLock<Mutex<HashMap<u64, ModelAttr>>> = OnceLock::new();
    MODELS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Give `model` a human-readable label in reports and the
/// `webml_attr_phase_ms{model=...}` registry series (default:
/// `model_<hex>`).
pub fn set_model_label(model: u64, label: &str) {
    let mut map = models().lock();
    let attr = map.entry(model).or_insert_with(|| ModelAttr::new(model));
    if attr.label != label {
        attr.label = label.to_owned();
        attr.phase_series = series_for(label);
    }
}

/// Fold one finished request timeline into the per-model aggregates.
/// Completed requests with a fully-stamped monotone timeline contribute
/// their six phase durations; completed requests with holes are counted as
/// incomplete (the attribution completeness ratio CI gates on). Other
/// outcomes are tallied but contribute no phase samples.
pub fn record_request(tl: &RequestTimeline) {
    let mut map = models().lock();
    let attr = map.entry(tl.model).or_insert_with(|| ModelAttr::new(tl.model));
    attr.outcomes[outcome_slot(tl.outcome)] += 1;
    if tl.outcome != RequestOutcome::Completed {
        return;
    }
    if !tl.is_complete() {
        attr.incomplete += 1;
        return;
    }
    attr.complete += 1;
    for (i, (_, dur_ns)) in tl.phases().iter().enumerate() {
        let ms = *dur_ns as f64 / 1e6;
        attr.phase_hists[i].observe(ms);
        attr.phase_series[i].observe(ms);
    }
    attr.total.observe(tl.done_ns.saturating_sub(tl.submitted_ns) as f64 / 1e6);
}

/// Per-phase summary inside a [`ModelAttributionReport`].
#[derive(Clone, Debug)]
pub struct PhaseSummary {
    /// Phase name (one of [`PHASE_NAMES`]).
    pub phase: &'static str,
    /// Latency summary in milliseconds.
    pub summary: HistogramSummary,
}

/// Attribution aggregate for one model.
#[derive(Clone, Debug)]
pub struct ModelAttributionReport {
    /// Model key.
    pub model: u64,
    /// Human label (see [`set_model_label`]).
    pub label: String,
    /// Completed requests whose full timeline reconstructed.
    pub complete: u64,
    /// Completed requests with a hole in the timeline.
    pub incomplete: u64,
    /// `(outcome name, count)` for every outcome seen.
    pub outcomes: Vec<(&'static str, u64)>,
    /// End-to-end latency (ms) over complete requests.
    pub total: HistogramSummary,
    /// Per-phase latency summaries (ms), timeline order.
    pub phases: Vec<PhaseSummary>,
    /// Phase with the largest p50 ("" when no complete requests).
    pub dominant_p50: &'static str,
    /// Phase with the largest p95.
    pub dominant_p95: &'static str,
    /// Phase with the largest p99 — the tail-latency culprit.
    pub dominant_p99: &'static str,
}

impl ModelAttributionReport {
    /// Fraction of completed requests whose timeline fully reconstructed.
    pub fn completeness(&self) -> f64 {
        let total = self.complete + self.incomplete;
        if total == 0 {
            return 1.0;
        }
        self.complete as f64 / total as f64
    }
}

/// The full attribution report across models.
#[derive(Clone, Debug, Default)]
pub struct AttributionReport {
    /// Sum of per-model complete counts.
    pub total_complete: u64,
    /// Sum of per-model incomplete counts.
    pub total_incomplete: u64,
    /// Per-model breakdowns, sorted by model key.
    pub models: Vec<ModelAttributionReport>,
}

impl AttributionReport {
    /// Look up a model's report by label.
    pub fn model(&self, label: &str) -> Option<&ModelAttributionReport> {
        self.models.iter().find(|m| m.label == label)
    }

    /// The report as a JSON value (embedded in BENCH_SLO.json and flight
    /// snapshots).
    pub fn to_json(&self) -> Value {
        let summary_json = |s: &HistogramSummary| {
            json!({
                "count": s.count,
                "mean_ms": s.mean,
                "p50_ms": s.p50,
                "p95_ms": s.p95,
                "p99_ms": s.p99,
            })
        };
        let models: Vec<Value> = self
            .models
            .iter()
            .map(|m| {
                let phases: Vec<Value> = m
                    .phases
                    .iter()
                    .map(|p| {
                        let mut obj = summary_json(&p.summary);
                        if let Value::Object(entries) = &mut obj {
                            entries.insert(0, ("phase".to_owned(), json!(p.phase)));
                        }
                        obj
                    })
                    .collect();
                let outcomes: Vec<Value> =
                    m.outcomes.iter().map(|(name, n)| json!({ "outcome": *name, "count": *n })).collect();
                json!({
                    "model": m.model,
                    "label": m.label.clone(),
                    "complete": m.complete,
                    "incomplete": m.incomplete,
                    "completeness": m.completeness(),
                    "outcomes": Value::Array(outcomes),
                    "total": summary_json(&m.total),
                    "phases": Value::Array(phases),
                    "dominant_p50": m.dominant_p50,
                    "dominant_p95": m.dominant_p95,
                    "dominant_p99": m.dominant_p99,
                })
            })
            .collect();
        json!({
            "total_complete": self.total_complete,
            "total_incomplete": self.total_incomplete,
            "models": Value::Array(models),
        })
    }
}

fn dominant_at(hists: &[Histogram; 6], q: f64) -> &'static str {
    let mut best = "";
    let mut best_v = f64::NEG_INFINITY;
    for (i, h) in hists.iter().enumerate() {
        if let Some(v) = h.try_quantile(q) {
            if v > best_v {
                best_v = v;
                best = PHASE_NAMES[i];
            }
        }
    }
    best
}

/// Build the current [`AttributionReport`] from the per-model aggregates.
pub fn attribution_report() -> AttributionReport {
    let map = models().lock();
    let mut report = AttributionReport::default();
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let attr = &map[&key];
        report.total_complete += attr.complete;
        report.total_incomplete += attr.incomplete;
        let phases = (0..6)
            .map(|i| PhaseSummary { phase: PHASE_NAMES[i], summary: attr.phase_hists[i].summary() })
            .collect();
        let outcomes = (0..5)
            .filter(|&i| attr.outcomes[i] > 0)
            .map(|i| {
                let name = [
                    RequestOutcome::Completed,
                    RequestOutcome::Shed,
                    RequestOutcome::DeadlineExceeded,
                    RequestOutcome::Rejected,
                    RequestOutcome::Error,
                ][i]
                    .name();
                (name, attr.outcomes[i])
            })
            .collect();
        report.models.push(ModelAttributionReport {
            model: key,
            label: attr.label.clone(),
            complete: attr.complete,
            incomplete: attr.incomplete,
            outcomes,
            total: attr.total.summary(),
            phases,
            dominant_p50: dominant_at(&attr.phase_hists, 0.50),
            dominant_p95: dominant_at(&attr.phase_hists, 0.95),
            dominant_p99: dominant_at(&attr.phase_hists, 0.99),
        });
    }
    report
}

/// Per-model `(complete, incomplete)` counts — exact assertions for tests
/// that own a unique model key while other traffic runs in parallel.
pub fn model_counts(model: u64) -> (u64, u64) {
    let map = models().lock();
    map.get(&model).map(|a| (a.complete, a.incomplete)).unwrap_or((0, 0))
}

/// Drop all attribution state (between benchmark phases).
pub fn reset_attribution() {
    models().lock().clear();
}

/// A timeline as JSON (shared with the flight recorder's snapshots).
pub fn timeline_json(tl: &RequestTimeline) -> Value {
    let phases: Vec<Value> = if tl.is_complete() {
        tl.phases().iter().map(|(name, ns)| json!({ "phase": *name, "ns": *ns })).collect()
    } else {
        Vec::new()
    };
    json!({
        "trace_id": tl.trace_id,
        "parent_span": tl.parent_span,
        "model": tl.model,
        "outcome": tl.outcome.name(),
        "batch_size": tl.batch_size,
        "submitted_ns": tl.submitted_ns,
        "admitted_ns": tl.admitted_ns,
        "drained_ns": tl.drained_ns,
        "exec_start_ns": tl.exec_start_ns,
        "upload_end_ns": tl.upload_end_ns,
        "compute_end_ns": tl.compute_end_ns,
        "done_ns": tl.done_ns,
        "complete": tl.is_complete(),
        "phases": Value::Array(phases),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_tl(model: u64, base: u64, step: u64) -> RequestTimeline {
        let mut tl = RequestTimeline::new(crate::next_trace_id(), 0, model);
        tl.submitted_ns = base;
        tl.admitted_ns = base + step;
        tl.drained_ns = base + 2 * step;
        tl.exec_start_ns = base + 3 * step;
        tl.upload_end_ns = base + 4 * step;
        tl.compute_end_ns = base + 5 * step;
        tl.done_ns = base + 6 * step;
        tl.batch_size = 1;
        tl.outcome = RequestOutcome::Completed;
        tl
    }

    #[test]
    fn phases_and_completeness() {
        let tl = complete_tl(0xabc, 1_000_000, 2_000_000);
        assert!(tl.is_complete());
        for (name, ns) in tl.phases() {
            assert!(PHASE_NAMES.contains(&name));
            assert_eq!(ns, 2_000_000);
        }
        let mut holey = tl;
        holey.upload_end_ns = 0;
        assert!(!holey.is_complete());
        let mut backwards = tl;
        backwards.compute_end_ns = tl.upload_end_ns - 1;
        assert!(!backwards.is_complete());
    }

    #[test]
    fn report_names_dominant_phase() {
        let _g = crate::test_lock(); // serialize vs the enabled-flag toggle
        let model = 0x9_0001; // unique to this test
        set_model_label(model, "attr-test");
        for i in 1..=50u64 {
            // compute dominates: 8ms compute step vs 1ms elsewhere.
            let mut tl = complete_tl(model, i * 100_000_000, 1_000_000);
            tl.compute_end_ns = tl.upload_end_ns + 8_000_000;
            tl.done_ns = tl.compute_end_ns + 1_000_000;
            record_request(&tl);
        }
        let mut incomplete = complete_tl(model, 99_000_000_000, 1_000_000);
        incomplete.drained_ns = 0;
        record_request(&incomplete);
        let (complete, incomplete_n) = model_counts(model);
        assert_eq!((complete, incomplete_n), (50, 1));
        let report = attribution_report();
        let m = report.model("attr-test").expect("model in report");
        assert_eq!(m.complete, 50);
        assert_eq!(m.dominant_p99, "compute");
        assert_eq!(m.dominant_p50, "compute");
        assert!(m.completeness() > 0.98);
        assert!(m.total.p50 > 10.0, "end-to-end ~14ms, got {}", m.total.p50);
        let json = report.to_json();
        let rendered = serde_json::to_string(&json).unwrap();
        assert!(rendered.contains("\"dominant_p99\":\"compute\""));
    }

    #[test]
    fn non_completed_outcomes_add_no_phase_samples() {
        let _g = crate::test_lock();
        let model = 0x9_0002;
        let mut tl = complete_tl(model, 1_000_000, 1_000_000);
        tl.outcome = RequestOutcome::Shed;
        record_request(&tl);
        assert_eq!(model_counts(model), (0, 0));
        let report = attribution_report();
        let m = report.models.iter().find(|m| m.model == model).unwrap();
        assert_eq!(m.outcomes, vec![("shed", 1)]);
        assert_eq!(m.total.count, 0);
        assert_eq!(m.dominant_p99, "");
    }
}
