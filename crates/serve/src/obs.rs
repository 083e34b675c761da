//! Shared observability plumbing for the serving layers: finalizing
//! per-request phase timelines and emitting request-scoped envelope spans.
//!
//! The front door ([`crate::FleetServer`]) and its engine workers stamp a
//! [`RequestTimeline`] as a request moves through queueing, batching, and
//! the two-phase executor, then call [`finish_request`] at reply time. That
//! single call:
//!
//! - feeds the timeline to the attribution aggregates
//!   ([`webml_telemetry::attribution`]) and the flight recorder ring
//!   ([`webml_telemetry::flight`]) — always on, a few hundred ns;
//! - when tracing is enabled, emits the request's **envelope span**
//!   (`serve.request`, submit → reply) plus one span per reconstructed
//!   phase, all carrying the request's trace id — so a Chrome trace shows
//!   one causal lane per request even though its fragments executed on
//!   four different threads.

use webml_telemetry as telemetry;
use webml_telemetry::{RequestOutcome, RequestTimeline};

/// Span names for the six attributed phases, timeline order (matching
/// [`webml_telemetry::PHASE_NAMES`]).
const PHASE_SPANS: [&str; 6] = [
    "serve.admission",
    "serve.queue",
    "serve.batch_form",
    "serve.upload",
    "serve.compute",
    "serve.readback",
];

/// Finalize a request's timeline (stamp `done`, outcome, batch size),
/// record it for attribution and the flight recorder, and emit its
/// envelope + phase spans. `batch_trace` is the trace id of the batch
/// context it executed under (0 when it never joined a batch).
pub(crate) fn finish_request(
    tl: &mut RequestTimeline,
    outcome: RequestOutcome,
    batch_size: u32,
    batch_trace: u64,
) {
    tl.done_ns = telemetry::now_ns();
    tl.outcome = outcome;
    tl.batch_size = batch_size;
    telemetry::record_request(tl);
    telemetry::flight::record_timeline(tl);
    if !telemetry::enabled() {
        return;
    }
    let _scope = telemetry::trace_scope(tl.trace_id);
    telemetry::record_span_arg(
        "serve.request",
        "serve",
        tl.submitted_ns,
        tl.done_ns,
        "batch",
        batch_trace as f64,
    );
    if tl.is_complete() {
        let t = [
            tl.submitted_ns,
            tl.admitted_ns,
            tl.drained_ns,
            tl.exec_start_ns,
            tl.upload_end_ns,
            tl.compute_end_ns,
            tl.done_ns,
        ];
        for (i, &name) in PHASE_SPANS.iter().enumerate() {
            telemetry::record_span(name, "serve", t[i], t[i + 1]);
        }
    }
    if batch_size >= 2 {
        telemetry::instant_arg("serve.batch_member", "serve", "batch", batch_trace as f64);
    }
}

/// Mint a batch-scoped trace context under the currently active scope
/// (the dispatcher's context), so batch spans link parent → batch →
/// members.
pub(crate) fn batch_ctx() -> telemetry::RequestCtx {
    telemetry::RequestCtx {
        trace_id: telemetry::next_trace_id(),
        parent_span: telemetry::current_trace_id(),
    }
}
