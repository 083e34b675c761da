//! # webml-telemetry
//!
//! Low-overhead observability for the WebML stack: tracing spans and
//! instant events collected into per-thread lock-free ring buffers,
//! a metrics registry (counters, gauges, log-bucketed histograms), and
//! Chrome trace-event JSON export loadable in `chrome://tracing` or
//! Perfetto.
//!
//! ## Design constraints
//!
//! The kernel hot path (`Engine::run_kernel`, the webgl-sim device loop)
//! must not take a shared lock per event. The crate therefore keeps:
//!
//! - a global **enabled flag** ([`enabled`]) — when tracing is off, every
//!   recording call is a single relaxed atomic load and an early return;
//! - one **SPSC ring buffer per thread** ([`ring::EventRing`]), pushed
//!   only by its owner thread and drained by whoever exports the trace.
//!   On overflow events are dropped and counted ([`dropped_events`]),
//!   never blocked on;
//! - a **metrics registry** ([`metrics`]) of plain atomics, safe to hammer
//!   from any thread whether or not tracing is enabled.
//!
//! Timestamps are nanoseconds since a process-wide epoch ([`now_ns`]), so
//! events from different threads land on one consistent timeline.
//!
//! ## Example
//!
//! ```
//! webml_telemetry::set_enabled(true);
//! {
//!     let _span = webml_telemetry::span("demo.work", "example");
//!     webml_telemetry::instant("demo.marker", "example");
//! }
//! webml_telemetry::set_enabled(false);
//! let json = webml_telemetry::chrome_trace_json();
//! assert!(json.contains("demo.work"));
//! ```

#![warn(missing_docs)]

pub mod attribution;
pub mod flight;
pub mod metrics;
pub mod ring;
pub mod trace;

pub use attribution::{
    attribution_report, record_request, AttributionReport, ModelAttributionReport, PhaseStamps,
    RequestOutcome, RequestTimeline, PHASE_NAMES,
};
pub use metrics::{
    counter, counter_labeled, fgauge, gauge, histogram, histogram_labeled, prometheus_text,
    Counter, FGauge, Gauge, Histogram, HistogramSummary,
};
pub use trace::{chrome_trace_json, write_chrome_trace};

use parking_lot::Mutex;
use ring::EventRing;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Which trace track an event is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Track {
    /// The recording thread's own track.
    Thread,
    /// The virtual "GPU" track (simulated-device work reported by the
    /// webgl-sim device thread).
    Gpu,
}

/// Event shape: a duration span or a point-in-time marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Complete span (`ph: "X"` in the Chrome trace format).
    Span,
    /// Instant event (`ph: "i"`).
    Instant,
}

/// One recorded trace event. `Copy` so ring-buffer slots need no drop
/// handling; string fields are `&'static str` to keep recording
/// allocation-free.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Event name (kernel name, `"serve.batch"`, ...).
    pub name: &'static str,
    /// Category, used for filtering in trace viewers (`"kernel"`,
    /// `"serve"`, `"gpu"`, `"texture-pool"`, ...).
    pub cat: &'static str,
    /// Track attribution.
    pub track: Track,
    /// Span or instant.
    pub phase: Phase,
    /// Start timestamp, ns since the process trace epoch.
    pub start_ns: u64,
    /// Duration in ns (0 for instants).
    pub dur_ns: u64,
    /// Recording thread id (stable small integer assigned at first use).
    pub tid: u64,
    /// Optional argument name (`""` when absent).
    pub arg_name: &'static str,
    /// Optional argument value.
    pub arg: f64,
    /// Request-scoped trace id joining events across threads (0 = none).
    /// Attached automatically from the calling thread's active
    /// [`trace_scope`]; the Chrome exporter emits it as a `trace_id` arg.
    pub trace_id: u64,
}

/// Request-scoped tracing context: a process-unique trace id plus the id
/// of the span context it was minted under (0 for a root request). Minted
/// by the serving front door and propagated — via [`trace_scope`] thread
/// scopes and explicit plumbing into the device queue — through router
/// queues, micro-batches, kernel dispatch, and simulated-GPU spans, so one
/// id joins a request's fragments across every thread it touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestCtx {
    /// Process-unique trace id (never 0).
    pub trace_id: u64,
    /// Trace id of the parent span context (0 = root).
    pub parent_span: u64,
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

impl RequestCtx {
    /// Mint a fresh root context (parent 0).
    pub fn mint() -> RequestCtx {
        RequestCtx { trace_id: next_trace_id(), parent_span: 0 }
    }

    /// Mint a child context whose `parent_span` is this context's id
    /// (e.g. a batch context minted under a dispatch context).
    pub fn child(&self) -> RequestCtx {
        RequestCtx { trace_id: next_trace_id(), parent_span: self.trace_id }
    }
}

/// Mint a process-unique trace id (a monotone counter starting at 1, so 0
/// stays the "untraced" sentinel).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's active trace id (0 when no [`trace_scope`] is
/// open). Recording functions attach it to every event; cross-thread
/// propagation (the device queue) captures it at enqueue time.
#[inline]
pub fn current_trace_id() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

/// RAII guard restoring the previously active trace id on drop.
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

/// Make `trace_id` the calling thread's active trace id until the returned
/// guard drops. Scopes nest (the guard restores the outer id). Costs two
/// thread-local cell accesses — cheap enough to hold across a request's
/// whole execution whether or not tracing is enabled.
#[inline]
pub fn trace_scope(trace_id: u64) -> TraceScope {
    let prev = CURRENT_TRACE.with(|c| c.replace(trace_id));
    TraceScope { prev }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether trace collection is on. One relaxed load — this is the fast
/// path guard every instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn trace collection on or off. Metrics are always on; this gates
/// only span/event recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (the first call in the
/// process). Monotonic and shared across threads.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct ThreadEntry {
    ring: Arc<EventRing>,
    tid: u64,
    name: String,
}

fn registry() -> &'static Mutex<Vec<ThreadEntry>> {
    static REGISTRY: OnceLock<Mutex<Vec<ThreadEntry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL: OnceLock<(Arc<EventRing>, u64)> = const { OnceLock::new() };
    static LOCAL_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn local_ring<R>(f: impl FnOnce(&EventRing, u64) -> R) -> R {
    LOCAL.with(|cell| {
        let (ring, tid) = cell.get_or_init(|| {
            let ring = Arc::new(EventRing::new());
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{tid}"));
            registry().lock().push(ThreadEntry { ring: ring.clone(), tid, name });
            (ring, tid)
        });
        f(ring, *tid)
    })
}

/// A stable, small, per-thread index (0, 1, 2, ...) assigned in first-use
/// order. Useful for lock-striping per-thread state outside this crate
/// (the engine's profile collector shards on it).
#[inline]
pub fn thread_index() -> usize {
    let cached = LOCAL_IDX.with(Cell::get);
    if cached != usize::MAX {
        return cached;
    }
    let idx = local_ring(|_, tid| tid as usize);
    LOCAL_IDX.with(|c| c.set(idx));
    idx
}

#[inline]
fn push(ev: Event) {
    local_ring(|ring, tid| ring.push(Event { tid, ..ev }));
}

/// Record a completed span from explicit timestamps (both from
/// [`now_ns`]). No-op when tracing is disabled.
#[inline]
pub fn record_span(name: &'static str, cat: &'static str, start_ns: u64, end_ns: u64) {
    record_span_arg(name, cat, start_ns, end_ns, "", 0.0);
}

/// [`record_span`] with one named numeric argument attached (shown in the
/// trace viewer's args pane).
#[inline]
pub fn record_span_arg(
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    end_ns: u64,
    arg_name: &'static str,
    arg: f64,
) {
    if !enabled() {
        return;
    }
    push(Event {
        name,
        cat,
        track: Track::Thread,
        phase: Phase::Span,
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
        tid: 0,
        arg_name,
        arg,
        trace_id: current_trace_id(),
    });
}

/// Record an instant (point-in-time) event on the calling thread's track.
#[inline]
pub fn instant(name: &'static str, cat: &'static str) {
    instant_arg(name, cat, "", 0.0);
}

/// [`instant`] with one named numeric argument.
#[inline]
pub fn instant_arg(name: &'static str, cat: &'static str, arg_name: &'static str, arg: f64) {
    if !enabled() {
        return;
    }
    push(Event {
        name,
        cat,
        track: Track::Thread,
        phase: Phase::Instant,
        start_ns: now_ns(),
        dur_ns: 0,
        tid: 0,
        arg_name,
        arg,
        trace_id: current_trace_id(),
    });
}

/// Record a span attributed to the virtual GPU track (used by the
/// simulated device thread for shader executions). `arg` typically
/// carries the modeled device-time in ns.
#[inline]
pub fn gpu_span(
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    arg_name: &'static str,
    arg: f64,
) {
    gpu_span_traced(name, start_ns, end_ns, arg_name, arg, current_trace_id());
}

/// [`gpu_span`] with an explicit trace id. The device thread runs commands
/// asynchronously, long after the submitting thread's [`trace_scope`] has
/// moved on — so the submitter's id is captured into the command at
/// enqueue time and passed here when the span is finally recorded.
#[inline]
pub fn gpu_span_traced(
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    arg_name: &'static str,
    arg: f64,
    trace_id: u64,
) {
    if !enabled() {
        return;
    }
    push(Event {
        name,
        cat: "gpu",
        track: Track::Gpu,
        phase: Phase::Span,
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
        tid: 0,
        arg_name,
        arg,
        trace_id,
    });
}

/// Record an instant event on the virtual GPU track (e.g. the device
/// thread's per-window utilization samples).
#[inline]
pub fn gpu_instant(name: &'static str, arg_name: &'static str, arg: f64) {
    if !enabled() {
        return;
    }
    push(Event {
        name,
        cat: "gpu",
        track: Track::Gpu,
        phase: Phase::Instant,
        start_ns: now_ns(),
        dur_ns: 0,
        tid: 0,
        arg_name,
        arg,
        trace_id: current_trace_id(),
    });
}

/// RAII span: records `name` from construction to drop. Captures the
/// enabled flag at construction so a span started while tracing is on is
/// recorded even if tracing flips off mid-span.
pub struct SpanGuard {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    armed: bool,
    arg_name: &'static str,
    arg: f64,
    trace_id: u64,
}

impl SpanGuard {
    /// Attach a named numeric argument to the span.
    pub fn with_arg(mut self, arg_name: &'static str, arg: f64) -> SpanGuard {
        self.arg_name = arg_name;
        self.arg = arg;
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            push(Event {
                name: self.name,
                cat: self.cat,
                track: Track::Thread,
                phase: Phase::Span,
                start_ns: self.start_ns,
                dur_ns: now_ns().saturating_sub(self.start_ns),
                tid: 0,
                arg_name: self.arg_name,
                arg: self.arg,
                trace_id: self.trace_id,
            });
        }
    }
}

/// Open an RAII span on the calling thread's track. When tracing is
/// disabled this costs one atomic load and records nothing on drop.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    let armed = enabled();
    SpanGuard {
        name,
        cat,
        start_ns: if armed { now_ns() } else { 0 },
        armed,
        arg_name: "",
        arg: 0.0,
        trace_id: if armed { current_trace_id() } else { 0 },
    }
}

/// Drain all per-thread rings into one list (consuming the buffered
/// events). Called by the trace exporter; also usable directly in tests.
pub fn drain() -> Vec<Event> {
    let registry = registry().lock();
    let mut out = Vec::new();
    for entry in registry.iter() {
        entry.ring.drain_into(&mut out);
    }
    out.sort_by_key(|e| e.start_ns);
    out
}

/// Discard all buffered events (e.g. between benchmark cells).
pub fn clear() {
    drop(drain());
}

/// Total events dropped across all threads because a ring was full.
pub fn dropped_events() -> u64 {
    registry().lock().iter().map(|e| e.ring.dropped()).sum()
}

/// `(tid, thread name)` for every thread that has recorded at least one
/// event or called [`thread_index`].
pub fn thread_names() -> Vec<(u64, String)> {
    registry().lock().iter().map(|e| (e.tid, e.name.clone())).collect()
}

/// The enabled flag and thread rings are process-global; unit tests that
/// touch them must not interleave.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _g = test_lock();
        set_enabled(false);
        clear();
        instant("off.instant", "test");
        let _s = span("off.span", "test");
        drop(_s);
        assert!(drain().iter().all(|e| e.cat != "test" || !e.name.starts_with("off.")));
    }

    #[test]
    fn span_and_instant_roundtrip() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        {
            let _s = span("rt.span", "test").with_arg("n", 3.0);
            instant("rt.instant", "test");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_enabled(false);
        let events = drain();
        let sp = events.iter().find(|e| e.name == "rt.span").expect("span recorded");
        assert_eq!(sp.phase, Phase::Span);
        assert!(sp.dur_ns >= 1_000_000, "span covered the sleep");
        assert_eq!(sp.arg_name, "n");
        let inst = events.iter().find(|e| e.name == "rt.instant").expect("instant recorded");
        assert_eq!(inst.phase, Phase::Instant);
        assert_eq!(inst.tid, sp.tid, "same thread, same track");
        assert!(inst.start_ns >= sp.start_ns && inst.start_ns <= sp.start_ns + sp.dur_ns);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    instant_arg("tid.probe", "test", "i", i as f64);
                    thread_index()
                })
            })
            .collect();
        let mut indices: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        set_enabled(false);
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), 4, "each thread has a distinct index");
        let events = drain();
        let mut tids: Vec<u64> =
            events.iter().filter(|e| e.name == "tid.probe").map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "each thread records on its own track");
    }

    #[test]
    fn trace_scope_nests_and_restores() {
        let _g = test_lock();
        assert_eq!(current_trace_id(), 0);
        let outer = RequestCtx::mint();
        let inner = outer.child();
        assert_ne!(outer.trace_id, inner.trace_id);
        assert_eq!(inner.parent_span, outer.trace_id);
        {
            let _outer = trace_scope(outer.trace_id);
            assert_eq!(current_trace_id(), outer.trace_id);
            {
                let _inner = trace_scope(inner.trace_id);
                assert_eq!(current_trace_id(), inner.trace_id);
            }
            assert_eq!(current_trace_id(), outer.trace_id);
        }
        assert_eq!(current_trace_id(), 0);
    }

    #[test]
    fn events_carry_the_active_trace_id() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        let ctx = RequestCtx::mint();
        let events = {
            let _scope = trace_scope(ctx.trace_id);
            instant("tid.tagged", "test");
            let _s = span("tid.tagged_span", "test");
            drop(_s);
            // A guard opened inside the scope keeps its id even when the
            // scope closes before the guard drops.
            let escaping = span("tid.escaping_span", "test");
            drop(_scope);
            instant("tid.untagged", "test");
            drop(escaping);
            set_enabled(false);
            drain()
        };
        let find = |n: &str| events.iter().find(|e| e.name == n).expect("event recorded");
        assert_eq!(find("tid.tagged").trace_id, ctx.trace_id);
        assert_eq!(find("tid.tagged_span").trace_id, ctx.trace_id);
        assert_eq!(find("tid.escaping_span").trace_id, ctx.trace_id);
        assert_eq!(find("tid.untagged").trace_id, 0);
    }

    #[test]
    fn eight_thread_churn_accounts_every_overflow() {
        let _g = test_lock();
        clear();
        let dropped_before = dropped_events();
        set_enabled(true);
        const EXTRA: usize = 37;
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    // Overfill this thread's ring by exactly EXTRA without
                    // draining, so the drop counter must grow by EXTRA.
                    for i in 0..ring::RING_CAPACITY + EXTRA {
                        instant_arg("churn.ev", "test", "seq", (t * 1_000_000 + i) as f64);
                    }
                    thread_index()
                })
            })
            .collect();
        let indices: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        set_enabled(false);
        let dropped_after = dropped_events();
        assert_eq!(
            dropped_after - dropped_before,
            (8 * EXTRA) as u64,
            "drop accounting is exact under churn"
        );
        let events = drain();
        for &idx in &indices {
            let tid = idx as u64;
            let mine: Vec<&Event> =
                events.iter().filter(|e| e.name == "churn.ev" && e.tid == tid).collect();
            assert_eq!(mine.len(), ring::RING_CAPACITY, "ring kept exactly its capacity");
            // Drop-newest policy: the survivors are the first RING_CAPACITY
            // pushes, in order, with args intact (no torn slots).
            for (j, ev) in mine.iter().enumerate() {
                let seq = ev.arg as usize % 1_000_000;
                assert_eq!(seq, j, "complete in-order events after overflow");
                assert_eq!(ev.arg_name, "seq");
            }
        }
    }
}
