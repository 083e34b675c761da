//! Engine health tracking for the fleet router: the per-engine cost model
//! that drives admission control, and the circuit breaker that takes a
//! misbehaving engine out of rotation.
//!
//! Health is judged from the outside, by observation — the router never
//! asks an engine "are you ok?", it watches what the engine *does*: how
//! long requests take (an EWMA of per-request service latency, the cheap
//! online companion to the PR-4 latency histograms), how deep its queue is,
//! whether its degradation generation moved (the engine fell off its
//! preferred backend), and whether executions fail or blow their timeout.
//! This is the same stance the paper takes toward devices: assume nothing,
//! measure everything, and keep serving.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::cache::ModelKey;

/// EWMA smoothing factor for observed per-request latency (weight of the
/// newest sample). High enough to react to a straggler within a few
/// requests, low enough not to chase single-batch noise.
const EWMA_ALPHA: f64 = 0.25;

/// Prior service-time estimate (nanoseconds) used before an engine has
/// observed any request for a model — deliberately modest so cold engines
/// are neither shunned nor flooded.
const PRIOR_SERVICE_NS: u64 = 300_000;

/// Cost-model state for one engine: queue pressure and observed latency.
///
/// All fields are atomics — submitters on any thread read the cost model
/// while the engine's worker updates it.
#[derive(Default)]
pub struct EngineHealth {
    /// Requests currently queued (not yet drained by the worker).
    queue_depth: AtomicUsize,
    /// Requests drained and executing right now.
    inflight: AtomicUsize,
    /// Engine-wide EWMA of per-request service latency, nanoseconds.
    ewma_ns: AtomicU64,
    /// Per-model EWMA of per-request service latency, nanoseconds.
    per_model_ns: Mutex<HashMap<ModelKey, u64>>,
    /// Requests completed by this engine over its lifetime.
    completed: AtomicU64,
    /// Last engine degradation generation the breaker acknowledged.
    seen_generation: AtomicU64,
}

impl EngineHealth {
    /// Fresh health state, seeding the generation watch from the engine's
    /// current degradation generation so pre-existing degradations don't
    /// count against it.
    pub fn new(current_generation: u64) -> EngineHealth {
        EngineHealth {
            seen_generation: AtomicU64::new(current_generation),
            ..EngineHealth::default()
        }
    }

    /// Record that `n` requests entered the queue.
    pub fn enqueued(&self, n: usize) {
        self.queue_depth.fetch_add(n, Ordering::Relaxed);
    }

    /// Record that `n` requests left the queue (drained, shed, or expired)
    /// and `executing` of them are now in flight.
    pub fn drained(&self, n: usize, executing: usize) {
        // Saturating: a re-routed request was never in *this* queue.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| Some(d.saturating_sub(n)));
        self.inflight.fetch_add(executing, Ordering::Relaxed);
    }

    /// Record `per_request_ns` observed service latency for `executed`
    /// requests of `model`, and drop them from the in-flight gauge.
    pub fn observed(&self, model: ModelKey, per_request_ns: u64, executed: usize) {
        let _ = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(executed))
            });
        self.completed.fetch_add(executed as u64, Ordering::Relaxed);
        let fold = |old: u64| -> u64 {
            if old == 0 {
                per_request_ns
            } else {
                (old as f64 * (1.0 - EWMA_ALPHA) + per_request_ns as f64 * EWMA_ALPHA) as u64
            }
        };
        let engine_wide = fold(self.ewma_ns.load(Ordering::Relaxed));
        self.ewma_ns.store(engine_wide.max(1), Ordering::Relaxed);
        let mut per_model = self.per_model_ns.lock();
        let cell = per_model.entry(model).or_insert(0);
        *cell = fold(*cell).max(1);
    }

    /// Observed per-request service latency for `model`, falling back to
    /// the engine-wide EWMA and then to a fixed prior for cold engines.
    pub fn service_ns(&self, model: ModelKey) -> u64 {
        if let Some(&ns) = self.per_model_ns.lock().get(&model) {
            if ns > 0 {
                return ns;
            }
        }
        match self.ewma_ns.load(Ordering::Relaxed) {
            0 => PRIOR_SERVICE_NS,
            ns => ns,
        }
    }

    /// The admission cost model: predicted wait for a *new* request of
    /// `model` = (queued + in-flight) × observed per-request latency. This
    /// is computed at enqueue, so shed decisions happen before a request
    /// ever occupies a queue slot.
    pub fn predicted_wait_ns(&self, model: ModelKey) -> u64 {
        let pending =
            self.queue_depth.load(Ordering::Relaxed) + self.inflight.load(Ordering::Relaxed);
        (pending as u64).saturating_mul(self.service_ns(model))
    }

    /// Current queue depth (queued, not yet drained).
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Requests drained and executing right now.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Requests completed over this engine's lifetime.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Engine-wide observed per-request latency, milliseconds (0 until the
    /// first observation).
    pub fn ewma_ms(&self) -> f64 {
        self.ewma_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Whether the engine's degradation generation moved since the last
    /// check (the engine fell back to a slower backend mid-traffic).
    /// Returns `true` at most once per generation change.
    pub fn generation_changed(&self, current: u64) -> bool {
        self.seen_generation.swap(current, Ordering::Relaxed) != current
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive hard failures (execution errors / timeouts) that trip
    /// the breaker.
    pub trip_failures: u32,
    /// Whether an engine degradation (backend fallback, e.g. context loss)
    /// trips the breaker immediately. The engine still *answers* on its
    /// fallback backend — tripping takes it out of rotation so the fleet
    /// stops routing latency-sensitive traffic at a slowed engine while
    /// recovery (context restore + promotion) is attempted.
    pub trip_on_degradation: bool,
    /// Request latency above this multiple of the model's SLO target counts
    /// as a timeout toward `trip_failures`.
    pub timeout_slo_multiple: f64,
    /// Minimum time an open breaker waits before admitting a canary probe.
    pub probe_interval: Duration,
    /// Consecutive successful canaries required to re-close the breaker.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            trip_failures: 3,
            trip_on_degradation: true,
            timeout_slo_multiple: 4.0,
            probe_interval: Duration::from_millis(10),
            probe_successes: 2,
        }
    }
}

/// Externally visible breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the engine admits normal traffic.
    Closed,
    /// Tripped: out of rotation; only canary probes may run.
    Open,
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Instant,
    probe_inflight: bool,
    probe_successes: u32,
    /// Why the breaker last tripped (for stats/debugging).
    last_trip_reason: Option<String>,
}

/// The per-engine circuit breaker: `Closed → Open` on repeated failures,
/// timeouts, or a degradation; canary probes while `Open`; `Open → Closed`
/// after enough consecutive probe successes.
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
    recloses: AtomicU64,
}

/// Snapshot of one breaker for stats.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Lifetime trips.
    pub trips: u64,
    /// Lifetime re-closes (recoveries).
    pub recloses: u64,
    /// Reason for the most recent trip, if any.
    pub last_trip_reason: Option<String>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Instant::now(),
                probe_inflight: false,
                probe_successes: 0,
                last_trip_reason: None,
            }),
            trips: AtomicU64::new(0),
            recloses: AtomicU64::new(0),
        }
    }

    /// Whether the engine admits normal (non-probe) traffic.
    pub fn admits(&self) -> bool {
        self.inner.lock().state == BreakerState::Closed
    }

    /// Record a successful normal-traffic execution: resets the consecutive
    /// failure count.
    pub fn record_success(&self) {
        self.inner.lock().consecutive_failures = 0;
    }

    /// Record a hard failure or timeout; returns `true` when this one trips
    /// the breaker.
    pub fn record_failure(&self, reason: &str) -> bool {
        let mut inner = self.inner.lock();
        if inner.state == BreakerState::Open {
            return false;
        }
        inner.consecutive_failures += 1;
        if inner.consecutive_failures >= self.config.trip_failures {
            self.trip_locked(&mut inner, reason);
            return true;
        }
        false
    }

    /// Record an engine degradation (backend fallback); returns `true`
    /// when it trips the breaker.
    pub fn record_degradation(&self, reason: &str) -> bool {
        if !self.config.trip_on_degradation {
            return false;
        }
        let mut inner = self.inner.lock();
        if inner.state == BreakerState::Open {
            return false;
        }
        self.trip_locked(&mut inner, reason);
        true
    }

    fn trip_locked(&self, inner: &mut BreakerInner, reason: &str) {
        inner.state = BreakerState::Open;
        inner.opened_at = Instant::now();
        inner.probe_inflight = false;
        inner.probe_successes = 0;
        inner.last_trip_reason = Some(reason.to_string());
        self.trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether an open breaker is due for a canary probe. Claims the probe
    /// slot (at most one canary in flight per engine); the caller must
    /// report back via [`CircuitBreaker::probe_result`].
    pub fn try_begin_probe(&self) -> bool {
        let mut inner = self.inner.lock();
        if inner.state != BreakerState::Open
            || inner.probe_inflight
            || inner.opened_at.elapsed() < self.config.probe_interval
        {
            return false;
        }
        inner.probe_inflight = true;
        true
    }

    /// Report a canary result; returns `true` when the breaker re-closed
    /// (the engine is re-admitted to rotation).
    pub fn probe_result(&self, ok: bool) -> bool {
        let mut inner = self.inner.lock();
        inner.probe_inflight = false;
        if inner.state != BreakerState::Open {
            return false;
        }
        if !ok {
            inner.probe_successes = 0;
            // Back off: restart the probe interval from the failed probe.
            inner.opened_at = Instant::now();
            return false;
        }
        inner.probe_successes += 1;
        if inner.probe_successes >= self.config.probe_successes {
            inner.state = BreakerState::Closed;
            inner.consecutive_failures = 0;
            inner.probe_successes = 0;
            self.recloses.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // More successes needed; allow the next probe immediately.
        inner.opened_at = Instant::now() - self.config.probe_interval;
        false
    }

    /// The breaker's tuning.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Stats snapshot.
    pub fn snapshot(&self) -> BreakerSnapshot {
        let inner = self.inner.lock();
        BreakerSnapshot {
            state: inner.state,
            trips: self.trips.load(Ordering::Relaxed),
            recloses: self.recloses.load(Ordering::Relaxed),
            last_trip_reason: inner.last_trip_reason.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_tracks_queue_and_latency() {
        let h = EngineHealth::new(0);
        assert_eq!(h.predicted_wait_ns(1), 0, "empty engine predicts no wait");
        h.enqueued(4);
        // Cold engine: prior latency × 4 pending.
        assert_eq!(h.predicted_wait_ns(1), 4 * PRIOR_SERVICE_NS);
        h.drained(4, 4);
        // Pending includes in-flight work, not just the queue.
        assert_eq!(h.predicted_wait_ns(1), 4 * PRIOR_SERVICE_NS);
        h.observed(1, 1_000_000, 4);
        assert_eq!(h.queue_depth(), 0);
        assert_eq!(h.completed(), 4);
        // First observation seeds the EWMA outright.
        assert_eq!(h.service_ns(1), 1_000_000);
        // Unknown models fall back to the engine-wide EWMA.
        assert_eq!(h.service_ns(99), 1_000_000);
        h.enqueued(3);
        assert_eq!(h.predicted_wait_ns(1), 3_000_000);
        // EWMA converges toward a straggler's latency.
        for _ in 0..30 {
            h.observed(1, 10_000_000, 1);
        }
        assert!(h.service_ns(1) > 8_000_000, "EWMA chased the spike: {}", h.service_ns(1));
    }

    #[test]
    fn generation_watch_fires_once_per_change() {
        let h = EngineHealth::new(5);
        assert!(!h.generation_changed(5));
        assert!(h.generation_changed(6));
        assert!(!h.generation_changed(6));
    }

    #[test]
    fn breaker_trips_on_consecutive_failures_only() {
        let b = CircuitBreaker::new(BreakerConfig { trip_failures: 3, ..Default::default() });
        assert!(b.admits());
        assert!(!b.record_failure("boom"));
        assert!(!b.record_failure("boom"));
        b.record_success(); // resets the streak
        assert!(!b.record_failure("boom"));
        assert!(!b.record_failure("boom"));
        assert!(b.record_failure("boom"));
        assert!(!b.admits());
        assert_eq!(b.snapshot().trips, 1);
        assert_eq!(b.snapshot().last_trip_reason.as_deref(), Some("boom"));
    }

    #[test]
    fn breaker_trips_on_degradation_and_recovers_via_probes() {
        let config = BreakerConfig {
            probe_interval: Duration::from_millis(0),
            probe_successes: 2,
            ..Default::default()
        };
        let b = CircuitBreaker::new(config);
        assert!(b.record_degradation("context loss"));
        assert!(!b.admits());
        // Only one probe slot at a time.
        assert!(b.try_begin_probe());
        assert!(!b.try_begin_probe());
        // A failed probe resets the success streak.
        assert!(!b.probe_result(false));
        std::thread::sleep(Duration::from_millis(1));
        assert!(b.try_begin_probe());
        assert!(!b.probe_result(true), "one success is not enough");
        assert!(b.try_begin_probe());
        assert!(b.probe_result(true), "second consecutive success re-closes");
        assert!(b.admits());
        let snap = b.snapshot();
        assert_eq!((snap.trips, snap.recloses), (1, 1));
    }

    #[test]
    fn open_breaker_ignores_further_failures() {
        let b = CircuitBreaker::new(BreakerConfig { trip_failures: 1, ..Default::default() });
        assert!(b.record_failure("first"));
        assert!(!b.record_failure("second"), "already open");
        assert!(!b.record_degradation("third"));
        assert_eq!(b.snapshot().trips, 1);
    }

    #[test]
    fn degradation_trip_respects_config() {
        let b = CircuitBreaker::new(BreakerConfig {
            trip_on_degradation: false,
            ..Default::default()
        });
        assert!(!b.record_degradation("context loss"));
        assert!(b.admits());
    }
}
