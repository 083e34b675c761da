//! SLO-aware fleet serving: one front door over N engines on heterogeneous
//! device profiles.
//!
//! The paper's deployment story (Sec 5) is a *fleet* problem in disguise:
//! the same model runs on an integrated laptop GPU, a discrete desktop GPU,
//! and a throttled phone, and the system has to keep its latency promises
//! on all of them while devices straggle, lose their context, and recover.
//! [`FleetServer`] reproduces the server-side version of that story:
//!
//! - **Deadlines.** Every model registers a [`ModelSlo`]; every request
//!   carries a deadline. Expired requests are rejected at dequeue with an
//!   explicit [`ServeError::DeadlineExceeded`] instead of occupying batch
//!   slots that on-time requests could use.
//! - **Admission control.** At enqueue, the router consults a per-engine
//!   cost model (queue depth × observed per-request latency, tracked by
//!   [`EngineHealth`]) and sheds requests that
//!   are predicted to miss their deadline anyway —
//!   [`ServeError::Overloaded`] — or that would overflow the hard queue cap
//!   — [`ServeError::QueueFull`]. Overload produces explicit errors, never
//!   silent queue growth.
//! - **Circuit breaking.** Each engine has a
//!   [`CircuitBreaker`]: repeated execution
//!   failures, SLO-blowing stragglers, or a backend degradation (the PR-1
//!   ladder falling off its preferred backend, observed via
//!   `Engine::degradation_generation`) trip the engine out of rotation.
//!   Queued work on a tripped engine is drained and transparently
//!   re-routed. A maintenance thread then probes the engine with canary
//!   requests — after invoking its recovery hook (e.g. WebGL context
//!   restore) and `Engine::promote_backend` — and re-admits it once
//!   canaries pass on the preferred backend.
//! - **Placement.** Heavy models (by weight bytes) prefer engines with a
//!   high device-parallelism class; tiny MLPs go wherever the predicted
//!   wait is shortest.
//!
//! Each engine gets its own worker thread running the micro-batcher
//! (`batcher`), with its own queue, warm-model cache and [`ServeStats`]
//! counters. This module is what the fleet adds around it: admission,
//! placement, deadline enforcement at dequeue, the degradation watch, and
//! the breaker / re-route decision on each pass's outcome. A fleet of one
//! engine is the single-engine server.

use parking_lot::Mutex;
use serde_json::json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};
use webml_core::Engine;
use webml_telemetry as telemetry;
use webml_telemetry::{Histogram, HistogramSummary, RequestCtx, RequestOutcome, RequestTimeline};

use crate::batcher::{self, Executor, FrontDoor, Pass, Request, WorkQueue, WorkerCells};
use crate::cache::{ModelKey, ModelSource};
use crate::error::ServeError;
use crate::health::{BreakerConfig, BreakerSnapshot, CircuitBreaker, EngineHealth};
use crate::obs;
use crate::{InferResponse, ServeStats};

/// Result type for fleet requests: an inference response or an explicit,
/// typed refusal.
pub type FleetResult<T> = std::result::Result<T, ServeError>;

/// An engine's recovery hook, invoked by the maintenance thread before
/// canary-probing a tripped engine (e.g. `GpuBackend::recover`).
/// Returns whether recovery succeeded; a `false` fails the probe early.
pub type RecoverHook = Arc<dyn Fn() -> bool + Send + Sync>;

/// Latency objectives for one registered model.
#[derive(Debug, Clone)]
pub struct ModelSlo {
    /// Target per-request service latency, milliseconds. Execution slower
    /// than `target_ms × BreakerConfig::timeout_slo_multiple` counts as a
    /// timeout toward tripping the engine's breaker.
    pub target_ms: f64,
    /// Default end-to-end deadline budget for this model's requests.
    pub deadline: Duration,
}

impl Default for ModelSlo {
    fn default() -> ModelSlo {
        ModelSlo { target_ms: 5.0, deadline: Duration::from_millis(50) }
    }
}

impl ModelSlo {
    /// An SLO with the given latency target and deadline budget.
    pub fn new(target_ms: f64, deadline: Duration) -> ModelSlo {
        ModelSlo { target_ms, deadline }
    }
}

/// One engine in the fleet: an [`Engine`] plus its device placement class
/// and optional recovery hook.
pub struct EngineSpec {
    /// Display name (unique within the fleet; used by the drain hooks and
    /// in [`EngineStatus`]).
    pub name: String,
    /// The engine. Its backend priority table (PR-1 ladder) stays in
    /// charge of intra-engine degradation; the fleet reacts to the
    /// degradation *generation* it exposes.
    pub engine: Engine,
    /// Device parallelism class (e.g. the simulated device profile's
    /// `parallelism`); engines at or above
    /// [`FleetConfig::fast_parallelism`] are preferred for heavy models.
    pub parallelism: usize,
    /// Recovery hook invoked before canary-probing a tripped engine.
    pub recover: Option<RecoverHook>,
}

impl EngineSpec {
    /// A spec with no recovery hook.
    pub fn new(name: impl Into<String>, engine: &Engine, parallelism: usize) -> EngineSpec {
        EngineSpec { name: name.into(), engine: engine.clone(), parallelism, recover: None }
    }

    /// Attach a recovery hook (builder style).
    pub fn with_recover_hook(mut self, hook: RecoverHook) -> EngineSpec {
        self.recover = Some(hook);
        self
    }
}

/// Fleet-wide tuning.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Largest coalesced batch per forward pass on each engine.
    pub max_batch: usize,
    /// The longest an engine worker holds the first queued request open
    /// for batch-mates before running a partial batch. The window is
    /// adaptive: it is skipped while the queue is shallow and recent drains
    /// found no batch-mates, and it closes early once as many requests are
    /// queued as recent drains delivered.
    pub max_wait: Duration,
    /// Warm models kept resident per engine.
    pub cache_capacity: usize,
    /// Hard cap on each engine's queue; admission beyond it sheds with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Admission slack: shed with [`ServeError::Overloaded`] when the best
    /// engine's predicted wait exceeds `slack × deadline budget`.
    pub admission_slack: f64,
    /// Engines with device parallelism at or above this are the "fast"
    /// class preferred for heavy models.
    pub fast_parallelism: usize,
    /// Models with at least this many weight bytes prefer fast engines.
    pub heavy_model_bytes: usize,
    /// Re-route attempts for a request whose execution failed before the
    /// failure is surfaced as [`ServeError::Engine`].
    pub max_reroutes: u32,
    /// Circuit-breaker tuning, shared by every engine.
    pub breaker: BreakerConfig,
    /// Poll interval of the maintenance thread (canary scheduling).
    pub maintenance_interval: Duration,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(1),
            cache_capacity: 4,
            queue_capacity: 512,
            admission_slack: 1.0,
            fast_parallelism: 8,
            heavy_model_bytes: 256 * 1024,
            max_reroutes: 2,
            breaker: BreakerConfig::default(),
            maintenance_interval: Duration::from_millis(2),
        }
    }
}

/// Per-engine view in [`FleetStats`].
#[derive(Debug, Clone)]
pub struct EngineStatus {
    /// Engine name.
    pub name: String,
    /// Device parallelism class.
    pub parallelism: usize,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Requests this engine executed (including failed executions).
    pub completed: u64,
    /// Engine-wide observed per-request latency, milliseconds.
    pub ewma_ms: f64,
    /// Backend degradations observed (generation changes).
    pub degradations: u64,
    /// Whether the engine is administratively draining.
    pub draining: bool,
    /// Circuit-breaker snapshot.
    pub breaker: BreakerSnapshot,
    /// The engine worker's batching, cache and plan counters.
    pub serve: ServeStats,
}

/// Lifetime fleet counters. The outcome counters partition `submitted`:
/// every submitted request is eventually counted in exactly one of
/// `completed`, `rejected`, `deadline_rejected`, `shed_overloaded`,
/// `shed_queue_full`, `shed_no_engine`, `engine_errors`, or
/// `shutdown_rejected` (see [`FleetStats::accounted`]).
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Requests submitted (including ones later refused).
    pub submitted: u64,
    /// Requests answered with an inference result.
    pub completed: u64,
    /// Malformed requests (unknown model, shape mismatch at submit).
    pub rejected: u64,
    /// Requests whose deadline expired in queue (explicit
    /// [`ServeError::DeadlineExceeded`]).
    pub deadline_rejected: u64,
    /// Requests shed at admission because the predicted wait exceeded the
    /// deadline budget.
    pub shed_overloaded: u64,
    /// Requests shed at the hard queue cap.
    pub shed_queue_full: u64,
    /// Requests shed because no engine admitted work.
    pub shed_no_engine: u64,
    /// Requests that surfaced an engine execution error after re-route
    /// attempts were exhausted.
    pub engine_errors: u64,
    /// Requests refused because the fleet was shutting down.
    pub shutdown_rejected: u64,
    /// Re-route attempts (execution failures and breaker-trip drains).
    pub rerouted: u64,
    /// Canary probes launched against tripped engines.
    pub probes: u64,
    /// Canary probes that failed.
    pub probe_failures: u64,
    /// Warm-up executions performed by [`FleetServer::warm`].
    pub warmups: u64,
    /// Circuit-breaker trips, summed over engines.
    pub breaker_trips: u64,
    /// Circuit-breaker re-closes (engine re-admissions), summed.
    pub breaker_recloses: u64,
    /// Backend degradations observed, summed over engines.
    pub degradations: u64,
    /// End-to-end latency of completed requests, milliseconds.
    pub latency_ms: HistogramSummary,
    /// Queue wait of executed requests, milliseconds.
    pub queue_wait_ms: HistogramSummary,
    /// Per-engine detail.
    pub engines: Vec<EngineStatus>,
}

impl FleetStats {
    /// Total explicit load sheds (overload + queue cap + no engine).
    pub fn total_shed(&self) -> u64 {
        self.shed_overloaded + self.shed_queue_full + self.shed_no_engine
    }

    /// Sum of all outcome counters; equals `submitted` once the fleet is
    /// idle (every request has exactly one outcome).
    pub fn accounted(&self) -> u64 {
        self.completed
            + self.rejected
            + self.deadline_rejected
            + self.total_shed()
            + self.engine_errors
            + self.shutdown_rejected
    }
}

#[derive(Default)]
struct FleetCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    deadline_rejected: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_no_engine: AtomicU64,
    engine_errors: AtomicU64,
    shutdown_rejected: AtomicU64,
    rerouted: AtomicU64,
    probes: AtomicU64,
    probe_failures: AtomicU64,
    warmups: AtomicU64,
}

#[derive(Clone)]
struct Registration {
    source: Arc<ModelSource>,
    slo: ModelSlo,
    heavy: bool,
}

/// The fleet's per-request state beside the batcher's [`Request`].
struct FleetTicket {
    reply: mpsc::Sender<FleetResult<InferResponse>>,
    enqueued: Instant,
    deadline: Instant,
    budget: Duration,
    reroutes: u32,
    /// From the model's registration, so routing and the breaker need no
    /// lookup per request.
    target_ms: f64,
    heavy: bool,
}

type FleetRequest = Request<FleetTicket>;

/// A canary/warm-up example for one model.
#[derive(Clone)]
struct Probe {
    key: ModelKey,
    source: Arc<ModelSource>,
    values: Vec<f32>,
    dims: Vec<usize>,
}

enum WorkItem {
    Request(FleetRequest),
    /// A canary/warm-up execution: runs through the worker's cache even
    /// when the breaker is open, replying only success/failure.
    Probe(Probe, mpsc::Sender<bool>),
}

struct EngineState {
    name: String,
    engine: Engine,
    parallelism: usize,
    recover: Option<RecoverHook>,
    health: EngineHealth,
    breaker: CircuitBreaker,
    queue: WorkQueue<WorkItem>,
    serve: WorkerCells,
    draining: AtomicBool,
    degradations: AtomicU64,
}

struct FleetShared {
    config: FleetConfig,
    engines: Vec<Arc<EngineState>>,
    models: Mutex<HashMap<ModelKey, Registration>>,
    /// The first example the fleet saw (submitted or warmed), kept as the
    /// canary every probe of a tripped engine runs: which model probes is
    /// decided by arrival order, never by a hash seed.
    canary: OnceLock<Probe>,
    stats: FleetCells,
    latency_ms: Histogram,
    queue_wait_ms: Histogram,
    shutdown: AtomicBool,
}

/// A handle to an in-flight [`FleetServer::submit`] request.
pub struct FleetPending {
    rx: mpsc::Receiver<FleetResult<InferResponse>>,
}

impl FleetPending {
    /// Block until the response (or explicit refusal) arrives.
    ///
    /// # Errors
    /// Propagates the typed [`ServeError`]; a fleet that shut down without
    /// replying yields [`ServeError::Shutdown`].
    pub fn wait(self) -> FleetResult<InferResponse> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

/// The fleet front end: N engines, one API. See the module docs for the
/// admission → queue → batch → circuit-break pipeline.
pub struct FleetServer {
    shared: Arc<FleetShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    maintenance: Option<std::thread::JoinHandle<()>>,
}

impl FleetServer {
    /// Start a fleet over the given engines.
    ///
    /// # Panics
    /// Panics when `specs` is empty — a fleet needs at least one engine.
    pub fn new(specs: Vec<EngineSpec>, config: FleetConfig) -> FleetServer {
        let mut fleet = FleetServer::idle(specs, config);
        fleet.workers = (0..fleet.shared.engines.len())
            .map(|idx| {
                let shared = fleet.shared.clone();
                std::thread::Builder::new()
                    .name(format!("webml-fleet-{}", shared.engines[idx].name))
                    .spawn(move || engine_worker(&shared, idx))
                    .expect("spawn fleet worker")
            })
            .collect();
        let shared = fleet.shared.clone();
        let maintenance = std::thread::Builder::new()
            .name("webml-fleet-maintenance".into())
            .spawn(move || maintenance_loop(&shared))
            .expect("spawn fleet maintenance thread");
        fleet.maintenance = Some(maintenance);
        fleet
    }

    /// The fleet's state with no thread running: requests queue, nothing
    /// executes until an [`engine_worker`] runs.
    fn idle(specs: Vec<EngineSpec>, config: FleetConfig) -> FleetServer {
        assert!(!specs.is_empty(), "a fleet needs at least one engine");
        let engines: Vec<Arc<EngineState>> = specs
            .into_iter()
            .map(|spec| {
                Arc::new(EngineState {
                    health: EngineHealth::new(spec.engine.degradation_generation()),
                    breaker: CircuitBreaker::new(config.breaker.clone()),
                    queue: WorkQueue::new(),
                    serve: WorkerCells::default(),
                    draining: AtomicBool::new(false),
                    degradations: AtomicU64::new(0),
                    name: spec.name,
                    engine: spec.engine,
                    parallelism: spec.parallelism,
                    recover: spec.recover,
                })
            })
            .collect();
        let shared = Arc::new(FleetShared {
            config,
            engines,
            models: Mutex::new(HashMap::new()),
            canary: OnceLock::new(),
            stats: FleetCells::default(),
            latency_ms: Histogram::new(),
            queue_wait_ms: Histogram::new(),
            shutdown: AtomicBool::new(false),
        });
        FleetServer { shared, workers: Vec::new(), maintenance: None }
    }

    /// Register a model with its SLO; returns the key clients submit
    /// against (content hash, deduplicated).
    pub fn register(&self, source: ModelSource, slo: ModelSlo) -> ModelKey {
        let key = source.key();
        let heavy = source.cost_bytes() >= self.shared.config.heavy_model_bytes;
        self.shared
            .models
            .lock()
            .entry(key)
            .or_insert_with(|| Registration { source: Arc::new(source), slo, heavy });
        key
    }

    /// Enqueue one inference under the model's registered deadline.
    pub fn submit(&self, key: ModelKey, values: Vec<f32>, dims: Vec<usize>) -> FleetPending {
        self.submit_inner(key, values, dims, None)
    }

    /// Enqueue one inference with an explicit deadline budget overriding
    /// the model's registered one.
    pub fn submit_with_deadline(
        &self,
        key: ModelKey,
        values: Vec<f32>,
        dims: Vec<usize>,
        deadline: Duration,
    ) -> FleetPending {
        self.submit_inner(key, values, dims, Some(deadline))
    }

    fn submit_inner(
        &self,
        key: ModelKey,
        values: Vec<f32>,
        dims: Vec<usize>,
        deadline: Option<Duration>,
    ) -> FleetPending {
        let shared = &self.shared;
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let ctx = RequestCtx::mint();
        let mut tl = RequestTimeline::new(ctx.trace_id, ctx.parent_span, key);
        tl.submitted_ns = telemetry::now_ns();
        let registration = shared.models.lock().get(&key).cloned();
        let Some(reg) = registration else {
            let msg = format!("unknown model key {key:#x}");
            reply_err(shared, tl, &tx, ServeError::Rejected(msg));
            return FleetPending { rx };
        };
        let expected: usize = dims.iter().product();
        if dims.is_empty() || expected != values.len() {
            let msg = format!("example of {} values does not match dims {dims:?}", values.len());
            reply_err(shared, tl, &tx, ServeError::Rejected(msg));
            return FleetPending { rx };
        }
        shared.canary.get_or_init(|| Probe {
            key,
            source: reg.source.clone(),
            values: values.clone(),
            dims: dims.clone(),
        });
        let now = Instant::now();
        let budget = deadline.unwrap_or(reg.slo.deadline);
        let ticket = FleetTicket {
            reply: tx,
            enqueued: now,
            deadline: now + budget,
            budget,
            reroutes: 0,
            target_ms: reg.slo.target_ms,
            heavy: reg.heavy,
        };
        let req = Request { key, source: reg.source, values, dims, tl, ticket };
        route_request(shared, req, None, false);
        FleetPending { rx }
    }

    /// Blocking inference: [`FleetServer::submit`] + wait.
    ///
    /// # Errors
    /// Propagates the typed [`ServeError`].
    pub fn infer(&self, key: ModelKey, values: Vec<f32>, dims: Vec<usize>) -> FleetResult<InferResponse> {
        self.submit(key, values, dims).wait()
    }

    /// Warm-up hook: build and execute `key` once on every engine (through
    /// each worker's [`ModelCache`](crate::ModelCache)), so first real traffic skips model
    /// build and weight upload. Returns how many engines warmed
    /// successfully. The example also becomes the fleet's canary if no
    /// request was seen before it.
    pub fn warm(&self, key: ModelKey, values: Vec<f32>, dims: Vec<usize>) -> usize {
        let shared = &self.shared;
        let Some(source) = shared.models.lock().get(&key).map(|r| r.source.clone()) else {
            return 0;
        };
        let probe = Probe { key, source, values, dims };
        shared.canary.get_or_init(|| probe.clone());
        let mut receivers = Vec::new();
        for state in &shared.engines {
            let (tx, rx) = mpsc::channel();
            if state.queue.push(WorkItem::Probe(probe.clone(), tx)).is_ok() {
                receivers.push(rx);
            }
        }
        let mut ok = 0;
        for rx in receivers {
            if rx.recv_timeout(Duration::from_secs(5)).unwrap_or(false) {
                ok += 1;
                shared.stats.warmups.fetch_add(1, Ordering::Relaxed);
            }
        }
        ok
    }

    /// Drain hook: take the named engine out of rotation (admission stops
    /// immediately) and wait up to `timeout` for its queued and in-flight
    /// work to finish. Returns whether the engine fully drained (`false`
    /// also for an unknown name). Warm caches stay resident, so
    /// [`FleetServer::undrain_engine`] restores service without a rebuild.
    pub fn drain_engine(&self, name: &str, timeout: Duration) -> bool {
        let Some(state) = self.shared.engines.iter().find(|s| s.name == name) else {
            return false;
        };
        state.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        while state.health.queue_depth() + state.health.inflight() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Return a drained engine to rotation. Returns `false` for an unknown
    /// name.
    pub fn undrain_engine(&self, name: &str) -> bool {
        match self.shared.engines.iter().find(|s| s.name == name) {
            Some(state) => {
                state.draining.store(false, Ordering::SeqCst);
                true
            }
            None => false,
        }
    }

    /// Snapshot of the lifetime fleet counters.
    pub fn stats(&self) -> FleetStats {
        let s = &self.shared.stats;
        let engines: Vec<EngineStatus> = self
            .shared
            .engines
            .iter()
            .map(|e| EngineStatus {
                name: e.name.clone(),
                parallelism: e.parallelism,
                queue_depth: e.health.queue_depth(),
                completed: e.health.completed(),
                ewma_ms: e.health.ewma_ms(),
                degradations: e.degradations.load(Ordering::Relaxed),
                draining: e.draining.load(Ordering::Relaxed),
                breaker: e.breaker.snapshot(),
                serve: e.serve.snapshot(),
            })
            .collect();
        FleetStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            deadline_rejected: s.deadline_rejected.load(Ordering::Relaxed),
            shed_overloaded: s.shed_overloaded.load(Ordering::Relaxed),
            shed_queue_full: s.shed_queue_full.load(Ordering::Relaxed),
            shed_no_engine: s.shed_no_engine.load(Ordering::Relaxed),
            engine_errors: s.engine_errors.load(Ordering::Relaxed),
            shutdown_rejected: s.shutdown_rejected.load(Ordering::Relaxed),
            rerouted: s.rerouted.load(Ordering::Relaxed),
            probes: s.probes.load(Ordering::Relaxed),
            probe_failures: s.probe_failures.load(Ordering::Relaxed),
            warmups: s.warmups.load(Ordering::Relaxed),
            breaker_trips: engines.iter().map(|e| e.breaker.trips).sum(),
            breaker_recloses: engines.iter().map(|e| e.breaker.recloses).sum(),
            degradations: engines.iter().map(|e| e.degradations).sum(),
            latency_ms: self.shared.latency_ms.summary(),
            queue_wait_ms: self.shared.queue_wait_ms.summary(),
            engines,
        }
    }

    /// Stop accepting requests, finish every engine's queue, and join all
    /// threads. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Maintenance first: it may be waiting on a canary the workers must
        // still serve.
        if let Some(handle) = self.maintenance.take() {
            let _ = handle.join();
        }
        for state in &self.shared.engines {
            state.queue.shutdown();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reply with an error, counting it in exactly one outcome bucket. Load
/// sheds also fire the flight recorder with a lazy fleet snapshot, so a
/// postmortem sees queue depths, breaker states, and the recent request
/// ring exactly as they were when the shed happened.
fn reply_err(
    shared: &FleetShared,
    mut tl: RequestTimeline,
    reply: &mpsc::Sender<FleetResult<InferResponse>>,
    err: ServeError,
) {
    let s = &shared.stats;
    let outcome = match &err {
        ServeError::DeadlineExceeded { waited_ms, budget_ms } => {
            s.deadline_rejected.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("fleet.deadline_exceeded").inc();
            telemetry::instant("fleet.deadline_exceeded", "serve");
            telemetry::flight::transition(
                "deadline_exceeded",
                format!("waited {waited_ms:.2} ms of {budget_ms:.2} ms budget"),
            );
            RequestOutcome::DeadlineExceeded
        }
        ServeError::Overloaded { predicted_wait_ms, budget_ms } => {
            s.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("fleet.shed").inc();
            telemetry::instant("fleet.shed", "serve");
            telemetry::flight::notify(
                "shed",
                format!(
                    "overloaded: predicted wait {predicted_wait_ms:.2} ms exceeds budget {budget_ms:.2} ms"
                ),
                || fleet_snapshot_context(shared),
            );
            RequestOutcome::Shed
        }
        ServeError::QueueFull { capacity } => {
            s.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("fleet.shed").inc();
            telemetry::instant("fleet.shed", "serve");
            telemetry::flight::notify(
                "shed",
                format!("queue full at capacity {capacity}"),
                || fleet_snapshot_context(shared),
            );
            RequestOutcome::Shed
        }
        ServeError::NoHealthyEngine => {
            s.shed_no_engine.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("fleet.shed").inc();
            telemetry::instant("fleet.shed", "serve");
            telemetry::flight::notify(
                "shed",
                "no healthy engine".to_owned(),
                || fleet_snapshot_context(shared),
            );
            RequestOutcome::Shed
        }
        ServeError::Rejected(_) => {
            s.rejected.fetch_add(1, Ordering::Relaxed);
            RequestOutcome::Rejected
        }
        ServeError::Engine(_) => {
            s.engine_errors.fetch_add(1, Ordering::Relaxed);
            RequestOutcome::Error
        }
        ServeError::Shutdown => {
            s.shutdown_rejected.fetch_add(1, Ordering::Relaxed);
            RequestOutcome::Rejected
        }
    };
    obs::finish_request(&mut tl, outcome, 0, 0);
    let _ = reply.send(Err(err));
}

fn reply_ok(shared: &FleetShared, mut req: FleetRequest, resp: InferResponse, pass: &Pass) {
    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    shared.latency_ms.observe(req.ticket.enqueued.elapsed().as_secs_f64() * 1e3);
    let batch_size = pass.batch_size as u32;
    obs::finish_request(&mut req.tl, RequestOutcome::Completed, batch_size, pass.batch_trace);
    let _ = req.ticket.reply.send(Ok(resp));
    telemetry::instant("fleet.reply", "serve");
}

/// Fleet state at a moment of trouble, serialized for a flight-recorder
/// snapshot: per-engine queue depth, health EWMA, breaker state, and live
/// engine memory, plus the lifetime outcome counters.
fn fleet_snapshot_context(shared: &FleetShared) -> serde_json::Value {
    let engines: Vec<serde_json::Value> = shared
        .engines
        .iter()
        .map(|e| {
            let b = e.breaker.snapshot();
            let mem = e.engine.memory();
            json!({
                "name": e.name.clone(),
                "parallelism": e.parallelism,
                "queue_depth": e.health.queue_depth(),
                "completed": e.health.completed(),
                "ewma_ms": e.health.ewma_ms(),
                "degradations": e.degradations.load(Ordering::Relaxed),
                "draining": e.draining.load(Ordering::Relaxed),
                "breaker": {
                    "state": format!("{:?}", b.state),
                    "trips": b.trips,
                    "recloses": b.recloses,
                    "last_trip_reason": b.last_trip_reason.clone().unwrap_or_default(),
                },
                "memory": {
                    "num_tensors": mem.num_tensors,
                    "num_bytes": mem.num_bytes,
                    "current_backend": mem.current_backend.clone(),
                    "degradations": mem.degradations,
                },
            })
        })
        .collect();
    let s = &shared.stats;
    json!({
        "submitted": s.submitted.load(Ordering::Relaxed),
        "completed": s.completed.load(Ordering::Relaxed),
        "shed_overloaded": s.shed_overloaded.load(Ordering::Relaxed),
        "shed_queue_full": s.shed_queue_full.load(Ordering::Relaxed),
        "shed_no_engine": s.shed_no_engine.load(Ordering::Relaxed),
        "deadline_rejected": s.deadline_rejected.load(Ordering::Relaxed),
        "engine_errors": s.engine_errors.load(Ordering::Relaxed),
        "rerouted": s.rerouted.load(Ordering::Relaxed),
        "engines": serde_json::Value::Array(engines),
    })
}

/// Pick an engine for a request: healthy (breaker closed, not draining),
/// placement-aware (heavy models prefer the fast-parallelism class),
/// cheapest by predicted wait, with the hard queue cap and — for fresh
/// requests only — the overload check applied.
fn pick_engine(
    shared: &FleetShared,
    key: ModelKey,
    heavy: bool,
    budget: Duration,
    exclude: Option<usize>,
    rerouted: bool,
) -> Result<usize, ServeError> {
    let cfg = &shared.config;
    let healthy: Vec<usize> = shared
        .engines
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            Some(*i) != exclude
                && s.breaker.admits()
                && !s.draining.load(Ordering::Relaxed)
        })
        .map(|(i, _)| i)
        .collect();
    if healthy.is_empty() {
        return Err(ServeError::NoHealthyEngine);
    }
    // Device-aware placement: big models want big devices — but a slow
    // answer beats no answer, so fall back to any healthy engine when the
    // whole fast class is out.
    let mut candidates: Vec<usize> = if heavy {
        healthy
            .iter()
            .copied()
            .filter(|&i| shared.engines[i].parallelism >= cfg.fast_parallelism)
            .collect()
    } else {
        healthy.clone()
    };
    if candidates.is_empty() {
        candidates = healthy;
    }
    candidates.retain(|&i| shared.engines[i].health.queue_depth() < cfg.queue_capacity);
    if candidates.is_empty() {
        return Err(ServeError::QueueFull { capacity: cfg.queue_capacity });
    }
    let best = candidates
        .into_iter()
        .min_by_key(|&i| shared.engines[i].health.predicted_wait_ns(key))
        .expect("non-empty candidate set");
    let predicted_ns = shared.engines[best].health.predicted_wait_ns(key);
    // Re-routed requests were already admitted: their contract is "an
    // answer or an explicit deadline error", so they skip the overload
    // check and let deadline enforcement at dequeue settle it.
    if !rerouted && predicted_ns as f64 > budget.as_nanos() as f64 * cfg.admission_slack {
        return Err(ServeError::Overloaded {
            predicted_wait_ms: predicted_ns as f64 / 1e6,
            budget_ms: budget.as_secs_f64() * 1e3,
        });
    }
    Ok(best)
}

/// Admit (or shed) a request: pick an engine and enqueue, replying with the
/// typed refusal otherwise.
fn route_request(
    shared: &FleetShared,
    mut req: FleetRequest,
    exclude: Option<usize>,
    rerouted: bool,
) {
    if rerouted {
        req.ticket.reroutes += 1;
        shared.stats.rerouted.fetch_add(1, Ordering::Relaxed);
        telemetry::counter("fleet.rerouted").inc();
        // Backstop against breaker-flap ping-pong: a request can visit each
        // engine at most once beyond its error-reroute budget.
        if req.ticket.reroutes > shared.config.max_reroutes + shared.engines.len() as u32 {
            reply_err(shared, req.tl, &req.ticket.reply, ServeError::NoHealthyEngine);
            return;
        }
    }
    let ticket = &req.ticket;
    let idx = match pick_engine(shared, req.key, ticket.heavy, ticket.budget, exclude, rerouted) {
        Ok(idx) => idx,
        Err(e) => return reply_err(shared, req.tl, &req.ticket.reply, e),
    };
    let state = &shared.engines[idx];
    // Admission is stamped once, on the first enqueue — re-routes keep the
    // original admission time so queue-phase attribution includes time lost
    // to breaker-trip ping-pong.
    if req.tl.admitted_ns == 0 {
        req.tl.admitted_ns = telemetry::now_ns();
    }
    {
        // Before the push: once the request is visible the worker may drain
        // and reply at any moment, and this marker must fall inside the
        // request envelope — as the depth gauge must count it first.
        let _scope = telemetry::trace_scope(req.tl.trace_id);
        telemetry::instant("serve.enqueue", "serve");
    }
    state.health.enqueued(1);
    if let Err(WorkItem::Request(req)) = state.queue.push(WorkItem::Request(req)) {
        state.health.drained(1, 0);
        reply_err(shared, req.tl, &req.ticket.reply, ServeError::Shutdown);
    }
}

/// A breaker trip: drain the tripped engine's queued requests and re-route
/// them to the rest of the fleet. In-flight work finishes normally.
fn on_trip(shared: &FleetShared, idx: usize) {
    let state = &shared.engines[idx];
    telemetry::counter("fleet.breaker_trips").inc();
    telemetry::instant("fleet.breaker_trip", "serve");
    let reason = state
        .breaker
        .snapshot()
        .last_trip_reason
        .unwrap_or_else(|| "breaker tripped".to_owned());
    telemetry::flight::notify(
        "breaker_trip",
        format!("engine {} tripped: {reason}", state.name),
        || fleet_snapshot_context(shared),
    );
    let requests = state.queue.extract(|item| matches!(item, WorkItem::Request(_)));
    state.health.drained(requests.len(), 0);
    for item in requests {
        if let WorkItem::Request(req) = item {
            route_request(shared, req, Some(idx), true);
        }
    }
}

/// Engine `idx`'s worker thread: the shared micro-batcher behind the
/// fleet's [`EngineDoor`], until the engine's queue shuts down.
fn engine_worker(shared: &FleetShared, idx: usize) {
    let EngineState { queue, engine, serve, .. } = &*shared.engines[idx];
    batcher::run(&EngineDoor { shared, idx }, queue, engine, &shared.config, serve);
}

/// One fleet engine's side of the worker.
struct EngineDoor<'a> {
    shared: &'a FleetShared,
    idx: usize,
}

impl FrontDoor for EngineDoor<'_> {
    type Item = WorkItem;
    type Ticket = FleetTicket;

    fn admit(&self, exec: &mut Executor<'_>, drained: Vec<WorkItem>) -> Vec<FleetRequest> {
        let (shared, idx) = (self.shared, self.idx);
        let state = &shared.engines[idx];
        // Degradation watch: the engine fell off its preferred backend
        // since the last drain (e.g. context loss absorbed by the PR-1
        // ladder). The worker's cache already rebuilds on the fallback; the
        // breaker decides whether the engine leaves rotation.
        let generation = state.engine.degradation_generation();
        if state.health.generation_changed(generation) {
            state.degradations.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("fleet.degradations").inc();
            telemetry::flight::notify(
                "degradation",
                format!("engine {} fell to generation {generation}", state.name),
                || fleet_snapshot_context(shared),
            );
            if state
                .breaker
                .record_degradation(&format!("backend degradation (generation {generation})"))
            {
                on_trip(shared, idx);
            }
        }

        let mut requests: Vec<FleetRequest> = Vec::new();
        for item in drained {
            match item {
                WorkItem::Request(r) => requests.push(r),
                // Canaries and warm-ups run even when the breaker is open —
                // that's how a tripped engine proves it recovered.
                WorkItem::Probe(probe, reply) => {
                    // Probes are requests too: a minted scope keeps any
                    // spans they emit (e.g. `serve.model_build`)
                    // attributable in a trace.
                    let _scope = telemetry::trace_scope(telemetry::next_trace_id());
                    let ran = exec.run_one(probe.key, &probe.source, &probe.values, &probe.dims);
                    let _ = reply.send(ran.is_ok());
                }
            }
        }

        // Deadline enforcement at dequeue: expired requests never occupy a
        // batch slot. A breaker that tripped while they queued re-routes
        // them instead of executing on a degraded engine.
        let admitting = state.breaker.admits();
        let now = Instant::now();
        let mut survivors: Vec<FleetRequest> = Vec::new();
        for req in requests {
            if now >= req.ticket.deadline {
                let err = ServeError::DeadlineExceeded {
                    waited_ms: req.ticket.enqueued.elapsed().as_secs_f64() * 1e3,
                    budget_ms: req.ticket.budget.as_secs_f64() * 1e3,
                };
                state.health.drained(1, 0);
                reply_err(shared, req.tl, &req.ticket.reply, err);
            } else if !admitting {
                state.health.drained(1, 0);
                route_request(shared, req, Some(idx), true);
            } else {
                shared.queue_wait_ms.observe(req.ticket.enqueued.elapsed().as_secs_f64() * 1e3);
                survivors.push(req);
            }
        }
        state.health.drained(survivors.len(), survivors.len());
        survivors
    }

    fn complete(
        &self,
        pass: &Pass,
        chunk: Vec<FleetRequest>,
        outcome: webml_core::Result<Vec<InferResponse>>,
    ) {
        let (shared, idx) = (self.shared, self.idx);
        let state = &shared.engines[idx];
        let Some(first) = chunk.first() else { return };
        state.health.observed(first.key, pass.per_request_ns, chunk.len());
        match outcome {
            Ok(responses) => {
                note_execution(shared, idx, first.ticket.target_ms, pass.per_request_ns);
                for (req, resp) in chunk.into_iter().zip(responses) {
                    reply_ok(shared, req, resp, pass);
                }
            }
            Err(e) => {
                // Device-flavored failures count toward the breaker and get
                // re-routed; deterministic request problems (bad shape) are
                // the caller's — no breaker, no reroute, or one poison
                // request could trip the whole fleet.
                let device_fault = e.is_transient() || e.is_degradable();
                let reason = format!("execution error: {e}");
                for req in chunk {
                    if device_fault && state.breaker.record_failure(&reason) {
                        on_trip(shared, idx);
                    }
                    if device_fault && req.ticket.reroutes < shared.config.max_reroutes {
                        route_request(shared, req, Some(idx), true);
                    } else {
                        reply_err(shared, req.tl, &req.ticket.reply, ServeError::Engine(e.clone()));
                    }
                }
            }
        }
    }
}

/// Classify an execution outcome for the breaker: success resets the
/// failure streak; an SLO-blowing straggler counts as a timeout. Trips
/// drain-and-reroute the engine's queue.
fn note_execution(shared: &FleetShared, idx: usize, target_ms: f64, per_request_ns: u64) {
    let state = &shared.engines[idx];
    let per_ms = per_request_ns as f64 / 1e6;
    let limit = target_ms * state.breaker.config().timeout_slo_multiple;
    if per_ms > limit {
        let reason = format!("slow execution: {per_ms:.2} ms/request exceeds {limit:.2} ms");
        telemetry::counter("fleet.slo_timeouts").inc();
        if state.breaker.record_failure(&reason) {
            on_trip(shared, idx);
        }
    } else {
        state.breaker.record_success();
    }
}

/// The maintenance loop: schedules recovery for tripped engines — recovery
/// hook, backend promotion, then a canary probe through the engine's own
/// worker. Enough consecutive canary passes re-close the breaker and
/// re-admit the engine.
fn maintenance_loop(shared: &Arc<FleetShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(shared.config.maintenance_interval);
        for state in shared.engines.iter() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if state.breaker.admits() {
                continue;
            }
            // A canary needs an input: the first example the fleet saw.
            let Some(canary) = shared.canary.get() else { continue };
            if !state.breaker.try_begin_probe() {
                continue;
            }
            shared.stats.probes.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("fleet.probes").inc();
            // Recovery first: restore the device (hook), then promote the
            // engine back to its preferred backend. `promote_backend` is
            // safe to call optimistically — a still-broken backend just
            // degrades again, which the canary check below catches.
            let recovered = match &state.recover {
                Some(hook) => hook(),
                None => true,
            };
            if !recovered {
                shared.stats.probe_failures.fetch_add(1, Ordering::Relaxed);
                state.breaker.probe_result(false);
                continue;
            }
            let _ = state.engine.promote_backend();
            let generation_before = state.engine.degradation_generation();
            let (tx, rx) = mpsc::channel();
            if state.queue.push(WorkItem::Probe(canary.clone(), tx)).is_err() {
                state.breaker.probe_result(false);
                return;
            }
            let ran_ok = rx.recv_timeout(Duration::from_millis(500)).unwrap_or(false);
            // The PR-1 ladder makes almost any forward "succeed" by
            // degrading — a real recovery must succeed while *staying* on
            // the preferred backend.
            let ok = ran_ok
                && state.engine.degradation_generation() == generation_before
                && state.engine.backend_health().at_preferred;
            if !ok {
                shared.stats.probe_failures.fetch_add(1, Ordering::Relaxed);
            }
            if state.breaker.probe_result(ok) {
                // Re-admitted: the generation watch must not re-trip on the
                // degradations the probe cycle already acknowledged.
                state.health.generation_changed(state.engine.degradation_generation());
                telemetry::counter("fleet.breaker_recloses").inc();
                telemetry::instant("fleet.breaker_reclose", "serve");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{cpu_engine, faulty_webgl_engine};
    use webml_layers::{Activation, Dense, Sequential};
    use webml_webgl_sim::fault::FaultPlan;

    fn mlp_source(e: &Engine, seed: u64) -> ModelSource {
        mlp_of(e, seed, [4, 8, 3])
    }

    fn mlp_of(e: &Engine, seed: u64, [input, hidden, classes]: [usize; 3]) -> ModelSource {
        let mut model = Sequential::new(e).with_seed(seed);
        model.add(Dense::new(hidden).with_input_dim(input).with_activation(Activation::Relu));
        model.add(Dense::new(classes).with_activation(Activation::Softmax));
        model.build([input]).unwrap();
        let artifacts = webml_converter::to_artifacts(&model, None).unwrap();
        for (_, v) in model.named_weights() {
            v.dispose();
        }
        ModelSource::Artifacts(artifacts)
    }

    fn two_engine_fleet(config: FleetConfig) -> FleetServer {
        let specs = vec![
            EngineSpec::new("a", &cpu_engine(), 8),
            EngineSpec::new("b", &cpu_engine(), 8),
        ];
        FleetServer::new(specs, config)
    }

    #[test]
    fn fleet_routes_and_accounts() {
        let fleet = two_engine_fleet(FleetConfig::default());
        let key = fleet.register(mlp_source(&cpu_engine(), 7), ModelSlo::default());
        let pending: Vec<FleetPending> = (0..24)
            .map(|i| fleet.submit(key, vec![i as f32 * 0.1, 0.2, -0.3, 0.4], vec![4]))
            .collect();
        for p in pending {
            let resp = p.wait().unwrap();
            assert_eq!(resp.dims, vec![3]);
            assert!((resp.values.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
        let stats = fleet.stats();
        assert_eq!(stats.submitted, 24);
        assert_eq!(stats.completed, 24);
        assert_eq!(stats.accounted(), stats.submitted, "every request has one outcome: {stats:?}");
        assert_eq!(stats.engines.len(), 2);
        assert_eq!(stats.engines.iter().map(|e| e.completed).sum::<u64>(), 24);
        // Each engine's worker reports its batching and cache counters.
        let workers: Vec<&ServeStats> = stats.engines.iter().map(|e| &e.serve).collect();
        assert_eq!(workers.iter().map(|w| w.served).sum::<u64>(), 24);
        for w in workers.iter().filter(|w| w.served > 0) {
            assert_eq!(w.batched_requests + w.single_requests, w.served, "{w:?}");
            assert_eq!(w.cache_misses, 1, "one model, built once: {w:?}");
            assert_eq!(w.cache_hits + 1, w.batches + w.single_requests, "{w:?}");
        }
    }

    #[test]
    fn the_canary_is_the_first_example_the_fleet_saw() {
        let fleet = two_engine_fleet(FleetConfig::default());
        let first = fleet.register(mlp_source(&cpu_engine(), 7), ModelSlo::default());
        let second = fleet.register(mlp_source(&cpu_engine(), 8), ModelSlo::default());
        assert!(fleet.shared.canary.get().is_none(), "registering captures nothing");
        fleet.infer(0xdead, vec![9.0; 4], vec![4]).unwrap_err();
        assert!(fleet.shared.canary.get().is_none(), "a refused request is no canary");
        // Traffic reaches the model registered second first: it probes.
        fleet.infer(second, vec![0.5, 0.6, 0.7, 0.8], vec![4]).unwrap();
        fleet.infer(first, vec![0.1, 0.2, 0.3, 0.4], vec![4]).unwrap();
        assert_eq!(fleet.warm(first, vec![0.0; 4], vec![4]), 2);
        let canary = fleet.shared.canary.get().expect("captured at the first admitted submit");
        assert_eq!((canary.key, &canary.values), (second, &vec![0.5, 0.6, 0.7, 0.8]));
    }

    /// A context loss at every draw of a four-chunk drain, the drain fixed
    /// by queueing it before the worker runs. Whatever was in flight when
    /// the context went — submitted chunks awaiting collection, the chunk
    /// being submitted — ends in an answer equal on bits to the fault-free
    /// one, and every ledger balances.
    #[test]
    fn a_context_loss_at_any_draw_of_a_multi_chunk_drain_ends_in_answers() {
        const REQUESTS: usize = 13;
        // Queue `requests` on a one-engine fleet, then run its worker here:
        // the whole queue is one drain.
        let drain = |engine: &Engine, requests: usize| {
            let spec = EngineSpec::new("only", engine, 8);
            let config = FleetConfig { max_batch: 4, ..Default::default() };
            let mut fleet = FleetServer::idle(vec![spec], config);
            let key = fleet.register(
                mlp_source(&cpu_engine(), 7),
                ModelSlo::new(1_000.0, Duration::from_secs(60)),
            );
            let pending: Vec<FleetPending> = (0..requests)
                .map(|i| {
                    let example = (0..4).map(|j| ((i * 4 + j) as f32).cos()).collect();
                    fleet.submit(key, example, vec![4])
                })
                .collect();
            fleet.shutdown();
            engine_worker(&fleet.shared, 0);
            let replies: Vec<_> = pending.into_iter().map(FleetPending::wait).collect();
            (replies, fleet.stats())
        };
        let (want, _) = drain(&cpu_engine(), REQUESTS);
        // Whether the loss scheduled at draw `loss_at` happened; everything
        // else about the drain must not depend on it.
        let lost = |loss_at: u64, requests: usize| -> bool {
            let engine = faulty_webgl_engine(FaultPlan::none().lose_context_at(loss_at));
            let baseline = engine.memory();
            let (got, stats) = drain(&engine, requests);
            assert_eq!(got, want[..requests], "loss at draw {loss_at}");
            assert_eq!(stats.completed, requests as u64, "loss at draw {loss_at}: {stats:?}");
            assert_eq!(stats.accounted(), stats.submitted, "loss at draw {loss_at}: {stats:?}");
            assert_eq!(stats.engines[0].serve.served, requests as u64, "loss at draw {loss_at}");
            let after = engine.memory();
            assert_eq!(
                (after.num_tensors, after.num_bytes),
                (baseline.num_tensors, baseline.num_bytes),
                "loss at draw {loss_at}"
            );
            engine.degradations() == 1
        };
        let first_pass = (1..).take_while(|&at| lost(at, 1)).count();
        let whole_drain = (1..).take_while(|&at| lost(at, REQUESTS)).count();
        // Every chunk is submitted before the first is collected, so each
        // loss past the first pass's draws fell between a `submit_chunk`
        // and its `complete_chunk`.
        assert!(first_pass > 0 && whole_drain >= 3 * first_pass, "{first_pass} / {whole_drain}");
    }

    /// Attribution on an asynchronous rung: the worker waits the compute
    /// fence before stamping `compute_end`, so a fleet engine charges the
    /// device's work to `compute` and only the copy-out of a ten-float row
    /// to `readback`. Read from the request timelines, not from wall time.
    #[test]
    fn a_fleet_engine_charges_device_work_to_compute_not_readback() {
        use webml_telemetry::attribution;
        const REQUESTS: usize = 64;
        let engine = faulty_webgl_engine(FaultPlan::none());
        let spec = EngineSpec::new("iris", &engine, 8);
        let fleet = FleetServer::new(vec![spec], FleetConfig::default());
        // The benchmark's heavy MLP; the seed keeps its content hash (the
        // attribution table's key) this test's own.
        let key = fleet.register(
            mlp_of(&cpu_engine(), 4242, [256, 1024, 10]),
            ModelSlo::new(250.0, Duration::from_secs(2)),
        );
        attribution::set_model_label(key, "fleet-heavy");
        let example =
            |i: usize| -> Vec<f32> { (0..256).map(|j| ((i + j) as f32 * 0.1).sin()).collect() };
        assert_eq!(fleet.warm(key, example(0), vec![256]), 1);
        for i in 0..REQUESTS {
            fleet.infer(key, example(i), vec![256]).expect("served inference");
        }
        let report = attribution::attribution_report();
        let model = report.model("fleet-heavy").expect("the model's timelines were recorded");
        assert_eq!((model.complete, model.incomplete), (REQUESTS as u64, 0));
        let p50 = |phase: &str| {
            let found = model.phases.iter().find(|p| p.phase == phase).expect("one of the six");
            found.summary.p50
        };
        let (compute, readback) = (p50("compute"), p50("readback"));
        assert!(compute > readback, "compute p50 {compute:.4} ms vs readback p50 {readback:.4} ms");
    }

    #[test]
    fn unknown_model_and_bad_shapes_are_rejected() {
        let fleet = two_engine_fleet(FleetConfig::default());
        let key = fleet.register(mlp_source(&cpu_engine(), 7), ModelSlo::default());
        let err = fleet.infer(0xdead, vec![0.0; 4], vec![4]).unwrap_err();
        assert!(matches!(err, ServeError::Rejected(_)), "{err}");
        let err = fleet.infer(key, vec![0.0; 3], vec![4]).unwrap_err();
        assert!(matches!(err, ServeError::Rejected(_)), "{err}");
        assert!(fleet.infer(key, vec![0.0; 4], vec![4]).is_ok(), "fleet still serves");
        let stats = fleet.stats();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.accounted(), stats.submitted);
    }

    #[test]
    fn expired_deadline_is_an_explicit_error() {
        let fleet = two_engine_fleet(FleetConfig::default());
        let key = fleet.register(mlp_source(&cpu_engine(), 7), ModelSlo::default());
        let err = fleet
            .submit_with_deadline(key, vec![0.0; 4], vec![4], Duration::ZERO)
            .wait()
            .unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err}");
        let stats = fleet.stats();
        assert_eq!(stats.deadline_rejected, 1);
        assert_eq!(stats.accounted(), stats.submitted);
    }

    #[test]
    fn overload_sheds_explicitly_instead_of_queueing() {
        // A tiny queue cap plus a generous deadline: the burst overflows
        // the cap (explicit sheds) while every admitted request completes.
        let fleet = FleetServer::new(
            vec![EngineSpec::new("only", &cpu_engine(), 8)],
            FleetConfig { queue_capacity: 4, ..Default::default() },
        );
        let key = fleet
            .register(mlp_source(&cpu_engine(), 7), ModelSlo::new(1.0, Duration::from_secs(5)));
        // Warm first so the burst measures queueing, not cold model build.
        assert_eq!(fleet.warm(key, vec![0.1, 0.2, 0.3, 0.4], vec![4]), 1);
        let pending: Vec<FleetPending> =
            (0..256).map(|_| fleet.submit(key, vec![0.1, 0.2, 0.3, 0.4], vec![4])).collect();
        let mut ok = 0;
        let mut shed = 0;
        for p in pending {
            match p.wait() {
                Ok(_) => ok += 1,
                Err(e) if e.is_shed() => shed += 1,
                Err(e) => panic!("unexpected error under overload: {e}"),
            }
        }
        assert!(ok >= 1, "admitted requests are served");
        assert!(shed >= 1, "overload sheds explicitly");
        let stats = fleet.stats();
        assert_eq!(stats.total_shed(), shed);
        assert_eq!(stats.accounted(), stats.submitted, "{stats:?}");
    }

    #[test]
    fn admission_control_sheds_on_predicted_wait() {
        // A deep queue cap but a deadline budget far below what the cost
        // model predicts once a few requests stack up: admission control
        // must shed with `Overloaded` instead of queueing guaranteed
        // deadline misses.
        let fleet = FleetServer::new(
            vec![EngineSpec::new("only", &cpu_engine(), 8)],
            FleetConfig::default(),
        );
        let key = fleet
            .register(mlp_source(&cpu_engine(), 7), ModelSlo::new(1.0, Duration::from_micros(50)));
        assert_eq!(fleet.warm(key, vec![0.1, 0.2, 0.3, 0.4], vec![4]), 1);
        // Seed the latency EWMA with real observations (generous deadline).
        for _ in 0..3 {
            fleet
                .submit_with_deadline(key, vec![0.1; 4], vec![4], Duration::from_secs(5))
                .wait()
                .unwrap();
        }
        let pending: Vec<FleetPending> =
            (0..512).map(|_| fleet.submit(key, vec![0.1, 0.2, 0.3, 0.4], vec![4])).collect();
        for p in pending {
            match p.wait() {
                Ok(_) | Err(ServeError::Overloaded { .. })
                | Err(ServeError::QueueFull { .. })
                | Err(ServeError::DeadlineExceeded { .. }) => {}
                Err(e) => panic!("unexpected error under overload: {e}"),
            }
        }
        let stats = fleet.stats();
        assert!(
            stats.shed_overloaded >= 1,
            "the cost model sheds predicted deadline misses: {stats:?}"
        );
        assert_eq!(stats.accounted(), stats.submitted, "{stats:?}");
    }

    #[test]
    fn heavy_models_prefer_fast_engines() {
        let fleet = FleetServer::new(
            vec![
                EngineSpec::new("slow", &cpu_engine(), 2),
                EngineSpec::new("fast", &cpu_engine(), 64),
            ],
            // Tiny threshold: our test MLP counts as heavy.
            FleetConfig { heavy_model_bytes: 16, ..Default::default() },
        );
        let key = fleet.register(mlp_source(&cpu_engine(), 7), ModelSlo::default());
        for _ in 0..8 {
            fleet.infer(key, vec![0.1, 0.2, 0.3, 0.4], vec![4]).unwrap();
        }
        let stats = fleet.stats();
        let fast = stats.engines.iter().find(|e| e.name == "fast").unwrap();
        let slow = stats.engines.iter().find(|e| e.name == "slow").unwrap();
        assert_eq!(fast.completed, 8, "heavy traffic lands on the fast class: {stats:?}");
        assert_eq!(slow.completed, 0);
    }

    #[test]
    fn drain_hook_takes_engine_out_of_rotation() {
        let fleet = two_engine_fleet(FleetConfig::default());
        let key = fleet.register(mlp_source(&cpu_engine(), 7), ModelSlo::default());
        fleet.infer(key, vec![0.0; 4], vec![4]).unwrap();
        assert!(fleet.drain_engine("a", Duration::from_secs(2)));
        for _ in 0..6 {
            fleet.infer(key, vec![0.5; 4], vec![4]).unwrap();
        }
        let before = fleet.stats();
        let a = before.engines.iter().find(|e| e.name == "a").unwrap();
        let b = before.engines.iter().find(|e| e.name == "b").unwrap();
        assert!(a.draining);
        assert!(b.completed >= 6, "drained engine takes no new work: {before:?}");
        assert!(fleet.undrain_engine("a"));
        assert!(!fleet.drain_engine("nope", Duration::from_millis(1)), "unknown engine");
        assert!(fleet.infer(key, vec![0.0; 4], vec![4]).is_ok());
    }

    #[test]
    fn draining_every_engine_sheds_with_no_healthy_engine() {
        let fleet = two_engine_fleet(FleetConfig::default());
        let key = fleet.register(mlp_source(&cpu_engine(), 7), ModelSlo::default());
        fleet.drain_engine("a", Duration::from_secs(1));
        fleet.drain_engine("b", Duration::from_secs(1));
        let err = fleet.infer(key, vec![0.0; 4], vec![4]).unwrap_err();
        assert_eq!(err, ServeError::NoHealthyEngine);
        let stats = fleet.stats();
        assert_eq!(stats.shed_no_engine, 1);
        assert_eq!(stats.accounted(), stats.submitted);
    }

    #[test]
    fn warm_builds_every_engine_cache() {
        let fleet = two_engine_fleet(FleetConfig::default());
        let key = fleet.register(mlp_source(&cpu_engine(), 7), ModelSlo::default());
        assert_eq!(fleet.warm(key, vec![0.1, 0.2, 0.3, 0.4], vec![4]), 2);
        assert_eq!(fleet.warm(0xdead, vec![0.0], vec![1]), 0, "unknown model warms nothing");
        assert!(fleet.infer(key, vec![0.0; 4], vec![4]).is_ok());
        assert_eq!(fleet.stats().warmups, 2);
    }

    #[test]
    fn shutdown_refuses_new_requests_explicitly() {
        let mut fleet = two_engine_fleet(FleetConfig::default());
        let key = fleet.register(mlp_source(&cpu_engine(), 7), ModelSlo::default());
        fleet.infer(key, vec![0.0; 4], vec![4]).unwrap();
        fleet.shutdown();
        let err = fleet.infer(key, vec![0.0; 4], vec![4]).unwrap_err();
        assert_eq!(err, ServeError::Shutdown);
        let stats = fleet.stats();
        assert_eq!(stats.shutdown_rejected, 1);
        assert_eq!(stats.accounted(), stats.submitted);
    }
}
