//! # webml-serve
//!
//! Concurrent inference serving on top of the eager engine: a dynamic
//! micro-batcher plus a warm-model LRU cache.
//!
//! The paper positions TensorFlow.js as a *deployment* vehicle — models
//! shipped to many clients with inference interleaved into a live event
//! loop (Sec 3.7, Sec 5). This crate reproduces the server-side shape of
//! that story: many concurrent clients submit single-example requests, a
//! dispatcher coalesces same-model same-shape requests into one batched
//! forward pass (amortizing per-kernel dispatch overhead, the dominant
//! cost for small models), splits the batch output back per request, and
//! keeps recently used models warm so repeat traffic skips weight upload.
//!
//! ## Batching semantics
//!
//! - Requests carry host-side example data (`values` + per-example `dims`).
//! - The dispatcher drains the queue once `max_batch` requests are pending
//!   or `max_wait` has elapsed since it saw the first one.
//! - Drained requests group by `(model, example dims)`; each group runs as
//!   one `[n, dims...]` forward pass, chunked to `max_batch`.
//! - Groups of one — and any group whose batched pass fails — degrade to
//!   per-request execution, so shape-incompatible or failing traffic is
//!   served correctly, just without the batching win.
//!
//! ## Degradation interaction (PR 1 ladder)
//!
//! The cache snapshots `Engine::degradations()`; when a backend fallback
//! happens (e.g. simulated WebGL context loss) the whole cache is
//! invalidated and models rebuild on the fallback backend on next use.
//! In-flight requests are transparently retried per-request — callers see
//! answers, not errors.

#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod health;
pub(crate) mod obs;
pub mod router;

pub use cache::{Loaded, ModelCache, ModelKey, ModelSource};
pub use error::ServeError;
pub use health::{BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker, EngineHealth};
pub use router::{
    EngineSpec, EngineStatus, FleetConfig, FleetPending, FleetResult, FleetServer, FleetStats,
    ModelSlo, RecoverHook,
};

use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use webml_core::backend::DataFuture;
use webml_core::{Engine, Error, FenceToken, Result, Shape, Tensor};
use webml_telemetry as telemetry;
use webml_telemetry::{
    Histogram, HistogramSummary, PhaseStamps, RequestCtx, RequestOutcome, RequestTimeline,
};

/// Micro-batcher and cache tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest coalesced batch per forward pass (1 disables batching).
    pub max_batch: usize,
    /// How long the dispatcher holds the first queued request open for
    /// batch-mates before running a partial batch.
    pub max_wait: Duration,
    /// Adaptively shrink the batch window toward zero when the queue is
    /// shallow: with a single closed-loop client there are never
    /// batch-mates to wait for, and holding the window only adds `max_wait`
    /// of dead latency per request. The dispatcher skips the window
    /// entirely unless the queue suggests batching will pay (more than one
    /// request already queued, or recent drains averaged ≥ 1.5 requests).
    pub adaptive_window: bool,
    /// Warm models kept resident in the LRU cache.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            adaptive_window: true,
            cache_capacity: 4,
        }
    }
}

/// The adaptive batch-window policy shared by the single-engine dispatcher
/// and the fleet workers: hold the window open for batch-mates only when
/// the queue is likely to produce them, and only for as many as recent
/// traffic actually delivers.
///
/// Two pathologies bound the design. A single closed-loop client never has
/// batch-mates: holding the window adds `max_wait` of dead latency per
/// request for nothing. And `k` closed-loop clients (`k < max_batch`) can
/// never fill a `max_batch` window: waiting for requests that cannot
/// arrive stalls *every* batch for the full `max_wait`. So the policy
/// tracks an EWMA of drain sizes (the observed concurrency) and (a) skips
/// the window entirely when the queue is shallow and recent drains
/// averaged < 1.5 requests, (b) otherwise waits only until the drain-size
/// EWMA's worth of requests are queued. The drain itself still scoops
/// everything pending, so rising concurrency grows the EWMA — and the
/// batches — on its own.
pub(crate) struct WindowPolicy {
    adaptive: bool,
    /// EWMA of recent drain sizes — the observed degree of concurrency.
    ewma_drain: f64,
}

impl WindowPolicy {
    pub(crate) fn new(adaptive: bool) -> WindowPolicy {
        WindowPolicy { adaptive, ewma_drain: 0.0 }
    }

    /// Whether the dispatcher should hold the batch window open, given the
    /// queue length at drain start.
    pub(crate) fn should_wait(&self, queued: usize) -> bool {
        if !self.adaptive {
            return true;
        }
        queued > 1 || self.ewma_drain >= 1.5
    }

    /// How many queued requests end the window early: the observed
    /// concurrency (floored, so jitter undershoots rather than stalls),
    /// clamped to `[2, max_batch]`. Without the adaptive policy this is
    /// always `max_batch` (the fixed-window behavior).
    pub(crate) fn target_batch(&self, max_batch: usize) -> usize {
        if !self.adaptive {
            return max_batch;
        }
        (self.ewma_drain as usize).max(2).min(max_batch.max(1))
    }

    pub(crate) fn observe_drain(&mut self, drained: usize) {
        self.ewma_drain = self.ewma_drain * 0.7 + drained as f64 * 0.3;
    }
}

/// One served inference result: flattened output values plus per-example
/// output dims (no batch dimension).
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Flattened output values for this request's example.
    pub values: Vec<f32>,
    /// Per-example output shape.
    pub dims: Vec<usize>,
}

/// Lifetime serving counters (monotonic snapshots from
/// [`ModelServer::stats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests answered (successfully or with an error reply).
    pub served: u64,
    /// Batched forward passes executed (size ≥ 2).
    pub batches: u64,
    /// Requests answered from inside a batched pass.
    pub batched_requests: u64,
    /// Requests executed singly (group of one, `max_batch` 1, or fallback).
    pub single_requests: u64,
    /// Batched passes that failed and degraded to per-request execution.
    pub batch_fallbacks: u64,
    /// Warm-cache hits.
    pub cache_hits: u64,
    /// Cache misses (model built and uploaded).
    pub cache_misses: u64,
    /// LRU evictions.
    pub cache_evictions: u64,
    /// Whole-cache invalidations after an engine backend degradation.
    pub cache_invalidations: u64,
    /// Forward passes served by a precompiled execution plan (aggregated
    /// over warm graph models, including since-evicted ones).
    pub plan_hits: u64,
    /// Execution plans compiled (cold feed-shape signature or rebuild
    /// after a backend degradation).
    pub plan_misses: u64,
    /// Plan-cache invalidations after a backend degradation.
    pub plan_invalidations: u64,
    /// Always 0: the plan is the only graph executor
    /// ([`webml_converter::PlanStats::fallbacks`]). Kept because callers
    /// read it.
    pub plan_fallbacks: u64,
    /// Distribution of per-request queue wait (submit → dispatcher drain),
    /// in milliseconds.
    pub queue_wait_ms: HistogramSummary,
    /// Distribution of executed forward-pass batch sizes (singles count
    /// as size 1).
    pub batch_size: HistogramSummary,
}

#[derive(Default)]
struct StatsCells {
    served: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    single_requests: AtomicU64,
    batch_fallbacks: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    cache_invalidations: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_invalidations: AtomicU64,
    plan_fallbacks: AtomicU64,
}

struct Request {
    key: ModelKey,
    values: Vec<f32>,
    dims: Vec<usize>,
    reply: mpsc::Sender<Result<InferResponse>>,
    enqueued: Instant,
    /// Request-scoped trace context + phase timeline, stamped as the
    /// request moves submit → queue → batch → device and finalized at
    /// reply time (see [`obs::finish_request`]).
    tl: RequestTimeline,
}

struct QueueState {
    requests: VecDeque<Request>,
    shutdown: bool,
}

struct Shared {
    engine: Engine,
    config: ServeConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    sources: Mutex<HashMap<ModelKey, Arc<ModelSource>>>,
    stats: StatsCells,
    /// Per-server (not registry-global) histograms, so concurrent servers
    /// and repeated benchmark cells don't pollute each other's quantiles.
    queue_wait_ms: Histogram,
    batch_size: Histogram,
}

/// A handle to an in-flight [`ModelServer::submit`] request.
pub struct PendingInference {
    rx: mpsc::Receiver<Result<InferResponse>>,
}

impl PendingInference {
    /// Block until the response arrives.
    ///
    /// # Errors
    /// Propagates serving errors; fails if the server shut down first.
    pub fn wait(self) -> Result<InferResponse> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(Error::invalid("serve", "server shut down before replying")))
    }
}

/// The serving front end: owns the dispatcher thread; clone-free, share via
/// `Arc` (all methods take `&self`).
pub struct ModelServer {
    shared: Arc<Shared>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl ModelServer {
    /// Start a server (and its dispatcher thread) over `engine`.
    pub fn new(engine: &Engine, config: ServeConfig) -> ModelServer {
        let shared = Arc::new(Shared {
            engine: engine.clone(),
            config,
            queue: Mutex::new(QueueState { requests: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
            sources: Mutex::new(HashMap::new()),
            stats: StatsCells::default(),
            queue_wait_ms: Histogram::new(),
            batch_size: Histogram::new(),
        });
        let worker = shared.clone();
        let dispatcher = std::thread::Builder::new()
            .name("webml-serve-dispatcher".into())
            .spawn(move || dispatch_loop(&worker))
            .expect("spawn dispatcher thread");
        ModelServer { shared, dispatcher: Some(dispatcher) }
    }

    /// Register a model for serving; returns the key clients submit against.
    /// Re-registering identical content returns the same key (dedup by
    /// content hash).
    pub fn register(&self, source: ModelSource) -> ModelKey {
        let key = source.key();
        self.shared.sources.lock().entry(key).or_insert_with(|| Arc::new(source));
        key
    }

    /// Enqueue one inference: `values` is one example with shape `dims`
    /// (no batch dimension). Returns immediately with a pending handle.
    pub fn submit(&self, key: ModelKey, values: Vec<f32>, dims: Vec<usize>) -> PendingInference {
        let (tx, rx) = mpsc::channel();
        let ctx = RequestCtx::mint();
        let mut tl = RequestTimeline::new(ctx.trace_id, ctx.parent_span, key);
        tl.submitted_ns = telemetry::now_ns();
        let expected: usize = dims.iter().product();
        if expected != values.len() || dims.is_empty() {
            obs::finish_request(&mut tl, RequestOutcome::Rejected, 0, 0);
            let _ = tx.send(Err(Error::invalid(
                "serve",
                format!("example of {} values does not match dims {dims:?}", values.len()),
            )));
            return PendingInference { rx };
        }
        if !self.shared.sources.lock().contains_key(&key) {
            obs::finish_request(&mut tl, RequestOutcome::Rejected, 0, 0);
            let _ = tx.send(Err(Error::invalid("serve", format!("unknown model key {key:#x}"))));
            return PendingInference { rx };
        }
        {
            let mut q = self.shared.queue.lock();
            if q.shutdown {
                obs::finish_request(&mut tl, RequestOutcome::Rejected, 0, 0);
                let _ = tx.send(Err(Error::invalid("serve", "server is shutting down")));
                return PendingInference { rx };
            }
            tl.admitted_ns = telemetry::now_ns();
            {
                // Recorded before the push: once queued, the dispatcher may
                // reply at any moment, and the enqueue marker must fall
                // inside the request's submit→reply envelope.
                let _scope = telemetry::trace_scope(ctx.trace_id);
                telemetry::instant("serve.enqueue", "serve");
            }
            q.requests.push_back(Request {
                key,
                values,
                dims,
                reply: tx,
                enqueued: Instant::now(),
                tl,
            });
        }
        self.shared.available.notify_all();
        PendingInference { rx }
    }

    /// Blocking inference: [`ModelServer::submit`] + wait.
    ///
    /// # Errors
    /// Propagates serving errors.
    pub fn infer(&self, key: ModelKey, values: Vec<f32>, dims: Vec<usize>) -> Result<InferResponse> {
        self.submit(key, values, dims).wait()
    }

    /// Snapshot of the lifetime serving counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        ServeStats {
            served: s.served.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched_requests: s.batched_requests.load(Ordering::Relaxed),
            single_requests: s.single_requests.load(Ordering::Relaxed),
            batch_fallbacks: s.batch_fallbacks.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            cache_evictions: s.cache_evictions.load(Ordering::Relaxed),
            cache_invalidations: s.cache_invalidations.load(Ordering::Relaxed),
            plan_hits: s.plan_hits.load(Ordering::Relaxed),
            plan_misses: s.plan_misses.load(Ordering::Relaxed),
            plan_invalidations: s.plan_invalidations.load(Ordering::Relaxed),
            plan_fallbacks: s.plan_fallbacks.load(Ordering::Relaxed),
            queue_wait_ms: self.shared.queue_wait_ms.summary(),
            batch_size: self.shared.batch_size.summary(),
        }
    }

    /// The engine this server executes on.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Stop accepting requests, finish the queue, and join the dispatcher.
    /// Called automatically on drop.
    pub fn shutdown(&mut self) {
        {
            let mut q = self.shared.queue.lock();
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ModelServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dispatcher: single consumer of the queue, sole owner of the model
/// cache (so cached models never cross threads).
fn dispatch_loop(shared: &Shared) {
    let mut cache =
        ModelCache::new(shared.config.cache_capacity, shared.config.max_batch, &shared.engine);
    let mut window = WindowPolicy::new(shared.config.adaptive_window);
    loop {
        let drained: Vec<Request> = {
            let mut q = shared.queue.lock();
            while q.requests.is_empty() && !q.shutdown {
                shared.available.wait(&mut q);
            }
            if q.requests.is_empty() && q.shutdown {
                break;
            }
            // Batch window: hold the first request open for batch-mates —
            // unless the adaptive policy says the queue is too shallow for
            // batching to pay, in which case drain immediately.
            if window.should_wait(q.requests.len()) {
                // Wait only for as many batch-mates as recent traffic
                // actually produced — k closed-loop clients can never fill
                // a max_batch window, and waiting for them stalls every
                // batch for the full max_wait.
                let target = window.target_batch(shared.config.max_batch);
                let deadline = Instant::now() + shared.config.max_wait;
                while q.requests.len() < target && !q.shutdown {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    if shared.available.wait_for(&mut q, deadline - now).timed_out() {
                        break;
                    }
                }
            }
            q.requests.drain(..).collect()
        };
        window.observe_drain(drained.len());
        process_drained(shared, &mut cache, drained);
    }
    // Shut down: release the warm models' weights.
    cache.invalidate_all();
    sync_cache_stats(shared, &cache);
}

fn sync_cache_stats(shared: &Shared, cache: &ModelCache) {
    shared.stats.cache_hits.store(cache.hits, Ordering::Relaxed);
    shared.stats.cache_misses.store(cache.misses, Ordering::Relaxed);
    shared.stats.cache_evictions.store(cache.evictions, Ordering::Relaxed);
    shared.stats.cache_invalidations.store(cache.invalidations, Ordering::Relaxed);
    let plans = cache.plan_stats();
    shared.stats.plan_hits.store(plans.hits, Ordering::Relaxed);
    shared.stats.plan_misses.store(plans.misses, Ordering::Relaxed);
    shared.stats.plan_invalidations.store(plans.invalidations, Ordering::Relaxed);
    shared.stats.plan_fallbacks.store(plans.fallbacks, Ordering::Relaxed);
}

fn process_drained(shared: &Shared, cache: &mut ModelCache, mut drained: Vec<Request>) {
    // The dispatch pass gets its own trace context; batch contexts minted
    // below become its children, so a trace viewer can walk request →
    // batch → dispatch.
    let dispatch_ctx = RequestCtx::mint();
    let _dispatch_scope = telemetry::trace_scope(dispatch_ctx.trace_id);
    let _dispatch =
        telemetry::span("serve.dispatch", "serve").with_arg("drained", drained.len() as f64);
    let drained_at = telemetry::now_ns();
    for req in &mut drained {
        req.tl.drained_ns = drained_at;
        shared.queue_wait_ms.observe(req.enqueued.elapsed().as_secs_f64() * 1e3);
    }
    if cache.check_degradation(&shared.engine) {
        // Backend fell back (e.g. context loss): models rebuild below on
        // the fallback backend; requests in this drain retry transparently.
        // Sync eagerly so the invalidation is visible to any caller whose
        // reply arrives from this drain onward.
        sync_cache_stats(shared, cache);
    }
    // Group by (model, example dims): only identical shapes batch.
    type GroupKey = (ModelKey, Vec<usize>);
    let mut groups: Vec<(GroupKey, Vec<Request>)> = Vec::new();
    for req in drained {
        let group_key = (req.key, req.dims.clone());
        match groups.iter_mut().find(|(k, _)| *k == group_key) {
            Some((_, members)) => members.push(req),
            None => groups.push((group_key, vec![req])),
        }
    }
    // Two-phase pipelined dispatch (paper Sec 4.1.1, Fig 3): phase 1
    // enqueues every chunk's forward pass plus an async readback and a
    // fence without ever blocking, so on an async backend chunk i+1's
    // host-side concat/upload overlaps chunk i's device compute and the
    // device queue stays non-empty across the whole drain. Phase 2 collects
    // results in submission order — by then the early chunks' readbacks
    // have usually completed, so the waits are cheap.
    let mut in_flight: Vec<InFlightChunk> = Vec::new();
    for ((key, dims), members) in groups {
        let source = shared.sources.lock().get(&key).cloned();
        let source = match source {
            Some(s) => s,
            None => {
                for mut req in members {
                    // Count before replying: a caller that sees its reply
                    // must also see it reflected in the stats.
                    shared.stats.served.fetch_add(1, Ordering::Relaxed);
                    obs::finish_request(&mut req.tl, RequestOutcome::Rejected, 0, 0);
                    let _ = req
                        .reply
                        .send(Err(Error::invalid("serve", format!("unknown model key {key:#x}"))));
                }
                continue;
            }
        };
        for chunk in chunked(members, shared.config.max_batch) {
            if let Some(fl) = submit_chunk(shared, cache, key, &source, &dims, chunk) {
                in_flight.push(fl);
            }
        }
    }
    for fl in in_flight {
        complete_chunk(shared, cache, fl);
    }
    sync_cache_stats(shared, cache);
}

/// A coalesced chunk whose forward pass is enqueued but not yet collected.
struct InFlightChunk {
    key: ModelKey,
    source: Arc<ModelSource>,
    chunk: Vec<Request>,
    /// `None` ⇒ submission failed; the completion phase serves the chunk
    /// per-request against the (already invalidated) rebuilt model.
    run: Option<SubmittedRun>,
    /// Trace id of the batch context this chunk executed under (its kernel
    /// and GPU spans carry it).
    batch_trace: u64,
    /// Upload/compute boundaries stamped at submission, completed (compute
    /// end / readback end) by [`complete_run`].
    stamps: PhaseStamps,
}

/// The device-side half of an in-flight chunk: input and output handles,
/// the asynchronous readback future for the output (issued at submission,
/// so the device copies results out the moment they exist — never a
/// pipeline-draining synchronous read), and the submission-end fence.
struct SubmittedRun {
    x: Tensor,
    y: Tensor,
    fut: DataFuture,
    /// Fence enqueued between the forward pass and the readback, so the
    /// completion phase can stamp where compute ended and readback began.
    compute_fence: Option<FenceToken>,
    fence: Option<FenceToken>,
}

pub(crate) fn chunked<T>(mut members: Vec<T>, size: usize) -> Vec<Vec<T>> {
    let size = size.max(1);
    let mut chunks = Vec::new();
    while members.len() > size {
        let rest = members.split_off(size);
        chunks.push(members);
        members = rest;
    }
    if !members.is_empty() {
        chunks.push(members);
    }
    chunks
}

/// Phase 1 for one chunk: enqueue the coalesced forward pass, the async
/// readback, and a fence — without blocking. Returns `None` when the chunk
/// was fully handled here (single-request submission errors reply
/// directly, mirroring the synchronous single path).
fn submit_chunk(
    shared: &Shared,
    cache: &mut ModelCache,
    key: ModelKey,
    source: &Arc<ModelSource>,
    dims: &[usize],
    chunk: Vec<Request>,
) -> Option<InFlightChunk> {
    let n = chunk.len();
    shared.batch_size.observe(n as f64);
    // Everything submitted under the batch scope — the serve.submit span,
    // kernel spans, and the GPU commands captured at enqueue — carries the
    // batch's trace id; members link to it via serve.batch_member.
    let batch_ctx = obs::batch_ctx();
    let _scope = telemetry::trace_scope(batch_ctx.trace_id);
    let mut stamps = PhaseStamps { exec_start_ns: telemetry::now_ns(), ..Default::default() };
    let submitted = {
        let _span = telemetry::span("serve.submit", "serve").with_arg("batch_size", n as f64);
        try_submit(shared, cache, key, source, dims, &chunk, &mut stamps)
    };
    match submitted {
        Ok(run) => Some(InFlightChunk {
            key,
            source: source.clone(),
            chunk,
            run: Some(run),
            batch_trace: batch_ctx.trace_id,
            stamps,
        }),
        Err(e) if n == 1 => {
            // Count before replying: a caller that sees its reply must also
            // see it reflected in the stats.
            let mut req = chunk.into_iter().next().expect("n == 1");
            shared.stats.served.fetch_add(1, Ordering::Relaxed);
            shared.stats.single_requests.fetch_add(1, Ordering::Relaxed);
            req.tl.apply_stamps(&stamps);
            obs::finish_request(&mut req.tl, RequestOutcome::Error, 1, batch_ctx.trace_id);
            let _ = req.reply.send(Err(e));
            telemetry::instant("serve.reply", "serve");
            // Close the batch envelope around whatever partial work ran
            // under the batch id before the submission failed.
            telemetry::record_span("serve.batch", "serve", stamps.exec_start_ns, telemetry::now_ns());
            None
        }
        Err(_) => {
            // Degrade to per-request execution in the completion phase; a
            // stale model (e.g. dead backend) is rebuilt on the retry.
            cache.invalidate(key);
            shared.stats.batch_fallbacks.fetch_add(1, Ordering::Relaxed);
            telemetry::instant("serve.batch_fallback", "serve");
            Some(InFlightChunk {
                key,
                source: source.clone(),
                chunk,
                run: None,
                batch_trace: batch_ctx.trace_id,
                stamps,
            })
        }
    }
}

/// Concat examples host-side into `[n, dims..]`, enqueue the forward pass,
/// issue the asynchronous output readback, and fence the submission.
fn try_submit(
    shared: &Shared,
    cache: &mut ModelCache,
    key: ModelKey,
    source: &ModelSource,
    dims: &[usize],
    chunk: &[Request],
    stamps: &mut PhaseStamps,
) -> Result<SubmittedRun> {
    let n = chunk.len();
    let per_len: usize = dims.iter().product();
    let mut data = Vec::with_capacity(n * per_len);
    for req in chunk {
        data.extend_from_slice(&req.values);
    }
    let mut batch_dims = vec![n];
    batch_dims.extend_from_slice(dims);
    let engine = &shared.engine;
    let model = cache.get_or_load(engine, key, source)?;
    let x = engine.tensor(data, Shape::new(batch_dims))?;
    // Host-side upload boundary: model load + input tensor submitted.
    stamps.upload_end_ns = telemetry::now_ns();
    let y = match model.forward(engine, &x) {
        Ok(y) => y,
        Err(e) => {
            x.dispose();
            return Err(e);
        }
    };
    // Fence between the forward pass and the readback: the completion
    // phase waits it to stamp the compute→readback boundary.
    let compute_fence = engine.submit_fence();
    let fut = match y.data() {
        Ok(f) => f,
        Err(e) => {
            x.dispose();
            y.dispose();
            return Err(e);
        }
    };
    let fence = engine.submit_fence();
    Ok(SubmittedRun { x, y, fut, compute_fence, fence })
}

/// Phase 2 for one chunk: wait for the in-flight run (cheap when the
/// device already finished behind later submissions), split rows, reply.
/// Failed chunks degrade to per-request synchronous execution exactly like
/// the pre-pipelining dispatcher.
fn complete_chunk(shared: &Shared, cache: &mut ModelCache, fl: InFlightChunk) {
    let InFlightChunk { key, source, chunk, run, batch_trace, mut stamps } = fl;
    let n = chunk.len();
    let batch_scope = telemetry::trace_scope(batch_trace);
    if let Some(run) = run {
        let completed = {
            let _span =
                telemetry::span("serve.complete", "serve").with_arg("batch_size", n as f64);
            complete_run(shared, run, n, &mut stamps)
        };
        match completed {
            Ok(responses) => {
                // Count before replying: a caller that sees its reply must
                // also see it reflected in the stats.
                if n >= 2 {
                    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
                }
                for (mut req, resp) in chunk.into_iter().zip(responses) {
                    shared.stats.served.fetch_add(1, Ordering::Relaxed);
                    if n >= 2 {
                        shared.stats.batched_requests.fetch_add(1, Ordering::Relaxed);
                    } else {
                        shared.stats.single_requests.fetch_add(1, Ordering::Relaxed);
                    }
                    req.tl.apply_stamps(&stamps);
                    obs::finish_request(&mut req.tl, RequestOutcome::Completed, n as u32, batch_trace);
                    let _ = req.reply.send(Ok(resp));
                    telemetry::instant("serve.reply", "serve");
                }
                // Batch envelope: closed after the replies so every
                // batch-scoped event nests inside it.
                telemetry::record_span_arg(
                    "serve.batch",
                    "serve",
                    stamps.exec_start_ns,
                    telemetry::now_ns(),
                    "batch_size",
                    n as f64,
                );
                return;
            }
            Err(e) if n == 1 => {
                // Mirrors the synchronous single path: the error is the
                // answer, not a reason to retry.
                let mut req = chunk.into_iter().next().expect("n == 1");
                shared.stats.served.fetch_add(1, Ordering::Relaxed);
                shared.stats.single_requests.fetch_add(1, Ordering::Relaxed);
                req.tl.apply_stamps(&stamps);
                obs::finish_request(&mut req.tl, RequestOutcome::Error, 1, batch_trace);
                let _ = req.reply.send(Err(e));
                telemetry::instant("serve.reply", "serve");
                telemetry::record_span(
                    "serve.batch",
                    "serve",
                    stamps.exec_start_ns,
                    telemetry::now_ns(),
                );
                return;
            }
            Err(_) => {
                // Degrade to per-request execution; a stale model (e.g.
                // dead backend) is rebuilt on the retry.
                cache.invalidate(key);
                shared.stats.batch_fallbacks.fetch_add(1, Ordering::Relaxed);
                telemetry::instant("serve.batch_fallback", "serve");
            }
        }
    }
    // Close the batch envelope before the per-request fallback (which runs
    // under each member's own trace scope).
    telemetry::record_span("serve.batch", "serve", stamps.exec_start_ns, telemetry::now_ns());
    drop(batch_scope);
    for mut req in chunk {
        shared.batch_size.observe(1.0);
        let req_scope = telemetry::trace_scope(req.tl.trace_id);
        let mut single_stamps = PhaseStamps::default();
        let result = {
            let _span = telemetry::span("serve.single", "serve");
            run_single(shared, cache, key, &source, &req, &mut single_stamps)
        };
        shared.stats.served.fetch_add(1, Ordering::Relaxed);
        shared.stats.single_requests.fetch_add(1, Ordering::Relaxed);
        let outcome =
            if result.is_ok() { RequestOutcome::Completed } else { RequestOutcome::Error };
        req.tl.apply_stamps(&single_stamps);
        obs::finish_request(&mut req.tl, outcome, 1, 0);
        let _ = req.reply.send(result);
        telemetry::instant("serve.reply", "serve");
        drop(req_scope);
    }
}

/// Wait out an in-flight run and split its `[n, out..]` output per request.
/// The fence wait parks on the device queue's condvar (no spinning); the
/// readback future then resolves immediately. A failed future retries
/// through the synchronous path, which has transient-retry machinery and
/// re-locates data after a mid-pipeline degradation.
fn complete_run(
    shared: &Shared,
    run: SubmittedRun,
    n: usize,
    stamps: &mut PhaseStamps,
) -> Result<Vec<InferResponse>> {
    shared.engine.wait_fence(run.compute_fence);
    stamps.compute_end_ns = telemetry::now_ns();
    shared.engine.wait_fence(run.fence);
    let read = run.fut.wait().or_else(|_| run.y.data_sync());
    let out = read.and_then(|d| split_values(d.to_f32_vec(), &run.y.shape().0, n));
    run.x.dispose();
    run.y.dispose();
    stamps.readback_end_ns = telemetry::now_ns();
    out
}

fn run_single(
    shared: &Shared,
    cache: &mut ModelCache,
    key: ModelKey,
    source: &ModelSource,
    req: &Request,
    stamps: &mut PhaseStamps,
) -> Result<InferResponse> {
    let engine = &shared.engine;
    let mut batch_dims = vec![1];
    batch_dims.extend_from_slice(&req.dims);
    stamps.exec_start_ns = telemetry::now_ns();
    let model = cache.get_or_load(engine, key, source)?;
    let x = engine.tensor(req.values.clone(), Shape::new(batch_dims))?;
    stamps.upload_end_ns = telemetry::now_ns();
    let y = match model.forward(engine, &x) {
        Ok(y) => y,
        Err(e) => {
            x.dispose();
            return Err(e);
        }
    };
    // Synchronous path: compute and readback drain together in read_rows;
    // the boundary is the forward submission.
    stamps.compute_end_ns = telemetry::now_ns();
    let rows = read_rows(&y, 1);
    x.dispose();
    y.dispose();
    stamps.readback_end_ns = telemetry::now_ns();
    Ok(rows?.remove(0))
}

/// Download a `[n, out..]` batch output through the asynchronous readback
/// path (paper Fig 3) and split it into per-request responses: the read is
/// enqueued behind the producing ops, so the device copies results out in
/// stream order instead of servicing a pipeline-draining synchronous
/// `readPixels`. Falls back to the sync path (which has transient-retry
/// machinery) if the future fails.
pub(crate) fn read_rows(y: &Tensor, n: usize) -> Result<Vec<InferResponse>> {
    let out_shape = y.shape().0;
    let data = match y.data() {
        Ok(fut) => match fut.wait() {
            Ok(d) => d,
            Err(_) => y.data_sync()?,
        },
        Err(_) => y.data_sync()?,
    };
    split_values(data.to_f32_vec(), &out_shape, n)
}

/// Split already-downloaded `[n, out..]` values into per-request responses.
pub(crate) fn split_values(
    values: Vec<f32>,
    out_shape: &[usize],
    n: usize,
) -> Result<Vec<InferResponse>> {
    if out_shape.first() != Some(&n) {
        return Err(Error::invalid(
            "serve",
            format!("model output shape {out_shape:?} does not preserve batch size {n}"),
        ));
    }
    let per_dims: Vec<usize> = out_shape[1..].to_vec();
    let per_len: usize = per_dims.iter().product();
    Ok(values
        .chunks(per_len.max(1))
        .take(n)
        .map(|row| InferResponse { values: row.to_vec(), dims: per_dims.clone() })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webml_core::cpu::CpuBackend;
    use webml_converter::prune::GraphDef;
    use webml_converter::to_artifacts;
    use webml_layers::{Activation, Dense, Sequential};

    fn engine() -> Engine {
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
        e
    }

    fn mlp_artifacts(e: &Engine) -> webml_converter::ModelArtifacts {
        let mut model = Sequential::new(e).with_seed(7);
        model.add(Dense::new(8).with_input_dim(4).with_activation(Activation::Relu));
        model.add(Dense::new(3).with_activation(Activation::Softmax));
        model.build([4]).unwrap();
        let artifacts = to_artifacts(&model, None).unwrap();
        for (_, v) in model.named_weights() {
            v.dispose();
        }
        artifacts
    }

    fn mlp_source(e: &Engine) -> ModelSource {
        ModelSource::Artifacts(mlp_artifacts(e))
    }

    fn graph_source(e: &Engine) -> ModelSource {
        let _ = e;
        let graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("w", "VariableV2", &[]),
            ("mm", "MatMul", &["x", "w"]),
            ("probs", "Softmax", &["mm"]),
        ]);
        ModelSource::Graph {
            graph,
            weights: vec![("w".into(), vec![1.0, 0.0, 0.0, 1.0], vec![2, 2])],
        }
    }

    #[test]
    fn serves_a_sequential_model() {
        let e = engine();
        let server = ModelServer::new(&e, ServeConfig::default());
        let key = server.register(mlp_source(&e));
        let resp = server.infer(key, vec![0.5, -0.5, 1.0, 0.0], vec![4]).unwrap();
        assert_eq!(resp.dims, vec![3]);
        assert!((resp.values.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn serves_a_graph_model() {
        let e = engine();
        let server = ModelServer::new(&e, ServeConfig::default());
        let key = server.register(graph_source(&e));
        let resp = server.infer(key, vec![3.0, 1.0], vec![2]).unwrap();
        assert_eq!(resp.dims, vec![2]);
        assert!(resp.values[0] > resp.values[1]);
    }

    #[test]
    fn batched_and_single_answers_match() {
        let e = engine();
        let artifacts = mlp_artifacts(&e);
        // Force per-request execution for the reference answers.
        let single = ModelServer::new(&e, ServeConfig { max_batch: 1, ..Default::default() });
        let key1 = single.register(ModelSource::Artifacts(artifacts.clone()));
        let examples: Vec<Vec<f32>> =
            (0..12).map(|i| (0..4).map(|j| ((i * 4 + j) as f32 * 0.3).sin()).collect()).collect();
        let reference: Vec<InferResponse> = examples
            .iter()
            .map(|ex| single.infer(key1, ex.clone(), vec![4]).unwrap())
            .collect();
        drop(single);

        let batched = ModelServer::new(
            &e,
            ServeConfig { max_batch: 8, max_wait: Duration::from_millis(20), ..Default::default() },
        );
        let key2 = batched.register(ModelSource::Artifacts(artifacts));
        assert_eq!(key1, key2, "same content hashes to the same key");
        let pending: Vec<PendingInference> =
            examples.iter().map(|ex| batched.submit(key2, ex.clone(), vec![4])).collect();
        let got: Vec<InferResponse> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
        for (a, b) in reference.iter().zip(&got) {
            assert_eq!(a.dims, b.dims);
            for (x, y) in a.values.iter().zip(&b.values) {
                assert!((x - y).abs() < 1e-5, "batched must match single: {x} vs {y}");
            }
        }
        let stats = batched.stats();
        assert!(stats.batches >= 1, "at least one coalesced pass: {stats:?}");
        assert_eq!(stats.served, 12);
    }

    #[test]
    fn mixed_shapes_degrade_to_separate_groups() {
        let e = engine();
        let server = ModelServer::new(
            &e,
            ServeConfig { max_batch: 8, max_wait: Duration::from_millis(20), ..Default::default() },
        );
        let mlp = server.register(mlp_source(&e));
        let graph = server.register(graph_source(&e));
        let a = server.submit(mlp, vec![1.0, 2.0, 3.0, 4.0], vec![4]);
        let b = server.submit(graph, vec![1.0, 0.0], vec![2]);
        let c = server.submit(mlp, vec![0.0; 4], vec![4]);
        assert_eq!(a.wait().unwrap().dims, vec![3]);
        assert_eq!(b.wait().unwrap().dims, vec![2]);
        assert_eq!(c.wait().unwrap().dims, vec![3]);
    }

    #[test]
    fn bad_requests_error_without_wedging_the_server() {
        let e = engine();
        let server = ModelServer::new(&e, ServeConfig::default());
        let key = server.register(mlp_source(&e));
        assert!(server.infer(key, vec![1.0], vec![4]).is_err(), "length/dims mismatch");
        assert!(server.infer(0xdead, vec![1.0; 4], vec![4]).is_err(), "unknown key");
        // Server still serves.
        assert!(server.infer(key, vec![0.0; 4], vec![4]).is_ok());
    }

    #[test]
    fn lru_eviction_releases_weight_bytes() {
        let e = engine();
        let mut server = ModelServer::new(
            &e,
            ServeConfig { cache_capacity: 1, ..Default::default() },
        );
        let mlp = server.register(mlp_source(&e));
        let graph = server.register(graph_source(&e));
        let baseline = e.memory().num_bytes;
        server.infer(mlp, vec![0.0; 4], vec![4]).unwrap();
        let with_mlp = e.memory().num_bytes;
        assert!(with_mlp > baseline, "warm model holds weight bytes");
        // Loading the second model evicts the first: its weights go away.
        server.infer(graph, vec![1.0, 0.0], vec![2]).unwrap();
        let with_graph = e.memory().num_bytes;
        assert!(with_graph < with_mlp, "eviction released the MLP weights");
        let stats_bytes = with_graph - baseline;
        assert_eq!(stats_bytes, 16, "graph model keeps exactly its 2x2 f32 weight");
        server.shutdown();
        assert_eq!(e.memory().num_bytes, baseline, "shutdown releases the cache");
        assert!(server.stats().cache_evictions >= 1);
    }

    #[test]
    fn graph_requests_hit_warm_plans() {
        let e = engine();
        let mut server = ModelServer::new(&e, ServeConfig::default());
        // The placeholder declares its per-example shape, so the cache
        // pre-warms execution plans for batch 1 and `max_batch` at build
        // time — the first request should already ride a warm plan.
        let mut graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("w", "VariableV2", &[]),
            ("mm", "MatMul", &["x", "w"]),
            ("probs", "Softmax", &["mm"]),
        ]);
        graph.nodes[0].attrs = serde_json::json!({ "shape": [1, 2] });
        let key = server.register(ModelSource::Graph {
            graph,
            weights: vec![("w".into(), vec![1.0, 0.0, 0.0, 1.0], vec![2, 2])],
        });
        let resp = server.infer(key, vec![3.0, 1.0], vec![2]).unwrap();
        assert!(resp.values[0] > resp.values[1]);
        server.shutdown();
        let stats = server.stats();
        assert!(stats.plan_hits >= 1, "request rides a pre-warmed plan: {stats:?}");
        assert!(stats.plan_misses >= 2, "batch-1 and max-batch plans compiled: {stats:?}");
        assert_eq!(stats.plan_fallbacks, 0, "the plan is the only executor: {stats:?}");
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let e = engine();
        let mut server = ModelServer::new(&e, ServeConfig::default());
        let key = server.register(mlp_source(&e));
        server.shutdown();
        assert!(server.infer(key, vec![0.0; 4], vec![4]).is_err());
    }
}
