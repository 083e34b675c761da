//! The micro-batcher: the worker loop behind each fleet engine.
//!
//! A worker owns one engine's queue, warm-model cache and counters and runs
//! drain → group by `(model, dims)` → chunk to `max_batch` → submit →
//! complete. It is two-phase (paper Sec 4.1.1, Fig 3): phase 1 enqueues
//! every chunk's forward pass, a compute fence and an async readback
//! without ever blocking, so on an async backend chunk i+1's host-side
//! concat/upload overlaps chunk i's device compute; phase 2 collects the
//! results in submission order. On a synchronous backend submission *is*
//! the compute and leaves no fence, so each chunk is collected right after
//! it is submitted — the degenerate case, not a second loop. A single
//! request is a chunk of one, and a batched pass that fails degrades to
//! chunks of one — shape-incompatible or failing traffic is served
//! correctly, just without the batching win.
//!
//! What the fleet adds is its [`FrontDoor`] impl: what sits in the queue,
//! which drained items reach execution ([`FrontDoor::admit`] — deadlines,
//! probes and the degradation watch live there), and what to do with a
//! pass's outcome ([`FrontDoor::complete`] — reply, breaker, re-route). The
//! fixed-drain tests put a recording door in its place.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use webml_core::backend::DataFuture;
use webml_core::{Engine, Error, FenceToken, Result, Shape, Tensor};
use webml_telemetry as telemetry;
use webml_telemetry::{Histogram, PhaseStamps, RequestCtx, RequestTimeline};

use crate::cache::{ModelCache, ModelKey, ModelSource};
use crate::{obs, FleetConfig, InferResponse, ServeStats};

/// One queued inference: the example, the model to run it on, and whatever
/// its front door needs to answer it.
pub(crate) struct Request<T> {
    pub key: ModelKey,
    /// Resolved at submit, so the worker never looks a registration up.
    pub source: Arc<ModelSource>,
    pub values: Vec<f32>,
    pub dims: Vec<usize>,
    /// Request-scoped trace context + phase timeline, stamped as the
    /// request moves submit → queue → batch → device and finalized at
    /// reply time (see [`obs::finish_request`]).
    pub tl: RequestTimeline,
    /// The front door's own per-request state (reply channel, deadline, …).
    pub ticket: T,
}

/// How one forward pass ran, handed to [`FrontDoor::complete`] with its
/// members.
pub(crate) struct Pass {
    /// Requests in the pass (1 for a single).
    pub batch_size: usize,
    /// Trace id of the batch context the pass executed under (its kernel
    /// and GPU spans carry it).
    pub batch_trace: u64,
    /// Worker time the pass took — its submission plus the wait for its
    /// outcome since the worker last finished a pass — per member. Over a
    /// multi-chunk drain the passes' times add up to the drain's: a pass is
    /// not charged the submissions and completions it overlapped with.
    pub per_request_ns: u64,
}

/// What a fleet engine puts around the worker.
pub(crate) trait FrontDoor {
    /// What sits in the queue.
    type Item;
    /// Per-request front-door state carried through execution.
    type Ticket;

    /// Turn one drain into the requests to execute; everything else
    /// (expired, re-routed, probes) is settled here.
    fn admit(&self, exec: &mut Executor<'_>, drained: Vec<Self::Item>)
        -> Vec<Request<Self::Ticket>>;

    /// A pass finished: `Ok` carries one response per member in order; an
    /// `Err` pass has one member (a failed coalesced pass is retried per
    /// request before it gets here).
    fn complete(
        &self,
        pass: &Pass,
        chunk: Vec<Request<Self::Ticket>>,
        outcome: Result<Vec<InferResponse>>,
    );
}

/// The adaptive batch window: hold the queue open for batch-mates only
/// when it is likely to produce them, and only for as many as recent
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
#[derive(Default)]
struct WindowPolicy {
    /// EWMA of recent drain sizes — the observed degree of concurrency.
    ewma_drain: f64,
}

impl WindowPolicy {
    /// Whether to hold the window open, given the queue length at drain
    /// start.
    fn should_wait(&self, queued: usize) -> bool {
        queued > 1 || self.ewma_drain >= 1.5
    }

    /// How many queued requests end the window early: the observed
    /// concurrency (floored, so jitter undershoots rather than stalls),
    /// clamped to `[2, max_batch]`.
    fn target_batch(&self, max_batch: usize) -> usize {
        (self.ewma_drain as usize).max(2).min(max_batch.max(1))
    }

    fn observe_drain(&mut self, drained: usize) {
        self.ewma_drain = self.ewma_drain * 0.7 + drained as f64 * 0.3;
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    shutdown: bool,
}

/// A worker's queue: many producers, one consumer.
pub(crate) struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

impl<T> WorkQueue<T> {
    pub(crate) fn new() -> WorkQueue<T> {
        WorkQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
        }
    }

    /// Enqueue `item`, or hand it back when the queue has shut down. Once
    /// queued the worker may reply at any moment, so whatever marks the
    /// enqueue is stamped by the caller first.
    pub(crate) fn push(&self, item: T) -> std::result::Result<(), T> {
        let mut q = self.state.lock();
        if q.shutdown {
            return Err(item);
        }
        q.items.push_back(item);
        drop(q);
        self.available.notify_all();
        Ok(())
    }

    /// Take out every queued item `wanted` picks, keeping the rest in order.
    pub(crate) fn extract(&self, wanted: impl Fn(&T) -> bool) -> Vec<T> {
        let mut q = self.state.lock();
        let (taken, kept): (Vec<T>, Vec<T>) = q.items.drain(..).partition(wanted);
        q.items = kept.into();
        taken
    }

    /// Refuse further pushes; the worker finishes what is queued and exits.
    pub(crate) fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.available.notify_all();
    }

    /// Block for the next drain: everything queued once `target_batch`
    /// requests are pending or `max_wait` has passed since the first was
    /// seen. `None` once the queue is shut down and empty.
    fn drain(&self, window: &mut WindowPolicy, config: &FleetConfig) -> Option<Vec<T>> {
        let mut q = self.state.lock();
        while q.items.is_empty() && !q.shutdown {
            self.available.wait(&mut q);
        }
        if q.items.is_empty() {
            return None;
        }
        if window.should_wait(q.items.len()) {
            let target = window.target_batch(config.max_batch);
            let deadline = Instant::now() + config.max_wait;
            while q.items.len() < target && !q.shutdown {
                let now = Instant::now();
                if now >= deadline || self.available.wait_for(&mut q, deadline - now).timed_out() {
                    break;
                }
            }
        }
        let drained: Vec<T> = q.items.drain(..).collect();
        window.observe_drain(drained.len());
        Some(drained)
    }
}

/// A worker's counters: written by the worker, read by
/// [`crate::EngineStatus::serve`].
#[derive(Default)]
pub(crate) struct WorkerCells {
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
    /// Per-worker (not registry-global) histograms, so concurrent servers
    /// and repeated benchmark cells don't pollute each other's quantiles.
    queue_wait_ms: Histogram,
    batch_size: Histogram,
}

impl WorkerCells {
    pub(crate) fn snapshot(&self) -> ServeStats {
        let get = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        ServeStats {
            served: get(&self.served),
            batches: get(&self.batches),
            batched_requests: get(&self.batched_requests),
            single_requests: get(&self.single_requests),
            batch_fallbacks: get(&self.batch_fallbacks),
            cache_hits: get(&self.cache_hits),
            cache_misses: get(&self.cache_misses),
            cache_evictions: get(&self.cache_evictions),
            cache_invalidations: get(&self.cache_invalidations),
            plan_hits: get(&self.plan_hits),
            plan_misses: get(&self.plan_misses),
            plan_invalidations: get(&self.plan_invalidations),
            queue_wait_ms: self.queue_wait_ms.summary(),
            batch_size: self.batch_size.summary(),
        }
    }
}

/// The worker loop: single consumer of `queue`, sole owner of the model
/// cache (so cached models never cross threads). Returns once the queue is
/// shut down and empty, after releasing the warm models' weights.
pub(crate) fn run<D: FrontDoor>(
    door: &D,
    queue: &WorkQueue<D::Item>,
    engine: &Engine,
    config: &FleetConfig,
    cells: &WorkerCells,
) {
    let mut exec = Executor {
        engine,
        cache: ModelCache::new(config.cache_capacity, config.max_batch, engine),
        cells,
        charged_until_ns: 0,
    };
    let mut window = WindowPolicy::default();
    while let Some(drained) = queue.drain(&mut window, config) {
        // The dispatch pass gets its own trace context; batch contexts
        // minted below become its children, so a trace viewer can walk
        // request → batch → dispatch.
        let _scope = telemetry::trace_scope(RequestCtx::mint().trace_id);
        let _dispatch =
            telemetry::span("fleet.dispatch", "serve").with_arg("drained", drained.len() as f64);
        if exec.cache.check_degradation(engine) {
            // Backend fell back (e.g. context loss): models rebuild below on
            // the fallback backend. Synced eagerly so the invalidation is
            // visible to any caller whose reply arrives from this drain on.
            exec.sync_cache_stats();
        }
        let mut requests = door.admit(&mut exec, drained);
        let drained_at = telemetry::now_ns();
        for req in &mut requests {
            req.tl.drained_ns = drained_at;
            cells.queue_wait_ms.observe(drained_at.saturating_sub(req.tl.admitted_ns) as f64 / 1e6);
        }
        // Group by (model, example dims): only identical shapes batch.
        let mut groups: Vec<Vec<Request<D::Ticket>>> = Vec::new();
        for req in requests {
            match groups.iter_mut().find(|g| g[0].key == req.key && g[0].dims == req.dims) {
                Some(members) => members.push(req),
                None => groups.push(vec![req]),
            }
        }
        // Phase 1 for every chunk, then phase 2 in submission order — by
        // then the early chunks' readbacks have usually completed. A chunk
        // with nothing left to wait for (a synchronous backend computed it
        // during submission, or the submission failed) is collected at once:
        // holding its replies back would overlap with nothing.
        let mut in_flight: Vec<InFlight<D::Ticket>> = Vec::new();
        for chunk in groups.into_iter().flat_map(|members| chunked(members, config.max_batch)) {
            let submitted = exec.submit_chunk(chunk);
            if matches!(&submitted.run, Ok(run) if run.compute_fence.is_some()) {
                in_flight.push(submitted);
            } else {
                exec.complete_chunk(door, submitted);
            }
        }
        exec.charged_until_ns = telemetry::now_ns();
        for fl in in_flight {
            exec.complete_chunk(door, fl);
        }
        exec.sync_cache_stats();
    }
    exec.cache.invalidate_all();
    exec.sync_cache_stats();
}

fn chunked<T>(mut members: Vec<T>, size: usize) -> Vec<Vec<T>> {
    let size = size.max(1);
    let mut chunks = Vec::new();
    while members.len() > size {
        let rest = members.split_off(size);
        chunks.push(members);
        members = rest;
    }
    chunks.push(members);
    chunks
}

/// The device-side half of a submitted pass: input and output handles, the
/// asynchronous readback future for the output (issued at submission, so
/// the device copies results out the moment they exist — never a
/// pipeline-draining synchronous read), and the fence between the two.
struct SubmittedRun {
    x: Tensor,
    y: Tensor,
    /// Enqueued between the forward pass and the readback, so completion
    /// can stamp where compute ended and readback began.
    compute_fence: Option<FenceToken>,
    fut: DataFuture,
}

/// A chunk whose forward pass is enqueued (or failed to) but not collected.
struct InFlight<T> {
    chunk: Vec<Request<T>>,
    run: Result<SubmittedRun>,
    batch_trace: u64,
    /// Upload boundary stamped at submission; compute end by
    /// [`Executor::complete_run`].
    stamps: PhaseStamps,
    submit_end_ns: u64,
}

/// One engine's execution state: the only place a model is loaded and run.
pub(crate) struct Executor<'a> {
    engine: &'a Engine,
    cache: ModelCache,
    cells: &'a WorkerCells,
    /// Up to when the worker's time has been charged to a pass
    /// ([`Pass::per_request_ns`]): the end of the drain's submission phase,
    /// then each pass's hand-off.
    charged_until_ns: u64,
}

impl Executor<'_> {
    /// Run one example outside any drain (the fleet's canary and warm-up
    /// probes): a pass of one, without counters or a timeline.
    pub(crate) fn run_one(
        &mut self,
        key: ModelKey,
        source: &ModelSource,
        values: &[f32],
        dims: &[usize],
    ) -> Result<InferResponse> {
        let mut stamps = PhaseStamps::default();
        let run = self.try_submit(key, source, dims, std::iter::once(values), &mut stamps)?;
        Ok(self.complete_run(run, 1, &mut stamps)?.remove(0))
    }

    fn sync_cache_stats(&self) {
        let (cells, cache) = (self.cells, &self.cache);
        cells.cache_hits.store(cache.hits, Ordering::Relaxed);
        cells.cache_misses.store(cache.misses, Ordering::Relaxed);
        cells.cache_evictions.store(cache.evictions, Ordering::Relaxed);
        cells.cache_invalidations.store(cache.invalidations, Ordering::Relaxed);
        let plans = cache.plan_stats();
        cells.plan_hits.store(plans.hits, Ordering::Relaxed);
        cells.plan_misses.store(plans.misses, Ordering::Relaxed);
        cells.plan_invalidations.store(plans.invalidations, Ordering::Relaxed);
    }

    /// Phase 1 for one chunk: enqueue the coalesced forward pass, the
    /// compute fence and the async readback — without blocking.
    fn submit_chunk<T>(&mut self, chunk: Vec<Request<T>>) -> InFlight<T> {
        let n = chunk.len();
        // Everything submitted under the batch scope — the submit span,
        // kernel spans, and the GPU commands captured at enqueue — carries
        // the batch's trace id; members link to it via `serve.request`.
        let batch_trace = obs::batch_ctx().trace_id;
        let _scope = telemetry::trace_scope(batch_trace);
        let mut stamps = PhaseStamps { exec_start_ns: telemetry::now_ns(), ..Default::default() };
        let name = if n >= 2 { "fleet.batch" } else { "fleet.single" };
        let _span = telemetry::span(name, "serve").with_arg("batch_size", n as f64);
        let first = &chunk[0];
        let rows = chunk.iter().map(|req| req.values.as_slice());
        let run = self.try_submit(first.key, &first.source, &first.dims, rows, &mut stamps);
        InFlight { chunk, run, batch_trace, stamps, submit_end_ns: telemetry::now_ns() }
    }

    /// Concat examples host-side into `[n, dims..]`, enqueue the forward
    /// pass and the compute fence, and issue the asynchronous readback.
    fn try_submit<'r>(
        &mut self,
        key: ModelKey,
        source: &ModelSource,
        dims: &[usize],
        rows: impl ExactSizeIterator<Item = &'r [f32]>,
        stamps: &mut PhaseStamps,
    ) -> Result<SubmittedRun> {
        let mut batch_dims = vec![rows.len()];
        batch_dims.extend_from_slice(dims);
        let mut data = Vec::with_capacity(batch_dims.iter().product());
        for row in rows {
            data.extend_from_slice(row);
        }
        let engine = self.engine;
        let model = self.cache.get_or_load(engine, key, source)?;
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
        let compute_fence = engine.submit_fence();
        match y.data() {
            Ok(fut) => Ok(SubmittedRun { x, y, compute_fence, fut }),
            Err(e) => {
                x.dispose();
                y.dispose();
                Err(e)
            }
        }
    }

    /// Wait out a submitted run and split its `[n, out..]` output per
    /// request. The fence wait parks on the device queue's condvar (no
    /// spinning) and is cheap when the device already finished behind later
    /// submissions; the readback future then parks until the copy-out. A
    /// failed future retries through the synchronous path, which has
    /// transient-retry machinery and re-locates data after a mid-pipeline
    /// degradation.
    fn complete_run(
        &self,
        run: SubmittedRun,
        n: usize,
        stamps: &mut PhaseStamps,
    ) -> Result<Vec<InferResponse>> {
        self.engine.wait_fence(run.compute_fence);
        stamps.compute_end_ns = telemetry::now_ns();
        let read = run.fut.wait().or_else(|_| run.y.data_sync());
        let out = read.and_then(|d| split_values(d.to_f32_vec(), &run.y.shape().0, n));
        run.x.dispose();
        run.y.dispose();
        out
    }

    /// Phase 2 for one chunk: wait for the run, count the pass, hand its
    /// outcome to the front door. A coalesced pass that failed at either
    /// phase degrades to passes of one; a pass of one that failed is its
    /// request's answer.
    fn complete_chunk<D: FrontDoor>(&mut self, door: &D, fl: InFlight<D::Ticket>) {
        let InFlight { mut chunk, run, batch_trace, mut stamps, submit_end_ns } = fl;
        let n = chunk.len();
        let scope = telemetry::trace_scope(batch_trace);
        let outcome = run.and_then(|run| {
            let _span = telemetry::span("fleet.complete", "serve").with_arg("batch_size", n as f64);
            self.complete_run(run, n, &mut stamps)
        });
        let cells = self.cells;
        if n >= 2 && outcome.is_err() {
            // A stale model (e.g. built on a now-dead backend) is rebuilt
            // on the retry.
            self.cache.invalidate(chunk[0].key);
            cells.batch_fallbacks.fetch_add(1, Ordering::Relaxed);
            telemetry::instant("fleet.batch_fallback", "serve");
            // Close the batch envelope before the per-request passes, which
            // run under batch contexts of their own.
            let now = telemetry::now_ns();
            telemetry::record_span("serve.batch", "serve", stamps.exec_start_ns, now);
            drop(scope);
            for req in chunk {
                let single = self.submit_chunk(vec![req]);
                self.complete_chunk(door, single);
            }
            return;
        }
        for req in &mut chunk {
            req.tl.apply_stamps(&stamps);
        }
        // Count before replying: a caller that sees its reply must also see
        // it reflected in the stats, the cache's hits and misses included.
        self.sync_cache_stats();
        cells.served.fetch_add(n as u64, Ordering::Relaxed);
        if n >= 2 {
            cells.batches.fetch_add(1, Ordering::Relaxed);
            cells.batched_requests.fetch_add(n as u64, Ordering::Relaxed);
        } else {
            cells.single_requests.fetch_add(1, Ordering::Relaxed);
        }
        cells.batch_size.observe(n as f64);
        let waited_from = self.charged_until_ns.max(submit_end_ns);
        let waited_ns = telemetry::now_ns().saturating_sub(waited_from);
        let busy_ns = submit_end_ns - stamps.exec_start_ns + waited_ns;
        let pass = Pass { batch_size: n, batch_trace, per_request_ns: (busy_ns / n as u64).max(1) };
        door.complete(&pass, chunk, outcome);
        self.charged_until_ns = telemetry::now_ns();
        // Batch envelope: closed after the replies so every batch-scoped
        // event nests inside it.
        telemetry::record_span_arg(
            "serve.batch",
            "serve",
            stamps.exec_start_ns,
            telemetry::now_ns(),
            "batch_size",
            n as f64,
        );
    }
}

/// Split downloaded `[n, out..]` values into per-request responses.
fn split_values(values: Vec<f32>, out_shape: &[usize], n: usize) -> Result<Vec<InferResponse>> {
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
    use crate::tests::{cpu_engine, fleet_of_one, mlp_artifacts, unmissable, webgl_engine};
    use crate::FleetServer;
    use std::time::Duration;
    use webml_converter::prune::GraphDef;

    const MAX_BATCH: usize = 4;

    /// Instantiate a contract body on a fleet of one engine, on `cpu` and on
    /// a webgl engine.
    macro_rules! on_cpu_and_webgl {
        ($($name:ident),* $(,)?) => {$(
            #[test]
            fn $name() {
                super::$name(&cpu_engine());
                super::$name(&webgl_engine());
            }
        )*};
    }

    mod contract {
        use super::{cpu_engine, webgl_engine};
        on_cpu_and_webgl!(
            batched_answers_are_bit_equal_to_unbatched_and_free_everything,
            mixed_model_and_dims_drains_match_unbatched,
            refusals_are_explicit_and_do_not_wedge,
        );
    }

    /// A fleet of one engine batching up to `max_batch`, with a window long
    /// enough that queued requests coalesce.
    fn open(engine: &Engine, max_batch: usize) -> FleetServer {
        let max_wait = Duration::from_millis(20);
        fleet_of_one(engine, FleetConfig { max_batch, max_wait, ..Default::default() })
    }

    fn example(i: usize, len: usize) -> Vec<f32> {
        (0..len).map(|j| ((i * len + j) as f32 * 0.3).sin()).collect()
    }

    /// `y = relu(x)`: no weights, any example shape — one model key that
    /// arrives with several `dims`.
    fn relu_source() -> ModelSource {
        let graph =
            GraphDef::from_triples(&[("x", "Placeholder", &[]), ("y", "Relu", &["x"])]);
        ModelSource::Graph { graph, weights: Vec::new() }
    }

    /// One request of the suite: which registered model, the example, its dims.
    type Case = (usize, Vec<f32>, Vec<usize>);

    /// Serve `cases` through a fresh fleet of one — all submitted before any
    /// reply is awaited — and return the answers in submit order with the
    /// worker's counters after shutdown.
    fn serve_all(
        engine: &Engine,
        max_batch: usize,
        sources: Vec<ModelSource>,
        cases: &[Case],
    ) -> (Vec<InferResponse>, ServeStats) {
        let mut fleet = open(engine, max_batch);
        let keys: Vec<ModelKey> =
            sources.into_iter().map(|s| fleet.register(s, unmissable())).collect();
        let pending: Vec<_> =
            cases.iter().map(|(m, v, d)| fleet.submit(keys[*m], v.clone(), d.clone())).collect();
        let answers = pending.into_iter().map(|p| p.wait().expect("an answer")).collect();
        fleet.shutdown();
        (answers, fleet.stats().engines[0].serve.clone())
    }

    fn assert_same_bits(got: &[InferResponse], want: &[InferResponse]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.dims, w.dims, "request {i}");
            let bits = |r: &InferResponse| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "request {i}: batched must equal unbatched on bits");
        }
    }

    fn batched_answers_are_bit_equal_to_unbatched_and_free_everything(engine: &Engine) {
        let baseline = engine.memory();
        let artifacts = mlp_artifacts(engine);
        let n = 3 * MAX_BATCH + 1;
        let cases: Vec<Case> = (0..n).map(|i| (0, example(i, 4), vec![4])).collect();
        let mlp = || vec![ModelSource::Artifacts(artifacts.clone())];
        let (want, unbatched) = serve_all(engine, 1, mlp(), &cases);
        assert_eq!((unbatched.batches, unbatched.single_requests), (0, n as u64));
        let (got, stats) = serve_all(engine, MAX_BATCH, mlp(), &cases);
        assert_same_bits(&got, &want);
        assert_eq!(stats.served, n as u64, "{stats:?}");
        assert_eq!(stats.batched_requests + stats.single_requests, n as u64, "{stats:?}");
        assert!(stats.batches >= 1, "at least one coalesced pass: {stats:?}");
        assert_eq!(stats.batch_size.count, stats.batches + stats.single_requests, "{stats:?}");
        let after = engine.memory();
        assert_eq!(
            (after.num_tensors, after.num_bytes),
            (baseline.num_tensors, baseline.num_bytes),
            "shutdown releases inputs, outputs and the warm models"
        );
    }

    fn mixed_model_and_dims_drains_match_unbatched(engine: &Engine) {
        let artifacts = mlp_artifacts(engine);
        let sources = || vec![ModelSource::Artifacts(artifacts.clone()), relu_source()];
        let cases: Vec<Case> = (0..12)
            .map(|i| match i % 3 {
                0 => (0, example(i, 4), vec![4]),
                1 => (1, example(i, 3), vec![3]),
                _ => (1, example(i, 6), vec![2, 3]),
            })
            .collect();
        let (want, _) = serve_all(engine, 1, sources(), &cases);
        let (got, stats) = serve_all(engine, MAX_BATCH, sources(), &cases);
        assert_same_bits(&got, &want);
        assert_eq!(stats.served, cases.len() as u64);
        for ((_, values, dims), answer) in cases.iter().zip(&got).filter(|(c, _)| c.0 == 1) {
            let relu: Vec<f32> = values.iter().map(|v| v.max(0.0)).collect();
            assert_eq!((&answer.values, &answer.dims), (&relu, dims));
        }
    }

    fn refusals_are_explicit_and_do_not_wedge(engine: &Engine) {
        let mut fleet = open(engine, MAX_BATCH);
        let key = fleet.register(ModelSource::Artifacts(mlp_artifacts(engine)), unmissable());
        assert!(fleet.infer(key, vec![1.0], vec![4]).is_err(), "length/dims mismatch");
        assert!(fleet.infer(key, Vec::new(), Vec::new()).is_err(), "no dims");
        assert!(fleet.infer(0xdead, vec![1.0; 4], vec![4]).is_err(), "unknown key");
        assert!(fleet.infer(key, vec![0.0; 4], vec![4]).is_ok(), "still serves");
        fleet.shutdown();
        assert!(fleet.infer(key, vec![0.0; 4], vec![4]).is_err(), "submit after shutdown");
        let served = fleet.stats().engines[0].serve.served;
        assert_eq!(served, 1, "a refused request never reaches the worker");
    }

    /// A front door that only records: per pass its size, its members'
    /// tickets and the engine's live tensors when the outcome arrived, and
    /// the worker time charged to all passes.
    struct Recorder<'a> {
        engine: &'a Engine,
        passes: Mutex<Vec<(usize, Vec<usize>, usize)>>,
        charged_ns: AtomicU64,
    }

    impl FrontDoor for Recorder<'_> {
        type Item = Request<usize>;
        type Ticket = usize;

        fn admit(&self, _: &mut Executor<'_>, drained: Vec<Request<usize>>) -> Vec<Request<usize>> {
            drained
        }

        fn complete(
            &self,
            pass: &Pass,
            chunk: Vec<Request<usize>>,
            outcome: Result<Vec<InferResponse>>,
        ) {
            assert_eq!(outcome.expect("the pass succeeds").len(), chunk.len());
            let tickets = chunk.iter().map(|req| req.ticket).collect();
            let charged = pass.per_request_ns * pass.batch_size as u64;
            self.charged_ns.fetch_add(charged, Ordering::Relaxed);
            self.passes.lock().push((pass.batch_size, tickets, self.engine.num_tensors()));
        }
    }

    fn queue_of(n: usize, source: ModelSource, dims: &[usize]) -> WorkQueue<Request<usize>> {
        let source = Arc::new(source);
        let key = source.key();
        let queue = WorkQueue::new();
        for i in 0..n {
            let tl = RequestTimeline::new(i as u64 + 1, 0, key);
            let values = example(i, dims.iter().product());
            let (source, dims) = (source.clone(), dims.to_vec());
            assert!(queue.push(Request { key, source, values, dims, tl, ticket: i }).is_ok());
        }
        queue.shutdown();
        queue
    }

    /// Run a worker over a queue filled (and shut down) beforehand — one
    /// drain, fixed — and return what its door saw with its counters.
    fn run_one_drain(
        engine: &Engine,
        queue: &WorkQueue<Request<usize>>,
    ) -> (Vec<(usize, Vec<usize>, usize)>, ServeStats) {
        let door =
            Recorder { engine, passes: Mutex::new(Vec::new()), charged_ns: AtomicU64::new(0) };
        let cells = WorkerCells::default();
        let config = FleetConfig { max_batch: MAX_BATCH, ..Default::default() };
        let started = telemetry::now_ns();
        run(&door, queue, engine, &config, &cells);
        // However many chunks overlapped, no nanosecond is charged twice:
        // the fleet's cost model divides this by the requests served.
        let (charged, wall) = (door.charged_ns.into_inner(), telemetry::now_ns() - started);
        assert!(charged <= wall, "passes charged {charged} ns of a {wall} ns drain");
        (door.passes.into_inner(), cells.snapshot())
    }

    /// The two-phase property itself: on an asynchronous backend every
    /// chunk of a drain is submitted before the first is collected; on a
    /// synchronous one, where submission computes, each is collected at
    /// once. Either way outcomes arrive in submit order.
    #[test]
    fn a_drain_submits_every_chunk_before_collecting_the_first() {
        for (engine, asynchronous) in [(cpu_engine(), false), (webgl_engine(), true)] {
            let baseline = engine.memory();
            let n = 3 * MAX_BATCH + 1;
            let queue = queue_of(n, ModelSource::Artifacts(mlp_artifacts(&engine)), &[4]);
            let (passes, stats) = run_one_drain(&engine, &queue);

            let sizes: Vec<usize> = passes.iter().map(|p| p.0).collect();
            assert_eq!(sizes, [MAX_BATCH, MAX_BATCH, MAX_BATCH, 1]);
            let order: Vec<usize> = passes.iter().flat_map(|p| p.1.clone()).collect();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "outcomes arrive in submit order");
            // When chunk i's outcome arrives its own input and output are
            // disposed; in flight, every later chunk still holds both.
            let live: Vec<usize> = passes.iter().map(|p| p.2).collect();
            let held = |later: usize| live[3] + if asynchronous { 2 * later } else { 0 };
            assert_eq!(live, [held(3), held(2), held(1), held(0)]);

            assert_eq!((stats.served, stats.batches, stats.batched_requests), (13, 3, 12));
            assert_eq!((stats.single_requests, stats.batch_fallbacks), (1, 0));
            assert_eq!(stats.batch_size.count, 4, "one observation per executed pass");
            assert_eq!((stats.cache_misses, stats.cache_hits), (1, 3));
            let after = engine.memory();
            assert_eq!(
                (after.num_tensors, after.num_bytes),
                (baseline.num_tensors, baseline.num_bytes)
            );
        }
    }

    /// A model that only runs one example at a time, failing a coalesced
    /// pass at `forward` (`[1, 3]`: two examples do not fit) or at the split
    /// (`[1, -1]`: the output loses the batch dimension).
    fn one_at_a_time(shape: [i64; 2]) -> ModelSource {
        let mut graph =
            GraphDef::from_triples(&[("x", "Placeholder", &[]), ("y", "Reshape", &["x"])]);
        graph.nodes[1].attrs = serde_json::json!({ "shape": shape });
        ModelSource::Graph { graph, weights: Vec::new() }
    }

    #[test]
    fn a_failed_coalesced_pass_is_served_per_request_in_order() {
        for engine in [cpu_engine(), webgl_engine()] {
            for shape in [[1, 3], [1, -1]] {
                let baseline = engine.memory();
                let queue = queue_of(MAX_BATCH + 1, one_at_a_time(shape), &[3]);
                let (passes, stats) = run_one_drain(&engine, &queue);
                let sizes: Vec<usize> = passes.iter().map(|p| p.0).collect();
                assert_eq!(sizes, [1; MAX_BATCH + 1], "reshape to {shape:?}");
                let order: Vec<usize> = passes.iter().flat_map(|p| p.1.clone()).collect();
                assert_eq!(order, (0..=MAX_BATCH).collect::<Vec<_>>());
                assert_eq!((stats.batch_fallbacks, stats.batches), (1, 0));
                assert_eq!((stats.served, stats.single_requests), (5, 5));
                assert_eq!(stats.batch_size.count, 5, "the failed pass executed nothing");
                let after = engine.memory();
                assert_eq!(
                    (after.num_tensors, after.num_bytes),
                    (baseline.num_tensors, baseline.num_bytes)
                );
            }
        }
    }

    /// A lone closed-loop client never has batch-mates, so the window must
    /// never make it wait: not when fresh, and not after any run of
    /// single-request drains.
    #[test]
    fn a_lone_request_never_holds_the_window() {
        let mut window = WindowPolicy::default();
        assert!(!window.should_wait(1), "a fresh policy serves one request at once");
        assert!(window.should_wait(2), "two queued requests are worth batching");
        for drains in 1..=1_000 {
            window.observe_drain(1);
            assert!(!window.should_wait(1), "held the window after {drains} single drains");
        }
    }

    /// Sixteen concurrent clients teach the window to wait for a full
    /// batch. The drain-size EWMA approaches 16 from below (in f64 it
    /// settles at 15.999…), and the target is floored so that jitter
    /// undershoots rather than stalls: the window closes at 15 queued, and
    /// the drain then scoops everything pending. `max_batch` still caps it.
    #[test]
    fn drains_of_sixteen_grow_the_target_to_the_observed_concurrency() {
        let mut window = WindowPolicy::default();
        assert_eq!(window.target_batch(16), 2, "a fresh window waits for one batch-mate");
        for _ in 0..64 {
            window.observe_drain(16);
        }
        assert!(window.should_wait(1), "observed concurrency holds the window open");
        assert_eq!(window.target_batch(16), 15);
        assert_eq!(window.target_batch(8), 8, "never waits for more than max_batch");
    }

    /// Requests already queued when the worker drains are one drain: the
    /// window ends as soon as its target is queued, not at `max_wait`.
    #[test]
    fn a_queue_of_sixteen_is_one_drain() {
        let config =
            FleetConfig { max_batch: 16, max_wait: Duration::from_secs(10), ..Default::default() };
        let mut warm = WindowPolicy::default();
        for _ in 0..64 {
            warm.observe_drain(16);
        }
        for mut window in [WindowPolicy::default(), warm] {
            let queue = WorkQueue::new();
            for i in 0..16usize {
                assert!(queue.push(i).is_ok());
            }
            let drained = queue.drain(&mut window, &config).expect("a non-empty queue drains");
            assert_eq!(drained, (0..16).collect::<Vec<_>>());
            queue.shutdown();
            assert!(queue.drain(&mut window, &config).is_none(), "nothing was left behind");
        }
    }
}
