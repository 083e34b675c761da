//! # webml-serve
//!
//! Concurrent inference serving on top of the eager engine: a dynamic
//! micro-batcher plus a warm-model LRU cache.
//!
//! The paper positions TensorFlow.js as a *deployment* vehicle — models
//! shipped to many clients with inference interleaved into a live event
//! loop (Sec 3.7, Sec 5). This crate reproduces the server-side shape of
//! that story: many concurrent clients submit single-example requests, a
//! worker coalesces same-model same-shape requests into one batched
//! forward pass (amortizing per-kernel dispatch overhead, the dominant
//! cost for small models), splits the batch output back per request, and
//! keeps recently used models warm so repeat traffic skips weight upload.
//!
//! ## One worker, two front doors
//!
//! The loop lives once, in `batcher`: a worker owns an engine's queue,
//! warm-model cache and counters. [`ModelServer`] is one worker behind a
//! front door that validates, queues and replies — callers see answers, not
//! refusals. [`FleetServer`] is a router in front of one worker per engine,
//! adding what is the fleet's alone: admission, placement, deadlines,
//! breakers, re-routing, probes.
//!
//! ## Batching semantics
//!
//! - Requests carry host-side example data (`values` + per-example `dims`).
//! - The worker drains its queue at once while traffic is sparse; once
//!   recent drains found batch-mates it holds the first request open until
//!   as many are pending as those drains delivered (at most `max_batch`),
//!   or `max_wait` has elapsed.
//! - Drained requests group by `(model, example dims)`; each group runs as
//!   `[n, dims...]` forward passes, chunked to `max_batch`. Every chunk of a
//!   drain is submitted (forward pass, fence, async readback) before the
//!   first is collected, so host work overlaps device work (paper Fig 3).
//! - A request alone in its group is a pass of one, and a coalesced pass
//!   that fails degrades to passes of one, so shape-incompatible or failing
//!   traffic is served correctly, just without the batching win.
//!
//! ## Degradation interaction (PR 1 ladder)
//!
//! The cache watches `Engine::degradation_generation()`; when a backend
//! fallback happens (e.g. simulated WebGL context loss) the whole cache is
//! invalidated and models rebuild on the fallback backend on next use.
//! Passes in flight complete on the fallback — callers see answers, not
//! errors.

#![warn(missing_docs)]

pub(crate) mod batcher;
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

use batcher::{Executor, FrontDoor, Pass, Request, SpanNames, WorkQueue, WorkerCells};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use webml_core::{Engine, Error, Result};
use webml_telemetry as telemetry;
use webml_telemetry::{HistogramSummary, RequestCtx, RequestOutcome, RequestTimeline};

/// Micro-batcher and cache tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest coalesced batch per forward pass (1 disables batching).
    pub max_batch: usize,
    /// The longest the worker holds the first queued request open for
    /// batch-mates before running a partial batch. The window is adaptive:
    /// it is skipped while the queue is shallow and recent drains found no
    /// batch-mates, and it closes early once as many requests are queued as
    /// recent drains delivered.
    pub max_wait: Duration,
    /// Warm models kept resident in the LRU cache.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { max_batch: 16, max_wait: Duration::from_millis(2), cache_capacity: 4 }
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

/// Lifetime counters of one serving worker (monotonic snapshots from
/// [`ModelServer::stats`] and, per fleet engine, [`EngineStatus::serve`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests executed and answered (successfully or with an error reply).
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
    /// Distribution of per-request queue wait (admission → worker drain),
    /// in milliseconds.
    pub queue_wait_ms: HistogramSummary,
    /// Distribution of executed forward-pass batch sizes (singles count
    /// as size 1).
    pub batch_size: HistogramSummary,
}

type Reply = mpsc::Sender<Result<InferResponse>>;

struct Shared {
    engine: Engine,
    queue: WorkQueue<Request<Reply>>,
    sources: Mutex<HashMap<ModelKey, Arc<ModelSource>>>,
    cells: WorkerCells,
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
            queue: WorkQueue::new(),
            sources: Mutex::new(HashMap::new()),
            cells: WorkerCells::default(),
        });
        let worker = shared.clone();
        let dispatcher = std::thread::Builder::new()
            .name("webml-serve-dispatcher".into())
            .spawn(move || {
                batcher::run(&ServerDoor, &worker.queue, &worker.engine, &config, &worker.cells)
            })
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
            let why = format!("example of {} values does not match dims {dims:?}", values.len());
            refuse(tl, &tx, why);
            return PendingInference { rx };
        }
        let Some(source) = self.shared.sources.lock().get(&key).cloned() else {
            refuse(tl, &tx, format!("unknown model key {key:#x}"));
            return PendingInference { rx };
        };
        // Stamped before the push: once queued, the worker may reply at any
        // moment, and the enqueue marker must fall inside the request's
        // submit→reply envelope.
        tl.admitted_ns = telemetry::now_ns();
        {
            let _scope = telemetry::trace_scope(ctx.trace_id);
            telemetry::instant("serve.enqueue", "serve");
        }
        let pushed = self.shared.queue.push(Request { key, source, values, dims, tl, ticket: tx });
        if let Err(req) = pushed {
            refuse(req.tl, &req.ticket, "server is shutting down".to_owned());
        }
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
        self.shared.cells.snapshot()
    }

    /// The engine this server executes on.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Stop accepting requests, finish the queue, and join the dispatcher.
    /// Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.shared.queue.shutdown();
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

/// A request refused at the front door: never queued, never counted served.
fn refuse(mut tl: RequestTimeline, reply: &Reply, why: String) {
    obs::finish_request(&mut tl, RequestOutcome::Rejected, 0, 0);
    let _ = reply.send(Err(Error::invalid("serve", why)));
}

/// [`ModelServer`]'s side of the worker: every queued request executes, and
/// a pass's outcome is its members' reply — callers see answers, not
/// refusals.
struct ServerDoor;

impl FrontDoor for ServerDoor {
    type Item = Request<Reply>;
    type Ticket = Reply;
    const SPANS: SpanNames = SpanNames {
        dispatch: "serve.dispatch",
        batch: "serve.submit",
        single: "serve.submit",
        complete: "serve.complete",
        fallback: "serve.batch_fallback",
    };

    fn admit(&self, _: &mut Executor<'_>, drained: Vec<Request<Reply>>) -> Vec<Request<Reply>> {
        drained
    }

    fn complete(
        &self,
        pass: &Pass,
        chunk: Vec<Request<Reply>>,
        outcome: Result<Vec<InferResponse>>,
    ) {
        let results: Vec<Result<InferResponse>> = match outcome {
            Ok(responses) => responses.into_iter().map(Ok).collect(),
            Err(e) => vec![Err(e); chunk.len()],
        };
        for (mut req, result) in chunk.into_iter().zip(results) {
            let outcome =
                if result.is_ok() { RequestOutcome::Completed } else { RequestOutcome::Error };
            obs::finish_request(&mut req.tl, outcome, pass.batch_size as u32, pass.batch_trace);
            let _ = req.ticket.send(result);
            telemetry::instant("serve.reply", "serve");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webml_backend_webgl::{WebGlBackend, WebGlConfig};
    use webml_converter::prune::GraphDef;
    use webml_converter::to_artifacts;
    use webml_core::cpu::CpuBackend;
    use webml_layers::{Activation, Dense, Sequential};
    use webml_webgl_sim::devices::DeviceProfile;
    use webml_webgl_sim::fault::FaultPlan;

    pub(crate) fn cpu_engine() -> Engine {
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
        e
    }

    /// The `cpu` rung under a webgl backend that follows `plan`.
    pub(crate) fn faulty_webgl_engine(plan: FaultPlan) -> Engine {
        let e = cpu_engine();
        let profile = DeviceProfile::intel_iris_pro();
        let webgl = WebGlBackend::with_faults(profile, WebGlConfig::default(), plan)
            .expect("iris pro has float textures");
        e.register_backend("webgl", Arc::new(webgl), 2);
        e
    }

    pub(crate) fn webgl_engine() -> Engine {
        faulty_webgl_engine(FaultPlan::none())
    }

    pub(crate) fn mlp_artifacts(e: &Engine) -> webml_converter::ModelArtifacts {
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
        let e = cpu_engine();
        let server = ModelServer::new(&e, ServeConfig::default());
        let key = server.register(mlp_source(&e));
        let resp = server.infer(key, vec![0.5, -0.5, 1.0, 0.0], vec![4]).unwrap();
        assert_eq!(resp.dims, vec![3]);
        assert!((resp.values.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn serves_a_graph_model() {
        let e = cpu_engine();
        let server = ModelServer::new(&e, ServeConfig::default());
        let key = server.register(graph_source(&e));
        let resp = server.infer(key, vec![3.0, 1.0], vec![2]).unwrap();
        assert_eq!(resp.dims, vec![2]);
        assert!(resp.values[0] > resp.values[1]);
    }

    #[test]
    fn lru_eviction_releases_weight_bytes() {
        let e = cpu_engine();
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
        let e = cpu_engine();
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
        let source = || ModelSource::Graph {
            graph: graph.clone(),
            weights: vec![("w".into(), vec![1.0, 0.0, 0.0, 1.0], vec![2, 2])],
        };
        let key = server.register(source());
        let resp = server.infer(key, vec![3.0, 1.0], vec![2]).unwrap();
        assert!(resp.values[0] > resp.values[1]);
        server.shutdown();
        let stats = server.stats();
        assert!(stats.plan_hits >= 1, "request rides a pre-warmed plan: {stats:?}");
        assert!(stats.plan_misses >= 2, "batch-1 and max-batch plans compiled: {stats:?}");

        // The same model straight through the cache the worker uses: the
        // plan is the only executor.
        let mut cache = ModelCache::new(1, ServeConfig::default().max_batch, &e);
        let x = e.tensor(vec![3.0, 1.0], webml_core::Shape::new(vec![1, 2])).unwrap();
        let y = cache.get_or_load(&e, key, &source()).unwrap().forward(&e, &x).unwrap();
        let plans = cache.plan_stats();
        assert!(plans.fallbacks == 0 && plans.hits >= 1, "{plans:?}");
        x.dispose();
        y.dispose();
        cache.invalidate_all();
    }
}
