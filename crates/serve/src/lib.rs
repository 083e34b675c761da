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
//! ## One front door
//!
//! The loop lives once, in `batcher`: a worker owns an engine's queue,
//! warm-model cache and counters. [`FleetServer`] is the front door — a
//! router in front of one worker per engine, adding admission, placement,
//! deadlines, breakers, re-routing and probes. A fleet of one engine is the
//! single-engine server: give its model an SLO nobody can miss and it
//! validates, queues and replies. An engine that may degrade keeps serving
//! on its fallback only with `BreakerConfig::trip_on_degradation` off — a
//! tripped lone engine has nowhere to re-route to.
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

use webml_telemetry::HistogramSummary;

/// One served inference result: flattened output values plus per-example
/// output dims (no batch dimension).
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Flattened output values for this request's example.
    pub values: Vec<f32>,
    /// Per-example output shape.
    pub dims: Vec<usize>,
}

/// Lifetime counters of one serving worker (monotonic snapshots, per fleet
/// engine, from [`EngineStatus::serve`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use webml_backend_webgl::{WebGlBackend, WebGlConfig};
    use webml_converter::prune::GraphDef;
    use webml_converter::to_artifacts;
    use webml_core::cpu::CpuBackend;
    use webml_core::Engine;
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

    /// An SLO nothing in these tests can miss.
    pub(crate) fn unmissable() -> ModelSlo {
        ModelSlo::new(1_000.0, Duration::from_secs(10))
    }

    /// A fleet of one engine: the single-engine server.
    pub(crate) fn fleet_of_one(e: &Engine, config: FleetConfig) -> FleetServer {
        FleetServer::new(vec![EngineSpec::new("only", e, 8)], config)
    }

    #[test]
    fn serves_a_sequential_model() {
        let e = cpu_engine();
        let fleet = fleet_of_one(&e, FleetConfig::default());
        let key = fleet.register(mlp_source(&e), unmissable());
        let resp = fleet.infer(key, vec![0.5, -0.5, 1.0, 0.0], vec![4]).unwrap();
        assert_eq!(resp.dims, vec![3]);
        assert!((resp.values.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn serves_a_graph_model() {
        let e = cpu_engine();
        let fleet = fleet_of_one(&e, FleetConfig::default());
        let key = fleet.register(graph_source(&e), unmissable());
        let resp = fleet.infer(key, vec![3.0, 1.0], vec![2]).unwrap();
        assert_eq!(resp.dims, vec![2]);
        assert!(resp.values[0] > resp.values[1]);
    }

    #[test]
    fn lru_eviction_releases_weight_bytes() {
        let e = cpu_engine();
        let mut fleet = fleet_of_one(&e, FleetConfig { cache_capacity: 1, ..Default::default() });
        let mlp = fleet.register(mlp_source(&e), unmissable());
        let graph = fleet.register(graph_source(&e), unmissable());
        let baseline = e.memory().num_bytes;
        fleet.infer(mlp, vec![0.0; 4], vec![4]).unwrap();
        let with_mlp = e.memory().num_bytes;
        assert!(with_mlp > baseline, "warm model holds weight bytes");
        // Loading the second model evicts the first: its weights go away.
        fleet.infer(graph, vec![1.0, 0.0], vec![2]).unwrap();
        let with_graph = e.memory().num_bytes;
        assert!(with_graph < with_mlp, "eviction released the MLP weights");
        let stats_bytes = with_graph - baseline;
        assert_eq!(stats_bytes, 16, "graph model keeps exactly its 2x2 f32 weight");
        fleet.shutdown();
        assert_eq!(e.memory().num_bytes, baseline, "shutdown releases the cache");
        assert!(fleet.stats().engines[0].serve.cache_evictions >= 1);
    }

    #[test]
    fn graph_requests_hit_warm_plans() {
        let e = cpu_engine();
        let mut fleet = fleet_of_one(&e, FleetConfig::default());
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
        let key = fleet.register(source(), unmissable());
        let resp = fleet.infer(key, vec![3.0, 1.0], vec![2]).unwrap();
        assert!(resp.values[0] > resp.values[1]);
        fleet.shutdown();
        let stats = fleet.stats().engines[0].serve.clone();
        assert!(stats.plan_hits >= 1, "request rides a pre-warmed plan: {stats:?}");
        assert!(stats.plan_misses >= 2, "batch-1 and max-batch plans compiled: {stats:?}");

        // The same model straight through the cache the worker uses: the
        // plan is the only executor.
        let mut cache = ModelCache::new(1, FleetConfig::default().max_batch, &e);
        let x = e.tensor(vec![3.0, 1.0], webml_core::Shape::new(vec![1, 2])).unwrap();
        let y = cache.get_or_load(&e, key, &source()).unwrap().forward(&e, &x).unwrap();
        let plans = cache.plan_stats();
        assert!(plans.fallbacks == 0 && plans.hits >= 1, "{plans:?}");
        x.dispose();
        y.dispose();
        cache.invalidate_all();
    }
}
