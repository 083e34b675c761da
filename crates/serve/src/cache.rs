//! The warm-model cache: an LRU keyed by model content hash that keeps
//! built models — fused `GraphModel`s or `Sequential`s — and their uploaded
//! weights resident across requests.
//!
//! Eviction disposes the evicted model's weight tensors, so the released
//! bytes are visible in `Engine::memory()` immediately. The cache also
//! watches the engine's degradation counter: after a backend fallback
//! (e.g. simulated WebGL context loss) every cached model is invalidated
//! and rebuilt on the fallback backend on next use.

use std::collections::HashMap;
use webml_converter::prune::GraphDef;
use webml_converter::{from_artifacts, GraphModel, ModelArtifacts, PlanStats};
use webml_core::{Engine, Error, Result, Tensor};
use webml_layers::Sequential;

/// Identifies a registered model: the content hash of its source.
pub type ModelKey = u64;

/// A model registration: everything needed to (re)build the servable model
/// on the engine's *current* backend — kept host-side so that cache
/// eviction and context-loss invalidation can always rebuild.
pub enum ModelSource {
    /// Converter artifacts, rebuilt via [`from_artifacts`] into a
    /// [`Sequential`].
    Artifacts(ModelArtifacts),
    /// A TensorFlow-style graph plus host weight values, rebuilt into a
    /// (fused) [`GraphModel`].
    Graph {
        /// The inference graph.
        graph: GraphDef,
        /// `(node name, values, shape)` for every `Const`/`VariableV2` node.
        weights: Vec<(String, Vec<f32>, Vec<usize>)>,
    },
}

impl ModelSource {
    /// Stable content hash used as the cache key.
    pub fn key(&self) -> ModelKey {
        match self {
            ModelSource::Artifacts(a) => a.content_hash(),
            ModelSource::Graph { graph, weights } => {
                const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
                const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
                let mut h = FNV_OFFSET;
                let mut eat = |bytes: &[u8]| {
                    for &b in bytes {
                        h ^= b as u64;
                        h = h.wrapping_mul(FNV_PRIME);
                    }
                };
                for node in &graph.nodes {
                    eat(node.name.as_bytes());
                    eat(&[0]);
                    eat(node.op.as_bytes());
                    eat(&[0]);
                    for input in &node.inputs {
                        eat(input.as_bytes());
                        eat(&[0]);
                    }
                    eat(serde_json::to_string(&node.attrs).unwrap_or_default().as_bytes());
                }
                for (name, values, shape) in weights {
                    eat(name.as_bytes());
                    eat(&[0]);
                    for &d in shape {
                        eat(&(d as u64).to_le_bytes());
                    }
                    for v in values {
                        eat(&v.to_le_bytes());
                    }
                }
                h
            }
        }
    }

    /// Host-side weight bytes this source would upload — the placement
    /// cost signal used by the fleet router (heavy models prefer engines
    /// with a high device-parallelism class). Computable without building
    /// the model.
    pub fn cost_bytes(&self) -> usize {
        match self {
            ModelSource::Artifacts(a) => a.weight_bytes(),
            ModelSource::Graph { weights, .. } => {
                weights.iter().map(|(_, values, _)| values.len() * 4).sum()
            }
        }
    }
}

/// A built, servable model with its weights uploaded to the engine.
#[allow(clippy::large_enum_variant)] // a handful of cache entries, never moved in bulk
pub enum Loaded {
    /// A layers model (forward pass on the whole batch).
    Seq(Sequential),
    /// A fused graph model plus its resolved feed/fetch node names.
    Graph {
        /// The executable graph.
        model: GraphModel,
        /// Placeholder to bind the batch input to.
        feed: String,
        /// Terminal node to fetch.
        fetch: String,
    },
}

impl Loaded {
    fn build(engine: &Engine, source: &ModelSource) -> Result<Loaded> {
        match source {
            ModelSource::Artifacts(a) => Ok(Loaded::Seq(from_artifacts(engine, a)?)),
            ModelSource::Graph { graph, weights } => {
                let mut uploaded: HashMap<String, Tensor> = HashMap::new();
                for (name, values, shape) in weights {
                    let t = engine
                        .tensor(values.clone(), webml_core::Shape::new(shape.clone()))?;
                    t.keep();
                    uploaded.insert(name.clone(), t);
                }
                let model = GraphModel::new(engine, graph.clone(), uploaded)?;
                let feed = model
                    .placeholder_names()
                    .first()
                    .map(|s| s.to_string())
                    .ok_or_else(|| Error::invalid("serve", "graph has no placeholder"))?;
                let fetch = model
                    .output_names()
                    .first()
                    .map(|s| s.to_string())
                    .ok_or_else(|| Error::invalid("serve", "graph has no output node"))?;
                Ok(Loaded::Graph { model, feed, fetch })
            }
        }
    }

    /// Pre-warm execution plans for the micro-batcher's shapes: when the
    /// graph's placeholders declare their per-example shape, compile plans
    /// for batch sizes 1 and `max_batch` so neither a single request nor a
    /// full batch pays plan compilation on its first forward. A failure
    /// here is not fatal: the first forward rebuilds the plan and reports
    /// the error to that request.
    pub fn warm_plans(&self, max_batch: usize) {
        let Loaded::Graph { model, fetch, .. } = self else { return };
        let Some(sig) = model.placeholder_shape_attrs() else { return };
        for batch in [1, max_batch.max(1)] {
            let batched: Vec<(String, Vec<usize>)> = sig
                .iter()
                .map(|(name, dims)| {
                    let mut dims = dims.clone();
                    if !dims.is_empty() {
                        dims[0] = batch;
                    }
                    (name.clone(), dims)
                })
                .collect();
            let _ = model.plan_for_shapes(&batched, &[fetch.as_str()]);
        }
    }

    /// This model's plan-cache counters (zero for layers models).
    pub fn plan_stats(&self) -> PlanStats {
        match self {
            Loaded::Seq(_) => PlanStats::default(),
            Loaded::Graph { model, .. } => model.plan_stats(),
        }
    }

    /// One forward pass over a (possibly batched) input tensor.
    pub fn forward(&self, engine: &Engine, x: &Tensor) -> Result<Tensor> {
        match self {
            Loaded::Seq(m) => engine.tidy(|| m.forward(x, false)),
            Loaded::Graph { model, feed, fetch } => {
                let mut outs = model.execute(&[(feed.as_str(), x)], &[fetch.as_str()])?;
                Ok(outs.remove(0))
            }
        }
    }

    /// Bytes resident in this model's uploaded weights.
    pub fn weight_bytes(&self) -> usize {
        match self {
            Loaded::Seq(m) => m.named_weights().iter().map(|(_, v)| v.value().bytes()).sum(),
            Loaded::Graph { model, .. } => model.weight_bytes(),
        }
    }

    fn dispose_weights(&self) {
        match self {
            Loaded::Seq(m) => {
                for (_, v) in m.named_weights() {
                    v.dispose();
                }
            }
            Loaded::Graph { model, .. } => model.dispose_weights(),
        }
    }
}

struct Entry {
    model: Loaded,
    last_used: u64,
}

/// LRU cache of built models, owned by the dispatcher thread.
pub struct ModelCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<ModelKey, Entry>,
    degradation_epoch: u64,
    /// Batch size (in addition to 1) to pre-warm execution plans for.
    warm_batch: usize,
    /// Plan counters carried over from evicted/invalidated models, so the
    /// aggregate in [`ModelCache::plan_stats`] stays monotonic.
    retired_plans: PlanStats,
    /// Lifetime counters, drained by the server's stats.
    pub hits: u64,
    /// Cache misses (model built from source).
    pub misses: u64,
    /// Evictions (LRU capacity pressure).
    pub evictions: u64,
    /// Whole-cache invalidations after a backend degradation.
    pub invalidations: u64,
}

impl ModelCache {
    /// A cache holding at most `capacity` warm models (min 1), pre-warming
    /// execution plans for batch sizes 1 and `warm_batch` on each build.
    pub fn new(capacity: usize, warm_batch: usize, engine: &Engine) -> ModelCache {
        ModelCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            degradation_epoch: engine.degradation_generation(),
            warm_batch: warm_batch.max(1),
            retired_plans: PlanStats::default(),
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Aggregate plan-cache counters across the warm models, including
    /// counts accumulated by models that have since been evicted or
    /// invalidated. `entries` counts only currently-resident plans.
    pub fn plan_stats(&self) -> PlanStats {
        let mut total = self.retired_plans;
        total.entries = 0;
        for entry in self.entries.values() {
            let s = entry.model.plan_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.invalidations += s.invalidations;
            total.fallbacks += s.fallbacks;
            total.entries += s.entries;
        }
        total
    }

    fn retire(&mut self, model: &Loaded) {
        let s = model.plan_stats();
        self.retired_plans.hits += s.hits;
        self.retired_plans.misses += s.misses;
        self.retired_plans.invalidations += s.invalidations;
        self.retired_plans.fallbacks += s.fallbacks;
    }

    /// Number of warm models currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Invalidate everything when the engine degraded since the last check
    /// (context loss → the old backend's programs/textures are gone; the
    /// rebuilt models upload onto the fallback backend). Returns whether an
    /// invalidation happened. Polled per drain, so it reads the engine's
    /// atomic degradation *generation* — never the event log.
    pub fn check_degradation(&mut self, engine: &Engine) -> bool {
        let epoch = engine.degradation_generation();
        if epoch == self.degradation_epoch {
            return false;
        }
        self.degradation_epoch = epoch;
        self.invalidate_all();
        true
    }

    /// Drop every cached model, disposing their weights.
    pub fn invalidate_all(&mut self) {
        let drained: Vec<Entry> = self.entries.drain().map(|(_, e)| e).collect();
        for entry in drained {
            self.retire(&entry.model);
            entry.model.dispose_weights();
        }
        self.invalidations += 1;
    }

    /// Drop one model (e.g. after a forward error), disposing its weights.
    pub fn invalidate(&mut self, key: ModelKey) {
        if let Some(entry) = self.entries.remove(&key) {
            self.retire(&entry.model);
            entry.model.dispose_weights();
        }
    }

    /// Fetch the warm model for `key`, building it from `source` on a miss
    /// (evicting the least-recently-used model first when full).
    ///
    /// # Errors
    /// Propagates model-build errors.
    pub fn get_or_load(&mut self, engine: &Engine, key: ModelKey, source: &ModelSource) -> Result<&Loaded> {
        self.tick += 1;
        let tick = self.tick;
        if self.entries.contains_key(&key) {
            self.hits += 1;
        } else {
            while self.entries.len() >= self.capacity {
                let lru = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("non-empty cache");
                let entry = self.entries.remove(&lru).expect("lru key present");
                self.retire(&entry.model);
                entry.model.dispose_weights();
                self.evictions += 1;
            }
            let model = {
                let _span = webml_telemetry::span("serve.model_build", "serve");
                let model = Loaded::build(engine, source)?;
                model.warm_plans(self.warm_batch);
                model
            };
            self.misses += 1;
            self.entries.insert(key, Entry { model, last_used: tick });
        }
        let entry = self.entries.get_mut(&key).expect("inserted above");
        entry.last_used = tick;
        Ok(&entry.model)
    }
}
