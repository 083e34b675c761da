//! A GraphDef executor: runs (pruned) TensorFlow-style inference graphs on
//! the eager engine — the "load and execute pre-trained TensorFlow
//! SavedModels" path of paper Sec 5.1.
//!
//! Supports the op set the converter emits for the models this repo
//! reproduces (dense/conv image classifiers): placeholders, constants,
//! matmul, bias/arithmetic, activations, conv/pool, reshape, softmax.
//!
//! A model holds one graph. Every run is a [`Plan`] run: `execute` resolves
//! the feed-shape signature, takes the cached plan (compiling it on first
//! use) and runs it. A graph the planner rejects is an `Err` to the caller.
//!
//! Fusion happens in the planner, as it lowers: `MatMul`/`Conv2D`/
//! `DepthwiseConv2dNative` followed by a sole-consumer bias add and
//! activation become one product call with an epilogue, and runs of
//! sole-consumer element-wise ops one element-wise chain call — each a
//! single fused device kernel at execution time. A fetched value is never
//! folded away: fetching an intermediate only keeps the fold through it
//! from happening.

use crate::plan::{PendingFetches, Plan};
use crate::prune::{GraphDef, NodeDef};
use parking_lot::Mutex;
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use webml_core::backend::{BinaryOp, UnaryOp};
use webml_core::conv_util::Padding;
use webml_core::{Engine, Error, Result, Shape, Tensor};

/// Key of a cached plan: the sorted `(placeholder, dims)` feed signature
/// plus the fetch list.
type PlanKey = (Vec<(String, Vec<usize>)>, Vec<String>);

/// Shape-keyed plan cache; cleared whenever the engine's degradation
/// generation moves (context loss → plans rebuild on the fallback backend).
struct PlanCache {
    generation: u64,
    entries: HashMap<PlanKey, Arc<Plan>>,
}

/// Plan-cache counters for one model (see [`GraphModel::plan_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Executions served by a cached plan.
    pub hits: u64,
    /// Plans compiled (cold signature or post-invalidation).
    pub misses: u64,
    /// Whole-cache invalidations after a backend degradation.
    pub invalidations: u64,
    /// Always 0: the plan is the only executor, so there is nothing to
    /// fall back to (a plan that cannot be built is an `Err`, a taped run
    /// is a plan run). The field stays because callers read it.
    pub fallbacks: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// Cached handles to the process-wide plan telemetry metrics, resolved once
/// so the per-call path never touches the registry lock.
struct PlanMetrics {
    hits: Arc<webml_telemetry::Counter>,
    misses: Arc<webml_telemetry::Counter>,
    invalidations: Arc<webml_telemetry::Counter>,
    peak_bytes: Arc<webml_telemetry::Gauge>,
}

fn plan_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PlanMetrics {
        hits: webml_telemetry::counter("plan.cache_hits_total"),
        misses: webml_telemetry::counter("plan.cache_misses_total"),
        invalidations: webml_telemetry::counter("plan.invalidations_total"),
        peak_bytes: webml_telemetry::gauge("plan.predicted_peak_bytes"),
    })
}

/// A loaded, executable inference graph.
pub struct GraphModel {
    engine: Engine,
    graph: GraphDef,
    /// Values for `Const`/`VariableV2` nodes, by node name.
    weights: HashMap<String, Tensor>,
    order: Vec<usize>,
    /// The most nodes any plan of this model has folded away.
    folded: AtomicUsize,
    plans: Mutex<PlanCache>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_invalidations: AtomicU64,
}

pub(crate) fn attr_str<'a>(node: &'a NodeDef, key: &str) -> Option<&'a str> {
    node.attrs.get(key).and_then(Value::as_str)
}

pub(crate) fn attr_pair(node: &NodeDef, key: &str, default: (usize, usize)) -> (usize, usize) {
    node.attrs
        .get(key)
        .and_then(Value::as_array)
        .map(|a| {
            (
                a.first().and_then(Value::as_u64).unwrap_or(default.0 as u64) as usize,
                a.get(1).and_then(Value::as_u64).unwrap_or(default.1 as u64) as usize,
            )
        })
        .unwrap_or(default)
}

pub(crate) fn attr_padding(node: &NodeDef) -> Result<Padding> {
    match attr_str(node, "padding").unwrap_or("SAME") {
        "SAME" | "same" => Ok(Padding::Same),
        "VALID" | "valid" => Ok(Padding::Valid),
        other => Err(Error::Serialization { message: format!("unknown padding {other}") }),
    }
}

/// Kahn topological sort (GraphDefs are not guaranteed ordered).
fn toposort(graph: &GraphDef) -> Result<Vec<usize>> {
    let index: HashMap<&str, usize> =
        graph.nodes.iter().enumerate().map(|(i, n)| (n.name.as_str(), i)).collect();
    let mut indegree = vec![0usize; graph.nodes.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
    for (i, node) in graph.nodes.iter().enumerate() {
        for input in &node.inputs {
            let clean = input.trim_start_matches('^');
            let &j = index.get(clean).ok_or_else(|| Error::Serialization {
                message: format!("node {} references unknown input {clean}", node.name),
            })?;
            indegree[i] += 1;
            dependents[j].push(i);
        }
    }
    let mut queue: Vec<usize> = (0..graph.nodes.len()).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(graph.nodes.len());
    while let Some(i) = queue.pop() {
        order.push(i);
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(d);
            }
        }
    }
    if order.len() != graph.nodes.len() {
        return Err(Error::Serialization { message: "graph contains a cycle".into() });
    }
    Ok(order)
}

/// Resolve a `Reshape` node's `shape` attr against its input shape:
/// a leading `0` keeps the batch dim and a single `-1` wildcard is inferred
/// from the input element count (TensorFlow semantics).
///
/// # Errors
/// Fails on a missing/non-integer attr, more than one `-1`, other negative
/// dims, or a wildcard the element count cannot divide into.
pub(crate) fn resolve_reshape_dims(node: &NodeDef, input: &Shape) -> Result<Vec<usize>> {
    let attr = node.attrs.get("shape").and_then(Value::as_array).ok_or_else(|| {
        Error::Serialization { message: format!("Reshape {} missing shape attr", node.name) }
    })?;
    let raw: Vec<i64> = attr.iter().filter_map(Value::as_i64).collect();
    if raw.len() != attr.len() {
        return Err(Error::Serialization {
            message: format!("Reshape {} has a non-integer dim in its shape attr", node.name),
        });
    }
    let mut dims: Vec<usize> = Vec::with_capacity(raw.len());
    let mut wildcard: Option<usize> = None;
    for (i, &d) in raw.iter().enumerate() {
        if d == -1 {
            if wildcard.is_some() {
                return Err(Error::shape(
                    "Reshape",
                    format!("{} has more than one -1 wildcard dim", node.name),
                ));
            }
            wildcard = Some(i);
            dims.push(1);
        } else if d == 0 && i == 0 {
            // A leading 0 means "keep the batch dim".
            let batch = input.dims().first().ok_or_else(|| {
                let msg = format!("{}: a leading 0 keeps no dim of a scalar", node.name);
                Error::shape("Reshape", msg)
            })?;
            dims.push(*batch);
        } else if d < 0 {
            return Err(Error::shape(
                "Reshape",
                format!("{} has a negative dim {d} (only -1 is allowed)", node.name),
            ));
        } else {
            dims.push(d as usize);
        }
    }
    if let Some(w) = wildcard {
        let known: usize =
            dims.iter().enumerate().filter(|&(i, _)| i != w).map(|(_, &d)| d).product();
        let total = input.size();
        if known == 0 || !total.is_multiple_of(known) {
            return Err(Error::shape(
                "Reshape",
                format!(
                    "{}: cannot infer -1 dim ({} elements do not divide into {:?})",
                    node.name, total, raw
                ),
            ));
        }
        dims[w] = total / known;
    }
    Ok(dims)
}

pub(crate) fn fusable_unary(op: &str) -> Option<UnaryOp> {
    match op {
        "Relu" => Some(UnaryOp::Relu),
        "Relu6" => Some(UnaryOp::Relu6),
        "Sigmoid" => Some(UnaryOp::Sigmoid),
        "Tanh" => Some(UnaryOp::Tanh),
        _ => None,
    }
}

pub(crate) fn fusable_binary(op: &str) -> Option<BinaryOp> {
    match op {
        "Add" | "AddV2" | "BiasAdd" => Some(BinaryOp::Add),
        "Sub" => Some(BinaryOp::Sub),
        "Mul" => Some(BinaryOp::Mul),
        "RealDiv" | "Div" => Some(BinaryOp::Div),
        _ => None,
    }
}

impl GraphModel {
    /// Build an executable model from a graph and its weight values.
    ///
    /// # Errors
    /// Fails when the graph has cycles, unknown input references, or a
    /// `Const`/`VariableV2` node without a supplied weight.
    pub fn new(
        engine: &Engine,
        graph: GraphDef,
        weights: HashMap<String, Tensor>,
    ) -> Result<GraphModel> {
        let order = toposort(&graph)?;
        for node in &graph.nodes {
            if matches!(node.op.as_str(), "Const" | "VariableV2") && !weights.contains_key(&node.name)
            {
                return Err(Error::Serialization {
                    message: format!("missing weight for node {}", node.name),
                });
            }
        }
        let model = GraphModel {
            engine: engine.clone(),
            graph,
            weights,
            order,
            folded: AtomicUsize::new(0),
            plans: Mutex::new(PlanCache {
                generation: engine.degradation_generation(),
                entries: HashMap::new(),
            }),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plan_invalidations: AtomicU64::new(0),
        };
        // Load-time compile: when every placeholder declares its shape we
        // can plan the default (terminal-fetch) signature right away, so
        // the first request already hits a warm plan. Other signatures
        // compile on first use. A failure here is not fatal to the load:
        // the first `execute` rebuilds the plan and reports the error.
        if let Some(sig) = model.placeholder_shape_attrs() {
            let fetches: Vec<String> =
                model.output_names().iter().map(|s| s.to_string()).collect();
            if !fetches.is_empty() {
                let fetch_refs: Vec<&str> = fetches.iter().map(String::as_str).collect();
                let _ = model.plan_for_shapes(&sig, &fetch_refs);
            }
        }
        Ok(model)
    }

    /// The `(placeholder, dims)` signature declared by `shape` attrs, when
    /// every placeholder carries one. Callers (e.g. a serving layer) can
    /// rewrite the batch dim and pre-warm plans for other batch sizes via
    /// [`GraphModel::plan_for_shapes`].
    pub fn placeholder_shape_attrs(&self) -> Option<Vec<(String, Vec<usize>)>> {
        let mut sig = Vec::new();
        for node in self.graph.nodes.iter().filter(|n| n.op == "Placeholder") {
            let dims: Vec<usize> = node
                .attrs
                .get("shape")
                .and_then(Value::as_array)?
                .iter()
                .map(|d| d.as_u64().map(|d| d as usize))
                .collect::<Option<_>>()?;
            sig.push((node.name.clone(), dims));
        }
        if sig.is_empty() {
            None
        } else {
            Some(sig)
        }
    }

    /// Compile (or fetch from cache) the execution plan for an explicit
    /// feed-shape signature. The cache is keyed by `(sorted feed shapes,
    /// fetches)` and cleared whenever [`Engine::degradation_generation`]
    /// has moved since the last lookup — a context loss invalidates every
    /// plan so the next call rebuilds against the fallback backend.
    ///
    /// # Errors
    /// Propagates plan-build failures (unsupported ops, missing feeds,
    /// shape mismatches).
    pub fn plan_for_shapes(
        &self,
        feed_shapes: &[(String, Vec<usize>)],
        fetches: &[&str],
    ) -> Result<Arc<Plan>> {
        let generation = self.engine.degradation_generation();
        let mut sig = feed_shapes.to_vec();
        sig.sort_by(|a, b| a.0.cmp(&b.0));
        let key: PlanKey = (sig.clone(), fetches.iter().map(|s| s.to_string()).collect());
        let mut cache = self.plans.lock();
        if cache.generation != generation {
            cache.entries.clear();
            cache.generation = generation;
            self.plan_invalidations.fetch_add(1, Ordering::Relaxed);
            plan_metrics().invalidations.add(1);
        }
        if let Some(plan) = cache.entries.get(&key) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            plan_metrics().hits.add(1);
            return Ok(plan.clone());
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        plan_metrics().misses.add(1);
        let plan = Arc::new(Plan::build(&self.graph, &self.order, &self.weights, &sig, fetches)?);
        self.folded.fetch_max(plan.folded, Ordering::Relaxed);
        plan_metrics().peak_bytes.set(plan.predicted_peak_bytes() as i64);
        cache.entries.insert(key, plan.clone());
        Ok(plan)
    }

    /// Plan-cache counters for this model.
    pub fn plan_stats(&self) -> PlanStats {
        PlanStats {
            hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.plan_misses.load(Ordering::Relaxed),
            invalidations: self.plan_invalidations.load(Ordering::Relaxed),
            fallbacks: 0,
            entries: self.plans.lock().entries.len(),
        }
    }

    /// Node count of the graph less the nodes its plans fold into the op
    /// producing their input (the most any plan built so far folded).
    pub fn fused_node_count(&self) -> usize {
        self.node_count() - self.folded.load(Ordering::Relaxed)
    }

    /// Node count of the original (unfused) graph.
    pub fn node_count(&self) -> usize {
        self.graph.nodes.len()
    }

    /// The engine this model executes on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Names of the graph's `Placeholder` nodes — the feeds a serving layer
    /// must bind.
    pub fn placeholder_names(&self) -> Vec<&str> {
        self.graph
            .nodes
            .iter()
            .filter(|n| n.op == "Placeholder")
            .map(|n| n.name.as_str())
            .collect()
    }

    /// Names of the graph's terminal nodes (no consumers) — the natural
    /// fetches for inference.
    pub fn output_names(&self) -> Vec<&str> {
        let consumed: HashSet<&str> = self
            .graph
            .nodes
            .iter()
            .flat_map(|n| n.inputs.iter().map(|i| i.trim_start_matches('^')))
            .collect();
        self.graph
            .nodes
            .iter()
            .filter(|n| !consumed.contains(n.name.as_str()) && n.op != "Placeholder")
            .map(|n| n.name.as_str())
            .collect()
    }

    /// Bytes resident in this model's uploaded weight tensors.
    pub fn weight_bytes(&self) -> usize {
        self.weights.values().map(Tensor::bytes).sum()
    }

    /// Dispose every uploaded weight tensor. The model is unusable
    /// afterwards — this is the serving-cache eviction path, which releases
    /// the weights' device memory back to `Engine::memory()` accounting.
    pub fn dispose_weights(&self) {
        for t in self.weights.values() {
            t.dispose();
        }
    }

    /// Execute the graph: bind `feeds` to placeholders, return the tensors
    /// of `fetches`. Runs the compiled [`Plan`] for this feed-shape
    /// signature (building and caching it on first use). Each intermediate
    /// is disposed at its final consumer — except while a gradient tape is
    /// recording, when the plan keeps them for the backward pass (see
    /// [`Plan::run`]).
    ///
    /// # Errors
    /// Fails on missing feeds/fetches, unsupported ops or malformed nodes
    /// (the plan cannot be built), and on kernel failures.
    pub fn execute(&self, feeds: &[(&str, &Tensor)], fetches: &[&str]) -> Result<Vec<Tensor>> {
        let sig: Vec<(String, Vec<usize>)> =
            feeds.iter().map(|(n, t)| (n.to_string(), t.shape_ref().dims().to_vec())).collect();
        self.plan_for_shapes(&sig, fetches)?.run(&self.engine, feeds)
    }

    /// Execute the graph **without synchronizing** (paper Sec 4.1.1,
    /// Fig 3): [`GraphModel::execute`] enqueues the ops (non-blocking on
    /// the asynchronous backends), then asynchronous readbacks are issued
    /// for every fetch and a fence marks the end of the submission. Returns
    /// a [`PendingFetches`] immediately so the caller can overlap the next
    /// request's upload and enqueue with this one's device compute —
    /// double-buffered, this keeps the device thread busy end-to-end.
    ///
    /// A context loss mid-pipeline invalidates the plan cache through the
    /// degradation generation; the next call plans against the fallback
    /// backend, and the fence reflects whatever backend ran the work.
    ///
    /// # Errors
    /// Same conditions as [`GraphModel::execute`], plus readback
    /// submission failures.
    pub fn execute_pipelined(
        &self,
        feeds: &[(&str, &Tensor)],
        fetches: &[&str],
    ) -> Result<PendingFetches> {
        PendingFetches::capture(&self.engine, self.execute(feeds, fetches)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use std::sync::Arc;
    use webml_core::backend::{Epilogue, KernelCall};
    use webml_core::cpu::CpuBackend;
    use webml_core::{ops, FusedStep};

    fn engine() -> Engine {
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
        e
    }

    /// The tests' second op table: a per-call walk of the **unfused** graph,
    /// op names string-matched and attrs re-parsed on the spot, every node
    /// computed and kept until the scope closes. Written independently of
    /// `plan::lower_node` + `dispatch`, so a plan that disagrees with it on
    /// any fetch has a wrong arm. A fetched weight or feed is the borrowed
    /// handle itself — do not dispose it.
    fn reference_walk(
        model: &GraphModel,
        feeds: &[(&str, &Tensor)],
        fetches: &[&str],
    ) -> Result<Vec<Tensor>> {
        model.engine.tidy(|| {
            let mut values: HashMap<&str, Tensor> = HashMap::new();
            for &i in &model.order {
                let node = &model.graph.nodes[i];
                let get = |k: usize| -> Result<&Tensor> {
                    let name = node.inputs.get(k).ok_or_else(|| {
                        Error::invalid("reference", format!("{} is missing input {k}", node.name))
                    })?;
                    values.get(name.trim_start_matches('^')).ok_or_else(|| {
                        Error::invalid("reference", format!("input {name} not computed"))
                    })
                };
                let out = match node.op.as_str() {
                    "Placeholder" => feeds
                        .iter()
                        .find(|(n, _)| *n == node.name)
                        .map(|(_, t)| (*t).clone())
                        .ok_or_else(|| {
                            Error::invalid("reference", format!("no feed for {}", node.name))
                        })?,
                    "Const" | "VariableV2" => model.weights[&node.name].clone(),
                    "MatMul" => ops::matmul(get(0)?, get(1)?, false, false)?,
                    "Add" | "AddV2" | "BiasAdd" => ops::add(get(0)?, get(1)?)?,
                    "Sub" => ops::sub(get(0)?, get(1)?)?,
                    "Mul" => ops::mul(get(0)?, get(1)?)?,
                    "RealDiv" | "Div" => ops::div(get(0)?, get(1)?)?,
                    "Relu" => ops::relu(get(0)?)?,
                    "Relu6" => ops::relu6(get(0)?)?,
                    "Sigmoid" => ops::sigmoid(get(0)?)?,
                    "Tanh" => ops::tanh(get(0)?)?,
                    "Softmax" => ops::softmax(get(0)?)?,
                    "Identity" => ops::identity(get(0)?)?,
                    "Reshape" => {
                        let x = get(0)?;
                        let dims = resolve_reshape_dims(node, x.shape_ref())?;
                        ops::reshape(x, Shape::new(dims))?
                    }
                    "Conv2D" => {
                        let strides = attr_pair(node, "strides", (1, 1));
                        ops::conv2d(get(0)?, get(1)?, strides, attr_padding(node)?, (1, 1))?
                    }
                    "DepthwiseConv2dNative" => {
                        let strides = attr_pair(node, "strides", (1, 1));
                        ops::depthwise_conv2d(get(0)?, get(1)?, strides, attr_padding(node)?, (1, 1))?
                    }
                    "MaxPool" => {
                        let window = attr_pair(node, "ksize", (2, 2));
                        let strides = attr_pair(node, "strides", window);
                        ops::max_pool(get(0)?, window, strides, attr_padding(node)?)?
                    }
                    "AvgPool" => {
                        let window = attr_pair(node, "ksize", (2, 2));
                        let strides = attr_pair(node, "strides", window);
                        ops::avg_pool(get(0)?, window, strides, attr_padding(node)?)?
                    }
                    "Mean" => {
                        // Reduce over attr axes (default: spatial dims 1,2).
                        let axes: Vec<isize> = node
                            .attrs
                            .get("axes")
                            .and_then(Value::as_array)
                            .map(|a| a.iter().filter_map(Value::as_i64).map(|d| d as isize).collect())
                            .unwrap_or_else(|| vec![1, 2]);
                        ops::mean(get(0)?, Some(&axes), false)?
                    }
                    other => {
                        return Err(Error::invalid(
                            "reference",
                            format!("unsupported op {other} (node {})", node.name),
                        ))
                    }
                };
                values.insert(node.name.as_str(), out);
            }
            fetches
                .iter()
                .map(|&f| {
                    values.get(f).cloned().ok_or_else(|| {
                        Error::invalid("reference", format!("unknown fetch {f}"))
                    })
                })
                .collect()
        })
    }

    /// `n` deterministic values in `[-1, 1]`, decorrelated by `k`.
    fn wave(n: usize, k: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32 + 1.0) * k).sin()).collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect()
    }

    fn mlp_graph() -> GraphDef {
        let mut g = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("w1", "VariableV2", &[]),
            ("b1", "VariableV2", &[]),
            ("mm1", "MatMul", &["x", "w1"]),
            ("z1", "BiasAdd", &["mm1", "b1"]),
            ("h", "Relu", &["z1"]),
            ("w2", "VariableV2", &[]),
            ("logits", "MatMul", &["h", "w2"]),
            ("probs", "Softmax", &["logits"]),
        ]);
        // Deliberately shuffle to exercise the topological sort.
        g.nodes.reverse();
        g
    }

    fn mlp_weights(e: &Engine) -> HashMap<String, Tensor> {
        let mut w = HashMap::new();
        w.insert("w1".to_string(), e.tensor_2d(&[1.0, -1.0, 0.5, 0.5], 2, 2).unwrap());
        w.insert("b1".to_string(), e.tensor_1d(&[0.1, -0.1]).unwrap());
        w.insert("w2".to_string(), e.tensor_2d(&[1.0, 0.0, 0.0, 1.0], 2, 2).unwrap());
        w
    }

    #[test]
    fn executes_an_mlp_graph() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        let x = e.tensor_2d(&[1.0, 2.0], 1, 2).unwrap();
        let out = model.execute(&[("x", &x)], &["probs"]).unwrap();
        let probs = out[0].to_f32_vec().unwrap();
        assert_eq!(probs.len(), 2);
        assert!((probs[0] + probs[1] - 1.0).abs() < 1e-5);
        // Manual forward: z = [1*1+2*0.5+0.1, -1+1-0.1] = [2.1, -0.1];
        // h = [2.1, 0]; logits = h; softmax(2.1, 0).
        let e0 = (2.1f32).exp();
        let expect = e0 / (e0 + 1.0);
        assert!((probs[0] - expect).abs() < 1e-4);
    }

    #[test]
    fn pruned_training_graph_executes(){
        // End-to-end Sec 5.1 path: prune the training graph, execute it.
        let e = engine();
        let training = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("w", "VariableV2", &[]),
            ("y", "MatMul", &["x", "w"]),
            ("out", "Softmax", &["y"]),
            ("labels", "Placeholder", &[]),
            ("grad", "MatMul", &["x", "labels"]),
            ("train", "ApplyGradientDescent", &["w", "grad"]),
            ("save", "SaveV2", &["w"]),
        ]);
        let pruned = training.prune(&["out"]).unwrap();
        let mut weights = HashMap::new();
        weights.insert("w".to_string(), e.eye(2).unwrap());
        let model = GraphModel::new(&e, pruned, weights).unwrap();
        let x = e.tensor_2d(&[3.0, 1.0], 1, 2).unwrap();
        let out = model.execute(&[("x", &x)], &["out"]).unwrap();
        let probs = out[0].to_f32_vec().unwrap();
        assert!(probs[0] > probs[1]);
    }

    #[test]
    fn conv_graph_with_attrs() {
        let e = engine();
        let mut graph = GraphDef::from_triples(&[
            ("img", "Placeholder", &[]),
            ("filter", "Const", &[]),
            ("conv", "Conv2D", &["img", "filter"]),
            ("act", "Relu6", &["conv"]),
            ("pool", "MaxPool", &["act"]),
        ]);
        graph.nodes[2].attrs = serde_json::json!({ "strides": [1, 1], "padding": "SAME" });
        graph.nodes[4].attrs = serde_json::json!({ "ksize": [2, 2], "padding": "VALID" });
        let mut weights = HashMap::new();
        weights.insert("filter".to_string(), e.tensor_4d(&[1.0], 1, 1, 1, 1).unwrap());
        let model = GraphModel::new(&e, graph, weights).unwrap();
        let img = e.tensor_4d(&[1.0, 2.0, 3.0, 4.0], 1, 2, 2, 1).unwrap();
        let out = model.execute(&[("img", &img)], &["pool"]).unwrap();
        assert_eq!(out[0].to_f32_vec().unwrap(), vec![4.0]);
    }

    #[test]
    fn missing_weight_and_unknown_op_error() {
        let e = engine();
        let graph = GraphDef::from_triples(&[("w", "VariableV2", &[])]);
        assert!(GraphModel::new(&e, graph, HashMap::new()).is_err());

        let graph = GraphDef::from_triples(&[("x", "Placeholder", &[]), ("q", "QuantumOp", &["x"])]);
        let model = GraphModel::new(&e, graph, HashMap::new()).unwrap();
        let x = e.tensor_1d(&[1.0]).unwrap();
        assert!(model.execute(&[("x", &x)], &["q"]).is_err());
    }

    /// The plan's ops for `fetches` at `sig`, as `(name, call)`; a view or
    /// softmax has no call.
    fn planned_ops(
        model: &GraphModel,
        sig: &[(String, Vec<usize>)],
        fetches: &[&str],
    ) -> Vec<(String, Option<KernelCall<'static>>)> {
        let plan = model.plan_for_shapes(sig, fetches).unwrap();
        plan.ops().iter().map(|op| (op.name.clone(), op.call().cloned())).collect()
    }

    /// `(name, call)` of a planned op, for comparing with [`planned_ops`].
    fn op(name: &str, call: Option<KernelCall<'static>>) -> (String, Option<KernelCall<'static>>) {
        (name.to_string(), call)
    }

    fn matmul(epilogue: Epilogue) -> Option<KernelCall<'static>> {
        Some(KernelCall::MatMul { transpose_a: false, transpose_b: false, epilogue })
    }

    fn fused(bias: bool, activation: Option<UnaryOp>) -> Epilogue {
        Epilogue::Fused { bias, activation }
    }

    fn chain(steps: &[FusedStep]) -> Option<KernelCall<'static>> {
        Some(KernelCall::FusedElementwise(steps.to_vec().into()))
    }

    #[test]
    fn fusion_collapses_matmul_bias_relu() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        // Nothing is folded before a plan is built.
        assert_eq!(model.node_count(), 9);
        assert_eq!(model.fused_node_count(), 9);
        // mm1 + z1 + h fold into one fused product named "h".
        let sig = [("x".to_string(), vec![1, 2])];
        let relu = Some(UnaryOp::Relu);
        assert_eq!(
            planned_ops(&model, &sig, &["probs"]),
            vec![
                op("h", matmul(fused(true, relu))),
                op("logits", matmul(Epilogue::None)),
                op("probs", None),
            ]
        );
        assert_eq!(model.fused_node_count(), 7);
    }

    /// Fetching `z1` of `mm1 → z1 → h` skips only the fold through `z1`:
    /// the product still takes its bias and keeps the name `z1`, the
    /// `Relu` runs on its own, and every fetch has the bits of the
    /// reference walk and of the fully fused plan.
    #[test]
    fn fetching_an_intermediate_skips_only_the_fold_through_it() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        let sig = [("x".to_string(), vec![2, 2])];
        assert_eq!(
            planned_ops(&model, &sig, &["probs", "z1"]),
            vec![
                op("z1", matmul(fused(true, None))),
                op("h", Some(KernelCall::Unary(UnaryOp::Relu))),
                op("logits", matmul(Epilogue::None)),
                op("probs", None),
            ]
        );
        let x = e.tensor_2d(&[1.0, 2.0, -0.5, 3.0], 2, 2).unwrap();
        let planned = model.execute(&[("x", &x)], &["probs", "z1"]).unwrap();
        let walked = reference_walk(&model, &[("x", &x)], &["probs", "z1"]).unwrap();
        for (p, w) in planned.iter().zip(&walked) {
            assert_eq!(bits(p), bits(w));
        }
        // z = [1*1+2*0.5+0.1, -1+1-0.1] for the first row.
        let z = planned[1].to_f32_vec().unwrap();
        assert!((z[0] - 2.1).abs() < 1e-5);
        assert!((z[1] + 0.1).abs() < 1e-5);
        let fused = model.execute(&[("x", &x)], &["probs"]).unwrap();
        assert_eq!(bits(&fused[0]), bits(&planned[0]));
    }

    #[test]
    fn elementwise_chain_fuses() {
        let e = engine();
        let graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("s", "Const", &[]),
            ("scaled", "Mul", &["x", "s"]),
            ("shifted", "Add", &["scaled", "s"]),
            ("act", "Relu", &["shifted"]),
        ]);
        let mut weights = HashMap::new();
        weights.insert("s".to_string(), e.tensor_1d(&[2.0]).unwrap());
        let model = GraphModel::new(&e, graph, weights).unwrap();
        // scaled + shifted + act fold into one element-wise chain.
        let steps = [
            FusedStep::Binary(BinaryOp::Mul, 0),
            FusedStep::Binary(BinaryOp::Add, 1),
            FusedStep::Unary(UnaryOp::Relu),
        ];
        let sig = [("x".to_string(), vec![2])];
        assert_eq!(planned_ops(&model, &sig, &["act"]), vec![op("act", chain(&steps))]);
        assert_eq!(model.fused_node_count(), 3);
        let x = e.tensor_1d(&[-3.0, 0.5]).unwrap();
        let out = model.execute(&[("x", &x)], &["act"]).unwrap();
        // relu(x*2 + 2) = [0, 3].
        assert_eq!(out[0].to_f32_vec().unwrap(), vec![0.0, 3.0]);
    }

    #[test]
    fn multi_consumer_intermediate_blocks_fusion() {
        let e = engine();
        // z feeds both the activation and a second add: not fusable.
        let graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("w", "VariableV2", &[]),
            ("b", "VariableV2", &[]),
            ("mm", "MatMul", &["x", "w"]),
            ("z", "BiasAdd", &["mm", "b"]),
            ("h", "Relu", &["z"]),
            ("sum", "Add", &["h", "z"]),
        ]);
        let mut weights = HashMap::new();
        weights.insert("w".to_string(), e.eye(2).unwrap());
        weights.insert("b".to_string(), e.tensor_1d(&[1.0, -1.0]).unwrap());
        let model = GraphModel::new(&e, graph, weights).unwrap();
        // mm's sole consumer z folds in and names the product; z has two
        // consumers, so h starts a chain of its own that sum continues.
        let steps = [FusedStep::Unary(UnaryOp::Relu), FusedStep::Binary(BinaryOp::Add, 0)];
        assert_eq!(
            planned_ops(&model, &[("x".to_string(), vec![1, 2])], &["sum"]),
            vec![op("z", matmul(fused(true, None))), op("sum", chain(&steps))]
        );
        let x = e.tensor_2d(&[3.0, 4.0], 1, 2).unwrap();
        let out = model.execute(&[("x", &x)], &["sum"]).unwrap();
        // z = [4, 3]; h = [4, 3]; sum = [8, 6].
        assert_eq!(out[0].to_f32_vec().unwrap(), vec![8.0, 6.0]);
    }

    /// A binary whose second operand is computed after the op that produced
    /// its first would read that operand before it exists if it folded into
    /// that op: it stays an op of its own. The node order puts `a` before
    /// `b` in the topological order.
    #[test]
    fn a_binary_over_a_later_operand_does_not_fold_back() {
        let e = engine();
        let graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("b", "Sigmoid", &["x"]),
            ("a", "Tanh", &["x"]),
            ("s", "Add", &["a", "b"]),
        ]);
        let model = GraphModel::new(&e, graph, HashMap::new()).unwrap();
        let unary = |u| Some(KernelCall::Unary(u));
        assert_eq!(
            planned_ops(&model, &[("x".to_string(), vec![2, 3])], &["s"]),
            vec![
                op("a", unary(UnaryOp::Tanh)),
                op("b", unary(UnaryOp::Sigmoid)),
                op("s", Some(KernelCall::Binary(BinaryOp::Add))),
            ]
        );
        let x = e.tensor(wave(6, 0.41), Shape::new(vec![2, 3])).unwrap();
        let planned = model.execute(&[("x", &x)], &["s"]).unwrap();
        let walked = reference_walk(&model, &[("x", &x)], &["s"]).unwrap();
        assert_eq!(bits(&planned[0]), bits(&walked[0]));
    }

    /// A bias add of a rank-1 `[1]` weight after a product is a valid
    /// broadcast but not one bias value per output channel, which the
    /// fused product kernels take: the planner leaves that add unfolded
    /// (it and the activation form an element-wise chain), and each graph
    /// plans, runs and matches the reference walk on bits.
    #[test]
    fn a_bias_of_one_value_stays_an_add() {
        let e = engine();
        let w = |dims: &[usize], k: f32| {
            e.tensor(wave(dims.iter().product(), k), Shape::new(dims.to_vec())).unwrap()
        };
        let conv = json!({ "strides": [1, 1], "padding": "SAME" });
        let cases = [
            ("MatMul", w(&[3, 4], 0.37), vec![2, 3], Value::Null),
            ("Conv2D", w(&[3, 3, 2, 3], 0.37), vec![1, 4, 4, 2], conv.clone()),
            ("DepthwiseConv2dNative", w(&[3, 3, 2, 1], 0.37), vec![1, 4, 4, 2], conv),
        ];
        for (product, filter, input, attrs) in cases {
            let mut graph = GraphDef::from_triples(&[
                ("x", "Placeholder", &[]),
                ("f", "Const", &[]),
                ("b", "Const", &[]),
                ("p", product, &["x", "f"]),
                ("z", "Add", &["p", "b"]),
                ("act", "Relu", &["z"]),
            ]);
            graph.nodes[3].attrs = attrs;
            let weights = HashMap::from([
                ("f".to_string(), filter),
                ("b".to_string(), e.tensor_1d(&[-0.25]).unwrap()),
            ]);
            let model = GraphModel::new(&e, graph, weights).unwrap();
            let ops = planned_ops(&model, &[("x".to_string(), input.clone())], &["act"]);
            let steps = [FusedStep::Binary(BinaryOp::Add, 0), FusedStep::Unary(UnaryOp::Relu)];
            assert_eq!(ops.len(), 2, "{product}");
            assert_eq!(ops[0].1.as_ref().and_then(KernelCall::epilogue), Some(Epilogue::None));
            assert_eq!(ops[1], op("act", chain(&steps)), "{product}");
            let x = e.tensor(wave(input.iter().product(), 0.13), Shape::new(input)).unwrap();
            let planned = model.execute(&[("x", &x)], &["act"]).unwrap();
            let walked = reference_walk(&model, &[("x", &x)], &["act"]).unwrap();
            assert_eq!(bits(&planned[0]), bits(&walked[0]), "{product}");
        }
    }

    #[test]
    fn plan_matches_reference_walk_bitwise() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        let x = e.tensor_2d(&[1.0, 2.0, -0.5, 3.0], 2, 2).unwrap();
        // The fused plan, and the plan that fetches an intermediate and so
        // skips the fold through it, against the walk of the graph.
        for fetches in [&["probs"][..], &["probs", "z1"][..]] {
            let planned = model.execute(&[("x", &x)], fetches).unwrap();
            let walked = reference_walk(&model, &[("x", &x)], fetches).unwrap();
            for (p, w) in planned.iter().zip(&walked) {
                assert_eq!(bits(p), bits(w), "fetches {fetches:?}");
            }
        }
        assert_eq!(model.plan_stats().fallbacks, 0);
    }

    #[test]
    fn plan_cache_keyed_by_feed_shape() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        let x1 = e.tensor_2d(&[1.0, 2.0], 1, 2).unwrap();
        model.execute(&[("x", &x1)], &["probs"]).unwrap();
        model.execute(&[("x", &x1)], &["probs"]).unwrap();
        let stats = model.plan_stats();
        assert_eq!(stats.misses, 1, "one compile for the cold signature");
        assert_eq!(stats.hits, 1, "second call reuses the cached plan");
        // A new batch size is a new signature → a second plan.
        let x2 = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        model.execute(&[("x", &x2)], &["probs"]).unwrap();
        let stats = model.plan_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn plan_references_weights_in_place() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        let plan = model
            .plan_for_shapes(&[("x".to_string(), vec![1, 2])], &["probs"])
            .unwrap();
        // A fused product, a MatMul and a Softmax. Weight and placeholder
        // nodes become in-place references, not ops.
        assert_eq!(plan.op_count(), 3);
        assert!(plan.ops()[0].call().is_some_and(KernelCall::is_fused));
        assert!(plan.ops().iter().all(|op| !op.is_alias()));
    }

    #[test]
    fn plan_prunes_to_fetch_ancestors() {
        let e = engine();
        // "side" does not feed "out": the plan for "out" must skip it.
        let graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("w", "VariableV2", &[]),
            ("out", "MatMul", &["x", "w"]),
            ("side", "Softmax", &["out"]),
        ]);
        let mut weights = HashMap::new();
        weights.insert("w".to_string(), e.eye(2).unwrap());
        let model = GraphModel::new(&e, graph, weights).unwrap();
        let plan = model
            .plan_for_shapes(&[("x".to_string(), vec![1, 2])], &["out"])
            .unwrap();
        assert_eq!(plan.op_count(), 1, "softmax consumer pruned");
    }

    #[test]
    fn plan_eager_disposal_bounds_peak_bytes() {
        let e = engine();
        // A matmul chain (does not fuse): scope-end disposal would hold all
        // six intermediates; the plan keeps at most two.
        let graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("w", "VariableV2", &[]),
            ("m1", "MatMul", &["x", "w"]),
            ("m2", "MatMul", &["m1", "w"]),
            ("m3", "MatMul", &["m2", "w"]),
            ("m4", "MatMul", &["m3", "w"]),
            ("m5", "MatMul", &["m4", "w"]),
            ("m6", "MatMul", &["m5", "w"]),
        ]);
        let mut weights = HashMap::new();
        weights.insert("w".to_string(), e.eye(16).unwrap());
        let model = GraphModel::new(&e, graph, weights).unwrap();
        let x = e.tensor(vec![1.0; 16], Shape::new(vec![1, 16])).unwrap();
        let row = 16 * 4; // one [1, 16] f32 intermediate

        let plan = model
            .plan_for_shapes(&[("x".to_string(), vec![1, 16])], &["m6"])
            .unwrap();
        assert_eq!(plan.predicted_peak_bytes(), 2 * row);

        let baseline = e.memory().num_bytes;
        e.reset_peak_bytes();
        let out = model.execute(&[("x", &x)], &["m6"]).unwrap();
        let planned_peak = e.peak_bytes() - baseline;
        out[0].dispose();
        assert_eq!(planned_peak, plan.predicted_peak_bytes());
    }

    #[test]
    fn reshape_wildcard_inferred_from_element_count() {
        let e = engine();
        let mut graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("flat", "Reshape", &["x"]),
        ]);
        graph.nodes[1].attrs = serde_json::json!({ "shape": [0, -1] });
        let model = GraphModel::new(&e, graph, HashMap::new()).unwrap();
        let x = e.tensor(vec![1.0; 24], Shape::new(vec![2, 3, 4])).unwrap();
        let planned = model.execute(&[("x", &x)], &["flat"]).unwrap();
        assert_eq!(planned[0].shape_ref().dims(), &[2, 12]);
        let walked = reference_walk(&model, &[("x", &x)], &["flat"]).unwrap();
        assert_eq!(walked[0].shape_ref().dims(), &[2, 12]);
    }

    #[test]
    fn reshape_multiple_wildcards_error() {
        let e = engine();
        let mut graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("bad", "Reshape", &["x"]),
        ]);
        graph.nodes[1].attrs = serde_json::json!({ "shape": [-1, -1] });
        let model = GraphModel::new(&e, graph.clone(), HashMap::new()).unwrap();
        let x = e.tensor(vec![1.0; 4], Shape::new(vec![2, 2])).unwrap();
        assert!(model.execute(&[("x", &x)], &["bad"]).is_err());
        assert!(reference_walk(&model, &[("x", &x)], &["bad"]).is_err());
        // A leading 0 keeps the batch dim, which a scalar does not have: no
        // panic at load (a declared placeholder shape compiles the plan
        // there), and an error naming the node on execute.
        graph.nodes[0].attrs = serde_json::json!({ "shape": [] });
        graph.nodes[1].attrs = serde_json::json!({ "shape": [0, 1] });
        let model = GraphModel::new(&e, graph, HashMap::new()).unwrap();
        let err = model.execute(&[("x", &e.scalar(1.0).unwrap())], &["bad"]).unwrap_err();
        assert!(err.to_string().contains("bad"), "{err}");
    }

    #[test]
    fn fetched_weight_is_an_alias_not_the_resident_handle() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        let x = e.tensor_2d(&[1.0, 2.0], 1, 2).unwrap();
        let out = model.execute(&[("x", &x)], &["w1", "probs"]).unwrap();
        // Disposing the fetched weight must not destroy the model's
        // resident copy.
        out[0].dispose();
        out[1].dispose();
        let again = model.execute(&[("x", &x)], &["probs"]).unwrap();
        assert_eq!(again[0].to_f32_vec().unwrap().len(), 2);
        again[0].dispose();
    }

    #[test]
    fn load_time_precompile_from_placeholder_shape_attrs() {
        let e = engine();
        let mut graph = mlp_graph();
        // mlp_graph reverses its nodes, so find the placeholder by name.
        let x_node =
            graph.nodes.iter_mut().find(|n| n.name == "x").expect("placeholder present");
        x_node.attrs = serde_json::json!({ "shape": [1, 2] });
        let model = GraphModel::new(&e, graph, mlp_weights(&e)).unwrap();
        let stats = model.plan_stats();
        assert_eq!(stats.misses, 1, "plan compiled at load");
        assert_eq!(stats.entries, 1);
        // First request at the declared shape hits the warm plan.
        let x = e.tensor_2d(&[1.0, 2.0], 1, 2).unwrap();
        model.execute(&[("x", &x)], &["probs"]).unwrap();
        assert_eq!(model.plan_stats().hits, 1);
    }

    #[test]
    fn cycle_detection() {
        let e = engine();
        let graph = GraphDef::from_triples(&[("a", "Relu", &["b"]), ("b", "Relu", &["a"])]);
        assert!(GraphModel::new(&e, graph, HashMap::new()).is_err());
    }

    #[test]
    fn missing_feed_errors() {
        let e = engine();
        let graph = GraphDef::from_triples(&[("x", "Placeholder", &[])]);
        let model = GraphModel::new(&e, graph, HashMap::new()).unwrap();
        assert!(model.execute(&[], &["x"]).is_err());
    }
    /// A node with too few inputs is an `Err` from the planner that names
    /// it — never an index out of bounds in the planner's fusion or the
    /// executor.
    #[test]
    fn malformed_nodes_are_errors_not_panics() {
        let e = engine();
        let x = e.tensor_2d(&[1.0, 2.0], 1, 2).unwrap();
        // A zero-input chain head: fusion must not index input 0.
        let model =
            GraphModel::new(&e, GraphDef::from_triples(&[("a", "Relu", &[])]), HashMap::new())
                .unwrap();
        let err = model.execute(&[], &["a"]).unwrap_err();
        assert!(err.to_string().contains("a is missing input 0"), "{err}");
        // A binary kernel op with one input: loads, then fails to plan.
        let graph =
            GraphDef::from_triples(&[("x", "Placeholder", &[]), ("m", "MatMul", &["x"])]);
        let model = GraphModel::new(&e, graph, HashMap::new()).unwrap();
        let err = model.execute(&[("x", &x)], &["m"]).unwrap_err();
        assert!(err.to_string().contains("m is missing input 1"), "{err}");
        assert!(model.execute_pipelined(&[("x", &x)], &["m"]).is_err());
        // An element-wise binary with one input after a fusable unary: it
        // must not join the element-wise chain.
        let graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("r", "Relu", &["x"]),
            ("t", "Tanh", &["r"]),
            ("s", "Add", &["t"]),
        ]);
        let model = GraphModel::new(&e, graph, HashMap::new()).unwrap();
        let err = model.execute(&[("x", &x)], &["s"]).unwrap_err();
        assert!(err.to_string().contains("s is missing input 1"), "{err}");
        // The well-formed part of the same graph still runs, fused.
        let steps = [FusedStep::Unary(UnaryOp::Relu), FusedStep::Unary(UnaryOp::Tanh)];
        let sig = [("x".to_string(), vec![1, 2])];
        assert_eq!(planned_ops(&model, &sig, &["t"]), vec![op("t", chain(&steps))]);
        let out = model.execute(&[("x", &x)], &["t"]).unwrap();
        assert_eq!(bits(&out[0]), bits(&ops::tanh(&ops::relu(&x).unwrap()).unwrap()));
        assert_eq!(model.plan_stats().fallbacks, 0);
    }

    /// One graph holding every op `plan::lower_node` accepts, so the plan's
    /// table and the reference walk are compared arm by arm: every node of
    /// the unfused plan (fetching every value leaves nothing to fold), then
    /// every op of the fused plan (a fused conv, depthwise conv and matmul,
    /// and an element-wise chain), bitwise against the walk — with fusion
    /// on, and off, where each fused call is composed from plain calls.
    #[test]
    fn every_lowered_op_matches_the_reference_walk() {
        let e = engine();
        let mut graph = GraphDef::from_triples(&[
            ("img", "Placeholder", &[]),
            ("cf", "Const", &[]),
            ("cb", "Const", &[]),
            ("conv", "Conv2D", &["img", "cf"]),
            ("conv_b", "BiasAdd", &["conv", "cb"]),
            ("conv_r", "Relu6", &["conv_b"]),
            ("mp", "MaxPool", &["conv_r"]),
            ("df", "Const", &[]),
            ("db", "Const", &[]),
            ("dw", "DepthwiseConv2dNative", &["mp", "df"]),
            ("dw_b", "Add", &["dw", "db"]),
            ("dw_r", "Relu", &["dw_b"]),
            ("ap", "AvgPool", &["dw_r"]),
            ("id", "Identity", &["ap"]),
            ("gm", "Mean", &["id"]),
            ("w", "VariableV2", &[]),
            ("b", "VariableV2", &[]),
            ("mm", "MatMul", &["gm", "w"]),
            ("mm_b", "AddV2", &["mm", "b"]),
            ("mm_t", "Tanh", &["mm_b"]),
            ("s", "Const", &[]),
            ("e1", "Sub", &["mm_t", "s"]),
            ("e2", "Mul", &["e1", "s"]),
            ("e3", "RealDiv", &["e2", "s"]),
            ("e4", "Div", &["e3", "s"]),
            ("e5", "Sigmoid", &["e4"]),
            ("rs", "Reshape", &["e5"]),
            ("w2", "Const", &[]),
            ("mm2", "MatMul", &["rs", "w2"]),
            ("probs", "Softmax", &["mm2"]),
        ]);
        let attrs = [
            ("conv", json!({ "strides": [1, 1], "padding": "SAME" })),
            ("mp", json!({ "ksize": [2, 2], "padding": "VALID" })),
            ("dw", json!({ "strides": [1, 1], "padding": "SAME" })),
            ("ap", json!({ "ksize": [2, 2], "strides": [1, 1], "padding": "VALID" })),
            ("gm", json!({ "axes": [1, 2] })),
            ("rs", json!({ "shape": [0, -1] })),
        ];
        for (name, value) in attrs {
            graph.nodes.iter_mut().find(|n| n.name == name).unwrap().attrs = value;
        }
        let weight = |name: &str, dims: &[usize], k: f32| {
            let t = e.tensor(wave(dims.iter().product(), k), Shape::new(dims.to_vec())).unwrap();
            (name.to_string(), t)
        };
        let weights = HashMap::from([
            weight("cf", &[3, 3, 2, 4], 0.37),
            weight("cb", &[4], 0.91),
            weight("df", &[3, 3, 4, 1], 0.53),
            weight("db", &[4], 1.3),
            weight("w", &[4, 3], 0.71),
            weight("b", &[3], 1.7),
            ("s".to_string(), e.tensor_1d(&[0.5, -1.5, 2.0]).unwrap()),
            weight("w2", &[3, 3], 0.29),
        ]);
        let model = GraphModel::new(&e, graph, weights).unwrap();

        // The graph is the table: every name `lower_node` matches appears.
        const LOWERED: [&str; 20] = [
            "MatMul", "Add", "AddV2", "BiasAdd", "Sub", "Mul", "RealDiv", "Div", "Relu", "Relu6",
            "Sigmoid", "Tanh", "Softmax", "Identity", "Reshape", "Conv2D",
            "DepthwiseConv2dNative", "MaxPool", "AvgPool", "Mean",
        ];
        for op in LOWERED {
            assert!(model.graph.nodes.iter().any(|n| n.op == op), "the graph has no {op} node");
        }

        let img = e.tensor(wave(6 * 6 * 2, 0.13), Shape::new(vec![1, 6, 6, 2])).unwrap();
        let feeds = [("img", &img)];
        let sig = [("img".to_string(), vec![1, 6, 6, 2])];
        let every_value: Vec<String> = model
            .graph
            .nodes
            .iter()
            .filter(|n| !matches!(n.op.as_str(), "Placeholder" | "Const" | "VariableV2"))
            .map(|n| n.name.clone())
            .collect();
        let fused_plan = model.plan_for_shapes(&sig, &["probs"]).unwrap();
        let fused_ops: Vec<String> = fused_plan.ops().iter().map(|op| op.name.clone()).collect();
        let calls: Vec<&str> =
            fused_plan.ops().iter().filter_map(|op| op.call()).map(KernelCall::name).collect();
        for name in ["FusedConv2D", "FusedDepthwiseConv2D", "FusedMatMul", "FusedElementwise"] {
            assert!(calls.contains(&name), "the fused plan has no {name} call: {calls:?}");
        }
        for (names, fused) in [(&every_value, false), (&fused_ops, true)] {
            let fetches: Vec<&str> = names.iter().map(String::as_str).collect();
            let plan = model.plan_for_shapes(&sig, &fetches).unwrap();
            assert_eq!(plan.op_count(), fetches.len(), "fused plan: {fused}");
            for fusion in [true, false] {
                e.set_fusion_enabled(fusion);
                let planned = model.execute(&feeds, &fetches).unwrap();
                let walked = reference_walk(&model, &feeds, &fetches).unwrap();
                for ((name, p), w) in fetches.iter().zip(&planned).zip(&walked) {
                    let case = format!("{name} (fused plan: {fused}, fusion: {fusion})");
                    assert_eq!(p.shape_ref(), w.shape_ref(), "{case}");
                    assert_eq!(bits(p), bits(w), "{case}");
                }
            }
        }
        assert_eq!(model.fused_node_count(), model.node_count() - 10);
    }

    /// `Engine::grads` through `model.execute`, against the same network
    /// written as eager ops: bitwise-equal gradients w.r.t. the feed and a
    /// weight, a plan hit (the taped run is a plan run), nothing leaked once
    /// the gradients are disposed, and eager disposal back the moment the
    /// tape is gone. Returns the untaped run's `(measured, predicted)` peak
    /// bytes.
    fn assert_grads_match_eager(
        e: &Engine,
        model: &GraphModel,
        feed: (&str, &Tensor),
        weight: &Tensor,
        fetch: &str,
        eager: &dyn Fn() -> Result<Tensor>,
    ) -> (usize, usize) {
        let loss = |y: &Tensor| ops::sum(&ops::square(y)?, None, false);
        let sig = [(feed.0.to_string(), feed.1.shape_ref().dims().to_vec())];
        let plan = model.plan_for_shapes(&sig, &[fetch]).unwrap();
        assert!(plan.ops().iter().any(|op| op.call().is_some_and(KernelCall::is_fused)));
        let untaped_peak = || {
            e.reset_peak_bytes();
            let level = e.memory().num_bytes;
            let out = model.execute(&[feed], &[fetch]).unwrap();
            let peak = e.peak_bytes() - level;
            out[0].dispose();
            peak
        };
        let peak_before = untaped_peak();
        let before = model.plan_stats();
        let baseline = e.memory();

        let want = e.grads(&[feed.1, weight], || loss(&eager()?)).unwrap();
        let got = e
            .grads(&[feed.1, weight], || loss(&model.execute(&[feed], &[fetch])?[0]))
            .unwrap();
        for ((g, w), wrt) in got.iter().zip(&want).zip(["feed", "weight"]) {
            assert!(bits(g).iter().any(|&b| b != 0), "d/d{wrt} is not identically zero");
            assert_eq!(bits(g), bits(w), "d loss / d {wrt}");
        }
        let after = model.plan_stats();
        assert_eq!(after.hits, before.hits + 1, "the taped run hit the cached plan");
        assert_eq!((after.misses, after.fallbacks), (before.misses, 0));

        for t in got.iter().chain(&want) {
            t.dispose();
        }
        let end = e.memory();
        assert_eq!(
            (end.num_tensors, end.num_bytes),
            (baseline.num_tensors, baseline.num_bytes),
            "the taped run's intermediates are released with the tape"
        );

        assert_eq!(untaped_peak(), peak_before, "untaped runs dispose eagerly again");
        assert_eq!(e.memory().num_tensors, baseline.num_tensors);
        (peak_before, plan.predicted_peak_bytes())
    }

    #[test]
    fn gradients_flow_through_the_mlp_plan() {
        let e = engine();
        let weights = mlp_weights(&e);
        let (w1, b1, w2) = (weights["w1"].clone(), weights["b1"].clone(), weights["w2"].clone());
        let model = GraphModel::new(&e, mlp_graph(), weights).unwrap();
        let x = e.tensor_2d(&[1.0, 2.0, -0.5, 3.0], 2, 2).unwrap();
        let (peak, predicted) = assert_grads_match_eager(&e, &model, ("x", &x), &w1, "probs", &|| {
            let h = ops::relu(&ops::add(&ops::matmul(&x, &w1, false, false)?, &b1)?)?;
            ops::softmax(&ops::matmul(&h, &w2, false, false)?)
        });
        // Softmax is a chain of kernels whose temporaries the liveness
        // model does not see; they are above the prediction, taped or not.
        assert!(peak >= predicted);
    }

    #[test]
    fn gradients_flow_through_a_conv_plan() {
        let e = engine();
        let mut graph = GraphDef::from_triples(&[
            ("img", "Placeholder", &[]),
            ("f", "Const", &[]),
            ("b", "Const", &[]),
            ("df", "Const", &[]),
            ("conv", "Conv2D", &["img", "f"]),
            ("conv_b", "BiasAdd", &["conv", "b"]),
            ("act", "Relu6", &["conv_b"]),
            ("dw", "DepthwiseConv2dNative", &["act", "df"]),
            ("pool", "Mean", &["dw"]),
        ]);
        graph.nodes[4].attrs = json!({ "strides": [2, 2], "padding": "SAME" });
        graph.nodes[7].attrs = json!({ "strides": [1, 1], "padding": "VALID" });
        let f = e.tensor(wave(3 * 3 * 2 * 4, 0.37), Shape::new(vec![3, 3, 2, 4])).unwrap();
        let b = e.tensor_1d(&wave(4, 0.91)).unwrap();
        let df = e.tensor(wave(3 * 3 * 4, 0.53), Shape::new(vec![3, 3, 4, 1])).unwrap();
        let weights = HashMap::from([
            ("f".to_string(), f.clone()),
            ("b".to_string(), b.clone()),
            ("df".to_string(), df.clone()),
        ]);
        let model = GraphModel::new(&e, graph, weights).unwrap();
        let ops = planned_ops(&model, &[("img".to_string(), vec![2, 8, 8, 2])], &["pool"]);
        let conv = ops[0].1.as_ref().filter(|c| matches!(c, KernelCall::Conv2d { .. }));
        assert_eq!(ops[0].0, "act");
        assert_eq!(conv.and_then(KernelCall::epilogue), Some(fused(true, Some(UnaryOp::Relu6))));
        let img = e.tensor(wave(2 * 8 * 8 * 2, 0.13), Shape::new(vec![2, 8, 8, 2])).unwrap();
        let (peak, predicted) = assert_grads_match_eager(&e, &model, ("img", &img), &f, "pool", &|| {
            let conv = ops::conv2d(&img, &f, (2, 2), Padding::Same, (1, 1))?;
            let act = ops::relu6(&ops::add(&conv, &b)?)?;
            let dw = ops::depthwise_conv2d(&act, &df, (1, 1), Padding::Valid, (1, 1))?;
            ops::mean(&dw, Some(&[1, 2]), false)
        });
        assert_eq!(peak, predicted, "single-kernel ops: the measured peak is the prediction");
    }
}
