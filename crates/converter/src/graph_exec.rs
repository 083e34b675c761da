//! A GraphDef executor: runs (pruned) TensorFlow-style inference graphs on
//! the eager engine — the "load and execute pre-trained TensorFlow
//! SavedModels" path of paper Sec 5.1.
//!
//! Supports the op set the converter emits for the models this repo
//! reproduces (dense/conv image classifiers): placeholders, constants,
//! matmul, bias/arithmetic, activations, conv/pool, reshape, softmax.
//!
//! On load the graph is run through a pattern-matching fusion pass:
//! `MatMul`/`Conv2D`/`DepthwiseConv2dNative` followed by a single-consumer
//! bias add and activation collapse into one `_Fused*` node, and runs of
//! adjacent single-consumer element-wise ops collapse into one
//! `_FusedElementwise` chain — each dispatching a single fused device
//! kernel at execution time. Fetching a node that fusion swallowed plans
//! the unfused graph instead.
//!
//! Every run is a [`Plan`] run: `execute` resolves the feed-shape
//! signature, takes the cached plan (compiling it on first use) and runs
//! it. A graph the planner rejects is an `Err` to the caller.

use crate::plan::{PendingFetches, Plan};
use crate::prune::{GraphDef, NodeDef};
use parking_lot::Mutex;
use serde_json::{json, Value};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use webml_core::backend::{BinaryOp, UnaryOp};
use webml_core::conv_util::Padding;
use webml_core::{Engine, Error, FusedStep, Result, Shape, Tensor};

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
    /// The graph after the kernel-fusion pass (used unless a fetch names a
    /// node that fusion eliminated).
    fused: GraphDef,
    /// Values for `Const`/`VariableV2` nodes, by node name.
    weights: HashMap<String, Tensor>,
    order: Vec<usize>,
    fused_order: Vec<usize>,
    /// Names surviving fusion, precomputed once — the per-call
    /// "can the fused graph serve these fetches?" check is O(fetches)
    /// instead of O(fetches × nodes).
    fused_names: HashSet<String>,
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

/// Decode the `steps` attr of a `_FusedElementwise` node.
pub(crate) fn parse_steps(node: &NodeDef) -> Result<Vec<FusedStep>> {
    let malformed = || Error::Serialization {
        message: format!("_FusedElementwise {} has a malformed steps attr", node.name),
    };
    let arr = node.attrs.get("steps").and_then(Value::as_array).ok_or_else(malformed)?;
    arr.iter()
        .map(|s| {
            let parts = s.as_array().ok_or_else(malformed)?;
            let name = parts.first().and_then(Value::as_str).ok_or_else(malformed)?;
            if let Some(u) = fusable_unary(name) {
                Ok(FusedStep::Unary(u))
            } else if let Some(b) = fusable_binary(name) {
                let idx = parts.get(1).and_then(Value::as_u64).ok_or_else(malformed)? as usize;
                Ok(FusedStep::Binary(b, idx))
            } else {
                Err(malformed())
            }
        })
        .collect()
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

fn unary_name(op: UnaryOp) -> &'static str {
    match op {
        UnaryOp::Relu => "Relu",
        UnaryOp::Relu6 => "Relu6",
        UnaryOp::Sigmoid => "Sigmoid",
        UnaryOp::Tanh => "Tanh",
        _ => "Relu",
    }
}

fn binary_name(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Add => "Add",
        BinaryOp::Sub => "Sub",
        BinaryOp::Mul => "Mul",
        BinaryOp::Div => "Div",
        _ => "Add",
    }
}

/// The kernel-fusion pass: collapse matmul/conv → bias-add → activation
/// triples into one `_Fused*` node, then collapse remaining runs of
/// single-consumer element-wise ops into `_FusedElementwise` chains. Fused
/// nodes take the NAME of the last node they replace, so downstream input
/// references stay valid; swallowed intermediates disappear from the graph.
fn fuse_graph(graph: &GraphDef, weights: &HashMap<String, Tensor>) -> GraphDef {
    let index: HashMap<&str, usize> =
        graph.nodes.iter().enumerate().map(|(i, n)| (n.name.as_str(), i)).collect();
    // Consumer lists; nodes with control inputs never participate in fusion.
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
    let mut has_control = vec![false; graph.nodes.len()];
    for (i, node) in graph.nodes.iter().enumerate() {
        for input in &node.inputs {
            if input.starts_with('^') {
                has_control[i] = true;
            }
            if let Some(&j) = index.get(input.trim_start_matches('^')) {
                consumers[j].push(i);
            }
        }
    }
    let sole_consumer = |i: usize| -> Option<usize> {
        match consumers[i].as_slice() {
            [c] if !has_control[*c] => Some(*c),
            _ => None,
        }
    };
    // Whether a node is a rank-1 weight (a valid fused-kernel bias).
    let is_bias = |name: &str| weights.get(name).map(|t| t.rank() == 1).unwrap_or(false);

    let mut swallowed: HashSet<usize> = HashSet::new();
    let mut replacement: HashMap<usize, NodeDef> = HashMap::new();

    // Pass A: matmul/conv epilogues.
    for (i, node) in graph.nodes.iter().enumerate() {
        let fused_op = match node.op.as_str() {
            "MatMul" => "_FusedMatMul",
            "Conv2D" => "_FusedConv2D",
            "DepthwiseConv2dNative" => "_FusedDepthwiseConv2dNative",
            _ => continue,
        };
        if has_control[i] {
            continue;
        }
        // Optional bias add: sole consumer, this node as lhs, rank-1 weight
        // as rhs (the fused kernels require a `[channels]` bias).
        let mut last = i;
        let mut bias: Option<&str> = None;
        if let Some(c) = sole_consumer(i) {
            let cn = &graph.nodes[c];
            if matches!(cn.op.as_str(), "BiasAdd" | "Add" | "AddV2")
                && cn.inputs.len() == 2
                && cn.inputs[0] == node.name
                && is_bias(&cn.inputs[1])
            {
                bias = Some(cn.inputs[1].as_str());
                last = c;
            }
        }
        // Optional activation on whatever the chain currently ends at.
        let mut activation: Option<&str> = None;
        if let Some(a) = sole_consumer(last) {
            let an = &graph.nodes[a];
            if fusable_unary(&an.op).is_some() && an.inputs[0] == graph.nodes[last].name {
                activation = Some(an.op.as_str());
                last = a;
            }
        }
        if last == i {
            continue; // Nothing to fuse into this kernel.
        }
        let mut inputs = node.inputs.clone();
        if let Some(b) = bias {
            inputs.push(b.to_string());
        }
        let mut attrs = if node.attrs.is_object() { node.attrs.clone() } else { json!({}) };
        if let Value::Object(entries) = &mut attrs {
            entries.push(("has_bias".to_string(), json!(bias.is_some())));
            if let Some(act) = activation {
                entries.push(("activation".to_string(), json!(act)));
            }
        }
        // Mark every member between i and last as swallowed except `last`,
        // which carries the fused node (so downstream names resolve).
        let mut member = i;
        while member != last {
            swallowed.insert(member);
            member = sole_consumer(member).expect("chain member has sole consumer");
        }
        replacement.insert(
            last,
            NodeDef { name: graph.nodes[last].name.clone(), op: fused_op.to_string(), inputs, attrs },
        );
    }

    // Pass B: element-wise chains over nodes not already part of a fusion.
    // A chain member has exactly the data inputs its op takes: a node with
    // none (or a binary with one) is malformed and stays as it is, so the
    // planner can name it in an error.
    let chain_step = |n: &NodeDef| match n.inputs.len() {
        1 => fusable_unary(&n.op).is_some(),
        2 => fusable_binary(&n.op).is_some(),
        _ => false,
    };
    let in_fusion =
        |i: usize, swallowed: &HashSet<usize>, replacement: &HashMap<usize, NodeDef>| {
            swallowed.contains(&i) || replacement.contains_key(&i)
        };
    for (i, node) in graph.nodes.iter().enumerate() {
        if in_fusion(i, &swallowed, &replacement) || has_control[i] {
            continue;
        }
        if !chain_step(node) {
            continue;
        }
        // Only start a chain at its head: the producer of input 0 must not
        // itself be a chain candidate about to swallow this node.
        if let Some(&p) = index.get(node.inputs[0].trim_start_matches('^')) {
            let pn = &graph.nodes[p];
            let p_fusable = !in_fusion(p, &swallowed, &replacement)
                && !has_control[p]
                && chain_step(pn)
                && sole_consumer(p) == Some(i);
            if p_fusable {
                continue;
            }
        }
        // Greedily extend the chain downstream.
        let mut members = vec![i];
        let mut last = i;
        while let Some(c) = sole_consumer(last) {
            if in_fusion(c, &swallowed, &replacement) || has_control[c] {
                break;
            }
            let cn = &graph.nodes[c];
            let ok = chain_step(cn) && cn.inputs[0] == graph.nodes[last].name;
            if !ok {
                break;
            }
            members.push(c);
            last = c;
        }
        if members.len() < 2 {
            continue;
        }
        let mut inputs = vec![node.inputs[0].clone()];
        let mut steps = Vec::new();
        for &m in &members {
            let mn = &graph.nodes[m];
            if let Some(u) = fusable_unary(&mn.op) {
                steps.push(json!([unary_name(u)]));
            } else {
                let b = fusable_binary(&mn.op).expect("checked fusable");
                inputs.push(mn.inputs[1].clone());
                steps.push(json!([binary_name(b), inputs.len() - 2]));
            }
        }
        for &m in &members {
            if m != last {
                swallowed.insert(m);
            }
        }
        replacement.insert(
            last,
            NodeDef {
                name: graph.nodes[last].name.clone(),
                op: "_FusedElementwise".to_string(),
                inputs,
                attrs: json!({ "steps": steps }),
            },
        );
    }

    GraphDef {
        nodes: graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !swallowed.contains(i))
            .map(|(i, n)| replacement.remove(&i).unwrap_or_else(|| n.clone()))
            .collect(),
    }
}

impl GraphModel {
    /// Build an executable model from a graph and its weight values. The
    /// graph is additionally run through the kernel-fusion pass; execution
    /// uses the fused graph whenever the requested fetches survive fusion.
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
        let fused = fuse_graph(&graph, &weights);
        let fused_order = toposort(&fused)?;
        let fused_names: HashSet<String> =
            fused.nodes.iter().map(|n| n.name.clone()).collect();
        let model = GraphModel {
            engine: engine.clone(),
            graph,
            fused,
            weights,
            order,
            fused_order,
            fused_names,
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
        let use_fused = fetches.iter().all(|f| self.fused_names.contains(*f));
        let (graph, order) = if use_fused {
            (&self.fused, &self.fused_order)
        } else {
            (&self.graph, &self.order)
        };
        let plan =
            Arc::new(Plan::build(graph, order, &self.weights, &sig, fetches, use_fused)?);
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

    /// Node count of the fused graph (< the original when patterns matched).
    pub fn fused_node_count(&self) -> usize {
        self.fused.nodes.len()
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
    /// signature (building and caching it on first use) over the fused
    /// graph, or over the unfused one when a fetch names a node the fusion
    /// pass eliminated. Each intermediate is disposed at its final
    /// consumer — except while a gradient tape is recording, when the plan
    /// keeps them for the backward pass (see [`Plan::run`]).
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
    use std::sync::Arc;
    use webml_core::cpu::CpuBackend;
    use webml_core::ops;

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

    #[test]
    fn fusion_collapses_matmul_bias_relu() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        // mm1 + z1 + h collapse into one _FusedMatMul named "h".
        assert_eq!(model.node_count(), 9);
        assert_eq!(model.fused_node_count(), 7);
        assert!(model.fused.nodes.iter().any(|n| n.op == "_FusedMatMul" && n.name == "h"));
    }

    #[test]
    fn fused_graph_matches_unfused_bitwise() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        let x = e.tensor_2d(&[1.0, 2.0, -0.5, 3.0], 2, 2).unwrap();
        // "probs" survives fusion → the fused plan; "z1" was swallowed →
        // the same call plans the unfused graph.
        let fused = model.execute(&[("x", &x)], &["probs"]).unwrap();
        let unfused = model.execute(&[("x", &x)], &["probs", "z1"]).unwrap();
        assert_eq!(fused[0].to_f32_vec().unwrap(), unfused[0].to_f32_vec().unwrap());
    }

    #[test]
    fn fetching_swallowed_intermediate_plans_the_unfused_graph() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        let x = e.tensor_2d(&[1.0, 2.0], 1, 2).unwrap();
        let out = model.execute(&[("x", &x)], &["z1"]).unwrap();
        // z = [1*1+2*0.5+0.1, -1+1-0.1].
        let z = out[0].to_f32_vec().unwrap();
        assert!((z[0] - 2.1).abs() < 1e-5);
        assert!((z[1] + 0.1).abs() < 1e-5);
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
        // scaled + shifted + act collapse into one _FusedElementwise.
        assert_eq!(model.fused_node_count(), 3);
        assert!(model.fused.nodes.iter().any(|n| n.op == "_FusedElementwise" && n.name == "act"));
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
        // mm+z fuse (z has 2 consumers → stops there? No: z is the bias add
        // and must be the sole consumer chain END; mm's sole consumer z
        // qualifies, z keeps its name, so "h" and "sum" still resolve).
        assert!(model.fused.nodes.iter().any(|n| n.op == "_FusedMatMul" && n.name == "z"));
        let x = e.tensor_2d(&[3.0, 4.0], 1, 2).unwrap();
        let out = model.execute(&[("x", &x)], &["sum"]).unwrap();
        // z = [4, 3]; h = [4, 3]; sum = [8, 6].
        assert_eq!(out[0].to_f32_vec().unwrap(), vec![8.0, 6.0]);
    }

    #[test]
    fn plan_matches_reference_walk_bitwise() {
        let e = engine();
        let model = GraphModel::new(&e, mlp_graph(), mlp_weights(&e)).unwrap();
        let x = e.tensor_2d(&[1.0, 2.0, -0.5, 3.0], 2, 2).unwrap();
        // The fused plan, and (a swallowed fetch) the plan over the unfused
        // graph, against the walk of the unfused graph.
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
        // Fused graph: _FusedMatMul + MatMul + Softmax. Weight and
        // placeholder nodes become in-place references, not ops.
        assert!(plan.uses_fused_graph());
        assert_eq!(plan.op_count(), 3);
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
    /// it — never an index out of bounds in the fusion pass or the
    /// executor (both panicked before the plan became the only executor).
    #[test]
    fn malformed_nodes_are_errors_not_panics() {
        let e = engine();
        let x = e.tensor_2d(&[1.0, 2.0], 1, 2).unwrap();
        // A zero-input chain head: the fusion pass must not index input 0.
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
        // must not join a `_FusedElementwise` chain.
        let graph = GraphDef::from_triples(&[
            ("x", "Placeholder", &[]),
            ("r", "Relu", &["x"]),
            ("t", "Tanh", &["r"]),
            ("s", "Add", &["t"]),
        ]);
        let model = GraphModel::new(&e, graph, HashMap::new()).unwrap();
        assert!(model.fused.nodes.iter().any(|n| n.op == "Add" && n.name == "s"));
        let err = model.execute(&[("x", &x)], &["s"]).unwrap_err();
        assert!(err.to_string().contains("s is missing input 1"), "{err}");
        // The well-formed part of the same graph still runs, fused.
        let out = model.execute(&[("x", &x)], &["t"]).unwrap();
        assert_eq!(bits(&out[0]), bits(&ops::tanh(&ops::relu(&x).unwrap()).unwrap()));
        assert_eq!(model.plan_stats().fallbacks, 0);
    }

    /// One graph holding every op `plan::lower_node` accepts, so the plan's
    /// table and the reference walk are compared arm by arm: every node of
    /// the unfused plan, then every surviving node of the fused plan (the
    /// four `_Fused*` arms), bitwise against the walk.
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

        // The graph is the table: every name `lower_node` matches appears,
        // the four fused ones through the fusion pass.
        const LOWERED: [&str; 24] = [
            "MatMul", "Add", "AddV2", "BiasAdd", "Sub", "Mul", "RealDiv", "Div", "Relu", "Relu6",
            "Sigmoid", "Tanh", "Softmax", "Identity", "Reshape", "Conv2D",
            "DepthwiseConv2dNative", "MaxPool", "AvgPool", "Mean", "_FusedMatMul", "_FusedConv2D",
            "_FusedDepthwiseConv2dNative", "_FusedElementwise",
        ];
        for op in LOWERED {
            let present = model.graph.nodes.iter().chain(&model.fused.nodes).any(|n| n.op == op);
            assert!(present, "the graph has no {op} node");
        }

        let img = e.tensor(wave(6 * 6 * 2, 0.13), Shape::new(vec![1, 6, 6, 2])).unwrap();
        let feeds = [("img", &img)];
        let computed = |g: &GraphDef| -> Vec<String> {
            g.nodes
                .iter()
                .filter(|n| !matches!(n.op.as_str(), "Placeholder" | "Const" | "VariableV2"))
                .map(|n| n.name.clone())
                .collect()
        };
        for (graph, fused) in [(&model.graph, false), (&model.fused, true)] {
            let names = computed(graph);
            let fetches: Vec<&str> = names.iter().map(String::as_str).collect();
            let plan = model.plan_for_shapes(&[("img".into(), vec![1, 6, 6, 2])], &fetches).unwrap();
            assert_eq!(plan.uses_fused_graph(), fused);
            assert_eq!(plan.op_count(), fetches.len());
            let planned = model.execute(&feeds, &fetches).unwrap();
            let walked = reference_walk(&model, &feeds, &fetches).unwrap();
            for ((name, p), w) in fetches.iter().zip(&planned).zip(&walked) {
                assert_eq!(p.shape_ref(), w.shape_ref(), "{name} (fused graph: {fused})");
                assert_eq!(bits(p), bits(w), "{name} (fused graph: {fused})");
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
        assert!(plan.uses_fused_graph());
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
        assert!(model.fused.nodes.iter().any(|n| n.op == "_FusedConv2D" && n.name == "act"));
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
