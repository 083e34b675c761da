//! Ahead-of-time execution plans: the one executor of a
//! [`crate::GraphModel`].
//!
//! Walking the graph per request would redo per-model work every time:
//! string op matching, JSON attribute parsing, string-keyed value maps, and
//! scope-end disposal that keeps every intermediate alive until the tidy
//! closes — so peak bytes grow with graph length. A [`Plan`] does that work
//! once per (graph, feed-shape signature, fetch set):
//!
//! * ops are pre-lowered into a flat `Vec<PlannedOp>`, each a stored
//!   [`KernelCall`] with its attributes parsed once — no `serde_json::Value`
//!   on the hot path — which runs through the op layer's one entry,
//!   [`ops::run`], and is differentiated by the call's own rule when a tape
//!   records;
//! * kernels are **fused as they are lowered**: a node folds into the op
//!   that produced its input 0 — a bias add of a weight into a product with
//!   no epilogue, an activation into a product with none, an element-wise
//!   step onto an element-wise op — when that op's value has no other
//!   consumer and is not fetched, every operand the node adds is computed
//!   before that op, and [`KernelCall::output`] accepts the folded call
//!   (paper Sec 3.9: one draw call per layer);
//! * inputs resolve to **dense value slots** ([`Arg::Slot`]) instead of
//!   `HashMap<&str, Tensor>` lookups;
//! * weights are referenced **in place** ([`Arg::Weight`]) — no
//!   `ops::identity` dispatch per weight per call;
//! * output shapes are **inferred at build time** by
//!   [`KernelCall::output`], the rule every backend uses, and `Reshape`
//!   `0`/`-1` wildcards are resolved once instead of per call;
//! * a **liveness pass** records each slot's final consumer so the executor
//!   disposes intermediates eagerly ([`PlannedOp::dispose_after`]); peak
//!   live bytes stay bounded by the widest op window rather than the whole
//!   graph (the paper's texture-recycling argument, Sec 3.9/3.10 — under a
//!   texture byte budget this is what keeps the pager idle). The executor
//!   disposes slots only: an op that dispatches several kernels (softmax, a
//!   fused call composed from plain calls or over a dequantized weight)
//!   frees its own intermediates in the op layer.
//!
//! Plans only prune to the ancestor closure of the requested fetches
//! (matching what the fetch values depend on), and are invalidated by the
//! owning model whenever [`webml_core::Engine::degradation_generation`]
//! changes, so a context loss rebuilds them against the fallback backend.

use crate::graph_exec::{
    attr_pair, attr_padding, fusable_binary, fusable_unary, resolve_reshape_dims,
};
use crate::prune::{GraphDef, NodeDef};
use serde_json::Value;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use webml_core::backend::{
    BinaryOp, DataFuture, Epilogue, KTensor, KernelCall, PoolOp, ReduceOp,
};
use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, pool2d_info};
use webml_core::shape::normalize_axes;
use webml_core::{
    ops, DType, DataId, Engine, Error, FenceToken, FusedStep, Result, Shape, Tensor, TensorData,
};

/// Where a planned op (or a fetch) reads a value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// Output slot of an earlier op in the plan.
    Slot(usize),
    /// A resident weight tensor, referenced in place (never disposed, never
    /// copied through an identity dispatch).
    Weight(usize),
    /// A caller-supplied feed, by the position of its placeholder in the
    /// feed-shape signature the plan was built for.
    Feed(usize),
}

/// What a planned op runs.
#[derive(Debug, Clone)]
enum Step {
    /// A kernel call, through [`ops::run`].
    Call(KernelCall<'static>),
    /// A view of the input under [`PlannedOp::out_shape`] (`Identity`, and
    /// `Reshape` with its wildcards resolved): free, it shares the input's
    /// data container.
    Alias,
    /// Softmax over the trailing axis: a chain of kernels.
    Softmax,
}

/// One fully lowered op in a [`Plan`]. Running it leaves one new tensor,
/// its output, whatever it dispatches.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// What the op runs.
    step: Step,
    /// Resolved data inputs (control deps only constrain the order and are
    /// dropped here).
    pub args: Vec<Arg>,
    /// Slot this op writes.
    pub out_slot: usize,
    /// Inferred output shape.
    pub out_shape: Shape,
    /// Slots whose final consumer is this op — disposed immediately after
    /// it runs. Fetched slots are exempt.
    pub dispose_after: Vec<usize>,
    /// Output dtype, propagated at build: aliases keep their input's dtype
    /// (a reshaped quantized weight stays U8), calls emit what
    /// [`KernelCall::output`] says. Feeds the dtype-aware peak-memory
    /// simulation.
    pub out_dtype: DType,
    /// Source node name: the last node folded into the op, whose value it
    /// produces.
    pub name: String,
}

impl PlannedOp {
    /// Whether the op is a view sharing its input's data container
    /// (`Identity`, `Reshape`).
    pub fn is_alias(&self) -> bool {
        matches!(self.step, Step::Alias)
    }

    /// The kernel call the op runs; `None` for a view or a softmax.
    pub fn call(&self) -> Option<&KernelCall<'static>> {
        match &self.step {
            Step::Call(call) => Some(call),
            _ => None,
        }
    }

    fn dispatch(&self, args: &[&Tensor]) -> Result<Tensor> {
        match &self.step {
            Step::Call(call) => ops::run(call, args),
            Step::Alias => ops::reshape(args[0], self.out_shape.clone()),
            Step::Softmax => ops::softmax(args[0]),
        }
    }
}

/// A compiled execution plan for one (feed-shape signature, fetch set).
pub struct Plan {
    ops: Vec<PlannedOp>,
    num_slots: usize,
    /// Placeholder name + expected shape per feed index.
    feeds: Vec<(String, Shape)>,
    /// Weight node name per weight index (diagnostics).
    weight_names: Vec<String>,
    /// Resident weight handles, resolved once at build.
    weight_tensors: Vec<Tensor>,
    fetch_sources: Vec<Arg>,
    predicted_peak_bytes: usize,
    /// Graph nodes folded into the op that produced their input 0.
    pub(crate) folded: usize,
    /// Recycled slot table: `run` would otherwise allocate a
    /// `Vec<Option<Tensor>>` per call, which dominates tiny-model plan
    /// overhead. Concurrent runs fall back to a fresh allocation (the pool
    /// holds at most one table; `Mutex::lock` is held only to swap).
    scratch: Mutex<Vec<Option<Tensor>>>,
}

/// Shape and dtype of a value as known during plan construction.
type BuildVal = (Arg, Shape, DType);

impl Plan {
    /// Number of executable ops in the plan (≤ graph nodes: weights and
    /// placeholders become references, unreachable nodes are pruned).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The planned ops, in execution order.
    pub fn ops(&self) -> &[PlannedOp] {
        &self.ops
    }

    /// Build-time prediction of peak live *intermediate* bytes during
    /// [`Plan::run`] (weights and feeds are resident throughout and not
    /// counted). Aliases (`Identity`/`Reshape`) are modeled as zero-byte:
    /// they share their producer's data container, exactly like the engine.
    pub fn predicted_peak_bytes(&self) -> usize {
        self.predicted_peak_bytes
    }

    /// Bytes held by the resident weight tensors the plan references,
    /// dtype-aware: a U8 quantized weight counts one byte per code, so a
    /// quantized model reports ~4x less than its f32 twin.
    pub fn weight_bytes(&self) -> usize {
        self.weight_tensors.iter().map(Tensor::bytes).sum()
    }

    /// Build-time prediction of total resident bytes at the run's peak:
    /// weights (resident throughout) plus peak live intermediates.
    pub fn predicted_resident_bytes(&self) -> usize {
        self.weight_bytes() + self.predicted_peak_bytes
    }

    /// Compile `graph` (already toposorted via `order`) into a plan for the
    /// given feed shapes and fetches. Prunes to the ancestor closure of the
    /// fetches; resolves weights in place; infers every output shape and
    /// fuses as it lowers (see [`fold`]); runs the liveness pass.
    ///
    /// # Errors
    /// Fails on unknown fetches, placeholders without a matching feed,
    /// unsupported ops, or shape mismatches discovered at build time.
    pub(crate) fn build(
        graph: &GraphDef,
        order: &[usize],
        weights: &HashMap<String, Tensor>,
        feed_shapes: &[(String, Vec<usize>)],
        fetches: &[&str],
    ) -> Result<Plan> {
        let _span = webml_telemetry::span("plan.build", "plan");
        let index: HashMap<&str, usize> =
            graph.nodes.iter().enumerate().map(|(i, n)| (n.name.as_str(), i)).collect();

        // Ancestor closure of the fetches (control deps count: they
        // constrain execution even though they carry no data), and how many
        // data inputs within it read each value.
        let mut needed: HashSet<usize> = HashSet::new();
        let mut consumers: HashMap<&str, usize> = HashMap::new();
        let mut stack: Vec<usize> = Vec::new();
        for &f in fetches {
            let &i = index.get(f).ok_or_else(|| {
                Error::invalid("plan", format!("unknown fetch {f}"))
            })?;
            if needed.insert(i) {
                stack.push(i);
            }
        }
        while let Some(i) = stack.pop() {
            for input in &graph.nodes[i].inputs {
                let clean = input.trim_start_matches('^');
                let &j = index.get(clean).ok_or_else(|| Error::Serialization {
                    message: format!(
                        "node {} references unknown input {clean}",
                        graph.nodes[i].name
                    ),
                })?;
                if clean.len() == input.len() {
                    *consumers.entry(clean).or_default() += 1;
                }
                if needed.insert(j) {
                    stack.push(j);
                }
            }
        }

        let feed_lookup: HashMap<&str, usize> =
            feed_shapes.iter().enumerate().map(|(i, (n, _))| (n.as_str(), i)).collect();
        let mut vals: HashMap<&str, BuildVal> = HashMap::new();
        let mut weight_names: Vec<String> = Vec::new();
        let mut weight_tensors: Vec<Tensor> = Vec::new();
        let mut ops_list: Vec<PlannedOp> = Vec::new();
        // Per slot: the op's operands, and whether a node may fold into it
        // (its node had no control input and exactly the inputs it binds).
        let mut operands: Vec<(Vec<(Shape, DType)>, bool)> = Vec::new();
        let mut folded = 0;

        for &i in order {
            if !needed.contains(&i) {
                continue;
            }
            let node = &graph.nodes[i];
            match node.op.as_str() {
                "Placeholder" => {
                    let &fi = feed_lookup.get(node.name.as_str()).ok_or_else(|| {
                        Error::invalid(
                            "plan",
                            format!("no feed for placeholder {}", node.name),
                        )
                    })?;
                    let shape = Shape::new(feed_shapes[fi].1.clone());
                    vals.insert(node.name.as_str(), (Arg::Feed(fi), shape, DType::F32));
                }
                "Const" | "VariableV2" => {
                    let t = weights.get(&node.name).ok_or_else(|| Error::Serialization {
                        message: format!("missing weight for node {}", node.name),
                    })?;
                    let wi = weight_tensors.len();
                    weight_names.push(node.name.clone());
                    weight_tensors.push(t.clone());
                    vals.insert(
                        node.name.as_str(),
                        (Arg::Weight(wi), t.shape_ref().clone(), t.dtype()),
                    );
                }
                _ => {
                    let mut args: Vec<Arg> = Vec::new();
                    let mut arg_vals: Vec<(Shape, DType)> = Vec::new();
                    for input in node.inputs.iter().filter(|s| !s.starts_with('^')) {
                        let (arg, shape, dtype) = vals.get(input.as_str()).ok_or_else(|| {
                            Error::invalid(
                                "plan",
                                format!("input {input} of {} not computed", node.name),
                            )
                        })?;
                        args.push(*arg);
                        arg_vals.push((shape.clone(), *dtype));
                    }
                    let no_control = args.len() == node.inputs.len();
                    // Fold into the producer of input 0 when nothing else
                    // reads or fetches the value it would swallow.
                    if let Some(&Arg::Slot(p)) = args.first().filter(|_| no_control) {
                        let op = &mut ops_list[p];
                        let (op_operands, foldable) = &mut operands[p];
                        let sole = consumers.get(op.name.as_str()) == Some(&1)
                            && !fetches.contains(&op.name.as_str());
                        if *foldable && sole && fold(op, op_operands, node, &args, &arg_vals) {
                            folded += 1;
                            let val = (Arg::Slot(p), op.out_shape.clone(), op.out_dtype);
                            vals.insert(node.name.as_str(), val);
                            continue;
                        }
                    }
                    let (step, arity, out_shape, out_dtype) = lower_node(node, &arg_vals)?;
                    let foldable = no_control && args.len() == arity;
                    args.truncate(arity);
                    arg_vals.truncate(arity);
                    let out_slot = ops_list.len();
                    vals.insert(
                        node.name.as_str(),
                        (Arg::Slot(out_slot), out_shape.clone(), out_dtype),
                    );
                    ops_list.push(PlannedOp {
                        step,
                        args,
                        out_slot,
                        out_shape,
                        dispose_after: Vec::new(),
                        out_dtype,
                        name: node.name.clone(),
                    });
                    operands.push((arg_vals, foldable));
                }
            }
        }

        let fetch_sources: Vec<Arg> = fetches
            .iter()
            .map(|&f| vals.get(f).map(|(a, _, _)| *a).expect("fetch resolved above"))
            .collect();
        let feeds: Vec<(String, Shape)> = feed_shapes
            .iter()
            .map(|(n, d)| (n.clone(), Shape::new(d.clone())))
            .collect();

        let num_slots = ops_list.len();
        Self::analyze_liveness(&mut ops_list, num_slots, &fetch_sources);
        let predicted_peak_bytes = Self::simulate_peak_bytes(&ops_list, num_slots);

        Ok(Plan {
            ops: ops_list,
            num_slots,
            feeds,
            weight_names,
            weight_tensors,
            fetch_sources,
            predicted_peak_bytes,
            folded,
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// Record each slot's final consumer in `dispose_after`. A slot nobody
    /// consumes (control-dep-only producers) dies right after its own op;
    /// fetched slots are exempt and survive the run.
    fn analyze_liveness(ops: &mut [PlannedOp], num_slots: usize, fetch_sources: &[Arg]) {
        const KEEP: usize = usize::MAX;
        let mut last_use: Vec<usize> = vec![0; num_slots];
        for (oi, op) in ops.iter().enumerate() {
            last_use[op.out_slot] = oi;
        }
        for (oi, op) in ops.iter().enumerate() {
            for arg in &op.args {
                if let Arg::Slot(s) = arg {
                    last_use[*s] = oi;
                }
            }
        }
        for src in fetch_sources {
            if let Arg::Slot(s) = src {
                last_use[*s] = KEEP;
            }
        }
        for (s, &oi) in last_use.iter().enumerate() {
            if oi != KEEP {
                ops[oi].dispose_after.push(s);
            }
        }
    }

    /// Replay the plan against the engine's accounting rules: every
    /// non-alias op allocates `size * dtype_bytes` bytes (f32 data
    /// containers for compute ops; U8 containers — one byte per code — for
    /// quantized values); aliases join their producer's container and free
    /// nothing until the whole alias group is disposed; `dispose_after`
    /// releases eagerly.
    fn simulate_peak_bytes(ops: &[PlannedOp], num_slots: usize) -> usize {
        let mut slot_group: Vec<Option<usize>> = vec![None; num_slots];
        let mut group_bytes: Vec<usize> = Vec::new();
        let mut group_refs: Vec<usize> = Vec::new();
        let mut live = 0usize;
        let mut peak = 0usize;
        for op in ops {
            let group = if op.is_alias() {
                // Aliasing a weight or feed never allocates and never frees.
                match op.args.first() {
                    Some(Arg::Slot(s)) => slot_group[*s],
                    _ => None,
                }
            } else {
                let g = group_bytes.len();
                let bytes = op.out_shape.size() * op.out_dtype.byte_size();
                group_bytes.push(bytes);
                group_refs.push(0);
                live += bytes;
                peak = peak.max(live);
                Some(g)
            };
            if let Some(g) = group {
                group_refs[g] += 1;
            }
            slot_group[op.out_slot] = group;
            for &s in &op.dispose_after {
                if let Some(g) = slot_group[s] {
                    group_refs[g] -= 1;
                    if group_refs[g] == 0 {
                        live -= group_bytes[g];
                    }
                }
            }
        }
        peak
    }

    /// Execute the plan: bind `feeds`, run every op in order, dispose each
    /// intermediate at its final consumer, return the fetch tensors.
    /// Fetches that resolve to weights or feeds are returned as identity
    /// aliases so callers may dispose them freely.
    ///
    /// While a gradient tape is recording ([`Engine::is_recording`], read
    /// once per run) the intermediates are kept instead: the tape holds
    /// them for the backward pass, the run's `tidy` spares what the tape
    /// references, and they are released when the tape is.
    ///
    /// # Errors
    /// Fails when a feed is missing or its shape differs from the plan's
    /// signature, or when a kernel fails.
    pub fn run(&self, engine: &Engine, feeds: &[(&str, &Tensor)]) -> Result<Vec<Tensor>> {
        let mut feed_tensors: Vec<&Tensor> = Vec::with_capacity(self.feeds.len());
        for (name, shape) in &self.feeds {
            let fed = feeds.iter().find(|(n, _)| n == name).ok_or_else(|| {
                Error::invalid("plan", format!("no feed for placeholder {name}"))
            })?;
            if fed.1.shape_ref() != shape {
                return Err(Error::shape(
                    "plan",
                    format!(
                        "feed {name} has shape {} but the plan was built for {shape}",
                        fed.1.shape_ref()
                    ),
                ));
            }
            feed_tensors.push(fed.1);
        }
        engine.tidy(|| self.run_inner(engine, &feed_tensors))
    }

    fn run_inner(&self, engine: &Engine, feed_tensors: &[&Tensor]) -> Result<Vec<Tensor>> {
        // Recycle the slot table across runs; a poisoned or contended pool
        // just means one fresh allocation.
        let mut slots: Vec<Option<Tensor>> =
            self.scratch.lock().map(|mut p| std::mem::take(&mut *p)).unwrap_or_default();
        slots.clear();
        slots.resize_with(self.num_slots, || None);
        let result = self.run_ops(engine, feed_tensors, &mut slots);
        // Drop any handles still parked in the table (fetched slots keep
        // clones; the surrounding tidy scope owns actual disposal) and park
        // the empty table for the next run.
        slots.clear();
        if let Ok(mut p) = self.scratch.lock() {
            *p = slots;
        }
        result
    }

    fn run_ops(
        &self,
        engine: &Engine,
        feed_tensors: &[&Tensor],
        slots: &mut [Option<Tensor>],
    ) -> Result<Vec<Tensor>> {
        let taped = engine.is_recording();
        for op in &self.ops {
            let out = {
                let mut args: Vec<&Tensor> = Vec::with_capacity(op.args.len());
                for arg in &op.args {
                    args.push(match arg {
                        Arg::Slot(s) => slots[*s].as_ref().ok_or_else(|| {
                            Error::invalid(
                                "plan",
                                format!("slot {s} consumed before {} (planner bug)", op.name),
                            )
                        })?,
                        Arg::Weight(w) => &self.weight_tensors[*w],
                        Arg::Feed(f) => feed_tensors[*f],
                    });
                }
                op.dispatch(&args)?
            };
            slots[op.out_slot] = Some(out);
            if !taped {
                for &s in &op.dispose_after {
                    if let Some(t) = slots[s].take() {
                        t.dispose();
                    }
                }
            }
        }
        self.fetch_sources
            .iter()
            .map(|src| match src {
                Arg::Slot(s) => slots[*s].clone().ok_or_else(|| {
                    Error::invalid("plan", "fetched slot was disposed (planner bug)")
                }),
                Arg::Weight(w) => ops::identity(&self.weight_tensors[*w]),
                Arg::Feed(f) => ops::identity(feed_tensors[*f]),
            })
            .collect()
    }
}

/// In-flight results of a pipelined run (paper Sec 4.1.1, Fig 3).
///
/// Holds the fetch tensors, one asynchronous readback future per fetch
/// (enqueued at submission time, so the device copies results out as soon
/// as they are produced — never a pipeline-draining synchronous read), and
/// the fence submitted *after* the readbacks. When the fence has passed,
/// every future has resolved. On synchronous backends the fence is `None`
/// ("everything already done") and the futures are already resolved.
#[derive(Debug)]
pub struct PendingFetches {
    tensors: Vec<Tensor>,
    futures: Vec<DataFuture>,
    fence: Option<FenceToken>,
}

impl PendingFetches {
    /// Issue async readbacks for `tensors` and fence the submission.
    pub(crate) fn capture(engine: &Engine, tensors: Vec<Tensor>) -> Result<PendingFetches> {
        let futures: Vec<DataFuture> =
            tensors.iter().map(Tensor::data).collect::<Result<Vec<_>>>()?;
        let fence = engine.submit_fence();
        Ok(PendingFetches { tensors, futures, fence })
    }

    /// Number of in-flight fetches.
    pub fn len(&self) -> usize {
        self.futures.len()
    }

    /// Whether there are no fetches at all.
    pub fn is_empty(&self) -> bool {
        self.futures.is_empty()
    }

    /// The fence marking the end of this run's submission, if the backend
    /// is asynchronous.
    pub fn fence(&self) -> Option<FenceToken> {
        self.fence
    }

    /// Non-blocking completion probe: true once the device has executed
    /// everything submitted for this run (fence passed ⇒ the readbacks,
    /// enqueued before the fence, have completed).
    pub fn is_done(&self, engine: &Engine) -> bool {
        engine.fence_passed(self.fence)
    }

    /// Block until every fetch value is resident on the host and return
    /// them in fetch order. Disposes the fetch tensors — after `wait` the
    /// engine's memory accounting is exactly as before the run (feeds
    /// excluded; they stay caller-owned).
    ///
    /// # Errors
    /// Surfaces readback failures (e.g. a transient fault injected on the
    /// read path).
    pub fn wait(self) -> Result<Vec<TensorData>> {
        let mut out = Vec::with_capacity(self.futures.len());
        let mut err = None;
        for (fut, t) in self.futures.iter().zip(&self.tensors) {
            match fut.wait() {
                Ok(d) => out.push(d),
                // The async read path has no transient-retry machinery; the
                // sync path does, and also re-locates the data if the
                // backend degraded after submission (host-side shadows stay
                // readable across a context loss).
                Err(_) => match t.data_sync() {
                    Ok(d) => out.push(d),
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                },
            }
        }
        for t in &self.tensors {
            t.dispose();
        }
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("ops", &self.ops.len())
            .field("feeds", &self.feeds)
            .field("weights", &self.weight_names.len())
            .field("predicted_peak_bytes", &self.predicted_peak_bytes)
            .field("folded", &self.folded)
            .finish()
    }
}

/// What `call` produces from operands of these shapes and dtypes.
fn output(call: &KernelCall<'_>, operands: &[(Shape, DType)]) -> Result<(Shape, DType)> {
    let operands: Vec<KTensor<'_>> =
        operands.iter().map(|(shape, dtype)| KTensor::new(DataId(0), shape, *dtype)).collect();
    call.output(&operands)
}

/// Fold `node` (its data inputs `args`, of shapes and dtypes `arg_vals`)
/// into `op`, the planned op that produced its input 0, under the three
/// fusion rules: a bias add of a weight into a product with no epilogue, a
/// fusable unary into a product with no activation, and a fusable unary or
/// binary continuing an element-wise chain. The folded op takes the node's
/// name. Leaves `op` as it is and returns `false` when no rule applies, when
/// another operand is an op's output computed after `op` (it would not exist
/// yet where `op` runs), or when [`KernelCall::output`] rejects the folded
/// call (say, a bias that is not one value per output channel).
fn fold(
    op: &mut PlannedOp,
    operands: &mut Vec<(Shape, DType)>,
    node: &NodeDef,
    args: &[Arg],
    arg_vals: &[(Shape, DType)],
) -> bool {
    let Step::Call(call) = &op.step else { return false };
    if args[1..].iter().any(|a| matches!(a, Arg::Slot(s) if *s > op.out_slot)) {
        return false;
    }
    let step = match (fusable_unary(&node.op), fusable_binary(&node.op), args) {
        (Some(u), _, [_]) => FusedStep::Unary(u),
        (_, Some(b), [_, _]) => FusedStep::Binary(b, operands.len() - 1),
        _ => return false,
    };
    let folded = match (call.epilogue(), step) {
        (Some(Epilogue::None), FusedStep::Binary(BinaryOp::Add, _))
            if matches!(args[1], Arg::Weight(_)) =>
        {
            call.with_epilogue(Epilogue::Fused { bias: true, activation: None })
        }
        (Some(e), FusedStep::Unary(act)) if e.activation().is_none() => {
            call.with_epilogue(Epilogue::Fused { bias: e.bias(), activation: Some(act) })
        }
        (None, _) => {
            let mut steps = match call {
                KernelCall::Unary(u) => vec![FusedStep::Unary(*u)],
                KernelCall::Binary(b) => vec![FusedStep::Binary(*b, 0)],
                KernelCall::FusedElementwise(steps) => steps.to_vec(),
                _ => return false,
            };
            steps.push(step);
            KernelCall::FusedElementwise(steps.into())
        }
        _ => return false,
    };
    let folded_operands: Vec<(Shape, DType)> =
        operands.iter().chain(&arg_vals[1..]).cloned().collect();
    let Ok((shape, dtype)) = output(&folded, &folded_operands) else { return false };
    op.step = Step::Call(folded);
    op.args.extend_from_slice(&args[1..]);
    op.out_shape = shape;
    op.out_dtype = dtype;
    op.name = node.name.clone();
    *operands = folded_operands;
    true
}

/// Lower one graph node: what its planned op runs, how many of the node's
/// inputs that binds, and the shape and dtype it produces — a call's are
/// [`KernelCall::output`]'s.
fn lower_node(node: &NodeDef, args: &[(Shape, DType)]) -> Result<(Step, usize, Shape, DType)> {
    let missing =
        |k: usize| Error::invalid("plan", format!("node {} is missing input {k}", node.name));
    let arg = |k: usize| args.get(k).map(|(shape, _)| shape).ok_or_else(|| missing(k));
    let op = node.op.as_str();
    let (call, arity) = match op {
        "Identity" | "Reshape" | "Softmax" => {
            let (shape, dtype) = args.first().ok_or_else(|| missing(0))?;
            return Ok(match op {
                "Identity" => (Step::Alias, 1, shape.clone(), *dtype),
                "Reshape" => {
                    let dims = resolve_reshape_dims(node, shape)?;
                    (Step::Alias, 1, Shape::new(dims), *dtype)
                }
                _ => (Step::Softmax, 1, shape.clone(), DType::F32),
            });
        }
        "MatMul" => {
            let epilogue = Epilogue::None;
            (KernelCall::MatMul { transpose_a: false, transpose_b: false, epilogue }, 2)
        }
        "Conv2D" | "DepthwiseConv2dNative" => {
            let epilogue = Epilogue::None;
            let strides = attr_pair(node, "strides", (1, 1));
            let (x, w, padding) = (arg(0)?, arg(1)?, attr_padding(node)?);
            let call = if op == "Conv2D" {
                let info = conv2d_info("Conv2D", x, w, strides, padding, (1, 1))?;
                KernelCall::Conv2d { info: Cow::Owned(info), epilogue }
            } else {
                let name = "DepthwiseConv2dNative";
                let info = depthwise_conv2d_info(name, x, w, strides, padding, (1, 1))?;
                KernelCall::DepthwiseConv2d { info: Cow::Owned(info), epilogue }
            };
            (call, 2)
        }
        "MaxPool" | "AvgPool" => {
            let window = attr_pair(node, "ksize", (2, 2));
            let strides = attr_pair(node, "strides", window);
            let (name, op) =
                if op == "MaxPool" { ("MaxPool", PoolOp::Max) } else { ("AvgPool", PoolOp::Avg) };
            let info = pool2d_info(name, arg(0)?, window, strides, attr_padding(node)?)?;
            (KernelCall::Pool2d { op, info: Cow::Owned(info) }, 1)
        }
        "Mean" => {
            let axes: Vec<isize> = node
                .attrs
                .get("axes")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_i64).map(|d| d as isize).collect())
                .unwrap_or_else(|| vec![1, 2]);
            let axes = normalize_axes("Mean", Some(&axes), arg(0)?.rank())?;
            (KernelCall::Reduce { op: ReduceOp::Mean, axes: axes.into() }, 1)
        }
        other => match (fusable_unary(other), fusable_binary(other)) {
            (Some(op), _) => (KernelCall::Unary(op), 1),
            (_, Some(op)) => (KernelCall::Binary(op), 2),
            _ => {
                let msg = format!("unsupported op {other} (node {})", node.name);
                return Err(Error::invalid("plan", msg));
            }
        },
    };
    if args.len() < arity {
        return Err(missing(args.len()));
    }
    let (shape, dtype) = output(&call, &args[..arity])?;
    Ok((Step::Call(call), arity, shape, dtype))
}
