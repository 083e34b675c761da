//! Ahead-of-time execution plans: the one executor of a
//! [`crate::GraphModel`].
//!
//! Walking the graph per request would redo per-model work every time:
//! string op matching, JSON attribute parsing, string-keyed value maps, and
//! scope-end disposal that keeps every intermediate alive until the tidy
//! closes — so peak bytes grow with graph length. A [`Plan`] does that work
//! once per (graph, feed-shape signature, fetch set):
//!
//! * ops are pre-lowered into a flat `Vec<PlannedOp>` with **typed,
//!   pre-parsed attributes** ([`OpKind`]) — no `serde_json::Value` on the
//!   hot path;
//! * inputs resolve to **dense value slots** ([`Arg::Slot`]) instead of
//!   `HashMap<&str, Tensor>` lookups;
//! * weights are referenced **in place** ([`Arg::Weight`]) — no
//!   `ops::identity` dispatch per weight per call;
//! * output shapes are **inferred at build time**, which also resolves
//!   `Reshape` `0`/`-1` wildcards once instead of per call;
//! * a **liveness pass** records each slot's final consumer so the executor
//!   disposes intermediates eagerly ([`PlannedOp::dispose_after`]); peak
//!   live bytes stay bounded by the widest op window rather than the whole
//!   graph (the paper's texture-recycling argument, Sec 3.9/3.10 — under a
//!   texture byte budget this is what keeps the pager idle).
//!
//! Plans only prune to the ancestor closure of the requested fetches
//! (matching what the fetch values depend on), and are invalidated by the
//! owning model whenever [`webml_core::Engine::degradation_generation`]
//! changes, so a context loss rebuilds them against the fallback backend.

use crate::graph_exec::{
    attr_pair, attr_padding, attr_str, fusable_unary, parse_steps, resolve_reshape_dims,
};
use crate::prune::{GraphDef, NodeDef};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use webml_core::backend::{BinaryOp, Epilogue, KernelCall, UnaryOp};
use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, pool2d_info, Padding};
use webml_core::shape::{broadcast_shapes, normalize_axes, reduced_shape};
use std::sync::Mutex;
use webml_core::backend::DataFuture;
use webml_core::{
    ops, DType, Engine, Error, FenceToken, FusedStep, Result, Shape, Tensor, TensorData,
};

/// Where a planned op (or a fetch) reads a value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// Output slot of an earlier op in the plan.
    Slot(usize),
    /// A resident weight tensor, referenced in place (never disposed, never
    /// copied through an identity dispatch).
    Weight(usize),
    /// A caller-supplied feed, positional in [`Plan::feed_names`] order.
    Feed(usize),
}

/// A graph op with its attributes fully pre-parsed.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// 2-D matrix multiply (no transposes in the converter op set).
    MatMul,
    /// Broadcasting element-wise binary op (`BiasAdd` lowers to `Add`).
    Binary(BinaryOp),
    /// Element-wise unary activation.
    Unary(UnaryOp),
    /// Softmax over the trailing axis.
    Softmax,
    /// Data alias (free: shares the input's data container).
    Identity,
    /// Data alias under a new shape, wildcards already resolved into
    /// [`PlannedOp::out_shape`].
    Reshape,
    /// NHWC convolution.
    Conv2d {
        /// `(stride_h, stride_w)`.
        strides: (usize, usize),
        /// Padding scheme.
        padding: Padding,
    },
    /// NHWC depthwise convolution.
    DepthwiseConv2d {
        /// `(stride_h, stride_w)`.
        strides: (usize, usize),
        /// Padding scheme.
        padding: Padding,
    },
    /// Max pooling.
    MaxPool {
        /// `(window_h, window_w)`.
        window: (usize, usize),
        /// `(stride_h, stride_w)`.
        strides: (usize, usize),
        /// Padding scheme.
        padding: Padding,
    },
    /// Average pooling.
    AvgPool {
        /// `(window_h, window_w)`.
        window: (usize, usize),
        /// `(stride_h, stride_w)`.
        strides: (usize, usize),
        /// Padding scheme.
        padding: Padding,
    },
    /// Fused matmul + optional bias + optional activation.
    FusedMatMul {
        /// Whether a bias input rides in `args[2]`.
        has_bias: bool,
        /// Fused activation epilogue.
        activation: Option<UnaryOp>,
    },
    /// Fused conv2d epilogue.
    FusedConv2d {
        /// `(stride_h, stride_w)`.
        strides: (usize, usize),
        /// Padding scheme.
        padding: Padding,
        /// Whether a bias input rides in `args[2]`.
        has_bias: bool,
        /// Fused activation epilogue.
        activation: Option<UnaryOp>,
    },
    /// Fused depthwise-conv2d epilogue.
    FusedDepthwiseConv2d {
        /// `(stride_h, stride_w)`.
        strides: (usize, usize),
        /// Padding scheme.
        padding: Padding,
        /// Whether a bias input rides in `args[2]`.
        has_bias: bool,
        /// Fused activation epilogue.
        activation: Option<UnaryOp>,
    },
    /// Fused element-wise chain; extras are `args[1..]`.
    FusedElementwise {
        /// The pre-parsed chain.
        steps: Vec<FusedStep>,
    },
    /// Mean reduction over `axes` (never keeps reduced dims).
    Mean {
        /// Normalized-at-build reduction axes.
        axes: Vec<isize>,
    },
}

/// One fully lowered op in a [`Plan`].
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// Typed op + attributes.
    pub kind: OpKind,
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
    /// Whether dispatch must run inside its own `tidy` scope: composite
    /// ops (matmul's rank-3 normalization, softmax's chain, the fused ops'
    /// unfused fallbacks) allocate internal handles that would otherwise
    /// pin data containers until the run's outer scope closed. Single-kernel
    /// ops skip the scope entirely — computed once at build so the hot loop
    /// pays no scope bookkeeping for them.
    pub scoped: bool,
    /// Whether the executor dispatches the op as one
    /// [`KernelCall`] through [`Engine::run_kernel`] instead of the
    /// composite op layer — no rank-normalization alias tensors, no per-op
    /// scope. Decided at build (see [`direct`]).
    pub direct: bool,
    /// Output dtype, propagated at build: aliases keep their input's dtype
    /// (a reshaped quantized weight stays U8), compute ops emit f32. Feeds
    /// the dtype-aware peak-memory simulation.
    pub out_dtype: DType,
    /// Source node name (error messages only).
    pub name: String,
}

/// Whether an op is dispatched as one kernel call, skipping the composite
/// op layer and its rank-normalization alias tensors: a rank-2
/// `FusedMatMul` is one rank-2 [`KernelCall::MatMul`] over its operands as
/// they are — the product `ops::fused_matmul` reaches through batch-1
/// reshape aliases, on the same data in the same layout.
fn direct(kind: &OpKind, arg_shapes: &[Shape]) -> bool {
    matches!(kind, OpKind::FusedMatMul { .. }) && arg_shapes.iter().take(2).all(|s| s.rank() == 2)
}

/// Ops whose dispatch may create intermediate tensor handles beyond the
/// output (and therefore need a per-op tidy scope for eager disposal to
/// stay exact). Everything else is a single `run_kernel` call.
fn needs_scope(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::MatMul
            | OpKind::Softmax
            | OpKind::FusedMatMul { .. }
            | OpKind::FusedConv2d { .. }
            | OpKind::FusedDepthwiseConv2d { .. }
            | OpKind::FusedElementwise { .. }
    )
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
    fused: bool,
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

    /// Whether the plan was compiled from the fused graph.
    pub fn uses_fused_graph(&self) -> bool {
        self.fused
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

    /// Placeholder names the plan binds, in feed-index order.
    pub fn feed_names(&self) -> Vec<&str> {
        self.feeds.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Compile `graph` (already toposorted via `order`) into a plan for the
    /// given feed shapes and fetches. Prunes to the ancestor closure of the
    /// fetches; resolves weights in place; infers every output shape; runs
    /// the liveness pass.
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
        fused: bool,
    ) -> Result<Plan> {
        let _span = webml_telemetry::span("plan.build", "plan");
        let index: HashMap<&str, usize> =
            graph.nodes.iter().enumerate().map(|(i, n)| (n.name.as_str(), i)).collect();

        // Ancestor closure of the fetches (control deps count: they
        // constrain execution even though they carry no data).
        let mut needed: HashSet<usize> = HashSet::new();
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
                    let mut arg_shapes: Vec<Shape> = Vec::new();
                    let mut arg_dtypes: Vec<DType> = Vec::new();
                    for input in node.inputs.iter().filter(|s| !s.starts_with('^')) {
                        let (arg, shape, dtype) = vals.get(input.as_str()).ok_or_else(|| {
                            Error::invalid(
                                "plan",
                                format!("input {input} of {} not computed", node.name),
                            )
                        })?;
                        args.push(*arg);
                        arg_shapes.push(shape.clone());
                        arg_dtypes.push(*dtype);
                    }
                    let (kind, out_shape) = lower_node(node, &arg_shapes)?;
                    // Aliases carry their input's dtype (a reshaped U8
                    // weight stays one byte per code); compute ops emit f32.
                    let out_dtype = match kind {
                        OpKind::Identity | OpKind::Reshape => {
                            arg_dtypes.first().copied().unwrap_or(DType::F32)
                        }
                        _ => DType::F32,
                    };
                    let out_slot = ops_list.len();
                    vals.insert(
                        node.name.as_str(),
                        (Arg::Slot(out_slot), out_shape.clone(), out_dtype),
                    );
                    // A U8 weight operand (resident codes, or an alias of
                    // them) stays on the composite op, which owns the
                    // quantized-weight gate and may dequantize into a
                    // temporary — so it needs a scope and never takes the
                    // direct f32 kernel view.
                    let u8_weight = arg_dtypes.get(1) == Some(&DType::U8);
                    let direct = !u8_weight && direct(&kind, &arg_shapes);
                    let scoped = u8_weight || (needs_scope(&kind) && !direct);
                    ops_list.push(PlannedOp {
                        kind,
                        args,
                        out_slot,
                        out_shape,
                        dispose_after: Vec::new(),
                        scoped,
                        direct,
                        out_dtype,
                        name: node.name.clone(),
                    });
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
            fused,
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
            let alias = matches!(op.kind, OpKind::Identity | OpKind::Reshape);
            let group = if alias {
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
                // Per-op cleanup only where dispatch allocates internal
                // handles (see `needs_scope`): composite ops register
                // aliases that would otherwise pin the output's data
                // container until the whole run's scope closed — defeating
                // eager slot disposal. `trim_scope` disposes exactly those
                // registrations without a nested scope's push/pop cost;
                // single-kernel ops go straight through.
                if op.scoped {
                    let mark = engine.scope_mark();
                    let out = self.dispatch(op, &args)?;
                    engine.trim_scope(mark, out.id());
                    out
                } else {
                    self.dispatch(op, &args)?
                }
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

    fn dispatch(&self, op: &PlannedOp, args: &[&Tensor]) -> Result<Tensor> {
        match &op.kind {
            OpKind::MatMul => ops::matmul(args[0], args[1], false, false),
            OpKind::Binary(b) => match b {
                BinaryOp::Add => ops::add(args[0], args[1]),
                BinaryOp::Sub => ops::sub(args[0], args[1]),
                BinaryOp::Mul => ops::mul(args[0], args[1]),
                BinaryOp::Div => ops::div(args[0], args[1]),
                other => Err(Error::invalid("plan", format!("unplannable binary {other:?}"))),
            },
            OpKind::Unary(u) => apply_unary(*u, args[0]),
            OpKind::Softmax => ops::softmax(args[0]),
            OpKind::Identity => ops::identity(args[0]),
            OpKind::Reshape => ops::reshape(args[0], op.out_shape.clone()),
            OpKind::Conv2d { strides, padding } => {
                ops::conv2d(args[0], args[1], *strides, *padding, (1, 1))
            }
            OpKind::DepthwiseConv2d { strides, padding } => {
                ops::depthwise_conv2d(args[0], args[1], *strides, *padding, (1, 1))
            }
            OpKind::MaxPool { window, strides, padding } => {
                ops::max_pool(args[0], *window, *strides, *padding)
            }
            OpKind::AvgPool { window, strides, padding } => {
                ops::avg_pool(args[0], *window, *strides, *padding)
            }
            OpKind::FusedMatMul { has_bias, activation } => {
                let engine = args[0].engine();
                // The composite path exists for tape recording (unfused
                // entries) and fusion-disabled debugging; neither holds on a
                // planned inference pass, where this dispatches the kernel
                // with zero alias tensors.
                if op.direct && !engine.is_recording() && engine.fusion_enabled() {
                    let epilogue = Epilogue::Fused { bias: *has_bias, activation: *activation };
                    let call =
                        KernelCall::MatMul { transpose_a: false, transpose_b: false, epilogue };
                    return engine.run_kernel(&call, args, None);
                }
                let bias = if *has_bias { Some(args[2]) } else { None };
                ops::fused_matmul(args[0], args[1], bias, *activation, false, false)
            }
            OpKind::FusedConv2d { strides, padding, has_bias, activation } => {
                let bias = if *has_bias { Some(args[2]) } else { None };
                ops::fused_conv2d(args[0], args[1], bias, *activation, *strides, *padding, (1, 1))
            }
            OpKind::FusedDepthwiseConv2d { strides, padding, has_bias, activation } => {
                let bias = if *has_bias { Some(args[2]) } else { None };
                ops::fused_depthwise_conv2d(
                    args[0],
                    args[1],
                    bias,
                    *activation,
                    *strides,
                    *padding,
                    (1, 1),
                )
            }
            OpKind::FusedElementwise { steps } => {
                ops::fused_elementwise(args[0], &args[1..], steps)
            }
            OpKind::Mean { axes } => ops::mean(args[0], Some(axes), false),
        }
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
            .field("fused", &self.fused)
            .finish()
    }
}

fn apply_unary(u: UnaryOp, x: &Tensor) -> Result<Tensor> {
    match u {
        UnaryOp::Relu => ops::relu(x),
        UnaryOp::Relu6 => ops::relu6(x),
        UnaryOp::Sigmoid => ops::sigmoid(x),
        UnaryOp::Tanh => ops::tanh(x),
        other => Err(Error::invalid("plan", format!("unplannable unary {other:?}"))),
    }
}

fn matmul_shape(name: &str, a: &Shape, b: &Shape) -> Result<Shape> {
    if a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0) {
        return Err(Error::shape(
            "plan",
            format!("{name}: cannot matmul {a} with {b}"),
        ));
    }
    Ok(Shape::new(vec![a.dim(0), b.dim(1)]))
}

fn fused_epilogue_attrs(node: &NodeDef) -> Result<(bool, Option<UnaryOp>)> {
    let has_bias = node.attrs.get("has_bias").and_then(Value::as_bool).unwrap_or(false);
    let activation = match attr_str(node, "activation") {
        Some(name) => Some(fusable_unary(name).ok_or_else(|| Error::Serialization {
            message: format!("unknown fused activation {name}"),
        })?),
        None => None,
    };
    Ok((has_bias, activation))
}

/// Lower one graph node into a typed op and its inferred output shape.
fn lower_node(node: &NodeDef, arg_shapes: &[Shape]) -> Result<(OpKind, Shape)> {
    let arg = |k: usize| -> Result<&Shape> {
        arg_shapes.get(k).ok_or_else(|| {
            Error::invalid("plan", format!("node {} is missing input {k}", node.name))
        })
    };
    Ok(match node.op.as_str() {
        "MatMul" => (OpKind::MatMul, matmul_shape(&node.name, arg(0)?, arg(1)?)?),
        "Add" | "AddV2" | "BiasAdd" => {
            (OpKind::Binary(BinaryOp::Add), broadcast_shapes("plan", arg(0)?, arg(1)?)?)
        }
        "Sub" => (OpKind::Binary(BinaryOp::Sub), broadcast_shapes("plan", arg(0)?, arg(1)?)?),
        "Mul" => (OpKind::Binary(BinaryOp::Mul), broadcast_shapes("plan", arg(0)?, arg(1)?)?),
        "RealDiv" | "Div" => {
            (OpKind::Binary(BinaryOp::Div), broadcast_shapes("plan", arg(0)?, arg(1)?)?)
        }
        "Relu" => (OpKind::Unary(UnaryOp::Relu), arg(0)?.clone()),
        "Relu6" => (OpKind::Unary(UnaryOp::Relu6), arg(0)?.clone()),
        "Sigmoid" => (OpKind::Unary(UnaryOp::Sigmoid), arg(0)?.clone()),
        "Tanh" => (OpKind::Unary(UnaryOp::Tanh), arg(0)?.clone()),
        "Softmax" => (OpKind::Softmax, arg(0)?.clone()),
        "Identity" => (OpKind::Identity, arg(0)?.clone()),
        "Reshape" => {
            let dims = resolve_reshape_dims(node, arg(0)?)?;
            (OpKind::Reshape, Shape::new(dims))
        }
        "Conv2D" => {
            let strides = attr_pair(node, "strides", (1, 1));
            let padding = attr_padding(node)?;
            let info = conv2d_info("Conv2D", arg(0)?, arg(1)?, strides, padding, (1, 1))?;
            (OpKind::Conv2d { strides, padding }, info.out_shape())
        }
        "DepthwiseConv2dNative" => {
            let strides = attr_pair(node, "strides", (1, 1));
            let padding = attr_padding(node)?;
            let info = depthwise_conv2d_info(
                "DepthwiseConv2dNative",
                arg(0)?,
                arg(1)?,
                strides,
                padding,
                (1, 1),
            )?;
            (OpKind::DepthwiseConv2d { strides, padding }, info.out_shape())
        }
        "MaxPool" => {
            let window = attr_pair(node, "ksize", (2, 2));
            let strides = attr_pair(node, "strides", window);
            let padding = attr_padding(node)?;
            let info = pool2d_info("MaxPool", arg(0)?, window, strides, padding)?;
            (OpKind::MaxPool { window, strides, padding }, info.out_shape())
        }
        "AvgPool" => {
            let window = attr_pair(node, "ksize", (2, 2));
            let strides = attr_pair(node, "strides", window);
            let padding = attr_padding(node)?;
            let info = pool2d_info("AvgPool", arg(0)?, window, strides, padding)?;
            (OpKind::AvgPool { window, strides, padding }, info.out_shape())
        }
        "_FusedMatMul" => {
            let (has_bias, activation) = fused_epilogue_attrs(node)?;
            (
                OpKind::FusedMatMul { has_bias, activation },
                matmul_shape(&node.name, arg(0)?, arg(1)?)?,
            )
        }
        "_FusedConv2D" => {
            let (has_bias, activation) = fused_epilogue_attrs(node)?;
            let strides = attr_pair(node, "strides", (1, 1));
            let padding = attr_padding(node)?;
            let info = conv2d_info("Conv2D", arg(0)?, arg(1)?, strides, padding, (1, 1))?;
            (
                OpKind::FusedConv2d { strides, padding, has_bias, activation },
                info.out_shape(),
            )
        }
        "_FusedDepthwiseConv2dNative" => {
            let (has_bias, activation) = fused_epilogue_attrs(node)?;
            let strides = attr_pair(node, "strides", (1, 1));
            let padding = attr_padding(node)?;
            let info = depthwise_conv2d_info(
                "DepthwiseConv2dNative",
                arg(0)?,
                arg(1)?,
                strides,
                padding,
                (1, 1),
            )?;
            (
                OpKind::FusedDepthwiseConv2d { strides, padding, has_bias, activation },
                info.out_shape(),
            )
        }
        "_FusedElementwise" => {
            let steps = parse_steps(node)?;
            let mut shape = arg(0)?.clone();
            for step in &steps {
                if let FusedStep::Binary(_, idx) = step {
                    shape = broadcast_shapes("plan", &shape, arg(idx + 1)?)?;
                }
            }
            (OpKind::FusedElementwise { steps }, shape)
        }
        "Mean" => {
            let axes: Vec<isize> = node
                .attrs
                .get("axes")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_i64).map(|d| d as isize).collect())
                .unwrap_or_else(|| vec![1, 2]);
            let input = arg(0)?;
            let normalized = normalize_axes("Mean", Some(&axes), input.rank())?;
            (OpKind::Mean { axes }, reduced_shape(input, &normalized, false))
        }
        other => {
            return Err(Error::invalid(
                "plan",
                format!("unsupported op {other} (node {})", node.name),
            ))
        }
    })
}
