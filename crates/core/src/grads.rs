//! The user-facing gradient API (paper Sec 3.5): eager differentiation in
//! the style of `tf.grad` / `tf.grads` / `tf.valueAndGrads`, and the
//! gradient rule of every kernel.
//!
//! While the supplied function runs, every kernel call is recorded on a
//! tape; backpropagation then walks the tape in reverse over the nodes that
//! lie on a path from the requested inputs to the output, differentiating
//! each by `rule` — one match over the
//! [`KernelCall`](crate::backend::KernelCall), so a call carries its
//! gradient wherever it is stored (an op, a planned graph node). Because
//! differentiation is eager, native Rust `if`/`while` control flow works
//! inside the closure — no special control-flow ops are needed.

use crate::backend::{BinaryOp, Epilogue, FusedStep, KernelCall as C, ReduceOp, UnaryOp};
use crate::dtype::DType;
use crate::engine::Engine;
use crate::error::{Error, Result};
use crate::ops::{self, *};
use crate::shape::{broadcast_reduce_axes, reduced_shape, Shape};
use crate::int_hash::IntMap;
use crate::tape::{Grad, Tape, TapeNode};
use crate::tensor::Tensor;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

impl Engine {
    /// Compute `f()` and the gradients of its scalar-ish output with respect
    /// to each tensor in `xs`.
    ///
    /// Inputs in `xs` that do not influence the output receive a zero
    /// gradient (TensorFlow.js throws in this case; returning zeros composes
    /// better with optimizers over partially-frozen variable sets).
    ///
    /// All intermediate tensors allocated by `f` and by backpropagation are
    /// disposed before returning; only the value and gradients survive.
    /// Backprop frees most of them earlier, each at its last use: a tensor
    /// the tape saved once the last node on the path that saved it has been
    /// walked (at once when only nodes off the path saved it), a gradient
    /// once the node that consumes it has been walked, and an accumuland
    /// once it is added in. It frees only what the end of this call's scope
    /// would: nothing kept, no variable, not the value or an `x`, and
    /// nothing while an outer tape is on the stack. A gradient function
    /// reads the tensors it is handed, not ones it captured from `f`.
    ///
    /// # Errors
    /// Propagates errors from `f` and from gradient rules, and fails with
    /// [`Error::GradientNotDefined`] naming the kernel when a call on the
    /// path has no rule (`Gather`, `Prod`, `FloorDiv`, `Mod`,
    /// `ResizeBilinear`, the gradient kernels themselves, and, run directly
    /// on the engine, an element-wise chain or a fused product whose
    /// activation's gradient does not read its output).
    pub fn value_and_grads(
        &self,
        xs: &[&Tensor],
        f: impl FnOnce() -> Result<Tensor>,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        self.start_scope("grads");
        let result = self.value_and_grads_inner(xs, f);
        match &result {
            Ok((y, gs)) => {
                let mut keep: Vec<usize> = gs.iter().map(|g| g.id()).collect();
                keep.push(y.id());
                self.end_scope(&keep);
            }
            Err(_) => self.end_scope(&[]),
        }
        result
    }

    fn value_and_grads_inner(
        &self,
        xs: &[&Tensor],
        f: impl FnOnce() -> Result<Tensor>,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        let scope = self.scope_id();
        self.push_tape();
        let y = match f() {
            Ok(y) => y,
            Err(e) => {
                drop(self.pop_tape());
                return Err(e);
            }
        };
        let tape = self.pop_tape();

        let x_ids: Vec<usize> = xs.iter().map(|t| t.id()).collect();
        let (path, from_x) = tape.filter_nodes(&x_ids, &[y.id()]);
        // An outer tape keeps every tensor this one saved: free nothing.
        let scope = scope.filter(|_| !self.has_tape());
        let mut live = Liveness::new(self, scope, &tape, &path, &x_ids, y.id());

        // Seed dL/dy = 1.
        let mut grad_map: HashMap<usize, Tensor> = HashMap::new();
        let seed = ops::ones_like(&y)?;
        live.hold(seed.id());
        grad_map.insert(y.id(), seed);

        for &i in path.iter().rev() {
            let node = &tape.nodes[i];
            if node.outputs.iter().any(|out| grad_map.contains_key(&out.id())) {
                live.differentiate(node, &mut grad_map, &from_x)?;
            }
            live.read(node);
        }

        let mut grads = Vec::with_capacity(xs.len());
        for x in xs {
            match grad_map.get(&x.id()) {
                Some(g) => grads.push(g.clone()),
                None => grads.push(ops::zeros_like(x)?),
            }
        }
        Ok((y, grads))
    }

    /// Gradients only; the output value is disposed.
    ///
    /// # Errors
    /// See [`Engine::value_and_grads`].
    pub fn grads(&self, xs: &[&Tensor], f: impl FnOnce() -> Result<Tensor>) -> Result<Vec<Tensor>> {
        let (y, gs) = self.value_and_grads(xs, f)?;
        y.dispose();
        Ok(gs)
    }

    /// Single-input convenience: `d f(x) / d x`.
    ///
    /// # Errors
    /// See [`Engine::value_and_grads`].
    pub fn grad(&self, x: &Tensor, f: impl FnOnce() -> Result<Tensor>) -> Result<Tensor> {
        Ok(self.grads(&[x], f)?.remove(0))
    }
}

/// What the backprop walk still reads, so that each tensor is freed at its
/// last use — the liveness a converter plan's `dispose_after` has, found on
/// the tape. A tensor is freed only when the grads scope's end would dispose
/// it anyway ([`Engine::dispose_in_scope`]), it is not `y` or an `x`, no
/// gradient-map entry holds it (the `Cast` and view rules hand `dy` on as
/// the input's gradient), and no node still to be walked saved it.
struct Liveness<'a> {
    engine: &'a Engine,
    /// The grads scope; `None` frees nothing.
    scope: Option<usize>,
    /// Per saved tensor, the path nodes still to be walked that saved it.
    reads: IntMap<usize, u32>,
    /// Per tensor, the gradient-map entries holding it.
    held: IntMap<usize, u32>,
    /// The `xs` and `y`, which the caller holds.
    xs: Vec<usize>,
    y: usize,
}

impl<'a> Liveness<'a> {
    /// Count each path node's saved tensors and free those only off-path
    /// nodes saved.
    fn new(
        engine: &'a Engine,
        scope: Option<usize>,
        tape: &Tape,
        path: &[usize],
        x_ids: &[usize],
        y_id: usize,
    ) -> Liveness<'a> {
        let (reads, held, xs) = (IntMap::default(), IntMap::default(), x_ids.to_vec());
        let mut live = Liveness { engine, scope, reads, held, xs, y: y_id };
        if scope.is_some() {
            for &i in path {
                for id in saved(&tape.nodes[i]) {
                    *live.reads.entry(id).or_default() += 1;
                }
            }
            for id in tape.nodes.iter().flat_map(saved) {
                live.release(id);
            }
        }
        live
    }

    /// Free `id` if nothing still reads it.
    fn release(&self, id: usize) {
        let Some(scope) = self.scope else { return };
        let read = self.reads.contains_key(&id) || self.held.contains_key(&id);
        if read || id == self.y || self.xs.contains(&id) {
            return;
        }
        self.engine.dispose_in_scope(id, scope);
    }

    /// A gradient-map entry now holds `id`.
    fn hold(&mut self, id: usize) {
        if self.scope.is_some() {
            *self.held.entry(id).or_default() += 1;
        }
    }

    /// A gradient-map entry no longer holds `id`.
    fn unhold(&mut self, id: usize) {
        if let Some(n) = self.held.get_mut(&id) {
            *n -= 1;
            if *n == 0 {
                self.held.remove(&id);
                self.release(id);
            }
        }
    }

    /// The walk is past `node`: its saved tensors have one reader fewer.
    fn read(&mut self, node: &TapeNode) {
        if self.scope.is_none() {
            return;
        }
        for id in saved(node) {
            if let Some(n) = self.reads.get_mut(&id) {
                *n -= 1;
                if *n == 0 {
                    self.reads.remove(&id);
                    self.release(id);
                }
            }
        }
    }

    /// Run `node`'s rule, add what it returns into the gradient map, and
    /// release the node's consumed output gradients.
    fn differentiate(
        &mut self,
        node: &TapeNode,
        grad_map: &mut HashMap<usize, Tensor>,
        from_x: &HashSet<usize>,
    ) -> Result<()> {
        // Assemble output gradients (zeros where nothing flowed).
        let mut dys = Vec::with_capacity(node.outputs.len());
        for out in &node.outputs {
            match grad_map.get(&out.id()) {
                Some(g) => dys.push(g.clone()),
                None => dys.push(ops::zeros_like(out)?),
            }
        }
        // Only an input that depends on an x can pass its gradient on.
        let wanted: Vec<bool> = node.input_ids.iter().map(|id| from_x.contains(id)).collect();
        let (ins, outs) = (&node.inputs, &node.outputs);
        let input_grads = match &node.grad {
            Grad::Call(call) => rule(call, &dys, ins, outs, &wanted),
            Grad::Alias => alias_rule(&dys[0], &ins[0]).map(|g| vec![Some(g)]),
            Grad::Custom(grad_fn) => grad_fn(&dys, ins, outs, &wanted),
        }
        .map_err(|e| match e {
            Error::GradientNotDefined { .. } => Error::GradientNotDefined { op: node.kernel },
            other => other,
        })?;
        if input_grads.len() != node.inputs.len() {
            return Err(Error::invalid(
                "grads",
                format!(
                    "gradient of {} returned {} grads for {} inputs",
                    node.kernel,
                    input_grads.len(),
                    node.inputs.len()
                ),
            ));
        }
        for ((input, g), &read) in node.inputs.iter().zip(input_grads).zip(&wanted) {
            // A function that ignored the mask may still fill the slot.
            let Some(g) = g.filter(|_| read) else { continue };
            let g = match grad_map.remove(&input.id()) {
                Some(existing) => {
                    let sum = ops::add(&existing, &g)?;
                    self.unhold(existing.id());
                    self.release(g.id());
                    sum
                }
                None => g,
            };
            self.hold(g.id());
            grad_map.insert(input.id(), g);
        }
        // Every reader of the outputs has been walked: their gradients are
        // consumed.
        for out in &node.outputs {
            if let Some(g) = grad_map.remove(&out.id()) {
                self.unhold(g.id());
            }
        }
        Ok(())
    }
}

/// The ids of the tensors `node` saved.
fn saved(node: &TapeNode) -> impl Iterator<Item = usize> + '_ {
    node.input_ids.iter().chain(&node.output_ids).copied()
}

/// The gradient of a view (`reshape`, `identity`): `dy` under the input's
/// shape.
fn alias_rule(dy: &Tensor, x: &Tensor) -> Result<Tensor> {
    if dy.shape_ref() == x.shape_ref() {
        Ok(dy.clone())
    } else {
        reshape(dy, x.shape())
    }
}

/// The gradient rule of a kernel call: given the gradients flowing into its
/// output (`dys`), its saved inputs and outputs and the `wanted` mask, one
/// slot per input — the [`crate::tape::GradFn`] contract. A rule whose
/// gradients cost a kernel skips the unwanted inputs; a cheap one ignores the
/// mask. Every attribute a rule needs is on the call or its saved operands.
///
/// # Errors
/// [`Error::GradientNotDefined`] for a call without a rule.
fn rule(
    call: &C<'_>,
    dys: &[Tensor],
    ins: &[Tensor],
    outs: &[Tensor],
    wanted: &[bool],
) -> Result<Vec<Option<Tensor>>> {
    let (dy, x) = (&dys[0], &ins[0]);
    let one = |g: Result<Tensor>| Ok(vec![Some(g?)]);
    match call {
        C::Unary(op) => one(unary_rule(*op, dy, x, &outs[0])),
        C::Binary(op) => {
            // Each side, and the `Sum` that undoes its broadcast, runs only
            // when someone reads it.
            let side = |i: usize| -> Result<Option<Tensor>> {
                if !wanted[i] {
                    return Ok(None);
                }
                let g = binary_rule(*op, i, dy, x, &ins[1])?;
                Ok(Some(sum_to_shape(&g, ins[i].shape_ref())?))
            };
            Ok(vec![side(0)?, side(1)?])
        }
        C::Cast(_) => one(Ok(dy.clone())),
        C::Reduce { op, axes } => {
            let in_shape = x.shape_ref();
            let back = |then| broadcast_back(dy, in_shape, axes, then);
            match op {
                ReduceOp::Sum => one(back(None)),
                ReduceOp::Mean => {
                    let count: usize = axes.iter().map(|&i| in_shape.dim(i)).product();
                    let n = dy.engine().scalar(count.max(1) as f32)?;
                    one(back(Some((BinaryOp::Div, &n))))
                }
                // The gradient flows to every element equal to the extremum.
                ReduceOp::Max | ReduceOp::Min => {
                    let y_kept = reshape(&outs[0], reduced_shape(in_shape, axes, true))?;
                    let mask = cast(&equal(x, &y_kept)?, DType::F32)?;
                    one(back(Some((BinaryOp::Mul, &mask))))
                }
                _ => Err(Error::GradientNotDefined { op: call.name() }),
            }
        }
        C::MatMul { transpose_a, transpose_b, epilogue: Epilogue::None } => {
            let b = &ins[1];
            let da = || match (transpose_a, transpose_b) {
                (false, false) => matmul(dy, b, false, true),
                (false, true) => matmul(dy, b, false, false),
                (true, false) => matmul(b, dy, false, true),
                (true, true) => matmul(b, dy, true, true),
            };
            let db = || match (transpose_a, transpose_b) {
                (false, false) => matmul(x, dy, true, false),
                (false, true) => matmul(dy, x, true, false),
                (true, false) => matmul(x, dy, false, false),
                (true, true) => matmul(dy, x, true, true),
            };
            Ok(vec![wanted[0].then(da).transpose()?, wanted[1].then(db).transpose()?])
        }
        // A fused product: its activation's rule read from the output, the
        // bias's sum, then the plain product's rule — the kernels the
        // unfused tape runs, in its order, without the pre-bias and
        // pre-activation tensors it saves.
        C::MatMul { epilogue: Epilogue::Fused { bias, activation }, .. }
        | C::Conv2d { epilogue: Epilogue::Fused { bias, activation }, .. }
        | C::DepthwiseConv2d { epilogue: Epilogue::Fused { bias, activation }, .. }
            if activation.is_none_or(reads_output) =>
        {
            let y = &outs[0];
            let dz = match activation {
                Some(act) => unary_rule(*act, dy, y, y)?,
                None => dy.clone(),
            };
            let db = (*bias && wanted[2]).then(|| sum_to_shape(&dz, ins[2].shape_ref()));
            let plain = call.with_epilogue(Epilogue::None);
            let mut grads = rule(&plain, std::slice::from_ref(&dz), &ins[..2], outs, &wanted[..2])?;
            if *bias {
                grads.push(db.transpose()?);
            }
            Ok(grads)
        }
        // The first layer's dx (a gradient w.r.t. the input batch) is the
        // costliest kernel nobody reads: each side runs only when wanted.
        C::Conv2d { info, epilogue: Epilogue::None } => {
            let info = Cow::Borrowed(&**info);
            let dx = wanted[0].then(|| backprop(C::Conv2dBackpropInput(info.clone()), dy, &ins[1]));
            let dw = wanted[1].then(|| backprop(C::Conv2dBackpropFilter(info), x, dy));
            Ok(vec![dx.transpose()?, dw.transpose()?])
        }
        C::DepthwiseConv2d { info, epilogue: Epilogue::None } => {
            let info = Cow::Borrowed(&**info);
            let dx = wanted[0]
                .then(|| backprop(C::DepthwiseConv2dBackpropInput(info.clone()), dy, &ins[1]));
            let dw = wanted[1].then(|| backprop(C::DepthwiseConv2dBackpropFilter(info), x, dy));
            Ok(vec![dx.transpose()?, dw.transpose()?])
        }
        C::Pool2d { op, info } => {
            one(backprop(C::Pool2dBackprop { op: *op, info: Cow::Borrowed(&**info) }, dy, x))
        }
        C::Slice { begin, size } => {
            let in_dims = x.shape_ref().dims();
            let pads: Vec<(usize, usize)> =
                (0..in_dims.len()).map(|i| (begin[i], in_dims[i] - begin[i] - size[i])).collect();
            one(pad(dy, &pads, 0.0))
        }
        C::Concat { axis } => {
            // Slice dy back into the per-input gradients someone reads.
            let mut offset = 0;
            let mut grads = Vec::with_capacity(ins.len());
            for (t, &wanted) in ins.iter().zip(wanted) {
                let mut begin = vec![0; t.rank()];
                begin[*axis] = offset;
                grads.push(wanted.then(|| slice(dy, &begin, t.shape_ref().dims())).transpose()?);
                offset += t.shape_ref().dim(*axis);
            }
            Ok(grads)
        }
        C::Transpose { perm } => {
            let mut inv = vec![0usize; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inv[p] = i;
            }
            one(transpose(dy, Some(&inv)))
        }
        C::Pad { paddings, .. } => {
            let begins: Vec<usize> = paddings.iter().map(|&(b, _)| b).collect();
            one(slice(dy, &begins, x.shape_ref().dims()))
        }
        // `dy` viewed as `[r0, d0, r1, d1, …]`, summed over the rep axes.
        C::Tile { reps } => {
            let dims = x.shape_ref().dims();
            let split: Vec<usize> = reps.iter().zip(dims).flat_map(|(&r, &d)| [r, d]).collect();
            let rep_axes: Vec<isize> = (0..dims.len() as isize).map(|i| 2 * i).collect();
            one(sum(&reshape(dy, split)?, Some(&rep_axes), false))
        }
        C::Reverse { axes } => {
            let axes: Vec<isize> = axes.iter().map(|&a| a as isize).collect();
            one(reverse(dy, &axes))
        }
        // `dy` goes to `a` where the condition held and to `b` elsewhere;
        // the condition receives none.
        C::Select => {
            let cond = x;
            let zero = zeros_like(dy)?;
            let da = if wanted[1] {
                Some(sum_to_shape(&select(cond, dy, &zero)?, ins[1].shape_ref())?)
            } else {
                None
            };
            let db = if wanted[2] {
                Some(sum_to_shape(&select(cond, &zero, dy)?, ins[2].shape_ref())?)
            } else {
                None
            };
            Ok(vec![None, da, db])
        }
        _ => Err(Error::GradientNotDefined { op: call.name() }),
    }
}

/// Whether `act`'s gradient can be read from its output as well as from its
/// input, so that a product fused with it is differentiated as itself: the
/// rules of `Sigmoid` and `Tanh` read `y`, and `step(relu(x)) == step(x)`
/// for every `x`, NaN included (`f32::max(NaN, 0) == 0`), as `Relu6`'s mask
/// does through `clamp`.
pub(crate) fn reads_output(act: UnaryOp) -> bool {
    matches!(act, UnaryOp::Relu | UnaryOp::Relu6 | UnaryOp::Sigmoid | UnaryOp::Tanh)
}

/// `d op(a) / da · dy`, given the output `y`.
fn unary_rule(op: UnaryOp, dy: &Tensor, a: &Tensor, y: &Tensor) -> Result<Tensor> {
    use UnaryOp as U;
    let e = a.engine();
    match op {
        U::Neg => neg(dy),
        U::Abs => mul(dy, &sign(a)?),
        U::Exp => mul(dy, y),
        U::Expm1 => mul(dy, &exp(a)?),
        U::Log => div(dy, a),
        U::Log1p => {
            let one = e.scalar(1.0)?;
            div(dy, &add(a, &one)?)
        }
        U::Sqrt => {
            let two_y = mul(y, &e.scalar(2.0)?)?;
            div(dy, &two_y)
        }
        U::Rsqrt => {
            // d/dx x^{-1/2} = -1/2 x^{-3/2} = -1/2 y^3.
            let y3 = mul(&mul(y, y)?, y)?;
            let half = e.scalar(-0.5)?;
            mul(dy, &mul(&y3, &half)?)
        }
        U::Square => {
            let two_a = mul(a, &e.scalar(2.0)?)?;
            mul(dy, &two_a)
        }
        // `step(a) · dy`: the mask is 0 or 1, never NaN, so the product is
        // `dy · step(a)` to the bit.
        U::Relu => fused_elementwise(a, &[dy], &[FusedStep::Unary(U::Step(0.0)), mul_by(0)]),
        U::Relu6 => {
            let lo = greater(a, &e.scalar(0.0)?)?;
            let hi = less(a, &e.scalar(6.0)?)?;
            let mask = cast(&logical_and(&lo, &hi)?, DType::F32)?;
            mul(dy, &mask)
        }
        U::Sigmoid => {
            let one = e.scalar(1.0)?;
            mul(dy, &mul(y, &sub(&one, y)?)?)
        }
        U::Tanh => {
            let one = e.scalar(1.0)?;
            mul(dy, &sub(&one, &mul(y, y)?)?)
        }
        U::Elu => {
            // dy where a >= 0, dy * e^a otherwise (= dy * (y + 1)).
            let mask = cast(&greater_equal(a, &e.scalar(0.0)?)?, DType::F32)?;
            let pos = mul(dy, &mask)?;
            let one = e.scalar(1.0)?;
            let neg_part = mul(dy, &add(y, &one)?)?;
            let inv = sub(&one, &mask)?;
            add(&pos, &mul(&neg_part, &inv)?)
        }
        U::Selu => {
            const ALPHA: f32 = 1.673_263_2;
            const SCALE: f32 = 1.050_701;
            let mask = cast(&greater_equal(a, &e.scalar(0.0)?)?, DType::F32)?;
            let pos = mul(dy, &mul(&mask, &e.scalar(SCALE)?)?)?;
            let exp_a = exp(a)?;
            let neg_scale = e.scalar(SCALE * ALPHA)?;
            let one = e.scalar(1.0)?;
            let inv = sub(&one, &mask)?;
            let neg_part = mul(dy, &mul(&mul(&exp_a, &neg_scale)?, &inv)?)?;
            add(&pos, &neg_part)
        }
        U::Softplus => mul(dy, &sigmoid(a)?),
        U::Sin => mul(dy, &cos(a)?),
        U::Cos => neg(&mul(dy, &sin(a)?)?),
        U::Tan => {
            let c = cos(a)?;
            div(dy, &mul(&c, &c)?)
        }
        U::Asin => {
            let one = e.scalar(1.0)?;
            div(dy, &sqrt(&sub(&one, &mul(a, a)?)?)?)
        }
        U::Acos => {
            let one = e.scalar(1.0)?;
            neg(&div(dy, &sqrt(&sub(&one, &mul(a, a)?)?)?)?)
        }
        U::Atan => {
            let one = e.scalar(1.0)?;
            div(dy, &add(&one, &mul(a, a)?)?)
        }
        U::Floor | U::Ceil | U::Round | U::Sign | U::Step(_) => zeros_like(dy),
        U::Reciprocal => neg(&div(dy, &mul(a, a)?)?),
        U::LeakyRelu(alpha) => {
            let mask = cast(&greater_equal(a, &e.scalar(0.0)?)?, DType::F32)?;
            let one = e.scalar(1.0)?;
            let slope = e.scalar(alpha)?;
            let inv = mul(&sub(&one, &mask)?, &slope)?;
            mul(dy, &add(&mask, &inv)?)
        }
        U::ClipByValue(min, max) => {
            let ge = greater_equal(a, &e.scalar(min)?)?;
            let le = less_equal(a, &e.scalar(max)?)?;
            let mask = cast(&logical_and(&ge, &le)?, DType::F32)?;
            mul(dy, &mask)
        }
        U::Erf => {
            // d erf(x)/dx = 2/sqrt(pi) * e^{-x^2}.
            let coeff = e.scalar(2.0 / std::f32::consts::PI.sqrt())?;
            let x2 = mul(a, a)?;
            let g = mul(&coeff, &exp(&neg(&x2)?)?)?;
            mul(dy, &g)
        }
        // Bool outputs, which the tape never records.
        U::IsNan | U::IsInf | U::IsFinite | U::LogicalNot => {
            Err(Error::GradientNotDefined { op: op.name() })
        }
    }
}

/// Side `i` (0: `a`, 1: `b`) of `d op(a, b) · dy`, before the sum that
/// undoes its broadcast.
fn binary_rule(op: BinaryOp, i: usize, dy: &Tensor, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    use BinaryOp as B;
    let e = a.engine();
    match (op, i) {
        (B::Add, _) | (B::Sub, 0) => Ok(dy.clone()),
        (B::Sub, _) => neg(dy),
        (B::Mul, 0) => mul(dy, b),
        (B::Mul, _) => mul(dy, a),
        (B::Div, 0) => div(dy, b),
        (B::Div, _) => {
            let steps = [mul_by(0), FusedStep::Binary(B::Div, 1), FusedStep::Unary(UnaryOp::Neg)];
            fused_elementwise(dy, &[a, &mul(b, b)?], &steps)
        }
        // da = dy * b * a^(b-1)
        (B::Pow, 0) => {
            let one = e.scalar(1.0)?;
            let bm1 = sub(b, &one)?;
            mul(dy, &mul(b, &pow(a, &bm1)?)?)
        }
        // db = dy * a^b * ln(a); define ln(a) = 0 where a <= 0 like tfjs.
        (B::Pow, _) => {
            let zero = e.scalar(0.0)?;
            let safe_log = select(
                &greater(a, &zero)?,
                &log(&maximum(a, &e.scalar(f32::MIN_POSITIVE)?)?)?,
                &zeros_like(a)?,
            )?;
            mul(dy, &mul(&pow(a, b)?, &safe_log)?)
        }
        (B::Maximum, 0) => mul(dy, &cast(&greater_equal(a, b)?, DType::F32)?),
        (B::Maximum, _) => mul(dy, &cast(&less(a, b)?, DType::F32)?),
        (B::Minimum, 0) => mul(dy, &cast(&less_equal(a, b)?, DType::F32)?),
        (B::Minimum, _) => mul(dy, &cast(&greater(a, b)?, DType::F32)?),
        (B::SquaredDifference, _) => {
            let two = e.scalar(if i == 0 { 2.0 } else { -2.0 })?;
            mul(dy, &mul(&two, &sub(a, b)?)?)
        }
        // da = dy * b / (a² + b²), db = -dy * a / (a² + b²)
        (B::Atan2, _) => {
            let denom = add(&mul(a, a)?, &mul(b, b)?)?;
            if i == 0 {
                div(&mul(dy, b)?, &denom)
            } else {
                neg(&div(&mul(dy, a)?, &denom)?)
            }
        }
        _ => Err(Error::GradientNotDefined { op: op.name() }),
    }
}

/// A gradient kernel over its two operands.
fn backprop(call: C<'_>, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.engine().run_kernel(&call, &[a, b])
}

/// A chain step that multiplies by `extras[i]`.
fn mul_by(i: usize) -> FusedStep {
    FusedStep::Binary(BinaryOp::Mul, i)
}

/// Broadcast a reduced gradient `dy` back up to `shape` (insert kept dims,
/// then multiply with ones to broadcast), and apply `then` to the result in
/// the same kernel.
fn broadcast_back(
    dy: &Tensor,
    shape: &Shape,
    axes: &[usize],
    then: Option<(BinaryOp, &Tensor)>,
) -> Result<Tensor> {
    let kept = reduced_shape(shape, axes, true);
    let dy_kept = reshape(dy, kept)?;
    let ones = dy.engine().ones(shape.clone(), DType::F32)?;
    match then {
        None => mul(&dy_kept, &ones),
        Some((op, t)) => {
            fused_elementwise(&dy_kept, &[&ones, t], &[mul_by(0), FusedStep::Binary(op, 1)])
        }
    }
}

/// Reduce `dy` (shaped like the broadcast output) back to `target` shape by
/// summing over the broadcast axes — the gradient counterpart of
/// broadcasting in binary ops.
fn sum_to_shape(dy: &Tensor, target: &Shape) -> Result<Tensor> {
    if dy.shape_ref() == target {
        return Ok(dy.clone());
    }
    let axes = broadcast_reduce_axes(target, dy.shape_ref());
    let axes_isize: Vec<isize> = axes.iter().map(|&a| a as isize).collect();
    let summed = sum(dy, Some(&axes_isize), false)?;
    reshape(&summed, target.clone())
}

#[cfg(test)]
mod tests {
    use crate::ops::testutil::{assert_close, test_engine};
    use crate::ops::{self};

    #[test]
    fn grad_of_square_is_2x() {
        let e = test_engine();
        let x = e.tensor_1d(&[3.0]).unwrap();
        let g = e.grad(&x, || ops::sum(&ops::square(&x)?, None, false)).unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[6.0], 1e-6);
    }

    #[test]
    fn grad_through_chain() {
        // d/dx sum(exp(2x)) at x = 0 is 2.
        let e = test_engine();
        let x = e.tensor_1d(&[0.0]).unwrap();
        let g = e
            .grad(&x, || {
                let two = e.scalar(2.0)?;
                ops::sum(&ops::exp(&ops::mul(&x, &two)?)?, None, false)
            })
            .unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[2.0], 1e-6);
    }

    #[test]
    fn grads_multiple_inputs() {
        // f = sum(a * b): df/da = b, df/db = a.
        let e = test_engine();
        let a = e.tensor_1d(&[2.0, 3.0]).unwrap();
        let b = e.tensor_1d(&[10.0, 20.0]).unwrap();
        let gs = e.grads(&[&a, &b], || ops::sum(&ops::mul(&a, &b)?, None, false)).unwrap();
        assert_close(&gs[0].to_f32_vec().unwrap(), &[10.0, 20.0], 1e-6);
        assert_close(&gs[1].to_f32_vec().unwrap(), &[2.0, 3.0], 1e-6);
    }

    #[test]
    fn fan_out_accumulates() {
        // f = sum(x * x + x): df/dx = 2x + 1.
        let e = test_engine();
        let x = e.tensor_1d(&[4.0]).unwrap();
        let g = e
            .grad(&x, || ops::sum(&ops::add(&ops::mul(&x, &x)?, &x)?, None, false))
            .unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[9.0], 1e-6);
    }

    #[test]
    fn unconnected_input_gets_zeros() {
        let e = test_engine();
        let x = e.tensor_1d(&[1.0]).unwrap();
        let unused = e.tensor_1d(&[5.0, 6.0]).unwrap();
        let gs = e.grads(&[&x, &unused], || ops::sum(&ops::square(&x)?, None, false)).unwrap();
        assert_close(&gs[1].to_f32_vec().unwrap(), &[0.0, 0.0], 1e-9);
    }

    #[test]
    fn native_control_flow_works() {
        // Eager differentiation supports plain Rust `if` (paper Sec 3.5).
        let e = test_engine();
        let x = e.tensor_1d(&[2.0]).unwrap();
        let f = |x: &crate::tensor::Tensor| -> crate::error::Result<crate::tensor::Tensor> {
            let v = x.to_scalar()?;
            if v > 0.0 {
                ops::sum(&ops::mul(x, x)?, None, false)
            } else {
                ops::sum(x, None, false)
            }
        };
        let g = e.grad(&x, || f(&x)).unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[4.0], 1e-6);
    }

    #[test]
    fn intermediates_are_disposed_after_grads() {
        let e = test_engine();
        let x = e.tensor_1d(&[1.0, 2.0]).unwrap();
        let before = e.num_tensors();
        let g = e
            .grad(&x, || {
                let a = ops::exp(&x)?;
                let b = ops::mul(&a, &x)?;
                ops::sum(&b, None, false)
            })
            .unwrap();
        // Only the gradient survives.
        assert_eq!(e.num_tensors(), before + 1);
        g.dispose();
        assert_eq!(e.num_tensors(), before);
    }

    #[test]
    fn matmul_grad_matches_finite_difference() {
        let e = test_engine();
        let a = e.tensor_2d(&[0.5, -0.3, 0.8, 0.1], 2, 2).unwrap();
        let b = e.tensor_2d(&[1.0, 2.0, -1.0, 0.5], 2, 2).unwrap();
        let gs = e
            .grads(&[&a, &b], || ops::sum(&ops::matmul(&a, &b, false, false)?, None, false))
            .unwrap();
        let ga = gs[0].to_f32_vec().unwrap();
        // Finite difference on a[0].
        let f = |av: &[f32]| -> f32 {
            let at = e.tensor_2d(av, 2, 2).unwrap();
            let y = ops::sum(&ops::matmul(&at, &b, false, false).unwrap(), None, false).unwrap();
            let v = y.to_scalar().unwrap();
            at.dispose();
            y.dispose();
            v
        };
        let base = [0.5, -0.3, 0.8, 0.1];
        for i in 0..4 {
            let mut p = base;
            p[i] += 1e-3;
            let mut m = base;
            m[i] -= 1e-3;
            let fd = (f(&p) - f(&m)) / 2e-3;
            assert!((fd - ga[i]).abs() < 1e-2, "i={i} fd={fd} got={}", ga[i]);
        }
    }

    #[test]
    fn tidy_inside_grad_keeps_needed_tensors() {
        // An inner tidy must not dispose tensors needed by backprop.
        let e = test_engine();
        let x = e.tensor_1d(&[2.0]).unwrap();
        let g = e
            .grad(&x, || {
                e.tidy(|| -> crate::error::Result<crate::tensor::Tensor> {
                    let a = ops::exp(&x)?;
                    ops::sum(&ops::mul(&a, &x)?, None, false)
                })
            })
            .unwrap();
        // d/dx (x e^x) = e^x (1 + x) = e^2 * 3.
        assert_close(&g.to_f32_vec().unwrap(), &[(2.0f32).exp() * 3.0], 1e-4);
    }
}

#[cfg(test)]
mod custom_grad_tests {
    use crate::ops::testutil::{assert_close, test_engine};
    use crate::ops;
    use crate::tape::GradFn;
    use std::sync::Arc;

    #[test]
    fn run_custom_overrides_the_composed_gradient() {
        // f(x) = x^2 computed normally, but with a custom gradient of 7
        // (not 2x): backprop must use the override.
        let e = test_engine();
        let x = e.tensor_1d(&[3.0]).unwrap();
        let grad_fn: GradFn = Arc::new(|dys, _ins, _outs, _wanted| {
            let seven = dys[0].engine().scalar(7.0)?;
            Ok(vec![Some(ops::mul(&dys[0], &seven)?)])
        });
        let g = e
            .grad(&x, || {
                let ys = e.run_custom(
                    "SquareCustom",
                    &[&x],
                    || Ok(vec![ops::square(&x)?]),
                    grad_fn.clone(),
                )?;
                ops::sum(&ys[0], None, false)
            })
            .unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[7.0], 1e-6);
    }

    #[test]
    fn run_custom_forward_value_is_normal() {
        let e = test_engine();
        let x = e.tensor_1d(&[2.0, -3.0]).unwrap();
        let grad_fn: GradFn = Arc::new(|dys, _ins, _outs, _wanted| Ok(vec![Some(dys[0].clone())]));
        let ys = e
            .run_custom("Id", &[&x], || Ok(vec![ops::square(&x)?]), grad_fn)
            .unwrap();
        assert_eq!(ys[0].to_f32_vec().unwrap(), vec![4.0, 9.0]);
    }

    #[test]
    fn run_custom_inner_ops_are_not_taped() {
        // A custom op whose inner computation would normally add many tape
        // nodes contributes exactly one gradient path.
        let e = test_engine();
        let x = e.tensor_1d(&[1.5]).unwrap();
        // Custom stable "softplus" with the analytic gradient sigmoid(x).
        let grad_fn: GradFn = Arc::new(|dys, ins, _outs, _wanted| {
            Ok(vec![Some(ops::mul(&dys[0], &ops::sigmoid(&ins[0])?)?)])
        });
        let g = e
            .grad(&x, || {
                let ys = e.run_custom(
                    "StableSoftplus",
                    &[&x],
                    || {
                        // Deliberately convoluted forward; gradient must
                        // still be the single custom one.
                        let a = ops::exp(&x)?;
                        let b = ops::log1p(&a)?;
                        Ok(vec![ops::identity(&b)?])
                    },
                    grad_fn.clone(),
                )?;
                ops::sum(&ys[0], None, false)
            })
            .unwrap();
        let expect = 1.0 / (1.0 + (-1.5f32).exp());
        assert_close(&g.to_f32_vec().unwrap(), &[expect], 1e-5);
    }
}

/// Backprop hands every gradient function the mask of inputs whose gradient
/// someone reads, and the functions that would run a kernel for an unread
/// one skip it; a gradient that is read never changes by a bit.
#[cfg(test)]
mod wanted_mask_tests {
    use crate::conv_util::Padding;
    use crate::engine::Engine;
    use crate::error::Result;
    use crate::ops::testutil::test_engine;
    use crate::ops;
    use crate::tape::GradFn;
    use crate::tensor::Tensor;
    use std::sync::{Arc, Mutex};

    fn wave(e: &Engine, dims: &[usize], step: f32) -> Tensor {
        let vals: Vec<f32> = (0..dims.iter().product()).map(|i| (i as f32 * step).sin()).collect();
        e.tensor(vals, dims.to_vec()).unwrap()
    }

    /// Bits of each gradient and the names of the kernels the call ran.
    fn profiled(
        e: &Engine,
        xs: &[&Tensor],
        f: &dyn Fn() -> Result<Tensor>,
    ) -> (Vec<Vec<u32>>, Vec<&'static str>) {
        let (grads, profile) = e.profile(|| e.grads(xs, f).unwrap());
        let bits = grads
            .iter()
            .map(|g| g.to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect())
            .collect();
        (bits, profile.kernels.iter().map(|k| k.name).collect())
    }

    fn count(kernels: &[&str], name: &str) -> usize {
        kernels.iter().filter(|&&k| k == name).count()
    }

    /// Differentiate `f(a, b)` w.r.t. both, `a` only and `b` only: the
    /// single-input gradients equal the joint ones on bits, `a_kernel` runs
    /// only when `a`'s gradient is asked for and `b_kernel` only for `b`'s.
    fn each_side_alone(
        e: &Engine,
        a: &Tensor,
        b: &Tensor,
        f: &dyn Fn() -> Result<Tensor>,
        a_kernel: &str,
        b_kernel: &str,
    ) {
        let (both, k_both) = profiled(e, &[a, b], f);
        let (only_a, k_a) = profiled(e, &[a], f);
        let (only_b, k_b) = profiled(e, &[b], f);
        assert_eq!(only_a[0], both[0]);
        assert_eq!(only_b[0], both[1]);
        assert_eq!((count(&k_both, a_kernel), count(&k_both, b_kernel)), (1, 1), "{k_both:?}");
        assert_eq!((count(&k_a, a_kernel), count(&k_a, b_kernel)), (1, 0), "{k_a:?}");
        assert_eq!((count(&k_b, a_kernel), count(&k_b, b_kernel)), (0, 1), "{k_b:?}");
    }

    #[test]
    fn conv2d_runs_only_the_backprop_kernel_asked_for() {
        let e = test_engine();
        let x = wave(&e, &[2, 6, 6, 3], 0.17);
        let w = wave(&e, &[3, 3, 3, 4], 0.37);
        let f = || {
            let y = ops::conv2d(&x, &w, (2, 2), Padding::Same, (1, 1))?;
            ops::sum(&ops::square(&y)?, None, false)
        };
        each_side_alone(&e, &x, &w, &f, "Conv2DBackpropInput", "Conv2DBackpropFilter");
    }

    #[test]
    fn depthwise_conv2d_runs_only_the_backprop_kernel_asked_for() {
        let e = test_engine();
        let x = wave(&e, &[2, 5, 5, 3], 0.19);
        let w = wave(&e, &[3, 3, 3, 2], 0.41);
        let f = || {
            let y = ops::depthwise_conv2d(&x, &w, (1, 1), Padding::Same, (1, 1))?;
            ops::sum(&ops::square(&y)?, None, false)
        };
        each_side_alone(
            &e,
            &x,
            &w,
            &f,
            "DepthwiseConv2DBackpropInput",
            "DepthwiseConv2DBackpropFilter",
        );
    }

    #[test]
    fn matmul_runs_one_product_per_gradient_asked_for() {
        let e = test_engine();
        for (ta, tb) in [(false, false), (true, true)] {
            // Logically [4, 5] x [5, 3], stored transposed or not.
            let a = wave(&e, if ta { &[5, 4] } else { &[4, 5] }, 0.13);
            let b = wave(&e, if tb { &[3, 5] } else { &[5, 3] }, 0.29);
            let f = || ops::sum(&ops::square(&ops::matmul(&a, &b, ta, tb)?)?, None, false);
            let (both, k_both) = profiled(&e, &[&a, &b], &f);
            let (only_a, k_a) = profiled(&e, &[&a], &f);
            let (only_b, k_b) = profiled(&e, &[&b], &f);
            assert_eq!((&only_a[0], &only_b[0]), (&both[0], &both[1]));
            // Forward plus one product per gradient.
            assert_eq!(count(&k_both, "MatMul"), 3);
            assert_eq!((count(&k_a, "MatMul"), count(&k_b, "MatMul")), (2, 2));
        }
    }

    #[test]
    fn broadcasting_binary_ops_drop_the_unread_side_and_its_sum() {
        let e = test_engine();
        let x = wave(&e, &[4, 3], 0.23);
        let bias = wave(&e, &[3], 0.31);
        // The forward `Sum` is one; `bias`'s gradient is summed back over
        // the rows it was broadcast along, `x`'s is not.
        let add = || ops::sum(&ops::add(&x, &bias)?, None, false);
        let (both, k_both) = profiled(&e, &[&x, &bias], &add);
        let (only_x, k_x) = profiled(&e, &[&x], &add);
        let (only_bias, k_bias) = profiled(&e, &[&bias], &add);
        assert_eq!((&only_x[0], &only_bias[0]), (&both[0], &both[1]));
        assert_eq!((count(&k_both, "Sum"), count(&k_x, "Sum"), count(&k_bias, "Sum")), (2, 1, 2));

        let mul = || ops::sum(&ops::mul(&x, &bias)?, None, false);
        let (both, k_both) = profiled(&e, &[&x, &bias], &mul);
        let (only_x, k_x) = profiled(&e, &[&x], &mul);
        let (only_bias, k_bias) = profiled(&e, &[&bias], &mul);
        assert_eq!((&only_x[0], &only_bias[0]), (&both[0], &both[1]));
        // Forward `Mul`, the `Mul` that broadcasts the seed back through the
        // forward `Sum`, then `dy * bias` and `dy * x`.
        assert_eq!((count(&k_both, "Mul"), count(&k_x, "Mul"), count(&k_bias, "Mul")), (4, 3, 3));
        assert_eq!((count(&k_both, "Sum"), count(&k_x, "Sum"), count(&k_bias, "Sum")), (2, 1, 2));
    }

    #[test]
    fn concat_and_select_route_the_gradient_only_where_it_is_read() {
        let e = test_engine();
        let a = wave(&e, &[2, 3], 0.23);
        let b = wave(&e, &[2, 3], 0.31);
        let cat = || ops::sum(&ops::square(&ops::concat(&[&a, &b], 0)?)?, None, false);
        let (both, k_both) = profiled(&e, &[&a, &b], &cat);
        let (only_b, k_b) = profiled(&e, &[&b], &cat);
        assert_eq!(only_b[0], both[1]);
        assert_eq!((count(&k_both, "Slice"), count(&k_b, "Slice")), (2, 1));

        let cond = ops::greater(&a, &b).unwrap();
        let pick = || ops::sum(&ops::square(&ops::select(&cond, &a, &b)?)?, None, false);
        let (both, k_both) = profiled(&e, &[&a, &b], &pick);
        let (only_a, k_a) = profiled(&e, &[&a], &pick);
        assert_eq!(only_a[0], both[0]);
        assert_eq!((count(&k_both, "Select"), count(&k_a, "Select")), (3, 2));
    }

    #[test]
    fn fan_in_node_differentiates_only_its_reachable_side() {
        // y = (a · b) · c with only c asked for: the outer product needs its
        // right gradient alone, the inner one is off the path altogether.
        let e = test_engine();
        let a = wave(&e, &[3, 4], 0.11);
        let b = wave(&e, &[4, 2], 0.21);
        let c = wave(&e, &[2, 5], 0.33);
        let f = || {
            let ab = ops::matmul(&a, &b, false, false)?;
            ops::sum(&ops::matmul(&ab, &c, false, false)?, None, false)
        };
        let (all, k_all) = profiled(&e, &[&a, &b, &c], &f);
        let (only_c, k_c) = profiled(&e, &[&c], &f);
        let (only_a, k_a) = profiled(&e, &[&a], &f);
        assert_eq!(only_c[0], all[2]);
        assert_eq!(only_a[0], all[0]);
        // Two forward products; four, one and two backward ones.
        assert_eq!(count(&k_all, "MatMul"), 6);
        assert_eq!(count(&k_c, "MatMul"), 3);
        assert_eq!(count(&k_a, "MatMul"), 4);
    }

    #[test]
    fn an_input_used_twice_wants_both_slots() {
        let e = test_engine();
        let x = wave(&e, &[3, 3], 0.27);
        let other = wave(&e, &[3, 3], 0.43);
        let f = || ops::sum(&ops::add(&ops::matmul(&x, &x, false, false)?, &other)?, None, false);
        let (both, _) = profiled(&e, &[&x, &other], &f);
        let (only_x, k_x) = profiled(&e, &[&x], &f);
        assert_eq!(only_x[0], both[0]);
        // Forward, both backward products, and the `Add` that joins them.
        assert_eq!(count(&k_x, "MatMul"), 3);
        assert_eq!(count(&k_x, "Add"), 2);
    }

    #[test]
    fn run_custom_gets_the_mask_and_may_ignore_it() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0]).unwrap();
        let b = e.tensor_1d(&[3.0, 4.0]).unwrap();
        let seen: Arc<Mutex<Vec<Vec<bool>>>> = Arc::default();
        let log = seen.clone();
        // Fills both slots whatever the mask says.
        let grad_fn: GradFn = Arc::new(move |dys, ins, _outs, wanted| {
            log.lock().unwrap().push(wanted.to_vec());
            Ok(vec![Some(ops::mul(&dys[0], &ins[1])?), Some(ops::mul(&dys[0], &ins[0])?)])
        });
        let f = || {
            let ys = e.run_custom("MulCustom", &[&a, &b], || Ok(vec![ops::mul(&a, &b)?]), grad_fn.clone())?;
            ops::sum(&ys[0], None, false)
        };
        let (both, _) = profiled(&e, &[&a, &b], &f);
        let (only_b, _) = profiled(&e, &[&b], &f);
        assert_eq!(only_b[0], both[1]);
        assert_eq!(*seen.lock().unwrap(), vec![vec![true, true], vec![false, true]]);
    }
}

/// Backprop frees each tensor at its last use. None of the rules that hand
/// a tensor on as a gradient, a tensor `f` keeps, an `x` made before the
/// call, or a gradient of a gradient may lose a value to it: each case
/// gives the bits it gives under an outer tape, which keeps every tensor,
/// and leaves only its gradients behind.
#[cfg(test)]
mod early_free_tests {
    use crate::engine::Engine;
    use crate::error::Result;
    use crate::ops::testutil::{assert_close, test_engine};
    use crate::ops;
    use crate::tape::GradFn;
    use crate::tensor::Tensor;
    use crate::DType;
    use std::sync::Arc;

    fn bits(gs: &[Tensor]) -> Vec<Vec<u32>> {
        gs.iter().map(|g| g.to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// The gradients of `f` w.r.t. `xs`, checked against the same call
    /// under an outer tape and for what it leaves on the engine: the value
    /// and the gradients.
    fn grads(e: &Engine, xs: &[&Tensor], f: &dyn Fn() -> Result<Tensor>) -> Vec<Vec<f32>> {
        let before = e.num_tensors();
        let (y, gs) = e.value_and_grads(xs, f).unwrap();
        assert_eq!(e.num_tensors(), before + 1 + gs.len(), "only the value and gradients are left");
        assert_eq!(y.to_f32_vec().unwrap(), f().unwrap().to_f32_vec().unwrap());
        e.dispose_tensor(y.id());
        let kept = e
            .grads(&[], || {
                let kept = bits(&e.grads(xs, f)?);
                assert_eq!(kept, bits(&gs), "the bits the outer tape keeps");
                e.scalar(0.0)
            })
            .unwrap();
        let values = gs.iter().map(|g| g.to_f32_vec().unwrap()).collect();
        gs.iter().chain(&kept).for_each(Tensor::dispose);
        values
    }

    #[test]
    fn a_cast_hands_its_gradient_on() {
        let e = test_engine();
        let x = e.tensor_1d(&[0.5, -1.0]).unwrap();
        let f = || {
            let y = ops::mul(&ops::cast(&ops::exp(&x)?, DType::F32)?, &ops::cast(&x, DType::F32)?)?;
            ops::sum(&y, None, false)
        };
        let want: Vec<f32> = [0.5f32, -1.0].iter().map(|v| v.exp() * (1.0 + v)).collect();
        assert_close(&grads(&e, &[&x], &f)[0], &want, 1e-6);
    }

    #[test]
    fn views_hand_their_gradient_on() {
        let e = test_engine();
        let x = e.tensor_1d(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let f = || {
            let v = ops::reshape(&ops::identity(&ops::exp(&x)?)?, [2, 2])?;
            let w = ops::slice(&v, &[0, 0], &[2, 2])?;
            ops::sum(&ops::square(&w)?, None, false)
        };
        let want: Vec<f32> =
            [1.0f32, 2.0, 3.0, 4.0].iter().map(|v| 2.0 * (2.0 * v).exp()).collect();
        assert_close(&grads(&e, &[&x], &f)[0], &want, 1e-3);
    }

    #[test]
    fn a_custom_gradient_may_return_dy_or_a_saved_tensor() {
        let e = test_engine();
        let x = e.tensor_1d(&[0.25, -0.5]).unwrap();
        // `dy` itself, then `h` itself (which `Exp` also saved) as d/dh.
        let pass: GradFn = Arc::new(|dys, _, _, _| Ok(vec![Some(dys[0].clone())]));
        let saved: GradFn = Arc::new(|_, ins, _, _| Ok(vec![Some(ins[0].clone())]));
        let f = || {
            let h = ops::exp(&x)?;
            let p = e.run_custom("Pass", &[&h], || Ok(vec![ops::square(&h)?]), pass.clone())?;
            let s = e.run_custom("Saved", &[&p[0]], || Ok(vec![ops::neg(&p[0])?]), saved.clone())?;
            ops::sum(&s[0], None, false)
        };
        // d/dx = p · e^x = e^{3x}.
        let want: Vec<f32> = [0.25f32, -0.5].iter().map(|v| (3.0 * v).exp()).collect();
        assert_close(&grads(&e, &[&x], &f)[0], &want, 1e-5);
    }

    #[test]
    fn a_tensor_kept_inside_f_survives() {
        let e = test_engine();
        let x = e.tensor_1d(&[1.0, -2.0]).unwrap();
        let kept = std::sync::Mutex::new(Vec::new());
        let f = || {
            let k = ops::exp(&x)?;
            k.keep();
            kept.lock().unwrap().push(k.clone());
            ops::sum(&ops::mul(&k, &x)?, None, false)
        };
        let before = e.num_tensors();
        let g = e.grad(&x, f).unwrap();
        let k = kept.lock().unwrap().pop().unwrap();
        assert_eq!(e.num_tensors(), before + 2, "the gradient and the kept tensor");
        assert_close(&k.to_f32_vec().unwrap(), &[1f32.exp(), (-2f32).exp()], 1e-6);
        let want: Vec<f32> = [1.0f32, -2.0].iter().map(|v| v.exp() * (1.0 + v)).collect();
        assert_close(&g.to_f32_vec().unwrap(), &want, 1e-5);
    }

    #[test]
    fn an_x_made_by_the_caller_survives_and_is_differentiated() {
        let e = test_engine();
        let a = e.tensor_1d(&[0.5, 1.5]).unwrap();
        let f = |h: &Tensor| ops::sum(&ops::mul(&ops::square(h)?, h)?, None, false);
        // `h` is made inside a tidy, and inside another gradient's `f`, whose
        // tape records the inner walk (which then frees nothing).
        let (h, g) = e.tidy(|| {
            let h = ops::exp(&a).unwrap();
            let g = grads(&e, &[&h], &|| f(&h)).remove(0);
            (h.to_f32_vec().unwrap(), g)
        });
        assert_close(&g, &h.iter().map(|v| 3.0 * v * v).collect::<Vec<_>>(), 1e-4);
        let outer = || {
            let h = ops::exp(&a)?;
            let g = e.grad(&h, || f(&h))?;
            assert_close(&h.to_f32_vec()?, &[0.5f32.exp(), 1.5f32.exp()], 1e-6);
            ops::sum(&g, None, false)
        };
        grads(&e, &[&a], &outer);
    }

    /// The inner `f`'s forward is recorded on both tapes, so the outer
    /// gradient differentiates it together with the inner walk: for x³ that
    /// is 6x. Freeing early changes none of its bits.
    #[test]
    fn a_gradient_of_a_gradient() {
        let e = test_engine();
        let x = e.tensor_1d(&[2.0, -1.0]).unwrap();
        let cube = || ops::sum(&ops::mul(&ops::mul(&x, &x)?, &x)?, None, false);
        let second = || ops::sum(&e.grad(&x, cube)?, None, false);
        assert_close(&grads(&e, &[&x], &second)[0], &[12.0, -6.0], 1e-5);
    }
}
