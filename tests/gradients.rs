//! Every gradient rule against a central difference, on `cpu`.
//!
//! Backprop differentiates a recorded kernel call by the rule of that call
//! (`webml::core::grads`). The table below runs one call of every kernel
//! through the engine on small shapes — binary ops under broadcasting, a
//! batch-broadcast matmul — and checks each input's gradient against
//! `(f(x + ε) − f(x − ε)) / 2ε` of a weighted sum of the output. The calls
//! without a rule are pinned by name: they fail backprop with
//! `GradientNotDefined` instead of reporting a silent zero, and
//! `variant_index` is an exhaustive match, so a new kernel has to be given a
//! case here (with its rule, or on the pinned list) before the test compiles.

use std::borrow::Cow;
use std::sync::Arc;
use webml::core::backend::{
    ArgReduceOp, BinaryOp, Epilogue, FusedStep, KernelCall, PoolOp, ReduceOp, UnaryOp,
};
use webml::core::conv_util::{
    conv2d_info, depthwise_conv2d_info, pool2d_info, Conv2dInfo, Padding,
};
use webml::core::cpu::CpuBackend;
use webml::{ops, DType, Engine, Error, Result, Shape, Tensor};

/// The kernel calls a gradient is not defined for.
const WITHOUT_A_RULE: [&str; 12] = [
    "Prod",
    "FloorDiv",
    "Mod",
    "Conv2DBackpropInput",
    "Conv2DBackpropFilter",
    "DepthwiseConv2DBackpropInput",
    "DepthwiseConv2DBackpropFilter",
    "PoolBackprop",
    "Gather",
    "OneHot",
    "ResizeBilinear",
    "FusedElementwise",
];

fn engine() -> Engine {
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    e
}

/// Distinct values alternating in sign, at least 0.05 from every multiple
/// of 0.5 (the kinks of the piecewise ops).
fn mixed(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let m = 0.15 + 0.1 * ((i * 7) % 9) as f32;
            if i % 2 == 0 {
                m
            } else {
                -m
            }
        })
        .collect()
}

/// Values in `[0.55, 1.35]`, for the ops defined on positives.
fn positive(n: usize) -> Vec<f32> {
    mixed(n).iter().map(|v| v.abs() + 0.4).collect()
}

/// Values at least 0.02 apart, starting at `from` in one permutation, so a
/// maximum never ties.
fn distinct(n: usize, from: usize) -> Vec<f32> {
    (from..from + n).map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.01).collect()
}

/// How a case makes its output from its inputs.
type Forward = Box<dyn Fn(&[&Tensor]) -> Result<Tensor>>;

/// One differentiated computation: its inputs, which of them the gradient
/// is taken with respect to, and how the output is made from them.
struct Case {
    label: String,
    inputs: Vec<Tensor>,
    wrt: Vec<usize>,
    f: Forward,
}

/// The variant of a call: an exhaustive match, so a new kernel fails to
/// compile until it is given a case below.
fn variant_index(call: &KernelCall<'_>) -> usize {
    use KernelCall as C;
    match call {
        C::Unary(_) => 0,
        C::Binary(_) => 1,
        C::Cast(_) => 2,
        C::Reduce { .. } => 3,
        C::ArgReduce { .. } => 4,
        C::MatMul { .. } => 5,
        C::Conv2d { .. } => 6,
        C::Conv2dBackpropInput(_) => 7,
        C::Conv2dBackpropFilter(_) => 8,
        C::DepthwiseConv2d { .. } => 9,
        C::DepthwiseConv2dBackpropInput(_) => 10,
        C::DepthwiseConv2dBackpropFilter(_) => 11,
        C::Pool2d { .. } => 12,
        C::Pool2dBackprop { .. } => 13,
        C::Slice { .. } => 14,
        C::Concat { .. } => 15,
        C::Transpose { .. } => 16,
        C::Pad { .. } => 17,
        C::Gather { .. } => 18,
        C::Tile { .. } => 19,
        C::Reverse { .. } => 20,
        C::Select => 21,
        C::OneHot { .. } => 22,
        C::ResizeBilinear { .. } => 23,
        C::FusedElementwise(_) => 24,
    }
}
const VARIANTS: usize = 25;

struct Table {
    e: Engine,
    cases: Vec<Case>,
    variants: [bool; VARIANTS],
}

impl Table {
    fn tensor(&self, values: Vec<f32>, dims: &[usize]) -> Tensor {
        self.e.tensor(values, Shape::new(dims.to_vec())).unwrap()
    }

    /// A case that runs `call` itself through the engine.
    fn call(&mut self, call: KernelCall<'static>, inputs: Vec<Tensor>, wrt: &[usize]) {
        self.variants[variant_index(&call)] = true;
        let label = format!("{call:?}");
        let e = self.e.clone();
        let f = Box::new(move |xs: &[&Tensor]| e.run_kernel(&call, xs));
        self.cases.push(Case { label, inputs, wrt: wrt.to_vec(), f });
    }

    /// A case that runs an op, which may dispatch several calls.
    fn op(
        &mut self,
        label: &str,
        inputs: Vec<Tensor>,
        f: impl Fn(&[&Tensor]) -> Result<Tensor> + 'static,
    ) {
        let wrt = (0..inputs.len()).collect();
        self.cases.push(Case { label: label.to_string(), inputs, wrt, f: Box::new(f) });
    }
}

/// The geometry of the convolution cases: a 3×3 conv2d of stride 2 and a
/// 3×3 depthwise conv2d of multiplier 2, both over `[1, 5, 5, 2]`.
fn product_infos() -> (Cow<'static, Conv2dInfo>, Cow<'static, Conv2dInfo>) {
    let (xs, ws) = (Shape::new(vec![1, 5, 5, 2]), Shape::new(vec![3, 3, 2, 3]));
    let conv = conv2d_info("Conv2D", &xs, &ws, (2, 2), Padding::Same, (1, 1)).unwrap();
    let dws = Shape::new(vec![3, 3, 2, 2]);
    let depthwise = depthwise_conv2d_info("Depthwise", &xs, &dws, (1, 1), Padding::Same, (1, 1));
    (Cow::Owned(conv), Cow::Owned(depthwise.unwrap()))
}

/// The three plain product calls with their operands: conv2d, depthwise
/// conv2d and a `[2, 3] x [3, 4]` matmul.
fn products(e: &Engine) -> Vec<(KernelCall<'static>, Tensor, Tensor)> {
    let tensor = |values: Vec<f32>, dims: &[usize]| e.tensor(values, dims.to_vec()).unwrap();
    let (conv, depthwise) = product_infos();
    let plain = Epilogue::None;
    vec![
        (
            KernelCall::Conv2d { info: conv, epilogue: plain },
            tensor(distinct(50, 0), &[1, 5, 5, 2]),
            tensor(mixed(54), &[3, 3, 2, 3]),
        ),
        (
            KernelCall::DepthwiseConv2d { info: depthwise, epilogue: plain },
            tensor(distinct(50, 0), &[1, 5, 5, 2]),
            tensor(mixed(36), &[3, 3, 2, 2]),
        ),
        (
            KernelCall::MatMul { transpose_a: false, transpose_b: false, epilogue: plain },
            tensor(mixed(6), &[2, 3]),
            tensor(mixed(12), &[3, 4]),
        ),
    ]
}

/// A bias for the `n` channels of pre-bias values `z` (channel last) that
/// keeps every `z + bias` at least 0.05 from ReLU's kink at 0.
fn clear_of_the_kink(z: &[f32], n: usize) -> Vec<f32> {
    (0..n)
        .map(|c| {
            let channel: Vec<f32> = z.iter().skip(c).step_by(n).copied().collect();
            (0..400)
                .map(|k| 0.01 * (k / 2) as f32 * if k % 2 == 0 { 1.0 } else { -1.0 })
                .find(|b| channel.iter().all(|v| (v + b).abs() >= 0.05))
                .expect("a bias clears the kink")
        })
        .collect()
}

fn table() -> Table {
    use KernelCall as C;
    let mut t = Table { e: engine(), cases: Vec::new(), variants: [false; VARIANTS] };
    let m23 = || mixed(6);

    use UnaryOp as U;
    let on_positives = [U::Log, U::Log1p, U::Sqrt, U::Rsqrt, U::Reciprocal];
    let unary = [
        U::Neg,
        U::Abs,
        U::Exp,
        U::Expm1,
        U::Square,
        U::Relu,
        U::Relu6,
        U::Sigmoid,
        U::Tanh,
        U::Elu,
        U::Selu,
        U::Softplus,
        U::Sin,
        U::Cos,
        U::Tan,
        U::Asin,
        U::Acos,
        U::Atan,
        U::Floor,
        U::Ceil,
        U::Round,
        U::Sign,
        U::LeakyRelu(0.2),
        U::ClipByValue(-0.5, 0.5),
        U::Step(0.3),
        U::Erf,
    ];
    for op in on_positives.into_iter().chain(unary) {
        let values = if on_positives.contains(&op) { positive(6) } else { m23() };
        // Inside arcsine's domain, away from its poles.
        let scale = if matches!(op, U::Asin | U::Acos) { 0.8 } else { 1.0 };
        let x = t.tensor(values.iter().map(|v| v * scale).collect(), &[2, 3]);
        t.call(C::Unary(op), vec![x], &[0]);
    }
    // A bool output records nothing: its input's gradient is zero, which is
    // what the difference measures too.
    let x = t.tensor(m23(), &[2, 3]);
    t.call(C::Unary(U::IsNan), vec![x], &[0]);

    use BinaryOp as B;
    let binary = [
        B::Add,
        B::Sub,
        B::Mul,
        B::Div,
        B::Pow,
        B::Maximum,
        B::Minimum,
        B::SquaredDifference,
        B::Atan2,
        B::FloorDiv,
        B::Mod,
        B::Greater,
    ];
    for op in binary {
        // `b` broadcasts along `a`'s rows; a positive `b` keeps division
        // and `Pow`'s `ln a` (through a positive `a`) defined.
        let a = match op {
            B::Pow => positive(6),
            B::Maximum | B::Minimum | B::Greater => distinct(6, 0),
            _ => m23(),
        };
        let b = match op {
            B::Maximum | B::Minimum | B::Greater => distinct(3, 6),
            B::Pow | B::Sub | B::Mul | B::SquaredDifference => mixed(3),
            _ => positive(3),
        };
        let (a, b) = (t.tensor(a, &[2, 3]), t.tensor(b, &[3]));
        t.call(C::Binary(op), vec![a, b], &[0, 1]);
    }

    let x = t.tensor(m23(), &[2, 3]);
    t.call(C::Cast(DType::F32), vec![x], &[0]);
    for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod] {
        let x = t.tensor(distinct(12, 0), &[3, 4]);
        t.call(C::Reduce { op, axes: Cow::Owned(vec![1]) }, vec![x], &[0]);
    }
    let x = t.tensor(distinct(12, 0), &[3, 4]);
    t.call(C::ArgReduce { op: ArgReduceOp::ArgMax, axis: 1 }, vec![x], &[0]);

    for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
        let a = t.tensor(mixed(6), if ta { &[3, 2] } else { &[2, 3] });
        let b = t.tensor(distinct(12, 3), if tb { &[4, 3] } else { &[3, 4] });
        let call = C::MatMul { transpose_a: ta, transpose_b: tb, epilogue: Epilogue::None };
        t.call(call, vec![a, b], &[0, 1]);
    }
    // A batch of 1 broadcast against the other operand's batch: the op
    // tiles it, and the tile's gradient sums the copies back.
    let (a, b) = (t.tensor(mixed(6), &[2, 3]), t.tensor(distinct(24, 0), &[4, 3, 2]));
    t.op("matmul [2, 3] x [4, 3, 2]", vec![a, b], |xs| ops::matmul(xs[0], xs[1], false, false));
    let (x, w) = (t.tensor(distinct(24, 0), &[4, 2, 3]), t.tensor(mixed(6), &[3, 2]));
    t.op("matmul [4, 2, 3] x [3, 2]", vec![x, w], |xs| ops::matmul(xs[0], xs[1], false, false));
    let x = t.tensor(mixed(6), &[2, 3]);
    t.op("reshape", vec![x], |xs| ops::reshape(xs[0], [3, 2]));

    let (conv, depthwise) = product_infos();
    // Each product plain, then fused with a bias and ReLU: the bias keeps
    // every pre-activation clear of the kink, where no central difference
    // agrees with a rule (see `a_fused_product_at_relus_kink_...`).
    for (plain, x, w) in products(&t.e) {
        t.call(plain.clone(), vec![x.clone(), w.clone()], &[0, 1]);
        let z = t.e.run_kernel(&plain, &[&x, &w]).unwrap();
        let n = *z.dims().last().unwrap();
        let bias = t.tensor(clear_of_the_kink(&z.to_f32_vec().unwrap(), n), &[n]);
        let fused = plain.with_epilogue(Epilogue::Fused { bias: true, activation: Some(U::Relu) });
        t.call(fused, vec![x, w, bias], &[0, 1, 2]);
    }
    let x1 = t.tensor(distinct(50, 0), &[1, 5, 5, 2]);
    let x2 = t.tensor(distinct(50, 0), &[1, 5, 5, 2]);
    let (w, dw) = (t.tensor(mixed(54), &[3, 3, 2, 3]), t.tensor(mixed(36), &[3, 3, 2, 2]));
    let dy = t.tensor(mixed(27), &[1, 3, 3, 3]);
    t.call(C::Conv2dBackpropInput(conv.clone()), vec![dy.clone(), w.clone()], &[0, 1]);
    t.call(C::Conv2dBackpropFilter(conv.clone()), vec![x1.clone(), dy], &[0, 1]);
    let dy = t.tensor(mixed(100), &[1, 5, 5, 4]);
    let call = C::DepthwiseConv2dBackpropInput(depthwise.clone());
    t.call(call, vec![dy.clone(), dw.clone()], &[0, 1]);
    t.call(C::DepthwiseConv2dBackpropFilter(depthwise), vec![x2, dy], &[0, 1]);

    let ps = Shape::new(vec![1, 4, 4, 2]);
    let max = pool2d_info("MaxPool", &ps, (2, 2), (2, 2), Padding::Valid).unwrap();
    let avg = pool2d_info("AvgPool", &ps, (2, 2), (1, 1), Padding::Same).unwrap();
    for (op, info) in [(PoolOp::Max, max.clone()), (PoolOp::Avg, avg)] {
        let x = t.tensor(distinct(32, 0), &[1, 4, 4, 2]);
        t.call(C::Pool2d { op, info: Cow::Owned(info) }, vec![x], &[0]);
    }
    let (dy, x) = (t.tensor(mixed(8), &[1, 2, 2, 2]), t.tensor(distinct(32, 0), &[1, 4, 4, 2]));
    t.call(C::Pool2dBackprop { op: PoolOp::Max, info: Cow::Owned(max) }, vec![dy, x], &[0]);

    let x = t.tensor(mixed(12), &[3, 4]);
    let slice = C::Slice { begin: Cow::Owned(vec![1, 1]), size: Cow::Owned(vec![2, 2]) };
    t.call(slice, vec![x], &[0]);
    let (a, b) = (t.tensor(mixed(6), &[2, 3]), t.tensor(distinct(3, 0), &[1, 3]));
    t.call(C::Concat { axis: 0 }, vec![a, b], &[0, 1]);
    let x = t.tensor(mixed(12), &[2, 3, 2]);
    t.call(C::Transpose { perm: Cow::Owned(vec![2, 0, 1]) }, vec![x], &[0]);
    let x = t.tensor(mixed(6), &[2, 3]);
    t.call(C::Pad { paddings: Cow::Owned(vec![(1, 0), (0, 2)]), value: 0.5 }, vec![x], &[0]);
    let x = t.tensor(mixed(6), &[2, 3]);
    t.call(C::Tile { reps: Cow::Owned(vec![2, 3]) }, vec![x], &[0]);
    let x = t.tensor(mixed(12), &[2, 1, 3, 2]);
    t.call(C::Tile { reps: Cow::Owned(vec![1, 3, 2, 1]) }, vec![x], &[0]);
    let x = t.tensor(mixed(6), &[2, 3]);
    t.call(C::Reverse { axes: Cow::Owned(vec![1]) }, vec![x], &[0]);
    let cond = t.e.tensor_with_dtype(vec![1u8, 0, 0, 1, 1, 0], [2, 3], DType::Bool).unwrap();
    let (a, b) = (t.tensor(mixed(6), &[2, 3]), t.tensor(distinct(3, 0), &[3]));
    t.call(C::Select, vec![cond, a, b], &[1, 2]);

    let x = t.tensor(mixed(4), &[4]);
    let indices = t.e.tensor(vec![0i32, 2], [2]).unwrap();
    t.call(C::Gather { axis: 0 }, vec![x, indices.clone()], &[0]);
    t.call(C::OneHot { depth: 3, on: 1.0, off: 0.0 }, vec![indices], &[0]);
    let x = t.tensor(mixed(4), &[1, 2, 2, 1]);
    let resize = C::ResizeBilinear { new_h: 3, new_w: 3, align_corners: false };
    t.call(resize, vec![x], &[0]);
    let steps = Cow::Owned(vec![FusedStep::Unary(U::Tanh)]);
    t.call(C::FusedElementwise(steps), vec![t.tensor(mixed(6), &[2, 3])], &[0]);
    t
}

/// `Σ y · c` for fixed weights `c` shaped like `y`, so every output element
/// carries its own weight into the gradient.
fn weighted_sum(y: &Tensor) -> Result<Tensor> {
    let c: Vec<f32> = (0..y.size()).map(|i| 0.5 + 0.25 * (i as f32).sin()).collect();
    let c = y.engine().tensor(c, y.shape())?;
    ops::sum(&ops::mul(y, &c)?, None, false)
}

const EPS: f32 = 5e-3;

#[test]
fn every_gradient_rule_matches_a_central_difference() {
    let t = table();
    assert!(t.variants.iter().all(|&v| v), "a kernel has no case: {:?}", t.variants);
    let mut without_a_rule = Vec::new();
    for case in &t.cases {
        let refs: Vec<&Tensor> = case.inputs.iter().collect();
        let wrt: Vec<&Tensor> = case.wrt.iter().map(|&k| &case.inputs[k]).collect();
        let loss = |xs: &[&Tensor]| weighted_sum(&(case.f)(xs)?);
        let grads = match t.e.grads(&wrt, || loss(&refs)) {
            Ok(grads) => grads,
            Err(Error::GradientNotDefined { op }) => {
                without_a_rule.push(op);
                continue;
            }
            Err(e) => panic!("{}: {e}", case.label),
        };
        for (&k, grad) in case.wrt.iter().zip(&grads) {
            let x = &case.inputs[k];
            let base = x.to_f32_vec().unwrap();
            let got = grad.to_f32_vec().unwrap();
            assert_eq!(got.len(), base.len(), "{}: d/dinput {k}", case.label);
            for (j, &g) in got.iter().enumerate() {
                let at = |delta: f32| -> f32 {
                    let mut v = base.clone();
                    v[j] += delta;
                    t.e.tidy(|| {
                        let moved = t.e.tensor(v, x.shape()).unwrap();
                        let mut xs = refs.clone();
                        xs[k] = &moved;
                        loss(&xs).unwrap().to_scalar().unwrap()
                    })
                };
                let fd = (at(EPS) - at(-EPS)) / (2.0 * EPS);
                assert!(
                    (fd - g).abs() <= 1e-2 * (1.0 + g.abs()),
                    "{}: d/dinput {k}[{j}] is {g}, the central difference {fd}",
                    case.label
                );
            }
        }
    }
    without_a_rule.sort_unstable();
    let mut pinned = WITHOUT_A_RULE;
    pinned.sort_unstable();
    assert_eq!(without_a_rule, pinned);
}

/// Without a bias, the fused conv2d case's first pre-activation is 1.19e-7:
/// on ReLU's kink, where no central difference agrees with a rule. There
/// each fused product, recorded as itself, differentiates to the bits of
/// the unfused tape (fusion off: the plain product, then `Relu`).
#[test]
fn a_fused_product_at_relus_kink_differentiates_to_the_bits_of_its_unfused_tape() {
    let e = engine();
    let (conv, x, w) = &products(&e)[0];
    let z = e.run_kernel(conv, &[x, w]).unwrap().to_f32_vec().unwrap();
    assert!(z[0] != 0.0 && z[0].abs() < 1e-6, "the first pre-activation is {}", z[0]);
    for (plain, x, w) in products(&e) {
        let relu = Some(UnaryOp::Relu);
        let fused = plain.with_epilogue(Epilogue::Fused { bias: false, activation: relu });
        let run = |fusion: bool| {
            e.set_fusion_enabled(fusion);
            let loss = || weighted_sum(&ops::run(&fused, &[&x, &w])?);
            let (grads, profile) = e.profile(|| e.grads(&[&x, &w], loss).unwrap());
            let bits: Vec<Vec<u32>> = grads
                .iter()
                .map(|g| g.to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect())
                .collect();
            (bits, profile.kernels[0].name)
        };
        let (taped, unfused) = (run(true), run(false));
        assert_eq!((taped.1, unfused.1), (fused.name(), plain.name()));
        assert_eq!(taped.0, unfused.0, "{}", fused.name());
    }
    e.set_fusion_enabled(true);
}

/// Pre-activations at and around the kinks of `Relu` (0) and `Relu6` (0 and
/// 6), both zeros, NaN and the infinities.
fn at_the_kinks() -> Vec<f32> {
    let six = 6.0f32.to_bits();
    let (tiny, below_six, above_six) =
        (f32::MIN_POSITIVE, f32::from_bits(six - 1), f32::from_bits(six + 1));
    vec![
        0.0,
        -0.0,
        1e-7,
        -1e-7,
        tiny,
        -tiny,
        6.0,
        below_six,
        above_six,
        0.3,
        -2.5,
        12.0,
        5.5,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ]
}

/// Each product over one reduced term whose first output channel has
/// weight 1, so that channel's values are [`at_the_kinks`]: a `[16, 1] x
/// [1, 3]` matmul under every transpose flag, a 1×1 conv2d of three output
/// channels and a 1×1 depthwise conv2d of multiplier 2.
fn kink_products(e: &Engine) -> Vec<(KernelCall<'static>, Tensor, Tensor)> {
    let tensor = |values: Vec<f32>, dims: &[usize]| e.tensor(values, dims.to_vec()).unwrap();
    let (x, weights) = (at_the_kinks(), [1.0, 0.5, -1.0, 2.0]);
    let mut cases = Vec::new();
    for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
        let (transpose_a, transpose_b, epilogue) = (ta, tb, Epilogue::None);
        let call = KernelCall::MatMul { transpose_a, transpose_b, epilogue };
        let a = tensor(x.clone(), if ta { &[1, 16] } else { &[16, 1] });
        let b = tensor(weights[..3].to_vec(), if tb { &[3, 1] } else { &[1, 3] });
        cases.push((call, a, b));
    }
    let (image, filter) = (Shape::new(vec![1, 4, 4, 1]), Shape::new(vec![1, 1, 1, 3]));
    let info = conv2d_info("Conv2D", &image, &filter, (1, 1), Padding::Valid, (1, 1)).unwrap();
    let call = KernelCall::Conv2d { info: Cow::Owned(info), epilogue: Epilogue::None };
    let filter = tensor(weights[..3].to_vec(), &[1, 1, 1, 3]);
    cases.push((call, tensor(x.clone(), &[1, 4, 4, 1]), filter));
    let (image, filter) = (Shape::new(vec![1, 4, 4, 2]), Shape::new(vec![1, 1, 2, 2]));
    let info = depthwise_conv2d_info("Depthwise", &image, &filter, (1, 1), Padding::Valid, (1, 1));
    let info = Cow::Owned(info.unwrap());
    let call = KernelCall::DepthwiseConv2d { info, epilogue: Epilogue::None };
    let pairs: Vec<f32> = x.iter().flat_map(|&v| [v, -v]).collect();
    cases.push((call, tensor(pairs, &[1, 4, 4, 2]), tensor(weights.to_vec(), &[1, 1, 2, 2])));
    cases
}

/// A fused product recorded as itself differentiates to the bits of the
/// unfused tape (fusion off: the plain product, `Add` of the bias, the
/// activation), on `cpu` and on `native` with one and two threads: for each
/// activation that takes the taped route, with and without a bias (−0 in
/// the first channel, which keeps the kink values there), and for every
/// subset of the operands asked for.
#[test]
fn fused_products_differentiate_to_the_bits_of_the_unfused_tape() {
    use webml::backend_native::NativeBackend;
    let mut engines = vec![engine()];
    for threads in [1, 2] {
        let e = Engine::new();
        e.register_backend("native", Arc::new(NativeBackend::with_threads("native", threads)), 1);
        engines.push(e);
    }
    use UnaryOp as U;
    let activations = [None, Some(U::Relu), Some(U::Relu6), Some(U::Sigmoid), Some(U::Tanh)];
    for e in &engines {
        for (plain, x, w) in kink_products(e) {
            let n = *e.run_kernel(&plain, &[&x, &w]).unwrap().dims().last().unwrap();
            let bias: Vec<f32> =
                (0..n).map(|c| if c == 0 { -0.0 } else { 0.25 * c as f32 }).collect();
            let bias = e.tensor(bias, vec![n]).unwrap();
            let variants = activations.iter().flat_map(|&a| [(a, false), (a, true)]);
            for (activation, with_bias) in variants {
                let fused = plain.with_epilogue(Epilogue::Fused { bias: with_bias, activation });
                let operands: Vec<&Tensor> =
                    [&x, &w].into_iter().chain(with_bias.then_some(&bias)).collect();
                for mask in 1..1usize << operands.len() {
                    let asked = |i: &usize| mask >> i & 1 == 1;
                    let wrt: Vec<&Tensor> =
                        (0..operands.len()).filter(asked).map(|i| operands[i]).collect();
                    let run = |fusion: bool| {
                        e.set_fusion_enabled(fusion);
                        let loss = || weighted_sum(&ops::run(&fused, &operands)?);
                        let (grads, profile) = e.profile(|| e.grads(&wrt, loss).unwrap());
                        let bits: Vec<Vec<u32>> = grads
                            .iter()
                            .map(|g| g.to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect())
                            .collect();
                        (profile.kernels[0].name, bits)
                    };
                    let ((taped, got), (_, want)) = (run(true), run(false));
                    let on = e.backend_name();
                    let label = format!("{taped} {activation:?} mask {mask:b} on {on}");
                    assert_eq!(taped, fused.name(), "{label}");
                    assert_eq!(got, want, "{label}");
                }
            }
        }
        e.set_fusion_enabled(true);
    }
}

/// A batch-1 operand broadcast against the other's batch gets the gradient
/// summed over the batch (it was silently zero when the tile the op
/// broadcasts through had no gradient).
#[test]
fn a_batch_broadcast_matmul_differentiates_the_broadcast_operand() {
    let e = engine();
    let a = e.tensor((0..6).map(|i| i as f32).collect::<Vec<_>>(), [2, 3]).unwrap();
    let b = e.tensor((0..24).map(|i| 0.1 * i as f32).collect::<Vec<_>>(), [4, 3, 2]).unwrap();
    let da = e.grad(&a, || ops::sum(&ops::matmul(&a, &b, false, false)?, None, false)).unwrap();
    let close = |got: Vec<f32>, want: [f32; 6]| {
        assert!(got.iter().zip(want).all(|(g, w)| (g - w).abs() < 1e-4), "{got:?} vs {want:?}");
    };
    close(da.to_f32_vec().unwrap(), [7.6, 9.2, 10.8, 7.6, 9.2, 10.8]);

    let x = e.tensor((0..24).map(|i| 0.1 * i as f32).collect::<Vec<_>>(), [4, 2, 3]).unwrap();
    let w = e.tensor((0..6).map(|i| i as f32).collect::<Vec<_>>(), [3, 2]).unwrap();
    let dw = e.grad(&w, || ops::sum(&ops::matmul(&x, &w, false, false)?, None, false)).unwrap();
    close(dw.to_f32_vec().unwrap(), [8.4, 8.4, 9.2, 9.2, 10.0, 10.0]);
}

/// Backprop through a `gather` of a requested input is an error naming the
/// kernel, not a zero; a `gather` of data (a training batch) is off the
/// gradient path and trains.
#[test]
fn gather_fails_backprop_only_on_the_gradient_path() {
    let e = engine();
    let x = e.tensor_1d(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    let idx = e.tensor(vec![0i32, 2], [2]).unwrap();
    let err = e.grad(&x, || ops::sum(&ops::gather(&x, &idx, 0)?, None, false)).unwrap_err();
    assert!(matches!(err, Error::GradientNotDefined { op: "Gather" }), "{err}");

    let data = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2).unwrap();
    let w = e.tensor_2d(&[0.5, -1.0], 2, 1).unwrap();
    let dw = e
        .grad(&w, || {
            let batch = ops::gather(&data, &idx, 0)?;
            ops::sum(&ops::matmul(&batch, &w, false, false)?, None, false)
        })
        .unwrap();
    // Rows 0 and 2 of the data, summed.
    assert_eq!(dw.to_f32_vec().unwrap(), vec![6.0, 8.0]);
}

/// A gradient of a gradient: each kernel is recorded on every tape on the
/// stack, so the outer gradient differentiates the inner forward together
/// with the inner walk. `d²/dx² Σ tanh(x) = −2t(1 − t²)`, `t = tanh(x)`.
#[test]
fn the_second_derivative_of_a_sum_of_tanh() {
    let e = engine();
    let xs = mixed(6);
    let x = e.tensor(xs.clone(), [2, 3]).unwrap();
    let first = || ops::sum(&e.grad(&x, || ops::sum(&ops::tanh(&x)?, None, false))?, None, false);
    let got = e.grad(&x, first).unwrap().to_f32_vec().unwrap();
    for (g, v) in got.iter().zip(&xs) {
        let t = v.tanh();
        let want = -2.0 * t * (1.0 - t * t);
        assert!((g - want).abs() < 1e-5, "at {v}: {g} vs {want}");
    }
}

/// A fused product with `Tanh`, taped as itself, differentiates twice to
/// the bits of the same layer written as plain ops (`matmul`, `add`,
/// `tanh`): the outer tape records the fused call and the inner walk's
/// kernels, which are the ones the plain layer's walk runs.
#[test]
fn a_fused_tanh_product_differentiates_twice_to_the_bits_of_plain_ops() {
    let e = engine();
    let a = e.tensor(mixed(6), [2, 3]).unwrap();
    let w = e.tensor(distinct(6, 3), [3, 2]).unwrap();
    let bias = e.tensor_1d(&[0.1, -0.2]).unwrap();
    let second = |fused: bool| {
        let layer = || {
            if fused {
                ops::fused_matmul(&a, &w, Some(&bias), Some(UnaryOp::Tanh), false, false)
            } else {
                ops::tanh(&ops::add(&ops::matmul(&a, &w, false, false)?, &bias)?)
            }
        };
        let first = || ops::sum(&e.grad(&w, || weighted_sum(&layer()?))?, None, false);
        let (grads, profile) = e.profile(|| e.grads(&[&a, &w, &bias], first).unwrap());
        let bits: Vec<Vec<u32>> = grads
            .iter()
            .map(|g| g.to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect())
            .collect();
        (profile.kernels[0].name, bits)
    };
    let ((taped, got), (plain, want)) = (second(true), second(false));
    assert_eq!((taped, plain), ("FusedMatMul", "MatMul"));
    assert_eq!(got, want);
}

/// A conv's input gradient differentiated with respect to its filter runs
/// into `Conv2DBackpropInput`, which has no rule: the error names it, and no
/// number comes back.
#[test]
fn a_conv_differentiated_twice_by_its_filter_is_not_defined() {
    let e = engine();
    let x = e.tensor(mixed(32), [1, 4, 4, 2]).unwrap();
    let w = e.tensor(distinct(12, 5), [1, 3, 2, 2]).unwrap();
    let conv = || ops::sum(&ops::conv2d(&x, &w, (1, 1), Padding::Same, (1, 1))?, None, false);
    let err = e.grad(&w, || ops::sum(&e.grad(&x, conv)?, None, false)).unwrap_err();
    assert!(matches!(err, Error::GradientNotDefined { op: "Conv2DBackpropInput" }), "{err}");
}
