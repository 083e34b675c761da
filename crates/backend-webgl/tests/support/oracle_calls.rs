//! One call of every kernel kind the GPU rungs run through the oracle
//! adapter, plus `Unary` and same-shape and broadcast `Binary`, over
//! operands that probe the texture rung's edges: `[3, 5]` tensors, whose
//! textures pad; zero-size dims; a negative `Gather` index; out-of-range
//! `OneHot` indices. And the taped gradient of each product and pool whose
//! backprop the adapter runs.
//!
//! Shared, by `#[path]`, between `webml-backend-webgpu`'s contract suite
//! (every rung against `cpu`, on bits) and this crate's own tests (the
//! half-precision profile, rank 9).

#![allow(dead_code)] // each including crate uses its own part

use std::borrow::Cow;
use webml_core::backend::{
    ArgReduceOp, Backend, BinaryOp, FusedStep, KTensor, KernelCall, PoolOp, ReduceOp, UnaryOp,
};
use webml_core::conv_util::{conv2d_info, depthwise_conv2d_info, pool2d_info, Padding};
use webml_core::error::Result;
use webml_core::{ops, DType, Engine, Shape, Tensor, TensorData};

/// A kernel call and its operands, each `(dims, dtype, stored values)`.
pub struct Case {
    pub name: String,
    pub call: KernelCall<'static>,
    pub operands: Vec<(Vec<usize>, DType, TensorData)>,
}

/// Deterministic values in [-2, 2), `n` of them.
pub fn values(n: usize, seed: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 7 + seed * 13) as f32 * 0.731).sin() * 2.0).collect()
}

/// An f32 operand of `dims`.
pub fn f32s(dims: &[usize], seed: usize) -> (Vec<usize>, DType, TensorData) {
    let n = dims.iter().product();
    (dims.to_vec(), DType::F32, TensorData::F32(values(n, seed)))
}

fn i32s(dims: &[usize], v: &[i32]) -> (Vec<usize>, DType, TensorData) {
    (dims.to_vec(), DType::I32, TensorData::I32(v.to_vec()))
}

/// A named case.
pub fn case(
    name: &str,
    call: KernelCall<'static>,
    operands: Vec<(Vec<usize>, DType, TensorData)>,
) -> Case {
    Case { name: name.to_string(), call, operands }
}

/// The calls, one of each oracle kind (the backprops and the pools once per
/// op), with `Unary` and `Binary` beside them.
pub fn cases() -> Vec<Case> {
    use KernelCall as C;
    let owned = |v: &[usize]| Cow::Owned(v.to_vec());
    let (x, w) = (Shape::new(vec![2, 7, 6, 3]), Shape::new(vec![3, 3, 3, 4]));
    let same = Padding::Same;
    let conv = conv2d_info("t", &x, &w, (1, 1), same, (1, 1)).unwrap();
    let dw = Shape::new(vec![3, 3, 3, 2]);
    let depthwise = depthwise_conv2d_info("t", &x, &dw, (1, 1), same, (1, 1)).unwrap();
    let pool = pool2d_info("t", &x, (3, 3), (2, 2), same).unwrap();
    let (conv_dy, dw_dy) = (conv.out_shape(), depthwise.out_shape());
    let pool_dy = pool.out_shape();
    let mut cases = vec![
        case("unary sigmoid", C::Unary(UnaryOp::Sigmoid), vec![f32s(&[3, 5], 1)]),
        case(
            "binary add, same shape",
            C::Binary(BinaryOp::Add),
            vec![f32s(&[3, 5], 2), f32s(&[3, 5], 3)],
        ),
        case(
            "binary mul, broadcast",
            C::Binary(BinaryOp::Mul),
            vec![f32s(&[3, 1, 5], 4), f32s(&[4, 1], 5)],
        ),
        case("cast to i32", C::Cast(DType::I32), vec![f32s(&[3, 5], 6)]),
        case(
            "mean over axis 1",
            C::Reduce { op: ReduceOp::Mean, axes: owned(&[1]) },
            vec![f32s(&[3, 5], 7)],
        ),
        case(
            "sum over a zero-size axis",
            C::Reduce { op: ReduceOp::Sum, axes: owned(&[1]) },
            vec![f32s(&[3, 0], 8)],
        ),
        case("argmax", C::ArgReduce { op: ArgReduceOp::ArgMax, axis: 1 }, vec![f32s(&[3, 5], 9)]),
        case(
            "conv2d backprop input",
            C::Conv2dBackpropInput(Cow::Owned(conv.clone())),
            vec![f32s(conv_dy.dims(), 10), f32s(w.dims(), 11)],
        ),
        case(
            "conv2d backprop filter",
            C::Conv2dBackpropFilter(Cow::Owned(conv)),
            vec![f32s(x.dims(), 12), f32s(conv_dy.dims(), 13)],
        ),
        case(
            "depthwise backprop input",
            C::DepthwiseConv2dBackpropInput(Cow::Owned(depthwise.clone())),
            vec![f32s(dw_dy.dims(), 14), f32s(dw.dims(), 15)],
        ),
        case(
            "depthwise backprop filter",
            C::DepthwiseConv2dBackpropFilter(Cow::Owned(depthwise)),
            vec![f32s(x.dims(), 16), f32s(dw_dy.dims(), 17)],
        ),
    ];
    for (op, kind) in [(PoolOp::Max, "max"), (PoolOp::Avg, "avg")] {
        let info = || Cow::Owned(pool.clone());
        cases.push(case(
            &format!("{kind} pool"),
            C::Pool2d { op, info: info() },
            vec![f32s(x.dims(), 18)],
        ));
        let operands = vec![f32s(pool_dy.dims(), 19), f32s(x.dims(), 20)];
        cases.push(case(
            &format!("{kind} pool backprop"),
            C::Pool2dBackprop { op, info: info() },
            operands,
        ));
    }
    let chain = vec![
        FusedStep::Unary(UnaryOp::Neg),
        FusedStep::Binary(BinaryOp::Mul, 0),
        FusedStep::Unary(UnaryOp::Relu),
        FusedStep::Binary(BinaryOp::Add, 1),
    ];
    cases.extend([
        case(
            "slice",
            C::Slice { begin: owned(&[1, 1]), size: owned(&[2, 3]) },
            vec![f32s(&[3, 5], 21)],
        ),
        case(
            "concat with a zero-size operand",
            C::Concat { axis: 1 },
            vec![f32s(&[3, 5], 22), f32s(&[3, 0], 23), f32s(&[3, 2], 24)],
        ),
        case("transpose", C::Transpose { perm: owned(&[2, 0, 1]) }, vec![f32s(&[3, 5, 2], 25)]),
        case(
            "transpose of a zero-size tensor",
            C::Transpose { perm: owned(&[1, 0]) },
            vec![f32s(&[0, 5], 26)],
        ),
        case(
            "pad",
            C::Pad { paddings: Cow::Owned(vec![(1, 0), (2, 1)]), value: 0.5 },
            vec![f32s(&[3, 5], 27)],
        ),
        case(
            "gather with a negative index",
            C::Gather { axis: 1 },
            vec![f32s(&[3, 5], 28), i32s(&[2, 2], &[4, -1, 0, 2])],
        ),
        case("tile", C::Tile { reps: owned(&[2, 1]) }, vec![f32s(&[3, 5], 29)]),
        case("reverse", C::Reverse { axes: owned(&[1]) }, vec![f32s(&[3, 5], 30)]),
        case(
            "select, broadcast",
            C::Select,
            vec![
                (vec![3, 1], DType::Bool, TensorData::U8(vec![1, 0, 1])),
                f32s(&[3, 5], 31),
                f32s(&[5], 32),
            ],
        ),
        case(
            "one-hot with out-of-range indices",
            C::OneHot { depth: 4, on: 1.5, off: -0.5 },
            vec![i32s(&[5], &[0, 3, -1, 4, 2])],
        ),
        case(
            "fused element-wise, broadcast",
            C::FusedElementwise(Cow::Owned(chain)),
            vec![f32s(&[3, 5], 33), f32s(&[5], 34), f32s(&[3, 1], 35)],
        ),
    ]);
    for align_corners in [false, true] {
        let call = C::ResizeBilinear { new_h: 5, new_w: 3, align_corners };
        cases.push(case(
            &format!("resize, align corners {align_corners}"),
            call,
            vec![f32s(&[1, 3, 4, 2], 36)],
        ));
    }
    cases
}

/// Run `case` on `b`, its operands registered as given and freed after;
/// the result as f32 values.
pub fn run(b: &dyn Backend, case: &Case) -> Result<Vec<f32>> {
    let shapes: Vec<Shape> =
        case.operands.iter().map(|(dims, _, _)| Shape::new(dims.clone())).collect();
    let ids: Vec<_> =
        case.operands.iter().map(|(_, dtype, data)| b.register(data.clone(), *dtype)).collect();
    let operands: Vec<KTensor<'_>> = ids
        .iter()
        .zip(&shapes)
        .zip(&case.operands)
        .map(|((&id, s), (_, dtype, _))| KTensor::new(id, s, *dtype))
        .collect();
    let out = b.run(&case.call, &operands).and_then(|y| {
        let values = b.read_sync(y).map(|d| d.to_f32_vec());
        b.dispose_data(y);
        values
    });
    ids.into_iter().for_each(|id| b.dispose_data(id));
    out
}

/// How many of `got` differ from `want` on bits (a length mismatch counts
/// every output).
pub fn differing(got: &[f32], want: &[f32]) -> usize {
    if got.len() != want.len() {
        return got.len().max(want.len());
    }
    got.iter().zip(want).filter(|(g, w)| g.to_bits() != w.to_bits()).count()
}

/// The gradients backprop computes on `e` through each backprop kernel:
/// conv2d and depthwise conv2d w.r.t. input and filter, max and avg pool
/// w.r.t. input, each of `Σ y·r` for a fixed `r`, so every `dy` differs.
pub fn taped_gradients(e: &Engine) -> Vec<(&'static str, Vec<f32>)> {
    let t = |dims: &[usize], seed| {
        let n = dims.iter().product();
        e.tensor(values(n, seed), Shape::new(dims.to_vec())).unwrap()
    };
    let x = t(&[2, 7, 6, 3], 40);
    let weighted = |y: Tensor, seed| -> Result<Tensor> {
        let r = t(y.shape().dims(), seed);
        ops::sum(&ops::mul(&y, &r)?, None, false)
    };
    let same = Padding::Same;
    let mut out = Vec::new();
    let mut push = |name, g: Tensor| out.push((name, g.to_f32_vec().unwrap()));
    let w = t(&[3, 3, 3, 4], 41);
    let g =
        e.grads(&[&x, &w], || weighted(ops::conv2d(&x, &w, (2, 2), same, (1, 1))?, 42)).unwrap();
    push("conv2d gradient w.r.t. input", g[0].clone());
    push("conv2d gradient w.r.t. filter", g[1].clone());
    let w = t(&[3, 3, 3, 2], 43);
    let g = e
        .grads(&[&x, &w], || weighted(ops::depthwise_conv2d(&x, &w, (1, 1), same, (1, 1))?, 44))
        .unwrap();
    push("depthwise gradient w.r.t. input", g[0].clone());
    push("depthwise gradient w.r.t. filter", g[1].clone());
    let g = e.grad(&x, || weighted(ops::max_pool(&x, (3, 3), (2, 2), same)?, 45)).unwrap();
    push("max pool gradient", g);
    let g = e.grad(&x, || weighted(ops::avg_pool(&x, (3, 3), (2, 2), same)?, 46)).unwrap();
    push("avg pool gradient", g);
    out
}
