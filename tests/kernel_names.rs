//! Kernel names are an interface: profiles, spans and `DegradationEvent`s
//! report them, and dashboards and tests key on them. These lists pin the
//! names of a `train_native` training step, of a planned MobileNet inference
//! on each GPU rung (f32 on webgl, U8 weights on webgpu) and of one call of
//! every kernel on `cpu`, in dispatch order.

use std::sync::Arc;
use webml::backend_native::NativeBackend;
use webml::backend_webgl::{WebGlBackend, WebGlConfig};
use webml::backend_webgpu::WebGpuBackend;
use webml::core::backend::{BinaryOp, FusedStep, UnaryOp};
use webml::core::conv_util::Padding;
use webml::core::quant::QuantParams;
use webml::data::synthetic;
use webml::layers::{Activation, Adam, Conv2D, Dense, FitConfig, Flatten, Loss, Sequential};
use webml::models::{graph_mobilenet, GraphSpec, MobileNetConfig};
use webml::webgl_sim::devices::DeviceProfile;
use webml::webgpu_sim::WebGpuConfig;
use webml::{ops, DType, Engine, Tensor};

/// The kernel names `f` dispatched on `e`, in order.
fn names(e: &Engine, f: impl FnOnce()) -> Vec<&'static str> {
    let ((), profile) = e.profile(f);
    profile.kernels.iter().map(|k| k.name).collect()
}

fn assert_names(got: &[&str], want: &str, what: &str) {
    let want: Vec<&str> = want.split_whitespace().collect();
    assert_eq!(got, want, "{what}: got\n{}", got.join(" "));
}

/// One step of the benchmark's `train_native` model (conv 8 → conv 16 →
/// dense softmax, Adam), on a smaller batch: the batch size does not change
/// which kernels run. The forward pass, the loss and backprop come first,
/// then one line per variable of Adam's update chains.
const TRAIN_STEP: &str = "
    Gather Gather FusedConv2D FusedConv2D FusedMatMul Max Sub Exp Sum Div ClipByValue Log Mul
    Sum Neg Mean FusedElementwise Neg Mul Mul Div GreaterEqual LessEqual LogicalAnd Cast Mul Div
    Mul FusedElementwise Sum Mul Add Mul Neg Sum Equal Cast FusedElementwise Add Sum MatMul
    MatMul FusedElementwise Sum Conv2DBackpropInput Conv2DBackpropFilter FusedElementwise Sum
    Conv2DBackpropFilter
    Mul FusedElementwise FusedElementwise FusedElementwise FusedElementwise FusedElementwise Sub
    Mul FusedElementwise FusedElementwise FusedElementwise FusedElementwise FusedElementwise Sub
    Mul FusedElementwise FusedElementwise FusedElementwise FusedElementwise FusedElementwise Sub
    Mul FusedElementwise FusedElementwise FusedElementwise FusedElementwise FusedElementwise Sub
    Mul FusedElementwise FusedElementwise FusedElementwise FusedElementwise FusedElementwise Sub
    Mul FusedElementwise FusedElementwise FusedElementwise FusedElementwise FusedElementwise Sub
";

#[test]
fn a_training_step_reports_the_pinned_names() {
    const BATCH: usize = 4;
    let e = Engine::new();
    e.register_backend("native", Arc::new(NativeBackend::new()), 4);
    let mut model = Sequential::new(&e).with_seed(3);
    model.add(
        Conv2D::new(8, 3)
            .with_strides((2, 2))
            .with_activation(Activation::Relu)
            .with_input_shape([28, 28, 1]),
    );
    model.add(Conv2D::new(16, 3).with_strides((2, 2)).with_activation(Activation::Relu));
    model.add(Flatten::new());
    model.add(Dense::new(10).with_activation(Activation::Softmax));
    model.build([28, 28, 1]).unwrap();
    model.compile(Loss::CategoricalCrossentropy, Box::new(Adam::new(0.001)));
    let data = synthetic::mnist_like(BATCH, 10, 28, 5);
    let (x, y) = data.batch(&e, 0, BATCH).unwrap();
    let config = FitConfig { epochs: 1, batch_size: BATCH, seed: 5, ..FitConfig::default() };
    // The first step also creates Adam's slots; the pinned step is a later one.
    model.fit(&x, &y, config.clone()).unwrap();
    let got = names(&e, || _ = model.fit(&x, &y, config).unwrap());
    assert_names(&got, TRAIN_STEP, "train_native step");
}

fn planned_inference_names(e: &Engine, spec: &GraphSpec, u8_weights: bool) -> Vec<&'static str> {
    let model = if u8_weights { spec.build_quantized(e) } else { spec.build(e) }.unwrap();
    let (vals, shape) = spec.example(1, 0);
    let x = e.tensor(vals, shape).unwrap();
    let run = || model.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
    run();
    names(e, || _ = run()[0].to_f32_vec().unwrap())
}

/// The planned MobileNet of `infer_webgl` / `infer_webgpu_u8`, at a smaller
/// input: the input size does not change which kernels run.
fn mobilenet() -> GraphSpec {
    graph_mobilenet(&MobileNetConfig { input_size: 32, classes: 7, ..MobileNetConfig::small() })
}

const MOBILENET_WEBGL_F32: &str = "
    FusedConv2D FusedDepthwiseConv2D FusedConv2D FusedDepthwiseConv2D FusedConv2D
    FusedDepthwiseConv2D FusedConv2D FusedDepthwiseConv2D FusedConv2D FusedDepthwiseConv2D
    FusedConv2D FusedDepthwiseConv2D FusedConv2D FusedDepthwiseConv2D FusedConv2D
    FusedDepthwiseConv2D FusedConv2D FusedDepthwiseConv2D FusedConv2D FusedDepthwiseConv2D
    FusedConv2D FusedDepthwiseConv2D FusedConv2D FusedDepthwiseConv2D FusedConv2D
    FusedDepthwiseConv2D FusedConv2D Mean FusedMatMul Max Sub Exp Sum Div
";

const MOBILENET_WEBGPU_U8: &str = "
    FusedConv2DQuant FusedDepthwiseConv2DQuant FusedConv2DQuant FusedDepthwiseConv2DQuant
    FusedConv2DQuant FusedDepthwiseConv2DQuant FusedConv2DQuant FusedDepthwiseConv2DQuant
    FusedConv2DQuant FusedDepthwiseConv2DQuant FusedConv2DQuant FusedDepthwiseConv2DQuant
    FusedConv2DQuant FusedDepthwiseConv2DQuant FusedConv2DQuant FusedDepthwiseConv2DQuant
    FusedConv2DQuant FusedDepthwiseConv2DQuant FusedConv2DQuant FusedDepthwiseConv2DQuant
    FusedConv2DQuant FusedDepthwiseConv2DQuant FusedConv2DQuant FusedDepthwiseConv2DQuant
    FusedConv2DQuant FusedDepthwiseConv2DQuant FusedConv2DQuant Mean FusedMatMulQuant Max Sub
    Exp Sum Div
";

#[test]
fn planned_inference_on_each_gpu_rung_reports_the_pinned_names() {
    let profile = DeviceProfile::intel_iris_pro;
    let webgl = Engine::new();
    let backend = WebGlBackend::new(profile(), WebGlConfig::default()).unwrap();
    webgl.register_backend("webgl", Arc::new(backend), 2);
    let got = planned_inference_names(&webgl, &mobilenet(), false);
    assert_names(&got, MOBILENET_WEBGL_F32, "planned MobileNet, f32 on webgl");

    let webgpu = Engine::new();
    let backend = WebGpuBackend::new(profile(), WebGpuConfig::default()).unwrap();
    webgpu.register_backend("webgpu", Arc::new(backend), 3);
    let got = planned_inference_names(&webgpu, &mobilenet(), true);
    assert_names(&got, MOBILENET_WEBGPU_U8, "planned MobileNet, U8 on webgpu");
}

/// Every kernel once, through the ops that dispatch it — the product
/// kernels under each name they report (plain, fused, fused over U8
/// weights) — and the gradient kernels through a tape.
const EVERY_KERNEL: &str = "
    Neg Erf Add Greater Cast Sum Mean ArgMax ArgMin MatMul FusedMatMul FusedMatMul
    FusedMatMulQuant Conv2D FusedConv2D FusedConv2DQuant Conv2D Conv2DBackpropInput
    DepthwiseConv2D FusedDepthwiseConv2D FusedDepthwiseConv2DQuant MaxPool AvgPool Slice Concat
    Transpose Pad Gather Tile Reverse Greater Select OneHot ResizeBilinear FusedElementwise
    Conv2D DepthwiseConv2D MaxPool Sum Sum Add Mul Mul PoolBackprop DepthwiseConv2DBackpropInput
    DepthwiseConv2DBackpropFilter Conv2DBackpropInput Conv2DBackpropFilter Add
";

#[test]
fn one_call_of_every_kernel_reports_the_pinned_names() {
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(webml::core::cpu::CpuBackend::new()), 1);
    let wave = |dims: &[usize], step: f32| -> Tensor {
        let vals: Vec<f32> = (0..dims.iter().product()).map(|i| (i as f32 * step).sin()).collect();
        e.tensor(vals, dims.to_vec()).unwrap()
    };
    let codes = |dims: Vec<usize>| {
        let n = dims.iter().product();
        e.quantized_tensor(vec![7; n], dims, QuantParams::per_tensor(0.5, -1.0)).unwrap()
    };
    let a = wave(&[3, 4], 0.3);
    let b = wave(&[4, 2], 0.7);
    let x = wave(&[1, 6, 6, 2], 0.2);
    let w = wave(&[3, 3, 2, 4], 0.4);
    let dw = wave(&[3, 3, 2, 1], 0.5);
    let idx = e.tensor(vec![2i32, 0], [2]).unwrap();
    let (same, one) = (Padding::Same, (1, 1));
    let relu = Some(UnaryOp::Relu);
    let got = names(&e, || {
        ops::neg(&a).unwrap();
        ops::erf(&a).unwrap();
        ops::add(&a, &a).unwrap();
        ops::greater(&a, &a).unwrap();
        ops::cast(&a, DType::I32).unwrap();
        ops::sum(&a, Some(&[1]), false).unwrap();
        ops::mean(&a, None, true).unwrap();
        ops::argmax(&a, 1).unwrap();
        ops::argmin(&a, 0).unwrap();
        ops::matmul(&a, &b, false, false).unwrap();
        ops::fused_matmul(&a, &b, None, None, false, false).unwrap();
        ops::fused_matmul(&a, &b, Some(&wave(&[2], 0.1)), relu, false, false).unwrap();
        ops::matmul(&a, &codes(vec![4, 2]), false, false).unwrap();
        ops::conv2d(&x, &w, one, same, one).unwrap();
        ops::fused_conv2d(&x, &w, Some(&wave(&[4], 0.1)), relu, one, same, one).unwrap();
        ops::conv2d(&x, &codes(vec![3, 3, 2, 4]), one, same, one).unwrap();
        let y = ops::conv2d(&x, &w, one, same, one).unwrap();
        ops::conv2d_transpose(&y, &w, [1, 6, 6, 2], one, same).unwrap();
        ops::depthwise_conv2d(&x, &dw, one, same, one).unwrap();
        ops::fused_depthwise_conv2d(&x, &dw, None, relu, one, same, one).unwrap();
        ops::depthwise_conv2d(&x, &codes(vec![3, 3, 2, 1]), one, same, one).unwrap();
        ops::max_pool(&x, (2, 2), (2, 2), Padding::Valid).unwrap();
        ops::avg_pool(&x, (2, 2), (1, 1), same).unwrap();
        ops::slice(&a, &[1, 0], &[2, 3]).unwrap();
        ops::concat(&[&a, &a], 0).unwrap();
        ops::transpose(&a, None).unwrap();
        ops::pad(&a, &[(1, 0), (0, 2)], 0.5).unwrap();
        ops::gather(&a, &idx, 0).unwrap();
        ops::tile(&a, &[2, 1]).unwrap();
        ops::reverse(&a, &[1]).unwrap();
        ops::select(&ops::greater(&a, &b.engine().scalar(0.0).unwrap()).unwrap(), &a, &a).unwrap();
        e.one_hot(&idx, 3).unwrap();
        ops::resize_bilinear(&x, 3, 9, false).unwrap();
        let steps = [FusedStep::Binary(BinaryOp::Mul, 0), FusedStep::Unary(UnaryOp::Tanh)];
        ops::fused_elementwise(&a, &[&a], &steps).unwrap();
        // The gradient kernels: conv and depthwise backprops, pooling's.
        let grads = e
            .grads(&[&x, &w, &dw], || {
                let y = ops::conv2d(&x, &w, (2, 2), same, one)?;
                let z = ops::depthwise_conv2d(&x, &dw, one, same, one)?;
                let p = ops::max_pool(&z, (2, 2), (2, 2), Padding::Valid)?;
                ops::add(&ops::sum(&y, None, false)?, &ops::sum(&p, None, false)?)
            })
            .unwrap();
        assert_eq!(grads.len(), 3);
    });
    assert_names(&got, EVERY_KERNEL, "one call of every kernel on cpu");
}
