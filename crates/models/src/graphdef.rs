//! Deterministic GraphDef model builders for the execution planner.
//!
//! The benchmark, the benches and the tests need graph-format models (not
//! [`Sequential`](webml_layers::Sequential) layer stacks) so they exercise
//! [`webml_converter::GraphModel`]'s plan compiler: an MLP classifier for
//! the dispatch-overhead story and a MobileNet v1 body for the
//! liveness/peak-memory story. Weights are seeded, so every build of the
//! same spec produces bit-identical graphs and weight values — the same
//! spec built on two engines, or planned for different fetches on one, can
//! be compared on bits.

use serde_json::json;
use std::collections::HashMap;
use webml_converter::{GraphDef, NodeDef};
use webml_core::{Engine, Result, Shape, Tensor};

use crate::mobilenet::MobileNetConfig;

/// A graph-format model: topology plus named weight data.
///
/// The `weights` triples `(name, values, shape)` match the layout of
/// `webml_serve::ModelSource::Graph`, and [`GraphSpec::build`] uploads
/// them for a direct [`webml_converter::GraphModel`].
#[derive(Debug, Clone)]
pub struct GraphSpec {
    /// Graph topology.
    pub graph: GraphDef,
    /// Weight triples `(node_name, values, shape)`.
    pub weights: Vec<(String, Vec<f32>, Vec<usize>)>,
    /// Placeholder (feed) node name.
    pub input: String,
    /// Terminal (fetch) node name.
    pub output: String,
    /// Flattened input shape including the batch dim declared on the
    /// placeholder's `shape` attr.
    pub input_shape: Vec<usize>,
}

impl GraphSpec {
    /// Upload the weights to `engine` (kept resident) and construct a
    /// [`webml_converter::GraphModel`].
    ///
    /// # Errors
    /// Propagates upload and graph-validation errors.
    pub fn build(&self, engine: &Engine) -> Result<webml_converter::GraphModel> {
        let mut weights: HashMap<String, Tensor> = HashMap::new();
        for (name, values, shape) in &self.weights {
            let t = engine.tensor(values.clone(), Shape::new(shape.clone()))?;
            t.keep();
            weights.insert(name.clone(), t);
        }
        webml_converter::GraphModel::new(engine, self.graph.clone(), weights)
    }

    /// [`GraphSpec::build`], but every weight eligible for dequant-free
    /// quantized inference (see [`webml_converter::quantizable_weights`])
    /// is uploaded as U8 codes with per-channel affine params — no f32 copy
    /// of those weights is ever materialized on the engine. Biases and any
    /// weight with a non-kernel consumer stay f32.
    ///
    /// # Errors
    /// Fails on invalid weight shapes or quantization errors.
    pub fn build_quantized(&self, engine: &Engine) -> Result<webml_converter::GraphModel> {
        let eligible = webml_converter::quantizable_weights(&self.graph);
        let mut weights: HashMap<String, Tensor> = HashMap::new();
        for (name, values, shape) in &self.weights {
            let t = match eligible.get(name) {
                Some(&axis) => {
                    let (codes, scales, mins) = webml_converter::Quantization::U8
                        .quantize_per_channel(name, values, shape, axis)?;
                    engine.quantized_tensor(
                        codes,
                        Shape::new(shape.clone()),
                        webml_core::QuantParams::per_channel(axis, scales, mins),
                    )?
                }
                None => engine.tensor(values.clone(), Shape::new(shape.clone()))?,
            };
            t.keep();
            weights.insert(name.clone(), t);
        }
        webml_converter::GraphModel::new(engine, self.graph.clone(), weights)
    }

    /// A deterministic input batch matching [`GraphSpec::input_shape`]
    /// with the batch dim replaced by `batch`; values vary with `index`.
    pub fn example(&self, batch: usize, index: usize) -> (Vec<f32>, Vec<usize>) {
        let mut shape = self.input_shape.clone();
        shape[0] = batch;
        let count: usize = shape.iter().product();
        let values =
            (0..count).map(|j| (((index * 31 + j) as f32) * 0.37).sin()).collect();
        (values, shape)
    }

    /// Total weight parameter count.
    pub fn param_count(&self) -> usize {
        self.weights.iter().map(|(_, v, _)| v.len()).sum()
    }
}

/// Seeded pseudo-random weight values in roughly `[-scale, scale]`.
///
/// A 64-bit LCG keyed by `seed`: deterministic across platforms, no RNG
/// dependency, decorrelated enough that softmax outputs are non-trivial.
fn seeded(seed: u64, count: usize, scale: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x2545_F491_4F6C_DD1D);
    (0..count)
        .map(|_| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let unit = ((state >> 40) as f32) / ((1u64 << 24) as f32); // [0, 1)
            (unit - 0.5) * 2.0 * scale
        })
        .collect()
}

fn node(name: &str, op: &str, inputs: &[&str]) -> NodeDef {
    NodeDef {
        name: name.to_string(),
        op: op.to_string(),
        inputs: inputs.iter().map(|s| s.to_string()).collect(),
        attrs: serde_json::Value::Null,
    }
}

/// Build a graph-format MLP classifier:
/// `MatMul → BiasAdd → Relu` per hidden layer, then a linear head and
/// `Softmax`. The placeholder declares `shape: [1, input_dim]` so
/// [`webml_converter::GraphModel::new`] precompiles the batch-1 plan at
/// load time; other batch sizes compile on first use.
pub fn graph_mlp(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> GraphSpec {
    let mut nodes = Vec::new();
    let mut weights = Vec::new();
    let mut x = node("x", "Placeholder", &[]);
    x.attrs = json!({ "shape": [1, input_dim] });
    nodes.push(x);

    let mut prev = "x".to_string();
    let mut prev_dim = input_dim;
    let dims: Vec<(usize, bool)> = hidden
        .iter()
        .map(|&d| (d, true))
        .chain(std::iter::once((classes, false)))
        .collect();
    for (i, (dim, relu)) in dims.iter().enumerate() {
        let w = format!("w{i}");
        let b = format!("b{i}");
        let mm = format!("mm{i}");
        let ba = format!("ba{i}");
        weights.push((w.clone(), seeded(seed.wrapping_add(2 * i as u64 + 1), prev_dim * dim, 0.3), vec![prev_dim, *dim]));
        weights.push((b.clone(), seeded(seed.wrapping_add(2 * i as u64 + 2), *dim, 0.1), vec![*dim]));
        nodes.push(node(&w, "VariableV2", &[]));
        nodes.push(node(&b, "VariableV2", &[]));
        nodes.push(node(&mm, "MatMul", &[&prev, &w]));
        nodes.push(node(&ba, "BiasAdd", &[&mm, &b]));
        if *relu {
            let act = format!("relu{i}");
            nodes.push(node(&act, "Relu", &[&ba]));
            prev = act;
        } else {
            prev = ba;
        }
        prev_dim = *dim;
    }
    nodes.push(node("probs", "Softmax", &[&prev]));
    GraphSpec {
        graph: GraphDef { nodes },
        weights,
        input: "x".into(),
        output: "probs".into(),
        input_shape: vec![1, input_dim],
    }
}

/// Build a graph-format MobileNet v1: a strided stem conv, the 13
/// depthwise-separable blocks of the paper's benchmark model
/// (`DepthwiseConv2dNative → BiasAdd → Relu6`, then a 1x1 pointwise
/// `Conv2D → BiasAdd → Relu6`), global average pooling (`Mean` over the
/// spatial dims), and a dense softmax head.
///
/// Uses the same width multiplier (`alpha`), input size, class count and
/// filter-rounding rule as [`crate::MobileNet`], so
/// `MobileNetConfig::small()` yields the familiar α=0.25 / 96×96 body.
pub fn graph_mobilenet(config: &MobileNetConfig) -> GraphSpec {
    let s = config.input_size;
    let seed = config.seed;
    let mut nodes = Vec::new();
    let mut weights = Vec::new();
    let mut x = node("input", "Placeholder", &[]);
    x.attrs = json!({ "shape": [1, s, s, 3] });
    nodes.push(x);

    let mut wseed = seed;
    let mut next_seed = || {
        wseed = wseed.wrapping_add(1);
        wseed
    };

    // conv_unit: Conv2D/DepthwiseConv2dNative + BiasAdd + Relu6.
    let mut conv_unit = |nodes: &mut Vec<NodeDef>,
                         weights: &mut Vec<(String, Vec<f32>, Vec<usize>)>,
                         name: &str,
                         op: &str,
                         prev: &str,
                         filter_shape: Vec<usize>,
                         out_channels: usize,
                         stride: usize| {
        let w = format!("{name}_w");
        let b = format!("{name}_b");
        let count: usize = filter_shape.iter().product();
        // Small fan-in-ish scale keeps relu6 activations in range.
        let scale = (2.0 / count as f32).sqrt().min(0.3);
        weights.push((w.clone(), seeded(next_seed(), count, scale), filter_shape));
        weights.push((b.clone(), seeded(next_seed(), out_channels, 0.05), vec![out_channels]));
        nodes.push(node(&w, "VariableV2", &[]));
        nodes.push(node(&b, "VariableV2", &[]));
        let mut conv = node(name, op, &[prev, &w]);
        conv.attrs = json!({ "strides": [stride, stride], "padding": "SAME" });
        nodes.push(conv);
        nodes.push(node(&format!("{name}_bias"), "BiasAdd", &[name, &b]));
        nodes.push(node(&format!("{name}_relu"), "Relu6", &[&format!("{name}_bias")]));
        format!("{name}_relu")
    };

    let stem = crate::mobilenet::scaled(32, config.alpha);
    let mut prev = conv_unit(
        &mut nodes,
        &mut weights,
        "conv1",
        "Conv2D",
        "input",
        vec![3, 3, 3, stem],
        stem,
        2,
    );
    let mut channels = stem;
    for (i, (filters, stride)) in crate::mobilenet::BLOCKS.iter().enumerate() {
        let dw = conv_unit(
            &mut nodes,
            &mut weights,
            &format!("conv_dw_{}", i + 1),
            "DepthwiseConv2dNative",
            &prev,
            vec![3, 3, channels, 1],
            channels,
            *stride,
        );
        let pw_out = crate::mobilenet::scaled(*filters, config.alpha);
        prev = conv_unit(
            &mut nodes,
            &mut weights,
            &format!("conv_pw_{}", i + 1),
            "Conv2D",
            &dw,
            vec![1, 1, channels, pw_out],
            pw_out,
            1,
        );
        channels = pw_out;
    }

    // Global average pool over the spatial dims, then the classifier head.
    let mut pool = node("pool", "Mean", &[&prev]);
    pool.attrs = json!({ "axes": [1, 2] });
    nodes.push(pool);
    weights.push((
        "fc_w".into(),
        seeded(next_seed(), channels * config.classes, (1.0 / channels as f32).sqrt()),
        vec![channels, config.classes],
    ));
    weights.push(("fc_b".into(), seeded(next_seed(), config.classes, 0.05), vec![config.classes]));
    nodes.push(node("fc_w", "VariableV2", &[]));
    nodes.push(node("fc_b", "VariableV2", &[]));
    nodes.push(node("fc", "MatMul", &["pool", "fc_w"]));
    nodes.push(node("fc_bias", "BiasAdd", &["fc", "fc_b"]));
    nodes.push(node("probs", "Softmax", &["fc_bias"]));

    GraphSpec {
        graph: GraphDef { nodes },
        weights,
        input: "input".into(),
        output: "probs".into(),
        input_shape: vec![1, s, s, 3],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webml_core::backend::{Epilogue, KernelCall, UnaryOp};
    use webml_core::cpu::CpuBackend;

    fn engine() -> Engine {
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
        e
    }

    #[test]
    fn mlp_spec_is_deterministic_and_runs() {
        let a = graph_mlp(16, &[32, 32], 10, 7);
        let b = graph_mlp(16, &[32, 32], 10, 7);
        assert_eq!(a.weights, b.weights, "seeded weights are identical");
        let e = engine();
        let model = a.build(&e).unwrap();
        let (vals, shape) = a.example(1, 0);
        let x = e.tensor(vals, Shape::new(shape)).unwrap();
        let out = model.execute(&[(&a.input, &x)], &[&a.output]).unwrap();
        let probs = out[0].to_f32_vec().unwrap();
        assert_eq!(probs.len(), 10);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    /// The fused plan against the plan that also fetches `conv1_bias`, and
    /// so folds it into the stem conv but runs its `Relu6` on its own: same
    /// bits.
    fn assert_fused_plan_matches_unfused(model: &webml_converter::GraphModel, spec: &GraphSpec) {
        let e = model.engine();
        let (vals, shape) = spec.example(1, 3);
        let sig = [(spec.input.clone(), shape.clone())];
        let x = e.tensor(vals, Shape::new(shape)).unwrap();
        let fused = model.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
        let unfused_fetches = [spec.output.as_str(), "conv1_bias"];
        let unfused = model.execute(&[(&spec.input, &x)], &unfused_fetches).unwrap();
        let fused_plan = model.plan_for_shapes(&sig, &[&spec.output]).unwrap();
        let partial_plan = model.plan_for_shapes(&sig, &unfused_fetches).unwrap();
        let relu6 = Some(UnaryOp::Relu6);
        let stem = |plan: &webml_converter::Plan| {
            let op = &plan.ops()[0];
            (op.name.clone(), op.call().and_then(KernelCall::epilogue))
        };
        let epilogue = |bias, activation| Some(Epilogue::Fused { bias, activation });
        assert_eq!(stem(&fused_plan), ("conv1_relu".to_string(), epilogue(true, relu6)));
        assert_eq!(stem(&partial_plan), ("conv1_bias".to_string(), epilogue(true, None)));
        assert_eq!(partial_plan.ops()[1].call(), Some(&KernelCall::Unary(UnaryOp::Relu6)));
        assert_eq!(partial_plan.op_count(), fused_plan.op_count() + 1);
        assert_eq!(
            fused[0].to_f32_vec().unwrap(),
            unfused[0].to_f32_vec().unwrap(),
            "fused and partly fused MobileNet plans must agree bitwise"
        );
        assert_eq!(model.plan_stats().fallbacks, 0);
    }

    #[test]
    fn mobilenet_spec_fused_plan_matches_unfused_plan() {
        let config = MobileNetConfig { input_size: 32, ..MobileNetConfig::small() };
        let spec = graph_mobilenet(&config);
        let e = engine();
        assert_fused_plan_matches_unfused(&spec.build(&e).unwrap(), &spec);
    }

    #[test]
    fn quantized_mobilenet_matches_f32_within_tolerance() {
        let config = MobileNetConfig { input_size: 32, ..MobileNetConfig::small() };
        let spec = graph_mobilenet(&config);
        let e = engine();
        let fm = spec.build(&e).unwrap();
        let qm = spec.build_quantized(&e).unwrap();
        // Every conv / depthwise / matmul weight holds one byte per code;
        // only the (tiny, rank-1) biases stay f32.
        assert!(
            qm.weight_bytes() * 3 <= fm.weight_bytes(),
            "quantized residency {} vs f32 {}",
            qm.weight_bytes(),
            fm.weight_bytes()
        );
        let (vals, shape) = spec.example(1, 5);
        let x = e.tensor(vals, Shape::new(shape)).unwrap();
        let fo = fm.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
        let qo = qm.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
        let fv = fo[0].to_f32_vec().unwrap();
        let qv = qo[0].to_f32_vec().unwrap();
        for (q, f) in qv.iter().zip(&fv) {
            assert!((q - f).abs() < 0.05, "quantized prob {q} vs f32 {f}");
        }
    }

    #[test]
    fn quantized_fused_plan_matches_unfused_plan() {
        let config = MobileNetConfig { input_size: 32, ..MobileNetConfig::small() };
        let spec = graph_mobilenet(&config);
        let e = engine();
        assert_fused_plan_matches_unfused(&spec.build_quantized(&e).unwrap(), &spec);
    }

    #[test]
    fn mobilenet_spec_precompiles_at_load() {
        let config = MobileNetConfig { input_size: 32, ..MobileNetConfig::small() };
        let spec = graph_mobilenet(&config);
        let e = engine();
        let model = spec.build(&e).unwrap();
        // Load-time precompile from the placeholder shape attr: the batch-1
        // plan is already cached, so the first execute is a hit.
        let before = model.plan_stats();
        assert_eq!(before.entries, 1, "load-time plan cached");
        let (vals, shape) = spec.example(1, 0);
        let x = e.tensor(vals, Shape::new(shape)).unwrap();
        model.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
        let after = model.plan_stats();
        assert_eq!(after.hits, before.hits + 1, "first request hits the warm plan");
    }
}
