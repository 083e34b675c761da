//! Execution-plan correctness. The plan is the only graph executor, so
//! there is no second op table to compare it with from outside the
//! converter; what is checked here needs none: every backend's plan equals
//! the `cpu` plan on bits, the fused plan equals the plan that fetches an
//! intermediate (and so skips the fold through it) on the same backend, and
//! liveness-driven eager disposal bounds peak memory to exactly the
//! planner's prediction.

use std::collections::HashMap;
use std::sync::Arc;
use webml::backend_webgl::{WebGlBackend, WebGlConfig};
use webml::converter::{GraphDef, GraphModel, Plan, Quantization};
use webml::core::backend::{Epilogue, KernelCall};
use webml::core::quant::QuantParams;
use webml::models::{graph_mlp, graph_mobilenet, GraphSpec, MobileNetConfig};
use webml::webgl_sim::devices::DeviceProfile;
use webml::webgl_sim::pager::PagingPolicy;
use webml::{Engine, Shape};

const BACKENDS: [&str; 4] = ["cpu", "webgl", "webgpu", "native"];

fn build(e: &Engine, spec: &GraphSpec) -> GraphModel {
    spec.build(e).expect("build graph model")
}

/// On every backend, the fused plan and the plan that also fetches
/// `swallowed` (a bias add the fused plan folds into its product, together
/// with the activation after it) give the same bits, and the bits of the
/// `cpu` backend: the plans run the same kernels in the same order, so on
/// an f32 device even accumulation order is identical. Fetching
/// `swallowed` skips only the fold through it: the product keeps its bias
/// and takes the name, and the activation runs on its own.
fn assert_plans_agree(spec: &GraphSpec, swallowed: &str, quantized: bool) {
    let mut cpu_bits: Option<Vec<u32>> = None;
    for backend in BACKENDS {
        let e = webml::new_engine();
        e.set_backend(backend).expect("backend registered");
        let model = if quantized { spec.build_quantized(&e) } else { spec.build(&e) }.unwrap();
        assert!(model.fused_node_count() < model.node_count());
        let (vals, shape) = spec.example(2, 1);
        let sig = [(spec.input.clone(), shape.clone())];
        let x = e.tensor(vals, Shape::new(shape)).unwrap();
        let feeds = [(spec.input.as_str(), &x)];
        let unfused_fetches = [spec.output.as_str(), swallowed];
        let bits = |fetches: &[&str]| -> Vec<u32> {
            let out = model.execute(&feeds, fetches).unwrap();
            out[0].to_f32_vec().unwrap().iter().map(|v| v.to_bits()).collect()
        };
        let fused = bits(&[&spec.output]);
        let unfused = bits(&unfused_fetches);
        let fused_plan = model.plan_for_shapes(&sig, &[&spec.output]).unwrap();
        let partial_plan = model.plan_for_shapes(&sig, &unfused_fetches).unwrap();
        assert_eq!(partial_plan.op_count(), fused_plan.op_count() + 1);
        assert_eq!(epilogue_of(&fused_plan, swallowed), None);
        let bias_only = Epilogue::Fused { bias: true, activation: None };
        assert_eq!(epilogue_of(&partial_plan, swallowed), Some(bias_only));
        assert_eq!(fused, unfused, "fused vs partly fused plan on {backend} (U8: {quantized})");
        let want = cpu_bits.get_or_insert_with(|| fused.clone());
        assert_eq!(&fused, want, "{backend} plan vs cpu plan (U8: {quantized})");
        let stats = model.plan_stats();
        assert!(stats.misses >= 2, "both plans compiled on {backend}: {stats:?}");
        assert_eq!(stats.fallbacks, 0, "the plan is the only executor: {stats:?}");
    }
}

/// The epilogue of the product call the plan names `name`, if it has one.
fn epilogue_of(plan: &Plan, name: &str) -> Option<Epilogue> {
    let op = plan.ops().iter().find(|op| op.name == name)?;
    op.call().and_then(KernelCall::epilogue)
}

#[test]
fn mlp_plans_agree_fused_unfused_and_with_cpu_on_all_backends() {
    let spec = graph_mlp(12, &[24, 24], 5, 42);
    assert_plans_agree(&spec, "ba0", false);
    assert_plans_agree(&spec, "ba0", true);
}

#[test]
fn mobilenet_plans_agree_fused_unfused_and_with_cpu_on_all_backends() {
    let config =
        MobileNetConfig { input_size: 32, classes: 7, ..MobileNetConfig::small() };
    let spec = graph_mobilenet(&config);
    assert_plans_agree(&spec, "conv1_bias", false);
    assert_plans_agree(&spec, "conv1_bias", true);
}

/// A deep matmul chain: scope-end disposal would hold every intermediate,
/// the plan disposes each at its last use, so the measured peak must equal
/// the predicted peak *exactly* (two live rows of the six).
#[test]
fn eager_disposal_bounds_peak_bytes_exactly() {
    const LAYERS: usize = 6;
    const DIM: usize = 16;
    let e = webml::new_engine();
    e.set_backend("cpu").unwrap();
    let mut nodes = vec![GraphDef::from_triples(&[("x", "Placeholder", &[])]).nodes[0].clone()];
    let mut weights: HashMap<String, webml::Tensor> = HashMap::new();
    let mut prev = "x".to_string();
    for i in 0..LAYERS {
        let w = format!("w{i}");
        let mm = format!("mm{i}");
        let t = e.tensor(vec![0.5; DIM * DIM], Shape::new(vec![DIM, DIM])).unwrap();
        t.keep();
        weights.insert(w.clone(), t);
        let mut g = GraphDef::from_triples(&[
            (&w, "VariableV2", &[]),
            (&mm, "MatMul", &[&prev, &w]),
        ]);
        nodes.append(&mut g.nodes);
        prev = mm;
    }
    let fetch = prev.clone();
    let model = GraphModel::new(&e, GraphDef { nodes }, weights).unwrap();
    let x = e.tensor(vec![1.0; DIM], Shape::new(vec![1, DIM])).unwrap();
    x.keep();
    let row_bytes = DIM * 4;

    let plan = model
        .plan_for_shapes(&[("x".into(), vec![1, DIM])], &[&fetch])
        .expect("plan compiles");
    assert_eq!(
        plan.predicted_peak_bytes(),
        2 * row_bytes,
        "liveness predicts two live rows (current op output + its input)"
    );

    e.reset_peak_bytes();
    let baseline = e.memory().num_bytes;
    let out = model.execute(&[("x", &x)], &[&fetch]).unwrap();
    out[0].dispose();
    assert_eq!(
        e.peak_bytes() - baseline,
        plan.predicted_peak_bytes(),
        "planned peak is exactly the prediction"
    );
    assert_eq!(keep_everything_bytes(&plan), LAYERS * row_bytes);
}

/// What a run would hold if nothing were disposed before the end: the bytes
/// of every non-alias op output of the plan.
fn keep_everything_bytes(plan: &webml::converter::Plan) -> usize {
    plan.ops()
        .iter()
        .filter(|op| !op.is_alias())
        .map(|op| op.out_shape.size() * op.out_dtype.byte_size())
        .sum()
}

fn webgl_engine(paging: PagingPolicy) -> Engine {
    let e = Engine::new();
    let config = WebGlConfig { paging, ..Default::default() };
    let backend = WebGlBackend::new(DeviceProfile::intel_iris_pro(), config).unwrap();
    e.register_backend("webgl", Arc::new(backend), 2);
    e
}

/// The memory-planning story on the paper's model (128x128 MobileNet on the
/// webgl rung): the measured activation peak is the prediction to the byte
/// and at most 0.70 of what scope-end disposal would hold, so under a
/// texture budget an eighth of the way from the one to the other the pager
/// never runs.
#[test]
fn mobilenet_peak_is_predicted_and_fits_a_texture_budget_without_paging() {
    let config = MobileNetConfig { input_size: 128, classes: 10, ..MobileNetConfig::small() };
    let spec = graph_mobilenet(&config);
    let (vals, shape) = spec.example(1, 0);
    let sig = [(spec.input.clone(), shape.clone())];
    // One pass and its readback; returns the peak above the resident level.
    let pass = |e: &Engine, model: &GraphModel, x: &webml::Tensor| -> usize {
        e.reset_peak_bytes();
        let level = e.memory().num_bytes;
        let out = model.execute(&[(&spec.input, x)], &[&spec.output]).unwrap();
        out[0].to_f32_vec().unwrap();
        let peak = e.peak_bytes() - level;
        out[0].dispose();
        peak
    };

    let e = webgl_engine(PagingPolicy::disabled());
    let model = build(&e, &spec);
    let x = e.tensor(vals.clone(), Shape::new(shape.clone())).unwrap();
    let plan = model.plan_for_shapes(&sig, &[&spec.output]).unwrap();
    let predicted = plan.predicted_peak_bytes();
    let sum = keep_everything_bytes(&plan);
    assert_eq!(pass(&e, &model, &x), predicted, "measured peak is the prediction");
    assert!(
        predicted as f64 <= 0.70 * sum as f64,
        "eager disposal holds {predicted} of the {sum} bytes scope-end disposal would"
    );
    let resident = e.memory().num_bytes;

    let threshold_bytes = resident + predicted + (sum - predicted) / 8;
    let e = webgl_engine(PagingPolicy { enabled: true, threshold_bytes });
    let model = build(&e, &spec);
    let x = e.tensor(vals, Shape::new(shape)).unwrap();
    for _ in 0..10 {
        assert_eq!(pass(&e, &model, &x), predicted);
    }
    let page_outs = e.memory().backend.details.iter().find(|(k, _)| k == "page_outs").map(|(_, v)| *v);
    assert_eq!(page_outs, Some(0.0), "the plan stays resident under the budget");
}

/// Pipelined execution (enqueue + async readback behind a fence) must be
/// bitwise identical to the synchronous path on every backend: the same
/// plan runs the same kernels; only the readback mechanism differs.
#[test]
fn pipelined_matches_synchronous_on_all_backends() {
    let spec = graph_mlp(12, &[24, 24], 5, 42);
    for backend in BACKENDS {
        let e = webml::new_engine();
        e.set_backend(backend).expect("backend registered");
        let model = build(&e, &spec);
        let (vals, shape) = spec.example(3, 2);
        let x = e.tensor(vals, Shape::new(shape)).unwrap();
        let sync_out = model.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
        let expect = sync_out[0].to_f32_vec().unwrap();
        sync_out[0].dispose();
        let pending = model.execute_pipelined(&[(&spec.input, &x)], &[&spec.output]).unwrap();
        let got = pending.wait().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].to_f32_vec(), expect, "pipelined vs sync on {backend}");
    }
}

/// Figures 2 and 3 as counts: a blocking read issued while the device still
/// has work queued drains the pipeline; the pipelined path reads behind a
/// fence and never does. Every draw stalls, so the device is always behind
/// when a blocking read arrives: each of N synchronous passes adds exactly
/// one drain, N pipelined passes in a depth-2 window add none, and the
/// outputs are the same bits.
#[test]
fn pipelined_passes_skip_the_pipeline_drain() {
    const PASSES: usize = 4;
    let spec = graph_mlp(12, &[24, 24], 5, 42);
    let stalls = webml::FaultPlan::none().with_draw_stall(1.0, 500_000);
    let backend = Arc::new(
        WebGlBackend::with_faults(DeviceProfile::intel_iris_pro(), WebGlConfig::default(), stalls)
            .unwrap(),
    );
    let e = Engine::new();
    e.register_backend("webgl", backend.clone(), 2);
    let model = build(&e, &spec);
    let inputs: Vec<webml::Tensor> = (0..PASSES)
        .map(|k| {
            let (vals, shape) = spec.example(1, k);
            e.tensor(vals, Shape::new(shape)).unwrap()
        })
        .collect();
    let feeds = |k: usize| [(spec.input.as_str(), &inputs[k])];
    let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();

    let before = backend.queue_stats().drains;
    let sync: Vec<Vec<u32>> = (0..PASSES)
        .map(|k| {
            let out = model.execute(&feeds(k), &[&spec.output]).unwrap();
            let values = out[0].to_f32_vec().unwrap();
            out[0].dispose();
            bits(values)
        })
        .collect();
    assert_eq!(backend.queue_stats().drains - before, PASSES as u64, "one drain per sync pass");

    let before = backend.queue_stats().drains;
    let mut window = std::collections::VecDeque::new();
    let mut pipelined = Vec::new();
    for k in 0..PASSES {
        window.push_back(model.execute_pipelined(&feeds(k), &[&spec.output]).unwrap());
        if window.len() == 2 {
            pipelined.push(bits(window.pop_front().unwrap().wait().unwrap()[0].to_f32_vec()));
        }
    }
    for pending in window {
        pipelined.push(bits(pending.wait().unwrap()[0].to_f32_vec()));
    }
    assert_eq!(backend.queue_stats().drains - before, 0, "pipelined passes never drain");
    assert_eq!(pipelined, sync, "pipelined vs sync on bits");
}

/// Several plan runs can be in flight at once; completing them in
/// submission order must still return each run's own answer, bitwise.
#[test]
fn overlapping_pipelined_runs_keep_their_answers() {
    let spec = graph_mlp(12, &[24, 24], 5, 42);
    for backend in BACKENDS {
        let e = webml::new_engine();
        e.set_backend(backend).expect("backend registered");
        let model = build(&e, &spec);
        let mut expects = Vec::new();
        let mut pendings = Vec::new();
        for seed in 0..4usize {
            let (vals, shape) = spec.example(2, seed);
            let x = e.tensor(vals, Shape::new(shape)).unwrap();
            let sync_out = model.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
            expects.push(sync_out[0].to_f32_vec().unwrap());
            sync_out[0].dispose();
            pendings
                .push(model.execute_pipelined(&[(&spec.input, &x)], &[&spec.output]).unwrap());
            x.dispose();
        }
        for (pending, expect) in pendings.into_iter().zip(expects) {
            let got = pending.wait().unwrap();
            assert_eq!(got[0].to_f32_vec(), expect, "in-flight run on {backend}");
        }
    }
}

/// Fence-deferred disposal must be exact: after a pipelined run completes,
/// every intermediate and fetch tensor is released and engine memory
/// accounting returns to the pre-run baseline. Repeated runs must not
/// accumulate state (tensors, bytes, or scope entries).
#[test]
fn pipelined_disposal_closes_memory_accounting() {
    let spec = graph_mlp(12, &[24, 24], 5, 42);
    for backend in BACKENDS {
        let e = webml::new_engine();
        e.set_backend(backend).expect("backend registered");
        let model = build(&e, &spec);
        let (vals, shape) = spec.example(2, 1);
        let x = e.tensor(vals, Shape::new(shape)).unwrap();
        x.keep();
        // Warm the plan cache so the baseline excludes compile-time state.
        model.execute_pipelined(&[(&spec.input, &x)], &[&spec.output]).unwrap().wait().unwrap();
        let baseline = e.memory();
        for _ in 0..50 {
            let pending =
                model.execute_pipelined(&[(&spec.input, &x)], &[&spec.output]).unwrap();
            pending.wait().unwrap();
        }
        let after = e.memory();
        assert_eq!(
            (after.num_tensors, after.num_bytes),
            (baseline.num_tensors, baseline.num_bytes),
            "pipelined runs leak state on {backend}"
        );
    }
}

/// The plan cache is keyed by feed-shape signature: new batch sizes
/// compile new plans, repeats hit.
#[test]
fn plan_cache_hits_across_batch_sizes() {
    let spec = graph_mlp(8, &[16], 4, 9);
    let e = webml::new_engine();
    e.set_backend("cpu").unwrap();
    let model = build(&e, &spec);
    // Load-time precompile (the placeholder declares batch 1).
    let after_load = model.plan_stats();
    assert_eq!(after_load.entries, 1);
    for batch in [1usize, 3, 3, 1, 8] {
        let (vals, shape) = spec.example(batch, 0);
        let x = e.tensor(vals, Shape::new(shape)).unwrap();
        let outs = model.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
        assert_eq!(outs[0].shape().0, vec![batch, 4]);
    }
    let stats = model.plan_stats();
    assert_eq!(stats.entries, 3, "three distinct batch signatures: {stats:?}");
    assert_eq!(stats.misses, 3, "one compile per signature: {stats:?}");
    assert_eq!(stats.hits, 3, "repeat shapes hit: {stats:?}");
}

/// A planned op leaves only its output, whatever it dispatches, so the
/// executor frees slots and nothing else. The graph's U8 weights take both
/// routes of the quantized-weight gate — `w1` per output column (the
/// factored kernel), `w0` per row along the reduced axis (dequantized into a
/// temporary f32 weight) — and it ends in a softmax. Run with fusion on and
/// off (each fused call composed from plain calls), the engine is back at
/// its baseline tensors and bytes after each run, and the run's peak is the
/// pinned one.
#[test]
fn composite_ops_in_a_plan_free_their_own_intermediates() {
    let spec = graph_mlp(12, &[24], 5, 7);
    let e = webml::new_engine();
    e.set_backend("cpu").unwrap();
    let mut weights = HashMap::new();
    for (name, values, shape) in &spec.weights {
        let t = match name.as_str() {
            "w0" | "w1" => {
                let axis = usize::from(name == "w1");
                let (codes, scales, mins) =
                    Quantization::U8.quantize_per_channel(name, values, shape, axis).unwrap();
                let params = QuantParams::per_channel(axis, scales, mins);
                e.quantized_tensor(codes, Shape::new(shape.clone()), params).unwrap()
            }
            _ => e.tensor(values.clone(), Shape::new(shape.clone())).unwrap(),
        };
        t.keep();
        weights.insert(name.clone(), t);
    }
    let model = GraphModel::new(&e, spec.graph.clone(), weights).unwrap();
    let (vals, shape) = spec.example(4, 1);
    let x = e.tensor(vals, Shape::new(shape)).unwrap();
    let feeds = [(spec.input.as_str(), &x)];
    let run = || model.execute(&feeds, &[&spec.output]).unwrap().remove(0);
    let (y, profile) = e.profile(run);
    y.dispose();
    let names: Vec<&str> = profile.kernels.iter().map(|k| k.name).collect();
    assert_eq!(names[..2], ["FusedMatMul", "FusedMatMulQuant"], "{names:?}");
    // Fused: the f32 copy of `w0` and the hidden layer, 1 152 + 384 bytes.
    // Composed: its plain product and bias add besides.
    for (fusion, pinned_peak) in [(true, 1536), (false, 2304)] {
        e.set_fusion_enabled(fusion);
        let baseline = (e.num_tensors(), e.memory().num_bytes);
        e.reset_peak_bytes();
        let out = run();
        let peak = e.peak_bytes() - baseline.1;
        out.dispose();
        assert_eq!((e.num_tensors(), e.memory().num_bytes), baseline, "fusion {fusion}");
        assert_eq!(peak, pinned_peak, "fusion {fusion}");
    }
    e.set_fusion_enabled(true);
}
