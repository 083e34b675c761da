//! Fault injection and graceful degradation: the engine must survive
//! simulated WebGL context loss, texture OOM, shader-compile failure and
//! transient readback errors — completing every computation on a fallback
//! backend with results bit-identical to a fault-free CPU run.
//!
//! The key enabler is that the simulated WebGL programs accumulate in the
//! same order as the reference CPU kernels, so on an f32 device a mid-graph
//! backend switch is numerically invisible and `assert_eq!` is the right
//! comparison.

use proptest::prelude::*;
use std::sync::Arc;
use webml::backend_webgl::{WebGlBackend, WebGlConfig};
use webml::core::cpu::CpuBackend;
use webml::webgl_sim::devices::DeviceProfile;
use webml::webgl_sim::pager::PagingPolicy;
use webml::{new_engine, new_engine_with_faults, ops, Engine, FaultPlan};

/// A small deterministic op graph: two matmul layers with bias and relu.
/// Several draws deep, so scheduled context losses land mid-computation;
/// built only from ops whose webgl programs are accumulation-order-identical
/// to the CPU kernels (exact equality on an f32 device).
fn two_layer_chain(e: &Engine) -> Vec<f32> {
    let x = e.rand_uniform([12, 16], -1.0, 1.0, 21).unwrap();
    let w1 = e.rand_uniform([16, 10], -1.0, 1.0, 22).unwrap();
    let b1 = e.rand_uniform([1, 10], -0.5, 0.5, 23).unwrap();
    let h = ops::relu(&ops::add(&ops::matmul(&x, &w1, false, false).unwrap(), &b1).unwrap())
        .unwrap();
    let w2 = e.rand_uniform([10, 4], -1.0, 1.0, 24).unwrap();
    let y = ops::add(&ops::matmul(&h, &w2, false, false).unwrap(), &h2_bias(e)).unwrap();
    y.to_f32_vec().unwrap()
}

fn h2_bias(e: &Engine) -> webml::Tensor {
    e.rand_uniform([1, 4], -0.5, 0.5, 25).unwrap()
}

/// The same graph on a pristine engine pinned to the reference CPU backend.
fn cpu_reference() -> Vec<f32> {
    let e = new_engine();
    e.set_backend("cpu").unwrap();
    two_layer_chain(&e)
}

/// The fault schedule's seed: the `fault-soak` CI matrix sets
/// `WEBML_FAULT_SEED`; 0 without it.
fn fault_seed() -> u64 {
    std::env::var("WEBML_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// A faulty engine like [`new_engine_with_faults`] but with a custom WebGL
/// config (e.g. paging enabled).
fn engine_with_faults_and_config(plan: FaultPlan, config: WebGlConfig) -> Engine {
    let engine = Engine::new();
    engine.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    let webgl = WebGlBackend::with_faults(DeviceProfile::intel_iris_pro(), config, plan)
        .expect("webgl backend");
    engine.register_backend("webgl", Arc::new(webgl), 2);
    engine
}

#[test]
fn context_loss_mid_matmul_recovers_bit_identical_on_cpu() {
    let e = new_engine_with_faults(FaultPlan::none().lose_context_at(2));
    assert_eq!(e.backend_name(), "webgl");

    let got = two_layer_chain(&e);
    assert_eq!(got, cpu_reference(), "fallback run must be bit-identical");

    assert_eq!(e.degradations(), 1, "exactly one degradation");
    let events = e.degradation_events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].from_backend, "webgl");
    assert_eq!(events[0].to_backend, "cpu");
    assert!(events[0].reason.contains("lost"), "reason: {}", events[0].reason);
    assert_eq!(e.backend_name(), "cpu", "engine stays on the fallback");
    let mem = e.memory();
    assert_eq!(mem.degradations, 1);
    assert_eq!(mem.current_backend, "cpu");
}

#[test]
fn paging_absorbs_memory_pressure_without_degradation() {
    // Every single allocation fits the 16 KiB budget and paging is enabled,
    // so cumulative pressure pages textures out instead of failing allocs.
    let plan = FaultPlan::none().with_texture_byte_limit(16 * 1024);
    let config = WebGlConfig {
        paging: PagingPolicy { enabled: true, threshold_bytes: 8 * 1024 },
        ..WebGlConfig::default()
    };
    let e = engine_with_faults_and_config(plan, config);

    // ~4 KiB per tensor, 10 tensors: cumulative pressure well over budget.
    let mut acc = e.rand_uniform([32, 32], -1.0, 1.0, 31).unwrap();
    for seed in 32..41 {
        let t = e.rand_uniform([32, 32], -1.0, 1.0, seed).unwrap();
        acc = ops::add(&acc, &t).unwrap();
    }
    let got = acc.to_f32_vec().unwrap();

    let r = new_engine();
    r.set_backend("cpu").unwrap();
    let mut acc = r.rand_uniform([32, 32], -1.0, 1.0, 31).unwrap();
    for seed in 32..41 {
        let t = r.rand_uniform([32, 32], -1.0, 1.0, seed).unwrap();
        acc = ops::add(&acc, &t).unwrap();
    }
    assert_eq!(got, acc.to_f32_vec().unwrap());
    assert_eq!(e.degradations(), 0, "paging must absorb the pressure");
    assert_eq!(e.backend_name(), "webgl");
}

#[test]
fn oom_beyond_paging_falls_back_to_cpu() {
    // A 256-byte budget rejects every allocation outright (requests exceed
    // the whole limit), which paging cannot absorb: the engine must exhaust
    // its transient retries and then degrade.
    let plan = FaultPlan::none().with_texture_byte_limit(256);
    let config = WebGlConfig {
        paging: PagingPolicy { enabled: true, threshold_bytes: 128 },
        ..WebGlConfig::default()
    };
    let e = engine_with_faults_and_config(plan, config);

    let got = two_layer_chain(&e);
    assert_eq!(got, cpu_reference());
    assert_eq!(e.degradations(), 1);
    assert_eq!(e.degradation_events()[0].to_backend, "cpu");
    assert_eq!(e.backend_name(), "cpu");
}

#[test]
fn blocked_shader_falls_back_without_data_loss() {
    // "MatMul" prefix-blocks both the packed and unpacked matmul programs.
    let e = new_engine_with_faults(FaultPlan::none().block_shader("MatMul"));

    // Warm up live data on the webgl backend before the failure...
    let a = e.rand_uniform([8, 8], -1.0, 1.0, 41).unwrap();
    let b = e.rand_uniform([8, 8], -1.0, 1.0, 42).unwrap();
    let warm = ops::add(&a, &b).unwrap();
    assert_eq!(e.degradations(), 0, "elementwise ops still compile");

    // ...then hit the blocked kernel: the engine degrades and the inputs
    // (still resident webgl-side) migrate to the fallback unharmed.
    let got = ops::matmul(&warm, &a, false, false).unwrap().to_f32_vec().unwrap();

    let r = new_engine();
    r.set_backend("cpu").unwrap();
    let a2 = r.rand_uniform([8, 8], -1.0, 1.0, 41).unwrap();
    let b2 = r.rand_uniform([8, 8], -1.0, 1.0, 42).unwrap();
    let warm2 = ops::add(&a2, &b2).unwrap();
    let want = ops::matmul(&warm2, &a2, false, false).unwrap().to_f32_vec().unwrap();

    assert_eq!(got, want);
    assert_eq!(e.degradations(), 1);
    let event = &e.degradation_events()[0];
    assert_eq!(event.kernel, "MatMul");
    assert!(event.reason.contains("MatMul"), "reason: {}", event.reason);
}

#[test]
fn transient_readback_faults_are_retried_invisibly() {
    let e = new_engine_with_faults(FaultPlan::none().with_readback_failures(1.0, 2));
    let got = two_layer_chain(&e);
    assert_eq!(got, cpu_reference());
    // Bounded readback faults heal through in-place retries, not fallback.
    assert_eq!(e.degradations(), 0);
    assert_eq!(e.backend_name(), "webgl");
}

/// The seed consumed by the `fault-soak` CI job: each matrix entry exports
/// `WEBML_FAULT_SEED` and re-runs this test against a different random
/// fault schedule. Defaults to seed 0 in a plain `cargo test`.
#[test]
fn fault_soak_seeded_plan_is_numerically_invisible() {
    let seed = fault_seed();
    let plan = FaultPlan::from_seed(seed);
    let e = new_engine_with_faults(plan);
    let want = cpu_reference();
    // Two passes: the second exercises the engine in whatever degraded (or
    // healthy) state the first left it.
    for pass in 0..2 {
        let got = two_layer_chain(&e);
        assert_eq!(got, want, "seed {seed}, pass {pass}");
    }
    assert!(e.degradations() <= 1, "at most one webgl→cpu fallback exists");
}

/// Concurrent stress under the same seeded fault schedule the `fault-soak`
/// CI matrix replays: 8 threads share one faulty engine, mixing creation,
/// kernels, readback, disposal and accounting calls. Whatever the seed
/// injects (transient readbacks, OOM, context loss), every value must stay
/// correct and the final memory accounting must be exact.
#[test]
fn concurrent_stress_under_seeded_faults_keeps_exact_accounting() {
    let seed = fault_seed();
    let e = Arc::new(new_engine_with_faults(FaultPlan::from_seed(seed)));
    let base = e.memory();
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let e = e.clone();
        handles.push(std::thread::spawn(move || {
            let mut kept = Vec::new();
            for i in 0..16u64 {
                let v = (t * 17 + i) as f32;
                let a = e.fill([64], v, webml::DType::F32).unwrap();
                let b = ops::add(&a, &a).unwrap();
                let vals = b.to_f32_vec().unwrap();
                assert!(
                    vals.iter().all(|&x| x == v * 2.0),
                    "seed {seed} thread {t} iter {i}"
                );
                a.dispose();
                if i % 5 == 0 {
                    kept.push(b);
                } else {
                    b.dispose();
                }
                if i % 4 == 1 {
                    let _ = e.memory();
                }
            }
            kept
        }));
    }
    let mut kept_all = Vec::new();
    for h in handles {
        kept_all.extend(h.join().unwrap());
    }
    let m = e.memory();
    assert_eq!(m.num_tensors, base.num_tensors + kept_all.len(), "seed {seed}");
    assert_eq!(m.num_bytes, base.num_bytes + kept_all.len() * 64 * 4, "seed {seed}");
    for t in kept_all {
        t.dispose();
    }
    let end = e.memory();
    assert_eq!(end.num_tensors, base.num_tensors, "seed {seed}");
    assert_eq!(end.num_bytes, base.num_bytes, "seed {seed}");
    assert!(e.degradations() <= 1, "at most one webgl→cpu fallback exists");
}

/// The serving layer over a faulty engine: a scheduled context loss lands
/// mid-traffic, the engine degrades webgl→cpu, the warm-model cache
/// invalidates (the lost context's uploads are gone), models rebuild on
/// the fallback — and every client still gets a correct answer. The server
/// is a fleet of one engine whose breaker does not trip on the degradation,
/// so the engine keeps serving on its fallback. Run by every entry of the
/// `fault-soak` CI matrix, which replays the whole suite.
#[test]
fn serve_survives_context_loss_and_reloads_on_fallback() {
    use std::time::Duration;
    use webml::models::serving::{classifier_artifacts, synthetic_example};
    use webml::serve::{BreakerConfig, EngineSpec, FleetConfig, FleetServer, ModelSlo, ModelSource};

    const IN_DIM: usize = 16;
    const CLASSES: usize = 5;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;

    // Build the artifacts once on a clean engine; the server and the
    // reference rebuild from the same host-side weights, so their answers
    // are comparable.
    let builder = new_engine();
    builder.set_backend("cpu").unwrap();
    let artifacts = classifier_artifacts(&builder, IN_DIM, 24, CLASSES, 9).unwrap();
    let examples: Vec<Vec<f32>> =
        (0..CLIENTS * PER_CLIENT).map(|i| synthetic_example(IN_DIM, i)).collect();
    let want = reference_answers(&artifacts, &examples);

    // The faulty server: context loss scheduled a few forward passes in.
    let e = new_engine_with_faults(FaultPlan::none().lose_context_at(40));
    assert_eq!(e.backend_name(), "webgl");
    let breaker = BreakerConfig { trip_on_degradation: false, ..Default::default() };
    let server = Arc::new(FleetServer::new(
        vec![EngineSpec::new("only", &e, 8)],
        FleetConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            cache_capacity: 2,
            breaker,
            ..Default::default()
        },
    ));
    let key = server.register(
        ModelSource::Artifacts(artifacts),
        ModelSlo::new(1_000.0, Duration::from_secs(10)),
    );

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = server.clone();
            let examples = examples.clone();
            let want = want.clone();
            std::thread::spawn(move || {
                for r in 0..PER_CLIENT {
                    let idx = c * PER_CLIENT + r;
                    let resp = server
                        .infer(key, examples[idx].clone(), vec![IN_DIM])
                        .expect("requests keep succeeding across the context loss");
                    assert_eq!(resp.dims, vec![CLASSES]);
                    for (got, want) in resp.values.iter().zip(&want[idx]) {
                        assert!(
                            (got - want).abs() < 1e-5,
                            "client {c} request {r}: {got} vs {want}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The loss degraded the engine exactly once and stranded the cache,
    // which invalidated and rebuilt on the fallback backend. Stats are read
    // *before* shutdown: the shutdown path counts one more invalidation for
    // releasing the warm models.
    assert_eq!(e.degradations(), 1, "exactly one webgl→cpu fallback");
    assert_eq!(e.backend_name(), "cpu");
    let fleet = server.stats();
    assert_eq!(fleet.accounted(), fleet.submitted, "every request has one outcome: {fleet:?}");
    let stats = &fleet.engines[0].serve;
    assert_eq!(stats.served, (CLIENTS * PER_CLIENT) as u64);
    assert!(stats.cache_invalidations >= 1, "context loss invalidated the cache: {stats:?}");
}

/// What a fault-free CPU engine answers for each example, one forward pass
/// of one example at a time on the model built from `artifacts`.
fn reference_answers(
    artifacts: &webml::converter::ModelArtifacts,
    examples: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    let r = new_engine();
    r.set_backend("cpu").unwrap();
    let mut model = webml::converter::from_artifacts(&r, artifacts).unwrap();
    examples
        .iter()
        .map(|ex| {
            let x = r.tensor(ex.clone(), webml::Shape::new(vec![1, ex.len()])).unwrap();
            let y = model.predict(&x).unwrap();
            let values = y.to_f32_vec().unwrap();
            x.dispose();
            y.dispose();
            values
        })
        .collect()
}

/// Execution plans are keyed to the engine's degradation generation: a
/// seeded context loss mid-soak must invalidate every cached plan, and the
/// next request recompiles on the fallback backend with results bitwise
/// identical to a pristine CPU run. The `fault-soak` CI matrix exports
/// `WEBML_FAULT_SEED` to move the loss point between runs.
#[test]
fn context_loss_invalidates_and_rebuilds_execution_plans() {
    use webml::models::graph_mlp;
    use webml::Shape;
    let seed = fault_seed();
    let spec = graph_mlp(8, &[16, 16], 4, 33);
    // Reference: the same model on a pristine CPU engine.
    let r = new_engine();
    r.set_backend("cpu").unwrap();
    let ref_model = spec.build(&r).unwrap();
    let (vals, shape) = spec.example(1, 0);
    let xr = r.tensor(vals.clone(), Shape::new(shape.clone())).unwrap();
    let want =
        ref_model.execute(&[(&spec.input, &xr)], &[&spec.output]).unwrap()[0].to_f32_vec().unwrap();

    // Lose the context partway through a 6-pass soak (each planned pass is
    // a handful of draws), at a seed-dependent draw.
    let e = new_engine_with_faults(FaultPlan::none().lose_context_at(3 + seed % 13));
    let model = spec.build(&e).unwrap();
    let x = e.tensor(vals, Shape::new(shape)).unwrap();
    x.keep();
    for pass in 0..6 {
        let got =
            model.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap()[0].to_f32_vec().unwrap();
        assert_eq!(got, want, "seed {seed}, pass {pass}");
    }
    assert_eq!(e.degradations(), 1, "the scheduled loss fired mid-soak");
    assert_eq!(e.backend_name(), "cpu");
    let stats = model.plan_stats();
    assert!(stats.invalidations >= 1, "loss invalidated the plan cache: {stats:?}");
    assert!(
        stats.misses >= 2,
        "a plan was recompiled on the fallback backend: {stats:?}"
    );
    assert!(stats.hits >= 1, "post-rebuild passes ride the new plan: {stats:?}");
}

/// A WebGPU device loss must land one rung down — on **webgl**, not cpu —
/// with results bit-identical to the reference (both GPU rungs accumulate
/// in the CPU kernel order).
#[test]
fn webgpu_device_loss_lands_on_webgl_bit_identical() {
    let e = webml::new_engine_with_webgpu_faults(FaultPlan::none().lose_context_at(2));
    assert_eq!(e.backend_name(), "webgpu");

    let got = two_layer_chain(&e);
    assert_eq!(got, cpu_reference(), "post-loss run must be bit-identical");

    assert_eq!(e.degradations(), 1);
    let events = e.degradation_events();
    assert_eq!(events[0].from_backend, "webgpu");
    assert_eq!(events[0].to_backend, "webgl", "the ladder lands on the webgl rung first");
    assert_eq!(e.backend_name(), "webgl");
}

/// Both GPU devices fail in sequence: the engine must walk the full
/// `webgpu → webgl → cpu` ladder, losing no data and no accuracy.
#[test]
fn double_device_loss_walks_the_full_ladder_to_cpu() {
    use webml::backend_webgpu::WebGpuBackend;
    use webml::webgpu_sim::WebGpuConfig;
    let e = Engine::new();
    e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    let webgl = WebGlBackend::with_faults(
        DeviceProfile::intel_iris_pro(),
        WebGlConfig::default(),
        FaultPlan::none().lose_context_at(1).unrestorable(),
    )
    .unwrap();
    e.register_backend("webgl", Arc::new(webgl), 2);
    let webgpu = WebGpuBackend::with_faults(
        DeviceProfile::intel_iris_pro(),
        WebGpuConfig::default(),
        FaultPlan::none().lose_context_at(2).unrestorable(),
    )
    .unwrap();
    e.register_backend("webgpu", Arc::new(webgpu), 3);
    assert_eq!(e.backend_ladder()[..3], ["webgpu".to_string(), "webgl".into(), "cpu".into()]);

    let got = two_layer_chain(&e);
    assert_eq!(got, cpu_reference(), "double-fault run must be bit-identical");

    assert_eq!(e.degradations(), 2, "two rungs failed");
    let events = e.degradation_events();
    assert_eq!(
        (events[0].from_backend.as_str(), events[0].to_backend.as_str()),
        ("webgpu", "webgl")
    );
    assert_eq!(
        (events[1].from_backend.as_str(), events[1].to_backend.as_str()),
        ("webgl", "cpu")
    );
    assert_eq!(e.backend_name(), "cpu");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: no randomly seeded fault plan may ever change numerical
    /// results — faults may only cost time (retries) or a degradation.
    #[test]
    fn any_fault_seed_never_changes_output(seed in 0u64..10_000) {
        let e = new_engine_with_faults(FaultPlan::from_seed(seed));
        let got = two_layer_chain(&e);
        prop_assert_eq!(got, cpu_reference());
    }

    /// Property: a context loss landing anywhere inside a pipelined window
    /// (ops enqueued, async readbacks and fences in flight, up to three
    /// submissions deep) must drain cleanly — every `PendingFetches`
    /// resolves with answers bitwise-identical to a pristine CPU run and
    /// zero caller-visible errors, the degradation ladder replaying
    /// whatever the lost context swallowed on the fallback backend.
    #[test]
    fn context_loss_mid_pipeline_drains_bit_identical(seed in 0u64..10_000) {
        use std::collections::VecDeque;
        use webml::converter::PendingFetches;
        use webml::models::graph_mlp;
        use webml::Shape;
        const DEPTH: usize = 3;
        const PASSES: usize = 8;
        const CYCLE: usize = 4;

        let spec = graph_mlp(8, &[16, 16], 4, 33);
        // Reference answers for each input in the cycle, from a pristine
        // CPU engine.
        let r = new_engine();
        r.set_backend("cpu").unwrap();
        let ref_model = spec.build(&r).unwrap();
        let mut want = Vec::with_capacity(CYCLE);
        for k in 0..CYCLE {
            let (vals, shape) = spec.example(1, k);
            let x = r.tensor(vals, Shape::new(shape)).unwrap();
            let outs = ref_model.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
            want.push(outs[0].to_f32_vec().unwrap());
        }

        // Context loss at a seed-scheduled draw: early losses land during
        // the first submissions, late ones mid-window or during drains.
        let e = new_engine_with_faults(FaultPlan::none().lose_context_at(1 + seed % 60));
        let model = spec.build(&e).unwrap();
        let inputs: Vec<webml::Tensor> = (0..CYCLE)
            .map(|k| {
                let (vals, shape) = spec.example(1, k);
                let x = e.tensor(vals, Shape::new(shape)).unwrap();
                x.keep();
                x
            })
            .collect();

        let mut window: VecDeque<(usize, PendingFetches)> = VecDeque::new();
        for pass in 0..PASSES {
            let k = pass % CYCLE;
            let pending = model
                .execute_pipelined(&[(&spec.input, &inputs[k])], &[&spec.output])
                .expect("submission never surfaces an error");
            window.push_back((k, pending));
            if window.len() == DEPTH {
                let (k, pending) = window.pop_front().expect("window non-empty");
                let got = pending.wait().expect("in-flight fetches drain cleanly");
                prop_assert!(got[0].to_f32_vec() == want[k], "output diverged: seed {} pass {}", seed, pass);
            }
        }
        for (k, pending) in window {
            let got = pending.wait().expect("final drain completes");
            prop_assert!(got[0].to_f32_vec() == want[k], "output diverged: seed {} drain", seed);
        }
        prop_assert!(e.degradations() <= 1, "at most one webgl→cpu fallback");
    }

    /// Property: a WebGPU device loss landing anywhere inside a pipelined
    /// window drains cleanly onto the **webgl** rung — every pending fetch
    /// resolves bitwise-identical to a pristine CPU run, zero caller-visible
    /// errors, and the one degradation (if the scheduled loss fired at all)
    /// goes webgpu→webgl, never skipping a rung.
    #[test]
    fn webgpu_loss_mid_pipeline_drains_onto_webgl(seed in 0u64..10_000) {
        use std::collections::VecDeque;
        use webml::converter::PendingFetches;
        use webml::models::graph_mlp;
        use webml::Shape;
        const DEPTH: usize = 3;
        const PASSES: usize = 8;
        const CYCLE: usize = 4;

        let spec = graph_mlp(8, &[16, 16], 4, 33);
        let r = new_engine();
        r.set_backend("cpu").unwrap();
        let ref_model = spec.build(&r).unwrap();
        let mut want = Vec::with_capacity(CYCLE);
        for k in 0..CYCLE {
            let (vals, shape) = spec.example(1, k);
            let x = r.tensor(vals, Shape::new(shape)).unwrap();
            let outs = ref_model.execute(&[(&spec.input, &x)], &[&spec.output]).unwrap();
            want.push(outs[0].to_f32_vec().unwrap());
        }

        let e = webml::new_engine_with_webgpu_faults(
            FaultPlan::none().lose_context_at(1 + seed % 60),
        );
        prop_assert_eq!(e.backend_name(), "webgpu");
        let model = spec.build(&e).unwrap();
        let inputs: Vec<webml::Tensor> = (0..CYCLE)
            .map(|k| {
                let (vals, shape) = spec.example(1, k);
                let x = e.tensor(vals, Shape::new(shape)).unwrap();
                x.keep();
                x
            })
            .collect();

        let mut window: VecDeque<(usize, PendingFetches)> = VecDeque::new();
        for pass in 0..PASSES {
            let k = pass % CYCLE;
            let pending = model
                .execute_pipelined(&[(&spec.input, &inputs[k])], &[&spec.output])
                .expect("submission never surfaces an error");
            window.push_back((k, pending));
            if window.len() == DEPTH {
                let (k, pending) = window.pop_front().expect("window non-empty");
                let got = pending.wait().expect("in-flight fetches drain cleanly");
                prop_assert!(got[0].to_f32_vec() == want[k], "output diverged: seed {} pass {}", seed, pass);
            }
        }
        for (k, pending) in window {
            let got = pending.wait().expect("final drain completes");
            prop_assert!(got[0].to_f32_vec() == want[k], "output diverged: seed {} drain", seed);
        }
        prop_assert!(e.degradations() <= 1, "at most one webgpu→webgl fallback");
        if e.degradations() == 1 {
            let events = e.degradation_events();
            prop_assert_eq!(events[0].from_backend.as_str(), "webgpu");
            // Never skips the webgl rung.
            prop_assert_eq!(events[0].to_backend.as_str(), "webgl");
        }
    }
}

/// A 4-engine SLO fleet under simultaneous overload, a scheduled context
/// loss, and seeded draw stragglers. The serving contract under faults:
/// shed requests fail with *explicit* refusals (never a hang or a silent
/// drop), admitted requests return answers bitwise-identical to a
/// fault-free CPU reference (the degradation ladder and re-routing are
/// numerically invisible), and every submitted request lands in exactly
/// one outcome bucket of the fleet's accounting.
fn fleet_soak(seed: u64, clients: usize, requests: usize, burst: usize) {
    use std::time::Duration;
    use webml::models::serving::{classifier_artifacts, synthetic_example};
    use webml::serve::{EngineSpec, FleetConfig, FleetServer, ModelSlo, ModelSource, ServeError};

    const IN_DIM: usize = 16;
    const CLASSES: usize = 5;

    // Reference oracle: the same artifacts run one example at a time on a
    // pristine CPU engine.
    let builder = new_engine();
    builder.set_backend("cpu").unwrap();
    let artifacts = classifier_artifacts(&builder, IN_DIM, 24, CLASSES, 9).unwrap();
    let total = clients * requests + burst;
    let examples: Vec<Vec<f32>> = (0..total).map(|i| synthetic_example(IN_DIM, i)).collect();
    let want = reference_answers(&artifacts, &examples);

    // The fleet: one engine loses its WebGL context at a seed-scheduled
    // draw, one rides the webgpu rung and loses *that* device (landing on
    // its webgl rung, one step down the three-rung ladder), one straggles
    // with seeded stalls (slow, never wrong), one is a clean WebGL engine,
    // one is CPU-only. All full-precision profiles, so a mid-traffic
    // backend switch is bitwise-invisible.
    let loss_engine = engine_with_faults_and_config(
        FaultPlan::none().lose_context_at(1 + seed % 60),
        WebGlConfig::default(),
    );
    let webgpu_loss_engine = webml::new_engine_with_webgpu_faults(
        FaultPlan::none().lose_context_at(1 + seed % 40),
    );
    let stall_engine = engine_with_faults_and_config(
        FaultPlan { seed, ..FaultPlan::none() }.with_draw_stall(0.1, 200_000),
        WebGlConfig::default(),
    );
    let clean_engine = new_engine();
    let cpu_only = Engine::new();
    cpu_only.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    let fleet = FleetServer::new(
        vec![
            EngineSpec::new("loss", &loss_engine, 8),
            EngineSpec::new("webgpu-loss", &webgpu_loss_engine, 4),
            EngineSpec::new("stall", &stall_engine, 4),
            EngineSpec::new("clean", &clean_engine, 4),
            EngineSpec::new("cpu", &cpu_only, 1),
        ],
        FleetConfig {
            max_batch: 4,
            queue_capacity: 16,
            ..Default::default()
        },
    );
    // Generous SLO: the closed-loop phase gates correctness, not latency.
    let key = fleet.register(
        ModelSource::Artifacts(artifacts),
        ModelSlo::new(1_000.0, Duration::from_secs(10)),
    );

    // Phase 1: closed-loop clients — every request is admitted and must be
    // answered bitwise-identically to the reference, across the context
    // loss, re-routes, and stragglers.
    let fleet = Arc::new(fleet);
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let fleet = fleet.clone();
            let examples = examples.clone();
            let want = want.clone();
            std::thread::spawn(move || {
                for r in 0..requests {
                    let idx = c * requests + r;
                    let resp = fleet
                        .infer(key, examples[idx].clone(), vec![IN_DIM])
                        .expect("closed-loop requests keep succeeding under faults");
                    assert_eq!(resp.dims, vec![CLASSES]);
                    assert_eq!(
                        resp.values, want[idx],
                        "client {c} request {r}: fleet answer must be bitwise-identical"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Phase 2: an overload burst with a 1 ms deadline. Every outcome must
    // be either a correct answer or an explicit refusal — never an engine
    // error surfaced to the caller.
    let base = clients * requests;
    let pending: Vec<_> = (0..burst)
        .map(|i| {
            fleet.submit_with_deadline(
                key,
                examples[base + i].clone(),
                vec![IN_DIM],
                Duration::from_millis(1),
            )
        })
        .collect();
    let mut refused = 0u64;
    for (i, p) in pending.into_iter().enumerate() {
        match p.wait() {
            Ok(resp) => assert_eq!(
                resp.values,
                want[base + i],
                "burst request {i}: admitted answers stay bitwise-identical"
            ),
            Err(ServeError::DeadlineExceeded { .. }) => refused += 1,
            Err(ref e) if e.is_shed() => refused += 1,
            Err(e) => panic!("burst request {i}: non-explicit failure {e}"),
        }
    }
    assert!(
        refused > 0,
        "a {burst}-request burst with a 1 ms deadline must shed explicitly (seed {seed})"
    );

    // The scheduled loss draw may land after the measured traffic, and a
    // trip is only *observed* at the tripped engine's next drain — so kick
    // the fleet with sequential requests until the breaker registers it.
    // While the fleet is idle every predicted wait is zero and min-wait
    // routing resolves the tie to the first-listed engine (the loss
    // engine), so each kick deterministically advances its draw count
    // toward the scheduled loss.
    let mut kicks = 0u64;
    while fleet.stats().breaker_trips == 0 && kicks < 200 {
        let _ = fleet.infer(key, examples[kicks as usize % total].clone(), vec![IN_DIM]);
        kicks += 1;
    }

    // The contract ledger: exact accounting, zero caller-visible engine
    // errors, and the scheduled context loss actually tripped a breaker.
    let stats = fleet.stats();
    assert_eq!(
        stats.accounted(),
        stats.submitted,
        "every submitted request lands in exactly one outcome bucket: {stats:?}"
    );
    assert_eq!(stats.submitted, total as u64 + kicks);
    assert_eq!(stats.engine_errors, 0, "faults must never surface as engine errors");
    assert!(stats.breaker_trips >= 1, "the scheduled context loss trips a breaker");
    assert!(loss_engine.degradations() >= 1, "the loss engine degraded to its CPU rung");
    // The webgpu engine's scheduled loss is seed-positioned and may land
    // after the measured traffic; but *if* it fired, the ladder must have
    // stepped exactly one rung down, onto webgl.
    let gpu_events = webgpu_loss_engine.degradation_events();
    if let Some(first) = gpu_events.first() {
        assert_eq!(first.from_backend, "webgpu");
        assert_eq!(first.to_backend, "webgl", "webgpu loss lands on the webgl rung");
    }
}

/// The fleet soak at CI scale, driven by the `fault-soak` matrix seed.
#[test]
fn fleet_soak_sheds_explicitly_and_stays_bit_identical() {
    let seed = fault_seed();
    fleet_soak(seed, 12, 20, 400);
}

/// A tripped engine comes back. One fleet engine loses its (restorable)
/// WebGL context at a seed-scheduled draw; traffic trips its breaker, and
/// the maintenance thread's recovery — the recover hook restores the
/// context, the engine is promoted back to webgl, canary probes pass —
/// re-closes the breaker. Every submitted request stays accounted for
/// throughout.
#[test]
fn a_tripped_engine_is_readmitted_once_its_context_recovers() {
    use std::time::{Duration, Instant};
    use webml::models::serving::{classifier_artifacts, synthetic_example};
    use webml::serve::{BreakerState, EngineSpec, FleetConfig, FleetServer, ModelSlo, ModelSource};

    let seed = fault_seed();
    const IN_DIM: usize = 16;

    let builder = new_engine();
    builder.set_backend("cpu").unwrap();
    let artifacts = classifier_artifacts(&builder, IN_DIM, 20, 5, 5).unwrap();

    let webgl = Arc::new(
        WebGlBackend::with_faults(
            DeviceProfile::intel_iris_pro(),
            WebGlConfig::default(),
            FaultPlan::none().lose_context_at(1 + seed % 40),
        )
        .expect("webgl backend"),
    );
    let loss_engine = Engine::new();
    loss_engine.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    loss_engine.register_backend("webgl", webgl.clone(), 2);
    let cpu_only = Engine::new();
    cpu_only.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    let fleet = FleetServer::new(
        vec![
            EngineSpec::new("loss", &loss_engine, 8)
                .with_recover_hook(Arc::new(move || webgl.recover())),
            EngineSpec::new("cpu", &cpu_only, 1),
        ],
        FleetConfig { max_batch: 4, queue_capacity: 16, ..Default::default() },
    );
    let key = fleet.register(
        ModelSource::Artifacts(artifacts),
        ModelSlo::new(1_000.0, Duration::from_secs(10)),
    );
    let assert_accounted = |when: &str| {
        let stats = fleet.stats();
        assert_eq!(stats.accounted(), stats.submitted, "{when} (seed {seed}): {stats:?}");
    };

    // Sequential kicks: an idle fleet routes each to the first-listed
    // engine, so they walk its draw count into the scheduled loss; the
    // trip registers at that engine's next drain.
    let mut kicks = 0usize;
    while fleet.stats().breaker_trips == 0 {
        assert!(kicks < 200, "the scheduled context loss never tripped a breaker (seed {seed})");
        fleet
            .infer(key, synthetic_example(IN_DIM, kicks), vec![IN_DIM])
            .expect("the ladder absorbs the context loss");
        kicks += 1;
        assert_accounted("while kicking");
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = fleet.stats();
        assert_eq!(stats.accounted(), stats.submitted, "while recovering (seed {seed})");
        let loss = &stats.engines[0];
        if loss.breaker.state == BreakerState::Closed && stats.breaker_recloses >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the tripped engine was not re-admitted within 10 s (seed {seed}): breaker {:?}, \
             {} probes, {} failed",
            loss.breaker.state,
            stats.probes,
            stats.probe_failures,
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(loss_engine.backend_name(), "webgl", "the engine is back on its preferred rung");
    assert_accounted("after re-admission");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: the fleet serving contract (explicit sheds, bitwise
    /// answers, exact accounting) holds for any fault seed.
    #[test]
    fn fleet_soak_contract_holds_for_any_seed(seed in 0u64..1_000) {
        fleet_soak(seed, 6, 6, 240);
    }
}

/// PR-9 observability under the fault matrix (driven by the same
/// `WEBML_FAULT_SEED` as the soak): ≥99% of completed requests
/// reconstruct a complete six-phase timeline from their trace id, every
/// shed / breaker trip / degradation raises a flight-recorder trigger,
/// and the breaker-trip snapshot captures per-engine fleet context.
#[test]
fn fault_matrix_attribution_stays_complete_and_flight_recorder_fires() {
    use std::time::Duration;
    use webml::models::serving::{classifier_artifacts, synthetic_example};
    use webml::serve::{
        EngineSpec, FleetConfig, FleetServer, ModelSlo, ModelSource, ServeError,
    };
    use webml::telemetry::{attribution, flight};

    let seed = fault_seed();

    const IN_DIM: usize = 16;
    const CLASSES: usize = 5;
    // Unique layer geometry: model keys are content hashes and the
    // attribution table is process-global, so these params must differ
    // from every other model built in this binary.
    let builder = new_engine();
    builder.set_backend("cpu").unwrap();
    let artifacts = classifier_artifacts(&builder, IN_DIM, 28, CLASSES, 7).unwrap();

    let loss_engine = engine_with_faults_and_config(
        FaultPlan::none().lose_context_at(1 + seed % 40),
        WebGlConfig::default(),
    );
    let stall_engine = engine_with_faults_and_config(
        FaultPlan { seed, ..FaultPlan::none() }.with_draw_stall(0.1, 200_000),
        WebGlConfig::default(),
    );
    let cpu_only = Engine::new();
    cpu_only.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
    let fleet = FleetServer::new(
        vec![
            EngineSpec::new("loss", &loss_engine, 8),
            EngineSpec::new("stall", &stall_engine, 4),
            EngineSpec::new("cpu", &cpu_only, 1),
        ],
        FleetConfig { max_batch: 4, queue_capacity: 16, ..Default::default() },
    );
    let key = fleet.register(
        ModelSource::Artifacts(artifacts),
        ModelSlo::new(1_000.0, Duration::from_secs(10)),
    );
    attribution::set_model_label(key, "fault-matrix");

    // Trigger counters are process-global and monotone, so deltas from
    // here can only be inflated by concurrent tests — `>=` stays sound.
    let shed_before = flight::trigger_count("shed");
    let trip_before = flight::trigger_count("breaker_trip");

    // Phase 1: closed-loop traffic across the scheduled context loss and
    // seeded stalls — every admitted request completes.
    let fleet = Arc::new(fleet);
    let handles: Vec<_> = (0..8)
        .map(|c| {
            let fleet = fleet.clone();
            std::thread::spawn(move || {
                for r in 0..15 {
                    fleet
                        .infer(key, synthetic_example(IN_DIM, c * 15 + r), vec![IN_DIM])
                        .expect("closed-loop requests keep succeeding under faults");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Phase 2: an overload burst with a 1 ms deadline forces explicit
    // sheds, each of which must raise a flight trigger.
    let pending: Vec<_> = (0..200)
        .map(|i| {
            fleet.submit_with_deadline(
                key,
                synthetic_example(IN_DIM, 1000 + i),
                vec![IN_DIM],
                Duration::from_millis(1),
            )
        })
        .collect();
    for p in pending {
        match p.wait() {
            Ok(_) | Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(ref e) if e.is_shed() => {}
            Err(e) => panic!("burst request: non-explicit failure {e}"),
        }
    }

    // Kick until the scheduled context loss registers as a breaker trip
    // (observed only at the tripped engine's next drain).
    let mut kicks = 0u64;
    while fleet.stats().breaker_trips == 0 && kicks < 200 {
        let _ = fleet.infer(key, synthetic_example(IN_DIM, kicks as usize), vec![IN_DIM]);
        kicks += 1;
    }
    let stats = fleet.stats();
    assert!(stats.breaker_trips >= 1, "the scheduled context loss trips a breaker");

    // Attribution: ≥99% of this model's completed requests reconstructed
    // all six phases from one trace id (the fault matrix may not shed —
    // completed requests are the completeness denominator).
    let (complete, incomplete) = attribution::model_counts(key);
    assert!(complete > 0, "completed requests were attributed");
    let completeness = complete as f64 / (complete + incomplete) as f64;
    assert!(
        completeness >= 0.99,
        "phase-timeline completeness {completeness:.4} < 0.99 \
         ({complete} complete / {incomplete} incomplete, seed {seed})"
    );
    // The report names the phase that dominates this model's tail.
    let report = attribution::attribution_report();
    let model = report.model("fault-matrix").expect("the labelled model is in the report");
    assert!(
        !model.dominant_p99.is_empty(),
        "the attribution report names a dominant p99 phase (seed {seed})"
    );

    // Flight recorder: every shed and every trip raised a trigger.
    let sheds = stats.total_shed() + stats.deadline_rejected;
    if stats.total_shed() > 0 {
        assert!(
            flight::trigger_count("shed") - shed_before >= stats.total_shed(),
            "every shed raises a flight trigger ({} sheds, seed {seed})",
            sheds
        );
    }
    assert!(
        flight::trigger_count("breaker_trip") - trip_before >= stats.breaker_trips,
        "every breaker trip raises a flight trigger (seed {seed})"
    );

    // The breaker-trip snapshot carries the fleet context: per-engine
    // rows (breaker state, memory) for post-hoc attribution.
    let snap = flight::snapshots()
        .into_iter()
        .rev()
        .find(|s| s.kind == "breaker_trip")
        .expect("a breaker trip captured a flight snapshot");
    assert!(
        snap.context.get("engines").is_some(),
        "breaker-trip snapshot context carries per-engine rows: {:?}",
        snap.context
    );
    assert!(
        snap.entries.iter().any(|e| e.kind == "request"),
        "flight ring at capture time holds recent request timelines"
    );
    // The whole snapshot set stays JSON-exportable.
    let json = flight::snapshots_json();
    assert!(json.get("snapshots").is_some(), "snapshots export as JSON: {json:?}");
}
