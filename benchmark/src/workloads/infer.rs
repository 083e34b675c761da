//! `infer_webgl` and `infer_webgpu_u8`: planned MobileNet inference on one
//! GPU rung over the `cpu` fallback rung.
//!
//! `Infer<false>` is one synchronous caller (`execute` + `data_sync`) of the
//! f32 model on webgl. `Infer<true>` is the U8-weight model on webgpu
//! through `execute_pipelined` with two requests in flight. The topology,
//! the inputs and the checks are shared, so a difference between the two is
//! a difference between the substrates and the two uses of the converter.

use super::{cpu_engine, same_bits, TracedPass, Workload};
use crate::measure::{median, ms_since, Metrics, Recorder, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use webml_backend_webgl::{WebGlBackend, WebGlConfig};
use webml_backend_webgpu::WebGpuBackend;
use webml_converter::{GraphModel, PendingFetches, Quantization};
use webml_core::{Backend, Engine, Shape, Tensor};
use webml_models::{graph_mobilenet, GraphSpec, MobileNetConfig};
use webml_webgl_sim::DeviceProfile;
use webml_webgpu_sim::WebGpuConfig;

/// Distinct seeded images cycled through the run.
const INPUTS: usize = 8;
/// Requests in flight on the pipelined workload.
const DEPTH: usize = 2;

/// Monotonic counters of one simulated device, read through the backend's
/// public stats.
#[derive(Clone, Copy, Default)]
struct GpuCounters {
    busy_ns: u64,
    fence_wait_ns: u64,
    drains: u64,
    launches: u64,
    recycler_hits: u64,
    recycler_misses: u64,
    page_outs: u64,
    compiled: u64,
}

enum Gpu {
    WebGl(Arc<WebGlBackend>),
    WebGpu(Arc<WebGpuBackend>),
}

impl Gpu {
    fn create(webgpu: bool) -> Gpu {
        let profile = DeviceProfile::intel_iris_pro();
        if webgpu {
            Gpu::WebGpu(Arc::new(
                WebGpuBackend::new(profile, WebGpuConfig::default()).expect("iris pro has webgpu"),
            ))
        } else {
            Gpu::WebGl(Arc::new(
                WebGlBackend::new(profile, WebGlConfig::default())
                    .expect("iris pro has float textures"),
            ))
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Gpu::WebGl(_) => "webgl",
            Gpu::WebGpu(_) => "webgpu",
        }
    }

    fn backend(&self) -> Arc<dyn Backend> {
        match self {
            Gpu::WebGl(b) => b.clone(),
            Gpu::WebGpu(b) => b.clone(),
        }
    }

    fn counters(&self) -> GpuCounters {
        match self {
            Gpu::WebGl(b) => {
                let (q, m) = (b.queue_stats(), b.context().memory());
                GpuCounters {
                    busy_ns: q.busy_ns,
                    fence_wait_ns: q.fence_wait_ns,
                    drains: q.drains,
                    launches: m.programs_run,
                    recycler_hits: m.recycler.hits,
                    recycler_misses: m.recycler.misses,
                    page_outs: m.pager.page_outs,
                    compiled: b.context().programs_compiled() as u64,
                }
            }
            Gpu::WebGpu(b) => {
                let (q, m) = (b.queue_stats(), b.context().memory());
                GpuCounters {
                    busy_ns: q.busy_ns,
                    fence_wait_ns: q.fence_wait_ns,
                    drains: q.drains,
                    launches: m.dispatches_run,
                    recycler_hits: m.recycler_hits,
                    recycler_misses: m.recycler_misses,
                    page_outs: 0,
                    compiled: b.context().pipelines_compiled() as u64,
                }
            }
        }
    }
}

/// Name of the span around backend creation.
fn create_span(webgpu: bool) -> &'static str {
    if webgpu {
        "backend-webgpu.create"
    } else {
        "backend-webgl.create"
    }
}

/// A fresh engine with the rung under test above the `cpu` rung, timed.
fn gpu_engine(webgpu: bool, tr: &mut Tracer, op: u64) -> (Engine, Gpu) {
    tr.span(create_span(webgpu), op, |_| {
        let engine = cpu_engine();
        let gpu = Gpu::create(webgpu);
        engine.register_backend(gpu.name(), gpu.backend(), 2);
        (engine, gpu)
    })
}

fn build(spec: &GraphSpec, engine: &Engine, u8_weights: bool) -> GraphModel {
    if u8_weights {
        spec.build_quantized(engine)
    } else {
        spec.build(engine)
    }
    .expect("model builds")
}

/// A request that was submitted and not yet waited for.
struct InFlight {
    pending: PendingFetches,
    input: Tensor,
    which: usize,
    submitted: Instant,
    span: usize,
    op: u64,
}

pub struct Infer<const U8_PIPELINED: bool> {
    spec: GraphSpec,
    images: Vec<Vec<f32>>,
    image_shape: Vec<usize>,
    /// `cpu` outputs of the same model (U8 weights on the U8 workload).
    expected: Vec<Vec<f32>>,
    engine: Engine,
    gpu: Gpu,
    model: GraphModel,
    tensors_after_warmup: usize,
    next_op: u64,
    // Set-up facts reported per layer.
    build_spec_ms: f64,
    cpu_oracle_ms: f64,
    u8_drift_max: f64,
    // Counter snapshots taken by `begin_traced`.
    gpu_before: GpuCounters,
    plan_before: webml_converter::PlanStats,
    inflight_sum: u64,
    inflight_samples: u64,
    cold_compiled: Vec<f64>,
}

impl<const U8: bool> Infer<U8> {
    fn upload(&self, engine: &Engine, which: usize) -> Tensor {
        engine
            .tensor(
                self.images[which].clone(),
                Shape::new(self.image_shape.clone()),
            )
            .expect("input upload")
    }

    /// One synchronous request: upload, planned execute, blocking readback.
    fn request(
        &self,
        engine: &Engine,
        model: &GraphModel,
        which: usize,
        tr: &mut Tracer,
        op: u64,
    ) -> Result<(), String> {
        let x = tr.span("core.upload", op, |_| self.upload(engine, which));
        let result = tr
            .span("converter.execute", op, |_| {
                model.execute(&[(&self.spec.input, &x)], &[&self.spec.output])
            })
            .and_then(|outs| {
                let values = tr.span("core.readback", op, |_| outs[0].to_f32_vec());
                outs.iter().for_each(Tensor::dispose);
                values
            });
        x.dispose();
        let values = result.map_err(|e| format!("request failed: {e}"))?;
        same_bits(&values, &self.expected[which], "inference output")
    }

    fn submit(&mut self, tr: &mut Tracer) -> Result<InFlight, String> {
        let (op, which) = (self.next_op, self.next_op as usize % INPUTS);
        self.next_op += 1;
        let submitted = Instant::now();
        let span = tr.begin("op", op, None);
        let input = tr.under(Some(span), "core.upload", op, |_| {
            self.upload(&self.engine, which)
        });
        let pending = tr.under(Some(span), "converter.execute", op, |_| {
            self.model
                .execute_pipelined(&[(&self.spec.input, &input)], &[&self.spec.output])
        });
        match pending {
            Ok(pending) => Ok(InFlight {
                pending,
                input,
                which,
                submitted,
                span,
                op,
            }),
            Err(e) => {
                input.dispose();
                Err(format!("pipelined submit failed: {e}"))
            }
        }
    }

    fn complete(&self, f: InFlight, tr: &mut Tracer) -> Result<f64, String> {
        let data = tr.under(Some(f.span), "core.readback", f.op, |_| f.pending.wait());
        tr.end(f.span);
        let ms = ms_since(f.submitted);
        f.input.dispose();
        let data = data.map_err(|e| format!("pipelined readback failed: {e}"))?;
        same_bits(
            &data[0].to_f32_vec(),
            &self.expected[f.which],
            "pipelined output",
        )
        .map(|()| ms)
    }

    /// One op at a time, whatever the workload's steady-state concurrency.
    fn one_op(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        if U8 {
            let f = self.submit(tr)?;
            self.complete(f, tr)
        } else {
            let (op, which) = (self.next_op, self.next_op as usize % INPUTS);
            self.next_op += 1;
            let t = Instant::now();
            tr.span("op", op, |tr| {
                self.request(&self.engine, &self.model, which, tr, op)
            })
            .map(|()| ms_since(t))
        }
    }
}

impl<const U8: bool> Workload for Infer<U8> {
    fn setup(seed: u64) -> Self {
        let t = Instant::now();
        let spec = graph_mobilenet(&MobileNetConfig::small());
        let build_spec_ms = ms_since(t);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut image_shape = spec.input_shape.clone();
        image_shape[0] = 1;
        let pixels: usize = image_shape.iter().product();
        let images: Vec<Vec<f32>> = (0..INPUTS)
            .map(|_| (0..pixels).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect())
            .collect();

        let t = Instant::now();
        let cpu = cpu_engine();
        let run_on_cpu = |u8_weights: bool, image: &Vec<f32>| -> Vec<f32> {
            let model = build(&spec, &cpu, u8_weights);
            let x = cpu
                .tensor(image.clone(), Shape::new(image_shape.clone()))
                .expect("oracle input");
            let outs = model
                .execute(&[(&spec.input, &x)], &[&spec.output])
                .expect("oracle run");
            let values = outs[0].to_f32_vec().expect("oracle readback");
            outs.iter().for_each(Tensor::dispose);
            x.dispose();
            model.dispose_weights();
            values
        };
        let expected: Vec<Vec<f32>> = images.iter().map(|image| run_on_cpu(U8, image)).collect();
        // Reported, never gated: how far U8 weights move the softmax.
        let u8_drift_max = if U8 {
            let exact = run_on_cpu(false, &images[0]);
            exact
                .iter()
                .zip(&expected[0])
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max)
        } else {
            0.0
        };
        let cpu_oracle_ms = ms_since(t);

        let (engine, gpu) = gpu_engine(U8, &mut Tracer::off(), 0);
        let model = build(&spec, &engine, U8);
        let mut w = Infer {
            spec,
            images,
            image_shape,
            expected,
            engine,
            gpu,
            model,
            tensors_after_warmup: 0,
            next_op: 0,
            build_spec_ms,
            cpu_oracle_ms,
            u8_drift_max,
            gpu_before: GpuCounters::default(),
            plan_before: Default::default(),
            inflight_sum: 0,
            inflight_samples: 0,
            cold_compiled: Vec::new(),
        };
        // Warm ops: every input once, so each program or pipeline is
        // compiled and the recycler holds every shape before measuring.
        for _ in 0..INPUTS {
            w.one_op(&mut Tracer::off())
                .expect("warm-up op matches the oracle");
        }
        w.tensors_after_warmup = w.engine.num_tensors();
        w
    }

    fn cold(&mut self, k: u64, tr: &mut Tracer) -> Result<f64, String> {
        let which = k as usize % INPUTS;
        let t = Instant::now();
        let (outcome, engine, gpu, model) = tr.span("first_result", k, |tr| {
            let (engine, gpu) = gpu_engine(U8, tr, k);
            let model = tr.span("converter.load", k, |_| build(&self.spec, &engine, U8));
            (
                self.request(&engine, &model, which, tr, k),
                engine,
                gpu,
                model,
            )
        });
        let ms = ms_since(t);
        if tr.is_on() {
            self.cold_compiled.push(gpu.counters().compiled as f64);
        }
        model.dispose_weights();
        let left = engine.num_tensors();
        outcome?;
        if left != 0 {
            return Err(format!("cold journey left {left} tensors alive"));
        }
        Ok(ms)
    }

    fn window(&mut self, until: Instant, rec: &mut Recorder, tr: &mut Tracer) {
        let start = Instant::now();
        let mut done = 0u64;
        let mut last_done = start;
        let mut flying: VecDeque<InFlight> = VecDeque::new();
        while Instant::now() < until {
            if !U8 {
                rec.op(self.one_op(tr));
            } else {
                match self.submit(tr) {
                    Ok(f) => flying.push_back(f),
                    Err(why) => rec.op(Err(why)),
                }
                self.inflight_sum += flying.len() as u64;
                self.inflight_samples += 1;
                if flying.len() < DEPTH {
                    continue;
                }
                let f = flying.pop_front().expect("window is full");
                rec.op(self.complete(f, tr));
            }
            done += 1;
            last_done = Instant::now();
        }
        for f in flying {
            rec.op(self.complete(f, tr));
            done += 1;
            last_done = Instant::now();
        }
        rec.window(done, (last_done - start).as_secs_f64());
    }

    fn sequential_peak(&mut self, rec: &mut Recorder) -> u64 {
        let before = self.engine.memory().num_bytes;
        self.engine.reset_peak_bytes();
        for _ in 0..20 {
            let outcome = self.one_op(&mut Tracer::off());
            rec.check(outcome.map(|_| ()));
        }
        (self.engine.peak_bytes() - before) as u64
    }

    fn begin_traced(&mut self) {
        self.gpu_before = self.gpu.counters();
        self.plan_before = self.model.plan_stats();
        self.inflight_sum = 0;
        self.inflight_samples = 0;
    }

    fn layer_metrics(&mut self, pass: &TracedPass, out: &mut Metrics) {
        let (g0, g1) = (self.gpu_before, self.gpu.counters());
        let (p0, p1) = (self.plan_before, self.model.plan_stats());
        let ms = |ns: u64| ns as f64 / 1e6;
        let share = |hit: u64, miss: u64| {
            if hit + miss == 0 {
                0.0
            } else {
                hit as f64 / (hit + miss) as f64
            }
        };

        // The modelled device clock, from `Engine::time`: its own column,
        // never added to or compared with a wall time.
        let engine = self.engine.clone();
        let modeled: Vec<f64> = (0..10)
            .map(|_| {
                let (outcome, time) = engine.time(|| self.one_op(&mut Tracer::off()));
                outcome.expect("timed op matches the oracle");
                time.kernel_ms
            })
            .collect();
        // One op inside `tf.profile`: exact counts of what an op allocates.
        let (outcome, profile) = engine.profile(|| self.one_op(&mut Tracer::off()));
        outcome.expect("profiled op matches the oracle");

        // The two rungs report the same counters under their own layer.
        let names: [&'static str; 9] = if U8 {
            [
                "webgpu-sim.dispatches_per_op",
                "webgpu-sim.device_busy_ms_per_op",
                "webgpu-sim.device_busy_share",
                "webgpu-sim.modeled_device_ms_per_op",
                "webgpu-sim.fence_wait_ms_per_op",
                "webgpu-sim.recycler_hit_share",
                "webgpu-sim.pipelines_compiled",
                "backend-webgpu.create_ms",
                "backend-webgpu.fused_fallbacks",
            ]
        } else {
            [
                "webgl-sim.programs_per_op",
                "webgl-sim.device_busy_ms_per_op",
                "webgl-sim.device_busy_share",
                "webgl-sim.modeled_device_ms_per_op",
                "webgl-sim.fence_wait_ms_per_op",
                "webgl-sim.recycler_hit_share",
                "webgl-sim.programs_compiled",
                "backend-webgl.create_ms",
                "backend-webgl.fused_fallbacks",
            ]
        };
        let busy = ms(g1.busy_ns - g0.busy_ns);
        let cold_runs = self.cold_compiled.len().max(1) as f64;
        let fallbacks = if U8 {
            "webgpu.fused_fallbacks_total"
        } else {
            "webgl.fused_fallbacks_total"
        };
        let values = [
            pass.per_op((g1.launches - g0.launches) as f64),
            pass.per_op(busy),
            busy / (pass.secs * 1e3),
            median(&modeled),
            pass.per_op(ms(g1.fence_wait_ns - g0.fence_wait_ns)),
            share(
                g1.recycler_hits - g0.recycler_hits,
                g1.recycler_misses - g0.recycler_misses,
            ),
            median(&self.cold_compiled),
            pass.tracer.total_ms(create_span(U8)) / cold_runs,
            webml_telemetry::counter(fallbacks).get() as f64,
        ];
        for (name, value) in names.into_iter().zip(values) {
            out.set(name, value);
        }
        if !U8 {
            out.set(
                "webgl-sim.drains_per_op",
                pass.per_op((g1.drains - g0.drains) as f64),
            );
            out.set("webgl-sim.page_outs", (g1.page_outs - g0.page_outs) as f64);
        }

        out.set("core.upload_ms_per_op", pass.self_ms_per_op("core.upload"));
        out.set(
            "core.readback_ms_per_op",
            pass.self_ms_per_op("core.readback"),
        );
        out.set("core.new_tensors_per_op", profile.new_tensors as f64);
        out.set("core.new_bytes_per_op", profile.new_bytes as f64);
        out.set("core.peak_tensors", profile.peak_tensors as f64);
        out.set("core.cpu_oracle_ms", self.cpu_oracle_ms);
        out.set("models.build_spec_ms", self.build_spec_ms);

        out.set(
            "converter.load_ms",
            pass.tracer.total_ms("converter.load") / cold_runs,
        );
        out.set(
            "converter.execute_ms_per_op",
            pass.self_ms_per_op("converter.execute"),
        );
        out.set("converter.weight_bytes", self.model.weight_bytes() as f64);
        out.set(
            "converter.plan_hit_share",
            share(p1.hits - p0.hits, p1.misses - p0.misses),
        );
        out.set(
            "converter.plan_fallbacks",
            (p1.fallbacks - p0.fallbacks) as f64,
        );
        out.set(
            "converter.fused_nodes",
            (self.model.node_count() - self.model.fused_node_count()) as f64,
        );
        out.set("converter.u8_drift_max", self.u8_drift_max);
        if self.inflight_samples > 0 {
            out.set(
                "converter.inflight_mean",
                self.inflight_sum as f64 / self.inflight_samples as f64,
            );
        }
        // A signature the model has not seen compiles a plan of the same
        // topology, which times the compiler without the load around it.
        let mut cold_sig = self.image_shape.clone();
        cold_sig[0] = 2;
        let t = Instant::now();
        let plan = self
            .model
            .plan_for_shapes(&[(self.spec.input.clone(), cold_sig)], &[&self.spec.output]);
        out.set("converter.plan_compile_ms", ms_since(t));
        if let Ok(plan) = plan {
            out.set("converter.planned_ops", plan.op_count() as f64);
        }
        if let Ok(plan) = self.model.plan_for_shapes(
            &[(self.spec.input.clone(), self.image_shape.clone())],
            &[&self.spec.output],
        ) {
            out.set(
                "converter.predicted_peak_bytes",
                plan.predicted_peak_bytes() as f64,
            );
        }
        if U8 {
            let eligible = webml_converter::quantizable_weights(&self.spec.graph);
            let t = Instant::now();
            for (name, values, shape) in &self.spec.weights {
                if let Some(&axis) = eligible.get(name) {
                    std::hint::black_box(
                        Quantization::U8
                            .quantize_per_channel(name, values, shape, axis)
                            .expect("weights quantize"),
                    );
                }
            }
            out.set("converter.quantize_ms", ms_since(t));
        }
    }

    fn leaked_tensors(&self) -> i64 {
        self.engine.num_tensors() as i64 - self.tensors_after_warmup as i64
    }

    fn finish(self) {
        self.model.dispose_weights();
    }
}
