//! `serve_fleet`: a `FleetServer` over two engines (`iris`: webgl over the
//! cpu rung; `native`), a light MLP 32→64→10 and a heavy MLP 256→1024→10
//! mixed 3:1, with deadlines generous enough that nothing should be shed.
//!
//! Every window runs two phases. Phase A is an open loop: this thread
//! submits seeded Poisson arrivals at a fixed 300 req/s and each request is
//! timed from when it was *due*, so a stall charges the requests behind it;
//! `op_p50_ms` is the light-request median there. Phase B is a closed loop
//! of `nproc` clients and gives `ops_per_s`.

use super::{cpu_engine, same_bits, TracedPass, Workload};
use crate::measure::{ms_since, quantile, Metrics, Recorder, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webml_backend_native::NativeBackend;
use webml_backend_webgl::{WebGlBackend, WebGlConfig};
use webml_core::{Engine, Shape, Tensor};
use webml_models::{graph_mlp, GraphSpec};
use webml_serve::{
    EngineSpec, FleetConfig, FleetPending, FleetServer, FleetStats, InferResponse, ModelKey,
    ModelSlo, ModelSource, ServeError,
};
use webml_telemetry::attribution;
use webml_webgl_sim::DeviceProfile;

/// Open-loop arrival rate of phase A, requests per second.
const RATE: f64 = 300.0;
/// Every fourth request, on average and in the sequential pass, is heavy.
const HEAVY_SHARE: f64 = 0.25;
/// Seeded examples per model.
const EXAMPLES: usize = 16;

/// One of the two served models with its examples and `cpu` outputs.
struct Served {
    spec: GraphSpec,
    examples: Vec<Vec<f32>>,
    expected: Vec<Vec<f32>>,
}

impl Served {
    fn new(spec: GraphSpec, rng: &mut StdRng, cpu: &Engine) -> Served {
        let dim = spec.input_shape[1];
        let examples: Vec<Vec<f32>> = (0..EXAMPLES)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect())
            .collect();
        let model = spec.build(cpu).expect("oracle model builds");
        let expected = examples
            .iter()
            .map(|e| {
                let x = cpu
                    .tensor(e.clone(), Shape::new(vec![1, dim]))
                    .expect("oracle input");
                let outs = model
                    .execute(&[(&spec.input, &x)], &[&spec.output])
                    .expect("oracle run");
                let values = outs[0].to_f32_vec().expect("oracle readback");
                outs.iter().for_each(Tensor::dispose);
                x.dispose();
                values
            })
            .collect();
        model.dispose_weights();
        Served {
            spec,
            examples,
            expected,
        }
    }

    fn source(&self) -> ModelSource {
        ModelSource::Graph {
            graph: self.spec.graph.clone(),
            weights: self.spec.weights.clone(),
        }
    }

    fn dims(&self) -> Vec<usize> {
        vec![self.spec.input_shape[1]]
    }

    fn check(&self, which: usize, reply: Result<InferResponse, ServeError>) -> Result<(), String> {
        match reply {
            Ok(r) => same_bits(&r.values, &self.expected[which], "served output"),
            Err(e) => Err(format!("request refused or failed: {e}")),
        }
    }
}

/// A running fleet and the keys of its two models.
struct Fleet {
    server: FleetServer,
    engines: [Engine; 2],
    keys: [ModelKey; 2],
}

impl Fleet {
    fn start(models: &[Served; 2]) -> Fleet {
        let iris = cpu_engine();
        let webgl = WebGlBackend::new(DeviceProfile::intel_iris_pro(), WebGlConfig::default())
            .expect("iris pro has float textures");
        iris.register_backend("webgl", Arc::new(webgl), 2);
        let native = Engine::new();
        native.register_backend("native", Arc::new(NativeBackend::new()), 4);
        // `native` is the fleet's fast class, so the heavy model prefers it.
        let config = FleetConfig::default();
        let specs = vec![
            EngineSpec::new("iris", &iris, 4),
            EngineSpec::new("native", &native, config.fast_parallelism),
        ];
        let server = FleetServer::new(specs, config);
        let slo = ModelSlo::new(250.0, Duration::from_secs(2));
        let keys = [
            server.register(models[0].source(), slo.clone()),
            server.register(models[1].source(), slo),
        ];
        Fleet {
            server,
            engines: [iris, native],
            keys,
        }
    }

    fn submit(&self, models: &[Served; 2], kind: usize, which: usize) -> FleetPending {
        self.server.submit(
            self.keys[kind],
            models[kind].examples[which].clone(),
            models[kind].dims(),
        )
    }
}

/// One scheduled arrival of phase A.
struct Arrival {
    due: Duration,
    kind: usize,
    which: usize,
}

pub struct ServeFleet {
    models: [Served; 2],
    fleet: Fleet,
    rng: StdRng,
    next_op: u64,
    tensors_after_warmup: usize,
    cpu_oracle_ms: f64,
    build_spec_ms: f64,
    // Per-layer latency streams of the traced pass.
    heavy_ms: Vec<f64>,
    light_ms: Vec<f64>,
    late_ms: Vec<f64>,
    stats_before: Option<FleetStats>,
}

impl ServeFleet {
    fn live_tensors(&self) -> usize {
        self.fleet.engines.iter().map(Engine::num_tensors).sum()
    }

    /// Poisson arrivals for `secs` seconds at `RATE`.
    fn schedule(&mut self, secs: f64) -> Vec<Arrival> {
        let mut at = 0.0;
        let mut out = Vec::new();
        loop {
            at += -(1.0 - self.rng.gen::<f64>()).ln() / RATE;
            if at >= secs {
                return out;
            }
            let kind = usize::from(self.rng.gen::<f64>() < HEAVY_SHARE);
            out.push(Arrival {
                due: Duration::from_secs_f64(at),
                kind,
                which: self.rng.gen_range(0..EXAMPLES),
            });
        }
    }

    /// Phase A. This thread only submits; one collector per model waits for
    /// replies in submit order, so a slow heavy reply cannot hold back the
    /// clock of a light one.
    fn open_loop(&mut self, secs: f64, rec: &mut Recorder, tr: &mut Tracer) {
        let arrivals = self.schedule(secs);
        let (models, fleet) = (&self.models, &self.fleet);
        let first_op = self.next_op;
        self.next_op += arrivals.len() as u64;
        let start = Instant::now();
        let mut late_ms = Vec::with_capacity(arrivals.len());
        let collected: Vec<(Recorder, Vec<f64>)> = std::thread::scope(|scope| {
            let collectors: Vec<_> = (0..2)
                .map(|kind| {
                    let (tx, rx) = mpsc::channel::<(FleetPending, Instant, usize)>();
                    let handle = scope.spawn(move || {
                        let mut rec = Recorder::default();
                        let mut ms = Vec::new();
                        for (pending, due, which) in rx {
                            let reply = pending.wait();
                            let latency = ms_since(due);
                            let outcome = models[kind].check(which, reply).map(|()| latency);
                            ms.extend(rec.sample(outcome));
                        }
                        (rec, ms)
                    });
                    (tx, handle)
                })
                .collect();
            for (i, a) in arrivals.iter().enumerate() {
                let due = start + a.due;
                // Sleep most of the way, spin the rest: sleep alone
                // overshoots by more than a light request takes.
                loop {
                    let left = due.saturating_duration_since(Instant::now());
                    if left > Duration::from_micros(300) {
                        std::thread::sleep(left - Duration::from_micros(200));
                    } else if left.is_zero() {
                        break;
                    } else {
                        std::hint::spin_loop();
                    }
                }
                late_ms.push(ms_since(due));
                let op = first_op + i as u64;
                let pending = tr.span("serve.submit", op, |_| {
                    fleet.submit(models, a.kind, a.which)
                });
                collectors[a.kind]
                    .0
                    .send((pending, due, a.which))
                    .expect("collector is alive");
            }
            collectors
                .into_iter()
                .map(|(tx, handle)| {
                    drop(tx);
                    handle.join().expect("collector thread")
                })
                .collect()
        });
        let [(light_rec, light_ms), (heavy_rec, heavy_ms)]: [(Recorder, Vec<f64>); 2] = collected
            .try_into()
            .unwrap_or_else(|_| unreachable!("two collectors"));
        // The light requests are the op latency stream; heavy ones count as
        // attempts and keep their own per-layer stream.
        rec.op_ms.extend(&light_ms);
        rec.absorb(light_rec);
        rec.absorb(heavy_rec);
        if tr.is_on() {
            self.light_ms.extend(light_ms);
            self.heavy_ms.extend(heavy_ms);
            self.late_ms.extend(late_ms);
        }
    }

    /// Phase B: `nproc` clients, each sending its next request when the
    /// previous one is answered.
    fn closed_loop(&mut self, until: Instant, rec: &mut Recorder, tr: &mut Tracer) {
        let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (models, fleet) = (&self.models, &self.fleet);
        let first_op = self.next_op;
        let seeds: Vec<u64> = (0..clients).map(|_| self.rng.gen()).collect();
        let epoch = Instant::now();
        let start = Instant::now();
        let results: Vec<(Recorder, Tracer, u64, Instant)> = std::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .into_iter()
                .enumerate()
                .map(|(c, seed)| {
                    let traced = tr.is_on();
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut rec = Recorder::default();
                        let mut tr = Tracer::new(traced, epoch);
                        let (mut done, mut last_done) = (0u64, start);
                        while Instant::now() < until {
                            let kind = usize::from(rng.gen::<f64>() < HEAVY_SHARE);
                            let which = rng.gen_range(0..EXAMPLES);
                            let op = first_op + done * clients as u64 + c as u64;
                            let reply = tr.span("op.closed", op, |tr| {
                                let pending = tr.span("serve.submit", op, |_| {
                                    fleet.submit(models, kind, which)
                                });
                                tr.span("serve.wait", op, |_| pending.wait())
                            });
                            rec.check(models[kind].check(which, reply));
                            done += 1;
                            last_done = Instant::now();
                        }
                        (rec, tr, done, last_done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut done = 0;
        let mut last_done = start;
        for (client_rec, client_tr, client_done, client_last) in results {
            rec.absorb(client_rec);
            tr.merge(client_tr);
            done += client_done;
            last_done = last_done.max(client_last);
        }
        self.next_op += done;
        rec.window(done, (last_done - start).as_secs_f64());
    }
}

impl Workload for ServeFleet {
    fn setup(seed: u64) -> Self {
        let t = Instant::now();
        let specs = [
            graph_mlp(32, &[64], 10, 11),
            graph_mlp(256, &[1024], 10, 13),
        ];
        let build_spec_ms = ms_since(t);
        assert!(
            specs[1].param_count() * 4 >= FleetConfig::default().heavy_model_bytes,
            "the heavy model must cross the placement threshold"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Instant::now();
        let cpu = cpu_engine();
        let models = specs.map(|spec| Served::new(spec, &mut rng, &cpu));
        let cpu_oracle_ms = ms_since(t);

        let fleet = Fleet::start(&models);
        for kind in 0..2 {
            let warmed = fleet.server.warm(
                fleet.keys[kind],
                models[kind].examples[0].clone(),
                models[kind].dims(),
            );
            assert_eq!(warmed, 2, "both engines warm both models");
            // Warm ops: every example once, checked.
            for which in 0..EXAMPLES {
                models[kind]
                    .check(which, fleet.submit(&models, kind, which).wait())
                    .expect("warm-up reply matches the oracle");
            }
        }
        let mut w = ServeFleet {
            models,
            fleet,
            rng,
            next_op: 0,
            tensors_after_warmup: 0,
            cpu_oracle_ms,
            build_spec_ms,
            heavy_ms: Vec::new(),
            light_ms: Vec::new(),
            late_ms: Vec::new(),
            stats_before: None,
        };
        w.tensors_after_warmup = w.live_tensors();
        w
    }

    fn cold(&mut self, k: u64, tr: &mut Tracer) -> Result<f64, String> {
        let which = k as usize % EXAMPLES;
        let t = Instant::now();
        let (replies, mut fleet) = tr.span("first_result", k, |tr| {
            let fleet = tr.span("serve.start", k, |_| Fleet::start(&self.models));
            let pending = [
                fleet.submit(&self.models, 0, which),
                fleet.submit(&self.models, 1, which),
            ];
            (
                pending.map(|p| tr.span("serve.wait", k, |_| p.wait())),
                fleet,
            )
        });
        let ms = ms_since(t);
        fleet.server.shutdown();
        let [light, heavy] = replies;
        self.models[0].check(which, light)?;
        self.models[1].check(which, heavy)?;
        Ok(ms)
    }

    fn window(&mut self, until: Instant, rec: &mut Recorder, tr: &mut Tracer) {
        let half = until
            .saturating_duration_since(Instant::now())
            .as_secs_f64()
            / 2.0;
        self.open_loop(half, rec, tr);
        self.closed_loop(until, rec, tr);
    }

    fn sequential_peak(&mut self, rec: &mut Recorder) -> u64 {
        let before: Vec<usize> = self
            .fleet
            .engines
            .iter()
            .map(|e| e.memory().num_bytes)
            .collect();
        self.fleet.engines.iter().for_each(Engine::reset_peak_bytes);
        for i in 0..20 {
            let (kind, which) = (usize::from(i % 4 == 3), i % EXAMPLES);
            let reply = self.fleet.submit(&self.models, kind, which).wait();
            rec.check(self.models[kind].check(which, reply));
        }
        self.fleet
            .engines
            .iter()
            .zip(before)
            .map(|(e, b)| e.peak_bytes().saturating_sub(b) as u64)
            .sum()
    }

    fn leaked_tensors(&self) -> i64 {
        self.live_tensors() as i64 - self.tensors_after_warmup as i64
    }

    fn begin_traced(&mut self) {
        attribution::reset_attribution();
        attribution::set_model_label(self.fleet.keys[0], "light");
        attribution::set_model_label(self.fleet.keys[1], "heavy");
        self.stats_before = Some(self.fleet.server.stats());
    }

    fn layer_metrics(&mut self, pass: &TracedPass, out: &mut Metrics) {
        let before = self.stats_before.take().expect("begin_traced ran");
        let after = self.fleet.server.stats();
        let submitted = (after.submitted - before.submitted).max(1) as f64;
        let shed = after.total_shed() - before.total_shed();
        out.set("serve.shed_share", shed as f64 / submitted);
        out.set(
            "serve.deadline_rejected_share",
            (after.deadline_rejected - before.deadline_rejected) as f64 / submitted,
        );
        out.set("serve.rerouted", (after.rerouted - before.rerouted) as f64);
        out.set(
            "serve.accounting_gap",
            after.submitted as f64 - after.accounted() as f64,
        );
        out.set("serve.queue_wait_p50_ms", after.queue_wait_ms.p50);
        out.set("serve.latency_p99_ms", after.latency_ms.p99);
        let executed: Vec<u64> = after
            .engines
            .iter()
            .zip(&before.engines)
            .map(|(a, b)| a.completed - b.completed)
            .collect();
        let total = executed.iter().sum::<u64>().max(1) as f64;
        for (status, n) in after.engines.iter().zip(executed) {
            let name = if status.name == "iris" {
                "serve.engine_share.iris"
            } else {
                "serve.engine_share.native"
            };
            out.set(name, n as f64 / total);
        }

        // The served system's own split of a light request, from its
        // always-on timeline attribution.
        if let Some(light) = attribution::attribution_report().model("light") {
            const NAMES: [&str; 6] = [
                "serve.phase_p50_ms.admission",
                "serve.phase_p50_ms.queue",
                "serve.phase_p50_ms.batch_form",
                "serve.phase_p50_ms.upload",
                "serve.phase_p50_ms.compute",
                "serve.phase_p50_ms.readback",
            ];
            for (name, phase) in NAMES.into_iter().zip(&light.phases) {
                out.set(name, phase.summary.p50);
            }
        }
        let (batches, batched) = pass.event("fleet.batch");
        let (singles, _) = pass.event("fleet.single");
        if batches + singles > 0 {
            out.set(
                "serve.batch_size_mean",
                (batched + singles as f64) / (batches + singles) as f64,
            );
        }

        out.set(
            "serve.submit_ms_per_op",
            pass.self_ms_per_op("serve.submit"),
        );
        out.set("serve.wait_ms_per_op", pass.self_ms_per_op("serve.wait"));
        out.set("serve.gen_late_p99_ms", quantile(&self.late_ms, 0.99));
        out.set("serve.light_p99_ms", quantile(&self.light_ms, 0.99));
        out.set("serve.heavy_p50_ms", quantile(&self.heavy_ms, 0.5));
        out.set("serve.heavy_p99_ms", quantile(&self.heavy_ms, 0.99));
        out.set("core.cpu_oracle_ms", self.cpu_oracle_ms);
        out.set("models.build_spec_ms", self.build_spec_ms);
        out.set(
            "backend-native.threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        );
    }

    fn finish(mut self) {
        self.fleet.server.shutdown();
    }
}
