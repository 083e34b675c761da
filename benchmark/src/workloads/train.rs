//! `train_native`: one caller, one op = one `Sequential` training step
//! (`fit` of one 32-example batch: gather, forward, loss, backward, Adam) on
//! the default `native` backend. Converter, both simulators and serve are
//! never called, so their metrics must read 0 here.

use super::{cpu_engine, TracedPass, Workload};
use crate::measure::{median, ms_since, Metrics, Recorder, Tracer};
use std::sync::Arc;
use std::time::Instant;
use webml_backend_native::NativeBackend;
use webml_core::{Engine, Tensor};
use webml_data::{synthetic, Dataset};
use webml_layers::{
    Activation, Adam, Conv2D, Dense, FitConfig, Flatten, Loss, Optimizer, Sequential,
};

const BATCH: usize = 32;
/// Batches cycled through the run.
const BATCHES: usize = 8;
/// Leading steps whose loss the `cpu` oracle also computed.
const CHECKED_STEPS: usize = BATCHES;
const SIDE: usize = 28;
const CLASSES: usize = 10;
const LEARNING_RATE: f32 = 0.001;

fn native_engine(threads: Option<usize>) -> (Engine, usize) {
    let backend = match threads {
        Some(n) => NativeBackend::with_threads("native", n),
        None => NativeBackend::new(),
    };
    let threads = backend.threads();
    let engine = Engine::new();
    engine.register_backend("native", Arc::new(backend), 4);
    (engine, threads)
}

/// conv 8 → conv 16 → dense, compiled with Adam; weights are seeded by the
/// program, the data by `--seed`.
fn build_model(engine: &Engine) -> Sequential {
    let mut model = Sequential::new(engine).with_seed(3);
    model.add(
        Conv2D::new(8, 3)
            .with_strides((2, 2))
            .with_activation(Activation::Relu)
            .with_input_shape([SIDE, SIDE, 1]),
    );
    model.add(
        Conv2D::new(16, 3)
            .with_strides((2, 2))
            .with_activation(Activation::Relu),
    );
    model.add(Flatten::new());
    model.add(Dense::new(CLASSES).with_activation(Activation::Softmax));
    model.build([SIDE, SIDE, 1]).expect("model builds");
    model.compile(
        Loss::CategoricalCrossentropy,
        Box::new(Adam::new(LEARNING_RATE)),
    );
    model
}

fn upload_batches(data: &Dataset, engine: &Engine, count: usize) -> Vec<(Tensor, Tensor)> {
    (0..count)
        .map(|b| {
            let (x, y) = data
                .batch(engine, b * BATCH, BATCH)
                .expect("batch in range");
            x.keep();
            y.keep();
            (x, y)
        })
        .collect()
}

/// A model on its engine with the batches it trains on.
struct Trainer {
    engine: Engine,
    model: Sequential,
    batches: Vec<(Tensor, Tensor)>,
    config: FitConfig,
    steps: usize,
}

impl Trainer {
    fn new(engine: Engine, data: &Dataset, batches: usize, seed: u64) -> Trainer {
        let model = build_model(&engine);
        let batches = upload_batches(data, &engine, batches);
        let config = FitConfig {
            epochs: 1,
            batch_size: BATCH,
            shuffle: true,
            seed,
            ..FitConfig::default()
        };
        Trainer {
            engine,
            model,
            batches,
            config,
            steps: 0,
        }
    }

    /// One training step through the public `fit`; returns its loss.
    fn step(&mut self) -> Result<f32, String> {
        let (x, y) = &self.batches[self.steps % self.batches.len()];
        self.steps += 1;
        let history = self
            .model
            .fit(x, y, self.config.clone())
            .map_err(|e| format!("fit failed: {e}"))?;
        Ok(history.loss[0])
    }

    fn dispose(self) {
        for (_, v) in self.model.named_weights() {
            v.dispose();
        }
        for (x, y) in &self.batches {
            x.dispose();
            y.dispose();
        }
    }
}

pub struct Train {
    seed: u64,
    data: Dataset,
    /// Loss of each of the first `CHECKED_STEPS` steps on the `cpu` engine.
    oracle_losses: Vec<f32>,
    trainer: Trainer,
    threads: usize,
    tensors_after_warmup: usize,
    synthesize_ms: f64,
    cpu_oracle_ms: f64,
    build_ms: f64,
}

/// `native` sums in another order than `cpu` (its reductions are split over
/// threads), so a loss the oracle also has must agree to this relative
/// tolerance, not to the bit; the first steps do agree bitwise.
const LOSS_TOLERANCE: f32 = 1e-5;

/// Past the steps the oracle ran there is nothing to compare with, and the
/// loss must be finite.
fn check_loss(loss: f32, step: usize, oracle: &[f32]) -> Result<(), String> {
    match oracle.get(step) {
        Some(want) if (loss - want).abs() > LOSS_TOLERANCE * want.abs() => Err(format!(
            "step {step}: loss {loss} but the cpu oracle says {want}"
        )),
        _ if !loss.is_finite() => Err(format!("step {step}: loss {loss} is not finite")),
        _ => Ok(()),
    }
}

impl Train {
    fn checked_step(&mut self) -> Result<f64, String> {
        let step = self.trainer.steps;
        let t = Instant::now();
        let loss = self.trainer.step()?;
        let ms = ms_since(t);
        check_loss(loss, step, &self.oracle_losses).map(|()| ms)
    }

    /// The same step taken apart with public calls, so forward, backward
    /// and optimizer get a span each; `fit` cannot be opened from outside.
    fn decomposed_step(&mut self, adam: &mut Adam, tr: &mut Tracer, op: u64) {
        let Trainer {
            engine,
            model,
            batches,
            ..
        } = &self.trainer;
        let (x, y) = &batches[op as usize % batches.len()];
        let vars = model.trainable_variables();
        let values: Vec<Tensor> = vars.iter().map(|v| v.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        tr.span("op.decomposed", op, |tr| {
            engine.tidy(|| -> webml_core::Result<()> {
                let (loss, grads) = tr.span("core.value_and_grads", op, |tr| {
                    engine.value_and_grads(&refs, || {
                        let pred = tr.span("layers.forward", op, |_| model.forward(x, true))?;
                        tr.span("layers.loss", op, |_| {
                            Loss::CategoricalCrossentropy.compute(y, &pred)
                        })
                    })
                })?;
                tr.span("core.readback", op, |_| loss.to_scalar())?;
                tr.span("layers.optimizer", op, |_| {
                    adam.apply_gradients(&vars, &grads)
                })
            })
        })
        .expect("decomposed step runs");
    }

    /// Median step time on the default thread count and on one thread,
    /// in alternating blocks so both see the same host state.
    fn speedup_vs_one_thread(&mut self) -> (f64, usize) {
        let (engine, _) = native_engine(Some(1));
        let mut single = Trainer::new(engine, &self.data, BATCHES, self.seed);
        let time = |t: &mut Trainer| {
            let start = Instant::now();
            t.step().expect("step runs");
            ms_since(start)
        };
        (0..BATCHES).for_each(|_| _ = time(&mut single));
        let (mut default_ms, mut single_ms) = (Vec::new(), Vec::new());
        for _ in 0..6 {
            default_ms.extend((0..10).map(|_| time(&mut self.trainer)));
            single_ms.extend((0..10).map(|_| time(&mut single)));
        }
        single.dispose();
        (median(&single_ms) / median(&default_ms), default_ms.len())
    }
}

impl Workload for Train {
    fn setup(seed: u64) -> Self {
        let t = Instant::now();
        let data = synthetic::mnist_like(BATCH * BATCHES, CLASSES, SIDE, seed);
        let synthesize_ms = ms_since(t);

        let t = Instant::now();
        let mut oracle = Trainer::new(cpu_engine(), &data, CHECKED_STEPS, seed);
        let oracle_losses: Vec<f32> = (0..CHECKED_STEPS)
            .map(|_| oracle.step().expect("oracle step"))
            .collect();
        oracle.dispose();
        let cpu_oracle_ms = ms_since(t);

        let (engine, threads) = native_engine(None);
        let t = Instant::now();
        let trainer = Trainer::new(engine, &data, BATCHES, seed);
        let build_ms = ms_since(t);
        let mut w = Train {
            seed,
            data,
            oracle_losses,
            trainer,
            threads,
            tensors_after_warmup: 0,
            synthesize_ms,
            cpu_oracle_ms,
            build_ms,
        };
        // Warm ops: the steps the oracle also ran, which create the Adam
        // slots and touch every batch.
        for _ in 0..CHECKED_STEPS {
            w.checked_step().expect("warm-up step matches the oracle");
        }
        w.tensors_after_warmup = w.trainer.engine.num_tensors();
        w
    }

    fn cold(&mut self, k: u64, tr: &mut Tracer) -> Result<f64, String> {
        let t = Instant::now();
        let (loss, fresh) = tr.span("first_result", k, |tr| {
            let (engine, _) = native_engine(None);
            let mut fresh = tr.span("layers.build", k, |_| {
                Trainer::new(engine, &self.data, 1, self.seed)
            });
            (tr.span("layers.fit", k, |_| fresh.step()), fresh)
        });
        let ms = ms_since(t);
        fresh.dispose();
        check_loss(loss?, 0, &self.oracle_losses).map(|()| ms)
    }

    fn window(&mut self, until: Instant, rec: &mut Recorder, tr: &mut Tracer) {
        let start = Instant::now();
        let mut done = 0u64;
        let mut last_done = start;
        while Instant::now() < until {
            let op = self.trainer.steps as u64;
            rec.op(tr.span("op", op, |tr| {
                tr.span("layers.fit", op, |_| self.checked_step())
            }));
            done += 1;
            last_done = Instant::now();
        }
        rec.window(done, (last_done - start).as_secs_f64());
    }

    fn sequential_peak(&mut self, rec: &mut Recorder) -> u64 {
        let before = self.trainer.engine.memory().num_bytes;
        self.trainer.engine.reset_peak_bytes();
        for _ in 0..20 {
            let outcome = self.checked_step();
            rec.check(outcome.map(|_| ()));
        }
        (self.trainer.engine.peak_bytes() - before) as u64
    }

    fn begin_traced(&mut self) {}

    fn layer_metrics(&mut self, pass: &TracedPass, out: &mut Metrics) {
        // Every kernel of this workload runs on the native backend.
        out.set(
            "backend-native.kernel_wall_ms_per_op",
            pass.kernel_ms_per_op,
        );

        let engine = self.trainer.engine.clone();
        let (outcome, profile) = engine.profile(|| self.checked_step());
        outcome.expect("profiled step runs");
        out.set("core.new_tensors_per_op", profile.new_tensors as f64);
        out.set("core.new_bytes_per_op", profile.new_bytes as f64);
        out.set("core.peak_tensors", profile.peak_tensors as f64);
        out.set("core.cpu_oracle_ms", self.cpu_oracle_ms);
        out.set("data.synthesize_ms", self.synthesize_ms);
        out.set("layers.build_ms", self.build_ms);

        // The decomposed steps have their own tracer: their spans are of a
        // different op than the pass's `fit` calls.
        const DECOMPOSED: u64 = 40;
        let mut tr = Tracer::new(true, Instant::now());
        let mut adam = Adam::new(LEARNING_RATE);
        (0..DECOMPOSED).for_each(|op| self.decomposed_step(&mut adam, &mut tr, op));
        let self_ms = tr.self_ms();
        let per_step = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / DECOMPOSED as f64;
        out.set(
            "layers.forward_ms_per_op",
            per_step("layers.forward") + per_step("layers.loss"),
        );
        out.set(
            "layers.backward_ms_per_op",
            per_step("core.value_and_grads"),
        );
        out.set("layers.optimizer_ms_per_op", per_step("layers.optimizer"));
        out.set(
            "core.value_and_grads_ms_per_op",
            tr.total_ms("core.value_and_grads") / DECOMPOSED as f64,
        );
        out.set("core.readback_ms_per_op", per_step("core.readback"));

        let (speedup, samples) = self.speedup_vs_one_thread();
        out.set("backend-native.threads", self.threads as f64);
        out.set("backend-native.speedup_vs_1thread", speedup);
        out.set("backend-native.speedup_samples", samples as f64);
    }

    fn leaked_tensors(&self) -> i64 {
        self.trainer.engine.num_tensors() as i64 - self.tensors_after_warmup as i64
    }

    fn finish(self) {
        self.trainer.dispose();
    }
}
