//! The `Sequential` model: assemble layers, `compile`, `fit`, `predict`,
//! `evaluate` — the model-level APIs that manage memory internally so users
//! of the Layers API never call `tidy`/`dispose` themselves (paper Sec 3.7).

use crate::layers::{layer_from_config, Layer};
use crate::losses::Loss;
use crate::metrics::Metric;
use crate::optimizers::Optimizer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::collections::HashMap;
use webml_core::{ops, DType, Engine, Error, Result, Shape, Tensor, TensorData, Variable};

/// Training configuration for [`Sequential::fit`].
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffle examples each epoch.
    pub shuffle: bool,
    /// Print a line per epoch.
    pub verbose: bool,
    /// Shuffling seed.
    pub seed: u64,
    /// Fraction of the *trailing* examples held out for validation each
    /// epoch (`model.fit({validationSplit})`); 0 disables.
    pub validation_split: f32,
    /// Stop when the monitored loss (validation when split > 0, else
    /// training) has not improved for this many consecutive epochs.
    pub early_stopping_patience: Option<usize>,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            epochs: 1,
            batch_size: 32,
            shuffle: true,
            verbose: false,
            seed: 1,
            validation_split: 0.0,
            early_stopping_patience: None,
        }
    }
}

/// Per-epoch training history returned by [`Sequential::fit`].
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Mean training loss per epoch.
    pub loss: Vec<f32>,
    /// Validation loss per epoch (when `validation_split > 0`).
    pub val_loss: Vec<f32>,
    /// Metric values per epoch, keyed by metric name.
    pub metrics: HashMap<&'static str, Vec<f32>>,
    /// Whether early stopping cut training short.
    pub stopped_early: bool,
}

struct Compiled {
    loss: Loss,
    optimizer: Box<dyn Optimizer>,
    metrics: Vec<Metric>,
}

/// A linear stack of layers (`tf.sequential()`).
pub struct Sequential {
    engine: Engine,
    name: String,
    layers: Vec<Box<dyn Layer>>,
    input_shape: Option<Shape>,
    compiled: Option<Compiled>,
    seed: u64,
}

impl Sequential {
    /// An empty model on `engine`.
    pub fn new(engine: &Engine) -> Sequential {
        Sequential {
            engine: engine.clone(),
            name: "sequential".into(),
            layers: Vec::new(),
            input_shape: None,
            compiled: None,
            seed: 42,
        }
    }

    /// Set the weight-initialization seed (default 42).
    pub fn with_seed(mut self, seed: u64) -> Sequential {
        self.seed = seed;
        self
    }

    /// Append a layer.
    pub fn add(&mut self, layer: impl Layer + 'static) {
        self.add_boxed(Box::new(layer));
    }

    /// Append an already-boxed layer.
    pub fn add_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// The engine this model runs on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers (for converters and inspection).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Whether weights have been allocated.
    pub fn built(&self) -> bool {
        self.input_shape.is_some()
    }

    /// Allocate weights for a per-example `input_shape`. Called implicitly
    /// by `fit`/`predict` when the first layer declared its input shape.
    ///
    /// # Errors
    /// Fails on incompatible shapes.
    pub fn build(&mut self, input_shape: impl Into<Shape>) -> Result<()> {
        let input_shape = input_shape.into();
        let mut shape = input_shape.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if !layer.built() {
                layer.build(&self.engine, &shape, self.seed.wrapping_add(i as u64 * 7919))?;
            }
            shape = layer.output_shape(&shape)?;
        }
        self.input_shape = Some(input_shape);
        Ok(())
    }

    fn infer_input_shape(&self, x: &Tensor) -> Shape {
        Shape::new(x.shape_ref().dims()[1..].to_vec())
    }

    fn ensure_built(&mut self, x: &Tensor) -> Result<()> {
        if !self.built() {
            let shape = self.infer_input_shape(x);
            self.build(shape)?;
        }
        Ok(())
    }

    /// Configure loss and optimizer (`model.compile`).
    pub fn compile(&mut self, loss: Loss, optimizer: Box<dyn Optimizer>) {
        self.compile_with_metrics(loss, optimizer, Vec::new());
    }

    /// Configure loss, optimizer and tracked metrics.
    pub fn compile_with_metrics(
        &mut self,
        loss: Loss,
        optimizer: Box<dyn Optimizer>,
        metrics: Vec<Metric>,
    ) {
        self.compiled = Some(Compiled { loss, optimizer, metrics });
    }

    /// Forward pass on a batched input.
    ///
    /// # Errors
    /// Fails when the model has no layers or a layer fails.
    pub fn forward(&self, x: &Tensor, training: bool) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(Error::invalid("Sequential.forward", "model has no layers"));
        }
        let mut y = ops::identity(x)?;
        for layer in &self.layers {
            y = layer.call(&y, training)?;
        }
        Ok(y)
    }

    /// Inference (`model.predict`): runs inside a memory scope so all
    /// intermediates are disposed automatically.
    ///
    /// # Errors
    /// Fails on shape errors.
    pub fn predict(&mut self, x: &Tensor) -> Result<Tensor> {
        self.ensure_built(x)?;
        self.engine.clone().tidy(|| self.forward(x, false))
    }

    /// All variables of all layers, in layer order.
    pub fn variables(&self) -> Vec<Variable> {
        self.layers.iter().flat_map(|l| l.weights()).map(|(_, v)| v).collect()
    }

    /// Trainable variables only.
    pub fn trainable_variables(&self) -> Vec<Variable> {
        self.variables().into_iter().filter(|v| v.trainable()).collect()
    }

    /// Total parameter count.
    pub fn count_params(&self) -> usize {
        self.layers.iter().map(|l| l.count_params()).sum()
    }

    /// Train (`model.fit`); memory is managed internally per step.
    ///
    /// # Errors
    /// Fails when not compiled, shapes mismatch, or ops fail.
    pub fn fit(&mut self, x: &Tensor, y: &Tensor, config: FitConfig) -> Result<History> {
        self.ensure_built(x)?;
        if self.compiled.is_none() {
            return Err(Error::invalid("Sequential.fit", "call compile() before fit()"));
        }
        let total = x.shape_ref().dim(0);
        if y.shape_ref().dim(0) != total {
            return Err(Error::shape("Sequential.fit", "x and y batch sizes differ"));
        }
        if !(0.0..1.0).contains(&config.validation_split) {
            return Err(Error::invalid("Sequential.fit", "validation_split must be in [0, 1)"));
        }
        // Hold out the trailing fraction for validation (Keras semantics:
        // the split is taken before shuffling).
        let n_val = ((total as f32) * config.validation_split).round() as usize;
        let n = total - n_val;
        if n == 0 {
            return Err(Error::invalid("Sequential.fit", "validation_split leaves no training data"));
        }
        let (x_val, y_val) = if n_val > 0 {
            let mut begin = vec![0usize; x.rank()];
            begin[0] = n;
            let mut size = x.shape().0;
            size[0] = n_val;
            let xv = ops::slice(x, &begin, &size)?;
            let mut yb = vec![0usize; y.rank()];
            yb[0] = n;
            let mut ys = y.shape().0;
            ys[0] = n_val;
            (Some(xv), Some(ops::slice(y, &yb, &ys)?))
        } else {
            (None, None)
        };
        let batch_size = config.batch_size.max(1).min(n);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut history = History::default();
        let engine = self.engine.clone();
        let mut best_monitored = f32::INFINITY;
        let mut epochs_without_improvement = 0usize;

        'epochs: for epoch in 0..config.epochs {
            // Shuffle the training partition by gathering rows in
            // permuted order.
            let mut order: Vec<i32> = (0..n as i32).collect();
            if config.shuffle {
                order.shuffle(&mut rng);
            }
            let (x_ep, y_ep) = {
                let idx =
                    engine.make_tensor(TensorData::I32(order), Shape::new(vec![n]), DType::I32)?;
                let xg = ops::gather(x, &idx, 0)?;
                let yg = ops::gather(y, &idx, 0)?;
                idx.dispose();
                (xg, yg)
            };

            let mut epoch_loss = 0.0f64;
            let mut metric_sums: Vec<f64> = Vec::new();
            if let Some(c) = &self.compiled {
                metric_sums = vec![0.0; c.metrics.len()];
            }
            let mut seen = 0usize;
            let mut start = 0usize;
            while start < n {
                let size = batch_size.min(n - start);
                let (loss_value, metric_vals) = self.train_step(&x_ep, &y_ep, start, size)?;
                epoch_loss += loss_value as f64 * size as f64;
                for (s, v) in metric_sums.iter_mut().zip(&metric_vals) {
                    *s += *v as f64 * size as f64;
                }
                seen += size;
                start += size;
            }
            x_ep.dispose();
            y_ep.dispose();
            let mean_loss = (epoch_loss / seen as f64) as f32;
            history.loss.push(mean_loss);
            if let Some(c) = &self.compiled {
                for (metric, sum) in c.metrics.iter().zip(&metric_sums) {
                    history
                        .metrics
                        .entry(metric.name())
                        .or_default()
                        .push((*sum / seen as f64) as f32);
                }
            }
            // Validation pass and early stopping.
            let monitored = if let (Some(xv), Some(yv)) = (&x_val, &y_val) {
                let loss_kind = self.compiled.as_ref().expect("checked above").loss;
                let val_loss = engine.tidy(|| -> Result<f32> {
                    let pred = self.forward(xv, false)?;
                    loss_kind.compute(yv, &pred)?.to_scalar()
                })?;
                history.val_loss.push(val_loss);
                val_loss
            } else {
                mean_loss
            };
            if config.verbose {
                match history.val_loss.last() {
                    Some(v) => println!(
                        "epoch {}/{} - loss: {:.6} - val_loss: {:.6}",
                        epoch + 1,
                        config.epochs,
                        mean_loss,
                        v
                    ),
                    None => println!("epoch {}/{} - loss: {:.6}", epoch + 1, config.epochs, mean_loss),
                }
            }
            if let Some(patience) = config.early_stopping_patience {
                if monitored < best_monitored - 1e-7 {
                    best_monitored = monitored;
                    epochs_without_improvement = 0;
                } else {
                    epochs_without_improvement += 1;
                    if epochs_without_improvement > patience {
                        history.stopped_early = true;
                        break 'epochs;
                    }
                }
            }
        }
        if let Some(xv) = x_val {
            xv.dispose();
        }
        if let Some(yv) = y_val {
            yv.dispose();
        }
        Ok(history)
    }

    fn train_step(
        &mut self,
        x_ep: &Tensor,
        y_ep: &Tensor,
        start: usize,
        size: usize,
    ) -> Result<(f32, Vec<f32>)> {
        let engine = self.engine.clone();
        let vars = self.trainable_variables();
        let var_tensors: Vec<Tensor> = vars.iter().map(|v| v.value()).collect();
        let var_refs: Vec<&Tensor> = var_tensors.iter().collect();
        let compiled = self.compiled.as_ref().expect("checked in fit");
        let loss_kind = compiled.loss;
        let metrics = compiled.metrics.clone();

        let (loss_value, metric_vals) = engine.tidy(|| -> Result<(f32, Vec<f32>)> {
            // Slice the batch.
            let mut xb_begin = vec![0usize; x_ep.rank()];
            xb_begin[0] = start;
            let mut xb_size = x_ep.shape().0;
            xb_size[0] = size;
            let xb = ops::slice(x_ep, &xb_begin, &xb_size)?;
            let mut yb_begin = vec![0usize; y_ep.rank()];
            yb_begin[0] = start;
            let mut yb_size = y_ep.shape().0;
            yb_size[0] = size;
            let yb = ops::slice(y_ep, &yb_begin, &yb_size)?;

            // Metric values are extracted inside the gradient scope, while
            // the prediction tensor is still alive.
            let mut metric_vals = Vec::with_capacity(metrics.len());
            let (loss_t, grads) = engine.value_and_grads(&var_refs, || {
                let pred = self.forward(&xb, true)?;
                let loss = loss_kind.compute(&yb, &pred)?;
                for m in &metrics {
                    metric_vals.push(m.compute(&yb, &pred)?);
                }
                Ok(loss)
            })?;
            let loss_value = loss_t.to_scalar()?;
            // Apply the gradients (optimizer mutates variables in place).
            self.compiled
                .as_mut()
                .expect("checked in fit")
                .optimizer
                .apply_gradients(&vars, &grads)?;
            Ok((loss_value, metric_vals))
        })?;
        Ok((loss_value, metric_vals))
    }

    /// Evaluate loss and metrics on held-out data (`model.evaluate`).
    ///
    /// # Errors
    /// Fails when not compiled.
    pub fn evaluate(&mut self, x: &Tensor, y: &Tensor) -> Result<(f32, Vec<f32>)> {
        self.ensure_built(x)?;
        let compiled = self
            .compiled
            .as_ref()
            .ok_or_else(|| Error::invalid("Sequential.evaluate", "call compile() first"))?;
        let loss_kind = compiled.loss;
        let metrics = compiled.metrics.clone();
        let engine = self.engine.clone();
        engine.tidy(|| -> Result<(f32, Vec<f32>)> {
            let pred = self.forward(x, false)?;
            let loss = loss_kind.compute(y, &pred)?.to_scalar()?;
            let mut metric_vals = Vec::with_capacity(metrics.len());
            for m in &metrics {
                metric_vals.push(m.compute(y, &pred)?);
            }
            Ok((loss, metric_vals))
        })
    }

    /// A text summary (layer table with output shapes and param counts).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Model: {}\n", self.name));
        out.push_str("layer                     output shape        params\n");
        let mut shape = self.input_shape.clone();
        for layer in &self.layers {
            let out_shape = match &shape {
                Some(s) => match layer.output_shape(s) {
                    Ok(o) => {
                        let text = o.to_string();
                        shape = Some(o);
                        text
                    }
                    Err(_) => "?".to_string(),
                },
                None => "?".to_string(),
            };
            out.push_str(&format!(
                "{:<25} {:<19} {}\n",
                format!("{} ({})", layer.name(), layer.class_name()),
                out_shape,
                layer.count_params()
            ));
        }
        out.push_str(&format!("Total params: {}\n", self.count_params()));
        out
    }

    // --- serialization ------------------------------------------------------

    /// Keras-style topology JSON (`model.toJSON()` / `model.json`).
    pub fn to_topology(&self) -> Value {
        json!({
            "class_name": "Sequential",
            "config": {
                "name": self.name,
                "input_shape": self.input_shape.as_ref().map(|s| s.dims().to_vec()),
                "layers": self.layers.iter().map(|l| json!({
                    "class_name": l.class_name(),
                    "config": l.get_config(),
                })).collect::<Vec<_>>(),
            },
        })
    }

    /// Rebuild a model from topology JSON. Weights are allocated (when the
    /// topology records an input shape) but carry fresh initializer values;
    /// use [`Sequential::set_weights_by_name`] to restore trained weights.
    ///
    /// # Errors
    /// Fails on malformed JSON or unknown layer classes.
    pub fn from_topology(engine: &Engine, topology: &Value) -> Result<Sequential> {
        let class = topology.get("class_name").and_then(Value::as_str).unwrap_or_default();
        if class != "Sequential" {
            return Err(Error::Serialization { message: format!("expected Sequential, got {class}") });
        }
        let config = topology
            .get("config")
            .ok_or_else(|| Error::Serialization { message: "missing config".into() })?;
        let mut model = Sequential::new(engine);
        if let Some(name) = config.get("name").and_then(Value::as_str) {
            model.name = name.to_string();
        }
        let layers = config
            .get("layers")
            .and_then(Value::as_array)
            .ok_or_else(|| Error::Serialization { message: "missing layers".into() })?;
        for l in layers {
            let class_name = l
                .get("class_name")
                .and_then(Value::as_str)
                .ok_or_else(|| Error::Serialization { message: "layer missing class_name".into() })?;
            let cfg = l
                .get("config")
                .ok_or_else(|| Error::Serialization { message: "layer missing config".into() })?;
            model.add_boxed(layer_from_config(class_name, cfg)?);
        }
        if let Some(dims) = config.get("input_shape").and_then(Value::as_array) {
            let shape: Vec<usize> =
                dims.iter().filter_map(Value::as_u64).map(|d| d as usize).collect();
            model.build(shape)?;
        }
        Ok(model)
    }

    /// Named weights in canonical order.
    pub fn named_weights(&self) -> Vec<(String, Variable)> {
        self.layers.iter().flat_map(|l| l.weights()).collect()
    }

    /// Restore weights by name (from a converter manifest).
    ///
    /// # Errors
    /// Fails when a name is unknown or a shape mismatches.
    pub fn set_weights_by_name(&mut self, weights: &[(String, Tensor)]) -> Result<()> {
        let named: HashMap<String, Variable> = self.named_weights().into_iter().collect();
        for (name, tensor) in weights {
            let var = named.get(name).ok_or_else(|| Error::Serialization {
                message: format!("model has no weight named {name}"),
            })?;
            var.assign(tensor.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::Activation;
    use crate::layers::{Dense, Dropout, Flatten};
    use crate::optimizers::{Adam, Sgd};
    use std::sync::Arc;
    use webml_core::cpu::CpuBackend;

    fn engine() -> Engine {
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
        e
    }

    #[test]
    fn listing1_linear_regression() {
        // Listing 1 of the paper: one dense unit, sgd + mse, y = 2x - 1.
        let e = engine();
        let mut model = Sequential::new(&e);
        model.add(Dense::new(1).with_input_dim(1));
        model.compile(Loss::MeanSquaredError, Box::new(Sgd::new(0.1)));
        let xs = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 4, 1).unwrap();
        let ys = e.tensor_2d(&[1.0, 3.0, 5.0, 7.0], 4, 1).unwrap();
        let history = model
            .fit(&xs, &ys, FitConfig { epochs: 150, batch_size: 4, ..Default::default() })
            .unwrap();
        assert!(history.loss[0] > *history.loss.last().unwrap());
        let x = e.tensor_2d(&[5.0], 1, 1).unwrap();
        let pred = model.predict(&x).unwrap().to_scalar().unwrap();
        assert!((pred - 9.0).abs() < 0.3, "prediction {pred}");
    }

    #[test]
    fn fit_requires_compile() {
        let e = engine();
        let mut model = Sequential::new(&e);
        model.add(Dense::new(1).with_input_dim(1));
        let xs = e.tensor_2d(&[1.0], 1, 1).unwrap();
        assert!(model.fit(&xs, &xs, FitConfig::default()).is_err());
    }

    #[test]
    fn xor_with_hidden_layer() {
        let e = engine();
        let mut model = Sequential::new(&e).with_seed(7);
        model.add(Dense::new(8).with_input_dim(2).with_activation(Activation::Tanh));
        model.add(Dense::new(1).with_activation(Activation::Sigmoid));
        model.compile(Loss::MeanSquaredError, Box::new(Adam::new(0.1)));
        let xs = e.tensor_2d(&[0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], 4, 2).unwrap();
        let ys = e.tensor_2d(&[0.0, 1.0, 1.0, 0.0], 4, 1).unwrap();
        model
            .fit(&xs, &ys, FitConfig { epochs: 200, batch_size: 4, ..Default::default() })
            .unwrap();
        let pred = model.predict(&xs).unwrap().to_f32_vec().unwrap();
        assert!(pred[0] < 0.3 && pred[3] < 0.3, "{pred:?}");
        assert!(pred[1] > 0.7 && pred[2] > 0.7, "{pred:?}");
    }

    #[test]
    fn fit_does_not_leak_tensors() {
        let e = engine();
        let mut model = Sequential::new(&e);
        model.add(Dense::new(4).with_input_dim(3).with_activation(Activation::Relu));
        model.add(Dense::new(2));
        model.compile(Loss::MeanSquaredError, Box::new(Sgd::new(0.01)));
        let xs = e.rand_uniform([16, 3], -1.0, 1.0, 1).unwrap();
        let ys = e.rand_uniform([16, 2], -1.0, 1.0, 2).unwrap();
        model.fit(&xs, &ys, FitConfig { epochs: 1, batch_size: 8, ..Default::default() }).unwrap();
        let baseline = e.num_tensors();
        model.fit(&xs, &ys, FitConfig { epochs: 3, batch_size: 8, ..Default::default() }).unwrap();
        // Steady state: no growth across epochs (model-level APIs manage
        // memory internally, paper Sec 3.7).
        assert_eq!(e.num_tensors(), baseline);
    }

    #[test]
    fn conv_net_step_computes_no_gradient_for_the_input_batch() {
        // The benchmark's training step: conv 8 → conv 16 → dense, batch 32,
        // Adam, on the native backend.
        use crate::layers::Conv2D;
        let e = Engine::new();
        e.register_backend("native", Arc::new(webml_backend_native::NativeBackend::new()), 1);
        let mut model = Sequential::new(&e).with_seed(3);
        let conv = |filters| Conv2D::new(filters, 3).with_strides((2, 2)).with_activation(Activation::Relu);
        model.add(conv(8).with_input_shape([28, 28, 1]));
        model.add(conv(16));
        model.add(Flatten::new());
        model.add(Dense::new(10).with_activation(Activation::Softmax));
        model.compile(Loss::CategoricalCrossentropy, Box::new(Adam::new(0.001)));
        let xs = e.rand_uniform([32, 28, 28, 1], 0.0, 1.0, 1).unwrap();
        let one_hot: Vec<f32> = (0..32 * 10).map(|i| (i % 10 == i / 10 % 10) as u8 as f32).collect();
        let ys = e.tensor_2d(&one_hot, 32, 10).unwrap();
        let config = FitConfig { epochs: 1, batch_size: 32, shuffle: true, seed: 1, ..Default::default() };
        // The first step creates Adam's slots.
        model.fit(&xs, &ys, config.clone()).unwrap();
        let baseline = e.num_tensors();
        let (history, profile) = e.profile(|| model.fit(&xs, &ys, config.clone()));
        history.unwrap();
        let count = |name: &str| profile.kernels.iter().filter(|k| k.name == name).count();
        // Every layer's filter gradient, but only the second layer's input
        // gradient: the first layer's input is the batch.
        assert_eq!(count("Conv2DBackpropFilter"), 2);
        assert_eq!(count("Conv2DBackpropInput"), 1);
        // 136 before backprop skipped the gradients nobody reads.
        assert!(profile.kernels.len() < 136, "{} kernels", profile.kernels.len());
        assert_eq!(e.num_tensors(), baseline);
    }

    #[test]
    fn evaluate_returns_loss_and_metrics() {
        let e = engine();
        let mut model = Sequential::new(&e);
        model.add(Dense::new(2).with_input_dim(2).with_activation(Activation::Softmax));
        model.compile_with_metrics(
            Loss::CategoricalCrossentropy,
            Box::new(Sgd::new(0.1)),
            vec![Metric::CategoricalAccuracy],
        );
        let xs = e.tensor_2d(&[1.0, 0.0, 0.0, 1.0], 2, 2).unwrap();
        let ys = e.tensor_2d(&[1.0, 0.0, 0.0, 1.0], 2, 2).unwrap();
        let (loss, metrics) = model.evaluate(&xs, &ys).unwrap();
        assert!(loss.is_finite());
        assert_eq!(metrics.len(), 1);
    }

    #[test]
    fn summary_and_params() {
        let e = engine();
        let mut model = Sequential::new(&e);
        model.add(Dense::new(4).with_input_dim(3));
        model.add(Dense::new(2));
        model.build([3]).unwrap();
        assert_eq!(model.count_params(), (3 * 4 + 4) + (4 * 2 + 2));
        let s = model.summary();
        assert!(s.contains("Dense"));
        assert!(s.contains("Total params: 26"));
    }

    #[test]
    fn topology_round_trip_preserves_structure() {
        let e = engine();
        let mut model = Sequential::new(&e);
        model.add(Dense::new(4).with_input_dim(3).with_activation(Activation::Relu));
        model.add(Dropout::new(0.5));
        model.add(Flatten::new());
        model.add(Dense::new(2).with_activation(Activation::Softmax));
        model.build([3]).unwrap();
        let topo = model.to_topology();
        let rebuilt = Sequential::from_topology(&e, &topo).unwrap();
        assert_eq!(rebuilt.len(), 4);
        assert!(rebuilt.built());
        assert_eq!(rebuilt.count_params(), model.count_params());
        assert_eq!(rebuilt.to_topology(), topo);
    }

    #[test]
    fn weights_transfer_reproduces_predictions() {
        let e = engine();
        let mut model = Sequential::new(&e).with_seed(3);
        model.add(Dense::new(4).with_input_dim(2).with_activation(Activation::Tanh));
        model.add(Dense::new(1));
        model.build([2]).unwrap();
        let x = e.tensor_2d(&[0.3, -0.7], 1, 2).unwrap();
        let expect = model.predict(&x).unwrap().to_f32_vec().unwrap();
        // Serialize topology + weights into a fresh model.
        let topo = model.to_topology();
        let weights: Vec<(String, Tensor)> =
            model.named_weights().into_iter().map(|(n, v)| (n, v.value())).collect();
        let mut restored = Sequential::from_topology(&e, &topo).unwrap();
        restored.set_weights_by_name(&weights).unwrap();
        let got = restored.predict(&x).unwrap().to_f32_vec().unwrap();
        assert_eq!(got, expect);
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;
    use crate::activations::Activation;
    use crate::layers::Dense;
    use crate::optimizers::{Adam, Sgd};
    use std::sync::Arc;
    use webml_core::cpu::CpuBackend;

    fn engine() -> Engine {
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
        e
    }

    #[test]
    fn validation_split_reports_val_loss() {
        let e = engine();
        let mut model = Sequential::new(&e).with_seed(9);
        model.add(Dense::new(4).with_input_dim(1).with_activation(Activation::Tanh));
        model.add(Dense::new(1));
        model.compile(Loss::MeanSquaredError, Box::new(Adam::new(0.05)));
        let xs = e.rand_uniform([40, 1], -1.0, 1.0, 1).unwrap();
        let two = e.scalar(2.0).unwrap();
        let ys = ops::mul(&xs, &two).unwrap();
        let history = model
            .fit(
                &xs,
                &ys,
                FitConfig { epochs: 10, batch_size: 8, validation_split: 0.25, ..Default::default() },
            )
            .unwrap();
        assert_eq!(history.val_loss.len(), 10);
        assert!(
            history.val_loss.last().unwrap() < &history.val_loss[0],
            "val loss should improve: {:?}",
            history.val_loss
        );
    }

    #[test]
    fn early_stopping_halts_on_plateau() {
        let e = engine();
        let mut model = Sequential::new(&e).with_seed(2);
        model.add(Dense::new(1).with_input_dim(1));
        // Learning rate 0: the loss can never improve, so patience triggers
        // immediately after `patience + 1` epochs.
        model.compile(Loss::MeanSquaredError, Box::new(Sgd::new(0.0)));
        let xs = e.rand_uniform([16, 1], -1.0, 1.0, 3).unwrap();
        let ys = e.rand_uniform([16, 1], -1.0, 1.0, 4).unwrap();
        let history = model
            .fit(
                &xs,
                &ys,
                FitConfig {
                    epochs: 50,
                    batch_size: 8,
                    early_stopping_patience: Some(2),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(history.stopped_early);
        assert!(history.loss.len() < 50, "stopped after {} epochs", history.loss.len());
    }

    #[test]
    fn bad_validation_split_errors() {
        let e = engine();
        let mut model = Sequential::new(&e);
        model.add(Dense::new(1).with_input_dim(1));
        model.compile(Loss::MeanSquaredError, Box::new(Sgd::new(0.1)));
        let xs = e.rand_uniform([4, 1], -1.0, 1.0, 1).unwrap();
        let bad = FitConfig { validation_split: 1.5, ..Default::default() };
        assert!(model.fit(&xs, &xs, bad).is_err());
    }
}
