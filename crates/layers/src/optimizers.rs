//! Gradient-descent optimizers operating on [`Variable`]s.
//!
//! An update runs as `FusedElementwise` chains (paper Sec 3.9): each chain
//! applies the update's ops to one running value in the order the plain ops
//! would, so the variables move by the same bits in fewer kernels. A chain
//! combines its running value as the left operand, so a value that appears
//! on the right of an op (`m·β₁ + (1−β₁)·g`, `v − α·m̂`) is made by a kernel
//! of its own first.

use serde_json::{json, Value};
use std::collections::HashMap;
use webml_core::backend::{BinaryOp, UnaryOp};
use webml_core::{ops, FusedStep, Result, Tensor, Variable};

/// `x op extras[i]`, a chain step.
fn by(op: BinaryOp, i: usize) -> FusedStep {
    FusedStep::Binary(op, i)
}

/// An optimizer applies gradients to trainable variables in place.
pub trait Optimizer: Send {
    /// Identifier (`"sgd"`, `"adam"`, ...).
    fn name(&self) -> &'static str;

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Change the learning rate (e.g. for schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Apply one gradient per variable, updating each in place. The
    /// gradients live on one engine, where the step's constants are
    /// registered once per call.
    ///
    /// # Errors
    /// Fails when `vars.len() != grads.len()` or on op errors.
    fn apply_gradients(&mut self, vars: &[Variable], grads: &[Tensor]) -> Result<()>;

    /// Serializable configuration.
    fn config(&self) -> Value;
}

fn check_lengths(name: &'static str, vars: &[Variable], grads: &[Tensor]) -> Result<()> {
    if vars.len() != grads.len() {
        return Err(webml_core::Error::invalid(
            name,
            format!("{} variables but {} gradients", vars.len(), grads.len()),
        ));
    }
    Ok(())
}

/// Slot storage: per-variable auxiliary tensors (momenta, second moments),
/// kept alive as non-trainable variables. Keyed by the variable's identity:
/// two variables may share a name, never a slot.
#[derive(Default)]
struct Slots {
    map: HashMap<(u64, &'static str), Variable>,
}

impl Slots {
    fn get_or_zeros(&mut self, var: &Variable, slot: &'static str) -> Result<Variable> {
        if let Some(v) = self.map.get(&(var.id(), slot)) {
            return Ok(v.clone());
        }
        let zeros = ops::zeros_like(&var.value())?;
        let v = Variable::with_trainable(zeros, format!("{}/{slot}", var.name()), false);
        self.map.insert((var.id(), slot), v.clone());
        Ok(v)
    }
}

/// Plain stochastic gradient descent: `v -= lr * g`. Its two ops are no
/// chain: `lr · g` is `Sub`'s right operand.
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Sgd {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn name(&self) -> &'static str {
        "sgd"
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn apply_gradients(&mut self, vars: &[Variable], grads: &[Tensor]) -> Result<()> {
        check_lengths("sgd", vars, grads)?;
        let Some(e) = grads.first().map(Tensor::engine) else { return Ok(()) };
        let lr = e.scalar(self.lr)?;
        for (var, grad) in vars.iter().zip(grads) {
            let update = ops::sub(&var.value(), &ops::mul(grad, &lr)?)?;
            var.assign(update)?;
        }
        Ok(())
    }

    fn config(&self) -> Value {
        json!({ "name": "sgd", "learning_rate": self.lr })
    }
}

/// SGD with classical momentum: `m = mu*m + g; v -= lr*m`.
pub struct Momentum {
    lr: f32,
    mu: f32,
    slots: Slots,
}

impl Momentum {
    /// Momentum SGD.
    pub fn new(lr: f32, momentum: f32) -> Momentum {
        Momentum { lr, mu: momentum, slots: Slots::default() }
    }
}

impl Optimizer for Momentum {
    fn name(&self) -> &'static str {
        "momentum"
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn apply_gradients(&mut self, vars: &[Variable], grads: &[Tensor]) -> Result<()> {
        check_lengths("momentum", vars, grads)?;
        let Some(e) = grads.first().map(Tensor::engine) else { return Ok(()) };
        let mu = e.scalar(self.mu)?;
        let lr = e.scalar(self.lr)?;
        let (mul, add) = (by(BinaryOp::Mul, 0), by(BinaryOp::Add, 1));
        for (var, grad) in vars.iter().zip(grads) {
            let m = self.slots.get_or_zeros(var, "momentum")?;
            let new_m = ops::fused_elementwise(&m.value(), &[&mu, grad], &[mul, add])?;
            let update = ops::sub(&var.value(), &ops::mul(&new_m, &lr)?)?;
            m.assign(new_m)?;
            var.assign(update)?;
        }
        Ok(())
    }

    fn config(&self) -> Value {
        json!({ "name": "momentum", "learning_rate": self.lr, "momentum": self.mu })
    }
}

/// RMSProp: `s = rho*s + (1-rho)*g^2; v -= lr * g / (sqrt(s) + eps)`.
pub struct RmsProp {
    lr: f32,
    rho: f32,
    eps: f32,
    slots: Slots,
}

impl RmsProp {
    /// RMSProp with Keras defaults (rho 0.9).
    pub fn new(lr: f32) -> RmsProp {
        RmsProp { lr, rho: 0.9, eps: 1e-7, slots: Slots::default() }
    }
}

impl Optimizer for RmsProp {
    fn name(&self) -> &'static str {
        "rmsprop"
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn apply_gradients(&mut self, vars: &[Variable], grads: &[Tensor]) -> Result<()> {
        check_lengths("rmsprop", vars, grads)?;
        let Some(e) = grads.first().map(Tensor::engine) else { return Ok(()) };
        let rho = e.scalar(self.rho)?;
        let one_minus = e.scalar(1.0 - self.rho)?;
        let eps = e.scalar(self.eps)?;
        let lr = e.scalar(self.lr)?;
        let square = [by(BinaryOp::Mul, 0), by(BinaryOp::Mul, 1)];
        let decay = [by(BinaryOp::Mul, 0), by(BinaryOp::Add, 1)];
        let denominator = [FusedStep::Unary(UnaryOp::Sqrt), by(BinaryOp::Add, 0)];
        let scale = [by(BinaryOp::Mul, 0), by(BinaryOp::Div, 1)];
        for (var, grad) in vars.iter().zip(grads) {
            let s = self.slots.get_or_zeros(var, "rms")?;
            let g2 = ops::fused_elementwise(grad, &[grad, &one_minus], &square)?;
            let new_s = ops::fused_elementwise(&s.value(), &[&rho, &g2], &decay)?;
            let denom = ops::fused_elementwise(&new_s, &[&eps], &denominator)?;
            let step = ops::fused_elementwise(grad, &[&lr, &denom], &scale)?;
            let update = ops::sub(&var.value(), &step)?;
            s.assign(new_s)?;
            var.assign(update)?;
        }
        Ok(())
    }

    fn config(&self) -> Value {
        json!({ "name": "rmsprop", "learning_rate": self.lr, "rho": self.rho })
    }
}

/// Adam with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    slots: Slots,
}

impl Adam {
    /// Adam with the standard defaults (beta1 0.9, beta2 0.999).
    pub fn new(lr: f32) -> Adam {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, step: 0, slots: Slots::default() }
    }
}

impl Optimizer for Adam {
    fn name(&self) -> &'static str {
        "adam"
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn apply_gradients(&mut self, vars: &[Variable], grads: &[Tensor]) -> Result<()> {
        check_lengths("adam", vars, grads)?;
        self.step += 1;
        let Some(e) = grads.first().map(Tensor::engine) else { return Ok(()) };
        let t = self.step as f32;
        let b1 = e.scalar(self.beta1)?;
        let b2 = e.scalar(self.beta2)?;
        let one_minus_b1 = e.scalar(1.0 - self.beta1)?;
        let one_minus_b2 = e.scalar(1.0 - self.beta2)?;
        // Bias-corrected step size.
        let correction = (1.0 - self.beta2.powf(t)).sqrt() / (1.0 - self.beta1.powf(t));
        let alpha = e.scalar(self.lr * correction)?;
        let eps = e.scalar(self.eps)?;
        // Seven kernels a variable where the plain ops take twelve.
        let square = [by(BinaryOp::Mul, 0), by(BinaryOp::Mul, 1)];
        let decay = [by(BinaryOp::Mul, 0), by(BinaryOp::Add, 1)];
        let denominator = [FusedStep::Unary(UnaryOp::Sqrt), by(BinaryOp::Add, 0)];
        let scale = [by(BinaryOp::Mul, 0), by(BinaryOp::Div, 1)];
        for (var, grad) in vars.iter().zip(grads) {
            let m = self.slots.get_or_zeros(var, "m")?;
            let v = self.slots.get_or_zeros(var, "v")?;
            let g1 = ops::mul(grad, &one_minus_b1)?;
            let new_m = ops::fused_elementwise(&m.value(), &[&b1, &g1], &decay)?;
            let g2 = ops::fused_elementwise(grad, &[grad, &one_minus_b2], &square)?;
            let new_v = ops::fused_elementwise(&v.value(), &[&b2, &g2], &decay)?;
            let denom = ops::fused_elementwise(&new_v, &[&eps], &denominator)?;
            let step = ops::fused_elementwise(&new_m, &[&alpha, &denom], &scale)?;
            let update = ops::sub(&var.value(), &step)?;
            m.assign(new_m)?;
            v.assign(new_v)?;
            var.assign(update)?;
        }
        Ok(())
    }

    fn config(&self) -> Value {
        json!({
            "name": "adam",
            "learning_rate": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
        })
    }
}

/// Construct an optimizer from its serialized config.
///
/// # Errors
/// Fails on unknown optimizer names.
pub fn optimizer_from_config(config: &Value) -> Result<Box<dyn Optimizer>> {
    let name = config.get("name").and_then(Value::as_str).unwrap_or("sgd");
    let lr = config.get("learning_rate").and_then(Value::as_f64).unwrap_or(0.01) as f32;
    match name {
        "sgd" => Ok(Box::new(Sgd::new(lr))),
        "momentum" => {
            let mu = config.get("momentum").and_then(Value::as_f64).unwrap_or(0.9) as f32;
            Ok(Box::new(Momentum::new(lr, mu)))
        }
        "rmsprop" => Ok(Box::new(RmsProp::new(lr))),
        "adam" => Ok(Box::new(Adam::new(lr))),
        other => Err(webml_core::Error::Serialization {
            message: format!("unknown optimizer {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webml_core::{cpu::CpuBackend, Engine};

    fn engine() -> Engine {
        let e = Engine::new();
        e.register_backend("cpu", Arc::new(CpuBackend::new()), 1);
        e
    }

    fn quadratic_step(opt: &mut dyn Optimizer, e: &Engine, steps: usize) -> f32 {
        // Minimize f(x) = x^2 starting at 10.
        let var = Variable::new(e.tensor_1d(&[10.0]).unwrap(), "x");
        for _ in 0..steps {
            let x = var.value();
            let g = e.grad(&x, || ops::sum(&ops::square(&x)?, None, false)).unwrap();
            opt.apply_gradients(std::slice::from_ref(&var), &[g]).unwrap();
        }
        var.value().to_f32_vec().unwrap()[0]
    }

    #[test]
    fn sgd_descends_quadratic() {
        let e = engine();
        let x = quadratic_step(&mut Sgd::new(0.1), &e, 50);
        assert!(x.abs() < 0.01, "x = {x}");
    }

    #[test]
    fn momentum_descends_quadratic() {
        let e = engine();
        let x = quadratic_step(&mut Momentum::new(0.05, 0.9), &e, 80);
        assert!(x.abs() < 0.2, "x = {x}");
    }

    #[test]
    fn rmsprop_descends_quadratic() {
        let e = engine();
        let x = quadratic_step(&mut RmsProp::new(0.5), &e, 100);
        assert!(x.abs() < 0.5, "x = {x}");
    }

    #[test]
    fn adam_descends_quadratic() {
        let e = engine();
        let x = quadratic_step(&mut Adam::new(0.5), &e, 100);
        assert!(x.abs() < 0.5, "x = {x}");
    }

    /// Variables that share a name, updated in one call, move to the bit as
    /// each does updated alone: the repro is two `"w"`s whose gradients
    /// cancel, and two of different shapes.
    #[test]
    fn same_named_variables_keep_their_own_slots() {
        let e = engine();
        let makers: [fn() -> Box<dyn Optimizer>; 3] = [
            || Box::new(Adam::new(0.1)),
            || Box::new(RmsProp::new(0.1)),
            || Box::new(Momentum::new(0.1, 0.9)),
        ];
        let bits = |v: &Variable| -> Vec<u32> {
            v.value().to_f32_vec().unwrap().iter().map(|x| x.to_bits()).collect()
        };
        let pairs: [[(&[f32], &[f32]); 2]; 2] = [
            [(&[0.0], &[1.0]), (&[0.0], &[-1.0])],
            [(&[1.0, 2.0], &[0.5, 1.0]), (&[0.5, -0.5, 3.0], &[-1.0, 2.0, 0.25])],
        ];
        for make in makers {
            for pair in pairs {
                let vars = pair.map(|(init, _)| Variable::new(e.tensor_1d(init).unwrap(), "w"));
                let steps = |opt: &mut dyn Optimizer, vars: &[Variable], grads: &[&[f32]]| {
                    for _ in 0..3 {
                        let grads: Vec<Tensor> =
                            grads.iter().map(|g| e.tensor_1d(g).unwrap()).collect();
                        opt.apply_gradients(vars, &grads).unwrap();
                    }
                };
                steps(&mut *make(), &vars, &pair.map(|(_, g)| g));
                for (var, (init, grad)) in vars.iter().zip(pair) {
                    let alone = Variable::new(e.tensor_1d(init).unwrap(), "w");
                    let mut opt = make();
                    steps(&mut *opt, std::slice::from_ref(&alone), &[grad]);
                    assert_eq!(bits(var), bits(&alone), "{} {init:?}", opt.name());
                }
            }
        }
    }

    #[test]
    fn mismatched_lengths_error() {
        let e = engine();
        let var = Variable::new(e.tensor_1d(&[1.0]).unwrap(), "x");
        let mut opt = Sgd::new(0.1);
        assert!(opt.apply_gradients(std::slice::from_ref(&var), &[]).is_err());
    }

    #[test]
    fn config_round_trip() {
        for opt in [
            Box::new(Sgd::new(0.2)) as Box<dyn Optimizer>,
            Box::new(Momentum::new(0.1, 0.8)),
            Box::new(RmsProp::new(0.01)),
            Box::new(Adam::new(0.003)),
        ] {
            let rebuilt = optimizer_from_config(&opt.config()).unwrap();
            assert_eq!(rebuilt.name(), opt.name());
            assert!((rebuilt.learning_rate() - opt.learning_rate()).abs() < 1e-6);
        }
        assert!(optimizer_from_config(&json!({"name": "lbfgs"})).is_err());
    }
}
