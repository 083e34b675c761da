//! Softmax and cross-entropy losses, composed from differentiable
//! primitives so the eager autodiff engine differentiates them for free.

use super::{add, div, exp, log, max, mul, neg, sigmoid, softplus, sub, sum};
use crate::error::Result;
use crate::tensor::Tensor;

/// Numerically stable softmax along the last axis. Its four intermediates
/// are disposed before it returns, unless a tape saved them.
///
/// # Errors
/// Fails on disposed inputs or backend errors.
pub fn softmax(logits: &Tensor) -> Result<Tensor> {
    super::composite(logits.engine(), || {
        let m = max(logits, Some(&[-1]), true)?;
        let shifted = sub(logits, &m)?;
        let e = exp(&shifted)?;
        let s = sum(&e, Some(&[-1]), true)?;
        div(&e, &s)
    })
}

/// Numerically stable log-softmax along the last axis.
///
/// # Errors
/// Fails on disposed inputs or backend errors.
pub fn log_softmax(logits: &Tensor) -> Result<Tensor> {
    let m = max(logits, Some(&[-1]), true)?;
    let shifted = sub(logits, &m)?;
    let s = sum(&exp(&shifted)?, Some(&[-1]), true)?;
    sub(&shifted, &log(&s)?)
}

/// Per-example softmax cross entropy between `labels` (probabilities) and
/// `logits`, reduced over the last axis.
///
/// # Errors
/// Fails on shape mismatches.
pub fn softmax_cross_entropy(labels: &Tensor, logits: &Tensor) -> Result<Tensor> {
    let lsm = log_softmax(logits)?;
    neg(&sum(&mul(labels, &lsm)?, Some(&[-1]), false)?)
}

/// Element-wise sigmoid cross entropy with logits, the numerically stable
/// `max(x, 0) - x*z + log(1 + e^{-|x|})` formulation.
///
/// # Errors
/// Fails on shape mismatches.
pub fn sigmoid_cross_entropy_with_logits(labels: &Tensor, logits: &Tensor) -> Result<Tensor> {
    let e = logits.engine();
    let zero = e.scalar(0.0)?;
    let relu_x = super::maximum(logits, &zero)?;
    let xz = mul(logits, labels)?;
    let soft = softplus(&neg(&super::abs(logits)?)?)?;
    add(&sub(&relu_x, &xz)?, &soft)
}

/// Binary cross entropy on probabilities (clipped for stability).
///
/// # Errors
/// Fails on shape mismatches.
pub fn binary_cross_entropy(labels: &Tensor, probs: &Tensor) -> Result<Tensor> {
    let eps = probs.engine().epsilon();
    let p = super::clip_by_value(probs, eps, 1.0 - eps)?;
    let e = probs.engine();
    let one = e.scalar(1.0)?;
    let pos = mul(labels, &log(&p)?)?;
    let neg_l = mul(&sub(&one, labels)?, &log(&sub(&one, &p)?)?)?;
    neg(&add(&pos, &neg_l)?)
}

/// Logistic prediction from logits (alias for [`sigmoid`], for API parity).
///
/// # Errors
/// Fails on disposed inputs.
pub fn logits_to_probs(logits: &Tensor) -> Result<Tensor> {
    sigmoid(logits)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_close, test_engine};
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let e = test_engine();
        let x = e.tensor_2d(&[1.0, 2.0, 3.0, 1.0, 1.0, 1.0], 2, 3).unwrap();
        let s = softmax(&x).unwrap();
        let rows = s.to_f32_vec().unwrap();
        assert_close(&[rows[0] + rows[1] + rows[2]], &[1.0], 1e-6);
        assert_close(&rows[3..6], &[1.0 / 3.0; 3], 1e-6);
        assert!(rows[2] > rows[1] && rows[1] > rows[0]);
    }

    #[test]
    fn softmax_is_stable_for_huge_logits() {
        let e = test_engine();
        let x = e.tensor_1d(&[1000.0, 1000.0]).unwrap();
        let s = softmax(&x).unwrap().to_f32_vec().unwrap();
        assert_close(&s, &[0.5, 0.5], 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let e = test_engine();
        let x = e.tensor_1d(&[0.5, -1.0, 2.0]).unwrap();
        let a = log_softmax(&x).unwrap().to_f32_vec().unwrap();
        let b = log(&softmax(&x).unwrap()).unwrap().to_f32_vec().unwrap();
        assert_close(&a, &b, 1e-6);
    }

    #[test]
    fn cross_entropy_zero_for_perfect_prediction() {
        let e = test_engine();
        let labels = e.tensor_2d(&[0.0, 1.0], 1, 2).unwrap();
        let logits = e.tensor_2d(&[-100.0, 100.0], 1, 2).unwrap();
        let ce = softmax_cross_entropy(&labels, &logits).unwrap();
        assert!(ce.to_scalar().unwrap().abs() < 1e-5);
    }

    #[test]
    fn sigmoid_xent_matches_naive_in_stable_region() {
        let e = test_engine();
        let labels = e.tensor_1d(&[1.0, 0.0]).unwrap();
        let logits = e.tensor_1d(&[0.3, -0.7]).unwrap();
        let stable = sigmoid_cross_entropy_with_logits(&labels, &logits).unwrap().to_f32_vec().unwrap();
        // naive: -z log p - (1-z) log(1-p)
        let p = sigmoid(&logits).unwrap().to_f32_vec().unwrap();
        let naive = [-(p[0].ln()), -((1.0 - p[1]).ln())];
        assert_close(&stable, &naive, 1e-5);
    }
}
