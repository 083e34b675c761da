//! Element-wise unary ops (their gradients are the `Unary` rules of
//! [`crate::grads`]).

use crate::backend::{KernelCall, UnaryOp};
use crate::dtype::DType;
use crate::error::Result;
use crate::tensor::Tensor;

/// Run a unary kernel.
pub(crate) fn unary_op(op: UnaryOp, a: &Tensor) -> Result<Tensor> {
    a.engine().run_kernel(&KernelCall::Unary(op), &[a])
}

/// `-x`.
///
/// # Errors
/// Fails on disposed inputs or backend errors (applies to all ops below).
pub fn neg(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Neg, a)
}

/// `|x|`.
///
/// # Errors
/// See [`neg`].
pub fn abs(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Abs, a)
}

/// `e^x`.
///
/// # Errors
/// See [`neg`].
pub fn exp(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Exp, a)
}

/// `e^x - 1`.
///
/// # Errors
/// See [`neg`].
pub fn expm1(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Expm1, a)
}

/// Natural logarithm.
///
/// # Errors
/// See [`neg`].
pub fn log(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Log, a)
}

/// `ln(1 + x)`.
///
/// # Errors
/// See [`neg`].
pub fn log1p(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Log1p, a)
}

/// Square root.
///
/// # Errors
/// See [`neg`].
pub fn sqrt(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Sqrt, a)
}

/// `1 / sqrt(x)`.
///
/// # Errors
/// See [`neg`].
pub fn rsqrt(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Rsqrt, a)
}

/// `x^2`.
///
/// # Errors
/// See [`neg`].
pub fn square(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Square, a)
}

/// Rectified linear unit.
///
/// # Errors
/// See [`neg`].
pub fn relu(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Relu, a)
}

/// ReLU clipped at 6.
///
/// # Errors
/// See [`neg`].
pub fn relu6(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Relu6, a)
}

/// Logistic sigmoid.
///
/// # Errors
/// See [`neg`].
pub fn sigmoid(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Sigmoid, a)
}

/// Hyperbolic tangent.
///
/// # Errors
/// See [`neg`].
pub fn tanh(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Tanh, a)
}

/// Exponential linear unit.
///
/// # Errors
/// See [`neg`].
pub fn elu(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Elu, a)
}

/// Scaled exponential linear unit.
///
/// # Errors
/// See [`neg`].
pub fn selu(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Selu, a)
}

/// `ln(1 + e^x)`.
///
/// # Errors
/// See [`neg`].
pub fn softplus(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Softplus, a)
}

/// Sine.
///
/// # Errors
/// See [`neg`].
pub fn sin(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Sin, a)
}

/// Cosine.
///
/// # Errors
/// See [`neg`].
pub fn cos(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Cos, a)
}

/// Tangent.
///
/// # Errors
/// See [`neg`].
pub fn tan(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Tan, a)
}

/// Arcsine.
///
/// # Errors
/// See [`neg`].
pub fn asin(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Asin, a)
}

/// Arccosine.
///
/// # Errors
/// See [`neg`].
pub fn acos(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Acos, a)
}

/// Arctangent.
///
/// # Errors
/// See [`neg`].
pub fn atan(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Atan, a)
}

/// Floor.
///
/// # Errors
/// See [`neg`].
pub fn floor(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Floor, a)
}

/// Ceiling.
///
/// # Errors
/// See [`neg`].
pub fn ceil(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Ceil, a)
}

/// Round half away from zero.
///
/// # Errors
/// See [`neg`].
pub fn round(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Round, a)
}

/// Sign (-1, 0, 1).
///
/// # Errors
/// See [`neg`].
pub fn sign(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Sign, a)
}

/// `1 / x`.
///
/// # Errors
/// See [`neg`].
pub fn reciprocal(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Reciprocal, a)
}

/// Leaky ReLU with negative slope `alpha`.
///
/// # Errors
/// See [`neg`].
pub fn leaky_relu(a: &Tensor, alpha: f32) -> Result<Tensor> {
    unary_op(UnaryOp::LeakyRelu(alpha), a)
}

/// Clip into `[min, max]`.
///
/// # Errors
/// See [`neg`].
pub fn clip_by_value(a: &Tensor, min: f32, max: f32) -> Result<Tensor> {
    unary_op(UnaryOp::ClipByValue(min, max), a)
}

/// Heaviside step: 1 where `x > 0`, else `alpha`.
///
/// # Errors
/// See [`neg`].
pub fn step(a: &Tensor, alpha: f32) -> Result<Tensor> {
    unary_op(UnaryOp::Step(alpha), a)
}

/// 1.0 where NaN (bool output).
///
/// # Errors
/// See [`neg`].
pub fn is_nan(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::IsNan, a)
}

/// 1.0 where infinite (bool output).
///
/// # Errors
/// See [`neg`].
pub fn is_inf(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::IsInf, a)
}

/// 1.0 where finite (bool output).
///
/// # Errors
/// See [`neg`].
pub fn is_finite(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::IsFinite, a)
}

/// Logical negation of a bool tensor.
///
/// # Errors
/// See [`neg`].
pub fn logical_not(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::LogicalNot, a)
}

/// Cast to another dtype. The gradient passes through unchanged for float
/// targets.
///
/// # Errors
/// See [`neg`].
pub fn cast(a: &Tensor, dtype: DType) -> Result<Tensor> {
    a.engine().run_kernel(&KernelCall::Cast(dtype), &[a])
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_close, test_engine};
    use super::*;

    #[test]
    fn relu_clamps() {
        let e = test_engine();
        let a = e.tensor_1d(&[-1.0, 0.0, 2.0]).unwrap();
        assert_eq!(relu(&a).unwrap().to_f32_vec().unwrap(), vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_tanh_values() {
        let e = test_engine();
        let a = e.tensor_1d(&[0.0]).unwrap();
        assert_close(&sigmoid(&a).unwrap().to_f32_vec().unwrap(), &[0.5], 1e-6);
        assert_close(&tanh(&a).unwrap().to_f32_vec().unwrap(), &[0.0], 1e-6);
    }

    #[test]
    fn exp_log_inverse() {
        let e = test_engine();
        let a = e.tensor_1d(&[0.5, 1.0, 2.0]).unwrap();
        let back = log(&exp(&a).unwrap()).unwrap();
        assert_close(&back.to_f32_vec().unwrap(), &[0.5, 1.0, 2.0], 1e-6);
    }

    #[test]
    fn clip_bounds() {
        let e = test_engine();
        let a = e.tensor_1d(&[-5.0, 0.5, 5.0]).unwrap();
        assert_eq!(
            clip_by_value(&a, -1.0, 1.0).unwrap().to_f32_vec().unwrap(),
            vec![-1.0, 0.5, 1.0]
        );
    }

    #[test]
    fn cast_to_int_truncates() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.7, -2.3]).unwrap();
        assert_eq!(cast(&a, DType::I32).unwrap().to_i32_vec().unwrap(), vec![1, -2]);
    }

    #[test]
    fn is_nan_flags() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, f32::NAN]).unwrap();
        let n = is_nan(&a).unwrap();
        assert_eq!(n.dtype(), DType::Bool);
        assert_eq!(n.to_f32_vec().unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_slope() {
        let e = test_engine();
        let a = e.tensor_1d(&[-10.0, 10.0]).unwrap();
        assert_eq!(leaky_relu(&a, 0.1).unwrap().to_f32_vec().unwrap(), vec![-1.0, 10.0]);
    }
}
