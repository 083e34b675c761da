//! Element-wise unary ops and their gradients.

use super::{mul, zeros_like};
use crate::backend::{KernelCall, UnaryOp};
use crate::dtype::DType;
use crate::error::Result;
use crate::tape::GradFn;
use crate::tensor::Tensor;
use std::sync::Arc;

/// Run a unary kernel with an optional gradient.
pub(crate) fn unary_op(op: UnaryOp, a: &Tensor, grad: Option<GradFn>) -> Result<Tensor> {
    a.engine().run_kernel(&KernelCall::Unary(op), &[a], grad)
}

macro_rules! simple_grad {
    (|$dy:ident, $a:ident, $y:ident| $body:expr) => {
        Some(Arc::new(
            move |dys: &[Tensor],
                  ins: &[Tensor],
                  outs: &[Tensor],
                  _wanted: &[bool]|
                  -> Result<Vec<Option<Tensor>>> {
                let $dy = &dys[0];
                let $a = &ins[0];
                let $y = &outs[0];
                let _ = ($a, $y);
                Ok(vec![Some($body?)])
            },
        ) as GradFn)
    };
}

/// `-x`.
///
/// # Errors
/// Fails on disposed inputs or backend errors (applies to all ops below).
pub fn neg(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Neg, a, simple_grad!(|dy, a, y| neg(dy)))
}

/// `|x|`.
///
/// # Errors
/// See [`neg`].
pub fn abs(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Abs, a, simple_grad!(|dy, a, y| mul(dy, &sign(a)?)))
}

/// `e^x`.
///
/// # Errors
/// See [`neg`].
pub fn exp(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Exp, a, simple_grad!(|dy, a, y| mul(dy, y)))
}

/// `e^x - 1`.
///
/// # Errors
/// See [`neg`].
pub fn expm1(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Expm1, a, simple_grad!(|dy, a, y| mul(dy, &exp(a)?)))
}

/// Natural logarithm.
///
/// # Errors
/// See [`neg`].
pub fn log(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Log, a, simple_grad!(|dy, a, y| super::div(dy, a)))
}

/// `ln(1 + x)`.
///
/// # Errors
/// See [`neg`].
pub fn log1p(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Log1p,
        a,
        simple_grad!(|dy, a, y| {
            let one = a.engine().scalar(1.0)?;
            super::div(dy, &super::add(a, &one)?)
        }),
    )
}

/// Square root.
///
/// # Errors
/// See [`neg`].
pub fn sqrt(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Sqrt,
        a,
        simple_grad!(|dy, a, y| {
            let two_y = mul(y, &y.engine().scalar(2.0)?)?;
            super::div(dy, &two_y)
        }),
    )
}

/// `1 / sqrt(x)`.
///
/// # Errors
/// See [`neg`].
pub fn rsqrt(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Rsqrt,
        a,
        simple_grad!(|dy, a, y| {
            // d/dx x^{-1/2} = -1/2 x^{-3/2} = -1/2 y^3.
            let y3 = mul(&mul(y, y)?, y)?;
            let half = y.engine().scalar(-0.5)?;
            mul(dy, &mul(&y3, &half)?)
        }),
    )
}

/// `x^2`.
///
/// # Errors
/// See [`neg`].
pub fn square(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Square,
        a,
        simple_grad!(|dy, a, y| {
            let two_a = mul(a, &a.engine().scalar(2.0)?)?;
            mul(dy, &two_a)
        }),
    )
}

/// Rectified linear unit.
///
/// # Errors
/// See [`neg`].
pub fn relu(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Relu,
        a,
        simple_grad!(|dy, a, y| mul(dy, &step(a, 0.0)?)),
    )
}

/// ReLU clipped at 6.
///
/// # Errors
/// See [`neg`].
pub fn relu6(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Relu6,
        a,
        simple_grad!(|dy, a, y| {
            let e = a.engine();
            let lo = super::greater(a, &e.scalar(0.0)?)?;
            let hi = super::less(a, &e.scalar(6.0)?)?;
            let mask = cast(&super::logical_and(&lo, &hi)?, DType::F32)?;
            mul(dy, &mask)
        }),
    )
}

/// Logistic sigmoid.
///
/// # Errors
/// See [`neg`].
pub fn sigmoid(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Sigmoid,
        a,
        simple_grad!(|dy, a, y| {
            let one = y.engine().scalar(1.0)?;
            mul(dy, &mul(y, &super::sub(&one, y)?)?)
        }),
    )
}

/// Hyperbolic tangent.
///
/// # Errors
/// See [`neg`].
pub fn tanh(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Tanh,
        a,
        simple_grad!(|dy, a, y| {
            let one = y.engine().scalar(1.0)?;
            mul(dy, &super::sub(&one, &mul(y, y)?)?)
        }),
    )
}

/// Exponential linear unit.
///
/// # Errors
/// See [`neg`].
pub fn elu(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Elu,
        a,
        simple_grad!(|dy, a, y| {
            // dy where a >= 0, dy * e^a otherwise (= dy * (y + 1)).
            let e = a.engine();
            let mask = cast(&super::greater_equal(a, &e.scalar(0.0)?)?, DType::F32)?;
            let pos = mul(dy, &mask)?;
            let one = e.scalar(1.0)?;
            let neg_part = mul(dy, &super::add(y, &one)?)?;
            let inv = super::sub(&one, &mask)?;
            super::add(&pos, &mul(&neg_part, &inv)?)
        }),
    )
}

/// Scaled exponential linear unit.
///
/// # Errors
/// See [`neg`].
pub fn selu(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Selu,
        a,
        simple_grad!(|dy, a, y| {
            const ALPHA: f32 = 1.673_263_2;
            const SCALE: f32 = 1.050_701;
            let e = a.engine();
            let mask = cast(&super::greater_equal(a, &e.scalar(0.0)?)?, DType::F32)?;
            let pos = mul(dy, &mul(&mask, &e.scalar(SCALE)?)?)?;
            let exp_a = exp(a)?;
            let neg_scale = e.scalar(SCALE * ALPHA)?;
            let one = e.scalar(1.0)?;
            let inv = super::sub(&one, &mask)?;
            let neg_part = mul(dy, &mul(&mul(&exp_a, &neg_scale)?, &inv)?)?;
            super::add(&pos, &neg_part)
        }),
    )
}

/// `ln(1 + e^x)`.
///
/// # Errors
/// See [`neg`].
pub fn softplus(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Softplus,
        a,
        simple_grad!(|dy, a, y| mul(dy, &sigmoid(a)?)),
    )
}

/// Sine.
///
/// # Errors
/// See [`neg`].
pub fn sin(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Sin, a, simple_grad!(|dy, a, y| mul(dy, &cos(a)?)))
}

/// Cosine.
///
/// # Errors
/// See [`neg`].
pub fn cos(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Cos, a, simple_grad!(|dy, a, y| neg(&mul(dy, &sin(a)?)?)))
}

/// Tangent.
///
/// # Errors
/// See [`neg`].
pub fn tan(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Tan,
        a,
        simple_grad!(|dy, a, y| {
            let c = cos(a)?;
            super::div(dy, &mul(&c, &c)?)
        }),
    )
}

/// Arcsine.
///
/// # Errors
/// See [`neg`].
pub fn asin(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Asin,
        a,
        simple_grad!(|dy, a, y| {
            let one = a.engine().scalar(1.0)?;
            super::div(dy, &sqrt(&super::sub(&one, &mul(a, a)?)?)?)
        }),
    )
}

/// Arccosine.
///
/// # Errors
/// See [`neg`].
pub fn acos(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Acos,
        a,
        simple_grad!(|dy, a, y| {
            let one = a.engine().scalar(1.0)?;
            neg(&super::div(dy, &sqrt(&super::sub(&one, &mul(a, a)?)?)?)?)
        }),
    )
}

/// Arctangent.
///
/// # Errors
/// See [`neg`].
pub fn atan(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Atan,
        a,
        simple_grad!(|dy, a, y| {
            let one = a.engine().scalar(1.0)?;
            super::div(dy, &super::add(&one, &mul(a, a)?)?)
        }),
    )
}

/// Floor.
///
/// # Errors
/// See [`neg`].
pub fn floor(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Floor, a, simple_grad!(|dy, a, y| zeros_like(dy)))
}

/// Ceiling.
///
/// # Errors
/// See [`neg`].
pub fn ceil(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Ceil, a, simple_grad!(|dy, a, y| zeros_like(dy)))
}

/// Round half away from zero.
///
/// # Errors
/// See [`neg`].
pub fn round(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Round, a, simple_grad!(|dy, a, y| zeros_like(dy)))
}

/// Sign (-1, 0, 1).
///
/// # Errors
/// See [`neg`].
pub fn sign(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::Sign, a, simple_grad!(|dy, a, y| zeros_like(dy)))
}

/// `1 / x`.
///
/// # Errors
/// See [`neg`].
pub fn reciprocal(a: &Tensor) -> Result<Tensor> {
    unary_op(
        UnaryOp::Reciprocal,
        a,
        simple_grad!(|dy, a, y| neg(&super::div(dy, &mul(a, a)?)?)),
    )
}

/// Leaky ReLU with negative slope `alpha`.
///
/// # Errors
/// See [`neg`].
pub fn leaky_relu(a: &Tensor, alpha: f32) -> Result<Tensor> {
    unary_op(
        UnaryOp::LeakyRelu(alpha),
        a,
        simple_grad!(|dy, a, y| {
            let e = a.engine();
            let mask = cast(&super::greater_equal(a, &e.scalar(0.0)?)?, DType::F32)?;
            let one = e.scalar(1.0)?;
            let slope = e.scalar(alpha)?;
            let inv = mul(&super::sub(&one, &mask)?, &slope)?;
            mul(dy, &super::add(&mask, &inv)?)
        }),
    )
}

/// Clip into `[min, max]`.
///
/// # Errors
/// See [`neg`].
pub fn clip_by_value(a: &Tensor, min: f32, max: f32) -> Result<Tensor> {
    unary_op(
        UnaryOp::ClipByValue(min, max),
        a,
        simple_grad!(|dy, a, y| {
            let e = a.engine();
            let ge = super::greater_equal(a, &e.scalar(min)?)?;
            let le = super::less_equal(a, &e.scalar(max)?)?;
            let mask = cast(&super::logical_and(&ge, &le)?, DType::F32)?;
            mul(dy, &mask)
        }),
    )
}

/// Heaviside step: 1 where `x > 0`, else `alpha`.
///
/// # Errors
/// See [`neg`].
pub fn step(a: &Tensor, alpha: f32) -> Result<Tensor> {
    unary_op(UnaryOp::Step(alpha), a, simple_grad!(|dy, a, y| zeros_like(dy)))
}

/// 1.0 where NaN (bool output).
///
/// # Errors
/// See [`neg`].
pub fn is_nan(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::IsNan, a, None)
}

/// 1.0 where infinite (bool output).
///
/// # Errors
/// See [`neg`].
pub fn is_inf(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::IsInf, a, None)
}

/// 1.0 where finite (bool output).
///
/// # Errors
/// See [`neg`].
pub fn is_finite(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::IsFinite, a, None)
}

/// Logical negation of a bool tensor.
///
/// # Errors
/// See [`neg`].
pub fn logical_not(a: &Tensor) -> Result<Tensor> {
    unary_op(UnaryOp::LogicalNot, a, None)
}

/// Cast to another dtype. The gradient passes through unchanged for float
/// targets.
///
/// # Errors
/// See [`neg`].
pub fn cast(a: &Tensor, dtype: DType) -> Result<Tensor> {
    let grad: GradFn = Arc::new(|dys, _ins, _outs, _wanted| Ok(vec![Some(dys[0].clone())]));
    a.engine().run_kernel(&KernelCall::Cast(dtype), &[a], Some(grad))
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
