//! Element-wise binary ops with NumPy-style broadcasting and gradients.

use super::{promote_pair, same_engine, sum_to_shape};
use crate::backend::{BinaryOp, KernelCall};
use crate::dtype::DType;
use crate::error::Result;
use crate::tape::GradFn;
use crate::tensor::Tensor;
use std::sync::Arc;

/// Run a binary kernel with broadcasting and an optional gradient.
pub(crate) fn binary_op(
    op: BinaryOp,
    a: &Tensor,
    b: &Tensor,
    grad: Option<GradFn>,
) -> Result<Tensor> {
    same_engine(op.name(), a, b)?;
    let (a2, b2, _) = promote_pair(a, b)?;
    a.engine().run_kernel(&KernelCall::Binary(op), &[&a2, &b2], grad)
}

macro_rules! binary_grad {
    (|$dy:ident, $a:ident, $b:ident| ($ga:expr, $gb:expr)) => {
        Some(Arc::new(
            move |dys: &[Tensor],
                  ins: &[Tensor],
                  _outs: &[Tensor],
                  wanted: &[bool]|
                  -> Result<Vec<Option<Tensor>>> {
                let $dy = &dys[0];
                let $a = &ins[0];
                let $b = &ins[1];
                let _ = ($a, $b);
                // Each side, and the `Sum` that undoes its broadcast, runs
                // only when someone reads it.
                let ga = if wanted[0] {
                    let ga: Tensor = $ga?;
                    Some(sum_to_shape(&ga, $a.shape_ref())?)
                } else {
                    None
                };
                let gb = if wanted[1] {
                    let gb: Tensor = $gb?;
                    Some(sum_to_shape(&gb, $b.shape_ref())?)
                } else {
                    None
                };
                Ok(vec![ga, gb])
            },
        ) as GradFn)
    };
}

/// `a + b` with broadcasting.
///
/// # Errors
/// Fails on incompatible shapes, disposed inputs, or backend errors
/// (applies to all binary ops in this module).
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Add, a, b, binary_grad!(|dy, a, b| (Ok(dy.clone()), Ok(dy.clone()))))
}

/// `a - b` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Sub, a, b, binary_grad!(|dy, a, b| (Ok(dy.clone()), super::neg(dy))))
}

/// `a * b` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Mul, a, b, binary_grad!(|dy, a, b| (mul(dy, b), mul(dy, a))))
}

/// `a / b` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(
        BinaryOp::Div,
        a,
        b,
        binary_grad!(|dy, a, b| (
            div(dy, b),
            super::neg(&div(&mul(dy, a)?, &mul(b, b)?)?)
        )),
    )
}

/// `floor(a / b)` with broadcasting. Not differentiable.
///
/// # Errors
/// See [`add`].
pub fn floor_div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::FloorDiv, a, b, None)
}

/// `a ^ b` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn pow(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(
        BinaryOp::Pow,
        a,
        b,
        binary_grad!(|dy, a, b| (
            // da = dy * b * a^(b-1)
            {
                let e = a.engine();
                let one = e.scalar(1.0)?;
                let bm1 = sub(b, &one)?;
                mul(dy, &mul(b, &pow(a, &bm1)?)?)
            },
            // db = dy * a^b * ln(a); define ln(a) = 0 where a <= 0 like tfjs.
            {
                let e = a.engine();
                let zero = e.scalar(0.0)?;
                let safe_log = super::select(
                    &super::greater(a, &zero)?,
                    &super::log(&super::maximum(a, &e.scalar(f32::MIN_POSITIVE)?)?)?,
                    &super::zeros_like(a)?,
                )?;
                mul(dy, &mul(&pow(a, b)?, &safe_log)?)
            }
        )),
    )
}

/// Element-wise maximum with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn maximum(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(
        BinaryOp::Maximum,
        a,
        b,
        binary_grad!(|dy, a, b| (
            {
                let mask = super::cast(&super::greater_equal(a, b)?, DType::F32)?;
                mul(dy, &mask)
            },
            {
                let mask = super::cast(&super::less(a, b)?, DType::F32)?;
                mul(dy, &mask)
            }
        )),
    )
}

/// Element-wise minimum with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn minimum(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(
        BinaryOp::Minimum,
        a,
        b,
        binary_grad!(|dy, a, b| (
            {
                let mask = super::cast(&super::less_equal(a, b)?, DType::F32)?;
                mul(dy, &mask)
            },
            {
                let mask = super::cast(&super::greater(a, b)?, DType::F32)?;
                mul(dy, &mask)
            }
        )),
    )
}

/// `a mod b` (sign follows divisor) with broadcasting. Not differentiable.
///
/// # Errors
/// See [`add`].
pub fn modulo(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Mod, a, b, None)
}

/// `(a - b)^2` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn squared_difference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(
        BinaryOp::SquaredDifference,
        a,
        b,
        binary_grad!(|dy, a, b| (
            {
                let two = a.engine().scalar(2.0)?;
                mul(dy, &mul(&two, &sub(a, b)?)?)
            },
            {
                let two = a.engine().scalar(-2.0)?;
                mul(dy, &mul(&two, &sub(a, b)?)?)
            }
        )),
    )
}

/// Four-quadrant arctangent `atan2(a, b)` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn atan2(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Atan2,
        a,
        b,
        binary_grad!(|dy, a, b| (
            {
                // da = dy * b / (a² + b²)
                let denom = add(&mul(a, a)?, &mul(b, b)?)?;
                div(&mul(dy, b)?, &denom)
            },
            {
                let denom = add(&mul(a, a)?, &mul(b, b)?)?;
                super::neg(&div(&mul(dy, a)?, &denom)?)
            }
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_close, test_engine};
    use super::*;

    #[test]
    fn add_broadcast_row_vector() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        let b = e.tensor_1d(&[10.0, 20.0, 30.0]).unwrap();
        let out = add(&a, &b).unwrap();
        assert_eq!(out.to_f32_vec().unwrap(), vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn shape_mismatch_errors() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0; 6], 2, 3).unwrap();
        let b = e.tensor_2d(&[1.0; 8], 2, 4).unwrap();
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn dtype_promotion_int_plus_float() {
        let e = test_engine();
        let a = e.tensor(vec![1i32, 2], [2]).unwrap();
        let b = e.tensor_1d(&[0.5, 0.5]).unwrap();
        let out = add(&a, &b).unwrap();
        assert_eq!(out.dtype(), DType::F32);
        assert_eq!(out.to_f32_vec().unwrap(), vec![1.5, 2.5]);
    }

    #[test]
    fn div_and_pow() {
        let e = test_engine();
        let a = e.tensor_1d(&[8.0, 27.0]).unwrap();
        let b = e.tensor_1d(&[2.0, 3.0]).unwrap();
        assert_close(&div(&a, &b).unwrap().to_f32_vec().unwrap(), &[4.0, 9.0], 1e-6);
        let third = e.tensor_1d(&[1.0 / 3.0, 1.0 / 3.0]).unwrap();
        assert_close(&pow(&a, &third).unwrap().to_f32_vec().unwrap(), &[2.0, 3.0], 1e-5);
    }

    #[test]
    fn maximum_minimum() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 5.0]).unwrap();
        let b = e.tensor_1d(&[3.0, 2.0]).unwrap();
        assert_eq!(maximum(&a, &b).unwrap().to_f32_vec().unwrap(), vec![3.0, 5.0]);
        assert_eq!(minimum(&a, &b).unwrap().to_f32_vec().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn squared_difference_values() {
        let e = test_engine();
        let a = e.tensor_1d(&[5.0]).unwrap();
        let b = e.tensor_1d(&[2.0]).unwrap();
        assert_eq!(squared_difference(&a, &b).unwrap().to_f32_vec().unwrap(), vec![9.0]);
    }

    #[test]
    fn modulo_python_semantics() {
        let e = test_engine();
        let a = e.tensor_1d(&[-7.0]).unwrap();
        let b = e.tensor_1d(&[3.0]).unwrap();
        assert_eq!(modulo(&a, &b).unwrap().to_f32_vec().unwrap(), vec![2.0]);
    }
}
