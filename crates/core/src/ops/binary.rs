//! Element-wise binary ops with NumPy-style broadcasting (their gradients
//! are the `Binary` rules of [`crate::grads`]).

use super::{promote_pair, same_engine};
use crate::backend::{BinaryOp, KernelCall};
use crate::error::Result;
use crate::tensor::Tensor;

/// Run a binary kernel with broadcasting over the promoted operands.
pub(crate) fn binary_op(op: BinaryOp, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    same_engine(op.name(), a, b)?;
    let (a2, b2, _) = promote_pair(a, b)?;
    a.engine().run_kernel(&KernelCall::Binary(op), &[&a2, &b2])
}

/// `a + b` with broadcasting.
///
/// # Errors
/// Fails on incompatible shapes, disposed inputs, or backend errors
/// (applies to all binary ops in this module).
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Add, a, b)
}

/// `a - b` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Sub, a, b)
}

/// `a * b` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Mul, a, b)
}

/// `a / b` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Div, a, b)
}

/// `floor(a / b)` with broadcasting. Its gradient is not defined: backprop
/// through it fails with [`crate::Error::GradientNotDefined`].
///
/// # Errors
/// See [`add`].
pub fn floor_div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::FloorDiv, a, b)
}

/// `a ^ b` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn pow(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Pow, a, b)
}

/// Element-wise maximum with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn maximum(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Maximum, a, b)
}

/// Element-wise minimum with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn minimum(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Minimum, a, b)
}

/// `a mod b` (sign follows divisor) with broadcasting. Its gradient is not
/// defined: backprop through it fails with
/// [`crate::Error::GradientNotDefined`].
///
/// # Errors
/// See [`add`].
pub fn modulo(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Mod, a, b)
}

/// `(a - b)^2` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn squared_difference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::SquaredDifference, a, b)
}

/// Four-quadrant arctangent `atan2(a, b)` with broadcasting.
///
/// # Errors
/// See [`add`].
pub fn atan2(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Atan2, a, b)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_close, test_engine};
    use super::*;
    use crate::dtype::DType;

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
