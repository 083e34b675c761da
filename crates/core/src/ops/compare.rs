//! Comparison, logical and selection ops (bool outputs, no gradients except
//! `select`, which routes the gradient by condition).

use super::binary::binary_op;
use super::same_engine;
use crate::backend::{BinaryOp, KernelCall};
use crate::error::Result;
use crate::tensor::Tensor;

/// `a == b` element-wise (bool).
///
/// # Errors
/// Fails on incompatible shapes or disposed inputs (all ops below likewise).
pub fn equal(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Equal, a, b)
}

/// `a != b` element-wise (bool).
///
/// # Errors
/// See [`equal`].
pub fn not_equal(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::NotEqual, a, b)
}

/// `a > b` element-wise (bool).
///
/// # Errors
/// See [`equal`].
pub fn greater(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Greater, a, b)
}

/// `a >= b` element-wise (bool).
///
/// # Errors
/// See [`equal`].
pub fn greater_equal(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::GreaterEqual, a, b)
}

/// `a < b` element-wise (bool).
///
/// # Errors
/// See [`equal`].
pub fn less(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::Less, a, b)
}

/// `a <= b` element-wise (bool).
///
/// # Errors
/// See [`equal`].
pub fn less_equal(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::LessEqual, a, b)
}

/// Logical and (bool).
///
/// # Errors
/// See [`equal`].
pub fn logical_and(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::LogicalAnd, a, b)
}

/// Logical or (bool).
///
/// # Errors
/// See [`equal`].
pub fn logical_or(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::LogicalOr, a, b)
}

/// Logical xor (bool).
///
/// # Errors
/// See [`equal`].
pub fn logical_xor(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(BinaryOp::LogicalXor, a, b)
}

/// Element-wise select: `cond ? a : b` with broadcasting (`tf.where`).
///
/// The gradient routes `dy` to `a` where the condition held and to `b`
/// elsewhere; the condition receives no gradient.
///
/// # Errors
/// See [`equal`].
pub fn select(cond: &Tensor, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    same_engine("Select", cond, a)?;
    same_engine("Select", a, b)?;
    a.engine().run_kernel(&KernelCall::Select, &[cond, a, b])
}

#[cfg(test)]
mod tests {
    use super::super::testutil::test_engine;
    use super::*;
    use crate::dtype::DType;

    #[test]
    fn comparisons_yield_bool() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0, 3.0]).unwrap();
        let b = e.tensor_1d(&[2.0, 2.0, 2.0]).unwrap();
        let g = greater(&a, &b).unwrap();
        assert_eq!(g.dtype(), DType::Bool);
        assert_eq!(g.to_f32_vec().unwrap(), vec![0.0, 0.0, 1.0]);
        assert_eq!(less_equal(&a, &b).unwrap().to_f32_vec().unwrap(), vec![1.0, 1.0, 0.0]);
        assert_eq!(equal(&a, &b).unwrap().to_f32_vec().unwrap(), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn logical_ops() {
        let e = test_engine();
        let t = e.tensor_with_dtype(vec![1u8, 1, 0, 0], [4], DType::Bool).unwrap();
        let u = e.tensor_with_dtype(vec![1u8, 0, 1, 0], [4], DType::Bool).unwrap();
        assert_eq!(logical_and(&t, &u).unwrap().to_f32_vec().unwrap(), vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(logical_or(&t, &u).unwrap().to_f32_vec().unwrap(), vec![1.0, 1.0, 1.0, 0.0]);
        assert_eq!(logical_xor(&t, &u).unwrap().to_f32_vec().unwrap(), vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(logical_not(&t).unwrap().to_f32_vec().unwrap(), vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn select_broadcasts() {
        let e = test_engine();
        let cond = e.tensor_with_dtype(vec![1u8, 0], [2], DType::Bool).unwrap();
        let a = e.tensor_1d(&[10.0, 20.0]).unwrap();
        let b = e.tensor_1d(&[-1.0, -2.0]).unwrap();
        assert_eq!(select(&cond, &a, &b).unwrap().to_f32_vec().unwrap(), vec![10.0, -2.0]);
    }

    use super::super::logical_not;
}
