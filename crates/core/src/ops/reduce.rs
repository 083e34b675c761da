//! Reduction ops (their gradients are the `Reduce` rules of
//! [`crate::grads`]).

use super::reshape;
use crate::backend::{ArgReduceOp, KernelCall, ReduceOp};
use crate::error::Result;
use crate::shape::{normalize_axes, normalize_axis, reduced_shape};
use crate::tensor::Tensor;

/// Run a reduction kernel; `axes = None` reduces all dims.
fn reduce_op(
    name: &'static str,
    op: ReduceOp,
    a: &Tensor,
    axes: Option<&[isize]>,
    keep_dims: bool,
) -> Result<Tensor> {
    let axes = normalize_axes(name, axes, a.rank())?;
    let out = a.engine().run_kernel(&KernelCall::Reduce { op, axes: (&axes).into() }, &[a])?;
    if keep_dims {
        reshape(&out, reduced_shape(a.shape_ref(), &axes, true))
    } else {
        Ok(out)
    }
}

/// Sum over `axes` (`None` = all).
///
/// # Errors
/// Fails on invalid axes, disposed inputs, or backend errors (all
/// reductions below likewise).
pub fn sum(a: &Tensor, axes: Option<&[isize]>, keep_dims: bool) -> Result<Tensor> {
    reduce_op("Sum", ReduceOp::Sum, a, axes, keep_dims)
}

/// Arithmetic mean over `axes` (`None` = all).
///
/// # Errors
/// See [`sum`].
pub fn mean(a: &Tensor, axes: Option<&[isize]>, keep_dims: bool) -> Result<Tensor> {
    reduce_op("Mean", ReduceOp::Mean, a, axes, keep_dims)
}

/// Product over `axes` (`None` = all). Its gradient is not defined:
/// backprop through it fails with [`crate::Error::GradientNotDefined`].
///
/// # Errors
/// See [`sum`].
pub fn prod(a: &Tensor, axes: Option<&[isize]>, keep_dims: bool) -> Result<Tensor> {
    reduce_op("Prod", ReduceOp::Prod, a, axes, keep_dims)
}

/// Maximum over `axes` (`None` = all). The gradient flows to every element
/// equal to the maximum.
///
/// # Errors
/// See [`sum`].
pub fn max(a: &Tensor, axes: Option<&[isize]>, keep_dims: bool) -> Result<Tensor> {
    reduce_op("Max", ReduceOp::Max, a, axes, keep_dims)
}

/// Minimum over `axes` (`None` = all).
///
/// # Errors
/// See [`sum`].
pub fn min(a: &Tensor, axes: Option<&[isize]>, keep_dims: bool) -> Result<Tensor> {
    reduce_op("Min", ReduceOp::Min, a, axes, keep_dims)
}

/// Logical any over `axes` (`None` = all); bool output.
///
/// # Errors
/// See [`sum`].
pub fn any(a: &Tensor, axes: Option<&[isize]>, keep_dims: bool) -> Result<Tensor> {
    reduce_op("Any", ReduceOp::Any, a, axes, keep_dims)
}

/// Logical all over `axes` (`None` = all); bool output.
///
/// # Errors
/// See [`sum`].
pub fn all(a: &Tensor, axes: Option<&[isize]>, keep_dims: bool) -> Result<Tensor> {
    reduce_op("All", ReduceOp::All, a, axes, keep_dims)
}

fn arg_reduce_impl(name: &'static str, op: ArgReduceOp, a: &Tensor, axis: isize) -> Result<Tensor> {
    let axis = normalize_axis(name, axis, a.rank())?;
    a.engine().run_kernel(&KernelCall::ArgReduce { op, axis }, &[a])
}

/// Index of the maximum along `axis` (I32 output).
///
/// # Errors
/// See [`sum`].
pub fn argmax(a: &Tensor, axis: isize) -> Result<Tensor> {
    arg_reduce_impl("ArgMax", ArgReduceOp::ArgMax, a, axis)
}

/// Index of the minimum along `axis` (I32 output).
///
/// # Errors
/// See [`sum`].
pub fn argmin(a: &Tensor, axis: isize) -> Result<Tensor> {
    arg_reduce_impl("ArgMin", ArgReduceOp::ArgMin, a, axis)
}

/// Mean and variance over `axes` (`tf.moments`).
///
/// # Errors
/// See [`sum`].
pub fn moments(a: &Tensor, axes: Option<&[isize]>, keep_dims: bool) -> Result<(Tensor, Tensor)> {
    let m = mean(a, axes, true)?;
    let centered = super::sub(a, &m)?;
    let variance = mean(&super::mul(&centered, &centered)?, axes, keep_dims)?;
    let m_out = if keep_dims {
        m
    } else {
        let norm = normalize_axes("Moments", axes, a.rank())?;
        reshape(&m, reduced_shape(a.shape_ref(), &norm, false))?
    };
    Ok((m_out, variance))
}

/// Numerically stable `log(sum(exp(x)))` over `axes`.
///
/// # Errors
/// See [`sum`].
pub fn logsumexp(a: &Tensor, axes: Option<&[isize]>, keep_dims: bool) -> Result<Tensor> {
    let m = max(a, axes, true)?;
    let shifted = super::sub(a, &m)?;
    let s = sum(&super::exp(&shifted)?, axes, true)?;
    let out = super::add(&super::log(&s)?, &m)?;
    if keep_dims {
        Ok(out)
    } else {
        let norm = normalize_axes("LogSumExp", axes, a.rank())?;
        reshape(&out, reduced_shape(a.shape_ref(), &norm, false))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_close, test_engine};
    use super::*;
    use crate::dtype::DType;
    use crate::shape::Shape;

    #[test]
    fn sum_axes_and_keepdims() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        assert_eq!(sum(&a, Some(&[0]), false).unwrap().to_f32_vec().unwrap(), vec![5.0, 7.0, 9.0]);
        let kd = sum(&a, Some(&[1]), true).unwrap();
        assert_eq!(kd.shape(), Shape::new(vec![2, 1]));
        assert_eq!(kd.to_f32_vec().unwrap(), vec![6.0, 15.0]);
        assert_eq!(sum(&a, None, false).unwrap().to_scalar().unwrap(), 21.0);
    }

    #[test]
    fn mean_negative_axis() {
        let e = test_engine();
        let a = e.tensor_2d(&[2.0, 4.0, 6.0, 8.0], 2, 2).unwrap();
        assert_eq!(mean(&a, Some(&[-1]), false).unwrap().to_f32_vec().unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn max_min_prod() {
        let e = test_engine();
        let a = e.tensor_1d(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(max(&a, None, false).unwrap().to_scalar().unwrap(), 3.0);
        assert_eq!(min(&a, None, false).unwrap().to_scalar().unwrap(), 1.0);
        assert_eq!(prod(&a, None, false).unwrap().to_scalar().unwrap(), 6.0);
    }

    #[test]
    fn argmax_axis1() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 9.0, 3.0, 7.0, 2.0, 8.0], 2, 3).unwrap();
        let ix = argmax(&a, 1).unwrap();
        assert_eq!(ix.dtype(), DType::I32);
        assert_eq!(ix.to_i32_vec().unwrap(), vec![1, 2]);
        assert_eq!(argmin(&a, 1).unwrap().to_i32_vec().unwrap(), vec![0, 1]);
    }

    #[test]
    fn any_all_bool() {
        let e = test_engine();
        let a = e.tensor_with_dtype(vec![1u8, 0, 0, 0], [2, 2], DType::Bool).unwrap();
        assert_eq!(any(&a, Some(&[1]), false).unwrap().to_f32_vec().unwrap(), vec![1.0, 0.0]);
        assert_eq!(all(&a, Some(&[1]), false).unwrap().to_f32_vec().unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn moments_match_manual() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let (m, v) = moments(&a, None, false).unwrap();
        assert_close(&[m.to_scalar().unwrap()], &[2.5], 1e-6);
        assert_close(&[v.to_scalar().unwrap()], &[1.25], 1e-6);
    }

    #[test]
    fn logsumexp_is_stable() {
        let e = test_engine();
        let a = e.tensor_1d(&[1000.0, 1000.0]).unwrap();
        let out = logsumexp(&a, None, false).unwrap().to_scalar().unwrap();
        assert!((out - (1000.0 + (2.0f32).ln())).abs() < 1e-3);
    }
}
