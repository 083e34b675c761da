//! Matrix multiplication (the Listing 2 kernel of the paper) and friends.

use super::{reshape, same_engine, tile};
use crate::backend::{Epilogue, KernelCall};
use crate::error::{Error, Result};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// `a x b` with optional transposes. Accepts rank-2 matrices or rank-3
/// batched matrices; a batch of 1 broadcasts against the other operand.
/// A quantized weight `b` multiplies by its dequantized values, through the
/// dequant-free kernel (see [`super::run`]).
///
/// # Errors
/// Fails on rank < 2, inner-dimension mismatch, or batch mismatch.
pub fn matmul(a: &Tensor, b: &Tensor, transpose_a: bool, transpose_b: bool) -> Result<Tensor> {
    same_engine("MatMul", a, b)?;
    check_ranks("MatMul", a, b)?;
    let (a, b) = batched("MatMul", a, b)?;
    let call = KernelCall::MatMul { transpose_a, transpose_b, epilogue: Epilogue::None };
    super::run(&call, &[&a, &b])
}

/// Reject product operands that are not rank-2 or rank-3 matrices.
pub(super) fn check_ranks(op: &'static str, a: &Tensor, b: &Tensor) -> Result<()> {
    if a.rank() < 2 || b.rank() < 2 || a.rank() > 3 || b.rank() > 3 {
        return Err(Error::shape(
            op,
            format!("expected rank 2 or 3 tensors, got {} and {}", a.shape(), b.shape()),
        ));
    }
    Ok(())
}

/// The operands of `a x b` (ranks already [`check_ranks`]ed) as one product
/// call's, the normalisation the plain and the fused op share: two matrices
/// stay as they are; otherwise a rank-2 operand gains a batch of 1 and a
/// batch of 1 is tiled to the other operand's — except a quantized weight's,
/// which the kernels broadcast themselves and tiling would copy.
///
/// # Errors
/// Fails on incompatible batch dims.
pub(super) fn batched(op: &'static str, a: &Tensor, b: &Tensor) -> Result<(Tensor, Tensor)> {
    if a.rank() == 2 && b.rank() == 2 {
        return Ok((a.clone(), b.clone()));
    }
    let rank3 = |t: &Tensor| match t.rank() {
        2 => reshape(t, [&[1], t.shape_ref().dims()].concat()),
        _ => Ok(t.clone()),
    };
    let (a3, b3) = (rank3(a)?, rank3(b)?);
    let (a3, b3) = match (a3.shape_ref().dim(0), b3.shape_ref().dim(0)) {
        (x, y) if x == y => (a3, b3),
        (1, y) => (tile(&a3, &[y, 1, 1])?, b3),
        (_, 1) if b.is_quantized() => (a3, b3),
        (x, 1) => (a3, tile(&b3, &[x, 1, 1])?),
        (x, y) => return Err(Error::shape(op, format!("batch dims {x} vs {y} incompatible"))),
    };
    Ok((a3, b3))
}

/// Vector/matrix product convenience (`tf.dot`): rank-1 inputs are treated
/// as `1 x n` / `n x 1` and the unit dims are squeezed from the result.
///
/// # Errors
/// Fails when inner dimensions mismatch.
pub fn dot(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let a2 = if a.rank() == 1 { reshape(a, vec![1, a.size()])? } else { a.clone() };
    let b2 = if b.rank() == 1 { reshape(b, vec![b.size(), 1])? } else { b.clone() };
    let out = matmul(&a2, &b2, false, false)?;
    match (a.rank(), b.rank()) {
        (1, 1) => reshape(&out, Shape::scalar()),
        (1, _) => reshape(&out, vec![out.shape_ref().dim(1)]),
        (_, 1) => reshape(&out, vec![out.shape_ref().dim(0)]),
        _ => Ok(out),
    }
}

/// Outer product of two rank-1 tensors.
///
/// # Errors
/// Fails when either input is not rank 1.
pub fn outer(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 1 || b.rank() != 1 {
        return Err(Error::shape("Outer", "expected rank-1 tensors"));
    }
    let a2 = reshape(a, vec![a.size(), 1])?;
    let b2 = reshape(b, vec![1, b.size()])?;
    matmul(&a2, &b2, false, false)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_close, test_engine};
    use super::*;

    #[test]
    fn matmul_2x2() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let b = e.tensor_2d(&[5.0, 6.0, 7.0, 8.0], 2, 2).unwrap();
        let c = matmul(&a, &b, false, false).unwrap();
        assert_eq!(c.shape(), Shape::new(vec![2, 2]));
        assert_eq!(c.to_f32_vec().unwrap(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transposes() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let at_a = matmul(&a, &a, true, false).unwrap();
        assert_eq!(at_a.to_f32_vec().unwrap(), vec![10.0, 14.0, 14.0, 20.0]);
        let a_at = matmul(&a, &a, false, true).unwrap();
        assert_eq!(a_at.to_f32_vec().unwrap(), vec![5.0, 11.0, 11.0, 25.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        let b = e.tensor_2d(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2).unwrap();
        let c = matmul(&a, &b, false, false).unwrap();
        assert_eq!(c.to_f32_vec().unwrap(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_batched() {
        let e = test_engine();
        let a = e.tensor_3d(&[1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], 2, 2, 2).unwrap();
        let b = e.tensor_3d(&[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], 2, 2, 2).unwrap();
        let c = matmul(&a, &b, false, false).unwrap();
        assert_eq!(c.shape(), Shape::new(vec![2, 2, 2]));
        assert_eq!(c.to_f32_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn matmul_batch_broadcast() {
        let e = test_engine();
        let a = e.tensor_3d(&[1.0, 2.0, 3.0, 4.0], 2, 1, 2).unwrap();
        let b = e.tensor_3d(&[1.0, 0.0, 0.0, 1.0], 1, 2, 2).unwrap();
        let c = matmul(&a, &b, false, false).unwrap();
        assert_eq!(c.to_f32_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matmul_inner_mismatch_errors() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0; 6], 2, 3).unwrap();
        let b = e.tensor_2d(&[1.0; 4], 2, 2).unwrap();
        assert!(matmul(&a, &b, false, false).is_err());
    }

    #[test]
    fn dot_vectors() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0, 3.0]).unwrap();
        let b = e.tensor_1d(&[4.0, 5.0, 6.0]).unwrap();
        let d = dot(&a, &b).unwrap();
        assert_eq!(d.rank(), 0);
        assert_close(&[d.to_scalar().unwrap()], &[32.0], 1e-6);
    }

    #[test]
    fn outer_product() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0]).unwrap();
        let b = e.tensor_1d(&[3.0, 4.0, 5.0]).unwrap();
        let o = outer(&a, &b).unwrap();
        assert_eq!(o.shape(), Shape::new(vec![2, 3]));
        assert_eq!(o.to_f32_vec().unwrap(), vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }
}
