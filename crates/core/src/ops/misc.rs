//! Additional ops rounding out API parity with TensorFlow.js: `erf`,
//! `gelu`, `prelu`, `cumsum`, `topk`, `l2_loss`, `lerp`.

use super::{add, matmul, maximum, minimum, mul, reshape, sub, transpose};
use crate::backend::UnaryOp;
use crate::dtype::{DType, TensorData};
use crate::error::{Error, Result};
use crate::shape::{normalize_axis, Shape};
use crate::tensor::Tensor;

/// Gauss error function, element-wise.
///
/// # Errors
/// Fails on disposed inputs or backend errors.
pub fn erf(a: &Tensor) -> Result<Tensor> {
    super::unary::unary_op(UnaryOp::Erf, a)
}

/// Gaussian error linear unit: `0.5 x (1 + erf(x / sqrt(2)))`.
///
/// # Errors
/// See [`erf`].
pub fn gelu(a: &Tensor) -> Result<Tensor> {
    let e = a.engine();
    let half = e.scalar(0.5)?;
    let inv_sqrt2 = e.scalar(std::f32::consts::FRAC_1_SQRT_2)?;
    let one = e.scalar(1.0)?;
    let inner = erf(&mul(a, &inv_sqrt2)?)?;
    mul(&mul(a, &half)?, &add(&one, &inner)?)
}

/// Parametric ReLU: `max(0, x) + alpha * min(0, x)`, with a learnable
/// (broadcastable) `alpha`. Differentiable in both arguments.
///
/// # Errors
/// Fails on incompatible shapes.
pub fn prelu(x: &Tensor, alpha: &Tensor) -> Result<Tensor> {
    let e = x.engine();
    let zero = e.scalar(0.0)?;
    let pos = maximum(x, &zero)?;
    let neg_part = minimum(x, &zero)?;
    add(&pos, &mul(alpha, &neg_part)?)
}

/// Cumulative sum along `axis`.
///
/// Implemented as a matmul with a lower-triangular ones matrix, so it runs
/// on every backend and is differentiable for free. O(n²) in the axis
/// length — fine for the sequence lengths web models use.
///
/// # Errors
/// Fails on an out-of-range axis.
pub fn cumsum(a: &Tensor, axis: isize) -> Result<Tensor> {
    let axis = normalize_axis("Cumsum", axis, a.rank())?;
    let e = a.engine();
    let n = a.shape_ref().dim(axis);
    // Lower-triangular ones: out[i] = sum_{j<=i} in[j]  <=>  L x in with
    // L[i][j] = 1 for j <= i.
    let mut tri = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..=i {
            tri[i * n + j] = 1.0;
        }
    }
    let l = e.tensor(tri, [n, n])?;
    // Move `axis` to the front, flatten the rest, multiply, move back.
    let rank = a.rank();
    let mut perm: Vec<usize> = (0..rank).collect();
    perm.remove(axis);
    perm.insert(0, axis);
    let moved = transpose(a, Some(&perm))?;
    let rest: usize = moved.shape_ref().dims()[1..].iter().product::<usize>().max(1);
    let flat = reshape(&moved, vec![n, rest])?;
    let summed = matmul(&l, &flat, false, false)?;
    let unflat = reshape(&summed, moved.shape())?;
    let mut inv = vec![0usize; rank];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    transpose(&unflat, Some(&inv))
}

/// The `k` largest values (and their indices) along the last axis, sorted
/// descending — `tf.topk`. Computed host-side, like the tfjs CPU fallback;
/// not differentiable.
///
/// # Errors
/// Fails when `k` exceeds the last-axis size or the tensor is rank 0.
pub fn topk(a: &Tensor, k: usize) -> Result<(Tensor, Tensor)> {
    if a.rank() == 0 {
        return Err(Error::shape("TopK", "expected rank >= 1"));
    }
    let n = a.shape_ref().dim(a.rank() - 1);
    if k == 0 || k > n {
        return Err(Error::invalid("TopK", format!("k = {k} out of range for axis size {n}")));
    }
    let values = a.to_f32_vec()?;
    let outer = a.size() / n;
    let mut top_vals = Vec::with_capacity(outer * k);
    let mut top_idx = Vec::with_capacity(outer * k);
    for o in 0..outer {
        let row = &values[o * n..(o + 1) * n];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| row[j].total_cmp(&row[i]).then(i.cmp(&j)));
        for &i in order.iter().take(k) {
            top_vals.push(row[i]);
            top_idx.push(i as i32);
        }
    }
    let mut out_dims = a.shape().0;
    *out_dims.last_mut().expect("rank >= 1") = k;
    let e = a.engine();
    let vals = e.tensor(top_vals, Shape::new(out_dims.clone()))?;
    let idx = e.make_tensor(TensorData::I32(top_idx), Shape::new(out_dims), DType::I32)?;
    Ok((vals, idx))
}

/// Squared L2 norm over the whole tensor (`sum(x^2)`), a common training
/// regularizer. Differentiable.
///
/// # Errors
/// Fails on disposed inputs.
pub fn l2_loss(a: &Tensor) -> Result<Tensor> {
    let e = a.engine();
    let half = e.scalar(0.5)?;
    mul(&half, &super::sum(&mul(a, a)?, None, false)?)
}

/// Linear interpolation `a + t * (b - a)` with broadcasting.
///
/// # Errors
/// Fails on incompatible shapes.
pub fn lerp(a: &Tensor, b: &Tensor, t: &Tensor) -> Result<Tensor> {
    add(a, &mul(t, &sub(b, a)?)?)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_close, test_engine};
    use super::*;

    #[test]
    fn erf_known_values() {
        let e = test_engine();
        let x = e.tensor_1d(&[0.0, 1.0, -1.0, 2.0]).unwrap();
        let y = erf(&x).unwrap().to_f32_vec().unwrap();
        assert_close(&y, &[0.0, 0.8427, -0.8427, 0.9953], 1e-3);
    }

    #[test]
    fn erf_gradient_is_gaussian() {
        let e = test_engine();
        let x = e.tensor_1d(&[0.0]).unwrap();
        let g = e.grad(&x, || super::super::sum(&erf(&x)?, None, false)).unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[2.0 / std::f32::consts::PI.sqrt()], 1e-4);
    }

    #[test]
    fn gelu_values() {
        let e = test_engine();
        let x = e.tensor_1d(&[0.0, 1.0, -1.0]).unwrap();
        let y = gelu(&x).unwrap().to_f32_vec().unwrap();
        assert_close(&y, &[0.0, 0.8413, -0.1587], 1e-3);
    }

    #[test]
    fn prelu_values_and_gradient() {
        let e = test_engine();
        let x = e.tensor_1d(&[-2.0, 3.0]).unwrap();
        let alpha = e.scalar(0.1).unwrap();
        let y = prelu(&x, &alpha).unwrap().to_f32_vec().unwrap();
        assert_close(&y, &[-0.2, 3.0], 1e-6);
        // d/d_alpha sum(prelu) = sum(min(0, x)) = -2.
        let g = e
            .grads(&[&alpha], || super::super::sum(&prelu(&x, &alpha)?, None, false))
            .unwrap();
        assert_close(&g[0].to_f32_vec().unwrap(), &[-2.0], 1e-5);
    }

    #[test]
    fn cumsum_1d_and_axis() {
        let e = test_engine();
        let x = e.tensor_1d(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(cumsum(&x, 0).unwrap().to_f32_vec().unwrap(), vec![1.0, 3.0, 6.0, 10.0]);
        let m = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        assert_eq!(cumsum(&m, 0).unwrap().to_f32_vec().unwrap(), vec![1.0, 2.0, 4.0, 6.0]);
        assert_eq!(cumsum(&m, 1).unwrap().to_f32_vec().unwrap(), vec![1.0, 3.0, 3.0, 7.0]);
        assert_eq!(cumsum(&m, -1).unwrap().to_f32_vec().unwrap(), vec![1.0, 3.0, 3.0, 7.0]);
    }

    #[test]
    fn cumsum_is_differentiable() {
        // d/dx_j sum(cumsum(x)) = n - j.
        let e = test_engine();
        let x = e.tensor_1d(&[1.0, 1.0, 1.0]).unwrap();
        let g = e.grad(&x, || super::super::sum(&cumsum(&x, 0)?, None, false)).unwrap();
        assert_close(&g.to_f32_vec().unwrap(), &[3.0, 2.0, 1.0], 1e-5);
    }

    #[test]
    fn topk_sorted_descending_with_ties_by_index() {
        let e = test_engine();
        let x = e.tensor_2d(&[1.0, 5.0, 3.0, 5.0, 2.0, 2.0], 2, 3).unwrap();
        let (vals, idx) = topk(&x, 2).unwrap();
        assert_eq!(vals.to_f32_vec().unwrap(), vec![5.0, 3.0, 5.0, 2.0]);
        assert_eq!(idx.to_i32_vec().unwrap(), vec![1, 2, 0, 1]);
        assert!(topk(&x, 4).is_err());
        assert!(topk(&x, 0).is_err());
    }

    #[test]
    fn l2_loss_value() {
        let e = test_engine();
        let x = e.tensor_1d(&[3.0, 4.0]).unwrap();
        assert_close(&[l2_loss(&x).unwrap().to_scalar().unwrap()], &[12.5], 1e-6);
    }

    #[test]
    fn lerp_interpolates() {
        let e = test_engine();
        let a = e.tensor_1d(&[0.0, 10.0]).unwrap();
        let b = e.tensor_1d(&[1.0, 20.0]).unwrap();
        let t = e.scalar(0.25).unwrap();
        assert_close(&lerp(&a, &b, &t).unwrap().to_f32_vec().unwrap(), &[0.25, 12.5], 1e-6);
    }
}
