//! Shape-manipulation ops.
//!
//! `reshape`, `squeeze`, `expand_dims`, `flatten`, `identity` and a `slice`
//! of the whole input are *free*: they create a new tensor handle pointing
//! at the same data container (paper Sec 3.4). The rest move data through
//! backend kernels. Gradients are the rules of [`crate::grads`].

use crate::backend::KernelCall;
use crate::dtype::DType;
use crate::error::{Error, Result};
use crate::shape::{normalize_axis, Shape};
use crate::tensor::Tensor;

/// View `a` under a new shape without copying.
///
/// # Errors
/// Fails when the element counts differ or `a` is disposed.
pub fn reshape(a: &Tensor, shape: impl Into<Shape>) -> Result<Tensor> {
    a.engine().run_alias("Reshape", a, shape.into())
}

/// A new tensor sharing `a`'s data and shape (`tensor.clone()` in tfjs).
///
/// # Errors
/// Fails when `a` is disposed.
pub fn identity(a: &Tensor) -> Result<Tensor> {
    a.engine().run_alias("Identity", a, a.shape())
}

/// Collapse to rank 1.
///
/// # Errors
/// Fails when `a` is disposed.
pub fn flatten(a: &Tensor) -> Result<Tensor> {
    reshape(a, vec![a.size()])
}

/// Insert a size-1 dimension at `axis`.
///
/// # Errors
/// Fails on an out-of-range axis.
pub fn expand_dims(a: &Tensor, axis: isize) -> Result<Tensor> {
    let rank = a.rank();
    let axis = if axis < 0 { (axis + rank as isize + 1) as usize } else { axis as usize };
    if axis > rank {
        return Err(Error::invalid("ExpandDims", format!("axis {axis} out of range for rank {rank}")));
    }
    let mut dims = a.shape().0;
    dims.insert(axis, 1);
    reshape(a, dims)
}

/// Remove size-1 dimensions (all of them, or the listed axes).
///
/// # Errors
/// Fails when a listed axis is not size 1.
pub fn squeeze(a: &Tensor, axes: Option<&[isize]>) -> Result<Tensor> {
    let dims = a.shape().0;
    let new_dims: Vec<usize> = match axes {
        None => dims.iter().copied().filter(|&d| d != 1).collect(),
        Some(list) => {
            let mut drop = Vec::new();
            for &ax in list {
                let ax = normalize_axis("Squeeze", ax, a.rank())?;
                if dims[ax] != 1 {
                    return Err(Error::invalid("Squeeze", format!("axis {ax} has size {}", dims[ax])));
                }
                drop.push(ax);
            }
            dims.iter().enumerate().filter(|(i, _)| !drop.contains(i)).map(|(_, &d)| d).collect()
        }
    };
    reshape(a, new_dims)
}

/// Permute dimensions; `perm = None` reverses them.
///
/// # Errors
/// Fails when `perm` is not a permutation of `0..rank`.
pub fn transpose(a: &Tensor, perm: Option<&[usize]>) -> Result<Tensor> {
    let perm: Vec<usize> = match perm {
        Some(p) => p.to_vec(),
        None => (0..a.rank()).rev().collect(),
    };
    a.engine().run_kernel(&KernelCall::Transpose { perm: perm.into() }, &[a])
}

/// Constant-pad each dimension by `(before, after)`.
///
/// # Errors
/// Fails when `paddings.len() != rank`.
pub fn pad(a: &Tensor, paddings: &[(usize, usize)], value: f32) -> Result<Tensor> {
    a.engine().run_kernel(&KernelCall::Pad { paddings: paddings.into(), value }, &[a])
}

/// Extract `a[begin .. begin+size]` per axis. The window of the whole input
/// is a view of it, like [`reshape`]: no kernel runs and nothing is copied.
///
/// # Errors
/// Fails when the window exceeds the tensor bounds.
pub fn slice(a: &Tensor, begin: &[usize], size: &[usize]) -> Result<Tensor> {
    if begin.len() == a.rank() && begin.iter().all(|&b| b == 0) && size == a.dims() {
        return a.engine().run_alias("Slice", a, a.shape());
    }
    let call = KernelCall::Slice { begin: begin.into(), size: size.into() };
    a.engine().run_kernel(&call, &[a])
}

/// Concatenate tensors along `axis`.
///
/// # Errors
/// Fails when ranks or non-axis dims differ, or the list is empty.
pub fn concat(xs: &[&Tensor], axis: isize) -> Result<Tensor> {
    if xs.is_empty() {
        return Err(Error::invalid("Concat", "need at least one tensor"));
    }
    if xs.len() == 1 {
        return identity(xs[0]);
    }
    let axis = normalize_axis("Concat", axis, xs[0].rank())?;
    xs[0].engine().run_kernel(&KernelCall::Concat { axis }, xs)
}

/// Stack tensors of identical shape along a new `axis`.
///
/// # Errors
/// Fails when shapes differ.
pub fn stack(xs: &[&Tensor], axis: isize) -> Result<Tensor> {
    if xs.is_empty() {
        return Err(Error::invalid("Stack", "need at least one tensor"));
    }
    let rank = xs[0].rank();
    let axis_u = if axis < 0 { (axis + rank as isize + 1) as usize } else { axis as usize };
    let expanded: Vec<Tensor> =
        xs.iter().map(|t| expand_dims(t, axis_u as isize)).collect::<Result<_>>()?;
    let refs: Vec<&Tensor> = expanded.iter().collect();
    concat(&refs, axis_u as isize)
}

/// Split a tensor into equal parts along `axis` (the inverse of [`stack`]
/// keeps the axis; see [`unstack`] to drop it).
///
/// # Errors
/// Fails when the axis size is not divisible by `parts`.
pub fn split(a: &Tensor, parts: usize, axis: isize) -> Result<Vec<Tensor>> {
    let axis = normalize_axis("Split", axis, a.rank())?;
    let n = a.shape_ref().dim(axis);
    if parts == 0 || !n.is_multiple_of(parts) {
        return Err(Error::invalid("Split", format!("cannot split {n} into {parts} parts")));
    }
    let step = n / parts;
    let mut out = Vec::with_capacity(parts);
    for p in 0..parts {
        let mut begin = vec![0; a.rank()];
        begin[axis] = p * step;
        let mut size = a.shape().0;
        size[axis] = step;
        out.push(slice(a, &begin, &size)?);
    }
    Ok(out)
}

/// Unstack along `axis` into tensors with that axis removed.
///
/// # Errors
/// Fails on an out-of-range axis.
pub fn unstack(a: &Tensor, axis: isize) -> Result<Vec<Tensor>> {
    let axis_u = normalize_axis("Unstack", axis, a.rank())?;
    let n = a.shape_ref().dim(axis_u);
    let slices = split(a, n, axis_u as isize)?;
    slices.into_iter().map(|s| squeeze(&s, Some(&[axis_u as isize]))).collect()
}

/// Gather slices along `axis` by I32 `indices` of any rank: the output is
/// `x`'s dims before `axis`, then the index dims, then `x`'s dims after
/// `axis`. Each index is taken modulo the axis length (`-1` is the last
/// slice).
///
/// Its gradient w.r.t. `x` is not defined (indices are data-dependent):
/// backprop through a `gather` whose `x` depends on a requested input fails
/// with [`Error::GradientNotDefined`]. One over data (a training batch) is
/// off the gradient path and trains.
///
/// # Errors
/// Fails when `indices` is not an integer tensor.
pub fn gather(x: &Tensor, indices: &Tensor, axis: isize) -> Result<Tensor> {
    if indices.dtype() != DType::I32 {
        return Err(Error::dtype("Gather", "indices must be int32"));
    }
    let axis = normalize_axis("Gather", axis, x.rank())?;
    x.engine().run_kernel(&KernelCall::Gather { axis }, &[x, indices])
}

/// Repeat each dimension `reps[i]` times. The gradient sums `dy` over the
/// repeats.
///
/// # Errors
/// Fails when `reps.len() != rank`.
pub fn tile(a: &Tensor, reps: &[usize]) -> Result<Tensor> {
    a.engine().run_kernel(&KernelCall::Tile { reps: reps.into() }, &[a])
}

/// Reverse along the given axes.
///
/// # Errors
/// Fails on out-of-range axes.
pub fn reverse(a: &Tensor, axes: &[isize]) -> Result<Tensor> {
    let norm: Vec<usize> =
        axes.iter().map(|&ax| normalize_axis("Reverse", ax, a.rank())).collect::<Result<_>>()?;
    a.engine().run_kernel(&KernelCall::Reverse { axes: norm.into() }, &[a])
}

#[cfg(test)]
mod tests {
    use super::super::testutil::test_engine;
    use super::*;

    #[test]
    fn reshape_shares_data() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let before = e.memory().num_bytes;
        let b = reshape(&a, [2, 2]).unwrap();
        // No new bytes allocated: reshape is free (paper Sec 3.4).
        assert_eq!(e.memory().num_bytes, before);
        assert_eq!(b.shape(), Shape::new(vec![2, 2]));
        assert_eq!(b.to_f32_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        // Engine sees two tensors but one data buffer.
        assert_eq!(e.memory().num_data_buffers, 1);
        assert_eq!(e.memory().num_tensors, 2);
    }

    #[test]
    fn reshape_size_mismatch_errors() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0]).unwrap();
        assert!(reshape(&a, [3]).is_err());
    }

    #[test]
    fn disposing_view_keeps_data_alive() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0]).unwrap();
        let b = reshape(&a, [2, 1]).unwrap();
        a.dispose();
        // b still reads fine: refcounted data container.
        assert_eq!(b.to_f32_vec().unwrap(), vec![1.0, 2.0]);
        b.dispose();
        assert_eq!(e.memory().num_data_buffers, 0);
    }

    #[test]
    fn expand_squeeze_round_trip() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0], 1, 2).unwrap();
        let b = expand_dims(&a, 0).unwrap();
        assert_eq!(b.shape(), Shape::new(vec![1, 1, 2]));
        let c = squeeze(&b, None).unwrap();
        assert_eq!(c.shape(), Shape::new(vec![2]));
        assert!(squeeze(&a, Some(&[1])).is_err());
    }

    #[test]
    fn transpose_values() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        let t = transpose(&a, None).unwrap();
        assert_eq!(t.shape(), Shape::new(vec![3, 2]));
        assert_eq!(t.to_f32_vec().unwrap(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(transpose(&a, Some(&[0, 0])).is_err());
    }

    #[test]
    fn pad_slice_inverse() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let p = pad(&a, &[(1, 1), (1, 1)], 0.0).unwrap();
        assert_eq!(p.shape(), Shape::new(vec![4, 4]));
        let s = slice(&p, &[1, 1], &[2, 2]).unwrap();
        assert_eq!(s.to_f32_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn slice_out_of_bounds_errors() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0]).unwrap();
        assert!(slice(&a, &[1], &[2]).is_err());
    }

    #[test]
    fn concat_stack_unstack() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0]).unwrap();
        let b = e.tensor_1d(&[3.0, 4.0]).unwrap();
        let c = concat(&[&a, &b], 0).unwrap();
        assert_eq!(c.to_f32_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        let s = stack(&[&a, &b], 0).unwrap();
        assert_eq!(s.shape(), Shape::new(vec![2, 2]));
        let parts = unstack(&s, 0).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[1].to_f32_vec().unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn split_axis1() {
        let e = test_engine();
        let a = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let parts = split(&a, 2, 1).unwrap();
        assert_eq!(parts[0].to_f32_vec().unwrap(), vec![1.0, 3.0]);
        assert_eq!(parts[1].to_f32_vec().unwrap(), vec![2.0, 4.0]);
        assert!(split(&a, 3, 1).is_err());
    }

    #[test]
    fn gather_requires_int_indices() {
        let e = test_engine();
        let x = e.tensor_2d(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        let bad = e.tensor_1d(&[0.0]).unwrap();
        assert!(gather(&x, &bad, 0).is_err());
        let ix = e.tensor(vec![1i32, 1, 0], [3]).unwrap();
        let out = gather(&x, &ix, 0).unwrap();
        assert_eq!(out.shape(), Shape::new(vec![3, 2]));
        assert_eq!(out.to_f32_vec().unwrap(), vec![3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn tile_and_reverse() {
        let e = test_engine();
        let a = e.tensor_1d(&[1.0, 2.0]).unwrap();
        assert_eq!(tile(&a, &[3]).unwrap().to_f32_vec().unwrap(), vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        assert_eq!(reverse(&a, &[0]).unwrap().to_f32_vec().unwrap(), vec![2.0, 1.0]);
    }
}
