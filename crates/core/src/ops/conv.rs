//! 2-D convolution and pooling ops (NHWC); their training gradients are the
//! `Conv2d` / `DepthwiseConv2d` / `Pool2d` rules of [`crate::grads`].

use crate::backend::{Epilogue, KernelCall as C, PoolOp};
use crate::conv_util::{conv2d_info, depthwise_conv2d_info, pool2d_info, Padding};
use crate::error::Result;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::borrow::Cow;

/// 2-D convolution: `x` NHWC, `filter` HWIO (f32, or a quantized weight —
/// see [`super::run`]).
///
/// # Errors
/// Fails on rank/channel mismatches (see [`conv2d_info`]).
pub fn conv2d(
    x: &Tensor,
    filter: &Tensor,
    strides: (usize, usize),
    padding: Padding,
    dilations: (usize, usize),
) -> Result<Tensor> {
    let info = conv2d_info("Conv2D", x.shape_ref(), filter.shape_ref(), strides, padding, dilations)?;
    super::run(&C::Conv2d { info: Cow::Owned(info), epilogue: Epilogue::None }, &[x, filter])
}

/// Transposed convolution (`tf.conv2dTranspose`): the gradient-of-conv2d
/// used as a forward op, upsampling `x` into `out_shape`. The gradient
/// kernel has no gradient of its own: backprop through it fails with
/// [`crate::Error::GradientNotDefined`].
///
/// # Errors
/// Fails when the implied geometry is inconsistent.
pub fn conv2d_transpose(
    x: &Tensor,
    filter: &Tensor,
    out_shape: [usize; 4],
    strides: (usize, usize),
    padding: Padding,
) -> Result<Tensor> {
    let info = conv2d_info(
        "Conv2DTranspose",
        &Shape::new(out_shape.to_vec()),
        filter.shape_ref(),
        strides,
        padding,
        (1, 1),
    )?;
    x.engine().run_kernel(&C::Conv2dBackpropInput(Cow::Owned(info)), &[x, filter])
}

/// Depthwise 2-D convolution: `filter` is `[fh, fw, in_c, channel_mul]`.
///
/// # Errors
/// Fails on rank/channel mismatches.
pub fn depthwise_conv2d(
    x: &Tensor,
    filter: &Tensor,
    strides: (usize, usize),
    padding: Padding,
    dilations: (usize, usize),
) -> Result<Tensor> {
    let info = depthwise_conv2d_info(
        "DepthwiseConv2D",
        x.shape_ref(),
        filter.shape_ref(),
        strides,
        padding,
        dilations,
    )?;
    let call = C::DepthwiseConv2d { info: Cow::Owned(info), epilogue: Epilogue::None };
    super::run(&call, &[x, filter])
}

/// Depthwise-separable convolution (MobileNet's building block): a depthwise
/// conv followed by a 1x1 pointwise conv.
///
/// # Errors
/// Fails on geometry mismatches of either stage.
pub fn separable_conv2d(
    x: &Tensor,
    depthwise_filter: &Tensor,
    pointwise_filter: &Tensor,
    strides: (usize, usize),
    padding: Padding,
) -> Result<Tensor> {
    let dw = depthwise_conv2d(x, depthwise_filter, strides, padding, (1, 1))?;
    conv2d(&dw, pointwise_filter, (1, 1), Padding::Same, (1, 1))
}

fn pool_impl(
    name: &'static str,
    op: PoolOp,
    x: &Tensor,
    window: (usize, usize),
    strides: (usize, usize),
    padding: Padding,
) -> Result<Tensor> {
    let info = pool2d_info(name, x.shape_ref(), window, strides, padding)?;
    x.engine().run_kernel(&C::Pool2d { op, info: Cow::Owned(info) }, &[x])
}

/// 2-D max pooling.
///
/// # Errors
/// Fails when `x` is not rank 4.
pub fn max_pool(
    x: &Tensor,
    window: (usize, usize),
    strides: (usize, usize),
    padding: Padding,
) -> Result<Tensor> {
    pool_impl("MaxPool", PoolOp::Max, x, window, strides, padding)
}

/// 2-D average pooling.
///
/// # Errors
/// Fails when `x` is not rank 4.
pub fn avg_pool(
    x: &Tensor,
    window: (usize, usize),
    strides: (usize, usize),
    padding: Padding,
) -> Result<Tensor> {
    pool_impl("AvgPool", PoolOp::Avg, x, window, strides, padding)
}

/// Global average pooling over the spatial dims of an NHWC tensor,
/// producing `[batch, channels]`.
///
/// # Errors
/// Fails when `x` is not rank 4.
pub fn global_avg_pool(x: &Tensor) -> Result<Tensor> {
    if x.rank() != 4 {
        return Err(crate::error::Error::shape("GlobalAvgPool", "expected rank-4 NHWC input"));
    }
    super::mean(x, Some(&[1, 2]), false)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_close, test_engine};
    use super::*;

    #[test]
    fn conv2d_identity_kernel() {
        let e = test_engine();
        let x = e.tensor_4d(&[1.0, 2.0, 3.0, 4.0], 1, 2, 2, 1).unwrap();
        let w = e.tensor_4d(&[1.0], 1, 1, 1, 1).unwrap();
        let y = conv2d(&x, &w, (1, 1), Padding::Valid, (1, 1)).unwrap();
        assert_eq!(y.to_f32_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn conv2d_channel_mixing() {
        let e = test_engine();
        // 1x1 conv with 2 in channels -> 1 out channel summing them.
        let x = e.tensor_4d(&[1.0, 10.0, 2.0, 20.0], 1, 2, 1, 2).unwrap();
        let w = e.tensor_4d(&[1.0, 1.0], 1, 1, 2, 1).unwrap();
        let y = conv2d(&x, &w, (1, 1), Padding::Same, (1, 1)).unwrap();
        assert_eq!(y.to_f32_vec().unwrap(), vec![11.0, 22.0]);
    }

    #[test]
    fn depthwise_scales_channels() {
        let e = test_engine();
        let x = e.tensor_4d(&[1.0, 10.0, 2.0, 20.0], 1, 2, 1, 2).unwrap();
        let w = e.tensor_4d(&[2.0, 3.0], 1, 1, 2, 1).unwrap();
        let y = depthwise_conv2d(&x, &w, (1, 1), Padding::Same, (1, 1)).unwrap();
        assert_eq!(y.to_f32_vec().unwrap(), vec![2.0, 30.0, 4.0, 60.0]);
    }

    #[test]
    fn separable_matches_composition() {
        let e = test_engine();
        let x = e.rand_uniform([1, 4, 4, 2], -1.0, 1.0, 1).unwrap();
        let dw = e.rand_uniform([3, 3, 2, 1], -1.0, 1.0, 2).unwrap();
        let pw = e.rand_uniform([1, 1, 2, 3], -1.0, 1.0, 3).unwrap();
        let y = separable_conv2d(&x, &dw, &pw, (1, 1), Padding::Same).unwrap();
        let manual = conv2d(
            &depthwise_conv2d(&x, &dw, (1, 1), Padding::Same, (1, 1)).unwrap(),
            &pw,
            (1, 1),
            Padding::Same,
            (1, 1),
        )
        .unwrap();
        assert_close(&y.to_f32_vec().unwrap(), &manual.to_f32_vec().unwrap(), 1e-6);
    }

    #[test]
    fn max_and_avg_pool() {
        let e = test_engine();
        let x = e.tensor_4d(&[1.0, 2.0, 3.0, 4.0], 1, 2, 2, 1).unwrap();
        let m = max_pool(&x, (2, 2), (2, 2), Padding::Valid).unwrap();
        assert_eq!(m.to_f32_vec().unwrap(), vec![4.0]);
        let a = avg_pool(&x, (2, 2), (2, 2), Padding::Valid).unwrap();
        assert_eq!(a.to_f32_vec().unwrap(), vec![2.5]);
    }

    #[test]
    fn global_avg_pool_shape() {
        let e = test_engine();
        let x = e.tensor_4d(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 1, 2, 2, 2).unwrap();
        let g = global_avg_pool(&x).unwrap();
        assert_eq!(g.shape(), Shape::new(vec![1, 2]));
        assert_eq!(g.to_f32_vec().unwrap(), vec![4.0, 5.0]);
    }

    #[test]
    fn conv2d_transpose_upsamples() {
        let e = test_engine();
        let x = e.tensor_4d(&[1.0], 1, 1, 1, 1).unwrap();
        let w = e.tensor_4d(&[1.0, 2.0, 3.0, 4.0], 2, 2, 1, 1).unwrap();
        let y = conv2d_transpose(&x, &w, [1, 2, 2, 1], (2, 2), Padding::Valid).unwrap();
        assert_eq!(y.shape(), Shape::new(vec![1, 2, 2, 1]));
        assert_eq!(y.to_f32_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }
}
