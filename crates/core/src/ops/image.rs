//! Image ops: bilinear resize and pixel-buffer import (the `tf.fromPixels`
//! analogue used by the models repo, paper Sec 5.2).

use crate::backend::KernelCall;
use crate::dtype::{DType, TensorData};
use crate::engine::Engine;
use crate::error::{Error, Result};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Bilinearly resize an NHWC tensor to `(new_h, new_w)`. Its gradient is not
/// defined: backprop through it fails with [`Error::GradientNotDefined`].
///
/// # Errors
/// Fails when `x` is not rank 4 or the target size is zero.
pub fn resize_bilinear(x: &Tensor, new_h: usize, new_w: usize, align_corners: bool) -> Result<Tensor> {
    if x.rank() != 4 {
        return Err(Error::shape("ResizeBilinear", "expected rank-4 NHWC input"));
    }
    if new_h == 0 || new_w == 0 {
        return Err(Error::invalid("ResizeBilinear", "target size must be positive"));
    }
    let call = KernelCall::ResizeBilinear { new_h, new_w, align_corners };
    x.engine().run_kernel(&call, &[x])
}

impl Engine {
    /// Import an interleaved 8-bit pixel buffer (HWC) as a `[1, h, w, c]`
    /// float tensor with values in `[0, 255]` — the analogue of
    /// `tf.browser.fromPixels(imageElement)`.
    ///
    /// # Errors
    /// Fails when `pixels.len() != h * w * c`.
    pub fn from_pixels(&self, pixels: &[u8], h: usize, w: usize, c: usize) -> Result<Tensor> {
        if pixels.len() != h * w * c {
            return Err(Error::invalid(
                "fromPixels",
                format!("buffer length {} does not match {h}x{w}x{c}", pixels.len()),
            ));
        }
        let vals: Vec<f32> = pixels.iter().map(|&p| p as f32).collect();
        self.make_tensor(TensorData::F32(vals), Shape::new(vec![1, h, w, c]), DType::F32)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::test_engine;
    use super::*;

    #[test]
    fn resize_identity_when_same_size() {
        let e = test_engine();
        let x = e.tensor_4d(&[1.0, 2.0, 3.0, 4.0], 1, 2, 2, 1).unwrap();
        let y = resize_bilinear(&x, 2, 2, false).unwrap();
        assert_eq!(y.to_f32_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn resize_upsample_shape() {
        let e = test_engine();
        let x = e.tensor_4d(&[0.0, 1.0, 2.0, 3.0], 1, 2, 2, 1).unwrap();
        let y = resize_bilinear(&x, 4, 4, true).unwrap();
        assert_eq!(y.shape(), Shape::new(vec![1, 4, 4, 1]));
        let v = y.to_f32_vec().unwrap();
        // align_corners keeps the 4 corners exact.
        assert_eq!(v[0], 0.0);
        assert_eq!(v[3], 1.0);
        assert_eq!(v[12], 2.0);
        assert_eq!(v[15], 3.0);
    }

    #[test]
    fn resize_rejects_bad_rank() {
        let e = test_engine();
        let x = e.tensor_1d(&[1.0]).unwrap();
        assert!(resize_bilinear(&x, 2, 2, false).is_err());
    }

    #[test]
    fn from_pixels_imports_bytes() {
        let e = test_engine();
        let t = e.from_pixels(&[0, 128, 255, 64, 32, 16], 1, 2, 3).unwrap();
        assert_eq!(t.shape(), Shape::new(vec![1, 1, 2, 3]));
        assert_eq!(t.to_f32_vec().unwrap(), vec![0.0, 128.0, 255.0, 64.0, 32.0, 16.0]);
        assert!(e.from_pixels(&[1, 2], 1, 1, 3).is_err());
    }
}
