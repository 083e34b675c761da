//! Quantized-tensor metadata: the affine dequantization parameters carried
//! alongside `U8`-stored tensors (paper Sec 5.1).
//!
//! A quantized tensor stores one byte per element (`DType::U8` codes) plus
//! a [`QuantParams`]: `value ≈ code * scale + min`. Parameters are either
//! per-tensor or **per-channel** along one axis — the standard treatment
//! for conv filters whose per-output-channel dynamic ranges differ by
//! orders of magnitude. The engine keeps the params in the tensor registry
//! (keyed by tensor id), so they survive backend migration and context-loss
//! recovery untouched: only the raw codes move between devices.
//!
//! ## Dequant-free execution
//!
//! Fused kernels never materialize the f32 weights. For a matmul row dot
//! product against a quantized column `n` of `B`:
//!
//! ```text
//! Σₖ aₖ·(qₖₙ·sₙ + mₙ)  =  sₙ·Σₖ aₖ·qₖₙ  +  mₙ·Σₖ aₖ
//! ```
//!
//! so the inner loop accumulates the raw codes (`acc_q = Σ aₖ·qₖₙ`) and the
//! activations (`acc_a = Σ aₖ`) and applies `sₙ·acc_q + mₙ·acc_a` once in
//! the epilogue — followed by bias and activation, exactly like the f32
//! fused epilogue. When *both* operands are U8 the code product is exact in
//! i32 (`k·255·255 ≤ i32::MAX` for `k ≤ ~33 000`), giving the fully
//! integer accumulation path.

use crate::error::{Error, Result};
use crate::shape::Shape;
use std::ops::Range;
use std::slice;
use std::sync::Arc;

/// Affine dequantization parameters for a `U8`-stored quantized tensor:
/// `value ≈ code * scale + min`.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantParams {
    /// One `(scale, min)` pair for the whole tensor.
    PerTensor {
        /// Dequantization scale.
        scale: f32,
        /// Dequantization minimum (value of code 0).
        min: f32,
    },
    /// One `(scale, min)` pair per channel along `axis` (conv filters:
    /// the output-channel axis, last for HWIO layouts).
    PerChannel {
        /// The channel axis within the tensor's shape.
        axis: usize,
        /// Per-channel scales (length = shape dim at `axis`).
        scales: Vec<f32>,
        /// Per-channel minima (same length as `scales`).
        mins: Vec<f32>,
    },
}

impl QuantParams {
    /// Per-tensor parameters.
    pub fn per_tensor(scale: f32, min: f32) -> QuantParams {
        QuantParams::PerTensor { scale, min }
    }

    /// Per-channel parameters along `axis`.
    pub fn per_channel(axis: usize, scales: Vec<f32>, mins: Vec<f32>) -> QuantParams {
        QuantParams::PerChannel { axis, scales, mins }
    }

    /// Number of channel entries, or `None` for per-tensor params.
    pub fn channel_count(&self) -> Option<usize> {
        match self {
            QuantParams::PerTensor { .. } => None,
            QuantParams::PerChannel { scales, .. } => Some(scales.len()),
        }
    }

    /// The `(scale, min)` pair for `channel` (ignored for per-tensor).
    #[inline]
    pub fn scale_min(&self, channel: usize) -> (f32, f32) {
        match self {
            QuantParams::PerTensor { scale, min } => (*scale, *min),
            QuantParams::PerChannel { scales, mins, .. } => (scales[channel], mins[channel]),
        }
    }

    /// Largest scale across channels — the worst-case step size. Half of
    /// this is the worst-case absolute reconstruction error of any stored
    /// value (`Quantization::max_error` equivalent at execution time).
    pub fn max_scale(&self) -> f32 {
        match self {
            QuantParams::PerTensor { scale, .. } => *scale,
            QuantParams::PerChannel { scales, .. } => {
                scales.iter().copied().fold(0.0f32, f32::max)
            }
        }
    }

    /// Validate the parameters against the shape they annotate.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] when the channel axis is out of range,
    /// the per-channel vectors do not match the axis extent, or any scale
    /// or min is non-finite.
    pub fn validate(&self, shape: &Shape) -> Result<()> {
        match self {
            QuantParams::PerTensor { scale, min } => {
                if !scale.is_finite() || !min.is_finite() {
                    return Err(Error::invalid(
                        "quantized_tensor",
                        format!("non-finite quantization params (scale {scale}, min {min})"),
                    ));
                }
            }
            QuantParams::PerChannel { axis, scales, mins } => {
                let dims = &shape.0;
                if *axis >= dims.len() {
                    return Err(Error::invalid(
                        "quantized_tensor",
                        format!("channel axis {axis} out of range for shape {shape}"),
                    ));
                }
                if scales.len() != dims[*axis] || mins.len() != dims[*axis] {
                    return Err(Error::invalid(
                        "quantized_tensor",
                        format!(
                            "per-channel params ({} scales, {} mins) do not match axis {axis} extent {} of shape {shape}",
                            scales.len(),
                            mins.len(),
                            dims[*axis],
                        ),
                    ));
                }
                if let Some(bad) = scales.iter().chain(mins.iter()).find(|v| !v.is_finite()) {
                    return Err(Error::invalid(
                        "quantized_tensor",
                        format!("non-finite per-channel quantization param {bad}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// The channel walk of per-channel params over `dims` (row-major):
    /// `(stride, channels)`, the elements each run of a channel holds — the
    /// product of the dims after `axis`, 1 when `axis` is the last dim or
    /// lies beyond `dims` — and the channel count ([`channel_spans`] walks
    /// them). Per-tensor params get `(usize::MAX, 1)`: one channel.
    pub fn channel_stride(&self, dims: &[usize]) -> (usize, usize) {
        match self {
            QuantParams::PerTensor { .. } => (usize::MAX, 1),
            QuantParams::PerChannel { axis, scales, .. } => {
                let stride = dims.get(axis + 1..).map_or(1, |d| d.iter().product::<usize>().max(1));
                (stride, scales.len())
            }
        }
    }

    /// Host-side reference dequantization of raw codes over `dims` —
    /// the semantics every dequant-free kernel must reproduce. Used by the
    /// universal backend fallback and by accuracy tests.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] when the params fail [`Self::validate`]
    /// against `dims` or `codes` does not hold one code per element — a
    /// mismatch would otherwise index out of range or silently pick the
    /// wrong channel.
    pub fn dequantize(&self, codes: &[u8], dims: &[usize]) -> Result<Vec<f32>> {
        let shape = Shape::new(dims.to_vec());
        self.validate(&shape)?;
        if codes.len() != shape.size() {
            return Err(Error::invalid(
                "dequantize",
                format!("{} codes for shape {shape}", codes.len()),
            ));
        }
        let params = match self {
            QuantParams::PerTensor { scale, min } => (slice::from_ref(scale), slice::from_ref(min)),
            QuantParams::PerChannel { scales, mins, .. } => (&scales[..], &mins[..]),
        };
        Ok(map_by_channel(codes, params, self.channel_stride(dims).0, |&q, s, m| q as f32 * s + m))
    }

    /// The params describing the same codes viewed under shape `to` instead
    /// of `from` (a free reshape alias). Per-tensor params are unaffected;
    /// per-channel params survive only when the channel axis does — some
    /// axis of `to` has the same extent and the same product of leading
    /// dims, so every flat index keeps its channel — and are returned with
    /// the axis remapped (`[k, n]` axis 1 → `[1, k, n]` axis 2).
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] when the reshape splits or merges the
    /// channel axis (e.g. flattening): the view has no per-channel
    /// description, so dequantize first.
    pub fn reshaped(self: &Arc<Self>, from: &[usize], to: &[usize]) -> Result<Arc<QuantParams>> {
        let QuantParams::PerChannel { axis, scales, mins } = &**self else {
            return Ok(self.clone());
        };
        let outer: usize = from.iter().take(*axis).product();
        let mut lead = 1usize;
        for (i, &d) in to.iter().enumerate() {
            if lead == outer && Some(&d) == from.get(*axis) {
                return Ok(if i == *axis {
                    self.clone()
                } else {
                    Arc::new(QuantParams::per_channel(i, scales.clone(), mins.clone()))
                });
            }
            lead *= d;
        }
        Err(Error::invalid(
            "reshape",
            format!(
                "per-channel quantization axis {axis} of {from:?} does not survive the view as \
                 {to:?}; dequantize the tensor first"
            ),
        ))
    }
}

/// The channel walk: how a row-major buffer of `len` elements maps to the
/// `channels` channels of an axis whose trailing dims hold `stride`
/// elements. The buffer is blocks of `channels` runs of `stride` elements,
/// run `c` of every block in channel `c`, so the walk knows each element's
/// channel without dividing its index. It yields `(elements, channels)` over
/// the buffer in order: a run, every element in the one channel
/// `channels`; or, when `stride == 1`, a block, as many elements as
/// channels, element `k` in channel `k`. One channel is one run over the
/// whole buffer.
pub fn channel_spans(
    len: usize,
    channels: usize,
    stride: usize,
) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
    let stride = if channels == 1 { len } else { stride };
    let (block, runs) = (channels * stride, if stride == 1 { 1 } else { channels });
    (0..len.checked_div(block).unwrap_or(0)).flat_map(move |b| {
        (0..runs).map(move |c| match (b * block + c * stride, stride) {
            (start, 1) => (start..start + channels, 0..channels),
            (start, _) => (start..start + stride, c..c + 1),
        })
    })
}

/// `f(x, a[k], b[k])` for each element `x` of `src`, `k` its channel on
/// the channel walk of `a.len()` channels ([`channel_spans`]), in order: a
/// run reads its channel's params once, a block zips with them.
#[inline(always)]
pub fn map_by_channel<T, U, A: Copy, B: Copy>(
    src: &[T],
    (a, b): (&[A], &[B]),
    stride: usize,
    mut f: impl FnMut(&T, A, B) -> U,
) -> Vec<U> {
    let mut out = Vec::with_capacity(src.len());
    for (span, c) in channel_spans(src.len(), a.len(), stride) {
        match (&src[span], &a[c.clone()], &b[c]) {
            (src, &[a], &[b]) => out.extend(src.iter().map(|x| f(x, a, b))),
            (src, a, b) => out.extend(src.iter().zip(a).zip(b).map(|((x, &a), &b)| f(x, a, b))),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tensor_dequantizes_affinely() {
        let p = QuantParams::per_tensor(0.5, -1.0);
        assert_eq!(p.dequantize(&[0, 1, 4], &[3]).unwrap(), vec![-1.0, -0.5, 1.0]);
        assert_eq!(p.max_scale(), 0.5);
        assert!(p.validate(&Shape::new(vec![3])).is_ok());
    }

    #[test]
    fn per_channel_uses_the_right_channel() {
        // Shape [2, 3], channels along axis 1 (stride 1).
        let p = QuantParams::per_channel(1, vec![1.0, 10.0, 100.0], vec![0.0; 3]);
        let out = p.dequantize(&[1, 1, 1, 2, 2, 2], &[2, 3]).unwrap();
        assert_eq!(out, vec![1.0, 10.0, 100.0, 2.0, 20.0, 200.0]);
        // Channels along axis 0 (stride 3).
        let p0 = QuantParams::per_channel(0, vec![1.0, 10.0], vec![0.0; 2]);
        let out0 = p0.dequantize(&[1, 1, 1, 2, 2, 2], &[2, 3]).unwrap();
        assert_eq!(out0, vec![1.0, 1.0, 1.0, 20.0, 20.0, 20.0]);
    }

    #[test]
    fn validate_rejects_mismatch_and_non_finite() {
        let shape = Shape::new(vec![2, 3]);
        assert!(QuantParams::per_channel(2, vec![1.0], vec![0.0]).validate(&shape).is_err());
        assert!(QuantParams::per_channel(1, vec![1.0; 2], vec![0.0; 2]).validate(&shape).is_err());
        assert!(QuantParams::per_channel(1, vec![1.0; 3], vec![0.0; 3]).validate(&shape).is_ok());
        assert!(QuantParams::per_tensor(f32::NAN, 0.0).validate(&shape).is_err());
        assert!(QuantParams::per_channel(1, vec![1.0, f32::INFINITY, 1.0], vec![0.0; 3])
            .validate(&shape)
            .is_err());
    }

    #[test]
    fn dequantize_rejects_params_that_do_not_fit_the_shape() {
        // Axis beyond the dims, channel-count mismatch, wrong code count:
        // an explicit error, never an out-of-range index or a wrong channel.
        let p = QuantParams::per_channel(2, vec![1.0; 4], vec![0.0; 4]);
        assert!(p.dequantize(&[0; 24], &[24]).is_err());
        assert_eq!(p.channel_stride(&[24]), (1, 4));
        let short_mins = QuantParams::per_channel(1, vec![1.0; 3], vec![0.0; 2]);
        assert!(short_mins.dequantize(&[0; 6], &[2, 3]).is_err());
        assert!(QuantParams::per_tensor(1.0, 0.0).dequantize(&[0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn reshaped_remaps_a_surviving_channel_axis_and_refuses_the_rest() {
        let p = Arc::new(QuantParams::per_channel(1, vec![1.0, 10.0, 100.0], vec![0.0; 3]));
        // [k, n] → [1, k, n]: the column axis moves from 1 to 2.
        let q = p.reshaped(&[2, 3], &[1, 2, 3]).unwrap();
        assert_eq!(*q, QuantParams::per_channel(2, vec![1.0, 10.0, 100.0], vec![0.0; 3]));
        assert_eq!(
            q.dequantize(&[1; 6], &[1, 2, 3]).unwrap(),
            p.dequantize(&[1; 6], &[2, 3]).unwrap()
        );
        // Same axis: the very same Arc, no copy.
        assert!(Arc::ptr_eq(&p.reshaped(&[2, 3], &[2, 3]).unwrap(), &p));
        // Flattening merges the channel axis away; so does splitting it.
        assert!(p.reshaped(&[2, 3], &[6]).is_err());
        assert!(p.reshaped(&[2, 3], &[3, 2]).is_err());
        let p2 = Arc::new(QuantParams::per_channel(2, vec![1.0; 4], vec![0.0; 4]));
        assert!(p2.reshaped(&[2, 3, 4], &[24]).is_err());
        assert_eq!(p2.reshaped(&[2, 3, 4], &[6, 4]).unwrap().channel_count(), Some(4));
        // Per-tensor params describe any view.
        let pt = Arc::new(QuantParams::per_tensor(0.5, -1.0));
        assert!(Arc::ptr_eq(&pt.reshaped(&[2, 3], &[6]).unwrap(), &pt));
    }
}
