//! Affine weight quantization (paper Sec 5.1: "the user can also quantize
//! the weights, reducing the model size by 4X").
//!
//! Per channel and per tensor are one quantizer, two [`hot_loop!`] bodies
//! on [`Codegen::detect`]'s build: one folds each channel's range, one
//! encodes. Both walk the weights in `(block, channel, run)` order
//! ([`channel_spans`]), so an element's channel is known without dividing
//! its index. A run reads its channel's parameters once; when only dims of
//! 1 follow the channel axis (`stride == 1`: every MobileNet filter and
//! dense kernel here) a block zips with the per-channel parameters and
//! vectorises across channels.
//! Per tensor is one channel over the whole tensor. Each channel's range is
//! folded in index order, so `min` keeps the sign of zero the sequential
//! fold gives it.
//!
//! A code is `((v - min) as f64 / scale)` rounded half away from zero and
//! capped at `levels` — the division stays in f64, as multiplying by a
//! reciprocal would move codes at ties. For a finite quotient `x >= 0`,
//! `x - trunc(x)` is exact, so truncating and adding one when it is
//! `>= 0.5` is `x.round()` to the bit, and vectorises where libm's `round`
//! does not. The quotient is not always finite: a channel whose range is
//! subnormal (min 0, max `1e-44`) gets an f32 scale of 0, so its `max`
//! divides to `+inf` and its `min` to `0/0`. The quotient is clamped to
//! `[0, levels]` before the truncation, which maps `+inf` to `levels` and
//! NaN to 0, as the saturating `as u64` cast of the definition does.

use webml_core::codegen::Codegen;
use webml_core::quant::{channel_spans, map_by_channel};
use webml_core::{hot_loop, Error, Result};

/// Integer width for quantized storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantization {
    /// One byte per weight: 4x smaller than f32.
    U8,
    /// Two bytes per weight: 2x smaller than f32.
    U16,
}

impl Quantization {
    /// Bytes per stored value.
    pub fn byte_size(self) -> usize {
        match self {
            Quantization::U8 => 1,
            Quantization::U16 => 2,
        }
    }

    /// Number of representable levels.
    fn levels(self) -> f64 {
        match self {
            Quantization::U8 => 255.0,
            Quantization::U16 => 65_535.0,
        }
    }

    /// Manifest dtype name.
    pub fn name(self) -> &'static str {
        match self {
            Quantization::U8 => "uint8",
            Quantization::U16 => "uint16",
        }
    }

    /// Parse a manifest dtype name.
    pub fn from_name(name: &str) -> Option<Quantization> {
        match name {
            "uint8" => Some(Quantization::U8),
            "uint16" => Some(Quantization::U16),
            _ => None,
        }
    }

    /// Quantize values to bytes plus `(scale, min)` for dequantization:
    /// `value ≈ q * scale + min`.
    ///
    /// `tensor_name` identifies the weight in error messages.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] when any value is NaN or ±infinity: NaN
    /// would otherwise silently encode as level 0 (dequantizing to the
    /// range minimum) and any non-finite value corrupts the min/max fold,
    /// so the whole tensor's scale would be garbage.
    pub fn quantize(self, tensor_name: &str, values: &[f32]) -> Result<(Vec<u8>, f32, f32)> {
        if let Some((i, v)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(Error::invalid(
                "quantize",
                format!("weight tensor '{tensor_name}' has non-finite value {v} at index {i}; refusing to quantize (NaN would decode as the range minimum)"),
            ));
        }
        let (bytes, scales, mins) = self.encode(Codegen::detect(), values, None);
        Ok((bytes, scales[0], mins[0]))
    }

    /// Quantize values with one `(scale, min)` pair **per channel** along
    /// `axis` — the standard treatment for conv filters, whose per-output-
    /// channel dynamic ranges differ by orders of magnitude. Returns the
    /// packed bytes (same row-major layout as the input) plus parallel
    /// `scales`/`mins` vectors of length `shape[axis]`.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] when `axis` is out of range, `values.len()`
    /// does not match `shape`, or any value is non-finite (same policy as
    /// [`Quantization::quantize`]).
    pub fn quantize_per_channel(
        self,
        tensor_name: &str,
        values: &[f32],
        shape: &[usize],
        axis: usize,
    ) -> Result<(Vec<u8>, Vec<f32>, Vec<f32>)> {
        let count: usize = shape.iter().product();
        if values.len() != count {
            return Err(Error::invalid(
                "quantize_per_channel",
                format!("weight tensor '{tensor_name}': {} values do not match shape {shape:?}", values.len()),
            ));
        }
        if axis >= shape.len() {
            return Err(Error::invalid(
                "quantize_per_channel",
                format!("weight tensor '{tensor_name}': axis {axis} out of range for shape {shape:?}"),
            ));
        }
        if let Some((i, v)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(Error::invalid(
                "quantize_per_channel",
                format!("weight tensor '{tensor_name}' has non-finite value {v} at index {i}; refusing to quantize"),
            ));
        }
        let stride = shape[axis + 1..].iter().product();
        Ok(self.encode(Codegen::detect(), values, Some((shape[axis], stride))))
    }

    /// Quantize `values` on `codegen`'s build, per channel over the channel
    /// walk of `Some((channels, stride))`, or per tensor as one channel:
    /// fold each channel's range, then encode every value against its
    /// channel's `min` and divisor — the stored f32 scale per channel, the
    /// unrounded f64 scale per tensor, 1 for a channel of equal values.
    /// Returns the packed codes and each channel's scale and `min`.
    fn encode(
        self,
        codegen: Codegen,
        values: &[f32],
        per_channel: Option<(usize, usize)>,
    ) -> (Vec<u8>, Vec<f32>, Vec<f32>) {
        let (channels, stride) = per_channel.unwrap_or((1, values.len()));
        let (mut mins, mut maxs) = (vec![f32::INFINITY; channels], vec![f32::NEG_INFINITY; channels]);
        fold_ranges(codegen, values, stride, &mut mins, &mut maxs);
        if values.is_empty() {
            // Empty channels (a zero-sized tensor): neutral params.
            mins.fill(0.0);
            maxs.fill(0.0);
        }
        let divisors: Vec<f64> = (mins.iter().zip(&maxs))
            .map(|(&min, &max)| {
                let range = (max - min) as f64;
                let scale = if range == 0.0 { 1.0 } else { range / self.levels() };
                if per_channel.is_some() { scale as f32 as f64 } else { scale }
            })
            .collect();
        let mut codes = Vec::new();
        encode_codes(codegen, values, stride, &mins, &divisors, self.levels(), &mut codes);
        let bytes = match self {
            Quantization::U8 => codes.iter().map(|&q| q as u8).collect(),
            Quantization::U16 => codes.iter().flat_map(|q| q.to_le_bytes()).collect(),
        };
        (bytes, divisors.iter().map(|&d| d as f32).collect(), mins)
    }

    /// Dequantize bytes back to f32 values.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] when `bytes.len()` is not a whole number
    /// of stored values: `chunks_exact` would otherwise silently drop the
    /// trailing byte(s) of a truncated or corrupt shard, producing a
    /// shorter-than-declared tensor downstream.
    pub fn dequantize(self, bytes: &[u8], scale: f32, min: f32) -> Result<Vec<f32>> {
        let rem = bytes.len() % self.byte_size();
        if rem != 0 {
            return Err(Error::invalid(
                "dequantize",
                format!(
                    "{}-byte buffer is not a whole number of {} values ({} bytes each); refusing to drop {rem} trailing byte(s) from a truncated or corrupt shard",
                    bytes.len(),
                    self.name(),
                    self.byte_size(),
                ),
            ));
        }
        Ok(match self {
            Quantization::U8 => bytes.iter().map(|&b| b as f32 * scale + min).collect(),
            Quantization::U16 => bytes
                .chunks_exact(2)
                .map(|b| u16::from_le_bytes([b[0], b[1]]) as f32 * scale + min)
                .collect(),
        })
    }

    /// Validate that a byte buffer holds exactly the elements a declared
    /// shape calls for. Catches shard truncation/corruption that happens to
    /// stay `byte_size`-aligned, which [`Quantization::dequantize`]'s
    /// alignment check alone cannot see.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] naming the tensor on any mismatch.
    pub fn check_buffer(self, tensor_name: &str, byte_len: usize, shape: &[usize]) -> Result<()> {
        let count: usize = shape.iter().product();
        if byte_len != count * self.byte_size() {
            return Err(Error::invalid(
                "dequantize",
                format!(
                    "weight tensor '{tensor_name}': {byte_len} bytes does not match declared shape {shape:?} ({count} x {}-byte {} values = {} bytes)",
                    self.byte_size(),
                    self.name(),
                    count * self.byte_size(),
                ),
            ));
        }
        Ok(())
    }

    /// Worst-case absolute reconstruction error for a value range.
    pub fn max_error(self, min: f32, max: f32) -> f32 {
        ((max - min) as f64 / self.levels() / 2.0) as f32
    }
}

hot_loop! {
    /// Fold each channel's `[min, max]` over the channel walk, every
    /// channel in index order: a run folds into its channel, a block's
    /// values zip with every channel.
    fn fold_ranges<const WIDE: bool>(
        values: &[f32],
        stride: usize,
        mins: &mut [f32],
        maxs: &mut [f32],
    ) {
        let fold = |v: f32, lo: &mut f32, hi: &mut f32| (*lo, *hi) = (lo.min(v), hi.max(v));
        for (span, c) in channel_spans(values.len(), mins.len(), stride) {
            match (&mut mins[c.clone()], &mut maxs[c]) {
                ([lo], [hi]) => values[span].iter().for_each(|&v| fold(v, lo, hi)),
                (lo, hi) => values[span].iter().zip(lo).zip(hi).for_each(|((&v, lo), hi)| fold(v, lo, hi)),
            }
        }
    }
}

hot_loop! {
    /// Every value's [`code`] against its channel's `min` and divisor, over
    /// the channel walk.
    fn encode_codes<const WIDE: bool>(
        values: &[f32],
        stride: usize,
        mins: &[f32],
        divisors: &[f64],
        levels: f64,
        codes: &mut Vec<u16>,
    ) {
        *codes = map_by_channel(values, (mins, divisors), stride, |&v, min, divisor| {
            code((v - min) as f64 / divisor, levels)
        });
    }
}

/// The code of the quotient `x = (v - min) as f64 / divisor`: the
/// reference's `(x.round() as u64).min(levels)` to the bit. `x` is `>= 0`
/// or non-finite — `+inf` or `0/0` on a channel whose f32 scale rounded to
/// 0 — and is clamped to `[0, levels]` first, so `+inf` saturates to
/// `levels` and NaN to 0, as the cast takes them. For a finite `x >= 0`,
/// `x - trunc(x)` is exact, so truncating and adding one when it is
/// `>= 0.5` is `x.round()`, half away from zero — and vectorises.
#[inline(always)]
fn code(x: f64, levels: f64) -> u16 {
    let x = if x > 0.0 { x } else { 0.0 };
    let x = if x < levels { x } else { levels };
    // SAFETY: `x` is in `[0, levels]`, so it truncates to an i32 — and
    // unlike a saturating `as` cast, the unchecked one vectorises.
    let t = unsafe { x.to_int_unchecked::<i32>() };
    (t + (x - t as f64 >= 0.5) as i32) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition the quantizer reproduces to the bit: each channel's
    /// elements gathered by index, folded in index order, and every code
    /// `((v - min) as f64 / scale).round()`, cast saturating and capped at
    /// `levels`. `per_channel` is `Some((channels, stride))`, or `None` for
    /// one channel over the tensor with its unrounded f64 scale.
    fn reference(
        q: Quantization,
        values: &[f32],
        per_channel: Option<(usize, usize)>,
    ) -> (Vec<u8>, Vec<f32>, Vec<f32>) {
        let (channels, stride) = per_channel.unwrap_or((1, values.len()));
        let outer = values.len().checked_div(channels * stride).unwrap_or(0);
        let mut codes = vec![0u64; values.len()];
        let (mut scales, mut mins) = (Vec::new(), Vec::new());
        for c in 0..channels {
            let at: Vec<usize> = (0..outer)
                .flat_map(|o| (0..stride).map(move |j| (o * channels + c) * stride + j))
                .collect();
            let min = at.iter().map(|&i| values[i]).fold(f32::INFINITY, f32::min);
            let max = at.iter().map(|&i| values[i]).fold(f32::NEG_INFINITY, f32::max);
            let (min, max) = if at.is_empty() { (0.0, 0.0) } else { (min, max) };
            let range = (max - min) as f64;
            let scale = if range == 0.0 { 1.0 } else { range / q.levels() };
            let scale = if per_channel.is_some() { scale as f32 as f64 } else { scale };
            for &i in &at {
                codes[i] = if range == 0.0 {
                    0
                } else {
                    (((values[i] - min) as f64 / scale).round() as u64).min(q.levels() as u64)
                };
            }
            scales.push(scale as f32);
            mins.push(min);
        }
        let bytes = match q {
            Quantization::U8 => codes.iter().map(|&c| c as u8).collect(),
            Quantization::U16 => codes.iter().flat_map(|&c| (c as u16).to_le_bytes()).collect(),
        };
        (bytes, scales, mins)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Codes, scales and mins of every build, both widths, per tensor and
    /// per channel along `axis`, equal the reference's on bits.
    fn assert_matches_reference(values: &[f32], dims: &[usize], axis: usize) {
        let stride = dims[axis + 1..].iter().product();
        for q in [Quantization::U8, Quantization::U16] {
            for per_channel in [None, Some((dims[axis], stride))] {
                let (codes, scales, mins) = reference(q, values, per_channel);
                for codegen in Codegen::all() {
                    let (c, s, m) = q.encode(codegen, values, per_channel);
                    let at = format!("{q:?} {codegen:?} {dims:?} {per_channel:?} {values:?}");
                    assert_eq!(c, codes, "codes: {at}");
                    assert_eq!(bits(&s), bits(&scales), "scales: {at}");
                    assert_eq!(bits(&m), bits(&mins), "mins: {at}");
                }
            }
        }
    }

    #[test]
    fn code_is_the_rounded_saturating_cast() {
        let step = |x: f64, by: i64| f64::from_bits((x.to_bits() as i64 + by) as u64);
        for q in [Quantization::U8, Quantization::U16] {
            let levels = q.levels();
            // Every level, and the quotients at and beside each midpoint.
            let edges = (0..=levels as u32).flat_map(|k| {
                let mid = k as f64 + 0.5;
                [k as f64, step(mid, -1), mid, step(mid, 1)]
            });
            let specials = [f64::INFINITY, f64::NAN, -0.0, 1e-310, levels + 0.5, 1e300];
            for x in edges.chain(specials) {
                let want = (x.round() as u64).min(levels as u64);
                assert_eq!(code(x, levels) as u64, want, "{q:?}: {x:e}");
            }
        }
    }

    #[test]
    fn quantizer_equals_its_definition_at_the_edges() {
        // An exact tie: scale 1.0, and 2.5 codes as 3, half away from zero.
        assert_matches_reference(&[0.0, 2.5, 255.0, 127.5], &[4], 0);
        assert_eq!(Quantization::U8.encode(Codegen::detect(), &[0.0, 2.5, 255.0], None).0, [0, 3, 255]);
        // A zero-range channel beside a live one.
        assert_matches_reference(&[0.7, -1.0, 0.7, 2.0, 0.7, 0.5], &[3, 2], 1);
        // A subnormal range whose f32 scale rounds to 0: `max` divides to
        // +inf and codes as `levels`, `min` to 0/0 = NaN and codes as 0.
        let tiny = [0.0, -1.0, 1e-44, 1.0, 1e-45, 0.25];
        assert_matches_reference(&tiny, &[3, 2], 1);
        for q in [Quantization::U8, Quantization::U16] {
            let (codes, scales, _) = q.encode(Codegen::detect(), &tiny, Some((2, 1)));
            assert_eq!(scales[0], 0.0);
            let top = q.levels() as u8;
            assert_eq!([codes[0], codes[2 * q.byte_size()]], [0, top], "{q:?}");
        }
        // Zero-size dims, on either side of the axis and on it.
        for (dims, axis) in [([0, 3], 1), ([3, 0], 0), ([2, 0], 1), ([0, 0], 0)] {
            assert_matches_reference(&[], &dims, axis);
        }
        // Signed zeros in either order: `min`'s stored sign is the
        // in-order fold's.
        let zeros = [-0.0, 0.0, 0.0, -0.0, 1.0, 1.0, 0.0, -0.0];
        assert_matches_reference(&zeros, &[4, 2], 1);
        assert_matches_reference(&zeros, &[2, 4], 0);
        assert_matches_reference(&zeros, &[8], 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn quantizer_equals_its_definition_on_bits(
            dims in prop::collection::vec(0usize..7, 1..4),
            axis in 0usize..3,
            wave in prop::collection::vec(-8.0f32..8.0, 256..257),
            grid in 0usize..3,
        ) {
            // Free floats; a half grid, whose runs of equal values, zero
            // ranges and signed zeros a channel often takes; and integers
            // with every third value -0.0.
            let values: Vec<f32> = (0..dims.iter().product::<usize>())
                .map(|i| match (grid, wave[i % 256]) {
                    (0, v) => v,
                    (1, v) => (v * 2.0).round() / 2.0,
                    (_, v) => if i % 3 == 0 { -0.0 } else { v.floor() },
                })
                .collect();
            assert_matches_reference(&values, &dims, axis % dims.len());
        }
    }

    #[test]
    fn u8_gives_4x_reduction() {
        let values: Vec<f32> = (0..100).map(|i| i as f32 / 10.0).collect();
        let (bytes, _, _) = Quantization::U8.quantize("w", &values).unwrap();
        assert_eq!(bytes.len() * 4, values.len() * 4);
        assert_eq!(bytes.len(), 100);
    }

    #[test]
    fn u16_gives_2x_reduction() {
        let values = vec![1.0f32; 50];
        let (bytes, _, _) = Quantization::U16.quantize("w", &values).unwrap();
        assert_eq!(bytes.len(), 100);
    }

    #[test]
    fn round_trip_error_is_bounded() {
        let values: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        for q in [Quantization::U8, Quantization::U16] {
            let (bytes, scale, min) = q.quantize("w", &values).unwrap();
            let back = q.dequantize(&bytes, scale, min).unwrap();
            let bound = q.max_error(-3.0, 3.0) * 1.01;
            for (a, b) in values.iter().zip(&back) {
                assert!((a - b).abs() <= bound, "{q:?}: {a} vs {b} (bound {bound})");
            }
        }
    }

    #[test]
    fn endpoints_are_exact() {
        let values = vec![-2.0f32, 0.0, 2.0];
        let (bytes, scale, min) = Quantization::U8.quantize("w", &values).unwrap();
        let back = Quantization::U8.dequantize(&bytes, scale, min).unwrap();
        assert_eq!(back[0], -2.0);
        assert!((back[2] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn constant_tensor_survives() {
        let values = vec![0.7f32; 8];
        let (bytes, scale, min) = Quantization::U8.quantize("w", &values).unwrap();
        let back = Quantization::U8.dequantize(&bytes, scale, min).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn empty_input() {
        let (bytes, _, _) = Quantization::U8.quantize("w", &[]).unwrap();
        assert!(bytes.is_empty());
    }

    #[test]
    fn nan_is_rejected_naming_the_tensor() {
        for q in [Quantization::U8, Quantization::U16] {
            let err = q.quantize("conv1/kernel", &[0.5, f32::NAN, 1.0]).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("conv1/kernel"), "{msg}");
            assert!(msg.contains("index 1"), "{msg}");
        }
    }

    #[test]
    fn infinities_are_rejected() {
        for bad in [f32::INFINITY, f32::NEG_INFINITY] {
            let err = Quantization::U8.quantize("dense/bias", &[bad, 0.0]).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("dense/bias"), "{msg}");
            assert!(msg.contains("index 0"), "{msg}");
        }
    }

    #[test]
    fn finite_values_after_fix_still_round_trip() {
        // Regression guard: the finiteness check must not change the
        // encoding of healthy tensors.
        let values = vec![-1.5f32, -0.25, 0.0, 0.75, 3.0];
        let (bytes, scale, min) = Quantization::U16.quantize("w", &values).unwrap();
        let back = Quantization::U16.dequantize(&bytes, scale, min).unwrap();
        let bound = Quantization::U16.max_error(-1.5, 3.0) * 1.01;
        for (a, b) in values.iter().zip(&back) {
            assert!((a - b).abs() <= bound);
        }
    }

    #[test]
    fn truncated_u16_buffer_is_rejected_not_silently_shortened() {
        // Regression: chunks_exact(2) used to drop the trailing odd byte,
        // so a truncated shard decoded to one fewer value than declared.
        let (mut bytes, scale, min) = Quantization::U16.quantize("w", &[1.0, 2.0, 3.0]).unwrap();
        bytes.pop(); // simulate a truncated shard
        let err = Quantization::U16.dequantize(&bytes, scale, min).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("uint16"), "{msg}");
        assert!(msg.contains("trailing"), "{msg}");
        assert!(matches!(err, Error::InvalidArgument { .. }));
    }

    #[test]
    fn check_buffer_catches_aligned_truncation() {
        // A U16 buffer short by a whole value passes the alignment check
        // but must fail shape validation.
        assert!(Quantization::U16.check_buffer("w", 6, &[2, 2]).is_err());
        assert!(Quantization::U16.check_buffer("w", 8, &[2, 2]).is_ok());
        let err = Quantization::U8.check_buffer("conv/kernel", 3, &[2, 2]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("conv/kernel"), "{msg}");
        assert!(msg.contains("[2, 2]"), "{msg}");
    }

    #[test]
    fn per_channel_tracks_each_channel_range() {
        // Two output channels with wildly different ranges: per-tensor
        // quantization would burn all resolution on the large channel.
        let shape = [4usize, 2usize];
        // Column 0 in [0, 100], column 1 in [0, 0.1].
        let values = vec![0.0, 0.0, 30.0, 0.03, 70.0, 0.07, 100.0, 0.1];
        let (bytes, scales, mins) =
            Quantization::U8.quantize_per_channel("w", &values, &shape, 1).unwrap();
        assert_eq!(bytes.len(), 8);
        assert_eq!(scales.len(), 2);
        assert_eq!(mins.len(), 2);
        for (i, &v) in values.iter().enumerate() {
            let c = i % 2;
            let back = bytes[i] as f32 * scales[c] + mins[c];
            let bound = if c == 0 {
                Quantization::U8.max_error(0.0, 100.0)
            } else {
                Quantization::U8.max_error(0.0, 0.1)
            } * 1.01;
            assert!((back - v).abs() <= bound, "channel {c}: {back} vs {v}");
        }
        // The small channel keeps fine resolution: error way below the
        // per-tensor bound of ~0.2.
        assert!(scales[1] < 1e-3, "scales: {scales:?}");
    }

    #[test]
    fn per_channel_rejects_bad_axis_and_length() {
        assert!(Quantization::U8.quantize_per_channel("w", &[1.0; 4], &[2, 2], 2).is_err());
        assert!(Quantization::U8.quantize_per_channel("w", &[1.0; 3], &[2, 2], 1).is_err());
        let err = Quantization::U8
            .quantize_per_channel("w", &[1.0, f32::NAN], &[2], 0)
            .unwrap_err();
        assert!(err.to_string().contains("non-finite"));
    }
}
