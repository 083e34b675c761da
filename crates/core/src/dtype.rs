//! Data types and host-side tensor storage.
//!
//! TensorFlow.js backs tensors with JavaScript `TypedArray`s
//! (`Float32Array`, `Int32Array`, `Uint8Array`). [`TensorData`] is the Rust
//! analogue: a dtype-tagged owned buffer. Half precision ([`DType::F16`]) is
//! stored as `f32` on the host but rounded through the IEEE 754 binary16
//! format by devices that only support 16-bit float textures (paper
//! Sec 4.1.3), via [`f32_to_f16_bits`] / [`f16_bits_to_f32`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Element type of a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[derive(Default)]
pub enum DType {
    /// 32-bit IEEE float (the default, like tfjs `'float32'`).
    #[default]
    F32,
    /// 16-bit IEEE float, emulated: stored as f32, rounded on f16-only devices.
    F16,
    /// 32-bit signed integer (tfjs `'int32'`).
    I32,
    /// Boolean, stored one byte per element (tfjs `'bool'`).
    Bool,
    /// Unsigned byte, used for quantized weights and image data.
    U8,
}

impl DType {
    /// Size in bytes of one element when stored on a backend.
    pub fn byte_size(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
            DType::I32 => 4,
            DType::Bool | DType::U8 => 1,
        }
    }

    /// Whether this is a floating-point dtype.
    pub fn is_float(self) -> bool {
        matches!(self, DType::F32 | DType::F16)
    }

    /// The dtype arithmetic between two operands promotes to
    /// (float beats int beats bool; f32 beats f16).
    pub fn promote(self, other: DType) -> DType {
        use DType::*;
        match (self, other) {
            (F32, _) | (_, F32) => F32,
            (F16, _) | (_, F16) => F16,
            (I32, _) | (_, I32) => I32,
            (U8, _) | (_, U8) => U8,
            (Bool, Bool) => Bool,
        }
    }

    /// The canonical tfjs-style name (`"float32"`, `"int32"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "float32",
            DType::F16 => "float16",
            DType::I32 => "int32",
            DType::Bool => "bool",
            DType::U8 => "uint8",
        }
    }

    /// Parse a tfjs-style dtype name.
    ///
    /// # Errors
    /// Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<DType> {
        match name {
            "float32" => Some(DType::F32),
            "float16" => Some(DType::F16),
            "int32" => Some(DType::I32),
            "bool" => Some(DType::Bool),
            "uint8" => Some(DType::U8),
            _ => None,
        }
    }
}


impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Owned, dtype-tagged host buffer backing a tensor — the analogue of a
/// JavaScript `TypedArray`.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorData {
    /// `Float32Array`: also used to carry F16 values on the host.
    F32(Vec<f32>),
    /// `Int32Array`.
    I32(Vec<i32>),
    /// `Uint8Array`: carries both `Bool` and `U8` tensors.
    U8(Vec<u8>),
}

impl TensorData {
    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        match self {
            TensorData::F32(v) => v.len(),
            TensorData::I32(v) => v.len(),
            TensorData::U8(v) => v.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a zero-filled buffer appropriate for `dtype`.
    pub fn zeros(dtype: DType, len: usize) -> TensorData {
        match dtype {
            DType::F32 | DType::F16 => TensorData::F32(vec![0.0; len]),
            DType::I32 => TensorData::I32(vec![0; len]),
            DType::Bool | DType::U8 => TensorData::U8(vec![0; len]),
        }
    }

    /// View the contents as f64 for comparison/printing regardless of dtype.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            TensorData::F32(v) => v.iter().map(|&x| x as f64).collect(),
            TensorData::I32(v) => v.iter().map(|&x| x as f64).collect(),
            TensorData::U8(v) => v.iter().map(|&x| x as f64).collect(),
        }
    }

    /// Convert the contents to a `Vec<f32>` (copies).
    pub fn to_f32_vec(&self) -> Vec<f32> {
        match self {
            TensorData::F32(v) => v.clone(),
            TensorData::I32(v) => v.iter().map(|&x| x as f32).collect(),
            TensorData::U8(v) => v.iter().map(|&x| x as f32).collect(),
        }
    }

    /// Convert the contents to a `Vec<i32>` (copies, truncating floats).
    pub fn to_i32_vec(&self) -> Vec<i32> {
        match self {
            TensorData::F32(v) => v.iter().map(|&x| x as i32).collect(),
            TensorData::I32(v) => v.clone(),
            TensorData::U8(v) => v.iter().map(|&x| x as i32).collect(),
        }
    }

    /// The contents as raw U8 quantization codes. U8 buffers are returned
    /// as is; any other storage (a float copy of codes read back from an
    /// R8 texture, or migrated between backends) holds exact integer values
    /// and is rounded and clamped back into code space.
    pub fn to_u8_codes(&self) -> Vec<u8> {
        match self {
            TensorData::U8(v) => v.clone(),
            other => {
                other.to_f32_vec().iter().map(|&x| x.round().clamp(0.0, 255.0) as u8).collect()
            }
        }
    }

    /// Borrow as `&[f32]`, if this is an F32 buffer.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            TensorData::F32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[i32]`, if this is an I32 buffer.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            TensorData::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[u8]`, if this is a U8 buffer.
    pub fn as_u8(&self) -> Option<&[u8]> {
        match self {
            TensorData::U8(v) => Some(v),
            _ => None,
        }
    }

    /// Element at flat index `i`, widened to f64.
    pub fn get_f64(&self, i: usize) -> f64 {
        match self {
            TensorData::F32(v) => v[i] as f64,
            TensorData::I32(v) => v[i] as f64,
            TensorData::U8(v) => v[i] as f64,
        }
    }

    /// Whether any element is NaN (used by the NaN-debug mode, paper 3.8).
    pub fn has_nan(&self) -> bool {
        match self {
            TensorData::F32(v) => v.iter().any(|x| x.is_nan()),
            _ => false,
        }
    }

    /// Cast the buffer into the representation for `dtype`.
    ///
    /// Float→`U8` is a **saturating** cast: values clamp to `[0, 255]` and
    /// round toward zero. NaN maps to 0 — the same policy as Rust's
    /// `as u8` and WebGL's unsigned-normalized texture stores. Callers for
    /// whom a silent NaN→0 would corrupt data (quantized image inputs)
    /// must validate first; [`Engine::tensor_u8`](crate::Engine) and the
    /// quantized-weight path reject non-finite inputs before ever reaching
    /// this cast.
    pub fn cast(&self, dtype: DType) -> TensorData {
        match dtype {
            DType::F32 | DType::F16 => TensorData::F32(self.to_f32_vec()),
            DType::I32 => TensorData::I32(self.to_i32_vec()),
            DType::Bool => TensorData::U8(
                self.to_f64_vec().iter().map(|&x| (x != 0.0) as u8).collect(),
            ),
            DType::U8 => TensorData::U8(
                self.to_f64_vec().iter().map(|&x| x.clamp(0.0, 255.0) as u8).collect(),
            ),
        }
    }

    /// Whether the buffer is already stored the way `dtype` is — F32 for
    /// the float dtypes, I32, U8 — so that [`TensorData::into_dtype`] moves
    /// it. A `Bool` never is: its cast normalises non-zero bytes to 1.
    pub fn is_stored_as(&self, dtype: DType) -> bool {
        matches!(
            (self, dtype),
            (TensorData::F32(_), DType::F32 | DType::F16)
                | (TensorData::I32(_), DType::I32)
                | (TensorData::U8(_), DType::U8)
        )
    }

    /// The buffer stored as `dtype`: moved when it already is
    /// ([`TensorData::is_stored_as`]), [cast](TensorData::cast) otherwise.
    pub fn into_dtype(self, dtype: DType) -> TensorData {
        if self.is_stored_as(dtype) {
            self
        } else {
            self.cast(dtype)
        }
    }

    /// Index and value of the first non-finite element, if any. Used by
    /// tensor-creation paths that must reject NaN/±inf before a lossy
    /// integer cast (the float→U8 cast silently maps NaN to 0).
    pub fn first_non_finite(&self) -> Option<(usize, f64)> {
        match self {
            TensorData::F32(v) => v
                .iter()
                .enumerate()
                .find(|(_, x)| !x.is_finite())
                .map(|(i, &x)| (i, x as f64)),
            TensorData::I32(_) | TensorData::U8(_) => None,
        }
    }

    /// Total bytes when stored with the given dtype.
    pub fn byte_len(&self, dtype: DType) -> usize {
        self.len() * dtype.byte_size()
    }
}

impl From<Vec<f32>> for TensorData {
    fn from(v: Vec<f32>) -> Self {
        TensorData::F32(v)
    }
}

impl From<Vec<i32>> for TensorData {
    fn from(v: Vec<i32>) -> Self {
        TensorData::I32(v)
    }
}

impl From<Vec<u8>> for TensorData {
    fn from(v: Vec<u8>) -> Self {
        TensorData::U8(v)
    }
}

/// Convert an `f32` to IEEE 754 binary16 bits (round-to-nearest-even).
///
/// Used by the WebGL simulator to emulate 16-bit float textures on iOS-class
/// devices (paper Sec 4.1.3).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let mut exp = ((bits >> 23) & 0xff) as i32;
    let mut mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf or NaN.
        let m = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | m as u16;
    }
    // Re-bias from 127 to 15.
    exp -= 127 - 15;
    if exp >= 0x1f {
        // Overflow to infinity.
        return sign | 0x7c00;
    }
    if exp <= 0 {
        if exp < -10 {
            // Underflows to zero even as a subnormal.
            return sign;
        }
        // Subnormal: shift mantissa (with implicit leading 1) right.
        mant |= 0x0080_0000;
        let shift = (14 - exp) as u32;
        let half = 1u32 << (shift - 1);
        let mut m = mant >> shift;
        // Round to nearest even.
        if (mant & (half * 2 - 1)) > half || ((mant & (half * 2 - 1)) == half && (m & 1) == 1) {
            m += 1;
        }
        return sign | m as u16;
    }
    // Normal: round mantissa from 23 to 10 bits, to nearest even.
    let mut m = mant >> 13;
    let rem = mant & 0x1fff;
    if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
        m += 1;
        if m == 0x400 {
            m = 0;
            exp += 1;
            if exp >= 0x1f {
                return sign | 0x7c00;
            }
        }
    }
    sign | ((exp as u16) << 10) | m as u16
}

/// Convert IEEE 754 binary16 bits to `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut e = -1i32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                e += 1;
            }
            m &= 0x03ff;
            sign | (((127 - 15 - e) as u32) << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Round an `f32` through binary16 precision (the f16-texture write path).
pub fn round_to_f16(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promote_prefers_float() {
        assert_eq!(DType::F32.promote(DType::I32), DType::F32);
        assert_eq!(DType::I32.promote(DType::Bool), DType::I32);
        assert_eq!(DType::Bool.promote(DType::Bool), DType::Bool);
        assert_eq!(DType::F16.promote(DType::I32), DType::F16);
        assert_eq!(DType::F32.promote(DType::F16), DType::F32);
    }

    #[test]
    fn dtype_names_round_trip() {
        for d in [DType::F32, DType::F16, DType::I32, DType::Bool, DType::U8] {
            assert_eq!(DType::from_name(d.name()), Some(d));
        }
        assert_eq!(DType::from_name("complex64"), None);
    }

    #[test]
    fn f16_round_trip_exact_values() {
        for &x in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0] {
            assert_eq!(round_to_f16(x), x, "value {x} should be exactly representable");
        }
    }

    #[test]
    fn f16_overflow_is_infinite() {
        assert!(round_to_f16(70000.0).is_infinite());
        assert!(round_to_f16(-70000.0).is_infinite());
    }

    #[test]
    fn f16_underflow_is_zero() {
        // The paper's epsilon problem: 1e-8 is not representable in f16.
        assert_eq!(round_to_f16(1e-8), 0.0);
        // 1e-4 (the adjusted epsilon) survives.
        assert!(round_to_f16(1e-4) > 0.0);
    }

    #[test]
    fn f16_subnormals_round_trip() {
        // Smallest positive f16 subnormal is 2^-24 ≈ 5.96e-8.
        let tiny = f16_bits_to_f32(1);
        assert!(tiny > 0.0);
        assert_eq!(f32_to_f16_bits(tiny), 1);
    }

    #[test]
    fn f16_nan_propagates() {
        assert!(round_to_f16(f32::NAN).is_nan());
        assert!(round_to_f16(f32::INFINITY).is_infinite());
    }

    #[test]
    fn f16_rounding_is_nearest() {
        // 1.0 + 2^-11 rounds to 1.0 (nearest even); 1.0 + 2^-10 is exact.
        let ulp = (2.0f32).powi(-10);
        assert_eq!(round_to_f16(1.0 + ulp / 2.0), 1.0);
        assert_eq!(round_to_f16(1.0 + ulp), 1.0 + ulp);
    }

    #[test]
    fn tensor_data_cast_bool() {
        let d = TensorData::F32(vec![0.0, 1.5, -2.0]);
        assert_eq!(d.cast(DType::Bool), TensorData::U8(vec![0, 1, 1]));
    }

    #[test]
    fn a_buffer_already_stored_as_its_dtype_moves() {
        let at = |d: &TensorData| match d {
            TensorData::F32(v) => v.as_ptr() as usize,
            TensorData::I32(v) => v.as_ptr() as usize,
            TensorData::U8(v) => v.as_ptr() as usize,
        };
        for (data, dtype) in [
            (TensorData::F32(vec![1.5, -2.0]), DType::F32),
            (TensorData::F32(vec![1.5, -2.0]), DType::F16),
            (TensorData::I32(vec![7, -3]), DType::I32),
            (TensorData::U8(vec![0, 255]), DType::U8),
        ] {
            let (was, expect) = (at(&data), data.clone());
            let moved = data.into_dtype(dtype);
            assert_eq!((at(&moved), moved), (was, expect), "{dtype}");
        }
        // Bool still normalises; any other pair casts.
        assert_eq!(TensorData::U8(vec![7, 0]).into_dtype(DType::Bool), TensorData::U8(vec![1, 0]));
        assert_eq!(TensorData::F32(vec![2.7]).into_dtype(DType::I32), TensorData::I32(vec![2]));
    }

    #[test]
    fn u8_cast_policy_saturates_and_maps_nan_to_zero() {
        // The documented policy for the lossy float→U8 cast: clamp to
        // [0, 255], truncate, NaN → 0. Engine-level U8 tensor creation
        // rejects non-finite values *before* this cast; this test pins the
        // raw-cast behaviour so the policy cannot drift silently.
        let d = TensorData::F32(vec![-1.0, 0.0, 254.6, 300.0, f32::NAN, f32::INFINITY]);
        assert_eq!(d.cast(DType::U8), TensorData::U8(vec![0, 0, 254, 255, 0, 255]));
    }

    #[test]
    fn first_non_finite_finds_nan_and_inf() {
        assert_eq!(TensorData::F32(vec![1.0, 2.0]).first_non_finite(), None);
        let (i, v) = TensorData::F32(vec![1.0, f32::NAN]).first_non_finite().unwrap();
        assert_eq!(i, 1);
        assert!(v.is_nan());
        let (i, _) = TensorData::F32(vec![f32::NEG_INFINITY]).first_non_finite().unwrap();
        assert_eq!(i, 0);
        assert_eq!(TensorData::I32(vec![7]).first_non_finite(), None);
    }

    #[test]
    fn tensor_data_nan_detection() {
        assert!(TensorData::F32(vec![1.0, f32::NAN]).has_nan());
        assert!(!TensorData::F32(vec![1.0, 2.0]).has_nan());
        assert!(!TensorData::I32(vec![1, 2]).has_nan());
    }

    #[test]
    fn zeros_matches_dtype() {
        assert_eq!(TensorData::zeros(DType::I32, 3), TensorData::I32(vec![0; 3]));
        assert_eq!(TensorData::zeros(DType::Bool, 2), TensorData::U8(vec![0; 2]));
        assert_eq!(TensorData::zeros(DType::F16, 2), TensorData::F32(vec![0.0; 2]));
    }
}
