//! IEEE 754 binary16 emulation for 16-bit float textures.
//!
//! iOS-class devices expose only 16-bit float textures (paper Sec 4.1.3);
//! every value written to an `R16F`/`RGBA16F` texture is rounded through
//! this format, reproducing the precision cliff that motivated
//! TensorFlow.js's per-device epsilon adjustment. This is the device-side
//! counterpart of the host-side conversion in `webml-core`; the simulator is
//! deliberately standalone, modelling the GPU hardware itself.

/// Convert an `f32` to binary16 bits, rounding to nearest-even.
pub fn to_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let mut exp = ((bits >> 23) & 0xff) as i32;
    let mut mant = bits & 0x007f_ffff;

    if exp == 0xff {
        let m = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | m as u16;
    }
    exp -= 127 - 15;
    if exp >= 0x1f {
        return sign | 0x7c00;
    }
    if exp <= 0 {
        if exp < -10 {
            return sign;
        }
        mant |= 0x0080_0000;
        let shift = (14 - exp) as u32;
        let half = 1u32 << (shift - 1);
        let mut m = mant >> shift;
        if (mant & (half * 2 - 1)) > half || ((mant & (half * 2 - 1)) == half && (m & 1) == 1) {
            m += 1;
        }
        return sign | m as u16;
    }
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

/// Convert binary16 bits back to `f32`.
pub fn from_bits(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
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

/// Round an `f32` through binary16 precision (the f16 texture write path).
pub fn round(x: f32) -> f32 {
    from_bits(to_bits(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_survive() {
        for &x in &[0.0f32, 1.0, -2.5, 1024.0, 65504.0] {
            assert_eq!(round(x), x);
        }
    }

    #[test]
    fn default_f32_epsilon_underflows_to_zero() {
        // The paper's log(x + eps) bug: the default eps 1e-8 rounds to 0.
        assert_eq!(round(1e-8), 0.0);
        assert!(round(1e-4) > 0.0);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(round(1e6).is_infinite());
    }

    #[test]
    fn exhaustive_bits_round_trip() {
        // Every finite f16 bit pattern must round-trip exactly.
        for h in 0..=0xffffu16 {
            let f = from_bits(h);
            if f.is_nan() {
                continue;
            }
            assert_eq!(to_bits(f), h, "bits {h:#x}");
        }
    }
}
