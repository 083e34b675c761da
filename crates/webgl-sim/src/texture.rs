//! Float textures: the only storage a WebGL device offers.
//!
//! A texture is a `rows x cols` grid of texels; each texel carries one
//! channel (`R...F` formats, paper Figure 4 "for simplicity we only use the
//! red channel") or four channels (`RGBA...F`, the *packing* optimization of
//! Sec 3.9 that stores floats in all 4 channels of a texel and yielded
//! 1.3–1.4x on PoseNet). 16-bit formats round every stored value through
//! [`crate::f16`].

use crate::f16;

/// Default `MAX_TEXTURE_SIZE` of a desktop WebGL implementation.
pub const MAX_TEXTURE_SIZE_DEFAULT: usize = 16_384;

/// Internal format of a float texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextureFormat {
    /// One 32-bit float per texel (`gl.R32F`, WebGL 2.0 path).
    R32F,
    /// Four 32-bit floats per texel (packed).
    Rgba32F,
    /// One 16-bit float per texel (iOS Safari path).
    R16F,
    /// Four 16-bit floats per texel (packed, 16-bit device).
    Rgba16F,
    /// One 8-bit unsigned-normalized code per texel (`gl.R8`): quantized
    /// weight storage. Sampling returns the integer code widened to f32;
    /// stores round and clamp to `0..=255`.
    R8,
}

impl TextureFormat {
    /// Channels per texel.
    pub fn channels(self) -> usize {
        match self {
            TextureFormat::R32F | TextureFormat::R16F | TextureFormat::R8 => 1,
            TextureFormat::Rgba32F | TextureFormat::Rgba16F => 4,
        }
    }

    /// Bytes per channel.
    pub fn bytes_per_channel(self) -> usize {
        match self {
            TextureFormat::R32F | TextureFormat::Rgba32F => 4,
            TextureFormat::R16F | TextureFormat::Rgba16F => 2,
            TextureFormat::R8 => 1,
        }
    }

    /// Bytes of device memory per texel.
    pub fn texel_bytes(self) -> usize {
        self.channels() * self.bytes_per_channel()
    }

    /// Whether stored values round through binary16.
    pub fn is_half_precision(self) -> bool {
        matches!(self, TextureFormat::R16F | TextureFormat::Rgba16F)
    }

    /// Whether stored values round to integer codes in `0..=255`.
    pub fn is_byte(self) -> bool {
        matches!(self, TextureFormat::R8)
    }

    /// Whether this is a packed (4-channel) format.
    pub fn is_packed(self) -> bool {
        self.channels() == 4
    }

    /// The packed/unpacked sibling at the same precision. `R8` has no
    /// packed sibling — quantized weights stay one code per texel.
    pub fn with_packing(self, packed: bool) -> TextureFormat {
        if self.is_byte() {
            return TextureFormat::R8;
        }
        match (self.is_half_precision(), packed) {
            (false, false) => TextureFormat::R32F,
            (false, true) => TextureFormat::Rgba32F,
            (true, false) => TextureFormat::R16F,
            (true, true) => TextureFormat::Rgba16F,
        }
    }
}

/// A device-resident float texture.
#[derive(Debug, Clone)]
pub struct Texture {
    /// Physical rows.
    pub rows: usize,
    /// Physical columns.
    pub cols: usize,
    /// Internal format.
    pub format: TextureFormat,
    /// Channel values, row-major, `channels()` floats per texel. 16-bit
    /// formats store the rounded value widened back to `f32`.
    pub data: Vec<f32>,
}

impl Texture {
    /// Allocate a zeroed texture.
    pub fn new(rows: usize, cols: usize, format: TextureFormat) -> Texture {
        Texture { rows, cols, format, data: vec![0.0; rows * cols * format.channels()] }
    }

    /// Number of float slots (texels x channels).
    pub fn capacity(&self) -> usize {
        self.rows * self.cols * self.format.channels()
    }

    /// Bytes of device memory held.
    pub fn byte_size(&self) -> usize {
        self.rows * self.cols * self.format.texel_bytes()
    }

    /// Store a value at a flat channel slot, rounding on 16-bit formats and
    /// clamping to integer codes on `R8` — the `setOutput` write path.
    pub fn store(&mut self, slot: usize, value: f32) {
        self.data[slot] = if self.format.is_half_precision() {
            f16::round(value)
        } else if self.format.is_byte() {
            value.round().clamp(0.0, 255.0)
        } else {
            value
        };
    }

    /// Bulk-upload values (`texSubImage2D`), rounding on 16-bit formats and
    /// clamping to integer codes on `R8`. Slots beyond `values.len()` stay
    /// zero.
    pub fn upload(&mut self, values: &[f32]) {
        if self.format.is_half_precision() {
            for (slot, &v) in values.iter().enumerate() {
                self.data[slot] = f16::round(v);
            }
        } else if self.format.is_byte() {
            for (slot, &v) in values.iter().enumerate() {
                self.data[slot] = v.round().clamp(0.0, 255.0);
            }
        } else {
            self.data[..values.len()].copy_from_slice(values);
        }
    }

    /// Read a flat channel slot.
    pub fn fetch(&self, slot: usize) -> f32 {
        self.data[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_counts_channels() {
        assert_eq!(Texture::new(2, 3, TextureFormat::R32F).capacity(), 6);
        assert_eq!(Texture::new(2, 3, TextureFormat::Rgba32F).capacity(), 24);
    }

    #[test]
    fn byte_size_accounts_for_precision() {
        assert_eq!(Texture::new(4, 4, TextureFormat::R32F).byte_size(), 64);
        assert_eq!(Texture::new(4, 4, TextureFormat::R16F).byte_size(), 32);
        assert_eq!(Texture::new(4, 4, TextureFormat::Rgba16F).byte_size(), 128);
    }

    #[test]
    fn half_precision_rounds_on_store() {
        let mut t = Texture::new(1, 1, TextureFormat::R16F);
        t.store(0, 1e-8);
        assert_eq!(t.fetch(0), 0.0);
        t.store(0, 0.1);
        assert!((t.fetch(0) - 0.1).abs() < 1e-4);
        assert_ne!(t.fetch(0), 0.1, "0.1 is not exactly representable in f16");
    }

    #[test]
    fn full_precision_stores_exactly() {
        let mut t = Texture::new(1, 1, TextureFormat::R32F);
        t.store(0, 0.1);
        assert_eq!(t.fetch(0), 0.1);
    }

    #[test]
    fn upload_rounds_in_bulk_on_f16() {
        let mut t = Texture::new(1, 2, TextureFormat::R16F);
        t.upload(&[1e-8, 2.0]);
        assert_eq!(t.data, vec![0.0, 2.0]);
    }

    #[test]
    fn packing_sibling_format() {
        assert_eq!(TextureFormat::R32F.with_packing(true), TextureFormat::Rgba32F);
        assert_eq!(TextureFormat::Rgba16F.with_packing(false), TextureFormat::R16F);
    }
}
