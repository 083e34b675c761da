//! The layout compiler: maps logical N-D tensor shapes onto physical 2-D
//! textures (paper Sec 4.1).
//!
//! User programs address tensors in high-dimensional *logical* space (the
//! generated `getA(batch, row, col, depth)` accessors of the paper); the
//! layout owns the mapping to texture texels. Keeping the two spaces
//! separate lets the framework pick texture shapes that respect
//! device-specific size limits, and enables the *squeeze optimization*: a
//! `1x3x1x2` tensor maps to a `3x2` texture and its accessor ignores the
//! unit dimensions — worth ~1.3x in the paper.

use crate::texture::TextureFormat;

/// A compiled logical→physical mapping for one tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct TextureLayout {
    /// Logical shape.
    pub logical: Vec<usize>,
    /// Full-rank row-major strides of the logical shape.
    pub strides: Vec<usize>,
    /// Indices of non-unit dims (the squeeze optimization).
    pub squeezed_axes: Vec<usize>,
    /// Strides for the squeezed dims only.
    pub squeezed_strides: Vec<usize>,
    /// Physical texture rows (texels).
    pub tex_rows: usize,
    /// Physical texture columns (texels).
    pub tex_cols: usize,
    /// Texture format (packing and precision).
    pub format: TextureFormat,
    /// Whether accessors use the squeezed fast path.
    pub use_squeeze: bool,
}

/// Errors from layout compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// The tensor does not fit the device's maximum texture size.
    TooLarge {
        /// Required texel count.
        texels: usize,
        /// Device limit per dimension.
        max_size: usize,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::TooLarge { texels, max_size } => {
                write!(f, "tensor needs {texels} texels, exceeding the {max_size}x{max_size} texture limit")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

fn strides_of(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * dims[i + 1];
    }
    s
}

impl TextureLayout {
    /// Compile a layout for `logical` under the given format and device
    /// texture-size limit.
    ///
    /// # Errors
    /// [`LayoutError::TooLarge`] when no `rows x cols <= max x max` texture
    /// can hold the tensor.
    pub fn compile(
        logical: &[usize],
        format: TextureFormat,
        max_size: usize,
        use_squeeze: bool,
    ) -> Result<TextureLayout, LayoutError> {
        let size: usize = logical.iter().product::<usize>().max(1);
        let texels = size.div_ceil(format.channels());
        // Near-square texture, capped by the device limit.
        let mut cols = (texels as f64).sqrt().ceil() as usize;
        cols = cols.clamp(1, max_size);
        let rows = texels.div_ceil(cols);
        if rows > max_size {
            // Retry with the widest allowed texture.
            let cols = max_size;
            let rows = texels.div_ceil(cols);
            if rows > max_size {
                return Err(LayoutError::TooLarge { texels, max_size });
            }
            return Ok(Self::build(logical, rows, cols, format, use_squeeze));
        }
        Ok(Self::build(logical, rows, cols, format, use_squeeze))
    }

    fn build(
        logical: &[usize],
        tex_rows: usize,
        tex_cols: usize,
        format: TextureFormat,
        use_squeeze: bool,
    ) -> TextureLayout {
        let strides = strides_of(logical);
        let squeezed_axes: Vec<usize> =
            logical.iter().enumerate().filter(|(_, &d)| d != 1).map(|(i, _)| i).collect();
        let squeezed_dims: Vec<usize> = squeezed_axes.iter().map(|&i| logical[i]).collect();
        let sq = strides_of(&squeezed_dims);
        TextureLayout {
            logical: logical.to_vec(),
            strides,
            squeezed_axes,
            squeezed_strides: sq,
            tex_rows,
            tex_cols,
            format,
            use_squeeze,
        }
    }

    /// Logical element count.
    pub fn size(&self) -> usize {
        self.logical.iter().product::<usize>().max(1)
    }

    /// Texel count of the physical texture.
    pub fn texels(&self) -> usize {
        self.tex_rows * self.tex_cols
    }

    /// Bytes of device memory an allocation with this layout occupies —
    /// what the driver's allocator (and the injected OOM fault) sees.
    pub fn byte_size(&self) -> usize {
        self.texels() * self.format.texel_bytes()
    }

    /// Map logical N-D coordinates to the flat channel slot.
    ///
    /// With `use_squeeze` the accessor touches only non-unit dims (the
    /// generated `getA(a,b,c,d)` that "ignores a and c" in the paper). The
    /// unoptimized path reproduces the pre-optimization address arithmetic:
    /// full-rank stride math plus an explicit round-trip through 2-D texture
    /// coordinates (row/col div-mod), which is what a naive GLSL mapping
    /// performs per sample.
    #[inline]
    pub fn slot(&self, coords: &[usize]) -> usize {
        if self.use_squeeze {
            let mut idx = 0;
            for (k, &ax) in self.squeezed_axes.iter().enumerate() {
                idx += coords[ax] * self.squeezed_strides[k];
            }
            idx
        } else {
            let mut idx = 0;
            for (i, &c) in coords.iter().enumerate() {
                idx += c * self.strides[i];
            }
            // Emulate the per-sample arithmetic of the unoptimized GLSL
            // mapping: the generated accessor converts the flat index to
            // floating-point normalized UV coordinates and back before the
            // texture fetch. The squeezed fast path above compiles all of
            // this away for unit dimensions.
            let ch = self.format.channels();
            let texel = idx / ch;
            let within = idx % ch;
            if texel >= (1 << 22) {
                // f32 UV math would lose integer precision (a real WebGL
                // hazard); keep the integer path for very large textures.
                return idx;
            }
            let cols = self.tex_cols as f32;
            let rows = self.tex_rows as f32;
            let row = (texel as f32 / cols).floor();
            let col = texel as f32 - row * cols;
            let u = (col + 0.5) / cols;
            let v = (row + 0.5) / rows;
            let col_back = (u * cols - 0.5).round() as usize;
            let row_back = (v * rows - 0.5).round() as usize;
            (row_back * self.tex_cols + col_back) * ch + within
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_square_layout() {
        let l = TextureLayout::compile(&[100], TextureFormat::R32F, 16_384, true).unwrap();
        assert_eq!(l.tex_cols, 10);
        assert_eq!(l.tex_rows, 10);
        assert_eq!(l.texels(), 100);
    }

    #[test]
    fn packed_needs_quarter_texels() {
        let l = TextureLayout::compile(&[100], TextureFormat::Rgba32F, 16_384, true).unwrap();
        assert_eq!(l.texels(), 25);
    }

    #[test]
    fn respects_max_size_by_going_wide() {
        // 2^20 elements with a tiny max size of 1024: 1024x1024 exactly.
        let l = TextureLayout::compile(&[1 << 20], TextureFormat::R32F, 1024, true).unwrap();
        assert_eq!((l.tex_rows, l.tex_cols), (1024, 1024));
    }

    #[test]
    fn too_large_errors() {
        let e = TextureLayout::compile(&[64, 64, 64], TextureFormat::R32F, 16, true);
        assert!(matches!(e, Err(LayoutError::TooLarge { .. })));
    }

    #[test]
    fn squeeze_path_matches_naive_path() {
        // The paper's 1x3x1x2 example: both paths must address identically.
        let sq = TextureLayout::compile(&[1, 3, 1, 2], TextureFormat::R32F, 1024, true).unwrap();
        let naive = TextureLayout::compile(&[1, 3, 1, 2], TextureFormat::R32F, 1024, false).unwrap();
        for b in 0..3 {
            for d in 0..2 {
                let coords = [0, b, 0, d];
                assert_eq!(sq.slot(&coords), naive.slot(&coords));
                assert_eq!(sq.slot(&coords), b * 2 + d);
            }
        }
    }

    #[test]
    fn squeezed_axes_of_unit_dims() {
        let l = TextureLayout::compile(&[1, 3, 1, 2], TextureFormat::R32F, 1024, true).unwrap();
        assert_eq!(l.squeezed_axes, vec![1, 3]);
        assert_eq!(l.squeezed_strides, vec![2, 1]);
    }

    #[test]
    fn scalar_layout() {
        let l = TextureLayout::compile(&[], TextureFormat::R32F, 1024, true).unwrap();
        assert_eq!(l.size(), 1);
        assert_eq!(l.slot(&[]), 0);
    }
}
