//! The register tile of every product in the workspace: `native`'s matmul
//! and im2col conv, and the GPU rungs' matmul, conv and conv edge pixels,
//! run their inner loop through [`gemm_tile`] — one product funnel on every
//! rung. A caller reads its left operand through an [`Lhs`] — a matrix in
//! either layout, or a conv's receptive fields — and its right operand
//! through an [`Rhs`] — a matrix in either layout, or the filter rows of a
//! conv pixel's in-bounds taps — so nothing is copied into a matrix first,
//! and compiles the tile inside a [`hot_loop!`](crate::hot_loop), so it runs
//! with the registers of the build the CPU has.
//!
//! Every output is *one* accumulator that starts at zero and takes
//! `a[i, p] · b[p, j]` for `p = 0, 1, ..` in that order, each multiply and
//! add a separate IEEE operation; a tile's shape decides which outputs share
//! a walk, never what an output adds or in which order.

use crate::backend::{BinaryOp, UnaryOp};

/// How a product reads its left operand `A`, logically `[m, k]`: where it
/// is stored, in whatever layout, so that it is never copied first.
pub trait Lhs: Copy + Sync {
    /// `[A[i, p], .., A[i + R - 1, p]]` for `p = 0, 1, .., k - 1`.
    fn rows<const R: usize>(self, i: usize) -> impl Iterator<Item = [f32; R]>;
}

/// How a product reads its right operand `B`, logically `[k, n]`, in place:
/// where each `p`'s row is, then any `W` consecutive columns of it. The
/// columns are taken in the tile's loop body, not in an iterator's closure:
/// sliced there, a row-major `B` changed how LLVM vectorised native's narrow
/// tiles (one `gemm_rows` build went from 49 to 79 `vaddps`).
pub trait Rhs: Copy + Sync {
    /// Where one row of `B` is.
    type Row;
    /// Row `p` of `B` for `p = 0, 1, .., k - 1`.
    fn rows(self) -> impl Iterator<Item = Self::Row>;
    /// `[B[p, j], .., B[p, j + W - 1]]`, `row` being row `p`.
    fn cols<const W: usize>(self, row: Self::Row, j: usize) -> [f32; W];
}

/// A matrix stored row by row: `data[row · cols + col]`.
#[derive(Clone, Copy)]
pub struct RowMajor<'a> {
    /// The values.
    pub data: &'a [f32],
    /// Values per row.
    pub cols: usize,
}

/// A matrix stored column by column: `data[col · rows + row]` — a
/// transposed operand (`colsᵀ`, `xᵀ`, a `[n, k]` weight) read in place.
#[derive(Clone, Copy)]
pub struct Transposed<'a> {
    /// The values.
    pub data: &'a [f32],
    /// Values per column.
    pub rows: usize,
}

impl Lhs for RowMajor<'_> {
    #[inline(always)]
    fn rows<const R: usize>(self, i: usize) -> impl Iterator<Item = [f32; R]> {
        let k = self.cols;
        let rows: [&[f32]; R] = std::array::from_fn(|r| &self.data[(i + r) * k..][..k]);
        (0..k).map(move |p| std::array::from_fn(|r| rows[r][p]))
    }
}

/// The `R` values a tile takes at each `p` lie next to each other.
impl Lhs for Transposed<'_> {
    #[inline(always)]
    fn rows<const R: usize>(self, i: usize) -> impl Iterator<Item = [f32; R]> {
        self.data.chunks_exact(self.rows).map(move |col| col[i..i + R].try_into().expect("R rows"))
    }
}

/// The `W` values a tile takes at each `p` lie next to each other.
impl<'a> Rhs for RowMajor<'a> {
    type Row = &'a [f32];
    #[inline(always)]
    fn rows(self) -> impl Iterator<Item = &'a [f32]> {
        self.data.chunks_exact(self.cols)
    }
    #[inline(always)]
    fn cols<const W: usize>(self, row: &'a [f32], j: usize) -> [f32; W] {
        row[j..j + W].try_into().expect("W columns")
    }
}

/// A row is its index `p`.
impl Rhs for Transposed<'_> {
    type Row = usize;
    #[inline(always)]
    fn rows(self) -> impl Iterator<Item = usize> {
        0..self.rows
    }
    #[inline(always)]
    fn cols<const W: usize>(self, p: usize, j: usize) -> [f32; W] {
        std::array::from_fn(|c| self.data[(j + c) * self.rows + p])
    }
}

/// Columns `j..j + W` of every row of `out` (rows of `n`): tiles of `R`
/// rows, then single rows.
#[inline(always)]
pub fn gemm_column_block<const R: usize, const W: usize>(
    a: impl Lhs,
    i0: usize,
    b: impl Rhs,
    n: usize,
    j: usize,
    out: &mut [f32],
) {
    let mut out_tiles = out.chunks_exact_mut(R * n);
    let mut i = i0;
    for out_tile in &mut out_tiles {
        gemm_tile::<R, W>(a, i, b, j, &mut out_tile[j..], n);
        i += R;
    }
    for (i, out_row) in (i..).zip(out_tiles.into_remainder().chunks_exact_mut(n)) {
        gemm_tile::<1, W>(a, i, b, j, &mut out_row[j..], n);
    }
}

/// An `R x W` tile of outputs, rows `i..i + R` and columns `j..j + W` of
/// `a · b`, held in registers across the whole `k` loop, so the loop does
/// one load of `b` per `R` multiply-adds instead of a load and a store per
/// multiply-add. `out` starts at the tile's first output and holds its rows
/// `n` apart.
///
/// Returns each row's `Σ A[i, p]`, added in `p` order from 0 over the same
/// walk: the `Σ x` of a product over U8 codes. A caller that ignores it pays
/// nothing; the compiler drops the unused sums.
#[inline(always)]
pub fn gemm_tile<const R: usize, const W: usize>(
    a: impl Lhs,
    i: usize,
    b: impl Rhs,
    j: usize,
    out: &mut [f32],
    n: usize,
) -> [f32; R] {
    let mut acc = [[0.0f32; W]; R];
    let mut sums = [0.0f32; R];
    for (av, b_row) in a.rows::<R>(i).zip(b.rows()) {
        let b_seg = b.cols::<W>(b_row, j);
        for r in 0..R {
            for c in 0..W {
                acc[r][c] += av[r] * b_seg[c];
            }
            sums[r] += av[r];
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n..r * n + W].copy_from_slice(acc_row);
    }
    sums
}

/// The fused epilogue over `rows`, rows of `n` outputs whose column is the
/// channel: the bias add, then the activation, each by the same
/// `BinaryOp::apply` / `UnaryOp::apply` as the unfused kernels, so a fused
/// product equals its product → add → activation composition on bits. The
/// bias is added a row at a time and the activation is resolved once
/// ([`with_unary_fn!`](crate::with_unary_fn)), so both loops vectorise.
#[inline(always)]
pub fn epilogue(rows: &mut [f32], n: usize, bias: Option<&[f32]>, activation: Option<UnaryOp>) {
    if let Some(bias) = bias.filter(|_| n > 0) {
        for row in rows.chunks_exact_mut(n) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o = BinaryOp::Add.apply(*o, b);
            }
        }
    }
    if let Some(op) = activation {
        crate::with_unary_fn!(op, f => rows.iter_mut().for_each(|v| *v = f(*v)))
    }
}
