//! The register tile of every product in the workspace: `native`'s matmul
//! and im2col conv, and the GPU rungs' conv bodies, run their inner loop
//! through [`gemm_tile`]. A caller reads its left operand through an
//! [`Lhs`] — a matrix in either layout, or a conv's receptive fields — so
//! nothing is copied into a matrix first, and compiles the tile inside a
//! [`hot_loop!`](crate::hot_loop), so it runs with the registers of the
//! build the CPU has.
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

/// Columns `j..j + W` of every row: tiles of `R` rows, then single rows.
#[inline(always)]
pub fn gemm_column_block<const R: usize, const W: usize>(
    a: impl Lhs,
    i0: usize,
    b: &[f32],
    n: usize,
    j: usize,
    out: &mut [f32],
) {
    let mut out_tiles = out.chunks_exact_mut(R * n);
    let mut i = i0;
    for out_tile in &mut out_tiles {
        gemm_tile::<R, W>(a, i, b, n, j, out_tile);
        i += R;
    }
    for (i, out_row) in (i..).zip(out_tiles.into_remainder().chunks_exact_mut(n)) {
        gemm_tile::<1, W>(a, i, b, n, j, out_row);
    }
}

/// An `R x W` tile of outputs, rows `i..i + R` and columns `j..j + W` of
/// `a · b` (`b` is `[k, n]`, `out` rows of `n`), held in registers across
/// the whole `k` loop, so the loop does one load of `b` per `R`
/// multiply-adds instead of a load and a store per multiply-add.
///
/// Returns each row's `Σ A[i, p]`, added in `p` order from 0 over the same
/// walk: the `Σ x` of a product over U8 codes. A caller that ignores it pays
/// nothing; the compiler drops the unused sums.
#[inline(always)]
pub fn gemm_tile<const R: usize, const W: usize>(
    a: impl Lhs,
    i: usize,
    b: &[f32],
    n: usize,
    j: usize,
    out: &mut [f32],
) -> [f32; R] {
    let mut acc = [[0.0f32; W]; R];
    let mut sums = [0.0f32; R];
    for (av, b_row) in a.rows::<R>(i).zip(b.chunks_exact(n)) {
        let b_seg: &[f32; W] = b_row[j..j + W].try_into().expect("W columns");
        for r in 0..R {
            for c in 0..W {
                acc[r][c] += av[r] * b_seg[c];
            }
            sums[r] += av[r];
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j..r * n + j + W].copy_from_slice(acc_row);
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
