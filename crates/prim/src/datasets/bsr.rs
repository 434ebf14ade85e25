//! Deterministic block-sparse (BSR) matrix generation.
//!
//! BSR stores a sparse matrix as dense `block×block` tiles indexed by a
//! CSR-like structure at block granularity: `rowptr` (length
//! `block_rows+1`) delimits each block-row's span in `colidx`, and the
//! tile payloads live contiguously in `vals` (block-major, row-major
//! inside a tile). The layout maps directly onto a DPU's MRAM windows:
//! one tile is one aligned gather DMA, and `x`/`B` gathers address
//! `colidx[k]*block` — the irregular access pattern the sparse workload
//! family exists to exercise.
//!
//! All payloads are drawn from [`pim_rng::StdRng`] seeded by the caller,
//! so a given `(shape, seed)` pair is byte-identical on every run and
//! every platform — the property the golden snapshots and differential
//! tests rely on.

use pim_rng::StdRng;

/// A block-sparse matrix with `i32` tile payloads.
#[derive(Debug, Clone)]
pub(crate) struct Bsr {
    /// Number of block rows (the matrix has `block_rows * block` rows).
    pub block_rows: usize,
    /// Number of block columns.
    pub block_cols: usize,
    /// Edge length of the square tiles.
    pub block: usize,
    /// Block-granularity row pointers, length `block_rows + 1`.
    pub rowptr: Vec<i32>,
    /// Block-column index of each stored tile, sorted within a block row.
    pub colidx: Vec<i32>,
    /// Tile payloads: `colidx.len() * block * block` values, block-major.
    pub vals: Vec<i32>,
}

impl Bsr {
    /// Rows of the expanded (element-granularity) matrix.
    #[must_use]
    pub(crate) fn rows(&self) -> usize {
        self.block_rows * self.block
    }

    /// Columns of the expanded matrix.
    #[must_use]
    pub(crate) fn cols(&self) -> usize {
        self.block_cols * self.block
    }
}

/// Generates a seeded BSR matrix with exactly `nnzb` stored tiles.
///
/// Tiles are distributed over block rows the same way the dense SpMV
/// generator distributes non-zeros (a seeded multinomial draw), then each
/// row's block columns are sampled without replacement and sorted, so the
/// structure is irregular but deterministic. Payloads are small signed
/// values (`-8..8`) to keep `i32` accumulation far from overflow at every
/// dataset size.
///
/// # Panics
///
/// Panics if `nnzb` exceeds the `block_rows * block_cols` capacity.
#[must_use]
pub(crate) fn generate(
    block_rows: usize,
    block_cols: usize,
    block: usize,
    nnzb: usize,
    seed: u64,
) -> Bsr {
    assert!(nnzb <= block_rows * block_cols, "nnzb exceeds block capacity");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_row = vec![0usize; block_rows];
    let mut placed = 0;
    while placed < nnzb {
        let r = rng.gen_range(0..block_rows);
        if per_row[r] < block_cols {
            per_row[r] += 1;
            placed += 1;
        }
    }
    let mut rowptr = Vec::with_capacity(block_rows + 1);
    rowptr.push(0i32);
    let mut colidx = Vec::with_capacity(nnzb);
    for count in &per_row {
        // Sample `count` distinct block columns.
        let mut cs: Vec<i32> = Vec::with_capacity(*count);
        while cs.len() < *count {
            let c = rng.gen_range(0..block_cols as i32);
            if !cs.contains(&c) {
                cs.push(c);
            }
        }
        cs.sort_unstable();
        colidx.extend(cs);
        rowptr.push(colidx.len() as i32);
    }
    let vals = (0..nnzb * block * block).map(|_| rng.gen_range(-8..8)).collect();
    Bsr { block_rows, block_cols, block, rowptr, colidx, vals }
}

/// Reference `y = A·x` with wrapping `i32` arithmetic (bit-exact against
/// the DPU kernels even under overflow).
#[must_use]
pub(crate) fn spmv_reference(a: &Bsr, x: &[i32]) -> Vec<i32> {
    let b = a.block;
    let mut y = vec![0i32; a.rows()];
    for br in 0..a.block_rows {
        for k in a.rowptr[br] as usize..a.rowptr[br + 1] as usize {
            let bc = a.colidx[k] as usize;
            let tile = &a.vals[k * b * b..(k + 1) * b * b];
            for i in 0..b {
                let mut acc = y[br * b + i];
                for c in 0..b {
                    acc = acc.wrapping_add(tile[i * b + c].wrapping_mul(x[bc * b + c]));
                }
                y[br * b + i] = acc;
            }
        }
    }
    y
}

/// Reference `C = A·B` for a dense row-major `B` with `n_rhs` columns.
#[must_use]
pub(crate) fn spmm_reference(a: &Bsr, bmat: &[i32], n_rhs: usize) -> Vec<i32> {
    let b = a.block;
    let mut out = vec![0i32; a.rows() * n_rhs];
    for br in 0..a.block_rows {
        for k in a.rowptr[br] as usize..a.rowptr[br + 1] as usize {
            let bc = a.colidx[k] as usize;
            let tile = &a.vals[k * b * b..(k + 1) * b * b];
            for i in 0..b {
                for c in 0..b {
                    let av = tile[i * b + c];
                    let brow = &bmat[(bc * b + c) * n_rhs..(bc * b + c + 1) * n_rhs];
                    let orow = &mut out[(br * b + i) * n_rhs..(br * b + i + 1) * n_rhs];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o = o.wrapping_add(av.wrapping_mul(bv));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_well_formed() {
        let a = generate(32, 32, 4, 64, 0xB5B5);
        let b = generate(32, 32, 4, 64, 0xB5B5);
        assert_eq!(a.rowptr, b.rowptr);
        assert_eq!(a.colidx, b.colidx);
        assert_eq!(a.vals, b.vals);
        assert_eq!(a.colidx.len(), 64);
        assert_eq!(*a.rowptr.last().unwrap() as usize, a.colidx.len());
        assert_eq!(a.vals.len(), 64 * 16);
        for br in 0..a.block_rows {
            let span = &a.colidx[a.rowptr[br] as usize..a.rowptr[br + 1] as usize];
            assert!(span.windows(2).all(|w| w[0] < w[1]), "sorted, distinct block cols");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(32, 32, 4, 64, 1);
        let b = generate(32, 32, 4, 64, 2);
        assert!(a.colidx != b.colidx || a.vals != b.vals);
    }

    #[test]
    fn spmv_reference_matches_dense_expansion() {
        let a = generate(8, 8, 4, 16, 7);
        let x: Vec<i32> = (0..a.cols() as i32).map(|i| i % 5 - 2).collect();
        // Expand to a dense matrix and multiply naively.
        let (rows, cols, b) = (a.rows(), a.cols(), a.block);
        let mut dense = vec![0i32; rows * cols];
        for br in 0..a.block_rows {
            for k in a.rowptr[br] as usize..a.rowptr[br + 1] as usize {
                let bc = a.colidx[k] as usize;
                for i in 0..b {
                    for c in 0..b {
                        dense[(br * b + i) * cols + bc * b + c] = a.vals[k * b * b + i * b + c];
                    }
                }
            }
        }
        let expect: Vec<i32> =
            (0..rows).map(|r| (0..cols).map(|c| dense[r * cols + c] * x[c]).sum()).collect();
        assert_eq!(spmv_reference(&a, &x), expect);
    }

    #[test]
    fn spmm_reference_columns_match_spmv() {
        let a = generate(8, 8, 4, 16, 9);
        let n_rhs = 3;
        let bmat: Vec<i32> = (0..a.cols() * n_rhs).map(|i| (i as i32 % 7) - 3).collect();
        let c = spmm_reference(&a, &bmat, n_rhs);
        for j in 0..n_rhs {
            let col: Vec<i32> = (0..a.cols()).map(|r| bmat[r * n_rhs + j]).collect();
            let y = spmv_reference(&a, &col);
            let got: Vec<i32> = (0..a.rows()).map(|r| c[r * n_rhs + j]).collect();
            assert_eq!(got, y, "rhs column {j}");
        }
    }
}
