//! The paper's Table II dataset configurations.
//!
//! Each workload interprets [`crate::DatasetSize`] through the constants
//! here; this module is the single source of truth for the sizes, so the
//! benchmark harness and documentation agree with the paper's table.

use crate::DatasetSize;

pub(crate) mod bsr;

/// Elements for the streaming workloads, per Table II.
#[must_use]
pub(crate) fn elements(size: DatasetSize, single: usize, multi: usize) -> usize {
    match size {
        DatasetSize::Tiny => 2048,
        DatasetSize::SingleDpu => single,
        DatasetSize::MultiDpu => multi,
    }
}

/// VA: 1M / 4M elements.
#[must_use]
pub(crate) fn va(size: DatasetSize) -> usize {
    elements(size, 1 << 20, 4 << 20)
}

/// RED, SEL, UNI: 512K / 2M elements.
#[must_use]
pub(crate) fn red_sel_uni(size: DatasetSize) -> usize {
    elements(size, 512 << 10, 2 << 20)
}

/// SCAN-RSS / SCAN-SSA: 256K / 1M elements.
#[must_use]
pub(crate) fn scan(size: DatasetSize) -> usize {
    elements(size, 256 << 10, 1 << 20)
}

/// HST-S / HST-L: (elements, bins) = 128K/512K elements, 256 bins.
#[must_use]
pub(crate) fn hst(size: DatasetSize) -> (usize, usize) {
    (elements(size, 128 << 10, 512 << 10), 256)
}

/// TRNS: total elements 128K / 256K, as a (rows, cols) matrix.
#[must_use]
pub(crate) fn trns(size: DatasetSize) -> (usize, usize) {
    match size {
        DatasetSize::Tiny => (64, 32),
        DatasetSize::SingleDpu => (512, 256), // 128K elements
        DatasetSize::MultiDpu => (1024, 256), // 256K elements
    }
}

/// BS: (sorted elements, queries) = 32K/4K and 128K/16K.
#[must_use]
pub(crate) fn bs(size: DatasetSize) -> (usize, usize) {
    match size {
        DatasetSize::Tiny => (1024, 64),
        DatasetSize::SingleDpu => (32 << 10, 4 << 10),
        DatasetSize::MultiDpu => (128 << 10, 16 << 10),
    }
}

/// GEMV: (rows, cols) = 2K×64 and 8K×64.
#[must_use]
pub(crate) fn gemv(size: DatasetSize) -> (usize, usize) {
    match size {
        DatasetSize::Tiny => (128, 64),
        DatasetSize::SingleDpu => (2048, 64),
        DatasetSize::MultiDpu => (8192, 64),
    }
}

/// MLP: (layers, neurons) = 3×256 and 3×1K.
#[must_use]
pub(crate) fn mlp(size: DatasetSize) -> (usize, usize) {
    match size {
        DatasetSize::Tiny => (3, 64),
        DatasetSize::SingleDpu => (3, 256),
        DatasetSize::MultiDpu => (3, 1024),
    }
}

/// TS: (series length, query length) = 2K/64 and 64K/64.
#[must_use]
pub(crate) fn ts(size: DatasetSize) -> (usize, usize) {
    match size {
        DatasetSize::Tiny => (512, 64),
        DatasetSize::SingleDpu => (2048, 64),
        DatasetSize::MultiDpu => (64 << 10, 64),
    }
}

/// NW: sequence length 256 / 512.
#[must_use]
pub(crate) fn nw(size: DatasetSize) -> usize {
    match size {
        DatasetSize::Tiny => 64,
        DatasetSize::SingleDpu => 256,
        DatasetSize::MultiDpu => 512,
    }
}

/// BFS: (vertices, edges) = 2K/15K and 16K/120K.
#[must_use]
pub(crate) fn bfs(size: DatasetSize) -> (usize, usize) {
    match size {
        DatasetSize::Tiny => (256, 1024),
        DatasetSize::SingleDpu => (2 << 10, 15_000),
        DatasetSize::MultiDpu => (16 << 10, 120_000),
    }
}

/// SpMV: (rows, cols, non-zeros) = 12K²/80519 and 14K²/316740.
#[must_use]
pub(crate) fn spmv(size: DatasetSize) -> (usize, usize, usize) {
    match size {
        DatasetSize::Tiny => (512, 512, 2048),
        DatasetSize::SingleDpu => (12 << 10, 12 << 10, 80_519),
        DatasetSize::MultiDpu => (14 << 10, 14 << 10, 316_740),
    }
}

/// SpMV-BSR: (block rows, block cols, block edge, stored blocks).
///
/// The matrix is `block_rows*block ×  block_cols*block` with `nnzb` stored
/// `block×block` dense blocks — the BSR extension family is not in the
/// paper's Table II, so sizes are chosen to match the dense SpMV's
/// footprint at each tier.
#[must_use]
pub(crate) fn spmv_bsr(size: DatasetSize) -> (usize, usize, usize, usize) {
    match size {
        DatasetSize::Tiny => (64, 64, 4, 256),
        DatasetSize::SingleDpu => (1536, 1536, 8, 1280),
        DatasetSize::MultiDpu => (1792, 1792, 8, 4992),
    }
}

/// SpMM-BSR: (block rows, block cols, block edge, stored blocks, rhs cols).
#[must_use]
pub(crate) fn spmm_bsr(size: DatasetSize) -> (usize, usize, usize, usize, usize) {
    match size {
        DatasetSize::Tiny => (48, 48, 4, 192, 8),
        DatasetSize::SingleDpu => (768, 768, 8, 768, 16),
        DatasetSize::MultiDpu => (1024, 1024, 8, 2048, 16),
    }
}

/// MLP-Q: (layers, neurons) for the quantized chained-kernel MLP —
/// same shapes as the dense MLP so the two are directly comparable.
#[must_use]
pub(crate) fn mlp_q(size: DatasetSize) -> (usize, usize) {
    mlp(size)
}

/// ATTN: (sequence length, head dimension) for single-query decode
/// attention over an `L×D` K/V cache.
#[must_use]
pub(crate) fn attn(size: DatasetSize) -> (usize, usize) {
    match size {
        DatasetSize::Tiny => (128, 32),
        DatasetSize::SingleDpu => (512, 64),
        DatasetSize::MultiDpu => (2048, 64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_single_dpu_values() {
        assert_eq!(va(DatasetSize::SingleDpu), 1 << 20);
        assert_eq!(red_sel_uni(DatasetSize::SingleDpu), 512 << 10);
        assert_eq!(scan(DatasetSize::SingleDpu), 256 << 10);
        assert_eq!(hst(DatasetSize::SingleDpu), (128 << 10, 256));
        assert_eq!(trns(DatasetSize::SingleDpu).0 * trns(DatasetSize::SingleDpu).1, 128 << 10);
        assert_eq!(bs(DatasetSize::SingleDpu), (32 << 10, 4 << 10));
        assert_eq!(gemv(DatasetSize::SingleDpu), (2048, 64));
        assert_eq!(mlp(DatasetSize::SingleDpu), (3, 256));
        assert_eq!(ts(DatasetSize::SingleDpu), (2048, 64));
        assert_eq!(nw(DatasetSize::SingleDpu), 256);
        assert_eq!(bfs(DatasetSize::SingleDpu), (2048, 15_000));
        assert_eq!(spmv(DatasetSize::SingleDpu), (12 << 10, 12 << 10, 80_519));
    }

    #[test]
    fn multi_dpu_datasets_are_larger() {
        assert!(va(DatasetSize::MultiDpu) > va(DatasetSize::SingleDpu));
        assert!(bfs(DatasetSize::MultiDpu).1 > bfs(DatasetSize::SingleDpu).1);
        assert!(spmv(DatasetSize::MultiDpu).2 > spmv(DatasetSize::SingleDpu).2);
    }
}
