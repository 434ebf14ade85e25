//! **SpMV-BSR** — sparse matrix-vector multiply over block-sparse (BSR)
//! tiles: the first kernel of the sparse extension family.
//!
//! Unlike the dense suite's CSR SpMV (whose per-non-zero `x[col]` gather
//! is a single word), the BSR kernel's inner loop issues three irregular
//! DMAs per stored tile: a 4-byte `colidx` probe, a `block*4`-byte gather
//! of the matching `x` block at a data-dependent address, and a
//! `block²*4`-byte tile fetch. Block rows are partitioned contiguously
//! across tasklets and banded across DPUs, mirroring the CSR layout so
//! the two SpMVs are directly comparable in Fig-5-style breakdowns.

use std::ops::Range;

use pim_asm::{DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::Cond;
use pim_rng::StdRng;

use crate::common::{chunk_range, emit_tasklet_rows, region, Params, Stage, REGION_SKEW};
use crate::datasets::bsr::{self, Bsr};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadFamily, WorkloadRun};

/// The SpMV-BSR workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpmvBsr;

/// Builds the kernel, specialized on the tile edge `b`.
fn kernel(n_tasklets: u32, b: u32) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params =
        Params::define(&mut k, &["brows", "rp_base", "col_base", "val_base", "x_base", "y_base"]);
    let stage = k.alloc_wram(8 * n_tasklets, 8); // rowptr pair / colidx probe
    let tile_buf = k.alloc_wram(b * b * 4 * n_tasklets, 8);
    let x_buf = k.alloc_wram(b * 4 * n_tasklets, 8);
    let y_buf = k.alloc_wram(b * 4 * n_tasklets, 8);
    let [brows, t, r, re] = k.regs(["brows", "t", "r", "re"]);
    let [lo, hi, c, m] = k.regs(["lo", "hi", "c", "m"]);
    let [p, q, acc, i] = k.regs(["p", "q", "acc", "i"]);
    let [v, w] = k.regs(["v", "w"]);
    let [cs, tb, xs, yb] = k.regs(["cs", "tb", "xs", "yb"]);
    params.load(&mut k, brows, "brows");
    k.tid(t);
    // Per-tasklet staging addresses.
    k.mul(cs, t, 8);
    k.add(cs, cs, stage as i32);
    k.mul(tb, t, (b * b * 4) as i32);
    k.add(tb, tb, tile_buf as i32);
    k.mul(xs, t, (b * 4) as i32);
    k.add(xs, xs, x_buf as i32);
    k.mul(yb, t, (b * 4) as i32);
    k.add(yb, yb, y_buf as i32);
    // Contiguous block-row range (last tasklet absorbs the remainder).
    emit_tasklet_rows(&mut k, brows, t, [m, r, re], n_tasklets);
    let done = k.fresh_label("done");
    k.branch(Cond::Geu, r, re, &done);

    let row_loop = k.label_here("row_loop");
    // lo, hi = rowptr[r], rowptr[r+1].
    k.mul(m, r, 4);
    params.load(&mut k, p, "rp_base");
    k.add(m, m, p);
    k.ldma(cs, m, 8);
    k.lw(lo, cs, 0);
    k.lw(hi, cs, 4);
    // Zero this block-row's y accumulator.
    k.movi(v, 0);
    k.movi(i, 0);
    k.mov(p, yb);
    let zero_loop = k.label_here("zero_y");
    k.sw(v, p, 0);
    k.add(p, p, 4);
    k.add(i, i, 1);
    k.branch(Cond::Ltu, i, b as i32, &zero_loop);

    let row_store = k.fresh_label("row_store");
    let blk_loop = k.label_here("blk_loop");
    k.branch(Cond::Geu, lo, hi, &row_store);
    // colidx[lo]: a 4-byte probe DMA.
    k.mul(m, lo, 4);
    params.load(&mut k, p, "col_base");
    k.add(m, m, p);
    k.ldma(cs, m, 4);
    k.lw(c, cs, 0);
    // Gather x[colidx*b .. +b] — the data-dependent irregular access.
    k.mul(c, c, (b * 4) as i32);
    params.load(&mut k, m, "x_base");
    k.add(m, m, c);
    k.ldma(xs, m, (b * 4) as i32);
    // Tile payload.
    k.mul(m, lo, (b * b * 4) as i32);
    params.load(&mut k, p, "val_base");
    k.add(m, m, p);
    k.ldma(tb, m, (b * b * 4) as i32);
    // y[i] += tile[i][:] · xblk.
    k.movi(i, 0);
    k.mov(p, tb);
    let i_loop = k.label_here("tile_row");
    k.mul(v, i, 4);
    k.add(v, v, yb);
    k.lw(acc, v, 0);
    k.mov(q, xs);
    k.add(c, xs, (b * 4) as i32);
    let j_loop = k.label_here("tile_col");
    k.lw(w, p, 0);
    k.lw(m, q, 0);
    k.mul(w, w, m);
    k.add(acc, acc, w);
    k.add(p, p, 4);
    k.add(q, q, 4);
    k.branch(Cond::Ltu, q, c, &j_loop);
    k.sw(acc, v, 0);
    k.add(i, i, 1);
    k.branch(Cond::Ltu, i, b as i32, &i_loop);
    k.add(lo, lo, 1);
    k.jump(&blk_loop);

    k.place(&row_store);
    k.mul(m, r, (b * 4) as i32);
    params.load(&mut k, v, "y_base");
    k.add(m, m, v);
    k.sdma(yb, m, (b * 4) as i32);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, re, &row_loop);
    k.place(&done);
    k.stop();
    (k.build().expect("SpMV-BSR kernel builds"), params)
}

impl Workload for SpmvBsr {
    fn name(&self) -> &'static str {
        "SpMV-BSR"
    }

    fn family(&self) -> WorkloadFamily {
        WorkloadFamily::Sparse
    }

    fn supports_cache_mode(&self) -> bool {
        false
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (block_rows, block_cols, block, nnzb) = datasets::spmv_bsr(size);
        let a = bsr::generate(block_rows, block_cols, block, nnzb, 0x4253_5256);
        let mut rng = StdRng::seed_from_u64(0x4253_5257);
        let x: Vec<i32> = (0..a.cols()).map(|_| rng.gen_range(-10..10)).collect();
        let expect = bsr::spmv_reference(&a, &x);
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, block as u32))?;
        let (bands, offs) = stage_bsr(&mut st, &a, &x)?;
        st.params(|d| {
            [
                ("brows", bands[d].len() as u32),
                ("rp_base", offs[0]),
                ("col_base", offs[1]),
                ("val_base", offs[2]),
                ("x_base", offs[3]),
                ("y_base", offs[4]),
            ]
        })?;
        st.launch()?;
        let lens: Vec<u32> = bands.iter().map(|bd| (bd.len() * block) as u32 * 4).collect();
        let validation = st.check("SpMV-BSR", offs[4], &lens, expect);
        Ok(st.finish(validation))
    }
}

/// Stages a BSR matrix banded by block rows across the stage's DPUs —
/// rebased `rowptr` slices, then `colidx` and the tile payloads, each in
/// its own region — and broadcasts the dense operand after them. Returns
/// the per-DPU bands and the offsets of `rowptr`, `colidx`, the tiles, the
/// dense operand and the output region.
pub(super) fn stage_bsr(
    st: &mut Stage,
    a: &Bsr,
    dense: &[i32],
) -> Result<(Vec<Range<usize>>, [u32; 5]), SimError> {
    let n_dpus = st.n_dpus();
    let tile = a.block * a.block;
    let bands: Vec<Range<usize>> =
        (0..n_dpus).map(|d| chunk_range(a.block_rows, n_dpus, d)).collect();
    let rp_slices: Vec<Vec<i32>> = bands
        .iter()
        .map(|bd| {
            let base = a.rowptr[bd.start];
            a.rowptr[bd.start..=bd.end].iter().map(|v| v - base).collect()
        })
        .collect();
    let blk_slices: Vec<Range<usize>> =
        bands.iter().map(|bd| a.rowptr[bd.start] as usize..a.rowptr[bd.end] as usize).collect();
    let col_off = region(rp_slices.iter().map(Vec::len).max().unwrap_or(1) as u32 * 4);
    let col_cap = region(blk_slices.iter().map(|s| s.len().max(1)).max().unwrap_or(1) as u32 * 4);
    let val_off = col_off + col_cap;
    let dense_off = val_off + col_cap.saturating_sub(REGION_SKEW) * tile as u32 + REGION_SKEW;
    let out_off = dense_off + region(dense.len() as u32 * 4);
    st.scatter(0, |d| rp_slices[d].as_slice())?;
    st.scatter(col_off, |d| &a.colidx[blk_slices[d].clone()])?;
    st.scatter(val_off, |d| &a.vals[blk_slices[d].start * tile..blk_slices[d].end * tile])?;
    st.broadcast(dense_off, dense);
    Ok((bands, [0, col_off, val_off, dense_off, out_off]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn spmv_bsr_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            SpmvBsr
                .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn spmv_bsr_tiny_multi_dpu() {
        SpmvBsr
            .run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn spmv_bsr_issues_gather_dma() {
        let run = SpmvBsr
            .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(8)))
            .unwrap();
        let stats = run.merged();
        // At least three DMAs per stored tile (probe + x gather + tile).
        let (_, _, _, nnzb) = datasets::spmv_bsr(DatasetSize::Tiny);
        assert!(
            stats.dma_requests >= 3 * nnzb as u64,
            "expected gather traffic, got {} requests",
            stats.dma_requests
        );
    }
}
