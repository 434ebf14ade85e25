//! **SpMM-BSR** — sparse-times-dense matrix multiply over BSR tiles:
//! `C = A·B` with `A` block-sparse and `B` a dense row-major matrix with
//! a small number of right-hand-side columns.
//!
//! The access pattern generalizes SpMV-BSR: per stored tile the kernel
//! gathers a `block × n_rhs` slab of `B` rows at a `colidx`-dependent
//! address (one irregular DMA — the `block` source rows are contiguous in
//! row-major `B`), then runs a register-blocked triple loop accumulating
//! a `block × n_rhs` output panel in WRAM that is written back once per
//! block row.

use pim_asm::{DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::Cond;
use pim_rng::StdRng;

use super::spmv_bsr::stage_bsr;
use crate::common::{emit_tasklet_rows, validate_words, Params, Stage};
use crate::datasets::bsr;
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadFamily, WorkloadRun};

/// The SpMM-BSR workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpmmBsr;

/// Builds the kernel, specialized on tile edge `b` and `n_rhs`.
fn kernel(n_tasklets: u32, b: u32, n_rhs: u32) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params =
        Params::define(&mut k, &["brows", "rp_base", "col_base", "val_base", "b_base", "c_base"]);
    let panel = b * n_rhs * 4; // bytes of one B slab / C panel
    let stage = k.alloc_wram(8 * n_tasklets, 8);
    let tile_buf = k.alloc_wram(b * b * 4 * n_tasklets, 8);
    let b_buf = k.alloc_wram(panel * n_tasklets, 8);
    let c_buf = k.alloc_wram(panel * n_tasklets, 8);
    let [brows, t, r, re] = k.regs(["brows", "t", "r", "re"]);
    let [lo, hi, c, m] = k.regs(["lo", "hi", "c", "m"]);
    let [p, q, o, oc] = k.regs(["p", "q", "o", "oc"]);
    let [qe, a, w, v] = k.regs(["qe", "a", "w", "v"]);
    let [i, cc] = k.regs(["i", "cc"]);
    let [cs, tb, bb, cb] = k.regs(["cs", "tb", "bb", "cb"]);
    params.load(&mut k, brows, "brows");
    k.tid(t);
    k.mul(cs, t, 8);
    k.add(cs, cs, stage as i32);
    k.mul(tb, t, (b * b * 4) as i32);
    k.add(tb, tb, tile_buf as i32);
    k.mul(bb, t, panel as i32);
    k.add(bb, bb, b_buf as i32);
    k.mul(cb, t, panel as i32);
    k.add(cb, cb, c_buf as i32);
    // Contiguous block-row range.
    emit_tasklet_rows(&mut k, brows, t, [m, r, re], n_tasklets);
    let done = k.fresh_label("done");
    k.branch(Cond::Geu, r, re, &done);

    let row_loop = k.label_here("row_loop");
    k.mul(m, r, 4);
    params.load(&mut k, p, "rp_base");
    k.add(m, m, p);
    k.ldma(cs, m, 8);
    k.lw(lo, cs, 0);
    k.lw(hi, cs, 4);
    // Zero the C panel.
    k.movi(v, 0);
    k.mov(p, cb);
    k.add(qe, cb, panel as i32);
    let zero_loop = k.label_here("zero_panel");
    k.sw(v, p, 0);
    k.add(p, p, 4);
    k.branch(Cond::Ltu, p, qe, &zero_loop);

    let row_store = k.fresh_label("row_store");
    let blk_loop = k.label_here("blk_loop");
    k.branch(Cond::Geu, lo, hi, &row_store);
    // colidx probe, then the irregular B-slab gather.
    k.mul(m, lo, 4);
    params.load(&mut k, p, "col_base");
    k.add(m, m, p);
    k.ldma(cs, m, 4);
    k.lw(c, cs, 0);
    k.mul(c, c, panel as i32);
    params.load(&mut k, m, "b_base");
    k.add(m, m, c);
    k.ldma(bb, m, panel as i32);
    // Tile payload.
    k.mul(m, lo, (b * b * 4) as i32);
    params.load(&mut k, p, "val_base");
    k.add(m, m, p);
    k.ldma(tb, m, (b * b * 4) as i32);
    // C[i][:] += tile[i][cc] * B[cc][:].
    k.movi(i, 0);
    k.mov(p, tb);
    let i_loop = k.label_here("panel_row");
    k.mul(oc, i, (n_rhs * 4) as i32);
    k.add(oc, oc, cb);
    k.movi(cc, 0);
    k.mov(q, bb);
    let cc_loop = k.label_here("tile_col");
    k.lw(a, p, 0);
    k.add(p, p, 4);
    k.mov(o, oc);
    k.add(qe, q, (n_rhs * 4) as i32);
    let n_loop = k.label_here("rhs_col");
    k.lw(w, q, 0);
    k.mul(w, w, a);
    k.lw(v, o, 0);
    k.add(v, v, w);
    k.sw(v, o, 0);
    k.add(q, q, 4);
    k.add(o, o, 4);
    k.branch(Cond::Ltu, q, qe, &n_loop);
    k.add(cc, cc, 1);
    k.branch(Cond::Ltu, cc, b as i32, &cc_loop);
    k.add(i, i, 1);
    k.branch(Cond::Ltu, i, b as i32, &i_loop);
    k.add(lo, lo, 1);
    k.jump(&blk_loop);

    k.place(&row_store);
    k.mul(m, r, panel as i32);
    params.load(&mut k, v, "c_base");
    k.add(m, m, v);
    k.sdma(cb, m, panel as i32);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, re, &row_loop);
    k.place(&done);
    k.stop();
    (k.build().expect("SpMM-BSR kernel builds"), params)
}

impl Workload for SpmmBsr {
    fn name(&self) -> &'static str {
        "SpMM-BSR"
    }

    fn family(&self) -> WorkloadFamily {
        WorkloadFamily::Sparse
    }

    fn supports_cache_mode(&self) -> bool {
        false
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (block_rows, block_cols, block, nnzb, n_rhs) = datasets::spmm_bsr(size);
        let a = bsr::generate(block_rows, block_cols, block, nnzb, 0x4253_4d4d);
        let mut rng = StdRng::seed_from_u64(0x4253_4d4e);
        let bmat: Vec<i32> = (0..a.cols() * n_rhs).map(|_| rng.gen_range(-6..6)).collect();
        let expect = bsr::spmm_reference(&a, &bmat, n_rhs);
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, block as u32, n_rhs as u32))?;
        let (bands, offs) = stage_bsr(&mut st, &a, &bmat)?;
        st.params(|d| {
            [
                ("brows", bands[d].len() as u32),
                ("rp_base", offs[0]),
                ("col_base", offs[1]),
                ("val_base", offs[2]),
                ("b_base", offs[3]),
                ("c_base", offs[4]),
            ]
        })?;
        st.launch()?;
        let lens: Vec<u32> = bands.iter().map(|bd| (bd.len() * block * n_rhs) as u32 * 4).collect();
        let got = st.gather(offs[4], &lens);
        Ok(st.finish(validate_words("SpMM-BSR", &got, &expect)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn spmm_bsr_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            SpmmBsr
                .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn spmm_bsr_tiny_multi_dpu() {
        SpmmBsr
            .run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }
}
