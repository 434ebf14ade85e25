//! **SpMV** — sparse matrix-vector multiply over CSR. Table II: 12K×12K
//! with 80,519 non-zeros (single DPU), 14K×14K with 316,740 (multi).
//!
//! With the paper's BS, SpMV is the other canonically *memory-bound* PrIM
//! workload (Fig 5): the gather `x[col]` is a random 4-byte access that the
//! scratchpad model must fetch with a tiny DMA per non-zero.

use std::ops::Range;

use pim_asm::{DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{chunk_range, emit_tasklet_rows, region, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

/// Non-zeros staged per chunk (columns and values separately).
const NNZ_CHUNK: u32 = 128;
/// Output rows staged before a write-back.
const YBLOCK: u32 = 128;

/// The SpMV workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Spmv;

/// A CSR matrix with `i32` values.
#[derive(Debug, Clone)]
struct Csr {
    rows: usize,
    rowptr: Vec<i32>,
    colidx: Vec<i32>,
    vals: Vec<i32>,
}

fn generate(rows: usize, cols: usize, nnz: usize, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_row = vec![0usize; rows];
    for _ in 0..nnz {
        per_row[rng.gen_range(0..rows)] += 1;
    }
    let mut rowptr = Vec::with_capacity(rows + 1);
    rowptr.push(0i32);
    let mut colidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for count in &per_row {
        let mut cs: Vec<i32> = (0..*count).map(|_| rng.gen_range(0..cols as i32)).collect();
        cs.sort_unstable();
        for c in cs {
            colidx.push(c);
            vals.push(rng.gen_range(-10..10));
        }
        rowptr.push(colidx.len() as i32);
    }
    let _ = cols;
    Csr { rows, rowptr, colidx, vals }
}

/// `y = A·x`, row by row, computed as it is read.
fn reference<'a>(m: &'a Csr, x: &'a [i32]) -> impl Iterator<Item = i32> + 'a {
    (0..m.rows).map(|r| {
        (m.rowptr[r] as usize..m.rowptr[r + 1] as usize)
            .map(|i| m.vals[i].wrapping_mul(x[m.colidx[i] as usize]))
            .fold(0i32, i32::wrapping_add)
    })
}

#[allow(clippy::too_many_lines)]
fn kernel(n_tasklets: u32, flat: bool) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params =
        Params::define(&mut k, &["rows", "rp_base", "col_base", "val_base", "x_base", "y_base"]);
    let (rp_buf, col_buf, val_buf, x_buf, y_buf) = if flat {
        (0, 0, 0, 0, 0)
    } else {
        (
            k.alloc_wram(8 * n_tasklets, 8),
            k.alloc_wram(NNZ_CHUNK * 4 * n_tasklets, 8),
            k.alloc_wram(NNZ_CHUNK * 4 * n_tasklets, 8),
            k.alloc_wram(8 * n_tasklets, 8),
            k.alloc_wram(YBLOCK * 4 * n_tasklets, 8),
        )
    };
    let [rows, t, r, re] = k.regs(["rows", "t", "r", "re"]);
    let [lo, hi, m, p] = k.regs(["lo", "hi", "m", "p"]);
    let [acc, v, c, n] = k.regs(["acc", "v", "c", "n"]);
    let [yfill, ystart] = k.regs(["yfill", "ystart"]);
    // Loop-invariant bases, hoisted exactly as a compiler would.
    let [xb, xs, cb, vb] = k.regs(["xb", "xs", "cb", "vb"]);
    let [pc, pv, pend] = k.regs(["pc", "pv", "pend"]);
    params.load(&mut k, rows, "rows");
    k.tid(t);
    params.load(&mut k, xb, "x_base");
    if !flat {
        // Per-tasklet staging addresses.
        k.mul(xs, t, 8);
        k.add(xs, xs, x_buf as i32);
        k.mul(cb, t, (NNZ_CHUNK * 4) as i32);
        k.add(vb, cb, val_buf as i32);
        k.add(cb, cb, col_buf as i32);
    } else {
        params.load(&mut k, cb, "col_base");
        params.load(&mut k, vb, "val_base");
    }
    // Contiguous row range.
    emit_tasklet_rows(&mut k, rows, t, [m, r, re], n_tasklets);
    let done = k.fresh_label("done");
    k.branch(Cond::Geu, r, re, &done);
    k.mov(ystart, r);
    k.movi(yfill, 0);

    let row_loop = k.label_here("row_loop");
    // lo, hi = rowptr[r], rowptr[r+1]
    k.mul(m, r, 4);
    params.load(&mut k, p, "rp_base");
    k.add(m, m, p);
    if flat {
        k.lw(lo, m, 0);
        k.lw(hi, m, 4);
    } else {
        k.tid(p);
        k.mul(p, p, 8);
        k.add(p, p, rp_buf as i32);
        k.ldma(p, m, 8);
        k.lw(lo, p, 0);
        k.lw(hi, p, 4);
    }
    k.movi(acc, 0);
    // Chunked walk over [lo, hi).
    let row_done = k.fresh_label("row_done");
    let chunk_loop = k.label_here("chunk_loop");
    k.branch(Cond::Geu, lo, hi, &row_done);
    k.sub(n, hi, lo);
    k.alu(AluOp::Min, n, n, NNZ_CHUNK as i32);
    if !flat {
        // Stage colidx[lo..lo+n] and vals[lo..lo+n].
        k.mul(m, lo, 4);
        params.load(&mut k, p, "col_base");
        k.add(m, m, p);
        k.mul(v, n, 4);
        k.ldma(cb, m, v);
        k.mul(m, lo, 4);
        params.load(&mut k, p, "val_base");
        k.add(m, m, p);
        k.ldma(vb, m, v);
        k.mov(pc, cb);
        k.mov(pv, vb);
        k.add(pend, cb, v);
    } else {
        k.mul(m, lo, 4);
        k.add(pc, cb, m);
        k.add(pv, vb, m);
        k.mul(v, n, 4);
        k.add(pend, pc, v);
    }
    // Tight per-nnz loop: the x[col] gather is the memory-bound hot spot
    // (a 4-byte DMA in the scratchpad model; a plain load under caches).
    let nnz_loop = k.label_here("nnz_loop");
    k.lw(c, pc, 0);
    k.lw(v, pv, 0);
    k.alu(AluOp::Sll, c, c, 2);
    k.add(m, xb, c);
    if flat {
        k.lw(c, m, 0);
    } else {
        k.ldma(xs, m, 4);
        k.lw(c, xs, 0);
    }
    k.mul(v, v, c);
    k.add(acc, acc, v);
    k.add(pc, pc, 4);
    k.add(pv, pv, 4);
    k.branch(Cond::Ltu, pc, pend, &nnz_loop);
    k.add(lo, lo, n);
    k.jump(&chunk_loop);
    k.place(&row_done);
    // y staging.
    if flat {
        k.mul(p, r, 4);
        params.load(&mut k, m, "y_base");
        k.add(p, p, m);
        k.sw(acc, p, 0);
    } else {
        k.tid(p);
        k.mul(p, p, (YBLOCK * 4) as i32);
        k.add(p, p, y_buf as i32);
        k.mul(m, yfill, 4);
        k.add(p, p, m);
        k.sw(acc, p, 0);
        k.add(yfill, yfill, 1);
        // Flush when the block is full.
        let no_flush = k.fresh_label("no_flush");
        k.branch(Cond::Ltu, yfill, YBLOCK as i32, &no_flush);
        k.tid(p);
        k.mul(p, p, (YBLOCK * 4) as i32);
        k.add(p, p, y_buf as i32);
        k.mul(m, ystart, 4);
        params.load(&mut k, v, "y_base");
        k.add(m, m, v);
        k.mul(v, yfill, 4);
        k.sdma(p, m, v);
        k.add(ystart, ystart, yfill);
        k.movi(yfill, 0);
        k.place(&no_flush);
    }
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, re, &row_loop);
    if !flat {
        // Flush the tail.
        let no_tail = k.fresh_label("no_tail");
        k.branch(Cond::Eq, yfill, 0, &no_tail);
        k.tid(p);
        k.mul(p, p, (YBLOCK * 4) as i32);
        k.add(p, p, y_buf as i32);
        k.mul(m, ystart, 4);
        params.load(&mut k, v, "y_base");
        k.add(m, m, v);
        k.mul(v, yfill, 4);
        k.sdma(p, m, v);
        k.place(&no_tail);
    }
    k.place(&done);
    k.stop();
    (k.build().expect("SpMV kernel builds"), params)
}

impl Workload for Spmv {
    fn name(&self) -> &'static str {
        // The registry name predates the BSR kernels and is kept so golden
        // snapshots and saved reports stay valid; "SpMV-CSR" is the
        // unambiguous alias next to the sparse family's "SpMV-BSR".
        "SpMV"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["SpMV-CSR"]
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (rows, cols, nnz) = datasets::spmv(size);
        let m = generate(rows, cols, nnz, 0x5370_4d56);
        let mut rng = StdRng::seed_from_u64(0x5370_4d57);
        let x: Vec<i32> = (0..cols).map(|_| rng.gen_range(-10..10)).collect();
        let n_dpus = rc.n_dpus as usize;
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, rc.cached()))?;
        // Per-DPU row bands with rebased rowptr slices.
        let bands: Vec<Range<usize>> = (0..n_dpus).map(|d| chunk_range(rows, n_dpus, d)).collect();
        let rp_slices: Vec<Vec<i32>> = bands
            .iter()
            .map(|b| {
                let base = m.rowptr[b.start];
                m.rowptr[b.start..=b.end].iter().map(|v| v - base).collect()
            })
            .collect();
        let nnz_slices: Vec<Range<usize>> =
            bands.iter().map(|b| m.rowptr[b.start] as usize..m.rowptr[b.end] as usize).collect();
        let rp_cap = region(rp_slices.iter().map(Vec::len).max().unwrap_or(1) as u32 * 4);
        let nnz_cap =
            region(nnz_slices.iter().map(|s| s.len().max(1)).max().unwrap_or(1) as u32 * 4);
        let col_off = rp_cap;
        let val_off = col_off + nnz_cap;
        let x_off = val_off + nnz_cap;
        let y_off = x_off + region(cols as u32 * 4);
        st.scatter(0, |d| rp_slices[d].as_slice())?;
        st.scatter(col_off, |d| &m.colidx[nnz_slices[d].clone()])?;
        st.scatter(val_off, |d| &m.vals[nnz_slices[d].clone()])?;
        st.broadcast(x_off, &x);
        st.zeroed(y_off, rows as u32 * 4);
        let bases = [0, col_off, val_off, x_off, y_off].map(|off| st.addr(off));
        st.params(|d| {
            [
                ("rows", bands[d].len() as u32),
                ("rp_base", bases[0]),
                ("col_base", bases[1]),
                ("val_base", bases[2]),
                ("x_base", bases[3]),
                ("y_base", bases[4]),
            ]
        })?;
        st.launch()?;
        let lens: Vec<u32> = bands.iter().map(|b| b.len() as u32 * 4).collect();
        let validation = st.check("SpMV", y_off, &lens, reference(&m, &x));
        Ok(st.finish(validation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn spmv_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Spmv.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn spmv_tiny_multi_dpu() {
        Spmv.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn spmv_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Spmv.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }

    #[test]
    fn spmv_is_memory_bound() {
        let run =
            Spmv.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(16))).unwrap();
        let (_, mem, ..) = run.per_dpu[0].breakdown();
        assert!(mem > 0.2, "SpMV@16t should show memory idling, got {mem:.2}");
    }
}
