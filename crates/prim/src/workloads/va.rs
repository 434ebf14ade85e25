//! **VA** — element-wise vector addition (`C[i] = A[i] + B[i]`), the
//! paper's running example (Fig 2) and the simplest streaming PrIM
//! workload. Table II: 1M elements single-DPU, 4M multi-DPU.

use pim_asm::{DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{chunk_range, from_bytes, region, validate_words, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

/// Per-tasklet staging block, in bytes (256 elements).
const BLOCK: u32 = 1024;

/// The VA workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Va;

/// Scratchpad kernel: tasklets grab blocks round-robin, stage A and B via
/// DMA, add in place, and DMA the result to C.
fn kernel_scratchpad(n_tasklets: u32) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["nbytes", "a_base", "b_base", "c_base"]);
    let buf_a = k.alloc_wram(BLOCK * n_tasklets, 8);
    let buf_b = k.alloc_wram(BLOCK * n_tasklets, 8);
    let [nbytes, wa, wb, blk] = k.regs(["nbytes", "wa", "wb", "blk"]);
    let [off, m, len, pa] = k.regs(["off", "m", "len", "pa"]);
    let [pb, end, va, vb] = k.regs(["pb", "end", "va", "vb"]);
    params.load(&mut k, nbytes, "nbytes");
    // Per-tasklet WRAM buffers.
    k.tid(blk);
    k.mul(wa, blk, BLOCK as i32);
    k.add(wb, wa, buf_b as i32);
    k.add(wa, wa, buf_a as i32);
    let done = k.fresh_label("done");
    let outer = k.label_here("outer");
    // off = blk * BLOCK; done when off >= nbytes.
    k.mul(off, blk, BLOCK as i32);
    k.branch(Cond::Geu, off, nbytes, &done);
    // len = min(BLOCK, nbytes - off)
    k.sub(len, nbytes, off);
    k.alu(AluOp::Min, len, len, BLOCK as i32);
    // Stage A and B.
    params.load(&mut k, m, "a_base");
    k.add(m, m, off);
    k.ldma(wa, m, len);
    params.load(&mut k, m, "b_base");
    k.add(m, m, off);
    k.ldma(wb, m, len);
    // In-place add.
    k.mov(pa, wa);
    k.mov(pb, wb);
    k.add(end, wa, len);
    let inner = k.label_here("inner");
    k.lw(va, pa, 0);
    k.lw(vb, pb, 0);
    k.add(va, va, vb);
    k.sw(va, pa, 0);
    k.add(pa, pa, 4);
    k.add(pb, pb, 4);
    k.branch(Cond::Ltu, pa, end, &inner);
    // Write back to C.
    params.load(&mut k, m, "c_base");
    k.add(m, m, off);
    k.sdma(wa, m, len);
    k.add(blk, blk, n_tasklets as i32);
    k.jump(&outer);
    k.place(&done);
    k.stop();
    (k.build().expect("VA scratchpad kernel builds"), params)
}

/// Cache-centric kernel: A, B, C live in the flat DRAM-backed space; each
/// tasklet walks its contiguous range with plain loads/stores.
fn kernel_flat(n_tasklets: u32) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["nbytes", "a_base", "b_base", "c_base"]);
    let [nbytes, t, start, end] = k.regs(["nbytes", "t", "start", "end"]);
    let [pa, pb, pc, va, vb] = k.regs(["pa", "pb", "pc", "va", "vb"]);
    params.load(&mut k, nbytes, "nbytes");
    // Contiguous per-tasklet split in bytes: share = nbytes/T rounded to 4.
    k.tid(t);
    let share = k.reg("share");
    k.alu(AluOp::Div, share, nbytes, n_tasklets as i32);
    k.alu(AluOp::Srl, share, share, 2);
    k.alu(AluOp::Sll, share, share, 2);
    k.mul(start, t, share);
    k.add(end, start, share);
    // Last tasklet absorbs the tail.
    let not_last = k.fresh_label("not_last");
    k.branch(Cond::Ne, t, n_tasklets as i32 - 1, &not_last);
    k.mov(end, nbytes);
    k.place(&not_last);
    let done = k.fresh_label("done");
    k.branch(Cond::Geu, start, end, &done);
    params.load(&mut k, pa, "a_base");
    k.add(pa, pa, start);
    params.load(&mut k, pb, "b_base");
    k.add(pb, pb, start);
    params.load(&mut k, pc, "c_base");
    k.add(pc, pc, start);
    // end as an absolute A pointer.
    params.load(&mut k, va, "a_base");
    k.add(end, end, va);
    let inner = k.label_here("inner");
    k.lw(va, pa, 0);
    k.lw(vb, pb, 0);
    k.add(va, va, vb);
    k.sw(va, pc, 0);
    k.add(pa, pa, 4);
    k.add(pb, pb, 4);
    k.add(pc, pc, 4);
    k.branch(Cond::Ltu, pa, end, &inner);
    k.place(&done);
    k.stop();
    (k.build().expect("VA flat kernel builds"), params)
}

impl Workload for Va {
    fn name(&self) -> &'static str {
        "VA"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let n = datasets::va(size);
        let mut rng = StdRng::seed_from_u64(0x5641);
        let a: Vec<i32> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
        let b: Vec<i32> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
        let expect: Vec<i32> = a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
        let n_dpus = rc.n_dpus as usize;
        let kernel = if rc.cached() { kernel_flat } else { kernel_scratchpad };
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets))?;
        // Uniform MRAM regions sized for the largest chunk; the flat buffers
        // sit back to back.
        let cap = if rc.cached() {
            n as u32 * 4
        } else {
            region(chunk_range(n, n_dpus, 0).len() as u32 * 4)
        };
        let (a_base, b_base, c_base) = (st.addr(0), st.addr(cap), st.addr(2 * cap));
        st.scatter_words(0, &a)?;
        st.scatter_words(cap, &b)?;
        st.zeroed(2 * cap, n as u32 * 4);
        st.params(|d| {
            [
                ("nbytes", chunk_range(n, n_dpus, d).len() as u32 * 4),
                ("a_base", a_base),
                ("b_base", b_base),
                ("c_base", c_base),
            ]
        })?;
        st.launch()?;
        let mut got: Vec<i32> = Vec::with_capacity(n);
        for (d, bytes) in st.pull(2 * cap, cap).iter().enumerate() {
            got.extend(&from_bytes(bytes)[..chunk_range(n, n_dpus, d).len()]);
        }
        Ok(st.finish(validate_words("VA", &got, &expect)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunConfig;
    use pim_dpu::DpuConfig;

    #[test]
    fn va_tiny_single_dpu_all_thread_counts() {
        for t in [1, 4, 16, 24] {
            let run = Va
                .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap();
            run.assert_valid();
            assert!(run.per_dpu[0].instructions > 0, "t={t}");
        }
    }

    #[test]
    fn va_tiny_multi_dpu() {
        for d in [2, 4] {
            let run = Va
                .run(DatasetSize::Tiny, &RunConfig::multi(d, DpuConfig::paper_baseline(4)))
                .unwrap();
            run.assert_valid();
            assert_eq!(run.per_dpu.len(), d as usize);
        }
    }

    #[test]
    fn va_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        let run = Va.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap();
        run.assert_valid();
        assert!(run.per_dpu[0].dcache.is_some());
    }

    #[test]
    fn va_more_threads_do_not_break_partitioning() {
        // Uneven element counts vs tasklet counts.
        let run =
            Va.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(7))).unwrap();
        run.assert_valid();
    }
}
