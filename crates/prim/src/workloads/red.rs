//! **RED** — parallel sum reduction. Table II: 512K / 2M elements.
//!
//! Each tasklet accumulates a partial sum over round-robin blocks staged
//! through WRAM; after a barrier, tasklet 0 folds the per-tasklet partials
//! into the `result` symbol. Multi-DPU runs reduce the per-DPU results on
//! the host, as PrIM does.

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{chunk_range, emit_tasklet_byte_range, validate_words, words, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

const BLOCK: u32 = 1024;

/// The RED workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Red;

fn kernel(n_tasklets: u32, flat: bool) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["nbytes", "in_base"]);
    let partials = k.global_zeroed("partials", 4 * n_tasklets);
    let result = k.global_zeroed("result", 4);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let [nbytes, t, acc, p, end, v] = k.regs(["nbytes", "t", "acc", "p", "end", "v"]);
    params.load(&mut k, nbytes, "nbytes");
    k.tid(t);
    k.movi(acc, 0);
    if flat {
        // Walk this tasklet's contiguous share of the flat input space.
        emit_tasklet_byte_range(&mut k, nbytes, t, p, end, n_tasklets);
        let base = k.reg("base");
        params.load(&mut k, base, "in_base");
        k.add(p, p, base);
        k.add(end, end, base);
        k.release_reg("base");
        let done = k.fresh_label("done");
        k.branch(Cond::Geu, p, end, &done);
        let top = k.label_here("sum");
        k.lw(v, p, 0);
        k.add(acc, acc, v);
        k.add(p, p, 4);
        k.branch(Cond::Ltu, p, end, &top);
        k.place(&done);
    } else {
        // Round-robin 1 KB blocks staged through WRAM.
        let buf = k.alloc_wram(BLOCK * n_tasklets, 8);
        let [wbuf, blk, off, m, len] = k.regs(["wbuf", "blk", "off", "m", "len"]);
        k.mul(wbuf, t, BLOCK as i32);
        k.add(wbuf, wbuf, buf as i32);
        k.mov(blk, t);
        let merge = k.fresh_label("merge");
        let outer = k.label_here("outer");
        k.mul(off, blk, BLOCK as i32);
        k.branch(Cond::Geu, off, nbytes, &merge);
        k.sub(len, nbytes, off);
        k.alu(AluOp::Min, len, len, BLOCK as i32);
        params.load(&mut k, m, "in_base");
        k.add(m, m, off);
        k.ldma(wbuf, m, len);
        k.mov(p, wbuf);
        k.add(end, wbuf, len);
        let inner = k.label_here("inner");
        k.lw(v, p, 0);
        k.add(acc, acc, v);
        k.add(p, p, 4);
        k.branch(Cond::Ltu, p, end, &inner);
        k.add(blk, blk, n_tasklets as i32);
        k.jump(&outer);
        k.place(&merge);
    }
    // partials[t] = acc; barrier; tasklet 0 folds.
    k.mul(p, t, 4);
    k.add(p, p, partials as i32);
    k.sw(acc, p, 0);
    bar.wait(&mut k, [p, end, v]);
    let stop = k.fresh_label("stop");
    k.branch(Cond::Ne, t, 0, &stop);
    k.movi(acc, 0);
    k.movi(p, partials as i32);
    k.movi(end, (partials + 4 * n_tasklets) as i32);
    let fold = k.label_here("fold");
    k.lw(v, p, 0);
    k.add(acc, acc, v);
    k.add(p, p, 4);
    k.branch(Cond::Ltu, p, end, &fold);
    k.movi(p, result as i32);
    k.sw(acc, p, 0);
    k.place(&stop);
    k.stop();
    (k.build().expect("RED kernel builds"), params)
}

impl Workload for Red {
    fn name(&self) -> &'static str {
        "RED"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let n = datasets::red_sel_uni(size);
        let n_dpus = rc.n_dpus as usize;
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, rc.cached()))?;
        let in_base = st.addr(0);
        // The reference sum is folded as the input is generated.
        let mut rng = StdRng::seed_from_u64(0x52_4544);
        let mut expect = 0i32;
        st.generate("input", 0, n, || {
            let v = rng.gen_range(-10_000..10_000);
            expect = expect.wrapping_add(v);
            v
        })?;
        st.params(|d| {
            [("nbytes", chunk_range(n, n_dpus, d).len() as u32 * 4), ("in_base", in_base)]
        })?;
        st.launch()?;
        // Host-side final reduction across DPUs.
        let mut got = 0i32;
        st.pull_symbol("result", |_, b| got = words(b).fold(got, i32::wrapping_add));
        Ok(st.finish(validate_words("RED", &[got], &[expect])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn red_tiny_thread_sweep() {
        for t in [1, 3, 16, 24] {
            Red.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn red_tiny_multi_dpu() {
        Red.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn red_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Red.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }
}
