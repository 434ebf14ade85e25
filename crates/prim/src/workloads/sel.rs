//! **SEL** — stream compaction: keep the odd elements, preserving order.
//! Table II: 512K / 2M elements.
//!
//! The classic two-pass structure of PrIM's SEL: each tasklet counts the
//! survivors in its contiguous range, a barrier publishes the per-tasklet
//! counts, every tasklet derives its exclusive output offset, and a second
//! pass packs survivors into WRAM and DMAs them to the compacted output.
//! Multi-DPU runs compact per DPU; the host gathers using the per-DPU
//! counts (exactly PrIM's host-side reconstruction).

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond, Reg};
use pim_rng::StdRng;

use crate::common::{chunk_range, emit_tasklet_byte_range, region, widest, words, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

const BLOCK: u32 = 1024;

/// The SEL workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sel;

/// The predicate: keep odd values.
fn keep(v: i32) -> bool {
    v & 1 == 1
}

/// Emits `w = v & 1`-style predicate evaluation; branches to `skip` when
/// the element is dropped.
fn emit_predicate(k: &mut KernelBuilder, v: Reg, w: Reg, skip: &pim_asm::LabelId) {
    k.alu(AluOp::And, w, v, 1);
    k.branch(Cond::Eq, w, 0, skip);
}

fn kernel(n_tasklets: u32, flat: bool) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["nbytes", "in_base", "out_base"]);
    let counts = k.global_zeroed("counts", 4 * n_tasklets);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let (buf_in, buf_out) = if flat {
        (0, 0)
    } else {
        (k.alloc_wram(BLOCK * n_tasklets, 8), k.alloc_wram(BLOCK * n_tasklets, 8))
    };
    let [nbytes, t, start, end] = k.regs(["nbytes", "t", "start", "end"]);
    let [cnt, off, len, m] = k.regs(["cnt", "off", "len", "m"]);
    let [p, e2, v, w] = k.regs(["p", "e2", "v", "w"]);
    params.load(&mut k, nbytes, "nbytes");
    k.tid(t);
    emit_tasklet_byte_range(&mut k, nbytes, t, start, end, n_tasklets);
    k.movi(cnt, 0);

    // ---- Pass 1: count survivors in [start, end). ----
    if flat {
        let p1_done = k.fresh_label("p1_done");
        params.load(&mut k, m, "in_base");
        k.add(p, m, start);
        k.add(e2, m, end);
        k.branch(Cond::Geu, p, e2, &p1_done);
        let scan = k.label_here("p1_scan");
        k.lw(v, p, 0);
        let skip = k.fresh_label("p1_skip");
        emit_predicate(&mut k, v, w, &skip);
        k.add(cnt, cnt, 1);
        k.place(&skip);
        k.add(p, p, 4);
        k.branch(Cond::Ltu, p, e2, &scan);
        k.place(&p1_done);
    } else {
        let win = k.reg("win");
        k.mul(win, t, BLOCK as i32);
        k.add(win, win, buf_in as i32);
        k.mov(off, start);
        let p1_done = k.fresh_label("p1_done");
        let p1_outer = k.label_here("p1_outer");
        k.branch(Cond::Geu, off, end, &p1_done);
        k.sub(len, end, off);
        k.alu(AluOp::Min, len, len, BLOCK as i32);
        params.load(&mut k, m, "in_base");
        k.add(m, m, off);
        k.ldma(win, m, len);
        k.mov(p, win);
        k.add(e2, win, len);
        let scan = k.label_here("p1_scan");
        k.lw(v, p, 0);
        let skip = k.fresh_label("p1_skip");
        emit_predicate(&mut k, v, w, &skip);
        k.add(cnt, cnt, 1);
        k.place(&skip);
        k.add(p, p, 4);
        k.branch(Cond::Ltu, p, e2, &scan);
        k.add(off, off, len);
        k.jump(&p1_outer);
        k.place(&p1_done);
        k.release_reg("win");
    }

    // counts[t] = cnt; barrier; offset = Σ counts[0..t].
    k.mul(p, t, 4);
    k.add(p, p, counts as i32);
    k.sw(cnt, p, 0);
    bar.wait(&mut k, [p, e2, v]);
    let outpos = k.reg("outpos");
    k.movi(outpos, 0);
    k.movi(p, counts as i32);
    k.mul(e2, t, 4);
    k.add(e2, e2, counts as i32);
    let of_done = k.fresh_label("of_done");
    k.branch(Cond::Geu, p, e2, &of_done);
    let of_loop = k.label_here("of_loop");
    k.lw(v, p, 0);
    k.add(outpos, outpos, v);
    k.add(p, p, 4);
    k.branch(Cond::Ltu, p, e2, &of_loop);
    k.place(&of_done);
    // outpos = out_base + offset * 4
    k.mul(outpos, outpos, 4);
    params.load(&mut k, v, "out_base");
    k.add(outpos, outpos, v);

    // ---- Pass 2: pack survivors and emit. ----
    if flat {
        let p2_done = k.fresh_label("p2_done");
        params.load(&mut k, m, "in_base");
        k.add(p, m, start);
        k.add(e2, m, end);
        k.branch(Cond::Geu, p, e2, &p2_done);
        let scan = k.label_here("p2_scan");
        k.lw(v, p, 0);
        let skip = k.fresh_label("p2_skip");
        emit_predicate(&mut k, v, w, &skip);
        k.sw(v, outpos, 0);
        k.add(outpos, outpos, 4);
        k.place(&skip);
        k.add(p, p, 4);
        k.branch(Cond::Ltu, p, e2, &scan);
        k.place(&p2_done);
    } else {
        let [win, wout, wb] = k.regs(["win", "wout", "wb"]);
        k.mul(win, t, BLOCK as i32);
        k.add(wout, win, buf_out as i32);
        k.add(win, win, buf_in as i32);
        k.mov(off, start);
        let p2_done = k.fresh_label("p2_done");
        let p2_outer = k.label_here("p2_outer");
        k.branch(Cond::Geu, off, end, &p2_done);
        k.sub(len, end, off);
        k.alu(AluOp::Min, len, len, BLOCK as i32);
        params.load(&mut k, m, "in_base");
        k.add(m, m, off);
        k.ldma(win, m, len);
        k.movi(wb, 0);
        k.mov(p, win);
        k.add(e2, win, len);
        let scan = k.label_here("p2_scan");
        k.lw(v, p, 0);
        let skip = k.fresh_label("p2_skip");
        emit_predicate(&mut k, v, w, &skip);
        k.add(w, wout, wb);
        k.sw(v, w, 0);
        k.add(wb, wb, 4);
        k.place(&skip);
        k.add(p, p, 4);
        k.branch(Cond::Ltu, p, e2, &scan);
        // Flush this block's survivors.
        let no_flush = k.fresh_label("no_flush");
        k.branch(Cond::Eq, wb, 0, &no_flush);
        k.sdma(wout, outpos, wb);
        k.add(outpos, outpos, wb);
        k.place(&no_flush);
        k.add(off, off, len);
        k.jump(&p2_outer);
        k.place(&p2_done);
    }
    k.stop();
    (k.build().expect("SEL kernel builds"), params)
}

impl Workload for Sel {
    fn name(&self) -> &'static str {
        "SEL"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let n = datasets::red_sel_uni(size);
        let n_dpus = rc.n_dpus as usize;
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, rc.cached()))?;
        let cap = region(chunk_range(n, n_dpus, 0).len() as u32 * 4);
        let (in_base, out_base) = (st.addr(0), st.addr(cap));
        let mut rng = StdRng::seed_from_u64(0x53_454c);
        let input = st.generate("input", 0, n, || rng.gen_range(-10_000..10_000))?;
        st.zeroed(cap, n as u32 * 4);
        st.params(|d| {
            [
                ("nbytes", chunk_range(n, n_dpus, d).len() as u32 * 4),
                ("in_base", in_base),
                ("out_base", out_base),
            ]
        })?;
        st.launch()?;
        // Gather: per-DPU survivor counts, then the compacted prefixes.
        let mut lens = Vec::with_capacity(n_dpus);
        st.pull_symbol("counts", |_, c| lens.push(words(c).sum::<i32>() as u32 * 4));
        let reads = st.read_back(cap, widest(&lens));
        let [input] = reads.inputs([&input]);
        let validation = reads.check("SEL", &lens, input.filter(|v| keep(*v)));
        Ok(st.finish(validation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn sel_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Sel.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn sel_tiny_multi_dpu() {
        Sel.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn sel_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Sel.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }
}
