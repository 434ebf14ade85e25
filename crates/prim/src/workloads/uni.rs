//! **UNI** — unique: drop consecutive duplicates, keeping the first of
//! each run. Table II: 512K / 2M elements.
//!
//! Shares SEL's two-pass count/offset/pack skeleton, but the predicate is
//! *stateful*: an element survives when it differs from its predecessor.
//! Tasklets whose range does not start the vector fetch the predecessor
//! element; the first tasklet of the first DPU uses a sentinel so the very
//! first element always survives. Across DPUs, the host passes each DPU
//! the last element of the previous DPU's chunk — the inter-DPU
//! communication PrIM's UNI performs through the host.

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{chunk_range, emit_tasklet_byte_range, region, widest, words, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

const BLOCK: u32 = 1024;

/// Sentinel "no predecessor" value; the generator's domain excludes it.
const NO_PREV: i32 = i32::MAX;

/// The UNI workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Uni;

fn kernel(n_tasklets: u32, flat: bool) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["nbytes", "in_base", "out_base", "prev"]);
    let counts = k.global_zeroed("counts", 4 * n_tasklets);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let (buf_in, buf_out, pbuf) = if flat {
        (0, 0, 0)
    } else {
        (
            k.alloc_wram(BLOCK * n_tasklets, 8),
            k.alloc_wram(BLOCK * n_tasklets, 8),
            k.alloc_wram(8 * n_tasklets, 8),
        )
    };
    let [nbytes, t, start, end] = k.regs(["nbytes", "t", "start", "end"]);
    let [cnt, off, len, m] = k.regs(["cnt", "off", "len", "m"]);
    let [p, e2, v, prev] = k.regs(["p", "e2", "v", "prev"]);
    let prev0 = k.reg("prev0");
    params.load(&mut k, nbytes, "nbytes");
    k.tid(t);
    emit_tasklet_byte_range(&mut k, nbytes, t, start, end, n_tasklets);

    // prev0 = predecessor of element at byte offset `start`.
    let have_pred = k.fresh_label("have_pred");
    let pred_done = k.fresh_label("pred_done");
    k.branch(Cond::Ne, start, 0, &have_pred);
    params.load(&mut k, prev0, "prev"); // host-provided (or NO_PREV sentinel)
    k.jump(&pred_done);
    k.place(&have_pred);
    params.load(&mut k, m, "in_base");
    k.add(m, m, start);
    k.sub(m, m, 4);
    if flat {
        k.lw(prev0, m, 0);
    } else {
        k.mul(p, t, 8);
        k.add(p, p, pbuf as i32);
        k.ldma(p, m, 4);
        k.lw(prev0, p, 0);
    }
    k.place(&pred_done);

    // Two passes share the same scan body via this closure.
    let emit_pass = |k: &mut KernelBuilder, second: bool| {
        // On the second pass `cnt` is reused as the output WRAM cursor
        // (scratchpad) / output pointer (flat).
        k.mov(prev, prev0);
        if flat {
            let done = k.fresh_label("pass_done");
            params.load(k, m, "in_base");
            k.add(p, m, start);
            k.add(e2, m, end);
            k.branch(Cond::Geu, p, e2, &done);
            let scan = k.label_here("scan");
            k.lw(v, p, 0);
            let skip = k.fresh_label("skip");
            k.branch(Cond::Eq, v, prev, &skip);
            if second {
                k.sw(v, cnt, 0);
                k.add(cnt, cnt, 4);
            } else {
                k.add(cnt, cnt, 1);
            }
            k.place(&skip);
            k.mov(prev, v);
            k.add(p, p, 4);
            k.branch(Cond::Ltu, p, e2, &scan);
            k.place(&done);
        } else {
            let [win, wout, wb] = k.regs(["win", "wout", "wb"]);
            k.mul(win, t, BLOCK as i32);
            k.add(wout, win, buf_out as i32);
            k.add(win, win, buf_in as i32);
            k.mov(off, start);
            let done = k.fresh_label("pass_done");
            let outer = k.label_here("outer");
            k.branch(Cond::Geu, off, end, &done);
            k.sub(len, end, off);
            k.alu(AluOp::Min, len, len, BLOCK as i32);
            params.load(k, m, "in_base");
            k.add(m, m, off);
            k.ldma(win, m, len);
            if second {
                k.movi(wb, 0);
            }
            k.mov(p, win);
            k.add(e2, win, len);
            let scan = k.label_here("scan");
            k.lw(v, p, 0);
            let skip = k.fresh_label("skip");
            k.branch(Cond::Eq, v, prev, &skip);
            if second {
                k.add(m, wout, wb);
                k.sw(v, m, 0);
                k.add(wb, wb, 4);
            } else {
                k.add(cnt, cnt, 1);
            }
            k.place(&skip);
            k.mov(prev, v);
            k.add(p, p, 4);
            k.branch(Cond::Ltu, p, e2, &scan);
            if second {
                let no_flush = k.fresh_label("no_flush");
                k.branch(Cond::Eq, wb, 0, &no_flush);
                k.sdma(wout, cnt, wb);
                k.add(cnt, cnt, wb);
                k.place(&no_flush);
            }
            k.add(off, off, len);
            k.jump(&outer);
            k.place(&done);
            k.release_reg("win");
            k.release_reg("wout");
            k.release_reg("wb");
        }
    };

    // ---- Pass 1: count. ----
    k.movi(cnt, 0);
    emit_pass(&mut k, false);
    k.mul(p, t, 4);
    k.add(p, p, counts as i32);
    k.sw(cnt, p, 0);
    bar.wait(&mut k, [p, e2, v]);
    // offset = Σ counts[0..t]; cnt becomes the output byte cursor.
    k.movi(cnt, 0);
    k.movi(p, counts as i32);
    k.mul(e2, t, 4);
    k.add(e2, e2, counts as i32);
    let of_done = k.fresh_label("of_done");
    k.branch(Cond::Geu, p, e2, &of_done);
    let of_loop = k.label_here("of_loop");
    k.lw(v, p, 0);
    k.add(cnt, cnt, v);
    k.add(p, p, 4);
    k.branch(Cond::Ltu, p, e2, &of_loop);
    k.place(&of_done);
    k.mul(cnt, cnt, 4);
    params.load(&mut k, v, "out_base");
    k.add(cnt, cnt, v);
    // ---- Pass 2: pack. ----
    emit_pass(&mut k, true);
    k.stop();
    (k.build().expect("UNI kernel builds"), params)
}

impl Workload for Uni {
    fn name(&self) -> &'static str {
        "UNI"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let n = datasets::red_sel_uni(size);
        let n_dpus = rc.n_dpus as usize;
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, rc.cached()))?;
        let cap = region(chunk_range(n, n_dpus, 0).len() as u32 * 4);
        let (in_base, out_base) = (st.addr(0), st.addr(cap));
        let mut rng = StdRng::seed_from_u64(0x55_4e49);
        // Runs of duplicates: ~25% unique boundaries.
        let mut cur = rng.gen_range(-1000..1000);
        let input = st.generate("input", 0, n, || {
            if rng.gen_ratio(1, 4) {
                cur = rng.gen_range(-1000..1000);
            }
            cur
        })?;
        st.zeroed(cap, n as u32 * 4);
        // The host hands each DPU its predecessor element — the inter-DPU
        // handoff: the last element of the nearest non-empty part before it.
        let mut last = NO_PREV;
        let prevs: Vec<i32> = (0..n_dpus)
            .map(|d| {
                let prev = last;
                last = st.last_word(&input, d).unwrap_or(last);
                prev
            })
            .collect();
        st.params(|d| {
            [
                ("nbytes", chunk_range(n, n_dpus, d).len() as u32 * 4),
                ("in_base", in_base),
                ("out_base", out_base),
                ("prev", prevs[d] as u32),
            ]
        })?;
        st.launch()?;
        let mut lens = Vec::with_capacity(n_dpus);
        st.pull_symbol("counts", |_, c| lens.push(words(c).sum::<i32>() as u32 * 4));
        // The reference keeps the first element of every run.
        let reads = st.read_back(cap, widest(&lens));
        let [input] = reads.inputs([&input]);
        let mut prev = None;
        let expect = input.filter(|&v| prev.replace(v) != Some(v));
        let validation = reads.check("UNI", &lens, expect);
        Ok(st.finish(validation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn uni_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Uni.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn uni_tiny_multi_dpu() {
        Uni.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn uni_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Uni.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }
}
