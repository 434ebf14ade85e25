//! **BS** — binary search: for every query, the `lower_bound` index into a
//! sorted array. Table II: 32K elements / 4K queries (single DPU), 128K /
//! 16K (multi).
//!
//! BS is the paper's canonical *memory-bound, low-TLP* workload (Figs 5–8)
//! and the star of the cache-vs-scratchpad study (Figs 15–16): the
//! scratchpad kernel cannot know which probe it will need next, so each
//! probe stages a fixed 256 B block around `mid` and uses 4 bytes of it —
//! the "severe overfetching" the paper measures at 5.1× versus on-demand
//! caching, which instead fetches 64 B lines and reuses the hot top of the
//! search tree across queries.

use pim_asm::{DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{chunk_range, emit_tasklet_byte_range, region, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

/// Query/output staging block (bytes).
const QBLOCK: u32 = 512;
/// Probe staging block (bytes): what the scratchpad kernel speculatively
/// fetches around each `mid`.
const PROBE: u32 = 256;

/// The BS workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Bs;

fn kernel(n_tasklets: u32, flat: bool) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["n_elems", "qbytes", "arr_base", "q_base", "out_base"]);
    let (buf_q, buf_o, buf_p) = if flat {
        (0, 0, 0)
    } else {
        (
            k.alloc_wram(QBLOCK * n_tasklets, 8),
            k.alloc_wram(QBLOCK * n_tasklets, 8),
            k.alloc_wram(PROBE * n_tasklets, 8),
        )
    };
    let [nel, t, start, end] = k.regs(["nel", "t", "start", "end"]);
    let [off, len, m, p] = k.regs(["off", "len", "m", "p"]);
    let [e2, q, lo, hi] = k.regs(["e2", "q", "lo", "hi"]);
    let [mid, v, tmp] = k.regs(["mid", "v", "tmp"]);
    params.load(&mut k, nel, "n_elems");
    params.load(&mut k, tmp, "qbytes");
    k.tid(t);
    emit_tasklet_byte_range(&mut k, tmp, t, start, end, n_tasklets);

    // Emits the binary search on `q`; leaves the lower_bound in `lo`.
    let emit_search = |k: &mut KernelBuilder| {
        k.movi(lo, 0);
        k.mov(hi, nel);
        let search_done = k.fresh_label("search_done");
        let step = k.label_here("step");
        k.branch(Cond::Geu, lo, hi, &search_done);
        // mid = (lo + hi) / 2
        k.add(mid, lo, hi);
        k.alu(AluOp::Srl, mid, mid, 1);
        if flat {
            // v = arr[mid], straight from the flat space.
            k.mul(v, mid, 4);
            params.load(k, tmp, "arr_base");
            k.add(v, v, tmp);
            k.lw(v, v, 0);
        } else {
            // Stage the PROBE-byte block containing mid, use one word.
            let pb = k.reg("pb");
            k.mul(pb, mid, 4);
            k.alu(AluOp::And, tmp, pb, !(PROBE as i32 - 1));
            params.load(k, v, "arr_base");
            k.add(v, v, tmp);
            // per-tasklet probe buffer
            k.tid(tmp);
            k.mul(tmp, tmp, PROBE as i32);
            k.add(tmp, tmp, buf_p as i32);
            k.ldma(tmp, v, PROBE as i32);
            // v = probe_buf[(mid*4) % PROBE]
            k.alu(AluOp::And, pb, pb, PROBE as i32 - 1);
            k.add(pb, pb, tmp);
            k.lw(v, pb, 0);
            k.release_reg("pb");
        }
        let go_hi = k.fresh_label("go_hi");
        k.branch(Cond::Ge, v, q, &go_hi);
        k.add(lo, mid, 1);
        k.jump(&step);
        k.place(&go_hi);
        k.mov(hi, mid);
        k.jump(&step);
        k.place(&search_done);
    };

    if flat {
        let done = k.fresh_label("done");
        k.branch(Cond::Geu, start, end, &done);
        k.mov(off, start);
        let each = k.label_here("each");
        params.load(&mut k, p, "q_base");
        k.add(p, p, off);
        k.lw(q, p, 0);
        emit_search(&mut k);
        params.load(&mut k, p, "out_base");
        k.add(p, p, off);
        k.sw(lo, p, 0);
        k.add(off, off, 4);
        k.branch(Cond::Ltu, off, end, &each);
        k.place(&done);
    } else {
        let [wq, wo] = k.regs(["wq", "wo"]);
        k.mul(wq, t, QBLOCK as i32);
        k.add(wo, wq, buf_o as i32);
        k.add(wq, wq, buf_q as i32);
        k.mov(off, start);
        let done = k.fresh_label("done");
        let outer = k.label_here("outer");
        k.branch(Cond::Geu, off, end, &done);
        k.sub(len, end, off);
        k.alu(AluOp::Min, len, len, QBLOCK as i32);
        params.load(&mut k, m, "q_base");
        k.add(m, m, off);
        k.ldma(wq, m, len);
        k.mov(p, wq);
        k.add(e2, wq, len);
        let each = k.label_here("each");
        k.lw(q, p, 0);
        emit_search(&mut k);
        // out_block[p - wq] = lo
        k.sub(m, p, wq);
        k.add(m, m, wo);
        k.sw(lo, m, 0);
        k.add(p, p, 4);
        k.branch(Cond::Ltu, p, e2, &each);
        params.load(&mut k, m, "out_base");
        k.add(m, m, off);
        k.sdma(wo, m, len);
        k.add(off, off, len);
        k.jump(&outer);
        k.place(&done);
    }
    k.stop();
    (k.build().expect("BS kernel builds"), params)
}

impl Workload for Bs {
    fn name(&self) -> &'static str {
        "BS"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (n, n_queries) = datasets::bs(size);
        let mut rng = StdRng::seed_from_u64(0x4253);
        let mut arr: Vec<i32> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
        arr.sort_unstable();
        let queries: Vec<i32> = (0..n_queries).map(|_| rng.gen_range(0..1_000_000)).collect();
        let n_dpus = rc.n_dpus as usize;
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, rc.cached()))?;
        let arr_cap = region(n as u32 * 4);
        let qcap = region(chunk_range(n_queries, n_dpus, 0).len() as u32 * 4);
        let (arr_base, q_base, out_base) = (st.addr(0), st.addr(arr_cap), st.addr(arr_cap + qcap));
        // The sorted array is broadcast; queries are partitioned.
        st.broadcast(0, &arr);
        st.scatter_words(arr_cap, &queries)?;
        st.zeroed(arr_cap + qcap, n_queries as u32 * 4);
        st.params(|d| {
            [
                ("n_elems", n as u32),
                ("qbytes", chunk_range(n_queries, n_dpus, d).len() as u32 * 4),
                ("arr_base", arr_base),
                ("q_base", q_base),
                ("out_base", out_base),
            ]
        })?;
        st.launch()?;
        let lens: Vec<u32> =
            (0..n_dpus).map(|d| chunk_range(n_queries, n_dpus, d).len() as u32 * 4).collect();
        let expect = queries.iter().map(|q| arr.partition_point(|v| v < q) as i32);
        let validation = st.check("BS", arr_cap + qcap, &lens, expect);
        Ok(st.finish(validation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn bs_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Bs.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn bs_tiny_multi_dpu() {
        Bs.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn bs_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Bs.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }

    #[test]
    fn bs_scratchpad_overfetches_vs_cache() {
        // The Fig 16 effect: per-probe block staging reads far more DRAM
        // bytes than on-demand 64 B lines with cross-query reuse.
        let sp =
            Bs.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(16))).unwrap();
        let cfg = DpuConfig::paper_baseline(16).with_paper_caches();
        let ca = Bs.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap();
        let sp_read = sp.per_dpu[0].dram.bytes_read;
        let ca_read = ca.per_dpu[0].dram.bytes_read;
        assert!(
            sp_read > 2 * ca_read,
            "scratchpad BS ({sp_read} B) should overfetch vs cache BS ({ca_read} B)"
        );
    }
}
