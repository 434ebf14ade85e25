//! **TS** — time-series analysis: the best (minimum squared-distance)
//! match of a query subsequence against a series, the kernel at the heart
//! of matrix-profile computation. Table II: 2K-element series / 64-element
//! query (single DPU), 64K / 64 (multi).
//!
//! Compute-bound: every candidate position costs 64 multiply-accumulate
//! iterations against WRAM-resident data (the paper groups TS with the
//! workloads whose bottleneck is issue bandwidth, not memory).

use std::ops::Range;

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{
    chunk_range, emit_tasklet_rows, region, to_bytes, validate_words, Params, Stage,
};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

/// Candidate positions processed per staging block.
const POS_BLOCK: u32 = 192;

/// The TS workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Ts;

#[allow(clippy::too_many_lines)]
fn kernel(n_tasklets: u32, qlen: u32, flat: bool) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["npos", "pos_base", "series_base", "query_base"]);
    let mins = k.global_zeroed("mins", 4 * n_tasklets);
    let idxs = k.global_zeroed("idxs", 4 * n_tasklets);
    let best_out = k.global_zeroed("best", 8); // [min_dist, global_idx]
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let qbuf = if flat { 0 } else { k.alloc_wram(qlen * 4, 8) };
    let sbuf = if flat { 0 } else { k.alloc_wram((POS_BLOCK + qlen) * 4 * n_tasklets, 8) };

    let [npos, t, start, end] = k.regs(["npos", "t", "start", "end"]);
    let [pos, blk_base, blk_end, sb] = k.regs(["pos", "blk_base", "blk_end", "sb"]);
    let [m, p, qp, j] = k.regs(["m", "p", "qp", "j"]);
    let [v, w, dist, best] = k.regs(["v", "w", "dist", "best"]);
    let besti = k.reg("besti");
    params.load(&mut k, npos, "npos");
    k.tid(t);

    if !flat {
        // Tasklet 0 stages the query into shared WRAM.
        let q_ready = k.fresh_label("q_ready");
        k.branch(Cond::Ne, t, 0, &q_ready);
        params.load(&mut k, m, "query_base");
        k.movi(p, qbuf as i32);
        k.ldma(p, m, (qlen * 4) as i32);
        k.place(&q_ready);
        bar.wait(&mut k, [m, p, v]);
    }

    // Contiguous position range per tasklet.
    emit_tasklet_rows(&mut k, npos, t, [m, start, end], n_tasklets);

    k.movi(best, i32::MAX);
    k.movi(besti, -1);
    let fold = k.fresh_label("fold");
    k.branch(Cond::Geu, start, end, &fold);
    k.mov(pos, start);
    let outer = k.label_here("outer");
    k.mov(blk_base, pos);
    k.add(blk_end, pos, POS_BLOCK as i32);
    k.alu(AluOp::Min, blk_end, blk_end, end);
    if !flat {
        // Stage series[blk_base .. blk_end + qlen - 1).
        k.tid(sb);
        k.mul(sb, sb, ((POS_BLOCK + qlen) * 4) as i32);
        k.add(sb, sb, sbuf as i32);
        k.sub(m, blk_end, blk_base);
        k.add(m, m, qlen as i32 - 1);
        k.mul(m, m, 4);
        params.load(&mut k, v, "series_base");
        k.mul(w, blk_base, 4);
        k.add(v, v, w);
        k.ldma(sb, v, m);
    }
    let inner = k.label_here("inner");
    k.movi(dist, 0);
    k.movi(j, 0);
    if flat {
        // p walks the series, qp walks the query, straight from memory.
        params.load(&mut k, p, "series_base");
        k.mul(m, pos, 4);
        k.add(p, p, m);
        params.load(&mut k, qp, "query_base");
    } else {
        k.sub(p, pos, blk_base);
        k.mul(p, p, 4);
        k.add(p, p, sb);
        k.movi(qp, qbuf as i32);
    }
    let mac = k.label_here("mac");
    k.lw(v, p, 0);
    k.lw(w, qp, 0);
    k.sub(v, v, w);
    k.mul(v, v, v);
    k.add(dist, dist, v);
    k.add(p, p, 4);
    k.add(qp, qp, 4);
    k.add(j, j, 1);
    k.branch(Cond::Ltu, j, qlen as i32, &mac);
    // Track the minimum (strict <, so the earliest position wins ties).
    let no_improve = k.fresh_label("no_improve");
    k.branch(Cond::Ge, dist, best, &no_improve);
    k.mov(best, dist);
    k.mov(besti, pos);
    k.place(&no_improve);
    k.add(pos, pos, 1);
    k.branch(Cond::Ltu, pos, blk_end, &inner);
    k.branch(Cond::Ltu, pos, end, &outer);

    // Publish per-tasklet results, then tasklet 0 folds.
    k.place(&fold);
    k.mul(p, t, 4);
    k.add(m, p, mins as i32);
    k.sw(best, m, 0);
    // Globalize the index (pos_base offsets this DPU's slice).
    let no_idx = k.fresh_label("no_idx");
    k.branch(Cond::Eq, besti, -1, &no_idx);
    params.load(&mut k, v, "pos_base");
    k.add(besti, besti, v);
    k.place(&no_idx);
    k.add(m, p, idxs as i32);
    k.sw(besti, m, 0);
    bar.wait(&mut k, [m, p, v]);
    let stop = k.fresh_label("stop");
    k.branch(Cond::Ne, t, 0, &stop);
    k.movi(best, i32::MAX);
    k.movi(besti, -1);
    k.movi(j, 0);
    let scan = k.label_here("scan");
    k.mul(p, j, 4);
    k.add(m, p, mins as i32);
    k.lw(v, m, 0);
    let next = k.fresh_label("next");
    k.branch(Cond::Ge, v, best, &next);
    k.mov(best, v);
    k.add(m, p, idxs as i32);
    k.lw(besti, m, 0);
    k.place(&next);
    k.add(j, j, 1);
    k.branch(Cond::Ltu, j, n_tasklets as i32, &scan);
    k.movi(p, best_out as i32);
    k.sw(best, p, 0);
    k.sw(besti, p, 4);
    k.place(&stop);
    k.stop();
    (k.build().expect("TS kernel builds"), params)
}

impl Workload for Ts {
    fn name(&self) -> &'static str {
        "TS"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (n, qlen) = datasets::ts(size);
        let mut rng = StdRng::seed_from_u64(0x5453);
        let series: Vec<i32> = (0..n).map(|_| rng.gen_range(-100..100)).collect();
        let query: Vec<i32> = (0..qlen).map(|_| rng.gen_range(-100..100)).collect();
        let npos = n - qlen + 1;
        // Reference: earliest position with the smallest distance.
        let (mut emin, mut eidx) = (i32::MAX, -1i32);
        for i in 0..npos {
            let d: i32 = (0..qlen)
                .map(|j| {
                    let x = series[i + j].wrapping_sub(query[j]);
                    x.wrapping_mul(x)
                })
                .fold(0i32, i32::wrapping_add);
            if d < emin {
                emin = d;
                eidx = i as i32;
            }
        }
        let n_dpus = rc.n_dpus as usize;
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, qlen as u32, rc.cached()))?;
        // Each DPU gets its position range plus the qlen-1 overlap tail.
        let slices: Vec<Range<usize>> = (0..n_dpus).map(|d| chunk_range(npos, n_dpus, d)).collect();
        let q_off = region(slices.iter().map(|r| r.len() + qlen - 1).max().unwrap_or(0) as u32 * 4);
        let (series_base, q_base) = (st.addr(0), st.addr(q_off));
        st.scatter(0, |d| to_bytes(&series[slices[d].start..slices[d].end + qlen - 1]))?;
        st.broadcast(q_off, &to_bytes(&query));
        st.params(|d| {
            [
                ("npos", slices[d].len() as u32),
                ("pos_base", slices[d].start as u32),
                ("series_base", series_base),
                ("query_base", q_base),
            ]
        })?;
        st.launch()?;
        // Host-side fold across DPUs (ascending order keeps earliest ties).
        let (mut gmin, mut gidx) = (i32::MAX, -1i32);
        for b in st.pull_symbol("best") {
            let d = i32::from_le_bytes(b[0..4].try_into().expect("8-byte best"));
            let i = i32::from_le_bytes(b[4..8].try_into().expect("8-byte best"));
            if d < gmin {
                gmin = d;
                gidx = i;
            }
        }
        Ok(st.finish(validate_words("TS", &[gmin, gidx], &[emin, eidx])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn ts_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Ts.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn ts_tiny_multi_dpu() {
        Ts.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn ts_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Ts.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }

    #[test]
    fn ts_is_compute_bound_at_16_threads() {
        let run =
            Ts.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(16))).unwrap();
        let s = &run.per_dpu[0];
        assert!(
            s.compute_utilization() > 0.5,
            "TS@16t should be compute-bound, got util {:.2}",
            s.compute_utilization()
        );
    }
}
