//! **ATTN** — single-query (decode-style) attention over an `L×D` K/V
//! cache, expressed as three chained kernel launches with host staging:
//!
//! 1. **QK^T**: `s[l] = Σ_d q_i8[d] · k_i8[l,d]` over the DPU's band of
//!    the sequence; the host gathers all score bands and computes the
//!    global max (the staging step a real serving stack performs).
//! 2. **softmax-approx + AV**: integer shifted-exp weights
//!    `w[l] = 128 >> min((max−s[l]) >> 4, 31)` and per-tasklet partial
//!    numerator/denominator accumulation, reduced across tasklets and
//!    gathered by the host.
//! 3. **normalize**: `o[d] = num[d] / den` after the host broadcasts the
//!    summed numerator and denominator.
//!
//! Everything is integer arithmetic (shift-based softmax approximation),
//! so the pure-Rust reference validates bit-exactly.

use std::ops::Range;

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{
    chunk_range, emit_tasklet_rows, from_bytes, region, to_bytes, validate_words, Params, Stage,
    REGION_SKEW,
};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadFamily, WorkloadRun};

/// Softmax-approx temperature shift: score gaps are scaled by `2^-4`.
const TEMP_SHIFT: i32 = 4;

/// The ATTN workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Attn;

/// Builds the three-stage kernel, specialized on the head dimension `d`.
#[allow(clippy::too_many_lines)]
fn kernel(n_tasklets: u32, d: u32) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(
        &mut k,
        &["stage", "rows", "maxs", "q_base", "k_base", "v_base", "s_base", "p_base", "o_base"],
    );
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let qg = k.global_zeroed("qg", d); // staged i8 query (stage 0)
    let nbg = k.global_zeroed("nbg", (d + 2) * 4); // summed num/den (stage 2)
    let kv_buf = k.alloc_wram(d * n_tasklets, 8); // one K or V row
    let slot = k.alloc_wram(16 * n_tasklets, 8);
    let part = k.alloc_wram((d + 2) * 4 * n_tasklets, 8); // num + den partials
    let [s, rows, t, r] = k.regs(["s", "rows", "t", "r"]);
    let [re, m, p, q] = k.regs(["re", "m", "p", "q"]);
    let [acc, v, w, mx] = k.regs(["acc", "v", "w", "mx"]);
    let [kv, sl, pb] = k.regs(["kv", "sl", "pb"]);
    params.load(&mut k, s, "stage");
    params.load(&mut k, rows, "rows");
    k.tid(t);
    k.mul(kv, t, d as i32);
    k.add(kv, kv, kv_buf as i32);
    k.mul(sl, t, 16);
    k.add(sl, sl, slot as i32);
    k.mul(pb, t, ((d + 2) * 4) as i32);
    k.add(pb, pb, part as i32);
    let stage1 = k.fresh_label("stage1");
    let stage2 = k.fresh_label("stage2");
    let exit = k.fresh_label("exit");
    k.branch(Cond::Eq, s, 1, &stage1);
    k.branch(Cond::Eq, s, 2, &stage2);

    // ---- Stage 0: score band s[l] = q · K[l] ----
    let q_ready = k.fresh_label("q_ready");
    k.branch(Cond::Ne, t, 0, &q_ready);
    params.load(&mut k, m, "q_base");
    k.movi(p, qg as i32);
    k.ldma(p, m, d as i32);
    k.place(&q_ready);
    bar.wait(&mut k, [m, p, v]);
    emit_tasklet_rows(&mut k, rows, t, [m, r, re], n_tasklets);
    k.branch(Cond::Geu, r, re, &exit);
    let s_loop = k.label_here("s_loop");
    k.mul(m, r, d as i32);
    params.load(&mut k, p, "k_base");
    k.add(m, m, p);
    k.ldma(kv, m, d as i32);
    k.movi(acc, 0);
    k.mov(p, kv);
    k.movi(q, qg as i32);
    k.add(m, kv, d as i32);
    let dot = k.label_here("dot");
    k.lb(v, p, 0);
    k.lb(w, q, 0);
    k.mul(v, v, w);
    k.add(acc, acc, v);
    k.add(p, p, 1);
    k.add(q, q, 1);
    k.branch(Cond::Ltu, p, m, &dot);
    k.sw(acc, sl, 0);
    k.mul(m, r, 4);
    params.load(&mut k, v, "s_base");
    k.add(m, m, v);
    k.sdma(sl, m, 4);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, re, &s_loop);
    k.jump(&exit);

    // ---- Stage 1: partial num/den over the band ----
    k.place(&stage1);
    params.load(&mut k, mx, "maxs");
    // Zero this tasklet's partials (num[0..d] and den).
    k.movi(v, 0);
    k.mov(p, pb);
    k.add(m, pb, ((d + 1) * 4) as i32);
    let zero_loop = k.label_here("zero_part");
    k.sw(v, p, 0);
    k.add(p, p, 4);
    k.branch(Cond::Ltu, p, m, &zero_loop);
    emit_tasklet_rows(&mut k, rows, t, [m, r, re], n_tasklets);
    let reduce = k.fresh_label("reduce");
    k.branch(Cond::Geu, r, re, &reduce);
    let av_loop = k.label_here("av_loop");
    // s[l] probe (4-byte gather from this DPU's score band).
    k.mul(m, r, 4);
    params.load(&mut k, p, "s_base");
    k.add(m, m, p);
    k.ldma(sl, m, 4);
    k.lw(v, sl, 0);
    // w = 128 >> min((maxs - s) >> TEMP_SHIFT, 31)  (branchless).
    k.sub(v, mx, v);
    k.alu(AluOp::Srl, v, v, TEMP_SHIFT);
    k.alu(AluOp::Min, v, v, 31);
    k.movi(w, 128);
    k.alu(AluOp::Srl, w, w, v);
    // den += w.
    k.lw(v, pb, (d * 4) as i32);
    k.add(v, v, w);
    k.sw(v, pb, (d * 4) as i32);
    // num[:] += w * V[l][:].
    k.mul(m, r, d as i32);
    params.load(&mut k, p, "v_base");
    k.add(m, m, p);
    k.ldma(kv, m, d as i32);
    k.mov(p, kv);
    k.mov(q, pb);
    k.add(m, kv, d as i32);
    let acc_loop = k.label_here("acc_loop");
    k.lb(v, p, 0);
    k.mul(v, v, w);
    k.lw(acc, q, 0);
    k.add(acc, acc, v);
    k.sw(acc, q, 0);
    k.add(p, p, 1);
    k.add(q, q, 4);
    k.branch(Cond::Ltu, p, m, &acc_loop);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, re, &av_loop);
    k.place(&reduce);
    bar.wait(&mut k, [m, p, v]);
    // Tasklet 0 sums every tasklet's partials into nbg and writes them out.
    k.branch(Cond::Ne, t, 0, &exit);
    k.movi(r, 0); // word index over d+1 entries
    let red_loop = k.label_here("red_loop");
    k.movi(acc, 0);
    k.movi(q, 0); // tasklet index
    k.mul(m, r, 4);
    k.add(p, m, part as i32);
    let sum_loop = k.label_here("sum_loop");
    k.lw(v, p, 0);
    k.add(acc, acc, v);
    k.add(p, p, ((d + 2) * 4) as i32);
    k.add(q, q, 1);
    k.branch(Cond::Ltu, q, n_tasklets as i32, &sum_loop);
    k.add(m, m, nbg as i32);
    k.sw(acc, m, 0);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, (d + 1) as i32, &red_loop);
    // Zero the pad word, then one aligned write-back of num+den.
    k.movi(v, 0);
    k.movi(m, (nbg + (d + 1) * 4) as i32);
    k.sw(v, m, 0);
    k.movi(p, nbg as i32);
    params.load(&mut k, m, "p_base");
    k.sdma(p, m, ((d + 2) * 4) as i32);
    k.jump(&exit);

    // ---- Stage 2: o[d] = num[d] / den ----
    k.place(&stage2);
    let nb_ready = k.fresh_label("nb_ready");
    k.branch(Cond::Ne, t, 0, &nb_ready);
    params.load(&mut k, m, "p_base");
    k.movi(p, nbg as i32);
    k.ldma(p, m, ((d + 2) * 4) as i32);
    k.place(&nb_ready);
    bar.wait(&mut k, [m, p, v]);
    emit_tasklet_rows(&mut k, rows, t, [m, r, re], n_tasklets);
    k.branch(Cond::Geu, r, re, &exit);
    k.movi(w, (nbg + d * 4) as i32);
    k.lw(w, w, 0); // den
    let o_loop = k.label_here("o_loop");
    k.mul(m, r, 4);
    k.add(p, m, nbg as i32);
    k.lw(v, p, 0);
    k.alu(AluOp::Div, v, v, w);
    k.sw(v, sl, 0);
    params.load(&mut k, p, "o_base");
    k.add(m, m, p);
    k.sdma(sl, m, 4);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, re, &o_loop);
    k.place(&exit);
    k.stop();
    (k.build().expect("ATTN kernel builds"), params)
}

/// Bit-exact reference for the whole chain.
fn reference(qv: &[i8], km: &[i8], vm: &[i8], l: usize, d: usize) -> Vec<i32> {
    let s: Vec<i32> = (0..l)
        .map(|i| {
            (0..d)
                .map(|j| i32::from(qv[j]).wrapping_mul(i32::from(km[i * d + j])))
                .fold(0i32, i32::wrapping_add)
        })
        .collect();
    let m = *s.iter().max().expect("non-empty sequence");
    let mut num = vec![0i32; d];
    let mut den = 0i32;
    for i in 0..l {
        let e = ((m - s[i]) >> TEMP_SHIFT).min(31);
        let w = 128i32 >> e;
        den = den.wrapping_add(w);
        for j in 0..d {
            num[j] = num[j].wrapping_add(w.wrapping_mul(i32::from(vm[i * d + j])));
        }
    }
    num.iter().map(|&n| n / den).collect()
}

impl Workload for Attn {
    fn name(&self) -> &'static str {
        "ATTN"
    }

    fn family(&self) -> WorkloadFamily {
        WorkloadFamily::NnInference
    }

    fn supports_cache_mode(&self) -> bool {
        false
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (l, d) = datasets::attn(size);
        let mut rng = StdRng::seed_from_u64(0x4154_544e);
        let qv: Vec<i8> = (0..d).map(|_| rng.gen_range(-8..8) as i8).collect();
        let km: Vec<i8> = (0..l * d).map(|_| rng.gen_range(-8..8) as i8).collect();
        let vm: Vec<i8> = (0..l * d).map(|_| rng.gen_range(-8..8) as i8).collect();
        let expect = reference(&qv, &km, &vm, l, d);
        let n_dpus = rc.n_dpus as usize;
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, d as u32))?;
        let bands: Vec<Range<usize>> = (0..n_dpus).map(|i| chunk_range(l, n_dpus, i)).collect();
        let max_band = bands.iter().map(Range::len).max().unwrap_or(1);
        let (q_base, k_base) = (0u32, region(d as u32));
        let kv_cap = region((max_band * d) as u32);
        let v_base = k_base + kv_cap;
        let s_base = v_base + kv_cap;
        let p_base = s_base + region(max_band as u32 * 4);
        let o_base = p_base + (d + 2) as u32 * 4 + REGION_SKEW;
        let enc = |v: &[i8]| -> Vec<u8> { v.iter().map(|&x| x as u8).collect() };
        st.broadcast(q_base, &enc(&qv));
        st.scatter(k_base, |i| enc(&km[bands[i].start * d..bands[i].end * d]))?;
        st.scatter(v_base, |i| enc(&vm[bands[i].start * d..bands[i].end * d]))?;
        let values = |stage: u32, maxs: u32| {
            let bands = &bands;
            move |i: usize| {
                let rows = if stage == 2 { d as u32 } else { bands[i].len() as u32 };
                [
                    ("stage", stage),
                    ("rows", rows),
                    ("maxs", maxs),
                    ("q_base", q_base),
                    ("k_base", k_base),
                    ("v_base", v_base),
                    ("s_base", s_base),
                    ("p_base", p_base),
                    ("o_base", o_base),
                ]
            }
        };
        // Launch 1: QK^T score bands; host gathers and takes the max.
        st.params(values(0, 0))?;
        st.launch()?;
        let lens: Vec<u32> = bands.iter().map(|bd| bd.len() as u32 * 4).collect();
        let scores = st.gather(s_base, &lens);
        let maxs = *scores.iter().max().expect("non-empty scores");
        // Launch 2: softmax-approx weights + AV partials; host sums.
        st.params(values(1, maxs as u32))?;
        st.launch()?;
        let mut nb = vec![0i32; d + 2];
        for p in st.pull(p_base, (d + 1) as u32 * 4) {
            for (i, v) in from_bytes(p).into_iter().enumerate() {
                nb[i] = nb[i].wrapping_add(v);
            }
        }
        // Launch 3: broadcast summed num/den, normalize on-DPU.
        st.broadcast(p_base, &to_bytes(&nb));
        st.params(values(2, 0))?;
        st.launch()?;
        let got = st.copy_from(0, o_base, d as u32 * 4)?;
        Ok(st.finish(validate_words("ATTN", &got, &expect)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn attn_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Attn.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn attn_tiny_multi_dpu() {
        Attn.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn attn_softmax_weights_concentrate_on_the_max_score() {
        // The shifted-exp weight of the argmax score is 128; everything at
        // least 512 below it contributes nothing — the reference encodes
        // the approximation, and the kernel must match it bit-for-bit,
        // which attn_tiny_thread_sweep already asserts. Here we sanity-
        // check the approximation itself.
        let (l, d) = (8, 4);
        let qv = vec![1i8; d];
        let mut km = vec![0i8; l * d];
        km[0..d].copy_from_slice(&[8, 8, 8, 8]); // row 0 dominates
        let vm: Vec<i8> = (0..l * d).map(|i| (i % 5) as i8).collect();
        let o = reference(&qv, &km, &vm, l, d);
        assert_eq!(o.len(), d);
    }
}
