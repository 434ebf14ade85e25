//! **NW** — Needleman-Wunsch global sequence alignment (the full DP score
//! matrix). Table II: 256-symbol sequences (single DPU), 512 (multi).
//!
//! The score matrix is stored with its boundary row and column included
//! (`H` is `(n+1)×(n+1)`), so the kernel's 8×8 sub-block wavefront needs no
//! boundary special cases: every block reads its top row and left column
//! from `H` itself. Tasklets pick up the blocks of each anti-diagonal and a
//! barrier separates diagonals — the serialization that keeps NW's TLP low
//! and its sync fraction high.
//!
//! Multi-DPU runs tile `H` into `n/D`-wide super-blocks and walk *their*
//! anti-diagonals at the host level, pushing each block's boundary
//! sub-matrix before, and pulling the computed interior after, every
//! launch. The boundary traffic grows with the DPU count — the reason the
//! paper's Fig 10 shows NW scaling sub-linearly.

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{region, to_bytes, validate_words, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

/// Sub-block edge in cells.
const B: u32 = 8;
const GAP: i32 = -1;
const MATCH: i32 = 1;
const MISMATCH: i32 = -1;

/// The NW workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Nw;

#[allow(clippy::too_many_lines)]
fn kernel(n_tasklets: u32, flat: bool) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["n", "h_base", "a_base", "b_base"]);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    // Per-tasklet staging: (B+1)×(B+1) block + the two sequence segments.
    let blk_words = (B + 1) * (B + 1);
    let (buf, abuf, bbuf) = if flat {
        (0, 0, 0)
    } else {
        (
            k.alloc_wram(blk_words * 4 * n_tasklets, 8),
            k.alloc_wram(B * 4 * n_tasklets, 8),
            k.alloc_wram(B * 4 * n_tasklets, 8),
        )
    };
    let [n, t, nb, stride] = k.regs(["n", "t", "nb", "stride"]);
    let [w, bi, bj, m] = k.regs(["w", "bi", "bj", "m"]);
    let [p, v, i, j] = k.regs(["p", "v", "i", "j"]);
    let [tmp, d1, d2, bufb] = k.regs(["tmp", "d1", "d2", "bufb"]);
    let [sab, sbb] = k.regs(["sab", "sbb"]);
    params.load(&mut k, n, "n");
    k.tid(t);
    let stop_l = k.fresh_label("stop");
    k.branch(Cond::Eq, n, 0, &stop_l);
    k.alu(AluOp::Div, nb, n, B as i32);
    k.add(stride, n, 1);
    k.mul(stride, stride, 4);
    if !flat {
        k.mul(bufb, t, (blk_words * 4) as i32);
        k.add(bufb, bufb, buf as i32);
        k.mul(sab, t, (B * 4) as i32);
        k.add(sbb, sab, bbuf as i32);
        k.add(sab, sab, abuf as i32);
    }
    // for w in 0 .. 2*nb - 1
    k.movi(w, 0);
    let wave_loop = k.label_here("wave_loop");
    // bi from lo = max(0, w - nb + 1) + t, stepping by T, while bi <= min(w, nb-1).
    k.sub(bi, w, nb);
    k.add(bi, bi, 1);
    k.alu(AluOp::Max, bi, bi, 0);
    k.add(bi, bi, t);
    let wave_done = k.fresh_label("wave_done");
    let block_loop = k.label_here("block_loop");
    k.alu(AluOp::Min, tmp, w, nb);
    let nb_m1 = k.fresh_label("nb_clip");
    k.branch(Cond::Ltu, w, nb, &nb_m1);
    k.sub(tmp, nb, 1);
    k.place(&nb_m1);
    k.branch(Cond::Lt, tmp, bi, &wave_done); // bi > min(w, nb-1)?
    k.sub(bj, w, bi);

    // ---- One B×B block at (bi, bj): cells H[gr0+1..][gc0+1..] ----
    // gr0 = bi*B, gc0 = bj*B (d1, d2 hold them through staging).
    k.mul(d1, bi, B as i32);
    k.mul(d2, bj, B as i32);
    if !flat {
        // Stage top row (B+1 words) from H[gr0][gc0].
        k.mul(m, d1, stride);
        k.mul(p, d2, 4);
        k.add(m, m, p);
        params.load(&mut k, p, "h_base");
        k.add(m, m, p);
        k.ldma(bufb, m, ((B + 1) * 4) as i32);
        // Stage left column: B single-word DMAs from H[gr0+1+i][gc0].
        k.movi(i, 0);
        let lc = k.label_here("left_col");
        k.add(tmp, d1, i);
        k.add(tmp, tmp, 1);
        k.mul(m, tmp, stride);
        k.mul(p, d2, 4);
        k.add(m, m, p);
        params.load(&mut k, p, "h_base");
        k.add(m, m, p);
        // buf[(i+1)*(B+1)]
        k.add(tmp, i, 1);
        k.mul(tmp, tmp, ((B + 1) * 4) as i32);
        k.add(tmp, tmp, bufb);
        k.ldma(tmp, m, 4);
        k.add(i, i, 1);
        k.branch(Cond::Ltu, i, B as i32, &lc);
        // Stage sequence segments a[gr0..+B], b[gc0..+B].
        k.mul(m, d1, 4);
        params.load(&mut k, p, "a_base");
        k.add(m, m, p);
        k.ldma(sab, m, (B * 4) as i32);
        k.mul(m, d2, 4);
        params.load(&mut k, p, "b_base");
        k.add(m, m, p);
        k.ldma(sbb, m, (B * 4) as i32);
    }
    // Compute cells i,j in 1..=B.
    k.movi(i, 1);
    let cell_outer = k.label_here("cell_outer");
    k.movi(j, 1);
    let cell_inner = k.label_here("cell_inner");
    // d?: addresses. Load a[i-1], b[j-1]; s into tmp.
    if flat {
        // a and b straight from memory: a[gr0 + i - 1].
        k.mul(p, bi, B as i32);
        k.add(p, p, i);
        k.sub(p, p, 1);
        k.mul(p, p, 4);
        params.load(&mut k, v, "a_base");
        k.add(p, p, v);
        k.lw(d1, p, 0);
        k.mul(p, bj, B as i32);
        k.add(p, p, j);
        k.sub(p, p, 1);
        k.mul(p, p, 4);
        params.load(&mut k, v, "b_base");
        k.add(p, p, v);
        k.lw(d2, p, 0);
    } else {
        k.mul(p, i, 4);
        k.add(p, p, sab);
        k.lw(d1, p, -4);
        k.mul(p, j, 4);
        k.add(p, p, sbb);
        k.lw(d2, p, -4);
    }
    k.movi(tmp, MISMATCH);
    let noeq = k.fresh_label("noeq");
    k.branch(Cond::Ne, d1, d2, &noeq);
    k.movi(tmp, MATCH);
    k.place(&noeq);
    // Neighbour loads.
    let cell_addr = |k: &mut KernelBuilder,
                     ii: pim_isa::Reg,
                     jj: pim_isa::Reg,
                     di: i32,
                     dj: i32,
                     dst: pim_isa::Reg| {
        if flat {
            // H[gr0 + ii + di][gc0 + jj + dj]
            k.mul(dst, bi, B as i32);
            k.add(dst, dst, ii);
            k.add(dst, dst, di);
            k.mul(dst, dst, stride);
            k.mul(p, bj, B as i32);
            k.add(p, p, jj);
            k.add(p, p, dj);
            k.mul(p, p, 4);
            k.add(dst, dst, p);
            params.load(k, p, "h_base");
            k.add(dst, dst, p);
        } else {
            // buf[(ii+di)*(B+1) + jj+dj]
            k.add(dst, ii, di);
            k.mul(dst, dst, ((B + 1) * 4) as i32);
            k.mul(p, jj, 4);
            k.add(dst, dst, p);
            k.add(dst, dst, dj * 4);
            k.add(dst, dst, bufb);
        }
    };
    // v = diag + s
    cell_addr(&mut k, i, j, -1, -1, m);
    k.lw(v, m, 0);
    k.add(v, v, tmp);
    // up - 1
    cell_addr(&mut k, i, j, -1, 0, m);
    k.lw(d1, m, 0);
    k.add(d1, d1, GAP);
    k.alu(AluOp::Max, v, v, d1);
    // left - 1
    cell_addr(&mut k, i, j, 0, -1, m);
    k.lw(d1, m, 0);
    k.add(d1, d1, GAP);
    k.alu(AluOp::Max, v, v, d1);
    // Store H[i][j].
    cell_addr(&mut k, i, j, 0, 0, m);
    k.sw(v, m, 0);
    k.add(j, j, 1);
    k.branch(Cond::Ltu, j, B as i32 + 1, &cell_inner);
    k.add(i, i, 1);
    k.branch(Cond::Ltu, i, B as i32 + 1, &cell_outer);
    if !flat {
        // Write the B×B interior back, one row per DMA.
        k.movi(i, 0);
        let wb = k.label_here("write_back");
        // m = h_base + (gr0+1+i)*stride + (gc0+1)*4
        k.mul(tmp, bi, B as i32);
        k.add(tmp, tmp, 1);
        k.add(tmp, tmp, i);
        k.mul(m, tmp, stride);
        k.mul(p, bj, B as i32);
        k.add(p, p, 1);
        k.mul(p, p, 4);
        k.add(m, m, p);
        params.load(&mut k, p, "h_base");
        k.add(m, m, p);
        // src = buf[(i+1)*(B+1) + 1]
        k.add(tmp, i, 1);
        k.mul(tmp, tmp, ((B + 1) * 4) as i32);
        k.add(tmp, tmp, 4);
        k.add(tmp, tmp, bufb);
        k.sdma(tmp, m, (B * 4) as i32);
        k.add(i, i, 1);
        k.branch(Cond::Ltu, i, B as i32, &wb);
    }
    // Next block of this wave for this tasklet.
    k.add(bi, bi, n_tasklets as i32);
    k.jump(&block_loop);
    k.place(&wave_done);
    bar.wait(&mut k, [m, p, v]);
    k.add(w, w, 1);
    k.mul(tmp, nb, 2);
    k.sub(tmp, tmp, 1);
    k.branch(Cond::Ltu, w, tmp, &wave_loop);
    k.place(&stop_l);
    k.stop();
    (k.build().expect("NW kernel builds"), params)
}

fn reference(a: &[i32], b: &[i32]) -> Vec<i32> {
    let n = a.len();
    let w = n + 1;
    let mut h = vec![0i32; w * w];
    for (j, cell) in h[..w].iter_mut().enumerate() {
        *cell = j as i32 * GAP;
    }
    for i in 0..w {
        h[i * w] = i as i32 * GAP;
    }
    for i in 1..w {
        for j in 1..w {
            let s = if a[i - 1] == b[j - 1] { MATCH } else { MISMATCH };
            h[i * w + j] = (h[(i - 1) * w + j - 1] + s)
                .max(h[(i - 1) * w + j] + GAP)
                .max(h[i * w + j - 1] + GAP);
        }
    }
    h
}

/// Builds the `(n+1)²` boundary-initialized score matrix.
fn boundary_matrix(n: usize) -> Vec<i32> {
    let w = n + 1;
    let mut h = vec![0i32; w * w];
    for (j, cell) in h[..w].iter_mut().enumerate() {
        *cell = j as i32 * GAP;
    }
    for i in 0..w {
        h[i * w] = i as i32 * GAP;
    }
    h
}

impl Workload for Nw {
    fn name(&self) -> &'static str {
        "NW"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let n = datasets::nw(size);
        let mut rng = StdRng::seed_from_u64(0x4e57);
        // 4-letter alphabet, as gene sequences.
        let a: Vec<i32> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let b: Vec<i32> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let expect = reference(&a, &b);
        if rc.n_dpus == 1 {
            self.run_single(&a, &b, &expect, rc)
        } else {
            self.run_multi(&a, &b, &expect, rc)
        }
    }
}

impl Nw {
    fn run_single(
        &self,
        a: &[i32],
        b: &[i32],
        expect: &[i32],
        rc: &RunConfig,
    ) -> Result<WorkloadRun, SimError> {
        let n = a.len();
        assert_eq!(n as u32 % B, 0, "sequence length must be a multiple of {B}");
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, rc.cached()))?;
        let h0 = boundary_matrix(n);
        let h_bytes = (h0.len() * 4) as u32;
        let b_off = h_bytes + region(n as u32 * 4);
        st.broadcast(0, &to_bytes(&h0));
        st.broadcast(h_bytes, &to_bytes(a));
        st.broadcast(b_off, &to_bytes(b));
        let (h_base, a_base, b_base) = (st.addr(0), st.addr(h_bytes), st.addr(b_off));
        st.params(|_| {
            [("n", n as u32), ("h_base", h_base), ("a_base", a_base), ("b_base", b_base)]
        })?;
        st.launch()?;
        let got = st.gather(0, &[h_bytes]);
        Ok(st.finish(validate_words("NW", &got, expect)))
    }

    /// Host-level anti-diagonal wavefront over `D×D` super-blocks, one DPU
    /// per block per diagonal, boundaries exchanged through the host.
    fn run_multi(
        &self,
        a: &[i32],
        b: &[i32],
        expect: &[i32],
        rc: &RunConfig,
    ) -> Result<WorkloadRun, SimError> {
        let n = a.len();
        let d = rc.n_dpus as usize;
        assert_eq!(
            n % (d * B as usize),
            0,
            "sequence length must split into {B}-aligned bands across DPUs"
        );
        let lb = n / d; // super-block edge
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, false))?;
        let w = n + 1;
        let mut h = boundary_matrix(n);
        let blk_w = lb + 1;
        let blk_bytes = (blk_w * blk_w * 4) as u32;
        let (h_base, a_base, b_base) = (0u32, blk_bytes, blk_bytes + region(lb as u32 * 4));
        for diag in 0..(2 * d - 1) {
            // Blocks (ti, diag-ti) on this diagonal, one per DPU.
            let lo = diag.saturating_sub(d - 1);
            let hi = diag.min(d - 1);
            let blocks: Vec<(usize, usize)> = (lo..=hi).map(|ti| (ti, diag - ti)).collect();
            // Push each block's boundary sub-matrix and sequence slices.
            for (slot, &(ti, tj)) in blocks.iter().enumerate() {
                let (r0, c0) = (ti * lb, tj * lb);
                let mut sub = Vec::with_capacity(blk_w * blk_w);
                for i in 0..blk_w {
                    sub.extend_from_slice(&h[(r0 + i) * w + c0..(r0 + i) * w + c0 + blk_w]);
                }
                st.copy_to(slot, h_base, &to_bytes(&sub))?;
                st.copy_to(slot, a_base, &to_bytes(&a[r0..r0 + lb]))?;
                st.copy_to(slot, b_base, &to_bytes(&b[c0..c0 + lb]))?;
            }
            st.params_in_place(|slot| {
                let nval = if slot < blocks.len() { lb as u32 } else { 0 };
                [("n", nval), ("h_base", h_base), ("a_base", a_base), ("b_base", b_base)]
            });
            st.launch()?;
            // Pull interiors back into the host matrix.
            for (slot, &(ti, tj)) in blocks.iter().enumerate() {
                let (r0, c0) = (ti * lb, tj * lb);
                let sub = st.copy_from(slot, h_base, blk_bytes)?;
                for i in 1..blk_w {
                    for j in 1..blk_w {
                        h[(r0 + i) * w + (c0 + j)] = sub[i * blk_w + j];
                    }
                }
            }
        }
        Ok(st.finish(validate_words("NW", &h, expect)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn nw_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Nw.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn nw_tiny_multi_dpu() {
        Nw.run(DatasetSize::Tiny, &RunConfig::multi(2, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn nw_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Nw.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }
}
