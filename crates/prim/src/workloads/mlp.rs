//! **MLP** — multi-layer perceptron inference: three square
//! fully-connected layers with ReLU activations. Table II: 3 layers × 256
//! neurons (single DPU), 3 × 1K (multi).
//!
//! Single-DPU runs execute all layers in one kernel, ping-ponging
//! activations between two shared WRAM buffers with a barrier per layer.
//! Multi-DPU runs split each layer's rows across DPUs and launch once per
//! layer, with the host gathering and re-broadcasting activations between
//! layers — the inter-DPU communication pattern PrIM's MLP uses.
//!
//! Arithmetic is `i32` with wrapping semantics (the reference wraps
//! identically, so validation is bit-exact even if activations overflow).

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond, Reg};
use pim_rng::StdRng;

use crate::common::{chunk_range, emit_tasklet_rows, region, validate_words, Elem, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

/// Weight-row staging chunk, in words.
const CHUNK: u32 = 256;

/// The MLP workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Mlp;

struct LayerRegs {
    rows: Reg,
    t: Reg,
    r: Reg,
    re: Reg,
    c: Reg,
    m: Reg,
    p: Reg,
    xp: Reg,
    acc: Reg,
    va: Reg,
    vx: Reg,
    wb: Reg,
}

/// Emits one `out = relu(W · in)` layer over rows `[t's share)`.
///
/// `w_base` is loaded from the parameter named `w_param` plus
/// `w_offset_bytes`; `in_addr`/`out_addr` are WRAM (or flat) addresses held
/// in registers before the call.
#[allow(clippy::too_many_arguments)]
fn emit_layer(
    k: &mut KernelBuilder,
    params: &Params,
    rg: &LayerRegs,
    cols: u32,
    n_tasklets: u32,
    w_offset_bytes: u32,
    in_addr: Reg,
    out_addr: Reg,
    rowbuf: u32,
    flat: bool,
) {
    let LayerRegs { rows, t, r, re, c, m, p, xp, acc, va, vx, wb } = *rg;
    // Row range for this tasklet.
    emit_tasklet_rows(k, rows, t, [m, r, re], n_tasklets);
    let done = k.fresh_label("layer_done");
    k.branch(Cond::Geu, r, re, &done);
    let row_loop = k.label_here("row_loop");
    k.movi(acc, 0);
    k.movi(c, 0);
    let chunk_loop = k.label_here("chunk_loop");
    // Chunk of the weight row: [c, c+len) columns.
    // len = min(CHUNK, cols - c)
    k.movi(va, cols as i32);
    k.sub(va, va, c);
    k.alu(AluOp::Min, va, va, CHUNK as i32);
    // wb = w_base + w_offset + (r*cols + c)*4
    k.mul(wb, r, cols as i32);
    k.add(wb, wb, c);
    k.mul(wb, wb, 4);
    params.load(k, vx, "w_base");
    k.add(wb, wb, vx);
    k.add(wb, wb, w_offset_bytes as i32);
    if flat {
        k.mov(p, wb);
    } else {
        k.tid(p);
        k.mul(p, p, (CHUNK * 4) as i32);
        k.add(p, p, rowbuf as i32);
        k.mul(vx, va, 4);
        k.ldma(p, wb, vx);
    }
    // xp = in + c*4; dot over len words.
    k.mul(xp, c, 4);
    k.add(xp, xp, in_addr);
    k.mul(m, va, 4);
    k.add(m, m, p);
    let dot = k.label_here("dot");
    k.lw(va, p, 0);
    k.lw(vx, xp, 0);
    k.mul(va, va, vx);
    k.add(acc, acc, va);
    k.add(p, p, 4);
    k.add(xp, xp, 4);
    k.branch(Cond::Ltu, p, m, &dot);
    k.add(c, c, CHUNK as i32);
    k.branch(Cond::Ltu, c, cols as i32, &chunk_loop);
    // ReLU, store.
    k.alu(AluOp::Max, acc, acc, 0);
    k.mul(p, r, 4);
    k.add(p, p, out_addr);
    k.sw(acc, p, 0);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, re, &row_loop);
    k.place(&done);
}

/// Builds the kernel. `layers == 3` for single-DPU (in-kernel ping-pong),
/// `layers == 1` for the per-layer multi-DPU launches.
fn kernel(n_tasklets: u32, cols: u32, layers: u32, flat: bool) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["rows", "w_base", "x_base", "y_base"]);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let act0 = k.global_zeroed("act0", cols * 4);
    let act1 = k.global_zeroed("act1", cols * 4);
    let rowbuf = if flat { 0 } else { k.alloc_wram(CHUNK * 4 * n_tasklets, 8) };

    let rg = LayerRegs {
        rows: k.reg("rows"),
        t: k.reg("t"),
        r: k.reg("r"),
        re: k.reg("re"),
        c: k.reg("c"),
        m: k.reg("m"),
        p: k.reg("p"),
        xp: k.reg("xp"),
        acc: k.reg("acc"),
        va: k.reg("va"),
        vx: k.reg("vx"),
        wb: k.reg("wb"),
    };
    let [in_addr, out_addr] = k.regs(["in_addr", "out_addr"]);
    params.load(&mut k, rg.rows, "rows");
    k.tid(rg.t);
    // Tasklet 0 stages x into act0.
    let x_ready = k.fresh_label("x_ready");
    k.branch(Cond::Ne, rg.t, 0, &x_ready);
    params.load(&mut k, rg.m, "x_base");
    k.movi(rg.p, act0 as i32);
    if flat {
        // Copy cols words with loads/stores.
        k.movi(rg.c, 0);
        let cp = k.label_here("xcopy");
        k.lw(rg.va, rg.m, 0);
        k.sw(rg.va, rg.p, 0);
        k.add(rg.m, rg.m, 4);
        k.add(rg.p, rg.p, 4);
        k.add(rg.c, rg.c, 1);
        k.branch(Cond::Ltu, rg.c, cols as i32, &cp);
    } else {
        k.ldma(rg.p, rg.m, (cols * 4) as i32);
    }
    k.place(&x_ready);
    bar.wait(&mut k, [rg.m, rg.p, rg.va]);

    for l in 0..layers {
        let (ia, oa) = if l % 2 == 0 { (act0, act1) } else { (act1, act0) };
        k.movi(in_addr, ia as i32);
        k.movi(out_addr, oa as i32);
        emit_layer(
            &mut k,
            &params,
            &rg,
            cols,
            n_tasklets,
            l * cols * cols * 4,
            in_addr,
            out_addr,
            rowbuf,
            flat,
        );
        bar.wait(&mut k, [rg.m, rg.p, rg.va]);
    }
    // Tasklet 0 writes the final activations (the rows this DPU computed)
    // out to y_base.
    let finish = k.fresh_label("finish");
    k.branch(Cond::Ne, rg.t, 0, &finish);
    let final_act = if layers.is_multiple_of(2) { act0 } else { act1 };
    k.movi(rg.p, final_act as i32);
    params.load(&mut k, rg.m, "y_base");
    k.mul(rg.va, rg.rows, 4);
    if flat {
        // Copy rows words to y.
        k.movi(rg.c, 0);
        let cp = k.label_here("ycopy");
        k.lw(rg.vx, rg.p, 0);
        k.sw(rg.vx, rg.m, 0);
        k.add(rg.p, rg.p, 4);
        k.add(rg.m, rg.m, 4);
        k.add(rg.c, rg.c, 1);
        k.branch(Cond::Ltu, rg.c, rg.rows, &cp);
    } else {
        k.sdma(rg.p, rg.m, rg.va);
    }
    k.place(&finish);
    k.stop();
    (k.build().expect("MLP kernel builds"), params)
}

fn reference(weights: &[Vec<i32>], x: &[i32], layers: usize, cols: usize) -> Vec<i32> {
    let mut act = x.to_vec();
    for w in weights.iter().take(layers) {
        let mut next = vec![0i32; cols];
        for (r, slot) in next.iter_mut().enumerate() {
            let dot = (0..cols)
                .map(|c| w[r * cols + c].wrapping_mul(act[c]))
                .fold(0i32, i32::wrapping_add);
            *slot = dot.max(0);
        }
        act = next;
    }
    act
}

impl Workload for Mlp {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (layers, cols) = datasets::mlp(size);
        let mut rng = StdRng::seed_from_u64(0x4d_4c50);
        let weights: Vec<Vec<i32>> =
            (0..layers).map(|_| (0..cols * cols).map(|_| rng.gen_range(-4..4)).collect()).collect();
        let x: Vec<i32> = (0..cols).map(|_| rng.gen_range(0..8)).collect();
        let expect = reference(&weights, &x, layers, cols);
        if rc.n_dpus == 1 {
            self.run_single(&weights, &x, &expect, cols, layers, rc)
        } else {
            self.run_multi(&weights, &x, &expect, cols, layers, rc)
        }
    }
}

impl Mlp {
    fn run_single(
        &self,
        weights: &[Vec<i32>],
        x: &[i32],
        expect: &[i32],
        cols: usize,
        layers: usize,
        rc: &RunConfig,
    ) -> Result<WorkloadRun, SimError> {
        let mut st =
            Stage::new(rc, kernel(rc.dpu.n_tasklets, cols as u32, layers as u32, rc.cached()))?;
        let x_off = (cols * cols * 4) as u32 * layers as u32;
        let y_off = x_off + region(cols as u32 * 4);
        // Every layer's weights, back to back, in one broadcast.
        st.broadcast_with(0, x_off, |window| {
            for (w, out) in weights.iter().zip(window.chunks_exact_mut(cols * cols * 4)) {
                i32::put(w, out);
            }
        });
        st.broadcast(x_off, x);
        st.zeroed(y_off, cols as u32 * 4);
        let (w_base, x_base, y_base) = (st.addr(0), st.addr(x_off), st.addr(y_off));
        st.params(|_| {
            [("rows", cols as u32), ("w_base", w_base), ("x_base", x_base), ("y_base", y_base)]
        })?;
        st.launch()?;
        let validation = st.check("MLP", y_off, &[cols as u32 * 4], expect.iter().copied());
        Ok(st.finish(validation))
    }

    fn run_multi(
        &self,
        weights: &[Vec<i32>],
        x: &[i32],
        expect: &[i32],
        cols: usize,
        layers: usize,
        rc: &RunConfig,
    ) -> Result<WorkloadRun, SimError> {
        let n_dpus = rc.n_dpus as usize;
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, cols as u32, 1, false))?;
        // Per-DPU row chunks of every layer's weights, packed contiguously.
        let max_rows = chunk_range(cols, n_dpus, 0).len();
        let w_chunk_bytes = (max_rows * cols * 4) as u32;
        for (l, w) in weights.iter().enumerate() {
            st.scatter(l as u32 * w_chunk_bytes, |d| {
                let r = chunk_range(cols, n_dpus, d);
                &w[r.start * cols..r.end * cols]
            })?;
        }
        let x_base = layers as u32 * w_chunk_bytes;
        let y_base = x_base + region(cols as u32 * 4);
        let lens: Vec<u32> =
            (0..n_dpus).map(|d| chunk_range(cols, n_dpus, d).len() as u32 * 4).collect();
        let mut act = x.to_vec();
        for l in 0..layers {
            st.broadcast(x_base, &act);
            st.params(|d| {
                [
                    ("rows", chunk_range(cols, n_dpus, d).len() as u32),
                    ("w_base", l as u32 * w_chunk_bytes),
                    ("x_base", x_base),
                    ("y_base", y_base),
                ]
            })?;
            st.launch()?;
            // Gather this layer's activations with one parallel pull: the
            // next layer's input.
            act.clear();
            st.pull_words(y_base, &lens, |w| act.push(w));
        }
        Ok(st.finish(validate_words("MLP", &act, expect)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn mlp_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Mlp.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn mlp_tiny_multi_dpu() {
        Mlp.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn mlp_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Mlp.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }
}
