//! **MLP-Q** — quantized multi-layer perceptron inference expressed as
//! *chained kernels*: each layer is two DPU launches (an `i8×i8→i32`
//! GEMV accumulate, then a requantize+ReLU pass packing the next layer's
//! `i8` activations), with the host gathering and re-broadcasting
//! activations between layers. One inference request therefore spans
//! `2·layers` launches with host-side staging — the end-to-end latency
//! shape PIMSIM-NN argues ISA-level PIM simulators are judged on, rather
//! than single-kernel time.
//!
//! Quantization scheme: weights and activations are `i8` bytes in
//! MRAM/WRAM (sign-extending `lb` loads), accumulation is wrapping `i32`,
//! and requantize is `clamp(relu(acc) >> shift, 0, 127)` — all integer
//! ops, so the pure-Rust reference is bit-exact.

use std::ops::Range;

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{chunk_range, emit_tasklet_rows, region, validate_words, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadFamily, WorkloadRun};

/// Requantization shift: activations stay in `0..=127`.
const SHIFT: u32 = 6;

/// The MLP-Q workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MlpQ;

/// Builds the two-stage kernel, specialized on the layer width `cols`.
///
/// The `stage` parameter selects the launch's role: `0` runs the
/// quantized GEMV (`y_i32 = W_i8 · x_i8`), `1` requantizes `y` into
/// packed `i8` activations at `q_base`.
fn kernel(n_tasklets: u32, cols: u32) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params =
        Params::define(&mut k, &["stage", "rows", "w_base", "x_base", "y_base", "q_base", "shift"]);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let xg = k.global_zeroed("xg", cols); // staged i8 activations
    let w_buf = k.alloc_wram(cols * n_tasklets, 8);
    let slot = k.alloc_wram(16 * n_tasklets, 8); // per-tasklet DMA slot
    let [s, rows, t, r] = k.regs(["s", "rows", "t", "r"]);
    let [re, m, p, q] = k.regs(["re", "m", "p", "q"]);
    let [acc, v, w, sh] = k.regs(["acc", "v", "w", "sh"]);
    let [wb, sl] = k.regs(["wb", "sl"]);
    params.load(&mut k, s, "stage");
    params.load(&mut k, rows, "rows");
    k.tid(t);
    k.mul(wb, t, cols as i32);
    k.add(wb, wb, w_buf as i32);
    k.mul(sl, t, 16);
    k.add(sl, sl, slot as i32);
    let stage1 = k.fresh_label("stage1");
    let exit = k.fresh_label("exit");
    k.branch(Cond::Ne, s, 0, &stage1);

    // ---- Stage 0: y[r] = Σ_c W_i8[r,c] · x_i8[c] ----
    let x_ready = k.fresh_label("x_ready");
    k.branch(Cond::Ne, t, 0, &x_ready);
    params.load(&mut k, m, "x_base");
    k.movi(p, xg as i32);
    k.ldma(p, m, cols as i32);
    k.place(&x_ready);
    bar.wait(&mut k, [m, p, v]);
    emit_tasklet_rows(&mut k, rows, t, [m, r, re], n_tasklets);
    k.branch(Cond::Geu, r, re, &exit);
    let row_loop = k.label_here("row_loop");
    // Stage the i8 weight row.
    k.mul(m, r, cols as i32);
    params.load(&mut k, p, "w_base");
    k.add(m, m, p);
    k.ldma(wb, m, cols as i32);
    k.movi(acc, 0);
    k.mov(p, wb);
    k.movi(q, xg as i32);
    k.add(m, wb, cols as i32);
    let dot = k.label_here("dot");
    k.lb(v, p, 0);
    k.lb(w, q, 0);
    k.mul(v, v, w);
    k.add(acc, acc, v);
    k.add(p, p, 1);
    k.add(q, q, 1);
    k.branch(Cond::Ltu, p, m, &dot);
    // y[r] out through the per-tasklet slot.
    k.sw(acc, sl, 0);
    k.mul(m, r, 4);
    params.load(&mut k, v, "y_base");
    k.add(m, m, v);
    k.sdma(sl, m, 4);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, re, &row_loop);
    k.jump(&exit);

    // ---- Stage 1: q[g] = pack4(clamp(relu(y) >> shift, 0, 127)) ----
    k.place(&stage1);
    params.load(&mut k, sh, "shift");
    // One group = 4 rows = one packed output word.
    k.alu(AluOp::Srl, rows, rows, 2);
    emit_tasklet_rows(&mut k, rows, t, [m, r, re], n_tasklets);
    k.branch(Cond::Geu, r, re, &exit);
    let g_loop = k.label_here("g_loop");
    k.mul(m, r, 16);
    params.load(&mut k, p, "y_base");
    k.add(m, m, p);
    k.ldma(sl, m, 16);
    k.movi(w, 0);
    for j in 0..4 {
        k.lw(acc, sl, 4 * j);
        k.alu(AluOp::Max, acc, acc, 0);
        k.alu(AluOp::Srl, acc, acc, sh);
        k.alu(AluOp::Min, acc, acc, 127);
        if j > 0 {
            k.alu(AluOp::Sll, acc, acc, 8 * j);
        }
        k.alu(AluOp::Or, w, w, acc);
    }
    k.sw(w, sl, 0);
    k.mul(m, r, 4);
    params.load(&mut k, p, "q_base");
    k.add(m, m, p);
    k.sdma(sl, m, 4);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, re, &g_loop);
    k.place(&exit);
    k.stop();
    (k.build().expect("MLP-Q kernel builds"), params)
}

/// Bit-exact reference: layers of `i8` GEMV + requantize.
fn reference(weights: &[Vec<i8>], x0: &[u8], layers: usize, cols: usize) -> Vec<u8> {
    let mut act: Vec<u8> = x0.to_vec();
    for w in weights.iter().take(layers) {
        let mut next = vec![0u8; cols];
        for (r, slot) in next.iter_mut().enumerate() {
            let acc = (0..cols)
                .map(|c| i32::from(w[r * cols + c]).wrapping_mul(i32::from(act[c] as i8)))
                .fold(0i32, i32::wrapping_add);
            *slot = (acc.max(0) >> SHIFT).min(127) as u8;
        }
        act = next;
    }
    act
}

impl Workload for MlpQ {
    fn name(&self) -> &'static str {
        "MLP-Q"
    }

    fn family(&self) -> WorkloadFamily {
        WorkloadFamily::NnInference
    }

    fn supports_cache_mode(&self) -> bool {
        false
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (layers, cols) = datasets::mlp_q(size);
        let n_dpus = rc.n_dpus as usize;
        assert!(
            cols % (4 * n_dpus) == 0,
            "MLP-Q requires row bands in whole requantize groups (cols % (4·n_dpus) == 0)"
        );
        let mut rng = StdRng::seed_from_u64(0x4d4c_5051);
        let weights: Vec<Vec<i8>> = (0..layers)
            .map(|_| (0..cols * cols).map(|_| rng.gen_range(-8..8) as i8).collect())
            .collect();
        let x0: Vec<u8> = (0..cols).map(|_| rng.gen_range(0..16) as u8).collect();
        let expect: Vec<i32> =
            reference(&weights, &x0, layers, cols).iter().map(|&b| i32::from(b)).collect();
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, cols as u32))?;
        let bands: Vec<Range<usize>> = (0..n_dpus).map(|d| chunk_range(cols, n_dpus, d)).collect();
        // Per-DPU weight bands of every layer, packed contiguously.
        let max_rows = bands.iter().map(Range::len).max().unwrap_or(1);
        let w_chunk = region((max_rows * cols) as u32);
        let x_base = layers as u32 * w_chunk;
        let y_base = x_base + region(cols as u32);
        let q_base = y_base + region(max_rows as u32 * 4);
        for (l, w) in weights.iter().enumerate() {
            st.scatter(l as u32 * w_chunk, |d| &w[bands[d].start * cols..bands[d].end * cols])?;
        }
        let lens: Vec<u32> = bands.iter().map(|bd| bd.len() as u32).collect();
        let mut act = x0.clone();
        for l in 0..layers {
            st.broadcast(x_base, &act);
            for stage in 0..2u32 {
                st.params(|d| {
                    [
                        ("stage", stage),
                        ("rows", bands[d].len() as u32),
                        ("w_base", l as u32 * w_chunk),
                        ("x_base", x_base),
                        ("y_base", y_base),
                        ("q_base", q_base),
                        ("shift", SHIFT),
                    ]
                })?;
                st.launch()?;
            }
            // Host staging: gather each DPU's packed activations, re-feed.
            act.clear();
            st.pull_words(q_base, &lens, |w| act.extend(w.to_le_bytes()));
        }
        let got: Vec<i32> = act.iter().map(|&b| i32::from(b)).collect();
        Ok(st.finish(validate_words("MLP-Q", &got, &expect)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn mlp_q_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            MlpQ.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn mlp_q_tiny_multi_dpu() {
        MlpQ.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn mlp_q_chains_multiple_launches() {
        // 3 layers × 2 stages = 6 launches; merged stats must reflect the
        // accumulated instruction stream of the whole chain.
        let run =
            MlpQ.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(4))).unwrap();
        let one_layer_floor = run.merged().instructions / 6;
        assert!(one_layer_floor > 0, "stats merged across chained launches");
    }
}
