//! **TRNS** — matrix transpose. Table II: 128K / 256K elements.
//!
//! The scratchpad kernel transposes 16×16-word tiles staged through WRAM,
//! with tiles handed out from a shared WRAM work-queue counter guarded by a
//! mutex — the dynamic-scheduling structure that, as the paper's Fig 9
//! notes for TRNS, makes lock traffic a visible fraction of the
//! instruction stream.

use pim_asm::{DpuProgram, KernelBuilder, Mutex};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{emit_tasklet_byte_range, mismatch, words, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

/// Tile edge in words (16×16 words = 1 KB per tile buffer).
const TILE: u32 = 16;

/// The TRNS workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Trns;

/// Scratchpad kernel: dynamic tile queue + tiled transpose through WRAM.
fn kernel_scratchpad(n_tasklets: u32) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params =
        Params::define(&mut k, &["rows", "cols", "in_base", "out_base", "ntiles", "tiles_x"]);
    let queue = k.global_zeroed("queue", 4);
    let mtx = Mutex::alloc(&mut k);
    let buf_in = k.alloc_wram(TILE * TILE * 4 * n_tasklets, 8);
    let buf_out = k.alloc_wram(TILE * TILE * 4 * n_tasklets, 8);

    let [tin, tout, q, tr] = k.regs(["tin", "tout", "q", "tr"]);
    let [tc, r, m, w] = k.regs(["tc", "r", "m", "w"]);
    let [v, c, p, tmp] = k.regs(["v", "c", "p", "tmp"]);
    k.tid(tin);
    k.mul(tin, tin, (TILE * TILE * 4) as i32);
    k.add(tout, tin, buf_out as i32);
    k.add(tin, tin, buf_in as i32);

    let done = k.fresh_label("done");
    let grab = k.label_here("grab");
    // q = queue++ under the mutex.
    mtx.lock(&mut k);
    k.movi(p, queue as i32);
    k.lw(q, p, 0);
    k.add(v, q, 1);
    k.sw(v, p, 0);
    mtx.unlock(&mut k);
    params.load(&mut k, tmp, "ntiles");
    k.branch(Cond::Geu, q, tmp, &done);
    // tr = q / tiles_x, tc = q % tiles_x.
    params.load(&mut k, tmp, "tiles_x");
    k.alu(AluOp::Div, tr, q, tmp);
    k.alu(AluOp::Rem, tc, q, tmp);
    // Stage the tile: 16 row segments of 64 B.
    k.movi(r, 0);
    let stage = k.label_here("stage");
    // m = in_base + ((tr*16 + r) * cols + tc*16) * 4
    k.mul(m, tr, TILE as i32);
    k.add(m, m, r);
    params.load(&mut k, tmp, "cols");
    k.mul(m, m, tmp);
    k.mul(tmp, tc, TILE as i32);
    k.add(m, m, tmp);
    k.mul(m, m, 4);
    params.load(&mut k, tmp, "in_base");
    k.add(m, m, tmp);
    k.mul(w, r, (TILE * 4) as i32);
    k.add(w, w, tin);
    k.ldma(w, m, (TILE * 4) as i32);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, TILE as i32, &stage);
    // Transpose within WRAM: out[c][r] = in[r][c].
    k.movi(r, 0);
    let tr_outer = k.label_here("tr_outer");
    k.movi(c, 0);
    let tr_inner = k.label_here("tr_inner");
    k.mul(p, r, (TILE * 4) as i32);
    k.mul(tmp, c, 4);
    k.add(p, p, tmp);
    k.add(p, p, tin);
    k.lw(v, p, 0);
    k.mul(p, c, (TILE * 4) as i32);
    k.mul(tmp, r, 4);
    k.add(p, p, tmp);
    k.add(p, p, tout);
    k.sw(v, p, 0);
    k.add(c, c, 1);
    k.branch(Cond::Ltu, c, TILE as i32, &tr_inner);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, TILE as i32, &tr_outer);
    // Write out: 16 column segments, each contiguous in the output.
    k.movi(c, 0);
    let wb = k.label_here("wb");
    // m = out_base + ((tc*16 + c) * rows + tr*16) * 4
    k.mul(m, tc, TILE as i32);
    k.add(m, m, c);
    params.load(&mut k, tmp, "rows");
    k.mul(m, m, tmp);
    k.mul(tmp, tr, TILE as i32);
    k.add(m, m, tmp);
    k.mul(m, m, 4);
    params.load(&mut k, tmp, "out_base");
    k.add(m, m, tmp);
    k.mul(w, c, (TILE * 4) as i32);
    k.add(w, w, tout);
    k.sdma(w, m, (TILE * 4) as i32);
    k.add(c, c, 1);
    k.branch(Cond::Ltu, c, TILE as i32, &wb);
    k.jump(&grab);
    k.place(&done);
    k.stop();
    (k.build().expect("TRNS scratchpad kernel builds"), params)
}

/// Flat kernel: contiguous row ranges, direct scatter stores.
fn kernel_flat(n_tasklets: u32) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params =
        Params::define(&mut k, &["rows", "cols", "in_base", "out_base", "ntiles", "tiles_x"]);
    let [rows, cols, t, start] = k.regs(["rows", "cols", "t", "start"]);
    let [end, r, c, pin] = k.regs(["end", "r", "c", "pin"]);
    let [pout, v, tmp] = k.regs(["pout", "v", "tmp"]);
    params.load(&mut k, rows, "rows");
    params.load(&mut k, cols, "cols");
    k.tid(t);
    // Partition rows: treat "nbytes" as rows*4 to reuse the splitter.
    k.mul(tmp, rows, 4);
    emit_tasklet_byte_range(&mut k, tmp, t, start, end, n_tasklets);
    k.alu(AluOp::Srl, start, start, 2);
    k.alu(AluOp::Srl, end, end, 2);
    let done = k.fresh_label("done");
    k.branch(Cond::Geu, start, end, &done);
    k.mov(r, start);
    let row_loop = k.label_here("row_loop");
    k.movi(c, 0);
    // pin = in_base + r*cols*4
    k.mul(pin, r, cols);
    k.mul(pin, pin, 4);
    params.load(&mut k, tmp, "in_base");
    k.add(pin, pin, tmp);
    let col_loop = k.label_here("col_loop");
    k.lw(v, pin, 0);
    // pout = out_base + (c*rows + r)*4
    k.mul(pout, c, rows);
    k.add(pout, pout, r);
    k.mul(pout, pout, 4);
    params.load(&mut k, tmp, "out_base");
    k.add(pout, pout, tmp);
    k.sw(v, pout, 0);
    k.add(pin, pin, 4);
    k.add(c, c, 1);
    k.branch(Cond::Ltu, c, cols, &col_loop);
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, end, &row_loop);
    k.place(&done);
    k.stop();
    (k.build().expect("TRNS flat kernel builds"), params)
}

impl Workload for Trns {
    fn name(&self) -> &'static str {
        "TRNS"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (rows, cols) = datasets::trns(size);
        let mut rng = StdRng::seed_from_u64(0x5452_4e53);
        let input: Vec<i32> = (0..rows * cols).map(|_| rng.gen_range(-10_000..10_000)).collect();
        let n_dpus = rc.n_dpus as usize;
        // Row bands must stay tile-aligned.
        assert_eq!(rows % (TILE as usize * n_dpus.max(1)), 0, "rows must split into tiles");
        let band = rows / n_dpus;
        let kernel = if rc.cached() { kernel_flat } else { kernel_scratchpad };
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets))?;
        let band_bytes = (band * cols * 4) as u32;
        let (in_base, out_base) = (st.addr(0), st.addr(band_bytes));
        st.scatter(0, |d| &input[d * band * cols..(d + 1) * band * cols])?;
        st.zeroed(band_bytes, band_bytes);
        // Each DPU transposes its band: output is cols × band.
        let tiles_x = cols as u32 / TILE;
        let ntiles = (band as u32 / TILE) * tiles_x;
        st.params(|_| {
            [
                ("rows", band as u32),
                ("cols", cols as u32),
                ("in_base", in_base),
                ("out_base", out_base),
                ("ntiles", ntiles),
                ("tiles_x", tiles_x),
            ]
        })?;
        st.launch()?;
        // DPU d's output word i is element (c, d*band + r) of the transpose,
        // c = i / band and r = i % band: input element (d*band + r, c). Its
        // elements ascend within a DPU, so the transpose's first mismatch
        // is the first of the DPUs' first mismatches.
        let mut first: Option<(usize, i32, i32)> = None;
        st.pull(band_bytes, band_bytes, |d, part| {
            let bad = words(part).enumerate().find_map(|(i, got)| {
                let (c, r) = (i / band, i % band);
                let want = input[(d * band + r) * cols + c];
                (got != want).then_some((c * rows + d * band + r, got, want))
            });
            if let Some(b) = bad {
                first = Some(first.map_or(b, |f| f.min(b)));
            }
        });
        let validation = first.map_or(Ok(()), |(at, g, e)| Err(mismatch("TRNS", at, g, e)));
        Ok(st.finish(validation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;
    use pim_isa::InstrClass;

    #[test]
    fn trns_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Trns.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn trns_tiny_multi_dpu() {
        Trns.run(DatasetSize::Tiny, &RunConfig::multi(2, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn trns_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Trns.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }

    #[test]
    fn trns_queue_generates_sync_traffic() {
        let run =
            Trns.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(16))).unwrap();
        assert!(run.per_dpu[0].class_fraction(InstrClass::Sync) > 0.0);
    }
}
