//! **GEMV** — dense matrix-vector multiply, "a key primitive in machine
//! learning which recent domain-specific PIMs are optimized for" and the
//! workload of the paper's SIMT case study (Fig 11). Table II: 2K×64
//! (single DPU), 8K×64 (multi).

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::Cond;
use pim_rng::StdRng;

use crate::common::{
    chunk_range, emit_tasklet_rows, region, to_bytes, validate_words, Params, Stage,
};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

/// The GEMV workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Gemv;

/// Computes `y = A·x` for `A: rows×cols` row-major. `max_rows` sizes the
/// shared WRAM output staging.
fn kernel(n_tasklets: u32, cols: u32, max_rows: u32, flat: bool) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["rows", "a_base", "x_base", "y_base"]);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let xbuf = if flat { 0 } else { k.alloc_wram(cols * 4, 8) };
    let ybuf = if flat { 0 } else { k.alloc_wram(max_rows * 4, 8) };
    let rowbuf = if flat { 0 } else { k.alloc_wram(cols * 4 * n_tasklets, 8) };

    let [rows, t, rs, re] = k.regs(["rows", "t", "rs", "re"]);
    let [r, m, p, xp] = k.regs(["r", "m", "p", "xp"]);
    let [acc, va, vx, rb] = k.regs(["acc", "va", "vx", "rb"]);
    params.load(&mut k, rows, "rows");
    k.tid(t);
    if !flat {
        // Tasklet 0 stages x; barrier.
        let x_ready = k.fresh_label("x_ready");
        k.branch(Cond::Ne, t, 0, &x_ready);
        params.load(&mut k, m, "x_base");
        k.movi(p, xbuf as i32);
        k.ldma(p, m, (cols * 4) as i32);
        k.place(&x_ready);
        bar.wait(&mut k, [m, p, va]);
        k.mul(rb, t, (cols * 4) as i32);
        k.add(rb, rb, rowbuf as i32);
    }
    // Contiguous row range.
    emit_tasklet_rows(&mut k, rows, t, [m, rs, re], n_tasklets);
    let done = k.fresh_label("done");
    k.branch(Cond::Geu, rs, re, &done);
    k.mov(r, rs);
    let row_loop = k.label_here("row_loop");
    // Stage (or point at) row r.
    if flat {
        k.mul(p, r, (cols * 4) as i32);
        params.load(&mut k, m, "a_base");
        k.add(p, p, m);
        params.load(&mut k, xp, "x_base");
    } else {
        k.mul(m, r, (cols * 4) as i32);
        let ab = k.reg("ab");
        params.load(&mut k, ab, "a_base");
        k.add(m, m, ab);
        k.release_reg("ab");
        k.ldma(rb, m, (cols * 4) as i32);
        k.mov(p, rb);
        k.movi(xp, xbuf as i32);
    }
    // Dot product.
    k.movi(acc, 0);
    k.add(m, p, (cols * 4) as i32);
    let dot = k.label_here("dot");
    k.lw(va, p, 0);
    k.lw(vx, xp, 0);
    k.mul(va, va, vx);
    k.add(acc, acc, va);
    k.add(p, p, 4);
    k.add(xp, xp, 4);
    k.branch(Cond::Ltu, p, m, &dot);
    // y[r] = acc (staged in WRAM, or straight to the flat space).
    if flat {
        k.mul(p, r, 4);
        params.load(&mut k, m, "y_base");
        k.add(p, p, m);
        k.sw(acc, p, 0);
    } else {
        k.mul(p, r, 4);
        k.add(p, p, ybuf as i32);
        k.sw(acc, p, 0);
    }
    k.add(r, r, 1);
    k.branch(Cond::Ltu, r, re, &row_loop);
    if !flat {
        // Each tasklet writes its own contiguous y slice to MRAM.
        k.mul(p, rs, 4);
        k.add(p, p, ybuf as i32);
        k.sub(m, re, rs);
        k.mul(m, m, 4);
        let yb = k.reg("yb");
        params.load(&mut k, yb, "y_base");
        k.mul(va, rs, 4);
        k.add(yb, yb, va);
        k.sdma(p, yb, m);
        k.release_reg("yb");
    }
    k.place(&done);
    k.stop();
    (k.build().expect("GEMV kernel builds"), params)
}

impl Workload for Gemv {
    fn name(&self) -> &'static str {
        "GEMV"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        let (rows, cols) = datasets::gemv(size);
        let mut rng = StdRng::seed_from_u64(0x4745_4d56);
        let a: Vec<i32> = (0..rows * cols).map(|_| rng.gen_range(-50..50)).collect();
        let x: Vec<i32> = (0..cols).map(|_| rng.gen_range(-50..50)).collect();
        let expect: Vec<i32> = (0..rows)
            .map(|r| {
                (0..cols).map(|c| a[r * cols + c].wrapping_mul(x[c])).fold(0i32, i32::wrapping_add)
            })
            .collect();
        let n_dpus = rc.n_dpus as usize;
        let max_rows = chunk_range(rows, n_dpus, 0).len() as u32;
        let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, cols as u32, max_rows, rc.cached()))?;
        let a_cap = region(max_rows * cols as u32 * 4);
        let x_cap = region(cols as u32 * 4);
        let (a_base, x_base, y_base) = (st.addr(0), st.addr(a_cap), st.addr(a_cap + x_cap));
        st.scatter(0, |d| {
            let r = chunk_range(rows, n_dpus, d);
            to_bytes(&a[r.start * cols..r.end * cols])
        })?;
        st.broadcast(a_cap, &to_bytes(&x));
        st.zeroed(a_cap + x_cap, rows as u32 * 4);
        st.params(|d| {
            [
                ("rows", chunk_range(rows, n_dpus, d).len() as u32),
                ("a_base", a_base),
                ("x_base", x_base),
                ("y_base", y_base),
            ]
        })?;
        st.launch()?;
        let lens: Vec<u32> =
            (0..n_dpus).map(|d| chunk_range(rows, n_dpus, d).len() as u32 * 4).collect();
        let got = st.gather(a_cap + x_cap, &lens);
        Ok(st.finish(validate_words("GEMV", &got, &expect)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::{DpuConfig, SimtConfig};

    #[test]
    fn gemv_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            Gemv.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn gemv_tiny_multi_dpu() {
        Gemv.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn gemv_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        Gemv.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }

    #[test]
    fn gemv_runs_under_simt() {
        // The Fig 11 configuration: 16 tasklets = one 16-wide warp.
        let cfg = DpuConfig::paper_baseline(16).with_simt(SimtConfig { coalescing: true });
        let run = Gemv.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap();
        run.assert_valid();
        assert_eq!(run.per_dpu[0].max_ipc, 16);
    }
}
