//! **HST-S** and **HST-L** — 256-bin histogram, in PrIM's two flavours.
//! Table II: 128K / 512K elements, 256 bins.
//!
//! * **HST-S** (small/private): every tasklet accumulates a *private* WRAM
//!   histogram; after a barrier the tasklets cooperatively merge bin
//!   ranges. No locking on the hot path.
//! * **HST-L** (large/shared): one *shared* WRAM histogram updated under a
//!   64-entry mutex array hashed by bin. The paper's Fig 9 calls this
//!   workload out for spending a large fraction of its instructions on
//!   `acquire`/`release` busy-waiting — exactly what this kernel does.

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{
    chunk_range, emit_tasklet_byte_range, from_bytes, validate_words, Params, Stage,
};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

const BLOCK: u32 = 1024;
/// Input values are drawn from `[0, 4096)`; bin = value >> 4.
const DOMAIN: i32 = 4096;
const SHIFT: i32 = 4;
/// Mutexes protecting the shared histogram (HST-L).
const N_MUTEXES: u32 = 64;

/// The HST-S (private histograms) workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HstS;

/// The HST-L (shared, mutex-guarded histogram) workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HstL;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavour {
    Small,
    Large,
}

#[allow(clippy::too_many_lines)]
fn kernel(n_tasklets: u32, bins: u32, flat: bool, flavour: Flavour) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["nbytes", "in_base"]);
    let hist = k.global_zeroed("hist", 4 * bins);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    // HST-L: a contiguous run of atomic bits hashed by bin.
    let mutex_base = if flavour == Flavour::Large {
        let base = k.alloc_atomic_bit();
        for _ in 1..N_MUTEXES {
            k.alloc_atomic_bit();
        }
        base
    } else {
        0
    };
    let priv_base =
        if flavour == Flavour::Small { k.alloc_wram(4 * bins * n_tasklets, 8) } else { 0 };
    let buf = if flat { 0 } else { k.alloc_wram(BLOCK * n_tasklets, 8) };

    let [nbytes, t, start, end] = k.regs(["nbytes", "t", "start", "end"]);
    let [off, len, m, p] = k.regs(["off", "len", "m", "p"]);
    let [e2, v, idx, myh] = k.regs(["e2", "v", "idx", "myh"]);
    params.load(&mut k, nbytes, "nbytes");
    k.tid(t);
    emit_tasklet_byte_range(&mut k, nbytes, t, start, end, n_tasklets);
    if flavour == Flavour::Small {
        k.mul(myh, t, (4 * bins) as i32);
        k.add(myh, myh, priv_base as i32);
    } else {
        k.movi(myh, hist as i32);
    }

    // The per-element update, shared by both data paths.
    let emit_update = |k: &mut KernelBuilder| {
        k.alu(AluOp::Srl, idx, v, SHIFT);
        k.alu(AluOp::Sll, idx, idx, 2);
        k.add(idx, idx, myh);
        if flavour == Flavour::Large {
            // lock(mutex[bin % 64]); hist[bin]++; unlock.
            let bit = k.reg("bit");
            k.alu(AluOp::Srl, bit, v, SHIFT);
            k.alu(AluOp::And, bit, bit, N_MUTEXES as i32 - 1);
            k.add(bit, bit, mutex_base as i32);
            k.acquire(bit);
            k.lw(v, idx, 0);
            k.add(v, v, 1);
            k.sw(v, idx, 0);
            k.release(bit);
            k.release_reg("bit");
        } else {
            k.lw(v, idx, 0);
            k.add(v, v, 1);
            k.sw(v, idx, 0);
        }
    };

    if flat {
        let done = k.fresh_label("done");
        params.load(&mut k, m, "in_base");
        k.add(p, m, start);
        k.add(e2, m, end);
        k.branch(Cond::Geu, p, e2, &done);
        let scan = k.label_here("scan");
        k.lw(v, p, 0);
        emit_update(&mut k);
        k.add(p, p, 4);
        k.branch(Cond::Ltu, p, e2, &scan);
        k.place(&done);
    } else {
        let wbuf = k.reg("wbuf");
        k.mul(wbuf, t, BLOCK as i32);
        k.add(wbuf, wbuf, buf as i32);
        k.mov(off, start);
        let done = k.fresh_label("done");
        let outer = k.label_here("outer");
        k.branch(Cond::Geu, off, end, &done);
        k.sub(len, end, off);
        k.alu(AluOp::Min, len, len, BLOCK as i32);
        params.load(&mut k, m, "in_base");
        k.add(m, m, off);
        k.ldma(wbuf, m, len);
        k.mov(p, wbuf);
        k.add(e2, wbuf, len);
        let scan = k.label_here("scan");
        k.lw(v, p, 0);
        emit_update(&mut k);
        k.add(p, p, 4);
        k.branch(Cond::Ltu, p, e2, &scan);
        k.add(off, off, len);
        k.jump(&outer);
        k.place(&done);
        k.release_reg("wbuf");
    }

    if flavour == Flavour::Small {
        // Merge: tasklet t folds its bin range across all private copies.
        bar.wait(&mut k, [p, e2, v]);
        // Reuse start/end as this tasklet's bin byte-range, computed with
        // the same contiguous-split convention as the data range.
        k.movi(v, (bins * 4) as i32);
        emit_tasklet_byte_range(&mut k, v, t, start, end, n_tasklets);
        let merge_done = k.fresh_label("merge_done");
        k.branch(Cond::Geu, start, end, &merge_done);
        let bin_loop = k.label_here("bin_loop");
        // acc (reuse off) = Σ_j priv[j][bin]
        k.movi(off, 0);
        k.movi(m, 0); // j*bins*4 cursor
        let fold = k.label_here("fold");
        k.add(p, m, start);
        k.add(p, p, priv_base as i32);
        k.lw(v, p, 0);
        k.add(off, off, v);
        k.add(m, m, (4 * bins) as i32);
        k.branch(Cond::Ltu, m, (4 * bins * n_tasklets) as i32, &fold);
        k.add(p, start, hist as i32);
        k.sw(off, p, 0);
        k.add(start, start, 4);
        k.branch(Cond::Ltu, start, end, &bin_loop);
        k.place(&merge_done);
    }
    k.stop();
    (k.build().expect("HST kernel builds"), params)
}

fn run_hst(flavour: Flavour, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
    let (n, bins) = datasets::hst(size);
    let seed = if flavour == Flavour::Small { 0x48_5353 } else { 0x48_534c };
    let mut rng = StdRng::seed_from_u64(seed);
    let input: Vec<i32> = (0..n).map(|_| rng.gen_range(0..DOMAIN)).collect();
    let mut expect = vec![0i32; bins];
    for v in &input {
        expect[(v >> SHIFT) as usize] += 1;
    }
    let n_dpus = rc.n_dpus as usize;
    let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, bins as u32, rc.cached(), flavour))?;
    let in_base = st.addr(0);
    st.scatter_words(0, &input)?;
    st.params(|d| [("nbytes", chunk_range(n, n_dpus, d).len() as u32 * 4), ("in_base", in_base)])?;
    st.launch()?;
    // Host-side cross-DPU reduction of the histograms.
    let mut got = vec![0i32; bins];
    for h in st.pull_symbol("hist") {
        for (g, v) in got.iter_mut().zip(from_bytes(h)) {
            *g += v;
        }
    }
    let name = if flavour == Flavour::Small { "HST-S" } else { "HST-L" };
    Ok(st.finish(validate_words(name, &got, &expect)))
}

impl Workload for HstS {
    fn name(&self) -> &'static str {
        "HST-S"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        run_hst(Flavour::Small, size, rc)
    }
}

impl Workload for HstL {
    fn name(&self) -> &'static str {
        "HST-L"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        run_hst(Flavour::Large, size, rc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;
    use pim_isa::InstrClass;

    #[test]
    fn hst_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            HstS.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
            HstL.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn hst_tiny_multi_dpu() {
        HstS.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
        HstL.run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn hst_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        HstS.run(DatasetSize::Tiny, &RunConfig::single(cfg.clone())).unwrap().assert_valid();
        HstL.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }

    #[test]
    fn hst_l_spends_instructions_on_sync() {
        // The paper's Fig 9 observation: HST-L's shared-histogram locking
        // inflates the sync fraction far beyond HST-S's.
        let cfg = DpuConfig::paper_baseline(16);
        let s = HstS.run(DatasetSize::Tiny, &RunConfig::single(cfg.clone())).unwrap();
        let l = HstL.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap();
        let s_sync = s.per_dpu[0].class_fraction(InstrClass::Sync);
        let l_sync = l.per_dpu[0].class_fraction(InstrClass::Sync);
        assert!(
            l_sync > 5.0 * s_sync.max(0.001),
            "HST-L sync {l_sync:.3} should dwarf HST-S sync {s_sync:.3}"
        );
    }
}
