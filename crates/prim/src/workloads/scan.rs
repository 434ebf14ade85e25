//! **SCAN-SSA** and **SCAN-RSS** — inclusive prefix sum, in PrIM's two
//! flavours. Table II: 256K / 1M elements.
//!
//! * **SSA** (scan-scan-add): every tasklet locally scans its range and
//!   writes the partial result to the output; after a barrier the tasklet
//!   offsets are scanned and a third pass *adds* them to the written
//!   output — paying an extra read-modify-write over the output array.
//! * **RSS** (reduce-then-scan): a first pass only *reduces* each range;
//!   after the barrier each tasklet re-reads its input and scans directly
//!   with its final offset, writing the output once.
//!
//! Multi-DPU runs launch twice with a host-side scan of the per-DPU totals
//! in between — the pattern that makes the SCANs transfer-dominated in the
//! paper's Fig 10.

use pim_asm::{Barrier, DpuProgram, KernelBuilder};
use pim_dpu::SimError;
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

use crate::common::{chunk_range, emit_tasklet_byte_range, region, widest, words, Params, Stage};
use crate::{datasets, DatasetSize, RunConfig, Workload, WorkloadRun};

const BLOCK: u32 = 1024;

/// Which SCAN flavour a kernel implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavour {
    Ssa,
    Rss,
}

/// The SCAN-SSA workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanSsa;

/// The SCAN-RSS workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanRss;

/// Builds the kernel. Modes (the `mode` parameter):
/// * SSA: `0` = local scan + tasklet-offset add + publish total;
///   `1` = add `base_add` to the whole output range.
/// * RSS: `0` = reduce + publish total only;
///   `1` = reduce, then scan with `base_add` + tasklet offset.
#[allow(clippy::too_many_lines)]
fn kernel(n_tasklets: u32, flat: bool, flavour: Flavour) -> (DpuProgram, Params) {
    let mut k = KernelBuilder::new();
    let params = Params::define(&mut k, &["nbytes", "in_base", "out_base", "mode", "base_add"]);
    let sums = k.global_zeroed("sums", 4 * n_tasklets);
    let _total = k.global_zeroed("dpu_total", 4);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let buf = if flat { 0 } else { k.alloc_wram(BLOCK * n_tasklets, 8) };

    let [nbytes, t, start, end] = k.regs(["nbytes", "t", "start", "end"]);
    let [acc, off, len, m] = k.regs(["acc", "off", "len", "m"]);
    let [p, e2, v, wbuf] = k.regs(["p", "e2", "v", "wbuf"]);
    let mode = k.reg("mode");
    params.load(&mut k, nbytes, "nbytes");
    params.load(&mut k, mode, "mode");
    k.tid(t);
    emit_tasklet_byte_range(&mut k, nbytes, t, start, end, n_tasklets);
    if !flat {
        k.mul(wbuf, t, BLOCK as i32);
        k.add(wbuf, wbuf, buf as i32);
    }

    // Blockwise pass over [start, end): op selects the body.
    //   0 = reduce from `in`, 1 = scan from `in` to `out` (acc carries and
    //   is pre-seeded), 2 = add `acc` to `out` in place.
    let emit_blocks = |k: &mut KernelBuilder, op: u8| {
        let src = if op == 2 { "out_base" } else { "in_base" };
        if flat {
            let done = k.fresh_label("blk_done");
            params.load(k, m, src);
            k.add(p, m, start);
            k.add(e2, m, end);
            let dst = k.reg("dst");
            params.load(k, dst, "out_base");
            k.add(dst, dst, start);
            k.branch(Cond::Geu, p, e2, &done);
            let scan = k.label_here("scan");
            k.lw(v, p, 0);
            match op {
                0 => k.add(acc, acc, v),
                1 => {
                    k.add(acc, acc, v);
                    k.sw(acc, dst, 0);
                }
                _ => {
                    k.add(v, v, acc);
                    k.sw(v, p, 0);
                }
            }
            k.add(p, p, 4);
            k.add(dst, dst, 4);
            k.branch(Cond::Ltu, p, e2, &scan);
            k.place(&done);
            k.release_reg("dst");
        } else {
            k.mov(off, start);
            let done = k.fresh_label("blk_done");
            let outer = k.label_here("outer");
            k.branch(Cond::Geu, off, end, &done);
            k.sub(len, end, off);
            k.alu(AluOp::Min, len, len, BLOCK as i32);
            params.load(k, m, src);
            k.add(m, m, off);
            k.ldma(wbuf, m, len);
            k.mov(p, wbuf);
            k.add(e2, wbuf, len);
            let scan = k.label_here("scan");
            k.lw(v, p, 0);
            match op {
                0 => k.add(acc, acc, v),
                1 => {
                    k.add(acc, acc, v);
                    k.sw(acc, p, 0);
                }
                _ => {
                    k.add(v, v, acc);
                    k.sw(v, p, 0);
                }
            }
            k.add(p, p, 4);
            k.branch(Cond::Ltu, p, e2, &scan);
            if op != 0 {
                // Write the transformed block out.
                params.load(k, m, "out_base");
                k.add(m, m, off);
                k.sdma(wbuf, m, len);
            }
            k.add(off, off, len);
            k.jump(&outer);
            k.place(&done);
        }
    };

    // SSA mode 1 / shared epilogue label.
    let finish = k.fresh_label("finish");

    match flavour {
        Flavour::Ssa => {
            let add_mode = k.fresh_label("add_mode");
            k.branch(Cond::Ne, mode, 0, &add_mode);
            // mode 0: local scan to out.
            k.movi(acc, 0);
            emit_blocks(&mut k, 1);
            // sums[t] = acc; barrier; offset; add pass over out.
            k.mul(p, t, 4);
            k.add(p, p, sums as i32);
            k.sw(acc, p, 0);
            bar.wait(&mut k, [p, e2, v]);
            emit_offset_and_total(&mut k, &params, sums, n_tasklets, acc, t, p, e2, v);
            // Add the tasklet offset over this range (tasklet 0 skips: 0).
            let skip_add = k.fresh_label("skip_add");
            k.branch(Cond::Eq, acc, 0, &skip_add);
            emit_blocks(&mut k, 2);
            k.place(&skip_add);
            k.jump(&finish);
            // mode 1: add the host-provided DPU base over the range.
            k.place(&add_mode);
            params.load(&mut k, acc, "base_add");
            emit_blocks(&mut k, 2);
        }
        Flavour::Rss => {
            // Both modes start with the reduce pass.
            k.movi(acc, 0);
            emit_blocks(&mut k, 0);
            k.mul(p, t, 4);
            k.add(p, p, sums as i32);
            k.sw(acc, p, 0);
            bar.wait(&mut k, [p, e2, v]);
            emit_offset_and_total(&mut k, &params, sums, n_tasklets, acc, t, p, e2, v);
            // mode 0: totals only.
            k.branch(Cond::Eq, mode, 0, &finish);
            // mode 1: scan with base_add + tasklet offset.
            params.load(&mut k, v, "base_add");
            k.add(acc, acc, v);
            emit_blocks(&mut k, 1);
        }
    }
    k.place(&finish);
    k.stop();
    (k.build().expect("SCAN kernel builds"), params)
}

/// After the barrier: `acc = Σ sums[0..t]` (exclusive tasklet offset) and
/// tasklet 0 publishes the DPU total.
#[allow(clippy::too_many_arguments)]
fn emit_offset_and_total(
    k: &mut KernelBuilder,
    _params: &Params,
    sums: u32,
    n_tasklets: u32,
    acc: pim_isa::Reg,
    t: pim_isa::Reg,
    p: pim_isa::Reg,
    e2: pim_isa::Reg,
    v: pim_isa::Reg,
) {
    k.movi(acc, 0);
    k.movi(p, sums as i32);
    k.mul(e2, t, 4);
    k.add(e2, e2, sums as i32);
    let done = k.fresh_label("off_done");
    k.branch(Cond::Geu, p, e2, &done);
    let lp = k.label_here("off_loop");
    k.lw(v, p, 0);
    k.add(acc, acc, v);
    k.add(p, p, 4);
    k.branch(Cond::Ltu, p, e2, &lp);
    k.place(&done);
    // Tasklet T-1 computes the grand total = its offset + its own sum.
    let not_last = k.fresh_label("not_last");
    k.branch(Cond::Ne, t, n_tasklets as i32 - 1, &not_last);
    k.mul(p, t, 4);
    k.add(p, p, sums as i32);
    k.lw(v, p, 0);
    k.add(v, v, acc);
    k.movi(p, 0); // "dpu_total" is the second global: sums + 4*T
    k.movi(p, (sums + 4 * n_tasklets) as i32);
    k.sw(v, p, 0);
    k.place(&not_last);
}

fn run_scan(flavour: Flavour, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
    let n = datasets::scan(size);
    let seed = if flavour == Flavour::Ssa { 0x53_5341 } else { 0x52_5353 };
    let n_dpus = rc.n_dpus as usize;
    let mut st = Stage::new(rc, kernel(rc.dpu.n_tasklets, rc.cached(), flavour))?;
    let cap = region(chunk_range(n, n_dpus, 0).len() as u32 * 4);
    let (in_base, out_base) = (st.addr(0), st.addr(cap));
    let mut rng = StdRng::seed_from_u64(seed);
    let input = st.generate("input", 0, n, || rng.gen_range(-100..100))?;
    st.zeroed(cap, n as u32 * 4);
    let values = |mode: u32, bases: Vec<u32>| {
        move |d: usize| {
            [
                ("nbytes", chunk_range(n, n_dpus, d).len() as u32 * 4),
                ("in_base", in_base),
                ("out_base", out_base),
                ("mode", mode),
                ("base_add", bases[d]),
            ]
        }
    };
    // Launch 1: local scan (SSA) / reduce (RSS) publishing per-DPU totals.
    // A single-DPU SSA is complete after it (mode 0 includes the add pass).
    st.params(values(u32::from(n_dpus == 1 && flavour == Flavour::Rss), vec![0; n_dpus]))?;
    st.launch()?;
    if n_dpus > 1 {
        // Host-side exclusive scan of the per-DPU totals, then launch 2.
        let mut bases = Vec::with_capacity(n_dpus);
        let mut run = 0i32;
        st.pull_symbol("dpu_total", |_, t| {
            bases.push(run as u32);
            run = words(t).fold(run, i32::wrapping_add);
        });
        st.params(values(1, bases))?;
        st.launch()?;
    }
    let name = if flavour == Flavour::Ssa { "SCAN-SSA" } else { "SCAN-RSS" };
    // The reference is the inclusive prefix sum of the input.
    let reads = st.read_back(cap, widest(input.lens()));
    let [x] = reads.inputs([&input]);
    let expect = x.scan(0i32, |acc, v| {
        *acc = acc.wrapping_add(v);
        Some(*acc)
    });
    let validation = reads.check(name, input.lens(), expect);
    Ok(st.finish(validation))
}

impl Workload for ScanSsa {
    fn name(&self) -> &'static str {
        "SCAN-SSA"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        run_scan(Flavour::Ssa, size, rc)
    }
}

impl Workload for ScanRss {
    fn name(&self) -> &'static str {
        "SCAN-RSS"
    }

    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError> {
        run_scan(Flavour::Rss, size, rc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;

    #[test]
    fn scans_tiny_thread_sweep() {
        for t in [1, 4, 16] {
            ScanSsa
                .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
            ScanRss
                .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(t)))
                .unwrap()
                .assert_valid();
        }
    }

    #[test]
    fn scans_tiny_multi_dpu() {
        ScanSsa
            .run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
        ScanRss
            .run(DatasetSize::Tiny, &RunConfig::multi(3, DpuConfig::paper_baseline(4)))
            .unwrap()
            .assert_valid();
    }

    #[test]
    fn scans_tiny_cache_mode() {
        let cfg = DpuConfig::paper_baseline(4).with_paper_caches();
        ScanSsa.run(DatasetSize::Tiny, &RunConfig::single(cfg.clone())).unwrap().assert_valid();
        ScanRss.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap().assert_valid();
    }

    #[test]
    fn ssa_writes_more_dram_traffic_than_rss() {
        // The defining difference: SSA's third pass re-reads and re-writes
        // the output; RSS writes it once.
        let ssa = ScanSsa
            .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(8)))
            .unwrap();
        let rss = ScanRss
            .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(8)))
            .unwrap();
        let ssa_traffic = ssa.per_dpu[0].dram.bytes_read + ssa.per_dpu[0].dram.bytes_written;
        let rss_traffic = rss.per_dpu[0].dram.bytes_read + rss.per_dpu[0].dram.bytes_written;
        assert!(
            ssa_traffic > rss_traffic,
            "SSA ({ssa_traffic}) must move more bytes than RSS ({rss_traffic})"
        );
    }
}
