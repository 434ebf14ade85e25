//! Whole-stack validation sweep — the functional half of the paper's
//! §III-C simulator validation (the hardware-correlation half is
//! substituted per DESIGN.md §1): every PrIM workload, across tasklet
//! counts, DPU counts, and memory models, must reproduce its reference
//! implementation bit-for-bit.

use pim_dpu::{DpuConfig, DpuRunStats, ExecTier};
use prim_suite::{all_workloads, extended_workloads, DatasetSize, RunConfig, WorkloadFamily};

#[test]
fn every_workload_validates_across_tasklet_counts() {
    for w in all_workloads() {
        for threads in [1, 2, 8, 24] {
            let run = w
                .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(threads)))
                .unwrap_or_else(|e| panic!("{} @{threads}t faulted: {e}", w.name()));
            assert!(
                run.validation.is_ok(),
                "{} @{threads}t: {}",
                w.name(),
                run.validation.unwrap_err()
            );
            let s = &run.per_dpu[0];
            assert!(s.instructions > 0, "{} executed nothing", w.name());
            assert!(s.cycles > 0);
        }
    }
}

#[test]
fn every_workload_strong_scales_functionally() {
    for w in all_workloads() {
        if !w.supports_multi_dpu() {
            continue;
        }
        let run = w
            .run(DatasetSize::Tiny, &RunConfig::multi(4, DpuConfig::paper_baseline(8)))
            .unwrap_or_else(|e| panic!("{} x4 faulted: {e}", w.name()));
        assert!(run.validation.is_ok(), "{} x4: {}", w.name(), run.validation.unwrap_err());
        assert_eq!(run.per_dpu.len(), 4);
    }
}

#[test]
fn every_workload_validates_under_caches() {
    for w in all_workloads() {
        if !w.supports_cache_mode() {
            continue;
        }
        let cfg = DpuConfig::paper_baseline(8).with_paper_caches();
        let run = w
            .run(DatasetSize::Tiny, &RunConfig::single(cfg))
            .unwrap_or_else(|e| panic!("{} cached faulted: {e}", w.name()));
        assert!(run.validation.is_ok(), "{} cached: {}", w.name(), run.validation.unwrap_err());
        let s = &run.per_dpu[0];
        assert!(s.dcache.is_some(), "{} must collect D-cache stats", w.name());
        assert!(s.icache.is_some(), "{} must collect I-cache stats", w.name());
    }
}

#[test]
fn every_workload_validates_under_the_mmu() {
    for w in all_workloads() {
        let cfg = DpuConfig::paper_baseline(8).with_paper_mmu();
        let run = w
            .run(DatasetSize::Tiny, &RunConfig::single(cfg))
            .unwrap_or_else(|e| panic!("{} +MMU faulted: {e}", w.name()));
        assert!(run.validation.is_ok(), "{} +MMU: {}", w.name(), run.validation.unwrap_err());
        let s = &run.per_dpu[0];
        let mmu = s.mmu.expect("MMU stats collected");
        assert!(mmu.tlb_hits + mmu.tlb_misses > 0, "{} never translated", w.name());
    }
}

#[test]
fn every_workload_matches_the_functional_oracle() {
    // Differential sweep against the timing-free `pim-ref` interpreter:
    // with the oracle check enabled, every launch replays on the oracle
    // and faults on the first diverging WRAM/MRAM byte — so the
    // cycle-level pipeline (revolver scheduling, DMA timing, hazards)
    // must be *functionally* invisible for every PrIM workload.
    for w in all_workloads() {
        for threads in [1, 8] {
            let cfg = DpuConfig::paper_baseline(threads).with_oracle_check();
            let run = w
                .run(DatasetSize::Tiny, &RunConfig::single(cfg))
                .unwrap_or_else(|e| panic!("{} @{threads}t vs oracle: {e}", w.name()));
            assert!(
                run.validation.is_ok(),
                "{} @{threads}t: {}",
                w.name(),
                run.validation.unwrap_err()
            );
        }
    }
}

/// Every cycle is booked exactly once: issuing, blocked on the register
/// file, or idle — and an idle cycle is shared among the tasklets waiting
/// on it, so each bucket holds a whole number of cycles.
fn assert_every_cycle_is_attributed(s: &DpuRunStats, what: &str) {
    assert_eq!((s.idle.memory[0], s.idle.revolver[0]), (0, 0), "{what}: idle with nobody waiting");
    let idle: u64 = (1..s.idle.memory.len())
        .map(|tot| {
            let num = s.idle.memory[tot] + s.idle.revolver[tot];
            assert_eq!(num % tot as u64, 0, "{what}: bucket {tot} holds {num}");
            num / tot as u64
        })
        .sum();
    assert_eq!(s.active_cycles + s.idle_rf + idle, s.cycles, "{what}: {s:?}");
}

#[test]
fn attribution_is_conserved_for_every_workload() {
    for w in extended_workloads() {
        for threads in [1, 4, 16, 24] {
            let base = DpuConfig::paper_baseline(threads);
            let mut cfgs = vec![("scratchpad", base.clone())];
            if w.supports_cache_mode() {
                cfgs.push(("caches", base.clone().with_paper_caches()));
            }
            if w.family() == WorkloadFamily::Dense {
                cfgs.push(("naive", base.with_exec_tier(ExecTier::Naive)));
            }
            for (mode, cfg) in cfgs {
                let what = format!("{} @{threads}t {mode}", w.name());
                let run = w.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap();
                let s = &run.per_dpu[0];
                assert_every_cycle_is_attributed(s, &what);
                let hist: u64 = s.tlp_histogram.iter().sum();
                assert_eq!(hist, s.cycles, "{what}: TLP histogram must cover every cycle");
                let class_sum: u64 = s.class_counts.iter().sum();
                assert_eq!(class_sum, s.instructions, "{what}: class counts must sum");
                let per_tasklet: u64 = s.per_tasklet_instructions.iter().sum();
                assert_eq!(per_tasklet, s.instructions, "{what}: per-tasklet counts must sum");
            }
        }
    }
}

#[test]
fn more_tasklets_never_slow_a_workload_down_dramatically() {
    // Weak monotonicity: 16 tasklets should never be slower than 1 tasklet
    // (sync overheads can eat some of the gain but not all of it).
    for w in all_workloads() {
        let t1 = w
            .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(1)))
            .unwrap()
            .merged()
            .cycles;
        let t16 = w
            .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(16)))
            .unwrap()
            .merged()
            .cycles;
        assert!(t16 <= t1, "{}: 16 tasklets ({t16} cycles) slower than 1 ({t1} cycles)", w.name());
    }
}

#[test]
fn every_workload_validates_under_simt() {
    // The SIMT front-end must execute the unmodified SPMD kernels —
    // including intra-warp mutexes (HST-L, TRNS), software barriers (NW,
    // MLP, the SCANs), and divergent search loops (BS) — thanks to the
    // fair PC-group rotation policy.
    use pim_dpu::SimtConfig;
    for w in all_workloads() {
        for coalescing in [false, true] {
            let cfg = DpuConfig::paper_baseline(16)
                .with_simt(SimtConfig { coalescing, ..SimtConfig::default() });
            let run = w
                .run(DatasetSize::Tiny, &RunConfig::single(cfg))
                .unwrap_or_else(|e| panic!("{} SIMT(ac={coalescing}) faulted: {e}", w.name()));
            assert!(
                run.validation.is_ok(),
                "{} SIMT(ac={coalescing}): {}",
                w.name(),
                run.validation.unwrap_err()
            );
        }
    }
}
