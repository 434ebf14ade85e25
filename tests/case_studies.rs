//! Directional checks for the paper's four §V case studies: beyond
//! functional validation, the *relative* results must point the way the
//! paper's figures point.

use pim_dpu::{DpuConfig, IlpFeatures, SimtConfig};
use pimulator::experiments;
use pimulator::jobs::JobRunner;
use prim_suite::{workload_by_name, DatasetSize, RunConfig};

fn time_of(name: &str, cfg: DpuConfig) -> f64 {
    let w = workload_by_name(name).unwrap();
    let run = w.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap();
    run.assert_valid();
    run.merged().time_ns()
}

#[test]
fn simt_ladder_is_monotone_on_gemv() {
    // Fig 11: Base < SIMT < SIMT+AC < SIMT+AC+4x ≤ SIMT+AC+16x.
    let rows = experiments::fig11_simt(&JobRunner::default(), DatasetSize::Tiny, 16).unwrap();
    assert!(rows[1].speedup > 1.0, "SIMT must beat Base");
    assert!(rows[2].speedup > rows[1].speedup, "+AC must add speedup");
    assert!(rows[3].speedup > rows[2].speedup * 0.99, "+4x must not regress");
    assert!(rows[4].speedup > rows[3].speedup * 0.99, "+16x must not regress");
    // SIMT compute ceiling is 16 scalar instructions per cycle.
    for r in &rows[1..] {
        assert!(r.ipc <= 16.0 + 1e-9);
    }
}

#[test]
fn ilp_features_are_additive_on_a_compute_bound_workload() {
    // Fig 12 on TS (compute-bound): each feature must not regress, and the
    // full ladder must be a solid win.
    let base = DpuConfig::paper_baseline(16);
    let mut prev = time_of("TS", base.clone());
    let first = prev;
    for ilp in experiments::ilp_ladder().into_iter().skip(1) {
        let t = time_of("TS", base.clone().with_ilp(ilp));
        assert!(t <= prev * 1.02, "{} regressed: {t} vs {prev}", ilp.label());
        prev = t;
    }
    assert!(first / prev > 2.0, "full DRSF ladder should speed TS >2x, got {:.2}x", first / prev);
}

#[test]
fn frequency_doubling_helps_memory_bound_workloads_less() {
    // Fig 12's second-order observation: F helps compute-bound TS more
    // than memory-bound BS.
    let base = DpuConfig::paper_baseline(16);
    let drs = IlpFeatures {
        data_forwarding: true,
        unified_rf: true,
        superscalar: true,
        double_frequency: false,
    };
    let drsf = IlpFeatures { double_frequency: true, ..drs };
    let ts_gain =
        time_of("TS", base.clone().with_ilp(drs)) / time_of("TS", base.clone().with_ilp(drsf));
    let bs_gain = time_of("BS", base.clone().with_ilp(drs)) / time_of("BS", base.with_ilp(drsf));
    assert!(
        ts_gain > bs_gain,
        "F must help compute-bound TS ({ts_gain:.2}x) more than memory-bound BS ({bs_gain:.2}x)"
    );
}

#[test]
fn mram_bandwidth_scaling_helps_memory_bound_only() {
    // Fig 13: BS (memory-bound) scales with MRAM bandwidth; TS
    // (compute-bound) does not.
    let rows =
        experiments::fig13_mram_scaling(&JobRunner::default(), DatasetSize::Tiny, 16, &[1.0, 4.0])
            .unwrap();
    let get = |w: &str, c: &str, s: f64| {
        rows.iter()
            .find(|r| r.workload == w && r.config == c && (r.scale - s).abs() < 1e-9)
            .map(|r| r.speedup)
            .unwrap()
    };
    let bs = get("BS", "Base", 4.0);
    let ts = get("TS", "Base", 4.0);
    assert!(bs > 2.0, "BS should scale with MRAM bandwidth, got {bs:.2}x");
    assert!(ts < 1.2, "TS should not care about MRAM bandwidth, got {ts:.2}x");
}

#[test]
fn mmu_overheads_are_small_and_function_preserving() {
    // §V-C: the paper reports avg 0.8% / max 14.1% slowdown.
    let rows = experiments::mmu_overhead(&JobRunner::default(), DatasetSize::Tiny, 16).unwrap();
    let avg: f64 = rows.iter().map(|r| r.overhead).sum::<f64>() / rows.len() as f64;
    let max = rows.iter().map(|r| r.overhead).fold(0.0f64, f64::max);
    assert!(avg < 0.05, "average MMU overhead {avg:.3} should be small");
    assert!(max < 0.25, "max MMU overhead {max:.3} should be bounded");
    for r in &rows {
        // Translation can perturb DMA arrival timing and occasionally
        // improve FR-FCFS row locality by a hair; allow small negative
        // noise but nothing systematic.
        assert!(
            r.overhead >= -0.02,
            "{}: MMU 'speedup' of {:.3} is beyond timing noise",
            r.workload,
            -r.overhead
        );
        assert!(
            r.tlb_hit_rate > 0.5,
            "{}: DMA is page-local, hit rate {}",
            r.workload,
            r.tlb_hit_rate
        );
    }
}

#[test]
fn caches_beat_scratchpads_on_bs_and_both_modes_validate() {
    // Fig 15/16's headline: BS overfetches under scratchpads.
    let rows =
        experiments::fig16_bytes_read(&JobRunner::default(), DatasetSize::Tiny, &[16]).unwrap();
    let bs = rows.iter().find(|r| r.workload == "BS").unwrap();
    assert!(bs.scratchpad_bytes > 2 * bs.cache_bytes);
    assert!(bs.cache_ns < bs.scratchpad_ns, "BS should run faster under caches");
}

#[test]
fn simt_coalescing_cuts_memory_requests_on_gemv() {
    let gemv = workload_by_name("GEMV").unwrap();
    let mk = |coalescing| {
        let cfg = DpuConfig::paper_baseline(16).with_simt(SimtConfig { coalescing });
        let run = gemv.run(DatasetSize::Tiny, &RunConfig::single(cfg)).unwrap();
        run.assert_valid();
        run.merged()
    };
    let plain = mk(false);
    let ac = mk(true);
    assert!(
        ac.dma_requests < plain.dma_requests,
        "coalescing must merge warp DMA ({} vs {})",
        ac.dma_requests,
        plain.dma_requests
    );
    assert!(ac.time_ns() <= plain.time_ns());
}
