//! Differential pinning of the extension families (sparse BSR and
//! quantized NN-inference) across every executor path.
//!
//! The four extension kernels stress exactly the corners the dense suite
//! does not: irregular gather DMA at data-dependent addresses (SpMV-BSR,
//! SpMM-BSR) and *chained* kernel launches with host-side staging between
//! phases (MLP-Q, ATTN). Each leg must produce byte-identical outputs —
//! every workload validates its DPU results against the host oracle — and
//! the naive, fast, and lockstep-batched executors must agree on the full
//! timing statistics, at 1, 8, and 16 tasklets.

use pim_dpu::{DpuConfig, ExecTier, IlpFeatures};
use prim_suite::{nn_workloads, sparse_workloads, DatasetSize, RunConfig, Workload};

const TASKLETS: [u32; 3] = [1, 8, 16];

fn extension_workloads() -> Vec<Box<dyn Workload>> {
    let mut v = sparse_workloads();
    v.extend(nn_workloads());
    v
}

/// Runs one workload with both cycle loops and asserts validation passes
/// and the per-DPU stats are identical field-for-field.
fn assert_loops_agree(w: &dyn Workload, mode: &str, cfg: DpuConfig) {
    let fast = w
        .run(DatasetSize::Tiny, &RunConfig::single(cfg.clone()))
        .unwrap_or_else(|e| panic!("{} [{mode}] optimized run failed: {e}", w.name()));
    fast.validation
        .as_ref()
        .unwrap_or_else(|e| panic!("{} [{mode}] output failed validation: {e}", w.name()));
    let naive = w
        .run(DatasetSize::Tiny, &RunConfig::single(cfg.with_exec_tier(ExecTier::Naive)))
        .unwrap_or_else(|e| panic!("{} [{mode}] naive run failed: {e}", w.name()));
    naive
        .validation
        .as_ref()
        .unwrap_or_else(|e| panic!("{} [{mode}] naive output failed validation: {e}", w.name()));
    assert_eq!(fast.per_dpu.len(), naive.per_dpu.len(), "{} [{mode}]: DPU count differs", w.name());
    for (i, (f, n)) in fast.per_dpu.iter().zip(&naive.per_dpu).enumerate() {
        assert_eq!(
            format!("{f:?}"),
            format!("{n:?}"),
            "{} [{mode}] dpu {i}: naive and fast loops disagree",
            w.name()
        );
    }
}

#[test]
fn extension_scalar_loop_matches_naive_reference() {
    for w in extension_workloads() {
        for n in TASKLETS {
            assert_loops_agree(w.as_ref(), "scalar", DpuConfig::paper_baseline(n));
        }
    }
}

#[test]
fn extension_ilp_loop_matches_naive_reference() {
    for w in extension_workloads() {
        for n in TASKLETS {
            let cfg = DpuConfig::paper_baseline(n).with_ilp(IlpFeatures::all());
            assert_loops_agree(w.as_ref(), "ilp", cfg);
        }
    }
}

/// 4 DPUs on the default tier — `launch_all` runs each worker's chunk in
/// lockstep — against [`ExecTier::Naive`], which lockstep never takes. The
/// chained kernels re-enter `run_batch` once per launch, so group
/// scheduling state must survive the host staging round-trips too.
#[test]
fn extension_batched_executor_matches_per_dpu_path() {
    const DPUS: u32 = 4;
    for w in extension_workloads() {
        for n in TASKLETS {
            let cfg = DpuConfig::paper_baseline(n);
            let reference = w
                .run(
                    DatasetSize::Tiny,
                    &RunConfig::multi(DPUS, cfg.clone().with_exec_tier(ExecTier::Naive)),
                )
                .unwrap_or_else(|e| panic!("{} reference run failed: {e}", w.name()));
            let lockstep = w
                .run(DatasetSize::Tiny, &RunConfig::multi(DPUS, cfg))
                .unwrap_or_else(|e| panic!("{} lockstep run failed: {e}", w.name()));
            lockstep
                .validation
                .as_ref()
                .unwrap_or_else(|e| panic!("{} lockstep output failed validation: {e}", w.name()));
            assert_eq!(
                reference.per_dpu.len(),
                lockstep.per_dpu.len(),
                "{}: DPU count differs",
                w.name()
            );
            for (i, (r, l)) in reference.per_dpu.iter().zip(&lockstep.per_dpu).enumerate() {
                assert_eq!(
                    format!("{r:?}"),
                    format!("{l:?}"),
                    "{} dpu {i}: lockstep stats diverge from the reference loop",
                    w.name()
                );
            }
        }
    }
}
