//! Invariants of the figure-regeneration harness at the Tiny size: every
//! experiment returns complete, internally consistent rows.

use pim_bench::{experiment_by_name, run_experiment, DriverOptions};
use pimulator::experiments::*;
use pimulator::jobs::JobRunner;
use pimulator::report::Node;
use prim_suite::DatasetSize;

const N_WORKLOADS: usize = 16;

#[test]
fn fig05_covers_every_workload_and_thread_count() {
    let rows = fig05_utilization(&JobRunner::default(), DatasetSize::Tiny, &[1, 16]).unwrap();
    assert_eq!(rows.len(), N_WORKLOADS * 2);
    for r in &rows {
        assert!((0.0..=1.0 + 1e-9).contains(&r.compute_util), "{}", r.workload);
        assert!(r.mem_util >= 0.0);
    }
    // 1-thread compute utilization is pinned near 1/11 by the revolver.
    for r in rows.iter().filter(|r| r.threads == 1) {
        assert!(
            r.compute_util < 0.12,
            "{}: 1-thread util {:.3} cannot exceed the revolver bound",
            r.workload,
            r.compute_util
        );
    }
}

#[test]
fn fig06_fractions_sum_to_one() {
    let rows = fig06_breakdown(&JobRunner::default(), DatasetSize::Tiny, &[16]).unwrap();
    assert_eq!(rows.len(), N_WORKLOADS);
    for r in rows {
        let sum = r.active + r.idle_memory + r.idle_revolver + r.idle_rf;
        assert!((sum - 1.0).abs() < 1e-6, "{}: breakdown sums to {sum}", r.workload);
    }
}

#[test]
fn fig07_histogram_fractions_sum_to_one() {
    let rows = fig07_tlp_histogram(&JobRunner::default(), DatasetSize::Tiny, 16).unwrap();
    assert_eq!(rows.len(), N_WORKLOADS);
    for r in rows {
        let sum: f64 = r.fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{}: histogram sums to {sum}", r.workload);
        assert!(r.mean >= 0.0 && r.mean <= 16.0);
    }
}

#[test]
fn fig08_produces_the_three_paper_traces() {
    let rows = fig08_tlp_timeline(&JobRunner::default(), DatasetSize::Tiny, 16).unwrap();
    let names: Vec<&str> = rows.iter().map(|r| r.workload.as_str()).collect();
    assert_eq!(names, ["BS", "GEMV", "SCAN-SSA"]);
    for r in rows {
        assert_eq!(r.window, 10_000);
    }
}

#[test]
fn fig09_mixes_sum_to_one() {
    let rows = fig09_instr_mix(&JobRunner::default(), DatasetSize::Tiny, &[16]).unwrap();
    for r in rows {
        let sum: f64 = r.fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{}: mix sums to {sum}", r.workload);
    }
}

#[test]
fn fig10_speedups_are_relative_to_one_dpu() {
    let rows = fig10_strong_scaling(&JobRunner::default(), DatasetSize::Tiny, &[1, 4], 8).unwrap();
    for r in rows.iter().filter(|r| r.n_dpus == 1) {
        assert!((r.speedup - 1.0).abs() < 1e-9, "{}", r.workload);
    }
    for r in &rows {
        assert!(r.to_dpu_ns >= 0.0 && r.kernel_ns > 0.0 && r.from_dpu_ns >= 0.0);
    }
}

#[test]
fn fig12_base_rows_have_unit_speedup() {
    let rows = fig12_ilp_ablation(&JobRunner::default(), DatasetSize::Tiny, 16).unwrap();
    assert_eq!(rows.len(), N_WORKLOADS * 5);
    for r in rows.iter().filter(|r| r.label == "Base") {
        assert!((r.speedup - 1.0).abs() < 1e-9, "{}", r.workload);
    }
    // The full ladder must help on average (the paper reports avg 2.7x).
    let drsf: Vec<f64> =
        rows.iter().filter(|r| r.label == "Base+DRSF").map(|r| r.speedup).collect();
    let avg = drsf.iter().sum::<f64>() / drsf.len() as f64;
    assert!(avg > 1.3, "average DRSF speedup {avg:.2} too small");
}

#[test]
fn fig15_covers_cache_capable_workloads() {
    let rows = fig15_cache_vs_scratchpad(&JobRunner::default(), DatasetSize::Tiny, &[16]).unwrap();
    assert_eq!(rows.len(), N_WORKLOADS);
    for r in rows {
        assert!(r.normalized_time > 0.0, "{}", r.workload);
    }
}

#[test]
fn validation_sweep_passes_every_point_at_tiny() {
    // The multi-DPU leg must use DPU counts the tiny BFS/NW bands split
    // into; 16 used to trip their partitioning asserts in the worker pool.
    let e = experiment_by_name("exp_validation").unwrap();
    let opts = DriverOptions { size: Some(DatasetSize::Tiny), ..DriverOptions::default() };
    let report = run_experiment(e, &opts).unwrap();
    let summary = Node::root("exp_validation", &report.json).field("summary").unwrap();
    let count = |key: &str| summary.field(key).and_then(Node::int::<u64>).unwrap();
    assert!(count("total") > 0);
    assert_eq!(count("passed"), count("total"));
}
