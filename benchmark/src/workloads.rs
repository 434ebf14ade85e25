//! The six workloads as case lists, sized so that one pass takes 1.0-1.6 s
//! on the 2-core reference box; `Scale::Smoke` shrinks every case to
//! `Tiny` datasets and short simulated windows for the CI-sized run.

use pim_dpu::{DpuConfig, ExecTier, IlpFeatures, SimtConfig};
use pim_host::ChannelMode;
use pim_serve::{FaultSpec, ServeOptions};
use prim_suite::{DatasetSize, RunConfig};

use crate::cases::{
    Case, FuzzCase, GoldenCase, OverlapRole, PrimCase, RankCase, ServeCase, TuneCase,
};
use crate::staged::{Drive, Kernel, StagedCase};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Workers for the two workloads whose layer under test is a pool; the
/// other four run on one worker.
pub fn pool_workers() -> usize {
    pimulator::jobs::default_workers().min(2)
}

/// The six committed goldens `short_jobs` regenerates.
pub const GOLDENS: [&str; 6] = [
    "fig05_utilization",
    "fig12_ilp_ablation",
    "exp_serving",
    "exp_serving_faults",
    "exp_sparse_nn",
    "exp_transfer_study",
];

fn baseline(tasklets: u32) -> DpuConfig {
    DpuConfig::paper_baseline(tasklets)
}

fn prim(name: &str, size: DatasetSize) -> Case {
    Case::Prim(PrimCase::new(name, "", size, RunConfig::single(baseline(16))))
}

fn staged(kernel: Kernel, tasklets: u32, work: u32, drive: Drive, seed: u64) -> Case {
    Case::Staged(StagedCase::new(kernel, tasklets, work, 1, drive, seed))
}

fn prim_compute(seed: u64, scale: Scale) -> Vec<Case> {
    let (size, alu, stream) = match scale {
        Scale::Full => (DatasetSize::SingleDpu, 6000, 256 * 16 * 24),
        Scale::Smoke => (DatasetSize::Tiny, 200, 256 * 16),
    };
    let mut cases: Vec<Case> =
        ["GEMV", "HST-S", "HST-L", "MLP", "RED", "SEL", "UNI", "TS", "SpMM-BSR", "MLP-Q", "ATTN"]
            .iter()
            .map(|w| prim(w, size))
            .collect();
    cases.push(staged(Kernel::AluLoop, 16, alu, Drive::Dpu, seed));
    cases.push(staged(Kernel::Stream, 16, stream, Drive::Host, seed));
    cases
}

fn prim_memory(seed: u64, scale: Scale) -> Vec<Case> {
    let (size, dma, barrier) = match scale {
        Scale::Full => (DatasetSize::SingleDpu, 48, 300),
        Scale::Smoke => (DatasetSize::Tiny, 4, 20),
    };
    let mut cases: Vec<Case> = ["BS", "SpMV", "SpMV-BSR", "BFS", "TRNS", "SCAN-SSA"]
        .iter()
        .map(|w| prim(w, size))
        .collect();
    cases.push(staged(Kernel::DmaHeavy, 16, dma, Drive::Host, seed));
    cases.push(staged(Kernel::BarrierHeavy, 16, barrier, Drive::Dpu, seed));
    cases
}

/// The paper's §V design points, as configurations of one workload.
fn design_points(bs_only: bool) -> Vec<(&'static str, DpuConfig)> {
    let simt_ac = SimtConfig { coalescing: true, ..SimtConfig::default() };
    if bs_only {
        return vec![
            ("simt+ac", baseline(16).with_simt(simt_ac)),
            ("caches", baseline(16).with_paper_caches()),
            ("mmu", baseline(16).with_paper_mmu()),
        ];
    }
    vec![
        ("naive", baseline(16).with_exec_tier(ExecTier::Naive)),
        ("fast", baseline(16).with_exec_tier(ExecTier::Fast)),
        ("simt+ac", baseline(16).with_simt(simt_ac)),
        ("ilp-all", baseline(16).with_ilp(IlpFeatures::all())),
        ("caches", baseline(16).with_paper_caches()),
        ("mmu", baseline(16).with_paper_mmu()),
        ("t4", baseline(4)),
        ("t1", baseline(1)),
        ("traced", baseline(16).with_event_trace(4096)),
    ]
}

fn case_studies(_seed: u64, scale: Scale) -> Vec<Case> {
    let size = match scale {
        Scale::Full => DatasetSize::SingleDpu,
        Scale::Smoke => DatasetSize::Tiny,
    };
    let mut cases = Vec::new();
    for (workload, bs_only) in [("GEMV", false), ("HST-S", false), ("BS", true)] {
        for (label, cfg) in design_points(bs_only) {
            cases.push(Case::Prim(PrimCase::new(workload, label, size, RunConfig::single(cfg))));
        }
    }
    cases.push(Case::MultiTenant);
    cases
}

fn rank_scale(seed: u64, scale: Scale) -> Vec<Case> {
    let (size, dpus) = match scale {
        Scale::Full => (DatasetSize::SingleDpu, 512),
        Scale::Smoke => (DatasetSize::Tiny, 64),
    };
    // The seed is the base DPU index of the population: it selects which
    // deterministic input windows are staged.
    let base = (seed % 1_000_000) as u32 * 1024;
    let mut cases =
        vec![Case::Rank(RankCase::new(base, dpus, 64)), Case::Rank(RankCase::new(base, dpus, 0))];
    // The one-DPU point is simulated on the calling thread (a set of one
    // DPU has one chunk): the serial anchor of the scaling series. It also
    // steadies the pass on a shared box, where a two-thread launch is as
    // slow as its more disturbed thread.
    let rc = RunConfig::multi(1, baseline(16));
    cases.push(Case::Prim(PrimCase::new("VA", "1dpu/blocking", size, rc)));
    for n_dpus in [4, 16] {
        for (mode, role) in [
            (ChannelMode::Blocking, OverlapRole::Blocking),
            (ChannelMode::Overlapped, OverlapRole::Overlapped),
        ] {
            let rc = RunConfig::multi(n_dpus, baseline(16)).with_channel(mode);
            // The 4-DPU pair keeps the small-set launch path in the pass
            // at `Tiny` cost; the 16-DPU pair carries the simulated work.
            let size = if n_dpus == 4 { DatasetSize::Tiny } else { size };
            let mut case = PrimCase::new("VA", &format!("{n_dpus}dpu/{}", mode.label()), size, rc);
            if n_dpus == 16 {
                case = case.overlap_role(role);
            }
            cases.push(Case::Prim(case));
        }
    }
    let rc = RunConfig::multi(16, baseline(16)).with_channel(ChannelMode::Broadcast);
    cases.push(Case::Prim(PrimCase::new("BS", "16dpu/broadcast", size, rc)));
    cases
}

fn serve_opts(seed: u64, duration_ms: u64, threads: usize) -> ServeOptions {
    ServeOptions { seed, duration_ms, threads: Some(threads), ..ServeOptions::default() }
}

fn serve_steady(seed: u64, scale: Scale) -> Vec<Case> {
    let (duration_ms, checkpoint_ms) = match scale {
        Scale::Full => (20_000, 5_000),
        Scale::Smoke => (300, 100),
    };
    let faults = FaultSpec {
        seed,
        transient_per_mille: 80,
        stuck_per_mille: 10,
        outages: 2,
        dpus_per_rank: 4,
        ..FaultSpec::default()
    };
    vec![
        Case::Serve(ServeCase::new(
            "saturate",
            ServeOptions {
                policy: Some("weighted_fair".to_string()),
                channel: ChannelMode::Overlapped,
                ..serve_opts(seed, duration_ms, 1)
            },
        )),
        Case::Serve(
            ServeCase::new(
                "faulty",
                ServeOptions { faults: Some(faults), ..serve_opts(seed, duration_ms, 1) },
            )
            .checkpointed(checkpoint_ms),
        ),
        Case::Serve(ServeCase::new("inference", serve_opts(seed, duration_ms, 1))),
    ]
}

fn short_jobs(seed: u64, scale: Scale) -> Result<Vec<Case>, String> {
    let workers = pool_workers();
    let (budget, demo_ms) = match scale {
        Scale::Full => (48, 10),
        Scale::Smoke => (12, 5),
    };
    let mut cases = Vec::new();
    for name in GOLDENS {
        cases.push(Case::Golden(GoldenCase::new(name, workers)?));
    }
    cases.push(Case::Fuzz(FuzzCase::new(seed, budget, workers)));
    cases.push(Case::Tune(TuneCase::new(&["VA", "BS"], workers)));
    cases.push(Case::Serve(ServeCase::new("demo", serve_opts(seed, demo_ms, workers))));
    // Sub-10 ms staged launches, both drives: per-job set-up against
    // launch time is what this workload is about.
    for kernel in Kernel::ALL {
        let work = match kernel {
            Kernel::AluLoop => 100,
            Kernel::Stream => 256 * 4,
            Kernel::DmaHeavy => 2,
            Kernel::BarrierHeavy => 10,
        };
        cases.push(staged(kernel, 4, work, Drive::Host, seed));
        cases.push(staged(kernel, 4, work, Drive::Dpu, seed));
    }
    Ok(cases)
}

/// Builds the case list of `workload` — the staging half of set-up.
pub fn build(workload: &str, seed: u64, scale: Scale) -> Result<Vec<Case>, String> {
    match workload {
        "prim_compute" => Ok(prim_compute(seed, scale)),
        "prim_memory" => Ok(prim_memory(seed, scale)),
        "case_studies" => Ok(case_studies(seed, scale)),
        "rank_scale" => Ok(rank_scale(seed, scale)),
        "serve_steady" => Ok(serve_steady(seed, scale)),
        "short_jobs" => short_jobs(seed, scale),
        other => Err(format!("unknown workload `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn every_registered_workload_builds_and_has_cases() {
        for w in WORKLOADS {
            let cases = build(w.name, 1, Scale::Smoke).unwrap();
            assert!(!cases.is_empty(), "{}", w.name);
            let mut names: Vec<&str> = cases.iter().map(Case::name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), cases.len(), "{}: case names are unique", w.name);
        }
        assert!(build("nope", 1, Scale::Smoke).is_err());
    }
}
