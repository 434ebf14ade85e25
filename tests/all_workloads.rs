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
            let cfg = DpuConfig::paper_baseline(16).with_simt(SimtConfig { coalescing });
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

const STAGING_GOLDEN: &str = "results/golden/prim_staging.txt";

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Every registered workload at `Tiny` on 1 DPU × 16 tasklets; on 4 DPUs ×
/// 8 tasklets over the blocking and the overlapped channel where it
/// strong-scales; and on 1 cached DPU where it has a cache-centric kernel —
/// rendered as [`STAGING_GOLDEN`] holds it. A line holds the timeline's four
/// `f64`s as hex bits, `launches`, the FNV-1a-64 of the host push/pull event
/// sequence (from a second run with an event trace, so the order, size and
/// timing of every transfer is pinned) and the FNV-1a-64 of each DPU's
/// `Debug`-rendered stats.
fn staging_table() -> String {
    use pim_host::ChannelMode;
    use pim_trace::TraceEvent;
    let mut table = String::new();
    for w in extended_workloads() {
        let mut cases = vec![("1x16", RunConfig::single(DpuConfig::paper_baseline(16)))];
        if w.supports_multi_dpu() {
            for (label, mode) in [
                ("4x8-blocking", ChannelMode::Blocking),
                ("4x8-overlapped", ChannelMode::Overlapped),
            ] {
                cases.push((
                    label,
                    RunConfig::multi(4, DpuConfig::paper_baseline(8)).with_channel(mode),
                ));
            }
        }
        if w.supports_cache_mode() {
            cases.push((
                "1x16-cached",
                RunConfig::single(DpuConfig::paper_baseline(16).with_paper_caches()),
            ));
        }
        for (label, rc) in cases {
            let run = w
                .run(DatasetSize::Tiny, &rc)
                .unwrap_or_else(|e| panic!("{} [{label}] faulted: {e}", w.name()));
            run.assert_valid();
            let mut traced_rc = rc.clone();
            traced_rc.dpu = traced_rc.dpu.with_event_trace(64);
            let traced = w.run(DatasetSize::Tiny, &traced_rc).unwrap();
            let mut host = String::new();
            for e in &traced.trace.expect("traced run keeps its trace").host {
                let (dir, at_ns, ns, bytes) = match *e {
                    TraceEvent::HostPush { at_ns, ns, bytes } => ("push", at_ns, ns, bytes),
                    TraceEvent::HostPull { at_ns, ns, bytes } => ("pull", at_ns, ns, bytes),
                    ref other => panic!("{}: non-host event {other:?} in the host trace", w.name()),
                };
                host += &format!("{dir} {:016x} {:016x} {bytes}\n", at_ns.to_bits(), ns.to_bits());
            }
            let t = run.timeline;
            let dpus: Vec<String> = run
                .per_dpu
                .iter()
                .map(|s| format!("{:016x}", fnv1a64(format!("{s:?}").as_bytes())))
                .collect();
            table += &format!(
                "{} {label} {:016x} {:016x} {:016x} {:016x} {} {:016x} {}\n",
                w.name(),
                t.to_dpu_ns.to_bits(),
                t.kernel_ns.to_bits(),
                t.from_dpu_ns.to_bits(),
                t.end_ns.to_bits(),
                t.launches,
                fnv1a64(host.as_bytes()),
                dpus.join(",")
            );
        }
    }
    table
}

/// Host staging — where each buffer lives, how it is split across DPUs,
/// and the order and size of every transfer — regenerates exactly.
#[test]
fn staging_matches_the_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(STAGING_GOLDEN);
    let want = std::fs::read_to_string(&path).expect("the staging golden is committed");
    let got = staging_table();
    for (line, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(w, g, "{STAGING_GOLDEN} line {}: host staging moved", line + 1);
    }
    assert_eq!(want.lines().count(), got.lines().count(), "{STAGING_GOLDEN}: cases differ");
}

/// Rewrites [`STAGING_GOLDEN`] from this build:
/// `cargo test --release --test all_workloads -- --ignored write_staging_golden`.
/// Only for a change that is meant to move host staging; review the diff.
#[test]
#[ignore = "rewrites a committed golden"]
fn write_staging_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(STAGING_GOLDEN);
    std::fs::write(path, staging_table()).expect("golden is writable");
}
