//! The experiment harness: one function per figure/table of the paper's
//! evaluation, returning structured rows that the `pim-bench` driver
//! prints and the integration tests sanity-check.
//!
//! Every function takes the [`DatasetSize`] to run at, so the same code
//! regenerates the paper's numbers (`SingleDpu`/`MultiDpu`, Table II) and
//! runs fast in CI (`Tiny`).
//!
//! Each sweep is declared as a flat list of [`SimJob`]s and executed
//! through a [`JobRunner`], so independent simulations fan out across
//! worker threads; results come back in job order, and all derived
//! quantities (speedup baselines, breakdowns) are computed serially from
//! that ordered list — output is bit-identical at any worker count.

use crate::jobs::{JobRunner, SimJob, SimJobOutput};
use pim_dpu::{DpuConfig, IlpFeatures, LockstepSummary, SimError, SimtConfig, TLP_WINDOW};
use pim_isa::InstrClass;
use prim_suite::{all_workloads, DatasetSize};

/// The baseline configuration used by the characterization figures.
#[must_use]
pub fn baseline(threads: u32) -> DpuConfig {
    DpuConfig::paper_baseline(threads)
}

/// Names of all PrIM workloads, in suite order.
fn workload_names() -> Vec<String> {
    all_workloads().iter().map(|w| w.name().to_string()).collect()
}

// ---------------------------------------------------------------------
// Fig 5 — compute & memory-bandwidth utilization
// ---------------------------------------------------------------------

/// One point of Fig 5.
#[derive(Debug, Clone)]
pub struct UtilRow {
    /// Workload name.
    pub workload: String,
    /// Tasklet count.
    pub threads: u32,
    /// IPC over peak IPC (left axis).
    pub compute_util: f64,
    /// MRAM read bandwidth over the interface peak (right axis).
    pub mem_util: f64,
}

/// Fig 5: PrIM compute and MRAM-read-bandwidth utilization at 1/4/16
/// tasklets.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig05_utilization(
    rt: &JobRunner,
    size: DatasetSize,
    threads: &[u32],
) -> Result<Vec<UtilRow>, SimError> {
    let jobs: Vec<SimJob> = workload_names()
        .iter()
        .flat_map(|w| threads.iter().map(|&t| SimJob::single(w, size, baseline(t))))
        .collect();
    let outs = rt.run_sims(&jobs)?;
    Ok(jobs
        .iter()
        .zip(&outs)
        .map(|(job, o)| UtilRow {
            workload: job.workload.clone(),
            threads: job.threads(),
            compute_util: o.stats.compute_utilization(),
            mem_util: o.stats.mram_read_utilization(),
        })
        .collect())
}

// ---------------------------------------------------------------------
// Fig 6 — runtime breakdown
// ---------------------------------------------------------------------

/// One stacked bar of Fig 6 (or of Fig 12's breakdown).
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Workload name.
    pub workload: String,
    /// Tasklet count.
    pub threads: u32,
    /// Fraction of cycles with an issue.
    pub active: f64,
    /// Idle fraction attributed to memory.
    pub idle_memory: f64,
    /// Idle fraction attributed to the revolver constraint.
    pub idle_revolver: f64,
    /// Idle fraction attributed to the RF hazard.
    pub idle_rf: f64,
}

/// Fig 6: active/idle(memory/revolver/RF) runtime breakdown.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig06_breakdown(
    rt: &JobRunner,
    size: DatasetSize,
    threads: &[u32],
) -> Result<Vec<BreakdownRow>, SimError> {
    let jobs: Vec<SimJob> = workload_names()
        .iter()
        .flat_map(|w| threads.iter().map(|&t| SimJob::single(w, size, baseline(t))))
        .collect();
    let outs = rt.run_sims(&jobs)?;
    Ok(jobs.iter().zip(&outs).map(|(job, o)| breakdown_row(job, o)).collect())
}

fn breakdown_row(job: &SimJob, o: &SimJobOutput) -> BreakdownRow {
    let (active, m, r, f) = o.stats.breakdown();
    BreakdownRow {
        workload: job.workload.clone(),
        threads: job.threads(),
        active,
        idle_memory: m,
        idle_revolver: r,
        idle_rf: f,
    }
}

// ---------------------------------------------------------------------
// Fig 7 — issuable-thread histogram
// ---------------------------------------------------------------------

/// One workload's Fig 7 histogram.
#[derive(Debug, Clone)]
pub struct TlpHistRow {
    /// Workload name.
    pub workload: String,
    /// `fractions[k]` = fraction of cycles with exactly `k` issuable
    /// tasklets.
    pub fractions: Vec<f64>,
    /// Mean issuable count (the figure's right axis).
    pub mean: f64,
}

/// Fig 7: issuable-tasklet histogram at 16 tasklets.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig07_tlp_histogram(
    rt: &JobRunner,
    size: DatasetSize,
    threads: u32,
) -> Result<Vec<TlpHistRow>, SimError> {
    let jobs: Vec<SimJob> =
        workload_names().iter().map(|w| SimJob::single(w, size, baseline(threads))).collect();
    let outs = rt.run_sims(&jobs)?;
    Ok(jobs
        .iter()
        .zip(&outs)
        .map(|(job, o)| {
            let total: u64 = o.stats.tlp_histogram.iter().sum();
            let fractions = o
                .stats
                .tlp_histogram
                .iter()
                .map(|&c| if total == 0 { 0.0 } else { c as f64 / total as f64 })
                .collect();
            TlpHistRow { workload: job.workload.clone(), fractions, mean: o.stats.mean_issuable() }
        })
        .collect())
}

// ---------------------------------------------------------------------
// Fig 8 — TLP over time
// ---------------------------------------------------------------------

/// One workload's Fig 8 trace.
#[derive(Debug, Clone)]
pub struct TlpTimelineRow {
    /// Workload name.
    pub workload: String,
    /// Cycles per window ([`TLP_WINDOW`]).
    pub window: u64,
    /// Mean issuable tasklets per window.
    pub series: Vec<f32>,
}

/// Fig 8: issuable-thread count over time for BS, GEMV, and SCAN-SSA.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig08_tlp_timeline(
    rt: &JobRunner,
    size: DatasetSize,
    threads: u32,
) -> Result<Vec<TlpTimelineRow>, SimError> {
    let jobs: Vec<SimJob> = ["BS", "GEMV", "SCAN-SSA"]
        .iter()
        .map(|name| SimJob::single(name, size, baseline(threads)))
        .collect();
    let outs = rt.run_sims(&jobs)?;
    Ok(jobs
        .iter()
        .zip(outs)
        .map(|(job, o)| TlpTimelineRow {
            workload: job.workload.clone(),
            window: TLP_WINDOW,
            series: o.stats.tlp_timeline,
        })
        .collect())
}

// ---------------------------------------------------------------------
// Fig 9 — instruction mix
// ---------------------------------------------------------------------

/// One bar of Fig 9.
#[derive(Debug, Clone)]
pub struct MixRow {
    /// Workload name.
    pub workload: String,
    /// Tasklet count.
    pub threads: u32,
    /// Fractions in [`InstrClass::ALL`] order.
    pub fractions: [f64; 6],
}

/// Fig 9: instruction mix at 1/4/16 tasklets.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig09_instr_mix(
    rt: &JobRunner,
    size: DatasetSize,
    threads: &[u32],
) -> Result<Vec<MixRow>, SimError> {
    let jobs: Vec<SimJob> = workload_names()
        .iter()
        .flat_map(|w| threads.iter().map(|&t| SimJob::single(w, size, baseline(t))))
        .collect();
    let outs = rt.run_sims(&jobs)?;
    Ok(jobs
        .iter()
        .zip(&outs)
        .map(|(job, o)| {
            let mut fractions = [0.0; 6];
            for (i, c) in InstrClass::ALL.iter().enumerate() {
                fractions[i] = o.stats.class_fraction(*c);
            }
            MixRow { workload: job.workload.clone(), threads: job.threads(), fractions }
        })
        .collect())
}

// ---------------------------------------------------------------------
// Fig 10 — multi-DPU strong scaling
// ---------------------------------------------------------------------

/// One bar of Fig 10.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Workload name.
    pub workload: String,
    /// DPUs used.
    pub n_dpus: u32,
    /// CPU→DPU transfer ns.
    pub to_dpu_ns: f64,
    /// Kernel ns.
    pub kernel_ns: f64,
    /// CPU←DPU transfer ns.
    pub from_dpu_ns: f64,
    /// End-to-end speedup vs the 1-DPU run of the same workload.
    pub speedup: f64,
}

/// Fig 10: strong scaling across 1/16/64 DPUs with the latency breakdown.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig10_strong_scaling(
    rt: &JobRunner,
    size: DatasetSize,
    dpus: &[u32],
    threads: u32,
) -> Result<Vec<ScalingRow>, SimError> {
    let jobs: Vec<SimJob> = workload_names()
        .iter()
        .flat_map(|w| dpus.iter().map(|&d| SimJob::multi(w, size, d, baseline(threads))))
        .collect();
    let outs = rt.run_sims(&jobs)?;
    // The speedup baseline is the first DPU count of each workload group —
    // computed serially over the ordered results.
    let mut out = Vec::with_capacity(jobs.len());
    for (jobs, outs) in jobs.chunks(dpus.len()).zip(outs.chunks(dpus.len())) {
        let base = outs[0].timeline.total_ns();
        for (job, o) in jobs.iter().zip(outs) {
            let t = &o.timeline;
            out.push(ScalingRow {
                workload: job.workload.clone(),
                n_dpus: job.run.n_dpus,
                to_dpu_ns: t.to_dpu_ns,
                kernel_ns: t.kernel_ns,
                from_dpu_ns: t.from_dpu_ns,
                speedup: base / t.total_ns(),
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Fig 11 — SIMT case study (GEMV)
// ---------------------------------------------------------------------

/// One design point of Fig 11.
#[derive(Debug, Clone)]
pub struct SimtRow {
    /// Design-point label (`Base`, `SIMT`, `SIMT+AC`, `SIMT+AC+4x`, …).
    pub label: String,
    /// Achieved IPC (max 1 for Base, 16 for SIMT points).
    pub ipc: f64,
    /// Kernel-time speedup vs `Base`.
    pub speedup: f64,
}

/// Fig 11: GEMV under the SIMT vector extension, additively enabling the
/// address coalescer and MRAM-bandwidth scaling.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig11_simt(
    rt: &JobRunner,
    size: DatasetSize,
    threads: u32,
) -> Result<Vec<SimtRow>, SimError> {
    let simt = SimtConfig { coalescing: false };
    let simt_ac = SimtConfig { coalescing: true };
    let points: Vec<(&str, DpuConfig)> = vec![
        ("Base", baseline(threads)),
        ("SIMT", baseline(threads).with_simt(simt)),
        ("SIMT+AC", baseline(threads).with_simt(simt_ac)),
        ("SIMT+AC+4x", baseline(threads).with_simt(simt_ac).with_mram_bw_scale(4.0)),
        ("SIMT+AC+16x", baseline(threads).with_simt(simt_ac).with_mram_bw_scale(16.0)),
    ];
    let jobs: Vec<SimJob> = points
        .into_iter()
        .map(|(label, cfg)| SimJob::single("GEMV", size, cfg).tagged(label))
        .collect();
    let outs = rt.run_sims(&jobs)?;
    let base = outs[0].stats.time_ns();
    Ok(jobs
        .iter()
        .zip(&outs)
        .map(|(job, o)| SimtRow {
            label: job.tag.clone(),
            ipc: o.stats.ipc(),
            speedup: base / o.stats.time_ns(),
        })
        .collect())
}

// ---------------------------------------------------------------------
// Fig 12 — ILP ablation
// ---------------------------------------------------------------------

/// One (workload, design-point) cell of Fig 12.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Workload name.
    pub workload: String,
    /// Design-point label (`Base`, `Base+D`, … `Base+DRSF`).
    pub label: String,
    /// Wall-clock speedup vs `Base` (F doubles the clock, so time — not
    /// cycles — is the right metric).
    pub speedup: f64,
    /// Runtime breakdown at this design point.
    pub breakdown: BreakdownRow,
}

/// The additive feature ladder of Fig 12.
#[must_use]
pub fn ilp_ladder() -> Vec<IlpFeatures> {
    let d = IlpFeatures { data_forwarding: true, ..IlpFeatures::default() };
    let dr = IlpFeatures { unified_rf: true, ..d };
    let drs = IlpFeatures { superscalar: true, ..dr };
    let drsf = IlpFeatures { double_frequency: true, ..drs };
    vec![IlpFeatures::default(), d, dr, drs, drsf]
}

/// Fig 12: additive ILP ablation (`Base → +D → +R → +S → +F`).
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig12_ilp_ablation(
    rt: &JobRunner,
    size: DatasetSize,
    threads: u32,
) -> Result<Vec<AblationRow>, SimError> {
    let ladder = ilp_ladder();
    let jobs: Vec<SimJob> = workload_names()
        .iter()
        .flat_map(|w| {
            ladder.iter().map(|ilp| {
                SimJob::single(w, size, baseline(threads).with_ilp(*ilp)).tagged(ilp.label())
            })
        })
        .collect();
    let outs = rt.run_sims(&jobs)?;
    let mut out = Vec::with_capacity(jobs.len());
    for (jobs, outs) in jobs.chunks(ladder.len()).zip(outs.chunks(ladder.len())) {
        let base = outs[0].stats.time_ns();
        for (job, o) in jobs.iter().zip(outs) {
            out.push(AblationRow {
                workload: job.workload.clone(),
                label: job.tag.clone(),
                speedup: base / o.stats.time_ns(),
                breakdown: breakdown_row(job, o),
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Fig 13 — MRAM bandwidth scaling
// ---------------------------------------------------------------------

/// One line point of Fig 13.
#[derive(Debug, Clone)]
pub struct BwScaleRow {
    /// Workload name.
    pub workload: String,
    /// Design point (`Base` or `Base+DRSF`).
    pub config: String,
    /// MRAM bandwidth multiplier.
    pub scale: f64,
    /// Wall-clock speedup vs the same design point at ×1.
    pub speedup: f64,
}

/// Fig 13: sweeping MRAM-to-WRAM bandwidth ×1–×4 under the baseline and the
/// fully ILP-enhanced DPU.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig13_mram_scaling(
    rt: &JobRunner,
    size: DatasetSize,
    threads: u32,
    scales: &[f64],
) -> Result<Vec<BwScaleRow>, SimError> {
    let configs = [("Base", IlpFeatures::default()), ("Base+DRSF", IlpFeatures::all())];
    let jobs: Vec<SimJob> = workload_names()
        .iter()
        .flat_map(|w| {
            configs.iter().flat_map(move |(label, ilp)| {
                scales.iter().map(move |&scale| {
                    let cfg = baseline(threads).with_ilp(*ilp).with_mram_bw_scale(scale);
                    SimJob::single(w, size, cfg).tagged(*label)
                })
            })
        })
        .collect();
    let outs = rt.run_sims(&jobs)?;
    // The ×1 point of each (workload, config) group is its baseline.
    let mut out = Vec::with_capacity(jobs.len());
    for (jobs, outs) in jobs.chunks(scales.len()).zip(outs.chunks(scales.len())) {
        let base = outs[0].stats.time_ns();
        for ((job, o), &scale) in jobs.iter().zip(outs).zip(scales) {
            out.push(BwScaleRow {
                workload: job.workload.clone(),
                config: job.tag.clone(),
                scale,
                speedup: base / o.stats.time_ns(),
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// §V-C — MMU overhead
// ---------------------------------------------------------------------

/// One workload of the MMU study.
#[derive(Debug, Clone)]
pub struct MmuRow {
    /// Workload name.
    pub workload: String,
    /// Cycles with the MMU over cycles without, minus one (the paper's
    /// "performance loss": avg 0.8%, max 14.1%).
    pub overhead: f64,
    /// TLB hit rate of the MMU run.
    pub tlb_hit_rate: f64,
}

/// §V-C: slowdown from translating every MRAM access through the paper's
/// 16-entry-TLB MMU.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn mmu_overhead(
    rt: &JobRunner,
    size: DatasetSize,
    threads: u32,
) -> Result<Vec<MmuRow>, SimError> {
    let jobs: Vec<SimJob> = workload_names()
        .iter()
        .flat_map(|w| {
            [
                SimJob::single(w, size, baseline(threads)).tagged("base"),
                SimJob::single(w, size, baseline(threads).with_paper_mmu()).tagged("mmu"),
            ]
        })
        .collect();
    let outs = rt.run_sims(&jobs)?;
    Ok(jobs
        .chunks(2)
        .zip(outs.chunks(2))
        .map(|(jobs, pair)| {
            let (base, with) = (&pair[0].stats, &pair[1].stats);
            MmuRow {
                workload: jobs[0].workload.clone(),
                overhead: with.cycles as f64 / base.cycles as f64 - 1.0,
                tlb_hit_rate: with.mmu.map_or(0.0, |m| m.hit_rate()),
            }
        })
        .collect())
}

// ---------------------------------------------------------------------
// Fig 15 / Fig 16 — cache-centric vs scratchpad-centric
// ---------------------------------------------------------------------

/// One bar of Fig 15.
#[derive(Debug, Clone)]
pub struct CacheVsRow {
    /// Workload name.
    pub workload: String,
    /// Tasklet count.
    pub threads: u32,
    /// Cache-centric execution time normalized to scratchpad-centric
    /// (< 1 means caches win).
    pub normalized_time: f64,
}

/// Fig 15: cache-centric vs scratchpad-centric execution time.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig15_cache_vs_scratchpad(
    rt: &JobRunner,
    size: DatasetSize,
    threads: &[u32],
) -> Result<Vec<CacheVsRow>, SimError> {
    let jobs: Vec<SimJob> = all_workloads()
        .iter()
        .filter(|w| w.supports_cache_mode())
        .flat_map(|w| {
            threads.iter().flat_map(|&t| {
                [
                    SimJob::single(w.name(), size, baseline(t)).tagged("scratchpad"),
                    SimJob::single(w.name(), size, baseline(t).with_paper_caches()).tagged("cache"),
                ]
            })
        })
        .collect();
    let outs = rt.run_sims(&jobs)?;
    Ok(jobs
        .chunks(2)
        .zip(outs.chunks(2))
        .map(|(jobs, pair)| CacheVsRow {
            workload: jobs[0].workload.clone(),
            threads: jobs[0].threads(),
            normalized_time: pair[1].stats.time_ns() / pair[0].stats.time_ns(),
        })
        .collect())
}

/// One bar pair of Fig 16.
#[derive(Debug, Clone)]
pub struct BytesReadRow {
    /// Workload name (the paper shows BS and UNI).
    pub workload: String,
    /// Tasklet count.
    pub threads: u32,
    /// DRAM bytes read, scratchpad-centric.
    pub scratchpad_bytes: u64,
    /// DRAM bytes read, cache-centric.
    pub cache_bytes: u64,
    /// Execution time, scratchpad-centric (ns).
    pub scratchpad_ns: f64,
    /// Execution time, cache-centric (ns).
    pub cache_ns: f64,
}

/// Fig 16: bytes read from DRAM and end-to-end kernel time for BS and UNI
/// under both memory models.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn fig16_bytes_read(
    rt: &JobRunner,
    size: DatasetSize,
    threads: &[u32],
) -> Result<Vec<BytesReadRow>, SimError> {
    let jobs: Vec<SimJob> = ["BS", "UNI"]
        .iter()
        .flat_map(|name| {
            threads.iter().flat_map(|&t| {
                [
                    SimJob::single(name, size, baseline(t)).tagged("scratchpad"),
                    SimJob::single(name, size, baseline(t).with_paper_caches()).tagged("cache"),
                ]
            })
        })
        .collect();
    let outs = rt.run_sims(&jobs)?;
    Ok(jobs
        .chunks(2)
        .zip(outs.chunks(2))
        .map(|(jobs, pair)| {
            let (sp, ca) = (&pair[0].stats, &pair[1].stats);
            BytesReadRow {
                workload: jobs[0].workload.clone(),
                threads: jobs[0].threads(),
                scratchpad_bytes: sp.dram.bytes_read,
                cache_bytes: ca.dram.bytes_read,
                scratchpad_ns: sp.time_ns(),
                cache_ns: ca.time_ns(),
            }
        })
        .collect())
}

// ---------------------------------------------------------------------
// §V-C — multi-tenant co-location
// ---------------------------------------------------------------------

/// Results of the §V-C multi-tenancy study: a memory-bound tenant and a
/// compute-bound tenant (the paper's BS+TS pairing) sharing one DPU.
#[derive(Debug, Clone)]
pub struct MultiTenantReport {
    /// Cycles for the memory-bound tenant running alone (8 tasklets).
    pub alone_mem_cycles: u64,
    /// Cycles for the compute-bound tenant running alone (8 tasklets).
    pub alone_compute_cycles: u64,
    /// The memory-bound tenant's completion cycle when co-located.
    pub coloc_mem_finish: u64,
    /// The compute-bound tenant's completion cycle when co-located.
    pub coloc_compute_finish: u64,
    /// Makespan of the co-located run.
    pub coloc_makespan: u64,
    /// Consolidation gain: serialized standalone time over the co-located
    /// makespan (> 1 means sharing the DPU pays off).
    pub consolidation_gain: f64,
    /// The linker/colocation error produced when the tenants' combined
    /// WRAM footprint exceeds the scratchpad — the paper's transparency
    /// failure, verbatim.
    pub scratchpad_overflow_error: String,
    /// Whether the same oversized pairing co-locates under the
    /// cache-centric memory model.
    pub cache_mode_colocates: bool,
}

/// §V-C "transparency": quantifies multi-tenant co-location of a
/// memory-bound and a compute-bound kernel, and reproduces the scratchpad
/// capacity failure that makes transparent co-location impossible in the
/// baseline programming model.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn multi_tenant() -> Result<MultiTenantReport, SimError> {
    use pim_asm::KernelBuilder;
    use pim_dpu::{colocate, Dpu, Tenant};
    use pim_isa::Cond;

    // A BS-like tenant: pointer-chasing probe DMAs, memory-bound.
    let mem_tenant = |base: u32, bit: u32, big: bool| {
        let mut k = KernelBuilder::with_partition(base, bit);
        let buf_bytes = if big { 40 * 1024 } else { 2048 };
        let buf = k.alloc_wram(buf_bytes, 8);
        let [w, m, i, t] = k.regs(["w", "m", "i", "t"]);
        k.tid(t);
        k.mul(w, t, 256);
        k.add(w, w, buf as i32);
        k.mul(m, t, 4096);
        k.movi(i, 128);
        let top = k.label_here("loop");
        k.ldma(w, m, 256);
        k.add(m, m, 1024);
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &top);
        k.stop();
        k.build_with(&pim_asm::LinkOptions { allow_wram_overflow: true })
            .expect("mem tenant builds")
    };
    // A TS-like tenant: a long MAC loop, compute-bound.
    let compute_tenant = |base: u32, bit: u32, big: bool| {
        let mut k = KernelBuilder::with_partition(base, bit);
        let buf_bytes = if big { 40 * 1024 } else { 2048 };
        let _buf = k.alloc_wram(buf_bytes, 8);
        let [a, b, i] = k.regs(["a", "b", "i"]);
        k.movi(a, 1);
        k.movi(b, 3);
        k.movi(i, 12_000);
        let top = k.label_here("loop");
        k.mul(a, a, b);
        k.add(a, a, 7);
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &top);
        k.stop();
        k.build_with(&pim_asm::LinkOptions { allow_wram_overflow: true })
            .expect("compute tenant builds")
    };

    let run_alone = |p: &pim_asm::DpuProgram, n: u32| -> Result<u64, SimError> {
        let mut dpu = Dpu::new(baseline(n));
        dpu.load_program(p)?;
        Ok(dpu.launch()?.cycles)
    };
    let mem = mem_tenant(0, 0, false);
    let compute = compute_tenant(8192, 8, false);
    let alone_mem = run_alone(&mem, 8)?;
    let alone_compute = run_alone(&compute, 8)?;

    let merged = colocate(
        &[Tenant { program: &mem, n_tasklets: 8 }, Tenant { program: &compute, n_tasklets: 8 }],
        false,
    )
    .expect("small tenants co-locate");
    let mut dpu = Dpu::new(baseline(16));
    dpu.load_colocated(&merged)?;
    let stats = dpu.launch()?;
    let finish = |i: usize| {
        merged.tasklets_of[i].clone().map(|t| stats.tasklet_stop_cycle[t]).max().unwrap_or(0)
    };
    let (f_mem, f_compute) = (finish(0), finish(1));
    let makespan = stats.cycles;

    // The paper's negative result: big working sets cannot share 64 KB.
    let big_mem = mem_tenant(0, 0, true);
    let big_compute = compute_tenant(40 * 1024, 8, true);
    let overflow = colocate(
        &[
            Tenant { program: &big_mem, n_tasklets: 8 },
            Tenant { program: &big_compute, n_tasklets: 8 },
        ],
        false,
    )
    .expect_err("combined 80 KB cannot fit the 64 KB scratchpad");
    let cache_ok = colocate(
        &[
            Tenant { program: &big_mem, n_tasklets: 8 },
            Tenant { program: &big_compute, n_tasklets: 8 },
        ],
        true,
    )
    .is_ok();

    Ok(MultiTenantReport {
        alone_mem_cycles: alone_mem,
        alone_compute_cycles: alone_compute,
        coloc_mem_finish: f_mem,
        coloc_compute_finish: f_compute,
        coloc_makespan: makespan,
        consolidation_gain: (alone_mem + alone_compute) as f64 / makespan as f64,
        scratchpad_overflow_error: overflow.to_string(),
        cache_mode_colocates: cache_ok,
    })
}

// ---------------------------------------------------------------------
// Rank scale — batched lockstep execution at paper population sizes
// ---------------------------------------------------------------------

/// DPUs per unit of the rank sweep: the paper counts its 2,560-DPU
/// baseline as 20 units of 128, and each unit is two of the host channel's
/// 64-DPU ranks ([`pim_host::RANK_DPUS`]). The sweep's rows and its
/// `dpus_per_rank` key keep the 128-DPU unit.
pub const DPUS_PER_RANK: u32 = 128;

/// Default shard length of the rank sweep: DPUs per `PimSystem` handed to
/// the job engine.
pub const DEFAULT_RANK_BATCH: u32 = 64;

/// Words each DPU sums out of its MRAM window.
const RANK_WINDOW_WORDS: u32 = 1024;

const RANK_TASKLETS: u32 = 8;

/// One population point of the rank-scale sweep.
///
/// Every field is a *simulated* quantity (no wall-clock), so the rows —
/// and the JSON document built from them — are byte-identical across
/// worker counts and batch sizes.
#[derive(Debug, Clone)]
pub struct RankScaleRow {
    /// Ranks simulated at this point.
    pub ranks: u32,
    /// DPUs simulated (`ranks * DPUS_PER_RANK`).
    pub dpus: u32,
    /// Instructions summed across the population.
    pub instructions: u64,
    /// DPU cycles summed across the population.
    pub cycles: u64,
    /// Kernel time of the launch (slowest DPU anywhere), ns.
    pub kernel_ns: f64,
    /// Wrapping sum of every DPU's kernel result (host-validated).
    pub checksum: u32,
}

/// The rank sweep's kernel: each of 8 tasklets stages its share of the
/// DPU's MRAM window through WRAM in 256-byte DMA blocks, sums the words,
/// and folds its partial into the shared `sum` under an atomic bit.
fn rank_kernel() -> pim_asm::DpuProgram {
    use pim_isa::Cond;
    let mut k = pim_asm::KernelBuilder::new();
    let buf = k.global_zeroed("buf", 256 * RANK_TASKLETS);
    let sum = k.global_zeroed("sum", 4);
    let [t, m, end, w, p, i, v, acc] = k.regs(["t", "m", "end", "w", "p", "i", "v", "acc"]);
    let share = (RANK_WINDOW_WORDS * 4 / RANK_TASKLETS) as i32; // bytes, multiple of 256
    k.tid(t);
    k.movi(m, share);
    k.mul(m, m, t);
    k.add(end, m, share);
    k.movi(w, 256);
    k.mul(w, w, t);
    k.add(w, w, buf as i32);
    k.movi(acc, 0);
    let outer = k.label_here("outer");
    k.ldma(w, m, 256);
    k.mov(p, w);
    k.movi(i, 64);
    let inner = k.label_here("inner");
    k.lw(v, p, 0);
    k.add(acc, acc, v);
    k.add(p, p, 4);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &inner);
    k.add(m, m, 256);
    k.branch(Cond::Ltu, m, end, &outer);
    k.acquire(0);
    k.movi(p, sum as i32);
    k.lw(v, p, 0);
    k.add(v, v, acc);
    k.sw(v, p, 0);
    k.release(0);
    k.stop();
    k.build().expect("rank kernel assembles")
}

/// Deterministic per-DPU input window: DPU `g`'s words depend only on `g`,
/// so any partition of the population stages identical data.
fn rank_input(g: u32) -> Vec<i32> {
    (0..RANK_WINDOW_WORDS)
        .map(|i| {
            (g.wrapping_mul(2_654_435_761).wrapping_add(i.wrapping_mul(40_503)) ^ 0x9e37_79b9)
                as i32
        })
        .collect()
}

/// Half-open range of global DPU indices forming one batch shard.
#[derive(Debug, Clone, Copy)]
struct RankShard {
    lo: u32,
    hi: u32,
}

/// Builds a fully staged rank-sweep population: `n_dpus` DPUs under
/// the paper baseline at 8 tasklets, each with Table I's 64 MB MRAM bank,
/// with the kernel loaded and DPU `base + i`'s deterministic input window
/// written to MRAM. A bank costs the host only the pages written to it —
/// here the 4 KB window — so 2,560 DPUs fit in host memory. Used by the
/// sweep's shards and by the `pim-bench` `rank` synthetic, which stages
/// once and times repeated launches. `_batch_dpus` is ignored: it used to select the
/// lockstep driver, which `PimSystem::launch_all` now takes whenever the
/// DPUs are compatible. It stays because `benchmark/` (`cases.rs`,
/// `probes.rs`) calls this with three arguments.
///
/// # Errors
///
/// Propagates the program-load fault, if any.
pub fn rank_population(
    base: u32,
    n_dpus: u32,
    _batch_dpus: u32,
) -> Result<pim_host::PimSystem, SimError> {
    let program = rank_kernel();
    let mut sys = pim_host::PimSystem::new(
        n_dpus,
        DpuConfig::paper_baseline(RANK_TASKLETS),
        pim_host::ChannelConfig::paper(),
    );
    sys.load(&program)?;
    for i in 0..n_dpus {
        let bytes: Vec<u8> = rank_input(base + i).iter().flat_map(|w| w.to_le_bytes()).collect();
        sys.dpu_mut(i).write_mram(0, &bytes);
    }
    Ok(sys)
}

/// What one shard contributes to its row: `(instructions, cycles,
/// kernel_ns, checksum)` and what lockstep did with its DPUs.
type RankShardOut = ((u64, u64, f64, u32), LockstepSummary);

/// Simulates one shard end-to-end, validating every DPU's kernel result
/// against the host reference.
fn run_rank_shard(shard: RankShard) -> Result<RankShardOut, SimError> {
    let mut sys = rank_population(shard.lo, shard.hi - shard.lo, 0)?;
    let report = sys.launch_all()?;
    let mut checksum: u32 = 0;
    for (j, bytes) in sys.pull_from_symbol("sum").iter().enumerate() {
        let got = i32::from_le_bytes(bytes.as_slice().try_into().expect("4-byte sum"));
        let g = shard.lo + j as u32;
        let want = rank_input(g).iter().fold(0i32, |a, w| a.wrapping_add(*w));
        assert_eq!(got, want, "rank-sweep DPU {g} diverged from the host reference");
        checksum = checksum.wrapping_add(got as u32);
    }
    let cycles = report.per_dpu.iter().map(|s| s.cycles).sum();
    Ok(((report.total_instructions(), cycles, report.kernel_ns, checksum), report.lockstep))
}

/// Rank-scale sweep: simulates whole-rank DPU populations (up to the
/// paper's 20 ranks = 2,560 DPUs at `MultiDpu`), sharding the population
/// into systems of `shard_len` DPUs ([`DEFAULT_RANK_BATCH`] in the
/// experiment) over the job engine; each system's `launch_all` runs its
/// compatible DPUs in lockstep. Returns the rows and what the lockstep
/// driver did over the whole sweep.
///
/// Rows are byte-identical across worker counts and shard lengths (pinned
/// by `tests/determinism.rs`): lockstep group boundaries are
/// timing-invisible, and every reported quantity is simulated, aggregated
/// with order-independent folds. The summary is diagnostic: it depends on
/// how launches were split over host threads, so it goes into no results
/// document.
///
/// # Errors
///
/// Propagates the first simulation fault, in shard order.
///
/// # Panics
///
/// Panics if `shard_len` is 0.
pub fn exp_rank_scale(
    rt: &JobRunner,
    size: DatasetSize,
    shard_len: u32,
) -> Result<(Vec<RankScaleRow>, LockstepSummary), SimError> {
    let rank_counts: &[u32] = match size {
        DatasetSize::Tiny => &[1, 2],
        DatasetSize::SingleDpu => &[1, 2, 4, 8],
        DatasetSize::MultiDpu => &[1, 4, 8, 20],
    };
    let mut rows = Vec::with_capacity(rank_counts.len());
    let mut lockstep = LockstepSummary::default();
    for &ranks in rank_counts {
        let dpus = ranks * DPUS_PER_RANK;
        let shards: Vec<RankShard> = (0..dpus)
            .step_by(shard_len as usize)
            .map(|lo| RankShard { lo, hi: (lo + shard_len).min(dpus) })
            .collect();
        let outs = rt.map(&shards, |_, &s| run_rank_shard(s));
        let mut row =
            RankScaleRow { ranks, dpus, instructions: 0, cycles: 0, kernel_ns: 0.0, checksum: 0 };
        for (shard, out) in shards.iter().zip(outs) {
            let ((instructions, cycles, kernel_ns, checksum), summary) = out?;
            row.instructions += instructions;
            row.cycles += cycles;
            row.kernel_ns = row.kernel_ns.max(kernel_ns);
            row.checksum = row.checksum.wrapping_add(checksum);
            lockstep.absorb(&summary, shard.lo);
        }
        rows.push(row);
    }
    Ok((rows, lockstep))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_tenant_study_shows_consolidation_and_the_capacity_failure() {
        let r = multi_tenant().unwrap();
        assert!(
            r.consolidation_gain > 1.0,
            "complementary tenants must consolidate, got {:.2}",
            r.consolidation_gain
        );
        assert!(r.scratchpad_overflow_error.contains("scratchpad"));
        assert!(r.cache_mode_colocates);
        assert!(r.coloc_makespan >= r.coloc_mem_finish.max(r.coloc_compute_finish));
    }

    #[test]
    fn ilp_ladder_is_additive() {
        let ladder = ilp_ladder();
        assert_eq!(ladder.len(), 5);
        assert_eq!(ladder[0].label(), "Base");
        assert_eq!(ladder[1].label(), "Base+D");
        assert_eq!(ladder[2].label(), "Base+DR");
        assert_eq!(ladder[3].label(), "Base+DRS");
        assert_eq!(ladder[4].label(), "Base+DRSF");
    }

    #[test]
    fn fig11_points_cover_the_paper() {
        let rows = fig11_simt(&JobRunner::default(), DatasetSize::Tiny, 16).unwrap();
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["Base", "SIMT", "SIMT+AC", "SIMT+AC+4x", "SIMT+AC+16x"]);
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        // SIMT designs must beat the scalar baseline on GEMV.
        assert!(rows[2].speedup > 1.0, "SIMT+AC should beat Base");
        // Bandwidth scaling must not hurt.
        assert!(rows[3].speedup >= rows[2].speedup * 0.95);
        assert!(rows[4].speedup >= rows[3].speedup * 0.95);
    }

    #[test]
    fn rank_scale_rows_are_shard_length_invariant() {
        let rt = JobRunner::new(Some(2));
        let (batched, _) = exp_rank_scale(&rt, DatasetSize::Tiny, 32).unwrap();
        let (per_dpu, lockstep) =
            exp_rank_scale(&rt, DatasetSize::Tiny, DEFAULT_RANK_BATCH).unwrap();
        assert_eq!(lockstep.members(), 3 * DPUS_PER_RANK);
        assert!(lockstep.left.is_empty(), "the rank kernel never diverges: {lockstep}");
        let (odd, _) = exp_rank_scale(&rt, DatasetSize::Tiny, 7).unwrap();
        assert_eq!(batched.len(), 2);
        assert_eq!(batched[0].dpus, DPUS_PER_RANK);
        assert_eq!(batched[1].dpus, 2 * DPUS_PER_RANK);
        for (a, rest) in batched.iter().zip(per_dpu.iter().zip(&odd)) {
            for b in [rest.0, rest.1] {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
        assert!(batched[0].instructions > 0);
    }

    #[test]
    fn fig16_shows_bs_overfetch_and_uni_favouring_scratchpad() {
        let rows = fig16_bytes_read(&JobRunner::default(), DatasetSize::Tiny, &[16]).unwrap();
        let bs = rows.iter().find(|r| r.workload == "BS").unwrap();
        assert!(
            bs.scratchpad_bytes > bs.cache_bytes,
            "BS must overfetch under scratchpads ({} vs {})",
            bs.scratchpad_bytes,
            bs.cache_bytes
        );
        // UNI's "scratchpad wins" effect only appears when the working set
        // exceeds the 64 KB D-cache (the paper's 2 MB dataset); the Tiny
        // dataset fits in cache, so here we only check both modes ran.
        let uni = rows.iter().find(|r| r.workload == "UNI").unwrap();
        assert!(uni.scratchpad_bytes > 0 && uni.cache_bytes > 0);
    }
}
