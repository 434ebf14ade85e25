//! # pim-bench
//!
//! The figure/table regeneration library: a registry entry per figure or
//! study of the paper's evaluation ([`experiments`]), execution through
//! the parallel [`JobRunner`] ([`run_experiment`]), and per-experiment
//! formatting into an [`ExpReport`] — the human-readable table plus the
//! machine-readable JSON document, both from one [`Cols`] list per table.
//! The [`tune`] module holds the autotuner sweep and its table format.
//!
//! This crate parses no command line and writes no file: `pimsim exp`,
//! `pimsim trace` and `pimsim tune` (crate `pim-cli`) are the front door.

pub mod tune;

use std::fmt::Write as _;
use std::time::Instant;

use pim_dpu::{DpuConfig, ExecTier, SimError};
use pim_isa::InstrClass;
use pimulator::experiments as exp;
use pimulator::jobs::{JobRunner, SimJob};
use pimulator::report::Show::{Fixed, Ms, Pct, Text, Us, X};
use pimulator::report::{pct, speedup, Cols, Json};
use pimulator::trace::JobTrace;
use prim_suite::{DatasetSize, RunConfig};

/// The dataset size a `--size` value or a document's `size` field names.
#[must_use]
pub fn size_by_label(label: &str) -> Option<DatasetSize> {
    [DatasetSize::Tiny, DatasetSize::SingleDpu, DatasetSize::MultiDpu]
        .into_iter()
        .find(|&s| size_label(s) == label)
}

/// The inverse of [`size_by_label`].
#[must_use]
pub(crate) fn size_label(size: DatasetSize) -> &'static str {
    match size {
        DatasetSize::Tiny => "tiny",
        DatasetSize::SingleDpu => "single",
        DatasetSize::MultiDpu => "multi",
    }
}

/// The thread counts the paper sweeps (shown as 1/4/16 in the figures).
pub(crate) const PAPER_THREADS: [u32; 3] = [1, 4, 16];

/// Everything an experiment needs at run time.
#[derive(Debug)]
pub struct ExpContext {
    /// The registry entry being run: the one place its name and title
    /// are written; every table header and JSON document reads them here.
    pub exp: &'static Experiment,
    /// The worker pool all simulations go through.
    pub rt: JobRunner,
    /// Dataset size to run at.
    pub size: DatasetSize,
    /// Tuned-config table from `--tuned FILE`, when given. Experiments
    /// that sweep execution shapes (the channel study) take their
    /// per-workload `(tasklets, n_dpus)` from it instead of the built-in
    /// defaults.
    pub tuned: Option<tune::TunedTable>,
}

/// What an experiment produces: the full human-readable text (header line
/// included, exactly what `pimsim exp` prints) and the JSON document it
/// writes to `results/<name>.json`.
#[derive(Debug, Clone)]
pub struct ExpReport {
    /// Human-readable output.
    pub text: String,
    /// Machine-readable output.
    pub json: Json,
}

/// A registry entry: one figure or study of the paper's evaluation.
#[derive(Debug)]
pub struct Experiment {
    /// Stable name — the `pimsim exp` argument, the `experiment` field of
    /// the JSON document, and its file stem.
    pub name: &'static str,
    /// One-line description shown by `pimsim exp --list`.
    pub title: &'static str,
    /// Dataset size used when `--size` is not given.
    pub default_size: DatasetSize,
    /// Runs the experiment.
    pub run: fn(&ExpContext) -> Result<ExpReport, SimError>,
}

/// All experiments, in paper order.
#[must_use]
pub fn experiments() -> &'static [Experiment] {
    const REGISTRY: &[Experiment] = &[
        Experiment {
            name: "fig05_utilization",
            title: "Fig 5: compute & MRAM-read-bandwidth utilization",
            default_size: DatasetSize::SingleDpu,
            run: run_fig05,
        },
        Experiment {
            name: "fig06_breakdown",
            title: "Fig 6: runtime breakdown",
            default_size: DatasetSize::SingleDpu,
            run: run_fig06,
        },
        Experiment {
            name: "fig07_tlp_histogram",
            title: "Fig 7: issuable-tasklet histogram @16 tasklets",
            default_size: DatasetSize::SingleDpu,
            run: run_fig07,
        },
        Experiment {
            name: "fig08_tlp_timeline",
            title: "Fig 8: TLP over time @16 tasklets",
            default_size: DatasetSize::SingleDpu,
            run: run_fig08,
        },
        Experiment {
            name: "fig09_instr_mix",
            title: "Fig 9: instruction mix",
            default_size: DatasetSize::SingleDpu,
            run: run_fig09,
        },
        Experiment {
            name: "fig10_strong_scaling",
            title: "Fig 10: multi-DPU strong scaling",
            default_size: DatasetSize::MultiDpu,
            run: run_fig10,
        },
        Experiment {
            name: "fig11_simt",
            title: "Fig 11: SIMT case study on GEMV",
            default_size: DatasetSize::SingleDpu,
            run: run_fig11,
        },
        Experiment {
            name: "fig12_ilp_ablation",
            title: "Fig 12: ILP ablation @16 tasklets",
            default_size: DatasetSize::SingleDpu,
            run: run_fig12,
        },
        Experiment {
            name: "fig13_mram_scaling",
            title: "Fig 13: MRAM bandwidth scaling @16 tasklets",
            default_size: DatasetSize::SingleDpu,
            run: run_fig13,
        },
        Experiment {
            name: "fig15_cache_vs_scratchpad",
            title: "Fig 15: cache-centric vs scratchpad-centric",
            default_size: DatasetSize::SingleDpu,
            run: run_fig15,
        },
        Experiment {
            name: "fig16_bytes_read",
            title: "Fig 16: DRAM bytes read, scratchpad vs cache",
            default_size: DatasetSize::SingleDpu,
            run: run_fig16,
        },
        Experiment {
            name: "exp_mmu_overhead",
            title: "\u{a7}V-C: MMU address-translation overhead @16 tasklets",
            default_size: DatasetSize::SingleDpu,
            run: run_mmu,
        },
        Experiment {
            name: "exp_multi_tenant",
            title: "\u{a7}V-C: multi-tenant co-location",
            default_size: DatasetSize::SingleDpu,
            run: run_multi_tenant,
        },
        Experiment {
            name: "exp_serving",
            title: "Serving: saturation sweep (throughput plateau, p99 knee)",
            default_size: DatasetSize::SingleDpu,
            run: run_serving,
        },
        Experiment {
            name: "exp_serving_faults",
            title: "Serving: fault campaigns (retry, degradation, conservation)",
            default_size: DatasetSize::SingleDpu,
            run: run_serving_faults,
        },
        Experiment {
            name: "exp_rank_scale",
            title: "Rank scale: lockstep replay of whole-rank populations",
            default_size: DatasetSize::MultiDpu,
            run: run_rank_scale,
        },
        Experiment {
            name: "exp_sparse_nn",
            title: "Extension: sparse BSR & quantized NN-inference families",
            default_size: DatasetSize::Tiny,
            run: run_sparse_nn,
        },
        Experiment {
            name: "exp_transfer_study",
            title: "Channel study: blocking vs broadcast vs overlapped host transfers",
            default_size: DatasetSize::Tiny,
            run: run_transfer_study,
        },
        Experiment {
            name: "exp_sim_rate",
            title: "\u{a7}III-D: simulation rate",
            default_size: DatasetSize::SingleDpu,
            run: run_sim_rate,
        },
        Experiment {
            name: "exp_validation",
            title: "\u{a7}III-C validation sweep (functional, hardware-free)",
            default_size: DatasetSize::SingleDpu,
            run: run_validation,
        },
    ];
    REGISTRY
}

/// Looks up an experiment by its stable name.
#[must_use]
pub fn experiment_by_name(name: &str) -> Option<&'static Experiment> {
    experiments().iter().find(|e| e.name == name)
}

/// How to run an experiment; every field has a default.
#[derive(Debug, Clone, Default)]
pub struct DriverOptions {
    /// Dataset size (the experiment's default when absent).
    pub size: Option<DatasetSize>,
    /// Worker cap (`available_parallelism` when absent).
    pub threads: Option<usize>,
    /// Run the whole sweep with event tracing and harvest every job's
    /// trace (see [`run_experiment_with_traces`]).
    pub trace: bool,
    /// Tuned-config table from `pimsim tune`, handed to the experiment.
    pub tuned: Option<tune::TunedTable>,
}

/// Per-DPU event-ring capacity of a traced run: deep enough to keep the
/// whole steady state of the tiny/single sweeps while bounding memory on
/// the long ones (the ring keeps the most recent events; drops are
/// counted and reported).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Runs one experiment under the given options and returns its report.
///
/// # Errors
///
/// Propagates the experiment's simulation fault.
pub fn run_experiment(e: &'static Experiment, opts: &DriverOptions) -> Result<ExpReport, SimError> {
    run_experiment_with_traces(e, opts).map(|(report, _)| report)
}

/// Like [`run_experiment`], but when `opts.trace` is set every job's
/// labelled trace is returned alongside the report (empty otherwise).
///
/// # Errors
///
/// Propagates the experiment's simulation fault.
pub fn run_experiment_with_traces(
    e: &'static Experiment,
    opts: &DriverOptions,
) -> Result<(ExpReport, Vec<JobTrace>), SimError> {
    let mut rt = JobRunner::new(opts.threads);
    if opts.trace {
        rt = rt.collecting_traces(DEFAULT_TRACE_CAPACITY);
    }
    let ctx = ExpContext {
        exp: e,
        rt,
        size: opts.size.unwrap_or(e.default_size),
        tuned: opts.tuned.clone(),
    };
    let report = (e.run)(&ctx)?;
    Ok((report, ctx.rt.collected_traces()))
}

/// The header line of an experiment's table: its title and the size.
fn header(ctx: &ExpContext) -> String {
    format!("== {} ({:?}) ==\n", ctx.exp.title, ctx.size)
}

/// The JSON document of an experiment: `experiment`, `size`, `rows`, then
/// the experiment's `extra` top-level fields.
fn json_doc(ctx: &ExpContext, rows: Json, extra: Vec<(&str, Json)>) -> Json {
    let name = Json::from(ctx.exp.name);
    let head = [("experiment", name), ("size", Json::from(size_label(ctx.size))), ("rows", rows)];
    Json::obj(head.into_iter().chain(extra))
}

/// The report of a table experiment: its header line over the table of
/// `rows`, and the document of their objects followed by `extra`.
fn tabled<'r, R: ?Sized + 'static>(
    ctx: &ExpContext,
    cols: &Cols<R>,
    rows: impl IntoIterator<Item = &'r R>,
    extra: Vec<(&str, Json)>,
) -> ExpReport {
    let (table, json) = cols.tabulate(rows);
    ExpReport { text: header(ctx) + &table.render(), json: json_doc(ctx, Json::Arr(json), extra) }
}

// ---------------------------------------------------------------------
// Per-experiment columns
// ---------------------------------------------------------------------

fn run_fig05(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig05_utilization(&ctx.rt, ctx.size, &PAPER_THREADS)?;
    let cols = Cols::<exp::UtilRow>::new()
        .col("workload", "workload", Text, |r| r.workload.clone())
        .col("threads", "threads", Text, |r| r.threads)
        .col("compute_util", "compute util", Pct, |r| r.compute_util)
        .col("mem_read_util", "mem read util", Pct, |r| r.mem_util);
    Ok(tabled(ctx, &cols, &rows, vec![]))
}

type Share = fn(&exp::BreakdownRow) -> f64;
/// The Fig 6 runtime shares: JSON key, header, field.
const SHARES: [(&str, &str, Share); 4] = [
    ("active", "active", |b| b.active),
    ("idle_memory", "idle(mem)", |b| b.idle_memory),
    ("idle_revolver", "idle(revolver)", |b| b.idle_revolver),
    ("idle_rf", "idle(RF)", |b| b.idle_rf),
];

/// Fig 6's columns, which are also each Fig 12 row's `breakdown` object.
fn breakdown_cols() -> Cols<exp::BreakdownRow> {
    let ids = Cols::<exp::BreakdownRow>::new()
        .col("workload", "workload", Text, |r| r.workload.clone())
        .col("threads", "threads", Text, |r| r.threads);
    SHARES.into_iter().fold(ids, |cols, (key, header, share)| cols.col(key, header, Pct, share))
}

fn run_fig06(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig06_breakdown(&ctx.rt, ctx.size, &PAPER_THREADS)?;
    Ok(tabled(ctx, &breakdown_cols(), &rows, vec![]))
}

fn run_fig07(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig07_tlp_histogram(&ctx.rt, ctx.size, 16)?;
    // Bin exactly as the paper plots: 0 / 1 / 2 / 3 / 4 / 5-8 / 9-16.
    let bins = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 8), (9, 16)];
    let bins = bins.into_iter().fold(Cols::new(), |cols, (lo, hi)| {
        let label = if lo == hi { lo.to_string() } else { format!("{lo}-{hi}") };
        cols.col(&label, &label, Pct, move |r: &exp::TlpHistRow| -> f64 {
            r.fractions.iter().skip(lo).take(hi - lo + 1).sum()
        })
    });
    let cols = Cols::<exp::TlpHistRow>::new()
        .col("workload", "workload", Text, |r| r.workload.clone())
        .nest("bins", bins)
        .key("fractions", |r| Json::arr(r.fractions.iter().map(|&f| Json::from(f))))
        .col("mean_issuable", "avg issuable", Fixed(2), |r| r.mean);
    Ok(tabled(ctx, &cols, &rows, vec![]))
}

fn run_fig08(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig08_tlp_timeline(&ctx.rt, ctx.size, 16)?;
    let mut text = header(ctx);
    let mut json_rows = Vec::new();
    for r in rows {
        let _ = writeln!(text, "\n{} (windows of {} cycles):", r.workload, r.window);
        // Coarse ASCII sparkline plus the first raw windows.
        let marks = "_123456789ABCDEFG";
        let line: String = r
            .series
            .iter()
            .map(|&v| {
                let idx = (v.round() as usize).min(16);
                marks.chars().nth(idx).unwrap_or('?')
            })
            .collect();
        let _ = writeln!(text, "  sparkline(avg issuable/window): {line}");
        let preview: Vec<String> = r.series.iter().take(24).map(|v| format!("{v:.1}")).collect();
        let _ = writeln!(text, "  first windows: {}", preview.join(" "));
        json_rows.push(Json::obj([
            ("workload", Json::from(r.workload)),
            ("window_cycles", Json::from(r.window)),
            ("series", Json::arr(r.series.iter().map(|&v| Json::from(f64::from(v))))),
        ]));
    }
    Ok(ExpReport { text, json: json_doc(ctx, Json::Arr(json_rows), vec![]) })
}

fn run_fig09(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig09_instr_mix(&ctx.rt, ctx.size, &PAPER_THREADS)?;
    let mix = InstrClass::ALL.iter().enumerate().fold(Cols::new(), |cols, (i, c)| {
        cols.col(c.label(), c.label(), Pct, move |r: &exp::MixRow| r.fractions[i])
    });
    let cols = Cols::<exp::MixRow>::new()
        .col("workload", "workload", Text, |r| r.workload.clone())
        .col("threads", "threads", Text, |r| r.threads)
        .nest("mix", mix);
    Ok(tabled(ctx, &cols, &rows, vec![]))
}

fn run_fig10(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    // The paper sweeps 1/16/64 DPUs on the multi-DPU datasets; the tiny
    // smoke datasets only split 4 ways.
    let dpus: &[u32] = if ctx.size == DatasetSize::Tiny { &[1, 2, 4] } else { &[1, 16, 64] };
    let rows = exp::fig10_strong_scaling(&ctx.rt, ctx.size, dpus, 16)?;
    let total = |r: &exp::ScalingRow| r.to_dpu_ns + r.kernel_ns + r.from_dpu_ns;
    let cols = Cols::<exp::ScalingRow>::new()
        .col("workload", "workload", Text, |r| r.workload.clone())
        .col("n_dpus", "DPUs", Text, |r| r.n_dpus)
        .cell("CPU->DPU", Pct, move |r| r.to_dpu_ns / total(r))
        .cell("kernel", Pct, move |r| r.kernel_ns / total(r))
        .cell("DPU->CPU", Pct, move |r| r.from_dpu_ns / total(r))
        .cell("total ms", Ms(3), total)
        .key("to_dpu_ns", |r| r.to_dpu_ns)
        .key("kernel_ns", |r| r.kernel_ns)
        .key("from_dpu_ns", |r| r.from_dpu_ns)
        .col("speedup", "speedup", X, |r| r.speedup);
    Ok(tabled(ctx, &cols, &rows, vec![]))
}

fn run_fig11(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig11_simt(&ctx.rt, ctx.size, 16)?;
    let cols = Cols::<exp::SimtRow>::new()
        .col("design", "design point", Text, |r| r.label.clone())
        .col("ipc", "IPC", Fixed(2), |r| r.ipc)
        .col("speedup", "speedup vs Base", X, |r| r.speedup);
    Ok(tabled(ctx, &cols, &rows, vec![]))
}

fn run_fig12(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig12_ilp_ablation(&ctx.rt, ctx.size, 16)?;
    let breakdown = breakdown_cols();
    let cols = Cols::<exp::AblationRow>::new()
        .col("workload", "workload", Text, |r| r.workload.clone())
        .col("design", "design", Text, |r| r.label.clone())
        .col("speedup", "speedup", X, |r| r.speedup)
        .key("breakdown", move |r| breakdown.json(&r.breakdown));
    let cols = SHARES.into_iter().fold(cols, |cols, (_, header, share)| {
        cols.cell(header, Pct, move |r| share(&r.breakdown))
    });
    let drsf: Vec<f64> =
        rows.iter().filter(|r| r.label == "Base+DRSF").map(|r| r.speedup).collect();
    let avg = drsf.iter().sum::<f64>() / drsf.len().max(1) as f64;
    let max = drsf.iter().fold(1.0f64, |m, &s| m.max(s));
    let summary =
        Json::obj([("avg_drsf_speedup", Json::from(avg)), ("max_drsf_speedup", Json::from(max))]);
    let mut report = tabled(ctx, &cols, &rows, vec![("summary", summary)]);
    let _ = writeln!(
        report.text,
        "\nBase+DRSF speedup: avg {} / max {}  (paper: avg 2.7x, max 6.2x)",
        speedup(avg),
        speedup(max)
    );
    Ok(report)
}

fn run_fig13(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let scales = [1.0, 2.0, 3.0, 4.0];
    let rows = exp::fig13_mram_scaling(&ctx.rt, ctx.size, 16, &scales)?;
    // One table row per (workload, design) group of `scales.len()` points.
    let speedups = scales.iter().enumerate().fold(Cols::new(), |cols, (i, &s)| {
        let label = format!("x{}", s as u32);
        cols.col(&label, &label, X, move |g: &[exp::BwScaleRow]| g[i].speedup)
    });
    let cols = Cols::<[exp::BwScaleRow]>::new()
        .col("workload", "workload", Text, |g| g[0].workload.clone())
        .col("design", "design", Text, |g| g[0].config.clone())
        .nest("speedups", speedups);
    Ok(tabled(ctx, &cols, rows.chunks(scales.len()), vec![]))
}

fn run_fig15(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig15_cache_vs_scratchpad(&ctx.rt, ctx.size, &PAPER_THREADS)?;
    let cols = Cols::<exp::CacheVsRow>::new()
        .col("workload", "workload", Text, |r| r.workload.clone())
        .col("threads", "threads", Text, |r| r.threads)
        .col("cache_over_scratchpad_time", "cache time / scratchpad time", Pct, |r| {
            r.normalized_time
        });
    Ok(tabled(ctx, &cols, &rows, vec![]))
}

fn run_fig16(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig16_bytes_read(&ctx.rt, ctx.size, &PAPER_THREADS)?;
    let cols = Cols::<exp::BytesReadRow>::new()
        .col("workload", "workload", Text, |r| r.workload.clone())
        .col("threads", "threads", Text, |r| r.threads)
        .col("scratchpad_bytes", "scratchpad bytes", Text, |r| r.scratchpad_bytes)
        .col("cache_bytes", "cache bytes", Text, |r| r.cache_bytes)
        .cell("ratio", X, |r| r.scratchpad_bytes as f64 / r.cache_bytes.max(1) as f64)
        .col("scratchpad_ns", "scratchpad ms", Ms(3), |r| r.scratchpad_ns)
        .col("cache_ns", "cache ms", Ms(3), |r| r.cache_ns);
    Ok(tabled(ctx, &cols, &rows, vec![]))
}

fn run_mmu(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::mmu_overhead(&ctx.rt, ctx.size, 16)?;
    let cols = Cols::<exp::MmuRow>::new()
        .col("workload", "workload", Text, |r| r.workload.clone())
        .col("overhead", "overhead", Pct, |r| r.overhead)
        .col("tlb_hit_rate", "TLB hit rate", Pct, |r| r.tlb_hit_rate);
    let avg = rows.iter().map(|r| r.overhead).sum::<f64>() / rows.len() as f64;
    let max = rows.iter().fold(0.0f64, |m, r| m.max(r.overhead));
    let summary = Json::obj([("avg_overhead", Json::from(avg)), ("max_overhead", Json::from(max))]);
    let mut report = tabled(ctx, &cols, &rows, vec![("summary", summary)]);
    let _ = writeln!(
        report.text,
        "\naverage overhead {} / max {}  (paper: avg 0.8%, max 14.1%)",
        pct(avg),
        pct(max)
    );
    Ok(report)
}

fn run_multi_tenant(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let r = exp::multi_tenant()?;
    let mut text = format!("== {} ==\n", ctx.exp.title);
    let _ = writeln!(
        text,
        "memory-bound tenant alone (8 tasklets)  : {:>9} cycles",
        r.alone_mem_cycles
    );
    let _ = writeln!(
        text,
        "compute-bound tenant alone (8 tasklets) : {:>9} cycles",
        r.alone_compute_cycles
    );
    let _ = writeln!(
        text,
        "co-located: memory tenant finished at   : {:>9} cycles",
        r.coloc_mem_finish
    );
    let _ = writeln!(
        text,
        "co-located: compute tenant finished at  : {:>9} cycles",
        r.coloc_compute_finish
    );
    let _ =
        writeln!(text, "co-located makespan                     : {:>9} cycles", r.coloc_makespan);
    let _ = writeln!(
        text,
        "consolidation gain vs time-slicing      : {}",
        speedup(r.consolidation_gain)
    );
    let _ = writeln!(text);
    let _ = writeln!(text, "scratchpad transparency failure (combined 80 KB working set):");
    let _ = writeln!(text, "  -> {}", r.scratchpad_overflow_error);
    let _ = writeln!(
        text,
        "same tenants under the cache-centric model: {}",
        if r.cache_mode_colocates { "co-locate fine" } else { "still fail" }
    );
    let _ = writeln!(text, "\n(paper \u{a7}V-C: scratchpad-centric co-location requires intrusive");
    let _ = writeln!(text, " program changes and fails on WRAM capacity; on-demand caches");
    let _ = writeln!(text, " restore transparency.)");
    let json = json_doc(
        ctx,
        Json::arr([Json::obj([
            ("alone_mem_cycles", Json::from(r.alone_mem_cycles)),
            ("alone_compute_cycles", Json::from(r.alone_compute_cycles)),
            ("coloc_mem_finish", Json::from(r.coloc_mem_finish)),
            ("coloc_compute_finish", Json::from(r.coloc_compute_finish)),
            ("coloc_makespan", Json::from(r.coloc_makespan)),
            ("consolidation_gain", Json::from(r.consolidation_gain)),
            ("scratchpad_overflow_error", Json::from(r.scratchpad_overflow_error)),
            ("cache_mode_colocates", Json::from(r.cache_mode_colocates)),
        ])]),
        vec![],
    );
    Ok(ExpReport { text, json })
}

fn run_serving(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    use pim_serve::{run_scenario, scenario_by_name, ServeOptions, ServeOutcome};

    // Sweep the load multiplier across the saturation point of the demo
    // scenario: throughput should plateau once the rank saturates while
    // the aggregate p99 knees upward — the classic serving curve, here
    // produced entirely from cycle-level composition profiles.
    let scenario = scenario_by_name("demo").expect("demo scenario exists");
    let duration_ms: u64 = if ctx.size == DatasetSize::Tiny { 2 } else { 20 };
    let threads = Some(ctx.rt.workers());
    let mut rows = Vec::new();
    for load in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let opts = ServeOptions { duration_ms, load, threads, ..ServeOptions::default() };
        rows.push((load, run_scenario(scenario, &opts)?));
    }
    let slo = |r: &(f64, ServeOutcome)| r.1.aggregate_latency().total.slo_triple();
    let cols = Cols::<(f64, ServeOutcome)>::new()
        .col("load", "load", Text, |r| r.0)
        .col("offered", "offered", Text, |r| r.1.offered())
        .col("admitted", "admitted", Text, |r| r.1.admitted())
        .col("rejected", "rejected", Text, |r| r.1.rejected())
        .col("completed", "completed", Text, |r| r.1.completed())
        .col("throughput_rps", "rps", Fixed(0), |r| r.1.throughput_rps())
        .col("p50_ns", "p50_us", Us, move |r| slo(r).0)
        .key("p95_ns", move |r| slo(r).1)
        .col("p99_ns", "p99_us", Us, move |r| slo(r).2);
    let extra = vec![("scenario", Json::from(scenario.name)), ("duration_ms", duration_ms.into())];
    Ok(tabled(ctx, &cols, &rows, extra))
}

fn run_serving_faults(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    use pim_serve::{run_scenario, scenario_by_name, FaultSpec, ServeOptions, ServeOutcome};

    // Sweep fault campaigns over the faulty scenario at fixed load: a
    // clean baseline, a transient-retry regime, a stuck-DPU regime, and
    // a rank-outage regime. Every row must conserve requests (admitted =
    // completed + failed) — the differential suite pins that; here the
    // sweep shows the throughput/p99 cost of each failure mode.
    let scenario = scenario_by_name("faulty").expect("faulty scenario exists");
    let duration_ms: u64 = if ctx.size == DatasetSize::Tiny { 2 } else { 10 };
    let campaigns: [(&str, &str); 4] = [
        ("clean", "seed=9"),
        ("transient", "seed=9,transient=60"),
        ("stuck", "seed=9,stuck=25,timeout_us=2000"),
        ("rank_outage", "seed=9,outages=2,outage_ms=1,rank_dpus=4"),
    ];
    let threads = Some(ctx.rt.workers());
    let mut rows = Vec::new();
    for (label, spec_text) in campaigns {
        let spec = FaultSpec::parse(spec_text).expect("campaign spec parses");
        let opts = ServeOptions { duration_ms, threads, faults: Some(spec), ..Default::default() };
        let out = run_scenario(scenario, &opts)?;
        debug_assert_eq!(out.admitted(), out.completed() + out.failed());
        rows.push((label, spec, out));
    }
    let cols = Cols::<(&str, FaultSpec, ServeOutcome)>::new()
        .col("campaign", "campaign", Text, |r| r.0)
        .key("faults", |r| r.1.label())
        .key("offered", |r| r.2.offered())
        .col("admitted", "admitted", Text, |r| r.2.admitted())
        .col("completed", "completed", Text, |r| r.2.completed())
        .col("failed", "failed", Text, |r| r.2.failed())
        .col("retried", "retried", Text, |r| r.2.retried())
        .col("degraded", "degraded", Text, |r| r.2.degraded())
        .col("throughput_rps", "rps", Fixed(0), |r| r.2.throughput_rps())
        .col("p99_ns", "p99_us", Us, |r| r.2.aggregate_latency().total.slo_triple().2);
    let extra = vec![("scenario", Json::from(scenario.name)), ("duration_ms", duration_ms.into())];
    Ok(tabled(ctx, &cols, &rows, extra))
}

fn run_transfer_study(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    use pimulator::pim_host::{ChannelMode, ExecutionTimeline};
    use prim_suite::workload_by_name;

    // The transfer-bound slice of the suite: host payloads dominate (or
    // rival) kernel time, so the channel mode is the knob that moves the
    // end-to-end wall. Each workload runs at one shape — the tuned one
    // when `--tuned` is given, the fixed study default otherwise — under
    // all three channel modes.
    const WORKLOADS: [&str; 6] = ["VA", "SEL", "UNI", "TRNS", "SCAN-SSA", "BS"];
    const MODES: [ChannelMode; 3] =
        [ChannelMode::Blocking, ChannelMode::Broadcast, ChannelMode::Overlapped];

    struct Case {
        workload: &'static str,
        tasklets: u32,
        n_dpus: u32,
        mode: ChannelMode,
    }
    let mut cases = Vec::new();
    for name in WORKLOADS {
        let w = workload_by_name(name).expect("study workload exists");
        let (tasklets, n_dpus) = match ctx.tuned.as_ref().and_then(|t| t.entry(name)) {
            Some(e) => (e.tasklets, e.n_dpus),
            None => (16, if w.supports_multi_dpu() { 4 } else { 1 }),
        };
        for mode in MODES {
            cases.push(Case { workload: name, tasklets, n_dpus, mode });
        }
    }
    let runs = ctx.rt.map(&cases, |_, c| {
        let w = workload_by_name(c.workload).expect("study workload exists");
        let rc = RunConfig::multi(c.n_dpus, DpuConfig::paper_baseline(c.tasklets));
        Ok(w.run(ctx.size, &rc.with_channel(c.mode))?.timeline)
    });

    // Each row carries the wall of its workload's blocking row: the grid
    // emits blocking first per workload, so it is set before the v2 rows.
    let mut rows = Vec::new();
    let mut blocking_wall = 0.0f64;
    for (c, tl) in cases.into_iter().zip(runs) {
        let tl = tl?;
        if c.mode == ChannelMode::Blocking {
            blocking_wall = tl.wall_ns();
        }
        rows.push((c, tl, blocking_wall));
    }
    let cols = Cols::<(Case, ExecutionTimeline, f64)>::new()
        .col("workload", "workload", Text, |r| r.0.workload)
        .col("tasklets", "tasklets", Text, |r| r.0.tasklets)
        .col("n_dpus", "dpus", Text, |r| r.0.n_dpus)
        .col("channel", "channel", Text, |r| r.0.mode.label())
        .col("to_dpu_ns", "to_ms", Ms(4), |r| r.1.to_dpu_ns)
        .col("kernel_ns", "kernel_ms", Ms(4), |r| r.1.kernel_ns)
        .col("from_dpu_ns", "from_ms", Ms(4), |r| r.1.from_dpu_ns)
        .col("wall_ns", "wall_ms", Ms(4), |r| r.1.wall_ns())
        .col("speedup_vs_blocking", "vs blocking", X, |r| r.2 / r.1.wall_ns());
    Ok(tabled(ctx, &cols, &rows, vec![("tuned", Json::from(ctx.tuned.is_some()))]))
}

fn run_rank_scale(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let mut text = header(ctx);
    let (rows, lockstep) = exp::exp_rank_scale(&ctx.rt, ctx.size, exp::DEFAULT_RANK_BATCH)?;
    // Out of band: the summary depends on the host's thread count, the
    // document must not. CI's rank-scale smoke reads this line.
    eprintln!("lockstep: {lockstep}");
    let mut json_rows = Vec::new();
    for r in &rows {
        let _ = writeln!(
            text,
            "{ranks:>3} rank(s) {dpus:>6} DPUs  {instrs:>12} instructions  {cycles:>14} cycles  kernel {ms:>9.3} ms  checksum {sum:#010x}",
            ranks = r.ranks,
            dpus = r.dpus,
            instrs = r.instructions,
            cycles = r.cycles,
            ms = r.kernel_ns / 1e6,
            sum = r.checksum,
        );
        json_rows.push(Json::obj([
            ("ranks", Json::from(r.ranks)),
            ("dpus", Json::from(r.dpus)),
            ("instructions", Json::from(r.instructions)),
            ("cycles", Json::from(r.cycles)),
            ("kernel_ns", Json::from(r.kernel_ns)),
            ("checksum", Json::from(r.checksum)),
        ]));
    }
    let _ = writeln!(
        text,
        "(population sharded {batch} DPUs/batch; rows are simulated quantities, identical across --threads)",
        batch = exp::DEFAULT_RANK_BATCH,
    );
    Ok(ExpReport {
        text,
        json: json_doc(
            ctx,
            Json::Arr(json_rows),
            vec![
                ("dpus_per_rank", Json::from(exp::DPUS_PER_RANK)),
                ("batch_dpus", Json::from(exp::DEFAULT_RANK_BATCH)),
            ],
        ),
    })
}

/// Median-of-three wall seconds of `job`, with the simulated
/// `(instructions, cycles)` every repetition must agree on.
fn time_job(job: &SimJob) -> Result<(f64, (u64, u64)), SimError> {
    let mut walls = [0.0f64; 3];
    let mut sim = None;
    for wall in &mut walls {
        let start = Instant::now();
        let out = job.execute()?;
        *wall = start.elapsed().as_secs_f64();
        let got = (out.stats.instructions, out.stats.cycles);
        assert_eq!(*sim.get_or_insert(got), got, "simulated work must not vary across reps");
    }
    walls.sort_by(f64::total_cmp);
    Ok((walls[1], sim.expect("three reps ran")))
}

fn run_sim_rate(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let mut text = header(ctx);
    let mut json_rows = Vec::new();
    for name in ["VA", "GEMV", "BS", "RED"] {
        // Before/after on the same simulated work: the naive per-cycle
        // reference loop (`ExecTier::Naive`) vs the optimized
        // scheduler. Both are timing-identical (see
        // `tests/loop_differential.rs`), so `instructions` is shared.
        let cfg = DpuConfig::paper_baseline(16);
        let naive = SimJob::single(name, ctx.size, cfg.clone().with_exec_tier(ExecTier::Naive));
        let (wall_naive, sim_naive) = time_job(&naive)?;
        let (wall, sim) = time_job(&SimJob::single(name, ctx.size, cfg))?;
        assert_eq!(sim_naive, sim, "{name}: naive and optimized loops disagree on simulated work");
        let instructions = sim.0;
        let kips_naive = instructions as f64 / wall_naive / 1e3;
        let kips = instructions as f64 / wall / 1e3;
        let speedup = kips / kips_naive;
        let _ = writeln!(
            text,
            "{name:8} {instructions:>12} instructions  naive {kips_naive:>9.1} KIPS -> optimized {kips:>9.1} KIPS ({speedup:.2}x)",
        );
        json_rows.push(Json::obj([
            ("workload", Json::from(name)),
            ("instructions", Json::from(instructions)),
            ("wall_seconds_naive", Json::from(wall_naive)),
            ("wall_seconds", Json::from(wall)),
            ("kips_naive", Json::from(kips_naive)),
            ("kips", Json::from(kips)),
            ("speedup", Json::from(speedup)),
        ]));
    }
    let _ = writeln!(
        text,
        "(paper's PIMulator: ~3 KIPS; `bash benchmark/run.sh` is the developer stopwatch)"
    );
    Ok(ExpReport { text, json: json_doc(ctx, Json::Arr(json_rows), vec![]) })
}

fn run_sparse_nn(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    use prim_suite::workload_by_name;

    // The extension families under a tasklet sweep plus one strong-scaled
    // point: sparse BSR exercises the irregular-gather DMA path, the
    // quantized NN kernels exercise chained launches with host staging.
    struct Row {
        workload: &'static str,
        family: &'static str,
        threads: u32,
        n_dpus: u32,
        instructions: u64,
        cycles: u64,
        dma_requests: u64,
        bytes_read: u64,
    }
    const FAMILY: &[&str] = &["SpMV-BSR", "SpMM-BSR", "MLP-Q", "ATTN"];
    // (workload, threads, DPUs)
    let mut cases = Vec::new();
    for &w in FAMILY {
        for t in [1u32, 8, 16] {
            cases.push((w, t, 1));
        }
        cases.push((w, 16, 4));
    }
    let rows = ctx.rt.map(&cases, |_, &(workload, threads, n_dpus)| {
        let w = workload_by_name(workload).expect("workload exists");
        let run = w.run(ctx.size, &RunConfig::multi(n_dpus, DpuConfig::paper_baseline(threads)))?;
        // Like the figure sweeps, a validation miss is a bug, not data.
        run.validation.as_ref().expect("extension outputs are bit-exact against the reference");
        Ok(Row {
            workload,
            family: w.family().label(),
            threads,
            n_dpus,
            instructions: run.per_dpu.iter().map(|s| s.instructions).sum(),
            cycles: run.per_dpu.iter().map(|s| s.cycles).max().unwrap_or(0),
            dma_requests: run.per_dpu.iter().map(|s| s.dma_requests).sum(),
            bytes_read: run.per_dpu.iter().map(|s| s.dram.bytes_read).sum(),
        })
    });
    let rows = rows.into_iter().collect::<Result<Vec<_>, SimError>>()?;
    let cols = Cols::<Row>::new()
        .col("workload", "workload", Text, |r| r.workload)
        .col("family", "family", Text, |r| r.family)
        .col("threads", "threads", Text, |r| r.threads)
        .col("dpus", "dpus", Text, |r| r.n_dpus)
        .col("instructions", "instructions", Text, |r| r.instructions)
        .col("cycles", "cycles", Text, |r| r.cycles)
        .col("dma_requests", "dma reqs", Text, |r| r.dma_requests)
        .key("mram_bytes_read", |r| r.bytes_read)
        .cell("rd B/req", Fixed(1), |r| r.bytes_read as f64 / r.dma_requests.max(1) as f64)
        .key("validated", |_| true);
    Ok(tabled(ctx, &cols, &rows, vec![]))
}

fn run_validation(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    use prim_suite::{all_workloads, workload_by_name};

    // The full cross-product the paper validates (§III-C), as independent
    // cases fanned out over the worker pool. Unlike the figure sweeps,
    // validation *collects* failures instead of panicking on them.
    struct Case {
        workload: String,
        size: DatasetSize,
        threads: u32,
        n_dpus: u32,
    }
    let mut cases = Vec::new();
    let sizes: &[DatasetSize] = if ctx.size == DatasetSize::Tiny {
        &[DatasetSize::Tiny]
    } else {
        &[DatasetSize::Tiny, DatasetSize::SingleDpu]
    };
    for &size in sizes {
        for w in all_workloads() {
            for t in [1u32, 2, 4, 8, 16, 24] {
                cases.push(Case { workload: w.name().to_string(), size, threads: t, n_dpus: 1 });
            }
        }
    }
    // The tiny datasets split at most 4 ways (BFS and NW bands).
    let dpus: [u32; 2] = if ctx.size == DatasetSize::Tiny { [2, 4] } else { [4, 16] };
    for d in dpus {
        for w in all_workloads() {
            cases.push(Case {
                workload: w.name().to_string(),
                size: ctx.size,
                threads: 16,
                n_dpus: d,
            });
        }
    }
    let verdicts: Vec<Option<String>> = ctx.rt.map(&cases, |_, c| {
        let w = workload_by_name(&c.workload).expect("workload exists");
        let run_cfg = RunConfig::multi(c.n_dpus, DpuConfig::paper_baseline(c.threads));
        let tag = if c.n_dpus == 1 {
            format!("{} {:?} @{}t", c.workload, c.size, c.threads)
        } else {
            format!("{} x{}", c.workload, c.n_dpus)
        };
        match w.run(c.size, &run_cfg) {
            Ok(run) => match run.validation {
                Ok(()) => None,
                Err(e) => Some(format!("{tag}: {e}")),
            },
            Err(e) => Some(format!("{tag}: fault {e}")),
        }
    });
    let failures: Vec<&String> = verdicts.iter().flatten().collect();
    let total = cases.len();
    let ok = total - failures.len();
    let mut text = format!("== {} ==\n", ctx.exp.title);
    let _ =
        writeln!(text, "{ok}/{total} data points bit-exact against the reference implementations");
    for f in &failures {
        let _ = writeln!(text, "FAILED: {f}");
    }
    let _ = writeln!(
        text,
        "(paper: 710 single-DPU points at 98.4% time-correlation; this \
         reproduction substitutes output-exactness, per DESIGN.md \u{a7}1)"
    );
    assert!(failures.is_empty(), "{} validation failures", failures.len());
    let json = json_doc(
        ctx,
        Json::arr([]),
        vec![(
            "summary",
            Json::obj([
                ("total", Json::from(total as u64)),
                ("passed", Json::from(ok as u64)),
                ("failures", Json::arr(failures.iter().map(|f| Json::from(f.as_str())))),
            ]),
        )],
    );
    Ok(ExpReport { text, json })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> (&'static Experiment, DriverOptions) {
        let opts = DriverOptions {
            size: Some(DatasetSize::Tiny),
            threads: Some(2),
            ..DriverOptions::default()
        };
        (experiment_by_name(name).unwrap(), opts)
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&str> = experiments().iter().map(|e| e.name).collect();
        let mut dedup = names.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate experiment names");
        assert!(experiment_by_name("fig05_utilization").is_some());
        assert!(experiment_by_name("nope").is_none());
    }

    #[test]
    fn size_labels_round_trip() {
        for size in [DatasetSize::Tiny, DatasetSize::SingleDpu, DatasetSize::MultiDpu] {
            assert_eq!(size_by_label(size_label(size)), Some(size));
        }
        assert_eq!(size_by_label("huge"), None);
    }

    #[test]
    fn traced_experiment_yields_job_traces() {
        let (e, opts) = tiny("fig11_simt");
        let (_, none) = run_experiment_with_traces(e, &opts).unwrap();
        assert!(none.is_empty(), "untraced runs return no traces");
        let opts = DriverOptions { trace: true, ..opts };
        let (_, traces) = run_experiment_with_traces(e, &opts).unwrap();
        assert!(!traces.is_empty());
        assert!(traces.iter().all(|t| t.trace.event_count() > 0));
    }

    #[test]
    fn fig11_report_has_table_and_json() {
        let (e, opts) = tiny("fig11_simt");
        let r = run_experiment(e, &opts).unwrap();
        assert!(r.text.starts_with("== Fig 11: SIMT case study on GEMV (Tiny) ==\n"));
        assert!(r.text.contains("SIMT+AC+16x"));
        let rendered = r.json.render();
        assert!(rendered.starts_with(r#"{"experiment":"fig11_simt","size":"tiny""#));
        assert!(rendered.contains(r#""design":"SIMT+AC""#));
    }
}
