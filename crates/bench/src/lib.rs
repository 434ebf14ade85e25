//! # pim-bench
//!
//! The figure/table regeneration library: a registry entry per figure or
//! study of the paper's evaluation ([`experiments`]), execution through
//! the parallel [`JobRunner`] ([`run_experiment`]), and per-experiment
//! formatting into an [`ExpReport`] — the human-readable table plus the
//! machine-readable JSON document. The [`tune`] module holds the
//! autotuner sweep and its table format.
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
use pimulator::report::{pct, speedup, Json, Table};
use pimulator::trace::JobTrace;
use prim_suite::DatasetSize;

/// The dataset size a `--size` value or a document's `size` field names.
#[must_use]
pub fn size_by_label(label: &str) -> Option<DatasetSize> {
    [DatasetSize::Tiny, DatasetSize::SingleDpu, DatasetSize::MultiDpu]
        .into_iter()
        .find(|&s| size_label(s) == label)
}

/// The inverse of [`size_by_label`].
#[must_use]
pub fn size_label(size: DatasetSize) -> &'static str {
    match size {
        DatasetSize::Tiny => "tiny",
        DatasetSize::SingleDpu => "single",
        DatasetSize::MultiDpu => "multi",
    }
}

/// The thread counts the paper sweeps (shown as 1/4/16 in the figures).
pub const PAPER_THREADS: [u32; 3] = [1, 4, 16];

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
    let mut pairs = vec![
        ("experiment".to_string(), Json::from(ctx.exp.name)),
        ("size".to_string(), Json::from(size_label(ctx.size))),
        ("rows".to_string(), rows),
    ];
    for (k, v) in extra {
        pairs.push((k.to_string(), v));
    }
    Json::Obj(pairs)
}

// ---------------------------------------------------------------------
// Per-experiment table + JSON formatting
// ---------------------------------------------------------------------

fn run_fig05(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig05_utilization(&ctx.rt, ctx.size, &PAPER_THREADS)?;
    let mut t = Table::new(&["workload", "threads", "compute util", "mem read util"]);
    let mut json_rows = Vec::new();
    for r in rows {
        t.row_owned(vec![
            r.workload.clone(),
            r.threads.to_string(),
            pct(r.compute_util),
            pct(r.mem_util),
        ]);
        json_rows.push(Json::obj([
            ("workload", Json::from(r.workload)),
            ("threads", Json::from(r.threads)),
            ("compute_util", Json::from(r.compute_util)),
            ("mem_read_util", Json::from(r.mem_util)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![]),
    })
}

fn run_fig06(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig06_breakdown(&ctx.rt, ctx.size, &PAPER_THREADS)?;
    let mut t =
        Table::new(&["workload", "threads", "active", "idle(mem)", "idle(revolver)", "idle(RF)"]);
    let mut json_rows = Vec::new();
    for r in rows {
        t.row_owned(vec![
            r.workload.clone(),
            r.threads.to_string(),
            pct(r.active),
            pct(r.idle_memory),
            pct(r.idle_revolver),
            pct(r.idle_rf),
        ]);
        json_rows.push(breakdown_json(&r));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![]),
    })
}

fn breakdown_json(r: &exp::BreakdownRow) -> Json {
    Json::obj([
        ("workload", Json::from(r.workload.clone())),
        ("threads", Json::from(r.threads)),
        ("active", Json::from(r.active)),
        ("idle_memory", Json::from(r.idle_memory)),
        ("idle_revolver", Json::from(r.idle_revolver)),
        ("idle_rf", Json::from(r.idle_rf)),
    ])
}

fn run_fig07(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig07_tlp_histogram(&ctx.rt, ctx.size, 16)?;
    // Bin exactly as the paper plots: 0 / 1 / 2 / 3 / 4 / 5-8 / 9-16.
    let bins: &[(usize, usize, &str)] = &[
        (0, 0, "0"),
        (1, 1, "1"),
        (2, 2, "2"),
        (3, 3, "3"),
        (4, 4, "4"),
        (5, 8, "5-8"),
        (9, 16, "9-16"),
    ];
    let mut hdr = vec!["workload"];
    hdr.extend(bins.iter().map(|b| b.2));
    hdr.push("avg issuable");
    let mut t = Table::new(&hdr);
    let mut json_rows = Vec::new();
    for r in rows {
        let mut cells = vec![r.workload.clone()];
        let mut binned = Vec::new();
        for (lo, hi, label) in bins {
            let f: f64 = r.fractions.iter().skip(*lo).take(hi - lo + 1).sum();
            cells.push(pct(f));
            binned.push(((*label).to_string(), Json::from(f)));
        }
        cells.push(format!("{:.2}", r.mean));
        t.row_owned(cells);
        json_rows.push(Json::obj([
            ("workload", Json::from(r.workload)),
            ("bins", Json::Obj(binned)),
            ("fractions", Json::arr(r.fractions.iter().map(|&f| Json::from(f)))),
            ("mean_issuable", Json::from(r.mean)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![]),
    })
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
    let mut hdr = vec!["workload".to_string(), "threads".to_string()];
    hdr.extend(InstrClass::ALL.iter().map(|c| c.label().to_string()));
    let hdr_refs: Vec<&str> = hdr.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr_refs);
    let mut json_rows = Vec::new();
    for r in rows {
        let mut cells = vec![r.workload.clone(), r.threads.to_string()];
        cells.extend(r.fractions.iter().map(|f| pct(*f)));
        t.row_owned(cells);
        let mix: Vec<(String, Json)> = InstrClass::ALL
            .iter()
            .zip(r.fractions)
            .map(|(c, f)| (c.label().to_string(), Json::from(f)))
            .collect();
        json_rows.push(Json::obj([
            ("workload", Json::from(r.workload)),
            ("threads", Json::from(r.threads)),
            ("mix", Json::Obj(mix)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![]),
    })
}

fn run_fig10(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    // The paper sweeps 1/16/64 DPUs on the multi-DPU datasets; the tiny
    // smoke datasets only split 4 ways.
    let dpus: &[u32] = if ctx.size == DatasetSize::Tiny { &[1, 2, 4] } else { &[1, 16, 64] };
    let rows = exp::fig10_strong_scaling(&ctx.rt, ctx.size, dpus, 16)?;
    let mut t =
        Table::new(&["workload", "DPUs", "CPU->DPU", "kernel", "DPU->CPU", "total ms", "speedup"]);
    let mut json_rows = Vec::new();
    for r in rows {
        let total = r.to_dpu_ns + r.kernel_ns + r.from_dpu_ns;
        t.row_owned(vec![
            r.workload.clone(),
            r.n_dpus.to_string(),
            pct(r.to_dpu_ns / total),
            pct(r.kernel_ns / total),
            pct(r.from_dpu_ns / total),
            format!("{:.3}", total / 1e6),
            speedup(r.speedup),
        ]);
        json_rows.push(Json::obj([
            ("workload", Json::from(r.workload)),
            ("n_dpus", Json::from(r.n_dpus)),
            ("to_dpu_ns", Json::from(r.to_dpu_ns)),
            ("kernel_ns", Json::from(r.kernel_ns)),
            ("from_dpu_ns", Json::from(r.from_dpu_ns)),
            ("speedup", Json::from(r.speedup)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![]),
    })
}

fn run_fig11(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig11_simt(&ctx.rt, ctx.size, 16)?;
    let mut t = Table::new(&["design point", "IPC", "speedup vs Base"]);
    let mut json_rows = Vec::new();
    for r in rows {
        t.row_owned(vec![r.label.clone(), format!("{:.2}", r.ipc), speedup(r.speedup)]);
        json_rows.push(Json::obj([
            ("design", Json::from(r.label)),
            ("ipc", Json::from(r.ipc)),
            ("speedup", Json::from(r.speedup)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![]),
    })
}

fn run_fig12(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig12_ilp_ablation(&ctx.rt, ctx.size, 16)?;
    let mut t = Table::new(&[
        "workload",
        "design",
        "speedup",
        "active",
        "idle(mem)",
        "idle(revolver)",
        "idle(RF)",
    ]);
    let (mut sum, mut max_speedup, mut n) = (0.0f64, 1.0f64, 0u32);
    for r in &rows {
        if r.label == "Base+DRSF" {
            max_speedup = max_speedup.max(r.speedup);
            sum += r.speedup;
            n += 1;
        }
    }
    let mut json_rows = Vec::new();
    for r in rows {
        t.row_owned(vec![
            r.workload.clone(),
            r.label.clone(),
            speedup(r.speedup),
            pct(r.breakdown.active),
            pct(r.breakdown.idle_memory),
            pct(r.breakdown.idle_revolver),
            pct(r.breakdown.idle_rf),
        ]);
        json_rows.push(Json::obj([
            ("workload", Json::from(r.workload)),
            ("design", Json::from(r.label)),
            ("speedup", Json::from(r.speedup)),
            ("breakdown", breakdown_json(&r.breakdown)),
        ]));
    }
    let avg = sum / f64::from(n.max(1));
    let text = header(ctx)
        + &t.render()
        + &format!(
            "\nBase+DRSF speedup: avg {} / max {}  (paper: avg 2.7x, max 6.2x)\n",
            speedup(avg),
            speedup(max_speedup)
        );
    let summary = Json::obj([
        ("avg_drsf_speedup", Json::from(avg)),
        ("max_drsf_speedup", Json::from(max_speedup)),
    ]);
    Ok(ExpReport { text, json: json_doc(ctx, Json::Arr(json_rows), vec![("summary", summary)]) })
}

fn run_fig13(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let scales = [1.0, 2.0, 3.0, 4.0];
    let rows = exp::fig13_mram_scaling(&ctx.rt, ctx.size, 16, &scales)?;
    let mut t = Table::new(&["workload", "design", "x1", "x2", "x3", "x4"]);
    let mut json_rows = Vec::new();
    // One table row per (workload, design) group of `scales.len()` points.
    for group in rows.chunks(scales.len()) {
        let mut cells = vec![group[0].workload.clone(), group[0].config.clone()];
        cells.extend(group.iter().map(|r| speedup(r.speedup)));
        t.row_owned(cells);
        json_rows.push(Json::obj([
            ("workload", Json::from(group[0].workload.clone())),
            ("design", Json::from(group[0].config.clone())),
            (
                "speedups",
                Json::Obj(
                    group
                        .iter()
                        .map(|r| (format!("x{}", r.scale as u32), Json::from(r.speedup)))
                        .collect(),
                ),
            ),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![]),
    })
}

fn run_fig15(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig15_cache_vs_scratchpad(&ctx.rt, ctx.size, &PAPER_THREADS)?;
    let mut t = Table::new(&["workload", "threads", "cache time / scratchpad time"]);
    let mut json_rows = Vec::new();
    for r in rows {
        t.row_owned(vec![r.workload.clone(), r.threads.to_string(), pct(r.normalized_time)]);
        json_rows.push(Json::obj([
            ("workload", Json::from(r.workload)),
            ("threads", Json::from(r.threads)),
            ("cache_over_scratchpad_time", Json::from(r.normalized_time)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![]),
    })
}

fn run_fig16(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig16_bytes_read(&ctx.rt, ctx.size, &PAPER_THREADS)?;
    let mut t = Table::new(&[
        "workload",
        "threads",
        "scratchpad bytes",
        "cache bytes",
        "ratio",
        "scratchpad ms",
        "cache ms",
    ]);
    let mut json_rows = Vec::new();
    for r in rows {
        t.row_owned(vec![
            r.workload.clone(),
            r.threads.to_string(),
            r.scratchpad_bytes.to_string(),
            r.cache_bytes.to_string(),
            format!("{:.2}x", r.scratchpad_bytes as f64 / r.cache_bytes.max(1) as f64),
            format!("{:.3}", r.scratchpad_ns / 1e6),
            format!("{:.3}", r.cache_ns / 1e6),
        ]);
        json_rows.push(Json::obj([
            ("workload", Json::from(r.workload)),
            ("threads", Json::from(r.threads)),
            ("scratchpad_bytes", Json::from(r.scratchpad_bytes)),
            ("cache_bytes", Json::from(r.cache_bytes)),
            ("scratchpad_ns", Json::from(r.scratchpad_ns)),
            ("cache_ns", Json::from(r.cache_ns)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![]),
    })
}

fn run_mmu(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::mmu_overhead(&ctx.rt, ctx.size, 16)?;
    let mut t = Table::new(&["workload", "overhead", "TLB hit rate"]);
    let (mut sum, mut max) = (0.0f64, 0.0f64);
    for r in &rows {
        sum += r.overhead;
        max = max.max(r.overhead);
    }
    let n = rows.len() as f64;
    let mut json_rows = Vec::new();
    for r in rows {
        t.row_owned(vec![r.workload.clone(), pct(r.overhead), pct(r.tlb_hit_rate)]);
        json_rows.push(Json::obj([
            ("workload", Json::from(r.workload)),
            ("overhead", Json::from(r.overhead)),
            ("tlb_hit_rate", Json::from(r.tlb_hit_rate)),
        ]));
    }
    let text = header(ctx)
        + &t.render()
        + &format!(
            "\naverage overhead {} / max {}  (paper: avg 0.8%, max 14.1%)\n",
            pct(sum / n),
            pct(max)
        );
    let summary =
        Json::obj([("avg_overhead", Json::from(sum / n)), ("max_overhead", Json::from(max))]);
    Ok(ExpReport { text, json: json_doc(ctx, Json::Arr(json_rows), vec![("summary", summary)]) })
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
    use pim_serve::{run_scenario, scenario_by_name, ServeOptions};

    // Sweep the load multiplier across the saturation point of the demo
    // scenario: throughput should plateau once the rank saturates while
    // the aggregate p99 knees upward — the classic serving curve, here
    // produced entirely from cycle-level composition profiles.
    let scenario = scenario_by_name("demo").expect("demo scenario exists");
    let duration_ms: u64 = if ctx.size == DatasetSize::Tiny { 2 } else { 20 };
    let loads = [0.25, 0.5, 1.0, 2.0, 4.0];
    let mut t = Table::new(&[
        "load",
        "offered",
        "admitted",
        "rejected",
        "completed",
        "rps",
        "p50_us",
        "p99_us",
    ]);
    let mut json_rows = Vec::new();
    for &load in &loads {
        let opts = ServeOptions {
            duration_ms,
            load,
            threads: Some(ctx.rt.workers()),
            ..ServeOptions::default()
        };
        let out = run_scenario(scenario, &opts)?;
        let (p50, p95, p99) = out.aggregate_latency().total.slo_triple();
        t.row_owned(vec![
            format!("{load}"),
            out.offered().to_string(),
            out.admitted().to_string(),
            out.rejected().to_string(),
            out.completed().to_string(),
            format!("{:.0}", out.throughput_rps()),
            format!("{:.1}", p50 as f64 / 1000.0),
            format!("{:.1}", p99 as f64 / 1000.0),
        ]);
        json_rows.push(Json::obj([
            ("load", Json::from(load)),
            ("offered", Json::UInt(out.offered())),
            ("admitted", Json::UInt(out.admitted())),
            ("rejected", Json::UInt(out.rejected())),
            ("completed", Json::UInt(out.completed())),
            ("throughput_rps", Json::from(out.throughput_rps())),
            ("p50_ns", Json::UInt(p50)),
            ("p95_ns", Json::UInt(p95)),
            ("p99_ns", Json::UInt(p99)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(
            ctx,
            Json::Arr(json_rows),
            vec![("scenario", Json::from(scenario.name)), ("duration_ms", Json::UInt(duration_ms))],
        ),
    })
}

fn run_serving_faults(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    use pim_serve::{run_scenario, scenario_by_name, FaultSpec, ServeOptions};

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
    let mut t = Table::new(&[
        "campaign",
        "admitted",
        "completed",
        "failed",
        "retried",
        "degraded",
        "rps",
        "p99_us",
    ]);
    let mut json_rows = Vec::new();
    for (label, spec_text) in campaigns {
        let spec = FaultSpec::parse(spec_text).expect("campaign spec parses");
        let opts = ServeOptions {
            duration_ms,
            threads: Some(ctx.rt.workers()),
            faults: Some(spec),
            ..ServeOptions::default()
        };
        let out = run_scenario(scenario, &opts)?;
        debug_assert_eq!(out.admitted(), out.completed() + out.failed());
        let (_, _, p99) = out.aggregate_latency().total.slo_triple();
        t.row_owned(vec![
            label.to_string(),
            out.admitted().to_string(),
            out.completed().to_string(),
            out.failed().to_string(),
            out.retried().to_string(),
            out.degraded().to_string(),
            format!("{:.0}", out.throughput_rps()),
            format!("{:.1}", p99 as f64 / 1000.0),
        ]);
        json_rows.push(Json::obj([
            ("campaign", Json::from(label)),
            ("faults", Json::from(spec.label())),
            ("offered", Json::UInt(out.offered())),
            ("admitted", Json::UInt(out.admitted())),
            ("completed", Json::UInt(out.completed())),
            ("failed", Json::UInt(out.failed())),
            ("retried", Json::UInt(out.retried())),
            ("degraded", Json::UInt(out.degraded())),
            ("throughput_rps", Json::from(out.throughput_rps())),
            ("p99_ns", Json::UInt(p99)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(
            ctx,
            Json::Arr(json_rows),
            vec![("scenario", Json::from(scenario.name)), ("duration_ms", Json::UInt(duration_ms))],
        ),
    })
}

fn run_transfer_study(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    use pimulator::pim_host::ChannelMode;
    use prim_suite::{workload_by_name, RunConfig};

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
        let cfg = DpuConfig::paper_baseline(c.tasklets);
        let rc =
            if c.n_dpus == 1 { RunConfig::single(cfg) } else { RunConfig::multi(c.n_dpus, cfg) };
        let run = w.run(ctx.size, &rc.with_channel(c.mode))?;
        Ok(run.timeline)
    });

    let mut t = Table::new(&[
        "workload",
        "tasklets",
        "dpus",
        "channel",
        "to_ms",
        "kernel_ms",
        "from_ms",
        "wall_ms",
        "vs blocking",
    ]);
    let mut json_rows = Vec::new();
    let mut blocking_wall = 0.0f64;
    for (c, tl) in cases.iter().zip(runs) {
        let tl = tl?;
        let wall = tl.wall_ns();
        // The grid emits blocking first per workload, so the baseline is
        // always set before the v2 rows of the same workload render.
        if c.mode == ChannelMode::Blocking {
            blocking_wall = wall;
        }
        t.row_owned(vec![
            c.workload.to_string(),
            c.tasklets.to_string(),
            c.n_dpus.to_string(),
            c.mode.label().to_string(),
            format!("{:.4}", tl.to_dpu_ns / 1e6),
            format!("{:.4}", tl.kernel_ns / 1e6),
            format!("{:.4}", tl.from_dpu_ns / 1e6),
            format!("{:.4}", wall / 1e6),
            format!("{:.2}x", blocking_wall / wall),
        ]);
        json_rows.push(Json::obj([
            ("workload", Json::from(c.workload)),
            ("tasklets", Json::from(c.tasklets)),
            ("n_dpus", Json::from(c.n_dpus)),
            ("channel", Json::from(c.mode.label())),
            ("to_dpu_ns", Json::from(tl.to_dpu_ns)),
            ("kernel_ns", Json::from(tl.kernel_ns)),
            ("from_dpu_ns", Json::from(tl.from_dpu_ns)),
            ("wall_ns", Json::from(wall)),
            ("speedup_vs_blocking", Json::from(blocking_wall / wall)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![("tuned", Json::from(ctx.tuned.is_some()))]),
    })
}

fn run_rank_scale(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let mut text = header(ctx);
    let (rows, lockstep) = exp::exp_rank_scale(&ctx.rt, ctx.size)?;
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
        "(paper's PIMulator: ~3 KIPS; `cargo bench -p pim-bench` is the developer stopwatch)"
    );
    Ok(ExpReport { text, json: json_doc(ctx, Json::Arr(json_rows), vec![]) })
}

fn run_sparse_nn(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    use prim_suite::{workload_by_name, RunConfig};

    // The extension families under a tasklet sweep plus one strong-scaled
    // point: sparse BSR exercises the irregular-gather DMA path, the
    // quantized NN kernels exercise chained launches with host staging.
    struct Case {
        workload: &'static str,
        threads: u32,
        n_dpus: u32,
    }
    const FAMILY: &[&str] = &["SpMV-BSR", "SpMM-BSR", "MLP-Q", "ATTN"];
    let mut cases = Vec::new();
    for &w in FAMILY {
        for t in [1u32, 8, 16] {
            cases.push(Case { workload: w, threads: t, n_dpus: 1 });
        }
        cases.push(Case { workload: w, threads: 16, n_dpus: 4 });
    }
    let measured: Vec<Result<(u64, u64, u64, u64), SimError>> = ctx.rt.map(&cases, |_, c| {
        let w = workload_by_name(c.workload).expect("workload exists");
        let cfg = DpuConfig::paper_baseline(c.threads);
        let run_cfg =
            if c.n_dpus == 1 { RunConfig::single(cfg) } else { RunConfig::multi(c.n_dpus, cfg) };
        let run = w.run(ctx.size, &run_cfg)?;
        // Like the figure sweeps, a validation miss is a bug, not data.
        run.validation.as_ref().expect("extension outputs are bit-exact against the reference");
        let instructions: u64 = run.per_dpu.iter().map(|s| s.instructions).sum();
        let cycles: u64 = run.per_dpu.iter().map(|s| s.cycles).max().unwrap_or(0);
        let dma: u64 = run.per_dpu.iter().map(|s| s.dma_requests).sum();
        let bytes: u64 = run.per_dpu.iter().map(|s| s.dram.bytes_read).sum();
        Ok((instructions, cycles, dma, bytes))
    });
    let mut t = Table::new(&[
        "workload",
        "family",
        "threads",
        "dpus",
        "instructions",
        "cycles",
        "dma reqs",
        "rd B/req",
    ]);
    let mut json_rows = Vec::new();
    for (c, m) in cases.iter().zip(measured) {
        let (instructions, cycles, dma, bytes) = m?;
        let family = workload_by_name(c.workload).expect("workload exists").family();
        t.row_owned(vec![
            c.workload.to_string(),
            family.label().to_string(),
            c.threads.to_string(),
            c.n_dpus.to_string(),
            instructions.to_string(),
            cycles.to_string(),
            dma.to_string(),
            format!("{:.1}", bytes as f64 / dma.max(1) as f64),
        ]);
        json_rows.push(Json::obj([
            ("workload", Json::from(c.workload)),
            ("family", Json::from(family.label())),
            ("threads", Json::from(c.threads)),
            ("dpus", Json::from(c.n_dpus)),
            ("instructions", Json::UInt(instructions)),
            ("cycles", Json::UInt(cycles)),
            ("dma_requests", Json::UInt(dma)),
            ("mram_bytes_read", Json::UInt(bytes)),
            ("validated", Json::Bool(true)),
        ]));
    }
    Ok(ExpReport {
        text: header(ctx) + &t.render(),
        json: json_doc(ctx, Json::Arr(json_rows), vec![]),
    })
}

fn run_validation(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    use prim_suite::{all_workloads, workload_by_name, RunConfig};

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
        let cfg = DpuConfig::paper_baseline(c.threads);
        let run_cfg =
            if c.n_dpus == 1 { RunConfig::single(cfg) } else { RunConfig::multi(c.n_dpus, cfg) };
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
