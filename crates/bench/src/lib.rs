//! # pim-bench
//!
//! The figure/table regeneration harness. All experiments share one
//! driver: a registry entry per figure (`fig05_utilization` …
//! `exp_validation`), common flag parsing (`--size tiny|single|multi`,
//! `--threads N`, `--json`, `--out DIR`), execution through the parallel
//! [`JobRunner`], and dual output — the human-readable table on stdout
//! plus machine-readable `results/<name>.json`.
//!
//! The per-figure binaries (`cargo run --release -p pim-bench --bin
//! fig05_utilization`) and the `pimsim exp <name>` subcommand are both
//! thin wrappers over [`run_with_args`].

pub mod perf;
pub mod tune;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pim_dpu::{DpuConfig, ExecTier, SimError};
use pim_isa::InstrClass;
use pimulator::experiments as exp;
use pimulator::jobs::JobRunner;
use pimulator::pim_trace::MetricsSink;
use pimulator::report::{pct, speedup, Json, Table};
use pimulator::trace::{chrome_trace, JobTrace};
use prim_suite::DatasetSize;

/// Parses the common `--size` argument from `std::env::args`.
///
/// # Panics
///
/// Panics with a usage message on an unknown size.
#[must_use]
pub fn parse_size_arg(default: DatasetSize) -> DatasetSize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--size" {
            return parse_size(it.next().map_or("", String::as_str));
        }
    }
    default
}

fn parse_size(v: &str) -> DatasetSize {
    parse_size_value(v).unwrap_or_else(|msg| panic!("{msg}"))
}

fn parse_size_value(v: &str) -> Result<DatasetSize, String> {
    match v {
        "tiny" => Ok(DatasetSize::Tiny),
        "single" => Ok(DatasetSize::SingleDpu),
        "multi" => Ok(DatasetSize::MultiDpu),
        other => Err(format!("unknown --size `{other}` (expected tiny|single|multi)")),
    }
}

fn size_label(size: DatasetSize) -> &'static str {
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
    /// The worker pool all simulations go through.
    pub rt: JobRunner,
    /// Dataset size to run at.
    pub size: DatasetSize,
    /// Tuned-config table from `--tuned FILE`, when given. Experiments
    /// that sweep execution shapes (e.g. `exp_transfer_study`) take
    /// their per-workload `(tasklets, n_dpus)` from it instead of the
    /// built-in defaults.
    pub tuned: Option<tune::TunedTable>,
}

/// What an experiment produces: the full human-readable text (header line
/// included, exactly what the binary prints) and the JSON document written
/// to `results/<name>.json`.
#[derive(Debug, Clone)]
pub struct ExpReport {
    /// Human-readable output.
    pub text: String,
    /// Machine-readable output.
    pub json: Json,
}

/// A registry entry: one figure or study of the paper's evaluation.
pub struct Experiment {
    /// Stable name — the binary name, the `pimsim exp` argument, and the
    /// JSON file stem.
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
            title: "Rank scale: batched SoA execution of whole-rank populations",
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

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// Parsed common flags.
#[derive(Debug, Clone, Default)]
pub struct DriverOptions {
    /// `--size tiny|single|multi` (experiment default when absent).
    pub size: Option<DatasetSize>,
    /// `--threads N` worker cap (`available_parallelism` when absent).
    pub threads: Option<usize>,
    /// `--json`: print the JSON document to stdout instead of the table.
    pub json_stdout: bool,
    /// `--out DIR`: where `<name>.json` is written (default `results`).
    pub out_dir: PathBuf,
    /// `--trace FILE`: run with event tracing and write a Chrome
    /// trace-event document there (parent directories are created).
    pub trace: Option<PathBuf>,
    /// `--tuned FILE`: tuned-config table from `pimsim tune`, loaded
    /// (and schema-checked) at parse time so a stale or malformed table
    /// fails before any simulation runs.
    pub tuned: Option<tune::TunedTable>,
}

impl DriverOptions {
    /// Parses the common flag set.
    ///
    /// # Errors
    ///
    /// Returns a usage message on an unknown flag or malformed value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts =
            DriverOptions { out_dir: PathBuf::from("results"), ..DriverOptions::default() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--size" => {
                    let v = it.next().ok_or("--size needs a value (tiny|single|multi)")?;
                    opts.size = Some(parse_size_value(v)?);
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a number")?;
                    let n: usize =
                        v.parse().map_err(|_| format!("--threads: `{v}` is not a number"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".to_string());
                    }
                    opts.threads = Some(n);
                }
                "--json" => opts.json_stdout = true,
                "--out" => {
                    opts.out_dir = PathBuf::from(it.next().ok_or("--out needs a directory")?);
                }
                "--trace" => {
                    opts.trace = Some(PathBuf::from(it.next().ok_or("--trace needs a file path")?));
                }
                "--tuned" => {
                    let p =
                        PathBuf::from(it.next().ok_or("--tuned needs a tuned-table file path")?);
                    opts.tuned = Some(tune::TunedTable::load(&p)?);
                }
                other => {
                    return Err(format!(
                        "unknown flag `{other}` (expected \
                         --size/--threads/--json/--out/--trace/--tuned)"
                    ))
                }
            }
        }
        Ok(opts)
    }
}

/// Per-DPU event-ring capacity used by `--trace` and `pimsim trace`: deep
/// enough to keep the whole steady state of the tiny/single sweeps while
/// bounding memory on the long ones (the ring keeps the most recent
/// events; drops are counted and reported).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Runs one experiment under the given options and returns its report.
/// This is the pure core of the driver — no printing, no filesystem.
///
/// # Errors
///
/// Propagates the experiment's simulation fault.
pub fn run_experiment(e: &Experiment, opts: &DriverOptions) -> Result<ExpReport, SimError> {
    run_experiment_with_traces(e, opts).map(|(report, _)| report)
}

/// Like [`run_experiment`], but when `opts.trace` is set the whole sweep
/// runs with event tracing enabled and every job's labelled trace is
/// returned alongside the report (empty otherwise).
///
/// # Errors
///
/// Propagates the experiment's simulation fault.
pub fn run_experiment_with_traces(
    e: &Experiment,
    opts: &DriverOptions,
) -> Result<(ExpReport, Vec<JobTrace>), SimError> {
    let mut rt = JobRunner::new(opts.threads);
    if opts.trace.is_some() {
        rt = rt.collecting_traces(DEFAULT_TRACE_CAPACITY);
    }
    let ctx =
        ExpContext { rt, size: opts.size.unwrap_or(e.default_size), tuned: opts.tuned.clone() };
    let report = (e.run)(&ctx)?;
    Ok((report, ctx.rt.collected_traces()))
}

/// Writes `contents` to `path`, creating any missing parent directories
/// first (so `--out results/nested/dir` and `--trace a/b/trace.json` work
/// on a fresh checkout).
fn write_with_parents(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// The shared binary entry point: parses `args`, runs experiment `name`,
/// prints the table (or the JSON document under `--json`), and writes
/// `<out>/<name>.json`.
#[must_use]
pub fn run_with_args(name: &str, args: &[String]) -> ExitCode {
    let Some(e) = experiment_by_name(name) else {
        eprintln!("unknown experiment `{name}`; available:");
        for e in experiments() {
            eprintln!("  {:26} {}", e.name, e.title);
        }
        return ExitCode::FAILURE;
    };
    let opts = match DriverOptions::parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: {name} [--size tiny|single|multi] [--threads N] [--json] [--out DIR] \
                 [--trace FILE] [--tuned FILE]"
            );
            return ExitCode::FAILURE;
        }
    };
    let (mut report, traces) = match run_experiment_with_traces(e, &opts) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("{name}: simulation fault: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(trace_path) = &opts.trace {
        let doc = chrome_trace(&traces);
        if let Err(err) = write_with_parents(trace_path, &doc.render_pretty()) {
            eprintln!("{name}: could not write {}: {err}", trace_path.display());
            return ExitCode::FAILURE;
        }
        // Record where the trace went in the machine-readable results.
        if let Json::Obj(pairs) = &mut report.json {
            pairs.push(("trace".to_string(), Json::from(trace_path.display().to_string())));
        }
        if !opts.json_stdout {
            eprintln!("wrote {}", trace_path.display());
        }
    }
    let pretty = report.json.render_pretty();
    {
        // Tolerate a closed pipe (`pimsim exp ... | head`): losing stdout
        // mid-table is the downstream reader's choice, not a fault.
        use std::io::Write;
        let out = if opts.json_stdout { &pretty } else { &report.text };
        let _ = std::io::stdout().write_all(out.as_bytes());
    }
    let path = opts.out_dir.join(format!("{name}.json"));
    if let Err(err) = write_with_parents(&path, &pretty) {
        eprintln!("{name}: could not write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    if !opts.json_stdout {
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Parses the `pimsim trace` flag set: the common `--size`/`--threads`
/// plus `--out FILE` naming the Chrome trace file.
fn parse_trace_args(args: &[String]) -> Result<(DriverOptions, Option<PathBuf>), String> {
    let mut opts = DriverOptions { out_dir: PathBuf::from("results"), ..DriverOptions::default() };
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--size" => {
                let v = it.next().ok_or("--size needs a value (tiny|single|multi)")?;
                opts.size = Some(parse_size_value(v)?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--threads: `{v}` is not a number"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                opts.threads = Some(n);
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a file path")?)),
            other => {
                return Err(format!("unknown flag `{other}` (expected --size/--threads/--out)"))
            }
        }
    }
    Ok((opts, out))
}

/// The `pimsim trace <exp>` entry point: runs the experiment with event
/// tracing, writes the Chrome trace-event file (default
/// `results/<name>.trace.json`), and prints a metrics summary folded from
/// every retained event.
#[must_use]
pub fn run_trace_with_args(name: &str, args: &[String]) -> ExitCode {
    let Some(e) = experiment_by_name(name) else {
        eprintln!("unknown experiment `{name}`; available:");
        for e in experiments() {
            eprintln!("  {:26} {}", e.name, e.title);
        }
        return ExitCode::FAILURE;
    };
    let (mut opts, out) = match parse_trace_args(args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: pimsim trace {name} [--size tiny|single|multi] [--threads N] [--out FILE]"
            );
            return ExitCode::FAILURE;
        }
    };
    let path = out.unwrap_or_else(|| opts.out_dir.join(format!("{name}.trace.json")));
    opts.trace = Some(path.clone());
    let (_, traces) = match run_experiment_with_traces(e, &opts) {
        Ok(v) => v,
        Err(err) => {
            eprintln!("{name}: simulation fault: {err}");
            return ExitCode::FAILURE;
        }
    };
    let doc = chrome_trace(&traces);
    if let Err(err) = write_with_parents(&path, &doc.render_pretty()) {
        eprintln!("{name}: could not write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    let mut text = format!("== trace: {name} ==\n");
    for jt in &traces {
        let _ = writeln!(
            text,
            "{:24} {:>8} events retained, {:>6} dropped",
            jt.label,
            jt.trace.event_count(),
            jt.trace.dropped()
        );
    }
    let mut totals = MetricsSink::new();
    for jt in &traces {
        totals.absorb(&jt.trace.host);
        for d in &jt.trace.per_dpu {
            totals.absorb(&d.events);
        }
    }
    let _ = writeln!(text, "metrics over retained events:");
    for (k, v) in totals.counters() {
        let _ = writeln!(text, "  {k:24} {v}");
    }
    {
        use std::io::Write;
        let _ = std::io::stdout().write_all(text.as_bytes());
    }
    eprintln!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// Serve-only driver knobs parsed alongside [`DriverOptions`].
#[derive(Debug, Clone, Default)]
struct ServeDriverOptions {
    /// `--checkpoint-every MS`: checkpoint cadence in simulated ms
    /// (0 = disabled); snapshots land at `<out>/serve_<name>.ckpt<k>.json`.
    checkpoint_every_ms: u64,
    /// `--resume FILE`: continue from a checkpoint document instead of
    /// starting at virtual time zero.
    resume: Option<PathBuf>,
    /// `--tuned FILE`: a `pimsim tune` table; its policy and channel mode
    /// for the scenario's dominant workload are applied unless the
    /// matching explicit flag overrides them.
    tuned: Option<PathBuf>,
    /// Whether `--channel` was given explicitly (wins over `--tuned`).
    channel_given: bool,
}

/// Parses the `pimsim serve` flag set: the serving knobs
/// (`--seed/--duration-ms/--load/--policy/--faults`), the
/// checkpoint/restore knobs (`--checkpoint-every/--resume`), plus the
/// common `--threads/--json/--out/--trace`.
fn parse_serve_args(
    args: &[String],
) -> Result<(pim_serve::ServeOptions, ServeDriverOptions, DriverOptions), String> {
    let mut serve = pim_serve::ServeOptions::default();
    let mut drv = ServeDriverOptions::default();
    let mut opts = DriverOptions { out_dir: PathBuf::from("results"), ..DriverOptions::default() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                serve.seed = v.parse().map_err(|_| format!("--seed: `{v}` is not a number"))?;
            }
            "--duration-ms" => {
                let v = it.next().ok_or("--duration-ms needs a number")?;
                serve.duration_ms =
                    v.parse().map_err(|_| format!("--duration-ms: `{v}` is not a number"))?;
            }
            "--load" => {
                let v = it.next().ok_or("--load needs a number")?;
                let load: f64 = v.parse().map_err(|_| format!("--load: `{v}` is not a number"))?;
                // `is_finite` also rejects NaN; `inf` would otherwise be
                // accepted and collapse the mean arrival gap to zero.
                if !load.is_finite() || load <= 0.0 {
                    return Err("--load must be a positive finite number".to_string());
                }
                serve.load = load;
            }
            "--faults" => {
                let v = it.next().ok_or("--faults needs a spec (k=v,... or `none`)")?;
                if v != "none" {
                    // Parse errors already carry the `--faults:` prefix.
                    serve.faults = Some(pim_serve::FaultSpec::parse(v)?);
                }
            }
            "--checkpoint-every" => {
                let v = it.next().ok_or("--checkpoint-every needs a number of ms")?;
                drv.checkpoint_every_ms =
                    v.parse().map_err(|_| format!("--checkpoint-every: `{v}` is not a number"))?;
                if drv.checkpoint_every_ms == 0 {
                    return Err("--checkpoint-every must be at least 1 ms".to_string());
                }
            }
            "--resume" => {
                drv.resume =
                    Some(PathBuf::from(it.next().ok_or("--resume needs a checkpoint file path")?));
            }
            "--channel" => {
                let v =
                    it.next().ok_or("--channel needs a mode (blocking|broadcast|overlapped)")?;
                serve.channel = pimulator::pim_host::ChannelMode::by_name(v)
                    .map_err(|e| format!("--channel: {e}"))?;
                drv.channel_given = true;
            }
            "--tuned" => {
                drv.tuned =
                    Some(PathBuf::from(it.next().ok_or("--tuned needs a tuned-table file path")?));
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a name")?;
                if pim_serve::policy_by_name(v).is_none() {
                    return Err(format!(
                        "--policy: unknown policy `{v}` (expected fifo|size_class|weighted_fair)"
                    ));
                }
                serve.policy = Some(v.clone());
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--threads: `{v}` is not a number"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                serve.threads = Some(n);
            }
            "--json" => opts.json_stdout = true,
            "--out" => {
                opts.out_dir = PathBuf::from(it.next().ok_or("--out needs a directory")?);
            }
            "--trace" => {
                opts.trace = Some(PathBuf::from(it.next().ok_or("--trace needs a file path")?));
                serve.trace_capacity = DEFAULT_TRACE_CAPACITY;
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (expected --seed/--duration-ms/--load/--policy/\
                     --faults/--channel/--tuned/--checkpoint-every/--resume/--threads/--json/\
                     --out/--trace)"
                ))
            }
        }
    }
    Ok((serve, drv, opts))
}

/// The `pimsim serve <scenario>` entry point: runs one serving scenario,
/// prints the per-tenant table (or the JSON document under `--json`),
/// and writes `<out>/serve_<scenario>.json`. With `--trace FILE` the
/// composition profiles run with event tracing and a Chrome trace-event
/// document lands there.
#[must_use]
pub fn run_serve_with_args(name: &str, args: &[String]) -> ExitCode {
    let Some(scenario) = pim_serve::scenario_by_name(name) else {
        eprintln!("unknown scenario `{name}`; available:");
        for s in pim_serve::scenarios() {
            eprintln!("  {:26} {}", s.name, s.title);
        }
        return ExitCode::FAILURE;
    };
    let (mut serve_opts, drv, opts) = match parse_serve_args(args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: pimsim serve {name} [--seed N] [--duration-ms M] [--load X] \
                 [--policy P] [--faults SPEC] [--channel MODE] [--tuned FILE] \
                 [--checkpoint-every MS] [--resume FILE] \
                 [--threads N] [--json] [--out DIR] [--trace FILE]"
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(tuned_path) = &drv.tuned {
        let table = match tune::TunedTable::load(tuned_path) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("serve {name}: {err}");
                return ExitCode::FAILURE;
            }
        };
        match table.entry_for_scenario(scenario) {
            Ok(entry) => {
                // Explicit flags outrank the table.
                if serve_opts.policy.is_none() {
                    serve_opts.policy = Some(entry.policy.clone());
                }
                if !drv.channel_given {
                    serve_opts.channel = entry.channel;
                }
                if !opts.json_stdout {
                    eprintln!(
                        "tuned: {} -> policy={} channel={}",
                        entry.workload,
                        entry.policy,
                        entry.channel.label()
                    );
                }
            }
            Err(err) => {
                eprintln!("serve {name}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Checkpoints are rendered as they are cut and written once the run
    // finishes, as `<out>/serve_<name>.ckpt<k>.json` in cut order.
    let mut snapshots: Vec<String> = Vec::new();
    let mut sink = |ck: &pim_serve::Checkpoint| snapshots.push(ck.to_json().render_pretty());
    let result = if let Some(ckpt_path) = &drv.resume {
        let text = match std::fs::read_to_string(ckpt_path) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("serve {name}: could not read {}: {err}", ckpt_path.display());
                return ExitCode::FAILURE;
            }
        };
        let ck = match Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| pim_serve::Checkpoint::from_json(&doc))
        {
            Ok(ck) => ck,
            Err(err) => {
                eprintln!("serve {name}: {} is not a checkpoint: {err}", ckpt_path.display());
                return ExitCode::FAILURE;
            }
        };
        if let Err(err) = ck.validate(
            scenario.name,
            pim_serve::resolved_policy_name(scenario, &serve_opts),
            serve_opts.seed,
            serve_opts.load,
            pim_serve::resolved_duration_ns(scenario, &serve_opts),
            &pim_serve::fault_label(&serve_opts),
            pim_serve::channel_label(&serve_opts),
        ) {
            eprintln!("serve {name}: checkpoint does not match this run: {err}");
            return ExitCode::FAILURE;
        }
        pim_serve::resume_scenario(scenario, &serve_opts, &ck, drv.checkpoint_every_ms, &mut sink)
    } else {
        pim_serve::run_scenario_with_checkpoints(
            scenario,
            &serve_opts,
            drv.checkpoint_every_ms,
            &mut sink,
        )
    };
    let out = match result {
        Ok(o) => o,
        Err(err) => {
            eprintln!("serve {name}: simulation fault: {err}");
            return ExitCode::FAILURE;
        }
    };
    for (k, rendered) in snapshots.iter().enumerate() {
        let path = opts.out_dir.join(format!("serve_{name}.ckpt{k}.json"));
        if let Err(err) = write_with_parents(&path, rendered) {
            eprintln!("serve {name}: could not write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        if !opts.json_stdout {
            eprintln!("wrote {}", path.display());
        }
    }
    let mut doc = pim_serve::outcome_json(&out);
    if let Some(trace_path) = &opts.trace {
        let trace_doc = chrome_trace(&out.traces);
        if let Err(err) = write_with_parents(trace_path, &trace_doc.render_pretty()) {
            eprintln!("serve {name}: could not write {}: {err}", trace_path.display());
            return ExitCode::FAILURE;
        }
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("trace".to_string(), Json::from(trace_path.display().to_string())));
        }
        if !opts.json_stdout {
            eprintln!("wrote {}", trace_path.display());
        }
    }
    let pretty = doc.render_pretty();
    {
        use std::io::Write;
        let text = pim_serve::outcome_table(&out);
        let printed = if opts.json_stdout { &pretty } else { &text };
        let _ = std::io::stdout().write_all(printed.as_bytes());
    }
    let path = opts.out_dir.join(format!("serve_{name}.json"));
    if let Err(err) = write_with_parents(&path, &pretty) {
        eprintln!("serve {name}: could not write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    if !opts.json_stdout {
        eprintln!("wrote {}", path.display());
        // The composition cache, per run: how often a round's DPU found
        // its profile memoized. After `--resume`, lookups count from the
        // cut (see `ServeOutcome::composition_lookups`).
        eprintln!(
            "compositions: {} profiled, {} lookups, hit rate {:.4}",
            out.distinct_compositions,
            out.composition_lookups,
            out.composition_hit_rate()
        );
    }
    ExitCode::SUCCESS
}

/// Entry point for the per-figure binaries: [`run_with_args`] over
/// `std::env::args`.
#[must_use]
pub fn run_cli(name: &str) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run_with_args(name, &args)
}

fn header(title: &str, size: DatasetSize) -> String {
    format!("== {title} ({size:?}) ==\n")
}

fn json_doc(name: &str, size: DatasetSize, rows: Json, extra: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("experiment".to_string(), Json::from(name)),
        ("size".to_string(), Json::from(size_label(size))),
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
        text: header("Fig 5: compute & MRAM-read-bandwidth utilization", ctx.size) + &t.render(),
        json: json_doc("fig05_utilization", ctx.size, Json::Arr(json_rows), vec![]),
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
        text: header("Fig 6: runtime breakdown", ctx.size) + &t.render(),
        json: json_doc("fig06_breakdown", ctx.size, Json::Arr(json_rows), vec![]),
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
        text: header("Fig 7: issuable-tasklet histogram @16 tasklets", ctx.size) + &t.render(),
        json: json_doc("fig07_tlp_histogram", ctx.size, Json::Arr(json_rows), vec![]),
    })
}

fn run_fig08(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let rows = exp::fig08_tlp_timeline(&ctx.rt, ctx.size, 16)?;
    let mut text = header("Fig 8: TLP over time @16 tasklets", ctx.size);
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
    Ok(ExpReport {
        text,
        json: json_doc("fig08_tlp_timeline", ctx.size, Json::Arr(json_rows), vec![]),
    })
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
        text: header("Fig 9: instruction mix", ctx.size) + &t.render(),
        json: json_doc("fig09_instr_mix", ctx.size, Json::Arr(json_rows), vec![]),
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
        text: header("Fig 10: multi-DPU strong scaling", ctx.size) + &t.render(),
        json: json_doc("fig10_strong_scaling", ctx.size, Json::Arr(json_rows), vec![]),
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
        text: header("Fig 11: SIMT case study on GEMV", ctx.size) + &t.render(),
        json: json_doc("fig11_simt", ctx.size, Json::Arr(json_rows), vec![]),
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
    let text = header("Fig 12: ILP ablation @16 tasklets", ctx.size)
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
    Ok(ExpReport {
        text,
        json: json_doc(
            "fig12_ilp_ablation",
            ctx.size,
            Json::Arr(json_rows),
            vec![("summary", summary)],
        ),
    })
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
        text: header("Fig 13: MRAM bandwidth scaling @16 tasklets", ctx.size) + &t.render(),
        json: json_doc("fig13_mram_scaling", ctx.size, Json::Arr(json_rows), vec![]),
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
        text: header("Fig 15: cache-centric vs scratchpad-centric", ctx.size) + &t.render(),
        json: json_doc("fig15_cache_vs_scratchpad", ctx.size, Json::Arr(json_rows), vec![]),
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
        text: header("Fig 16: DRAM bytes read, scratchpad vs cache", ctx.size) + &t.render(),
        json: json_doc("fig16_bytes_read", ctx.size, Json::Arr(json_rows), vec![]),
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
    let text = header("\u{a7}V-C: MMU address-translation overhead @16 tasklets", ctx.size)
        + &t.render()
        + &format!(
            "\naverage overhead {} / max {}  (paper: avg 0.8%, max 14.1%)\n",
            pct(sum / n),
            pct(max)
        );
    let summary =
        Json::obj([("avg_overhead", Json::from(sum / n)), ("max_overhead", Json::from(max))]);
    Ok(ExpReport {
        text,
        json: json_doc(
            "exp_mmu_overhead",
            ctx.size,
            Json::Arr(json_rows),
            vec![("summary", summary)],
        ),
    })
}

fn run_multi_tenant(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let r = exp::multi_tenant()?;
    let mut text = String::from("== \u{a7}V-C: multi-tenant co-location ==\n");
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
        "exp_multi_tenant",
        ctx.size,
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
        text: header("Serving: saturation sweep (throughput plateau, p99 knee)", ctx.size)
            + &t.render(),
        json: json_doc(
            "exp_serving",
            ctx.size,
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
        text: header("Serving: fault campaigns (retry, degradation, conservation)", ctx.size)
            + &t.render(),
        json: json_doc(
            "exp_serving_faults",
            ctx.size,
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
        text: header("Channel study: blocking vs broadcast vs overlapped host transfers", ctx.size)
            + &t.render(),
        json: json_doc(
            "exp_transfer_study",
            ctx.size,
            Json::Arr(json_rows),
            vec![("tuned", Json::from(ctx.tuned.is_some()))],
        ),
    })
}

fn run_rank_scale(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let mut text = header("Rank scale: batched SoA execution of whole-rank populations", ctx.size);
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
            "exp_rank_scale",
            ctx.size,
            Json::Arr(json_rows),
            vec![
                ("dpus_per_rank", Json::from(exp::DPUS_PER_RANK)),
                ("batch_dpus", Json::from(exp::DEFAULT_RANK_BATCH)),
            ],
        ),
    })
}

fn run_sim_rate(ctx: &ExpContext) -> Result<ExpReport, SimError> {
    let mut text = header("\u{a7}III-D: simulation rate", ctx.size);
    let mut json_rows = Vec::new();
    let reps = 3;
    for name in ["VA", "GEMV", "BS", "RED"] {
        // Before/after on the same simulated work: the naive per-cycle
        // reference loop (`ExecTier::Naive`) vs the optimized
        // scheduler. Both are timing-identical (see
        // `tests/loop_differential.rs`), so `instructions` is shared.
        let cfg = DpuConfig::paper_baseline(16);
        let naive =
            perf::measure_prim(name, ctx.size, &cfg.clone().with_exec_tier(ExecTier::Naive), reps)?;
        let fast = perf::measure_prim(name, ctx.size, &cfg, reps)?;
        assert_eq!(
            (naive.instructions, naive.cycles),
            (fast.instructions, fast.cycles),
            "{name}: naive and optimized loops disagree on simulated work"
        );
        let kips_naive = naive.instrs_per_sec() / 1e3;
        let kips = fast.instrs_per_sec() / 1e3;
        let speedup = kips / kips_naive;
        let _ = writeln!(
            text,
            "{name:8} {instrs:>12} instructions  naive {kips_naive:>9.1} KIPS -> optimized {kips:>9.1} KIPS ({speedup:.2}x)",
            instrs = fast.instructions,
        );
        json_rows.push(Json::obj([
            ("workload", Json::from(name)),
            ("instructions", Json::from(fast.instructions)),
            ("wall_seconds_naive", Json::from(naive.wall_seconds)),
            ("wall_seconds", Json::from(fast.wall_seconds)),
            ("kips_naive", Json::from(kips_naive)),
            ("kips", Json::from(kips)),
            ("speedup", Json::from(speedup)),
        ]));
    }
    let _ = writeln!(text, "(paper's PIMulator: ~3 KIPS; `pimsim bench` runs the full suite)");
    Ok(ExpReport { text, json: json_doc("exp_sim_rate", ctx.size, Json::Arr(json_rows), vec![]) })
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
        text: header("Extension: sparse BSR & quantized NN-inference families", ctx.size)
            + &t.render(),
        json: json_doc("exp_sparse_nn", ctx.size, Json::Arr(json_rows), vec![]),
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
    for d in [4u32, 16] {
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
    let mut text = String::from("== \u{a7}III-C validation sweep (functional, hardware-free) ==\n");
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
        "exp_validation",
        ctx.size,
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

    #[test]
    fn default_size_passes_through() {
        assert_eq!(parse_size_arg(DatasetSize::Tiny), DatasetSize::Tiny);
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
    fn driver_options_parse_the_full_flag_set() {
        let args: Vec<String> =
            ["--size", "tiny", "--threads", "3", "--json", "--out", "/tmp/r", "--trace", "t.json"]
                .iter()
                .map(ToString::to_string)
                .collect();
        let o = DriverOptions::parse(&args).unwrap();
        assert_eq!(o.size, Some(DatasetSize::Tiny));
        assert_eq!(o.threads, Some(3));
        assert!(o.json_stdout);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/r"));
        assert_eq!(o.trace, Some(PathBuf::from("t.json")));
        assert!(DriverOptions::parse(&["--threads".to_string(), "0".to_string()]).is_err());
        assert!(DriverOptions::parse(&["--trace".to_string()]).is_err());
        assert!(DriverOptions::parse(&["--what".to_string()]).is_err());
    }

    #[test]
    fn trace_args_parse_and_reject() {
        let args: Vec<String> = ["--size", "tiny", "--threads", "2", "--out", "x/t.json"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (o, out) = parse_trace_args(&args).unwrap();
        assert_eq!(o.size, Some(DatasetSize::Tiny));
        assert_eq!(o.threads, Some(2));
        assert_eq!(out, Some(PathBuf::from("x/t.json")));
        assert!(parse_trace_args(&["--json".to_string()]).is_err());
    }

    #[test]
    fn traced_experiment_yields_job_traces() {
        let e = experiment_by_name("fig11_simt").unwrap();
        let opts = DriverOptions {
            size: Some(DatasetSize::Tiny),
            threads: Some(2),
            trace: Some(PathBuf::from("unused.json")),
            ..DriverOptions::default()
        };
        let (_, traces) = run_experiment_with_traces(e, &opts).unwrap();
        assert!(!traces.is_empty());
        assert!(traces.iter().all(|t| t.trace.event_count() > 0));
        // Untraced runs return no traces.
        let opts = DriverOptions { trace: None, ..opts };
        let (_, none) = run_experiment_with_traces(e, &opts).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn fig11_report_has_table_and_json() {
        let e = experiment_by_name("fig11_simt").unwrap();
        let opts = DriverOptions {
            size: Some(DatasetSize::Tiny),
            threads: Some(2),
            ..DriverOptions::default()
        };
        let r = run_experiment(e, &opts).unwrap();
        assert!(r.text.contains("SIMT+AC+16x"));
        let rendered = r.json.render();
        assert!(rendered.starts_with(r#"{"experiment":"fig11_simt","size":"tiny""#));
        assert!(rendered.contains(r#""design":"SIMT+AC""#));
    }
}
