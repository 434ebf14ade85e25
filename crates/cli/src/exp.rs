//! `pimsim exp` and `pimsim trace`: regenerate a figure or study of the
//! paper's evaluation from the `pim-bench` registry.

use std::fmt::Write as _;
use std::path::Path;

use pim_bench::tune::TunedTable;
use pim_bench::{experiment_by_name, experiments, run_experiment_with_traces, DriverOptions};
use pimulator::pim_trace::MetricsSink;
use pimulator::trace::JobTrace;

use crate::args::{Common, Failure, Spec, JSON, OUT_DIR, OUT_FILE, SIZE, THREADS, TRACE, TUNED};
use crate::output::{emit, finish, listing};

pub(crate) static EXP: Spec = Spec {
    name: "exp",
    positional: "<name|--list>",
    flags: &[
        SIZE,    // dataset size (the experiment's default when absent)
        THREADS, // simulation worker threads; never changes a result
        JSON,    // print the JSON document to stdout instead of the table
        OUT_DIR, // where <name>.json is written (default results)
        TRACE,   // also run with event tracing and write a Chrome trace-event file
        TUNED,   // take execution shapes from a `pimsim tune` table
    ],
};

/// The `exp` run with tracing forced: `--out` names the trace file
/// (default `results/<name>.trace.json`), the per-job retention summary is
/// printed instead of the table, and no results document is written.
pub(crate) static TRACE_ONLY: Spec =
    Spec { name: "trace", positional: "<name>", flags: &[SIZE, THREADS, OUT_FILE] };

pub(crate) fn exp(args: &[String]) -> Result<(), Failure> {
    run(&EXP, args, false)
}

pub(crate) fn trace(args: &[String]) -> Result<(), Failure> {
    run(&TRACE_ONLY, args, true)
}

fn registry() -> String {
    listing(experiments().iter().map(|e| (e.name, e.title)))
}

fn run(spec: &'static Spec, args: &[String], summary_only: bool) -> Result<(), Failure> {
    let missing = "which experiment? (try `pimsim exp --list`)";
    let (name, mut common) = Common::parse(spec, args, missing).map_err(Failure::Usage)?;
    if name == "--list" && !summary_only {
        emit(&registry());
        return Ok(());
    }
    let e = experiment_by_name(name).ok_or_else(|| {
        Failure::Usage(format!(
            "unknown experiment `{name}`; available:\n{}",
            registry().trim_end()
        ))
    })?;
    let results = Path::new("results");
    if summary_only {
        let file = common.out.take();
        common.trace = file.or_else(|| Some(results.join(format!("{name}.trace.json"))));
    }
    // Loaded (and schema-checked) up front, so a stale or malformed table
    // fails before any simulation runs.
    let tuned = common.tuned.as_deref().map(TunedTable::load).transpose().map_err(Failure::Run)?;
    let opts = DriverOptions {
        size: common.size,
        threads: common.threads,
        trace: common.trace.is_some(),
        tuned,
    };
    let (report, traces) = run_experiment_with_traces(e, &opts)
        .map_err(|err| Failure::Run(format!("simulation fault: {err}")))?;
    if summary_only {
        return finish(&common, report.json, &trace_summary(name, &traces), None, &traces);
    }
    let path = common.out.as_deref().unwrap_or(results).join(format!("{name}.json"));
    finish(&common, report.json, &report.text, Some(&path), &traces)
}

/// Per-job retention counts, then the metrics folded from every retained
/// event.
fn trace_summary(name: &str, traces: &[JobTrace]) -> String {
    let mut text = format!("== trace: {name} ==\n");
    let mut totals = MetricsSink::new();
    for jt in traces {
        let _ = writeln!(
            text,
            "{:24} {:>8} events retained, {:>6} dropped",
            jt.label,
            jt.trace.event_count(),
            jt.trace.dropped()
        );
        totals.absorb(&jt.trace.host);
        for d in &jt.trace.per_dpu {
            totals.absorb(&d.events);
        }
    }
    let _ = writeln!(text, "metrics over retained events:");
    for (k, v) in totals.counters() {
        let _ = writeln!(text, "  {k:24} {v}");
    }
    text
}
