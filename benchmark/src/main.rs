//! `pim-benchmark`: the repository benchmark. See `benchmark/README.md`.
//!
//! Two command-line forms:
//!
//! - the driver form, `--workload W --seed N --seconds S --trace 0|1`,
//!   runs one workload in this process and prints the result object as
//!   the last line of standard output;
//! - `run`, `compare` and `manifest` are the forms people use. `run`
//!   starts one fresh child process (of the driver form) per workload.

mod cases;
mod compare;
mod cx;
mod digest;
mod metrics;
mod probes;
mod runner;
mod span;
mod staged;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use pimulator::report::Json;

use crate::compare::RESULTS_SCHEMA;
use crate::metrics::{RUN_SECONDS, WORKLOADS};
use crate::runner::RunArgs;
use crate::workloads::Scale;

const USAGE: &str = "usage:
  pim-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
  pim-benchmark run (--all | --workload W) [--seed N] [--seconds S] [--trace] [--smoke]
                    [--repeat K] [--out FILE]
  pim-benchmark compare A.json B.json
  pim-benchmark manifest";

/// Prefix of the line on which a child hands its full record to `run`.
const RECORD_PREFIX: &str = "RECORD ";

/// The repository root: the benchmark is built in place, one level down.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent")
}

fn out_dir() -> PathBuf {
    repo_root().join("benchmark/out")
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    all: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    out: Option<PathBuf>,
}

/// Parses the flags of both forms. `--trace` takes `0|1` in the driver
/// form and no value under `run`.
fn parse_flags(args: &[String], driver_form: bool) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => f.workload = Some(value("a workload name")?.clone()),
            "--all" => f.all = true,
            "--seed" => {
                let v = value("a number")?;
                f.seed = Some(v.parse().map_err(|_| format!("--seed: `{v}` is not a number"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds: `{v}` is outside (0, 600]"));
                }
                f.seconds = Some(s);
            }
            "--trace" if driver_form => {
                f.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                };
            }
            "--trace" => f.trace = true,
            "--smoke" => f.smoke = true,
            "--repeat" => {
                let v = value("a count")?;
                let k: usize = v.parse().map_err(|_| format!("--repeat: `{v}` is not a count"))?;
                if k == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
                f.repeat = Some(k);
            }
            "--out" => f.out = Some(PathBuf::from(value("a file path")?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if let Some(w) = &f.workload {
        if metrics::workload_by_name(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{w}` (one of {})", names.join(", ")));
        }
    }
    Ok(f)
}

/// The driver form: one workload, in this process.
fn run_here(flags: &Flags, process_start: Instant) -> Result<ExitCode, String> {
    let workload = flags.workload.clone().ok_or("--workload is required")?;
    let args = RunArgs {
        workload,
        seed: flags.seed.unwrap_or(1),
        seconds: flags.seconds.unwrap_or(RUN_SECONDS as f64),
        trace: flags.trace,
        scale: if flags.smoke { Scale::Smoke } else { Scale::Full },
    };
    let (record, trace_doc) = runner::run(&args, process_start)?;
    if args.trace {
        let path = out_dir().join(format!("{}.trace.json", args.workload));
        write_file(&path, &trace_doc.render())?;
        println!("spans written to {}", path.display());
    }
    print!("{}", record.text());
    println!("{RECORD_PREFIX}{}", record.to_json().render());
    println!("{}", record.contract_line());
    // The result line carries the verdict for the driver; only the smoke
    // form, which CI reads by exit code, fails the process on it.
    let failed = record.failed > 0 || !record.digest_stable;
    Ok(if flags.smoke && failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Runs one workload in a fresh child process and returns its record.
fn run_child(workload: &str, flags: &Flags) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &flags.seed.unwrap_or(1).to_string()])
        .args(["--seconds", &flags.seconds.unwrap_or(RUN_SECONDS as f64).to_string()])
        .args(["--trace", if flags.trace { "1" } else { "0" }]);
    if flags.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut record = None;
    for line in stdout.lines() {
        match line.strip_prefix(RECORD_PREFIX) {
            Some(json) => record = Some(Json::parse(json)?),
            // The result object is for the driver; people get the table.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let record = record.ok_or_else(|| format!("{workload}: the child printed no record"))?;
    // A smoke child exits non-zero on failed operations; its record still
    // says which, so only a child that died without one is an error here.
    if !out.status.success() && !flags.smoke {
        return Err(format!("{workload}: the child exited with {}", out.status));
    }
    Ok(record)
}

fn run_command(flags: &Flags) -> Result<ExitCode, String> {
    let names: Vec<&str> = match (&flags.workload, flags.all) {
        (Some(w), false) => vec![w.as_str()],
        (None, true) => WORKLOADS.iter().map(|w| w.name).collect(),
        _ => return Err("run needs exactly one of --all and --workload W".to_string()),
    };
    let seed = flags.seed.unwrap_or(1);
    let mut runs = Vec::new();
    let mut failed_ops = 0.0;
    for _ in 0..flags.repeat.unwrap_or(1) {
        for name in &names {
            let record = run_child(name, flags)?;
            failed_ops += compare::get(&record, "failed").and_then(compare::num).unwrap_or(1.0);
            runs.push(record);
        }
    }
    let doc = Json::obj([
        ("schema", Json::from(RESULTS_SCHEMA)),
        ("seed", Json::UInt(seed)),
        ("runs", Json::arr(runs)),
    ]);
    let path = flags.out.clone().unwrap_or_else(|| {
        let kind = match (flags.smoke, flags.trace) {
            (true, _) => "smoke",
            (false, true) => "traced",
            (false, false) => "results",
        };
        out_dir().join(format!("{kind}.seed{seed}.json"))
    });
    write_file(&path, &doc.render_pretty())?;
    println!("results written to {}", path.display());
    if failed_ops > 0.0 {
        eprintln!("{failed_ops} benchmark operations failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else { return Err("compare needs two results files".to_string()) };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, outcome) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!("{} worse, {} unresolved", outcome.worse, outcome.unresolved);
    // An unresolved row proves neither harm nor its absence, so it fails
    // the comparison too, with a code of its own: measure again with more
    // `--repeat` runs per side.
    Ok(match outcome {
        compare::Outcome { worse: 0, unresolved: 0 } => ExitCode::SUCCESS,
        compare::Outcome { worse: 0, .. } => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = metrics::validate(&WORKLOADS, &metrics::END_TO_END, &metrics::PER_LAYER) {
        eprintln!("pim-benchmark: the metric registry breaks the benchmark contract: {e}");
        return ExitCode::from(2);
    }
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..], false).and_then(|f| run_command(&f)),
        Some("compare") => compare_command(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => {
            parse_flags(&args, true).and_then(|f| run_here(&f, process_start))
        }
        _ => Err("missing command".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pim-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
