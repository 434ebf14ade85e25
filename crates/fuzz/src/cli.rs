//! The `pimsim fuzz` driver: flag parsing, campaign execution, report
//! rendering, and repro persistence.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::campaign::{run_campaign, CampaignOptions, CampaignReport, Mutant};
use crate::shrink::DEFAULT_SHRINK_EVALS;

const USAGE: &str = "usage: pimsim fuzz [--seed N] [--budget N] [--jobs N] [--corpus DIR] \
                     [--mutate] [--json] [--out FILE]";

/// Parsed `pimsim fuzz` options.
#[derive(Debug, Clone)]
struct FuzzOptions {
    seed: u64,
    budget: u32,
    jobs: Option<usize>,
    corpus: Option<PathBuf>,
    mutate: bool,
    json: bool,
    out: Option<PathBuf>,
}

impl FuzzOptions {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = FuzzOptions {
            seed: 0,
            budget: 96,
            jobs: None,
            corpus: None,
            mutate: false,
            json: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    opts.seed = v.parse().map_err(|e| format!("bad --seed `{v}`: {e}"))?;
                }
                "--budget" => {
                    let v = it.next().ok_or("--budget needs a value")?;
                    opts.budget = v.parse().map_err(|e| format!("bad --budget `{v}`: {e}"))?;
                }
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    let n: usize = v.parse().map_err(|e| format!("bad --jobs `{v}`: {e}"))?;
                    opts.jobs = Some(n.max(1));
                }
                "--corpus" => {
                    opts.corpus = Some(PathBuf::from(it.next().ok_or("--corpus needs a dir")?));
                }
                "--mutate" => opts.mutate = true,
                "--json" => opts.json = true,
                "--out" => {
                    opts.out = Some(PathBuf::from(it.next().ok_or("--out needs a file")?));
                }
                other => {
                    return Err(format!(
                        "unknown flag `{other}` (expected --seed/--budget/--jobs/--corpus/\
                         --mutate/--json/--out)"
                    ));
                }
            }
        }
        Ok(opts)
    }
}

fn write_with_parents(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// Prints to stdout, tolerating a closed pipe (`pimsim fuzz | head`).
fn emit(text: &str) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = out.write_all(text.as_bytes());
}

fn render_failures(report: &CampaignReport) -> String {
    let mut s = String::new();
    for f in &report.failures {
        s.push_str(&format!(
            "FAIL [{}] {} — {}\n  shrunk to {} instructions, {} tasklet(s) ({})\n",
            f.invariant.as_str(),
            f.label,
            f.detail,
            f.shrunk.program.instrs.len(),
            f.shrunk.tasklets,
            f.repro_name,
        ));
    }
    s
}

/// The `pimsim fuzz` entry point.
///
/// Exit status: `2` for usage errors, failure for campaign errors, a
/// conformance failure in a normal campaign, or an *undetected* mutation
/// in a `--mutate` run (one campaign per seeded bug, each of which must
/// be caught and shrunk); success otherwise.
#[must_use]
pub fn run_with_args(args: &[String]) -> ExitCode {
    let opts = match FuzzOptions::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pimsim fuzz: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mutants: Vec<Option<Mutant>> =
        if opts.mutate { Mutant::ALL.into_iter().map(Some).collect() } else { vec![None] };
    let mut reports = Vec::with_capacity(mutants.len());
    for mutate in mutants {
        let campaign = CampaignOptions {
            seed: opts.seed,
            budget: opts.budget,
            jobs: opts.jobs,
            corpus: opts.corpus.clone(),
            mutate,
            shrink_evals: DEFAULT_SHRINK_EVALS,
        };
        match run_campaign(&campaign) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("pimsim fuzz: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Persist minimized repros into the corpus so the next `cargo test`
    // replays them (skipped for the self-check's intentional bugs).
    if !opts.mutate {
        if let Some(dir) = &opts.corpus {
            for f in &reports[0].failures {
                let path = dir.join(&f.repro_name);
                if let Err(err) = write_with_parents(&path, &f.repro_text) {
                    eprintln!("pimsim fuzz: could not write {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", path.display());
            }
        }
    }

    // One document per campaign: the report itself, or under `--mutate`
    // the array of the seeded bugs' reports.
    let doc = if opts.mutate {
        pimulator::report::Json::arr(reports.iter().map(CampaignReport::json))
    } else {
        reports[0].json()
    };
    if let Some(out) = &opts.out {
        if let Err(err) = write_with_parents(out, &doc.render_pretty()) {
            eprintln!("pimsim fuzz: could not write {}: {err}", out.display());
            return ExitCode::FAILURE;
        }
        if !opts.json {
            eprintln!("wrote {}", out.display());
        }
    }
    if opts.json {
        emit(&format!("{}\n", doc.render_pretty()));
    } else {
        for report in &reports {
            emit(&format!("{}\n{}", report.table(), render_failures(report)));
        }
    }

    if opts.mutate {
        let mut status = ExitCode::SUCCESS;
        for report in &reports {
            let bug = report.mutate.map_or("", Mutant::as_str);
            // Caught is not enough: the repro has to have been shrunk too.
            match report.failures.first().filter(|_| report.mutation_detected()) {
                Some(f) => emit(&format!(
                    "mutation self-check: detected the seeded {bug} bug after {} cases\n\
                     shrunk repro ({} instructions):\n{}",
                    report.generated,
                    f.shrunk.program.instrs.len(),
                    pim_asm::disassemble(&f.shrunk.program)
                )),
                None => {
                    eprintln!(
                        "pimsim fuzz: mutation self-check FAILED — the seeded {bug} bug \
                         survived {} cases",
                        report.generated
                    );
                    status = ExitCode::FAILURE;
                }
            }
        }
        status
    } else if reports[0].failures_seen > 0 {
        eprintln!("pimsim fuzz: {} conformance failure(s)", reports[0].failures_seen);
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FuzzOptions, String> {
        let v: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        FuzzOptions::parse(&v)
    }

    #[test]
    fn defaults_are_the_smoke_configuration() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.seed, 0);
        assert_eq!(o.budget, 96);
        assert!(o.jobs.is_none() && o.corpus.is_none() && !o.mutate && !o.json);
    }

    #[test]
    fn all_flags_parse() {
        let o = parse(&[
            "--seed",
            "7",
            "--budget",
            "12",
            "--jobs",
            "3",
            "--corpus",
            "c",
            "--mutate",
            "--json",
            "--out",
            "r/fuzz.json",
        ])
        .unwrap();
        assert_eq!(o.seed, 7);
        assert_eq!(o.budget, 12);
        assert_eq!(o.jobs, Some(3));
        assert_eq!(o.corpus.as_deref(), Some(Path::new("c")));
        assert!(o.mutate && o.json);
        assert_eq!(o.out.as_deref(), Some(Path::new("r/fuzz.json")));
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--budget", "many"]).is_err());
    }
}
