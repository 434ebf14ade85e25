//! `pimsim fuzz`: coverage-guided conformance fuzzing.
//!
//! Fails on a campaign error, on a conformance failure in a normal
//! campaign, or on an *undetected* mutation in a `--mutate` run (one
//! campaign per seeded bug, each of which must be caught and shrunk).

use std::fmt::Write as _;

use pim_dpu::Mutant;
use pim_fuzz::campaign::{run_campaign, CampaignOptions, CampaignReport};
use pimulator::report::Json;

use crate::args::{Args, Common, Failure, Spec, JSON, OUT_FILE, THREADS};
use crate::output::{emit, finish, write_with_parents};

pub(crate) static SPEC: Spec = Spec {
    name: "fuzz",
    positional: "",
    flags: &[
        ("--seed", "N"),     // campaign master seed (default 0)
        ("--budget", "N"),   // programs to generate (default 96)
        ("--corpus", "DIR"), // replay this corpus first; write repros here
        ("--mutate", ""),    // arm each seeded bug in turn (self-check)
        THREADS,             // worker threads; never affects results
        JSON,                // print the JSON document to stdout instead of the table
        OUT_FILE,            // where the JSON report is written (nowhere by default)
    ],
};

/// The campaign to run, whether to run it once per seeded bug, and the
/// output flags.
fn parse(args: &[String]) -> Result<(CampaignOptions, bool, Common), String> {
    let mut args = Args::new(&SPEC, args);
    let (mut campaign, mut mutate, mut common) =
        (CampaignOptions::smoke(0), false, Common::default());
    while let Some(flag) = args.flag()? {
        match flag {
            "--seed" => campaign.seed = args.number()?,
            "--budget" => campaign.budget = args.number()?,
            "--corpus" => campaign.corpus = Some(args.path()?),
            "--mutate" => mutate = true,
            _ => common.take(&mut args)?,
        }
    }
    campaign.jobs = common.threads;
    Ok((campaign, mutate, common))
}

pub(crate) fn fuzz(args: &[String]) -> Result<(), Failure> {
    let (campaign, mutate, common) = parse(args).map_err(Failure::Usage)?;
    let mutants: Vec<Option<Mutant>> =
        if mutate { Mutant::ALL.into_iter().map(Some).collect() } else { vec![None] };
    let reports: Vec<CampaignReport> = mutants
        .into_iter()
        .map(|mutate| run_campaign(&CampaignOptions { mutate, ..campaign.clone() }))
        .collect::<Result<_, _>>()
        .map_err(Failure::Run)?;

    // Persist minimized repros into the corpus so the next `cargo test`
    // replays them (skipped for the self-check's intentional bugs).
    if let (false, Some(dir)) = (mutate, &campaign.corpus) {
        for f in &reports[0].failures {
            let path = dir.join(&f.repro_name);
            write_with_parents(&path, &f.repro_text)?;
            eprintln!("wrote {}", path.display());
        }
    }

    // One document per campaign: the report itself, or under `--mutate`
    // the array of the seeded bugs' reports.
    let doc = if mutate {
        Json::arr(reports.iter().map(CampaignReport::json))
    } else {
        reports[0].json()
    };
    let mut text = String::new();
    for report in &reports {
        let _ = writeln!(text, "{}", report.table());
        for f in &report.failures {
            let _ = writeln!(
                text,
                "FAIL [{}] {} — {}\n  shrunk to {} instructions, {} tasklet(s) ({})",
                f.invariant.as_str(),
                f.label,
                f.detail,
                f.shrunk.program.instrs.len(),
                f.shrunk.tasklets,
                f.repro_name,
            );
        }
    }
    finish(&common, doc, &text, common.out.as_deref(), &[])?;

    if !mutate {
        return match reports[0].failures_seen {
            0 => Ok(()),
            n => Err(Failure::Run(format!("{n} conformance failure(s)"))),
        };
    }
    let mut survivors = Vec::new();
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
            None => survivors.push(format!("{bug} bug survived {} cases", report.generated)),
        }
    }
    if survivors.is_empty() {
        return Ok(());
    }
    Err(Failure::Run(format!("mutation self-check FAILED — the seeded {}", survivors.join(", "))))
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::args::strings;

    #[test]
    fn defaults_are_the_smoke_configuration_and_every_flag_overrides_one() {
        let (o, mutate, c) = parse(&[]).unwrap();
        assert_eq!((o.seed, o.budget), (0, 96));
        assert!(o.jobs.is_none() && o.corpus.is_none() && !mutate && !c.json && c.out.is_none());

        let line = "--seed 7 --budget 12 --threads 3 --corpus c --mutate --json --out r/fuzz.json";
        let args: Vec<&str> = line.split(' ').collect();
        let (o, mutate, c) = parse(&strings(&args)).unwrap();
        assert_eq!((o.seed, o.budget, o.jobs), (7, 12, Some(3)));
        assert_eq!(o.corpus.as_deref(), Some(Path::new("c")));
        assert!(mutate && c.json);
        assert_eq!(c.out.as_deref(), Some(Path::new("r/fuzz.json")));
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [&["--frobnicate"][..], &["--seed"], &["--budget", "many"], &["--threads", "0"]]
        {
            assert!(parse(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
