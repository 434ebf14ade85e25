//! `pimsim tune`: autotune per-workload execution shapes into a
//! `pim-tune/1` table.

use std::path::Path;

use pim_bench::tune::{run_tune, tune_table_text, TuneOptions, TunedTable};
use pimulator::prim_suite::{extended_workloads, workload_by_name};

use crate::args::{Args, Common, Failure, Spec, JSON, OUT_FILE, SIZE, THREADS};
use crate::output::{finish, listing};

pub(crate) static SPEC: Spec = Spec {
    name: "tune",
    positional: "",
    flags: &[
        ("--quick", ""),            // reduced grid (CI smoke)
        SIZE,                       // dataset size the sweep runs at (default tiny)
        THREADS,                    // worker threads; never affects the table
        ("--workloads", "A,B,..."), // tune a subset (default: the whole suite)
        OUT_FILE,                   // where the table goes (default results/tuned.json)
        JSON,                       // print the JSON document to stdout instead of the table
    ],
};

fn parse(args: &[String]) -> Result<(TuneOptions, Common), String> {
    let mut args = Args::new(&SPEC, args);
    let (mut opts, mut common) = (TuneOptions::default(), Common::default());
    while let Some(flag) = args.flag()? {
        match flag {
            "--quick" => opts.quick = true,
            "--workloads" => {
                let names: Vec<String> = args
                    .value()?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if names.is_empty() {
                    return Err(args.bad("needs at least one name"));
                }
                if let Some(n) = names.iter().find(|n| workload_by_name(n).is_none()) {
                    return Err(format!("unknown workload `{n}`; available:\n{}", registry()));
                }
                opts.workloads = Some(names);
            }
            _ => common.take(&mut args)?,
        }
    }
    opts.size = common.size.unwrap_or(opts.size);
    opts.threads = common.threads;
    Ok((opts, common))
}

/// Every workload `--workloads` accepts, one per line with its family.
fn registry() -> String {
    listing(extended_workloads().iter().map(|w| (w.name(), w.family().label()))).trim_end().into()
}

pub(crate) fn tune(args: &[String]) -> Result<(), Failure> {
    let (opts, common) = parse(args).map_err(Failure::Usage)?;
    let table = run_tune(&opts).map_err(Failure::Run)?;
    let path = common.out.as_deref().unwrap_or(Path::new("results/tuned.json"));
    finish(&common, table.to_json(), &tune_table_text(&table), Some(path), &[])?;
    // Round-trip through the parser so a table that would be rejected at
    // consumption time fails at write time instead.
    match TunedTable::load(path) {
        Ok(back) if back == table => Ok(()),
        Ok(_) => Err(Failure::Run(format!("{} did not round-trip", path.display()))),
        Err(err) => Err(Failure::Run(err)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::strings;

    #[test]
    fn workload_lists_parse_and_the_shared_flags_land_in_the_options() {
        let (o, c) = parse(&strings(&[
            "--quick",
            "--workloads",
            "VA, GEMV",
            "--out",
            "x.json",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(o.quick);
        assert_eq!(o.workloads, Some(strings(&["VA", "GEMV"])));
        assert_eq!(o.threads, Some(2));
        assert_eq!(c.out.as_deref(), Some(Path::new("x.json")));
        let err = parse(&strings(&["--workloads", " , "])).unwrap_err();
        assert_eq!(err, "--workloads: needs at least one name");
        let err = parse(&strings(&["--workloads", "VA,NOPE"])).unwrap_err();
        assert!(err.starts_with("unknown workload `NOPE`; available:\n"), "{err}");
        assert!(err.contains("\nSpMV-BSR "), "{err}");
    }
}
