//! `pimsim serve`: run a multi-tenant serving scenario.

use std::path::{Path, PathBuf};

use pim_bench::tune::TunedTable;
use pim_serve::{Checkpoint, FaultSpec, ServeOptions};
use pimulator::pim_host::ChannelMode;
use pimulator::report::Json;

use crate::args::{Args, Common, Failure, Spec, JSON, OUT_DIR, THREADS, TRACE, TUNED};
use crate::output::{emit, finish, listing, write_with_parents, wrote};

pub(crate) static SPEC: Spec = Spec {
    name: "serve",
    positional: "<scenario|--list>",
    flags: &[
        ("--seed", "N"),                                // traffic seed (default 42)
        ("--duration-ms", "M"),                         // simulated run length (scenario default)
        ("--load", "X"),                                // load multiplier on the base rate
        ("--policy", "fifo|size_class|weighted_fair"),  // scheduler (scenario default)
        ("--channel", "blocking|broadcast|overlapped"), // CPU<->DPU channel mode
        // A `pimsim tune` table: its policy and channel mode for the
        // scenario's dominant workload apply unless the explicit flag is given.
        TUNED,
        // Seeded fault campaign, `k=v,...` or `none`; keys seed/transient/
        // stuck/timeout_us/retries/backoff_us/outages/outage_ms/rank_dpus.
        ("--faults", "SPEC"),
        ("--checkpoint-every", "MS"), // cut <out>/serve_<scenario>.ckpt<k>.json snapshots
        ("--resume", "FILE"),         // continue from a checkpoint document
        THREADS,                      // composition-profiling worker threads
        JSON,                         // print the JSON document to stdout instead of the table
        OUT_DIR,                      // where serve_<scenario>.json is written (default results)
        TRACE,                        // profile with event tracing, write a Chrome trace-event file
    ],
};

/// The parsed command line after the scenario name.
struct ServeArgs {
    serve: ServeOptions,
    /// `--channel`, when given (it outranks `--tuned`).
    channel: Option<ChannelMode>,
    /// Checkpoint cadence in simulated ms (0 = disabled).
    checkpoint_every_ms: u64,
    resume: Option<PathBuf>,
    common: Common,
}

fn parse(mut args: Args) -> Result<ServeArgs, String> {
    let mut o = ServeArgs {
        serve: ServeOptions::default(),
        channel: None,
        checkpoint_every_ms: 0,
        resume: None,
        common: Common::default(),
    };
    while let Some(flag) = args.flag()? {
        match flag {
            "--seed" => o.serve.seed = args.number()?,
            "--duration-ms" => o.serve.duration_ms = args.number()?,
            "--load" => {
                // `is_finite` also rejects NaN; `inf` would otherwise be
                // accepted and collapse the mean arrival gap to zero.
                o.serve.load = args.number()?;
                if !o.serve.load.is_finite() || o.serve.load <= 0.0 {
                    return Err("--load must be a positive finite number".to_string());
                }
            }
            "--policy" => {
                let v = args.value()?;
                if pim_serve::policy_by_name(v).is_none() {
                    return Err(args.unknown("policy", v));
                }
                o.serve.policy = Some(v.to_string());
            }
            "--channel" => {
                o.channel = Some(ChannelMode::by_name(args.value()?).map_err(|e| args.bad(e))?);
            }
            "--faults" => match args.value()? {
                "none" => {}
                // Parse errors already carry the `--faults:` prefix.
                spec => o.serve.faults = Some(FaultSpec::parse(spec)?),
            },
            "--checkpoint-every" => o.checkpoint_every_ms = args.at_least_one()?,
            "--resume" => o.resume = Some(args.path()?),
            _ => o.common.take(&mut args)?,
        }
    }
    o.serve.threads = o.common.threads;
    if o.common.trace.is_some() {
        o.serve.trace_capacity = pim_bench::DEFAULT_TRACE_CAPACITY;
    }
    Ok(o)
}

fn registry() -> String {
    listing(pim_serve::scenarios().iter().map(|s| (s.name, s.title)))
}

pub(crate) fn serve(args: &[String]) -> Result<(), Failure> {
    let mut args = Args::new(&SPEC, args);
    let name =
        args.positional("which scenario? (try `pimsim serve --list`)").map_err(Failure::Usage)?;
    if name == "--list" {
        emit(&registry());
        return Ok(());
    }
    let scenario = pim_serve::scenario_by_name(name).ok_or_else(|| {
        Failure::Usage(format!("unknown scenario `{name}`; available:\n{}", registry().trim_end()))
    })?;
    let ServeArgs { mut serve, channel, checkpoint_every_ms, resume, common } =
        parse(args).map_err(Failure::Usage)?;
    if let Some(tuned_path) = &common.tuned {
        let table = TunedTable::load(tuned_path).map_err(Failure::Run)?;
        let entry = table.entry_for_scenario(scenario).map_err(Failure::Run)?;
        serve.policy.get_or_insert_with(|| entry.policy.clone());
        serve.channel = entry.channel;
        if !common.json {
            let (policy, mode) = (&entry.policy, entry.channel.label());
            eprintln!("tuned: {} -> policy={policy} channel={mode}", entry.workload);
        }
    }
    serve.channel = channel.unwrap_or(serve.channel);
    pim_serve::resolved_duration_ns(scenario, &serve)
        .map_err(|why| Failure::Run(why.to_string()))?;

    // Checkpoints are rendered as they are cut and written once the run
    // finishes, as `<out>/serve_<name>.ckpt<k>.json` in cut order.
    let mut snapshots: Vec<String> = Vec::new();
    let mut sink = |ck: &Checkpoint| snapshots.push(ck.to_json().render_pretty());
    let out = match &resume {
        Some(path) => {
            let ck = load_checkpoint(path)?;
            pim_serve::resume_scenario(scenario, &serve, &ck, checkpoint_every_ms, &mut sink)
                .map_err(Failure::Run)?
        }
        None => pim_serve::run_scenario_with_checkpoints(
            scenario,
            &serve,
            checkpoint_every_ms,
            &mut sink,
        )
        .map_err(|err| Failure::Run(format!("simulation fault: {err}")))?,
    };
    let dir = common.out.as_deref().unwrap_or(Path::new("results"));
    for (k, rendered) in snapshots.iter().enumerate() {
        let path = dir.join(format!("serve_{name}.ckpt{k}.json"));
        write_with_parents(&path, rendered)?;
        wrote(&common, &path);
    }
    let path = dir.join(format!("serve_{name}.json"));
    let (doc, table) = (pim_serve::outcome_json(&out), pim_serve::outcome_table(&out));
    finish(&common, doc, &table, Some(&path), &out.traces)?;
    if !common.json {
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
    Ok(())
}

/// Reads a `--resume` document; `resume_scenario` then checks that this
/// very run cut it.
fn load_checkpoint(path: &Path) -> Result<Checkpoint, Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| Failure::Run(format!("could not read {}: {err}", path.display())))?;
    Json::parse(&text)
        .and_then(|doc| Checkpoint::from_json(&doc))
        .map_err(|err| Failure::Run(format!("{} is not a checkpoint: {err}", path.display())))
}
