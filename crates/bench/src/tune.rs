//! `pimsim tune`: a deterministic per-workload autotuner over the
//! execution knobs the rest of the harness exposes — tasklet count, DPU
//! count, and the v2 channel mode — plus a scheduler-policy
//! recommendation derived from the workload's serving proxy class.
//!
//! The tuner sweeps a fixed grid per workload through the parallel
//! [`JobRunner`] and scores every point by **simulated** end-to-end wall
//! time ([`pim_host::ExecutionTimeline::wall_ns`]), so the emitted table
//! (`results/tuned.json`, schema [`TUNE_SCHEMA`]) is a pure function of
//! `(workload set, grid, size)`: byte-identical at any `--threads`
//! value. Ties break to the earlier grid point. `pimsim serve --tuned
//! FILE` and `pimsim exp --tuned FILE` consume the table; stale or
//! mismatched documents are rejected with a typed error, mirroring the
//! checkpoint `--resume` validation.
//!
//! The policy column is *derived*, not searched: the serving scheduler
//! only matters under multi-tenant load, which a single-workload sweep
//! cannot observe. The mapping follows the proxy-class shape —
//! memory-bound classes batch best by size (`size_class`), compute-bound
//! classes are latency-critical (`fifo`), and everything else gets the
//! fairness-preserving default (`weighted_fair`).

use std::path::Path;

use pim_dpu::{DpuConfig, SimError, MAX_TASKLETS};
use pim_serve::kernels::{request_classes, KernelKind};
use pimulator::experiments::DPUS_PER_RANK;
use pimulator::jobs::JobRunner;
use pimulator::pim_host::ChannelMode;
use pimulator::report::Show::{Ms, Text, X};
use pimulator::report::{Cols, Json, Node};
use prim_suite::{extended_workloads, workload_by_name, DatasetSize, RunConfig};

use crate::{size_by_label, size_label};

/// Schema tag written to (and required in) a tuned table.
pub const TUNE_SCHEMA: &str = "pim-tune/1";

/// The most DPUs a table entry may ask a run to allocate: the largest
/// machine the paper models, 20 ranks.
const MAX_DPUS: u32 = 20 * DPUS_PER_RANK;

/// One tuned configuration: the winning grid point of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedEntry {
    /// Canonical workload name (as [`prim_suite::Workload::name`] spells it).
    pub workload: String,
    /// Family label (`dense` | `sparse` | `nn-inference`).
    pub family: String,
    /// Winning tasklet count.
    pub tasklets: u32,
    /// Winning DPU count.
    pub n_dpus: u32,
    /// Winning channel mode.
    pub channel: ChannelMode,
    /// Derived scheduler policy (see the module docs).
    pub policy: String,
    /// Simulated wall time of the winning point.
    pub wall_ns: f64,
    /// Simulated wall time of the best *blocking* point — the tuned
    /// legacy configuration, the denominator of [`TunedEntry::speedup`].
    pub blocking_wall_ns: f64,
}

impl TunedEntry {
    /// End-to-end win of the tuned channel mode over the tuned legacy
    /// (blocking) configuration.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.blocking_wall_ns / self.wall_ns
    }
}

/// A full tuned-config table: what `results/tuned.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedTable {
    /// Dataset size the sweep ran at.
    pub size: DatasetSize,
    /// One entry per tuned workload, in sweep order.
    pub entries: Vec<TunedEntry>,
}

impl TunedTable {
    /// The entry of `name` (resolved through the workload registry, so
    /// aliases like `SpMV-CSR` find their canonical row).
    #[must_use]
    pub(crate) fn entry(&self, name: &str) -> Option<&TunedEntry> {
        let canonical = workload_by_name(name)?.name().to_string();
        self.entries.iter().find(|e| e.workload == canonical)
    }

    /// The entry `pimsim serve --tuned` applies: the scenario's dominant
    /// workload by `tenant share × mix weight` (ties keep the earlier
    /// tenant/mix position). Every workload any tenant mixes must be
    /// covered, or the whole table is rejected — a stale table silently
    /// tuning half a scenario would be worse than no table.
    ///
    /// # Errors
    ///
    /// Returns a description naming the uncovered workloads.
    pub fn entry_for_scenario(
        &self,
        scenario: &pim_serve::Scenario,
    ) -> Result<&TunedEntry, String> {
        let mut missing: Vec<&str> = Vec::new();
        let mut best: Option<(&TunedEntry, u64)> = None;
        for t in scenario.tenants {
            for (w, weight) in t.mix {
                let Some(entry) = self.entry(w) else {
                    missing.push(w);
                    continue;
                };
                let score = u64::from(t.share) * u64::from(*weight);
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((entry, score));
                }
            }
        }
        if !missing.is_empty() {
            missing.sort_unstable();
            missing.dedup();
            return Err(format!(
                "tuned table does not cover workload(s) {} of scenario `{}` \
                 (re-run `pimsim tune`)",
                missing.join(", "),
                scenario.name
            ));
        }
        best.map(|(e, _)| e)
            .ok_or_else(|| format!("scenario `{}` has no tenant mixes", scenario.name))
    }

    /// Renders the table document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let cols = columns();
        Json::obj([
            ("schema", Json::from(TUNE_SCHEMA)),
            ("size", Json::from(size_label(self.size))),
            ("workloads", Json::arr(self.entries.iter().map(|e| cols.json(e)))),
        ])
    }

    /// Parses a table document, rejecting anything that is not a
    /// well-formed [`TUNE_SCHEMA`] table whose every entry a run can use:
    /// a known channel mode and policy, a tasklet count a DPU has, a DPU
    /// count the paper's machine has, positive finite wall times.
    ///
    /// # Errors
    ///
    /// Returns the path to the first violation and what is wrong there.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let doc = Node::root("tuned", doc);
        let schema = doc.field("schema")?;
        let found = schema.str()?;
        if found != TUNE_SCHEMA {
            return schema.fail(format_args!("schema `{found}`, expected `{TUNE_SCHEMA}`"));
        }
        let size = doc.field("size")?;
        let label = size.str()?;
        let Some(size) = size_by_label(label) else {
            return size.fail(format_args!("unknown size `{label}`"));
        };
        let wall = |j: Node<'_>| match j.number()? {
            ns if ns.is_finite() && ns > 0.0 => Ok(ns),
            ns => j.fail(format_args!("{ns} is not a positive wall time")),
        };
        let entries = doc.field("workloads")?.list(|row| {
            let (tasklets, n_dpus) = (row.field("tasklets")?, row.field("n_dpus")?);
            let (channel, policy) = (row.field("channel")?, row.field("policy")?);
            Ok(TunedEntry {
                workload: row.field("workload")?.str()?.to_string(),
                family: row.field("family")?.str()?.to_string(),
                tasklets: match tasklets.int()? {
                    n if (1..=MAX_TASKLETS).contains(&n) => n,
                    n => return tasklets.fail(format_args!("{n} is outside 1..={MAX_TASKLETS}")),
                },
                n_dpus: match n_dpus.int()? {
                    n if (1..=MAX_DPUS).contains(&n) => n,
                    n => return n_dpus.fail(format_args!("{n} is outside 1..={MAX_DPUS}")),
                },
                channel: ChannelMode::by_name(channel.str()?).or_else(|e| channel.fail(e))?,
                policy: match pim_serve::policy_by_name(policy.str()?) {
                    Some(name) => name.to_string(),
                    None => return policy.fail(format_args!("unknown policy `{}`", policy.str()?)),
                },
                wall_ns: wall(row.field("wall_ns")?)?,
                blocking_wall_ns: wall(row.field("blocking_wall_ns")?)?,
            })
        })?;
        Ok(TunedTable { size, entries })
    }

    /// Reads and parses a table file.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O, parse, or schema failure,
    /// prefixed with the path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("could not read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        Self::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The derived scheduler policy of one workload (see the module docs).
#[must_use]
pub(crate) fn derived_policy(workload: &str) -> &'static str {
    let kind = request_classes()
        .iter()
        .find(|c| c.workload.eq_ignore_ascii_case(workload))
        .map(|c| c.kind);
    match kind {
        Some(KernelKind::MemBound) => "size_class",
        Some(KernelKind::ComputeBound) => "fifo",
        _ => "weighted_fair",
    }
}

/// What to sweep: the inputs of [`run_tune`].
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Dataset size the sweep runs at (default tiny; the tuned table is a
    /// configuration artifact, not a performance figure).
    pub size: DatasetSize,
    /// A reduced grid for the CI smoke step.
    pub quick: bool,
    /// Worker threads (`None` ⇒ default).
    pub threads: Option<usize>,
    /// Workloads to tune (`None` ⇒ the full extended suite).
    pub workloads: Option<Vec<String>>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions { size: DatasetSize::Tiny, quick: false, threads: None, workloads: None }
    }
}

/// One grid point of the sweep.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    tasklets: u32,
    n_dpus: u32,
    channel: ChannelMode,
}

/// The grid for one workload, in tie-break order (earlier wins ties).
/// Blocking points come first at every `(tasklets, n_dpus)` shape so the
/// legacy baseline is always present.
fn grid(quick: bool, multi_dpu: bool) -> Vec<GridPoint> {
    let tasklets: &[u32] = if quick { &[8, 16] } else { &[4, 8, 16] };
    let dpus: &[u32] = if multi_dpu { &[1, 4] } else { &[1] };
    let modes: &[ChannelMode] = if quick {
        &[ChannelMode::Blocking, ChannelMode::Overlapped]
    } else {
        &[ChannelMode::Blocking, ChannelMode::Broadcast, ChannelMode::Overlapped]
    };
    let mut out = Vec::new();
    for &t in tasklets {
        for &d in dpus {
            for &m in modes {
                out.push(GridPoint { tasklets: t, n_dpus: d, channel: m });
            }
        }
    }
    out
}

/// Runs the sweep and builds the table.
///
/// # Errors
///
/// Returns a message naming the first unknown workload (before anything
/// is simulated), or the first workload whose sweep faulted and the
/// fault.
pub fn run_tune(opts: &TuneOptions) -> Result<TunedTable, String> {
    // Canonicalize up front so unknown names fail before any simulation
    // runs.
    let canonical = |n: &String| match workload_by_name(n) {
        Some(w) => Ok(w.name().to_string()),
        None => Err(format!("unknown workload `{n}`")),
    };
    let names: Vec<String> = match &opts.workloads {
        Some(list) => list.iter().map(canonical).collect::<Result<_, _>>()?,
        None => extended_workloads().iter().map(|w| w.name().to_string()).collect(),
    };

    struct Case {
        workload: String,
        point: GridPoint,
    }
    let mut cases = Vec::new();
    for name in &names {
        let w = workload_by_name(name).expect("canonicalized above");
        for point in grid(opts.quick, w.supports_multi_dpu()) {
            cases.push(Case { workload: name.clone(), point });
        }
    }

    let runner = JobRunner::new(opts.threads);
    let walls: Vec<Result<f64, SimError>> = runner.map(&cases, |_, c| {
        let w = workload_by_name(&c.workload).expect("workload exists");
        let rc = RunConfig::multi(c.point.n_dpus, DpuConfig::paper_baseline(c.point.tasklets));
        let run = w.run(opts.size, &rc.with_channel(c.point.channel))?;
        run.validation.as_ref().expect("tuned runs stay bit-exact against the reference");
        Ok(run.timeline.wall_ns())
    });

    let mut entries = Vec::with_capacity(names.len());
    for name in &names {
        let w = workload_by_name(name).expect("workload exists");
        let mut best: Option<(GridPoint, f64)> = None;
        let mut best_blocking: Option<f64> = None;
        for (c, wall) in cases.iter().zip(&walls) {
            if c.workload != *name {
                continue;
            }
            let wall = *wall.as_ref().map_err(|e| format!("{name}: simulation fault: {e}"))?;
            // Strict `<` keeps the earliest grid point on ties.
            if best.is_none_or(|(_, b)| wall < b) {
                best = Some((c.point, wall));
            }
            if c.point.channel == ChannelMode::Blocking && best_blocking.is_none_or(|b| wall < b) {
                best_blocking = Some(wall);
            }
        }
        let (point, wall_ns) = best.expect("every workload has grid points");
        entries.push(TunedEntry {
            workload: name.clone(),
            family: w.family().label().to_string(),
            tasklets: point.tasklets,
            n_dpus: point.n_dpus,
            channel: point.channel,
            policy: derived_policy(name).to_string(),
            wall_ns,
            blocking_wall_ns: best_blocking.expect("the grid always contains blocking points"),
        });
    }
    Ok(TunedTable { size: opts.size, entries })
}

/// The columns of a tuned table: its document's `workloads` entries and
/// its printed rows.
fn columns() -> Cols<TunedEntry> {
    Cols::<TunedEntry>::new()
        .col("workload", "workload", Text, |e| e.workload.clone())
        .col("family", "family", Text, |e| e.family.clone())
        .col("tasklets", "tasklets", Text, |e| e.tasklets)
        .col("n_dpus", "dpus", Text, |e| e.n_dpus)
        .col("channel", "channel", Text, |e| e.channel.label())
        .col("policy", "policy", Text, |e| e.policy.clone())
        .col("wall_ns", "wall_ms", Ms(4), |e| e.wall_ns)
        .key("blocking_wall_ns", |e| e.blocking_wall_ns)
        .col("speedup", "vs blocking", X, TunedEntry::speedup)
}

/// Renders the human-readable table.
#[must_use]
pub fn tune_table_text(table: &TunedTable) -> String {
    let (t, _) = columns().tabulate(&table.entries);
    format!("== pimsim tune ({} size) ==\n{}", size_label(table.size), t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_table() -> TunedTable {
        let opts = TuneOptions {
            quick: true,
            threads: Some(2),
            workloads: Some(vec!["VA".into(), "GEMV".into()]),
            ..TuneOptions::default()
        };
        run_tune(&opts).unwrap()
    }

    #[test]
    fn unknown_workload_is_rejected_before_any_simulation() {
        let opts = TuneOptions { workloads: Some(vec!["NOPE".into()]), ..TuneOptions::default() };
        let err = run_tune(&opts).unwrap_err();
        assert!(err.contains("NOPE"), "error names the workload: {err}");
    }

    #[test]
    fn table_is_byte_identical_across_thread_counts() {
        let render = |threads: usize| {
            let opts = TuneOptions {
                quick: true,
                threads: Some(threads),
                workloads: Some(vec!["VA".into(), "GEMV".into()]),
                ..TuneOptions::default()
            };
            run_tune(&opts).unwrap().to_json().render_pretty()
        };
        let one = render(1);
        assert_eq!(one, render(4));
        assert_eq!(one, render(8));
    }

    #[test]
    fn table_round_trips_through_json() {
        let table = quick_table();
        let back = TunedTable::from_json(&table.to_json()).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn tuned_wall_never_exceeds_the_blocking_wall() {
        for e in &quick_table().entries {
            assert!(
                e.wall_ns <= e.blocking_wall_ns,
                "{}: the grid contains every blocking point, so the winner \
                 cannot lose to one",
                e.workload
            );
        }
    }

    #[test]
    fn derived_policies_follow_the_class_shape() {
        assert_eq!(derived_policy("BS"), "size_class");
        assert_eq!(derived_policy("GEMV"), "fifo");
        assert_eq!(derived_policy("BFS"), "weighted_fair");
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_garbage() {
        let err = TunedTable::from_json(&Json::obj([
            ("schema", Json::from("pim-tune/0")),
            ("size", Json::from("tiny")),
            ("workloads", Json::Arr(vec![])),
        ]))
        .unwrap_err();
        assert!(err.contains("schema"), "{err}");
        assert!(TunedTable::from_json(&Json::Arr(vec![])).is_err());
    }

    #[test]
    fn scenario_lookup_finds_the_dominant_workload_and_flags_gaps() {
        let table = quick_table();
        let tiny = pim_serve::scenario_by_name("tiny").unwrap();
        // Tiny mixes BS/VA/TS; only VA and GEMV are tuned here.
        let err = table.entry_for_scenario(tiny).unwrap_err();
        assert!(err.contains("BS") && err.contains("TS"), "{err}");

        let full =
            run_tune(&TuneOptions { quick: true, threads: Some(4), ..TuneOptions::default() })
                .unwrap();
        let entry = full.entry_for_scenario(tiny).unwrap();
        // All tiny scores tie at 1; the first tenant's first mix wins.
        assert_eq!(entry.workload, "BS");
        // Aliases resolve to canonical rows.
        assert!(full.entry("SpMV-CSR").is_some());
    }
}
