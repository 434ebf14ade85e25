//! The kinds of case a workload is made of. Each `run` is one or more
//! benchmark operations: a span around the call into the crate under
//! test, the exact counts read off the returned report, the simulated
//! statistics pinned in the digest, and a verdict.

use pim_bench::{run_experiment, DriverOptions, Experiment};
use pim_fuzz::campaign::{run_campaign, CampaignOptions};
use pim_host::PimSystem;
use pim_serve::{
    outcome_json, run_scenario, run_scenario_with_checkpoints, Checkpoint, Scenario, ServeOptions,
};
use pimulator::report::Json;
use prim_suite::{DatasetSize, RunConfig, Workload};

use crate::cx::Cx;
use crate::staged::StagedCase;

/// Which half of the blocking/overlapped pair behind
/// `host.sim_overlap_gain` a PrIM case is, if either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapRole {
    Blocking,
    Overlapped,
}

/// One `Workload::run` call.
pub struct PrimCase {
    pub name: String,
    workload: Box<dyn Workload>,
    size: DatasetSize,
    rc: RunConfig,
    overlap: Option<OverlapRole>,
}

impl PrimCase {
    pub fn new(workload: &str, label: &str, size: DatasetSize, rc: RunConfig) -> Self {
        let w = prim_suite::workload_by_name(workload)
            .unwrap_or_else(|| panic!("unknown PrIM workload `{workload}`"));
        let name =
            if label.is_empty() { workload.to_string() } else { format!("{workload}/{label}") };
        PrimCase { name, workload: w, size, rc, overlap: None }
    }

    pub fn overlap_role(mut self, role: OverlapRole) -> Self {
        self.overlap = Some(role);
        self
    }

    fn run(&self, cx: &mut Cx) {
        let out = cx.tr.time("prim.run", || self.workload.run(self.size, &self.rc));
        let run = match out {
            Ok(run) => run,
            Err(e) => return cx.op(&self.name, Err(e.to_string())),
        };
        cx.stats(&run.per_dpu);
        cx.timeline(&run.timeline);
        cx.tally.prim_instr += run.per_dpu.iter().map(|s| s.instructions).sum::<u64>();
        match self.overlap {
            Some(OverlapRole::Blocking) => cx.tally.overlap_pair.0 = run.timeline.wall_ns(),
            Some(OverlapRole::Overlapped) => cx.tally.overlap_pair.1 = run.timeline.wall_ns(),
            None => {}
        }
        if run.validation.is_err() {
            cx.tally.prim_validation_failures += 1;
        }
        cx.op(&self.name, run.validation);
    }
}

/// A staged rank population: built and loaded once in set-up, launched
/// every pass. `sum` is cleared before and checked after each launch.
pub struct RankCase {
    pub name: String,
    sys: PimSystem,
    want: Vec<Vec<u8>>,
}

impl RankCase {
    pub fn new(base: u32, n_dpus: u32, batch_dpus: u32) -> Self {
        let sys = pimulator::experiments::rank_population(base, n_dpus, batch_dpus)
            .expect("the rank kernel loads");
        // The host reference, from the staged windows themselves: the
        // kernel sums the 1024 words of its DPU's window.
        let want = (0..n_dpus)
            .map(|d| {
                let window = sys.dpu(d).read_mram(0, 4096);
                let sum = window.chunks_exact(4).fold(0i32, |acc, w| {
                    acc.wrapping_add(i32::from_le_bytes(w.try_into().expect("4-byte word")))
                });
                sum.to_le_bytes().to_vec()
            })
            .collect();
        let path = if batch_dpus > 0 { format!("batch{batch_dpus}") } else { "per-dpu".into() };
        RankCase { name: format!("RANK@{n_dpus}/{path}"), sys, want }
    }

    fn run(&mut self, cx: &mut Cx) {
        self.sys.reset_timeline();
        cx.tr.time("host.push", || self.sys.broadcast_to_symbol("sum", &[0u8; 4]));
        cx.tally.push_bytes += 4 * u64::from(self.sys.n_dpus());
        let report = match cx.tr.time("host.launch_all", || self.sys.launch_all()) {
            Ok(r) => r,
            Err(e) => return cx.op(&self.name, Err(e.to_string())),
        };
        let got = cx.tr.time("host.pull", || self.sys.pull_from_symbol("sum"));
        cx.tally.pull_bytes += got.iter().map(|c| c.len() as u64).sum::<u64>();
        let verdict = cx.tr.time("bench.validate", || {
            match got.iter().zip(&self.want).position(|(g, w)| g != w) {
                None => Ok(()),
                Some(d) => Err(format!("DPU {d} sum differs from the host reference")),
            }
        });
        for sum in &got {
            cx.digest.bytes(sum);
        }
        cx.stats(&report.per_dpu);
        cx.timeline(self.sys.timeline());
        cx.op(&self.name, verdict);
    }
}

/// One `run_scenario` call, optionally checkpointed into memory.
pub struct ServeCase {
    pub name: String,
    scenario: &'static Scenario,
    opts: ServeOptions,
    checkpoint_every_ms: u64,
}

impl ServeCase {
    pub fn new(scenario: &str, opts: ServeOptions) -> Self {
        let scenario = pim_serve::scenario_by_name(scenario)
            .unwrap_or_else(|| panic!("unknown scenario `{scenario}`"));
        ServeCase {
            name: format!("serve:{}", scenario.name),
            scenario,
            opts,
            checkpoint_every_ms: 0,
        }
    }

    pub fn checkpointed(mut self, every_ms: u64) -> Self {
        self.checkpoint_every_ms = every_ms;
        self
    }

    fn run(&self, cx: &mut Cx) {
        let mut last_checkpoint: Option<String> = None;
        let mut checkpoints = 0u64;
        let out = cx.tr.time("serve.run", || {
            if self.checkpoint_every_ms == 0 {
                run_scenario(self.scenario, &self.opts)
            } else {
                run_scenario_with_checkpoints(
                    self.scenario,
                    &self.opts,
                    self.checkpoint_every_ms,
                    &mut |ck| {
                        last_checkpoint = Some(ck.to_json().render());
                        checkpoints += 1;
                    },
                )
            }
        });
        let out = match out {
            Ok(out) => out,
            Err(e) => return cx.op(&self.name, Err(e.to_string())),
        };
        let mut verdict = cx.serve_outcome(&out);
        let doc = cx.tr.time("serve.outcome_json", || outcome_json(&out).render_pretty());
        cx.digest.str(&doc);
        cx.digest.u64(checkpoints);
        if let Some(text) = last_checkpoint {
            let again = cx.tr.time("serve.checkpoint_roundtrip", || checkpoint_roundtrip(&text));
            if verdict.is_ok() && again.as_deref() != Ok(text.as_str()) {
                verdict = Err("checkpoint does not survive a JSON round trip".to_string());
            }
        }
        cx.op(&self.name, verdict);
    }
}

/// Parses a rendered checkpoint, rebuilds it and renders it again.
pub fn checkpoint_roundtrip(text: &str) -> Result<String, String> {
    let doc = Json::parse(text)?;
    Ok(Checkpoint::from_json(&doc)?.to_json().render())
}

/// One committed golden, regenerated at `Tiny` and byte-compared.
pub struct GoldenCase {
    pub name: String,
    experiment: &'static Experiment,
    want: String,
    rows: u64,
    workers: usize,
}

impl GoldenCase {
    /// Reads `results/golden/<name>.json`; `Err` when the file is missing
    /// or is not the document the experiment registry promises.
    pub fn new(name: &str, workers: usize) -> Result<Self, String> {
        let experiment = pim_bench::experiment_by_name(name)
            .ok_or_else(|| format!("unknown experiment `{name}`"))?;
        let path = crate::repo_root().join("results/golden").join(format!("{name}.json"));
        let want =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rows = match crate::compare::get(&Json::parse(&want)?, "rows") {
            Some(Json::Arr(rows)) => rows.len() as u64,
            _ => return Err(format!("{}: no `rows` array", path.display())),
        };
        Ok(GoldenCase { name: format!("golden:{name}"), experiment, want, rows, workers })
    }

    fn run(&self, cx: &mut Cx) {
        let opts = DriverOptions {
            size: Some(DatasetSize::Tiny),
            threads: Some(self.workers),
            ..DriverOptions::default()
        };
        let report = match cx.tr.time("core.exp", || run_experiment(self.experiment, &opts)) {
            Ok(r) => r,
            Err(e) => return cx.op(&self.name, Err(e.to_string())),
        };
        let got = cx.tr.time("core.render", || report.json.render_pretty());
        cx.digest.str(&got);
        cx.tally.jobs += self.rows;
        if got == self.want {
            cx.op(&self.name, Ok(()));
        } else {
            cx.tally.golden_mismatches += 1;
            cx.op(&self.name, Err("regeneration is not byte-identical to the golden".to_string()));
        }
    }
}

/// One fuzz campaign. No corpus directory: a failure must not write a
/// repro outside `benchmark/`.
pub struct FuzzCase {
    pub name: String,
    opts: CampaignOptions,
}

impl FuzzCase {
    pub fn new(seed: u64, budget: u32, workers: usize) -> Self {
        let opts = CampaignOptions { budget, jobs: Some(workers), ..CampaignOptions::smoke(seed) };
        FuzzCase { name: format!("fuzz:budget{budget}"), opts }
    }

    fn run(&self, cx: &mut Cx) {
        let report = match cx.tr.time("fuzz.campaign", || run_campaign(&self.opts)) {
            Ok(r) => r,
            Err(e) => return cx.op(&self.name, Err(e)),
        };
        cx.digest.str(&report.json().render());
        cx.tally.fuzz_cases += u64::from(report.generated);
        cx.tally.fuzz_cells += u64::from(report.coverage.class_hazard_coverage().0);
        cx.tally.fuzz_failures += u64::from(report.failures_seen);
        cx.tally.jobs += u64::from(report.generated);
        let verdict = match report.failures_seen {
            0 => Ok(()),
            n => Err(format!("{n} conformance failures")),
        };
        cx.op(&self.name, verdict);
    }
}

/// One quick `run_tune` sweep.
pub struct TuneCase {
    pub name: String,
    opts: pim_bench::tune::TuneOptions,
}

impl TuneCase {
    pub fn new(workloads: &[&str], workers: usize) -> Self {
        let opts = pim_bench::tune::TuneOptions {
            size: DatasetSize::Tiny,
            quick: true,
            threads: Some(workers),
            workloads: Some(workloads.iter().map(|w| (*w).to_string()).collect()),
            ..Default::default()
        };
        TuneCase { name: format!("tune:{}", workloads.join("+")), opts }
    }

    fn run(&self, cx: &mut Cx) {
        // `run_tune` only builds the table; `opts.out` is never written.
        let table = match cx.tr.time("tune.run", || pim_bench::tune::run_tune(&self.opts)) {
            Ok(t) => t,
            Err(e) => return cx.op(&self.name, Err(e)),
        };
        cx.digest.str(&table.to_json().render());
        cx.tally.tune_points += table.entries.len() as u64;
        cx.tally.jobs += table.entries.len() as u64;
        let wanted = self.opts.workloads.as_ref().map_or(0, Vec::len);
        let verdict = if table.entries.len() == wanted {
            Ok(())
        } else {
            Err(format!("{} tuned entries for {wanted} workloads", table.entries.len()))
        };
        cx.op(&self.name, verdict);
    }
}

/// The §V-C multi-tenancy study, one call.
fn run_multi_tenant(cx: &mut Cx) {
    let name = "multi_tenant";
    match cx.tr.time("core.multi_tenant", pimulator::experiments::multi_tenant) {
        Err(e) => cx.op(name, Err(e.to_string())),
        Ok(r) => {
            let cycles = [
                r.alone_mem_cycles,
                r.alone_compute_cycles,
                r.coloc_mem_finish,
                r.coloc_compute_finish,
                r.coloc_makespan,
            ];
            for c in cycles {
                cx.digest.u64(c);
            }
            // Three launches: each tenant alone, then co-located.
            cx.tally.cycles += r.alone_mem_cycles + r.alone_compute_cycles + r.coloc_makespan;
            let verdict = if r.coloc_makespan > 0 && !r.scratchpad_overflow_error.is_empty() {
                Ok(())
            } else {
                Err("the study lost its co-location result".to_string())
            };
            cx.op(name, verdict);
        }
    }
}

pub enum Case {
    Prim(PrimCase),
    Staged(StagedCase),
    MultiTenant,
    Rank(RankCase),
    Serve(ServeCase),
    Golden(GoldenCase),
    Fuzz(FuzzCase),
    Tune(TuneCase),
}

impl Case {
    pub fn name(&self) -> &str {
        match self {
            Case::Prim(c) => &c.name,
            Case::Staged(c) => &c.name,
            Case::MultiTenant => "multi_tenant",
            Case::Rank(c) => &c.name,
            Case::Serve(c) => &c.name,
            Case::Golden(c) => &c.name,
            Case::Fuzz(c) => &c.name,
            Case::Tune(c) => &c.name,
        }
    }

    /// Runs the case under a `bench.case` span, whose self time is the
    /// harness's own bookkeeping.
    pub fn run(&mut self, cx: &mut Cx) {
        cx.tr.set_case(self.name());
        let open = cx.tr.enter("bench.case");
        match self {
            Case::Prim(c) => c.run(cx),
            Case::Staged(c) => {
                c.run(cx);
            }
            Case::MultiTenant => run_multi_tenant(cx),
            Case::Rank(c) => c.run(cx),
            Case::Serve(c) => c.run(cx),
            Case::Golden(c) => c.run(cx),
            Case::Fuzz(c) => c.run(cx),
            Case::Tune(c) => c.run(cx),
        }
        cx.tr.exit(open);
    }
}
