//! Campaign orchestration: corpus replay + coverage-guided generation on
//! the shared job engine, with deterministic results at any worker count.
//!
//! Determinism is load-bearing (CI compares reports byte-for-byte across
//! `--threads` values), so the campaign is structured as serial decisions
//! around parallel execution: every random draw — case seeds, contexts,
//! focus cells — happens serially on the master RNG *before* a batch is
//! handed to [`pimulator::jobs::JobRunner::map`] (which restores item
//! order), and coverage/failure folding happens serially after. The
//! report carries no wall-clock times and no worker counts.
//!
//! With [`CampaignOptions::mutate`] set, that seeded bug in `pim-dpu`
//! ([`Mutant`]) is armed for the campaign's duration and the report
//! records whether the fuzzer caught it — the harness's self-check.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::corpus;
use crate::coverage::{ChainDepth, CoverageMap, DmaShape};
use crate::gauntlet::{run_gauntlet, CheckOutcome, Invariant};
use crate::gen::{generate, GenOptions};
use crate::shrink::{shrink, DEFAULT_SHRINK_EVALS};
use crate::{ExecMode, FuzzCase};
use pim_isa::DecodedProgram;
use pim_rng::StdRng;
use pimulator::jobs::JobRunner;
use pimulator::report::{Json, Table};

/// Tasklet counts the campaign samples from.
const TASKLET_CHOICES: [u32; 5] = [1, 2, 4, 8, 16];

/// Cases handed to the job engine per round; focus selection re-reads
/// coverage between rounds, so this is the feedback granularity.
const BATCH: u32 = 32;

/// Most failures shrunk/reported per campaign (the rest are counted).
const MAX_REPORTED_FAILURES: usize = 5;

/// A seeded bug in `pim-dpu` the self-check can arm (`pim_dpu::mutation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The issue engine drops the even/odd register-file hazard.
    Scoreboard,
    /// A lockstep follower skips the `Effect` comparison on jumps.
    Replay,
    /// The memory engine's due cycle overshoots a request's finish.
    Due,
}

impl Mutant {
    /// Every seeded bug, in self-check order.
    pub const ALL: [Mutant; 3] = [Mutant::Scoreboard, Mutant::Replay, Mutant::Due];

    /// Lower-case name, as reports print it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Mutant::Scoreboard => "scoreboard",
            Mutant::Replay => "replay",
            Mutant::Due => "due",
        }
    }

    fn set(self, on: bool) {
        match self {
            Mutant::Scoreboard => pim_dpu::mutation::set_scoreboard_bug(on),
            Mutant::Replay => pim_dpu::mutation::set_replay_bug(on),
            Mutant::Due => pim_dpu::mutation::set_due_bug(on),
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Master seed: campaigns with equal seeds are identical.
    pub seed: u64,
    /// Number of programs to generate.
    pub budget: u32,
    /// Worker threads (`None` = all cores). Never affects results.
    pub jobs: Option<usize>,
    /// Corpus directory to replay before generating (and to write new
    /// repros into).
    pub corpus: Option<PathBuf>,
    /// Arm this seeded bug and self-check detection.
    pub mutate: Option<Mutant>,
    /// Gauntlet-evaluation budget per shrink.
    pub shrink_evals: u32,
}

impl CampaignOptions {
    /// Smoke-sized defaults (the PR-CI configuration).
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        CampaignOptions {
            seed,
            budget: 96,
            jobs: None,
            corpus: None,
            mutate: None,
            shrink_evals: DEFAULT_SHRINK_EVALS,
        }
    }
}

/// One reported (shrunk) failure.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// Provenance of the original failing case.
    pub label: String,
    /// The invariant that broke.
    pub invariant: Invariant,
    /// First observed divergence.
    pub detail: String,
    /// Instruction count before shrinking.
    pub original_instrs: usize,
    /// The minimized case.
    pub shrunk: FuzzCase,
    /// Rendered corpus entry for the minimized case.
    pub repro_text: String,
    /// Content-addressed corpus filename for the repro.
    pub repro_name: String,
}

/// Everything a campaign produced. Rendering is deterministic: equal
/// seeds and budgets give byte-identical reports at any `jobs` value.
#[derive(Debug)]
pub struct CampaignReport {
    /// Master seed.
    pub seed: u64,
    /// Requested generation budget.
    pub budget: u32,
    /// Programs actually generated (mutate campaigns stop early).
    pub generated: u32,
    /// Corpus entries replayed.
    pub replayed: u32,
    /// Cases whose ground truth could not be established.
    pub invalid: u32,
    /// Total conformance failures observed (reported + counted).
    pub failures_seen: u32,
    /// Shrunk, reportable failures (at most `MAX_REPORTED_FAILURES`).
    pub failures: Vec<CampaignFailure>,
    /// The coverage map over all passing cases.
    pub coverage: CoverageMap,
    /// Event counters aggregated over all passing traced runs.
    pub counters: BTreeMap<&'static str, u64>,
    /// The seeded bug that was armed, if any.
    pub mutate: Option<Mutant>,
}

impl CampaignReport {
    /// Whether the armed mutation was caught (always false when
    /// [`CampaignReport::mutate`] is off).
    #[must_use]
    pub fn mutation_detected(&self) -> bool {
        self.mutate.is_some() && self.failures_seen > 0
    }

    /// The machine-readable report (no timings, no worker counts).
    #[must_use]
    pub fn json(&self) -> Json {
        let failures = self.failures.iter().map(|f| {
            Json::obj([
                ("label", Json::Str(f.label.clone())),
                ("invariant", Json::Str(f.invariant.as_str().into())),
                ("detail", Json::Str(f.detail.clone())),
                ("original_instrs", Json::UInt(f.original_instrs as u64)),
                ("shrunk_instrs", Json::UInt(f.shrunk.program.instrs.len() as u64)),
                ("shrunk_tasklets", Json::UInt(u64::from(f.shrunk.tasklets))),
                ("repro", Json::Str(f.repro_name.clone())),
            ])
        });
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_string(), Json::UInt(*v)))
            .collect::<Vec<_>>();
        Json::obj([
            ("seed", Json::UInt(self.seed)),
            ("budget", Json::UInt(u64::from(self.budget))),
            ("generated", Json::UInt(u64::from(self.generated))),
            ("replayed", Json::UInt(u64::from(self.replayed))),
            ("invalid", Json::UInt(u64::from(self.invalid))),
            ("failures_seen", Json::UInt(u64::from(self.failures_seen))),
            ("mutate", Json::Bool(self.mutate.is_some())),
            ("mutation_detected", Json::Bool(self.mutation_detected())),
            ("failures", Json::arr(failures)),
            ("coverage", self.coverage.json()),
            ("counters", Json::Obj(counters)),
        ])
    }

    /// Human-readable summary: campaign table + coverage matrix.
    #[must_use]
    pub fn table(&self) -> String {
        let mut t = Table::new(&["metric", "value"]);
        let (hit, reachable) = self.coverage.class_hazard_coverage();
        t.row_owned(vec!["seed".into(), format!("{:#x}", self.seed)]);
        t.row_owned(vec!["generated".into(), self.generated.to_string()]);
        t.row_owned(vec!["replayed".into(), self.replayed.to_string()]);
        t.row_owned(vec!["invalid".into(), self.invalid.to_string()]);
        t.row_owned(vec!["failures".into(), self.failures_seen.to_string()]);
        t.row_owned(vec!["class x hazard coverage".into(), format!("{hit}/{reachable} cells")]);
        format!(
            "{}\n{}\n{}",
            t.render(),
            self.coverage.table().render(),
            self.coverage.shape_table().render()
        )
    }
}

/// Disarms the seeded bugs on every exit path.
struct MutationGuard;

impl Drop for MutationGuard {
    fn drop(&mut self) {
        Mutant::ALL.into_iter().for_each(|m| m.set(false));
    }
}

/// Runs a campaign: corpus replay (unless mutating), then coverage-guided
/// generation in batches, then shrinking of any failures.
///
/// # Errors
///
/// Reports an unreadable or unparseable corpus; conformance failures are
/// *results*, not errors.
#[allow(clippy::too_many_lines)]
pub fn run_campaign(opts: &CampaignOptions) -> Result<CampaignReport, String> {
    let _guard = MutationGuard;
    Mutant::ALL.into_iter().for_each(|m| m.set(opts.mutate == Some(m)));

    let runner = JobRunner::new(opts.jobs);
    let mut coverage = CoverageMap::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut invalid = 0u32;
    let mut failures_seen = 0u32;
    // (failing case, invariant, detail) awaiting shrinking.
    let mut raw_failures: Vec<(FuzzCase, Invariant, String)> = Vec::new();

    let fold = |case: &FuzzCase,
                outcome: CheckOutcome,
                coverage: &mut CoverageMap,
                counters: &mut BTreeMap<&'static str, u64>,
                invalid: &mut u32,
                failures_seen: &mut u32,
                raw: &mut Vec<(FuzzCase, Invariant, String)>| {
        match outcome {
            CheckOutcome::Pass(info) => {
                let decoded = DecodedProgram::decode(&case.program.instrs);
                coverage.record_program(&decoded, case.tasklets, info.mem);
                coverage.record_shape(info.shape, info.chain);
                for (k, v) in info.metrics.counters() {
                    *counters.entry(k).or_insert(0) += v;
                }
            }
            CheckOutcome::Fail(f) => {
                *failures_seen += 1;
                if raw.len() < MAX_REPORTED_FAILURES {
                    raw.push((case.clone(), f.invariant, f.detail));
                }
            }
            CheckOutcome::Invalid(_) => *invalid += 1,
        }
    };

    // Corpus replay first: known repros must stay fixed. Skipped when
    // mutating — the self-check must prove *generation* finds the bug.
    let mut replayed = 0u32;
    if opts.mutate.is_none() {
        if let Some(dir) = &opts.corpus {
            let entries = corpus::load_dir(dir)?;
            let cases: Vec<FuzzCase> = entries
                .iter()
                .map(|(name, e)| corpus::entry_case(e, name))
                .collect::<Result<_, _>>()?;
            let outcomes = runner.map(&cases, |_, case| run_gauntlet(case));
            for (case, outcome) in cases.iter().zip(outcomes) {
                fold(
                    case,
                    outcome,
                    &mut coverage,
                    &mut counters,
                    &mut invalid,
                    &mut failures_seen,
                    &mut raw_failures,
                );
            }
            replayed = entries.len() as u32;
        }
    }

    // Coverage-guided generation, batch-wise.
    let mut master = StdRng::seed_from_u64(opts.seed);
    let mut generated = 0u32;
    while generated < opts.budget {
        if opts.mutate.is_some() && failures_seen > 0 {
            break; // self-check satisfied; no need to spend the budget
        }
        let batch = BATCH.min(opts.budget - generated);
        let specs: Vec<(u64, GenOptions)> = (0..batch)
            .map(|_| {
                let case_seed = master.next_u64();
                let tasklets = *master.choose(&TASKLET_CHOICES);
                let mode = match master.gen_range(0u8..4) {
                    0 | 1 => ExecMode::Scalar,
                    2 => ExecMode::Ilp,
                    _ => ExecMode::Simt,
                };
                let focus = coverage.pick_focus(&mut master);
                // Bias toward unhit (DMA shape x chain depth) buckets; once
                // all six are hit, keep a trickle of gather/chained cases so
                // those paths stay exercised for the rest of the campaign.
                let (gather, launches) = match coverage.pick_shape_focus(&mut master) {
                    Some((shape, chain)) => (
                        shape == DmaShape::Gather,
                        if chain == ChainDepth::Chained { master.gen_range(2u32..4) } else { 1 },
                    ),
                    None => (
                        master.gen_ratio(1, 4),
                        if master.gen_ratio(1, 4) { master.gen_range(2u32..4) } else { 1 },
                    ),
                };
                (case_seed, GenOptions { tasklets, mode, focus, gather, launches })
            })
            .collect();
        let outcomes = runner.map(&specs, |_, (case_seed, gen_opts)| {
            let case = generate(*case_seed, gen_opts);
            let outcome = run_gauntlet(&case);
            (case, outcome)
        });
        for (case, outcome) in outcomes {
            fold(
                &case,
                outcome,
                &mut coverage,
                &mut counters,
                &mut invalid,
                &mut failures_seen,
                &mut raw_failures,
            );
        }
        generated += batch;
    }

    // Shrink what failed (serial: shrinking is itself gauntlet-driven).
    let failures = raw_failures
        .into_iter()
        .map(|(case, invariant, detail)| {
            let original_instrs = case.program.instrs.len();
            let shrunk = shrink(&case, invariant, opts.shrink_evals);
            let repro_text = corpus::render_repro(&shrunk, invariant.as_str());
            let repro_name = corpus::repro_filename(&repro_text, invariant.as_str());
            CampaignFailure {
                label: case.label,
                invariant,
                detail,
                original_instrs,
                shrunk,
                repro_text,
                repro_name,
            }
        })
        .collect();

    Ok(CampaignReport {
        seed: opts.seed,
        budget: opts.budget,
        generated,
        replayed,
        invalid,
        failures_seen,
        failures,
        coverage,
        counters,
        mutate: opts.mutate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> CampaignOptions {
        CampaignOptions { budget: 8, ..CampaignOptions::smoke(seed) }
    }

    #[test]
    fn campaigns_are_deterministic_across_worker_counts() {
        let serial = run_campaign(&CampaignOptions { jobs: Some(1), ..tiny(7) }).unwrap();
        let parallel = run_campaign(&CampaignOptions { jobs: Some(4), ..tiny(7) }).unwrap();
        assert_eq!(serial.json().render_pretty(), parallel.json().render_pretty());
    }

    #[test]
    fn clean_campaigns_report_no_failures() {
        let r = run_campaign(&tiny(3)).unwrap();
        assert_eq!(r.failures_seen, 0, "{:#?}", r.failures);
        assert_eq!(r.generated, 8);
        assert!(!r.mutation_detected());
        assert!(r.coverage.cases() > 0);
    }

    #[test]
    fn campaigns_exercise_the_shape_chain_buckets() {
        let r =
            run_campaign(&CampaignOptions { budget: 32, ..CampaignOptions::smoke(11) }).unwrap();
        // One shape/chain record per passing case.
        let mut total = 0u64;
        for s in DmaShape::ALL {
            for c in ChainDepth::ALL {
                total += r.coverage.shape_hits(s, c);
            }
        }
        assert_eq!(total, r.coverage.cases());
        let chained: u64 =
            DmaShape::ALL.iter().map(|&s| r.coverage.shape_hits(s, ChainDepth::Chained)).sum();
        assert!(chained > 0, "biasing never produced a passing chained case");
    }

    #[test]
    fn missing_corpus_dir_is_an_error() {
        let opts =
            CampaignOptions { corpus: Some(PathBuf::from("/nonexistent/corpus/dir")), ..tiny(1) };
        assert!(run_campaign(&opts).is_err());
    }
}
