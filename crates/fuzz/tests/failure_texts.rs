//! The gauntlet's failure texts are pinned: a campaign report, a corpus
//! repro and CI logs all quote `Failure::detail`, so a change to how the
//! gauntlet holds or compares its runs must leave every message as it was.
//! Each seeded `pim-dpu` bug is carried by one fixed generated case that it
//! trips, and the exact `(invariant, detail)` is asserted; the same case
//! without the bug passes. All three cases fail on stats, so a
//! memory-image message is pinned by the gauntlet's schedule-dependence
//! unit test instead.
//!
//! The bug is part of each case's configuration, so the armed and unarmed
//! runs of all three cases go through one two-worker job runner at once.

use pim_dpu::Mutant;
use pim_fuzz::gauntlet::{run_gauntlet, CheckOutcome, Invariant};
use pim_fuzz::gen::{generate, GenOptions};
use pim_fuzz::{ExecMode, FuzzCase};
use pimulator::jobs::JobRunner;

/// A seeded bug, the generated case it trips and the failure it reports.
struct Pinned {
    mutant: Mutant,
    seed: u64,
    tasklets: u32,
    gather: bool,
    invariant: Invariant,
    detail: &'static str,
}

#[test]
fn each_seeded_bug_fails_its_case_with_the_same_text() {
    let pinned = [
        Pinned {
            mutant: Mutant::Scoreboard,
            seed: 2,
            tasklets: 1,
            gather: false,
            invariant: Invariant::NaiveFastEquality,
            detail: "stats diverged (fast 353 vs naive 353 cycles): `320,` vs `310,`",
        },
        Pinned {
            mutant: Mutant::Replay,
            seed: 3,
            tasklets: 1,
            gather: true,
            invariant: Invariant::BatchEquality,
            detail: "batch member 2 stats diverged: `cycles: 20176,` vs `cycles: 20209,`",
        },
        Pinned {
            mutant: Mutant::Due,
            seed: 3,
            tasklets: 2,
            gather: false,
            invariant: Invariant::NaiveFastEquality,
            detail: "stats diverged (fast 7700 vs naive 7509 cycles): `cycles: 7700,` vs `cycles: \
                     7509,`",
        },
    ];
    // Each pinned case armed, then the same case unarmed.
    let cases: Vec<FuzzCase> = pinned
        .iter()
        .flat_map(|p| {
            let opts = GenOptions {
                tasklets: p.tasklets,
                mode: ExecMode::Scalar,
                focus: None,
                gather: p.gather,
                launches: 1,
            };
            let case = generate(p.seed, &opts);
            [FuzzCase { mutant: Some(p.mutant), ..case.clone() }, case]
        })
        .collect();
    let outcomes = JobRunner::new(Some(2)).map(&cases, |_, case| run_gauntlet(case));
    for (p, pair) in pinned.iter().zip(outcomes.chunks(2)) {
        let name = p.mutant.as_str();
        match &pair[0] {
            CheckOutcome::Fail(f) => {
                assert_eq!(f.invariant, p.invariant, "{name}: {}", f.detail);
                assert_eq!(f.detail, p.detail, "{name}");
            }
            other => panic!("{name}: expected a failure, got {other:?}"),
        }
        assert!(
            matches!(pair[1], CheckOutcome::Pass(_)),
            "{name}: the case fails with no bug armed"
        );
    }
}
