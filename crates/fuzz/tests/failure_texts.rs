//! The gauntlet's failure texts are pinned: a campaign report, a corpus
//! repro and CI logs all quote `Failure::detail`, so a change to how the
//! gauntlet holds or compares its runs must leave every message as it was.
//! Each seeded `pim-dpu` bug is armed on one fixed generated case that it
//! trips, and the exact `(invariant, detail)` is asserted; the same case
//! passes with the bug disarmed. All three cases fail on stats, so a
//! memory-image message is pinned by the gauntlet's schedule-dependence
//! unit test instead.
//!
//! This is the only test in its binary: the bug switches are
//! process-global, so any other gauntlet run beside it would see them.

use pim_fuzz::gauntlet::{run_gauntlet, CheckOutcome, Invariant};
use pim_fuzz::gen::{generate, GenOptions};
use pim_fuzz::ExecMode;

/// A seeded bug, the generated case it trips and the failure it reports.
struct Pinned {
    name: &'static str,
    arm: fn(bool),
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
            name: "scoreboard",
            arm: pim_dpu::mutation::set_scoreboard_bug,
            seed: 2,
            tasklets: 1,
            gather: false,
            invariant: Invariant::NaiveFastEquality,
            detail: "stats diverged (fast 353 vs naive 353 cycles): `320,` vs `310,`",
        },
        Pinned {
            name: "replay",
            arm: pim_dpu::mutation::set_replay_bug,
            seed: 3,
            tasklets: 1,
            gather: true,
            invariant: Invariant::BatchEquality,
            detail: "batch member 2 stats diverged: `cycles: 20176,` vs `cycles: 20209,`",
        },
        Pinned {
            name: "due",
            arm: pim_dpu::mutation::set_due_bug,
            seed: 3,
            tasklets: 2,
            gather: false,
            invariant: Invariant::NaiveFastEquality,
            detail: "stats diverged (fast 7700 vs naive 7509 cycles): `cycles: 7700,` vs `cycles: \
                     7509,`",
        },
    ];
    for p in pinned {
        let opts = GenOptions {
            tasklets: p.tasklets,
            mode: ExecMode::Scalar,
            focus: None,
            gather: p.gather,
            launches: 1,
        };
        let case = generate(p.seed, &opts);
        let name = p.name;
        assert!(
            matches!(run_gauntlet(&case), CheckOutcome::Pass(_)),
            "{name}: the case fails with no bug armed"
        );
        (p.arm)(true);
        let outcome = run_gauntlet(&case);
        (p.arm)(false);
        match outcome {
            CheckOutcome::Fail(f) => {
                assert_eq!(f.invariant, p.invariant, "{name}: {}", f.detail);
                assert_eq!(f.detail, p.detail, "{name}");
            }
            other => panic!("{name}: expected a failure, got {other:?}"),
        }
    }
}
