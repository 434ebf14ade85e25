//! The harness's proof-of-usefulness: with any of the seeded bugs armed, a
//! small campaign must catch it and shrink the repro to a handful of
//! instructions; the same seed with the bugs disarmed must run clean.
//!
//! All four live in ONE test: the bug switches are process-global, so
//! interleaving with a parallel clean run would race. (The `pimsim fuzz
//! --mutate` CLI path is exercised end-to-end in `crates/cli/tests`.)

use pim_fuzz::campaign::{run_campaign, CampaignOptions, Mutant};
use pim_fuzz::gauntlet::Invariant;

#[test]
fn the_fuzzer_catches_the_seeded_bugs_and_shrinks_them() {
    let base = CampaignOptions { budget: 256, ..CampaignOptions::smoke(1) };

    // Armed: the campaign must detect and shrink.
    let mutated =
        run_campaign(&CampaignOptions { mutate: Some(Mutant::Scoreboard), ..base.clone() })
            .unwrap();
    assert!(mutated.mutation_detected(), "the seeded bug survived {} cases", mutated.generated);
    let f = mutated.failures.first().expect("a reported failure");
    assert_eq!(
        f.invariant,
        Invariant::NaiveFastEquality,
        "dropping the RF hazard diverges naive vs fast timing: {}",
        f.detail
    );
    assert!(
        f.shrunk.program.instrs.len() <= 12,
        "shrunk repro has {} instructions (budgeted for <= 12):\n{}",
        f.shrunk.program.instrs.len(),
        pim_asm::disassemble(&f.shrunk.program)
    );

    // The replay bug shows only where a lockstep follower takes a branch
    // the leader does not: the gauntlet's perturbed batch member.
    let replay = CampaignOptions { mutate: Some(Mutant::Replay), budget: 2000, ..base.clone() };
    let mutated = run_campaign(&replay).unwrap();
    assert!(mutated.mutation_detected(), "the replay bug survived {} cases", mutated.generated);
    let f = mutated.failures.first().expect("a reported failure");
    assert_eq!(f.invariant, Invariant::BatchEquality, "{}", f.detail);
    assert!(
        f.shrunk.program.instrs.len() < f.original_instrs,
        "the repro was not shrunk:\n{}",
        pim_asm::disassemble(&f.shrunk.program)
    );

    // The due bug wakes a tasklet late wherever a loop hops to the memory
    // engine's due cycle; the naive loop visits every cycle while another
    // tasklet issues, so one DMA beside one computing tasklet shows it.
    let mutated =
        run_campaign(&CampaignOptions { mutate: Some(Mutant::Due), ..base.clone() }).unwrap();
    assert!(mutated.mutation_detected(), "the due bug survived {} cases", mutated.generated);
    let f = mutated.failures.first().expect("a reported failure");
    assert_eq!(f.invariant, Invariant::NaiveFastEquality, "{}", f.detail);
    assert!(
        f.shrunk.program.instrs.len() <= 12,
        "shrunk repro has {} instructions (budgeted for <= 12):\n{}",
        f.shrunk.program.instrs.len(),
        pim_asm::disassemble(&f.shrunk.program)
    );

    // Disarmed: the identical campaign runs clean.
    let clean = run_campaign(&base).unwrap();
    assert_eq!(clean.failures_seen, 0, "clean campaign failed: {:#?}", clean.failures);
    assert_eq!(clean.generated, 256);

    // The smoke budget must saturate >= 90% of the reachable
    // (class x hazard) projection — the coverage acceptance bar.
    let (hit, reachable) = clean.coverage.class_hazard_coverage();
    assert!(
        f64::from(hit) >= 0.9 * f64::from(reachable),
        "coverage {hit}/{reachable} below the 90% bar:\n{}",
        clean.coverage.table().render()
    );
}
