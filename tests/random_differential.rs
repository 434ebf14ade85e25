//! Randomized multi-tasklet conformance testing, replayed from the
//! committed corpus in `tests/corpus/`.
//!
//! Program generation lives in `pim-fuzz` (`pim_fuzz::gen`): seeded,
//! structured, schedule-independent SPMD kernels over the full ISA
//! surface. This test replays every committed corpus entry — 52 seed
//! entries preserving the historical seed conventions (36 scalar, 8 ILP,
//! 8 SIMT) plus any minimized repros from past campaigns — through the
//! full four-invariant conformance gauntlet:
//!
//! 1. end-state equality against the timing-free `pim-ref` oracle,
//! 2. naive-vs-fast cycle-loop `DpuRunStats` equality,
//! 3. trace-sink invisibility (NullSink vs RingSink identical stats),
//! 4. tasklet-schedule permutation invariance.
//!
//! To reproduce a failure by hand, see TESTING.md: every entry is either
//! a generator seed (regenerate with `pim_fuzz::gen::generate`) or a
//! self-contained assembly listing replayable with `pimsim fuzz --corpus`.

use std::path::{Path, PathBuf};

use pim_asm::disassemble;
use pim_fuzz::campaign::{run_campaign, CampaignOptions};
use pim_fuzz::corpus::{entry_case, load_dir};
use pim_fuzz::gauntlet::{run_gauntlet, CheckOutcome};
use pim_fuzz::ExecMode;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_corpus_entry_passes_the_conformance_gauntlet() {
    let entries = load_dir(&corpus_dir()).expect("committed corpus loads");
    // The historical floor: 36 scalar + 8 ILP + 8 SIMT seed entries.
    assert!(entries.len() >= 52, "corpus shrank to {} entries (floor is 52)", entries.len());

    let mut modes = [0u32; 3];
    let mut counts: Vec<u32> = Vec::new();
    for (name, entry) in &entries {
        let case = entry_case(entry, name).unwrap_or_else(|e| panic!("{name}: {e}"));
        modes[case.mode as usize] += 1;
        counts.push(case.tasklets);
        match run_gauntlet(&case) {
            CheckOutcome::Pass(_) => {}
            CheckOutcome::Fail(f) => panic!(
                "{name} ({}, {} tasklets) violates {}: {}\nprogram:\n{}",
                case.mode.as_str(),
                case.tasklets,
                f.invariant.as_str(),
                f.detail,
                disassemble(&case.program)
            ),
            CheckOutcome::Invalid(why) => panic!(
                "{name} ({}, {} tasklets) is not a valid case: {why}\nprogram:\n{}",
                case.mode.as_str(),
                case.tasklets,
                disassemble(&case.program)
            ),
        }
    }

    // The seed entries must keep exercising every executor and the full
    // tasklet-count spread.
    for mode in ExecMode::ALL {
        assert!(modes[mode as usize] > 0, "no corpus entry exercises {}", mode.as_str());
    }
    for n in [1u32, 2, 4, 8, 16] {
        assert!(counts.contains(&n), "no corpus entry runs with {n} tasklets");
    }
}

#[test]
fn corpus_replay_is_deterministic_across_worker_counts() {
    // Replays (and the campaign report built from them) must be
    // byte-identical whatever `--threads` says: worker count is a throughput
    // knob, never an input to the results.
    let base =
        CampaignOptions { budget: 8, corpus: Some(corpus_dir()), ..CampaignOptions::smoke(0xC0DE) };
    let serial =
        run_campaign(&CampaignOptions { jobs: Some(1), ..base.clone() }).expect("serial replay");
    let parallel =
        run_campaign(&CampaignOptions { jobs: Some(4), ..base }).expect("parallel replay");
    assert_eq!(serial.replayed, 52);
    assert_eq!(serial.json().render_pretty(), parallel.json().render_pretty());
}
