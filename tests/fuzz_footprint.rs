//! The host memory a fuzz campaign costs. The gauntlet compares every
//! final memory image where it lies — in the DPU that ran the case, or in
//! the oracle interpreter — and drops each run as soon as no invariant
//! still reads it: the most a case holds at once is five DPUs, at the
//! batch check (the primary run, the perturbed run and the three batch
//! members). A seed-1, 48-case campaign on
//! one worker may grow the process's peak resident set (`VmHWM`) by at
//! most 4 MB. Under the test profile on a 2-vCPU x86-64 Linux box it grew
//! 3.2–3.3 MB over four runs; a gauntlet that copied each run's 64 KB WRAM
//! and 128 KB MRAM out and kept all ten runs of a case to its end grew
//! 4.6–4.7 MB over three.
//!
//! This is the only test in its binary, so nothing else allocates beside
//! it while it reads `VmHWM`.
#![cfg(target_os = "linux")]

use pim_fuzz::campaign::{run_campaign, CampaignOptions};

/// The process's peak resident set, KB (`VmHWM` in `/proc/self/status`).
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("a VmHWM line");
    line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()).expect("VmHWM in kB")
}

#[test]
fn a_one_worker_campaign_grows_the_peak_by_at_most_4_mb() {
    const BUDGET_KB: u64 = 4 * 1024;
    let opts = CampaignOptions { budget: 48, jobs: Some(1), ..CampaignOptions::smoke(1) };
    let before = vm_hwm_kb();
    let report = run_campaign(&opts).expect("the campaign runs");
    let grown = vm_hwm_kb().saturating_sub(before);
    assert_eq!(report.failures_seen, 0, "{:#?}", report.failures);
    assert!(
        grown <= BUDGET_KB,
        "a {}-case campaign on one worker grew VmHWM by {grown} KB, over {BUDGET_KB} KB",
        report.generated
    );
}
