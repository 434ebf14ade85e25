//! The host memory a PrIM run's staging costs. A 1-D input stream is
//! generated word by word straight into each DPU's bank, and outputs are
//! checked where they lie against a reference read from those inputs where
//! they lie, so the host holds no copy of the stream: VA at `SingleDpu` on
//! one DPU may grow the process's peak resident set by at most the bank
//! bytes written (both inputs and the output), plus 2 MB for the program,
//! the compiled kernel and the allocator's slack. A host array of either
//! input would add 4 MB and break the budget.
//!
//! This is the only test in its binary, so nothing else allocates beside
//! it while it reads `VmHWM`.
#![cfg(target_os = "linux")]

use pim_dpu::DpuConfig;
use prim_suite::{DatasetSize, RunConfig};

/// The process's peak resident set, KB (`VmHWM` in `/proc/self/status`).
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("a VmHWM line");
    line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()).expect("VmHWM in kB")
}

#[test]
fn a_va_run_holds_each_dataset_once() {
    // VA at `SingleDpu`: two input vectors and one output of 1 Mi words.
    const WORDS: u64 = 1 << 20;
    const SLACK_KB: u64 = 2 * 1024;
    let bank_kb = 3 * WORDS * 4 / 1024;
    let budget = bank_kb + SLACK_KB;

    let va = prim_suite::workload_by_name("VA").expect("VA is registered");
    let before = vm_hwm_kb();
    let run = va
        .run(DatasetSize::SingleDpu, &RunConfig::single(DpuConfig::paper_baseline(16)))
        .expect("VA runs");
    let grown = vm_hwm_kb().saturating_sub(before);
    run.assert_valid();
    assert!(
        grown <= budget,
        "a one-DPU VA run grew VmHWM by {grown} KB, over {budget} KB: {bank_kb} KB of bank \
         written and {SLACK_KB} KB of slack, with no host copy of its inputs"
    );
}
