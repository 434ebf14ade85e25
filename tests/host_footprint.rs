//! The host memory a simulated DPU costs. A DPU's 64 MB bank and 64 KB
//! WRAM are one zeroed allocation, and the DPUs of a system share one
//! image of their program, so the host pays only for the pages a run
//! writes: a staged and launched 512-DPU rank population, the first one
//! and one staged again after it, must each grow the process's resident
//! set by at most 16 KB per DPU. The rank kernel
//! writes a 4 KB MRAM window and a 2 KB WRAM buffer per DPU; with the
//! allocation's header page, those are three pages.
//!
//! This is the only test in its binary, so nothing else allocates beside
//! it while it reads `VmRSS`.
#![cfg(target_os = "linux")]

/// The process's resident set, KB (`VmRSS` in `/proc/self/status`).
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("a VmRSS line");
    line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()).expect("VmRSS in kB")
}

#[test]
fn a_launched_rank_population_costs_at_most_16_kb_per_dpu() {
    const DPUS: u32 = 512;
    const KB_PER_DPU: u64 = 16;
    // `launch_all` runs one worker thread per core; each thread's stack
    // and allocator arena are the launch's cost, not a DPU's (about 50 KB
    // a thread on x86-64 glibc).
    const KB_PER_WORKER: u64 = 128;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let budget = KB_PER_DPU * u64::from(DPUS) + KB_PER_WORKER * workers.min(u64::from(DPUS));

    // The second population is staged where the first one's memory was
    // freed, as a sweep re-stages its populations: that is where a
    // heap-carved WRAM, zero-filled on reuse, cost about 69 KB a DPU.
    for population in ["first", "re-staged"] {
        let before = vm_rss_kb();
        let mut sys = pimulator::experiments::rank_population(0, DPUS, 0).expect("stage");
        sys.launch_all().expect("launch");
        let grown = vm_rss_kb().saturating_sub(before);
        assert!(
            grown <= budget,
            "the {population} {DPUS}-DPU population on {workers} workers grew VmRSS by \
             {grown} KB ({} KB per DPU), over {budget} KB: {KB_PER_DPU} KB per DPU and \
             {KB_PER_WORKER} KB per worker",
            grown / u64::from(DPUS)
        );
    }
}
