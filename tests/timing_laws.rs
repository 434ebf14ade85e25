//! Timing laws: closed forms of the DPU's cycle count, computed from the
//! Table I constants the simulator exports and checked on every executor.
//! Nothing here reads a golden; a law breaks only when the model changes.
//!
//! - (a) the revolver: a tasklet issues at most once every
//!   `REVOLVER_CYCLES`, the pipeline at most once a cycle;
//! - (c) the DMA engine: a lone transfer costs a fixed set-up, one closed-row
//!   bank access and one interface slot per 64-byte burst.

use pim_asm::assemble;
use pim_dpu::{
    Dpu, DpuConfig, ExecTier, DMA_INTERFACE_BYTES_PER_CYCLE, DMA_SETUP_CYCLES, REVOLVER_CYCLES,
};
use pimulator::pim_dram::DramConfig;

const TIERS: [ExecTier; 3] = [ExecTier::Naive, ExecTier::Fast, ExecTier::Compiled];

/// Cycles of one launch of `src` on `n_tasklets` tasklets under `tier`.
fn cycles(src: &str, n_tasklets: u32, tier: ExecTier) -> u64 {
    let program = assemble(src).expect("kernel assembles");
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(n_tasklets).with_exec_tier(tier));
    dpu.load_program(&program).expect("kernel loads");
    dpu.launch().expect("kernel runs").cycles
}

/// Law (a). Every tasklet runs the same `n`-instruction loop whose
/// instructions read one register each, so no register-file hazard and no
/// memory stall intervenes. With `T` tasklets either the revolver binds —
/// each tasklet issues every `REVOLVER_CYCLES` and the last one's stop lands
/// `T − 1` cycles after the first's — or, above `REVOLVER_CYCLES` tasklets,
/// the single issue slot does and the run takes `T · n` cycles.
#[test]
fn law_a_revolver_or_issue_slot_binds() {
    const ITERATIONS: u64 = 4000;
    let src = format!(
        ".text\n movi r0, {ITERATIONS}\nloop:\n add r1, r1, 1\n sub r0, r0, 1\n \
         bne r0, 0, loop\n stop\n"
    );
    let n = 1 + 3 * ITERATIONS + 1; // movi, the loop body, stop: 12,002
    let r = u64::from(REVOLVER_CYCLES);
    for t in [1u32, 2, 10, 11, 12, 16, 24] {
        let tasklets = u64::from(t);
        let want = if tasklets <= r { r * (n - 1) + tasklets } else { tasklets * n };
        for tier in TIERS {
            assert_eq!(cycles(&src, t, tier), want, "T = {t}, {tier:?}");
        }
    }
}

/// Law (c): the cycle count of `movi; movi; ldma|sdma r1, r2, len; stop` on
/// one tasklet, built term by term as the memory engine books a lone
/// request (`crates/dpu/src/mem.rs`).
fn lone_dma_cycles(len: u32) -> u64 {
    let dram = DramConfig::ddr4_2400();
    let core_mhz = u64::from(DpuConfig::paper_baseline(1).freq_mhz());
    let dram_mhz = dram.freq_mhz as u64;
    // The DMA is the third instruction of a lone tasklet.
    let issue = 2 * u64::from(REVOLVER_CYCLES);
    // After the set-up it reaches the bank on the DRAM cycle its core cycle
    // falls in.
    let arrival = (issue + u64::from(DMA_SETUP_CYCLES)) * dram_mhz / core_mhz;
    // The bank's rows start closed: activate, read, burst out.
    let first_burst = arrival + dram.t_rcd + dram.t_cl + dram.t_bl;
    // The burst takes the interface on the first core cycle reaching it.
    let on_interface = (first_burst * core_mhz).div_ceil(dram_mhz);
    // Each burst holds the interface `burst_bytes / rate` core cycles; the
    // bank streams later bursts every `t_ccd` DRAM cycles (one row miss per
    // KB adds `t_rp + t_rcd`), far faster, so the interface alone sets the
    // pace.
    let occupancy = (f64::from(dram.burst_bytes) / DMA_INTERFACE_BYTES_PER_CYCLE).ceil() as u64;
    let bursts = u64::from(len.div_ceil(dram.burst_bytes));
    let done = on_interface + bursts * occupancy;
    // The tasklet issues its stop the cycle after the completion, and the
    // run counts the stop's own cycle.
    done + 2
}

#[test]
fn law_c_a_lone_dma_pays_set_up_one_bank_access_and_a_slot_per_burst() {
    // The single-burst figure splits as 2 · 11 cycles of issue, then 68:
    // 24 of set-up, 11 to the first burst's return, 32 on the interface
    // and 1 to wake up.
    assert_eq!(lone_dma_cycles(64), 91);
    for dma in ["ldma", "sdma"] {
        for len in [8u32, 64, 72, 128, 1024, 2048] {
            let src = format!(".text\n movi r1, 0\n movi r2, 0\n {dma} r1, r2, {len}\n stop\n");
            for tier in TIERS {
                assert_eq!(cycles(&src, 1, tier), lone_dma_cycles(len), "{dma} {len} B, {tier:?}");
            }
        }
    }
}
