//! # pim-dpu
//!
//! The cycle-level DPU performance simulator at the heart of the framework
//! — the Rust counterpart of the paper's PIMulator backend.
//!
//! The baseline model reproduces UPMEM's DPU microarchitecture as the paper
//! characterizes it (§II-A, Table I):
//!
//! * a 14-stage in-order pipeline with **fine-grained multithreading** over
//!   up to 24 tasklets;
//! * the **revolver** scheduling constraint — consecutive instructions of
//!   the same tasklet dispatch at least 11 cycles apart, which is how the
//!   hardware avoids forwarding/interlock circuitry;
//! * the **even/odd register-file** structural hazard — two same-bank
//!   source operands cost an extra issue slot;
//! * **scratchpad-centric** memory: single-cycle WRAM loads/stores, with
//!   MRAM reachable only through blocking DMA transfers that flow through a
//!   cycle-level DDR4 bank and a fixed-rate DMA interface;
//! * cycle-exact **stall attribution** (memory / revolver / RF), issuable-
//!   thread tracking in space and time, and instruction-mix accounting —
//!   the measurements behind the paper's Figures 5–9.
//!
//! Every case-study extension of the paper is a configuration knob:
//! [`IlpFeatures`] (D/R/S/F of Fig 12), [`SimtConfig`] (§V-A),
//! [`MemoryMode::Cached`] (§V-D), MMU via [`DpuConfig::with_paper_mmu`]
//! (§V-C), and MRAM-bandwidth scaling via
//! [`DpuConfig::with_mram_bw_scale`] (Fig 13).
//!
//! # Example
//!
//! ```
//! use pim_asm::KernelBuilder;
//! use pim_dpu::{Dpu, DpuConfig};
//! use pim_isa::Cond;
//!
//! // A kernel where each tasklet atomically increments a shared counter.
//! let mut k = KernelBuilder::new();
//! let addr = k.global_zeroed("counter", 4);
//! let [p, v] = k.regs(["p", "v"]);
//! k.acquire(0);
//! k.movi(p, addr as i32);
//! k.lw(v, p, 0);
//! k.add(v, v, 1);
//! k.sw(v, p, 0);
//! k.release(0);
//! k.stop();
//! let program = k.build().unwrap();
//!
//! let mut dpu = Dpu::new(DpuConfig::paper_baseline(8));
//! dpu.load_program(&program).unwrap();
//! let stats = dpu.launch().unwrap();
//! let out = dpu.read_wram_symbol("counter");
//! assert_eq!(i32::from_le_bytes(out.try_into().unwrap()), 8);
//! assert!(stats.cycles > 0);
//! ```

pub mod batch;
mod compiled;
pub mod config;
pub mod dpu;
pub mod error;
mod exec;
mod mem;
mod sched;
mod simt;
pub mod stats;
pub mod tenancy;

pub use batch::{run_batch, Divergence, LockstepSummary};
pub use config::{
    DpuConfig, ExecTier, IlpFeatures, MemoryMode, Mutant, SimtConfig,
    DMA_INTERFACE_BYTES_PER_CYCLE, DMA_SETUP_CYCLES, FORWARD_ALU_LATENCY, FORWARD_LOAD_LATENCY,
    MAX_TASKLETS, REVOLVER_CYCLES, SIMT_WRAM_PORTS, TLP_WINDOW, WARP_WIDTH,
};
pub use dpu::Dpu;
pub use error::SimError;
pub use stats::{DpuRunStats, IdleBuckets};
pub use tenancy::{colocate, ColocateError, Colocated, Tenant};
