//! # pimulator
//!
//! The facade of **PIMulator-RS**, a from-scratch Rust reproduction of the
//! simulation framework in *"Pathfinding Future PIM Architectures by
//! Demystifying a Commercial PIM Technology"* (HPCA 2024): a cycle-level
//! simulator for UPMEM-style general-purpose processing-in-memory, its
//! software toolchain, the PrIM benchmark suite, and the paper's four
//! architectural case studies.
//!
//! This crate re-exports the whole stack and adds the **experiment
//! harness** — one function per paper figure/table — plus plain-text report
//! rendering used by the `pim-bench` regeneration binaries.
//!
//! ## The stack
//!
//! | crate | role |
//! |---|---|
//! | [`pim_isa`] | the DPU instruction set (even/odd RF, WRAM-only loads, DMA, `acquire`/`release`) |
//! | [`pim_asm`] | assembler, flexible linker, kernel-builder eDSL, barrier/mutex runtime |
//! | [`pim_dram`] | cycle-level DDR4-2400 bank with FR-FCFS |
//! | [`pim_cache`] | set-associative caches for the §V-D study |
//! | [`pim_mmu`] | TLB + page-walk model for the §V-C study |
//! | [`pim_dpu`] | the cycle-level DPU: revolver pipeline, hazards, DMA engine, SIMT/ILP/cache modes |
//! | [`pim_host`] | host runtime: DPU sets, asymmetric transfers, multi-DPU launches |
//! | [`prim_suite`] | the 16 PrIM workloads with datasets, references, validation |
//!
//! # Example: run a workload and read the paper's metrics
//!
//! ```
//! use pimulator::prelude::*;
//!
//! let gemv = prim_suite::workload_by_name("GEMV").unwrap();
//! let run = gemv
//!     .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(16)))
//!     .unwrap();
//! run.validation.as_ref().expect("validated against the reference");
//! let stats = &run.per_dpu[0];
//! println!(
//!     "IPC {:.2}, MRAM read util {:.2}",
//!     stats.ipc(),
//!     stats.mram_read_utilization()
//! );
//! ```

pub mod experiments;
pub mod jobs;
pub mod report;
pub mod trace;

pub use pim_asm;
pub use pim_cache;
pub use pim_dpu;
pub use pim_dram;
pub use pim_host;
pub use pim_isa;
pub use pim_mmu;
pub use pim_ref;
pub use pim_trace;
pub use prim_suite;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use pim_asm::{assemble, DpuProgram, KernelBuilder};
    pub use pim_dpu::{Dpu, DpuConfig, DpuRunStats, IlpFeatures, MemoryMode, SimError, SimtConfig};
    pub use pim_host::{ChannelConfig, ExecutionTimeline, PimSystem};
    pub use prim_suite::{
        all_workloads, workload_by_name, DatasetSize, RunConfig, Workload, WorkloadRun,
    };
}
