//! # pim-host
//!
//! The host-side runtime of the simulation framework: allocation of DPU
//! sets, program loading, CPU↔DPU data transfers, and synchronous kernel
//! launches — the simulator counterpart of the UPMEM host API the paper
//! walks through in Fig 2(a) (`dpu_alloc`, `dpu_load`, `dpu_push_xfer`,
//! `dpu_launch`).
//!
//! Transfers are modelled exactly as the paper models them (§III-A): a
//! fixed-bandwidth channel per direction, with the asymmetric constants of
//! Table I — 0.296 GB/s per DPU for CPU→DPU (asynchronous AVX writes) and
//! 0.063 GB/s per DPU for CPU←DPU (synchronous AVX reads). Parallel
//! (`push`) transfers to many DPUs take the time of the largest per-DPU
//! buffer; the per-launch [`ExecutionTimeline`] accumulates transfer and
//! kernel phases for the strong-scaling breakdowns of Fig 10.
//!
//! That is [`ChannelMode::Blocking`], the default mode of the one channel
//! model ([`ChannelConfig`] / [`ChannelMode`] / [`Channel`]) and what
//! [`ChannelConfig::paper`] selects. Its two other modes add per-rank
//! parallel channels with broadcast writes that serve a whole rank at
//! once, and asynchronous CPU→DPU pushes that overlap kernel execution
//! with completion barriers at pull boundaries — the software transfer
//! tricks the pathfinding literature shows recover most of the channel's
//! loss.
//!
//! # Example
//!
//! ```
//! use pim_asm::assemble;
//! use pim_dpu::DpuConfig;
//! use pim_host::{ChannelConfig, PimSystem};
//!
//! let program = assemble(".text\n movi r0, 1\n stop\n").unwrap();
//! let mut sys = PimSystem::new(4, DpuConfig::paper_baseline(1), ChannelConfig::paper());
//! sys.load(&program).unwrap();
//! let report = sys.launch_all().unwrap();
//! assert_eq!(report.per_dpu.len(), 4);
//! assert!(sys.timeline().kernel_ns > 0.0);
//! ```

pub mod system;
pub mod xfer;

pub use system::{ExecutionTimeline, LaunchReport, PimSystem};
pub use xfer::{
    from_dpu_ns, to_dpu_ns, Channel, ChannelConfig, ChannelError, ChannelMode, FROM_DPU_GBPS,
    RANK_DPUS, TO_DPU_GBPS,
};
