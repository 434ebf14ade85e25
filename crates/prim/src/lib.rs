//! # prim-suite
//!
//! The 16 PrIM benchmarks (Gómez-Luna et al.'s open-source UPMEM benchmark
//! suite, the workloads the paper characterizes in §IV and uses for every
//! case study) re-implemented for this simulation framework.
//!
//! Each workload bundles four things:
//!
//! 1. a **DPU kernel** authored with the [`pim_asm::KernelBuilder`] in the
//!    scratchpad-centric style of the original PrIM code (block-wise
//!    `mram_read` staging, per-tasklet partitioning, barriers/mutexes where
//!    the original uses them) — and, where the §V-D case study needs it, a
//!    **cache-centric variant** operating on the flat DRAM-backed address
//!    space with plain loads/stores;
//! 2. **host orchestration** through one staging type, `common::Stage`: data
//!    partitioning across DPUs, transfers, and (for multi-kernel workloads
//!    such as BFS or the SCANs) the launch loop with inter-DPU
//!    communication through the host;
//! 3. a seeded **dataset generator** for the paper's Table II
//!    configurations (plus a `Tiny` size for fast tests);
//! 4. a pure-Rust **reference implementation** used to validate every
//!    simulated run's output bit-for-bit — the functional half of the
//!    paper's simulator validation (§III-C), standing in for the real-
//!    hardware cross-check this reproduction cannot perform.
//!
//! # Example
//!
//! ```
//! use prim_suite::{all_workloads, DatasetSize, RunConfig};
//! use pim_dpu::DpuConfig;
//!
//! let va = prim_suite::workload_by_name("VA").unwrap();
//! let run = va
//!     .run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(4)))
//!     .unwrap();
//! run.validation.expect("output matches the reference");
//! assert!(run.per_dpu[0].instructions > 0);
//! assert_eq!(all_workloads().len(), 16);
//! // Two extension families ride alongside the dense suite: block-sparse
//! // BSR kernels and chained quantized NN-inference layers.
//! assert_eq!(prim_suite::extended_workloads().len(), 20);
//! assert!(prim_suite::workload_by_name("SpMV-CSR").is_some(), "alias for the dense SpMV");
//! ```

pub mod common;
pub(crate) mod datasets;
pub(crate) mod workloads;

use pim_dpu::{DpuConfig, DpuRunStats, MemoryMode, SimError};
use pim_host::{ChannelConfig, ChannelMode, ExecutionTimeline};

/// Which of the paper's Table II dataset configurations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSize {
    /// A miniature dataset for fast functional tests (not in the paper).
    Tiny,
    /// The paper's single-DPU column of Table II.
    SingleDpu,
    /// The paper's multiple-DPU column of Table II.
    MultiDpu,
}

/// How a workload is executed.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Per-DPU configuration (tasklets, ILP/SIMT/cache/MMU knobs, …).
    pub dpu: DpuConfig,
    /// Number of DPUs (strong scaling splits the dataset across them).
    pub n_dpus: u32,
    /// CPU↔DPU channel model (bandwidths + v2 scheduling mode). The
    /// constructors default to the legacy blocking pipe, so every
    /// pre-v2 run keeps its exact numbers.
    pub xfer: ChannelConfig,
}

impl RunConfig {
    /// A single-DPU run.
    #[must_use]
    pub fn single(dpu: DpuConfig) -> Self {
        RunConfig { dpu, n_dpus: 1, xfer: ChannelConfig::paper() }
    }

    /// A multi-DPU strong-scaling run.
    #[must_use]
    pub fn multi(n_dpus: u32, dpu: DpuConfig) -> Self {
        RunConfig { dpu, n_dpus, xfer: ChannelConfig::paper() }
    }

    /// The same run under a different [`ChannelMode`] (builder style, for
    /// channel-mode sweeps and the tuner).
    #[must_use]
    pub fn with_channel(mut self, mode: ChannelMode) -> Self {
        self.xfer.mode = mode;
        self
    }

    /// Whether the DPUs run the cache-centric memory model.
    #[must_use]
    pub(crate) fn cached(&self) -> bool {
        self.dpu.memory_mode == MemoryMode::Cached
    }
}

/// The result of running one workload end-to-end.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// End-to-end time breakdown (input transfer / kernel / output
    /// transfer), accumulated over all launches — Fig 10's bars.
    pub timeline: ExecutionTimeline,
    /// Per-DPU statistics, merged across launches.
    pub per_dpu: Vec<DpuRunStats>,
    /// `Ok` when the pulled outputs matched the reference implementation.
    pub validation: Result<(), String>,
    /// Structured event trace, present when the DPU config enabled event
    /// tracing (`event_trace_capacity > 0`).
    pub trace: Option<pim_trace::SystemTrace>,
}

impl WorkloadRun {
    /// Statistics merged across every DPU and launch (single-DPU runs
    /// return a clone of the only entry).
    #[must_use]
    pub fn merged(&self) -> DpuRunStats {
        let mut out = DpuRunStats::default();
        for s in &self.per_dpu {
            out.merge(s);
        }
        out
    }

    /// Panics with the validation message if the run did not validate.
    ///
    /// # Panics
    ///
    /// Panics when the simulated output differed from the reference.
    pub fn assert_valid(&self) {
        if let Err(e) = &self.validation {
            panic!("workload output mismatch: {e}");
        }
    }
}

/// Which kernel family a workload belongs to.
///
/// The original 16 PrIM benchmarks are all dense-array kernels
/// ([`WorkloadFamily::Dense`]). The two extension families stress the
/// regimes the paper's case studies care about but PrIM does not cover:
/// block-sparse kernels with irregular gather DMA
/// ([`WorkloadFamily::Sparse`]) and quantized NN-inference layers chained
/// across multiple DPU launches ([`WorkloadFamily::NnInference`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadFamily {
    /// The dense PrIM suite (Table II workloads).
    Dense,
    /// Block-sparse (BSR) SpMV/SpMM with gather DMA.
    Sparse,
    /// Quantized MLP / attention layers as chained kernel launches.
    NnInference,
}

impl WorkloadFamily {
    /// Stable lowercase label used in reports and JSON rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkloadFamily::Dense => "dense",
            WorkloadFamily::Sparse => "sparse",
            WorkloadFamily::NnInference => "nn-inference",
        }
    }
}

/// A PrIM workload: kernel + host orchestration + dataset + reference.
pub trait Workload {
    /// The workload's PrIM name (`"VA"`, `"GEMV"`, `"SCAN-SSA"`, …).
    fn name(&self) -> &'static str;

    /// The kernel family the workload belongs to.
    fn family(&self) -> WorkloadFamily {
        WorkloadFamily::Dense
    }

    /// Alternative registry names (disambiguation; old names kept as
    /// aliases so golden snapshots and saved reports stay valid).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// Whether a cache-centric kernel variant exists for the §V-D study.
    fn supports_cache_mode(&self) -> bool {
        true
    }

    /// Whether the workload can strong-scale across multiple DPUs.
    fn supports_multi_dpu(&self) -> bool {
        true
    }

    /// Runs the workload end-to-end (generate → stage → launch(es) →
    /// pull → validate).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the simulated kernel faults.
    fn run(&self, size: DatasetSize, rc: &RunConfig) -> Result<WorkloadRun, SimError>;
}

/// All 16 PrIM workloads, in the paper's figure order.
#[must_use]
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(workloads::bfs::Bfs),
        Box::new(workloads::bs::Bs),
        Box::new(workloads::gemv::Gemv),
        Box::new(workloads::hst::HstL),
        Box::new(workloads::hst::HstS),
        Box::new(workloads::mlp::Mlp),
        Box::new(workloads::nw::Nw),
        Box::new(workloads::red::Red),
        Box::new(workloads::scan::ScanRss),
        Box::new(workloads::scan::ScanSsa),
        Box::new(workloads::sel::Sel),
        Box::new(workloads::spmv::Spmv),
        Box::new(workloads::trns::Trns),
        Box::new(workloads::ts::Ts),
        Box::new(workloads::uni::Uni),
        Box::new(workloads::va::Va),
    ]
}

/// The sparse BSR family: SpMV and SpMM over seeded block-sparse matrices.
#[must_use]
pub fn sparse_workloads() -> Vec<Box<dyn Workload>> {
    vec![Box::new(workloads::spmv_bsr::SpmvBsr), Box::new(workloads::spmm_bsr::SpmmBsr)]
}

/// The NN-inference family: quantized MLP and single-head attention,
/// each expressed as chained kernel launches with host-side staging.
#[must_use]
pub fn nn_workloads() -> Vec<Box<dyn Workload>> {
    vec![Box::new(workloads::mlp_q::MlpQ), Box::new(workloads::attn::Attn)]
}

/// Every registered workload: the 16 dense PrIM benchmarks followed by
/// the sparse and NN-inference extension families (20 total).
#[must_use]
pub fn extended_workloads() -> Vec<Box<dyn Workload>> {
    let mut all = all_workloads();
    all.extend(sparse_workloads());
    all.extend(nn_workloads());
    all
}

/// Looks up one workload by name or alias (case-insensitive), across all
/// families. Exact names win over aliases, so `"SpMV"` resolves to the
/// dense CSR kernel while `"SpMV-CSR"` is its unambiguous alias.
#[must_use]
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    let all = extended_workloads();
    if let Some(i) = all.iter().position(|w| w.name().eq_ignore_ascii_case(name)) {
        let mut all = all;
        return Some(all.swap_remove(i));
    }
    all.into_iter().find(|w| w.aliases().iter().any(|a| a.eq_ignore_ascii_case(name)))
}
