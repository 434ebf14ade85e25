//! The workload implementations: the 16 dense PrIM benchmarks plus the
//! sparse BSR and quantized NN-inference extension families.
//!
//! Every module follows the same shape: a kernel builder (scratchpad
//! variant and, where supported, a cache-centric flat variant), host
//! orchestration, a seeded dataset generator, and a reference
//! implementation that validates the simulated output.

pub(crate) mod attn;
pub(crate) mod bfs;
pub(crate) mod bs;
pub(crate) mod gemv;
pub(crate) mod hst;
pub(crate) mod mlp;
pub(crate) mod mlp_q;
pub(crate) mod nw;
pub(crate) mod red;
pub(crate) mod scan;
pub(crate) mod sel;
pub(crate) mod spmm_bsr;
pub(crate) mod spmv;
pub(crate) mod spmv_bsr;
pub(crate) mod trns;
pub(crate) mod ts;
pub(crate) mod uni;
pub(crate) mod va;
