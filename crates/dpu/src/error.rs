//! Simulation errors.

use std::error::Error;
use std::fmt;

use pim_isa::AddressSpace;

/// A fatal error detected while simulating a kernel.
///
/// These correspond to conditions that would be undefined behaviour (or a
/// hardware fault) on the real device; the simulator reports them precisely
/// instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A memory access fell outside its address space.
    OutOfBounds {
        /// The address space violated.
        space: AddressSpace,
        /// First byte of the faulting access.
        addr: u32,
        /// Length of the faulting access.
        len: u32,
        /// The tasklet that faulted.
        tasklet: u32,
        /// The faulting program counter (instruction index).
        pc: u32,
    },
    /// A load/store or DMA violated its alignment requirement.
    Unaligned {
        /// First byte of the faulting access.
        addr: u32,
        /// Required alignment in bytes.
        align: u32,
        /// The tasklet that faulted.
        tasklet: u32,
        /// The faulting program counter.
        pc: u32,
    },
    /// The program counter left the loaded program.
    PcOutOfRange {
        /// The invalid program counter.
        pc: u32,
        /// The tasklet that faulted.
        tasklet: u32,
    },
    /// A DMA instruction executed under the cache-centric memory model,
    /// which has no scratchpad to stage into.
    DmaInCachedMode {
        /// The faulting program counter.
        pc: u32,
        /// The tasklet that faulted.
        tasklet: u32,
    },
    /// A DMA transfer had a non-positive length.
    BadDmaLength {
        /// The offending length value.
        len: i32,
        /// The tasklet that faulted.
        tasklet: u32,
        /// The faulting program counter.
        pc: u32,
    },
    /// An atomic-bit index computed at runtime was out of range.
    BadAtomicBit {
        /// The offending bit index.
        bit: u32,
        /// The tasklet that faulted.
        tasklet: u32,
        /// The faulting program counter.
        pc: u32,
    },
    /// The configured cycle limit was reached before all tasklets stopped
    /// (almost always a deadlocked or runaway kernel).
    CycleLimit {
        /// The cycle limit that was hit.
        limit: u64,
    },
    /// No program was loaded before launch.
    NoProgram,
    /// A host-side transfer named a DPU index outside the system
    /// (`try_copy_to_mram`/`try_copy_from_mram`).
    BadDpuIndex {
        /// The offending DPU index.
        dpu: u32,
        /// Number of DPUs in the system.
        n_dpus: u32,
    },
    /// A parallel host transfer supplied the wrong number of per-DPU
    /// chunks (`try_push_to_mram`/`try_push_to_symbol`) — under partial-rank
    /// scheduling a mis-sized batch must surface as an error, not an abort.
    ChunkCountMismatch {
        /// Chunks supplied by the caller.
        chunks: usize,
        /// DPUs in the system (one chunk per DPU is required).
        n_dpus: u32,
    },
    /// The `pim-ref` functional oracle disagreed with the simulator about
    /// the final architectural state (enabled by
    /// [`crate::DpuConfig::with_oracle_check`]).
    OracleDivergence {
        /// Human-readable description of the first divergence.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { space, addr, len, tasklet, pc } => write!(
                f,
                "tasklet {tasklet} @pc={pc}: {space} access of {len} bytes at {addr:#x} out of bounds"
            ),
            SimError::Unaligned { addr, align, tasklet, pc } => write!(
                f,
                "tasklet {tasklet} @pc={pc}: access at {addr:#x} violates {align}-byte alignment"
            ),
            SimError::PcOutOfRange { pc, tasklet } => {
                write!(f, "tasklet {tasklet}: program counter {pc} outside program")
            }
            SimError::DmaInCachedMode { pc, tasklet } => write!(
                f,
                "tasklet {tasklet} @pc={pc}: DMA instruction under the cache-centric memory model"
            ),
            SimError::BadDmaLength { len, tasklet, pc } => {
                write!(f, "tasklet {tasklet} @pc={pc}: bad DMA length {len}")
            }
            SimError::BadAtomicBit { bit, tasklet, pc } => {
                write!(f, "tasklet {tasklet} @pc={pc}: atomic bit {bit} out of range")
            }
            SimError::CycleLimit { limit } => {
                write!(f, "cycle limit of {limit} reached before all tasklets stopped")
            }
            SimError::NoProgram => write!(f, "no program loaded"),
            SimError::BadDpuIndex { dpu, n_dpus } => {
                write!(f, "DPU index {dpu} out of range (system has {n_dpus} DPUs)")
            }
            SimError::ChunkCountMismatch { chunks, n_dpus } => write!(
                f,
                "parallel transfer supplied {chunks} chunks for {n_dpus} DPUs (one chunk per DPU)"
            ),
            SimError::OracleDivergence { detail } => {
                write!(f, "functional-oracle divergence: {detail}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::OutOfBounds {
            space: AddressSpace::Wram,
            addr: 0x1_0000,
            len: 4,
            tasklet: 3,
            pc: 17,
        };
        let s = e.to_string();
        assert!(s.contains("tasklet 3"));
        assert!(s.contains("WRAM"));
        assert!(s.contains("0x10000"));
    }
}
