//! The DPU's physical memory layout.
//!
//! Mirroring Figure 3(c) of the paper, a DPU addresses four physically
//! distinct memories with **no address translation** (the device has no
//! MMU — the architectural implication explored in the paper's §V-C):
//!
//! * **IRAM** — 24 KB of instruction memory (4096 × 48-bit instructions);
//! * **WRAM** — 64 KB of SRAM scratchpad, the only memory reachable by
//!   load/store instructions;
//! * **MRAM** — the 64 MB DRAM bank, reachable only through DMA;
//! * the **atomic region** — 256 single-bit cells backing
//!   `acquire`/`release`.
//!
//! These capacities are one design point (Table I), so they are constants,
//! not configuration. A memory's bounds checks read the length of the
//! vector that backs it; only the MRAM bank is ever allocated smaller than
//! [`MRAM_BYTES`] (a many-DPU sweep shrinks it to fit host memory).
//!
//! # Example
//!
//! ```
//! use pim_isa::layout::{ATOMIC_BITS, IRAM_INSTRS, MRAM_BYTES, WRAM_BYTES};
//!
//! assert_eq!(IRAM_INSTRS, 4096);
//! assert_eq!(WRAM_BYTES, 64 * 1024);
//! assert_eq!(MRAM_BYTES, 64 * 1024 * 1024);
//! assert_eq!(ATOMIC_BITS, 256);
//! ```

use std::fmt;

/// IRAM capacity in bytes (Table I: 24 KB).
pub const IRAM_BYTES: u32 = 24 * 1024;

/// Architectural size of one encoded instruction in IRAM, in bytes.
///
/// The real device packs 48-bit instructions; IRAM capacity accounting uses
/// this size even though the simulator's in-memory encoding is 64-bit.
pub const IRAM_INSTR_BYTES: u32 = 6;

/// The number of whole instructions that fit in IRAM (4096).
pub const IRAM_INSTRS: u32 = IRAM_BYTES / IRAM_INSTR_BYTES;

/// WRAM (scratchpad) capacity in bytes (Table I: 64 KB).
pub const WRAM_BYTES: u32 = 64 * 1024;

/// MRAM (per-bank DRAM) capacity in bytes (Table I: 64 MB).
pub const MRAM_BYTES: u32 = 64 * 1024 * 1024;

/// Number of atomic bits (Table I: 256).
pub const ATOMIC_BITS: u32 = 256;

/// One of the DPU's physically distinct address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressSpace {
    /// Instruction memory.
    Iram,
    /// Scratchpad (working RAM).
    Wram,
    /// Per-bank DRAM (main RAM).
    Mram,
    /// The atomic bit region.
    Atomic,
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressSpace::Iram => write!(f, "IRAM"),
            AddressSpace::Wram => write!(f, "WRAM"),
            AddressSpace::Mram => write!(f, "MRAM"),
            AddressSpace::Atomic => write!(f, "atomic"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(AddressSpace::Iram.to_string(), "IRAM");
        assert_eq!(AddressSpace::Atomic.to_string(), "atomic");
    }
}
