//! The linked program artifact loaded onto a DPU.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use pim_isa::layout::{ATOMIC_BITS, IRAM_INSTRS, WRAM_BYTES};
use pim_isa::{AddressSpace, Instruction, Operand};

/// A named location in one of the DPU's address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Symbol {
    /// Byte address within `space` (for IRAM: instruction index × 6).
    pub addr: u32,
    /// Size in bytes.
    pub size: u32,
    /// The address space the symbol lives in.
    pub space: AddressSpace,
}

/// Options controlling the final link step.
///
/// The deliberately relaxable capacity checks are the feature that
/// distinguishes this linker from the stock SDK linker (paper §III-A): the
/// cache-vs-scratchpad case study (§V-D) *requires* linking programs whose
/// WRAM data image exceeds the physical 64 KB scratchpad, which the
/// cache-centric DPU model then backs with DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkOptions {
    /// Permit the WRAM data image to exceed the physical WRAM capacity
    /// (cache-centric mode re-maps it onto DRAM).
    pub allow_wram_overflow: bool,
}

/// An error detected while finalizing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The text section exceeds IRAM capacity.
    IramOverflow {
        /// Instructions in the program.
        instrs: usize,
        /// Instructions that fit in IRAM.
        capacity: u32,
    },
    /// The data image exceeds WRAM capacity (and overflow is not allowed).
    WramOverflow {
        /// Bytes in the data image.
        bytes: u32,
        /// WRAM capacity in bytes.
        capacity: u32,
    },
    /// A control-transfer target lies outside the program.
    BadTarget {
        /// Index of the offending instruction.
        at: usize,
        /// The out-of-range target.
        target: u32,
    },
    /// An atomic-bit operand is out of range.
    BadAtomicBit {
        /// Index of the offending instruction.
        at: usize,
        /// The out-of-range bit index.
        bit: i32,
    },
    /// A branch immediate comparison operand does not fit the encoding.
    BranchImmOverflow {
        /// Index of the offending instruction.
        at: usize,
        /// The immediate that does not fit `i16`.
        imm: i32,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::IramOverflow { instrs, capacity } => write!(
                f,
                "text section of {instrs} instructions exceeds IRAM capacity of {capacity}"
            ),
            LinkError::WramOverflow { bytes, capacity } => {
                write!(f, "data image of {bytes} bytes exceeds WRAM capacity of {capacity} bytes")
            }
            LinkError::BadTarget { at, target } => {
                write!(f, "instruction {at}: branch target {target} out of range")
            }
            LinkError::BadAtomicBit { at, bit } => {
                write!(f, "instruction {at}: atomic bit {bit} out of range")
            }
            LinkError::BranchImmOverflow { at, imm } => {
                write!(f, "instruction {at}: branch immediate {imm} does not fit i16")
            }
        }
    }
}

impl Error for LinkError {}

/// A linked DPU program: the IRAM instruction stream, the initial WRAM data
/// image, and the symbol table the host uses to address named buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpuProgram {
    /// The instruction stream, loaded at IRAM index 0; execution of every
    /// tasklet begins at index 0.
    pub instrs: Vec<Instruction>,
    /// Initial WRAM contents, loaded at `wram_base`.
    pub wram_init: Vec<u8>,
    /// Base WRAM address of `wram_init`.
    pub wram_base: u32,
    /// Named locations (host-visible variables, buffers).
    pub symbols: BTreeMap<String, Symbol>,
    /// First WRAM byte past the static data: base of the runtime heap
    /// (the `mem_alloc` region of the SDK).
    pub heap_base: u32,
    /// First atomic-bit index the program allocates from (0 unless built
    /// with [`crate::KernelBuilder::with_partition`]).
    pub atomic_base: u32,
    /// Number of atomic bits the program allocated (0 for hand-assembled
    /// programs, which use explicit immediates).
    pub atomic_bits_used: u32,
}

impl DpuProgram {
    /// Looks up a symbol by name.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.get(name)
    }

    /// IRAM footprint in bytes (6 architectural bytes per instruction).
    #[must_use]
    pub fn iram_bytes(&self) -> u32 {
        self.instrs.len() as u32 * pim_isa::layout::IRAM_INSTR_BYTES
    }

    /// WRAM footprint in bytes (static data only; the heap grows past it).
    #[must_use]
    pub fn wram_bytes(&self) -> u32 {
        self.wram_base + self.wram_init.len() as u32
    }

    /// Validates the program against the memory capacities of
    /// [`pim_isa::layout`] (WRAM relaxable through `opts`) and the encoding
    /// limits. Run by [`crate::KernelBuilder::build`] and [`crate::assemble`];
    /// call directly when constructing programs by hand.
    ///
    /// # Errors
    ///
    /// Returns the first [`LinkError`] found.
    pub(crate) fn validate(&self, opts: &LinkOptions) -> Result<(), LinkError> {
        if self.instrs.len() as u32 > IRAM_INSTRS {
            return Err(LinkError::IramOverflow {
                instrs: self.instrs.len(),
                capacity: IRAM_INSTRS,
            });
        }
        if !opts.allow_wram_overflow && self.wram_bytes() > WRAM_BYTES {
            return Err(LinkError::WramOverflow { bytes: self.wram_bytes(), capacity: WRAM_BYTES });
        }
        let n = self.instrs.len() as u32;
        for (at, i) in self.instrs.iter().enumerate() {
            match *i {
                Instruction::Branch { rb, target, .. } => {
                    if target >= n {
                        return Err(LinkError::BadTarget { at, target });
                    }
                    if let Operand::Imm(imm) = rb {
                        if i16::try_from(imm).is_err() {
                            return Err(LinkError::BranchImmOverflow { at, imm });
                        }
                    }
                }
                Instruction::Jump { target } | Instruction::Jal { target, .. } if target >= n => {
                    return Err(LinkError::BadTarget { at, target });
                }
                Instruction::Acquire { bit: Operand::Imm(b) }
                | Instruction::Release { bit: Operand::Imm(b) }
                    if !(0..i64::from(ATOMIC_BITS)).contains(&i64::from(b)) =>
                {
                    return Err(LinkError::BadAtomicBit { at, bit: b });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::{Cond, Reg};

    fn program_with(instrs: Vec<Instruction>) -> DpuProgram {
        DpuProgram { instrs, ..DpuProgram::default() }
    }

    #[test]
    fn validate_accepts_simple_program() {
        let p = program_with(vec![Instruction::Movi { rd: Reg::r(0), imm: 3 }, Instruction::Stop]);
        assert!(p.validate(&LinkOptions::default()).is_ok());
    }

    #[test]
    fn validate_rejects_iram_overflow() {
        let p = program_with(vec![Instruction::Nop; 4097]);
        match p.validate(&LinkOptions::default()) {
            Err(LinkError::IramOverflow { instrs: 4097, capacity: 4096 }) => {}
            other => panic!("expected IRAM overflow, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_wram_overflow_unless_allowed() {
        let p = DpuProgram {
            instrs: vec![Instruction::Stop],
            wram_init: vec![0; 65 * 1024],
            ..DpuProgram::default()
        };
        assert!(matches!(p.validate(&LinkOptions::default()), Err(LinkError::WramOverflow { .. })));
        let relaxed = LinkOptions { allow_wram_overflow: true };
        assert!(p.validate(&relaxed).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_target() {
        let p = program_with(vec![Instruction::Jump { target: 5 }]);
        assert!(matches!(
            p.validate(&LinkOptions::default()),
            Err(LinkError::BadTarget { at: 0, target: 5 })
        ));
    }

    #[test]
    fn validate_rejects_wide_branch_imm() {
        let p = program_with(vec![
            Instruction::Branch {
                cond: Cond::Eq,
                ra: Reg::r(0),
                rb: Operand::Imm(100_000),
                target: 0,
            },
            Instruction::Stop,
        ]);
        assert!(matches!(
            p.validate(&LinkOptions::default()),
            Err(LinkError::BranchImmOverflow { at: 0, imm: 100_000 })
        ));
    }

    #[test]
    fn validate_rejects_bad_atomic_bit() {
        let p =
            program_with(vec![Instruction::Acquire { bit: Operand::Imm(300) }, Instruction::Stop]);
        assert!(matches!(
            p.validate(&LinkOptions::default()),
            Err(LinkError::BadAtomicBit { at: 0, bit: 300 })
        ));
    }

    #[test]
    fn footprints() {
        let p = DpuProgram {
            instrs: vec![Instruction::Nop; 10],
            wram_init: vec![0; 100],
            wram_base: 8,
            ..DpuProgram::default()
        };
        assert_eq!(p.iram_bytes(), 60);
        assert_eq!(p.wram_bytes(), 108);
    }
}
