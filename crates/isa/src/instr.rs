//! Instruction definitions, operand kinds, and instruction classification.
//!
//! The instruction set follows the shape of UPMEM's RISC ISA as described in
//! the paper (§II): scalar 32-bit ALU operations, WRAM-only loads/stores,
//! blocking DMA transfers between MRAM and WRAM, branches, and
//! `acquire`/`release` synchronization on the atomic memory region.

use std::fmt;

use crate::reg::{rf_conflict_cycles, Reg};

/// Arithmetic/logic operations available to [`Instruction::Alu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `rd = ra + rb`
    Add,
    /// `rd = ra - rb`
    Sub,
    /// `rd = ra & rb`
    And,
    /// `rd = ra | rb`
    Or,
    /// `rd = ra ^ rb`
    Xor,
    /// `rd = ra << (rb & 31)`
    Sll,
    /// `rd = (ra as u32) >> (rb & 31)`
    Srl,
    /// `rd = (ra as i32) >> (rb & 31)`
    Sra,
    /// `rd = low 32 bits of ra * rb`
    Mul,
    /// `rd = ra / rb` (signed; `rb == 0` yields 0, `MIN / -1` yields `MIN`)
    Div,
    /// `rd = ra % rb` (signed; `rb == 0` yields `ra`)
    Rem,
    /// `rd = (ra as i32) < (rb as i32)`
    Slt,
    /// `rd = (ra as u32) < (rb as u32)`
    Sltu,
    /// `rd = min(ra, rb)` (signed)
    Min,
    /// `rd = max(ra, rb)` (signed)
    Max,
}

impl AluOp {
    /// All ALU operations, in encoding order.
    pub const ALL: [AluOp; 15] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Min,
        AluOp::Max,
    ];

    /// The assembly mnemonic for this operation.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Min => "min",
            AluOp::Max => "max",
        }
    }

    /// Evaluates the operation on two 32-bit values.
    ///
    /// Division follows the conventions documented on [`AluOp::Div`] and
    /// [`AluOp::Rem`] so that execution can never trap.
    ///
    /// `#[inline]` so that a caller in another crate naming the operation
    /// as a constant (`AluOp::Add.eval(a, b)`) compiles to that one
    /// operation instead of a call into the full `match`.
    #[inline]
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        let (sa, sb) = (a as i32, b as i32);
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (sa.wrapping_shr(b & 31)) as u32,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if sb == 0 {
                    0
                } else {
                    sa.wrapping_div(sb) as u32
                }
            }
            AluOp::Rem => {
                if sb == 0 {
                    a
                } else {
                    sa.wrapping_rem(sb) as u32
                }
            }
            AluOp::Slt => u32::from(sa < sb),
            AluOp::Sltu => u32::from(a < b),
            AluOp::Min => sa.min(sb) as u32,
            AluOp::Max => sa.max(sb) as u32,
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Branch conditions for [`Instruction::Branch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `ra == rb`
    Eq,
    /// `ra != rb`
    Ne,
    /// `(ra as i32) < (rb as i32)`
    Lt,
    /// `(ra as i32) >= (rb as i32)`
    Ge,
    /// `(ra as u32) < (rb as u32)`
    Ltu,
    /// `(ra as u32) >= (rb as u32)`
    Geu,
}

impl Cond {
    /// All branch conditions, in encoding order.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];

    /// The assembly mnemonic (`beq`, `bne`, …).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Ltu => "bltu",
            Cond::Geu => "bgeu",
        }
    }

    /// Evaluates the condition (`#[inline]` for the same reason as
    /// [`AluOp::eval`]).
    #[inline]
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i32) < (b as i32),
            Cond::Ge => (a as i32) >= (b as i32),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Access width for WRAM loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    Byte,
    /// 2 bytes.
    Half,
    /// 4 bytes.
    Word,
}

impl Width {
    /// The access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Half => 2,
            Width::Word => 4,
        }
    }
}

/// A register-or-immediate operand.
///
/// # Example
///
/// ```
/// use pim_isa::{Operand, Reg};
///
/// assert_eq!(Operand::Reg(Reg::r(3)).to_string(), "r3");
/// assert_eq!(Operand::Imm(-7).to_string(), "-7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// The value of a general-purpose register.
    Reg(Reg),
    /// A sign-extended immediate.
    Imm(i32),
}

impl Operand {
    /// The register, if this operand is a register.
    #[must_use]
    pub(crate) fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    fn from(imm: i32) -> Self {
        Operand::Imm(imm)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// Instruction classes used for the paper's instruction-mix analysis (Fig 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// ALU operations, immediates, tasklet-id reads.
    Arithmetic,
    /// WRAM (scratchpad) loads and stores.
    LoadStore,
    /// MRAM↔WRAM DMA transfers.
    Dma,
    /// Branches, jumps, calls, indirect jumps.
    Control,
    /// `acquire`/`release` on the atomic region.
    Sync,
    /// `nop`, `stop`.
    Other,
}

impl InstrClass {
    /// All instruction classes, in reporting order.
    pub const ALL: [InstrClass; 6] = [
        InstrClass::Arithmetic,
        InstrClass::LoadStore,
        InstrClass::Dma,
        InstrClass::Control,
        InstrClass::Sync,
        InstrClass::Other,
    ];

    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InstrClass::Arithmetic => "arith",
            InstrClass::LoadStore => "ldst",
            InstrClass::Dma => "dma",
            InstrClass::Control => "ctrl",
            InstrClass::Sync => "sync",
            InstrClass::Other => "other",
        }
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A single DPU instruction.
///
/// Branch and jump targets are absolute IRAM *instruction indices* (the DPU
/// program counter advances by whole instructions, mirroring the fixed-width
/// 48-bit encoding of the real device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// ALU operation: `rd = op(ra, rb)`.
    Alu {
        /// Operation to perform.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        ra: Reg,
        /// Second source (register or immediate).
        rb: Operand,
    },
    /// Load a full 32-bit immediate: `rd = imm`.
    Movi {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: i32,
    },
    /// Read the executing tasklet's id: `rd = tasklet_id`.
    Tid {
        /// Destination register.
        rd: Reg,
    },
    /// WRAM load: `rd = wram[base + offset]`.
    Load {
        /// Access width.
        width: Width,
        /// Sign-extend sub-word loads (canonically `false` for [`Width::Word`]).
        signed: bool,
        /// Destination register.
        rd: Reg,
        /// Base address register (WRAM byte address).
        base: Reg,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// WRAM store: `wram[base + offset] = rs`.
    Store {
        /// Access width.
        width: Width,
        /// Source register providing the stored value.
        rs: Reg,
        /// Base address register (WRAM byte address).
        base: Reg,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// Blocking DMA read `MRAM → WRAM` (the SDK's `mram_read`).
    ///
    /// Transfers `len` bytes from the MRAM byte address in `mram` to the WRAM
    /// byte address in `wram`. The issuing tasklet blocks until completion.
    Ldma {
        /// Register holding the destination WRAM byte address.
        wram: Reg,
        /// Register holding the source MRAM byte address.
        mram: Reg,
        /// Transfer length in bytes (register or immediate).
        len: Operand,
    },
    /// Blocking DMA write `WRAM → MRAM` (the SDK's `mram_write`).
    Sdma {
        /// Register holding the source WRAM byte address.
        wram: Reg,
        /// Register holding the destination MRAM byte address.
        mram: Reg,
        /// Transfer length in bytes (register or immediate).
        len: Operand,
    },
    /// Conditional branch to the absolute instruction index `target`.
    Branch {
        /// Condition evaluated on `ra` and `rb`.
        cond: Cond,
        /// First comparison source.
        ra: Reg,
        /// Second comparison source (register, or immediate fitting `i16`).
        rb: Operand,
        /// Absolute IRAM instruction index to branch to when taken.
        target: u32,
    },
    /// Unconditional jump to the absolute instruction index `target`.
    Jump {
        /// Absolute IRAM instruction index.
        target: u32,
    },
    /// Call: `rd = pc + 1; pc = target`.
    Jal {
        /// Link register receiving the return address.
        rd: Reg,
        /// Absolute IRAM instruction index of the callee.
        target: u32,
    },
    /// Indirect jump: `pc = ra` (used for returns).
    Jr {
        /// Register holding the target instruction index.
        ra: Reg,
    },
    /// Acquire an atomic bit (test-and-set). If the bit is already set the
    /// instruction *retries*: the tasklet busy-waits, re-issuing `acquire`
    /// and consuming pipeline slots — the behaviour behind the paper's
    /// observation that `HST-L`/`TRNS` waste runtime on lock acquisition.
    Acquire {
        /// Atomic-bit index (register or immediate, 0..256).
        bit: Operand,
    },
    /// Release an atomic bit (clear).
    Release {
        /// Atomic-bit index (register or immediate, 0..256).
        bit: Operand,
    },
    /// Terminate the executing tasklet.
    Stop,
    /// No operation.
    Nop,
}

impl Instruction {
    /// The instruction class for instruction-mix accounting (paper Fig 9).
    #[must_use]
    pub fn class(&self) -> InstrClass {
        match self {
            Instruction::Alu { .. } | Instruction::Movi { .. } | Instruction::Tid { .. } => {
                InstrClass::Arithmetic
            }
            Instruction::Load { .. } | Instruction::Store { .. } => InstrClass::LoadStore,
            Instruction::Ldma { .. } | Instruction::Sdma { .. } => InstrClass::Dma,
            Instruction::Branch { .. }
            | Instruction::Jump { .. }
            | Instruction::Jal { .. }
            | Instruction::Jr { .. } => InstrClass::Control,
            Instruction::Acquire { .. } | Instruction::Release { .. } => InstrClass::Sync,
            Instruction::Stop | Instruction::Nop => InstrClass::Other,
        }
    }

    /// Source registers read by this instruction, in operand order.
    #[must_use]
    pub fn srcs(&self) -> Vec<Reg> {
        let mut out = Vec::with_capacity(3);
        match *self {
            Instruction::Alu { ra, rb, .. } => {
                out.push(ra);
                if let Operand::Reg(r) = rb {
                    out.push(r);
                }
            }
            Instruction::Load { base, .. } => out.push(base),
            Instruction::Store { rs, base, .. } => {
                out.push(rs);
                out.push(base);
            }
            Instruction::Ldma { wram, mram, len } | Instruction::Sdma { wram, mram, len } => {
                out.push(wram);
                out.push(mram);
                if let Operand::Reg(r) = len {
                    out.push(r);
                }
            }
            Instruction::Branch { ra, rb, .. } => {
                out.push(ra);
                if let Operand::Reg(r) = rb {
                    out.push(r);
                }
            }
            Instruction::Jr { ra } => out.push(ra),
            Instruction::Acquire { bit } | Instruction::Release { bit } => {
                if let Operand::Reg(r) = bit {
                    out.push(r);
                }
            }
            Instruction::Movi { .. }
            | Instruction::Tid { .. }
            | Instruction::Jump { .. }
            | Instruction::Jal { .. }
            | Instruction::Stop
            | Instruction::Nop => {}
        }
        out
    }

    /// Bitmask of source registers read by this instruction: bit `i` is set
    /// when `r<i>` appears in [`Instruction::srcs`].
    ///
    /// Allocation-free companion to `srcs()` for hot-path scoreboard checks.
    /// Duplicate sources collapse to a single bit, so register-file conflict
    /// accounting must keep using [`Instruction::rf_hazard_cycles`] (e.g.
    /// `add r0, r0, r0` has two even-bank reads but a one-bit mask).
    #[must_use]
    pub fn src_mask(&self) -> u32 {
        let bit = |r: Reg| 1u32 << r.index();
        let op_bit = |o: Operand| o.as_reg().map_or(0, bit);
        match *self {
            Instruction::Alu { ra, rb, .. } | Instruction::Branch { ra, rb, .. } => {
                bit(ra) | op_bit(rb)
            }
            Instruction::Load { base, .. } => bit(base),
            Instruction::Store { rs, base, .. } => bit(rs) | bit(base),
            Instruction::Ldma { wram, mram, len } | Instruction::Sdma { wram, mram, len } => {
                bit(wram) | bit(mram) | op_bit(len)
            }
            Instruction::Jr { ra } => bit(ra),
            Instruction::Acquire { bit: b } | Instruction::Release { bit: b } => op_bit(b),
            Instruction::Movi { .. }
            | Instruction::Tid { .. }
            | Instruction::Jump { .. }
            | Instruction::Jal { .. }
            | Instruction::Stop
            | Instruction::Nop => 0,
        }
    }

    /// The destination register written by this instruction, if any.
    #[must_use]
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Instruction::Alu { rd, .. }
            | Instruction::Movi { rd, .. }
            | Instruction::Tid { rd }
            | Instruction::Load { rd, .. }
            | Instruction::Jal { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Extra register-file read cycles incurred by this instruction on the
    /// split even/odd register file (see [`crate::reg::rf_conflict_cycles`]).
    #[must_use]
    pub fn rf_hazard_cycles(&self) -> u32 {
        rf_conflict_cycles(&self.srcs())
    }

    /// Whether this instruction blocks the tasklet on the memory system
    /// (DMA transfers in the baseline scratchpad-centric model).
    #[must_use]
    pub fn is_dma(&self) -> bool {
        matches!(self, Instruction::Ldma { .. } | Instruction::Sdma { .. })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Alu { op, rd, ra, rb } => write!(f, "{op} {rd}, {ra}, {rb}"),
            Instruction::Movi { rd, imm } => write!(f, "movi {rd}, {imm}"),
            Instruction::Tid { rd } => write!(f, "tid {rd}"),
            Instruction::Load { width, signed, rd, base, offset } => {
                let m = match (width, signed) {
                    (Width::Byte, false) => "lbu",
                    (Width::Byte, true) => "lb",
                    (Width::Half, false) => "lhu",
                    (Width::Half, true) => "lh",
                    (Width::Word, _) => "lw",
                };
                write!(f, "{m} {rd}, {offset}({base})")
            }
            Instruction::Store { width, rs, base, offset } => {
                let m = match width {
                    Width::Byte => "sb",
                    Width::Half => "sh",
                    Width::Word => "sw",
                };
                write!(f, "{m} {rs}, {offset}({base})")
            }
            Instruction::Ldma { wram, mram, len } => write!(f, "ldma {wram}, {mram}, {len}"),
            Instruction::Sdma { wram, mram, len } => write!(f, "sdma {wram}, {mram}, {len}"),
            Instruction::Branch { cond, ra, rb, target } => {
                write!(f, "{cond} {ra}, {rb}, {target}")
            }
            Instruction::Jump { target } => write!(f, "jump {target}"),
            Instruction::Jal { rd, target } => write!(f, "jal {rd}, {target}"),
            Instruction::Jr { ra } => write!(f, "jr {ra}"),
            Instruction::Acquire { bit } => write!(f, "acquire {bit}"),
            Instruction::Release { bit } => write!(f, "release {bit}"),
            Instruction::Stop => write!(f, "stop"),
            Instruction::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(3, 4), 7);
        assert_eq!(AluOp::Sub.eval(3, 4), (-1i32) as u32);
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Sll.eval(1, 4), 16);
        assert_eq!(AluOp::Srl.eval(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Sra.eval(0x8000_0000, 31), 0xFFFF_FFFF);
        assert_eq!(AluOp::Mul.eval(7, 6), 42);
        assert_eq!(AluOp::Slt.eval((-1i32) as u32, 0), 1);
        assert_eq!(AluOp::Sltu.eval((-1i32) as u32, 0), 0);
        assert_eq!(AluOp::Min.eval((-5i32) as u32, 3), (-5i32) as u32);
        assert_eq!(AluOp::Max.eval((-5i32) as u32, 3), 3);
    }

    #[test]
    fn alu_eval_division_never_traps() {
        assert_eq!(AluOp::Div.eval(10, 0), 0);
        assert_eq!(AluOp::Rem.eval(10, 0), 10);
        assert_eq!(AluOp::Div.eval(i32::MIN as u32, (-1i32) as u32), i32::MIN as u32);
        assert_eq!(AluOp::Rem.eval(i32::MIN as u32, (-1i32) as u32), 0);
        assert_eq!(AluOp::Div.eval((-9i32) as u32, 2), (-4i32) as u32);
        assert_eq!(AluOp::Rem.eval((-9i32) as u32, 2), (-1i32) as u32);
    }

    #[test]
    fn shift_amount_is_masked() {
        assert_eq!(AluOp::Sll.eval(1, 32), 1);
        assert_eq!(AluOp::Srl.eval(2, 33), 1);
    }

    #[test]
    fn srcs_and_dst() {
        let i = Instruction::Alu {
            op: AluOp::Add,
            rd: Reg::r(4),
            ra: Reg::r(1),
            rb: Operand::Reg(Reg::r(2)),
        };
        assert_eq!(i.srcs(), vec![Reg::r(1), Reg::r(2)]);
        assert_eq!(i.dst(), Some(Reg::r(4)));

        let s =
            Instruction::Store { width: Width::Word, rs: Reg::r(3), base: Reg::r(5), offset: 8 };
        assert_eq!(s.srcs(), vec![Reg::r(3), Reg::r(5)]);
        assert_eq!(s.dst(), None);

        let d =
            Instruction::Ldma { wram: Reg::r(0), mram: Reg::r(2), len: Operand::Reg(Reg::r(4)) };
        assert_eq!(d.srcs().len(), 3);
        // three even-bank sources: two extra RF cycles.
        assert_eq!(d.rf_hazard_cycles(), 2);
    }

    #[test]
    fn classes() {
        assert_eq!(Instruction::Nop.class(), InstrClass::Other);
        assert_eq!(Instruction::Stop.class(), InstrClass::Other);
        assert_eq!(Instruction::Tid { rd: Reg::r(0) }.class(), InstrClass::Arithmetic);
        assert_eq!(Instruction::Acquire { bit: Operand::Imm(1) }.class(), InstrClass::Sync);
        assert_eq!(Instruction::Jump { target: 0 }.class(), InstrClass::Control);
        assert_eq!(
            Instruction::Ldma { wram: Reg::r(0), mram: Reg::r(1), len: Operand::Imm(64) }.class(),
            InstrClass::Dma
        );
    }

    #[test]
    fn display_round_readable() {
        let i = Instruction::Load {
            width: Width::Half,
            signed: true,
            rd: Reg::r(7),
            base: Reg::r(8),
            offset: -4,
        };
        assert_eq!(i.to_string(), "lh r7, -4(r8)");
        let b = Instruction::Branch {
            cond: Cond::Ltu,
            ra: Reg::r(1),
            rb: Operand::Imm(10),
            target: 42,
        };
        assert_eq!(b.to_string(), "bltu r1, 10, 42");
    }

    #[test]
    fn operand_conversions() {
        let o: Operand = Reg::r(3).into();
        assert_eq!(o.as_reg(), Some(Reg::r(3)));
        let i: Operand = 5.into();
        assert_eq!(i.as_reg(), None);
    }
}
