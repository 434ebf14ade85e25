//! Pre-decoded program side tables for simulator hot paths.
//!
//! The cycle loop in `pim-dpu` needs a handful of facts about the
//! instruction at each tasklet's PC every cycle: which registers it reads
//! (for the forwarding scoreboard), what it writes, its class, and its
//! register-file hazard cost. Re-deriving those from the [`Instruction`]
//! enum per cycle means a `match` plus a `Vec<Reg>` allocation in the
//! innermost loop. A [`DecodedProgram`] is built once at launch and
//! answers all of them with flat-array lookups.

use crate::instr::{InstrClass, Instruction};

/// Everything the issue/scoreboard path needs to know about one
/// instruction, pre-computed from the [`Instruction`] enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInstr {
    /// Bit `i` set when `r<i>` is a source ([`Instruction::src_mask`]).
    pub src_mask: u32,
    /// Destination register index, if the instruction writes one.
    pub dst: Option<u8>,
    /// Extra issue slots from same-bank register-file reads. Computed from
    /// the full source *list* — duplicate sources conflict with themselves
    /// even though they collapse to one bit in `src_mask`.
    pub rf_hazard: u8,
    /// Class for instruction-mix accounting.
    pub class: InstrClass,
    /// Blocking MRAM↔WRAM DMA ([`Instruction::is_dma`]).
    pub is_dma: bool,
    /// WRAM load — forwards at load latency rather than ALU latency.
    pub is_load: bool,
}

impl DecodedInstr {
    /// Decodes one instruction.
    #[must_use]
    pub fn new(instr: &Instruction) -> Self {
        DecodedInstr {
            src_mask: instr.src_mask(),
            dst: instr.dst().map(|r| r.index()),
            rf_hazard: instr.rf_hazard_cycles() as u8,
            class: instr.class(),
            is_dma: instr.is_dma(),
            is_load: matches!(instr, Instruction::Load { .. }),
        }
    }
}

/// Per-PC side table over a program's instruction stream, built once at
/// launch and indexed by instruction index in the cycle loop.
#[derive(Debug, Clone, Default)]
pub struct DecodedProgram {
    instrs: Vec<DecodedInstr>,
}

impl DecodedProgram {
    /// Decodes every instruction of a program.
    #[must_use]
    pub fn decode(instrs: &[Instruction]) -> Self {
        DecodedProgram { instrs: instrs.iter().map(DecodedInstr::new).collect() }
    }

    /// The decoded entry at instruction index `pc`, or `None` when the PC
    /// has run off the end of the program (mirrors `instrs.get(pc)` in the
    /// interpreter).
    #[must_use]
    pub fn get(&self, pc: u32) -> Option<&DecodedInstr> {
        self.instrs.get(pc as usize)
    }

    /// Number of decoded instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Basic-block structure over a program's instruction stream.
///
/// A *leader* starts a block: instruction 0, every static control-transfer
/// target, and every fall-through successor of a control transfer (or of
/// `stop`, which ends a tasklet). `jr` targets are runtime values, but they
/// can only be `jal` link addresses — and the instruction after a `jal` is
/// already a leader — so the static leader set covers every reachable block
/// entry. Blocks are the contiguous half-open spans between leaders.
///
/// The block map is the unit of the launch-time compiler in `pim-dpu`:
/// each block's instructions are compiled together into a span of the flat
/// op table, and `block_of` lets per-block artifacts (op spans, accounting
/// attribution) be looked up from any PC in one flat load.
#[derive(Debug, Clone, Default)]
pub struct BlockMap {
    /// `block_of[pc]` = id of the block containing `pc`.
    block_of: Vec<u32>,
    /// Per-block `[start, end)` instruction-index spans, in program order.
    spans: Vec<(u32, u32)>,
}

impl BlockMap {
    /// Builds the basic-block partition of an instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if the program has more than `u32::MAX` instructions (far
    /// beyond any IRAM).
    #[must_use]
    pub fn build(instrs: &[Instruction]) -> Self {
        let n = instrs.len();
        assert!(u32::try_from(n).is_ok(), "program too large for a block map");
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, instr) in instrs.iter().enumerate() {
            let target = match *instr {
                Instruction::Branch { target, .. }
                | Instruction::Jump { target }
                | Instruction::Jal { target, .. } => Some(target),
                _ => None,
            };
            if let Some(t) = target {
                if (t as usize) < n {
                    leader[t as usize] = true;
                }
            }
            let ends_block =
                target.is_some() || matches!(instr, Instruction::Jr { .. } | Instruction::Stop);
            if ends_block && pc + 1 < n {
                leader[pc + 1] = true;
            }
        }
        let mut block_of = vec![0u32; n];
        let mut spans: Vec<(u32, u32)> = Vec::new();
        for (pc, &lead) in leader.iter().enumerate() {
            if lead {
                if let Some(last) = spans.last_mut() {
                    last.1 = pc as u32;
                }
                spans.push((pc as u32, n as u32));
            }
            block_of[pc] = (spans.len() - 1) as u32;
        }
        BlockMap { block_of, spans }
    }

    /// The id of the basic block containing instruction index `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is outside the program.
    #[must_use]
    pub fn block_of(&self, pc: u32) -> u32 {
        self.block_of[pc as usize]
    }

    /// The `[start, end)` instruction-index span of block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn span(&self, block: u32) -> (u32, u32) {
        self.spans[block as usize]
    }

    /// Number of basic blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the program (and hence the block map) is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Cond, Operand, Width};
    use crate::reg::{rf_conflict_cycles, Reg};

    /// The decoder's oracle: a decoded entry agrees with the facts the
    /// enum derives.
    fn decoded_matches(d: &DecodedInstr, instr: &Instruction) -> bool {
        d.src_mask == instr.src_mask()
            && d.dst == instr.dst().map(|r| r.index())
            && u32::from(d.rf_hazard) == rf_conflict_cycles(&instr.srcs())
            && d.class == instr.class()
            && d.is_dma == instr.is_dma()
            && d.is_load == matches!(instr, Instruction::Load { .. })
    }

    fn sample_instrs() -> Vec<Instruction> {
        vec![
            Instruction::Alu {
                op: AluOp::Add,
                rd: Reg::r(4),
                ra: Reg::r(1),
                rb: Operand::Reg(Reg::r(2)),
            },
            // Duplicate source: mask has one bit, hazard still 1.
            Instruction::Alu {
                op: AluOp::Mul,
                rd: Reg::r(0),
                ra: Reg::r(6),
                rb: Operand::Reg(Reg::r(6)),
            },
            Instruction::Movi { rd: Reg::r(3), imm: -1 },
            Instruction::Tid { rd: Reg::r(0) },
            Instruction::Load {
                width: Width::Word,
                signed: false,
                rd: Reg::r(5),
                base: Reg::r(7),
                offset: 4,
            },
            Instruction::Store { width: Width::Byte, rs: Reg::r(2), base: Reg::r(9), offset: 0 },
            Instruction::Ldma { wram: Reg::r(0), mram: Reg::r(2), len: Operand::Reg(Reg::r(4)) },
            Instruction::Sdma { wram: Reg::r(1), mram: Reg::r(3), len: Operand::Imm(64) },
            Instruction::Branch { cond: Cond::Ne, ra: Reg::r(1), rb: Operand::Imm(0), target: 0 },
            Instruction::Jump { target: 2 },
            Instruction::Jal { rd: Reg::r(23), target: 1 },
            Instruction::Jr { ra: Reg::r(23) },
            Instruction::Acquire { bit: Operand::Reg(Reg::r(11)) },
            Instruction::Release { bit: Operand::Imm(3) },
            Instruction::Stop,
            Instruction::Nop,
        ]
    }

    #[test]
    fn decode_agrees_with_enum_for_every_shape() {
        let instrs = sample_instrs();
        let prog = DecodedProgram::decode(&instrs);
        assert_eq!(prog.len(), instrs.len());
        for (pc, instr) in instrs.iter().enumerate() {
            let d = prog.get(pc as u32).unwrap();
            assert!(decoded_matches(d, instr), "pc {pc}: {instr} decoded as {d:?}");
        }
        assert!(prog.get(instrs.len() as u32).is_none());
    }

    #[test]
    fn src_mask_matches_srcs_exhaustively() {
        for instr in sample_instrs() {
            let expect = instr.srcs().iter().fold(0u32, |m, r| m | (1 << r.index()));
            assert_eq!(instr.src_mask(), expect, "{instr}");
        }
    }

    #[test]
    fn duplicate_sources_keep_their_hazard() {
        let dup = Instruction::Alu {
            op: AluOp::Add,
            rd: Reg::r(0),
            ra: Reg::r(2),
            rb: Operand::Reg(Reg::r(2)),
        };
        let d = DecodedInstr::new(&dup);
        assert_eq!(d.src_mask.count_ones(), 1);
        assert_eq!(d.rf_hazard, 1, "same-bank self-conflict survives decoding");
    }

    #[test]
    fn empty_program_decodes_empty() {
        let prog = DecodedProgram::decode(&[]);
        assert!(prog.is_empty());
        assert!(prog.get(0).is_none());
    }

    #[test]
    fn block_map_partitions_at_control_transfers() {
        // 0: movi        — leader (entry)
        // 1: branch →4   — ends its block
        // 2: add         — leader (fall-through of branch)
        // 3: jump →0     — ends its block
        // 4: stop        — leader (branch target)
        let instrs = vec![
            Instruction::Movi { rd: Reg::r(0), imm: 1 },
            Instruction::Branch { cond: Cond::Eq, ra: Reg::r(0), rb: Operand::Imm(0), target: 4 },
            Instruction::Alu { op: AluOp::Add, rd: Reg::r(1), ra: Reg::r(0), rb: Operand::Imm(1) },
            Instruction::Jump { target: 0 },
            Instruction::Stop,
        ];
        let map = BlockMap::build(&instrs);
        assert_eq!(map.len(), 3);
        assert_eq!(map.span(0), (0, 2));
        assert_eq!(map.span(1), (2, 4));
        assert_eq!(map.span(2), (4, 5));
        assert_eq!(map.block_of(1), 0);
        assert_eq!(map.block_of(2), 1);
        assert_eq!(map.block_of(4), 2);
    }

    #[test]
    fn block_boundaries_cover_every_shape_in_the_sample() {
        let instrs = sample_instrs();
        let map = BlockMap::build(&instrs);
        assert!(!map.is_empty());
        // Spans tile the program exactly, in order.
        let mut next = 0u32;
        for b in 0..map.len() as u32 {
            let (start, end) = map.span(b);
            assert_eq!(start, next, "block {b} starts where the previous ended");
            assert!(end > start, "block {b} is non-empty");
            for pc in start..end {
                assert_eq!(map.block_of(pc), b);
            }
            next = end;
        }
        assert_eq!(next as usize, instrs.len());
    }

    #[test]
    fn empty_program_has_no_blocks() {
        assert!(BlockMap::build(&[]).is_empty());
    }
}
