//! Delta-debugging shrinker: reduces a failing case to a minimal repro
//! that still breaks the *same* invariant.
//!
//! Reduction passes run in decreasing granularity — whole basic blocks,
//! then ddmin over instruction chunks, then single instructions, then
//! operand simplification, then the tasklet count. Every candidate is
//! re-run through the full gauntlet; it is accepted only when it fails
//! with the original invariant (a candidate that turns
//! [`CheckOutcome::Invalid`] — e.g. because the cut removed `stop` — is
//! rejected automatically, so the shrinker never has to reason about
//! well-formedness itself).
//!
//! Removing instructions shifts branch targets, so every cut remaps
//! numeric targets: targets past the cut slide down, targets into the
//! cut clamp to the cut point.

use crate::gauntlet::{run_gauntlet, CheckOutcome, Invariant};
use crate::FuzzCase;
use pim_isa::Instruction;

/// Default gauntlet-evaluation budget for one shrink.
pub(crate) const DEFAULT_SHRINK_EVALS: u32 = 400;

/// Remaps one branch target across the removal of `[lo, hi)`.
fn remap_target(t: u32, lo: u32, hi: u32) -> u32 {
    if t >= hi {
        t - (hi - lo)
    } else if t >= lo {
        lo
    } else {
        t
    }
}

/// The instruction stream with `[lo, hi)` removed and all control-flow
/// targets remapped.
fn remove_range(instrs: &[Instruction], lo: u32, hi: u32) -> Vec<Instruction> {
    instrs
        .iter()
        .enumerate()
        .filter(|(i, _)| (*i as u32) < lo || (*i as u32) >= hi)
        .map(|(_, ins)| match *ins {
            Instruction::Branch { cond, ra, rb, target } => {
                Instruction::Branch { cond, ra, rb, target: remap_target(target, lo, hi) }
            }
            Instruction::Jump { target } => {
                Instruction::Jump { target: remap_target(target, lo, hi) }
            }
            Instruction::Jal { rd, target } => {
                Instruction::Jal { rd, target: remap_target(target, lo, hi) }
            }
            other => other,
        })
        .collect()
}

/// Basic-block leader set: entry, every branch/jump/call target, and
/// every instruction after a control transfer.
fn block_boundaries(instrs: &[Instruction]) -> Vec<u32> {
    let n = instrs.len() as u32;
    let mut leaders = vec![false; instrs.len() + 1];
    leaders[0] = true;
    for (i, ins) in instrs.iter().enumerate() {
        match *ins {
            Instruction::Branch { target, .. }
            | Instruction::Jump { target }
            | Instruction::Jal { target, .. } => {
                if target <= n {
                    leaders[target as usize] = true;
                }
                leaders[i + 1] = true;
            }
            Instruction::Jr { .. } | Instruction::Stop => leaders[i + 1] = true,
            _ => {}
        }
    }
    (0..=n).filter(|&i| i == n || leaders[i as usize]).collect()
}

struct Shrinker {
    invariant: Invariant,
    evals: u32,
    budget: u32,
}

impl Shrinker {
    /// Whether `candidate` still fails with the original invariant.
    fn reproduces(&mut self, candidate: &FuzzCase) -> bool {
        if self.evals >= self.budget {
            return false;
        }
        self.evals += 1;
        matches!(run_gauntlet(candidate),
                 CheckOutcome::Fail(f) if f.invariant == self.invariant)
    }

    fn with_instrs(case: &FuzzCase, instrs: Vec<Instruction>) -> FuzzCase {
        let mut next = case.clone();
        next.program.instrs = instrs;
        next
    }

    /// One pass of range removals at block granularity.
    fn shrink_blocks(&mut self, case: &mut FuzzCase) {
        loop {
            let bounds = block_boundaries(&case.program.instrs);
            let mut removed = false;
            // Later blocks first: epilogue noise goes cheaply.
            for w in bounds.windows(2).rev() {
                let (lo, hi) = (w[0], w[1]);
                if hi == lo {
                    continue;
                }
                let candidate = Self::with_instrs(case, remove_range(&case.program.instrs, lo, hi));
                if self.reproduces(&candidate) {
                    *case = candidate;
                    removed = true;
                    break;
                }
                if self.evals >= self.budget {
                    return;
                }
            }
            if !removed {
                return;
            }
        }
    }

    /// Classic ddmin over instruction chunks, halving the chunk size down
    /// to single instructions.
    fn shrink_instrs(&mut self, case: &mut FuzzCase) {
        let mut chunk = (case.program.instrs.len() / 2).max(1) as u32;
        loop {
            let mut lo = 0u32;
            let mut removed_any = false;
            while (lo as usize) < case.program.instrs.len() {
                let hi = (lo + chunk).min(case.program.instrs.len() as u32);
                let candidate = Self::with_instrs(case, remove_range(&case.program.instrs, lo, hi));
                if self.reproduces(&candidate) {
                    *case = candidate;
                    removed_any = true;
                    // Same lo: the next chunk slid into place.
                } else {
                    lo = hi;
                }
                if self.evals >= self.budget {
                    return;
                }
            }
            if chunk == 1 && !removed_any {
                return;
            }
            if !removed_any {
                chunk = (chunk / 2).max(1);
            }
        }
    }

    /// Operand-level simplification: immediates to zero, register
    /// operands to immediates, offsets to zero, DMA lengths to the
    /// minimum transfer.
    fn shrink_operands(&mut self, case: &mut FuzzCase) {
        use pim_isa::Operand;
        for i in 0..case.program.instrs.len() {
            let ins = case.program.instrs[i];
            let mut candidates: Vec<Instruction> = Vec::new();
            match ins {
                Instruction::Alu { op, rd, ra, rb } if rb != Operand::Imm(0) => {
                    candidates.push(Instruction::Alu { op, rd, ra, rb: Operand::Imm(0) });
                }
                Instruction::Movi { rd, imm } if imm != 0 => {
                    candidates.push(Instruction::Movi { rd, imm: 0 });
                }
                Instruction::Load { width, signed, rd, base, offset } if offset != 0 => {
                    candidates.push(Instruction::Load { width, signed, rd, base, offset: 0 });
                }
                Instruction::Store { width, rs, base, offset } if offset != 0 => {
                    candidates.push(Instruction::Store { width, rs, base, offset: 0 });
                }
                Instruction::Ldma { wram, mram, len } if len != Operand::Imm(8) => {
                    candidates.push(Instruction::Ldma { wram, mram, len: Operand::Imm(8) });
                }
                Instruction::Sdma { wram, mram, len } if len != Operand::Imm(8) => {
                    candidates.push(Instruction::Sdma { wram, mram, len: Operand::Imm(8) });
                }
                Instruction::Branch { cond, ra, rb, target } if rb != Operand::Imm(0) => {
                    candidates.push(Instruction::Branch { cond, ra, rb: Operand::Imm(0), target });
                }
                _ => {}
            }
            for candidate_instr in candidates {
                let mut instrs = case.program.instrs.clone();
                instrs[i] = candidate_instr;
                let candidate = Self::with_instrs(case, instrs);
                if self.reproduces(&candidate) {
                    *case = candidate;
                    break;
                }
                if self.evals >= self.budget {
                    return;
                }
            }
        }
    }

    /// Tasklet-count reduction (1, 2, 4, … below the current count).
    fn shrink_tasklets(&mut self, case: &mut FuzzCase) {
        for n in [1u32, 2, 4, 8] {
            if n >= case.tasklets {
                break;
            }
            let mut candidate = case.clone();
            candidate.tasklets = n;
            if self.reproduces(&candidate) {
                *case = candidate;
                return;
            }
            if self.evals >= self.budget {
                return;
            }
        }
    }
}

/// Shrinks `case` (which fails with `invariant`) to a smaller case that
/// fails the same way, within `budget` gauntlet evaluations. Returns the
/// input unchanged when nothing smaller reproduces.
#[must_use]
pub fn shrink(case: &FuzzCase, invariant: Invariant, budget: u32) -> FuzzCase {
    let mut best = case.clone();
    let mut s = Shrinker { invariant, evals: 0, budget };
    s.shrink_blocks(&mut best);
    s.shrink_instrs(&mut best);
    s.shrink_operands(&mut best);
    s.shrink_tasklets(&mut best);
    best.label = format!("{} (shrunk from {} instrs)", case.label, case.program.instrs.len());
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::{AluOp, Cond, Operand, Reg};

    #[test]
    fn target_remap_slides_and_clamps() {
        assert_eq!(remap_target(10, 2, 5), 7);
        assert_eq!(remap_target(3, 2, 5), 2);
        assert_eq!(remap_target(1, 2, 5), 1);
    }

    #[test]
    fn remove_range_adjusts_branches() {
        let instrs = vec![
            Instruction::Nop,
            Instruction::Nop,
            Instruction::Branch { cond: Cond::Ne, ra: Reg::r(0), rb: Operand::Imm(0), target: 4 },
            Instruction::Nop,
            Instruction::Stop,
        ];
        let out = remove_range(&instrs, 0, 2);
        assert_eq!(out.len(), 3);
        match out[0] {
            Instruction::Branch { target, .. } => assert_eq!(target, 2),
            ref other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn block_boundaries_cover_the_program() {
        let instrs = vec![
            Instruction::Movi { rd: Reg::r(0), imm: 3 },
            Instruction::Alu { op: AluOp::Sub, rd: Reg::r(0), ra: Reg::r(0), rb: Operand::Imm(1) },
            Instruction::Branch { cond: Cond::Ne, ra: Reg::r(0), rb: Operand::Imm(0), target: 1 },
            Instruction::Stop,
        ];
        let bounds = block_boundaries(&instrs);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&4));
        assert!(bounds.contains(&1), "branch target starts a block: {bounds:?}");
        assert!(bounds.contains(&3), "post-branch fallthrough starts a block: {bounds:?}");
    }
}
