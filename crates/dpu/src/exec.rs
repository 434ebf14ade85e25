//! Architectural state and functional (execute-at-issue) instruction
//! semantics, shared by the scalar and SIMT front-ends.

use pim_isa::layout::{ATOMIC_BITS, MRAM_BYTES, WRAM_BYTES};
use pim_isa::{AddressSpace, InstrClass, Instruction, Operand, Reg, Width};
use pim_trace::{TraceEvent, TraceSink};

use crate::error::SimError;

/// What happened when an instruction executed, for the scheduler to act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Fall through to the next instruction.
    Advance,
    /// Control transfer to an absolute instruction index.
    Jump(u32),
    /// `acquire` failed: the tasklet busy-waits (PC unchanged, instruction
    /// still counts as executed — it occupied a pipeline slot).
    AcquireRetry,
    /// A DMA transfer was initiated (functional copy already performed);
    /// the tasklet blocks until the memory engine completes it.
    Dma {
        /// MRAM byte address.
        mram: u32,
        /// Transfer length in bytes.
        len: u32,
        /// `true` for WRAM→MRAM (`sdma`).
        write: bool,
    },
    /// The tasklet terminated.
    Stop,
}

/// The DPU's architectural state: memories and per-tasklet register files.
/// Every bounds check reads the length of the memory it checks.
#[derive(Debug)]
pub(crate) struct ArchState {
    /// Scratchpad contents: the load/store-addressable space. In
    /// cache-centric mode this is the *flat* data space (may exceed the
    /// physical 64 KB WRAM).
    pub wram: Vec<u8>,
    /// Per-bank DRAM contents.
    pub mram: Vec<u8>,
    /// The atomic bit region.
    pub atomic: Vec<bool>,
    /// Per-tasklet register files.
    pub regs: Vec<[u32; 24]>,
    /// Per-tasklet program counters.
    pub pc: Vec<u32>,
    /// Per-tasklet tasklet-id rebase (multi-tenant co-location: each tenant
    /// observes ids `0..n`). Zero for single-tenant runs.
    pub tid_base: Vec<u32>,
}

impl ArchState {
    /// Zeroed memories of Table I's sizes. The 64 MB bank is one zeroed
    /// allocation, never resized, filled or cloned here: the allocator
    /// hands a request that large fresh mapped pages, so the host pays
    /// only for the MRAM pages a run writes.
    pub(crate) fn new(n_tasklets: u32) -> Self {
        ArchState {
            wram: vec![0; WRAM_BYTES as usize],
            mram: vec![0; MRAM_BYTES as usize],
            atomic: vec![false; ATOMIC_BITS as usize],
            regs: vec![[0; 24]; n_tasklets as usize],
            pc: vec![0; n_tasklets as usize],
            tid_base: vec![0; n_tasklets as usize],
        }
    }

    #[inline]
    pub(crate) fn reg(&self, tasklet: u32, r: Reg) -> u32 {
        self.regs[tasklet as usize][r.index() as usize]
    }

    #[inline]
    pub(crate) fn set_reg(&mut self, tasklet: u32, r: Reg, v: u32) {
        self.regs[tasklet as usize][r.index() as usize] = v;
    }

    #[inline]
    pub(crate) fn operand(&self, tasklet: u32, op: Operand) -> u32 {
        match op {
            Operand::Reg(r) => self.reg(tasklet, r),
            Operand::Imm(i) => i as u32,
        }
    }

    /// What a retired instruction emits into an enabled `sink`: its
    /// `InstrRetire`, then the barrier event of an `acquire` / `release`.
    /// The caller — either loop, or the SIMT step — brings its own cycle,
    /// tasklet, pc and class, whether an `acquire` `retried` (found its bit
    /// taken), and has executed `instr` on this state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn trace_retire<S: TraceSink>(
        &self,
        sink: &mut S,
        cycle: u64,
        tasklet: u32,
        pc: u32,
        class: InstrClass,
        instr: &Instruction,
        retried: bool,
    ) {
        sink.emit(TraceEvent::InstrRetire { cycle, tasklet, pc, class });
        match *instr {
            Instruction::Acquire { bit } => sink.emit(TraceEvent::BarrierAcquire {
                cycle,
                tasklet,
                bit: self.operand(tasklet, bit),
                acquired: !retried,
            }),
            Instruction::Release { bit } => sink.emit(TraceEvent::BarrierRelease {
                cycle,
                tasklet,
                bit: self.operand(tasklet, bit),
            }),
            _ => {}
        }
    }

    /// The effective address of a load/store for `tasklet`, if the
    /// instruction is one. Used by the cache-centric front-end to consult
    /// the data cache before execution.
    pub(crate) fn ls_addr(&self, tasklet: u32, instr: &Instruction) -> Option<(u32, bool)> {
        match *instr {
            Instruction::Load { base, offset, .. } => {
                Some((self.reg(tasklet, base).wrapping_add(offset as u32), false))
            }
            Instruction::Store { base, offset, .. } => {
                Some((self.reg(tasklet, base).wrapping_add(offset as u32), true))
            }
            _ => None,
        }
    }

    fn check_ls(&self, addr: u32, width: Width, tasklet: u32, pc: u32) -> Result<(), SimError> {
        let bytes = width.bytes();
        if !addr.is_multiple_of(bytes) {
            return Err(SimError::Unaligned { addr, align: bytes, tasklet, pc });
        }
        if u64::from(addr) + u64::from(bytes) > self.wram.len() as u64 {
            return Err(SimError::OutOfBounds {
                space: AddressSpace::Wram,
                addr,
                len: bytes,
                tasklet,
                pc,
            });
        }
        Ok(())
    }

    /// Executes `instr` for `tasklet` (functional semantics only — no
    /// timing). The caller updates the PC according to the returned
    /// [`Effect`].
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for out-of-bounds or misaligned accesses, bad
    /// DMA parameters, or runtime-computed atomic bits out of range.
    pub(crate) fn execute(
        &mut self,
        tasklet: u32,
        instr: &Instruction,
    ) -> Result<Effect, SimError> {
        let pc = self.pc[tasklet as usize];
        match *instr {
            Instruction::Nop => Ok(Effect::Advance),
            Instruction::Stop => Ok(Effect::Stop),
            Instruction::Alu { op, rd, ra, rb } => {
                let a = self.reg(tasklet, ra);
                let b = self.operand(tasklet, rb);
                self.set_reg(tasklet, rd, op.eval(a, b));
                Ok(Effect::Advance)
            }
            Instruction::Movi { rd, imm } => {
                self.set_reg(tasklet, rd, imm as u32);
                Ok(Effect::Advance)
            }
            Instruction::Tid { rd } => {
                let rebased = tasklet - self.tid_base[tasklet as usize];
                self.set_reg(tasklet, rd, rebased);
                Ok(Effect::Advance)
            }
            Instruction::Load { width, signed, rd, base, offset } => {
                let addr = self.reg(tasklet, base).wrapping_add(offset as u32);
                self.check_ls(addr, width, tasklet, pc)?;
                let a = addr as usize;
                let v = match (width, signed) {
                    (Width::Byte, false) => u32::from(self.wram[a]),
                    (Width::Byte, true) => self.wram[a] as i8 as i32 as u32,
                    (Width::Half, false) => {
                        u32::from(u16::from_le_bytes([self.wram[a], self.wram[a + 1]]))
                    }
                    (Width::Half, true) => {
                        u16::from_le_bytes([self.wram[a], self.wram[a + 1]]) as i16 as i32 as u32
                    }
                    (Width::Word, _) => u32::from_le_bytes([
                        self.wram[a],
                        self.wram[a + 1],
                        self.wram[a + 2],
                        self.wram[a + 3],
                    ]),
                };
                self.set_reg(tasklet, rd, v);
                Ok(Effect::Advance)
            }
            Instruction::Store { width, rs, base, offset } => {
                let addr = self.reg(tasklet, base).wrapping_add(offset as u32);
                self.check_ls(addr, width, tasklet, pc)?;
                let v = self.reg(tasklet, rs);
                let a = addr as usize;
                match width {
                    Width::Byte => self.wram[a] = v as u8,
                    Width::Half => self.wram[a..a + 2].copy_from_slice(&(v as u16).to_le_bytes()),
                    Width::Word => self.wram[a..a + 4].copy_from_slice(&v.to_le_bytes()),
                }
                Ok(Effect::Advance)
            }
            Instruction::Ldma { wram, mram, len } | Instruction::Sdma { wram, mram, len } => {
                let write = matches!(instr, Instruction::Sdma { .. });
                let w = self.reg(tasklet, wram);
                let m = self.reg(tasklet, mram);
                let l = self.operand(tasklet, len) as i32;
                if l <= 0 {
                    return Err(SimError::BadDmaLength { len: l, tasklet, pc });
                }
                let l = l as u32;
                if !w.is_multiple_of(4) || !m.is_multiple_of(4) || !l.is_multiple_of(4) {
                    let addr = if !w.is_multiple_of(4) { w } else { m };
                    return Err(SimError::Unaligned { addr, align: 4, tasklet, pc });
                }
                if u64::from(w) + u64::from(l) > self.wram.len() as u64 {
                    return Err(SimError::OutOfBounds {
                        space: AddressSpace::Wram,
                        addr: w,
                        len: l,
                        tasklet,
                        pc,
                    });
                }
                if u64::from(m) + u64::from(l) > self.mram.len() as u64 {
                    return Err(SimError::OutOfBounds {
                        space: AddressSpace::Mram,
                        addr: m,
                        len: l,
                        tasklet,
                        pc,
                    });
                }
                // Functional copy happens at issue; timing is modelled by
                // the memory engine while the tasklet blocks.
                let (wi, mi, li) = (w as usize, m as usize, l as usize);
                if write {
                    self.mram[mi..mi + li].copy_from_slice(&self.wram[wi..wi + li]);
                } else {
                    self.wram[wi..wi + li].copy_from_slice(&self.mram[mi..mi + li]);
                }
                Ok(Effect::Dma { mram: m, len: l, write })
            }
            Instruction::Branch { cond, ra, rb, target } => {
                let a = self.reg(tasklet, ra);
                let b = self.operand(tasklet, rb);
                if cond.eval(a, b) {
                    Ok(Effect::Jump(target))
                } else {
                    Ok(Effect::Advance)
                }
            }
            Instruction::Jump { target } => Ok(Effect::Jump(target)),
            Instruction::Jal { rd, target } => {
                self.set_reg(tasklet, rd, pc + 1);
                Ok(Effect::Jump(target))
            }
            Instruction::Jr { ra } => Ok(Effect::Jump(self.reg(tasklet, ra))),
            Instruction::Acquire { bit } => {
                let b = self.operand(tasklet, bit);
                let slot = self.atomic.get_mut(b as usize).ok_or(SimError::BadAtomicBit {
                    bit: b,
                    tasklet,
                    pc,
                })?;
                if *slot {
                    Ok(Effect::AcquireRetry)
                } else {
                    *slot = true;
                    Ok(Effect::Advance)
                }
            }
            Instruction::Release { bit } => {
                let b = self.operand(tasklet, bit);
                let slot = self.atomic.get_mut(b as usize).ok_or(SimError::BadAtomicBit {
                    bit: b,
                    tasklet,
                    pc,
                })?;
                *slot = false;
                Ok(Effect::Advance)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::{AluOp, Cond};

    fn state() -> ArchState {
        ArchState::new(2)
    }

    #[test]
    fn alu_and_movi_update_registers() {
        let mut s = state();
        s.execute(0, &Instruction::Movi { rd: Reg::r(1), imm: 7 }).unwrap();
        s.execute(
            0,
            &Instruction::Alu { op: AluOp::Add, rd: Reg::r(2), ra: Reg::r(1), rb: Operand::Imm(5) },
        )
        .unwrap();
        assert_eq!(s.reg(0, Reg::r(2)), 12);
        // Tasklet 1's registers are untouched.
        assert_eq!(s.reg(1, Reg::r(2)), 0);
    }

    #[test]
    fn tid_reads_tasklet_id() {
        let mut s = state();
        s.execute(1, &Instruction::Tid { rd: Reg::r(0) }).unwrap();
        assert_eq!(s.reg(1, Reg::r(0)), 1);
    }

    #[test]
    fn loads_and_stores_round_trip_all_widths() {
        let mut s = state();
        s.set_reg(0, Reg::r(0), 100);
        s.set_reg(0, Reg::r(1), 0xAABB_CCDD);
        s.execute(
            0,
            &Instruction::Store { width: Width::Word, rs: Reg::r(1), base: Reg::r(0), offset: 0 },
        )
        .unwrap();
        s.execute(
            0,
            &Instruction::Load {
                width: Width::Word,
                signed: false,
                rd: Reg::r(2),
                base: Reg::r(0),
                offset: 0,
            },
        )
        .unwrap();
        assert_eq!(s.reg(0, Reg::r(2)), 0xAABB_CCDD);
        s.execute(
            0,
            &Instruction::Load {
                width: Width::Byte,
                signed: true,
                rd: Reg::r(3),
                base: Reg::r(0),
                offset: 3,
            },
        )
        .unwrap();
        assert_eq!(s.reg(0, Reg::r(3)), 0xAAu8 as i8 as i32 as u32);
        s.execute(
            0,
            &Instruction::Load {
                width: Width::Half,
                signed: false,
                rd: Reg::r(4),
                base: Reg::r(0),
                offset: 2,
            },
        )
        .unwrap();
        assert_eq!(s.reg(0, Reg::r(4)), 0xAABB);
    }

    #[test]
    fn misaligned_word_access_faults() {
        let mut s = state();
        s.set_reg(0, Reg::r(0), 2);
        let e = s
            .execute(
                0,
                &Instruction::Load {
                    width: Width::Word,
                    signed: false,
                    rd: Reg::r(1),
                    base: Reg::r(0),
                    offset: 0,
                },
            )
            .unwrap_err();
        assert!(matches!(e, SimError::Unaligned { addr: 2, align: 4, .. }));
    }

    #[test]
    fn out_of_bounds_store_faults() {
        let mut s = state();
        s.set_reg(0, Reg::r(0), 64 * 1024 - 2);
        let e = s
            .execute(
                0,
                &Instruction::Store {
                    width: Width::Word,
                    rs: Reg::r(1),
                    base: Reg::r(0),
                    offset: 0,
                },
            )
            .unwrap_err();
        // 64K-2 is not 4-aligned either, but bounds uses the aligned check
        // first only when aligned; here alignment fails first.
        assert!(matches!(e, SimError::Unaligned { .. } | SimError::OutOfBounds { .. }));
    }

    #[test]
    fn dma_copies_functionally_and_reports_effect() {
        let mut s = state();
        s.mram[1000..1008].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        s.set_reg(0, Reg::r(0), 16); // wram
        s.set_reg(0, Reg::r(1), 1000); // mram
        let eff = s
            .execute(
                0,
                &Instruction::Ldma { wram: Reg::r(0), mram: Reg::r(1), len: Operand::Imm(8) },
            )
            .unwrap();
        assert_eq!(eff, Effect::Dma { mram: 1000, len: 8, write: false });
        assert_eq!(&s.wram[16..24], &[1, 2, 3, 4, 5, 6, 7, 8]);
        // And back out with sdma.
        let eff = s
            .execute(
                0,
                &Instruction::Sdma { wram: Reg::r(0), mram: Reg::r(1), len: Operand::Imm(8) },
            )
            .unwrap();
        assert_eq!(eff, Effect::Dma { mram: 1000, len: 8, write: true });
    }

    #[test]
    fn dma_with_zero_length_faults() {
        let mut s = state();
        let e = s
            .execute(
                0,
                &Instruction::Ldma { wram: Reg::r(0), mram: Reg::r(1), len: Operand::Imm(0) },
            )
            .unwrap_err();
        assert!(matches!(e, SimError::BadDmaLength { len: 0, .. }));
    }

    #[test]
    fn branches_and_jumps() {
        let mut s = state();
        s.set_reg(0, Reg::r(0), 5);
        let taken = s
            .execute(
                0,
                &Instruction::Branch {
                    cond: Cond::Lt,
                    ra: Reg::r(0),
                    rb: Operand::Imm(10),
                    target: 42,
                },
            )
            .unwrap();
        assert_eq!(taken, Effect::Jump(42));
        let not_taken = s
            .execute(
                0,
                &Instruction::Branch {
                    cond: Cond::Geu,
                    ra: Reg::r(0),
                    rb: Operand::Imm(10),
                    target: 42,
                },
            )
            .unwrap();
        assert_eq!(not_taken, Effect::Advance);
        s.pc[0] = 7;
        let call = s.execute(0, &Instruction::Jal { rd: Reg::r(23), target: 99 }).unwrap();
        assert_eq!(call, Effect::Jump(99));
        assert_eq!(s.reg(0, Reg::r(23)), 8);
        let ret = s.execute(0, &Instruction::Jr { ra: Reg::r(23) }).unwrap();
        assert_eq!(ret, Effect::Jump(8));
    }

    #[test]
    fn acquire_release_semantics() {
        let mut s = state();
        assert_eq!(
            s.execute(0, &Instruction::Acquire { bit: Operand::Imm(3) }).unwrap(),
            Effect::Advance
        );
        // Second acquire (other tasklet) busy-waits.
        assert_eq!(
            s.execute(1, &Instruction::Acquire { bit: Operand::Imm(3) }).unwrap(),
            Effect::AcquireRetry
        );
        s.execute(0, &Instruction::Release { bit: Operand::Imm(3) }).unwrap();
        assert_eq!(
            s.execute(1, &Instruction::Acquire { bit: Operand::Imm(3) }).unwrap(),
            Effect::Advance
        );
    }

    #[test]
    fn runtime_atomic_bit_out_of_range_faults() {
        let mut s = state();
        s.set_reg(0, Reg::r(0), 999);
        let e = s.execute(0, &Instruction::Acquire { bit: Operand::Reg(Reg::r(0)) }).unwrap_err();
        assert!(matches!(e, SimError::BadAtomicBit { bit: 999, .. }));
    }
}
