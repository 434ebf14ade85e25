//! The functional oracle: a timing-free fetch-execute interpreter for the
//! PIM ISA, written independently of the simulator's pipeline.
//!
//! Tasklets execute round-robin, one instruction per ready tasklet per
//! round; DMA is an instantaneous functional copy; a failed `acquire`
//! leaves the PC in place (busy-wait). For data-race-free programs — and
//! for programs whose shared updates are commutative and lock-protected —
//! the final WRAM/MRAM state is schedule-independent, so the pipelined
//! simulator (any timing configuration) must agree with this interpreter
//! byte for byte. Differential tests exploit exactly that.

use pim_asm::DpuProgram;
use pim_isa::layout::{ATOMIC_BITS, MRAM_BYTES, WRAM_BYTES};
use pim_isa::{Instruction, Operand, Reg, Width};

/// The reference interpreter for one DPU.
///
/// Architectural state is public so tests can stage inputs and inspect
/// results directly.
#[derive(Debug, Clone)]
pub struct RefInterpreter {
    instrs: Vec<Instruction>,
    /// Scratchpad contents.
    pub wram: Vec<u8>,
    /// MRAM bank contents.
    pub mram: Vec<u8>,
    /// Atomic bits.
    pub atomic: Vec<bool>,
    /// Per-tasklet register files.
    pub regs: Vec<[u32; 24]>,
    /// Per-tasklet program counters.
    pub pc: Vec<u32>,
    /// Per-tasklet tasklet-id rebase (multi-tenant co-location).
    pub tid_base: Vec<u32>,
    done: Vec<bool>,
}

/// What one interpreted step did (internal scheduling signal).
enum Step {
    /// The tasklet made progress.
    Ran,
    /// The tasklet busy-waits on a held atomic bit.
    Retried,
    /// The tasklet executed `stop`.
    Stopped,
}

impl RefInterpreter {
    /// Builds an interpreter with the Table I memories, loading the
    /// program's WRAM image at its `wram_base`. Bounds checks read the
    /// memories' lengths, so a caller may swap in a smaller MRAM image.
    ///
    /// # Panics
    ///
    /// Panics if the program's WRAM image does not fit WRAM.
    #[must_use]
    pub fn new(program: &DpuProgram, n_tasklets: u32) -> Self {
        let mut wram = vec![0u8; WRAM_BYTES as usize];
        let base = program.wram_base as usize;
        wram[base..base + program.wram_init.len()].copy_from_slice(&program.wram_init);
        RefInterpreter {
            instrs: program.instrs.clone(),
            wram,
            mram: vec![0u8; MRAM_BYTES as usize],
            atomic: vec![false; ATOMIC_BITS as usize],
            regs: vec![[0; 24]; n_tasklets as usize],
            pc: vec![0; n_tasklets as usize],
            tid_base: vec![0; n_tasklets as usize],
            done: vec![false; n_tasklets as usize],
        }
    }

    /// Sets tasklet `t`'s entry point and tasklet-id rebase (co-location).
    pub fn set_entry(&mut self, t: u32, pc: u32, tid_base: u32) {
        self.pc[t as usize] = pc;
        self.tid_base[t as usize] = tid_base;
    }

    /// Re-arms the interpreter for another launch of the same program,
    /// mirroring `Dpu::launch`'s relaunch semantics: register files, PCs,
    /// tasklet-id rebases, and the atomic region are reset; WRAM and MRAM
    /// contents persist from the previous run.
    pub fn relaunch(&mut self) {
        for rf in &mut self.regs {
            *rf = [0; 24];
        }
        self.pc.fill(0);
        self.tid_base.fill(0);
        self.done.fill(false);
        self.atomic.fill(false);
    }

    /// Copies bytes into MRAM at `addr`.
    pub fn write_mram(&mut self, addr: u32, bytes: &[u8]) {
        let a = addr as usize;
        self.mram[a..a + bytes.len()].copy_from_slice(bytes);
    }

    /// Reads `len` bytes of WRAM at `addr`.
    #[must_use]
    pub fn read_wram(&self, addr: u32, len: u32) -> Vec<u8> {
        self.wram[addr as usize..(addr + len) as usize].to_vec()
    }

    /// Reads `len` bytes of MRAM at `addr`.
    #[must_use]
    pub fn read_mram(&self, addr: u32, len: u32) -> Vec<u8> {
        self.mram[addr as usize..(addr + len) as usize].to_vec()
    }

    fn operand(&self, t: usize, o: Operand) -> u32 {
        match o {
            Operand::Reg(r) => self.regs[t][r.index() as usize],
            Operand::Imm(i) => i as u32,
        }
    }

    fn reg(&self, t: usize, r: Reg) -> u32 {
        self.regs[t][r.index() as usize]
    }

    /// Runs every tasklet to `stop`, round-robin.
    ///
    /// Returns the number of instructions interpreted.
    ///
    /// # Errors
    ///
    /// Reports out-of-bounds accesses, bad DMA parameters, runaway
    /// execution past `max_steps`, and all-tasklets-busy-wait deadlock.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, String> {
        let order: Vec<u32> = (0..self.done.len() as u32).collect();
        self.run_in_order(max_steps, &order)
    }

    /// Runs every tasklet to `stop`, round-robin over a caller-chosen slot
    /// `order` (a permutation of `0..n_tasklets`).
    ///
    /// Schedule-independent programs — the only kind the differential
    /// fuzzer generates — must reach the same final memory image under any
    /// permutation; `pim-fuzz` uses this as its schedule-invariance
    /// metamorphic check.
    ///
    /// Returns the number of instructions interpreted.
    ///
    /// # Errors
    ///
    /// Reports everything [`RefInterpreter::run`] does; also rejects an
    /// `order` that is not a permutation of all tasklet slots.
    pub fn run_in_order(&mut self, max_steps: u64, order: &[u32]) -> Result<u64, String> {
        let n = self.done.len();
        let mut seen = vec![false; n];
        for &t in order {
            if (t as usize) < n && !seen[t as usize] {
                seen[t as usize] = true;
            } else {
                return Err(format!("order {order:?} is not a permutation of 0..{n}"));
            }
        }
        if order.len() != n {
            return Err(format!("order {order:?} is not a permutation of 0..{n}"));
        }
        let mut steps = 0u64;
        loop {
            let mut live = 0u32;
            let mut retried = 0u32;
            for &t in order {
                let t = t as usize;
                if self.done[t] {
                    continue;
                }
                live += 1;
                steps += 1;
                if steps > max_steps {
                    return Err(format!("oracle exceeded {max_steps} steps (runaway program?)"));
                }
                match self.step(t)? {
                    Step::Ran => {}
                    Step::Retried => retried += 1,
                    Step::Stopped => self.done[t] = true,
                }
            }
            if live == 0 {
                return Ok(steps);
            }
            if retried == live {
                return Err(format!(
                    "oracle deadlock: all {live} live tasklets busy-wait on held atomic bits"
                ));
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step(&mut self, t: usize) -> Result<Step, String> {
        let pc = self.pc[t];
        let Some(&instr) = self.instrs.get(pc as usize) else {
            return Err(format!("tasklet {t}: pc {pc} outside the program"));
        };
        let mut next = pc + 1;
        match instr {
            Instruction::Nop => {}
            Instruction::Stop => return Ok(Step::Stopped),
            Instruction::Alu { op, rd, ra, rb } => {
                let v = op.eval(self.reg(t, ra), self.operand(t, rb));
                self.regs[t][rd.index() as usize] = v;
            }
            Instruction::Movi { rd, imm } => self.regs[t][rd.index() as usize] = imm as u32,
            Instruction::Tid { rd } => {
                self.regs[t][rd.index() as usize] = t as u32 - self.tid_base[t];
            }
            Instruction::Load { width, signed, rd, base, offset } => {
                let addr = self.reg(t, base).wrapping_add(offset as u32);
                self.check_ls(t, pc, addr, width)?;
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
                self.regs[t][rd.index() as usize] = v;
            }
            Instruction::Store { width, rs, base, offset } => {
                let addr = self.reg(t, base).wrapping_add(offset as u32);
                self.check_ls(t, pc, addr, width)?;
                let v = self.reg(t, rs);
                let a = addr as usize;
                match width {
                    Width::Byte => self.wram[a] = v as u8,
                    Width::Half => self.wram[a..a + 2].copy_from_slice(&(v as u16).to_le_bytes()),
                    Width::Word => self.wram[a..a + 4].copy_from_slice(&v.to_le_bytes()),
                }
            }
            Instruction::Ldma { wram, mram, len } | Instruction::Sdma { wram, mram, len } => {
                let write = matches!(instr, Instruction::Sdma { .. });
                let w = self.reg(t, wram);
                let m = self.reg(t, mram);
                let l = self.operand(t, len) as i32;
                if l <= 0 {
                    return Err(format!("tasklet {t} pc {pc}: bad DMA length {l}"));
                }
                let l = l as u32;
                if !w.is_multiple_of(4) || !m.is_multiple_of(4) || !l.is_multiple_of(4) {
                    return Err(format!("tasklet {t} pc {pc}: misaligned DMA w={w} m={m} l={l}"));
                }
                if u64::from(w) + u64::from(l) > self.wram.len() as u64 {
                    return Err(format!("tasklet {t} pc {pc}: DMA WRAM range {w}+{l} OOB"));
                }
                if u64::from(m) + u64::from(l) > self.mram.len() as u64 {
                    return Err(format!("tasklet {t} pc {pc}: DMA MRAM range {m}+{l} OOB"));
                }
                let (wi, mi, li) = (w as usize, m as usize, l as usize);
                if write {
                    self.mram[mi..mi + li].copy_from_slice(&self.wram[wi..wi + li]);
                } else {
                    self.wram[wi..wi + li].copy_from_slice(&self.mram[mi..mi + li]);
                }
            }
            Instruction::Branch { cond, ra, rb, target } => {
                if cond.eval(self.reg(t, ra), self.operand(t, rb)) {
                    next = target;
                }
            }
            Instruction::Jump { target } => next = target,
            Instruction::Jal { rd, target } => {
                self.regs[t][rd.index() as usize] = pc + 1;
                next = target;
            }
            Instruction::Jr { ra } => next = self.reg(t, ra),
            Instruction::Acquire { bit } => {
                let b = self.operand(t, bit) as usize;
                let Some(slot) = self.atomic.get_mut(b) else {
                    return Err(format!("tasklet {t} pc {pc}: atomic bit {b} out of range"));
                };
                if *slot {
                    return Ok(Step::Retried);
                }
                *slot = true;
            }
            Instruction::Release { bit } => {
                let b = self.operand(t, bit) as usize;
                let Some(slot) = self.atomic.get_mut(b) else {
                    return Err(format!("tasklet {t} pc {pc}: atomic bit {b} out of range"));
                };
                *slot = false;
            }
        }
        self.pc[t] = next;
        Ok(Step::Ran)
    }

    fn check_ls(&self, t: usize, pc: u32, addr: u32, width: Width) -> Result<(), String> {
        let bytes = width.bytes();
        if !addr.is_multiple_of(bytes) {
            return Err(format!("tasklet {t} pc {pc}: misaligned {bytes}-byte access at {addr}"));
        }
        if u64::from(addr) + u64::from(bytes) > self.wram.len() as u64 {
            return Err(format!("tasklet {t} pc {pc}: WRAM access at {addr} out of bounds"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_asm::{Barrier, KernelBuilder};
    use pim_isa::{AluOp, Cond};

    #[test]
    fn runs_a_single_tasklet_loop() {
        let mut k = KernelBuilder::new();
        let data = k.global_zeroed("data", 64);
        let [i, p, v] = k.regs(["i", "p", "v"]);
        k.movi(i, 10);
        k.movi(v, 0);
        let top = k.label_here("top");
        k.add(v, v, i);
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &top);
        k.movi(p, data as i32);
        k.sw(v, p, 0);
        k.stop();
        let program = k.build().unwrap();

        let mut interp = RefInterpreter::new(&program, 1);
        interp.run(10_000).unwrap();
        let out = interp.read_wram(data, 4);
        assert_eq!(i32::from_le_bytes(out.try_into().unwrap()), 55);
    }

    #[test]
    fn tasklets_interleave_and_locks_serialize() {
        // Each of 4 tasklets adds its (tid+1) to a shared counter 5 times,
        // under a lock. Final value is schedule-independent.
        let n = 4u32;
        let mut k = KernelBuilder::new();
        let cnt = k.global_zeroed("cnt", 4);
        let _ = Barrier::alloc(&mut k, n); // reserve bit 0 layout parity
        let [t, i, p, v] = k.regs(["t", "i", "p", "v"]);
        k.tid(t);
        k.add(t, t, 1);
        k.movi(i, 5);
        let top = k.label_here("top");
        k.acquire(200);
        k.movi(p, cnt as i32);
        k.lw(v, p, 0);
        k.add(v, v, t);
        k.sw(v, p, 0);
        k.release(200);
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &top);
        k.stop();
        let program = k.build().unwrap();

        let mut interp = RefInterpreter::new(&program, n);
        interp.run(100_000).unwrap();
        let out = interp.read_wram(cnt, 4);
        assert_eq!(i32::from_le_bytes(out.try_into().unwrap()), 5 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn dma_round_trips_through_mram() {
        let mut k = KernelBuilder::new();
        let buf = k.global_zeroed("buf", 64);
        let [w, m, v] = k.regs(["w", "m", "v"]);
        k.movi(v, 0x5a5a_5a5a_u32 as i32);
        k.movi(w, buf as i32);
        k.sw(v, w, 0);
        k.movi(m, 4096);
        k.sdma(w, m, 64);
        k.alu(AluOp::Add, w, w, 0); // keep w
        k.ldma(w, m, 64);
        k.stop();
        let program = k.build().unwrap();
        let mut interp = RefInterpreter::new(&program, 1);
        interp.run(1000).unwrap();
        assert_eq!(&interp.read_mram(4096, 4), &0x5a5a_5a5a_u32.to_le_bytes());
    }

    #[test]
    fn deadlock_is_reported() {
        let mut k = KernelBuilder::new();
        k.acquire(7);
        k.acquire(7); // second acquire of a held bit: busy-waits forever
        k.stop();
        let program = k.build().unwrap();
        let mut interp = RefInterpreter::new(&program, 1);
        let err = interp.run(1000).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn runaway_is_reported() {
        let mut k = KernelBuilder::new();
        let top = k.label_here("spin");
        k.jump(&top);
        let program = k.build().unwrap();
        let mut interp = RefInterpreter::new(&program, 1);
        let err = interp.run(100).unwrap_err();
        assert!(err.contains("steps"), "{err}");
    }
}
