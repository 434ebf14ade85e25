//! Load-time compilation: one threaded-code op table per program.
//!
//! Interpreting the decoded program costs every issued instruction a copy
//! of the 16-byte [`Instruction`] enum and a full `match` over it inside
//! [`ArchState::execute`] — including nested `Operand`/`AluOp` matches that
//! re-discriminate operands whose shape was fixed at load time.
//!
//! This module compiles a program once per load into a [`CompiledKernel`]:
//! each instruction is lowered into the entry at its pc of one flat table
//! of [`CompiledOp`]s — a *monomorphic* function pointer plus pre-extracted
//! operands (register indices, immediate, branch target) and the decoded
//! scheduling facts (source mask, destination, RF-hazard cost, class
//! index). The steady-state executor then dispatches with one indexed load
//! and one indirect call; no enum is matched and no operand is
//! re-discriminated.
//!
//! The ALU and branch op functions are stamped out per operation by macro
//! and name it as a constant (`AluOp::Add.eval(a, b)`), so "monomorphic"
//! holds only as long as `pim-isa` marks `AluOp::eval` and `Cond::eval`
//! `#[inline]`: `eval` lives in another crate, and un-inlined every ALU op
//! was a call into the full 15-arm `match` with the operation passed as an
//! argument. Inlined, `alu_add_ri` is the register bounds checks, a load,
//! an `add` and a store.
//!
//! One word per instruction: an op function returns a `u64` holding the
//! next pc in its low half and a kind in its high half — [`ADVANCE`],
//! [`JUMP`], [`RETRY`] (a failed `acquire`; the pc is its own), [`STOP`],
//! [`DMA`] or [`FAULT`] — so the issue engine writes the pc of an
//! advance or a jump without matching on an [`Effect`], and everything the
//! word leaves out is read back on the cold path: the transfer of a DMA
//! from the registers it read ([`CompiledKernel::dma`]; a DMA writes no
//! register), and the error of a fault from the interpreter.
//!
//! Faults are the interpreter's. An op function checks everything it can
//! fail on before it writes anything, exactly as [`ArchState::execute`]
//! does, and on a failed check returns [`FAULT`] with the state untouched;
//! [`CompiledKernel::fault`] then runs the same `(tasklet, pc)` through
//! the interpreter, whose [`SimError`] — variant, fields and precedence —
//! is therefore the op's by construction. This module builds none. The
//! unit tests at the bottom run every op shape (each failing one
//! included) through both and compare the writes, the word and its
//! decoded effect.

use pim_isa::{AluOp, Cond, DecodedInstr, InstrClass, Instruction, Operand, Width};

use crate::error::SimError;
use crate::exec::{ArchState, Effect};
use crate::mem::Segment;

/// Word kind: fall through; the low half is `pc + 1`.
pub(crate) const ADVANCE: u64 = 0;
/// Word kind: control transfer; the low half is the target.
pub(crate) const JUMP: u64 = 1 << 32;
/// Word kind: `acquire` found the bit taken and busy-waits; the low half
/// is the pc itself. The last kind that leaves the tasklet runnable.
pub(crate) const RETRY: u64 = 2 << 32;
/// Word kind: the tasklet terminated (the pc stays on the `stop`).
pub(crate) const STOP: u64 = 3 << 32;
/// Word kind: a DMA was issued (the copy is done) and the tasklet blocks;
/// the low half is `pc + 1`.
pub(crate) const DMA: u64 = 4 << 32;
/// Word kind: the instruction faults and wrote nothing.
pub(crate) const FAULT: u64 = 5 << 32;
/// The kind half of a word.
pub(crate) const KIND: u64 = !0 << 32;

#[inline(always)]
fn advance(pc: u32) -> u64 {
    ADVANCE | u64::from(pc + 1)
}

#[inline(always)]
fn jump(target: u32) -> u64 {
    JUMP | u64::from(target)
}

/// The word of an `effect` the interpreter computed for the instruction at
/// `pc`.
pub(crate) fn word_of(effect: Effect, pc: u32) -> u64 {
    match effect {
        Effect::Advance => advance(pc),
        Effect::Jump(target) => jump(target),
        Effect::AcquireRetry => RETRY | u64::from(pc),
        Effect::Stop => STOP,
        Effect::Dma { .. } => DMA | u64::from(pc + 1),
    }
}

/// `flags` bit: blocking MRAM↔WRAM DMA.
pub(crate) const F_DMA: u8 = 1 << 0;
/// `flags` bit: WRAM load (forwards at load latency).
pub(crate) const F_LOAD: u8 = 1 << 1;
/// `flags` bit: WRAM store.
pub(crate) const F_STORE: u8 = 1 << 2;
/// `flags` bit: `dst` holds a destination register index.
pub(crate) const F_DST: u8 = 1 << 3;

/// A monomorphic op function: executes one pre-lowered instruction for
/// `tasklet` at `pc`, reading operands out of its [`CompiledOp`], and
/// returns its word.
pub(crate) type OpFn = fn(&mut ArchState, u32, u32, &CompiledOp) -> u64;

/// One instruction, lowered to a direct-threaded table entry.
///
/// The field meanings depend on the op function: `a` is the destination
/// register (or the `wram` register of a DMA, or the stored register of a
/// store), `b` the first source (base / `mram` / `ra`), `c` the second
/// source register when the operand is a register, and `imm` the immediate
/// when it is not. `target` is the static control-transfer target.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledOp {
    /// The monomorphic executor for this instruction shape.
    pub exec: OpFn,
    /// Immediate operand / load-store offset.
    pub imm: i32,
    /// Static branch/jump target.
    pub target: u32,
    /// Bit `i` set when `r<i>` is a source (scoreboard lookups).
    pub src_mask: u32,
    /// First register field (destination / wram / stored value).
    pub a: u8,
    /// Second register field (ra / base / mram).
    pub b: u8,
    /// Third register field (rb / len), when the operand is a register.
    pub c: u8,
    /// Destination register index; meaningful when [`F_DST`] is set.
    pub dst: u8,
    /// Extra issue slots from same-bank register-file reads.
    pub rf_hazard: u8,
    /// Pre-computed index into [`InstrClass::ALL`] for mix accounting.
    pub class_idx: u8,
    /// [`F_DMA`] | [`F_LOAD`] | [`F_STORE`] | [`F_DST`].
    pub flags: u8,
}

impl CompiledOp {
    #[inline(always)]
    pub(crate) fn is_dma(&self) -> bool {
        self.flags & F_DMA != 0
    }

    #[inline(always)]
    pub(crate) fn is_load(&self) -> bool {
        self.flags & F_LOAD != 0
    }

    #[inline(always)]
    pub(crate) fn dst(&self) -> Option<u8> {
        if self.flags & F_DST != 0 {
            Some(self.dst)
        } else {
            None
        }
    }
}

/// A program compiled once per [`crate::Dpu::load_program`] and reused
/// across every relaunch (and shared with lockstep batches through an
/// `Arc`): the original instruction stream (trace text, event emission,
/// the interpreter dispatch) and the flat threaded-code op table, which
/// every scheduling fact is read from.
#[derive(Debug)]
pub(crate) struct CompiledKernel {
    /// The instruction stream as loaded.
    pub instrs: Vec<Instruction>,
    /// Flat per-PC op table.
    pub ops: Vec<CompiledOp>,
}

impl CompiledKernel {
    /// Compiles an instruction stream: lowers each instruction into the
    /// op table, in program order.
    pub(crate) fn compile(instrs: &[Instruction]) -> Self {
        CompiledKernel { instrs: instrs.to_vec(), ops: instrs.iter().map(compile_op).collect() }
    }

    /// Executes the instruction at `pc` for `tasklet`: one indexed load and
    /// one indirect call. Returns the op's word.
    #[inline(always)]
    pub(crate) fn step(&self, state: &mut ArchState, tasklet: u32, pc: u32) -> u64 {
        let op = &self.ops[pc as usize];
        (op.exec)(state, tasklet, pc, op)
    }

    /// What `word`, just returned for `tasklet` by the instruction at `pc`,
    /// means as an [`Effect`] — or, for a [`FAULT`], the interpreter's
    /// error.
    pub(crate) fn effect(
        &self,
        state: &mut ArchState,
        tasklet: u32,
        pc: u32,
        word: u64,
    ) -> Result<Effect, SimError> {
        Ok(match word & KIND {
            ADVANCE => Effect::Advance,
            JUMP => Effect::Jump(word as u32),
            RETRY => Effect::AcquireRetry,
            STOP => Effect::Stop,
            DMA => {
                let Segment { addr, bytes, write } = self.dma(state, tasklet, pc);
                Effect::Dma { mram: addr, len: bytes, write }
            }
            _ => return Err(self.fault(state, tasklet, pc)),
        })
    }

    /// The transfer of the DMA at `pc` that `tasklet` just issued, read back
    /// out of the registers it read: a DMA writes none.
    #[cold]
    pub(crate) fn dma(&self, state: &ArchState, tasklet: u32, pc: u32) -> Segment {
        match self.instrs[pc as usize] {
            Instruction::Ldma { mram, len, .. } => Segment {
                addr: state.reg(tasklet, mram),
                bytes: state.operand(tasklet, len),
                write: false,
            },
            Instruction::Sdma { mram, len, .. } => Segment {
                addr: state.reg(tasklet, mram),
                bytes: state.operand(tasklet, len),
                write: true,
            },
            ref other => unreachable!("`{other}` returned a DMA word"),
        }
    }

    /// The error of the instruction at `pc` whose op returned [`FAULT`] for
    /// `tasklet`: the interpreter's, run on the same state at the same pc.
    /// The op wrote nothing, so neither does the interpreter.
    #[cold]
    #[inline(never)]
    pub(crate) fn fault(&self, state: &mut ArchState, tasklet: u32, pc: u32) -> SimError {
        let t = tasklet as usize;
        let own_pc = std::mem::replace(&mut state.pc[t], pc);
        let run = state.execute(tasklet, &self.instrs[pc as usize]);
        state.pc[t] = own_pc;
        match run {
            Err(e) => e,
            Ok(effect) => unreachable!("the op at pc {pc} faulted, the interpreter got {effect:?}"),
        }
    }
}

#[inline(always)]
fn rg(s: &ArchState, t: u32, r: u8) -> u32 {
    s.regs[t as usize][r as usize]
}

#[inline(always)]
fn setr(s: &mut ArchState, t: u32, r: u8, v: u32) {
    s.regs[t as usize][r as usize] = v;
}

macro_rules! alu_fns {
    ($($rr:ident $ri:ident $variant:ident),* $(,)?) => {
        $(
            fn $rr(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
                let a = rg(s, t, op.b);
                let b = rg(s, t, op.c);
                setr(s, t, op.a, AluOp::$variant.eval(a, b));
                advance(pc)
            }
            fn $ri(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
                let a = rg(s, t, op.b);
                setr(s, t, op.a, AluOp::$variant.eval(a, op.imm as u32));
                advance(pc)
            }
        )*
    };
}

alu_fns!(
    alu_add_rr alu_add_ri Add,
    alu_sub_rr alu_sub_ri Sub,
    alu_and_rr alu_and_ri And,
    alu_or_rr alu_or_ri Or,
    alu_xor_rr alu_xor_ri Xor,
    alu_sll_rr alu_sll_ri Sll,
    alu_srl_rr alu_srl_ri Srl,
    alu_sra_rr alu_sra_ri Sra,
    alu_mul_rr alu_mul_ri Mul,
    alu_div_rr alu_div_ri Div,
    alu_rem_rr alu_rem_ri Rem,
    alu_slt_rr alu_slt_ri Slt,
    alu_sltu_rr alu_sltu_ri Sltu,
    alu_min_rr alu_min_ri Min,
    alu_max_rr alu_max_ri Max,
);

fn alu_fn(op: AluOp, reg_operand: bool) -> OpFn {
    match (op, reg_operand) {
        (AluOp::Add, true) => alu_add_rr,
        (AluOp::Add, false) => alu_add_ri,
        (AluOp::Sub, true) => alu_sub_rr,
        (AluOp::Sub, false) => alu_sub_ri,
        (AluOp::And, true) => alu_and_rr,
        (AluOp::And, false) => alu_and_ri,
        (AluOp::Or, true) => alu_or_rr,
        (AluOp::Or, false) => alu_or_ri,
        (AluOp::Xor, true) => alu_xor_rr,
        (AluOp::Xor, false) => alu_xor_ri,
        (AluOp::Sll, true) => alu_sll_rr,
        (AluOp::Sll, false) => alu_sll_ri,
        (AluOp::Srl, true) => alu_srl_rr,
        (AluOp::Srl, false) => alu_srl_ri,
        (AluOp::Sra, true) => alu_sra_rr,
        (AluOp::Sra, false) => alu_sra_ri,
        (AluOp::Mul, true) => alu_mul_rr,
        (AluOp::Mul, false) => alu_mul_ri,
        (AluOp::Div, true) => alu_div_rr,
        (AluOp::Div, false) => alu_div_ri,
        (AluOp::Rem, true) => alu_rem_rr,
        (AluOp::Rem, false) => alu_rem_ri,
        (AluOp::Slt, true) => alu_slt_rr,
        (AluOp::Slt, false) => alu_slt_ri,
        (AluOp::Sltu, true) => alu_sltu_rr,
        (AluOp::Sltu, false) => alu_sltu_ri,
        (AluOp::Min, true) => alu_min_rr,
        (AluOp::Min, false) => alu_min_ri,
        (AluOp::Max, true) => alu_max_rr,
        (AluOp::Max, false) => alu_max_ri,
    }
}

/// Whether a `bytes`-wide load/store at `addr` is aligned and inside the
/// load/store space: the checks of `ArchState::check_ls`.
#[inline(always)]
fn ls_ok(s: &ArchState, addr: u32, bytes: u32) -> bool {
    addr.is_multiple_of(bytes) && u64::from(addr) + u64::from(bytes) <= s.wram.len() as u64
}

macro_rules! load_fns {
    ($($name:ident $bytes:literal |$s:ident, $a:ident| $read:expr),* $(,)?) => {
        $(
            fn $name(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
                let addr = rg(s, t, op.b).wrapping_add(op.imm as u32);
                if !ls_ok(s, addr, $bytes) {
                    return FAULT;
                }
                let $a = addr as usize;
                let $s = &*s;
                let v = $read;
                setr(s, t, op.a, v);
                advance(pc)
            }
        )*
    };
}

load_fns!(
    load_bu 1 |s, a| u32::from(s.wram[a]),
    load_bs 1 |s, a| s.wram[a] as i8 as i32 as u32,
    load_hu 2 |s, a| u32::from(u16::from_le_bytes([s.wram[a], s.wram[a + 1]])),
    load_hs 2 |s, a| u16::from_le_bytes([s.wram[a], s.wram[a + 1]]) as i16 as i32 as u32,
    load_w 4 |s, a| u32::from_le_bytes([s.wram[a], s.wram[a + 1], s.wram[a + 2], s.wram[a + 3]]),
);

fn store_b(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    let addr = rg(s, t, op.b).wrapping_add(op.imm as u32);
    if !ls_ok(s, addr, 1) {
        return FAULT;
    }
    let v = rg(s, t, op.a);
    s.wram[addr as usize] = v as u8;
    advance(pc)
}

fn store_h(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    let addr = rg(s, t, op.b).wrapping_add(op.imm as u32);
    if !ls_ok(s, addr, 2) {
        return FAULT;
    }
    let v = rg(s, t, op.a);
    let a = addr as usize;
    s.wram[a..a + 2].copy_from_slice(&(v as u16).to_le_bytes());
    advance(pc)
}

fn store_w(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    let addr = rg(s, t, op.b).wrapping_add(op.imm as u32);
    if !ls_ok(s, addr, 4) {
        return FAULT;
    }
    let v = rg(s, t, op.a);
    let a = addr as usize;
    s.wram[a..a + 4].copy_from_slice(&v.to_le_bytes());
    advance(pc)
}

/// DMA validation + functional copy, shared by the four DMA op functions:
/// the checks of the `Ldma`/`Sdma` arm of `ArchState::execute` (length,
/// alignment, WRAM bounds, MRAM bounds), then the copy.
#[inline(always)]
fn dma_common(s: &mut ArchState, pc: u32, w: u32, m: u32, l: i32, write: bool) -> u64 {
    if l <= 0 {
        return FAULT;
    }
    let l = l as u32;
    if !(w | m | l).is_multiple_of(4)
        || u64::from(w) + u64::from(l) > s.wram.len() as u64
        || u64::from(m) + u64::from(l) > s.mram.len() as u64
    {
        return FAULT;
    }
    let (wi, mi, li) = (w as usize, m as usize, l as usize);
    if write {
        s.mram[mi..mi + li].copy_from_slice(&s.wram[wi..wi + li]);
    } else {
        s.wram[wi..wi + li].copy_from_slice(&s.mram[mi..mi + li]);
    }
    DMA | u64::from(pc + 1)
}

fn ldma_r(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    let (w, m, l) = (rg(s, t, op.a), rg(s, t, op.b), rg(s, t, op.c) as i32);
    dma_common(s, pc, w, m, l, false)
}

fn ldma_i(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    let (w, m) = (rg(s, t, op.a), rg(s, t, op.b));
    dma_common(s, pc, w, m, op.imm, false)
}

fn sdma_r(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    let (w, m, l) = (rg(s, t, op.a), rg(s, t, op.b), rg(s, t, op.c) as i32);
    dma_common(s, pc, w, m, l, true)
}

fn sdma_i(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    let (w, m) = (rg(s, t, op.a), rg(s, t, op.b));
    dma_common(s, pc, w, m, op.imm, true)
}

macro_rules! branch_fns {
    ($($rr:ident $ri:ident $variant:ident),* $(,)?) => {
        $(
            fn $rr(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
                let a = rg(s, t, op.b);
                let b = rg(s, t, op.c);
                if Cond::$variant.eval(a, b) {
                    jump(op.target)
                } else {
                    advance(pc)
                }
            }
            fn $ri(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
                let a = rg(s, t, op.b);
                if Cond::$variant.eval(a, op.imm as u32) {
                    jump(op.target)
                } else {
                    advance(pc)
                }
            }
        )*
    };
}

branch_fns!(
    br_eq_rr br_eq_ri Eq,
    br_ne_rr br_ne_ri Ne,
    br_lt_rr br_lt_ri Lt,
    br_ge_rr br_ge_ri Ge,
    br_ltu_rr br_ltu_ri Ltu,
    br_geu_rr br_geu_ri Geu,
);

fn branch_fn(cond: Cond, reg_operand: bool) -> OpFn {
    match (cond, reg_operand) {
        (Cond::Eq, true) => br_eq_rr,
        (Cond::Eq, false) => br_eq_ri,
        (Cond::Ne, true) => br_ne_rr,
        (Cond::Ne, false) => br_ne_ri,
        (Cond::Lt, true) => br_lt_rr,
        (Cond::Lt, false) => br_lt_ri,
        (Cond::Ge, true) => br_ge_rr,
        (Cond::Ge, false) => br_ge_ri,
        (Cond::Ltu, true) => br_ltu_rr,
        (Cond::Ltu, false) => br_ltu_ri,
        (Cond::Geu, true) => br_geu_rr,
        (Cond::Geu, false) => br_geu_ri,
    }
}

fn op_movi(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    setr(s, t, op.a, op.imm as u32);
    advance(pc)
}

fn op_tid(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    let rebased = t - s.tid_base[t as usize];
    setr(s, t, op.a, rebased);
    advance(pc)
}

fn op_jump(_s: &mut ArchState, _t: u32, _pc: u32, op: &CompiledOp) -> u64 {
    jump(op.target)
}

fn op_jal(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    setr(s, t, op.a, pc + 1);
    jump(op.target)
}

fn op_jr(s: &mut ArchState, t: u32, _pc: u32, op: &CompiledOp) -> u64 {
    jump(rg(s, t, op.b))
}

#[inline(always)]
fn acquire_common(s: &mut ArchState, pc: u32, bit: u32) -> u64 {
    match s.atomic.get_mut(bit as usize) {
        None => FAULT,
        Some(slot) if *slot => RETRY | u64::from(pc),
        Some(slot) => {
            *slot = true;
            advance(pc)
        }
    }
}

#[inline(always)]
fn release_common(s: &mut ArchState, pc: u32, bit: u32) -> u64 {
    let Some(slot) = s.atomic.get_mut(bit as usize) else { return FAULT };
    *slot = false;
    advance(pc)
}

fn acquire_r(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    let bit = rg(s, t, op.b);
    acquire_common(s, pc, bit)
}

fn acquire_i(s: &mut ArchState, _t: u32, pc: u32, op: &CompiledOp) -> u64 {
    acquire_common(s, pc, op.imm as u32)
}

fn release_r(s: &mut ArchState, t: u32, pc: u32, op: &CompiledOp) -> u64 {
    let bit = rg(s, t, op.b);
    release_common(s, pc, bit)
}

fn release_i(s: &mut ArchState, _t: u32, pc: u32, op: &CompiledOp) -> u64 {
    release_common(s, pc, op.imm as u32)
}

fn op_stop(_s: &mut ArchState, _t: u32, _pc: u32, _op: &CompiledOp) -> u64 {
    STOP
}

fn op_nop(_s: &mut ArchState, _t: u32, pc: u32, _op: &CompiledOp) -> u64 {
    advance(pc)
}

/// Lowers one instruction into its table entry.
fn compile_op(instr: &Instruction) -> CompiledOp {
    let d = DecodedInstr::new(instr);
    let class_idx = InstrClass::ALL
        .iter()
        .position(|c| *c == d.class)
        .expect("InstrClass::ALL covers every class") as u8;
    let mut op = CompiledOp {
        exec: op_nop,
        imm: 0,
        target: 0,
        src_mask: d.src_mask,
        a: 0,
        b: 0,
        c: 0,
        dst: d.dst.unwrap_or(0),
        rf_hazard: d.rf_hazard,
        class_idx,
        flags: 0,
    };
    if d.dst.is_some() {
        op.flags |= F_DST;
    }
    if d.is_dma {
        op.flags |= F_DMA;
    }
    if d.is_load {
        op.flags |= F_LOAD;
    }
    if matches!(instr, Instruction::Store { .. }) {
        op.flags |= F_STORE;
    }
    match *instr {
        Instruction::Nop => op.exec = op_nop,
        Instruction::Stop => op.exec = op_stop,
        Instruction::Alu { op: aop, rd, ra, rb } => {
            op.a = rd.index();
            op.b = ra.index();
            match rb {
                Operand::Reg(r) => {
                    op.c = r.index();
                    op.exec = alu_fn(aop, true);
                }
                Operand::Imm(i) => {
                    op.imm = i;
                    op.exec = alu_fn(aop, false);
                }
            }
        }
        Instruction::Movi { rd, imm } => {
            op.a = rd.index();
            op.imm = imm;
            op.exec = op_movi;
        }
        Instruction::Tid { rd } => {
            op.a = rd.index();
            op.exec = op_tid;
        }
        Instruction::Load { width, signed, rd, base, offset } => {
            op.a = rd.index();
            op.b = base.index();
            op.imm = offset;
            op.exec = match (width, signed) {
                (Width::Byte, false) => load_bu,
                (Width::Byte, true) => load_bs,
                (Width::Half, false) => load_hu,
                (Width::Half, true) => load_hs,
                (Width::Word, _) => load_w,
            };
        }
        Instruction::Store { width, rs, base, offset } => {
            op.a = rs.index();
            op.b = base.index();
            op.imm = offset;
            op.exec = match width {
                Width::Byte => store_b,
                Width::Half => store_h,
                Width::Word => store_w,
            };
        }
        Instruction::Ldma { wram, mram, len } | Instruction::Sdma { wram, mram, len } => {
            let write = matches!(instr, Instruction::Sdma { .. });
            op.a = wram.index();
            op.b = mram.index();
            match len {
                Operand::Reg(r) => {
                    op.c = r.index();
                    op.exec = if write { sdma_r } else { ldma_r };
                }
                Operand::Imm(i) => {
                    op.imm = i;
                    op.exec = if write { sdma_i } else { ldma_i };
                }
            }
        }
        Instruction::Branch { cond, ra, rb, target } => {
            op.b = ra.index();
            op.target = target;
            match rb {
                Operand::Reg(r) => {
                    op.c = r.index();
                    op.exec = branch_fn(cond, true);
                }
                Operand::Imm(i) => {
                    op.imm = i;
                    op.exec = branch_fn(cond, false);
                }
            }
        }
        Instruction::Jump { target } => {
            op.target = target;
            op.exec = op_jump;
        }
        Instruction::Jal { rd, target } => {
            op.a = rd.index();
            op.target = target;
            op.exec = op_jal;
        }
        Instruction::Jr { ra } => {
            op.b = ra.index();
            op.exec = op_jr;
        }
        Instruction::Acquire { bit } => match bit {
            Operand::Reg(r) => {
                op.b = r.index();
                op.exec = acquire_r;
            }
            Operand::Imm(i) => {
                op.imm = i;
                op.exec = acquire_i;
            }
        },
        Instruction::Release { bit } => match bit {
            Operand::Reg(r) => {
                op.b = r.index();
                op.exec = release_r;
            }
            Operand::Imm(i) => {
                op.imm = i;
                op.exec = release_i;
            }
        },
    }
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::Reg;

    /// The MRAM prefix [`view`] compares: every DMA these tests make
    /// lands below it or faults before it writes.
    const MRAM_WINDOW: usize = 64 * 1024;

    fn state() -> ArchState {
        let mut s = ArchState::new(4);
        // Non-trivial starting material so op results are distinguishable.
        for t in 0..4usize {
            for r in 0..24usize {
                s.regs[t][r] = (t as u32) * 100 + r as u32;
            }
        }
        for (i, b) in s.wram.iter_mut().enumerate().take(4096) {
            *b = (i % 251) as u8;
        }
        for (i, b) in s.mram.iter_mut().enumerate().take(4096) {
            *b = (i % 241) as u8;
        }
        s.tid_base = vec![0, 0, 2, 2];
        s
    }

    /// Everything an op can write, with MRAM cut to [`MRAM_WINDOW`]: the
    /// rest of the 64 MB bank is zero on both sides.
    fn view(s: &ArchState) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?} {:?}",
            s.regs,
            s.pc,
            s.tid_base,
            s.atomic,
            s.wram,
            &s.mram[..MRAM_WINDOW]
        )
    }

    /// Every instruction shape must behave identically through the compiled
    /// op function and the interpreter: the same writes, a [`FAULT`] word
    /// exactly where the interpreter errs (with nothing written), otherwise
    /// the word of the interpreter's effect — and decoded, the same effect
    /// or error.
    fn assert_compiled_matches(instr: &Instruction, prep: impl Fn(&mut ArchState)) {
        let kernel = CompiledKernel::compile(&[*instr; 8]);
        for t in 0..4u32 {
            for pc in [0u32, 7] {
                let what = format!("{instr} (t={t}, pc={pc})");
                let mut want_state = state();
                prep(&mut want_state);
                want_state.pc[t as usize] = pc;
                let want = want_state.execute(t, instr);

                let mut got_state = state();
                prep(&mut got_state);
                got_state.pc[t as usize] = pc;
                let word = kernel.step(&mut got_state, t, pc);
                assert_eq!(view(&got_state), view(&want_state), "state mismatch for {what}");
                match want {
                    Ok(effect) => assert_eq!(word, word_of(effect, pc), "word of {what}"),
                    Err(_) => assert_eq!(word & KIND, FAULT, "word of {what}"),
                }
                let got = kernel.effect(&mut got_state, t, pc, word);
                assert_eq!(got, want, "effect/error mismatch for {what}");
                assert_eq!(got_state.pc[t as usize], pc, "{what}: the decode restores the pc");
            }
        }
    }

    #[test]
    fn every_alu_shape_matches_the_interpreter() {
        for aluop in AluOp::ALL {
            for rb in [Operand::Reg(Reg::r(6)), Operand::Imm(-3), Operand::Imm(35)] {
                let instr = Instruction::Alu { op: aluop, rd: Reg::r(4), ra: Reg::r(1), rb };
                assert_compiled_matches(&instr, |_| ());
                // Division/shift edge material: zero and negative operands.
                assert_compiled_matches(&instr, |s| {
                    for t in 0..4usize {
                        s.regs[t][1] = 0x8000_0001;
                        s.regs[t][6] = 0;
                    }
                });
            }
        }
    }

    #[test]
    fn every_branch_shape_matches_the_interpreter() {
        for cond in Cond::ALL {
            for rb in [Operand::Reg(Reg::r(2)), Operand::Imm(101)] {
                let instr = Instruction::Branch { cond, ra: Reg::r(1), rb, target: 9 };
                assert_compiled_matches(&instr, |_| ());
                assert_compiled_matches(&instr, |s| {
                    for t in 0..4usize {
                        s.regs[t][1] = 101;
                        s.regs[t][2] = s.regs[t][1];
                    }
                });
            }
        }
    }

    #[test]
    fn loads_and_stores_match_including_faults() {
        for width in [Width::Byte, Width::Half, Width::Word] {
            for signed in [false, true] {
                let load =
                    Instruction::Load { width, signed, rd: Reg::r(5), base: Reg::r(3), offset: 8 };
                assert_compiled_matches(&load, |_| ());
                // Misaligned and out-of-bounds bases.
                assert_compiled_matches(&load, |s| {
                    for t in 0..4usize {
                        s.regs[t][3] = 1;
                    }
                });
                assert_compiled_matches(&load, |s| {
                    for t in 0..4usize {
                        s.regs[t][3] = 64 * 1024 - 2;
                    }
                });
            }
            let store = Instruction::Store { width, rs: Reg::r(2), base: Reg::r(3), offset: 16 };
            assert_compiled_matches(&store, |_| ());
            assert_compiled_matches(&store, |s| {
                for t in 0..4usize {
                    s.regs[t][3] = u32::MAX - 1;
                }
            });
        }
    }

    #[test]
    fn dma_shapes_match_including_every_error_precedence() {
        for make in [
            |len| Instruction::Ldma { wram: Reg::r(1), mram: Reg::r(2), len },
            |len| Instruction::Sdma { wram: Reg::r(1), mram: Reg::r(2), len },
        ] {
            for len in [
                Operand::Imm(64),
                Operand::Imm(0),
                Operand::Imm(-8),
                Operand::Imm(6),
                Operand::Reg(Reg::r(3)),
            ] {
                let instr = make(len);
                // Aligned, in-bounds.
                assert_compiled_matches(&instr, |s| {
                    for t in 0..4usize {
                        s.regs[t][1] = 64;
                        s.regs[t][2] = 128;
                        s.regs[t][3] = 32;
                    }
                });
                // Misaligned WRAM vs misaligned MRAM (addr selection).
                assert_compiled_matches(&instr, |s| {
                    for t in 0..4usize {
                        s.regs[t][1] = 66;
                        s.regs[t][2] = 128;
                        s.regs[t][3] = 32;
                    }
                });
                assert_compiled_matches(&instr, |s| {
                    for t in 0..4usize {
                        s.regs[t][1] = 64;
                        s.regs[t][2] = 130;
                        s.regs[t][3] = 32;
                    }
                });
                // WRAM out of bounds, then MRAM out of bounds.
                assert_compiled_matches(&instr, |s| {
                    for t in 0..4usize {
                        s.regs[t][1] = 64 * 1024 - 4;
                        s.regs[t][2] = 128;
                        s.regs[t][3] = 64;
                    }
                });
                assert_compiled_matches(&instr, |s| {
                    for t in 0..4usize {
                        s.regs[t][1] = 64;
                        s.regs[t][2] = u32::MAX - 3;
                        s.regs[t][3] = 64;
                    }
                });
            }
        }
    }

    #[test]
    fn control_sync_and_misc_shapes_match() {
        let shapes = vec![
            Instruction::Nop,
            Instruction::Stop,
            Instruction::Movi { rd: Reg::r(9), imm: -42 },
            Instruction::Tid { rd: Reg::r(0) },
            Instruction::Jump { target: 5 },
            Instruction::Jal { rd: Reg::r(23), target: 2 },
            Instruction::Jr { ra: Reg::r(23) },
            Instruction::Acquire { bit: Operand::Imm(3) },
            Instruction::Release { bit: Operand::Imm(3) },
            Instruction::Acquire { bit: Operand::Reg(Reg::r(4)) },
            Instruction::Release { bit: Operand::Reg(Reg::r(4)) },
            // Runtime atomic bit out of range.
            Instruction::Acquire { bit: Operand::Imm(100_000) },
            Instruction::Release { bit: Operand::Imm(100_000) },
        ];
        for instr in &shapes {
            assert_compiled_matches(instr, |_| ());
            assert_compiled_matches(instr, |s| {
                s.atomic[3] = true;
                for t in 0..4usize {
                    s.regs[t][4] = 3;
                }
            });
        }
    }

    #[test]
    fn compiled_kernel_mirrors_decoded_facts() {
        let instrs = vec![
            Instruction::Tid { rd: Reg::r(0) },
            Instruction::Branch { cond: Cond::Ne, ra: Reg::r(0), rb: Operand::Imm(0), target: 4 },
            Instruction::Movi { rd: Reg::r(1), imm: 7 },
            Instruction::Jump { target: 4 },
            Instruction::Stop,
        ];
        let k = CompiledKernel::compile(&instrs);
        assert_eq!(k.ops.len(), instrs.len());
        for (pc, instr) in instrs.iter().enumerate() {
            let op = &k.ops[pc];
            let d = DecodedInstr::new(instr);
            assert_eq!(op.src_mask, d.src_mask, "pc {pc}");
            assert_eq!(op.dst(), d.dst, "pc {pc}");
            assert_eq!(op.rf_hazard, d.rf_hazard, "pc {pc}");
            assert_eq!(InstrClass::ALL[op.class_idx as usize], d.class, "pc {pc}");
            assert_eq!(op.is_dma(), d.is_dma, "pc {pc}");
            assert_eq!(op.is_load(), d.is_load, "pc {pc}");
            assert_eq!((op.flags & F_STORE != 0), matches!(instr, Instruction::Store { .. }));
        }
    }
}
