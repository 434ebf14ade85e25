//! A structured instruction emitter (the "kernel builder" eDSL).
//!
//! The builder plays the role of UPMEM's C compiler in the simulation
//! toolchain: kernels — including the whole bundled PrIM suite — are
//! authored as Rust functions that emit the machine-level instruction
//! stream consumed by the cycle-level simulator. The builder manages
//! labels and fixups, a register namespace, WRAM data placement, and
//! atomic-bit allocation, and finishes by validating the program against
//! the link options exactly like the textual assembler does.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use pim_isa::{AluOp, Cond, Instruction, Operand, Reg, Width, NUM_GP_REGS};

use crate::program::{DpuProgram, LinkError, LinkOptions, Symbol};

/// A label created by a [`KernelBuilder`], used as a branch/jump target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LabelId(String);

/// An error produced when finalizing a built kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A branch or jump referenced a label that was never placed.
    UndefinedLabel(String),
    /// A label was placed twice.
    DuplicateLabel(String),
    /// More atomic bits were allocated than the hardware provides.
    AtomicBitsExhausted,
    /// The assembled program failed link-time validation.
    Link(LinkError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UndefinedLabel(l) => write!(f, "label `{l}` was never placed"),
            BuildError::DuplicateLabel(l) => write!(f, "label `{l}` placed twice"),
            BuildError::AtomicBitsExhausted => write!(f, "out of atomic bits"),
            BuildError::Link(e) => write!(f, "link error: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Link(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinkError> for BuildError {
    fn from(e: LinkError) -> Self {
        BuildError::Link(e)
    }
}

/// Builds a [`DpuProgram`] instruction by instruction.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Default)]
pub struct KernelBuilder {
    instrs: Vec<Instruction>,
    /// (instruction index, label) pairs whose target needs resolution.
    fixups: Vec<(usize, String)>,
    labels: BTreeMap<String, u32>,
    fresh_counter: u32,
    /// Registers currently allocated, by name.
    reg_names: BTreeMap<String, Reg>,
    /// Free register pool (stack).
    free_regs: Vec<Reg>,
    initialized_pool: bool,
    /// WRAM image under construction.
    wram: Vec<u8>,
    /// Base WRAM byte address the image (and every baked address) starts at.
    wram_base: u32,
    /// First atomic-bit index this kernel allocates from.
    atomic_base: u32,
    symbols: BTreeMap<String, Symbol>,
    next_atomic_bit: u32,
}

impl KernelBuilder {
    /// Creates an empty builder allocating WRAM from address 0 and atomic
    /// bits from 0.
    #[must_use]
    pub fn new() -> Self {
        KernelBuilder::default()
    }

    /// Creates a builder whose WRAM allocations start at `wram_base` and
    /// whose atomic bits start at `atomic_base` — the *manual partitioning*
    /// a scratchpad-centric programming model forces onto co-located
    /// tenants (paper §V-C: transparency requires "non-trivial amount of
    /// changes to both co-located programs"; this constructor is exactly
    /// that change).
    #[must_use]
    pub fn with_partition(wram_base: u32, atomic_base: u32) -> Self {
        assert_eq!(wram_base % 8, 0, "WRAM partitions must be 8-byte aligned");
        KernelBuilder { wram_base, atomic_base, ..KernelBuilder::default() }
    }

    // ------------------------------------------------------------------
    // Registers
    // ------------------------------------------------------------------

    fn ensure_pool(&mut self) {
        if !self.initialized_pool {
            // Pop order r0, r1, r2, …
            self.free_regs = (0..NUM_GP_REGS).rev().map(Reg::r).collect();
            self.initialized_pool = true;
        }
    }

    /// Allocates a register under `name` (or returns the existing one with
    /// that name).
    ///
    /// # Panics
    ///
    /// Panics if all 24 general-purpose registers are in use — a kernel
    /// authoring error, reported eagerly with the offending name.
    pub fn reg(&mut self, name: &str) -> Reg {
        self.ensure_pool();
        if let Some(&r) = self.reg_names.get(name) {
            return r;
        }
        let r = self
            .free_regs
            .pop()
            .unwrap_or_else(|| panic!("out of registers while allocating `{name}`"));
        self.reg_names.insert(name.to_string(), r);
        r
    }

    /// Allocates several registers at once.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`KernelBuilder::reg`].
    pub fn regs<const N: usize>(&mut self, names: [&str; N]) -> [Reg; N] {
        names.map(|n| self.reg(n))
    }

    /// Releases a named register back to the pool.
    ///
    /// # Panics
    ///
    /// Panics if no register with that name is allocated.
    pub fn release_reg(&mut self, name: &str) {
        let r = self
            .reg_names
            .remove(name)
            .unwrap_or_else(|| panic!("release of unallocated register `{name}`"));
        self.free_regs.push(r);
    }

    // ------------------------------------------------------------------
    // Labels
    // ------------------------------------------------------------------

    /// Creates a unique label (not yet placed).
    pub fn fresh_label(&mut self, hint: &str) -> LabelId {
        self.fresh_counter += 1;
        LabelId(format!("{hint}${}", self.fresh_counter))
    }

    /// Places `label` at the current instruction position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already placed (duplicate placement is a
    /// kernel authoring error).
    pub fn place(&mut self, label: &LabelId) {
        let at = self.instrs.len() as u32;
        if self.labels.insert(label.0.clone(), at).is_some() {
            panic!("label `{}` placed twice", label.0);
        }
    }

    /// Creates a label with the given name and places it here.
    pub fn label_here(&mut self, name: &str) -> LabelId {
        let l = self.fresh_label(name);
        self.place(&l);
        l
    }

    // ------------------------------------------------------------------
    // WRAM data and atomic bits
    // ------------------------------------------------------------------

    fn align_wram(&mut self, align: u32) {
        debug_assert!(align.is_power_of_two());
        while !(self.wram_base + self.wram.len() as u32).is_multiple_of(align) {
            self.wram.push(0);
        }
    }

    /// Reserves `size` zeroed bytes of WRAM with the given alignment and
    /// returns the (absolute) byte address.
    pub fn alloc_wram(&mut self, size: u32, align: u32) -> u32 {
        self.align_wram(align);
        let addr = self.wram_base + self.wram.len() as u32;
        self.wram.resize(self.wram.len() + size as usize, 0);
        addr
    }

    /// Reserves a named, zeroed, word-aligned WRAM buffer visible to the
    /// host through the symbol table.
    pub fn global_zeroed(&mut self, name: &str, size: u32) -> u32 {
        let addr = self.alloc_wram(size, 4);
        self.symbols
            .insert(name.to_string(), Symbol { addr, size, space: pim_isa::AddressSpace::Wram });
        addr
    }

    /// Allocates the next free atomic bit (checked at [`KernelBuilder::build`]).
    pub fn alloc_atomic_bit(&mut self) -> u32 {
        let bit = self.atomic_base + self.next_atomic_bit;
        self.next_atomic_bit += 1;
        bit
    }

    // ------------------------------------------------------------------
    // Instruction emission
    // ------------------------------------------------------------------

    /// Emits a raw instruction.
    pub(crate) fn emit(&mut self, i: Instruction) {
        self.instrs.push(i);
    }

    /// `rd = op(ra, rb)` where `rb` is a register or immediate.
    pub fn alu(&mut self, op: AluOp, rd: Reg, ra: Reg, rb: impl Into<Operand>) {
        self.emit(Instruction::Alu { op, rd, ra, rb: rb.into() });
    }

    /// `rd = ra + rb`.
    pub fn add(&mut self, rd: Reg, ra: Reg, rb: impl Into<Operand>) {
        self.alu(AluOp::Add, rd, ra, rb);
    }

    /// `rd = ra - rb`.
    pub fn sub(&mut self, rd: Reg, ra: Reg, rb: impl Into<Operand>) {
        self.alu(AluOp::Sub, rd, ra, rb);
    }

    /// `rd = ra * rb`.
    pub fn mul(&mut self, rd: Reg, ra: Reg, rb: impl Into<Operand>) {
        self.alu(AluOp::Mul, rd, ra, rb);
    }

    /// `rd = ra << rb`.
    pub fn sll(&mut self, rd: Reg, ra: Reg, rb: impl Into<Operand>) {
        self.alu(AluOp::Sll, rd, ra, rb);
    }

    /// `rd = ra >> rb` (logical).
    pub fn srl(&mut self, rd: Reg, ra: Reg, rb: impl Into<Operand>) {
        self.alu(AluOp::Srl, rd, ra, rb);
    }

    /// `rd = imm` (full 32-bit immediate).
    pub fn movi(&mut self, rd: Reg, imm: i32) {
        self.emit(Instruction::Movi { rd, imm });
    }

    /// `rd = ra` (register move, encoded as `add rd, ra, 0`).
    pub fn mov(&mut self, rd: Reg, ra: Reg) {
        self.alu(AluOp::Add, rd, ra, 0);
    }

    /// `rd = tasklet_id`.
    pub fn tid(&mut self, rd: Reg) {
        self.emit(Instruction::Tid { rd });
    }

    /// Word load: `rd = wram[base + offset]`.
    pub fn lw(&mut self, rd: Reg, base: Reg, offset: i32) {
        self.emit(Instruction::Load { width: Width::Word, signed: false, rd, base, offset });
    }

    /// Unsigned byte load.
    pub fn lbu(&mut self, rd: Reg, base: Reg, offset: i32) {
        self.emit(Instruction::Load { width: Width::Byte, signed: false, rd, base, offset });
    }

    /// Signed byte load.
    pub fn lb(&mut self, rd: Reg, base: Reg, offset: i32) {
        self.emit(Instruction::Load { width: Width::Byte, signed: true, rd, base, offset });
    }

    /// Word store: `wram[base + offset] = rs`.
    pub fn sw(&mut self, rs: Reg, base: Reg, offset: i32) {
        self.emit(Instruction::Store { width: Width::Word, rs, base, offset });
    }

    /// Byte store.
    pub fn sb(&mut self, rs: Reg, base: Reg, offset: i32) {
        self.emit(Instruction::Store { width: Width::Byte, rs, base, offset });
    }

    /// DMA `MRAM → WRAM` (`mram_read`): blocking transfer of `len` bytes.
    pub fn ldma(&mut self, wram: Reg, mram: Reg, len: impl Into<Operand>) {
        self.emit(Instruction::Ldma { wram, mram, len: len.into() });
    }

    /// DMA `WRAM → MRAM` (`mram_write`): blocking transfer of `len` bytes.
    pub fn sdma(&mut self, wram: Reg, mram: Reg, len: impl Into<Operand>) {
        self.emit(Instruction::Sdma { wram, mram, len: len.into() });
    }

    /// Conditional branch to `target`.
    pub fn branch(&mut self, cond: Cond, ra: Reg, rb: impl Into<Operand>, target: &LabelId) {
        self.fixups.push((self.instrs.len(), target.0.clone()));
        self.emit(Instruction::Branch { cond, ra, rb: rb.into(), target: u32::MAX });
    }

    /// Unconditional jump to `target`.
    pub fn jump(&mut self, target: &LabelId) {
        self.fixups.push((self.instrs.len(), target.0.clone()));
        self.emit(Instruction::Jump { target: u32::MAX });
    }

    /// Call: `rd = return address; pc = target`.
    pub fn jal(&mut self, rd: Reg, target: &LabelId) {
        self.fixups.push((self.instrs.len(), target.0.clone()));
        self.emit(Instruction::Jal { rd, target: u32::MAX });
    }

    /// Indirect jump (return).
    pub fn jr(&mut self, ra: Reg) {
        self.emit(Instruction::Jr { ra });
    }

    /// Acquire an atomic bit (busy-waits while held elsewhere).
    pub fn acquire(&mut self, bit: impl Into<Operand>) {
        self.emit(Instruction::Acquire { bit: bit.into() });
    }

    /// Release an atomic bit.
    pub fn release(&mut self, bit: impl Into<Operand>) {
        self.emit(Instruction::Release { bit: bit.into() });
    }

    /// Terminate the executing tasklet.
    pub fn stop(&mut self) {
        self.emit(Instruction::Stop);
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    /// Finalizes the program with default [`LinkOptions`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for unresolved labels, exhausted atomic
    /// bits, or link-time validation failures.
    pub fn build(self) -> Result<DpuProgram, BuildError> {
        self.build_with(&LinkOptions::default())
    }

    /// Finalizes the program with explicit link options.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for unresolved labels, exhausted atomic
    /// bits, or link-time validation failures.
    pub fn build_with(mut self, opts: &LinkOptions) -> Result<DpuProgram, BuildError> {
        if self.atomic_base + self.next_atomic_bit > pim_isa::layout::ATOMIC_BITS {
            return Err(BuildError::AtomicBitsExhausted);
        }
        for (at, label) in &self.fixups {
            let &target =
                self.labels.get(label).ok_or_else(|| BuildError::UndefinedLabel(label.clone()))?;
            match &mut self.instrs[*at] {
                Instruction::Branch { target: t, .. }
                | Instruction::Jump { target: t }
                | Instruction::Jal { target: t, .. } => *t = target,
                other => unreachable!("fixup on non-control instruction {other}"),
            }
        }
        let heap_base = {
            // Heap starts 8-byte aligned after static data.
            let end = self.wram_base + self.wram.len() as u32;
            end.div_ceil(8) * 8
        };
        let program = DpuProgram {
            instrs: self.instrs,
            wram_init: self.wram,
            wram_base: self.wram_base,
            symbols: self.symbols,
            heap_base,
            atomic_base: self.atomic_base,
            atomic_bits_used: self.next_atomic_bit,
        };
        program.validate(opts)?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::AddressSpace;

    #[test]
    fn simple_loop_builds_and_resolves_labels() {
        let mut k = KernelBuilder::new();
        let i = k.reg("i");
        k.movi(i, 10);
        let top = k.label_here("loop");
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &top);
        k.stop();
        let p = k.build().unwrap();
        assert_eq!(p.instrs.len(), 4);
        assert_eq!(
            p.instrs[2],
            Instruction::Branch { cond: Cond::Ne, ra: Reg::r(0), rb: Operand::Imm(0), target: 1 }
        );
    }

    #[test]
    fn forward_labels_resolve() {
        let mut k = KernelBuilder::new();
        let done = k.fresh_label("done");
        let r = k.reg("r");
        k.movi(r, 1);
        k.jump(&done);
        k.emit(Instruction::Nop);
        k.place(&done);
        k.stop();
        let p = k.build().unwrap();
        assert_eq!(p.instrs[1], Instruction::Jump { target: 3 });
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut k = KernelBuilder::new();
        let ghost = k.fresh_label("ghost");
        k.jump(&ghost);
        k.stop();
        assert!(matches!(k.build(), Err(BuildError::UndefinedLabel(_))));
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn duplicate_label_panics() {
        let mut k = KernelBuilder::new();
        let l = k.fresh_label("l");
        k.place(&l);
        k.place(&l);
    }

    #[test]
    fn register_pool_allocates_and_recycles() {
        let mut k = KernelBuilder::new();
        let a = k.reg("a");
        let b = k.reg("b");
        assert_ne!(a, b);
        assert_eq!(k.reg("a"), a, "same name returns same register");
        k.release_reg("a");
        let c = k.reg("c");
        assert_eq!(c, a, "released register is reused");
    }

    #[test]
    #[should_panic(expected = "out of registers")]
    fn register_exhaustion_panics() {
        let mut k = KernelBuilder::new();
        for i in 0..25 {
            let _ = k.reg(&format!("r{i}"));
        }
    }

    #[test]
    fn wram_globals_are_aligned_and_visible() {
        let mut k = KernelBuilder::new();
        let a = k.global_zeroed("a", 3);
        let b = k.global_zeroed("b", 8);
        assert_eq!(a, 0);
        assert_eq!(b, 4, "a global must be 4-byte aligned");
        k.stop();
        let p = k.build().unwrap();
        let sym = p.symbol("b").unwrap();
        assert_eq!(sym.addr, 4);
        assert_eq!(sym.size, 8);
        assert_eq!(sym.space, AddressSpace::Wram);
        assert_eq!(p.heap_base, 16, "heap starts 8-aligned after data");
    }

    #[test]
    fn atomic_bit_exhaustion_detected_at_build() {
        let mut k = KernelBuilder::new();
        for _ in 0..257 {
            k.alloc_atomic_bit();
        }
        k.stop();
        assert!(matches!(k.build(), Err(BuildError::AtomicBitsExhausted)));
    }

    #[test]
    fn build_surfaces_link_errors() {
        let mut k = KernelBuilder::new();
        let r = k.reg("r");
        k.acquire(300); // invalid immediate bit
        k.movi(r, 0);
        k.stop();
        assert!(matches!(k.build(), Err(BuildError::Link(LinkError::BadAtomicBit { .. }))));
    }
}
