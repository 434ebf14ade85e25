//! # pim-asm
//!
//! The software toolchain of the simulation framework: a textual
//! **assembler**, a flexible **linker**, and a Rust **kernel-builder eDSL**
//! with a small DPU runtime library (barriers, mutexes, a WRAM heap).
//!
//! The paper's PIMulator reuses UPMEM's LLVM compiler as-is but replaces the
//! SDK's linker/assembler with a custom one, because the stock linker is
//! "specifically tied to UPMEM-PIM's microarchitecture": it refuses programs
//! whose IRAM/WRAM footprint exceeds the physical capacities, which blocks
//! architectural exploration such as the cache-vs-scratchpad study (§V-D).
//! This crate plays the same role. In particular, [`LinkOptions`] can relax
//! the WRAM capacity check so a program's data image may exceed 64 KB and be
//! re-mapped onto the DRAM-backed flat address space by the cache-centric
//! DPU model.
//!
//! Since no UPMEM C compiler exists for this ISA, kernels are authored
//! either in assembly text ([`assemble`]) or — the way the bundled PrIM
//! suite is written — through [`KernelBuilder`], a structured instruction
//! emitter (see `DESIGN.md` §1 for why this substitution preserves the
//! paper's results).
//!
//! # Example: assembling text
//!
//! ```
//! use pim_asm::assemble;
//!
//! let program = assemble(
//!     r#"
//!     .data
//! counter: .word 0
//!     .text
//! main:
//!     movi r0, counter
//!     lw   r1, 0(r0)
//!     add  r1, r1, 1
//!     sw   r1, 0(r0)
//!     stop
//! "#,
//! )
//! .unwrap();
//! assert_eq!(program.instrs.len(), 5);
//! assert_eq!(program.symbol("counter").unwrap().addr, 0);
//! ```
//!
//! # Example: building a kernel in Rust
//!
//! ```
//! use pim_asm::KernelBuilder;
//! use pim_isa::{AluOp, Cond};
//!
//! let mut k = KernelBuilder::new();
//! let i = k.reg("i");
//! k.movi(i, 10);
//! let top = k.label_here("loop");
//! k.alu(AluOp::Sub, i, i, 1);
//! k.branch(Cond::Ne, i, 0, &top);
//! k.stop();
//! let program = k.build().unwrap();
//! assert_eq!(program.instrs.len(), 4);
//! ```

pub(crate) mod asm_text;
pub mod builder;
pub mod program;
pub mod rt;

pub use asm_text::{assemble, disassemble, AsmError};
pub use builder::{BuildError, KernelBuilder, LabelId};
pub use program::{DpuProgram, LinkError, LinkOptions, Symbol};
pub use rt::{Barrier, HeapAllocator, Mutex};
