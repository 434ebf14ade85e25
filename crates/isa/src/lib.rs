//! # pim-isa
//!
//! The instruction-set architecture of the simulated DPU (DRAM Processing
//! Unit), modelled after UPMEM's commercial general-purpose PIM processor as
//! characterized in *"Pathfinding Future PIM Architectures by Demystifying a
//! Commercial PIM Technology"* (HPCA 2024).
//!
//! The ISA reproduces the microarchitecturally load-bearing properties of the
//! real device:
//!
//! * a per-tasklet register file of 24 general-purpose 32-bit registers,
//!   physically split into an **even** and an **odd** bank (the source of the
//!   structural hazard the paper attributes `Idle(RF)` cycles to);
//! * **scratchpad-centric** memory semantics: `load`/`store` instructions can
//!   only address WRAM (the 64 KB scratchpad); the 64 MB per-bank DRAM
//!   (MRAM) is reachable exclusively through blocking **DMA** instructions;
//! * busy-waiting synchronization through `acquire`/`release` instructions
//!   operating on a 256-bit atomic memory region;
//! * a `stop` instruction terminating the executing tasklet.
//!
//! # Example
//!
//! ```
//! use pim_isa::{Instruction, AluOp, Reg, Operand};
//!
//! let add = Instruction::Alu {
//!     op: AluOp::Add,
//!     rd: Reg::r(2),
//!     ra: Reg::r(0),
//!     rb: Operand::Reg(Reg::r(1)),
//! };
//! assert_eq!(add.to_string(), "add r2, r0, r1");
//! assert_eq!(add.srcs().len(), 2);
//! ```

pub mod decoded;
pub mod instr;
pub mod layout;
pub mod reg;

pub use decoded::{BlockMap, DecodedInstr, DecodedProgram};
pub use instr::{AluOp, Cond, InstrClass, Instruction, Operand, Width};
pub use layout::AddressSpace;
pub use reg::{Reg, RegBank, NUM_GP_REGS};
