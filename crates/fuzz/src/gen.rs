//! Seeded, structured, coverage-biasable program generation.
//!
//! The generator emits *schedule-independent* SPMD kernels over the full
//! `pim-isa` surface: every tasklet computes in a private WRAM slab and a
//! private MRAM window, shared state changes only under a mutex with one
//! commutative-associative operator per program, heap blocks receive
//! address-derived (never arrival-order-derived) values, and barriers
//! separate the phases. Any end-state or timing divergence between
//! executors therefore indicts an executor, never the program.
//!
//! Program bodies are assembled from a table of *snippets*, each tagged
//! with the (instruction class × hazard kind) coverage cells it can hit —
//! duplicate-source ALU ops, same-bank stores, duplicate-pointer DMA,
//! divergent branches, subroutine calls, heap allocation, DMA bursts. A
//! campaign passes the currently-unhit cell as [`GenOptions::focus`] and
//! the generator biases snippet selection toward it.

use crate::coverage::HazardKind;
use crate::{ExecMode, FuzzCase};
use pim_asm::{Barrier, HeapAllocator, KernelBuilder, Mutex};
use pim_isa::{AluOp, Cond, InstrClass};
use pim_rng::StdRng;

/// Per-tasklet private WRAM slab size in bytes.
pub(crate) const SLAB_BYTES: i32 = 256;
/// Per-tasklet private MRAM window stride in bytes.
pub(crate) const MRAM_WINDOW: i32 = 1024;
/// Base MRAM address of the first tasklet's window.
pub(crate) const MRAM_BASE: i32 = 4096;

/// Commutative-associative operators safe for cross-tasklet accumulation:
/// the final shared value is a fold independent of update order.
const SHARED_OPS: [AluOp; 4] = [AluOp::Add, AluOp::Xor, AluOp::Min, AluOp::Max];

const PRIVATE_OPS: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Xor,
    AluOp::And,
    AluOp::Or,
    AluOp::Mul,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Min,
    AluOp::Max,
];

const DMA_LENS: [i32; 4] = [8, 32, 128, 256];

/// What to generate: execution context plus an optional coverage cell to
/// bias toward.
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Tasklet count the program runs with.
    pub tasklets: u32,
    /// Executor configuration the case targets.
    pub mode: ExecMode,
    /// Coverage cell to bias snippet selection toward, if any.
    pub focus: Option<(InstrClass, HazardKind)>,
    /// Bias snippet selection toward small data-dependent gather probes
    /// (the `DmaGather` snippet: 8-byte `ldma`s at value-derived offsets
    /// inside the private MRAM window). `false` leaves the historical
    /// draw sequence untouched, so committed seed corpus entries
    /// regenerate byte-identically.
    pub gather: bool,
    /// Number of chained launches the emitted case requests (≥ 1; the
    /// gauntlet re-launches the same loaded program with WRAM/MRAM
    /// persisting).
    pub launches: u32,
}

/// One body snippet the generator can emit, tagged (via
/// [`Snippet::hits`]) with the coverage cells it reaches.
///
/// Register-bank parity is what distinguishes the hazard columns: the
/// named registers allocate in order, so `t`/`v`/`i`/`s1` sit in the even
/// bank and `p`/`w`/`s0`/`s2` in the odd bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Snippet {
    ArithImm,
    ArithSameBank,
    ArithDup,
    CounterMix,
    WramRoundTrip,
    StoreSameBank,
    StoreDup,
    ByteLoads,
    BranchSkip,
    BranchSameBank,
    BranchDup,
    Call,
    DmaNone,
    DmaSameBank,
    DmaDup,
    DmaBurst,
    /// Small `ldma`s at data-dependent offsets: irregular gather traffic.
    /// Deliberately *not* in [`BODY_SNIPPETS`] — the base draw sequence
    /// (and thus every committed seed corpus entry) stays byte-identical;
    /// gather cases come only from [`GenOptions::gather`] biasing.
    DmaGather,
    HeapBlock,
    Divergent,
}

const BODY_SNIPPETS: [Snippet; 18] = [
    Snippet::ArithImm,
    Snippet::ArithSameBank,
    Snippet::ArithDup,
    Snippet::CounterMix,
    Snippet::WramRoundTrip,
    Snippet::StoreSameBank,
    Snippet::StoreDup,
    Snippet::ByteLoads,
    Snippet::BranchSkip,
    Snippet::BranchSameBank,
    Snippet::BranchDup,
    Snippet::Call,
    Snippet::DmaNone,
    Snippet::DmaSameBank,
    Snippet::DmaDup,
    Snippet::DmaBurst,
    Snippet::HeapBlock,
    Snippet::Divergent,
];

impl Snippet {
    /// The (class, hazard) coverage cells this snippet's emitted
    /// instructions land in (used for focus biasing).
    fn hits(self, class: InstrClass, hz: HazardKind) -> bool {
        use HazardKind as H;
        use InstrClass as C;
        match self {
            Snippet::ArithImm | Snippet::CounterMix => (class, hz) == (C::Arithmetic, H::None),
            Snippet::ArithSameBank => (class, hz) == (C::Arithmetic, H::SameBank),
            Snippet::ArithDup => (class, hz) == (C::Arithmetic, H::DupSource),
            Snippet::WramRoundTrip | Snippet::ByteLoads => (class, hz) == (C::LoadStore, H::None),
            Snippet::StoreSameBank => (class, hz) == (C::LoadStore, H::SameBank),
            Snippet::StoreDup | Snippet::HeapBlock => (class, hz) == (C::LoadStore, H::DupSource),
            Snippet::BranchSkip | Snippet::Divergent => (class, hz) == (C::Control, H::None),
            Snippet::BranchSameBank => (class, hz) == (C::Control, H::SameBank),
            Snippet::BranchDup => (class, hz) == (C::Control, H::DupSource),
            Snippet::Call => class == C::Control && hz == H::None,
            Snippet::DmaNone | Snippet::DmaGather => (class, hz) == (C::Dma, H::None),
            Snippet::DmaSameBank => (class, hz) == (C::Dma, H::SameBank),
            Snippet::DmaDup | Snippet::DmaBurst => class == C::Dma && hz != H::SameBank,
        }
    }
}

/// Generates one random schedule-independent program for the given
/// context, deterministically from `seed`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn generate(seed: u64, opts: &GenOptions) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = opts.tasklets;
    let mut k = KernelBuilder::new();
    let slab = k.global_zeroed("slab", (SLAB_BYTES * n as i32) as u32);
    let shared = k.global_zeroed("shared", 4);
    let arena = k.global_zeroed("arena", 4096);
    let bar = Barrier::alloc(&mut k, n);
    let mutex = Mutex::alloc(&mut k);
    let heap = HeapAllocator::alloc(&mut k);
    let shared_op = *rng.choose(&SHARED_OPS);
    // Allocation order fixes bank parity: even bank t/v/i/s1, odd p/w/s0/s2.
    let [t, p, v, w, i, s0, s1, s2] = k.regs(["t", "p", "v", "w", "i", "s0", "s1", "s2"]);
    // One fixed heap block size per program keeps the allocated address
    // set schedule-independent (same-size blocks are interchangeable).
    let heap_block = 8 * rng.gen_range(1i32..9);
    let subr = k.fresh_label("subr");
    let mut called_subr = false;

    // Private slab pointer and a tid-derived working value.
    k.tid(t);
    k.mul(p, t, SLAB_BYTES);
    k.add(p, p, slab as i32);
    k.mul(v, t, rng.gen_range(3i32..999));
    k.add(v, v, rng.gen_range(1i32..1000));

    // Tasklet 0 seeds the heap cursor; a barrier publishes it.
    let init_done = k.fresh_label("heap_init_done");
    k.branch(Cond::Ne, t, 0, &init_done);
    heap.init(&mut k, arena, [s0, s1]);
    k.place(&init_done);
    if n > 1 {
        bar.wait(&mut k, [s0, s1, s2]);
    }

    let focus_pool: Vec<Snippet> = match opts.focus {
        Some((class, hz)) => BODY_SNIPPETS.iter().copied().filter(|s| s.hits(class, hz)).collect(),
        None => Vec::new(),
    };

    let phases = rng.gen_range(1usize..4);
    for phase in 0..phases {
        // Phase body: a bounded private loop of random snippets.
        let iters = rng.gen_range(1i32..8);
        k.movi(i, iters);
        let top = k.label_here("phase_top");
        let mut heap_this_phase = false;
        for _ in 0..rng.gen_range(1usize..8) {
            let mut snip = if !focus_pool.is_empty() && rng.gen_ratio(3, 4) {
                *rng.choose(&focus_pool)
            } else {
                *rng.choose(&BODY_SNIPPETS)
            };
            // The gather knob is checked *after* the base draw (and only
            // when set) so a `gather: false` case consumes exactly the
            // historical RNG sequence.
            if opts.gather && rng.gen_ratio(1, 2) {
                snip = Snippet::DmaGather;
            }
            // `mem_alloc` is a bump allocator that cannot fail (or free):
            // unbounded allocation would walk the cursor off the end of the
            // arena into the barrier words behind it. One site per phase
            // (plus the first-iteration guard below) bounds heap use to
            // 3 phases x 16 tasklets x 64 B < the 4 KiB arena.
            if snip == Snippet::HeapBlock {
                if heap_this_phase {
                    snip = Snippet::StoreDup;
                } else {
                    heap_this_phase = true;
                }
            }
            match snip {
                // Pure arithmetic on the private value (no RF hazard:
                // immediate operand).
                Snippet::ArithImm => {
                    k.alu(*rng.choose(&PRIVATE_OPS), v, v, rng.gen_range(-900i32..900));
                }
                // v and i share the even bank: structural RF hazard.
                Snippet::ArithSameBank => k.alu(*rng.choose(&PRIVATE_OPS), v, v, i),
                // Duplicate source: w read twice by one instruction.
                Snippet::ArithDup => k.alu(*rng.choose(&PRIVATE_OPS), v, w, w),
                // Mix the loop counter in through a second register.
                Snippet::CounterMix => {
                    k.alu(*rng.choose(&PRIVATE_OPS), w, v, rng.gen_range(-900i32..900));
                    k.alu(AluOp::Xor, v, v, w);
                }
                // WRAM word round-trip inside the private slab.
                Snippet::WramRoundTrip => {
                    let off = 4 * rng.gen_range(0i32..SLAB_BYTES / 4);
                    k.sw(v, p, off);
                    k.lw(w, p, off);
                    k.add(v, v, w);
                }
                // w and p share the odd bank: hazardous store.
                Snippet::StoreSameBank => {
                    let off = 4 * rng.gen_range(0i32..SLAB_BYTES / 4);
                    k.mov(w, v);
                    k.sw(w, p, off);
                    k.lw(w, p, off);
                    k.alu(AluOp::Xor, v, v, w);
                }
                // Store reads p twice (value and base): duplicate source.
                Snippet::StoreDup => {
                    let off = rng.gen_range(0i32..SLAB_BYTES);
                    k.sb(p, p, off);
                    k.lbu(w, p, off);
                    k.add(v, v, w);
                }
                // Byte store + sign/zero-extending loads.
                Snippet::ByteLoads => {
                    let off = rng.gen_range(0i32..SLAB_BYTES);
                    k.sb(v, p, off);
                    if rng.gen_range(0u8..2) == 0 {
                        k.lbu(w, p, off);
                    } else {
                        k.lb(w, p, off);
                    }
                    k.alu(AluOp::Xor, v, v, w);
                }
                // Data-dependent forward branch over a side effect.
                Snippet::BranchSkip => {
                    let skip = k.fresh_label("skip");
                    let cond = *rng.choose(&[Cond::Eq, Cond::Ne, Cond::Lt, Cond::Geu]);
                    k.branch(cond, v, rng.gen_range(-5i32..50), &skip);
                    k.alu(*rng.choose(&PRIVATE_OPS), v, v, t);
                    k.place(&skip);
                }
                // Compare two even-bank registers: hazardous branch.
                Snippet::BranchSameBank => {
                    let skip = k.fresh_label("skip");
                    let cond = *rng.choose(&[Cond::Lt, Cond::Geu, Cond::Ne]);
                    k.branch(cond, v, i, &skip);
                    k.alu(*rng.choose(&PRIVATE_OPS), v, v, i);
                    k.place(&skip);
                }
                // v compared against itself: duplicate-source branch
                // (always taken — the guarded op is deliberately dead).
                Snippet::BranchDup => {
                    let skip = k.fresh_label("skip");
                    k.branch(Cond::Eq, v, v, &skip);
                    k.alu(*rng.choose(&PRIVATE_OPS), v, v, 13);
                    k.place(&skip);
                }
                // Subroutine call through the link register.
                Snippet::Call => {
                    k.jal(s2, &subr);
                    called_subr = true;
                }
                // DMA with even/odd pointer pair: no RF hazard.
                Snippet::DmaNone => {
                    let len = *rng.choose(&DMA_LENS);
                    k.mul(s1, t, MRAM_WINDOW);
                    k.add(s1, s1, MRAM_BASE + phase as i32 * 256);
                    k.sdma(p, s1, len);
                    k.ldma(p, s1, len);
                }
                // Both DMA pointers in the odd bank: hazardous DMA.
                Snippet::DmaSameBank => {
                    let len = *rng.choose(&DMA_LENS);
                    k.mul(w, t, MRAM_WINDOW);
                    k.add(w, w, MRAM_BASE + phase as i32 * 256);
                    k.sdma(p, w, len);
                    k.ldma(p, w, len);
                }
                // One register as both WRAM and MRAM pointer: the slab
                // address is valid (and private) in both spaces.
                Snippet::DmaDup => {
                    let len = *rng.choose(&[8i32, 32, 128, 256]);
                    k.sdma(p, p, len);
                    k.ldma(p, p, len);
                }
                // Small probes at data-dependent (value-derived) offsets
                // inside the private MRAM window: the irregular gather
                // pattern of sparse kernels. Deterministic because the
                // window and slab are private and `v` evolves from
                // tid-derived state only.
                Snippet::DmaGather => {
                    let probes = rng.gen_range(2i32..6);
                    k.mul(w, t, MRAM_WINDOW);
                    k.add(w, w, MRAM_BASE);
                    for _ in 0..probes {
                        // 8-aligned offset in [0, MRAM_WINDOW - 8].
                        k.alu(AluOp::And, s1, v, MRAM_WINDOW - 8);
                        k.add(s1, s1, w);
                        k.ldma(p, s1, 8);
                        k.lw(s0, p, 0);
                        k.alu(AluOp::Xor, v, v, s0);
                        k.add(v, v, 0x9e37);
                    }
                }
                // Back-to-back transfers streaming through the private
                // MRAM window: sustained memory-engine pressure.
                Snippet::DmaBurst => {
                    let len = *rng.choose(&[32i32, 64, 128, 256]);
                    let beats = rng.gen_range(2i32..5).min(1024 / len);
                    k.mul(s1, t, MRAM_WINDOW);
                    k.add(s1, s1, MRAM_BASE);
                    for _ in 0..beats {
                        k.sdma(p, s1, len);
                        k.add(s1, s1, len);
                    }
                }
                // Heap block with an address-derived payload: the block
                // address set is schedule-independent (one size fits all),
                // so writing each block's own address keeps the final
                // image deterministic under any allocation order.
                Snippet::HeapBlock => {
                    // Allocate only on the first loop iteration (`i` still
                    // holds `iters`) so repeated trips round the phase loop
                    // do not multiply heap use.
                    let skip = k.fresh_label("heap_skip");
                    k.branch(Cond::Ne, i, iters, &skip);
                    k.movi(s1, heap_block);
                    heap.mem_alloc(&mut k, s0, s1, s2);
                    k.sw(s0, s0, 0);
                    k.place(&skip);
                }
                // Tid-parity divergence: SIMT warps split and reconverge.
                Snippet::Divergent => {
                    let other = k.fresh_label("lane_odd");
                    let merge = k.fresh_label("lane_merge");
                    k.alu(AluOp::And, w, t, 1);
                    k.branch(Cond::Ne, w, 0, &other);
                    k.alu(*rng.choose(&PRIVATE_OPS), v, v, rng.gen_range(1i32..100));
                    k.jump(&merge);
                    k.place(&other);
                    k.alu(*rng.choose(&PRIVATE_OPS), v, v, rng.gen_range(1i32..100));
                    k.place(&merge);
                }
            }
        }
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &top);
        // Publish the private value into the slab.
        k.sw(v, p, 4 * (phase as i32 % (SLAB_BYTES / 4)));

        // Mutex-protected commutative shared update.
        let force_sync = matches!(opts.focus, Some((InstrClass::Sync, _)));
        if force_sync || rng.gen_range(0u8..3) > 0 {
            mutex.lock(&mut k);
            k.movi(s0, shared as i32);
            k.lw(s1, s0, 0);
            k.alu(shared_op, s1, s1, v);
            k.sw(s1, s0, 0);
            mutex.unlock(&mut k);
        }

        // Barrier between phases (and before stop) when tasklets share.
        if n > 1 {
            bar.wait(&mut k, [s0, s1, s2]);
        }
    }
    k.stop();
    if called_subr {
        k.place(&subr);
        k.alu(*rng.choose(&PRIVATE_OPS), v, v, 7);
        k.jr(s2);
    }
    let program = k.build().expect("generated program builds");
    let launches = opts.launches.max(1);
    let chain = if launches > 1 { format!(" x{launches}") } else { String::new() };
    FuzzCase {
        program,
        tasklets: n,
        mode: opts.mode,
        launches,
        label: format!("seed {seed:#x} {}/{n}{chain}", opts.mode.as_str()),
        mutant: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::{DecodedProgram, Reg};

    fn bank_parities_are_as_documented() -> ([Reg; 4], [Reg; 4]) {
        let mut k = KernelBuilder::new();
        let [t, p, v, w, i, s0, s1, s2] = k.regs(["t", "p", "v", "w", "i", "s0", "s1", "s2"]);
        ([t, v, i, s1], [p, w, s0, s2])
    }

    #[test]
    fn register_allocation_order_fixes_bank_parity() {
        let (even, odd) = bank_parities_are_as_documented();
        for r in even {
            assert_eq!(r.index() % 2, 0, "{r:?} must be even-bank");
        }
        for r in odd {
            assert_eq!(r.index() % 2, 1, "{r:?} must be odd-bank");
        }
    }

    fn base_opts(tasklets: u32) -> GenOptions {
        GenOptions { tasklets, mode: ExecMode::Scalar, focus: None, gather: false, launches: 1 }
    }

    #[test]
    fn generation_is_deterministic() {
        let opts = base_opts(4);
        let a = generate(42, &opts);
        let b = generate(42, &opts);
        assert_eq!(a.program.instrs, b.program.instrs);
        assert_eq!(a.program.wram_init, b.program.wram_init);
        assert_eq!(a.launches, 1);
    }

    #[test]
    fn distinct_seeds_give_distinct_programs() {
        let opts = base_opts(4);
        assert_ne!(generate(1, &opts).program.instrs, generate(2, &opts).program.instrs);
    }

    #[test]
    fn gather_off_means_no_gather_and_no_draw_perturbation() {
        // With the knob off the draw sequence is untouched, so the knob
        // can never change what committed seed entries regenerate to.
        for s in 0..8u64 {
            let a = generate(s, &base_opts(2));
            let b = generate(s, &GenOptions { gather: false, ..base_opts(2) });
            assert_eq!(a.program.instrs, b.program.instrs);
        }
    }

    #[test]
    fn gather_bias_emits_small_data_dependent_dmas() {
        use pim_isa::{Instruction, Operand};
        let opts = GenOptions { gather: true, ..base_opts(2) };
        let hits = (0..10u64)
            .filter(|&s| {
                generate(s, &opts)
                    .program
                    .instrs
                    .iter()
                    .any(|ins| matches!(ins, Instruction::Ldma { len: Operand::Imm(8), .. }))
            })
            .count();
        assert!(hits >= 8, "gather bias produced gather DMAs in only {hits}/10 programs");
    }

    #[test]
    fn requested_launches_land_in_the_case_and_label() {
        let case = generate(5, &GenOptions { launches: 3, ..base_opts(2) });
        assert_eq!(case.launches, 3);
        assert!(case.label.ends_with("x3"), "label {} should record the chain", case.label);
        // Zero is clamped: a case always launches at least once.
        assert_eq!(generate(5, &GenOptions { launches: 0, ..base_opts(2) }).launch_count(), 1);
    }

    #[test]
    fn focus_biases_generation_toward_the_cell() {
        use crate::coverage::{instr_hazard, HazardKind};
        // A cell the unfocused generator hits rarely: duplicate-source DMA.
        let opts =
            GenOptions { focus: Some((InstrClass::Dma, HazardKind::DupSource)), ..base_opts(2) };
        let hits = (0..20u64)
            .filter(|&s| {
                let case = generate(s, &opts);
                let d = DecodedProgram::decode(&case.program.instrs);
                (0..d.len() as u32).any(|pc| {
                    let di = d.get(pc).unwrap();
                    di.class == InstrClass::Dma && instr_hazard(di) == HazardKind::DupSource
                })
            })
            .count();
        assert!(hits >= 15, "focused generation hit the cell only {hits}/20 times");
    }
}
