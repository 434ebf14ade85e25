//! The SIMT vector front-end (paper §V-A, Fig 11): an issue policy of the
//! two cycle loops, not a loop of its own.
//!
//! `warp_width` consecutive tasklets are grouped into a warp that issues one
//! instruction per cycle over the vector lanes. Control divergence is
//! handled with per-lane PCs: the scheduler rotates fairly among the
//! distinct PC groups present in a warp (a progress-guaranteeing
//! approximation of post-Volta independent thread scheduling — a pure
//! min-PC policy would deadlock intra-warp locks, which the PrIM barriers
//! exercise).
//!
//! The front-end is dependency-checked (issue gap of 1 with per-lane
//! operand forwarding) rather than revolver-gated: with at most two warps,
//! an 11-cycle same-warp dispatch gap would cap IPC at `2·W/11` and make
//! the paper's reported SIMT speedups unreachable; the vector design point
//! therefore assumes the forwarding-enabled pipeline (see `DESIGN.md` §5).
//!
//! The **address coalescer** (`+AC`) merges the grouped scalar accesses:
//! per-lane DMA transfers whose address ranges touch are fused into fewer,
//! larger memory-engine requests (amortizing per-request setup and keeping
//! the DRAM row open), and scratchpad accesses falling in the same 64 B
//! segment share one port slot instead of serializing per lane.
//!
//! Both loops — the issue engine and the reference loop — keep one lane
//! per tasklet under one rule: **the lanes of a warp carry the warp's
//! state**. Every live lane shares its warp's issue window, and every live
//! lane of a warp with DMA in flight waits on memory, so the loops'
//! issuable set, TLP count, idle attribution and idle fast-forward compute
//! per lane what a per-warp loop would. Only the issue step differs:
//! [`Warps::issue`], called by both loops, which book its [`Issued`] in
//! their lane state. A request's token is its warp's index.

use pim_isa::InstrClass;
use pim_trace::{StallCause, TraceEvent, TraceSink};

use crate::compiled::{CompiledKernel, F_LOAD, F_STORE};
use crate::config::{DpuConfig, SimtConfig};
use crate::error::SimError;
use crate::exec::{ArchState, Effect};
use crate::mem::{MemEngine, Segment};
use crate::sched::Dispatch;
use crate::stats::DpuRunStats;

const NREGS: usize = pim_isa::NUM_GP_REGS as usize;

/// What one warp issue did to the warp's lanes; nothing, on a stall.
#[derive(Default)]
pub(crate) struct Issued {
    /// The warp's live lanes that did not stop; they wait for the next cycle
    /// or, when `dma`, on memory.
    pub lanes: u32,
    /// Lanes that executed `stop` (their stop cycle is booked).
    pub stopped: u32,
    /// Whether the warp now waits on memory.
    pub dma: bool,
    /// Issue-stage block: split RF banks, WRAM port slots past the first.
    pub rf_block: u64,
}

/// The SIMT front-end of one launch: configuration, per-warp issue state,
/// the per-lane forwarding scoreboard, and scratch buffers reused so that
/// the steady state performs no heap allocation.
#[derive(Clone)]
pub(crate) struct Warps {
    simt: SimtConfig,
    n: usize,
    width: usize,
    rf_hazards: bool,
    fwd_alu: u64,
    fwd_load: u64,
    /// Round-robin cursor: the first lane past the warp picked last.
    rr: usize,
    /// Memory requests in flight, per warp.
    pending: Vec<u32>,
    /// Rotation counter for fair PC-group selection, per warp.
    rotation: Vec<usize>,
    /// Forwarding scoreboard, flattened: register `r` of lane `l` is ready
    /// at `reg_ready[l * NREGS + r]`.
    reg_ready: Vec<u64>,
    pcs: Vec<u32>,
    segments: Vec<Segment>,
    slots: Vec<u32>,
}

impl Warps {
    /// The front-end of a launch under `cfg`, which must configure SIMT.
    /// `rf_hazards`: whether same-bank source pairs cost issue slots.
    pub(crate) fn new(cfg: &DpuConfig, rf_hazards: bool) -> Self {
        let simt = cfg.simt.expect("a SIMT configuration");
        let n = cfg.n_tasklets as usize;
        let width = simt.warp_width as usize;
        let warps = n.div_ceil(width);
        Warps {
            simt,
            n,
            width,
            rf_hazards,
            fwd_alu: u64::from(cfg.forward_alu_latency),
            fwd_load: u64::from(cfg.forward_load_latency),
            rr: 0,
            pending: vec![0; warps],
            rotation: vec![0; warps],
            reg_ready: vec![0; n * NREGS],
            pcs: Vec::with_capacity(width),
            segments: Vec::with_capacity(width),
            slots: Vec::with_capacity(width),
        }
    }

    /// The lanes of warp `w`, as a mask.
    fn lanes(&self, w: usize) -> u32 {
        let (lo, hi) = (w * self.width, ((w + 1) * self.width).min(self.n));
        ((1u32 << hi) - 1) & !((1u32 << lo) - 1)
    }

    /// A completion of one of warp `token`'s requests: the warp's lanes
    /// when it was the last in flight, else none.
    pub(crate) fn complete(&mut self, token: u64) -> u32 {
        let w = token as usize;
        self.pending[w] -= 1;
        if self.pending[w] == 0 {
            self.lanes(w)
        } else {
            0
        }
    }

    /// Issues one warp at cycle `now` out of the loop's `issuable` lanes:
    /// the warp of the first one at or after the round-robin cursor, and of
    /// its PC groups the first, in rotation order, whose operands are all
    /// forwarded. The group's lanes execute through `D`, their DMA goes to
    /// `mem` (coalesced under `+AC`), and the cycle is booked active. With
    /// no group forwarded, the cycle is a pipeline stall, booked as
    /// Revolver idle time. The cursor and the rotation advance either way.
    ///
    /// # Errors
    ///
    /// [`SimError::PcOutOfRange`] or a lane's execution fault.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn issue<D: Dispatch, S: TraceSink>(
        &mut self,
        issuable: u32,
        now: u64,
        kernel: &CompiledKernel,
        state: &mut ArchState,
        stats: &mut DpuRunStats,
        mem: &mut MemEngine,
        sink: &mut S,
    ) -> Result<Issued, SimError> {
        let ahead = issuable & !((1u32 << self.rr) - 1);
        let w = (if ahead != 0 { ahead } else { issuable }).trailing_zeros() as usize / self.width;
        // The warp is issuable, so all its live lanes are.
        let live = issuable & self.lanes(w);
        self.rr = ((w + 1) * self.width).min(self.n);

        self.pcs.clear();
        self.pcs.extend(bits(live).map(|l| state.pc[l]));
        self.pcs.sort_unstable();
        self.pcs.dedup();
        let rot = self.rotation[w];
        self.rotation[w] = rot.wrapping_add(1);
        let group =
            |pc: u32| bits(live).filter(|&l| state.pc[l] == pc).fold(0u32, |m, l| m | 1 << l);
        let forwarded = |pc: u32| match kernel.ops.get(pc as usize) {
            // A pc out of range faults at execution.
            None => true,
            Some(op) => bits(group(pc)).all(|l| {
                let row = &self.reg_ready[l * NREGS..(l + 1) * NREGS];
                bits(op.src_mask).all(|r| row[r] <= now)
            }),
        };
        let len = self.pcs.len();
        let Some(pc) = (0..len).map(|k| self.pcs[(rot + k) % len]).find(|&pc| forwarded(pc)) else {
            stats.record_idle_span(1, 1, 0);
            if sink.enabled() {
                sink.emit(TraceEvent::Stall { cycle: now, cycles: 1, cause: StallCause::Revolver });
            }
            return Ok(Issued::default());
        };
        let active = group(pc);
        let Some(op) = kernel.ops.get(pc as usize) else {
            return Err(SimError::PcOutOfRange { pc, tasklet: active.trailing_zeros() });
        };

        let mut rf_block = if self.rf_hazards { u64::from(op.rf_hazard) } else { 0 };
        if op.flags & (F_LOAD | F_STORE) != 0 {
            let slots = if self.simt.coalescing {
                // One slot per `wram_ports` distinct 64 B segments (banked
                // WRAM).
                self.slots.clear();
                self.slots.extend(
                    bits(active)
                        .map(|l| state.regs[l][op.b as usize].wrapping_add(op.imm as u32) / 64),
                );
                self.slots.sort_unstable();
                self.slots.dedup();
                (self.slots.len() as u32).div_ceil(self.simt.wram_ports.max(1)).max(1)
            } else {
                active.count_ones()
            };
            rf_block += u64::from(slots) - 1;
        }

        self.segments.clear();
        let mut stopped = 0u32;
        for l in bits(active) {
            let effect = D::execute(kernel, state, l as u32, pc)?;
            stats.count_instruction_idx(op.class_idx as usize, l as u32);
            if sink.enabled() {
                let class = InstrClass::ALL[op.class_idx as usize];
                let instr = &kernel.instrs[pc as usize];
                let retried = effect == Effect::AcquireRetry;
                state.trace_retire(sink, now, l as u32, pc, class, instr, retried);
            }
            if let Some(rd) = op.dst() {
                let lat = if op.is_load() { self.fwd_load } else { self.fwd_alu };
                self.reg_ready[l * NREGS + rd as usize] = now + lat;
            }
            match effect {
                Effect::Advance => state.pc[l] = pc + 1,
                Effect::Jump(target) => state.pc[l] = target,
                Effect::AcquireRetry => {}
                Effect::Stop => {
                    stopped |= 1 << l;
                    stats.tasklet_stop_cycle[l] = now;
                }
                Effect::Dma { mram, len, write } => {
                    state.pc[l] = pc + 1;
                    self.segments.push(Segment { addr: mram, bytes: len, write });
                }
            }
        }
        let dma = !self.segments.is_empty();
        if dma && self.simt.coalescing {
            // Merge touching ranges of the same direction into one request.
            self.segments.sort_by_key(|s| (s.write, s.addr));
            self.segments.dedup_by(|s, prev| {
                let touches = prev.write == s.write && s.addr <= prev.addr + prev.bytes;
                if touches {
                    prev.bytes = (s.addr + s.bytes).max(prev.addr + prev.bytes) - prev.addr;
                }
                touches
            });
            self.pending[w] = 1;
            mem.issue_traced(sink, w as u64, &self.segments, now, true);
        } else if dma {
            // One engine request per lane: per-request setup is paid for
            // every scalar transfer, as in the uncoalesced design.
            self.pending[w] = self.segments.len() as u32;
            for s in &self.segments {
                mem.issue_traced(sink, w as u64, std::slice::from_ref(s), now, true);
            }
        }
        stats.active_cycles += 1;
        Ok(Issued { lanes: live & !stopped, stopped, dma, rf_block })
    }
}

/// The set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}
