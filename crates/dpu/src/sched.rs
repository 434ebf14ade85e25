//! The DPU issue engine: the one optimized implementation of the issue
//! stage (14-stage revolver, even/odd RF hazard, blocking DMA wake-up —
//! paper §III, Table I).
//!
//! Every cycle runs the same five steps: drain memory completions, build
//! the issuable set, honour a register-file structural block, attribute and
//! fast-forward idle spans ([`Engine::next_cycle`]), then issue up to
//! `ways` instructions round-robin — or, under SIMT, one warp through the
//! front-end both loops share ([`Engine::run_warps`], `crate::simt`). The
//! scalar issue body is split into [`Engine::pre_issue`] (pc
//! bounds, I/D-cache fills) → [`Dispatch::step`], which returns the op's
//! word (`crate::compiled`) → [`Engine::retire`] (scoreboard, the pc the
//! word carries, wake-up refresh, and the end of the cycle when its last
//! way issued), and all scheduling state — including the in-cycle issue
//! cursor that two-way issue and cache stalls need — lives in the
//! [`Engine`] struct, so a run can be cloned and resumed mid-cycle.
//! [`Engine::run`] drives one DPU to completion. The lockstep driver
//! (`crate::batch`) runs the leader's engine one logged segment at a time
//! ([`Engine::run_segment`]), keeps a [`Checkpoint`] of each segment's
//! start, and gives a member whose effects disagree with the log its own
//! engine re-derived from that checkpoint ([`Checkpoint::diverge`]).
//!
//! The scalars the loop touches every cycle sit in [`Hot`], which
//! [`Engine::run`] copies into a local for the duration of the run: the
//! engine itself lends `mem`, `stats` and the caches to out-of-line calls,
//! which pins it in memory, whereas the local stays in registers. The
//! issue body is compiled twice from one source: `pre_issue` and `retire`
//! take `const PLAIN: bool`, which the entry points set from
//! [`Engine::is_plain`] so that the plain pipeline (every paper-baseline
//! launch) does not test its per-launch constants per instruction.
//!
//! Relative to the reference loop (`Dpu::run_scalar_naive`) nothing here
//! alters any simulated time:
//!
//! 1. scheduling facts (source mask, destination, hazard cost, class) come
//!    from the [`CompiledKernel`] op table, lowered once per
//!    [`crate::Dpu::load_program`], instead of re-matching the
//!    `Instruction` enum every cycle;
//! 2. event-driven wakeup: `ready_at[t]` caches each tasklet's earliest
//!    issue cycle (`max(next_issue, operand forwarding)`, `u64::MAX` while
//!    blocked or stopped), and the issuable set `{t : ready_at[t] <= now}`
//!    is *maintained* rather than recomputed ([`ReadySet`]): it changes only
//!    when a `ready_at[t]` is written or the clock moves, so a write files
//!    the tasklet under its wake-up cycle on a 64-slot timing wheel and a
//!    clock advance folds the slot of the new cycle into the set — O(1)
//!    per simulated cycle where the reference loop scans every tasklet;
//! 3. the issuable set is a bitmask (`MAX_TASKLETS = 24`): the TLP count
//!    is a popcount, booked once per run of cycles with equal counts
//!    ([`Engine::book_tlp`]), round-robin selection walks set bits with
//!    `trailing_zeros`, visiting tasklets in the reference order, and a
//!    second mask of blocked tasklets makes the idle attribution two
//!    popcounts;
//! 4. the memory path is event-driven too: `MemEngine::advance` runs only
//!    from the engine's cached due cycle on (`MemEngine::due` — before it
//!    the call is provably a no-op, which the reference loop demonstrates
//!    by making it on every visited cycle), idle spans fast-forward to that
//!    same cycle, and the steady state performs no heap allocation:
//!    completions drain into a reused buffer and DMA segments are stack
//!    arrays;
//! 5. the idle hop is O(1): a 64-bit occupancy mask of the wheel gives the
//!    earliest wake-up with a rotate and a `trailing_zeros`
//!    ([`ReadySet::min_at`]) where the reference loop takes a minimum over
//!    every tasklet, and the span is booked by
//!    [`DpuRunStats::record_idle_span`] as two integer multiply-adds
//!    (`DESIGN.md` §4, "Idle hop").

use pim_cache::Cache;
use pim_isa::InstrClass;
use pim_trace::{NullSink, StallCause, TraceEvent, TraceSink};

use crate::compiled::{
    word_of, CompiledKernel, CompiledOp, DMA, FAULT, F_LOAD, F_STORE, KIND, RETRY, STOP,
};
use crate::config::{Mutant, FORWARD_ALU_LATENCY, FORWARD_LOAD_LATENCY, REVOLVER_CYCLES};
use crate::dpu::{Dpu, IRAM_BACKING_BASE};
use crate::error::SimError;
use crate::exec::{ArchState, Effect};
use crate::mem::{MemEngine, Segment};
use crate::simt::{bits, Warps};
use crate::stats::DpuRunStats;

const NREGS: usize = pim_isa::NUM_GP_REGS as usize;

/// How the functional effect of the instruction at `pc` is computed. The
/// engine takes every scheduling fact from the op table either way; the
/// two implementations differ only in the execute step.
pub(crate) trait Dispatch {
    /// Executes the instruction at `pc` for `tasklet` and returns its word
    /// (`crate::compiled`): what the engine's issue body retires.
    fn step(kernel: &CompiledKernel, state: &mut ArchState, tasklet: u32, pc: u32) -> u64;

    /// [`Dispatch::step`], decoded: the effect, or the interpreter's fault.
    /// What the SIMT step and the lockstep followers compare and book.
    fn execute(
        kernel: &CompiledKernel,
        state: &mut ArchState,
        tasklet: u32,
        pc: u32,
    ) -> Result<Effect, SimError> {
        let word = Self::step(kernel, state, tasklet, pc);
        kernel.effect(state, tasklet, pc, word)
    }
}

/// [`crate::ExecTier::Compiled`]: one indexed load and one indirect call
/// into the monomorphic op function, operands pre-extracted.
pub(crate) struct CompiledDispatch;

impl Dispatch for CompiledDispatch {
    #[inline(always)]
    fn step(kernel: &CompiledKernel, state: &mut ArchState, tasklet: u32, pc: u32) -> u64 {
        kernel.step(state, tasklet, pc)
    }
}

/// [`crate::ExecTier::Fast`]: the decoded `Instruction` through the
/// interpreter's `match` ([`ArchState::execute`]).
pub(crate) struct FastDispatch;

impl Dispatch for FastDispatch {
    #[inline(always)]
    fn step(kernel: &CompiledKernel, state: &mut ArchState, tasklet: u32, pc: u32) -> u64 {
        Self::execute(kernel, state, tasklet, pc).map_or(FAULT, |effect| word_of(effect, pc))
    }

    #[inline(always)]
    fn execute(
        kernel: &CompiledKernel,
        state: &mut ArchState,
        tasklet: u32,
        pc: u32,
    ) -> Result<Effect, SimError> {
        state.execute(tasklet, &kernel.instrs[pc as usize])
    }
}

/// Entries of a per-tasklet array indexed by a bit of a tasklet mask, so
/// that such an index is in bounds by the array's type (`MAX_TASKLETS` ≤
/// 32).
const LANES: usize = u32::BITS as usize;

/// Slots on the timing wheel: every finite wake-up lies fewer than this
/// many cycles ahead and is filed under its own cycle.
const WHEEL_SLOTS: u64 = 64;

// A wake-up lies at most the revolver gap or a forwarding latency ahead of
// the cycle that places it (a memory completion wakes a tasklet no later
// than the window its last issue opened), so the wheel covers all of them.
const _: () = assert!(
    (REVOLVER_CYCLES as u64) < WHEEL_SLOTS
        && (FORWARD_ALU_LATENCY as u64) < WHEEL_SLOTS
        && (FORWARD_LOAD_LATENCY as u64) < WHEEL_SLOTS
);

/// The issuable set `{t : ready_at[t] <= now}`, maintained at the two kinds
/// of event that change it — a write to `ready_at[t]` ([`ReadySet::place`])
/// and the clock moving ([`ReadySet::advance`]) — instead of re-derived by
/// a scan.
///
/// `ready_at` is the truth; every tasklet with a finite entry `at` sits in
/// exactly one container: `ready` (`at <= now`) or wheel slot `at % 64`
/// (`now < at < now + 64`). The clock never moves past an occupied slot:
/// single steps visit every cycle, and the idle fast-forward lands no later
/// than [`ReadySet::min_at`].
///
/// `occupied` mirrors the wheel one bit per slot (bit `s` set exactly when
/// `wheel[s] != 0`): a slot fills only in [`ReadySet::place`] and empties
/// only when [`ReadySet::advance`] folds it into `ready`, so the mask is
/// kept at those two places and the earliest wake-up is one rotate and one
/// `trailing_zeros` away.
#[derive(Clone)]
struct ReadySet {
    /// Exact earliest issue cycle per tasklet; `u64::MAX` while blocked or
    /// stopped, and for every entry past the launch's tasklets.
    ready_at: [u64; LANES],
    ready: u32,
    wheel: [u32; WHEEL_SLOTS as usize],
    occupied: u64,
}

impl ReadySet {
    /// `n` tasklets, all issuable at cycle 0.
    fn new(n: usize) -> Self {
        let mut ready_at = [u64::MAX; LANES];
        ready_at[..n].fill(0);
        ReadySet { ready_at, ready: (1 << n) - 1, wheel: [0; WHEEL_SLOTS as usize], occupied: 0 }
    }

    /// Sets tasklet `t`'s earliest issue cycle and files it where `at`
    /// belongs. Only a tasklet that is in `ready` (it just issued, or
    /// missed a cache) or in no container (it was blocked) is ever
    /// re-placed — never one waiting in a slot.
    #[inline(always)]
    fn place(&mut self, now: u64, t: usize, at: u64) {
        debug_assert!(
            self.ready_at[t] <= now || self.ready_at[t] == u64::MAX,
            "re-placed out of a slot"
        );
        self.ready_at[t] = at;
        let bit = 1 << t;
        self.ready &= !bit;
        if at <= now {
            self.ready |= bit;
        } else if at != u64::MAX {
            debug_assert!(at - now < WHEEL_SLOTS, "a wake-up {at} beyond the wheel at {now}");
            let slot = at % WHEEL_SLOTS;
            self.wheel[slot as usize] |= bit;
            self.occupied |= 1 << slot;
        }
    }

    /// Moves the clock to `now`, which must not lie beyond
    /// [`ReadySet::min_at`] unless `ready` is non-empty already.
    #[inline(always)]
    fn advance(&mut self, now: u64) {
        let slot = now % WHEEL_SLOTS;
        self.ready |= std::mem::take(&mut self.wheel[slot as usize]);
        self.occupied &= !(1 << slot);
        debug_assert_eq!(self.ready, self.scan(now), "a wake-up was skipped or left behind");
    }

    /// The earliest wake-up still ahead of `now` — of any tasklet when
    /// `ready` is empty, which is when the idle fast-forward asks —
    /// `u64::MAX` when none is due.
    ///
    /// Slot `at % 64` holds `now < at < now + 64`, so rotating the
    /// occupancy mask down by `(now + 1) % 64` puts the slot of cycle
    /// `now + 1 + k` at bit `k`.
    #[inline(always)]
    fn min_at(&self, now: u64) -> u64 {
        let min = if self.occupied == 0 {
            u64::MAX
        } else {
            let ahead = self.occupied.rotate_right(((now + 1) % WHEEL_SLOTS) as u32);
            now + 1 + u64::from(ahead.trailing_zeros())
        };
        debug_assert_eq!(min, self.scan_min(now), "the occupancy mask lost track of the wheel");
        min
    }

    /// [`ReadySet::min_at`] by its definition.
    fn scan_min(&self, now: u64) -> u64 {
        self.ready_at.iter().copied().filter(|&at| at > now).min().unwrap_or(u64::MAX)
    }

    /// The issuable set by its definition: what `ready` must equal.
    fn scan(&self, now: u64) -> u32 {
        self.ready_at.iter().enumerate().fold(0, |set, (t, &at)| set | u32::from(at <= now) << t)
    }
}

/// The engine's per-cycle scalars: configuration-derived constants, the
/// clock and round-robin state, the TLP run under way, and — for two-way
/// issue and cache stalls — the in-cycle issue cursor.
#[derive(Clone, Copy)]
struct Hot {
    fwd: bool,
    /// Whether same-bank source pairs cost extra issue slots (off with a
    /// unified register file).
    rf_hazards: bool,
    ways: usize,
    gap: u64,
    max_cycles: u64,
    live: usize,
    /// Tasklets waiting on the memory system (DMA or cache fill).
    blocked: u32,
    now: u64,
    rf_block: u64,
    rr: usize,
    /// The TLP run under way: `tlp_run` cycles, not yet booked, each with
    /// `tlp_n` issuable tasklets ([`Engine::book_tlp`]).
    tlp_n: u32,
    tlp_run: u64,
    // In-cycle issue cursor, which the `PLAIN` instantiation never opens
    // (its one way closes the cycle in `retire`): candidates at or above
    // `rr` (`pending_hi`) go first, then the wrap-around (`pending_lo`).
    in_cycle: bool,
    pending_hi: u32,
    pending_lo: u32,
    issued: usize,
}

/// One retired instruction of a shared schedule, as the leader logs it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub tasklet: u32,
    pub pc: u32,
    pub effect: Effect,
}

/// How [`Engine::run_segment`] stopped.
#[derive(Debug)]
pub(crate) enum SegmentEnd {
    /// The segment's issue slots are used up; the run goes on.
    Full,
    /// Every tasklet stopped.
    Finished,
    /// The schedule itself ended the run (cycle limit, pc out of range):
    /// the outcome of every DPU still on it.
    Halted(SimError),
    /// The leader faulted executing the instruction handed out at this
    /// `(tasklet, pc)`, which therefore is not in the log. The engine
    /// stands before its retirement.
    Faulted(SimError, (usize, u32)),
}

/// An [`Engine`] frozen at a segment boundary ([`Engine::checkpoint`]),
/// with the program counters there.
pub(crate) struct Checkpoint {
    engine: Engine,
    pcs: Vec<u32>,
    timeline_len: usize,
}

impl Checkpoint {
    /// Takes a member off the shared schedule, whose engine `live` has
    /// run on since this checkpoint: re-steps the `agreed` logged
    /// instructions (everything retired since) on a copy of the frozen
    /// engine, hands out the next one — where the member's effect `own`
    /// differs from the leader's — retires it with `own`, and finishes
    /// the run alone. Returns the cycle and pc of that instruction beside
    /// the run's result; a member that faulted on it gets its fault.
    ///
    /// `state` is the member's, which already executed everything in
    /// `agreed`: a scratchpad-mode, untraced engine reads nothing of it
    /// but the program counters, which go back to the checkpoint's first.
    pub(crate) fn diverge(
        &self,
        live: &Engine,
        kernel: &CompiledKernel,
        state: &mut ArchState,
        agreed: &[Step],
        own: Result<Effect, SimError>,
    ) -> ((u64, u32), Result<DpuRunStats, SimError>) {
        let mut engine = self.engine.clone();
        debug_assert!(engine.icache.is_none() && engine.dcache.is_none());
        // The append-only statistic the checkpoint left out: its prefix
        // is still in the live engine.
        engine.stats.tlp_timeline = live.stats.tlp_timeline[..self.timeline_len].to_vec();
        state.pc.copy_from_slice(&self.pcs);
        // Re-stepping covers at most one segment: the general
        // instantiation serves, and `run` picks its own for the rest.
        let mut hot = engine.hot;
        for step in agreed {
            let slot = (step.tasklet as usize, step.pc);
            let handed = engine.pre_issue::<false, _>(&mut hot, kernel, state, &mut NullSink);
            debug_assert_eq!(handed, Ok(Some(slot)), "the log is the schedule");
            engine.retire_effect(&mut hot, kernel, state, slot, step.effect);
        }
        let slot = match engine.pre_issue::<false, _>(&mut hot, kernel, state, &mut NullSink) {
            Ok(Some(slot)) => slot,
            other => unreachable!("the leader issued here, the replay got {other:?}"),
        };
        let at = (hot.now, slot.1);
        let run = own.and_then(|effect| {
            engine.retire_effect(&mut hot, kernel, state, slot, effect);
            engine.hot = hot;
            engine.run::<CompiledDispatch, _>(kernel, state, &mut NullSink)
        });
        (at, run)
    }
}

/// The complete scheduling state of one run.
#[derive(Clone)]
pub(crate) struct Engine {
    hot: Hot,
    ready_set: ReadySet,
    next_issue: [u64; LANES],
    /// Forwarding scoreboard, flattened: register `r` of tasklet `t` is
    /// ready at `reg_ready[t * NREGS + r]`.
    reg_ready: Vec<u64>,
    skip_dcache: Vec<bool>,
    window_acc: (u64, u64),
    icache: Option<Cache>,
    dcache: Option<Cache>,
    /// The SIMT front-end, when the launch has one.
    warps: Option<Warps>,
    mem: MemEngine,
    stats: DpuRunStats,
    done_buf: Vec<(u64, u64)>,
}

impl Engine {
    /// A fresh engine for one launch on `dpu` over `mem`.
    pub(crate) fn new(dpu: &Dpu, mem: MemEngine) -> Self {
        let cfg = &dpu.cfg;
        let n = cfg.n_tasklets as usize;
        // SIMT forwards per PC group, at issue ([`Warps::issue`]).
        let fwd = cfg.ilp.data_forwarding && cfg.simt.is_none();
        let (icache, dcache) = dpu.caches();
        // The seeded scoreboard bug is read here and nowhere else: every
        // optimized run, solo or lockstep, starts from this constructor.
        let rf_hazards = !cfg.ilp.unified_rf && cfg.mutant != Some(Mutant::Scoreboard);
        Engine {
            hot: Hot {
                fwd,
                rf_hazards,
                ways: cfg.issue_ways() as usize,
                gap: if fwd { 1 } else { u64::from(REVOLVER_CYCLES) },
                max_cycles: cfg.max_cycles,
                live: n,
                blocked: 0,
                now: 0,
                rf_block: 0,
                rr: 0,
                tlp_n: 0,
                tlp_run: 0,
                in_cycle: false,
                pending_hi: 0,
                pending_lo: 0,
                issued: 0,
            },
            ready_set: ReadySet::new(n),
            next_issue: [0; LANES],
            reg_ready: vec![0; n * NREGS],
            skip_dcache: vec![false; n],
            window_acc: (0, 0),
            icache,
            dcache,
            warps: cfg.simt.map(|_| Warps::new(cfg, rf_hazards)),
            mem,
            stats: dpu.new_stats(),
            done_buf: Vec::with_capacity(n),
        }
    }

    /// Whether this launch is the plain pipeline — one issue way, no
    /// operand forwarding, scratchpad memory — which is every launch of
    /// the paper baseline. The issue body is compiled twice from one
    /// source ([`Engine::pre_issue`] and [`Engine::retire`] take `const
    /// PLAIN: bool`): the `PLAIN` instantiation drops those three
    /// per-launch constants out of the per-instruction path and, its one
    /// way never stalling, keeps no in-cycle cursor; the other serves
    /// every configuration. Fixed for the life of the engine.
    fn is_plain(&self) -> bool {
        self.hot.ways == 1 && !self.hot.fwd && self.icache.is_none() && self.dcache.is_none()
    }

    /// Drives the run to completion from wherever the engine stands
    /// (launch start, or mid-cycle after a lockstep divergence).
    pub(crate) fn run<D: Dispatch, S: TraceSink>(
        self,
        kernel: &CompiledKernel,
        state: &mut ArchState,
        sink: &mut S,
    ) -> Result<DpuRunStats, SimError> {
        if self.warps.is_some() {
            self.run_warps::<D, S>(kernel, state, sink)
        } else if self.is_plain() {
            self.run_as::<true, D, S>(kernel, state, sink)
        } else {
            self.run_as::<false, D, S>(kernel, state, sink)
        }
    }

    fn run_as<const PLAIN: bool, D: Dispatch, S: TraceSink>(
        mut self,
        kernel: &CompiledKernel,
        state: &mut ArchState,
        sink: &mut S,
    ) -> Result<DpuRunStats, SimError> {
        let mut hot = self.hot;
        while let Some(slot @ (t, pc)) =
            self.pre_issue::<PLAIN, S>(&mut hot, kernel, state, sink)?
        {
            let word = D::step(kernel, state, t as u32, pc);
            if word >= FAULT {
                return Err(kernel.fault(state, t as u32, pc));
            }
            let dma = |s: &ArchState| kernel.dma(s, t as u32, pc);
            self.retire::<PLAIN, S>(&mut hot, kernel, state, sink, slot, word, dma);
        }
        self.hot = hot;
        Ok(self.finish())
    }

    /// Seals the statistics of a finished run, booking the TLP run left.
    pub(crate) fn finish(mut self) -> DpuRunStats {
        let Hot { tlp_n, tlp_run, now, .. } = self.hot;
        self.stats.record_tlp_span(tlp_n as usize, tlp_run, &mut self.window_acc);
        self.stats.seal(now, &self.mem, self.icache, self.dcache)
    }

    /// Runs at most `slots` issue slots of the shared schedule on the
    /// leader's `state`, logging every retired instruction into `log`
    /// (cleared first) for the followers to replay. The engine stays
    /// resumable whatever the outcome.
    pub(crate) fn run_segment(
        &mut self,
        kernel: &CompiledKernel,
        state: &mut ArchState,
        log: &mut Vec<Step>,
        slots: usize,
    ) -> SegmentEnd {
        if self.is_plain() {
            self.run_segment_as::<true>(kernel, state, log, slots)
        } else {
            self.run_segment_as::<false>(kernel, state, log, slots)
        }
    }

    fn run_segment_as<const PLAIN: bool>(
        &mut self,
        kernel: &CompiledKernel,
        state: &mut ArchState,
        log: &mut Vec<Step>,
        slots: usize,
    ) -> SegmentEnd {
        let mut hot = self.hot;
        log.clear();
        let end = loop {
            if log.len() == slots {
                break SegmentEnd::Full;
            }
            let slot @ (t, pc) =
                match self.pre_issue::<PLAIN, _>(&mut hot, kernel, state, &mut NullSink) {
                    Ok(Some(slot)) => slot,
                    Ok(None) => break SegmentEnd::Finished,
                    Err(e) => break SegmentEnd::Halted(e),
                };
            let word = kernel.step(state, t as u32, pc);
            let effect = match kernel.effect(state, t as u32, pc, word) {
                Ok(effect) => effect,
                Err(e) => break SegmentEnd::Faulted(e, slot),
            };
            log.push(Step { tasklet: t as u32, pc, effect });
            let dma = |s: &ArchState| kernel.dma(s, t as u32, pc);
            self.retire::<PLAIN, _>(&mut hot, kernel, state, &mut NullSink, slot, word, dma);
        };
        self.hot = hot;
        end
    }

    /// Freezes the engine at a segment boundary, `pcs` being the program
    /// counters there.
    pub(crate) fn checkpoint(&mut self, pcs: &[u32]) -> Checkpoint {
        // Without the append-only statistic, so that a checkpoint costs
        // the same however long the run already is.
        let timeline = std::mem::take(&mut self.stats.tlp_timeline);
        let engine = self.clone();
        let timeline_len = timeline.len();
        self.stats.tlp_timeline = timeline;
        Checkpoint { engine, pcs: pcs.to_vec(), timeline_len }
    }

    /// `ready_at` for a Ready tasklet about to run `pc`: its issue window,
    /// pushed out to the cycle every source operand is forwardable (no
    /// push-out without the data-forwarding feature).
    #[inline(always)]
    fn earliest_issue(&self, fwd: bool, ops: &[CompiledOp], t: usize, pc: u32) -> u64 {
        let mut at = self.next_issue[t];
        if fwd {
            if let Some(op) = ops.get(pc as usize) {
                let row = &self.reg_ready[t * NREGS..(t + 1) * NREGS];
                let mut mask = op.src_mask;
                while mask != 0 {
                    at = at.max(row[mask.trailing_zeros() as usize]);
                    mask &= mask - 1;
                }
            }
        }
        at
    }

    /// Advances the schedule to the next instruction that is ready to
    /// execute and returns its `(tasklet, pc)`, or `None` once every
    /// tasklet has stopped. The caller executes it and reports the word
    /// through [`Engine::retire`] before calling again.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`], [`SimError::PcOutOfRange`] or
    /// [`SimError::DmaInCachedMode`]; the run is over.
    ///
    /// `PLAIN` may be set only when [`Engine::is_plain`] holds. Its one
    /// way issues the first issuable tasklet at or after the round-robin
    /// cursor — one mask and one `trailing_zeros` — and `retire` closes the
    /// cycle; the general instantiation opens an in-cycle cursor over the
    /// same order, which survives cache stalls and a second way.
    #[inline(always)]
    fn pre_issue<const PLAIN: bool, S: TraceSink>(
        &mut self,
        h: &mut Hot,
        kernel: &CompiledKernel,
        state: &ArchState,
        sink: &mut S,
    ) -> Result<Option<(usize, u32)>, SimError> {
        loop {
            if !PLAIN && h.in_cycle {
                // 5. Issue up to `ways` instructions, round-robin (`retire`
                // closes the cycle when the last way issues).
                loop {
                    let t = if h.pending_hi != 0 {
                        let t = h.pending_hi.trailing_zeros() as usize;
                        h.pending_hi &= h.pending_hi - 1;
                        t
                    } else if h.pending_lo != 0 {
                        let t = h.pending_lo.trailing_zeros() as usize;
                        h.pending_lo &= h.pending_lo - 1;
                        t
                    } else {
                        break;
                    };
                    // A candidate leaves the issuable set only by its own
                    // issue, and its pending bit went when it was picked.
                    debug_assert!(self.ready_set.ready & (1 << t) != 0);
                    let pc = state.pc[t];
                    let Some(op) = kernel.ops.get(pc as usize) else {
                        return Err(SimError::PcOutOfRange { pc, tasklet: t as u32 });
                    };
                    // Instruction fetch through the I-cache (cache-centric
                    // mode).
                    if let Some(ic) = self.icache.as_mut() {
                        let fetch_addr = IRAM_BACKING_BASE + pc * pim_isa::layout::IRAM_INSTR_BYTES;
                        let out = ic.access(fetch_addr, false);
                        if !out.hit {
                            let line = out.fill_line.expect("miss has a fill");
                            let fill =
                                Segment { addr: line, bytes: ic.config().line_bytes, write: false };
                            h.blocked |= 1 << t;
                            self.ready_set.place(h.now, t, u64::MAX);
                            self.mem.issue_traced(sink, t as u64, &[fill], h.now, false);
                            continue;
                        }
                    }
                    // Data access through the D-cache (cache-centric mode).
                    if let Some(dc) = self.dcache.as_mut() {
                        if op.is_dma() {
                            return Err(SimError::DmaInCachedMode { pc, tasklet: t as u32 });
                        }
                        if op.flags & (F_LOAD | F_STORE) != 0 {
                            if self.skip_dcache[t] {
                                self.skip_dcache[t] = false;
                            } else {
                                let addr = state.regs[t][op.b as usize].wrapping_add(op.imm as u32);
                                let out = dc.access(addr, op.flags & F_STORE != 0);
                                if !out.hit {
                                    let line_bytes = dc.config().line_bytes;
                                    let fill = Segment {
                                        addr: out.fill_line.expect("miss has a fill"),
                                        bytes: line_bytes,
                                        write: false,
                                    };
                                    let mut segs = [fill, fill];
                                    let mut n_segs = 1;
                                    if let Some(wb) = out.writeback_line {
                                        segs[1] =
                                            Segment { addr: wb, bytes: line_bytes, write: true };
                                        n_segs = 2;
                                    }
                                    h.blocked |= 1 << t;
                                    self.ready_set.place(h.now, t, u64::MAX);
                                    self.skip_dcache[t] = true;
                                    let segs = &segs[..n_segs];
                                    self.mem.issue_traced(sink, t as u64, segs, h.now, false);
                                    continue;
                                }
                            }
                        }
                    }
                    return Ok(Some((t, pc)));
                }
                // The candidates left all stalled on a cache fill.
                if h.issued > 0 {
                    self.stats.active_cycles += 1;
                } else {
                    self.stats.record_idle_span(1, 0, 1);
                    if sink.enabled() {
                        sink.emit(TraceEvent::Stall {
                            cycle: h.now,
                            cycles: 1,
                            cause: StallCause::Memory,
                        });
                    }
                }
                h.now += 1;
                self.ready_set.advance(h.now);
                h.in_cycle = false;
            }
            let Some(issuable) = self.next_cycle::<PLAIN, S>(h, kernel, state, sink)? else {
                return Ok(None);
            };
            let ahead = issuable & !((1u32 << h.rr) - 1);
            if PLAIN {
                let t = (if ahead != 0 { ahead } else { issuable }).trailing_zeros() as usize;
                let pc = state.pc[t];
                if pc as usize >= kernel.ops.len() {
                    return Err(SimError::PcOutOfRange { pc, tasklet: t as u32 });
                }
                return Ok(Some((t, pc)));
            }
            h.pending_hi = ahead;
            h.pending_lo = issuable & !ahead;
            h.issued = 0;
            h.in_cycle = true;
        }
    }

    /// Steps 1-4: moves the clock to the next cycle with an issuable
    /// tasklet, books its TLP into the run under way and returns the
    /// issuable set — `None` once every tasklet has stopped,
    /// [`SimError::CycleLimit`] at the limit.
    #[inline(always)]
    fn next_cycle<const PLAIN: bool, S: TraceSink>(
        &mut self,
        h: &mut Hot,
        kernel: &CompiledKernel,
        state: &ArchState,
        sink: &mut S,
    ) -> Result<Option<u32>, SimError> {
        let fwd = !PLAIN && h.fwd;
        loop {
            if h.live == 0 {
                return Ok(None);
            }
            let now = h.now;
            if now >= h.max_cycles {
                return Err(SimError::CycleLimit { limit: h.max_cycles });
            }
            // 1. Memory completions (skipped until the memory engine's due
            // cycle — `advance` would be a no-op).
            if now >= self.mem.due() {
                self.mem.advance(now);
                if sink.enabled() {
                    self.mem.drain_row_events(sink);
                }
                let mut done = std::mem::take(&mut self.done_buf);
                self.mem.drain_done_into(&mut done);
                for &(token, at) in &done {
                    self.mem.debug_assert_on_time(at, now);
                    // The last of a SIMT warp's requests wakes its lanes.
                    let woken = match self.warps.as_mut().filter(|_| !PLAIN) {
                        Some(warps) => warps.complete(token) & h.blocked,
                        None => 1 << token,
                    };
                    for t in bits(woken) {
                        h.blocked &= !(1 << t);
                        self.next_issue[t] = self.next_issue[t].max(at + 1);
                        let wake = self.earliest_issue(fwd, &kernel.ops, t, state.pc[t]);
                        self.ready_set.place(now, t, wake);
                    }
                    if sink.enabled() {
                        sink.emit(TraceEvent::DmaEnd { cycle: at, tasklet: token as u32 });
                    }
                }
                self.done_buf = done;
            }
            // 2. Issuable set as a bitmask (bit `t` = tasklet `t` can
            // issue). `ready_at` folds the status/window/operand triple of
            // the reference loop into one compare, and the ready set holds
            // the outcome of that compare for every tasklet.
            let issuable = self.ready_set.ready;
            // 3. Register-file structural block.
            if h.rf_block > 0 {
                self.book_tlp(h, issuable.count_ones(), 1);
                self.stats.idle_rf += 1;
                if sink.enabled() {
                    sink.emit(TraceEvent::Stall {
                        cycle: now,
                        cycles: 1,
                        cause: StallCause::RegisterFile,
                    });
                }
                h.rf_block -= 1;
                h.now = now + 1;
                self.ready_set.advance(h.now);
                continue;
            }
            // 4. Nothing to issue: attribute the idle span across the
            // per-tasklet wait reasons (paper Fig 6 categorizes by thread
            // status), then fast-forward to the next possible event.
            if issuable == 0 {
                let n_mem = h.blocked.count_ones() as usize;
                let n_sched = h.live - n_mem;
                // Landing no later than the earliest wake-up, the jump
                // passes no occupied wheel slot.
                let next = self.ready_set.min_at(now).min(self.mem.due());
                let next = if next == u64::MAX || next <= now { now + 1 } else { next };
                let span = (next - now).min(h.max_cycles - now);
                self.book_tlp(h, 0, span);
                self.stats.record_idle_span(span, n_sched, n_mem);
                if sink.enabled() {
                    sink.emit(TraceEvent::Stall {
                        cycle: now,
                        cycles: span,
                        cause: if n_mem >= n_sched {
                            StallCause::Memory
                        } else {
                            StallCause::Revolver
                        },
                    });
                }
                h.now = now + span;
                self.ready_set.advance(h.now);
                continue;
            }
            self.book_tlp(h, issuable.count_ones(), 1);
            return Ok(Some(issuable));
        }
    }

    /// Books `span` cycles with `n` issuable tasklets into the TLP run
    /// under way, and the run into the statistics when `n` ends it
    /// ([`Engine::finish`] books the last). The histogram and timeline are
    /// the same however the cycles are cut, so a run of equal counts costs
    /// one compare a cycle where a booking costs a histogram write and the
    /// window accounting.
    #[inline(always)]
    fn book_tlp(&mut self, h: &mut Hot, n: u32, span: u64) {
        if n != h.tlp_n {
            self.stats.record_tlp_span(h.tlp_n as usize, h.tlp_run, &mut self.window_acc);
            h.tlp_n = n;
            h.tlp_run = 0;
        }
        h.tlp_run += span;
    }

    /// [`Engine::run`] for a SIMT launch: each cycle with an issuable lane
    /// issues one warp ([`Warps::issue`]), booked in the lanes' state.
    fn run_warps<D: Dispatch, S: TraceSink>(
        mut self,
        kernel: &CompiledKernel,
        state: &mut ArchState,
        sink: &mut S,
    ) -> Result<DpuRunStats, SimError> {
        let mut hot = self.hot;
        while let Some(ready) = self.next_cycle::<false, S>(&mut hot, kernel, state, sink)? {
            let (now, warps) = (hot.now, self.warps.as_mut().expect("a SIMT launch has warps"));
            let (stats, mem) = (&mut self.stats, &mut self.mem);
            let w = warps.issue::<D, S>(ready, now, kernel, state, stats, mem, sink)?;
            for t in bits(w.lanes | w.stopped) {
                self.next_issue[t] = now + 1;
                let waits = w.dma || w.stopped >> t & 1 != 0;
                self.ready_set.place(now, t, if waits { u64::MAX } else { now + 1 });
            }
            hot.live -= w.stopped.count_ones() as usize;
            hot.blocked |= if w.dma { w.lanes } else { 0 };
            hot.rf_block = w.rf_block;
            hot.now = now + 1;
            self.ready_set.advance(hot.now);
        }
        self.hot = hot;
        Ok(self.finish())
    }

    /// Books the instruction [`Engine::pre_issue`] handed out, now that it
    /// executed with `word` (never a [`FAULT`]): instruction mix, issue
    /// window, forwarding scoreboard, pc / status / DMA (whose transfer
    /// `dma` reads back), the tasklet's wake-up entry — and, when this was
    /// the cycle's last way, the cycle: it was active, and the clock moves
    /// on.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn retire<const PLAIN: bool, S: TraceSink>(
        &mut self,
        h: &mut Hot,
        kernel: &CompiledKernel,
        state: &mut ArchState,
        sink: &mut S,
        (t, pc): (usize, u32),
        word: u64,
        dma: impl FnOnce(&ArchState) -> Segment,
    ) {
        let now = h.now;
        let op = &kernel.ops[pc as usize];
        self.stats.count_instruction_idx(op.class_idx as usize, t as u32);
        if sink.enabled() {
            let class = InstrClass::ALL[op.class_idx as usize];
            let (instr, retried) = (&kernel.instrs[pc as usize], word & KIND == RETRY);
            state.trace_retire(sink, now, t as u32, pc, class, instr, retried);
        }
        let fwd = !PLAIN && h.fwd;
        self.next_issue[t] = now + h.gap;
        if fwd {
            if let Some(rd) = op.dst() {
                let lat = if op.is_load() { FORWARD_LOAD_LATENCY } else { FORWARD_ALU_LATENCY };
                self.reg_ready[t * NREGS + rd as usize] = now + u64::from(lat);
            }
        }
        // Refresh the wakeup entry for the new PC / issue window.
        let wake = if word < STOP {
            // Advance, jump or a retried `acquire`: runnable at the pc the
            // word carries.
            state.pc[t] = word as u32;
            self.earliest_issue(fwd, &kernel.ops, t, state.pc[t])
        } else {
            if word & KIND == DMA {
                state.pc[t] = word as u32;
                h.blocked |= 1 << t;
                self.mem.issue_traced(sink, t as u64, &[dma(state)], now, false);
            } else {
                self.stats.tasklet_stop_cycle[t] = now;
                h.live -= 1;
            }
            u64::MAX
        };
        self.ready_set.place(now, t, wake);
        h.rr = t + 1;
        let rf_blocks = h.rf_hazards && op.rf_hazard > 0;
        if rf_blocks {
            // The split register file (even/odd banks) blocks the issue
            // stage: no further candidate issues this cycle.
            h.rf_block = u64::from(op.rf_hazard);
        }
        let last_way = PLAIN || {
            h.issued += 1;
            if rf_blocks {
                h.pending_hi = 0;
                h.pending_lo = 0;
            }
            h.issued == h.ways || h.pending_hi | h.pending_lo == 0
        };
        if last_way {
            self.stats.active_cycles += 1;
            h.now = now + 1;
            self.ready_set.advance(h.now);
            h.in_cycle = false;
        }
    }

    /// [`Engine::retire`] of an effect the leader logged, or a member
    /// computed on its own: what [`Checkpoint::diverge`] re-steps with, on
    /// a state whose registers may be ahead — so a DMA's transfer comes
    /// from the effect, not from them.
    fn retire_effect(
        &mut self,
        h: &mut Hot,
        kernel: &CompiledKernel,
        state: &mut ArchState,
        slot: (usize, u32),
        effect: Effect,
    ) {
        let dma = |_: &ArchState| match effect {
            Effect::Dma { mram, len, write } => Segment { addr: mram, bytes: len, write },
            other => unreachable!("{other:?} issued a DMA"),
        };
        let word = word_of(effect, slot.1);
        self.retire::<false, _>(h, kernel, state, &mut NullSink, slot, word, dma);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_rng::StdRng;

    /// `ready` and the earliest wake-up ahead against their definitions,
    /// and every tasklet with a finite wake-up in exactly one container,
    /// inside that container's window.
    fn check(set: &ReadySet, now: u64) {
        assert_eq!(set.ready, set.scan(now), "ready set at cycle {now}");
        assert_eq!(set.min_at(now), set.scan_min(now), "earliest wake-up at cycle {now}");
        for (t, &at) in set.ready_at.iter().enumerate() {
            let bit = 1u32 << t;
            let slots: Vec<u64> =
                (0..WHEEL_SLOTS).filter(|&s| set.wheel[s as usize] & bit != 0).collect();
            let homes = usize::from(set.ready & bit != 0) + slots.len();
            assert_eq!(homes, usize::from(at != u64::MAX), "tasklet {t} (at {at}) at cycle {now}");
            for s in slots {
                assert!(
                    now < at && at - now < WHEEL_SLOTS && at % WHEEL_SLOTS == s,
                    "slot {s}: at {at}, now {now}"
                );
            }
        }
        for s in 0..WHEEL_SLOTS {
            assert_eq!(set.occupied >> s & 1 != 0, set.wheel[s as usize] != 0, "slot {s}");
        }
    }

    /// Seeded op streams — issue (re-place a ready tasklet ahead), block,
    /// stop, completion (place a blocked tasklet), single-cycle ticks and
    /// idle jumps up to the minimum — with the invariant checked after
    /// every step. Wake-ups go as far ahead as the wheel reaches; idle
    /// jumps must occur (none pending is checked wherever it occurs).
    #[test]
    fn ready_set_matches_its_definition() {
        let mut jumps = 0u32;
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..25usize);
            let gap = rng.gen_range(1..24u64);
            let mut set = ReadySet::new(n);
            let mut now = 0u64;
            let mut blocked = 0u32;
            check(&set, now);
            for _ in 0..4000 {
                let t = rng.gen_range(0..n);
                let ahead = [0, 1, gap, 63][rng.gen_range(0..4usize)];
                match rng.gen_range(0..8u32) {
                    // Issue, D-cache-miss block and stop take a ready tasklet.
                    0..=2 if set.ready & (1 << t) != 0 => set.place(now, t, now + ahead),
                    3 if set.ready & (1 << t) != 0 => {
                        blocked |= 1 << t;
                        set.place(now, t, u64::MAX);
                    }
                    // Rarely, so that tasklets are left to the end of the stream.
                    4 if set.ready & (1 << t) != 0 && rng.gen_range(0..64u32) == 0 => {
                        set.place(now, t, u64::MAX);
                    }
                    // A completion wakes a blocked one.
                    5 if blocked & (1 << t) != 0 => {
                        blocked &= !(1 << t);
                        set.place(now, t, now + ahead);
                    }
                    6 => {
                        now += 1;
                        set.advance(now);
                    }
                    // The idle fast-forward: to the minimum, or short of it
                    // (a memory event falls due first).
                    7 if set.ready == 0 && set.min_at(now) != u64::MAX => {
                        jumps += 1;
                        let span = set.min_at(now) - now;
                        now += if rng.gen_range(0..2u32) == 0 {
                            span
                        } else {
                            rng.gen_range(1..span + 1)
                        };
                        set.advance(now);
                    }
                    _ => continue,
                }
                check(&set, now);
            }
        }
        assert!(jumps > 0, "no idle jump");
    }
}
