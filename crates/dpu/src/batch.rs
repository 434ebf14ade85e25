//! Rank-scale batched execution: a lockstep driver that runs the schedule
//! of many same-program DPUs once, by **log replay**.
//!
//! Same-program DPUs whose inputs differ only in *data* make identical
//! scheduling decisions (loop trips, DMA shapes, and branch directions
//! usually depend on staged sizes, not values), so while a group is
//! *timing-convergent* the scheduler, the scoreboard, the memory engine,
//! and the statistics run **once**, on the group leader's issue engine
//! (`crate::sched::Engine`, the same one [`Dpu::launch`] drives).
//!
//! The leader runs one *segment* at a time — `SEGMENT_SLOTS` issue
//! slots inside the engine's ordinary inlined loop — and logs every
//! retired instruction as `(tasklet, pc, Effect)`. Then each follower, on
//! its own and cache-hot, executes the logged instructions on its own
//! architectural state and compares each `Effect` with the logged one
//! (branch direction, DMA address/length, acquire outcome, and stop are
//! all visible there — in scratchpad mode those are the only
//! data-dependent timing inputs). Functional order equals issue order
//! equals log order, so a follower that reproduces the log has done
//! exactly what its own launch would have.
//!
//! The engine is checkpointed at the start of every segment. A follower
//! whose effect differs at log index *k* takes a copy of the checkpoint,
//! re-derives the engine as of *k* by re-stepping the *logged* effects,
//! retires instruction *k* with its own effect, and finishes alone on
//! `Engine::run` (a follower that faulted on it returns its error). **Only
//! that member leaves**: the rest keep following, and a leader whose
//! followers are all gone finishes on `Engine::run` itself. A leader
//! fault ends the shared schedule at that instruction for everybody; a
//! cycle limit or an out-of-range pc on the shared schedule is the
//! outcome of every member still on it. Lockstep is therefore a pure
//! optimization: byte-identical to per-DPU launches by construction (same
//! `DpuRunStats`, same memory end-state, regardless of group size or
//! membership). The differential tests (`tests/loop_differential.rs`) and
//! the pim-fuzz gauntlet's `batch` invariant pin this.
//!
//! Everything lockstep does not model — SIMT (a warp issue logs no steps),
//! the naive reference loop, event tracing, cache-centric mode (fill
//! timing depends on per-DPU load/store addresses, which the `Effect`
//! comparison does not witness, and the re-derivation could not
//! reproduce), non-uniform entry points, singleton runs — goes to
//! [`Dpu::launch`] per member, so [`run_batch`] is total over any
//! population; its [`LockstepSummary`] says which members went which way.

use pim_trace::NullSink;

use crate::compiled::CompiledKernel;
use crate::config::{ExecTier, MemoryMode, Mutant};
use crate::dpu::Dpu;
use crate::error::SimError;
use crate::exec::{ArchState, Effect};
use crate::sched::{CompiledDispatch, Dispatch, Engine, SegmentEnd, Step};
use crate::stats::DpuRunStats;

/// Issue slots the leader runs, and logs, before the followers replay
/// them. The log (24 bytes a slot) and one follower's scratchpad together
/// stay well inside a core's L2, and a leaving member re-derives at most
/// this many steps.
const SEGMENT_SLOTS: usize = 4096;

/// Why a DPU was launched on its own rather than in a lockstep group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ineligible {
    /// A SIMT front-end is configured.
    Simt,
    /// [`ExecTier::Naive`]: the reference loop, not the issue engine.
    NaiveTier,
    /// Structured event tracing is on.
    EventTrace,
    /// Cache-centric memory mode.
    CachedMode,
    /// Eligible, but with no compatible neighbour in the slice: alone in
    /// it, or next to a different program, configuration or entry points
    /// (or with nothing loaded).
    Singleton,
}

impl Ineligible {
    /// Every reason, in [`LockstepSummary`] order.
    pub(crate) const ALL: [Ineligible; 5] = [
        Ineligible::Simt,
        Ineligible::NaiveTier,
        Ineligible::EventTrace,
        Ineligible::CachedMode,
        Ineligible::Singleton,
    ];

    /// Short lower-case label.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Ineligible::Simt => "simt",
            Ineligible::NaiveTier => "naive tier",
            Ineligible::EventTrace => "event trace",
            Ineligible::CachedMode => "cached mode",
            Ineligible::Singleton => "singleton",
        }
    }
}

/// Where a member left its group's shared schedule: the first instruction
/// on which its effect differed from the leader's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the member in the launched slice.
    pub dpu: u32,
    /// Cycle the instruction issued on.
    pub cycle: u64,
    /// Its program counter.
    pub pc: u32,
}

/// What the lockstep driver did with the members of one launch.
/// `followed + left.len() + ineligible_total()` is the population.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockstepSummary {
    /// Members that stayed on their group's shared schedule until it
    /// ended, group leaders included.
    pub followed: u32,
    /// Members that left a shared schedule, in DPU order.
    pub left: Vec<Divergence>,
    ineligible: [u32; Ineligible::ALL.len()],
}

impl LockstepSummary {
    /// Members launched on their own for reason `why`.
    #[must_use]
    pub(crate) fn ineligible(&self, why: Ineligible) -> u32 {
        self.ineligible[why as usize]
    }

    /// Members launched on their own, for whatever reason.
    #[must_use]
    pub(crate) fn ineligible_total(&self) -> u32 {
        self.ineligible.iter().sum()
    }

    /// Members launched.
    #[must_use]
    pub fn members(&self) -> u32 {
        self.followed + self.left.len() as u32 + self.ineligible_total()
    }

    /// Appends the summary of the slice that starts at DPU `base`.
    pub fn absorb(&mut self, other: &LockstepSummary, base: u32) {
        self.followed += other.followed;
        self.left.extend(other.left.iter().map(|d| Divergence { dpu: base + d.dpu, ..*d }));
        for (mine, theirs) in self.ineligible.iter_mut().zip(other.ineligible) {
            *mine += theirs;
        }
    }
}

impl std::fmt::Display for LockstepSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} members followed to the end, {} left",
            self.followed,
            self.members(),
            self.left.len()
        )?;
        if let Some(first) = self.left.first() {
            write!(f, " (first: DPU {} at cycle {}, pc {})", first.dpu, first.cycle, first.pc)?;
        }
        write!(f, ", {} ineligible", self.ineligible_total())?;
        let reasons: Vec<String> = Ineligible::ALL
            .into_iter()
            .filter(|&why| self.ineligible(why) > 0)
            .map(|why| format!("{} {}", self.ineligible(why), why.as_str()))
            .collect();
        if !reasons.is_empty() {
            write!(f, " ({})", reasons.join(", "))?;
        }
        Ok(())
    }
}

/// Why a DPU's configuration cannot run under the lockstep driver, if it
/// cannot.
fn config_ineligible(dpu: &Dpu) -> Option<Ineligible> {
    if dpu.cfg.simt.is_some() {
        Some(Ineligible::Simt)
    } else if dpu.cfg.exec_tier == ExecTier::Naive {
        Some(Ineligible::NaiveTier)
    } else if dpu.cfg.event_trace_capacity > 0 {
        Some(Ineligible::EventTrace)
    } else if dpu.cfg.memory_mode != MemoryMode::Scratchpad {
        Some(Ineligible::CachedMode)
    } else {
        None
    }
}

/// Whether two DPUs can share one lockstep group: an eligible, identical
/// configuration, the same instruction stream, and the same per-tasklet
/// entry points. (Data images and tasklet-id bases may differ — they live
/// in per-DPU state.)
fn compatible(a: &Dpu, b: &Dpu) -> bool {
    let entry = |d: &Dpu, t: usize| d.entry.get(t).copied().unwrap_or(0);
    a.program.is_some()
        && config_ineligible(a).is_none()
        && a.cfg == b.cfg
        && a.program.as_ref().map(|p| &p.instrs) == b.program.as_ref().map(|p| &p.instrs)
        && (0..a.cfg.n_tasklets as usize).all(|t| entry(a, t) == entry(b, t))
}

/// Launches every DPU in the slice, running maximal contiguous runs of
/// compatible DPUs in lockstep and falling back to [`Dpu::launch`] for the
/// rest.
///
/// Returns one result per DPU, in slice order, and what lockstep did.
/// Timing, statistics, and memory end-state are byte-identical to calling
/// [`Dpu::launch`] on each DPU individually.
pub fn run_batch(dpus: &mut [Dpu]) -> (Vec<Result<DpuRunStats, SimError>>, LockstepSummary) {
    let mut results = Vec::with_capacity(dpus.len());
    let mut summary = LockstepSummary::default();
    let mut i = 0;
    while i < dpus.len() {
        let mut j = i + 1;
        while j < dpus.len() && compatible(&dpus[i], &dpus[j]) {
            j += 1;
        }
        if j - i == 1 {
            let why = config_ineligible(&dpus[i]).unwrap_or(Ineligible::Singleton);
            summary.ineligible[why as usize] += 1;
            results.push(dpus[i].launch());
        } else {
            results.extend(run_lockstep(&mut dpus[i..j], i as u32, &mut summary));
        }
        i = j;
    }
    summary.left.sort_unstable_by_key(|d| d.dpu);
    (results, summary)
}

/// Replays a segment on a follower's state. Returns the log index of the
/// first instruction whose effect the follower does not reproduce, with
/// what it got instead, or `None` when it reproduces them all. The
/// instruction the leader faulted on, if any, comes after the log and is
/// never reproduced: the shared schedule ends there.
fn first_disagreement(
    kernel: &CompiledKernel,
    state: &mut ArchState,
    log: &[Step],
    leader_fault: Option<(usize, u32)>,
    replay_bug: bool,
) -> Option<(usize, Result<Effect, SimError>)> {
    for (k, step) in log.iter().enumerate() {
        let own = CompiledDispatch::execute(kernel, state, step.tasklet, step.pc);
        if replay_bug
            && (matches!(step.effect, Effect::Jump(_)) || matches!(own, Ok(Effect::Jump(_))))
        {
            continue;
        }
        if !matches!(own, Ok(effect) if effect == step.effect) {
            return Some((k, own));
        }
    }
    let (t, pc) = leader_fault?;
    Some((log.len(), CompiledDispatch::execute(kernel, state, t as u32, pc)))
}

/// Runs one compatible group (`group[0]` leads; `base` is its index in the
/// launched slice) on the leader's schedule, segment by segment, until it
/// ends or every follower has left it.
fn run_lockstep(
    group: &mut [Dpu],
    base: u32,
    summary: &mut LockstepSummary,
) -> Vec<Result<DpuRunStats, SimError>> {
    // Re-arm every member before stepping any of them (the oracle snapshot
    // must see the post-reset, pre-run state).
    group.iter_mut().for_each(Dpu::rearm);
    let mut oracles: Vec<_> = group.iter().map(Dpu::build_oracle).collect();
    let mut finish = |d: usize, dpu: &Dpu, run: Result<DpuRunStats, SimError>| {
        let stats = run?;
        match oracles[d].take() {
            Some(oracle) => dpu.check_against_oracle(oracle).map(|()| stats),
            None => Ok(stats),
        }
    };

    let (leader, followers) = group.split_first_mut().expect("lockstep groups are non-empty");
    let kernel = leader.kernel_artifacts();
    let mut engine = Engine::new(leader, leader.mem_engine());
    // The seeded replay bug: `compatible` gave every member this config.
    let replay_bug = leader.cfg.mutant == Some(Mutant::Replay);
    // Followers still on the shared schedule, and the results of those
    // that left it.
    let mut on_schedule: Vec<usize> = (0..followers.len()).collect();
    let mut gone: Vec<Option<Result<DpuRunStats, SimError>>> = vec![None; followers.len()];
    let mut log = Vec::with_capacity(SEGMENT_SLOTS);
    let shared = loop {
        if on_schedule.is_empty() {
            break engine.run::<CompiledDispatch, _>(&kernel, &mut leader.state, &mut NullSink);
        }
        let checkpoint = engine.checkpoint(&leader.state.pc);
        let end = engine.run_segment(&kernel, &mut leader.state, &mut log, SEGMENT_SLOTS);
        let leader_fault = match &end {
            SegmentEnd::Faulted(_, slot) => Some(*slot),
            _ => None,
        };
        on_schedule.retain(|&f| {
            let dpu = &mut followers[f];
            let Some((k, own)) =
                first_disagreement(&kernel, &mut dpu.state, &log, leader_fault, replay_bug)
            else {
                return true;
            };
            let ((cycle, pc), run) =
                checkpoint.diverge(&engine, &kernel, &mut dpu.state, &log[..k], own);
            summary.left.push(Divergence { dpu: base + 1 + f as u32, cycle, pc });
            gone[f] = Some(finish(f + 1, dpu, run));
            false
        });
        match end {
            SegmentEnd::Full => {}
            SegmentEnd::Finished => break Ok(engine.finish()),
            SegmentEnd::Halted(e) | SegmentEnd::Faulted(e, _) => break Err(e),
        }
    };

    // Whoever is still on the shared schedule ran it to its end: identical
    // timing statistics, individually-validated functional state.
    summary.followed += 1 + on_schedule.len() as u32;
    for &f in &on_schedule {
        followers[f].state.pc.copy_from_slice(&leader.state.pc);
        gone[f] = Some(finish(f + 1, &followers[f], shared.clone()));
    }
    std::iter::once(finish(0, leader, shared))
        .chain(gone.into_iter().map(|r| r.expect("every follower followed or left")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpuConfig;
    use pim_asm::assemble;

    fn kernel(imm: i32) -> pim_asm::DpuProgram {
        assemble(&format!(".text\n movi r0, {imm}\n add r0, r0, 1\n stop\n")).unwrap()
    }

    #[test]
    fn batch_matches_individual_launches() {
        let cfg = DpuConfig::paper_baseline(4);
        let program = kernel(41);
        let mut batched: Vec<Dpu> = (0..5).map(|_| Dpu::new(cfg.clone())).collect();
        let mut solo: Vec<Dpu> = (0..5).map(|_| Dpu::new(cfg.clone())).collect();
        for dpu in batched.iter_mut().chain(solo.iter_mut()) {
            dpu.load_program(&program).unwrap();
        }
        let (batch_stats, summary) = run_batch(&mut batched);
        for (b, s) in batch_stats.iter().zip(solo.iter_mut()) {
            let want = s.launch().unwrap();
            assert_eq!(format!("{:?}", b.as_ref().unwrap()), format!("{want:?}"));
        }
        assert_eq!((summary.followed, summary.members()), (5, 5), "{summary}");
    }

    #[test]
    fn mixed_programs_partition_into_runs() {
        let cfg = DpuConfig::paper_baseline(2);
        let (pa, pb) = (kernel(1), kernel(2));
        let mut dpus: Vec<Dpu> = (0..4).map(|_| Dpu::new(cfg.clone())).collect();
        dpus[0].load_program(&pa).unwrap();
        dpus[1].load_program(&pa).unwrap();
        dpus[2].load_program(&pb).unwrap();
        dpus[3].load_program(&pa).unwrap();
        let (results, summary) = run_batch(&mut dpus);
        assert_eq!(results.len(), 4);
        for r in &results {
            // 3 instructions × 2 tasklets on every DPU, whichever program.
            assert_eq!(r.as_ref().unwrap().instructions, 3 * 2);
        }
        assert_eq!(summary.followed, 2);
        assert_eq!(summary.ineligible(Ineligible::Singleton), 2);
    }

    #[test]
    fn the_summary_names_why_a_member_was_never_eligible() {
        let base = DpuConfig::paper_baseline(2);
        let cfgs = [
            (base.clone().with_simt(crate::SimtConfig::default()), Ineligible::Simt),
            (base.clone().with_exec_tier(ExecTier::Naive), Ineligible::NaiveTier),
            (base.clone().with_event_trace(64), Ineligible::EventTrace),
            (base.clone().with_paper_caches(), Ineligible::CachedMode),
            (base, Ineligible::Singleton),
        ];
        // Two of each, side by side: identical neighbours, still launched
        // one by one (but for the last pair, which is a group).
        let mut dpus: Vec<Dpu> = cfgs
            .iter()
            .flat_map(|(cfg, _)| [Dpu::new(cfg.clone()), Dpu::new(cfg.clone())])
            .collect();
        for dpu in &mut dpus {
            dpu.load_program(&kernel(3)).unwrap();
        }
        let (results, summary) = run_batch(&mut dpus);
        assert!(results.iter().all(Result::is_ok));
        for (_, why) in &cfgs[..4] {
            assert_eq!(summary.ineligible(*why), 2, "{why:?}: {summary}");
        }
        assert_eq!((summary.followed, summary.ineligible(Ineligible::Singleton)), (2, 0));
        assert_eq!(summary.members(), 10);
        let text = summary.to_string();
        assert!(
            text.starts_with("2/10 members followed to the end, 0 left, 8 ineligible"),
            "{text}"
        );
        assert!(text.contains("2 naive tier") && text.contains("2 cached mode"), "{text}");
    }

    /// Branches on a value pulled from MRAM, so members with different
    /// inputs leave lockstep mid-kernel and must resume on their own
    /// engines without losing a cycle of timing fidelity.
    fn divergent_kernel() -> pim_asm::DpuProgram {
        assemble(
            r#"
            .text
            movi r0, 0
            movi r1, 1024
            ldma r1, r0, 8
            lw   r2, 0(r1)
            bne  r2, 0, odd
            movi r3, 100
            add  r3, r3, r2
            sw   r3, 4(r1)
            sdma r1, r0, 8
            stop
        odd:
            movi r3, 7
        spin:
            sub  r3, r3, 1
            bne  r3, 0, spin
            sw   r2, 4(r1)
            sdma r1, r0, 8
            stop
        "#,
        )
        .unwrap()
    }

    /// Runs one DPU per entry of `inputs` — each staged by `stage(dpu,
    /// input)` — through `run_batch` and through solo launches, asserts
    /// identical results (statistics or error) and memory images, and
    /// returns the batch's results and summary.
    fn assert_batch_matches_solo(
        cfg: &DpuConfig,
        program: &pim_asm::DpuProgram,
        inputs: &[u32],
        stage: impl Fn(&mut Dpu, u32),
    ) -> (Vec<Result<DpuRunStats, SimError>>, LockstepSummary) {
        let staged = || -> Vec<Dpu> {
            inputs
                .iter()
                .map(|&input| {
                    let mut dpu = Dpu::new(cfg.clone());
                    dpu.load_program(program).unwrap();
                    stage(&mut dpu, input);
                    dpu
                })
                .collect()
        };
        let (mut batched, mut solo) = (staged(), staged());
        let (results, summary) = run_batch(&mut batched);
        for (i, ((got, b), s)) in results.iter().zip(&batched).zip(&mut solo).enumerate() {
            assert_eq!(format!("{got:?}"), format!("{:?}", s.launch()), "member {i}");
            assert!(b.state.wram() == s.state.wram(), "member {i}: WRAM image differs");
            assert!(b.state.mram() == s.state.mram(), "member {i}: MRAM image differs");
            assert_eq!(b.state.pc, s.state.pc, "member {i}: final pcs differ");
        }
        assert_eq!(summary.members() as usize, inputs.len(), "{summary}");
        (results, summary)
    }

    /// The `(cycle, tasklet, pc)` of every instruction a solo launch of the
    /// member staged with `input` retires, in issue order — what a lockstep
    /// member's schedule is held to (`assert_batch_matches_solo`).
    fn solo_retired(
        cfg: &DpuConfig,
        program: &pim_asm::DpuProgram,
        input: u32,
        stage: impl Fn(&mut Dpu, u32),
    ) -> Vec<(u64, u32, u32)> {
        struct Retired(Vec<(u64, u32, u32)>);
        impl pim_trace::TraceSink for Retired {
            fn emit(&mut self, event: pim_trace::TraceEvent) {
                if let pim_trace::TraceEvent::InstrRetire { cycle, tasklet, pc, .. } = event {
                    self.0.push((cycle, tasklet, pc));
                }
            }
        }
        let mut dpu = Dpu::new(cfg.clone());
        dpu.load_program(program).unwrap();
        stage(&mut dpu, input);
        let mut retired = Retired(Vec::new());
        dpu.launch_with(&mut retired).unwrap();
        retired.0
    }

    fn stage_mram(dpu: &mut Dpu, input: u32) {
        dpu.write_mram(0, &input.to_le_bytes());
    }

    fn stage_wram(dpu: &mut Dpu, input: u32) {
        dpu.write_wram(1024, &input.to_le_bytes());
    }

    #[test]
    fn mid_kernel_divergence_matches_individual_launches() {
        let cfg = DpuConfig::paper_baseline(4);
        let program = divergent_kernel();
        // Members 0-1 take the even path, 2-3 spin on the odd path: the
        // batch starts convergent (identical pcs) and splits at the `bne`.
        let (results, summary) =
            assert_batch_matches_solo(&cfg, &program, &[0, 0, 5, 9], stage_mram);
        // The two paths really do take different time.
        let c0 = results[0].as_ref().unwrap().cycles;
        let c2 = results[2].as_ref().unwrap().cycles;
        assert_ne!(c0, c2, "odd path must cost different cycles");
        assert_eq!(summary.followed, 2);
        let left: Vec<(u32, u32)> = summary.left.iter().map(|d| (d.dpu, d.pc)).collect();
        assert_eq!(left, [(2, 4), (3, 4)], "both leave on tasklet 0's `bne`: {summary}");
        assert_eq!(summary.left[0].cycle, summary.left[1].cycle);
    }

    #[test]
    fn one_member_of_eight_leaves_and_seven_follow_to_the_end() {
        let cfg = DpuConfig::paper_baseline(4);
        let inputs = [0, 0, 0, 0, 0, 9, 0, 0];
        let (results, summary) =
            assert_batch_matches_solo(&cfg, &divergent_kernel(), &inputs, stage_mram);
        assert_eq!(summary.followed, 7, "{summary}");
        assert_eq!(summary.left.len(), 1);
        assert_eq!((summary.left[0].dpu, summary.left[0].pc), (5, 4));
        let odd = results[5].as_ref().unwrap().cycles;
        assert!(results
            .iter()
            .enumerate()
            .all(|(i, r)| (r.as_ref().unwrap().cycles == odd) == (i == 5)));
    }

    /// `steps` instructions of one tasklet that change nothing a branch or
    /// a pointer in these tests reads (they use `r4`).
    fn filler(steps: usize) -> String {
        let mut text = String::new();
        let mut steps = steps;
        // A countdown is `movi` plus two instructions a trip: odd.
        if steps < 3 || steps.is_multiple_of(2) {
            let nops = if steps < 3 { steps } else { 1 };
            text.push_str(&"nop\n".repeat(nops));
            steps -= nops;
        }
        if steps > 0 {
            let trips = (steps - 1) / 2;
            text.push_str(&format!("movi r4, {trips}\nfill:\nsub r4, r4, 1\nbne r4, 0, fill\n"));
        }
        text
    }

    /// One tasklet whose `step`-th retired instruction (from 0) is a branch
    /// on the word staged at WRAM 1024: members staged differently leave
    /// each other exactly there. With `short_tail` both arms stop at once,
    /// making that branch the last instruction before the `stop`s.
    fn diverge_at_step(step: usize, short_tail: bool) -> pim_asm::DpuProgram {
        assert!(step >= 2, "the staged word has to be loaded first");
        let tail = if short_tail {
            "stop\nodd:\nstop\n"
        } else {
            "movi r3, 100\nsw r3, 4(r1)\nstop\nodd:\nmovi r3, 7\nspin:\nsub r3, r3, 1\nbne r3, 0, spin\nsw r2, 4(r1)\nstop\n"
        };
        let text = format!(
            ".text\nmovi r1, 1024\nlw r2, 0(r1)\n{}bne r2, 0, odd\n{tail}",
            filler(step - 2)
        );
        assemble(&text).unwrap()
    }

    #[test]
    fn divergence_at_any_log_index_matches_individual_launches() {
        // The first instruction of a launch cannot diverge (registers are
        // zero and nothing has been loaded), nor can the second here; log
        // index 0 is reached as the first slot of the second segment.
        const SEG: usize = SEGMENT_SLOTS;
        let cfg = DpuConfig::paper_baseline(1);
        let cases = [2, 3, SEG - 1, SEG, SEG + 1, 2 * SEG - 1, 2 * SEG].map(|step| (step, false));
        for (step, short_tail) in cases.into_iter().chain([(SEG + 7, true), (5, true)]) {
            let program = diverge_at_step(step, short_tail);
            for inputs in [[0, 0, 6], [6, 0, 6], [0, 6, 0]] {
                let what = format!("step {step}, inputs {inputs:?}");
                let (_, summary) = assert_batch_matches_solo(&cfg, &program, &inputs, stage_wram);
                let odd_one = if inputs[0] == inputs[1] { 2 } else { 1 };
                assert_eq!(summary.followed, 2, "{what}: {summary}");
                assert_eq!(summary.left.len(), 1, "{what}: {summary}");
                let at = summary.left[0];
                let (cycle, _, pc) = solo_retired(&cfg, &program, inputs[0], stage_wram)[step];
                assert_eq!((at.dpu, at.cycle, at.pc), (odd_one, cycle, pc), "{what}");
            }
        }
    }

    #[test]
    fn every_follower_leaving_lets_the_leader_finish_alone() {
        let cfg = DpuConfig::paper_baseline(1);
        let program = diverge_at_step(SEGMENT_SLOTS + 3, false);
        let (_, summary) = assert_batch_matches_solo(&cfg, &program, &[0, 4, 5, 6], stage_wram);
        assert_eq!((summary.followed, summary.left.len()), (1, 3), "{summary}");
    }

    /// Dereferences a per-DPU pointer (staged at MRAM 0) after `before`
    /// filler instructions: in range it is an `Advance` like everyone
    /// else's, out of range it faults — so the members' effects disagree
    /// exactly where one of them errors.
    fn pointer_kernel(before: usize) -> pim_asm::DpuProgram {
        let text = format!(
            ".text\nmovi r0, 0\nmovi r1, 1024\nldma r1, r0, 8\nlw r2, 0(r1)\n{}lw r3, 0(r2)\n\
             add r3, r3, 1\nsw r3, 4(r1)\nsdma r1, r0, 8\nstop\n",
            filler(before)
        );
        assemble(&text).unwrap()
    }

    #[test]
    fn a_member_faulting_on_the_divergent_instruction_retires_alone() {
        const WILD: u32 = 0x0100_0000;
        // Early in the first segment with four tasklets, then in the
        // middle of the third with one.
        for (tasklets, before) in [(4, 0), (1, 2 * SEGMENT_SLOTS + SEGMENT_SLOTS / 2)] {
            let cfg = DpuConfig::paper_baseline(tasklets);
            let program = pointer_kernel(before);
            // A faulting follower, then a faulting leader.
            for (inputs, bad) in [([1024, 1028, WILD, 1024], 2), ([WILD, 1024, 1028, 1024], 0)] {
                let (results, summary) =
                    assert_batch_matches_solo(&cfg, &program, &inputs, stage_mram);
                for (i, r) in results.iter().enumerate() {
                    if i == bad {
                        assert!(
                            matches!(r, Err(SimError::OutOfBounds { addr: WILD, .. })),
                            "{r:?}"
                        );
                    } else {
                        assert!(r.is_ok(), "survivor {i}: {r:?}");
                    }
                }
                // A faulting follower leaves alone; a faulting leader ends
                // the shared schedule for all three followers.
                let want_left = if bad == 0 { vec![1, 2, 3] } else { vec![bad as u32] };
                let left: Vec<u32> = summary.left.iter().map(|d| d.dpu).collect();
                assert_eq!(left, want_left, "{tasklets} tasklets, bad {bad}: {summary}");
            }
            // Leader and a follower fault on the same instruction: each
            // returns its own error.
            let (results, _) =
                assert_batch_matches_solo(&cfg, &program, &[WILD, 1024, WILD + 4], stage_mram);
            assert!(matches!(results[0], Err(SimError::OutOfBounds { addr: WILD, .. })));
            assert!(results[1].is_ok());
            assert!(
                matches!(&results[2], Err(SimError::OutOfBounds { addr, .. }) if *addr == WILD + 4)
            );
        }
    }

    #[test]
    fn divergence_on_the_first_op_of_a_multi_issue_cycle_resumes_mid_cycle() {
        // No DMA before the branch, so tasklets 0 and 1 stay paired: under
        // 2-way issue both reach the data-dependent `bne` in the same
        // cycle. The members split on tasklet 0's — the first op of that
        // cycle — and each leaving member must still issue tasklet 1's in
        // it.
        let program = assemble(
            r#"
            .text
            movi r1, 1024
            lw   r2, 0(r1)
            bne  r2, 0, odd
            movi r3, 100
            add  r3, r3, r2
            sw   r3, 4(r1)
            stop
        odd:
            movi r3, 7
        spin:
            sub  r3, r3, 1
            bne  r3, 0, spin
            sw   r2, 4(r1)
            stop
        "#,
        )
        .unwrap();
        let cfg = DpuConfig::paper_baseline(4).with_ilp(crate::IlpFeatures::all());
        let inputs = [0, 0, 5, 9];
        assert_batch_matches_solo(&cfg, &program, &inputs, stage_wram);
        for input in inputs {
            let retired = solo_retired(&cfg, &program, input, stage_wram);
            let first = retired.iter().position(|e| e.2 == 2).expect("the branch issued");
            let ((cycle, t0, _), b) = (retired[first], retired[first + 1]);
            assert_eq!((t0, b), (0, (cycle, 1, 2)), "both branches issue in the divergence cycle");
        }
    }

    #[test]
    fn cycle_limit_inside_lockstep_reaches_every_member() {
        let mut cfg = DpuConfig::paper_baseline(4);
        cfg.max_cycles = 60;
        // Equal inputs: the batch is still on the shared schedule (mid-DMA)
        // when the limit hits.
        let (results, summary) =
            assert_batch_matches_solo(&cfg, &divergent_kernel(), &[5; 3], stage_mram);
        for r in &results {
            assert!(matches!(r, Err(SimError::CycleLimit { limit: 60 })), "{r:?}");
        }
        assert_eq!(summary.followed, 3);
    }

    #[test]
    fn checkpoints_carry_the_tlp_timeline_across_segments() {
        // One tasklet issues every 11 cycles, so a segment spans about 4.5
        // windows and the timeline grows inside every segment: a member
        // leaving in the third one must get the first two segments'
        // windows back from the leader.
        let cfg = DpuConfig::paper_baseline(1);
        let program = diverge_at_step(2 * SEGMENT_SLOTS + SEGMENT_SLOTS / 2, false);
        let (results, _) = assert_batch_matches_solo(&cfg, &program, &[0, 3], stage_wram);
        let windows = results[1].as_ref().unwrap().tlp_timeline.len();
        assert!(windows > 2 * SEGMENT_SLOTS * 11 / crate::TLP_WINDOW as usize);
    }

    #[test]
    fn unloaded_dpu_reports_no_program() {
        let mut dpus = vec![Dpu::new(DpuConfig::paper_baseline(1))];
        let (results, summary) = run_batch(&mut dpus);
        assert!(matches!(results[0], Err(SimError::NoProgram)));
        assert_eq!(summary.ineligible(Ineligible::Singleton), 1);
    }
}
