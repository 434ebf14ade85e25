//! Rank-scale batched execution: a lockstep driver that runs the schedule
//! of many same-program DPUs once.
//!
//! Same-program DPUs whose inputs differ only in *data* make identical
//! scheduling decisions (loop trips, DMA shapes, and branch directions
//! usually depend on staged sizes, not values), so while a batch is
//! *timing-convergent* the scheduler, the scoreboard, the memory engine,
//! and the statistics run **once** — on the leader's issue engine
//! (`crate::sched::Engine`, the same one [`Dpu::launch`] drives) — and
//! every member only executes each issued instruction functionally.
//! Convergence is verified per instruction by comparing every member's
//! `Effect` against the leader's (branch direction, DMA address/length,
//! acquire outcome, and stop are all visible there — in scratchpad mode
//! those are the only data-dependent timing inputs).
//!
//! On the first disagreement each member receives a clone of the leader's
//! engine — scheduling state, in-cycle issue cursor, memory engine, and
//! statistics, all identical by the convergence invariant and captured
//! *before* the divergent instruction retires — retires that instruction
//! with its own effect, and finishes the rest of the cycle and of the
//! kernel on the ordinary per-DPU path. Members that faulted on the
//! divergent instruction return their error. Lockstep is therefore a pure
//! prefix optimization: byte-identical to per-DPU launches by construction
//! (same `DpuRunStats`, same memory end-state, regardless of batch size or
//! membership), with the fully-convergent case (the rank-scale sweep,
//! `pim-fuzz` batch cases) never leaving the shared schedule. The
//! differential tests (`tests/loop_differential.rs`) and the pim-fuzz
//! gauntlet's `batch` invariant pin this.
//!
//! Everything lockstep does not model — SIMT front-ends, the naive
//! reference loop, event tracing, cache-centric mode (fill timing depends
//! on per-DPU load/store addresses, which the `Effect` comparison does not
//! witness), non-uniform entry points, singleton runs — goes to
//! [`Dpu::launch`] per member, so [`run_batch`] is total over any
//! population.

use pim_trace::NullSink;

use crate::config::{ExecTier, MemoryMode};
use crate::dpu::Dpu;
use crate::error::SimError;
use crate::exec::Effect;
use crate::sched::{CompiledDispatch, Dispatch, Engine};
use crate::stats::DpuRunStats;

/// Whether a DPU's configuration can run under the lockstep driver.
fn lockstep_eligible(dpu: &Dpu) -> bool {
    dpu.program.is_some()
        && dpu.cfg.simt.is_none()
        && dpu.cfg.exec_tier != ExecTier::Naive
        && dpu.cfg.event_trace_capacity == 0
        && dpu.cfg.memory_mode == MemoryMode::Scratchpad
}

/// Whether two DPUs can share one lockstep batch: both eligible, identical
/// configuration, instruction stream, and per-tasklet entry points. (Data
/// images and tasklet-id bases may differ — they live in per-DPU state.)
fn compatible(a: &Dpu, b: &Dpu) -> bool {
    let entry = |d: &Dpu, t: usize| d.entry.get(t).copied().unwrap_or(0);
    lockstep_eligible(a)
        && lockstep_eligible(b)
        && a.cfg == b.cfg
        && a.program.as_ref().map(|p| &p.instrs) == b.program.as_ref().map(|p| &p.instrs)
        && (0..a.cfg.n_tasklets as usize).all(|t| entry(a, t) == entry(b, t))
}

/// Launches every DPU in the slice, running maximal contiguous runs of
/// compatible DPUs in lockstep and falling back to [`Dpu::launch`] for the
/// rest.
///
/// Returns one result per DPU, in slice order. Timing, statistics, and
/// memory end-state are byte-identical to calling [`Dpu::launch`] on each
/// DPU individually.
pub fn run_batch(dpus: &mut [Dpu]) -> Vec<Result<DpuRunStats, SimError>> {
    let mut results = Vec::with_capacity(dpus.len());
    let mut i = 0;
    while i < dpus.len() {
        let mut j = i + 1;
        while j < dpus.len() && compatible(&dpus[i], &dpus[j]) {
            j += 1;
        }
        if j - i == 1 {
            results.push(dpus[i].launch());
        } else {
            results.extend(run_lockstep(&mut dpus[i..j]));
        }
        i = j;
    }
    results
}

/// Runs one compatible group on the leader's schedule until it finishes or
/// the members' effects disagree; from there each member finishes alone.
fn run_lockstep(group: &mut [Dpu]) -> Vec<Result<DpuRunStats, SimError>> {
    // Reset every member before stepping any of them (the oracle snapshot
    // must see the post-reset, pre-run state). Only the leader's memory
    // engine runs; the followers' are dropped here.
    let mem = group.iter_mut().map(Dpu::reset_launch_state).collect::<Vec<_>>().swap_remove(0);
    let mut oracles: Vec<_> = group.iter().map(Dpu::build_oracle).collect();
    let kernel = group[0].kernel_artifacts();
    let mut engine = Engine::new(&group[0], mem);
    let mut finish = |d: usize, dpu: &Dpu, run: Result<DpuRunStats, SimError>| {
        let stats = run?;
        match oracles[d].take() {
            Some(oracle) => dpu.check_against_oracle(oracle).map(|()| stats),
            None => Ok(stats),
        }
    };

    let mut effects: Vec<Result<Effect, SimError>> = Vec::with_capacity(group.len());
    loop {
        let slot @ (t, pc) = match engine.next_op(&kernel, &group[0].state) {
            Ok(Some(slot)) => slot,
            // The whole batch ran one schedule: identical timing statistics
            // for every member, individually-validated functional state.
            Ok(None) => {
                let stats = engine.finish();
                return group
                    .iter()
                    .enumerate()
                    .map(|(d, dpu)| finish(d, dpu, Ok(stats.clone())))
                    .collect();
            }
            Err(e) => return group.iter().map(|_| Err(e.clone())).collect(),
        };
        effects.clear();
        for dpu in group.iter_mut() {
            effects.push(CompiledDispatch::execute(&kernel, &mut dpu.state, t as u32, pc));
        }
        let convergent = match &effects[0] {
            Ok(e0) => effects[1..].iter().all(|r| matches!(r, Ok(e) if e == e0)),
            Err(_) => false,
        };
        if !convergent {
            return effects
                .into_iter()
                .zip(group.iter_mut())
                .enumerate()
                .map(|(d, (effect, dpu))| {
                    let mut own = engine.clone();
                    own.retire_op(&kernel, &mut dpu.state, slot, effect?);
                    let run =
                        own.run::<CompiledDispatch, _>(&kernel, &mut dpu.state, &mut NullSink);
                    finish(d, dpu, run)
                })
                .collect();
        }
        let effect = *effects[0].as_ref().expect("convergence implies every member is Ok");
        let (leader, followers) = group.split_first_mut().expect("lockstep groups are non-empty");
        engine.retire_op(&kernel, &mut leader.state, slot, effect);
        for dpu in followers {
            dpu.state.pc[t] = leader.state.pc[t];
        }
    }
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
        let batch_stats = run_batch(&mut batched);
        for (b, s) in batch_stats.iter().zip(solo.iter_mut()) {
            let want = s.launch().unwrap();
            assert_eq!(format!("{:?}", b.as_ref().unwrap()), format!("{want:?}"));
        }
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
        let results = run_batch(&mut dpus);
        assert_eq!(results.len(), 4);
        for r in &results {
            // 3 instructions × 2 tasklets on every DPU, whichever program.
            assert_eq!(r.as_ref().unwrap().instructions, 3 * 2);
        }
    }

    /// Branches on a value pulled from MRAM, so members with different
    /// inputs leave lockstep mid-kernel and must resume on their own
    /// engine clones without losing a cycle of timing fidelity.
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
    /// returns the batch's results.
    fn assert_batch_matches_solo(
        cfg: &DpuConfig,
        program: &pim_asm::DpuProgram,
        inputs: &[u32],
        stage: impl Fn(&mut Dpu, u32),
    ) -> Vec<Result<DpuRunStats, SimError>> {
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
        let results = run_batch(&mut batched);
        for (i, ((got, b), s)) in results.iter().zip(&batched).zip(&mut solo).enumerate() {
            assert_eq!(format!("{got:?}"), format!("{:?}", s.launch()), "member {i}");
            assert!(b.state.wram == s.state.wram, "member {i}: WRAM image differs");
            assert!(b.state.mram == s.state.mram, "member {i}: MRAM image differs");
        }
        results
    }

    fn stage_mram(dpu: &mut Dpu, input: u32) {
        dpu.write_mram(0, &input.to_le_bytes());
    }

    #[test]
    fn mid_kernel_divergence_matches_individual_launches() {
        let cfg = DpuConfig::paper_baseline(4);
        let program = divergent_kernel();
        // Members 0-1 take the even path, 2-3 spin on the odd path: the
        // batch starts convergent (identical pcs) and splits at the `bne`.
        let results = assert_batch_matches_solo(&cfg, &program, &[0, 0, 5, 9], stage_mram);
        // The two paths really do take different time.
        let c0 = results[0].as_ref().unwrap().cycles;
        let c2 = results[2].as_ref().unwrap().cycles;
        assert_ne!(c0, c2, "odd path must cost different cycles");
    }

    #[test]
    fn a_member_faulting_on_the_divergent_instruction_retires_alone() {
        // The second `lw` dereferences a per-DPU pointer: in range it is an
        // `Advance` like everyone else's, out of range it faults — so the
        // members' effects disagree exactly where one of them errors.
        let program = assemble(
            r#"
            .text
            movi r0, 0
            movi r1, 1024
            ldma r1, r0, 8
            lw   r2, 0(r1)
            lw   r3, 0(r2)
            add  r3, r3, 1
            sw   r3, 4(r1)
            sdma r1, r0, 8
            stop
        "#,
        )
        .unwrap();
        let cfg = DpuConfig::paper_baseline(4);
        const WILD: u32 = 0x0100_0000;
        // A faulting follower, then a faulting leader.
        for (inputs, bad) in [([1024, 1028, WILD, 1024], 2), ([WILD, 1024, 1028, 1024], 0)] {
            let results = assert_batch_matches_solo(&cfg, &program, &inputs, stage_mram);
            for (i, r) in results.iter().enumerate() {
                if i == bad {
                    assert!(matches!(r, Err(SimError::OutOfBounds { addr: WILD, .. })), "{r:?}");
                } else {
                    assert!(r.is_ok(), "survivor {i}: {r:?}");
                }
            }
        }
    }

    #[test]
    fn divergence_on_the_first_op_of_a_multi_issue_cycle_resumes_mid_cycle() {
        // No DMA before the branch, so tasklets 0 and 1 stay paired: under
        // 2-way issue both reach the data-dependent `bne` in the same
        // cycle. The members split on tasklet 0's — the first op of that
        // cycle — and each clone must still issue tasklet 1's in it.
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
        let mut cfg = DpuConfig::paper_baseline(4).with_ilp(crate::IlpFeatures::all());
        cfg.trace_limit = 64;
        let results = assert_batch_matches_solo(&cfg, &program, &[0, 0, 5, 9], |dpu, input| {
            dpu.write_wram(1024, &input.to_le_bytes());
        });
        for r in &results {
            let trace = &r.as_ref().unwrap().trace;
            let first = trace.iter().position(|e| e.pc == 2).expect("the branch issued");
            let (a, b) = (&trace[first], &trace[first + 1]);
            assert_eq!((a.tasklet, b.tasklet, b.pc), (0, 1, 2), "{a} / {b}");
            assert_eq!(a.cycle, b.cycle, "both branches issue in the divergence cycle");
        }
    }

    #[test]
    fn cycle_limit_inside_lockstep_reaches_every_member() {
        let mut cfg = DpuConfig::paper_baseline(4);
        cfg.max_cycles = 60;
        // Equal inputs: the batch is still on the shared schedule (mid-DMA)
        // when the limit hits.
        let results = assert_batch_matches_solo(&cfg, &divergent_kernel(), &[5; 3], stage_mram);
        for r in &results {
            assert!(matches!(r, Err(SimError::CycleLimit { limit: 60 })), "{r:?}");
        }
    }

    #[test]
    fn unloaded_dpu_reports_no_program() {
        let mut dpus = vec![Dpu::new(DpuConfig::paper_baseline(1))];
        let results = run_batch(&mut dpus);
        assert!(matches!(results[0], Err(SimError::NoProgram)));
    }
}
