//! Differential pinning of the optimized DPU executor tiers against the
//! naive per-cycle reference.
//!
//! The optimized executors — the decoded fast loop (pre-decoded side
//! tables, event-driven wakeup, allocation-free steady state) and the
//! block-compiled threaded-code loop — must be *timing-invisible*: every
//! simulated quantity — cycle counts, idle attribution, instruction mixes,
//! the trace itself — has to match what the straightforward
//! scan-everything-every-cycle loop computes. [`ExecTier`] keeps both
//! loops and both dispatches alive so this suite can assert full
//! `DpuRunStats` equality over the whole extended PrIM suite (naive × fast
//! × compiled, across tasklet counts and pipeline modes, SIMT included: it
//! is an issue policy of both loops). `results/golden/simt_stats.txt`
//! anchors SIMT timing itself, which both loops share.

use pim_dpu::{DpuConfig, ExecTier, IlpFeatures};
use prim_suite::{all_workloads, extended_workloads, DatasetSize, RunConfig, Workload};

const TASKLETS: [u32; 3] = [1, 8, 16];

/// The three scalar executor tiers, with leg labels.
const TIERS: [(&str, ExecTier); 3] =
    [("naive", ExecTier::Naive), ("fast", ExecTier::Fast), ("compiled", ExecTier::Compiled)];

/// Runs one workload under `cfg` through every executor tier and asserts
/// the per-DPU stats are identical field-for-field (via the `Debug`
/// rendering, which covers every stat including traces and the idle
/// attribution's integer buckets).
fn assert_loops_agree(w: &dyn Workload, mode: &str, cfg: DpuConfig) {
    let mut rendered: Vec<(&str, Vec<String>)> = Vec::new();
    for (tier_name, tier) in TIERS {
        let out = w
            .run(DatasetSize::Tiny, &RunConfig::single(cfg.clone().with_exec_tier(tier)))
            .unwrap_or_else(|e| panic!("{} [{mode}/{tier_name}] run failed: {e}", w.name()));
        rendered.push((tier_name, out.per_dpu.iter().map(|s| format!("{s:?}")).collect()));
    }
    let (first_tier, first) = &rendered[0];
    for (tier, stats) in &rendered[1..] {
        assert_eq!(
            first.len(),
            stats.len(),
            "{} [{mode}]: DPU count differs between {first_tier} and {tier}",
            w.name()
        );
        assert_eq!(
            first,
            stats,
            "{} [{mode}]: per-DPU stats diverge between {first_tier} and {tier}",
            w.name()
        );
    }
}

#[test]
fn scalar_tiers_match_naive_reference() {
    // The full naive × fast × compiled cross product over every workload
    // in the extended suite (dense PrIM + sparse BSR + quantized NN).
    for w in extended_workloads() {
        for n in TASKLETS {
            assert_loops_agree(w.as_ref(), "scalar", DpuConfig::paper_baseline(n));
        }
    }
}

#[test]
fn ilp_loop_matches_naive_reference() {
    for w in all_workloads() {
        for n in TASKLETS {
            let cfg = DpuConfig::paper_baseline(n).with_ilp(IlpFeatures::all());
            assert_loops_agree(w.as_ref(), "ilp", cfg);
        }
    }
}

#[test]
fn simt_loop_matches_naive_reference() {
    use pim_dpu::SimtConfig;
    for w in all_workloads() {
        for n in TASKLETS {
            for coalescing in [false, true] {
                let simt = SimtConfig { coalescing };
                let mode = if coalescing { "simt+ac" } else { "simt" };
                assert_loops_agree(w.as_ref(), mode, DpuConfig::paper_baseline(n).with_simt(simt));
            }
        }
    }
}

#[test]
fn cached_loop_matches_naive_reference() {
    for w in all_workloads().into_iter().filter(|w| w.supports_cache_mode()) {
        for n in TASKLETS {
            let cfg = DpuConfig::paper_baseline(n).with_paper_caches();
            assert_loops_agree(w.as_ref(), "cached", cfg);
        }
    }
}

/// Runs one workload over the same 4-DPU population on the default tier —
/// where `launch_all` puts the DPUs of each worker's chunk in lockstep —
/// and on [`ExecTier::Naive`], the reference loop, which lockstep never
/// takes, and asserts per-DPU stats are identical field-for-field.
///
/// Each DPU holds a different dataset shard, so groups start in lockstep
/// and members genuinely leave mid-kernel — this leg pins the replay and
/// re-derivation path on real workloads, not just synthetic kernels.
fn assert_lockstep_agrees(w: &dyn Workload, mode: &str, cfg: DpuConfig) {
    const DPUS: u32 = 4;
    let reference = w
        .run(
            DatasetSize::Tiny,
            &RunConfig::multi(DPUS, cfg.clone().with_exec_tier(ExecTier::Naive)),
        )
        .unwrap_or_else(|e| panic!("{} [{mode}] reference run failed: {e}", w.name()));
    let lockstep = w
        .run(DatasetSize::Tiny, &RunConfig::multi(DPUS, cfg))
        .unwrap_or_else(|e| panic!("{} [{mode}] lockstep run failed: {e}", w.name()));
    lockstep
        .validation
        .as_ref()
        .unwrap_or_else(|e| panic!("{} [{mode}] lockstep output failed validation: {e}", w.name()));
    assert_eq!(
        reference.per_dpu.len(),
        lockstep.per_dpu.len(),
        "{} [{mode}]: DPU count differs",
        w.name()
    );
    for (i, (r, l)) in reference.per_dpu.iter().zip(&lockstep.per_dpu).enumerate() {
        assert_eq!(
            format!("{r:?}"),
            format!("{l:?}"),
            "{} [{mode}] dpu {i}: lockstep stats diverge from the reference loop",
            w.name()
        );
    }
}

#[test]
fn batched_executor_matches_per_dpu_path() {
    // SIMT and cache-centric configurations are launched DPU by DPU inside
    // `run_batch` (lockstep does not model them) and cache-centric runs
    // are single-DPU by construction, so the lockstep legs here are the
    // two scoreboard-loop modes.
    for w in all_workloads() {
        for n in TASKLETS {
            assert_lockstep_agrees(w.as_ref(), "scalar", DpuConfig::paper_baseline(n));
            let ilp = DpuConfig::paper_baseline(n).with_ilp(IlpFeatures::all());
            assert_lockstep_agrees(w.as_ref(), "ilp", ilp);
        }
    }
}

/// `run_batch` against solo launches of identically staged DPUs: results
/// (statistics or error) and memory images.
fn assert_group_matches_solo(
    cfg: &DpuConfig,
    program: &pim_asm::DpuProgram,
    inputs: &[u32],
    what: &str,
) -> (Vec<Result<pim_dpu::DpuRunStats, pim_dpu::SimError>>, pim_dpu::LockstepSummary) {
    let staged = || -> Vec<pim_dpu::Dpu> {
        inputs
            .iter()
            .map(|&input| {
                let mut dpu = pim_dpu::Dpu::new(cfg.clone());
                dpu.load_program(program).unwrap();
                dpu.write_mram(0, &input.to_le_bytes());
                dpu
            })
            .collect()
    };
    let (mut group, mut solo) = (staged(), staged());
    let (results, summary) = pim_dpu::run_batch(&mut group);
    for (i, ((got, g), s)) in results.iter().zip(&group).zip(&mut solo).enumerate() {
        assert_eq!(format!("{got:?}"), format!("{:?}", s.launch()), "{what}: member {i}");
        assert_eq!(g.read_wram(0, 2048), s.read_wram(0, 2048), "{what}: member {i} WRAM");
        assert_eq!(g.read_mram(0, 2048), s.read_mram(0, 2048), "{what}: member {i} MRAM");
    }
    (results, summary)
}

#[test]
fn cycle_limit_is_the_same_for_every_member_of_a_lockstep_group() {
    // The sweep of `cycle_limit_is_the_same_on_every_kind_of_cycle`, over
    // a three-member group whose last member takes a longer path: the
    // limit lands before the split, on it, between the two finishes and
    // after both, and each member must see what its solo launch sees.
    use pim_isa::Cond;
    let mut k = pim_asm::KernelBuilder::new();
    let buf = k.global_zeroed("buf", 256);
    let [w, m, a, i] = k.regs(["w", "m", "a", "i"]);
    k.movi(w, buf as i32);
    k.movi(m, 0);
    k.ldma(w, m, 256);
    k.lw(i, w, 0);
    let top = k.label_here("top");
    k.ldma(w, m, 256);
    k.lw(a, w, 0);
    // `w` and `a` share a register bank: one extra issue slot.
    k.add(a, w, a);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.stop();
    let program = k.build().expect("kernel builds");

    let cfg = DpuConfig::paper_baseline(2);
    let inputs = [2, 2, 4];
    let (full, summary) = assert_group_matches_solo(&cfg, &program, &inputs, "unlimited");
    assert_eq!((summary.followed, summary.left.len()), (2, 1), "{summary}");
    let cycles: Vec<u64> = full.iter().map(|r| r.as_ref().expect("completes").cycles).collect();
    let split = summary.left[0].cycle;
    assert!(split < cycles[0] && cycles[0] < cycles[2]);
    for limit in 1..=cycles[2] {
        let mut cfg = cfg.clone();
        cfg.max_cycles = limit;
        let (run, summary) =
            assert_group_matches_solo(&cfg, &program, &inputs, &format!("max_cycles={limit}"));
        for (r, &c) in run.iter().zip(&cycles) {
            assert_eq!(r.is_err(), limit < c, "max_cycles={limit}: {r:?}");
        }
        // A limit up to the split's cycle stops all three on the shared
        // schedule; a later one lets the third member leave first.
        let left = usize::from(limit > split);
        assert_eq!((summary.followed as usize, summary.left.len()), (3 - left, left));
    }
}

/// Launches one hand-written kernel on every executor tier and asserts the
/// outcomes — full statistics, or the error — are identical. Returns the
/// reference loop's outcome for the caller's coverage checks.
fn assert_tiers_agree_on(
    program: &pim_asm::DpuProgram,
    what: &str,
    cfg: &DpuConfig,
) -> Result<pim_dpu::DpuRunStats, pim_dpu::SimError> {
    let launch = |tier| {
        let mut dpu = pim_dpu::Dpu::new(cfg.clone().with_exec_tier(tier));
        dpu.load_program(program).unwrap_or_else(|e| panic!("{what}: load failed: {e}"));
        dpu.launch()
    };
    let naive = launch(ExecTier::Naive);
    for (tier_name, tier) in &TIERS[1..] {
        assert_eq!(
            format!("{naive:?}"),
            format!("{:?}", launch(*tier)),
            "{what}: {tier_name} diverges from naive"
        );
    }
    naive
}

/// Every tasklet walks its own stride of `data`, one word per 64 B cache
/// line, consumes each load in the next instruction (a load-use pair) and
/// then runs `filler` mutually independent ALU instructions before the
/// next load.
fn load_use_kernel(lines_per_tasklet: u32, tasklets: u32, filler: u32) -> pim_asm::DpuProgram {
    use pim_isa::Cond;
    let mut k = pim_asm::KernelBuilder::new();
    let data = k.global_zeroed("data", 64 * lines_per_tasklet * tasklets);
    let [p, v, acc, i, scratch] = k.regs(["p", "v", "acc", "i", "scratch"]);
    k.tid(p);
    k.mul(p, p, (64 * lines_per_tasklet) as i32);
    k.add(p, p, data as i32);
    k.movi(acc, 0);
    k.movi(i, lines_per_tasklet as i32);
    let top = k.label_here("top");
    k.lw(v, p, 0);
    k.add(acc, acc, v);
    for _ in 0..filler {
        k.add(scratch, i, 1);
    }
    k.add(p, p, 64);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.sw(acc, p, -64);
    k.stop();
    k.build().expect("load-use kernel builds")
}

#[test]
fn low_tlp_idle_hops_match_naive_reference() {
    // Three tasklets cannot cover the 11-cycle revolver, so the run is
    // mostly idle hops, and the kernel walks them through the three ways
    // an idle span is attributed: (A) ALU work only — every waiter waits
    // out the revolver; (B) all three start a 2 KB DMA — every waiter is
    // on the memory system; (C) tasklet 0 keeps fetching while 1 and 2
    // compute — one on a DMA beside two on the revolver, the span split
    // between the two counters.
    use pim_isa::Cond;
    use pim_trace::{StallCause, TraceEvent};
    let mut k = pim_asm::KernelBuilder::new();
    let buf = k.global_zeroed("buf", 3 * 2048);
    let [w, m, id, i, acc] = k.regs(["w", "m", "id", "i", "acc"]);
    k.tid(w);
    k.mul(w, w, 2048);
    k.add(w, w, buf as i32);
    k.tid(id);
    k.sll(m, id, 11);
    k.movi(i, 4);
    let spin = k.label_here("spin");
    k.add(acc, acc, 1);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &spin);
    k.ldma(w, m, 2048);
    let compute = k.fresh_label("compute");
    let end = k.fresh_label("end");
    k.branch(Cond::Ne, id, 0, &compute);
    k.movi(i, 6);
    let fetch = k.label_here("fetch");
    k.ldma(w, m, 256);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &fetch);
    k.jump(&end);
    k.place(&compute);
    k.movi(i, 40);
    let work = k.label_here("work");
    k.add(acc, acc, 3);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &work);
    k.place(&end);
    k.stop();
    let program = k.build().expect("low-TLP kernel builds");
    let stop_pc = program.instrs.len() as u32 - 1;

    let base = DpuConfig::paper_baseline(3);
    for (mode, cfg) in [("scratchpad", base.clone()), ("mmu", base.with_paper_mmu())] {
        let stats = assert_tiers_agree_on(&program, &format!("low TLP [{mode}]"), &cfg)
            .expect("low-TLP kernel completes");
        assert!(stats.idle_memory() > 0.0 && stats.idle_revolver() > 0.0, "{mode}: {stats:?}");
        assert!(stats.idle_memory() + stats.idle_revolver() > stats.active_cycles as f64);

        // The event stream shows each attribution was reached: count the
        // DMAs in flight at every idle span, up to the first `stop`.
        let mut dpu = pim_dpu::Dpu::new(cfg.with_event_trace(RING));
        dpu.load_program(&program).unwrap();
        dpu.launch().unwrap();
        let (mut in_flight, mut spans) = (0u32, [0u32; 3]);
        for event in &dpu.take_trace().expect("tracing was on").events {
            match *event {
                TraceEvent::DmaBegin { .. } => in_flight += 1,
                TraceEvent::DmaEnd { .. } => in_flight -= 1,
                TraceEvent::InstrRetire { pc, .. } if pc == stop_pc => break,
                TraceEvent::Stall { cause, .. } if cause != StallCause::RegisterFile => {
                    spans[match in_flight {
                        0 => 0,
                        3 => 1,
                        _ => 2,
                    }] += 1;
                }
                _ => {}
            }
        }
        assert!(
            spans.iter().all(|&n| n > 0),
            "{mode}: idle spans all-revolver / all-DMA / mixed: {spans:?}"
        );
    }
}

#[test]
fn traced_stalls_tile_the_idle_time_and_agree_per_cause() {
    // The loops cut one idle stretch at different cycles — the reference
    // loop takes the memory engine's due cycle anew on every cycle it
    // visits, the issue engine when it is due — so the `Stall` events of a
    // traced run differ in number and length between them. What a trace
    // promises is what does not depend on the cuts: the spans of each
    // cause add up to the same cycles, they come in order without overlap,
    // with the issuing cycles they account for the whole run, and a
    // row-buffer command carries the cycle it issued on, not the cycle of
    // the wake-up that drained it.
    use pim_isa::Cond;
    use pim_trace::{StallCause, TraceEvent};
    let mut k = pim_asm::KernelBuilder::new();
    let buf = k.global_zeroed("buf", 4 * 2048);
    let [w, m, a, i, id] = k.regs(["w", "m", "a", "i", "id"]);
    k.tid(w);
    k.mul(w, w, 2048);
    k.add(w, w, buf as i32);
    k.tid(id);
    k.sll(m, id, 12);
    k.movi(i, 5);
    let small = k.fresh_label("small");
    let end = k.fresh_label("end");
    k.branch(Cond::Ne, id, 0, &small);
    // Tasklet 0 streams 2 KB reads; the others fetch one burst at a time
    // and compute on it (`w` and `a` share a register bank).
    let big = k.label_here("big");
    k.ldma(w, m, 2048);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &big);
    k.jump(&end);
    k.place(&small);
    k.ldma(w, m, 64);
    k.lw(a, w, 0);
    k.add(a, w, a);
    k.add(m, m, 1024);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &small);
    k.place(&end);
    k.stop();
    let program = k.build().expect("kernel builds");

    let base = DpuConfig::paper_baseline(4);
    for (mode, cfg) in [("scratchpad", base.clone()), ("mmu", base.with_paper_mmu())] {
        let mut per_tier = Vec::new();
        for (tier_name, tier) in TIERS {
            let mut dpu =
                pim_dpu::Dpu::new(cfg.clone().with_exec_tier(tier).with_event_trace(RING));
            dpu.load_program(&program).unwrap();
            let stats = dpu.launch().expect("kernel completes");
            let trace = dpu.take_trace().expect("tracing was on");
            assert_eq!(trace.dropped, 0, "{mode}/{tier_name}");
            let (mut by_cause, mut idle_end, mut rows) = ([0u64; 3], 0u64, Vec::new());
            for event in &trace.events {
                match *event {
                    TraceEvent::Stall { cycle, cycles, cause } => {
                        assert!(cycle >= idle_end, "{mode}/{tier_name}: stall at {cycle} overlaps");
                        idle_end = cycle + cycles;
                        by_cause[StallCause::ALL.iter().position(|&c| c == cause).unwrap()] +=
                            cycles;
                    }
                    TraceEvent::RowActivate { cycle, row } => rows.push((cycle, row, true)),
                    TraceEvent::RowPrecharge { cycle, row } => rows.push((cycle, row, false)),
                    _ => {}
                }
            }
            assert!(by_cause.iter().all(|&c| c > 0), "{mode}/{tier_name}: {by_cause:?}");
            assert_eq!(
                by_cause.iter().sum::<u64>() + stats.active_cycles,
                stats.cycles,
                "{mode}/{tier_name}: {by_cause:?}"
            );
            rows.sort_unstable();
            assert!(!rows.is_empty(), "{mode}/{tier_name}");
            per_tier.push((tier_name, by_cause, rows));
        }
        let (reference, rest) = per_tier.split_first().unwrap();
        for tier in rest {
            assert_eq!((tier.1, &tier.2), (reference.1, &reference.2), "{mode}/{}", tier.0);
        }
    }
}

#[test]
fn cycle_limit_is_the_same_on_every_kind_of_cycle() {
    // Sweeping `max_cycles` over every cycle of a run that has issuing
    // cycles, register-file block cycles, and revolver and DMA idle spans
    // puts the limit on, and inside, each of them in turn.
    use pim_isa::Cond;
    let mut k = pim_asm::KernelBuilder::new();
    let buf = k.global_zeroed("buf", 256);
    let [w, m, a, i] = k.regs(["w", "m", "a", "i"]);
    k.movi(w, buf as i32);
    k.movi(m, 0);
    k.movi(i, 3);
    let top = k.label_here("top");
    k.ldma(w, m, 256);
    k.lw(a, w, 0);
    // `w` and `a` share a register bank: one extra issue slot.
    k.add(a, w, a);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.stop();
    let program = k.build().expect("kernel builds");
    assert!(program.instrs.iter().any(|i| i.rf_hazard_cycles() > 0), "kernel has an RF hazard");

    let cfg = DpuConfig::paper_baseline(2);
    let full = assert_tiers_agree_on(&program, "unlimited", &cfg).expect("kernel completes");
    assert!(full.active_cycles > 0 && full.idle_rf > 0);
    assert!(full.idle_revolver() > 0.0 && full.idle_memory() > 0.0);
    for limit in 1..=full.cycles {
        let mut cfg = cfg.clone();
        cfg.max_cycles = limit;
        let run = assert_tiers_agree_on(&program, &format!("max_cycles={limit}"), &cfg);
        // The last `stop` issues on cycle `full.cycles - 1`.
        assert_eq!(run.is_err(), limit < full.cycles, "max_cycles={limit}: {run:?}");
    }
}

#[test]
fn dcache_miss_on_the_first_of_two_issue_ways_matches_naive_reference() {
    // 2-way issue in cache-centric mode: when the first candidate of a
    // cycle misses the D-cache it leaves the issuable set without
    // retiring, and a later candidate still issues in that cycle. Enough
    // ALU filler makes the run compute-bound, so other tasklets are
    // issuable on the cycle a load misses.
    use pim_trace::TraceEvent;
    for n in [8, 16] {
        let program = load_use_kernel(16, n, 96);
        let cfg = DpuConfig::paper_baseline(n).with_ilp(IlpFeatures::all()).with_paper_caches();
        let stats = assert_tiers_agree_on(&program, &format!("2-way cached x{n}"), &cfg)
            .expect("load-use kernel completes");
        let misses = stats.dcache.expect("cached mode keeps D-cache statistics").misses;
        assert!(misses >= 16 * u64::from(n), "every line misses once, got {misses}");

        // The event order shows the case was reached: a fill request that
        // no retirement of its cycle precedes and at least one follows.
        let mut dpu = pim_dpu::Dpu::new(cfg.with_event_trace(RING));
        dpu.load_program(&program).unwrap();
        dpu.launch().unwrap();
        let events = dpu.take_trace().expect("tracing was on").events;
        let (mut last_retire, mut open_fill, mut first_way_fills) = (None, None, 0u64);
        for event in &events {
            match *event {
                TraceEvent::DmaBegin { cycle, .. } if last_retire != Some(cycle) => {
                    open_fill = Some(cycle);
                }
                TraceEvent::InstrRetire { cycle, .. } => {
                    first_way_fills += u64::from(open_fill == Some(cycle));
                    open_fill = None;
                    last_retire = Some(cycle);
                }
                _ => {}
            }
        }
        let ifills = stats.icache.expect("cached mode keeps I-cache statistics").misses;
        assert!(
            first_way_fills > ifills,
            "x{n}: {first_way_fills} first-way fills, {ifills} I-fills"
        );
    }
}

/// Ring capacity for the event-tracing legs: large enough that no PrIM
/// tiny-dataset run wraps, so the sink exercises its full record path.
const RING: usize = 1 << 16;

#[test]
fn event_tracing_is_invisible_to_both_loops() {
    // The {fast, naive} x {NullSink, RingSink} cross product: attaching a
    // structured event trace must change *nothing* in either loop's
    // simulated quantities, and both loops must still agree with each
    // other while recording.
    for w in all_workloads() {
        let base = DpuConfig::paper_baseline(8);
        let legs = [
            ("fast+null", base.clone()),
            ("fast+ring", base.clone().with_event_trace(RING)),
            ("naive+null", base.clone().with_exec_tier(ExecTier::Naive)),
            ("naive+ring", base.with_exec_tier(ExecTier::Naive).with_event_trace(RING)),
        ];
        let mut rendered: Vec<(&str, Vec<String>)> = Vec::new();
        for (leg, cfg) in legs {
            let out = w
                .run(DatasetSize::Tiny, &RunConfig::single(cfg))
                .unwrap_or_else(|e| panic!("{} [{leg}] run failed: {e}", w.name()));
            rendered.push((leg, out.per_dpu.iter().map(|s| format!("{s:?}")).collect()));
        }
        let (first_leg, first) = &rendered[0];
        for (leg, stats) in &rendered[1..] {
            assert_eq!(
                first,
                stats,
                "{}: per-DPU stats diverge between {first_leg} and {leg}",
                w.name()
            );
        }
    }
}

/// SIMT's timing anchor, one line per case: workload, tasklets, mode,
/// cycles, instructions, DMA requests and the FNV-1a-64 of the run's
/// `DpuRunStats` `Debug` rendering.
const SIMT_GOLDEN: &str = "results/golden/simt_stats.txt";

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Every workload under SIMT and SIMT+AC at 1, 8, 16 and 24 tasklets, and
/// under SIMT+AC with every ILP feature at 16 (the front-end honours the
/// unified register file and the 700 MHz clock, and ignores forwarding and
/// superscalar issue), rendered as [`SIMT_GOLDEN`] holds it. A case that
/// faults has no line.
fn simt_stats_table() -> String {
    use pim_dpu::SimtConfig;
    let simt = SimtConfig::default();
    let ac = SimtConfig { coalescing: true };
    let mut cases: Vec<(u32, &str, DpuConfig)> = Vec::new();
    for n in [1, 8, 16, 24] {
        cases.push((n, "simt", DpuConfig::paper_baseline(n).with_simt(simt)));
        cases.push((n, "simt+ac", DpuConfig::paper_baseline(n).with_simt(ac)));
    }
    let ilp = DpuConfig::paper_baseline(16).with_ilp(IlpFeatures::all()).with_simt(ac);
    cases.push((16, "simt+ac+ilp", ilp));
    let mut table = String::new();
    for w in all_workloads() {
        for (n, mode, cfg) in &cases {
            let Ok(out) = w.run(DatasetSize::Tiny, &RunConfig::single(cfg.clone())) else {
                continue;
            };
            let [stats] = &out.per_dpu[..] else { panic!("{}: one DPU", w.name()) };
            let hash = fnv1a64(format!("{stats:?}").as_bytes());
            table += &format!(
                "{} {n} {mode} {} {} {} {hash:016x}\n",
                w.name(),
                stats.cycles,
                stats.instructions,
                stats.dma_requests
            );
        }
    }
    table
}

#[test]
fn simt_stats_match_the_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SIMT_GOLDEN);
    let want = std::fs::read_to_string(&path).expect("the SIMT golden is committed");
    let got = simt_stats_table();
    for (line, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(w, g, "{SIMT_GOLDEN} line {}: SIMT timing moved", line + 1);
    }
    assert_eq!(want.lines().count(), got.lines().count(), "{SIMT_GOLDEN}: cases differ");
}

/// Rewrites [`SIMT_GOLDEN`] from this build:
/// `cargo test --release --test loop_differential -- --ignored write_simt_golden`.
/// Only for a change that is meant to move SIMT timing; review the diff.
#[test]
#[ignore = "rewrites a committed golden"]
fn write_simt_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SIMT_GOLDEN);
    std::fs::write(path, simt_stats_table()).expect("golden is writable");
}

#[test]
fn simt_divergent_programs_are_sink_invisible_and_match_the_oracle() {
    // {naive, compiled} x {NullSink, RingSink} on a program with real
    // divergence: lane-parity split paths plus tid-dependent loop trip
    // counts, so warps fracture and reconverge repeatedly.
    use pim_asm::KernelBuilder;
    use pim_dpu::{Dpu, SimtConfig};
    use pim_isa::{AluOp, Cond};
    use pim_ref::RefInterpreter;

    const N: u32 = 16;
    let mut k = KernelBuilder::new();
    let slab = k.global_zeroed("slab", 64 * N);
    let [t, p, v, w, i] = k.regs(["t", "p", "v", "w", "i"]);
    k.tid(t);
    k.mul(p, t, 64);
    k.add(p, p, slab as i32);
    k.mov(v, t);
    // Lane-parity divergence: odd and even lanes take different arms.
    let odd = k.fresh_label("odd");
    let merge = k.fresh_label("merge");
    k.alu(AluOp::And, w, t, 1);
    k.branch(Cond::Ne, w, 0, &odd);
    k.alu(AluOp::Mul, v, v, 3);
    k.jump(&merge);
    k.place(&odd);
    k.add(v, v, 100);
    k.place(&merge);
    // Tid-dependent trip counts: lanes fall out of the loop one by one.
    k.add(i, t, 1);
    let top = k.label_here("top");
    k.add(v, v, 7);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.sw(v, p, 0);
    k.stop();
    let program = k.build().expect("divergent kernel builds");

    let cfg = DpuConfig::paper_baseline(N).with_simt(SimtConfig::default());
    let run = |cfg: DpuConfig| {
        let mut dpu = Dpu::new(cfg);
        dpu.load_program(&program).unwrap();
        let stats = dpu.launch().expect("SIMT run completes");
        (format!("{stats:#?}"), dpu.read_wram(0, 64 * 1024))
    };
    let (plain_stats, plain_wram) = run(cfg.clone());
    let naive = cfg.clone().with_exec_tier(ExecTier::Naive);
    for (leg, cfg) in [
        ("compiled+ring", cfg.with_event_trace(RING)),
        ("naive+null", naive.clone()),
        ("naive+ring", naive.with_event_trace(RING)),
    ] {
        let (stats, wram) = run(cfg);
        assert_eq!(plain_stats, stats, "{leg}: SIMT stats diverge from compiled+null");
        assert_eq!(plain_wram, wram, "{leg}: SIMT memory diverges from compiled+null");
    }

    let mut oracle = RefInterpreter::new(&program, N);
    oracle.run(1_000_000).expect("oracle completes");
    assert_eq!(plain_wram, oracle.read_wram(0, 64 * 1024), "SIMT end state diverges from oracle");
}
