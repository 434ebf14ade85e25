//! The conformance gauntlet: every case runs under all executors and must
//! satisfy six metamorphic invariants.
//!
//! 1. **Oracle equality** — final WRAM/MRAM match the timing-free
//!    `pim-ref` interpreter byte-for-byte.
//! 2. **Naive/fast equality** — the optimized cycle loop's full
//!    [`pim_dpu::DpuRunStats`] (cycles, idle attribution, mixes, traces)
//!    is identical to the naive per-cycle reference loop's, in every mode.
//! 3. **Compiled/fast equality** — the block-compiled threaded-code loop
//!    (the default tier, exercised by the primary run) and the decoded
//!    fast loop produce identical stats and memory images.
//! 4. **Sink invisibility** — attaching a `RingSink` event trace changes
//!    nothing about the simulated run: the stats render identically.
//! 5. **Schedule invariance** — re-running the oracle with a *reversed*
//!    tasklet service order leaves the same final memory image (the
//!    generator only emits schedule-independent programs).
//! 6. **Batch equality** — running the case through the lockstep batch
//!    executor ([`pim_dpu::run_batch`], the `launch_all` path) produces the
//!    same `DpuRunStats` rendering and WRAM/MRAM image as the per-DPU
//!    launch, for every batch member: two that follow the leader's
//!    schedule to the end and one, staged with different MRAM contents,
//!    that may leave it.
//!
//! A case whose ground truth cannot be established (the oracle itself
//! faults) is [`CheckOutcome::Invalid`] — shrink candidates that break
//! the program land there and are rejected without masquerading as
//! conformance failures.
//!
//! Memory images are compared where they lie: in the DPU a run launched on
//! (its first 64 KB of WRAM and 128 KB of MRAM) or in the oracle's own
//! memories, never in copies. A run is dropped once the last invariant
//! that reads it has been checked, so the live runs are:
//!
//! | invariant | live runs |
//! |-----------|-----------|
//! | 1 | oracle, primary |
//! | 2 | oracle, primary, naive (stats only; dropped after) |
//! | 3 | oracle, primary, fast tier (dropped after) |
//! | 4 | oracle, primary, traced (its events go to the case's `MetricsSink`; dropped after) |
//! | 5 | oracle, primary, reversed oracle (both oracles dropped after) |
//! | 6 | primary, perturbed, the three batch members |

use crate::FuzzCase;
use pim_dpu::{Dpu, DpuConfig, DpuRunStats, ExecTier};
use pim_ref::RefInterpreter;
use pim_trace::MetricsSink;

use crate::coverage::{ChainDepth, DmaShape, MemPressure};

/// Step bound for the oracle interpreter — far above any generated
/// program, so hitting it means a runaway case, not a slow one.
pub(crate) const ORACLE_MAX_STEPS: u64 = 10_000_000;

/// WRAM bytes compared between executors (the whole scratchpad).
pub(crate) const WRAM_COMPARE: u32 = 64 * 1024;
/// MRAM bytes compared between executors (covers every generated window).
pub(crate) const MRAM_COMPARE: u32 = 128 * 1024;

/// Ring capacity used for the sink-invisibility run.
const RING_CAPACITY: usize = 1 << 16;

/// The six conformance invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Final memory equals the `pim-ref` oracle's.
    OracleEquality,
    /// Naive and fast cycle loops produce identical stats.
    NaiveFastEquality,
    /// The block-compiled loop and the fast loop produce identical stats
    /// and memory images.
    CompiledFastEquality,
    /// Event tracing does not perturb the simulation.
    SinkInvisibility,
    /// Final memory is independent of the oracle's service order.
    ScheduleInvariance,
    /// The lockstep batch driver matches the per-DPU launch exactly.
    BatchEquality,
}

impl Invariant {
    /// All invariants, in gauntlet order.
    pub const ALL: [Invariant; 6] = [
        Invariant::OracleEquality,
        Invariant::NaiveFastEquality,
        Invariant::CompiledFastEquality,
        Invariant::SinkInvisibility,
        Invariant::ScheduleInvariance,
        Invariant::BatchEquality,
    ];

    /// Stable kebab-case name (used in corpus files and reports).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Invariant::OracleEquality => "oracle",
            Invariant::NaiveFastEquality => "naive-fast",
            Invariant::CompiledFastEquality => "compiled-fast",
            Invariant::SinkInvisibility => "sink",
            Invariant::ScheduleInvariance => "schedule",
            Invariant::BatchEquality => "batch",
        }
    }
}

/// One conformance failure: which invariant broke and how.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The broken invariant.
    pub invariant: Invariant,
    /// First observed divergence, human-readable.
    pub detail: String,
}

/// Facts about a passing run the campaign feeds back into coverage.
#[derive(Debug)]
pub struct PassInfo {
    /// Memory-pressure bucket of the run.
    pub(crate) mem: MemPressure,
    /// DMA-shape bucket (bulk vs gather) of the run.
    pub(crate) shape: DmaShape,
    /// Launch-chain bucket (single vs chained) of the case.
    pub(crate) chain: ChainDepth,
    /// Event-derived counters from the traced run.
    pub(crate) metrics: MetricsSink,
}

/// Outcome of running one case through the gauntlet.
#[derive(Debug)]
pub enum CheckOutcome {
    /// All invariants held.
    Pass(Box<PassInfo>),
    /// An invariant broke — the case indicts an executor.
    Fail(Failure),
    /// Ground truth could not be established (oracle fault): the *case*
    /// is bad, not the executors.
    Invalid(String),
}

/// First differing byte between two memory images (over their common
/// length), if any. Images almost always agree, so they are compared as
/// slices first and searched byte by byte only when they differ.
fn first_diff(a: &[u8], b: &[u8]) -> Option<usize> {
    let n = a.len().min(b.len());
    if a[..n] == b[..n] {
        return None;
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

/// First differing line between two pretty-Debug renderings (the stats
/// structs render one field per line under `{:#?}`).
fn first_line_diff(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("`{}` vs `{}`", la.trim(), lb.trim());
        }
    }
    format!("{} vs {} debug lines", a.lines().count(), b.lines().count())
}

/// One launched run: its merged statistics, and the DPU it ran on, whose
/// final memory images the invariants read where they lie.
struct RunOutput {
    stats_debug: String,
    cycles: u64,
    dma_requests: u64,
    dram_bytes: u64,
    dpu: Dpu,
}

impl RunOutput {
    fn wram(&self) -> &[u8] {
        self.dpu.wram_window(0, WRAM_COMPARE)
    }

    fn mram(&self) -> &[u8] {
        self.dpu.mram_window(0, MRAM_COMPARE)
    }
}

/// Launches the case's program `case.launches` times on one DPU (WRAM and
/// MRAM persist between launches) and merges the per-launch statistics.
fn run_once(case: &FuzzCase, cfg: DpuConfig) -> Result<RunOutput, String> {
    run_staged(case, cfg, |_| {})
}

/// Fills the tasklets' private MRAM windows with a fixed non-zero word,
/// where every other run starts from zeroes. Generated programs read the
/// windows back only through gather probes, which fold each loaded word
/// into the value that later data-dependent branches test — and that picks
/// the next probe's offset from its low ten bits. The word leaves those
/// bits alone, so a DPU staged like this keeps issuing the same DMAs as its
/// unstaged twins and first parts from them on a branch.
fn perturb_mram(dpu: &mut Dpu) {
    const WORD: [u8; 4] = 0xa5a5_a400_u32.to_le_bytes();
    let len = crate::gen::MRAM_WINDOW as u32 * 16;
    for word in dpu.mram_window_mut(crate::gen::MRAM_BASE as u32, len).chunks_exact_mut(4) {
        word.copy_from_slice(&WORD);
    }
}

/// [`run_once`] on a DPU that `stage` touched between load and launch.
fn run_staged(
    case: &FuzzCase,
    cfg: DpuConfig,
    stage: impl Fn(&mut Dpu),
) -> Result<RunOutput, String> {
    let mut dpu = Dpu::new(cfg);
    dpu.load_program(&case.program).map_err(|e| format!("load: {e}"))?;
    stage(&mut dpu);
    let mut stats = dpu.launch().map_err(|e| format!("launch: {e}"))?;
    for n in 1..case.launch_count() {
        let more = dpu.launch().map_err(|e| format!("launch {}: {e}", n + 1))?;
        stats.merge(&more);
    }
    Ok(RunOutput {
        stats_debug: format!("{stats:#?}"),
        cycles: stats.cycles,
        dma_requests: stats.dma_requests,
        dram_bytes: stats.dram.bytes_read,
        dpu,
    })
}

/// Runs the oracle for `case.launches` chained launches, re-arming it
/// between launches with [`RefInterpreter::relaunch`]. `order` selects
/// the tasklet service order (`None` = identity).
fn run_oracle(
    oracle: &mut RefInterpreter,
    case: &FuzzCase,
    order: Option<&[u32]>,
) -> Result<(), String> {
    for n in 0..case.launch_count() {
        if n > 0 {
            oracle.relaunch();
        }
        let r = match order {
            Some(o) => oracle.run_in_order(ORACLE_MAX_STEPS, o),
            None => oracle.run(ORACLE_MAX_STEPS),
        };
        r.map_err(|e| if n > 0 { format!("launch {}: {e}", n + 1) } else { e.to_string() })?;
    }
    Ok(())
}

/// Runs one case through all six invariants.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_gauntlet(case: &FuzzCase) -> CheckOutcome {
    // Ground truth: the timing-free oracle, chained `case.launches` times.
    let mut oracle = RefInterpreter::new(&case.program, case.tasklets);
    if let Err(e) = run_oracle(&mut oracle, case, None) {
        return CheckOutcome::Invalid(format!("oracle: {e}"));
    }
    let owram = &oracle.wram[..WRAM_COMPARE as usize];
    let omram = &oracle.mram[..MRAM_COMPARE as usize];

    // Invariant 1: the optimized pipeline agrees with the oracle.
    let fast = match run_once(case, case.config()) {
        Ok(r) => r,
        Err(e) => {
            return CheckOutcome::Fail(Failure {
                invariant: Invariant::OracleEquality,
                detail: format!("simulator faulted where the oracle ran clean: {e}"),
            });
        }
    };
    for (name, got, want) in [("WRAM", fast.wram(), owram), ("MRAM", fast.mram(), omram)] {
        if let Some(at) = first_diff(got, want) {
            return CheckOutcome::Fail(Failure {
                invariant: Invariant::OracleEquality,
                detail: format!(
                    "{name} diverged at {at:#x}: simulator {:#04x}, oracle {:#04x}",
                    got[at], want[at]
                ),
            });
        }
    }

    // Invariant 2: the naive per-cycle loop times identically.
    let naive = match run_once(case, case.config().with_exec_tier(ExecTier::Naive)) {
        Ok(r) => r,
        Err(e) => {
            return CheckOutcome::Fail(Failure {
                invariant: Invariant::NaiveFastEquality,
                detail: format!("naive loop faulted where the fast loop ran clean: {e}"),
            });
        }
    };
    if naive.stats_debug != fast.stats_debug {
        return CheckOutcome::Fail(Failure {
            invariant: Invariant::NaiveFastEquality,
            detail: format!(
                "stats diverged (fast {} vs naive {} cycles): {}",
                fast.cycles,
                naive.cycles,
                first_line_diff(&fast.stats_debug, &naive.stats_debug)
            ),
        });
    }
    drop(naive);

    // Invariant 3: the decoded fast loop agrees with the block-compiled
    // loop (the default tier, so the primary run above is compiled). The
    // memory comparison matters here: the two loops share the scheduler
    // shape but execute through different instruction implementations.
    let fastloop = match run_once(case, case.config().with_exec_tier(ExecTier::Fast)) {
        Ok(r) => r,
        Err(e) => {
            return CheckOutcome::Fail(Failure {
                invariant: Invariant::CompiledFastEquality,
                detail: format!("fast loop faulted where the compiled loop ran clean: {e}"),
            });
        }
    };
    if fastloop.stats_debug != fast.stats_debug {
        return CheckOutcome::Fail(Failure {
            invariant: Invariant::CompiledFastEquality,
            detail: format!(
                "stats diverged (compiled {} vs fast {} cycles): {}",
                fast.cycles,
                fastloop.cycles,
                first_line_diff(&fast.stats_debug, &fastloop.stats_debug)
            ),
        });
    }
    for (name, got, want) in
        [("WRAM", fastloop.wram(), fast.wram()), ("MRAM", fastloop.mram(), fast.mram())]
    {
        if let Some(at) = first_diff(got, want) {
            return CheckOutcome::Fail(Failure {
                invariant: Invariant::CompiledFastEquality,
                detail: format!(
                    "{name} diverged at {at:#x}: fast {:#04x}, compiled {:#04x}",
                    got[at], want[at]
                ),
            });
        }
    }
    drop(fastloop);

    // Invariant 4: attaching an event-trace ring is invisible.
    let mut ring = match run_once(case, case.config().with_event_trace(RING_CAPACITY)) {
        Ok(r) => r,
        Err(e) => {
            return CheckOutcome::Fail(Failure {
                invariant: Invariant::SinkInvisibility,
                detail: format!("traced run faulted where the untraced run ran clean: {e}"),
            });
        }
    };
    if ring.stats_debug != fast.stats_debug {
        return CheckOutcome::Fail(Failure {
            invariant: Invariant::SinkInvisibility,
            detail: format!(
                "stats changed under tracing: {}",
                first_line_diff(&fast.stats_debug, &ring.stats_debug)
            ),
        });
    }
    let mut metrics = MetricsSink::new();
    if let Some(trace) = ring.dpu.take_trace() {
        metrics.absorb(&trace.events);
    }
    drop(ring);

    // Invariant 5: a reversed oracle service order reaches the same
    // memory image (schedule independence).
    let mut reversed = RefInterpreter::new(&case.program, case.tasklets);
    let order: Vec<u32> = (0..case.tasklets).rev().collect();
    if let Err(e) = run_oracle(&mut reversed, case, Some(&order)) {
        return CheckOutcome::Fail(Failure {
            invariant: Invariant::ScheduleInvariance,
            detail: format!("oracle faulted under reversed schedule: {e}"),
        });
    }
    let rwram = &reversed.wram[..WRAM_COMPARE as usize];
    let rmram = &reversed.mram[..MRAM_COMPARE as usize];
    for (name, got, want) in [("WRAM", rwram, owram), ("MRAM", rmram, omram)] {
        if let Some(at) = first_diff(got, want) {
            return CheckOutcome::Fail(Failure {
                invariant: Invariant::ScheduleInvariance,
                detail: format!(
                    "{name} depends on the schedule at {at:#x}: reversed {:#04x}, identity {:#04x}",
                    got[at], want[at]
                ),
            });
        }
    }
    drop((reversed, oracle));

    // Invariant 6: the lockstep batch driver (the `launch_all` path) matches
    // the per-DPU launch member-for-member. Two members with the case's own
    // state follow the leader's schedule end to end; a third, with
    // perturbed MRAM, leaves it wherever its branches go another way (when
    // its solo reference faults — shrink candidates can — it stays
    // unperturbed). SIMT and traced configurations fall back to per-DPU
    // launches inside `run_batch` and must still agree.
    let perturbed = run_staged(case, case.config(), perturb_mram).ok();
    let mut batch: Vec<Dpu> = (0..3).map(|_| Dpu::new(case.config())).collect();
    for dpu in &mut batch {
        if let Err(e) = dpu.load_program(&case.program) {
            return CheckOutcome::Fail(Failure {
                invariant: Invariant::BatchEquality,
                detail: format!("batch member failed to load: {e}"),
            });
        }
    }
    if perturbed.is_some() {
        perturb_mram(&mut batch[2]);
    }
    let solo = [&fast, &fast, perturbed.as_ref().unwrap_or(&fast)];
    // Chained launches go through `run_batch` once per launch; stats merge
    // per member, exactly as the solo path merges per-launch stats.
    let mut merged: Vec<Option<DpuRunStats>> = vec![None; batch.len()];
    for n in 0..case.launch_count() {
        let (batch_stats, _) = pim_dpu::run_batch(&mut batch);
        for (i, result) in batch_stats.into_iter().enumerate() {
            let stats = match result {
                Ok(s) => s,
                Err(e) => {
                    return CheckOutcome::Fail(Failure {
                        invariant: Invariant::BatchEquality,
                        detail: format!(
                            "batch member {i} faulted (launch {}) where the solo launch ran \
                             clean: {e}",
                            n + 1
                        ),
                    });
                }
            };
            match &mut merged[i] {
                Some(acc) => acc.merge(&stats),
                slot @ None => *slot = Some(stats),
            }
        }
    }
    for (i, ((stats, dpu), solo)) in merged.iter().flatten().zip(&batch).zip(solo).enumerate() {
        let rendered = format!("{stats:#?}");
        if rendered != solo.stats_debug {
            return CheckOutcome::Fail(Failure {
                invariant: Invariant::BatchEquality,
                detail: format!(
                    "batch member {i} stats diverged: {}",
                    first_line_diff(&solo.stats_debug, &rendered)
                ),
            });
        }
        let bwram = dpu.wram_window(0, WRAM_COMPARE);
        let bmram = dpu.mram_window(0, MRAM_COMPARE);
        for (name, got, want) in [("WRAM", bwram, solo.wram()), ("MRAM", bmram, solo.mram())] {
            if let Some(at) = first_diff(got, want) {
                return CheckOutcome::Fail(Failure {
                    invariant: Invariant::BatchEquality,
                    detail: format!(
                        "batch member {i} {name} diverged at {at:#x}: batched {:#04x}, solo {:#04x}",
                        got[at], want[at]
                    ),
                });
            }
        }
    }

    CheckOutcome::Pass(Box::new(PassInfo {
        mem: MemPressure::classify(fast.dma_requests, case.tasklets),
        shape: DmaShape::classify(fast.dma_requests, fast.dram_bytes),
        chain: ChainDepth::classify(case.launch_count()),
        metrics,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenOptions};
    use crate::ExecMode;
    use pim_asm::KernelBuilder;

    fn gen_opts(tasklets: u32) -> GenOptions {
        GenOptions { tasklets, mode: ExecMode::Scalar, focus: None, gather: false, launches: 1 }
    }

    #[test]
    fn first_diff_finds_the_first_differing_byte_of_the_common_length() {
        let a = vec![0u8; 64 * 1024];
        assert_eq!(first_diff(&a, &a.clone()), None);
        let mut b = a.clone();
        b[40_000] = 1;
        b[50_000] = 2;
        assert_eq!(first_diff(&a, &b), Some(40_000));
        assert_eq!(first_diff(&a[..40_000], &b), None, "only the common length is compared");
    }

    #[test]
    fn a_generated_program_passes_the_gauntlet() {
        let case = generate(3, &gen_opts(4));
        match run_gauntlet(&case) {
            CheckOutcome::Pass(info) => {
                assert!(run_once(&case, case.config()).unwrap().cycles > 0);
                assert!(info.metrics.get("instr_retired") > 0);
            }
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn a_runaway_program_is_invalid_not_failing() {
        // An infinite loop: the oracle hits its step bound, so the case
        // is rejected as invalid rather than blamed on an executor.
        let mut k = KernelBuilder::new();
        let top = k.label_here("top");
        k.jump(&top);
        let program = k.build().unwrap();
        let case = FuzzCase {
            program,
            tasklets: 1,
            mode: ExecMode::Scalar,
            launches: 1,
            label: "runaway".into(),
            mutant: None,
        };
        assert!(matches!(run_gauntlet(&case), CheckOutcome::Invalid(_)));
    }

    #[test]
    fn a_chained_case_passes_and_classifies_as_chained() {
        let mut case = generate(3, &gen_opts(4));
        case.launches = 3;
        match run_gauntlet(&case) {
            CheckOutcome::Pass(info) => {
                assert_eq!(info.chain, crate::coverage::ChainDepth::Chained);
                // Three launches retire strictly more work than one.
                let solo = FuzzCase { launches: 1, ..case.clone() };
                match run_gauntlet(&solo) {
                    CheckOutcome::Pass(_) => {
                        let cycles = |c: &FuzzCase| run_once(c, c.config()).unwrap().cycles;
                        assert!(cycles(&case) > cycles(&solo));
                    }
                    other => panic!("solo leg should pass, got {other:?}"),
                }
            }
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn a_schedule_dependent_program_is_caught() {
        // Last-writer-wins on a shared word with no mutex: identity and
        // reversed service orders leave different winners.
        let mut k = KernelBuilder::new();
        let shared = k.global_zeroed("shared", 4);
        let [t, p] = k.regs(["t", "p"]);
        k.tid(t);
        k.movi(p, shared as i32);
        k.sw(t, p, 0);
        k.stop();
        let program = k.build().unwrap();
        let case = FuzzCase {
            program,
            tasklets: 2,
            mode: ExecMode::Scalar,
            launches: 1,
            label: "racy".into(),
            mutant: None,
        };
        // The text is pinned: the oracle images are compared in place.
        match run_gauntlet(&case) {
            CheckOutcome::Fail(f) => {
                assert_eq!(f.invariant, Invariant::ScheduleInvariance);
                assert_eq!(
                    f.detail,
                    "WRAM depends on the schedule at 0x0: reversed 0x00, identity 0x01"
                );
            }
            other => panic!("expected schedule-invariance failure, got {other:?}"),
        }
    }
}
