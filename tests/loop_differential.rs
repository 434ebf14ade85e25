//! Differential pinning of the optimized DPU executor tiers against the
//! naive per-cycle reference.
//!
//! The optimized executors — the decoded fast loop (pre-decoded side
//! tables, event-driven wakeup, allocation-free steady state) and the
//! block-compiled threaded-code loop — must be *timing-invisible*: every
//! simulated quantity — cycle counts, idle attribution, instruction mixes,
//! the trace itself — has to match what the straightforward
//! scan-everything-every-cycle loop computes. [`ExecTier`] keeps all three
//! loops alive so this suite can assert full `DpuRunStats` equality over
//! the whole extended PrIM suite (naive × fast × compiled, across tasklet
//! counts and pipeline modes).

use pim_dpu::{DpuConfig, ExecTier, IlpFeatures};
use prim_suite::{all_workloads, extended_workloads, DatasetSize, RunConfig, Workload};

const TASKLETS: [u32; 3] = [1, 8, 16];

/// The three scalar executor tiers, with leg labels.
const TIERS: [(&str, ExecTier); 3] =
    [("naive", ExecTier::Naive), ("fast", ExecTier::Fast), ("compiled", ExecTier::Compiled)];

/// Runs one workload under `cfg` through every executor tier and asserts
/// the per-DPU stats are identical field-for-field (via the `Debug`
/// rendering, which covers every stat including traces and f64 idle
/// attribution).
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
fn cached_loop_matches_naive_reference() {
    for w in all_workloads().into_iter().filter(|w| w.supports_cache_mode()) {
        for n in TASKLETS {
            let cfg = DpuConfig::paper_baseline(n).with_paper_caches();
            assert_loops_agree(w.as_ref(), "cached", cfg);
        }
    }
}

/// Runs one workload over the same 4-DPU population through the per-DPU
/// path and the lockstep batch driver (`batch_dpus = 3`, so the population
/// shards into a 3-member batch plus a singleton) and asserts per-DPU
/// stats are identical field-for-field.
///
/// Each DPU holds a different dataset shard, so batches start in lockstep
/// and genuinely diverge mid-kernel — this leg pins the divergence
/// materialization path on real workloads, not just synthetic kernels.
fn assert_batched_agrees(w: &dyn Workload, mode: &str, cfg: DpuConfig) {
    const DPUS: u32 = 4;
    let per_dpu = w
        .run(DatasetSize::Tiny, &RunConfig::multi(DPUS, cfg.clone()))
        .unwrap_or_else(|e| panic!("{} [{mode}] per-DPU run failed: {e}", w.name()));
    let batched = w
        .run(DatasetSize::Tiny, &RunConfig::multi(DPUS, cfg.with_batched(3)))
        .unwrap_or_else(|e| panic!("{} [{mode}] batched run failed: {e}", w.name()));
    batched
        .validation
        .as_ref()
        .unwrap_or_else(|e| panic!("{} [{mode}] batched output failed validation: {e}", w.name()));
    assert_eq!(
        per_dpu.per_dpu.len(),
        batched.per_dpu.len(),
        "{} [{mode}]: DPU count differs",
        w.name()
    );
    for (i, (p, b)) in per_dpu.per_dpu.iter().zip(&batched.per_dpu).enumerate() {
        assert_eq!(
            format!("{p:?}"),
            format!("{b:?}"),
            "{} [{mode}] dpu {i}: batched stats diverge from per-DPU path",
            w.name()
        );
    }
}

#[test]
fn batched_executor_matches_per_dpu_path() {
    // SIMT configurations fall back to individual launches inside
    // `run_batch` (lockstep does not model them), so the batched legs here
    // are the three scoreboard-loop modes; SIMT is covered below.
    for w in all_workloads() {
        for n in TASKLETS {
            assert_batched_agrees(w.as_ref(), "scalar", DpuConfig::paper_baseline(n));
            let ilp = DpuConfig::paper_baseline(n).with_ilp(IlpFeatures::all());
            assert_batched_agrees(w.as_ref(), "ilp", ilp);
            if w.supports_cache_mode() {
                // Cache-centric runs are single-DPU by construction (and
                // cached mode never enters lockstep), so this leg pins
                // `run_batch`'s per-DPU fallback.
                let cached = DpuConfig::paper_baseline(n).with_paper_caches();
                let solo = w
                    .run(DatasetSize::Tiny, &RunConfig::single(cached.clone()))
                    .unwrap_or_else(|e| panic!("{} [cached] run failed: {e}", w.name()));
                let batched = w
                    .run(DatasetSize::Tiny, &RunConfig::single(cached.with_batched(3)))
                    .unwrap_or_else(|e| panic!("{} [cached] batched run failed: {e}", w.name()));
                assert_eq!(
                    format!("{:?}", solo.per_dpu),
                    format!("{:?}", batched.per_dpu),
                    "{} [cached]: batched stats diverge from per-DPU path",
                    w.name()
                );
            }
        }
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

#[test]
fn simt_divergent_programs_are_sink_invisible_and_match_the_oracle() {
    // The SIMT front-end has no naive loop, so its leg of the cross
    // product is {NullSink, RingSink} on a program with real divergence:
    // lane-parity split paths plus tid-dependent loop trip counts, so
    // warps fracture and reconverge repeatedly.
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
    let (traced_stats, traced_wram) = run(cfg.with_event_trace(RING));
    assert_eq!(plain_stats, traced_stats, "RingSink perturbed SIMT stats");
    assert_eq!(plain_wram, traced_wram, "RingSink perturbed SIMT memory");

    let mut oracle = RefInterpreter::new(&program, N);
    oracle.run(1_000_000).expect("oracle completes");
    assert_eq!(plain_wram, oracle.read_wram(0, 64 * 1024), "SIMT end state diverges from oracle");
}
