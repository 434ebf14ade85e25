//! Bit-reproducibility: the simulator has no wall-clock or OS entropy, so
//! the same configuration must produce identical cycles, instruction
//! counts, and outputs on every run (DESIGN.md §5, point 12).

use pim_dpu::DpuConfig;
use pimulator::experiments as exp;
use pimulator::jobs::JobRunner;
use prim_suite::{all_workloads, DatasetSize, RunConfig};

#[test]
fn repeated_runs_are_bit_identical() {
    for w in all_workloads() {
        let rc = RunConfig::single(DpuConfig::paper_baseline(8));
        let a = w.run(DatasetSize::Tiny, &rc).unwrap().merged();
        let b = w.run(DatasetSize::Tiny, &rc).unwrap().merged();
        assert_eq!(a.cycles, b.cycles, "{} cycles differ across runs", w.name());
        assert_eq!(a.instructions, b.instructions, "{} instructions differ", w.name());
        assert_eq!(a.class_counts, b.class_counts, "{} mixes differ", w.name());
        assert_eq!(a.dram.bytes_read, b.dram.bytes_read, "{} traffic differs", w.name());
        assert_eq!(a.tlp_histogram, b.tlp_histogram, "{} TLP differs", w.name());
    }
}

#[test]
fn rank_scale_rows_are_identical_across_thread_counts_and_batch_sizes() {
    // The rank sweep shards thousands of DPUs into systems whose launches
    // run in lockstep groups, and folds shard rows with order-independent
    // operations, so its *simulated* quantities must be byte-identical
    // however the host parallelizes — worker counts, shard lengths and
    // uneven shard splits all land on the same rows.
    let render = |rows: &[exp::RankScaleRow]| format!("{rows:#?}");
    let sweep = |threads: usize, shard_len: u32| {
        exp::exp_rank_scale(&JobRunner::new(Some(threads)), DatasetSize::Tiny, shard_len)
            .expect("rank sweep runs")
    };
    let baseline = render(&sweep(1, exp::DEFAULT_RANK_BATCH).0);
    for threads in [4, 8] {
        let (rows, lockstep) = sweep(threads, exp::DEFAULT_RANK_BATCH);
        assert_eq!(baseline, render(&rows), "rank rows differ at --threads {threads}");
        assert!(lockstep.left.is_empty(), "the rank kernel never diverges: {lockstep}");
    }
    for shard_len in [7, 32] {
        let (rows, _) = sweep(4, shard_len);
        assert_eq!(baseline, render(&rows), "rank rows differ at shard length {shard_len}");
    }
}

#[test]
fn faulty_serving_json_is_byte_identical_across_thread_counts() {
    // Fault draws are keyed on (spec seed, round index) and outages are
    // pre-drawn, so even a campaign exercising all three failure modes —
    // transient, stuck, rank-offline — must render byte-identical
    // results JSON at any worker count. The runs are traced, which
    // bypasses the process-wide profile memo, so each one simulates every
    // composition it reaches at its own worker count.
    use pim_serve::{outcome_json, run_scenario, scenario_by_name, FaultSpec, ServeOptions};

    let scenario = scenario_by_name("faulty").unwrap();
    let spec = FaultSpec::parse(
        "seed=8,transient=70,stuck=25,timeout_us=900,outages=1,outage_ms=1,rank_dpus=4",
    )
    .unwrap();
    let doc = |threads: usize, trace_capacity: usize| {
        let opts = ServeOptions {
            threads: Some(threads),
            faults: Some(spec),
            trace_capacity,
            ..ServeOptions::default()
        };
        outcome_json(&run_scenario(scenario, &opts).unwrap()).render_pretty()
    };
    let reference = doc(1, 1);
    assert!(doc(1, 0) == reference, "faulty serve diverged once memoized");
    for threads in [4usize, 8] {
        assert!(doc(threads, 1) == reference, "faulty serve diverged at --threads {threads}");
    }
}

#[test]
fn multi_dpu_runs_are_bit_identical() {
    for name in ["VA", "BFS", "SCAN-RSS"] {
        let w = prim_suite::workload_by_name(name).unwrap();
        let rc = RunConfig::multi(4, DpuConfig::paper_baseline(4));
        let a = w.run(DatasetSize::Tiny, &rc).unwrap();
        let b = w.run(DatasetSize::Tiny, &rc).unwrap();
        assert!((a.timeline.total_ns() - b.timeline.total_ns()).abs() < 1e-9);
        for (x, y) in a.per_dpu.iter().zip(&b.per_dpu) {
            assert_eq!(x.cycles, y.cycles, "{name} per-DPU cycles differ");
        }
    }
}

#[test]
fn dma_event_streams_are_identical_across_runs() {
    // Sixteen tasklets stream blocks through the bank at once, so the
    // memory engine retires requests back to back. It reports completions
    // in issue order, never in the iteration order of a hashed container
    // (which differs between two instances in one process), so the
    // `DmaEnd` order, and with it the whole event stream, must repeat
    // exactly.
    use pim_asm::KernelBuilder;
    use pim_dpu::Dpu;
    use pim_isa::Cond;
    use pim_trace::TraceEvent;

    const TASKLETS: u32 = 16;
    const BLOCK: u32 = 1024;
    const ROUNDS: u32 = 3;
    let mut k = KernelBuilder::new();
    let buf = k.alloc_wram(BLOCK * TASKLETS, 8);
    let [w, m, d, end] = k.regs(["w", "m", "d", "end"]);
    k.tid(m);
    k.mul(m, m, BLOCK as i32);
    k.add(w, m, buf as i32);
    k.add(end, m, (ROUNDS * BLOCK * TASKLETS) as i32);
    let top = k.label_here("copy");
    k.ldma(w, m, BLOCK as i32);
    k.add(d, m, 1 << 20);
    k.sdma(w, d, BLOCK as i32);
    k.add(m, m, (BLOCK * TASKLETS) as i32);
    k.branch(Cond::Ltu, m, end, &top);
    k.stop();
    let program = k.build().expect("DMA kernel builds");

    let events = || {
        let mut dpu = Dpu::new(DpuConfig::paper_baseline(TASKLETS).with_event_trace(1 << 16));
        dpu.load_program(&program).unwrap();
        dpu.launch().expect("DMA kernel completes");
        let trace = dpu.take_trace().expect("tracing is on");
        assert_eq!(trace.dropped, 0);
        trace.events
    };
    let first = events();
    let ends = first.iter().filter(|e| matches!(e, TraceEvent::DmaEnd { .. })).count();
    assert_eq!(ends as u32, 2 * ROUNDS * TASKLETS);
    assert!(first == events(), "event stream differs between two runs");
}
