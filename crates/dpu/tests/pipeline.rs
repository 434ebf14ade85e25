//! End-to-end pipeline-behaviour tests: these pin down the timing semantics
//! the paper's characterization figures rest on (revolver stalls, RF
//! hazards, DMA blocking, ILP features, SIMT, caches, MMU).

use pim_asm::{assemble, Barrier, KernelBuilder, Mutex};
use pim_dpu::{Dpu, DpuConfig, IlpFeatures, SimtConfig};
use pim_isa::{AluOp, Cond};
use pim_trace::{RingSink, TraceEvent};

/// A kernel of `n` independent ALU instructions per tasklet, then stop.
fn independent_alu_kernel(n: usize) -> pim_asm::DpuProgram {
    let mut k = KernelBuilder::new();
    let [a, b] = k.regs(["a", "b"]);
    k.movi(a, 1);
    for _ in 0..n {
        // Only `a` is read, and it is written once up front: no RAW chain.
        k.alu(AluOp::Add, b, a, 7);
    }
    k.stop();
    k.build().unwrap()
}

fn run(cfg: DpuConfig, program: &pim_asm::DpuProgram) -> pim_dpu::DpuRunStats {
    let mut dpu = Dpu::new(cfg);
    dpu.load_program(program).unwrap();
    dpu.launch().unwrap()
}

#[test]
fn single_tasklet_is_revolver_bound() {
    let program = independent_alu_kernel(100);
    let stats = run(DpuConfig::paper_baseline(1), &program);
    // Each of the ~102 instructions dispatches 11 cycles after the previous:
    // IPC ≈ 1/11 and the idle cycles are attributed to the revolver.
    assert!(stats.cycles >= 100 * 11, "cycles {} below revolver bound", stats.cycles);
    assert!(
        stats.ipc() < 0.11 && stats.ipc() > 0.08,
        "1-thread IPC {} should be ≈ 1/11",
        stats.ipc()
    );
    let (_, mem, rev, rf) = stats.breakdown();
    assert!(rev > 0.85, "revolver idle fraction {rev} should dominate");
    assert!(mem < 0.05 && rf < 0.05);
}

#[test]
fn sixteen_tasklets_saturate_the_pipeline() {
    let program = independent_alu_kernel(100);
    let stats = run(DpuConfig::paper_baseline(16), &program);
    // 16 > 11 tasklets: the scheduler can fill every slot.
    assert!(stats.ipc() > 0.9, "16-thread IPC {} should approach 1", stats.ipc());
    let (active, ..) = stats.breakdown();
    assert!(active > 0.9);
}

#[test]
fn data_forwarding_unlocks_single_thread_ilp() {
    let program = independent_alu_kernel(100);
    let base = run(DpuConfig::paper_baseline(1), &program);
    let d = IlpFeatures { data_forwarding: true, ..IlpFeatures::default() };
    let fwd = run(DpuConfig::paper_baseline(1).with_ilp(d), &program);
    // Independent instructions now dispatch back-to-back.
    assert!(
        fwd.cycles * 5 < base.cycles,
        "forwarding should speed independent code >5x ({} vs {})",
        fwd.cycles,
        base.cycles
    );
}

#[test]
fn forwarding_respects_true_dependences() {
    // A strict dependence chain: each add consumes the previous result.
    let mut k = KernelBuilder::new();
    let a = k.reg("a");
    k.movi(a, 0);
    for _ in 0..100 {
        k.add(a, a, 1);
    }
    k.stop();
    let program = k.build().unwrap();
    let d = IlpFeatures { data_forwarding: true, ..IlpFeatures::default() };
    let chain = run(DpuConfig::paper_baseline(1).with_ilp(d), &program);
    let indep = run(DpuConfig::paper_baseline(1).with_ilp(d), &independent_alu_kernel(100));
    // The chain waits ~alu_forward_latency per instruction.
    assert!(
        chain.cycles > indep.cycles * 2,
        "dependent chain ({}) must be slower than independent code ({})",
        chain.cycles,
        indep.cycles
    );
    // Functional result intact.
}

#[test]
fn rf_hazard_appears_and_unified_rf_removes_it() {
    // Sources r0 and r2 are both even-bank: structural hazard every time.
    let src = "
        .text
        movi r0, 1
        movi r2, 2
        add r4, r0, r2
        add r6, r0, r2
        add r4, r0, r2
        add r6, r0, r2
        add r4, r0, r2
        add r6, r0, r2
        stop
    ";
    let program = assemble(src).unwrap();
    let base = run(DpuConfig::paper_baseline(16), &program);
    assert!(base.idle_rf > 0, "even/even sources must cost RF hazard cycles");
    let r = IlpFeatures { unified_rf: true, ..IlpFeatures::default() };
    let unified = run(DpuConfig::paper_baseline(16).with_ilp(r), &program);
    assert_eq!(unified.idle_rf, 0, "unified RF removes the hazard");
    assert!(unified.cycles <= base.cycles);
}

#[test]
fn superscalar_doubles_throughput_with_enough_tlp() {
    let program = independent_alu_kernel(200);
    let drs = IlpFeatures {
        data_forwarding: true,
        unified_rf: true,
        superscalar: true,
        double_frequency: false,
    };
    let base = run(DpuConfig::paper_baseline(16), &program);
    let fast = run(DpuConfig::paper_baseline(16).with_ilp(drs), &program);
    assert!(fast.ipc() > 1.5, "2-way superscalar IPC {} should approach 2", fast.ipc());
    assert!(fast.ipc() > base.ipc() * 1.5);
}

#[test]
fn dma_blocks_and_counts_memory_idle() {
    // Single tasklet ping-ponging small DMA reads: memory-bound.
    let mut k = KernelBuilder::new();
    let [w, m, i] = k.regs(["w", "m", "i"]);
    k.movi(w, 0);
    k.movi(m, 0);
    k.movi(i, 64);
    let top = k.label_here("loop");
    k.ldma(w, m, 8);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.stop();
    let program = k.build().unwrap();
    let stats = run(DpuConfig::paper_baseline(1), &program);
    let (_, mem_frac, ..) = stats.breakdown();
    assert!(mem_frac > 0.4, "small-DMA loop should be memory-idle, got {mem_frac}");
    assert_eq!(stats.dram.bytes_read, 64 * 8);
    assert_eq!(stats.dma_requests, 64);
}

#[test]
fn dma_functional_round_trip_through_mram() {
    let mut k = KernelBuilder::new();
    let buf = k.global_zeroed("buf", 64);
    let [w, m] = k.regs(["w", "m"]);
    k.movi(w, buf as i32);
    k.movi(m, 4096);
    k.ldma(w, m, 64); // MRAM → WRAM
                      // Increment first word.
    let v = k.reg("v");
    k.lw(v, w, 0);
    k.add(v, v, 1);
    k.sw(v, w, 0);
    k.sdma(w, m, 64); // WRAM → MRAM
    k.stop();
    let program = k.build().unwrap();
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(1));
    dpu.load_program(&program).unwrap();
    dpu.write_mram(4096, &41i32.to_le_bytes());
    dpu.launch().unwrap();
    let out = dpu.read_mram(4096, 4);
    assert_eq!(i32::from_le_bytes(out.try_into().unwrap()), 42);
}

#[test]
fn barrier_synchronizes_all_tasklets_repeatedly() {
    // Each tasklet adds its id to a per-round accumulator; rounds separated
    // by barriers. With correct barriers every round sums 0+1+…+7.
    let n = 8u32;
    let rounds = 4;
    let mut k = KernelBuilder::new();
    let bar = Barrier::alloc(&mut k, n);
    let mtx = Mutex::alloc(&mut k);
    let sums = k.global_zeroed("sums", 4 * rounds);
    let [s0, s1, s2] = k.regs(["s0", "s1", "s2"]);
    let [t, p, v] = k.regs(["t", "p", "v"]);
    k.tid(t);
    for r in 0..rounds {
        mtx.lock(&mut k);
        k.movi(p, (sums + 4 * r) as i32);
        k.lw(v, p, 0);
        k.add(v, v, t);
        k.sw(v, p, 0);
        mtx.unlock(&mut k);
        bar.wait(&mut k, [s0, s1, s2]);
    }
    k.stop();
    let program = k.build().unwrap();
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(n));
    dpu.load_program(&program).unwrap();
    let stats = dpu.launch().unwrap();
    let out = dpu.read_wram_symbol("sums");
    for r in 0..rounds as usize {
        let v = i32::from_le_bytes(out[4 * r..4 * r + 4].try_into().unwrap());
        assert_eq!(v, 28, "round {r} sum");
    }
    // Busy-wait spinning must show up as executed instructions.
    assert!(stats.instructions > 0);
}

#[test]
fn mutex_contention_counts_sync_instructions() {
    // All tasklets hammer one counter: acquire retries inflate the sync
    // class, the effect behind the paper's HST-L observation (Fig 9).
    let n = 16u32;
    let mut k = KernelBuilder::new();
    let mtx = Mutex::alloc(&mut k);
    let counter = k.global_zeroed("counter", 4);
    let [p, v, i] = k.regs(["p", "v", "i"]);
    k.movi(i, 8);
    let top = k.label_here("loop");
    mtx.lock(&mut k);
    k.movi(p, counter as i32);
    k.lw(v, p, 0);
    k.add(v, v, 1);
    k.sw(v, p, 0);
    mtx.unlock(&mut k);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.stop();
    let program = k.build().unwrap();
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(n));
    dpu.load_program(&program).unwrap();
    let stats = dpu.launch().unwrap();
    let out = dpu.read_wram_symbol("counter");
    assert_eq!(i32::from_le_bytes(out.try_into().unwrap()), (n * 8) as i32);
    let sync = stats.class_fraction(pim_isa::InstrClass::Sync);
    // 2 sync per critical section minimum; retries push it higher.
    assert!(sync > 0.15, "contended locking should inflate sync mix, got {sync}");
}

#[test]
fn simt_runs_lockstep_and_beats_scalar_on_data_parallel_code() {
    // Per-lane independent arithmetic over disjoint WRAM slots.
    let n = 16u32;
    let mut k = KernelBuilder::new();
    let data = k.global_zeroed("data", 4 * n);
    let [t, p, v, i] = k.regs(["t", "p", "v", "i"]);
    k.tid(p);
    k.mul(p, p, 4);
    k.add(p, p, data as i32);
    k.tid(t);
    k.movi(v, 0);
    k.movi(i, 50);
    let top = k.label_here("loop");
    k.add(v, v, t);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.sw(v, p, 0);
    k.stop();
    let program = k.build().unwrap();

    let scalar = run(DpuConfig::paper_baseline(n), &program);
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(n).with_simt(SimtConfig { coalescing: true }));
    dpu.load_program(&program).unwrap();
    let simt = dpu.launch().unwrap();
    // Functional: data[t] = 50 * t.
    let out = dpu.read_wram_symbol("data");
    for t in 0..n as usize {
        let v = i32::from_le_bytes(out[4 * t..4 * t + 4].try_into().unwrap());
        assert_eq!(v, 50 * t as i32, "lane {t}");
    }
    assert!(
        simt.ipc() > scalar.ipc() * 2.0,
        "SIMT IPC {} should beat scalar {}",
        simt.ipc(),
        scalar.ipc()
    );
    assert_eq!(simt.max_ipc, 16);
}

#[test]
fn simt_intra_warp_lock_makes_progress() {
    // All 16 lanes of one warp take the same mutex — a min-PC scheduler
    // would deadlock here; the rotation policy must complete.
    let n = 16u32;
    let mut k = KernelBuilder::new();
    let mtx = Mutex::alloc(&mut k);
    let counter = k.global_zeroed("counter", 4);
    let [p, v] = k.regs(["p", "v"]);
    mtx.lock(&mut k);
    k.movi(p, counter as i32);
    k.lw(v, p, 0);
    k.add(v, v, 1);
    k.sw(v, p, 0);
    mtx.unlock(&mut k);
    k.stop();
    let program = k.build().unwrap();
    let mut dpu =
        Dpu::new(DpuConfig::paper_baseline(n).with_simt(SimtConfig { coalescing: false }));
    dpu.load_program(&program).unwrap();
    dpu.launch().unwrap();
    let out = dpu.read_wram_symbol("counter");
    assert_eq!(i32::from_le_bytes(out.try_into().unwrap()), 16);
}

#[test]
fn simt_coalescing_reduces_memory_requests() {
    // Every lane DMAs an adjacent 64 B block: coalescing fuses the warp's
    // 16 transfers into one engine request.
    let n = 16u32;
    let mut k = KernelBuilder::new();
    let buf = k.global_zeroed("buf", 64 * n);
    let [w, m] = k.regs(["w", "m"]);
    k.tid(w);
    k.mul(w, w, 64);
    k.add(w, w, buf as i32);
    k.tid(m);
    k.mul(m, m, 64);
    k.ldma(w, m, 64);
    k.stop();
    let program = k.build().unwrap();
    let mk = |coalescing| {
        let mut dpu = Dpu::new(DpuConfig::paper_baseline(n).with_simt(SimtConfig { coalescing }));
        dpu.load_program(&program).unwrap();
        dpu.launch().unwrap()
    };
    let no_ac = mk(false);
    let ac = mk(true);
    assert!(ac.dma_requests < no_ac.dma_requests);
    assert_eq!(ac.dram.bytes_read, no_ac.dram.bytes_read, "same bytes either way");
    assert!(ac.cycles <= no_ac.cycles, "coalescing must not slow the warp");
}

#[test]
fn cached_mode_executes_flat_loads_and_counts_cache_traffic() {
    // Walk 32 KB of flat data twice: second pass hits in the 64 KB D-cache.
    let mut k = KernelBuilder::new();
    let data = k.global_zeroed("data", 32 * 1024);
    let sum = k.global_zeroed("sum", 4);
    let [p, v, acc, i] = k.regs(["p", "v", "acc", "i"]);
    k.movi(acc, 0);
    for _pass in 0..2 {
        k.movi(p, data as i32);
        k.movi(i, 32 * 1024 / 4);
        let top = k.label_here("pass");
        k.lw(v, p, 0);
        k.add(acc, acc, v);
        k.add(p, p, 4);
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &top);
    }
    k.movi(p, sum as i32);
    k.sw(acc, p, 0);
    k.stop();
    let program = k.build().unwrap();
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(1).with_paper_caches());
    dpu.load_program(&program).unwrap();
    // Fill the data with ones (flat space writes).
    let ones: Vec<u8> = (0..32 * 1024 / 4).flat_map(|_| 1i32.to_le_bytes()).collect();
    dpu.write_wram_symbol("data", &ones);
    let stats = dpu.launch().unwrap();
    let out = dpu.read_wram_symbol("sum");
    assert_eq!(i32::from_le_bytes(out.try_into().unwrap()), 2 * 32 * 1024 / 4);
    let dc = stats.dcache.expect("cache mode collects D-cache stats");
    // First pass misses every 64 B line (512 misses); second pass hits.
    assert!(dc.misses >= 512, "expected cold misses, got {}", dc.misses);
    assert!(dc.hit_rate() > 0.9, "hit rate {} too low", dc.hit_rate());
    assert!(stats.dram.bytes_read >= 32 * 1024);
    assert!(stats.icache.is_some());
}

#[test]
fn dma_rejected_in_cached_mode() {
    let program = assemble(".text\n movi r0, 0\n movi r1, 0\n ldma r0, r1, 64\n stop\n").unwrap();
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(1).with_paper_caches());
    dpu.load_program(&program).unwrap();
    let err = dpu.launch().unwrap_err();
    assert!(matches!(err, pim_dpu::SimError::DmaInCachedMode { .. }));
}

#[test]
fn mmu_preserves_function_and_costs_little_on_streaming_dma() {
    // Stream 64 KB through WRAM in 2 KB chunks (high page locality).
    let mut k = KernelBuilder::new();
    let buf = k.global_zeroed("buf", 2048);
    let [w, m, i] = k.regs(["w", "m", "i"]);
    k.movi(w, buf as i32);
    k.movi(m, 0);
    k.movi(i, 32);
    let top = k.label_here("loop");
    k.ldma(w, m, 2048);
    k.add(m, m, 2048);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.stop();
    let program = k.build().unwrap();
    let base = run(DpuConfig::paper_baseline(1), &program);
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(1).with_paper_mmu());
    dpu.load_program(&program).unwrap();
    let with_mmu = dpu.launch().unwrap();
    let mmu = with_mmu.mmu.expect("MMU stats collected");
    assert_eq!(mmu.tlb_misses, 16, "64 KB touches 16 pages");
    assert!(mmu.hit_rate() > 0.3);
    let slowdown = with_mmu.cycles as f64 / base.cycles as f64;
    assert!(
        slowdown < 1.15,
        "paper reports small MMU overheads for streaming DMA; got {slowdown:.3}"
    );
    assert!(with_mmu.cycles >= base.cycles);
}

#[test]
fn double_frequency_helps_compute_bound_only_modestly_on_memory_bound() {
    let compute = independent_alu_kernel(300);
    let f = IlpFeatures { double_frequency: true, ..IlpFeatures::default() };
    let base = run(DpuConfig::paper_baseline(16), &compute);
    let fast = run(DpuConfig::paper_baseline(16).with_ilp(f), &compute);
    // Compute-bound: same cycle count, half the time.
    assert!(fast.time_ns() < base.time_ns() * 0.6);
    assert_eq!(fast.freq_mhz, 700);
}

#[test]
fn cycle_limit_catches_runaway_kernels() {
    let program = assemble(".text\nspin:\n jump spin\n").unwrap();
    let mut cfg = DpuConfig::paper_baseline(1);
    cfg.max_cycles = 10_000;
    let mut dpu = Dpu::new(cfg);
    dpu.load_program(&program).unwrap();
    assert!(matches!(dpu.launch(), Err(pim_dpu::SimError::CycleLimit { limit: 10_000 })));
}

#[test]
fn tlp_statistics_are_recorded() {
    let program = independent_alu_kernel(100);
    let stats = run(DpuConfig::paper_baseline(4), &program);
    let hist_cycles: u64 = stats.tlp_histogram.iter().sum();
    assert_eq!(hist_cycles, stats.cycles, "histogram covers every cycle");
    assert!(stats.mean_issuable() > 0.0);
    assert_eq!(stats.tlp_histogram.len(), 5, "bins 0..=4 tasklets");
}

#[test]
fn breakdown_is_conserved() {
    let program = independent_alu_kernel(64);
    for n in [1, 4, 16] {
        let stats = run(DpuConfig::paper_baseline(n), &program);
        // An ALU kernel never waits on memory, and every waiter waits on
        // the revolver: bucket `tot` holds `tot` per idle cycle.
        assert_eq!(stats.idle.memory, [0; 25], "n={n}");
        let idle: u64 = (1..=24).map(|tot| stats.idle.revolver[tot] / tot as u64).sum();
        assert_eq!(
            stats.active_cycles + stats.idle_rf + idle,
            stats.cycles,
            "attribution must cover all cycles at n={n}: {stats:?}"
        );
    }
}

#[test]
fn mram_bandwidth_scaling_speeds_memory_bound_kernels() {
    let mut k = KernelBuilder::new();
    let buf = k.global_zeroed("buf", 2048);
    let [w, m, i] = k.regs(["w", "m", "i"]);
    k.movi(w, buf as i32);
    k.movi(m, 0);
    k.movi(i, 256);
    let top = k.label_here("loop");
    k.ldma(w, m, 2048);
    k.add(m, m, 2048);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.stop();
    let program = k.build().unwrap();
    let x1 = run(DpuConfig::paper_baseline(1), &program);
    let x4 = run(DpuConfig::paper_baseline(1).with_mram_bw_scale(4.0), &program);
    let speedup = x1.cycles as f64 / x4.cycles as f64;
    assert!(
        speedup > 2.0,
        "4x MRAM bandwidth should speed a streaming kernel >2x, got {speedup:.2}"
    );
}

#[test]
fn launch_with_hands_retired_instructions_to_the_callers_sink() {
    let program = assemble(".text\n movi r0, 1\n add r1, r0, 2\n stop\n").unwrap();
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(2));
    dpu.load_program(&program).unwrap();
    let mut ring = RingSink::new(64);
    let stats = dpu.launch_with(&mut ring).unwrap();
    let retired: Vec<(u64, u32)> = ring
        .take()
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::InstrRetire { cycle, pc, .. } => Some((cycle, pc)),
            _ => None,
        })
        .collect();
    assert_eq!(retired.len() as u64, stats.instructions, "one event per instruction");
    assert_eq!(retired[0].1, 0);
    assert_eq!(program.instrs[0].to_string(), "movi r0, 1");
    // Events arrive in issue order.
    for w in retired.windows(2) {
        assert!(w[0].0 <= w[1].0);
    }
    // Tracing is off by default: `launch` keeps no events, and the sink
    // made no difference to the run.
    let plain = dpu.launch().unwrap();
    assert!(dpu.take_trace().is_none());
    assert_eq!(format!("{plain:?}"), format!("{stats:?}"));
}

#[test]
fn runtime_mem_alloc_returns_disjoint_aligned_blocks() {
    use pim_asm::{Barrier, HeapAllocator};
    let n = 8u32;
    let mut k = KernelBuilder::new();
    let heap = HeapAllocator::alloc(&mut k);
    let bar = Barrier::alloc(&mut k, n);
    let ptrs = k.global_zeroed("ptrs", 4 * n);
    let [t, a, sz, s0, s1, p] = k.regs(["t", "a", "sz", "s0", "s1", "p"]);
    k.tid(t);
    let go = k.fresh_label("go");
    k.branch(Cond::Ne, t, 0, &go);
    heap.init(&mut k, 8192, [s0, s1]);
    k.place(&go);
    bar.wait(&mut k, [s0, s1, p]);
    // Every tasklet allocates 20 bytes (rounds to 24).
    k.movi(sz, 20);
    heap.mem_alloc(&mut k, a, sz, s0);
    k.sll(p, t, 2);
    k.add(p, p, ptrs as i32);
    k.sw(a, p, 0);
    k.stop();
    let program = k.build().unwrap();
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(n));
    dpu.load_program(&program).unwrap();
    dpu.launch().unwrap();
    let out = dpu.read_wram_symbol("ptrs");
    let mut ptrs: Vec<u32> =
        out.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
    ptrs.sort_unstable();
    for (i, p) in ptrs.iter().enumerate() {
        assert_eq!(p % 8, 0, "mem_alloc results must be 8-byte aligned");
        assert_eq!(*p, 8192 + i as u32 * 24, "bump allocation must be dense");
    }
}

#[test]
fn oversized_text_rejected_on_load_but_allowed_under_icache() {
    // 5000 instructions exceed the 4096-instruction IRAM.
    let program = pim_asm::DpuProgram {
        instrs: {
            let mut v = vec![pim_isa::Instruction::Nop; 5000];
            v.push(pim_isa::Instruction::Stop);
            v
        },
        ..pim_asm::DpuProgram::default()
    };
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(1));
    assert!(matches!(
        dpu.load_program(&program),
        Err(pim_dpu::SimError::OutOfBounds { space: pim_isa::AddressSpace::Iram, .. })
    ));
    // The cache-centric model runs text from MRAM through the I-cache.
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(1).with_paper_caches());
    dpu.load_program(&program).unwrap();
    let stats = dpu.launch().unwrap();
    assert_eq!(stats.instructions, 5001);
    assert!(stats.icache.unwrap().misses > 0);
}
