//! End-to-end multi-tenant execution (paper §V-C): two partition-built
//! kernels share one DPU, each computing into its own WRAM partition with
//! tenant-local tasklet ids, without interfering.

use pim_asm::{Barrier, KernelBuilder, Mutex};
use pim_dpu::{colocate, Dpu, DpuConfig, MemoryMode, Tenant};
use pim_isa::Cond;

/// A tenant whose tasklets sum their (tenant-local) ids into a shared
/// counter, protected by the tenant's own mutex and barrier.
fn counting_tenant(wram_base: u32, atomic_base: u32, n_tasklets: u32) -> pim_asm::DpuProgram {
    counting_tenant_with(wram_base, atomic_base, n_tasklets, false)
}

fn counting_tenant_with(
    wram_base: u32,
    atomic_base: u32,
    n_tasklets: u32,
    relaxed: bool,
) -> pim_asm::DpuProgram {
    let mut k = KernelBuilder::with_partition(wram_base, atomic_base);
    let mtx = Mutex::alloc(&mut k);
    let bar = Barrier::alloc(&mut k, n_tasklets);
    let sum = k.global_zeroed("sum", 4);
    let ntid = k.global_zeroed("ntid", 4);
    let [t, p, v, s0, s1, s2] = k.regs(["t", "p", "v", "s0", "s1", "s2"]);
    k.tid(t);
    mtx.lock(&mut k);
    k.movi(p, sum as i32);
    k.lw(v, p, 0);
    k.add(v, v, t);
    k.sw(v, p, 0);
    mtx.unlock(&mut k);
    bar.wait(&mut k, [s0, s1, s2]);
    // Tasklet 0 also records how many tenant-local ids it saw (n).
    let done = k.fresh_label("done");
    k.branch(Cond::Ne, t, 0, &done);
    k.movi(p, ntid as i32);
    k.movi(v, n_tasklets as i32);
    k.sw(v, p, 0);
    k.place(&done);
    k.stop();
    k.build_with(&pim_asm::LinkOptions { allow_wram_overflow: relaxed }).unwrap()
}

#[test]
fn colocated_tenants_compute_independently() {
    let a = counting_tenant(0, 0, 6);
    let b = counting_tenant(4096, 8, 10);
    let merged = colocate(
        &[Tenant { program: &a, n_tasklets: 6 }, Tenant { program: &b, n_tasklets: 10 }],
        false,
    )
    .unwrap();
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(16));
    dpu.load_colocated(&merged).unwrap();
    let stats = dpu.launch().unwrap();
    // Tenant A's tasklets saw local ids 0..6, B's saw 0..10.
    let sum_a = i32::from_le_bytes(dpu.read_wram_symbol("t0.sum").try_into().unwrap());
    let sum_b = i32::from_le_bytes(dpu.read_wram_symbol("t1.sum").try_into().unwrap());
    assert_eq!(sum_a, (0..6).sum::<i32>(), "tenant A must see local ids 0..6");
    assert_eq!(sum_b, (0..10).sum::<i32>(), "tenant B must see local ids 0..10");
    // Per-tenant completion times are recorded.
    let finish_a =
        merged.tasklets_of[0].clone().map(|t| stats.tasklet_stop_cycle[t]).max().unwrap();
    let finish_b =
        merged.tasklets_of[1].clone().map(|t| stats.tasklet_stop_cycle[t]).max().unwrap();
    assert!(finish_a > 0 && finish_b > 0);
    assert!(finish_a.max(finish_b) <= stats.cycles);
}

#[test]
fn colocation_beats_time_slicing_for_complementary_tenants() {
    // A memory-bound streamer and a compute-bound spinner — the paper's
    // BS+TS intuition: complementary resources co-locate well.
    let mem_tenant = |base: u32, bit: u32| {
        let mut k = KernelBuilder::with_partition(base, bit);
        let buf = k.alloc_wram(512, 8);
        let [w, m, i] = k.regs(["w", "m", "i"]);
        k.movi(w, buf as i32);
        k.movi(m, 0);
        k.movi(i, 64);
        let top = k.label_here("loop");
        k.ldma(w, m, 512);
        k.add(m, m, 512);
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &top);
        k.stop();
        k.build().unwrap()
    };
    let compute_tenant = |base: u32, bit: u32| {
        let mut k = KernelBuilder::with_partition(base, bit);
        let [a, i] = k.regs(["a", "i"]);
        k.movi(a, 1);
        k.movi(i, 4000);
        let top = k.label_here("loop");
        k.mul(a, a, 3);
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &top);
        k.stop();
        k.build().unwrap()
    };
    let run_alone = |p: &pim_asm::DpuProgram, n: u32| {
        let mut dpu = Dpu::new(DpuConfig::paper_baseline(n));
        dpu.load_program(p).unwrap();
        dpu.launch().unwrap().cycles
    };
    let mem = mem_tenant(0, 0);
    let comp = compute_tenant(2048, 8);
    let alone_mem = run_alone(&mem, 8);
    let alone_comp = run_alone(&comp, 8);
    // Co-locate 8+8 tasklets.
    let merged = colocate(
        &[Tenant { program: &mem, n_tasklets: 8 }, Tenant { program: &comp, n_tasklets: 8 }],
        false,
    )
    .unwrap();
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(16));
    dpu.load_colocated(&merged).unwrap();
    let coloc = dpu.launch().unwrap().cycles;
    // Consolidation: one DPU finishing both beats running them back to back.
    assert!(
        coloc < alone_mem + alone_comp,
        "co-location ({coloc}) should beat time-slicing ({} + {})",
        alone_mem,
        alone_comp
    );
}

#[test]
fn colocation_works_under_the_cache_centric_model() {
    // The §V-C escape hatch: oversized combined footprints are fine when
    // loads/stores are cache-backed.
    let a = counting_tenant(0, 0, 4);
    let b = counting_tenant_with(80 * 1024, 8, 4, true); // beyond 64 KB WRAM
    let merged = colocate(
        &[Tenant { program: &a, n_tasklets: 4 }, Tenant { program: &b, n_tasklets: 4 }],
        true,
    )
    .unwrap();
    let cfg = DpuConfig::paper_baseline(8).with_paper_caches();
    assert_eq!(cfg.memory_mode, MemoryMode::Cached);
    let mut dpu = Dpu::new(cfg);
    dpu.load_colocated(&merged).unwrap();
    dpu.launch().unwrap();
    let sum_b = i32::from_le_bytes(dpu.read_wram_symbol("t1.sum").try_into().unwrap());
    assert_eq!(sum_b, (0..4).sum::<i32>());
}
