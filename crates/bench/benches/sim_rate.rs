//! Micro-benchmarks (plain `harness = false` timing, no external harness):
//! end-to-end simulator throughput (the §III-D "simulation rate") and the
//! hot component models. Run with `cargo bench -p pim-bench`.

use std::time::Instant;

use pim_asm::KernelBuilder;
use pim_cache::{Cache, CacheConfig};
use pim_dpu::{Dpu, DpuConfig};
use pim_dram::{Access, DramBank, DramConfig};
use pim_isa::{AluOp, Cond};
use pim_serve::traffic::TrafficGen;
use pim_serve::{run_scenario, scenario_by_name, ServeOptions};
use prim_suite::{workload_by_name, DatasetSize, RunConfig};

/// Times `iters` repetitions of `f`, reporting time/iter and, when
/// `elements` is non-zero, the derived elements/second rate and its
/// inverse, ns/element.
fn bench<R>(name: &str, iters: u32, elements: u64, mut f: impl FnMut() -> R) {
    // One warm-up iteration keeps lazy init out of the measurement.
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let total = start.elapsed();
    let per_iter = total / iters;
    if elements > 0 {
        let rate = elements as f64 / per_iter.as_secs_f64();
        println!(
            "{name:32} {per_iter:>12.2?}/iter  {:>10.2} Melem/s  {:>10.2} ns/elem",
            rate / 1e6,
            1e9 / rate
        );
    } else {
        println!("{name:32} {per_iter:>12.2?}/iter");
    }
}

/// A compute-heavy kernel of a known instruction count, for a clean
/// instructions-per-second measurement.
fn alu_kernel(iters: i32) -> pim_asm::DpuProgram {
    let mut k = KernelBuilder::new();
    let [a, b, i] = k.regs(["a", "b", "i"]);
    k.movi(a, 1);
    k.movi(i, iters);
    let top = k.label_here("loop");
    k.alu(AluOp::Add, b, a, 7);
    k.alu(AluOp::Xor, b, a, 3);
    k.alu(AluOp::Mul, b, a, 5);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.stop();
    k.build().expect("bench kernel builds")
}

/// A gather with BS's access pattern: every tasklet draws a pseudo-random
/// 8-byte-aligned MRAM offset (an LCG on its own state), fetches 8 bytes
/// from it, consumes the word, and does ALU work in between — one `ldma`
/// per 18 other instructions. The DMA interface is the bottleneck (one
/// burst slot per request), so per request the engine makes 18 issue
/// visits, a few idle hops and one `MemEngine::advance` call (3 while the
/// engine woke per bank event), with up to sixteen requests live.
fn gather_kernel(iters: i32) -> pim_asm::DpuProgram {
    let mut k = KernelBuilder::new();
    let slots = k.global_zeroed("slots", 8 * 16);
    let [w, m, x, v, acc, i] = k.regs(["w", "m", "x", "v", "acc", "i"]);
    k.tasklet_slot(w, slots, 8);
    k.tid(x);
    k.add(x, x, 1);
    k.movi(acc, 0);
    k.movi(i, iters);
    let top = k.label_here("loop");
    k.mul(x, x, 1_103_515_245);
    k.add(x, x, 12_345);
    k.srl(m, x, 8);
    // Within the first 4 MB of MRAM, 8-byte aligned.
    k.alu(AluOp::And, m, m, (4 << 20) - 8);
    k.ldma(w, m, 8);
    k.lw(v, w, 0);
    k.add(acc, acc, v);
    for _ in 0..9 {
        k.alu(AluOp::Xor, acc, acc, x);
    }
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.stop();
    k.build().expect("bench kernel builds")
}

/// Back-to-back 256-byte reads (BS's probe size): with two tasklets every
/// issue is followed by an idle hop — per request 4 issue visits and one
/// `MemEngine::advance` call (9 while the engine woke per bank event, most
/// of them finishing nothing).
fn dma_kernel(iters: i32) -> pim_asm::DpuProgram {
    let mut k = KernelBuilder::new();
    let bufs = k.global_zeroed("bufs", 256 * 2);
    let [w, m, i] = k.regs(["w", "m", "i"]);
    k.tasklet_slot(w, bufs, 256);
    k.tid(m);
    k.sll(m, m, 20);
    k.movi(i, iters);
    let top = k.label_here("loop");
    k.ldma(w, m, 256);
    k.add(m, m, 256);
    k.sub(i, i, 1);
    k.branch(Cond::Ne, i, 0, &top);
    k.stop();
    k.build().expect("bench kernel builds")
}

/// One launch of `program` on a fresh paper-baseline DPU.
fn launch(tasklets: u32, program: &pim_asm::DpuProgram) -> pim_dpu::DpuRunStats {
    let mut dpu = Dpu::new(DpuConfig::paper_baseline(tasklets));
    dpu.load_program(program).unwrap();
    dpu.launch().unwrap()
}

fn main() {
    // `cargo bench` passes `--bench`; `cargo test --benches` passes
    // `--test-threads` etc. — in test mode just smoke-run nothing.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    println!("== pim-bench micro-benchmarks ==");

    // ~160 k instructions per launch at every tasklet count. Sixteen
    // tasklets issue on every cycle; at four and at one the idle
    // fast-forward runs between most (at one: all) instructions.
    for (tasklets, iters) in [(16u32, 2000), (4, 8000), (1, 32_000)] {
        let program = alu_kernel(iters);
        let instrs = u64::from(tasklets) * 5 * iters as u64;
        bench(&format!("dpu_{tasklets}t_alu_kernel"), 20, instrs, || launch(tasklets, &program));
    }

    // The DMA-bound side of the issue engine, per DMA request: the low-TLP
    // visits (idle hop, `MemEngine::advance`) that the ALU rows above never
    // make, and how many times a request wakes the memory engine.
    for (name, tasklets, iters, program) in [
        ("dpu_16t_gather_kernel", 16u32, 1000, gather_kernel(1000)),
        ("dpu_2t_dma_kernel", 2, 4000, dma_kernel(4000)),
    ] {
        let requests = u64::from(tasklets) * iters;
        let before = pim_dpu::mem_wake_ups();
        assert_eq!(launch(tasklets, &program).dma_requests, requests);
        let wake_ups = pim_dpu::mem_wake_ups() - before;
        bench(name, 20, requests, || launch(tasklets, &program));
        println!("{name:32} {:>12.2} wake-ups/request", wake_ups as f64 / requests as f64);
    }

    for name in ["VA", "GEMV", "BS"] {
        let w = workload_by_name(name).unwrap();
        bench(&format!("workload_tiny/{name}"), 10, 0, || {
            w.run(DatasetSize::Tiny, &RunConfig::single(DpuConfig::paper_baseline(16))).unwrap()
        });
    }

    // Sixteen DPUs through `launch_all`, per simulated instruction of the
    // whole run (staging included). VA's DPUs follow their group leader's
    // schedule to the end; BS's searches part within a few instructions,
    // so every follower re-derives its own engine and finishes alone.
    for name in ["VA", "BS"] {
        let w = workload_by_name(name).unwrap();
        let rc = RunConfig::multi(16, DpuConfig::paper_baseline(16));
        let run = || w.run(DatasetSize::SingleDpu, &rc).unwrap();
        let instrs = run().per_dpu.iter().map(|s| s.instructions).sum();
        bench(&format!("lockstep_{}_16dpu", name.to_lowercase()), 5, instrs, run);
    }

    bench("dram_streaming_1024_bursts", 50, 1024, || {
        let mut bank = DramBank::new(DramConfig::ddr4_2400());
        let mut done = Vec::new();
        for i in 0..1024u32 {
            bank.enqueue(Access::read((i * 64) % (1 << 20), 64), 0);
        }
        bank.advance_to(u64::MAX / 2, &mut done);
        done
    });

    // The backlog sixteen tasklets leave when each starts a 2 KB DMA in the
    // same cycle: 512 bursts queued as 32 row runs, drained in one call.
    bench("dram_backlog_16x2kb", 200, 512, || {
        let mut bank = DramBank::new(DramConfig::ddr4_2400());
        let mut done = Vec::new();
        for t in 0..16u32 {
            bank.enqueue_run(Access::read(t * (1 << 16), 2048), 0, u64::from(t));
        }
        bank.advance_to_tagged(u64::MAX / 2, &mut done);
        done
    });

    bench("dcache_4096_accesses", 200, 4096, || {
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        for i in 0..4096u32 {
            cache.access((i * 37) % (1 << 18), i % 3 == 0);
        }
        *cache.stats()
    });

    // The serving hot loops on `saturate`, one simulated second each.
    // The generator is drained streaming, as the runtime does — eagerly
    // collecting the schedule into a `Vec` would time the push instead of
    // the draw. Rates: arrivals/s, and dispatch rounds/s of a whole run
    // (arrival draw, admission, policy, dispatch and cold profiling).
    let saturate = scenario_by_name("saturate").unwrap();
    let drain = || {
        let mut gen = TrafficGen::new(saturate, 1, 1.0, 1_000_000_000);
        let mut arrivals = 0u64;
        gen.drain_due(u64::MAX, |a| {
            std::hint::black_box(a);
            arrivals += 1;
        });
        arrivals
    };
    bench("serve_traffic_saturate_1s", 10, drain(), drain);
    let opts = ServeOptions { seed: 1, duration_ms: 1000, threads: Some(1), ..Default::default() };
    let rounds = run_scenario(saturate, &opts).unwrap().rounds;
    bench("serve_saturate_1s", 5, rounds, || run_scenario(saturate, &opts).unwrap().rounds);
}
