//! Direct probes: short, seeded micro-measurements straight into one
//! crate's public functions, run once at the end of a traced run. They
//! give the per-unit costs (`ns` per instruction, DMA, DRAM access, …)
//! that the spans of a pass cannot isolate from outside.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use pim_cache::{Cache, CacheConfig};
use pim_dpu::{DpuConfig, ExecTier, IlpFeatures, SimtConfig};
use pim_dram::{Access, DramBank, DramConfig};
use pim_host::{Channel, ChannelConfig};
use pim_isa::{BlockMap, DecodedProgram, InstrClass};
use pim_mmu::{Mmu, MmuConfig, PageTable};
use pim_rng::StdRng;
use pim_serve::kernels::{
    colocate_composition, profile_composition, request_classes, EMPTY_SLOT, SLOTS_PER_DPU,
    TASKLETS_PER_SLOT,
};
use pimulator::jobs::{JobRunner, SimJob};
use pimulator::report::Json;
use prim_suite::DatasetSize;

use crate::cx::Cx;
use crate::staged::{Drive, Kernel, StagedCase};
use crate::stats::{median, ratio};
use crate::workloads::{pool_workers, Scale};

pub type Values = BTreeMap<&'static str, f64>;

fn secs<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Duration of the most recent span called `name`, seconds.
fn last_span_s(cx: &Cx, name: &str) -> f64 {
    cx.tr.spans.iter().rev().find(|s| s.name == name).map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
}

/// Launches a bare-DPU staged case `reps` times; returns the median
/// `dpu.launch` seconds and the launch statistics.
fn launch_s(case: &StagedCase, cx: &mut Cx, reps: usize) -> (f64, pim_dpu::DpuRunStats) {
    let mut times = Vec::with_capacity(reps);
    let mut stats = None;
    for _ in 0..reps {
        if let Some(s) = case.run(cx) {
            times.push(last_span_s(cx, "dpu.launch"));
            stats = s.into_iter().next();
        }
    }
    (median(&times), stats.unwrap_or_default())
}

fn dpu_probes(cx: &mut Cx, seed: u64, scale: Scale, out: &mut Values) {
    let (alu, stream, dma, barrier, reps) = match scale {
        Scale::Full => (2000, 256 * 16 * 4, 16, 100, 3),
        Scale::Smoke => (100, 256 * 16, 2, 5, 1),
    };
    let base = || DpuConfig::paper_baseline(16);
    let alu_case = |label: &str, cfg: DpuConfig| {
        StagedCase::new(Kernel::AluLoop, 16, alu, 1, Drive::Dpu, seed).with_cfg(label, cfg)
    };
    let (compiled_s, stats) = launch_s(&alu_case("compiled", base()), cx, reps);
    out.insert("dpu.host_ns_per_instr", ratio(compiled_s * 1e9, stats.instructions as f64));
    let (naive_s, _) =
        launch_s(&alu_case("naive", base().with_exec_tier(ExecTier::Naive)), cx, reps);
    let (fast_s, _) = launch_s(&alu_case("fast", base().with_exec_tier(ExecTier::Fast)), cx, reps);
    let (traced_s, _) = launch_s(&alu_case("traced", base().with_event_trace(4096)), cx, reps);
    out.insert("dpu.naive_over_compiled", ratio(naive_s, compiled_s));
    out.insert("dpu.fast_over_compiled", ratio(fast_s, compiled_s));
    out.insert("trace.event_overhead_frac", ratio(traced_s, compiled_s) - 1.0);

    let dma_case = StagedCase::new(Kernel::DmaHeavy, 16, dma, 1, Drive::Dpu, seed);
    let (dma_s, stats) = launch_s(&dma_case, cx, reps);
    out.insert("dpu.host_ns_per_dma", ratio(dma_s * 1e9, stats.dma_requests as f64));
    out.insert("dpu.host_ns_per_cycle", ratio(dma_s * 1e9, stats.cycles as f64));

    let barrier_case = StagedCase::new(Kernel::BarrierHeavy, 16, barrier, 1, Drive::Dpu, seed);
    let (barrier_s, stats) = launch_s(&barrier_case, cx, reps);
    let sync = InstrClass::ALL.iter().position(|c| *c == InstrClass::Sync).expect("Sync in ALL");
    out.insert("dpu.host_ns_per_sync", ratio(barrier_s * 1e9, stats.class_counts[sync] as f64));

    let stream_case = |label: &str, cfg: DpuConfig| {
        StagedCase::new(Kernel::Stream, 16, stream, 1, Drive::Dpu, seed).with_cfg(label, cfg)
    };
    let simt = SimtConfig { coalescing: true, ..SimtConfig::default() };
    let (simt_s, stats) = launch_s(&stream_case("simt+ac", base().with_simt(simt)), cx, reps);
    out.insert("dpu.simt_ns_per_instr", ratio(simt_s * 1e9, stats.instructions as f64));
    let (ilp_s, stats) =
        launch_s(&stream_case("ilp-all", base().with_ilp(IlpFeatures::all())), cx, reps);
    out.insert("dpu.ilp_ns_per_instr", ratio(ilp_s * 1e9, stats.instructions as f64));

    // The share of a whole staged STREAM job spent outside the launch —
    // input generation, the host reference, build, allocation, copies and
    // validation: the dilution a single `Instant` around a job folds into
    // "simulation speed".
    let mut fracs = Vec::new();
    for _ in 0..reps {
        let (total, _) =
            secs(|| StagedCase::new(Kernel::Stream, 16, stream, 1, Drive::Host, seed).run(cx));
        fracs.push(1.0 - ratio(last_span_s(cx, "host.launch_all"), total));
    }
    out.insert("prim.stream_non_launch_frac", median(&fracs));
}

fn rank_probe(cx: &mut Cx, seed: u64, scale: Scale, out: &mut Values) {
    let dpus = match scale {
        Scale::Full => 128,
        Scale::Smoke => 32,
    };
    let base = (seed % 1_000_000) as u32 * 1024;
    let mut rate = |batch: u32| {
        let mut sys = pimulator::experiments::rank_population(base, dpus, batch)
            .expect("the rank kernel loads");
        // First launch warms the allocator; the second is timed.
        let _ = sys.launch_all();
        let (s, report) = secs(|| cx.tr.time("host.launch_all", || sys.launch_all()));
        let cycles: u64 = report.map_or(0, |r| r.per_dpu.iter().map(|s| s.cycles).sum());
        ratio(cycles as f64 / 1e6, s)
    };
    let batched = rate(64);
    let per_dpu = rate(0);
    out.insert("dpu.batch_mcycles_per_s", batched);
    out.insert("dpu.per_dpu_mcycles_per_s", per_dpu);
    out.insert("dpu.batch_speedup", ratio(batched, per_dpu));
}

fn component_probes(seed: u64, scale: Scale, out: &mut Values) {
    let n: u32 = match scale {
        Scale::Full => 200_000,
        Scale::Smoke => 5_000,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_0b_e5);

    // DRAM bank: one 64-byte burst every 64 DRAM cycles — slower than a
    // row miss takes to serve, so the queue stays short and the figure is
    // the cost of one enqueue + advance, not of scanning a backlog —
    // sequential rows against uniformly random rows of the 64 MB bank.
    let lines = (64u32 << 20) / 64;
    let seq: Vec<u32> = (0..n).map(|i| (i % lines) * 64).collect();
    let rand: Vec<u32> = (0..n).map(|_| rng.gen_range(0..lines) * 64).collect();
    for (name, addrs) in
        [("dram.probe_seq_ns_per_access", &seq), ("dram.probe_rand_ns_per_access", &rand)]
    {
        let mut bank = DramBank::new(DramConfig::ddr4_2400());
        let mut done = Vec::new();
        let (s, ()) = secs(|| {
            let mut now = 0u64;
            for &addr in addrs {
                bank.enqueue(Access::read(addr, 64), now);
                now += 64;
                bank.advance_to(now, &mut done);
                done.clear();
            }
        });
        black_box(bank.stats().reads);
        out.insert(name, s * 1e9 / f64::from(n));
    }

    // Data cache: a working set four times its capacity, one write in four.
    let mut cache = Cache::new(CacheConfig::paper_dcache());
    let addrs: Vec<u32> = (0..n).map(|_| rng.gen_range(0..(256u32 << 10)) & !3).collect();
    let (s, ()) = secs(|| {
        for (i, &a) in addrs.iter().enumerate() {
            black_box(cache.access(a, i % 4 == 0));
        }
    });
    out.insert("cache.probe_ns_per_access", s * 1e9 / f64::from(n));

    // MMU: 64 hot pages over a 16-entry TLB.
    let cfg = MmuConfig::paper();
    let mut mmu = Mmu::new(cfg, PageTable::identity((64u32 << 20) / cfg.page_bytes));
    let addrs: Vec<u32> = (0..n).map(|_| rng.gen_range(0..64 * cfg.page_bytes)).collect();
    let (s, ()) = secs(|| {
        for &a in &addrs {
            black_box(mmu.translate(a).paddr);
        }
    });
    out.insert("mmu.probe_ns_per_translate", s * 1e9 / f64::from(n));

    // Channel: push / kernel / pull rounds over one rank, overlapped.
    let mut channel = Channel::new(ChannelConfig::overlapped(), 64);
    let lens: Vec<u64> = (0..64).map(|_| rng.gen_range(64u64..8192)).collect();
    let rounds = n / 10;
    let (s, ()) = secs(|| {
        for _ in 0..rounds {
            black_box(channel.push(&lens));
            channel.kernel(1000.0);
            black_box(channel.pull(4096));
        }
    });
    out.insert("host.channel_ns_per_op", s * 1e9 / f64::from(rounds * 3));

    // Timer: the cost of one span boundary.
    let (s, ()) = secs(|| {
        for _ in 0..n {
            black_box(Instant::now());
        }
    });
    out.insert("bench.timer_ns", s * 1e9 / f64::from(n));
}

fn toolchain_probes(scale: Scale, out: &mut Values) {
    let reps = match scale {
        Scale::Full => 200,
        Scale::Smoke => 5,
    };
    let programs: Vec<_> = Kernel::ALL.iter().map(|k| k.build(16, 100)).collect();
    let instrs: usize = programs.iter().map(|p| p.instrs.len()).sum();
    let texts: Vec<String> = programs.iter().map(pim_asm::disassemble).collect();
    let (s, ()) = secs(|| {
        for _ in 0..reps {
            for t in &texts {
                black_box(pim_asm::assemble(t).expect("disassembly re-assembles").instrs.len());
            }
        }
    });
    out.insert("asm.assemble_ns_per_instr", s * 1e9 / (reps * instrs) as f64);
    let (s, ()) = secs(|| {
        for _ in 0..reps * 10 {
            for p in &programs {
                black_box(DecodedProgram::decode(&p.instrs).len());
                black_box(BlockMap::build(&p.instrs).len());
            }
        }
    });
    out.insert("isa.decode_ns_per_instr", s * 1e9 / (reps * 10 * instrs) as f64);
}

fn core_probes(scale: Scale, out: &mut Values) {
    // Pool efficiency over tiny jobs: 1.0 means the pool's workers were
    // all busy for the whole batch.
    let n_jobs = match scale {
        Scale::Full => 64,
        Scale::Smoke => 8,
    };
    let jobs: Vec<SimJob> = (0..n_jobs)
        .map(|_| SimJob::single("VA", DatasetSize::Tiny, DpuConfig::paper_baseline(8)))
        .collect();
    let workers = pool_workers();
    // Best of three: a neighbour on the box can only lower the figure.
    let efficiency = (0..3)
        .map(|_| {
            let (serial_s, serial) = secs(|| JobRunner::serial().run_sims(&jobs));
            let (pooled_s, pooled) = secs(|| JobRunner::new(Some(workers)).run_sims(&jobs));
            let ok = serial.is_ok() && pooled.is_ok();
            if ok {
                ratio(serial_s, workers as f64 * pooled_s)
            } else {
                0.0
            }
        })
        .fold(0.0, f64::max);
    out.insert("core.jobs_efficiency", efficiency);

    // Report rendering and parsing over the largest committed golden.
    let path = crate::repo_root().join("results/golden/fig12_ilp_ablation.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        out.insert("core.report_parse_ns_per_byte", 0.0);
        out.insert("core.report_render_ns_per_byte", 0.0);
        return;
    };
    let reps = match scale {
        Scale::Full => 50,
        Scale::Smoke => 2,
    };
    let bytes = (reps * text.len()) as f64;
    let (s, doc) = secs(|| {
        let mut doc = Json::Null;
        for _ in 0..reps {
            doc = Json::parse(&text).expect("a committed golden parses");
        }
        doc
    });
    out.insert("core.report_parse_ns_per_byte", s * 1e9 / bytes);
    let (s, ()) = secs(|| {
        for _ in 0..reps {
            black_box(doc.render_pretty().len());
        }
    });
    out.insert("core.report_render_ns_per_byte", s * 1e9 / bytes);
}

/// Draws `n` serving compositions: each slot holds a request class or is
/// empty (one in five), never all empty.
fn seeded_compositions(seed: u64, n: usize) -> Vec<Vec<u16>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc01d_c0de);
    let classes = request_classes().len() as u16;
    (0..n)
        .map(|_| {
            let mut comp: Vec<u16> = (0..SLOTS_PER_DPU)
                .map(|_| if rng.gen_ratio(1, 5) { EMPTY_SLOT } else { rng.gen_range(0..classes) })
                .collect();
            if comp.iter().all(|&c| c == EMPTY_SLOT) {
                comp[0] = rng.gen_range(0..classes);
            }
            comp
        })
        .collect()
}

/// The DPU configuration the serving runtime profiles compositions on.
fn serve_dpu_config() -> DpuConfig {
    DpuConfig::paper_baseline(SLOTS_PER_DPU as u32 * TASKLETS_PER_SLOT)
}

fn serve_probes(seed: u64, scale: Scale, out: &mut Values) {
    let (window_ms, comps) = match scale {
        Scale::Full => (500u64, 64),
        Scale::Smoke => (20, 4),
    };
    let scenario = pim_serve::scenario_by_name("saturate").expect("saturate is registered");
    let (s, arrivals) =
        secs(|| pim_serve::traffic::generate(scenario, seed, 1.0, window_ms * 1_000_000));
    out.insert("serve.traffic_ns_per_arrival", ratio(s * 1e9, arrivals.len() as f64));

    let comps = seeded_compositions(seed, comps);
    let cfg = serve_dpu_config();
    let (s, ()) = secs(|| {
        for c in &comps {
            black_box(colocate_composition(c).program.instrs.len());
        }
    });
    out.insert("serve.colocate_us_per_comp", s * 1e6 / comps.len() as f64);
    let (s, ok) = secs(|| comps.iter().all(|c| profile_composition(c, &cfg, 0).is_ok()));
    out.insert("serve.profile_ms_per_comp", if ok { s * 1e3 / comps.len() as f64 } else { 0.0 });
}

/// Runs every probe once. Spans opened on the way land in the span file
/// under `probe:` cases.
pub fn run(cx: &mut Cx, seed: u64, scale: Scale) -> Values {
    let mut out = Values::new();
    cx.begin_pass();
    cx.tr.on = true;
    cx.tr.set_case("probe:dpu");
    let open = cx.tr.enter("bench.probe");
    dpu_probes(cx, seed, scale, &mut out);
    cx.tr.exit(open);
    cx.tr.set_case("probe:rank");
    let open = cx.tr.enter("bench.probe");
    rank_probe(cx, seed, scale, &mut out);
    cx.tr.exit(open);
    cx.tr.set_case("probe:components");
    let open = cx.tr.enter("bench.probe");
    component_probes(seed, scale, &mut out);
    toolchain_probes(scale, &mut out);
    core_probes(scale, &mut out);
    serve_probes(seed, scale, &mut out);
    cx.tr.exit(open);
    cx.tr.on = false;
    out
}
