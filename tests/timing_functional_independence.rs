//! Metamorphic property: **timing configuration must never change
//! architectural results**. The same kernel and inputs must produce
//! identical memory contents under the baseline, every ILP feature set,
//! the SIMT front-end, the MMU, and the cache-centric memory model — the
//! invariant that makes the case-study comparisons (§V) meaningful at all.

use pim_asm::KernelBuilder;
use pim_dpu::{Dpu, DpuConfig, IlpFeatures, SimtConfig};
use pim_isa::{AluOp, Cond};
use pim_rng::StdRng;

/// Builds a little data-parallel kernel from a random recipe: each tasklet
/// walks a disjoint WRAM slice applying a random ALU pipeline, with an
/// optional shared-accumulator critical section.
fn build_kernel(ops: &[(AluOp, i32)], with_lock: bool, n_tasklets: u32) -> pim_asm::DpuProgram {
    const SLOT: u32 = 64; // words per tasklet
    let mut k = KernelBuilder::new();
    let data = k.global_zeroed("data", 4 * SLOT * n_tasklets);
    let shared = k.global_zeroed("shared", 4);
    let [t, p, end, v, s] = k.regs(["t", "p", "end", "v", "s"]);
    k.tid(t);
    k.mul(p, t, (SLOT * 4) as i32);
    k.add(p, p, data as i32);
    k.add(end, p, (SLOT * 4) as i32);
    let top = k.label_here("loop");
    k.lw(v, p, 0);
    for (op, imm) in ops {
        k.alu(*op, v, v, *imm);
    }
    k.sw(v, p, 0);
    if with_lock {
        k.acquire(0);
        k.movi(s, shared as i32);
        k.lw(v, s, 0);
        k.add(v, v, 1);
        k.sw(v, s, 0);
        k.release(0);
    }
    k.add(p, p, 4);
    k.branch(Cond::Ltu, p, end, &top);
    k.stop();
    k.build().expect("kernel builds")
}

fn run_with(cfg: DpuConfig, program: &pim_asm::DpuProgram, input: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut dpu = Dpu::new(cfg);
    dpu.load_program(program).unwrap();
    dpu.write_wram_symbol("data", input);
    dpu.launch().unwrap();
    (dpu.read_wram_symbol("data"), dpu.read_wram_symbol("shared"))
}

fn arb_ops(rng: &mut StdRng) -> Vec<(AluOp, i32)> {
    const SAFE_OPS: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::And,
        AluOp::Or,
        AluOp::Mul,
        AluOp::Min,
        AluOp::Max,
    ];
    let len = rng.gen_range(1usize..6);
    (0..len).map(|_| (*rng.choose(&SAFE_OPS), rng.gen_range(-1000i32..1000))).collect()
}

#[test]
fn every_timing_configuration_computes_the_same_result() {
    let mut rng = StdRng::seed_from_u64(0x7131_46FD);
    for _case in 0..24 {
        let ops = arb_ops(&mut rng);
        let with_lock = rng.gen_bool();
        let input_words: Vec<i32> = (0..64 * 16).map(|_| rng.next_u32() as i32).collect();
        let n_tasklets = 16;
        let program = build_kernel(&ops, with_lock, n_tasklets);
        let input: Vec<u8> = input_words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let configs: Vec<(&str, DpuConfig)> = vec![
            ("base", DpuConfig::paper_baseline(n_tasklets)),
            ("one-thread", DpuConfig::paper_baseline(n_tasklets)),
            ("ilp-all", DpuConfig::paper_baseline(n_tasklets).with_ilp(IlpFeatures::all())),
            (
                "simt",
                DpuConfig::paper_baseline(n_tasklets).with_simt(SimtConfig { coalescing: true }),
            ),
            ("mmu", DpuConfig::paper_baseline(n_tasklets).with_paper_mmu()),
            ("cached", DpuConfig::paper_baseline(n_tasklets).with_paper_caches()),
        ];
        let (golden_data, golden_shared) = run_with(configs[0].1.clone(), &program, &input);
        for (name, cfg) in &configs[1..] {
            let (data, shared) = run_with(cfg.clone(), &program, &input);
            assert_eq!(&data, &golden_data, "config `{name}` changed the data output");
            assert_eq!(&shared, &golden_shared, "config `{name}` changed the shared counter");
        }
    }
}
