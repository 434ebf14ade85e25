//! The four staged kernels the benchmark owns — `ALU-LOOP`, `STREAM`,
//! `DMA-HEAVY`, `BARRIER-HEAVY` — and the step-by-step drive that puts a
//! span around each call into `pim-asm`, `pim-host` and `pim-dpu`:
//!
//! `asm.build → host.new → host.load → host.push → host.launch_all →
//! host.pull → bench.validate`, or, driving one DPU without the host
//! layer, `asm.build → dpu.new → dpu.load → bench.stage → dpu.launch →
//! bench.validate`.
//!
//! A PrIM workload is one opaque `prim.run` span from outside; these
//! kernels are how a run is split. Each has a host reference the pulled
//! output is compared with, and inputs drawn from the benchmark seed.

use pim_asm::{Barrier, DpuProgram, KernelBuilder, Mutex};
use pim_dpu::{Dpu, DpuConfig, DpuRunStats};
use pim_host::{ChannelConfig, PimSystem};
use pim_isa::Cond;
use pim_rng::StdRng;
use prim_suite::common::to_bytes;

use crate::cx::Cx;

/// Per-tasklet DMA block of `STREAM`, bytes.
const STREAM_BLOCK: u32 = 1024;
/// Per-tasklet DMA block of `DMA-HEAVY`, bytes.
const DMA_BLOCK: u32 = 2048;
/// MRAM distance between the regions of one kernel (inputs, outputs).
const REGION: u32 = 4 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Register-only LCG/xorshift chain: all issue, no memory.
    AluLoop,
    /// `c[i] = a[i] + b[i]` staged block-wise through WRAM (VA-shaped).
    Stream,
    /// Back-to-back 2 KB MRAM→WRAM→MRAM copies: all DMA, almost no issue.
    DmaHeavy,
    /// A mutex-guarded counter bump and a barrier per round.
    BarrierHeavy,
}

impl Kernel {
    pub const ALL: [Kernel; 4] =
        [Kernel::AluLoop, Kernel::Stream, Kernel::DmaHeavy, Kernel::BarrierHeavy];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::AluLoop => "ALU-LOOP",
            Kernel::Stream => "STREAM",
            Kernel::DmaHeavy => "DMA-HEAVY",
            Kernel::BarrierHeavy => "BARRIER-HEAVY",
        }
    }

    /// Builds the kernel for `tasklets` tasklets. `work` is the loop trip
    /// count per tasklet for `ALU-LOOP` and `BARRIER-HEAVY`; `STREAM` and
    /// `DMA-HEAVY` take their extent from the `params` word at run time.
    pub fn build(self, tasklets: u32, work: u32) -> DpuProgram {
        let mut k = KernelBuilder::new();
        match self {
            Kernel::AluLoop => {
                let seed = k.global_zeroed("seed", 4);
                let out = k.global_zeroed("out", 4 * tasklets);
                let [t, p, x, y, i] = k.regs(["t", "p", "x", "y", "i"]);
                k.tid(t);
                k.movi(p, seed as i32);
                k.lw(x, p, 0);
                k.add(x, x, t);
                k.movi(i, work as i32);
                let top = k.label_here("chain");
                k.mul(x, x, 1_664_525);
                k.add(x, x, 1_013_904_223);
                k.srl(y, x, 13);
                k.alu(pim_isa::AluOp::Xor, x, x, y);
                k.sub(i, i, 1);
                k.branch(Cond::Ne, i, 0, &top);
                k.sll(p, t, 2);
                k.add(p, p, out as i32);
                k.sw(x, p, 0);
                k.stop();
            }
            Kernel::Stream => {
                let params = k.global_zeroed("params", 4);
                let buf_a = k.alloc_wram(STREAM_BLOCK * tasklets, 8);
                let buf_b = k.alloc_wram(STREAM_BLOCK * tasklets, 8);
                let [nbytes, wa, wb, off, m] = k.regs(["nbytes", "wa", "wb", "off", "m"]);
                let [pa, pb, end, va, vb] = k.regs(["pa", "pb", "end", "va", "vb"]);
                k.movi(m, params as i32);
                k.lw(nbytes, m, 0);
                k.tid(off);
                k.mul(off, off, STREAM_BLOCK as i32);
                k.add(wa, off, buf_a as i32);
                k.add(wb, off, buf_b as i32);
                let done = k.fresh_label("done");
                let outer = k.label_here("outer");
                k.branch(Cond::Geu, off, nbytes, &done);
                k.ldma(wa, off, STREAM_BLOCK as i32);
                k.add(m, off, REGION as i32);
                k.ldma(wb, m, STREAM_BLOCK as i32);
                k.mov(pa, wa);
                k.mov(pb, wb);
                k.add(end, wa, STREAM_BLOCK as i32);
                let inner = k.label_here("inner");
                k.lw(va, pa, 0);
                k.lw(vb, pb, 0);
                k.add(va, va, vb);
                k.sw(va, pa, 0);
                k.add(pa, pa, 4);
                k.add(pb, pb, 4);
                k.branch(Cond::Ltu, pa, end, &inner);
                k.add(m, off, 2 * REGION as i32);
                k.sdma(wa, m, STREAM_BLOCK as i32);
                k.add(off, off, (STREAM_BLOCK * tasklets) as i32);
                k.jump(&outer);
                k.place(&done);
                k.stop();
            }
            Kernel::DmaHeavy => {
                let params = k.global_zeroed("params", 4);
                let buf = k.alloc_wram(DMA_BLOCK * tasklets, 8);
                let [nbytes, w, m, d] = k.regs(["nbytes", "w", "m", "d"]);
                k.movi(m, params as i32);
                k.lw(nbytes, m, 0);
                k.tid(m);
                k.mul(m, m, DMA_BLOCK as i32);
                k.add(w, m, buf as i32);
                let done = k.fresh_label("done");
                let top = k.label_here("copy");
                k.branch(Cond::Geu, m, nbytes, &done);
                k.ldma(w, m, DMA_BLOCK as i32);
                k.add(d, m, REGION as i32);
                k.sdma(w, d, DMA_BLOCK as i32);
                k.add(m, m, (DMA_BLOCK * tasklets) as i32);
                k.jump(&top);
                k.place(&done);
                k.stop();
            }
            Kernel::BarrierHeavy => {
                let mutex = Mutex::alloc(&mut k);
                let barrier = Barrier::alloc(&mut k, tasklets);
                let counter = k.global_zeroed("counter", 4);
                let [inc, i, a, v] = k.regs(["inc", "i", "a", "v"]);
                let scratch = k.regs(["s0", "s1", "s2"]);
                k.tid(inc);
                k.add(inc, inc, 1);
                k.movi(i, work as i32);
                let top = k.label_here("round");
                mutex.lock(&mut k);
                k.movi(a, counter as i32);
                k.lw(v, a, 0);
                k.add(v, v, inc);
                k.sw(v, a, 0);
                mutex.unlock(&mut k);
                barrier.wait(&mut k, scratch);
                k.sub(i, i, 1);
                k.branch(Cond::Ne, i, 0, &top);
                k.stop();
            }
        }
        k.build().expect("staged kernels fit the default link options")
    }
}

fn slices(chunks: &[Vec<u8>]) -> Vec<&[u8]> {
    chunks.iter().map(Vec::as_slice).collect()
}

fn alu_reference(seed: i32, tasklet: u32, iters: u32) -> i32 {
    let mut x = seed.wrapping_add(tasklet as i32) as u32;
    for _ in 0..iters {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        x ^= x >> 13;
    }
    x as i32
}

/// How a staged case reaches the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Through `PimSystem`: the host layer's allocation, copies, channel
    /// model and launch chunking are in the measured path.
    Host,
    /// One bare `Dpu`: only `pim-dpu` is in the measured path.
    Dpu,
}

/// What the host reads back and what it must equal.
#[derive(Debug, Clone)]
enum Expect {
    Symbol { name: &'static str, per_dpu: Vec<Vec<u8>> },
    Mram { addr: u32, per_dpu: Vec<Vec<u8>> },
}

/// One staged kernel at one size, with its seeded inputs and the
/// reference output computed on the host.
#[derive(Debug, Clone)]
pub struct StagedCase {
    pub name: String,
    pub kernel: Kernel,
    pub tasklets: u32,
    work: u32,
    n_dpus: u32,
    pub cfg: DpuConfig,
    pub drive: Drive,
    /// `(MRAM address, one chunk per DPU)` pushed before launch.
    mram_in: Vec<(u32, Vec<Vec<u8>>)>,
    /// `(symbol, one chunk per DPU)` pushed before launch.
    symbols_in: Vec<(&'static str, Vec<Vec<u8>>)>,
    expect: Expect,
}

impl StagedCase {
    /// `work`: chain length per tasklet (`ALU-LOOP`), words per DPU
    /// (`STREAM`, a multiple of 256 × tasklets), 2 KB blocks per tasklet
    /// (`DMA-HEAVY`), rounds (`BARRIER-HEAVY`).
    pub fn new(
        kernel: Kernel,
        tasklets: u32,
        work: u32,
        n_dpus: u32,
        drive: Drive,
        seed: u64,
    ) -> Self {
        assert!(drive == Drive::Host || n_dpus == 1, "a bare DPU is one DPU");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57a6_ed00 ^ u64::from(work));
        let mut mram_in = Vec::new();
        let mut symbols_in = Vec::new();
        let per_dpu = |f: &mut dyn FnMut(u32) -> Vec<u8>| (0..n_dpus).map(f).collect::<Vec<_>>();
        let expect = match kernel {
            Kernel::AluLoop => {
                let seeds: Vec<i32> = (0..n_dpus).map(|_| rng.next_u32() as i32).collect();
                symbols_in.push(("seed", per_dpu(&mut |d| to_bytes(&[seeds[d as usize]]))));
                Expect::Symbol {
                    name: "out",
                    per_dpu: per_dpu(&mut |d| {
                        let outs: Vec<i32> = (0..tasklets)
                            .map(|t| alu_reference(seeds[d as usize], t, work))
                            .collect();
                        to_bytes(&outs)
                    }),
                }
            }
            Kernel::Stream => {
                assert_eq!(work * 4 % (STREAM_BLOCK * tasklets), 0, "whole blocks per tasklet");
                assert!(work * 4 <= REGION);
                let mut draw =
                    |_d: u32| (0..work).map(|_| rng.gen_range(-1000..1000)).collect::<Vec<i32>>();
                let a: Vec<Vec<i32>> = (0..n_dpus).map(&mut draw).collect();
                let b: Vec<Vec<i32>> = (0..n_dpus).map(&mut draw).collect();
                mram_in.push((0, a.iter().map(|w| to_bytes(w)).collect()));
                mram_in.push((REGION, b.iter().map(|w| to_bytes(w)).collect()));
                symbols_in.push(("params", per_dpu(&mut |_| (work * 4).to_le_bytes().to_vec())));
                Expect::Mram {
                    addr: 2 * REGION,
                    per_dpu: a
                        .iter()
                        .zip(&b)
                        .map(|(a, b)| {
                            let c: Vec<i32> =
                                a.iter().zip(b).map(|(x, y)| x.wrapping_add(*y)).collect();
                            to_bytes(&c)
                        })
                        .collect(),
                }
            }
            Kernel::DmaHeavy => {
                let nbytes = work * tasklets * DMA_BLOCK;
                assert!(nbytes <= REGION);
                let src: Vec<Vec<u8>> = (0..n_dpus)
                    .map(|_| {
                        let mut buf = vec![0u8; nbytes as usize];
                        rng.fill_bytes(&mut buf);
                        buf
                    })
                    .collect();
                mram_in.push((0, src.clone()));
                symbols_in.push(("params", per_dpu(&mut |_| nbytes.to_le_bytes().to_vec())));
                Expect::Mram { addr: REGION, per_dpu: src }
            }
            Kernel::BarrierHeavy => {
                // The seed picks the starting count, so the output depends
                // on the pushed input as in every other kernel.
                let start: Vec<i32> = (0..n_dpus).map(|_| rng.gen_range(0..1000)).collect();
                symbols_in.push(("counter", per_dpu(&mut |d| to_bytes(&[start[d as usize]]))));
                let bump = (work * tasklets * (tasklets + 1) / 2) as i32;
                Expect::Symbol {
                    name: "counter",
                    per_dpu: per_dpu(&mut |d| to_bytes(&[start[d as usize] + bump])),
                }
            }
        };
        StagedCase {
            name: format!(
                "{}@{tasklets}x{n_dpus}/{}",
                kernel.name(),
                if drive == Drive::Host { "host" } else { "dpu" }
            ),
            kernel,
            tasklets,
            work,
            n_dpus,
            cfg: DpuConfig::paper_baseline(tasklets),
            drive,
            mram_in,
            symbols_in,
            expect,
        }
    }

    /// The same case under another DPU configuration (executor tier,
    /// SIMT, ILP, event tracing, …).
    pub fn with_cfg(mut self, label: &str, cfg: DpuConfig) -> Self {
        assert_eq!(cfg.n_tasklets, self.tasklets);
        self.name = format!("{}/{label}", self.name);
        self.cfg = cfg;
        self
    }

    fn check(&self, got: &[Vec<u8>]) -> Result<(), String> {
        let want = match &self.expect {
            Expect::Symbol { per_dpu, .. } | Expect::Mram { per_dpu, .. } => per_dpu,
        };
        match got.iter().zip(want).position(|(g, w)| g != w) {
            None if got.len() == want.len() => Ok(()),
            None => Err(format!("pulled {} chunks, expected {}", got.len(), want.len())),
            Some(d) => Err(format!("DPU {d} output differs from the host reference")),
        }
    }

    /// Drives the case once, one span per step, and returns the launch
    /// statistics. The verdict is recorded as one benchmark operation.
    pub fn run(&self, cx: &mut Cx) -> Option<Vec<DpuRunStats>> {
        let result = match self.drive {
            Drive::Host => self.run_host(cx),
            Drive::Dpu => self.run_dpu(cx),
        };
        match result {
            Ok((stats, verdict)) => {
                cx.stats(&stats);
                cx.op(&self.name, verdict);
                Some(stats)
            }
            Err(e) => {
                cx.op(&self.name, Err(e));
                None
            }
        }
    }

    fn run_host(&self, cx: &mut Cx) -> Result<(Vec<DpuRunStats>, Result<(), String>), String> {
        let program = cx.tr.time("asm.build", || self.kernel.build(self.tasklets, self.work));
        let mut sys = cx.tr.time("host.new", || {
            PimSystem::new(self.n_dpus, self.cfg.clone(), ChannelConfig::paper())
        });
        cx.tr.time("host.load", || sys.load(&program)).map_err(|e| e.to_string())?;
        cx.tr
            .time("host.push", || {
                for (addr, chunks) in &self.mram_in {
                    sys.try_push_to_mram(*addr, &slices(chunks))?;
                }
                for (name, chunks) in &self.symbols_in {
                    sys.try_push_to_symbol(name, &slices(chunks))?;
                }
                Ok(())
            })
            .map_err(|e: pim_dpu::SimError| e.to_string())?;
        let pushed =
            self.mram_in.iter().map(|(_, c)| c).chain(self.symbols_in.iter().map(|(_, c)| c));
        cx.tally.push_bytes += pushed.flatten().map(|c| c.len() as u64).sum::<u64>();
        let report =
            cx.tr.time("host.launch_all", || sys.launch_all()).map_err(|e| e.to_string())?;
        let got = cx.tr.time("host.pull", || match &self.expect {
            Expect::Symbol { name, .. } => sys.pull_from_symbol(name),
            Expect::Mram { addr, per_dpu } => sys.pull_from_mram(*addr, per_dpu[0].len() as u32),
        });
        cx.tally.pull_bytes += got.iter().map(|c| c.len() as u64).sum::<u64>();
        let verdict = cx.tr.time("bench.validate", || self.check(&got));
        cx.timeline(sys.timeline());
        Ok((report.per_dpu, verdict))
    }

    fn run_dpu(&self, cx: &mut Cx) -> Result<(Vec<DpuRunStats>, Result<(), String>), String> {
        let program = cx.tr.time("asm.build", || self.kernel.build(self.tasklets, self.work));
        let mut dpu = cx.tr.time("dpu.new", || Dpu::new(self.cfg.clone()));
        cx.tr.time("dpu.load", || dpu.load_program(&program)).map_err(|e| e.to_string())?;
        let open = cx.tr.enter("bench.stage");
        for (addr, chunks) in &self.mram_in {
            dpu.write_mram(*addr, &chunks[0]);
        }
        for (name, chunks) in &self.symbols_in {
            dpu.write_wram_symbol(name, &chunks[0]);
        }
        cx.tr.exit(open);
        let stats = cx.tr.time("dpu.launch", || dpu.launch()).map_err(|e| e.to_string())?;
        let verdict = cx.tr.time("bench.validate", || {
            let got = match &self.expect {
                Expect::Symbol { name, .. } => dpu.read_wram_symbol(name),
                Expect::Mram { addr, per_dpu } => dpu.read_mram(*addr, per_dpu[0].len() as u32),
            };
            self.check(&[got])
        });
        Ok((vec![stats], verdict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small sizes of each kernel: `(kernel, work at t tasklets)`.
    fn small(kernel: Kernel, tasklets: u32) -> u32 {
        match kernel {
            Kernel::AluLoop => 50,
            Kernel::Stream => 256 * tasklets * 2,
            Kernel::DmaHeavy => 3,
            Kernel::BarrierHeavy => 5,
        }
    }

    #[test]
    fn staged_kernels_match_the_host_reference_at_1_8_16_tasklets() {
        for kernel in Kernel::ALL {
            for tasklets in [1, 8, 16] {
                for (drive, n_dpus) in [(Drive::Host, 2), (Drive::Dpu, 1)] {
                    let case = StagedCase::new(
                        kernel,
                        tasklets,
                        small(kernel, tasklets),
                        n_dpus,
                        drive,
                        7,
                    );
                    let mut cx = Cx::new();
                    let stats = case.run(&mut cx).expect("launch succeeds");
                    assert_eq!(cx.tally.failed, 0, "{}: {:?}", case.name, cx.tally.failures);
                    assert_eq!(cx.tally.ops, 1);
                    assert_eq!(stats.len(), n_dpus as usize);
                    assert!(cx.tally.instr > 0 && cx.tally.cycles > 0);
                }
            }
        }
    }

    #[test]
    fn a_wrong_output_is_a_failed_operation() {
        let mut case = StagedCase::new(Kernel::AluLoop, 4, 10, 1, Drive::Dpu, 1);
        let Expect::Symbol { per_dpu, .. } = &mut case.expect else { panic!("symbol") };
        per_dpu[0][0] ^= 1;
        let mut cx = Cx::new();
        case.run(&mut cx);
        assert_eq!((cx.tally.ops, cx.tally.failed), (1, 1));
    }

    #[test]
    fn the_seed_changes_inputs_and_outputs_but_not_the_work() {
        let run = |seed| {
            let case = StagedCase::new(Kernel::Stream, 8, 256 * 8, 1, Drive::Dpu, seed);
            let mut cx = Cx::new();
            let stats = case.run(&mut cx).unwrap();
            (case.mram_in[0].1[0].clone(), stats[0].instructions)
        };
        let (in1, instr1) = run(1);
        let (in2, instr2) = run(2);
        assert_ne!(in1, in2);
        assert_eq!(instr1, instr2);
        assert_eq!(run(1).0, in1);
    }

    #[test]
    fn spans_cover_every_step_of_the_host_drive() {
        let case = StagedCase::new(Kernel::DmaHeavy, 4, 2, 1, Drive::Host, 3);
        let mut cx = Cx::new();
        cx.tr.on = true;
        case.run(&mut cx);
        let names: Vec<&str> = cx.tr.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "asm.build",
                "host.new",
                "host.load",
                "host.push",
                "host.launch_all",
                "host.pull",
                "bench.validate"
            ]
        );
        assert!(cx.tally.push_bytes > 0 && cx.tally.pull_bytes > 0);
    }
}
