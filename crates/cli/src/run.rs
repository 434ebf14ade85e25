//! `pimsim asm`, `disasm` and `run`: one assembly file, one DPU.

use std::fmt::Write as _;

use pim_asm::{assemble, disassemble, DpuProgram};
use pim_dpu::{Dpu, DpuConfig, IlpFeatures, MemoryMode, MAX_TASKLETS};
use pimulator::pim_trace::{TraceEvent, TraceSink};

use crate::args::{Args, Common, Failure, Spec};
use crate::output::emit;

/// Check and assemble; print the footprint and the symbol map.
pub(crate) static ASM: Spec = Spec { name: "asm", positional: "<file.s>", flags: &[] };

/// Assemble, then print the round-trip listing.
pub(crate) static DISASM: Spec = Spec { name: "disasm", positional: "<file.s>", flags: &[] };

/// Assemble and simulate on one DPU.
pub(crate) static RUN: Spec = Spec {
    name: "run",
    positional: "<file.s>",
    flags: &[
        ("--tasklets", "N"), // tasklets to launch (default 16, at most 24)
        ("--trace", "N"),    // print the first N retired instructions, in issue order
        ("--cache", ""),     // cache-centric memory model (§V-D)
        ("--mmu", ""),       // MMU in front of MRAM (§V-C)
        ("--ilp", "DRSF"),   // any subset of the Fig 12 features
    ],
};

const MISSING: &str = "which assembly file?";

fn program(path: &str) -> Result<DpuProgram, Failure> {
    let src = std::fs::read_to_string(path)
        .map_err(|err| Failure::Run(format!("cannot read {path}: {err}")))?;
    assemble(&src).map_err(|err| Failure::Run(format!("{path}: {err}")))
}

pub(crate) fn asm(args: &[String]) -> Result<(), Failure> {
    let (path, _) = Common::parse(&ASM, args, MISSING).map_err(Failure::Usage)?;
    let program = program(path)?;
    let mut text = format!(
        "{path}: {} instructions ({} B of IRAM), {} B of WRAM data, {} symbols\n",
        program.instrs.len(),
        program.iram_bytes(),
        program.wram_init.len(),
        program.symbols.len()
    );
    for (name, sym) in &program.symbols {
        let _ = writeln!(text, "  {name:<24} {}@{:#x} ({} B)", sym.space, sym.addr, sym.size);
    }
    emit(&text);
    Ok(())
}

pub(crate) fn disasm(args: &[String]) -> Result<(), Failure> {
    let (path, _) = Common::parse(&DISASM, args, MISSING).map_err(Failure::Usage)?;
    emit(&disassemble(&program(path)?));
    Ok(())
}

/// `--trace N`: the first N `InstrRetire` events of the launch as `(cycle,
/// tasklet, pc)`. Whether it listens is fixed for the run (the loops drain
/// DRAM row events only into an enabled sink), so once full it goes deaf,
/// not disabled.
struct FirstRetired {
    limit: usize,
    seen: Vec<(u64, u32, u32)>,
}

impl TraceSink for FirstRetired {
    fn enabled(&self) -> bool {
        self.limit > 0
    }

    fn emit(&mut self, event: TraceEvent) {
        if let TraceEvent::InstrRetire { cycle, tasklet, pc, .. } = event {
            if self.seen.len() < self.limit {
                self.seen.push((cycle, tasklet, pc));
            }
        }
    }
}

fn parse_run(args: &[String]) -> Result<(&str, DpuConfig, usize), String> {
    let mut args = Args::new(&RUN, args);
    let path = args.positional(MISSING)?;
    let mut cfg = DpuConfig::paper_baseline(16);
    let mut trace = 0;
    while let Some(flag) = args.flag()? {
        match flag {
            "--tasklets" => {
                cfg.n_tasklets = args.number()?;
                if !(1..=MAX_TASKLETS).contains(&cfg.n_tasklets) {
                    return Err(args.bad(format_args!("must be in 1..={MAX_TASKLETS}")));
                }
            }
            "--trace" => trace = args.number()?,
            "--cache" => cfg = cfg.with_paper_caches(),
            "--mmu" => cfg = cfg.with_paper_mmu(),
            "--ilp" => {
                let letters = args.value()?;
                if let Some(c) = letters.chars().find(|c| !"DRSF".contains(*c)) {
                    return Err(args.bad(format_args!("`{c}` is not one of D, R, S, F")));
                }
                cfg = cfg.with_ilp(IlpFeatures {
                    data_forwarding: letters.contains('D'),
                    unified_rf: letters.contains('R'),
                    superscalar: letters.contains('S'),
                    double_frequency: letters.contains('F'),
                });
            }
            other => unreachable!("`{other}` is in RUN's flag list but nothing parses it"),
        }
    }
    if cfg.mmu && cfg.memory_mode != MemoryMode::Scratchpad {
        return Err(
            "--mmu sits on the scratchpad DMA path: it cannot be combined with --cache".to_string()
        );
    }
    Ok((path, cfg, trace))
}

pub(crate) fn run(args: &[String]) -> Result<(), Failure> {
    let (path, cfg, limit) = parse_run(args).map_err(Failure::Usage)?;
    let program = program(path)?;
    let mut dpu = Dpu::new(cfg);
    dpu.load_program(&program).map_err(|err| Failure::Run(format!("load failed: {err}")))?;
    let mut first = FirstRetired { limit, seen: Vec::new() };
    let stats = dpu
        .launch_with(&mut first)
        .map_err(|err| Failure::Run(format!("simulation fault: {err}")))?;
    let mut text = String::new();
    for (cycle, tasklet, pc) in first.seen {
        let instr = program.instrs[pc as usize];
        let _ = writeln!(text, "[{cycle:>8}] t{tasklet:02} pc={pc:<5} {instr}");
    }
    let (active, mem, rev, rf) = stats.breakdown();
    let _ = writeln!(
        text,
        "cycles {} | instructions {} | IPC {:.3} | {:.1} µs @{} MHz",
        stats.cycles,
        stats.instructions,
        stats.ipc(),
        stats.time_ns() / 1e3,
        stats.freq_mhz
    );
    let _ = writeln!(
        text,
        "active {:.1}% | idle: memory {:.1}%, revolver {:.1}%, RF {:.1}%",
        active * 100.0,
        mem * 100.0,
        rev * 100.0,
        rf * 100.0
    );
    let _ = writeln!(
        text,
        "DRAM: {} B read, {} B written | DMA requests {}",
        stats.dram.bytes_read, stats.dram.bytes_written, stats.dma_requests
    );
    emit(&text);
    Ok(())
}
