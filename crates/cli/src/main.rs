//! `pimsim` — the command-line front door to the simulator.
//!
//! ```text
//! pimsim asm    <file.s>                     check/assemble, print footprint
//! pimsim disasm <file.s>                     assemble then disassemble
//! pimsim run    <file.s> [options]           assemble and simulate
//!     --tasklets N     tasklets to launch (default 16)
//!     --trace N        print the first N issued instructions
//!     --cache          cache-centric memory model (§V-D)
//!     --mmu            MMU in front of MRAM (§V-C)
//!     --ilp DRSF       any subset of the Fig 12 features
//! pimsim exp    <name|--list> [options]      regenerate a paper figure
//!     --size tiny|single|multi    dataset size
//!     --threads N                 simulation worker threads
//!     --json                      print the JSON document to stdout
//!     --out DIR                   where <name>.json is written
//!     --trace FILE                also write a Chrome trace-event file
//!     --tuned FILE                take execution shapes from a tuned table
//! pimsim trace  <name> [options]             trace a paper figure
//!     --size tiny|single|multi    dataset size
//!     --threads N                 simulation worker threads
//!     --out FILE                  trace file (default results/<name>.trace.json)
//! pimsim bench  [options]                    simulator-throughput micro-harness
//!     --quick                     tiny datasets, 1 rep (CI smoke)
//!     --size tiny|single|multi    dataset size
//!     --reps K                    wall-time repetitions (median reported)
//!     --out FILE                  where BENCH.json is written
//!     --json                      print the JSON document to stdout
//!     --baseline FILE             print speedups vs a previous BENCH.json
//! pimsim fuzz   [options]                    coverage-guided conformance fuzzing
//!     --seed N                    campaign master seed (default 0)
//!     --budget N                  programs to generate (default 96)
//!     --jobs N                    worker threads (never affects results)
//!     --corpus DIR                replay this corpus first; write repros here
//!     --mutate                    arm each seeded bug in turn (self-check)
//!     --json                      print the JSON document to stdout
//!     --out FILE                  where the JSON report is written
//! pimsim tune   [options]                    autotune per-workload configs
//!     --quick                     reduced grid (CI smoke)
//!     --size tiny|single|multi    dataset size the sweep runs at
//!     --threads N                 worker threads (never affects the table)
//!     --workloads A,B,...         tune a subset (default: whole suite)
//!     --out FILE                  where the table goes (default results/tuned.json)
//!     --json                      print the JSON document to stdout
//! pimsim serve  <scenario|--list> [options]  run a multi-tenant serving scenario
//!     --seed N                    traffic seed (default 42)
//!     --duration-ms M             simulated run length (scenario default)
//!     --load X                    load multiplier on the base rate
//!     --policy P                  fifo | size_class | weighted_fair
//!     --channel MODE              blocking | broadcast | overlapped
//!     --tuned FILE                apply a tuned table's policy/channel
//!     --faults SPEC               seeded fault campaign, k=v pairs
//!                                 (seed/transient/stuck/timeout_us/retries/
//!                                 backoff_us/outages/outage_ms/rank_dpus)
//!     --checkpoint-every MS       cut serve_<scenario>.ckpt<k>.json snapshots
//!     --resume FILE               continue from a checkpoint document
//!     --threads N                 composition-profiling worker threads
//!     --json                      print the JSON document to stdout
//!     --out DIR                   where serve_<scenario>.json is written
//!     --trace FILE                also write a Chrome trace-event file
//! ```

use std::process::ExitCode;

use pim_asm::{assemble, disassemble};
use pim_dpu::{Dpu, DpuConfig, IlpFeatures};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  pimsim asm    <file.s>\n  pimsim disasm <file.s>\n  pimsim run    <file.s> \
         [--tasklets N] [--trace N] [--cache] [--mmu] [--ilp DRSF]\n  pimsim exp    \
         <name|--list> [--size tiny|single|multi] [--threads N] [--json] [--out DIR] [--trace \
         FILE] [--tuned FILE]\n  pimsim trace  <name> [--size tiny|single|multi] [--threads N] \
         [--out FILE]\n  pimsim bench  [--quick] [--size tiny|single|multi] [--reps K] [--out \
         FILE] [--json] [--baseline FILE]\n  pimsim tune   [--quick] [--size tiny|single|multi] \
         [--threads N] [--workloads A,B,...] [--out FILE] [--json]\n  pimsim serve  \
         <scenario|--list> [--seed N] [--duration-ms M] [--load X] [--policy P] [--channel MODE] \
         [--tuned FILE] [--faults SPEC] [--checkpoint-every MS] [--resume FILE] [--threads N] \
         [--json] [--out DIR] [--trace FILE]\n  pimsim fuzz   [--seed N] [--budget N] [--jobs N] \
         [--corpus DIR] [--mutate] [--json] [--out FILE]"
    );
    ExitCode::from(2)
}

/// `pimsim exp`: the figure-regeneration driver shared with `pim-bench`.
fn exp(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        eprintln!("pimsim exp: which experiment? (try `pimsim exp --list`)");
        return ExitCode::from(2);
    };
    if name == "--list" {
        // Tolerate a closed pipe (`pimsim exp --list | head`).
        use std::io::Write;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for e in pim_bench::experiments() {
            if writeln!(out, "{:26} {}", e.name, e.title).is_err() {
                break;
            }
        }
        return ExitCode::SUCCESS;
    }
    pim_bench::run_with_args(name, &args[1..])
}

/// `pimsim trace`: run an experiment with structured event tracing and
/// write a Chrome trace-event (Perfetto-loadable) file.
fn trace(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        eprintln!("pimsim trace: which experiment? (try `pimsim exp --list`)");
        return ExitCode::from(2);
    };
    pim_bench::run_trace_with_args(name, &args[1..])
}

/// `pimsim serve`: the multi-tenant serving runtime driver.
fn serve(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        eprintln!("pimsim serve: which scenario? (try `pimsim serve --list`)");
        return ExitCode::from(2);
    };
    if name == "--list" {
        // Tolerate a closed pipe (`pimsim serve --list | head`).
        use std::io::Write;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for s in pim_serve::scenarios() {
            if writeln!(out, "{:26} {}", s.name, s.title).is_err() {
                break;
            }
        }
        return ExitCode::SUCCESS;
    }
    pim_bench::run_serve_with_args(name, &args[1..])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("exp") {
        return exp(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace") {
        return trace(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bench") {
        return pim_bench::perf::run_bench_with_args(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("tune") {
        return pim_bench::tune::run_tune_with_args(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fuzz") {
        return pim_fuzz::cli::run_with_args(&args[1..]);
    }
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pimsim: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match assemble(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pimsim: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "asm" => {
            println!(
                "{path}: {} instructions ({} B of IRAM), {} B of WRAM data, {} symbols",
                program.instrs.len(),
                program.iram_bytes(),
                program.wram_init.len(),
                program.symbols.len()
            );
            for (name, sym) in &program.symbols {
                println!("  {name:<24} {}@{:#x} ({} B)", sym.space, sym.addr, sym.size);
            }
            ExitCode::SUCCESS
        }
        "disasm" => {
            print!("{}", disassemble(&program));
            ExitCode::SUCCESS
        }
        "run" => {
            let mut tasklets = 16u32;
            let mut trace = 0usize;
            let mut cfg_mods: Vec<String> = Vec::new();
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--tasklets" => {
                        tasklets = it.next().and_then(|v| v.parse().ok()).unwrap_or(16);
                    }
                    "--trace" => {
                        trace = it.next().and_then(|v| v.parse().ok()).unwrap_or(32);
                    }
                    "--cache" | "--mmu" => cfg_mods.push(a.clone()),
                    "--ilp" => {
                        if let Some(v) = it.next() {
                            cfg_mods.push(format!("--ilp={v}"));
                        }
                    }
                    other => {
                        eprintln!("pimsim: unknown option {other}");
                        return usage();
                    }
                }
            }
            let mut cfg = DpuConfig::paper_baseline(tasklets);
            cfg.trace_limit = trace;
            for m in &cfg_mods {
                if m == "--cache" {
                    cfg = cfg.with_paper_caches();
                } else if m == "--mmu" {
                    cfg = cfg.with_paper_mmu();
                } else if let Some(flags) = m.strip_prefix("--ilp=") {
                    let ilp = IlpFeatures {
                        data_forwarding: flags.contains('D'),
                        unified_rf: flags.contains('R'),
                        superscalar: flags.contains('S'),
                        double_frequency: flags.contains('F'),
                    };
                    cfg = cfg.with_ilp(ilp);
                }
            }
            let mut dpu = Dpu::new(cfg);
            if let Err(e) = dpu.load_program(&program) {
                eprintln!("pimsim: load failed: {e}");
                return ExitCode::FAILURE;
            }
            match dpu.launch() {
                Ok(stats) => {
                    for t in &stats.trace {
                        println!("{t}");
                    }
                    let (active, mem, rev, rf) = stats.breakdown();
                    println!(
                        "cycles {} | instructions {} | IPC {:.3} | {:.1} µs @{} MHz",
                        stats.cycles,
                        stats.instructions,
                        stats.ipc(),
                        stats.time_ns() / 1e3,
                        stats.freq_mhz
                    );
                    println!(
                        "active {:.1}% | idle: memory {:.1}%, revolver {:.1}%, RF {:.1}%",
                        active * 100.0,
                        mem * 100.0,
                        rev * 100.0,
                        rf * 100.0
                    );
                    println!(
                        "DRAM: {} B read, {} B written | DMA requests {}",
                        stats.dram.bytes_read, stats.dram.bytes_written, stats.dma_requests
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("pimsim: simulation fault: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
