//! The `pimsim bench` micro-harness: simulator-throughput tracking.
//!
//! Measures how fast the *simulator* runs (wall time), not how fast the
//! simulated hardware is: every workload is seeded and deterministic, so
//! its simulated cycle/instruction counts are fixed, and the interesting
//! output is simulated kilo-cycles per wall-second and instructions per
//! wall-second. The suite is all 16 PrIM kernels, the sparse BSR and
//! quantized NN-inference extension families, plus two synthetics that
//! stress the memory engine (`DMA-HEAVY`) and the scheduler's
//! acquire/release retry path (`BARRIER-HEAVY`).
//!
//! Every workload is measured twice — once under the configured executor
//! (the compiled tier in the paper baseline) and once forced onto the
//! decoded fast loop — so each row carries the compiled-over-fast speedup
//! alongside the absolute rates. Both legs must agree on the simulated
//! instruction/cycle counts (asserted), which makes the bench itself a
//! coarse differential check of the executor tiers.
//!
//! Results are written to `BENCH.json` so the perf trajectory is tracked
//! across PRs; `--baseline OLD.json` prints per-workload speedups against
//! a previous run **and turns them into a regression gate**: any workload
//! whose instrs/sec drops more than 10% against the baseline (ignoring
//! rows too fast to time reliably) fails the run with a nonzero exit.
//! CI validates the schema with `--quick`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pim_asm::{DpuProgram, KernelBuilder};
use pim_dpu::{Dpu, DpuConfig, ExecTier, SimError};
use pim_isa::Cond;
use pimulator::experiments as exp;
use pimulator::jobs::SimJob;
use pimulator::pim_host::ChannelMode;
use pimulator::report::Json;
use prim_suite::{extended_workloads, workload_by_name, DatasetSize, RunConfig};

use crate::{parse_size_value, size_label};

/// Schema tag written to (and required in) `BENCH.json`. `/3` added the
/// required `channels` rows (simulated wall time per channel mode).
pub const BENCH_SCHEMA: &str = "pim-bench/3";

/// Rows whose wall time (in either run) falls under this threshold are
/// exempt from the `--baseline` regression gate: sub-50ms measurements on
/// quick-mode datasets are dominated by timer and allocator noise.
pub const MIN_REGRESSION_WALL: f64 = 0.05;

/// Maximum tolerated instrs/sec drop against the baseline (fractional).
pub const MAX_REGRESSION: f64 = 0.10;

/// Tasklet count every benchmark runs at (the paper's full-occupancy
/// configuration).
pub const BENCH_TASKLETS: u32 = 16;

/// One measured workload: fixed simulated work plus the median wall time
/// it took the simulator to produce it.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name (`VA` … `UNI`, `DMA-HEAVY`, `BARRIER-HEAVY`).
    pub name: String,
    /// `"prim"` or `"synthetic"`.
    pub kind: &'static str,
    /// Tasklets per DPU.
    pub tasklets: u32,
    /// Simulated instructions executed (identical across reps).
    pub instructions: u64,
    /// Simulated core cycles (identical across reps).
    pub cycles: u64,
    /// Median-of-k wall seconds under the configured executor (the
    /// compiled tier in the paper baseline).
    pub wall_seconds: f64,
    /// Median-of-k wall seconds with the executor forced onto the decoded
    /// fast loop ([`ExecTier::Fast`]); same simulated work by assertion.
    pub wall_seconds_fast: f64,
}

impl Measurement {
    /// Simulated kilo-cycles advanced per wall-second.
    #[must_use]
    pub fn kilo_cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_seconds / 1e3
    }

    /// Simulated instructions executed per wall-second.
    #[must_use]
    pub fn instrs_per_sec(&self) -> f64 {
        self.instructions as f64 / self.wall_seconds
    }

    /// Simulated instructions per wall-second on the fast-loop leg.
    #[must_use]
    pub fn instrs_per_sec_fast(&self) -> f64 {
        self.instructions as f64 / self.wall_seconds_fast
    }

    /// Configured-executor throughput over fast-loop throughput (the
    /// compiled-over-fast speedup in the paper baseline).
    #[must_use]
    pub fn compiled_speedup(&self) -> f64 {
        self.wall_seconds_fast / self.wall_seconds
    }
}

/// Median of `walls` (mean of the middle two for even counts).
fn median(walls: &mut [f64]) -> f64 {
    walls.sort_by(f64::total_cmp);
    let n = walls.len();
    if n % 2 == 1 {
        walls[n / 2]
    } else {
        (walls[n / 2 - 1] + walls[n / 2]) / 2.0
    }
}

/// Measures one PrIM workload end-to-end (dataset staging, simulation,
/// host transfers, and reference validation) `reps` times under `cfg`,
/// plus `reps` more with the executor forced onto the fast loop.
///
/// # Errors
///
/// Propagates the simulation fault, if any.
///
/// # Panics
///
/// Panics if the workload name is unknown or the simulated
/// instruction/cycle counts are not identical across reps and executor
/// tiers (the workloads are seeded and deterministic, and the tiers are
/// byte-identical by construction).
pub fn measure_prim(
    name: &str,
    size: DatasetSize,
    cfg: &DpuConfig,
    reps: usize,
) -> Result<Measurement, SimError> {
    let job = SimJob::single(name, size, cfg.clone());
    let fast_job = SimJob::single(name, size, cfg.clone().with_exec_tier(ExecTier::Fast));
    let mut walls = Vec::with_capacity(reps);
    let mut walls_fast = Vec::with_capacity(reps);
    let mut sim: Option<(u64, u64)> = None;
    let check = |got: (u64, u64), sim: &mut Option<(u64, u64)>| match *sim {
        None => *sim = Some(got),
        Some(prev) => {
            assert_eq!(prev, got, "{name}: simulated work must not vary across reps/tiers");
        }
    };
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = job.execute()?;
        walls.push(start.elapsed().as_secs_f64());
        check((out.stats.instructions, out.stats.cycles), &mut sim);
        let start = Instant::now();
        let out = fast_job.execute()?;
        walls_fast.push(start.elapsed().as_secs_f64());
        check((out.stats.instructions, out.stats.cycles), &mut sim);
    }
    let (instructions, cycles) = sim.expect("at least one rep ran");
    Ok(Measurement {
        name: name.to_string(),
        kind: "prim",
        tasklets: cfg.n_tasklets,
        instructions,
        cycles,
        wall_seconds: median(&mut walls),
        wall_seconds_fast: median(&mut walls_fast),
    })
}

/// The two synthetic stress kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Synthetic {
    /// Each tasklet streams `ldma`/`sdma` blocks back and forth: the run is
    /// dominated by memory-engine and DRAM-bank events.
    DmaHeavy,
    /// Every tasklet fights over one atomic bit around a tiny critical
    /// section: the run is dominated by acquire-retry issue slots.
    BarrierHeavy,
}

impl Synthetic {
    /// Report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Synthetic::DmaHeavy => "DMA-HEAVY",
            Synthetic::BarrierHeavy => "BARRIER-HEAVY",
        }
    }

    /// Per-tasklet loop iterations at the given dataset size.
    fn iterations(self, size: DatasetSize) -> i32 {
        match (self, size) {
            (Synthetic::DmaHeavy, DatasetSize::Tiny) => 4,
            (Synthetic::DmaHeavy, DatasetSize::SingleDpu) => 64,
            (Synthetic::DmaHeavy, DatasetSize::MultiDpu) => 128,
            (Synthetic::BarrierHeavy, DatasetSize::Tiny) => 32,
            (Synthetic::BarrierHeavy, DatasetSize::SingleDpu) => 512,
            (Synthetic::BarrierHeavy, DatasetSize::MultiDpu) => 1024,
        }
    }
}

/// DMA block size of [`Synthetic::DmaHeavy`], in bytes.
const DMA_BLOCK: u32 = 2048;

/// Builds the synthetic kernel for `n_tasklets` tasklets.
fn synthetic_kernel(which: Synthetic, size: DatasetSize, n_tasklets: u32) -> DpuProgram {
    let iters = which.iterations(size);
    let mut k = KernelBuilder::new();
    match which {
        Synthetic::DmaHeavy => {
            let buf = k.alloc_wram(DMA_BLOCK * n_tasklets, 8);
            let [t, w, m, i] = k.regs(["t", "w", "m", "i"]);
            k.tid(t);
            k.mul(w, t, DMA_BLOCK as i32);
            k.add(w, w, buf as i32);
            // Disjoint MRAM stream per tasklet.
            k.mul(m, t, iters * DMA_BLOCK as i32);
            k.movi(i, iters);
            let top = k.label_here("stream");
            k.ldma(w, m, DMA_BLOCK as i32);
            k.sdma(w, m, DMA_BLOCK as i32);
            k.add(m, m, DMA_BLOCK as i32);
            k.sub(i, i, 1);
            k.branch(Cond::Ne, i, 0, &top);
            k.stop();
        }
        Synthetic::BarrierHeavy => {
            let bit = k.alloc_atomic_bit();
            let ctr = k.global_zeroed("counter", 4);
            let [i, a, v] = k.regs(["i", "a", "v"]);
            k.movi(a, ctr as i32);
            k.movi(i, iters);
            let top = k.label_here("contend");
            k.acquire(bit as i32);
            k.lw(v, a, 0);
            k.add(v, v, 1);
            k.sw(v, a, 0);
            k.release(bit as i32);
            k.sub(i, i, 1);
            k.branch(Cond::Ne, i, 0, &top);
            k.stop();
        }
    }
    k.build().expect("synthetic kernel builds")
}

/// Measures a synthetic kernel: program load is outside the timed region,
/// each rep times one [`Dpu::launch`].
///
/// # Errors
///
/// Propagates the simulation fault, if any.
///
/// # Panics
///
/// Panics if the simulated cycle count varies across reps.
pub fn measure_synthetic(
    which: Synthetic,
    size: DatasetSize,
    cfg: &DpuConfig,
    reps: usize,
) -> Result<Measurement, SimError> {
    let program = synthetic_kernel(which, size, cfg.n_tasklets);
    let mut dpu = Dpu::new(cfg.clone());
    dpu.load_program(&program)?;
    let mut fast_dpu = Dpu::new(cfg.clone().with_exec_tier(ExecTier::Fast));
    fast_dpu.load_program(&program)?;
    let mut walls = Vec::with_capacity(reps);
    let mut walls_fast = Vec::with_capacity(reps);
    let mut sim: Option<(u64, u64)> = None;
    let check = |got: (u64, u64), sim: &mut Option<(u64, u64)>| match *sim {
        None => *sim = Some(got),
        Some(prev) => {
            assert_eq!(
                prev,
                got,
                "{}: simulated work must not vary across reps/tiers",
                which.name()
            );
        }
    };
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let stats = dpu.launch()?;
        walls.push(start.elapsed().as_secs_f64());
        check((stats.instructions, stats.cycles), &mut sim);
        let start = Instant::now();
        let stats = fast_dpu.launch()?;
        walls_fast.push(start.elapsed().as_secs_f64());
        check((stats.instructions, stats.cycles), &mut sim);
    }
    let (instructions, cycles) = sim.expect("at least one rep ran");
    Ok(Measurement {
        name: which.name().to_string(),
        kind: "synthetic",
        tasklets: cfg.n_tasklets,
        instructions,
        cycles,
        wall_seconds: median(&mut walls),
        wall_seconds_fast: median(&mut walls_fast),
    })
}

/// The `rank` synthetic: one DPU population launched twice — through
/// `launch_all` (the lockstep driver) and DPU by DPU through `launch_each`
/// — on identical staged inputs. Both launches produce byte-identical
/// simulated results (asserted), so the wall-time ratio isolates the
/// executor itself. The
/// headline metric is **DPU-steps/sec**: aggregate simulated DPU cycles
/// advanced per wall-second.
#[derive(Debug, Clone)]
pub struct RankMeasurement {
    /// Population size (DPUs launched together).
    pub dpus: u32,
    /// Always [`exp::DEFAULT_RANK_BATCH`]; lockstep groups are no longer
    /// sized by a knob, the field stays for the `pim-bench/3` schema.
    pub batch_dpus: u32,
    /// Tasklets per DPU.
    pub tasklets: u32,
    /// Simulated instructions per launch, summed across the population.
    pub instructions: u64,
    /// Simulated DPU cycles per launch, summed across the population.
    pub cycles: u64,
    /// Median-of-k wall seconds of the batched launch.
    pub wall_seconds_batched: f64,
    /// Median-of-k wall seconds of the per-DPU launch.
    pub wall_seconds_per_dpu: f64,
}

impl RankMeasurement {
    /// Aggregate simulated DPU cycles advanced per wall-second, batched.
    #[must_use]
    pub fn dpu_steps_per_sec_batched(&self) -> f64 {
        self.cycles as f64 / self.wall_seconds_batched
    }

    /// Aggregate simulated DPU cycles advanced per wall-second, per-DPU.
    #[must_use]
    pub fn dpu_steps_per_sec_per_dpu(&self) -> f64 {
        self.cycles as f64 / self.wall_seconds_per_dpu
    }

    /// Batched throughput over per-DPU throughput.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.wall_seconds_per_dpu / self.wall_seconds_batched
    }
}

/// Population size of the `rank` synthetic at each dataset size.
fn rank_population_size(size: DatasetSize) -> u32 {
    match size {
        DatasetSize::Tiny => 128,
        DatasetSize::SingleDpu => 512,
        DatasetSize::MultiDpu => 1024,
    }
}

/// Measures the `rank` synthetic: stages the population once per path
/// (outside the timed region), then times `reps` whole-population launches
/// through each executor and reports the medians.
///
/// # Errors
///
/// Propagates the simulation fault, if any.
///
/// # Panics
///
/// Panics if the two executors (or two reps) disagree on the simulated
/// instruction/cycle totals — they are byte-identical by construction.
pub fn measure_rank(size: DatasetSize, reps: usize) -> Result<RankMeasurement, SimError> {
    let dpus = rank_population_size(size);
    let batch_dpus = exp::DEFAULT_RANK_BATCH;
    let mut batched = exp::rank_population(0, dpus, 0)?;
    let mut per_dpu = exp::rank_population(0, dpus, 0)?;
    let mut walls_batched = Vec::with_capacity(reps);
    let mut walls_per_dpu = Vec::with_capacity(reps);
    let mut sim: Option<(u64, u64)> = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let rb = batched.launch_all()?;
        walls_batched.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let rp = per_dpu.launch_each().into_iter().collect::<Result<Vec<_>, _>>()?;
        walls_per_dpu.push(start.elapsed().as_secs_f64());
        let got = (rb.total_instructions(), rb.per_dpu.iter().map(|s| s.cycles).sum::<u64>());
        let got_p =
            (rp.iter().map(|s| s.instructions).sum::<u64>(), rp.iter().map(|s| s.cycles).sum());
        assert_eq!(got, got_p, "RANK: batched and per-DPU launches disagree on simulated work");
        match sim {
            None => sim = Some(got),
            Some(prev) => {
                assert_eq!(prev, got, "RANK: simulated work must not vary across reps");
            }
        }
    }
    let (instructions, cycles) = sim.expect("at least one rep ran");
    Ok(RankMeasurement {
        dpus,
        batch_dpus,
        tasklets: exp::rank_config(0).n_tasklets,
        instructions,
        cycles,
        wall_seconds_batched: median(&mut walls_batched),
        wall_seconds_per_dpu: median(&mut walls_per_dpu),
    })
}

/// One channel-mode row: the **simulated** end-to-end wall time of a
/// transfer-bound workload under one channel mode. Unlike the throughput
/// rows, these are properties of the simulated machine, not the
/// simulator — fixed for a given `(workload, shape, mode, size)` — so
/// the bench doubles as a pinned record of the channel model's effect.
#[derive(Debug, Clone)]
pub struct ChannelMeasurement {
    /// Workload name.
    pub workload: String,
    /// Channel-mode label (`blocking` | `broadcast` | `overlapped`).
    pub channel: &'static str,
    /// Tasklets per DPU.
    pub tasklets: u32,
    /// DPUs the run spans.
    pub n_dpus: u32,
    /// Simulated end-to-end wall time.
    pub wall_ns: f64,
    /// Simulated wall of the same shape under the blocking mode.
    pub blocking_wall_ns: f64,
}

impl ChannelMeasurement {
    /// Simulated end-to-end win over the blocking mode (1.0 for the
    /// blocking row itself).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.blocking_wall_ns / self.wall_ns
    }
}

/// Workloads the channel rows cover: both are transfer-bound, so the
/// mode shows through in the end-to-end wall.
pub const CHANNEL_WORKLOADS: [&str; 2] = ["VA", "SEL"];

/// DPUs the channel rows span (per-rank overlap needs a population).
pub const CHANNEL_DPUS: u32 = 4;

/// Measures [`CHANNEL_WORKLOADS`] under all three channel modes at the
/// bench shape (16 tasklets × [`CHANNEL_DPUS`] DPUs), in mode-major
/// order with blocking first.
///
/// # Errors
///
/// Propagates the simulation fault, if any.
///
/// # Panics
///
/// Panics if a channel workload is missing from the suite.
pub fn channel_rows(size: DatasetSize) -> Result<Vec<ChannelMeasurement>, SimError> {
    let cfg = DpuConfig::paper_baseline(BENCH_TASKLETS);
    let mut out = Vec::new();
    for name in CHANNEL_WORKLOADS {
        let w = workload_by_name(name).expect("channel workload exists");
        let mut blocking_wall = 0.0f64;
        for mode in [ChannelMode::Blocking, ChannelMode::Broadcast, ChannelMode::Overlapped] {
            let rc = RunConfig::multi(CHANNEL_DPUS, cfg.clone()).with_channel(mode);
            let run = w.run(size, &rc)?;
            let wall = run.timeline.wall_ns();
            if mode == ChannelMode::Blocking {
                blocking_wall = wall;
            }
            out.push(ChannelMeasurement {
                workload: name.to_string(),
                channel: mode.label(),
                tasklets: BENCH_TASKLETS,
                n_dpus: CHANNEL_DPUS,
                wall_ns: wall,
                blocking_wall_ns: blocking_wall,
            });
        }
    }
    Ok(out)
}

/// Options of `pimsim bench`.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Dataset size (default single; `--quick` forces tiny).
    pub size: DatasetSize,
    /// Wall-time repetitions per workload (median is reported).
    pub reps: usize,
    /// Where the JSON document is written.
    pub out: PathBuf,
    /// Print the JSON document instead of the table.
    pub json_stdout: bool,
    /// A previous `BENCH.json` to compare instrs/sec against.
    pub baseline: Option<PathBuf>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            size: DatasetSize::SingleDpu,
            reps: 3,
            out: PathBuf::from("BENCH.json"),
            json_stdout: false,
            baseline: None,
        }
    }
}

impl BenchOptions {
    /// Parses the `pimsim bench` flag set.
    ///
    /// # Errors
    ///
    /// Returns a usage message on an unknown flag or malformed value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = BenchOptions::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => {
                    o.size = DatasetSize::Tiny;
                    o.reps = 1;
                }
                "--size" => {
                    let v = it.next().ok_or("--size needs a value (tiny|single|multi)")?;
                    o.size = parse_size_value(v)?;
                }
                "--reps" => {
                    let v = it.next().ok_or("--reps needs a number")?;
                    let n: usize =
                        v.parse().map_err(|_| format!("--reps: `{v}` is not a number"))?;
                    if n == 0 {
                        return Err("--reps must be at least 1".to_string());
                    }
                    o.reps = n;
                }
                "--out" => o.out = PathBuf::from(it.next().ok_or("--out needs a file path")?),
                "--json" => o.json_stdout = true,
                "--baseline" => {
                    o.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a file")?));
                }
                other => {
                    return Err(format!(
                        "unknown flag `{other}` (expected \
                         --quick/--size/--reps/--out/--json/--baseline)"
                    ))
                }
            }
        }
        Ok(o)
    }
}

/// Runs the full suite (16 dense PrIM kernels + 4 extension kernels + 2
/// synthetics) and returns the measurements in suite order.
///
/// # Errors
///
/// Propagates the first simulation fault.
pub fn run_suite(size: DatasetSize, reps: usize) -> Result<Vec<Measurement>, SimError> {
    let cfg = DpuConfig::paper_baseline(BENCH_TASKLETS);
    let mut out = Vec::new();
    for w in extended_workloads() {
        out.push(measure_prim(w.name(), size, &cfg, reps)?);
    }
    for s in [Synthetic::DmaHeavy, Synthetic::BarrierHeavy] {
        out.push(measure_synthetic(s, size, &cfg, reps)?);
    }
    Ok(out)
}

/// Renders the `BENCH.json` document.
#[must_use]
pub fn bench_json(
    size: DatasetSize,
    reps: usize,
    rows: &[Measurement],
    channels: &[ChannelMeasurement],
    rank: &RankMeasurement,
) -> Json {
    Json::obj([
        ("schema", Json::from(BENCH_SCHEMA)),
        ("size", Json::from(size_label(size))),
        ("reps", Json::UInt(reps as u64)),
        (
            "workloads",
            Json::Arr(
                rows.iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name.as_str())),
                            ("kind", Json::from(m.kind)),
                            ("tasklets", Json::from(m.tasklets)),
                            ("instructions", Json::UInt(m.instructions)),
                            ("cycles", Json::UInt(m.cycles)),
                            ("wall_seconds", Json::from(m.wall_seconds)),
                            ("wall_seconds_fast", Json::from(m.wall_seconds_fast)),
                            ("kilo_cycles_per_sec", Json::from(m.kilo_cycles_per_sec())),
                            ("instrs_per_sec", Json::from(m.instrs_per_sec())),
                            ("instrs_per_sec_fast", Json::from(m.instrs_per_sec_fast())),
                            ("compiled_speedup", Json::from(m.compiled_speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "channels",
            Json::Arr(
                channels
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("workload", Json::from(c.workload.as_str())),
                            ("channel", Json::from(c.channel)),
                            ("tasklets", Json::from(c.tasklets)),
                            ("n_dpus", Json::from(c.n_dpus)),
                            ("wall_ns", Json::from(c.wall_ns)),
                            ("speedup_vs_blocking", Json::from(c.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rank",
            Json::obj([
                ("dpus", Json::from(rank.dpus)),
                ("batch_dpus", Json::from(rank.batch_dpus)),
                ("tasklets", Json::from(rank.tasklets)),
                ("instructions", Json::UInt(rank.instructions)),
                ("cycles", Json::UInt(rank.cycles)),
                ("wall_seconds_batched", Json::from(rank.wall_seconds_batched)),
                ("wall_seconds_per_dpu", Json::from(rank.wall_seconds_per_dpu)),
                ("dpu_steps_per_sec_batched", Json::from(rank.dpu_steps_per_sec_batched())),
                ("dpu_steps_per_sec_per_dpu", Json::from(rank.dpu_steps_per_sec_per_dpu())),
                ("speedup", Json::from(rank.speedup())),
            ]),
        ),
    ])
}

/// Validates a parsed `BENCH.json` document against the schema `pimsim
/// bench` writes (used by the CI smoke step and by `--baseline` loading).
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_bench_json(doc: &Json) -> Result<(), String> {
    let Json::Obj(top) = doc else {
        return Err("top level must be an object".to_string());
    };
    let field = |name: &str| -> Result<&Json, String> {
        top.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing top-level field `{name}`"))
    };
    match field("schema")? {
        Json::Str(s) if s == BENCH_SCHEMA => {}
        other => return Err(format!("schema must be \"{BENCH_SCHEMA}\", got {}", other.render())),
    }
    if !matches!(field("size")?, Json::Str(_)) {
        return Err("`size` must be a string".to_string());
    }
    if !matches!(field("reps")?, Json::UInt(r) if *r >= 1) {
        return Err("`reps` must be a positive integer".to_string());
    }
    let Json::Arr(rows) = field("workloads")? else {
        return Err("`workloads` must be an array".to_string());
    };
    if rows.is_empty() {
        return Err("`workloads` must not be empty".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(pairs) = row else {
            return Err(format!("workloads[{i}] must be an object"));
        };
        let get = |name: &str| pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let Some(Json::Str(name)) = get("name") else {
            return Err(format!("workloads[{i}] needs a string `name`"));
        };
        for key in ["instructions", "cycles"] {
            match get(key) {
                Some(Json::UInt(v)) if *v > 0 => {}
                _ => return Err(format!("{name}: `{key}` must be a positive integer")),
            }
        }
        for key in [
            "wall_seconds",
            "wall_seconds_fast",
            "kilo_cycles_per_sec",
            "instrs_per_sec",
            "instrs_per_sec_fast",
            "compiled_speedup",
        ] {
            match get(key) {
                Some(Json::Num(v)) if v.is_finite() && *v > 0.0 => {}
                _ => return Err(format!("{name}: `{key}` must be a positive number")),
            }
        }
    }
    // The extension families are part of the measured suite: documents
    // written before they landed fail validation so CI catches a stale
    // `BENCH.json` (or a bench binary that silently dropped them).
    for required in ["SpMV-BSR", "ATTN"] {
        let present = rows.iter().any(|row| {
            matches!(row, Json::Obj(pairs)
                if pairs.iter().any(|(k, v)| k == "name" && matches!(v, Json::Str(s) if s == required)))
        });
        if !present {
            return Err(format!("`workloads` is missing the required `{required}` row"));
        }
    }
    // The channel rows are required and must cover every mode: a bench
    // binary that silently dropped the channel-model sweep (or a document
    // written before it landed) fails validation in the CI smoke step.
    let Json::Arr(channels) = field("channels")? else {
        return Err("`channels` must be an array".to_string());
    };
    if channels.is_empty() {
        return Err("`channels` must not be empty".to_string());
    }
    for (i, row) in channels.iter().enumerate() {
        let Json::Obj(pairs) = row else {
            return Err(format!("channels[{i}] must be an object"));
        };
        let get = |name: &str| pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        for key in ["workload", "channel"] {
            if !matches!(get(key), Some(Json::Str(_))) {
                return Err(format!("channels[{i}] needs a string `{key}`"));
            }
        }
        for key in ["wall_ns", "speedup_vs_blocking"] {
            match get(key) {
                Some(Json::Num(v)) if v.is_finite() && *v > 0.0 => {}
                _ => return Err(format!("channels[{i}]: `{key}` must be a positive number")),
            }
        }
    }
    for mode in ["blocking", "broadcast", "overlapped"] {
        let present = channels.iter().any(|row| {
            matches!(row, Json::Obj(pairs)
                if pairs.iter().any(|(k, v)| k == "channel" && matches!(v, Json::Str(s) if s == mode)))
        });
        if !present {
            return Err(format!("`channels` is missing `{mode}` rows"));
        }
    }
    // The `rank` entry (lockstep batch driver throughput) is required: the CI
    // bench smoke step fails on documents written without it.
    let Json::Obj(rank) = field("rank")? else {
        return Err("`rank` must be an object".to_string());
    };
    let get = |name: &str| rank.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    for key in ["dpus", "batch_dpus", "instructions", "cycles"] {
        match get(key) {
            Some(Json::UInt(v)) if *v > 0 => {}
            _ => return Err(format!("rank: `{key}` must be a positive integer")),
        }
    }
    for key in [
        "wall_seconds_batched",
        "wall_seconds_per_dpu",
        "dpu_steps_per_sec_batched",
        "dpu_steps_per_sec_per_dpu",
        "speedup",
    ] {
        match get(key) {
            Some(Json::Num(v)) if v.is_finite() && *v > 0.0 => {}
            _ => return Err(format!("rank: `{key}` must be a positive number")),
        }
    }
    Ok(())
}

/// Extracts `name → (instrs_per_sec, wall_seconds)` from a validated
/// `BENCH.json`.
fn instr_rates(doc: &Json) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    if let Json::Obj(top) = doc {
        if let Some((_, Json::Arr(rows))) = top.iter().find(|(k, _)| k == "workloads") {
            for row in rows {
                if let Json::Obj(pairs) = row {
                    let get = |name: &str| pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v);
                    if let (Some(Json::Str(name)), Some(Json::Num(ips)), Some(Json::Num(wall))) =
                        (get("name"), get("instrs_per_sec"), get("wall_seconds"))
                    {
                        out.push((name.clone(), *ips, *wall));
                    }
                }
            }
        }
    }
    out
}

/// The `--baseline` regression gate: every workload present in both runs
/// whose instrs/sec dropped more than [`MAX_REGRESSION`] against the
/// baseline, as human-readable violation lines. Rows measured under
/// [`MIN_REGRESSION_WALL`] seconds in either run are exempt — their wall
/// time is timer noise, not executor throughput.
#[must_use]
pub fn regression_failures(rows: &[Measurement], baseline: &Json) -> Vec<String> {
    let mut out = Vec::new();
    for (name, base_ips, base_wall) in instr_rates(baseline) {
        let Some(m) = rows.iter().find(|m| m.name == name) else {
            continue;
        };
        if m.wall_seconds < MIN_REGRESSION_WALL || base_wall < MIN_REGRESSION_WALL {
            continue;
        }
        let ips = m.instrs_per_sec();
        if ips < base_ips * (1.0 - MAX_REGRESSION) {
            out.push(format!(
                "{name}: {ips:.0} instrs/s is {:.1}% below the baseline's {base_ips:.0}",
                (1.0 - ips / base_ips) * 100.0
            ));
        }
    }
    out
}

/// Renders the human-readable table, with baseline speedups when given.
#[must_use]
pub fn bench_table(
    size: DatasetSize,
    reps: usize,
    rows: &[Measurement],
    channels: &[ChannelMeasurement],
    rank: &RankMeasurement,
    baseline: Option<&Json>,
) -> String {
    use std::fmt::Write as _;
    let base_rates = baseline.map(instr_rates);
    let mut text = format!("== pimsim bench ({} size, median of {reps}) ==\n", size_label(size));
    for m in rows {
        let _ = write!(
            text,
            "{:14} {:>12} instrs {:>12} cycles in {:>8.3}s = {:>10.1} Kcyc/s, {:>11.0} instrs/s \
             ({:.2}x vs fast)",
            m.name,
            m.instructions,
            m.cycles,
            m.wall_seconds,
            m.kilo_cycles_per_sec(),
            m.instrs_per_sec(),
            m.compiled_speedup()
        );
        if let Some(rates) = &base_rates {
            if let Some((_, old, _)) = rates.iter().find(|(n, _, _)| *n == m.name) {
                let _ = write!(text, "  ({:.2}x vs baseline)", m.instrs_per_sec() / old);
            }
        }
        text.push('\n');
    }
    for c in channels {
        let _ = writeln!(
            text,
            "CHANNEL {:6} {:>10} @ {} tasklets x {} DPUs: simulated {:>10.3} ms ({:.2}x vs \
             blocking)",
            c.workload,
            c.channel,
            c.tasklets,
            c.n_dpus,
            c.wall_ns / 1e6,
            c.speedup()
        );
    }
    let _ = writeln!(
        text,
        "RANK           {} DPUs (batch {}): batched {:>8.2} M DPU-steps/s vs per-DPU {:>8.2} M \
         ({:.2}x)",
        rank.dpus,
        rank.batch_dpus,
        rank.dpu_steps_per_sec_batched() / 1e6,
        rank.dpu_steps_per_sec_per_dpu() / 1e6,
        rank.speedup()
    );
    text
}

/// `pimsim bench`: runs the suite, prints the table (or JSON), writes and
/// re-validates the `BENCH.json` document.
#[must_use]
pub fn run_bench_with_args(args: &[String]) -> ExitCode {
    let opts = match BenchOptions::parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: pimsim bench [--quick] [--size tiny|single|multi] [--reps K] [--out \
                 FILE] [--json] [--baseline FILE]"
            );
            return ExitCode::from(2);
        }
    };
    let baseline = match &opts.baseline {
        None => None,
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|s| {
            let doc = Json::parse(&s)?;
            validate_bench_json(&doc)?;
            Ok(doc)
        }) {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!("pimsim bench: bad baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
    };
    let rows = match run_suite(opts.size, opts.reps) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pimsim bench: simulation fault: {e}");
            return ExitCode::FAILURE;
        }
    };
    let channels = match channel_rows(opts.size) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pimsim bench: channel sweep fault: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rank = match measure_rank(opts.size, opts.reps) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pimsim bench: rank synthetic fault: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = bench_json(opts.size, opts.reps, &rows, &channels, &rank);
    let pretty = doc.render_pretty();
    {
        use std::io::Write as _;
        let table = bench_table(opts.size, opts.reps, &rows, &channels, &rank, baseline.as_ref());
        let out = if opts.json_stdout { &pretty } else { &table };
        let _ = std::io::stdout().write_all(out.as_bytes());
    }
    if let Err(e) = crate::write_with_parents(&opts.out, &pretty) {
        eprintln!("pimsim bench: could not write {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    // Round-trip the file through the schema validator so CI catches a
    // malformed document at write time, not at first consumption.
    let check = std::fs::read_to_string(&opts.out)
        .map_err(|e| e.to_string())
        .and_then(|s| Json::parse(&s))
        .and_then(|d| validate_bench_json(&d));
    match check {
        Ok(()) => eprintln!("wrote {} (schema {BENCH_SCHEMA} OK)", opts.out.display()),
        Err(e) => {
            eprintln!("pimsim bench: {} failed schema validation: {e}", opts.out.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(base) = &baseline {
        let failures = regression_failures(&rows, base);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("pimsim bench: REGRESSION {f}");
            }
            eprintln!(
                "pimsim bench: {} workload(s) regressed more than {:.0}% vs the baseline",
                failures.len(),
                MAX_REGRESSION * 100.0
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "baseline check OK (no workload regressed more than {:.0}%)",
            MAX_REGRESSION * 100.0
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_quick_and_flags() {
        let args: Vec<String> =
            ["--quick", "--out", "x.json", "--reps", "5"].iter().map(|s| s.to_string()).collect();
        let o = BenchOptions::parse(&args).unwrap();
        assert_eq!(o.size, DatasetSize::Tiny);
        assert_eq!(o.reps, 5, "--reps after --quick overrides the quick rep count");
        assert_eq!(o.out, PathBuf::from("x.json"));
        assert!(BenchOptions::parse(&["--reps".to_string(), "0".to_string()]).is_err());
        assert!(BenchOptions::parse(&["--what".to_string()]).is_err());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert!((median(&mut [3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&mut [4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }

    fn example_rank() -> RankMeasurement {
        RankMeasurement {
            dpus: 128,
            batch_dpus: 64,
            tasklets: 8,
            instructions: 100_000,
            cycles: 200_000,
            wall_seconds_batched: 0.1,
            wall_seconds_per_dpu: 0.3,
        }
    }

    fn example_rows() -> Vec<Measurement> {
        ["VA", "SpMV-BSR", "ATTN"]
            .iter()
            .map(|name| Measurement {
                name: name.to_string(),
                kind: "prim",
                tasklets: 16,
                instructions: 1000,
                cycles: 2000,
                wall_seconds: 0.5,
                wall_seconds_fast: 0.75,
            })
            .collect()
    }

    fn example_channels() -> Vec<ChannelMeasurement> {
        ["blocking", "broadcast", "overlapped"]
            .iter()
            .map(|mode| ChannelMeasurement {
                workload: "VA".to_string(),
                channel: mode,
                tasklets: 16,
                n_dpus: 4,
                wall_ns: if *mode == "blocking" { 3000.0 } else { 2000.0 },
                blocking_wall_ns: 3000.0,
            })
            .collect()
    }

    #[test]
    fn regression_gate_flags_slowdowns_and_skips_noise() {
        let rows = example_rows();
        let baseline =
            bench_json(DatasetSize::Tiny, 1, &rows, &example_channels(), &example_rank());
        // Identical run: nothing regresses.
        assert!(regression_failures(&rows, &baseline).is_empty());
        // 2x slower on one workload: flagged by name.
        let mut slow = example_rows();
        slow[0].wall_seconds = 1.0;
        let failures = regression_failures(&slow, &baseline);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("VA"), "failure names the workload: {}", failures[0]);
        // Same slowdown under the noise floor: exempt.
        let mut noisy = example_rows();
        for m in &mut noisy {
            m.wall_seconds = MIN_REGRESSION_WALL / 10.0;
        }
        let noisy_base =
            bench_json(DatasetSize::Tiny, 1, &noisy, &example_channels(), &example_rank());
        let mut noisy_slow = noisy.clone();
        noisy_slow[0].wall_seconds *= 2.0;
        assert!(regression_failures(&noisy_slow, &noisy_base).is_empty());
    }

    #[test]
    fn bench_json_round_trips_and_validates() {
        let doc =
            bench_json(DatasetSize::Tiny, 1, &example_rows(), &example_channels(), &example_rank());
        validate_bench_json(&doc).unwrap();
        let reparsed = Json::parse(&doc.render_pretty()).unwrap();
        validate_bench_json(&reparsed).unwrap();
    }

    #[test]
    fn validator_requires_the_extension_rows() {
        let dense_only: Vec<Measurement> =
            example_rows().into_iter().filter(|m| m.name == "VA").collect();
        let doc =
            bench_json(DatasetSize::Tiny, 1, &dense_only, &example_channels(), &example_rank());
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("SpMV-BSR"), "error names the missing row: {err}");
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_bench_json(&Json::Arr(vec![])).is_err());
        let no_rows = Json::obj([
            ("schema", Json::from(BENCH_SCHEMA)),
            ("size", Json::from("tiny")),
            ("reps", Json::UInt(1)),
            ("workloads", Json::Arr(vec![])),
        ]);
        assert!(validate_bench_json(&no_rows).is_err());
        let bad_schema = Json::obj([
            ("schema", Json::from("nope")),
            ("size", Json::from("tiny")),
            ("reps", Json::UInt(1)),
            ("workloads", Json::Arr(vec![Json::obj([("name", Json::from("VA"))])])),
        ]);
        assert!(validate_bench_json(&bad_schema).is_err());
    }

    #[test]
    fn validator_requires_the_rank_entry() {
        let Json::Obj(pairs) =
            bench_json(DatasetSize::Tiny, 1, &example_rows(), &example_channels(), &example_rank())
        else {
            panic!("bench_json renders an object");
        };
        let without_rank = Json::Obj(pairs.into_iter().filter(|(k, _)| k != "rank").collect());
        let err = validate_bench_json(&without_rank).unwrap_err();
        assert!(err.contains("rank"), "error names the missing entry: {err}");
    }

    #[test]
    fn rank_synthetic_measures_identical_simulated_work() {
        let m = measure_rank(DatasetSize::Tiny, 1).unwrap();
        assert_eq!(m.dpus, 128);
        assert!(m.instructions > 0 && m.cycles > 0);
        assert!(m.wall_seconds_batched > 0.0 && m.wall_seconds_per_dpu > 0.0);
    }

    #[test]
    fn synthetics_are_deterministic_and_measurable() {
        let cfg = DpuConfig::paper_baseline(4);
        for s in [Synthetic::DmaHeavy, Synthetic::BarrierHeavy] {
            let m = measure_synthetic(s, DatasetSize::Tiny, &cfg, 2).unwrap();
            assert!(m.instructions > 0 && m.cycles > 0, "{} ran", s.name());
            assert!(m.wall_seconds > 0.0);
        }
    }
}
