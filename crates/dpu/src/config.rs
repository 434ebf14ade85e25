//! DPU configuration: the baseline microarchitecture of Table I plus every
//! extension knob used by the paper's case studies.

use pim_dram::DramConfig;

/// Maximum hardware tasklets per DPU.
pub const MAX_TASKLETS: u32 = 24;

/// Revolver scheduling constraint: minimum cycles between consecutive
/// dispatches of the same tasklet (Table I: 11). A property of the
/// pipeline, not a knob; data forwarding (`D`) replaces it.
pub const REVOLVER_CYCLES: u32 = 11;

/// Cycles after issue at which an ALU result can be forwarded (effective
/// only with [`IlpFeatures::data_forwarding`]).
pub const FORWARD_ALU_LATENCY: u32 = 3;

/// Cycles after issue at which a WRAM load result can be forwarded
/// (effective only with [`IlpFeatures::data_forwarding`]).
pub const FORWARD_LOAD_LATENCY: u32 = 4;

/// Peak DMA-interface throughput in bytes per core cycle (Table I: 2.0).
///
/// The engine interface — not the DRAM bank — is what limits MRAM-to-WRAM
/// bandwidth (§V-B notes bank-level bandwidth is much higher; the interface
/// is "simply a design point pursued by UPMEM-PIM architects"). 2.0
/// B/cycle at 350 MHz is the 700 MB/s theoretical maximum, and the model
/// reaches it: a stream of sequential 2 KB `ldma`s achieves 700 MB/s with
/// two or more tasklets, whose transfers hide each other's setup and bank
/// latency, and 652 MB/s with one. Bank timing is hidden behind the
/// interface, so the ≈600 MB/s that prior work measured on real hardware
/// (Fig 5 caption) is not reproduced (ROADMAP, "Make the MRAM path reach
/// the bandwidth its docs claim").
pub const DMA_INTERFACE_BYTES_PER_CYCLE: f64 = 2.0;

/// Fixed per-request DMA-engine setup latency in core cycles. Makes small
/// DMA transfers proportionally expensive, as on the real device.
pub const DMA_SETUP_CYCLES: u32 = 24;

/// Window, in cycles, of the TLP-over-time trace (paper Fig 8: 10,000).
pub const TLP_WINDOW: u64 = 10_000;

/// SIMT vector width: tasklets grouped per warp (paper §V-A: 16).
pub const WARP_WIDTH: u32 = 16;

/// Scratchpad bank groups available to the SIMT vector unit: with the
/// coalescer, a warp's loads/stores to `k` distinct 64 B segments occupy
/// `ceil(k / SIMT_WRAM_PORTS)` port slots (a vector design point
/// provisions banked WRAM bandwidth); without it every lane's access
/// serializes individually.
pub const SIMT_WRAM_PORTS: u32 = 4;

/// ILP-enhancing microarchitecture features (paper §V-B, Fig 12).
///
/// The features are *additive* in the paper's ablation:
/// `Base → +D → +D+R → +D+R+S → +D+R+S+F`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IlpFeatures {
    /// **D** — data forwarding: replaces the revolver gap with true
    /// dependence checking. Independent same-tasklet instructions may
    /// dispatch back-to-back; dependent ones wait for the producer's
    /// forwarding point, [`FORWARD_ALU_LATENCY`] or
    /// [`FORWARD_LOAD_LATENCY`] cycles after its issue.
    pub data_forwarding: bool,
    /// **R** — unified register file with doubled read bandwidth: removes
    /// the even/odd structural hazard.
    pub unified_rf: bool,
    /// **S** — 2-way superscalar in-order issue (from distinct tasklets).
    pub superscalar: bool,
    /// **F** — doubles the core frequency to 700 MHz.
    pub double_frequency: bool,
}

impl IlpFeatures {
    /// All features enabled (`D+R+S+F`).
    #[must_use]
    pub fn all() -> Self {
        IlpFeatures {
            data_forwarding: true,
            unified_rf: true,
            superscalar: true,
            double_frequency: true,
        }
    }

    /// A short label such as `"Base+DRS"` for reports.
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = String::from("Base");
        let tags = [
            (self.data_forwarding, 'D'),
            (self.unified_rf, 'R'),
            (self.superscalar, 'S'),
            (self.double_frequency, 'F'),
        ];
        if tags.iter().any(|(on, _)| *on) {
            s.push('+');
            for (on, c) in tags {
                if on {
                    s.push(c);
                }
            }
        }
        s
    }
}

/// SIMT vector-processing extension (paper §V-A, Fig 11): warps of
/// [`WARP_WIDTH`] lanes over [`SIMT_WRAM_PORTS`] scratchpad bank groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimtConfig {
    /// Enable the memory address coalescer (`+AC`), merging the grouped
    /// scalar accesses that fall in the same burst/stream into fewer memory
    /// transactions.
    pub coalescing: bool,
}

/// How loads/stores are backed (paper §V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryMode {
    /// The baseline **scratchpad-centric** model: loads/stores address the
    /// 64 KB WRAM; MRAM is reached only through DMA.
    Scratchpad,
    /// The **cache-centric** model: loads/stores address a flat,
    /// DRAM-backed space through an on-demand data cache; instruction
    /// fetch goes through an instruction cache; DMA instructions are
    /// rejected (programs are authored for the flat space). Both caches
    /// have the paper's geometry, [`pim_cache::CacheConfig::paper_icache`]
    /// (24 KB, 8-way) and [`pim_cache::CacheConfig::paper_dcache`]
    /// (64 KB, 8-way).
    Cached,
}

/// Which executor runs a launch, scalar or SIMT (the SIMT front-end is an
/// issue policy of both cycle loops). All tiers produce byte-identical
/// simulated statistics by construction — the tier is purely a
/// simulator-speed switch, pinned by the differential suites and the
/// pim-fuzz gauntlet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// The reference per-cycle loop: re-derives every scheduling fact from
    /// the [`pim_isa::Instruction`] enum each cycle, advances the memory
    /// engine every iteration. Slow; exists so the other tiers have a
    /// simple executor to be differentially tested against. Under SIMT it
    /// issues warps through the same front-end step as the engine.
    Naive,
    /// The issue engine (pre-extracted scheduling facts, event-driven
    /// tasklet wakeup, allocation-free steady state) executing each
    /// instruction through the interpreter's `Instruction` match.
    Fast,
    /// The issue engine with compiled dispatch (the default): the program
    /// is lowered once per load into a per-instruction table of
    /// monomorphic op functions with pre-extracted operands, so the
    /// steady state dispatches with one indexed load and one indirect
    /// call — no `Instruction` match, no per-launch re-decode.
    Compiled,
}

/// A seeded bug for the fuzzer's self-check (`pimsim fuzz --mutate`): a
/// conformance fuzzer is only trustworthy if it demonstrably catches the
/// class of bug it exists for. The bug is part of the launch's
/// configuration ([`DpuConfig::mutant`], `None` everywhere else), and each
/// hook reads it once per launch, outside the hot loops, so a
/// configuration without one simulates exactly as if the hooks were
/// absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The issue engine drops the even/odd register-file structural hazard:
    /// the optimized loops treat every instruction's hazard cost as zero,
    /// as if the bank conflict check were lost in the pre-decode refactor,
    /// and under-count issue slots for same-bank source pairs. Any program
    /// with an RF hazard diverges from the naive reference loop in cycle
    /// counts and stall attribution.
    Scoreboard,
    /// A lockstep follower accepts any logged instruction on which it or
    /// the leader jumped without comparing the two effects, so a member
    /// whose branch goes the other way stays on the leader's schedule
    /// instead of leaving it: only a batch whose members take different
    /// paths shows it.
    Replay,
    /// A timing bug in the memory path: the memory engine's due cycle for
    /// a request in transfer counts its last burst's interface occupancy
    /// twice, so a loop that hops to the due cycle wakes the tasklet late.
    /// The naive loop visits every cycle while another tasklet issues and
    /// the engine does not, so any program with one tasklet in a DMA
    /// beside one computing diverges in cycle counts. (A debug build's
    /// on-time check at the loops' drain sites stands down in an engine
    /// with this bug, so the fuzzer and not the assertion reports it.)
    Due,
}

impl Mutant {
    /// Every seeded bug, in self-check order.
    pub const ALL: [Mutant; 3] = [Mutant::Scoreboard, Mutant::Replay, Mutant::Due];

    /// Lower-case name, as reports print it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Mutant::Scoreboard => "scoreboard",
            Mutant::Replay => "replay",
            Mutant::Due => "due",
        }
    }
}

/// Full configuration of one simulated DPU (paper Table I defaults).
///
/// Timing and memory geometry are Table I's and live as constants
/// (here and in [`pim_isa::layout`]), so every DPU holds the full 64 MB
/// MRAM bank; these fields are the case studies' design choices and the
/// simulator's own switches.
#[derive(Debug, Clone, PartialEq)]
pub struct DpuConfig {
    /// Number of tasklets launched.
    pub n_tasklets: u32,
    /// ILP feature set (all off for the baseline).
    pub ilp: IlpFeatures,
    /// SIMT extension; `None` for the baseline scalar pipeline.
    pub simt: Option<SimtConfig>,
    /// Scratchpad-centric (baseline) or cache-centric memory model.
    pub memory_mode: MemoryMode,
    /// The paper's MMU ([`pim_mmu::MmuConfig::paper`]) in front of MRAM
    /// (DMA) accesses; `false` for the MMU-less baseline.
    pub mmu: bool,
    /// MRAM-bandwidth scaling factor (Fig 13's ×1–×4, Fig 11's 4×/16×):
    /// multiplies both the DRAM frequency and the DMA interface rate.
    pub mram_bw_scale: f64,
    /// Abort the simulation after this many core cycles (guards against
    /// deadlocked kernels).
    pub max_cycles: u64,
    /// Capacity of the structured event ring buffer (`pim-trace`): the DPU
    /// retains the most recent N [`pim_trace::TraceEvent`]s of a launch,
    /// readable through [`crate::Dpu::take_trace`]. 0 (the default) keeps
    /// the hot path on the zero-cost `NullSink`.
    pub event_trace_capacity: usize,
    /// Replay every launch through the `pim-ref` functional oracle and
    /// fail with [`crate::SimError::OracleDivergence`] if the final
    /// WRAM/MRAM state differs (differential testing; scratchpad-centric
    /// runs only — the oracle does not model the flat cached space).
    pub oracle_check: bool,
    /// Which executor runs launches, SIMT ones included (see
    /// [`ExecTier`]). Defaults to [`ExecTier::Compiled`]; simulated counts
    /// are byte-identical across tiers.
    pub exec_tier: ExecTier,
    /// The seeded bug this launch runs with (see [`Mutant`]); `None`, the
    /// default, outside the fuzzer's self-check.
    pub mutant: Option<Mutant>,
}

impl DpuConfig {
    /// The paper's baseline UPMEM-PIM configuration (Table I) with
    /// `n_tasklets` tasklets.
    #[must_use]
    pub fn paper_baseline(n_tasklets: u32) -> Self {
        assert!(
            (1..=MAX_TASKLETS).contains(&n_tasklets),
            "n_tasklets must be in 1..={MAX_TASKLETS}"
        );
        DpuConfig {
            n_tasklets,
            ilp: IlpFeatures::default(),
            simt: None,
            memory_mode: MemoryMode::Scratchpad,
            mmu: false,
            mram_bw_scale: 1.0,
            max_cycles: 20_000_000_000,
            event_trace_capacity: 0,
            oracle_check: false,
            exec_tier: ExecTier::Compiled,
            mutant: None,
        }
    }

    /// Selects the executor tier (see [`ExecTier`]).
    /// [`ExecTier::Naive`] is the one way to ask for the reference loop.
    #[must_use]
    pub fn with_exec_tier(mut self, tier: ExecTier) -> Self {
        self.exec_tier = tier;
        self
    }

    /// Enables structured event tracing with a ring of `capacity` events.
    #[must_use]
    pub fn with_event_trace(mut self, capacity: usize) -> Self {
        self.event_trace_capacity = capacity;
        self
    }

    /// Enables the per-launch functional-oracle divergence check.
    #[must_use]
    pub fn with_oracle_check(mut self) -> Self {
        self.oracle_check = true;
        self
    }

    /// Applies an ILP feature set; its `F` doubles [`DpuConfig::freq_mhz`].
    #[must_use]
    pub fn with_ilp(mut self, ilp: IlpFeatures) -> Self {
        self.ilp = ilp;
        self
    }

    /// Enables the SIMT vector front-end.
    #[must_use]
    pub fn with_simt(mut self, simt: SimtConfig) -> Self {
        self.simt = Some(simt);
        self
    }

    /// Switches to the cache-centric memory model with the paper's §V-D
    /// cache geometries.
    #[must_use]
    pub fn with_paper_caches(mut self) -> Self {
        self.memory_mode = MemoryMode::Cached;
        self
    }

    /// Adds the paper's §V-C MMU in front of MRAM accesses.
    #[must_use]
    pub fn with_paper_mmu(mut self) -> Self {
        self.mmu = true;
        self
    }

    /// Scales MRAM bandwidth by `factor` (DRAM frequency and DMA interface
    /// together), the knob of Fig 11's `+4x/16x` and Fig 13's `×1–×4`.
    #[must_use]
    pub fn with_mram_bw_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "bandwidth scale must be positive");
        self.mram_bw_scale = factor;
        self
    }

    /// Core frequency in MHz: Table I's 350, or 700 with the `F` feature.
    #[must_use]
    pub fn freq_mhz(&self) -> u32 {
        if self.ilp.double_frequency {
            700
        } else {
            350
        }
    }

    /// Issue width of the pipeline (2 with the `S` feature, 1 otherwise).
    #[must_use]
    pub(crate) fn issue_ways(&self) -> u32 {
        if self.ilp.superscalar {
            2
        } else {
            1
        }
    }

    /// Peak scalar-instruction throughput per cycle: the normalization
    /// denominator of the paper's compute-utilization plots (Fig 5: 1 for
    /// the baseline; Fig 11: 16 for SIMT designs).
    #[must_use]
    pub(crate) fn max_ipc(&self) -> u32 {
        if self.simt.is_some() {
            WARP_WIDTH
        } else {
            self.issue_ways()
        }
    }

    /// DRAM-clock cycles per core cycle after bandwidth scaling.
    #[must_use]
    pub(crate) fn dram_per_core_ratio(&self) -> f64 {
        (DramConfig::ddr4_2400().freq_mhz * self.mram_bw_scale) / f64::from(self.freq_mhz())
    }

    /// Effective DMA interface rate in bytes per core cycle after bandwidth
    /// scaling.
    #[must_use]
    pub(crate) fn interface_rate(&self) -> f64 {
        DMA_INTERFACE_BYTES_PER_CYCLE * self.mram_bw_scale
    }

    /// Validates internal consistency (e.g. SIMT requires the scratchpad
    /// memory model, tasklet count within hardware limits).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent combinations; construction helpers keep the
    /// configuration valid, so this only fires on hand-rolled configs.
    pub fn assert_valid(&self) {
        assert!(
            (1..=MAX_TASKLETS).contains(&self.n_tasklets),
            "n_tasklets must be in 1..={MAX_TASKLETS}"
        );
        if self.simt.is_some() {
            assert!(
                matches!(self.memory_mode, MemoryMode::Scratchpad),
                "the SIMT case study uses the scratchpad-centric memory model"
            );
        }
        if self.mmu {
            assert!(
                matches!(self.memory_mode, MemoryMode::Scratchpad),
                "the MMU case study applies to the baseline DMA path"
            );
        }
        assert!(self.mram_bw_scale > 0.0);
    }
}

impl Default for DpuConfig {
    fn default() -> Self {
        Self::paper_baseline(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::layout::{ATOMIC_BITS, IRAM_INSTRS, MRAM_BYTES, WRAM_BYTES};

    #[test]
    fn baseline_matches_table_i() {
        let c = DpuConfig::paper_baseline(16);
        assert_eq!(c.freq_mhz(), 350);
        assert_eq!((REVOLVER_CYCLES, FORWARD_ALU_LATENCY, FORWARD_LOAD_LATENCY), (11, 3, 4));
        assert_eq!((DMA_INTERFACE_BYTES_PER_CYCLE, DMA_SETUP_CYCLES), (2.0, 24));
        assert_eq!((TLP_WINDOW, WARP_WIDTH, SIMT_WRAM_PORTS), (10_000, 16, 4));
        assert_eq!(
            (IRAM_INSTRS, WRAM_BYTES, MRAM_BYTES, ATOMIC_BITS),
            (4096, 64 * 1024, 64 * 1024 * 1024, 256)
        );
        assert_eq!(c.max_ipc(), 1);
        c.assert_valid();
    }

    #[test]
    fn ilp_labels() {
        assert_eq!(IlpFeatures::default().label(), "Base");
        assert_eq!(IlpFeatures::all().label(), "Base+DRSF");
        let d = IlpFeatures { data_forwarding: true, ..IlpFeatures::default() };
        assert_eq!(d.label(), "Base+D");
    }

    #[test]
    fn f_feature_doubles_frequency() {
        let c = DpuConfig::paper_baseline(16).with_ilp(IlpFeatures::all());
        assert_eq!(c.freq_mhz(), 700);
        assert_eq!(c.issue_ways(), 2);
        // Memory becomes relatively slower: fewer DRAM cycles per core cycle.
        assert!(c.dram_per_core_ratio() < DpuConfig::paper_baseline(16).dram_per_core_ratio());
    }

    #[test]
    fn simt_max_ipc_is_warp_width() {
        let c = DpuConfig::paper_baseline(16).with_simt(SimtConfig::default());
        assert_eq!(c.max_ipc(), 16);
        c.assert_valid();
    }

    #[test]
    fn bandwidth_scaling_raises_ratio_and_interface() {
        let base = DpuConfig::paper_baseline(16);
        let fast = base.clone().with_mram_bw_scale(4.0);
        assert!((fast.dram_per_core_ratio() - 4.0 * base.dram_per_core_ratio()).abs() < 1e-9);
        assert!((fast.interface_rate() - 4.0 * base.interface_rate()).abs() < 1e-9);
    }

    #[test]
    fn default_interface_rate_is_700_mbps() {
        let c = DpuConfig::paper_baseline(16);
        // 2 B/cycle × 350 MHz = 700 MB/s.
        let mbps = c.interface_rate() * f64::from(c.freq_mhz());
        assert!((mbps - 700.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scratchpad-centric")]
    fn simt_with_caches_is_invalid() {
        let c = DpuConfig::paper_baseline(16).with_paper_caches().with_simt(SimtConfig::default());
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "n_tasklets")]
    fn zero_tasklets_invalid() {
        let _ = DpuConfig::paper_baseline(0);
    }
}
