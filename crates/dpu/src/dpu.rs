//! The simulated DPU: program/data loading, launch, and the reference
//! cycle loop ([`ExecTier::Naive`]). A launch runs on that loop or on the
//! issue engine (`crate::sched`), and a SIMT configuration is an issue
//! policy of both (`crate::simt`), not a loop of its own.

use std::sync::Arc;

use pim_asm::DpuProgram;
use pim_cache::{Cache, CacheConfig};
use pim_dram::DramConfig;
use pim_isa::layout::{IRAM_INSTRS, MRAM_BYTES, WRAM_BYTES};
use pim_isa::{AddressSpace, Instruction};
use pim_mmu::{Mmu, MmuConfig, PageTable};
use pim_trace::{DpuTrace, NullSink, RingSink, StallCause, TraceEvent, TraceSink};

use crate::compiled::CompiledKernel;
use crate::config::{
    DpuConfig, ExecTier, MemoryMode, Mutant, DMA_SETUP_CYCLES, FORWARD_ALU_LATENCY,
    FORWARD_LOAD_LATENCY, REVOLVER_CYCLES, TLP_WINDOW,
};
use crate::error::SimError;
use crate::exec::{ArchState, Effect};
use crate::mem::{MemEngine, Segment};
use crate::sched::{CompiledDispatch, Dispatch, Engine, FastDispatch};
use crate::simt::{bits, Warps};
use crate::stats::DpuRunStats;

/// The MRAM address backing the instruction stream in cache-centric mode
/// (timing only; 256 KB below the top of the bank).
pub(crate) const IRAM_BACKING_BASE: u32 = MRAM_BYTES - 256 * 1024;

/// Execution status of one tasklet (or SIMT lane) in the reference loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskletStatus {
    /// Schedulable (possibly gated by the revolver window or a dependence).
    Ready,
    /// Waiting on the memory engine (DMA, cache fill, instruction fill).
    Blocked,
    /// Executed `stop`.
    Stopped,
}

/// A single simulated DPU.
///
/// Typical host-side flow (mirroring the UPMEM host API the paper shows in
/// Fig 2): construct, [`Dpu::load_program`], stage inputs with
/// [`Dpu::write_mram`] / [`Dpu::write_wram_symbol`], [`Dpu::launch`], then
/// read results back with [`Dpu::read_mram`].
///
/// # Example
///
/// ```
/// use pim_asm::assemble;
/// use pim_dpu::{Dpu, DpuConfig};
///
/// let program = assemble(
///     ".text\n movi r0, 41\n add r0, r0, 1\n stop\n",
/// ).unwrap();
/// let mut dpu = Dpu::new(DpuConfig::paper_baseline(1));
/// dpu.load_program(&program).unwrap();
/// let stats = dpu.launch().unwrap();
/// assert_eq!(stats.instructions, 3);
/// ```
#[derive(Debug)]
pub struct Dpu {
    pub(crate) cfg: DpuConfig,
    pub(crate) program: Option<Arc<DpuProgram>>,
    pub(crate) state: ArchState,
    /// Per-tasklet entry instruction index (multi-tenant co-location).
    pub(crate) entry: Vec<u32>,
    /// Per-tasklet tasklet-id rebase (multi-tenant co-location).
    pub(crate) tid_base: Vec<u32>,
    /// Structured event ring, present when `cfg.event_trace_capacity > 0`.
    trace: Option<RingSink>,
    /// Launch-time artifacts (the block-compiled op table), built on first
    /// use after [`Dpu::load_program`] and reused across every relaunch of
    /// the same program. Shared with the issue engine (and its lockstep
    /// clones) through the `Arc`.
    kernel_cache: Option<Arc<CompiledKernel>>,
}

impl Dpu {
    /// Creates a DPU with zeroed memories.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (see
    /// [`DpuConfig::assert_valid`]).
    #[must_use]
    pub fn new(cfg: DpuConfig) -> Self {
        cfg.assert_valid();
        let state = ArchState::new(cfg.n_tasklets);
        let trace = (cfg.event_trace_capacity > 0).then(|| RingSink::new(cfg.event_trace_capacity));
        Dpu {
            cfg,
            program: None,
            state,
            entry: Vec::new(),
            tid_base: Vec::new(),
            trace,
            kernel_cache: None,
        }
    }

    /// Takes the structured events retained by the last launch, or `None`
    /// when event tracing is disabled (`event_trace_capacity == 0`).
    pub fn take_trace(&mut self) -> Option<DpuTrace> {
        self.trace.as_mut().map(RingSink::take)
    }

    /// The DPU's configuration.
    #[must_use]
    pub fn config(&self) -> &DpuConfig {
        &self.cfg
    }

    /// Loads a program: instructions into IRAM and the initial data image
    /// into WRAM (or, in cache-centric mode, into the flat data space).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the instruction stream exceeds
    /// IRAM or the data image does not fit the load/store-addressable space.
    pub fn load_program(&mut self, program: &DpuProgram) -> Result<(), SimError> {
        self.load_shared_program(&Arc::new(program.clone()))
    }

    /// [`Dpu::load_program`] without a copy of its own: every DPU loaded
    /// from the same `Arc` shares one image of the program, as the DPUs of
    /// a rank share the one binary the host loads into them.
    ///
    /// # Errors
    ///
    /// As [`Dpu::load_program`].
    pub fn load_shared_program(&mut self, program: &Arc<DpuProgram>) -> Result<(), SimError> {
        let cached = self.cfg.memory_mode == MemoryMode::Cached;
        if !cached && program.instrs.len() as u32 > IRAM_INSTRS {
            // The hardware linker would refuse this; hand-built programs
            // can reach here without passing `DpuProgram::validate`. The
            // cache-centric model is exempt: its I-cache turns IRAM into a
            // cache over MRAM-resident text.
            return Err(SimError::OutOfBounds {
                space: AddressSpace::Iram,
                addr: 0,
                len: program.iram_bytes(),
                tasklet: 0,
                pc: 0,
            });
        }
        if cached {
            // The flat space grows to cover the image.
            self.ensure_flat_space(program.wram_bytes().max(WRAM_BYTES));
        }
        let base = program.wram_base as usize;
        let end = base + program.wram_init.len();
        if end > self.state.wram().len() {
            return Err(SimError::OutOfBounds {
                space: AddressSpace::Wram,
                addr: program.wram_base,
                len: program.wram_init.len() as u32,
                tasklet: 0,
                pc: 0,
            });
        }
        self.state.wram_mut()[base..end].copy_from_slice(&program.wram_init);
        self.program = Some(Arc::clone(program));
        self.entry.clear();
        self.tid_base.clear();
        self.kernel_cache = None;
        Ok(())
    }

    /// The launch-time artifacts for the loaded program — the
    /// block-compiled op table — building them on first use and reusing
    /// the cached `Arc` on every relaunch (chained multi-launch kernels
    /// compile once per [`Dpu::load_program`], not once per launch).
    ///
    /// # Panics
    ///
    /// Panics if no program is loaded (callers check).
    pub(crate) fn kernel_artifacts(&mut self) -> Arc<CompiledKernel> {
        if let Some(k) = &self.kernel_cache {
            return Arc::clone(k);
        }
        let program = self.program.as_ref().expect("program loaded");
        let k = Arc::new(CompiledKernel::compile(&program.instrs));
        self.kernel_cache = Some(Arc::clone(&k));
        k
    }

    /// Loads a merged multi-tenant image (paper §V-C): each tasklet starts
    /// at its tenant's entry point and observes tenant-local tasklet ids.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the merged data image does not
    /// fit the load/store space.
    ///
    /// # Panics
    ///
    /// Panics if the co-location's tasklet count differs from this DPU's
    /// configured `n_tasklets`.
    pub fn load_colocated(
        &mut self,
        colocated: &crate::tenancy::Colocated,
    ) -> Result<(), SimError> {
        assert_eq!(
            colocated.n_tasklets(),
            self.cfg.n_tasklets,
            "co-location tasklet count must match the DPU configuration"
        );
        self.load_program(&colocated.program)?;
        self.entry = colocated.entry.clone();
        self.tid_base = colocated.tid_base.clone();
        Ok(())
    }

    /// Grows the flat load/store space (cache-centric mode) to at least
    /// `bytes`, rounded up to a cache line.
    pub(crate) fn ensure_flat_space(&mut self, bytes: u32) {
        self.state.grow_wram(bytes.div_ceil(64) as usize * 64);
    }

    /// The `len` bytes of MRAM at `addr`, borrowed where they lie.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds MRAM.
    #[must_use]
    pub fn mram_window(&self, addr: u32, len: u32) -> &[u8] {
        let a = addr as usize;
        &self.state.mram()[a..a + len as usize]
    }

    /// The `len` bytes of MRAM at `addr`, borrowed mutably where they lie:
    /// the host writes a transfer straight into the bank.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds MRAM.
    pub fn mram_window_mut(&mut self, addr: u32, len: u32) -> &mut [u8] {
        let a = addr as usize;
        &mut self.state.mram_mut()[a..a + len as usize]
    }

    /// Copies bytes into MRAM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds MRAM.
    pub fn write_mram(&mut self, addr: u32, data: &[u8]) {
        self.mram_window_mut(addr, data.len() as u32).copy_from_slice(data);
    }

    /// Reads bytes from MRAM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds MRAM.
    #[must_use]
    pub fn read_mram(&self, addr: u32, len: u32) -> Vec<u8> {
        self.mram_window(addr, len).to_vec()
    }

    /// The `len` bytes of the load/store space at `addr`, borrowed where
    /// they lie.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn wram_window(&self, addr: u32, len: u32) -> &[u8] {
        let a = addr as usize;
        &self.state.wram()[a..a + len as usize]
    }

    /// The `len` bytes of the load/store space at `addr`, borrowed mutably
    /// where they lie (WRAM, or the flat space in cache-centric mode,
    /// grown to cover them).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds WRAM in scratchpad mode.
    pub fn wram_window_mut(&mut self, addr: u32, len: u32) -> &mut [u8] {
        if self.cfg.memory_mode == MemoryMode::Cached {
            self.ensure_flat_space(addr + len);
        }
        let a = addr as usize;
        &mut self.state.wram_mut()[a..a + len as usize]
    }

    /// Copies bytes into the load/store space (WRAM, or the flat space in
    /// cache-centric mode, growing it as needed).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds WRAM in scratchpad mode.
    pub fn write_wram(&mut self, addr: u32, data: &[u8]) {
        self.wram_window_mut(addr, data.len() as u32).copy_from_slice(data);
    }

    /// Reads bytes from the load/store space.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn read_wram(&self, addr: u32, len: u32) -> Vec<u8> {
        self.wram_window(addr, len).to_vec()
    }

    /// The loaded program's WRAM symbol `name`.
    ///
    /// # Panics
    ///
    /// Panics if no program is loaded or the symbol is unknown.
    fn symbol(&self, name: &str) -> pim_asm::Symbol {
        *self
            .program
            .as_ref()
            .expect("no program loaded")
            .symbol(name)
            .unwrap_or_else(|| panic!("unknown WRAM symbol `{name}`"))
    }

    /// Writes into a named WRAM symbol of the loaded program (the host-side
    /// `dpu_push_xfer(..., "symbol", ...)` of the SDK).
    ///
    /// # Panics
    ///
    /// Panics if no program is loaded, the symbol is unknown, or `data`
    /// exceeds the symbol's size.
    pub fn write_wram_symbol(&mut self, name: &str, data: &[u8]) {
        let sym = self.symbol(name);
        assert!(
            data.len() as u32 <= sym.size,
            "{} bytes exceed symbol `{name}` of {} bytes",
            data.len(),
            sym.size
        );
        self.write_wram(sym.addr, data);
    }

    /// A named WRAM symbol of the loaded program, borrowed where it lies.
    ///
    /// # Panics
    ///
    /// Panics if no program is loaded or the symbol is unknown.
    #[must_use]
    pub fn wram_symbol(&self, name: &str) -> &[u8] {
        let sym = self.symbol(name);
        self.wram_window(sym.addr, sym.size)
    }

    /// Reads a named WRAM symbol of the loaded program.
    ///
    /// # Panics
    ///
    /// Panics if no program is loaded or the symbol is unknown.
    #[must_use]
    pub fn read_wram_symbol(&self, name: &str) -> Vec<u8> {
        self.wram_symbol(name).to_vec()
    }

    /// Runs the loaded kernel to completion on `n_tasklets` tasklets and
    /// returns the run's statistics.
    ///
    /// Tasklet register files, PCs, and the atomic region are reset; WRAM
    /// and MRAM contents persist from before the launch (the host stages
    /// inputs there).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the kernel faults or exceeds the cycle
    /// limit.
    pub fn launch(&mut self) -> Result<DpuRunStats, SimError> {
        let Some(mut ring) = self.trace.take() else { return self.launch_with(&mut NullSink) };
        let result = self.launch_with(&mut ring);
        self.trace = Some(ring);
        result
    }

    /// [`Dpu::launch`] with the run's structured events going to the
    /// caller's `sink` instead of the DPU's own ring: every retired
    /// instruction, DMA, stall and — into an enabled sink — DRAM row event,
    /// in simulated order. The statistics do not depend on the sink.
    ///
    /// # Errors
    ///
    /// As [`Dpu::launch`].
    pub fn launch_with<S: TraceSink>(&mut self, sink: &mut S) -> Result<DpuRunStats, SimError> {
        if self.program.is_none() {
            return Err(SimError::NoProgram);
        }
        self.rearm();
        let mut mem = self.mem_engine();
        mem.set_row_event_recording(sink.enabled());
        // The oracle snapshot must see the post-reset, pre-run state.
        let oracle = self.build_oracle();
        // Every tier, scalar or SIMT, times the launch byte-identically.
        let stats = match self.cfg.exec_tier {
            ExecTier::Naive => self.run_scalar_naive(mem, sink),
            ExecTier::Fast => self.run_engine::<FastDispatch, S>(mem, sink),
            ExecTier::Compiled => self.run_engine::<CompiledDispatch, S>(mem, sink),
        }?;
        if let Some(oracle) = oracle {
            self.check_against_oracle(oracle)?;
        }
        Ok(stats)
    }

    /// Re-arms per-launch architectural state: register files, PCs, tasklet-id
    /// bases and atomic bits. All a lockstep follower needs — only its
    /// group's leader also builds a memory engine.
    pub(crate) fn rearm(&mut self) {
        self.state.regs.fill([0; 24]);
        for (t, pc) in self.state.pc.iter_mut().enumerate() {
            *pc = self.entry.get(t).copied().unwrap_or(0);
        }
        for (t, base) in self.state.tid_base.iter_mut().enumerate() {
            *base = self.tid_base.get(t).copied().unwrap_or(0);
        }
        self.state.atomic.fill(false);
    }

    /// A fresh memory engine for one launch.
    pub(crate) fn mem_engine(&self) -> MemEngine {
        let mmu = self.cfg.mmu.then(|| {
            let mc = MmuConfig::paper();
            Mmu::new(mc, PageTable::identity(MRAM_BYTES / mc.page_bytes))
        });
        MemEngine::new(
            DramConfig::ddr4_2400().scaled(self.cfg.mram_bw_scale),
            mmu,
            self.cfg.dram_per_core_ratio(),
            self.cfg.interface_rate(),
            DMA_SETUP_CYCLES,
            self.cfg.mutant == Some(Mutant::Due),
        )
    }

    /// Fresh instruction and data caches for one launch: the paper's
    /// geometries in cache-centric mode, none in scratchpad mode.
    pub(crate) fn caches(&self) -> (Option<Cache>, Option<Cache>) {
        match self.cfg.memory_mode {
            MemoryMode::Scratchpad => (None, None),
            MemoryMode::Cached => (
                Some(Cache::new(CacheConfig::paper_icache())),
                Some(Cache::new(CacheConfig::paper_dcache())),
            ),
        }
    }

    /// Snapshots the pre-run state into a `pim-ref` interpreter when the
    /// oracle check is enabled (scratchpad-centric runs only: the oracle
    /// does not model the flat cached space).
    pub(crate) fn build_oracle(&self) -> Option<pim_ref::RefInterpreter> {
        if !self.cfg.oracle_check || !matches!(self.cfg.memory_mode, MemoryMode::Scratchpad) {
            return None;
        }
        let program = self.program.as_ref().expect("checked in launch");
        let mut oracle = pim_ref::RefInterpreter::new(program, self.cfg.n_tasklets);
        oracle.wram.copy_from_slice(self.state.wram());
        oracle.mram.copy_from_slice(self.state.mram());
        for t in 0..self.cfg.n_tasklets as usize {
            oracle.set_entry(t as u32, self.state.pc[t], self.state.tid_base[t]);
        }
        Some(oracle)
    }

    /// Runs the oracle to completion and compares the final WRAM/MRAM state
    /// byte for byte against the simulator's.
    pub(crate) fn check_against_oracle(
        &self,
        mut oracle: pim_ref::RefInterpreter,
    ) -> Result<(), SimError> {
        // The oracle interprets one instruction per step; any kernel that
        // finishes under the cycle limit finishes well under this budget.
        let budget = self.cfg.max_cycles.min(500_000_000);
        oracle
            .run(budget)
            .map_err(|detail| SimError::OracleDivergence { detail })
            .map(|_steps| ())?;
        let diff = |name: &str, got: &[u8], want: &[u8]| -> Result<(), SimError> {
            match got.iter().zip(want).position(|(g, w)| g != w) {
                None => Ok(()),
                Some(at) => Err(SimError::OracleDivergence {
                    detail: format!(
                        "{name} diverges at {at:#x}: simulator {:#04x}, oracle {:#04x}",
                        got[at], want[at]
                    ),
                }),
            }
        };
        diff("WRAM", self.state.wram(), &oracle.wram)?;
        diff("MRAM", self.state.mram(), &oracle.mram)
    }

    /// Fresh statistics shell for a run.
    pub(crate) fn new_stats(&self) -> DpuRunStats {
        DpuRunStats {
            tlp_histogram: vec![0; self.cfg.n_tasklets as usize + 1],
            tlp_timeline: Vec::new(),
            tlp_window: TLP_WINDOW,
            per_tasklet_instructions: vec![0; self.cfg.n_tasklets as usize],
            tasklet_stop_cycle: vec![0; self.cfg.n_tasklets as usize],
            freq_mhz: self.cfg.freq_mhz(),
            max_ipc: self.cfg.max_ipc(),
            interface_bytes_per_cycle: self.cfg.interface_rate(),
            ..DpuRunStats::default()
        }
    }

    /// One launch on the issue engine under dispatch `D`.
    fn run_engine<D: Dispatch, S: TraceSink>(
        &mut self,
        mem: MemEngine,
        sink: &mut S,
    ) -> Result<DpuRunStats, SimError> {
        let kernel = self.kernel_artifacts();
        Engine::new(self, mem).run::<D, S>(&kernel, &mut self.state, sink)
    }

    /// The naive per-cycle reference loop ([`ExecTier::Naive`]).
    ///
    /// Re-derives everything from the `Instruction` enum each iteration —
    /// operand lists via `srcs()`, hazards via `rf_hazard_cycles()` — with
    /// no wakeup caching and an unconditional memory-engine advance. Kept
    /// deliberately close to the original loop so the differential tests
    /// pin the issue engine's timing against an independent computation
    /// of the same schedule. Slow; only differential tests should run it.
    ///
    /// Under SIMT it scans lanes as tasklets and issues one warp per cycle
    /// through the front-end the engine calls too ([`Warps::issue`]).
    #[allow(clippy::too_many_lines)]
    fn run_scalar_naive<S: TraceSink>(
        &mut self,
        mut mem: MemEngine,
        sink: &mut S,
    ) -> Result<DpuRunStats, SimError> {
        const NREGS: usize = pim_isa::NUM_GP_REGS as usize;
        let n = self.cfg.n_tasklets as usize;
        let kernel = self.kernel_artifacts();
        let program = &kernel.instrs;
        let n_instrs = program.len() as u32;
        let unified_rf = self.cfg.ilp.unified_rf;
        let mut warps = self.cfg.simt.map(|_| Warps::new(&self.cfg, !unified_rf));
        // SIMT forwards per PC group, at issue.
        let fwd = self.cfg.ilp.data_forwarding && warps.is_none();
        let ways = self.cfg.issue_ways() as usize;
        let gap: u64 = if fwd { 1 } else { u64::from(REVOLVER_CYCLES) };

        let (mut icache, mut dcache) = self.caches();

        let mut stats = self.new_stats();
        let mut window_acc = (0u64, 0u64);
        let mut status = vec![TaskletStatus::Ready; n];
        let mut next_issue = vec![0u64; n];
        let mut reg_ready = vec![0u64; n * NREGS];
        let mut skip_dcache = vec![false; n];
        let mut done_buf: Vec<(u64, u64)> = Vec::new();
        let mut live = n;
        let mut now: u64 = 0;
        let mut rf_block: u64 = 0;
        let mut rr: usize = 0;
        let mut issuable: Vec<usize> = Vec::with_capacity(n);

        // The cycle all of tasklet `t`'s operands at `pc` are forwarded by
        // (0 without data forwarding).
        let deps_ready_at = |t: usize, pc: u32, reg_ready: &[u64]| -> u64 {
            let Some(instr) = program.get(pc as usize).filter(|_| fwd) else { return 0 };
            instr
                .srcs()
                .iter()
                .map(|r| reg_ready[t * NREGS + r.index() as usize])
                .max()
                .unwrap_or(0)
        };

        loop {
            if live == 0 {
                break;
            }
            if now >= self.cfg.max_cycles {
                return Err(SimError::CycleLimit { limit: self.cfg.max_cycles });
            }
            // 1. Memory completions.
            mem.advance(now);
            if sink.enabled() {
                mem.drain_row_events(sink);
            }
            mem.drain_done_into(&mut done_buf);
            for &(token, at) in &done_buf {
                mem.debug_assert_on_time(at, now);
                // The last of a SIMT warp's requests wakes its lanes.
                let woken = warps.as_mut().map_or(1 << token, |w| w.complete(token));
                for t in bits(woken) {
                    if status[t] == TaskletStatus::Blocked {
                        status[t] = TaskletStatus::Ready;
                        next_issue[t] = next_issue[t].max(at + 1);
                    }
                }
                if sink.enabled() {
                    sink.emit(TraceEvent::DmaEnd { cycle: at, tasklet: token as u32 });
                }
            }
            // 2. Issuable set.
            issuable.clear();
            for t in 0..n {
                if status[t] == TaskletStatus::Ready
                    && now >= next_issue[t]
                    && now >= deps_ready_at(t, self.state.pc[t], &reg_ready)
                {
                    issuable.push(t);
                }
            }
            // 3. Register-file structural block.
            if rf_block > 0 {
                stats.record_tlp_span(issuable.len(), 1, &mut window_acc);
                stats.idle_rf += 1;
                if sink.enabled() {
                    sink.emit(TraceEvent::Stall {
                        cycle: now,
                        cycles: 1,
                        cause: StallCause::RegisterFile,
                    });
                }
                rf_block -= 1;
                now += 1;
                continue;
            }
            // 4. Nothing to issue: attribute the idle span across the
            // per-tasklet wait reasons (paper Fig 6 categorizes by thread
            // status), then fast-forward to the next possible event.
            if issuable.is_empty() {
                let n_sched = status.iter().filter(|s| **s == TaskletStatus::Ready).count();
                let n_mem = status.iter().filter(|s| **s == TaskletStatus::Blocked).count();
                let mut next = u64::MAX;
                for t in 0..n {
                    if status[t] == TaskletStatus::Ready {
                        let ready =
                            next_issue[t].max(deps_ready_at(t, self.state.pc[t], &reg_ready));
                        next = next.min(ready);
                    }
                }
                next = next.min(mem.due());
                let next = if next == u64::MAX || next <= now { now + 1 } else { next };
                let span = (next - now).min(self.cfg.max_cycles - now);
                stats.record_tlp_span(0, span, &mut window_acc);
                stats.record_idle_span(span, n_sched, n_mem);
                if sink.enabled() {
                    sink.emit(TraceEvent::Stall {
                        cycle: now,
                        cycles: span,
                        cause: if n_mem >= n_sched {
                            StallCause::Memory
                        } else {
                            StallCause::Revolver
                        },
                    });
                }
                now += span;
                continue;
            }
            stats.record_tlp_span(issuable.len(), 1, &mut window_acc);
            // 5. Issue one warp (SIMT) ...
            if let Some(warps) = warps.as_mut() {
                let ready = issuable.iter().fold(0u32, |set, &t| set | 1 << t);
                let state = &mut self.state;
                let w = warps.issue::<FastDispatch, S>(
                    ready, now, &kernel, state, &mut stats, &mut mem, sink,
                )?;
                for t in bits(w.lanes) {
                    next_issue[t] = now + 1;
                    status[t] = if w.dma { TaskletStatus::Blocked } else { TaskletStatus::Ready };
                }
                bits(w.stopped).for_each(|t| status[t] = TaskletStatus::Stopped);
                live -= w.stopped.count_ones() as usize;
                rf_block = w.rf_block;
                now += 1;
                continue;
            }
            // ... or up to `ways` instructions, round-robin.
            let start = issuable.iter().position(|&t| t >= rr).unwrap_or(0);
            let mut issued = 0usize;
            for k in 0..issuable.len() {
                if issued == ways {
                    break;
                }
                let t = issuable[(start + k) % issuable.len()];
                if status[t] != TaskletStatus::Ready {
                    continue;
                }
                let pc = self.state.pc[t];
                if pc >= n_instrs {
                    return Err(SimError::PcOutOfRange { pc, tasklet: t as u32 });
                }
                // Instruction fetch through the I-cache (cache-centric mode).
                if let Some(ic) = icache.as_mut() {
                    let fetch_addr = IRAM_BACKING_BASE + pc * pim_isa::layout::IRAM_INSTR_BYTES;
                    let out = ic.access(fetch_addr, false);
                    if !out.hit {
                        status[t] = TaskletStatus::Blocked;
                        let line = out.fill_line.expect("miss has a fill");
                        let fill =
                            Segment { addr: line, bytes: ic.config().line_bytes, write: false };
                        mem.issue_traced(sink, t as u64, &[fill], now, false);
                        continue;
                    }
                }
                let instr = program[pc as usize];
                if dcache.is_some() && instr.is_dma() {
                    return Err(SimError::DmaInCachedMode { pc, tasklet: t as u32 });
                }
                // Data access through the D-cache (cache-centric mode).
                if let Some(dc) = dcache.as_mut() {
                    if let Some((addr, write)) = self.state.ls_addr(t as u32, &instr) {
                        if skip_dcache[t] {
                            skip_dcache[t] = false;
                        } else {
                            let out = dc.access(addr, write);
                            if !out.hit {
                                status[t] = TaskletStatus::Blocked;
                                skip_dcache[t] = true;
                                let line_bytes = dc.config().line_bytes;
                                let mut segs = vec![Segment {
                                    addr: out.fill_line.expect("miss has a fill"),
                                    bytes: line_bytes,
                                    write: false,
                                }];
                                if let Some(wb) = out.writeback_line {
                                    segs.push(Segment { addr: wb, bytes: line_bytes, write: true });
                                }
                                mem.issue_traced(sink, t as u64, &segs, now, false);
                                continue;
                            }
                        }
                    }
                }
                // Register-file structural hazard (even/odd banks).
                let hazard = if unified_rf { 0 } else { u64::from(instr.rf_hazard_cycles()) };
                let effect = self.state.execute(t as u32, &instr)?;
                stats.count_instruction(instr.class(), t as u32);
                if sink.enabled() {
                    let class = instr.class();
                    let retried = effect == Effect::AcquireRetry;
                    self.state.trace_retire(sink, now, t as u32, pc, class, &instr, retried);
                }
                next_issue[t] = now + gap;
                if fwd {
                    if let Some(rd) = instr.dst() {
                        let lat = match instr {
                            Instruction::Load { .. } => FORWARD_LOAD_LATENCY,
                            _ => FORWARD_ALU_LATENCY,
                        };
                        reg_ready[t * NREGS + rd.index() as usize] = now + u64::from(lat);
                    }
                }
                match effect {
                    Effect::Advance => self.state.pc[t] = pc + 1,
                    Effect::Jump(target) => self.state.pc[t] = target,
                    Effect::AcquireRetry => {}
                    Effect::Stop => {
                        status[t] = TaskletStatus::Stopped;
                        stats.tasklet_stop_cycle[t] = now;
                        live -= 1;
                    }
                    Effect::Dma { mram, len, write } => {
                        self.state.pc[t] = pc + 1;
                        status[t] = TaskletStatus::Blocked;
                        let seg = Segment { addr: mram, bytes: len, write };
                        mem.issue_traced(sink, t as u64, &[seg], now, false);
                    }
                }
                issued += 1;
                rr = t + 1;
                if hazard > 0 {
                    // The split register file blocks the issue stage.
                    rf_block = hazard;
                    break;
                }
            }
            if issued > 0 {
                stats.active_cycles += 1;
            } else {
                // Every candidate stalled on a cache fill this cycle.
                stats.record_idle_span(1, 0, 1);
                if sink.enabled() {
                    sink.emit(TraceEvent::Stall {
                        cycle: now,
                        cycles: 1,
                        cause: StallCause::Memory,
                    });
                }
            }
            now += 1;
        }
        Ok(stats.seal(now, &mem, icache, dcache))
    }
}
