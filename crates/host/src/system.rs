//! The multi-DPU system: a set of DPUs driven synchronously by the host.

use std::sync::Arc;

use pim_asm::DpuProgram;
use pim_dpu::{Dpu, DpuConfig, DpuRunStats, LockstepSummary, SimError};
use pim_trace::{SystemTrace, TraceEvent};

use crate::xfer::{Channel, ChannelConfig, ChannelMode};

/// Accumulated end-to-end time, split the way Fig 10 splits it: input
/// transfer, kernel execution, output transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionTimeline {
    /// CPU→DPU transfer time, ns.
    pub to_dpu_ns: f64,
    /// Kernel execution time (max over DPUs, summed over launches), ns.
    pub kernel_ns: f64,
    /// CPU←DPU transfer time, ns.
    pub from_dpu_ns: f64,
    /// Number of kernel launches.
    pub launches: u32,
    /// Wall-clock end of the run on the virtual channel timeline, ns.
    /// Only the broadcast and overlapped modes set it (transfers there
    /// may overlap kernel execution, so the wall clock can undercut the
    /// serialized phase sum); it stays `0.0` under
    /// [`ChannelMode::Blocking`], where the wall clock *is*
    /// [`ExecutionTimeline::total_ns`]. Read through
    /// [`ExecutionTimeline::wall_ns`].
    pub end_ns: f64,
}

impl ExecutionTimeline {
    /// Total end-to-end time in nanoseconds with every phase serialized
    /// (the Fig 10 stacking; phase durations, not wall clock).
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.to_dpu_ns + self.kernel_ns + self.from_dpu_ns
    }

    /// End-to-end wall-clock time: the channel-timeline end when the
    /// channel mode tracked one, else the serialized phase sum.
    #[must_use]
    pub fn wall_ns(&self) -> f64 {
        if self.end_ns > 0.0 {
            self.end_ns
        } else {
            self.total_ns()
        }
    }
}

/// The result of one synchronous launch across the whole set.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Per-DPU run statistics, indexed by DPU.
    pub per_dpu: Vec<DpuRunStats>,
    /// Kernel time of this launch (slowest DPU), ns.
    pub kernel_ns: f64,
    /// What the lockstep driver did: which DPUs shared a schedule to the
    /// end, which left one and where, which were launched on their own
    /// and why. Diagnostic only — it depends on how the set was split over
    /// worker threads, unlike everything simulated.
    pub lockstep: LockstepSummary,
}

impl LaunchReport {
    /// Total instructions executed across the set.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.per_dpu.iter().map(|s| s.instructions).sum()
    }

    /// The statistics of the slowest DPU in this launch. Ties break toward
    /// the lowest DPU index, so report ordering is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the report is empty (a launch always has at least one DPU).
    #[must_use]
    pub fn slowest(&self) -> &DpuRunStats {
        let mut best = self.per_dpu.first().expect("launch reports are non-empty");
        for s in &self.per_dpu[1..] {
            if s.time_ns() > best.time_ns() {
                best = s;
            }
        }
        best
    }
}

/// A host-managed set of DPUs (the SDK's `dpu_set_t`).
///
/// All DPUs share one configuration and one program, per the SPMD model;
/// data is partitioned across them by the host exactly as in the paper's
/// Fig 2(a).
#[derive(Debug)]
pub struct PimSystem {
    dpus: Vec<Dpu>,
    channel: Channel,
    timeline: ExecutionTimeline,
    /// Host-side transfer events, recorded when the DPU config enables
    /// event tracing (`event_trace_capacity > 0`).
    trace_host: Option<Vec<TraceEvent>>,
}

impl PimSystem {
    /// Allocates `n_dpus` DPUs with the given configuration
    /// (`dpu_alloc`) behind one CPU↔DPU channel.
    ///
    /// # Panics
    ///
    /// Panics if `n_dpus` is zero or the DPU configuration is invalid.
    #[must_use]
    pub fn new(n_dpus: u32, cfg: DpuConfig, channel: ChannelConfig) -> Self {
        assert!(n_dpus > 0, "a PIM system needs at least one DPU");
        let trace_host = (cfg.event_trace_capacity > 0).then(Vec::new);
        let dpus = (0..n_dpus).map(|_| Dpu::new(cfg.clone())).collect();
        PimSystem {
            dpus,
            channel: Channel::new(channel, n_dpus),
            timeline: ExecutionTimeline::default(),
            trace_host,
        }
    }

    /// Mirrors the channel's wall clock into the timeline. Blocking mode
    /// leaves `end_ns` at 0.0 so blocking timelines (and everything keyed
    /// on them — goldens, checkpoints) stay bit-identical.
    fn sync_wall(&mut self) {
        if self.channel.mode() != ChannelMode::Blocking {
            self.timeline.end_ns = self.channel.wall_ns();
        }
    }

    /// Prices one parallel CPU→DPU push under the channel mode. Payloads
    /// that are byte-identical across all DPUs are detected outside
    /// blocking mode and priced as a broadcast — one write serves the
    /// whole set, the common shape of `launch_all` setup traffic.
    fn price_push(&mut self, chunks: &[&[u8]]) -> f64 {
        if self.channel.mode() == ChannelMode::Blocking {
            let max_bytes = chunks.iter().map(|c| c.len()).max().unwrap_or(0) as u64;
            return self.channel.push_one(0, max_bytes);
        }
        if chunks.len() > 1 && chunks.windows(2).all(|w| w[0] == w[1]) {
            return self.channel.broadcast(chunks[0].len() as u64);
        }
        let lens: Vec<u64> = chunks.iter().map(|c| c.len() as u64).collect();
        self.channel.push(&lens)
    }

    /// Records a host transfer event at the current timeline position.
    /// Call *before* the transfer time is added to the timeline so `at_ns`
    /// marks the transfer's start.
    fn record_host(&mut self, pull: bool, ns: f64, bytes: u64) {
        if let Some(events) = self.trace_host.as_mut() {
            let at_ns = self.timeline.total_ns();
            events.push(if pull {
                TraceEvent::HostPull { at_ns, ns, bytes }
            } else {
                TraceEvent::HostPush { at_ns, ns, bytes }
            });
        }
    }

    /// Takes the structured trace accumulated since the last call: host
    /// transfer events plus every DPU's event ring. Returns `None` unless
    /// the system was built with `event_trace_capacity > 0`.
    pub fn take_trace(&mut self) -> Option<SystemTrace> {
        let host = self.trace_host.as_mut().map(std::mem::take)?;
        let per_dpu = self.dpus.iter_mut().map(|d| d.take_trace().unwrap_or_default()).collect();
        Some(SystemTrace { freq_mhz: self.dpus[0].config().freq_mhz(), host, per_dpu })
    }

    /// Number of DPUs in the set.
    #[must_use]
    pub fn n_dpus(&self) -> u32 {
        self.dpus.len() as u32
    }

    /// Access one DPU (e.g. for workload-specific staging).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn dpu(&self, idx: u32) -> &Dpu {
        &self.dpus[idx as usize]
    }

    /// Mutable access to one DPU.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn dpu_mut(&mut self, idx: u32) -> &mut Dpu {
        &mut self.dpus[idx as usize]
    }

    /// The accumulated end-to-end timeline.
    #[must_use]
    pub fn timeline(&self) -> &ExecutionTimeline {
        &self.timeline
    }

    /// Clears the accumulated timeline and rewinds the channel clock
    /// (e.g. between experiments).
    pub fn reset_timeline(&mut self) {
        self.timeline = ExecutionTimeline::default();
        self.channel.reset();
    }

    /// Loads the same program on every DPU (`dpu_load`), one image shared
    /// by all of them ([`Dpu::load_shared_program`]). Program upload
    /// time is not modelled (the paper's breakdowns start at input
    /// transfer).
    ///
    /// # Errors
    ///
    /// Propagates a [`SimError`] if the program does not fit a DPU.
    pub fn load(&mut self, program: &DpuProgram) -> Result<(), SimError> {
        let program = Arc::new(program.clone());
        for dpu in &mut self.dpus {
            dpu.load_shared_program(&program)?;
        }
        Ok(())
    }

    /// Validates that a parallel transfer has one chunk per DPU.
    fn check_chunks(&self, chunks: usize) -> Result<(), SimError> {
        if chunks == self.dpus.len() {
            Ok(())
        } else {
            Err(SimError::ChunkCountMismatch { chunks, n_dpus: self.dpus.len() as u32 })
        }
    }

    /// Validates a DPU index against the system size.
    fn check_dpu(&self, dpu: u32) -> Result<(), SimError> {
        if (dpu as usize) < self.dpus.len() {
            Ok(())
        } else {
            Err(SimError::BadDpuIndex { dpu, n_dpus: self.dpus.len() as u32 })
        }
    }

    /// Parallel CPU→DPU transfer into MRAM (`dpu_push_xfer(TO_DPU)`):
    /// `chunks[i]` is written to DPU `i` at `addr`. Takes the time of the
    /// largest chunk. A mis-sized batch (e.g. a scheduler packing fewer
    /// tenants than DPUs) is an error, not an abort.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ChunkCountMismatch`] unless `chunks` has exactly
    /// one entry per DPU.
    pub fn try_push_to_mram(&mut self, addr: u32, chunks: &[&[u8]]) -> Result<(), SimError> {
        self.check_chunks(chunks.len())?;
        let max_bytes = chunks.iter().map(|c| c.len()).max().unwrap_or(0) as u64;
        for (dpu, chunk) in self.dpus.iter_mut().zip(chunks) {
            dpu.write_mram(addr, chunk);
        }
        let ns = self.price_push(chunks);
        self.record_host(false, ns, max_bytes);
        self.timeline.to_dpu_ns += ns;
        self.sync_wall();
        Ok(())
    }

    /// Broadcast CPU→DPU transfer: the same bytes to every DPU's MRAM.
    /// The broadcast and overlapped modes price this as one rank-parallel
    /// write serving the whole set ([`Channel::broadcast`]).
    pub fn broadcast_to_mram(&mut self, addr: u32, data: &[u8]) {
        for dpu in &mut self.dpus {
            dpu.write_mram(addr, data);
        }
        let ns = self.channel.broadcast(data.len() as u64);
        self.record_host(false, ns, data.len() as u64);
        self.timeline.to_dpu_ns += ns;
        self.sync_wall();
    }

    /// Single-DPU CPU→DPU transfer into MRAM (serial; accumulates its own
    /// transfer time).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadDpuIndex`] when `dpu` is out of range.
    pub fn try_copy_to_mram(&mut self, dpu: u32, addr: u32, data: &[u8]) -> Result<(), SimError> {
        self.check_dpu(dpu)?;
        self.dpus[dpu as usize].write_mram(addr, data);
        let ns = self.channel.push_one(dpu, data.len() as u64);
        self.record_host(false, ns, data.len() as u64);
        self.timeline.to_dpu_ns += ns;
        self.sync_wall();
        Ok(())
    }

    /// Parallel CPU←DPU transfer out of MRAM (`dpu_push_xfer(FROM_DPU)`).
    /// Reads `len` bytes at `addr` from every DPU; takes the time of one
    /// chunk (they move in parallel).
    #[must_use]
    pub fn pull_from_mram(&mut self, addr: u32, len: u32) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.pull_from_mram_into(addr, len, &mut out);
        out
    }

    /// [`PimSystem::pull_from_mram`] into a caller-owned buffer, reusing
    /// the outer vector and every inner allocation across calls — for
    /// readback loops (multi-launch workloads, experiment sweeps) that
    /// would otherwise allocate one `Vec<Vec<u8>>` per iteration.
    ///
    /// `out` is resized to one entry per DPU; transfer-time accounting is
    /// identical to the allocating variant.
    pub fn pull_from_mram_into(&mut self, addr: u32, len: u32, out: &mut Vec<Vec<u8>>) {
        out.resize_with(self.dpus.len(), Vec::new);
        for (dpu, buf) in self.dpus.iter().zip(out.iter_mut()) {
            dpu.read_mram_into(addr, len, buf);
        }
        let ns = self.channel.pull(u64::from(len));
        self.record_host(true, ns, u64::from(len));
        self.timeline.from_dpu_ns += ns;
        self.sync_wall();
    }

    /// Single-DPU CPU←DPU transfer out of MRAM.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadDpuIndex`] when `dpu` is out of range.
    pub fn try_copy_from_mram(
        &mut self,
        dpu: u32,
        addr: u32,
        len: u32,
    ) -> Result<Vec<u8>, SimError> {
        self.check_dpu(dpu)?;
        let out = self.dpus[dpu as usize].read_mram(addr, len);
        let ns = self.channel.pull(u64::from(len));
        self.record_host(true, ns, u64::from(len));
        self.timeline.from_dpu_ns += ns;
        self.sync_wall();
        Ok(out)
    }

    /// Parallel transfer into a named WRAM symbol on every DPU
    /// (`dpu_push_xfer` against a host variable, like `size_per_dpu` in
    /// the paper's Fig 2(a)).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ChunkCountMismatch`] unless `chunks` has exactly
    /// one entry per DPU.
    ///
    /// # Panics
    ///
    /// Panics if the symbol is unknown on some DPU (a programming error,
    /// not a batch-sizing error).
    pub fn try_push_to_symbol(&mut self, name: &str, chunks: &[&[u8]]) -> Result<(), SimError> {
        self.check_chunks(chunks.len())?;
        let max_bytes = chunks.iter().map(|c| c.len()).max().unwrap_or(0) as u64;
        for (dpu, chunk) in self.dpus.iter_mut().zip(chunks) {
            dpu.write_wram_symbol(name, chunk);
        }
        let ns = self.price_push(chunks);
        self.record_host(false, ns, max_bytes);
        self.timeline.to_dpu_ns += ns;
        self.sync_wall();
        Ok(())
    }

    /// Broadcast the same bytes into a named WRAM symbol on every DPU.
    /// Priced like [`PimSystem::broadcast_to_mram`].
    pub fn broadcast_to_symbol(&mut self, name: &str, data: &[u8]) {
        for dpu in &mut self.dpus {
            dpu.write_wram_symbol(name, data);
        }
        let ns = self.channel.broadcast(data.len() as u64);
        self.record_host(false, ns, data.len() as u64);
        self.timeline.to_dpu_ns += ns;
        self.sync_wall();
    }

    /// Reads a named WRAM symbol back from every DPU. As with every
    /// parallel transfer, latency is that of the largest per-DPU chunk
    /// (DESIGN §5.11) — symbols may be sized differently per DPU under
    /// flexible linking.
    #[must_use]
    pub fn pull_from_symbol(&mut self, name: &str) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.pull_from_symbol_into(name, &mut out);
        out
    }

    /// [`PimSystem::pull_from_symbol`] into a caller-owned buffer (see
    /// [`PimSystem::pull_from_mram_into`]); latency is still that of the
    /// largest per-DPU chunk.
    pub fn pull_from_symbol_into(&mut self, name: &str, out: &mut Vec<Vec<u8>>) {
        out.resize_with(self.dpus.len(), Vec::new);
        for (dpu, buf) in self.dpus.iter().zip(out.iter_mut()) {
            dpu.read_wram_symbol_into(name, buf);
        }
        let max_bytes = out.iter().map(Vec::len).max().unwrap_or(0) as u64;
        let ns = self.channel.pull(max_bytes);
        self.record_host(true, ns, max_bytes);
        self.timeline.from_dpu_ns += ns;
        self.sync_wall();
    }

    /// Launches the loaded kernel synchronously on every DPU
    /// (`dpu_launch(DPU_SYNCHRONOUS)`). The launch's kernel time is that of
    /// the slowest DPU; it accumulates into the timeline.
    ///
    /// DPUs are simulated on parallel host threads — the multi-threaded
    /// simulation the paper leaves as future work (§III-D). The set is
    /// split into contiguous chunks over at most
    /// `std::thread::available_parallelism` workers (one OS thread per
    /// *worker*, not per DPU, so a 2048-DPU rank doesn't spawn 2048
    /// threads), and each worker hands its chunk to the lockstep driver
    /// ([`pim_dpu::run_batch`]): neighbouring DPUs with the same program
    /// and configuration share one schedule for as long as their effects
    /// agree, everything else is launched on its own. This is safe and
    /// bit-deterministic because DPUs share no state during a kernel
    /// (§II-B: no inter-DPU datapath) and lockstep is byte-identical to
    /// per-DPU launches; results are collected in DPU order.
    ///
    /// # Errors
    ///
    /// Propagates the [`SimError`] of the lowest-indexed faulting DPU.
    pub fn launch_all(&mut self) -> Result<LaunchReport, SimError> {
        // A one-DPU launch has one worker whatever the core count, so it
        // skips the query (which reads cgroup files on every call).
        let n_workers = if self.dpus.len() <= 1 {
            self.dpus.len()
        } else {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(self.dpus.len())
        };
        let batches: Vec<_> = if n_workers <= 1 {
            vec![pim_dpu::run_batch(&mut self.dpus)]
        } else {
            let chunk_len = self.dpus.len().div_ceil(n_workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .dpus
                    .chunks_mut(chunk_len)
                    .map(|chunk| scope.spawn(|| pim_dpu::run_batch(chunk)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("DPU simulation thread panicked"))
                    .collect()
            })
        };
        let mut results = Vec::with_capacity(self.dpus.len());
        let mut lockstep = LockstepSummary::default();
        for (chunk, summary) in batches {
            lockstep.absorb(&summary, results.len() as u32);
            results.extend(chunk);
        }
        let per_dpu = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        let kernel_ns = per_dpu.iter().map(DpuRunStats::time_ns).fold(0.0f64, f64::max);
        self.timeline.kernel_ns += kernel_ns;
        self.timeline.launches += 1;
        self.channel.kernel(kernel_ns);
        self.sync_wall();
        Ok(LaunchReport { per_dpu, kernel_ns, lockstep })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xfer::{from_dpu_ns, to_dpu_ns};
    use pim_asm::KernelBuilder;
    use pim_isa::Cond;

    /// Kernel: sums `count` words from MRAM base 0 into WRAM symbol "sum".
    fn sum_kernel(count: u32) -> DpuProgram {
        let mut k = KernelBuilder::new();
        let buf = k.global_zeroed("buf", 256);
        let _sum = k.global_zeroed("sum", 4);
        let [w, m, i, v, acc, p] = k.regs(["w", "m", "i", "v", "acc", "p"]);
        k.movi(acc, 0);
        k.movi(m, 0);
        k.movi(i, (count / 64) as i32);
        let outer = k.label_here("outer");
        k.movi(w, buf as i32);
        k.ldma(w, m, 256);
        k.movi(p, 64);
        let inner = k.label_here("inner");
        k.lw(v, w, 0);
        k.add(acc, acc, v);
        k.add(w, w, 4);
        k.sub(p, p, 1);
        k.branch(Cond::Ne, p, 0, &inner);
        k.add(m, m, 256);
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &outer);
        k.movi(p, 256); // "sum" address: after 256-byte buf
        k.sw(acc, p, 0);
        k.stop();
        k.build().unwrap()
    }

    #[test]
    fn partitioned_sum_across_four_dpus() {
        let count = 256u32; // words per DPU
        let program = sum_kernel(count);
        let mut sys = PimSystem::new(4, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.load(&program).unwrap();
        // DPU d gets words d*1000 .. d*1000+count.
        let chunks: Vec<Vec<u8>> = (0..4)
            .map(|d| (0..count).flat_map(|i| (d * 1000 + i as i32).to_le_bytes()).collect())
            .collect();
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        sys.try_push_to_mram(0, &refs).unwrap();
        let report = sys.launch_all().unwrap();
        assert_eq!(report.per_dpu.len(), 4);
        let sums = sys.pull_from_symbol("sum");
        for (d, bytes) in sums.iter().enumerate() {
            let got = i32::from_le_bytes(bytes.as_slice().try_into().unwrap());
            let expect: i32 = (0..count as i32).map(|i| d as i32 * 1000 + i).sum();
            assert_eq!(got, expect, "dpu {d}");
        }
    }

    #[test]
    fn timeline_accumulates_all_three_phases() {
        let program = sum_kernel(64);
        let mut sys = PimSystem::new(2, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.load(&program).unwrap();
        let data = vec![0u8; 64 * 4];
        sys.try_push_to_mram(0, &[&data, &data]).unwrap();
        sys.launch_all().unwrap();
        let _ = sys.pull_from_symbol("sum");
        let t = sys.timeline();
        assert!(t.to_dpu_ns > 0.0);
        assert!(t.kernel_ns > 0.0);
        assert!(t.from_dpu_ns > 0.0);
        assert_eq!(t.launches, 1);
    }

    #[test]
    fn parallel_transfer_takes_max_chunk_time() {
        let program = sum_kernel(64);
        let mut sys = PimSystem::new(2, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.load(&program).unwrap();
        let small = vec![0u8; 64];
        let big = vec![0u8; 64 * 1024];
        sys.try_push_to_mram(0, &[&small, &big]).unwrap();
        let expected = to_dpu_ns(64 * 1024);
        assert!((sys.timeline().to_dpu_ns - expected).abs() < 1e-9);
    }

    #[test]
    fn readback_is_slower_than_upload_for_same_bytes() {
        let program = sum_kernel(64);
        let mut sys = PimSystem::new(1, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.load(&program).unwrap();
        let data = vec![0u8; 4096];
        sys.try_push_to_mram(0, &[&data]).unwrap();
        let up = sys.timeline().to_dpu_ns;
        let _ = sys.pull_from_mram(0, 4096);
        let down = sys.timeline().from_dpu_ns;
        assert!(down > 4.0 * up, "CPU←DPU must be ≈4.7× slower");
    }

    #[test]
    fn broadcast_and_per_dpu_symbols() {
        let program = sum_kernel(64);
        let mut sys = PimSystem::new(3, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.load(&program).unwrap();
        sys.broadcast_to_symbol("sum", &7i32.to_le_bytes());
        let vals = sys.pull_from_symbol("sum");
        for v in vals {
            assert_eq!(i32::from_le_bytes(v.as_slice().try_into().unwrap()), 7);
        }
    }

    #[test]
    fn kernel_time_is_slowest_dpu() {
        let program = sum_kernel(64);
        let mut sys = PimSystem::new(2, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.load(&program).unwrap();
        let data = vec![1u8; 64 * 4];
        sys.try_push_to_mram(0, &[&data, &data]).unwrap();
        let report = sys.launch_all().unwrap();
        let max = report.per_dpu.iter().map(DpuRunStats::time_ns).fold(0.0, f64::max);
        assert!((report.kernel_ns - max).abs() < 1e-9);
        assert!((report.slowest().time_ns() - max).abs() < 1e-9);
    }

    #[test]
    fn mismatched_chunks_are_an_error() {
        let mut sys = PimSystem::new(2, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        let err = sys.try_push_to_mram(0, &[&[0u8; 4] as &[u8]]).unwrap_err();
        assert!(matches!(err, SimError::ChunkCountMismatch { chunks: 1, n_dpus: 2 }));
    }

    /// A program whose only job is to own a WRAM symbol of a given size.
    fn sym_program(bytes: u32) -> DpuProgram {
        let mut k = KernelBuilder::new();
        let _s = k.global_zeroed("sym", bytes);
        k.stop();
        k.build().unwrap()
    }

    #[test]
    fn pull_from_symbol_charges_the_largest_chunk() {
        let mut sys = PimSystem::new(3, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.dpu_mut(0).load_program(&sym_program(4096)).unwrap();
        sys.dpu_mut(1).load_program(&sym_program(64)).unwrap();
        sys.dpu_mut(2).load_program(&sym_program(256)).unwrap();
        let out = sys.pull_from_symbol("sym");
        assert_eq!(out.iter().map(Vec::len).collect::<Vec<_>>(), [4096, 64, 256]);
        // DESIGN §5.11: the parallel readback takes the time of the
        // max-bytes DPU, not whichever DPU happens to be first.
        let expected = from_dpu_ns(4096);
        assert!((sys.timeline().from_dpu_ns - expected).abs() < 1e-9);
    }

    #[test]
    fn slowest_breaks_ties_by_dpu_index() {
        let program = sum_kernel(64);
        let mut sys = PimSystem::new(3, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.load(&program).unwrap();
        let data = vec![2u8; 64 * 4];
        sys.try_push_to_mram(0, &[&data, &data, &data]).unwrap();
        // Identical inputs → identical times on every DPU: the tie must
        // resolve to index 0, not whichever the iterator yields last.
        let report = sys.launch_all().unwrap();
        assert!(std::ptr::eq(report.slowest(), &report.per_dpu[0]));
    }

    #[test]
    fn pull_into_variants_match_allocating_pulls() {
        let program = sum_kernel(64);
        let mut sys = PimSystem::new(3, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.load(&program).unwrap();
        let chunks: Vec<Vec<u8>> =
            (0..3u8).map(|d| (0..=255u8).map(|i| d.wrapping_mul(i)).collect()).collect();
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        sys.try_push_to_mram(0, &refs).unwrap();
        sys.launch_all().unwrap();
        let mram = sys.pull_from_mram(0, 256);
        let t_after_alloc = sys.timeline().from_dpu_ns;
        let mut mram_into = vec![vec![7u8; 3]; 5]; // wrong shape on purpose
        sys.pull_from_mram_into(0, 256, &mut mram_into);
        assert_eq!(mram, mram_into);
        // Both variants charge the same transfer time.
        assert!((sys.timeline().from_dpu_ns - 2.0 * t_after_alloc).abs() < 1e-9);
        let sum = sys.pull_from_symbol("sum");
        let mut sum_into = Vec::new();
        sys.pull_from_symbol_into("sum", &mut sum_into);
        assert_eq!(sum, sum_into);
    }

    #[test]
    fn launch_all_matches_per_dpu_launches_on_a_twin_system() {
        // An odd population, so the worker chunks (and with them the
        // lockstep groups) are uneven.
        let n = 7u32;
        let program = sum_kernel(64);
        let chunks: Vec<Vec<u8>> = (0..n as i32)
            .map(|d| (0..64).flat_map(|i| (d * 100 + i).to_le_bytes()).collect())
            .collect();
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        let twin = || {
            let mut sys = PimSystem::new(n, DpuConfig::paper_baseline(2), ChannelConfig::paper());
            sys.load(&program).unwrap();
            sys.try_push_to_mram(0, &refs).unwrap();
            sys
        };

        let mut each = twin();
        let want: Vec<DpuRunStats> = (0..n).map(|d| each.dpu_mut(d).launch().unwrap()).collect();
        let mut all = twin();
        let got = all.launch_all().unwrap();

        assert_eq!(got.per_dpu.len(), want.len());
        for (g, w) in got.per_dpu.iter().zip(&want) {
            assert_eq!(format!("{g:?}"), format!("{w:?}"));
        }
        // One launch, charged at the slowest DPU's kernel time.
        let slowest = want.iter().map(DpuRunStats::time_ns).fold(0.0f64, f64::max);
        assert_eq!(got.kernel_ns, slowest);
        assert_eq!((all.timeline().launches, all.timeline().kernel_ns), (1, slowest));
        assert_eq!(all.pull_from_symbol("sum"), each.pull_from_symbol("sum"));
        // Same program, same trip counts: nobody leaves a shared schedule.
        assert_eq!(got.lockstep.members(), n);
        assert!(got.lockstep.left.is_empty(), "{}", got.lockstep);
    }

    #[test]
    fn launch_report_names_the_dpu_that_left_lockstep() {
        // DPU 5 of 8 gets a different trip count (staged through `count`,
        // which the kernel's outer loop branches on).
        let mut k = KernelBuilder::new();
        let count = k.global_zeroed("count", 4);
        let [p, i] = k.regs(["p", "i"]);
        k.movi(p, count as i32);
        k.lw(i, p, 0);
        let top = k.label_here("top");
        k.sub(i, i, 1);
        k.branch(Cond::Ne, i, 0, &top);
        k.stop();
        let program = k.build().unwrap();
        let mut sys = PimSystem::new(8, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.load(&program).unwrap();
        let counts: Vec<[u8; 4]> =
            (0..8).map(|d| if d == 5 { 9u32 } else { 4 }.to_le_bytes()).collect();
        let refs: Vec<&[u8]> = counts.iter().map(|c| c.as_slice()).collect();
        sys.try_push_to_symbol("count", &refs).unwrap();
        let report = sys.launch_all().unwrap();
        let left: Vec<u32> = report.lockstep.left.iter().map(|d| d.dpu).collect();
        // (On a host with a worker thread per DPU nobody shares a schedule.)
        if report.lockstep.followed > 0 {
            assert_eq!(left, [5], "{}", report.lockstep);
        }
        assert_eq!(report.lockstep.members(), 8);
        assert!(report.per_dpu[5].cycles > report.per_dpu[4].cycles);
    }

    /// Runs the standard push → launch → pull round trip under `mode` and
    /// returns the finished timeline.
    fn round_trip_timeline(mode: crate::ChannelMode) -> ExecutionTimeline {
        let program = sum_kernel(64);
        let cfg = crate::ChannelConfig { mode };
        let mut sys = PimSystem::new(2, DpuConfig::paper_baseline(1), cfg);
        sys.load(&program).unwrap();
        let a: Vec<u8> = (0..64).flat_map(|i: i32| i.to_le_bytes()).collect();
        let b: Vec<u8> = (0..64).flat_map(|i: i32| (i + 9).to_le_bytes()).collect();
        sys.try_push_to_mram(0, &[&a, &b]).unwrap();
        sys.launch_all().unwrap();
        let _ = sys.pull_from_symbol("sum");
        *sys.timeline()
    }

    #[test]
    fn blocking_mode_keeps_end_ns_unset_and_wall_equals_total() {
        let t = round_trip_timeline(crate::ChannelMode::Blocking);
        assert_eq!(t.end_ns, 0.0, "legacy mode never touches end_ns");
        assert!((t.wall_ns() - t.total_ns()).abs() < 1e-12);
    }

    #[test]
    fn overlapped_mode_tracks_a_shorter_wall_clock() {
        let blocking = round_trip_timeline(crate::ChannelMode::Blocking);
        let over = round_trip_timeline(crate::ChannelMode::Overlapped);
        // Phase sums are identical (distinct chunks, same kernel)…
        assert_eq!(blocking.to_dpu_ns, over.to_dpu_ns);
        assert_eq!(blocking.kernel_ns, over.kernel_ns);
        assert_eq!(blocking.from_dpu_ns, over.from_dpu_ns);
        // …but the push hides under the kernel, shortening the wall.
        assert!(over.end_ns > 0.0);
        assert!(over.wall_ns() < blocking.wall_ns());
        // The pull can never hide: wall ≥ kernel + from phases.
        assert!(over.wall_ns() >= over.kernel_ns + over.from_dpu_ns - 1e-9);
    }

    #[test]
    fn identical_chunks_price_as_broadcast_in_v2_modes() {
        let program = sum_kernel(64);
        let data = vec![3u8; 64 * 4];
        let n = 2 * crate::RANK_DPUS;
        let chunks: Vec<&[u8]> = vec![&data; n as usize];
        let mk = |mode| {
            let cfg = crate::ChannelConfig { mode };
            let mut sys = PimSystem::new(n, DpuConfig::paper_baseline(1), cfg);
            sys.load(&program).unwrap();
            sys.try_push_to_mram(0, &chunks).unwrap();
            sys.timeline().to_dpu_ns
        };
        let blocking = mk(crate::ChannelMode::Blocking);
        let broadcast = mk(crate::ChannelMode::Broadcast);
        assert!((blocking - to_dpu_ns(64 * 4)).abs() < 1e-9);
        let per_rank = f64::from(crate::RANK_DPUS);
        assert!((broadcast - blocking / per_rank).abs() < 1e-9, "one write serves a whole rank");
    }

    #[test]
    fn distinct_chunk_push_prices_identically_in_every_mode() {
        let program = sum_kernel(64);
        let chunks: Vec<Vec<u8>> = (0..3u8).map(|d| vec![d + 1; 64 * 4]).collect();
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        let mut prices = Vec::new();
        for mode in crate::ChannelMode::all() {
            let cfg = crate::ChannelConfig { mode };
            let mut sys = PimSystem::new(3, DpuConfig::paper_baseline(1), cfg);
            sys.load(&program).unwrap();
            sys.try_push_to_mram(0, &refs).unwrap();
            prices.push(sys.timeline().to_dpu_ns);
        }
        assert_eq!(prices[0], prices[1]);
        assert_eq!(prices[0], prices[2]);
    }

    #[test]
    fn launch_all_chunks_dpus_over_bounded_workers() {
        // More DPUs than typical core counts, and a count that does not
        // divide evenly, to exercise the chunked worker path end-to-end.
        let n = 19u32;
        let program = sum_kernel(64);
        let mut sys = PimSystem::new(n, DpuConfig::paper_baseline(1), ChannelConfig::paper());
        sys.load(&program).unwrap();
        let chunks: Vec<Vec<u8>> = (0..n as i32)
            .map(|d| (0..64).flat_map(|i| (d * 100 + i).to_le_bytes()).collect())
            .collect();
        let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        sys.try_push_to_mram(0, &refs).unwrap();
        let report = sys.launch_all().unwrap();
        assert_eq!(report.per_dpu.len(), n as usize);
        for (d, bytes) in sys.pull_from_symbol("sum").iter().enumerate() {
            let got = i32::from_le_bytes(bytes.as_slice().try_into().unwrap());
            let expect: i32 = (0..64).map(|i| d as i32 * 100 + i).sum();
            assert_eq!(got, expect, "dpu {d} result must land at index {d}");
        }
    }
}
