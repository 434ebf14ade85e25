//! Run statistics: everything the paper's characterization figures read.

use pim_cache::{Cache, CacheStats};
use pim_dram::DramStats;
use pim_isa::InstrClass;
use pim_mmu::MmuStats;

use crate::mem::MemEngine;

/// Bucket count of [`IdleBuckets`]: one per possible number of waiting
/// tasklets (or SIMT lanes), `0..=MAX_TASKLETS`.
const IDLE_BUCKETS: usize = crate::MAX_TASKLETS as usize + 1;

/// Idle cycles split by why each waiting tasklet waited (the paper
/// "categorize\[s\] each thread's status based on the reason for its
/// stall"), kept exact: an idle span of `span` cycles with `tot` waiters,
/// `n` of them for one reason, owes that reason `span · n / tot` cycles,
/// and bucket `tot` holds the sum of the numerators `span · n`. The
/// divisions happen once, when the record is read, so the record does not
/// depend on where a span was cut or in which order spans were booked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdleBuckets {
    /// Numerators of the tasklets waiting on the memory system (DMA, cache
    /// fill, instruction fetch).
    pub memory: [u64; IDLE_BUCKETS],
    /// Numerators of the tasklets gated only by the pipeline scheduling
    /// constraint (the revolver window, or — with data forwarding — an
    /// unforwarded dependence).
    pub revolver: [u64; IDLE_BUCKETS],
}

/// `Σ num[tot] / tot` in index order: the cycles one reason is owed.
fn owed_cycles(num: &[u64; IDLE_BUCKETS]) -> f64 {
    (1..IDLE_BUCKETS).fold(0.0, |sum, tot| sum + num[tot] as f64 / tot as f64)
}

/// Statistics collected over one kernel execution on one DPU.
#[derive(Debug, Clone, Default)]
pub struct DpuRunStats {
    /// Total core cycles from launch to the last tasklet's `stop`.
    pub cycles: u64,
    /// Cycles with at least one instruction issued (Fig 6's black bar).
    pub active_cycles: u64,
    /// Idle cycles attributed to memory waits and to the revolver/pipeline
    /// scheduling constraint; read them with
    /// [`DpuRunStats::idle_memory`] / [`DpuRunStats::idle_revolver`].
    pub idle: IdleBuckets,
    /// Idle cycles spent on the even/odd register-file hazard.
    pub idle_rf: u64,
    /// Instructions executed (for SIMT: one per active lane), total: the
    /// sum of [`DpuRunStats::class_counts`], taken when the run is sealed.
    pub instructions: u64,
    /// Instructions executed by class (Fig 9's instruction mix).
    pub class_counts: [u64; 6],
    /// Instructions executed per tasklet.
    pub per_tasklet_instructions: Vec<u64>,
    /// Cycle at which each tasklet executed `stop` (0 if it never ran) —
    /// per-tenant completion times for the multi-tenancy study.
    pub tasklet_stop_cycle: Vec<u64>,
    /// `tlp_histogram[k]` = cycles on which exactly `k` tasklets were
    /// issuable (Fig 7).
    pub tlp_histogram: Vec<u64>,
    /// Average issuable-tasklet count per window of
    /// [`DpuRunStats::tlp_window`] cycles (Fig 8's TLP-over-time trace).
    pub tlp_timeline: Vec<f32>,
    /// Window length of the timeline, in cycles.
    pub tlp_window: u64,
    /// DRAM bank statistics (bytes read feed Fig 16 and Fig 5's bandwidth
    /// axis).
    pub dram: DramStats,
    /// Instruction-cache statistics (cache-centric mode only).
    pub icache: Option<CacheStats>,
    /// Data-cache statistics (cache-centric mode only).
    pub dcache: Option<CacheStats>,
    /// MMU/TLB statistics (MMU-enabled runs only).
    pub mmu: Option<MmuStats>,
    /// DMA requests issued.
    pub dma_requests: u64,
    /// Core frequency the run was clocked at, for time conversion.
    pub freq_mhz: u32,
    /// Peak scalar-instruction throughput (1 scalar, 2 superscalar, warp
    /// width for SIMT) — the compute-utilization denominator.
    pub max_ipc: u32,
    /// DMA-interface peak rate in bytes per core cycle — the
    /// bandwidth-utilization denominator.
    pub interface_bytes_per_cycle: f64,
}

impl DpuRunStats {
    /// Accumulates another launch's statistics into this one — used when a
    /// workload runs as multiple kernel launches (e.g. BFS levels, the
    /// two-pass SCAN kernels) and a figure needs whole-workload numbers.
    ///
    /// Counters and histograms add; the TLP timeline concatenates;
    /// configuration fields (`freq_mhz`, `max_ipc`, …) are taken from the
    /// first non-empty side and assumed identical across launches.
    pub fn merge(&mut self, other: &DpuRunStats) {
        self.cycles += other.cycles;
        self.active_cycles += other.active_cycles;
        for (a, b) in self.idle.memory.iter_mut().zip(&other.idle.memory) {
            *a += b;
        }
        for (a, b) in self.idle.revolver.iter_mut().zip(&other.idle.revolver) {
            *a += b;
        }
        self.idle_rf += other.idle_rf;
        self.instructions += other.instructions;
        for (a, b) in self.class_counts.iter_mut().zip(&other.class_counts) {
            *a += b;
        }
        if self.per_tasklet_instructions.len() < other.per_tasklet_instructions.len() {
            self.per_tasklet_instructions.resize(other.per_tasklet_instructions.len(), 0);
        }
        for (a, b) in self.per_tasklet_instructions.iter_mut().zip(&other.per_tasklet_instructions)
        {
            *a += b;
        }
        if self.tasklet_stop_cycle.len() < other.tasklet_stop_cycle.len() {
            self.tasklet_stop_cycle.resize(other.tasklet_stop_cycle.len(), 0);
        }
        for (a, b) in self.tasklet_stop_cycle.iter_mut().zip(&other.tasklet_stop_cycle) {
            *a = (*a).max(*b);
        }
        if self.tlp_histogram.len() < other.tlp_histogram.len() {
            self.tlp_histogram.resize(other.tlp_histogram.len(), 0);
        }
        for (a, b) in self.tlp_histogram.iter_mut().zip(&other.tlp_histogram) {
            *a += b;
        }
        self.tlp_timeline.extend_from_slice(&other.tlp_timeline);
        if self.tlp_window == 0 {
            self.tlp_window = other.tlp_window;
        }
        self.dram.merge(&other.dram);
        match (&mut self.icache, &other.icache) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(*b),
            _ => {}
        }
        match (&mut self.dcache, &other.dcache) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(*b),
            _ => {}
        }
        match (&mut self.mmu, &other.mmu) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(*b),
            _ => {}
        }
        self.dma_requests += other.dma_requests;
        if self.freq_mhz == 0 {
            self.freq_mhz = other.freq_mhz;
            self.max_ipc = other.max_ipc;
            self.interface_bytes_per_cycle = other.interface_bytes_per_cycle;
        }
    }

    /// Seals a finished run: the final clock, the instruction total, and
    /// what the memory system and the caches (cache-centric mode) counted
    /// on the way.
    pub(crate) fn seal(
        mut self,
        cycles: u64,
        mem: &MemEngine,
        icache: Option<Cache>,
        dcache: Option<Cache>,
    ) -> Self {
        self.cycles = cycles;
        self.instructions = self.class_counts.iter().sum();
        self.dram = *mem.bank().stats();
        self.mmu = mem.mmu().map(|m| *m.stats());
        self.icache = icache.map(|c| *c.stats());
        self.dcache = dcache.map(|c| *c.stats());
        self.dma_requests = mem.requests_issued;
        self
    }

    /// Records one executed instruction of the given class for `tasklet`.
    pub(crate) fn count_instruction(&mut self, class: InstrClass, tasklet: u32) {
        let idx = InstrClass::ALL.iter().position(|c| *c == class).expect("class in ALL");
        self.count_instruction_idx(idx, tasklet);
    }

    /// [`DpuRunStats::count_instruction`] with the [`InstrClass::ALL`]
    /// index pre-computed (the block-compiled executor stores it in the op
    /// table so the hot path skips the class scan). Identical accounting.
    pub(crate) fn count_instruction_idx(&mut self, idx: usize, tasklet: u32) {
        self.class_counts[idx] += 1;
        self.per_tasklet_instructions[tasklet as usize] += 1;
    }

    /// Fraction of instructions in `class`.
    #[must_use]
    pub fn class_fraction(&self, class: InstrClass) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        let idx = InstrClass::ALL.iter().position(|c| *c == class).expect("class in ALL");
        self.class_counts[idx] as f64 / self.instructions as f64
    }

    /// Executed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Compute utilization in `[0, 1]`: IPC over the configuration's peak
    /// IPC (Fig 5's left axis; Fig 11 uses peak 16 for SIMT points).
    #[must_use]
    pub fn compute_utilization(&self) -> f64 {
        if self.max_ipc == 0 {
            0.0
        } else {
            self.ipc() / f64::from(self.max_ipc)
        }
    }

    /// MRAM read-bandwidth utilization in `[0, 1]`: bytes read from the
    /// bank over the DMA interface's peak over the run (Fig 5's right axis).
    #[must_use]
    pub fn mram_read_utilization(&self) -> f64 {
        if self.cycles == 0 || self.interface_bytes_per_cycle == 0.0 {
            return 0.0;
        }
        self.dram.bytes_read as f64 / (self.cycles as f64 * self.interface_bytes_per_cycle)
    }

    /// Wall-clock nanoseconds the run represents at the configured
    /// frequency.
    #[must_use]
    pub fn time_ns(&self) -> f64 {
        if self.freq_mhz == 0 {
            0.0
        } else {
            self.cycles as f64 * 1000.0 / f64::from(self.freq_mhz)
        }
    }

    /// Idle cycles attributed to memory waits. Fractional: on a cycle
    /// where tasklets idle for different reasons, the cycle is split
    /// proportionally by thread state.
    #[must_use]
    pub fn idle_memory(&self) -> f64 {
        owed_cycles(&self.idle.memory)
    }

    /// Idle cycles attributed to the revolver/pipeline scheduling
    /// constraint (fractional, see [`DpuRunStats::idle_memory`]).
    #[must_use]
    pub fn idle_revolver(&self) -> f64 {
        owed_cycles(&self.idle.revolver)
    }

    /// Fractions of runtime `(active, idle_memory, idle_revolver, idle_rf)`
    /// — the stacked bars of Fig 6.
    #[must_use]
    pub fn breakdown(&self) -> (f64, f64, f64, f64) {
        if self.cycles == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let c = self.cycles as f64;
        (
            self.active_cycles as f64 / c,
            self.idle_memory() / c,
            self.idle_revolver() / c,
            self.idle_rf as f64 / c,
        )
    }

    /// Mean issuable-tasklet count over the run (Fig 7's right axis).
    #[must_use]
    pub fn mean_issuable(&self) -> f64 {
        let cycles: u64 = self.tlp_histogram.iter().sum();
        if cycles == 0 {
            return 0.0;
        }
        let weighted: u64 = self.tlp_histogram.iter().enumerate().map(|(k, n)| k as u64 * n).sum();
        weighted as f64 / cycles as f64
    }

    /// Attributes an idle span of `span` cycles across the waiting
    /// tasklets by wait reason — `n_sched` gated by the pipeline, `n_mem`
    /// by the memory system. The only writer of [`DpuRunStats::idle`].
    #[inline]
    pub(crate) fn record_idle_span(&mut self, span: u64, n_sched: usize, n_mem: usize) {
        let tot = n_sched + n_mem;
        self.idle.memory[tot] += span * n_mem as u64;
        self.idle.revolver[tot] += span * n_sched as u64;
    }

    /// Records `span` cycles with `issuable` issuable tasklets into the
    /// histogram and the timeline accumulator. The reference loop books
    /// each visited cycle, the issue engine each run of cycles with equal
    /// counts: the same integer sums and the same `f32` division at each
    /// flush however the cycles are cut, so the timeline is bit-identical.
    pub(crate) fn record_tlp_span(
        &mut self,
        issuable: usize,
        span: u64,
        window_acc: &mut (u64, u64),
    ) {
        self.tlp_histogram[issuable] += span;
        // Timeline: accumulate (cycles, issuable-cycles) and flush whole
        // windows.
        let (ref mut filled, ref mut sum) = *window_acc;
        // `filled < tlp_window` between calls: a span that leaves the
        // window open only accumulates.
        if span < self.tlp_window - *filled {
            *filled += span;
            *sum += span * issuable as u64;
            return;
        }
        let mut remaining = span;
        while remaining > 0 {
            let take = remaining.min(self.tlp_window - *filled);
            *filled += take;
            *sum += take * issuable as u64;
            remaining -= take;
            if *filled == self.tlp_window {
                self.tlp_timeline.push(*sum as f32 / self.tlp_window as f32);
                *filled = 0;
                *sum = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> DpuRunStats {
        DpuRunStats {
            tlp_histogram: vec![0; 25],
            tlp_window: 10,
            per_tasklet_instructions: vec![0; 4],
            max_ipc: 1,
            freq_mhz: 350,
            interface_bytes_per_cycle: 2.0,
            ..DpuRunStats::default()
        }
    }

    #[test]
    fn instruction_counting_by_class() {
        let mut s = stats();
        s.count_instruction(InstrClass::Arithmetic, 0);
        s.count_instruction(InstrClass::Arithmetic, 1);
        s.count_instruction(InstrClass::Dma, 0);
        s.instructions = s.class_counts.iter().sum();
        assert_eq!(s.instructions, 3);
        assert!((s.class_fraction(InstrClass::Arithmetic) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.per_tasklet_instructions, vec![2, 1, 0, 0]);
    }

    #[test]
    fn ipc_and_utilization() {
        let mut s = stats();
        s.cycles = 100;
        s.instructions = 50;
        assert!((s.ipc() - 0.5).abs() < 1e-9);
        assert!((s.compute_utilization() - 0.5).abs() < 1e-9);
        s.dram.bytes_read = 100;
        // 100 bytes / (100 cycles × 2 B/cycle) = 0.5.
        assert!((s.mram_read_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn time_conversion() {
        let mut s = stats();
        s.cycles = 350;
        assert!((s.time_ns() - 1000.0).abs() < 1e-9, "350 cycles at 350 MHz = 1 µs");
    }

    #[test]
    fn breakdown_sums_to_one_when_attributed() {
        let mut s = stats();
        s.cycles = 10;
        s.active_cycles = 4;
        s.record_idle_span(5, 2, 3);
        s.idle_rf = 1;
        let (a, m, r, f) = s.breakdown();
        assert!((a + m + r + f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tlp_span_recording_and_windows() {
        let mut s = stats();
        let mut acc = (0, 0);
        s.record_tlp_span(4, 15, &mut acc); // fills one window (avg 4), 5 left
        s.record_tlp_span(0, 5, &mut acc); // completes second window: (5*4+5*0)/10 = 2
        assert_eq!(s.tlp_timeline, vec![4.0, 2.0]);
        assert_eq!(s.tlp_histogram[4], 15);
        assert_eq!(s.tlp_histogram[0], 5);
        assert!((s.mean_issuable() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn span_form_matches_the_one_cycle_form_across_window_edges() {
        // Spans that stay inside a window (the one-compare path), end
        // exactly on its edge, cross it and cover several windows — the
        // engine's runs — against the same cycles recorded one at a time,
        // as the reference loop does.
        for seed in 0..8 {
            let mut rng = pim_rng::StdRng::seed_from_u64(seed);
            let (mut span, mut cycle) = (stats(), stats());
            let (mut span_acc, mut cycle_acc) = ((0, 0), (0, 0));
            let mut short = 0;
            for _ in 0..2000 {
                let issuable = rng.gen_range(0..25usize);
                let to_edge = span.tlp_window - span_acc.0;
                let len = match rng.gen_range(0..6u32) {
                    0 => to_edge - 1,
                    1 => to_edge,
                    2 => to_edge + 1,
                    3 => rng.gen_range(0..4 * span.tlp_window),
                    _ => rng.gen_range(0..4u64),
                };
                short += u32::from(len > 0 && len < to_edge);
                span.record_tlp_span(issuable, len, &mut span_acc);
                for _ in 0..len {
                    cycle.record_tlp_span(issuable, 1, &mut cycle_acc);
                }
                assert_eq!(span_acc, cycle_acc);
                assert_eq!(span.tlp_timeline, cycle.tlp_timeline);
            }
            assert_eq!(span.tlp_histogram, cycle.tlp_histogram);
            assert!(short > 500 && span.tlp_timeline.len() > 500, "both paths ran");
        }
    }

    /// A seeded stream of `(span, n_sched, n_mem)` with 0 to 24 waiters.
    fn idle_stream(rng: &mut pim_rng::StdRng) -> Vec<(u64, usize, usize)> {
        (0..200)
            .map(|_| {
                let tot = rng.gen_range(0..25usize);
                let n_mem = rng.gen_range(0..tot + 1);
                (rng.gen_range(1..65u64), tot - n_mem, n_mem)
            })
            .collect()
    }

    fn booked(spans: impl IntoIterator<Item = (u64, usize, usize)>) -> IdleBuckets {
        let mut s = stats();
        for (span, n_sched, n_mem) in spans {
            s.record_idle_span(span, n_sched, n_mem);
        }
        s.idle
    }

    fn shuffled<T>(mut v: Vec<T>, rng: &mut pim_rng::StdRng) -> Vec<T> {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..i + 1));
        }
        v
    }

    #[test]
    fn idle_record_does_not_depend_on_where_spans_are_cut_or_in_which_order() {
        for seed in 0..16 {
            let mut rng = pim_rng::StdRng::seed_from_u64(seed);
            let mut stream = idle_stream(&mut rng);
            let whole = booked(stream.iter().copied());
            let by_cycle =
                stream.iter().flat_map(|&(span, s, m)| (0..span).map(move |_| (1, s, m)));
            assert_eq!(booked(by_cycle), whole, "seed {seed}: cycle by cycle");
            // One span close to the largest a bucket can hold (24 waiters,
            // `u64` numerators), with room left for the stream's own spans.
            let huge = u64::MAX / 24 - 200 * 64;
            let n_mem = rng.gen_range(0..25usize);
            stream.insert(rng.gen_range(0..stream.len()), (huge, 24 - n_mem, n_mem));
            let whole = booked(stream.iter().copied());
            assert!(whole.memory[24] + whole.revolver[24] > u64::MAX / 24 * 23);
            let cut: Vec<_> = stream
                .iter()
                .flat_map(|&(span, s, m)| {
                    let at = rng.gen_range(0..span + 1);
                    [(at, s, m), (span - at, s, m)]
                })
                .collect();
            assert_eq!(booked(cut.iter().copied()), whole, "seed {seed}: every span cut");
            assert_eq!(booked(shuffled(cut, &mut rng)), whole, "seed {seed}: cut and shuffled");
            assert_eq!(booked(shuffled(stream, &mut rng)), whole, "seed {seed}: shuffled");
        }
        // Nobody waiting: nothing is attributed.
        assert_eq!(booked([(5, 0, 0)]), IdleBuckets::default());
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mut rng = pim_rng::StdRng::seed_from_u64(7);
        let [a, b, c] = [0, 1, 2].map(|_| {
            let mut s = stats();
            s.idle = booked(idle_stream(&mut rng));
            s.idle_rf = rng.gen_range(0..1000u64);
            s
        });
        let merged = |parts: &[&DpuRunStats]| {
            let mut sum = stats();
            for part in parts {
                sum.merge(part);
            }
            sum
        };
        let idle = |s: &DpuRunStats| (s.idle.clone(), s.idle_rf);
        assert_eq!(idle(&merged(&[&a, &b])), idle(&merged(&[&b, &a])));
        let (ab, bc) = (merged(&[&a, &b]), merged(&[&b, &c]));
        assert_eq!(idle(&merged(&[&ab, &c])), idle(&merged(&[&a, &bc])));
        assert_ne!(idle(&ab), idle(&a), "the records are not empty");
    }
}
