//! Structured cycle-level tracing for the PIM simulator.
//!
//! The simulator cores (`pim-dpu`, `pim-dram`, `pim-host`) emit
//! [`TraceEvent`]s into a [`TraceSink`]. Three sinks are provided:
//!
//! * [`NullSink`] — the zero-cost default. `enabled()` returns `false` and
//!   the hot loops are generic over the sink, so with `NullSink` the event
//!   construction is dead code and the pipeline is unchanged.
//! * [`RingSink`] — a bounded per-DPU ring buffer that keeps the most
//!   recent events and counts how many were dropped.
//! * [`MetricsSink`] — a metrics registry folding events into named
//!   counters (instructions retired, stall cycles by cause, DMA traffic,
//!   barrier activity, DRAM row behaviour, host transfer volume).
//!
//! A whole simulated system's trace is a [`SystemTrace`]: the host-side
//! transfer events plus one [`DpuTrace`] per DPU. The Chrome trace-event
//! exporter that turns a `SystemTrace` into a Perfetto-loadable JSON file
//! lives in `pimulator::trace` (it needs the JSON emitter, which would be
//! a dependency cycle from here).

use std::collections::{BTreeMap, VecDeque};

use pim_isa::InstrClass;

/// Why the issue stage spent a cycle without retiring an instruction.
///
/// Mirrors the paper's Fig 6 cycle-breakdown categories: waiting on MRAM
/// (DMA in flight and nothing else runnable), waiting on the revolver
/// (tasklets exist but none is far enough around the pipeline), or blocked
/// by the even/odd register-file port conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// All runnable tasklets are blocked on MRAM DMA.
    Memory,
    /// Runnable tasklets exist but the revolver gap blocks issue.
    Revolver,
    /// The even/odd register-file port conflict blocked issue.
    RegisterFile,
}

impl StallCause {
    /// All causes, in reporting order.
    pub const ALL: [StallCause; 3] =
        [StallCause::Memory, StallCause::Revolver, StallCause::RegisterFile];

    /// Short label used in reports and trace tracks.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Memory => "memory",
            StallCause::Revolver => "revolver",
            StallCause::RegisterFile => "rf",
        }
    }
}

/// One structured simulation event.
///
/// DPU-side events carry the core-clock `cycle` they happened on; host
/// transfer events live on the wall-clock timeline in nanoseconds. In
/// SIMT mode the `tasklet` of DMA events is the issuing *warp* index
/// (coalesced requests belong to the warp, not a single lane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An instruction left the pipeline.
    InstrRetire {
        /// Core cycle of retirement.
        cycle: u64,
        /// Retiring tasklet (SIMT: lane) id.
        tasklet: u32,
        /// Program counter, in instruction slots.
        pc: u32,
        /// Instruction-mix class.
        class: InstrClass,
    },
    /// The issue stage spent `cycles` consecutive cycles stalled.
    Stall {
        /// First stalled core cycle.
        cycle: u64,
        /// Length of the stalled span, in cycles.
        cycles: u64,
        /// Dominant cause of the stall.
        cause: StallCause,
    },
    /// A WRAM↔MRAM DMA request was issued.
    DmaBegin {
        /// Core cycle of issue.
        cycle: u64,
        /// Issuing tasklet (SIMT: warp) id.
        tasklet: u32,
        /// MRAM byte address of the transfer.
        mram: u32,
        /// Transfer length in bytes.
        bytes: u32,
        /// `true` for WRAM→MRAM writes.
        write: bool,
    },
    /// A previously issued DMA request completed.
    DmaEnd {
        /// Core cycle of completion.
        cycle: u64,
        /// Tasklet (SIMT: warp) id whose request finished.
        tasklet: u32,
    },
    /// An `acquire` on an atomic bit retired.
    BarrierAcquire {
        /// Core cycle of the attempt.
        cycle: u64,
        /// Attempting tasklet id.
        tasklet: u32,
        /// Atomic bit index.
        bit: u32,
        /// `false` when the bit was held and the tasklet will retry.
        acquired: bool,
    },
    /// A `release` of an atomic bit retired.
    BarrierRelease {
        /// Core cycle of the release.
        cycle: u64,
        /// Releasing tasklet id.
        tasklet: u32,
        /// Atomic bit index.
        bit: u32,
    },
    /// The DRAM bank activated a row (`ACT`).
    RowActivate {
        /// Core cycle of the activate.
        cycle: u64,
        /// Row index.
        row: u32,
    },
    /// The DRAM bank precharged the open row (`PRE`).
    RowPrecharge {
        /// Core cycle of the precharge.
        cycle: u64,
        /// Row index being closed.
        row: u32,
    },
    /// A host→DPU transfer was charged to the timeline.
    HostPush {
        /// Timeline position when the transfer started, in ns.
        at_ns: f64,
        /// Transfer duration in ns.
        ns: f64,
        /// Bytes moved (max per DPU for parallel transfers).
        bytes: u64,
    },
    /// A DPU→host transfer was charged to the timeline.
    HostPull {
        /// Timeline position when the transfer started, in ns.
        at_ns: f64,
        /// Transfer duration in ns.
        ns: f64,
        /// Bytes moved (max per DPU for parallel transfers).
        bytes: u64,
    },
}

/// Receives [`TraceEvent`]s from the simulator cores.
///
/// Hot loops are generic over the sink and gate event *construction* on
/// [`TraceSink::enabled`], so a sink whose `enabled` is a constant `false`
/// (like [`NullSink`]) compiles to the untraced pipeline.
pub trait TraceSink {
    /// Whether this sink wants events at all. Constant per sink type.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn emit(&mut self, event: TraceEvent);
}

/// The zero-cost "tracing off" sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _event: TraceEvent) {}
}

/// The drained contents of one DPU's ring buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpuTrace {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the ring was full.
    pub dropped: u64,
}

/// A bounded ring buffer keeping the most recent events.
///
/// When full, the oldest event is evicted and counted; [`RingSink::take`]
/// hands the count over as [`DpuTrace::dropped`]. The tail of a run is
/// usually the interesting part (the steady state plus the finish), and a
/// hard bound keeps memory per DPU predictable.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RingSink { capacity, events: VecDeque::with_capacity(capacity.min(4096)), dropped: 0 }
    }

    /// Drains the ring into a [`DpuTrace`], resetting the drop counter.
    pub fn take(&mut self) -> DpuTrace {
        DpuTrace {
            events: std::mem::take(&mut self.events).into(),
            dropped: std::mem::take(&mut self.dropped),
        }
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// A metrics registry: folds events into named counters.
///
/// Counter names are stable strings (`instr_retired`, `stall_*_cycles`,
/// `dma_*`, `barrier_*`, `dram_row_*`, `host_*`) and iterate in sorted
/// order, so reports built from a `MetricsSink` are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSink {
    counters: BTreeMap<&'static str, u64>,
}

impl MetricsSink {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsSink::default()
    }

    fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increments a named counter directly, for subsystems (like the
    /// serving runtime) whose bookkeeping is not expressed as
    /// [`TraceEvent`]s but should land in the same deterministic registry.
    pub fn incr(&mut self, name: &'static str, n: u64) {
        self.add(name, n);
    }

    /// Reads one counter (0 if never incremented).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    #[must_use]
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Folds a batch of already-collected events into the registry.
    pub fn absorb<'a>(&mut self, events: impl IntoIterator<Item = &'a TraceEvent>) {
        for ev in events {
            self.emit(*ev);
        }
    }
}

impl TraceSink for MetricsSink {
    fn emit(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::InstrRetire { .. } => self.add("instr_retired", 1),
            TraceEvent::Stall { cycles, cause, .. } => self.add(
                match cause {
                    StallCause::Memory => "stall_memory_cycles",
                    StallCause::Revolver => "stall_revolver_cycles",
                    StallCause::RegisterFile => "stall_rf_cycles",
                },
                cycles,
            ),
            TraceEvent::DmaBegin { bytes, write, .. } => {
                self.add("dma_requests", 1);
                self.add(
                    if write { "dma_bytes_written" } else { "dma_bytes_read" },
                    u64::from(bytes),
                );
            }
            TraceEvent::DmaEnd { .. } => self.add("dma_completions", 1),
            TraceEvent::BarrierAcquire { acquired, .. } => {
                self.add(if acquired { "barrier_acquires" } else { "barrier_retries" }, 1);
            }
            TraceEvent::BarrierRelease { .. } => self.add("barrier_releases", 1),
            TraceEvent::RowActivate { .. } => self.add("dram_row_activates", 1),
            TraceEvent::RowPrecharge { .. } => self.add("dram_row_precharges", 1),
            TraceEvent::HostPush { bytes, .. } => {
                self.add("host_push_transfers", 1);
                self.add("host_push_bytes", bytes);
            }
            TraceEvent::HostPull { bytes, .. } => {
                self.add("host_pull_transfers", 1);
                self.add("host_pull_bytes", bytes);
            }
        }
    }
}

/// A whole system's trace: host transfer events plus one ring's worth of
/// events per DPU, stamped with the core frequency so cycle timestamps can
/// be converted to wall time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemTrace {
    /// DPU core frequency, for cycle→time conversion.
    pub freq_mhz: u32,
    /// Host-side push/pull transfer events, in timeline order.
    pub host: Vec<TraceEvent>,
    /// Per-DPU retained events.
    pub per_dpu: Vec<DpuTrace>,
}

impl SystemTrace {
    /// Total retained events across host and DPUs.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.host.len() + self.per_dpu.iter().map(|d| d.events.len()).sum::<usize>()
    }

    /// Total events evicted from the per-DPU rings.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.per_dpu.iter().map(|d| d.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retire(cycle: u64) -> TraceEvent {
        TraceEvent::InstrRetire { cycle, tasklet: 0, pc: 0, class: InstrClass::Arithmetic }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(retire(1)); // no-op
    }

    #[test]
    fn ring_keeps_the_most_recent_events_and_counts_drops() {
        let mut r = RingSink::new(3);
        assert!(r.enabled());
        for c in 0..5 {
            r.emit(retire(c));
        }
        assert_eq!(r.events.len(), 3);
        assert_eq!(r.dropped, 2);
        let t = r.take();
        assert_eq!(
            t.events
                .iter()
                .map(|e| match e {
                    TraceEvent::InstrRetire { cycle, .. } => *cycle,
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(t.dropped, 2);
        assert!(r.events.is_empty());
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut r = RingSink::new(0);
        r.emit(retire(0));
        assert!(r.events.is_empty());
        assert_eq!(r.dropped, 1);
    }

    #[test]
    fn metrics_fold_by_kind_and_cause() {
        let mut m = MetricsSink::new();
        m.emit(retire(0));
        m.emit(retire(1));
        m.emit(TraceEvent::Stall { cycle: 2, cycles: 7, cause: StallCause::Memory });
        m.emit(TraceEvent::Stall { cycle: 9, cycles: 1, cause: StallCause::RegisterFile });
        m.emit(TraceEvent::DmaBegin { cycle: 3, tasklet: 1, mram: 64, bytes: 256, write: false });
        m.emit(TraceEvent::DmaEnd { cycle: 40, tasklet: 1 });
        m.emit(TraceEvent::BarrierAcquire { cycle: 5, tasklet: 2, bit: 0, acquired: false });
        m.emit(TraceEvent::BarrierAcquire { cycle: 6, tasklet: 2, bit: 0, acquired: true });
        m.emit(TraceEvent::BarrierRelease { cycle: 7, tasklet: 2, bit: 0 });
        m.emit(TraceEvent::RowActivate { cycle: 8, row: 3 });
        m.emit(TraceEvent::RowPrecharge { cycle: 9, row: 3 });
        m.emit(TraceEvent::HostPush { at_ns: 0.0, ns: 10.0, bytes: 1024 });
        m.emit(TraceEvent::HostPull { at_ns: 20.0, ns: 5.0, bytes: 512 });
        assert_eq!(m.get("instr_retired"), 2);
        assert_eq!(m.get("stall_memory_cycles"), 7);
        assert_eq!(m.get("stall_rf_cycles"), 1);
        assert_eq!(m.get("stall_revolver_cycles"), 0);
        assert_eq!(m.get("dma_requests"), 1);
        assert_eq!(m.get("dma_bytes_read"), 256);
        assert_eq!(m.get("dma_completions"), 1);
        assert_eq!(m.get("barrier_retries"), 1);
        assert_eq!(m.get("barrier_acquires"), 1);
        assert_eq!(m.get("barrier_releases"), 1);
        assert_eq!(m.get("dram_row_activates"), 1);
        assert_eq!(m.get("dram_row_precharges"), 1);
        assert_eq!(m.get("host_push_bytes"), 1024);
        assert_eq!(m.get("host_pull_bytes"), 512);
        // Sorted, deterministic iteration.
        let names: Vec<_> = m.counters().iter().map(|(k, _)| *k).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn system_trace_aggregates() {
        let mut ring = RingSink::new(8);
        ring.emit(retire(0));
        ring.emit(TraceEvent::DmaBegin { cycle: 1, tasklet: 0, mram: 0, bytes: 64, write: true });
        let st = SystemTrace {
            freq_mhz: 350,
            host: vec![TraceEvent::HostPush { at_ns: 0.0, ns: 1.0, bytes: 64 }],
            per_dpu: vec![ring.take(), DpuTrace::default()],
        };
        assert_eq!(st.event_count(), 3);
        assert_eq!(st.dropped(), 0);
    }
}
