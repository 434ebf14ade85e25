//! The parallel experiment job engine.
//!
//! The paper's PIMulator runs at ≈3 KIPS single-threaded and leaves
//! multi-threaded simulation as future work (§III-D). This module closes
//! the harness half of that gap: every figure/table sweep in
//! [`crate::experiments`] is expanded into independent [`SimJob`]s and
//! executed by a [`JobRunner`] on a bounded worker pool, while **results
//! are always returned in job order**, so tables and JSON stay
//! bit-identical to a serial run regardless of worker count or scheduling.
//!
//! Workloads share no mutable state across jobs (each job builds its own
//! `PimSystem`), which is what makes the fan-out safe; determinism comes
//! from the order-restoring collection step, not from scheduling.
//!
//! # Example
//!
//! ```
//! use pimulator::jobs::{JobRunner, SimJob};
//! use pimulator::experiments::baseline;
//! use prim_suite::DatasetSize;
//!
//! let rt = JobRunner::new(Some(2));
//! let jobs = vec![
//!     SimJob::single("VA", DatasetSize::Tiny, baseline(4)),
//!     SimJob::single("RED", DatasetSize::Tiny, baseline(4)),
//! ];
//! let outs = rt.run_sims(&jobs).unwrap();
//! assert_eq!(outs.len(), 2);
//! assert!(outs[0].stats.instructions > 0);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pim_dpu::{DpuConfig, DpuRunStats, SimError};
use pim_host::ExecutionTimeline;
use pim_trace::SystemTrace;
use prim_suite::{workload_by_name, DatasetSize, RunConfig};

use crate::trace::JobTrace;

/// The number of workers [`JobRunner::new`] uses when none is requested:
/// `std::thread::available_parallelism`, clamped to at least 1.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// One independent simulation of a PrIM workload: everything needed to run
/// it end-to-end, plus a `tag` naming the design point it represents
/// (`"Base"`, `"SIMT+AC"`, `"mmu"`, …) so sweep post-processing can group
/// rows without re-deriving labels from configurations.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// PrIM workload name (resolved with [`prim_suite::workload_by_name`]).
    pub workload: String,
    /// Dataset configuration to run at.
    pub size: DatasetSize,
    /// Full run configuration (DPU knobs, DPU count, transfer channel).
    pub run: RunConfig,
    /// Design-point / mode label carried through to the results.
    pub tag: String,
}

impl SimJob {
    /// A single-DPU job with an empty tag.
    #[must_use]
    pub fn single(workload: &str, size: DatasetSize, cfg: DpuConfig) -> Self {
        SimJob {
            workload: workload.to_string(),
            size,
            run: RunConfig::single(cfg),
            tag: String::new(),
        }
    }

    /// A multi-DPU strong-scaling job with an empty tag.
    #[must_use]
    pub(crate) fn multi(workload: &str, size: DatasetSize, n_dpus: u32, cfg: DpuConfig) -> Self {
        SimJob {
            workload: workload.to_string(),
            size,
            run: RunConfig::multi(n_dpus, cfg),
            tag: String::new(),
        }
    }

    /// Attaches a design-point tag.
    #[must_use]
    pub(crate) fn tagged(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Tasklets per DPU of this job.
    #[must_use]
    pub(crate) fn threads(&self) -> u32 {
        self.run.dpu.n_tasklets
    }

    /// A label naming this job in trace tracks and result files:
    /// `workload[/tag]@threads`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.tag.is_empty() {
            format!("{}@{}", self.workload, self.threads())
        } else {
            format!("{}/{}@{}", self.workload, self.tag, self.threads())
        }
    }

    /// Runs the job end-to-end and validates the output against the
    /// workload's reference implementation.
    ///
    /// # Errors
    ///
    /// Propagates the simulation fault, if any.
    ///
    /// # Panics
    ///
    /// Panics if the workload name is unknown or the simulated output does
    /// not match the reference (an experiment must never silently report
    /// numbers from a wrong computation).
    pub fn execute(&self) -> Result<SimJobOutput, SimError> {
        let w = workload_by_name(&self.workload)
            .unwrap_or_else(|| panic!("unknown workload `{}`", self.workload));
        let mut run = w.run(self.size, &self.run)?;
        run.validation
            .as_ref()
            .unwrap_or_else(|e| panic!("{} failed validation: {e}", self.workload));
        Ok(SimJobOutput {
            stats: run.merged(),
            per_dpu: run.per_dpu,
            timeline: run.timeline,
            trace: run.trace.take(),
        })
    }
}

/// What one [`SimJob`] produced.
#[derive(Debug, Clone)]
pub struct SimJobOutput {
    /// Statistics merged across every DPU and launch.
    pub stats: DpuRunStats,
    /// Per-DPU statistics.
    pub per_dpu: Vec<DpuRunStats>,
    /// End-to-end transfer/kernel/transfer breakdown.
    pub timeline: ExecutionTimeline,
    /// Structured event trace, present when the job's config enabled
    /// tracing (`event_trace_capacity`). A runner built with
    /// [`JobRunner::collecting_traces`] moves it into its collector, so
    /// that runner's outputs carry none.
    pub trace: Option<SystemTrace>,
}

/// A bounded scoped-thread worker pool that maps a function over a slice
/// of items and returns results **in item order**.
#[derive(Debug, Clone)]
pub struct JobRunner {
    workers: usize,
    /// When tracing: the per-DPU event-ring capacity applied to every job,
    /// and the shared sink harvesting labelled traces out of experiment
    /// code that only looks at stats (see [`JobRunner::collecting_traces`]).
    trace: Option<(usize, Arc<Mutex<Vec<JobTrace>>>)>,
}

impl JobRunner {
    /// A runner with `workers` threads (`None` ⇒ [`default_workers`]).
    /// Worker counts are clamped to at least 1.
    #[must_use]
    pub fn new(workers: Option<usize>) -> Self {
        JobRunner { workers: workers.unwrap_or_else(default_workers).max(1), trace: None }
    }

    /// A single-worker runner: jobs execute one by one on the caller's
    /// thread, in order — the reference against which parallel runs are
    /// checked for bit-identical output.
    #[must_use]
    pub fn serial() -> Self {
        JobRunner { workers: 1, trace: None }
    }

    /// Enables structured event tracing: every job runs with a per-DPU
    /// event ring of `capacity` entries, and its trace moves out of its
    /// [`SimJobOutput`] into a shared collector, labelled with
    /// [`SimJob::label`]. Experiment code that only reads stats can then
    /// run unmodified while the driver harvests the traces afterwards with
    /// [`JobRunner::collected_traces`]. Clones share the collector.
    /// Capacity 0 disables tracing again.
    #[must_use]
    pub fn collecting_traces(mut self, capacity: usize) -> Self {
        self.trace = (capacity > 0).then(|| (capacity, Arc::default()));
        self
    }

    /// Drains the traces harvested so far, in batch-completion order
    /// (within a batch, in job order).
    #[must_use]
    pub fn collected_traces(&self) -> Vec<JobTrace> {
        self.trace.as_ref().map_or_else(Vec::new, |(_, s)| {
            std::mem::take(&mut *s.lock().expect("trace sink poisoned"))
        })
    }

    /// The worker cap.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` on at most [`JobRunner::workers`] scoped
    /// threads. `f` receives `(index, item)`. The returned vector is in
    /// item order regardless of which worker ran what.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n_workers = self.workers.min(items.len());
        if n_workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
        std::thread::scope(|scope| {
            for _ in 0..n_workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    collected.lock().expect("result sink poisoned").extend(local);
                });
            }
        });
        let mut tagged = collected.into_inner().expect("result sink poisoned");
        tagged.sort_by_key(|(i, _)| *i);
        debug_assert_eq!(tagged.len(), items.len());
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    /// Executes a batch of [`SimJob`]s, returning outputs in job order.
    ///
    /// # Errors
    ///
    /// Returns the fault of the **first job in job order** that failed
    /// (independent of which worker hit a fault first, to keep error
    /// reporting deterministic too).
    pub fn run_sims(&self, jobs: &[SimJob]) -> Result<Vec<SimJobOutput>, SimError> {
        if let Some((capacity, sink)) = &self.trace {
            let traced: Vec<SimJob> = jobs
                .iter()
                .map(|job| {
                    let mut job = job.clone();
                    job.run.dpu.event_trace_capacity = *capacity;
                    job
                })
                .collect();
            let mut outs: Vec<SimJobOutput> =
                self.map(&traced, |_, job| job.execute()).into_iter().collect::<Result<_, _>>()?;
            let mut sink = sink.lock().expect("trace sink poisoned");
            for (job, out) in traced.iter().zip(outs.iter_mut()) {
                if let Some(trace) = out.trace.take() {
                    sink.push(JobTrace { label: job.label(), trace });
                }
            }
            return Ok(outs);
        }
        self.map(jobs, |_, job| job.execute()).into_iter().collect()
    }
}

impl Default for JobRunner {
    fn default() -> Self {
        JobRunner::new(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::baseline;

    #[test]
    fn map_preserves_item_order() {
        let rt = JobRunner::new(Some(4));
        let items: Vec<u64> = (0..64).collect();
        let out = rt.map(&items, |i, &x| {
            // Stagger completion so fast jobs finish before slow ones.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 10
        });
        assert_eq!(out, (0..64).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let serial = JobRunner::serial().map(&items, |i, &x| x + i as u64);
        let parallel = JobRunner::new(Some(8)).map(&items, |i, &x| x + i as u64);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_counts_are_clamped() {
        assert_eq!(JobRunner::new(Some(0)).workers(), 1);
        assert!(JobRunner::new(None).workers() >= 1);
    }

    #[test]
    fn sim_jobs_run_and_validate() {
        let rt = JobRunner::new(Some(2));
        let jobs = vec![
            SimJob::single("VA", DatasetSize::Tiny, baseline(2)).tagged("a"),
            SimJob::single("RED", DatasetSize::Tiny, baseline(2)).tagged("b"),
            SimJob::multi("VA", DatasetSize::Tiny, 2, baseline(2)),
        ];
        let outs = rt.run_sims(&jobs).unwrap();
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|o| o.stats.instructions > 0));
        assert_eq!(outs[2].per_dpu.len(), 2);
    }

    #[test]
    fn collecting_traces_harvests_labelled_traces() {
        let rt = JobRunner::new(Some(2)).collecting_traces(1024);
        let jobs = vec![SimJob::single("VA", DatasetSize::Tiny, baseline(2)).tagged("t")];
        let outs = rt.run_sims(&jobs).unwrap();
        assert!(outs[0].trace.is_none(), "trace moved into the collector");
        let traces = rt.collected_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].label, "VA/t@2");
        assert!(traces[0].trace.event_count() > 0);
        assert!(rt.collected_traces().is_empty(), "collector drains on read");
    }

    #[test]
    fn parallel_sim_results_match_serial_bit_for_bit() {
        let jobs: Vec<SimJob> = ["VA", "RED", "BS", "GEMV"]
            .iter()
            .map(|w| SimJob::single(w, DatasetSize::Tiny, baseline(4)))
            .collect();
        let serial = JobRunner::serial().run_sims(&jobs).unwrap();
        let parallel = JobRunner::new(Some(4)).run_sims(&jobs).unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.stats.cycles, p.stats.cycles);
            assert_eq!(s.stats.instructions, p.stats.instructions);
            assert!((s.timeline.total_ns() - p.timeline.total_ns()).abs() < 1e-12);
        }
    }
}
