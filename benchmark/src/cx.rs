//! What a pass carries: the tracer and the tallies every case adds to.

use pim_dpu::DpuRunStats;
use pim_host::ExecutionTimeline;
use pim_serve::ServeOutcome;

use crate::digest::Digest;
use crate::span::Tracer;

/// Serving counters summed over the `run_scenario` calls of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeTally {
    pub rounds: u64,
    /// Rounds × DPUs: the composition look-ups an always-full system makes.
    pub dpu_rounds: u64,
    pub offered: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub failed: u64,
    pub retried: u64,
    pub degraded: u64,
    pub distinct_compositions: u64,
    /// Modelled throughput, p50 and p99 (µs) of the pass's first scenario.
    pub first: Option<(f64, f64, f64)>,
}

/// Everything one pass counted. Reset before each pass; `work` holds the
/// exact counts the throughput metrics divide by host time.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Benchmark operations attempted / failed (`failed_frac`).
    pub ops: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub failures: Vec<String>,
    /// Simulated instructions and DPU cycles read from returned reports.
    pub instr: u64,
    pub cycles: u64,
    /// Simulated requests completed by the serving runs.
    pub requests: u64,
    /// Golden result rows, fuzz cases, tuned-table entries and serving
    /// compositions profiled: what `short_jobs` counts as jobs.
    pub jobs: u64,
    /// Modelled statistics merged over every `DpuRunStats` of the pass
    /// (filled only while tracing: merging is harness work).
    pub model: DpuRunStats,
    /// Simulated timeline, summed over cases.
    pub sim_to_dpu_ns: f64,
    pub sim_kernel_ns: f64,
    pub sim_from_dpu_ns: f64,
    pub sim_wall_ns: f64,
    /// Simulated wall of the VA/16-DPU pair, blocking and overlapped.
    pub overlap_pair: (f64, f64),
    pub push_bytes: u64,
    pub pull_bytes: u64,
    pub prim_instr: u64,
    pub prim_validation_failures: u64,
    pub golden_mismatches: u64,
    pub serve: ServeTally,
    pub fuzz_cases: u64,
    pub fuzz_cells: u64,
    pub fuzz_failures: u64,
    pub tune_points: u64,
}

#[derive(Debug)]
pub struct Cx {
    pub tr: Tracer,
    pub tally: Tally,
    pub digest: Digest,
}

impl Cx {
    pub fn new() -> Self {
        Cx { tr: Tracer::new(), tally: Tally::default(), digest: Digest::new() }
    }

    /// Clears the tallies and the digest before a pass.
    pub fn begin_pass(&mut self) {
        self.tally = Tally::default();
        self.digest = Digest::new();
    }

    /// Records the verdict of one benchmark operation.
    pub fn op(&mut self, case: &str, verdict: Result<(), String>) {
        self.tally.ops += 1;
        if let Err(why) = verdict {
            self.tally.failed += 1;
            if self.tally.failures.len() < 8 {
                self.tally.failures.push(format!("{case}: {why}"));
            }
        }
    }

    /// Counts the simulated work of one launch set and pins its
    /// statistics in the digest.
    pub fn stats(&mut self, per_dpu: &[DpuRunStats]) {
        for s in per_dpu {
            self.tally.instr += s.instructions;
            self.tally.cycles += s.cycles;
            for x in [
                s.instructions,
                s.cycles,
                s.dma_requests,
                s.dram.reads,
                s.dram.writes,
                s.dram.row_hits,
            ] {
                self.digest.u64(x);
            }
            if self.tr.on {
                self.tally.model.merge(s);
            }
        }
    }

    /// Adds one case's simulated transfer/kernel/transfer breakdown.
    pub fn timeline(&mut self, t: &ExecutionTimeline) {
        for x in [t.to_dpu_ns, t.kernel_ns, t.from_dpu_ns, t.wall_ns()] {
            self.digest.f64(x);
        }
        self.tally.sim_to_dpu_ns += t.to_dpu_ns;
        self.tally.sim_kernel_ns += t.kernel_ns;
        self.tally.sim_from_dpu_ns += t.from_dpu_ns;
        self.tally.sim_wall_ns += t.wall_ns();
    }

    /// Adds one serving outcome: counters, digest, and the conservation
    /// check every `run_scenario` operation must pass.
    pub fn serve_outcome(&mut self, out: &ServeOutcome) -> Result<(), String> {
        let lat = out.aggregate_latency();
        let (p50, _, p99) = lat.total.slo_triple();
        for x in [out.offered(), out.completed(), out.failed(), out.retried(), out.rounds, p99] {
            self.digest.u64(x);
        }
        let s = &mut self.tally.serve;
        s.rounds += out.rounds;
        s.dpu_rounds += out.rounds * u64::from(out.n_dpus);
        s.offered += out.offered();
        s.admitted += out.admitted();
        s.rejected += out.rejected();
        s.completed += out.completed();
        s.failed += out.failed();
        s.retried += out.retried();
        s.degraded += out.degraded();
        s.distinct_compositions += out.distinct_compositions as u64;
        s.first.get_or_insert((out.throughput_rps(), p50 as f64 / 1e3, p99 as f64 / 1e3));
        self.tally.requests += out.completed();
        self.tally.jobs += out.distinct_compositions as u64;
        self.timeline(&out.timeline);
        if out.offered() != out.admitted() + out.rejected() {
            return Err(format!(
                "offered {} != admitted {} + rejected {}",
                out.offered(),
                out.admitted(),
                out.rejected()
            ));
        }
        // The loop drains its queue and retries before it returns, so every
        // admitted request has either completed or exhausted its retries.
        if out.admitted() != out.completed() + out.failed() {
            return Err(format!(
                "admitted {} != completed {} + failed {}",
                out.admitted(),
                out.completed(),
                out.failed()
            ));
        }
        Ok(())
    }
}
