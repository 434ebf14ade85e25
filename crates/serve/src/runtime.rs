//! The serving runtime: a deterministic virtual-time event loop.
//!
//! One run is a pure function of `(scenario, options)`. Arrivals stream
//! from the seeded `TrafficGen`; the loop then alternates between
//! admitting arrivals whose timestamp has passed and dispatching one
//! *round* — ready retries first, then a batch drained by the scheduling
//! policy, packed onto the slots of the currently *healthy* DPUs. Each
//! round's cost comes from cycle-level simulation of its per-DPU
//! compositions, memoized per run in a `CompositionCache` and per
//! process beneath it (`memoized_profiles`); a run's first-seen
//! compositions are read from the process memo where an earlier run
//! simulated them under an equal config, and only the rest are
//! simulated. Those simulations are the one thing `--threads`
//! parallelizes (via the order-preserving [`JobRunner::map`]), so
//! results are byte-identical at any worker count and whatever the
//! process memo holds.
//!
//! ## The round's data layout
//!
//! A round touches only fixed-width, loop-owned state: the batch, its
//! retry-attempt counts, one `DpuRound` record per occupied DPU, the
//! healthy set and the drawn faults all live in buffers allocated once
//! and reused, a composition is a `[u16; SLOTS_PER_DPU]` (`Composition`),
//! and each occupied DPU resolves its profile to a cache *position* once
//! — the per-request loop then reads `profile(position)` and a per-DPU
//! fault verdict. In the steady state (no first-seen composition, no
//! checkpoint cut) a round performs no heap allocation. Three behaviours
//! are load-bearing for byte-identical results:
//!
//! 1. the occupied DPUs of a round are exactly the first
//!    `ceil(batch / SLOTS_PER_DPU)` healthy ones, in healthy order — the
//!    fault stream is drawn over that prefix;
//! 2. the all-[`EMPTY_SLOT`] composition is profiled, and counted among
//!    the distinct compositions, the first time a round leaves a healthy
//!    DPU idle;
//! 3. first-seen compositions are profiled in sorted, de-duplicated
//!    order through the order-preserving runner, so `traces` and
//!    `--threads` determinism do not depend on packing order.
//!
//! ## Faults, retries, elastic capacity
//!
//! With a [`FaultSpec`], each round draws per-DPU faults from a stream
//! keyed on the round index (see `FaultPlan::round_faults`) and walks
//! a pre-drawn rank-outage schedule. A faulted request is retried with
//! exponential virtual-time backoff up to the spec's budget, then
//! counted `failed`; an offline rank shrinks the healthy set, so the
//! loop keeps serving on degraded capacity and re-absorbs the rank when
//! it rejoins. When every rank is down the loop stalls to the earliest
//! rejoin instead of deadlocking. A fault-free spec reduces exactly to
//! the no-spec path — the differential suite pins the equivalence
//! byte-for-byte.
//!
//! ## Checkpoint/restore
//!
//! [`run_scenario_with_checkpoints`] emits a [`Checkpoint`] at the top
//! of the loop each time virtual time crosses a multiple of the cadence;
//! [`resume_scenario`] rebuilds the loop state from one that fits the run
//! ([`Checkpoint::fit`]) and continues.
//! Because the cut is taken before any event at that virtual time is
//! processed, a resumed run replays the identical event sequence and
//! renders byte-identical results JSON.

use std::collections::BTreeSet;

use pimulator::jobs::JobRunner;
use pimulator::pim_dpu::{DpuConfig, SimError};
use pimulator::pim_host::{from_dpu_ns, to_dpu_ns, ChannelMode, ExecutionTimeline};
use pimulator::pim_trace::MetricsSink;
use pimulator::report::Node;
use pimulator::trace::JobTrace;

use crate::checkpoint::{Checkpoint, RetryEntry};
use crate::fault::{
    FaultKind, FaultPlan, FaultSpec, MAX_BACKOFF_SHIFT, MAX_DURATION_NS, MAX_HORIZON_NS,
};
use crate::kernels::{
    memoized_profiles, request_classes, Composition, CompositionCache, EMPTY_SLOT, SLOTS_PER_DPU,
    TASKLETS_PER_SLOT,
};
use crate::queue::{AdmissionQueue, Request, TenantAdmission};
use crate::scenario::Scenario;
use crate::sched::{policy_by_name_with_weights, SchedulerPolicy};
use crate::slo::LatencySplit;
use crate::traffic::{to_request, TrafficGen};

/// Knobs of one serving run (everything the CLI exposes).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Traffic seed.
    pub seed: u64,
    /// Simulated run length in ms; 0 uses the scenario default.
    pub duration_ms: u64,
    /// Load multiplier on the scenario's base arrival rate.
    pub load: f64,
    /// Worker threads for composition profiling (`None` ⇒ default).
    pub threads: Option<usize>,
    /// Scheduling-policy override (`None` uses the scenario's).
    pub policy: Option<String>,
    /// Per-DPU event-ring capacity for profiling traces; 0 disables.
    pub trace_capacity: usize,
    /// Fault campaign; `None` (or a spec where
    /// [`FaultSpec::is_none`] holds) injects nothing.
    pub faults: Option<FaultSpec>,
    /// CPU↔DPU channel scheduling mode. [`ChannelMode::Blocking`] (the
    /// default) prices rounds as the serial `to + kernel + from` sum —
    /// the pre-v2 numbers, byte-for-byte. [`ChannelMode::Overlapped`]
    /// hides the push under the previous kernel phase, so a round spans
    /// `max(to, kernel) + from` and only the *unhidden* transfer tail
    /// lands in request latencies. [`ChannelMode::Broadcast`] prices like
    /// blocking here: serving pushes per-request payloads, which are
    /// distinct per DPU, so there is nothing to broadcast.
    pub channel: ChannelMode,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            seed: 42,
            duration_ms: 0,
            load: 1.0,
            threads: None,
            policy: None,
            trace_capacity: 0,
            faults: None,
            channel: ChannelMode::Blocking,
        }
    }
}

/// Per-tenant results of one run.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant name from the scenario.
    pub name: &'static str,
    /// Traffic share (arrival-side weight) from the scenario.
    pub share: u32,
    /// Weighted-fair scheduling weight from the scenario.
    pub weight: u32,
    /// Admission counters (offered / admitted / rejected, by reason).
    pub admission: TenantAdmission,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests that exhausted the retry budget and left the system.
    pub failed: u64,
    /// Retry re-dispatches (one per failed attempt that stayed within
    /// budget).
    pub retried: u64,
    /// Completions served while at least one rank was offline.
    pub degraded: u64,
    /// Completions per second of simulated time.
    pub throughput_rps: f64,
    /// Queue / transfer / execute / total latency histograms.
    pub latency: LatencySplit,
}

/// The full, deterministic result of one serving run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Scenario name.
    pub scenario: &'static str,
    /// The policy that actually ran (after any override).
    pub policy: &'static str,
    /// Traffic seed.
    pub seed: u64,
    /// Load multiplier.
    pub load: f64,
    /// Simulated run length, ns (the arrival window; completions may
    /// land later — the loop drains the queue).
    pub duration_ns: u64,
    /// DPUs in the rank.
    pub n_dpus: u32,
    /// Canonical fault-spec label (`"none"` without a campaign).
    pub faults: String,
    /// Channel-mode label the run priced rounds under (`"blocking"`,
    /// `"broadcast"`, `"overlapped"`).
    pub channel: &'static str,
    /// Per-tenant outcomes, in scenario order.
    pub tenants: Vec<TenantOutcome>,
    /// Accumulated transfer/kernel split across all rounds.
    pub timeline: ExecutionTimeline,
    /// Serving counters (`serve_*`), deterministic iteration order.
    pub metrics: MetricsSink,
    /// Scheduling rounds dispatched.
    pub rounds: u64,
    /// Distinct DPU compositions simulated (cache size).
    pub distinct_compositions: usize,
    /// Composition-cache lookups: one per occupied DPU per round. Against
    /// [`ServeOutcome::distinct_compositions`] misses this gives the
    /// cache's hit rate. Not part of the rendered results. A *resumed*
    /// run counts lookups from the cut, while the distinct count spans
    /// the whole run.
    pub composition_lookups: u64,
    /// Profiling event traces, one per distinct composition, present
    /// when [`ServeOptions::trace_capacity`] was non-zero. A *resumed*
    /// run only holds traces of compositions first touched after the
    /// cut (profiles re-simulate; traces are not checkpointed).
    pub traces: Vec<JobTrace>,
}

impl ServeOutcome {
    /// Requests offered across all tenants.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.tenants.iter().map(|t| t.admission.offered).sum()
    }

    /// Requests admitted across all tenants.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.tenants.iter().map(|t| t.admission.admitted).sum()
    }

    /// Requests rejected across all tenants (both reasons).
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.tenants.iter().map(|t| t.admission.rejected()).sum()
    }

    /// Requests completed across all tenants.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Requests that exhausted their retry budget, across all tenants.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.tenants.iter().map(|t| t.failed).sum()
    }

    /// Retry re-dispatches across all tenants.
    #[must_use]
    pub fn retried(&self) -> u64 {
        self.tenants.iter().map(|t| t.retried).sum()
    }

    /// Degraded-capacity completions across all tenants.
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.tenants.iter().map(|t| t.degraded).sum()
    }

    /// Fraction of composition lookups served from the cache: every
    /// distinct composition missed once. 0 for a run that dispatched
    /// nothing; a lower bound on a *resumed* run, whose lookups count
    /// from the cut while the distinct compositions span the whole run.
    #[must_use]
    pub fn composition_hit_rate(&self) -> f64 {
        let hits = self.composition_lookups.saturating_sub(self.distinct_compositions as u64);
        hits as f64 / self.composition_lookups.max(1) as f64
    }

    /// Aggregate completions per simulated second.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        self.tenants.iter().map(|t| t.throughput_rps).sum()
    }

    /// All tenants' latency populations merged into one split (for
    /// whole-scenario percentiles like the saturation sweep's p99).
    #[must_use]
    pub fn aggregate_latency(&self) -> LatencySplit {
        let mut all = LatencySplit::default();
        for t in &self.tenants {
            all.merge(&t.latency);
        }
        all
    }
}

/// A run the virtual clock cannot hold: it counts nanoseconds in a `u64`,
/// and the run could wrap it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunTooLong {
    /// The arrival window is past [`MAX_DURATION_NS`].
    Window {
        /// The length asked for, ms.
        duration_ms: u64,
    },
    /// The waits the fault spec names, on top of the window, put
    /// [`FaultSpec::clock_horizon_ns`] past [`MAX_HORIZON_NS`].
    Horizon {
        /// The horizon, ns (`u64::MAX` when the sum saturated).
        horizon_ns: u64,
    },
}

impl std::fmt::Display for RunTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RunTooLong::Window { duration_ms: ms } => {
                let most = MAX_DURATION_NS / 1_000_000;
                write!(
                    f,
                    "a run of {ms} ms is longer than the virtual clock takes ({most} ms at most)"
                )
            }
            RunTooLong::Horizon { horizon_ns } => write!(
                f,
                "--faults: retries x (timeout_us + backoff_us << {MAX_BACKOFF_SHIFT}) on top of \
                 outage_ms and the run length lets a clock reach {horizon_ns} ns; the virtual \
                 clock takes {MAX_HORIZON_NS} ns"
            ),
        }
    }
}

impl std::error::Error for RunTooLong {}

/// The run length in ns after applying the scenario default.
///
/// # Errors
///
/// [`RunTooLong`] when it is past [`MAX_DURATION_NS`], or when the fault
/// spec's clock horizon for it is past [`MAX_HORIZON_NS`].
pub fn resolved_duration_ns(scenario: &Scenario, opts: &ServeOptions) -> Result<u64, RunTooLong> {
    let ms = if opts.duration_ms > 0 { opts.duration_ms } else { scenario.default_duration_ms };
    let ns = ms
        .checked_mul(1_000_000)
        .filter(|&ns| ns <= MAX_DURATION_NS)
        .ok_or(RunTooLong::Window { duration_ms: ms })?;
    let horizon_ns = opts.faults.unwrap_or_else(FaultSpec::none).clock_horizon_ns(ns);
    if horizon_ns > MAX_HORIZON_NS {
        return Err(RunTooLong::Horizon { horizon_ns });
    }
    Ok(ns)
}

/// The policy that will run (the override, else the scenario's), sized
/// for the scenario's tenants.
pub(crate) fn new_policy(
    scenario: &Scenario,
    opts: &ServeOptions,
) -> Result<Box<dyn SchedulerPolicy>, String> {
    let weights: Vec<u64> = scenario.tenants.iter().map(|t| u64::from(t.weight)).collect();
    let name = opts.policy.as_deref().unwrap_or(scenario.policy);
    policy_by_name_with_weights(name, &weights)
        .ok_or_else(|| format!("unknown scheduling policy {name}"))
}

/// The canonical fault label of a run (`"none"` without a campaign —
/// also for an explicit all-zero spec, so the two render identically).
pub(crate) fn fault_label(opts: &ServeOptions) -> String {
    opts.faults.map_or_else(|| "none".to_string(), |s| s.label())
}

/// The live state of one serving run between rounds — everything a
/// [`Checkpoint`] captures.
struct LoopState {
    gen: TrafficGen,
    next_id: u64,
    queue: AdmissionQueue,
    policy: Box<dyn SchedulerPolicy>,
    retries: Vec<RetryEntry>,
    splits: Vec<LatencySplit>,
    completed: Vec<u64>,
    failed: Vec<u64>,
    retried: Vec<u64>,
    degraded: Vec<u64>,
    timeline: ExecutionTimeline,
    rounds: u64,
    vtime: u64,
    seen: BTreeSet<Composition>,
    outage_cursor: usize,
    active_outages: Vec<(u32, u64)>,
    fault_counts: [u64; 3],
}

impl LoopState {
    fn new(scenario: &Scenario, opts: &ServeOptions, duration_ns: u64) -> Self {
        let n = scenario.tenants.len();
        LoopState {
            gen: TrafficGen::new(scenario, opts.seed, opts.load, duration_ns),
            next_id: 0,
            queue: AdmissionQueue::new(
                scenario.queue_capacity,
                scenario.tenants.iter().map(|t| t.quota).collect(),
            ),
            policy: new_policy(scenario, opts).unwrap_or_else(|e| panic!("{e}")),
            retries: Vec::new(),
            splits: vec![LatencySplit::default(); n],
            completed: vec![0; n],
            failed: vec![0; n],
            retried: vec![0; n],
            degraded: vec![0; n],
            timeline: ExecutionTimeline::default(),
            rounds: 0,
            vtime: 0,
            seen: BTreeSet::new(),
            outage_cursor: 0,
            active_outages: Vec::new(),
            fault_counts: [0; 3],
        }
    }

    /// The state `ck` was cut from, if [`Checkpoint::fit`] finds that it
    /// belongs to this run.
    fn from_checkpoint(
        scenario: &Scenario,
        opts: &ServeOptions,
        duration_ns: u64,
        ck: &Checkpoint,
    ) -> Result<Self, String> {
        ck.fit(scenario, opts)?;
        let mut policy = new_policy(scenario, opts)?;
        policy.restore(Node::root("checkpoint.policy_state", &ck.policy_state))?;
        Ok(LoopState {
            policy,
            gen: TrafficGen::restore(scenario, opts.load, duration_ns, &ck.traffic),
            next_id: ck.next_id,
            queue: AdmissionQueue::restore(
                scenario.queue_capacity,
                scenario.tenants.iter().map(|t| t.quota).collect(),
                ck.queue.clone(),
                ck.admission.clone(),
            ),
            retries: ck.retries.clone(),
            splits: ck.splits.clone(),
            completed: ck.completed.clone(),
            failed: ck.failed.clone(),
            retried: ck.retried.clone(),
            degraded: ck.degraded.clone(),
            timeline: ck.timeline,
            rounds: ck.rounds,
            vtime: ck.vtime,
            seen: ck.seen.iter().copied().collect(),
            outage_cursor: ck.outage_cursor,
            active_outages: ck.active_outages.clone(),
            fault_counts: ck.fault_counts,
        })
    }

    fn to_checkpoint(
        &self,
        scenario: &Scenario,
        opts: &ServeOptions,
        duration_ns: u64,
    ) -> Checkpoint {
        Checkpoint {
            scenario: scenario.name.to_string(),
            policy: self.policy.name().to_string(),
            seed: opts.seed,
            load_bits: opts.load.to_bits(),
            duration_ns,
            faults: fault_label(opts),
            channel: opts.channel.label().to_string(),
            vtime: self.vtime,
            rounds: self.rounds,
            next_id: self.next_id,
            traffic: self.gen.state(),
            queue: self.queue.iter().copied().collect(),
            admission: self.queue.stats().to_vec(),
            retries: self.retries.clone(),
            completed: self.completed.clone(),
            failed: self.failed.clone(),
            retried: self.retried.clone(),
            degraded: self.degraded.clone(),
            splits: self.splits.clone(),
            timeline: self.timeline,
            policy_state: self.policy.snapshot(),
            seen: self.seen.iter().copied().collect(),
            outage_cursor: self.outage_cursor,
            active_outages: self.active_outages.clone(),
            fault_counts: self.fault_counts,
        }
    }
}

/// Runs one serving scenario to completion (the arrival window closes
/// after `duration`, then the queue and retry set drain; every admitted
/// request ends exactly once as completed or failed).
///
/// # Errors
///
/// Propagates a [`SimError`] from composition profiling — a staged
/// transfer out of range or a launch failure.
///
/// # Panics
///
/// Panics if the policy name (override or scenario default) is unknown,
/// the load multiplier is not positive, or the run is too long for the
/// clock ([`resolved_duration_ns`]); the CLI layer checks all three
/// before calling.
pub fn run_scenario(scenario: &Scenario, opts: &ServeOptions) -> Result<ServeOutcome, SimError> {
    run_scenario_with_checkpoints(scenario, opts, 0, &mut |_| {})
}

/// [`run_scenario`], additionally emitting a [`Checkpoint`] to `sink`
/// each time virtual time crosses a multiple of `every_ms` (0 disables).
/// Checkpoints are cut at the top of the loop before any event at that
/// virtual time is processed, so resuming from one replays the identical
/// event sequence.
///
/// # Errors
///
/// Propagates a [`SimError`] from composition profiling.
///
/// # Panics
///
/// As [`run_scenario`].
pub fn run_scenario_with_checkpoints(
    scenario: &Scenario,
    opts: &ServeOptions,
    every_ms: u64,
    sink: &mut dyn FnMut(&Checkpoint),
) -> Result<ServeOutcome, SimError> {
    let duration_ns = resolved_duration_ns(scenario, opts).unwrap_or_else(|why| panic!("{why}"));
    let st = LoopState::new(scenario, opts, duration_ns);
    run_loop(scenario, opts, duration_ns, st, every_ms, sink)
}

/// Continues a run from a [`Checkpoint`] to completion, after checking
/// that the run is the one that cut it ([`Checkpoint::fit`]).
/// `every_ms`/`sink` behave as in [`run_scenario_with_checkpoints`].
///
/// # Errors
///
/// Returns [`Checkpoint::fit`]'s message for a checkpoint of another run
/// (nothing has been simulated then), and a [`SimError`] from composition
/// profiling rendered as `simulation fault: …`.
///
/// # Panics
///
/// Panics if the load multiplier is not positive; the CLI layer
/// validates it before calling.
pub fn resume_scenario(
    scenario: &Scenario,
    opts: &ServeOptions,
    ck: &Checkpoint,
    every_ms: u64,
    sink: &mut dyn FnMut(&Checkpoint),
) -> Result<ServeOutcome, String> {
    let duration_ns = resolved_duration_ns(scenario, opts).map_err(|why| why.to_string())?;
    let st = LoopState::from_checkpoint(scenario, opts, duration_ns, ck)
        .map_err(|why| format!("checkpoint does not fit this run: {why}"))?;
    run_loop(scenario, opts, duration_ns, st, every_ms, sink)
        .map_err(|err| format!("simulation fault: {err}"))
}

/// One occupied DPU's share of a dispatch round.
#[derive(Debug, Clone, Copy)]
struct DpuRound {
    /// The DPU's composition in *canonical* (sorted) form — the cache
    /// key. The cycle cost of a co-located image depends on the multiset
    /// of kernels sharing the DPU, not on which slot each occupies, so
    /// canonicalizing collapses the keyspace from ordered tuples to
    /// multisets.
    canon: Composition,
    /// Batch slot → position in `canon` (duplicates taken in order), so
    /// per-request execute times read the right profile entry.
    assign: [u8; SLOTS_PER_DPU],
    /// Position of `canon`'s profile in the cache; `None` only between
    /// packing and the first-seen profiling pass of the same round.
    profile: Option<usize>,
}

impl DpuRound {
    /// Packs up to [`SLOTS_PER_DPU`] requests onto one DPU, slot by slot.
    fn pack(requests: &[Request], cache: &CompositionCache) -> Self {
        let mut comp = [EMPTY_SLOT; SLOTS_PER_DPU];
        for (slot, r) in comp.iter_mut().zip(requests) {
            *slot = r.class;
        }
        let mut canon = comp;
        canon.sort_unstable();
        let mut assign = [0; SLOTS_PER_DPU];
        let mut used = [false; SLOTS_PER_DPU];
        for (slot, &class) in comp.iter().enumerate() {
            let j = (0..SLOTS_PER_DPU)
                .find(|&j| canon[j] == class && !used[j])
                .expect("canonical form is a permutation");
            used[j] = true;
            assign[slot] = j as u8;
        }
        DpuRound { canon, assign, profile: cache.position(&canon) }
    }
}

#[allow(clippy::too_many_lines)]
fn run_loop(
    scenario: &Scenario,
    opts: &ServeOptions,
    duration_ns: u64,
    mut st: LoopState,
    every_ms: u64,
    sink: &mut dyn FnMut(&Checkpoint),
) -> Result<ServeOutcome, SimError> {
    let spec = opts.faults.unwrap_or_else(FaultSpec::none);
    let plan = FaultPlan::generate(spec, scenario.n_dpus, duration_ns);
    let stuck_timeout_ns = spec.stuck_timeout_us * 1000;
    let backoff_ns = spec.backoff_us * 1000;

    let mut cfg = DpuConfig::paper_baseline(SLOTS_PER_DPU as u32 * TASKLETS_PER_SLOT);
    if scenario.mmu {
        cfg = cfg.with_paper_mmu();
    }
    let runner = JobRunner::new(opts.threads);
    let mut cache = CompositionCache::new();
    let mut traces: Vec<JobTrace> = Vec::new();
    let classes = request_classes();

    let every = every_ms * 1_000_000;
    let next_cut = |vtime: u64| (vtime / every.max(1) + 1) * every;
    let mut next_ckpt = if every > 0 { next_cut(st.vtime) } else { u64::MAX };

    // Round buffers, sized for a full rank once and reused every round.
    let n_dpus = scenario.n_dpus as usize;
    let mut healthy: Vec<u32> = Vec::with_capacity(n_dpus);
    let mut healthy_stale = true;
    let mut batch: Vec<Request> = Vec::with_capacity(n_dpus * SLOTS_PER_DPU);
    let mut attempts: Vec<u32> = Vec::with_capacity(n_dpus * SLOTS_PER_DPU);
    let mut dpus: Vec<DpuRound> = Vec::with_capacity(n_dpus);
    let mut faults: Vec<(u32, FaultKind)> = Vec::with_capacity(n_dpus);
    let mut missing: Vec<Composition> = Vec::new();
    let mut struck_ranks: Vec<u32> = Vec::new();
    let mut idle_profiled = false;
    let mut lookups = 0u64;

    loop {
        // Cut a checkpoint before processing anything at this virtual
        // time — the resumed loop starts exactly here.
        if st.vtime >= next_ckpt {
            sink(&st.to_checkpoint(scenario, opts, duration_ns));
            next_ckpt = next_cut(st.vtime);
        }

        // Elastic capacity: expire outages whose rank rejoined, activate
        // the ones whose onset has passed, then rebuild the healthy set —
        // only when the active outages actually changed.
        let active_before = st.active_outages.len();
        st.active_outages.retain(|&(_, until)| until > st.vtime);
        healthy_stale |= st.active_outages.len() != active_before;
        while st.outage_cursor < plan.outages().len()
            && plan.outages()[st.outage_cursor].at_ns <= st.vtime
        {
            let o = plan.outages()[st.outage_cursor];
            st.outage_cursor += 1;
            if o.until_ns > st.vtime {
                st.active_outages.push((o.rank, o.until_ns));
                healthy_stale = true;
            }
        }
        if healthy_stale {
            healthy.clear();
            healthy.extend((0..scenario.n_dpus).filter(|&d| {
                let rank = plan.rank_of(d);
                !st.active_outages.iter().any(|&(r, _)| r == rank)
            }));
            healthy_stale = false;
        }

        // Admit everything that has arrived by now; rejects are counted
        // inside the queue, never dropped silently.
        st.gen.drain_due(st.vtime, |a| {
            st.queue.offer(to_request(st.next_id, a));
            st.next_id += 1;
        });

        let ready_retries = st.retries.iter().take_while(|r| r.ready_at <= st.vtime).count();
        if st.queue.is_empty() && ready_retries == 0 {
            // Nothing dispatchable: jump to the next event, or finish.
            let next_arrival = st.gen.peek().map(|a| a.at_ns);
            let next_retry = st.retries.first().map(|r| r.ready_at);
            let Some(at) = next_arrival.into_iter().chain(next_retry).min() else { break };
            st.vtime = at;
            continue;
        }
        if healthy.is_empty() {
            // Every rank is offline: stall to the earliest rejoin rather
            // than deadlock (there must be one — the outage put us here).
            st.vtime = st
                .active_outages
                .iter()
                .map(|&(_, until)| until)
                .min()
                .expect("an empty healthy set implies an active outage");
            continue;
        }

        // One round: ready retries first (they already waited out their
        // backoff), then a fresh batch from the policy, packed slot by
        // slot onto the healthy DPUs.
        let capacity = healthy.len() * SLOTS_PER_DPU;
        batch.clear();
        attempts.clear();
        for e in st.retries.drain(..ready_retries.min(capacity)) {
            batch.push(e.req);
            attempts.push(e.attempt);
        }
        if batch.len() < capacity && !st.queue.is_empty() {
            st.policy.next_batch(&mut st.queue, capacity - batch.len(), &mut batch);
        }
        attempts.resize(batch.len(), 0);
        assert!(!batch.is_empty(), "a dispatchable round drains at least one request");

        // Packing fills DPUs in healthy order, so the occupied ones are
        // exactly the first `ceil(batch / SLOTS_PER_DPU)`. Each resolves
        // its profile position here, once. Parallel transfers charge the
        // largest per-DPU chunk (as `try_push_to_mram` does).
        dpus.clear();
        let (mut to_bytes, mut from_bytes) = (0u64, 0u64);
        for requests in batch.chunks(SLOTS_PER_DPU) {
            let dpu = DpuRound::pack(requests, &cache);
            if dpu.profile.is_none() {
                missing.push(dpu.canon);
            }
            dpus.push(dpu);
            let (mut input, mut output) = (0u64, 0u64);
            for r in requests {
                let class = &classes[r.class as usize];
                input += u64::from(class.input_bytes);
                output += u64::from(class.output_bytes);
            }
            to_bytes = to_bytes.max(input);
            from_bytes = from_bytes.max(output);
        }
        let occupied = &healthy[..dpus.len()];
        lookups += dpus.len() as u64;
        // A healthy DPU left idle runs the all-empty composition; it is
        // profiled (and counted) the first time that happens.
        if !idle_profiled && dpus.len() < healthy.len() {
            missing.push([EMPTY_SLOT; SLOTS_PER_DPU]);
            idle_profiled = true;
        }

        // Profile first-seen compositions, in sorted order on the
        // order-preserving runner so threading cannot reorder results;
        // those the process memo already holds are not simulated again.
        // `seen` tracks every key ever cached so a resumed run (which
        // profiles on demand) still reports the uninterrupted
        // distinct-composition count.
        if !missing.is_empty() {
            missing.sort_unstable();
            missing.dedup();
            let profiled = memoized_profiles(&missing, &cfg, opts.trace_capacity, &runner);
            for (comp, res) in missing.drain(..).zip(profiled) {
                let (profile, trace) = res?;
                st.seen.insert(comp);
                cache.insert(comp, profile);
                traces.extend(trace);
            }
            for dpu in &mut dpus {
                dpu.profile = cache.position(&dpu.canon);
            }
        }
        let profile_of = |dpu: &DpuRound| {
            cache.profile(dpu.profile.expect("every packed composition is profiled by now"))
        };

        // The round's cost: the transfers above, and a kernel phase as
        // long as the slowest DPU's makespan — or the watchdog timeout,
        // if a DPU hung.
        let to_ns = to_dpu_ns(to_bytes);
        let from_ns = from_dpu_ns(from_bytes);
        let exec_max_ns = dpus.iter().map(|d| profile_of(d).makespan_ns).fold(0.0f64, f64::max);

        // Draw this round's faults over the occupied DPUs (global ids);
        // a plan without fault rates leaves the buffer empty.
        plan.round_faults(st.rounds, occupied, &mut faults);
        let any_stuck = faults.iter().any(|(_, k)| matches!(k, FaultKind::Stuck { .. }));
        let kernel_ns =
            if any_stuck { exec_max_ns.max(stuck_timeout_ns as f64) } else { exec_max_ns };

        // Overlapped channel: the push streams in while the *previous*
        // round's kernels run, so only its unhidden tail extends the
        // round — `max(to, kernel) + from`. The pull stays synchronous
        // in every mode (the paper's read-back asymmetry). Blocking and
        // broadcast price the serial sum: per-request payloads are
        // distinct per DPU, so a serving round has nothing to broadcast.
        let overlapped = opts.channel == ChannelMode::Overlapped;
        let span_ns =
            if overlapped { to_ns.max(kernel_ns) + from_ns } else { to_ns + kernel_ns + from_ns };
        let transfer_ns = if overlapped {
            (from_ns + (to_ns - kernel_ns).max(0.0)) as u64
        } else {
            (to_ns + from_ns) as u64
        };
        let start = st.vtime;
        let round_end = (start + span_ns as u64).max(start + 1);

        // An outage striking *inside* this round's window takes its rank
        // down mid-flight: every request on it fails with the typed
        // rank-offline fault, and the rank stays out of the healthy set
        // until it rejoins.
        struck_ranks.clear();
        while st.outage_cursor < plan.outages().len()
            && plan.outages()[st.outage_cursor].at_ns < round_end
        {
            let o = plan.outages()[st.outage_cursor];
            st.outage_cursor += 1;
            struck_ranks.push(o.rank);
            st.active_outages.push((o.rank, o.until_ns));
            healthy_stale = true;
        }
        let degraded_round = !st.active_outages.is_empty();

        // Resolve the round DPU by DPU: the fault verdict is per DPU
        // (rank-offline outranks the per-DPU draw — the whole rank is
        // gone), so it is decided once and applied to the DPU's requests.
        // A completion records its latency split; a fault either
        // schedules a backoff retry or, past the budget, counts the
        // request as failed.
        let mut drawn = faults.iter().peekable();
        let mut pushed_retry = false;
        let slots = batch.chunks(SLOTS_PER_DPU).zip(attempts.chunks(SLOTS_PER_DPU));
        for ((dpu, &id), (requests, priors)) in dpus.iter().zip(occupied).zip(slots) {
            // `faults` is a subsequence of `occupied`, so one cursor
            // walks both.
            let drawn_here = drawn.next_if(|&&(d, _)| d == id).map(|&(_, kind)| kind);
            let rank = plan.rank_of(id);
            let fault = if struck_ranks.contains(&rank) {
                Some(FaultKind::RankOffline { rank })
            } else {
                drawn_here
            };
            let Some(kind) = fault else {
                let profile = profile_of(dpu);
                for (r, &slot) in requests.iter().zip(&dpu.assign) {
                    let queue_ns = start - r.arrival_ns;
                    let execute_ns = profile.slot_exec_ns[usize::from(slot)] as u64;
                    st.splits[r.tenant].record(queue_ns, transfer_ns, execute_ns);
                    st.completed[r.tenant] += 1;
                    if degraded_round {
                        st.degraded[r.tenant] += 1;
                    }
                }
                continue;
            };
            st.fault_counts[match kind {
                FaultKind::Transient => 0,
                FaultKind::Stuck { .. } => 1,
                FaultKind::RankOffline { .. } => 2,
            }] += requests.len() as u64;
            for (r, &prior) in requests.iter().zip(priors) {
                let attempt = prior + 1;
                if attempt > spec.max_retries {
                    st.failed[r.tenant] += 1;
                } else {
                    st.retried[r.tenant] += 1;
                    let delay = backoff_ns << (attempt - 1).min(MAX_BACKOFF_SHIFT);
                    st.retries.push(RetryEntry { ready_at: round_end + delay, attempt, req: *r });
                    pushed_retry = true;
                }
            }
        }
        // The retry set stays sorted between rounds (draining takes a
        // prefix), so only a round that pushed has anything to re-sort.
        if pushed_retry {
            st.retries.sort_unstable_by_key(|e| (e.ready_at, e.req.id));
        }

        st.timeline.to_dpu_ns += to_ns;
        st.timeline.kernel_ns += kernel_ns;
        st.timeline.from_dpu_ns += from_ns;
        st.timeline.launches += 1;
        st.rounds += 1;
        st.vtime = round_end;
    }

    let mut metrics = MetricsSink::new();
    let stats = st.queue.stats().to_vec();
    metrics.incr("serve_offered", stats.iter().map(|s| s.offered).sum());
    metrics.incr("serve_admitted", stats.iter().map(|s| s.admitted).sum());
    metrics.incr("serve_rejected_capacity", stats.iter().map(|s| s.rejected_capacity).sum());
    metrics.incr("serve_rejected_quota", stats.iter().map(|s| s.rejected_quota).sum());
    metrics.incr("serve_completed", st.completed.iter().sum());
    metrics.incr("serve_failed", st.failed.iter().sum());
    metrics.incr("serve_retried", st.retried.iter().sum());
    metrics.incr("serve_degraded", st.degraded.iter().sum());
    metrics.incr("serve_faults_transient", st.fault_counts[0]);
    metrics.incr("serve_faults_stuck", st.fault_counts[1]);
    metrics.incr("serve_faults_rank_offline", st.fault_counts[2]);
    metrics.incr("serve_rounds", st.rounds);
    metrics.incr("serve_compositions", st.seen.len() as u64);

    let tenants = scenario
        .tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| TenantOutcome {
            name: spec.name,
            share: spec.share,
            weight: spec.weight,
            admission: stats[t],
            completed: st.completed[t],
            failed: st.failed[t],
            retried: st.retried[t],
            degraded: st.degraded[t],
            throughput_rps: st.completed[t] as f64 * 1e9 / duration_ns as f64,
            latency: st.splits[t].clone(),
        })
        .collect();

    Ok(ServeOutcome {
        scenario: scenario.name,
        policy: st.policy.name(),
        seed: opts.seed,
        load: opts.load,
        duration_ns,
        n_dpus: scenario.n_dpus,
        faults: fault_label(opts),
        channel: opts.channel.label(),
        tenants,
        timeline: st.timeline,
        metrics,
        rounds: st.rounds,
        distinct_compositions: st.seen.len(),
        composition_lookups: lookups,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use pimulator::report::Json;

    use super::*;
    use crate::scenario::scenario_by_name;

    fn opts(threads: usize) -> ServeOptions {
        ServeOptions { threads: Some(threads), ..ServeOptions::default() }
    }

    #[test]
    fn accounting_is_conserved() {
        let s = scenario_by_name("tiny").unwrap();
        let out = run_scenario(s, &opts(1)).unwrap();
        assert!(out.offered() > 0);
        assert_eq!(out.offered(), out.admitted() + out.rejected());
        // Open-loop with a drain phase: everything admitted completes.
        assert_eq!(out.admitted(), out.completed());
        for t in &out.tenants {
            assert_eq!(t.latency.total.count(), t.completed);
        }
        assert_eq!(out.metrics.get("serve_completed"), out.completed());
        assert_eq!(out.rounds, u64::from(out.timeline.launches));
    }

    #[test]
    fn worker_count_does_not_change_the_outcome() {
        // Traced, so both runs bypass the process-wide profile memo and
        // simulate every composition at their own worker count.
        let s = scenario_by_name("tiny").unwrap();
        let a = run_scenario(s, &ServeOptions { trace_capacity: 1, ..opts(1) }).unwrap();
        let b = run_scenario(s, &ServeOptions { trace_capacity: 1, ..opts(4) }).unwrap();
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.timeline, b.timeline);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.admission, y.admission);
            assert_eq!(x.latency.total.slo_triple(), y.latency.total.slo_triple());
            assert_eq!(x.latency.queue.slo_triple(), y.latency.queue.slo_triple());
        }
    }

    #[test]
    fn overload_produces_counted_rejects_and_a_latency_knee() {
        let s = scenario_by_name("tiny").unwrap();
        let light = run_scenario(s, &ServeOptions { load: 0.25, ..opts(2) }).unwrap();
        let heavy = run_scenario(s, &ServeOptions { load: 8.0, ..opts(2) }).unwrap();
        assert!(heavy.rejected() > 0, "overload must hit admission limits");
        let (p99_light, p99_heavy) = (
            light.tenants[0].latency.total.quantile_ns(0.99),
            heavy.tenants[0].latency.total.quantile_ns(0.99),
        );
        assert!(
            p99_heavy > 2 * p99_light,
            "p99 should knee under overload ({p99_light} vs {p99_heavy})"
        );
    }

    #[test]
    fn policy_override_is_honoured() {
        let s = scenario_by_name("tiny").unwrap();
        let out =
            run_scenario(s, &ServeOptions { policy: Some("weighted_fair".into()), ..opts(1) })
                .unwrap();
        assert_eq!(out.policy, "weighted_fair");
    }

    #[test]
    fn a_fault_spec_whose_waits_could_wrap_the_clock_is_refused_with_its_run() {
        let s = scenario_by_name("tiny").unwrap();
        let run = |retries: u32| {
            let text = format!(
                "transient=1000,timeout_us=3600000000,backoff_us=3600000000,retries={retries}"
            );
            let faults = Some(FaultSpec::parse(&text).unwrap());
            resolved_duration_ns(s, &ServeOptions { faults, duration_ms: 1, ..opts(1) })
        };
        // Two hour-long waits shifted 20 bits fit the bound, three do not,
        // and thirty saturate the sum: what used to run and wrap.
        assert_eq!(run(2), Ok(1_000_000));
        assert!(matches!(run(3), Err(RunTooLong::Horizon { horizon_ns }) if horizon_ns < u64::MAX));
        assert_eq!(run(30), Err(RunTooLong::Horizon { horizon_ns: u64::MAX }));
        let line = run(30).unwrap_err().to_string();
        assert!(line.contains("backoff_us") && line.contains("retries") && !line.contains('\n'));
    }

    #[test]
    fn tracing_captures_one_trace_per_composition() {
        let s = scenario_by_name("tiny").unwrap();
        let out = run_scenario(s, &ServeOptions { trace_capacity: 256, ..opts(2) }).unwrap();
        assert_eq!(out.traces.len(), out.distinct_compositions);
        assert!(out.traces.iter().all(|t| t.trace.event_count() > 0));
    }

    #[test]
    fn a_checkpoint_with_a_misshapen_composition_does_not_resume() {
        let s = scenario_by_name("tiny").unwrap();
        let mut cuts = Vec::new();
        run_scenario_with_checkpoints(s, &opts(1), 1, &mut |ck| cuts.push(ck.to_json().render()))
            .unwrap();
        let text = cuts.last().expect("a 2 ms run cuts at 1 ms");
        let decode = |text: &str| Checkpoint::from_json(&Json::parse(text).unwrap());
        let ck = decode(text).unwrap();
        assert!(!ck.seen.is_empty());
        assert!(resume_scenario(s, &opts(1), &ck, 0, &mut |_| {}).is_ok());
        let wide = text.replacen("\"seen\":[[", "\"seen\":[[65535,", 1);
        let err = decode(&wide).unwrap_err();
        assert!(err.starts_with("checkpoint.seen[0]: 5 slots"), "{err}");
    }

    #[test]
    fn an_idle_dpu_profiles_the_empty_composition_exactly_once() {
        const IDLE: &str = "--+--+--+--";
        // Four DPUs at a quarter of the base rate: most rounds carry one
        // or two requests, so nearly every round leaves DPUs idle — yet
        // the all-empty composition is profiled, and counted, once.
        let demo = scenario_by_name("demo").unwrap();
        let light = ServeOptions { load: 0.25, duration_ms: 5, trace_capacity: 64, ..opts(2) };
        let out = run_scenario(demo, &light).unwrap();
        assert!(out.rounds > 10);
        assert!(
            out.composition_lookups < out.rounds * u64::from(out.n_dpus),
            "the window must actually leave DPUs idle"
        );
        assert_eq!(out.traces.iter().filter(|t| t.label == IDLE).count(), 1);
        assert_eq!(out.traces.len(), out.distinct_compositions);
        assert_eq!(out.metrics.get("serve_compositions"), out.distinct_compositions as u64);
        // One DPU is never both healthy and idle in a dispatched round:
        // every lookup is an occupied DPU, and nothing idle is profiled.
        let tiny = scenario_by_name("tiny").unwrap();
        let out = run_scenario(tiny, &ServeOptions { trace_capacity: 64, ..opts(2) }).unwrap();
        assert_eq!(out.composition_lookups, out.rounds);
        assert!(out.traces.iter().all(|t| t.label != IDLE));
        let misses = out.distinct_compositions as f64 / out.rounds as f64;
        assert!((out.composition_hit_rate() - (1.0 - misses)).abs() < 1e-12);
    }

    #[test]
    fn overlapped_channel_conserves_and_shortens_transfer_stalls() {
        let s = scenario_by_name("tiny").unwrap();
        let blocking = run_scenario(s, &opts(2)).unwrap();
        let over =
            run_scenario(s, &ServeOptions { channel: ChannelMode::Overlapped, ..opts(2) }).unwrap();
        assert_eq!(over.channel, "overlapped");
        assert_eq!(over.admitted(), over.completed() + over.failed());
        // Same offered traffic (arrivals are seeded, not timing-fed)…
        assert_eq!(over.offered(), blocking.offered());
        // …but each round only charges the unhidden transfer tail, so the
        // per-request transfer median cannot exceed blocking's.
        let agg_b = blocking.aggregate_latency();
        let agg_o = over.aggregate_latency();
        assert!(
            agg_o.transfer.quantile_ns(0.5) <= agg_b.transfer.quantile_ns(0.5),
            "overlap must not lengthen the transfer phase"
        );
    }

    #[test]
    fn broadcast_channel_prices_exactly_like_blocking_here() {
        // Serving payloads are distinct per DPU: nothing to broadcast,
        // so the mode degenerates to blocking, byte-for-byte.
        let s = scenario_by_name("tiny").unwrap();
        let a = run_scenario(s, &opts(2)).unwrap();
        let b =
            run_scenario(s, &ServeOptions { channel: ChannelMode::Broadcast, ..opts(2) }).unwrap();
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(b.channel, "broadcast");
    }

    #[test]
    fn transient_faults_retry_and_conserve_requests() {
        let s = scenario_by_name("faulty").unwrap();
        let spec = FaultSpec::parse("transient=100,seed=5").unwrap();
        let out = run_scenario(s, &ServeOptions { faults: Some(spec), ..opts(2) }).unwrap();
        assert!(out.retried() > 0, "a 10% transient rate must trigger retries");
        assert_eq!(
            out.admitted(),
            out.completed() + out.failed(),
            "every admitted request ends exactly once"
        );
        assert_eq!(out.metrics.get("serve_faults_transient"), out.retried() + out.failed());
        assert_eq!(out.faults, spec.label());
    }

    #[test]
    fn zero_retry_budget_fails_every_faulted_request() {
        let s = scenario_by_name("faulty").unwrap();
        let spec = FaultSpec::parse("transient=150,retries=0,seed=3").unwrap();
        let out = run_scenario(s, &ServeOptions { faults: Some(spec), ..opts(2) }).unwrap();
        assert!(out.failed() > 0);
        assert_eq!(out.retried(), 0);
        assert_eq!(out.admitted(), out.completed() + out.failed());
    }

    #[test]
    fn stuck_faults_stretch_the_round_clock() {
        let s = scenario_by_name("faulty").unwrap();
        let spec = FaultSpec::parse("stuck=60,timeout_us=5000,seed=11").unwrap();
        let faulty = run_scenario(s, &ServeOptions { faults: Some(spec), ..opts(2) }).unwrap();
        let clean = run_scenario(s, &opts(2)).unwrap();
        assert!(faulty.metrics.get("serve_faults_stuck") > 0);
        assert!(
            faulty.timeline.kernel_ns > clean.timeline.kernel_ns,
            "watchdog timeouts must show up as kernel time"
        );
    }

    #[test]
    fn rank_outage_degrades_but_conserves() {
        let s = scenario_by_name("faulty").unwrap();
        // 2 ranks of 4 DPUs; one outage takes half the capacity down.
        let spec = FaultSpec::parse("outages=2,outage_ms=1,rank_dpus=4,seed=2").unwrap();
        let out = run_scenario(s, &ServeOptions { faults: Some(spec), ..opts(2) }).unwrap();
        assert!(out.degraded() > 0, "completions during the outage count as degraded");
        assert_eq!(out.admitted(), out.completed() + out.failed());
    }

    #[test]
    fn all_ranks_offline_stalls_without_deadlock() {
        let s = scenario_by_name("faulty").unwrap();
        // One rank spanning all 8 DPUs: its outage idles the whole rank.
        let spec = FaultSpec::parse("outages=3,outage_ms=1,rank_dpus=8,seed=4").unwrap();
        let out = run_scenario(s, &ServeOptions { faults: Some(spec), ..opts(2) }).unwrap();
        assert_eq!(out.admitted(), out.completed() + out.failed());
        assert!(out.metrics.get("serve_faults_rank_offline") > 0 || out.degraded() > 0);
    }
}
