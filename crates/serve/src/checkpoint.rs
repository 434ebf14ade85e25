//! Deterministic checkpoint/restore of the serving event loop.
//!
//! A [`Checkpoint`] captures everything the loop needs to continue a run
//! from a virtual-time cut: the traffic generator's RNG words, the
//! admission queue and its counters, the pending retry set, per-tenant
//! accounting and SLO histograms, the scheduling policy's internal
//! state, the composition-cache *key set*, and the fault-plan cursor.
//! Floats (the transfer/kernel timeline) are stored as raw IEEE bits so
//! the JSON round-trip is exact; everything else is integers. Resuming
//! from a checkpoint and running to completion produces results JSON
//! **byte-identical** to the uninterrupted run — pinned by
//! `tests/serving_faults.rs`.
//!
//! The composition cache itself (cycle-level profiles) is deliberately
//! *not* serialized: profiles are a pure function of the composition, so
//! a resumed run re-simulates on first touch and reaches the same
//! numbers; only the key set travels, to keep the
//! `distinct_compositions` count exact.

use std::fmt::Display;

use pimulator::pim_host::ExecutionTimeline;
use pimulator::report::{Json, Node};

use crate::fault::FaultSpec;
use crate::kernels::{request_classes, Composition, EMPTY_SLOT, SLOTS_PER_DPU};
use crate::queue::{Request, TenantAdmission};
use crate::runtime::{fault_label, new_policy, resolved_duration_ns, ServeOptions};
use crate::scenario::Scenario;
use crate::slo::LatencySplit;
use crate::traffic::{Arrival, TrafficState};

/// Schema marker of the checkpoint document. Bumped to `/2` when the
/// channel-mode identity field joined the document (v1 checkpoints are
/// rejected with a schema error rather than silently resumed under the
/// wrong transfer model).
pub(crate) const CHECKPOINT_SCHEMA: &str = "pim-serve-checkpoint/2";

/// One pending retry: a request that failed `attempt` times and
/// re-enters dispatch once virtual time reaches `ready_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryEntry {
    /// Virtual time the retry becomes dispatchable, ns.
    pub ready_at: u64,
    /// Launch failures so far.
    pub attempt: u32,
    /// The original request (id, tenant, class, arrival time).
    pub req: Request,
}

/// The full resumable state of a serving run at one virtual-time cut.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Scenario name — resume validates it.
    pub scenario: String,
    /// Resolved policy name — resume validates it.
    pub policy: String,
    /// Traffic seed.
    pub seed: u64,
    /// Load multiplier as raw IEEE bits (exact round-trip).
    pub load_bits: u64,
    /// Arrival-window length, ns.
    pub duration_ns: u64,
    /// Canonical fault-spec label ([`crate::fault::FaultSpec::label`]).
    pub faults: String,
    /// Channel-mode label ([`pimulator::pim_host::ChannelMode::label`])
    /// — resume validates it: the transfer model shapes every round's
    /// timing, so resuming under a different mode would be a Franken-run.
    pub channel: String,
    /// Virtual time of the cut, ns.
    pub vtime: u64,
    /// Rounds dispatched so far.
    pub rounds: u64,
    /// Next arrival id.
    pub next_id: u64,
    /// Traffic generator state.
    pub traffic: TrafficState,
    /// Queued requests in FIFO order.
    pub queue: Vec<Request>,
    /// Per-tenant admission counters.
    pub admission: Vec<TenantAdmission>,
    /// Pending retries, sorted by `(ready_at, id)`.
    pub retries: Vec<RetryEntry>,
    /// Per-tenant completed counts.
    pub completed: Vec<u64>,
    /// Per-tenant failed counts (retry budget exhausted).
    pub failed: Vec<u64>,
    /// Per-tenant retry re-dispatch counts.
    pub retried: Vec<u64>,
    /// Per-tenant degraded-completion counts.
    pub degraded: Vec<u64>,
    /// Per-tenant latency splits.
    pub splits: Vec<LatencySplit>,
    /// Accumulated transfer/kernel timeline.
    pub timeline: ExecutionTimeline,
    /// Scheduling-policy internal state ([`crate::sched::SchedulerPolicy::snapshot`]).
    pub policy_state: Json,
    /// Canonical composition keys seen so far (cache key set).
    pub seen: Vec<Composition>,
    /// Outages consumed from the fault plan's sorted schedule.
    pub outage_cursor: usize,
    /// Currently offline ranks as `(rank, rejoin_ns)` in activation order.
    pub active_outages: Vec<(u32, u64)>,
    /// Fault-event request counts: `[transient, stuck, rank_offline]`.
    pub fault_counts: [u64; 3],
}

fn request_json(r: &Request) -> Json {
    Json::arr([
        Json::from(r.id),
        Json::from(r.tenant as u64),
        Json::from(u64::from(r.class)),
        Json::from(r.arrival_ns),
    ])
}

/// A request class: an index into [`request_classes`].
fn class_from(j: Node<'_>) -> Result<u16, String> {
    match j.int()? {
        class if usize::from(class) < request_classes().len() => Ok(class),
        class => j.fail(format_args!("class {class}, registry has {}", request_classes().len())),
    }
}

fn request_from(j: Node<'_>) -> Result<Request, String> {
    let [id, tenant, class, arrival_ns] = j.tuple()?;
    Ok(Request {
        id: id.int()?,
        tenant: tenant.int()?,
        class: class_from(class)?,
        arrival_ns: arrival_ns.int()?,
    })
}

impl Checkpoint {
    /// Serializes the checkpoint as a self-describing JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let uvec = |v: &[u64]| Json::arr(v.iter().map(|&x| Json::from(x)));
        Json::obj([
            ("checkpoint", Json::from(CHECKPOINT_SCHEMA)),
            ("scenario", Json::from(self.scenario.as_str())),
            ("policy", Json::from(self.policy.as_str())),
            ("seed", Json::from(self.seed)),
            ("load_bits", Json::from(self.load_bits)),
            ("duration_ns", Json::from(self.duration_ns)),
            ("faults", Json::from(self.faults.as_str())),
            ("channel", Json::from(self.channel.as_str())),
            ("vtime", Json::from(self.vtime)),
            ("rounds", Json::from(self.rounds)),
            ("next_id", Json::from(self.next_id)),
            (
                "traffic",
                Json::obj([
                    ("rng", uvec(&self.traffic.rng)),
                    ("t_ns", Json::from(self.traffic.t_ns)),
                    (
                        "peeked",
                        match self.traffic.peeked {
                            None => Json::Null,
                            Some(a) => Json::arr([
                                Json::from(a.at_ns),
                                Json::from(a.tenant as u64),
                                Json::from(u64::from(a.class)),
                            ]),
                        },
                    ),
                ]),
            ),
            ("queue", Json::arr(self.queue.iter().map(request_json))),
            (
                "admission",
                Json::arr(self.admission.iter().map(|a| {
                    Json::arr([
                        Json::from(a.offered),
                        Json::from(a.admitted),
                        Json::from(a.rejected_capacity),
                        Json::from(a.rejected_quota),
                    ])
                })),
            ),
            (
                "retries",
                Json::arr(self.retries.iter().map(|r| {
                    Json::arr([
                        Json::from(r.ready_at),
                        Json::from(u64::from(r.attempt)),
                        request_json(&r.req),
                    ])
                })),
            ),
            ("completed", uvec(&self.completed)),
            ("failed", uvec(&self.failed)),
            ("retried", uvec(&self.retried)),
            ("degraded", uvec(&self.degraded)),
            ("splits", Json::arr(self.splits.iter().map(LatencySplit::to_json))),
            (
                "timeline",
                Json::obj([
                    ("to_dpu_bits", Json::from(self.timeline.to_dpu_ns.to_bits())),
                    ("kernel_bits", Json::from(self.timeline.kernel_ns.to_bits())),
                    ("from_dpu_bits", Json::from(self.timeline.from_dpu_ns.to_bits())),
                    ("launches", Json::from(u64::from(self.timeline.launches))),
                ]),
            ),
            ("policy_state", self.policy_state.clone()),
            (
                "seen",
                Json::arr(
                    self.seen
                        .iter()
                        .map(|c| Json::arr(c.iter().map(|&s| Json::from(u64::from(s))))),
                ),
            ),
            ("outage_cursor", Json::from(self.outage_cursor as u64)),
            (
                "active_outages",
                Json::arr(self.active_outages.iter().map(|&(rank, until)| {
                    Json::arr([Json::from(u64::from(rank)), Json::from(until)])
                })),
            ),
            ("fault_counts", uvec(&self.fault_counts)),
        ])
    }

    /// Rebuilds a checkpoint from [`Checkpoint::to_json`] output. This is
    /// the shape half of reading one back — every field in its type's
    /// range, every tuple its width, every class a class there is; whether
    /// the values belong to a given run is [`Checkpoint::fit`]'s half.
    ///
    /// # Errors
    ///
    /// Returns the path to the first malformed or missing field and what
    /// is wrong with it.
    pub fn from_json(doc: &Json) -> Result<Checkpoint, String> {
        let doc = Node::root("checkpoint", doc);
        let schema = doc.field("checkpoint")?;
        let found = schema.str()?;
        if found != CHECKPOINT_SCHEMA {
            return schema.fail(format_args!("schema `{found}`, expected `{CHECKPOINT_SCHEMA}`"));
        }
        let text = |key: &str| Ok::<_, String>(doc.field(key)?.str()?.to_string());
        let traffic = doc.field("traffic")?;
        let [r0, r1, r2, r3] = traffic.field("rng")?.tuple()?;
        let peeked = match traffic.field("peeked")?.optional() {
            None => None,
            Some(arrival) => {
                let [at_ns, tenant, class] = arrival.tuple()?;
                Some(Arrival {
                    at_ns: at_ns.int()?,
                    tenant: tenant.int()?,
                    class: class_from(class)?,
                })
            }
        };
        let timeline = doc.field("timeline")?;
        let bits = |key: &str| Ok::<_, String>(f64::from_bits(timeline.field(key)?.int()?));
        let [transient, stuck, rank_offline] = doc.field("fault_counts")?.tuple()?;
        Ok(Checkpoint {
            scenario: text("scenario")?,
            policy: text("policy")?,
            seed: doc.field("seed")?.int()?,
            load_bits: doc.field("load_bits")?.int()?,
            duration_ns: doc.field("duration_ns")?.int()?,
            faults: text("faults")?,
            channel: text("channel")?,
            vtime: doc.field("vtime")?.int()?,
            rounds: doc.field("rounds")?.int()?,
            next_id: doc.field("next_id")?.int()?,
            traffic: TrafficState {
                rng: [r0.int()?, r1.int()?, r2.int()?, r3.int()?],
                t_ns: traffic.field("t_ns")?.int()?,
                peeked,
            },
            queue: doc.field("queue")?.list(request_from)?,
            admission: doc.field("admission")?.list(|j| {
                let [offered, admitted, capacity, quota] = j.tuple()?;
                Ok(TenantAdmission {
                    offered: offered.int()?,
                    admitted: admitted.int()?,
                    rejected_capacity: capacity.int()?,
                    rejected_quota: quota.int()?,
                })
            })?,
            retries: doc.field("retries")?.list(|j| {
                let [ready_at, attempt, req] = j.tuple()?;
                let (ready_at, attempt) = (ready_at.int()?, attempt.int()?);
                Ok(RetryEntry { ready_at, attempt, req: request_from(req)? })
            })?,
            completed: doc.field("completed")?.list(Node::int)?,
            failed: doc.field("failed")?.list(Node::int)?,
            retried: doc.field("retried")?.list(Node::int)?,
            degraded: doc.field("degraded")?.list(Node::int)?,
            splits: doc.field("splits")?.list(LatencySplit::from_json)?,
            timeline: ExecutionTimeline {
                to_dpu_ns: bits("to_dpu_bits")?,
                kernel_ns: bits("kernel_bits")?,
                from_dpu_ns: bits("from_dpu_bits")?,
                launches: timeline.field("launches")?.int()?,
                // The serving loop prices rounds itself; the overlapped wall
                // clock is derived per round and never checkpointed.
                end_ns: 0.0,
            },
            policy_state: doc.field("policy_state")?.json().clone(),
            seen: doc.field("seen")?.list(|j| {
                let slots = j.list(|slot| match slot.int()? {
                    EMPTY_SLOT => Ok(EMPTY_SLOT),
                    _ => class_from(slot),
                })?;
                Composition::try_from(slots).or_else(|slots| {
                    let found = slots.len();
                    j.fail(format_args!("{found} slots, a composition has {SLOTS_PER_DPU}"))
                })
            })?,
            outage_cursor: doc.field("outage_cursor")?.int()?,
            active_outages: doc.field("active_outages")?.list(|j| {
                let [rank, until] = j.tuple()?;
                Ok((rank.int()?, until.int()?))
            })?,
            fault_counts: [transient.int()?, stuck.int()?, rank_offline.int()?],
        })
    }

    /// Checks that the run `(scenario, opts)` describes is the one that cut
    /// this checkpoint — the fit half of reading one back, which
    /// [`crate::resume_scenario`] makes before it simulates anything.
    /// Every identity field matches (resuming under different knobs would
    /// silently produce a Franken-run), every per-tenant array, the policy
    /// state included, has the scenario's tenants, and every tenant or
    /// rank a request or an outage names exists in that run.
    ///
    /// # Errors
    ///
    /// Returns the path of the first field that does not fit, its value
    /// and what the run has there.
    pub fn fit(&self, scenario: &Scenario, opts: &ServeOptions) -> Result<(), String> {
        fn misfit<T>(at: impl Display, got: impl Display, want: impl Display) -> Result<T, String> {
            Err(format!("checkpoint.{at}: {got}, this run has {want}"))
        }
        fn same<T: PartialEq + Display>(key: &str, got: T, want: T) -> Result<(), String> {
            if got == want {
                return Ok(());
            }
            misfit(key, format_args!("`{got}`"), format_args!("`{want}`"))
        }
        let mut policy = new_policy(scenario, opts)?;
        same("scenario", self.scenario.as_str(), scenario.name)?;
        same("policy", self.policy.as_str(), policy.name())?;
        same("seed", self.seed, opts.seed)?;
        same("load_bits", f64::from_bits(self.load_bits), opts.load)?;
        let duration_ns = resolved_duration_ns(scenario, opts).map_err(|why| why.to_string())?;
        same("duration_ns", self.duration_ns, duration_ns)?;
        same("faults", self.faults.as_str(), fault_label(opts).as_str())?;
        same("channel", self.channel.as_str(), opts.channel.label())?;
        let tenants = scenario.tenants.len();
        for (key, len) in [
            ("admission", self.admission.len()),
            ("completed", self.completed.len()),
            ("failed", self.failed.len()),
            ("retried", self.retried.len()),
            ("degraded", self.degraded.len()),
            ("splits", self.splits.len()),
        ] {
            if len != tenants {
                return misfit(key, format_args!("{len} tenants"), tenants);
            }
        }
        // A request is `[id, tenant, class, arrival_ns]`: its tenant is
        // one of this run's, and it arrived before the cut — the latency
        // split subtracts its arrival from a later clock.
        let queued = self.queue.iter().enumerate().map(|(i, r)| ("queue", i, "", r));
        let retries = self.retries.iter().enumerate();
        for (list, i, req, r) in queued.chain(retries.map(|(i, e)| ("retries", i, "[2]", &e.req))) {
            if r.tenant >= tenants {
                let at = format_args!("{list}[{i}]{req}[1]");
                return misfit(at, format_args!("tenant {}", r.tenant), tenants);
            }
            if r.arrival_ns > self.vtime {
                let want = format_args!("its clock at {} ns", self.vtime);
                let at = format_args!("{list}[{i}]{req}[3]");
                return misfit(at, format_args!("{} ns", r.arrival_ns), want);
            }
        }
        // An arrival is `[at, tenant, class]`.
        if let Some(a) = self.traffic.peeked.filter(|a| a.tenant >= tenants) {
            return misfit("traffic.peeked[1]", format_args!("tenant {}", a.tenant), tenants);
        }
        // Clocks: the loop adds spans to them unchecked, so none stands
        // where this run could not have put it.
        let spec = opts.faults.unwrap_or_else(FaultSpec::none);
        let horizon = spec.clock_horizon_ns(self.duration_ns);
        let late = |at: &dyn Display, ns: u64| {
            let want = format_args!("a clock horizon of {horizon} ns");
            misfit(at, format_args!("{ns} ns"), want)
        };
        let peeked_at = self.traffic.peeked.map_or(0, |a| a.at_ns);
        let named = [
            ("vtime", self.vtime),
            ("traffic.t_ns", self.traffic.t_ns),
            ("traffic.peeked[0]", peeked_at),
        ];
        if let Some((key, ns)) = named.into_iter().find(|t| t.1 > horizon) {
            return late(&key, ns);
        }
        let retries = self.retries.iter().enumerate();
        let retry_at = retries.map(|(i, e)| ("retries", i, 0, e.ready_at));
        let outages = self.active_outages.iter().enumerate();
        let rejoin_at = outages.map(|(i, o)| ("active_outages", i, 1, o.1));
        if let Some((list, i, field, ns)) = retry_at.chain(rejoin_at).find(|t| t.3 > horizon) {
            return late(&format_args!("{list}[{i}][{field}]"), ns);
        }
        let ranks = spec.n_ranks(scenario.n_dpus);
        if let Some(i) = self.active_outages.iter().position(|&(rank, _)| rank >= ranks) {
            let got = format_args!("rank {}", self.active_outages[i].0);
            return misfit(format_args!("active_outages[{i}][0]"), got, ranks);
        }
        if u32::try_from(self.outage_cursor).map_or(true, |cursor| cursor > spec.outages) {
            let want = format_args!("{} outages", spec.outages);
            return misfit("outage_cursor", self.outage_cursor, want);
        }
        policy.restore(Node::root("checkpoint.policy_state", &self.policy_state))
    }
}

#[cfg(test)]
mod tests {
    use pimulator::pim_host::ChannelMode;

    use super::*;
    use crate::scenario::scenario_by_name;

    fn sample() -> Checkpoint {
        let mut split = LatencySplit::default();
        split.record(10, 20, 30);
        Checkpoint {
            scenario: "faulty".into(),
            policy: "weighted_fair".into(),
            seed: 7,
            load_bits: 1.5f64.to_bits(),
            duration_ns: 5_000_000,
            faults: "seed=1,transient=5,stuck=0,timeout_us=200,retries=3,backoff_us=50,outages=2,outage_ms=1,rank_dpus=4".into(),
            channel: "blocking".into(),
            vtime: 123_456,
            rounds: 17,
            next_id: 42,
            traffic: TrafficState {
                rng: [u64::MAX, 1, 2, 3],
                t_ns: 120_000,
                peeked: Some(Arrival { at_ns: 130_000, tenant: 1, class: 5 }),
            },
            queue: vec![Request { id: 40, tenant: 0, class: 2, arrival_ns: 119_000 }],
            admission: vec![
                TenantAdmission { offered: 30, admitted: 28, rejected_capacity: 1, rejected_quota: 1 },
                TenantAdmission { offered: 12, admitted: 12, ..Default::default() },
            ],
            retries: vec![RetryEntry {
                ready_at: 125_000,
                attempt: 2,
                req: Request { id: 33, tenant: 1, class: 4, arrival_ns: 100_000 },
            }],
            completed: vec![20, 10],
            failed: vec![1, 0],
            retried: vec![3, 1],
            degraded: vec![2, 0],
            splits: vec![LatencySplit::default(), {
                let mut s = LatencySplit::default();
                s.record(10, 20, 30);
                s
            }],
            timeline: ExecutionTimeline {
                to_dpu_ns: 0.1 + 0.2, // deliberately non-representable
                kernel_ns: 12_345.678,
                from_dpu_ns: 9.0,
                launches: 17,
                end_ns: 0.0,
            },
            // Canonical snapshot shape: non-negative credits are UInt
            // (what JSON text parses back to), negatives stay Int.
            policy_state: Json::arr([Json::UInt(3), Json::from(-1i64)]),
            seen: vec![[0, 1, 65535, 65535], [2, 2, 2, 2]],
            outage_cursor: 1,
            active_outages: vec![(1, 2_000_000)],
            fault_counts: [5, 2, 8],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let ck = sample();
        let text = ck.to_json().render_pretty();
        let back = Checkpoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        // Everything that matters for byte-identical resume.
        assert_eq!(back.scenario, ck.scenario);
        assert_eq!(back.traffic, ck.traffic);
        assert_eq!(back.queue, ck.queue);
        assert_eq!(back.admission, ck.admission);
        assert_eq!(back.retries, ck.retries);
        assert_eq!(back.completed, ck.completed);
        assert_eq!(back.seen, ck.seen);
        assert_eq!(back.active_outages, ck.active_outages);
        assert_eq!(back.fault_counts, ck.fault_counts);
        assert_eq!(back.policy_state, ck.policy_state);
        // Floats round-trip bit-exactly, not just approximately.
        assert_eq!(back.timeline.to_dpu_ns.to_bits(), ck.timeline.to_dpu_ns.to_bits());
        assert_eq!(back.timeline.kernel_ns.to_bits(), ck.timeline.kernel_ns.to_bits());
        // And a second render is byte-identical (stable serialization).
        assert_eq!(back.to_json().render_pretty(), text);
    }

    #[test]
    fn fit_catches_every_identity_mismatch() {
        let ck = sample();
        let faulty = scenario_by_name("faulty").unwrap();
        let run = ServeOptions {
            seed: 7,
            load: 1.5,
            duration_ms: 5,
            policy: Some("weighted_fair".into()),
            faults: Some(FaultSpec::parse(&ck.faults).unwrap()),
            ..ServeOptions::default()
        };
        let ok = ck.fit(faulty, &run);
        assert!(ok.is_ok(), "{ok:?}");
        let err = ck.fit(scenario_by_name("tiny").unwrap(), &run).unwrap_err();
        assert!(err.contains("checkpoint.scenario") && err.contains("`tiny`"), "{err}");
        // One option off at a time: the message names the field.
        for (key, other) in [
            ("policy", ServeOptions { policy: Some("size_class".into()), ..run.clone() }),
            ("seed", ServeOptions { seed: 8, ..run.clone() }),
            ("load_bits", ServeOptions { load: 2.0, ..run.clone() }),
            ("duration_ns", ServeOptions { duration_ms: 9, ..run.clone() }),
            ("faults", ServeOptions { faults: None, ..run.clone() }),
            ("channel", ServeOptions { channel: ChannelMode::Overlapped, ..run.clone() }),
        ] {
            let err = ck.fit(faulty, &other).unwrap_err();
            assert!(err.starts_with(&format!("checkpoint.{key}: ")), "{key}: {err}");
        }
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        assert!(Checkpoint::from_json(&Json::Null).is_err());
        assert!(Checkpoint::from_json(&Json::obj([("checkpoint", Json::from("v999"))])).is_err());
        let mut doc = sample().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "retries");
        }
        let err = Checkpoint::from_json(&doc).unwrap_err();
        assert!(err.contains("retries"), "{err}");
    }
}
