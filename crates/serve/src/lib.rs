//! # pim-serve
//!
//! A multi-tenant **serving runtime** over the PIMulator-RS stack: seeded
//! open-loop traffic, bounded admission with per-tenant quotas, pluggable
//! batch scheduling onto co-located DPU slots, and per-tenant latency-SLO
//! accounting — the paper's §V-C multi-tenancy machinery exercised under
//! sustained load rather than one-shot experiments.
//!
//! ## Structure
//!
//! | module | role |
//! |---|---|
//! | [`scenario`] | the named scenario registry (`pimsim serve --list`) |
//! | [`traffic`] | seeded Poisson-ish arrival generation on simulated time |
//! | [`queue`] | bounded admission queue with counted backpressure |
//! | [`sched`] | `SchedulerPolicy`: FIFO, size-class, weighted-fair (DRR) |
//! | [`kernels`] | proxy request kernels + memoized composition profiler |
//! | [`slo`] | log-bucketed latency histograms, p50/p95/p99 |
//! | [`fault`] | seeded fault campaigns: transient, stuck-DPU, rank outage |
//! | [`checkpoint`] | snapshot/restore of the loop state, JSON round-trip |
//! | [`runtime`] | the virtual-time event loop tying it all together |
//!
//! ## Determinism
//!
//! Everything runs on *simulated* time: arrivals, scheduling, and
//! completions are a pure function of `(scenario, seed, load, duration)`.
//! Worker threads only parallelize cycle-level profiling of first-seen
//! DPU compositions through the order-preserving job runner, so the
//! rendered results JSON is byte-identical at any `--threads` value —
//! the same property the experiment goldens rely on.
//!
//! ```
//! use pim_serve::{run_scenario, scenario_by_name, ServeOptions};
//!
//! let s = scenario_by_name("tiny").unwrap();
//! let opts = ServeOptions { duration_ms: 1, ..ServeOptions::default() };
//! let out = run_scenario(s, &opts).unwrap();
//! assert_eq!(out.offered(), out.admitted() + out.rejected());
//! ```

pub mod checkpoint;
pub mod fault;
pub mod kernels;
pub mod queue;
pub mod runtime;
pub mod scenario;
pub mod sched;
pub mod slo;
pub mod traffic;

pub use checkpoint::{Checkpoint, RetryEntry, CHECKPOINT_SCHEMA};
pub use fault::{FaultKind, FaultPlan, FaultSpec, Outage};
pub use queue::{Admission, AdmissionQueue, Request, TenantAdmission};
pub use runtime::{
    resolved_duration_ns, resume_scenario, run_scenario, run_scenario_with_checkpoints, RunTooLong,
    ServeOptions, ServeOutcome, TenantOutcome,
};
pub use scenario::{scenario_by_name, scenarios, Scenario, TenantSpec};
pub use sched::{policy_by_name, policy_by_name_with_weights, SchedulerPolicy};
pub use slo::{LatencyHistogram, LatencySplit};

use pimulator::report::{Json, Table};
use slo::LatencyHistogram as Hist;

/// The `{p50,p95,p99}` object of one histogram (`total` additionally
/// gets mean/max in [`outcome_json`]).
fn pcts_json(h: &Hist) -> Json {
    let (p50, p95, p99) = h.slo_triple();
    Json::obj([
        ("p50_ns", Json::UInt(p50)),
        ("p95_ns", Json::UInt(p95)),
        ("p99_ns", Json::UInt(p99)),
    ])
}

/// Renders one serving outcome as the deterministic results document
/// written to `results/serve_<scenario>.json`.
#[must_use]
pub fn outcome_json(out: &ServeOutcome) -> Json {
    let tenants = out.tenants.iter().map(|t| {
        let (p50, p95, p99) = t.latency.total.slo_triple();
        Json::obj([
            ("name", Json::from(t.name)),
            ("share", Json::UInt(u64::from(t.share))),
            ("weight", Json::UInt(u64::from(t.weight))),
            ("offered", Json::UInt(t.admission.offered)),
            ("admitted", Json::UInt(t.admission.admitted)),
            ("rejected_capacity", Json::UInt(t.admission.rejected_capacity)),
            ("rejected_quota", Json::UInt(t.admission.rejected_quota)),
            ("completed", Json::UInt(t.completed)),
            ("failed", Json::UInt(t.failed)),
            ("retried", Json::UInt(t.retried)),
            ("degraded", Json::UInt(t.degraded)),
            ("throughput_rps", Json::from(t.throughput_rps)),
            (
                "latency",
                Json::obj([
                    ("queue", pcts_json(&t.latency.queue)),
                    ("transfer", pcts_json(&t.latency.transfer)),
                    ("execute", pcts_json(&t.latency.execute)),
                    (
                        "total",
                        Json::obj([
                            ("p50_ns", Json::UInt(p50)),
                            ("p95_ns", Json::UInt(p95)),
                            ("p99_ns", Json::UInt(p99)),
                            ("mean_ns", Json::from(t.latency.total.mean_ns())),
                            ("max_ns", Json::UInt(t.latency.total.max_ns())),
                        ]),
                    ),
                ]),
            ),
        ])
    });
    let mut top = vec![
        ("serve", Json::from(out.scenario)),
        ("seed", Json::UInt(out.seed)),
        ("policy", Json::from(out.policy)),
        ("load", Json::from(out.load)),
        ("duration_ms", Json::UInt(out.duration_ns / 1_000_000)),
        ("n_dpus", Json::UInt(u64::from(out.n_dpus))),
        ("faults", Json::from(out.faults.as_str())),
    ];
    // The channel key only appears for v2 modes, so pre-v2 reports (and
    // the golden snapshots pinned on them) stay byte-identical.
    if out.channel != "blocking" {
        top.push(("channel", Json::from(out.channel)));
    }
    top.extend([
        ("rounds", Json::UInt(out.rounds)),
        ("distinct_compositions", Json::UInt(out.distinct_compositions as u64)),
        ("tenants", Json::arr(tenants)),
        (
            "totals",
            Json::obj([
                ("offered", Json::UInt(out.offered())),
                ("admitted", Json::UInt(out.admitted())),
                ("rejected", Json::UInt(out.rejected())),
                ("completed", Json::UInt(out.completed())),
                ("failed", Json::UInt(out.failed())),
                ("retried", Json::UInt(out.retried())),
                ("degraded", Json::UInt(out.degraded())),
                ("throughput_rps", Json::from(out.throughput_rps())),
            ]),
        ),
        (
            "timeline",
            Json::obj([
                ("to_dpu_ns", Json::from(out.timeline.to_dpu_ns)),
                ("kernel_ns", Json::from(out.timeline.kernel_ns)),
                ("from_dpu_ns", Json::from(out.timeline.from_dpu_ns)),
                ("launches", Json::UInt(u64::from(out.timeline.launches))),
            ]),
        ),
        ("metrics", Json::obj(out.metrics.counters().into_iter().map(|(k, v)| (k, Json::UInt(v))))),
    ]);
    Json::obj(top)
}

/// Renders one serving outcome as the aligned text report printed to
/// stdout.
#[must_use]
pub fn outcome_table(out: &ServeOutcome) -> String {
    let mut t = Table::new(&[
        "tenant",
        "offered",
        "admitted",
        "rejected",
        "completed",
        "failed",
        "retried",
        "degraded",
        "rps",
        "p50_us",
        "p95_us",
        "p99_us",
    ]);
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1000.0);
    for ten in &out.tenants {
        let (p50, p95, p99) = ten.latency.total.slo_triple();
        t.row_owned(vec![
            ten.name.to_string(),
            ten.admission.offered.to_string(),
            ten.admission.admitted.to_string(),
            ten.admission.rejected().to_string(),
            ten.completed.to_string(),
            ten.failed.to_string(),
            ten.retried.to_string(),
            ten.degraded.to_string(),
            format!("{:.0}", ten.throughput_rps),
            us(p50),
            us(p95),
            us(p99),
        ]);
    }
    // Like the JSON key, the channel tag only appears for v2 modes.
    let channel =
        if out.channel == "blocking" { String::new() } else { format!(" channel={}", out.channel) };
    format!(
        "serve {}  policy={} seed={} load={} dpus={} rounds={} compositions={} faults={}{}\n{}",
        out.scenario,
        out.policy,
        out.seed,
        out.load,
        out.n_dpus,
        out.rounds,
        out.distinct_compositions,
        out.faults,
        channel,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_has_the_documented_shape() {
        let s = scenario_by_name("tiny").unwrap();
        let out = run_scenario(s, &ServeOptions::default()).unwrap();
        let doc = outcome_json(&out);
        let rendered = doc.render_pretty();
        let parsed = Json::parse(&rendered).expect("report round-trips");
        let Json::Obj(pairs) = &parsed else { panic!("report is an object") };
        for key in ["serve", "seed", "policy", "tenants", "totals", "timeline", "metrics"] {
            assert!(pairs.iter().any(|(k, _)| k == key), "missing key {key}");
        }
        let text = outcome_table(&out);
        assert!(text.contains("latency") && text.contains("p99_us"));
    }
}
