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

pub use checkpoint::{Checkpoint, RetryEntry};
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use queue::{Admission, AdmissionQueue, Request, TenantAdmission};
pub use runtime::{
    resolved_duration_ns, resume_scenario, run_scenario, run_scenario_with_checkpoints, RunTooLong,
    ServeOptions, ServeOutcome, TenantOutcome,
};
pub use scenario::{scenario_by_name, scenarios, Scenario, TenantSpec};
pub use sched::{policy_by_name, SchedulerPolicy};
pub use slo::{LatencyHistogram, LatencySplit};

use pimulator::report::Show::{Fixed, Text, Us};
use pimulator::report::{Cols, Json};
use slo::LatencyHistogram as Hist;

/// The `{p50,p95,p99}` columns of the histogram `hist` finds in a tenant;
/// `headed`, they are also the table's latency columns.
fn slo_cols(headed: bool, hist: fn(&TenantOutcome) -> &Hist) -> Cols<TenantOutcome> {
    let names = [("p50_ns", "p50_us"), ("p95_ns", "p95_us"), ("p99_ns", "p99_us")];
    names.into_iter().enumerate().fold(Cols::new(), |cols, (i, (key, header))| {
        let get = move |t: &TenantOutcome| <[u64; 3]>::from(hist(t).slo_triple())[i];
        if headed {
            cols.col(key, header, Us, get)
        } else {
            cols.key(key, get)
        }
    })
}

/// The per-tenant columns: the `tenants` entries of [`outcome_json`] and
/// the rows of [`outcome_table`].
fn tenant_cols() -> Cols<TenantOutcome> {
    let total = slo_cols(true, |t| &t.latency.total)
        .key("mean_ns", |t| t.latency.total.mean_ns())
        .key("max_ns", |t| t.latency.total.max_ns());
    let latency = Cols::new()
        .nest("queue", slo_cols(false, |t| &t.latency.queue))
        .nest("transfer", slo_cols(false, |t| &t.latency.transfer))
        .nest("execute", slo_cols(false, |t| &t.latency.execute))
        .nest("total", total);
    Cols::<TenantOutcome>::new()
        .col("name", "tenant", Text, |t| t.name)
        .key("share", |t| t.share)
        .key("weight", |t| t.weight)
        .col("offered", "offered", Text, |t| t.admission.offered)
        .col("admitted", "admitted", Text, |t| t.admission.admitted)
        .key("rejected_capacity", |t| t.admission.rejected_capacity)
        .key("rejected_quota", |t| t.admission.rejected_quota)
        .cell("rejected", Text, |t| t.admission.rejected())
        .col("completed", "completed", Text, |t| t.completed)
        .col("failed", "failed", Text, |t| t.failed)
        .col("retried", "retried", Text, |t| t.retried)
        .col("degraded", "degraded", Text, |t| t.degraded)
        .col("throughput_rps", "rps", Fixed(0), |t| t.throughput_rps)
        .nest("latency", latency)
}

/// Renders one serving outcome as the deterministic results document
/// written to `results/serve_<scenario>.json`.
#[must_use]
pub fn outcome_json(out: &ServeOutcome) -> Json {
    let cols = tenant_cols();
    let tenants = out.tenants.iter().map(|t| cols.json(t));
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
    let (t, _) = tenant_cols().tabulate(&out.tenants);
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
