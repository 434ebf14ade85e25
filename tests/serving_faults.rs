//! The failure-mode differential suite: fault injection, retry
//! re-dispatch, degraded-capacity operation, and checkpoint/restore of
//! the serving loop.
//!
//! The load-bearing properties, each pinned byte-for-byte where bytes
//! are the contract:
//!
//! 1. **Fault-free reduction** — a present-but-empty `FaultSpec` renders
//!    results JSON identical to no spec at all: the fault machinery costs
//!    nothing when disarmed.
//! 2. **Conservation** — every admitted request ends exactly once, as
//!    completed or failed; retries neither duplicate nor lose work.
//! 3. **Resume equivalence** — checkpoint at T, rebuild from the JSON
//!    text, continue: the final results document is byte-identical to
//!    the uninterrupted run, across seeds and policies.
//! 4. **Degradation without deadlock** — rank outages shrink capacity
//!    (and are visible in the `degraded` column) but the loop always
//!    terminates, even when every rank is briefly offline.
//! 5. **Corrupt checkpoints are refused, not run** — a real cut damaged
//!    in one place either fails decode + fit with the path of the damage,
//!    or is accepted unchanged; nothing is narrowed and nothing panics.

mod common;

use common::Damage;
use pim_serve::{
    outcome_json, resume_scenario, run_scenario, run_scenario_with_checkpoints, scenario_by_name,
    Checkpoint, FaultSpec, ServeOptions,
};
use pimulator::pim_host::ChannelMode;
use pimulator::report::Json;

fn opts(threads: usize) -> ServeOptions {
    ServeOptions { threads: Some(threads), ..ServeOptions::default() }
}

#[test]
fn empty_fault_spec_is_byte_identical_to_no_spec() {
    for name in ["tiny", "faulty", "saturate"] {
        let scenario = scenario_by_name(name).unwrap();
        let without = run_scenario(scenario, &opts(2)).unwrap();
        let with =
            run_scenario(scenario, &ServeOptions { faults: Some(FaultSpec::none()), ..opts(2) })
                .unwrap();
        assert!(
            outcome_json(&without).render_pretty() == outcome_json(&with).render_pretty(),
            "{name}: FaultSpec::none() must be indistinguishable from no fault plan"
        );
    }
}

#[test]
fn every_admitted_request_ends_exactly_once() {
    let scenario = scenario_by_name("faulty").unwrap();
    for seed in [1u64, 7, 42] {
        for spec_text in [
            "seed=3,transient=120",
            "seed=3,transient=80,stuck=40,timeout_us=1000",
            "seed=3,transient=60,retries=1",
            "seed=3,transient=200,retries=0",
            "seed=3,transient=50,outages=2,outage_ms=1,rank_dpus=4",
        ] {
            let spec = FaultSpec::parse(spec_text).unwrap();
            let out = run_scenario(scenario, &ServeOptions { seed, faults: Some(spec), ..opts(2) })
                .unwrap();
            assert_eq!(out.offered(), out.admitted() + out.rejected());
            assert_eq!(
                out.admitted(),
                out.completed() + out.failed(),
                "seed {seed} spec `{spec_text}`: requests leaked or duplicated"
            );
            // Completions alone populate the latency histograms.
            for t in &out.tenants {
                assert_eq!(t.latency.total.count(), t.completed);
            }
        }
    }
}

#[test]
fn checkpoint_resume_matches_the_uninterrupted_run_byte_for_byte() {
    let scenario = scenario_by_name("faulty").unwrap();
    let spec = FaultSpec::parse(
        "seed=5,transient=70,stuck=20,timeout_us=800,outages=1,outage_ms=1,rank_dpus=4",
    )
    .unwrap();
    let mut corpus: Option<(Checkpoint, ServeOptions)> = None;
    for seed in [1u64, 2, 3] {
        for policy in ["fifo", "weighted_fair"] {
            let run_opts = ServeOptions {
                seed,
                policy: Some(policy.to_string()),
                faults: Some(spec),
                ..opts(2)
            };
            let uninterrupted =
                outcome_json(&run_scenario(scenario, &run_opts).unwrap()).render_pretty();

            let mut cuts: Vec<Checkpoint> = Vec::new();
            let full = run_scenario_with_checkpoints(scenario, &run_opts, 1, &mut |ck| {
                cuts.push(
                    Checkpoint::from_json(&Json::parse(&ck.to_json().render_pretty()).unwrap())
                        .unwrap(),
                );
            })
            .unwrap();
            assert!(
                outcome_json(&full).render_pretty() == uninterrupted,
                "emitting checkpoints must not perturb the run"
            );
            assert!(!cuts.is_empty(), "a 1 ms cadence over a 5 ms run must cut checkpoints");

            // Resume from *every* cut, not just a lucky one; each must
            // land on the identical final document.
            for (k, ck) in cuts.iter().enumerate() {
                ck.fit(scenario, &run_opts).unwrap_or_else(|e| panic!("cut {k} does not fit: {e}"));
                let resumed = resume_scenario(scenario, &run_opts, ck, 0, &mut |_| {}).unwrap();
                assert!(
                    outcome_json(&resumed).render_pretty() == uninterrupted,
                    "seed {seed} policy {policy}: resume from cut {k} diverged"
                );
            }

            // The corruption sweep wants one cut with something of
            // everything in it: queued, retried and peeked requests, an
            // offline rank, and a policy with state.
            let rich = |ck: &&Checkpoint| {
                !ck.queue.is_empty()
                    && !ck.retries.is_empty()
                    && !ck.active_outages.is_empty()
                    && ck.traffic.peeked.is_some()
                    && ck.policy_state != Json::Null
            };
            corpus = corpus.or_else(|| Some((cuts.iter().find(rich)?.clone(), run_opts)));
        }
    }
    let (ck, run_opts) = corpus.expect("some cut has everything the corruption sweep damages");
    corrupt_checkpoints_are_refused(&ck, &run_opts);
}

/// Damages `ck`, a cut of the `faulty` run `run_opts` describes, one value
/// at a time (see `common`); decode + fit is the reader under test.
fn corrupt_checkpoints_are_refused(ck: &Checkpoint, run_opts: &ServeOptions) {
    let scenario = scenario_by_name("faulty").unwrap();
    let read = |doc: &Json| {
        let ck = Checkpoint::from_json(doc)?;
        ck.fit(scenario, run_opts)?;
        Ok(ck.to_json())
    };
    let doc = ck.to_json();
    common::every_number_at_max("checkpoint", &doc, &[], read);

    // One past the end of what each index points into.
    let past = |len: usize| Damage::Put(Json::UInt(len as u64));
    let tenants = scenario.tenants.len();
    let classes = pim_serve::kernels::request_classes().len();
    let ranks = run_opts.faults.unwrap().n_ranks(scenario.n_dpus) as usize;
    let mut table = vec![
        ("checkpoint.queue[*][1]", past(tenants)),
        ("checkpoint.queue[*][2]", past(classes)),
        ("checkpoint.retries[*][2][1]", past(tenants)),
        ("checkpoint.retries[*][2][2]", past(classes)),
        ("checkpoint.traffic.peeked[1]", past(tenants)),
        ("checkpoint.traffic.peeked[2]", past(classes)),
        ("checkpoint.seen[*][*]", past(classes)),
        ("checkpoint.active_outages[*][0]", past(ranks)),
    ];
    // No clock past what the run can reach (the loop adds to them
    // unchecked), and nothing waiting that arrived after the cut.
    for clock in [
        "checkpoint.vtime",
        "checkpoint.traffic.t_ns",
        "checkpoint.traffic.peeked[0]",
        "checkpoint.retries[*][0]",
        "checkpoint.active_outages[*][1]",
        "checkpoint.queue[*][3]",
        "checkpoint.retries[*][2][3]",
    ] {
        table.push((clock, Damage::Put(Json::UInt(u64::MAX))));
    }
    // Per-tenant arrays, then every fixed-arity tuple (the third level of
    // `splits` is a histogram's `[bucket, count]` pairs).
    for per_tenant_or_tuple in [
        "checkpoint.admission",
        "checkpoint.completed",
        "checkpoint.failed",
        "checkpoint.retried",
        "checkpoint.degraded",
        "checkpoint.splits",
        "checkpoint.policy_state",
        "checkpoint.traffic.rng",
        "checkpoint.traffic.peeked",
        "checkpoint.queue[*]",
        "checkpoint.admission[*]",
        "checkpoint.retries[*]",
        "checkpoint.retries[*][2]",
        "checkpoint.splits[*]",
        "checkpoint.splits[*][*][*]",
        "checkpoint.seen[*]",
        "checkpoint.active_outages[*]",
        "checkpoint.fault_counts",
    ] {
        table.push((per_tenant_or_tuple, Damage::Shorten));
    }
    for identity in [
        "checkpoint.checkpoint",
        "checkpoint.scenario",
        "checkpoint.policy",
        "checkpoint.seed",
        "checkpoint.load_bits",
        "checkpoint.duration_ns",
        "checkpoint.faults",
        "checkpoint.channel",
    ] {
        table.push((identity, Damage::Alter));
    }
    common::every_damage_is_named("checkpoint", &doc, &table, read);
}

#[test]
fn checkpoint_validation_rejects_a_different_run() {
    let scenario = scenario_by_name("faulty").unwrap();
    let run_opts = ServeOptions { seed: 9, faults: Some(FaultSpec::none()), ..opts(1) };
    let mut cuts: Vec<Checkpoint> = Vec::new();
    run_scenario_with_checkpoints(scenario, &run_opts, 1, &mut |ck| cuts.push(ck.clone())).unwrap();
    let ck = cuts.first().expect("at least one cut");
    assert!(ck.fit(scenario, &run_opts).is_ok());
    let campaign = FaultSpec::parse("seed=1,transient=1").unwrap();
    for (field, other) in [
        ("seed", ServeOptions { seed: 10, ..run_opts.clone() }),
        ("load_bits", ServeOptions { load: 2.0, ..run_opts.clone() }),
        ("faults", ServeOptions { faults: Some(campaign), ..run_opts.clone() }),
        ("channel", ServeOptions { channel: ChannelMode::Overlapped, ..run_opts.clone() }),
    ] {
        let err = ck.fit(scenario, &other).unwrap_err();
        assert!(err.starts_with(&format!("checkpoint.{field}: ")), "wrong {field}: {err}");
        // And the entry point refuses to run it, with the same words.
        let err = resume_scenario(scenario, &other, ck, 0, &mut |_| {}).unwrap_err();
        assert!(err.contains(&format!("checkpoint.{field}: ")), "{err}");
    }
}

#[test]
fn rank_outages_degrade_throughput_but_never_deadlock() {
    let scenario = scenario_by_name("faulty").unwrap();
    let clean = run_scenario(scenario, &opts(2)).unwrap();

    // Half the rank goes away, twice.
    let half = FaultSpec::parse("seed=2,outages=2,outage_ms=1,rank_dpus=4").unwrap();
    let degraded = run_scenario(scenario, &ServeOptions { faults: Some(half), ..opts(2) }).unwrap();
    assert!(degraded.degraded() > 0, "completions during an outage must be marked degraded");
    assert_eq!(degraded.admitted(), degraded.completed() + degraded.failed());
    assert!(
        degraded.rounds >= clean.rounds,
        "losing capacity cannot finish the same work in fewer rounds \
         (clean {}, degraded {})",
        clean.rounds,
        degraded.rounds
    );

    // The whole machine goes away (one rank spans all 8 DPUs): the loop
    // must stall to the rejoin and still drain everything — this test
    // completing *is* the no-deadlock assertion.
    let total = FaultSpec::parse("seed=4,outages=3,outage_ms=1,rank_dpus=8").unwrap();
    let stalled = run_scenario(scenario, &ServeOptions { faults: Some(total), ..opts(2) }).unwrap();
    assert_eq!(stalled.admitted(), stalled.completed() + stalled.failed());
}
