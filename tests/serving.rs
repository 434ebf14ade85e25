//! Integration tests of the serving runtime: byte-identical results at
//! any worker count, conservation of the admission accounting, and
//! weighted-fair service shares under saturation.

use pim_serve::{outcome_json, run_scenario, scenario_by_name, ServeOptions};

fn opts(threads: usize) -> ServeOptions {
    ServeOptions { threads: Some(threads), ..ServeOptions::default() }
}

// The profile memo is process-wide, so every test in this binary shares
// it. A traced run is the cold reference: it neither reads nor writes the
// memo, so it simulates every composition it reaches. The worker-count
// tests compare traced runs, so the parallel legs really profile in
// parallel instead of reading what an earlier run left in the memo.

/// `opts(threads)`, traced so the run simulates every composition.
fn cold(threads: usize) -> ServeOptions {
    ServeOptions { trace_capacity: 1, ..opts(threads) }
}

#[test]
fn serving_json_is_byte_identical_across_worker_counts() {
    let scenario = scenario_by_name("tiny").unwrap();
    let doc = |o: &ServeOptions| outcome_json(&run_scenario(scenario, o).unwrap()).render_pretty();
    let reference = doc(&cold(1));
    assert!(doc(&opts(1)) == reference, "serve tiny diverged once memoized");
    for threads in [4usize, 8] {
        let got = doc(&cold(threads));
        assert!(got == reference, "serve tiny at --threads {threads} diverged from the serial run");
    }
}

#[test]
fn a_warm_profile_memo_is_invisible_in_the_results() {
    let scenario = scenario_by_name("demo").unwrap();
    let run = |trace_capacity| {
        let o = ServeOptions { seed: 5, duration_ms: 10, trace_capacity, ..opts(2) };
        run_scenario(scenario, &o).unwrap()
    };
    let cold = run(64);
    let reference = outcome_json(&cold).render_pretty();
    // The first untraced run fills the memo; the second finds it warm.
    for out in [run(0), run(0)] {
        assert!(outcome_json(&out).render_pretty() == reference, "a memoized run diverged");
        assert_eq!(
            (out.distinct_compositions, out.composition_lookups),
            (cold.distinct_compositions, cold.composition_lookups),
            "the per-run counts keep their meaning under a warm memo"
        );
    }
}

#[test]
fn a_memo_warmed_at_four_workers_serves_a_serial_run_unchanged() {
    let scenario = scenario_by_name("demo").unwrap();
    let run = |threads, trace_capacity| {
        let o = ServeOptions { seed: 6, duration_ms: 10, trace_capacity, ..opts(threads) };
        outcome_json(&run_scenario(scenario, &o).unwrap()).render_pretty()
    };
    let cold = run(1, 64);
    let warmed = run(4, 0);
    let serial = run(1, 0);
    assert!(warmed == cold, "--threads 4 diverged from the cold serial run");
    assert!(serial == cold, "--threads 1 on a warm memo diverged from the cold serial run");
}

#[test]
fn a_traced_run_after_a_warm_memo_still_gets_every_trace() {
    let scenario = scenario_by_name("demo").unwrap();
    let run = |trace_capacity| {
        let o = ServeOptions { seed: 7, duration_ms: 10, trace_capacity, ..opts(2) };
        run_scenario(scenario, &o).unwrap()
    };
    let cold = run(64);
    let _ = run(0);
    let warm = run(64);
    assert_eq!(warm.traces.len(), warm.distinct_compositions);
    assert_eq!(warm.traces.len(), cold.traces.len());
    for (w, c) in warm.traces.iter().zip(&cold.traces) {
        assert_eq!(w.label, c.label);
        assert!(w.trace == c.trace, "{}: the trace changed once the memo was warm", w.label);
    }
}

#[test]
fn extension_scenarios_are_byte_identical_across_worker_counts() {
    // The sparse (gather-heavy BSR mix) and inference (chained-kernel
    // NN mix) scenarios must replay byte-identically at any --threads,
    // like every other scenario.
    for name in ["sparse", "inference"] {
        let scenario = scenario_by_name(name).unwrap();
        let doc =
            |o: &ServeOptions| outcome_json(&run_scenario(scenario, o).unwrap()).render_pretty();
        let reference = doc(&cold(1));
        assert!(doc(&opts(1)) == reference, "serve {name} diverged once memoized");
        for threads in [4usize, 8] {
            let got = doc(&cold(threads));
            assert!(
                got == reference,
                "serve {name} at --threads {threads} diverged from the serial run"
            );
        }
    }
}

#[test]
fn extension_scenarios_complete_work_for_every_tenant() {
    for name in ["sparse", "inference"] {
        let scenario = scenario_by_name(name).unwrap();
        let out = run_scenario(scenario, &opts(2)).unwrap();
        assert_eq!(out.offered(), out.admitted() + out.rejected());
        for t in &out.tenants {
            assert!(t.completed > 0, "serve {name}: tenant {} completed nothing", t.name);
        }
    }
}

#[test]
fn different_seeds_give_different_traffic() {
    let scenario = scenario_by_name("tiny").unwrap();
    let a = run_scenario(scenario, &opts(2)).unwrap();
    let b = run_scenario(scenario, &ServeOptions { seed: 7, ..opts(2) }).unwrap();
    assert_ne!(
        (a.offered(), a.rounds),
        (b.offered(), b.rounds),
        "seed must steer the arrival schedule"
    );
}

#[test]
fn admission_accounting_is_conserved_under_overload() {
    let scenario = scenario_by_name("saturate").unwrap();
    let out = run_scenario(scenario, &ServeOptions { load: 4.0, ..opts(2) }).unwrap();
    assert_eq!(out.offered(), out.admitted() + out.rejected());
    assert_eq!(out.admitted(), out.completed(), "admitted requests all complete (drain phase)");
    assert!(out.rejected() > 0, "overload must produce counted rejects");
    for t in &out.tenants {
        assert_eq!(t.admission.offered, t.admission.admitted + t.admission.rejected());
        assert_eq!(t.latency.total.count(), t.completed);
    }
    assert_eq!(out.metrics.get("serve_offered"), out.offered());
    assert_eq!(
        out.metrics.get("serve_rejected_quota"),
        out.tenants.iter().map(|t| t.admission.rejected_quota).sum::<u64>()
    );
}

#[test]
fn weighted_fair_shares_track_weights_under_saturation() {
    // `saturate` offers gold and bronze equal traffic but weights them
    // 3:1; under sustained backlog the *completed* shares must follow
    // the weights, not the arrivals.
    let scenario = scenario_by_name("saturate").unwrap();
    let out = run_scenario(scenario, &ServeOptions { load: 4.0, ..opts(2) }).unwrap();
    let gold = out.tenants[0].completed as f64;
    let bronze = out.tenants[1].completed as f64;
    assert!(bronze > 0.0, "bronze must not starve");
    let ratio = gold / bronze;
    assert!(
        (2.2..=3.8).contains(&ratio),
        "completed share {gold}:{bronze} (ratio {ratio:.2}) strayed from the 3:1 weights"
    );
}

#[test]
fn overload_bends_the_latency_curve_but_not_the_transfer_split() {
    let scenario = scenario_by_name("tiny").unwrap();
    let light = run_scenario(scenario, &ServeOptions { load: 0.25, ..opts(2) }).unwrap();
    let heavy = run_scenario(scenario, &ServeOptions { load: 8.0, ..opts(2) }).unwrap();
    let p99 = |o: &pim_serve::ServeOutcome| o.aggregate_latency().total.quantile_ns(0.99);
    assert!(p99(&heavy) > p99(&light), "queueing under overload must raise p99");
    // The execute phase is load-independent: the same compositions cost
    // the same cycles no matter how long the queue is.
    let exec_p50 = |o: &pim_serve::ServeOutcome| o.aggregate_latency().execute.quantile_ns(0.5);
    let (l, h) = (exec_p50(&light), exec_p50(&heavy));
    assert!(
        l > 0 && h > 0 && h < l * 8,
        "execute phase should not explode with load (light {l}, heavy {h})"
    );
}

#[test]
fn overlapped_channel_conserves_while_shifting_transfer_latency_down() {
    use pim_host::ChannelMode;

    // Same scenario, seed, and load under the blocking and overlapped
    // channel modes: the arrival schedule and the conservation law are
    // channel-independent, while the per-tenant *transfer* latencies
    // shift down (overlap hides CPU→DPU time under kernels) and the
    // queue/transfer/execute split stays internally consistent.
    let scenario = scenario_by_name("demo").unwrap();
    let blocking = run_scenario(scenario, &opts(2)).unwrap();
    let overlapped =
        run_scenario(scenario, &ServeOptions { channel: ChannelMode::Overlapped, ..opts(2) })
            .unwrap();

    assert_eq!(blocking.offered(), overlapped.offered(), "arrivals are channel-independent");
    for out in [&blocking, &overlapped] {
        assert_eq!(out.admitted(), out.completed() + out.failed(), "conservation");
        assert!(out.completed() > 0);
        for t in &out.tenants {
            if t.latency.total.count() == 0 {
                continue;
            }
            // The recorded split is internally consistent: the phase
            // means sum to the total mean (each total is recorded as the
            // sum of its three phases).
            let split_sum = t.latency.queue.mean_ns()
                + t.latency.transfer.mean_ns()
                + t.latency.execute.mean_ns();
            let total = t.latency.total.mean_ns();
            assert!(
                (split_sum - total).abs() <= total * 1e-9 + 1.0,
                "tenant {}: phase means {split_sum} do not sum to total {total}",
                t.name
            );
        }
    }

    // Transfer stalls shrink: aggregate p50 must not grow, and the run
    // as a whole must hide a strictly positive amount of transfer time.
    let p50 = |o: &pim_serve::ServeOutcome| o.aggregate_latency().transfer.quantile_ns(0.5);
    assert!(
        p50(&overlapped) <= p50(&blocking),
        "overlapped transfer p50 {} exceeds blocking {}",
        p50(&overlapped),
        p50(&blocking)
    );
    let mean = |o: &pim_serve::ServeOutcome| o.aggregate_latency().transfer.mean_ns();
    assert!(
        mean(&overlapped) < mean(&blocking),
        "overlap must hide some transfer time (overlapped {} vs blocking {})",
        mean(&overlapped),
        mean(&blocking)
    );
}

#[test]
fn steady_state_shapes_are_pinned_byte_for_byte() {
    // The three shapes the `serve_steady` benchmark workload runs, at its
    // smoke length: weighted-fair + overlapped saturation, a checkpointed
    // fault campaign long enough for an outage to rejoin, and the
    // chained-kernel inference mix. The goldens cover none of them, and a
    // 64-bit FNV-1a of each rendered document pins its bytes without
    // committing 60 KB of JSON. The constants were captured on the commit
    // before the dispatch round was rewritten; they move only if serving
    // *results* move.
    use pim_host::ChannelMode;
    use pim_rng::fnv1a;
    use pim_serve::{resume_scenario, run_scenario_with_checkpoints, Checkpoint, FaultSpec};
    use pimulator::report::Json;

    const SATURATE: [u64; 2] = [0x8a53_c723_d252_9a51, 0x722a_90d0_0b39_41dc];
    const FAULTY: [u64; 2] = [0x58c7_b2fb_b247_7520, 0x72d7_3e64_50b5_9571];
    const FAULTY_CUTS: [u64; 2] = [0xef6a_fde8_5018_2570, 0x0c28_8287_8916_8110];
    const INFERENCE: [u64; 2] = [0x2a3d_f921_1e6a_2e44, 0x59b4_f530_04cc_3729];

    let steady = |seed: u64| ServeOptions { seed, duration_ms: 300, ..opts(1) };
    let render = |o: &pim_serve::ServeOutcome| outcome_json(o).render_pretty();
    for (i, seed) in [1u64, 2].into_iter().enumerate() {
        let saturate = run_scenario(
            scenario_by_name("saturate").unwrap(),
            &ServeOptions {
                policy: Some("weighted_fair".into()),
                channel: ChannelMode::Overlapped,
                ..steady(seed)
            },
        )
        .unwrap();
        assert_eq!(fnv1a(render(&saturate).as_bytes()), SATURATE[i], "saturate seed {seed}");

        let faulty = scenario_by_name("faulty").unwrap();
        let spec = FaultSpec::parse("transient=80,stuck=10,outages=2,rank_dpus=4").unwrap();
        let faulty_opts = ServeOptions { faults: Some(spec), ..steady(seed) };
        let mut cuts: Vec<String> = Vec::new();
        let full = run_scenario_with_checkpoints(faulty, &faulty_opts, 100, &mut |ck| {
            cuts.push(ck.to_json().render_pretty());
        })
        .unwrap();
        let uninterrupted = render(&full);
        assert_eq!(fnv1a(uninterrupted.as_bytes()), FAULTY[i], "faulty seed {seed}");
        assert!(cuts.len() >= 3, "300 ms at a 100 ms cadence cuts at least three times");
        assert_eq!(
            fnv1a(cuts.concat().as_bytes()),
            FAULTY_CUTS[i],
            "faulty checkpoints seed {seed}"
        );
        let middle = Checkpoint::from_json(&Json::parse(&cuts[cuts.len() / 2]).unwrap()).unwrap();
        let resumed = resume_scenario(faulty, &faulty_opts, &middle, 0, &mut |_| {}).unwrap();
        assert!(render(&resumed) == uninterrupted, "faulty seed {seed}: resume diverged");

        let inference =
            run_scenario(scenario_by_name("inference").unwrap(), &steady(seed)).unwrap();
        assert_eq!(fnv1a(render(&inference).as_bytes()), INFERENCE[i], "inference seed {seed}");
    }
}
