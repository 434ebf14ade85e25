//! End-to-end tests of the `pimsim tune` table: the emitted document is
//! deterministic, loads back, and drives `serve --tuned`; stale or
//! mismatched tables are rejected with typed errors naming the problem
//! (mirroring the checkpoint `--resume` validation).

// The checkpoint sweep uses all of it; this one has no tuples to shorten.
#[allow(dead_code)]
mod common;

use std::path::PathBuf;

use common::Damage;
use pim_bench::tune::{run_tune, TuneOptions, TunedTable, TUNE_SCHEMA};
use pim_serve::scenario_by_name;
use pimulator::experiments::DPUS_PER_RANK;
use pimulator::pim_dpu::MAX_TASKLETS;
use pimulator::report::Json;

fn tmp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-tune-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn quick(workloads: &[&str]) -> TuneOptions {
    TuneOptions {
        quick: true,
        threads: Some(2),
        workloads: Some(workloads.iter().map(ToString::to_string).collect()),
        ..TuneOptions::default()
    }
}

#[test]
fn tuned_table_round_trips_through_disk_and_drives_a_scenario() {
    // Tune the tiny scenario's whole mix (BS/VA from one tenant, TS from
    // the other), write the table, load it back, and resolve the entry
    // `serve tiny --tuned` would apply.
    let table = run_tune(&quick(&["BS", "VA", "TS"])).unwrap();
    let path = tmp_file("tuned-ok.json");
    std::fs::write(&path, table.to_json().render_pretty()).unwrap();

    let loaded = TunedTable::load(&path).unwrap();
    assert_eq!(loaded, table, "disk round trip is lossless");

    let tiny = scenario_by_name("tiny").unwrap();
    let entry = loaded.entry_for_scenario(tiny).unwrap();
    // All tiny share×weight scores tie at 1: the first tenant's first
    // mix entry wins deterministically.
    assert_eq!(entry.workload, "BS");
    assert!(pim_serve::policy_by_name(&entry.policy).is_some(), "policy is servable");
    assert!(entry.tasklets > 0 && entry.n_dpus > 0);
    assert!(
        entry.wall_ns <= entry.blocking_wall_ns,
        "the tuned point can never lose to a blocking point of its own grid"
    );
}

#[test]
fn tuned_tables_are_byte_identical_across_thread_counts() {
    let render = |threads: usize| {
        let opts = TuneOptions { threads: Some(threads), ..quick(&["VA", "TS"]) };
        run_tune(&opts).unwrap().to_json().render_pretty()
    };
    let serial = render(1);
    assert_eq!(serial, render(8), "the tuned table is a pure function of (workloads, grid, size)");
}

#[test]
fn stale_or_mismatched_tables_are_rejected_with_typed_errors() {
    // A table from a hypothetical older tuner: wrong schema tag.
    let stale = tmp_file("tuned-stale.json");
    std::fs::write(&stale, r#"{"schema": "pim-tune/0", "size": "tiny", "workloads": []}"#).unwrap();
    let err = TunedTable::load(&stale).unwrap_err();
    assert!(err.contains("schema") && err.contains(TUNE_SCHEMA), "names both schemas: {err}");

    // Not JSON at all.
    let garbage = tmp_file("tuned-garbage.json");
    std::fs::write(&garbage, "not json").unwrap();
    assert!(TunedTable::load(&garbage).unwrap_err().contains("not JSON"));

    // Unreadable path: the error carries the path.
    let missing = tmp_file("does-not-exist.json");
    let err = TunedTable::load(&missing).unwrap_err();
    assert!(err.contains("could not read"), "{err}");

    // A well-formed table naming a policy the scheduler registry does
    // not know is rejected at load, not at serve time.
    let bad_policy = tmp_file("tuned-bad-policy.json");
    std::fs::write(
        &bad_policy,
        format!(
            r#"{{"schema": "{TUNE_SCHEMA}", "size": "tiny", "workloads": [
              {{"workload": "VA", "family": "dense", "tasklets": 16, "n_dpus": 1,
                "channel": "overlapped", "policy": "round_robin",
                "wall_ns": 10.0, "blocking_wall_ns": 12.0, "speedup": 1.2}}]}}"#
        ),
    )
    .unwrap();
    let err = TunedTable::load(&bad_policy).unwrap_err();
    assert!(err.contains("round_robin"), "names the unknown policy: {err}");

    // So is an unknown channel label.
    let bad_mode = tmp_file("tuned-bad-mode.json");
    std::fs::write(
        &bad_mode,
        format!(
            r#"{{"schema": "{TUNE_SCHEMA}", "size": "tiny", "workloads": [
              {{"workload": "VA", "family": "dense", "tasklets": 16, "n_dpus": 1,
                "channel": "warp", "policy": "fifo",
                "wall_ns": 10.0, "blocking_wall_ns": 12.0, "speedup": 1.2}}]}}"#
        ),
    )
    .unwrap();
    assert!(TunedTable::load(&bad_mode).unwrap_err().contains("warp"));
}

#[test]
fn corrupt_tables_are_refused_not_applied() {
    // A real table damaged one value at a time (see `common`): whatever a
    // run would index, allocate or divide by is in range, or the table is
    // refused with the path of the damage.
    let doc = run_tune(&quick(&["VA", "TS"])).unwrap().to_json();
    let read = |doc: &Json| TunedTable::from_json(doc).map(|table| table.to_json());
    // `speedup` is written for the reader of the file; the decoder derives it.
    common::every_number_at_max("tuned", &doc, &["tuned.workloads[*].speedup"], read);

    let put = |n: u64| Damage::Put(Json::UInt(n));
    let past_u32 = u64::from(u32::MAX) + 1;
    let mut table = vec![
        ("tuned.workloads[*].tasklets", put(0)),
        ("tuned.workloads[*].tasklets", put(u64::from(MAX_TASKLETS) + 1)),
        // 4 tasklets, if narrowed with `as`.
        ("tuned.workloads[*].tasklets", put(past_u32 + 4)),
        ("tuned.workloads[*].n_dpus", put(0)),
        ("tuned.workloads[*].n_dpus", put(past_u32 + 1)),
        // Fits the field, and is 2.5 TB of MRAM; then one past the paper's 20 ranks.
        ("tuned.workloads[*].n_dpus", put(4_000_000_000)),
        ("tuned.workloads[*].n_dpus", put(u64::from(20 * DPUS_PER_RANK) + 1)),
    ];
    for wall in ["tuned.workloads[*].wall_ns", "tuned.workloads[*].blocking_wall_ns"] {
        // `1e999` parses to infinity; `null` is how NaN is written.
        let unusable =
            [Json::UInt(0), Json::Num(0.0), Json::Num(-1.5), Json::Num(f64::INFINITY), Json::Null];
        table.extend(unusable.map(|bad| (wall, Damage::Put(bad))));
    }
    for named in
        ["tuned.schema", "tuned.size", "tuned.workloads[*].channel", "tuned.workloads[*].policy"]
    {
        table.push((named, Damage::Alter));
    }
    common::every_damage_is_named("tuned", &doc, &table, read);
}

#[test]
fn a_table_missing_scenario_coverage_is_rejected_by_name() {
    // Tuned for VA only: the tiny scenario also mixes BS and TS, so the
    // lookup must refuse the whole table and say which workloads are
    // uncovered — silently tuning part of a scenario would be worse
    // than not tuning it.
    let table = run_tune(&quick(&["VA"])).unwrap();
    let tiny = scenario_by_name("tiny").unwrap();
    let err = table.entry_for_scenario(tiny).unwrap_err();
    assert!(err.contains("BS") && err.contains("TS"), "lists the gaps: {err}");
    assert!(err.contains("tiny"), "names the scenario: {err}");
    assert!(!err.contains("VA"), "covered workloads are not flagged: {err}");
}
