//! Trace-schema validation: a traced experiment must produce a
//! well-formed Chrome trace-event document — parseable JSON of the
//! expected shape, with per-track monotonic timestamps and balanced
//! `B`/`E` duration pairs — end to end through the real driver path
//! (experiment → job engine → ring sinks → exporter → JSON text).

use std::collections::BTreeMap;

use pim_bench::{experiment_by_name, run_experiment_with_traces, DriverOptions};
use pimulator::report::{Json, Node};
use pimulator::trace::chrome_trace;
use prim_suite::DatasetSize;

#[test]
fn traced_fig05_produces_a_valid_chrome_trace() -> Result<(), String> {
    let e = experiment_by_name("fig05_utilization").unwrap();
    let opts = DriverOptions {
        size: Some(DatasetSize::Tiny),
        threads: None, // all cores — per-job traces are scheduling-independent
        trace: true,
        ..DriverOptions::default()
    };
    let (_, traces) = run_experiment_with_traces(e, &opts).unwrap();
    assert!(!traces.is_empty(), "traced run must harvest job traces");

    // Round-trip through the actual JSON text, exactly as written to disk.
    let rendered = chrome_trace(&traces).render_pretty();
    let doc = Json::parse(&rendered).expect("trace document parses");

    let doc = Node::root("trace", &doc);
    assert_eq!(doc.field("displayTimeUnit")?.str()?, "ms");
    let events = doc.field("traceEvents")?.list(Ok)?;
    assert!(!events.is_empty());

    let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut phases_seen: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        let ph = ev.field("ph")?.str()?;
        *phases_seen.entry(ph.to_string()).or_default() += 1;
        let key: (u64, u64) = (ev.field("pid")?.int()?, ev.field("tid")?.int()?);
        if ph == "M" {
            // Metadata events carry args.name and no timestamp.
            ev.field("args")?.field("name")?;
            continue;
        }
        let ts = ev.field("ts")?.number()?;
        assert!(ts.is_finite() && ts >= 0.0, "bad ts {ts}");
        if let Some(prev) = last_ts.insert(key, ts) {
            assert!(ts >= prev, "ts regressed on track {key:?}: {prev} -> {ts}");
        }
        match ph {
            "B" => *depth.entry(key).or_default() += 1,
            "E" => {
                let d = depth.entry(key).or_default();
                *d -= 1;
                assert!(*d >= 0, "E without a matching B on track {key:?}");
            }
            "X" => {
                let dur = ev.field("dur")?.number()?;
                assert!(dur >= 0.0 && dur.is_finite());
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(depth.values().all(|&d| d == 0), "unbalanced B/E on tracks: {depth:?}");

    // The shape we promise: metadata, complete events, and instants are
    // all present in a real workload sweep.
    for ph in ["M", "X", "i"] {
        assert!(phases_seen.contains_key(ph), "no {ph} events; saw {phases_seen:?}");
    }
    Ok(())
}
