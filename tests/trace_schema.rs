//! Trace-schema validation: a traced experiment must produce a
//! well-formed Chrome trace-event document — parseable JSON of the
//! expected shape, with per-track monotonic timestamps and balanced
//! `B`/`E` duration pairs — end to end through the real driver path
//! (experiment → job engine → ring sinks → exporter → JSON text).

use std::collections::BTreeMap;

use pim_bench::{experiment_by_name, run_experiment_with_traces, DriverOptions};
use pimulator::report::Json;
use pimulator::trace::chrome_trace;
use prim_suite::DatasetSize;

fn field<'j>(ev: &'j Json, key: &str) -> Option<&'j Json> {
    match ev {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(j: &Json) -> u64 {
    match j {
        Json::UInt(u) => *u,
        other => panic!("expected unsigned integer, got {other:?}"),
    }
}

fn as_f64(j: &Json) -> f64 {
    match j {
        Json::Num(x) => *x,
        Json::UInt(u) => *u as f64,
        Json::Int(i) => *i as f64,
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn traced_fig05_produces_a_valid_chrome_trace() {
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

    let Json::Obj(pairs) = &doc else { panic!("document must be an object") };
    assert_eq!(pairs[0].0, "traceEvents");
    assert_eq!(
        pairs.iter().find(|(k, _)| k == "displayTimeUnit").map(|(_, v)| v),
        Some(&Json::from("ms"))
    );
    let Json::Arr(events) = &pairs[0].1 else { panic!("traceEvents must be an array") };
    assert!(!events.is_empty());

    let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut phases_seen: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        let ph = match field(ev, "ph").expect("every event has ph") {
            Json::Str(s) => s.clone(),
            other => panic!("ph not a string: {other:?}"),
        };
        *phases_seen.entry(ph.clone()).or_default() += 1;
        let key = (as_u64(field(ev, "pid").expect("pid")), as_u64(field(ev, "tid").expect("tid")));
        if ph == "M" {
            // Metadata events carry args.name and no timestamp.
            assert!(field(ev, "args").is_some(), "metadata without args");
            continue;
        }
        let ts = as_f64(field(ev, "ts").expect("timed event has ts"));
        assert!(ts.is_finite() && ts >= 0.0, "bad ts {ts}");
        if let Some(prev) = last_ts.insert(key, ts) {
            assert!(ts >= prev, "ts regressed on track {key:?}: {prev} -> {ts}");
        }
        match ph.as_str() {
            "B" => *depth.entry(key).or_default() += 1,
            "E" => {
                let d = depth.entry(key).or_default();
                *d -= 1;
                assert!(*d >= 0, "E without a matching B on track {key:?}");
            }
            "X" => {
                let dur = as_f64(field(ev, "dur").expect("X has dur"));
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
}
