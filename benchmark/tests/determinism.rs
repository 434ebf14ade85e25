//! Determinism self-check, through the built binary: equal seeds give
//! equal `sim_digest`s; the seeded workloads change digest with the seed;
//! the PrIM workloads, whose datasets `prim-suite` seeds with fixed
//! constants, do not. Seed 2 is the held-back seed later claims must also
//! hold on.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use pimulator::report::Json;

/// Workloads whose inputs the benchmark seed reaches.
const SEEDED: [&str; 3] = ["rank_scale", "serve_steady", "short_jobs"];
/// Workloads made of PrIM cases only, plus staged kernels whose simulated
/// statistics do not depend on the data they move.
const SEED_INDEPENDENT: [&str; 3] = ["prim_compute", "prim_memory", "case_studies"];

fn get<'a>(doc: &'a Json, key: &str) -> &'a Json {
    match doc {
        Json::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no `{key}` in the results document")),
        other => panic!("expected an object holding `{key}`, got {other:?}"),
    }
}

/// Runs `run --all --smoke --seed <seed>` and returns workload → digest.
fn smoke_digests(seed: u64, tag: &str) -> BTreeMap<String, String> {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_pim-benchmark"))
        .args(["run", "--all", "--smoke", "--seed", &seed.to_string(), "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark binary starts");
    assert!(status.success(), "smoke run (seed {seed}) failed: {status}");
    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let Json::Arr(runs) = get(&doc, "runs") else { panic!("`runs` is an array") };
    runs.iter()
        .map(|r| {
            let (Json::Str(w), Json::Str(d)) = (get(r, "workload"), get(r, "sim_digest")) else {
                panic!("workload and sim_digest are strings");
            };
            assert_eq!(get(r, "failed"), &Json::UInt(0), "{w}: failed operations");
            (w.clone(), d.clone())
        })
        .collect()
}

#[test]
fn digests_follow_the_seed_rules() {
    let first = smoke_digests(1, "seed1-a");
    let again = smoke_digests(1, "seed1-b");
    let other = smoke_digests(2, "seed2");
    assert_eq!(first.len(), 6, "all six workloads ran: {first:?}");
    assert_eq!(first, again, "equal seeds must give equal digests");
    for w in SEEDED {
        assert_ne!(first[w], other[w], "{w}: the seed must reach the simulated inputs");
    }
    for w in SEED_INDEPENDENT {
        assert_eq!(first[w], other[w], "{w}: PrIM datasets are seeded inside prim-suite");
    }
}
