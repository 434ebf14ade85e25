//! Golden-snapshot tests: every experiment's Tiny-size output must
//! regenerate **byte-identically** — same simulation results, same table
//! text, same float shortest-round-trip rendering, same key order —
//! regardless of worker count (the job engine restores job order) or host.
//! `results/golden/<name>.txt` pins the text `pimsim exp` prints and
//! `results/golden/<name>.json`, where committed, the document it writes.
//!
//! If a change legitimately shifts the output, regenerate with:
//!
//! ```text
//! cargo run --release -p pim-cli --bin pimsim -- \
//!     exp <name> --size tiny --out results/golden > results/golden/<name>.txt
//! ```
//!
//! This also writes `results/golden/<name>.json`: delete it again unless
//! that experiment already had one committed. Review the diff like any
//! other code change.

use std::path::{Path, PathBuf};

use pim_bench::{experiment_by_name, experiments, run_experiment, DriverOptions};
use prim_suite::DatasetSize;

/// Experiments with no text golden: `exp_sim_rate` prints wall-clock rates.
const UNPINNED: [&str; 1] = ["exp_sim_rate"];

fn golden(name: &str, ext: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/golden/{name}.{ext}"))
}

/// Where `got` first departs from `want`: the line number and both lines.
fn first_difference(want: &str, got: &str) -> String {
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (None, None) => break,
            (w, g) if w != g => {
                return format!("line {line}: golden {w:?}, regenerated {g:?}");
            }
            _ => {}
        }
    }
    "the line endings differ".to_string()
}

/// Regenerates experiment `name` and describes each committed golden its
/// output departs from. The `.txt` must exist; the `.json` must too when
/// `json_required`, and is compared only where it exists otherwise.
fn moved_goldens(name: &str, json_required: bool) -> Vec<String> {
    let e = experiment_by_name(name).unwrap_or_else(|| panic!("unknown experiment {name}"));
    let opts = DriverOptions {
        size: Some(DatasetSize::Tiny),
        threads: Some(2),
        ..DriverOptions::default()
    };
    let report = run_experiment(e, &opts).unwrap_or_else(|err| panic!("{name} faulted: {err}"));
    let (txt, json) = (golden(name, "txt"), golden(name, "json"));
    assert!(txt.exists(), "{name} has no text golden {}", txt.display());
    assert!(!json_required || json.exists(), "{name} has no JSON golden {}", json.display());
    let mut moved = Vec::new();
    for (path, got) in [(txt, report.text), (json, report.json.render_pretty())] {
        let Ok(want) = std::fs::read_to_string(&path) else { continue };
        if got != want {
            moved.push(format!("{}: {}", path.display(), first_difference(&want, &got)));
        }
    }
    moved
}

fn assert_unmoved(moved: &[String]) {
    assert!(
        moved.is_empty(),
        "regeneration is not byte-identical — if the change is intended, regenerate the \
         goldens (see this file's header) and review the diff:\n{}",
        moved.join("\n")
    );
}

/// For the experiments whose `.json` golden is committed: both goldens are
/// required.
fn check_golden(name: &str) {
    assert_unmoved(&moved_goldens(name, true));
}

#[test]
fn fig05_regenerates_byte_identically() {
    check_golden("fig05_utilization");
}

#[test]
fn fig12_regenerates_byte_identically() {
    check_golden("fig12_ilp_ablation");
}

#[test]
fn exp_serving_regenerates_byte_identically() {
    check_golden("exp_serving");
}

#[test]
fn exp_serving_faults_regenerates_byte_identically() {
    check_golden("exp_serving_faults");
}

#[test]
fn exp_sparse_nn_regenerates_byte_identically() {
    check_golden("exp_sparse_nn");
}

#[test]
fn exp_transfer_study_regenerates_byte_identically() {
    check_golden("exp_transfer_study");
}

/// The experiments with a committed `.json` have a test of their own above;
/// this covers the text of the rest.
#[test]
fn every_experiment_regenerates_its_goldens() {
    let moved: Vec<String> = experiments()
        .iter()
        .filter(|e| !UNPINNED.contains(&e.name) && !golden(e.name, "json").exists())
        .flat_map(|e| moved_goldens(e.name, false))
        .collect();
    assert_unmoved(&moved);
}

#[test]
fn goldens_are_independent_of_worker_count() {
    let e = experiment_by_name("fig05_utilization").unwrap();
    let base = DriverOptions { size: Some(DatasetSize::Tiny), ..DriverOptions::default() };
    let serial = run_experiment(e, &DriverOptions { threads: Some(1), ..base.clone() }).unwrap();
    let parallel = run_experiment(e, &DriverOptions { threads: Some(8), ..base }).unwrap();
    assert_eq!(serial.json.render_pretty(), parallel.json.render_pretty());
}
