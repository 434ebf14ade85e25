//! End-to-end tests of the `pimsim` binary: exit codes, output-path
//! creation, and the `trace` subcommand, driven through real process
//! spawns so the argument parsing and `ExitCode` plumbing are covered.

use std::path::{Path, PathBuf};
use std::process::Command;

use pimulator::report::{Json, Node};

fn pimsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pimsim"))
}

/// A fresh scratch directory per test, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pimsim-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, rel: &str) -> PathBuf {
        self.0.join(rel)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parse_file(path: &Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn assert_has_trace_events(path: &Path) {
    let doc = parse_file(path);
    let events = Node::root("trace", &doc).field("traceEvents").unwrap().list(Ok).unwrap();
    assert!(!events.is_empty(), "{} holds no events", path.display());
}

#[test]
fn no_arguments_is_a_usage_error() {
    let st = pimsim().status().expect("spawn pimsim");
    assert_eq!(st.code(), Some(2));
}

#[test]
fn unknown_experiment_exits_nonzero() {
    for sub in ["exp", "trace"] {
        let out = pimsim().args([sub, "no_such_experiment"]).output().expect("spawn pimsim");
        assert!(!out.status.success(), "`pimsim {sub} no_such_experiment` must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown experiment"), "stderr: {stderr}");
        assert!(stderr.contains("fig05_utilization"), "should list alternatives: {stderr}");
    }
}

#[test]
fn exp_list_succeeds_and_names_every_experiment() {
    let out = pimsim().args(["exp", "--list"]).output().expect("spawn pimsim");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for e in pim_bench::experiments() {
        assert!(stdout.contains(e.name), "missing {} in --list", e.name);
    }
}

#[test]
fn exp_out_creates_missing_parent_dirs() {
    let scratch = Scratch::new("exp-out");
    let out_dir = scratch.path("a/b/c");
    let st = pimsim()
        .args(["exp", "fig11_simt", "--size", "tiny", "--threads", "2", "--json", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn pimsim");
    assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
    let doc = parse_file(&out_dir.join("fig11_simt.json"));
    assert_eq!(Node::root("results", &doc).field("experiment").unwrap().str(), Ok("fig11_simt"));
}

#[test]
fn serve_list_succeeds_and_names_every_scenario() {
    let out = pimsim().args(["serve", "--list"]).output().expect("spawn pimsim");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for s in pim_serve::scenarios() {
        assert!(stdout.contains(s.name), "missing {} in --list", s.name);
    }
}

#[test]
fn unknown_scenario_exits_nonzero_and_lists_alternatives() {
    let out = pimsim().args(["serve", "no_such_scenario"]).output().expect("spawn pimsim");
    assert!(!out.status.success(), "`pimsim serve no_such_scenario` must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scenario"), "stderr: {stderr}");
    assert!(stderr.contains("tiny"), "should list alternatives: {stderr}");
    // Malformed flags fail too, with a usage line.
    let out = pimsim().args(["serve", "tiny", "--policy", "lifo"]).output().expect("spawn pimsim");
    assert!(!out.status.success(), "unknown policy must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
}

#[test]
fn tune_unknown_workload_is_a_usage_error_that_lists_alternatives() {
    let out = pimsim().args(["tune", "--workloads", "NOPE"]).output().expect("spawn pimsim");
    assert_eq!(out.status.code(), Some(2), "`pimsim tune --workloads NOPE` is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload `NOPE`"), "stderr: {stderr}");
    assert!(!stderr.contains("pimsim list"), "names no missing subcommand: {stderr}");
    for w in pimulator::prim_suite::extended_workloads() {
        assert!(stderr.contains(w.name()), "should list {}: {stderr}", w.name());
    }
    assert!(stderr.contains("usage: pimsim tune"), "stderr: {stderr}");
}

#[test]
fn serve_writes_the_results_document() {
    let scratch = Scratch::new("serve-out");
    let out_dir = scratch.path("nested/results");
    let st = pimsim()
        .args(["serve", "tiny", "--duration-ms", "1", "--threads", "2", "--json", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn pimsim");
    assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
    let doc = parse_file(&out_dir.join("serve_tiny.json"));
    let results = Node::root("results", &doc);
    assert_eq!(results.field("serve").unwrap().str(), Ok("tiny"));
    for key in ["policy", "tenants", "totals", "timeline", "metrics"] {
        results.field(key).unwrap();
    }
    // stdout under --json is the same document that landed on disk.
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert_eq!(Json::parse(&stdout).expect("stdout parses"), doc);
    // --json keeps stderr quiet; the table form reports the composition
    // cache next to its `wrote …` line.
    assert!(!String::from_utf8_lossy(&st.stderr).contains("compositions:"));
    let st = pimsim()
        .args(["serve", "tiny", "--duration-ms", "1", "--threads", "2", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn pimsim");
    assert!(st.status.success());
    let stderr = String::from_utf8_lossy(&st.stderr);
    let line = stderr.lines().find(|l| l.starts_with("compositions: ")).expect("cache line");
    assert!(line.contains(" profiled, ") && line.contains(" lookups, hit rate 0."), "{line}");
}

#[test]
fn serve_trace_writes_a_chrome_trace() {
    let scratch = Scratch::new("serve-trace");
    let trace_path = scratch.path("deep/serve.trace.json");
    let out_dir = scratch.path("results");
    let st = pimsim()
        .args(["serve", "tiny", "--duration-ms", "1", "--threads", "2", "--json"])
        .arg("--out")
        .arg(&out_dir)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("spawn pimsim");
    assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
    assert_has_trace_events(&trace_path);
    let results = parse_file(&out_dir.join("serve_tiny.json"));
    let recorded = Node::root("results", &results).field("trace").unwrap().str().unwrap();
    assert_eq!(recorded, trace_path.display().to_string());
}

#[test]
fn trace_subcommand_writes_a_chrome_trace_and_records_the_path() {
    let scratch = Scratch::new("trace");
    let trace_path = scratch.path("nested/deep/trace.json");
    let st = pimsim()
        .args(["trace", "fig11_simt", "--size", "tiny", "--threads", "2", "--out"])
        .arg(&trace_path)
        .output()
        .expect("spawn pimsim");
    assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("metrics over retained events"), "stdout: {stdout}");
    assert_has_trace_events(&trace_path);

    // `exp --trace` records where the trace went in the results document.
    let out_dir = scratch.path("results");
    let flag_trace = scratch.path("flagged.trace.json");
    let st = pimsim()
        .args(["exp", "fig11_simt", "--size", "tiny", "--threads", "2", "--json"])
        .arg("--out")
        .arg(&out_dir)
        .arg("--trace")
        .arg(&flag_trace)
        .output()
        .expect("spawn pimsim");
    assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
    assert!(flag_trace.is_file());
    let doc = parse_file(&out_dir.join("fig11_simt.json"));
    let recorded = Node::root("results", &doc).field("trace").unwrap().str().unwrap();
    assert_eq!(recorded, flag_trace.display().to_string());
}

#[test]
fn serve_rejects_non_positive_and_non_finite_load() {
    for bad in ["0", "-1", "inf", "-inf", "NaN"] {
        let out = pimsim().args(["serve", "tiny", "--load", bad]).output().expect("spawn pimsim");
        assert!(!out.status.success(), "--load {bad} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--load must be a positive finite number"),
            "--load {bad}: stderr: {stderr}"
        );
    }
}

#[test]
fn serve_rejects_a_malformed_fault_spec() {
    for (bad, expect) in [
        ("frobnicate=1", "--faults"),
        ("transient=1001", "--faults"),
        ("rank_dpus=0", "--faults"),
        // Values that used to be truncated into acceptable ones, or to
        // overflow the loop's nanosecond arithmetic.
        ("transient=4294967297", "out of range in `transient=4294967297`"),
        ("timeout_us=18446744073709551615", "out of range in `timeout_us="),
        ("outages=4000000000", "out of range in `outages=4000000000`"),
    ] {
        let out =
            pimsim().args(["serve", "faulty", "--faults", bad]).output().expect("spawn pimsim");
        assert!(!out.status.success(), "--faults {bad} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "--faults {bad}: stderr: {stderr}");
    }
}

#[test]
fn serve_refuses_a_run_longer_than_its_clock() {
    // The first wrapped `ms * 1_000_000` to 448 384 ns and ran four rounds
    // to a results document; the last is one ms past the written bound.
    // And a 1 ms run whose fault spec lets one request back off thirty
    // times for 2^20 hours: it wrapped `round_end + delay` and exited 0.
    let scratch = Scratch::new("serve-long");
    let wraps = "seed=1,transient=1000,backoff_us=3600000000,retries=30";
    for (ms, faults, expect) in [
        ("18446744073710", "none", "longer than the virtual clock takes"),
        ("18446744073709551615", "none", "longer than the virtual clock takes"),
        ("3153600000001", "none", "longer than the virtual clock takes"),
        ("1", wraps, "--faults: retries x (timeout_us + backoff_us << 20)"),
    ] {
        let out = pimsim()
            .args(["serve", "inference", "--duration-ms", ms, "--faults", faults, "--out"])
            .arg(scratch.path("out"))
            .output()
            .expect("spawn pimsim");
        assert_eq!(out.status.code(), Some(1), "--duration-ms {ms} --faults {faults}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().count() == 1 && stderr.contains(expect),
            "--duration-ms {ms} --faults {faults}: stderr: {stderr}"
        );
        assert!(
            !scratch.path("out").exists(),
            "--duration-ms {ms} --faults {faults} wrote results"
        );
    }
}

#[test]
fn serve_checkpoint_and_resume_reproduce_the_run_byte_for_byte() {
    let scratch = Scratch::new("serve-ckpt");
    let (dir_a, dir_b) = (scratch.path("a"), scratch.path("b"));
    let faults = "seed=5,transient=80,outages=1,outage_ms=1,rank_dpus=4";
    let base = |out_dir: &Path| {
        let mut c = pimsim();
        c.args(["serve", "faulty", "--duration-ms", "4", "--threads", "2", "--faults", faults])
            .arg("--out")
            .arg(out_dir);
        c
    };
    // Full run, cutting a checkpoint every simulated millisecond.
    let st = base(&dir_a).args(["--checkpoint-every", "1"]).output().expect("spawn pimsim");
    assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
    let ckpt = dir_a.join("serve_faulty.ckpt1.json");
    assert!(ckpt.is_file(), "a 4 ms run at 1 ms cadence must cut several checkpoints");
    // Resume from a mid-run cut: the final document must be byte-identical.
    let st = base(&dir_b).arg("--resume").arg(&ckpt).output().expect("spawn pimsim");
    assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
    let a = std::fs::read_to_string(dir_a.join("serve_faulty.json")).unwrap();
    let b = std::fs::read_to_string(dir_b.join("serve_faulty.json")).unwrap();
    assert!(a == b, "resumed results JSON diverged from the uninterrupted run");
    // A checkpoint from a different run identity is refused up front.
    let st = base(&scratch.path("c"))
        .args(["--seed", "43"])
        .arg("--resume")
        .arg(&ckpt)
        .output()
        .expect("spawn pimsim");
    assert_eq!(st.status.code(), Some(1), "a seed-43 run must not accept a seed-42 checkpoint");
    let stderr = String::from_utf8_lossy(&st.stderr);
    assert!(stderr.contains("checkpoint.seed: `42`, this run has `43`"), "stderr: {stderr}");
    // So is a file that is no checkpoint at all, however deep it nests:
    // one line and exit 1, not a stack overflow.
    let deep = scratch.path("deep.json");
    std::fs::write(&deep, "[".repeat(100_000)).unwrap();
    let st = base(&scratch.path("d")).arg("--resume").arg(&deep).output().expect("spawn pimsim");
    assert_eq!(st.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&st.stderr);
    assert!(stderr.lines().count() == 1 && stderr.contains("nesting deeper than"), "{stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error_on_every_subcommand() {
    for sub in [
        &["run", "kernel.s"][..],
        &["exp", "fig11_simt"],
        &["trace", "fig11_simt"],
        &["serve", "tiny"],
        &["tune"],
        &["fuzz"],
    ] {
        let out = pimsim().args(sub).arg("--frobnicate").output().expect("spawn pimsim");
        assert_eq!(out.status.code(), Some(2), "pimsim {sub:?} --frobnicate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag `--frobnicate`"), "stderr: {stderr}");
        assert!(stderr.contains(&format!("usage: pimsim {}", sub[0])), "stderr: {stderr}");
    }
}

#[test]
fn run_rejects_malformed_and_out_of_range_flag_values() {
    let scratch = Scratch::new("run-flags");
    let kernel = scratch.path("kernel.s");
    std::fs::write(&kernel, ".text\nmain:\n    movi r0, 1\n    stop\n").expect("write kernel");
    let run = |flags: &[&str]| {
        pimsim().arg("run").arg(&kernel).args(flags).output().expect("spawn pimsim")
    };
    let ok = run(&["--tasklets", "24", "--trace", "2", "--cache", "--ilp", "DRSF"]);
    assert!(ok.status.success(), "stderr: {}", String::from_utf8_lossy(&ok.stderr));
    for (flags, expect) in [
        (&["--tasklets", "0"][..], "--tasklets: must be in 1..=24"),
        (&["--tasklets", "99"], "--tasklets: must be in 1..=24"),
        (&["--tasklets", "abc"], "--tasklets: `abc` is not a number"),
        (&["--tasklets"], "--tasklets needs a value"),
        (&["--trace"], "--trace needs a value"),
        (&["--trace", "few"], "--trace: `few` is not a number"),
        (&["--ilp"], "--ilp needs a value"),
        (&["--ilp", "XYZ"], "--ilp: `X` is not one of D, R, S, F"),
        (&["--cache", "--mmu"], "--mmu sits on the scratchpad DMA path"),
    ] {
        let out = run(flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: stderr: {stderr}");
        assert!(stderr.contains(expect), "{flags:?}: stderr: {stderr}");
        assert!(stderr.contains("usage: pimsim run"), "{flags:?}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: stderr: {stderr}");
    }
}

/// A data image past WRAM is refused at the line that overflows, before
/// anything of its size is allocated: the run is held to 256 MB of address
/// space, which a 4 GB image would abort under.
#[cfg(target_os = "linux")]
#[test]
fn run_refuses_a_data_image_past_wram_at_its_line() {
    let scratch = Scratch::new("run-wram");
    let kernel = scratch.path("huge.s");
    std::fs::write(&kernel, ".data\nx: .space 4294967293\ny: .word 5\n.text\n    stop\n")
        .expect("write kernel");
    let out = Command::new("sh")
        .args(["-c", "ulimit -v 262144 && exec \"$0\" run \"$1\""])
        .arg(env!("CARGO_BIN_EXE_pimsim"))
        .arg(&kernel)
        .output()
        .expect("spawn pimsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains("huge.s: line 2: data image reaches"), "stderr: {stderr}");
}

/// A link error names the source line of the instruction it is about.
#[test]
fn run_reports_a_link_error_at_its_source_line() {
    let scratch = Scratch::new("run-link");
    let kernel = scratch.path("imm.s");
    std::fs::write(&kernel, ".text\n    movi r0, 1\n    bne r0, 70000, done\ndone:\n    stop\n")
        .expect("write kernel");
    let out = pimsim().arg("run").arg(&kernel).output().expect("spawn pimsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains("imm.s: line 3: link error: instruction 1:"), "stderr: {stderr}");
}

/// `pimsim run --trace N` on a three-tasklet kernel with a DMA round trip
/// and a mutex (`tests/data/trace_sample.s`; the `--cache` leg runs its
/// DMA-free twin, cached mode rejecting DMA). Each `tests/data/*.txt` is
/// the stdout of `--trace 100000` recorded from the last binary that kept
/// the trace in `DpuRunStats`, before `--trace` moved onto a sink handed to
/// `Dpu::launch_with`; `--trace N` printed that file's first N trace lines
/// and its three summary lines, which is what every N is held to here.
#[test]
fn run_trace_prints_the_first_n_retired_instructions_byte_for_byte() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    for (kernel, flags, recorded) in [
        ("trace_sample.s", &[][..], "trace_sample.plain.txt"),
        ("trace_sample.s", &["--ilp", "DRSF"], "trace_sample.ilp.txt"),
        ("trace_sample.s", &["--mmu"], "trace_sample.mmu.txt"),
        ("trace_sample_nodma.s", &["--cache"], "trace_sample_nodma.cache.txt"),
    ] {
        let recorded = std::fs::read_to_string(data.join(recorded)).expect("read recorded stdout");
        let lines: Vec<&str> = recorded.lines().collect();
        let (trace, summary) = lines.split_at(lines.len() - 3);
        for n in [0usize, 4, 100_000] {
            let out = pimsim()
                .arg("run")
                .arg(data.join(kernel))
                .args(["--tasklets", "3", "--trace", &n.to_string()])
                .args(flags)
                .output()
                .expect("spawn pimsim");
            assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
            let want: String =
                trace.iter().take(n).chain(summary).map(|line| format!("{line}\n")).collect();
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                want,
                "{kernel} {flags:?} --trace {n}"
            );
        }
        // One line per instruction, in issue order; two share a cycle
        // exactly where the pipeline is two-way superscalar.
        assert!(summary[0].contains(&format!("| instructions {} |", trace.len())), "{summary:?}");
        let cycles: Vec<u64> =
            trace.iter().map(|line| line[1..9].trim().parse().expect("cycle column")).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "{kernel} {flags:?}");
        let shared = cycles.windows(2).any(|w| w[0] == w[1]);
        assert_eq!(shared, flags.contains(&"DRSF"), "{kernel} {flags:?}");
    }
}

#[test]
fn fuzz_bad_corpus_path_exits_nonzero() {
    let scratch = Scratch::new("fuzz-bad-corpus");
    let missing = scratch.path("no/such/corpus");
    let out = pimsim()
        .args(["fuzz", "--budget", "1", "--corpus"])
        .arg(&missing)
        .output()
        .expect("spawn pimsim");
    assert!(!out.status.success(), "a missing corpus dir must fail the campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read corpus dir"), "stderr: {stderr}");
}

#[test]
fn fuzz_out_creates_missing_parent_dirs() {
    let scratch = Scratch::new("fuzz-out");
    let out_path = scratch.path("x/y/fuzz.json");
    let st = pimsim()
        .args(["fuzz", "--seed", "3", "--budget", "4", "--threads", "2", "--json", "--out"])
        .arg(&out_path)
        .output()
        .expect("spawn pimsim");
    assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
    let doc = parse_file(&out_path);
    let report = Node::root("fuzz", &doc);
    assert_eq!(report.field("seed").unwrap().int::<u64>(), Ok(3));
    assert_eq!(report.field("failures_seen").unwrap().int::<u64>(), Ok(0));
    // --json prints the same document to stdout.
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("\"class_hazard_reachable\""), "stdout: {stdout}");
}

#[test]
fn fuzz_mutate_self_check_succeeds_and_prints_a_shrunk_repro() {
    let out = pimsim()
        .args(["fuzz", "--mutate", "--seed", "1", "--budget", "256", "--threads", "2"])
        .output()
        .expect("spawn pimsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for bug in ["scoreboard", "replay", "due"] {
        let detected = format!("mutation self-check: detected the seeded {bug} bug");
        assert!(stdout.contains(&detected), "stdout: {stdout}");
    }
    assert_eq!(stdout.matches("shrunk repro (").count(), 3, "stdout: {stdout}");
    // A budget of nothing generates nothing: every bug survives.
    let none = pimsim().args(["fuzz", "--mutate", "--budget", "0"]).output().expect("spawn pimsim");
    assert!(!none.status.success());
    let stderr = String::from_utf8_lossy(&none.stderr);
    for bug in ["scoreboard", "replay", "due"] {
        assert!(stderr.contains(&format!("{bug} bug survived")), "stderr: {stderr}");
    }
}
