//! The metric and workload registry: every name the benchmark prints, with
//! its unit, direction, regression bound and — for per-layer metrics — the
//! end-to-end metric and workload it is predicted to move. `BENCHMARK.json`
//! at the repository root is generated from these tables (`pim-benchmark
//! manifest`) and a test keeps the committed file equal to them.

use pimulator::report::Json;

/// Timed passes of an untraced run: fixed, so both sides of every
/// comparison summarise the same number of samples.
pub const TIMED_PASSES: usize = 10;

/// Untraced/traced pass pairs of a traced run.
pub const TRACED_PAIRS: usize = 3;

/// `run_seconds` of `BENCHMARK.json`: a floor under the measuring time. On
/// the 2-core reference box the shortest pass takes a second, so
/// `TIMED_PASSES` passes already outlast it and n = 10 everywhere; a commit
/// that makes passes much faster runs extra passes rather than measure
/// for less time.
pub const RUN_SECONDS: u64 = 6;

/// The command the driver appends `--workload … --seed … --seconds …
/// --trace …` to.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "prim_compute",
        why: "11 compute-bound PrIM kernels + staged ALU-LOOP/STREAM: >=80% of cycles issue, so the pim-dpu scheduler and op dispatch do the work; unvalidated against hardware",
    },
    Workload {
        name: "prim_memory",
        why: "6 DMA-bound PrIM kernels + staged DMA-HEAVY/BARRIER-HEAVY: cycles >> instructions, so MemEngine, the pim-dram bank and wake-up dominate and dispatch is minor",
    },
    Workload {
        name: "case_studies",
        why: "GEMV/HST-S/BS under naive, fast, SIMT, ILP, cache, MMU, few-tasklet and traced configs + multi_tenant: the paper's design points, off the default compiled loop",
    },
    Workload {
        name: "rank_scale",
        why: "512-DPU rank launches (batched and per-DPU), VA on 1/4/16 DPUs blocking/overlapped, BS broadcast: pim-host chunking, copies, channel and the SoA batch executor",
    },
    Workload {
        name: "serve_steady",
        why: "saturate, faulty (checkpointed) and inference scenarios for 20 simulated seconds each: >99% composition-cache hits, so traffic, queue, policy, SLO and fault code run",
    },
    Workload {
        name: "short_jobs",
        why: "tiny goldens, a fuzz campaign, a quick tune and a cold serve demo: hundreds of sub-10ms simulations where per-job set-up dominates, the shape of cargo test",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// 0.0 marks an absolute bound (any worsening counts).
    pub bound: f64,
    /// The workloads that report the metric; empty means every workload.
    pub on: &'static [&'static str],
    /// Whether `BENCHMARK.json` lists the metric. The driver wants every
    /// listed metric on every workload's result line, never 0, with a
    /// relative bound its run-to-run spread stays inside. That rules out
    /// the four throughput metrics (each defined on some workloads only),
    /// `failed_frac` (0 on a healthy tree, absolute bound) and `pass_s`
    /// (on the shared reference box the median pass moves by 7-39 % between
    /// runs of one commit; PERFORMANCE.md has the measurements). They are
    /// reported by `run` and judged by `compare` all the same.
    pub listed: bool,
}

impl EndToEnd {
    pub fn reported_on(&self, workload: &str) -> bool {
        self.on.is_empty() || self.on.contains(&workload)
    }
}

/// The workloads whose returned reports carry `DpuRunStats`.
const DPU_WORKLOADS: &[&str] = &["prim_compute", "prim_memory", "case_studies", "rank_scale"];

/// The end-to-end metrics, in print order; tracing is off while they are
/// measured. The issue's nine, plus `pass_floor_s`: the pass time the
/// driver gates on, because it repeats on a disturbed box where the median
/// does not. The unlisted metrics keep the issue's bound of 0.10. The
/// listed ones carry the contract's widest, 0.25: the driver accepts the
/// benchmark only if its own ten-seed spread stays inside the bound, and
/// in disturbed periods that spread reached 0.19 for `pass_floor_s` and
/// 0.16 for `peak_rss_mb` (both on `short_jobs`; PERFORMANCE.md).
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, &[], true),
    e2e("pass_s", "s", Better::Lower, 0.10, &[], false),
    e2e("pass_floor_s", "s", Better::Lower, 0.25, &[], true),
    e2e("sim_minstr_per_s", "Minstr/s", Better::Higher, 0.10, DPU_WORKLOADS, false),
    e2e("sim_mcycles_per_s", "Mcycle/s", Better::Higher, 0.10, DPU_WORKLOADS, false),
    e2e("serve_kreq_per_s", "kreq/s", Better::Higher, 0.10, &["serve_steady"], false),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.10, &["short_jobs"], false),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, &[], true),
    e2e(FAILED_FRAC, "frac", Better::Lower, 0.0, &[], false),
    // 1 -> 0 is the only way this worsens; the contract wants a relative
    // bound above 0, and any such bound catches it.
    e2e("sim_digest_stable", "bool", Better::Higher, 0.01, &[], true),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
    listed: bool,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, on, listed }
}

pub const FAILED_FRAC: &str = "failed_frac";

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one is predicted to move …
    pub moves: &'static str,
    /// … and the workload it should move it on. Everywhere else the
    /// prediction is no change.
    pub on: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves, on }
}

use Better::{Higher as H, Lower as L};

/// Per-layer metrics (traced run only). Layer = the prefix before the
/// first `.`, a crate of the repository or `bench` for the harness.
/// Times are means per traced pass; counts are per pass and exact;
/// `*_frac`, `*_rate` and `dpu.ipc` are modelled (simulated) quantities;
/// everything a probe measures says so in README.md.
pub const PER_LAYER: [PerLayer; 100] = [
    // asm, isa
    pl("asm.build_s", "s", L, "pass_s", "short_jobs"),
    pl("asm.build_calls", "count", L, "pass_s", "short_jobs"),
    pl("asm.assemble_ns_per_instr", "ns", L, "setup_s", "short_jobs"),
    pl("isa.decode_ns_per_instr", "ns", L, "pass_s", "short_jobs"),
    // dpu
    pl("dpu.load_s", "s", L, "jobs_per_s", "short_jobs"),
    pl("dpu.load_calls", "count", L, "jobs_per_s", "short_jobs"),
    pl("dpu.launch_s", "s", L, "sim_minstr_per_s", "prim_compute"),
    pl("dpu.launch_calls", "count", L, "sim_minstr_per_s", "prim_compute"),
    pl("dpu.instr", "count", H, "sim_minstr_per_s", "prim_compute"),
    pl("dpu.cycles", "count", H, "sim_mcycles_per_s", "prim_memory"),
    pl("dpu.dma_requests", "count", H, "sim_mcycles_per_s", "prim_memory"),
    pl("dpu.host_ns_per_instr", "ns", L, "sim_minstr_per_s", "prim_compute"),
    pl("dpu.host_ns_per_dma", "ns", L, "sim_mcycles_per_s", "prim_memory"),
    pl("dpu.host_ns_per_cycle", "ns", L, "sim_mcycles_per_s", "prim_memory"),
    pl("dpu.host_ns_per_sync", "ns", L, "sim_mcycles_per_s", "prim_memory"),
    pl("dpu.naive_over_compiled", "ratio", L, "pass_s", "case_studies"),
    pl("dpu.fast_over_compiled", "ratio", L, "pass_s", "case_studies"),
    pl("dpu.simt_ns_per_instr", "ns", L, "pass_s", "case_studies"),
    pl("dpu.ilp_ns_per_instr", "ns", L, "pass_s", "case_studies"),
    pl("dpu.batch_mcycles_per_s", "Mcycle/s", H, "sim_mcycles_per_s", "rank_scale"),
    pl("dpu.per_dpu_mcycles_per_s", "Mcycle/s", H, "sim_mcycles_per_s", "rank_scale"),
    pl("dpu.batch_speedup", "ratio", H, "sim_mcycles_per_s", "rank_scale"),
    pl("dpu.active_frac", "frac", H, "sim_minstr_per_s", "prim_compute"),
    pl("dpu.idle_memory_frac", "frac", L, "sim_mcycles_per_s", "prim_memory"),
    pl("dpu.idle_revolver_frac", "frac", L, "sim_minstr_per_s", "prim_compute"),
    pl("dpu.idle_rf_frac", "frac", L, "sim_minstr_per_s", "prim_compute"),
    pl("dpu.ipc", "instr/cycle", H, "sim_minstr_per_s", "prim_compute"),
    // dram
    pl("dram.probe_seq_ns_per_access", "ns", L, "sim_mcycles_per_s", "prim_memory"),
    pl("dram.probe_rand_ns_per_access", "ns", L, "sim_mcycles_per_s", "prim_memory"),
    pl("dram.accesses", "count", H, "sim_mcycles_per_s", "prim_memory"),
    pl("dram.row_hit_rate", "frac", H, "sim_mcycles_per_s", "prim_memory"),
    pl("dram.mean_latency_cycles", "cycles", L, "sim_mcycles_per_s", "prim_memory"),
    pl("dram.bytes_read", "B", H, "sim_mcycles_per_s", "prim_memory"),
    pl("dram.bytes_written", "B", H, "sim_mcycles_per_s", "prim_memory"),
    // cache, mmu, trace
    pl("cache.probe_ns_per_access", "ns", L, "pass_s", "case_studies"),
    pl("cache.d_hit_rate", "frac", H, "pass_s", "case_studies"),
    pl("cache.i_hit_rate", "frac", H, "pass_s", "case_studies"),
    pl("cache.accesses", "count", H, "pass_s", "case_studies"),
    pl("mmu.probe_ns_per_translate", "ns", L, "pass_s", "case_studies"),
    pl("mmu.tlb_hit_rate", "frac", H, "pass_s", "case_studies"),
    pl("trace.event_overhead_frac", "frac", L, "pass_s", "case_studies"),
    // host
    pl("host.new_s", "s", L, "jobs_per_s", "short_jobs"),
    pl("host.load_s", "s", L, "pass_s", "rank_scale"),
    pl("host.push_s", "s", L, "pass_s", "rank_scale"),
    pl("host.push_bytes", "B", H, "pass_s", "rank_scale"),
    pl("host.push_gb_per_s", "GB/s", H, "pass_s", "rank_scale"),
    pl("host.pull_s", "s", L, "pass_s", "rank_scale"),
    pl("host.pull_bytes", "B", H, "pass_s", "rank_scale"),
    pl("host.pull_gb_per_s", "GB/s", H, "pass_s", "rank_scale"),
    pl("host.launch_all_s", "s", L, "sim_mcycles_per_s", "rank_scale"),
    pl("host.launch_all_calls", "count", L, "sim_mcycles_per_s", "rank_scale"),
    pl("host.channel_ns_per_op", "ns", L, "pass_s", "rank_scale"),
    pl("host.sim_to_dpu_ns", "ns", L, "pass_s", "rank_scale"),
    pl("host.sim_kernel_ns", "ns", L, "pass_s", "rank_scale"),
    pl("host.sim_from_dpu_ns", "ns", L, "pass_s", "rank_scale"),
    pl("host.sim_wall_ns", "ns", L, "pass_s", "rank_scale"),
    pl("host.sim_overlap_gain", "ratio", H, "pass_s", "rank_scale"),
    // prim
    pl("prim.run_s", "s", L, "pass_s", "prim_compute"),
    pl("prim.run_calls", "count", L, "pass_s", "prim_compute"),
    pl("prim.validation_failures", "count", L, "pass_s", "prim_compute"),
    pl("prim.host_ns_per_instr", "ns", L, "pass_s", "prim_memory"),
    pl("prim.stream_non_launch_frac", "frac", L, "pass_s", "prim_compute"),
    // core (pimulator + the pim-bench driver)
    pl("core.exp_s", "s", L, "pass_s", "short_jobs"),
    pl("core.exp_calls", "count", L, "pass_s", "short_jobs"),
    pl("core.golden_mismatches", "count", L, "jobs_per_s", "short_jobs"),
    pl("core.jobs_efficiency", "frac", H, "jobs_per_s", "short_jobs"),
    pl("core.report_render_ns_per_byte", "ns", L, "pass_s", "short_jobs"),
    pl("core.report_parse_ns_per_byte", "ns", L, "pass_s", "short_jobs"),
    // serve
    pl("serve.run_s", "s", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.rounds", "count", H, "serve_kreq_per_s", "serve_steady"),
    pl("serve.offered", "count", H, "serve_kreq_per_s", "serve_steady"),
    pl("serve.admitted", "count", H, "serve_kreq_per_s", "serve_steady"),
    pl("serve.rejected", "count", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.completed", "count", H, "serve_kreq_per_s", "serve_steady"),
    pl("serve.failed", "count", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.retried", "count", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.degraded", "count", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.distinct_compositions", "count", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.composition_hit_rate", "frac", H, "serve_kreq_per_s", "serve_steady"),
    pl("serve.host_us_per_round", "us", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.host_ns_per_request", "ns", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.traffic_ns_per_arrival", "ns", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.outcome_json_s", "s", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.checkpoint_roundtrip_ms", "ms", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.profile_ms_per_comp", "ms", L, "jobs_per_s", "short_jobs"),
    pl("serve.colocate_us_per_comp", "us", L, "jobs_per_s", "short_jobs"),
    pl("serve.sim_throughput_rps", "1/s", H, "serve_kreq_per_s", "serve_steady"),
    pl("serve.sim_p50_us", "us", L, "serve_kreq_per_s", "serve_steady"),
    pl("serve.sim_p99_us", "us", L, "serve_kreq_per_s", "serve_steady"),
    // fuzz, tune
    pl("fuzz.campaign_s", "s", L, "jobs_per_s", "short_jobs"),
    pl("fuzz.cases", "count", H, "jobs_per_s", "short_jobs"),
    pl("fuzz.cases_per_s", "1/s", H, "jobs_per_s", "short_jobs"),
    pl("fuzz.coverage_cells", "count", H, "jobs_per_s", "short_jobs"),
    pl("fuzz.failures", "count", L, "jobs_per_s", "short_jobs"),
    pl("tune.run_s", "s", L, "jobs_per_s", "short_jobs"),
    pl("tune.points", "count", H, "jobs_per_s", "short_jobs"),
    pl("tune.points_per_s", "1/s", H, "jobs_per_s", "short_jobs"),
    // bench: the harness itself
    pl("bench.trace_overhead_frac", "frac", L, "pass_s", "short_jobs"),
    pl("bench.pass_iqr_frac", "frac", L, "pass_s", "short_jobs"),
    pl("bench.timer_ns", "ns", L, "pass_s", "short_jobs"),
];

pub fn workload_by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn check_name(name: &str) -> Result<(), String> {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    let starts_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    if !starts_ok || name.len() > 64 || !name.chars().all(ok_char) {
        return Err(format!(
            "`{name}`: a name is 1-64 of [A-Za-z0-9_.-] starting with a letter or digit"
        ));
    }
    Ok(())
}

fn check_unit(unit: &str) -> Result<(), String> {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    if unit.is_empty() || unit.len() > 16 || !unit.chars().all(ok_char) {
        return Err(format!("`{unit}`: a unit is 1-16 of [A-Za-z0-9_/%.-]"));
    }
    Ok(())
}

/// Checks the tables against the contract `BENCHMARK.json` is held to:
/// name and unit charsets, the table size limits, names used once, and —
/// for the end-to-end metrics `BENCHMARK.json` lists — reported on every
/// workload, bounds in range and `setup_s` present with the largest bound. Every metric's scope and every
/// per-layer metric's "moves" target must name an existing workload, and a
/// "moves" target an end-to-end metric reported on that workload.
pub fn validate(
    workloads: &[Workload],
    end_to_end: &[EndToEnd],
    per_layer: &[PerLayer],
) -> Result<(), String> {
    let listed: Vec<&EndToEnd> = end_to_end.iter().filter(|m| m.listed).collect();
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads: need 2 to 8", workloads.len()));
    }
    if !(1..=16).contains(&listed.len()) {
        return Err(format!("{} listed end-to-end metrics: need 1 to 16", listed.len()));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!("{} per-layer metrics: need 1 to 128", per_layer.len()));
    }
    let mut seen: Vec<&str> = Vec::new();
    let mut once = |name: &'static str| {
        check_name(name)?;
        if seen.contains(&name) {
            return Err(format!("`{name}` is used twice"));
        }
        seen.push(name);
        Ok(())
    };
    for w in workloads {
        once(w.name)?;
        if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!("`{}`: why must be one line of at most 200 characters", w.name));
        }
    }
    for m in end_to_end {
        once(m.name)?;
        check_unit(m.unit)?;
        if let Some(w) = m.on.iter().find(|w| !workloads.iter().any(|x| x.name == **w)) {
            return Err(format!("`{}` is scoped to unknown workload `{w}`", m.name));
        }
    }
    for m in &listed {
        if !m.on.is_empty() {
            return Err(format!("`{}` is listed but not reported on every workload", m.name));
        }
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("`{}`: bound {} outside (0, 0.25]", m.name, m.bound));
        }
    }
    let setup = listed
        .iter()
        .find(|m| m.name == "setup_s")
        .ok_or("the listed end-to-end metrics must include `setup_s`")?;
    if setup.unit != "s" || setup.better != Better::Lower {
        return Err("`setup_s` must be in s, lower is better".to_string());
    }
    if listed.iter().any(|m| m.bound > setup.bound) {
        return Err("`setup_s` must carry the largest bound".to_string());
    }
    for m in per_layer {
        once(m.name)?;
        check_unit(m.unit)?;
        if !workloads.iter().any(|w| w.name == m.on) {
            return Err(format!("`{}` moves a metric on unknown workload `{}`", m.name, m.on));
        }
        match end_to_end.iter().find(|e| e.name == m.moves) {
            None => {
                return Err(format!("`{}` moves unknown end-to-end metric `{}`", m.name, m.moves))
            }
            Some(e) if !e.reported_on(m.on) => {
                return Err(format!(
                    "`{}` moves `{}`, which `{}` does not report",
                    m.name, m.moves, m.on
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// `BENCHMARK.json`, built from the tables with exactly the contract's
/// keys.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::arr(items.iter().map(|s| Json::from(*s)));
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        (
            "workloads",
            Json::arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))])),
            ),
        ),
        (
            "end_to_end",
            Json::arr(END_TO_END.iter().filter(|m| m.listed).map(|m| {
                Json::obj([
                    ("name", Json::from(m.name)),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from(m.better.label())),
                    ("bound", Json::from(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            Json::arr(PER_LAYER.iter().map(|m| {
                Json::obj([
                    ("name", Json::from(m.name)),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from(m.better.label())),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_meets_the_contract() {
        validate(&WORKLOADS, &END_TO_END, &PER_LAYER).unwrap();
    }

    #[test]
    fn the_validator_rejects_what_the_contract_rejects() {
        let bad_name = [pl("serve run", "s", L, "pass_s", "short_jobs")];
        assert!(validate(&WORKLOADS, &END_TO_END, &bad_name).is_err());
        let bad_unit = [pl("serve.run_s", "s per pass", L, "pass_s", "short_jobs")];
        assert!(validate(&WORKLOADS, &END_TO_END, &bad_unit).is_err());
        let bad_moves = [pl("serve.run_s", "s", L, "latency", "short_jobs")];
        assert!(validate(&WORKLOADS, &END_TO_END, &bad_moves).unwrap_err().contains("latency"));
        let bad_on = [pl("serve.run_s", "s", L, "pass_s", "elsewhere")];
        assert!(validate(&WORKLOADS, &END_TO_END, &bad_on).unwrap_err().contains("elsewhere"));
        let twice = [PER_LAYER[0], PER_LAYER[0]];
        assert!(validate(&WORKLOADS, &END_TO_END, &twice).unwrap_err().contains("twice"));
        let unreported = [pl("serve.run_s", "s", L, "serve_kreq_per_s", "short_jobs")];
        assert!(validate(&WORKLOADS, &END_TO_END, &unreported).unwrap_err().contains("report"));
        let many_e2e = [END_TO_END[0]; 17];
        assert!(validate(&WORKLOADS, &many_e2e, &PER_LAYER).unwrap_err().contains("1 to 16"));
        let many_layers = vec![PER_LAYER[0]; 129];
        assert!(validate(&WORKLOADS, &END_TO_END, &many_layers).is_err());
        let no_setup = &END_TO_END[1..];
        assert!(validate(&WORKLOADS, no_setup, &PER_LAYER).unwrap_err().contains("setup_s"));
        let mut wide = END_TO_END;
        wide[0].bound = 0.3;
        assert!(validate(&WORKLOADS, &wide, &PER_LAYER).is_err());
        let mut above_setup = END_TO_END;
        above_setup[0].bound = 0.2;
        assert!(validate(&WORKLOADS, &above_setup, &PER_LAYER).unwrap_err().contains("largest"));
        let mut bad_scope = END_TO_END;
        bad_scope[3].on = &["elsewhere"];
        assert!(validate(&WORKLOADS, &bad_scope, &PER_LAYER).unwrap_err().contains("elsewhere"));
        let mut listed_scoped = END_TO_END;
        listed_scoped[3].listed = true;
        assert!(validate(&WORKLOADS, &listed_scoped, &PER_LAYER).unwrap_err().contains("every"));
    }

    #[test]
    fn benchmark_json_lists_only_what_the_contract_can_carry() {
        let listed: Vec<&str> = END_TO_END.iter().filter(|m| m.listed).map(|m| m.name).collect();
        assert_eq!(listed, ["setup_s", "pass_floor_s", "peak_rss_mb", "sim_digest_stable"]);
    }

    #[test]
    fn the_manifest_round_trips_and_matches_the_committed_file() {
        let doc = manifest();
        let text = doc.render_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc, "parses back identically");
        assert!(text.len() <= 64 * 1024);
        let Json::Obj(pairs) = &doc else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let committed = crate::repo_root().join("BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&committed)
            .unwrap_or_else(|e| panic!("{}: {e}", committed.display()));
        assert_eq!(on_disk, text, "regenerate with `pim-benchmark manifest > BENCHMARK.json`");
    }
}
