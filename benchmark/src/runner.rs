//! One run of one workload in this process: set-up, a warm-up pass, the
//! timed passes, and — in a traced run — the span-derived per-layer
//! metrics and the probes.

use std::collections::BTreeMap;
use std::time::Instant;

use pimulator::report::Json;

use crate::cases::Case;
use crate::cx::{Cx, Tally};
use crate::metrics::{END_TO_END, FAILED_FRAC, PER_LAYER, TIMED_PASSES, TRACED_PAIRS};
use crate::probes;
use crate::span::{self_time_by_layer, totals_by_name, trace_json, NameTotals};
use crate::stats::{iqr_frac, median, ratio, summarize, Summary};
use crate::workloads::{build, pool_workers, Scale};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What one pass measured.
#[derive(Debug, Clone)]
struct Pass {
    secs: f64,
    /// Host seconds of each case, in case-list order.
    case_secs: Vec<f64>,
    digest: String,
    tally: Tally,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    pub workers: usize,
    pub nproc: usize,
    /// The timed untraced passes, seconds each, in run order.
    pub pass_samples: Vec<f64>,
    /// Their summary; `pass_s` is the median.
    pub pass: Summary,
    /// Every whole set-up of the run, seconds; the first runs from process
    /// start to the first timed pass.
    pub setup_samples: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub sim_digest: String,
    pub digest_stable: bool,
    /// The end-to-end metrics this workload reports.
    pub end_to_end: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer metrics (traced runs only, else empty).
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    /// Self time by layer over the traced passes, seconds per pass.
    pub self_s_by_layer: Vec<(String, f64)>,
    /// Host seconds per case per traced pass, largest first.
    pub case_s: Vec<(String, f64)>,
}

fn run_pass(cases: &mut [Case], cx: &mut Cx, traced: bool) -> Pass {
    cx.begin_pass();
    cx.tr.on = traced;
    let start = Instant::now();
    cx.tr.set_case("-");
    let open = cx.tr.enter("bench.pass");
    let mut case_secs = Vec::with_capacity(cases.len());
    for case in cases.iter_mut() {
        let t = Instant::now();
        case.run(cx);
        case_secs.push(t.elapsed().as_secs_f64());
    }
    cx.tr.exit(open);
    let secs = start.elapsed().as_secs_f64();
    cx.tr.on = false;
    Pass { secs, case_secs, digest: cx.digest.hex(), tally: cx.tally.clone() }
}

/// The floor under a set of passes: for each case the fastest of its runs,
/// summed over the case list. `pass_floor_s` takes it over the timed passes.
///
/// The reference box shares its host, and for 5-60 s at a time its
/// neighbours slow memory-bound code (the simulator, not a register-only
/// loop) by 30-60 %. Interference only ever adds time and comes and goes
/// within a run, so a case's fastest run estimates what the simulator
/// itself needs, and summing per case means no whole pass has to have been
/// left alone. The pass count is fixed, so both sides of a comparison take
/// each minimum over equally many samples.
fn pass_floor_s(passes: &[Pass]) -> f64 {
    let n_cases = passes.first().map_or(0, |p| p.case_secs.len());
    (0..n_cases).map(|c| passes.iter().map(|p| p.case_secs[c]).fold(f64::INFINITY, f64::min)).sum()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the workload. `process_start` is when this process began, so the
/// first set-up sample includes loading the binary.
pub fn run(args: &RunArgs, process_start: Instant) -> Result<(Record, Json), String> {
    let smoke = args.scale == Scale::Smoke;
    let mut cx = Cx::new();

    // Set-up is staging (building the case list) plus one untimed warm-up
    // pass: what a user waits for before the first timed pass. The first
    // sample starts at process start and alone pays for loading the binary.
    let mut cases: Vec<Case> = Vec::new();
    let mut setup_samples = Vec::new();
    let mut stagings = Vec::new();
    let mut warm_ups: Vec<Pass> = Vec::new();
    let mut set_up = |cases: &mut Vec<Case>, cx: &mut Cx, since: Instant| -> Result<(), String> {
        *cases = build(&args.workload, args.seed, args.scale)?;
        stagings.push(since.elapsed().as_secs_f64());
        warm_ups.push(run_pass(cases, cx, false));
        setup_samples.push(since.elapsed().as_secs_f64());
        Ok(())
    };
    set_up(&mut cases, &mut cx, process_start)?;

    // Timed passes: a fixed count, so both sides of a comparison summarise
    // equally many samples; `--seconds` is only a floor under the measuring
    // time. A traced run alternates untraced and traced passes so both see
    // the same machine state; their ratio is the tracing overhead.
    let (passes, floor_s) = match (smoke, args.trace) {
        (true, _) => (1, 0.0),
        (false, true) => (TRACED_PAIRS, 0.0),
        (false, false) => (TIMED_PASSES, args.seconds),
    };
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let measure = Instant::now();
    while plain.len() < passes || measure.elapsed().as_secs_f64() < floor_s {
        plain.push(run_pass(&mut cases, &mut cx, false));
        if args.trace {
            traced.push(run_pass(&mut cases, &mut cx, true));
        }
        // An untraced run sets up three times, because one sample per
        // run repeats too poorly to carry a bound. The repeats sit half-way
        // through and after the timed passes: the box's slow spells outlast
        // a set-up, so samples taken back to back would share one.
        if !smoke && !args.trace && [TIMED_PASSES / 2, TIMED_PASSES].contains(&plain.len()) {
            // Freeing the old case list is not part of a set-up.
            drop(std::mem::take(&mut cases));
            set_up(&mut cases, &mut cx, Instant::now())?;
        }
    }

    // Verdicts: every operation of every pass, plus one digest check per
    // pass against the first warm-up pass.
    let reference = &warm_ups[0];
    let mut attempted = reference.tally.ops;
    let mut failed = reference.tally.failed;
    let mut failures = reference.tally.failures.clone();
    let mut digest_stable = true;
    for p in warm_ups[1..].iter().chain(&plain).chain(&traced) {
        attempted += p.tally.ops + 1;
        failed += p.tally.failed;
        failures.extend(p.tally.failures.iter().cloned());
        if p.digest != reference.digest {
            digest_stable = false;
            failed += 1;
            failures.push(format!(
                "sim_digest {} differs from the first pass's {}",
                p.digest, reference.digest
            ));
        }
    }
    failures.sort();
    failures.dedup();

    // `setup_s` is the floor under the set-ups, by the rule of
    // `pass_floor_s`: the fastest staging plus each warm-up case's fastest
    // run. The whole samples stay in the record.
    let setup_s = stagings.iter().copied().fold(f64::INFINITY, f64::min) + pass_floor_s(&warm_ups);
    let pass_secs: Vec<f64> = plain.iter().map(|p| p.secs).collect();
    let pass = summarize(&pass_secs);
    // Every pass does the same work (the digest check above says so), so
    // the last pass's counts are each pass's counts.
    let work = &plain.last().expect("at least one timed pass").tally;
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => setup_s,
            "pass_s" => pass.median,
            "pass_floor_s" => pass_floor_s(&plain),
            "sim_minstr_per_s" => work.instr as f64 / pass.median / 1e6,
            "sim_mcycles_per_s" => work.cycles as f64 / pass.median / 1e6,
            "serve_kreq_per_s" => work.requests as f64 / pass.median / 1e3,
            "jobs_per_s" => work.jobs as f64 / pass.median,
            "peak_rss_mb" => peak_rss_mb(),
            FAILED_FRAC => failed as f64 / attempted as f64,
            "sim_digest_stable" => f64::from(u8::from(digest_stable)),
            other => unreachable!("end-to-end metric `{other}` has no definition"),
        }
    };
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.reported_on(&args.workload))
        .map(|m| (m.name, m.unit, value(m.name)))
        .collect();

    let mut record = Record {
        workload: args.workload.clone(),
        seed: args.seed,
        traced: args.trace,
        smoke,
        workers: pool_workers(),
        nproc: pimulator::jobs::default_workers(),
        pass_samples: pass_secs.clone(),
        pass,
        setup_samples,
        attempted,
        failed,
        failures,
        sim_digest: reference.digest.clone(),
        digest_stable,
        end_to_end,
        per_layer: Vec::new(),
        self_s_by_layer: Vec::new(),
        case_s: Vec::new(),
    };

    let mut trace_doc = Json::Null;
    if args.trace {
        let n = traced.len() as f64;
        let totals = totals_by_name(&cx.tr.spans);
        record.self_s_by_layer = self_time_by_layer(&cx.tr.spans)
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 / 1e9 / n))
            .collect();
        let mut case_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in cx.tr.spans.iter().filter(|s| s.name == "bench.case") {
            *case_ns.entry(s.case).or_default() += s.dur_ns();
        }
        record.case_s = case_ns
            .into_iter()
            .map(|(case, ns)| (cx.tr.cases[case as usize].clone(), ns as f64 / 1e9 / n))
            .collect();
        record.case_s.sort_by(|a, b| b.1.total_cmp(&a.1));
        let last = traced.last().expect("a traced run has a traced pass").tally.clone();
        let traced_secs: Vec<f64> = traced.iter().map(|p| p.secs).collect();
        let overhead = median(&traced_secs) / record.pass.median - 1.0;
        let probe_values = probes::run(&mut cx, args.seed, args.scale);
        let layer = layer_values(&totals, n, &last, &pass_secs, overhead, &probe_values);
        record.per_layer = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layer.get(m.name).copied().unwrap_or(0.0)))
            .collect();
        trace_doc = trace_json(&args.workload, args.seed, &cx.tr);
    }
    Ok((record, trace_doc))
}

/// Derives the per-layer metrics: span totals are means per traced pass,
/// tallies come from the last traced pass (every pass counts the same),
/// probe values pass through.
fn layer_values(
    totals: &BTreeMap<&'static str, NameTotals>,
    n_traced: f64,
    t: &Tally,
    plain_secs: &[f64],
    trace_overhead: f64,
    probe_values: &probes::Values,
) -> BTreeMap<&'static str, f64> {
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let span_s = |name: &str| span(name).total_ns as f64 / 1e9 / n_traced;
    let calls = |name: &str| span(name).calls as f64 / n_traced;
    let m = &t.model;
    let (active, idle_mem, idle_rev, idle_rf) = m.breakdown();
    let cache_accesses =
        m.dcache.map_or(0, |c| c.accesses()) + m.icache.map_or(0, |c| c.accesses());
    let s = &t.serve;
    let (rps, p50_us, p99_us) = s.first.unwrap_or_default();
    let mut v: BTreeMap<&'static str, f64> = probe_values.clone();
    v.extend([
        ("asm.build_s", span_s("asm.build")),
        ("asm.build_calls", calls("asm.build")),
        ("dpu.load_s", span_s("dpu.load")),
        ("dpu.load_calls", calls("dpu.load")),
        ("dpu.launch_s", span_s("dpu.launch")),
        ("dpu.launch_calls", calls("dpu.launch")),
        ("dpu.instr", m.instructions as f64),
        ("dpu.cycles", m.cycles as f64),
        ("dpu.dma_requests", m.dma_requests as f64),
        ("dpu.active_frac", active),
        ("dpu.idle_memory_frac", idle_mem),
        ("dpu.idle_revolver_frac", idle_rev),
        ("dpu.idle_rf_frac", idle_rf),
        ("dpu.ipc", m.ipc()),
        ("dram.accesses", m.dram.accesses() as f64),
        ("dram.row_hit_rate", m.dram.row_hit_rate()),
        ("dram.mean_latency_cycles", m.dram.mean_latency()),
        ("dram.bytes_read", m.dram.bytes_read as f64),
        ("dram.bytes_written", m.dram.bytes_written as f64),
        ("cache.d_hit_rate", m.dcache.map_or(0.0, |c| c.hit_rate())),
        ("cache.i_hit_rate", m.icache.map_or(0.0, |c| c.hit_rate())),
        ("cache.accesses", cache_accesses as f64),
        ("mmu.tlb_hit_rate", m.mmu.map_or(0.0, |x| x.hit_rate())),
        ("host.new_s", span_s("host.new")),
        ("host.load_s", span_s("host.load")),
        ("host.push_s", span_s("host.push")),
        ("host.push_bytes", t.push_bytes as f64),
        ("host.push_gb_per_s", ratio(t.push_bytes as f64 / 1e9, span_s("host.push"))),
        ("host.pull_s", span_s("host.pull")),
        ("host.pull_bytes", t.pull_bytes as f64),
        ("host.pull_gb_per_s", ratio(t.pull_bytes as f64 / 1e9, span_s("host.pull"))),
        ("host.launch_all_s", span_s("host.launch_all")),
        ("host.launch_all_calls", calls("host.launch_all")),
        ("host.sim_to_dpu_ns", t.sim_to_dpu_ns),
        ("host.sim_kernel_ns", t.sim_kernel_ns),
        ("host.sim_from_dpu_ns", t.sim_from_dpu_ns),
        ("host.sim_wall_ns", t.sim_wall_ns),
        ("host.sim_overlap_gain", ratio(t.overlap_pair.0, t.overlap_pair.1)),
        ("prim.run_s", span_s("prim.run")),
        ("prim.run_calls", calls("prim.run")),
        ("prim.validation_failures", t.prim_validation_failures as f64),
        ("prim.host_ns_per_instr", ratio(span_s("prim.run") * 1e9, t.prim_instr as f64)),
        ("core.exp_s", span_s("core.exp")),
        ("core.exp_calls", calls("core.exp")),
        ("core.golden_mismatches", t.golden_mismatches as f64),
        ("serve.run_s", span_s("serve.run")),
        ("serve.rounds", s.rounds as f64),
        ("serve.offered", s.offered as f64),
        ("serve.admitted", s.admitted as f64),
        ("serve.rejected", s.rejected as f64),
        ("serve.completed", s.completed as f64),
        ("serve.failed", s.failed as f64),
        ("serve.retried", s.retried as f64),
        ("serve.degraded", s.degraded as f64),
        ("serve.distinct_compositions", s.distinct_compositions as f64),
        // The share of DPU-rounds served without a cold profile (an idle
        // DPU needs none either, so idle DPU-rounds count as hits).
        (
            "serve.composition_hit_rate",
            if s.dpu_rounds == 0 {
                0.0
            } else {
                1.0 - s.distinct_compositions as f64 / s.dpu_rounds as f64
            },
        ),
        ("serve.host_us_per_round", ratio(span_s("serve.run") * 1e6, s.rounds as f64)),
        ("serve.host_ns_per_request", ratio(span_s("serve.run") * 1e9, s.completed as f64)),
        ("serve.outcome_json_s", span_s("serve.outcome_json")),
        (
            "serve.checkpoint_roundtrip_ms",
            ratio(span_s("serve.checkpoint_roundtrip") * 1e3, calls("serve.checkpoint_roundtrip")),
        ),
        ("serve.sim_throughput_rps", rps),
        ("serve.sim_p50_us", p50_us),
        ("serve.sim_p99_us", p99_us),
        ("fuzz.campaign_s", span_s("fuzz.campaign")),
        ("fuzz.cases", t.fuzz_cases as f64),
        ("fuzz.cases_per_s", ratio(t.fuzz_cases as f64, span_s("fuzz.campaign"))),
        ("fuzz.coverage_cells", t.fuzz_cells as f64),
        ("fuzz.failures", t.fuzz_failures as f64),
        ("tune.run_s", span_s("tune.run")),
        ("tune.points", t.tune_points as f64),
        ("tune.points_per_s", ratio(t.tune_points as f64, span_s("tune.run"))),
        ("bench.trace_overhead_frac", trace_overhead),
        ("bench.pass_iqr_frac", iqr_frac(plain_secs)),
    ]);
    v
}

impl Record {
    /// The result line the driver reads: every end-to-end metric of
    /// `BENCHMARK.json` for an untraced run, every per-layer metric for a
    /// traced one.
    pub fn contract_line(&self) -> String {
        let in_manifest = |name: &str| END_TO_END.iter().any(|m| m.name == name && m.listed);
        let listed: Vec<&(&'static str, &'static str, f64)> = if self.traced {
            self.per_layer.iter().collect()
        } else {
            self.end_to_end.iter().filter(|m| in_manifest(m.0)).collect()
        };
        let metrics = listed.into_iter().map(|(name, unit, value)| {
            (*name, Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]))
        });
        Json::obj([
            ("correct", Json::from(self.failed == 0 && self.digest_stable)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The full record, one JSON object: what `run --all` collects and
    /// `compare` reads.
    pub fn to_json(&self) -> Json {
        let metrics = |list: &[(&'static str, &'static str, f64)]| {
            Json::obj(list.iter().map(|(name, unit, value)| {
                (*name, Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]))
            }))
        };
        let pairs = |list: &[(String, f64)]| {
            Json::obj(list.iter().map(|(k, v)| (k.clone(), Json::from(*v))))
        };
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::UInt(self.seed)),
            ("traced", Json::from(self.traced)),
            ("smoke", Json::from(self.smoke)),
            ("nproc", Json::UInt(self.nproc as u64)),
            ("pool_workers", Json::UInt(self.workers as u64)),
            ("sim_digest", Json::from(self.sim_digest.as_str())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("failures", Json::arr(self.failures.iter().map(|f| Json::from(f.as_str())))),
            (
                "timed_passes_s",
                Json::obj([
                    ("n", Json::UInt(self.pass.n as u64)),
                    ("min", Json::from(self.pass.min)),
                    ("p25", Json::from(self.pass.p25)),
                    ("median", Json::from(self.pass.median)),
                    ("p75", Json::from(self.pass.p75)),
                ]),
            ),
            ("pass_samples_s", Json::arr(self.pass_samples.iter().map(|s| Json::from(*s)))),
            ("setup_samples_s", Json::arr(self.setup_samples.iter().map(|s| Json::from(*s)))),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
            ("self_s_by_layer", pairs(&self.self_s_by_layer)),
            ("case_s", pairs(&self.case_s)),
        ])
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn text(&self) -> String {
        let mut out = format!(
            "== {} seed={} {}{}  nproc={} pool_workers={}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            if self.smoke { " smoke" } else { "" },
            self.nproc,
            self.workers,
        );
        out += &format!(
            "timed passes n={} min={:.4} p25={:.4} median={:.4} p75={:.4} s   sim_digest={}\n",
            self.pass.n,
            self.pass.min,
            self.pass.p25,
            self.pass.median,
            self.pass.p75,
            self.sim_digest
        );
        out += &format!("operations attempted={} failed={}\n", self.attempted, self.failed);
        for f in &self.failures {
            out += &format!("  FAILED {f}\n");
        }
        for (name, unit, value) in &self.end_to_end {
            out += &format!("  {name:<28} {value:>16.6} {unit}\n");
        }
        if self.traced {
            for (name, unit, value) in &self.per_layer {
                out += &format!("  {name:<32} {value:>18.6} {unit}\n");
            }
            out += "self time by layer, s per traced pass:\n";
            for (layer, s) in &self.self_s_by_layer {
                out += &format!("  {layer:<12} {s:>10.4}\n");
            }
            out += "host seconds by case, per traced pass:\n";
            for (case, s) in &self.case_s {
                out += &format!("  {case:<40} {s:>10.4}\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pass_floor_sums_each_cases_fastest_run() {
        let pass = |case_secs: &[f64]| Pass {
            secs: case_secs.iter().sum(),
            case_secs: case_secs.to_vec(),
            digest: String::new(),
            tally: Tally::default(),
        };
        let passes = [pass(&[1.0, 5.0, 2.0]), pass(&[3.0, 4.0, 2.5]), pass(&[2.0, 6.0, 1.5])];
        assert_eq!(pass_floor_s(&passes), 1.0 + 4.0 + 1.5);
        assert!(
            pass_floor_s(&passes) <= passes.iter().map(|p| p.secs).fold(f64::INFINITY, f64::min)
        );
        assert_eq!(pass_floor_s(&[]), 0.0);
    }
}
