//! Request classes and the composition profiler.
//!
//! Serving requests are not full PrIM runs — a PrIM workload's kernel is
//! linked at WRAM base 0 and cannot be co-located. Each PrIM workload
//! therefore maps to a *proxy request kernel*: a partition-built kernel
//! (mem-bound DMA loop, compute-bound MAC loop, or a mixed loop) whose
//! intensity is calibrated per workload, built per *slot* so four
//! requests share one 16-tasklet DPU through [`pimulator::pim_dpu::colocate`] —
//! exactly the paper's §V-C co-location machinery, now under load.
//!
//! A DPU's *composition* is the vector of request classes occupying its
//! slots. Execution cost is obtained by cycle-level simulation of the
//! co-located image and memoized at two levels: a run's
//! `CompositionCache` holds the profiles that run has used, and beneath
//! it a process-wide memo keyed on the full [`DpuConfig`] and the
//! canonical composition holds every profile any run of the process has
//! simulated. Only compositions the process has never simulated under an
//! equal config pay for simulation (those simulations are what
//! `--threads` parallelizes); traced profiling bypasses the memo so it
//! always yields its event trace (`memoized_profiles`).

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pimulator::jobs::JobRunner;
use pimulator::pim_asm::KernelBuilder;
use pimulator::pim_dpu::{colocate, Colocated, DpuConfig, SimError, Tenant};
use pimulator::pim_host::{ChannelConfig, PimSystem};
use pimulator::pim_isa::Cond;
use pimulator::trace::JobTrace;

/// Request slots per DPU: four co-located tenants of four tasklets each
/// fill the paper's 16-tasklet baseline.
pub const SLOTS_PER_DPU: usize = 4;

/// Tasklets each slot receives.
pub const TASKLETS_PER_SLOT: u32 = 4;

/// WRAM partition size per slot (4 × 16 KB fills the 64 KB scratchpad).
pub(crate) const SLOT_WRAM_BYTES: u32 = 16 * 1024;

/// MRAM staging region per slot (inputs land at `slot * SLOT_MRAM_BYTES`).
pub(crate) const SLOT_MRAM_BYTES: u32 = 1 << 20;

/// Sentinel class for an unoccupied slot.
pub const EMPTY_SLOT: u16 = u16::MAX;

/// Broad behavioural shape of a proxy request kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Dominated by WRAM←MRAM DMA (pointer-chasing probes, streaming).
    MemBound,
    /// Dominated by the ALU (long multiply–accumulate chains).
    ComputeBound,
    /// Alternating DMA and arithmetic.
    Mixed,
    /// Irregular gather: small DMAs at data-dependent addresses (the
    /// sparse BSR family's `x[colidx]` access shape).
    Gather,
    /// Chained inference: compute phases punctuated by staging
    /// round-trips, the single-kernel proxy for a multi-launch request.
    Chained,
}

/// One request class: the proxy kernel standing in for a PrIM workload.
#[derive(Debug, Clone, Copy)]
pub struct RequestClass {
    /// The PrIM workload this class proxies.
    pub workload: &'static str,
    /// Kernel shape.
    pub kind: KernelKind,
    /// Loop trip count (per tasklet), the intensity knob.
    pub iters: u32,
    /// Host→DPU bytes staged per request.
    pub input_bytes: u32,
    /// DPU→host bytes pulled per request.
    pub output_bytes: u32,
}

/// The class table: one proxy per PrIM workload, in the suite's order.
/// Intensities are coarse calibrations of each workload's character
/// (memory-bound probes vs long compute chains), not timing models.
#[must_use]
pub fn request_classes() -> &'static [RequestClass] {
    const MEM_IN: u32 = 4096;
    const CPU_IN: u32 = 512;
    const MIX_IN: u32 = 2048;
    const OUT: u32 = 256;
    const CLASSES: &[RequestClass] = &[
        RequestClass {
            workload: "BFS",
            kind: KernelKind::Mixed,
            iters: 24,
            input_bytes: MIX_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "BS",
            kind: KernelKind::MemBound,
            iters: 40,
            input_bytes: MEM_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "GEMV",
            kind: KernelKind::ComputeBound,
            iters: 1200,
            input_bytes: CPU_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "HST-L",
            kind: KernelKind::Mixed,
            iters: 32,
            input_bytes: MIX_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "HST-S",
            kind: KernelKind::Mixed,
            iters: 28,
            input_bytes: MIX_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "MLP",
            kind: KernelKind::ComputeBound,
            iters: 1600,
            input_bytes: CPU_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "NW",
            kind: KernelKind::Mixed,
            iters: 36,
            input_bytes: MIX_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "RED",
            kind: KernelKind::MemBound,
            iters: 48,
            input_bytes: MEM_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "SCAN-RSS",
            kind: KernelKind::MemBound,
            iters: 44,
            input_bytes: MEM_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "SCAN-SSA",
            kind: KernelKind::MemBound,
            iters: 40,
            input_bytes: MEM_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "SEL",
            kind: KernelKind::MemBound,
            iters: 36,
            input_bytes: MEM_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "SpMV",
            kind: KernelKind::Mixed,
            iters: 40,
            input_bytes: MIX_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "TRNS",
            kind: KernelKind::MemBound,
            iters: 52,
            input_bytes: MEM_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "TS",
            kind: KernelKind::ComputeBound,
            iters: 2000,
            input_bytes: CPU_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "UNI",
            kind: KernelKind::MemBound,
            iters: 32,
            input_bytes: MEM_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "VA",
            kind: KernelKind::MemBound,
            iters: 28,
            input_bytes: MEM_IN,
            output_bytes: OUT,
        },
        // Extension families are appended after the dense suite so the
        // indices of the original 16 classes (and every golden snapshot
        // keyed on them) stay stable.
        RequestClass {
            workload: "SpMV-BSR",
            kind: KernelKind::Gather,
            iters: 96,
            input_bytes: MIX_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "SpMM-BSR",
            kind: KernelKind::Gather,
            iters: 144,
            input_bytes: MIX_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "MLP-Q",
            kind: KernelKind::Chained,
            iters: 420,
            input_bytes: CPU_IN,
            output_bytes: OUT,
        },
        RequestClass {
            workload: "ATTN",
            kind: KernelKind::Chained,
            iters: 300,
            input_bytes: CPU_IN,
            output_bytes: OUT,
        },
    ];
    CLASSES
}

/// Resolves a PrIM workload name (case-insensitive, as
/// `prim_suite::workload_by_name`) to its class index.
#[must_use]
pub(crate) fn class_index(workload: &str) -> Option<u16> {
    request_classes()
        .iter()
        .position(|c| c.workload.eq_ignore_ascii_case(workload))
        .map(|i| i as u16)
}

/// Builds the partition-built proxy kernel for `class` in `slot`
/// (`None` builds the idle filler for an empty slot).
fn slot_program(class: Option<&RequestClass>, slot: usize) -> pimulator::pim_asm::DpuProgram {
    let wram_base = slot as u32 * SLOT_WRAM_BYTES;
    let mram_base = (slot as u32 * SLOT_MRAM_BYTES) as i32;
    let mut k = KernelBuilder::with_partition(wram_base, slot as u32 * 8);
    match class.map(|c| c.kind) {
        None => k.stop(),
        Some(KernelKind::MemBound) => {
            let c = class.unwrap();
            let buf = k.alloc_wram(2048, 8);
            let [w, m, i, t] = k.regs(["w", "m", "i", "t"]);
            k.tid(t);
            k.mul(w, t, 256);
            k.add(w, w, buf as i32);
            k.mul(m, t, 16 * 1024);
            k.add(m, m, mram_base);
            k.movi(i, c.iters as i32);
            let top = k.label_here("loop");
            k.ldma(w, m, 256);
            k.add(m, m, 1024);
            k.sub(i, i, 1);
            k.branch(Cond::Ne, i, 0, &top);
            k.stop();
        }
        Some(KernelKind::ComputeBound) => {
            let c = class.unwrap();
            let [a, b, i] = k.regs(["a", "b", "i"]);
            k.movi(a, 1);
            k.movi(b, 3);
            k.movi(i, c.iters as i32);
            let top = k.label_here("loop");
            k.mul(a, a, b);
            k.add(a, a, 7);
            k.sub(i, i, 1);
            k.branch(Cond::Ne, i, 0, &top);
            k.stop();
        }
        Some(KernelKind::Mixed) => {
            let c = class.unwrap();
            let buf = k.alloc_wram(2048, 8);
            let [w, m, i, t, a] = k.regs(["w", "m", "i", "t", "a"]);
            k.tid(t);
            k.mul(w, t, 256);
            k.add(w, w, buf as i32);
            k.mul(m, t, 16 * 1024);
            k.add(m, m, mram_base);
            k.movi(a, 1);
            k.movi(i, c.iters as i32);
            let top = k.label_here("loop");
            k.ldma(w, m, 256);
            k.mul(a, a, 3);
            k.add(a, a, 1);
            k.add(m, m, 1024);
            k.sub(i, i, 1);
            k.branch(Cond::Ne, i, 0, &top);
            k.stop();
        }
        Some(KernelKind::Gather) => {
            // Irregular gather: each iteration derives a pseudo-random
            // 8-aligned offset inside a private 16 KB MRAM window and
            // fetches a single 8-byte element, the access shape of the
            // BSR kernels' `x[colidx]` loads.
            let c = class.unwrap();
            let buf = k.alloc_wram(2048, 8);
            let [w, m, mb, i, t, a] = k.regs(["w", "m", "mb", "i", "t", "a"]);
            k.tid(t);
            k.mul(w, t, 8);
            k.add(w, w, buf as i32);
            k.mul(mb, t, 16 * 1024);
            k.add(mb, mb, mram_base);
            k.add(a, t, 1);
            k.movi(i, c.iters as i32);
            let top = k.label_here("loop");
            k.mul(a, a, 1_103_515_245);
            k.add(a, a, 12_345);
            k.alu(pimulator::pim_isa::AluOp::Srl, m, a, 8);
            k.alu(pimulator::pim_isa::AluOp::And, m, m, 0x3ff8);
            k.add(m, m, mb);
            k.ldma(w, m, 8);
            k.sub(i, i, 1);
            k.branch(Cond::Ne, i, 0, &top);
            k.stop();
        }
        Some(KernelKind::Chained) => {
            // Chained inference proxy: three compute phases separated by
            // staging round-trips (spill to MRAM, reload), mimicking a
            // multi-launch request's host-side staging boundaries.
            let c = class.unwrap();
            let buf = k.alloc_wram(128, 8);
            let [a, b, i, w, m, t] = k.regs(["a", "b", "i", "w", "m", "t"]);
            k.tid(t);
            k.mul(w, t, 8);
            k.add(w, w, buf as i32);
            k.movi(a, 1);
            k.movi(b, 3);
            for phase in 0..3u32 {
                k.mul(m, t, 64);
                k.add(m, m, mram_base + (phase * 8) as i32);
                k.movi(i, c.iters as i32);
                let top = k.fresh_label("phase");
                k.place(&top);
                k.mul(a, a, b);
                k.add(a, a, 7);
                k.sub(i, i, 1);
                k.branch(Cond::Ne, i, 0, &top);
                k.sw(a, w, 0);
                k.sdma(w, m, 8);
                k.ldma(w, m, 8);
                k.lw(a, w, 0);
            }
            k.stop();
        }
    }
    k.build().expect("proxy request kernel builds")
}

/// Merges the slot programs of one composition into a loadable image.
///
/// # Panics
///
/// Panics if the slots cannot co-locate — the slot partitioning is a
/// static invariant of this module, so failure is a bug, not load error.
#[must_use]
pub fn colocate_composition(comp: &[u16]) -> Colocated {
    let classes = request_classes();
    let programs: Vec<_> = comp
        .iter()
        .enumerate()
        .map(|(slot, &c)| slot_program((c != EMPTY_SLOT).then(|| &classes[c as usize]), slot))
        .collect();
    let tenants: Vec<Tenant<'_>> =
        programs.iter().map(|p| Tenant { program: p, n_tasklets: TASKLETS_PER_SLOT }).collect();
    colocate(&tenants, false).expect("serving slots co-locate")
}

/// The memoized cost of one composition.
#[derive(Debug, Clone)]
pub struct CompositionProfile {
    /// Per-slot kernel finish time, ns from launch (0 for empty slots).
    pub slot_exec_ns: Vec<f64>,
    /// Kernel makespan of the whole DPU, ns.
    pub makespan_ns: f64,
}

/// Cycle-simulates one composition on a single-DPU system and returns
/// its profile (plus the harvested event trace when `trace_capacity` is
/// non-zero). It simulates on every call; `memoized_profiles` is the
/// memoized path. Inputs are staged and outputs pulled through the fallible
/// transfer API — a serving batch must never abort the process on a
/// routing bug.
///
/// # Errors
///
/// Propagates a [`SimError`] from the staged transfers or the launch.
pub fn profile_composition(
    comp: &[u16],
    cfg: &DpuConfig,
    trace_capacity: usize,
) -> Result<(CompositionProfile, Option<JobTrace>), SimError> {
    let classes = request_classes();
    let merged = colocate_composition(comp);
    let mut sim_cfg = cfg.clone();
    if trace_capacity > 0 {
        sim_cfg = sim_cfg.with_event_trace(trace_capacity);
    }
    let mut sys = PimSystem::new(1, sim_cfg, ChannelConfig::paper());
    for (slot, &c) in comp.iter().enumerate() {
        if c != EMPTY_SLOT {
            let input = vec![0u8; classes[c as usize].input_bytes as usize];
            sys.try_copy_to_mram(0, slot as u32 * SLOT_MRAM_BYTES, &input)?;
        }
    }
    sys.dpu_mut(0).load_colocated(&merged)?;
    let report = sys.launch_all()?;
    let stats = &report.per_dpu[0];
    let finishes = merged.tenant_finish_cycles(&stats.tasklet_stop_cycle);
    let to_ns = |cycles: u64| cycles as f64 * 1000.0 / f64::from(stats.freq_mhz.max(1));
    for (slot, &c) in comp.iter().enumerate() {
        if c != EMPTY_SLOT {
            let _ = sys.try_copy_from_mram(
                0,
                slot as u32 * SLOT_MRAM_BYTES,
                classes[c as usize].output_bytes,
            )?;
        }
    }
    let profile = CompositionProfile {
        slot_exec_ns: finishes.iter().map(|&f| to_ns(f)).collect(),
        makespan_ns: stats.time_ns(),
    };
    let trace = sys.take_trace().map(|t| JobTrace { label: composition_label(comp), trace: t });
    Ok((profile, trace))
}

/// A human-readable label for a composition (`"BS+TS+--+VA"`).
#[must_use]
pub(crate) fn composition_label(comp: &[u16]) -> String {
    let classes = request_classes();
    comp.iter()
        .map(|&c| if c == EMPTY_SLOT { "--" } else { classes[c as usize].workload })
        .collect::<Vec<_>>()
        .join("+")
}

/// One DPU's composition in the fixed-width form the dispatch round
/// works in: the class of each slot, [`EMPTY_SLOT`] where idle.
pub(crate) type Composition = [u16; SLOTS_PER_DPU];

/// The memoization table: profiles in first-seen order, plus an index
/// from *canonical* (sorted) composition to profile position. A round
/// looks each occupied DPU up once and carries the position from there
/// on, so per-request reads are a slice index, not a map walk. `BTreeMap`
/// keeps iteration (and any reporting derived from it) deterministic.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompositionCache {
    index: BTreeMap<Composition, usize>,
    profiles: Vec<CompositionProfile>,
}

impl CompositionCache {
    /// An empty cache.
    #[must_use]
    pub(crate) fn new() -> Self {
        CompositionCache::default()
    }

    /// The position of `canon`'s profile, if it has been profiled.
    #[must_use]
    pub(crate) fn position(&self, canon: &Composition) -> Option<usize> {
        self.index.get(canon).copied()
    }

    /// Memoizes `profile` for `canon` (a composition already cached keeps
    /// its profile and its position).
    pub(crate) fn insert(&mut self, canon: Composition, profile: CompositionProfile) {
        if let Entry::Vacant(slot) = self.index.entry(canon) {
            slot.insert(self.profiles.len());
            self.profiles.push(profile);
        }
    }

    /// The profile at a position returned by [`CompositionCache::position`].
    #[must_use]
    pub(crate) fn profile(&self, position: usize) -> &CompositionProfile {
        &self.profiles[position]
    }
}

/// One profile result: the profile and, for a traced simulation, its
/// event trace.
pub(crate) type ProfileResult = Result<(CompositionProfile, Option<JobTrace>), SimError>;

/// The process-wide profile memo: one table per distinct [`DpuConfig`]
/// (compared with `==`; a scan, as a process sees only a handful), each
/// from canonical composition to the profile simulated under that config.
type ProfileMemo = Vec<(DpuConfig, BTreeMap<Composition, CompositionProfile>)>;

static PROFILE_MEMO: Mutex<ProfileMemo> = Mutex::new(Vec::new());

/// The memo, locked. A profile is inserted whole or not at all, so a
/// panic elsewhere while the lock was held leaves nothing half-written.
fn profile_memo() -> MutexGuard<'static, ProfileMemo> {
    PROFILE_MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The memoized profile of `comp` under `cfg`, if the process has one.
fn memo_lookup(
    memo: &ProfileMemo,
    cfg: &DpuConfig,
    comp: &Composition,
) -> Option<CompositionProfile> {
    memo.iter().find(|(c, _)| c == cfg).and_then(|(_, table)| table.get(comp)).cloned()
}

/// Profiles `comps` under `cfg`, in order, simulating only what the
/// process has not simulated before. Compositions in the process-wide
/// memo are read from it; the rest go to [`profile_composition`] through
/// the order-preserving `runner`, and each success is memoized (errors
/// never are). The lock is taken for the lookups and for the inserts,
/// never across a simulation. A traced call (`trace_capacity > 0`)
/// neither reads nor writes the memo, so every composition is simulated
/// and returns its trace. A memo hit carries no trace.
pub(crate) fn memoized_profiles(
    comps: &[Composition],
    cfg: &DpuConfig,
    trace_capacity: usize,
    runner: &JobRunner,
) -> Vec<ProfileResult> {
    if trace_capacity > 0 {
        return runner.map(comps, |_, comp| profile_composition(comp, cfg, trace_capacity));
    }
    let mut results: Vec<Option<ProfileResult>> = {
        let memo = profile_memo();
        comps.iter().map(|comp| memo_lookup(&memo, cfg, comp).map(|p| Ok((p, None)))).collect()
    };
    let misses: Vec<Composition> =
        comps.iter().zip(&results).filter(|(_, r)| r.is_none()).map(|(&comp, _)| comp).collect();
    if !misses.is_empty() {
        let profiled = runner.map(&misses, |_, comp| profile_composition(comp, cfg, 0));
        {
            let mut memo = profile_memo();
            let at = memo.iter().position(|(c, _)| c == cfg).unwrap_or_else(|| {
                memo.push((cfg.clone(), BTreeMap::new()));
                memo.len() - 1
            });
            let table = &mut memo[at].1;
            for (comp, res) in misses.iter().zip(&profiled) {
                if let Ok((profile, _)) = res {
                    table.entry(*comp).or_insert_with(|| profile.clone());
                }
            }
        }
        let empty = results.iter_mut().filter(|r| r.is_none());
        for (slot, res) in empty.zip(profiled) {
            *slot = Some(res);
        }
    }
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimulator::pim_dpu::MAX_TASKLETS;
    use pimulator::pim_isa::layout;

    #[test]
    fn class_table_covers_all_prim_workloads() {
        let classes = request_classes();
        assert_eq!(classes.len(), pimulator::prim_suite::extended_workloads().len());
        for c in classes {
            assert!(
                pimulator::prim_suite::workload_by_name(c.workload).is_some(),
                "{} is not a PrIM workload",
                c.workload
            );
            assert!(c.iters > 0 && c.input_bytes > 0 && c.output_bytes > 0);
        }
        for w in pimulator::prim_suite::extended_workloads() {
            assert!(class_index(w.name()).is_some(), "{} has no request class", w.name());
        }
        // The dense prefix keeps its historical indices.
        assert_eq!(class_index("BFS"), Some(0));
        assert_eq!(class_index("VA"), Some(15));
        assert_eq!(class_index("SpMV-BSR"), Some(16));
        assert_eq!(class_index("va"), class_index("VA"));
        assert!(class_index("nope").is_none());
    }

    #[test]
    fn extension_classes_profile_alone() {
        let cfg = DpuConfig::paper_baseline(SLOTS_PER_DPU as u32 * TASKLETS_PER_SLOT);
        for name in ["SpMV-BSR", "MLP-Q"] {
            let comp = vec![class_index(name).unwrap(), EMPTY_SLOT, EMPTY_SLOT, EMPTY_SLOT];
            let (p, _) = profile_composition(&comp, &cfg, 0).unwrap();
            assert!(p.slot_exec_ns[0] > 0.0, "{name} proxy ran");
        }
    }

    #[test]
    fn cache_positions_are_stable_across_inserts() {
        let profile = |ns: f64| CompositionProfile { slot_exec_ns: vec![ns; 4], makespan_ns: ns };
        let mut cache = CompositionCache::new();
        let (a, b) = ([1, 2, 3, EMPTY_SLOT], [0, 0, 0, 0]);
        assert_eq!(cache.position(&a), None);
        cache.insert(a, profile(10.0));
        cache.insert(b, profile(20.0));
        // Positions follow first-seen order, not key order, and a repeat
        // insert changes nothing.
        cache.insert(a, profile(99.0));
        assert_eq!((cache.position(&a), cache.position(&b)), (Some(0), Some(1)));
        assert_eq!(cache.profile(0).makespan_ns, 10.0);
        assert_eq!(cache.profile(1).makespan_ns, 20.0);
    }

    /// A [`composition_label`] parsed back into its composition.
    fn composition_of(label: &str) -> Composition {
        let mut comp = [EMPTY_SLOT; SLOTS_PER_DPU];
        for (slot, name) in comp.iter_mut().zip(label.split('+')) {
            *slot = if name == "--" { EMPTY_SLOT } else { class_index(name).unwrap() };
        }
        comp
    }

    fn bits(p: &CompositionProfile) -> (Vec<u64>, u64) {
        (p.slot_exec_ns.iter().map(|ns| ns.to_bits()).collect(), p.makespan_ns.to_bits())
    }

    /// Asserts that the memo holds, for every one of `comps` under `cfg`,
    /// exactly what a fresh simulation returns.
    fn assert_memo_matches_profiling(cfg: &DpuConfig, comps: &[Composition]) {
        let memoized: Vec<_> = {
            let memo = profile_memo();
            comps.iter().map(|comp| memo_lookup(&memo, cfg, comp)).collect()
        };
        for (comp, memoized) in comps.iter().zip(memoized) {
            let memoized = memoized.expect("every profiled composition is memoized");
            let (fresh, _) = profile_composition(comp, cfg, 0).unwrap();
            assert_eq!(bits(&memoized), bits(&fresh), "{}", composition_label(comp));
        }
    }

    #[test]
    fn the_memo_holds_what_profiling_returns_under_each_config_apart() {
        use crate::runtime::{run_scenario, ServeOptions};
        let tiny = *crate::scenario::scenario_by_name("tiny").unwrap();
        let plain = DpuConfig::paper_baseline(SLOTS_PER_DPU as u32 * TASKLETS_PER_SLOT);
        let mmu = plain.clone().with_paper_mmu();
        let opts = |trace_capacity| ServeOptions {
            threads: Some(2),
            trace_capacity,
            ..ServeOptions::default()
        };
        let mut reached = Vec::new();
        for (cfg, with_mmu) in [(&plain, false), (&mmu, true)] {
            let scenario = crate::scenario::Scenario { mmu: with_mmu, ..tiny };
            // A traced run bypasses the memo and names every composition
            // the scenario reaches; the untraced run memoizes them.
            let traced = run_scenario(&scenario, &opts(64)).unwrap();
            run_scenario(&scenario, &opts(0)).unwrap();
            let comps: Vec<Composition> =
                traced.traces.iter().map(|t| composition_of(&t.label)).collect();
            assert_eq!(comps.len(), traced.distinct_compositions);
            assert_memo_matches_profiling(cfg, &comps);
            reached.push(comps);
        }
        // The key is the whole config, not a proxy for it: the plain
        // config at twice the MRAM bandwidth shares `mmu: false` with the
        // plain one, yet gets a table and profiles of its own.
        let faster = plain.clone().with_mram_bw_scale(2.0);
        let fast = memoized_profiles(&reached[0], &faster, 0, &JobRunner::new(Some(2)));
        assert!(fast.iter().all(|r| matches!(r, Ok((_, None)))));
        assert_memo_matches_profiling(&faster, &reached[0]);
        let memo = profile_memo();
        let table = |cfg: &DpuConfig| memo.iter().position(|(c, _)| c == cfg).unwrap();
        let tables = [table(&plain), table(&mmu), table(&faster)];
        assert!(tables[0] != tables[1] && tables[0] != tables[2] && tables[1] != tables[2]);
        let some_differ = |a: &DpuConfig, b: &DpuConfig, comps: &[Composition]| {
            comps.iter().filter(|comp| reached[0].contains(comp)).any(|comp| {
                bits(&memo_lookup(&memo, a, comp).unwrap())
                    != bits(&memo_lookup(&memo, b, comp).unwrap())
            })
        };
        assert!(
            some_differ(&plain, &faster, &reached[0]),
            "the bandwidth must change some profile"
        );
        assert!(some_differ(&plain, &mmu, &reached[1]), "the MMU must cost something somewhere");
    }

    #[test]
    fn slot_geometry_fits_the_hardware() {
        assert!(SLOTS_PER_DPU as u32 * TASKLETS_PER_SLOT <= MAX_TASKLETS);
        assert!(SLOTS_PER_DPU as u32 * SLOT_WRAM_BYTES <= layout::WRAM_BYTES);
        assert!(SLOTS_PER_DPU as u32 * SLOT_MRAM_BYTES <= layout::MRAM_BYTES);
    }

    #[test]
    fn every_class_profiles_alone_and_empty_slots_cost_nothing() {
        let cfg = DpuConfig::paper_baseline(SLOTS_PER_DPU as u32 * TASKLETS_PER_SLOT);
        let comp = vec![class_index("VA").unwrap(), EMPTY_SLOT, EMPTY_SLOT, EMPTY_SLOT];
        let (p, trace) = profile_composition(&comp, &cfg, 0).unwrap();
        assert!(trace.is_none());
        assert!(p.slot_exec_ns[0] > 0.0);
        assert!(p.makespan_ns >= p.slot_exec_ns[0]);
        // Idle slots stop immediately; their finish must be far below the
        // occupied slot's.
        assert!(p.slot_exec_ns[1] < p.slot_exec_ns[0] / 2.0);
    }

    #[test]
    fn compute_heavy_classes_run_longer_than_light_ones() {
        let cfg = DpuConfig::paper_baseline(SLOTS_PER_DPU as u32 * TASKLETS_PER_SLOT);
        let ts = vec![class_index("TS").unwrap(); SLOTS_PER_DPU];
        let va = vec![class_index("VA").unwrap(); SLOTS_PER_DPU];
        let (p_ts, _) = profile_composition(&ts, &cfg, 0).unwrap();
        let (p_va, _) = profile_composition(&va, &cfg, 0).unwrap();
        assert!(p_ts.makespan_ns > p_va.makespan_ns);
    }

    #[test]
    fn profiling_is_deterministic_and_traceable() {
        let cfg = DpuConfig::paper_baseline(SLOTS_PER_DPU as u32 * TASKLETS_PER_SLOT);
        let comp = vec![
            class_index("BS").unwrap(),
            class_index("TS").unwrap(),
            EMPTY_SLOT,
            class_index("VA").unwrap(),
        ];
        let (a, _) = profile_composition(&comp, &cfg, 0).unwrap();
        let (b, trace) = profile_composition(&comp, &cfg, 256).unwrap();
        assert_eq!(a.slot_exec_ns, b.slot_exec_ns);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        let trace = trace.expect("tracing enabled");
        assert_eq!(trace.label, "BS+TS+--+VA");
        assert!(trace.trace.event_count() > 0);
    }
}
