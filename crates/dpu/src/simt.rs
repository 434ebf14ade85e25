//! The SIMT vector front-end (paper §V-A, Fig 11).
//!
//! `warp_width` consecutive tasklets are grouped into a warp that issues one
//! instruction per cycle over the vector lanes. Control divergence is
//! handled with per-lane PCs: the scheduler rotates fairly among the
//! distinct PC groups present in a warp (a progress-guaranteeing
//! approximation of post-Volta independent thread scheduling — a pure
//! min-PC policy would deadlock intra-warp locks, which the PrIM barriers
//! exercise).
//!
//! The front-end is dependency-checked (issue gap of 1 with per-lane
//! operand forwarding) rather than revolver-gated: with at most two warps,
//! an 11-cycle same-warp dispatch gap would cap IPC at `2·W/11` and make
//! the paper's reported SIMT speedups unreachable; the vector design point
//! therefore assumes the forwarding-enabled pipeline (see `DESIGN.md` §5).
//!
//! The **address coalescer** (`+AC`) merges the grouped scalar accesses:
//! per-lane DMA transfers whose address ranges touch are fused into fewer,
//! larger memory-engine requests (amortizing per-request setup and keeping
//! the DRAM row open), and scratchpad accesses falling in the same 64 B
//! segment share one port slot instead of serializing per lane.

use pim_trace::{StallCause, TraceEvent, TraceSink};

use crate::dpu::{Dpu, TaskletStatus};
use crate::error::SimError;
use crate::exec::Effect;
use crate::mem::{debug_assert_on_time, MemEngine, Segment};
use crate::stats::DpuRunStats;

struct Warp {
    /// Lane → tasklet index range.
    lanes: std::ops::Range<usize>,
    /// Warp blocked on outstanding memory requests.
    pending_mem: usize,
    /// Earliest cycle the warp may issue again.
    next_issue: u64,
    /// Rotation counter for fair PC-group selection.
    rotation: usize,
}

/// Runs the loaded kernel under the SIMT front-end.
pub(crate) fn run_simt<S: TraceSink>(
    dpu: &mut Dpu,
    mut mem: MemEngine,
    sink: &mut S,
) -> Result<DpuRunStats, SimError> {
    const NREGS: usize = pim_isa::NUM_GP_REGS as usize;
    let cfg = dpu.cfg.clone();
    let simt = cfg.simt.expect("run_simt requires a SIMT config");
    let width = simt.warp_width as usize;
    let n = cfg.n_tasklets as usize;
    // Cached launch artifacts: the instruction stream and decoded side
    // table are built once per program load, not once per launch.
    let kernel = dpu.kernel_artifacts();
    let decoded = &kernel.decoded;
    let n_instrs = kernel.instrs.len() as u32;
    let unified_rf = cfg.ilp.unified_rf;
    let fwd_alu = u64::from(cfg.forward_alu_latency);
    let fwd_load = u64::from(cfg.forward_load_latency);

    let mut warps: Vec<Warp> = (0..n)
        .step_by(width)
        .map(|lo| Warp {
            lanes: lo..(lo + width).min(n),
            pending_mem: 0,
            next_issue: 0,
            rotation: 0,
        })
        .collect();
    let mut status = vec![TaskletStatus::Ready; n];
    // Forwarding scoreboard, flattened: lane `l`, register `r` lives at
    // `reg_ready[l * NREGS + r]` (one allocation, cache-friendly rows).
    let mut reg_ready = vec![0u64; n * NREGS];
    let mut stats = dpu.new_stats();
    let mut window_acc = (0u64, 0u64);
    let mut live = n;
    let mut now: u64 = 0;
    let mut port_block: u64 = 0;
    let mut rr = 0usize;
    // Scratch buffers reused across iterations so the steady-state loop
    // performs no heap allocation.
    let mut issuable: Vec<usize> = Vec::with_capacity(warps.len());
    let mut pcs: Vec<u32> = Vec::with_capacity(width);
    let mut active: Vec<usize> = Vec::with_capacity(width);
    let mut seg_slots: Vec<u32> = Vec::with_capacity(width);
    let mut dma_segments: Vec<Segment> = Vec::with_capacity(width);
    let mut merged: Vec<Segment> = Vec::with_capacity(width);
    let mut done_buf: Vec<(u64, u64)> = Vec::with_capacity(warps.len());

    loop {
        if live == 0 {
            break;
        }
        if now >= cfg.max_cycles {
            return Err(SimError::CycleLimit { limit: cfg.max_cycles });
        }
        if now >= mem.due() {
            mem.advance(now);
            if sink.enabled() {
                mem.drain_row_events(sink);
            }
            mem.drain_done_into(&mut done_buf);
            for &(token, at) in &done_buf {
                debug_assert_on_time(at, now);
                if sink.enabled() {
                    sink.emit(TraceEvent::DmaEnd { cycle: at, tasklet: token as u32 });
                }
                let w = &mut warps[token as usize];
                w.pending_mem -= 1;
                if w.pending_mem == 0 {
                    w.next_issue = w.next_issue.max(at + 1);
                }
            }
        }
        // Issuable warps (live lanes, no outstanding memory, past gap).
        issuable.clear();
        issuable.extend((0..warps.len()).filter(|&wi| {
            let w = &warps[wi];
            w.pending_mem == 0
                && now >= w.next_issue
                && w.lanes.clone().any(|l| status[l] == TaskletStatus::Ready)
        }));
        let issuable_lanes: usize = issuable
            .iter()
            .map(|&wi| {
                warps[wi].lanes.clone().filter(|&l| status[l] == TaskletStatus::Ready).count()
            })
            .sum();
        if port_block > 0 {
            stats.record_tlp_span(issuable_lanes.min(n), 1, &mut window_acc);
            stats.idle_rf += 1;
            if sink.enabled() {
                sink.emit(TraceEvent::Stall {
                    cycle: now,
                    cycles: 1,
                    cause: StallCause::RegisterFile,
                });
            }
            port_block -= 1;
            now += 1;
            continue;
        }
        if issuable.is_empty() {
            // Fractional attribution by lane state, as in the scalar loop.
            let mut lanes_sched = 0usize;
            let mut lanes_mem = 0usize;
            let mut next = u64::MAX;
            for w in &warps {
                let live = w.lanes.clone().filter(|&l| status[l] == TaskletStatus::Ready).count();
                if w.pending_mem == 0 && live > 0 {
                    lanes_sched += live;
                    next = next.min(w.next_issue);
                } else if live > 0 {
                    lanes_mem += live;
                }
            }
            next = next.min(mem.due());
            let next = if next == u64::MAX || next <= now { now + 1 } else { next };
            let span = next - now;
            stats.record_tlp_span(0, span, &mut window_acc);
            stats.record_idle_span(span, lanes_sched, lanes_mem);
            if sink.enabled() {
                sink.emit(TraceEvent::Stall {
                    cycle: now,
                    cycles: span,
                    cause: if lanes_mem >= lanes_sched {
                        StallCause::Memory
                    } else {
                        StallCause::Revolver
                    },
                });
            }
            now = next;
            continue;
        }
        stats.record_tlp_span(issuable_lanes.min(n), 1, &mut window_acc);
        // Pick one warp round-robin.
        let wi = *issuable.iter().find(|&&wi| wi >= rr).unwrap_or(&issuable[0]);
        rr = wi + 1;
        // Fair rotation among the distinct PC groups whose operands are
        // forwarded; fall back to a pipeline stall if none is ready.
        pcs.clear();
        pcs.extend(
            warps[wi]
                .lanes
                .clone()
                .filter(|&l| status[l] == TaskletStatus::Ready)
                .map(|l| dpu.state.pc[l]),
        );
        pcs.sort_unstable();
        pcs.dedup();
        let group_ready = |pc: u32, dpu: &Dpu, reg_ready: &[u64]| -> bool {
            let Some(d) = decoded.get(pc) else {
                return true; // fault surfaces at execution
            };
            warps[wi]
                .lanes
                .clone()
                .filter(|&l| status[l] == TaskletStatus::Ready && dpu.state.pc[l] == pc)
                .all(|l| {
                    let mut mask = d.src_mask;
                    while mask != 0 {
                        let r = mask.trailing_zeros() as usize;
                        if reg_ready[l * NREGS + r] > now {
                            return false;
                        }
                        mask &= mask - 1;
                    }
                    true
                })
        };
        let rot = warps[wi].rotation;
        let chosen = (0..pcs.len())
            .map(|k| pcs[(rot + k) % pcs.len()])
            .find(|&pc| group_ready(pc, dpu, &reg_ready));
        warps[wi].rotation = rot.wrapping_add(1);
        let Some(pc) = chosen else {
            // All groups waiting on forwarding: a pipeline stall cycle.
            stats.record_idle_span(1, 1, 0);
            if sink.enabled() {
                sink.emit(TraceEvent::Stall { cycle: now, cycles: 1, cause: StallCause::Revolver });
            }
            now += 1;
            continue;
        };
        if pc >= n_instrs {
            let lane = warps[wi]
                .lanes
                .clone()
                .find(|&l| dpu.state.pc[l] == pc)
                .unwrap_or(warps[wi].lanes.start);
            return Err(SimError::PcOutOfRange { pc, tasklet: lane as u32 });
        }
        let instr = kernel.instrs[pc as usize];
        let d = *decoded.get(pc).expect("pc bounds-checked above");
        active.clear();
        active.extend(
            warps[wi]
                .lanes
                .clone()
                .filter(|&l| status[l] == TaskletStatus::Ready && dpu.state.pc[l] == pc),
        );
        // Structural hazards: split RF banks, and the scratchpad port for
        // vector loads/stores (one slot per 64 B segment with coalescing,
        // one per active lane without).
        let mut hazard = if unified_rf { 0 } else { u64::from(d.rf_hazard) };
        if matches!(instr, pim_isa::Instruction::Load { .. } | pim_isa::Instruction::Store { .. }) {
            let slots = if simt.coalescing {
                // Coalesced accesses occupy one slot per group of
                // `wram_ports` distinct 64 B segments (banked WRAM).
                seg_slots.clear();
                seg_slots.extend(
                    active
                        .iter()
                        .filter_map(|&l| dpu.state.ls_addr(l as u32, &instr).map(|(a, _)| a / 64)),
                );
                seg_slots.sort_unstable();
                seg_slots.dedup();
                (seg_slots.len() as u32).div_ceil(simt.wram_ports.max(1)).max(1) as usize
            } else {
                active.len()
            };
            hazard += slots as u64 - 1;
        }
        // Execute over the active lanes; gather DMA segments.
        dma_segments.clear();
        let mut dma_lane_requests = 0usize;
        for &l in &active {
            let effect = dpu.state.execute(l as u32, &instr)?;
            stats.count_instruction(d.class, l as u32);
            if sink.enabled() {
                dpu.state.trace_retire(sink, now, l as u32, pc, d.class, &instr, effect);
            }
            if let Some(rd) = d.dst {
                let lat = if d.is_load { fwd_load } else { fwd_alu };
                reg_ready[l * NREGS + rd as usize] = now + lat;
            }
            match effect {
                Effect::Advance => dpu.state.pc[l] = pc + 1,
                Effect::Jump(t) => dpu.state.pc[l] = t,
                Effect::AcquireRetry => {}
                Effect::Stop => {
                    status[l] = TaskletStatus::Stopped;
                    stats.tasklet_stop_cycle[l] = now;
                    live -= 1;
                }
                Effect::Dma { mram, len, write } => {
                    dpu.state.pc[l] = pc + 1;
                    dma_segments.push(Segment { addr: mram, bytes: len, write });
                    dma_lane_requests += 1;
                }
            }
        }
        if !dma_segments.is_empty() {
            if simt.coalescing {
                // Merge touching ranges of the same direction.
                dma_segments.sort_by_key(|s| (s.write, s.addr));
                merged.clear();
                for s in dma_segments.drain(..) {
                    match merged.last_mut() {
                        Some(prev) if prev.write == s.write && s.addr <= prev.addr + prev.bytes => {
                            let end = (s.addr + s.bytes).max(prev.addr + prev.bytes);
                            prev.bytes = end - prev.addr;
                        }
                        _ => merged.push(s),
                    }
                }
                warps[wi].pending_mem = 1;
                mem.issue_traced(sink, wi as u64, &merged, now, true);
            } else {
                // One engine request per lane: per-request setup is paid
                // for every scalar transfer, as in the uncoalesced design.
                warps[wi].pending_mem = dma_lane_requests;
                for s in dma_segments.drain(..) {
                    mem.issue_traced(sink, wi as u64, &[s], now, true);
                }
            }
        }
        warps[wi].next_issue = now + 1;
        if hazard > 0 {
            port_block = hazard;
        }
        stats.active_cycles += 1;
        now += 1;
    }
    Ok(stats.seal(now, &mem, None, None))
}
