//! The DPU's memory engine: DMA requests and cache fills flowing through the
//! (optional) MMU, the cycle-level DDR4 bank, and the fixed-rate DMA
//! interface.
//!
//! Two rate limiters compose here, mirroring the paper's analysis (§V-B):
//!
//! 1. the **DRAM bank** itself (fast: ~16 B per DRAM cycle when streaming
//!    row hits — "several GB/s of bandwidth" at bank level), and
//! 2. the **DMA-engine interface**, a fixed bytes-per-core-cycle pipe that
//!    caps MRAM↔WRAM throughput at the 600–700 MB/s observed on real
//!    hardware.
//!
//! Every request is split into burst-sized bank accesses; each completed
//! burst then occupies the interface for `bytes / rate` core cycles. A
//! request completes when its last burst clears the interface. With the MMU
//! enabled, TLB-missing pages first perform their page-table walk as
//! dependent bank reads before any data burst is enqueued.
//!
//! The engine is event-driven: [`MemEngine::due`] names the first core
//! cycle at which [`MemEngine::advance`] can change anything, and the cycle
//! loops skip the call before it. A burst's interface occupancy and a
//! walk's end are charged at the cycle `advance` *observes* them, so the
//! skip is exact only because an eager caller would observe nothing
//! earlier: the bank decides at decision time however far `now` jumps, and
//! `due` is the first core cycle whose DRAM time reaches the bank's next
//! event (or a transferred request's finish). Live requests sit in a small
//! slab in issue order and bursts carry their request's slot through the
//! bank as a tag, so nothing on the per-burst path hashes. Most advances
//! only move the bank and finish no request: `advance` looks over the slab
//! read-only for the next finish and rewrites it only when a request goes.
//! `due` has the same value on every cycle either way — the cycle loops
//! split idle spans at it, and the position of those splits reaches the
//! statistics (`DESIGN.md` §4, "Idle hop").

use pim_dram::{Access, DramBank, DramConfig, RowEventKind};
use pim_mmu::Mmu;
use pim_trace::{TraceEvent, TraceSink};

/// A caller-chosen identifier reported back when a request completes.
pub(crate) type Token = u64;

/// One contiguous piece of a memory request (MRAM byte range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    /// Starting MRAM byte address (virtual when an MMU is configured).
    pub addr: u32,
    /// Length in bytes.
    pub bytes: u32,
    /// Whether this segment writes MRAM.
    pub write: bool,
}

#[derive(Debug, Clone)]
struct Request {
    /// Issue sequence number; bursts carry it through the bank.
    slot: u64,
    token: Token,
    /// Page-walk reads still in the bank. While non-zero the data segments
    /// wait in `held`.
    walk_left: usize,
    /// Physical data segments awaiting enqueue (during the walk only).
    held: Vec<Segment>,
    /// Data bursts not yet through the interface.
    pending: usize,
    /// Latest interface-completion cycle seen so far.
    finish: u64,
}

impl Request {
    /// Every burst is through the interface; the request retires at `finish`.
    fn transferred(&self) -> bool {
        self.walk_left == 0 && self.pending == 0
    }
}

/// The bank tag of a burst of request `slot`.
fn tag(slot: u64, is_walk: bool) -> u64 {
    slot << 1 | u64::from(is_walk)
}

/// The memory engine. All public times are **core cycles**; the DRAM bank
/// runs in its own clock domain internally. `Clone` exists for the batch
/// executor's lockstep divergence handoff: while a batch is
/// timing-convergent only the leader's engine runs, and followers receive
/// an identical copy when they split off.
#[derive(Debug, Clone)]
pub(crate) struct MemEngine {
    bank: DramBank,
    mmu: Option<Mmu>,
    /// DRAM cycles per core cycle.
    ratio: f64,
    /// Core cycles one full burst occupies the interface.
    burst_occupancy: u64,
    /// Next core cycle at which the interface is free.
    iface_free_at: u64,
    /// Fixed per-request setup latency in core cycles.
    setup: u32,
    /// Live requests in issue order (at most one per blocked tasklet or
    /// SIMT lane), so `slot` is ascending.
    requests: Vec<Request>,
    next_slot: u64,
    /// First core cycle at which `advance` has work; `u64::MAX` when idle.
    due: u64,
    /// Completions ready to report: (token, completion core cycle).
    done: Vec<(Token, u64)>,
    /// Requests issued (for stats).
    pub requests_issued: u64,
    /// Reusable buffer for the tags of bursts the bank completed.
    scratch: Vec<u64>,
    /// Reusable buffer for walk-completion bookkeeping in `advance`.
    walk_scratch: Vec<(u64, u64)>,
    /// Reusable buffer for MMU-translated segments in `issue`.
    phys_scratch: Vec<Segment>,
    /// Reusable buffer for page-table reads in `issue`.
    pte_scratch: Vec<u32>,
}

impl MemEngine {
    pub(crate) fn new(
        dram: DramConfig,
        mmu: Option<Mmu>,
        ratio: f64,
        iface_rate: f64,
        setup: u32,
    ) -> Self {
        assert!(ratio > 0.0 && iface_rate > 0.0);
        MemEngine {
            bank: DramBank::new(dram),
            mmu,
            ratio,
            burst_occupancy: (f64::from(dram.burst_bytes) / iface_rate).ceil() as u64,
            iface_free_at: 0,
            setup,
            requests: Vec::new(),
            next_slot: 0,
            due: u64::MAX,
            done: Vec::new(),
            requests_issued: 0,
            scratch: Vec::new(),
            walk_scratch: Vec::new(),
            phys_scratch: Vec::new(),
            pte_scratch: Vec::new(),
        }
    }

    pub(crate) fn bank(&self) -> &DramBank {
        &self.bank
    }

    /// Turns DRAM row-buffer event recording on or off (for tracing).
    pub(crate) fn set_row_event_recording(&mut self, on: bool) {
        self.bank.set_event_recording(on);
    }

    /// Drains recorded row-buffer events into `sink`, converting their
    /// timestamps from DRAM cycles to core cycles.
    pub(crate) fn drain_row_events<S: TraceSink>(&mut self, sink: &mut S) {
        for ev in self.bank.drain_row_events() {
            let cycle = self.to_core(ev.at);
            sink.emit(match ev.kind {
                RowEventKind::Activate => TraceEvent::RowActivate { cycle, row: ev.row },
                RowEventKind::Precharge => TraceEvent::RowPrecharge { cycle, row: ev.row },
            });
        }
    }

    pub(crate) fn mmu(&self) -> Option<&Mmu> {
        self.mmu.as_ref()
    }

    fn to_dram(&self, core: u64) -> u64 {
        (core as f64 * self.ratio) as u64
    }

    fn to_core(&self, dram: u64) -> u64 {
        (dram as f64 / self.ratio).ceil() as u64
    }

    /// The first core cycle `c` with `to_dram(c) >= dram`: the cycle at
    /// which an advance first sees the bank at DRAM cycle `dram`. This is
    /// `to_core(dram)` whenever the `f64` ceil and floor agree (they do for
    /// every clock ratio the configurations produce — see the unit test);
    /// the two loops make `due` exact for any other ratio as well.
    fn first_core_reaching(&self, dram: u64) -> u64 {
        let mut core = self.to_core(dram);
        while core > 0 && self.to_dram(core - 1) >= dram {
            core -= 1;
        }
        while self.to_dram(core) < dram {
            core += 1;
        }
        core
    }

    /// The bank's next event as a due cycle; `u64::MAX` when it is idle.
    fn bank_due(&self) -> u64 {
        self.bank.next_event().map_or(u64::MAX, |d| self.first_core_reaching(d))
    }

    fn request_mut(&mut self, slot: u64) -> &mut Request {
        let i = self.requests.binary_search_by_key(&slot, |r| r.slot).expect("live request");
        &mut self.requests[i]
    }

    /// Issues a request of one or more MRAM segments at core cycle `now`.
    /// Addresses are virtual when an MMU is configured.
    ///
    /// Allocation-free on every path but a TLB miss, which moves the pooled
    /// segment buffer into the request for the duration of the walk:
    /// translated segments and page-table reads go through scratch buffers.
    pub(crate) fn issue(&mut self, token: Token, segments: &[Segment], now: u64) {
        debug_assert!(!segments.is_empty());
        self.requests_issued += 1;
        let slot = self.next_slot;
        self.next_slot += 1;
        // Translate (MMU) — collect physical segments plus walk reads.
        let mut walk_reads = std::mem::take(&mut self.pte_scratch);
        walk_reads.clear();
        let mut tlb_cycles: u64 = 0;
        let mut physical = std::mem::take(&mut self.phys_scratch);
        physical.clear();
        if let Some(mmu) = self.mmu.as_mut() {
            let page = mmu.config().page_bytes;
            for seg in segments {
                let mut addr = seg.addr;
                let mut left = seg.bytes;
                while left > 0 {
                    let in_page = (page - addr % page).min(left);
                    let t = mmu.translate(addr);
                    tlb_cycles += u64::from(t.cycles);
                    if !t.tlb_hit {
                        walk_reads.extend(&t.walk_reads);
                    }
                    physical.push(Segment { addr: t.paddr, bytes: in_page, write: seg.write });
                    addr += in_page;
                    left -= in_page;
                }
            }
        }
        let start = now + u64::from(self.setup) + tlb_cycles;
        let mut req =
            Request { slot, token, walk_left: 0, held: Vec::new(), pending: 0, finish: start };
        if walk_reads.is_empty() {
            let data = if self.mmu.is_some() { &physical[..] } else { segments };
            req.pending = self.enqueue_data(slot, data, start);
            self.phys_scratch = physical;
        } else {
            walk_reads.sort_unstable();
            walk_reads.dedup();
            let arrival = self.to_dram(start);
            for &pte in &walk_reads {
                req.walk_left +=
                    self.bank.enqueue_run(Access::read(pte, 4), arrival, tag(slot, true));
            }
            req.held = physical;
        }
        self.pte_scratch = walk_reads;
        // Pull the due cycle forward: the new bursts may start before
        // anything already in the bank finishes.
        if req.transferred() {
            self.due = self.due.min(req.finish);
        }
        self.due = self.due.min(self.bank_due());
        self.requests.push(req);
    }

    /// Enqueues physical segments as bank runs arriving at core cycle
    /// `start`; returns the number of bursts.
    fn enqueue_data(&mut self, slot: u64, segments: &[Segment], start: u64) -> usize {
        let arrival = self.to_dram(start);
        segments
            .iter()
            .map(|seg| {
                let range = Access { addr: seg.addr, bytes: seg.bytes, write: seg.write };
                self.bank.enqueue_run(range, arrival, tag(slot, false))
            })
            .sum()
    }

    /// Drives the engine to core cycle `now`. A no-op while `now` is before
    /// [`MemEngine::due`].
    pub(crate) fn advance(&mut self, now: u64) {
        let mut bank_done = std::mem::take(&mut self.scratch);
        bank_done.clear();
        self.bank.advance_to_tagged(self.to_dram(now), &mut bank_done);
        let mut walk_finished = std::mem::take(&mut self.walk_scratch);
        walk_finished.clear();
        for &burst in &bank_done {
            let (slot, is_walk) = (burst >> 1, burst & 1 == 1);
            if is_walk {
                let req = self.request_mut(slot);
                req.walk_left -= 1;
                if req.walk_left == 0 {
                    // Walk completion time in core cycles.
                    // (The burst finished by `now`; use `now` — advance is
                    // called at event granularity so this is tight.)
                    walk_finished.push((slot, now));
                }
            } else {
                // Data burst: account interface occupancy in completion order.
                self.iface_free_at = self.iface_free_at.max(now) + self.burst_occupancy;
                let free_at = self.iface_free_at;
                let req = self.request_mut(slot);
                req.finish = req.finish.max(free_at);
                req.pending -= 1;
            }
        }
        self.scratch = bank_done;
        // Requests whose walk completed: enqueue their data bursts now.
        for (slot, at) in walk_finished.drain(..) {
            let held = std::mem::take(&mut self.request_mut(slot).held);
            let pending = self.enqueue_data(slot, &held, at);
            let req = self.request_mut(slot);
            req.pending = pending;
            req.finish = req.finish.max(at);
        }
        self.walk_scratch = walk_finished;
        // Report and drop finished requests; what remains sets the due
        // cycle. Most calls only move the bank and finish nothing, so look
        // first and rewrite the list only when a request goes.
        let mut due = u64::MAX;
        let mut finished = false;
        for req in self.requests.iter().filter(|req| req.transferred()) {
            if req.finish <= now {
                finished = true;
            } else {
                due = due.min(req.finish);
            }
        }
        if finished {
            let done = &mut self.done;
            self.requests.retain(|req| {
                let gone = req.transferred() && req.finish <= now;
                if gone {
                    done.push((req.token, req.finish));
                }
                !gone
            });
        }
        self.due = due.min(self.bank_due());
    }

    /// Moves the completions accumulated by [`MemEngine::advance`] into
    /// `out` (cleared first), swapping buffers so neither side allocates in
    /// steady state. Requests that finish in one `advance` are reported in
    /// the order they were issued.
    pub(crate) fn drain_done_into(&mut self, out: &mut Vec<(Token, u64)>) {
        out.clear();
        std::mem::swap(&mut self.done, out);
    }

    /// The first core cycle at which [`MemEngine::advance`] can change
    /// anything — a bank decision or completion comes due, or a transferred
    /// request reaches its finish — and `u64::MAX` when nothing is
    /// outstanding. Calling `advance` earlier is a no-op, so the cycle
    /// loops skip it and fast-forward idle spans to this cycle;
    /// [`MemEngine::issue`] pulls it forward.
    pub(crate) fn due(&self) -> u64 {
        self.due
    }

    /// Whether nothing is queued or in flight.
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.requests.is_empty() && self.bank.is_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_mmu::{MmuConfig, PageTable};

    fn engine() -> MemEngine {
        // Baseline: 1200/350 ≈ 3.43 DRAM cycles per core cycle, 2 B/cycle.
        MemEngine::new(DramConfig::ddr4_2400(), None, 1200.0 / 350.0, 2.0, 24)
    }

    fn run_until_done(e: &mut MemEngine, mut now: u64) -> Vec<(Token, u64)> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        loop {
            e.advance(now);
            e.drain_done_into(&mut buf);
            out.extend_from_slice(&buf);
            if e.is_idle() {
                return out;
            }
            now = e.due().max(now + 1);
        }
    }

    #[test]
    fn single_small_read_completes() {
        let mut e = engine();
        e.issue(7, &[Segment { addr: 0, bytes: 8, write: false }], 0);
        let done = run_until_done(&mut e, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 7);
        // Setup (24) + bank access (~36 DRAM cyc ≈ 11 core) + interface.
        assert!(done[0].1 >= 24, "completion {} too early", done[0].1);
        assert_eq!(e.bank().stats().bytes_read, 8);
    }

    #[test]
    fn large_transfer_throughput_near_interface_rate() {
        let mut e = engine();
        let bytes = 64 * 1024u32;
        e.issue(1, &[Segment { addr: 0, bytes, write: false }], 0);
        let done = run_until_done(&mut e, 0);
        let cycles = done[0].1;
        let rate = f64::from(bytes) / cycles as f64;
        // Theoretical interface max is 2 B/cycle; bank overheads cost some.
        assert!(
            rate > 1.4 && rate <= 2.0,
            "streaming rate {rate:.2} B/cycle outside the 600–700 MB/s band"
        );
    }

    #[test]
    fn unaligned_transfer_splits_into_partial_bursts() {
        let mut e = engine();
        // 100 bytes starting at byte 60: bursts of 4 + 64 + 32.
        e.issue(2, &[Segment { addr: 60, bytes: 100, write: false }], 0);
        let done = run_until_done(&mut e, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(e.bank().stats().reads, 3);
        assert_eq!(e.bank().stats().bytes_read, 100);
    }

    #[test]
    fn writes_flow_to_bank_as_writes() {
        let mut e = engine();
        e.issue(3, &[Segment { addr: 128, bytes: 64, write: true }], 0);
        run_until_done(&mut e, 0);
        assert_eq!(e.bank().stats().writes, 1);
        assert_eq!(e.bank().stats().bytes_written, 64);
    }

    #[test]
    fn concurrent_requests_share_interface() {
        let mut e = engine();
        // Two 4 KB streams issued together: combined time must reflect the
        // shared 2 B/cycle interface, i.e. ~4096 cycles, not ~2048.
        e.issue(1, &[Segment { addr: 0, bytes: 4096, write: false }], 0);
        e.issue(2, &[Segment { addr: 1 << 20, bytes: 4096, write: false }], 0);
        let done = run_until_done(&mut e, 0);
        let last = done.iter().map(|d| d.1).max().unwrap();
        assert!(last >= 4096, "two 4 KB reads through a 2 B/cycle pipe need ≥4096 cycles");
    }

    #[test]
    fn mmu_walks_then_transfers() {
        let pages = 16 * 1024;
        let mmu = Mmu::new(MmuConfig::paper(), PageTable::identity(pages));
        let mut e = MemEngine::new(DramConfig::ddr4_2400(), Some(mmu), 1200.0 / 350.0, 2.0, 24);
        e.issue(1, &[Segment { addr: 8192, bytes: 64, write: false }], 0);
        let done = run_until_done(&mut e, 0);
        assert_eq!(done.len(), 1);
        // 2 PTE reads + 1 data burst.
        assert_eq!(e.bank().stats().reads, 3);
        assert_eq!(e.mmu().unwrap().stats().tlb_misses, 1);
        // Second access to the same page: TLB hit, single data burst.
        e.issue(2, &[Segment { addr: 8256, bytes: 64, write: false }], done[0].1);
        run_until_done(&mut e, done[0].1);
        assert_eq!(e.mmu().unwrap().stats().tlb_hits, 1);
        assert_eq!(e.bank().stats().reads, 4);
    }

    #[test]
    fn mmu_transfer_crossing_pages_translates_each_page() {
        let mmu = Mmu::new(MmuConfig::paper(), PageTable::identity(16 * 1024));
        let mut e = MemEngine::new(DramConfig::ddr4_2400(), Some(mmu), 1200.0 / 350.0, 2.0, 0);
        // 6000 bytes starting mid-page: touches pages 0 and 1.
        e.issue(1, &[Segment { addr: 2048, bytes: 6000, write: false }], 0);
        run_until_done(&mut e, 0);
        assert_eq!(e.mmu().unwrap().stats().tlb_misses, 2);
    }

    #[test]
    fn walk_delays_data_relative_to_no_mmu() {
        let run = |mmu: Option<Mmu>| {
            let mut e = MemEngine::new(DramConfig::ddr4_2400(), mmu, 1200.0 / 350.0, 2.0, 24);
            e.issue(1, &[Segment { addr: 0, bytes: 2048, write: false }], 0);
            run_until_done(&mut e, 0)[0].1
        };
        let without = run(None);
        let with = run(Some(Mmu::new(MmuConfig::paper(), PageTable::identity(16 * 1024))));
        assert!(with > without, "page walk must add latency ({with} vs {without})");
    }

    #[test]
    fn multi_segment_request_completes_once() {
        let mut e = engine();
        e.issue(
            9,
            &[
                Segment { addr: 0, bytes: 64, write: false },
                Segment { addr: 4096, bytes: 64, write: false },
            ],
            0,
        );
        let done = run_until_done(&mut e, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(e.bank().stats().reads, 2);
    }

    /// The clock ratios and interface rates of the bandwidth-scaling design
    /// points (Fig 11 `+4x/16x`, Fig 13) at both core frequencies.
    fn scaled_engine(mmu: bool, scale: f64, core_mhz: f64, setup: u32) -> MemEngine {
        let mmu = mmu.then(|| Mmu::new(MmuConfig::paper(), PageTable::identity(16 * 1024)));
        let dram = DramConfig::ddr4_2400().scaled(scale);
        MemEngine::new(dram, mmu, dram.freq_mhz / core_mhz, 2.0 * scale, setup)
    }

    #[test]
    fn requests_finishing_in_one_advance_report_in_issue_order() {
        let mut e = engine();
        let tokens = [5u64, 3, 9, 1, 7, 2, 8, 4];
        for (i, &t) in tokens.iter().enumerate() {
            e.issue(t, &[Segment { addr: i as u32 * 4096, bytes: 64, write: false }], 0);
        }
        // Every burst is observed here and queues on the interface, 32
        // cycles each; nothing has cleared it yet.
        e.advance(1_000_000);
        assert_eq!(e.due(), 1_000_032);
        e.advance(2_000_000);
        let mut done = Vec::new();
        e.drain_done_into(&mut done);
        assert_eq!(done.iter().map(|d| d.0).collect::<Vec<_>>(), tokens);
        assert_eq!(e.due(), u64::MAX);
    }

    /// Most advances only move the bank: bursts complete and queue on the
    /// interface, nothing finishes. Such a call must leave the request list
    /// and the completions alone and still move `due` exactly as an engine
    /// advanced on every cycle does.
    #[test]
    fn an_advance_that_finishes_nothing_only_moves_the_due_cycle() {
        let mut gated = engine();
        for (i, token) in [4u64, 2, 6].into_iter().enumerate() {
            gated.issue(token, &[Segment { addr: i as u32 * 4096, bytes: 512, write: false }], 0);
        }
        let mut eager = gated.clone();
        let live = |e: &MemEngine| e.requests.iter().map(|r| (r.slot, r.token)).collect::<Vec<_>>();
        let issued = live(&gated);
        let mut quiet = 0;
        for now in 0.. {
            eager.advance(now);
            if now < gated.due() {
                continue;
            }
            gated.advance(now);
            assert_eq!(gated.due(), eager.due(), "cycle {now}");
            if !gated.done.is_empty() {
                break;
            }
            quiet += 1;
            assert_eq!(live(&gated), issued, "cycle {now}");
        }
        assert!(quiet >= 3, "only {quiet} advances before the first completion");
        assert_eq!(gated.done, eager.done);
        assert_eq!(live(&gated), live(&eager));
        assert!(live(&gated).len() < issued.len());
    }

    /// `due` converts the bank's next event to the first core cycle whose
    /// DRAM time reaches it. For the shipped clock ratios that is plain
    /// `to_core` — the `f64` ceil and floor agree, so the conversion costs
    /// the idle fast-forward nothing it did not already do — and for a
    /// ratio where they disagree it is still the first such cycle.
    #[test]
    fn due_cycle_is_the_first_core_cycle_reaching_the_dram_cycle() {
        let mut engines = Vec::new();
        for core_mhz in [350.0, 700.0] {
            for scale in [1.0, 2.0, 4.0, 16.0] {
                engines.push((scaled_engine(false, scale, core_mhz, 0), true));
            }
        }
        // 1200 / 110: ceil overshoots and floor undershoots on some cycles.
        engines
            .push((MemEngine::new(DramConfig::ddr4_2400(), None, 1200.0 / 110.0, 2.0, 0), false));
        for (e, ceil_is_exact) in engines {
            let mut first = 0u64;
            let mut disagreements = 0;
            for d in 0..200_000u64 {
                while e.to_dram(first) < d {
                    first += 1;
                }
                assert_eq!(e.first_core_reaching(d), first, "ratio {} dram cycle {d}", e.ratio);
                disagreements += u32::from(e.to_core(d) != first);
            }
            assert_eq!(disagreements == 0, ceil_is_exact, "ratio {}", e.ratio);
        }
    }

    /// One seeded issue stream through two engines: `eager` is advanced on
    /// every core cycle, `gated` only from its due cycle on, as the cycle
    /// loops do. Both must report the same completions on the same cycles,
    /// agree on the due cycle throughout, and end with the same statistics.
    /// `setup = 0` is the edge where a request issued at cycle `c` arrives
    /// at the bank at `to_dram(c)`, the very instant the eager engine has
    /// just advanced to.
    #[test]
    fn gated_advance_matches_eager_advance() {
        let mut rng = pim_rng::StdRng::seed_from_u64(0x6A7E_D001);
        for mmu in [false, true] {
            for scale in [1.0, 4.0, 16.0] {
                for setup in [0, 24] {
                    for _case in 0..6 {
                        let mut eager = scaled_engine(mmu, scale, 350.0, setup);
                        let mut gated = eager.clone();
                        let (mut eager_done, mut gated_done) = (Vec::new(), Vec::new());
                        let mut buf = Vec::new();
                        let mut skipped = 0u32;
                        let mut free: Vec<u64> = (0..16).collect();
                        let mut to_issue = rng.gen_range(20u32..60);
                        let burstiness = rng.gen_range(1u32..40);
                        let mut now = 0u64;
                        while to_issue > 0 || !eager.is_idle() {
                            eager.advance(now);
                            eager.drain_done_into(&mut buf);
                            free.extend(buf.iter().map(|d| d.0));
                            eager_done.extend(buf.iter().map(|&d| (now, d)));
                            if now >= gated.due() {
                                gated.advance(now);
                                gated.drain_done_into(&mut buf);
                                gated_done.extend(buf.iter().map(|&d| (now, d)));
                            } else {
                                skipped += 1;
                            }
                            assert_eq!(gated.due(), eager.due(), "cycle {now}");
                            // Like a cycle loop: issue after the advance.
                            while to_issue > 0 && !free.is_empty() && rng.gen_ratio(1, burstiness) {
                                to_issue -= 1;
                                let token = free.swap_remove(rng.gen_range(0..free.len()));
                                let n_segs = rng.gen_range(1usize..3);
                                let segs: Vec<Segment> = (0..n_segs)
                                    .map(|_| Segment {
                                        // A few hot pages, so the TLB both hits and misses.
                                        addr: rng.gen_range(0u32..24) * 4096 * 5
                                            + rng.gen_range(0u32..512) * 8,
                                        bytes: rng.gen_range(1u32..257) * 8,
                                        write: rng.gen_bool(),
                                    })
                                    .collect();
                                eager.issue(token, &segs, now);
                                gated.issue(token, &segs, now);
                                assert_eq!(gated.due(), eager.due(), "issue at cycle {now}");
                            }
                            now += 1;
                            assert!(now < 2_000_000, "engines failed to quiesce");
                        }
                        assert!(gated.is_idle());
                        assert!(skipped > 0, "the gate never closed");
                        assert_eq!(gated_done, eager_done);
                        assert_eq!(gated.bank().stats(), eager.bank().stats());
                        assert_eq!(
                            gated.mmu().map(|m| *m.stats()),
                            eager.mmu().map(|m| *m.stats())
                        );
                    }
                }
            }
        }
    }
}
