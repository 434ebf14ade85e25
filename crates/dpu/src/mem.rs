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
//! **Time comes from the bank.** The bank reports every burst with the
//! DRAM cycle its data completed, and the engine books the burst at the
//! first core cycle reaching that: the interface is taken from
//! `max(iface_free_at, that cycle)`, a page walk ends on it. Nothing is
//! charged at the cycle [`MemEngine::advance`] happens to run, so
//! `advance` may run as rarely as its caller likes, with two limits that
//! [`MemEngine::due`] states as one cycle: a request is reported by the
//! first `advance` at or after its finish, and the cycle loops wake a
//! tasklet when it is reported, so `due` is never later than the next
//! finish; and the data bursts behind a page walk are enqueued when
//! `advance` sees the walk end, so a walk has to be seen on its cycle.
//! `due` is therefore a *bound*, not the bank's next event — for a request
//! in transfer, the cycle the interface needs for its remaining bursts —
//! and the engine wakes about once per request where the bank has an event
//! per burst and per scheduling decision.
//!
//! Live requests sit in a small slab in issue order and bursts carry their
//! request's slot through the bank as a tag, so nothing on the per-burst
//! path hashes, and requests finishing in one `advance` report in issue
//! order.

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

/// Debug-build check for the cycle loops, on every completion they drain at
/// cycle `now`: a request is reported on the cycle it finishes. It is the
/// one property a [`MemEngine::due`] that comes too late breaks — the
/// bookings do not depend on when `advance` runs, the wake-up does.
#[inline]
pub(crate) fn debug_assert_on_time(at: u64, now: u64) {
    if cfg!(debug_assertions) && at != now {
        // The seeded due bug is late on purpose, and is the fuzzer's to find.
        if crate::mutation::due_bug() {
            return;
        }
        panic!("memory completion of cycle {at} reported at cycle {now}");
    }
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
    /// See [`MemEngine::due`]; `u64::MAX` when idle.
    due: u64,
    /// What a request's last burst adds to its bound in `due`: one
    /// occupancy (two with `mutation::set_due_bug` armed — a bound that
    /// comes too late).
    bound_tail: u64,
    /// Completions ready to report: (token, completion core cycle).
    done: Vec<(Token, u64)>,
    /// Requests issued (for stats).
    pub requests_issued: u64,
    /// Reusable buffer for the `(tag, finish)` of bursts the bank retired.
    scratch: Vec<(u64, u64)>,
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
        let burst_occupancy = (f64::from(dram.burst_bytes) / iface_rate).ceil() as u64;
        // Seeded bug for the mutation self-check, sampled once per launch.
        let bound_tail = burst_occupancy * (1 + u64::from(crate::mutation::due_bug()));
        MemEngine {
            bank: DramBank::new(dram),
            mmu,
            ratio,
            burst_occupancy,
            iface_free_at: 0,
            setup,
            requests: Vec::new(),
            next_slot: 0,
            due: u64::MAX,
            bound_tail,
            done: Vec::new(),
            requests_issued: 0,
            scratch: Vec::new(),
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

    /// The first core cycle `c` with `to_dram(c) >= dram`: the core cycle
    /// on which DRAM cycle `dram` is reached. This is `to_core(dram)`
    /// whenever the `f64` ceil and floor agree (they do for every clock
    /// ratio the configurations produce — see the unit test); the two loops
    /// make it exact for any other ratio as well.
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

    /// The bank's next event as a core cycle; `u64::MAX` when it is idle.
    /// No burst still in the bank completes before it, whatever is
    /// enqueued later: one in flight finishes no earlier than the front,
    /// a queued one starts no earlier than the next decision.
    fn bank_due(&self) -> u64 {
        self.bank.next_event().map_or(u64::MAX, |d| self.first_core_reaching(d))
    }

    /// A core cycle no later than `req`'s finish, given [`Self::bank_due`].
    ///
    /// * All bursts through the interface: the finish itself.
    /// * A page walk outstanding: the bank's next event. The walk's data
    ///   is enqueued when `advance` sees it end, so the engine follows the
    ///   bank event by event until then.
    /// * In transfer, `pending` bursts to go: the last of them leaves the
    ///   bank at `bank_due` or later and then takes one occupancy; and
    ///   `iface_free_at` never decreases while each of the `pending` adds
    ///   one occupancy to it. The interface term is the tight one — a
    ///   burst is 32 core cycles of interface and 1–15 of bank, so a queue
    ///   of DMAs waits on the interface.
    ///
    /// Every term only grows as time passes and as other requests are
    /// issued, so a bound stays valid until it is next taken.
    fn bound(&self, req: &Request, bank_due: u64) -> u64 {
        if req.walk_left > 0 {
            bank_due
        } else if req.pending == 0 {
            req.finish
        } else {
            let queued = (req.pending as u64 - 1) * self.burst_occupancy;
            bank_due.max(self.iface_free_at + queued) + self.bound_tail
        }
    }

    fn request_mut(&mut self, slot: u64) -> &mut Request {
        let i = self.requests.binary_search_by_key(&slot, |r| r.slot).expect("live request");
        &mut self.requests[i]
    }

    /// [`MemEngine::issue`], announced to an enabled `sink`: where every
    /// loop's `DmaBegin` is built. A request reads as one transfer from its
    /// first segment's address — a cache fill with the victim's writeback
    /// is the fill — unless `per_segment`, for the SIMT coalescer, whose
    /// merged ranges are a transfer each.
    #[inline]
    pub(crate) fn issue_traced<S: TraceSink>(
        &mut self,
        sink: &mut S,
        token: Token,
        segments: &[Segment],
        now: u64,
        per_segment: bool,
    ) {
        if sink.enabled() {
            let tasklet = token as u32;
            let mut begin = |mram, bytes, write| {
                sink.emit(TraceEvent::DmaBegin { cycle: now, tasklet, mram, bytes, write });
            };
            if per_segment {
                segments.iter().for_each(|s| begin(s.addr, s.bytes, s.write));
            } else {
                let first = segments[0];
                begin(first.addr, segments.iter().map(|s| s.bytes).sum(), first.write);
            }
        }
        self.issue(token, segments, now);
    }

    /// Issues a request of one or more MRAM segments at core cycle `now`.
    /// Addresses are virtual when an MMU is configured.
    ///
    /// Allocation-free on every path but a TLB miss, which moves the pooled
    /// segment buffer into the request for the duration of the walk:
    /// translated segments and page-table reads go through scratch buffers.
    fn issue(&mut self, token: Token, segments: &[Segment], now: u64) {
        debug_assert!(!segments.is_empty());
        // The bank takes the decisions up to `now` before it sees the new
        // bursts (they may arrive at `now` itself when there is no setup
        // latency), and its next event lies ahead when the bound is taken.
        self.settle(now);
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
        self.due = self.due.min(self.bound(&req, self.bank_due()));
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

    /// Brings the bank up to core cycle `now` and books every burst it
    /// retired at the burst's own cycle.
    fn settle(&mut self, now: u64) {
        let mut retired = std::mem::take(&mut self.scratch);
        retired.clear();
        self.bank.advance_to_tagged(self.to_dram(now), &mut retired);
        for &(burst, finish) in &retired {
            let (slot, is_walk) = (burst >> 1, burst & 1 == 1);
            if is_walk {
                let req = self.request_mut(slot);
                req.walk_left -= 1;
                if req.walk_left == 0 {
                    // The walk ends with this burst: its data arrives then.
                    let held = std::mem::take(&mut req.held);
                    let at = self.first_core_reaching(finish);
                    let pending = self.enqueue_data(slot, &held, at);
                    let req = self.request_mut(slot);
                    req.pending = pending;
                    req.finish = req.finish.max(at);
                }
            } else {
                // Data burst: it takes the interface, in completion order,
                // from the cycle it left the bank — which the interface,
                // the slower of the two, is mostly still busy at.
                if self.to_dram(self.iface_free_at) < finish {
                    self.iface_free_at = self.first_core_reaching(finish);
                }
                self.iface_free_at += self.burst_occupancy;
                let free_at = self.iface_free_at;
                let req = self.request_mut(slot);
                req.finish = req.finish.max(free_at);
                req.pending -= 1;
            }
        }
        self.scratch = retired;
    }

    /// Drives the engine to core cycle `now`: reports the requests that
    /// finished by then and takes [`MemEngine::due`] anew. What it reports
    /// does not depend on how many earlier calls there were, as long as
    /// none came later than `due` allowed.
    pub(crate) fn advance(&mut self, now: u64) {
        self.settle(now);
        // Most calls finish one request of several: look first and
        // rewrite the list only when a request goes.
        let bank_due = self.bank_due();
        let mut due = u64::MAX;
        let mut finished = false;
        for req in &self.requests {
            if req.transferred() && req.finish <= now {
                finished = true;
            } else {
                due = due.min(self.bound(req, bank_due));
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
        self.due = due;
    }

    /// Moves the completions accumulated by [`MemEngine::advance`] into
    /// `out` (cleared first), swapping buffers so neither side allocates in
    /// steady state. Requests that finish in one `advance` are reported in
    /// the order they were issued.
    pub(crate) fn drain_done_into(&mut self, out: &mut Vec<(Token, u64)>) {
        out.clear();
        std::mem::swap(&mut self.done, out);
    }

    /// The cycle by which [`MemEngine::advance`] has to be called next:
    /// the smallest, over the live requests, of a cycle no later than the
    /// request's finish (`MemEngine::bound`), and `u64::MAX` when nothing
    /// is outstanding. The cycle loops skip `advance` before it and
    /// fast-forward idle spans to it; a call that comes early reports
    /// nothing and moves the bound up. [`MemEngine::issue`] lowers it by
    /// the new request's bound. It may be `now` or earlier right after a
    /// page walk ends; the loops read that as `now + 1`.
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
        // One call, long after the last of them finished: every burst is
        // booked at its own cycle, 32 cycles of interface apart, not at
        // the cycle of the call.
        e.advance(1_000_000);
        let mut done = Vec::new();
        e.drain_done_into(&mut done);
        assert_eq!(done.iter().map(|d| d.0).collect::<Vec<_>>(), tokens);
        assert!(done.windows(2).all(|w| w[0].1 + 32 == w[1].1), "{done:?}");
        assert!(done[7].1 < 1_000, "{done:?}");
        assert_eq!(e.due(), u64::MAX);
    }

    /// Sixteen tasklets start a 2 KB read each in one cycle: 512 bursts, and
    /// the bank has an event for every one of them and for every
    /// scheduling decision. An engine woken only at its due cycle wakes at
    /// most twice per request (the bound is exact while the bank serves a
    /// request's bursts back to back, and is taken again where FR-FCFS
    /// interleaved another request's row), and reports every request on
    /// the cycle it finishes.
    #[test]
    fn a_2kb_request_takes_at_most_two_wake_ups() {
        let mut e = engine();
        for t in 0..16u32 {
            e.issue(u64::from(t), &[Segment { addr: t << 16, bytes: 2048, write: false }], 0);
        }
        let (mut now, mut wake_ups, mut reported) = (0u64, 0u32, 0usize);
        let mut done = Vec::new();
        while !e.is_idle() {
            now = e.due().max(now + 1);
            e.advance(now);
            wake_ups += 1;
            e.drain_done_into(&mut done);
            assert!(done.iter().all(|d| d.1 == now), "cycle {now}: {done:?}");
            reported += done.len();
        }
        assert_eq!(reported, 16);
        assert_eq!(e.bank().stats().reads, 512);
        assert!(wake_ups <= 2 * 16, "{wake_ups} wake-ups for 16 requests");
    }

    /// A burst is booked at the first core cycle whose DRAM time reaches
    /// its finish. For the shipped clock ratios that is plain `to_core` —
    /// the `f64` ceil and floor agree — and for a ratio where they disagree
    /// it is still the first such cycle.
    #[test]
    fn a_dram_cycle_converts_to_the_first_core_cycle_reaching_it() {
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

    /// One seeded issue stream through three engines: `eager` is advanced
    /// on every core cycle, `gated` only from its due cycle on, as the
    /// cycle loops do, and `mixed` at its due cycles and at random cycles
    /// besides. All must report the same completions on the same cycles —
    /// each on the cycle it finishes — and end with the same statistics;
    /// and `gated`'s due cycle is never later than the next completion.
    /// `setup = 0` is the edge where a request issued at cycle `c` arrives
    /// at the bank at `to_dram(c)`, the very instant the eager engine has
    /// just advanced to.
    #[test]
    fn advancing_from_the_due_cycle_on_matches_advancing_every_cycle() {
        let mut rng = pim_rng::StdRng::seed_from_u64(0x6A7E_D001);
        let mut extra = pim_rng::StdRng::seed_from_u64(0x6A7E_D002);
        for mmu in [false, true] {
            for scale in [1.0, 4.0, 16.0] {
                for setup in [0, 24] {
                    for _case in 0..6 {
                        let mut eager = scaled_engine(mmu, scale, 350.0, setup);
                        let mut gated = eager.clone();
                        let mut mixed = eager.clone();
                        let mut done = [Vec::new(), Vec::new(), Vec::new()];
                        let mut buf = Vec::new();
                        let mut skipped = 0u32;
                        // The latest due cycle `gated` named since the
                        // last completion.
                        let mut latest_due = 0u64;
                        let mut free: Vec<u64> = (0..16).collect();
                        let mut to_issue = rng.gen_range(20u32..60);
                        let burstiness = rng.gen_range(1u32..40);
                        let mut now = 0u64;
                        while to_issue > 0 || !eager.is_idle() {
                            eager.advance(now);
                            eager.drain_done_into(&mut buf);
                            free.extend(buf.iter().map(|d| d.0));
                            done[0].extend(buf.iter().map(|&d| (now, d)));
                            if !buf.is_empty() {
                                assert!(latest_due <= now, "due {latest_due} at cycle {now}");
                                latest_due = 0;
                            }
                            if now >= gated.due() {
                                gated.advance(now);
                                gated.drain_done_into(&mut buf);
                                done[1].extend(buf.iter().map(|&d| (now, d)));
                            } else {
                                skipped += 1;
                            }
                            if now >= mixed.due() || extra.gen_ratio(1, 5) {
                                mixed.advance(now);
                                mixed.drain_done_into(&mut buf);
                                done[2].extend(buf.iter().map(|&d| (now, d)));
                            }
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
                                for e in [&mut eager, &mut gated, &mut mixed] {
                                    e.issue(token, &segs, now);
                                }
                            }
                            if !gated.requests.is_empty() {
                                latest_due = latest_due.max(gated.due());
                            }
                            now += 1;
                            assert!(now < 2_000_000, "engines failed to quiesce");
                        }
                        assert!(gated.is_idle() && mixed.is_idle());
                        assert!(skipped > 0, "the gate never closed");
                        assert!(done[0].iter().all(|&(at, (_, finish))| finish == at));
                        assert_eq!(done[1], done[0]);
                        assert_eq!(done[2], done[0]);
                        for e in [&gated, &mixed] {
                            assert_eq!(e.bank().stats(), eager.bank().stats());
                            assert_eq!(
                                e.mmu().map(|m| *m.stats()),
                                eager.mmu().map(|m| *m.stats())
                            );
                        }
                    }
                }
            }
        }
    }
}
