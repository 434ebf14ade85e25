//! The DRAM bank state machine with FR-FCFS scheduling.
//!
//! The queue holds **runs**, not bursts: the bursts of one enqueued range
//! that fall in one row share an arrival time and a row and are served
//! head first, so FR-FCFS arbitrates among run heads — one pass over a few
//! dozen entries where a burst queue would hold hundreds — and peels one
//! burst off the winner. The per-burst rule is unchanged: a burst queue in
//! enqueue order keeps each run's bursts adjacent, so "oldest, first in
//! queue on ties" picks the head of the earliest-enqueued run either way
//! (`tests/properties.rs` drives a per-burst reference bank against this one).
//!
//! Time is the bank's own. Every decision is taken at *decision time* —
//! bank free and oldest request arrived — among the requests that have
//! arrived by then, and every retired burst is reported with the cycle its
//! data completed, so neither depends on when, or how often, the caller
//! advances the bank. `pim-dpu`'s memory engine relies on that to wake once
//! per DMA request rather than once per burst.

use std::collections::VecDeque;

use crate::config::DramConfig;
use crate::stats::DramStats;

/// Identifier of an enqueued access, returned by [`DramBank::enqueue`] and
/// reported back on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccessId(pub u64);

/// A bank access: at most one burst's worth of data within one row for
/// [`DramBank::enqueue`], a byte range of any length for
/// [`DramBank::enqueue_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// MRAM byte address of the first byte accessed.
    pub addr: u32,
    /// Number of bytes accessed.
    pub bytes: u32,
    /// `true` for writes, `false` for reads.
    pub write: bool,
}

impl Access {
    /// A read access.
    #[must_use]
    pub fn read(addr: u32, bytes: u32) -> Self {
        Access { addr, bytes, write: false }
    }

    /// A write access.
    #[must_use]
    pub fn write(addr: u32, bytes: u32) -> Self {
        Access { addr, bytes, write: true }
    }
}

/// Kind of row-buffer command recorded by [`DramBank`] event recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowEventKind {
    /// A row was activated (opened) into the row buffer.
    Activate,
    /// The open row was precharged (closed).
    Precharge,
}

/// A row-buffer command observed while event recording is enabled.
///
/// Times are in DRAM-clock cycles; the memory engine converts them to core
/// cycles before handing them to a trace sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowEvent {
    /// DRAM cycle at which the command issued.
    pub at: u64,
    /// The row involved.
    pub row: u32,
    /// Activate or precharge.
    pub kind: RowEventKind,
}

/// The not-yet-started bursts of one enqueued range that fall in one DRAM
/// row. They share an arrival time and are address-consecutive, so the
/// queue holds the run and the scheduler peels bursts off its head.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Bytes of the head burst (a range may start mid-burst; every later
    /// burst of the run is aligned).
    head_bytes: u32,
    /// Bytes not yet started, head burst included.
    bytes_left: u32,
    row: u32,
    write: bool,
    arrival: u64,
    /// Id of the head burst; the run's bursts are numbered consecutively.
    first_id: u64,
    /// Caller's tag, reported by [`DramBank::advance_to_tagged`].
    tag: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: AccessId,
    tag: u64,
    finish: u64,
}

/// A cycle-level DRAM bank.
///
/// All times are in DRAM-clock cycles. The caller drives the bank with
/// [`DramBank::advance_to`] and may fast-forward idle periods using
/// [`DramBank::next_event`].
///
/// Scheduling is FR-FCFS (paper Table I): among arrived requests the oldest
/// **row-hit** request is served first; if no request hits the open row, the
/// oldest request is served. A request older than
/// [`DramConfig::starvation_cap`] bypasses row-hit prioritization.
#[derive(Debug, Clone)]
pub struct DramBank {
    cfg: DramConfig,
    /// Queued runs in enqueue order (the FR-FCFS tie-break among equal
    /// arrivals is first-in-queue).
    queue: Vec<Run>,
    /// Bursts queued across all runs.
    queued_bursts: usize,
    /// Started bursts, in start order — which is also finish order, since
    /// CAS times never decrease.
    in_flight: VecDeque<InFlight>,
    open_row: Option<u32>,
    /// Earliest cycle the next bank command sequence may begin.
    next_start: u64,
    /// Cycle at which the currently open row was activated (for tRAS).
    act_cycle: u64,
    next_id: u64,
    stats: DramStats,
    /// Row-buffer commands recorded while `record_events` is set.
    row_events: Vec<RowEvent>,
    record_events: bool,
}

impl DramBank {
    /// Creates an idle bank with the given configuration.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        DramBank {
            cfg,
            queue: Vec::new(),
            queued_bursts: 0,
            in_flight: VecDeque::new(),
            open_row: None,
            next_start: 0,
            act_cycle: 0,
            next_id: 0,
            stats: DramStats::default(),
            row_events: Vec::new(),
            record_events: false,
        }
    }

    /// Enables or disables row-buffer event recording. Off by default; the
    /// bank buffers nothing unless a tracer asks for it.
    pub fn set_event_recording(&mut self, on: bool) {
        self.record_events = on;
        if !on {
            self.row_events.clear();
        }
    }

    /// Takes the row-buffer events recorded since the last drain.
    pub fn drain_row_events(&mut self) -> Vec<RowEvent> {
        std::mem::take(&mut self.row_events)
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Whether the bank has no queued or in-flight accesses.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// Number of queued (not yet started) accesses.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queued_bursts
    }

    /// Enqueues an access arriving at DRAM cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if the access is empty, larger than one burst, or crosses a
    /// row boundary (the DMA engine splits transfers so this cannot happen).
    pub fn enqueue(&mut self, access: Access, now: u64) -> AccessId {
        assert!(access.bytes > 0, "empty DRAM access");
        assert!(
            access.bytes <= self.cfg.burst_bytes,
            "access of {} bytes exceeds burst size {}",
            access.bytes,
            self.cfg.burst_bytes
        );
        assert_eq!(
            self.cfg.row_of(access.addr),
            self.cfg.row_of(access.addr + access.bytes - 1),
            "access crosses a row boundary"
        );
        let id = AccessId(self.next_id);
        self.push_run(access, access.bytes, 1, now, 0);
        id
    }

    /// Enqueues a byte range of any length arriving at DRAM cycle `now`,
    /// split into burst-aligned accesses exactly as if each had been passed
    /// to [`DramBank::enqueue`] in address order; returns how many. Every
    /// one of them reports `tag` from [`DramBank::advance_to_tagged`].
    ///
    /// # Panics
    ///
    /// Panics if the range spans a row boundary that is not burst-aligned.
    pub fn enqueue_run(&mut self, range: Access, now: u64, tag: u64) -> usize {
        let burst = self.cfg.burst_bytes;
        let mut piece = range;
        let mut left = range.bytes;
        let mut count = 0;
        while left > 0 {
            let row_end =
                u64::from(self.cfg.row_of(piece.addr) + 1) * u64::from(self.cfg.row_bytes);
            piece.bytes = u64::from(left).min(row_end - u64::from(piece.addr)) as u32;
            if piece.bytes < left {
                assert_eq!(row_end % u64::from(burst), 0, "access crosses a row boundary");
            }
            let head = (burst - piece.addr % burst).min(piece.bytes);
            let bursts = 1 + (piece.bytes - head).div_ceil(burst) as usize;
            self.push_run(piece, head, bursts, now, tag);
            count += bursts;
            left -= piece.bytes;
            piece.addr = piece.addr.wrapping_add(piece.bytes);
        }
        count
    }

    /// Queues one run of `bursts` accesses within a single row.
    fn push_run(&mut self, range: Access, head_bytes: u32, bursts: usize, arrival: u64, tag: u64) {
        self.queue.push(Run {
            head_bytes,
            bytes_left: range.bytes,
            row: self.cfg.row_of(range.addr),
            write: range.write,
            arrival,
            first_id: self.next_id,
            tag,
        });
        self.next_id += bursts as u64;
        self.queued_bursts += bursts;
    }

    /// Advances the bank to DRAM cycle `now`, starting every request that can
    /// start and pushing the ids of accesses whose data completed by `now`
    /// into `completed` (in completion order).
    ///
    /// Scheduling decisions are made at *decision time* — the moment the bank
    /// becomes free and at least one request has arrived — so only requests
    /// already queued at that moment participate in FR-FCFS arbitration,
    /// regardless of how far `now` jumps ahead.
    pub fn advance_to(&mut self, now: u64, completed: &mut Vec<AccessId>) {
        self.advance(now, |f| completed.push(f.id));
    }

    /// [`DramBank::advance_to`], reporting each completed access as
    /// `(tag, finish)`: the tag its [`DramBank::enqueue_run`] call carried
    /// (0 for [`DramBank::enqueue`]) and the DRAM cycle its data completed.
    /// The finish cycle is the bank's own — the same however late the call
    /// comes — so a caller that books accesses at it may advance as rarely
    /// as it likes.
    pub fn advance_to_tagged(&mut self, now: u64, completed: &mut Vec<(u64, u64)>) {
        self.advance(now, |f| completed.push((f.tag, f.finish)));
    }

    fn advance(&mut self, now: u64, mut retire: impl FnMut(InFlight)) {
        // A decision is never earlier than `next_start`, so a busy bank
        // skips the arbitration pass outright.
        while !self.queue.is_empty() && self.next_start <= now {
            let (decision, pick) = self.arbitrate();
            if decision > now {
                break;
            }
            let run = &mut self.queue[pick];
            let (bytes, id) = (run.head_bytes, AccessId(run.first_id));
            let (row, write, arrival, tag) = (run.row, run.write, run.arrival, run.tag);
            run.bytes_left -= bytes;
            run.head_bytes = run.bytes_left.min(self.cfg.burst_bytes);
            run.first_id += 1;
            if run.bytes_left == 0 {
                self.queue.remove(pick);
            }
            self.queued_bursts -= 1;
            let finish = self.service(row, bytes, write, arrival, decision);
            self.in_flight.push_back(InFlight { id, tag, finish });
        }
        while let Some(&front) = self.in_flight.front() {
            if front.finish > now {
                break;
            }
            self.in_flight.pop_front();
            retire(front);
        }
    }

    /// The next DRAM cycle at which calling [`DramBank::advance_to`] could
    /// make progress (a completion retires or a queued request can start),
    /// or `None` if the bank is idle. Exact at any time, including between
    /// an [`DramBank::enqueue`] and the next advance.
    #[must_use]
    pub fn next_event(&self) -> Option<u64> {
        let finish = self.in_flight.front().map(|f| f.finish);
        let oldest = self.queue.iter().map(|r| r.arrival).min();
        match (finish, oldest.map(|a| a.max(self.next_start))) {
            (Some(f), Some(d)) => Some(f.min(d)),
            (f, d) => f.or(d),
        }
    }

    /// One FR-FCFS decision over the (non-empty) queue of run heads, in a
    /// single pass. The decision time is the moment the bank is free and
    /// the oldest request has arrived; among the runs arrived by then the
    /// oldest row hit wins, unless the oldest overall has waited past the
    /// starvation cap. Equal arrivals resolve to the first in queue.
    /// Returns the decision time and the index of the chosen run.
    fn arbitrate(&self) -> (u64, usize) {
        let mut oldest = (u64::MAX, 0);
        let mut oldest_hit = (u64::MAX, 0);
        for (i, run) in self.queue.iter().enumerate() {
            if run.arrival < oldest.0 {
                oldest = (run.arrival, i);
            }
            if Some(run.row) == self.open_row && run.arrival < oldest_hit.0 {
                oldest_hit = (run.arrival, i);
            }
        }
        let decision = self.next_start.max(oldest.0);
        let starved = decision - oldest.0 > self.cfg.starvation_cap;
        // If the oldest hit has not arrived by `decision`, no hit has.
        let pick = if !starved && oldest_hit.0 <= decision { oldest_hit.1 } else { oldest.1 };
        (decision, pick)
    }

    /// Runs the bank state machine for one access of `bytes` in `row`
    /// starting at `start`; returns the cycle its data transfer completes.
    fn service(&mut self, row: u32, bytes: u32, write: bool, arrival: u64, start: u64) -> u64 {
        let cfg = self.cfg;
        let cas_at = match self.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                start
            }
            Some(open) => {
                self.stats.row_conflicts += 1;
                // Precharge may not issue before tRAS has elapsed since ACT.
                let pre_at = start.max(self.act_cycle + cfg.t_ras);
                let act_at = pre_at + cfg.t_rp;
                if self.record_events {
                    self.row_events.push(RowEvent {
                        at: pre_at,
                        row: open,
                        kind: RowEventKind::Precharge,
                    });
                    self.row_events.push(RowEvent {
                        at: act_at,
                        row,
                        kind: RowEventKind::Activate,
                    });
                }
                self.act_cycle = act_at;
                self.open_row = Some(row);
                act_at + cfg.t_rcd
            }
            None => {
                self.stats.row_opens += 1;
                if self.record_events {
                    self.row_events.push(RowEvent { at: start, row, kind: RowEventKind::Activate });
                }
                self.act_cycle = start;
                self.open_row = Some(row);
                start + cfg.t_rcd
            }
        };
        let finish = cas_at + cfg.t_cl + cfg.t_bl;
        self.next_start = cas_at + cfg.t_ccd;
        if write {
            self.stats.writes += 1;
            self.stats.bytes_written += u64::from(bytes);
        } else {
            self.stats.reads += 1;
            self.stats.bytes_read += u64::from(bytes);
        }
        self.stats.total_latency += finish - arrival;
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(bank: &mut DramBank, now: u64) -> Vec<AccessId> {
        let mut out = Vec::new();
        bank.advance_to(now, &mut out);
        out
    }

    #[test]
    fn cold_access_takes_rcd_cl_bl() {
        let cfg = DramConfig::ddr4_2400();
        let mut bank = DramBank::new(cfg);
        let id = bank.enqueue(Access::read(0, 64), 0);
        let expect = cfg.t_rcd + cfg.t_cl + cfg.t_bl; // 36
        assert!(drain(&mut bank, expect - 1).is_empty());
        assert_eq!(drain(&mut bank, expect), vec![id]);
        assert_eq!(bank.stats().row_opens, 1);
        assert_eq!(bank.stats().bytes_read, 64);
    }

    #[test]
    fn row_hit_streams_at_ccd() {
        let cfg = DramConfig::ddr4_2400();
        let mut bank = DramBank::new(cfg);
        // 8 bursts in the same row, all arriving at 0.
        let ids: Vec<_> = (0..8).map(|i| bank.enqueue(Access::read(i * 64, 64), 0)).collect();
        let done = drain(&mut bank, 10_000);
        assert_eq!(done, ids);
        assert_eq!(bank.stats().row_opens, 1);
        assert_eq!(bank.stats().row_hits, 7);
        // Completion of last burst: tRCD + 7*tCCD + tCL + tBL.
        let last_finish = cfg.t_rcd + 7 * cfg.t_ccd + cfg.t_cl + cfg.t_bl;
        assert!(drain(&mut DramBank::new(cfg), 0).is_empty());
        let mut bank2 = DramBank::new(cfg);
        let ids2: Vec<_> = (0..8).map(|i| bank2.enqueue(Access::read(i * 64, 64), 0)).collect();
        assert!(drain(&mut bank2, last_finish - 1).len() < ids2.len());
        assert_eq!(drain(&mut bank2, last_finish).len(), 1);
    }

    #[test]
    fn row_conflict_pays_ras_rp_rcd() {
        let cfg = DramConfig::ddr4_2400();
        let mut bank = DramBank::new(cfg);
        let a = bank.enqueue(Access::read(0, 64), 0);
        // Different row.
        let b = bank.enqueue(Access::read(4096, 64), 0);
        let done = drain(&mut bank, 100_000);
        assert_eq!(done, vec![a, b]);
        assert_eq!(bank.stats().row_conflicts, 1);
        // b: precharge waits for tRAS after the first ACT (cycle 0), then
        // tRP + tRCD + tCL + tBL.
        let expect_b = cfg.t_ras + cfg.t_rp + cfg.t_rcd + cfg.t_cl + cfg.t_bl;
        let mut bank2 = DramBank::new(cfg);
        bank2.enqueue(Access::read(0, 64), 0);
        let b2 = bank2.enqueue(Access::read(4096, 64), 0);
        assert!(!drain(&mut bank2, expect_b - 1).contains(&b2));
        assert!(drain(&mut bank2, expect_b).contains(&b2));
    }

    #[test]
    fn frfcfs_prioritizes_row_hits() {
        let cfg = DramConfig::ddr4_2400();
        let mut bank = DramBank::new(cfg);
        // Open row 0.
        let first = bank.enqueue(Access::read(0, 64), 0);
        let mut done = Vec::new();
        bank.advance_to(cfg.t_rcd + cfg.t_cl + cfg.t_bl, &mut done);
        assert_eq!(done, vec![first]);
        // A row-miss and a row-hit request are both queued when the bank
        // next arbitrates (same arrival cycle, miss enqueued first): FR-FCFS
        // must serve the row hit first.
        let miss = bank.enqueue(Access::read(4096, 64), 40);
        let hit = bank.enqueue(Access::read(64, 64), 40);
        let order = drain(&mut bank, 100_000);
        assert_eq!(order, vec![hit, miss], "row hit must be served first");
    }

    #[test]
    fn starvation_cap_eventually_serves_misses() {
        let mut cfg = DramConfig::ddr4_2400();
        cfg.starvation_cap = 50;
        let mut bank = DramBank::new(cfg);
        bank.enqueue(Access::read(0, 64), 0);
        let mut done = Vec::new();
        bank.advance_to(36, &mut done);
        let miss = bank.enqueue(Access::read(4096, 64), 36);
        // A steady stream of row hits arrives; without the cap the miss
        // would starve.
        let mut t = 37;
        let mut served_miss_at = None;
        for i in 0..1000u32 {
            bank.enqueue(Access::read(64 + (i % 8) * 64, 64), t);
            let mut out = Vec::new();
            t += 4;
            bank.advance_to(t, &mut out);
            if out.contains(&miss) {
                served_miss_at = Some(t);
                break;
            }
        }
        assert!(served_miss_at.is_some(), "row-miss request starved despite starvation cap");
    }

    #[test]
    fn writes_counted_separately() {
        let mut bank = DramBank::new(DramConfig::ddr4_2400());
        bank.enqueue(Access::write(128, 32), 0);
        drain(&mut bank, 10_000);
        assert_eq!(bank.stats().writes, 1);
        assert_eq!(bank.stats().bytes_written, 32);
        assert_eq!(bank.stats().bytes_read, 0);
    }

    #[test]
    fn next_event_reports_completion_time() {
        let cfg = DramConfig::ddr4_2400();
        let mut bank = DramBank::new(cfg);
        bank.enqueue(Access::read(0, 64), 0);
        let mut out = Vec::new();
        bank.advance_to(0, &mut out);
        assert!(out.is_empty());
        assert_eq!(bank.next_event(), Some(cfg.t_rcd + cfg.t_cl + cfg.t_bl));
        bank.advance_to(cfg.t_rcd + cfg.t_cl + cfg.t_bl, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(bank.next_event(), None);
        assert!(bank.is_idle());
    }

    #[test]
    fn enqueue_while_a_burst_is_in_flight_reports_the_earlier_start() {
        let cfg = DramConfig::ddr4_2400();
        let mut bank = DramBank::new(cfg);
        bank.enqueue(Access::read(0, 64), 0);
        let mut out = Vec::new();
        bank.advance_to(0, &mut out);
        let finish = cfg.t_rcd + cfg.t_cl + cfg.t_bl;
        assert_eq!(bank.next_event(), Some(finish));
        // A second access can start at tRCD + tCCD, long before the first
        // one's data is back; the hint must name that cycle with no
        // advance in between.
        bank.enqueue(Access::read(64, 64), 1);
        assert_eq!(bank.next_event(), Some(cfg.t_rcd + cfg.t_ccd));
        // A later arrival moves the start, never past the in-flight finish.
        let mut late = DramBank::new(cfg);
        late.enqueue(Access::read(0, 64), 0);
        late.advance_to(0, &mut out);
        late.enqueue(Access::read(64, 64), 25);
        assert_eq!(late.next_event(), Some(25));
        late.enqueue(Access::read(128, 64), 500);
        assert_eq!(late.next_event(), Some(25));
    }

    #[test]
    fn run_splits_like_per_burst_enqueues() {
        let cfg = DramConfig::ddr4_2400();
        // 2000 bytes from byte 1000: a 24-byte head up to the row boundary,
        // one full row, and a 952-byte tail (14 bursts + 56 bytes).
        let mut runs = DramBank::new(cfg);
        assert_eq!(runs.enqueue_run(Access::write(1000, 2000), 7, 5), 1 + 16 + 15);
        assert_eq!(runs.queue_len(), 32);
        let mut bursts = DramBank::new(cfg);
        let (mut addr, mut left) = (1000u32, 2000u32);
        while left > 0 {
            let chunk = (cfg.burst_bytes - addr % cfg.burst_bytes).min(left);
            bursts.enqueue(Access::write(addr, chunk), 7);
            addr += chunk;
            left -= chunk;
        }
        let mut retired = Vec::new();
        runs.advance_to_tagged(1_000_000, &mut retired);
        assert_eq!(retired.iter().map(|r| r.0).collect::<Vec<_>>(), vec![5; 32]);
        assert!(retired.windows(2).all(|w| w[0].1 < w[1].1), "finish cycles ascend: {retired:?}");
        drain(&mut bursts, 1_000_000);
        assert_eq!(runs.stats(), bursts.stats());
        assert!(runs.is_idle() && runs.queue_len() == 0);
    }

    #[test]
    fn requests_arriving_later_wait_for_arrival() {
        let cfg = DramConfig::ddr4_2400();
        let mut bank = DramBank::new(cfg);
        let id = bank.enqueue(Access::read(0, 64), 100);
        assert!(drain(&mut bank, 99).is_empty());
        assert!(drain(&mut bank, 135).is_empty());
        assert_eq!(drain(&mut bank, 136), vec![id]);
    }

    #[test]
    #[should_panic(expected = "crosses a row boundary")]
    fn cross_row_access_panics() {
        let mut bank = DramBank::new(DramConfig::ddr4_2400());
        bank.enqueue(Access::read(1000, 64), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds burst size")]
    fn oversized_access_panics() {
        let mut bank = DramBank::new(DramConfig::ddr4_2400());
        bank.enqueue(Access::read(0, 128), 0);
    }
}
