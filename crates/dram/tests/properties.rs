//! Randomized property tests (seeded, dependency-free) for the DRAM bank
//! model.

use std::collections::VecDeque;

use pim_dram::{Access, AccessId, DramBank, DramConfig, DramStats, RowEvent, RowEventKind};
use pim_rng::StdRng;

/// Every enqueued access eventually completes, exactly once.
#[test]
fn conservation() {
    let mut rng = StdRng::seed_from_u64(0xD4A0_0001);
    for _case in 0..64 {
        let n = rng.gen_range(1usize..64);
        let mut reqs: Vec<(u32, u32, bool, u64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0u32..1 << 20),
                    rng.gen_range(1u32..65),
                    rng.gen_bool(),
                    rng.gen_range(0u64..5000),
                )
            })
            .collect();
        let cfg = DramConfig::ddr4_2400();
        let mut bank = DramBank::new(cfg);
        let mut ids = Vec::new();
        reqs.sort_by_key(|r| r.3);
        let mut done = Vec::new();
        for (addr, bytes, write, arrival) in reqs {
            // Clamp to one row.
            let addr = addr & !63;
            bank.advance_to(arrival, &mut done);
            let access = if write { Access::write(addr, bytes) } else { Access::read(addr, bytes) };
            ids.push(bank.enqueue(access, arrival));
        }
        // Drive to quiescence using next_event hints.
        let mut now = 5000;
        let mut guard = 0;
        while !bank.is_idle() {
            bank.advance_to(now, &mut done);
            if let Some(next) = bank.next_event() {
                now = now.max(next);
            }
            guard += 1;
            assert!(guard < 100_000, "bank failed to quiesce");
        }
        let mut sorted = done.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "every access completes exactly once");
    }
}

/// Statistics are conserved: reads + writes equals enqueued accesses and
/// byte counters match.
#[test]
fn stats_conservation() {
    let mut rng = StdRng::seed_from_u64(0xD4A0_0002);
    for _case in 0..64 {
        let n = rng.gen_range(1usize..40);
        let reqs: Vec<(u32, bool)> =
            (0..n).map(|_| (rng.gen_range(0u32..1 << 16), rng.gen_bool())).collect();
        let mut bank = DramBank::new(DramConfig::ddr4_2400());
        let mut done = Vec::new();
        let (mut rbytes, mut wbytes) = (0u64, 0u64);
        for (addr, write) in &reqs {
            let addr = addr & !63;
            let access = if *write {
                wbytes += 64;
                Access::write(addr, 64)
            } else {
                rbytes += 64;
                Access::read(addr, 64)
            };
            bank.enqueue(access, 0);
        }
        bank.advance_to(u64::MAX / 2, &mut done);
        assert!(bank.is_idle());
        assert_eq!(bank.stats().accesses(), reqs.len() as u64);
        assert_eq!(bank.stats().bytes_read, rbytes);
        assert_eq!(bank.stats().bytes_written, wbytes);
        assert_eq!(
            bank.stats().row_hits + bank.stats().row_opens + bank.stats().row_conflicts,
            reqs.len() as u64
        );
    }
}

/// Advancing in many small steps yields the same completion order as one
/// big step (the model is advance-granularity independent).
#[test]
fn advance_granularity_independent() {
    let mut rng = StdRng::seed_from_u64(0xD4A0_0003);
    for _case in 0..64 {
        let n = rng.gen_range(1usize..32);
        let addrs: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..1 << 18)).collect();
        let step = rng.gen_range(1u64..97);
        let cfg = DramConfig::ddr4_2400();
        let horizon = 200_000u64;

        let mut big = DramBank::new(cfg);
        let mut big_done = Vec::new();
        for a in &addrs {
            big.enqueue(Access::read(a & !63, 64), 0);
        }
        big.advance_to(horizon, &mut big_done);

        let mut small = DramBank::new(cfg);
        let mut small_done = Vec::new();
        for a in &addrs {
            small.enqueue(Access::read(a & !63, 64), 0);
        }
        let mut t = 0;
        while t < horizon {
            t += step;
            small.advance_to(t.min(horizon), &mut small_done);
        }
        assert_eq!(big_done, small_done);
    }
}

/// The per-burst bank this crate shipped before the run queue: a queue of
/// individual bursts, three linear passes per decision, `in_flight` sorted
/// on every advance. Kept verbatim as the oracle for [`run_queue_matches_the_per_burst_bank`].
struct RefBank {
    cfg: DramConfig,
    queue: VecDeque<(AccessId, Access, u64)>,
    in_flight: Vec<(AccessId, u64)>,
    open_row: Option<u32>,
    next_start: u64,
    act_cycle: u64,
    next_id: u64,
    stats: DramStats,
    row_events: Vec<RowEvent>,
}

impl RefBank {
    fn new(cfg: DramConfig) -> Self {
        RefBank {
            cfg,
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            open_row: None,
            next_start: 0,
            act_cycle: 0,
            next_id: 0,
            stats: DramStats::default(),
            row_events: Vec::new(),
        }
    }

    fn enqueue(&mut self, access: Access, now: u64) -> AccessId {
        let id = AccessId(self.next_id);
        self.next_id += 1;
        self.queue.push_back((id, access, now));
        id
    }

    fn advance_to(&mut self, now: u64, completed: &mut Vec<AccessId>) {
        while !self.queue.is_empty() {
            let min_arrival = self.queue.iter().map(|q| q.2).min().expect("queue non-empty");
            let decision = self.next_start.max(min_arrival);
            if decision > now {
                break;
            }
            let pick = self.pick_at(decision).expect("an arrived request exists");
            let (id, access, arrival) = self.queue.remove(pick).expect("picked index valid");
            let finish = self.service(access, arrival, decision);
            self.in_flight.push((id, finish));
        }
        self.in_flight.sort_by_key(|f| f.1);
        let done = self.in_flight.partition_point(|f| f.1 <= now);
        completed.extend(self.in_flight.drain(..done).map(|f| f.0));
    }

    fn pick_at(&self, decision: u64) -> Option<usize> {
        let arrived = |q: &(AccessId, Access, u64)| q.2 <= decision;
        let oldest =
            self.queue.iter().enumerate().filter(|(_, q)| arrived(q)).min_by_key(|(_, q)| q.2)?;
        if decision.saturating_sub(oldest.1 .2) > self.cfg.starvation_cap {
            return Some(oldest.0);
        }
        if let Some(open) = self.open_row {
            let hit = self
                .queue
                .iter()
                .enumerate()
                .filter(|(_, q)| arrived(q) && self.cfg.row_of(q.1.addr) == open)
                .min_by_key(|(_, q)| q.2);
            if let Some((i, _)) = hit {
                return Some(i);
            }
        }
        Some(oldest.0)
    }

    fn service(&mut self, access: Access, arrival: u64, start: u64) -> u64 {
        let cfg = self.cfg;
        let row = cfg.row_of(access.addr);
        let cas_at = match self.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                start
            }
            Some(open) => {
                self.stats.row_conflicts += 1;
                let pre_at = start.max(self.act_cycle + cfg.t_ras);
                let act_at = pre_at + cfg.t_rp;
                self.row_events.push(RowEvent {
                    at: pre_at,
                    row: open,
                    kind: RowEventKind::Precharge,
                });
                self.row_events.push(RowEvent { at: act_at, row, kind: RowEventKind::Activate });
                self.act_cycle = act_at;
                self.open_row = Some(row);
                act_at + cfg.t_rcd
            }
            None => {
                self.stats.row_opens += 1;
                self.row_events.push(RowEvent { at: start, row, kind: RowEventKind::Activate });
                self.act_cycle = start;
                self.open_row = Some(row);
                start + cfg.t_rcd
            }
        };
        let finish = cas_at + cfg.t_cl + cfg.t_bl;
        self.next_start = cas_at + cfg.t_ccd;
        if access.write {
            self.stats.writes += 1;
            self.stats.bytes_written += u64::from(access.bytes);
        } else {
            self.stats.reads += 1;
            self.stats.bytes_read += u64::from(access.bytes);
        }
        self.stats.total_latency += finish - arrival;
        finish
    }
}

/// The run queue decides exactly what the per-burst queue decided: the same
/// accesses complete at the same observed cycles in the same order, with
/// the same statistics and row commands. Streams mix multi-row runs with
/// unaligned heads and tails, single accesses, reads and writes, arrivals
/// that go backwards (a later request can arrive earlier: the MMU adds TLB
/// cycles to some requests and not others), and a lowered starvation cap;
/// the banks are advanced at random strides, stride 1 included, so observed
/// cycles pin the finish times themselves.
#[test]
fn run_queue_matches_the_per_burst_bank() {
    let mut rng = StdRng::seed_from_u64(0xD4A0_0004);
    for case in 0..300 {
        let mut cfg = DramConfig::ddr4_2400();
        if case % 3 == 1 {
            cfg.starvation_cap = rng.gen_range(0u64..200);
        }
        let mut bank = DramBank::new(cfg);
        bank.set_event_recording(true);
        let mut oracle = RefBank::new(cfg);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let (mut got_buf, mut want_buf) = (Vec::new(), Vec::new());
        let mut row_events = Vec::new();
        let max_stride = *rng.choose(&[1u64, 7, 90, 2000]);
        let hot_rows = rng.gen_range(1u32..6);
        let mut now = 0u64;
        let mut to_issue = rng.gen_range(1usize..40);
        while to_issue > 0 || !bank.is_idle() {
            if to_issue > 0 && rng.gen_ratio(1, 3) {
                to_issue -= 1;
                // Non-monotone: anywhere from now to 300 cycles ahead.
                let arrival = now + rng.gen_range(0u64..300);
                let row = rng.gen_range(0..hot_rows) * 7;
                let addr = row * cfg.row_bytes + rng.gen_range(0..cfg.row_bytes);
                let write = rng.gen_bool();
                if rng.gen_ratio(1, 4) {
                    // One access, possibly straddling a burst boundary.
                    let room = cfg.row_bytes - addr % cfg.row_bytes;
                    let bytes = rng.gen_range(1..cfg.burst_bytes + 1).min(room);
                    let access = Access { addr, bytes, write };
                    assert_eq!(bank.enqueue(access, arrival), oracle.enqueue(access, arrival));
                } else {
                    let bytes = rng.gen_range(1u32..2500);
                    let first = AccessId(oracle.next_id);
                    let (mut a, mut left) = (addr, bytes);
                    while left > 0 {
                        let chunk = (cfg.burst_bytes - a % cfg.burst_bytes).min(left);
                        oracle.enqueue(Access { addr: a, bytes: chunk, write }, arrival);
                        a += chunk;
                        left -= chunk;
                    }
                    let n = bank.enqueue_run(Access { addr, bytes, write }, arrival, 9);
                    assert_eq!(first.0 + n as u64, oracle.next_id, "case {case}: burst count");
                }
                assert_eq!(bank.queue_len(), oracle.queue.len());
            }
            now += rng.gen_range(0..max_stride) + 1;
            bank.advance_to(now, &mut got_buf);
            oracle.advance_to(now, &mut want_buf);
            got.extend(got_buf.drain(..).map(|id| (id, now)));
            want.extend(want_buf.drain(..).map(|id| (id, now)));
            row_events.extend(bank.drain_row_events());
            assert!(now < 10_000_000, "case {case}: bank failed to quiesce");
        }
        assert_eq!(got, want, "case {case}: completion sequence");
        assert_eq!(*bank.stats(), oracle.stats, "case {case}: stats");
        assert_eq!(row_events, oracle.row_events, "case {case}: row commands");
        assert!(oracle.queue.is_empty() && oracle.in_flight.is_empty());
    }
}
