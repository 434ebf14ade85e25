//! Chrome trace-event export for structured simulation traces.
//!
//! Converts the [`pim_trace::SystemTrace`]s harvested from a batch of
//! [`crate::jobs::SimJob`]s into the Chrome trace-event JSON format, which
//! loads directly into `chrome://tracing` and Perfetto. Each job becomes a
//! process (`pid`); within a job, the host transfer channel, every DPU
//! tasklet, and each DPU's stall and DRAM-row activity get their own
//! thread track (`tid`).
//!
//! Timestamps (`ts`) are microseconds: DPU events convert core cycles at
//! the configured frequency, host events are already in nanoseconds.
//!
//! Because the per-DPU ring sink drops its *oldest* events when full, a
//! drained trace may contain `E` (end) events whose `B` (begin) was
//! evicted, or `B` events whose `E` falls outside the ring. The exporter
//! repairs both: orphan ends are skipped and unclosed begins are closed at
//! the track's final timestamp, so the output always has balanced `B`/`E`
//! pairs per track.

use std::collections::BTreeMap;

use pim_trace::{SystemTrace, TraceEvent};

use crate::report::Json;

/// One job's trace, labelled for display.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Track-group label (usually [`crate::jobs::SimJob::label`]).
    pub label: String,
    /// The harvested trace.
    pub trace: SystemTrace,
}

/// Thread-id stride reserved per DPU: 36 tasklet tracks (more than the
/// 24-tasklet architectural maximum, and enough for SIMT warp indices),
/// plus the stall and DRAM tracks.
const TRACKS_PER_DPU: u64 = 40;
/// Host transfer track within a job.
const HOST_TRACK: u64 = 0;
/// Offset of the stall track within a DPU's track group.
const STALL_TRACK: u64 = 36;
/// Offset of the DRAM-row track within a DPU's track group.
const DRAM_TRACK: u64 = 37;

/// A trace event before serialization, on one `(pid, tid)` track.
struct Ev {
    ts: f64,
    ph: char,
    name: &'static str,
    /// Duration in µs, for `X` (complete) events.
    dur: Option<f64>,
    args: Vec<(&'static str, Json)>,
}

fn tasklet_tid(dpu: usize, tasklet: u32) -> u64 {
    1 + dpu as u64 * TRACKS_PER_DPU + u64::from(tasklet).min(STALL_TRACK - 1)
}

/// Converts one event into `(tid, Ev)` within a job, or `None` for events
/// this exporter does not visualize.
#[allow(clippy::too_many_lines)]
fn convert(dpu: usize, per_us: f64, event: &TraceEvent) -> Option<(u64, Ev)> {
    let us = |cycle: u64| cycle as f64 / per_us;
    Some(match *event {
        TraceEvent::InstrRetire { cycle, tasklet, pc, class } => (
            tasklet_tid(dpu, tasklet),
            Ev {
                ts: us(cycle),
                ph: 'X',
                name: class.label(),
                dur: Some(1.0 / per_us),
                args: vec![("pc", Json::from(pc))],
            },
        ),
        TraceEvent::Stall { cycle, cycles, cause } => (
            1 + dpu as u64 * TRACKS_PER_DPU + STALL_TRACK,
            Ev {
                ts: us(cycle),
                ph: 'X',
                name: cause.label(),
                dur: Some(cycles as f64 / per_us),
                args: Vec::new(),
            },
        ),
        TraceEvent::DmaBegin { cycle, tasklet, mram, bytes, write } => (
            tasklet_tid(dpu, tasklet),
            Ev {
                ts: us(cycle),
                ph: 'B',
                name: "dma",
                dur: None,
                args: vec![
                    ("mram", Json::from(mram)),
                    ("bytes", Json::from(bytes)),
                    ("write", Json::from(write)),
                ],
            },
        ),
        TraceEvent::DmaEnd { cycle, tasklet } => (
            tasklet_tid(dpu, tasklet),
            Ev { ts: us(cycle), ph: 'E', name: "dma", dur: None, args: Vec::new() },
        ),
        TraceEvent::BarrierAcquire { cycle, tasklet, bit, acquired } => (
            tasklet_tid(dpu, tasklet),
            Ev {
                ts: us(cycle),
                ph: 'i',
                name: if acquired { "acquire" } else { "acquire-retry" },
                dur: None,
                args: vec![("bit", Json::from(bit))],
            },
        ),
        TraceEvent::BarrierRelease { cycle, tasklet, bit } => (
            tasklet_tid(dpu, tasklet),
            Ev {
                ts: us(cycle),
                ph: 'i',
                name: "release",
                dur: None,
                args: vec![("bit", Json::from(bit))],
            },
        ),
        TraceEvent::RowActivate { cycle, row } => (
            1 + dpu as u64 * TRACKS_PER_DPU + DRAM_TRACK,
            Ev {
                ts: us(cycle),
                ph: 'i',
                name: "activate",
                dur: None,
                args: vec![("row", Json::from(row))],
            },
        ),
        TraceEvent::RowPrecharge { cycle, row } => (
            1 + dpu as u64 * TRACKS_PER_DPU + DRAM_TRACK,
            Ev {
                ts: us(cycle),
                ph: 'i',
                name: "precharge",
                dur: None,
                args: vec![("row", Json::from(row))],
            },
        ),
        TraceEvent::HostPush { at_ns, ns, bytes } => (
            HOST_TRACK,
            Ev {
                ts: at_ns / 1000.0,
                ph: 'X',
                name: "host-push",
                dur: Some(ns / 1000.0),
                args: vec![("bytes", Json::from(bytes))],
            },
        ),
        TraceEvent::HostPull { at_ns, ns, bytes } => (
            HOST_TRACK,
            Ev {
                ts: at_ns / 1000.0,
                ph: 'X',
                name: "host-pull",
                dur: Some(ns / 1000.0),
                args: vec![("bytes", Json::from(bytes))],
            },
        ),
    })
}

fn metadata(pid: u64, tid: u64, kind: &str, name: &str) -> Json {
    Json::obj([
        ("name", Json::from(kind)),
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
        ("args", Json::obj([("name", Json::from(name))])),
    ])
}

fn serialize(pid: u64, tid: u64, ev: &Ev) -> Json {
    let mut pairs = vec![
        ("name", Json::from(ev.name)),
        ("ph", Json::from(ev.ph.to_string())),
        ("ts", Json::from(ev.ts)),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
    ];
    if let Some(dur) = ev.dur {
        pairs.push(("dur", Json::from(dur)));
    }
    if !ev.args.is_empty() {
        pairs.push(("args", Json::obj(ev.args.clone())));
    }
    Json::obj(pairs)
}

/// Renders a batch of job traces as one Chrome trace-event document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
///
/// Events within each `(pid, tid)` track are sorted by timestamp (stable,
/// so same-cycle events keep emission order) and `B`/`E` pairs are
/// balanced even when the ring sink dropped events.
#[must_use]
pub fn chrome_trace(jobs: &[JobTrace]) -> Json {
    let mut out: Vec<Json> = Vec::new();
    for (pid, job) in jobs.iter().enumerate() {
        let pid = pid as u64;
        let trace = &job.trace;
        let per_us = f64::from(trace.freq_mhz.max(1));
        let mut tracks: BTreeMap<u64, Vec<Ev>> = BTreeMap::new();
        for event in &trace.host {
            if let Some((tid, ev)) = convert(0, per_us, event) {
                tracks.entry(tid).or_default().push(ev);
            }
        }
        for (d, dpu_trace) in trace.per_dpu.iter().enumerate() {
            for event in &dpu_trace.events {
                if let Some((tid, ev)) = convert(d, per_us, event) {
                    tracks.entry(tid).or_default().push(ev);
                }
            }
        }
        out.push(metadata(pid, HOST_TRACK, "process_name", &job.label));
        for (&tid, events) in &mut tracks {
            let name = track_name(tid);
            out.push(metadata(pid, tid, "thread_name", &name));
            events.sort_by(|a, b| a.ts.total_cmp(&b.ts));
            // Balance B/E: skip ends whose begin was evicted from the ring,
            // then close begins whose end was never recorded.
            let mut open = 0u64;
            let mut last_ts = 0.0f64;
            for ev in events.iter() {
                last_ts = last_ts.max(ev.ts);
                match ev.ph {
                    'B' => {
                        open += 1;
                        out.push(serialize(pid, tid, ev));
                    }
                    'E' if open == 0 => {} // orphan end: begin was dropped
                    'E' => {
                        open -= 1;
                        out.push(serialize(pid, tid, ev));
                    }
                    _ => out.push(serialize(pid, tid, ev)),
                }
            }
            for _ in 0..open {
                let close = Ev { ts: last_ts, ph: 'E', name: "dma", dur: None, args: Vec::new() };
                out.push(serialize(pid, tid, &close));
            }
        }
    }
    Json::obj([("traceEvents", Json::Arr(out)), ("displayTimeUnit", Json::from("ms"))])
}

fn track_name(tid: u64) -> String {
    if tid == HOST_TRACK {
        return "host".to_string();
    }
    let dpu = (tid - 1) / TRACKS_PER_DPU;
    match (tid - 1) % TRACKS_PER_DPU {
        STALL_TRACK => format!("dpu{dpu}/stalls"),
        DRAM_TRACK => format!("dpu{dpu}/dram-row"),
        t => format!("dpu{dpu}/tasklet{t}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Node;
    use pim_trace::{DpuTrace, StallCause};

    fn sample() -> JobTrace {
        let events = vec![
            TraceEvent::DmaEnd { cycle: 2, tasklet: 0 }, // orphan: begin evicted
            TraceEvent::InstrRetire {
                cycle: 5,
                tasklet: 0,
                pc: 3,
                class: pim_isa::InstrClass::Arithmetic,
            },
            TraceEvent::Stall { cycle: 6, cycles: 4, cause: StallCause::Memory },
            TraceEvent::DmaBegin { cycle: 8, tasklet: 0, mram: 64, bytes: 256, write: false },
            // No DmaEnd: must be closed at the track's final timestamp.
        ];
        JobTrace {
            label: "VA@4".to_string(),
            trace: SystemTrace {
                freq_mhz: 350,
                host: vec![TraceEvent::HostPush { at_ns: 0.0, ns: 100.0, bytes: 4096 }],
                per_dpu: vec![DpuTrace { events, dropped: 1 }],
            },
        }
    }

    fn events(doc: &Json) -> Vec<Node<'_>> {
        Node::root("trace", doc).field("traceEvents").and_then(|events| events.list(Ok)).unwrap()
    }

    fn track(ev: Node<'_>) -> Result<(u64, u64), String> {
        Ok((ev.field("pid")?.int()?, ev.field("tid")?.int()?))
    }

    #[test]
    fn document_shape_and_metadata() -> Result<(), String> {
        let doc = chrome_trace(&[sample()]);
        let evs = events(&doc);
        assert!(evs.len() >= 5);
        assert_eq!(evs[0].field("ph")?.str()?, "M");
        let mut names = Vec::new();
        for ev in evs {
            if ev.field("ph")?.str()? == "M" {
                names.push(ev.field("args")?.field("name")?.str()?);
            }
        }
        for name in ["VA@4", "host", "dpu0/tasklet0", "dpu0/stalls"] {
            assert!(names.contains(&name), "no track named {name}");
        }
        Ok(())
    }

    #[test]
    fn begins_and_ends_balance_per_track() -> Result<(), String> {
        let doc = chrome_trace(&[sample()]);
        let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
        for ev in events(&doc) {
            let key = track(ev)?;
            match ev.field("ph")?.str()? {
                "B" => *depth.entry(key).or_default() += 1,
                "E" => {
                    let d = depth.entry(key).or_default();
                    *d -= 1;
                    assert!(*d >= 0, "E without matching B on {key:?}");
                }
                _ => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced tracks: {depth:?}");
        Ok(())
    }

    #[test]
    fn timestamps_monotonic_per_track() -> Result<(), String> {
        let doc = chrome_trace(&[sample()]);
        let mut last: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        for ev in events(&doc) {
            if ev.field("ph")?.str()? == "M" {
                continue;
            }
            let ts = ev.field("ts")?.number()?;
            if let Some(prev) = last.insert(track(ev)?, ts) {
                assert!(ts >= prev, "ts regressed on {:?}: {prev} -> {ts}", track(ev)?);
            }
        }
        Ok(())
    }
}
