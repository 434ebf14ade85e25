//! Spans recorded by the benchmark around its own calls into each crate.
//!
//! A span is (name, start, end, parent, case). The layer of a span is the
//! part of its name before the first `.` — a crate of the repository, or
//! `bench` for the harness's own work. Spans are kept in memory and
//! written out when the run ends; with tracing off `enter`/`exit` cost one
//! branch each and record nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use pimulator::report::Json;

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Index into [`Tracer::cases`]: the spans of one case share it.
    pub case: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Token returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    pub cases: Vec<String>,
    case: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cases: vec!["-".to_string()],
            case: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Names the case the following spans belong to.
    pub fn set_case(&mut self, name: &str) {
        if !self.on {
            return;
        }
        self.case = match self.cases.iter().position(|c| c == name) {
            Some(i) => i as u32,
            None => {
                self.cases.push(name.to_string());
                (self.cases.len() - 1) as u32
            }
        };
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, case: self.case });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let now = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = now;
    }

    /// Times one call that opens no span of its own.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children never overlap (one thread records them), so the part
/// covered is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Totals of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own_ns;
    }
    out
}

/// The layer of a span name: `host.push` → `host`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, largest first.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(String, u64)> {
    let mut by: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in totals_by_name(spans) {
        *by.entry(layer_of(name)).or_default() += t.self_ns;
    }
    let mut v: Vec<(String, u64)> = by.into_iter().map(|(k, ns)| (k.to_string(), ns)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// The span file: every span, the case table, and the per-name and
/// per-layer roll-ups a reader would otherwise recompute.
pub fn trace_json(workload: &str, seed: u64, tracer: &Tracer) -> Json {
    let spans = tracer.spans.iter().map(|s| {
        Json::obj([
            ("name", Json::from(s.name)),
            ("start_ns", Json::UInt(s.start_ns)),
            ("end_ns", Json::UInt(s.end_ns)),
            (
                "parent",
                if s.parent == NO_PARENT { Json::Null } else { Json::UInt(s.parent.into()) },
            ),
            ("case", Json::UInt(s.case.into())),
        ])
    });
    let by_name = totals_by_name(&tracer.spans).into_iter().map(|(name, t)| {
        (
            name,
            Json::obj([
                ("calls", Json::UInt(t.calls)),
                ("total_ns", Json::UInt(t.total_ns)),
                ("self_ns", Json::UInt(t.self_ns)),
            ]),
        )
    });
    let by_layer =
        self_time_by_layer(&tracer.spans).into_iter().map(|(layer, ns)| (layer, Json::UInt(ns)));
    Json::obj([
        ("workload", Json::from(workload)),
        ("seed", Json::UInt(seed)),
        ("cases", Json::arr(tracer.cases.iter().map(|c| Json::from(c.as_str())))),
        ("self_ns_by_layer", Json::obj(by_layer)),
        ("by_name", Json::obj(by_name)),
        ("spans", Json::arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, case: 0 }
    }

    #[test]
    fn self_time_subtracts_children_nested_and_sibling() {
        // case [0,100) holds host.new [10,30) and host.launch [30,90);
        // host.launch holds dpu.x [40,50).
        let spans = vec![
            span("bench.case", 0, 100, NO_PARENT),
            span("host.new", 10, 30, 0),
            span("host.launch", 30, 90, 0),
            span("dpu.x", 40, 50, 2),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let by = totals_by_name(&spans);
        assert_eq!(by["host.launch"], NameTotals { calls: 1, total_ns: 60, self_ns: 50 });
        let layers = self_time_by_layer(&spans);
        assert_eq!(layers[0], ("host".to_string(), 70));
        assert_eq!(layers.iter().map(|l| l.1).sum::<u64>(), 100, "self times partition the root");
    }

    #[test]
    fn tracer_off_records_nothing_and_on_nests() {
        let mut t = Tracer::new();
        let o = t.enter("bench.case");
        t.exit(o);
        assert!(t.spans.is_empty());
        t.on = true;
        t.set_case("A");
        let outer = t.enter("bench.case");
        let got = t.time("host.new", || 7);
        t.exit(outer);
        assert_eq!(got, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!(t.cases[t.spans[1].case as usize], "A");
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    fn layer_is_the_name_prefix() {
        assert_eq!(layer_of("host.launch_all"), "host");
        assert_eq!(layer_of("bench"), "bench");
    }
}
