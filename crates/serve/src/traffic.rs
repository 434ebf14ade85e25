//! Seeded open-loop traffic generation.
//!
//! Arrivals follow a Poisson-ish process on the *simulated* clock: the
//! inter-arrival gap is an exponential variate drawn with a dyadic
//! approximation — `gap = mean · ln2 · (G + U)` where `G` is geometric
//! (trailing zeros of a raw 64-bit draw) and `U` is a uniform fraction.
//! This avoids `f64::ln`, whose libm implementation is not guaranteed
//! bit-identical across platforms; the goldens require byte-identical
//! results JSON everywhere, and multiplication/addition are exact IEEE
//! operations. The approximation's mean is within ~4% of a true
//! exponential, which is irrelevant for a load knob.

use pim_rng::{Below, StdRng};

use crate::kernels::class_index;
use crate::queue::Request;
use crate::scenario::Scenario;

/// One generated arrival, before admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Simulated arrival time, ns.
    pub at_ns: u64,
    /// Index into the scenario's tenant list.
    pub tenant: usize,
    /// Request-class index (see [`crate::kernels::request_classes`]).
    pub class: u16,
}

/// ln 2, the only constant the dyadic exponential needs.
const LN2: f64 = core::f64::consts::LN_2;

/// Draws one inter-arrival gap from the dyadic exponential; `gap_scale`
/// is `mean_gap_ns · ln 2`, folded once per generator (never zero, so
/// virtual time always advances).
fn gap_ns(rng: &mut StdRng, gap_scale: f64) -> u64 {
    let raw = rng.next_u64();
    let geometric = raw.trailing_zeros() as f64;
    let uniform = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    ((gap_scale * (geometric + uniform)) as u64).max(1)
}

/// The resumable state of a `TrafficGen`, captured mid-stream by
/// `TrafficGen::state`: the raw RNG words, the generator's clock, and
/// the one arrival drawn ahead for peeking. A generator rebuilt from this
/// via `TrafficGen::restore` emits the exact remaining schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficState {
    /// xoshiro256** state words ([`StdRng::state`]).
    pub rng: [u64; 4],
    /// The generator clock, ns (time of the last *drawn* arrival).
    pub t_ns: u64,
    /// The arrival drawn ahead but not yet consumed.
    pub peeked: Option<Arrival>,
}

/// One tenant's row of the arrival tables.
#[derive(Debug, Clone)]
struct TenantTable {
    /// Cumulative traffic share up to and including this tenant.
    share_end: u32,
    /// Sampler over the tenant's total mix weight.
    mix_pick: Below,
    /// `(cumulative weight, class index)` per mix entry, in mix order.
    mix: Vec<(u32, u16)>,
}

/// Everything about a schedule that is constant across draws, resolved
/// once per generator: cumulative shares, per-tenant mix tables with
/// their class indices looked up, the gap scale.
#[derive(Debug, Clone)]
struct ArrivalTables {
    /// Sampler over the total traffic share.
    tenant_pick: Below,
    tenants: Vec<TenantTable>,
    /// `mean_gap_ns · ln 2` at the run's load.
    gap_scale: f64,
    duration_ns: u64,
}

impl ArrivalTables {
    /// # Panics
    ///
    /// Panics if `load` is not positive or a mix names an unknown
    /// workload.
    fn new(scenario: &Scenario, load: f64, duration_ns: u64) -> Self {
        assert!(load > 0.0, "load multiplier must be positive");
        let mut share_end = 0;
        let tenants = scenario
            .tenants
            .iter()
            .map(|t| {
                share_end += t.share;
                let mut weight_end = 0;
                let mix: Vec<(u32, u16)> = t
                    .mix
                    .iter()
                    .map(|&(workload, weight)| {
                        weight_end += weight;
                        let class = class_index(workload).unwrap_or_else(|| {
                            panic!("scenario mix names unknown workload {workload}")
                        });
                        (weight_end, class)
                    })
                    .collect();
                TenantTable { share_end, mix_pick: Below::new(u64::from(weight_end)), mix }
            })
            .collect();
        ArrivalTables {
            tenant_pick: Below::new(u64::from(share_end)),
            tenants,
            gap_scale: scenario.mean_gap_ns as f64 / load * LN2,
            duration_ns,
        }
    }

    /// Draws one arrival from `rng`, advancing the generator clock `t_ns`
    /// (`None` when the gap carries the clock past the duration — the
    /// stream ends there for good).
    #[inline]
    fn draw(&self, rng: &mut StdRng, t_ns: &mut u64) -> Option<Arrival> {
        *t_ns += gap_ns(rng, self.gap_scale);
        if *t_ns >= self.duration_ns {
            return None;
        }
        // Weighted tenant draw, then a weighted workload draw from that
        // tenant's mix (a single-entry mix still consumes its draw). The
        // picked row is the count of cumulative ends at or below the pick
        // — the same row a first-match scan finds, without a branch the
        // random pick would make unpredictable.
        let pick = self.tenant_pick.sample(rng) as u32;
        let tenant = self.tenants.iter().filter(|t| t.share_end <= pick).count();
        let table = &self.tenants[tenant];
        let pick = table.mix_pick.sample(rng) as u32;
        let entry = table.mix.iter().filter(|&&(end, _)| end <= pick).count();
        Some(Arrival { at_ns: *t_ns, tenant, class: table.mix[entry].1 })
    }
}

/// A streaming arrival generator: the same seeded schedule as
/// [`generate`], produced one arrival at a time so the serving loop can
/// checkpoint mid-stream without materializing the whole schedule.
///
/// The schedule is a pure function of `(scenario, seed, load,
/// duration_ns)`; tenants are drawn by
/// [`crate::scenario::TenantSpec::share`], workloads by the tenant's mix
/// weights, all from the one seeded stream. Everything constant across
/// draws is tabulated at construction, so a draw is four raw RNG steps
/// and two short table walks.
#[derive(Debug, Clone)]
pub(crate) struct TrafficGen {
    tables: ArrivalTables,
    rng: StdRng,
    t_ns: u64,
    peeked: Option<Arrival>,
}

impl TrafficGen {
    /// Starts the schedule for `scenario` at `load` (a multiplier on the
    /// scenario's base rate) over `duration_ns` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not positive or a mix names an unknown
    /// workload.
    #[must_use]
    pub(crate) fn new(scenario: &Scenario, seed: u64, load: f64, duration_ns: u64) -> Self {
        let start =
            TrafficState { rng: StdRng::seed_from_u64(seed).state(), t_ns: 0, peeked: None };
        let mut gen = TrafficGen::restore(scenario, load, duration_ns, &start);
        gen.peeked = gen.tables.draw(&mut gen.rng, &mut gen.t_ns);
        gen
    }

    /// Rebuilds a generator from a mid-stream [`TrafficState`] snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not positive or a mix names an unknown
    /// workload.
    #[must_use]
    pub(crate) fn restore(
        scenario: &Scenario,
        load: f64,
        duration_ns: u64,
        state: &TrafficState,
    ) -> Self {
        TrafficGen {
            tables: ArrivalTables::new(scenario, load, duration_ns),
            rng: StdRng::from_state(state.rng),
            t_ns: state.t_ns,
            peeked: state.peeked,
        }
    }

    /// Snapshots the generator for a checkpoint.
    #[must_use]
    pub(crate) fn state(&self) -> TrafficState {
        TrafficState { rng: self.rng.state(), t_ns: self.t_ns, peeked: self.peeked }
    }

    /// The next arrival, without consuming it (`None` once the schedule
    /// is exhausted).
    #[must_use]
    pub(crate) fn peek(&self) -> Option<Arrival> {
        self.peeked
    }

    /// Consumes every arrival due at or before `now_ns`, in order,
    /// handing each to `sink`. It draws what consuming them one at a time
    /// would, but holds the generator state in locals across the whole run
    /// of arrivals instead of storing and reloading it around each one
    /// (under overload a dispatch round admits tens of arrivals at once).
    #[inline]
    pub(crate) fn drain_due(&mut self, now_ns: u64, mut sink: impl FnMut(Arrival)) {
        let (mut rng, mut t_ns, mut next) = (self.rng.clone(), self.t_ns, self.peeked);
        while let Some(a) = next {
            if a.at_ns > now_ns {
                break;
            }
            sink(a);
            next = self.tables.draw(&mut rng, &mut t_ns);
        }
        (self.rng, self.t_ns, self.peeked) = (rng, t_ns, next);
    }
}

/// Generates the full arrival schedule eagerly — `TrafficGen` drained
/// into a `Vec`.
///
/// # Panics
///
/// Panics if `load` is not positive or a mix names an unknown workload.
#[must_use]
pub fn generate(scenario: &Scenario, seed: u64, load: f64, duration_ns: u64) -> Vec<Arrival> {
    let mut gen = TrafficGen::new(scenario, seed, load, duration_ns);
    let mut arrivals = Vec::new();
    gen.drain_due(u64::MAX, |a| arrivals.push(a));
    arrivals
}

/// Turns an arrival into an admission-queue request with a stable id.
#[must_use]
pub(crate) fn to_request(id: u64, a: Arrival) -> Request {
    Request { id, tenant: a.tenant, class: a.class, arrival_ns: a.at_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{scenario_by_name, scenarios};

    impl TrafficGen {
        /// Consumes and returns the next arrival: the one-at-a-time draw
        /// that [`TrafficGen::drain_due`] is checked against.
        fn next_arrival(&mut self) -> Option<Arrival> {
            let out = self.peeked.take();
            if out.is_some() {
                self.peeked = self.tables.draw(&mut self.rng, &mut self.t_ns);
            }
            out
        }
    }

    /// The arrival draw as it was before the tables: every
    /// scenario-constant recomputed per arrival, bounds sampled through
    /// `gen_range`, the class resolved by name. Kept as the reference the
    /// table-driven [`TrafficGen`] must match draw for draw.
    struct ReferenceGen<'a> {
        scenario: &'a Scenario,
        rng: StdRng,
        mean_gap: f64,
        duration_ns: u64,
        t_ns: u64,
    }

    impl ReferenceGen<'_> {
        fn draw(&mut self) -> Option<Arrival> {
            let raw = self.rng.next_u64();
            let geometric = raw.trailing_zeros() as f64;
            let uniform = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            self.t_ns += ((self.mean_gap * LN2 * (geometric + uniform)) as u64).max(1);
            if self.t_ns >= self.duration_ns {
                return None;
            }
            let share_total: u32 = self.scenario.tenants.iter().map(|t| t.share).sum();
            let mut pick = self.rng.gen_range(0..share_total);
            let tenant = self
                .scenario
                .tenants
                .iter()
                .position(|t| {
                    if pick < t.share {
                        true
                    } else {
                        pick -= t.share;
                        false
                    }
                })
                .expect("shares cover the draw");
            let mix = self.scenario.tenants[tenant].mix;
            let mix_total: u32 = mix.iter().map(|(_, w)| w).sum();
            let mut pick = self.rng.gen_range(0..mix_total);
            let workload = mix
                .iter()
                .find(|(_, w)| {
                    if pick < *w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .expect("mix weights cover the draw")
                .0;
            Some(Arrival { at_ns: self.t_ns, tenant, class: class_index(workload).unwrap() })
        }
    }

    #[test]
    fn table_driven_draw_matches_the_reference_draw_for_draw() {
        const WINDOW_NS: u64 = 5_000_000;
        for s in scenarios() {
            for seed in [1u64, 7, 42] {
                for load in [0.25, 1.0, 8.0] {
                    let tag = format!("{} seed {seed} load {load}", s.name);
                    let mut reference = ReferenceGen {
                        scenario: s,
                        rng: StdRng::seed_from_u64(seed),
                        mean_gap: s.mean_gap_ns as f64 / load,
                        duration_ns: WINDOW_NS,
                        t_ns: 0,
                    };
                    let mut gen = TrafficGen::new(s, seed, load, WINDOW_NS);
                    let mut resumed: Option<TrafficGen> = None;
                    let mut drawn = 0usize;
                    loop {
                        // `gen` holds one arrival drawn ahead, so its RNG
                        // sits exactly where the reference's does after the
                        // same number of draws.
                        let want = reference.draw();
                        assert_eq!(gen.peek(), want, "{tag}: arrival {drawn}");
                        assert_eq!(gen.state().rng, reference.rng.state(), "{tag}: RNG words");
                        assert_eq!(gen.state().t_ns, reference.t_ns, "{tag}: clock");
                        if let Some(r) = &resumed {
                            assert_eq!(r.state(), gen.state(), "{tag}: resumed state at {drawn}");
                        }
                        if drawn == 25 {
                            resumed = Some(TrafficGen::restore(s, load, WINDOW_NS, &gen.state()));
                        }
                        if want.is_none() {
                            break;
                        }
                        gen.next_arrival();
                        if let Some(r) = &mut resumed {
                            assert_eq!(r.next_arrival(), want, "{tag}: resumed arrival {drawn}");
                        }
                        drawn += 1;
                    }
                    assert!(drawn > 25, "{tag}: only {drawn} arrivals, the restore never ran");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let s = scenario_by_name("tiny").unwrap();
        let a = generate(s, 7, 1.0, 2_000_000);
        let b = generate(s, 7, 1.0, 2_000_000);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at_ns == y.at_ns && x.tenant == y.tenant && x.class == y.class));
    }

    #[test]
    fn state_round_trip_resumes_the_stream() {
        let s = scenario_by_name("demo").unwrap();
        let full = generate(s, 13, 2.0, 5_000_000);
        assert!(full.len() > 40, "need a non-trivial schedule");
        let mut gen = TrafficGen::new(s, 13, 2.0, 5_000_000);
        for _ in 0..20 {
            gen.next_arrival();
        }
        let state = gen.state();
        let mut resumed = TrafficGen::restore(s, 2.0, 5_000_000, &state);
        let mut tail = Vec::new();
        while let Some(a) = resumed.next_arrival() {
            tail.push(a);
        }
        assert_eq!(&full[20..], tail.as_slice());
        // The original generator, drained in parallel, agrees too.
        let mut orig_tail = Vec::new();
        while let Some(a) = gen.next_arrival() {
            orig_tail.push(a);
        }
        assert_eq!(tail, orig_tail);
    }

    #[test]
    fn drain_due_is_next_arrival_in_a_loop() {
        let s = scenario_by_name("inference").unwrap();
        let mut stepped = TrafficGen::new(s, 9, 4.0, 4_000_000);
        let mut drained = stepped.clone();
        let mut total = 0;
        // Uneven cut-offs: some windows hold many arrivals, some none,
        // the last one runs the stream dry.
        for now_ns in [0, 10_000, 10_001, 900_000, 900_000, 2_500_000, u64::MAX] {
            let mut want = Vec::new();
            while stepped.peek().is_some_and(|a| a.at_ns <= now_ns) {
                want.extend(stepped.next_arrival());
            }
            let mut got = Vec::new();
            drained.drain_due(now_ns, |a| got.push(a));
            assert_eq!(got, want, "window ending {now_ns}");
            assert_eq!(drained.state(), stepped.state(), "window ending {now_ns}");
            total += got.len();
        }
        assert_eq!(total, generate(s, 9, 4.0, 4_000_000).len());
        assert!(total > 500 && drained.peek().is_none());
    }

    #[test]
    fn peek_does_not_consume() {
        let s = scenario_by_name("tiny").unwrap();
        let mut gen = TrafficGen::new(s, 7, 1.0, 2_000_000);
        let p = gen.peek().unwrap();
        assert_eq!(gen.peek(), Some(p));
        assert_eq!(gen.next_arrival(), Some(p));
    }

    #[test]
    fn load_scales_the_arrival_count() {
        let s = scenario_by_name("tiny").unwrap();
        let low = generate(s, 7, 0.5, 2_000_000).len();
        let high = generate(s, 7, 4.0, 2_000_000).len();
        assert!(high > 4 * low, "8x the load should bring far more arrivals ({low} vs {high})");
    }

    #[test]
    fn arrivals_are_ordered_and_bounded() {
        let s = scenario_by_name("demo").unwrap();
        let arrivals = generate(s, 3, 2.0, 1_000_000);
        assert!(arrivals.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(arrivals.iter().all(|a| a.at_ns < 1_000_000));
        assert!(arrivals.iter().all(|a| a.tenant < s.tenants.len()));
    }
}
