//! Seeded fault campaigns for the serving runtime.
//!
//! A [`FaultSpec`] is the operator-facing knob set (the CLI's `--faults`
//! string); a [`FaultPlan`] expands it against a concrete rank into the
//! deterministic schedule the event loop consumes: per-round per-DPU
//! fault draws (transient / stuck) and a pre-generated, sorted list of
//! rank outages. Everything is a pure function of `(spec, n_dpus,
//! duration_ns)` — fault draws are keyed on the *round index*, never on
//! wall-clock or thread timing, so a faulty run is as byte-reproducible
//! as a healthy one and a resumed run redraws the identical faults.
//!
//! A fault is a [`FaultKind`] tag the loop reads off the plan and prices
//! itself — a lost round, a watchdog timeout, a rank's worth of requests
//! back in the retry queue. No DPU is launched to fail: a drawn fault
//! never reaches `pim-host`, and no launch returns an error for it.

use pim_rng::{Below, StdRng};

/// What went wrong with one occupied DPU in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient execution fault: the round's work on the DPU is lost
    /// and a retry may succeed.
    Transient,
    /// A hang: the DPU never stops and the host watchdog fires after
    /// `timeout_ns` — the round costs the full timeout.
    Stuck {
        /// Watchdog timeout, ns.
        timeout_ns: u64,
    },
    /// The DPU's whole rank is offline; everything placed on it fails
    /// until the rank rejoins.
    RankOffline {
        /// The offline rank.
        rank: u32,
    },
}

/// Golden-ratio increment decorrelating per-round fault streams.
const ROUND_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Most whole-rank outages one campaign may schedule. The schedule is
/// materialized up front and the loop scans the active ones every round,
/// so the count is bounded where it enters.
pub const MAX_OUTAGES: u32 = 100_000;

/// Longest virtual-time span a single knob (`timeout_us`, `backoff_us`,
/// `outage_ms`) may name: one hour. The loop turns these into nanoseconds
/// (and shifts the backoff left by up to 20 bits); an hour keeps every
/// product far inside the `u64` virtual clock.
pub const MAX_KNOB_NS: u64 = 3_600 * 1_000_000_000;

/// Longest arrival window a run may be asked for (`--duration-ms`, or a
/// scenario's default): a century. In nanoseconds that is a sixth of the
/// `u64` virtual clock; the rest is left to what
/// [`FaultSpec::clock_horizon_ns`] adds on top of it.
pub const MAX_DURATION_NS: u64 = 100 * 365 * 24 * MAX_KNOB_NS;

/// Latest [`FaultSpec::clock_horizon_ns`] a run may have: half the `u64`
/// virtual clock. The loop adds a span to a clock before it compares, so
/// every sum it forms under an admitted spec stays inside the other half;
/// a horizon that saturated is past this bound like any other.
pub const MAX_HORIZON_NS: u64 = u64::MAX / 2;

/// Most doublings of the retry back-off: attempt `a` waits
/// `backoff_us << min(a - 1, MAX_BACKOFF_SHIFT)`.
pub(crate) const MAX_BACKOFF_SHIFT: u32 = 20;

/// Virtual time a run may spend, past its arrival window and the waits
/// its fault spec names, dispatching what it had admitted: an hour, where
/// the longest committed scenario drains its queue in milliseconds. Only
/// [`FaultSpec::clock_horizon_ns`] reads it.
const DRAIN_MARGIN_NS: u64 = MAX_KNOB_NS;

/// Operator knobs of a fault campaign (parsed from the CLI `--faults`
/// string).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the fault streams (independent of the traffic seed).
    pub seed: u64,
    /// Per-round, per-DPU probability of a transient launch fault, in
    /// per-mille (0–1000).
    pub transient_per_mille: u32,
    /// Per-round, per-DPU probability of a hang, in per-mille (0–1000).
    pub stuck_per_mille: u32,
    /// Watchdog timeout charged to a round that contained a hung DPU, µs.
    pub stuck_timeout_us: u64,
    /// Retry budget per request; a request failing more times is counted
    /// `failed` and leaves the system.
    pub max_retries: u32,
    /// Base retry backoff, µs; attempt `k` waits `backoff << (k-1)` of
    /// virtual time before re-dispatch.
    pub backoff_us: u64,
    /// Whole-rank outages to schedule across the run.
    pub outages: u32,
    /// How long each outage keeps its rank offline, ms.
    pub outage_ms: u64,
    /// DPUs per rank (an outage takes all of them down together): the
    /// outage's fault domain, which the channel does not price. It may be
    /// smaller than the 64-DPU transfer rank (`pim_host::RANK_DPUS`), so
    /// that one outage leaves a small pool some healthy DPUs.
    pub dpus_per_rank: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 1,
            transient_per_mille: 0,
            stuck_per_mille: 0,
            stuck_timeout_us: 200,
            max_retries: 3,
            backoff_us: 50,
            outages: 0,
            outage_ms: 1,
            dpus_per_rank: 64,
        }
    }
}

impl FaultSpec {
    /// The fault-free spec: every rate zero. A run with this spec is
    /// byte-identical to a run with no spec at all.
    #[must_use]
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// `true` when the spec injects nothing.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.transient_per_mille == 0 && self.stuck_per_mille == 0 && self.outages == 0
    }

    /// Ranks a system of `n_dpus` falls into under this spec's rank
    /// geometry (a partial last rank counts; never zero).
    #[must_use]
    pub fn n_ranks(&self, n_dpus: u32) -> u32 {
        n_dpus.div_ceil(self.dpus_per_rank).max(1)
    }

    /// The latest virtual time a clock of a run of `duration_ns` under
    /// this spec can show, ns: the arrival window, one outage, per retry a
    /// stuck-launch time-out and the largest back-off the loop shifts to,
    /// and the drain margin. A checkpoint with a clock past it was not
    /// cut by such a run ([`crate::Checkpoint::fit`]).
    #[must_use]
    pub fn clock_horizon_ns(&self, duration_ns: u64) -> u64 {
        let per_retry = (self.stuck_timeout_us.saturating_mul(1_000))
            .saturating_add(self.backoff_us.saturating_mul(1_000 << MAX_BACKOFF_SHIFT));
        duration_ns
            .saturating_add(self.outage_ms.saturating_mul(1_000_000))
            .saturating_add(per_retry.saturating_mul(u64::from(self.max_retries)))
            .saturating_add(DRAIN_MARGIN_NS)
    }

    /// Parses the CLI `--faults` string: comma-separated `key=value`
    /// pairs over the defaults. Keys: `seed`, `transient`, `stuck`
    /// (per-mille rates), `timeout_us`, `retries`, `backoff_us`,
    /// `outages`, `outage_ms`, `rank_dpus`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending pair on an unknown key, a
    /// malformed number, a value that does not fit its field (`retries`,
    /// `rank_dpus` and the rates are 32-bit), more than [`MAX_OUTAGES`]
    /// outages, or a time knob past [`MAX_KNOB_NS`]; and a plain message
    /// on a rate above 1000 or a zero `rank_dpus`.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for pair in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("--faults: `{pair}` is not key=value"))?;
            let num =
                |v: &str| v.parse::<u64>().map_err(|_| format!("--faults: bad number in `{pair}`"));
            let range = || format!("--faults: value out of range in `{pair}`");
            let num32 = |v: &str| u32::try_from(num(v)?).map_err(|_| range());
            // A time knob in units of `unit_ns`, bounded by `MAX_KNOB_NS`.
            let span = |v: &str, unit_ns: u64| match num(v)? {
                n if n.checked_mul(unit_ns).is_some_and(|ns| ns <= MAX_KNOB_NS) => Ok(n),
                _ => Err(range()),
            };
            match key {
                "seed" => spec.seed = num(value)?,
                "transient" => spec.transient_per_mille = num32(value)?,
                "stuck" => spec.stuck_per_mille = num32(value)?,
                "timeout_us" => spec.stuck_timeout_us = span(value, 1_000)?,
                "retries" => spec.max_retries = num32(value)?,
                "backoff_us" => spec.backoff_us = span(value, 1_000)?,
                "outages" => {
                    spec.outages =
                        num32(value).ok().filter(|&n| n <= MAX_OUTAGES).ok_or_else(range)?;
                }
                "outage_ms" => spec.outage_ms = span(value, 1_000_000)?,
                "rank_dpus" => spec.dpus_per_rank = num32(value)?,
                _ => return Err(format!("--faults: unknown key `{key}`")),
            }
        }
        if spec.transient_per_mille > 1000 || spec.stuck_per_mille > 1000 {
            return Err("--faults: per-mille rates must be at most 1000".into());
        }
        if spec.dpus_per_rank == 0 {
            return Err("--faults: rank_dpus must be positive".into());
        }
        Ok(spec)
    }

    /// Canonical one-line rendering for reports: `none` for a fault-free
    /// spec, else the full `key=value` list in parse order.
    #[must_use]
    pub fn label(&self) -> String {
        if self.is_none() {
            return "none".into();
        }
        format!(
            "seed={},transient={},stuck={},timeout_us={},retries={},backoff_us={},outages={},outage_ms={},rank_dpus={}",
            self.seed,
            self.transient_per_mille,
            self.stuck_per_mille,
            self.stuck_timeout_us,
            self.max_retries,
            self.backoff_us,
            self.outages,
            self.outage_ms,
            self.dpus_per_rank
        )
    }
}

/// One scheduled whole-rank outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Outage {
    /// Virtual time the rank drops offline, ns.
    pub at_ns: u64,
    /// Virtual time it rejoins, ns.
    pub until_ns: u64,
    /// The rank taken down.
    pub rank: u32,
}

/// A [`FaultSpec`] expanded against a concrete rank: the deterministic
/// fault schedule the event loop consumes.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    outages: Vec<Outage>,
    /// Sampler behind every per-mille fault draw.
    per_mille: Below,
}

impl FaultPlan {
    /// Expands `spec` for a system of `n_dpus` over `duration_ns`:
    /// outage times and ranks are pre-drawn from the fault seed and
    /// sorted by onset, so the loop walks them with a cursor.
    #[must_use]
    pub(crate) fn generate(spec: FaultSpec, n_dpus: u32, duration_ns: u64) -> FaultPlan {
        let n_ranks = spec.n_ranks(n_dpus);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut outages: Vec<Outage> = (0..spec.outages)
            .map(|_| {
                let at_ns = rng.gen_range(0..duration_ns.max(1));
                let rank = rng.gen_range(0..n_ranks);
                Outage { at_ns, until_ns: at_ns + spec.outage_ms * 1_000_000, rank }
            })
            .collect();
        outages.sort_unstable_by_key(|o| (o.at_ns, o.rank));
        FaultPlan { spec, outages, per_mille: Below::new(1000) }
    }

    /// The rank containing DPU `dpu`.
    #[must_use]
    pub(crate) fn rank_of(&self, dpu: u32) -> u32 {
        dpu / self.spec.dpus_per_rank
    }

    /// The pre-drawn outage schedule, sorted by onset.
    #[must_use]
    pub(crate) fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Draws the faults of dispatch round `round` over the DPUs actually
    /// occupied this round, in their given order, into `faults` (cleared
    /// first; the caller owns the buffer so a serving loop reuses it) as
    /// `(dpu, kind)` pairs — a subsequence of `occupied`. A
    /// fresh stream is keyed on `(seed, round)`, so the draw depends only
    /// on the round index and the occupied set — not on wall-clock,
    /// threads, or how the loop got here (a resumed run redraws
    /// identically).
    pub(crate) fn round_faults(
        &self,
        round: u64,
        occupied: &[u32],
        faults: &mut Vec<(u32, FaultKind)>,
    ) {
        faults.clear();
        let (transient, stuck) =
            (u64::from(self.spec.transient_per_mille), u64::from(self.spec.stuck_per_mille));
        if transient == 0 && stuck == 0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.spec.seed ^ round.wrapping_mul(ROUND_MIX));
        for &dpu in occupied {
            // A zero rate consumes no draw, exactly as `gen_bool_ratio`
            // behind the same guards did.
            if transient > 0 && self.per_mille.sample(&mut rng) < transient {
                faults.push((dpu, FaultKind::Transient));
            } else if stuck > 0 && self.per_mille.sample(&mut rng) < stuck {
                faults.push((
                    dpu,
                    FaultKind::Stuck { timeout_ns: self.spec.stuck_timeout_us * 1000 },
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_overrides_only_named_keys() {
        let spec = FaultSpec::parse("transient=5,retries=2, outages=1").unwrap();
        assert_eq!(spec.transient_per_mille, 5);
        assert_eq!(spec.max_retries, 2);
        assert_eq!(spec.outages, 1);
        assert_eq!(spec.stuck_per_mille, 0, "unnamed keys keep defaults");
        assert!(!spec.is_none());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("transient").is_err());
        assert!(FaultSpec::parse("stuck=abc").is_err());
        assert!(FaultSpec::parse("transient=1001").is_err());
        assert!(FaultSpec::parse("rank_dpus=0").is_err());
    }

    #[test]
    fn parse_rejects_values_that_do_not_fit_their_field() {
        // Each of these used to be truncated by `as u32` into a value
        // that then passed validation (or failed it with the wrong
        // message): 2^32 + 1 became a rate of 1, 2^32 a budget of 0.
        for (text, pair) in [
            ("transient=4294967297", "transient=4294967297"),
            ("stuck=4294967296", "stuck=4294967296"),
            ("seed=2,retries=4294967296", "retries=4294967296"),
            ("rank_dpus=4294967296", "rank_dpus=4294967296"),
            ("outages=4294967296", "outages=4294967296"),
        ] {
            let err = FaultSpec::parse(text).unwrap_err();
            assert_eq!(err, format!("--faults: value out of range in `{pair}`"));
        }
        // In-range 32-bit values still parse, and the rate cap still
        // speaks for itself.
        assert_eq!(FaultSpec::parse("retries=4294967295").unwrap().max_retries, u32::MAX);
        assert!(FaultSpec::parse("transient=4294967295").unwrap_err().contains("at most 1000"));
    }

    #[test]
    fn parse_bounds_the_outage_count_and_the_time_knobs() {
        assert_eq!(FaultSpec::parse("outages=100000").unwrap().outages, MAX_OUTAGES);
        for text in [
            "outages=100001",
            "outages=4000000000",
            // Products that overflow u64 outright…
            "timeout_us=18446744073709551615",
            "backoff_us=18446744073709551615",
            "outage_ms=18446744073709551615",
            // …and ones that fit but name more than an hour.
            "timeout_us=3600000001",
            "backoff_us=3600000001",
            "outage_ms=3600001",
        ] {
            let err = FaultSpec::parse(text).unwrap_err();
            assert_eq!(err, format!("--faults: value out of range in `{text}`"));
        }
        let hour =
            FaultSpec::parse("timeout_us=3600000000,backoff_us=3600000000,outage_ms=3600000")
                .unwrap();
        assert_eq!(hour.stuck_timeout_us * 1000, MAX_KNOB_NS);
        assert_eq!(hour.outage_ms * 1_000_000, MAX_KNOB_NS);
        // The largest admissible backoff survives the loop's 20-bit shift.
        assert!(hour.backoff_us * 1000 <= u64::MAX >> 20);
    }

    #[test]
    fn empty_string_parses_to_none() {
        let spec = FaultSpec::parse("").unwrap();
        assert!(spec.is_none());
        assert_eq!(spec.label(), "none");
        assert_eq!(spec, FaultSpec::none());
    }

    #[test]
    fn label_round_trips_through_parse() {
        let spec = FaultSpec::parse("transient=7,stuck=3,outages=2,rank_dpus=4").unwrap();
        assert_eq!(FaultSpec::parse(&spec.label()).unwrap(), spec);
    }

    #[test]
    fn round_faults_are_deterministic_per_round() {
        let spec = FaultSpec::parse("transient=200,stuck=100,seed=9").unwrap();
        let plan = FaultPlan::generate(spec, 8, 1_000_000);
        let occupied: Vec<u32> = (0..8).collect();
        let draw = |round| {
            let mut faults = vec![(99, FaultKind::Transient)]; // stale content is cleared
            plan.round_faults(round, &occupied, &mut faults);
            faults
        };
        let a = draw(17);
        let b = draw(17);
        assert_eq!(a, b);
        // Across many rounds the streams differ (else every round fails
        // the same DPUs).
        assert!((0..50).any(|r| draw(r) != a));
    }

    #[test]
    fn round_faults_keep_the_gen_bool_ratio_stream() {
        // The plan's hoisted per-mille sampler must consume the seeded
        // stream exactly as the per-draw `gen_bool_ratio` spelling did.
        let spec = FaultSpec::parse("transient=80,stuck=10,seed=6").unwrap();
        let plan = FaultPlan::generate(spec, 8, 1_000_000);
        let occupied: Vec<u32> = (0..8).collect();
        let mut faults = Vec::new();
        let mut total = 0;
        for round in 0..2_000u64 {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ round.wrapping_mul(ROUND_MIX));
            let mut want = Vec::new();
            for &dpu in &occupied {
                if rng.gen_bool_ratio(spec.transient_per_mille, 1000) {
                    want.push((dpu, FaultKind::Transient));
                } else if rng.gen_bool_ratio(spec.stuck_per_mille, 1000) {
                    want.push((dpu, FaultKind::Stuck { timeout_ns: 200_000 }));
                }
            }
            plan.round_faults(round, &occupied, &mut faults);
            assert_eq!(faults, want, "round {round}");
            total += want.len();
        }
        assert!(total > 1000, "the campaign actually drew faults ({total})");
    }

    #[test]
    fn outages_are_sorted_and_in_range() {
        let spec = FaultSpec::parse("outages=5,outage_ms=2,rank_dpus=4,seed=3").unwrap();
        let plan = FaultPlan::generate(spec, 8, 10_000_000);
        assert_eq!(spec.n_ranks(8), 2);
        assert_eq!(plan.outages().len(), 5);
        assert!(plan.outages().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        for o in plan.outages() {
            assert!(o.at_ns < 10_000_000);
            assert_eq!(o.until_ns, o.at_ns + 2_000_000);
            assert!(o.rank < 2);
        }
        assert_eq!(plan.rank_of(3), 0);
        assert_eq!(plan.rank_of(4), 1);
    }

    #[test]
    fn fault_free_plan_draws_nothing() {
        let plan = FaultPlan::generate(FaultSpec::none(), 8, 1_000_000);
        assert!(plan.outages().is_empty());
        let mut faults = Vec::new();
        plan.round_faults(0, &[0, 1, 2, 3], &mut faults);
        assert!(faults.is_empty());
    }
}
