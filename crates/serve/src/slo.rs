//! Log-bucketed latency histograms and SLO percentile accounting.
//!
//! Latencies are recorded in nanoseconds into power-of-two octaves with
//! four sub-buckets each (HdrHistogram-style, ~19% worst-case relative
//! error) — pure integer bit-twiddling, no transcendental functions, so
//! quantiles are bit-identical on every platform. Quantiles report the
//! lower bound of the containing bucket, which keeps them deterministic
//! and conservative.

use pimulator::report::{Json, Node};

/// Sub-buckets per octave (power of two).
const SUBS: u64 = 4;
/// log2([`SUBS`]).
const SUB_BITS: u32 = 2;
/// Total buckets: values 0..4 get exact buckets, then 4 sub-buckets for
/// each of the remaining 62 octaves.
const BUCKETS: usize = (SUBS as usize) + 62 * (SUBS as usize);

/// The bucket index holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) & (SUBS - 1);
    (SUBS + (u64::from(octave) - u64::from(SUB_BITS)) * SUBS + sub) as usize
}

/// The smallest value mapping to bucket `idx` (the quantile estimate).
fn lower_bound(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBS {
        return idx;
    }
    let octave = (idx - SUBS) / SUBS + u64::from(SUB_BITS);
    let sub = (idx - SUBS) % SUBS;
    (1 << octave) + sub * (1 << (octave - u64::from(SUB_BITS)))
}

/// A log-bucketed latency histogram over nanosecond samples.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Inline, not boxed: recording is the per-request hot path, and a
    /// fixed array indexes without a pointer chase.
    counts: [u64; BUCKETS],
    total: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { counts: [0; BUCKETS], total: 0, sum_ns: 0, max_ns: 0 }
    }
}

impl LatencyHistogram {
    /// Records one sample.
    pub(crate) fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the exact (unbucketed) samples, ns.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Largest exact sample, ns.
    #[must_use]
    pub(crate) fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile (`0.0..=1.0`) as the lower bound of the bucket
    /// holding the ⌈q·n⌉-th smallest sample; 0 for an empty histogram.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return lower_bound(idx);
            }
        }
        lower_bound(BUCKETS - 1)
    }

    /// `(p50, p95, p99)` in ns — the SLO triple every report uses.
    #[must_use]
    pub fn slo_triple(&self) -> (u64, u64, u64) {
        (self.quantile_ns(0.50), self.quantile_ns(0.95), self.quantile_ns(0.99))
    }

    /// Folds another histogram's population into this one (bucket-wise;
    /// exact because both sides share the same bucket boundaries).
    pub(crate) fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

impl LatencyHistogram {
    /// Serializes for a checkpoint: `[total, sum_ns, max_ns, [idx,
    /// count]...]` with only the occupied buckets listed (the histogram
    /// is sparse in practice).
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        let mut items =
            vec![Json::from(self.total), Json::from(self.sum_ns), Json::from(self.max_ns)];
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                items.push(Json::arr([Json::from(idx as u64), Json::from(c)]));
            }
        }
        Json::Arr(items)
    }

    /// Rebuilds a histogram from [`LatencyHistogram::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed snapshot (wrong shape, a bucket
    /// index out of range, or counts that do not sum to the total).
    pub(crate) fn from_json(j: Node<'_>) -> Result<Self, String> {
        let items = j.list(Ok)?;
        let [total, sum_ns, max_ns, buckets @ ..] = items.as_slice() else {
            return j.fail("a histogram starts with total, sum_ns and max_ns");
        };
        let mut h = LatencyHistogram {
            total: total.int()?,
            sum_ns: sum_ns.int()?,
            max_ns: max_ns.int()?,
            ..LatencyHistogram::default()
        };
        for bucket in buckets {
            let [idx, count] = bucket.tuple()?;
            let Some(slot) = h.counts.get_mut(idx.int::<usize>()?) else {
                return idx.fail(format_args!("a histogram has {BUCKETS} buckets"));
            };
            *slot = count.int()?;
        }
        if h.counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c)) != Some(h.total) {
            return j.fail("bucket counts do not sum to the total");
        }
        Ok(h)
    }
}

/// The queue-wait / transfer / execute / total split of one latency
/// population (per tenant), reusing the `ExecutionTimeline` phase
/// boundaries the rest of the repo reports.
#[derive(Debug, Clone, Default)]
pub struct LatencySplit {
    /// Time from arrival to batch start.
    pub queue: LatencyHistogram,
    /// CPU→DPU plus DPU→CPU transfer time of the request's round.
    pub transfer: LatencyHistogram,
    /// Kernel time until the request's slot finished.
    pub execute: LatencyHistogram,
    /// Arrival-to-completion.
    pub total: LatencyHistogram,
}

impl LatencySplit {
    /// Records one completed request's phase breakdown.
    pub(crate) fn record(&mut self, queue_ns: u64, transfer_ns: u64, execute_ns: u64) {
        self.queue.record(queue_ns);
        self.transfer.record(transfer_ns);
        self.execute.record(execute_ns);
        self.total.record(queue_ns + transfer_ns + execute_ns);
    }

    /// Folds another split's populations into this one, phase by phase.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.queue.merge(&other.queue);
        self.transfer.merge(&other.transfer);
        self.execute.merge(&other.execute);
        self.total.merge(&other.total);
    }

    /// Serializes all four phases for a checkpoint.
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        Json::arr([
            self.queue.to_json(),
            self.transfer.to_json(),
            self.execute.to_json(),
            self.total.to_json(),
        ])
    }

    /// Rebuilds a split from [`LatencySplit::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed snapshot.
    pub(crate) fn from_json(j: Node<'_>) -> Result<Self, String> {
        let [queue, transfer, execute, total] = j.tuple()?;
        Ok(LatencySplit {
            queue: LatencyHistogram::from_json(queue)?,
            transfer: LatencyHistogram::from_json(transfer)?,
            execute: LatencyHistogram::from_json(execute)?,
            total: LatencyHistogram::from_json(total)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_exact_below_four() {
        for v in 0..4u64 {
            assert_eq!(lower_bound(bucket_of(v)), v);
        }
        let mut last = 0;
        for v in [4u64, 5, 7, 8, 100, 1023, 1024, 1_000_000, u64::MAX / 2] {
            let b = bucket_of(v);
            assert!(lower_bound(b) <= v, "lb({b}) > {v}");
            assert!(b >= last, "bucket index regressed at {v}");
            last = b;
        }
        // A bucket's lower bound maps back to the same bucket.
        for idx in 0..BUCKETS {
            assert_eq!(bucket_of(lower_bound(idx)), idx);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [10u64, 99, 1_000, 123_456, 10_000_000] {
            let lb = lower_bound(bucket_of(v));
            assert!(lb <= v && v - lb <= v / 4, "error at {v}: lb {lb}");
        }
    }

    #[test]
    fn quantiles_of_a_known_population() {
        let mut h = LatencyHistogram::default();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 100);
        let (p50, p95, p99) = h.slo_triple();
        // Bucket lower bounds are conservative but within a sub-bucket of
        // the exact rank value.
        assert!((40_000..=50_000).contains(&p50), "p50 {p50}");
        assert!((80_000..=95_000).contains(&p95), "p95 {p95}");
        assert!((96_000..=99_000).contains(&p99), "p99 {p99}");
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(h.max_ns(), 100_000);
        assert!((h.mean_ns() - 50_500.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.slo_triple(), (0, 0, 0));
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn merging_is_equivalent_to_recording_into_one() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut both = LatencyHistogram::default();
        for v in [5u64, 70, 900, 12_000] {
            a.record(v);
            both.record(v);
        }
        for v in [3u64, 450, 80_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max_ns(), both.max_ns());
        assert_eq!(a.slo_triple(), both.slo_triple());
        assert!((a.mean_ns() - both.mean_ns()).abs() < 1e-9);
    }

    #[test]
    fn histogram_json_round_trips_through_text() {
        let mut s = LatencySplit::default();
        for v in [5u64, 70, 900, 12_000, 12_001, 80_000] {
            s.record(v, v * 2, v * 3);
        }
        let text = s.to_json().render_pretty();
        let doc = Json::parse(&text).unwrap();
        let back = LatencySplit::from_json(Node::root("split", &doc)).unwrap();
        for (a, b) in [
            (&s.queue, &back.queue),
            (&s.transfer, &back.transfer),
            (&s.execute, &back.execute),
            (&s.total, &back.total),
        ] {
            assert_eq!(a.count(), b.count());
            assert_eq!(a.max_ns(), b.max_ns());
            assert_eq!(a.slo_triple(), b.slo_triple());
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.sum_ns, b.sum_ns);
        }
    }

    #[test]
    fn histogram_from_json_rejects_corruption() {
        let mut h = LatencyHistogram::default();
        h.record(100);
        let decode = |j: &Json| LatencyHistogram::from_json(Node::root("h", j));
        assert!(decode(&Json::Null).is_err());
        assert!(decode(&Json::arr([Json::from(1u64)])).is_err());
        // `h` renders as `[1, 100, 100, [bucket, 1]]`.
        let edited = |edit: &dyn Fn(&mut Vec<Json>)| {
            let mut doc = h.to_json();
            let Json::Arr(items) = &mut doc else { panic!("a histogram renders as an array") };
            edit(items);
            decode(&doc).unwrap_err()
        };
        let pair = |idx: u64, count: u64| Json::arr([Json::from(idx), Json::from(count)]);
        // A count that disagrees with the total is caught…
        edited(&|items| items[0] = Json::from(99u64));
        // …also when the counts only reach the total by wrapping around.
        let err =
            edited(&|items| items.splice(3.., [pair(0, u64::MAX), pair(1, 2)]).for_each(drop));
        assert_eq!(err, "h: bucket counts do not sum to the total");
        // A bucket past the end is named by where it sits.
        let err = edited(&|items| items[3] = pair(BUCKETS as u64, 1));
        assert!(err.starts_with("h[3][0]: "), "{err}");
    }

    #[test]
    fn split_total_is_the_sum_of_phases() {
        let mut s = LatencySplit::default();
        s.record(10, 20, 30);
        assert_eq!(s.total.count(), 1);
        assert_eq!(s.total.max_ns(), 60);
        assert_eq!(s.queue.max_ns(), 10);
        assert_eq!(s.transfer.max_ns(), 20);
        assert_eq!(s.execute.max_ns(), 30);
    }
}
