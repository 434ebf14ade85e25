//! Pluggable batch-scheduling policies.
//!
//! A policy drains up to one rank's worth of requests (`n_dpus ×
//! SLOTS_PER_DPU`) from the admission queue each round; the runtime then
//! packs them onto DPUs slot by slot. Policies reorder *service* only —
//! admission stays FIFO — and must be deterministic: same queue state in,
//! same batch out.

use pimulator::report::{Json, Node};

use crate::queue::{AdmissionQueue, Request};

/// A batch-scheduling policy.
pub trait SchedulerPolicy {
    /// The registry name (`fifo` | `size_class` | `weighted_fair`).
    fn name(&self) -> &'static str;

    /// Drains up to `capacity` requests from `q`, appending them to
    /// `batch` in service order. The caller owns the buffer so a serving
    /// loop reuses one allocation across rounds.
    fn next_batch(&mut self, q: &mut AdmissionQueue, capacity: usize, batch: &mut Vec<Request>);

    /// The policy's internal state for a checkpoint. Stateless policies
    /// (fifo, size_class) return [`Json::Null`]; stateful ones serialize
    /// whatever [`SchedulerPolicy::restore`] needs to continue exactly.
    fn snapshot(&self) -> Json {
        Json::Null
    }

    /// Rebuilds internal state from a [`SchedulerPolicy::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot does not match the policy.
    fn restore(&mut self, state: Node<'_>) -> Result<(), String> {
        match state.optional() {
            None => Ok(()),
            Some(s) => s.fail(format_args!("{} keeps no state, expected null", self.name())),
        }
    }
}

/// Strict arrival order.
#[derive(Debug, Default)]
pub(crate) struct Fifo;

impl SchedulerPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn next_batch(&mut self, q: &mut AdmissionQueue, capacity: usize, batch: &mut Vec<Request>) {
        batch.extend(std::iter::from_fn(|| q.pop_front()).take(capacity));
    }
}

/// Size-class batching: each round is anchored on the class of the oldest
/// queued request, and same-class requests are preferred (in FIFO order)
/// before falling back to plain FIFO. Homogeneous batches keep DPU
/// compositions uniform, which maximizes composition-profile reuse — the
/// serving analogue of transfer batching.
#[derive(Debug, Default)]
pub(crate) struct SizeClass;

impl SchedulerPolicy for SizeClass {
    fn name(&self) -> &'static str {
        "size_class"
    }

    fn next_batch(&mut self, q: &mut AdmissionQueue, capacity: usize, batch: &mut Vec<Request>) {
        let full = batch.len() + capacity;
        let Some(anchor) = q.front().map(|r| r.class) else { return };
        while batch.len() < full {
            let Some(r) = q.pop_first_where(|r| r.class == anchor) else { break };
            batch.push(r);
        }
        while batch.len() < full {
            let Some(r) = q.pop_front() else { break };
            batch.push(r);
        }
    }
}

/// Weighted-fair queueing across tenants (deficit round robin): each
/// tenant accrues credit proportional to its weight and spends one credit
/// per scheduled request, so under saturation completed-request shares
/// converge to the weight ratio regardless of arrival shares.
#[derive(Debug)]
pub(crate) struct WeightedFair {
    weights: Vec<u64>,
    credit: Vec<i64>,
}

impl WeightedFair {
    /// Creates the policy for tenants with the given weights.
    #[must_use]
    pub(crate) fn new(weights: Vec<u64>) -> Self {
        let n = weights.len();
        WeightedFair { weights, credit: vec![0; n] }
    }
}

impl SchedulerPolicy for WeightedFair {
    fn name(&self) -> &'static str {
        "weighted_fair"
    }

    fn next_batch(&mut self, q: &mut AdmissionQueue, capacity: usize, batch: &mut Vec<Request>) {
        // A tenant whose backlog drained loses its stale credit (standard
        // DRR: deficit resets when the queue empties) so it cannot hoard
        // service for later.
        for (t, c) in self.credit.iter_mut().enumerate() {
            if q.queued_of(t) == 0 {
                *c = 0;
            }
        }
        let full = batch.len() + capacity;
        while batch.len() < full && !q.is_empty() {
            // Top up a quantum whenever no backlogged tenant has credit.
            let backlogged = |credit: &[i64]| {
                (0..credit.len())
                    .filter(|&t| q.queued_of(t) > 0)
                    .max_by_key(|&t| (credit[t], std::cmp::Reverse(t)))
            };
            let Some(best) = backlogged(&self.credit) else { break };
            if self.credit[best] <= 0 {
                for (t, c) in self.credit.iter_mut().enumerate() {
                    if q.queued_of(t) > 0 {
                        *c += self.weights[t] as i64;
                    }
                }
            }
            let Some(pick) = backlogged(&self.credit) else { break };
            let Some(r) = q.pop_first_where(|r| r.tenant == pick) else { break };
            self.credit[pick] -= 1;
            batch.push(r);
        }
    }

    fn snapshot(&self) -> Json {
        // Non-negative credits go out as UInt — the shape the JSON text
        // parses back to — so a snapshot survives render→parse exactly.
        Json::arr(self.credit.iter().map(|&c| match u64::try_from(c) {
            Ok(u) => Json::UInt(u),
            Err(_) => Json::Int(c),
        }))
    }

    fn restore(&mut self, state: Node<'_>) -> Result<(), String> {
        let credits: Vec<i64> = state.list(Node::int)?;
        if credits.len() != self.credit.len() {
            let (found, tenants) = (credits.len(), self.credit.len());
            return state.fail(format_args!("{found} credits for {tenants} tenants"));
        }
        self.credit = credits;
        Ok(())
    }
}

/// Resolves a policy by registry name, sized for `weights.len()` tenants.
#[must_use]
pub(crate) fn policy_by_name_with_weights(
    name: &str,
    weights: &[u64],
) -> Option<Box<dyn SchedulerPolicy>> {
    match name {
        "fifo" => Some(Box::new(Fifo)),
        "size_class" => Some(Box::new(SizeClass)),
        "weighted_fair" => Some(Box::new(WeightedFair::new(weights.to_vec()))),
        _ => None,
    }
}

/// Whether `name` names a known policy (weight-free lookup for listings
/// and validation).
#[must_use]
pub fn policy_by_name(name: &str) -> Option<&'static str> {
    ["fifo", "size_class", "weighted_fair"].into_iter().find(|&p| p == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::AdmissionQueue;

    /// One round's batch in a fresh buffer.
    fn drain(p: &mut dyn SchedulerPolicy, q: &mut AdmissionQueue, capacity: usize) -> Vec<Request> {
        let mut batch = Vec::new();
        p.next_batch(q, capacity, &mut batch);
        batch
    }

    fn queue_with(reqs: &[(usize, u16)]) -> AdmissionQueue {
        let n_tenants = reqs.iter().map(|r| r.0).max().unwrap_or(0) + 1;
        let mut q = AdmissionQueue::new(1024, vec![1024; n_tenants]);
        for (id, &(tenant, class)) in reqs.iter().enumerate() {
            q.offer(crate::queue::Request { id: id as u64, tenant, class, arrival_ns: id as u64 });
        }
        q
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut q = queue_with(&[(0, 1), (1, 2), (0, 1), (1, 3)]);
        let batch = drain(&mut Fifo, &mut q, 3);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn size_class_prefers_the_anchor_class() {
        let mut q = queue_with(&[(0, 5), (0, 9), (0, 5), (0, 5), (0, 9)]);
        let batch = drain(&mut SizeClass, &mut q, 4);
        // Three class-5 requests first (ids 0,2,3), then FIFO fallback (1).
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 2, 3, 1]);
    }

    #[test]
    fn weighted_fair_tracks_weights_under_backlog() {
        let reqs: Vec<(usize, u16)> = (0..40).map(|i| (i % 2, 0u16)).collect();
        let mut q = queue_with(&reqs);
        let mut wf = WeightedFair::new(vec![3, 1]);
        let batch = drain(&mut wf, &mut q, 16);
        let t0 = batch.iter().filter(|r| r.tenant == 0).count();
        let t1 = batch.iter().filter(|r| r.tenant == 1).count();
        assert_eq!(t0 + t1, 16);
        assert_eq!(t0, 12, "3:1 weights over 16 slots give 12:4, got {t0}:{t1}");
    }

    #[test]
    fn weighted_fair_serves_the_only_backlogged_tenant() {
        let mut q = queue_with(&[(1, 0), (1, 0), (1, 0)]);
        let mut wf = WeightedFair::new(vec![100, 1]);
        let batch = drain(&mut wf, &mut q, 8);
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|r| r.tenant == 1));
    }

    #[test]
    fn weighted_fair_snapshot_round_trips_mid_backlog() {
        let reqs: Vec<(usize, u16)> = (0..40).map(|i| (i % 2, 0u16)).collect();
        let mut q = queue_with(&reqs);
        let mut wf = WeightedFair::new(vec![3, 1]);
        drain(&mut wf, &mut q, 10); // leaves non-zero credits behind
        let state = wf.snapshot();
        let mut q2 = q.clone();
        let mut restored = WeightedFair::new(vec![3, 1]);
        restored.restore(Node::root("state", &state)).unwrap();
        assert_eq!(drain(&mut restored, &mut q2, 16), drain(&mut wf, &mut q, 16));
        // Mismatched snapshots are rejected, not silently accepted.
        assert!(WeightedFair::new(vec![1]).restore(Node::root("state", &state)).is_err());
        assert!(restored.restore(Node::root("state", &Json::from("nope"))).is_err());
    }

    #[test]
    fn next_batch_appends_after_what_the_buffer_holds() {
        // The runtime puts ready retries at the front of the round's
        // buffer; every policy must add at most `capacity` behind them.
        for name in ["fifo", "size_class", "weighted_fair"] {
            let mut q = queue_with(&[(0, 1), (1, 2), (0, 1), (1, 3)]);
            let mut policy = policy_by_name_with_weights(name, &[1, 1]).unwrap();
            let retry = Request { id: 99, tenant: 0, class: 7, arrival_ns: 0 };
            let mut batch = vec![retry];
            policy.next_batch(&mut q, 3, &mut batch);
            assert_eq!(batch.len(), 4, "{name}");
            assert_eq!(batch[0], retry, "{name}");
            assert_eq!(q.len(), 1, "{name}");
        }
    }

    #[test]
    fn stateless_policies_snapshot_null() {
        assert_eq!(Fifo.snapshot(), Json::Null);
        let mut f = Fifo;
        assert!(f.restore(Node::root("state", &Json::Null)).is_ok());
        assert!(f.restore(Node::root("state", &Json::from(1u64))).is_err());
    }

    #[test]
    fn registry_resolves_policies() {
        for p in ["fifo", "size_class", "weighted_fair"] {
            assert!(policy_by_name(p).is_some());
            assert_eq!(policy_by_name_with_weights(p, &[1, 1]).unwrap().name(), p);
        }
        assert!(policy_by_name("lifo").is_none());
        assert!(policy_by_name_with_weights("lifo", &[1]).is_none());
    }
}
