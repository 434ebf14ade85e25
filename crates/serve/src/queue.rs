//! The bounded admission queue with per-tenant quotas.
//!
//! Backpressure is explicit: every offered request is either admitted or
//! rejected with a *counted* reason (queue full, tenant over quota) —
//! nothing is silently dropped. The queue itself is FIFO; scheduling
//! policies reorder *service*, not admission.

use std::collections::VecDeque;

/// One admitted (or offered) serving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Monotonic request id (arrival order).
    pub id: u64,
    /// Index into the scenario's tenant list.
    pub tenant: usize,
    /// Request-class index (see [`crate::kernels::request_classes`]).
    pub class: u16,
    /// Simulated arrival time, ns.
    pub arrival_ns: u64,
}

/// The verdict of one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request joined the queue.
    Admitted,
    /// The global queue was full.
    RejectedCapacity,
    /// The tenant already held its quota of queued requests.
    RejectedQuota,
}

/// Per-tenant admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantAdmission {
    /// Requests offered by the traffic generator.
    pub offered: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Rejections because the global queue was full.
    pub rejected_capacity: u64,
    /// Rejections because the tenant was over its quota.
    pub rejected_quota: u64,
}

impl TenantAdmission {
    /// Total rejected requests.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_capacity + self.rejected_quota
    }
}

/// A bounded FIFO admission queue with per-tenant quotas.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    queue: VecDeque<Request>,
    capacity: usize,
    quotas: Vec<usize>,
    queued: Vec<usize>,
    stats: Vec<TenantAdmission>,
}

impl AdmissionQueue {
    /// Creates a queue holding at most `capacity` requests overall and at
    /// most `quotas[t]` requests of tenant `t`.
    #[must_use]
    pub(crate) fn new(capacity: usize, quotas: Vec<usize>) -> Self {
        let n = quotas.len();
        AdmissionQueue {
            queue: VecDeque::new(),
            capacity,
            quotas,
            queued: vec![0; n],
            stats: vec![TenantAdmission::default(); n],
        }
    }

    /// Rebuilds a queue from checkpointed state: the limits, the queued
    /// requests in FIFO order, and the admission counters as of the
    /// snapshot. Per-tenant occupancy is re-derived from `contents`.
    #[must_use]
    pub(crate) fn restore(
        capacity: usize,
        quotas: Vec<usize>,
        contents: Vec<Request>,
        stats: Vec<TenantAdmission>,
    ) -> Self {
        let mut queued = vec![0; quotas.len()];
        for r in &contents {
            queued[r.tenant] += 1;
        }
        AdmissionQueue { queue: contents.into(), capacity, quotas, queued, stats }
    }

    /// The queued requests in FIFO order (for checkpointing).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Request> {
        self.queue.iter()
    }

    /// Offers one request; the quota check runs first so a full queue
    /// never masks a tenant that is also over quota.
    pub(crate) fn offer(&mut self, req: Request) -> Admission {
        let s = &mut self.stats[req.tenant];
        s.offered += 1;
        if self.queued[req.tenant] >= self.quotas[req.tenant] {
            s.rejected_quota += 1;
            return Admission::RejectedQuota;
        }
        if self.queue.len() >= self.capacity {
            s.rejected_capacity += 1;
            return Admission::RejectedCapacity;
        }
        s.admitted += 1;
        self.queued[req.tenant] += 1;
        self.queue.push_back(req);
        Admission::Admitted
    }

    /// Removes and returns the oldest queued request.
    pub(crate) fn pop_front(&mut self) -> Option<Request> {
        let req = self.queue.pop_front()?;
        self.queued[req.tenant] -= 1;
        Some(req)
    }

    /// Removes and returns the oldest queued request matching `pred`.
    pub(crate) fn pop_first_where(&mut self, pred: impl Fn(&Request) -> bool) -> Option<Request> {
        let idx = self.queue.iter().position(pred)?;
        let req = self.queue.remove(idx)?;
        self.queued[req.tenant] -= 1;
        Some(req)
    }

    /// The oldest queued request, if any.
    #[must_use]
    pub(crate) fn front(&self) -> Option<&Request> {
        self.queue.front()
    }

    /// Whether nothing is queued.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Queued requests of one tenant.
    #[must_use]
    pub(crate) fn queued_of(&self, tenant: usize) -> usize {
        self.queued[tenant]
    }

    /// Per-tenant admission counters.
    #[must_use]
    pub(crate) fn stats(&self) -> &[TenantAdmission] {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AdmissionQueue {
        /// Queued requests overall.
        pub(crate) fn len(&self) -> usize {
            self.queue.len()
        }
    }

    fn req(id: u64, tenant: usize) -> Request {
        Request { id, tenant, class: 0, arrival_ns: id }
    }

    #[test]
    fn admits_until_capacity_then_counts_rejects() {
        let mut q = AdmissionQueue::new(2, vec![10]);
        assert_eq!(q.offer(req(0, 0)), Admission::Admitted);
        assert_eq!(q.offer(req(1, 0)), Admission::Admitted);
        assert_eq!(q.offer(req(2, 0)), Admission::RejectedCapacity);
        let s = q.stats()[0];
        assert_eq!((s.offered, s.admitted, s.rejected_capacity), (3, 2, 1));
        assert_eq!(s.rejected(), 1);
    }

    #[test]
    fn quota_binds_per_tenant_before_capacity() {
        let mut q = AdmissionQueue::new(10, vec![1, 1]);
        assert_eq!(q.offer(req(0, 0)), Admission::Admitted);
        assert_eq!(q.offer(req(1, 0)), Admission::RejectedQuota);
        assert_eq!(q.offer(req(2, 1)), Admission::Admitted);
        assert_eq!(q.queued_of(0), 1);
        assert_eq!(q.queued_of(1), 1);
        // Popping frees the quota slot again.
        assert_eq!(q.pop_front().unwrap().id, 0);
        assert_eq!(q.offer(req(3, 0)), Admission::Admitted);
    }

    #[test]
    fn restore_rebuilds_occupancy_and_counters() {
        let mut q = AdmissionQueue::new(4, vec![2, 2]);
        for (id, tenant) in [(0u64, 0usize), (1, 1), (2, 1)] {
            q.offer(req(id, tenant));
        }
        q.pop_front();
        let contents: Vec<Request> = q.iter().copied().collect();
        let restored = AdmissionQueue::restore(4, vec![2, 2], contents, q.stats().to_vec());
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.queued_of(0), 0);
        assert_eq!(restored.queued_of(1), 2);
        assert_eq!(restored.stats(), q.stats());
        // The restored queue enforces the same quota state.
        let mut restored = restored;
        assert_eq!(restored.offer(req(9, 1)), Admission::RejectedQuota);
    }

    #[test]
    fn pop_first_where_preserves_fifo_within_the_filter() {
        let mut q = AdmissionQueue::new(10, vec![10, 10]);
        for (id, tenant) in [(0u64, 0usize), (1, 1), (2, 0), (3, 1)] {
            q.offer(req(id, tenant));
        }
        assert_eq!(q.pop_first_where(|r| r.tenant == 1).unwrap().id, 1);
        assert_eq!(q.pop_first_where(|r| r.tenant == 1).unwrap().id, 3);
        assert!(q.pop_first_where(|r| r.tenant == 1).is_none());
        assert_eq!(q.len(), 2);
    }
}
