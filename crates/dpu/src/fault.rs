//! Fault-injection hooks at the launch boundary.
//!
//! Sibling of `crate::mutation` (compiled in by the `mutation-hooks`
//! feature): a runtime-off switch that costs nothing when untouched, except
//! this one is *per DPU* rather than process-global — a fault campaign
//! fails individual devices, not the build. A
//! [`FaultKind`] armed on a [`crate::Dpu`] makes its **next** launch
//! return the corresponding typed [`SimError`] instead of running the
//! kernel (the host launch paths check the armed slot before dispatch, so
//! no cycles are simulated for a doomed launch). Faults are one-shot:
//! taking the armed kind disarms the DPU, modelling a transient event
//! that a retry can survive.
//!
//! The serving runtime (`pim-serve`) drives these same kinds from a
//! seeded `FaultPlan`, so the errors a scheduler must tolerate are
//! exactly the errors the hardware boundary can produce.

use crate::error::SimError;

/// The kind of fault to inject at the next launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient execution fault: the launch aborts immediately and a
    /// retry may succeed.
    Transient,
    /// A hang: the DPU never stops and the host watchdog fires after
    /// `timeout_ns` — the launch costs the full timeout before failing.
    Stuck {
        /// Watchdog timeout, ns.
        timeout_ns: u64,
    },
    /// The DPU's whole rank dropped offline; every launch on it fails
    /// until the rank rejoins.
    RankOffline {
        /// The offline rank.
        rank: u32,
    },
}

impl FaultKind {
    /// The typed [`SimError`] this fault surfaces as on DPU `dpu`.
    #[must_use]
    pub fn into_error(self, dpu: u32) -> SimError {
        match self {
            FaultKind::Transient => SimError::InjectedFault { dpu },
            FaultKind::Stuck { timeout_ns } => SimError::DpuStuck { dpu, timeout_ns },
            FaultKind::RankOffline { rank } => SimError::RankOffline { dpu, rank },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_maps_to_its_typed_error() {
        assert_eq!(FaultKind::Transient.into_error(3), SimError::InjectedFault { dpu: 3 });
        assert_eq!(
            FaultKind::Stuck { timeout_ns: 500 }.into_error(0),
            SimError::DpuStuck { dpu: 0, timeout_ns: 500 }
        );
        assert_eq!(
            FaultKind::RankOffline { rank: 2 }.into_error(129),
            SimError::RankOffline { dpu: 129, rank: 2 }
        );
    }

    #[test]
    fn errors_display_the_fault() {
        let e = FaultKind::Stuck { timeout_ns: 1_000 }.into_error(7);
        let s = e.to_string();
        assert!(s.contains("DPU 7") && s.contains("watchdog"), "{s}");
    }
}
