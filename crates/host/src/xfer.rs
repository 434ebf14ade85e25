//! The CPU↔DPU channel model.
//!
//! One model, three modes. Every mode prices bytes at the paper's §III-A
//! fixed per-direction bandwidths ([`TO_DPU_GBPS`] / [`FROM_DPU_GBPS`],
//! Table I); a [`ChannelConfig`] picks a [`ChannelMode`], every rank holds
//! [`RANK_DPUS`] DPUs, and [`Channel`] is the virtual-time engine that
//! prices each operation under it. The modes ladder the software transfer
//! tricks of the pathfinding literature ("UPMEM Unleashed",
//! arXiv:2510.15927):
//!
//! * [`ChannelMode::Blocking`] — what the paper measures and every golden
//!   is pinned to: each transfer blocks the host at per-DPU bandwidth and
//!   the set behaves as one flat channel.
//! * [`ChannelMode::Broadcast`] — per-rank parallel channels, and a
//!   payload written once serves every DPU of a rank: a broadcast of `B`
//!   bytes costs `B / (RANK_DPUS × bw)` per rank instead of `B / bw`.
//!   Host semantics stay blocking.
//! * [`ChannelMode::Overlapped`] — broadcast pricing **plus**
//!   asynchronous pushes: CPU→DPU transfers are issued against the
//!   per-rank channel timelines and overlap kernel execution (the
//!   restructured, double-buffered host program), with a completion
//!   barrier at every pull boundary. Pulls stay synchronous — the paper
//!   observes CPU←DPU uses synchronous AVX reads, so read-back can never
//!   be hidden.
//!
//! The duration *sums* accumulated into
//! [`crate::ExecutionTimeline`]'s phase fields mean the same in every
//! mode; overlap shows up only in the separately tracked wall clock
//! ([`Channel::wall_ns`] / `ExecutionTimeline::wall_ns`).

use std::fmt;

/// DPUs per rank: a UPMEM rank is 8 chips × 8 DPUs.
pub const RANK_DPUS: u32 = 64;

/// A typed rejection of a channel-mode name.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// A channel-mode name that is not `blocking`/`broadcast`/`overlapped`.
    UnknownMode(String),
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::UnknownMode(name) => {
                write!(f, "unknown channel mode '{name}' (expected blocking|broadcast|overlapped)")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

/// CPU→DPU bandwidth in GB/s per DPU (Table I: 0.296).
///
/// The asymmetry with [`FROM_DPU_GBPS`] is real and load-bearing: the
/// paper observes that UPMEM implements CPU→DPU with asynchronous AVX
/// writes but CPU←DPU with synchronous AVX reads, making read-back ~4.7×
/// slower per byte.
pub const TO_DPU_GBPS: f64 = 0.296;

/// CPU←DPU bandwidth in GB/s per DPU (Table I: 0.063).
pub const FROM_DPU_GBPS: f64 = 0.063;

/// Nanoseconds to move `bytes` to one DPU (1 GB/s ≡ 1 byte/ns).
/// `bytes = 0` is a valid no-op transfer costing 0 ns.
#[must_use]
pub fn to_dpu_ns(bytes: u64) -> f64 {
    bytes as f64 / TO_DPU_GBPS
}

/// Nanoseconds to move `bytes` back from one DPU.
/// `bytes = 0` is a valid no-op transfer costing 0 ns.
#[must_use]
pub fn from_dpu_ns(bytes: u64) -> f64 {
    bytes as f64 / FROM_DPU_GBPS
}

/// How the channel prices and schedules transfers (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelMode {
    /// Every transfer blocks the host at per-DPU bandwidth: the SDK path
    /// the paper measures.
    #[default]
    Blocking,
    /// Rank-parallel channels with broadcast dedup; blocking host.
    Broadcast,
    /// Broadcast pricing plus asynchronous CPU→DPU pushes that overlap
    /// kernel execution, barriered at pulls.
    Overlapped,
}

impl ChannelMode {
    /// Stable lowercase label used in flags, reports, and JSON rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChannelMode::Blocking => "blocking",
            ChannelMode::Broadcast => "broadcast",
            ChannelMode::Overlapped => "overlapped",
        }
    }

    /// All modes, in sweep order.
    #[must_use]
    pub fn all() -> [ChannelMode; 3] {
        [ChannelMode::Blocking, ChannelMode::Broadcast, ChannelMode::Overlapped]
    }

    /// Parses a mode label (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::UnknownMode`] for anything but
    /// `blocking`/`broadcast`/`overlapped`.
    pub fn by_name(name: &str) -> Result<Self, ChannelError> {
        ChannelMode::all()
            .into_iter()
            .find(|m| m.label().eq_ignore_ascii_case(name))
            .ok_or_else(|| ChannelError::UnknownMode(name.to_string()))
    }
}

impl fmt::Display for ChannelMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The channel model's settings: the scheduling mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Transfer scheduling mode.
    pub mode: ChannelMode,
}

impl ChannelConfig {
    /// The blocking pipe with the paper's constants (the paper measures
    /// the blocking SDK path) — the default everywhere, and the mode every
    /// golden snapshot is pinned to.
    #[must_use]
    pub fn paper() -> Self {
        ChannelConfig { mode: ChannelMode::Blocking }
    }

    /// Paper constants, [`ChannelMode::Overlapped`].
    #[must_use]
    pub fn overlapped() -> Self {
        ChannelConfig { mode: ChannelMode::Overlapped }
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The virtual-time channel engine: prices each transfer under the
/// configured [`ChannelMode`] and tracks the host clock plus one busy-until
/// mark per rank so overlapped pushes queue on their rank's channel.
///
/// All times are nanoseconds on the simulated clock. The engine is the
/// single source of truth for transfer pricing: [`crate::PimSystem`]
/// drives it from the transfer API, and the differential test suite
/// drives it directly with seeded shapes.
#[derive(Debug, Clone)]
pub struct Channel {
    mode: ChannelMode,
    n_dpus: u32,
    /// The host's clock: advanced by kernels and every blocking transfer.
    host_ns: f64,
    /// Per-rank channel busy-until marks (≥ `host_ns` only while an
    /// overlapped push is still in flight).
    rank_free_ns: Vec<f64>,
}

impl Channel {
    /// A fresh channel for `n_dpus` DPUs at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_dpus` is zero.
    #[must_use]
    pub fn new(cfg: ChannelConfig, n_dpus: u32) -> Self {
        assert!(n_dpus > 0, "a channel serves at least one DPU");
        let ranks = n_dpus.div_ceil(RANK_DPUS) as usize;
        Channel { mode: cfg.mode, n_dpus, host_ns: 0.0, rank_free_ns: vec![0.0; ranks] }
    }

    /// The scheduling mode.
    #[must_use]
    pub(crate) fn mode(&self) -> ChannelMode {
        self.mode
    }

    /// The host clock (excludes in-flight overlapped pushes).
    #[must_use]
    pub fn host_ns(&self) -> f64 {
        self.host_ns
    }

    /// The wall clock: host time joined with every in-flight transfer —
    /// the moment the whole system (host *and* channel) goes quiet.
    #[must_use]
    pub fn wall_ns(&self) -> f64 {
        self.rank_free_ns.iter().fold(self.host_ns, |a, &b| a.max(b))
    }

    /// Rewinds the channel to time 0 (e.g. between experiments).
    pub(crate) fn reset(&mut self) {
        self.host_ns = 0.0;
        self.rank_free_ns.fill(0.0);
    }

    /// DPUs populating rank `r` (the last rank may be partial).
    fn rank_population(&self, r: usize) -> f64 {
        let lo = r as u32 * RANK_DPUS;
        f64::from(self.n_dpus.min(lo + RANK_DPUS) - lo)
    }

    /// A blocking operation of `ns` on host and channel together.
    fn advance_sync(&mut self, ns: f64) {
        self.host_ns += ns;
        self.rank_free_ns.fill(self.host_ns);
    }

    /// Prices a CPU→DPU push of per-DPU payload sizes `bytes_per_dpu`
    /// (index = DPU; 0 for uninvolved DPUs) and advances virtual time.
    /// Returns the operation's channel time — the duration charged to the
    /// timeline's `to_dpu_ns` phase sum.
    ///
    /// Pricing: the slowest per-DPU chunk gates the push in every mode
    /// (per-DPU links move in parallel). In [`ChannelMode::Overlapped`]
    /// the push is issued asynchronously: each rank's channel is busy from
    /// `max(host, rank_free)` for its own largest chunk, and the host does
    /// not wait.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `bytes_per_dpu` is not one entry per DPU.
    pub fn push(&mut self, bytes_per_dpu: &[u64]) -> f64 {
        debug_assert_eq!(bytes_per_dpu.len(), self.n_dpus as usize, "one payload size per DPU");
        let max = bytes_per_dpu.iter().copied().max().unwrap_or(0);
        let ns = to_dpu_ns(max);
        match self.mode {
            ChannelMode::Blocking => self.host_ns += ns,
            ChannelMode::Broadcast => self.advance_sync(ns),
            ChannelMode::Overlapped => {
                for (r, chunk) in bytes_per_dpu.chunks(RANK_DPUS as usize).enumerate() {
                    let rank_max = chunk.iter().copied().max().unwrap_or(0);
                    if rank_max == 0 {
                        continue;
                    }
                    let start = self.rank_free_ns[r].max(self.host_ns);
                    self.rank_free_ns[r] = start + to_dpu_ns(rank_max);
                }
            }
        }
        ns
    }

    /// Prices a CPU→DPU push of `bytes` to a single DPU.
    pub(crate) fn push_one(&mut self, dpu: u32, bytes: u64) -> f64 {
        let ns = to_dpu_ns(bytes);
        match self.mode {
            ChannelMode::Blocking => self.host_ns += ns,
            ChannelMode::Broadcast => self.advance_sync(ns),
            ChannelMode::Overlapped => {
                if bytes > 0 {
                    let r = (dpu / RANK_DPUS) as usize;
                    let start = self.rank_free_ns[r].max(self.host_ns);
                    self.rank_free_ns[r] = start + ns;
                }
            }
        }
        ns
    }

    /// Prices a broadcast of `bytes` — one payload serving every DPU.
    ///
    /// Outside blocking mode the payload is written **once** per rank and
    /// the rank's aggregate link (`RANK_DPUS × bw`) carries it, so the cost
    /// per rank is `bytes / (population × bw)`; the smallest (possibly
    /// partial, and therefore slowest) rank gates the operation, and
    /// ranks move in parallel. [`ChannelMode::Blocking`] charges the
    /// price of one per-DPU write (`bytes / bw`), which is what the SDK's
    /// sequential broadcast costs under per-DPU-parallel links.
    pub fn broadcast(&mut self, bytes: u64) -> f64 {
        match self.mode {
            ChannelMode::Blocking => {
                let ns = to_dpu_ns(bytes);
                self.host_ns += ns;
                ns
            }
            ChannelMode::Broadcast | ChannelMode::Overlapped => {
                let ranks = self.rank_free_ns.len();
                let mut worst = 0.0f64;
                for r in 0..ranks {
                    worst = worst.max(to_dpu_ns(bytes) / self.rank_population(r));
                }
                if self.mode == ChannelMode::Broadcast {
                    self.advance_sync(worst);
                } else if bytes > 0 {
                    for r in 0..ranks {
                        let t = to_dpu_ns(bytes) / self.rank_population(r);
                        let start = self.rank_free_ns[r].max(self.host_ns);
                        self.rank_free_ns[r] = start + t;
                    }
                }
                worst
            }
        }
    }

    /// Advances the host clock by one kernel launch of `ns`. Kernels
    /// always block the host; in [`ChannelMode::Overlapped`] in-flight
    /// pushes keep streaming underneath (the double-buffered host
    /// program staged the *next* launch's data).
    pub fn kernel(&mut self, ns: f64) {
        self.host_ns += ns;
        if self.mode != ChannelMode::Overlapped {
            self.rank_free_ns.fill(self.host_ns);
        }
    }

    /// Prices a CPU←DPU pull whose largest per-DPU chunk is `max_bytes`.
    ///
    /// Read-back is synchronous in every mode (the paper: CPU←DPU uses
    /// synchronous AVX reads), and per-DPU links already move in
    /// parallel, so the price is `max_bytes / from_bw` everywhere
    /// — the read-back asymmetry is preserved in every mode. In
    /// [`ChannelMode::Overlapped`] the pull is a completion barrier: the
    /// host first waits out every in-flight push.
    pub fn pull(&mut self, max_bytes: u64) -> f64 {
        if self.mode == ChannelMode::Overlapped {
            self.host_ns = self.wall_ns();
        }
        let ns = from_dpu_ns(max_bytes);
        self.advance_sync(ns);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        assert_eq!((TO_DPU_GBPS, FROM_DPU_GBPS), (0.296, 0.063));
    }

    #[test]
    fn asymmetry_read_back_slower() {
        assert!(from_dpu_ns(1024) > 4.0 * to_dpu_ns(1024));
    }

    #[test]
    fn time_scales_linearly_with_bytes() {
        assert!((to_dpu_ns(2048) - 2.0 * to_dpu_ns(1024)).abs() < 1e-9);
        // 296 MB at 0.296 GB/s = 1 s.
        assert!((to_dpu_ns(296_000_000) - 1e9).abs() < 1.0);
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        assert_eq!(to_dpu_ns(0), 0.0);
        assert_eq!(from_dpu_ns(0), 0.0);
    }

    #[test]
    fn mode_labels_round_trip_and_reject_garbage() {
        for mode in ChannelMode::all() {
            assert_eq!(ChannelMode::by_name(mode.label()).unwrap(), mode);
            assert_eq!(ChannelMode::by_name(&mode.label().to_uppercase()).unwrap(), mode);
        }
        assert_eq!(
            ChannelMode::by_name("warp-speed").unwrap_err(),
            ChannelError::UnknownMode("warp-speed".into())
        );
    }

    #[test]
    fn default_config_is_the_papers_blocking_channel() {
        assert_eq!(ChannelConfig::default(), ChannelConfig::paper());
        assert_eq!(ChannelConfig::default().mode, ChannelMode::Blocking);
    }

    /// One virtual round trip: push per-DPU chunks, run a kernel, pull.
    fn round_trip(mode: ChannelMode, n_dpus: u32, chunks: &[u64], kernel_ns: f64) -> (f64, f64) {
        let mut ch = Channel::new(ChannelConfig { mode }, n_dpus);
        let to = ch.push(chunks);
        ch.kernel(kernel_ns);
        let from = ch.pull(*chunks.iter().max().unwrap());
        (to + kernel_ns + from, ch.wall_ns())
    }

    #[test]
    fn blocking_round_trip_is_the_serial_sum() {
        let chunks = [4096u64, 1024, 4096, 64];
        let (sum, wall) = round_trip(ChannelMode::Blocking, 4, &chunks, 500.0);
        assert!((wall - sum).abs() < 1e-9, "blocking wall == serial sum");
        assert!((sum - (to_dpu_ns(4096) + 500.0 + from_dpu_ns(4096))).abs() < 1e-9);
    }

    #[test]
    fn overlap_hides_pushes_under_kernels_but_never_pulls() {
        let chunks = [8192u64; 4];
        let (sum, wall) = round_trip(ChannelMode::Overlapped, 4, &chunks, 100_000.0);
        // The push fits under the kernel entirely; the pull cannot hide.
        assert!((wall - (100_000.0 + from_dpu_ns(8192))).abs() < 1e-9);
        assert!(wall < sum);
    }

    #[test]
    fn overlap_never_beats_the_channel_itself() {
        // Kernel shorter than the push: the pull barrier exposes the
        // remaining transfer time; wall == push + pull.
        let chunks = [65536u64; 2];
        let (_, wall) = round_trip(ChannelMode::Overlapped, 2, &chunks, 10.0);
        assert!((wall - (to_dpu_ns(65536) + from_dpu_ns(65536))).abs() < 1e-9);
    }

    #[test]
    fn broadcast_splits_across_the_rank() {
        let broadcast = ChannelConfig { mode: ChannelMode::Broadcast };
        let mut ch = Channel::new(broadcast, 2 * RANK_DPUS);
        let ns = ch.broadcast(8192);
        assert!((ns - to_dpu_ns(8192) / f64::from(RANK_DPUS)).abs() < 1e-9);
        // Blocking prices the same broadcast at the full per-DPU cost.
        let mut legacy = Channel::new(ChannelConfig::paper(), 2 * RANK_DPUS);
        assert!((legacy.broadcast(8192) - to_dpu_ns(8192)).abs() < 1e-9);
    }

    #[test]
    fn partial_rank_gates_the_broadcast() {
        // Two DPUs past a full rank: the 2-DPU tail rank is the slowest.
        let broadcast = ChannelConfig { mode: ChannelMode::Broadcast };
        let mut ch = Channel::new(broadcast, RANK_DPUS + 2);
        assert!((ch.broadcast(8192) - to_dpu_ns(8192) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn overlapped_pushes_queue_on_their_rank_channel() {
        let mut ch = Channel::new(ChannelConfig::overlapped(), 2 * RANK_DPUS);
        let chunks = vec![4096; 2 * RANK_DPUS as usize];
        ch.push(&chunks);
        ch.push(&chunks);
        // No kernel ran: both pushes are in flight back-to-back.
        assert!((ch.wall_ns() - 2.0 * to_dpu_ns(4096)).abs() < 1e-9);
        assert_eq!(ch.host_ns(), 0.0);
        // The pull barriers on both, then adds its own synchronous time.
        let from = ch.pull(64);
        assert!((ch.wall_ns() - (2.0 * to_dpu_ns(4096) + from)).abs() < 1e-9);
        assert_eq!(ch.host_ns(), ch.wall_ns());
    }

    #[test]
    fn reset_rewinds_to_time_zero() {
        let mut ch = Channel::new(ChannelConfig::overlapped(), 2);
        ch.push(&[1024, 1024]);
        ch.kernel(10.0);
        ch.reset();
        assert_eq!(ch.host_ns(), 0.0);
        assert_eq!(ch.wall_ns(), 0.0);
    }
}
