//! # pim-fuzz
//!
//! Coverage-guided structured fuzzing and conformance testing for the
//! whole executor stack.
//!
//! The repo carries three independent executors that must agree on every
//! program — the timing-free `pim-ref` oracle, the naive per-cycle
//! reference loop, and the optimized issue engine (both cycle loops run
//! the SIMT front-end as an issue policy) — and the interesting
//! divergences hide in exactly the corners fixed test suites do not
//! reach: duplicate-source register-file
//! hazards, DMA bursts against a busy memory engine, barrier/mutex
//! interleavings at odd tasklet counts. This crate closes that gap with
//! four cooperating pieces:
//!
//! * [`gen`] — a seeded, structured program generator over the full
//!   `pim-isa` surface. Programs are *schedule-independent by
//!   construction* (private WRAM slabs and MRAM windows, mutex-protected
//!   commutative shared updates, barriers between phases), so any
//!   divergence indicts an executor, never the program.
//! * [`coverage`] — a coverage map over (instruction class × hazard kind ×
//!   memory pressure × tasklet bucket) cells, harvested from each case's
//!   [`pim_isa::DecodedProgram`] and run metrics; the campaign biases
//!   generation toward unhit cells.
//! * [`gauntlet`] — the metamorphic conformance checks every generated
//!   program must pass: oracle equality, naive-vs-fast stats equality,
//!   trace-sink invisibility, and tasklet-schedule invariance.
//! * [`shrink`] + [`corpus`] — failures are delta-debugged down to minimal
//!   repros (blocks, then instructions, then operands, then tasklets) and
//!   written to a committed text corpus that replays deterministically in
//!   `cargo test`.
//!
//! [`campaign`] ties it together on the `pimulator` job engine, and
//! `pimsim fuzz` (crate `pim-cli`) exposes it, including the `--mutate`
//! self-check that arms each seeded `pim-dpu` bug in turn and proves the
//! harness detects it.

pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod gauntlet;
pub mod gen;
pub mod shrink;

use pim_asm::DpuProgram;
use pim_dpu::{DpuConfig, IlpFeatures, SimtConfig};

/// Which executor configuration a fuzz case targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// The paper-baseline scalar pipeline.
    Scalar,
    /// All Fig 12 ILP features on (forwarding, unified RF, superscalar,
    /// double frequency).
    Ilp,
    /// The SIMT front-end with default coalescing.
    Simt,
}

impl ExecMode {
    /// All modes, in reporting order.
    pub const ALL: [ExecMode; 3] = [ExecMode::Scalar, ExecMode::Ilp, ExecMode::Simt];

    /// Stable lowercase name (used in corpus files and reports).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Scalar => "scalar",
            ExecMode::Ilp => "ilp",
            ExecMode::Simt => "simt",
        }
    }

    /// Parses [`ExecMode::as_str`] output back.
    ///
    /// # Errors
    ///
    /// Returns the offending string when it names no mode.
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(ExecMode::Scalar),
            "ilp" => Ok(ExecMode::Ilp),
            "simt" => Ok(ExecMode::Simt),
            other => Err(format!("unknown exec mode `{other}` (expected scalar|ilp|simt)")),
        }
    }

    /// The simulator configuration this mode runs under, bounded so a
    /// runaway generated program errors out instead of hanging a worker.
    #[must_use]
    pub(crate) fn config(self, tasklets: u32) -> DpuConfig {
        let mut cfg = match self {
            ExecMode::Scalar => DpuConfig::paper_baseline(tasklets),
            ExecMode::Ilp => DpuConfig::paper_baseline(tasklets).with_ilp(IlpFeatures::all()),
            ExecMode::Simt => DpuConfig::paper_baseline(tasklets).with_simt(SimtConfig::default()),
        };
        cfg.max_cycles = 50_000_000;
        cfg
    }
}

/// One generated (or corpus-loaded) conformance case: a program plus the
/// execution context it must hold up under.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The program under test (numeric branch targets, ready to load).
    pub program: DpuProgram,
    /// Tasklet count the case runs with.
    pub tasklets: u32,
    /// Executor configuration.
    pub mode: ExecMode,
    /// Number of chained launches of the loaded program (≥ 1). WRAM and
    /// MRAM persist between launches, mirroring `Dpu::launch` relaunch
    /// semantics; register files and PCs are re-armed each time.
    pub launches: u32,
    /// Human-readable provenance (`seed 0x… scalar/4`, corpus filename…).
    pub label: String,
}

impl FuzzCase {
    /// The simulator configuration for this case.
    #[must_use]
    pub(crate) fn config(&self) -> DpuConfig {
        self.mode.config(self.tasklets)
    }

    /// Effective launch count — a zero (e.g. from a hand-edited corpus
    /// file) still means one launch.
    #[must_use]
    pub(crate) fn launch_count(&self) -> u32 {
        self.launches.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for m in ExecMode::ALL {
            assert_eq!(ExecMode::parse(m.as_str()).unwrap(), m);
        }
        assert!(ExecMode::parse("warp").is_err());
    }

    #[test]
    fn mode_configs_bound_runaway_programs() {
        for m in ExecMode::ALL {
            let cfg = m.config(4);
            assert_eq!(cfg.n_tasklets, 4);
            assert!(cfg.max_cycles <= 50_000_000);
        }
        assert!(ExecMode::Scalar.config(2).simt.is_none());
        assert!(ExecMode::Simt.config(2).simt.is_some());
        assert!(ExecMode::Ilp.config(2).ilp.unified_rf);
    }
}
