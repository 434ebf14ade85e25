//! DRAM timing and geometry configuration.

/// Timing and geometry parameters of the per-DPU DRAM bank.
///
/// All timing parameters are expressed in DRAM I/O-clock cycles, matching the
/// paper's Table I (`tRCD, tRAS, tRP, tCL, tBL = 16, 39, 16, 16, 4` for
/// DDR4-2400).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// DRAM I/O clock frequency in MHz (1200 for DDR4-2400).
    pub freq_mhz: f64,
    /// ACT-to-CAS delay, in DRAM cycles.
    pub t_rcd: u64,
    /// Minimum ACT-to-PRE delay (row must stay open this long), in DRAM cycles.
    pub t_ras: u64,
    /// Precharge latency, in DRAM cycles.
    pub t_rp: u64,
    /// CAS (column access) latency, in DRAM cycles.
    pub t_cl: u64,
    /// Burst length on the data bus, in DRAM cycles.
    pub t_bl: u64,
    /// Minimum CAS-to-CAS spacing for row-hit streaming, in DRAM cycles.
    pub t_ccd: u64,
    /// Row-buffer size in bytes (Table I: 1 KB).
    pub row_bytes: u32,
    /// Bytes transferred by a single burst (one CAS command).
    ///
    /// The DPU's DMA engine splits transfers into bursts of this size. The
    /// bank-level bandwidth this yields is deliberately much higher than the
    /// DMA-engine interface bandwidth — the paper notes (§V-B) that the
    /// 600–700 MB/s MRAM bandwidth "is not a fundamental constraint because
    /// the maximum memory bandwidth … at the bank level is much higher".
    pub burst_bytes: u32,
    /// Maximum age (in DRAM cycles) a request may wait before FR-FCFS
    /// row-hit prioritization is bypassed in its favour, preventing
    /// starvation of row-miss requests under a row-hit stream.
    pub starvation_cap: u64,
}

impl DramConfig {
    /// The paper's Table I configuration: DDR4-2400 timings with a 1 KB row
    /// buffer.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        DramConfig {
            freq_mhz: 1200.0,
            t_rcd: 16,
            t_ras: 39,
            t_rp: 16,
            t_cl: 16,
            t_bl: 4,
            t_ccd: 4,
            row_bytes: 1024,
            burst_bytes: 64,
            starvation_cap: 2048,
        }
    }

    /// Returns this configuration with the DRAM operating frequency scaled
    /// by `factor`, the mechanism behind the paper's `SIMT+AC+4x/16x`
    /// (Fig 11) and MRAM-bandwidth-scaling (Fig 13) design points.
    ///
    /// Timing parameters are specified in DRAM cycles and therefore stay
    /// fixed; a higher clock makes every access proportionally faster in
    /// wall-clock (and core-cycle) terms.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "frequency scale factor must be positive");
        self.freq_mhz *= factor;
        self
    }

    /// The row index covering the given MRAM byte address.
    #[must_use]
    pub fn row_of(&self, addr: u32) -> u32 {
        addr / self.row_bytes
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let c = DramConfig::ddr4_2400();
        assert_eq!((c.t_rcd, c.t_ras, c.t_rp, c.t_cl, c.t_bl), (16, 39, 16, 16, 4));
        assert_eq!(c.row_bytes, 1024);
        assert!((c.freq_mhz - 1200.0).abs() < f64::EPSILON);
    }

    #[test]
    fn scaling_multiplies_frequency_only() {
        let base = DramConfig::ddr4_2400();
        let fast = base.scaled(4.0);
        assert!((fast.freq_mhz - 4800.0).abs() < f64::EPSILON);
        assert_eq!(fast.t_rcd, base.t_rcd);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = DramConfig::ddr4_2400().scaled(0.0);
    }

    #[test]
    fn row_mapping() {
        let c = DramConfig::ddr4_2400();
        assert_eq!(c.row_of(0), 0);
        assert_eq!(c.row_of(1023), 0);
        assert_eq!(c.row_of(1024), 1);
    }
}
