//! # pim-mmu
//!
//! A memory-management-unit model for PIM, reproducing the paper's
//! multi-tenancy case study (§V-C).
//!
//! Commercial PIM devices have no MMU: the DPU addresses WRAM/IRAM/MRAM
//! physically, which both prevents address-space isolation between
//! co-located tenants and forces programmers to hand-derive physical data
//! placement. The paper adds an MMU to PIMulator to quantify the cost of
//! translation and finds it cheap (average 0.8%, max 14.1% slowdown)
//! because DMA transfers are coarse-grained and highly page-local.
//!
//! The model follows the paper exactly: a **single-level, 16-entry,
//! fully-associative TLB** (LRU), **4 KB pages**, a single page-table
//! walker, page tables resident in the DPU's own DRAM bank, and a 1-cycle
//! TLB access.
//!
//! # Example
//!
//! ```
//! use pim_mmu::{Mmu, MmuConfig, PageTable};
//!
//! let table = PageTable::identity(16 * 1024); // 64 MB of 4 KB pages
//! let mut mmu = Mmu::new(MmuConfig::paper(), table);
//! let first = mmu.translate(0x12345);
//! assert!(!first.tlb_hit); // cold TLB: page walk
//! assert_eq!(first.paddr, 0x12345); // identity mapping
//! let second = mmu.translate(0x12346);
//! assert!(second.tlb_hit); // same page
//! ```

use std::fmt;

/// MMU configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuConfig {
    /// Page size in bytes (paper: 4 KB).
    pub page_bytes: u32,
    /// Number of fully-associative TLB entries (paper: 16).
    pub tlb_entries: u32,
    /// TLB lookup latency in DPU core cycles (paper: 1).
    pub tlb_hit_cycles: u32,
    /// Page-walk depth: number of dependent page-table reads a TLB miss
    /// performs against the DPU's DRAM bank.
    pub walk_levels: u32,
    /// MRAM byte address where the page-table pages reside.
    pub table_base: u32,
}

impl MmuConfig {
    /// The paper's §V-C configuration: 4 KB pages, single-level 16-entry
    /// fully-associative TLB, 1-cycle TLB access, page tables in the DPU's
    /// local DRAM bank (modelled as a 2-level radix walk).
    #[must_use]
    pub fn paper() -> Self {
        MmuConfig {
            page_bytes: 4096,
            tlb_entries: 16,
            tlb_hit_cycles: 1,
            walk_levels: 2,
            table_base: 63 * 1024 * 1024, // top MiB of the 64 MB bank
        }
    }
}

impl Default for MmuConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A virtual-page → physical-page mapping.
///
/// The simulator keeps page tables as a flat vector (the timing model — how
/// many DRAM reads a walk performs — is configured separately via
/// [`MmuConfig::walk_levels`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageTable {
    map: Vec<u32>,
}

impl PageTable {
    /// An identity mapping over `pages` pages.
    #[must_use]
    pub fn identity(pages: u32) -> Self {
        PageTable { map: (0..pages).collect() }
    }

    /// Looks up the physical page for a virtual page.
    #[must_use]
    pub(crate) fn lookup(&self, vpn: u32) -> Option<u32> {
        self.map.get(vpn as usize).copied()
    }
}

/// The result of translating one virtual address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Translation {
    /// The physical byte address.
    pub paddr: u32,
    /// Whether the TLB hit.
    pub tlb_hit: bool,
    /// Fixed translation cost in core cycles (TLB lookup).
    pub cycles: u32,
    /// MRAM addresses of the page-table entries the walker must read on a
    /// TLB miss (empty on a hit). The caller issues these as dependent DRAM
    /// reads to model walk latency.
    pub walk_reads: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    vpn: u32,
    ppn: u32,
    last_use: u64,
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmuStats {
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses (page walks performed).
    pub tlb_misses: u64,
}

impl MmuStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &MmuStats) {
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
    }

    /// TLB hit rate in `[0, 1]`, or 0.0 when never accessed.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_misses;
        if total == 0 {
            0.0
        } else {
            self.tlb_hits as f64 / total as f64
        }
    }
}

/// The MMU: a fully-associative LRU TLB in front of a page table.
#[derive(Debug, Clone)]
pub struct Mmu {
    cfg: MmuConfig,
    table: PageTable,
    tlb: Vec<TlbEntry>,
    clock: u64,
    stats: MmuStats,
}

impl Mmu {
    /// Creates an MMU with a cold TLB.
    #[must_use]
    pub fn new(cfg: MmuConfig, table: PageTable) -> Self {
        Mmu { cfg, table, tlb: Vec::new(), clock: 0, stats: MmuStats::default() }
    }

    /// The MMU configuration.
    #[must_use]
    pub fn config(&self) -> &MmuConfig {
        &self.cfg
    }

    /// Accumulated TLB statistics.
    #[must_use]
    pub fn stats(&self) -> &MmuStats {
        &self.stats
    }

    /// Translates a virtual MRAM address.
    ///
    /// # Panics
    ///
    /// Panics if the virtual address refers to an unmapped page — the
    /// simulated DPU has no fault-handling path, mirroring the real device's
    /// lack of virtual memory machinery; the host runtime sizes the page
    /// table to cover all of MRAM.
    pub fn translate(&mut self, vaddr: u32) -> Translation {
        self.clock += 1;
        let vpn = vaddr / self.cfg.page_bytes;
        let offset = vaddr % self.cfg.page_bytes;
        // TLB lookup.
        if let Some(e) = self.tlb.iter_mut().find(|e| e.vpn == vpn) {
            e.last_use = self.clock;
            let ppn = e.ppn;
            self.stats.tlb_hits += 1;
            return Translation {
                paddr: ppn * self.cfg.page_bytes + offset,
                tlb_hit: true,
                cycles: self.cfg.tlb_hit_cycles,
                walk_reads: Vec::new(),
            };
        }
        // Miss: walk.
        self.stats.tlb_misses += 1;
        let ppn = self.table.lookup(vpn).unwrap_or_else(|| panic!("virtual page {vpn} not mapped"));
        let walk_reads = self.walk_addresses(vpn);
        // Fill (LRU replace).
        if self.tlb.len() < self.cfg.tlb_entries as usize {
            self.tlb.push(TlbEntry { vpn, ppn, last_use: self.clock });
        } else {
            let lru = self.tlb.iter_mut().min_by_key(|e| e.last_use).expect("tlb_entries > 0");
            *lru = TlbEntry { vpn, ppn, last_use: self.clock };
        }
        Translation {
            paddr: ppn * self.cfg.page_bytes + offset,
            tlb_hit: false,
            cycles: self.cfg.tlb_hit_cycles,
            walk_reads,
        }
    }

    /// The MRAM addresses of the page-table entries read while walking for
    /// `vpn`, one per level, each 4 bytes, laid out as a radix tree under
    /// [`MmuConfig::table_base`].
    fn walk_addresses(&self, vpn: u32) -> Vec<u32> {
        let levels = self.cfg.walk_levels;
        let mut out = Vec::with_capacity(levels as usize);
        // Split the VPN into `levels` digit groups (high digits first), each
        // level's table occupying a 4 KB page region.
        let bits_per_level = 10;
        for level in 0..levels {
            let shift = bits_per_level * (levels - 1 - level);
            let index = (vpn >> shift) & ((1 << bits_per_level) - 1);
            out.push(self.cfg.table_base + level * self.cfg.page_bytes + index * 4);
        }
        out
    }
}

impl fmt::Display for Mmu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-entry TLB, {} B pages ({:.1}% hit rate)",
            self.cfg.tlb_entries,
            self.cfg.page_bytes,
            self.stats.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PageTable {
        /// A deterministic non-trivial permutation of `pages` pages, which
        /// proves that translation is actually applied.
        fn permuted(pages: u32, seed: u32) -> Self {
            // Feistel-like involution-free permutation: reverse within blocks.
            let mut map: Vec<u32> = (0..pages).collect();
            let block = 8.max((seed % 64) + 2);
            for chunk in map.chunks_mut(block as usize) {
                chunk.reverse();
            }
            PageTable { map }
        }
    }

    fn mmu_identity() -> Mmu {
        Mmu::new(MmuConfig::paper(), PageTable::identity(16 * 1024))
    }

    #[test]
    fn identity_translation_preserves_address() {
        let mut m = mmu_identity();
        for addr in [0u32, 1, 4095, 4096, 0x3f_ffff] {
            assert_eq!(m.translate(addr).paddr, addr);
        }
    }

    #[test]
    fn same_page_hits_after_first_access() {
        let mut m = mmu_identity();
        assert!(!m.translate(0x1000).tlb_hit);
        assert!(m.translate(0x1ffc).tlb_hit);
        assert_eq!(m.stats().tlb_hits, 1);
        assert_eq!(m.stats().tlb_misses, 1);
    }

    #[test]
    fn walk_produces_one_read_per_level() {
        let mut m = mmu_identity();
        let t = m.translate(0x5000);
        assert_eq!(t.walk_reads.len(), 2);
        // Both PTE addresses live in the table region.
        for a in &t.walk_reads {
            assert!(*a >= MmuConfig::paper().table_base);
        }
        // Hits perform no reads.
        assert!(m.translate(0x5004).walk_reads.is_empty());
    }

    #[test]
    fn tlb_capacity_and_lru_replacement() {
        let mut m = mmu_identity();
        let page = MmuConfig::paper().page_bytes;
        // Fill all 16 entries with pages 0..16.
        for p in 0..16u32 {
            m.translate(p * page);
        }
        // Touch page 0 so page 1 becomes LRU.
        assert!(m.translate(0).tlb_hit);
        // Insert page 16: must evict page 1.
        assert!(!m.translate(16 * page).tlb_hit);
        assert!(m.translate(0).tlb_hit, "page 0 must survive");
        assert!(!m.translate(page).tlb_hit, "page 1 must have been evicted");
    }

    #[test]
    fn permuted_table_translates_differently() {
        let table = PageTable::permuted(64, 7);
        let cfg = MmuConfig::paper();
        let mut m = Mmu::new(cfg, table.clone());
        // Find some page that moves.
        let moved =
            (0..64).find(|&v| table.lookup(v) != Some(v)).expect("permutation moves a page");
        let t = m.translate(moved * cfg.page_bytes + 12);
        assert_eq!(t.paddr, table.lookup(moved).unwrap() * cfg.page_bytes + 12);
        assert_ne!(t.paddr, moved * cfg.page_bytes + 12);
    }

    #[test]
    fn permuted_table_is_a_permutation() {
        let table = PageTable::permuted(1000, 3);
        let mut seen: Vec<u32> = (0..1000).map(|v| table.lookup(v).unwrap()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "not mapped")]
    fn unmapped_page_panics() {
        let mut m = Mmu::new(MmuConfig::paper(), PageTable::identity(1));
        m.translate(4096);
    }

    #[test]
    fn stats_hit_rate() {
        let mut m = mmu_identity();
        assert_eq!(m.stats().hit_rate(), 0.0);
        m.translate(0);
        m.translate(4);
        m.translate(8);
        assert!((m.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }
}
