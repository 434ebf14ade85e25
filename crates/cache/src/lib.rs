//! # pim-cache
//!
//! A cycle-level set-associative cache model used by the paper's
//! "on-demand caches vs. scratchpads" case study (§V-D, Figures 15–16).
//!
//! The cache-centric DPU configuration replaces the architecturally managed
//! scratchpad (WRAM) with an **instruction cache** and a **data cache**,
//! "each configured as an 8-way set-associative cache with LRU replacement
//! policy and 24 KB and 64 KB capacity, respectively, identical to the
//! instruction memory (IRAM) and scratchpad (WRAM) space provisioned under
//! the baseline" (paper §V-D). Data-cache lines are write-back /
//! write-allocate.
//!
//! This crate models only the tag/state side: hits and misses, LRU
//! replacement, dirty-line writebacks, and fill accounting. The timing of
//! miss handling (DRAM transactions) belongs to the DPU's memory pipeline,
//! which consumes the [`AccessOutcome`] returned by [`Cache::access`].
//!
//! # Example
//!
//! ```
//! use pim_cache::{Cache, CacheConfig};
//!
//! let mut dcache = Cache::new(CacheConfig::paper_dcache());
//! let miss = dcache.access(0x1000, false);
//! assert!(!miss.hit);
//! let hit = dcache.access(0x1004, false); // same 64 B line
//! assert!(hit.hit);
//! assert_eq!(dcache.stats().misses, 1);
//! ```

use std::fmt;

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (lines per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// XOR-fold the tag into the set index
    /// (set = `(line ^ tag ^ tag/sets) % sets`; power-of-two set counts only).
    ///
    /// Real caches commonly hash the index to break power-of-two stride
    /// aliasing; without it, the PrIM hosts' equal power-of-two data
    /// partitions make every tasklet's stream pointer collide in one set
    /// and even an 8-way cache thrashes to a 0% hit rate.
    pub hashed_index: bool,
}

impl CacheConfig {
    /// The paper's cache-centric data cache: 64 KB, 8-way, LRU (§V-D).
    #[must_use]
    pub fn paper_dcache() -> Self {
        CacheConfig { size_bytes: 64 * 1024, ways: 8, line_bytes: 64, hashed_index: true }
    }

    /// The paper's cache-centric instruction cache: 24 KB, 8-way, LRU (§V-D).
    #[must_use]
    pub fn paper_icache() -> Self {
        CacheConfig { size_bytes: 24 * 1024, ways: 8, line_bytes: 64, hashed_index: true }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of `ways * line_bytes`).
    #[must_use]
    pub fn sets(&self) -> u32 {
        assert!(self.size_bytes > 0 && self.ways > 0 && self.line_bytes > 0);
        assert_eq!(
            self.size_bytes % (self.ways * self.line_bytes),
            0,
            "capacity must be a whole number of ways × lines"
        );
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// The address of the first byte of the line containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u32) -> u32 {
        addr - addr % self.line_bytes
    }
}

/// Per-cache hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (each causes one line fill).
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Bytes filled from the next level (misses × line size).
    pub bytes_filled: u64,
    /// Bytes written back to the next level.
    pub bytes_written_back: u64,
}

impl CacheStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.bytes_filled += other.bytes_filled;
        self.bytes_written_back += other.bytes_written_back;
    }

    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`, or 0.0 when the cache was never accessed.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// The outcome of a cache access, consumed by the DPU's memory pipeline to
/// schedule the required DRAM traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// On a miss, the line-aligned address to fill from the next level.
    pub fill_line: Option<u32>,
    /// On a miss that evicted a dirty line, that line's address (must be
    /// written back to the next level before the fill completes).
    pub writeback_line: Option<u32>,
}

impl AccessOutcome {
    const HIT: AccessOutcome = AccessOutcome { hit: true, fill_line: None, writeback_line: None };
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Monotonic counter for exact LRU ordering within the set.
    last_use: u64,
}

/// A set-associative, write-back/write-allocate cache with exact LRU
/// replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// The geometry's divisions, done once.
    geo: Geometry,
    lines: Vec<Line>, // sets × ways, row-major by set
    use_clock: u64,
    stats: CacheStats,
}

/// Address arithmetic of a [`CacheConfig`], computed once per cache: the
/// set count, and shifts and masks for whichever of the line size and the
/// set count is a power of two (the paper's 48-set I-cache keeps one
/// division and one remainder per access).
#[derive(Debug, Clone, Copy)]
struct Geometry {
    sets: u32,
    /// `log2(line_bytes)`, when the line size is a power of two.
    line_shift: Option<u32>,
    /// `log2(sets)`, when the set count is a power of two.
    set_shift: Option<u32>,
    /// Whether the set index is XOR-folded (hashed and a power of two).
    fold: bool,
}

impl Geometry {
    fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        let log2 = |n: u32| n.is_power_of_two().then(|| n.trailing_zeros());
        let set_shift = log2(sets);
        Geometry {
            sets,
            line_shift: log2(cfg.line_bytes),
            set_shift,
            fold: cfg.hashed_index && set_shift.is_some(),
        }
    }

    /// The line index of `addr`: `addr / line_bytes`.
    #[inline]
    fn line(&self, addr: u32, line_bytes: u32) -> u32 {
        match self.line_shift {
            Some(k) => addr >> k,
            None => addr / line_bytes,
        }
    }

    /// `(line / sets, line % sets)`.
    #[inline]
    fn split(&self, line: u32) -> (u32, u32) {
        match self.set_shift {
            Some(k) => (line >> k, line & (self.sets - 1)),
            None => (line / self.sets, line % self.sets),
        }
    }
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let geo = Geometry::new(&cfg);
        let n = (geo.sets * cfg.ways) as usize;
        Cache {
            cfg,
            geo,
            lines: vec![Line { tag: 0, valid: false, dirty: false, last_use: 0 }; n],
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The `(set, tag)` of `addr`.
    #[inline]
    fn locate(&self, addr: u32) -> (u32, u32) {
        let (tag, low) = self.geo.split(self.geo.line(addr, self.cfg.line_bytes));
        let set = if self.geo.fold {
            // Two-level XOR fold: large power-of-two strides perturb the
            // index at every level, not just the first.
            let (above, tag_low) = self.geo.split(tag);
            low ^ tag_low ^ self.geo.split(above).1
        } else {
            low
        };
        (set, tag)
    }

    /// Inverse of `locate`: the line index of a resident (tag, set) pair.
    fn line_of(&self, tag: u32, set: u32) -> u32 {
        let low = if self.geo.fold {
            let (above, tag_low) = self.geo.split(tag);
            set ^ tag_low ^ self.geo.split(above).1
        } else {
            set
        };
        tag * self.geo.sets + low
    }

    /// Looks up `addr` without changing any state (no LRU update, no fill).
    #[must_use]
    pub fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.locate(addr);
        let set = set as usize;
        let ways = self.cfg.ways as usize;
        self.lines[set * ways..(set + 1) * ways].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Performs an access (read if `write` is false, write otherwise),
    /// updating LRU state and, on a miss, allocating the line (evicting the
    /// LRU way).
    ///
    /// The caller is responsible for modelling the latency and DRAM traffic
    /// of the returned fill/writeback.
    pub fn access(&mut self, addr: u32, write: bool) -> AccessOutcome {
        self.use_clock += 1;
        let (set, tag) = self.locate(addr);
        let set = set as usize;
        let ways = self.cfg.ways as usize;
        let base = set * ways;
        // Hit?
        for l in &mut self.lines[base..base + ways] {
            if l.valid && l.tag == tag {
                l.last_use = self.use_clock;
                l.dirty |= write;
                self.stats.hits += 1;
                return AccessOutcome::HIT;
            }
        }
        // Miss: pick victim = invalid way if any, else LRU.
        self.stats.misses += 1;
        self.stats.bytes_filled += u64::from(self.cfg.line_bytes);
        let victim = {
            let slice = &self.lines[base..base + ways];
            let idx = slice
                .iter()
                .enumerate()
                .find(|(_, l)| !l.valid)
                .map(|(i, _)| i)
                .unwrap_or_else(|| {
                    slice.iter().enumerate().min_by_key(|(_, l)| l.last_use).expect("ways > 0").0
                });
            base + idx
        };
        let old = self.lines[victim];
        let writeback_line = if old.valid && old.dirty {
            self.stats.writebacks += 1;
            self.stats.bytes_written_back += u64::from(self.cfg.line_bytes);
            Some(self.line_of(old.tag, set as u32) * self.cfg.line_bytes)
        } else {
            None
        };
        self.lines[victim] = Line { tag, valid: true, dirty: write, last_use: self.use_clock };
        AccessOutcome { hit: false, fill_line: Some(self.cfg.line_addr(addr)), writeback_line }
    }

    /// Writes back and invalidates every line; returns the addresses of the
    /// dirty lines that were written back.
    pub fn flush(&mut self) -> Vec<u32> {
        let sets = self.geo.sets;
        let ways = self.cfg.ways as usize;
        let mut dirty = Vec::new();
        for set in 0..sets {
            for way in 0..ways {
                let l = self.lines[set as usize * ways + way];
                if l.valid && l.dirty {
                    dirty.push(self.line_of(l.tag, set) * self.cfg.line_bytes);
                    self.stats.writebacks += 1;
                    self.stats.bytes_written_back += u64::from(self.cfg.line_bytes);
                }
                let slot = &mut self.lines[set as usize * ways + way];
                slot.valid = false;
                slot.dirty = false;
            }
        }
        dirty
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KB {}-way cache ({} B lines, {:.1}% hit rate)",
            self.cfg.size_bytes / 1024,
            self.cfg.ways,
            self.cfg.line_bytes,
            self.stats.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_dcache().sets(), 128);
        assert_eq!(CacheConfig::paper_icache().sets(), 48);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::paper_dcache());
        let out = c.access(0x40, false);
        assert!(!out.hit);
        assert_eq!(out.fill_line, Some(0x40));
        assert_eq!(out.writeback_line, None);
        assert!(c.access(0x7f, false).hit, "same line must hit");
        assert!(!c.access(0x80, false).hit, "next line must miss");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Tiny cache: 2 ways, 1 set, 64 B lines.
        let cfg = CacheConfig { size_bytes: 128, ways: 2, line_bytes: 64, hashed_index: false };
        let mut c = Cache::new(cfg);
        c.access(0, false); // line A
        c.access(64, false); // line B
        c.access(0, false); // touch A; B is now LRU
        let out = c.access(128, false); // fills line C, must evict B
        assert!(!out.hit);
        assert!(c.probe(0), "A must survive");
        assert!(!c.probe(64), "B must be evicted");
        assert!(c.probe(128));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let cfg = CacheConfig { size_bytes: 64, ways: 1, line_bytes: 64, hashed_index: false };
        let mut c = Cache::new(cfg);
        c.access(0, true); // dirty line at 0
        let out = c.access(64, false);
        assert_eq!(out.writeback_line, Some(0));
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().bytes_written_back, 64);
        // Clean eviction produces no writeback.
        let out2 = c.access(128, false);
        assert_eq!(out2.writeback_line, None);
    }

    #[test]
    fn writeback_address_reconstruction_round_trips() {
        let cfg = CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, hashed_index: false };
        let mut c = Cache::new(cfg);
        // Use a high address; evict it via two conflicting fills.
        let addr = 0x0012_3440; // arbitrary, line-aligned
        c.access(addr, true);
        let set_stride = cfg.sets() * cfg.line_bytes;
        c.access(addr + set_stride, false);
        let out = c.access(addr + 2 * set_stride, false);
        assert_eq!(out.writeback_line, Some(cfg.line_addr(addr)));
    }

    #[test]
    fn flush_writes_back_dirty_lines_and_invalidates() {
        let cfg = CacheConfig { size_bytes: 256, ways: 2, line_bytes: 64, hashed_index: false };
        let mut c = Cache::new(cfg);
        c.access(0, true);
        c.access(64, false);
        let dirty = c.flush();
        assert_eq!(dirty, vec![0]);
        assert!(!c.probe(0));
        assert!(!c.probe(64));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = Cache::new(CacheConfig::paper_dcache());
        for i in 0..10u32 {
            c.access(i * 4, false);
        }
        // 10 word accesses inside one 64 B line: 1 miss + 9 hits.
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 9);
        assert!((c.stats().hit_rate() - 0.9).abs() < 1e-9);
        assert_eq!(c.stats().bytes_filled, 64);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn degenerate_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            line_bytes: 64,
            hashed_index: false,
        });
    }
}
