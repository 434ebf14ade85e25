//! The fuzzer's coverage map: (instruction class × hazard kind × memory
//! pressure × tasklet bucket).
//!
//! Each case contributes its static instruction facts (class and hazard
//! kind, from the same [`DecodedProgram`] side table the fast loop runs
//! on) crossed with two dynamic facts about the run: how hard it drove
//! the memory engine and how many tasklets it ran. The campaign asks the
//! map for an unhit (class × hazard) cell each round and passes it to the
//! generator as a focus, closing the feedback loop.
//!
//! Hazard kinds are recovered from decoded facts alone: an instruction
//! whose `rf_hazard` exceeds what its source *mask* parities explain must
//! read some register twice (duplicates collapse to one mask bit but
//! still pay the bank conflict).

use pim_isa::{DecodedInstr, DecodedProgram, InstrClass};
use pim_rng::StdRng;
use pimulator::report::{Json, Table};

/// Register-file hazard shape of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HazardKind {
    /// No same-bank source pair.
    None,
    /// Two *distinct* sources in one bank.
    SameBank,
    /// A register read twice by the same instruction.
    DupSource,
}

impl HazardKind {
    /// All kinds, in reporting order.
    pub const ALL: [HazardKind; 3] =
        [HazardKind::None, HazardKind::SameBank, HazardKind::DupSource];

    /// Stable lowercase name.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            HazardKind::None => "none",
            HazardKind::SameBank => "same-bank",
            HazardKind::DupSource => "dup-source",
        }
    }
}

/// How hard a run drove the MRAM engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MemPressure {
    /// No DMA at all.
    Idle,
    /// At most a couple of transfers per tasklet.
    Streaming,
    /// Sustained bursts.
    Burst,
}

impl MemPressure {
    /// All pressures, in reporting order.
    pub(crate) const ALL: [MemPressure; 3] =
        [MemPressure::Idle, MemPressure::Streaming, MemPressure::Burst];

    /// Buckets a run's observed DMA request count.
    #[must_use]
    pub(crate) fn classify(dma_requests: u64, tasklets: u32) -> Self {
        if dma_requests == 0 {
            MemPressure::Idle
        } else if dma_requests <= 2 * u64::from(tasklets) {
            MemPressure::Streaming
        } else {
            MemPressure::Burst
        }
    }

    /// Stable lowercase name.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MemPressure::Idle => "idle",
            MemPressure::Streaming => "streaming",
            MemPressure::Burst => "burst",
        }
    }
}

/// Tasklet-count bucket (the revolver behaves qualitatively differently
/// under-, at-, and over-subscribed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum TaskletBucket {
    /// One tasklet: no interleaving at all.
    Single,
    /// 2–4: the revolver is under-subscribed.
    Few,
    /// 5+: enough threads to cover the revolver gap.
    Many,
}

impl TaskletBucket {
    /// All buckets, in reporting order.
    pub(crate) const ALL: [TaskletBucket; 3] =
        [TaskletBucket::Single, TaskletBucket::Few, TaskletBucket::Many];

    /// Buckets a tasklet count.
    #[must_use]
    pub(crate) fn classify(tasklets: u32) -> Self {
        match tasklets {
            0 | 1 => TaskletBucket::Single,
            2..=4 => TaskletBucket::Few,
            _ => TaskletBucket::Many,
        }
    }

    /// Stable name.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            TaskletBucket::Single => "1",
            TaskletBucket::Few => "2-4",
            TaskletBucket::Many => "5+",
        }
    }
}

/// Shape of a run's DMA traffic, recovered from the run stats alone:
/// average DRAM bytes moved per request separates bulk streaming from the
/// small scattered transfers of gather-style kernels (the sparse BSR
/// family's `x[colidx]` loads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DmaShape {
    /// No DMA at all.
    None,
    /// Large, regular transfers.
    Bulk,
    /// Small transfers at scattered addresses (≤ [`GATHER_BYTES_PER_REQ`]
    /// bytes per request on average).
    Gather,
}

/// Average read-bytes-per-request at or below which a run's DMA traffic
/// counts as a gather (one or two 8-byte beats per request).
pub(crate) const GATHER_BYTES_PER_REQ: u64 = 16;

impl DmaShape {
    /// All shapes, in reporting order.
    pub(crate) const ALL: [DmaShape; 3] = [DmaShape::None, DmaShape::Bulk, DmaShape::Gather];

    /// Buckets a run's DMA request count and DRAM read traffic.
    #[must_use]
    pub(crate) fn classify(dma_requests: u64, dram_bytes_read: u64) -> Self {
        if dma_requests == 0 {
            DmaShape::None
        } else if dram_bytes_read / dma_requests <= GATHER_BYTES_PER_REQ {
            DmaShape::Gather
        } else {
            DmaShape::Bulk
        }
    }

    /// Stable lowercase name.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DmaShape::None => "none",
            DmaShape::Bulk => "bulk",
            DmaShape::Gather => "gather",
        }
    }
}

/// How many launches a case chained (WRAM/MRAM persist across launches;
/// the NN-inference workloads stage multi-kernel pipelines this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ChainDepth {
    /// One launch.
    Single,
    /// Two or more launches of the same loaded program.
    Chained,
}

impl ChainDepth {
    /// All depths, in reporting order.
    pub(crate) const ALL: [ChainDepth; 2] = [ChainDepth::Single, ChainDepth::Chained];

    /// Buckets a case's launch count.
    #[must_use]
    pub(crate) fn classify(launches: u32) -> Self {
        if launches > 1 {
            ChainDepth::Chained
        } else {
            ChainDepth::Single
        }
    }

    /// Stable lowercase name.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ChainDepth::Single => "single",
            ChainDepth::Chained => "chained",
        }
    }
}

/// Classifies one decoded instruction's hazard kind from decoded facts
/// alone (see the module docs for why duplicates are recoverable).
#[must_use]
pub(crate) fn instr_hazard(d: &DecodedInstr) -> HazardKind {
    if d.rf_hazard == 0 {
        return HazardKind::None;
    }
    let mut even = 0u32;
    let mut odd = 0u32;
    let mut mask = d.src_mask;
    while mask != 0 {
        let r = mask.trailing_zeros();
        if r.is_multiple_of(2) {
            even += 1;
        } else {
            odd += 1;
        }
        mask &= mask - 1;
    }
    let from_mask = even.saturating_sub(1) + odd.saturating_sub(1);
    if u32::from(d.rf_hazard) > from_mask {
        HazardKind::DupSource
    } else {
        HazardKind::SameBank
    }
}

fn class_idx(c: InstrClass) -> usize {
    match c {
        InstrClass::Arithmetic => 0,
        InstrClass::LoadStore => 1,
        InstrClass::Dma => 2,
        InstrClass::Control => 3,
        InstrClass::Sync => 4,
        InstrClass::Other => 5,
    }
}

fn class_name(c: InstrClass) -> &'static str {
    match c {
        InstrClass::Arithmetic => "arithmetic",
        InstrClass::LoadStore => "load-store",
        InstrClass::Dma => "dma",
        InstrClass::Control => "control",
        InstrClass::Sync => "sync",
        InstrClass::Other => "other",
    }
}

fn hazard_idx(h: HazardKind) -> usize {
    match h {
        HazardKind::None => 0,
        HazardKind::SameBank => 1,
        HazardKind::DupSource => 2,
    }
}

/// Whether a (class, hazard) cell is reachable at all: `sync` and `other`
/// instructions read at most one register, so only the hazard-free column
/// exists for them. 14 of the 18 cells are reachable.
#[must_use]
pub fn class_hazard_reachable(class: InstrClass, hz: HazardKind) -> bool {
    match class {
        InstrClass::Sync | InstrClass::Other => hz == HazardKind::None,
        _ => true,
    }
}

/// Number of reachable (class × hazard) cells.
#[must_use]
pub(crate) fn reachable_class_hazard_cells() -> u32 {
    let mut n = 0;
    for class in InstrClass::ALL {
        for hz in HazardKind::ALL {
            if class_hazard_reachable(class, hz) {
                n += 1;
            }
        }
    }
    n
}

/// Hit counts over the full 6 × 3 × 3 × 3 cell space, plus the per-case
/// (DMA shape × chain depth) grid.
#[derive(Debug, Clone, Default)]
pub struct CoverageMap {
    hits: [[[[u64; 3]; 3]; 3]; 6],
    shape_hits: [[u64; 2]; 3],
    cases: u64,
}

impl CoverageMap {
    /// An empty map.
    #[must_use]
    pub(crate) fn new() -> Self {
        CoverageMap::default()
    }

    /// Records one case: every static instruction of `decoded`, crossed
    /// with the run's memory pressure and tasklet bucket.
    pub(crate) fn record_program(
        &mut self,
        decoded: &DecodedProgram,
        tasklets: u32,
        mem: MemPressure,
    ) {
        let mi = MemPressure::ALL.iter().position(|&m| m == mem).expect("mem in ALL");
        let bucket = TaskletBucket::classify(tasklets);
        let bi = TaskletBucket::ALL.iter().position(|&b| b == bucket).expect("bucket in ALL");
        for pc in 0..decoded.len() as u32 {
            let d = decoded.get(pc).expect("pc < len");
            let hz = instr_hazard(d);
            self.hits[class_idx(d.class)][hazard_idx(hz)][mi][bi] += 1;
        }
        self.cases += 1;
    }

    /// Records one case's DMA shape × chain depth cell (one hit per case,
    /// unlike the per-instruction class × hazard grid).
    pub(crate) fn record_shape(&mut self, shape: DmaShape, depth: ChainDepth) {
        let si = DmaShape::ALL.iter().position(|&s| s == shape).expect("shape in ALL");
        let di = ChainDepth::ALL.iter().position(|&d| d == depth).expect("depth in ALL");
        self.shape_hits[si][di] += 1;
    }

    /// Hit count of one (DMA shape × chain depth) cell.
    #[must_use]
    pub(crate) fn shape_hits(&self, shape: DmaShape, depth: ChainDepth) -> u64 {
        let si = DmaShape::ALL.iter().position(|&s| s == shape).expect("shape in ALL");
        let di = ChainDepth::ALL.iter().position(|&d| d == depth).expect("depth in ALL");
        self.shape_hits[si][di]
    }

    /// The unhit (DMA shape × chain depth) cells, in reporting order. All
    /// six cells are reachable (a chained program may issue no DMA).
    #[must_use]
    pub(crate) fn unhit_shape_chain(&self) -> Vec<(DmaShape, ChainDepth)> {
        let mut out = Vec::new();
        for shape in DmaShape::ALL {
            for depth in ChainDepth::ALL {
                if self.shape_hits(shape, depth) == 0 {
                    out.push((shape, depth));
                }
            }
        }
        out
    }

    /// Picks a shape focus for the next batch: a random unhit (shape ×
    /// depth) cell, or `None` once the grid is saturated.
    #[must_use]
    pub(crate) fn pick_shape_focus(&self, rng: &mut StdRng) -> Option<(DmaShape, ChainDepth)> {
        let unhit = self.unhit_shape_chain();
        if unhit.is_empty() {
            None
        } else {
            Some(*rng.choose(&unhit))
        }
    }

    /// Total hits in one (class × hazard) cell, summed over the dynamic
    /// axes.
    #[must_use]
    pub(crate) fn class_hazard_hits(&self, class: InstrClass, hz: HazardKind) -> u64 {
        self.hits[class_idx(class)][hazard_idx(hz)].iter().flatten().sum()
    }

    /// (hit, reachable) cell counts of the class × hazard projection.
    #[must_use]
    pub fn class_hazard_coverage(&self) -> (u32, u32) {
        let mut hit = 0;
        for class in InstrClass::ALL {
            for hz in HazardKind::ALL {
                if class_hazard_reachable(class, hz) && self.class_hazard_hits(class, hz) > 0 {
                    hit += 1;
                }
            }
        }
        (hit, reachable_class_hazard_cells())
    }

    /// The reachable-but-unhit (class × hazard) cells, in reporting order.
    #[must_use]
    pub(crate) fn unhit_class_hazard(&self) -> Vec<(InstrClass, HazardKind)> {
        let mut out = Vec::new();
        for class in InstrClass::ALL {
            for hz in HazardKind::ALL {
                if class_hazard_reachable(class, hz) && self.class_hazard_hits(class, hz) == 0 {
                    out.push((class, hz));
                }
            }
        }
        out
    }

    /// Picks a generation focus: a random unhit reachable cell, or `None`
    /// once the projection is saturated (unfocused exploration then).
    #[must_use]
    pub(crate) fn pick_focus(&self, rng: &mut StdRng) -> Option<(InstrClass, HazardKind)> {
        let unhit = self.unhit_class_hazard();
        if unhit.is_empty() {
            None
        } else {
            Some(*rng.choose(&unhit))
        }
    }

    /// Hit count of a fully-qualified cell.
    #[must_use]
    pub(crate) fn cell_hits(
        &self,
        class: InstrClass,
        hz: HazardKind,
        mem: MemPressure,
        bucket: TaskletBucket,
    ) -> u64 {
        let mi = MemPressure::ALL.iter().position(|&m| m == mem).expect("mem in ALL");
        let bi = TaskletBucket::ALL.iter().position(|&b| b == bucket).expect("bucket in ALL");
        self.hits[class_idx(class)][hazard_idx(hz)][mi][bi]
    }

    /// JSON report: the class × hazard projection with reachability, plus
    /// every nonzero fully-qualified cell.
    #[must_use]
    pub(crate) fn json(&self) -> Json {
        let (hit, reachable) = self.class_hazard_coverage();
        let mut proj = Vec::new();
        for class in InstrClass::ALL {
            for hz in HazardKind::ALL {
                proj.push(Json::obj([
                    ("class", Json::Str(class_name(class).into())),
                    ("hazard", Json::Str(hz.as_str().into())),
                    ("reachable", Json::Bool(class_hazard_reachable(class, hz))),
                    ("hits", Json::UInt(self.class_hazard_hits(class, hz))),
                ]));
            }
        }
        let mut cells = Vec::new();
        for class in InstrClass::ALL {
            for hz in HazardKind::ALL {
                for mem in MemPressure::ALL {
                    for bucket in TaskletBucket::ALL {
                        let n = self.cell_hits(class, hz, mem, bucket);
                        if n > 0 {
                            cells.push(Json::obj([
                                ("class", Json::Str(class_name(class).into())),
                                ("hazard", Json::Str(hz.as_str().into())),
                                ("mem", Json::Str(mem.as_str().into())),
                                ("tasklets", Json::Str(bucket.as_str().into())),
                                ("hits", Json::UInt(n)),
                            ]));
                        }
                    }
                }
            }
        }
        let mut shape_cells = Vec::new();
        for shape in DmaShape::ALL {
            for depth in ChainDepth::ALL {
                shape_cells.push(Json::obj([
                    ("shape", Json::Str(shape.as_str().into())),
                    ("chain", Json::Str(depth.as_str().into())),
                    ("hits", Json::UInt(self.shape_hits(shape, depth))),
                ]));
            }
        }
        Json::obj([
            ("cases", Json::UInt(self.cases)),
            ("class_hazard_hit", Json::UInt(u64::from(hit))),
            ("class_hazard_reachable", Json::UInt(u64::from(reachable))),
            (
                "class_hazard_pct",
                Json::Num(if reachable == 0 {
                    0.0
                } else {
                    100.0 * f64::from(hit) / f64::from(reachable)
                }),
            ),
            ("class_hazard", Json::Arr(proj)),
            ("shape_chain", Json::Arr(shape_cells)),
            ("cells", Json::Arr(cells)),
        ])
    }

    /// Human-readable class × hazard matrix (`-` marks unreachable cells).
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(&["class", "none", "same-bank", "dup-source"]);
        for class in InstrClass::ALL {
            let cell = |hz| {
                if class_hazard_reachable(class, hz) {
                    self.class_hazard_hits(class, hz).to_string()
                } else {
                    "-".to_string()
                }
            };
            t.row_owned(vec![
                class_name(class).to_string(),
                cell(HazardKind::None),
                cell(HazardKind::SameBank),
                cell(HazardKind::DupSource),
            ]);
        }
        t
    }

    /// Human-readable DMA shape × chain depth matrix.
    #[must_use]
    pub(crate) fn shape_table(&self) -> Table {
        let mut t = Table::new(&["dma shape", "single", "chained"]);
        for shape in DmaShape::ALL {
            t.row_owned(vec![
                shape.as_str().to_string(),
                self.shape_hits(shape, ChainDepth::Single).to_string(),
                self.shape_hits(shape, ChainDepth::Chained).to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::{AluOp, Instruction, Operand, Reg};

    impl CoverageMap {
        /// Number of cases recorded.
        pub(crate) fn cases(&self) -> u64 {
            self.cases
        }
    }

    fn decoded(instrs: &[Instruction]) -> DecodedProgram {
        DecodedProgram::decode(instrs)
    }

    #[test]
    fn hazard_classification_from_decoded_facts() {
        let prog = decoded(&[
            // r1 + r2: different banks.
            Instruction::Alu {
                op: AluOp::Add,
                rd: Reg::r(0),
                ra: Reg::r(1),
                rb: Operand::Reg(Reg::r(2)),
            },
            // r2 + r4: both even.
            Instruction::Alu {
                op: AluOp::Add,
                rd: Reg::r(0),
                ra: Reg::r(2),
                rb: Operand::Reg(Reg::r(4)),
            },
            // r6 + r6: duplicate.
            Instruction::Alu {
                op: AluOp::Add,
                rd: Reg::r(0),
                ra: Reg::r(6),
                rb: Operand::Reg(Reg::r(6)),
            },
        ]);
        assert_eq!(instr_hazard(prog.get(0).unwrap()), HazardKind::None);
        assert_eq!(instr_hazard(prog.get(1).unwrap()), HazardKind::SameBank);
        assert_eq!(instr_hazard(prog.get(2).unwrap()), HazardKind::DupSource);
    }

    #[test]
    fn fourteen_class_hazard_cells_are_reachable() {
        assert_eq!(reachable_class_hazard_cells(), 14);
        assert!(!class_hazard_reachable(InstrClass::Sync, HazardKind::SameBank));
        assert!(!class_hazard_reachable(InstrClass::Other, HazardKind::DupSource));
        assert!(class_hazard_reachable(InstrClass::Dma, HazardKind::DupSource));
    }

    #[test]
    fn pressure_and_bucket_classification() {
        assert_eq!(MemPressure::classify(0, 8), MemPressure::Idle);
        assert_eq!(MemPressure::classify(16, 8), MemPressure::Streaming);
        assert_eq!(MemPressure::classify(17, 8), MemPressure::Burst);
        assert_eq!(TaskletBucket::classify(1), TaskletBucket::Single);
        assert_eq!(TaskletBucket::classify(4), TaskletBucket::Few);
        assert_eq!(TaskletBucket::classify(16), TaskletBucket::Many);
    }

    #[test]
    fn recording_marks_cells_and_focus_targets_unhit() {
        let mut map = CoverageMap::new();
        let prog = decoded(&[Instruction::Alu {
            op: AluOp::Add,
            rd: Reg::r(0),
            ra: Reg::r(2),
            rb: Operand::Reg(Reg::r(4)),
        }]);
        map.record_program(&prog, 4, MemPressure::Idle);
        assert_eq!(map.cases(), 1);
        assert_eq!(map.class_hazard_hits(InstrClass::Arithmetic, HazardKind::SameBank), 1);
        let (hit, reachable) = map.class_hazard_coverage();
        assert_eq!((hit, reachable), (1, 14));
        let unhit = map.unhit_class_hazard();
        assert_eq!(unhit.len(), 13);
        assert!(!unhit.contains(&(InstrClass::Arithmetic, HazardKind::SameBank)));
        let mut rng = StdRng::seed_from_u64(7);
        let focus = map.pick_focus(&mut rng).unwrap();
        assert!(unhit.contains(&focus));
    }

    #[test]
    fn report_shapes_render() {
        let map = CoverageMap::new();
        let j = map.json();
        assert!(j.render().contains("class_hazard_reachable"));
        assert!(j.render().contains("shape_chain"));
        assert!(map.table().render().contains("dup-source"));
        assert!(map.shape_table().render().contains("gather"));
    }

    #[test]
    fn dma_shape_and_chain_depth_classification() {
        assert_eq!(DmaShape::classify(0, 0), DmaShape::None);
        // 8 requests averaging 8 bytes each: gather.
        assert_eq!(DmaShape::classify(8, 64), DmaShape::Gather);
        // 4 requests averaging 256 bytes each: bulk.
        assert_eq!(DmaShape::classify(4, 1024), DmaShape::Bulk);
        assert_eq!(ChainDepth::classify(1), ChainDepth::Single);
        assert_eq!(ChainDepth::classify(3), ChainDepth::Chained);
    }

    #[test]
    fn shape_recording_marks_cells_and_focus_targets_unhit() {
        let mut map = CoverageMap::new();
        assert_eq!(map.unhit_shape_chain().len(), 6);
        map.record_shape(DmaShape::Gather, ChainDepth::Chained);
        assert_eq!(map.shape_hits(DmaShape::Gather, ChainDepth::Chained), 1);
        let unhit = map.unhit_shape_chain();
        assert_eq!(unhit.len(), 5);
        assert!(!unhit.contains(&(DmaShape::Gather, ChainDepth::Chained)));
        let mut rng = StdRng::seed_from_u64(9);
        let focus = map.pick_shape_focus(&mut rng).unwrap();
        assert!(unhit.contains(&focus));
    }
}
