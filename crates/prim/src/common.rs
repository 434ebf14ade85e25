//! Shared plumbing for the workload implementations: byte/word conversion,
//! contiguous partitioning, the host↔kernel parameter-block convention, and
//! the `Stage` every workload's host side runs through.

use std::collections::BTreeMap;
use std::ops::Range;

use pim_asm::{DpuProgram, KernelBuilder};
use pim_dpu::{DpuRunStats, SimError};
use pim_host::PimSystem;
use pim_isa::{AluOp, Cond, Reg};

use crate::{RunConfig, WorkloadRun};

/// Inter-region skew (three cache lines) added between a workload's MRAM /
/// flat-space buffers. Power-of-two-sized buffers at power-of-two-aligned
/// bases alias to the same cache set under the §V-D cache-centric model
/// (`A[x]`, `B[x]`, `C[x]` all landing in one set thrashes even an 8-way cache);
/// real allocators break this alignment with header/metadata padding, and
/// this constant plays that role.
pub(crate) const REGION_SKEW: u32 = 192;

/// The span a `bytes`-long buffer takes in a workload's layout: rounded up
/// to the 8-byte DMA granule, plus [`REGION_SKEW`] before the next buffer.
#[must_use]
pub(crate) fn region(bytes: u32) -> u32 {
    bytes.div_ceil(8) * 8 + REGION_SKEW
}

/// Serializes `i32` words little-endian.
#[must_use]
pub fn to_bytes(words: &[i32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Deserializes little-endian `i32` words.
///
/// # Panics
///
/// Panics if `bytes` is not a multiple of 4.
#[must_use]
pub fn from_bytes(bytes: &[u8]) -> Vec<i32> {
    assert_eq!(bytes.len() % 4, 0, "byte buffer must hold whole words");
    bytes.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().expect("chunk of 4"))).collect()
}

/// Splits `total` items into `parts` contiguous chunks, spreading the
/// remainder over the first chunks; returns chunk `idx`'s range.
///
/// # Panics
///
/// Panics if `parts == 0` or `idx >= parts`.
#[must_use]
pub(crate) fn chunk_range(total: usize, parts: usize, idx: usize) -> Range<usize> {
    assert!(parts > 0 && idx < parts);
    let base = total / parts;
    let rem = total % parts;
    let start = idx * base + idx.min(rem);
    let len = base + usize::from(idx < rem);
    start..(start + len).min(total)
}

/// Emits the contiguous per-tasklet byte-range split used by the flat
/// (cache-centric) kernel variants: given the total byte count in `nbytes`
/// and the tasklet id in `t`, computes `start`/`end` byte offsets of this
/// tasklet's share (word-aligned; the last tasklet absorbs the tail).
///
/// Clobbers `start` and `end`; `nbytes` and `t` are read-only.
pub(crate) fn emit_tasklet_byte_range(
    k: &mut KernelBuilder,
    nbytes: Reg,
    t: Reg,
    start: Reg,
    end: Reg,
    n_tasklets: u32,
) {
    // end = word-rounded share = (nbytes / T) & !3
    k.alu(AluOp::Div, end, nbytes, n_tasklets as i32);
    k.alu(AluOp::Srl, end, end, 2);
    k.alu(AluOp::Sll, end, end, 2);
    // start = t * share; end = start + share.
    k.mul(start, end, t);
    k.add(end, start, end);
    // The last tasklet absorbs the remainder.
    let not_last = k.fresh_label("range_not_last");
    k.branch(Cond::Ne, t, n_tasklets as i32 - 1, &not_last);
    k.mov(end, nbytes);
    k.place(&not_last);
}

/// Emits the contiguous per-tasklet row split of the row-parallel kernels:
/// `share = rows / T`, `start = share * t`, `end = start + share`, and the
/// last tasklet absorbs the remainder (`end = rows`).
///
/// Clobbers `share`, `start` and `end`; `rows` and `t` are read-only.
pub(crate) fn emit_tasklet_rows(
    k: &mut KernelBuilder,
    rows: Reg,
    t: Reg,
    [share, start, end]: [Reg; 3],
    n_tasklets: u32,
) {
    k.alu(AluOp::Div, share, rows, n_tasklets as i32);
    k.mul(start, share, t);
    k.add(end, start, share);
    let not_last = k.fresh_label("rows_not_last");
    k.branch(Cond::Ne, t, n_tasklets as i32 - 1, &not_last);
    k.mov(end, rows);
    k.place(&not_last);
}

/// Compares a simulated output word stream against the reference,
/// reporting the first divergence.
///
/// # Errors
///
/// Returns a description of the first mismatching element (or a length
/// mismatch).
pub(crate) fn validate_words(name: &str, got: &[i32], expect: &[i32]) -> Result<(), String> {
    if got.len() != expect.len() {
        return Err(format!(
            "{name}: length mismatch, got {} words, expected {}",
            got.len(),
            expect.len()
        ));
    }
    match got.iter().zip(expect).position(|(g, e)| g != e) {
        None => Ok(()),
        Some(at) => Err(format!(
            "{name}: mismatch at element {at}: got {}, expected {}",
            got[at], expect[at]
        )),
    }
}

/// The host↔kernel parameter block: an ordered list of named `u32` values
/// living in the WRAM symbol `"params"`, mirroring how PrIM host code sets
/// scalars like `size_per_dpu` before launch (paper Fig 2(a), line 18-20).
#[derive(Debug, Clone)]
pub(crate) struct Params {
    offsets: BTreeMap<String, u32>,
    order: Vec<String>,
}

impl Params {
    /// Declares the parameter block in the kernel (allocates the WRAM
    /// global and records each name's offset).
    pub(crate) fn define(k: &mut KernelBuilder, names: &[&str]) -> Self {
        let base = k.global_zeroed("params", names.len() as u32 * 4);
        let mut offsets = BTreeMap::new();
        let mut order = Vec::with_capacity(names.len());
        for (i, n) in names.iter().enumerate() {
            offsets.insert((*n).to_string(), base + i as u32 * 4);
            order.push((*n).to_string());
        }
        Params { offsets, order }
    }

    /// Emits code loading parameter `name` into `dst` (clobbers only `dst`).
    ///
    /// # Panics
    ///
    /// Panics if the parameter was not declared.
    pub(crate) fn load(&self, k: &mut KernelBuilder, dst: Reg, name: &str) {
        let addr = *self.offsets.get(name).unwrap_or_else(|| panic!("unknown parameter `{name}`"));
        k.movi(dst, addr as i32);
        k.lw(dst, dst, 0);
    }

    /// Serializes values for the host push, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not provide every declared parameter.
    #[must_use]
    pub(crate) fn bytes(&self, values: &[(&str, u32)]) -> Vec<u8> {
        let map: BTreeMap<&str, u32> = values.iter().copied().collect();
        assert_eq!(map.len(), self.order.len(), "must set every parameter exactly once");
        self.order
            .iter()
            .flat_map(|n| {
                map.get(n.as_str())
                    .unwrap_or_else(|| panic!("missing parameter `{n}`"))
                    .to_le_bytes()
            })
            .collect()
    }
}

/// One run's way onto its DPUs: the loaded [`PimSystem`], where the
/// workload's buffers live, the parameter block, the per-DPU statistics
/// merged across launches, and the gather.
///
/// A workload places each buffer at an *offset* of its own choosing; the
/// stage decides what the offset means. In the scratchpad-centric model it
/// is an MRAM address, and inputs are pushed there over the channel. In the
/// cache-centric model (§V-D, one DPU) it is relative to the flat
/// DRAM-backed space, which starts at the program's heap rounded up to a
/// 64-byte line, and inputs are written there in place. [`Stage::addr`] is
/// the address the kernel sees.
///
/// The stage keeps no copy of staged data: each chunk is built, handed to
/// the system and dropped.
#[derive(Debug)]
pub(crate) struct Stage {
    sys: PimSystem,
    params: Params,
    /// The address of offset 0: 0 in MRAM, or the flat space's first line.
    base: u32,
    cached: bool,
    per_dpu: Vec<DpuRunStats>,
    /// Per-DPU pull buffers, reused by every gather and symbol pull.
    scratch: Vec<Vec<u8>>,
}

impl Stage {
    /// Allocates `rc.n_dpus` DPUs and loads `kernel`'s program on each.
    ///
    /// # Errors
    ///
    /// Propagates the [`SimError`] of a program that does not fit a DPU.
    ///
    /// # Panics
    ///
    /// Panics on a cache-centric run of more than one DPU.
    pub(crate) fn new(
        rc: &RunConfig,
        (program, params): (DpuProgram, Params),
    ) -> Result<Self, SimError> {
        let cached = rc.cached();
        if cached {
            assert_eq!(rc.n_dpus, 1, "cache-centric runs are single-DPU");
        }
        let mut sys = PimSystem::new(rc.n_dpus, rc.dpu.clone(), rc.xfer);
        sys.load(&program)?;
        let base = if cached { program.heap_base.div_ceil(64) * 64 } else { 0 };
        Ok(Stage { sys, params, base, cached, per_dpu: Vec::new(), scratch: Vec::new() })
    }

    /// Number of DPUs in the run.
    #[must_use]
    pub(crate) fn n_dpus(&self) -> usize {
        self.sys.n_dpus() as usize
    }

    /// The address the kernel sees for buffer offset `off`.
    #[must_use]
    pub(crate) fn addr(&self, off: u32) -> u32 {
        self.base + off
    }

    /// Stages one buffer per DPU at `off`: DPU `d` gets `chunk(d)`, pushed
    /// in one parallel transfer, or written in place on a cached run.
    ///
    /// # Errors
    ///
    /// Never in practice: the stage builds one chunk per DPU.
    pub(crate) fn scatter(
        &mut self,
        off: u32,
        chunk: impl Fn(usize) -> Vec<u8>,
    ) -> Result<(), SimError> {
        if self.cached {
            self.sys.dpu_mut(0).write_wram(self.base + off, &chunk(0));
            return Ok(());
        }
        let chunks: Vec<Vec<u8>> = (0..self.n_dpus()).map(chunk).collect();
        self.sys.try_push_to_mram(off, &chunks.iter().map(Vec::as_slice).collect::<Vec<_>>())
    }

    /// [`Stage::scatter`] of `words` split into contiguous
    /// [`chunk_range`]s, one per DPU.
    ///
    /// # Errors
    ///
    /// As [`Stage::scatter`].
    pub(crate) fn scatter_words(&mut self, off: u32, words: &[i32]) -> Result<(), SimError> {
        let n_dpus = self.n_dpus();
        self.scatter(off, |d| to_bytes(&words[chunk_range(words.len(), n_dpus, d)]))
    }

    /// Stages the same bytes on every DPU at `off`: one broadcast, or one
    /// write in place on a cached run.
    pub(crate) fn broadcast(&mut self, off: u32, data: &[u8]) {
        if self.cached {
            self.sys.dpu_mut(0).write_wram(self.base + off, data);
        } else {
            self.sys.broadcast_to_mram(off, data);
        }
    }

    /// Reserves a zero-filled `len`-byte output region at `off`. MRAM
    /// starts zeroed; the flat space is grown to cover it.
    pub(crate) fn zeroed(&mut self, off: u32, len: u32) {
        if self.cached {
            self.sys.dpu_mut(0).write_wram(self.base + off, &vec![0u8; len as usize]);
        }
    }

    /// The parameter block of every DPU, serialized from `values(d)`.
    fn param_bytes<const N: usize>(
        &self,
        values: impl Fn(usize) -> [(&'static str, u32); N],
    ) -> Vec<Vec<u8>> {
        (0..self.n_dpus()).map(|d| self.params.bytes(&values(d))).collect()
    }

    /// Pushes DPU `d`'s parameter block, `values(d)`, in one parallel
    /// transfer into the `"params"` symbol.
    ///
    /// # Errors
    ///
    /// Never in practice: the stage builds one block per DPU.
    pub(crate) fn params<const N: usize>(
        &mut self,
        values: impl Fn(usize) -> [(&'static str, u32); N],
    ) -> Result<(), SimError> {
        let blocks = self.param_bytes(values);
        self.sys.try_push_to_symbol("params", &blocks.iter().map(Vec::as_slice).collect::<Vec<_>>())
    }

    /// Writes DPU `d`'s parameter block, `values(d)`, in place, pricing no
    /// transfer.
    pub(crate) fn params_in_place<const N: usize>(
        &mut self,
        values: impl Fn(usize) -> [(&'static str, u32); N],
    ) {
        for (d, block) in self.param_bytes(values).iter().enumerate() {
            self.sys.dpu_mut(d as u32).write_wram_symbol("params", block);
        }
    }

    /// Broadcasts `data` into the WRAM symbol `name` of every DPU.
    pub(crate) fn broadcast_symbol(&mut self, name: &str, data: &[u8]) {
        self.sys.broadcast_to_symbol(name, data);
    }

    /// Copies `data` to one DPU's MRAM at `off` (a serial transfer).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadDpuIndex`] when `dpu` is out of range.
    pub(crate) fn copy_to(&mut self, dpu: usize, off: u32, data: &[u8]) -> Result<(), SimError> {
        self.sys.try_copy_to_mram(dpu as u32, off, data)
    }

    /// Reads `len` bytes at `off` back from one DPU's MRAM.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadDpuIndex`] when `dpu` is out of range.
    pub(crate) fn copy_from(
        &mut self,
        dpu: usize,
        off: u32,
        len: u32,
    ) -> Result<Vec<i32>, SimError> {
        Ok(from_bytes(&self.sys.try_copy_from_mram(dpu as u32, off, len)?))
    }

    /// Launches the kernel on every DPU. The first launch's statistics are
    /// kept as they are; later launches merge into them.
    ///
    /// # Errors
    ///
    /// Propagates the [`SimError`] of the lowest-indexed faulting DPU.
    pub(crate) fn launch(&mut self) -> Result<(), SimError> {
        let report = self.sys.launch_all()?;
        if self.per_dpu.is_empty() {
            self.per_dpu = report.per_dpu;
        } else {
            for (acc, s) in self.per_dpu.iter_mut().zip(&report.per_dpu) {
                acc.merge(s);
            }
        }
        Ok(())
    }

    /// Reads the WRAM symbol `name` back from every DPU in one parallel
    /// transfer.
    pub(crate) fn pull_symbol(&mut self, name: &str) -> &[Vec<u8>] {
        self.sys.pull_from_symbol_into(name, &mut self.scratch);
        &self.scratch
    }

    /// Reads `len` bytes at `off` back from every DPU: one parallel pull,
    /// or a read of the one DPU's flat space on a cached run.
    pub(crate) fn pull(&mut self, off: u32, len: u32) -> &[Vec<u8>] {
        if self.cached {
            self.scratch = vec![self.sys.dpu(0).read_wram(self.base + off, len)];
        } else {
            self.sys.pull_from_mram_into(off, len, &mut self.scratch);
        }
        &self.scratch
    }

    /// Gathers DPU `d`'s `lens_bytes[d]` output bytes at `off` as words,
    /// concatenated in DPU order: one [`Stage::pull`] of the largest length
    /// (the SDK pads every DPU to it), each DPU's part trimmed to its own.
    /// Nothing moves when every length is 0.
    pub(crate) fn gather(&mut self, off: u32, lens_bytes: &[u32]) -> Vec<i32> {
        let max = lens_bytes.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return Vec::new();
        }
        let mut words = Vec::with_capacity(lens_bytes.iter().sum::<u32>() as usize / 4);
        for (b, &l) in self.pull(off, max).iter().zip(lens_bytes) {
            words.extend(
                b[..l as usize]
                    .chunks_exact(4)
                    .map(|c| i32::from_le_bytes(c.try_into().expect("chunk of 4"))),
            );
        }
        words
    }

    /// Ends the run: the timeline, the merged per-DPU statistics, the
    /// event trace (when the DPUs record one) and the validation result.
    #[must_use]
    pub(crate) fn finish(mut self, validation: Result<(), String>) -> WorkloadRun {
        let trace = self.sys.take_trace();
        WorkloadRun { timeline: *self.sys.timeline(), per_dpu: self.per_dpu, validation, trace }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip() {
        let words = vec![1, -2, i32::MAX, i32::MIN];
        assert_eq!(from_bytes(&to_bytes(&words)), words);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for total in [0usize, 1, 7, 100, 101] {
            for parts in [1usize, 3, 7, 16] {
                let mut covered = 0;
                let mut prev_end = 0;
                for i in 0..parts {
                    let r = chunk_range(total, parts, i);
                    assert_eq!(r.start, prev_end, "chunks must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, total, "total={total} parts={parts}");
                assert_eq!(prev_end, total);
            }
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        for i in 0..7 {
            let len = chunk_range(100, 7, i).len();
            assert!(len == 14 || len == 15);
        }
    }

    #[test]
    fn params_block_layout_and_serialization() {
        let mut k = KernelBuilder::new();
        let p = Params::define(&mut k, &["n", "base"]);
        let r = k.reg("r");
        p.load(&mut k, r, "n");
        p.load(&mut k, r, "base");
        k.stop();
        let program = k.build().unwrap();
        let sym = program.symbol("params").unwrap();
        assert_eq!(sym.size, 8);
        let bytes = p.bytes(&[("base", 7), ("n", 42)]);
        // Declaration order wins: n first.
        assert_eq!(from_bytes(&bytes), vec![42, 7]);
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn params_missing_value_panics() {
        let mut k = KernelBuilder::new();
        let p = Params::define(&mut k, &["n", "base"]);
        let _ = p.bytes(&[("n", 1), ("typo", 2)]);
    }
}
