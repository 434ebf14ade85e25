//! Shared plumbing for the workload implementations: byte/word conversion,
//! contiguous partitioning, and the host↔kernel parameter-block convention.

use std::collections::BTreeMap;
use std::ops::Range;

use pim_asm::KernelBuilder;
use pim_isa::Reg;

/// Inter-region skew (three cache lines) added between a workload's MRAM /
/// flat-space buffers. Power-of-two-sized buffers at power-of-two-aligned
/// bases alias to the same cache set under the §V-D cache-centric model
/// (`A[x]`, `B[x]`, `C[x]` all landing in one set thrashes even an 8-way cache);
/// real allocators break this alignment with header/metadata padding, and
/// this constant plays that role.
pub const REGION_SKEW: u32 = 192;

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
pub fn chunk_range(total: usize, parts: usize, idx: usize) -> Range<usize> {
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
pub fn emit_tasklet_byte_range(
    k: &mut KernelBuilder,
    nbytes: Reg,
    t: Reg,
    start: Reg,
    end: Reg,
    n_tasklets: u32,
) {
    use pim_isa::{AluOp, Cond};
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

/// Gathers per-DPU word buffers from MRAM with one *parallel* transfer
/// (the SDK's `dpu_push_xfer(FROM_DPU)` pads every DPU to the largest
/// buffer), then trims each DPU's result to its actual length.
#[must_use]
pub fn parallel_pull_words(
    sys: &mut pim_host::PimSystem,
    addr: u32,
    lens_bytes: &[u32],
) -> Vec<Vec<i32>> {
    let mut scratch = Vec::new();
    parallel_pull_words_into(sys, addr, lens_bytes, &mut scratch)
}

/// [`parallel_pull_words`] with a caller-held raw-byte scratch buffer, so
/// launch loops (BFS levels, MLP layers) and experiment sweeps reuse the
/// per-DPU pull allocations instead of growing fresh ones every iteration.
#[must_use]
pub fn parallel_pull_words_into(
    sys: &mut pim_host::PimSystem,
    addr: u32,
    lens_bytes: &[u32],
    scratch: &mut Vec<Vec<u8>>,
) -> Vec<Vec<i32>> {
    let max = lens_bytes.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return vec![Vec::new(); lens_bytes.len()];
    }
    sys.pull_from_mram_into(addr, max, scratch);
    scratch.iter().zip(lens_bytes).map(|(b, &l)| from_bytes(&b[..l as usize])).collect()
}

/// Compares a simulated output word stream against the reference,
/// reporting the first divergence.
///
/// # Errors
///
/// Returns a description of the first mismatching element (or a length
/// mismatch).
pub fn validate_words(name: &str, got: &[i32], expect: &[i32]) -> Result<(), String> {
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

/// Assembles a [`crate::WorkloadRun`] from a finished system, harvesting
/// the structured event trace (if tracing was enabled) alongside the
/// timeline. Every workload's `run` ends here so traces are never lost.
#[must_use]
pub fn finish_run(
    sys: &mut pim_host::PimSystem,
    per_dpu: Vec<pim_dpu::DpuRunStats>,
    validation: Result<(), String>,
) -> crate::WorkloadRun {
    crate::WorkloadRun { timeline: *sys.timeline(), per_dpu, validation, trace: sys.take_trace() }
}

/// The host↔kernel parameter block: an ordered list of named `u32` values
/// living in the WRAM symbol `"params"`, mirroring how PrIM host code sets
/// scalars like `size_per_dpu` before launch (paper Fig 2(a), line 18-20).
#[derive(Debug, Clone)]
pub struct Params {
    offsets: BTreeMap<String, u32>,
    order: Vec<String>,
}

impl Params {
    /// Declares the parameter block in the kernel (allocates the WRAM
    /// global and records each name's offset).
    pub fn define(k: &mut KernelBuilder, names: &[&str]) -> Self {
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
    pub fn load(&self, k: &mut KernelBuilder, dst: Reg, name: &str) {
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
    pub fn bytes(&self, values: &[(&str, u32)]) -> Vec<u8> {
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
