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

/// The little-endian `i32` words of `bytes`, read where they lie (a
/// trailing partial word is ignored).
pub(crate) fn words(bytes: &[u8]) -> impl Iterator<Item = i32> + '_ {
    bytes.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().expect("chunk of 4")))
}

/// An element type a workload stages: its values are written
/// little-endian straight into a DPU's memory.
pub(crate) trait Elem: Copy {
    /// Bytes per element.
    const BYTES: usize;

    /// Writes `elems` into `out`, which is exactly their size.
    fn put(elems: &[Self], out: &mut [u8]);
}

impl Elem for i32 {
    const BYTES: usize = 4;

    fn put(elems: &[i32], out: &mut [u8]) {
        for (o, w) in out.chunks_exact_mut(4).zip(elems) {
            o.copy_from_slice(&w.to_le_bytes());
        }
    }
}

impl Elem for u8 {
    const BYTES: usize = 1;

    fn put(elems: &[u8], out: &mut [u8]) {
        out.copy_from_slice(elems);
    }
}

impl Elem for i8 {
    const BYTES: usize = 1;

    fn put(elems: &[i8], out: &mut [u8]) {
        for (o, &v) in out.iter_mut().zip(elems) {
            *o = v as u8;
        }
    }
}

/// The bytes `elems` take in a DPU's memory.
fn byte_len<T: Elem>(elems: &[T]) -> u32 {
    (elems.len() * T::BYTES) as u32
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
    let mut check = Check::new(name, expect.iter().copied());
    for &g in got {
        check.push(g);
    }
    check.finish()
}

/// The validation error naming output element `at`.
pub(crate) fn mismatch(name: &str, at: usize, got: i32, expect: i32) -> String {
    format!("{name}: mismatch at element {at}: got {got}, expected {expect}")
}

/// [`validate_words`] over streams: output words are pushed one at a time,
/// straight from where they lie, and the reference is any iterator — often
/// computed lazily from the inputs — so neither side is materialised. The
/// verdict and its text are [`validate_words`]'s: a length mismatch first,
/// else the first mismatching element.
pub(crate) struct Check<'n, I: Iterator<Item = i32>> {
    name: &'n str,
    expect: std::iter::Fuse<I>,
    /// Output words pushed so far.
    got: usize,
    /// Reference words consumed so far.
    expected: usize,
    /// The first mismatch: element, output word, reference word.
    first: Option<(usize, i32, i32)>,
}

impl<'n, I: Iterator<Item = i32>> Check<'n, I> {
    pub(crate) fn new(name: &'n str, expect: impl IntoIterator<IntoIter = I>) -> Self {
        Check { name, expect: expect.into_iter().fuse(), got: 0, expected: 0, first: None }
    }

    /// Compares the next output word with the next reference word; after
    /// the first mismatch, only counts.
    pub(crate) fn push(&mut self, got: i32) {
        if self.first.is_none() {
            if let Some(e) = self.expect.next() {
                self.expected += 1;
                if e != got {
                    self.first = Some((self.got, got, e));
                }
            }
        }
        self.got += 1;
    }

    /// The verdict, once every output word is pushed.
    ///
    /// # Errors
    ///
    /// As [`validate_words`].
    pub(crate) fn finish(self) -> Result<(), String> {
        let expected = self.expected + self.expect.count();
        if self.got != expected {
            return Err(format!(
                "{}: length mismatch, got {} words, expected {expected}",
                self.name, self.got
            ));
        }
        match self.first {
            None => Ok(()),
            Some((at, g, e)) => Err(mismatch(self.name, at, g, e)),
        }
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
/// workload's buffers live, the parameter block and the per-DPU statistics
/// merged across launches.
///
/// A workload places each buffer at an *offset* of its own choosing; the
/// stage decides what the offset means. In the scratchpad-centric model it
/// is an MRAM address, and inputs are pushed there over the channel. In the
/// cache-centric model (§V-D, one DPU) it is relative to the flat
/// DRAM-backed space, which starts at the program's heap rounded up to a
/// 64-byte line, and inputs are written there in place. [`Stage::addr`] is
/// the address the kernel sees.
///
/// The stage keeps no copy of staged data, in either direction: an input
/// is written from the workload's own array straight into each DPU's
/// memory, and an output is read, checked or folded where it lies, as the
/// SDK's `dpu_push_xfer` moves each DPU's slice straight out of the host
/// array and back (paper Fig 2(a)).
#[derive(Debug)]
pub(crate) struct Stage {
    sys: PimSystem,
    params: Params,
    /// The address of offset 0: 0 in MRAM, or the flat space's first line.
    base: u32,
    cached: bool,
    per_dpu: Vec<DpuRunStats>,
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
        Ok(Stage { sys, params, base, cached, per_dpu: Vec::new() })
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

    /// Stages one buffer per DPU at `off`: DPU `d` gets the elements
    /// `chunk(d)`, written straight into its bank in one parallel transfer,
    /// or into the flat space in place on a cached run.
    ///
    /// # Errors
    ///
    /// Never in practice: the stage sizes one chunk per DPU.
    pub(crate) fn scatter<'a, T: Elem + 'a>(
        &mut self,
        off: u32,
        chunk: impl Fn(usize) -> &'a [T],
    ) -> Result<(), SimError> {
        if self.cached {
            let c = chunk(0);
            T::put(c, self.sys.dpu_mut(0).wram_window_mut(self.base + off, byte_len(c)));
            return Ok(());
        }
        let lens: Vec<u32> = (0..self.n_dpus()).map(|d| byte_len(chunk(d))).collect();
        self.sys.try_push_to_mram_with(off, &lens, |d, window| T::put(chunk(d), window))
    }

    /// [`Stage::scatter`] of `words` split into contiguous
    /// [`chunk_range`]s, one per DPU.
    ///
    /// # Errors
    ///
    /// As [`Stage::scatter`].
    pub(crate) fn scatter_words(&mut self, off: u32, words: &[i32]) -> Result<(), SimError> {
        let n_dpus = self.n_dpus();
        self.scatter(off, |d| &words[chunk_range(words.len(), n_dpus, d)])
    }

    /// Stages the same `len` bytes on every DPU at `off`, as `fill` writes
    /// them: one broadcast, or one write in place on a cached run.
    pub(crate) fn broadcast_with(&mut self, off: u32, len: u32, fill: impl FnOnce(&mut [u8])) {
        if self.cached {
            fill(self.sys.dpu_mut(0).wram_window_mut(self.base + off, len));
        } else {
            self.sys.broadcast_to_mram_with(off, len, fill);
        }
    }

    /// [`Stage::broadcast_with`] of the elements `data`.
    pub(crate) fn broadcast<T: Elem>(&mut self, off: u32, data: &[T]) {
        self.broadcast_with(off, byte_len(data), |window| T::put(data, window));
    }

    /// Reserves a zero-filled `len`-byte output region at `off`. MRAM
    /// starts zeroed; the flat space is grown to cover it.
    pub(crate) fn zeroed(&mut self, off: u32, len: u32) {
        if self.cached {
            self.sys.dpu_mut(0).wram_window_mut(self.base + off, len).fill(0);
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

    /// Reads `len` bytes at `off` back from one DPU's MRAM, as words.
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
        Ok(words(&self.sys.try_copy_from_mram(dpu as u32, off, len)?).collect())
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
    /// transfer, handing DPU `d`'s bytes to `read(d, bytes)` in DPU order.
    pub(crate) fn pull_symbol(&mut self, name: &str, read: impl FnMut(usize, &[u8])) {
        self.sys.pull_from_symbol_with(name, read);
    }

    /// Reads `len` bytes at `off` back from every DPU, handing DPU `d`'s
    /// bytes to `read(d, bytes)` in DPU order: one parallel pull, or a read
    /// of the one DPU's flat space on a cached run.
    pub(crate) fn pull(&mut self, off: u32, len: u32, mut read: impl FnMut(usize, &[u8])) {
        if self.cached {
            read(0, self.sys.dpu(0).wram_window(self.base + off, len));
        } else {
            self.sys.pull_from_mram_with(off, len, read);
        }
    }

    /// Hands DPU `d`'s first `lens_bytes[d]` output bytes at `off` to
    /// `each` as words, in DPU order: one [`Stage::pull`] of the largest
    /// length (the SDK pads every DPU to it), each DPU's part trimmed to its
    /// own. Nothing moves when every length is 0.
    pub(crate) fn pull_words(&mut self, off: u32, lens_bytes: &[u32], mut each: impl FnMut(i32)) {
        let max = lens_bytes.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return;
        }
        self.pull(off, max, |d, bytes| words(&bytes[..lens_bytes[d] as usize]).for_each(&mut each));
    }

    /// Checks the output [`Stage::pull_words`] reads against the reference
    /// `expect`, where it lies, as [`validate_words`] would check the two
    /// gathered.
    ///
    /// # Errors
    ///
    /// As [`validate_words`].
    pub(crate) fn check(
        &mut self,
        name: &str,
        off: u32,
        lens_bytes: &[u32],
        expect: impl IntoIterator<Item = i32>,
    ) -> Result<(), String> {
        let mut check = Check::new(name, expect);
        self.pull_words(off, lens_bytes, |w| check.push(w));
        check.finish()
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
        let w = vec![1, -2, i32::MAX, i32::MIN];
        assert_eq!(words(&to_bytes(&w)).collect::<Vec<_>>(), w);
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
        assert_eq!(words(&bytes).collect::<Vec<_>>(), [42, 7]);
    }

    /// A three-DPU stage whose "output" at offset 0 is `out` split into
    /// [`chunk_range`]s, with one word of DPU 1's part set to `tamper`.
    fn staged_output(out: &[i32], tamper: Option<(usize, i32)>) -> (Stage, Vec<u32>) {
        let mut k = KernelBuilder::new();
        let params = Params::define(&mut k, &["n"]);
        k.stop();
        let rc = RunConfig::multi(3, pim_dpu::DpuConfig::paper_baseline(1));
        let mut st = Stage::new(&rc, (k.build().unwrap(), params)).unwrap();
        st.scatter_words(0, out).unwrap();
        if let Some((word, v)) = tamper {
            st.sys.dpu_mut(1).write_mram(word as u32 * 4, &v.to_le_bytes());
        }
        let lens = (0..3).map(|d| chunk_range(out.len(), 3, d).len() as u32 * 4).collect();
        (st, lens)
    }

    #[test]
    fn the_in_place_check_names_the_element_validate_words_names() {
        let expect: Vec<i32> = (0..50).map(|i| i * 7 - 100).collect();
        for tamper in [None, Some((0, 9999)), Some((5, -1))] {
            let (mut gathered, lens) = staged_output(&expect, tamper);
            let mut got = Vec::new();
            gathered.pull_words(0, &lens, |w| got.push(w));
            let want = validate_words("T", &got, &expect);
            let (mut st, lens) = staged_output(&expect, tamper);
            assert_eq!(st.check("T", 0, &lens, expect.iter().copied()), want, "{tamper:?}");
            assert_eq!(st.sys.timeline(), gathered.sys.timeline(), "one pull, priced alike");
        }
        // DPU 1's part starts at element 17: its word 5 is element 22.
        let (mut st, lens) = staged_output(&expect, Some((5, -1)));
        let err = st.check("T", 0, &lens, expect.iter().copied()).unwrap_err();
        assert_eq!(err, "T: mismatch at element 22: got -1, expected 54");
        // A reference of another length is a length mismatch, whatever differs.
        for short in [&expect[..49], &expect[1..]] {
            let (mut st, lens) = staged_output(&expect, None);
            let err = st.check("T", 0, &lens, short.iter().copied()).unwrap_err();
            assert_eq!(err, validate_words("T", &expect, short).unwrap_err());
            assert_eq!(err, "T: length mismatch, got 50 words, expected 49");
        }
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn params_missing_value_panics() {
        let mut k = KernelBuilder::new();
        let p = Params::define(&mut k, &["n", "base"]);
        let _ = p.bytes(&[("n", 1), ("typo", 2)]);
    }
}
