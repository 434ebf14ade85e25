//! Shared plumbing for the workload implementations: byte/word conversion,
//! contiguous partitioning, the host↔kernel parameter-block convention, and
//! the `Stage` every workload's host side runs through.

use std::cell::Cell;
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

/// The longest of per-DPU byte lengths: the size of the one parallel pull
/// that reads them all (the SDK pads every DPU to it).
#[must_use]
pub(crate) fn widest(lens_bytes: &[u32]) -> u32 {
    lens_bytes.iter().copied().max().unwrap_or(0)
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
struct Check<'n, I: Iterator<Item = i32>> {
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
    fn new(name: &'n str, expect: impl IntoIterator<IntoIter = I>) -> Self {
        Check { name, expect: expect.into_iter().fuse(), got: 0, expected: 0, first: None }
    }

    /// Compares the next output word with the next reference word; after
    /// the first mismatch, only counts.
    fn push(&mut self, got: i32) {
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
    fn finish(self) -> Result<(), String> {
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
/// The stage keeps no copy of staged data, in either direction. A 1-D
/// input stream is generated word by word straight into each DPU's memory
/// ([`Stage::generate`]) and never exists on the host; a structured input
/// is written from the workload's own array ([`Stage::scatter`]). An
/// output is read, checked or folded where it lies, and a reference that
/// is a function of generated inputs reads them there too ([`Reads`]),
/// under a fingerprint taken as they were written that proves the kernel
/// left them as staged. The banks live in host memory, so a host array
/// kept after the push would be a second copy the modelled machine does
/// not have.
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
        let lens: Vec<u32> = (0..self.n_dpus()).map(|d| byte_len(chunk(d))).collect();
        self.fill(off, &lens, |d, window| T::put(chunk(d), window))
    }

    /// The one way an input reaches the DPUs: DPU `d`'s `lens[d]`-byte
    /// window at `off` is handed to `fill(d, window)`, in DPU order, and
    /// written where it lies — into the bank in one parallel transfer, or
    /// into the flat space in place on a cached run.
    fn fill(
        &mut self,
        off: u32,
        lens: &[u32],
        mut fill: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), SimError> {
        if self.cached {
            fill(0, self.sys.dpu_mut(0).wram_window_mut(self.base + off, lens[0]));
            return Ok(());
        }
        self.sys.try_push_to_mram_with(off, lens, fill)
    }

    /// Generates an `n`-word input stream at `off`, split into contiguous
    /// [`chunk_range`]s, one per DPU, as [`Stage::scatter_words`] stages a
    /// slice: `next()` draws every word in DPU order and, within a DPU, in
    /// element order, and each is written straight into the DPU's window,
    /// so no host copy of the stream ever exists. The returned [`Staged`]
    /// names the stream (`name`, for a validation message) and carries the
    /// fingerprint of every word as written.
    ///
    /// # Errors
    ///
    /// As [`Stage::scatter`].
    pub(crate) fn generate(
        &mut self,
        name: &'static str,
        off: u32,
        n: usize,
        mut next: impl FnMut() -> i32,
    ) -> Result<Staged, SimError> {
        let n_dpus = self.n_dpus();
        let lens: Vec<u32> =
            (0..n_dpus).map(|d| chunk_range(n, n_dpus, d).len() as u32 * 4).collect();
        let mut print = Print::default();
        self.fill(off, &lens, |_, window| {
            let mut pairs = window.chunks_exact_mut(8);
            for pair in &mut pairs {
                let lo = next() as u32;
                let w = u64::from(lo) | u64::from(next() as u32) << 32;
                pair.copy_from_slice(&w.to_le_bytes());
                print = print.word(w);
            }
            if let Some(tail) = pairs.into_remainder().get_mut(..4) {
                let w = next() as u32;
                tail.copy_from_slice(&w.to_le_bytes());
                print = print.word(u64::from(w));
            }
        })?;
        Ok(Staged { name, off, lens, print })
    }

    /// DPU `d`'s `len` bytes at `off`, read where they lie: MRAM, or the
    /// flat space on a cached run. The simulator's own read; it prices
    /// nothing.
    fn window(&self, d: usize, off: u32, len: u32) -> &[u8] {
        if self.cached {
            self.sys.dpu(0).wram_window(self.base + off, len)
        } else {
            self.sys.dpu(d as u32).mram_window(off, len)
        }
    }

    /// The last word of DPU `d`'s part of the staged stream `input`, read
    /// where it lies, or `None` when the part is empty.
    pub(crate) fn last_word(&self, input: &Staged, d: usize) -> Option<i32> {
        let window = self.window(d, input.off, input.lens[d]);
        window.last_chunk().map(|w| i32::from_le_bytes(*w))
    }

    /// Prices the pull of `len` bytes at `off` from every DPU — one
    /// parallel pull, nothing on a cached run or when `len` is 0 — and
    /// hands out the simulator's own view of the run, which reads that
    /// output and the staged inputs where they lie and prices nothing more.
    pub(crate) fn read_back(&mut self, off: u32, len: u32) -> Reads<'_> {
        if !self.cached && len > 0 {
            self.sys.pull_from_mram_with(off, len, |_, _| {});
        }
        Reads { stage: self, off, open: Cell::new(0), changed: Cell::new(None) }
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
        let max = widest(lens_bytes);
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
        self.read_back(off, widest(lens_bytes)).check(name, lens_bytes, expect)
    }

    /// Ends the run: the timeline, the merged per-DPU statistics, the
    /// event trace (when the DPUs record one) and the validation result.
    #[must_use]
    pub(crate) fn finish(mut self, validation: Result<(), String>) -> WorkloadRun {
        let trace = self.sys.take_trace();
        WorkloadRun { timeline: *self.sys.timeline(), per_dpu: self.per_dpu, validation, trace }
    }
}

/// A 64-bit fingerprint of a word stream: FxHash's multiply–xor step over
/// its 8-byte words (a 4-byte tail is one zero-extended word). Each step
/// is a bijection of the state, so a stream that differs from the staged
/// one in a single word always prints differently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Print(u64);

impl Print {
    fn word(self, w: u64) -> Print {
        Print((self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95))
    }
}

/// An input stream [`Stage::generate`] wrote into the DPUs: its name, its
/// offset, each DPU's part in bytes and the fingerprint of every word as
/// staged.
#[derive(Debug)]
pub(crate) struct Staged {
    name: &'static str,
    off: u32,
    lens: Vec<u32>,
    print: Print,
}

impl Staged {
    /// Each DPU's part of the stream, in bytes.
    pub(crate) fn lens(&self) -> &[u32] {
        &self.lens
    }
}

/// The simulator's own view of a run after its last launch, from
/// [`Stage::read_back`]: the output at one offset and the generated
/// inputs, read where they lie.
#[derive(Debug)]
pub(crate) struct Reads<'s> {
    stage: &'s Stage,
    /// The output's offset.
    off: u32,
    /// Input streams handed out and not yet dropped.
    open: Cell<usize>,
    /// The first input stream found changed since it was staged.
    changed: Cell<Option<&'static str>>,
}

impl<'s> Reads<'s> {
    /// Each staged input's words, as a stream to compute the reference
    /// from; see [`Words`].
    pub(crate) fn inputs<const N: usize>(&self, inputs: [&'s Staged; N]) -> [Words<'_>; N] {
        self.open.set(self.open.get() + N);
        inputs.map(|staged| Words {
            reads: self,
            staged,
            dpu: 0,
            pairs: [].chunks_exact(8),
            tail: &[],
            hi: None,
            print: Print::default(),
        })
    }

    /// Checks DPU `d`'s first `lens_bytes[d]` output bytes, as words in DPU
    /// order, against the reference `expect`, as [`validate_words`] would
    /// check the two gathered. Every input stream from [`Reads::inputs`]
    /// must be part of `expect`, which the check consumes: an input whose
    /// words are no longer the ones staged fails with its own message,
    /// since a reference read from it proves nothing.
    ///
    /// # Errors
    ///
    /// As [`validate_words`], or `"<name>: input <input> changed since it
    /// was staged"`.
    ///
    /// # Panics
    ///
    /// Panics if an input stream outlives the check.
    pub(crate) fn check(
        &self,
        name: &str,
        lens_bytes: &[u32],
        expect: impl IntoIterator<Item = i32>,
    ) -> Result<(), String> {
        let mut check = Check::new(name, expect);
        for (d, &len) in lens_bytes.iter().enumerate() {
            words(self.stage.window(d, self.off, len)).for_each(|w| check.push(w));
        }
        let verdict = check.finish();
        assert_eq!(self.open.get(), 0, "every input stream is part of the reference");
        match self.changed.get() {
            Some(input) => Err(format!("{name}: input {input} changed since it was staged")),
            None => verdict,
        }
    }
}

/// One staged input stream's words, in DPU order and, within a DPU, in
/// element order, read where they lie. Each 8-byte word is folded into the
/// stream's fingerprint as it is read, in the same pass as the reference
/// that reads it; on drop, the stream folds whatever was not read and
/// tells its [`Reads`] whether the kernel left it as staged.
///
/// The fold rides with the reference because a pass of its own costs time:
/// re-folding each [`Staged`] print first, then a plain `flat_map` over the
/// windows, needs neither this type nor [`Reads`]' cells, but reads each
/// input twice: 4–6 ms more per 1M-element VA run (101 → 105 ms on one DPU,
/// 57 → 62 ms on 16, 2 vCPUs), about 4 % of `rank_scale`'s VA cases.
#[derive(Debug)]
pub(crate) struct Words<'r> {
    reads: &'r Reads<'r>,
    staged: &'r Staged,
    /// The next DPU whose part is read.
    dpu: usize,
    /// The current part's 8-byte words not yet read, and its 4-byte tail.
    pairs: std::slice::ChunksExact<'r, u8>,
    tail: &'r [u8],
    /// The upper half of the last 8-byte word, when not yet yielded.
    hi: Option<i32>,
    print: Print,
}

impl<'r> Iterator for Words<'r> {
    type Item = i32;

    fn next(&mut self) -> Option<i32> {
        if let Some(hi) = self.hi.take() {
            return Some(hi);
        }
        loop {
            if let Some(pair) = self.pairs.next() {
                let w = u64::from_le_bytes(pair.try_into().expect("chunk of 8"));
                self.print = self.print.word(w);
                self.hi = Some((w >> 32) as i32);
                return Some(w as i32);
            }
            if let Some(tail) = self.tail.first_chunk() {
                let w = u32::from_le_bytes(*tail);
                self.tail = &[];
                self.print = self.print.word(u64::from(w));
                return Some(w as i32);
            }
            let len = *self.staged.lens.get(self.dpu)?;
            let stage: &'r Stage = self.reads.stage;
            self.pairs = stage.window(self.dpu, self.staged.off, len).chunks_exact(8);
            self.tail = self.pairs.remainder();
            self.dpu += 1;
        }
    }
}

impl Drop for Words<'_> {
    fn drop(&mut self) {
        while self.next().is_some() {}
        let reads = self.reads;
        if self.print != self.staged.print && reads.changed.get().is_none() {
            reads.changed.set(Some(self.staged.name));
        }
        reads.open.set(reads.open.get() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dpu::DpuConfig;
    use pim_rng::StdRng;

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

    /// A stage whose kernel only stops.
    fn stop_stage(rc: &RunConfig) -> Stage {
        let mut k = KernelBuilder::new();
        let params = Params::define(&mut k, &["n"]);
        k.stop();
        Stage::new(rc, (k.build().unwrap(), params)).unwrap()
    }

    /// A seeded word stream, as a workload draws one.
    fn stream(seed: u64) -> impl FnMut() -> i32 {
        let mut rng = StdRng::seed_from_u64(seed);
        move || rng.gen_range(-1000..1000)
    }

    /// Each DPU's part of a stream of `n` words, in bytes.
    fn part_lens(n: usize, n_dpus: usize) -> Vec<u32> {
        (0..n_dpus).map(|d| chunk_range(n, n_dpus, d).len() as u32 * 4).collect()
    }

    #[test]
    fn a_generated_stream_is_the_slice_form_of_the_same_draws() {
        // 51 words over 4 DPUs: parts of 13, 13, 13 and 12 words, so both
        // the 8-byte steps and a 4-byte tail are drawn.
        for (rc, n) in [
            (RunConfig::multi(4, DpuConfig::paper_baseline(1)), 51),
            (RunConfig::single(DpuConfig::paper_baseline(1).with_paper_caches()), 51),
        ] {
            let mut generated = stop_stage(&rc);
            let staged = generated.generate("X", 64, n, stream(7)).unwrap();
            let collected: Vec<i32> = {
                let mut next = stream(7);
                (0..n).map(|_| next()).collect()
            };
            let mut sliced = stop_stage(&rc);
            sliced.scatter_words(64, &collected).unwrap();
            let lens = part_lens(n, generated.n_dpus());
            assert_eq!(staged.lens, lens);
            for (d, &len) in lens.iter().enumerate() {
                assert_eq!(generated.window(d, 64, len), sliced.window(d, 64, len), "DPU {d}");
            }
            assert_eq!(generated.sys.timeline(), sliced.sys.timeline(), "one push, priced alike");
        }
    }

    #[test]
    fn a_changed_input_fails_the_check_with_its_own_message() {
        const N: usize = 50;
        const OUT: u32 = 4096;
        // The "output" at `OUT` is the input stream staged again, so an
        // unchanged input checks clean. The tampered word is word 5 of DPU
        // 1's part (element 22) in MRAM, or element 5 of the flat space.
        let run = |rc: &RunConfig, tamper: Option<u32>, read: usize| {
            let mut st = stop_stage(rc);
            let lens = part_lens(N, st.n_dpus());
            let input = st.generate("X", 0, N, stream(3)).unwrap();
            let out: Vec<i32> = {
                let mut next = stream(3);
                (0..N).map(|_| next()).collect()
            };
            st.scatter_words(OUT, &out).unwrap();
            st.launch().unwrap();
            if let Some(word) = tamper {
                let bad = 9999i32.to_le_bytes();
                if st.cached {
                    st.sys.dpu_mut(0).wram_window_mut(st.base + word * 4, 4).copy_from_slice(&bad);
                } else {
                    st.sys.dpu_mut(1).write_mram(word * 4, &bad);
                }
            }
            let reads = st.read_back(OUT, lens[0]);
            let [x] = reads.inputs([&input]);
            let read_lens: Vec<u32> = lens.iter().map(|&l| l.min(read as u32 * 4)).collect();
            let expect = x.take(read_lens.iter().sum::<u32>() as usize / 4);
            reads.check("T", &read_lens, expect)
        };
        let changed = Err("T: input X changed since it was staged".to_string());
        for rc in [
            RunConfig::multi(3, DpuConfig::paper_baseline(1)),
            RunConfig::single(DpuConfig::paper_baseline(1).with_paper_caches()),
        ] {
            assert_eq!(run(&rc, None, N), Ok(()));
            assert_eq!(run(&rc, Some(5), N), changed, "the reference it fed is wrong too");
            // A word the reference never read is folded all the same.
            assert_eq!(run(&rc, None, 0), Ok(()));
            assert_eq!(run(&rc, Some(5), 0), changed);
        }
    }

    /// A three-DPU stage whose "output" at offset 0 is `out` split into
    /// [`chunk_range`]s, with one word of DPU 1's part set to `tamper`.
    fn staged_output(out: &[i32], tamper: Option<(usize, i32)>) -> (Stage, Vec<u32>) {
        let mut st = stop_stage(&RunConfig::multi(3, DpuConfig::paper_baseline(1)));
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
