//! Multi-tenant co-location (paper §V-C, "transparency").
//!
//! The paper argues that UPMEM's scratchpad-centric programming model makes
//! transparent multi-tenancy impossible: co-located kernels both allocate
//! the same physical WRAM, so running two programs on one DPU "requires
//! non-trivial amount of changes to both co-located programs". This module
//! implements exactly that machinery so the claim can be *measured*:
//!
//! * tenants must be built with disjoint WRAM/atomic partitions
//!   ([`pim_asm::KernelBuilder::with_partition`] — the intrusive program
//!   change the paper decries);
//! * [`colocate`] validates the partitions, concatenates the instruction
//!   streams (shifting control-flow targets), and produces per-tasklet
//!   entry points and tasklet-id rebasing so each tenant still observes
//!   ids `0..n`;
//! * under the scratchpad model the combined WRAM footprint must fit 64 KB
//!   — [`colocate`] fails with [`ColocateError::WramOverflow`] when it
//!   does not, reproducing the paper's negative result; under the
//!   cache-centric model the flat space absorbs both tenants.

use std::error::Error;
use std::fmt;

use pim_asm::DpuProgram;
use pim_isa::layout::{IRAM_INSTRS, WRAM_BYTES};
use pim_isa::Instruction;

/// One co-located tenant: a partition-built program plus the tasklets it
/// receives.
#[derive(Debug, Clone, Copy)]
pub struct Tenant<'a> {
    /// The tenant's program (built with a disjoint WRAM/atomic partition).
    pub program: &'a DpuProgram,
    /// Number of hardware tasklets assigned to this tenant.
    pub n_tasklets: u32,
}

/// Why two programs cannot share a DPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColocateError {
    /// Two tenants' WRAM images overlap (they were not partition-built).
    WramOverlap {
        /// First tenant index.
        a: usize,
        /// Second tenant index.
        b: usize,
    },
    /// The combined WRAM footprint exceeds the physical scratchpad — the
    /// paper's §V-C transparency failure.
    WramOverflow {
        /// Combined footprint in bytes.
        bytes: u32,
        /// Physical WRAM capacity.
        capacity: u32,
    },
    /// Two tenants' atomic-bit ranges overlap.
    AtomicOverlap {
        /// First tenant index.
        a: usize,
        /// Second tenant index.
        b: usize,
    },
    /// The merged instruction streams exceed IRAM.
    IramOverflow {
        /// Combined instruction count.
        instrs: usize,
        /// IRAM capacity in instructions.
        capacity: u32,
    },
    /// More tasklets were assigned than the hardware provides.
    TooManyTasklets {
        /// Combined tasklet count.
        total: u32,
    },
}

impl fmt::Display for ColocateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColocateError::WramOverlap { a, b } => {
                write!(f, "tenants {a} and {b} overlap in WRAM (not partition-built)")
            }
            ColocateError::WramOverflow { bytes, capacity } => write!(
                f,
                "co-located WRAM footprint of {bytes} bytes exceeds the {capacity}-byte scratchpad"
            ),
            ColocateError::AtomicOverlap { a, b } => {
                write!(f, "tenants {a} and {b} overlap in the atomic region")
            }
            ColocateError::IramOverflow { instrs, capacity } => {
                write!(f, "merged text of {instrs} instructions exceeds IRAM capacity {capacity}")
            }
            ColocateError::TooManyTasklets { total } => {
                write!(f, "{total} tasklets assigned, hardware has {}", crate::MAX_TASKLETS)
            }
        }
    }
}

impl Error for ColocateError {}

/// A merged multi-tenant image ready for [`crate::Dpu::load_colocated`].
#[derive(Debug, Clone)]
pub struct Colocated {
    /// The merged program (concatenated text, union WRAM image).
    pub program: DpuProgram,
    /// Per-tasklet entry instruction index.
    pub entry: Vec<u32>,
    /// Per-tasklet tasklet-id rebase (subtracted by `tid`).
    pub tid_base: Vec<u32>,
    /// Per-tasklet owning tenant.
    pub tenant_of: Vec<usize>,
    /// Per-tenant tasklet ranges, for reading per-tenant statistics.
    pub tasklets_of: Vec<std::ops::Range<usize>>,
}

impl Colocated {
    /// Total tasklets across tenants.
    #[must_use]
    pub(crate) fn n_tasklets(&self) -> u32 {
        self.entry.len() as u32
    }

    /// Per-tenant finish cycle: the max of `tasklet_stop_cycle` (from
    /// [`crate::DpuRunStats`]) over each tenant's tasklet range. A tenant
    /// with no tasklets (or stop cycles missing from the slice) finishes
    /// at cycle 0.
    #[must_use]
    pub fn tenant_finish_cycles(&self, tasklet_stop_cycle: &[u64]) -> Vec<u64> {
        self.tasklets_of
            .iter()
            .map(|r| {
                r.clone().filter_map(|t| tasklet_stop_cycle.get(t)).copied().max().unwrap_or(0)
            })
            .collect()
    }
}

/// Merges partition-built tenants into one loadable image.
///
/// `allow_wram_overflow` lifts the scratchpad-capacity check for the
/// cache-centric memory model, whose flat space absorbs any footprint —
/// the paper's proposed fix for transparent multi-tenancy.
///
/// # Errors
///
/// Returns a [`ColocateError`] when the tenants cannot share the DPU.
pub fn colocate(
    tenants: &[Tenant<'_>],
    allow_wram_overflow: bool,
) -> Result<Colocated, ColocateError> {
    assert!(!tenants.is_empty(), "colocate needs at least one tenant");
    let total_tasklets: u32 = tenants.iter().map(|t| t.n_tasklets).sum();
    if total_tasklets > crate::MAX_TASKLETS {
        return Err(ColocateError::TooManyTasklets { total: total_tasklets });
    }
    // Validate WRAM and atomic partition disjointness, pairwise.
    for (a, ta) in tenants.iter().enumerate() {
        for (b, tb) in tenants.iter().enumerate().skip(a + 1) {
            let (a0, a1) = (ta.program.wram_base, ta.program.wram_bytes());
            let (b0, b1) = (tb.program.wram_base, tb.program.wram_bytes());
            if a0 < b1 && b0 < a1 && a1 > a0 && b1 > b0 {
                return Err(ColocateError::WramOverlap { a, b });
            }
            let (m0, m1) =
                (ta.program.atomic_base, ta.program.atomic_base + ta.program.atomic_bits_used);
            let (n0, n1) =
                (tb.program.atomic_base, tb.program.atomic_base + tb.program.atomic_bits_used);
            if m0 < n1 && n0 < m1 && m1 > m0 && n1 > n0 {
                return Err(ColocateError::AtomicOverlap { a, b });
            }
        }
    }
    let footprint = tenants.iter().map(|t| t.program.wram_bytes()).max().unwrap_or(0);
    if !allow_wram_overflow && footprint > WRAM_BYTES {
        return Err(ColocateError::WramOverflow { bytes: footprint, capacity: WRAM_BYTES });
    }
    let total_instrs: usize = tenants.iter().map(|t| t.program.instrs.len()).sum();
    if total_instrs as u32 > IRAM_INSTRS {
        return Err(ColocateError::IramOverflow { instrs: total_instrs, capacity: IRAM_INSTRS });
    }
    // Merge: concatenate text (shifting targets), union the WRAM images,
    // prefix symbols with `t{i}.`.
    let mut program = DpuProgram {
        wram_init: vec![0; footprint as usize],
        wram_base: 0,
        ..DpuProgram::default()
    };
    let mut entry = Vec::with_capacity(total_tasklets as usize);
    let mut tid_base = Vec::with_capacity(total_tasklets as usize);
    let mut tenant_of = Vec::with_capacity(total_tasklets as usize);
    let mut tasklets_of = Vec::with_capacity(tenants.len());
    let mut next_tid = 0u32;
    for (i, t) in tenants.iter().enumerate() {
        let off = program.instrs.len() as u32;
        for instr in &t.program.instrs {
            program.instrs.push(match *instr {
                Instruction::Branch { cond, ra, rb, target } => {
                    Instruction::Branch { cond, ra, rb, target: target + off }
                }
                Instruction::Jump { target } => Instruction::Jump { target: target + off },
                Instruction::Jal { rd, target } => Instruction::Jal { rd, target: target + off },
                other => other,
            });
        }
        let base = t.program.wram_base as usize;
        program.wram_init[base..base + t.program.wram_init.len()]
            .copy_from_slice(&t.program.wram_init);
        for (name, sym) in &t.program.symbols {
            program.symbols.insert(format!("t{i}.{name}"), *sym);
        }
        program.heap_base = program.heap_base.max(t.program.heap_base);
        tasklets_of.push(next_tid as usize..(next_tid + t.n_tasklets) as usize);
        for _ in 0..t.n_tasklets {
            entry.push(off);
            tid_base.push(next_tid);
        }
        tenant_of.extend(std::iter::repeat_n(i, t.n_tasklets as usize));
        next_tid += t.n_tasklets;
    }
    Ok(Colocated { program, entry, tid_base, tenant_of, tasklets_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_asm::KernelBuilder;

    fn tenant_kernel(base: u32, atomic: u32, marker: i32) -> DpuProgram {
        let mut k = KernelBuilder::with_partition(base, atomic);
        let out = k.global_zeroed("out", 4);
        let bit = k.alloc_atomic_bit();
        let [t, p] = k.regs(["t", "p"]);
        k.acquire(bit as i32);
        k.tid(t);
        k.add(t, t, marker);
        k.movi(p, out as i32);
        k.sw(t, p, 0);
        k.release(bit as i32);
        k.stop();
        k.build().unwrap()
    }

    #[test]
    fn colocate_merges_disjoint_tenants() {
        let a = tenant_kernel(0, 0, 100);
        let b = tenant_kernel(1024, 8, 200);
        let merged = colocate(
            &[Tenant { program: &a, n_tasklets: 2 }, Tenant { program: &b, n_tasklets: 3 }],
            false,
        )
        .unwrap();
        assert_eq!(merged.n_tasklets(), 5);
        assert_eq!(merged.entry[0], 0);
        assert_eq!(merged.entry[2], a.instrs.len() as u32);
        assert_eq!(merged.tid_base, vec![0, 0, 2, 2, 2]);
        assert_eq!(merged.tenant_of, vec![0, 0, 1, 1, 1]);
        assert!(merged.program.symbol("t0.out").is_some());
        assert!(merged.program.symbol("t1.out").is_some());
        assert_ne!(
            merged.program.symbol("t0.out").unwrap().addr,
            merged.program.symbol("t1.out").unwrap().addr
        );
    }

    #[test]
    fn overlapping_wram_is_rejected() {
        let a = tenant_kernel(0, 0, 1);
        let b = tenant_kernel(0, 8, 2); // same partition!
        let err = colocate(
            &[Tenant { program: &a, n_tasklets: 1 }, Tenant { program: &b, n_tasklets: 1 }],
            false,
        )
        .unwrap_err();
        assert_eq!(err, ColocateError::WramOverlap { a: 0, b: 1 });
    }

    #[test]
    fn overlapping_atomics_are_rejected() {
        let a = tenant_kernel(0, 0, 1);
        let b = tenant_kernel(1024, 0, 2); // same atomic bits
        let err = colocate(
            &[Tenant { program: &a, n_tasklets: 1 }, Tenant { program: &b, n_tasklets: 1 }],
            false,
        )
        .unwrap_err();
        assert_eq!(err, ColocateError::AtomicOverlap { a: 0, b: 1 });
    }

    #[test]
    fn wram_overflow_is_the_papers_negative_result() {
        // Tenant A keeps a large working set; tenant B's partition must
        // start past it and spills beyond the 64 KB scratchpad. Building B
        // at all requires the relaxed linker (the flexible-linker feature
        // of §III-A); co-locating under scratchpads must still fail.
        let a = tenant_kernel(0, 0, 1);
        let b = {
            let mut k = KernelBuilder::with_partition(60 * 1024, 8);
            let buf = k.global_zeroed("buf", 8 * 1024); // spills past 64 KB
            let p = k.reg("p");
            k.movi(p, buf as i32);
            k.stop();
            k.build_with(&pim_asm::LinkOptions { allow_wram_overflow: true }).unwrap()
        };
        let err = colocate(
            &[Tenant { program: &a, n_tasklets: 1 }, Tenant { program: &b, n_tasklets: 1 }],
            false,
        )
        .unwrap_err();
        assert!(matches!(err, ColocateError::WramOverflow { .. }));
        // The cache-centric escape hatch: the flat space absorbs it.
        assert!(colocate(
            &[Tenant { program: &a, n_tasklets: 1 }, Tenant { program: &b, n_tasklets: 1 }],
            true,
        )
        .is_ok());
    }

    #[test]
    fn too_many_tasklets_rejected() {
        let a = tenant_kernel(0, 0, 1);
        let b = tenant_kernel(1024, 8, 2);
        let err = colocate(
            &[Tenant { program: &a, n_tasklets: 16 }, Tenant { program: &b, n_tasklets: 16 }],
            false,
        )
        .unwrap_err();
        assert_eq!(err, ColocateError::TooManyTasklets { total: 32 });
    }

    #[test]
    fn control_flow_targets_are_shifted() {
        let mk = |base: u32, atomic: u32| {
            let mut k = KernelBuilder::with_partition(base, atomic);
            let r = k.reg("r");
            k.movi(r, 3);
            let top = k.label_here("top");
            k.sub(r, r, 1);
            k.branch(pim_isa::Cond::Ne, r, 0, &top);
            k.stop();
            k.build().unwrap()
        };
        let a = mk(0, 0);
        let b = mk(1024, 0);
        let merged = colocate(
            &[Tenant { program: &a, n_tasklets: 1 }, Tenant { program: &b, n_tasklets: 1 }],
            false,
        )
        .unwrap();
        let off = a.instrs.len();
        match merged.program.instrs[off + 2] {
            Instruction::Branch { target, .. } => {
                assert_eq!(target as usize, off + 1, "tenant 1's loop target must shift")
            }
            ref other => panic!("expected branch, got {other}"),
        }
    }
}
