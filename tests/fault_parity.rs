//! Every executor raises the same fault.
//!
//! The compiled op functions build no error of their own: an op that fails
//! a check returns a fault word and the engine re-runs the instruction
//! through the interpreter, so a fault is the interpreter's by
//! construction. This suite holds that at the launch boundary, for every
//! error an instruction can raise: one kernel per error, whose faulting
//! operand is a word staged in MRAM, must return the same `Err` under the
//! naive loop and the engine's fast and compiled dispatch, scalar and as a
//! SIMT lane, and as a lockstep follower that faults where its leader (a
//! DPU staged with a harmless word) does not.

use pim_asm::assemble;
use pim_dpu::{run_batch, Dpu, DpuConfig, ExecTier, SimError, SimtConfig};
use pim_isa::AddressSpace;

/// The faulting instruction's pc: the prologue below is six instructions.
const PC: u32 = 6;

/// One error: the instructions that raise it on the staged word (in `r2`),
/// a word on which they do not, one on which they do, and the error.
struct Case {
    body: &'static str,
    good: u32,
    bad: u32,
    expect: fn(&SimError) -> bool,
}

const CASES: &[(&str, Case)] = &[
    (
        "load unaligned",
        Case {
            body: "lw r3, 0(r2)",
            good: 2048,
            bad: 2050,
            expect: |e| matches!(e, SimError::Unaligned { addr: 2050, align: 4, pc: PC, .. }),
        },
    ),
    (
        "load out of bounds",
        Case {
            body: "lhu r3, 0(r2)",
            good: 2048,
            bad: 0x0100_0000,
            expect: |e| {
                matches!(e, SimError::OutOfBounds { space: AddressSpace::Wram, len: 2, pc: PC, .. })
            },
        },
    ),
    (
        "store unaligned",
        Case {
            body: "sh r3, 0(r2)",
            good: 2048,
            bad: 2049,
            expect: |e| matches!(e, SimError::Unaligned { addr: 2049, align: 2, pc: PC, .. }),
        },
    ),
    (
        "store out of bounds",
        Case {
            body: "sw r3, 0(r2)",
            good: 2048,
            bad: 64 * 1024,
            expect: |e| {
                matches!(e, SimError::OutOfBounds { space: AddressSpace::Wram, len: 4, pc: PC, .. })
            },
        },
    ),
    (
        "dma length",
        Case {
            body: "ldma r5, r6, r2",
            good: 8,
            bad: -8i32 as u32,
            expect: |e| matches!(e, SimError::BadDmaLength { len: -8, pc: PC, .. }),
        },
    ),
    (
        "dma unaligned in wram",
        Case {
            body: "ldma r2, r6, 8",
            good: 2048,
            bad: 2050,
            expect: |e| matches!(e, SimError::Unaligned { addr: 2050, align: 4, pc: PC, .. }),
        },
    ),
    (
        "dma unaligned in mram",
        Case {
            body: "sdma r5, r2, 8",
            good: 4096,
            bad: 4098,
            expect: |e| matches!(e, SimError::Unaligned { addr: 4098, align: 4, pc: PC, .. }),
        },
    ),
    (
        "dma out of bounds in wram",
        Case {
            body: "ldma r2, r6, 64",
            good: 2048,
            bad: 64 * 1024 - 32,
            expect: |e| {
                matches!(
                    e,
                    SimError::OutOfBounds { space: AddressSpace::Wram, len: 64, pc: PC, .. }
                )
            },
        },
    ),
    (
        "dma out of bounds in mram",
        Case {
            body: "sdma r5, r2, 64",
            good: 4096,
            bad: 0xFFFF_FFE0,
            expect: |e| {
                matches!(
                    e,
                    SimError::OutOfBounds { space: AddressSpace::Mram, len: 64, pc: PC, .. }
                )
            },
        },
    ),
    (
        "atomic bit on acquire",
        Case {
            body: "acquire r2\nrelease r2",
            good: 3,
            bad: 100_000,
            expect: |e| matches!(e, SimError::BadAtomicBit { bit: 100_000, pc: PC, .. }),
        },
    ),
    (
        "atomic bit on release",
        Case {
            body: "release r2",
            good: 3,
            bad: 100_000,
            expect: |e| matches!(e, SimError::BadAtomicBit { bit: 100_000, pc: PC, .. }),
        },
    ),
];

/// A DPU under `cfg` with the case's kernel loaded and `word` staged at
/// MRAM 0: every tasklet pulls it into `r2`, with a WRAM buffer in `r5`
/// and an MRAM address in `r6`, then runs the body.
fn staged(cfg: &DpuConfig, case: &Case, word: u32) -> Dpu {
    let text = format!(
        ".text\nmovi r0, 0\nmovi r1, 1024\nldma r1, r0, 8\nlw r2, 0(r1)\n\
         movi r5, 2048\nmovi r6, 4096\n{}\nstop\n",
        case.body
    );
    let mut dpu = Dpu::new(cfg.clone());
    dpu.load_program(&assemble(&text).expect("the kernel assembles")).expect("it loads");
    dpu.write_mram(0, &word.to_le_bytes());
    dpu
}

#[test]
fn every_executor_raises_the_interpreters_fault() {
    let base = DpuConfig::paper_baseline(4);
    let simt = base.clone().with_simt(SimtConfig::default());
    let tiers =
        [("naive", ExecTier::Naive), ("fast", ExecTier::Fast), ("compiled", ExecTier::Compiled)];
    for (name, case) in CASES {
        let mut faults: Vec<(String, Result<_, SimError>)> = Vec::new();
        for (mode, cfg) in [("scalar", &base), ("simt lane", &simt)] {
            for (tier_name, tier) in tiers {
                let cfg = cfg.clone().with_exec_tier(tier);
                assert!(staged(&cfg, case, case.good).launch().is_ok(), "{name}: harmless word");
                let run = staged(&cfg, case, case.bad).launch().map(|s| s.cycles);
                faults.push((format!("{mode} {tier_name}"), run));
            }
        }
        let mut group = [staged(&base, case, case.good), staged(&base, case, case.bad)];
        let (results, summary) = run_batch(&mut group);
        assert_eq!((summary.followed, summary.left.len()), (1, 1), "{name}: {summary}");
        assert!(results[0].is_ok(), "{name}: the leader runs to the end: {:?}", results[0]);
        let follower = results[1].as_ref().map(|s| s.cycles).map_err(Clone::clone);
        faults.push(("lockstep follower".to_string(), follower));

        let (first, want) = &faults[0];
        let err = want.as_ref().expect_err("the staged word faults");
        assert!((case.expect)(err), "{name}: {first} raised {err:?}");
        for (who, got) in &faults[1..] {
            assert_eq!(got, want, "{name}: {who} against {first}");
        }
    }
}
