//! Randomized property tests (seeded, dependency-free) over every
//! constructible instruction.

use pim_isa::{AluOp, Cond, Instruction, Operand, Reg, Width};
use pim_rng::StdRng;

fn arb_reg(rng: &mut StdRng) -> Reg {
    Reg::r(rng.gen_range(0u8..24))
}

fn arb_operand_i16(rng: &mut StdRng) -> Operand {
    if rng.gen_bool() {
        Operand::Reg(arb_reg(rng))
    } else {
        Operand::Imm(i32::from(rng.gen_range(i16::MIN..i16::MAX)))
    }
}

fn arb_operand_i32(rng: &mut StdRng) -> Operand {
    if rng.gen_bool() {
        Operand::Reg(arb_reg(rng))
    } else {
        Operand::Imm(rng.next_u32() as i32)
    }
}

fn arb_width_signed(rng: &mut StdRng) -> (Width, bool) {
    match rng.gen_range(0u8..3) {
        0 => (Width::Byte, rng.gen_bool()),
        1 => (Width::Half, rng.gen_bool()),
        _ => (Width::Word, false),
    }
}

fn arb_instruction(rng: &mut StdRng) -> Instruction {
    match rng.gen_range(0u8..15) {
        0 => Instruction::Nop,
        1 => Instruction::Stop,
        2 => Instruction::Alu {
            op: *rng.choose(&AluOp::ALL),
            rd: arb_reg(rng),
            ra: arb_reg(rng),
            rb: arb_operand_i32(rng),
        },
        3 => Instruction::Movi { rd: arb_reg(rng), imm: rng.next_u32() as i32 },
        4 => Instruction::Tid { rd: arb_reg(rng) },
        5 => {
            let (width, signed) = arb_width_signed(rng);
            Instruction::Load {
                width,
                signed,
                rd: arb_reg(rng),
                base: arb_reg(rng),
                offset: rng.next_u32() as i32,
            }
        }
        6 => {
            let (width, _) = arb_width_signed(rng);
            Instruction::Store {
                width,
                rs: arb_reg(rng),
                base: arb_reg(rng),
                offset: rng.next_u32() as i32,
            }
        }
        7 => {
            Instruction::Ldma { wram: arb_reg(rng), mram: arb_reg(rng), len: arb_operand_i32(rng) }
        }
        8 => {
            Instruction::Sdma { wram: arb_reg(rng), mram: arb_reg(rng), len: arb_operand_i32(rng) }
        }
        9 => Instruction::Branch {
            cond: *rng.choose(&Cond::ALL),
            ra: arb_reg(rng),
            rb: arb_operand_i16(rng),
            target: rng.gen_range(0u32..0x1_0000),
        },
        10 => Instruction::Jump { target: rng.next_u32() },
        11 => Instruction::Jal { rd: arb_reg(rng), target: rng.next_u32() },
        12 => Instruction::Jr { ra: arb_reg(rng) },
        13 => Instruction::Acquire {
            bit: if rng.gen_bool() {
                Operand::Reg(arb_reg(rng))
            } else {
                Operand::Imm(rng.gen_range(0i32..256))
            },
        },
        _ => Instruction::Release {
            bit: if rng.gen_bool() {
                Operand::Reg(arb_reg(rng))
            } else {
                Operand::Imm(rng.gen_range(0i32..256))
            },
        },
    }
}

#[test]
fn rf_hazard_bounded_by_sources() {
    let mut rng = StdRng::seed_from_u64(0x1547_0003);
    for _ in 0..4096 {
        let instr = arb_instruction(&mut rng);
        let srcs = instr.srcs();
        assert!(srcs.len() <= 3);
        assert!(instr.rf_hazard_cycles() <= srcs.len().saturating_sub(1) as u32);
    }
}
