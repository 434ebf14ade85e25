//! The textual assembler and disassembler.
//!
//! This is the human-facing half of the custom toolchain (the paper's
//! custom lexer/parser/assembler, §III-A): a two-pass assembler that
//! resolves label/symbol def-use relationships and emits a linked
//! [`DpuProgram`].
//!
//! # Syntax
//!
//! ```text
//! ; comments run to end of line (also `#` and `//`)
//! .data
//! params:  .word 0, 0, 0      ; named, initialized words
//! buffer:  .space 256         ; named, zeroed bytes
//!          .align 8
//! .text
//! main:
//!     movi r0, params         ; data symbols resolve to WRAM addresses
//!     lw   r1, 0(r0)
//!     add  r1, r1, 1
//!     bne  r1, 10, main       ; code labels resolve to instruction indices
//!     stop
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use pim_isa::layout::{IRAM_INSTRS, WRAM_BYTES};
use pim_isa::{AddressSpace, AluOp, Cond, Instruction, Operand, Reg, Width};

use crate::program::{DpuProgram, LinkError, LinkOptions, Symbol};

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl Error for AsmError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// One logical source line after stripping comments.
#[derive(Debug)]
struct SrcLine<'a> {
    number: usize,
    label: Option<&'a str>,
    rest: &'a str,
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for (i, _) in line.char_indices() {
        let rest = &line[i..];
        if rest.starts_with(';') || rest.starts_with('#') || rest.starts_with("//") {
            end = i;
            break;
        }
    }
    line[..end].trim()
}

fn split_label(line: &str) -> (Option<&str>, &str) {
    if let Some(colon) = line.find(':') {
        let (head, tail) = line.split_at(colon);
        let head = head.trim();
        if !head.is_empty()
            && head.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            && !head.starts_with('.')
        {
            return (Some(head), tail[1..].trim());
        }
    }
    (None, line)
}

/// Assembles source text, placing the data image at WRAM address 0, with
/// default link options.
///
/// # Errors
///
/// Returns an [`AsmError`] describing the first syntax, symbol, or link
/// problem encountered.
pub fn assemble(src: &str) -> Result<DpuProgram, AsmError> {
    let mut lines = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let stripped = strip_comment(raw);
        if stripped.is_empty() {
            continue;
        }
        let (label, rest) = split_label(stripped);
        lines.push(SrcLine { number: idx + 1, label, rest });
    }

    // ---- Pass 1: assign addresses to labels/symbols ----
    let mut section = Section::Text;
    let mut text_len: u32 = 0;
    let mut data_len: u32 = 0;
    let mut code_labels: BTreeMap<String, u32> = BTreeMap::new();
    let mut data_symbols: BTreeMap<String, Symbol> = BTreeMap::new();
    // Pending label waiting for the next data allocation (to size it).
    for l in &lines {
        let err = |msg: String| AsmError { line: l.number, msg };
        if l.rest == ".text" {
            section = Section::Text;
        } else if l.rest == ".data" {
            section = Section::Data;
        }
        match section {
            Section::Text => {
                if let Some(label) = l.label {
                    if code_labels.insert(label.to_string(), text_len).is_some() {
                        return Err(err(format!("duplicate label `{label}`")));
                    }
                }
                if !l.rest.is_empty() && !l.rest.starts_with('.') {
                    if text_len == IRAM_INSTRS {
                        return Err(err(format!(
                            "text section passes the {IRAM_INSTRS}-instruction IRAM"
                        )));
                    }
                    text_len += 1;
                }
            }
            Section::Data => {
                // In u64, where neither step can wrap; the image is then
                // checked against WRAM here, before pass 2 allocates it.
                let addr = u64::from(data_len).next_multiple_of(u64::from(data_align(l)?));
                let size = data_directive_size(l)?;
                let end = addr + size;
                if end > u64::from(WRAM_BYTES) {
                    return Err(err(format!(
                        "data image reaches {end} bytes, past the {WRAM_BYTES}-byte WRAM"
                    )));
                }
                if let Some(label) = l.label {
                    let (addr, size) = (addr as u32, size as u32);
                    let symbol = Symbol { addr, size, space: AddressSpace::Wram };
                    if data_symbols.insert(label.to_string(), symbol).is_some() {
                        return Err(err(format!("duplicate symbol `{label}`")));
                    }
                }
                data_len = end as u32;
            }
        }
    }

    // ---- Pass 2: emit ----
    let mut section = Section::Text;
    let mut instrs = Vec::with_capacity(text_len as usize);
    // The source line of each instruction, for link errors.
    let mut instr_lines = Vec::with_capacity(text_len as usize);
    let mut wram = Vec::with_capacity(data_len as usize);
    for l in &lines {
        if l.rest == ".text" {
            section = Section::Text;
            continue;
        }
        if l.rest == ".data" {
            section = Section::Data;
            continue;
        }
        if l.rest.is_empty() {
            continue;
        }
        match section {
            Section::Text => {
                if l.rest.starts_with('.') {
                    return Err(AsmError {
                        line: l.number,
                        msg: format!("directive `{}` not allowed in .text", l.rest),
                    });
                }
                instrs.push(parse_instruction(l, &code_labels, &data_symbols)?);
                instr_lines.push(l.number);
            }
            Section::Data => emit_data(l, &mut wram)?,
        }
    }

    let heap_base = (wram.len() as u32).div_ceil(8) * 8;
    let program = DpuProgram {
        instrs,
        wram_init: wram,
        symbols: data_symbols,
        heap_base,
        ..DpuProgram::default()
    };
    // Pass 1 kept text and data within IRAM and WRAM, so what is left to
    // fail is one instruction's operand.
    program.validate(&LinkOptions::default()).map_err(|e| {
        let line = match e {
            LinkError::BadTarget { at, .. }
            | LinkError::BadAtomicBit { at, .. }
            | LinkError::BranchImmOverflow { at, .. } => instr_lines[at],
            LinkError::IramOverflow { .. } | LinkError::WramOverflow { .. } => 0,
        };
        AsmError { line, msg: format!("link error: {e}") }
    })?;
    Ok(program)
}

/// The alignment a data line asks for: 4 for `.word`, the argument of
/// `.align` (a power of two), else 1.
fn data_align(l: &SrcLine<'_>) -> Result<u32, AsmError> {
    let rest = l.rest;
    if rest.starts_with(".word") {
        return Ok(4);
    }
    let Some(arg) = rest.strip_prefix(".align") else {
        return Ok(1);
    };
    let arg = arg.trim();
    arg.parse::<u32>().ok().filter(|a| a.is_power_of_two()).ok_or_else(|| AsmError {
        line: l.number,
        msg: format!(".align takes a power of two, not `{arg}`"),
    })
}

fn data_directive_size(l: &SrcLine<'_>) -> Result<u64, AsmError> {
    let rest = l.rest;
    let err = |msg: String| AsmError { line: l.number, msg };
    if rest.is_empty() || rest == ".data" {
        return Ok(0);
    }
    if let Some(args) = rest.strip_prefix(".word") {
        let n = args.split(',').filter(|s| !s.trim().is_empty()).count();
        return Ok(n as u64 * 4);
    }
    if let Some(args) = rest.strip_prefix(".byte") {
        let n = args.split(',').filter(|s| !s.trim().is_empty()).count();
        return Ok(n as u64);
    }
    if let Some(arg) = rest.strip_prefix(".space") {
        return arg
            .trim()
            .parse::<u32>()
            .map(u64::from)
            .map_err(|_| err(format!("bad .space size `{}`", arg.trim())));
    }
    if rest.starts_with(".align") {
        return Ok(0);
    }
    Err(err(format!("unknown data directive `{rest}`")))
}

/// Appends one data line to the image. Pass 1 has checked its alignment
/// and that the image stays within WRAM.
fn emit_data(l: &SrcLine<'_>, wram: &mut Vec<u8>) -> Result<(), AsmError> {
    let rest = l.rest;
    let err = |msg: String| AsmError { line: l.number, msg };
    let aligned = wram.len().next_multiple_of(data_align(l)? as usize);
    wram.resize(aligned, 0);
    if rest.is_empty() || rest == ".data" || rest.starts_with(".align") {
        return Ok(());
    }
    if let Some(args) = rest.strip_prefix(".word") {
        for v in args.split(',').filter(|s| !s.trim().is_empty()) {
            let value = parse_int(v.trim())
                .ok_or_else(|| err(format!("bad .word value `{}`", v.trim())))?;
            wram.extend_from_slice(&value.to_le_bytes());
        }
        return Ok(());
    }
    if let Some(args) = rest.strip_prefix(".byte") {
        for v in args.split(',').filter(|s| !s.trim().is_empty()) {
            let value = parse_int(v.trim())
                .ok_or_else(|| err(format!("bad .byte value `{}`", v.trim())))?;
            wram.push(value as u8);
        }
        return Ok(());
    }
    if let Some(arg) = rest.strip_prefix(".space") {
        let n: u32 = arg.trim().parse().map_err(|_| err("bad .space".into()))?;
        wram.resize(wram.len() + n as usize, 0);
        return Ok(());
    }
    Err(err(format!("unknown data directive `{rest}`")))
}

fn parse_int(s: &str) -> Option<i32> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return u32::from_str_radix(hex, 16).ok().map(|v| v as i32);
    }
    if let Some(hex) = s.strip_prefix("-0x") {
        return i64::from_str_radix(hex, 16).ok().map(|v| (-v) as i32);
    }
    s.parse::<i32>().ok()
}

fn parse_reg(s: &str) -> Option<Reg> {
    let idx = s.trim().strip_prefix('r')?.parse::<u8>().ok()?;
    Reg::try_r(idx)
}

/// Resolve a value token: integer literal, data symbol (with optional
/// `+n`/`-n` offset), or nothing.
fn resolve_value(tok: &str, data_symbols: &BTreeMap<String, Symbol>) -> Option<i32> {
    let tok = tok.trim();
    if let Some(v) = parse_int(tok) {
        return Some(v);
    }
    // symbol(+|-)offset
    let (name, offset) = match tok.find(['+', '-']) {
        Some(pos) if pos > 0 => {
            let (n, rest) = tok.split_at(pos);
            (n.trim(), parse_int(rest)?)
        }
        _ => (tok, 0),
    };
    data_symbols.get(name).map(|s| s.addr as i32 + offset)
}

fn parse_operand(tok: &str, data_symbols: &BTreeMap<String, Symbol>) -> Option<Operand> {
    if let Some(r) = parse_reg(tok) {
        return Some(Operand::Reg(r));
    }
    resolve_value(tok, data_symbols).map(Operand::Imm)
}

/// Parse `offset(base)` memory operands; the offset may be a symbol.
fn parse_mem(tok: &str, data_symbols: &BTreeMap<String, Symbol>) -> Option<(i32, Reg)> {
    let tok = tok.trim();
    let open = tok.find('(')?;
    let close = tok.rfind(')')?;
    let off_str = tok[..open].trim();
    let offset = if off_str.is_empty() { 0 } else { resolve_value(off_str, data_symbols)? };
    let base = parse_reg(&tok[open + 1..close])?;
    Some((offset, base))
}

fn parse_target(tok: &str, code_labels: &BTreeMap<String, u32>) -> Option<u32> {
    let tok = tok.trim();
    if let Some(v) = parse_int(tok) {
        return u32::try_from(v).ok();
    }
    code_labels.get(tok).copied()
}

fn parse_instruction(
    l: &SrcLine<'_>,
    code_labels: &BTreeMap<String, u32>,
    data_symbols: &BTreeMap<String, Symbol>,
) -> Result<Instruction, AsmError> {
    let err = |msg: String| AsmError { line: l.number, msg };
    let rest = l.rest;
    let (mnemonic, args_str) = match rest.find(char::is_whitespace) {
        Some(pos) => (&rest[..pos], rest[pos..].trim()),
        None => (rest, ""),
    };
    let args: Vec<&str> =
        if args_str.is_empty() { Vec::new() } else { args_str.split(',').map(str::trim).collect() };
    let nargs = |n: usize| -> Result<(), AsmError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(err(format!("`{mnemonic}` expects {n} operands, got {}", args.len())))
        }
    };
    let reg_at = |i: usize| -> Result<Reg, AsmError> {
        parse_reg(args[i]).ok_or_else(|| err(format!("bad register `{}`", args[i])))
    };
    let operand_at = |i: usize| -> Result<Operand, AsmError> {
        parse_operand(args[i], data_symbols)
            .ok_or_else(|| err(format!("bad operand `{}`", args[i])))
    };
    let value_at = |i: usize| -> Result<i32, AsmError> {
        resolve_value(args[i], data_symbols).ok_or_else(|| err(format!("bad value `{}`", args[i])))
    };
    let mem_at = |i: usize| -> Result<(i32, Reg), AsmError> {
        parse_mem(args[i], data_symbols)
            .ok_or_else(|| err(format!("bad memory operand `{}`", args[i])))
    };
    let target_at = |i: usize| -> Result<u32, AsmError> {
        parse_target(args[i], code_labels)
            .ok_or_else(|| err(format!("unknown label `{}`", args[i])))
    };

    if let Some(op) = AluOp::ALL.iter().find(|o| o.mnemonic() == mnemonic) {
        nargs(3)?;
        return Ok(Instruction::Alu {
            op: *op,
            rd: reg_at(0)?,
            ra: reg_at(1)?,
            rb: operand_at(2)?,
        });
    }
    if let Some(cond) = Cond::ALL.iter().find(|c| c.mnemonic() == mnemonic) {
        nargs(3)?;
        return Ok(Instruction::Branch {
            cond: *cond,
            ra: reg_at(0)?,
            rb: operand_at(1)?,
            target: target_at(2)?,
        });
    }
    let load = |width: Width, signed: bool| -> Result<Instruction, AsmError> {
        nargs(2)?;
        let (offset, base) = mem_at(1)?;
        Ok(Instruction::Load { width, signed, rd: reg_at(0)?, base, offset })
    };
    let store = |width: Width| -> Result<Instruction, AsmError> {
        nargs(2)?;
        let (offset, base) = mem_at(1)?;
        Ok(Instruction::Store { width, rs: reg_at(0)?, base, offset })
    };
    match mnemonic {
        "movi" => {
            nargs(2)?;
            Ok(Instruction::Movi { rd: reg_at(0)?, imm: value_at(1)? })
        }
        "mov" => {
            nargs(2)?;
            Ok(Instruction::Alu {
                op: AluOp::Add,
                rd: reg_at(0)?,
                ra: reg_at(1)?,
                rb: Operand::Imm(0),
            })
        }
        "tid" => {
            nargs(1)?;
            Ok(Instruction::Tid { rd: reg_at(0)? })
        }
        "lw" => load(Width::Word, false),
        "lh" => load(Width::Half, true),
        "lhu" => load(Width::Half, false),
        "lb" => load(Width::Byte, true),
        "lbu" => load(Width::Byte, false),
        "sw" => store(Width::Word),
        "sh" => store(Width::Half),
        "sb" => store(Width::Byte),
        "ldma" => {
            nargs(3)?;
            Ok(Instruction::Ldma { wram: reg_at(0)?, mram: reg_at(1)?, len: operand_at(2)? })
        }
        "sdma" => {
            nargs(3)?;
            Ok(Instruction::Sdma { wram: reg_at(0)?, mram: reg_at(1)?, len: operand_at(2)? })
        }
        "jump" => {
            nargs(1)?;
            Ok(Instruction::Jump { target: target_at(0)? })
        }
        "jal" => {
            nargs(2)?;
            Ok(Instruction::Jal { rd: reg_at(0)?, target: target_at(1)? })
        }
        "jr" => {
            nargs(1)?;
            Ok(Instruction::Jr { ra: reg_at(0)? })
        }
        "acquire" => {
            nargs(1)?;
            Ok(Instruction::Acquire { bit: operand_at(0)? })
        }
        "release" => {
            nargs(1)?;
            Ok(Instruction::Release { bit: operand_at(0)? })
        }
        "stop" => {
            nargs(0)?;
            Ok(Instruction::Stop)
        }
        "nop" => {
            nargs(0)?;
            Ok(Instruction::Nop)
        }
        other => Err(err(format!("unknown mnemonic `{other}`"))),
    }
}

/// Renders a program back to assembly text (numeric branch targets, data as
/// `.byte` runs). `assemble(disassemble(p))` reproduces `p.instrs` exactly.
#[must_use]
pub fn disassemble(p: &DpuProgram) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if !p.wram_init.is_empty() {
        out.push_str(".data\n");
        let _ = writeln!(out, "    .space {}", p.wram_init.len());
    }
    out.push_str(".text\n");
    for (i, instr) in p.instrs.iter().enumerate() {
        let _ = writeln!(out, "    {instr}    ; [{i}]");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_crate_doc_example() {
        let p = assemble(
            r#"
            .data
        counter: .word 0
            .text
        main:
            movi r0, counter
            lw   r1, 0(r0)
            add  r1, r1, 1
            sw   r1, 0(r0)
            stop
        "#,
        )
        .unwrap();
        assert_eq!(p.instrs.len(), 5);
        assert_eq!(p.instrs[0], Instruction::Movi { rd: Reg::r(0), imm: 0 });
    }

    #[test]
    fn forward_and_backward_labels() {
        let p = assemble(
            r#"
            .text
        start:
            movi r0, 3
        loop:
            sub r0, r0, 1
            bne r0, 0, loop
            jump end
            nop
        end:
            stop
        "#,
        )
        .unwrap();
        assert_eq!(
            p.instrs[2],
            Instruction::Branch { cond: Cond::Ne, ra: Reg::r(0), rb: Operand::Imm(0), target: 1 }
        );
        assert_eq!(p.instrs[3], Instruction::Jump { target: 5 });
    }

    #[test]
    fn data_symbols_resolve_with_offsets() {
        let p = assemble(
            r#"
            .data
        a: .word 1, 2, 3
        b: .byte 7
            .text
            movi r0, a+8
            movi r1, b
            lw r2, a(r3)
            stop
        "#,
        )
        .unwrap();
        assert_eq!(p.instrs[0], Instruction::Movi { rd: Reg::r(0), imm: 8 });
        assert_eq!(p.instrs[1], Instruction::Movi { rd: Reg::r(1), imm: 12 });
        assert_eq!(
            p.instrs[2],
            Instruction::Load {
                width: Width::Word,
                signed: false,
                rd: Reg::r(2),
                base: Reg::r(3),
                offset: 0
            }
        );
        assert_eq!(&p.wram_init[0..4], &1i32.to_le_bytes());
        assert_eq!(p.wram_init[12], 7);
    }

    #[test]
    fn alignment_directives() {
        let p = assemble(
            r#"
            .data
        x: .byte 1
            .align 8
        y: .word 5
            .text
            stop
        "#,
        )
        .unwrap();
        assert_eq!(p.symbol("x").unwrap().addr, 0);
        assert_eq!(p.symbol("y").unwrap().addr, 8);
        assert_eq!(&p.wram_init[8..12], &5i32.to_le_bytes());
    }

    #[test]
    fn data_past_wram_is_an_error_at_its_line() {
        // Each image would wrap a u32 cursor or pass WRAM; each is refused
        // at the line that overflows, before any image is allocated.
        for (src, line) in [
            ("x: .space 4294967295\ny: .space 2\n", 1),
            ("x: .space 4294967293\ny: .word 5\n", 1),
            (".space 3000000000\n", 1),
            (".byte 1\n.space 4294967295\n", 2),
            (".space 65536\n.byte 1\n", 2),
            (".byte 1\n.align 2147483648\n", 2),
        ] {
            let e = assemble(&format!(".data\n{src}.text\n stop\n")).unwrap_err();
            assert_eq!(e.line, line + 1, "{src:?}: {e}");
            assert!(e.msg.contains("past the 65536-byte WRAM"), "{src:?}: {e}");
        }
        let full = assemble(".data\n.space 65532\n.word 5\n.text\n stop\n").unwrap();
        assert_eq!(full.wram_init.len(), 65536);
    }

    #[test]
    fn link_errors_name_their_source_line() {
        let big = format!(".text\n{}stop\n", " nop\n".repeat(4097));
        for (src, line, msg) in [
            (big.as_str(), 4098, "text section passes the 4096-instruction IRAM"),
            (".text\n acquire 300\n stop\n", 2, "instruction 0: atomic bit 300 out of range"),
            (
                ".text\n movi r0, 1\n bne r0, 70000, done\ndone:\n stop\n",
                3,
                "instruction 1: branch immediate 70000 does not fit i16",
            ),
        ] {
            let e = assemble(src).unwrap_err();
            assert_eq!((e.line, e.msg.contains(msg)), (line, true), "{e}");
        }
        let full = format!(".text\n{}stop\n", " nop\n".repeat(4095));
        assert_eq!(assemble(&full).unwrap().instrs.len(), 4096);
    }

    #[test]
    fn align_takes_a_power_of_two() {
        for arg in ["99", "abc", "0", ""] {
            let e = assemble(&format!(".data\n.byte 1\n.align {arg}\n.text\n stop\n")).unwrap_err();
            assert_eq!(e.line, 3, ".align {arg}: {e}");
            assert!(e.msg.contains("power of two"), ".align {arg}: {e}");
        }
    }

    #[test]
    fn comments_of_all_styles_ignored() {
        let p = assemble(".text\n nop ; semicolon\n nop # hash\n nop // slashes\n stop\n").unwrap();
        assert_eq!(p.instrs.len(), 4);
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = assemble(".text\n nop\n bogus r0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("bogus"));
    }

    #[test]
    fn unknown_label_is_an_error() {
        let e = assemble(".text\n jump nowhere\n").unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = assemble(".text\na:\n nop\na:\n stop\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble(".text\n movi r0, 0x10\n movi r1, -5\n stop\n").unwrap();
        assert_eq!(p.instrs[0], Instruction::Movi { rd: Reg::r(0), imm: 16 });
        assert_eq!(p.instrs[1], Instruction::Movi { rd: Reg::r(1), imm: -5 });
    }

    #[test]
    fn dma_and_sync_instructions() {
        let p = assemble(
            ".text\n ldma r0, r1, 256\n sdma r2, r3, r4\n acquire 3\n release r5\n stop\n",
        )
        .unwrap();
        assert_eq!(
            p.instrs[0],
            Instruction::Ldma { wram: Reg::r(0), mram: Reg::r(1), len: Operand::Imm(256) }
        );
        assert_eq!(
            p.instrs[1],
            Instruction::Sdma { wram: Reg::r(2), mram: Reg::r(3), len: Operand::Reg(Reg::r(4)) }
        );
    }

    #[test]
    fn disassemble_assemble_round_trip() {
        let src = r#"
            .data
        buf: .space 16
            .text
        main:
            tid r0
            movi r1, buf
            sll r2, r0, 2
            add r1, r1, r2
            lw r3, 0(r1)
            max r3, r3, r0
            sw r3, 0(r1)
            bne r0, 15, main
            stop
        "#;
        let p = assemble(src).unwrap();
        let round = assemble(&disassemble(&p)).unwrap();
        assert_eq!(round.instrs, p.instrs);
    }
}
