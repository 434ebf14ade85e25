//! The committed regression corpus: plain-text entries under
//! `tests/corpus/` that replay deterministically in `cargo test`.
//!
//! Two entry kinds share one file format, a header of `; key: value`
//! comment lines (the assembler treats `;` lines as comments, so a whole
//! entry is also a valid assembly file):
//!
//! * **seed** entries pin a generator seed + context; replay regenerates
//!   the program (generation is deterministic) and runs the gauntlet.
//! * **program** entries carry an explicit disassembly — the shape the
//!   shrinker emits for minimized repros — and replay assembles the body
//!   (the assembler round-trip guarantee makes this exact).
//!
//! Repro filenames are content-addressed (`repro-<invariant>-<hash>`), so
//! re-finding a known bug is idempotent and two campaigns never collide.

use std::path::Path;

use crate::gen::{generate, GenOptions};
use crate::{ExecMode, FuzzCase};
use pim_asm::assemble;

/// First line of every corpus entry.
pub(crate) const HEADER: &str = "; pim-fuzz corpus v1";

/// One parsed corpus entry.
#[derive(Debug, Clone)]
pub enum CorpusEntry {
    /// Regenerate from the (deterministic) generator.
    Seed {
        /// Generator seed.
        seed: u64,
        /// Tasklet count.
        tasklets: u32,
        /// Executor mode.
        mode: ExecMode,
        /// Chained launch count (absent in older entries → 1).
        launches: u32,
    },
    /// Assemble the carried program text.
    Program {
        /// Tasklet count.
        tasklets: u32,
        /// Executor mode.
        mode: ExecMode,
        /// Chained launch count (absent in older entries → 1).
        launches: u32,
        /// Invariant the repro originally broke, if recorded.
        invariant: Option<String>,
        /// The full entry text (headers + disassembly), assembler-ready.
        text: String,
    },
}

/// Renders a minimized-repro program entry (header + disassembly).
#[must_use]
pub(crate) fn render_repro(case: &FuzzCase, invariant: &str) -> String {
    let chain = if case.launch_count() > 1 {
        format!("; launches: {}\n", case.launch_count())
    } else {
        String::new()
    };
    format!(
        "{HEADER}\n; kind: program\n; tasklets: {}\n; mode: {}\n{chain}; invariant: {invariant}\n{}",
        case.tasklets,
        case.mode.as_str(),
        pim_asm::disassemble(&case.program)
    )
}

/// Content-addressed filename for a rendered repro entry.
#[must_use]
pub(crate) fn repro_filename(text: &str, invariant: &str) -> String {
    format!("repro-{invariant}-{:016x}.corpus", pim_rng::fnv1a(text.as_bytes()))
}

fn header_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.strip_prefix("; ")?.strip_prefix(key)?.strip_prefix(':').map(str::trim)
}

/// Parses one corpus entry.
///
/// # Errors
///
/// Reports a missing/garbled header, an unknown kind or mode, or
/// unparseable numeric fields.
pub(crate) fn parse_entry(text: &str) -> Result<CorpusEntry, String> {
    if text.lines().next().map(str::trim) != Some(HEADER) {
        return Err(format!("missing `{HEADER}` header line"));
    }
    let mut kind = None;
    let mut seed = None;
    let mut tasklets = None;
    let mut mode = None;
    let mut launches = None;
    let mut invariant = None;
    for line in text.lines().skip(1) {
        let line = line.trim();
        if let Some(v) = header_value(line, "kind") {
            kind = Some(v.to_string());
        } else if let Some(v) = header_value(line, "seed") {
            let digits = v.strip_prefix("0x").unwrap_or(v);
            seed =
                Some(u64::from_str_radix(digits, 16).map_err(|e| format!("bad seed `{v}`: {e}"))?);
        } else if let Some(v) = header_value(line, "tasklets") {
            tasklets = Some(v.parse::<u32>().map_err(|e| format!("bad tasklets `{v}`: {e}"))?);
        } else if let Some(v) = header_value(line, "mode") {
            mode = Some(ExecMode::parse(v)?);
        } else if let Some(v) = header_value(line, "launches") {
            let n = v.parse::<u32>().map_err(|e| format!("bad launches `{v}`: {e}"))?;
            if n == 0 {
                return Err("`; launches:` must be at least 1".into());
            }
            launches = Some(n);
        } else if let Some(v) = header_value(line, "invariant") {
            invariant = Some(v.to_string());
        } else if !line.starts_with(';') && !line.is_empty() {
            break; // program body begins
        }
    }
    let tasklets = tasklets.ok_or("missing `; tasklets:` header")?;
    let mode = mode.ok_or("missing `; mode:` header")?;
    let launches = launches.unwrap_or(1);
    match kind.as_deref() {
        Some("seed") => {
            let seed = seed.ok_or("seed entry missing `; seed:` header")?;
            Ok(CorpusEntry::Seed { seed, tasklets, mode, launches })
        }
        Some("program") => {
            Ok(CorpusEntry::Program { tasklets, mode, launches, invariant, text: text.to_string() })
        }
        Some(other) => Err(format!("unknown corpus kind `{other}`")),
        None => Err("missing `; kind:` header".into()),
    }
}

/// Materializes an entry into a runnable case. `label` should carry
/// provenance (usually the filename).
///
/// # Errors
///
/// Reports assembly errors in program entries.
pub fn entry_case(entry: &CorpusEntry, label: &str) -> Result<FuzzCase, String> {
    match entry {
        CorpusEntry::Seed { seed, tasklets, mode, launches } => {
            let mut case = generate(
                *seed,
                &GenOptions {
                    tasklets: *tasklets,
                    mode: *mode,
                    focus: None,
                    gather: false,
                    launches: *launches,
                },
            );
            case.label = format!("{label} ({})", case.label);
            Ok(case)
        }
        CorpusEntry::Program { tasklets, mode, launches, text, .. } => {
            let program = assemble(text).map_err(|e| format!("{label}: {e}"))?;
            Ok(FuzzCase {
                program,
                tasklets: *tasklets,
                mode: *mode,
                launches: *launches,
                label: label.into(),
                mutant: None,
            })
        }
    }
}

/// Loads every `*.corpus` file in `dir`, sorted by filename (replay order
/// is part of determinism).
///
/// # Errors
///
/// Reports an unreadable directory or file, or an unparseable entry
/// (naming the file).
pub fn load_dir(dir: &Path) -> Result<Vec<(String, CorpusEntry)>, String> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?;
    let mut names: Vec<String> = Vec::new();
    for de in rd {
        let de = de.map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?;
        let name = de.file_name().to_string_lossy().into_owned();
        if name.ends_with(".corpus") {
            names.push(name);
        }
    }
    names.sort();
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        let path = dir.join(&name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let entry = parse_entry(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((name, entry));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders a seed entry, the input of the `parse_entry` round trips.
    /// The `; launches:` line is emitted only for chained cases, so
    /// single-launch entries keep the historical format.
    fn render_seed(seed: u64, tasklets: u32, mode: ExecMode, launches: u32) -> String {
        let chain = if launches > 1 { format!("; launches: {launches}\n") } else { String::new() };
        format!(
            "{HEADER}\n; kind: seed\n; seed: {seed:#x}\n; tasklets: {tasklets}\n; mode: {}\n{chain}",
            mode.as_str()
        )
    }

    #[test]
    fn seed_entries_round_trip() {
        let text = render_seed(0xD1FF_0007, 8, ExecMode::Ilp, 1);
        assert!(!text.contains("launches"), "single-launch entries keep the historical format");
        match parse_entry(&text).unwrap() {
            CorpusEntry::Seed { seed, tasklets, mode, launches } => {
                assert_eq!(seed, 0xD1FF_0007);
                assert_eq!(tasklets, 8);
                assert_eq!(mode, ExecMode::Ilp);
                assert_eq!(launches, 1);
            }
            other => panic!("expected seed entry, got {other:?}"),
        }
    }

    #[test]
    fn chained_seed_entries_round_trip_the_launch_count() {
        let text = render_seed(0xBEEF, 4, ExecMode::Scalar, 3);
        match parse_entry(&text).unwrap() {
            CorpusEntry::Seed { launches, .. } => assert_eq!(launches, 3),
            other => panic!("expected seed entry, got {other:?}"),
        }
        let case = entry_case(&parse_entry(&text).unwrap(), "c.corpus").unwrap();
        assert_eq!(case.launches, 3);
        assert!(parse_entry(
            &render_seed(1, 2, ExecMode::Scalar, 1).replace("; mode", "; launches: 0\n; mode")
        )
        .is_err());
    }

    #[test]
    fn program_entries_reassemble_the_exact_instructions() {
        let case = generate(
            11,
            &GenOptions {
                tasklets: 2,
                mode: ExecMode::Scalar,
                focus: None,
                gather: false,
                launches: 2,
            },
        );
        let text = render_repro(&case, "naive-fast");
        let entry = parse_entry(&text).unwrap();
        let replayed = entry_case(&entry, "x.corpus").unwrap();
        assert_eq!(replayed.program.instrs, case.program.instrs);
        assert_eq!(replayed.tasklets, 2);
        assert_eq!(replayed.launches, 2, "repro entries carry the chain depth");
        match entry {
            CorpusEntry::Program { invariant, .. } => {
                assert_eq!(invariant.as_deref(), Some("naive-fast"));
            }
            other => panic!("expected program entry, got {other:?}"),
        }
    }

    #[test]
    fn repro_filenames_are_content_addressed() {
        let a = repro_filename("abc", "oracle");
        let b = repro_filename("abc", "oracle");
        let c = repro_filename("abd", "oracle");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with("repro-oracle-") && a.ends_with(".corpus"));
    }

    #[test]
    fn malformed_entries_are_rejected_with_context() {
        assert!(parse_entry("nope").is_err());
        assert!(parse_entry(&format!("{HEADER}\n; kind: seed\n")).is_err());
        assert!(parse_entry(&format!("{HEADER}\n; kind: warp\n; tasklets: 2\n; mode: scalar\n"))
            .is_err());
    }
}
