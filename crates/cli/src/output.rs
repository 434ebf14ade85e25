//! How a finished run becomes output files and stdout: the tail every
//! document-producing subcommand shares.

use std::io::Write;
use std::path::Path;

use pimulator::report::Json;
use pimulator::trace::{chrome_trace, JobTrace};

use crate::args::{Common, Failure};

/// Writes `contents` to `path`, creating any missing parent directories
/// first (so `--out results/nested/dir` and `--trace a/b/trace.json` work
/// on a fresh checkout).
pub(crate) fn write_with_parents(path: &Path, contents: &str) -> Result<(), Failure> {
    let write = || {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, contents)
    };
    write().map_err(|err| Failure::Run(format!("could not write {}: {err}", path.display())))
}

/// Prints to stdout, tolerating a closed pipe (`pimsim exp … | head`):
/// losing stdout mid-table is the downstream reader's choice, not a fault.
pub(crate) fn emit(text: &str) {
    let _ = std::io::stdout().lock().write_all(text.as_bytes());
}

/// The `--list` form of a registry, also shown under an unknown name.
pub(crate) fn listing(rows: impl IntoIterator<Item = (&'static str, &'static str)>) -> String {
    rows.into_iter().map(|(name, title)| format!("{name:26} {title}\n")).collect()
}

/// Says where a file went, unless stdout carries JSON someone is parsing
/// and stderr should stay quiet.
pub(crate) fn wrote(common: &Common, path: &Path) {
    if !common.json {
        eprintln!("wrote {}", path.display());
    }
}

/// Under `--trace FILE`, writes the Chrome trace-event document of
/// `traces` there and records the path under `"trace"` in `doc`; then
/// prints `text` (or, under `--json`, the document) and writes the
/// document to `path`.
pub(crate) fn finish(
    common: &Common,
    mut doc: Json,
    text: &str,
    path: Option<&Path>,
    traces: &[JobTrace],
) -> Result<(), Failure> {
    if let Some(trace_path) = &common.trace {
        write_with_parents(trace_path, &chrome_trace(traces).render_pretty())?;
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("trace".to_string(), Json::from(trace_path.display().to_string())));
        }
        wrote(common, trace_path);
    }
    let pretty = doc.render_pretty();
    emit(if common.json { &pretty } else { text });
    if let Some(path) = path {
        write_with_parents(path, &pretty)?;
        wrote(common, path);
    }
    Ok(())
}
