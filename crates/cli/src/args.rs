//! How a command line becomes options: one cursor for every subcommand.
//!
//! A subcommand writes its flag list once, in a [`Spec`]. The usage line,
//! the "unknown flag" message and the placeholder in "needs a value" are
//! all derived from it, and [`Args`] reads every valued flag the same
//! way. The flags several subcommands share are parsed in one place,
//! [`Common::take`].

use std::path::PathBuf;
use std::str::FromStr;

use pimulator::prim_suite::DatasetSize;

/// Why a subcommand did not succeed. `main` owns the exit codes.
#[derive(Debug)]
pub(crate) enum Failure {
    /// The command line is wrong: printed with the usage line, exit 2.
    Usage(String),
    /// The run failed (simulation fault, I/O, a failed check): exit 1.
    Run(String),
}

/// A flag and the placeholder of its value (`""` for a switch).
pub(crate) type Flag = (&'static str, &'static str);

pub(crate) const SIZE: Flag = ("--size", "tiny|single|multi");
pub(crate) const THREADS: Flag = ("--threads", "N");
pub(crate) const JSON: Flag = ("--json", "");
pub(crate) const OUT_DIR: Flag = ("--out", "DIR");
pub(crate) const OUT_FILE: Flag = ("--out", "FILE");
pub(crate) const TRACE: Flag = ("--trace", "FILE");
pub(crate) const TUNED: Flag = ("--tuned", "FILE");

/// A subcommand's command-line shape.
#[derive(Debug)]
pub(crate) struct Spec {
    /// The subcommand, as typed after `pimsim`.
    pub name: &'static str,
    /// Placeholder of the leading positional argument (`""` for none).
    pub positional: &'static str,
    /// Every flag the subcommand accepts.
    pub flags: &'static [Flag],
}

impl Spec {
    /// `pimsim <sub> <positional> [--flag VALUE] …`
    pub(crate) fn usage(&self) -> String {
        let mut line = format!("pimsim {}", self.name);
        if !self.positional.is_empty() {
            line.push(' ');
            line.push_str(self.positional);
        }
        for (flag, value) in self.flags {
            let sep = if value.is_empty() { "" } else { " " };
            line.push_str(&format!(" [{flag}{sep}{value}]"));
        }
        line
    }
}

/// A cursor over one subcommand's arguments. Every error is a usage
/// message.
#[derive(Debug)]
pub(crate) struct Args<'a> {
    spec: &'static Spec,
    rest: std::slice::Iter<'a, String>,
    /// The flag [`Args::flag`] returned last; values are read for it.
    current: Flag,
}

impl<'a> Args<'a> {
    pub(crate) fn new(spec: &'static Spec, args: &'a [String]) -> Self {
        Args { spec, rest: args.iter(), current: ("", "") }
    }

    /// The leading positional argument; `missing` says what to type.
    pub(crate) fn positional(&mut self, missing: &str) -> Result<&'a str, String> {
        self.rest.next().map(String::as_str).ok_or_else(|| missing.to_string())
    }

    /// Advances to the next flag, which must be in the spec's list.
    pub(crate) fn flag(&mut self) -> Result<Option<&'static str>, String> {
        let Some(arg) = self.rest.next() else { return Ok(None) };
        let known = self.spec.flags.iter().find(|(flag, _)| flag == arg).ok_or_else(|| {
            let expected: Vec<&str> = self.spec.flags.iter().map(|f| f.0).collect();
            let expected = if expected.is_empty() { "none".into() } else { expected.join("/") };
            format!("unknown flag `{arg}` (expected {expected})")
        })?;
        self.current = *known;
        Ok(Some(known.0))
    }

    /// An error about the current flag.
    pub(crate) fn bad(&self, what: impl std::fmt::Display) -> String {
        format!("{}: {what}", self.current.0)
    }

    /// The error for a value outside the alternatives the flag's
    /// placeholder spells out.
    pub(crate) fn unknown(&self, what: &str, v: &str) -> String {
        self.bad(format_args!("unknown {what} `{v}` (expected {})", self.current.1))
    }

    /// The current flag's value.
    pub(crate) fn value(&mut self) -> Result<&'a str, String> {
        let (flag, placeholder) = self.current;
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value ({placeholder})"))
    }

    pub(crate) fn path(&mut self) -> Result<PathBuf, String> {
        self.value().map(PathBuf::from)
    }

    pub(crate) fn number<T: FromStr>(&mut self) -> Result<T, String> {
        let v = self.value()?;
        v.parse().map_err(|_| self.bad(format_args!("`{v}` is not a number")))
    }

    /// A number that must be at least 1: worker counts, cadences.
    pub(crate) fn at_least_one<T: FromStr + PartialOrd + From<u8>>(&mut self) -> Result<T, String> {
        let n: T = self.number()?;
        if n < T::from(1) {
            return Err(self.bad("must be at least 1"));
        }
        Ok(n)
    }
}

/// The flags more than one subcommand takes. A subcommand lists the ones
/// it accepts in its [`Spec`] and falls through to [`Common::take`].
#[derive(Debug, Default)]
pub(crate) struct Common {
    pub size: Option<DatasetSize>,
    pub threads: Option<usize>,
    /// Print the JSON document to stdout instead of the table.
    pub json: bool,
    /// A directory or a file, as the subcommand's `--out` placeholder says.
    pub out: Option<PathBuf>,
    pub trace: Option<PathBuf>,
    pub tuned: Option<PathBuf>,
}

impl Common {
    /// Parses the cursor's current flag.
    ///
    /// # Panics
    ///
    /// Panics if a [`Spec`] lists a flag that neither its subcommand nor
    /// this function parses.
    pub(crate) fn take(&mut self, args: &mut Args) -> Result<(), String> {
        match args.current.0 {
            "--size" => {
                let v = args.value()?;
                let size = pim_bench::size_by_label(v).ok_or_else(|| args.unknown("size", v))?;
                self.size = Some(size);
            }
            "--threads" => self.threads = Some(args.at_least_one()?),
            "--json" => self.json = true,
            "--out" => self.out = Some(args.path()?),
            "--trace" => self.trace = Some(args.path()?),
            "--tuned" => self.tuned = Some(args.path()?),
            other => unreachable!("`{other}` is in a flag list but nothing parses it"),
        }
        Ok(())
    }

    /// Parses a command line made only of the positional and shared flags.
    pub(crate) fn parse<'a>(
        spec: &'static Spec,
        args: &'a [String],
        missing: &str,
    ) -> Result<(&'a str, Common), String> {
        let mut args = Args::new(spec, args);
        let name = args.positional(missing)?;
        let mut common = Common::default();
        while args.flag()?.is_some() {
            common.take(&mut args)?;
        }
        Ok((name, common))
    }
}

#[cfg(test)]
pub(crate) fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(ToString::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPEC: Spec = Spec {
        name: "exp",
        positional: "<name>",
        flags: &[SIZE, THREADS, JSON, OUT_DIR, TRACE, TUNED],
    };
    static NARROW: Spec = Spec { name: "trace", positional: "<name>", flags: &[SIZE, OUT_FILE] };

    fn parse(spec: &'static Spec, args: &[&str]) -> Result<Common, String> {
        Common::parse(spec, &strings(args), "which?").map(|(_, c)| c)
    }

    #[test]
    fn the_shared_flags_parse_and_the_usage_line_lists_them() {
        let line = "fig --size tiny --threads 3 --json --out /tmp/r --trace t.json --tuned x.json";
        let args: Vec<&str> = line.split(' ').collect();
        let c = parse(&SPEC, &args).unwrap();
        assert_eq!(c.size, Some(DatasetSize::Tiny));
        assert_eq!(c.threads, Some(3));
        assert!(c.json);
        assert_eq!(c.out, Some(PathBuf::from("/tmp/r")));
        assert_eq!(c.trace, Some(PathBuf::from("t.json")));
        assert_eq!(c.tuned, Some(PathBuf::from("x.json")));
        assert_eq!(
            SPEC.usage(),
            "pimsim exp <name> [--size tiny|single|multi] [--threads N] [--json] [--out DIR] \
             [--trace FILE] [--tuned FILE]"
        );
    }

    #[test]
    fn every_malformed_command_line_gets_the_same_kind_of_message() {
        for (args, want) in [
            (&[][..], "which?"),
            (&["fig", "--threads", "0"], "--threads: must be at least 1"),
            (&["fig", "--threads", "many"], "--threads: `many` is not a number"),
            (&["fig", "--threads"], "--threads needs a value (N)"),
            (&["fig", "--trace"], "--trace needs a value (FILE)"),
            (&["fig", "--size", "huge"], "--size: unknown size `huge`"),
            (&["fig", "--what"], "unknown flag `--what` (expected --size/--threads/--json/"),
        ] {
            let err = parse(&SPEC, args).unwrap_err();
            assert!(err.starts_with(want), "{args:?}: {err}");
        }
        // A shared flag is still unknown to a subcommand that does not list it.
        let err = parse(&NARROW, &["fig", "--json"]).unwrap_err();
        assert_eq!(err, "unknown flag `--json` (expected --size/--out)");
    }
}
