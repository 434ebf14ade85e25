//! `pimsim` — the command-line front door to the simulator.
//!
//! One module per subcommand, each with its flag list in a `Spec` (run
//! `pimsim` with no arguments for every usage line); [`args`] turns a
//! command line into options, [`output`] turns a finished run into stdout
//! and files, and this file turns a [`Failure`] into an exit code: 2 for
//! a wrong command line, 1 for a run that failed.

mod args;
mod exp;
mod fuzz;
mod output;
mod run;
mod serve;
mod tune;

use std::process::ExitCode;

use args::{Failure, Spec};

type Command = (&'static Spec, fn(&[String]) -> Result<(), Failure>);

static COMMANDS: [Command; 8] = [
    (&run::ASM, run::asm),
    (&run::DISASM, run::disasm),
    (&run::RUN, run::run),
    (&exp::EXP, exp::exp),
    (&exp::TRACE_ONLY, exp::trace),
    (&serve::SPEC, serve::serve),
    (&tune::SPEC, tune::tune),
    (&fuzz::SPEC, fuzz::fuzz),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.split_first().and_then(|(sub, rest)| {
        COMMANDS.iter().find(|(spec, _)| spec.name == sub).map(|c| (c, rest))
    });
    let Some(((spec, run), rest)) = command else {
        eprintln!("usage:");
        for (spec, _) in &COMMANDS {
            eprintln!("  {}", spec.usage());
        }
        return ExitCode::from(2);
    };
    match run(rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("pimsim {}: {msg}\nusage: {}", spec.name, spec.usage());
            ExitCode::from(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("pimsim {}: {msg}", spec.name);
            ExitCode::FAILURE
        }
    }
}
