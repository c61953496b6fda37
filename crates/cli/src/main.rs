//! `ses` — command-line front end for social event scheduling. `ses help`
//! lists every command and option (rendered from [`commands::COMMANDS`]);
//! an option a command does not declare fails with status 1.

use ses_cli::{args, commands};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(commands::COMMANDS, &argv) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    // Every command writes its output through `out`; a reader that closed
    // the pipe early ends the command quietly, with status 0.
    let mut out = commands::Stdout::default();
    let result =
        commands::run(&parsed, &mut out).and_then(|()| out.flush().map_err(|e| e.to_string()));
    if out.closed() {
        return ExitCode::SUCCESS;
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

/// Reports an error on stderr and returns the failure status. A closed
/// stderr loses the message, never the status: the write error is ignored
/// (`eprintln!` would panic and exit 101).
fn fail(e: impl std::fmt::Display) -> ExitCode {
    let _ = writeln!(std::io::stderr(), "ses: {e}");
    ExitCode::FAILURE
}
