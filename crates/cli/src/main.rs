//! `ses` — command-line front end for social event scheduling.
//!
//! ```text
//! ses generate --members 3000 --events 1500 --weeks 52 --seed 0 --out data.json
//! ses analyze  --dataset data.json
//! ses solve    --dataset data.json --k 100 --algo GRD [--checkins] [--format json]
//! ses pack     --profile sparse --users 100000 --out universe.sesstore
//! ses quality  [--instances 20] [--k 4]
//! ses simulate --scenario flash-crowd --steps 10000 --seed 42 [--format json]
//! ses serve    --addr 127.0.0.1:7878 --shards 4 [--wal-dir DIR [--fsync POLICY]] [--instance name=path]...
//! ses instances --addr 127.0.0.1:7878
//! ses top      --addr 127.0.0.1:7878 [--once]
//! ses loadgen  --addr 127.0.0.1:7878 --clients 8 [--instance name]... [--strict]
//! ses wal inspect --dir DIR [--records] [--format json]
//! ses help
//! ```

use ses_cli::{args, commands};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `ses wal <action>` is a two-word command; fold it into one token so
    // the flat option parser stays flat.
    if argv.first().map(String::as_str) == Some("wal")
        && argv.get(1).is_some_and(|a| !a.starts_with("--"))
    {
        let action = argv.remove(1);
        argv[0] = format!("wal-{action}");
    }
    let parsed = match args::parse(&argv) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    // Every command writes its output through `out`; a reader that closed
    // the pipe early ends the command quietly, with status 0.
    let mut out = commands::Stdout::default();
    let result = match parsed.command.as_str() {
        "generate" => commands::generate(&parsed, &mut out),
        "analyze" => commands::analyze(&parsed, &mut out),
        "solve" | "schedule" => commands::solve(&parsed, &mut out),
        "pack" => commands::pack(&parsed, &mut out),
        "quality" => commands::quality(&parsed, &mut out),
        "simulate" => commands::simulate(&parsed, &mut out),
        "serve" => commands::serve(&parsed, &mut out),
        "instances" => commands::instances(&parsed, &mut out),
        "top" => commands::top(&parsed, &mut out),
        "loadgen" => commands::loadgen(&parsed, &mut out),
        "wal-inspect" => commands::wal_inspect(&parsed, &mut out),
        "wal" => Err("wal needs an action (try `ses wal inspect --dir DIR`)".to_owned()),
        "help" | "--help" | "-h" => out
            .write_all(commands::HELP.as_bytes())
            .map_err(|e| e.to_string()),
        other => Err(format!("unknown subcommand '{other}' (try `ses help`)")),
    };
    let result = result.and_then(|()| out.flush().map_err(|e| e.to_string()));
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
