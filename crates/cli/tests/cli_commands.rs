//! Integration tests of the `ses` subcommands, driven through the same
//! parsed-argument structures the binary uses.

use ses_cli::args::{self, parse};
use ses_cli::commands;
use std::io::{self, BufRead, BufReader};
use std::process::{Command, Stdio};

fn argv(parts: &[&str]) -> ses_cli::args::ParsedArgs {
    let v: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    parse(commands::COMMANDS, &v).expect("test argv parses")
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ses_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_analyze_schedule_pipeline() {
    let out = temp_path("pipeline.json");
    let out_str = out.to_str().unwrap();
    commands::generate(
        &argv(&[
            "generate",
            "--members",
            "200",
            "--events",
            "150",
            "--weeks",
            "6",
            "--out",
            out_str,
        ]),
        &mut io::sink(),
    )
    .expect("generate succeeds");
    assert!(out.exists());

    commands::analyze(&argv(&["analyze", "--dataset", out_str]), &mut io::sink())
        .expect("analyze succeeds");

    let plan = temp_path("plan.json");
    commands::solve(
        &argv(&[
            "schedule",
            "--dataset",
            out_str,
            "--k",
            "10",
            "--algo",
            "GRD",
            "--out",
            plan.to_str().unwrap(),
        ]),
        &mut io::sink(),
    )
    .expect("schedule succeeds");
    // The schedule JSON must deserialize into a ses-core Schedule with 10
    // assignments.
    let json = std::fs::read_to_string(&plan).unwrap();
    let schedule: ses_core::Schedule = serde_json::from_str(&json).unwrap();
    assert_eq!(schedule.len(), 10);

    std::fs::remove_file(out).ok();
    std::fs::remove_file(plan).ok();
}

#[test]
fn schedule_supports_every_algorithm_name() {
    let out = temp_path("algos.json");
    let out_str = out.to_str().unwrap();
    commands::generate(
        &argv(&[
            "generate",
            "--members",
            "120",
            "--events",
            "120",
            "--out",
            out_str,
        ]),
        &mut io::sink(),
    )
    .unwrap();
    for algo in ["GRD", "GRD-PQ", "TOP", "RAND", "RAND:123", "LS", "SA"] {
        commands::solve(
            &argv(&["schedule", "--dataset", out_str, "--k", "5", "--algo", algo]),
            &mut io::sink(),
        )
        .unwrap_or_else(|e| panic!("algo {algo}: {e}"));
    }
    let err = commands::solve(
        &argv(&[
            "schedule",
            "--dataset",
            out_str,
            "--k",
            "5",
            "--algo",
            "BOGUS",
        ]),
        &mut io::sink(),
    )
    .unwrap_err();
    assert!(
        err.contains("unknown scheduler") && err.contains("GRD"),
        "registry error must list valid specs: {err}"
    );
    std::fs::remove_file(out).ok();
}

#[test]
fn schedule_with_checkin_sigma_flag() {
    let out = temp_path("checkins.json");
    let out_str = out.to_str().unwrap();
    commands::generate(
        &argv(&[
            "generate",
            "--members",
            "150",
            "--events",
            "130",
            "--out",
            out_str,
        ]),
        &mut io::sink(),
    )
    .unwrap();
    commands::solve(
        &argv(&["schedule", "--dataset", out_str, "--k", "8", "--checkins"]),
        &mut io::sink(),
    )
    .expect("checkins sigma mode works");
    std::fs::remove_file(out).ok();
}

#[test]
fn solve_format_json_and_schedule_alias() {
    let out = temp_path("format.json");
    let out_str = out.to_str().unwrap();
    commands::generate(
        &argv(&[
            "generate",
            "--members",
            "120",
            "--events",
            "120",
            "--out",
            out_str,
        ]),
        &mut io::sink(),
    )
    .unwrap();
    // `--format json` succeeds and rejects unknown formats; the old
    // `schedule` spelling still reaches the same implementation.
    commands::solve(
        &argv(&[
            "solve",
            "--dataset",
            out_str,
            "--k",
            "5",
            "--format",
            "json",
        ]),
        &mut io::sink(),
    )
    .expect("solve --format json succeeds");
    let err = commands::solve(
        &argv(&[
            "solve",
            "--dataset",
            out_str,
            "--k",
            "5",
            "--format",
            "yaml",
        ]),
        &mut io::sink(),
    )
    .unwrap_err();
    assert!(err.contains("unknown format"));
    std::fs::remove_file(out).ok();
}

/// The first `stage` span of a `--trace` timeline, whose lines read
/// "<start> ms  <indent><stage> <duration> ms … [aux=a/b]": its column,
/// start and duration (ms), and its aux words.
fn timeline_span(timeline: &str, stage: &str) -> (usize, f64, f64, Option<(u64, u64)>) {
    timeline
        .lines()
        .find_map(|line| {
            let parts: Vec<&str> = line.split_whitespace().collect();
            (parts.get(2) == Some(&stage)).then(|| {
                let start: f64 = parts[0].parse().unwrap();
                let dur: f64 = parts[3].parse().unwrap();
                let aux = parts.iter().find_map(|p| {
                    let (a, b) = p.strip_prefix("aux=")?.split_once('/')?;
                    Some((a.parse().unwrap(), b.parse().unwrap()))
                });
                (line.find(stage).unwrap(), start, dur, aux)
            })
        })
        .unwrap_or_else(|| panic!("no {stage} span in:\n{timeline}"))
}

/// Packs the 3000-user / 40-event / 12-interval sparse universe (partial
/// σ-columns) the trace tests solve.
fn pack_3k(name: &str) -> std::path::PathBuf {
    let store = temp_path(name);
    commands::pack(
        &argv(&[
            "pack",
            "--users",
            "3000",
            "--events",
            "40",
            "--intervals",
            "12",
            "--out",
            store.to_str().unwrap(),
        ]),
        &mut io::sink(),
    )
    .unwrap();
    store
}

#[test]
fn solve_trace_nests_build_inside_solve() {
    let store = pack_3k("trace_build.sesstore");
    let store_str = store.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ses"))
        .args(["solve", "--instance", store_str, "--k", "5"])
        .args(["--format", "json", "--trace"])
        .output()
        .expect("ses runs");
    assert!(out.status.success());
    let timeline = String::from_utf8(out.stderr).unwrap();
    let (solve_col, solve_start, solve_dur, _) = timeline_span(&timeline, "solve");
    let (build_col, build_start, build_dur, aux) = timeline_span(&timeline, "build");
    let (_, sweep_start, _, _) = timeline_span(&timeline, "sweep");
    assert!(
        build_col > solve_col,
        "build nests inside solve:\n{timeline}"
    );
    // Ends are printed rounded to the microsecond.
    assert!(
        build_start + 0.002 >= solve_start
            && build_start + build_dur <= solve_start + solve_dur + 0.002,
        "build lies within solve:\n{timeline}"
    );
    assert!(
        build_start + build_dur <= sweep_start + 0.002,
        "build precedes sweep:\n{timeline}"
    );
    // Sparse activity leaves columns partial, so the engine resolves runs.
    let (entries, slots) = aux.expect("build span carries aux counts");
    assert!(entries > 0 && slots > 0, "{timeline}");
    // The column and run layers nest inside build, in that order, and the
    // runs resolve on one worker per core (40 events cap nothing here).
    let (columns_col, columns_start, columns_dur, columns_aux) =
        timeline_span(&timeline, "columns");
    let (runs_col, runs_start, runs_dur, runs_aux) = timeline_span(&timeline, "runs");
    assert!(
        columns_col > build_col && runs_col == columns_col,
        "columns and runs nest inside build:\n{timeline}"
    );
    assert!(
        build_start <= columns_start + 0.002
            && columns_start + columns_dur <= runs_start + 0.002
            && runs_start + runs_dur <= build_start + build_dur + 0.002,
        "columns then runs, within build:\n{timeline}"
    );
    // The slot index and posting resolution come first, as `index`.
    let (index_col, index_start, index_dur, index_aux) = timeline_span(&timeline, "index");
    assert!(
        index_col == columns_col
            && build_start <= index_start + 0.002
            && index_start + index_dur <= columns_start + 0.002,
        "index nests inside build, before columns:\n{timeline}"
    );
    let inst = ses_core::store::open_path(&store).unwrap();
    let lists: Vec<_> = (0..inst.num_events() as u32)
        .map(|e| {
            inst.interest()
                .interested_users(ses_core::EventId::new(e).into())
        })
        .collect();
    let indexed: std::collections::BTreeSet<_> = lists
        .iter()
        .flat_map(|l| l.iter().map(|&(u, _)| u))
        .collect();
    let postings: usize = lists.iter().map(|l| l.len()).sum();
    assert_eq!(
        index_aux,
        Some((indexed.len() as u64, postings as u64)),
        "{timeline}"
    );
    let (column_slots, partial_slots) = columns_aux.expect("columns span carries aux counts");
    assert!(column_slots == slots && partial_slots > 0, "{timeline}");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        runs_aux,
        Some((entries, cores.min(40) as u64)),
        "{timeline}"
    );
    std::fs::remove_file(store).ok();
}

#[test]
fn text_report_is_a_span_beside_solve_and_prints_unchanged_lines() {
    let store = pack_3k("trace_report.sesstore");
    let out = Command::new(env!("CARGO_BIN_EXE_ses"))
        .args(["solve", "--instance", store.to_str().unwrap(), "--k", "5"])
        .arg("--trace")
        .output()
        .expect("ses runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let timeline = String::from_utf8(out.stderr).unwrap();
    // Recorded from the binary that computed the report with the hash-map
    // oracle, a second engine and a separate bound sweep.
    for expected in [
        "metrics: reach 823.5 users, attendance/event 180.12 (min 177.38 / max 183.42, \
         gini 0.007), 5 intervals occupied (max 1 events), 15% resource use",
        "certified quality: Ω is ≥ 99.4% of any feasible schedule's utility \
         (admissible upper bound 905.936)",
    ] {
        assert!(
            stdout.lines().any(|line| line == expected),
            "missing {expected:?} in:\n{stdout}"
        );
    }
    let (solve_col, solve_start, solve_dur, _) = timeline_span(&timeline, "solve");
    // The report's own spans follow its line; search from there.
    let at = timeline
        .lines()
        .position(|line| line.split_whitespace().nth(2) == Some("report"))
        .unwrap_or_else(|| panic!("no report span in:\n{timeline}"));
    let tail = timeline.lines().skip(at).collect::<Vec<_>>().join("\n");
    let (report_col, report_start, report_dur, _) = timeline_span(&tail, "report");
    assert_eq!(
        report_col, solve_col,
        "report nests at solve's depth:\n{timeline}"
    );
    assert!(
        solve_start + solve_dur <= report_start + 0.002,
        "report follows solve:\n{timeline}"
    );
    for stage in ["build", "sweep"] {
        let (col, start, dur, _) = timeline_span(&tail, stage);
        assert!(
            col > report_col
                && report_start <= start + 0.002
                && start + dur <= report_start + report_dur + 0.002,
            "{stage} nests inside report:\n{timeline}"
        );
    }
    std::fs::remove_file(store).ok();
}

#[test]
fn solve_trace_shows_load_beside_solve() {
    let dataset = temp_path("trace_load.json");
    let dataset_str = dataset.to_str().unwrap();
    commands::generate(
        &argv(&[
            "generate",
            "--members",
            "120",
            "--events",
            "80",
            "--out",
            dataset_str,
        ]),
        &mut io::sink(),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ses"))
        .args(["solve", "--dataset", dataset_str, "--k", "5"])
        .args(["--format", "json", "--trace"])
        .output()
        .expect("ses runs");
    assert!(out.status.success());
    let timeline = String::from_utf8(out.stderr).unwrap();
    let (load_col, load_start, load_dur, _) = timeline_span(&timeline, "load");
    let (solve_col, solve_start, _, _) = timeline_span(&timeline, "solve");
    assert_eq!(
        load_col, solve_col,
        "load nests at solve's depth:\n{timeline}"
    );
    // Both ends are printed rounded to the microsecond.
    assert!(
        load_start + load_dur <= solve_start + 0.002,
        "load ends before solve starts:\n{timeline}"
    );
    std::fs::remove_file(dataset).ok();
}

#[test]
fn simulate_format_json_runs() {
    commands::simulate(
        &argv(&[
            "simulate",
            "--scenario",
            "steady",
            "--steps",
            "120",
            "--seed",
            "3",
            "--users",
            "60",
            "--events",
            "18",
            "--intervals",
            "6",
            "--k",
            "6",
            "--format",
            "json",
        ]),
        &mut io::sink(),
    )
    .expect("simulate --format json succeeds");
}

#[test]
fn quality_command_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_ses"))
        .args(["quality", "--instances", "8", "--k", "3"])
        .output()
        .expect("ses runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // One row per non-EXACT spec: "<name> <mean ratio> <worst ratio>".
    // EXACT is the optimum, so a ratio above 1 is a heuristic bug.
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip(2)
        .map(|l| l.split_whitespace().collect())
        .collect();
    let names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    let expected: Vec<&str> = ses_core::SPEC_NAMES
        .iter()
        .copied()
        .filter(|n| *n != "EXACT")
        .collect();
    assert_eq!(names, expected, "{stdout}");
    for row in &rows {
        let mean: f64 = row[1].parse().unwrap();
        let worst: f64 = row[2].parse().unwrap();
        assert!(worst <= mean + 1e-9 && mean <= 1.0 + 1e-9, "{stdout}");
    }
}

#[test]
fn missing_dataset_is_a_clean_error() {
    let err = commands::analyze(
        &argv(&["analyze", "--dataset", "/no/such/file.json"]),
        &mut io::sink(),
    )
    .unwrap_err();
    assert!(err.contains("I/O") || err.contains("No such file") || !err.is_empty());
    let err = commands::generate(&argv(&["generate"]), &mut io::sink()).unwrap_err();
    assert!(err.contains("--out"));
}

#[test]
fn simulate_runs_every_scenario_deterministically() {
    for scenario in ["steady", "flash-crowd", "adversarial", "seasonal"] {
        commands::simulate(
            &argv(&[
                "simulate",
                "--scenario",
                scenario,
                "--steps",
                "150",
                "--seed",
                "7",
                "--users",
                "80",
                "--events",
                "20",
                "--intervals",
                "8",
                "--k",
                "8",
            ]),
            &mut io::sink(),
        )
        .unwrap_or_else(|e| panic!("scenario {scenario}: {e}"));
    }
}

#[test]
fn simulate_rejects_unknown_scenario() {
    let err = commands::simulate(
        &argv(&["simulate", "--scenario", "earthquake", "--steps", "10"]),
        &mut io::sink(),
    )
    .unwrap_err();
    assert!(err.contains("unknown scenario"));
}

/// A reader that closes the pipe early (`ses analyze ds.json | head -1`)
/// ends the command quietly: no panic on stderr, exit status 0.
#[test]
fn closed_stdout_ends_the_command_quietly() {
    let dataset = temp_path("closed_stdout.json");
    let dataset_str = dataset.to_str().unwrap();
    commands::generate(
        &argv(&["generate", "--members", "600", "--out", dataset_str]),
        &mut io::sink(),
    )
    .unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ses"))
        .args(["analyze", "--dataset", dataset_str])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ses runs");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("dataset:"), "{first}");
    // The rest is written after the overlap and interest statistics are
    // computed, by which time the read end is closed.
    drop(stdout);
    let done = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(done.status.success(), "{:?}: {stderr}", done.status);
    std::fs::remove_file(dataset).ok();
}

#[test]
fn closed_stderr_ends_the_trace_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ses"))
        .args(["simulate", "--steps", "300", "--trace"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ses runs");
    // The timeline is written after both 300-step runs, by which time the
    // read end is closed.
    drop(child.stderr.take());
    let status = child.wait().unwrap();
    assert!(status.success(), "{status:?}");
}

#[test]
fn closed_stderr_keeps_the_failure_status() {
    // Close the read end before the child starts, so the error report is
    // certain to hit a closed pipe: the command must still exit 1.
    let (reader, writer) = io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_ses"))
        .args(["solve", "--instance", "/nonexistent.sesstore"])
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("ses runs");
    assert_eq!(status.code(), Some(1), "{status:?}");
}

/// Runs `ses` with `args`, asserts it exits 1 naming every one of `names`,
/// and returns its stderr.
fn ses_fails(args: &[&str], names: &[&str]) -> String {
    let done = Command::new(env!("CARGO_BIN_EXE_ses"))
        .args(args)
        .output()
        .expect("ses runs");
    let stderr = String::from_utf8_lossy(&done.stderr).into_owned();
    assert_eq!(done.status.code(), Some(1), "{args:?}: {stderr}");
    for name in names {
        assert!(
            stderr.contains(name),
            "{args:?}: {stderr} does not name {name}"
        );
    }
    stderr
}

#[test]
fn every_command_rejects_an_undeclared_option() {
    for command in commands::COMMANDS {
        let mut args: Vec<&str> = command.name.split(' ').collect();
        args.extend(["--bogus", "1"]);
        ses_fails(&args, &[command.name, "--bogus"]);
    }
    let store_path = pack_3k("rejects.sesstore");
    let store = store_path.to_str().unwrap();
    let pack = [
        "pack",
        "--users",
        "100",
        "--events",
        "10",
        "--intervals",
        "4",
    ];
    ses_fails(
        &[&pack[..], &["--out", store, "--bogus", "3"]].concat(),
        &["pack", "--bogus"],
    );
    let solve = ["solve", "--instance", store, "--k", "3"];
    ses_fails(
        &[&solve[..], &["--threads", "4"]].concat(),
        &["solve", "--threads"],
    );
    ses_fails(
        &[&solve[..], &["--formt", "json"]].concat(),
        &["solve", "--formt"],
    );
    // A flag given a value, and a value option given none.
    ses_fails(
        &[&solve[..], &["--trace", "yes"]].concat(),
        &["solve", "'yes'"],
    );
    ses_fails(
        &["solve", "--instance", store, "--k"],
        &["--k needs a value"],
    );
    ses_fails(
        &["solve", "--k", "--instance", store],
        &["--k needs a value"],
    );
    // Options the packed-instance paths would ignore.
    for refused in [
        &["--dataset", "d.json"][..],
        &["--t-factor", "9"],
        &["--checkins"],
    ] {
        ses_fails(&[&solve[..], refused].concat(), &["solve", refused[0]]);
    }
    let simulate = ["simulate", "--instance", store, "--steps", "10"];
    for refused in ["--users", "--events", "--intervals"] {
        ses_fails(
            &[&simulate[..], &[refused, "9"]].concat(),
            &["simulate", refused],
        );
    }
    std::fs::remove_file(&store_path).ok();
}

/// The other half of the option-table rule: every option a command
/// declares is read by it. Each command runs with every option it declares
/// (an option that refuses others runs in a second pass, in their place);
/// the values are small and the addresses unresolvable, so the network
/// commands fail after their reads. Reading an undeclared option panics,
/// so every command run in these tests also checks reads ⊆ declared.
#[test]
fn every_declared_option_is_read() {
    let paths = [
        temp_path("walk.json"),
        pack_3k("walk.sesstore"),
        temp_path("walk-wal"),
    ];
    std::fs::create_dir_all(&paths[2]).unwrap();
    let [dataset, store, wal] = paths.each_ref().map(|p| p.to_str().unwrap());
    commands::generate(
        &argv(&["generate", "--members", "300", "--out", dataset]),
        &mut io::sink(),
    )
    .unwrap();
    for command in commands::COMMANDS {
        let refused: Vec<&str> = command
            .options
            .iter()
            .flat_map(|o| o.excludes)
            .copied()
            .collect();
        let mut unread: Vec<&str> = command.options.iter().map(|o| o.name).collect();
        assert!(
            refused.iter().all(|n| unread.contains(n)),
            "`ses {}` refuses an undeclared option",
            command.name
        );
        for second_pass in [false, true]
            .into_iter()
            .take(1 + !refused.is_empty() as usize)
        {
            let keep = |o: &args::Opt| match second_pass {
                false => o.excludes.is_empty(),
                true => !refused.contains(&o.name),
            };
            let mut line = Vec::new();
            // `--trace` is left off: its timeline would go to the test's
            // stderr, and a flag is read whether or not it is given.
            for opt in command
                .options
                .iter()
                .filter(|o| keep(o) && o.name != "trace")
            {
                line.push(format!("--{}", opt.name));
                if opt.arg.is_none() {
                    continue;
                }
                line.push(match (command.name, opt.name) {
                    ("serve", "instance") => format!("walk={store}"),
                    ("loadgen", "instance") => "default".to_owned(),
                    (_, "instance") => store.to_owned(),
                    (_, "dataset") => dataset.to_owned(),
                    (_, "out") => temp_path(&format!("walk-{}.out", command.name))
                        .display()
                        .to_string(),
                    (_, "dir" | "wal-dir") => wal.to_owned(),
                    (_, "addr") => "not-an-address".to_owned(),
                    (_, "members") => "300".to_owned(),
                    (_, "users") => "80".to_owned(),
                    (_, "events" | "groups") => "20".to_owned(),
                    (_, "intervals") => "8".to_owned(),
                    (_, "steps") => "50".to_owned(),
                    (_, "instances" | "k") => "3".to_owned(),
                    _ => opt
                        .default
                        .expect("a sample value for every option without a default")
                        .to_owned(),
                });
            }
            let parsed = args::parse_options(command, &line).unwrap();
            let _ = commands::run(&parsed, &mut io::sink());
            unread.retain(|n| parsed.unread().contains(n));
        }
        assert!(
            unread.is_empty(),
            "`ses {}` never reads {unread:?}",
            command.name
        );
        std::fs::remove_file(temp_path(&format!("walk-{}.out", command.name))).ok();
    }
    std::fs::remove_file(dataset).ok();
    std::fs::remove_file(store).ok();
    std::fs::remove_dir_all(wal).ok();
}
