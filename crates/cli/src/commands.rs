//! Subcommand implementations for the `ses` binary.
//!
//! Scheduling and simulation run through the `ses-service` facade
//! ([`ses_service::solve`], [`ses_service::SchedulerService`]) — the same
//! request/response path the server uses —
//! and algorithm names are resolved by the core registry
//! ([`ses_core::SchedulerSpec`]), never string-matched here.

use crate::args::{self, Command, Opt, ParsedArgs};
use serde::Serialize;
use ses_core::{schedule_metrics, SchedulerSpec};
use ses_datagen::paper::{PaperConfig, SigmaMode};
use ses_datagen::pipeline::build_instance;
use ses_ebsn::{
    estimate_slot_activity, generate as generate_dataset, interest_stats, mean_activity_by_slot,
    overlap_stats, slot_label, EbsnDataset, GeneratorConfig, SmoothingConfig,
};
use ses_service::{SchedulerService, SessionOpen, SessionReport, SolveRequest, SolveResponse};
use std::io::{self, Write};

/// Writes one line of command output to a command's writer, as `println!`
/// would to stdout; a failed write is the command's error.
macro_rules! say {
    ($out:expr) => {
        writeln!($out).map_err(output_error)
    };
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(output_error)
    };
}

fn output_error(e: io::Error) -> String {
    format!("writing output: {e}")
}

/// Standard output as the binary's command writer. When the reader goes
/// away early (`ses analyze | head -2`), the next write fails with
/// `BrokenPipe` and the command stops there; [`Stdout::closed`] then tells
/// the binary to end quietly with status 0 rather than report the error.
pub struct Stdout {
    inner: io::Stdout,
    closed: bool,
}

impl Stdout {
    /// Whether a write found the reader gone.
    pub fn closed(&self) -> bool {
        self.closed
    }

    fn note<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            self.closed |= e.kind() == io::ErrorKind::BrokenPipe;
        }
        result
    }
}

impl Default for Stdout {
    /// The process's standard output.
    fn default() -> Self {
        Self {
            inner: io::stdout(),
            closed: false,
        }
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let result = self.inner.write(buf);
        self.note(result)
    }

    fn flush(&mut self) -> io::Result<()> {
        let result = self.inner.flush();
        self.note(result)
    }
}

/// Every `ses` command and the options it declares: [`crate::args::parse`]
/// checks each command line against this table, and [`help`] renders it.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        about: "generate a Meetup-like EBSN dataset and save it as JSON",
        options: &[
            Opt::value("members", "N", "3000", ""),
            Opt::optional("events", "N", "(auto)"),
            Opt::optional("groups", "N", "(auto)"),
            Opt::value("weeks", "W", "52", ""),
            Opt::value("seed", "S", "0", ""),
            Opt::optional("out", "PATH", "(required)"),
        ],
        ..Command::EMPTY
    },
    Command {
        name: "analyze",
        about: "print dataset statistics (overlap, sparsity, group sizes)",
        options: &[Opt::optional("dataset", "PATH", "(required)")],
        ..Command::EMPTY
    },
    Command {
        name: "solve",
        aliases: &["schedule"],
        about: "build the paper's instance from a dataset and schedule it",
        options: &[
            Opt::optional("dataset", "PATH", "(required unless --instance)"),
            Opt::value("k", "K", "100", ""),
            Opt::value("t-factor", "F", "1.5", ""),
            Opt::value("algo", "GRD|GRD-PQ|TOP|RAND|LS|SA|EXACT", "GRD", "(GRD-PQ is the CELF lazy greedy; aliases LAZY, CELF)"),
            Opt::value("seed", "S", "0", ""),
            Opt::flag("checkins", "(σ from check-ins)"),
            FORMAT,
            Opt::optional("out", "PATH", "(write the schedule as JSON)"),
            Opt::optional("instance", "PATH", "(schedule a packed universe from `ses pack`\ninstead of building one from a dataset)")
                .excludes(&["dataset", "t-factor", "checkins"]),
            Opt::flag("trace", "(print the span timeline of the solve afterwards)"),
        ],
        ..Command::EMPTY
    },
    Command {
        name: "pack",
        about: "build a synthetic universe and write it as a packed instance",
        options: &[
            Opt::value("profile", "sparse|workload", "sparse", ""),
            Opt::optional("out", "PATH", "(required)"),
            Opt::value("users", "N", "10000", ""),
            Opt::value("events", "N", "200", ""),
            Opt::value("intervals", "N", "48", ""),
            Opt::value("interests", "N", "8", "(sparse: candidate postings per user)"),
            Opt::value("active", "N", "6", "(sparse: active intervals per user)"),
            Opt::value("seed", "S", "0", ""),
        ],
        notes: "the output cold-opens via --instance flags and `ses serve`",
        ..Command::EMPTY
    },
    Command {
        name: "quality",
        about: "compare every heuristic spec against the exact optimum on small\n\
                instances (mean and worst utility ratio)",
        options: &[Opt::value("instances", "N", "20", ""), Opt::value("k", "K", "4", "")],
        ..Command::EMPTY
    },
    Command {
        name: "simulate",
        about: "replay a disruption workload against the online scheduler",
        options: &[
            Opt::value("scenario", "steady|flash-crowd|adversarial|seasonal", "steady", ""),
            Opt::value("steps", "N", "10000", ""),
            Opt::value("seed", "S", "0", ""),
            Opt::value("users", "N", "400", ""),
            Opt::value("events", "N", "60", ""),
            Opt::value("intervals", "N", "24", ""),
            Opt::value("k", "K", "20", ""),
            Opt::value("algo", "SPEC", "GRD", ""),
            FORMAT,
            Opt::value("holdback", "F", "0.3", "(fraction of candidates arriving late)"),
            Opt::optional("instance", "PATH", "(simulate over a packed universe instead of\nthe generated workload instance)")
                .excludes(&["users", "events", "intervals"]),
            Opt::flag("trace", "(print the span timeline of the second run afterwards)"),
        ],
        notes: "runs the stream twice and verifies the traces are identical",
        ..Command::EMPTY
    },
    Command {
        name: "serve",
        about: "serve the scheduler over HTTP (see DESIGN.md §8–9, §12)",
        options: &[
            ADDR,
            Opt::value("shards", "N", "4", "(sessions hash onto N mutex-guarded shards; session ops\nrun on their connection thread under the shard's lock;\nN also caps concurrent solves, evals and opens)"),
            Opt::value("io-threads", "N", "8", ""),
            Opt::value("max-body", "BYTES", "1048576", ""),
            Opt::value("users", "N", "400", ""),
            Opt::value("events", "N", "60", ""),
            Opt::value("intervals", "N", "24", ""),
            Opt::value("seed", "S", "0", ""),
            Opt::optional("instance", "NAME=PATH", "(register a packed instance under NAME;\nrepeatable; loaded lazily on first use)"),
            Opt::value("log-level", "error|warn|info|debug", "info", ""),
            Opt::flag("log-json", ""),
            Opt::value("slow-ms", "MILLIS", "250", "(slow requests log their span timeline)"),
            Opt::optional("wal-dir", "DIR", "(per-shard write-ahead log: sessions survive\nkill -9, recovered by replay on next boot;\nunlocks live migration via POST /admin/rebalance)"),
            Opt::value("fsync", "per-record|interval[:ms]|off", "interval:25", "(needs --wal-dir;\noff still syncs snapshots and segment seals)"),
            Opt::value("snapshot-every", "N", "64", "(events between session snapshot\nrecords, always fsynced; 0 = never; a\nsegment roll also re-snapshots quiet sessions)"),
        ],
        notes: "endpoints: POST /solve /eval /sessions/{name}/open|event|report|close\n\
                \x20          POST /admin/rebalance (durable servers)\n\
                \x20          GET /healthz /metrics /trace/{id} /instances\n\
                \x20          stop with SIGTERM/ctrl-c",
        ..Command::EMPTY
    },
    Command {
        name: "instances",
        about: "list the instance registry of a running server",
        options: &[ADDR, FORMAT],
        ..Command::EMPTY
    },
    Command {
        name: "top",
        about: "live per-shard / per-endpoint dashboard of a running server",
        options: &[
            ADDR,
            Opt::value("interval", "MILLIS", "1000", ""),
            Opt::flag("once", "(print a single frame and exit; no screen clearing)"),
        ],
        ..Command::EMPTY
    },
    Command {
        name: "loadgen",
        about: "drive a running server with concurrent closed-loop clients",
        options: &[
            ADDR,
            Opt::value("clients", "N", "8", ""),
            Opt::value("requests", "N", "2000", "(per client)"),
            Opt::value("solve-fraction", "F", "0.02", ""),
            Opt::value("solve-k", "K", "8", ""),
            Opt::value("k", "K", "12", ""),
            Opt::value("algo", "SPEC", "GRD", ""),
            Opt::value("seed", "S", "0", ""),
            Opt::value("instance", "NAME", "default", "(repeatable; clients round-robin across the\nnamed instances — per-instance latency in\nthe report)"),
            Opt::value("verify-steps", "N", "200", "(0 skips the sim-digest replay check)"),
            Opt::value("scenario", "NAME", "flash-crowd", ""),
            Opt::value("holdback", "F", "0.3", ""),
            FORMAT,
            Opt::optional("out", "PATH", "(write the report)"),
            Opt::flag("strict", "(exit non-zero on any non-2xx or digest mismatch)"),
        ],
        notes: "against a durable server the summary adds a durability\n\
                section: durable acks + server-side append/fsync latencies",
        ..Command::EMPTY
    },
    Command {
        name: "wal inspect",
        about: "offline WAL tooling (no server needed)",
        options: &[
            Opt::optional("dir", "DIR", "(required; a server's --wal-dir)"),
            Opt::flag("records", "(list every record, snapshots included: kind,\nLSN, session)"),
            FORMAT,
        ],
        ..Command::EMPTY
    },
    Command {
        name: "help",
        aliases: &["--help", "-h"],
        about: "show this message",
        ..Command::EMPTY
    },
];

const ADDR: Opt = Opt::value("addr", "A", "127.0.0.1:7878", "");
const FORMAT: Opt = Opt::value("format", "text|json", "text", "");

/// Runs the command `args` was checked against.
pub fn run(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let command = match args.command.name {
        "generate" => generate,
        "analyze" => analyze,
        "solve" => solve,
        "pack" => pack,
        "quality" => quality,
        "simulate" => simulate,
        "serve" => serve,
        "instances" => instances,
        "top" => top,
        "loadgen" => loadgen,
        "wal inspect" => wal_inspect,
        "help" => help,
        other => unreachable!("`{other}` is declared but has no handler"),
    };
    command(args, out)
}

/// `ses help`
pub fn help(_: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    write!(
        out,
        "ses — social event scheduling (ICDE 2018 reproduction)\n\n\
         USAGE:\n    ses <SUBCOMMAND> [OPTIONS]\n\nSUBCOMMANDS:\n{}",
        args::help(COMMANDS)
    )
    .map_err(output_error)
}

/// The output format of a subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn format_of(args: &ParsedArgs) -> Result<Format, String> {
    match args.require("format")? {
        "text" => Ok(Format::Text),
        "json" => Ok(Format::Json),
        other => Err(format!(
            "unknown format '{other}' (expected 'text' or 'json')"
        )),
    }
}

/// Parses `--algo` (+ global `--seed`) into a spec via the core registry;
/// unknown names surface the registry's typed listing of valid specs.
///
/// A seed pinned in the spec string (`RAND:123`) wins over the global
/// `--seed`; only suffix-less specs pick up the global seed.
fn spec_of(args: &ParsedArgs, seed: u64) -> Result<SchedulerSpec, String> {
    let name = args.require("algo")?;
    let spec = SchedulerSpec::parse(name).map_err(|e| e.to_string())?;
    Ok(if name.contains(':') {
        spec
    } else {
        spec.with_seed(seed)
    })
}

/// `ses generate`
pub fn generate(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let mut cfg = GeneratorConfig::meetup_california_scaled(args.get("members")?);
    cfg.num_events = args.get_opt("events")?.unwrap_or(cfg.num_events);
    cfg.num_groups = args.get_opt("groups")?.unwrap_or(cfg.num_groups);
    cfg.horizon_weeks = args.get("weeks")?;
    cfg.seed = args.get("seed")?;
    let path = args.require("out")?;

    let dataset = generate_dataset(&cfg);
    dataset.save_json(path).map_err(|e| e.to_string())?;
    say!(out, "wrote {}: {}", path, dataset.summary())?;
    Ok(())
}

fn load(args: &ParsedArgs) -> Result<EbsnDataset, String> {
    let path = args.require("dataset")?;
    EbsnDataset::load_json(path).map_err(|e| e.to_string())
}

/// `ses analyze`
pub fn analyze(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let dataset = load(args)?;
    say!(out, "dataset: {}", dataset.summary())?;
    let o = overlap_stats(&dataset);
    say!(
        out,
        "\ntemporal overlap (the paper measures 8.1 mean concurrent on Meetup):"
    )?;
    say!(out, "  mean concurrent events : {:.2}", o.mean_concurrent)?;
    say!(out, "  max concurrent events  : {}", o.max_concurrent)?;
    say!(
        out,
        "  temporal clashes       : {:.4}% of event pairs",
        o.temporal_conflict_fraction * 100.0
    )?;
    say!(
        out,
        "  spatio-temporal clashes: {:.4}% of event pairs",
        o.spatiotemporal_conflict_fraction * 100.0
    )?;
    let i = interest_stats(&dataset, 50_000, 0);
    say!(out, "\ninterest (Jaccard over tags):")?;
    say!(out, "  nonzero fraction       : {:.3}", i.nonzero_fraction)?;
    say!(out, "  mean interest          : {:.4}", i.mean_interest)?;
    say!(
        out,
        "  mean nonzero interest  : {:.4}",
        i.mean_nonzero_interest
    )?;
    let hist = ses_ebsn::group_size_histogram(&dataset, &[10, 50, 200, 1000]);
    say!(out, "\ngroup sizes (≤10 / ≤50 / ≤200 / ≤1000 / larger):")?;
    say!(
        out,
        "  {} / {} / {} / {} / {}",
        hist[0],
        hist[1],
        hist[2],
        hist[3],
        hist[4]
    )?;
    let sigma = mean_activity_by_slot(&estimate_slot_activity(
        &dataset,
        SmoothingConfig::default(),
    ));
    say!(
        out,
        "\nestimated σ by weekly slot (mean over members, from check-ins):"
    )?;
    for (slot, mean) in sigma.iter().enumerate() {
        say!(out, "  {:<14} {:.4}", slot_label(slot), mean)?;
    }
    Ok(())
}

/// `ses solve` (alias: `ses schedule`)
pub fn solve(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let k: usize = args.get("k")?;
    let seed: u64 = args.get("seed")?;
    let format = format_of(args)?;
    let spec = spec_of(args, seed)?;
    // Two ways to get a universe: cold-open a packed file (`ses pack`
    // output — no dataset needed, no rebuild), or build the paper's
    // instance from a dataset. Only the dataset path knows which dataset
    // event each candidate came from, so the preview's source column is
    // optional. With `--trace`, the load is a `load` span beside (not
    // inside) the `solve` span, so the timeline accounts for both.
    let trace = args.given("trace").then(ses_obs::TraceId::generate);
    let (instance, candidate_source) = {
        let _scope = trace.map(ses_obs::trace_scope);
        let _span = ses_obs::span(ses_obs::Stage::Load);
        match args.get_opt::<String>("instance")? {
            Some(path) => {
                let inst = ses_core::store::open_path(std::path::Path::new(&path))
                    .map_err(|e| format!("open {path}: {e}"))?;
                (inst, None)
            }
            None => {
                let dataset = load(args)?;
                let cfg = PaperConfig {
                    k,
                    t_factor: args.get("t-factor")?,
                    seed,
                    sigma: if args.given("checkins") {
                        SigmaMode::FromCheckins
                    } else {
                        SigmaMode::Uniform
                    },
                    ..PaperConfig::default()
                };
                let built = build_instance(&dataset, &cfg).map_err(|e| e.to_string())?;
                (built.instance, Some(built.candidate_source))
            }
        }
    };
    let response = {
        let _scope = trace.map(ses_obs::trace_scope);
        ses_service::solve(
            &instance,
            &SolveRequest {
                spec,
                k,
                instance: Default::default(),
            },
        )
        .map_err(|e| e.to_string())?
    };

    if format == Format::Json {
        say!(
            out,
            "{}",
            serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?
        )?;
    } else {
        say!(
            out,
            "{}: scheduled {}/{} events, utility Ω = {:.3}, {:.1} ms",
            response.algorithm,
            response.scheduled(),
            k,
            response.total_utility,
            response.millis
        )?;
        say!(
            out,
            "ops: {} score evaluations, {} posting visits, {} assigns",
            response.counters.score_evaluations,
            response.counters.posting_visits,
            response.counters.assigns
        )?;
    }

    // Rehydrate the schedule from the response for metrics and export —
    // everything downstream consumes only what went over the wire.
    let mut schedule = instance.empty_schedule();
    for a in &response.assignments {
        schedule
            .assign(a.event, a.interval)
            .map_err(|e| e.to_string())?;
    }
    if format == Format::Text {
        // The report is a `report` span beside `load` and `solve`.
        let metrics = {
            let _scope = trace.map(ses_obs::trace_scope);
            schedule_metrics(&instance, &schedule, k).map_err(|e| e.to_string())?
        };
        say!(out,
            "metrics: reach {:.1} users, attendance/event {:.2} (min {:.2} / max {:.2}, gini {:.3}), \
             {} intervals occupied (max {} events), {:.0}% resource use",
            metrics.expected_reach,
            metrics.mean_event_attendance,
            metrics.min_event_attendance,
            metrics.max_event_attendance,
            metrics.attendance_gini,
            metrics.occupied_intervals,
            metrics.max_events_per_interval,
            metrics.mean_resource_utilization * 100.0
        )?;
        let ub = metrics.upper_bound;
        if ub > 0.0 {
            say!(
                out,
                "certified quality: Ω is ≥ {:.1}% of any feasible schedule's utility \
                 (admissible upper bound {:.3})",
                100.0 * response.total_utility / ub,
                ub
            )?;
        }
    }
    if let Some(path) = args.get_opt::<String>("out")? {
        let json = serde_json::to_string_pretty(&schedule).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| e.to_string())?;
        if format == Format::Text {
            say!(out, "wrote schedule to {path}")?;
        }
    } else if format == Format::Text {
        // Print the first few assignments as a preview.
        for (i, a) in schedule.iter().enumerate() {
            if i >= 10 {
                say!(out, "  … ({} more)", schedule.len() - 10)?;
                break;
            }
            match &candidate_source {
                Some(source) => {
                    let src = source[a.event.index()];
                    say!(out, "  {} → {} (dataset event {src})", a.event, a.interval)?;
                }
                None => say!(out, "  {} → {}", a.event, a.interval)?,
            }
        }
    }
    if let Some(id) = trace {
        print_trace(id)?;
    }
    Ok(())
}

/// Prints the span timeline of `id` to stderr, so `--format json` output
/// stays pipeable. A reader that closed stderr early ends the timeline
/// quietly.
fn print_trace(id: ses_obs::TraceId) -> Result<(), String> {
    let timeline = ses_obs::format_trace(id, &ses_obs::collect_trace(id));
    match writeln!(io::stderr(), "{timeline}") {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(output_error(e)),
        _ => Ok(()),
    }
}

/// The JSON body `ses simulate --format json` emits: the service-level
/// session report plus the simulator's summary and workload mix.
#[derive(Debug, Clone, Serialize)]
struct SimulateResponse {
    scenario: String,
    seed: u64,
    withheld: usize,
    initial: SolveResponse,
    summary: ses_sim::SimSummary,
    session: SessionReport,
    mix: Vec<(String, u64)>,
}

/// `ses simulate`
pub fn simulate(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    use ses_core::testkit::workload_instance;
    use ses_sim::{scenario_by_name, SimSummary, Simulator, SCENARIO_NAMES};

    let scenario_name = args.require("scenario")?;
    let steps: u64 = args.get("steps")?;
    let seed: u64 = args.get("seed")?;
    let k: usize = args.get("k")?;
    let holdback: f64 = args.get("holdback")?;
    let format = format_of(args)?;
    let spec = spec_of(args, seed)?;
    let Some(probe) = scenario_by_name(scenario_name, seed) else {
        return Err(format!(
            "unknown scenario '{scenario_name}' (expected one of: {})",
            SCENARIO_NAMES.join(", ")
        ));
    };
    // Withholding candidates only makes sense for workloads that release
    // them again; otherwise they would be dead weight excluded from every
    // backfill, quietly understating the session's achievable utility.
    let holdback = if probe.releases_late_arrivals() {
        holdback
    } else {
        if holdback > 0.0 && format == Format::Text {
            say!(
                out,
                "note: scenario {scenario_name} never emits late arrivals; holdback disabled"
            )?;
        }
        0.0
    };

    // The same sizing `ses serve` uses — keeping the construction shared is
    // what makes server-replay digests comparable to in-process runs. A
    // packed file (`--instance`) overrides the generated workload, and the
    // printed dimensions come from the instance either way.
    let inst = match args.get_opt::<String>("instance")? {
        Some(path) => ses_core::store::open_path(std::path::Path::new(&path))
            .map_err(|e| format!("open {path}: {e}"))?,
        None => workload_instance(
            args.get("users")?,
            args.get("events")?,
            args.get("intervals")?,
            seed,
        ),
    };
    let (users, events, intervals) = (inst.num_users(), inst.num_events(), inst.num_intervals());

    type SimRun = (
        SolveResponse,
        SimSummary,
        SessionReport,
        Vec<(ses_sim::DisruptionKind, u64)>,
        usize,
    );
    let run_once = || -> Result<SimRun, String> {
        // One code path: open the session through the service, then let the
        // simulator drive that same service.
        let mut service = SchedulerService::new();
        let initial = service
            .open_session(
                &inst,
                &SessionOpen {
                    name: "simulate".to_owned(),
                    spec,
                    k: k.min(events),
                    instance: Default::default(),
                },
            )
            .map_err(|e| e.to_string())?;
        let scenario = scenario_by_name(scenario_name, seed).expect("name validated above");
        let mut sim = Simulator::over_service(service, "simulate", vec![scenario])
            .map_err(|e| e.to_string())?;
        let withheld = sim.withhold_fraction(holdback).len();
        let summary = sim.run(steps);
        let report = sim
            .service()
            .report(sim.session_name())
            .map_err(|e| e.to_string())?;
        Ok((initial, summary, report, sim.kind_histogram(), withheld))
    };
    let (initial, first, _, _, _) = run_once()?;
    let trace = args.given("trace").then(ses_obs::TraceId::generate);
    let (_, second, report, histogram, withheld) = {
        let _scope = trace.map(ses_obs::trace_scope);
        run_once()?
    };

    // Timeline of the traced (second) run. The per-thread ring keeps the
    // most recent spans, so long runs show the tail of the repair stream
    // rather than an unbounded dump.
    if let Some(id) = trace {
        print_trace(id)?;
    }

    if first.digest != second.digest {
        return Err(format!(
            "NON-DETERMINISTIC: run 1 digest {:#018x} != run 2 digest {:#018x}",
            first.digest, second.digest
        ));
    }

    if format == Format::Json {
        let body = SimulateResponse {
            scenario: scenario_name.to_owned(),
            seed,
            withheld,
            initial,
            summary: second,
            session: report,
            mix: histogram
                .iter()
                .map(|&(kind, n)| (kind.label().to_owned(), n))
                .collect(),
        };
        say!(
            out,
            "{}",
            serde_json::to_string_pretty(&body).map_err(|e| e.to_string())?
        )?;
        return Ok(());
    }

    say!(
        out,
        "simulate: scenario {scenario_name}, {steps} steps, seed {seed}\n\
         instance: {users} users, {events} events, {intervals} intervals; \
         initial schedule |S| = {} ({}), Ω₀ = {:.3}",
        initial.scheduled(),
        initial.algorithm,
        initial.total_utility
    )?;
    say!(
        out,
        "withheld {withheld} candidates as late arrivals\n\
         determinism: two runs, identical traces (digest {:#018x}) ✓",
        first.digest
    )?;
    say!(
        out,
        "final: Ω = {:.3} (from {:.3}), |S| = {}, tick {}",
        second.final_utility,
        initial.total_utility,
        second.final_scheduled,
        second.final_tick
    )?;
    say!(
        out,
        "repairs: {} disruptions applied ({} inert), {} repair moves, Ω recovered {:.3}",
        second.applied,
        second.skipped,
        second.total_moves,
        second.total_recovered
    )?;
    if second.rejected > 0 {
        say!(
            out,
            "WARNING: {} events rejected by the service (scenario bug?)",
            second.rejected
        )?;
    }
    let mix: Vec<String> = histogram
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(kind, n)| format!("{} {n}", kind.label()))
        .collect();
    say!(out, "mix: {}", mix.join(", "))?;
    say!(
        out,
        "throughput: {:.0} events/sec ({:.1} ms total); engine: {} score evals, {} posting \
         visits, {} assigns, {} unassigns",
        second.events_per_sec,
        second.elapsed.as_secs_f64() * 1e3,
        second.counters.score_evaluations,
        second.counters.posting_visits,
        second.counters.assigns,
        second.counters.unassigns
    )?;
    say!(
        out,
        "service: session '{}' absorbed {} events",
        report.name,
        report.events_applied
    )?;
    Ok(())
}

/// `ses serve`
pub fn serve(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let level_name = args.require("log-level")?;
    let level = ses_obs::Level::parse(level_name)
        .ok_or_else(|| format!("unknown log level '{level_name}' (error|warn|info|debug)"))?;
    ses_obs::set_log_level(level);
    ses_obs::set_log_json(args.given("log-json"));
    // Each `--instance name=path` registers a packed file as a lazily
    // loaded tenant next to the built-in "default" workload universe.
    let mut instances = Vec::new();
    for entry in args.get_all("instance") {
        let Some((name, path)) = entry.split_once('=') else {
            return Err(format!("--instance expects NAME=PATH, got '{entry}'"));
        };
        if name.is_empty() || path.is_empty() {
            return Err(format!("--instance expects NAME=PATH, got '{entry}'"));
        }
        instances.push((name.to_owned(), std::path::PathBuf::from(path)));
    }
    let wal_dir = args.get_opt::<std::path::PathBuf>("wal-dir")?;
    if wal_dir.is_none() && args.given("fsync") {
        return Err("--fsync needs --wal-dir (no WAL to sync without one)".to_owned());
    }
    let cfg = ses_server::ServerConfig {
        addr: args.get("addr")?,
        shards: args.get("shards")?,
        io_threads: args.get("io-threads")?,
        max_body_bytes: args.get("max-body")?,
        users: args.get("users")?,
        events: args.get("events")?,
        intervals: args.get("intervals")?,
        seed: args.get("seed")?,
        slow_request_millis: args.get("slow-ms")?,
        instances,
        wal_dir,
        fsync: ses_server::FsyncPolicy::parse(args.require("fsync")?)?,
        snapshot_every: args.get("snapshot-every")?,
    };
    ses_server::install_signal_handlers();
    let handle = ses_server::serve(&cfg).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    say!(out,
        "ses-server listening on {} — {} shards, {} io threads, default instance {}u/{}e/{}t seed {}, {} packed tenant(s)",
        handle.addr(),
        cfg.shards,
        cfg.io_threads,
        cfg.users,
        cfg.events,
        cfg.intervals,
        cfg.seed,
        cfg.instances.len()
    )?;
    match &cfg.wal_dir {
        Some(dir) => say!(
            out,
            "durability: WAL at {} (fsync {}, snapshot every {} events) — sessions survive \
             kill -9; live migration via POST /admin/rebalance",
            dir.display(),
            cfg.fsync.label(),
            cfg.snapshot_every
        )?,
        None => say!(
            out,
            "durability: off (no --wal-dir; sessions are in-memory only)"
        )?,
    }
    say!(out, "endpoints: POST /solve /eval /sessions/{{name}}/open|event|report|close /admin/rebalance · GET /healthz /metrics /trace/{{id}} /instances")?;
    handle.join();
    say!(out, "ses-server: drained, bye")?;
    Ok(())
}

/// `ses loadgen`
pub fn loadgen(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let addr: String = args.get("addr")?;
    let seed: u64 = args.get("seed")?;
    let spec = spec_of(args, seed)?;
    let cfg = ses_server::LoadgenConfig {
        addr: addr.clone(),
        clients: args.get("clients")?,
        requests: args.get("requests")?,
        solve_fraction: args.get("solve-fraction")?,
        solve_k: args.get("solve-k")?,
        k: args.get("k")?,
        spec,
        seed,
        instances: args
            .get_all("instance")
            .into_iter()
            .map(str::to_owned)
            .collect(),
    };
    let replay = ses_server::ReplayConfig {
        scenario: args.get("scenario")?,
        steps: args.get("verify-steps")?,
        seed,
        spec,
        k: cfg.k,
        holdback: args.get("holdback")?,
        session: format!("replay-{seed}"),
    };
    let report_path = args.get_opt::<String>("out")?;
    let strict = args.given("strict");
    let format = format_of(args)?;

    let summary = ses_server::loadgen::run(&cfg)?;

    let mut client = ses_server::HttpClient::new(addr);
    let digest = (replay.steps > 0)
        .then(|| ses_server::verify_replay(&mut client, &replay))
        .transpose()?;
    let (status, body) = client
        .get("/metrics")
        .map_err(|e| format!("GET /metrics failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}: {body}"));
    }
    let server: ses_server::MetricsReport =
        serde_json::from_str(&body).map_err(|e| format!("bad /metrics body: {e}"))?;
    let report = ses_server::ServerBenchReport {
        loadgen: summary,
        server,
        digest,
        durability: Vec::new(),
        engine_index: Vec::new(),
    };

    if let Some(path) = &report_path {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
    }
    if format == Format::Json {
        say!(
            out,
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        )?;
    } else {
        let s = &report.loadgen;
        say!(
            out,
            "loadgen: {} clients × {} requests against {} — {:.0} req/s ({} requests in {:.1} ms)",
            s.clients,
            cfg.requests,
            cfg.addr,
            s.req_per_sec,
            s.requests,
            s.elapsed_millis
        )?;
        say!(
            out,
            "latency: mean {:.0} µs, p50 {} µs, p95 {} µs, p99 {} µs, max {} µs",
            s.mean_micros,
            s.p50_micros,
            s.p95_micros,
            s.p99_micros,
            s.max_micros
        )?;
        if s.per_instance.len() > 1 {
            say!(out, "per-instance (cross-tenant isolation):")?;
            for l in &s.per_instance {
                say!(out,
                    "  {:<16} {} clients, {} requests, {} errors — p50 {} µs, p95 {} µs, p99 {} µs, max {} µs",
                    l.instance,
                    l.clients,
                    l.requests,
                    l.errors,
                    l.p50_micros,
                    l.p95_micros,
                    l.p99_micros,
                    l.max_micros
                )?;
            }
        }
        let mix: Vec<String> = s
            .mix
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(l, n)| format!("{l} {n}"))
            .collect();
        say!(
            out,
            "mix: {}; {} ok, {} errors",
            mix.join(", "),
            s.ok,
            s.errors
        )?;
        if let Some(w) = &s.wal {
            say!(
                out,
                "durability: fsync {}, {} records, {} fsyncs, {} durable acks",
                w.policy,
                w.records,
                w.fsyncs,
                w.durable_acks
            )?;
            for line in [w.append.as_ref(), w.fsync.as_ref()].into_iter().flatten() {
                say!(
                    out,
                    "  {:<10} {} calls — mean {:.0} µs, p50 {} µs, p95 {} µs, p99 {} µs, max {} µs",
                    line.endpoint,
                    line.count,
                    line.mean_micros,
                    line.p50_micros,
                    line.p95_micros,
                    line.p99_micros,
                    line.max_micros
                )?;
            }
        }
        if !s.status_counts.is_empty() {
            let by_status: Vec<String> = s
                .status_counts
                .iter()
                .map(|c| format!("{}×{}", c.count, c.status))
                .collect();
            say!(out, "  non-2xx by status: {}", by_status.join(", "))?;
        }
        for sample in &s.error_samples {
            say!(out, "  error sample: {sample}")?;
        }
        if !s.slowest.is_empty() {
            say!(
                out,
                "slowest requests (span timelines at GET /trace/{{id}} while spans live):"
            )?;
            for r in &s.slowest {
                say!(
                    out,
                    "  {:>7} µs  {:<7} {}  trace {}",
                    r.micros,
                    r.endpoint,
                    r.status,
                    r.trace
                )?;
            }
        }
        match &report.digest {
            Some(d) if d.matches && d.utility_bits_match => say!(
                out,
                "determinism: {} replayed disruptions, server digest ≡ sim digest ({:#018x}) ✓",
                d.steps,
                d.sim_digest
            )?,
            Some(d) => {
                say!(out,
                "determinism: MISMATCH — server {:#018x} vs sim {:#018x} (utility bits equal: {})",
                d.server_digest, d.sim_digest, d.utility_bits_match
            )?
            }
            None => say!(out, "determinism: skipped (--verify-steps 0)")?,
        }
        if let Some(path) = &report_path {
            say!(out, "wrote report to {path}")?;
        }
    }

    if strict {
        if report.loadgen.errors > 0 {
            return Err(format!(
                "strict mode: {} non-2xx responses",
                report.loadgen.errors
            ));
        }
        if let Some(d) = &report.digest {
            if !d.matches || !d.utility_bits_match {
                return Err(format!(
                    "strict mode: digest mismatch (server {:#018x} vs sim {:#018x})",
                    d.server_digest, d.sim_digest
                ));
            }
        }
    }
    Ok(())
}

/// Renders one `ses top` frame from a `/metrics` report. Pure — all state
/// comes in through the report — so the layout is unit-testable without a
/// server or a terminal.
pub fn top_frame(addr: &str, report: &ses_server::MetricsReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ses top — {addr} · up {:.1}s · {} shards · {} ok / {} 4xx / {} 5xx",
        report.uptime_millis / 1e3,
        report.shards,
        report.requests_2xx,
        report.requests_4xx,
        report.requests_5xx
    );
    let _ = writeln!(
        out,
        "engine: {} sessions, {} events applied, {} score evals, {} posting visits",
        report.engine.sessions,
        report.engine.events_applied,
        report.engine.counters.score_evaluations,
        report.engine.counters.posting_visits
    );

    let _ = writeln!(out, "\n  shard  depth  handled    busy%  sessions  events");
    let uptime_micros = report.uptime_millis * 1e3;
    for s in &report.shards_detail {
        let busy_pct = if uptime_micros > 0.0 {
            100.0 * s.busy_micros as f64 / uptime_micros
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:>5}  {:>5}  {:>7}  {:>6.1}  {:>8}  {:>6}",
            s.shard, s.queue_depth, s.handled, busy_pct, s.sessions, s.events_applied
        );
    }

    let _ = writeln!(
        out,
        "\n  endpoint   count   mean µs    p50    p95    p99    max"
    );
    for e in &report.endpoints {
        let _ = writeln!(
            out,
            "  {:<9}  {:>5}  {:>8.0}  {:>5}  {:>5}  {:>5}  {:>5}",
            e.endpoint,
            e.count,
            e.mean_micros,
            e.p50_micros,
            e.p95_micros,
            e.p99_micros,
            e.max_micros
        );
    }

    let _ = writeln!(
        out,
        "\n  stage      count   mean µs    p50    p95    p99    max"
    );
    for s in &report.span_stages {
        let _ = writeln!(
            out,
            "  {:<9}  {:>5}  {:>8.0}  {:>5}  {:>5}  {:>5}  {:>5}",
            s.stage, s.count, s.mean_micros, s.p50_micros, s.p95_micros, s.p99_micros, s.max_micros
        );
    }
    out
}

/// `ses top` — poll `/metrics` and redraw a live text dashboard.
pub fn top(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let addr: String = args.get("addr")?;
    let interval: u64 = args.get("interval")?;
    let once = args.given("once");
    let mut client = ses_server::HttpClient::new(addr.clone());
    let fetch = |client: &mut ses_server::HttpClient| -> Result<ses_server::MetricsReport, String> {
        let (status, body) = client
            .get("/metrics")
            .map_err(|e| format!("GET /metrics failed: {e}"))?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}: {body}"));
        }
        serde_json::from_str(&body).map_err(|e| format!("bad /metrics body: {e}"))
    };
    loop {
        match fetch(&mut client) {
            Ok(report) if once => {
                write!(out, "{}", top_frame(&addr, &report)).map_err(output_error)?;
                return Ok(());
            }
            // ANSI clear + home, then the frame — a poor man's curses.
            Ok(report) => {
                write!(out, "\x1b[2J\x1b[H{}", top_frame(&addr, &report)).map_err(output_error)?
            }
            Err(e) if once => return Err(format!("{addr}: {e}")),
            // Live mode rides out restarts instead of dying on one bad poll.
            Err(e) => say!(out, "\x1b[2J\x1b[Hses top — {addr}: {e} (retrying)")?,
        }
        out.flush().map_err(output_error)?;
        std::thread::sleep(std::time::Duration::from_millis(interval));
    }
}

/// `ses pack` — materialize a synthetic universe once and write it as a
/// packed columnar instance file servers and CLI runs cold-open without a
/// rebuild (see `ses_core::store` and DESIGN.md §12).
pub fn pack(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let users: usize = args.get("users")?;
    let events: usize = args.get("events")?;
    let intervals: usize = args.get("intervals")?;
    let interests: usize = args.get("interests")?;
    let active: usize = args.get("active")?;
    let seed: u64 = args.get("seed")?;
    let path = args.require("out")?;
    let profile = args.require("profile")?;

    let build_start = std::time::Instant::now();
    let inst = match profile {
        "sparse" => ses_datagen::synthetic::sparse_population(
            users, events, intervals, interests, active, seed,
        ),
        // The same construction `ses serve` boots with, so a packed file
        // can stand in for the server's default workload bit-for-bit.
        "workload" => ses_core::testkit::workload_instance(users, events, intervals, seed),
        other => {
            return Err(format!(
                "unknown profile '{other}' (expected 'sparse' or 'workload')"
            ))
        }
    };
    let build_millis = build_start.elapsed().as_secs_f64() * 1e3;
    let pack_start = std::time::Instant::now();
    ses_core::store::pack_to_path(&inst, std::path::Path::new(path))
        .map_err(|e| format!("pack {path}: {e}"))?;
    let pack_millis = pack_start.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    say!(
        out,
        "packed {profile} universe {}u/{}e/{}t seed {seed} → {path}: {bytes} bytes \
         (build {build_millis:.1} ms, pack {pack_millis:.1} ms)",
        inst.num_users(),
        inst.num_events(),
        inst.num_intervals()
    )?;
    Ok(())
}

/// `ses instances` — list a running server's instance registry.
pub fn instances(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let addr: String = args.get("addr")?;
    let format = format_of(args)?;
    let mut client = ses_server::HttpClient::new(addr.clone());
    let (status, body) = client
        .get("/instances")
        .map_err(|e| format!("GET /instances failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /instances answered {status}: {body}"));
    }
    let report: ses_server::InstancesReport =
        serde_json::from_str(&body).map_err(|e| format!("bad /instances body: {e}"))?;
    if format == Format::Json {
        say!(
            out,
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        )?;
        return Ok(());
    }
    say!(out, "instances @ {addr}:")?;
    say!(
        out,
        "  {:<16} {:<8} {:>9} {:>7} {:>9} {:>9}  source",
        "name",
        "loaded",
        "users",
        "events",
        "intervals",
        "competing"
    )?;
    for i in &report.instances {
        if i.loaded {
            say!(
                out,
                "  {:<16} {:<8} {:>9} {:>7} {:>9} {:>9}  {}",
                i.name,
                "yes",
                i.users,
                i.events,
                i.intervals,
                i.competing,
                i.source
            )?;
        } else {
            say!(
                out,
                "  {:<16} {:<8} {:>9} {:>7} {:>9} {:>9}  {}",
                i.name,
                "lazy",
                "-",
                "-",
                "-",
                "-",
                i.source
            )?;
        }
    }
    Ok(())
}

/// `ses wal inspect` — offline dissection of a server's `--wal-dir`:
/// per-shard segment inventory, LSN ranges, torn tails, and (with
/// `--records`) every record's kind/LSN/session, snapshots included.
pub fn wal_inspect(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let dir = args.require("dir")?;
    let with_records = args.given("records");
    let format = format_of(args)?;
    let inspection = ses_durable::inspect_dir(std::path::Path::new(dir), with_records)?;
    if format == Format::Json {
        say!(
            out,
            "{}",
            serde_json::to_string_pretty(&inspection).map_err(|e| e.to_string())?
        )?;
        return Ok(());
    }
    if inspection.shards.is_empty() {
        say!(out, "wal inspect: no WAL shards under {dir}")?;
        return Ok(());
    }
    for shard in &inspection.shards {
        say!(out, "{} — {} records", shard.dir, shard.records)?;
        for seg in &shard.segments {
            let torn = seg
                .torn
                .as_deref()
                .map(|t| format!("  TORN: {t}"))
                .unwrap_or_default();
            say!(
                out,
                "  {:<16} {:>9} bytes, {:>6} records, lsn {}..={}{torn}",
                seg.file,
                seg.bytes,
                seg.records,
                seg.first_lsn,
                seg.last_lsn
            )?;
        }
        for err in &shard.errors {
            say!(out, "  ERROR: {err}")?;
        }
        for rec in &shard.record_list {
            say!(
                out,
                "    {:>8}  {:<8} lsn {:>6}  {:>6} bytes  {}",
                rec.offset,
                rec.kind,
                rec.lsn,
                rec.bytes,
                rec.session
            )?;
        }
    }
    Ok(())
}

/// `ses quality`: every non-EXACT spec of the registry against the exact
/// optimum on small seeded instances, as the mean and worst utility ratio.
pub fn quality(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    use ses_core::registry::{self, SPEC_NAMES};
    use ses_core::testkit::{random_instance, TestInstanceConfig};
    let instances: usize = args.get("instances")?;
    let k: usize = args.get("k")?;
    let mut specs = Vec::new();
    for name in SPEC_NAMES {
        let spec = SchedulerSpec::parse(name).map_err(|e| e.to_string())?;
        if spec != SchedulerSpec::Exact {
            specs.push(spec);
        }
    }
    let mut sums = vec![0.0; specs.len()];
    let mut worst = vec![f64::INFINITY; specs.len()];
    let mut solved = 0usize;
    for seed in 0..instances as u64 {
        let inst = random_instance(&TestInstanceConfig {
            num_users: 12,
            num_events: 8,
            num_intervals: 4,
            num_competing: 6,
            num_locations: 3,
            theta: 8.0,
            xi_max: 3.0,
            interest_density: 0.45,
            seed,
        });
        let Ok(opt) = registry::build(SchedulerSpec::Exact).run(&inst, k) else {
            continue;
        };
        if opt.total_utility <= 0.0 {
            continue;
        }
        solved += 1;
        for (i, spec) in specs.iter().enumerate() {
            let run = registry::build(spec.with_seed(seed))
                .run(&inst, k)
                .map_err(|e| e.to_string())?;
            let ratio = run.total_utility / opt.total_utility;
            if ratio > 1.0 + 1e-9 {
                return Err(format!(
                    "{spec} beats the exact optimum on seed {seed}: {ratio}"
                ));
            }
            sums[i] += ratio;
            worst[i] = worst[i].min(ratio);
        }
    }
    if solved == 0 {
        return Err("no instance solved exactly".to_owned());
    }
    say!(
        out,
        "utility ratio vs exact optimum over {solved} instances (k = {k}):"
    )?;
    say!(out, "  {:<7} {:>6} {:>6}", "spec", "mean", "worst")?;
    for (i, spec) in specs.iter().enumerate() {
        say!(
            out,
            "  {:<7} {:.4} {:.4}",
            spec.name(),
            sums[i] / solved as f64,
            worst[i]
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_server::{EndpointLatency, EngineTotals, MetricsReport, ShardStatus};

    fn sample_report() -> MetricsReport {
        MetricsReport {
            uptime_millis: 2_000.0,
            shards: 2,
            requests_2xx: 10,
            requests_4xx: 1,
            requests_5xx: 0,
            endpoints: vec![EndpointLatency {
                endpoint: "solve".to_owned(),
                count: 3,
                mean_micros: 850.0,
                p50_micros: 700,
                p95_micros: 1_400,
                p99_micros: 1_500,
                max_micros: 1_600,
            }],
            engine: EngineTotals::default(),
            shards_detail: vec![
                ShardStatus {
                    shard: 0,
                    queue_depth: 1,
                    handled: 6,
                    busy_micros: 400_000,
                    sessions: 2,
                    events_applied: 57,
                    column_slots: 1_024,
                    resident_bytes: 40_960,
                },
                ShardStatus {
                    shard: 1,
                    queue_depth: 0,
                    handled: 5,
                    busy_micros: 100_000,
                    sessions: 1,
                    events_applied: 12,
                    column_slots: 512,
                    resident_bytes: 20_480,
                },
            ],
            span_stages: vec![ses_obs::StageLatency {
                stage: "queue".to_owned(),
                count: 11,
                mean_micros: 42.0,
                p50_micros: 30,
                p95_micros: 90,
                p99_micros: 120,
                max_micros: 200,
            }],
            wal: None,
        }
    }

    #[test]
    fn top_frame_lays_out_shards_endpoints_and_stages() {
        let frame = top_frame("127.0.0.1:7878", &sample_report());
        assert!(frame.starts_with("ses top — 127.0.0.1:7878 · up 2.0s · 2 shards"));
        assert!(frame.contains("10 ok / 1 4xx / 0 5xx"), "{frame}");
        // Shard 0 spent 400 ms busy over a 2 s uptime: 20% occupancy.
        let shard0 = frame.lines().find(|l| l.trim().starts_with('0')).unwrap();
        assert!(shard0.contains("20.0"), "busy%% wrong in: {shard0}");
        assert!(shard0.contains("57"), "events_applied missing: {shard0}");
        assert!(frame.contains("solve"), "{frame}");
        assert!(frame.contains("queue"), "{frame}");
        // One line per shard, endpoint, and stage — nothing dropped.
        assert_eq!(frame.lines().filter(|l| l.contains("µs")).count(), 2);
    }

    #[test]
    fn top_frame_survives_an_empty_report() {
        let report = MetricsReport {
            uptime_millis: 0.0,
            shards: 0,
            requests_2xx: 0,
            requests_4xx: 0,
            requests_5xx: 0,
            endpoints: vec![],
            engine: EngineTotals::default(),
            shards_detail: vec![],
            span_stages: vec![],
            wal: None,
        };
        let frame = top_frame("x", &report);
        assert!(frame.contains("0 shards"));
    }
}
