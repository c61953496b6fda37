//! Records the serving-stack perf trajectory: starts an in-process
//! `ses-server`, drives it with the built-in closed-loop load generator,
//! runs the server-vs-simulator replay determinism check, and writes the
//! whole picture — client-side req/s + p50/p95/p99, the server's own
//! `/metrics` histograms, the digest verdict, the fsync-policy sweep and
//! the shared engine index's rows (first vs later `/solve`, session open,
//! bytes per session) — as `BENCH_server.json` at the repo root.
//!
//! `cargo run --release -p ses-bench --bin bench_server -- --help` lists
//! the options. `--smoke` shrinks the run for CI (and, like
//! `bench_engine --smoke`, defaults its output to a temp file of its own, so
//! throwaway numbers clobber neither the committed report nor another CI
//! step's output). Exit status is non-zero when any request
//! answered non-2xx or the replay digests diverge, so CI can gate on it.

use ses_cli::args::{self, Command, Opt, ParsedArgs};
use ses_server::{
    serve, verify_replay, DurabilityRow, EngineIndexRow, FsyncPolicy, HttpClient, LoadgenConfig,
    ReplayConfig, ServerBenchReport, ServerConfig, Spread,
};
use ses_service::{EvalRequest, SessionReport, SolveResponse};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Dimensions of the packed second tenant. Deliberately different from the
/// default serving instance so cross-tenant traffic exercises distinct
/// universes, and small enough that packing adds negligible startup cost.
const TENANT_USERS: usize = 5_000;
const TENANT_EVENTS: usize = 120;
const TENANT_INTERVALS: usize = 48;

/// Fresh servers per engine-index row: each contributes one first solve.
const INDEX_REPEATS: usize = 5;
/// Later solves and session opens timed on each of those servers.
const INDEX_LATER: usize = 5;
/// `k` of the engine-index rows' solves and opens.
const INDEX_K: usize = 8;

const BENCH_SERVER: Command = Command {
    name: "bench_server",
    about: "record the serving-stack perf trajectory (BENCH_server.json)",
    options: &[
        Opt::optional("clients", "N", "(8; 4 under --smoke)"),
        Opt::optional("requests", "N", "(2000; 300 under --smoke)"),
        Opt::value("shards", "N", "4", ""),
        Opt::value("seed", "S", "0", ""),
        Opt::flag("smoke", "(a shrunk run for CI)"),
        Opt::optional(
            "out",
            "PATH",
            "(default: BENCH_server.json; a temp file under --smoke)",
        ),
    ],
    ..Command::EMPTY
};

fn run(args: &ParsedArgs) -> Result<(), String> {
    let smoke = args.given("smoke");
    let clients: usize = args
        .get_opt("clients")?
        .unwrap_or(if smoke { 4 } else { 8 });
    let requests: u64 = args
        .get_opt("requests")?
        .unwrap_or(if smoke { 300 } else { 2000 });
    let shards: usize = args.get("shards")?;
    let seed: u64 = args.get("seed")?;
    let out = match args.get_opt("out")? {
        Some(path) => path,
        None if smoke => std::env::temp_dir()
            .join("bench_server_smoke.json")
            .to_string_lossy()
            .into_owned(),
        None => "BENCH_server.json".to_owned(),
    };

    // Pack a second tenant so the loadgen splits clients across two
    // universes — the per-instance rows below are the committed evidence
    // that one tenant's traffic does not distort another's latency.
    let tenant = ses_datagen::synthetic::sparse_population(
        TENANT_USERS,
        TENANT_EVENTS,
        TENANT_INTERVALS,
        8,
        6,
        seed.wrapping_add(1),
    );
    let tenant_path = std::env::temp_dir().join(format!("bench-server-tenant-{seed}.sesstore"));
    let tenant_bytes = ses_core::store::pack_to_path(&tenant, &tenant_path)
        .map_err(|e| format!("pack tenant: {e}"))?;

    // The default serving instance (`ses serve`'s defaults) plus the packed
    // tenant, ephemeral port.
    let server_cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards,
        seed,
        instances: vec![("tenant-b".to_owned(), tenant_path.clone())],
        ..ServerConfig::default()
    };
    let handle = serve(&server_cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = handle.addr().to_string();
    println!(
        "bench_server: {} shards on {addr}, {clients} clients × {requests} requests, \
         packed tenant {} bytes",
        shards, tenant_bytes
    );

    let loadgen_cfg = LoadgenConfig {
        addr: addr.clone(),
        clients,
        requests,
        seed,
        instances: vec!["default".to_owned(), "tenant-b".to_owned()],
        ..LoadgenConfig::default()
    };
    let summary = ses_server::loadgen::run(&loadgen_cfg)?;
    println!(
        "  {:>8.0} req/s — p50 {} µs, p95 {} µs, p99 {} µs, max {} µs ({} ok, {} errors)",
        summary.req_per_sec,
        summary.p50_micros,
        summary.p95_micros,
        summary.p99_micros,
        summary.max_micros,
        summary.ok,
        summary.errors
    );
    for row in &summary.per_instance {
        println!(
            "    [{}] {} clients, {} requests — p50 {} µs, p95 {} µs, p99 {} µs ({} errors)",
            row.instance,
            row.clients,
            row.requests,
            row.p50_micros,
            row.p95_micros,
            row.p99_micros,
            row.errors
        );
    }

    let mut client = HttpClient::new(addr);
    let digest = verify_replay(
        &mut client,
        &ReplayConfig {
            steps: if smoke { 150 } else { 400 },
            seed,
            ..ReplayConfig::default()
        },
    )?;
    println!(
        "  replay: {} disruptions, server digest {:#018x}, sim digest {:#018x} — {}",
        digest.steps,
        digest.server_digest,
        digest.sim_digest,
        if digest.matches {
            "match ✓"
        } else {
            "MISMATCH"
        }
    );

    let (status, body) = client
        .get("/metrics")
        .map_err(|e| format!("GET /metrics failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}: {body}"));
    }
    let server: ses_server::MetricsReport =
        serde_json::from_str(&body).map_err(|e| format!("bad /metrics body: {e}"))?;

    let durability = durability_sweep(smoke, shards, seed)?;
    let engine_index = engine_index_rows(shards, seed, &tenant_path)?;
    let healthy = summary.errors == 0 && digest.matches && digest.utility_bits_match;
    let report = ServerBenchReport {
        loadgen: summary,
        server,
        digest: Some(digest),
        durability,
        engine_index,
    };
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| format!("write {out}: {e}"))?;
    println!("  wrote {out}");

    handle.shutdown();
    let _ = std::fs::remove_file(&tenant_path);
    if !healthy {
        return Err("FAILED (non-2xx responses or digest mismatch)".to_owned());
    }
    Ok(())
}

/// Measures the durability cost curve: for each fsync policy, a fresh
/// WAL-backed server on a scratch directory takes the same closed-loop
/// load, and the resulting throughput + append/fsync tails become one
/// committed row. Policies run weakest-first so the `per-record` row —
/// the one that pays a sync per event — closes the table.
fn durability_sweep(smoke: bool, shards: usize, seed: u64) -> Result<Vec<DurabilityRow>, String> {
    let policies = [
        FsyncPolicy::Off,
        FsyncPolicy::Interval { millis: 25 },
        FsyncPolicy::PerRecord,
    ];
    let mut rows = Vec::new();
    for policy in policies {
        let tag = policy.label().replace(':', "-");
        let wal_dir =
            std::env::temp_dir().join(format!("bench-server-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let handle = serve(&ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards,
            seed,
            wal_dir: Some(wal_dir.clone()),
            fsync: policy,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind durable server ({tag}): {e}"))?;
        let summary = ses_server::loadgen::run(&LoadgenConfig {
            addr: handle.addr().to_string(),
            clients: if smoke { 2 } else { 4 },
            requests: if smoke { 100 } else { 500 },
            seed,
            ..LoadgenConfig::default()
        })?;
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&wal_dir);
        let wal = summary
            .wal
            .as_ref()
            .ok_or_else(|| format!("durable server ({tag}) reported no wal metrics"))?;
        let row = DurabilityRow {
            policy: wal.policy.clone(),
            req_per_sec: summary.req_per_sec,
            p50_micros: summary.p50_micros,
            p99_micros: summary.p99_micros,
            durable_acks: wal.durable_acks,
            append_p99_micros: wal.append.as_ref().map_or(0, |l| l.p99_micros),
            fsync_p99_micros: wal.fsync.as_ref().map_or(0, |l| l.p99_micros),
        };
        println!(
            "  durability [{}] {:>8.0} req/s — p99 {} µs, append p99 {} µs, fsync p99 {} µs, \
             {} durable acks",
            row.policy,
            row.req_per_sec,
            row.p99_micros,
            row.append_p99_micros,
            row.fsync_p99_micros,
            row.durable_acks
        );
        if summary.errors > 0 {
            return Err(format!(
                "durability sweep ({tag}): {} non-2xx responses",
                summary.errors
            ));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Measures what the shared engine index saves, per instance (the default
/// and the packed tenant): on each of [`INDEX_REPEATS`] fresh servers, an
/// empty `/eval` loads the instance without building an engine, then the
/// first `/solve` (which builds the index and its opening sweep),
/// [`INDEX_LATER`] more of the same `/solve`, as many `/eval`s of its
/// answer and as many session opens are timed at the client. The byte
/// columns come from the last open session's report.
fn engine_index_rows(
    shards: usize,
    seed: u64,
    tenant: &Path,
) -> Result<Vec<EngineIndexRow>, String> {
    let instances = ["default", "tenant-b"];
    let mut samples = vec![[Vec::new(), Vec::new(), Vec::new(), Vec::new()]; instances.len()];
    let mut memory = vec![ses_core::EngineMemoryStats::default(); instances.len()];
    for repeat in 0..INDEX_REPEATS {
        let handle = serve(&ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards,
            seed,
            instances: vec![("tenant-b".to_owned(), tenant.to_path_buf())],
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind index server: {e}"))?;
        let mut client = HttpClient::new(handle.addr().to_string());
        let mut timed = |path: &str, body: &str| -> Result<(u64, String), String> {
            let start = Instant::now();
            let (status, answer) = client
                .post(path, body)
                .map_err(|e| format!("POST {path}: {e}"))?;
            let micros = start.elapsed().as_micros() as u64;
            if status != 200 {
                return Err(format!("POST {path} answered {status}: {answer}"));
            }
            Ok((micros, answer))
        };
        for (i, instance) in instances.iter().enumerate() {
            let [first, later, eval, open] = &mut samples[i];
            timed(
                "/eval",
                &format!(r#"{{"assignments":[],"instance":"{instance}"}}"#),
            )?;
            let solve = format!(r#"{{"spec":"Greedy","k":{INDEX_K},"instance":"{instance}"}}"#);
            first.push(timed("/solve", &solve)?.0);
            let mut answer = String::new();
            for _ in 0..INDEX_LATER {
                let (micros, body) = timed("/solve", &solve)?;
                later.push(micros);
                answer = body;
            }
            let solved: SolveResponse =
                serde_json::from_str(&answer).map_err(|e| format!("bad solve: {e}"))?;
            let body = serde_json::to_string(&EvalRequest {
                assignments: solved.assignments,
                instance: (*instance).into(),
            })
            .map_err(|e| e.to_string())?;
            for _ in 0..INDEX_LATER {
                eval.push(timed("/eval", &body)?.0);
            }
            for j in 0..INDEX_LATER {
                let name = format!("index-{repeat}-{i}-{j}");
                let body = format!(
                    r#"{{"name":"{name}","spec":"Greedy","k":{INDEX_K},"instance":"{instance}"}}"#
                );
                open.push(timed(&format!("/sessions/{name}/open"), &body)?.0);
                let (_, report) = timed(&format!("/sessions/{name}/report"), "")?;
                let report: SessionReport =
                    serde_json::from_str(&report).map_err(|e| format!("bad report: {e}"))?;
                memory[i] = report.memory;
            }
        }
        handle.shutdown();
    }
    let rows: Vec<EngineIndexRow> = instances
        .iter()
        .zip(samples)
        .zip(memory)
        .map(
            |((instance, [first, later, eval, open]), memory)| EngineIndexRow {
                instance: (*instance).to_owned(),
                first_solve: Spread::of(&first),
                later_solve: Spread::of(&later),
                open: Spread::of(&open),
                eval: Spread::of(&eval),
                bytes_per_session: memory.state_bytes,
                index_bytes: memory.index_bytes,
            },
        )
        .collect();
    for row in &rows {
        let show = |s: &Spread| {
            format!(
                "{:.0} µs [{}–{}] ×{}",
                s.median_micros, s.min_micros, s.max_micros, s.repeats
            )
        };
        println!(
            "  engine index [{}] first solve {}, later solve {}, eval {}, open {}; \
             {} B per session, {} B index",
            row.instance,
            show(&row.first_solve),
            show(&row.later_solve),
            show(&row.eval),
            show(&row.open),
            row.bytes_per_session,
            row.index_bytes
        );
    }
    Ok(rows)
}

fn main() -> ExitCode {
    args::main(&BENCH_SERVER, run)
}

#[cfg(test)]
mod tests {
    use ses_cli::args::{parse_options, ArgsError};

    #[test]
    fn the_table_rejects_an_unknown_flag() {
        let args = ["--smoke".to_owned(), "--bogus".to_owned()];
        assert_eq!(
            parse_options(&super::BENCH_SERVER, &args).unwrap_err(),
            ArgsError::Unknown {
                command: "bench_server",
                option: "bogus".to_owned()
            }
        );
    }
}
