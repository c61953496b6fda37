//! Records the engine perf trajectory and gates it in CI: release-mode GRD
//! and GRD-PQ (CELF lazy) solves over the Fig. 1 `k` sweep, plus a
//! users-axis sweep (10k → 1M members on the sparse-population family) that
//! records the blocked layout's resident bytes and slot counts per cell —
//! all written as `BENCH_engine.json` at the repo root.
//!
//! `cargo run --release -p ses-bench --bin bench_engine -- --help` lists
//! the options.
//!
//! Per cell the report carries utility, wall-clock millis and the
//! hardware-independent `score_evaluations` / `posting_visits` counters;
//! `lazy_speedup` divides each k-sweep cell's eager GRD millis by its
//! GRD-PQ millis. Every cell's Ω must equal the from-scratch
//! `evaluate_schedule` oracle's bits before it is accepted.
//!
//! Full runs additionally embed a `smoke_reference` section: the operation
//! counters of the small CI sweep (`--smoke` sizing), which are
//! deterministic and hardware-independent. `--check` is the CI
//! perf-regression gate: it re-runs the smoke sweep and exits non-zero if
//! any cell's `score_evaluations`/`posting_visits` exceed the committed
//! reference by more than 10%, or its utility differs in any bit.
//! `--smoke` alone (and `--check`, without an explicit `--out`) writes to a
//! temp path so neither can clobber the committed `BENCH_engine.json` with
//! throwaway numbers.

use serde::{Deserialize, Serialize};
use ses_cli::args::{self, Command, Opt, ParsedArgs};
use ses_core::testkit::evaluate_schedule;
use ses_core::{registry, SchedulerSpec};
use ses_datagen::pipeline::build_instance;
use ses_datagen::sweep::k_sweep;
use ses_datagen::synthetic::sparse_population;
use ses_ebsn::{generate, GeneratorConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Headroom the `--check` gate grants over the committed counters before it
/// fails: counters are deterministic, so the slack only absorbs *intended*
/// small regressions between reference regenerations, never noise.
const CHECK_HEADROOM: f64 = 1.10;

/// User-universe size of the smoke/CI sweep.
const SMOKE_USERS: usize = 400;

/// `k` values of the smoke/CI sweep (the full sweep is Fig. 1's).
const SMOKE_KS: &[usize] = &[20, 40];

/// Users-axis sweep of the full run: the sparse-population family through a
/// million members at fixed `k` — the regime the blocked column layout
/// exists for (resident bytes must scale with nnz, not `|T|·|union|`).
const USERS_AXIS: &[usize] = &[10_000, 100_000, 1_000_000];

/// Fixed `k` of the full users-axis sweep.
const USERS_AXIS_K: usize = 20;

/// Users-axis values of the smoke/CI sweep (counters and resident bytes are
/// deterministic, so `--check` pins these cells like the k-sweep ones).
const SMOKE_USERS_AXIS: &[usize] = &[2_000, 8_000];

/// Fixed `k` of the smoke users-axis sweep.
const SMOKE_USERS_AXIS_K: usize = 10;

/// Interests per user / active intervals per user of the users-axis family
/// (`sparse_population`): a few postings and a short activity window each,
/// so nnz grows linearly in users while the dense-equivalent layout grows
/// as `|T| · union`.
const USERS_AXIS_INTERESTS: usize = 3;
const USERS_AXIS_ACTIVE: usize = 3;

/// Shape of the pack→cold-open comparison universe (full runs): the
/// acceptance sizing — 100k sparse users.
const STORE_COLD_OPEN_USERS: usize = 100_000;
/// Users for the workload-profile cold-open row: the same generator family
/// `ses serve` boots for its default tenant, sized so one timing round
/// stays in the hundreds of milliseconds on the bench host.
const STORE_WORKLOAD_USERS: usize = 30_000;
/// Interleaved timing rounds per store row; each row records the *minimum*
/// rebuild and cold-open wall clocks across rounds. The bench host is a
/// single shared core with wildly variable steal time, so a minimum over
/// interleaved rounds is the only estimator that compares like with like.
const STORE_TIMING_ROUNDS: usize = 3;
/// Sparse-row population shape, matching the `ses pack` CLI defaults.
const STORE_SPARSE_INTERESTS: usize = 8;
const STORE_SPARSE_ACTIVE: usize = 6;
const STORE_COLD_OPEN_EVENTS: usize = 400;
const STORE_COLD_OPEN_INTERVALS: usize = 64;

/// Greedy schedule size of the cold-open Ω bit-match check.
const STORE_COLD_OPEN_K: usize = 32;

/// One (cell × algorithm) comparison row.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EngineCell {
    axis: String,
    value: f64,
    algorithm: String,
    /// Columnar Ω (equals the oracle's within float accumulation noise).
    utility: f64,
    /// Ω recomputed from scratch by the `evaluate_schedule` oracle.
    oracle_utility: f64,
    millis: f64,
    score_evaluations: u64,
    posting_visits: u64,
    scheduled: usize,
    /// Resident `(t, rank)` slots of the cell's engine (blocked layout
    /// nnz). Absent in pre-PR-8 JSON.
    #[serde(default)]
    column_slots: u64,
    /// Slots a dense uniform-stride layout would have held (`|T|·stride`).
    #[serde(default)]
    dense_slots: u64,
    /// Resident engine bytes (columns + runs).
    #[serde(default)]
    resident_bytes: u64,
    /// Wall-clock millis spent building the slot index/columns/runs.
    #[serde(default)]
    build_millis: f64,
}

/// The deterministic small-sweep counters the CI `--check` gate compares
/// against (hardware-independent, so committed numbers hold on any runner).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SmokeReference {
    users: usize,
    seed: u64,
    cells: Vec<EngineCell>,
}

/// One cold-open vs rebuild comparison row for the packed instance store
/// (DESIGN.md §12). The packed file is written once; then rebuild (run the
/// generator again) and cold-open (reopen the file) alternate for
/// [`STORE_TIMING_ROUNDS`] rounds and the row records each side's minimum.
/// The reopened instance must reproduce greedy Ω and the engine's
/// deterministic memory accounting bit for bit — the booleans are a gate,
/// the wall clocks are the evidence. Two rows are recorded: the `sparse`
/// pack-profile universe (cheap RNG generator — the store's worst case)
/// and the `workload` profile `ses serve` actually boots, where the dense
/// generation pass is what cold-open avoids.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreColdOpen {
    profile: String,
    users: usize,
    events: usize,
    intervals: usize,
    seed: u64,
    /// Size of the packed file on disk.
    packed_bytes: u64,
    /// Wall-clock millis to build the instance from the generator.
    rebuild_millis: f64,
    /// Wall-clock millis to cold-open the packed file.
    cold_open_millis: f64,
    /// `rebuild_millis / cold_open_millis` (both side's round minima).
    speedup: f64,
    /// Greedy Ω at [`STORE_COLD_OPEN_K`] identical to the last bit.
    omega_bits_match: bool,
    /// Engine slot/byte accounting identical (wall-clock `build_millis`
    /// excluded — it is the one nondeterministic stat).
    memory_stats_match: bool,
    /// The host the wall clocks were measured on ([`machine`]). Absent in
    /// rows recorded before it was kept.
    #[serde(default)]
    machine: String,
}

/// The host a row's wall clocks come from: the CPU model (Linux
/// `/proc/cpuinfo`; the architecture elsewhere) and the cores this
/// process could use.
fn machine() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_owned())
            })
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_owned());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{model}, {cores} cores available")
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct EngineReport {
    generator: String,
    users: usize,
    seed: u64,
    /// Cores this run had. The engine build resolves the users-axis cells'
    /// posting runs on one worker per core (at most one per event); the
    /// k-axis cells' columns are all full and resolve no runs.
    #[serde(default)]
    cores: usize,
    smoke: bool,
    cells: Vec<EngineCell>,
    /// GRD-PQ against eager GRD at each k-sweep cell (key: `k`): the GRD
    /// millis divided by the GRD-PQ millis of the same cell. One timed
    /// sample of each. Absent in files written before it was kept.
    #[serde(default)]
    lazy_speedup: BTreeMap<String, f64>,
    /// Lazy GRD-PQ score evaluations at the largest sweep cell vs eager
    /// GRD's (strictly fewer with identical utility).
    lazy_eval_ratio_at_max_k: f64,
    #[serde(default)]
    smoke_reference: Option<SmokeReference>,
    /// Pack→cold-open rows; full runs only (empty under `--smoke`/`--check`,
    /// so the gate compares the same sections it always did).
    #[serde(default)]
    store: Vec<StoreColdOpen>,
}

const BENCH_ENGINE: Command = Command {
    name: "bench_engine",
    about: "record/gate the engine perf trajectory (BENCH_engine.json)",
    options: &[
        Opt::value("users", "N", "3000", ""),
        Opt::value("seed", "S", "0", ""),
        Opt::flag("smoke", "(the small CI sweep, ungated)"),
        Opt::flag("check", "(re-run the smoke sweep; fail if counters regress >10%\nagainst the committed BENCH_engine.json)"),
        Opt::flag("spans", "(run the sweep inside an active trace scope; with --check\nthe gate tightens to bit-identical counters)"),
        Opt::value("committed", "PATH", "BENCH_engine.json", "(the reference --check reads)"),
        Opt::optional("out", "PATH", "(default: BENCH_engine.json; a temp file under --smoke\nor --check)"),
    ],
    ..Command::EMPTY
};

/// Solves `inst` with `spec` into one cell, or an error unless the solver
/// reported exactly the `evaluate_schedule` oracle's Ω bits.
fn solve_cell(
    axis: &str,
    value: f64,
    inst: &std::sync::Arc<ses_core::SesInstance>,
    spec: SchedulerSpec,
    k: usize,
) -> Result<EngineCell, String> {
    let outcome = registry::build(spec)
        .run(inst, k)
        .expect("k ≤ |E| by construction");
    let oracle = evaluate_schedule(inst, &outcome.schedule).total_utility;
    if outcome.total_utility.to_bits() != oracle.to_bits() {
        return Err(format!(
            "{} Ω {} differs from the oracle's {oracle} at {axis}={value}",
            spec.name(),
            outcome.total_utility
        ));
    }
    let (engine, memory) = (outcome.stats.engine, outcome.stats.memory);
    Ok(EngineCell {
        axis: axis.to_owned(),
        value,
        algorithm: spec.name().to_owned(),
        utility: outcome.total_utility,
        oracle_utility: oracle,
        millis: outcome.stats.elapsed.as_secs_f64() * 1e3,
        score_evaluations: engine.score_evaluations,
        posting_visits: engine.posting_visits,
        scheduled: outcome.len(),
        column_slots: memory.column_slots,
        dense_slots: memory.dense_slots,
        resident_bytes: memory.total_resident_bytes(),
        build_millis: memory.build_millis,
    })
}

/// Runs the GRD + GRD-PQ sweep over `k_values` on a fresh dataset of
/// `users` members.
fn build_cells(users: usize, seed: u64, k_values: &[usize]) -> Result<Vec<EngineCell>, String> {
    let max_k = *k_values.last().expect("sweep is non-empty");
    let mut gen_cfg = GeneratorConfig::meetup_california_scaled(users);
    gen_cfg.seed = seed;
    // Each cell samples |E| = 2k candidates plus a competing pool.
    gen_cfg.num_events = gen_cfg.num_events.max(2 * max_k + max_k / 2 + 10);
    eprintln!(
        "[bench_engine] dataset: {} members, {} events (seed {seed})",
        gen_cfg.num_members, gen_cfg.num_events
    );
    let dataset = generate(&gen_cfg);

    let mut cells = Vec::new();
    for cell in k_sweep(k_values, seed) {
        for spec in [SchedulerSpec::Greedy, SchedulerSpec::GreedyHeap] {
            // A fresh instance per solve: the engine index and its opening
            // sweep are cached on the instance, and each timed cell pays
            // for its own.
            let built = build_instance(&dataset, &cell.config)
                .map_err(|e| format!("cell k={} failed to build: {e}", cell.value))?;
            let row = solve_cell(&cell.axis, cell.value, &built.instance, spec, cell.config.k)?;
            eprintln!(
                "[bench_engine] k={:>3} {:>6}: {:>9.2} ms, Ω = {:.3}, {} score evals, \
                 {} posting visits",
                cell.value,
                row.algorithm,
                row.millis,
                row.utility,
                row.score_evaluations,
                row.posting_visits
            );
            cells.push(row);
        }
    }
    Ok(cells)
}

/// The users-axis sweep: GRD + GRD-PQ on the `sparse_population` family at
/// fixed `k`, one cell per universe size. Resident bytes and slot counts
/// come from the engine's own exact accounting, so they are deterministic
/// and `--check`-pinnable like the operation counters.
fn build_users_cells(
    users_values: &[usize],
    k: usize,
    seed: u64,
) -> Result<Vec<EngineCell>, String> {
    let num_events = 2 * k;
    let num_intervals = 3 * k / 2;
    let mut cells = Vec::new();
    for &users in users_values {
        for spec in [SchedulerSpec::Greedy, SchedulerSpec::GreedyHeap] {
            // A fresh instance per solve, so each cell's `build_millis`
            // times its own index build.
            let inst = sparse_population(
                users,
                num_events,
                num_intervals,
                USERS_AXIS_INTERESTS,
                USERS_AXIS_ACTIVE,
                seed,
            );
            let row = solve_cell("users", users as f64, &inst, spec, k)?;
            eprintln!(
                "[bench_engine] users={users:>9} {:>6}: {:>9.2} ms (build {:>7.2} ms), \
                 Ω = {:.3}, {} slots of {} dense ({:.1}%), {:.1} MiB resident",
                row.algorithm,
                row.millis,
                row.build_millis,
                row.utility,
                row.column_slots,
                row.dense_slots,
                100.0 * row.column_slots as f64 / row.dense_slots.max(1) as f64,
                row.resident_bytes as f64 / (1024.0 * 1024.0),
            );
            cells.push(row);
        }
    }
    Ok(cells)
}

/// The `--check` gate: every fresh smoke cell must stay within
/// [`CHECK_HEADROOM`] of the committed reference counters and report the
/// committed utility's bits — and every *committed*
/// cell must have been re-measured, so a sweep that silently stops
/// producing rows (an algorithm dropped from the loop) cannot pass
/// vacuously. Returns the violations.
fn check_against_reference(fresh: &[EngineCell], reference: &SmokeReference) -> Vec<String> {
    let mut violations = Vec::new();
    for committed in &reference.cells {
        if !fresh.iter().any(|c| {
            c.algorithm == committed.algorithm
                && c.axis == committed.axis
                && c.value == committed.value
        }) {
            violations.push(format!(
                "committed reference cell {} {}={} was not re-measured by this sweep",
                committed.algorithm, committed.axis, committed.value
            ));
        }
    }
    for cell in fresh {
        let Some(committed) = reference.cells.iter().find(|c| {
            c.algorithm == cell.algorithm && c.axis == cell.axis && c.value == cell.value
        }) else {
            violations.push(format!(
                "{} {}={} has no committed reference cell — regenerate BENCH_engine.json",
                cell.algorithm, cell.axis, cell.value
            ));
            continue;
        };
        let eval_limit = (committed.score_evaluations as f64 * CHECK_HEADROOM) as u64;
        if cell.score_evaluations > eval_limit {
            violations.push(format!(
                "{} {}={}: score_evaluations {} exceed committed {} by >{:.0}% (limit {})",
                cell.algorithm,
                cell.axis,
                cell.value,
                cell.score_evaluations,
                committed.score_evaluations,
                (CHECK_HEADROOM - 1.0) * 100.0,
                eval_limit
            ));
        }
        let visit_limit = (committed.posting_visits as f64 * CHECK_HEADROOM) as u64;
        if cell.posting_visits > visit_limit {
            violations.push(format!(
                "{} {}={}: posting_visits {} exceed committed {} by >{:.0}% (limit {})",
                cell.algorithm,
                cell.axis,
                cell.value,
                cell.posting_visits,
                committed.posting_visits,
                (CHECK_HEADROOM - 1.0) * 100.0,
                visit_limit
            ));
        }
        if cell.utility.to_bits() != committed.utility.to_bits() {
            violations.push(format!(
                "{} {}={}: utility {} differs in bits from committed {}",
                cell.algorithm, cell.axis, cell.value, cell.utility, committed.utility
            ));
        }
        // Memory accounting is exact byte arithmetic, not a measurement:
        // any change is a layout change and must come with a regenerated
        // reference. (Zero committed slots means a pre-PR-8 reference.)
        if committed.column_slots != 0
            && (cell.column_slots != committed.column_slots
                || cell.resident_bytes != committed.resident_bytes)
        {
            violations.push(format!(
                "{} {}={}: resident layout {} slots / {} bytes differs from committed \
                 {} slots / {} bytes — regenerate BENCH_engine.json",
                cell.algorithm,
                cell.axis,
                cell.value,
                cell.column_slots,
                cell.resident_bytes,
                committed.column_slots,
                committed.resident_bytes
            ));
        }
    }
    violations
}

/// The `--check --spans` tightening: with a trace scope active the engine
/// must do *exactly* the committed work — identical counters (the utility
/// bits are pinned by every `--check`). Any drift means span recording
/// leaked into the computation (an allocation, a reordered float sum, a
/// skipped candidate) rather than merely observing it.
fn check_bit_identical(fresh: &[EngineCell], reference: &SmokeReference) -> Vec<String> {
    let mut violations = Vec::new();
    for cell in fresh {
        let Some(committed) = reference.cells.iter().find(|c| {
            c.algorithm == cell.algorithm && c.axis == cell.axis && c.value == cell.value
        }) else {
            violations.push(format!(
                "{} k={} has no committed reference cell — regenerate BENCH_engine.json",
                cell.algorithm, cell.value
            ));
            continue;
        };
        if cell.score_evaluations != committed.score_evaluations
            || cell.posting_visits != committed.posting_visits
        {
            violations.push(format!(
                "{} k={}: counters with spans enabled ({} evals / {} visits) are not \
                 bit-identical to committed ({} / {})",
                cell.algorithm,
                cell.value,
                cell.score_evaluations,
                cell.posting_visits,
                committed.score_evaluations,
                committed.posting_visits
            ));
        }
    }
    violations
}

/// Measures one store row: builds the universe, packs it to a temp file,
/// then alternates generator rebuilds and cold opens for
/// [`STORE_TIMING_ROUNDS`] rounds (recording each side's minimum), and
/// compares greedy Ω and engine memory accounting bit for bit between the
/// first build and the first reopen. The wall clocks are reporting; the
/// bit-match booleans are the gate.
fn measure_store_profile(
    profile: &str,
    users: usize,
    events: usize,
    intervals: usize,
    seed: u64,
    build: &dyn Fn() -> std::sync::Arc<ses_core::SesInstance>,
) -> Result<StoreColdOpen, String> {
    let built = build();
    let path =
        std::env::temp_dir().join(format!("bench-engine-cold-open-{profile}-{seed}.sesstore"));
    let packed_bytes = ses_core::store::pack_to_path(&built, &path).map_err(|e| e.to_string())?;

    let open_start = std::time::Instant::now();
    let reopened = ses_core::store::open_path(&path).map_err(|e| e.to_string())?;
    let mut cold_open_millis = open_start.elapsed().as_secs_f64() * 1e3;
    let mut rebuild_millis = f64::INFINITY;
    for _ in 0..STORE_TIMING_ROUNDS {
        let rebuild_start = std::time::Instant::now();
        let again = build();
        rebuild_millis = rebuild_millis.min(rebuild_start.elapsed().as_secs_f64() * 1e3);
        drop(again);
        let open_start = std::time::Instant::now();
        let again = ses_core::store::open_path(&path).map_err(|e| e.to_string())?;
        cold_open_millis = cold_open_millis.min(open_start.elapsed().as_secs_f64() * 1e3);
        drop(again);
    }
    std::fs::remove_file(&path).ok();

    let solve_built = registry::build(SchedulerSpec::Greedy)
        .run(&built, STORE_COLD_OPEN_K)
        .map_err(|e| e.to_string())?;
    let solve_reopened = registry::build(SchedulerSpec::Greedy)
        .run(&reopened, STORE_COLD_OPEN_K)
        .map_err(|e| e.to_string())?;
    let omega_bits_match =
        solve_built.total_utility.to_bits() == solve_reopened.total_utility.to_bits();

    let stats_built = ses_core::AttendanceEngine::new(&built).memory_stats();
    let stats_reopened = ses_core::AttendanceEngine::new(&reopened).memory_stats();
    let memory_stats_match = stats_built.column_slots == stats_reopened.column_slots
        && stats_built.dense_slots == stats_reopened.dense_slots
        && stats_built.resident_column_bytes == stats_reopened.resident_column_bytes
        && stats_built.run_bytes == stats_reopened.run_bytes;

    Ok(StoreColdOpen {
        profile: profile.to_owned(),
        users,
        events,
        intervals,
        seed,
        packed_bytes,
        rebuild_millis,
        cold_open_millis,
        speedup: rebuild_millis / cold_open_millis.max(1e-6),
        omega_bits_match,
        memory_stats_match,
        machine: machine(),
    })
}

fn run(args: &ParsedArgs) -> Result<(), String> {
    let check = args.given("check");
    let smoke = check || args.given("smoke");
    // Under `--check`, `--spans` also demands *bit-identical* counters
    // against the committed reference — the tracing-overhead gate:
    // span recording must never change what the engine computes.
    let spans = args.given("spans");
    let users: usize = args.get("users")?;
    let users = if smoke { users.min(SMOKE_USERS) } else { users };
    let seed: u64 = args.get("seed")?;
    let committed: String = args.get("committed")?;
    // A temp path for `--smoke`/`--check` unless `--out` says otherwise, so
    // the documented CI invocations can never clobber the committed
    // `BENCH_engine.json` with throwaway numbers.
    let out = match args.get_opt("out")? {
        Some(path) => path,
        None if smoke => std::env::temp_dir()
            .join("BENCH_engine_smoke.json")
            .to_string_lossy()
            .into_owned(),
        None => "BENCH_engine.json".to_owned(),
    };

    let k_values: &[usize] = if smoke { SMOKE_KS } else { &[100, 300, 500] };

    // `--spans` runs the sweep under an active trace scope so every engine
    // span is recorded with a live trace id — the worst case for the
    // recording path. Spans themselves are always on; the scope only makes
    // them attributable (and thus collectable).
    let trace = spans.then(ses_obs::TraceId::generate);
    let (users_axis, users_axis_k): (&[usize], usize) = if smoke {
        (SMOKE_USERS_AXIS, SMOKE_USERS_AXIS_K)
    } else {
        (USERS_AXIS, USERS_AXIS_K)
    };
    let cells = {
        let _scope = trace.map(ses_obs::trace_scope);
        let mut cells = build_cells(users, seed, k_values)?;
        cells.extend(build_users_cells(users_axis, users_axis_k, seed)?);
        cells
    };
    if let Some(id) = trace {
        eprintln!(
            "[bench_engine] trace {id}: {} spans recorded during the sweep",
            ses_obs::collect_trace(id).len()
        );
    }

    // Full runs re-measure the CI smoke sweep too, so the committed file
    // always carries the reference counters `--check` gates against.
    let smoke_reference = if smoke {
        None
    } else {
        eprintln!("[bench_engine] recording the smoke-sweep reference counters");
        let smoke_users = users.min(SMOKE_USERS);
        let mut cells = build_cells(smoke_users, seed, SMOKE_KS)
            .map_err(|e| format!("smoke reference failed: {e}"))?;
        cells.extend(
            build_users_cells(SMOKE_USERS_AXIS, SMOKE_USERS_AXIS_K, seed)
                .map_err(|e| format!("smoke reference failed: {e}"))?,
        );
        Some(SmokeReference {
            users: smoke_users,
            seed,
            cells,
        })
    };

    // Full runs also measure the packed store's cold-open rows; a bit
    // mismatch is a correctness failure, not a perf number.
    let store = if smoke {
        Vec::new()
    } else {
        type UniverseBuilder = Box<dyn Fn() -> std::sync::Arc<ses_core::SesInstance>>;
        let profiles: [(&str, usize, UniverseBuilder); 2] = [
            (
                "sparse",
                STORE_COLD_OPEN_USERS,
                Box::new(move || {
                    sparse_population(
                        STORE_COLD_OPEN_USERS,
                        STORE_COLD_OPEN_EVENTS,
                        STORE_COLD_OPEN_INTERVALS,
                        STORE_SPARSE_INTERESTS,
                        STORE_SPARSE_ACTIVE,
                        seed,
                    )
                }),
            ),
            (
                "workload",
                STORE_WORKLOAD_USERS,
                Box::new(move || {
                    ses_core::testkit::workload_instance(
                        STORE_WORKLOAD_USERS,
                        STORE_COLD_OPEN_EVENTS,
                        STORE_COLD_OPEN_INTERVALS,
                        seed,
                    )
                }),
            ),
        ];
        let mut rows = Vec::new();
        for (profile, users, build) in &profiles {
            eprintln!(
                "[bench_engine] measuring pack→cold-open on the {users}-user {profile} universe"
            );
            let row = measure_store_profile(
                profile,
                *users,
                STORE_COLD_OPEN_EVENTS,
                STORE_COLD_OPEN_INTERVALS,
                seed,
                build.as_ref(),
            )
            .map_err(|e| format!("{profile} store cold-open failed: {e}"))?;
            if !row.omega_bits_match || !row.memory_stats_match {
                return Err(format!(
                    "{profile} cold-open is not bit-exact (Ω match {}, memory match {})",
                    row.omega_bits_match, row.memory_stats_match
                ));
            }
            eprintln!(
                "[bench_engine] {profile}: cold-open {:.1} ms vs rebuild {:.1} ms \
                 ({:.1}x, {} packed bytes, min of {STORE_TIMING_ROUNDS} rounds)",
                row.cold_open_millis, row.rebuild_millis, row.speedup, row.packed_bytes
            );
            rows.push(row);
        }
        rows
    };

    // Each k-sweep cell runs GRD, then GRD-PQ.
    let lazy_speedup: BTreeMap<String, f64> = cells
        .iter()
        .filter(|c| c.axis == "k")
        .collect::<Vec<_>>()
        .chunks(2)
        .map(|pair| {
            (
                pair[0].value.to_string(),
                pair[0].millis / pair[1].millis.max(1e-9),
            )
        })
        .collect();
    let lazy_eval_ratio_at_max_k = match (
        cells
            .iter()
            .rfind(|c| c.axis == "k" && c.algorithm == "GRD"),
        cells
            .iter()
            .rfind(|c| c.axis == "k" && c.algorithm == "GRD-PQ"),
    ) {
        (Some(grd), Some(lazy)) => {
            lazy.score_evaluations as f64 / grd.score_evaluations.max(1) as f64
        }
        _ => 0.0,
    };
    let report = EngineReport {
        generator: "ses-bench bench_engine (GRD + GRD-PQ lazy, Fig. 1 k sweep)".to_owned(),
        users,
        seed,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        smoke,
        cells,
        lazy_speedup,
        lazy_eval_ratio_at_max_k,
        smoke_reference,
        store,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json).map_err(|e| format!("failed to write {out}: {e}"))?;
    let speedup_summary = report
        .lazy_speedup
        .iter()
        .map(|(k, s)| format!("k={k} {s:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    eprintln!(
        "[bench_engine] wrote {out} ({} cells, GRD-PQ vs GRD [{speedup_summary}], \
         lazy/eager evals at max k {:.3})",
        report.cells.len(),
        lazy_eval_ratio_at_max_k
    );

    if check {
        let text = std::fs::read_to_string(&committed)
            .map_err(|e| format!("--check: cannot read {committed}: {e}"))?;
        let reference: EngineReport = serde_json::from_str(&text)
            .map_err(|e| format!("--check: cannot parse {committed}: {e}"))?;
        let Some(reference) = reference.smoke_reference.as_ref() else {
            return Err(format!(
                "--check: {committed} has no smoke_reference section — \
                 regenerate it with a full run"
            ));
        };
        if reference.users != users || reference.seed != seed {
            return Err(format!(
                "--check: reference was recorded at users={} seed={}, \
                 this run used users={users} seed={seed}",
                reference.users, reference.seed
            ));
        }
        let mut violations = check_against_reference(&report.cells, reference);
        if spans {
            violations.extend(check_bit_identical(&report.cells, reference));
        }
        if !violations.is_empty() {
            let lines: Vec<String> = violations.iter().map(|v| format!("  - {v}")).collect();
            return Err(format!(
                "--check: perf regression gate FAILED:\n{}",
                lines.join("\n")
            ));
        }
        if spans {
            eprintln!(
                "[bench_engine] --check --spans passed: {} cells bit-identical to the \
                 committed counters with tracing active",
                report.cells.len()
            );
        } else {
            eprintln!(
                "[bench_engine] --check passed: {} cells within {:.0}% of committed counters",
                report.cells.len(),
                (CHECK_HEADROOM - 1.0) * 100.0
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    args::main(&BENCH_ENGINE, run)
}

#[cfg(test)]
mod tests {
    use ses_cli::args::{parse_options, ArgsError};

    #[test]
    fn the_table_rejects_an_unknown_flag() {
        let args = ["--smoke".to_owned(), "--bogus".to_owned()];
        assert_eq!(
            parse_options(&super::BENCH_ENGINE, &args).unwrap_err(),
            ArgsError::Unknown {
                command: "bench_engine",
                option: "bogus".to_owned()
            }
        );
    }
}
