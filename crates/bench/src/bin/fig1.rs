//! Regenerates every panel of the paper's Figure 1.
//!
//! * Panel (a): utility vs `k` — GRD, TOP, RAND
//! * Panel (b): time vs `k`
//! * Panel (c): utility vs `|T|` (at `k = 100`)
//! * Panel (d): time vs `|T|`
//!
//! `--users` controls the simulated population (default 3000; `--full` uses
//! the paper's 42,444 — slow). GRD cost is linear in `|U|`, so subsampling
//! rescales both axes uniformly without changing orderings (EXPERIMENTS.md).
//! `cargo run -p ses-bench --release --bin fig1 -- --help` lists the options.

use ses_bench::harness::{run_sweep, HarnessConfig};
use ses_bench::report::{panel_table, write_json, PanelMetric};
use ses_cli::args::{self, Command, Opt, ParsedArgs};
use ses_core::SchedulerSpec;
use ses_datagen::sweep::paper_sweeps;
use ses_ebsn::{generate, interest_stats, overlap_stats, GeneratorConfig};
use std::process::ExitCode;

const FIG1: Command = Command {
    name: "fig1",
    about: "regenerate Fig. 1 of 'Social Event Scheduling' (ICDE 2018)",
    options: &[
        Opt::value("users", "N", "3000", ""),
        Opt::value("seed", "S", "0", ""),
        Opt::value("panel", "a|b|c|d|all", "all", ""),
        Opt::flag("ablation", "(also run the GRD-PQ heap greedy)"),
        Opt::flag("localsearch", "(also run GRD + local search)"),
        Opt::flag("serial", "(run the sweep cells one at a time)"),
        Opt::flag("full", "(the paper's 42,444 users)").excludes(&["users"]),
        Opt::optional("json", "PATH", "(write every row as JSON)"),
    ],
    ..Command::EMPTY
};

fn run(args: &ParsedArgs) -> Result<(), String> {
    let users: usize = if args.given("full") {
        42_444
    } else {
        args.get("users")?
    };
    let seed: u64 = args.get("seed")?;
    let panels: Vec<char> = match args.require("panel")? {
        "all" => vec!['a', 'b', 'c', 'd'],
        one if one.len() == 1 && "abcd".contains(one) => one.chars().collect(),
        other => return Err(format!("unknown panel '{other}'")),
    };

    // --- dataset ---------------------------------------------------------
    let mut gen_cfg = GeneratorConfig::meetup_california_scaled(users);
    gen_cfg.seed = seed;
    // The k-sweep needs |E| = 2·500 candidates plus a competing pool; keep a
    // healthy margin at small population scales.
    gen_cfg.num_events = gen_cfg.num_events.max(1500);
    eprintln!(
        "[fig1] generating Meetup-like dataset: {} members, {} events …",
        gen_cfg.num_members, gen_cfg.num_events
    );
    let dataset = generate(&gen_cfg);
    let overlap = overlap_stats(&dataset);
    let interest = interest_stats(&dataset, 20_000, seed);
    eprintln!("[fig1] dataset: {}", dataset.summary());
    eprintln!(
        "[fig1] calibration: mean concurrent events = {:.2} (paper: 8.1), \
         interest nonzero fraction = {:.3}, mean nonzero Jaccard = {:.3}",
        overlap.mean_concurrent, interest.nonzero_fraction, interest.mean_nonzero_interest
    );

    // --- sweeps ----------------------------------------------------------
    let mut algos = SchedulerSpec::paper_set();
    if args.given("ablation") {
        algos.push(SchedulerSpec::GreedyHeap);
    }
    if args.given("localsearch") {
        algos.push(SchedulerSpec::GreedyLocalSearch);
    }
    let cfg = HarnessConfig {
        algos,
        parallel: !args.given("serial"),
        seed,
    };
    let (k_cells, t_cells) = paper_sweeps(seed);

    let need_k = panels.iter().any(|&p| p == 'a' || p == 'b');
    let need_t = panels.iter().any(|&p| p == 'c' || p == 'd');

    let mut all_rows = Vec::new();
    let k_rows = if need_k {
        eprintln!(
            "[fig1] running k sweep ({} cells × {} algos) …",
            k_cells.len(),
            cfg.algos.len()
        );
        let rows = run_sweep(&dataset, &k_cells, &cfg);
        all_rows.extend(rows.clone());
        rows
    } else {
        Vec::new()
    };
    let t_rows = if need_t {
        eprintln!(
            "[fig1] running |T| sweep ({} cells × {} algos) …",
            t_cells.len(),
            cfg.algos.len()
        );
        let rows = run_sweep(&dataset, &t_cells, &cfg);
        all_rows.extend(rows.clone());
        rows
    } else {
        Vec::new()
    };

    // --- panels ----------------------------------------------------------
    for &panel in &panels {
        let table = match panel {
            'a' => panel_table("Fig 1a: utility vs k", &k_rows, PanelMetric::Utility),
            'b' => panel_table("Fig 1b: time vs k", &k_rows, PanelMetric::TimeMillis),
            'c' => panel_table("Fig 1c: utility vs |T|", &t_rows, PanelMetric::Utility),
            'd' => panel_table("Fig 1d: time vs |T|", &t_rows, PanelMetric::TimeMillis),
            _ => unreachable!("validated above"),
        };
        println!("{table}");
    }
    // Hardware-independent companion tables for the time panels.
    if panels.contains(&'b') && !k_rows.is_empty() {
        println!(
            "{}",
            panel_table(
                "Fig 1b (op counts): score evaluations vs k",
                &k_rows,
                PanelMetric::ScoreEvaluations
            )
        );
    }
    if panels.contains(&'d') && !t_rows.is_empty() {
        println!(
            "{}",
            panel_table(
                "Fig 1d (op counts): score evaluations vs |T|",
                &t_rows,
                PanelMetric::ScoreEvaluations
            )
        );
    }

    if let Some(path) = args.get_opt::<String>("json")? {
        write_json(&path, &all_rows).map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("[fig1] wrote {} rows to {path}", all_rows.len());
    }
    Ok(())
}

fn main() -> ExitCode {
    args::main(&FIG1, run)
}
