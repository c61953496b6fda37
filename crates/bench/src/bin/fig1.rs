//! Regenerates every panel of the paper's Figure 1.
//!
//! * Panel (a): utility vs `k` — GRD, TOP, RAND
//! * Panel (b): time vs `k`
//! * Panel (c): utility vs `|T|` (at `k = 100`)
//! * Panel (d): time vs `|T|`
//!
//! ```text
//! cargo run -p ses-bench --release --bin fig1 -- [--users N] [--seed S]
//!     [--panel a|b|c|d|all] [--ablation] [--localsearch] [--serial]
//!     [--full] [--json PATH]
//! ```
//!
//! `--users` controls the simulated population (default 3000; `--full` uses
//! the paper's 42,444 — slow). GRD cost is linear in `|U|`, so subsampling
//! rescales both axes uniformly without changing orderings (EXPERIMENTS.md).

use ses_bench::harness::{run_sweep, HarnessConfig};
use ses_bench::report::{panel_table, write_json, PanelMetric};
use ses_core::SchedulerSpec;
use ses_datagen::sweep::paper_sweeps;
use ses_ebsn::{generate, interest_stats, overlap_stats, GeneratorConfig};
use std::process::ExitCode;

struct Args {
    users: usize,
    seed: u64,
    panels: Vec<char>,
    ablation: bool,
    localsearch: bool,
    serial: bool,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        users: 3000,
        seed: 0,
        panels: vec!['a', 'b', 'c', 'd'],
        ablation: false,
        localsearch: false,
        serial: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--users" => {
                args.users = it
                    .next()
                    .ok_or("--users needs a value")?
                    .parse()
                    .map_err(|e| format!("--users: {e}"))?;
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--panel" => {
                let p = it.next().ok_or("--panel needs a value")?;
                args.panels = match p.as_str() {
                    "all" => vec!['a', 'b', 'c', 'd'],
                    one if one.len() == 1 && "abcd".contains(one) => {
                        vec![one.chars().next().unwrap()]
                    }
                    other => return Err(format!("unknown panel '{other}'")),
                };
            }
            "--ablation" => args.ablation = true,
            "--localsearch" => args.localsearch = true,
            "--serial" => args.serial = true,
            "--full" => args.users = 42_444,
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--help" | "-h" => {
                println!(
                    "fig1 — regenerate Fig. 1 of 'Social Event Scheduling' (ICDE 2018)\n\
                     options: --users N | --seed S | --panel a|b|c|d|all | --ablation\n\
                     \x20        --localsearch | --serial | --full | --json PATH"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fig1: {e}");
            return ExitCode::FAILURE;
        }
    };

    // --- dataset ---------------------------------------------------------
    let mut gen_cfg = GeneratorConfig::meetup_california_scaled(args.users);
    gen_cfg.seed = args.seed;
    // The k-sweep needs |E| = 2·500 candidates plus a competing pool; keep a
    // healthy margin at small population scales.
    gen_cfg.num_events = gen_cfg.num_events.max(1500);
    eprintln!(
        "[fig1] generating Meetup-like dataset: {} members, {} events …",
        gen_cfg.num_members, gen_cfg.num_events
    );
    let dataset = generate(&gen_cfg);
    let overlap = overlap_stats(&dataset);
    let interest = interest_stats(&dataset, 20_000, args.seed);
    eprintln!("[fig1] dataset: {}", dataset.summary());
    eprintln!(
        "[fig1] calibration: mean concurrent events = {:.2} (paper: 8.1), \
         interest nonzero fraction = {:.3}, mean nonzero Jaccard = {:.3}",
        overlap.mean_concurrent, interest.nonzero_fraction, interest.mean_nonzero_interest
    );

    // --- sweeps ----------------------------------------------------------
    let mut algos = SchedulerSpec::paper_set();
    if args.ablation {
        algos.push(SchedulerSpec::GreedyHeap);
    }
    if args.localsearch {
        algos.push(SchedulerSpec::GreedyLocalSearch);
    }
    let cfg = HarnessConfig {
        algos,
        parallel: !args.serial,
        seed: args.seed,
    };
    let (k_cells, t_cells) = paper_sweeps(args.seed);

    let need_k = args.panels.iter().any(|&p| p == 'a' || p == 'b');
    let need_t = args.panels.iter().any(|&p| p == 'c' || p == 'd');

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
    for &panel in &args.panels {
        let table = match panel {
            'a' => panel_table("Fig 1a: utility vs k", &k_rows, PanelMetric::Utility),
            'b' => panel_table("Fig 1b: time vs k", &k_rows, PanelMetric::TimeMillis),
            'c' => panel_table("Fig 1c: utility vs |T|", &t_rows, PanelMetric::Utility),
            'd' => panel_table("Fig 1d: time vs |T|", &t_rows, PanelMetric::TimeMillis),
            _ => unreachable!("validated in parse_args"),
        };
        println!("{table}");
    }
    // Hardware-independent companion tables for the time panels.
    if args.panels.contains(&'b') && !k_rows.is_empty() {
        println!(
            "{}",
            panel_table(
                "Fig 1b (op counts): score evaluations vs k",
                &k_rows,
                PanelMetric::ScoreEvaluations
            )
        );
    }
    if args.panels.contains(&'d') && !t_rows.is_empty() {
        println!(
            "{}",
            panel_table(
                "Fig 1d (op counts): score evaluations vs |T|",
                &t_rows,
                PanelMetric::ScoreEvaluations
            )
        );
    }

    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, &all_rows) {
            eprintln!("fig1: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[fig1] wrote {} rows to {path}", all_rows.len());
    }
    ExitCode::SUCCESS
}
