//! Sweep execution: dataset → instances → scheduler runs → result rows.
//!
//! Algorithm selection goes through the core registry
//! ([`ses_core::registry`]): sweeps are configured with
//! [`SchedulerSpec`] values (parsed from CLI strings by the registry, never
//! string-matched here) and instantiated per cell with [`registry::build`].

use serde::{Deserialize, Serialize};
use ses_core::{registry, ScheduleOutcome, SchedulerSpec};
use ses_datagen::pipeline::build_instance;
use ses_datagen::sweep::SweepCell;
use ses_ebsn::EbsnDataset;
use std::sync::{Mutex, PoisonError};

/// Harness settings shared by all cells of a sweep.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Algorithms to run per cell.
    pub algos: Vec<SchedulerSpec>,
    /// Run cells on scoped threads (one per cell).
    pub parallel: bool,
    /// Seed for the stochastic schedulers.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            algos: SchedulerSpec::paper_set(),
            parallel: true,
            seed: 0,
        }
    }
}

/// One (cell × algorithm) measurement row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Sweep axis label ("k" or "|T|").
    pub axis: String,
    /// Axis value.
    pub value: f64,
    /// Algorithm display name.
    pub algorithm: String,
    /// Total utility Ω of the produced schedule.
    pub utility: f64,
    /// Wall-clock milliseconds of the scheduler run.
    pub millis: f64,
    /// Assignments placed (== k unless constraints bind).
    pub scheduled: usize,
    /// Whether all k assignments were placed.
    pub complete: bool,
    /// Eq. 4 evaluations performed.
    pub score_evaluations: u64,
    /// Posting entries visited.
    pub posting_visits: u64,
    /// Score updates performed after selections.
    pub updates: u64,
}

impl CellResult {
    fn from_outcome(cell: &SweepCell, spec: SchedulerSpec, outcome: &ScheduleOutcome) -> Self {
        Self {
            axis: cell.axis.clone(),
            value: cell.value,
            algorithm: spec.name().to_owned(),
            utility: outcome.total_utility,
            millis: outcome.stats.elapsed.as_secs_f64() * 1e3,
            scheduled: outcome.len(),
            complete: outcome.complete,
            score_evaluations: outcome.stats.engine.score_evaluations,
            posting_visits: outcome.stats.engine.posting_visits,
            updates: outcome.stats.updates,
        }
    }
}

fn run_cell(dataset: &EbsnDataset, cell: &SweepCell, cfg: &HarnessConfig) -> Vec<CellResult> {
    cfg.algos
        .iter()
        .map(|&spec| {
            // A fresh instance per algorithm: the engine index and its
            // opening sweep are cached on the instance, and each timed run
            // pays for its own, as the paper's timings do.
            let built = build_instance(dataset, &cell.config)
                .expect("dataset sized for the sweep (harness checks up front)");
            let scheduler = registry::build(spec.with_seed(cfg.seed));
            let outcome = scheduler
                .run(&built.instance, cell.config.k)
                .expect("k ≤ |E| by construction");
            CellResult::from_outcome(cell, spec, &outcome)
        })
        .collect()
}

/// Runs every cell of a sweep over the dataset, returning rows ordered by
/// (axis value, algorithm order in `cfg.algos`).
pub fn run_sweep(
    dataset: &EbsnDataset,
    cells: &[SweepCell],
    cfg: &HarnessConfig,
) -> Vec<CellResult> {
    let results: Mutex<Vec<(usize, Vec<CellResult>)>> = Mutex::new(Vec::new());
    if cfg.parallel {
        std::thread::scope(|scope| {
            for (i, cell) in cells.iter().enumerate() {
                let results = &results;
                scope.spawn(move || {
                    let rows = run_cell(dataset, cell, cfg);
                    results
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((i, rows));
                });
            }
        });
    } else {
        for (i, cell) in cells.iter().enumerate() {
            let rows = run_cell(dataset, cell, cfg);
            results
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((i, rows));
        }
    }
    let mut indexed = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().flat_map(|(_, rows)| rows).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_datagen::sweep::k_sweep;
    use ses_ebsn::{generate, GeneratorConfig};

    fn small_dataset() -> EbsnDataset {
        generate(&GeneratorConfig::default())
    }

    #[test]
    fn specs_parse_through_the_registry() {
        assert_eq!(
            "grd".parse::<SchedulerSpec>().unwrap(),
            SchedulerSpec::Greedy
        );
        assert_eq!(
            "GRD-PQ".parse::<SchedulerSpec>().unwrap(),
            SchedulerSpec::GreedyHeap
        );
        assert_eq!(
            "rand".parse::<SchedulerSpec>().unwrap(),
            SchedulerSpec::Random(0)
        );
        assert!("nope".parse::<SchedulerSpec>().is_err());
    }

    #[test]
    fn sweep_produces_rows_per_cell_and_algo() {
        let ds = small_dataset();
        let cells = k_sweep(&[10, 20], 0);
        let cfg = HarnessConfig {
            algos: vec![SchedulerSpec::Greedy, SchedulerSpec::Random(0)],
            parallel: false,
            seed: 0,
        };
        let rows = run_sweep(&ds, &cells, &cfg);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].algorithm, "GRD");
        assert_eq!(rows[0].value, 10.0);
        assert_eq!(rows[3].algorithm, "RAND");
        assert_eq!(rows[3].value, 20.0);
        assert!(rows.iter().all(|r| r.utility >= 0.0));
        assert!(rows.iter().all(|r| r.scheduled > 0));
    }

    #[test]
    fn parallel_and_serial_agree_on_deterministic_fields() {
        let ds = small_dataset();
        let cells = k_sweep(&[10, 15], 0);
        let serial = run_sweep(
            &ds,
            &cells,
            &HarnessConfig {
                parallel: false,
                ..HarnessConfig::default()
            },
        );
        let parallel = run_sweep(&ds, &cells, &HarnessConfig::default());
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!(a.value, b.value);
            assert!((a.utility - b.utility).abs() < 1e-9);
            assert_eq!(a.scheduled, b.scheduled);
        }
    }

    #[test]
    fn grd_beats_baselines_on_utility_in_sweep() {
        let ds = small_dataset();
        let cells = k_sweep(&[20], 0);
        let rows = run_sweep(&ds, &cells, &HarnessConfig::default());
        let util = |name: &str| {
            rows.iter()
                .find(|r| r.algorithm == name)
                .map(|r| r.utility)
                .unwrap()
        };
        assert!(util("GRD") >= util("TOP"));
        assert!(util("GRD") >= util("RAND"));
    }
}
