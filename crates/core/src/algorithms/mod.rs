//! Scheduling algorithms: the paper's greedy (GRD, Algorithm 1), the TOP and
//! RAND baselines of §IV, plus an exact branch-and-bound oracle and a
//! local-search post-optimizer as extensions.

pub mod annealing;
pub mod exact;
pub mod greedy;
pub mod greedy_heap;
pub mod local_search;
pub mod random;
pub mod top;

pub use annealing::{AnnealingConfig, AnnealingScheduler};
pub use exact::ExactScheduler;
pub use greedy::GreedyScheduler;
pub use greedy_heap::GreedyHeapScheduler;
pub use local_search::{LocalSearchConfig, LocalSearchScheduler};
pub use random::RandomScheduler;
pub use top::TopScheduler;

use crate::engine::{AttendanceEngine, EngineCounters, EngineMemoryStats};
use crate::ids::{EventId, IntervalId};
use crate::instance::SesInstance;
use crate::schedule::Schedule;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Errors returned by schedulers.
#[derive(Debug, Clone, PartialEq)]
pub enum SesError {
    /// `k` exceeds the number of candidate events (no schedule of size `k`
    /// can exist).
    InvalidK {
        /// Requested number of events.
        k: usize,
        /// Available candidate events.
        num_events: usize,
    },
    /// The exact solver refused the instance (search space too large) or ran
    /// out of its node budget.
    ExactSearchExhausted {
        /// Nodes explored before giving up.
        explored: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for SesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SesError::InvalidK { k, num_events } => {
                write!(
                    f,
                    "k = {k} exceeds the number of candidate events ({num_events})"
                )
            }
            SesError::ExactSearchExhausted { explored, budget } => write!(
                f,
                "exact search exceeded its node budget ({explored} explored, budget {budget})"
            ),
        }
    }
}

impl std::error::Error for SesError {}

/// Wall-clock and operation-count statistics of a scheduler run.
///
/// Operation counts are hardware-independent and are what the complexity
/// analysis in the paper's §III predicts; the figure harness reports both.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Engine counters (score evaluations, posting visits, assigns).
    pub engine: EngineCounters,
    /// Assignments popped/considered from the candidate structure.
    pub pops: u64,
    /// Score *updates* performed after selections (GRD's inner loop).
    pub updates: u64,
    /// Resident-memory/build accounting of the run's engine (blocked column
    /// layout — see [`EngineMemoryStats`]).
    pub memory: EngineMemoryStats,
}

/// The result of a scheduler run.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Which scheduler produced this (for reports).
    pub algorithm: &'static str,
    /// The produced feasible schedule.
    pub schedule: Schedule,
    /// Total utility `Ω` of the schedule (Eq. 3).
    pub total_utility: f64,
    /// Whether all `k` requested assignments were placed. `false` means the
    /// instance ran out of valid assignments first (the schedule is still
    /// feasible, just smaller).
    pub complete: bool,
    /// Run statistics.
    pub stats: RunStats,
}

impl ScheduleOutcome {
    /// Number of assignments actually placed.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }
}

/// A SES scheduling algorithm: given an instance and `k`, produce a feasible
/// schedule with (up to) `k` assignments.
///
/// Instances are passed as shared handles so an algorithm can build owned
/// [`AttendanceEngine`]s; see the engine
/// docs for the ownership model. Prefer instantiating schedulers through
/// [`crate::registry`] rather than matching on name strings.
pub trait Scheduler {
    /// Short stable name used in reports and figures (e.g. `"GRD"`).
    fn name(&self) -> &'static str;

    /// Runs the algorithm.
    fn run(&self, inst: &Arc<SesInstance>, k: usize) -> Result<ScheduleOutcome, SesError>;
}

/// Hard ceiling on scoring shards, wherever the `threads` knob came from
/// (CLI flag, wire request). More shards than cores only adds spawn
/// overhead, and a hostile `threads: 1_000_000` request must not translate
/// into a million `scope.spawn` calls; generous headroom over the core
/// count is kept so oversubscription can still be benchmarked deliberately.
pub(crate) fn clamp_threads(threads: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads.clamp(1, (4 * cores).max(16))
}

/// Scores every `(event, interval)` pair against the engine's current state
/// — the `O(|E||T|·postings)` sweep that opens GRD, GRD-PQ and TOP —
/// sharding *intervals* across up to `threads` scoped threads.
///
/// The sweep is interval-major on purpose: one interval's columnar block
/// (`B`/`M`/`σ` slices, tens of KB) stays cache-resident while every event
/// scores against it, instead of re-streaming all `|T|` blocks per event —
/// an order-of-magnitude cut in memory traffic at Fig. 1 scale.
///
/// Rows come back in `(event, interval)` order regardless of sharding, and
/// every score is computed from the same (frozen) engine state, so the
/// result is bit-identical to the serial sweep; per-shard [`EngineCounters`]
/// are merged back into the engine when the threads join.
pub(crate) fn initial_scores(
    engine: &mut AttendanceEngine,
    threads: usize,
) -> Vec<(EventId, IntervalId, f64)> {
    let mut sweep = ses_obs::span(ses_obs::Stage::Sweep);
    let counters_before = engine.counters();
    let threads = clamp_threads(threads);
    let ne = engine.instance().num_events();
    let nt = engine.instance().num_intervals();
    let all_events: Vec<EventId> = (0..ne).map(|e| EventId::new(e as u32)).collect();
    // `columns[t][e]` = score(e → t); filled interval-major, emitted
    // event-major.
    let columns: Vec<Vec<f64>> = if threads <= 1 || nt < 2 {
        (0..nt)
            .map(|t| engine.score_frontier(&all_events, IntervalId::new(t as u32)))
            .collect()
    } else {
        let shards = threads.min(nt);
        // Contiguous interval ranges balanced by *column length* (each
        // interval's share of the layout's nnz, +1 so empty columns still
        // bill their loop iteration) instead of uniform width: under the
        // blocked layout an interval's scoring cost is proportional to its
        // resident column, and skewed activity patterns would leave
        // uniform-width shards mostly idle. Shard boundaries only decide
        // *who* computes a row, never its inputs, so results stay
        // bit-identical to the serial sweep.
        let weights: Vec<u64> = (0..nt)
            .map(|t| engine.column_len(IntervalId::new(t as u32)) as u64 + 1)
            .collect();
        let total: u64 = weights.iter().sum();
        let mut bounds: Vec<usize> = Vec::with_capacity(shards + 1);
        bounds.push(0);
        let mut cum = 0u64;
        for (t, &w) in weights.iter().enumerate() {
            cum += w;
            // Cut after interval `t` each time the running mass crosses the
            // next multiple of total/shards (integer-exact comparison).
            while bounds.len() < shards && cum * shards as u64 >= total * bounds.len() as u64 {
                bounds.push(t + 1);
            }
        }
        while bounds.len() <= shards {
            bounds.push(nt);
        }
        let frozen: &AttendanceEngine = engine;
        let all_events = &all_events;
        let bounds = &bounds;
        let shard_results: Vec<(Vec<Vec<f64>>, EngineCounters)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let (lo, hi) = (bounds[s], bounds[s + 1]);
                    scope.spawn(move || {
                        let mut counters = EngineCounters::default();
                        let cols: Vec<Vec<f64>> = (lo..hi)
                            .map(|t| {
                                frozen.score_frontier_with(
                                    all_events,
                                    IntervalId::new(t as u32),
                                    &mut counters,
                                )
                            })
                            .collect();
                        (cols, counters)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scoring shard panicked"))
                .collect()
        });
        let mut columns = Vec::with_capacity(nt);
        for (cols, counters) in shard_results {
            columns.extend(cols);
            engine.merge_counters(counters);
        }
        columns
    };
    let mut rows = Vec::with_capacity(ne * nt);
    for (e, &event) in all_events.iter().enumerate() {
        for (t, column) in columns.iter().enumerate() {
            rows.push((event, IntervalId::new(t as u32), column[e]));
        }
    }
    sweep.set_ops(engine.counters().delta_since(counters_before).as_ops());
    sweep.set_aux(rows.len() as u64, threads as u64);
    rows
}

/// Rescores `events` against one interval — GRD's update pass after a commit
/// — sharding the frontier across up to `threads` scoped threads. Results
/// are parallel to `events` and bit-identical to the serial pass; shard
/// counters are merged back into the engine.
pub(crate) fn frontier_scores(
    engine: &mut AttendanceEngine,
    events: &[EventId],
    interval: IntervalId,
    threads: usize,
) -> Vec<f64> {
    let threads = clamp_threads(threads);
    if threads <= 1 || events.len() < 2 {
        return engine.score_frontier(events, interval);
    }
    let shards = threads.min(events.len());
    let chunk = events.len().div_ceil(shards);
    let frozen: &AttendanceEngine = engine;
    let shard_results: Vec<(Vec<f64>, EngineCounters)> = std::thread::scope(|scope| {
        let handles: Vec<_> = events
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut counters = EngineCounters::default();
                    let scores = frozen.score_frontier_with(part, interval, &mut counters);
                    (scores, counters)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scoring shard panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(events.len());
    for (scores, counters) in shard_results {
        out.extend(scores);
        engine.merge_counters(counters);
    }
    out
}

pub(crate) fn validate_k(inst: &SesInstance, k: usize) -> Result<(), SesError> {
    if k > inst.num_events() {
        Err(SesError::InvalidK {
            k,
            num_events: inst.num_events(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SesError::InvalidK {
            k: 5,
            num_events: 3,
        };
        assert!(e.to_string().contains("k = 5"));
        let e = SesError::ExactSearchExhausted {
            explored: 10,
            budget: 10,
        };
        assert!(e.to_string().contains("budget"));
    }
}
