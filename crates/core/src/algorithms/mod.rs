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

/// Scores every `(event, interval)` pair against the engine's current state
/// — the `O(|E||T|·postings)` sweep that opens GRD, GRD-PQ and TOP — as
/// rows in `(event, interval)` order.
///
/// On an engine at clock 0 the scores come from the instance's shared
/// index ([`AttendanceEngine::score_every_pair`]): only the first such
/// sweep per instance computes them. The counters advance by the sweep's
/// full cost either way, and the `sweep` span's `aux_b` is 1 when the
/// index served it.
pub(crate) fn initial_scores(engine: &mut AttendanceEngine) -> Vec<(EventId, IntervalId, f64)> {
    let mut sweep = ses_obs::span(ses_obs::Stage::Sweep);
    let counters_before = engine.counters();
    let nt = engine.instance().num_intervals();
    let (scores, served) = engine.score_every_pair();
    let rows: Vec<_> = scores
        .iter()
        .enumerate()
        .map(|(i, &score)| {
            let (e, t) = (i / nt, i % nt);
            (EventId::new(e as u32), IntervalId::new(t as u32), score)
        })
        .collect();
    sweep.set_ops(engine.counters().delta_since(counters_before).as_ops());
    sweep.set_aux(rows.len() as u64, u64::from(served));
    rows
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
