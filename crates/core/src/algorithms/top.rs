//! TOP — the first baseline of §IV: compute the initial assignment scores
//! once, then take the top-k valid assignments without ever rescoring.
//!
//! TOP is fast (no update phase) but ignores cannibalization: assignments
//! that looked good on an empty schedule keep their stale scores as the
//! schedule fills, which is exactly why the paper reports "considerably low
//! utility scores in all cases" for it (Fig. 1a/1c).

use crate::engine::AttendanceEngine;
use crate::ids::{EventId, IntervalId};
use crate::instance::SesInstance;
use crate::util::float::total_cmp;

use super::{initial_scores, validate_k, RunStats, ScheduleOutcome, Scheduler, SesError};
use std::sync::Arc;
use std::time::Instant;

/// The TOP baseline.
///
/// Its single scoring sweep is batch-scored. TOP deliberately ignores the
/// engine's dirty-interval generations: never rescoring is the whole point
/// of the baseline, so there is nothing for the delta APIs to save.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopScheduler;

impl TopScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for TopScheduler {
    fn name(&self) -> &'static str {
        "TOP"
    }

    fn run(&self, inst: &Arc<SesInstance>, k: usize) -> Result<ScheduleOutcome, SesError> {
        validate_k(inst, k)?;
        // ses-analyze: allow(wall-clock-in-core): elapsed feeds SolveStats reporting only, never decisions
        let start = Instant::now();
        let mut engine = AttendanceEngine::new(inst);
        let mut pops = 0u64;

        // Score every pair once, against the empty schedule.
        let mut scored: Vec<(f64, EventId, IntervalId)> = initial_scores(&mut engine)
            .into_iter()
            .map(|(event, interval, score)| (score, event, interval))
            .collect();
        // Descending by initial score; ids tie-break for determinism.
        scored.sort_unstable_by(|a, b| {
            total_cmp(b.0, a.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });

        for &(_, event, interval) in &scored {
            if engine.schedule().len() >= k {
                break;
            }
            pops += 1;
            if engine.check_assignment(event, interval).is_ok() {
                engine
                    .assign(event, interval)
                    .expect("checked assignment must apply");
            }
        }

        let placed = engine.schedule().len();
        Ok(ScheduleOutcome {
            algorithm: self.name(),
            total_utility: engine.total_utility(),
            complete: placed == k,
            stats: RunStats {
                elapsed: start.elapsed(),
                engine: engine.counters(),
                pops,
                updates: 0, // TOP never updates scores — the point of the baseline
                memory: engine.memory_stats(),
            },
            schedule: engine.into_schedule(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::GreedyScheduler;
    use crate::testkit;
    use crate::testkit::evaluate_schedule;

    #[test]
    fn schedules_k_and_is_feasible() {
        let inst = testkit::medium_instance(42);
        let out = TopScheduler::new().run(&inst, 6).unwrap();
        assert_eq!(out.len(), 6);
        inst.check_schedule(&out.schedule).unwrap();
    }

    #[test]
    fn utility_matches_reference() {
        let inst = testkit::medium_instance(8);
        let out = TopScheduler::new().run(&inst, 5).unwrap();
        let eval = evaluate_schedule(&inst, &out.schedule);
        assert_eq!(out.total_utility.to_bits(), eval.total_utility.to_bits());
    }

    #[test]
    fn performs_no_updates() {
        let inst = testkit::medium_instance(3);
        let out = TopScheduler::new().run(&inst, 5).unwrap();
        assert_eq!(out.stats.updates, 0);
    }

    #[test]
    fn greedy_dominates_top_on_average() {
        // Not guaranteed per instance, but over a handful of seeds the mean
        // utility of GRD must exceed TOP's (the paper's headline result).
        let (mut grd_sum, mut top_sum) = (0.0, 0.0);
        for seed in 0..8u64 {
            let inst = testkit::medium_instance(seed);
            grd_sum += GreedyScheduler::new().run(&inst, 6).unwrap().total_utility;
            top_sum += TopScheduler::new().run(&inst, 6).unwrap().total_utility;
        }
        assert!(
            grd_sum > top_sum,
            "GRD mean {} should beat TOP mean {}",
            grd_sum / 8.0,
            top_sum / 8.0
        );
    }

    #[test]
    fn k_zero_is_empty() {
        let inst = testkit::small_instance(0);
        let out = TopScheduler::new().run(&inst, 0).unwrap();
        assert!(out.is_empty());
    }
}
