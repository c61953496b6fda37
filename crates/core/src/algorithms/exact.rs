//! An exact branch-and-bound solver for small SES instances.
//!
//! SES is strongly NP-hard (Theorem 1), so exactness only scales to toy
//! sizes — which is precisely what a testing oracle needs: the property
//! suite verifies that every heuristic's utility is ≤ the optimum and that
//! GRD is near-optimal on random small instances.
//!
//! ## Bound
//!
//! The per-user gain of adding `r` to an interval is `g(M+µ) − g(M)` with
//! `g(x) = x/(B+x)` increasing and concave, so the marginal gain of an event
//! can only shrink as its interval fills. Hence `score(r→t | ∅)` — the score
//! against the *empty* schedule — upper-bounds `r`'s gain in any state, and
//! `max_t score(r→t | ∅)` ("solo bound") bounds it across intervals. At a
//! node with `r` slots left, the sum of the `r` largest solo bounds among
//! unprocessed events is an admissible upper bound on the remaining gain.

use crate::engine::AttendanceEngine;
use crate::ids::{EventId, IntervalId};
use crate::instance::SesInstance;
use crate::schedule::Schedule;

use super::{validate_k, RunStats, ScheduleOutcome, Scheduler, SesError};
use std::sync::Arc;
use std::time::Instant;

/// Exact branch-and-bound scheduler (testing oracle).
#[derive(Debug, Clone, Copy)]
pub struct ExactScheduler {
    /// Abort with [`SesError::ExactSearchExhausted`] after this many nodes.
    max_nodes: u64,
}

impl ExactScheduler {
    /// Creates a solver with the default node budget (2·10⁶).
    pub fn new() -> Self {
        Self {
            max_nodes: 2_000_000,
        }
    }
}

impl Default for ExactScheduler {
    fn default() -> Self {
        Self::new()
    }
}

struct Search<'e> {
    engine: &'e mut AttendanceEngine,
    /// Events in descending solo-bound order.
    order: Vec<EventId>,
    /// `cum[i]` = sum of the first `i` solo bounds in `order`.
    cum: Vec<f64>,
    intervals: Vec<IntervalId>,
    best_utility: f64,
    best_schedule: Schedule,
    nodes: u64,
    max_nodes: u64,
}

impl Search<'_> {
    /// Admissible bound on gain obtainable from `order[i..]` with `r` slots.
    fn upper_bound(&self, i: usize, r: usize) -> f64 {
        let end = (i + r).min(self.order.len());
        self.cum[end] - self.cum[i]
    }

    fn dfs(&mut self, i: usize, remaining: usize) -> Result<(), SesError> {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            return Err(SesError::ExactSearchExhausted {
                explored: self.nodes,
                budget: self.max_nodes,
            });
        }
        let current = self.engine.total_utility();
        if current > self.best_utility {
            self.best_utility = current;
            self.best_schedule = self.engine.schedule().clone();
        }
        if remaining == 0 || i == self.order.len() {
            return Ok(());
        }
        // Prune: even the optimistic completion cannot beat the incumbent.
        if current + self.upper_bound(i, remaining) <= self.best_utility {
            return Ok(());
        }
        let event = self.order[i];
        // Branch 1: place `event` somewhere feasible.
        for ti in 0..self.intervals.len() {
            let interval = self.intervals[ti];
            if self.engine.check_assignment(event, interval).is_ok() {
                self.engine
                    .assign(event, interval)
                    .expect("checked assignment must apply");
                self.dfs(i + 1, remaining - 1)?;
                self.engine
                    .unassign(event)
                    .expect("assigned event must unassign");
            }
        }
        // Branch 2: skip `event`.
        self.dfs(i + 1, remaining)
    }
}

impl Scheduler for ExactScheduler {
    fn name(&self) -> &'static str {
        "EXACT"
    }

    fn run(&self, inst: &Arc<SesInstance>, k: usize) -> Result<ScheduleOutcome, SesError> {
        validate_k(inst, k)?;
        // ses-analyze: allow(wall-clock-in-core): elapsed feeds SolveStats reporting only, never decisions
        let start = Instant::now();
        let mut engine = AttendanceEngine::new(inst);

        let intervals: Vec<IntervalId> = (0..inst.num_intervals())
            .map(|t| IntervalId::new(t as u32))
            .collect();
        // Solo bounds against the empty schedule (batch-scored per event).
        let mut solo: Vec<(EventId, f64)> = (0..inst.num_events())
            .map(|e| {
                let event = EventId::new(e as u32);
                let bound = engine.score_all(event).into_iter().fold(0.0f64, f64::max);
                (event, bound)
            })
            .collect();
        solo.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let order: Vec<EventId> = solo.iter().map(|&(e, _)| e).collect();
        let mut cum = Vec::with_capacity(order.len() + 1);
        cum.push(0.0);
        for &(_, b) in &solo {
            cum.push(cum.last().unwrap() + b);
        }

        let mut search = Search {
            best_schedule: engine.schedule().clone(),
            engine: &mut engine,
            order,
            cum,
            intervals,
            best_utility: 0.0,
            nodes: 0,
            max_nodes: self.max_nodes,
        };
        search.dfs(0, k)?;

        let best_schedule = search.best_schedule;
        let best_utility = search.best_utility;
        let nodes = search.nodes;
        let placed = best_schedule.len();
        Ok(ScheduleOutcome {
            algorithm: self.name(),
            schedule: best_schedule,
            total_utility: best_utility,
            complete: placed == k,
            stats: RunStats {
                elapsed: start.elapsed(),
                engine: engine.counters(),
                pops: nodes,
                updates: 0,
                memory: engine.memory_stats(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{GreedyHeapScheduler, GreedyScheduler, RandomScheduler, TopScheduler};
    use crate::engine::evaluate_schedule;
    use crate::testkit;
    use crate::util::float::{approx_eq, approx_ge};

    #[test]
    fn finds_feasible_optimum_of_requested_size() {
        let inst = testkit::small_instance(1);
        let out = ExactScheduler::new().run(&inst, 3).unwrap();
        assert_eq!(out.len(), 3);
        inst.check_schedule(&out.schedule).unwrap();
        let eval = evaluate_schedule(&inst, &out.schedule);
        assert!(approx_eq(out.total_utility, eval.total_utility));
    }

    #[test]
    fn dominates_every_heuristic() {
        for seed in 0..6u64 {
            let inst = testkit::small_instance(seed);
            let k = 3;
            let opt = ExactScheduler::new().run(&inst, k).unwrap().total_utility;
            for sched in [
                &GreedyScheduler::new() as &dyn Scheduler,
                &GreedyHeapScheduler::new(),
                &TopScheduler::new(),
                &RandomScheduler::new(seed),
            ] {
                let h = sched.run(&inst, k).unwrap().total_utility;
                assert!(
                    approx_ge(opt, h),
                    "seed {seed}: {} utility {} exceeds optimum {}",
                    sched.name(),
                    h,
                    opt
                );
            }
        }
    }

    #[test]
    fn matches_exhaustive_enumeration_on_tiny_instance() {
        // Brute-force all ways to place 2 of the 3 events of the hand
        // instance and compare with the solver.
        let inst = testkit::hand_instance();
        let out = ExactScheduler::new().run(&inst, 2).unwrap();
        let mut best = 0.0f64;
        for e1 in 0..3u32 {
            for e2 in 0..3u32 {
                if e1 == e2 {
                    continue;
                }
                for t1 in 0..2u32 {
                    for t2 in 0..2u32 {
                        let mut s = inst.empty_schedule();
                        s.assign(EventId::new(e1), IntervalId::new(t1)).unwrap();
                        s.assign(EventId::new(e2), IntervalId::new(t2)).unwrap();
                        if inst.check_schedule(&s).is_ok() {
                            best = best.max(evaluate_schedule(&inst, &s).total_utility);
                        }
                    }
                }
            }
        }
        assert!(
            approx_eq(out.total_utility, best),
            "solver {} vs enumeration {}",
            out.total_utility,
            best
        );
    }

    #[test]
    fn node_budget_is_enforced() {
        let inst = testkit::small_instance(0);
        let err = ExactScheduler { max_nodes: 3 }.run(&inst, 3).unwrap_err();
        assert!(matches!(err, SesError::ExactSearchExhausted { .. }));
    }

    #[test]
    fn k_zero_returns_empty_optimum() {
        let inst = testkit::small_instance(2);
        let out = ExactScheduler::new().run(&inst, 0).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.total_utility, 0.0);
        assert!(out.complete);
    }

    #[test]
    fn handles_binding_constraints() {
        let inst = testkit::single_slot_shared_location(3);
        let out = ExactScheduler::new().run(&inst, 2).unwrap();
        assert_eq!(out.len(), 1, "only one event fits");
        assert!(!out.complete);
    }
}
