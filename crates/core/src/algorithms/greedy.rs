//! GRD — the paper's greedy algorithm (Algorithm 1), implemented faithfully:
//! an explicit assignment list `L`, a linear-scan `popTopAssgn`, and an eager
//! same-interval update pass after every selection.
//!
//! For a structurally faster variant with identical output quality see
//! [`GreedyHeapScheduler`](crate::algorithms::GreedyHeapScheduler); the two
//! are compared in the `algorithms` ablation bench (DESIGN.md, A1).

use crate::engine::AttendanceEngine;
use crate::ids::{EventId, IntervalId};
use crate::instance::SesInstance;
use crate::util::float::total_cmp;

use super::{initial_scores, validate_k};
use super::{RunStats, ScheduleOutcome, Scheduler, SesError};
use std::sync::Arc;
use std::time::Instant;

/// One entry of the assignment list `L`.
#[derive(Debug, Clone, Copy)]
struct ListEntry {
    event: EventId,
    interval: IntervalId,
    score: f64,
}

/// The paper's GRD (Algorithm 1).
///
/// * Line 2–4: score every `(e, t) ∈ E × T` pair and insert into `L`.
/// * Line 5–8: repeatedly pop the top-score assignment; if it is *valid*
///   (feasible and the event not yet scheduled) commit it.
/// * Line 9–13: after a commit, rescore the surviving entries of every
///   *dirty* interval — the engine's generation counters name exactly the
///   intervals whose mass columns moved (offline: the selected interval) —
///   and drop entries that became invalid. Entries at clean intervals keep
///   their bit-exact scores untouched.
///
/// Worst-case cost `O(|E||T||U| + k|E||T| + k|E||U|)` exactly as analysed in
/// §III; space `O(|E||T|)`.
///
/// Both scoring sweeps — the initial fill and the per-commit interval
/// rescoring — go through the engine's batch API.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyScheduler;

impl GreedyScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for GreedyScheduler {
    fn name(&self) -> &'static str {
        "GRD"
    }

    fn run(&self, inst: &Arc<SesInstance>, k: usize) -> Result<ScheduleOutcome, SesError> {
        validate_k(inst, k)?;
        // ses-analyze: allow(wall-clock-in-core): elapsed feeds SolveStats reporting only, never decisions
        let start = Instant::now();
        let mut engine = AttendanceEngine::new(inst);
        let mut pops = 0u64;
        let mut updates = 0u64;

        // Lines 2–4: generate all assignments (batch-scored).
        let mut list: Vec<ListEntry> = initial_scores(&mut engine)
            .into_iter()
            .map(|(event, interval, score)| ListEntry {
                event,
                interval,
                score,
            })
            .collect();
        // Every list entry is fresh as of this clock snapshot; after each
        // commit the engine tells us exactly which intervals' columns moved.
        let mut last_clock = engine.clock();

        let mut select_span = ses_obs::span(ses_obs::Stage::Select);
        let counters_at_select = engine.counters();

        // Lines 5–13: select k assignments.
        while engine.schedule().len() < k {
            // popTopAssgn: linear scan for the max, then O(1) removal.
            // Ties (common: an event scores identically on all empty
            // intervals with equal competing mass) are broken toward the
            // smallest (event, interval) ids — the same rule GRD-PQ uses, so
            // the two variants stay step-for-step identical.
            let Some(top_idx) = list
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    total_cmp(a.score, b.score)
                        .then_with(|| b.event.cmp(&a.event))
                        .then_with(|| b.interval.cmp(&a.interval))
                })
                .map(|(i, _)| i)
            else {
                break; // L exhausted — cannot place k assignments.
            };
            let top = list.swap_remove(top_idx);
            pops += 1;

            if engine.check_assignment(top.event, top.interval).is_err() {
                continue; // line 7: popped assignment not valid — discard.
            }
            engine
                .assign(top.event, top.interval)
                .expect("checked assignment must apply");

            if engine.schedule().len() < k {
                // Lines 10–13: drop entries that became invalid — only those
                // of the committed event or interval can have — then rescore
                // only the *dirty* intervals' surviving frontiers — the
                // engine's generation counters name exactly the intervals
                // whose columns moved since the last rescan (offline that is
                // the selected interval, or nothing at all when the committed
                // event moved no mass), so every other entry's score is still
                // bit-exact.
                let mut i = 0;
                while i < list.len() {
                    let entry = list[i];
                    if (entry.event == top.event || entry.interval == top.interval)
                        && engine
                            .check_assignment(entry.event, entry.interval)
                            .is_err()
                    {
                        list.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
                for dirty in engine.dirty_intervals(last_clock) {
                    let idxs: Vec<usize> = (0..list.len())
                        .filter(|&i| list[i].interval == dirty)
                        .collect();
                    let events: Vec<EventId> = idxs.iter().map(|&i| list[i].event).collect();
                    let scores = engine.score_frontier(&events, dirty);
                    for (&i, score) in idxs.iter().zip(scores) {
                        list[i].score = score;
                    }
                    updates += idxs.len() as u64;
                }
                last_clock = engine.clock();
            }
        }
        select_span.set_ops(engine.counters().delta_since(counters_at_select).as_ops());
        select_span.set_aux(pops, updates);
        drop(select_span);

        let requested = k;
        let placed = engine.schedule().len();
        Ok(ScheduleOutcome {
            algorithm: self.name(),
            total_utility: engine.total_utility(),
            complete: placed == requested,
            stats: RunStats {
                elapsed: start.elapsed(),
                engine: engine.counters(),
                pops,
                updates,
                memory: engine.memory_stats(),
            },
            schedule: engine.into_schedule(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use crate::testkit::evaluate_schedule;
    use crate::util::float::approx_eq;

    #[test]
    fn schedules_exactly_k_when_feasible() {
        let inst = testkit::medium_instance(42);
        let out = GreedyScheduler::new().run(&inst, 5).unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.complete);
        inst.check_schedule(&out.schedule).unwrap();
    }

    #[test]
    fn reported_utility_matches_reference_evaluation() {
        let inst = testkit::medium_instance(7);
        let out = GreedyScheduler::new().run(&inst, 6).unwrap();
        let eval = evaluate_schedule(&inst, &out.schedule);
        assert_eq!(
            out.total_utility.to_bits(),
            eval.total_utility.to_bits(),
            "{} vs {}",
            out.total_utility,
            eval.total_utility
        );
    }

    #[test]
    fn rejects_k_larger_than_event_count() {
        let inst = testkit::medium_instance(1);
        let err = GreedyScheduler::new().run(&inst, 1000).unwrap_err();
        assert!(matches!(err, SesError::InvalidK { .. }));
    }

    #[test]
    fn k_zero_yields_empty_schedule() {
        let inst = testkit::medium_instance(3);
        let out = GreedyScheduler::new().run(&inst, 0).unwrap();
        assert!(out.is_empty());
        assert!(out.complete);
        assert_eq!(out.total_utility, 0.0);
    }

    #[test]
    fn first_pick_is_globally_best_initial_assignment() {
        // By construction the first greedy pick must have the maximum
        // initial score among all valid (event, interval) pairs.
        let inst = testkit::medium_instance(11);
        let mut engine = AttendanceEngine::new(&inst);
        let mut best = f64::NEG_INFINITY;
        for e in 0..inst.num_events() {
            for t in 0..inst.num_intervals() {
                let (ev, iv) = (EventId::new(e as u32), IntervalId::new(t as u32));
                if engine.is_valid(ev, iv) {
                    best = best.max(engine.score(ev, iv));
                }
            }
        }
        let out = GreedyScheduler::new().run(&inst, 1).unwrap();
        assert!(
            approx_eq(out.total_utility, best),
            "greedy first pick {} vs best initial score {}",
            out.total_utility,
            best
        );
    }

    #[test]
    fn incomplete_when_constraints_bind() {
        // One interval, one location shared by every event: only one event
        // can ever be placed.
        let inst = testkit::single_slot_shared_location(4);
        let out = GreedyScheduler::new().run(&inst, 3).unwrap();
        assert_eq!(out.len(), 1);
        assert!(!out.complete);
        inst.check_schedule(&out.schedule).unwrap();
    }

    #[test]
    fn stats_are_populated() {
        let inst = testkit::medium_instance(5);
        let out = GreedyScheduler::new().run(&inst, 4).unwrap();
        assert!(out.stats.pops >= 4);
        assert!(out.stats.engine.score_evaluations > 0);
        // Initial scoring alone is |E|·|T| evaluations.
        assert!(
            out.stats.engine.score_evaluations >= (inst.num_events() * inst.num_intervals()) as u64
        );
    }
}
