//! GRD-PQ — CELF-style lazy greedy over the engine's dirty-interval
//! generations (spec aliases: `LAZY`, `CELF`).
//!
//! Algorithm 1 keeps `L` as a flat list: each selection scans all of `L`
//! (`O(|E||T|)`) and eagerly rescores every same-interval entry. GRD-PQ
//! replaces the list with a stale-tagged max-heap of
//! `(gain, event, interval, generation)` entries and rescoring that is both
//! *lazy* and *delta-driven*:
//!
//! * the engine stamps every interval with a generation counter, advanced
//!   only when that interval's mass columns actually mutate
//!   ([`AttendanceEngine::interval_generation`]);
//! * heap entries remember the generation they were scored at;
//! * on pop, an entry is re-validated **only if its interval generation
//!   moved**: a fresh entry commits immediately, a stale one is rescored
//!   through the [`AttendanceEngine::rescore_event_at`] delta API;
//! * CELF shortcut: if the rescored entry *still* dominates the heap top
//!   (same total order, ids included), it commits directly instead of being
//!   pushed and immediately re-popped.
//!
//! A fresh entry at the top of the heap dominates every other entry's
//! *current* score (stale scores can only be over-estimates, because
//! per-interval marginal gains diminish as intervals fill — see
//! `engine.rs`), so GRD-PQ selects the same assignment as GRD at every
//! step, including float ties (both variants break ties toward smaller
//! `(event, interval)` ids). The equivalence is property-tested bit-for-bit
//! in `crates/core/tests/incremental_equivalence.rs`; the invariants are
//! written up in DESIGN.md §7 and the saved work is quantified by the A1
//! ablation and the `BENCH_engine.json` trajectory.

use crate::engine::AttendanceEngine;
use crate::ids::{EventId, IntervalId};
use crate::instance::SesInstance;

use super::{initial_scores, validate_k, RunStats, ScheduleOutcome, Scheduler, SesError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    score: f64,
    event: EventId,
    interval: IntervalId,
    /// Generation of `interval` at scoring time
    /// ([`AttendanceEngine::interval_generation`]).
    generation: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by score; tie-break on ids for determinism (and for
        // step-for-step agreement with GRD's linear-scan pop).
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.event.cmp(&self.event))
            .then_with(|| other.interval.cmp(&self.interval))
    }
}

/// CELF-style lazy greedy (same selections as GRD, bit for bit).
///
/// The `O(|E||T|·postings)` initial fill is batch-scored; the selection loop
/// then rescores lazily, one stale heap top at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyHeapScheduler;

impl GreedyHeapScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for GreedyHeapScheduler {
    fn name(&self) -> &'static str {
        "GRD-PQ"
    }

    fn run(&self, inst: &Arc<SesInstance>, k: usize) -> Result<ScheduleOutcome, SesError> {
        validate_k(inst, k)?;
        // ses-analyze: allow(wall-clock-in-core): elapsed feeds SolveStats reporting only, never decisions
        let start = Instant::now();
        let mut engine = AttendanceEngine::new(inst);
        let mut pops = 0u64;
        let mut updates = 0u64;

        // The initial fill reads frozen engine state, so every entry is
        // valid at its interval's *current* generation (all zero on a fresh
        // engine, but tagging through the engine keeps this correct even if
        // construction semantics ever change).
        let mut heap: BinaryHeap<HeapEntry> = initial_scores(&mut engine)
            .into_iter()
            .map(|(event, interval, score)| HeapEntry {
                score,
                event,
                interval,
                generation: engine.interval_generation(interval),
            })
            .collect();

        let mut select_span = ses_obs::span(ses_obs::Stage::Select);
        let counters_at_select = engine.counters();
        while engine.schedule().len() < k {
            let Some(mut entry) = heap.pop() else {
                break;
            };
            pops += 1;
            if engine
                .check_assignment(entry.event, entry.interval)
                .is_err()
            {
                continue; // invalid entries are dropped, never rescored
            }
            if entry.generation < engine.interval_generation(entry.interval) {
                // Stale: one delta rescore against the current columns.
                updates += 1;
                let (score, generation) = engine.rescore_event_at(entry.event, entry.interval);
                entry.score = score;
                entry.generation = generation;
                // CELF shortcut: if the fresh value still dominates the heap
                // top (total order, ids included), pushing it back would
                // only have it popped right again — commit directly.
                if heap.peek().is_some_and(|top| entry < *top) {
                    heap.push(entry);
                    continue;
                }
            }
            engine
                .assign(entry.event, entry.interval)
                .expect("checked assignment must apply");
        }
        select_span.set_ops(engine.counters().delta_since(counters_at_select).as_ops());
        select_span.set_aux(pops, updates);
        drop(select_span);

        let placed = engine.schedule().len();
        Ok(ScheduleOutcome {
            algorithm: self.name(),
            total_utility: engine.total_utility(),
            complete: placed == k,
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
    use crate::algorithms::GreedyScheduler;
    use crate::testkit;

    #[test]
    fn matches_list_greedy_utility() {
        for seed in 0..10u64 {
            let inst = testkit::medium_instance(seed);
            let a = GreedyScheduler::new().run(&inst, 6).unwrap();
            let b = GreedyHeapScheduler::new().run(&inst, 6).unwrap();
            assert_eq!(
                a.total_utility.to_bits(),
                b.total_utility.to_bits(),
                "seed {seed}: GRD {} vs GRD-PQ {}",
                a.total_utility,
                b.total_utility
            );
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn matches_list_greedy_schedule_bit_for_bit() {
        // The CELF conversion must not perturb selections: same schedule,
        // same Ω bits as the eager list greedy (the property suite widens
        // this across random instances).
        for seed in 0..10u64 {
            let inst = testkit::medium_instance(seed);
            let a = GreedyScheduler::new().run(&inst, 8).unwrap();
            let b = GreedyHeapScheduler::new().run(&inst, 8).unwrap();
            assert_eq!(a.schedule, b.schedule, "seed {seed}");
            assert_eq!(a.total_utility.to_bits(), b.total_utility.to_bits());
        }
    }

    #[test]
    fn produces_feasible_schedules() {
        let inst = testkit::medium_instance(123);
        let out = GreedyHeapScheduler::new().run(&inst, 8).unwrap();
        inst.check_schedule(&out.schedule).unwrap();
        assert!(out.complete);
    }

    #[test]
    fn performs_fewer_score_updates_than_eager_greedy() {
        // Lazy rescoring should not do *more* update work than the eager
        // same-interval pass on a non-trivial run.
        let inst = testkit::medium_instance(5);
        let a = GreedyScheduler::new().run(&inst, 10).unwrap();
        let b = GreedyHeapScheduler::new().run(&inst, 10).unwrap();
        assert!(
            b.stats.updates <= a.stats.updates,
            "lazy updates {} > eager updates {}",
            b.stats.updates,
            a.stats.updates
        );
        assert!(
            b.stats.engine.score_evaluations <= a.stats.engine.score_evaluations,
            "lazy evals {} > eager evals {}",
            b.stats.engine.score_evaluations,
            a.stats.engine.score_evaluations
        );
    }

    #[test]
    fn rejects_invalid_k() {
        let inst = testkit::small_instance(0);
        assert!(GreedyHeapScheduler::new().run(&inst, 99).is_err());
    }

    #[test]
    fn incomplete_when_constraints_bind() {
        let inst = testkit::single_slot_shared_location(5);
        let out = GreedyHeapScheduler::new().run(&inst, 4).unwrap();
        assert_eq!(out.len(), 1);
        assert!(!out.complete);
    }
}
