//! RAND — the second baseline of §IV: assign events to intervals at random,
//! keeping only feasible assignments, until `k` events are placed.

use crate::engine::AttendanceEngine;
use crate::ids::{EventId, IntervalId};
use crate::instance::SesInstance;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{validate_k, RunStats, ScheduleOutcome, Scheduler, SesError};
use std::sync::Arc;
use std::time::Instant;

/// The RAND baseline. Deterministic for a given seed.
#[derive(Debug, Clone, Copy)]
pub struct RandomScheduler {
    seed: u64,
}

impl RandomScheduler {
    /// Creates the scheduler with an explicit RNG seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for RandomScheduler {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "RAND"
    }

    fn run(&self, inst: &Arc<SesInstance>, k: usize) -> Result<ScheduleOutcome, SesError> {
        validate_k(inst, k)?;
        // ses-analyze: allow(wall-clock-in-core): elapsed feeds SolveStats reporting only, never decisions
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut engine = AttendanceEngine::new(inst);
        let mut pops = 0u64;

        let mut events: Vec<EventId> = (0..inst.num_events())
            .map(|e| EventId::new(e as u32))
            .collect();
        events.shuffle(&mut rng);
        let mut intervals: Vec<IntervalId> = (0..inst.num_intervals())
            .map(|t| IntervalId::new(t as u32))
            .collect();

        for event in events {
            if engine.schedule().len() >= k {
                break;
            }
            intervals.shuffle(&mut rng);
            for &interval in &intervals {
                pops += 1;
                if engine.check_assignment(event, interval).is_ok() {
                    engine
                        .assign(event, interval)
                        .expect("checked assignment must apply");
                    break;
                }
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
                updates: 0,
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

    #[test]
    fn schedules_k_feasibly() {
        let inst = testkit::medium_instance(42);
        let out = RandomScheduler::new(1).run(&inst, 6).unwrap();
        assert_eq!(out.len(), 6);
        inst.check_schedule(&out.schedule).unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = testkit::medium_instance(42);
        let a = RandomScheduler::new(5).run(&inst, 6).unwrap();
        let b = RandomScheduler::new(5).run(&inst, 6).unwrap();
        assert_eq!(a.schedule, b.schedule);
        let c = RandomScheduler::new(6).run(&inst, 6).unwrap();
        // Different seeds will almost surely differ on this instance.
        assert_ne!(a.schedule, c.schedule);
    }

    #[test]
    fn utility_matches_reference() {
        let inst = testkit::medium_instance(2);
        let out = RandomScheduler::new(9).run(&inst, 5).unwrap();
        let eval = evaluate_schedule(&inst, &out.schedule);
        assert_eq!(out.total_utility.to_bits(), eval.total_utility.to_bits());
    }

    #[test]
    fn respects_binding_constraints() {
        let inst = testkit::single_slot_shared_location(5);
        let out = RandomScheduler::new(0).run(&inst, 5).unwrap();
        assert_eq!(out.len(), 1);
        assert!(!out.complete);
    }
}
