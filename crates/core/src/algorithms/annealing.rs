//! Simulated-annealing scheduler (extension beyond the paper).
//!
//! Hill-climbing local search stops at the first local optimum; annealing
//! occasionally accepts worsening moves with probability
//! `exp(Δ / temperature)` and cools geometrically, which lets it cross
//! utility valleys (e.g. vacate a popular interval to re-pack it better).
//! `ses quality` (ablation A4) reports it as an upper-effort reference
//! point between GRD+LS and the exact solver.

use crate::engine::AttendanceEngine;
use crate::ids::{EventId, IntervalId};
use crate::instance::SesInstance;
use crate::schedule::Schedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{RunStats, ScheduleOutcome, Scheduler, SesError};
use std::sync::Arc;
use std::time::Instant;

/// Annealing parameters.
#[derive(Debug, Clone, Copy)]
pub struct AnnealingConfig {
    /// Starting temperature, as a fraction of the initial utility
    /// (`T₀ = initial_temperature · max(Ω₀, 1)`).
    pub initial_temperature: f64,
    /// Geometric cooling factor per iteration (`T ← T · cooling`).
    pub cooling: f64,
    /// Total iterations.
    pub iterations: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        Self {
            initial_temperature: 0.05,
            cooling: 0.999,
            iterations: 20_000,
            seed: 0,
        }
    }
}

/// Simulated annealing on top of a base scheduler's solution.
#[derive(Debug, Clone)]
pub struct AnnealingScheduler<S> {
    base: S,
    config: AnnealingConfig,
}

impl<S: Scheduler> AnnealingScheduler<S> {
    /// Wraps `base` with default annealing parameters.
    pub fn new(base: S) -> Self {
        Self {
            base,
            config: AnnealingConfig::default(),
        }
    }

    /// Wraps `base` with explicit parameters.
    pub fn with_config(base: S, config: AnnealingConfig) -> Self {
        Self { base, config }
    }

    /// The walk from `engine`'s schedule; `observe` sees the engine after
    /// every tentative move and every revert. Moves are judged on the
    /// engine's running [`AttendanceEngine::gain_sum`]. Returns the best
    /// schedule seen, its Ω, and the moves tried and accepted.
    fn anneal(
        &self,
        engine: &mut AttendanceEngine,
        observe: &mut impl FnMut(&AttendanceEngine),
    ) -> (Schedule, f64, u64, u64) {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut best_utility = engine.gain_sum();
        let mut best_omega = engine.total_utility();
        let mut best_schedule: Schedule = engine.schedule().clone();
        let mut temperature = self.config.initial_temperature * best_utility.max(1.0);
        let mut moves_tried = 0u64;
        let mut moves_accepted = 0u64;

        let num_events = engine.instance().num_events();
        let num_intervals = engine.instance().num_intervals();
        for _ in 0..self.config.iterations {
            temperature *= self.config.cooling;
            let scheduled = engine.schedule().scheduled_events();
            if scheduled.is_empty() || num_intervals < 2 {
                break;
            }
            // Propose: 60% relocate, 40% swap (when unscheduled events exist).
            let relocate = scheduled.len() == num_events || rng.gen_bool(0.6);
            let proposal = if relocate {
                let event = scheduled[rng.gen_range(0..scheduled.len())];
                let from = engine.schedule().interval_of(event).expect("scheduled");
                let to = IntervalId::new(rng.gen_range(0..num_intervals) as u32);
                if to == from {
                    continue;
                }
                Move::Relocate { event, from, to }
            } else {
                let out_event = scheduled[rng.gen_range(0..scheduled.len())];
                let out_interval = engine.schedule().interval_of(out_event).expect("scheduled");
                let in_event = EventId::new(rng.gen_range(0..num_events) as u32);
                if engine.schedule().contains(in_event) {
                    continue;
                }
                let in_interval = IntervalId::new(rng.gen_range(0..num_intervals) as u32);
                Move::Swap {
                    out_event,
                    out_interval,
                    in_event,
                    in_interval,
                }
            };
            moves_tried += 1;

            // Apply tentatively, measuring the exact Δ from the engine.
            let before = engine.gain_sum();
            let applied = match proposal {
                Move::Relocate { event, from, to } => {
                    engine.unassign(event).expect("scheduled");
                    if engine.assign(event, to).is_ok() {
                        Some(Move::Relocate { event, from, to })
                    } else {
                        engine.assign(event, from).expect("home slot was vacated");
                        None
                    }
                }
                Move::Swap {
                    out_event,
                    out_interval,
                    in_event,
                    in_interval,
                } => {
                    engine.unassign(out_event).expect("scheduled");
                    if engine.assign(in_event, in_interval).is_ok() {
                        Some(Move::Swap {
                            out_event,
                            out_interval,
                            in_event,
                            in_interval,
                        })
                    } else {
                        engine
                            .assign(out_event, out_interval)
                            .expect("home slot was vacated");
                        None
                    }
                }
            };
            observe(engine);
            let Some(applied) = applied else { continue };
            let delta = engine.gain_sum() - before;
            let accept = delta >= 0.0
                || (temperature > 0.0 && rng.gen_bool((delta / temperature).exp().clamp(0.0, 1.0)));
            if accept {
                moves_accepted += 1;
                if engine.gain_sum() > best_utility {
                    best_utility = engine.gain_sum();
                    best_omega = engine.total_utility();
                    best_schedule = engine.schedule().clone();
                }
            } else {
                // Revert.
                match applied {
                    Move::Relocate { event, from, .. } => {
                        engine.unassign(event).expect("just assigned");
                        engine.assign(event, from).expect("home slot is free");
                    }
                    Move::Swap {
                        out_event,
                        out_interval,
                        in_event,
                        ..
                    } => {
                        engine.unassign(in_event).expect("just assigned");
                        engine
                            .assign(out_event, out_interval)
                            .expect("home slot is free");
                    }
                }
                observe(engine);
            }
        }
        (best_schedule, best_omega, moves_tried, moves_accepted)
    }
}

/// One candidate move, applied tentatively to the engine.
enum Move {
    /// Move a scheduled event to another interval.
    Relocate {
        event: EventId,
        from: IntervalId,
        to: IntervalId,
    },
    /// Swap a scheduled event out for an unscheduled one.
    Swap {
        out_event: EventId,
        out_interval: IntervalId,
        in_event: EventId,
        in_interval: IntervalId,
    },
}

impl<S: Scheduler> Scheduler for AnnealingScheduler<S> {
    fn name(&self) -> &'static str {
        "SA"
    }

    fn run(&self, inst: &Arc<SesInstance>, k: usize) -> Result<ScheduleOutcome, SesError> {
        let base_outcome = self.base.run(inst, k)?;
        // ses-analyze: allow(wall-clock-in-core): elapsed feeds SolveStats reporting only, never decisions
        let start = Instant::now();
        let mut engine = AttendanceEngine::with_schedule(inst, &base_outcome.schedule)
            .expect("base schedule must be feasible");

        let (best_schedule, best_utility, moves_tried, moves_accepted) =
            self.anneal(&mut engine, &mut |_| {});

        let placed = best_schedule.len();
        Ok(ScheduleOutcome {
            algorithm: self.name(),
            schedule: best_schedule,
            total_utility: best_utility,
            complete: placed == k,
            stats: RunStats {
                elapsed: start.elapsed() + base_outcome.stats.elapsed,
                engine: engine.counters(),
                pops: moves_tried,
                updates: moves_accepted,
                memory: engine.memory_stats(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{ExactScheduler, GreedyScheduler, RandomScheduler};
    use crate::engine::oracle::assert_exact_state;
    use crate::testkit;
    use crate::testkit::evaluate_schedule;
    use crate::util::float::approx_ge;

    #[test]
    fn never_worse_than_base_and_stays_feasible() {
        for seed in 0..5u64 {
            let inst = testkit::medium_instance(seed);
            let base = RandomScheduler::new(seed).run(&inst, 6).unwrap();
            let sa = AnnealingScheduler::with_config(
                RandomScheduler::new(seed),
                AnnealingConfig {
                    iterations: 3000,
                    seed,
                    ..AnnealingConfig::default()
                },
            )
            .run(&inst, 6)
            .unwrap();
            assert!(
                approx_ge(sa.total_utility, base.total_utility),
                "seed {seed}: SA {} < base {}",
                sa.total_utility,
                base.total_utility
            );
            inst.check_schedule(&sa.schedule).unwrap();
            assert_eq!(sa.len(), base.len());
        }
    }

    #[test]
    fn reported_utility_matches_schedule() {
        let inst = testkit::medium_instance(2);
        let sa = AnnealingScheduler::new(RandomScheduler::new(2))
            .run(&inst, 5)
            .unwrap();
        let eval = evaluate_schedule(&inst, &sa.schedule);
        assert_eq!(
            sa.total_utility.to_bits(),
            eval.total_utility.to_bits(),
            "{} vs {}",
            sa.total_utility,
            eval.total_utility
        );
    }

    #[test]
    fn bounded_by_exact_optimum() {
        for seed in 0..3u64 {
            let inst = testkit::small_instance(seed);
            let opt = ExactScheduler::new().run(&inst, 3).unwrap().total_utility;
            let sa = AnnealingScheduler::new(GreedyScheduler::new())
                .run(&inst, 3)
                .unwrap()
                .total_utility;
            assert!(approx_ge(opt + 1e-9, sa), "SA {sa} exceeds OPT {opt}");
        }
    }

    #[test]
    fn improves_a_random_start_substantially() {
        let mut rand_sum = 0.0;
        let mut sa_sum = 0.0;
        for seed in 0..4u64 {
            let inst = testkit::medium_instance(seed + 100);
            rand_sum += RandomScheduler::new(seed)
                .run(&inst, 8)
                .unwrap()
                .total_utility;
            sa_sum += AnnealingScheduler::new(RandomScheduler::new(seed))
                .run(&inst, 8)
                .unwrap()
                .total_utility;
        }
        assert!(
            sa_sum > rand_sum * 1.02,
            "SA {} should clearly beat RAND {}",
            sa_sum,
            rand_sum
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = testkit::medium_instance(1);
        let cfg = AnnealingConfig {
            iterations: 1000,
            seed: 7,
            ..AnnealingConfig::default()
        };
        let a = AnnealingScheduler::with_config(RandomScheduler::new(1), cfg)
            .run(&inst, 5)
            .unwrap();
        let b = AnnealingScheduler::with_config(RandomScheduler::new(1), cfg)
            .run(&inst, 5)
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn every_move_leaves_the_state_a_rebuilt_engine_has() {
        for seed in 0..2u64 {
            let inst = testkit::medium_instance(seed);
            let base = RandomScheduler::new(seed).run(&inst, 8).unwrap();
            let mut engine = AttendanceEngine::with_schedule(&inst, &base.schedule).unwrap();
            let sa = AnnealingScheduler::with_config(
                RandomScheduler::new(seed),
                AnnealingConfig {
                    iterations: 400,
                    seed,
                    ..AnnealingConfig::default()
                },
            );
            let mut observed = 0u64;
            sa.anneal(&mut engine, &mut |e| {
                assert_exact_state(e);
                observed += 1;
            });
            assert!(observed >= 100, "seed {seed}: {observed} moves observed");
        }
    }

    #[test]
    fn zero_iterations_returns_base_schedule() {
        let inst = testkit::medium_instance(4);
        let cfg = AnnealingConfig {
            iterations: 0,
            ..AnnealingConfig::default()
        };
        let base = GreedyScheduler::new().run(&inst, 5).unwrap();
        let sa = AnnealingScheduler::with_config(GreedyScheduler::new(), cfg)
            .run(&inst, 5)
            .unwrap();
        assert_eq!(sa.schedule, base.schedule);
    }
}
