//! Local-search post-optimization (extension beyond the paper).
//!
//! Wraps any base scheduler and hill-climbs its schedule with two move
//! kinds until a full pass finds no improvement (or a pass cap is hit):
//!
//! * **relocate** — move a scheduled event to a different interval;
//! * **swap** — replace a scheduled event with an unscheduled one (at any
//!   feasible interval).
//!
//! Every accepted move strictly increases Ω, so termination is guaranteed;
//! feasibility is preserved because moves go through the engine's checked
//! `assign`. The A4 ablation (DESIGN.md) measures how much headroom GRD
//! leaves on the table.

use crate::engine::AttendanceEngine;
use crate::ids::{EventId, IntervalId};
use crate::instance::SesInstance;

use super::{RunStats, ScheduleOutcome, Scheduler, SesError};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for [`LocalSearchScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct LocalSearchConfig {
    /// Maximum full improvement passes.
    pub max_passes: usize,
    /// Enable the relocate move.
    pub relocate: bool,
    /// Enable the swap move (costlier: `O(k · |E| · |T|)` per pass).
    pub swap: bool,
    /// Minimum strict improvement for a move to be accepted.
    pub min_gain: f64,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        Self {
            max_passes: 10,
            relocate: true,
            swap: true,
            min_gain: 1e-9,
        }
    }
}

/// Hill-climbing post-optimizer around a base scheduler.
#[derive(Debug, Clone)]
pub struct LocalSearchScheduler<S> {
    base: S,
    config: LocalSearchConfig,
}

impl<S: Scheduler> LocalSearchScheduler<S> {
    /// Wraps `base` with default local-search settings.
    pub fn new(base: S) -> Self {
        Self {
            base,
            config: LocalSearchConfig::default(),
        }
    }

    /// Wraps `base` with explicit settings.
    pub fn with_config(base: S, config: LocalSearchConfig) -> Self {
        Self { base, config }
    }

    /// One relocate pass; returns whether any move was accepted. `observe`
    /// sees the engine after each event is placed again.
    fn relocate_pass(
        &self,
        engine: &mut AttendanceEngine,
        moves: &mut u64,
        observe: &mut impl FnMut(&AttendanceEngine),
    ) -> bool {
        let mut improved = false;
        let scheduled = engine.schedule().scheduled_events();
        let num_intervals = engine.instance().num_intervals();
        for event in scheduled {
            let home = engine
                .schedule()
                .interval_of(event)
                .expect("event was scheduled");
            let loss = engine.unassign(event).expect("event was scheduled");
            // Find the best feasible placement (home remains feasible since
            // we just vacated it).
            let mut best_t = home;
            let mut best_gain = f64::NEG_INFINITY;
            for t in 0..num_intervals {
                let interval = IntervalId::new(t as u32);
                if engine.check_assignment(event, interval).is_ok() {
                    *moves += 1;
                    let gain = engine.score(event, interval);
                    if gain > best_gain {
                        best_gain = gain;
                        best_t = interval;
                    }
                }
            }
            let target = if best_gain > loss + self.config.min_gain {
                improved |= best_t != home;
                best_t
            } else {
                home
            };
            engine
                .assign(event, target)
                .expect("home or checked target must be assignable");
            observe(engine);
        }
        improved
    }

    /// One swap pass; returns whether any move was accepted. `observe` sees
    /// the engine after each scheduled event's swap decision.
    fn swap_pass(
        &self,
        engine: &mut AttendanceEngine,
        moves: &mut u64,
        observe: &mut impl FnMut(&AttendanceEngine),
    ) -> bool {
        let mut improved = false;
        let num_events = engine.instance().num_events();
        let num_intervals = engine.instance().num_intervals();
        let scheduled = engine.schedule().scheduled_events();
        for event in scheduled {
            // `event` may have been swapped out by an earlier iteration.
            let Some(home) = engine.schedule().interval_of(event) else {
                continue;
            };
            let loss = engine.unassign(event).expect("event is scheduled");
            let mut best: Option<(EventId, IntervalId, f64)> = None;
            for f in 0..num_events {
                let cand = EventId::new(f as u32);
                if engine.schedule().contains(cand) || cand == event {
                    continue;
                }
                for t in 0..num_intervals {
                    let interval = IntervalId::new(t as u32);
                    if engine.check_assignment(cand, interval).is_ok() {
                        *moves += 1;
                        let gain = engine.score(cand, interval);
                        if best.is_none_or(|(_, _, g)| gain > g) {
                            best = Some((cand, interval, gain));
                        }
                    }
                }
            }
            match best {
                Some((cand, interval, gain)) if gain > loss + self.config.min_gain => {
                    engine
                        .assign(cand, interval)
                        .expect("checked swap target must apply");
                    improved = true;
                }
                _ => {
                    engine
                        .assign(event, home)
                        .expect("vacated home must be assignable");
                }
            }
            observe(engine);
        }
        improved
    }
}

impl<S: Scheduler> Scheduler for LocalSearchScheduler<S> {
    fn name(&self) -> &'static str {
        "LS"
    }

    fn run(&self, inst: &Arc<SesInstance>, k: usize) -> Result<ScheduleOutcome, SesError> {
        let base_outcome = self.base.run(inst, k)?;
        // ses-analyze: allow(wall-clock-in-core): elapsed feeds SolveStats reporting only, never decisions
        let start = Instant::now();
        let mut engine = AttendanceEngine::with_schedule(inst, &base_outcome.schedule)
            .expect("base schedule must be feasible");
        let mut moves = 0u64;
        let mut passes = 0u64;

        for _ in 0..self.config.max_passes {
            passes += 1;
            let mut improved = false;
            if self.config.relocate {
                improved |= self.relocate_pass(&mut engine, &mut moves, &mut |_| {});
            }
            if self.config.swap {
                improved |= self.swap_pass(&mut engine, &mut moves, &mut |_| {});
            }
            if !improved {
                break;
            }
        }

        let placed = engine.schedule().len();
        Ok(ScheduleOutcome {
            algorithm: self.name(),
            total_utility: engine.total_utility(),
            complete: placed == k,
            stats: RunStats {
                elapsed: start.elapsed() + base_outcome.stats.elapsed,
                engine: engine.counters(),
                pops: moves,
                updates: passes,
                memory: engine.memory_stats(),
            },
            schedule: engine.into_schedule(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{ExactScheduler, GreedyScheduler, RandomScheduler, TopScheduler};
    use crate::engine::oracle::assert_exact_state;
    use crate::testkit;
    use crate::testkit::evaluate_schedule;
    use crate::util::float::approx_ge;

    #[test]
    fn never_worse_than_base() {
        for seed in 0..6u64 {
            let inst = testkit::medium_instance(seed);
            let base = RandomScheduler::new(seed).run(&inst, 6).unwrap();
            let ls = LocalSearchScheduler::new(RandomScheduler::new(seed))
                .run(&inst, 6)
                .unwrap();
            assert!(
                approx_ge(ls.total_utility, base.total_utility),
                "seed {seed}: LS {} < base {}",
                ls.total_utility,
                base.total_utility
            );
            inst.check_schedule(&ls.schedule).unwrap();
            assert_eq!(ls.len(), base.len(), "LS must preserve schedule size");
        }
    }

    #[test]
    fn improves_a_poor_baseline_materially() {
        // Over several seeds, LS on top of RAND should close part of the gap
        // to GRD.
        let mut rand_sum = 0.0;
        let mut ls_sum = 0.0;
        for seed in 0..6u64 {
            let inst = testkit::medium_instance(seed);
            rand_sum += RandomScheduler::new(seed)
                .run(&inst, 6)
                .unwrap()
                .total_utility;
            ls_sum += LocalSearchScheduler::new(RandomScheduler::new(seed))
                .run(&inst, 6)
                .unwrap()
                .total_utility;
        }
        assert!(
            ls_sum > rand_sum,
            "LS mean {} should beat RAND mean {}",
            ls_sum / 6.0,
            rand_sum / 6.0
        );
    }

    #[test]
    fn bounded_by_exact_optimum() {
        for seed in 0..4u64 {
            let inst = testkit::small_instance(seed);
            let opt = ExactScheduler::new().run(&inst, 3).unwrap().total_utility;
            let ls = LocalSearchScheduler::new(TopScheduler::new())
                .run(&inst, 3)
                .unwrap()
                .total_utility;
            assert!(approx_ge(opt, ls), "seed {seed}: LS {ls} exceeds OPT {opt}");
        }
    }

    #[test]
    fn reported_utility_matches_reference() {
        let inst = testkit::medium_instance(3);
        let out = LocalSearchScheduler::new(GreedyScheduler::new())
            .run(&inst, 6)
            .unwrap();
        let eval = evaluate_schedule(&inst, &out.schedule);
        assert_eq!(
            out.total_utility.to_bits(),
            eval.total_utility.to_bits(),
            "incremental {} vs reference {}",
            out.total_utility,
            eval.total_utility
        );
    }

    #[test]
    fn relocate_only_configuration_works() {
        let inst = testkit::medium_instance(4);
        let cfg = LocalSearchConfig {
            swap: false,
            ..LocalSearchConfig::default()
        };
        let out = LocalSearchScheduler::with_config(RandomScheduler::new(1), cfg)
            .run(&inst, 5)
            .unwrap();
        inst.check_schedule(&out.schedule).unwrap();
    }

    #[test]
    fn every_move_leaves_the_state_a_rebuilt_engine_has() {
        // Each relocate decision unassigns and re-assigns, and each swap
        // decision unassigns one event and assigns one, so this exercises
        // the M re-fold on every step.
        for seed in 0..3u64 {
            let inst = testkit::medium_instance(seed);
            let base = RandomScheduler::new(seed).run(&inst, 8).unwrap();
            let mut engine = AttendanceEngine::with_schedule(&inst, &base.schedule).unwrap();
            let ls = LocalSearchScheduler::new(RandomScheduler::new(seed));
            let (mut moves, mut observed) = (0u64, 0u64);
            let mut check = |e: &AttendanceEngine| {
                assert_exact_state(e);
                observed += 1;
            };
            for _ in 0..3 {
                ls.relocate_pass(&mut engine, &mut moves, &mut check);
                ls.swap_pass(&mut engine, &mut moves, &mut check);
            }
            assert_eq!(observed, 3 * 2 * 8, "seed {seed}");
        }
    }

    #[test]
    fn zero_passes_is_identity() {
        let inst = testkit::medium_instance(5);
        let cfg = LocalSearchConfig {
            max_passes: 0,
            ..LocalSearchConfig::default()
        };
        let base = RandomScheduler::new(2).run(&inst, 5).unwrap();
        let out = LocalSearchScheduler::with_config(RandomScheduler::new(2), cfg)
            .run(&inst, 5)
            .unwrap();
        assert_eq!(out.schedule, base.schedule);
    }
}
