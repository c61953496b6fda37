//! Schedule quality reports beyond the single Ω number.
//!
//! Organizers reading a schedule want more than the objective value: how
//! full each interval is, how attendance spreads across events (a festival
//! of one blockbuster and nineteen empty rooms has the same Ω as twenty
//! balanced events), and how much of the population is reached at all.

use crate::algorithms::initial_scores;
use crate::engine::AttendanceEngine;
use crate::ids::IntervalId;
use crate::instance::{FeasibilityViolation, SesInstance};
use crate::schedule::Schedule;
use std::sync::Arc;

/// Per-interval usage line.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalReport {
    /// The interval.
    pub interval: IntervalId,
    /// Events scheduled there.
    pub num_events: usize,
    /// Competing events pinned there.
    pub num_competing: usize,
    /// Resources in use vs. the budget θ.
    pub used_resources: f64,
    /// Total expected attendance of the interval.
    pub utility: f64,
}

/// Aggregate quality metrics of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleMetrics {
    /// Total utility Ω (Eq. 3).
    pub total_utility: f64,
    /// Expected attendance of the best-attended event.
    pub max_event_attendance: f64,
    /// Expected attendance of the worst-attended scheduled event.
    pub min_event_attendance: f64,
    /// Mean expected attendance per scheduled event.
    pub mean_event_attendance: f64,
    /// Gini coefficient of per-event attendance (0 = perfectly balanced,
    /// → 1 = all attendance concentrated on one event).
    pub attendance_gini: f64,
    /// Number of intervals holding at least one event.
    pub occupied_intervals: usize,
    /// Largest number of events sharing one interval.
    pub max_events_per_interval: usize,
    /// Mean fraction of the resource budget used over occupied intervals.
    pub mean_resource_utilization: f64,
    /// Expected number of *distinct* users attending something — i.e.
    /// `Σ_u (1 − Π_t (1 − Σ_{e ∈ E_t} ρ(u,e,t)))`, assuming independence
    /// across intervals.
    pub expected_reach: f64,
    /// An admissible upper bound on the optimal utility `Ω(S*)` for schedules
    /// of size `k`: the sum of the `k` largest *solo scores* —
    /// `max_t score(e → t | ∅)` per event.
    ///
    /// Per-user marginal gains diminish as intervals fill (`x ↦ x/(B+x)` is
    /// concave — see the `engine` module), so every event's realized gain is
    /// bounded by its empty-schedule score; summing the `k` best bounds any
    /// feasible schedule. The bound ignores location/resource interactions,
    /// so it is loose but cheap (`O(|E||T|·postings)`, the sweep GRD opens
    /// with) — usable at full experiment scale where the exact solver is
    /// hopeless. `GRD utility / upper bound` is then a *certified* quality
    /// floor.
    pub upper_bound: f64,
    /// Per-interval breakdown.
    pub intervals: Vec<IntervalReport>,
}

/// Gini coefficient of a non-negative sample (0 for empty/all-zero input).
fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = values.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    // G = (2·Σ_i i·x_(i) / (n·Σ x)) − (n+1)/n  with 1-based ranks.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i + 1) as f64 * x)
        .sum();
    (2.0 * weighted / (n as f64 * sum) - (n as f64 + 1.0) / n as f64).max(0.0)
}

/// Computes the full metrics report for a schedule, with the certified
/// bound for schedules of size `k`, from **one** engine: the empty engine's
/// solo-score sweep gives [`ScheduleMetrics::upper_bound`], then the
/// schedule is assigned into the same engine (in event-id order) and every
/// other figure is read from it. Records a [`ses_obs::Stage::Report`] span
/// around the engine's `build` and `sweep`.
///
/// Fails with the first [`FeasibilityViolation`] if `schedule` is not
/// feasible.
pub fn schedule_metrics(
    inst: &Arc<SesInstance>,
    schedule: &Schedule,
    k: usize,
) -> Result<ScheduleMetrics, FeasibilityViolation> {
    let _span = ses_obs::span(ses_obs::Stage::Report);
    let mut engine = AttendanceEngine::new(inst);

    let mut solos = vec![0.0f64; inst.num_events()];
    for (event, _, score) in initial_scores(&mut engine) {
        solos[event.index()] = solos[event.index()].max(score);
    }
    solos.sort_unstable_by(|a, b| b.total_cmp(a));
    let upper_bound = solos.iter().take(k).sum();

    for a in schedule.iter() {
        engine.assign(a.event, a.interval)?;
    }
    let schedule = engine.schedule();

    let attendances: Vec<f64> = schedule
        .iter()
        .filter_map(|a| engine.expected_attendance(a.event))
        .collect();
    let max_a = attendances.iter().fold(0.0f64, |max, &a| max.max(a));
    let min_a = attendances.iter().copied().reduce(f64::min).unwrap_or(0.0);
    let total_utility = engine.total_utility();

    let mut intervals = Vec::new();
    let mut max_per_interval = 0usize;
    let mut utilization_sum = 0.0;
    for interval in schedule.occupied_intervals() {
        let num_events = schedule.events_at(interval).len();
        max_per_interval = max_per_interval.max(num_events);
        let used = engine.used_resources(interval);
        utilization_sum += used / inst.budget();
        intervals.push(IntervalReport {
            interval,
            num_events,
            num_competing: inst.competing_at(interval).len(),
            used_resources: used,
            utility: engine.interval_utility(interval),
        });
    }

    let n = attendances.len();
    Ok(ScheduleMetrics {
        total_utility,
        max_event_attendance: max_a,
        min_event_attendance: min_a,
        mean_event_attendance: if n == 0 {
            0.0
        } else {
            total_utility / n as f64
        },
        attendance_gini: gini(&attendances),
        occupied_intervals: intervals.len(),
        max_events_per_interval: max_per_interval,
        mean_resource_utilization: if intervals.is_empty() {
            0.0
        } else {
            utilization_sum / intervals.len() as f64
        },
        expected_reach: engine.expected_reach(),
        upper_bound,
        intervals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;
    use crate::algorithms::{GreedyScheduler, RandomScheduler, Scheduler};
    use crate::ids::{EventId, IntervalId, UserId};
    use crate::testkit::{self, evaluate_schedule};
    use crate::util::float::approx_eq;

    /// Reference bound: every event's solo scores from `score_all` on a
    /// fresh engine, the `k` largest per-event maxima summed.
    fn reference_upper_bound(inst: &Arc<SesInstance>, k: usize) -> f64 {
        let mut engine = AttendanceEngine::new(inst);
        let mut solos: Vec<f64> = (0..inst.num_events())
            .map(|e| {
                let event = EventId::new(e as u32);
                engine.score_all(event).into_iter().fold(0.0f64, f64::max)
            })
            .collect();
        solos.sort_unstable_by(|a, b| b.total_cmp(a));
        solos.iter().take(k).sum()
    }

    /// Reference reach: the per-user × interval × event probe over
    /// `attendance_probability`.
    fn reference_reach(inst: &Arc<SesInstance>, schedule: &Schedule) -> f64 {
        let engine = AttendanceEngine::with_schedule(inst, schedule).unwrap();
        let occupied: Vec<IntervalId> = schedule.occupied_intervals().collect();
        let mut reach = 0.0;
        for u in 0..inst.num_users() {
            let user = UserId::new(u as u32);
            let mut p_none = 1.0;
            for &interval in &occupied {
                let p_attend: f64 = schedule
                    .events_at(interval)
                    .iter()
                    .map(|&e| engine.attendance_probability(user, e).unwrap_or(0.0))
                    .sum();
                p_none *= (1.0 - p_attend).max(0.0);
            }
            reach += 1.0 - p_none;
        }
        reach
    }

    /// `inst` with σ masked to a window of two intervals per user, so most
    /// columns are partial while the competing events stay in place.
    fn partial_sigma(inst: &Arc<SesInstance>, seed: u64) -> Arc<SesInstance> {
        SesInstance::builder()
            .organizer(inst.organizer().clone())
            .intervals(inst.intervals().to_vec())
            .events(inst.events().to_vec())
            .competing(inst.competing().to_vec())
            .interest(inst.interest().clone())
            .activity(Activity::masked(
                inst.num_users(),
                inst.num_intervals(),
                2,
                seed,
            ))
            .build_shared()
            .unwrap()
    }

    /// `schedule` re-assigned in event-id order, the form `ses solve`
    /// rehydrates from its response.
    fn in_event_order(inst: &SesInstance, schedule: &Schedule) -> Schedule {
        let mut out = inst.empty_schedule();
        for a in schedule.iter() {
            out.assign(a.event, a.interval).unwrap();
        }
        out
    }

    /// Pins the one-engine report to the references on one schedule.
    fn check_against_references(inst: &Arc<SesInstance>, schedule: &Schedule, k: usize) {
        let schedule = in_event_order(inst, schedule);
        let m = schedule_metrics(inst, &schedule, k).unwrap();
        assert_eq!(
            m.upper_bound.to_bits(),
            reference_upper_bound(inst, k).to_bits(),
            "upper bound at k = {k}"
        );
        assert_eq!(
            m.expected_reach.to_bits(),
            reference_reach(inst, &schedule).to_bits(),
            "reach at k = {k}"
        );
        let engine = AttendanceEngine::with_schedule(inst, &schedule).unwrap();
        let oracle = evaluate_schedule(inst, &schedule);
        let mut attendances = Vec::new();
        for &(event, _, w) in &oracle.per_event {
            let a = engine.expected_attendance(event).unwrap();
            assert_eq!(a.to_bits(), w.to_bits(), "{a} vs oracle {w}");
            attendances.push(a);
        }
        let (max_a, min_a) = attendances
            .iter()
            .fold((0.0f64, f64::INFINITY), |(hi, lo), &a| {
                (hi.max(a), lo.min(a))
            });
        assert_eq!(m.max_event_attendance.to_bits(), max_a.to_bits());
        if !attendances.is_empty() {
            assert_eq!(m.min_event_attendance.to_bits(), min_a.to_bits());
        }
        assert_eq!(m.attendance_gini.to_bits(), gini(&attendances).to_bits());
        assert_eq!(m.total_utility.to_bits(), oracle.total_utility.to_bits());
    }

    #[test]
    fn report_matches_the_reference_bound_reach_and_attendances() {
        for seed in 0..6u64 {
            for inst in [
                testkit::small_instance(seed),
                testkit::medium_instance(seed),
            ] {
                for k in [1usize, 3, 6, 8] {
                    let k_run = k.min(inst.num_events());
                    let grd = GreedyScheduler::new().run(&inst, k_run).unwrap();
                    check_against_references(&inst, &grd.schedule, k);
                    let rand = RandomScheduler::new(seed).run(&inst, k_run).unwrap();
                    check_against_references(&inst, &rand.schedule, k);
                }
            }
        }
    }

    #[test]
    fn report_matches_the_references_on_partial_columns() {
        for seed in 0..6u64 {
            let inst = partial_sigma(&testkit::medium_instance(seed), seed);
            assert!(inst.activity().nnz() < inst.num_users() * inst.num_intervals());
            assert!(inst.num_competing() > 0);
            for k in [1usize, 3, 6, 8] {
                let grd = GreedyScheduler::new().run(&inst, k).unwrap();
                check_against_references(&inst, &grd.schedule, k);
            }
        }
    }

    #[test]
    fn infeasible_schedule_is_an_error_not_a_panic() {
        let inst = testkit::single_slot_shared_location(2);
        let mut s = inst.empty_schedule();
        s.assign(EventId::new(0), IntervalId::new(0)).unwrap();
        s.assign(EventId::new(1), IntervalId::new(0)).unwrap();
        assert!(matches!(
            schedule_metrics(&inst, &s, 2),
            Err(FeasibilityViolation::LocationConflict { .. })
        ));
    }

    #[test]
    fn gini_known_values() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        assert!(gini(&[5.0, 5.0, 5.0]).abs() < 1e-12, "equal values → 0");
        // All mass on one of two: G = 1/2 for n = 2.
        assert!(approx_eq(gini(&[0.0, 10.0]), 0.5));
        // More unequal → larger.
        assert!(gini(&[1.0, 9.0]) > gini(&[4.0, 6.0]));
    }

    #[test]
    fn metrics_on_empty_schedule() {
        let inst = testkit::medium_instance(0);
        let m = schedule_metrics(&inst, &inst.empty_schedule(), 0).unwrap();
        assert_eq!(m.total_utility, 0.0);
        assert_eq!(m.occupied_intervals, 0);
        assert_eq!(m.expected_reach, 0.0);
        assert_eq!(m.mean_event_attendance, 0.0);
        assert!(m.intervals.is_empty());
    }

    #[test]
    fn metrics_match_engine_quantities() {
        let inst = testkit::medium_instance(3);
        let out = GreedyScheduler::new().run(&inst, 6).unwrap();
        let m = schedule_metrics(&inst, &out.schedule, 6).unwrap();
        assert_eq!(m.total_utility.to_bits(), out.total_utility.to_bits());
        let interval_sum: f64 = m.intervals.iter().map(|r| r.utility).sum();
        assert!(approx_eq(interval_sum, m.total_utility));
        assert!(m.max_event_attendance >= m.mean_event_attendance);
        assert!(m.mean_event_attendance >= m.min_event_attendance);
        assert!((0.0..=1.0).contains(&m.attendance_gini));
        assert!(m.max_events_per_interval >= 1);
        assert!(m.mean_resource_utilization > 0.0 && m.mean_resource_utilization <= 1.0);
    }

    #[test]
    fn reach_is_bounded_by_population_and_utility() {
        let inst = testkit::medium_instance(5);
        let out = GreedyScheduler::new().run(&inst, 8).unwrap();
        let m = schedule_metrics(&inst, &out.schedule, 8).unwrap();
        assert!(m.expected_reach <= inst.num_users() as f64 + 1e-9);
        // Reach counts each user at most once; Ω can count a user once per
        // interval, so reach ≤ Ω always… only when intervals are disjoint
        // probabilities — in general reach ≤ Ω because 1−Π(1−p_t) ≤ Σ p_t.
        assert!(m.expected_reach <= m.total_utility + 1e-9);
        assert!(m.expected_reach > 0.0);
    }

    #[test]
    fn per_interval_reports_are_consistent() {
        let inst = testkit::medium_instance(7);
        let out = GreedyScheduler::new().run(&inst, 6).unwrap();
        let m = schedule_metrics(&inst, &out.schedule, 6).unwrap();
        for r in &m.intervals {
            assert_eq!(r.num_events, out.schedule.events_at(r.interval).len());
            assert!(r.used_resources <= inst.budget() + 1e-9);
            assert!(r.utility >= 0.0);
        }
        let scheduled_total: usize = m.intervals.iter().map(|r| r.num_events).sum();
        assert_eq!(scheduled_total, out.len());
    }

    #[test]
    fn upper_bound_dominates_exact_and_heuristics() {
        use crate::algorithms::ExactScheduler;
        for seed in 0..5u64 {
            let inst = testkit::small_instance(seed);
            let k = 3;
            let opt = ExactScheduler::new().run(&inst, k).unwrap().total_utility;
            let grd = GreedyScheduler::new().run(&inst, k).unwrap();
            let ub = schedule_metrics(&inst, &grd.schedule, k)
                .unwrap()
                .upper_bound;
            assert!(ub >= opt - 1e-9, "seed {seed}: UB {ub} < OPT {opt}");
            assert!(ub >= grd.total_utility - 1e-9);
        }
    }

    #[test]
    fn upper_bound_monotone_in_k_and_zero_at_zero() {
        let inst = testkit::medium_instance(2);
        let empty = inst.empty_schedule();
        let ub = |k| schedule_metrics(&inst, &empty, k).unwrap().upper_bound;
        assert_eq!(ub(0), 0.0);
        let mut prev = 0.0;
        for k in 1..=inst.num_events() {
            let bound = ub(k);
            assert!(bound >= prev - 1e-12, "UB must be monotone in k");
            prev = bound;
        }
        // Beyond |E| the bound saturates.
        assert_eq!(ub(inst.num_events()), ub(inst.num_events() + 10));
    }

    #[test]
    fn single_assignment_metrics() {
        let inst = testkit::hand_instance();
        let mut s = inst.empty_schedule();
        s.assign(EventId::new(0), IntervalId::new(1)).unwrap();
        let m = schedule_metrics(&inst, &s, 1).unwrap();
        // e0 at t1: only user0, ρ = 1 → every aggregate collapses to 1.
        assert!(approx_eq(m.total_utility, 1.0));
        assert!(approx_eq(m.max_event_attendance, 1.0));
        assert!(approx_eq(m.expected_reach, 1.0));
        assert_eq!(m.occupied_intervals, 1);
        assert_eq!(m.attendance_gini, 0.0);
    }
}
