//! Online schedule maintenance (extension beyond the paper).
//!
//! The paper schedules once, offline. In practice the world moves after
//! publication: rivals announce new events, acts cancel, the organizer finds
//! budget for one more show. This module keeps a *live* schedule optimal-ish
//! under three kinds of change, reusing the incremental engine:
//!
//! * [`OnlineSession::announce_competing`] — a third-party event appears at
//!   an interval; affected scheduled events may be worth relocating;
//! * [`OnlineSession::cancel_event`] — a scheduled event is cancelled; the
//!   slot is backfilled with the best remaining candidate;
//! * [`OnlineSession::extend`] — schedule one more event greedily;
//! * [`OnlineSession::arrive`] — a candidate that was not on the table at
//!   publication time becomes available (late arrival) and is placed at its
//!   best valid slot, if any;
//! * [`OnlineSession::change_capacity`] — the per-interval resource budget θ
//!   moves; on a cut, over-budget intervals evict their cheapest events and
//!   the repair re-places them elsewhere.
//!
//! Candidates carry an *availability* mask ([`OnlineSession::set_available`])
//! so workload simulators can hold events back and release them over time;
//! backfills and extensions only ever draw from available candidates.
//!
//! Repairs are greedy and local (a bounded relocate pass around the touched
//! interval), mirroring how GRD itself works; each repair reports the
//! utility swing so operators can see the cost of each disruption.
//!
//! Placement searches are **delta-maintained**: the session caches one
//! score row per candidate (its Eq. 4 score at every interval), tagged with
//! the engine's mutation clock. After a disruption only the *dirty*
//! intervals ([`AttendanceEngine::dirty_intervals`]) are rescored through
//! the [`AttendanceEngine::rescore_event_at`] delta API; every clean
//! interval's cached score is still bit-exact, so repair decisions are
//! bit-identical to a full `score_all` rescan (property-tested in
//! `crates/core/tests/incremental_equivalence.rs`) at a fraction of the
//! posting visits. [`OnlineSession::set_exhaustive_rescan`] switches back
//! to the full-rescan reference path.

use crate::engine::{AttendanceEngine, EngineCounters};
use crate::ids::{EventId, IntervalId, UserId};
use crate::instance::SesInstance;
use crate::schedule::{Schedule, ScheduleError};
use crate::util::float::total_cmp;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What a repair changed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairReport {
    /// Utility before the disruption.
    pub utility_before: f64,
    /// Utility right after the disruption, before repair.
    pub utility_disrupted: f64,
    /// Utility after repair.
    pub utility_after: f64,
    /// Events moved or added by the repair, with their new interval.
    pub moves: Vec<(EventId, IntervalId)>,
}

impl RepairReport {
    /// How much of the disruption the repair recovered.
    pub fn recovered(&self) -> f64 {
        self.utility_after - self.utility_disrupted
    }
}

/// One candidate's cached placement scores: `scores[t]` is the Eq. 4 score
/// of `event → t`, bit-exact as of the engine clock `clock`. Intervals that
/// mutated after `clock` are refreshed through the delta API on next use;
/// the rest are reused verbatim.
#[derive(Debug, Clone)]
struct ScoreRow {
    scores: Vec<f64>,
    clock: u64,
}

/// A live schedule bound to an instance.
///
/// Sessions own a shared handle to their instance (via the engine), so they
/// are `Send + 'static`: a server can keep many named sessions in a map and
/// move them across threads. See [`crate::engine::AttendanceEngine`] for the
/// ownership model.
pub struct OnlineSession {
    engine: AttendanceEngine,
    /// Which candidates may be drawn by backfills/extensions. Scheduled
    /// events are unaffected by their own flag until they leave the schedule.
    available: Vec<bool>,
    /// Per-candidate cached score rows (built lazily on first placement
    /// search), each tagged with the engine clock it was fresh at.
    score_rows: Vec<Option<ScoreRow>>,
    /// `false` = the dirty-interval cache above; `true` = full `score_all`
    /// rescans (the reference path the equivalence tests compare against).
    exhaustive_rescan: bool,
}

impl OnlineSession {
    /// Starts a session from an existing feasible schedule, with every
    /// candidate available.
    pub fn new(
        inst: &Arc<SesInstance>,
        schedule: &Schedule,
    ) -> Result<Self, crate::instance::FeasibilityViolation> {
        Ok(Self {
            engine: AttendanceEngine::with_schedule(inst, schedule)?,
            available: vec![true; inst.num_events()],
            score_rows: vec![None; inst.num_events()],
            exhaustive_rescan: false,
        })
    }

    /// Disables (or re-enables) the dirty-interval score cache: with
    /// `exhaustive = true` every placement search recomputes every interval
    /// from scratch (the pre-delta batch path). Repair decisions are
    /// bit-identical either way — the cache only skips recomputing scores
    /// that provably did not change — so this knob exists as the reference
    /// arm of the incremental ≡ full property tests and for ablation.
    pub fn set_exhaustive_rescan(&mut self, exhaustive: bool) {
        self.exhaustive_rescan = exhaustive;
    }

    /// Current schedule.
    pub fn schedule(&self) -> &Schedule {
        self.engine.schedule()
    }

    /// Current utility (reflecting all dynamic competing events so far).
    pub fn utility(&self) -> f64 {
        self.engine.total_utility()
    }

    /// The session's engine, read-only.
    pub fn engine(&self) -> &AttendanceEngine {
        &self.engine
    }

    /// The instance this session runs against.
    pub fn instance(&self) -> &SesInstance {
        self.engine.instance()
    }

    /// The shared handle to the instance.
    pub fn instance_arc(&self) -> &Arc<SesInstance> {
        self.engine.instance_arc()
    }

    /// The live per-interval resource budget θ.
    pub fn budget(&self) -> f64 {
        self.engine.budget()
    }

    /// Engine operation counters accumulated by this session (score
    /// evaluations, posting visits, assigns/unassigns) — the simulator's
    /// hardware-independent throughput measure.
    pub fn counters(&self) -> EngineCounters {
        self.engine.counters()
    }

    /// Resident-memory and build-cost accounting of the session's engine
    /// (blocked column layout; its own state apart from the instance's
    /// shared index) — serving front ends aggregate it per shard for
    /// `/metrics`, counting each shared index once.
    pub fn memory_stats(&self) -> crate::engine::EngineMemoryStats {
        self.engine.memory_stats()
    }

    /// The engine's monotone mutation clock: how many state-changing
    /// engine operations (assigns, unassigns, competing-mass injections
    /// that landed in the slot index) this session has absorbed. Serving
    /// front ends surface it next to [`Self::counters`] so operators can
    /// see how much schedule churn a session has seen, independent of how
    /// much scoring work that churn cost.
    pub fn clock(&self) -> u64 {
        self.engine.clock()
    }

    /// Whether `event` may be drawn by backfills and extensions.
    pub fn is_available(&self, event: EventId) -> bool {
        self.available[event.index()]
    }

    /// Sets the availability mask of `event`. Masking an event that is
    /// currently scheduled does not remove it — it only stops the event
    /// from being re-drawn after it leaves the schedule.
    pub fn set_available(&mut self, event: EventId, available: bool) {
        self.available[event.index()] = available;
    }

    /// Brings `event`'s cached score row up to date: a full `score_all` on
    /// first use, then only the intervals the engine marks dirty — each one
    /// a single [`AttendanceEngine::rescore_event_at`] delta evaluation.
    /// Clean intervals keep their cached bits, which recomputation would
    /// reproduce exactly (Eq. 4 is a pure function of the interval's
    /// columns), so consumers cannot observe the difference.
    fn refresh_row(&mut self, event: EventId) {
        let start_ns = ses_obs::now_ns();
        let counters_before = self.engine.counters();
        let now = self.engine.clock();
        let mut refreshed = 0u64;
        match &mut self.score_rows[event.index()] {
            Some(row) => {
                for t in self.engine.dirty_intervals(row.clock) {
                    let (score, _) = self.engine.rescore_event_at(event, t);
                    row.scores[t.index()] = score;
                    refreshed += 1;
                }
                row.clock = now;
            }
            slot => {
                let scores = self.engine.score_all(event);
                refreshed = scores.len() as u64;
                *slot = Some(ScoreRow { scores, clock: now });
            }
        }
        // Clean rows are the common case on a quiet session — don't spend a
        // ring slot recording that nothing was rescored.
        if refreshed > 0 {
            ses_obs::record_span(
                ses_obs::Stage::Rescore,
                start_ns,
                ses_obs::now_ns().saturating_sub(start_ns),
                self.engine.counters().delta_since(counters_before).as_ops(),
                [refreshed, 0],
            );
        }
    }

    /// Best valid placement for `event` over all intervals, if any.
    ///
    /// Consults the dirty-interval score cache (or, under
    /// [`Self::set_exhaustive_rescan`], the engine's batch `score_all`) and
    /// filters to valid intervals afterwards.
    fn best_placement(&mut self, event: EventId) -> Option<(IntervalId, f64)> {
        let exhaustive; // keeps the reference path's owned scores alive
        let scores: &[f64] = if self.exhaustive_rescan {
            exhaustive = self.engine.score_all(event);
            &exhaustive
        } else {
            self.refresh_row(event);
            &self.score_rows[event.index()]
                .as_ref()
                .expect("row was just refreshed")
                .scores
        };
        // The last valid interval of maximal score (`max_by` over the valid
        // ones). Validity is asked only of an interval that would take the
        // lead, so a feasibility check runs once per new leader rather than
        // once per interval.
        let mut best: Option<(IntervalId, f64)> = None;
        for (t, &score) in scores.iter().enumerate() {
            let t = IntervalId::new(t as u32);
            if best.is_none_or(|(_, lead)| total_cmp(score, lead).is_ge())
                && self.engine.is_valid(event, t)
            {
                best = Some((t, score));
            }
        }
        best
    }

    /// One relocate pass over the events scheduled at `interval`: each is
    /// moved to its globally best slot if that strictly improves Ω.
    fn relocate_interval(&mut self, interval: IntervalId, moves: &mut Vec<(EventId, IntervalId)>) {
        let events: Vec<EventId> = self.engine.schedule().events_at(interval).to_vec();
        for event in events {
            let loss = self
                .engine
                .unassign(event)
                .expect("event was scheduled at the interval");
            // Going home re-forms a set that fit the live budget, so it
            // cannot fail: the feasibility rule reads only the set.
            let target = match self
                .best_placement(event)
                .filter(|&(_, gain)| gain > loss + 1e-9)
            {
                Some((target, _)) if target != interval => {
                    moves.push((event, target));
                    target
                }
                _ => interval,
            };
            self.engine
                .assign(event, target)
                .expect("a validated placement or the vacated home");
        }
    }

    /// A rival announces an event at `interval`; `postings` lists users and
    /// their interest in it. Applies the change, then tries to relocate the
    /// interval's scheduled events to better slots.
    pub fn announce_competing(
        &mut self,
        interval: IntervalId,
        postings: &[(UserId, f64)],
    ) -> RepairReport {
        let mut span = ses_obs::span(ses_obs::Stage::Repair);
        let counters_before = self.engine.counters();
        let utility_before = self.engine.total_utility();
        self.engine.add_competing_mass(interval, postings);
        let utility_disrupted = self.engine.total_utility();
        let mut moves = Vec::new();
        self.relocate_interval(interval, &mut moves);
        span.set_ops(self.engine.counters().delta_since(counters_before).as_ops());
        span.set_aux(moves.len() as u64, postings.len() as u64);
        RepairReport {
            utility_before,
            utility_disrupted,
            utility_after: self.engine.total_utility(),
            moves,
        }
    }

    /// A scheduled event is cancelled; backfills with the best remaining
    /// unscheduled candidate (if any placement is valid).
    pub fn cancel_event(&mut self, event: EventId) -> Result<RepairReport, ScheduleError> {
        let mut span = ses_obs::span(ses_obs::Stage::Repair);
        let counters_before = self.engine.counters();
        let utility_before = self.engine.total_utility();
        self.engine.unassign(event)?;
        let utility_disrupted = self.engine.total_utility();
        let mut moves = Vec::new();
        if let Some((replacement, target, _)) = self.best_unscheduled() {
            self.engine
                .assign(replacement, target)
                .expect("placement was validated");
            moves.push((replacement, target));
        }
        span.set_ops(self.engine.counters().delta_since(counters_before).as_ops());
        span.set_aux(moves.len() as u64, 0);
        Ok(RepairReport {
            utility_before,
            utility_disrupted,
            utility_after: self.engine.total_utility(),
            moves,
        })
    }

    /// Greedily schedules one more event (the `k → k+1` upgrade). Returns
    /// `None` when no valid assignment remains.
    pub fn extend(&mut self) -> Option<RepairReport> {
        let mut span = ses_obs::span(ses_obs::Stage::Repair);
        let counters_before = self.engine.counters();
        let utility_before = self.engine.total_utility();
        let (event, target, _) = self.best_unscheduled()?;
        self.engine
            .assign(event, target)
            .expect("placement was validated");
        span.set_ops(self.engine.counters().delta_since(counters_before).as_ops());
        span.set_aux(1, 0);
        Some(RepairReport {
            utility_before,
            utility_disrupted: utility_before,
            utility_after: self.engine.total_utility(),
            moves: vec![(event, target)],
        })
    }

    /// A candidate that missed the initial planning round becomes available
    /// (late arrival) and is greedily placed at its best valid slot.
    ///
    /// Returns `None` — with the event now available for future backfills —
    /// when it is already scheduled or no valid placement exists.
    pub fn arrive(&mut self, event: EventId) -> Option<RepairReport> {
        self.available[event.index()] = true;
        if self.engine.schedule().contains(event) {
            return None;
        }
        let mut span = ses_obs::span(ses_obs::Stage::Repair);
        let counters_before = self.engine.counters();
        let utility_before = self.engine.total_utility();
        let (target, _) = self.best_placement(event)?;
        self.engine
            .assign(event, target)
            .expect("placement was validated");
        span.set_ops(self.engine.counters().delta_since(counters_before).as_ops());
        span.set_aux(1, 0);
        Some(RepairReport {
            utility_before,
            utility_disrupted: utility_before,
            utility_after: self.engine.total_utility(),
            moves: vec![(event, target)],
        })
    }

    /// The organizer's per-interval resource budget θ changes (a venue adds
    /// or closes floors, staffing shifts). On a cut, every over-budget
    /// interval evicts its lowest-attendance events until it fits — strictly
    /// within the new budget, so every survivor's slot would re-validate —
    /// and the repair then re-places evicted *available* events at their
    /// best valid slots. An evicted event that is unavailable (withheld) or
    /// fits nowhere under the new budget leaves the schedule, like a
    /// cancellation without backfill.
    ///
    /// Budgets are sanitized: a negative budget acts as `0.0` (evict
    /// everything), and a non-finite budget is ignored (the current budget
    /// stays in force) — a NaN flowing into the feasibility comparisons
    /// would silently disable resource checks.
    pub fn change_capacity(&mut self, budget: f64) -> RepairReport {
        let mut span = ses_obs::span(ses_obs::Stage::Repair);
        let counters_before = self.engine.counters();
        let budget = if budget.is_finite() {
            budget.max(0.0)
        } else {
            self.engine.budget()
        };
        let utility_before = self.engine.total_utility();
        let shrinking = budget < self.engine.budget();
        self.engine.set_budget(budget);
        let mut evicted: Vec<EventId> = Vec::new();
        if shrinking {
            let num_intervals = self.engine.instance().num_intervals();
            for t in (0..num_intervals).map(|t| IntervalId::new(t as u32)) {
                while self.engine.used_resources(t) > budget {
                    let victim = self
                        .engine
                        .schedule()
                        .events_at(t)
                        .iter()
                        .copied()
                        .min_by(|&a, &b| {
                            total_cmp(
                                self.engine.expected_attendance(a).unwrap_or(0.0),
                                self.engine.expected_attendance(b).unwrap_or(0.0),
                            )
                        })
                        .expect("over-budget interval holds at least one event");
                    self.engine
                        .unassign(victim)
                        .expect("victim was scheduled at the interval");
                    evicted.push(victim);
                }
            }
        }
        let utility_disrupted = self.engine.total_utility();
        let mut moves = Vec::new();
        for event in evicted {
            if !self.available[event.index()] {
                continue;
            }
            if let Some((target, _)) = self.best_placement(event) {
                self.engine
                    .assign(event, target)
                    .expect("placement was validated");
                moves.push((event, target));
            }
        }
        span.set_ops(self.engine.counters().delta_since(counters_before).as_ops());
        span.set_aux(moves.len() as u64, 0);
        RepairReport {
            utility_before,
            utility_disrupted,
            utility_after: self.engine.total_utility(),
            moves,
        }
    }

    /// The cancelled event itself can be re-added later (e.g. the act is
    /// rebooked): it is just another unscheduled *available* candidate.
    fn best_unscheduled(&mut self) -> Option<(EventId, IntervalId, f64)> {
        let num_events = self.engine.instance().num_events();
        let mut best: Option<(EventId, IntervalId, f64)> = None;
        for e in (0..num_events).map(|e| EventId::new(e as u32)) {
            if !self.available[e.index()] || self.engine.schedule().contains(e) {
                continue;
            }
            let Some((t, s)) = self.best_placement(e) else {
                continue;
            };
            // `is_ge` keeps the last of equally-scored candidates, matching
            // the `Iterator::max_by` semantics this loop replaced.
            if best.is_none_or(|(_, _, bs)| total_cmp(s, bs).is_ge()) {
                best = Some((e, t, s));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{GreedyScheduler, Scheduler};
    use crate::testkit;

    fn session(seed: u64, k: usize) -> (Arc<crate::instance::SesInstance>, Schedule) {
        let inst = testkit::medium_instance(seed);
        let out = GreedyScheduler::new().run(&inst, k).unwrap();
        (inst, out.schedule)
    }

    #[test]
    fn announce_competing_damages_then_repair_recovers() {
        let (inst, schedule) = session(1, 6);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        let before = s.utility();
        // A strong rival interesting to every user, at a busy interval.
        let busy = s
            .schedule()
            .occupied_intervals()
            .next()
            .expect("schedule is non-empty");
        let postings: Vec<(UserId, f64)> = (0..inst.num_users())
            .map(|u| (UserId::new(u as u32), 0.9))
            .collect();
        let report = s.announce_competing(busy, &postings);
        assert_eq!(report.utility_before, before);
        assert!(
            report.utility_disrupted < report.utility_before,
            "a universally interesting rival must cost attendance"
        );
        assert!(report.utility_after >= report.utility_disrupted - 1e-9);
        assert_eq!(s.schedule().len(), 6, "repairs never change |S|");
        inst.check_schedule(s.schedule()).unwrap();
    }

    #[test]
    fn repair_relocates_away_from_poisoned_interval() {
        let (inst, schedule) = session(3, 4);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        let busy = s
            .schedule()
            .occupied_intervals()
            .max_by_key(|&t| s.schedule().events_at(t).len())
            .unwrap();
        let events_before = s.schedule().events_at(busy).len();
        let postings: Vec<(UserId, f64)> = (0..inst.num_users())
            .map(|u| (UserId::new(u as u32), 1.0))
            .collect();
        // Poison the interval twice to make staying clearly bad.
        s.announce_competing(busy, &postings);
        let report = s.announce_competing(busy, &postings);
        let events_after = s.schedule().events_at(busy).len();
        assert!(
            events_after <= events_before,
            "poisoned interval should not gain events"
        );
        // Any moves recorded must have actually been applied.
        for &(e, t) in &report.moves {
            assert_eq!(s.schedule().interval_of(e), Some(t));
        }
    }

    #[test]
    fn cancel_event_backfills() {
        let (inst, schedule) = session(5, 6);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        let victim = schedule.scheduled_events()[0];
        let report = s.cancel_event(victim).unwrap();
        assert!(!s.schedule().contains(victim) || report.moves.iter().any(|&(e, _)| e == victim));
        // 12 events, 6 scheduled → replacements exist; size restored.
        assert_eq!(s.schedule().len(), 6);
        assert!(report.recovered() >= -1e-9);
        inst.check_schedule(s.schedule()).unwrap();
    }

    #[test]
    fn cancel_unscheduled_event_errors() {
        let (inst, schedule) = session(5, 3);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        let unscheduled = (0..inst.num_events() as u32)
            .map(EventId::new)
            .find(|&e| !schedule.contains(e))
            .unwrap();
        assert!(s.cancel_event(unscheduled).is_err());
    }

    #[test]
    fn extend_adds_the_greedy_best_event() {
        let (inst, schedule) = session(7, 5);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        let before = s.utility();
        let report = s.extend().expect("unscheduled events remain");
        assert_eq!(s.schedule().len(), 6);
        assert!(report.utility_after >= before);
        assert_eq!(report.moves.len(), 1);
        inst.check_schedule(s.schedule()).unwrap();
        // Extending until no event remains terminates cleanly.
        while s.extend().is_some() {}
        assert!(s.schedule().len() <= inst.num_events());
    }

    #[test]
    fn withheld_events_are_skipped_by_backfill_and_extend() {
        let (inst, schedule) = session(11, 4);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        // Hold back every unscheduled candidate.
        let held: Vec<EventId> = (0..inst.num_events() as u32)
            .map(EventId::new)
            .filter(|&e| !schedule.contains(e))
            .collect();
        assert!(!held.is_empty(), "12 events, 4 scheduled");
        for &e in &held {
            s.set_available(e, false);
            assert!(!s.is_available(e));
        }
        assert!(s.extend().is_none(), "extension pool is empty");
        let victim = s.schedule().scheduled_events()[0];
        let report = s.cancel_event(victim).unwrap();
        // The cancelled event itself is still available, so the only legal
        // backfill is re-seating the victim.
        for &(e, _) in &report.moves {
            assert_eq!(e, victim);
        }
    }

    #[test]
    fn arrive_places_a_late_candidate_greedily() {
        let (inst, schedule) = session(13, 4);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        let late = (0..inst.num_events() as u32)
            .map(EventId::new)
            .find(|&e| !schedule.contains(e))
            .unwrap();
        s.set_available(late, false);
        let before = s.utility();
        let report = s.arrive(late).expect("a free slot exists");
        assert!(s.is_available(late));
        assert!(s.schedule().contains(late));
        assert_eq!(report.moves.len(), 1);
        assert!(report.utility_after >= before - 1e-12, "scores are ≥ 0");
        inst.check_schedule(s.schedule()).unwrap();
        // Arriving again is a no-op.
        assert!(s.arrive(late).is_none());
    }

    #[test]
    fn capacity_cut_evicts_until_feasible_and_repairs() {
        let (inst, schedule) = session(17, 6);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        let before = s.utility();
        // Cut the budget to the largest single event, forcing evictions at
        // any interval hosting more than one chunky event.
        let new_budget = inst.budget() / 2.0;
        let report = s.change_capacity(new_budget);
        assert_eq!(s.budget(), new_budget);
        for t in (0..inst.num_intervals()).map(|t| IntervalId::new(t as u32)) {
            let used: f64 = s
                .schedule()
                .events_at(t)
                .iter()
                .map(|&e| inst.event(e).required_resources)
                .sum();
            assert!(used <= new_budget + 1e-9, "interval {t} still over budget");
        }
        assert!(report.utility_before == before);
        assert!(report.utility_after <= report.utility_before + 1e-9);
        assert!(report.recovered() >= -1e-9, "repair only re-adds");
        // Restoring capacity is repair-free and allows re-extension.
        let restore = s.change_capacity(inst.budget());
        assert!(restore.moves.is_empty());
        assert_eq!(restore.utility_disrupted, restore.utility_before);
        while s.extend().is_some() {}
        inst.check_schedule(s.schedule()).unwrap();
    }

    #[test]
    fn capacity_cut_keeps_utility_consistent_with_reference() {
        use crate::testkit::evaluate_schedule;
        let (inst, schedule) = session(19, 6);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        s.change_capacity(inst.budget() * 0.4);
        // No dynamic competing mass was injected, so the session's Ω is
        // the from-scratch reference's, bit for bit.
        let eval = evaluate_schedule(&inst, s.schedule());
        assert_eq!(s.utility().to_bits(), eval.total_utility.to_bits());
    }

    #[test]
    fn rival_announce_after_exact_budget_cut_does_not_panic() {
        // Regression: cut the budget to exactly an interval's usage, then
        // announce a rival there. The relocate pass unassigns each event and
        // must be able to put it back even though a strict re-check of the
        // exactly-at-budget home slot could fail by a float ulp.
        let (inst, schedule) = session(29, 6);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        let busy = s
            .schedule()
            .occupied_intervals()
            .max_by_key(|&t| s.schedule().events_at(t).len())
            .unwrap();
        let used: f64 = s
            .schedule()
            .events_at(busy)
            .iter()
            .map(|&e| inst.event(e).required_resources)
            .sum();
        s.change_capacity(used);
        let postings: Vec<(UserId, f64)> = (0..inst.num_users())
            .map(|u| (UserId::new(u as u32), 0.9))
            .collect();
        // Several rounds; each relocate pass re-seats events at `busy`.
        for _ in 0..3 {
            let report = s.announce_competing(busy, &postings);
            assert!(report.recovered() >= -1e-9);
        }
        assert!(!s.schedule().is_empty());
    }

    #[test]
    fn capacity_cut_does_not_reseat_withheld_events() {
        // Regression: an evicted event whose availability mask is off must
        // not be re-drawn into the schedule by the capacity repair.
        let (inst, schedule) = session(37, 6);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        for e in s.schedule().scheduled_events() {
            s.set_available(e, false);
        }
        let scheduled_before: Vec<EventId> = s.schedule().scheduled_events();
        let report = s.change_capacity(inst.budget() * 0.3);
        // Whatever was evicted stayed out: the surviving schedule is a
        // subset of the original, and no repair moves happened.
        assert!(report.moves.is_empty(), "withheld events were re-seated");
        for e in s.schedule().scheduled_events() {
            assert!(scheduled_before.contains(&e));
        }
    }

    #[test]
    fn change_capacity_sanitizes_degenerate_budgets() {
        // Regression: a negative budget used to spin the eviction loop past
        // an empty interval and panic; NaN used to disable resource checks.
        let (inst, schedule) = session(43, 6);
        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        let report = s.change_capacity(-1.0);
        assert_eq!(s.budget(), 0.0, "negative budget acts as zero");
        assert_eq!(s.schedule().len(), 0, "zero budget evicts everything");
        assert!(report.utility_after.abs() < 1e-9);

        let mut s = OnlineSession::new(&inst, &schedule).unwrap();
        let before = s.budget();
        let report = s.change_capacity(f64::NAN);
        assert_eq!(s.budget(), before, "non-finite budget is ignored");
        assert!(report.moves.is_empty());
        assert_eq!(report.utility_before, report.utility_after);
        // Resource checks still bind: extending past the real budget fails
        // exactly as before the call.
        while s.extend().is_some() {}
        inst.check_schedule(s.schedule()).unwrap();
    }

    #[test]
    fn cached_and_exhaustive_repairs_agree_bit_for_bit() {
        // The dirty-interval score cache must be invisible in every output:
        // same repair reports (float bits included), same schedules, same
        // Ω — while doing strictly less scoring work on a long stream.
        let (inst, schedule) = session(23, 6);
        let mut cached = OnlineSession::new(&inst, &schedule).unwrap();
        let mut full = OnlineSession::new(&inst, &schedule).unwrap();
        full.set_exhaustive_rescan(true);
        let postings: Vec<(UserId, f64)> = (0..inst.num_users())
            .step_by(2)
            .map(|u| (UserId::new(u as u32), 0.6))
            .collect();
        let busy = schedule.occupied_intervals().next().unwrap();
        for round in 0..4 {
            let a = cached.announce_competing(busy, &postings);
            let b = full.announce_competing(busy, &postings);
            assert_eq!(a, b, "announce round {round}");
            let victim = cached.schedule().scheduled_events()[0];
            assert_eq!(victim, full.schedule().scheduled_events()[0]);
            let a = cached.cancel_event(victim).unwrap();
            let b = full.cancel_event(victim).unwrap();
            assert_eq!(a, b, "cancel round {round}");
            assert_eq!(cached.extend(), full.extend(), "extend round {round}");
            assert_eq!(cached.schedule(), full.schedule(), "round {round}");
            assert_eq!(
                cached.utility().to_bits(),
                full.utility().to_bits(),
                "round {round}"
            );
        }
        let (c, f) = (cached.counters(), full.counters());
        assert!(
            c.score_evaluations < f.score_evaluations,
            "cache saved nothing: {} vs {}",
            c.score_evaluations,
            f.score_evaluations
        );
        assert!(c.posting_visits < f.posting_visits);
    }

    #[test]
    fn report_accessors() {
        let r = RepairReport {
            utility_before: 10.0,
            utility_disrupted: 7.0,
            utility_after: 9.0,
            moves: vec![],
        };
        assert!((r.recovered() - 2.0).abs() < 1e-12);
    }
}
