//! The SES problem instance: everything an algorithm needs to schedule.

use crate::activity::Activity;
use crate::engine::EngineIndex;
use crate::ids::{CompetingEventId, EventId, IntervalId, UserId};
use crate::interest::Interest;
use crate::model::{CandidateEvent, CompetingEvent, Organizer, TimeInterval};
use crate::schedule::Schedule;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Validation failures detected by [`InstanceBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// Entity ids must be dense and in positional order (`events[i].id == i`).
    NonDenseIds {
        /// Which collection is broken.
        what: &'static str,
        /// Position of the offending entity.
        position: usize,
    },
    /// Two candidate intervals overlap in time (the paper requires `T` disjoint).
    OverlappingIntervals {
        /// First interval.
        a: IntervalId,
        /// Second interval.
        b: IntervalId,
    },
    /// A competing event references an interval outside `T`.
    CompetingIntervalOutOfBounds {
        /// The competing event.
        competing: CompetingEventId,
        /// The missing interval.
        interval: IntervalId,
    },
    /// Required resources must be non-negative and finite.
    InvalidRequiredResources {
        /// The event with the bad `ξ`.
        event: EventId,
        /// The rejected value.
        value: f64,
    },
    /// The organizer budget `θ` must be positive.
    InvalidBudget {
        /// The rejected value.
        value: f64,
    },
    /// Interest model universe sizes disagree with the entity collections.
    InterestShapeMismatch {
        /// Expected `(|U|, |E|, |C|)`.
        expected: (usize, usize, usize),
        /// What the interest model reports.
        actual: (usize, usize, usize),
    },
    /// Activity model universe sizes disagree with the entity collections.
    ActivityShapeMismatch {
        /// Expected `(|U|, |T|)`.
        expected: (usize, usize),
        /// What the activity model reports.
        actual: (usize, usize),
    },
    /// A required component was not supplied to the builder.
    Missing {
        /// Which component.
        what: &'static str,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NonDenseIds { what, position } => {
                write!(
                    f,
                    "{what}[{position}] has a non-dense id (expected id == position)"
                )
            }
            ValidationError::OverlappingIntervals { a, b } => {
                write!(
                    f,
                    "candidate intervals {a} and {b} overlap; T must be disjoint"
                )
            }
            ValidationError::CompetingIntervalOutOfBounds {
                competing,
                interval,
            } => {
                write!(
                    f,
                    "competing event {competing} references unknown interval {interval}"
                )
            }
            ValidationError::InvalidRequiredResources { event, value } => {
                write!(
                    f,
                    "event {event} has invalid required resources ξ = {value}"
                )
            }
            ValidationError::InvalidBudget { value } => {
                write!(f, "organizer budget θ = {value} must be positive")
            }
            ValidationError::InterestShapeMismatch { expected, actual } => write!(
                f,
                "interest model shape {actual:?} does not match instance {expected:?} (|U|,|E|,|C|)"
            ),
            ValidationError::ActivityShapeMismatch { expected, actual } => write!(
                f,
                "activity model shape {actual:?} does not match instance {expected:?} (|U|,|T|)"
            ),
            ValidationError::Missing { what } => write!(f, "instance is missing {what}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// A feasibility violation of an assignment or a whole schedule
/// (paper §II, "Feasibility").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeasibilityViolation {
    /// Two events at the same interval share a location.
    LocationConflict {
        /// The interval where the conflict occurs.
        interval: IntervalId,
        /// The already-present event.
        existing: EventId,
        /// The conflicting event.
        incoming: EventId,
    },
    /// The per-interval resource budget `θ` would be exceeded.
    ResourcesExceeded {
        /// The interval where the budget breaks.
        interval: IntervalId,
        /// Resources already in use at the interval.
        used: f64,
        /// Resources the incoming event requires.
        requested: f64,
        /// The budget.
        budget: f64,
    },
    /// The event is already scheduled (`e ∈ E(S)` — assignment not *valid*).
    EventAlreadyScheduled {
        /// The event in question.
        event: EventId,
    },
}

impl fmt::Display for FeasibilityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeasibilityViolation::LocationConflict {
                interval,
                existing,
                incoming,
            } => write!(
                f,
                "location conflict at {interval}: {incoming} clashes with {existing}"
            ),
            FeasibilityViolation::ResourcesExceeded {
                interval,
                used,
                requested,
                budget,
            } => write!(
                f,
                "resources exceeded at {interval}: {used} used + {requested} requested > θ = {budget}"
            ),
            FeasibilityViolation::EventAlreadyScheduled { event } => {
                write!(f, "event {event} is already scheduled")
            }
        }
    }
}

impl std::error::Error for FeasibilityViolation {}

/// An immutable, validated SES problem instance: the entity collections
/// plus the two per-user inputs, interest µ and activity σ.
///
/// The instance also caches the [`EngineIndex`] every attendance engine
/// over it shares — a pure function of the fields above, built by the
/// first engine and dropped with the instance.
pub struct SesInstance {
    organizer: Organizer,
    intervals: Vec<TimeInterval>,
    events: Vec<CandidateEvent>,
    competing: Vec<CompetingEvent>,
    competing_by_interval: Vec<Vec<CompetingEventId>>,
    interest: Interest,
    activity: Activity,
    engine_index: OnceLock<Arc<EngineIndex>>,
}

impl fmt::Debug for SesInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SesInstance")
            .field("num_users", &self.num_users())
            .field("num_events", &self.num_events())
            .field("num_intervals", &self.num_intervals())
            .field("num_competing", &self.num_competing())
            .field("theta", &self.organizer.available_resources)
            .finish()
    }
}

impl SesInstance {
    /// Starts building an instance.
    pub fn builder() -> InstanceBuilder {
        InstanceBuilder::default()
    }

    /// The organizer.
    #[inline]
    pub fn organizer(&self) -> &Organizer {
        &self.organizer
    }

    /// The shared engine index, built on first use (a concurrent first
    /// use waits for the one build).
    pub(crate) fn engine_index(&self) -> &Arc<EngineIndex> {
        self.engine_index
            .get_or_init(|| Arc::new(EngineIndex::build(self)))
    }

    /// The per-interval resource budget `θ`.
    #[inline]
    pub fn budget(&self) -> f64 {
        self.organizer.available_resources
    }

    /// Candidate time intervals `T`.
    #[inline]
    pub fn intervals(&self) -> &[TimeInterval] {
        &self.intervals
    }

    /// Candidate events `E`.
    #[inline]
    pub fn events(&self) -> &[CandidateEvent] {
        &self.events
    }

    /// Competing events `C`.
    #[inline]
    pub fn competing(&self) -> &[CompetingEvent] {
        &self.competing
    }

    /// A candidate event by id.
    #[inline]
    pub fn event(&self, e: EventId) -> &CandidateEvent {
        &self.events[e.index()]
    }

    /// An interval by id.
    #[inline]
    pub fn interval(&self, t: IntervalId) -> &TimeInterval {
        &self.intervals[t.index()]
    }

    /// Competing events pinned to interval `t` (`C_t` in the paper).
    #[inline]
    pub fn competing_at(&self, t: IntervalId) -> &[CompetingEventId] {
        &self.competing_by_interval[t.index()]
    }

    /// Number of users `|U|`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.interest.num_users()
    }

    /// Number of candidate events `|E|`.
    #[inline]
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of intervals `|T|`.
    #[inline]
    pub fn num_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Number of competing events `|C|`.
    #[inline]
    pub fn num_competing(&self) -> usize {
        self.competing.len()
    }

    /// The interest function `µ`.
    #[inline]
    pub fn interest(&self) -> &Interest {
        &self.interest
    }

    /// The activity probability `σ`.
    #[inline]
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// Convenience: `µ(u, e)` for a candidate event.
    #[inline]
    pub fn mu(&self, u: UserId, e: EventId) -> f64 {
        self.interest.interest(u, e.into())
    }

    /// Convenience: `σ(u, t)`.
    #[inline]
    pub fn sigma(&self, u: UserId, t: IntervalId) -> f64 {
        self.activity.sigma(u, t)
    }

    /// An empty schedule sized for this instance.
    pub fn empty_schedule(&self) -> Schedule {
        Schedule::empty(self.num_events(), self.num_intervals())
    }

    /// Σξ over `present` and `incoming`, the one place resources at an
    /// interval are summed: ascending ξ from 0.0, so the bits depend only on
    /// the set, and (since rounded addition of non-negative terms is
    /// monotone) a subset never sums higher than its superset.
    pub fn resources_of(&self, present: &[EventId], incoming: Option<EventId>) -> f64 {
        // Sorted on the stack for up to 16 events: placement searches check
        // every interval for every candidate.
        let (mut inline, mut spilled) = ([0.0f64; 16], None);
        let n = present.len() + usize::from(incoming.is_some());
        let xi = match inline.get_mut(..n) {
            Some(xi) => xi,
            None => spilled.insert(vec![0.0; n]).as_mut_slice(),
        };
        for (x, e) in xi.iter_mut().zip(present.iter().chain(incoming.as_ref())) {
            *x = self.event(*e).required_resources;
        }
        xi.sort_unstable_by(f64::total_cmp);
        xi.iter().fold(0.0, |used, &x| used + x)
    }

    /// The feasibility rule at one interval (paper §II): `incoming` may join
    /// `present`, the events at `interval`, iff none of them holds its
    /// location and [`Self::resources_of`] the union fits `budget`. So every
    /// subset of a feasible set is feasible, in any assignment order.
    pub fn check_join(
        &self,
        interval: IntervalId,
        present: &[EventId],
        incoming: EventId,
        budget: f64,
    ) -> Result<(), FeasibilityViolation> {
        let ev = self.event(incoming);
        if let Some(&existing) = present
            .iter()
            .find(|&&e| self.event(e).location == ev.location)
        {
            return Err(FeasibilityViolation::LocationConflict {
                interval,
                existing,
                incoming,
            });
        }
        if self.resources_of(present, Some(incoming)) > budget {
            return Err(FeasibilityViolation::ResourcesExceeded {
                interval,
                used: self.resources_of(present, None),
                requested: ev.required_resources,
                budget,
            });
        }
        Ok(())
    }

    /// Checks whether adding `event → interval` to `schedule` keeps it
    /// feasible under `budget` (the instance's θ, or an engine's live one)
    /// and valid.
    pub fn check_assignment(
        &self,
        schedule: &Schedule,
        event: EventId,
        interval: IntervalId,
        budget: f64,
    ) -> Result<(), FeasibilityViolation> {
        if schedule.contains(event) {
            return Err(FeasibilityViolation::EventAlreadyScheduled { event });
        }
        self.check_join(interval, schedule.events_at(interval), event, budget)
    }

    /// Checks a whole schedule for feasibility (both constraints at every
    /// interval): each event must be able to join the ones assigned before
    /// it. Used by tests and by loaders of external schedules.
    pub fn check_schedule(&self, schedule: &Schedule) -> Result<(), FeasibilityViolation> {
        for t in 0..self.num_intervals() {
            let t = IntervalId::new(t as u32);
            let events = schedule.events_at(t);
            for (i, &e) in events.iter().enumerate() {
                self.check_join(t, &events[..i], e, self.budget())?;
            }
        }
        Ok(())
    }
}

/// Builder for [`SesInstance`]; validates everything listed in
/// [`ValidationError`].
#[derive(Default)]
pub struct InstanceBuilder {
    organizer: Option<Organizer>,
    intervals: Vec<TimeInterval>,
    events: Vec<CandidateEvent>,
    competing: Vec<CompetingEvent>,
    interest: Option<Interest>,
    activity: Option<Activity>,
}

impl InstanceBuilder {
    /// Sets the organizer (budget `θ`).
    pub fn organizer(mut self, organizer: Organizer) -> Self {
        self.organizer = Some(organizer);
        self
    }

    /// Sets the candidate intervals `T`.
    pub fn intervals(mut self, intervals: Vec<TimeInterval>) -> Self {
        self.intervals = intervals;
        self
    }

    /// Sets the candidate events `E`.
    pub fn events(mut self, events: Vec<CandidateEvent>) -> Self {
        self.events = events;
        self
    }

    /// Sets the competing events `C`.
    pub fn competing(mut self, competing: Vec<CompetingEvent>) -> Self {
        self.competing = competing;
        self
    }

    /// Sets the interest function `µ`.
    pub fn interest(mut self, interest: Interest) -> Self {
        self.interest = Some(interest);
        self
    }

    /// Sets the activity probability `σ`.
    pub fn activity(mut self, activity: Activity) -> Self {
        self.activity = Some(activity);
        self
    }

    /// Validates and builds the instance behind a shared handle — the form
    /// every engine, session and service consumes. Equivalent to
    /// `build().map(Arc::new)`.
    pub fn build_shared(self) -> Result<Arc<SesInstance>, ValidationError> {
        self.build().map(Arc::new)
    }

    /// Validates and builds the instance.
    pub fn build(self) -> Result<SesInstance, ValidationError> {
        let organizer = self
            .organizer
            .ok_or(ValidationError::Missing { what: "organizer" })?;
        let interest = self.interest.ok_or(ValidationError::Missing {
            what: "interest model",
        })?;
        let activity = self.activity.ok_or(ValidationError::Missing {
            what: "activity model",
        })?;

        // NaN must fail this check too, hence the negated comparison.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(organizer.available_resources > 0.0) {
            return Err(ValidationError::InvalidBudget {
                value: organizer.available_resources,
            });
        }

        for (i, t) in self.intervals.iter().enumerate() {
            if t.id.index() != i {
                return Err(ValidationError::NonDenseIds {
                    what: "intervals",
                    position: i,
                });
            }
        }
        for (i, e) in self.events.iter().enumerate() {
            if e.id.index() != i {
                return Err(ValidationError::NonDenseIds {
                    what: "events",
                    position: i,
                });
            }
            if !e.required_resources.is_finite() || e.required_resources < 0.0 {
                return Err(ValidationError::InvalidRequiredResources {
                    event: e.id,
                    value: e.required_resources,
                });
            }
        }
        for (i, c) in self.competing.iter().enumerate() {
            if c.id.index() != i {
                return Err(ValidationError::NonDenseIds {
                    what: "competing",
                    position: i,
                });
            }
            if c.interval.index() >= self.intervals.len() {
                return Err(ValidationError::CompetingIntervalOutOfBounds {
                    competing: c.id,
                    interval: c.interval,
                });
            }
        }

        // Disjointness: sort by start, check neighbours. O(|T| log |T|).
        let mut order: Vec<usize> = (0..self.intervals.len()).collect();
        order.sort_unstable_by_key(|&i| self.intervals[i].start);
        for w in order.windows(2) {
            let (a, b) = (&self.intervals[w[0]], &self.intervals[w[1]]);
            if a.overlaps(b) {
                return Err(ValidationError::OverlappingIntervals { a: a.id, b: b.id });
            }
        }

        let expected_interest = (
            interest.num_users(),
            self.events.len(),
            self.competing.len(),
        );
        let actual_interest = (
            interest.num_users(),
            interest.num_candidates(),
            interest.num_competing(),
        );
        if expected_interest != actual_interest {
            return Err(ValidationError::InterestShapeMismatch {
                expected: expected_interest,
                actual: actual_interest,
            });
        }

        let expected_activity = (interest.num_users(), self.intervals.len());
        let actual_activity = (activity.num_users(), activity.num_intervals());
        if expected_activity != actual_activity {
            return Err(ValidationError::ActivityShapeMismatch {
                expected: expected_activity,
                actual: actual_activity,
            });
        }

        let mut competing_by_interval = vec![Vec::new(); self.intervals.len()];
        for c in &self.competing {
            competing_by_interval[c.interval.index()].push(c.id);
        }

        Ok(SesInstance {
            organizer,
            intervals: self.intervals,
            events: self.events,
            competing: self.competing,
            competing_by_interval,
            interest,
            activity,
            engine_index: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;
    use crate::ids::LocationId;
    use crate::interest::InterestBuilder;
    use crate::model::uniform_grid;

    /// 2 users, 3 events (two sharing location 0), 2 intervals, 1 competing
    /// event at t0, θ = 10.
    fn tiny() -> SesInstance {
        let mut interest = InterestBuilder::new(2, 3, 1);
        interest.set(UserId::new(0), EventId::new(0), 0.8).unwrap();
        interest.set(UserId::new(0), EventId::new(1), 0.4).unwrap();
        interest.set(UserId::new(1), EventId::new(2), 0.6).unwrap();
        interest
            .set(UserId::new(0), CompetingEventId::new(0), 0.5)
            .unwrap();
        SesInstance::builder()
            .organizer(Organizer::new(10.0))
            .intervals(uniform_grid(2, 100))
            .events(vec![
                CandidateEvent::new(EventId::new(0), LocationId::new(0), 4.0),
                CandidateEvent::new(EventId::new(1), LocationId::new(0), 4.0),
                CandidateEvent::new(EventId::new(2), LocationId::new(1), 8.0),
            ])
            .competing(vec![CompetingEvent::new(
                CompetingEventId::new(0),
                IntervalId::new(0),
            )])
            .interest(interest.build().unwrap())
            .activity(Activity::constant(2, 2, 1.0).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_exposes_shape() {
        let inst = tiny();
        assert_eq!(inst.num_users(), 2);
        assert_eq!(inst.num_events(), 3);
        assert_eq!(inst.num_intervals(), 2);
        assert_eq!(inst.num_competing(), 1);
        assert_eq!(
            inst.competing_at(IntervalId::new(0)),
            &[CompetingEventId::new(0)]
        );
        assert!(inst.competing_at(IntervalId::new(1)).is_empty());
        assert_eq!(inst.mu(UserId::new(0), EventId::new(0)), 0.8);
        assert_eq!(inst.sigma(UserId::new(1), IntervalId::new(1)), 1.0);
        let dbg = format!("{inst:?}");
        assert!(dbg.contains("num_events: 3"));
    }

    #[test]
    fn check_assignment_location_conflict() {
        let inst = tiny();
        let mut s = inst.empty_schedule();
        s.assign(EventId::new(0), IntervalId::new(0)).unwrap();
        // e1 shares location 0 with e0.
        let err = inst
            .check_assignment(&s, EventId::new(1), IntervalId::new(0), inst.budget())
            .unwrap_err();
        assert!(matches!(err, FeasibilityViolation::LocationConflict { .. }));
        // Different interval is fine.
        inst.check_assignment(&s, EventId::new(1), IntervalId::new(1), inst.budget())
            .unwrap();
    }

    #[test]
    fn check_assignment_resources() {
        let inst = tiny();
        let mut s = inst.empty_schedule();
        s.assign(EventId::new(0), IntervalId::new(0)).unwrap(); // uses 4
                                                                // e2 requires 8; 4 + 8 > 10.
        let err = inst
            .check_assignment(&s, EventId::new(2), IntervalId::new(0), inst.budget())
            .unwrap_err();
        assert!(matches!(
            err,
            FeasibilityViolation::ResourcesExceeded { .. }
        ));
    }

    #[test]
    fn check_assignment_already_scheduled() {
        let inst = tiny();
        let mut s = inst.empty_schedule();
        s.assign(EventId::new(0), IntervalId::new(0)).unwrap();
        let err = inst
            .check_assignment(&s, EventId::new(0), IntervalId::new(1), inst.budget())
            .unwrap_err();
        assert!(matches!(
            err,
            FeasibilityViolation::EventAlreadyScheduled { .. }
        ));
    }

    #[test]
    fn check_schedule_detects_violations() {
        let inst = tiny();
        let mut s = inst.empty_schedule();
        s.assign(EventId::new(0), IntervalId::new(0)).unwrap();
        s.assign(EventId::new(1), IntervalId::new(0)).unwrap(); // same location
        assert!(matches!(
            inst.check_schedule(&s).unwrap_err(),
            FeasibilityViolation::LocationConflict { .. }
        ));

        let mut s = inst.empty_schedule();
        s.assign(EventId::new(0), IntervalId::new(1)).unwrap();
        s.assign(EventId::new(2), IntervalId::new(0)).unwrap();
        inst.check_schedule(&s).unwrap();
    }

    #[test]
    fn resources_of_reads_only_the_set() {
        // 20 events: past the 16-slot stack buffer.
        let xi: Vec<f64> = (0..20).map(|i| 0.1 + f64::from(i) * 0.37).collect();
        let inst = SesInstance::builder()
            .organizer(Organizer::new(1.0))
            .intervals(uniform_grid(1, 10))
            .events(
                (0..20u32)
                    .map(|e| {
                        CandidateEvent::new(EventId::new(e), LocationId::new(e), xi[e as usize])
                    })
                    .collect(),
            )
            .interest(InterestBuilder::new(0, 20, 0).build().unwrap())
            .activity(Activity::constant(0, 1, 0.5).unwrap())
            .build()
            .unwrap();
        let ids: Vec<EventId> = (0..20).map(EventId::new).collect();
        let ascending = xi.iter().fold(0.0, |used, &x| used + x);
        for n in [0, 1, 2, 15, 16, 17, 20] {
            let mut order = ids[..n].to_vec();
            let expected = inst.resources_of(&order, None);
            order.reverse();
            assert_eq!(
                inst.resources_of(&order, None).to_bits(),
                expected.to_bits()
            );
            if let Some((&last, rest)) = order.split_last() {
                let joined = inst.resources_of(rest, Some(last));
                assert_eq!(joined.to_bits(), expected.to_bits(), "n = {n}");
            }
        }
        assert_eq!(inst.resources_of(&ids, None).to_bits(), ascending.to_bits());
    }

    #[test]
    fn builder_rejects_overlapping_intervals() {
        let err = SesInstance::builder()
            .organizer(Organizer::new(1.0))
            .intervals(vec![
                TimeInterval::new(IntervalId::new(0), 0, 10),
                TimeInterval::new(IntervalId::new(1), 5, 15),
            ])
            .interest(InterestBuilder::new(0, 0, 0).build().unwrap())
            .activity(Activity::constant(0, 2, 0.5).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidationError::OverlappingIntervals { .. }));
    }

    #[test]
    fn builder_rejects_non_dense_ids() {
        let err = SesInstance::builder()
            .organizer(Organizer::new(1.0))
            .intervals(vec![TimeInterval::new(IntervalId::new(3), 0, 10)])
            .interest(InterestBuilder::new(0, 0, 0).build().unwrap())
            .activity(Activity::constant(0, 1, 0.5).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidationError::NonDenseIds { .. }));
    }

    #[test]
    fn builder_rejects_bad_budget_and_missing_parts() {
        let err = SesInstance::builder()
            .organizer(Organizer::new(0.0))
            .interest(InterestBuilder::new(0, 0, 0).build().unwrap())
            .activity(Activity::constant(0, 0, 0.5).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidationError::InvalidBudget { .. }));

        let err = SesInstance::builder().build().unwrap_err();
        assert!(matches!(
            err,
            ValidationError::Missing { what: "organizer" }
        ));
    }

    #[test]
    fn builder_rejects_shape_mismatches() {
        // Interest has 1 candidate but instance has 0 events.
        let err = SesInstance::builder()
            .organizer(Organizer::new(1.0))
            .interest(InterestBuilder::new(1, 1, 0).build().unwrap())
            .activity(Activity::constant(1, 0, 0.5).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidationError::InterestShapeMismatch { .. }));

        // Activity has wrong number of intervals.
        let err = SesInstance::builder()
            .organizer(Organizer::new(1.0))
            .intervals(uniform_grid(2, 10))
            .interest(InterestBuilder::new(1, 0, 0).build().unwrap())
            .activity(Activity::constant(1, 5, 0.5).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidationError::ActivityShapeMismatch { .. }));
    }

    #[test]
    fn builder_rejects_bad_competing_interval() {
        let err = SesInstance::builder()
            .organizer(Organizer::new(1.0))
            .intervals(uniform_grid(1, 10))
            .competing(vec![CompetingEvent::new(
                CompetingEventId::new(0),
                IntervalId::new(9),
            )])
            .interest(InterestBuilder::new(0, 0, 1).build().unwrap())
            .activity(Activity::constant(0, 1, 0.5).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ValidationError::CompetingIntervalOutOfBounds { .. }
        ));
    }

    #[test]
    fn builder_rejects_negative_resources() {
        let err = SesInstance::builder()
            .organizer(Organizer::new(1.0))
            .intervals(uniform_grid(1, 10))
            .events(vec![CandidateEvent::new(
                EventId::new(0),
                LocationId::new(0),
                -1.0,
            )])
            .interest(InterestBuilder::new(0, 1, 0).build().unwrap())
            .activity(Activity::constant(0, 1, 0.5).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ValidationError::InvalidRequiredResources { .. }
        ));
    }
}
