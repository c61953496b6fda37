//! The [`SchedulerService`] facade: owned instances in, typed responses out.
//!
//! The stateless entry points — [`solve`], [`evaluate`] and an open's
//! [`prepare_session`] — are free functions: they read only the instance
//! they are handed, so any thread may run them. [`SchedulerService`] holds
//! what is left, the named live sessions.

use crate::error::ServiceError;
use crate::types::{
    EvalRequest, EvalResponse, EventAttendance, EventReport, InstanceName, SessionEvent,
    SessionOpen, SessionReport, SolveRequest, SolveResponse,
};
use ses_core::{
    registry, EventId, IntervalId, OnlineSession, RepairReport, ScheduleError, ScheduleOutcome,
    SchedulerSpec, SesInstance,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Runs `spec` for `k` events under a `solve` span carrying the engine ops
/// and the selection's pops/updates.
fn run_solver(
    inst: &Arc<SesInstance>,
    spec: SchedulerSpec,
    k: usize,
) -> Result<ScheduleOutcome, ServiceError> {
    let mut span = ses_obs::span(ses_obs::Stage::Solve);
    let outcome = registry::build(spec).run(inst, k)?;
    span.set_ops(outcome.stats.engine.as_ops());
    span.set_aux(outcome.stats.pops, outcome.stats.updates);
    Ok(outcome)
}

/// Runs the requested algorithm on an instance (offline, stateless).
pub fn solve(inst: &Arc<SesInstance>, req: &SolveRequest) -> Result<SolveResponse, ServiceError> {
    let outcome = run_solver(inst, req.spec, req.k)?;
    Ok(SolveResponse::from_outcome(req.spec, &outcome))
}

/// Evaluates an explicit schedule against an instance: feasibility is
/// checked, then Ω and per-event attendance are computed from the
/// instance's shared engine index ([`ses_core::evaluate`]).
pub fn evaluate(inst: &Arc<SesInstance>, req: &EvalRequest) -> Result<EvalResponse, ServiceError> {
    let mut schedule = inst.empty_schedule();
    for a in &req.assignments {
        schedule.assign(a.event, a.interval)?;
    }
    inst.check_schedule(&schedule)?;
    let eval = ses_core::evaluate(inst, &schedule);
    Ok(EvalResponse {
        total_utility: eval.total_utility,
        per_event: eval
            .per_event
            .iter()
            .map(|&(event, interval, expected_attendance)| EventAttendance {
                event,
                interval,
                expected_attendance,
            })
            .collect(),
    })
}

/// The stateless half of a session open: solves the initial schedule and
/// builds the live session over it, ready for
/// [`SchedulerService::adopt_session`].
pub fn prepare_session(
    inst: &Arc<SesInstance>,
    open: &SessionOpen,
) -> Result<(OnlineSession, SolveResponse), ServiceError> {
    let outcome = run_solver(inst, open.spec, open.k)?;
    let session = OnlineSession::new(inst, &outcome.schedule)?;
    Ok((session, SolveResponse::from_outcome(open.spec, &outcome)))
}

/// One live session plus its service-level accounting.
struct SessionEntry {
    session: OnlineSession,
    events_applied: u64,
    /// The registry name of the instance the session was opened against
    /// (echoed in every [`SessionReport`]).
    instance: InstanceName,
}

/// The named live sessions, each bound to its own owned instance.
///
/// The service holds only owned state (`Arc` handles and sessions), so it is
/// `Send + 'static`: wrap it in a `Mutex`/`RwLock` and it serves threads, or
/// keep one per shard. Different sessions may be bound to *different*
/// instances — the multi-tenant shape a server needs. Sessions are
/// addressed by name ([`Self::open_session`], [`Self::apply`], …); the
/// stateless entry points are the free functions [`solve`] and
/// [`evaluate`].
#[derive(Default)]
pub struct SchedulerService {
    sessions: HashMap<String, SessionEntry>,
    /// Whether a write-ahead log persists this service's session events
    /// (set by the durability layer; echoed in every [`SessionReport`]).
    durable: bool,
}

impl SchedulerService {
    /// An empty service with no open sessions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks this service's sessions as backed by a write-ahead log. The
    /// owner that appends events ahead of [`Self::apply`] calls this once;
    /// every [`SessionReport`] then carries `durable: true`.
    pub fn set_durable(&mut self, durable: bool) {
        self.durable = durable;
    }

    /// Solves an initial schedule and opens a named live session over it:
    /// [`prepare_session`], then [`Self::adopt_session`]. Fails if the name
    /// is taken.
    pub fn open_session(
        &mut self,
        inst: &Arc<SesInstance>,
        open: &SessionOpen,
    ) -> Result<SolveResponse, ServiceError> {
        let (session, response) = prepare_session(inst, open)?;
        self.adopt_session(open.name.clone(), open.instance.clone(), session)?;
        Ok(response)
    }

    /// Adopts an externally built session under a name, bound to the
    /// registry name of its instance (e.g. one from [`prepare_session`], or
    /// one whose schedule was loaded from disk). Fails if the name is taken.
    pub fn adopt_session(
        &mut self,
        name: impl Into<String>,
        instance: InstanceName,
        session: OnlineSession,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        if self.sessions.contains_key(&name) {
            return Err(ServiceError::SessionExists(name));
        }
        self.sessions.insert(
            name,
            SessionEntry {
                session,
                events_applied: 0,
                instance,
            },
        );
        Ok(())
    }

    /// Applies one [`SessionEvent`] to a named session and reports what the
    /// repair machinery did.
    ///
    /// Events referencing entities outside the session's instance are
    /// rejected with a typed error *before* touching the session. Events
    /// that are well-formed but have nothing to do — cancelling an event
    /// that is not scheduled, an arrival that fits nowhere, an extension
    /// with an empty pool — succeed with `applied: false` (a live workload
    /// naturally races against the schedule; that is not a client bug).
    pub fn apply(&mut self, name: &str, event: &SessionEvent) -> Result<EventReport, ServiceError> {
        let entry = self
            .sessions
            .get_mut(name)
            .ok_or_else(|| ServiceError::UnknownSession(name.to_owned()))?;
        // Validate against the instance before mutating anything.
        validate_event(entry.session.instance(), event)?;
        let session = &mut entry.session;
        let mut span = ses_obs::span(ses_obs::Stage::Apply);
        let counters_before = session.counters();
        let (applied, report): (bool, Option<RepairReport>) = match event {
            SessionEvent::Announce(a) => {
                let r = session.announce_competing(a.interval, &a.postings);
                (true, Some(r))
            }
            SessionEvent::Cancel(c) => match session.cancel_event(c.event) {
                Ok(r) => (true, Some(r)),
                Err(ScheduleError::NotAssigned { .. }) => (false, None),
                Err(e) => return Err(e.into()),
            },
            SessionEvent::Arrive(a) => match session.arrive(a.event) {
                Some(r) => (true, Some(r)),
                None => (false, None),
            },
            SessionEvent::Capacity(c) => {
                let r = session.change_capacity(c.budget);
                (true, Some(r))
            }
            SessionEvent::SetAvailable(av) => {
                session.set_available(av.event, av.available);
                (true, None)
            }
            SessionEvent::Extend => match session.extend() {
                Some(r) => (true, Some(r)),
                None => (false, None),
            },
        };
        span.set_ops(session.counters().delta_since(counters_before).as_ops());
        let moves = report.as_ref().map_or(0, |r| r.moves.len() as u64);
        span.set_aux(moves, u64::from(applied));
        drop(span);
        entry.events_applied += 1;
        Ok(EventReport {
            applied,
            report,
            utility: entry.session.utility(),
            scheduled: entry.session.schedule().len(),
            // The WAL layer (when present) stamps the real LSN after the
            // append; `0` means the event was not durably logged.
            lsn: 0,
        })
    }

    /// Read access to a named session (for views, traces, metrics).
    pub fn session(&self, name: &str) -> Option<&OnlineSession> {
        self.sessions.get(name).map(|e| &e.session)
    }

    /// A point-in-time report of a named session.
    pub fn report(&self, name: &str) -> Result<SessionReport, ServiceError> {
        let entry = self.entry(name)?;
        Ok(SessionReport {
            name: name.to_owned(),
            utility: entry.session.utility(),
            scheduled: entry.session.schedule().len(),
            budget: entry.session.budget(),
            events_applied: entry.events_applied,
            counters: entry.session.counters(),
            clock: entry.session.clock(),
            memory: entry.session.memory_stats(),
            instance: entry.instance.clone(),
            durable: self.durable,
        })
    }

    /// Closes a named session, returning its final report.
    pub fn close_session(&mut self, name: &str) -> Result<SessionReport, ServiceError> {
        let report = self.report(name)?;
        self.sessions.remove(name);
        Ok(report)
    }

    /// Removes and returns a named session (e.g. to hand it to another
    /// owner), keeping no service-side state.
    pub fn take_session(&mut self, name: &str) -> Option<OnlineSession> {
        self.sessions.remove(name).map(|e| e.session)
    }

    /// Names of all open sessions, sorted.
    pub fn session_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.sessions.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    fn entry(&self, name: &str) -> Result<&SessionEntry, ServiceError> {
        self.sessions
            .get(name)
            .ok_or_else(|| ServiceError::UnknownSession(name.to_owned()))
    }
}

/// Bounds- and range-checks an event against an instance.
fn validate_event(inst: &SesInstance, event: &SessionEvent) -> Result<(), ServiceError> {
    let check_event = |e: EventId| -> Result<(), ServiceError> {
        if e.index() >= inst.num_events() {
            Err(ScheduleError::EventOutOfBounds {
                event: e,
                num_events: inst.num_events(),
            }
            .into())
        } else {
            Ok(())
        }
    };
    let check_interval = |t: IntervalId| -> Result<(), ServiceError> {
        if t.index() >= inst.num_intervals() {
            Err(ScheduleError::IntervalOutOfBounds {
                interval: t,
                num_intervals: inst.num_intervals(),
            }
            .into())
        } else {
            Ok(())
        }
    };
    match event {
        SessionEvent::Announce(a) => {
            check_interval(a.interval)?;
            for &(u, mu) in &a.postings {
                if u.index() >= inst.num_users() {
                    return Err(ServiceError::InvalidRequest(format!(
                        "posting user {u} out of bounds (|U| = {})",
                        inst.num_users()
                    )));
                }
                if !mu.is_finite() || !(0.0..=1.0).contains(&mu) {
                    return Err(ServiceError::InvalidRequest(format!(
                        "posting interest µ({u}) = {mu} outside [0, 1]"
                    )));
                }
            }
            Ok(())
        }
        SessionEvent::Cancel(c) => check_event(c.event),
        SessionEvent::Arrive(a) => check_event(a.event),
        SessionEvent::SetAvailable(av) => check_event(av.event),
        SessionEvent::Capacity(_) | SessionEvent::Extend => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Announcement, Arrival, Availability, Cancellation, CapacityChange};
    use ses_core::{testkit, SchedulerSpec, UserId};

    fn open(service: &mut SchedulerService, name: &str, seed: u64, k: usize) -> SolveResponse {
        let inst = testkit::medium_instance(seed);
        service
            .open_session(
                &inst,
                &SessionOpen {
                    name: name.to_owned(),
                    spec: SchedulerSpec::Greedy,
                    k,
                    instance: InstanceName::default(),
                },
            )
            .unwrap()
    }

    #[test]
    fn solve_matches_direct_scheduler_run() {
        let inst = testkit::medium_instance(5);
        let resp = solve(
            &inst,
            &SolveRequest {
                spec: SchedulerSpec::Greedy,
                k: 6,
                instance: InstanceName::default(),
            },
        )
        .unwrap();
        let direct = registry::build(SchedulerSpec::Greedy)
            .run(&inst, 6)
            .unwrap();
        assert_eq!(resp.algorithm, "GRD");
        assert_eq!(resp.scheduled(), direct.schedule.len());
        assert_eq!(resp.total_utility.to_bits(), direct.total_utility.to_bits());
        assert!(resp.complete);
    }

    #[test]
    fn solve_surfaces_typed_solver_errors() {
        let inst = testkit::medium_instance(5);
        let err = solve(
            &inst,
            &SolveRequest {
                spec: SchedulerSpec::Greedy,
                k: 10_000,
                instance: InstanceName::default(),
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Core(ses_core::Error::Solver(_))
        ));
    }

    #[test]
    fn evaluate_round_trips_a_solve() {
        let inst = testkit::medium_instance(7);
        let solved = solve(
            &inst,
            &SolveRequest {
                spec: SchedulerSpec::Greedy,
                k: 5,
                instance: InstanceName::default(),
            },
        )
        .unwrap();
        let eval = evaluate(
            &inst,
            &EvalRequest {
                assignments: solved.assignments.clone(),
                instance: InstanceName::default(),
            },
        )
        .unwrap();
        assert_eq!(eval.total_utility.to_bits(), solved.total_utility.to_bits());
        assert_eq!(eval.per_event.len(), solved.scheduled());
    }

    #[test]
    fn evaluate_rejects_infeasible_schedules() {
        let inst = testkit::single_slot_shared_location(3);
        use ses_core::Assignment;
        // Two events at the same location in the one interval.
        let err = evaluate(
            &inst,
            &EvalRequest {
                assignments: vec![
                    Assignment::new(EventId::new(0), IntervalId::new(0)),
                    Assignment::new(EventId::new(1), IntervalId::new(0)),
                ],
                instance: InstanceName::default(),
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Core(ses_core::Error::Feasibility(_))
        ));
    }

    #[test]
    fn a_session_reports_the_omega_it_opened_with() {
        let mut service = SchedulerService::new();
        for (name, seed, k) in [("a", 1, 4), ("b", 2, 6), ("c", 9, 8)] {
            let opened = open(&mut service, name, seed, k);
            let report = service.report(name).unwrap();
            assert_eq!(report.utility.to_bits(), opened.total_utility.to_bits());
        }
    }

    #[test]
    fn sessions_are_named_and_isolated() {
        let mut service = SchedulerService::new();
        let a = open(&mut service, "a", 1, 4);
        let b = open(&mut service, "b", 2, 6);
        assert_eq!(service.session_names(), ["a", "b"]);
        assert_eq!(service.report("a").unwrap().scheduled, a.scheduled());
        assert_eq!(service.report("b").unwrap().scheduled, b.scheduled());
        // Same name twice is a typed error.
        let inst = testkit::medium_instance(3);
        let err = service
            .open_session(
                &inst,
                &SessionOpen {
                    name: "a".into(),
                    spec: SchedulerSpec::Greedy,
                    k: 2,
                    instance: InstanceName::default(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::SessionExists(_)));
        // Unknown names are typed errors.
        assert!(matches!(
            service.report("zzz").unwrap_err(),
            ServiceError::UnknownSession(_)
        ));
    }

    #[test]
    fn apply_runs_the_full_event_vocabulary() {
        let mut service = SchedulerService::new();
        open(&mut service, "s", 11, 6);
        let inst = service.session("s").unwrap().instance_arc().clone();

        let postings: Vec<(UserId, f64)> = (0..inst.num_users())
            .map(|u| (UserId::new(u as u32), 0.8))
            .collect();
        let busy = service
            .session("s")
            .unwrap()
            .schedule()
            .occupied_intervals()
            .next()
            .unwrap();
        let r = service
            .apply(
                "s",
                &SessionEvent::Announce(Announcement {
                    interval: busy,
                    postings,
                }),
            )
            .unwrap();
        assert!(r.applied);
        let report = r.report.unwrap();
        assert!(report.utility_disrupted < report.utility_before);

        let victim = service.session("s").unwrap().schedule().scheduled_events()[0];
        let r = service
            .apply("s", &SessionEvent::Cancel(Cancellation { event: victim }))
            .unwrap();
        assert!(r.applied);

        // Cancelling an unscheduled event is inert, not an error.
        let unscheduled = (0..inst.num_events() as u32)
            .map(EventId::new)
            .find(|&e| !service.session("s").unwrap().schedule().contains(e))
            .unwrap();
        let r = service
            .apply(
                "s",
                &SessionEvent::Cancel(Cancellation { event: unscheduled }),
            )
            .unwrap();
        assert!(!r.applied && r.report.is_none());

        let r = service
            .apply(
                "s",
                &SessionEvent::SetAvailable(Availability {
                    event: unscheduled,
                    available: false,
                }),
            )
            .unwrap();
        assert!(r.applied && r.report.is_none());
        service
            .apply("s", &SessionEvent::Arrive(Arrival { event: unscheduled }))
            .unwrap();
        assert!(service.session("s").unwrap().is_available(unscheduled));

        let r = service
            .apply(
                "s",
                &SessionEvent::Capacity(CapacityChange {
                    budget: inst.budget() * 0.5,
                }),
            )
            .unwrap();
        assert!(r.applied);
        assert_eq!(service.session("s").unwrap().budget(), inst.budget() * 0.5);

        while service.apply("s", &SessionEvent::Extend).unwrap().applied {}

        let report = service.report("s").unwrap();
        assert!(report.events_applied >= 6);
        assert!(report.utility.is_finite());
        let final_report = service.close_session("s").unwrap();
        assert_eq!(final_report.events_applied, report.events_applied);
        assert!(service.session("s").is_none());
    }

    #[test]
    fn apply_rejects_out_of_universe_references() {
        let mut service = SchedulerService::new();
        open(&mut service, "s", 13, 4);
        let bad_event = EventId::new(10_000);
        let err = service
            .apply(
                "s",
                &SessionEvent::Cancel(Cancellation { event: bad_event }),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Core(ses_core::Error::Schedule(
                ScheduleError::EventOutOfBounds { .. }
            ))
        ));
        let err = service
            .apply(
                "s",
                &SessionEvent::Announce(Announcement {
                    interval: IntervalId::new(9_999),
                    postings: vec![],
                }),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::Core(_)));
        let err = service
            .apply(
                "s",
                &SessionEvent::Announce(Announcement {
                    interval: IntervalId::new(0),
                    postings: vec![(UserId::new(0), 7.0)],
                }),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidRequest(_)));
        // Rejected events never count as applied.
        assert_eq!(service.report("s").unwrap().events_applied, 0);
    }

    #[test]
    fn service_is_send_and_static() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<SchedulerService>();

        // And a whole service can move to another thread mid-flight.
        let mut service = SchedulerService::new();
        open(&mut service, "s", 17, 5);
        let handle = std::thread::spawn(move || {
            let r = service.apply("s", &SessionEvent::Extend).unwrap();
            (r.scheduled, service.report("s").unwrap().utility)
        });
        let (scheduled, utility) = handle.join().unwrap();
        assert!(scheduled >= 5);
        assert!(utility > 0.0);
    }
}
