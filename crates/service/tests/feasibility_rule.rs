//! One feasibility rule for every consumer of a schedule.
//!
//! Both instances below have one interval, θ = 7.787 and three events at
//! distinct locations whose ξ are 2.39, 2.457 and 2.94 in some order. Added
//! in some orders the three sum to 7.787000000000001, which exceeds θ, and
//! in others to at most 7.787. When each consumer summed ξ in its own order
//! (the solver in assignment order, `/eval` and session opens in event-id
//! order, the local search after an unassign/re-assign round trip), GRD's
//! own schedule was rejected downstream and GRD+LS / GRD+SA panicked. Every
//! path now asks the one rule in `SesInstance`, whose sum depends only on
//! the set, so each call below answers with the same three assignments.

use ses_core::{
    schedule_metrics, uniform_grid, Activity, CandidateEvent, CompetingEvent, CompetingEventId,
    EventId, GreedyScheduler, InterestBuilder, IntervalId, LocationId, Organizer, Scheduler,
    SchedulerSpec, SesInstance, UserId,
};
use ses_service::{
    evaluate, prepare_session, solve, EvalRequest, InstanceName, SessionOpen, SolveRequest,
};
use std::sync::Arc;

const THETA: f64 = 7.787;

/// One interval, three users, three events at locations 0, 1, 2 with the
/// given ξ, and user `fans[e]` interested in event `e` with µ = `mus[e]`.
/// A competing event gives µ = 1 to every user, so the three gains differ.
fn instance(xi: [f64; 3], fans: [u32; 3], mus: [f64; 3]) -> Arc<SesInstance> {
    let mut interest = InterestBuilder::new(3, 3, 1);
    for e in 0..3 {
        interest
            .set(UserId::new(fans[e]), EventId::new(e as u32), mus[e])
            .unwrap();
    }
    for u in 0..3 {
        interest
            .set(UserId::new(u), CompetingEventId::new(0), 1.0)
            .unwrap();
    }
    SesInstance::builder()
        .organizer(Organizer::new(THETA))
        .intervals(uniform_grid(1, 10))
        .events(
            (0..3)
                .map(|e| CandidateEvent::new(EventId::new(e), LocationId::new(e), xi[e as usize]))
                .collect(),
        )
        .competing(vec![CompetingEvent::new(
            CompetingEventId::new(0),
            IntervalId::new(0),
        )])
        .interest(interest.build().unwrap())
        .activity(Activity::constant(3, 1, 1.0).unwrap())
        .build_shared()
        .unwrap()
}

/// Instance A: GRD picks events 2, 0, 1.
fn instance_a() -> Arc<SesInstance> {
    instance([2.94, 2.457, 2.39], [1, 2, 0], [0.6, 0.3, 0.9])
}

/// Instance B: GRD picks events 0, 1, 2.
fn instance_b() -> Arc<SesInstance> {
    instance([2.39, 2.94, 2.457], [0, 1, 2], [0.9, 0.6, 0.3])
}

fn request(spec: SchedulerSpec) -> SolveRequest {
    SolveRequest {
        spec,
        k: 3,
        instance: InstanceName::default(),
    }
}

fn grd_places_all_three(inst: &Arc<SesInstance>, picks: [u32; 3]) {
    let grd = solve(inst, &request(SchedulerSpec::Greedy)).unwrap();
    assert_eq!(grd.scheduled(), 3);
    let mut schedule = inst.empty_schedule();
    for a in &grd.assignments {
        schedule.assign(a.event, a.interval).unwrap();
    }
    inst.check_schedule(&schedule).unwrap();

    // The solver's own engine, in pick order, agrees with the set rule.
    let out = GreedyScheduler::new().run(inst, 3).unwrap();
    let order: Vec<u32> = out
        .schedule
        .events_at(IntervalId::new(0))
        .iter()
        .map(|e| e.raw())
        .collect();
    assert_eq!(order, picks, "GRD's pick order");
    inst.check_schedule(&out.schedule).unwrap();

    let eval = evaluate(
        inst,
        &EvalRequest {
            assignments: grd.assignments.clone(),
            instance: InstanceName::default(),
        },
    )
    .unwrap();
    assert_eq!(eval.per_event.len(), 3);

    let (session, opened) = prepare_session(
        inst,
        &SessionOpen {
            name: "s".to_owned(),
            spec: SchedulerSpec::Greedy,
            k: 3,
            instance: InstanceName::default(),
        },
    )
    .unwrap();
    assert_eq!(opened.scheduled(), 3);
    inst.check_schedule(session.schedule()).unwrap();

    let report = schedule_metrics(inst, &out.schedule, 3).unwrap();
    assert_eq!(report.intervals[0].num_events, 3);
    assert!(report.intervals[0].used_resources <= THETA);
}

fn improver_keeps_all_three(inst: &Arc<SesInstance>, spec: SchedulerSpec) {
    let out = solve(inst, &request(spec)).unwrap();
    assert_eq!(out.scheduled(), 3, "{}", spec.name());
    let mut schedule = inst.empty_schedule();
    for a in &out.assignments {
        schedule.assign(a.event, a.interval).unwrap();
    }
    inst.check_schedule(&schedule).unwrap();
}

#[test]
fn instance_a_grd_schedule_is_accepted_everywhere() {
    grd_places_all_three(&instance_a(), [2, 0, 1]);
}

#[test]
fn instance_a_ls_starts_from_the_grd_schedule() {
    improver_keeps_all_three(&instance_a(), SchedulerSpec::GreedyLocalSearch);
}

#[test]
fn instance_a_sa_starts_from_the_grd_schedule() {
    improver_keeps_all_three(&instance_a(), SchedulerSpec::GreedyAnnealing);
}

#[test]
fn instance_b_grd_schedule_is_accepted_everywhere() {
    grd_places_all_three(&instance_b(), [0, 1, 2]);
}

#[test]
fn instance_b_ls_puts_an_event_back_in_its_vacated_home() {
    improver_keeps_all_three(&instance_b(), SchedulerSpec::GreedyLocalSearch);
}

#[test]
fn instance_b_sa_keeps_all_three() {
    improver_keeps_all_three(&instance_b(), SchedulerSpec::GreedyAnnealing);
}
