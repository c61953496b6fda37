//! The engine index is cached on the instance and shared by every engine
//! over it (DESIGN.md §16). These tests pin that sharing changes no answer:
//! repeated solves on one instance equal a solve on a freshly built one —
//! assignments, Ω bits and counters — for every scheduler, on dense,
//! masked-sparse and mixed full/partial σ-columns, and concurrent first
//! solves build the index once.

use ses_core::registry::{self, SchedulerSpec};
use ses_core::testkit::evaluate_schedule;
use ses_core::{
    Activity, CandidateEvent, CompetingEvent, CompetingEventId, EventId, InterestBuilder,
    IntervalId, LocationId, OnlineSession, Organizer, ScheduleOutcome, SesInstance, UserId,
};
use std::sync::Arc;

const USERS: usize = 14;
const EVENTS: usize = 6;
const INTERVALS: usize = 4;

/// A small deterministic instance over `activity` (EXACT-sized): every
/// user likes a few events and a few of the three competing events.
fn instance(activity: Activity) -> Arc<SesInstance> {
    let mut interest = InterestBuilder::new(USERS, EVENTS, 3);
    for u in 0..USERS as u32 {
        for e in 0..EVENTS as u32 {
            if (3 * u + 5 * e) % 4 != 0 {
                let mu = 0.05 + f64::from((7 * u + 11 * e) % 19) / 20.0;
                interest.set(UserId::new(u), EventId::new(e), mu).unwrap();
            }
        }
        for c in 0..3u32 {
            if (u + c) % 3 == 0 {
                let mu = 0.1 + f64::from((u + 2 * c) % 8) / 10.0;
                interest
                    .set(UserId::new(u), CompetingEventId::new(c), mu)
                    .unwrap();
            }
        }
    }
    SesInstance::builder()
        .organizer(Organizer::new(5.0))
        .intervals(ses_core::uniform_grid(INTERVALS, 10))
        .events(
            (0..EVENTS as u32)
                .map(|e| {
                    let xi = 1.0 + f64::from(e % 3) * 0.75;
                    CandidateEvent::new(EventId::new(e), LocationId::new(e % 4), xi)
                })
                .collect(),
        )
        .competing(
            (0..3u32)
                .map(|c| CompetingEvent::new(CompetingEventId::new(c), IntervalId::new(c)))
                .collect(),
        )
        .interest(interest.build().unwrap())
        .activity(activity)
        .build_shared()
        .unwrap()
}

/// Dense: every σ > 0, every column full.
fn dense() -> Arc<SesInstance> {
    instance(Activity::hashed(USERS, INTERVALS, 0x5eed))
}

/// Masked-sparse: each user active at 2 of the 4 intervals.
fn masked() -> Arc<SesInstance> {
    instance(Activity::masked(USERS, INTERVALS, 2, 3))
}

/// Mixed: t0 and t3 full, t1 every other user, t2 a few users.
fn mixed() -> Arc<SesInstance> {
    let rows = (0..USERS)
        .map(|u| {
            let t1 = if u % 2 == 0 { 0.6 } else { 0.0 };
            let t2 = if u % 5 == 1 { 0.9 } else { 0.0 };
            vec![0.4, t1, t2, 1.0]
        })
        .collect();
    instance(Activity::from_rows(rows).unwrap())
}

const SPECS: [SchedulerSpec; 7] = [
    SchedulerSpec::Greedy,
    SchedulerSpec::GreedyHeap,
    SchedulerSpec::Top,
    SchedulerSpec::Random(7),
    SchedulerSpec::GreedyLocalSearch,
    SchedulerSpec::GreedyAnnealing,
    SchedulerSpec::Exact,
];

/// Everything an outcome answers, bit for bit: algorithm, assignments,
/// Ω bits, completeness, engine counters, pops and updates.
fn answer(out: &ScheduleOutcome) -> impl PartialEq + std::fmt::Debug {
    (
        out.algorithm,
        out.schedule.iter().collect::<Vec<_>>(),
        out.total_utility.to_bits(),
        out.complete,
        out.stats.engine,
        out.stats.pops,
        out.stats.updates,
    )
}

#[test]
fn repeated_solves_on_one_instance_equal_a_fresh_instance_solve() {
    for (shape, make) in [
        ("dense", dense as fn() -> Arc<SesInstance>),
        ("masked", masked),
        ("mixed", mixed),
    ] {
        let shared = make();
        for spec in SPECS {
            let scheduler = registry::build(spec);
            for k in [2, 4] {
                let fresh = scheduler.run(&make(), k).unwrap();
                assert!(!fresh.is_empty(), "{shape} {spec:?} k={k} placed nothing");
                for round in 1..=3 {
                    let again = scheduler.run(&shared, k).unwrap();
                    assert_eq!(
                        answer(&again),
                        answer(&fresh),
                        "{shape} {spec:?} k={k}: solve {round} on the shared instance"
                    );
                }
            }
        }
    }
}

/// `/eval` of a solve's own answer reports the solve's Ω bit for bit, for
/// every scheduler and shape: both are the one ω definition, and both equal
/// the hash-map oracle. So does a session opened over the answer.
#[test]
fn eval_of_a_solve_reports_its_omega_bit_for_bit() {
    for (shape, make) in [
        ("dense", dense as fn() -> Arc<SesInstance>),
        ("masked", masked),
        ("mixed", mixed),
    ] {
        let inst = make();
        for spec in SPECS {
            for k in [2, 4, EVENTS] {
                let out = registry::build(spec).run(&inst, k).unwrap();
                let served = ses_core::evaluate(&inst, &out.schedule);
                let oracle = evaluate_schedule(&inst, &out.schedule);
                let at = format!("{shape} {spec:?} k={k}");
                assert_eq!(
                    served.total_utility.to_bits(),
                    out.total_utility.to_bits(),
                    "{at}"
                );
                assert_eq!(
                    oracle.total_utility.to_bits(),
                    out.total_utility.to_bits(),
                    "{at}"
                );
                for (a, b) in served.per_event.iter().zip(&oracle.per_event) {
                    assert_eq!((a.0, a.1, a.2.to_bits()), (b.0, b.1, b.2.to_bits()), "{at}");
                }
                let session = OnlineSession::new(&inst, &out.schedule).unwrap();
                assert_eq!(
                    session.utility().to_bits(),
                    out.total_utility.to_bits(),
                    "{at}"
                );
            }
        }
    }
}

#[test]
fn concurrent_cold_solves_build_one_index_and_agree() {
    for make in [dense as fn() -> Arc<SesInstance>, masked, mixed] {
        let inst = make();
        let traces: Vec<ses_obs::TraceId> = (0..4).map(|_| ses_obs::TraceId::generate()).collect();
        let barrier = std::sync::Barrier::new(traces.len());
        let answers: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = traces
                .iter()
                .map(|&trace| {
                    let (inst, barrier) = (&inst, &barrier);
                    scope.spawn(move || {
                        let _scope = ses_obs::trace_scope(trace);
                        barrier.wait();
                        let out = registry::build(SchedulerSpec::Greedy).run(inst, 4);
                        answer(&out.unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
        let count = |stage: ses_obs::Stage| -> usize {
            traces
                .iter()
                .map(|&trace| {
                    ses_obs::collect_trace(trace)
                        .iter()
                        .filter(|s| s.stage == stage)
                        .count()
                })
                .sum()
        };
        assert_eq!(count(ses_obs::Stage::Index), 1, "one index build");
        assert_eq!(count(ses_obs::Stage::Build), 4, "one build span per engine");
        // One sweep computes the opening scores; the index serves the rest.
        let served: usize = traces
            .iter()
            .flat_map(|&trace| ses_obs::collect_trace(trace))
            .filter(|s| s.stage == ses_obs::Stage::Sweep && s.aux[1] == 1)
            .count();
        assert_eq!(served, 3);
    }
}
