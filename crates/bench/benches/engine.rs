//! Engine micro-benchmarks (ablations A2 and A5):
//! * score evaluation (Eq. 4) throughput via the inverted index;
//! * assign/unassign round-trip cost.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_core::interest::{Interest, InterestBuilder};
use ses_core::model::uniform_grid;
use ses_core::testkit::{random_instance, TestInstanceConfig};
use ses_core::{
    Activity, AttendanceEngine, CandidateEvent, CompetingEvent, CompetingEventId, EventId,
    IntervalId, LocationId, Organizer, SesInstance, UserId,
};

fn build_interest(users: usize, events: usize, density: f64) -> Interest {
    let mut rng = StdRng::seed_from_u64(99);
    let mut b = InterestBuilder::new(users, events, 1);
    for u in 0..users {
        for e in 0..events {
            if rng.gen_bool(density) {
                let v = rng.gen_range(0.05..1.0);
                b.set(UserId::new(u as u32), EventId::new(e as u32), v)
                    .unwrap();
            }
        }
    }
    b.build().unwrap()
}

fn instance_with(interest: Interest, users: usize, events: usize) -> std::sync::Arc<SesInstance> {
    SesInstance::builder()
        .organizer(Organizer::new(1e9))
        .intervals(uniform_grid(8, 100))
        .events(
            (0..events)
                .map(|e| {
                    CandidateEvent::new(EventId::new(e as u32), LocationId::new(e as u32), 1.0)
                })
                .collect(),
        )
        .competing(vec![CompetingEvent::new(
            CompetingEventId::new(0),
            IntervalId::new(0),
        )])
        .interest(interest)
        .activity(Activity::constant(users, 8, 0.7).unwrap())
        .build_shared()
        .unwrap()
}

fn bench_score(c: &mut Criterion) {
    // A2: one score per event at a fixed interval; the engine walks only
    // each event's posting list.
    let (users, events) = (2000usize, 64usize);
    let inst = instance_with(build_interest(users, events, 0.3), users, events);
    c.bench_function("score_64ev", |b| {
        let mut engine = AttendanceEngine::new(&inst);
        b.iter(|| {
            let mut acc = 0.0;
            for e in 0..inst.num_events() {
                acc += engine.score(EventId::new(e as u32), IntervalId::new(0));
            }
            acc
        })
    });
}

fn bench_assign_unassign(c: &mut Criterion) {
    let inst = random_instance(&TestInstanceConfig {
        num_users: 2000,
        num_events: 40,
        num_intervals: 10,
        num_competing: 30,
        num_locations: 40,
        theta: 1e9,
        xi_max: 1.0,
        interest_density: 0.3,
        seed: 5,
    });
    c.bench_function("assign_unassign_roundtrip", |b| {
        let mut engine = AttendanceEngine::new(&inst);
        b.iter(|| {
            for e in 0..10u32 {
                engine
                    .assign(EventId::new(e), IntervalId::new(e % 10))
                    .unwrap();
            }
            for e in 0..10u32 {
                engine.unassign(EventId::new(e)).unwrap();
            }
            engine.total_utility()
        })
    });
}

fn bench_initial_scoring(c: &mut Criterion) {
    // A5: the O(|E||T||U|) initial scoring phase that dominates TOP and the
    // startup of GRD.
    let inst = random_instance(&TestInstanceConfig {
        num_users: 3000,
        num_events: 60,
        num_intervals: 45,
        num_competing: 100,
        num_locations: 25,
        theta: 20.0,
        xi_max: 3.0,
        interest_density: 0.25,
        seed: 9,
    });
    c.bench_function("initial_scoring_60x45", |b| {
        let mut engine = AttendanceEngine::new(&inst);
        b.iter(|| {
            let mut acc = 0.0;
            for e in 0..inst.num_events() {
                for t in 0..inst.num_intervals() {
                    acc += engine.score(EventId::new(e as u32), IntervalId::new(t as u32));
                }
            }
            acc
        })
    });
    // The same sweep through the batch API (one `score_all` per event) —
    // quantifies what per-call overhead and interval-major slicing save.
    c.bench_function("initial_scoring_60x45_batched", |b| {
        let mut engine = AttendanceEngine::new(&inst);
        b.iter(|| {
            let mut acc = 0.0;
            for e in 0..inst.num_events() {
                acc += engine.score_all(EventId::new(e as u32)).iter().sum::<f64>();
            }
            acc
        })
    });
}

criterion_group!(
    benches,
    bench_score,
    bench_assign_unassign,
    bench_initial_scoring
);
criterion_main!(benches);
