//! Deterministic instance factories for tests, property tests, benches and
//! quick experiments.
//!
//! Everything here is seeded and reproducible. These are *not* the paper's
//! experimental workloads (those live in the `ses-datagen` crate, built on
//! the EBSN substrate); they are small, structurally varied instances for
//! exercising engine and algorithm behaviour.

use crate::activity::Activity;
use crate::engine::Evaluation;
use crate::ids::{CompetingEventId, EventId, IntervalId, LocationId, UserId};
use crate::instance::SesInstance;
use crate::interest::InterestBuilder;
use crate::model::{uniform_grid, CandidateEvent, CompetingEvent, Organizer};
use crate::schedule::Schedule;
use crate::util::float::luce_ratio;
use crate::util::fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Shape of a random test instance.
#[derive(Debug, Clone)]
pub struct TestInstanceConfig {
    /// Number of users `|U|`.
    pub num_users: usize,
    /// Number of candidate events `|E|`.
    pub num_events: usize,
    /// Number of intervals `|T|`.
    pub num_intervals: usize,
    /// Number of competing events `|C|` (spread uniformly over intervals).
    pub num_competing: usize,
    /// Number of distinct locations events are drawn from.
    pub num_locations: usize,
    /// Organizer budget θ.
    pub theta: f64,
    /// Required resources drawn uniformly from `[1, xi_max]`.
    pub xi_max: f64,
    /// Probability that a (user, event) pair has non-zero interest.
    pub interest_density: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TestInstanceConfig {
    fn default() -> Self {
        Self {
            num_users: 30,
            num_events: 12,
            num_intervals: 6,
            num_competing: 10,
            num_locations: 4,
            theta: 10.0,
            xi_max: 3.0,
            interest_density: 0.4,
            seed: 0,
        }
    }
}

/// Builds a random sparse instance from a config. Deterministic in the seed.
pub fn random_instance(cfg: &TestInstanceConfig) -> Arc<SesInstance> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut interest = InterestBuilder::new(cfg.num_users, cfg.num_events, cfg.num_competing);
    for u in 0..cfg.num_users {
        for e in 0..cfg.num_events {
            if rng.gen_bool(cfg.interest_density) {
                interest
                    .set(
                        UserId::new(u as u32),
                        EventId::new(e as u32),
                        rng.gen_range(0.05..=1.0),
                    )
                    .expect("generated value in range");
            }
        }
        for c in 0..cfg.num_competing {
            if rng.gen_bool(cfg.interest_density) {
                interest
                    .set(
                        UserId::new(u as u32),
                        CompetingEventId::new(c as u32),
                        rng.gen_range(0.05..=1.0),
                    )
                    .expect("generated value in range");
            }
        }
    }
    let events = (0..cfg.num_events)
        .map(|e| {
            CandidateEvent::new(
                EventId::new(e as u32),
                LocationId::new(rng.gen_range(0..cfg.num_locations.max(1)) as u32),
                if cfg.xi_max > 1.0 {
                    rng.gen_range(1.0..=cfg.xi_max)
                } else {
                    cfg.xi_max
                },
            )
        })
        .collect();
    let competing = (0..cfg.num_competing)
        .map(|c| {
            CompetingEvent::new(
                CompetingEventId::new(c as u32),
                IntervalId::new(rng.gen_range(0..cfg.num_intervals.max(1)) as u32),
            )
        })
        .collect();
    SesInstance::builder()
        .organizer(Organizer::new(cfg.theta))
        .intervals(uniform_grid(cfg.num_intervals, 100))
        .events(events)
        .competing(competing)
        .interest(interest.build().unwrap())
        .activity(Activity::hashed(
            cfg.num_users,
            cfg.num_intervals,
            cfg.seed ^ 0x5eed,
        ))
        .build_shared()
        .expect("generated instance must validate")
}

/// The canonical serving-workload instance: the sizing `ses simulate`,
/// `ses serve` and the server replay check all share, parameterized only by
/// the four knobs they expose. Keeping this in one place is what makes the
/// server-vs-simulator determinism digest comparable — both sides must build
/// bit-identical instances from `(users, events, intervals, seed)`.
pub fn workload_instance(
    users: usize,
    events: usize,
    intervals: usize,
    seed: u64,
) -> Arc<SesInstance> {
    random_instance(&TestInstanceConfig {
        num_users: users,
        num_events: events,
        num_intervals: intervals,
        num_competing: events / 2,
        num_locations: (events / 3).max(1),
        theta: 20.0,
        xi_max: 3.0,
        interest_density: 0.2,
        seed,
    })
}

/// A medium instance: 30 users, 12 events, 6 intervals, 10 competing events.
pub fn medium_instance(seed: u64) -> Arc<SesInstance> {
    random_instance(&TestInstanceConfig {
        seed,
        ..TestInstanceConfig::default()
    })
}

/// A small instance suitable for the exact solver: 8 users, 6 events,
/// 3 intervals, 4 competing events.
pub fn small_instance(seed: u64) -> Arc<SesInstance> {
    random_instance(&TestInstanceConfig {
        num_users: 8,
        num_events: 6,
        num_intervals: 3,
        num_competing: 4,
        num_locations: 3,
        theta: 6.0,
        xi_max: 3.0,
        interest_density: 0.5,
        seed,
    })
}

/// One interval, every event at the same location: at most one event can
/// ever be scheduled. Exercises the `complete = false` paths.
pub fn single_slot_shared_location(num_events: usize) -> Arc<SesInstance> {
    let num_users = 5;
    let mut interest = InterestBuilder::new(num_users, num_events, 0);
    for u in 0..num_users {
        for e in 0..num_events {
            interest
                .set(
                    UserId::new(u as u32),
                    EventId::new(e as u32),
                    0.1 + 0.8 * ((u + e) % num_users) as f64 / num_users as f64,
                )
                .unwrap();
        }
    }
    let events = (0..num_events)
        .map(|e| CandidateEvent::new(EventId::new(e as u32), LocationId::new(0), 1.0))
        .collect();
    SesInstance::builder()
        .organizer(Organizer::new(100.0))
        .intervals(uniform_grid(1, 100))
        .events(events)
        .interest(interest.build().unwrap())
        .activity(Activity::constant(num_users, 1, 1.0).unwrap())
        .build_shared()
        .unwrap()
}

/// A fully deterministic 2-user / 3-event / 2-interval instance with one
/// competing event, for hand-verifiable assertions.
///
/// * `µ(u0,e0)=0.8, µ(u0,e1)=0.4, µ(u1,e1)=0.5, µ(u1,e2)=0.6, µ(u0,c0)=0.5`
/// * `c0` sits at `t0`; `σ ≡ 1`; `θ = 10`; distinct locations; `ξ = 1`.
pub fn hand_instance() -> Arc<SesInstance> {
    let mut interest = InterestBuilder::new(2, 3, 1);
    interest.set(UserId::new(0), EventId::new(0), 0.8).unwrap();
    interest.set(UserId::new(0), EventId::new(1), 0.4).unwrap();
    interest.set(UserId::new(1), EventId::new(1), 0.5).unwrap();
    interest.set(UserId::new(1), EventId::new(2), 0.6).unwrap();
    interest
        .set(UserId::new(0), CompetingEventId::new(0), 0.5)
        .unwrap();
    SesInstance::builder()
        .organizer(Organizer::new(10.0))
        .intervals(uniform_grid(2, 100))
        .events(vec![
            CandidateEvent::new(EventId::new(0), LocationId::new(0), 1.0),
            CandidateEvent::new(EventId::new(1), LocationId::new(1), 1.0),
            CandidateEvent::new(EventId::new(2), LocationId::new(2), 1.0),
        ])
        .competing(vec![CompetingEvent::new(
            CompetingEventId::new(0),
            IntervalId::new(0),
        )])
        .interest(interest.build().unwrap())
        .activity(Activity::constant(2, 2, 1.0).unwrap())
        .build_shared()
        .unwrap()
}

/// The hash-map oracle of Ω and ω (Eq. 2–3), for tests and benches: a
/// from-scratch evaluation that knows neither the engine nor its column
/// layout. Per interval and user, the denominator folds the competing µ in
/// [`SesInstance::competing`] order, then the scheduled events' µ in
/// event-id order; ω sums `σ·µ/D` over each event's posting list, and Ω
/// sums ω in event-id order. Production computes the same bits from the
/// shared index ([`crate::engine::evaluate`]).
pub fn evaluate_schedule(inst: &SesInstance, schedule: &Schedule) -> Evaluation {
    evaluate_with_rivals(inst, &[], schedule)
}

/// [`evaluate_schedule`] for a session that absorbed `rivals` (competing
/// postings announced after the build, in arrival order): their µ join each
/// denominator after the instance's competing events, as in a live engine.
pub fn evaluate_with_rivals(
    inst: &SesInstance,
    rivals: &[(IntervalId, Vec<(UserId, f64)>)],
    schedule: &Schedule,
) -> Evaluation {
    let interest = inst.interest();
    let mut denom = vec![FxHashMap::<UserId, f64>::default(); inst.num_intervals()];
    let competing =
        (inst.competing().iter()).map(|c| (c.interval, interest.interested_users(c.id.into())));
    let rivals = rivals.iter().map(|(t, postings)| (*t, postings.as_slice()));
    let scheduled =
        (schedule.iter()).map(|a| (a.interval, interest.interested_users(a.event.into())));
    for (t, postings) in competing.chain(rivals).chain(scheduled) {
        for &(u, mu) in postings {
            *denom[t.index()].entry(u).or_insert(0.0) += mu;
        }
    }
    let per_event: Vec<_> = (schedule.iter())
        .map(|a| {
            let d = &denom[a.interval.index()];
            let omega =
                (interest.interested_users(a.event.into()).iter()).fold(0.0, |w, &(u, mu)| {
                    w + inst.sigma(u, a.interval)
                        * luce_ratio(mu, d.get(&u).copied().unwrap_or(0.0))
                });
            (a.event, a.interval, omega)
        })
        .collect();
    Evaluation {
        total_utility: per_event.iter().fold(0.0, |sum, &(_, _, w)| sum + w),
        per_event,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_instance_is_deterministic_in_seed() {
        let a = medium_instance(9);
        let b = medium_instance(9);
        assert_eq!(a.num_events(), b.num_events());
        assert_eq!(
            a.mu(UserId::new(0), EventId::new(0)),
            b.mu(UserId::new(0), EventId::new(0))
        );
        assert_eq!(
            a.event(EventId::new(3)).location,
            b.event(EventId::new(3)).location
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = medium_instance(1);
        let b = medium_instance(2);
        let differs = (0..a.num_events()).any(|e| {
            a.event(EventId::new(e as u32)).required_resources
                != b.event(EventId::new(e as u32)).required_resources
        });
        assert!(differs);
    }

    #[test]
    fn factories_validate() {
        // Builders panic on invalid instances, so constructing is the test.
        let _ = small_instance(0);
        let _ = single_slot_shared_location(3);
        let _ = hand_instance();
    }
}
