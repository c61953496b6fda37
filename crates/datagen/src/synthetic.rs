//! Self-contained synthetic instance families.
//!
//! These do not go through the EBSN substrate; they exist to stress
//! particular structural regimes in tests and ablation benches:
//!
//! * [`uniform`] — unstructured sparse interest (the "no signal" regime);
//! * [`clustered`] — users and events partitioned into communities with
//!   strong in-community interest (the realistic EBSN-like regime);
//! * [`top_trap`] — an adversarial family where the TOP baseline piles
//!   events into one popular interval and cannibalizes itself, while GRD
//!   spreads; used to demonstrate the paper's qualitative claim about TOP.
//! * [`sparse_population`] — the million-user regime: each user posts a few
//!   interests and is active in a short window, so the engine's blocked
//!   columns stay `O(nnz)` while the dense-equivalent layout would not fit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_core::interest::InterestBuilder;
use ses_core::model::uniform_grid;
use ses_core::testkit::{random_instance, TestInstanceConfig};
use ses_core::{
    Activity, CandidateEvent, CompetingEvent, CompetingEventId, EventId, IntervalId, LocationId,
    Organizer, SesInstance, UserId,
};
use std::sync::Arc;

/// Unstructured sparse instance (delegates to `ses_core::testkit`).
pub fn uniform(
    num_users: usize,
    num_events: usize,
    num_intervals: usize,
    seed: u64,
) -> Arc<SesInstance> {
    random_instance(&TestInstanceConfig {
        num_users,
        num_events,
        num_intervals,
        num_competing: num_intervals * 2,
        num_locations: 25.min(num_events.max(1)),
        theta: 20.0,
        xi_max: 20.0 / 3.0,
        interest_density: 0.15,
        seed,
    })
}

/// Community-structured instance: `clusters` communities, users interested
/// almost exclusively in their community's events (strongly, `µ ∈
/// [0.5, 1.0]`) with light cross-community interest.
pub fn clustered(
    num_users: usize,
    num_events: usize,
    num_intervals: usize,
    clusters: usize,
    seed: u64,
) -> Arc<SesInstance> {
    assert!(clusters > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let num_competing = num_intervals;
    let mut interest = InterestBuilder::new(num_users, num_events, num_competing);
    for u in 0..num_users {
        let cu = u % clusters;
        for e in 0..num_events {
            let ce = e % clusters;
            let mu = if cu == ce {
                rng.gen_range(0.5..=1.0)
            } else if rng.gen_bool(0.05) {
                rng.gen_range(0.01..0.2)
            } else {
                0.0
            };
            if mu > 0.0 {
                interest
                    .set(UserId::new(u as u32), EventId::new(e as u32), mu)
                    .expect("in range");
            }
        }
        // Mild uniform interest in competing events.
        for c in 0..num_competing {
            if rng.gen_bool(0.2) {
                interest
                    .set(
                        UserId::new(u as u32),
                        CompetingEventId::new(c as u32),
                        rng.gen_range(0.05..0.5),
                    )
                    .expect("in range");
            }
        }
    }
    let events = (0..num_events)
        .map(|e| {
            CandidateEvent::new(
                EventId::new(e as u32),
                LocationId::new((e % 25) as u32),
                rng.gen_range(1.0..=20.0 / 3.0),
            )
        })
        .collect();
    let competing = (0..num_competing)
        .map(|c| {
            CompetingEvent::new(
                CompetingEventId::new(c as u32),
                IntervalId::new((c % num_intervals) as u32),
            )
        })
        .collect();
    SesInstance::builder()
        .organizer(Organizer::new(20.0))
        .intervals(uniform_grid(num_intervals, 180))
        .events(events)
        .competing(competing)
        .interest(interest.build().expect("valid"))
        .activity(Activity::hashed(
            num_users,
            num_intervals,
            seed ^ 0xC1D5_72ED,
        ))
        .build_shared()
        .expect("clustered instance validates")
}

/// Adversarial family for TOP: one interval has no competing events (so
/// every event scores highest there initially), all users share broad
/// interest, and the resource budget allows many events per interval. TOP
/// stacks the popular interval and cannibalizes; GRD spreads out.
pub fn top_trap(
    num_users: usize,
    num_events: usize,
    num_intervals: usize,
    seed: u64,
) -> Arc<SesInstance> {
    assert!(num_intervals >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    // One competing event in every interval except interval 0, with high
    // shared interest — making interval 0 the unique "free lunch".
    let num_competing = num_intervals - 1;
    let mut interest = InterestBuilder::new(num_users, num_events, num_competing);
    for u in 0..num_users {
        for e in 0..num_events {
            interest
                .set(
                    UserId::new(u as u32),
                    EventId::new(e as u32),
                    rng.gen_range(0.4..=1.0),
                )
                .expect("in range");
        }
        for c in 0..num_competing {
            interest
                .set(UserId::new(u as u32), CompetingEventId::new(c as u32), 0.9)
                .expect("in range");
        }
    }
    let events = (0..num_events)
        .map(|e| {
            // Distinct locations and tiny ξ: the only thing stopping TOP
            // from stacking interval 0 is… nothing.
            CandidateEvent::new(EventId::new(e as u32), LocationId::new(e as u32), 0.1)
        })
        .collect();
    let competing = (0..num_competing)
        .map(|c| {
            CompetingEvent::new(
                CompetingEventId::new(c as u32),
                IntervalId::new((c + 1) as u32),
            )
        })
        .collect();
    SesInstance::builder()
        .organizer(Organizer::new(20.0))
        .intervals(uniform_grid(num_intervals, 180))
        .events(events)
        .competing(competing)
        .interest(interest.build().expect("valid"))
        .activity(Activity::constant(num_users, num_intervals, 1.0).expect("valid"))
        .build_shared()
        .expect("top_trap instance validates")
}

/// Million-user family: `num_users` users each post `interests_per_user`
/// distinct interests and are active (σ > 0) in a contiguous window of
/// `active_per_user` intervals ([`ses_core::Activity::masked`]), so both the
/// interest matrix and the engine's per-interval columns are genuinely
/// sparse. Construction is `O(U · (interests_per_user + active_per_user))`
/// — no per-`(u, e)` or per-`(u, t)` dense pass anywhere, which is what
/// lets `U = 1_000_000` instances build inside the bench harness.
///
/// One competing event per interval (round-robin) keeps the denominators
/// non-trivial; each user backs exactly one of them, so competing postings
/// stay `O(U)` too.
pub fn sparse_population(
    num_users: usize,
    num_events: usize,
    num_intervals: usize,
    interests_per_user: usize,
    active_per_user: usize,
    seed: u64,
) -> Arc<SesInstance> {
    assert!(num_events > 0 && num_intervals > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let num_competing = num_intervals;
    let picks = interests_per_user.min(num_events);
    let mut interest = InterestBuilder::new(num_users, num_events, num_competing);
    let mut chosen: Vec<u32> = Vec::with_capacity(picks);
    for u in 0..num_users {
        // Distinct event picks per user (the builder rejects duplicates);
        // `picks ≪ num_events` so rejection sampling terminates fast.
        chosen.clear();
        while chosen.len() < picks {
            let e = rng.gen_range(0..num_events) as u32;
            if !chosen.contains(&e) {
                chosen.push(e);
            }
        }
        for &e in &chosen {
            interest
                .set(
                    UserId::new(u as u32),
                    EventId::new(e),
                    rng.gen_range(0.05..=1.0),
                )
                .expect("in range");
        }
        interest
            .set(
                UserId::new(u as u32),
                CompetingEventId::new((u % num_competing) as u32),
                rng.gen_range(0.1..=0.8),
            )
            .expect("in range");
    }
    let events = (0..num_events)
        .map(|e| {
            CandidateEvent::new(
                EventId::new(e as u32),
                LocationId::new((e % 25) as u32),
                rng.gen_range(1.0..=4.0),
            )
        })
        .collect();
    let competing = (0..num_competing)
        .map(|c| {
            CompetingEvent::new(
                CompetingEventId::new(c as u32),
                IntervalId::new((c % num_intervals) as u32),
            )
        })
        .collect();
    SesInstance::builder()
        .organizer(Organizer::new(20.0))
        .intervals(uniform_grid(num_intervals, 180))
        .events(events)
        .competing(competing)
        .interest(interest.build().expect("valid"))
        .activity(Activity::masked(
            num_users,
            num_intervals,
            active_per_user,
            seed ^ 0x5EA5_01ED,
        ))
        .build_shared()
        .expect("sparse_population instance validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::{GreedyScheduler, Scheduler, TopScheduler};

    #[test]
    fn uniform_builds_and_is_deterministic() {
        let a = uniform(20, 10, 5, 3);
        let b = uniform(20, 10, 5, 3);
        assert_eq!(a.num_events(), 10);
        assert_eq!(
            a.mu(UserId::new(0), EventId::new(0)),
            b.mu(UserId::new(0), EventId::new(0))
        );
    }

    #[test]
    fn clustered_has_community_structure() {
        let inst = clustered(30, 12, 6, 3, 1);
        // In-cluster interest must dominate cross-cluster on average.
        let (mut in_sum, mut in_n, mut out_sum, mut out_n) = (0.0, 0, 0.0, 0);
        for u in 0..30u32 {
            for e in 0..12u32 {
                let mu = inst.mu(UserId::new(u), EventId::new(e));
                if u % 3 == e % 3 {
                    in_sum += mu;
                    in_n += 1;
                } else {
                    out_sum += mu;
                    out_n += 1;
                }
            }
        }
        assert!(in_sum / in_n as f64 > 3.0 * (out_sum / out_n as f64));
    }

    #[test]
    fn sparse_population_builds_sub_dense_columns() {
        let inst = sparse_population(500, 20, 12, 3, 4, 7);
        assert_eq!(inst.num_users(), 500);
        // Deterministic per seed.
        let again = sparse_population(500, 20, 12, 3, 4, 7);
        assert_eq!(
            inst.mu(UserId::new(3), EventId::new(5)),
            again.mu(UserId::new(3), EventId::new(5))
        );
        // The engine's columns must hold only the windowed slots:
        // ≈ U · active_per_user / |T| per interval, far below U.
        let engine = ses_core::AttendanceEngine::new(&inst);
        let m = engine.memory_stats();
        assert!(
            m.column_slots * 2 < m.dense_slots,
            "columns {} not sub-dense ({})",
            m.column_slots,
            m.dense_slots
        );
        // And the blocked engine still agrees with the oracle end to end.
        let grd = GreedyScheduler::new().run(&inst, 6).unwrap();
        let eval = ses_core::testkit::evaluate_schedule(&inst, &grd.schedule);
        assert_eq!(eval.total_utility.to_bits(), grd.total_utility.to_bits());
        assert!(grd.stats.memory.column_slots > 0);
    }

    #[test]
    fn top_trap_punishes_top() {
        let inst = top_trap(25, 12, 4, 0);
        let k = 8;
        let grd = GreedyScheduler::new().run(&inst, k).unwrap();
        let top = TopScheduler::new().run(&inst, k).unwrap();
        assert!(
            grd.total_utility > top.total_utility,
            "GRD {} must beat TOP {} on the trap",
            grd.total_utility,
            top.total_utility
        );
        // TOP stacks the free interval far more than GRD does.
        let top_stack = top.schedule.events_at(IntervalId::new(0)).len();
        let grd_stack = grd.schedule.events_at(IntervalId::new(0)).len();
        assert!(
            top_stack >= grd_stack,
            "TOP stacked {top_stack} < GRD {grd_stack}"
        );
    }
}
