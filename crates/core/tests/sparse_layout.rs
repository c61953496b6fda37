//! Property tests pinning the blocked/CSR interval-column layout
//! (DESIGN.md §11) to the from-scratch hash-map oracle.
//!
//! The instances here are deliberately *sparse in σ*: random activity holes
//! put every code path through the partial-column run translation instead
//! of the dense-era full-column alias. The contracts pinned:
//!
//! * per-event expected attendances match `evaluate_schedule` **bit for
//!   bit** when the engine replays the schedule in the oracle's order;
//! * predicted scores equal realized gains bit for bit through arbitrary
//!   assign/unassign churn, and Ω tracks the oracle;
//! * `posting_visits` under the blocked layout never exceeds the dense
//!   layout's analytic count;
//! * degenerate shapes — empty intervals, single-user universes, one
//!   interval holding every posting, events with empty posting lists —
//!   build and score without special-casing.

use proptest::prelude::*;
use ses_core::testkit::evaluate_schedule;
use ses_core::{
    Activity, AttendanceEngine, CandidateEvent, EventId, InterestBuilder, IntervalId, LocationId,
    Organizer, SesInstance, UserId,
};
use std::sync::Arc;

/// Shape + seed of one random sparse-σ instance.
#[derive(Debug, Clone)]
struct SparseConfig {
    num_users: usize,
    num_events: usize,
    num_intervals: usize,
    /// Probability a user is interested in an event.
    interest_density: f64,
    /// Probability a user is active (σ > 0) at an interval. Low values
    /// produce empty columns and whole empty intervals.
    activity_density: f64,
    seed: u64,
}

fn config() -> impl Strategy<Value = SparseConfig> {
    (
        1usize..14,   // users (1 ⇒ single-user universes)
        1usize..7,    // events
        1usize..6,    // intervals
        0.1f64..0.9,  // interest density (low ⇒ events with empty lists)
        0.0f64..=1.0, // activity density (0 ⇒ all intervals empty)
        any::<u64>(),
    )
        .prop_map(
            |(num_users, num_events, num_intervals, interest_density, activity_density, seed)| {
                SparseConfig {
                    num_users,
                    num_events,
                    num_intervals,
                    interest_density,
                    activity_density,
                    seed,
                }
            },
        )
}

/// Tiny deterministic generator — splitmix64 over (seed, counter), mapped to
/// `[0, 1)`. Keeps the instance a pure function of `SparseConfig` without
/// dragging a full RNG strategy through proptest shrinking.
struct Mix {
    state: u64,
}

impl Mix {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_unit(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn build(cfg: &SparseConfig) -> Arc<SesInstance> {
    let mut mix = Mix::new(cfg.seed);
    let mut interest = InterestBuilder::new(cfg.num_users, cfg.num_events, 0);
    for u in 0..cfg.num_users {
        for e in 0..cfg.num_events {
            if mix.next_unit() < cfg.interest_density {
                let mu = 0.05 + 0.95 * mix.next_unit();
                interest
                    .set(UserId::new(u as u32), EventId::new(e as u32), mu)
                    .expect("in range");
            }
        }
    }
    let rows: Vec<Vec<f64>> = (0..cfg.num_users)
        .map(|_| {
            (0..cfg.num_intervals)
                .map(|_| {
                    if mix.next_unit() < cfg.activity_density {
                        0.05 + 0.95 * mix.next_unit()
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let events = (0..cfg.num_events)
        .map(|e| {
            // Locations collide on purpose (mod 3) so feasibility checks
            // fire; the budget is generous enough that resources rarely do.
            CandidateEvent::new(EventId::new(e as u32), LocationId::new((e % 3) as u32), 1.0)
        })
        .collect();
    SesInstance::builder()
        .organizer(Organizer::new(100.0))
        .intervals(ses_core::uniform_grid(cfg.num_intervals, 10))
        .events(events)
        .interest(interest.build().expect("valid"))
        .activity(Activity::from_rows(rows).expect("valid"))
        .build_shared()
        .expect("sparse instance validates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying a feasible schedule through the blocked engine in the
    /// oracle's iteration order reproduces every per-event ω bit for bit:
    /// skipped σ = 0 slots contribute exactly-zero terms, so dropping them
    /// cannot move a single bit.
    #[test]
    fn replayed_schedule_matches_oracle_bitwise(
        cfg in config(),
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 1..24),
    ) {
        let inst = build(&cfg);
        let mut schedule = inst.empty_schedule();
        let mut probe = AttendanceEngine::new(&inst);
        for (eraw, traw) in ops {
            let e = EventId::new(eraw % inst.num_events() as u32);
            let t = IntervalId::new(traw % inst.num_intervals() as u32);
            if !schedule.contains(e) && probe.check_assignment(e, t).is_ok() {
                schedule.assign(e, t).unwrap();
                probe.assign(e, t).unwrap();
            }
        }
        let engine = AttendanceEngine::with_schedule(&inst, &schedule).unwrap();
        let oracle = evaluate_schedule(&inst, &schedule);
        for &(event, _, omega) in &oracle.per_event {
            let engine_omega = engine.expected_attendance(event).unwrap();
            prop_assert_eq!(
                engine_omega.to_bits(),
                omega.to_bits(),
                "ω({}): blocked {} vs oracle {}",
                event, engine_omega, omega
            );
        }
        prop_assert_eq!(
            engine.total_utility().to_bits(),
            oracle.total_utility.to_bits(),
            "Ω: blocked {} vs oracle {}", engine.total_utility(), oracle.total_utility
        );
    }

    /// Through arbitrary assign/unassign churn on sparse-σ instances, the
    /// realized gain equals the just-predicted score bit for bit and Ω
    /// tracks the from-scratch oracle.
    #[test]
    fn churn_keeps_scores_and_omega_consistent(
        cfg in config(),
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 1..30),
    ) {
        let inst = build(&cfg);
        let mut engine = AttendanceEngine::new(&inst);
        for (eraw, traw) in ops {
            let e = EventId::new(eraw % inst.num_events() as u32);
            let t = IntervalId::new(traw % inst.num_intervals() as u32);
            if engine.schedule().contains(e) {
                engine.unassign(e).unwrap();
            } else if engine.check_assignment(e, t).is_ok() {
                let predicted = engine.score(e, t);
                let gain = engine.assign(e, t).unwrap();
                prop_assert_eq!(predicted.to_bits(), gain.to_bits());
            }
        }
        let oracle = evaluate_schedule(&inst, engine.schedule());
        prop_assert_eq!(
            engine.total_utility().to_bits(),
            oracle.total_utility.to_bits(),
            "Ω after churn: blocked {} vs oracle {}",
            engine.total_utility(), oracle.total_utility
        );
    }

    /// The blocked layout only ever *removes* work: `posting_visits` after
    /// a full `score_all` sweep of every event is bounded by the dense
    /// layout's analytic `Σ_e |postings(e)| · |T|`, with equality exactly
    /// when no posting aims at a σ = 0 slot.
    #[test]
    fn posting_visits_never_exceed_dense_count(cfg in config()) {
        let inst = build(&cfg);
        let mut engine = AttendanceEngine::new(&inst);
        let mut dense_visits = 0u64;
        for e in 0..inst.num_events() {
            let event = EventId::new(e as u32);
            engine.score_all(event);
            dense_visits += inst.interest().interested_users(event.into()).len() as u64
                * inst.num_intervals() as u64;
        }
        let c = engine.counters();
        prop_assert!(
            c.posting_visits <= dense_visits,
            "blocked visits {} exceed dense {}", c.posting_visits, dense_visits
        );
        let m = engine.memory_stats();
        prop_assert!(m.column_slots <= m.dense_slots);
        if m.column_slots == m.dense_slots {
            prop_assert_eq!(c.posting_visits, dense_visits,
                "full columns must alias the dense walk exactly");
            prop_assert_eq!(m.run_bytes, 0u64);
        }
    }
}

#[test]
fn degenerate_shapes_build_and_score() {
    // Empty intervals: nobody is active anywhere.
    let nobody = build(&SparseConfig {
        num_users: 5,
        num_events: 3,
        num_intervals: 4,
        interest_density: 0.8,
        activity_density: 0.0,
        seed: 1,
    });
    let mut engine = AttendanceEngine::new(&nobody);
    assert_eq!(engine.memory_stats().column_slots, 0);
    for t in 0..4 {
        assert_eq!(engine.score(EventId::new(0), IntervalId::new(t)), 0.0);
    }
    engine.assign(EventId::new(0), IntervalId::new(2)).unwrap();
    assert_eq!(engine.total_utility(), 0.0);
    assert_eq!(engine.expected_attendance(EventId::new(0)), Some(0.0));

    // Single-user universe.
    let solo = build(&SparseConfig {
        num_users: 1,
        num_events: 2,
        num_intervals: 3,
        interest_density: 1.0,
        activity_density: 1.0,
        seed: 2,
    });
    let mut engine = AttendanceEngine::new(&solo);
    let s = engine.score(EventId::new(0), IntervalId::new(0));
    engine.assign(EventId::new(0), IntervalId::new(0)).unwrap();
    let oracle = evaluate_schedule(&solo, engine.schedule());
    assert_eq!(engine.total_utility().to_bits(), s.to_bits());
    assert_eq!(
        oracle.total_utility.to_bits(),
        engine.total_utility().to_bits()
    );

    // One interval holds every posting: users active only at t0.
    let mut interest = InterestBuilder::new(4, 2, 0);
    for u in 0..4u32 {
        interest
            .set(UserId::new(u), EventId::new(u % 2), 0.5)
            .unwrap();
    }
    let one_col = SesInstance::builder()
        .organizer(Organizer::new(100.0))
        .intervals(ses_core::uniform_grid(3, 10))
        .events(vec![
            CandidateEvent::new(EventId::new(0), LocationId::new(0), 1.0),
            CandidateEvent::new(EventId::new(1), LocationId::new(1), 1.0),
        ])
        .interest(interest.build().unwrap())
        .activity(Activity::from_rows(vec![vec![0.9, 0.0, 0.0]; 4]).unwrap())
        .build_shared()
        .unwrap();
    let mut engine = AttendanceEngine::new(&one_col);
    let m = engine.memory_stats();
    assert_eq!(m.column_slots, 4, "all nnz concentrated in interval 0");
    assert_eq!(m.dense_slots, 12);
    engine.assign(EventId::new(0), IntervalId::new(0)).unwrap();
    engine.assign(EventId::new(1), IntervalId::new(0)).unwrap();
    let oracle = evaluate_schedule(&one_col, engine.schedule());
    for &(event, _, omega) in &oracle.per_event {
        assert_eq!(
            engine.expected_attendance(event).unwrap().to_bits(),
            omega.to_bits()
        );
    }

    // An event with an empty posting list scores zero everywhere and its
    // assignment leaves the generation clock untouched.
    let mut interest = InterestBuilder::new(2, 2, 0);
    interest.set(UserId::new(0), EventId::new(0), 0.6).unwrap();
    let ghost = SesInstance::builder()
        .organizer(Organizer::new(100.0))
        .intervals(ses_core::uniform_grid(2, 10))
        .events(vec![
            CandidateEvent::new(EventId::new(0), LocationId::new(0), 1.0),
            CandidateEvent::new(EventId::new(1), LocationId::new(1), 1.0),
        ])
        .interest(interest.build().unwrap())
        .activity(Activity::from_rows(vec![vec![0.8, 0.8]; 2]).unwrap())
        .build_shared()
        .unwrap();
    let mut engine = AttendanceEngine::new(&ghost);
    assert_eq!(engine.score(EventId::new(1), IntervalId::new(0)), 0.0);
    engine.assign(EventId::new(1), IntervalId::new(0)).unwrap();
    assert_eq!(engine.clock(), 0, "empty posting list moves no mass");
    assert_eq!(engine.expected_attendance(EventId::new(1)), Some(0.0));
}
