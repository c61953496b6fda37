//! Incremental ≡ full: the delta-maintained paths introduced with the
//! dirty-interval generations (DESIGN.md §7) must be *invisible* in every
//! output — they only skip recomputing scores that provably did not change.
//!
//! Two equivalences are pinned across random instances and disruption
//! streams:
//!
//! 1. the CELF lazy greedy (GRD-PQ) picks bit-identical schedules and Ω to
//!    the eager list greedy (GRD);
//! 2. an `OnlineSession` with the dirty-interval score cache replays any
//!    disruption stream to bit-identical repair reports, schedules and Ω
//!    as the exhaustive `score_all` reference — with strictly fewer posting
//!    visits on non-trivial streams.

use proptest::prelude::*;
use ses_core::testkit::{random_instance, TestInstanceConfig};
use ses_core::{
    EventId, GreedyHeapScheduler, GreedyScheduler, IntervalId, OnlineSession, Scheduler, UserId,
};

/// Strategy over modest random instances (mirrors `columnar_oracle.rs`).
fn instance_config() -> impl Strategy<Value = TestInstanceConfig> {
    (
        2usize..24,   // users
        2usize..10,   // events
        1usize..6,    // intervals
        0usize..8,    // competing
        1usize..5,    // locations
        2.0f64..20.0, // theta
        0.05f64..0.9, // density
        any::<u64>(), // seed
    )
        .prop_map(
            |(
                num_users,
                num_events,
                num_intervals,
                num_competing,
                num_locations,
                theta,
                interest_density,
                seed,
            )| {
                TestInstanceConfig {
                    num_users,
                    num_events,
                    num_intervals,
                    num_competing,
                    num_locations,
                    theta,
                    xi_max: 3.0,
                    interest_density,
                    seed,
                }
            },
        )
}

/// One raw disruption drawn by proptest; indices are reduced modulo the
/// instance dimensions at replay time.
#[derive(Debug, Clone)]
enum RawDisruption {
    /// Rival announcement: interval, per-user µ seeds.
    Announce(u32, Vec<(u32, f64)>),
    /// Cancel the i-th currently scheduled event (if any).
    CancelNth(u32),
    /// Greedy `k → k+1` extension.
    Extend,
    /// Flip availability of an event.
    Toggle(u32),
    /// Late arrival of an event.
    Arrive(u32),
    /// Budget change as a fraction of the instance budget.
    Capacity(f64),
}

fn disruption_strategy() -> impl Strategy<Value = RawDisruption> {
    // The proptest shim has no `prop_oneof`; a discriminant + payload tuple
    // mapped through a match covers the same space.
    (
        0usize..6,
        any::<u32>(),
        0.2f64..1.5,
        prop::collection::vec((any::<u32>(), 0.01f64..1.0), 0..12),
    )
        .prop_map(|(kind, raw, frac, postings)| match kind {
            0 => RawDisruption::Announce(raw, postings),
            1 => RawDisruption::CancelNth(raw),
            2 => RawDisruption::Extend,
            3 => RawDisruption::Toggle(raw),
            4 => RawDisruption::Arrive(raw),
            _ => RawDisruption::Capacity(frac),
        })
}

/// Applies one raw disruption to a session; returns a comparable digest of
/// what happened (report + resulting utility bits).
fn apply(
    session: &mut OnlineSession,
    raw: &RawDisruption,
    num_users: usize,
    num_intervals: usize,
    num_events: usize,
    base_budget: f64,
) -> String {
    let outcome = match raw {
        RawDisruption::Announce(t, postings) => {
            let interval = IntervalId::new(t % num_intervals as u32);
            let postings: Vec<(UserId, f64)> = postings
                .iter()
                .map(|&(u, mu)| (UserId::new(u % num_users as u32), mu))
                .collect();
            format!("{:?}", session.announce_competing(interval, &postings))
        }
        RawDisruption::CancelNth(n) => {
            let scheduled = session.schedule().scheduled_events();
            if scheduled.is_empty() {
                "cancel-noop".to_owned()
            } else {
                let victim = scheduled[*n as usize % scheduled.len()];
                format!("{:?}", session.cancel_event(victim))
            }
        }
        RawDisruption::Extend => format!("{:?}", session.extend()),
        RawDisruption::Toggle(e) => {
            let event = EventId::new(e % num_events as u32);
            let flipped = !session.is_available(event);
            session.set_available(event, flipped);
            format!("toggle {event} -> {flipped}")
        }
        RawDisruption::Arrive(e) => {
            let event = EventId::new(e % num_events as u32);
            format!("{:?}", session.arrive(event))
        }
        RawDisruption::Capacity(frac) => {
            format!("{:?}", session.change_capacity(base_budget * frac))
        }
    };
    format!(
        "{outcome} | schedule {:?} | omega {:016x}",
        session.schedule(),
        session.utility().to_bits()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CELF lazy GRD-PQ ≡ eager GRD: bit-identical schedules and Ω for any
    /// instance and any k. Stale heap entries are over-estimates (marginal
    /// gains diminish as intervals fill), so re-validating only entries
    /// whose interval generation moved never changes a selection.
    #[test]
    fn lazy_heap_matches_eager_greedy_bit_for_bit(
        cfg in instance_config(),
        k_frac in 0.1f64..1.0,
    ) {
        let inst = random_instance(&cfg);
        let k = ((inst.num_events() as f64 * k_frac) as usize).min(inst.num_events());
        let eager = GreedyScheduler::new().run(&inst, k).unwrap();
        let lazy = GreedyHeapScheduler::new().run(&inst, k).unwrap();
        prop_assert_eq!(&eager.schedule, &lazy.schedule);
        prop_assert_eq!(eager.total_utility.to_bits(), lazy.total_utility.to_bits());
        prop_assert!(
            lazy.stats.engine.score_evaluations <= eager.stats.engine.score_evaluations,
            "lazy did more scoring than eager: {} vs {}",
            lazy.stats.engine.score_evaluations,
            eager.stats.engine.score_evaluations
        );
    }

    /// Replaying any disruption stream: the dirty-interval score cache and
    /// the exhaustive `score_all` reference produce bit-identical repair
    /// reports, schedules and Ω at every step, and the cache never does
    /// *more* scoring work.
    #[test]
    fn cached_online_repair_replays_streams_bit_identically(
        cfg in instance_config(),
        k_frac in 0.2f64..1.0,
        stream in prop::collection::vec(disruption_strategy(), 1..25),
    ) {
        let inst = random_instance(&cfg);
        let k = ((inst.num_events() as f64 * k_frac) as usize).min(inst.num_events());
        let seeded = GreedyScheduler::new().run(&inst, k).unwrap();
        let mut cached = OnlineSession::new(&inst, &seeded.schedule).unwrap();
        let mut full = OnlineSession::new(&inst, &seeded.schedule).unwrap();
        full.set_exhaustive_rescan(true);
        let base_budget = inst.budget();
        for (step, raw) in stream.iter().enumerate() {
            let a = apply(&mut cached, raw, inst.num_users(), inst.num_intervals(),
                          inst.num_events(), base_budget);
            let b = apply(&mut full, raw, inst.num_users(), inst.num_intervals(),
                          inst.num_events(), base_budget);
            prop_assert_eq!(a, b, "step {} diverged: {:?}", step, raw);
        }
        let (c, f) = (cached.counters(), full.counters());
        prop_assert!(c.score_evaluations <= f.score_evaluations,
            "cache did more evals: {} vs {}", c.score_evaluations, f.score_evaluations);
        prop_assert!(c.posting_visits <= f.posting_visits);
        prop_assert_eq!(c.assigns, f.assigns);
        prop_assert_eq!(c.unassigns, f.unassigns);
    }
}
