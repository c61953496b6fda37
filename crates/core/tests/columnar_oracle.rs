//! Property tests pinning the columnar mass-table engine to its oracles
//! (DESIGN.md §2, §6): the from-scratch hash-map evaluation
//! (`evaluate_schedule`) and the analytic operation counts.

use proptest::prelude::*;
use ses_core::testkit::evaluate_schedule;
use ses_core::testkit::{random_instance, TestInstanceConfig};
use ses_core::util::float::approx_eq_tol;
use ses_core::{AttendanceEngine, EventId, IntervalId};

/// Strategy over modest random instances (mirrors `properties.rs`).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any valid op sequence, the columnar engine's Ω and its
    /// per-event expected attendances match the from-scratch hash-map
    /// oracle, and every applied assignment's realized gain equals the
    /// score predicted immediately before it — bit for bit, since both are
    /// computed from the same frozen columns.
    #[test]
    fn columnar_omega_and_scores_match_oracle(
        cfg in instance_config(),
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 1..30),
    ) {
        let inst = random_instance(&cfg);
        let mut engine = AttendanceEngine::new(&inst);
        for (eraw, traw) in ops {
            let e = EventId::new(eraw % inst.num_events() as u32);
            let t = IntervalId::new(traw % inst.num_intervals() as u32);
            if engine.schedule().contains(e) {
                engine.unassign(e).unwrap();
            } else if engine.check_assignment(e, t).is_ok() {
                let predicted = engine.score(e, t);
                let gain = engine.assign(e, t).unwrap();
                prop_assert_eq!(predicted.to_bits(), gain.to_bits(),
                    "assignment gain must equal the just-predicted score exactly");
            }
        }
        let oracle = evaluate_schedule(&inst, engine.schedule());
        prop_assert_eq!(
            engine.total_utility().to_bits(),
            oracle.total_utility.to_bits(),
            "columnar Ω {} vs oracle {}", engine.total_utility(), oracle.total_utility
        );
        for &(event, _, omega) in &oracle.per_event {
            let engine_omega = engine.expected_attendance(event).unwrap();
            prop_assert!(
                approx_eq_tol(engine_omega, omega, 1e-9),
                "ω({event}): columnar {engine_omega} vs oracle {omega}"
            );
        }
    }

    /// `EngineCounters` stay analytic: `posting_visits` is exactly the sum
    /// of posting-list lengths over all Eq. 4 evaluations (explicit scores
    /// plus the one evaluation inside every assign), and the batch APIs
    /// count like the equivalent per-pair calls.
    #[test]
    fn posting_visits_match_analytic_count(
        cfg in instance_config(),
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 1..30),
    ) {
        let inst = random_instance(&cfg);
        let mut engine = AttendanceEngine::new(&inst);
        let postings_len = |e: EventId| -> u64 {
            inst.interest().interested_users(e.into()).len() as u64
        };
        let mut expected_visits = 0u64;
        let mut expected_evals = 0u64;
        for (eraw, traw) in ops {
            let e = EventId::new(eraw % inst.num_events() as u32);
            let t = IntervalId::new(traw % inst.num_intervals() as u32);
            engine.score(e, t);
            expected_evals += 1;
            expected_visits += postings_len(e);
            if engine.check_assignment(e, t).is_ok() {
                engine.assign(e, t).unwrap(); // one internal Eq. 4 evaluation
                expected_evals += 1;
                expected_visits += postings_len(e);
            }
        }
        // One batch sweep counts like |T| per-pair scores of the event.
        let probe = EventId::new(0);
        engine.score_all(probe);
        expected_evals += inst.num_intervals() as u64;
        expected_visits += postings_len(probe) * inst.num_intervals() as u64;
        let c = engine.counters();
        prop_assert_eq!(c.score_evaluations, expected_evals);
        prop_assert_eq!(c.posting_visits, expected_visits);
    }
}
