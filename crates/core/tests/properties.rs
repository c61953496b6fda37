//! Property-based tests of the engine and algorithm invariants
//! (DESIGN.md §6).

use proptest::prelude::*;
use ses_core::testkit::{evaluate_schedule, random_instance, TestInstanceConfig};
use ses_core::util::float::approx_ge;
use ses_core::{
    uniform_grid, Activity, AttendanceEngine, CandidateEvent, EventId, ExactScheduler,
    GreedyHeapScheduler, GreedyScheduler, InterestBuilder, IntervalId, LocalSearchScheduler,
    LocationId, Organizer, RandomScheduler, Scheduler, SesInstance, TopScheduler, UserId,
};

/// Strategy over modest random instances.
fn instance_config() -> impl Strategy<Value = TestInstanceConfig> {
    (
        2usize..20,   // users
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every algorithm returns a feasible schedule whose reported utility
    /// matches the from-scratch reference evaluation.
    #[test]
    fn algorithms_feasible_and_consistent(cfg in instance_config(), k_frac in 0.0f64..1.0) {
        let inst = random_instance(&cfg);
        let k = ((inst.num_events() as f64 * k_frac) as usize).min(inst.num_events());
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(GreedyScheduler::new()),
            Box::new(GreedyHeapScheduler::new()),
            Box::new(TopScheduler::new()),
            Box::new(RandomScheduler::new(cfg.seed)),
        ];
        for s in schedulers {
            let out = s.run(&inst, k).unwrap();
            prop_assert!(inst.check_schedule(&out.schedule).is_ok(),
                "{} produced an infeasible schedule", s.name());
            prop_assert!(out.len() <= k);
            let eval = evaluate_schedule(&inst, &out.schedule);
            prop_assert_eq!(out.total_utility.to_bits(), eval.total_utility.to_bits(),
                "{}: incremental {} vs reference {}", s.name(), out.total_utility, eval.total_utility);
        }
    }

    /// Assignment scores are non-negative, and per-interval marginal gains
    /// diminish as the interval fills.
    #[test]
    fn scores_nonnegative_and_diminishing(cfg in instance_config()) {
        let inst = random_instance(&cfg);
        let mut engine = AttendanceEngine::new(&inst);
        let t = IntervalId::new(0);
        // Scores of all events on the empty interval.
        let before: Vec<f64> = (0..inst.num_events())
            .map(|e| engine.score(EventId::new(e as u32), t))
            .collect();
        prop_assert!(before.iter().all(|&s| s >= 0.0));
        // Fill the interval with the first event that fits, then rescore.
        let placed = (0..inst.num_events()).find(|&e| {
            engine.assign(EventId::new(e as u32), t).is_ok()
        });
        if placed.is_some() {
            for (e, &b) in before.iter().enumerate() {
                let s = engine.score(EventId::new(e as u32), t);
                prop_assert!(s >= 0.0);
                prop_assert!(s <= b + 1e-9,
                    "marginal gain grew after filling: {b} -> {s}");
            }
        }
    }

    /// A user's total attendance probability within one interval never
    /// exceeds their activity probability σ(u,t).
    #[test]
    fn per_interval_attendance_bounded_by_sigma(cfg in instance_config()) {
        let inst = random_instance(&cfg);
        let out = GreedyScheduler::new().run(&inst, inst.num_events()).unwrap();
        let engine = AttendanceEngine::with_schedule(&inst, &out.schedule).unwrap();
        for t in 0..inst.num_intervals() {
            let interval = IntervalId::new(t as u32);
            for u in 0..inst.num_users() {
                let user = UserId::new(u as u32);
                let total: f64 = out.schedule.events_at(interval).iter()
                    .map(|&e| engine.attendance_probability(user, e).unwrap())
                    .sum();
                let sigma = inst.sigma(user, interval);
                prop_assert!(total <= sigma + 1e-9,
                    "user {u} at t{t}: Σρ = {total} > σ = {sigma}");
            }
        }
    }

    /// The list greedy and the heap greedy produce equal-utility schedules.
    #[test]
    fn greedy_variants_agree(cfg in instance_config(), k_frac in 0.0f64..1.0) {
        let inst = random_instance(&cfg);
        let k = ((inst.num_events() as f64 * k_frac) as usize).min(inst.num_events());
        let a = GreedyScheduler::new().run(&inst, k).unwrap();
        let b = GreedyHeapScheduler::new().run(&inst, k).unwrap();
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.total_utility.to_bits(), b.total_utility.to_bits(),
            "GRD {} vs GRD-PQ {}", a.total_utility, b.total_utility);
    }

    /// Random assign/unassign sequences keep the incremental utility in
    /// lockstep with the reference evaluation, and a full rollback returns
    /// to exactly zero.
    #[test]
    fn engine_incremental_consistency(cfg in instance_config(), ops in prop::collection::vec((any::<u32>(), any::<u32>()), 1..40)) {
        let inst = random_instance(&cfg);
        let mut engine = AttendanceEngine::new(&inst);
        let mut assigned: Vec<EventId> = Vec::new();
        for (eraw, traw) in ops {
            let e = EventId::new(eraw % inst.num_events() as u32);
            let t = IntervalId::new(traw % inst.num_intervals() as u32);
            if engine.schedule().contains(e) {
                engine.unassign(e).unwrap();
                assigned.retain(|&x| x != e);
            } else if engine.check_assignment(e, t).is_ok() {
                engine.assign(e, t).unwrap();
                assigned.push(e);
            }
            let reference = evaluate_schedule(&inst, engine.schedule()).total_utility;
            prop_assert_eq!(engine.total_utility().to_bits(), reference.to_bits(),
                "incremental {} vs reference {}", engine.total_utility(), reference);
        }
        // Roll everything back: Ω of the empty schedule is exactly zero,
        // and the masses re-fold to exactly zero (no phantom Luce ratios —
        // see `AttendanceEngine::unassign`).
        for e in assigned {
            engine.unassign(e).unwrap();
        }
        prop_assert_eq!(engine.total_utility().to_bits(), 0.0f64.to_bits(),
            "rolled-back utility {} not 0", engine.total_utility());
        // And the *next* score is computed from pristine state.
        let mut fresh = AttendanceEngine::new(&inst);
        let e0 = EventId::new(0);
        let t0 = IntervalId::new(0);
        prop_assert_eq!(engine.score(e0, t0), fresh.score(e0, t0));
    }

    /// `check_schedule`'s verdict is a property of the assignment set: the
    /// same events at one interval pass or fail together in every
    /// assignment order. θ is set to their sum in one random order, so the
    /// set sits on the budget's edge, where summing in assignment order
    /// used to give different verdicts.
    #[test]
    fn check_schedule_verdict_ignores_assignment_order(
        milli_xi in prop::collection::vec(500u32..3000, 3..9),
        theta_order in any::<u64>(),
    ) {
        let n = milli_xi.len();
        let xi: Vec<f64> = milli_xi.iter().map(|&m| f64::from(m) / 1000.0).collect();
        let mut ids: Vec<usize> = (0..n).collect();
        let mut state = theta_order | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ids.swap(i, (state >> 33) as usize % (i + 1));
        }
        let theta = ids.iter().fold(0.0, |sum, &i| sum + xi[i]);
        let inst = SesInstance::builder()
            .organizer(Organizer::new(theta))
            .intervals(uniform_grid(1, 10))
            .events(
                xi.iter()
                    .enumerate()
                    .map(|(e, &x)| CandidateEvent::new(EventId::new(e as u32), LocationId::new(e as u32), x))
                    .collect(),
            )
            .interest(InterestBuilder::new(1, n, 0).build().unwrap())
            .activity(Activity::constant(1, 1, 1.0).unwrap())
            .build()
            .unwrap();
        let verdict = |order: &[usize]| {
            let mut schedule = inst.empty_schedule();
            for &e in order {
                schedule.assign(EventId::new(e as u32), IntervalId::new(0)).unwrap();
            }
            inst.check_schedule(&schedule).is_ok()
        };
        let first = verdict(&ids);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..n {
            prop_assert_eq!(verdict(&order), first, "order {:?}", order);
            order.rotate_left(1);
        }
        order.reverse();
        prop_assert_eq!(verdict(&order), first, "order {:?}", order);
    }

    /// The engine's and the instance's `check_assignment` give the same
    /// answer, error payload included, on every state a random
    /// assign/unassign walk reaches.
    #[test]
    fn engine_and_instance_checks_agree(
        cfg in instance_config(),
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 1..60),
    ) {
        let inst = random_instance(&cfg);
        let mut engine = AttendanceEngine::new(&inst);
        for (eraw, traw) in ops {
            let e = EventId::new(eraw % inst.num_events() as u32);
            let t = IntervalId::new(traw % inst.num_intervals() as u32);
            let verdict = engine.check_assignment(e, t);
            prop_assert_eq!(verdict, inst.check_assignment(engine.schedule(), e, t, inst.budget()));
            if engine.schedule().contains(e) {
                engine.unassign(e).unwrap();
            } else if verdict.is_ok() {
                engine.assign(e, t).unwrap();
            }
        }
    }

    /// Local search never hurts its base scheduler and preserves size and
    /// feasibility.
    #[test]
    fn local_search_dominates_base(cfg in instance_config(), k_frac in 0.1f64..1.0) {
        let inst = random_instance(&cfg);
        let k = ((inst.num_events() as f64 * k_frac) as usize).min(inst.num_events());
        let base = RandomScheduler::new(cfg.seed).run(&inst, k).unwrap();
        let ls = LocalSearchScheduler::new(RandomScheduler::new(cfg.seed)).run(&inst, k).unwrap();
        prop_assert!(inst.check_schedule(&ls.schedule).is_ok());
        prop_assert_eq!(ls.len(), base.len());
        prop_assert!(approx_ge(ls.total_utility, base.total_utility),
            "LS {} < base {}", ls.total_utility, base.total_utility);
    }
}

proptest! {
    // The exact oracle is expensive — fewer, smaller cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The exact optimum dominates every heuristic.
    #[test]
    fn exact_dominates_heuristics(seed in any::<u64>(), density in 0.2f64..0.8) {
        let cfg = TestInstanceConfig {
            num_users: 8,
            num_events: 5,
            num_intervals: 3,
            num_competing: 3,
            num_locations: 2,
            theta: 5.0,
            xi_max: 2.5,
            interest_density: density,
            seed,
        };
        let inst = random_instance(&cfg);
        let k = 3;
        let opt = ExactScheduler::new().run(&inst, k).unwrap();
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(GreedyScheduler::new()),
            Box::new(GreedyHeapScheduler::new()),
            Box::new(TopScheduler::new()),
            Box::new(RandomScheduler::new(seed)),
            Box::new(LocalSearchScheduler::new(GreedyScheduler::new())),
        ];
        for s in schedulers {
            let h = s.run(&inst, k).unwrap();
            prop_assert!(approx_ge(opt.total_utility + 1e-9, h.total_utility),
                "{}: {} exceeds OPT {}", s.name(), h.total_utility, opt.total_utility);
        }
    }
}
