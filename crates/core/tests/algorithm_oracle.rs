//! Deterministic integration tests comparing the algorithms against each
//! other and against the exact oracle on a seed grid (complementing the
//! randomized `properties.rs`).

use ses_core::testkit::evaluate_schedule;
use ses_core::testkit::{hand_instance, random_instance, small_instance, TestInstanceConfig};
use ses_core::util::float::{approx_eq, approx_ge};
use ses_core::{
    EventId, ExactScheduler, GreedyHeapScheduler, GreedyScheduler, IntervalId,
    LocalSearchScheduler, RandomScheduler, Scheduler, TopScheduler,
};

#[test]
fn greedy_is_near_optimal_on_small_instances() {
    // GRD has no proven ratio in the paper, but on small random instances it
    // should typically land within 80% of the optimum and never above it.
    let mut worst: f64 = 1.0;
    for seed in 0..12u64 {
        let inst = small_instance(seed);
        let k = 3;
        let opt = ExactScheduler::new().run(&inst, k).unwrap().total_utility;
        if opt <= 0.0 {
            continue;
        }
        let grd = GreedyScheduler::new().run(&inst, k).unwrap().total_utility;
        assert!(approx_ge(opt, grd), "seed {seed}: GRD {grd} > OPT {opt}");
        worst = worst.min(grd / opt);
    }
    assert!(
        worst > 0.8,
        "GRD fell below 80% of optimum somewhere (worst ratio {worst})"
    );
}

#[test]
fn greedy_beats_baselines_in_aggregate() {
    let (mut grd, mut top, mut rand) = (0.0, 0.0, 0.0);
    for seed in 0..10u64 {
        let inst = random_instance(&TestInstanceConfig {
            num_users: 40,
            num_events: 20,
            num_intervals: 8,
            num_competing: 16,
            num_locations: 5,
            theta: 12.0,
            xi_max: 4.0,
            interest_density: 0.35,
            seed,
        });
        let k = 10;
        grd += GreedyScheduler::new().run(&inst, k).unwrap().total_utility;
        top += TopScheduler::new().run(&inst, k).unwrap().total_utility;
        rand += RandomScheduler::new(seed)
            .run(&inst, k)
            .unwrap()
            .total_utility;
    }
    assert!(grd > top, "GRD {grd} must beat TOP {top} in aggregate");
    assert!(grd > rand, "GRD {grd} must beat RAND {rand} in aggregate");
}

#[test]
fn greedy_first_pick_on_hand_instance_is_correct() {
    // On the hand instance the single best first assignment is e1 → t1
    // (user0 ρ=1 plus user1 ρ=1 ⇒ score 2).
    let inst = hand_instance();
    let out = GreedyScheduler::new().run(&inst, 1).unwrap();
    assert_eq!(
        out.schedule.interval_of(EventId::new(1)),
        Some(IntervalId::new(1)),
        "expected e1→t1, got {}",
        out.schedule
    );
    assert!(approx_eq(out.total_utility, 2.0), "{}", out.total_utility);
}

#[test]
fn greedy_full_schedule_on_hand_instance() {
    // k = 3 on the hand instance: all three events placed; brute-force over
    // all 3-event schedules confirms the greedy result is optimal here.
    let inst = hand_instance();
    let grd = GreedyScheduler::new().run(&inst, 3).unwrap();
    assert!(grd.complete);
    let opt = ExactScheduler::new().run(&inst, 3).unwrap();
    assert!(approx_ge(opt.total_utility, grd.total_utility));
    assert!(
        grd.total_utility / opt.total_utility > 0.95,
        "GRD {} vs OPT {}",
        grd.total_utility,
        opt.total_utility
    );
}

#[test]
fn local_search_recovers_most_of_the_gap_from_random() {
    let mut closed = 0usize;
    let mut total = 0usize;
    for seed in 0..8u64 {
        let inst = small_instance(seed);
        let k = 3;
        let opt = ExactScheduler::new().run(&inst, k).unwrap().total_utility;
        let rand = RandomScheduler::new(seed)
            .run(&inst, k)
            .unwrap()
            .total_utility;
        let ls = LocalSearchScheduler::new(RandomScheduler::new(seed))
            .run(&inst, k)
            .unwrap()
            .total_utility;
        if opt - rand > 1e-9 {
            total += 1;
            if (ls - rand) / (opt - rand) > 0.5 {
                closed += 1;
            }
        }
    }
    assert!(
        total == 0 || closed * 2 >= total,
        "LS closed >50% of the RAND→OPT gap in only {closed}/{total} cases"
    );
}

#[test]
fn all_algorithms_handle_every_k_from_zero_to_max() {
    let inst = small_instance(4);
    for k in 0..=inst.num_events() {
        for s in [
            &GreedyScheduler::new() as &dyn Scheduler,
            &GreedyHeapScheduler::new(),
            &TopScheduler::new(),
            &RandomScheduler::new(0),
        ] {
            let out = s.run(&inst, k).unwrap();
            assert!(out.len() <= k);
            inst.check_schedule(&out.schedule).unwrap();
            let eval = evaluate_schedule(&inst, &out.schedule);
            assert_eq!(
                out.total_utility.to_bits(),
                eval.total_utility.to_bits(),
                "{} at k={k}",
                s.name()
            );
        }
    }
}

#[test]
fn outcome_reports_are_coherent() {
    let inst = small_instance(9);
    let out = GreedyScheduler::new().run(&inst, 4).unwrap();
    assert_eq!(out.algorithm, "GRD");
    assert_eq!(out.len(), out.schedule.len());
    assert_eq!(out.complete, out.len() == 4);
    assert!(out.stats.elapsed.as_nanos() > 0);
    assert!(out.stats.engine.assigns as usize >= out.len());
}
