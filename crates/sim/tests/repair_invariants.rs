//! Property tests of the online repair invariants, driven by simulator
//! streams (ISSUE 1 satellite): across random instances, seeds and
//! workloads,
//!
//! * every repair recovers utility (`recovered() ≥ 0` up to float slack) —
//!   a repair pass only ever applies strictly improving or score-positive
//!   moves;
//! * for streams that never inject dynamic competing mass, the session's Ω
//!   is `evaluate_schedule`'s, recomputed from scratch after every
//!   disruption, bit for bit;
//! * the schedule stays feasible (locations unique per interval, per-interval
//!   resource usage within the *live* budget) at all times.

use proptest::prelude::*;
use ses_core::testkit::{evaluate_schedule, random_instance, TestInstanceConfig};
use ses_core::{GreedyScheduler, IntervalId, OnlineSession, Scheduler};
use ses_sim::{
    scenario_by_name, Disruption, Scenario, SimView, Simulator, TimedDisruption, SCENARIO_NAMES,
};

fn instance_config() -> impl Strategy<Value = TestInstanceConfig> {
    (
        10usize..60,  // users
        4usize..16,   // events
        2usize..8,    // intervals
        0usize..8,    // competing
        2usize..6,    // locations
        4.0f64..16.0, // theta
        0.1f64..0.6,  // density
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

fn check_feasible(inst: &ses_core::SesInstance, session: &OnlineSession) {
    for t in (0..inst.num_intervals()).map(|t| IntervalId::new(t as u32)) {
        let events = session.schedule().events_at(t);
        let mut locations: Vec<u32> = events
            .iter()
            .map(|&e| inst.event(e).location.raw())
            .collect();
        locations.sort_unstable();
        let len_before = locations.len();
        locations.dedup();
        assert_eq!(len_before, locations.len(), "location clash at {t}");
        let used: f64 = events
            .iter()
            .map(|&e| inst.event(e).required_resources)
            .sum();
        assert!(
            used <= session.budget() + 1e-9,
            "interval {t} over live budget: {used} > {}",
            session.budget()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every repair recovers (or at least does not worsen) the disrupted
    /// utility, on every built-in workload.
    #[test]
    fn repairs_recover_on_every_builtin_workload(cfg in instance_config(), k_frac in 0.3f64..1.0) {
        let inst = random_instance(&cfg);
        let k = ((inst.num_events() as f64 * k_frac) as usize).max(1).min(inst.num_events());
        let plan = GreedyScheduler::new().run(&inst, k).unwrap();
        for name in SCENARIO_NAMES {
            let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
            let mut sim = Simulator::new(session, vec![scenario_by_name(name, cfg.seed).unwrap()]);
            sim.withhold_fraction(0.3);
            let summary = sim.run(120);
            prop_assert!(summary.final_utility.is_finite() && summary.final_utility >= -1e-9);
            for r in sim.trace().records() {
                prop_assert!(
                    r.recovered() >= -1e-9,
                    "{name}: step {} lost utility in repair ({} -> {})",
                    r.step, r.utility_disrupted, r.utility_after
                );
                prop_assert!(
                    r.utility_after.is_finite() && r.utility_after >= -1e-9,
                    "{name}: utility went bad at step {}", r.step
                );
            }
            check_feasible(&inst, sim.session());
        }
    }

    /// With no dynamic competing mass in the stream, the session's Ω after
    /// every repair is `evaluate_schedule`'s from scratch, bit for bit.
    #[test]
    fn static_streams_match_reference_evaluation(cfg in instance_config(), churn_seed in any::<u64>()) {
        /// Cancels, extends, late arrivals and capacity swings — everything
        /// except rival mass, so the reference evaluator stays applicable.
        struct StaticChurn {
            n: u64,
            seed: u64,
        }
        impl Scenario for StaticChurn {
            fn name(&self) -> &'static str { "static-churn" }
            fn next(&mut self, now: u64, view: &SimView<'_>) -> Option<TimedDisruption> {
                self.n += 1;
                let roll = (self.n.wrapping_mul(self.seed | 1).wrapping_mul(0x9E3779B97F4A7C15) >> 56) % 5;
                let disruption = match roll {
                    0 => match view.scheduled_events().first().copied() {
                        Some(event) => Disruption::Cancel { event },
                        None => Disruption::Extend,
                    },
                    1 => Disruption::Extend,
                    2 => match view.withheld_events().first().copied() {
                        Some(event) => Disruption::LateArrival { event },
                        None => Disruption::Extend,
                    },
                    3 => Disruption::CapacityChange {
                        budget: view.base_budget() * 0.5,
                    },
                    _ => Disruption::CapacityChange {
                        budget: view.base_budget(),
                    },
                };
                Some(TimedDisruption { at: now + 1, disruption })
            }
        }

        let inst = random_instance(&cfg);
        let k = (inst.num_events() / 2).max(1);
        let plan = GreedyScheduler::new().run(&inst, k).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let mut sim = Simulator::new(session, vec![Box::new(StaticChurn { n: 0, seed: churn_seed })]);
        sim.withhold_fraction(0.4);
        for _ in 0..40 {
            sim.run(1);
            let live = sim.session().utility();
            let reference = evaluate_schedule(&inst, sim.session().schedule()).total_utility;
            prop_assert_eq!(
                live.to_bits(),
                reference.to_bits(),
                "engine {} vs reference {} after {} steps",
                live,
                reference,
                sim.trace().len()
            );
            check_feasible(&inst, sim.session());
        }
    }

    /// Simulation runs are reproducible: same seed, same digest; and the
    /// digest covers the utilities, so equal digests mean equal outcomes.
    #[test]
    fn traces_are_deterministic_per_seed(cfg in instance_config()) {
        let inst = random_instance(&cfg);
        let k = (inst.num_events() / 2).max(1);
        let plan = GreedyScheduler::new().run(&inst, k).unwrap();
        let mut digests = Vec::new();
        let mut finals = Vec::new();
        for _ in 0..2 {
            let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
            let mut sim = Simulator::new(
                session,
                vec![scenario_by_name("steady", cfg.seed).unwrap()],
            );
            sim.withhold_fraction(0.3);
            let summary = sim.run(100);
            digests.push(summary.digest);
            finals.push(summary.final_utility.to_bits());
        }
        prop_assert_eq!(digests[0], digests[1]);
        prop_assert_eq!(finals[0], finals[1]);
    }
}
