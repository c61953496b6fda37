//! # ses-sim — discrete-event workload simulation for the online scheduler
//!
//! The paper schedules once, offline; `ses_core::online` keeps a published
//! schedule healthy under disruptions. This crate closes the loop: it
//! *generates* sustained, realistic streams of disruptions and replays them
//! against an [`OnlineSession`](ses_core::OnlineSession), so the serving
//! behaviour of the repair machinery under traffic is measurable and
//! reproducible.
//!
//! ## Architecture
//!
//! * [`Disruption`] — the vocabulary of world changes: rival announcements,
//!   cancellations, late candidate arrivals, capacity changes, activity
//!   drift, and `k → k+1` extensions;
//! * [`Scenario`] — a pluggable, deterministic generator of
//!   [`TimedDisruption`]s. Four workloads ship built in:
//!   [`SteadyState`], [`FlashCrowd`], [`AdversarialRival`] and [`Seasonal`];
//!   new workloads are one trait impl away (see the `scenario` module docs);
//! * [`Simulator`] — the discrete-event core: merges all scenario streams on
//!   a time-ordered queue, converts each disruption to a
//!   [`ses_service::SessionEvent`] and applies it through
//!   [`ses_service::SchedulerService::apply`] (the same request path the
//!   CLI and any server front end use), and records a [`Trace`];
//! * [`Trace`] / [`SimSummary`] — per-step utility/repair records with a
//!   64-bit determinism digest, plus throughput counters (disruptions/sec
//!   and the engine's hardware-independent
//!   [`EngineCounters`](ses_core::EngineCounters)).
//!
//! ## Determinism
//!
//! Every source of randomness is an explicitly seeded [`rand::rngs::StdRng`];
//! wall-clock time never influences control flow. Two runs with the same
//! instance, schedule, scenario and seed produce bit-identical traces —
//! checked by comparing [`Trace::digest`] values, which is exactly what
//! `ses simulate` does.
//!
//! ## Quick example
//!
//! ```
//! use ses_core::prelude::*;
//! use ses_core::testkit;
//! use ses_sim::{scenario_by_name, Simulator};
//!
//! let inst = testkit::medium_instance(7);
//! let plan = GreedyScheduler::new().run(&inst, 6).unwrap();
//! let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
//!
//! let scenario = scenario_by_name("flash-crowd", 42).unwrap();
//! let mut sim = Simulator::new(session, vec![scenario]);
//! sim.withhold_fraction(0.3); // leave some candidates to arrive late
//! let summary = sim.run(500);
//! assert_eq!(summary.steps, 500);
//! assert!(summary.final_utility >= 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disruption;
pub mod scenario;
pub mod simulator;
pub mod trace;

pub use disruption::{Disruption, DisruptionKind, TimedDisruption};
pub use scenario::{
    scenario_by_name, AdversarialRival, FlashCrowd, Scenario, Seasonal, SimView, SteadyState,
    SCENARIO_NAMES,
};
pub use simulator::{withhold_selection, SimSummary, Simulator};
pub use trace::{Trace, TraceRecord};

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::algorithms::{GreedyScheduler, Scheduler};
    use ses_core::testkit;
    use ses_core::testkit::evaluate_schedule;
    use ses_core::OnlineSession;

    fn simulator(
        scenario: &str,
        seed: u64,
    ) -> (std::sync::Arc<ses_core::SesInstance>, Box<dyn Scenario>) {
        let inst = testkit::medium_instance(seed);
        let scn = scenario_by_name(scenario, seed).unwrap();
        (inst, scn)
    }

    fn run_once(scenario: &str, seed: u64, steps: u64) -> (SimSummary, Vec<TraceRecord>) {
        let (inst, scn) = simulator(scenario, seed);
        let plan = GreedyScheduler::new().run(&inst, 6).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let mut sim = Simulator::new(session, vec![scn]);
        sim.withhold_fraction(0.4);
        let summary = sim.run(steps);
        (summary, sim.trace().records().to_vec())
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        for scenario in SCENARIO_NAMES {
            let (a, ta) = run_once(scenario, 11, 300);
            let (b, tb) = run_once(scenario, 11, 300);
            assert_eq!(a.digest, b.digest, "{scenario}: digests differ");
            assert_eq!(ta, tb, "{scenario}: traces differ");
            assert_eq!(a.final_utility.to_bits(), b.final_utility.to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let (a, _) = run_once("steady", 1, 200);
        let (b, _) = run_once("steady", 2, 200);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn every_builtin_scenario_sustains_load() {
        for scenario in SCENARIO_NAMES {
            let (summary, records) = run_once(scenario, 5, 400);
            assert_eq!(summary.steps, 400, "{scenario} dried up early");
            assert_eq!(records.len(), 400);
            assert!(summary.final_utility.is_finite() && summary.final_utility >= 0.0);
            assert!(
                summary.counters.score_evaluations > 0,
                "{scenario} never scored"
            );
            // Ticks advance monotonically.
            for w in records.windows(2) {
                assert!(w[0].tick <= w[1].tick, "{scenario}: time ran backwards");
            }
        }
    }

    #[test]
    fn schedule_stays_feasible_throughout() {
        let (inst, scn) = simulator("seasonal", 23);
        let plan = GreedyScheduler::new().run(&inst, 6).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let mut sim = Simulator::new(session, vec![scn]);
        for _ in 0..20 {
            sim.run(25);
            let session = sim.session();
            // The instance-level check validates locations and the *original*
            // budget; under a live capacity cut the engine's budget is
            // stricter, so check per-interval usage against it directly.
            for t in (0..inst.num_intervals()).map(|t| ses_core::IntervalId::new(t as u32)) {
                let used: f64 = session
                    .schedule()
                    .events_at(t)
                    .iter()
                    .map(|&e| inst.event(e).required_resources)
                    .sum();
                assert!(
                    used <= session.budget() + 1e-9,
                    "interval {t} over live budget"
                );
            }
        }
    }

    #[test]
    fn static_mass_streams_match_reference_evaluation() {
        // A scenario emitting only schedule-shaped disruptions (no rival
        // mass) must keep the engine's running Ω in lockstep with the
        // from-scratch evaluator.
        struct Churn {
            n: u64,
        }
        impl Scenario for Churn {
            fn name(&self) -> &'static str {
                "churn"
            }
            fn next(&mut self, now: u64, view: &SimView<'_>) -> Option<TimedDisruption> {
                self.n += 1;
                let disruption = match self.n % 3 {
                    0 => match view.scheduled_events().first().copied() {
                        Some(event) => Disruption::Cancel { event },
                        None => Disruption::Extend,
                    },
                    1 => Disruption::Extend,
                    _ => Disruption::CapacityChange {
                        budget: view.base_budget()
                            * if self.n.is_multiple_of(2) { 0.5 } else { 1.0 },
                    },
                };
                Some(TimedDisruption {
                    at: now + 1,
                    disruption,
                })
            }
        }

        let inst = testkit::medium_instance(31);
        let plan = GreedyScheduler::new().run(&inst, 6).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let mut sim = Simulator::new(session, vec![Box::new(Churn { n: 0 })]);
        for _ in 0..30 {
            sim.run(5);
            let eval = evaluate_schedule(&inst, sim.session().schedule());
            let live = sim.session().utility();
            assert_eq!(
                live.to_bits(),
                eval.total_utility.to_bits(),
                "engine {live} vs reference {}",
                eval.total_utility
            );
        }
    }

    #[test]
    fn seasonal_fires_capacity_changes_at_every_boundary() {
        let inst = testkit::medium_instance(41);
        let plan = GreedyScheduler::new().run(&inst, 6).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let mut sim = Simulator::new(session, vec![scenario_by_name("seasonal", 41).unwrap()]);
        let summary = sim.run(600);
        let capacity_events: Vec<u64> = sim
            .trace()
            .records()
            .iter()
            .filter(|r| r.kind == DisruptionKind::CapacityChange)
            .map(|r| r.tick)
            .collect();
        // Ticks advance by 1–3, so 600 steps cover ≥ 600 ticks ≥ 10 full
        // half-seasons (60 ticks each); every crossing must fire exactly one
        // capacity change even though ticks rarely land on the boundary.
        let expected = summary.final_tick / 60;
        assert_eq!(
            capacity_events.len() as u64,
            expected,
            "one capacity change per half-season boundary (final tick {})",
            summary.final_tick
        );
        for pair in capacity_events.windows(2) {
            assert!(pair[1] - pair[0] >= 55, "boundaries ~60 ticks apart");
        }
    }

    #[test]
    fn flash_crowd_releases_withheld_candidates() {
        // Regression: withheld "late arrival" candidates must actually
        // arrive under flash-crowd — recovery phases release them.
        let inst = testkit::medium_instance(47);
        let plan = GreedyScheduler::new().run(&inst, 4).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let scenario = scenario_by_name("flash-crowd", 47).unwrap();
        assert!(scenario.releases_late_arrivals());
        let mut sim = Simulator::new(session, vec![scenario]);
        let withheld = sim.withhold_fraction(1.0);
        assert!(!withheld.is_empty(), "12 events, 4 scheduled");
        sim.run(600);
        let arrivals = sim
            .kind_histogram()
            .into_iter()
            .find(|(k, _)| *k == DisruptionKind::LateArrival)
            .map(|(_, n)| n)
            .unwrap_or(0);
        assert!(arrivals > 0, "recovery phases must release arrivals");
        // Adversarial declares the opposite, so drivers can skip holdback.
        assert!(!scenario_by_name("adversarial", 1)
            .unwrap()
            .releases_late_arrivals());
    }

    #[test]
    fn multiple_sources_merge_on_the_queue() {
        let inst = testkit::medium_instance(3);
        let plan = GreedyScheduler::new().run(&inst, 5).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let mut sim = Simulator::new(
            session,
            vec![
                scenario_by_name("steady", 1).unwrap(),
                scenario_by_name("adversarial", 1).unwrap(),
            ],
        );
        let summary = sim.run(200);
        assert_eq!(summary.steps, 200);
        let hist = sim.kind_histogram();
        let rivals = hist
            .iter()
            .find(|(k, _)| *k == DisruptionKind::RivalAnnounce)
            .unwrap()
            .1;
        assert!(rivals > 50, "both sources should contribute rivals");
    }

    #[test]
    fn repairs_never_lose_ground_on_any_builtin_scenario() {
        for scenario in SCENARIO_NAMES {
            let (_, records) = run_once(scenario, 17, 300);
            for r in &records {
                assert!(
                    r.recovered() >= -1e-9,
                    "{scenario}: repair lost utility at step {}",
                    r.step
                );
            }
        }
    }

    #[test]
    fn service_rejections_are_counted_not_hidden() {
        // A buggy scenario that references events outside the instance's
        // universe: the service rejects each one, the run stays
        // deterministic, and the summary reports the rejections separately
        // from ordinary inert steps.
        struct OffByOne {
            n: u64,
        }
        impl Scenario for OffByOne {
            fn name(&self) -> &'static str {
                "off-by-one"
            }
            fn next(&mut self, now: u64, view: &SimView<'_>) -> Option<TimedDisruption> {
                self.n += 1;
                let disruption = if self.n.is_multiple_of(2) {
                    // Out of universe — a classic off-by-one.
                    Disruption::Cancel {
                        event: ses_core::EventId::new(view.num_events() as u32),
                    }
                } else {
                    Disruption::Extend
                };
                Some(TimedDisruption {
                    at: now + 1,
                    disruption,
                })
            }
        }

        let inst = testkit::medium_instance(13);
        let plan = GreedyScheduler::new().run(&inst, 4).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let mut sim = Simulator::new(session, vec![Box::new(OffByOne { n: 0 })]);
        let summary = sim.run(40);
        assert_eq!(summary.steps, 40);
        assert_eq!(summary.rejected, 20, "every bad cancel must be counted");
        assert!(summary.skipped >= summary.rejected);
        // Well-formed scenarios never trip the counter.
        let (inst, scn) = simulator("steady", 3);
        let plan = GreedyScheduler::new().run(&inst, 6).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let mut sim = Simulator::new(session, vec![scn]);
        assert_eq!(sim.run(200).rejected, 0);
    }

    #[test]
    fn run_can_resume_and_trace_grows() {
        let (inst, scn) = simulator("flash-crowd", 9);
        let plan = GreedyScheduler::new().run(&inst, 6).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let mut sim = Simulator::new(session, vec![scn]);
        let first = sim.run(100);
        let second = sim.run(100);
        assert_eq!(sim.trace().len(), 200);
        assert!(second.final_tick >= first.final_tick);
        // A fresh run of 200 equals the two-stage run's trace.
        let (inst2, scn2) = simulator("flash-crowd", 9);
        let plan2 = GreedyScheduler::new().run(&inst2, 6).unwrap();
        let session2 = OnlineSession::new(&inst2, &plan2.schedule).unwrap();
        let mut sim2 = Simulator::new(session2, vec![scn2]);
        sim2.run(200);
        assert_eq!(sim.trace().digest(), sim2.trace().digest());
    }
}
