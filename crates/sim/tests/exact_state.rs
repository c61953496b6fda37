//! The exact-state oracle over simulator streams: after every step of the
//! `steady`, `flash-crowd` and `adversarial` workloads, the session's live
//! engine agrees bit for bit with one rebuilt from the competing mass it
//! absorbed and the schedule it now holds. Every repair unassigns and
//! re-assigns, and cancellations and capacity cuts unassign for good, so
//! each step exercises the M re-fold and the set-only resource rule.

use ses_core::testkit::medium_instance;
use ses_core::{AttendanceEngine, GreedyScheduler, IntervalId, OnlineSession, Scheduler, UserId};
use ses_sim::{scenario_by_name, Disruption, Simulator};

/// Panics unless a new engine over `live`'s instance — fed `competing` (the
/// competing-mass injections `live` absorbed, in order), `live`'s budget,
/// then each interval's `events_at(t)` in order — matches `live` bit for
/// bit on every interval's utility and resources. Ω is left out: it is a
/// running sum of each step's gain or loss, so an engine that reached the
/// same schedule by another path added other terms in another order.
fn assert_exact_state(live: &AttendanceEngine, competing: &[(IntervalId, Vec<(UserId, f64)>)]) {
    let mut fresh = AttendanceEngine::new(live.instance_arc());
    for (t, postings) in competing {
        fresh.add_competing_mass(*t, postings);
    }
    fresh.set_budget(live.budget());
    for t in (0..live.schedule().num_intervals()).map(|t| IntervalId::new(t as u32)) {
        for &e in live.schedule().events_at(t) {
            fresh
                .assign(e, t)
                .expect("a live schedule re-assigns in order");
        }
        assert_eq!(
            (
                live.interval_utility(t).to_bits(),
                live.used_resources(t).to_bits()
            ),
            (
                fresh.interval_utility(t).to_bits(),
                fresh.used_resources(t).to_bits()
            ),
            "interval {t}"
        );
    }
}

const STEPS: usize = 150;

fn check_every_step(scenario: &str) {
    for seed in 0..3u64 {
        let inst = medium_instance(seed);
        let plan = GreedyScheduler::new().run(&inst, 8).unwrap();
        let session = OnlineSession::new(&inst, &plan.schedule).unwrap();
        let mut sim = Simulator::new(session, vec![scenario_by_name(scenario, seed).unwrap()]);
        sim.withhold_fraction(0.3);
        sim.set_recording(true);
        let mut competing: Vec<(IntervalId, Vec<(UserId, f64)>)> = Vec::new();
        let mut unassigns = 0;
        for _ in 0..STEPS {
            let step = sim.run(1);
            assert_eq!(step.rejected, 0, "{scenario}: the service refused a step");
            unassigns += step.counters.unassigns;
            for timed in sim.take_recorded() {
                if let Disruption::RivalAnnounce { interval, postings }
                | Disruption::ActivityDrift { interval, postings } = timed.disruption
                {
                    competing.push((interval, postings));
                }
            }
            assert_exact_state(sim.session().engine(), &competing);
        }
        assert!(unassigns > 0, "{scenario} seed {seed}: no step unassigned");
    }
}

#[test]
fn steady_stream_keeps_exact_state() {
    check_every_step("steady");
}

#[test]
fn flash_crowd_stream_keeps_exact_state() {
    check_every_step("flash-crowd");
}

#[test]
fn adversarial_stream_keeps_exact_state() {
    check_every_step("adversarial");
}
