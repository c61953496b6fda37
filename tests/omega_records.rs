//! Prints, one JSON line per record, what `scripts/omega_only.py` compares
//! between two builds: every step of the four `ses simulate` streams (the
//! CI sizing: 2,000 steps, seed 42) and of `bench_server`'s replay stream
//! (flash-crowd, 400 steps, seed 0), each with the session's schedule,
//! counters, reported Ω and per-event ω, and the Ω and ω of a hash-map
//! oracle that this file carries itself. It uses no API the two builds do
//! not share, so either build runs it and the oracle values are the same.
//! It is ignored by default:
//!
//! ```text
//! cargo test --release --test omega_records -- --ignored --nocapture
//! ```

use ses::core::testkit::workload_instance;
use ses::core::util::float::luce_ratio;
use ses::core::{IntervalId, Schedule, SchedulerSpec, SesInstance, UserId};
use ses::service::{SchedulerService, SessionOpen};
use ses::sim::{scenario_by_name, Disruption, Simulator};
use std::collections::HashMap;
use std::sync::Arc;

/// Rival postings a session absorbed, in arrival order.
type Rivals = Vec<(IntervalId, Vec<(UserId, f64)>)>;

/// Ω and every ω of `schedule` from scratch: per interval and user, the
/// denominator folds the instance's competing µ, then `rivals`' µ, then
/// the scheduled events' µ in event-id order; ω sums `σ·µ/D` over each
/// event's posting list, and Ω sums ω in event-id order.
fn oracle(inst: &SesInstance, rivals: &Rivals, schedule: &Schedule) -> (f64, Vec<(u32, f64)>) {
    let interest = inst.interest();
    let mut denom: Vec<HashMap<UserId, f64>> = vec![HashMap::new(); inst.num_intervals()];
    for c in inst.competing() {
        for &(u, mu) in interest.interested_users(c.id.into()) {
            *denom[c.interval.index()].entry(u).or_insert(0.0) += mu;
        }
    }
    for (t, postings) in rivals {
        for &(u, mu) in postings {
            *denom[t.index()].entry(u).or_insert(0.0) += mu;
        }
    }
    for a in schedule.iter() {
        for &(u, mu) in interest.interested_users(a.event.into()) {
            *denom[a.interval.index()].entry(u).or_insert(0.0) += mu;
        }
    }
    let mut total = 0.0;
    let mut per_event = Vec::new();
    for a in schedule.iter() {
        let mut omega = 0.0;
        for &(u, mu) in interest.interested_users(a.event.into()) {
            let d = denom[a.interval.index()].get(&u).copied().unwrap_or(0.0);
            omega += inst.sigma(u, a.interval) * luce_ratio(mu, d);
        }
        per_event.push((a.event.raw(), omega));
        total += omega;
    }
    (total, per_event)
}

fn pairs<T: std::fmt::Display>(items: impl Iterator<Item = (u32, T)>) -> String {
    let items: Vec<String> = items.map(|(a, b)| format!("[{a},{b}]")).collect();
    format!("[{}]", items.join(","))
}

/// Runs one stream step by step and prints its open line and every record.
fn stream(
    label: &str,
    inst: &Arc<SesInstance>,
    scenario: &str,
    seed: u64,
    steps: u64,
    holdback: f64,
) {
    let mut service = SchedulerService::new();
    let open = SessionOpen {
        name: "omega".to_owned(),
        spec: SchedulerSpec::Greedy,
        k: 20.min(inst.num_events()),
        instance: Default::default(),
    };
    let opened = service.open_session(inst, &open).expect("open");
    let scenario = scenario_by_name(scenario, seed).expect("scenario");
    let mut sim = Simulator::over_service(service, "omega", vec![scenario]).expect("sim");
    sim.withhold_fraction(holdback);
    sim.set_recording(true);
    let mut rivals: Rivals = Vec::new();
    let line = |sim: &Simulator, rivals: &Rivals, record: String| {
        let session = sim.service().session("omega").expect("session");
        let schedule = session.schedule();
        let (omega, per_event) = oracle(inst, rivals, schedule);
        let c = session.counters();
        println!(
            "{{\"stream\":\"{label}\",{record},\"scheduled\":{},\"counters\":[{},{},{},{}],\
             \"utility\":{},\"omega\":{},\"oracle_utility\":{omega},\"oracle_omega\":{}}}",
            pairs(schedule.iter().map(|a| (a.event.raw(), a.interval.raw()))),
            c.score_evaluations,
            c.posting_visits,
            c.assigns,
            c.unassigns,
            session.utility(),
            pairs(schedule.iter().map(|a| {
                let w = session.engine().expected_attendance(a.event);
                (a.event.raw(), w.expect("scheduled"))
            })),
            pairs(per_event.into_iter()),
        );
    };
    line(
        &sim,
        &rivals,
        format!(
            "\"step\":\"open\",\"utility_open\":{}",
            opened.total_utility
        ),
    );
    for _ in 0..steps {
        let seen = sim.trace().len();
        sim.run(1);
        for timed in sim.take_recorded() {
            if let Disruption::RivalAnnounce { interval, postings }
            | Disruption::ActivityDrift { interval, postings } = timed.disruption
            {
                rivals.push((interval, postings));
            }
        }
        for r in &sim.trace().records()[seen..] {
            let record = format!(
                "\"step\":{},\"tick\":{},\"kind\":\"{:?}\",\"applied\":{},\"moves\":{},\
                 \"utility_before\":{},\"utility_disrupted\":{},\"utility_after\":{}",
                r.step,
                r.tick,
                r.kind,
                r.applied,
                r.moves,
                r.utility_before,
                r.utility_disrupted,
                r.utility_after
            );
            line(&sim, &rivals, record);
        }
    }
}

#[test]
#[ignore = "prints the records scripts/omega_only.py compares"]
fn print_omega_records() {
    let cli = workload_instance(400, 60, 24, 42);
    for scenario in ["steady", "flash-crowd", "adversarial", "seasonal"] {
        let probe = scenario_by_name(scenario, 42).expect("scenario");
        let holdback = if probe.releases_late_arrivals() {
            0.3
        } else {
            0.0
        };
        stream(scenario, &cli, scenario, 42, 2000, holdback);
    }
    let replay = workload_instance(400, 60, 24, 0);
    stream("replay", &replay, "flash-crowd", 0, 400, 0.3);
}
