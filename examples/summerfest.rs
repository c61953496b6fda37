//! The paper's motivating scenario (§I): the Summerfest festival.
//!
//! An 11-day festival with 11 stages schedules a slate of multi-themed
//! events (concerts, fashion shows, theatre) while nearby venues run
//! competing events. Users like Alice have clashing interests — she loves
//! both the Pop concert and the fashion show, but can only attend one event
//! per evening — and her availability varies by weekday.
//!
//! ```text
//! cargo run --example summerfest
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses::prelude::*;

const DAYS: usize = 11;
const STAGES: u32 = 11;
const THEMES: [&str; 5] = ["Pop", "Rock", "Jazz", "Fashion", "Theatre"];

fn main() {
    let mut rng = StdRng::seed_from_u64(2018);

    // One evening slot per festival day (19:00–23:00).
    let intervals: Vec<TimeInterval> = (0..DAYS)
        .map(|d| {
            let start = d as u64 * 24 * 60 + 19 * 60;
            TimeInterval::new(IntervalId::new(d as u32), start, start + 4 * 60)
        })
        .collect();

    // 40 candidate events across five themes, each pinned to a stage and
    // needing 2–6 staff units.
    let num_events = 40usize;
    let events: Vec<CandidateEvent> = (0..num_events)
        .map(|e| {
            let theme = THEMES[e % THEMES.len()];
            CandidateEvent::named(
                EventId::new(e as u32),
                LocationId::new(rng.gen_range(0..STAGES)),
                rng.gen_range(2.0..6.0),
                format!("{theme} act #{e}"),
            )
        })
        .collect();

    // Each evening, 1–3 competing events run at nearby venues.
    let mut competing = Vec::new();
    for d in 0..DAYS {
        for _ in 0..rng.gen_range(1..=3) {
            competing.push(CompetingEvent::named(
                CompetingEventId::new(competing.len() as u32),
                IntervalId::new(d as u32),
                format!("rival show (day {d})"),
            ));
        }
    }

    // 3,000 festival-goers with theme affinities. Alice is user 0: a Pop and
    // Fashion lover who works late on Tuesdays (days 1 and 8).
    let num_users = 3_000usize;
    let mut interest = InterestBuilder::new(num_users, num_events, competing.len());
    let mut theme_affinity = vec![[0.0f64; THEMES.len()]; num_users];
    for (u, aff) in theme_affinity.iter_mut().enumerate() {
        // Every user cares about 1–3 themes.
        for _ in 0..rng.gen_range(1..=3) {
            aff[rng.gen_range(0..THEMES.len())] = rng.gen_range(0.4..1.0);
        }
        if u == 0 {
            // Alice: Pop 0.95, Fashion 0.9.
            *aff = [0.95, 0.0, 0.0, 0.9, 0.0];
        }
    }
    for (u, aff) in theme_affinity.iter().enumerate() {
        for (e, _ev) in events.iter().enumerate() {
            let a = aff[e % THEMES.len()];
            if a > 0.0 {
                let jitter: f64 = rng.gen_range(0.85..1.0);
                interest
                    .set(UserId::new(u as u32), EventId::new(e as u32), a * jitter)
                    .unwrap();
            }
        }
        for (c, _) in competing.iter().enumerate() {
            if rng.gen_bool(0.3) {
                interest
                    .set(
                        UserId::new(u as u32),
                        CompetingEventId::new(c as u32),
                        rng.gen_range(0.2..0.8),
                    )
                    .unwrap();
            }
        }
    }

    // Availability: most people can attend any evening with p ≈ 0.7, but
    // Alice works late on Tuesdays.
    let mut sigma = vec![vec![0.0f64; DAYS]; num_users];
    for (u, row) in sigma.iter_mut().enumerate() {
        for (d, v) in row.iter_mut().enumerate() {
            *v = rng.gen_range(0.4..0.9);
            if u == 0 {
                *v = if d % 7 == 1 { 0.05 } else { 0.9 }; // Tuesdays
            }
        }
    }

    let instance = SesInstance::builder()
        .organizer(Organizer::named(12.0, "Summerfest Inc."))
        .intervals(intervals)
        .events(events)
        .competing(competing)
        .interest(interest.build().unwrap())
        .activity(Activity::from_rows(sigma).unwrap())
        .build_shared()
        .expect("valid festival instance");

    // Schedule 22 events (two per evening on average).
    let k = 22;
    let grd = GreedyScheduler::new().run(&instance, k).unwrap();
    let rand = RandomScheduler::new(7).run(&instance, k).unwrap();
    println!("Summerfest: {k} events over {DAYS} evenings, {STAGES} stages");
    println!(
        "GRD  expected attendance : {:.1}  (RAND baseline: {:.1}, +{:.0}%)\n",
        grd.total_utility,
        rand.total_utility,
        100.0 * (grd.total_utility - rand.total_utility) / rand.total_utility
    );

    let engine = AttendanceEngine::with_schedule(&instance, &grd.schedule).unwrap();
    for d in 0..DAYS {
        let t = IntervalId::new(d as u32);
        let events_today = grd.schedule.events_at(t);
        if events_today.is_empty() {
            continue;
        }
        println!(
            "day {d:>2} ({} rival shows):",
            instance.competing_at(t).len()
        );
        for &e in events_today {
            println!(
                "   {:<16} stage {:<2} expected {:>7.1}",
                instance.event(e).display_name(),
                instance.event(e).location.raw(),
                engine.expected_attendance(e).unwrap()
            );
        }
    }

    // Alice's outlook: probability of attending her favourite scheduled events.
    println!("\nAlice's schedule conflicts:");
    let alice = UserId::new(0);
    let mut attended: Vec<(f64, String)> = grd
        .schedule
        .iter()
        .filter_map(|a| {
            let rho = engine.attendance_probability(alice, a.event).unwrap();
            (rho > 0.01).then(|| {
                (
                    rho,
                    format!(
                        "day {:>2}: {:<16} ρ = {rho:.3}",
                        a.interval.raw(),
                        instance.event(a.event).display_name()
                    ),
                )
            })
        })
        .collect();
    attended.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (_, line) in attended.iter().take(6) {
        println!("   {line}");
    }
}
