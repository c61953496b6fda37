//! Quickstart: build a small SES instance by hand, schedule it with the
//! paper's greedy algorithm, and inspect the result.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ses::prelude::*;

fn main() {
    // A club owner can host events in two evening slots. Three candidate
    // events compete for them; a rival venue runs a party during slot 0.
    //
    // Four regulars, whose interest µ ∈ [0,1] we estimated elsewhere:
    //                 jazz-night  wine-tasting  open-mic   rival-party
    //   u0 (Ana)         0.9          0.2          0.0         0.5
    //   u1 (Bo)          0.7          0.0          0.3         0.0
    //   u2 (Cleo)        0.0          0.8          0.4         0.6
    //   u3 (Dee)         0.0          0.0          0.9         0.0
    let mut interest = InterestBuilder::new(4, 3, 1);
    let entries = [
        (0, 0, 0.9),
        (0, 1, 0.2),
        (1, 0, 0.7),
        (1, 2, 0.3),
        (2, 1, 0.8),
        (2, 2, 0.4),
        (3, 2, 0.9),
    ];
    for (u, e, v) in entries {
        interest
            .set(UserId::new(u), EventId::new(e), v)
            .expect("interest in range");
    }
    interest
        .set(UserId::new(0), CompetingEventId::new(0), 0.5)
        .unwrap();
    interest
        .set(UserId::new(2), CompetingEventId::new(0), 0.6)
        .unwrap();

    let instance = SesInstance::builder()
        .organizer(Organizer::named(10.0, "Blue Note Club"))
        // Two disjoint 3-hour evening slots.
        .intervals(uniform_grid(2, 180))
        .events(vec![
            CandidateEvent::named(EventId::new(0), LocationId::new(0), 4.0, "Jazz Night"),
            CandidateEvent::named(EventId::new(1), LocationId::new(1), 3.0, "Wine Tasting"),
            CandidateEvent::named(EventId::new(2), LocationId::new(0), 5.0, "Open Mic"),
        ])
        // The rival party coincides with slot 0.
        .competing(vec![CompetingEvent::named(
            CompetingEventId::new(0),
            IntervalId::new(0),
            "Rival Party",
        )])
        .interest(interest.build().unwrap())
        // Everyone is free tonight with probability 0.8.
        .activity(Activity::constant(4, 2, 0.8).unwrap())
        .build_shared()
        .expect("valid instance");

    // Schedule two of the three candidates.
    let outcome = GreedyScheduler::new()
        .run(&instance, 2)
        .expect("k within bounds");

    println!("schedule   : {}", outcome.schedule);
    println!(
        "utility Ω  : {:.3} expected attendees",
        outcome.total_utility
    );
    println!("complete   : {}", outcome.complete);
    println!();

    let engine = AttendanceEngine::with_schedule(&instance, &outcome.schedule)
        .expect("schedule is feasible");
    for assignment in outcome.schedule.iter() {
        let event = instance.event(assignment.event);
        println!(
            "{:<14} at {} — expected attendance {:.3}",
            event.display_name(),
            assignment.interval,
            engine.expected_attendance(assignment.event).unwrap()
        );
        for u in 0..4u32 {
            let rho = engine
                .attendance_probability(UserId::new(u), assignment.event)
                .unwrap();
            if rho > 0.0 {
                println!("    user u{u}: ρ = {rho:.3}");
            }
        }
    }
}
