//! Golden bytes of the packed instance format: each instance below is
//! written with `store::write_instance` and the whole buffer's `FoldState`
//! digest is compared with a constant. The instances cover every way σ is
//! produced (hashed, masked window, check-in slot profile, explicit dense
//! rows with zeros), so any drift in σ materialisation, in the interest
//! postings or in the writer changes a digest.

use ses_core::interest::InterestBuilder;
use ses_core::model::uniform_grid;
use ses_core::store::{write_instance, FoldState};
use ses_core::{
    testkit, Activity, CandidateEvent, CompetingEvent, CompetingEventId, EventId, IntervalId,
    LocationId, Organizer, SesInstance, UserId,
};
use ses_datagen::paper::{PaperConfig, SigmaMode};
use ses_datagen::pipeline::build_instance;
use ses_datagen::synthetic::sparse_population;
use ses_ebsn::{generate, GeneratorConfig};

fn digest(inst: &SesInstance) -> u64 {
    let mut buf = Vec::new();
    let written = write_instance(inst, &mut buf).expect("in-memory write succeeds");
    assert_eq!(written as usize, buf.len());
    let mut fold = FoldState::new();
    fold.update(&buf);
    fold.finalize()
}

/// 4 users × 3 intervals of explicit σ, with zeros that must not be stored:
/// user 2 is never active and interval 1 holds a single user.
fn dense_with_zeros() -> SesInstance {
    let mut interest = InterestBuilder::new(4, 2, 1);
    interest.set(UserId::new(0), EventId::new(0), 0.9).unwrap();
    interest.set(UserId::new(1), EventId::new(0), 0.25).unwrap();
    interest.set(UserId::new(3), EventId::new(1), 0.6).unwrap();
    interest
        .set(UserId::new(2), CompetingEventId::new(0), 0.4)
        .unwrap();
    SesInstance::builder()
        .organizer(Organizer::new(5.0))
        .intervals(uniform_grid(3, 60))
        .events(vec![
            CandidateEvent::new(EventId::new(0), LocationId::new(0), 2.0),
            CandidateEvent::new(EventId::new(1), LocationId::new(1), 3.0),
        ])
        .competing(vec![CompetingEvent::new(
            CompetingEventId::new(0),
            IntervalId::new(2),
        )])
        .interest(interest.build().unwrap())
        .activity(
            Activity::from_rows(vec![
                vec![0.5, 0.0, 0.125],
                vec![0.0, 0.0, 1.0],
                vec![0.0, 0.0, 0.0],
                vec![0.75, 0.3, 0.0],
            ])
            .unwrap(),
        )
        .build()
        .unwrap()
}

#[test]
fn hashed_sigma_bytes_are_pinned() {
    let inst = testkit::workload_instance(200, 20, 16, 3);
    assert_eq!(digest(&inst), 0x827bfa01e36ebc19);
}

#[test]
fn masked_sigma_bytes_are_pinned() {
    let inst = sparse_population(5_000, 40, 24, 4, 3, 9);
    assert_eq!(digest(&inst), 0xb229df7c4182d03b);
}

#[test]
fn checkin_slot_sigma_bytes_are_pinned() {
    let dataset = generate(&GeneratorConfig {
        num_members: 150,
        num_events: 120,
        ..GeneratorConfig::default()
    });
    let cfg = PaperConfig {
        k: 10,
        sigma: SigmaMode::FromCheckins,
        seed: 5,
        ..PaperConfig::default()
    };
    let built = build_instance(&dataset, &cfg).expect("dataset is large enough");
    assert_eq!(digest(&built.instance), 0x544761a399c56c0c);
}

#[test]
fn dense_sigma_with_zeros_bytes_are_pinned() {
    assert_eq!(digest(&dense_with_zeros()), 0x6f89f1bf413be112);
}
