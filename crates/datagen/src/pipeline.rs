//! EBSN dataset → SES instance pipeline (the paper's preprocessing).
//!
//! Following §IV-A: candidate events are drawn from the dataset's events,
//! user–event interest is the Jaccard similarity of tag sets, competing
//! events are drawn per interval with a uniform count of mean 8.1, events
//! are spread over 25 locations, `ξ ~ U[1, θ/3]`, and `σ` is uniform (or,
//! as an extension, estimated from check-ins).
//!
//! Interest construction uses an inverted tag → members index so that only
//! users sharing at least one tag with an event are ever scored — the
//! Jaccard of everyone else is exactly zero. This is what makes paper-scale
//! populations (42K users) tractable.

use crate::paper::{PaperConfig, SigmaMode};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ses_core::interest::InterestBuilder;
use ses_core::{
    Activity, CandidateEvent, CompetingEvent, CompetingEventId, EventId, IntervalId, LocationId,
    Organizer, SesInstance, TimeInterval, UserId,
};
use ses_ebsn::checkins::{SLOTS_PER_WEEK, TICKS_PER_DAY, TICKS_PER_HOUR};
use ses_ebsn::{estimate_slot_activity, jaccard, EbsnDataset, EbsnEventId, SmoothingConfig};
use std::fmt;
use std::sync::Arc;

/// Errors from instance construction.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The dataset has fewer events than the configuration needs.
    NotEnoughEvents {
        /// Events required (candidates + at least one competing source).
        needed: usize,
        /// Events available in the dataset.
        available: usize,
    },
    /// The dataset has no members.
    NoMembers,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NotEnoughEvents { needed, available } => write!(
                f,
                "dataset has {available} events but the configuration needs {needed}"
            ),
            BuildError::NoMembers => write!(f, "dataset has no members"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A built instance plus provenance back into the dataset.
#[derive(Debug)]
pub struct BuiltInstance {
    /// The ready-to-schedule instance, behind the shared handle engines,
    /// sessions and services consume.
    pub instance: Arc<SesInstance>,
    /// For each candidate event id `e`, the dataset event it came from.
    pub candidate_source: Vec<EbsnEventId>,
    /// For each competing event id `c`, the dataset event it came from.
    pub competing_source: Vec<EbsnEventId>,
}

/// Daypart start hours for the interval grid (morning/afternoon/evening).
const PART_START_HOURS: [u64; 3] = [9, 13, 19];
/// Interval length: 3 hours.
const INTERVAL_MINUTES: u64 = 3 * TICKS_PER_HOUR;

/// Lays out `n` disjoint candidate intervals as consecutive dayparts
/// (day 0 morning, day 0 afternoon, day 0 evening, day 1 morning, …),
/// returning the intervals and their weekly slot indices.
fn interval_grid(n: usize) -> (Vec<TimeInterval>, Vec<u16>) {
    let mut intervals = Vec::with_capacity(n);
    let mut slots = Vec::with_capacity(n);
    for i in 0..n {
        let day = (i / 3) as u64;
        let part = i % 3;
        let start = day * TICKS_PER_DAY + PART_START_HOURS[part] * TICKS_PER_HOUR;
        intervals.push(TimeInterval::new(
            IntervalId::new(i as u32),
            start,
            start + INTERVAL_MINUTES,
        ));
        slots.push(((day % 7) as usize * 3 + part) as u16);
    }
    (intervals, slots)
}

/// Builds a SES instance from a dataset under the paper's parameterization.
pub fn build_instance(
    dataset: &EbsnDataset,
    cfg: &PaperConfig,
) -> Result<BuiltInstance, BuildError> {
    if dataset.members.is_empty() {
        return Err(BuildError::NoMembers);
    }
    let num_candidates = cfg.num_events();
    if dataset.events.len() < num_candidates + 1 {
        return Err(BuildError::NotEnoughEvents {
            needed: num_candidates + 1,
            available: dataset.events.len(),
        });
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let num_intervals = cfg.num_intervals();
    let num_users = dataset.members.len();

    // --- candidate events: sampled without replacement ------------------
    let mut pool: Vec<usize> = (0..dataset.events.len()).collect();
    pool.shuffle(&mut rng);
    let candidate_idx: Vec<usize> = pool[..num_candidates].to_vec();
    let competing_pool: Vec<usize> = pool[num_candidates..].to_vec();

    let candidate_source: Vec<EbsnEventId> = candidate_idx
        .iter()
        .map(|&i| dataset.events[i].id)
        .collect();
    let events: Vec<CandidateEvent> = candidate_idx
        .iter()
        .enumerate()
        .map(|(e, &i)| {
            let src = &dataset.events[i];
            CandidateEvent::new(
                EventId::new(e as u32),
                // Spread over the configured number of locations, keeping
                // venue identity deterministic.
                LocationId::new(src.venue.raw() % cfg.num_locations.max(1) as u32),
                rng.gen_range(cfg.xi_min..=cfg.xi_max),
            )
        })
        .collect();

    // --- competing events: per-interval uniform count, mean 8.1 ---------
    // "selected by a uniform distribution having 8.1 as mean value": we draw
    // the count from U[0, 2·mean] and round (support choice documented in
    // DESIGN.md §4).
    let mut competing = Vec::new();
    let mut competing_source = Vec::new();
    for t in 0..num_intervals {
        let count = rng.gen_range(0.0..=2.0 * cfg.competing_mean).round() as usize;
        for _ in 0..count {
            let src = competing_pool[rng.gen_range(0..competing_pool.len())];
            competing_source.push(dataset.events[src].id);
            competing.push(CompetingEvent::new(
                CompetingEventId::new(competing.len() as u32),
                IntervalId::new(t as u32),
            ));
        }
    }

    // --- interest: Jaccard over tags via an inverted tag index ----------
    let vocab_len = dataset.vocabulary.len();
    let mut tag_members: Vec<Vec<u32>> = vec![Vec::new(); vocab_len];
    for m in &dataset.members {
        for tag in m.tags.iter() {
            tag_members[tag.raw() as usize].push(m.id.raw());
        }
    }
    let mut builder = InterestBuilder::new(num_users, num_candidates, competing.len());
    // Epoch-stamped dedup buffer, reused across events (no per-event alloc).
    let mut stamp = vec![0u32; num_users];
    let mut epoch = 0u32;
    let mut touched: Vec<u32> = Vec::new();
    {
        let mut add_event = |src_idx: usize, target: TargetEvent| {
            epoch += 1;
            touched.clear();
            let event = &dataset.events[src_idx];
            for tag in event.tags.iter() {
                if let Some(list) = tag_members.get(tag.raw() as usize) {
                    for &m in list {
                        if stamp[m as usize] != epoch {
                            stamp[m as usize] = epoch;
                            touched.push(m);
                        }
                    }
                }
            }
            for &m in &touched {
                let sim = jaccard(&dataset.members[m as usize].tags, &event.tags);
                if sim > 0.0 {
                    match target {
                        TargetEvent::Candidate(e) => builder
                            .set(UserId::new(m), EventId::new(e), sim)
                            .expect("jaccard is in [0,1]"),
                        TargetEvent::Competing(c) => builder
                            .set(UserId::new(m), CompetingEventId::new(c), sim)
                            .expect("jaccard is in [0,1]"),
                    };
                }
            }
        };
        for (e, &i) in candidate_idx.iter().enumerate() {
            add_event(i, TargetEvent::Candidate(e as u32));
        }
        for (c, src) in competing_source.iter().enumerate() {
            add_event(src.index(), TargetEvent::Competing(c as u32));
        }
    }
    let interest = builder.build().expect("pipeline interest is valid");

    // --- intervals and σ -------------------------------------------------
    let (intervals, slot_of) = interval_grid(num_intervals);
    let builder = SesInstance::builder()
        .organizer(Organizer::new(cfg.theta))
        .intervals(intervals)
        .events(events)
        .competing(competing)
        .interest(interest);
    let instance = match cfg.sigma {
        SigmaMode::Uniform => builder
            .activity(Activity::hashed(
                num_users,
                num_intervals,
                cfg.seed ^ 0x00ac_7171,
            ))
            .build_shared(),
        SigmaMode::FromCheckins => {
            let profile = estimate_slot_activity(dataset, SmoothingConfig::default());
            let activity = Activity::from_slots(SLOTS_PER_WEEK, profile, slot_of)
                .expect("profile shape is consistent by construction");
            builder.activity(activity).build_shared()
        }
    }
    .expect("pipeline instance must validate");

    Ok(BuiltInstance {
        instance,
        candidate_source,
        competing_source,
    })
}

#[derive(Clone, Copy)]
enum TargetEvent {
    Candidate(u32),
    Competing(u32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::EventRef;
    use ses_ebsn::{generate, GeneratorConfig};

    fn small_cfg() -> PaperConfig {
        PaperConfig {
            k: 20,
            ..PaperConfig::default()
        }
    }

    fn dataset() -> EbsnDataset {
        generate(&GeneratorConfig::default())
    }

    #[test]
    fn builds_with_paper_shapes() {
        let ds = dataset();
        let cfg = small_cfg();
        let built = build_instance(&ds, &cfg).unwrap();
        let inst = &built.instance;
        assert_eq!(inst.num_events(), cfg.num_events());
        assert_eq!(inst.num_intervals(), cfg.num_intervals());
        assert_eq!(inst.num_users(), ds.members.len());
        assert_eq!(built.candidate_source.len(), inst.num_events());
        assert_eq!(built.competing_source.len(), inst.num_competing());
        assert_eq!(inst.budget(), 20.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = dataset();
        let a = build_instance(&ds, &small_cfg()).unwrap();
        let b = build_instance(&ds, &small_cfg()).unwrap();
        assert_eq!(a.candidate_source, b.candidate_source);
        assert_eq!(a.competing_source, b.competing_source);
        let c = build_instance(
            &ds,
            &PaperConfig {
                seed: 9,
                ..small_cfg()
            },
        )
        .unwrap();
        assert_ne!(a.candidate_source, c.candidate_source);
    }

    #[test]
    fn interest_matches_dataset_jaccard() {
        let ds = dataset();
        let built = build_instance(&ds, &small_cfg()).unwrap();
        let inst = &built.instance;
        // Spot-check a handful of (user, candidate) pairs against a direct
        // Jaccard computation.
        for e in 0..5usize {
            let src = &ds.events[built.candidate_source[e].index()];
            for u in (0..ds.members.len()).step_by(37) {
                let expected = jaccard(&ds.members[u].tags, &src.tags);
                let got = inst.interest().interest(
                    UserId::new(u as u32),
                    EventRef::Candidate(EventId::new(e as u32)),
                );
                assert!(
                    (expected - got).abs() < 1e-12,
                    "µ(u{u}, e{e}) = {got}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn competing_count_mean_is_near_target() {
        let ds = dataset();
        // Large |T| to tighten the mean: k=40 → |T|=60.
        let cfg = PaperConfig {
            k: 40,
            ..PaperConfig::default()
        };
        let built = build_instance(&ds, &cfg).unwrap();
        let per_interval =
            built.instance.num_competing() as f64 / built.instance.num_intervals() as f64;
        assert!(
            (per_interval - cfg.competing_mean).abs() < 2.5,
            "mean competing/interval {per_interval} too far from {}",
            cfg.competing_mean
        );
    }

    #[test]
    fn locations_are_within_configured_range() {
        let ds = dataset();
        let built = build_instance(&ds, &small_cfg()).unwrap();
        for e in built.instance.events() {
            assert!((e.location.raw() as usize) < 25);
            assert!(e.required_resources >= 1.0 && e.required_resources <= 20.0 / 3.0);
        }
    }

    #[test]
    fn intervals_are_disjoint_dayparts() {
        let (grid, slots) = interval_grid(9);
        assert_eq!(grid.len(), 9);
        for w in grid.windows(2) {
            assert!(!w[0].overlaps(&w[1]));
        }
        // Slots cycle through 0,1,2 then next day 3,4,5, …
        assert_eq!(&slots[..6], &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn checkin_sigma_mode_builds() {
        let ds = dataset();
        let cfg = PaperConfig {
            sigma: SigmaMode::FromCheckins,
            k: 10,
            ..PaperConfig::default()
        };
        let built = build_instance(&ds, &cfg).unwrap();
        // σ must be a probability everywhere we probe.
        for u in (0..ds.members.len()).step_by(41) {
            for t in 0..built.instance.num_intervals() {
                let s = built
                    .instance
                    .sigma(UserId::new(u as u32), IntervalId::new(t as u32));
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn errors_on_undersized_dataset() {
        let ds = generate(&GeneratorConfig {
            num_events: 30,
            ..GeneratorConfig::default()
        });
        let err = build_instance(&ds, &small_cfg()).unwrap_err();
        assert!(matches!(err, BuildError::NotEnoughEvents { .. }));

        let mut empty = dataset();
        empty.members.clear();
        assert_eq!(
            build_instance(&empty, &small_cfg()).unwrap_err(),
            BuildError::NoMembers
        );
    }
}
