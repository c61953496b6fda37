//! # ses-ebsn — an event-based social network substrate
//!
//! The SES paper evaluates on a Meetup dump (Pham et al., ICDE 2015) that is
//! not redistributable. This crate is the substitute substrate: a full
//! Meetup-like network model — members, groups, venues, events, tags and
//! RSVPs — with
//!
//! * a calibrated synthetic [`generator`] (Zipf topics, preferential-
//!   attachment memberships, evening-skewed events),
//! * the paper's tag-based Jaccard interest methodology ([`similarity`]),
//! * check-in based activity estimation ([`activity`]) feeding
//!   `ses_core::Activity::from_slots`,
//! * the dataset statistics the paper cites ([`analysis`]): mean concurrent
//!   events (their 8.1), spatio-temporal conflict rates, interest sparsity,
//! * JSON persistence ([`dataset`]) so real Meetup exports can be adapted.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activity;
pub mod analysis;
pub mod checkins;
pub mod dataset;
pub mod entities;
pub mod generator;
pub mod similarity;
pub mod tags;

pub use activity::{estimate_slot_activity, mean_activity_by_slot, SmoothingConfig};
pub use analysis::{
    group_size_histogram, interest_stats, overlap_stats, InterestStats, OverlapStats,
};
pub use checkins::{slot_label, slot_of_tick, weeks_in_horizon, SLOTS_PER_WEEK};
pub use dataset::{DatasetError, EbsnDataset};
pub use entities::{
    EbsnEvent, EbsnEventId, Group, GroupId, Member, MemberId, Rsvp, Venue, VenueId,
};
pub use generator::{generate, GeneratorConfig};
pub use similarity::{dice, jaccard, weighted_jaccard};
pub use tags::{Tag, TagSet, TagVocabulary};
