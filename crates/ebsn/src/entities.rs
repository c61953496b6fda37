//! EBSN domain entities: members, groups, venues, events, RSVPs.
//!
//! Mirrors the structure of the Meetup dump used by the paper (via Pham et
//! al.\[9\]): users join groups, groups carry topic tags, events are
//! organized by groups at venues, and members RSVP / check in to events.

use crate::tags::TagSet;
use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw dense index.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the id as a `usize` for array indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// A member (user) of the network.
    MemberId,
    "m"
);
define_id!(
    /// A group (community organizing events).
    GroupId,
    "g"
);
define_id!(
    /// A venue (physical location hosting events).
    VenueId,
    "v"
);
define_id!(
    /// An event in the network.
    EbsnEventId,
    "ev"
);

/// A member: tag profile, group memberships, and a latent activity level
/// used when simulating RSVPs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Member {
    /// Dense id.
    pub id: MemberId,
    /// The member's interest tags (union of group topics + personal picks).
    pub tags: TagSet,
    /// Groups the member belongs to.
    pub groups: Vec<GroupId>,
    /// Latent propensity to go out at all, in `[0,1]`.
    pub activity_level: f64,
}

/// A group: topic tags and member roster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Group {
    /// Dense id.
    pub id: GroupId,
    /// The group's declared topics.
    pub tags: TagSet,
    /// Members of the group.
    pub members: Vec<MemberId>,
}

/// A venue with planar coordinates (used for spatial conflict statistics).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Venue {
    /// Dense id.
    pub id: VenueId,
    /// X coordinate (arbitrary planar units).
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Venue {
    /// Euclidean distance to another venue.
    pub fn distance(&self, other: &Venue) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// An event organized by a group at a venue.
///
/// Per the paper's methodology, `tags` are inherited from the organizing
/// group; times are ticks (minutes) since the dataset horizon start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EbsnEvent {
    /// Dense id.
    pub id: EbsnEventId,
    /// Organizing group.
    pub group: GroupId,
    /// Hosting venue.
    pub venue: VenueId,
    /// Start tick (minutes since horizon start).
    pub start: u64,
    /// Duration in ticks.
    pub duration: u64,
    /// Topic tags (inherited from the group).
    pub tags: TagSet,
}

impl EbsnEvent {
    /// Exclusive end tick.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.duration
    }
}

/// An RSVP / check-in record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rsvp {
    /// Who.
    pub member: MemberId,
    /// To which event.
    pub event: EbsnEventId,
    /// Whether the member actually checked in (vs. RSVP'd and skipped).
    pub attended: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::Tag;

    #[test]
    fn event_time_semantics() {
        let mk = |start, duration| EbsnEvent {
            id: EbsnEventId(0),
            group: GroupId(0),
            venue: VenueId(0),
            start,
            duration,
            tags: TagSet::new(),
        };
        let a = mk(0, 100);
        assert_eq!(a.end(), 100);
    }

    #[test]
    fn venue_distance() {
        let a = Venue {
            id: VenueId(0),
            x: 0.0,
            y: 0.0,
        };
        let b = Venue {
            id: VenueId(1),
            x: 3.0,
            y: 4.0,
        };
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(MemberId(1).to_string(), "m1");
        assert_eq!(GroupId(2).to_string(), "g2");
        assert_eq!(VenueId(3).to_string(), "v3");
        assert_eq!(EbsnEventId(4).to_string(), "ev4");
    }

    #[test]
    fn serde_roundtrip() {
        let member = Member {
            id: MemberId(7),
            tags: TagSet::from_iter([Tag(1), Tag(2)]),
            groups: vec![GroupId(0)],
            activity_level: 0.4,
        };
        let json = serde_json::to_string(&member).unwrap();
        let back: Member = serde_json::from_str(&json).unwrap();
        assert_eq!(back, member);
    }
}
