//! The interest function `µ : U × (E ∪ C) → [0,1]` (paper §II, "Users").
//!
//! [`Interest`] stores µ as posting lists only: per event, the users with
//! strictly positive interest, sorted by user id. This is the *inverted
//! index* `event → [(user, µ)]` every hot engine path iterates: a user with
//! `µ(u,r) = 0` contributes nothing to the score of any assignment of `r`
//! (see `DESIGN.md` §1), so scoring an assignment costs `O(|postings(r)|)`
//! instead of `O(|U|)`. EBSN-derived interest (tag-based Jaccard) is
//! extremely sparse, so nothing dense is ever stored.

use crate::ids::{CompetingEventId, EventId, EventRef, UserId};
use std::fmt;

/// A posting: one user with strictly positive interest in an event.
pub type Posting = (UserId, f64);

/// Per-event posting lists (one boxed, sorted slice per event).
type PostingLists = Vec<Box<[Posting]>>;

/// Errors raised while building an [`Interest`].
#[derive(Debug, Clone, PartialEq)]
pub enum InterestError {
    /// A value outside `[0,1]` (or NaN) was supplied.
    ValueOutOfRange {
        /// Offending user.
        user: UserId,
        /// Offending event.
        event: EventRef,
        /// The rejected value.
        value: f64,
    },
    /// A (user, event) pair was supplied twice.
    DuplicateEntry {
        /// Offending user.
        user: UserId,
        /// Offending event.
        event: EventRef,
    },
    /// A user id ≥ `num_users` was supplied.
    UserOutOfBounds {
        /// Offending user.
        user: UserId,
        /// Declared universe size.
        num_users: usize,
    },
    /// An event id outside the declared universe was supplied.
    EventOutOfBounds {
        /// Offending event.
        event: EventRef,
        /// Declared number of candidate events.
        num_candidates: usize,
        /// Declared number of competing events.
        num_competing: usize,
    },
    /// A posting list supplied as pre-sorted (see
    /// [`Interest::from_sorted_postings`]) was not in strictly
    /// ascending user order.
    OutOfOrder {
        /// Offending event.
        event: EventRef,
        /// Position within the posting list where order breaks.
        position: usize,
    },
}

impl fmt::Display for InterestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterestError::ValueOutOfRange { user, event, value } => {
                write!(f, "interest µ({user},{event}) = {value} is outside [0,1]")
            }
            InterestError::DuplicateEntry { user, event } => {
                write!(f, "interest µ({user},{event}) supplied more than once")
            }
            InterestError::UserOutOfBounds { user, num_users } => {
                write!(f, "user {user} out of bounds (|U| = {num_users})")
            }
            InterestError::EventOutOfBounds {
                event,
                num_candidates,
                num_competing,
            } => write!(
                f,
                "event {event} out of bounds (|E| = {num_candidates}, |C| = {num_competing})"
            ),
            InterestError::OutOfOrder { event, position } => write!(
                f,
                "posting list of {event} is not strictly ascending at position {position}"
            ),
        }
    }
}

impl std::error::Error for InterestError {}

/// Incrementally accumulates `(user, event, µ)` triples and builds an
/// [`Interest`]. Zero values are accepted and silently dropped (they are
/// the common case in EBSN data).
#[derive(Debug, Clone)]
pub struct InterestBuilder {
    num_users: usize,
    num_candidates: usize,
    num_competing: usize,
    candidate_entries: Vec<Vec<Posting>>, // indexed by event
    competing_entries: Vec<Vec<Posting>>, // indexed by competing event
}

impl InterestBuilder {
    /// Starts a builder for the given universe sizes.
    pub fn new(num_users: usize, num_candidates: usize, num_competing: usize) -> Self {
        Self {
            num_users,
            num_candidates,
            num_competing,
            candidate_entries: vec![Vec::new(); num_candidates],
            competing_entries: vec![Vec::new(); num_competing],
        }
    }

    /// Records `µ(user, event) = value`. Values equal to zero are dropped.
    pub fn set(
        &mut self,
        user: UserId,
        event: impl Into<EventRef>,
        value: f64,
    ) -> Result<&mut Self, InterestError> {
        let event = event.into();
        if !(0.0..=1.0).contains(&value) || value.is_nan() {
            return Err(InterestError::ValueOutOfRange { user, event, value });
        }
        if user.index() >= self.num_users {
            return Err(InterestError::UserOutOfBounds {
                user,
                num_users: self.num_users,
            });
        }
        let list = match event {
            EventRef::Candidate(e) => self.candidate_entries.get_mut(e.index()).ok_or(
                InterestError::EventOutOfBounds {
                    event,
                    num_candidates: self.num_candidates,
                    num_competing: self.num_competing,
                },
            )?,
            EventRef::Competing(c) => self.competing_entries.get_mut(c.index()).ok_or(
                InterestError::EventOutOfBounds {
                    event,
                    num_candidates: self.num_candidates,
                    num_competing: self.num_competing,
                },
            )?,
        };
        if value > 0.0 {
            list.push((user, value));
        }
        Ok(self)
    }

    fn finish_postings(mut self) -> Result<(PostingLists, PostingLists), InterestError> {
        let sort_check = |entries: &mut Vec<Posting>,
                          event: EventRef|
         -> Result<Box<[Posting]>, InterestError> {
            entries.sort_unstable_by_key(|(u, _)| *u);
            for w in entries.windows(2) {
                if w[0].0 == w[1].0 {
                    return Err(InterestError::DuplicateEntry {
                        user: w[0].0,
                        event,
                    });
                }
            }
            Ok(std::mem::take(entries).into_boxed_slice())
        };
        let cand = self
            .candidate_entries
            .iter_mut()
            .enumerate()
            .map(|(i, e)| sort_check(e, EventRef::Candidate(EventId::new(i as u32))))
            .collect::<Result<Vec<_>, _>>()?;
        let comp = self
            .competing_entries
            .iter_mut()
            .enumerate()
            .map(|(i, e)| sort_check(e, EventRef::Competing(CompetingEventId::new(i as u32))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((cand, comp))
    }

    /// Sorts each posting list by user id, rejects duplicate entries and
    /// builds the [`Interest`].
    pub fn build(self) -> Result<Interest, InterestError> {
        let (num_users, num_candidates, num_competing) =
            (self.num_users, self.num_candidates, self.num_competing);
        let (candidate_postings, competing_postings) = self.finish_postings()?;
        let nnz = count_nnz(&candidate_postings, &competing_postings);
        Ok(Interest {
            num_users,
            num_candidates,
            num_competing,
            candidate_postings,
            competing_postings,
            nnz,
        })
    }
}

/// The interest function as per-event posting lists; [`Interest::interest`]
/// binary-searches the event's list.
#[derive(Debug, Clone)]
pub struct Interest {
    num_users: usize,
    num_candidates: usize,
    num_competing: usize,
    candidate_postings: Vec<Box<[Posting]>>,
    competing_postings: Vec<Box<[Posting]>>,
    /// Cached non-zero count (Σ posting lengths), fixed at construction.
    nnz: usize,
}

/// Σ posting lengths over both event families.
fn count_nnz(candidate: &[Box<[Posting]>], competing: &[Box<[Posting]>]) -> usize {
    candidate.iter().map(|p| p.len()).sum::<usize>()
        + competing.iter().map(|p| p.len()).sum::<usize>()
}

impl Interest {
    /// Builds directly from per-event posting lists that are **already
    /// sorted by strictly ascending user id** — the cold-open path of the
    /// instance store, which persists lists in exactly that order.
    ///
    /// Validation is a single `O(nnz)` pass (order, user bounds,
    /// `µ ∈ (0, 1]`), skipping the builder's sort entirely; any violation
    /// is a typed [`InterestError`].
    pub fn from_sorted_postings(
        num_users: usize,
        candidate_postings: Vec<Box<[Posting]>>,
        competing_postings: Vec<Box<[Posting]>>,
    ) -> Result<Self, InterestError> {
        let check = |postings: &[Box<[Posting]>],
                     event_of: &dyn Fn(usize) -> EventRef|
         -> Result<(), InterestError> {
            for (i, list) in postings.iter().enumerate() {
                for (pos, &(user, value)) in list.iter().enumerate() {
                    if user.index() >= num_users {
                        return Err(InterestError::UserOutOfBounds { user, num_users });
                    }
                    if !(value > 0.0 && value <= 1.0) || value.is_nan() {
                        return Err(InterestError::ValueOutOfRange {
                            user,
                            event: event_of(i),
                            value,
                        });
                    }
                    if pos > 0 && list[pos - 1].0 >= user {
                        return if list[pos - 1].0 == user {
                            Err(InterestError::DuplicateEntry {
                                user,
                                event: event_of(i),
                            })
                        } else {
                            Err(InterestError::OutOfOrder {
                                event: event_of(i),
                                position: pos,
                            })
                        };
                    }
                }
            }
            Ok(())
        };
        check(&candidate_postings, &|i| {
            EventRef::Candidate(EventId::new(i as u32))
        })?;
        check(&competing_postings, &|i| {
            EventRef::Competing(CompetingEventId::new(i as u32))
        })?;
        let nnz = count_nnz(&candidate_postings, &competing_postings);
        Ok(Self {
            num_users,
            num_candidates: candidate_postings.len(),
            num_competing: competing_postings.len(),
            candidate_postings,
            competing_postings,
            nnz,
        })
    }

    /// Number of users `|U|`.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of candidate events `|E|`.
    pub fn num_candidates(&self) -> usize {
        self.num_candidates
    }

    /// Number of competing events `|C|`.
    pub fn num_competing(&self) -> usize {
        self.num_competing
    }

    /// The interest `µ(u, h)` of user `u` in (candidate or competing) event `h`.
    pub fn interest(&self, user: UserId, event: EventRef) -> f64 {
        let postings = self.interested_users(event);
        match postings.binary_search_by_key(&user, |(u, _)| *u) {
            Ok(i) => postings[i].1,
            Err(_) => 0.0,
        }
    }

    /// Users with strictly positive interest in `h`, sorted by user id.
    #[inline]
    pub fn interested_users(&self, event: EventRef) -> &[Posting] {
        match event {
            EventRef::Candidate(e) => &self.candidate_postings[e.index()],
            EventRef::Competing(c) => &self.competing_postings[c.index()],
        }
    }

    /// Total number of non-zero entries, counted once at construction.
    pub fn nnz(&self) -> usize {
        self.nnz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_builder() -> InterestBuilder {
        // 3 users, 2 candidate events, 1 competing event.
        let mut b = InterestBuilder::new(3, 2, 1);
        b.set(UserId::new(0), EventId::new(0), 0.9).unwrap();
        b.set(UserId::new(2), EventId::new(0), 0.3).unwrap();
        b.set(UserId::new(1), EventId::new(1), 0.5).unwrap();
        b.set(UserId::new(0), CompetingEventId::new(0), 0.2)
            .unwrap();
        b.set(UserId::new(1), EventId::new(0), 0.0).unwrap(); // dropped
        b
    }

    #[test]
    fn sparse_lookup_and_postings_agree() {
        let m = small_builder().build().unwrap();
        assert_eq!(m.interest(UserId::new(0), EventId::new(0).into()), 0.9);
        assert_eq!(m.interest(UserId::new(1), EventId::new(0).into()), 0.0);
        assert_eq!(m.interest(UserId::new(2), EventId::new(0).into()), 0.3);
        assert_eq!(
            m.interest(UserId::new(0), CompetingEventId::new(0).into()),
            0.2
        );
        let postings = m.interested_users(EventId::new(0).into());
        assert_eq!(
            postings,
            &[(UserId::new(0), 0.9), (UserId::new(2), 0.3)],
            "postings sorted by user id, zeros dropped"
        );
        assert_eq!(m.nnz(), 4);
    }

    /// `small_builder`'s entries as dense `[u][e]` and `[u][c]` matrices.
    const CANDIDATE: [[f64; 2]; 3] = [[0.9, 0.0], [0.0, 0.5], [0.3, 0.0]];
    const COMPETING: [[f64; 1]; 3] = [[0.2], [0.0], [0.0]];

    #[test]
    fn dense_matches_sparse_everywhere() {
        let m = small_builder().build().unwrap();
        for u in 0..3u32 {
            for e in 0..2u32 {
                let h = EventRef::Candidate(EventId::new(e));
                assert_eq!(
                    m.interest(UserId::new(u), h),
                    CANDIDATE[u as usize][e as usize]
                );
            }
            let h = EventRef::Competing(CompetingEventId::new(0));
            assert_eq!(m.interest(UserId::new(u), h), COMPETING[u as usize][0]);
        }
        assert_eq!(
            m.interested_users(EventId::new(1).into()),
            &[(UserId::new(1), 0.5)]
        );
    }

    #[test]
    fn from_matrices_roundtrip() {
        // Every cell of a dense matrix goes through the builder; zeros are
        // dropped and the rest read back unchanged.
        let (candidate, competing) = ([[0.1, 0.0], [0.0, 0.7]], [[0.5], [0.0]]);
        let mut b = InterestBuilder::new(2, 2, 1);
        for (u, (row, comp)) in candidate.iter().zip(&competing).enumerate() {
            let user = UserId::new(u as u32);
            for (e, &v) in row.iter().enumerate() {
                b.set(user, EventId::new(e as u32), v).unwrap();
            }
            b.set(user, CompetingEventId::new(0), comp[0]).unwrap();
        }
        let m = b.build().unwrap();
        assert_eq!(m.num_users(), 2);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.interest(UserId::new(1), EventId::new(1).into()), 0.7);
        assert_eq!(
            m.interested_users(CompetingEventId::new(0).into()),
            &[(UserId::new(0), 0.5)]
        );
    }

    #[test]
    fn rejects_out_of_range_value() {
        let mut b = InterestBuilder::new(1, 1, 0);
        let err = b.set(UserId::new(0), EventId::new(0), 1.5).unwrap_err();
        assert!(matches!(err, InterestError::ValueOutOfRange { .. }));
        let err = b
            .set(UserId::new(0), EventId::new(0), f64::NAN)
            .unwrap_err();
        assert!(matches!(err, InterestError::ValueOutOfRange { .. }));
    }

    #[test]
    fn rejects_duplicates_at_build() {
        let mut b = InterestBuilder::new(2, 1, 0);
        b.set(UserId::new(0), EventId::new(0), 0.4).unwrap();
        b.set(UserId::new(0), EventId::new(0), 0.6).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, InterestError::DuplicateEntry { .. }));
    }

    #[test]
    fn rejects_out_of_bounds_ids() {
        let mut b = InterestBuilder::new(1, 1, 1);
        assert!(matches!(
            b.set(UserId::new(5), EventId::new(0), 0.5).unwrap_err(),
            InterestError::UserOutOfBounds { .. }
        ));
        assert!(matches!(
            b.set(UserId::new(0), EventId::new(9), 0.5).unwrap_err(),
            InterestError::EventOutOfBounds { .. }
        ));
        assert!(matches!(
            b.set(UserId::new(0), CompetingEventId::new(9), 0.5)
                .unwrap_err(),
            InterestError::EventOutOfBounds { .. }
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = InterestError::ValueOutOfRange {
            user: UserId::new(1),
            event: EventRef::Candidate(EventId::new(2)),
            value: 2.0,
        };
        assert!(e.to_string().contains("µ(u1,e2)"));
    }

    #[test]
    fn cached_nnz_matches_a_posting_recount() {
        let m = small_builder().build().unwrap();
        let recount = (0..2u32)
            .map(|e| m.interested_users(EventId::new(e).into()).len())
            .chain([m.interested_users(CompetingEventId::new(0).into()).len()])
            .sum::<usize>();
        assert_eq!(m.nnz(), recount);
        assert_eq!(recount, 4);
    }

    #[test]
    fn from_sorted_postings_matches_builder_and_rejects_bad_lists() {
        let built = small_builder().build().unwrap();
        let rebuilt = Interest::from_sorted_postings(
            3,
            vec![
                vec![(UserId::new(0), 0.9), (UserId::new(2), 0.3)].into_boxed_slice(),
                vec![(UserId::new(1), 0.5)].into_boxed_slice(),
            ],
            vec![vec![(UserId::new(0), 0.2)].into_boxed_slice()],
        )
        .unwrap();
        assert_eq!(rebuilt.nnz(), built.nnz());
        for u in 0..3u32 {
            for e in 0..2u32 {
                let h = EventRef::Candidate(EventId::new(e));
                assert_eq!(
                    rebuilt.interest(UserId::new(u), h),
                    built.interest(UserId::new(u), h)
                );
            }
        }

        let unsorted = Interest::from_sorted_postings(
            3,
            vec![vec![(UserId::new(2), 0.3), (UserId::new(0), 0.9)].into_boxed_slice()],
            vec![],
        );
        assert!(matches!(unsorted, Err(InterestError::OutOfOrder { .. })));

        let duplicate = Interest::from_sorted_postings(
            3,
            vec![vec![(UserId::new(1), 0.3), (UserId::new(1), 0.9)].into_boxed_slice()],
            vec![],
        );
        assert!(matches!(
            duplicate,
            Err(InterestError::DuplicateEntry { .. })
        ));

        let zero = Interest::from_sorted_postings(
            3,
            vec![vec![(UserId::new(1), 0.0)].into_boxed_slice()],
            vec![],
        );
        assert!(matches!(zero, Err(InterestError::ValueOutOfRange { .. })));

        let oob = Interest::from_sorted_postings(
            1,
            vec![vec![(UserId::new(7), 0.4)].into_boxed_slice()],
            vec![],
        );
        assert!(matches!(oob, Err(InterestError::UserOutOfBounds { .. })));
    }

    #[test]
    fn empty_universe_is_fine() {
        let m = InterestBuilder::new(0, 0, 0).build().unwrap();
        assert_eq!(m.num_users(), 0);
        assert_eq!(m.nnz(), 0);
    }
}
