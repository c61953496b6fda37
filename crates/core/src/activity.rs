//! The social-activity probability `σ : U × T → [0,1]` (paper §II, "Users").
//!
//! `σ(u,t)` is the probability that user `u` engages in *some* social
//! activity during interval `t`, estimated from past behaviour (e.g.
//! check-ins). [`Activity`] stores σ as a by-user CSR of the strictly
//! positive entries: for each user, the active intervals in ascending order
//! and their σ values. A `σ = 0` entry is never stored — the engine's
//! per-interval columns (DESIGN.md §11) hold exactly the stored pairs, and
//! the instance store (DESIGN.md §12) persists exactly these arrays.
//!
//! Every way σ is produced is a constructor that materialises the CSR:
//!
//! * [`Activity::from_rows`] — an explicit `|U| × |T|` matrix;
//! * [`Activity::from_slots`] — a per-user weekly-slot profile shared by all
//!   intervals that fall into the same slot (what check-in estimation
//!   produces);
//! * [`Activity::constant`] — a single value, for analytical tests;
//! * [`Activity::hashed`] — `U[0,1)` values derived from a seed (the paper
//!   draws σ from a uniform distribution);
//! * [`Activity::masked`] — sparse σ: each user is active only in a small
//!   window of intervals (the companion attendance-maximization regime:
//!   many users, few active per interval). It enumerates each window, so
//!   it costs `O(nnz)`, never `O(|U| · |T|)`.

use crate::ids::{IntervalId, UserId};
use crate::util::fxhash::FxHasher;
use std::fmt;
use std::hash::Hasher;

/// Errors raised while building an [`Activity`].
#[derive(Debug, Clone, PartialEq)]
pub enum ActivityError {
    /// A probability outside `[0,1]` (or NaN).
    ValueOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// Matrix shape does not match the declared universe.
    ShapeMismatch {
        /// Expected number of entries.
        expected: usize,
        /// Supplied number of entries.
        actual: usize,
    },
}

impl fmt::Display for ActivityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivityError::ValueOutOfRange { value } => {
                write!(f, "activity probability {value} is outside [0,1]")
            }
            ActivityError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "activity matrix has {actual} entries, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ActivityError {}

fn check_prob(value: f64) -> Result<(), ActivityError> {
    if (0.0..=1.0).contains(&value) && !value.is_nan() {
        Ok(())
    } else {
        Err(ActivityError::ValueOutOfRange { value })
    }
}

/// Checks `lo ≤ hi` within `[0,1]` for the seeded generators.
fn check_range(lo: f64, hi: f64) -> Result<(), ActivityError> {
    check_prob(lo)?;
    check_prob(hi)?;
    if lo > hi {
        return Err(ActivityError::ValueOutOfRange { value: lo });
    }
    Ok(())
}

/// The deterministic `[lo, hi)` value of `(seed, user, interval)`.
fn hashed_value(seed: u64, user: u32, interval: u32, lo: f64, hi: f64) -> f64 {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    h.write_u32(user);
    h.write_u32(interval);
    // Map the top 53 bits to [0,1).
    let unit = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

/// σ as a by-user CSR of its strictly positive entries.
///
/// `offsets[u]..offsets[u+1]` is user `u`'s range of the parallel
/// `intervals`/`sigmas` columns. Every constructor establishes, and the
/// engine relies on: intervals strictly ascending within a row and below
/// `|T|`, and every stored σ in `(0, 1]`.
#[derive(Debug, Clone)]
pub struct Activity {
    num_intervals: usize,
    /// Row boundaries, `len == |U| + 1`, starting at 0.
    offsets: Vec<u64>,
    /// Active interval ids, row-major.
    intervals: Vec<u32>,
    /// `σ(u, t) > 0` for each entry of `intervals`.
    sigmas: Vec<f64>,
}

impl Activity {
    /// An empty CSR with room for `nnz` entries; rows are appended with
    /// [`Self::push`] and closed with [`Self::end_row`].
    fn with_capacity(num_users: usize, num_intervals: usize, nnz: usize) -> Self {
        let mut offsets = Vec::with_capacity(num_users + 1);
        offsets.push(0);
        Self {
            num_intervals,
            offsets,
            intervals: Vec::with_capacity(nnz),
            sigmas: Vec::with_capacity(nnz),
        }
    }

    #[inline]
    fn push(&mut self, interval: usize, sigma: f64) {
        self.intervals.push(interval as u32);
        self.sigmas.push(sigma);
    }

    #[inline]
    fn end_row(&mut self) {
        self.offsets.push(self.intervals.len() as u64);
    }

    /// Materialises `σ(u, t) = value(u, t)` over every `(u, t)` in
    /// ascending order, validating each value and dropping zeros.
    fn from_fn(
        num_users: usize,
        num_intervals: usize,
        mut value: impl FnMut(usize, usize) -> f64,
    ) -> Result<Self, ActivityError> {
        let mut out = Self::with_capacity(num_users, num_intervals, num_users * num_intervals);
        for u in 0..num_users {
            for t in 0..num_intervals {
                let sigma = value(u, t);
                check_prob(sigma)?;
                if sigma > 0.0 {
                    out.push(t, sigma);
                }
            }
            out.end_row();
        }
        Ok(out)
    }

    /// Adopts a by-user CSR whose invariants the caller has already
    /// checked (the instance store validates every decoded row first).
    pub(crate) fn from_checked_csr(
        num_intervals: usize,
        offsets: Vec<u64>,
        intervals: Vec<u32>,
        sigmas: Vec<f64>,
    ) -> Self {
        Self {
            num_intervals,
            offsets,
            intervals,
            sigmas,
        }
    }

    /// Builds from per-user rows over every interval.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, ActivityError> {
        let num_intervals = rows.first().map_or(0, Vec::len);
        if let Some(row) = rows.iter().find(|row| row.len() != num_intervals) {
            return Err(ActivityError::ShapeMismatch {
                expected: num_intervals,
                actual: row.len(),
            });
        }
        Self::from_fn(rows.len(), num_intervals, |u, t| rows[u][t])
    }

    /// Builds from per-user profiles over `num_slots` recurring slots (e.g.
    /// 21 slots = 7 days × {morning, afternoon, evening}) and the
    /// interval→slot mapping: `σ(u, t) = profile[u · num_slots + slot_of[t]]`.
    ///
    /// This is the shape produced by estimating σ from check-in histories: a
    /// user's Friday-evening propensity applies to *every* Friday-evening
    /// interval.
    pub fn from_slots(
        num_slots: usize,
        profile: Vec<f64>,
        slot_of: Vec<u16>,
    ) -> Result<Self, ActivityError> {
        if num_slots == 0 || !profile.len().is_multiple_of(num_slots) {
            return Err(ActivityError::ShapeMismatch {
                expected: num_slots,
                actual: profile.len(),
            });
        }
        for &v in &profile {
            check_prob(v)?;
        }
        if let Some(&s) = slot_of.iter().find(|&&s| s as usize >= num_slots) {
            return Err(ActivityError::ShapeMismatch {
                expected: num_slots,
                actual: s as usize,
            });
        }
        Self::from_fn(profile.len() / num_slots, slot_of.len(), |u, t| {
            profile[u * num_slots + slot_of[t] as usize]
        })
    }

    /// A single probability shared by all users and intervals. Useful for
    /// analytical tests (Theorem 1 uses "the same σ for each user and
    /// interval").
    pub fn constant(
        num_users: usize,
        num_intervals: usize,
        value: f64,
    ) -> Result<Self, ActivityError> {
        check_prob(value)?;
        Self::from_fn(num_users, num_intervals, |_, _| value)
    }

    /// Seeded uniform σ over `[0,1)`: `σ(u,t)` is a deterministic hash of
    /// `(seed, u, t)`, reproducing the paper's "σ defined using a Uniform
    /// distribution" at any scale.
    pub fn hashed(num_users: usize, num_intervals: usize, seed: u64) -> Self {
        Self::hashed_with_range(num_users, num_intervals, seed, 0.0, 1.0).expect("[0,1) is valid")
    }

    /// Seeded uniform σ over `[lo, hi) ⊆ [0,1]`.
    pub fn hashed_with_range(
        num_users: usize,
        num_intervals: usize,
        seed: u64,
        lo: f64,
        hi: f64,
    ) -> Result<Self, ActivityError> {
        check_range(lo, hi)?;
        Self::from_fn(num_users, num_intervals, |u, t| {
            hashed_value(seed, u as u32, t as u32, lo, hi)
        })
    }

    /// Sparse σ with hashed values over `[0.1, 1.0)` inside each user's
    /// window of `active_per_user` intervals; see [`Self::masked_with_range`].
    pub fn masked(
        num_users: usize,
        num_intervals: usize,
        active_per_user: usize,
        seed: u64,
    ) -> Self {
        Self::masked_with_range(num_users, num_intervals, active_per_user, seed, 0.1, 1.0)
            .expect("[0.1,1.0) is valid")
    }

    /// Sparse σ: each user is active only inside a contiguous (possibly
    /// wrapping) window of `active_per_user` intervals (clamped to `|T|`),
    /// with hashed values in `[lo, hi)` there and `σ = 0` everywhere else.
    /// `lo` must be strictly positive so every in-window entry is stored.
    ///
    /// The window start is a deterministic hash of `(seed, u)`, so millions
    /// of users spread roughly evenly over the horizon. With
    /// `active_per_user ≪ |T|`, per-interval engine columns hold
    /// `≈ |U| · active_per_user / |T|` slots instead of `|U|`.
    pub fn masked_with_range(
        num_users: usize,
        num_intervals: usize,
        active_per_user: usize,
        seed: u64,
        lo: f64,
        hi: f64,
    ) -> Result<Self, ActivityError> {
        check_range(lo, hi)?;
        if lo <= 0.0 {
            return Err(ActivityError::ValueOutOfRange { value: lo });
        }
        let nt = num_intervals;
        let width = active_per_user.min(nt);
        let mut out = Self::with_capacity(num_users, nt, num_users * width);
        for u in 0..num_users as u32 {
            if width > 0 {
                let mut h = FxHasher::default();
                h.write_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
                h.write_u32(u);
                let start = (h.finish() % nt as u64) as usize;
                let end = start + width;
                // Ascending interval order: the wrapped tail `[0, end-nt)`
                // precedes the head `[start, nt)`.
                for t in (0..end.saturating_sub(nt)).chain(start..end.min(nt)) {
                    out.push(t, hashed_value(seed, u, t as u32, lo, hi));
                }
            }
            out.end_row();
        }
        Ok(out)
    }

    /// Number of users `|U|`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of intervals `|T|`.
    #[inline]
    pub fn num_intervals(&self) -> usize {
        self.num_intervals
    }

    /// User `user`'s active intervals (strictly ascending) and their
    /// `σ > 0` values. Panics if `user ≥ |U|`.
    #[inline]
    pub fn row(&self, user: UserId) -> (&[u32], &[f64]) {
        let lo = self.offsets[user.index()] as usize;
        let hi = self.offsets[user.index() + 1] as usize;
        (&self.intervals[lo..hi], &self.sigmas[lo..hi])
    }

    /// The probability `σ(u, t) ∈ [0,1]`: a binary search of `u`'s row.
    pub fn sigma(&self, user: UserId, interval: IntervalId) -> f64 {
        let (intervals, sigmas) = self.row(user);
        match intervals.binary_search(&interval.raw()) {
            Ok(i) => sigmas[i],
            Err(_) => 0.0,
        }
    }

    /// Total stored `(user, interval)` pairs, i.e. entries with `σ > 0`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.intervals.len()
    }

    /// The CSR columns: row offsets, interval ids and σ values.
    pub(crate) fn columns(&self) -> (&[u64], &[u32], &[f64]) {
        (&self.offsets, &self.intervals, &self.sigmas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigma(a: &Activity, u: u32, t: u32) -> f64 {
        a.sigma(UserId::new(u), IntervalId::new(t))
    }

    #[test]
    fn dense_from_rows_and_lookup() {
        let a = Activity::from_rows(vec![vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        assert_eq!(a.num_users(), 2);
        assert_eq!(a.num_intervals(), 2);
        assert_eq!(sigma(&a, 1, 0), 0.3);
    }

    #[test]
    fn dense_rejects_bad_shape_and_values() {
        assert!(matches!(
            Activity::from_rows(vec![vec![0.5], vec![1.5]]).unwrap_err(),
            ActivityError::ValueOutOfRange { .. }
        ));
        assert!(matches!(
            Activity::from_rows(vec![vec![0.5, 0.1], vec![0.5]]).unwrap_err(),
            ActivityError::ShapeMismatch { .. }
        ));
        // NaN is out of range too.
        assert!(matches!(
            Activity::from_rows(vec![vec![0.0, 0.0], vec![0.0, f64::NAN]]).unwrap_err(),
            ActivityError::ValueOutOfRange { .. }
        ));
    }

    #[test]
    fn slot_activity_maps_intervals_to_slots() {
        // 2 users × 3 slots; 4 intervals alternating slots 0,1,2,0.
        let a =
            Activity::from_slots(3, vec![0.1, 0.2, 0.3, 0.9, 0.8, 0.7], vec![0, 1, 2, 0]).unwrap();
        assert_eq!(a.num_users(), 2);
        assert_eq!(a.num_intervals(), 4);
        assert_eq!(sigma(&a, 0, 3), 0.1);
        assert_eq!(sigma(&a, 1, 2), 0.7);
    }

    #[test]
    fn slot_activity_rejects_bad_slot_index() {
        let err = Activity::from_slots(2, vec![0.1, 0.2], vec![0, 5]).unwrap_err();
        assert!(matches!(err, ActivityError::ShapeMismatch { .. }));
    }

    #[test]
    fn constant_is_constant() {
        let a = Activity::constant(10, 10, 0.6).unwrap();
        assert_eq!(sigma(&a, 3, 9), 0.6);
        assert_eq!(a.nnz(), 100);
        assert!(Activity::constant(1, 1, -0.1).is_err());
        assert_eq!(Activity::constant(4, 4, 0.0).unwrap().nnz(), 0);
    }

    #[test]
    fn hashed_is_deterministic_and_in_range() {
        let a = Activity::hashed(100, 50, 42);
        assert_eq!(
            sigma(&a, 7, 13),
            sigma(&Activity::hashed(100, 50, 42), 7, 13)
        );
        for u in 0..100u32 {
            for t in 0..50u32 {
                assert!((0.0..1.0).contains(&sigma(&a, u, t)));
            }
        }
    }

    #[test]
    fn hashed_seed_changes_values() {
        let a = Activity::hashed(10, 10, 1);
        let b = Activity::hashed(10, 10, 2);
        assert!((0..10u32).any(|u| sigma(&a, u, 0) != sigma(&b, u, 0)));
    }

    #[test]
    fn hashed_mean_is_near_half() {
        let a = Activity::hashed(200, 200, 7);
        let mut sum = 0.0;
        for u in 0..200u32 {
            for t in 0..200u32 {
                sum += sigma(&a, u, t);
            }
        }
        let mean = sum / (200.0 * 200.0);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn hashed_range_is_respected() {
        let a = Activity::hashed_with_range(50, 50, 3, 0.2, 0.4).unwrap();
        for u in 0..50u32 {
            assert!((0.2..0.4).contains(&sigma(&a, u, u)));
        }
        assert!(Activity::hashed_with_range(1, 1, 0, 0.9, 0.1).is_err());
    }

    #[test]
    fn masked_window_has_exactly_active_per_user_slots() {
        let a = Activity::masked(40, 24, 5, 11);
        for u in 0..40u32 {
            let active = (0..24u32).filter(|&t| sigma(&a, u, t) > 0.0).count();
            assert_eq!(active, 5, "user {u}");
            assert_eq!(a.row(UserId::new(u)).0.len(), 5, "user {u}");
        }
    }

    /// Per-(u, t) reference for the masked window: the probe the window
    /// enumeration replaces.
    fn masked_probe(nt: usize, width: usize, seed: u64, u: u32, t: u32) -> f64 {
        let a = width.min(nt);
        let mut h = FxHasher::default();
        h.write_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        h.write_u32(u);
        let start = (h.finish() % nt as u64) as usize;
        if a > 0 && (t as usize + nt - start) % nt < a {
            hashed_value(seed, u, t, 0.1, 1.0)
        } else {
            0.0
        }
    }

    #[test]
    fn masked_rows_match_dense_probe_bitwise() {
        // Include widths that wrap (larger than nt - start for some users)
        // and the degenerate full-horizon width.
        for width in [1usize, 3, 7, 24, 40] {
            let a = Activity::masked(60, 24, width, 99);
            for u in 0..60u32 {
                let (ts, sigmas) = a.row(UserId::new(u));
                let probed: Vec<(u32, u64)> = (0..24u32)
                    .filter_map(|t| {
                        let s = masked_probe(24, width, 99, u, t);
                        (s > 0.0).then_some((t, s.to_bits()))
                    })
                    .collect();
                let stored: Vec<(u32, u64)> = ts
                    .iter()
                    .zip(sigmas)
                    .map(|(&t, s)| (t, s.to_bits()))
                    .collect();
                assert_eq!(stored, probed, "width {width}, user {u}");
            }
        }
    }

    #[test]
    fn masked_values_stay_in_range_and_reject_zero_lo() {
        let a = Activity::masked(30, 12, 4, 5);
        for u in 0..30u32 {
            for t in 0..12u32 {
                let v = sigma(&a, u, t);
                assert!(v == 0.0 || (0.1..1.0).contains(&v));
            }
        }
        assert!(Activity::masked_with_range(1, 1, 1, 0, 0.0, 1.0).is_err());
    }

    #[test]
    fn masked_degenerate_shapes_are_inert() {
        let empty = Activity::masked(4, 0, 3, 1);
        assert_eq!(empty.num_users(), 4);
        assert_eq!(empty.nnz(), 0);
        let zero_width = Activity::masked(4, 8, 0, 1);
        assert_eq!(sigma(&zero_width, 1, 3), 0.0);
        assert!(zero_width.row(UserId::new(1)).0.is_empty());
    }
}
