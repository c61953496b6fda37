//! Blocked per-interval column storage (the sparse slot index), the
//! candidate posting lists resolved to ranks, and the per-`(event,
//! interval)` posting runs resolved against the columns.
//!
//! The dense layout this replaces kept `|T| · stride` slots per aggregate
//! column. Here each interval `t` owns a compact column holding only the
//! ranks with `σ(u,t) > 0` — CSR offsets into flat `ranks`/`b`/`m`/`σ`
//! arrays — so resident memory is `O(nnz + |T|)` where
//! `nnz = Σ_t |{r : σ(u_r,t) > 0}|`. A slot with `σ(u,t) = 0` is provably
//! inert: every read path multiplies it by `σ` (scores, losses, attendance
//! probabilities, interval utilities), its term is `±0.0`, and partial sums
//! never sit at `-0.0`, so dropping the slot keeps every result bit-identical
//! to the dense layout (the contract `crates/core/tests/sparse_layout.rs`
//! pins against the hash-map oracle).
//!
//! Columns are built from the by-user σ rows ([`Activity::row`]) in two
//! passes — count, prefix-sum, scatter — without ever materializing a dense
//! `|U| × |T|` intermediate, which is what lets million-user instances
//! construct in `O(nnz)`. The scatter pass also emits a build-time
//! [`RankSlots`] index (each rank's partial-column slots), from which the
//! runs are resolved without searching a column.
//!
//! Posting lists and runs share one shape: a flat CSR in
//! structure-of-arrays form, a `u32` array (ranks, or column-local slots)
//! beside an `f64` µ array — 12 bytes an entry, where a `(u32, f64)` pair
//! pads to 16. Runs are laid out event-major (row `e·|T| + t`), so each
//! block of events owns one contiguous range of both arrays while the
//! build fills them. Whenever a column is partial the build splits across
//! every core (at most one worker per event), whatever thread count the
//! caller scores with.

use crate::activity::Activity;
use crate::ids::UserId;
use std::ops::Range;

/// Ranks per block of the postings sweep ([`for_each_posting`]).
const RANK_BLOCK: usize = 1 << 14;

/// The per-interval blocked columns: CSR offsets plus parallel value arrays.
///
/// `offsets[t]..offsets[t+1]` is interval `t`'s column; `ranks` within a
/// column are strictly ascending (users are scattered in rank order, each
/// contributing at most one slot per interval). A *full* column
/// (`len == stride`) therefore has `ranks[start + r] == r`, so the global
/// rank doubles as the column-local slot — the fast path that keeps dense
/// instances on the exact same addressing as before.
pub(crate) struct IntervalColumns {
    /// Number of indexed users (ranks `0..stride`).
    pub(crate) stride: usize,
    /// CSR column boundaries, `len == |T| + 1`.
    pub(crate) offsets: Vec<usize>,
    /// Rank ids per slot, ascending within each column.
    pub(crate) ranks: Vec<u32>,
    /// Competing mass `B` per slot.
    pub(crate) b: Vec<f64>,
    /// Scheduled mass `M` per slot.
    pub(crate) m: Vec<f64>,
    /// `σ(u,t)` snapshot per slot (strictly positive by construction).
    pub(crate) sigma: Vec<f64>,
}

/// Rank-major view of the *partial* columns: for each rank, its
/// `(t, column-local slot)` pairs in ascending `t`. Full columns are left
/// out — there the rank is the local slot. A construction-time temporary:
/// the engine drops it once the runs are resolved, so it never shows up in
/// the memory accounting.
pub(crate) struct RankSlots {
    /// `starts[r]..starts[r+1]` is rank `r`'s range of `pairs`.
    starts: Vec<usize>,
    /// `(t, local slot)` pairs, rank-major.
    pairs: Vec<(u32, u32)>,
}

impl RankSlots {
    /// Rank `rank`'s partial-column slots, ascending `t`.
    #[inline]
    fn of(&self, rank: u32) -> &[(u32, u32)] {
        let r = rank as usize;
        &self.pairs[self.starts[r]..self.starts[r + 1]]
    }

    /// Number of partial-column slots indexed.
    pub(crate) fn partial_slots(&self) -> usize {
        self.pairs.len()
    }
}

impl IntervalColumns {
    /// Builds the columns for `users` (in rank order) over `nt` intervals,
    /// plus the rank-major [`RankSlots`] index of their partial columns.
    ///
    /// Two passes over the users' σ rows: count per interval, prefix-sum
    /// into offsets, then cursor-scatter ranks and `σ` values. Iterating
    /// users in rank order makes each column's ranks ascending without a
    /// sort, and makes the slot index's CSR offsets plain push positions.
    /// [`Activity`]'s row invariants (ascending in-range intervals, `σ > 0`)
    /// are what make each rank land at most once per column.
    pub(crate) fn build(activity: &Activity, users: &[UserId], nt: usize) -> (Self, RankSlots) {
        let stride = users.len();
        let mut counts = vec![0usize; nt];
        for &u in users {
            for &t in activity.row(u).0 {
                counts[t as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(nt + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let nnz = acc;
        let partial_nnz: usize = counts.iter().filter(|&&c| c != stride).sum();
        let full: Vec<bool> = counts.iter().map(|&c| c == stride).collect();
        let mut ranks = vec![0u32; nnz];
        let mut sigma = vec![0.0f64; nnz];
        let mut starts = Vec::with_capacity(stride + 1);
        let mut pairs = Vec::with_capacity(partial_nnz);
        starts.push(0);
        let mut cursor = counts; // reuse: rewritten to running write positions
        cursor.copy_from_slice(&offsets[..nt]);
        for (r, &u) in users.iter().enumerate() {
            let (ts, sigmas) = activity.row(u);
            for (&t, &s) in ts.iter().zip(sigmas) {
                let ti = t as usize;
                let slot = cursor[ti];
                ranks[slot] = r as u32;
                sigma[slot] = s;
                cursor[ti] = slot + 1;
                if !full[ti] {
                    pairs.push((t, (slot - offsets[ti]) as u32));
                }
            }
            starts.push(pairs.len());
        }
        let cols = Self {
            stride,
            offsets,
            ranks,
            b: vec![0.0; nnz],
            m: vec![0.0; nnz],
            sigma,
        };
        (cols, RankSlots { starts, pairs })
    }

    /// Number of slots in interval `t`'s column.
    #[inline]
    pub(crate) fn len(&self, t: usize) -> usize {
        self.offsets[t + 1] - self.offsets[t]
    }

    /// Whether interval `t`'s column holds every indexed rank.
    #[inline]
    pub(crate) fn is_full(&self, t: usize) -> bool {
        self.len(t) == self.stride
    }

    /// Flat index of `(t, rank)`'s slot, or `None` if `σ(u_rank, t) = 0`
    /// (the rank has no slot at `t`). Full columns resolve in `O(1)`;
    /// partial columns binary-search the rank list.
    #[inline]
    pub(crate) fn slot_of(&self, t: usize, rank: u32) -> Option<usize> {
        let start = self.offsets[t];
        let end = self.offsets[t + 1];
        if end - start == self.stride {
            return Some(start + rank as usize);
        }
        self.ranks[start..end]
            .binary_search(&rank)
            .ok()
            .map(|j| start + j)
    }

    /// Total resident slots (`nnz`).
    #[inline]
    pub(crate) fn nnz(&self) -> usize {
        self.ranks.len()
    }

    /// Bytes resident in the column arrays (ranks + offsets + the three
    /// parallel value columns).
    pub(crate) fn resident_bytes(&self) -> u64 {
        let per_slot = size_of::<u32>() + 3 * size_of::<f64>(); // ranks; b, m, sigma
        (self.ranks.len() * per_slot + self.offsets.len() * size_of::<usize>()) as u64
    }
}

/// Rows of `(id, µ)` postings: one flat CSR in structure-of-arrays form.
/// The engine keeps two — each candidate event's posting list, ids being
/// slot-index ranks, and the [`ResolvedRuns`], ids being column-local slots.
pub(crate) struct Postings {
    /// `offsets[i]..offsets[i+1]` is row `i`'s range of both arrays.
    offsets: Vec<usize>,
    /// Rank or slot per posting.
    ids: Vec<u32>,
    /// µ per posting, parallel to `ids`.
    mus: Vec<f64>,
}

impl Postings {
    /// No rows yet, with room for `rows` rows of `entries` postings.
    pub(crate) fn with_capacity(rows: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            ids: Vec::with_capacity(entries),
            mus: Vec::with_capacity(entries),
        }
    }

    /// Appends the next row.
    pub(crate) fn push(&mut self, row: impl IntoIterator<Item = (u32, f64)>) {
        for (id, mu) in row {
            self.ids.push(id);
            self.mus.push(mu);
        }
        self.offsets.push(self.ids.len());
    }

    /// Number of rows.
    #[inline]
    fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `i`: ids and µ, in posting order.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let range = self.offsets[i]..self.offsets[i + 1];
        (&self.ids[range.clone()], &self.mus[range])
    }

    /// Number of postings across all rows.
    #[inline]
    fn entries(&self) -> usize {
        self.ids.len()
    }

    /// Bytes resident: 12 per posting plus the offsets.
    fn resident_bytes(&self) -> u64 {
        (self.ids.len() * size_of::<u32>()
            + self.mus.len() * size_of::<f64>()
            + self.offsets.len() * size_of::<usize>()) as u64
    }
}

/// Per-`(event, interval)` posting runs: each event's postings re-resolved
/// to column-local `(slot, µ)` for every *partial* column.
///
/// Full columns need no run storage at all — there the global rank **is**
/// the local slot, so the engine walks the event's shared posting list
/// directly (zero extra memory on dense instances, which is every instance
/// built before the blocked layout existed). Runs preserve the posting-list
/// order, merely skipping the inert `σ = 0` entries, so the Eq. 4 reduction
/// visits survivors in the exact order the dense scan did.
pub(crate) struct ResolvedRuns {
    /// Number of intervals (runs per event).
    nt: usize,
    /// Row `e·nt + t` is the run of `(e, t)`, so one event's runs are
    /// contiguous. No rows at all when every column is full (the all-dense
    /// fast path).
    runs: Postings,
}

impl ResolvedRuns {
    /// Resolves every event's postings against every partial column;
    /// returns the runs and the number of workers that resolved them (`0`
    /// when every column is full and there was nothing to resolve).
    ///
    /// The runs resolve on one worker per core, capped at one per event.
    /// The core count is read only once a partial column is found:
    /// all-full engines, built per request when serving, never read it.
    pub(crate) fn build(
        cols: &IntervalColumns,
        slots: &RankSlots,
        postings: &Postings,
    ) -> (Self, usize) {
        let nt = cols.offsets.len() - 1;
        if (0..nt).all(|t| cols.is_full(t)) {
            let runs = Postings {
                offsets: Vec::new(),
                ids: Vec::new(),
                mus: Vec::new(),
            };
            return (Self { nt, runs }, 0);
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = cores.min(postings.rows()).max(1);
        (Self::resolve(cols, slots, postings, workers), workers)
    }

    /// The runs in `O(Σ_e |postings(e)| + entries)` on `workers` threads
    /// (at most one per event; the first is the calling thread, so one
    /// worker spawns nothing).
    ///
    /// Each posting is expanded through its rank's [`RankSlots`] list, so no
    /// work is spent on `(posting, t)` pairs without a slot. Two passes over
    /// the postings: count every run's length, prefix-sum the counts into
    /// the event-major offsets, then write each posting into its runs. Both
    /// passes cut the events into contiguous blocks of roughly equal work,
    /// one per worker; in the second each block owns one contiguous range
    /// of the entry arrays and fills its runs through one cursor per run.
    /// Every run is written by exactly one worker, in posting order, so any
    /// worker count yields the same bytes.
    fn resolve(
        cols: &IntervalColumns,
        slots: &RankSlots,
        postings: &Postings,
        workers: usize,
    ) -> Self {
        let ne = postings.rows();
        let nt = cols.offsets.len() - 1;
        let parts = workers.clamp(1, ne.max(1));
        // A block's share of `counts`: one row of `nt` per event.
        let rows = |w: &[usize]| (w[1] - w[0]) * nt;

        // Pass 1: run lengths, event-major (`counts[e·nt + t]`), so each
        // block of events owns one contiguous chunk. Blocks balance postings.
        let mut counts = vec![0usize; ne * nt];
        let bounds = cut(parts, ne, |e| postings.offsets[e + 1] - postings.offsets[e]);
        let chunks = split_by(&mut counts, bounds.windows(2).map(rows));
        on_workers(block_ranges(&bounds).zip(chunks), |(events, chunk)| {
            for_each_posting(postings, events, cols.stride, |i, r, _| {
                for &(t, _) in slots.of(r) {
                    chunk[i * nt + t as usize] += 1;
                }
            });
        });
        let mut offsets = Vec::with_capacity(ne * nt + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }

        // Pass 2: blocks balance entries. `counts` becomes each run's write
        // cursor, relative to its block's first entry.
        let mut run_slots = vec![0u32; total];
        let mut mus = vec![0.0f64; total];
        let bounds = cut(parts, ne, |e| offsets[(e + 1) * nt] - offsets[e * nt]);
        let entries = |w: &[usize]| offsets[w[1] * nt] - offsets[w[0] * nt];
        let blocks = block_ranges(&bounds)
            .zip(split_by(&mut counts, bounds.windows(2).map(rows)))
            .zip(split_by(&mut run_slots, bounds.windows(2).map(entries)))
            .zip(split_by(&mut mus, bounds.windows(2).map(entries)));
        on_workers(blocks, |(((events, cursor), slots_out), mus_out)| {
            let first = events.start * nt;
            for (c, &o) in cursor.iter_mut().zip(&offsets[first..]) {
                *c = o - offsets[first];
            }
            for_each_posting(postings, events, cols.stride, |i, r, mu| {
                for &(t, local) in slots.of(r) {
                    let c = &mut cursor[i * nt + t as usize];
                    slots_out[*c] = local;
                    mus_out[*c] = mu;
                    *c += 1;
                }
            });
        });
        let runs = Postings {
            offsets,
            ids: run_slots,
            mus,
        };
        Self { nt, runs }
    }

    /// The run of `(event, t)` as parallel slot and µ slices: the shared
    /// posting list itself when the column is full (rank ≡ local slot),
    /// otherwise the pre-resolved entries. Taking `postings` as a parameter
    /// (rather than reading it through the engine) keeps the returned
    /// borrow off the engine's mutable column fields, so mutation paths can
    /// walk a run while updating `m` in place.
    #[inline]
    pub(crate) fn run<'a>(
        &'a self,
        postings: &'a Postings,
        event: usize,
        t: usize,
        full: bool,
    ) -> (&'a [u32], &'a [f64]) {
        if full {
            return postings.row(event);
        }
        self.runs.row(event * self.nt + t)
    }

    /// Number of resolved `(slot, µ)` entries across all runs.
    #[inline]
    pub(crate) fn entries(&self) -> usize {
        self.runs.entries()
    }

    /// Bytes resident in the run arrays: 12 per entry plus the offsets.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.runs.resident_bytes()
    }
}

/// Calls `visit(i, rank, µ)` for every posting of event `events.start + i`,
/// each event's postings in order, sweeping the ranks in blocks of
/// [`RANK_BLOCK`] across all events. Posting lists are rank-ascending, so
/// each block's slot lists are read from memory once and then stay cached
/// while every event visits them (an out-of-order posting would merely wait
/// for a later block: the order within an event never changes).
fn for_each_posting(
    postings: &Postings,
    events: Range<usize>,
    stride: usize,
    mut visit: impl FnMut(usize, u32, f64),
) {
    let mut next = postings.offsets[events.clone()].to_vec();
    let stops = &postings.offsets[events.start + 1..=events.end];
    let mut end = 0usize;
    while end < stride {
        end = (end + RANK_BLOCK).min(stride);
        for (i, (next, &stop)) in next.iter_mut().zip(stops).enumerate() {
            // The last block takes every remaining posting.
            while *next < stop {
                let r = postings.ids[*next];
                if (r as usize) >= end && end < stride {
                    break;
                }
                visit(i, r, postings.mus[*next]);
                *next += 1;
            }
        }
    }
}

/// Cuts events `0..ne` into `parts` contiguous blocks of roughly equal total
/// `weight`, returned as `parts + 1` ascending bounds: each block starts at
/// the first event whose prefix weight reaches its share.
fn cut(parts: usize, ne: usize, weight: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut prefix = Vec::with_capacity(ne);
    let mut total = 0usize;
    for e in 0..ne {
        prefix.push(total);
        total += weight(e);
    }
    let mut bounds: Vec<usize> = (0..parts)
        .map(|k| prefix.partition_point(|&p| p * parts < total * k))
        .collect();
    bounds.push(ne);
    bounds
}

/// The event range of each block of `bounds`.
fn block_ranges(bounds: &[usize]) -> impl Iterator<Item = Range<usize>> + '_ {
    bounds.windows(2).map(|w| w[0]..w[1])
}

/// Splits `items` into consecutive disjoint chunks of the given lengths.
fn split_by<T>(mut items: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (chunk, tail) = std::mem::take(&mut items).split_at_mut(len);
        items = tail;
        chunk
    })
    .collect()
}

/// Runs `work` on every block: the first on the calling thread, the rest on
/// scoped threads.
fn on_workers<T: Send>(blocks: impl IntoIterator<Item = T>, work: impl Fn(T) + Sync) {
    let mut blocks = blocks.into_iter();
    let first = blocks.next();
    std::thread::scope(|scope| {
        let work = &work;
        for block in blocks {
            scope.spawn(move || work(block));
        }
        if let Some(block) = first {
            work(block);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;
    use crate::ids::IntervalId;

    fn users(n: u32) -> Vec<UserId> {
        (0..n).map(UserId::new).collect()
    }

    impl<I: IntoIterator<Item = (u32, f64)>> FromIterator<I> for Postings {
        fn from_iter<L: IntoIterator<Item = I>>(lists: L) -> Self {
            let mut postings = Postings::with_capacity(0, 0);
            for list in lists {
                postings.push(list);
            }
            postings
        }
    }

    fn bits(slots: &[u32], mus: &[f64]) -> Vec<(u32, u64)> {
        slots
            .iter()
            .zip(mus)
            .map(|(&s, mu)| (s, mu.to_bits()))
            .collect()
    }

    #[test]
    fn constant_activity_builds_full_columns() {
        let act = Activity::constant(5, 3, 0.7).unwrap();
        let (cols, _) = IntervalColumns::build(&act, &users(5), 3);
        assert_eq!(cols.nnz(), 15);
        for t in 0..3 {
            assert!(cols.is_full(t));
            for r in 0..5u32 {
                let slot = cols.slot_of(t, r).unwrap();
                assert_eq!(cols.ranks[slot], r);
                assert_eq!(cols.sigma[slot], 0.7);
            }
        }
    }

    #[test]
    fn dense_zeros_drop_slots_and_slot_of_misses() {
        // 3 users × 2 intervals; user 1 inactive at t0, user 2 inactive
        // everywhere.
        let act =
            Activity::from_rows(vec![vec![0.5, 0.5], vec![0.0, 0.9], vec![0.0, 0.0]]).unwrap();
        let (cols, _) = IntervalColumns::build(&act, &users(3), 2);
        assert_eq!(cols.nnz(), 3);
        assert_eq!(cols.len(0), 1);
        assert_eq!(cols.len(1), 2);
        assert!(!cols.is_full(0));
        assert!(cols.slot_of(0, 1).is_none());
        assert!(cols.slot_of(1, 1).is_some());
        assert!(cols.slot_of(0, 2).is_none());
        assert!(cols.slot_of(1, 2).is_none());
        let s = cols.slot_of(0, 0).unwrap();
        assert_eq!(cols.sigma[s], 0.5);
    }

    #[test]
    fn columns_are_rank_sorted_even_for_masked_windows() {
        let act = Activity::masked(40, 16, 5, 7);
        let (cols, _) = IntervalColumns::build(&act, &users(40), 16);
        assert_eq!(cols.nnz(), 40 * 5);
        for t in 0..16 {
            let col = &cols.ranks[cols.offsets[t]..cols.offsets[t + 1]];
            assert!(col.windows(2).all(|w| w[0] < w[1]), "t{t} not sorted");
            for (j, &r) in col.iter().enumerate() {
                assert_eq!(cols.slot_of(t, r), Some(cols.offsets[t] + j));
            }
        }
        // σ snapshots match the model bitwise.
        for t in 0..16u32 {
            for r in 0..40u32 {
                let direct = act.sigma(UserId::new(r), IntervalId::new(t));
                match cols.slot_of(t as usize, r) {
                    Some(s) => assert_eq!(cols.sigma[s].to_bits(), direct.to_bits()),
                    None => assert_eq!(direct, 0.0),
                }
            }
        }
    }

    #[test]
    fn runs_share_postings_on_full_columns_and_localize_on_partial() {
        let act = Activity::from_rows(vec![vec![0.5, 0.5], vec![0.0, 0.9]]).unwrap();
        let (cols, slots) = IntervalColumns::build(&act, &users(2), 2);
        let postings: Postings = [vec![(0, 0.3), (1, 0.4)], vec![(1, 0.8)]]
            .into_iter()
            .collect();
        let (runs, workers) = ResolvedRuns::build(&cols, &slots, &postings);
        assert!((1..=2).contains(&workers), "at most one worker per event");
        // t0 is partial (only user 0): event 0's run keeps only rank 0 at
        // local slot 0; event 1's run is empty.
        let (s, mu) = runs.run(&postings, 0, 0, cols.is_full(0));
        assert_eq!((s, mu), (&[0][..], &[0.3][..]));
        assert!(runs.run(&postings, 1, 0, cols.is_full(0)).0.is_empty());
        // t1 is full: runs alias the shared posting lists.
        let (s, mu) = runs.run(&postings, 0, 1, cols.is_full(1));
        assert_eq!(s.as_ptr(), postings.row(0).0.as_ptr());
        assert_eq!(mu.as_ptr(), postings.row(0).1.as_ptr());
        let (s, mu) = runs.run(&postings, 1, 1, cols.is_full(1));
        assert_eq!((s, mu), (&[1][..], &[0.8][..]));
        // 12 bytes per entry (one), plus 2 × 2 + 1 offsets.
        assert_eq!(runs.resident_bytes(), 12 + 5 * 8);
    }

    #[test]
    fn all_full_instances_store_no_run_entries() {
        let act = Activity::constant(3, 4, 1.0).unwrap();
        let (cols, slots) = IntervalColumns::build(&act, &users(3), 4);
        let postings: Postings = [vec![(0, 0.5), (2, 0.5)]].into_iter().collect();
        let (runs, workers) = ResolvedRuns::build(&cols, &slots, &postings);
        assert_eq!(workers, 0, "nothing to resolve");
        assert_eq!(runs.resident_bytes(), 0);
        assert_eq!(
            runs.run(&postings, 0, 3, cols.is_full(3)).0.as_ptr(),
            postings.row(0).0.as_ptr()
        );
    }

    #[test]
    fn empty_shapes_build() {
        let act = Activity::constant(0, 0, 1.0).unwrap();
        let (cols, slots) = IntervalColumns::build(&act, &[], 0);
        assert_eq!(cols.nnz(), 0);
        let none = Postings::with_capacity(0, 0);
        let (runs, _) = ResolvedRuns::build(&cols, &slots, &none);
        assert_eq!(runs.resident_bytes(), 0);
        // Empty interval columns on a non-empty universe.
        let act = Activity::from_rows(vec![vec![0.0, 1.0]]).unwrap();
        let (cols, _) = IntervalColumns::build(&act, &users(1), 2);
        assert_eq!(cols.len(0), 0);
        assert_eq!(cols.len(1), 1);
        assert!(cols.slot_of(0, 0).is_none());
    }

    /// The per-interval resolver the rank-major build replaced: one
    /// rank→local scatter map per column, every posting list rescanned once
    /// per interval. Returns every run's `(slot, µ bits)`, row `e·|T| + t`
    /// (on a full column the map is the identity, so the run is the posting
    /// list itself).
    fn reference_runs(cols: &IntervalColumns, postings: &Postings) -> Vec<Vec<(u32, u64)>> {
        const ABSENT: u32 = u32::MAX;
        let nt = cols.offsets.len() - 1;
        let ne = postings.rows();
        let mut runs = vec![Vec::new(); ne * nt];
        let mut local_of = vec![ABSENT; cols.stride];
        for t in 0..nt {
            let col = &cols.ranks[cols.offsets[t]..cols.offsets[t + 1]];
            for (j, &r) in col.iter().enumerate() {
                local_of[r as usize] = j as u32;
            }
            for e in 0..ne {
                let (ranks, mus) = postings.row(e);
                runs[e * nt + t] = ranks
                    .iter()
                    .zip(mus)
                    .filter(|&(&r, _)| local_of[r as usize] != ABSENT)
                    .map(|(&r, mu)| (local_of[r as usize], mu.to_bits()))
                    .collect();
            }
            for &r in col {
                local_of[r as usize] = ABSENT;
            }
        }
        runs
    }

    /// Deterministic postings over ranks `0..nu`: event `e` skips every
    /// rank with `(7r + 3e) % 5 == 0`, and event `empty` (if any) has none.
    fn postings(nu: u32, ne: u32, empty: Option<u32>) -> Postings {
        (0..ne)
            .map(|e| {
                (0..nu)
                    .filter(move |&r| Some(e) != empty && (7 * r + 3 * e) % 5 != 0)
                    .map(move |r| (r, 0.01 + f64::from((31 * r + 17 * e) % 97) / 101.0))
            })
            .collect()
    }

    /// The event-major build matches the reference resolver run by run, bit
    /// for bit, at every forced worker count (7 exceeds the event count)
    /// and at the build's own count, and stores exactly the partial runs.
    fn assert_matches_reference(act: &Activity, nu: u32, postings: &Postings) {
        let nt = act.num_intervals();
        let ne = postings.rows();
        let (cols, slots) = IntervalColumns::build(act, &users(nu), nt);
        let want = reference_runs(&cols, postings);
        let partial: usize = (0..ne * nt)
            .filter(|row| !cols.is_full(row % nt))
            .map(|row| want[row].len())
            .sum();
        let forced = [1, 2, 3, 7].map(|w| (ResolvedRuns::resolve(&cols, &slots, postings, w), w));
        let gated = ResolvedRuns::build(&cols, &slots, postings);
        for (runs, workers) in forced.iter().chain([&gated]) {
            for e in 0..ne {
                for t in 0..nt {
                    let (s, mu) = runs.run(postings, e, t, cols.is_full(t));
                    assert_eq!(
                        bits(s, mu),
                        want[e * nt + t],
                        "{workers} workers: ({e}, {t})"
                    );
                }
            }
            if *workers > 0 {
                assert_eq!(runs.entries(), partial, "{workers} workers: entries");
            }
        }
    }

    /// t0 and t3 are full; t1 holds even ranks; t2 only rank 5.
    fn mixed_activity() -> Activity {
        let rows: Vec<Vec<f64>> = (0..10u32)
            .map(|r| {
                let t1 = if r % 2 == 0 { 0.5 } else { 0.0 };
                let t2 = if r == 5 { 0.9 } else { 0.0 };
                vec![0.3, t1, t2, 1.0]
            })
            .collect();
        Activity::from_rows(rows).unwrap()
    }

    #[test]
    fn runs_match_reference_on_masked_columns() {
        let act = Activity::masked(60, 12, 4, 3);
        assert_matches_reference(&act, 60, &postings(60, 5, None));
    }

    #[test]
    fn runs_match_reference_on_dense_columns_with_zeros() {
        // Rank 3 has no active interval at all; t2 is all zeros.
        let rows: Vec<Vec<f64>> = (0..9u32)
            .map(|r| {
                (0..4u32)
                    .map(|t| {
                        if r == 3 || t == 2 || (r + t) % 3 == 0 {
                            0.0
                        } else {
                            0.2 + f64::from(r) / 20.0
                        }
                    })
                    .collect()
            })
            .collect();
        let act = Activity::from_rows(rows).unwrap();
        assert_matches_reference(&act, 9, &postings(9, 4, Some(1)));
    }

    #[test]
    fn runs_match_reference_on_constant_columns() {
        let act = Activity::constant(8, 5, 0.6).unwrap();
        let postings = postings(8, 3, None);
        assert_matches_reference(&act, 8, &postings);
        let (cols, slots) = IntervalColumns::build(&act, &users(8), 5);
        assert_eq!(ResolvedRuns::build(&cols, &slots, &postings).0.entries(), 0);
    }

    #[test]
    fn runs_match_reference_on_mixed_full_and_partial_columns() {
        let act = mixed_activity();
        assert_matches_reference(&act, 10, &postings(10, 6, Some(0)));
        assert_matches_reference(&act, 10, &postings(10, 2, None));
        assert_matches_reference(&act, 10, &postings(10, 0, None));
    }

    #[test]
    fn runs_match_reference_across_rank_blocks() {
        // Three rank blocks; the last event lists its postings descending,
        // so the block sweep must still emit them in posting order.
        let nu = 2 * RANK_BLOCK as u32 + 100;
        let act = Activity::masked(nu as usize, 10, 3, 11);
        let lists: Vec<Vec<(u32, f64)>> = (0..4u32)
            .map(|e| {
                (0..nu)
                    .filter(|&r| (r + e) % (e + 2) == 0)
                    .map(|r| (r, f64::from(r % 89 + 1) / 90.0))
                    .collect()
            })
            .collect();
        let mut descending = lists[1].clone();
        descending.reverse();
        let postings: Postings = lists.into_iter().chain([descending]).collect();
        assert_matches_reference(&act, nu, &postings);
    }
}
