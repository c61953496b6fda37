//! The attendance engine: Luce-choice attendance probabilities (Eq. 1),
//! expected attendance (Eq. 2), total utility (Eq. 3) and incremental
//! assignment scores (Eq. 4).
//!
//! # Data layout — blocked per-interval columns
//!
//! For every interval `t` the engine maintains two per-user aggregates:
//!
//! * `B_t[u] = Σ_{c ∈ C_t} µ(u,c)` — the static *competing mass*;
//! * `M_t[u] = Σ_{p ∈ E_t(S)} µ(u,p)` — the dynamic *scheduled mass*.
//!
//! With `D = B_t[u] + M_t[u]`, Eq. 1 gives `ρ(u,e,t) = σ(u,t)·µ(u,e)/D`, the
//! interval's total expected attendance is `Σ_u σ(u,t)·M_t[u]/D`, and the
//! assignment score of `r → t` (Eq. 4) telescopes to
//!
//! ```text
//! score = Σ_{u: µ(u,r)>0} σ(u,t) · [ (M+µ)/(B+M+µ) − M/(B+M) ]
//! ```
//!
//! so only users on `r`'s posting list are touched. Because `x ↦ x/(B+x)` is
//! increasing, scores are non-negative: adding an event never decreases an
//! interval's total expected attendance (it *does* cannibalize co-scheduled
//! events — Eq. 4 accounts for that).
//!
//! The aggregates are **not** hash maps, and they are **not** a dense
//! `|T| × union` matrix either. At construction the engine builds a *slot
//! index* over the union of the candidate posting lists: each indexed user
//! gets a dense rank `r ∈ [0, stride)`. Per interval, only the ranks with
//! `σ(u,t) > 0` get a slot: interval `t` owns a compact *column* of those
//! ranks (CSR offsets + rank ids + parallel `B`/`M`/`σ` arrays — see
//! the `columns` module), because a `σ = 0` slot is provably inert: every read path
//! multiplies it by `σ`, so its term is `±0.0` and dropping it keeps all
//! results bit-identical to the dense layout. Resident memory is
//! `O(nnz + |T|)` instead of `O(|T|·|union|)`, which is what lets
//! million-user instances build at all (DESIGN.md §11; the original dense
//! layout and its ablation are §2).
//!
//! Each candidate event's posting list is pre-resolved once into parallel
//! rank and µ arrays, and — for every *partially populated* column —
//! additionally into a contiguous run of local slots beside their µ, so
//! scoring is a linear walk over the run and the column's value arrays with
//! no rank translation in the hot loop. Full columns (every dense-era
//! instance) skip the extra storage entirely: there the rank **is** the
//! local slot and the shared posting list doubles as the run. The walk
//! itself is the explicitly chunked Eq. 4 kernel in the `kernel` module,
//! which batches the independent divisions 4-wide while preserving the
//! scalar left-to-right f64 reduction order — sparse ≡ dense ≡ chunked, bit
//! for bit.
//!
//! On top of the per-pair [`AttendanceEngine::score`], the engine exposes a
//! batch API — [`AttendanceEngine::score_all`] (one event against every
//! interval) and [`AttendanceEngine::score_frontier`] (many events against
//! one interval) — which the greedy sweeps drive (see `algorithms`).
//!
//! ω and Ω have one definition, `EngineIndex::omega_at` (DESIGN.md §15):
//! [`evaluate`] runs it from the shared index alone, and an engine keeps ω
//! per scheduled event, refreshed whenever an interval's column mutates.
//! Without rivals it is the hash-map oracle (`testkit::evaluate_schedule`)
//! bit for bit.
//!
//! # One index per instance
//!
//! Everything above except `M` is a pure function of the instance: the slot
//! ranks, the resolved postings, the column layout with the initial `B` and
//! `σ`, the runs, and the opening sweep's scores (every `(e, t)` against the
//! empty columns). That half is an [`EngineIndex`], built by the first
//! engine of an instance and cached on the [`SesInstance`] itself, so every
//! engine over the instance — each solve, session, replay and report —
//! shares one (DESIGN.md §16). An engine owns `M`, the schedule, the clock
//! and generations, the budget, Ω and its counters. It reads `B` from the
//! index until its first [`AttendanceEngine::add_competing_mass`] lands,
//! then from its own copy, so the index is never written after its build.
//! The opening scores are served only to an engine whose clock is still 0,
//! whose columns are the index's own; the counters still advance by the
//! sweep's full cost.
//!
//! # Exact state
//!
//! Apart from [`AttendanceEngine::gain_sum`], the state is a function of
//! the schedule, the competing mass and the budget (DESIGN.md §15): `M_t`
//! is the left fold from 0.0 of `events_at(t)`'s runs in assignment order,
//! and feasibility keeps no trackers — every check asks
//! [`SesInstance::check_join`].
//!
//! # Dirty-interval generations
//!
//! An Eq. 4 score is a pure function of one interval's column
//! (`B`/`M`/`σ` slices at its CSR range), so a score computed for
//! `(e, t)` stays *bit-exact* until something mutates interval `t`'s
//! column. The engine tracks this with a monotone **mutation clock**: every
//! column mutation (`assign`/`unassign` whose run moves mass, and any
//! [`AttendanceEngine::add_competing_mass`] that lands on a resident slot)
//! advances the clock and stamps the touched interval's **generation** with
//! it. Consumers snapshot the clock, cache scores, and later ask
//! [`AttendanceEngine::dirty_intervals`] which intervals moved — everything
//! else may be reused verbatim. [`AttendanceEngine::rescore_event_at`] is the
//! paired delta API: one fresh Eq. 4 evaluation plus the generation tag it
//! is valid at, which is what the CELF-style lazy greedy stores in its heap
//! entries (see `algorithms::greedy_heap` and DESIGN.md §7).

mod columns;
mod kernel;

use crate::ids::{EventId, IntervalId, UserId};
use crate::instance::{FeasibilityViolation, SesInstance};
use crate::schedule::{Schedule, ScheduleError};
use crate::util::float::luce_ratio;
use columns::{IntervalColumns, Postings, ResolvedRuns};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Rank sentinel for users outside the slot index (no posting anywhere).
const NO_RANK: u32 = u32::MAX;

/// Operation counters, for the paper's complexity claims and the benches.
///
/// These are hardware-independent companions to wall-clock numbers: Fig. 1b/1d
/// shapes can be checked against operation counts directly.
///
/// Counters are plain data. The engine accumulates its own set; take a
/// [`delta_since`](EngineCounters::delta_since) an earlier snapshot to
/// measure one stretch of work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineCounters {
    /// Number of assignment-score evaluations (Eq. 4 computations).
    pub score_evaluations: u64,
    /// Number of posting entries visited while scoring.
    pub posting_visits: u64,
    /// Number of `assign` operations applied.
    pub assigns: u64,
    /// Number of `unassign` operations applied.
    pub unassigns: u64,
}

impl EngineCounters {
    /// Adds another counter set into this one (the server's per-shard
    /// session totals).
    pub fn merge(&mut self, other: EngineCounters) {
        self.score_evaluations += other.score_evaluations;
        self.posting_visits += other.posting_visits;
        self.assigns += other.assigns;
        self.unassigns += other.unassigns;
    }

    /// Counter-wise `self − earlier` (saturating), for attributing the work
    /// of one bracketed operation: snapshot before, subtract after.
    pub fn delta_since(&self, earlier: EngineCounters) -> EngineCounters {
        EngineCounters {
            score_evaluations: self
                .score_evaluations
                .saturating_sub(earlier.score_evaluations),
            posting_visits: self.posting_visits.saturating_sub(earlier.posting_visits),
            assigns: self.assigns.saturating_sub(earlier.assigns),
            unassigns: self.unassigns.saturating_sub(earlier.unassigns),
        }
    }

    /// This counter set in the observability vocabulary, ready to attach to
    /// a span ([`ses_obs::SpanGuard::set_ops`]).
    pub fn as_ops(&self) -> ses_obs::OpsDelta {
        ses_obs::OpsDelta {
            score_evaluations: self.score_evaluations,
            posting_visits: self.posting_visits,
            assigns: self.assigns,
            unassigns: self.unassigns,
        }
    }
}

/// Resident-memory and build-cost accounting for the blocked column layout.
///
/// `column_slots` vs `dense_slots` is the layout's headline ratio: the
/// number of `(t, rank)` slots actually resident against what the dense
/// uniform-stride layout would have allocated. All byte counts are exact
/// (element sizes × lengths), so two engines on the same instance report
/// identical layout values — only `build_millis` is wall-clock, and
/// `index_bytes` grows once when the index's opening scores are filled.
///
/// `resident_column_bytes` and `run_bytes` describe the layout one engine
/// reads, whoever holds it. `index_bytes` and `state_bytes` say who holds
/// it: the [`EngineIndex`] every engine of the instance shares, and what
/// this engine owns alone. Summing many engines, count each index once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineMemoryStats {
    /// Resident `(t, rank)` slots (`nnz` of the activity pattern).
    pub column_slots: u64,
    /// Slots the dense layout would hold: `|T| · stride`.
    pub dense_slots: u64,
    /// Bytes in the column arrays (ranks + offsets + `B`/`M`/`σ`).
    pub resident_column_bytes: u64,
    /// Bytes in the per-`(event, interval)` run arrays (zero when every
    /// column is full — dense-era instances pay nothing).
    pub run_bytes: u64,
    /// Bytes in the instance's shared [`EngineIndex`]: the slot index, the
    /// resolved postings, the column layout with the initial `B` and `σ`,
    /// the runs and, once filled, the opening scores.
    #[serde(default)]
    pub index_bytes: u64,
    /// Bytes this engine owns alone: `M`, its generations, its ω and their
    /// scratch column and, once competing mass has landed, its own copy of
    /// `B`.
    #[serde(default)]
    pub state_bytes: u64,
    /// Wall-clock milliseconds this engine's construction took: its state,
    /// plus the instance's index when this engine was the one to build it.
    /// Reporting only — never branched on, never digested.
    pub build_millis: f64,
}

impl EngineMemoryStats {
    /// Total resident bytes of the blocked layout (columns + runs).
    #[inline]
    pub fn total_resident_bytes(&self) -> u64 {
        self.resident_column_bytes + self.run_bytes
    }

    /// Sums another engine's accounting into this one (`build_millis`
    /// accumulates, like a CPU-time counter). Engines sharing an index
    /// each add its `index_bytes`.
    pub fn merge(&mut self, other: &EngineMemoryStats) {
        self.column_slots += other.column_slots;
        self.dense_slots += other.dense_slots;
        self.resident_column_bytes += other.resident_column_bytes;
        self.run_bytes += other.run_bytes;
        self.index_bytes += other.index_bytes;
        self.state_bytes += other.state_bytes;
        self.build_millis += other.build_millis;
    }
}

/// The instance-derived half of every engine: the slot index, the
/// candidate postings resolved to ranks, the column layout with the
/// initial `B` and `σ`, the posting runs, and the opening scores. None of
/// it depends on a schedule, so it is built once per instance (on the
/// first [`AttendanceEngine::new`]), cached on the [`SesInstance`], and
/// shared by every engine of that instance; dropping the instance's last
/// handle drops it.
pub struct EngineIndex {
    /// `rank_of[u]` — the user's dense rank in the slot index, or
    /// [`NO_RANK`] for users outside it.
    rank_of: Vec<u32>,
    /// Every candidate event's posting list as ranks and µ.
    resolved: Postings,
    /// The blocked per-interval columns (ranks, initial `B`, `σ`).
    cols: IntervalColumns,
    /// Per-`(event, interval)` posting runs against partial columns.
    runs: ResolvedRuns,
    /// The opening sweep: every `(e, t)` score against the empty columns,
    /// event-major, and the counters computing it cost. Filled by the
    /// first sweep of an engine at clock 0.
    opening: OnceLock<(Arc<Vec<f64>>, EngineCounters)>,
}

impl EngineIndex {
    /// Builds the index of `inst`. Indexes the union of the candidate
    /// posting lists and pre-resolves every candidate event's postings to
    /// ranks (an `index` span), builds the blocked `σ`-columns and
    /// accumulates the competing masses `B_t` (`columns`), and resolves the
    /// per-interval runs (`runs`) — `O(nnz + |T| + Σ_h |postings(h)|)`
    /// plus one write per run entry, never a dense `|T|·stride` pass.
    /// Partial columns' runs resolve on every core; the index is the same
    /// for any split.
    pub(crate) fn build(inst: &SesInstance) -> Self {
        let nt = inst.num_intervals();
        let nu = inst.num_users();
        let ne = inst.num_events();
        let interest = inst.interest();
        let lists = |e: usize| interest.interested_users(EventId::new(e as u32).into());

        let mut index_span = ses_obs::span(ses_obs::Stage::Index);
        // Union of *candidate* posting lists → dense ranks, in user-id
        // order. Users appearing only in competing posting lists get no
        // slot: they can never accrue scheduled mass, so every read path
        // (scores, attendances, interval utilities) provably never consults
        // their aggregates — indexing them would only inflate the columns.
        let mut in_index = vec![false; nu];
        for e in 0..ne {
            for &(u, _) in lists(e) {
                in_index[u.index()] = true;
            }
        }
        let mut rank_of = vec![NO_RANK; nu];
        let mut users: Vec<UserId> = Vec::new();
        for (u, &active) in in_index.iter().enumerate() {
            if active {
                rank_of[u] = users.len() as u32;
                users.push(UserId::new(u as u32));
            }
        }

        // Pre-resolve candidate posting lists to ranks.
        let total = (0..ne).map(|e| lists(e).len()).sum();
        let mut resolved = Postings::with_capacity(ne, total);
        for e in 0..ne {
            resolved.push(lists(e).iter().map(|&(u, mu)| (rank_of[u.index()], mu)));
        }
        index_span.set_aux(users.len() as u64, total as u64);
        drop(index_span);

        // Blocked σ-columns: only `σ(u,t) > 0` slots are resident. The
        // rank-major slot index is a build-time temporary.
        let mut columns_span = ses_obs::span(ses_obs::Stage::Columns);
        let (mut cols, slots) = IntervalColumns::build(inst.activity(), &users, nt);

        // Competing mass. Competing-only users have no rank and σ = 0 slots
        // have no storage — both are skipped, and both are provably never
        // read (every consumer multiplies by σ, see the module docs).
        for c in inst.competing() {
            let t = c.interval.index();
            for &(u, mu) in interest.interested_users(c.id.into()) {
                let r = rank_of[u.index()];
                if r != NO_RANK {
                    if let Some(i) = cols.slot_of(t, r) {
                        cols.b[i] += mu;
                    }
                }
            }
        }
        columns_span.set_aux(cols.nnz() as u64, slots.partial_slots() as u64);
        drop(columns_span);

        let mut runs_span = ses_obs::span(ses_obs::Stage::Runs);
        let (runs, workers) = ResolvedRuns::build(&cols, &slots, &resolved);
        runs_span.set_aux(runs.entries() as u64, workers as u64);
        drop(runs_span);
        Self {
            rank_of,
            resolved,
            cols,
            runs,
            opening: OnceLock::new(),
        }
    }

    /// Interval `t`'s column start and the run of `(event, t)` as parallel
    /// slot and µ slices: the shared posting list itself when the column is
    /// full (rank ≡ local slot), otherwise the pre-resolved entries.
    #[inline]
    fn run(&self, event: usize, t: usize) -> (usize, &[u32], &[f64]) {
        let start = self.cols.offsets[t];
        let full = self.cols.offsets[t + 1] - start == self.cols.stride;
        let (slots, mus) = self.runs.run(&self.resolved, event, t, full);
        (start, slots, mus)
    }

    /// The definition of ω (Eq. 2): hands `(e, ω(e))` to `out` for every
    /// event of `events`, all scheduled at interval `t`. Each run slot's
    /// denominator starts from `b` (this index's `B`, or an engine's copy
    /// carrying its rivals) and adds the events' µ in event-id order in
    /// that one accumulator; ω(e) sums `σ·luce_ratio(µ, D)` along e's run
    /// from 0.0. `denom` is scratch, grown to the column once. Cost: three
    /// passes over the events' runs at `t`.
    fn omega_at(
        &self,
        b: &[f64],
        t: usize,
        events: &[EventId],
        denom: &mut Vec<f64>,
        mut out: impl FnMut(EventId, f64),
    ) {
        let start = self.cols.offsets[t];
        denom.resize(denom.len().max(self.cols.offsets[t + 1] - start), 0.0);
        let mut events = events.to_vec();
        events.sort_unstable();
        for &e in &events {
            for &slot in self.run(e.index(), t).1 {
                denom[slot as usize] = b[start + slot as usize];
            }
        }
        for &e in &events {
            let (_, slots, mus) = self.run(e.index(), t);
            for (&slot, &mu) in slots.iter().zip(mus) {
                denom[slot as usize] += mu;
            }
        }
        for &e in &events {
            let (_, slots, mus) = self.run(e.index(), t);
            let sigma = &self.cols.sigma[start..];
            out(
                e,
                slots.iter().zip(mus).fold(0.0, |omega, (&slot, &mu)| {
                    omega + sigma[slot as usize] * luce_ratio(mu, denom[slot as usize])
                }),
            );
        }
    }

    /// Bytes resident in the index (see [`EngineMemoryStats::index_bytes`]).
    fn resident_bytes(&self) -> u64 {
        let opening = self.opening.get().map_or(0, |(scores, _)| scores.len());
        (self.rank_of.len() * size_of::<u32>() + opening * size_of::<f64>()) as u64
            + self.resolved.resident_bytes()
            + self.cols.resident_bytes()
            + self.runs.resident_bytes()
    }
}

/// Incremental attendance/utility engine bound to one instance.
///
/// Owns the evolving [`Schedule`], a shared handle to its [`SesInstance`]
/// and one to the instance's [`EngineIndex`], so engines are
/// `Send + Sync + 'static`: they can live in maps and move across threads
/// (all scoring state is plain data — no cells, no locks).
/// (Borrowed `&SesInstance` constructors are gone — wrap the instance in an
/// [`Arc`] once and hand out clones; `SesInstance::builder().build_shared()`
/// does this for you.)
///
/// All mutating operations keep the aggregate columns and every scheduled
/// event's ω consistent; feasibility is read off the schedule itself.
pub struct AttendanceEngine {
    inst: Arc<SesInstance>,
    /// The instance's shared index: slot ranks, postings, column layout,
    /// initial `B`, `σ` and runs.
    index: Arc<EngineIndex>,
    schedule: Schedule,
    /// Scheduled mass `M` per column slot, parallel to the index's columns.
    m: Vec<f64>,
    /// This engine's own competing mass `B`, copied from the index when the
    /// first [`Self::add_competing_mass`] lands; until then `B` is read
    /// from the index, which no engine ever writes.
    b: Option<Vec<f64>>,
    /// Wall-clock milliseconds of this engine's construction.
    build_millis: f64,
    /// The live per-interval resource budget θ. Starts at the instance's
    /// budget; the online layer may move it (capacity changes).
    budget: f64,
    /// Monotone mutation clock: advanced once per column mutation. `0`
    /// means "nothing has ever mutated", so a consumer snapshot taken at
    /// clock `c` is stale for exactly the intervals with `gen[t] > c`.
    clock: u64,
    /// `gen[t]` — the clock value at interval `t`'s most recent column
    /// mutation (its *generation*). Scores tagged with an older generation
    /// are stale; scores tagged with the current one are bit-exact.
    gen: Vec<u64>,
    /// `omega[e]` — ω(e) of a scheduled event, `0.0` for the others.
    /// Refreshed for an interval's events whenever its column mutates.
    omega: Vec<f64>,
    /// Scratch denominators of `EngineIndex::omega_at`.
    denom: Vec<f64>,
    /// See [`Self::gain_sum`].
    gain_sum: f64,
    counters: EngineCounters,
}

impl AttendanceEngine {
    /// Creates an engine with an empty schedule over the instance's shared
    /// [`EngineIndex`], building the index first if no engine of the
    /// instance has yet (see [`EngineIndex`]; concurrent first engines
    /// build it once). Its own state is `M` and the generations: one
    /// `O(nnz + |T|)` allocation. Records a [`ses_obs::Stage::Build`] span,
    /// with `index`, `columns` and `runs` children only when it builds the
    /// index.
    ///
    /// Takes `&Arc` and clones the handle internally — callers keep their
    /// own handle and pay one refcount bump, never a deep copy.
    pub fn new(inst: &Arc<SesInstance>) -> Self {
        let mut span = ses_obs::span(ses_obs::Stage::Build);
        // ses-analyze: allow(wall-clock-in-core): build timing is reported in EngineMemoryStats, never branched on or digested
        let build_start = std::time::Instant::now();
        let index = Arc::clone(inst.engine_index());
        let nnz = index.cols.nnz();
        span.set_aux(index.runs.entries() as u64, nnz as u64);
        Self {
            inst: Arc::clone(inst),
            schedule: inst.empty_schedule(),
            m: vec![0.0; nnz],
            b: None,
            build_millis: build_start.elapsed().as_secs_f64() * 1e3,
            budget: inst.budget(),
            clock: 0,
            gen: vec![0; inst.num_intervals()],
            omega: vec![0.0; inst.num_events()],
            denom: Vec::new(),
            gain_sum: 0.0,
            counters: EngineCounters::default(),
            index,
        }
    }

    /// Creates an engine pre-loaded with an existing (feasible) schedule.
    pub fn with_schedule(
        inst: &Arc<SesInstance>,
        schedule: &Schedule,
    ) -> Result<Self, FeasibilityViolation> {
        let mut engine = Self::new(inst);
        for a in schedule.iter() {
            engine.assign(a.event, a.interval)?;
        }
        Ok(engine)
    }

    /// The instance this engine is bound to.
    #[inline]
    pub fn instance(&self) -> &SesInstance {
        &self.inst
    }

    /// The shared handle to the instance (clone it to hand the instance to
    /// another engine, session or thread).
    #[inline]
    pub fn instance_arc(&self) -> &Arc<SesInstance> {
        &self.inst
    }

    /// The current schedule.
    #[inline]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Consumes the engine, returning the schedule.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// The total utility `Ω(S)` (Eq. 3): the cached ω of the scheduled
    /// events summed in event-id order from 0.0 — bit for bit what
    /// [`evaluate`] reports for this schedule when the engine has no
    /// rivals. `O(|E|)`.
    pub fn total_utility(&self) -> f64 {
        self.schedule
            .iter()
            .fold(0.0, |sum, a| sum + self.omega[a.event.index()])
    }

    /// The running sum of every assign's gain less every unassign's loss:
    /// without rivals, Ω up to the association order of those terms. SA's
    /// acceptance and EXACT's bound read it, so their decisions do not
    /// depend on the ω refresh; nothing reports it.
    #[inline]
    pub fn gain_sum(&self) -> f64 {
        self.gain_sum
    }

    /// Operation counters accumulated so far.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// The instance's shared index this engine reads (compare two engines'
    /// with [`Arc::ptr_eq`] to count shared bytes once).
    #[inline]
    pub fn index(&self) -> &Arc<EngineIndex> {
        &self.index
    }

    /// Resident-memory and build-cost accounting for the blocked layout.
    /// The layout is fixed at construction (columns never grow or shrink);
    /// `state_bytes` grows once if `B` is copied, `index_bytes` once when
    /// the opening scores are filled.
    pub fn memory_stats(&self) -> EngineMemoryStats {
        let cols = &self.index.cols;
        let f64s = self.m.len()
            + self.b.as_ref().map_or(0, Vec::len)
            + self.omega.len()
            + self.denom.len();
        let m_bytes = (self.m.len() * size_of::<f64>()) as u64;
        EngineMemoryStats {
            column_slots: cols.nnz() as u64,
            dense_slots: self.gen.len() as u64 * cols.stride as u64,
            resident_column_bytes: cols.resident_bytes() + m_bytes,
            run_bytes: self.index.runs.resident_bytes(),
            index_bytes: self.index.resident_bytes(),
            state_bytes: (f64s * size_of::<f64>() + self.gen.len() * size_of::<u64>()) as u64,
            build_millis: self.build_millis,
        }
    }

    /// Competing mass `B` per column slot: this engine's own copy once
    /// competing mass has landed, the index's until then.
    #[inline]
    fn b(&self) -> &[f64] {
        self.b.as_deref().unwrap_or(&self.index.cols.b)
    }

    /// The current mutation clock. Snapshot it before caching scores; feed
    /// the snapshot to [`Self::dirty_intervals`] later to learn which
    /// intervals (and only which) invalidated their cached scores.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The generation of one interval: the clock value at its most recent
    /// column mutation (`0` if never mutated). A score tagged with an older
    /// generation is stale; one tagged with the current generation is
    /// bit-exact — this is the staleness test of the CELF lazy greedy.
    #[inline]
    pub fn interval_generation(&self, interval: IntervalId) -> u64 {
        self.gen[interval.index()]
    }

    /// Advances the clock, stamps `interval`'s generation and refreshes the
    /// ω of the events there — every column mutation funnels through here,
    /// so no cached ω is ever stale. Cost: the runs at the interval.
    fn touch(&mut self, interval: IntervalId) {
        self.clock += 1;
        self.gen[interval.index()] = self.clock;
        let b = self.b.as_deref().unwrap_or(&self.index.cols.b);
        let omega = &mut self.omega;
        self.index.omega_at(
            b,
            interval.index(),
            self.schedule.events_at(interval),
            &mut self.denom,
            |e, w| omega[e.index()] = w,
        );
    }

    /// The intervals whose columns mutated *after* the clock snapshot
    /// `since`, in ascending interval order. Scores cached at or before
    /// `since` remain bit-exact for every interval **not** returned — the
    /// contract the dirty-filtered GRD rescan and the online repair's score
    /// cache rely on (DESIGN.md §7). Cost: one `O(|T|)` scan, no
    /// per-mutation allocation.
    pub fn dirty_intervals(&self, since: u64) -> Vec<IntervalId> {
        self.gen
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g > since)
            .map(|(t, _)| IntervalId::new(t as u32))
            .collect()
    }

    /// Delta API: one fresh Eq. 4 evaluation of `event → interval`,
    /// returning the score together with the interval generation it is
    /// valid at. Counts like [`Self::score`]. The returned tag is what a
    /// lazy consumer stores next to the score: the pair stays bit-exact
    /// until [`Self::interval_generation`] moves past it.
    pub fn rescore_event_at(&mut self, event: EventId, interval: IntervalId) -> (f64, u64) {
        let score = self.score(event, interval);
        (score, self.gen[interval.index()])
    }

    /// Feasibility/validity check for `event → interval` against the
    /// *current* schedule and the live budget ([`SesInstance::check_join`]).
    pub fn check_assignment(
        &self,
        event: EventId,
        interval: IntervalId,
    ) -> Result<(), FeasibilityViolation> {
        self.inst
            .check_assignment(&self.schedule, event, interval, self.budget)
    }

    /// Convenience wrapper over [`Self::check_assignment`].
    #[inline]
    pub fn is_valid(&self, event: EventId, interval: IntervalId) -> bool {
        self.check_assignment(event, interval).is_ok()
    }

    /// The assignment score of `event → interval` w.r.t. the current
    /// schedule (Eq. 4): the gain in total expected attendance from adding
    /// the assignment. Does **not** check feasibility.
    ///
    /// `posting_visits` counts the *run* length — on partial columns that is
    /// at most (and on full columns exactly) the posting-list length, so
    /// the counter never grows under the blocked layout.
    pub fn score(&mut self, event: EventId, interval: IntervalId) -> f64 {
        let t = interval.index();
        let (start, slots, mus) = self.index.run(event.index(), t);
        let end = self.index.cols.offsets[t + 1];
        self.counters.score_evaluations += 1;
        self.counters.posting_visits += slots.len() as u64;
        kernel::score_run(
            slots,
            mus,
            &self.b()[start..end],
            &self.m[start..end],
            &self.index.cols.sigma[start..end],
        )
    }

    /// Batch Eq. 4: scores `event` against **every** interval in one call
    /// (index `t` of the result is interval `t`). Equivalent to, and counted
    /// like, `|T|` calls to [`Self::score`].
    pub fn score_all(&mut self, event: EventId) -> Vec<f64> {
        (0..self.inst.num_intervals())
            .map(|t| self.score(event, IntervalId::new(t as u32)))
            .collect()
    }

    /// Batch Eq. 4: scores many candidate events against **one** interval
    /// (result is parallel to `events`). The greedy update pass uses this to
    /// rescore an interval's frontier after a commit.
    pub fn score_frontier(&mut self, events: &[EventId], interval: IntervalId) -> Vec<f64> {
        events.iter().map(|&e| self.score(e, interval)).collect()
    }

    /// Scores every `(event, interval)` pair against the current columns:
    /// the scores event-major (`e·|T| + t`), and whether the index served
    /// them. Counted like `|E|·|T|` calls to [`Self::score`] either way.
    ///
    /// At clock 0 no column has moved, so the columns are the index's own:
    /// the first such sweep of any engine of the instance fills the index's
    /// opening scores, and every later one is served from them, adding the
    /// counters the sweep cost. Once a column has moved the pairs are
    /// always scored afresh.
    ///
    /// The sweep is interval-major on purpose: one interval's columnar
    /// block (`B`/`M`/`σ` slices, tens of KB) stays cache-resident while
    /// every event scores against it, instead of re-streaming all `|T|`
    /// blocks per event.
    pub(crate) fn score_every_pair(&mut self) -> (Arc<Vec<f64>>, bool) {
        if self.clock != 0 {
            return (Arc::new(self.sweep()), false);
        }
        let index = Arc::clone(&self.index);
        let mut served = true;
        let (scores, cost) = index.opening.get_or_init(|| {
            served = false;
            let before = self.counters;
            let scores = self.sweep();
            (Arc::new(scores), self.counters.delta_since(before))
        });
        if served {
            self.counters.merge(*cost);
        }
        (Arc::clone(scores), served)
    }

    /// Every pair's score, computed interval-major, emitted event-major.
    fn sweep(&mut self) -> Vec<f64> {
        let ne = self.inst.num_events();
        let nt = self.inst.num_intervals();
        let events: Vec<EventId> = (0..ne).map(|e| EventId::new(e as u32)).collect();
        let mut scores = vec![0.0; ne * nt];
        for t in 0..nt {
            let column = self.score_frontier(&events, IntervalId::new(t as u32));
            for (e, score) in column.into_iter().enumerate() {
                scores[e * nt + t] = score;
            }
        }
        scores
    }

    /// Applies `event → interval` if it is a *valid* assignment; returns the
    /// realized gain (equal to [`Self::score`] at the moment of application).
    pub fn assign(
        &mut self,
        event: EventId,
        interval: IntervalId,
    ) -> Result<f64, FeasibilityViolation> {
        self.check_assignment(event, interval)?;
        let gain = self.score(event, interval);
        self.schedule
            .assign(event, interval)
            .expect("validated assignment must apply");
        let (start, slots, mus) = self.index.run(event.index(), interval.index());
        // A run that moves no mass (empty posting list, or every posting
        // aimed at a σ = 0 user) leaves the column bit-identical: validity
        // state changes but no score can, so the generation stays put
        // (validity is always re-checked fresh by consumers — only scores
        // are cached).
        for (&slot, &mu) in slots.iter().zip(mus) {
            self.m[start + slot as usize] += mu;
        }
        if !slots.is_empty() {
            self.touch(interval);
        }
        self.gain_sum += gain;
        self.counters.assigns += 1;
        Ok(gain)
    }

    /// Removes `event` from the schedule; returns the utility *loss* (the
    /// amount by which [`Self::gain_sum`] decreased). Used by local search.
    ///
    /// M at the vacated interval is re-folded from 0.0 over the runs of the
    /// events still there, in assignment order — the sums assigning them
    /// afresh would build — so an emptied slot holds exactly 0.0 (with
    /// B = 0, any residue would be a whole phantom user: `M/(B+M)` is
    /// scale-invariant) and M depends only on the schedule. Cost: the runs
    /// at the interval.
    pub fn unassign(&mut self, event: EventId) -> Result<f64, ScheduleError> {
        let interval = self.schedule.unassign(event)?;
        let t = interval.index();
        let index = &*self.index;
        let (start, slots, _) = index.run(event.index(), t);
        let before: Vec<f64> = slots
            .iter()
            .map(|&slot| self.m[start + slot as usize])
            .collect();
        let remaining = self.schedule.events_at(interval);
        for &e in std::iter::once(&event).chain(remaining) {
            for &slot in index.run(e.index(), t).1 {
                self.m[start + slot as usize] = 0.0;
            }
        }
        for &e in remaining {
            let (_, slots, mus) = index.run(e.index(), t);
            for (&slot, &mu) in slots.iter().zip(mus) {
                self.m[start + slot as usize] += mu;
            }
        }
        let b = self.b();
        let mut loss = 0.0;
        for (&slot, &m) in slots.iter().zip(&before) {
            let i = start + slot as usize;
            let m_new = self.m[i];
            loss +=
                index.cols.sigma[i] * (luce_ratio(m, b[i] + m) - luce_ratio(m_new, b[i] + m_new));
        }
        self.omega[event.index()] = 0.0;
        if !slots.is_empty() {
            self.touch(interval);
        }
        self.gain_sum -= loss;
        self.counters.unassigns += 1;
        Ok(loss)
    }

    /// The attendance probability `ρ(u, e, t_e(S))` (Eq. 1) of a *scheduled*
    /// event; `None` if `e` is not scheduled.
    pub fn attendance_probability(&self, user: UserId, event: EventId) -> Option<f64> {
        let interval = self.schedule.interval_of(event)?;
        let mu = self.inst.mu(user, event);
        // No rank or no slot → the user holds no aggregates here: either no
        // candidate interest anywhere, or σ(u,t) = 0 at this interval — the
        // σ factor below zeroes the probability in the latter case exactly
        // as the dense layout did.
        let (b, m) = match self.index.rank_of.get(user.index()) {
            Some(&r) if r != NO_RANK => match self.index.cols.slot_of(interval.index(), r) {
                Some(i) => (self.b()[i], self.m[i]),
                None => (0.0, 0.0),
            },
            _ => (0.0, 0.0),
        };
        Some(self.inst.sigma(user, interval) * luce_ratio(mu, b + m))
    }

    /// The expected attendance `ω(e, t_e(S))` (Eq. 2) of a *scheduled* event,
    /// as cached by the last refresh of its interval; `None` if `e` is not
    /// scheduled.
    pub fn expected_attendance(&self, event: EventId) -> Option<f64> {
        self.schedule
            .contains(event)
            .then(|| self.omega[event.index()])
    }

    /// Expected number of *distinct* users attending at least one scheduled
    /// event: `Σ_u (1 − Π_t (1 − Σ_{e ∈ E_t(S)} ρ(u,e,t)))`, assuming
    /// independence across intervals.
    ///
    /// Per occupied interval (ascending), ρ is summed per column slot over
    /// [`Schedule::events_at`] in order, then folded into the slot's user as
    /// `p_none *= (1 − p).max(0.0)`. A slot no run touches multiplies by
    /// exactly `1.0`, and a user without a rank contributes exactly `0.0`,
    /// so the result is bit-identical to the per-user × interval × event
    /// probe over [`Self::attendance_probability`]. Cost: one pass over the
    /// occupied columns and their runs.
    pub fn expected_reach(&self) -> f64 {
        let (cols, b) = (&self.index.cols, self.b());
        let mut p_none = vec![1.0f64; cols.stride];
        let mut p: Vec<f64> = Vec::new();
        for interval in self.schedule.occupied_intervals() {
            let t = interval.index();
            let (start, end) = (cols.offsets[t], cols.offsets[t + 1]);
            p.clear();
            p.resize(end - start, 0.0);
            for &e in self.schedule.events_at(interval) {
                let (_, slots, mus) = self.index.run(e.index(), t);
                for (&slot, &mu) in slots.iter().zip(mus) {
                    let i = start + slot as usize;
                    p[slot as usize] += cols.sigma[i] * luce_ratio(mu, b[i] + self.m[i]);
                }
            }
            for (&r, &q) in cols.ranks[start..end].iter().zip(&p) {
                p_none[r as usize] *= (1.0 - q).max(0.0);
            }
        }
        p_none.iter().fold(0.0, |reach, &q| reach + (1.0 - q))
    }

    /// Total expected attendance of one interval: `Σ_{e ∈ E_t(S)} ω(e,t)`.
    pub fn interval_utility(&self, interval: IntervalId) -> f64 {
        let t = interval.index();
        let column = self.index.cols.offsets[t]..self.index.cols.offsets[t + 1];
        let b = &self.b()[column.clone()];
        let sigma = &self.index.cols.sigma[column.clone()];
        let mut sum = 0.0;
        for ((&m, &b), &sigma) in self.m[column].iter().zip(b).zip(sigma) {
            if m > 0.0 {
                sum += sigma * luce_ratio(m, b + m);
            }
        }
        sum
    }

    /// Resources currently used at `interval`:
    /// [`SesInstance::resources_of`] its events.
    pub fn used_resources(&self, interval: IntervalId) -> f64 {
        self.inst
            .resources_of(self.schedule.events_at(interval), None)
    }

    /// The live per-interval resource budget θ (the instance's budget unless
    /// the online layer has moved it with [`Self::set_budget`]).
    #[inline]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Overrides the per-interval resource budget θ for all *future*
    /// feasibility checks — the organizer gained or lost capacity after
    /// publication (the online setting; see [`crate::online`]).
    ///
    /// Existing assignments are left untouched even if the new budget no
    /// longer covers them; the online layer owns eviction policy (and
    /// sanitization — a NaN here would disable resource checks entirely).
    pub fn set_budget(&mut self, budget: f64) {
        debug_assert!(
            budget.is_finite() && budget >= 0.0,
            "engine budget must be finite and non-negative, got {budget}"
        );
        self.budget = budget;
    }

    /// Injects additional competing mass at `interval` — a third-party event
    /// announced *after* the instance was built (the online setting; see
    /// [`crate::online`]). `postings` lists the interested users with their
    /// `µ(u, c) ∈ [0,1]`, like an inverted-index row.
    ///
    /// Every scheduled event at the interval loses attendance to the
    /// newcomer, and their ω are refreshed against the new `B`. The engine's
    /// aggregates stay authoritative; the underlying instance is unchanged.
    ///
    /// Users outside the slot index are skipped (no interest in any
    /// candidate → scheduled mass permanently zero), and so are indexed
    /// users with `σ(u, interval) = 0` (no resident slot → every consumer
    /// multiplies their aggregates by zero). Neither can change any score
    /// or probability.
    ///
    /// The first posting that lands copies `B` out of the shared index into
    /// this engine, so no other engine of the instance ever sees it.
    pub fn add_competing_mass(&mut self, interval: IntervalId, postings: &[(UserId, f64)]) {
        let t = interval.index();
        let index = &*self.index;
        let mut touched = false;
        for &(u, mu_c) in postings {
            debug_assert!((0.0..=1.0).contains(&mu_c), "competing µ out of range");
            let Some(&r) = index.rank_of.get(u.index()) else {
                continue;
            };
            if r == NO_RANK || mu_c <= 0.0 {
                continue;
            }
            let Some(i) = index.cols.slot_of(t, r) else {
                continue;
            };
            self.b.get_or_insert_with(|| index.cols.b.clone())[i] += mu_c;
            touched = true;
        }
        // Only a landed posting dirties the interval: mass aimed entirely at
        // absent slots leaves the column bit-identical, so cached scores for
        // the interval stay valid.
        if touched {
            self.touch(interval);
        }
    }
}

/// Per-event attendance report of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Total utility `Ω(S)`.
    pub total_utility: f64,
    /// `(event, interval, ω(e,t))` for every assignment, in event order.
    pub per_event: Vec<(EventId, IntervalId, f64)>,
}

/// Ω and every ω of `schedule` (Eq. 2–3) by their one definition, straight
/// from the instance's shared [`EngineIndex`] (built first if no engine of
/// the instance has yet): no engine, no hashing. Cost: `O(Σ runs of the
/// scheduled events)` plus one scratch column.
pub fn evaluate(inst: &SesInstance, schedule: &Schedule) -> Evaluation {
    let index = inst.engine_index();
    let mut omega = vec![0.0; schedule.num_events()];
    let mut denom = Vec::new();
    for interval in schedule.occupied_intervals() {
        let events = schedule.events_at(interval);
        index.omega_at(
            &index.cols.b,
            interval.index(),
            events,
            &mut denom,
            |e, w| {
                omega[e.index()] = w;
            },
        );
    }
    let per_event: Vec<_> = schedule
        .iter()
        .map(|a| (a.event, a.interval, omega[a.event.index()]))
        .collect();
    Evaluation {
        total_utility: per_event.iter().fold(0.0, |sum, &(_, _, w)| sum + w),
        per_event,
    }
}

/// The exact-state oracle of the LS and SA unit tests (the simulator
/// streams' copy, which also replays competing mass, is in
/// `crates/sim/tests/exact_state.rs`).
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Panics unless an engine rebuilt over `live`'s instance and budget,
    /// assigning each interval's `events_at(t)` in order, matches `live`
    /// bit for bit on every interval's utility and resources, and unless
    /// `live`'s Ω and every ω are the hash-map oracle's bits.
    pub(crate) fn assert_exact_state(live: &AttendanceEngine) {
        let oracle = crate::testkit::evaluate_schedule(live.instance(), live.schedule());
        assert_eq!(
            live.total_utility().to_bits(),
            oracle.total_utility.to_bits()
        );
        for &(e, _, omega) in &oracle.per_event {
            assert_eq!(
                live.expected_attendance(e).map(f64::to_bits),
                Some(omega.to_bits())
            );
        }
        let mut fresh = AttendanceEngine::new(live.instance_arc());
        fresh.set_budget(live.budget());
        for t in (0..live.schedule().num_intervals()).map(|t| IntervalId::new(t as u32)) {
            for &e in live.schedule().events_at(t) {
                fresh
                    .assign(e, t)
                    .expect("a live schedule re-assigns in order");
            }
            assert_eq!(
                (
                    live.interval_utility(t).to_bits(),
                    live.used_resources(t).to_bits()
                ),
                (
                    fresh.interval_utility(t).to_bits(),
                    fresh.used_resources(t).to_bits()
                ),
                "interval {t}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;
    use crate::ids::LocationId;
    use crate::interest::InterestBuilder;
    use crate::model::{uniform_grid, CandidateEvent, Organizer};
    use crate::testkit::evaluate_schedule;
    use crate::util::float::{approx_eq, approx_ge};

    /// The hand-verifiable instance shared with the rest of the test suite
    /// (see [`crate::testkit::hand_instance`] for the exact µ/σ/θ values).
    fn inst() -> Arc<SesInstance> {
        crate::testkit::hand_instance()
    }

    fn e(i: u32) -> EventId {
        EventId::new(i)
    }
    fn t(i: u32) -> IntervalId {
        IntervalId::new(i)
    }
    fn u(i: u32) -> UserId {
        UserId::new(i)
    }

    /// 3 users × 2 intervals × 2 events with σ = 0 holes: user 0 sleeps at
    /// t1, user 2 sleeps at t0 — so both columns are *partial* and every
    /// engine path exercises the run translation instead of the full-column
    /// alias.
    fn sparse_inst() -> Arc<SesInstance> {
        let mut interest = InterestBuilder::new(3, 2, 0);
        interest.set(u(0), e(0), 0.8).unwrap();
        interest.set(u(1), e(0), 0.3).unwrap();
        interest.set(u(2), e(0), 0.6).unwrap();
        interest.set(u(1), e(1), 0.5).unwrap();
        interest.set(u(2), e(1), 0.9).unwrap();
        SesInstance::builder()
            .organizer(Organizer::new(10.0))
            .intervals(uniform_grid(2, 10))
            .events(vec![
                CandidateEvent::new(e(0), LocationId::new(0), 1.0),
                CandidateEvent::new(e(1), LocationId::new(1), 1.0),
            ])
            .interest(interest.build().unwrap())
            .activity(
                Activity::from_rows(vec![vec![0.9, 0.0], vec![0.7, 0.6], vec![0.0, 0.8]]).unwrap(),
            )
            .build_shared()
            .unwrap()
    }

    #[test]
    fn empty_schedule_has_zero_utility() {
        let inst = inst();
        let engine = AttendanceEngine::new(&inst);
        assert_eq!(engine.total_utility(), 0.0);
        assert_eq!(engine.schedule().len(), 0);
    }

    #[test]
    fn score_on_empty_interval_matches_hand_computation() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        // e0 → t0: user0 only; B = 0.5 (c0), M = 0.
        // score = 1 * (0.8 / (0.5 + 0.8)) = 0.8/1.3.
        let s = engine.score(e(0), t(0));
        assert!(approx_eq(s, 0.8 / 1.3), "got {s}");
        // e0 → t1: no competing events, so ρ = µ/µ = 1 → score = 1.
        let s = engine.score(e(0), t(1));
        assert!(approx_eq(s, 1.0), "got {s}");
    }

    #[test]
    fn batch_scoring_matches_per_pair_scoring() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(0)).unwrap();
        for ev in [e(1), e(2)] {
            let all = engine.score_all(ev);
            assert_eq!(all.len(), inst.num_intervals());
            for (ti, &s) in all.iter().enumerate() {
                assert_eq!(s, engine.score(ev, t(ti as u32)), "event {ev} t{ti}");
            }
        }
        let frontier = engine.score_frontier(&[e(1), e(2)], t(0));
        assert_eq!(frontier[0], engine.score(e(1), t(0)));
        assert_eq!(frontier[1], engine.score(e(2), t(0)));
    }

    #[test]
    fn batch_scoring_counts_like_per_pair_scoring() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.score_all(e(1));
        let batch = engine.counters();
        for ti in 0..inst.num_intervals() {
            engine.score(e(1), t(ti as u32));
        }
        assert_eq!(engine.counters().delta_since(batch), batch);
    }

    #[test]
    fn assign_gain_equals_prior_score_and_updates_utility() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        let predicted = engine.score(e(0), t(0));
        let gain = engine.assign(e(0), t(0)).unwrap();
        assert!(approx_eq(predicted, gain));
        assert!(approx_eq(engine.total_utility(), gain));
        let eval = evaluate_schedule(&inst, engine.schedule());
        assert_eq!(
            eval.total_utility.to_bits(),
            engine.total_utility().to_bits()
        );
    }

    #[test]
    fn score_accounts_for_cannibalization() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(0)).unwrap();
        // Adding e1 to t0: user0 shares both events → e0's attendance drops.
        // Score must equal ΔΩ exactly.
        let before = engine.total_utility();
        let predicted = engine.score(e(1), t(0));
        engine.assign(e(1), t(0)).unwrap();
        let after = engine.total_utility();
        assert!(approx_eq(after - before, predicted));
        // Hand computation:
        //   user0: B=0.5, M=0.8 → Δ = (1.2/1.7) − (0.8/1.3)
        //   user1: B=0, M=0 → Δ = 0.5/0.5 = 1
        let expected = (1.2f64 / 1.7 - 0.8 / 1.3) + 1.0;
        assert!(approx_eq(predicted, expected), "{predicted} vs {expected}");
    }

    #[test]
    fn scores_are_nonnegative_and_diminish_within_interval() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        let s_before = engine.score(e(1), t(0));
        engine.assign(e(0), t(0)).unwrap();
        let s_after = engine.score(e(1), t(0));
        assert!(s_before >= 0.0 && s_after >= 0.0);
        assert!(
            s_after <= s_before + 1e-12,
            "marginal gain must not increase as the interval fills: {s_before} -> {s_after}"
        );
    }

    #[test]
    fn incremental_matches_reference_after_many_ops() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(0)).unwrap();
        engine.assign(e(1), t(0)).unwrap();
        engine.assign(e(2), t(1)).unwrap();
        engine.unassign(e(1)).unwrap();
        engine.assign(e(1), t(1)).unwrap();
        engine.unassign(e(0)).unwrap();
        engine.assign(e(0), t(1)).unwrap();
        let eval = evaluate_schedule(&inst, engine.schedule());
        assert_eq!(
            eval.total_utility.to_bits(),
            engine.total_utility().to_bits(),
            "incremental {} vs reference {}",
            engine.total_utility(),
            eval.total_utility
        );
    }

    #[test]
    fn unassign_snaps_mass_to_exact_zero() {
        // Regression test: M/(B+M) is scale-invariant, so with B = 0 a float
        // residue (e.g. 1.1 − 0.6 − 0.5 ≈ 1e-16) left in M after unassigns
        // would evaluate to a full phantom attendance of 1.0. `unassign`
        // re-folds M from 0.0, so any assign/unassign round trip is exact.
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(1), t(0)).unwrap(); // µ(u1,e1) = 0.5, B(u1,t0) = 0
        engine.assign(e(2), t(0)).unwrap(); // µ(u1,e2) = 0.6 → M(u1) = 1.1
        engine.unassign(e(2)).unwrap();
        engine.unassign(e(1)).unwrap();
        assert_eq!(
            engine.total_utility(),
            0.0,
            "empty schedule must have exactly zero utility, no residue"
        );
        // And a fresh assignment still scores exactly as on a fresh engine.
        let mut fresh = AttendanceEngine::new(&inst);
        assert_eq!(engine.score(e(1), t(0)), fresh.score(e(1), t(0)));
    }

    #[test]
    fn unassign_restores_previous_utility() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(0)).unwrap();
        let before = engine.total_utility();
        engine.assign(e(1), t(0)).unwrap();
        let loss = engine.unassign(e(1)).unwrap();
        assert!(loss > 0.0);
        assert!(approx_eq(engine.total_utility(), before));
    }

    #[test]
    fn attendance_probability_and_expected_attendance() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        assert_eq!(engine.attendance_probability(u(0), e(0)), None);
        engine.assign(e(0), t(0)).unwrap();
        // ρ(u0, e0) = 0.8 / (0.5 + 0.8)
        let rho = engine.attendance_probability(u(0), e(0)).unwrap();
        assert!(approx_eq(rho, 0.8 / 1.3));
        // u1 has µ = 0 for e0 → ρ = 0 (denominator for u1 at t0 is 0 → 0/0 := 0).
        let rho1 = engine.attendance_probability(u(1), e(0)).unwrap();
        assert_eq!(rho1, 0.0);
        let omega = engine.expected_attendance(e(0)).unwrap();
        assert!(approx_eq(omega, 0.8 / 1.3));
        assert!(approx_eq(engine.interval_utility(t(0)), omega));
    }

    #[test]
    fn expected_reach_is_zero_on_an_empty_schedule() {
        let engine = AttendanceEngine::new(&crate::testkit::medium_instance(1));
        assert_eq!(engine.expected_reach().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn expected_reach_of_a_single_certain_attendee_is_one() {
        // e0 at t1: only u0 is interested, no competition, σ = 1 → ρ = 1.
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(1)).unwrap();
        assert_eq!(engine.expected_reach(), 1.0);
    }

    #[test]
    fn expected_reach_is_bounded_by_population_and_utility() {
        use crate::algorithms::{GreedyScheduler, Scheduler};
        for (seed, k) in [(0u64, 3usize), (5, 8), (9, 12)] {
            let inst = crate::testkit::medium_instance(seed);
            let out = GreedyScheduler::new().run(&inst, k).unwrap();
            let engine = AttendanceEngine::with_schedule(&inst, &out.schedule).unwrap();
            let reach = engine.expected_reach();
            // 1 − Π(1 − p_t) ≤ Σ p_t, so reach never exceeds Ω.
            let cap = (inst.num_users() as f64).min(engine.total_utility());
            assert!(
                reach > 0.0 && reach <= cap + 1e-9,
                "seed {seed}: {reach} > {cap}"
            );
        }
    }

    #[test]
    fn per_user_total_attendance_probability_bounded_by_sigma() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(0)).unwrap();
        engine.assign(e(1), t(0)).unwrap();
        for user in [u(0), u(1)] {
            let total: f64 = [e(0), e(1)]
                .iter()
                .map(|&ev| engine.attendance_probability(user, ev).unwrap())
                .sum();
            let sigma = inst.sigma(user, t(0));
            assert!(
                total <= sigma + 1e-12,
                "user {user}: Σρ = {total} > σ = {sigma}"
            );
        }
    }

    #[test]
    fn feasibility_checks_use_cached_state() {
        // Rebuild inst with clashing locations to exercise the engine's checker.
        let mut interest = InterestBuilder::new(1, 2, 0);
        interest.set(u(0), e(0), 0.5).unwrap();
        interest.set(u(0), e(1), 0.5).unwrap();
        let inst = SesInstance::builder()
            .organizer(Organizer::new(1.5))
            .intervals(uniform_grid(1, 10))
            .events(vec![
                CandidateEvent::new(e(0), LocationId::new(0), 1.0),
                CandidateEvent::new(e(1), LocationId::new(0), 1.0),
            ])
            .interest(interest.build().unwrap())
            .activity(Activity::constant(1, 1, 1.0).unwrap())
            .build_shared()
            .unwrap();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(0)).unwrap();
        let err = engine.assign(e(1), t(0)).unwrap_err();
        assert!(matches!(err, FeasibilityViolation::LocationConflict { .. }));
        // After unassigning, the location frees up but resources reset too.
        engine.unassign(e(0)).unwrap();
        assert!(engine.is_valid(e(1), t(0)));
        assert_eq!(engine.used_resources(t(0)), 0.0);
    }

    #[test]
    fn with_schedule_preloads_state() {
        let inst = inst();
        let mut s = inst.empty_schedule();
        s.assign(e(0), t(0)).unwrap();
        s.assign(e(2), t(1)).unwrap();
        let engine = AttendanceEngine::with_schedule(&inst, &s).unwrap();
        let eval = evaluate_schedule(&inst, &s);
        assert_eq!(
            engine.total_utility().to_bits(),
            eval.total_utility.to_bits()
        );
        assert_eq!(engine.schedule().len(), 2);
    }

    #[test]
    fn counters_track_operations() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        let before = engine.counters();
        engine.score(e(0), t(0));
        engine.assign(e(1), t(1)).unwrap(); // internal score counts too
        let c = engine.counters().delta_since(before);
        assert_eq!(c.score_evaluations, 2);
        assert_eq!(c.assigns, 1);
        assert!(c.posting_visits >= 2);
    }

    #[test]
    fn add_competing_mass_shifts_attendance_down() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(1)).unwrap(); // u0, no competition at t1 → ρ = 1
        let before = engine.total_utility();
        assert!(approx_eq(before, 1.0));
        // A rival show at t1 that u0 likes with µ = 0.8.
        engine.add_competing_mass(t(1), &[(u(0), 0.8)]);
        assert!(engine.total_utility() < before);
        // New ρ(u0, e0) = 0.8 / (0.8 + 0.8) = 0.5.
        assert!(approx_eq(engine.total_utility(), 0.5));
        assert!(approx_eq(
            engine.attendance_probability(u(0), e(0)).unwrap(),
            0.5
        ));
        // Scores seen by future assignments account for the new mass.
        let s = engine.score(e(1), t(1));
        let eval = evaluate_schedule(&inst, engine.schedule());
        // The instance-only oracle knows nothing of the dynamic event, so it
        // must now *disagree*; the rival-aware one agrees bit for bit.
        assert!(eval.total_utility > engine.total_utility());
        let rivals = [(t(1), vec![(u(0), 0.8)])];
        let aware = crate::testkit::evaluate_with_rivals(&inst, &rivals, engine.schedule());
        assert_eq!(
            aware.total_utility.to_bits(),
            engine.total_utility().to_bits()
        );
        assert!(s >= 0.0);
    }

    #[test]
    fn evaluate_from_the_index_is_the_oracle_bit_for_bit() {
        for inst in [inst(), sparse_inst(), crate::testkit::medium_instance(4)] {
            let mut engine = AttendanceEngine::new(&inst);
            for ev in (0..inst.num_events() as u32).map(e) {
                let ti = t(ev.raw() % inst.num_intervals() as u32);
                if engine.is_valid(ev, ti) {
                    engine.assign(ev, ti).unwrap();
                }
                let oracle = evaluate_schedule(&inst, engine.schedule());
                assert_eq!(evaluate(&inst, engine.schedule()), oracle);
                assert_eq!(
                    engine.total_utility().to_bits(),
                    oracle.total_utility.to_bits()
                );
            }
        }
    }

    #[test]
    fn add_competing_mass_for_uninterested_users_is_free() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(0)).unwrap();
        let before = engine.total_utility();
        // u1 has no interest in e0; extra competition for u1 changes nothing.
        engine.add_competing_mass(t(0), &[(u(1), 0.9)]);
        assert_eq!(engine.total_utility(), before);
    }

    #[test]
    fn add_competing_mass_skips_users_outside_the_slot_index() {
        // Users without a candidate posting get no slot — u1 is interested
        // only in a competing event (its static B must be silently dropped
        // at construction), u2 posts nothing at all. Mass aimed at either
        // (or at an out-of-universe id) must be a no-op, not a panic.
        use crate::ids::CompetingEventId;
        use crate::model::CompetingEvent;
        let mut interest = InterestBuilder::new(3, 1, 1);
        interest.set(u(0), e(0), 0.5).unwrap();
        interest.set(u(1), CompetingEventId::new(0), 0.9).unwrap();
        let inst = SesInstance::builder()
            .organizer(Organizer::new(5.0))
            .intervals(uniform_grid(1, 10))
            .events(vec![CandidateEvent::new(e(0), LocationId::new(0), 1.0)])
            .competing(vec![CompetingEvent::new(
                CompetingEventId::new(0),
                IntervalId::new(0),
            )])
            .interest(interest.build().unwrap())
            .activity(Activity::constant(3, 1, 1.0).unwrap())
            .build_shared()
            .unwrap();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(0)).unwrap();
        let before = engine.total_utility();
        engine.add_competing_mass(t(0), &[(u(1), 0.7), (u(2), 0.3)]);
        assert_eq!(engine.total_utility(), before);
        // Mixed postings still apply the indexed user's share.
        engine.add_competing_mass(t(0), &[(u(1), 0.7), (u(0), 0.5)]);
        assert!(engine.total_utility() < before);
    }

    #[test]
    fn generations_track_column_mutations_only() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        assert_eq!(engine.clock(), 0);
        assert_eq!(engine.interval_generation(t(0)), 0);
        assert!(engine.dirty_intervals(0).is_empty());

        // assign bumps the assigned interval, nothing else.
        engine.assign(e(0), t(0)).unwrap();
        let c1 = engine.clock();
        assert!(c1 > 0);
        assert_eq!(engine.interval_generation(t(0)), c1);
        assert_eq!(engine.interval_generation(t(1)), 0);
        assert_eq!(engine.dirty_intervals(0), vec![t(0)]);

        // Scores and snapshots after the bump see a clean world again.
        let snap = engine.clock();
        assert!(engine.dirty_intervals(snap).is_empty());

        // unassign bumps the vacated interval.
        engine.unassign(e(0)).unwrap();
        assert_eq!(engine.dirty_intervals(snap), vec![t(0)]);
        assert!(engine.clock() > snap);

        // Two intervals mutate → both report dirty, ascending order.
        let snap = engine.clock();
        engine.assign(e(2), t(1)).unwrap();
        engine.assign(e(0), t(0)).unwrap();
        assert_eq!(engine.dirty_intervals(snap), vec![t(0), t(1)]);
    }

    #[test]
    fn competing_mass_dirties_only_on_landed_postings() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        let snap = engine.clock();
        // u0 is indexed: the injection lands and dirties t1.
        engine.add_competing_mass(t(1), &[(u(0), 0.4)]);
        assert_eq!(engine.dirty_intervals(snap), vec![t(1)]);

        // An injection entirely outside the slot index leaves every column
        // bit-identical, so the interval must stay clean.
        let snap = engine.clock();
        engine.add_competing_mass(t(0), &[(UserId::new(999), 0.7)]);
        assert!(engine.dirty_intervals(snap).is_empty());
        assert_eq!(engine.clock(), snap);
    }

    #[test]
    fn rescore_event_at_returns_score_and_valid_generation() {
        let inst = inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(0)).unwrap();
        let (score, generation) = engine.rescore_event_at(e(1), t(0));
        assert_eq!(score.to_bits(), engine.score(e(1), t(0)).to_bits());
        assert_eq!(generation, engine.interval_generation(t(0)));
        // A later mutation of the interval invalidates the tag.
        engine.assign(e(1), t(0)).unwrap();
        assert!(engine.interval_generation(t(0)) > generation);
    }

    #[test]
    fn evaluate_schedule_reports_per_event() {
        let inst = inst();
        let mut s = inst.empty_schedule();
        s.assign(e(0), t(0)).unwrap();
        s.assign(e(1), t(0)).unwrap();
        let eval = evaluate_schedule(&inst, &s);
        assert_eq!(eval.per_event.len(), 2);
        let total: f64 = eval.per_event.iter().map(|(_, _, w)| w).sum();
        assert!(approx_eq(total, eval.total_utility));
        // Greater utility than scheduling e0 alone (score non-negativity).
        let mut s1 = inst.empty_schedule();
        s1.assign(e(0), t(0)).unwrap();
        assert!(approx_ge(
            eval.total_utility,
            evaluate_schedule(&inst, &s1).total_utility
        ));
    }

    #[test]
    fn sparse_columns_match_oracle_bitwise() {
        // Partial columns on both intervals; the incremental engine must
        // agree with the hash-map oracle *bitwise*, per event and in total.
        let inst = sparse_inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(0)).unwrap();
        engine.assign(e(1), t(0)).unwrap();
        let eval = evaluate_schedule(&inst, engine.schedule());
        for &(ev, _, omega) in &eval.per_event {
            let engine_omega = engine.expected_attendance(ev).unwrap();
            assert_eq!(engine_omega.to_bits(), omega.to_bits(), "event {ev}");
        }
        assert_eq!(
            engine.total_utility().to_bits(),
            eval.total_utility.to_bits()
        );
        // Move an event across intervals; agreement must survive mutation.
        engine.unassign(e(1)).unwrap();
        engine.assign(e(1), t(1)).unwrap();
        let eval = evaluate_schedule(&inst, engine.schedule());
        assert_eq!(
            engine.total_utility().to_bits(),
            eval.total_utility.to_bits()
        );
        // Round-trip back to empty is an exact zero (the re-fold).
        engine.unassign(e(0)).unwrap();
        engine.unassign(e(1)).unwrap();
        assert_eq!(engine.total_utility(), 0.0);
    }

    #[test]
    fn sparse_posting_visits_never_exceed_posting_lists() {
        let inst = sparse_inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.score_all(e(0));
        engine.score_all(e(1));
        // Dense layout would visit |postings| per (event, interval): 3+2
        // postings × 2 intervals = 10. Sparse runs drop the σ = 0 entries.
        let c = engine.counters();
        assert!(
            c.posting_visits < 10,
            "sparse visits {} must be under the dense 10",
            c.posting_visits
        );
        // e0 at t0 sees u0,u1 (u2 sleeps) = 2; at t1 sees u1,u2 (u0 sleeps) = 2.
        // e1 at t0 sees u1 (u2 sleeps) = 1; at t1 sees u1,u2 = 2. Total 7.
        assert_eq!(c.posting_visits, 7);
    }

    #[test]
    fn sparse_attendance_probability_zeroes_inactive_users() {
        let inst = sparse_inst();
        let mut engine = AttendanceEngine::new(&inst);
        engine.assign(e(0), t(1)).unwrap();
        // u0 is interested in e0 but inactive at t1 → ρ = 0 exactly.
        assert_eq!(engine.attendance_probability(u(0), e(0)), Some(0.0));
        // u1 is active at t1 and alone in e0's denominator there.
        let rho = engine.attendance_probability(u(1), e(0)).unwrap();
        assert!(rho > 0.0);
    }

    #[test]
    fn memory_stats_report_sub_dense_residency() {
        let sparse = sparse_inst();
        let engine = AttendanceEngine::new(&sparse);
        let m = engine.memory_stats();
        // 3 indexed users × 2 intervals = 6 dense slots; 2 σ-holes → 4.
        assert_eq!(m.dense_slots, 6);
        assert_eq!(m.column_slots, 4);
        assert!(m.resident_column_bytes > 0);
        assert!(m.run_bytes > 0, "partial columns need run storage");
        assert!(m.build_millis >= 0.0);
        assert_eq!(
            m.total_resident_bytes(),
            m.resident_column_bytes + m.run_bytes
        );

        // A fully dense instance keeps column_slots == dense_slots and pays
        // zero run bytes (runs alias the shared posting lists).
        let dense_inst = inst();
        let dense = AttendanceEngine::new(&dense_inst);
        let dm = dense.memory_stats();
        assert_eq!(dm.column_slots, dm.dense_slots);
        assert_eq!(dm.run_bytes, 0);

        // Merge accumulates (the server's per-shard session totals).
        let mut sum = m;
        sum.merge(&dm);
        assert_eq!(sum.column_slots, m.column_slots + dm.column_slots);
        assert_eq!(
            sum.resident_column_bytes,
            m.resident_column_bytes + dm.resident_column_bytes
        );
    }

    #[test]
    fn opening_scores_are_served_only_at_clock_zero() {
        let inst = sparse_inst();
        let nt = inst.num_intervals();
        let pairs = || (0..2u32).flat_map(|ev| (0..2u32).map(move |ti| (e(ev), t(ti))));
        let mut first = AttendanceEngine::new(&inst);
        let (filled, served) = first.score_every_pair();
        assert!(!served, "the first sweep computes the opening scores");

        // A second engine at clock 0 is served the same scores and counts
        // the sweep it stands for.
        let mut second = AttendanceEngine::new(&inst);
        let (cached, served) = second.score_every_pair();
        assert!(served && Arc::ptr_eq(&filled, &cached));
        assert_eq!(second.counters(), first.counters());

        // Clock > 0 after an assign: scored afresh against the moved column.
        let mut moved = AttendanceEngine::new(&inst);
        moved.assign(e(1), t(0)).unwrap();
        assert!(moved.clock() > 0);
        let (scores, served) = moved.score_every_pair();
        assert!(!served && !Arc::ptr_eq(&scores, &filled));
        for (ev, ti) in pairs() {
            let i = ev.index() * nt + ti.index();
            assert_eq!(scores[i].to_bits(), moved.score(ev, ti).to_bits());
        }
        assert_ne!(scores[0].to_bits(), filled[0].to_bits(), "e0 → t0 moved");

        // Clock > 0 after landed competing mass: the engine scores against
        // its own copy of B, and the index's B stays untouched.
        let mut rival = AttendanceEngine::new(&inst);
        let shared = rival.memory_stats().state_bytes;
        rival.add_competing_mass(t(0), &[(u(0), 0.5)]);
        assert!(rival.clock() > 0);
        assert!(rival.memory_stats().state_bytes > shared, "B is copied");
        let (scores, served) = rival.score_every_pair();
        assert!(!served);
        assert_ne!(scores[0].to_bits(), filled[0].to_bits());
        let mut fresh = AttendanceEngine::new(&inst);
        for (ev, ti) in pairs() {
            let i = ev.index() * nt + ti.index();
            assert_eq!(fresh.score(ev, ti).to_bits(), filled[i].to_bits());
        }
    }

    #[test]
    fn assign_with_fully_inactive_postings_keeps_generation_clean() {
        // Event e0's only fan (u0) sleeps at t1 in this universe: assigning
        // e0 → t1 moves no mass, so the generation must stay put, and the
        // empty run scores exactly zero.
        let mut interest = InterestBuilder::new(2, 1, 0);
        interest.set(u(0), e(0), 0.7).unwrap();
        let inst = SesInstance::builder()
            .organizer(Organizer::new(5.0))
            .intervals(uniform_grid(2, 10))
            .events(vec![CandidateEvent::new(e(0), LocationId::new(0), 1.0)])
            .interest(interest.build().unwrap())
            .activity(Activity::from_rows(vec![vec![0.8, 0.0], vec![0.0, 0.0]]).unwrap())
            .build_shared()
            .unwrap();
        let mut engine = AttendanceEngine::new(&inst);
        assert_eq!(engine.score(e(0), t(1)), 0.0);
        engine.assign(e(0), t(1)).unwrap();
        assert_eq!(engine.clock(), 0, "no column mutated, clock must not move");
        assert_eq!(engine.total_utility(), 0.0);
        assert_eq!(engine.expected_attendance(e(0)), Some(0.0));
        engine.unassign(e(0)).unwrap();
        assert_eq!(engine.clock(), 0);
        // The same event at the active interval does move the clock.
        engine.assign(e(0), t(0)).unwrap();
        assert!(engine.clock() > 0);
    }
}
