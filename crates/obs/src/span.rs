//! Lock-free per-thread span recording.
//!
//! Every instrumented thread owns one bounded [`SpanRing`]: a fixed array
//! of slots, each a handful of `AtomicU64`s guarded by a per-slot sequence
//! counter (a seqlock). Exactly one thread ever *writes* a given ring — the
//! thread that owns it — so writes need no CAS loops and no locks: bump the
//! sequence to odd, store the fields, bump it back to even. Any thread may
//! *read* concurrently ([`collect_trace`]) and discards slots whose
//! sequence changed mid-read. The ring is preallocated at creation and
//! never grows, so steady-state recording allocates nothing; when it wraps,
//! the oldest spans are silently evicted (a `/trace/{id}` miss, never a
//! stall).
//!
//! Spans are attributed to the thread-local *current trace*
//! ([`trace_scope`]) at record time, and carry an engine-operation delta
//! ([`OpsDelta`]) plus two stage-specific auxiliary counters (e.g. CELF
//! pops / lazy re-validations for `select` spans, queue depth for `queue`
//! spans).

use crate::hist::Histogram;
use crate::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use crate::trace::TraceId;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The instrumented pipeline stages, socket to Eq. 4 kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Whole HTTP request on the connection handler (read → route → write).
    Request = 0,
    /// Reading and framing the request body.
    Parse = 1,
    /// Time spent queued between shard dispatch and shard pickup
    /// (`aux_a` = queue depth at enqueue), or waiting for a server solver
    /// permit (`aux_a` = permits held on arrival).
    Queue = 2,
    /// Shard-side handling of one operation (`aux_a` = shard index).
    Service = 3,
    /// One full offline solve inside the service.
    Solve = 4,
    /// The initial E×T scoring sweep (Alg. 1 lines 2–4; `aux_a` = rows
    /// scored, `aux_b` = 1 when the instance's engine index served the
    /// scores instead of computing them).
    Sweep = 5,
    /// The greedy selection loop (`aux_a` = pops, `aux_b` = rescores /
    /// lazy re-validations).
    Select = 6,
    /// Applying one session event inside the service
    /// (`aux_a` = repair moves).
    Apply = 7,
    /// One online repair pass (`aux_a` = repair moves).
    Repair = 8,
    /// Dirty-interval rescoring of one cached score row.
    Rescore = 9,
    /// Serializing and writing the HTTP response.
    Respond = 10,
    /// Appending one record batch to the durability WAL
    /// (`aux_a` = bytes appended, `aux_b` = 1 if the append fsynced).
    Wal = 11,
    /// Replaying one session's snapshot + WAL tail at boot or migration
    /// (`aux_a` = events replayed).
    Recover = 12,
    /// Loading a problem before an offline solve: dataset decode plus
    /// instance build, or a `.sesstore` open. A sibling of [`Stage::Solve`].
    Load = 13,
    /// Building one attendance engine (`aux_a` = run entries, `aux_b` =
    /// column slots): its own state, plus — for the instance's first
    /// engine only — the shared engine index, as [`Stage::Index`],
    /// [`Stage::Columns`] and [`Stage::Runs`] children. Nested inside
    /// [`Stage::Solve`] for offline solves.
    Build = 14,
    /// Building an engine index's σ-columns and competing mass, inside
    /// [`Stage::Build`] (`aux_a` = column slots, `aux_b` = slots in
    /// partial columns).
    Columns = 15,
    /// Resolving an engine index's posting runs, inside [`Stage::Build`]
    /// (`aux_a` = run entries, `aux_b` = workers, `0` when every column
    /// is full and nothing is resolved).
    Runs = 16,
    /// Computing one schedule's quality report after an offline solve:
    /// its engine's `build` and solo-score `sweep`, attendances and reach.
    /// A sibling of [`Stage::Load`] and [`Stage::Solve`].
    Report = 17,
    /// Indexing an instance's users and resolving its candidate postings to
    /// slot ranks, inside [`Stage::Build`] before [`Stage::Columns`]
    /// (`aux_a` = indexed users, `aux_b` = resolved postings).
    Index = 18,
}

/// All stages, indexed by discriminant (pipeline order, with later
/// additions appended).
pub const STAGES: [Stage; 19] = [
    Stage::Request,
    Stage::Parse,
    Stage::Queue,
    Stage::Service,
    Stage::Solve,
    Stage::Sweep,
    Stage::Select,
    Stage::Apply,
    Stage::Repair,
    Stage::Rescore,
    Stage::Respond,
    Stage::Wal,
    Stage::Recover,
    Stage::Load,
    Stage::Build,
    Stage::Columns,
    Stage::Runs,
    Stage::Report,
    Stage::Index,
];

impl Stage {
    /// Stable lower-case label used in reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Service => "service",
            Stage::Solve => "solve",
            Stage::Sweep => "sweep",
            Stage::Select => "select",
            Stage::Apply => "apply",
            Stage::Repair => "repair",
            Stage::Rescore => "rescore",
            Stage::Respond => "respond",
            Stage::Wal => "wal",
            Stage::Recover => "recover",
            Stage::Load => "load",
            Stage::Build => "build",
            Stage::Columns => "columns",
            Stage::Runs => "runs",
            Stage::Report => "report",
            Stage::Index => "index",
        }
    }

    fn from_index(idx: u64) -> Option<Stage> {
        STAGES.get(idx as usize).copied()
    }
}

/// An engine-operation delta attributed to one span — the same four
/// hardware-independent counters `ses-core` tracks, carried as plain
/// numbers so `ses-obs` stays a leaf crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpsDelta {
    /// Eq. 4 score evaluations.
    pub score_evaluations: u64,
    /// Posting-list entries visited.
    pub posting_visits: u64,
    /// Assignments committed.
    pub assigns: u64,
    /// Assignments retracted.
    pub unassigns: u64,
}

impl OpsDelta {
    /// Packs into the ring's fixed-width representation.
    pub fn to_array(self) -> [u64; 4] {
        [
            self.score_evaluations,
            self.posting_visits,
            self.assigns,
            self.unassigns,
        ]
    }

    /// Unpacks the ring's fixed-width representation.
    pub fn from_array(a: [u64; 4]) -> Self {
        Self {
            score_evaluations: a[0],
            posting_visits: a[1],
            assigns: a[2],
            unassigns: a[3],
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(self) -> bool {
        self.to_array() == [0; 4]
    }
}

/// One decoded span, as read back out of a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to (never zero in decoded records).
    pub trace: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Start, in nanoseconds since the process-wide epoch ([`now_ns`]).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Engine work attributed to this span.
    pub ops: OpsDelta,
    /// Stage-specific auxiliary counters (see [`Stage`] docs).
    pub aux: [u64; 2],
    /// Name of the thread that recorded it.
    pub thread: String,
}

impl SpanRecord {
    /// End of the span, nanoseconds since the epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// One seqlock-guarded slot. Only the owning thread writes; the sequence
/// counter is odd while a write is in flight.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    stage: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    ops: [AtomicU64; 4],
    aux: [AtomicU64; 2],
}

/// A bounded single-writer many-reader span ring for one thread.
pub struct SpanRing {
    thread: String,
    slots: Box<[Slot]>,
    /// Total spans ever recorded; `head % capacity` is the next slot.
    head: AtomicU64,
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("thread", &self.thread)
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl SpanRing {
    pub(crate) fn new(thread: String, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            thread,
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Fixed slot count (never changes after creation).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever recorded (monotone; `recorded - capacity` oldest
    /// ones have been evicted by wrapping).
    ///
    /// The `Relaxed` load (here and in `Debug`) is deliberate: `head` is
    /// written by one thread and monotone, and no reader derives slot
    /// *validity* from it — `snapshot` only uses it to size its `Vec`,
    /// while per-slot correctness rests entirely on the `seq` protocol. A
    /// stale value can at worst under-reserve the allocation. Pinned by
    /// `model_tests::model_head_relaxed_is_a_safe_capacity_hint`.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Writes one span. Must only be called from the ring's owning thread
    /// (enforced by the module API: rings are reachable for writing only
    /// through the thread-local handle; `pub(crate)` so the model-check
    /// suite can drive the protocol directly).
    pub(crate) fn record(
        &self,
        trace: u64,
        stage: Stage,
        start_ns: u64,
        dur_ns: u64,
        ops: [u64; 4],
        aux: [u64; 2],
    ) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::Relaxed); // odd: write in flight
        fence(Ordering::Release);
        slot.trace.store(trace, Ordering::Relaxed);
        slot.stage.store(stage as u64, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        for (cell, v) in slot.ops.iter().zip(ops) {
            cell.store(v, Ordering::Relaxed);
        }
        for (cell, v) in slot.aux.iter().zip(aux) {
            cell.store(v, Ordering::Relaxed);
        }
        slot.seq.store(seq.wrapping_add(2), Ordering::Release); // even: published
        self.head.store(head + 1, Ordering::Release);
    }

    /// Reads every published slot (skipping slots a concurrent write tears).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let filled = self.recorded().min(self.slots.len() as u64) as usize;
        let mut out = Vec::with_capacity(filled);
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue; // never written, or a write is in flight
            }
            let trace = slot.trace.load(Ordering::Relaxed);
            let stage = slot.stage.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            let ops = [
                slot.ops[0].load(Ordering::Relaxed),
                slot.ops[1].load(Ordering::Relaxed),
                slot.ops[2].load(Ordering::Relaxed),
                slot.ops[3].load(Ordering::Relaxed),
            ];
            let aux = [
                slot.aux[0].load(Ordering::Relaxed),
                slot.aux[1].load(Ordering::Relaxed),
            ];
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn read: the writer lapped us — drop the slot
            }
            let Some(stage) = Stage::from_index(stage) else {
                continue;
            };
            if trace == 0 {
                continue; // untraced span: feeds histograms only
            }
            out.push(SpanRecord {
                trace,
                stage,
                start_ns,
                dur_ns,
                ops: OpsDelta::from_array(ops),
                aux,
                thread: self.thread.clone(),
            });
        }
        out
    }
}

/// Default per-thread ring capacity (slots). A server connection thread
/// records every span of its requests — session ops' engine spans
/// included — so its ring must hold a load burst's worth of them.
const DEFAULT_RING_CAPACITY: usize = 16384;

static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Sets the capacity used for rings created *after* this call (existing
/// rings keep their size). Intended for tests that exercise eviction with
/// tiny rings; production uses the 16384-slot default.
pub fn set_default_ring_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

/// Every ring ever created, for cross-thread trace collection. Rings of
/// exited threads stay registered (about 1.4 MiB per thread at the
/// default capacity) — thread pools here are created once per process, so
/// this never accumulates.
fn registry() -> &'static Mutex<Vec<Arc<SpanRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<SpanRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD_RING: RefCell<Option<Arc<SpanRing>>> = const { RefCell::new(None) };
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's ring, created and registered on first use.
fn thread_ring() -> Arc<SpanRing> {
    THREAD_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some(ring) = slot.as_ref() {
            return Arc::clone(ring);
        }
        let name = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_owned();
        let ring = Arc::new(SpanRing::new(name, RING_CAPACITY.load(Ordering::Relaxed)));
        registry()
            .lock()
            .expect("span registry")
            .push(Arc::clone(&ring));
        *slot = Some(Arc::clone(&ring));
        ring
    })
}

/// Capacity and total-recorded count of the calling thread's ring (the
/// zero-allocation-steady-state property test watches these).
pub fn thread_ring_stats() -> (usize, u64) {
    let ring = thread_ring();
    (ring.capacity(), ring.recorded())
}

/// The process-wide monotonic epoch: nanoseconds since the first call.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The trace id spans on this thread are currently attributed to.
pub fn current_trace() -> Option<TraceId> {
    TraceId::from_raw(CURRENT_TRACE.with(|c| c.get()))
}

/// Scope guard restoring the previous thread-local trace id on drop.
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

/// Attributes spans recorded on this thread to `id` until the returned
/// guard drops (nesting restores the outer trace).
pub fn trace_scope(id: TraceId) -> TraceScope {
    let prev = CURRENT_TRACE.with(|c| c.replace(id.raw()));
    TraceScope { prev }
}

/// Per-stage duration histograms feeding the `/metrics` stage lines.
fn stage_histograms() -> &'static [Histogram; STAGES.len()] {
    static HISTS: OnceLock<[Histogram; STAGES.len()]> = OnceLock::new();
    HISTS.get_or_init(|| std::array::from_fn(|_| Histogram::new()))
}

/// Records one finished span on the calling thread's ring, attributed to
/// the thread-local current trace, and feeds the stage histogram. This is
/// the raw entry point [`SpanGuard`] uses; call it directly when the span's
/// start/duration were measured elsewhere (e.g. queue time measured across
/// threads from an enqueue timestamp).
pub fn record_span(stage: Stage, start_ns: u64, dur_ns: u64, ops: OpsDelta, aux: [u64; 2]) {
    let trace = CURRENT_TRACE.with(|c| c.get());
    thread_ring().record(trace, stage, start_ns, dur_ns, ops.to_array(), aux);
    stage_histograms()[stage as usize].record(dur_ns / 1_000);
}

/// A per-stage latency line for the `/metrics` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLatency {
    /// Stage label (`queue`, `service`, `select`, …).
    pub stage: String,
    /// Spans recorded.
    pub count: u64,
    /// Mean duration (µs).
    pub mean_micros: f64,
    /// Median duration (µs, log-bucket lower bound).
    pub p50_micros: u64,
    /// 95th-percentile duration (µs).
    pub p95_micros: u64,
    /// 99th-percentile duration (µs).
    pub p99_micros: u64,
    /// Worst observed duration (µs, exact).
    pub max_micros: u64,
}

/// Per-stage p50/p95/p99 duration lines, pipeline order, stages with no
/// spans omitted. Process-wide (accumulated since start, across traces).
pub fn stage_latencies() -> Vec<StageLatency> {
    STAGES
        .iter()
        .filter_map(|&stage| {
            let snap = stage_histograms()[stage as usize].snapshot();
            (snap.count > 0).then(|| StageLatency {
                stage: stage.label().to_owned(),
                count: snap.count,
                mean_micros: snap.mean(),
                p50_micros: snap.quantile(0.50),
                p95_micros: snap.quantile(0.95),
                p99_micros: snap.quantile(0.99),
                max_micros: snap.max,
            })
        })
        .collect()
}

/// All recorded spans of one trace, across every thread's ring, sorted by
/// start time (ties: longer span first, so parents precede children).
/// Empty when the trace was never recorded or its spans were evicted.
pub fn collect_trace(id: TraceId) -> Vec<SpanRecord> {
    let rings: Vec<Arc<SpanRing>> = registry().lock().expect("span registry").clone();
    let mut spans: Vec<SpanRecord> = rings
        .iter()
        .flat_map(|r| r.snapshot())
        .filter(|s| s.trace == id.raw())
        .collect();
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then_with(|| b.dur_ns.cmp(&a.dur_ns))
    });
    spans
}

/// An in-flight span: measures from construction to drop, recording into
/// the owning thread's ring. Attach engine-counter deltas and auxiliary
/// values before it drops.
#[derive(Debug)]
pub struct SpanGuard {
    stage: Stage,
    start_ns: u64,
    ops: OpsDelta,
    aux: [u64; 2],
}

impl SpanGuard {
    /// Attributes an engine-operation delta to this span.
    pub fn set_ops(&mut self, ops: OpsDelta) {
        self.ops = ops;
    }

    /// Sets the stage-specific auxiliary counters.
    pub fn set_aux(&mut self, a: u64, b: u64) {
        self.aux = [a, b];
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = now_ns().saturating_sub(self.start_ns);
        record_span(self.stage, self.start_ns, dur, self.ops, self.aux);
    }
}

/// Starts a span at the current instant; it records when dropped (panic
/// included, so timelines stay complete on error paths).
pub fn span(stage: Stage) -> SpanGuard {
    SpanGuard {
        stage,
        start_ns: now_ns(),
        ops: OpsDelta::default(),
        aux: [0; 2],
    }
}

/// Renders a trace's spans as an indented text tree with per-span counter
/// deltas — shared by `ses solve --trace`, `ses simulate --trace` and the
/// server's slow-request log.
pub fn format_trace(id: TraceId, spans: &[SpanRecord]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    if spans.is_empty() {
        let _ = writeln!(out, "trace {id}: no recorded spans (evicted or unknown)");
        return out;
    }
    let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let total = spans
        .iter()
        .map(|s| s.end_ns())
        .max()
        .unwrap_or(origin)
        .saturating_sub(origin);
    let _ = writeln!(
        out,
        "trace {id} — {} spans, {:.3} ms",
        spans.len(),
        total as f64 / 1e6
    );
    // Spans arrive sorted by (start asc, duration desc); a stack of open
    // end-times yields the nesting depth.
    let mut open: Vec<u64> = Vec::new();
    for s in spans {
        while open.last().is_some_and(|&end| end <= s.start_ns) {
            open.pop();
        }
        let _ = write!(
            out,
            "  {:>10.3} ms  {}{:<8} {:>10.3} ms",
            (s.start_ns - origin) as f64 / 1e6,
            "  ".repeat(open.len()),
            s.stage.label(),
            s.dur_ns as f64 / 1e6,
        );
        if !s.ops.is_zero() {
            let _ = write!(
                out,
                "  evals={} visits={} assigns={} unassigns={}",
                s.ops.score_evaluations, s.ops.posting_visits, s.ops.assigns, s.ops.unassigns
            );
        }
        if s.aux != [0; 2] {
            let _ = write!(out, "  aux={}/{}", s.aux[0], s.aux[1]);
        }
        let _ = writeln!(out, "  [{}]", s.thread);
        open.push(s.end_ns());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_attach_to_the_scoped_trace() {
        let id = TraceId::generate();
        {
            let _scope = trace_scope(id);
            let mut g = span(Stage::Solve);
            g.set_ops(OpsDelta {
                score_evaluations: 48_000,
                posting_visits: 7,
                assigns: 3,
                unassigns: 1,
            });
            g.set_aux(5, 2);
        }
        let spans = collect_trace(id);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, Stage::Solve);
        assert_eq!(spans[0].ops.score_evaluations, 48_000);
        assert_eq!(spans[0].aux, [5, 2]);
        assert!(current_trace().is_none(), "scope restored on drop");
    }

    #[test]
    fn nested_scopes_restore_the_outer_trace() {
        let outer = TraceId::generate();
        let inner = TraceId::generate();
        let _a = trace_scope(outer);
        {
            let _b = trace_scope(inner);
            assert_eq!(current_trace(), Some(inner));
        }
        assert_eq!(current_trace(), Some(outer));
    }

    #[test]
    fn ring_wraps_without_growing() {
        // Rings are per-thread: run in a dedicated thread so the tiny
        // capacity set here cannot leak into other tests' rings.
        std::thread::spawn(|| {
            set_default_ring_capacity(8);
            let id = TraceId::generate();
            let _scope = trace_scope(id);
            let (cap0, _) = thread_ring_stats();
            assert_eq!(cap0, 8);
            for _ in 0..100 {
                drop(span(Stage::Rescore));
            }
            let (cap, recorded) = thread_ring_stats();
            assert_eq!(cap, 8, "ring must never grow");
            assert_eq!(recorded, 100);
            assert!(collect_trace(id).len() <= 8, "old spans evicted");
            set_default_ring_capacity(DEFAULT_RING_CAPACITY);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn collect_trace_spans_cross_threads() {
        let id = TraceId::generate();
        let raw = id; // Copy
        std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(move || {
                let _scope = trace_scope(raw);
                drop(span(Stage::Service));
            })
            .unwrap()
            .join()
            .unwrap();
        {
            let _scope = trace_scope(id);
            drop(span(Stage::Request));
        }
        let spans = collect_trace(id);
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.thread == "obs-test-worker"));
    }

    #[test]
    fn format_trace_nests_contained_spans() {
        let id = TraceId::generate();
        let spans = vec![
            SpanRecord {
                trace: id.raw(),
                stage: Stage::Request,
                start_ns: 0,
                dur_ns: 1_000_000,
                ops: OpsDelta::default(),
                aux: [0; 2],
                thread: "t".into(),
            },
            SpanRecord {
                trace: id.raw(),
                stage: Stage::Solve,
                start_ns: 100,
                dur_ns: 500,
                ops: OpsDelta {
                    score_evaluations: 9,
                    ..OpsDelta::default()
                },
                aux: [0; 2],
                thread: "t".into(),
            },
        ];
        let text = format_trace(id, &spans);
        assert!(text.contains("request"));
        assert!(text.contains("  solve"), "child span is indented");
        assert!(text.contains("evals=9"));
        assert!(format_trace(id, &[]).contains("no recorded spans"));
    }

    #[test]
    fn stages_are_indexed_by_discriminant_with_unique_labels() {
        assert_eq!(STAGES.len(), 19);
        for (i, &stage) in STAGES.iter().enumerate() {
            assert_eq!(stage as usize, i);
            assert_eq!(Stage::from_index(i as u64), Some(stage));
        }
        let labels: std::collections::BTreeSet<_> = STAGES.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), STAGES.len());
        assert_eq!(Stage::Columns.label(), "columns");
        assert_eq!(Stage::Runs.label(), "runs");
        assert_eq!(Stage::Report.label(), "report");
        assert_eq!(Stage::Index.label(), "index");
    }

    #[test]
    fn stage_latencies_report_recorded_stages() {
        record_span(
            Stage::Respond,
            now_ns(),
            5_000_000,
            OpsDelta::default(),
            [0; 2],
        );
        let lines = stage_latencies();
        let respond = lines.iter().find(|l| l.stage == "respond").unwrap();
        assert!(respond.count >= 1);
        assert!(respond.max_micros >= 5_000);
    }
}
