//! The discrete-event simulator: merges scenario streams on a time-ordered
//! event queue and replays them against a named session of a
//! [`SchedulerService`], recording a trace and throughput counters.
//!
//! The simulator never touches an [`OnlineSession`] mutably — every
//! disruption is converted to a [`ses_service::SessionEvent`] and applied
//! through [`SchedulerService::apply`], the same request path the CLI and
//! any server front end use. What the simulator measures is therefore the
//! serving stack, not a private shortcut around it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use serde::Serialize;
use ses_core::{EngineCounters, EventId, OnlineSession, RepairReport};
use ses_service::{Availability, InstanceName, SchedulerService, ServiceError, SessionEvent};

use crate::disruption::{Disruption, DisruptionKind, TimedDisruption};
use crate::scenario::{Scenario, SimView};
use crate::trace::{Trace, TraceRecord};

/// One queued disruption. Ordered by `(at, seq)`; `seq` is a global
/// admission counter, so simultaneous events apply in admission order and
/// the whole run is deterministic.
struct Pending {
    at: u64,
    seq: u64,
    source: usize,
    disruption: Disruption,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// End-of-run report.
///
/// Serializes for `--format json` front ends; the wall-clock [`Duration`]
/// is skipped (report `events_per_sec` / recompute milliseconds from it
/// before serializing if needed).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimSummary {
    /// Disruptions taken off the queue.
    pub steps: u64,
    /// Disruptions that changed session state.
    pub applied: u64,
    /// Disruptions that were inert (cancel of an unscheduled event, …).
    pub skipped: u64,
    /// Disruptions the service *rejected* (out-of-universe references, bad
    /// values) — always 0 for well-formed scenarios. Counted inside
    /// `skipped`, but broken out so a buggy scenario cannot hide behind
    /// ordinary inert steps.
    pub rejected: u64,
    /// Simulation tick of the last disruption.
    pub final_tick: u64,
    /// Utility Ω when the run ended.
    pub final_utility: f64,
    /// Schedule size when the run ended.
    pub final_scheduled: usize,
    /// Total events moved or added by repairs.
    pub total_moves: u64,
    /// Σ `recovered()` over all repairs — utility the repair loop clawed back.
    pub total_recovered: f64,
    /// Engine operation counters accumulated during the run (deltas).
    pub counters: EngineCounters,
    /// Wall-clock duration of the run.
    #[serde(skip)]
    pub elapsed: Duration,
    /// Disruptions processed per wall-clock second.
    pub events_per_sec: f64,
    /// Determinism digest of the trace (see [`Trace::digest`]).
    pub digest: u64,
}

/// The session name [`Simulator::new`] opens in its internal service.
pub const DEFAULT_SESSION: &str = "sim";

/// A discrete-event simulation binding scenario streams to a named service
/// session.
pub struct Simulator {
    service: SchedulerService,
    name: String,
    sources: Vec<Box<dyn Scenario>>,
    primed: Vec<bool>,
    queue: BinaryHeap<Pending>,
    clock: u64,
    seq: u64,
    steps_done: u64,
    rejected: u64,
    trace: Trace,
    /// When set, every disruption taken off the queue is also appended
    /// here (in apply order, with its tick) so the exact stream can be
    /// replayed through another front end — e.g. over a network server —
    /// and the two traces compared digest-for-digest.
    recording: Option<Vec<TimedDisruption>>,
}

impl Simulator {
    /// Builds a simulator over `session` driven by `sources`, adopting the
    /// session into a fresh internal service as [`DEFAULT_SESSION`].
    pub fn new(session: OnlineSession, sources: Vec<Box<dyn Scenario>>) -> Self {
        let mut service = SchedulerService::new();
        service
            .adopt_session(DEFAULT_SESSION, InstanceName::default(), session)
            .expect("fresh service has no sessions");
        Self::over_service(service, DEFAULT_SESSION, sources)
            .expect("session was just adopted under this name")
    }

    /// Builds a simulator over an already open session of an existing
    /// service — the path drivers take when the session was opened through
    /// the service API ([`ses_service::SessionOpen`]). Fails if no session
    /// with that name is open.
    pub fn over_service(
        service: SchedulerService,
        name: impl Into<String>,
        sources: Vec<Box<dyn Scenario>>,
    ) -> Result<Self, ServiceError> {
        let name = name.into();
        if service.session(&name).is_none() {
            return Err(ServiceError::UnknownSession(name));
        }
        let n = sources.len();
        Ok(Self {
            service,
            name,
            sources,
            primed: vec![false; n],
            queue: BinaryHeap::new(),
            clock: 0,
            seq: 0,
            steps_done: 0,
            rejected: 0,
            trace: Trace::new(),
            recording: None,
        })
    }

    /// Starts (or stops) recording the applied disruption stream. Recorded
    /// streams come back through [`Self::take_recorded`]; replaying one
    /// against an identically-initialized session — through any front end
    /// that drives [`SchedulerService::apply`] — reproduces this run's
    /// trace bit for bit.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = if on {
            Some(self.recording.take().unwrap_or_default())
        } else {
            None
        };
    }

    /// Takes the disruptions recorded since [`Self::set_recording`] was
    /// switched on (empty if recording was never enabled).
    pub fn take_recorded(&mut self) -> Vec<TimedDisruption> {
        self.recording
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Withholds every `1/fraction`-ish unscheduled candidate (taking each
    /// with index hash below `fraction`) so scenarios have late arrivals to
    /// release. Deterministic — no RNG involved. Goes through the service's
    /// availability events like every other state change.
    ///
    /// Returns the candidates it withheld, in id order — replay drivers
    /// send exactly this set through other front ends (the server's
    /// determinism check), so there is one source of truth, not two
    /// computations that must happen to agree.
    pub fn withhold_fraction(&mut self, fraction: f64) -> Vec<EventId> {
        let selection = withhold_selection(self.session(), fraction);
        for &e in &selection {
            self.service
                .apply(
                    &self.name,
                    &SessionEvent::SetAvailable(Availability {
                        event: e,
                        available: false,
                    }),
                )
                .expect("event id is in bounds");
        }
        selection
    }

    /// The live session (read access).
    pub fn session(&self) -> &OnlineSession {
        self.service
            .session(&self.name)
            .expect("simulator session stays open for its lifetime")
    }

    /// The service the simulator drives (read access — e.g. for
    /// [`ses_service::SchedulerService::report`]).
    pub fn service(&self) -> &SchedulerService {
        &self.service
    }

    /// The name of the session this simulator drives.
    pub fn session_name(&self) -> &str {
        &self.name
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Asks source `i` for its next event and queues it.
    fn refill(&mut self, i: usize) {
        let session = self
            .service
            .session(&self.name)
            .expect("simulator session stays open for its lifetime");
        let view = SimView::new(session);
        if let Some(timed) = self.sources[i].next(self.clock, &view) {
            let at = timed.at.max(self.clock);
            self.queue.push(Pending {
                at,
                seq: self.seq,
                source: i,
                disruption: timed.disruption,
            });
            self.seq += 1;
        }
    }

    /// Applies one disruption through the service. Returns the repair
    /// report if the session changed.
    ///
    /// Well-formed scenarios only emit in-universe events, so a
    /// service-level rejection marks a scenario bug. The step is recorded
    /// as inert (nothing changed, so the trace stays honest and the run
    /// deterministic), but it also bumps [`SimSummary::rejected`] so the
    /// bug cannot hide among ordinary inert steps.
    fn apply(&mut self, disruption: &Disruption) -> Option<RepairReport> {
        match self
            .service
            .apply(&self.name, &disruption.to_session_event())
        {
            Ok(report) => report.report,
            Err(_) => {
                self.rejected += 1;
                None
            }
        }
    }

    /// Runs up to `steps` further disruptions (fewer if all sources dry up).
    /// Can be called repeatedly; the clock, trace and counters carry over.
    pub fn run(&mut self, steps: u64) -> SimSummary {
        let counters_start = self.session().counters();
        let rejected_start = self.rejected;
        // ses-analyze: allow(wall-clock-in-core): elapsed feeds SimSummary throughput reporting only, never decisions
        let start = Instant::now();
        let mut applied = 0u64;
        let mut skipped = 0u64;
        let mut total_moves = 0u64;
        let mut total_recovered = 0.0f64;

        for i in 0..self.sources.len() {
            if !self.primed[i] {
                self.primed[i] = true;
                self.refill(i);
            }
        }

        let mut taken = 0u64;
        while taken < steps {
            let Some(pending) = self.queue.pop() else {
                break;
            };
            taken += 1;
            if let Some(rec) = &mut self.recording {
                rec.push(TimedDisruption {
                    at: pending.at,
                    disruption: pending.disruption.clone(),
                });
            }
            self.clock = pending.at;
            let utility_before = self.session().utility();
            let report = self.apply(&pending.disruption);
            let record = match &report {
                Some(r) => {
                    applied += 1;
                    total_moves += r.moves.len() as u64;
                    total_recovered += r.recovered();
                    TraceRecord {
                        step: self.steps_done,
                        tick: pending.at,
                        kind: pending.disruption.kind(),
                        applied: true,
                        utility_before: r.utility_before,
                        utility_disrupted: r.utility_disrupted,
                        utility_after: r.utility_after,
                        moves: r.moves.len() as u32,
                    }
                }
                None => {
                    skipped += 1;
                    TraceRecord {
                        step: self.steps_done,
                        tick: pending.at,
                        kind: pending.disruption.kind(),
                        applied: false,
                        utility_before,
                        utility_disrupted: utility_before,
                        utility_after: utility_before,
                        moves: 0,
                    }
                }
            };
            self.trace.push(record);
            self.steps_done += 1;
            self.refill(pending.source);
        }

        let elapsed = start.elapsed();
        let counters_end = self.session().counters();
        let events_per_sec = if elapsed.as_secs_f64() > 0.0 {
            taken as f64 / elapsed.as_secs_f64()
        } else {
            f64::INFINITY
        };
        SimSummary {
            steps: taken,
            applied,
            skipped,
            rejected: self.rejected - rejected_start,
            final_tick: self.clock,
            final_utility: self.session().utility(),
            final_scheduled: self.session().schedule().len(),
            total_moves,
            total_recovered,
            counters: EngineCounters {
                score_evaluations: counters_end.score_evaluations
                    - counters_start.score_evaluations,
                posting_visits: counters_end.posting_visits - counters_start.posting_visits,
                assigns: counters_end.assigns - counters_start.assigns,
                unassigns: counters_end.unassigns - counters_start.unassigns,
            },
            elapsed,
            events_per_sec,
            digest: self.trace.digest(),
        }
    }

    /// A per-kind histogram of the trace, for reports.
    pub fn kind_histogram(&self) -> Vec<(DisruptionKind, u64)> {
        let kinds = [
            DisruptionKind::RivalAnnounce,
            DisruptionKind::ActivityDrift,
            DisruptionKind::Cancel,
            DisruptionKind::LateArrival,
            DisruptionKind::Extend,
            DisruptionKind::CapacityChange,
        ];
        kinds
            .iter()
            .map(|&k| {
                (
                    k,
                    self.trace.records().iter().filter(|r| r.kind == k).count() as u64,
                )
            })
            .collect()
    }
}

/// The deterministic withhold selection: every unscheduled candidate whose
/// index hash lands below `fraction`. No RNG — the same session state always
/// selects the same set, which is what lets a network replay reproduce it.
pub fn withhold_selection(session: &OnlineSession, fraction: f64) -> Vec<EventId> {
    let fraction = fraction.clamp(0.0, 1.0);
    let n = session.instance().num_events();
    let take = |e: usize| (((e.wrapping_mul(2654435761) >> 16) % 1000) as f64) < fraction * 1000.0;
    (0..n)
        .map(|e| EventId::new(e as u32))
        .filter(|&e| !session.schedule().contains(e) && take(e.index()))
        .collect()
}
