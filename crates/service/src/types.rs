//! The service wire vocabulary: serde-serializable request and response
//! types shared by every front end (CLI, simulator, future servers).
//!
//! Everything here is plain data — typed ids from `ses-core`, numbers and
//! vectors — so requests can arrive as JSON, be logged, replayed, and
//! round-tripped losslessly (see the crate's serde property tests).
//! Decoding ignores fields a type does not name, so JSON carrying a retired
//! field (older clients' and WAL records' `"threads"`) still decodes.

use serde::{Deserialize, Serialize};
use ses_core::{
    Assignment, EngineCounters, EngineMemoryStats, EventId, IntervalId, RepairReport,
    ScheduleOutcome, SchedulerSpec, UserId,
};
use std::fmt;

/// The name of a registered instance a request targets.
///
/// On the wire this is a plain JSON string, and it defaults to
/// `"default"` when the field is absent — so every pre-instance request
/// body (and every recorded replay stream) parses unchanged. The
/// `Serialize`/`Deserialize` impls are written by hand because the shim's
/// `#[serde(default)]` resolves through `Default`, which this newtype
/// points at the `"default"` instance rather than the empty string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceName(String);

impl InstanceName {
    /// Wraps an instance name.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for InstanceName {
    /// The implicit tenant every legacy request targets.
    fn default() -> Self {
        Self("default".to_owned())
    }
}

impl fmt::Display for InstanceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for InstanceName {
    fn from(name: &str) -> Self {
        Self(name.to_owned())
    }
}

impl From<String> for InstanceName {
    fn from(name: String) -> Self {
        Self(name)
    }
}

impl Serialize for InstanceName {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.0.clone())
    }
}

impl Deserialize for InstanceName {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::String(s) => Ok(Self(s.clone())),
            _ => Err(serde::Error::custom("instance name must be a string")),
        }
    }
}

/// A request to solve an instance offline: which algorithm, how many events.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveRequest {
    /// The algorithm to run (see [`ses_core::registry`]).
    pub spec: SchedulerSpec,
    /// Number of events to schedule.
    pub k: usize,
    /// The registered instance to solve over. Defaults to `"default"` when
    /// absent from the wire (pre-instance JSON compatibility).
    #[serde(default)]
    pub instance: InstanceName,
}

/// The result of a solve: the schedule plus quality and cost accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveResponse {
    /// Display name of the algorithm that ran (e.g. `"GRD+LS"`).
    pub algorithm: String,
    /// Total utility Ω of the produced schedule (Eq. 3).
    pub total_utility: f64,
    /// Whether all `k` requested assignments were placed.
    pub complete: bool,
    /// Wall-clock milliseconds of the run.
    pub millis: f64,
    /// Engine operation counters (hardware-independent cost).
    pub counters: EngineCounters,
    /// The assignments, in event order.
    pub assignments: Vec<Assignment>,
}

impl SolveResponse {
    /// Builds a response from a scheduler outcome, stamping the spec's
    /// display name.
    pub fn from_outcome(spec: SchedulerSpec, outcome: &ScheduleOutcome) -> Self {
        Self {
            algorithm: spec.name().to_owned(),
            total_utility: outcome.total_utility,
            complete: outcome.complete,
            millis: outcome.stats.elapsed.as_secs_f64() * 1e3,
            counters: outcome.stats.engine,
            assignments: outcome.schedule.iter().collect(),
        }
    }

    /// Number of assignments placed.
    pub fn scheduled(&self) -> usize {
        self.assignments.len()
    }
}

/// A request to evaluate an explicit schedule against an instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRequest {
    /// The assignments to evaluate.
    pub assignments: Vec<Assignment>,
    /// The registered instance to evaluate against. Defaults to
    /// `"default"` when absent from the wire.
    #[serde(default)]
    pub instance: InstanceName,
}

/// Per-event attendance line of an [`EvalResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventAttendance {
    /// The scheduled event.
    pub event: EventId,
    /// Where it is scheduled.
    pub interval: IntervalId,
    /// Its expected attendance ω(e, t) (Eq. 2).
    pub expected_attendance: f64,
}

/// The result of an evaluation: Ω plus the per-event breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResponse {
    /// Total utility Ω (Eq. 3).
    pub total_utility: f64,
    /// Per-event expected attendance, in event order.
    pub per_event: Vec<EventAttendance>,
}

/// A request to open a named online session: solve an initial schedule and
/// keep it live for [`SessionEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionOpen {
    /// The session name (unique within the service).
    pub name: String,
    /// The algorithm producing the initial schedule.
    pub spec: SchedulerSpec,
    /// Initial schedule size.
    pub k: usize,
    /// The registered instance the session schedules over. Defaults to
    /// `"default"` when absent from the wire.
    #[serde(default)]
    pub instance: InstanceName,
}

/// A rival event announced at an interval (or diffuse activity drift —
/// both inject competing mass).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Announcement {
    /// Where the rival lands.
    pub interval: IntervalId,
    /// Users who notice it, with their interest `µ(u, c) ∈ [0, 1]`.
    pub postings: Vec<(UserId, f64)>,
}

/// A scheduled event is cancelled; the session backfills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cancellation {
    /// The cancelled event.
    pub event: EventId,
}

/// A late candidate becomes available and is placed greedily if possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// The arriving candidate.
    pub event: EventId,
}

/// The per-interval resource budget θ moves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityChange {
    /// The new budget.
    pub budget: f64,
}

/// Toggles whether a candidate may be drawn by backfills/extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Availability {
    /// The candidate.
    pub event: EventId,
    /// Whether it is available.
    pub available: bool,
}

/// One thing that happens to a live session — the request vocabulary of
/// [`SchedulerService::apply`](crate::SchedulerService::apply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionEvent {
    /// A rival event (or drift) injects competing mass at an interval.
    Announce(Announcement),
    /// A scheduled event is cancelled.
    Cancel(Cancellation),
    /// A late candidate arrives.
    Arrive(Arrival),
    /// The resource budget changes.
    Capacity(CapacityChange),
    /// A candidate's availability mask is toggled.
    SetAvailable(Availability),
    /// Greedily schedule one more event (`k → k+1`).
    Extend,
}

/// The outcome of applying one [`SessionEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventReport {
    /// Whether the event changed session state. Inert events — cancelling
    /// an event that is not scheduled, an arrival with no valid slot, an
    /// extension with nothing left to add — report `false`.
    pub applied: bool,
    /// The repair accounting, when the session ran a repair.
    pub report: Option<RepairReport>,
    /// Utility Ω after the event.
    pub utility: f64,
    /// Schedule size after the event.
    pub scheduled: usize,
    /// Log sequence number the event was durably assigned by the WAL
    /// (`ses-durable`), or `0` when the server runs without a WAL.
    /// Defaults to `0` when absent from the wire (pre-durability JSON
    /// compatibility).
    #[serde(default)]
    pub lsn: u64,
}

/// A point-in-time summary of a live session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// The session name.
    pub name: String,
    /// Current utility Ω.
    pub utility: f64,
    /// Current schedule size.
    pub scheduled: usize,
    /// The live resource budget θ.
    pub budget: f64,
    /// Session events applied so far (inert ones included).
    pub events_applied: u64,
    /// Engine operation counters accumulated by the session — the scoring
    /// work this session has cost, in hardware-independent units.
    pub counters: EngineCounters,
    /// The engine's monotone mutation clock (see
    /// [`ses_core::OnlineSession::clock`]): how much schedule churn the
    /// session absorbed, as opposed to how much scoring it performed.
    /// Defaults to `0` when absent from the wire (pre-`clock` JSON
    /// compatibility).
    #[serde(default)]
    pub clock: u64,
    /// Resident-memory and build-cost accounting of the session's engine
    /// (blocked column layout). Defaults to all-zero when absent from the
    /// wire (pre-`memory` JSON compatibility).
    #[serde(default)]
    pub memory: EngineMemoryStats,
    /// The instance this session was opened against. Defaults to
    /// `"default"` when absent from the wire (pre-instance JSON
    /// compatibility).
    #[serde(default)]
    pub instance: InstanceName,
    /// Whether the session's events are being persisted to a write-ahead
    /// log (`ses-durable`). Defaults to `false` when absent from the wire
    /// (pre-durability JSON compatibility).
    #[serde(default)]
    pub durable: bool,
}
