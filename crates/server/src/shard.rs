//! Shard workers: each owns a [`SchedulerService`] — the live sessions,
//! the server's only mutable state — and serves session operations off an
//! mpsc channel, so `apply`'s `&mut self` never meets a lock.
//!
//! Sessions are routed by a stable hash of their name, so every event for
//! one session lands on the same shard in arrival order. Stateless work —
//! `solve`, `eval` and an open's solve and session build — runs on the
//! connection thread (see `server.rs`); a shard only logs and adopts the
//! finished session. The one solve left on a shard is a migration install,
//! which replays the session's open (recovery-equals-replay). The only
//! shared state between shards is the [`InstanceRegistry`] of immutable
//! `Arc<SesInstance>` handles, which a shard reads for those replays.
//!
//! Every message carries its request's trace id and enqueue timestamp: the
//! worker records a `queue` span for the time the message waited and runs
//! the operation inside that trace's scope, so engine-internal spans
//! (apply, repair, …) recorded on the shard thread attach to the
//! originating HTTP request.

use crate::metrics::{EngineTotals, ShardGauge};
use serde::{Deserialize, Serialize};
use ses_core::util::Fnv1a;
use ses_core::OnlineSession;
use ses_durable::{recover_sessions, RecoveredLog, SessionJournal, ShardWal};
use ses_service::{InstanceRegistry, SchedulerService, ServiceError, SessionEvent, SessionOpen};
use std::sync::mpsc;
use std::sync::Arc;

/// One request, as the shard sees it.
pub(crate) enum ShardOp {
    /// Log the open and adopt the session the connection thread built.
    Open {
        open: SessionOpen,
        session: Box<OnlineSession>,
    },
    Event {
        name: String,
        event: SessionEvent,
    },
    Report {
        name: String,
    },
    Close {
        name: String,
    },
    /// Migration: drain and remove a session, returning its journal
    /// (serialized [`SessionJournal`]) to the rebalance handler.
    Extract {
        name: String,
    },
    /// Migration: re-log and replay a journal shipped from another shard.
    Install {
        journal: Box<SessionJournal>,
    },
    /// Aggregate session accounting for `/metrics`.
    Stats,
}

/// A typed error on its way to becoming an HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable error kind.
    pub kind: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl ApiError {
    /// A new error.
    pub fn new(status: u16, kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            kind,
            message: message.into(),
        }
    }

    /// The structured JSON body every error response carries.
    pub fn body(&self) -> String {
        // Two strings cannot fail to serialize today, but this runs on the
        // request path (every error response), so degrade to a static body
        // rather than panicking the connection handler if the shim changes.
        serde_json::to_string(&ErrorBody {
            error: self.message.clone(),
            kind: self.kind.to_owned(),
        })
        .unwrap_or_else(|_| {
            r#"{"error":"error body serialization failed","kind":"internal"}"#.to_owned()
        })
    }
}

/// The JSON shape of every error response: `{"error": …, "kind": …}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable message.
    pub error: String,
    /// Stable machine-readable kind (`unknown_session`, `parse`, …).
    pub kind: String,
}

/// Answer to [`ShardOp::Stats`]: engine totals plus the shard's WAL
/// accounting when it runs durable.
pub(crate) struct ShardStats {
    pub engine: EngineTotals,
    pub wal: Option<ses_durable::WalStats>,
    /// WAL append latency distribution (µs).
    pub append: Option<ses_obs::HistogramSnapshot>,
    /// WAL fsync latency distribution (µs).
    pub fsync: Option<ses_obs::HistogramSnapshot>,
}

/// What a shard sends back.
pub(crate) enum ShardReply {
    /// A request op's JSON response body, or its status + structured body.
    Op(Result<String, ApiError>),
    /// Answer to [`ShardOp::Stats`].
    Stats(Box<ShardStats>),
}

/// One queued request plus its reply channel and trace context.
pub(crate) struct ShardMsg {
    pub op: ShardOp,
    pub reply: mpsc::Sender<ShardReply>,
    /// Raw trace id of the originating request (for `Stats` probes, the
    /// `/metrics` request that sent them).
    pub trace: u64,
    /// [`ses_obs::now_ns`] at enqueue — the shard derives the queue-wait
    /// span from it.
    pub enqueued_ns: u64,
    /// Queue depth observed at enqueue (including this message).
    pub depth: u64,
}

/// Maps service-level failures to HTTP statuses: unknown names — sessions
/// and instances alike — are 404, name collisions 409, a failed packed-file
/// open is a 500 (the server's disk, not the client's request), and
/// everything a client sent wrong — malformed values, out-of-universe
/// references, infeasible or unsolvable requests — is a 400 with the typed
/// core error's message.
pub(crate) fn api_error(e: &ServiceError) -> ApiError {
    match e {
        ServiceError::UnknownSession(_) => ApiError::new(404, "unknown_session", e.to_string()),
        ServiceError::SessionExists(_) => ApiError::new(409, "session_exists", e.to_string()),
        ServiceError::InvalidRequest(_) => ApiError::new(400, "invalid_request", e.to_string()),
        ServiceError::Core(ses_core::Error::UnknownInstance { .. }) => {
            ApiError::new(404, "unknown_instance", e.to_string())
        }
        ServiceError::Core(ses_core::Error::Store(_)) => ApiError::new(500, "store", e.to_string()),
        ServiceError::Core(_) => ApiError::new(400, "core", e.to_string()),
        // `ServiceError` is non_exhaustive; future variants are server bugs
        // until they get a mapping.
        _ => ApiError::new(500, "internal", e.to_string()),
    }
}

impl From<ServiceError> for ApiError {
    fn from(e: ServiceError) -> Self {
        api_error(&e)
    }
}

/// Maps a WAL failure to the HTTP response the client sees: the append
/// did not reach disk, so the operation is rejected *before* the service
/// state changes (write-ahead ordering cuts both ways).
impl From<ses_durable::WalError> for ApiError {
    fn from(e: ses_durable::WalError) -> Self {
        ApiError::new(500, "wal", e.to_string())
    }
}

/// Resolves a request's instance name through the registry, folding core
/// errors (unknown name, failed cold-open) into the service error space so
/// [`api_error`] can map them to structured 404/500 responses.
pub(crate) fn resolve(
    registry: &InstanceRegistry,
    name: &str,
) -> Result<Arc<ses_core::SesInstance>, ServiceError> {
    registry.get(name).map_err(ServiceError::Core)
}

/// A response body as JSON; a serialization failure is a structured 500.
pub(crate) fn json_body<T: Serialize>(value: &T) -> Result<String, ApiError> {
    serde_json::to_string(value).map_err(|e| ApiError::new(500, "serialize", e.to_string()))
}

fn stats_of(service: &SchedulerService) -> EngineTotals {
    let mut totals = EngineTotals::default();
    for name in service.session_names() {
        // The name list and the lookup are a single-threaded sequence on
        // this worker, so a miss is unreachable today — but `Stats` runs
        // per `/metrics` request, so skip rather than panic the shard.
        let Ok(report) = service.report(name) else {
            continue;
        };
        totals.merge(&EngineTotals {
            sessions: 1,
            events_applied: report.events_applied,
            clock: report.clock,
            counters: report.counters,
            column_slots: report.memory.column_slots,
            resident_bytes: report.memory.total_resident_bytes(),
        });
    }
    totals
}

/// Session open, write-ahead: the record is on disk (per the fsync
/// policy) before the service adopts the session the connection thread
/// built; a taken name answers 409. The body is empty — the connection
/// thread answers with the solve it ran.
fn handle_open(
    service: &mut SchedulerService,
    wal: Option<&mut ShardWal>,
    open: &SessionOpen,
    session: OnlineSession,
) -> Result<String, ApiError> {
    if let Some(w) = wal {
        w.append_open(open)?;
    }
    service.adopt_session(open.name.clone(), open.instance.clone(), session)?;
    Ok(String::new())
}

/// Session event, write-ahead: append (stamping the LSN into the report
/// the client gets back), apply, then maybe snapshot the session.
fn handle_event(
    service: &mut SchedulerService,
    wal: Option<&mut ShardWal>,
    name: &str,
    event: &SessionEvent,
) -> Result<String, ApiError> {
    let Some(w) = wal else {
        return json_body(&service.apply(name, event)?);
    };
    let lsn = w.append_event(name, event)?;
    let mut report = service.apply(name, event)?;
    report.lsn = lsn;
    if let Err(e) = w.maybe_snapshot(name, report.scheduled, report.utility) {
        // A failed snapshot costs compaction, not correctness — the WAL
        // tail still covers the session.
        ses_obs::log(
            ses_obs::Level::Warn,
            "shard",
            "session snapshot failed",
            &[("session", name.into()), ("error", e.to_string().into())],
        );
    }
    json_body(&report)
}

/// Session close, write-ahead. A close for an unknown session still leaves
/// a record; recovery skips it exactly like the service rejects it here.
fn handle_close(
    service: &mut SchedulerService,
    wal: Option<&mut ShardWal>,
    name: &str,
) -> Result<String, ApiError> {
    if let Some(w) = wal {
        w.append_close(name)?;
    }
    json_body(&service.close_session(name)?)
}

/// Migration source: drop the live session and return its journal. The
/// close record `extract` writes means a crash after this point never
/// resurrects the session here — it now lives only in the reply (and,
/// once installed, on the target shard).
fn handle_extract(
    service: &mut SchedulerService,
    wal: Option<&mut ShardWal>,
    name: &str,
) -> Result<String, ApiError> {
    let Some(w) = wal else {
        return Err(ApiError::new(
            400,
            "not_durable",
            "session migration requires the server to run with --wal-dir",
        ));
    };
    let unknown = || ApiError::from(ServiceError::UnknownSession(name.to_owned()));
    if service.session(name).is_none() {
        return Err(unknown());
    }
    let journal = w.extract(name)?.ok_or_else(unknown)?;
    drop(service.take_session(name));
    json_body(&journal)
}

/// Migration target: re-log the journal with fresh LSNs, then rebuild the
/// session by replaying it through the service — the same recovery-equals-
/// replay path a crash would take.
fn handle_install(
    registry: &InstanceRegistry,
    service: &mut SchedulerService,
    wal: Option<&mut ShardWal>,
    journal: &SessionJournal,
) -> Result<String, ApiError> {
    if let Some(w) = wal {
        w.install(journal)?;
    }
    let inst = resolve(registry, journal.open.instance.as_str())?;
    service.open_session(&inst, &journal.open)?;
    for event in &journal.events {
        // Events the source's service rejected replay as rejections here
        // too (deterministically); they are not errors of the migration.
        let _ = service.apply(&journal.name, event);
    }
    json_body(&service.report(&journal.name)?)
}

/// One request op against the shard's sessions and WAL.
fn handle(
    registry: &InstanceRegistry,
    service: &mut SchedulerService,
    wal: Option<&mut ShardWal>,
    op: ShardOp,
) -> Result<String, ApiError> {
    match op {
        ShardOp::Open { open, session } => handle_open(service, wal, &open, *session),
        ShardOp::Event { name, event } => handle_event(service, wal, &name, &event),
        ShardOp::Report { name } => json_body(&service.report(&name)?),
        ShardOp::Close { name } => handle_close(service, wal, &name),
        ShardOp::Extract { name } => handle_extract(service, wal, &name),
        ShardOp::Install { journal } => handle_install(registry, service, wal, &journal),
        // The worker loop answers `Stats` itself and never hands it here.
        ShardOp::Stats => Err(ApiError::new(500, "internal", "stats is not a request op")),
    }
}

/// The shard worker loop: owns its service (and, when the server runs
/// with `--wal-dir`, its WAL), drains its queue, exits when every sender
/// (acceptor + connection handlers) is gone. Migration installs resolve
/// their named instance through the shared registry first, so an unknown
/// name (or a broken packed file) is rejected before any session state is
/// touched. A WAL-backed shard replays its recovered log through the
/// service before taking its first request, and writes `recovery.json`
/// into its WAL directory. Under `--fsync interval:N` the loop also syncs
/// an unsynced WAL tail once it is due, even when no message arrives.
pub(crate) fn run_shard(
    registry: Arc<InstanceRegistry>,
    rx: mpsc::Receiver<ShardMsg>,
    shard: usize,
    gauge: Arc<ShardGauge>,
    wal: Option<(ShardWal, RecoveredLog)>,
) {
    let mut service = SchedulerService::new();
    let mut wal = wal.map(|(wal, log)| {
        let report = recover_sessions(&mut service, &registry, &log);
        if let Err(e) = report.write_json(wal.dir()) {
            ses_obs::log(
                ses_obs::Level::Warn,
                "shard",
                "could not write recovery.json",
                &[("shard", shard.into()), ("error", e.into())],
            );
        }
        service.set_durable(true);
        ses_obs::log(
            ses_obs::Level::Info,
            "shard",
            "durability recovery complete",
            &[
                ("shard", shard.into()),
                ("sessions", report.sessions_recovered.into()),
                ("failed", report.sessions_failed.into()),
                ("events_replayed", report.events_replayed.into()),
                ("torn_tail", report.torn_tail.is_some().into()),
                ("errors", report.errors.len().into()),
            ],
        );
        wal
    });
    loop {
        // Under `--fsync interval:N` an unsynced tail bounds the wait, so an
        // idle shard still syncs it on time; otherwise block until the next
        // message.
        let msg = match wal.as_ref().and_then(ShardWal::sync_due_in) {
            Some(wait) if !wait.is_zero() => match rx.recv_timeout(wait) {
                Ok(msg) => msg,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            },
            Some(_) => {
                if let Some(Err(e)) = wal.as_mut().map(ShardWal::flush_if_due) {
                    ses_obs::log(
                        ses_obs::Level::Warn,
                        "shard",
                        "interval WAL flush failed",
                        &[("shard", shard.into()), ("error", e.to_string().into())],
                    );
                }
                continue;
            }
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            },
        };
        // Attribute everything below — including engine-internal spans on
        // this thread — to the originating request's trace.
        let _scope = ses_obs::TraceId::from_raw(msg.trace).map(ses_obs::trace_scope);
        let picked_ns = ses_obs::now_ns();
        ses_obs::record_span(
            ses_obs::Stage::Queue,
            msg.enqueued_ns,
            picked_ns.saturating_sub(msg.enqueued_ns),
            ses_obs::OpsDelta::default(),
            [msg.depth, shard as u64],
        );
        let mut service_span = ses_obs::span(ses_obs::Stage::Service);
        service_span.set_aux(shard as u64, msg.depth);
        let reply = match msg.op {
            ShardOp::Stats => ShardReply::Stats(Box::new(ShardStats {
                engine: stats_of(&service),
                wal: wal.as_ref().map(|w| w.stats()),
                append: wal.as_ref().map(|w| w.append_latencies()),
                fsync: wal.as_ref().map(|w| w.fsync_latencies()),
            })),
            op => ShardReply::Op(handle(&registry, &mut service, wal.as_mut(), op)),
        };
        drop(service_span);
        gauge.served(ses_obs::now_ns().saturating_sub(picked_ns));
        // A dropped reply receiver means the connection died mid-request;
        // the shard's state change (if any) stands, like any completed
        // request whose response was lost on the wire.
        let _ = msg.reply.send(reply);
    }
    // Graceful drain: make the tail durable before the thread exits.
    if let Some(w) = wal.as_mut() {
        if let Err(e) = w.flush() {
            ses_obs::log(
                ses_obs::Level::Warn,
                "shard",
                "final WAL flush failed",
                &[("shard", shard.into()), ("error", e.to_string().into())],
            );
        }
    }
}

/// FNV-1a over the session name — the shard routing hash. Stable across
/// runs (no `RandomState`), so a session always lands on the same shard.
pub(crate) fn shard_of(name: &str, shards: usize) -> usize {
    (Fnv1a::hash(name.as_bytes()) % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in 1..8 {
            for name in ["a", "main", "lg-0-1", "Ω-session", ""] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards), "routing must be stable");
            }
        }
        // Names spread across shards (not all on one).
        let hits: std::collections::HashSet<usize> =
            (0..64).map(|i| shard_of(&format!("s{i}"), 4)).collect();
        assert!(hits.len() > 1);
    }

    #[test]
    fn error_bodies_are_structured() {
        let e = api_error(&ServiceError::UnknownSession("x".into()));
        assert_eq!(e.status, 404);
        let body: ErrorBody = serde_json::from_str(&e.body()).unwrap();
        assert_eq!(body.kind, "unknown_session");
        assert!(body.error.contains('x'));
    }

    #[test]
    fn instance_errors_map_to_structured_statuses() {
        let e = api_error(&ServiceError::Core(ses_core::Error::UnknownInstance {
            name: "ghost".into(),
            known: vec!["default".into(), "tenant-a".into()],
        }));
        assert_eq!(e.status, 404);
        assert_eq!(e.kind, "unknown_instance");
        let body: ErrorBody = serde_json::from_str(&e.body()).unwrap();
        assert!(body.error.contains("ghost") && body.error.contains("tenant-a"));

        let e = api_error(&ServiceError::Core(ses_core::Error::Store(
            ses_core::StoreError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
        )));
        assert_eq!(e.status, 500);
        assert_eq!(e.kind, "store");
    }
}
