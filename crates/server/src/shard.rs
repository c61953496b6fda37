//! Session shards: N mutex-guarded [`Shard`]s, each a [`SchedulerService`]
//! — the live sessions, the server's only mutable state — plus, when the
//! server runs durable, that shard's WAL.
//!
//! Sessions are routed by a stable hash of their name, so every op on one
//! session takes the same shard's lock, and the lock applies them one at a
//! time in arrival order. A session op runs on its connection thread
//! ([`Shards::run`]): the wait for the lock is the request's `queue` span,
//! the op its `service` span, and engine-internal spans (apply, repair, …)
//! land in the same trace because they run on the same thread. Stateless
//! work — `solve`, `eval` and an open's solve and session build — takes no
//! shard lock (see `server.rs`); a shard only logs and adopts the finished
//! session. The one solve left under a shard lock is a migration install,
//! which replays the session's open (recovery-equals-replay). A rebalance
//! holds its source and target locks together, taken in index order
//! ([`Shards::lock_pair`]), and `/metrics` reads each shard under its lock
//! in turn. The only shared state between shards is the
//! [`InstanceRegistry`] of immutable `Arc<SesInstance>` handles.

use crate::metrics::{EngineTotals, ShardGauge};
use serde::{Deserialize, Serialize};
use ses_core::util::Fnv1a;
use ses_core::OnlineSession;
use ses_durable::{recover_sessions, RecoveredLog, SessionJournal, ShardWal};
use ses_obs::{OpsDelta, Stage};
use ses_service::{
    InstanceRegistry, SchedulerService, ServiceError, SessionEvent, SessionOpen, SessionReport,
};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// Engine totals across one shard's sessions, for `/metrics`.
///
/// Resident bytes are the sessions' own state plus each engine index they
/// read, counted once: an index already in `seen` (read by a session of an
/// earlier shard) adds nothing, and a new one is pushed there. Summing the
/// shards in order therefore counts every shared index exactly once.
pub(crate) fn stats_of(
    service: &SchedulerService,
    seen: &mut Vec<Arc<ses_core::EngineIndex>>,
) -> EngineTotals {
    let mut totals = EngineTotals::default();
    for name in service.session_names() {
        // The name list and the lookup run under one shard lock, so a miss
        // is unreachable today — but this runs per `/metrics` request, so
        // skip rather than panic.
        let (Ok(report), Some(session)) = (service.report(name), service.session(name)) else {
            continue;
        };
        let index = session.engine().index();
        let mut resident_bytes = report.memory.state_bytes;
        if !seen.iter().any(|known| Arc::ptr_eq(known, index)) {
            resident_bytes += report.memory.index_bytes;
            seen.push(Arc::clone(index));
        }
        totals.merge(&EngineTotals {
            sessions: 1,
            events_applied: report.events_applied,
            clock: report.clock,
            counters: report.counters,
            column_slots: report.memory.column_slots,
            resident_bytes,
        });
    }
    totals
}

/// One session shard: its live sessions and, when the server runs with
/// `--wal-dir`, their write-ahead log.
pub(crate) struct Shard {
    pub service: SchedulerService,
    pub wal: Option<ShardWal>,
}

impl Shard {
    /// Boot: replays a WAL-backed shard's recovered log through the service
    /// and writes `recovery.json` into its WAL directory.
    fn recover(
        registry: &InstanceRegistry,
        index: usize,
        wal: Option<(ShardWal, RecoveredLog)>,
    ) -> Self {
        let mut shard = Shard {
            service: SchedulerService::new(),
            wal: None,
        };
        let Some((wal, log)) = wal else {
            return shard;
        };
        let report = recover_sessions(&mut shard.service, registry, &log);
        if let Err(e) = report.write_json(wal.dir()) {
            ses_obs::log(
                ses_obs::Level::Warn,
                "shard",
                "could not write recovery.json",
                &[("shard", index.into()), ("error", e.into())],
            );
        }
        shard.service.set_durable(true);
        ses_obs::log(
            ses_obs::Level::Info,
            "shard",
            "durability recovery complete",
            &[
                ("shard", index.into()),
                ("sessions", report.sessions_recovered.into()),
                ("failed", report.sessions_failed.into()),
                ("events_replayed", report.events_replayed.into()),
                ("torn_tail", report.torn_tail.is_some().into()),
                ("errors", report.errors.len().into()),
            ],
        );
        shard.wal = Some(wal);
        for session in &log.sessions {
            shard.snapshot_if_due(&session.name);
        }
        shard
    }

    /// Whether the WAL holds appends still waiting for their interval sync.
    fn unsynced(&self) -> bool {
        self.wal.as_ref().and_then(ShardWal::sync_due_in).is_some()
    }

    /// Session open, write-ahead: the record is on disk (per the fsync
    /// policy) before the service adopts the session the connection thread
    /// built; a taken name answers 409.
    pub fn open(&mut self, open: &SessionOpen, session: OnlineSession) -> Result<(), ApiError> {
        if let Some(w) = self.wal.as_mut() {
            w.append_open(open)?;
        }
        self.service
            .adopt_session(open.name.clone(), open.instance.clone(), session)?;
        self.snapshot_if_due(&open.name);
        Ok(())
    }

    /// Session event, write-ahead: append (stamping the LSN into the
    /// report the client gets back), apply, then maybe snapshot the session.
    pub fn event(&mut self, name: &str, event: &SessionEvent) -> Result<String, ApiError> {
        let Some(w) = self.wal.as_mut() else {
            return json_body(&self.service.apply(name, event)?);
        };
        let lsn = w.append_event(name, event)?;
        let applied = self.service.apply(name, event);
        self.snapshot_if_due(name);
        let mut report = applied?;
        report.lsn = lsn;
        json_body(&report)
    }

    /// Reports the session's current state to the WAL, which snapshots the
    /// session when due and re-snapshots quiet sessions from the states
    /// reported here (see `ShardWal::maybe_snapshot`). A failed snapshot
    /// costs compaction, not correctness: a failed append cuts its partial
    /// record off, and the session's start record moves only once its
    /// snapshot is synced, so the records already logged still cover it.
    fn snapshot_if_due(&mut self, name: &str) {
        let (Some(w), Some(session)) = (self.wal.as_mut(), self.service.session(name)) else {
            return;
        };
        if let Err(e) = w.maybe_snapshot(name, session.schedule().len(), session.utility()) {
            ses_obs::log(
                ses_obs::Level::Warn,
                "shard",
                "session snapshot failed",
                &[("session", name.into()), ("error", e.to_string().into())],
            );
        }
    }

    /// Session close, write-ahead. A close for an unknown session still
    /// leaves a record; recovery skips it exactly like the service rejects
    /// it here.
    pub fn close(&mut self, name: &str) -> Result<String, ApiError> {
        if let Some(w) = self.wal.as_mut() {
            w.append_close(name)?;
        }
        json_body(&self.service.close_session(name)?)
    }

    /// Migration source: drop the live session and return its journal.
    /// The close record `extract` writes means a crash after this point
    /// never resurrects the session here — it now lives only in the
    /// returned journal (and, once installed, on the target shard).
    pub fn extract(&mut self, name: &str) -> Result<SessionJournal, ApiError> {
        let Some(w) = self.wal.as_mut() else {
            return Err(ApiError::new(
                400,
                "not_durable",
                "session migration requires the server to run with --wal-dir",
            ));
        };
        let unknown = || ApiError::from(ServiceError::UnknownSession(name.to_owned()));
        if self.service.session(name).is_none() {
            return Err(unknown());
        }
        let journal = w.extract(name)?.ok_or_else(unknown)?;
        drop(self.service.take_session(name));
        Ok(journal)
    }

    /// Migration target: re-log the journal with fresh LSNs, then rebuild
    /// the session by replaying it through the service — the same
    /// recovery-equals-replay path a crash would take.
    pub fn install(
        &mut self,
        registry: &InstanceRegistry,
        journal: &SessionJournal,
    ) -> Result<SessionReport, ApiError> {
        if let Some(w) = self.wal.as_mut() {
            w.install(journal)?;
        }
        let inst = resolve(registry, journal.open.instance.as_str())?;
        self.service.open_session(&inst, &journal.open)?;
        for event in &journal.events {
            // Events the source's service rejected replay as rejections
            // here too (deterministically); they are not errors of the
            // migration.
            let _ = self.service.apply(&journal.name, event);
        }
        self.snapshot_if_due(&journal.name);
        Ok(self.service.report(&journal.name)?)
    }
}

/// The answer of a shard whose lock is poisoned: an op panicked while
/// holding it, so its sessions may be half-applied.
fn failed(index: usize) -> ApiError {
    ApiError::new(
        503,
        "shard_failed",
        format!("shard {index} failed mid-operation and no longer serves"),
    )
}

/// The session shards, one lock each, plus their gauges and the
/// interval-fsync wake-up.
pub(crate) struct Shards {
    slots: Vec<Mutex<Shard>>,
    gauges: Vec<ShardGauge>,
    sync: WalSync,
}

impl Shards {
    /// Builds one shard per entry of `wals`, recovering the WAL-backed ones
    /// on one scoped thread per shard; returns once every shard is ready.
    pub fn boot(
        registry: &InstanceRegistry,
        wals: Vec<Option<(ShardWal, RecoveredLog)>>,
    ) -> std::io::Result<Self> {
        let slots = std::thread::scope(|scope| {
            let boots: Vec<_> = wals
                .into_iter()
                .enumerate()
                .map(|(i, wal)| scope.spawn(move || Shard::recover(registry, i, wal)))
                .collect();
            boots
                .into_iter()
                .enumerate()
                .map(|(i, boot)| {
                    boot.join()
                        .map(Mutex::new)
                        .map_err(|_| std::io::Error::other(format!("shard {i} recovery panicked")))
                })
                .collect::<std::io::Result<Vec<_>>>()
        })?;
        Ok(Self {
            gauges: slots.iter().map(|_| ShardGauge::default()).collect(),
            slots,
            sync: WalSync::default(),
        })
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Shard `index`'s occupancy gauge.
    pub fn gauge(&self, index: usize) -> &ShardGauge {
        &self.gauges[index]
    }

    /// Locks shard `index`. A poisoned lock answers `503 shard_failed` —
    /// never `into_inner`: the panic that poisoned it may have left a
    /// session half-applied.
    pub fn lock(&self, index: usize) -> Result<MutexGuard<'_, Shard>, ApiError> {
        self.slots[index].lock().map_err(|_| failed(index))
    }

    /// Locks two distinct shards, always lower index first, so two
    /// rebalances crossing the same pair cannot deadlock. Returns the
    /// guards in argument order.
    pub fn lock_pair(
        &self,
        a: usize,
        b: usize,
    ) -> Result<(MutexGuard<'_, Shard>, MutexGuard<'_, Shard>), ApiError> {
        if a < b {
            let first = self.lock(a)?;
            Ok((first, self.lock(b)?))
        } else {
            let first = self.lock(b)?;
            Ok((self.lock(a)?, first))
        }
    }

    /// Runs one session op on the calling thread, on the shard `route`
    /// names. The wait for that shard's lock is recorded as a `queue` span
    /// (aux `[depth, shard]`) and the op as a `service` span. `route` is
    /// read again under the lock: if a rebalance moved the session
    /// meanwhile, the lock is released and the op follows it. A panic in
    /// `op` poisons the shard, which answers `503 shard_failed` from then
    /// on — this request included.
    pub fn run<T>(
        &self,
        route: impl Fn() -> usize,
        op: impl FnOnce(&mut Shard) -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        loop {
            let index = route();
            let gauge = &self.gauges[index];
            let depth = gauge.enqueued();
            let arrived_ns = ses_obs::now_ns();
            let locked = self.lock(index);
            let picked_ns = ses_obs::now_ns();
            let waited = picked_ns.saturating_sub(arrived_ns);
            let aux = [depth, index as u64];
            ses_obs::record_span(Stage::Queue, arrived_ns, waited, OpsDelta::default(), aux);
            let shard = match locked {
                Ok(shard) if route() == index => shard,
                // A rebalance moved the session while this op waited.
                Ok(_) => {
                    gauge.abandoned();
                    continue;
                }
                Err(e) => {
                    gauge.abandoned();
                    return Err(e);
                }
            };
            let was_unsynced = shard.unsynced();
            // The guard moves into the closure, so a panic drops it while
            // unwinding — which is what poisons the lock.
            let ran = std::panic::catch_unwind(AssertUnwindSafe(move || {
                let mut shard = shard;
                let mut span = ses_obs::span(Stage::Service);
                span.set_aux(index as u64, depth);
                let result = op(&mut shard);
                (result, !was_unsynced && shard.unsynced())
            }));
            gauge.served(ses_obs::now_ns().saturating_sub(picked_ns));
            return match ran {
                Ok((result, newly_unsynced)) => {
                    if newly_unsynced {
                        self.sync.wake();
                    }
                    result
                }
                Err(_) => Err(failed(index)),
            };
        }
    }

    /// The interval-fsync loop (`--fsync interval:N`): syncs every WAL tail
    /// that is due, then sleeps until the earliest remaining one is due or
    /// an op leaves a shard with a fresh unsynced tail, so an idle shard
    /// still syncs within the interval. Returns once [`Self::drain`] runs.
    pub fn sync_wals(&self) {
        let mut flags = self.sync.lock();
        while !flags.stop {
            flags.woken = false;
            drop(flags);
            let mut next: Option<std::time::Duration> = None;
            for index in 0..self.len() {
                // A failed shard is out of service; its tail stays as is.
                let Ok(mut shard) = self.lock(index) else {
                    continue;
                };
                let Some(wal) = shard.wal.as_mut() else {
                    continue;
                };
                if let Err(e) = wal.flush_if_due() {
                    ses_obs::log(
                        ses_obs::Level::Warn,
                        "shard",
                        "interval WAL flush failed",
                        &[("shard", index.into()), ("error", e.to_string().into())],
                    );
                }
                if let Some(wait) = wal.sync_due_in() {
                    next = Some(next.map_or(wait, |n| n.min(wait)));
                }
            }
            let asleep = |f: &mut SyncFlags| !f.woken && !f.stop;
            flags = self.sync.lock();
            flags = match next {
                Some(wait) => {
                    let woke = self.sync.cv.wait_timeout_while(flags, wait, asleep);
                    woke.unwrap_or_else(PoisonError::into_inner).0
                }
                None => {
                    let woke = self.sync.cv.wait_while(flags, asleep);
                    woke.unwrap_or_else(PoisonError::into_inner)
                }
            };
        }
    }

    /// Graceful drain, once no connection is left: stops
    /// [`Self::sync_wals`] and makes every shard's WAL tail durable.
    pub fn drain(&self) {
        self.sync.lock().stop = true;
        self.sync.cv.notify_all();
        for index in 0..self.len() {
            let Ok(mut shard) = self.lock(index) else {
                continue;
            };
            if let Err(e) = shard.wal.as_mut().map_or(Ok(()), ShardWal::flush) {
                ses_obs::log(
                    ses_obs::Level::Warn,
                    "shard",
                    "final WAL flush failed",
                    &[("shard", index.into()), ("error", e.to_string().into())],
                );
            }
        }
    }
}

/// Wake-ups for [`Shards::sync_wals`].
#[derive(Default)]
struct WalSync {
    flags: Mutex<SyncFlags>,
    cv: Condvar,
}

#[derive(Default)]
struct SyncFlags {
    /// An op left a shard with a fresh unsynced tail since the last scan.
    woken: bool,
    /// The server is draining.
    stop: bool,
}

impl WalSync {
    // Two plain flags: a panic elsewhere cannot leave them inconsistent.
    fn lock(&self) -> MutexGuard<'_, SyncFlags> {
        self.flags.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wake(&self) {
        self.lock().woken = true;
        self.cv.notify_one();
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

    fn in_memory(shards: usize) -> Shards {
        Shards::boot(
            &InstanceRegistry::new(),
            (0..shards).map(|_| None).collect(),
        )
        .unwrap()
    }

    #[test]
    fn a_panic_under_a_shard_lock_fails_that_shard_only() {
        let shards = in_memory(2);
        let sessions = |index| shards.run(|| index, |s| Ok(s.service.session_names().len()));
        assert_eq!(sessions(0), Ok(0));

        let panicked = shards.run(
            || 0,
            |_| -> Result<(), ApiError> { panic!("bug mid-apply") },
        );
        let err = panicked.unwrap_err();
        assert_eq!((err.status, err.kind), (503, "shard_failed"));
        // The poisoned lock keeps answering 503; it is never recovered.
        let err = sessions(0).unwrap_err();
        assert_eq!((err.status, err.kind), (503, "shard_failed"));
        assert!(shards.lock(0).is_err());

        assert_eq!(sessions(1), Ok(0), "shard 1 keeps serving");
        assert_eq!(shards.gauge(0).depth(), 0, "failed ops leave no depth");
        assert_eq!(shards.gauge(1).depth(), 0);
    }

    #[test]
    fn an_op_follows_a_route_that_moved_while_it_waited() {
        let shards = in_memory(2);
        // The first read routes to shard 0; the re-read under its lock
        // (and every read after) says the session now lives on shard 1.
        let reads = std::cell::Cell::new(0);
        let route = || {
            reads.set(reads.get() + 1);
            usize::from(reads.get() > 1)
        };
        let ran_on = shards.run(route, |s| Ok(std::ptr::from_ref(&*s)));
        let shard1 = std::ptr::from_ref(&*shards.lock(1).unwrap());
        assert_eq!(ran_on, Ok(shard1));
        assert_eq!(
            (shards.gauge(0).handled(), shards.gauge(1).handled()),
            (0, 1)
        );
        assert_eq!(shards.gauge(0).depth(), 0);
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
