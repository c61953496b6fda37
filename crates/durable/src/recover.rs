//! Boot-time (and migration-time) recovery: replaying a [`RecoveredLog`]
//! through the live [`SchedulerService`].
//!
//! Recovery *is* replay: for each recovered session the original
//! [`SessionOpen`] is re-issued (the solver is deterministic, so the
//! initial schedule is bit-identical), then every journaled event flows
//! through [`SchedulerService::apply`] — the same code path that produced
//! the pre-crash state, validated end-to-end by the server-vs-sim trace
//! digest oracle. Events the service rejected before the crash are
//! rejected identically on replay and counted, never fatal. After the
//! snapshot-covered prefix replays, the snapshot's integrity checks
//! (schedule size, utility Ω bit pattern) are verified before the WAL tail
//! is applied.
//!
//! [`SessionOpen`]: ses_service::SessionOpen
//! [`SchedulerService::apply`]: ses_service::SchedulerService::apply

use crate::wal::{RecoveredLog, RecoveredSession};
use serde::{Deserialize, Serialize};
use ses_service::{InstanceRegistry, SchedulerService};
use std::path::Path;

/// What one shard's recovery did, serialized as `recovery.json` in the
/// shard's WAL directory so post-crash state is inspectable (and a CI
/// artifact).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Sessions rebuilt and live again.
    pub sessions_recovered: u64,
    /// Sessions whose open could not be replayed (unknown instance, solver
    /// failure) — listed in `errors`.
    pub sessions_failed: u64,
    /// Events re-applied through the service.
    pub events_replayed: u64,
    /// Events the service rejected on replay (it rejected them before the
    /// crash too — see the write-ahead ordering note in the WAL docs).
    pub events_rejected: u64,
    /// Records skipped during the disk scan (unknown or closed sessions).
    pub records_skipped: u64,
    /// Torn-tail description when the last segment was truncated.
    #[serde(default)]
    pub torn_tail: Option<String>,
    /// Sessions recovered from a snapshot record whose integrity checks
    /// were verified (failures included).
    #[serde(default)]
    pub snapshot_checks: u64,
    /// Snapshot integrity-check failures (session kept, tail still
    /// applied; the digest oracle is the final arbiter).
    #[serde(default)]
    pub check_failures: Vec<String>,
    /// Scan and replay errors, human-readable.
    #[serde(default)]
    pub errors: Vec<String>,
    /// Highest LSN found on disk.
    pub max_lsn: u64,
}

impl RecoveryReport {
    /// Writes the report as pretty JSON into `dir/recovery.json`
    /// (best-effort value for operators and CI artifacts; the returned
    /// error is informational).
    pub fn write_json(&self, dir: &Path) -> Result<(), String> {
        let path = dir.join("recovery.json");
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Replays one recovered session into the service. Returns the error text
/// when the open itself fails (the session is then not live).
fn replay_session(
    service: &mut SchedulerService,
    registry: &InstanceRegistry,
    session: &RecoveredSession,
    report: &mut RecoveryReport,
) -> Result<(), String> {
    let mut span = ses_obs::span(ses_obs::Stage::Recover);
    let instance = registry
        .get(session.open.instance.as_str())
        .map_err(|e| format!("session '{}': instance: {e}", session.name))?;
    service
        .open_session(&instance, &session.open)
        .map_err(|e| format!("session '{}': open replay: {e}", session.name))?;
    let mut replayed = 0u64;
    for event in &session.snapshot_events {
        match service.apply(&session.name, event) {
            Ok(_) => report.events_replayed += 1,
            Err(e) => {
                report.events_rejected += 1;
                ses_obs::log(
                    ses_obs::Level::Debug,
                    "durable",
                    "replay rejected event (rejected identically before the crash)",
                    &[
                        ("session", ses_obs::FieldValue::Str(session.name.clone())),
                        ("error", ses_obs::FieldValue::Str(e.to_string())),
                    ],
                );
            }
        }
        replayed += 1;
    }
    if let Some(check) = session.check {
        report.snapshot_checks += 1;
        match service.report(&session.name) {
            Ok(state) => {
                let bits = state.utility.to_bits();
                if check.utility_bits.is_some_and(|b| b != bits)
                    || state.scheduled != check.scheduled
                {
                    report.check_failures.push(format!(
                        "session '{}': snapshot check mismatch at lsn {} \
                         (scheduled {} vs {}, utility bits {bits:#018x} vs {:#018x?})",
                        session.name,
                        session.snapshot_lsn,
                        state.scheduled,
                        check.scheduled,
                        check.utility_bits,
                    ));
                }
            }
            Err(e) => report.check_failures.push(format!(
                "session '{}': snapshot check report: {e}",
                session.name
            )),
        }
    }
    for event in &session.tail_events {
        match service.apply(&session.name, event) {
            Ok(_) => report.events_replayed += 1,
            Err(_) => report.events_rejected += 1,
        }
        replayed += 1;
    }
    span.set_aux(replayed, u64::from(session.check.is_some()));
    Ok(())
}

/// Replays every session in `log` through `service`, resolving instances
/// by name via `registry`. A session whose open fails is dropped with an
/// error in the report; everything else recovers. Never panics.
pub fn recover_sessions(
    service: &mut SchedulerService,
    registry: &InstanceRegistry,
    log: &RecoveredLog,
) -> RecoveryReport {
    let mut report = RecoveryReport {
        records_skipped: log.records_skipped,
        torn_tail: log.torn_tail.clone(),
        errors: log.scan_errors.clone(),
        max_lsn: log.max_lsn,
        ..RecoveryReport::default()
    };
    for session in &log.sessions {
        match replay_session(service, registry, session, &mut report) {
            Ok(()) => report.sessions_recovered += 1,
            Err(e) => {
                report.sessions_failed += 1;
                report.errors.push(e);
            }
        }
    }
    report
}
