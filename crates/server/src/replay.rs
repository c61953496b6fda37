//! The server-vs-simulator determinism check.
//!
//! `ses-sim` proves the *in-process* stack deterministic by running a
//! disruption stream twice and comparing trace digests. This module closes
//! the remaining gap — the network front end — by recording the exact
//! stream an in-process simulation applied, replaying it against a live
//! server session opened over the *same* workload instance, reconstructing
//! the trace from the wire-level [`EventReport`]s, and comparing digests
//! bit for bit. A matching digest certifies that HTTP framing, JSON
//! round-trips, shard routing and the service facade changed nothing about
//! the schedule's evolution.
//!
//! The check is built from resumable pieces — [`prepare_replay`] (the
//! reference simulation), [`open_server_session`], [`drive_range`], and
//! [`finish_replay`] — so the crash-recovery test can drive part of the
//! stream, `kill -9` the server, restart it on the same `--wal-dir`, and
//! *resume* driving where it stopped: if recovery truly equals replay, the
//! final digest still matches the uninterrupted simulation bit for bit.
//! [`verify_replay`] runs the whole sequence in one call.
//!
//! [`EventReport`]: ses_service::EventReport

use crate::client::HttpClient;
use crate::server::HealthReport;
use serde::{Deserialize, Serialize};
use ses_core::testkit::workload_instance;
use ses_core::SchedulerSpec;
use ses_service::{Availability, EventReport, SchedulerService, SessionEvent, SessionOpen};
use ses_sim::{scenario_by_name, Simulator, TimedDisruption, Trace, TraceRecord, SCENARIO_NAMES};

/// What stream to replay. The instance itself comes from the server's
/// `/healthz` (users/events/intervals/seed), so the two sides cannot
/// silently disagree about the universe.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// Scenario name (see [`ses_sim::SCENARIO_NAMES`]).
    pub scenario: String,
    /// Disruptions to record and replay.
    pub steps: u64,
    /// Scenario seed.
    pub seed: u64,
    /// Algorithm for the initial schedule.
    pub spec: SchedulerSpec,
    /// Initial schedule size.
    pub k: usize,
    /// Fraction of unscheduled candidates withheld as late arrivals.
    pub holdback: f64,
    /// Server-side session name used during the replay.
    pub session: String,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            scenario: "flash-crowd".to_owned(),
            steps: 200,
            seed: 0,
            spec: SchedulerSpec::Greedy,
            k: 20,
            holdback: 0.3,
            session: "replay-check".to_owned(),
        }
    }
}

/// The verdict: both digests, plus the bit-level final-utility comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigestCheck {
    /// Disruptions replayed.
    pub steps: u64,
    /// Digest of the in-process simulator trace.
    pub sim_digest: u64,
    /// Digest of the trace reconstructed from server responses.
    pub server_digest: u64,
    /// Whether the digests match bit for bit.
    pub matches: bool,
    /// Whether the final utility Ω agrees to the last bit as well.
    pub utility_bits_match: bool,
}

/// The reference arm of the check, fully materialized: the open request
/// both arms issue, the recorded disruption stream, and the in-process
/// simulation's trace. Everything here is computed once, *before* any
/// server-side driving — which is what lets the crash test compare
/// against it across a server restart.
#[derive(Debug, Clone)]
pub struct ReplaySession {
    /// The open request (identical on both arms).
    pub open: SessionOpen,
    /// Solver-reported Ω of the initial schedule.
    pub initial_utility: f64,
    /// Candidates withheld as late arrivals (replayed before step 0).
    pub withheld: Vec<ses_core::EventId>,
    /// The recorded disruption stream, in step order.
    pub recorded: Vec<TimedDisruption>,
    /// The reference simulation's full trace.
    pub sim_trace: Trace,
    /// The reference simulation's final utility Ω.
    pub sim_final_utility: f64,
}

impl ReplaySession {
    /// Digest of the full reference trace.
    pub fn sim_digest(&self) -> u64 {
        self.sim_trace.digest()
    }
}

/// The server arm's progress: the trace reconstructed so far and the
/// running utility inert steps record. Survives a server restart — only
/// the HTTP client is tied to one server process.
#[derive(Debug, Clone)]
pub struct ServerArmState {
    /// Trace rebuilt from the server's [`EventReport`]s so far.
    pub trace: Trace,
    /// The session's running utility after the last driven step.
    pub last_utility: f64,
}

/// Builds the reference arm: reads the server's universe from `/healthz`,
/// rebuilds the instance, opens an in-process session, and records the
/// scenario's disruption stream through the simulator.
pub fn prepare_replay(
    client: &mut HttpClient,
    cfg: &ReplayConfig,
) -> Result<ReplaySession, String> {
    let Some(_) = scenario_by_name(&cfg.scenario, cfg.seed) else {
        return Err(format!(
            "unknown scenario '{}' (expected one of: {})",
            cfg.scenario,
            SCENARIO_NAMES.join(", ")
        ));
    };

    // The server's universe, from its own mouth.
    let (status, body) = client
        .get("/healthz")
        .map_err(|e| format!("GET /healthz failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /healthz answered {status}: {body}"));
    }
    let health: HealthReport =
        serde_json::from_str(&body).map_err(|e| format!("bad /healthz body: {e}"))?;
    let inst = workload_instance(
        health.users as usize,
        health.events as usize,
        health.intervals as usize,
        health.seed,
    );

    // In-process arm: open a session through the service (the same call
    // the server's open endpoint makes), record the stream it applies.
    let k = cfg.k.min(health.events as usize);
    let open = SessionOpen {
        name: cfg.session.clone(),
        spec: cfg.spec,
        k,
        instance: Default::default(),
    };
    let mut service = SchedulerService::new();
    let initial = service
        .open_session(&inst, &open)
        .map_err(|e| format!("in-process open failed: {e}"))?;
    let scenario = scenario_by_name(&cfg.scenario, cfg.seed)
        .ok_or_else(|| format!("scenario '{}' vanished between checks", cfg.scenario))?;
    let mut sim = Simulator::over_service(service, cfg.session.clone(), vec![scenario])
        .map_err(|e| e.to_string())?;
    let withheld = sim.withhold_fraction(cfg.holdback);
    sim.set_recording(true);
    let summary = sim.run(cfg.steps);
    let recorded = sim.take_recorded();
    Ok(ReplaySession {
        open,
        initial_utility: initial.total_utility,
        withheld,
        recorded,
        sim_trace: sim.trace().clone(),
        sim_final_utility: summary.final_utility,
    })
}

/// Opens the server-side session and brings it to step 0: posts the open
/// (self-healing a 409 left by an earlier failed replay), checks the
/// initial Ω bit-for-bit, posts the withheld-candidate events, and seeds
/// the running utility from a live report.
pub fn open_server_session(
    client: &mut HttpClient,
    cfg: &ReplayConfig,
    session: &ReplaySession,
) -> Result<ServerArmState, String> {
    let open_body = serde_json::to_string(&session.open).map_err(|e| e.to_string())?;
    let open_path = format!("/sessions/{}/open", cfg.session);
    let close_path = format!("/sessions/{}/close", cfg.session);
    let (mut status, mut body) = client
        .post(&open_path, &open_body)
        .map_err(|e| format!("open request failed: {e}"))?;
    if status == 409 {
        // A previous replay against this long-lived server failed midway
        // and left its session behind; clear it and retry once.
        let _ = client.post(&close_path, "");
        (status, body) = client
            .post(&open_path, &open_body)
            .map_err(|e| format!("open retry failed: {e}"))?;
    }
    if status != 200 {
        return Err(format!("server open answered {status}: {body}"));
    }
    let server_initial: ses_service::SolveResponse =
        serde_json::from_str(&body).map_err(|e| format!("bad open response: {e}"))?;
    if server_initial.total_utility.to_bits() != session.initial_utility.to_bits() {
        return Err(format!(
            "initial schedules differ before any disruption (server Ω {} vs local Ω {}) — \
             instance or solver mismatch",
            server_initial.total_utility, session.initial_utility
        ));
    }

    for &event in &session.withheld {
        let ev = SessionEvent::SetAvailable(Availability {
            event,
            available: false,
        });
        let body = serde_json::to_string(&ev).map_err(|e| e.to_string())?;
        let (status, resp) = client
            .post(&format!("/sessions/{}/event", cfg.session), &body)
            .map_err(|e| format!("withhold request failed: {e}"))?;
        if status != 200 {
            return Err(format!("server withhold answered {status}: {resp}"));
        }
    }

    // Inert steps record the session's *own* running utility (which can
    // differ from the solver-reported Ω in the last bits — the session's
    // engine re-derives it), so seed the running value from the live
    // session, not from the solve response.
    let (status, resp) = client
        .post(&format!("/sessions/{}/report", cfg.session), "")
        .map_err(|e| format!("report request failed: {e}"))?;
    if status != 200 {
        return Err(format!("server report answered {status}: {resp}"));
    }
    let baseline: ses_service::SessionReport =
        serde_json::from_str(&resp).map_err(|e| format!("bad report response: {e}"))?;
    Ok(ServerArmState {
        trace: Trace::new(),
        last_utility: baseline.utility,
    })
}

/// Drives recorded steps `[from, to)` against the live server, extending
/// `state.trace` with the records reconstructed from the wire replies.
/// Resumable: after a crash and recovery, call again with `from` equal to
/// the number of steps already driven.
pub fn drive_range(
    client: &mut HttpClient,
    cfg: &ReplayConfig,
    session: &ReplaySession,
    state: &mut ServerArmState,
    from: usize,
    to: usize,
) -> Result<(), String> {
    let to = to.min(session.recorded.len());
    for (step, timed) in session.recorded[from..to].iter().enumerate() {
        let step = from + step;
        let event = timed.disruption.to_session_event();
        let body = serde_json::to_string(&event).map_err(|e| e.to_string())?;
        let (status, resp) = client
            .post(&format!("/sessions/{}/event", cfg.session), &body)
            .map_err(|e| format!("event request failed at step {step}: {e}"))?;
        if status != 200 {
            return Err(format!(
                "server event at step {step} answered {status}: {resp}"
            ));
        }
        let report: EventReport =
            serde_json::from_str(&resp).map_err(|e| format!("bad event response: {e}"))?;
        // The simulator records a step as applied only when a repair ran
        // (see `Simulator::apply`); mirror that here exactly.
        let record = match &report.report {
            Some(r) => TraceRecord {
                step: step as u64,
                tick: timed.at,
                kind: timed.disruption.kind(),
                applied: true,
                utility_before: r.utility_before,
                utility_disrupted: r.utility_disrupted,
                utility_after: r.utility_after,
                moves: r.moves.len() as u32,
            },
            None => TraceRecord {
                step: step as u64,
                tick: timed.at,
                kind: timed.disruption.kind(),
                applied: false,
                utility_before: state.last_utility,
                utility_disrupted: state.last_utility,
                utility_after: state.last_utility,
                moves: 0,
            },
        };
        state.trace.push(record);
        state.last_utility = report.utility;
    }
    Ok(())
}

/// Finishes the server arm: reads the session's final utility, closes the
/// session, and compares both traces. The comparison is the caller's
/// verdict — [`DigestCheck::matches`] — not an assumption.
pub fn finish_replay(
    client: &mut HttpClient,
    cfg: &ReplayConfig,
    session: &ReplaySession,
    state: &ServerArmState,
) -> Result<DigestCheck, String> {
    let (status, resp) = client
        .post(&format!("/sessions/{}/report", cfg.session), "")
        .map_err(|e| format!("final report request failed: {e}"))?;
    if status != 200 {
        return Err(format!("server final report answered {status}: {resp}"));
    }
    let final_report: ses_service::SessionReport =
        serde_json::from_str(&resp).map_err(|e| format!("bad final report response: {e}"))?;
    let _ = client.post(&format!("/sessions/{}/close", cfg.session), "");
    let sim_digest = session.sim_digest();
    let server_digest = state.trace.digest();
    Ok(DigestCheck {
        steps: session.recorded.len() as u64,
        sim_digest,
        server_digest,
        matches: sim_digest == server_digest,
        utility_bits_match: final_report.utility.to_bits() == session.sim_final_utility.to_bits(),
    })
}

/// Runs the full check against a live server. Fails with a description if
/// the server rejects any request or the universes do not line up; a clean
/// run returns the two digests (which the caller should still compare —
/// [`DigestCheck::matches`] — rather than assume).
pub fn verify_replay(client: &mut HttpClient, cfg: &ReplayConfig) -> Result<DigestCheck, String> {
    let session = prepare_replay(client, cfg)?;
    let mut state = open_server_session(client, cfg, &session)?;
    // From here the server session exists: close it on every exit, or a
    // transient failure would wedge all later replays with 409s.
    let driven = drive_range(client, cfg, &session, &mut state, 0, session.recorded.len())
        .and_then(|()| finish_replay(client, cfg, &session, &state));
    match driven {
        Ok(check) => Ok(check),
        Err(e) => {
            let _ = client.post(&format!("/sessions/{}/close", cfg.session), "");
            Err(e)
        }
    }
}
