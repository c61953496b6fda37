//! Durability integration tests: a WAL-backed server restarted on the same
//! `--wal-dir` must present bit-identical sessions, and a live rebalance
//! must move a session between shards without changing what it would
//! answer. (The out-of-process `kill -9` variant lives in the CLI crate's
//! `crash_recovery` test, which owns the `ses` binary.)

use ses_server::{
    drive_range, finish_replay, open_server_session, prepare_replay, serve, ErrorBody, FsyncPolicy,
    HttpClient, MetricsReport, RebalanceRequest, RebalanceResponse, ReplayConfig, ServerConfig,
    ServerHandle,
};
use ses_service::{EventReport, SessionReport};
use std::path::{Path, PathBuf};

/// Scratch WAL directory, wiped on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "ses-server-durability-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_server(shards: usize, wal_dir: &Path) -> ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        io_threads: 2,
        users: 60,
        events: 16,
        intervals: 8,
        seed: 7,
        wal_dir: Some(wal_dir.to_path_buf()),
        fsync: FsyncPolicy::Off, // tests exercise logging + replay, not disks
        ..ServerConfig::default()
    })
    .expect("bind durable test server")
}

fn client_of(handle: &ServerHandle) -> HttpClient {
    HttpClient::new(handle.addr().to_string())
}

fn open_body(name: &str, k: usize) -> String {
    format!(r#"{{"name":"{name}","spec":"Greedy","k":{k}}}"#)
}

/// A deterministic mix of in-universe events for the 60u/16e/8t instance.
fn event_bodies(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 4 {
            0 => format!(
                r#"{{"Announce":{{"interval":{},"postings":[[{},0.9],[{},0.7]]}}}}"#,
                i % 8,
                i % 60,
                (i + 13) % 60
            ),
            1 => format!(r#"{{"Cancel":{{"event":{}}}}}"#, i % 16),
            2 => format!(r#"{{"Arrive":{{"event":{}}}}}"#, (i + 5) % 16),
            _ => "\"Extend\"".to_owned(),
        })
        .collect()
}

fn post_ok(client: &mut HttpClient, path: &str, body: &str) -> String {
    let (status, resp) = client.post(path, body).unwrap();
    assert_eq!(status, 200, "POST {path}: {resp}");
    resp
}

fn report_of(client: &mut HttpClient, name: &str) -> SessionReport {
    let resp = post_ok(client, &format!("/sessions/{name}/report"), "");
    serde_json::from_str(&resp).unwrap()
}

#[test]
fn restart_on_the_same_wal_dir_recovers_sessions_bit_for_bit() {
    let scratch = Scratch::new("restart");
    let handle = durable_server(2, &scratch.0);
    let mut client = client_of(&handle);

    post_ok(&mut client, "/sessions/alpha/open", &open_body("alpha", 4));
    post_ok(&mut client, "/sessions/beta/open", &open_body("beta", 6));
    for (i, body) in event_bodies(18).iter().enumerate() {
        let name = if i % 3 == 0 { "beta" } else { "alpha" };
        let resp = post_ok(&mut client, &format!("/sessions/{name}/event"), body);
        let report: EventReport = serde_json::from_str(&resp).unwrap();
        assert!(report.lsn > 0, "durable server must ack with an LSN");
    }
    // A closed session must NOT come back after recovery.
    post_ok(&mut client, "/sessions/gone/open", &open_body("gone", 2));
    post_ok(&mut client, "/sessions/gone/close", "");

    let alpha_before = report_of(&mut client, "alpha");
    let beta_before = report_of(&mut client, "beta");
    handle.shutdown();

    let handle = durable_server(2, &scratch.0);
    let mut client = client_of(&handle);
    let alpha_after = report_of(&mut client, "alpha");
    let beta_after = report_of(&mut client, "beta");
    for (before, after) in [(&alpha_before, &alpha_after), (&beta_before, &beta_after)] {
        assert_eq!(
            before.utility.to_bits(),
            after.utility.to_bits(),
            "recovered utility must be bit-identical"
        );
        assert_eq!(before.scheduled, after.scheduled);
        assert_eq!(before.events_applied, after.events_applied);
        assert_eq!(before.clock, after.clock);
        assert!(after.durable, "recovered sessions report durable");
    }
    let (status, body) = client.post("/sessions/gone/report", "").unwrap();
    assert_eq!(status, 404, "closed session resurrected: {body}");

    // Recovery writes its report next to the shard WALs.
    let reports: Vec<_> = (0..2)
        .map(|i| scratch.0.join(format!("shard-{i}")).join("recovery.json"))
        .filter(|p| p.exists())
        .collect();
    assert!(!reports.is_empty(), "no recovery.json written");

    // The recovered server keeps absorbing events.
    let resp = post_ok(
        &mut client,
        "/sessions/alpha/event",
        r#"{"Announce":{"interval":3,"postings":[[2,0.8]]}}"#,
    );
    let report: EventReport = serde_json::from_str(&resp).unwrap();
    assert!(report.lsn > 0);
    handle.shutdown();
}

#[test]
fn metrics_and_loadgen_surface_the_wal_section() {
    let scratch = Scratch::new("metrics");
    let handle = durable_server(2, &scratch.0);
    let mut client = client_of(&handle);

    post_ok(&mut client, "/sessions/m/open", &open_body("m", 4));
    for body in event_bodies(8) {
        post_ok(&mut client, "/sessions/m/event", &body);
    }

    let (status, body) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let report: MetricsReport = serde_json::from_str(&body).unwrap();
    let wal = report.wal.expect("durable server reports a wal section");
    assert_eq!(wal.policy, "off");
    assert!(wal.records >= 9, "open + 8 events logged: {}", wal.records);
    assert!(wal.sessions >= 1);
    let append = wal.append.expect("append latency line");
    assert_eq!(append.endpoint, "wal_append");
    assert!(append.count >= 9);
    assert!(wal.fsync.is_none(), "no fsync line under --fsync off");

    let summary = ses_server::loadgen::run(&ses_server::LoadgenConfig {
        addr: handle.addr().to_string(),
        clients: 2,
        requests: 30,
        seed: 3,
        ..ses_server::LoadgenConfig::default()
    })
    .unwrap();
    assert_eq!(summary.errors, 0, "{:?}", summary.error_samples);
    let wal = summary.wal.expect("loadgen durability view");
    assert!(wal.durable_acks > 0, "event replies carried LSNs");
    assert!(wal.records > 0);
    handle.shutdown();
}

/// Under `--fsync interval:N` an idle shard must still sync its
/// acknowledged tail: the shard waits at most until the sync is due. The
/// interval is long enough that the open and the event (sent right after
/// boot) do not sync on their own, so only the idle-shard flush can make
/// `fsyncs` move.
#[test]
fn interval_fsync_syncs_an_idle_shard() {
    let scratch = Scratch::new("interval-idle");
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        io_threads: 1,
        users: 60,
        events: 16,
        intervals: 8,
        seed: 7,
        wal_dir: Some(scratch.0.clone()),
        fsync: FsyncPolicy::Interval { millis: 250 },
        ..ServerConfig::default()
    })
    .expect("bind durable test server");
    let mut client = client_of(&handle);
    post_ok(&mut client, "/sessions/idle/open", &open_body("idle", 4));
    post_ok(&mut client, "/sessions/idle/event", &event_bodies(1)[0]);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let fsyncs = loop {
        let (status, body) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        let report: MetricsReport = serde_json::from_str(&body).unwrap();
        let wal = report.wal.expect("durable server reports a wal section");
        assert_eq!(wal.policy, "interval:250");
        if wal.fsyncs >= 1 || std::time::Instant::now() >= deadline {
            break wal.fsyncs;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(fsyncs >= 1, "idle shard never synced its tail");
    handle.shutdown();
}

#[test]
fn rebalance_moves_a_live_session_and_preserves_its_answers() {
    let scratch = Scratch::new("rebalance");
    let handle = durable_server(2, &scratch.0);
    let mut client = client_of(&handle);

    post_ok(&mut client, "/sessions/mig/open", &open_body("mig", 5));
    post_ok(
        &mut client,
        "/sessions/bystander/open",
        &open_body("bystander", 3),
    );
    for body in event_bodies(12) {
        post_ok(&mut client, "/sessions/mig/event", &body);
    }
    let before = report_of(&mut client, "mig");

    // Park the session on shard 0 (possibly a no-op), then force a real
    // move to shard 1.
    let req = serde_json::to_string(&RebalanceRequest {
        session: "mig".to_owned(),
        target: 0,
    })
    .unwrap();
    post_ok(&mut client, "/admin/rebalance", &req);
    let req = serde_json::to_string(&RebalanceRequest {
        session: "mig".to_owned(),
        target: 1,
    })
    .unwrap();
    let resp = post_ok(&mut client, "/admin/rebalance", &req);
    let moved: RebalanceResponse = serde_json::from_str(&resp).unwrap();
    assert_eq!((moved.from, moved.to), (0, 1), "{resp}");
    assert!(moved.events_moved > 0, "{resp}");
    let migrated = moved.report.expect("migration returns the fresh report");
    assert_eq!(
        migrated.utility.to_bits(),
        before.utility.to_bits(),
        "migration must not change the session's utility"
    );
    assert_eq!(migrated.events_applied, before.events_applied);

    // The migrated session keeps answering on its new shard, and the
    // bystander was never disturbed.
    let after = report_of(&mut client, "mig");
    assert_eq!(after.utility.to_bits(), before.utility.to_bits());
    assert_eq!(after.scheduled, before.scheduled);
    post_ok(
        &mut client,
        "/sessions/mig/event",
        r#"{"Announce":{"interval":1,"postings":[[4,0.6]]}}"#,
    );
    let bystander = report_of(&mut client, "bystander");
    assert_eq!(bystander.name, "bystander");

    // And the moved session survives a restart from its new home.
    let final_report = report_of(&mut client, "mig");
    handle.shutdown();
    let handle = durable_server(2, &scratch.0);
    let mut client = client_of(&handle);
    let recovered = report_of(&mut client, "mig");
    assert_eq!(
        recovered.utility.to_bits(),
        final_report.utility.to_bits(),
        "post-migration session must recover bit-for-bit"
    );
    assert_eq!(recovered.events_applied, final_report.events_applied);
    handle.shutdown();
}

/// The strongest migration oracle: drive half of a recorded disruption
/// stream, migrate the session between shards mid-stream, drive the rest,
/// and require the full trace digest to match the uninterrupted in-process
/// simulation bit for bit — while a bystander session keeps answering.
#[test]
fn rebalance_mid_replay_preserves_the_trace_digest() {
    let scratch = Scratch::new("mid-replay");
    let handle = durable_server(2, &scratch.0);
    let mut client = client_of(&handle);
    post_ok(&mut client, "/sessions/aside/open", &open_body("aside", 3));

    let cfg = ReplayConfig {
        steps: 60,
        k: 8,
        session: "mig-replay".to_owned(),
        ..ReplayConfig::default()
    };
    let session = prepare_replay(&mut client, &cfg).unwrap();
    let mut state = open_server_session(&mut client, &cfg, &session).unwrap();
    let half = session.recorded.len() / 2;
    drive_range(&mut client, &cfg, &session, &mut state, 0, half).unwrap();
    assert_eq!(
        state.trace.digest(),
        session.sim_trace.digest_prefix(half),
        "prefix digests must already agree before the migration"
    );

    // Force a real move: park on shard 0 (maybe a no-op), then shard 1.
    for target in [0usize, 1] {
        let req = serde_json::to_string(&RebalanceRequest {
            session: cfg.session.clone(),
            target,
        })
        .unwrap();
        post_ok(&mut client, "/admin/rebalance", &req);
    }

    drive_range(
        &mut client,
        &cfg,
        &session,
        &mut state,
        half,
        session.recorded.len(),
    )
    .unwrap();
    let check = finish_replay(&mut client, &cfg, &session, &state).unwrap();
    assert!(
        check.matches,
        "digest diverged across a live migration: server {:#018x} vs sim {:#018x}",
        check.server_digest, check.sim_digest
    );
    assert!(check.utility_bits_match);
    let aside = report_of(&mut client, "aside");
    assert_eq!(aside.name, "aside", "bystander kept answering");
    handle.shutdown();
}

#[test]
fn rebalance_rejects_bad_requests_with_typed_errors() {
    // Not durable: rebalance is off.
    let plain = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        io_threads: 2,
        users: 60,
        events: 16,
        intervals: 8,
        seed: 7,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = client_of(&plain);
    let req = r#"{"session":"x","target":1}"#;
    let (status, body) = client.post("/admin/rebalance", req).unwrap();
    assert_eq!(status, 400, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "not_durable");
    plain.shutdown();

    let scratch = Scratch::new("errors");
    let handle = durable_server(2, &scratch.0);
    let mut client = client_of(&handle);

    // Target out of range.
    let (status, body) = client
        .post("/admin/rebalance", r#"{"session":"x","target":9}"#)
        .unwrap();
    assert_eq!(status, 400, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "bad_target");

    // Unknown session.
    let (status, body) = client
        .post("/admin/rebalance", r#"{"session":"ghost","target":0}"#)
        .unwrap();
    assert_eq!(status, 404, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "unknown_session");

    // Malformed body.
    let (status, body) = client.post("/admin/rebalance", "{nope").unwrap();
    assert_eq!(status, 400, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "parse");
    handle.shutdown();
}

/// Rebalances under live traffic: one thread keeps posting events to the
/// migrating session and to a bystander while the session moves back and
/// forth between shards. A request that waited on the source shard's lock
/// follows the session to its new shard, so every reply is a 200 — never
/// a 503 or a 404 — and the migrated session ends exactly where a control
/// session on a second server, fed the same events with no rebalance, ends.
#[test]
fn rebalance_under_live_traffic_loses_and_refuses_nothing() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let scratch = Scratch::new("live");
    let control_scratch = Scratch::new("live-control");
    let handle = durable_server(2, &scratch.0);
    let control = durable_server(2, &control_scratch.0);
    let mut control_client = client_of(&control);
    for c in [&mut client_of(&handle), &mut control_client] {
        post_ok(c, "/sessions/mig/open", &open_body("mig", 5));
        post_ok(c, "/sessions/bystander/open", &open_body("bystander", 3));
    }

    let events = event_bodies(400);
    let moves = AtomicUsize::new(0);
    let traffic_done = AtomicBool::new(false);
    let sent = std::thread::scope(|scope| {
        let traffic = scope.spawn(|| {
            let mut client = client_of(&handle);
            let mut sent = 0;
            // Keep posting until several moves overlapped the traffic.
            while sent < 40 || moves.load(Ordering::SeqCst) < 4 {
                let body = events.get(sent).expect("traffic outlasted the event list");
                for name in ["mig", "bystander"] {
                    let path = format!("/sessions/{name}/event");
                    let (status, resp) = client.post(&path, body).unwrap();
                    assert_eq!(status, 200, "POST {path} mid-rebalance: {resp}");
                }
                sent += 1;
            }
            traffic_done.store(true, Ordering::SeqCst);
            sent
        });
        let mut client = client_of(&handle);
        let mut target = 0;
        while !traffic_done.load(Ordering::SeqCst) && !traffic.is_finished() {
            target = 1 - target;
            let req = serde_json::to_string(&RebalanceRequest {
                session: "mig".to_owned(),
                target,
            })
            .unwrap();
            post_ok(&mut client, "/admin/rebalance", &req);
            moves.fetch_add(1, Ordering::SeqCst);
        }
        traffic.join().unwrap()
    });
    assert!(moves.load(Ordering::SeqCst) >= 4);

    for body in &events[..sent] {
        post_ok(&mut control_client, "/sessions/mig/event", body);
    }
    let mut client = client_of(&handle);
    let migrated = report_of(&mut client, "mig");
    let expected = report_of(&mut control_client, "mig");
    assert_eq!(migrated.utility.to_bits(), expected.utility.to_bits());
    assert_eq!(migrated.scheduled, expected.scheduled);
    assert_eq!(migrated.events_applied, expected.events_applied);
    assert_eq!(migrated.clock, expected.clock);
    assert_eq!(
        report_of(&mut client, "bystander").events_applied,
        sent as u64
    );
    handle.shutdown();
    control.shutdown();
}
