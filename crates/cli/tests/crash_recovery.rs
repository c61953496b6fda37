//! The kill -9 test: a real `ses serve` child process, killed without
//! warning halfway through a recorded disruption stream, restarted on the
//! same `--wal-dir` — and the resumed replay must produce the same trace
//! digest, bit for bit, as the uninterrupted in-process simulation. This
//! is the out-of-process proof of the recovery-equals-replay argument
//! (DESIGN.md §13); the in-process variants live in `ses-server`'s
//! `durability_integration` tests. A second kill -9 test pins what the
//! WAL keeps of rejected opens.

use ses_durable::RecoveryReport;
use ses_server::{
    drive_range, finish_replay, open_server_session, prepare_replay, HttpClient, ReplayConfig,
};
use ses_service::SessionReport;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Scratch WAL directory, wiped on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("ses-crash-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `ses serve` child that is SIGKILLed on drop (tests must never leak a
/// listener, least of all on a failing assertion).
struct Server(std::process::Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `ses serve` with a fixed universe on `addr`, WAL-backed with
/// per-record fsync (the strictest policy — every acked event must survive
/// the kill) and a snapshot every 8 events, so the kill and the resumed
/// replay cross several snapshot records.
fn spawn_server(addr: &str, wal_dir: &std::path::Path) -> Server {
    let child = Command::new(env!("CARGO_BIN_EXE_ses"))
        .args([
            "serve",
            "--addr",
            addr,
            "--shards",
            "2",
            "--io-threads",
            "2",
            "--users",
            "60",
            "--events",
            "16",
            "--intervals",
            "8",
            "--seed",
            "7",
            "--wal-dir",
            wal_dir.to_str().unwrap(),
            "--fsync",
            "per-record",
            "--snapshot-every",
            "8",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ses serve");
    Server(child)
}

/// Polls `/healthz` until the server answers (fresh connection per try —
/// the listener may not exist yet).
fn wait_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let mut client = HttpClient::new(addr.to_owned());
        if let Ok((200, _)) = client.get("/healthz") {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "server on {addr} never became healthy"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Reserves a port, then frees it for the child. (The tiny window between
/// drop and bind is the standard ephemeral-port test idiom.)
fn free_addr() -> String {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    probe.local_addr().unwrap().to_string()
}

#[test]
fn kill_dash_nine_mid_stream_recovers_to_a_bit_identical_replay() {
    let scratch = Scratch::new("replay");
    let addr = free_addr();

    let server = spawn_server(&addr, &scratch.0);
    wait_ready(&addr);

    let cfg = ReplayConfig {
        steps: 60,
        k: 8,
        session: "crash-replay".to_owned(),
        ..ReplayConfig::default()
    };
    let mut client = HttpClient::new(addr.clone());
    let session = prepare_replay(&mut client, &cfg).expect("reference simulation");
    let mut state = open_server_session(&mut client, &cfg, &session).expect("server arm open");
    let half = session.recorded.len() / 2;
    drive_range(&mut client, &cfg, &session, &mut state, 0, half).expect("first half");
    assert_eq!(
        state.trace.digest(),
        session.sim_trace.digest_prefix(half),
        "prefix digests must agree before the crash"
    );

    // kill -9: no drain, no flush hooks, no goodbye. Every event above was
    // acked, and per-record fsync means every ack is on disk.
    drop(server);

    let server = spawn_server(&addr, &scratch.0);
    wait_ready(&addr);
    let mut client = HttpClient::new(addr);
    drive_range(
        &mut client,
        &cfg,
        &session,
        &mut state,
        half,
        session.recorded.len(),
    )
    .expect("second half after recovery");
    let check = finish_replay(&mut client, &cfg, &session, &state).expect("final comparison");
    assert!(
        check.matches,
        "recovered replay diverged: server {:#018x} vs sim {:#018x}",
        check.server_digest, check.sim_digest
    );
    assert!(
        check.utility_bits_match,
        "final utility bits diverged after recovery"
    );
    // Recovery left its reports on disk for the operator.
    assert!(
        (0..2).any(|i| scratch
            .0
            .join(format!("shard-{i}"))
            .join("recovery.json")
            .exists()),
        "no recovery.json written by the restarted server"
    );
    drop(server);
}

fn post(client: &mut HttpClient, path: &str, body: &str) -> (u16, String) {
    client.post(path, body).expect("request")
}

fn open_body(name: &str, k: usize) -> String {
    format!(r#"{{"name":"{name}","spec":"Greedy","k":{k}}}"#)
}

/// What recovery must reproduce of a session: its report minus nothing
/// that replay could legitimately change.
fn report_state(client: &mut HttpClient, name: &str) -> (u64, usize, u64, u64) {
    let (status, body) = post(client, &format!("/sessions/{name}/report"), "");
    assert_eq!(status, 200, "report {name}: {body}");
    let report: SessionReport = serde_json::from_str(&body).unwrap();
    (
        report.utility.to_bits(),
        report.scheduled,
        report.events_applied,
        report.clock,
    )
}

#[test]
fn kill_dash_nine_keeps_first_opens_and_never_logs_failed_ones() {
    let scratch = Scratch::new("opens");
    let addr = free_addr();
    let server = spawn_server(&addr, &scratch.0);
    wait_ready(&addr);
    let mut client = HttpClient::new(addr.clone());

    let (status, body) = post(&mut client, "/sessions/first/open", &open_body("first", 4));
    assert_eq!(status, 200, "{body}");
    let (status, body) = post(&mut client, "/sessions/first/event", "\"Extend\"");
    assert_eq!(status, 200, "{body}");
    // A duplicate open is logged, then rejected by the shard.
    let (status, body) = post(&mut client, "/sessions/first/open", &open_body("first", 7));
    assert_eq!(status, 409, "{body}");
    // An open whose solve fails (k > |E| = 16) is rejected before the
    // shard sees it, so it leaves no record; a valid reopen of the same
    // name is then the session's one open record.
    let (status, body) = post(&mut client, "/sessions/late/open", &open_body("late", 99));
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(&mut client, "/sessions/late/open", &open_body("late", 5));
    assert_eq!(status, 200, "{body}");
    let first = report_state(&mut client, "first");
    let late = report_state(&mut client, "late");

    drop(server); // kill -9
    let server = spawn_server(&addr, &scratch.0);
    wait_ready(&addr);
    let mut client = HttpClient::new(addr);
    assert_eq!(report_state(&mut client, "first"), first);
    assert_eq!(report_state(&mut client, "late"), late);
    for shard in 0..2 {
        let path = scratch
            .0
            .join(format!("shard-{shard}"))
            .join("recovery.json");
        let json = std::fs::read_to_string(&path).expect("recovery.json");
        let report: RecoveryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report.sessions_failed, 0, "{json}");
    }
    drop(server);
}
