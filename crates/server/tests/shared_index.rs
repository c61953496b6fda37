//! Over the wire, every engine of an instance shares one index (DESIGN.md
//! §16): the first `/solve` builds it, later ones do not, a session's
//! disruptions never leak into another solve, and `/metrics` counts the
//! shared index once however many sessions read it.

use ses_server::{serve, HttpClient, MetricsReport, ServerConfig, TraceReport};
use ses_service::{SessionReport, SolveResponse};

fn test_server(shards: usize) -> ses_server::ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        io_threads: 2,
        users: 60,
        events: 16,
        intervals: 8,
        seed: 7,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

const SOLVE: &str = r#"{"spec":"Greedy","k":5}"#;

/// A `/solve` answer without its wall clock, Ω compared in bits.
fn solve(client: &mut HttpClient) -> (String, u64, bool, String, String) {
    let (status, body) = client.post("/solve", SOLVE).unwrap();
    assert_eq!(status, 200, "{body}");
    let r: SolveResponse = serde_json::from_str(&body).unwrap();
    (
        r.algorithm,
        r.total_utility.to_bits(),
        r.complete,
        format!("{:?}", r.counters),
        format!("{:?}", r.assignments),
    )
}

/// The stages of the last response's trace, with the `sweep` spans' aux.
fn last_trace(client: &mut HttpClient) -> (Vec<String>, Vec<u64>) {
    let trace = client.last_trace_id().expect("trace id echoed").to_owned();
    let (status, body) = client.get(&format!("/trace/{trace}")).unwrap();
    assert_eq!(status, 200, "{body}");
    let report: TraceReport = serde_json::from_str(&body).unwrap();
    let stages = report.spans.iter().map(|s| s.stage.clone()).collect();
    let served = report
        .spans
        .iter()
        .filter(|s| s.stage == "sweep")
        .map(|s| s.aux_b)
        .collect();
    (stages, served)
}

#[test]
fn the_first_solve_builds_the_index_and_later_ones_reuse_it() {
    let handle = test_server(2);
    let mut client = HttpClient::new(handle.addr().to_string());
    let first = solve(&mut client);
    let (stages, served) = last_trace(&mut client);
    for stage in ["solve", "build", "index", "columns", "runs", "sweep"] {
        assert!(stages.iter().any(|s| s == stage), "{stage} in {stages:?}");
    }
    assert_eq!(served, [0], "the first sweep is computed");

    for _ in 0..2 {
        assert_eq!(solve(&mut client), first);
        let (stages, served) = last_trace(&mut client);
        assert!(stages.iter().any(|s| s == "build"), "{stages:?}");
        for stage in ["index", "columns", "runs"] {
            assert!(!stages.iter().any(|s| s == stage), "{stage} in {stages:?}");
        }
        assert_eq!(served, [1], "later sweeps are served from the index");
    }
    handle.shutdown();
}

#[test]
fn session_disruptions_never_reach_a_later_solve() {
    let handle = test_server(2);
    let mut client = HttpClient::new(handle.addr().to_string());
    let before = solve(&mut client);

    let open = r#"{"name":"s","spec":"Greedy","k":6}"#;
    let (status, body) = client.post("/sessions/s/open", open).unwrap();
    assert_eq!(status, 200, "{body}");
    let opened: SolveResponse = serde_json::from_str(&body).unwrap();
    let cancelled = opened.assignments[0].event.index();
    let postings: Vec<String> = (0..40).map(|u| format!("[{u},0.9]")).collect();
    for event in [
        format!(
            r#"{{"Announce":{{"interval":{},"postings":[{}]}}}}"#,
            opened.assignments[1].interval.index(),
            postings.join(",")
        ),
        r#"{"Capacity":{"budget":4.0}}"#.to_owned(),
        format!(r#"{{"Cancel":{{"event":{cancelled}}}}}"#),
    ] {
        let (status, body) = client.post("/sessions/s/event", &event).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(r#""applied":true"#), "{event}: {body}");
    }

    assert_eq!(solve(&mut client), before);
    handle.shutdown();
}

#[test]
fn metrics_count_a_shared_index_once() {
    let handle = test_server(2);
    let mut client = HttpClient::new(handle.addr().to_string());
    let names = ["a", "b", "c", "d"];
    let mut reports = Vec::new();
    for name in names {
        let open = format!(r#"{{"name":"{name}","spec":"Greedy","k":4}}"#);
        let (status, body) = client
            .post(&format!("/sessions/{name}/open"), &open)
            .unwrap();
        assert_eq!(status, 200, "{body}");
    }
    for name in names {
        let (status, body) = client
            .post(&format!("/sessions/{name}/report"), "")
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let report: SessionReport = serde_json::from_str(&body).unwrap();
        reports.push(report.memory);
    }
    let index_bytes = reports[0].index_bytes;
    assert!(index_bytes > 0);
    assert!(reports.iter().all(|m| m.index_bytes == index_bytes));
    let state_bytes: u64 = reports.iter().map(|m| m.state_bytes).sum();

    let (status, body) = client.get("/metrics").unwrap();
    assert_eq!(status, 200, "{body}");
    let metrics: MetricsReport = serde_json::from_str(&body).unwrap();
    assert_eq!(metrics.engine.sessions, 4);
    assert_eq!(metrics.engine.resident_bytes, state_bytes + index_bytes);
    let by_shard: u64 = metrics.shards_detail.iter().map(|s| s.resident_bytes).sum();
    assert_eq!(
        by_shard, metrics.engine.resident_bytes,
        "shard lines add up"
    );
    handle.shutdown();
}
