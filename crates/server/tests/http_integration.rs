//! In-process loopback integration tests: a real server (listener, shard
//! workers, connection pool) and real TCP clients in one test process.

use ses_server::{
    serve, verify_replay, ErrorBody, HealthReport, HttpClient, InstancesReport, LoadgenConfig,
    MetricsReport, ReplayConfig, ServerConfig, TraceReport,
};
use ses_service::SessionReport;

/// A small server for fast tests; ephemeral port, tiny instance.
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

fn client_of(handle: &ses_server::ServerHandle) -> HttpClient {
    HttpClient::new(handle.addr().to_string())
}

fn open_body(name: &str, k: usize) -> String {
    format!(r#"{{"name":"{name}","spec":"Greedy","k":{k}}}"#)
}

#[test]
fn healthz_reports_the_instance_identity() {
    let handle = test_server(2);
    let mut client = client_of(&handle);
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let health: HealthReport = serde_json::from_str(&body).unwrap();
    assert_eq!(health.status, "ok");
    assert_eq!(
        (health.users, health.events, health.intervals, health.seed),
        (60, 16, 8, 7)
    );
    assert_eq!(health.shards, 2);
    handle.shutdown();
}

#[test]
fn solve_and_eval_round_trip_over_the_wire() {
    let handle = test_server(2);
    let mut client = client_of(&handle);
    let (status, body) = client.post("/solve", r#"{"spec":"Greedy","k":5}"#).unwrap();
    assert_eq!(status, 200, "{body}");
    let solved: ses_service::SolveResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(solved.scheduled(), 5);
    assert!(solved.total_utility > 0.0);

    // Feed the produced schedule back through /eval.
    let eval_req = serde_json::to_string(&ses_service::EvalRequest {
        assignments: solved.assignments.clone(),
        instance: Default::default(),
    })
    .unwrap();
    let (status, body) = client.post("/eval", &eval_req).unwrap();
    assert_eq!(status, 200, "{body}");
    let eval: ses_service::EvalResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(eval.total_utility.to_bits(), solved.total_utility.to_bits());
    handle.shutdown();
}

#[test]
fn session_lifecycle_open_event_report_close() {
    let handle = test_server(3);
    let mut client = client_of(&handle);
    let (status, body) = client
        .post("/sessions/main/open", &open_body("main", 4))
        .unwrap();
    assert_eq!(status, 200, "{body}");

    // An in-universe announcement hits the schedule.
    let (status, body) = client
        .post(
            "/sessions/main/event",
            r#"{"Announce":{"interval":0,"postings":[[0,0.9],[1,0.8]]}}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let report: ses_service::EventReport = serde_json::from_str(&body).unwrap();
    assert!(report.applied);

    let (status, body) = client.post("/sessions/main/report", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let report: SessionReport = serde_json::from_str(&body).unwrap();
    assert_eq!(report.name, "main");
    assert_eq!(report.events_applied, 1);
    assert!(report.counters.score_evaluations > 0, "counters surface");
    assert!(report.clock > 0, "engine clock surfaces");

    let (status, _) = client.post("/sessions/main/close", "").unwrap();
    assert_eq!(status, 200);
    // Closed means gone.
    let (status, body) = client.post("/sessions/main/report", "").unwrap();
    assert_eq!(status, 404, "{body}");
    handle.shutdown();
}

#[test]
fn malformed_json_answers_structured_400_not_a_dropped_connection() {
    let handle = test_server(1);
    let mut client = client_of(&handle);
    let (status, body) = client.post("/solve", "{not json").unwrap();
    assert_eq!(status, 400);
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "parse");
    assert!(err.error.contains("SolveRequest"));

    // The connection survives: the next request on the same socket works.
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);

    // Same for session events.
    let (status, _) = client.post("/sessions/s/open", &open_body("s", 2)).unwrap();
    assert_eq!(status, 200);
    let (status, body) = client
        .post("/sessions/s/event", r#"{"Announce":42}"#)
        .unwrap();
    assert_eq!(status, 400);
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "parse");
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn unknown_routes_and_methods_are_typed_errors() {
    let handle = test_server(1);
    let mut client = client_of(&handle);
    for (method, path, expected_kind, expected_status) in [
        ("GET", "/nope", "unknown_route", 404),
        ("POST", "/sessions/x", "unknown_route", 404),
        ("POST", "/sessions/x/frobnicate", "unknown_route", 404),
        ("GET", "/sessions/x/event", "method_not_allowed", 405),
        ("POST", "/sessions//open", "unknown_route", 404),
    ] {
        let (status, body) = client.request(method, path, Some("")).unwrap();
        assert_eq!(status, expected_status, "{method} {path}: {body}");
        let err: ErrorBody = serde_json::from_str(&body).unwrap();
        assert_eq!(err.kind, expected_kind, "{method} {path}");
    }
    // Unknown session names are 404s with their own kind.
    let (status, body) = client.post("/sessions/ghost/event", r#""Extend""#).unwrap();
    assert_eq!(status, 404);
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "unknown_session");
    handle.shutdown();
}

#[test]
fn oversized_bodies_get_413_before_parsing() {
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        io_threads: 1,
        max_body_bytes: 256,
        users: 30,
        events: 8,
        intervals: 4,
        seed: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = client_of(&handle);
    let huge = format!(r#"{{"padding":"{}"}}"#, "x".repeat(1024));
    let (status, body) = client.post("/solve", &huge).unwrap();
    assert_eq!(status, 413, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "body_too_large");
    // Under the cap still works (fresh connection; 413 closes the socket).
    let (status, _) = client.post("/solve", r#"{"spec":"Greedy","k":2}"#).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn open_name_must_match_the_path() {
    let handle = test_server(2);
    let mut client = client_of(&handle);
    let (status, body) = client
        .post("/sessions/alpha/open", &open_body("beta", 3))
        .unwrap();
    assert_eq!(status, 400, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "name_mismatch");
    // Opening the same name twice is a 409.
    let (status, _) = client
        .post("/sessions/alpha/open", &open_body("alpha", 3))
        .unwrap();
    assert_eq!(status, 200);
    let (status, body) = client
        .post("/sessions/alpha/open", &open_body("alpha", 3))
        .unwrap();
    assert_eq!(status, 409, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "session_exists");
    handle.shutdown();
}

#[test]
fn racing_close_then_event_is_a_clean_404() {
    let handle = test_server(2);

    // Sequential race shape first: close wins, the straggler event 404s.
    let mut client = client_of(&handle);
    let (status, _) = client
        .post("/sessions/race/open", &open_body("race", 3))
        .unwrap();
    assert_eq!(status, 200);
    let (status, _) = client.post("/sessions/race/close", "").unwrap();
    assert_eq!(status, 200);
    let (status, body) = client.post("/sessions/race/event", r#""Extend""#).unwrap();
    assert_eq!(status, 404, "{body}");

    // Now the concurrent shape: one thread streams events while another
    // closes. Every response must be 200 or a clean 404 — never a 5xx,
    // never a dropped connection — and the server must stay up.
    let mut client = client_of(&handle);
    let (status, _) = client
        .post("/sessions/race2/open", &open_body("race2", 3))
        .unwrap();
    assert_eq!(status, 200);
    let addr = handle.addr().to_string();
    let streamer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = HttpClient::new(addr);
            let mut seen = Vec::new();
            for _ in 0..50 {
                let (status, _) = client
                    .post("/sessions/race2/event", r#""Extend""#)
                    .expect("transport stays healthy");
                seen.push(status);
            }
            seen
        })
    };
    let closer = std::thread::spawn(move || {
        let mut client = HttpClient::new(addr);
        std::thread::sleep(std::time::Duration::from_millis(2));
        client
            .post("/sessions/race2/close", "")
            .expect("transport stays healthy")
            .0
    });
    let statuses = streamer.join().unwrap();
    let close_status = closer.join().unwrap();
    assert!(close_status == 200 || close_status == 404);
    assert!(
        statuses.iter().all(|&s| s == 200 || s == 404),
        "got {statuses:?}"
    );
    let (status, _) = client_of(&handle).get("/healthz").unwrap();
    assert_eq!(status, 200, "server survives the race");
    handle.shutdown();
}

#[test]
fn concurrent_clients_on_distinct_shards_do_not_interfere() {
    // More clients than pool workers (io_threads = 2), so this also
    // exercises the overflow path; shards = 4 so sessions spread out.
    let handle = test_server(4);
    let addr = handle.addr().to_string();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::new(addr);
                let name = format!("tenant-{i}");
                let (status, body) = client
                    .post(&format!("/sessions/{name}/open"), &open_body(&name, 3))
                    .unwrap();
                assert_eq!(status, 200, "{body}");
                // Apply a per-tenant number of extends, then read back.
                for _ in 0..=i {
                    let (status, _) = client
                        .post(&format!("/sessions/{name}/event"), r#""Extend""#)
                        .unwrap();
                    assert_eq!(status, 200);
                }
                let (status, body) = client
                    .post(&format!("/sessions/{name}/report"), "")
                    .unwrap();
                assert_eq!(status, 200);
                let report: SessionReport = serde_json::from_str(&body).unwrap();
                // Isolation: this session saw exactly its own events.
                assert_eq!(report.name, name);
                assert_eq!(report.events_applied, (i + 1) as u64);
                let (status, _) = client.post(&format!("/sessions/{name}/close"), "").unwrap();
                assert_eq!(status, 200);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("tenant thread");
    }
    handle.shutdown();
}

#[test]
fn metrics_expose_latency_histograms_and_engine_totals() {
    let handle = test_server(2);
    let mut client = client_of(&handle);
    let (status, _) = client.post("/sessions/m/open", &open_body("m", 3)).unwrap();
    assert_eq!(status, 200);
    for _ in 0..5 {
        let (status, _) = client.post("/sessions/m/event", r#""Extend""#).unwrap();
        assert_eq!(status, 200);
    }
    let (status, _) = client.post("/solve", "{bad").unwrap();
    assert_eq!(status, 400);

    let (status, body) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let report: MetricsReport = serde_json::from_str(&body).unwrap();
    assert_eq!(report.shards, 2);
    assert!(report.requests_2xx >= 6);
    assert!(report.requests_4xx >= 1);
    assert_eq!(report.requests_5xx, 0);
    let event_line = report
        .endpoints
        .iter()
        .find(|l| l.endpoint == "event")
        .expect("event endpoint served traffic");
    assert_eq!(event_line.count, 5);
    assert!(event_line.p50_micros <= event_line.p95_micros);
    assert!(event_line.p95_micros <= event_line.p99_micros);
    assert!(event_line.p99_micros <= event_line.max_micros);
    // Engine totals see the open session's work.
    assert_eq!(report.engine.sessions, 1);
    assert_eq!(report.engine.events_applied, 5);
    assert!(report.engine.counters.score_evaluations > 0);
    handle.shutdown();
}

#[test]
fn replayed_disruption_stream_matches_the_in_process_digest() {
    let handle = test_server(3);
    let mut client = client_of(&handle);
    for scenario in ["steady", "flash-crowd"] {
        let check = verify_replay(
            &mut client,
            &ReplayConfig {
                scenario: scenario.into(),
                steps: 150,
                seed: 11,
                k: 8,
                session: format!("replay-{scenario}"),
                ..ReplayConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("{scenario}: {e}"));
        assert_eq!(check.steps, 150, "{scenario}");
        assert!(
            check.matches,
            "{scenario}: server digest {:#018x} != sim digest {:#018x}",
            check.server_digest, check.sim_digest
        );
        assert!(check.utility_bits_match, "{scenario}");
    }
    handle.shutdown();
}

#[test]
fn slow_header_and_body_arrival_is_not_dropped() {
    use std::io::{Read, Write};
    // A client that dribbles: request line, a >250 ms pause (longer than
    // the server's idle poll tick), headers, another pause, then the body.
    // The request must still be answered, not silently dropped.
    let handle = test_server(1);
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"POST /solve HTTP/1.1\r\n").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(400));
    let body = r#"{"spec":"Greedy","k":2}"#;
    stream
        .write_all(
            format!(
                "Content-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(400));
    stream.write_all(body.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "slow client must still be served, got: {response}"
    );
    handle.shutdown();
}

#[test]
fn pipelined_requests_on_one_connection_are_answered_in_order() {
    use std::io::{Read, Write};
    let handle = test_server(1);
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    // Both requests in one write: the second sits in the server's read
    // buffer while the first is answered. The last one closes, so EOF
    // marks the end of everything the server sent.
    let body = r#"{"spec":"Greedy","k":2}"#;
    let requests = format!(
        "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
         POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(requests.as_bytes()).unwrap();
    let mut received = Vec::new();
    stream.read_to_end(&mut received).unwrap();

    // Frames one response off the front of `rest` by its Content-Length.
    let next_response = |rest: &mut &[u8]| -> (String, String) {
        let text = std::str::from_utf8(rest).unwrap();
        let (head, tail) = text.split_once("\r\n\r\n").expect("a complete head");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .parse()
            .unwrap();
        let body = tail[..len].to_owned();
        *rest = &rest[head.len() + 4 + len..];
        (head.lines().next().unwrap().to_owned(), body)
    };
    let mut rest = &received[..];
    let (status, health) = next_response(&mut rest);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let health: HealthReport = serde_json::from_str(&health).unwrap();
    assert_eq!(health.status, "ok");
    let (status, solved) = next_response(&mut rest);
    assert_eq!(status, "HTTP/1.1 200 OK", "{solved}");
    let solved: ses_service::SolveResponse = serde_json::from_str(&solved).unwrap();
    assert_eq!(solved.scheduled(), 2);
    assert!(
        rest.is_empty(),
        "stray bytes: {:?}",
        String::from_utf8_lossy(rest)
    );
    handle.shutdown();
}

/// Whether the trace of `client`'s last response holds a span of `stage`.
fn trace_has_stage(client: &mut HttpClient, stage: &str) -> bool {
    let trace = client.last_trace_id().expect("trace id echoed").to_owned();
    let (status, body) = client.get(&format!("/trace/{trace}")).unwrap();
    assert_eq!(status, 200, "{body}");
    let report: TraceReport = serde_json::from_str(&body).unwrap();
    report.spans.iter().any(|s| s.stage == stage)
}

#[test]
fn packed_tenant_serves_requests_and_instances_endpoint_tracks_it() {
    // Pack a second universe to disk, boot the server with it registered.
    let packed = std::env::temp_dir().join("ses-http-it-tenant-b.sesstore");
    let fixture = ses_core::testkit::workload_instance(40, 10, 6, 21);
    ses_core::store::pack_to_path(&fixture, &packed).unwrap();
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        io_threads: 2,
        users: 60,
        events: 16,
        intervals: 8,
        seed: 7,
        instances: vec![("tenant-b".to_owned(), packed.clone())],
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = client_of(&handle);

    // Registered but untouched: the packed entry must not be loaded yet.
    let (status, body) = client.get("/instances").unwrap();
    assert_eq!(status, 200, "{body}");
    let report: InstancesReport = serde_json::from_str(&body).unwrap();
    let names: Vec<&str> = report.instances.iter().map(|i| i.name.as_str()).collect();
    assert_eq!(names, ["default", "tenant-b"]);
    assert!(report.instances[0].loaded, "workload default is resident");
    assert_eq!(report.instances[0].source, "builtin");
    assert!(!report.instances[1].loaded, "packed entry stays lazy");
    assert_eq!(report.instances[1].source, packed.display().to_string());

    // First request naming the tenant cold-opens the file, inside a
    // `load` span of its trace; a later request finds it resident.
    let tenant_solve = r#"{"spec":"Greedy","k":3,"instance":"tenant-b"}"#;
    let (status, body) = client.post("/solve", tenant_solve).unwrap();
    assert_eq!(status, 200, "{body}");
    let solved: ses_service::SolveResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(solved.scheduled(), 3);
    assert!(trace_has_stage(&mut client, "load"), "cold open is a span");
    let (status, body) = client.post("/solve", tenant_solve).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(
        !trace_has_stage(&mut client, "load"),
        "warm get loads nothing"
    );
    let (_, body) = client.get("/instances").unwrap();
    let report: InstancesReport = serde_json::from_str(&body).unwrap();
    let b = report
        .instances
        .iter()
        .find(|i| i.name == "tenant-b")
        .unwrap();
    assert!(b.loaded, "first touch loads the packed file");
    assert_eq!((b.users, b.events, b.intervals), (40, 10, 6));

    // Unknown names are structured 404s listing what is registered.
    let (status, body) = client
        .post("/solve", r#"{"spec":"Greedy","k":2,"instance":"ghost"}"#)
        .unwrap();
    assert_eq!(status, 404, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "unknown_instance");
    assert!(
        err.error.contains("default") && err.error.contains("tenant-b"),
        "{}",
        err.error
    );

    // Sessions bind to their tenant and echo it in reports.
    let open = r#"{"name":"tb","spec":"Greedy","k":2,"instance":"tenant-b"}"#;
    let (status, body) = client.post("/sessions/tb/open", open).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client.post("/sessions/tb/report", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let report: SessionReport = serde_json::from_str(&body).unwrap();
    assert_eq!(report.instance.as_str(), "tenant-b");
    let (status, _) = client.post("/sessions/tb/close", "").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
    std::fs::remove_file(&packed).ok();
}

#[test]
fn multi_tenant_loadgen_breaks_latency_down_per_instance() {
    let packed = std::env::temp_dir().join("ses-http-it-loadgen-mix.sesstore");
    let fixture = ses_core::testkit::workload_instance(50, 12, 6, 3);
    ses_core::store::pack_to_path(&fixture, &packed).unwrap();
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        io_threads: 2,
        users: 60,
        events: 16,
        intervals: 8,
        seed: 7,
        instances: vec![("fixture".to_owned(), packed.clone())],
        ..ServerConfig::default()
    })
    .unwrap();

    let summary = ses_server::loadgen::run(&LoadgenConfig {
        addr: handle.addr().to_string(),
        clients: 2,
        requests: 12,
        instances: vec!["default".to_owned(), "fixture".to_owned()],
        ..LoadgenConfig::default()
    })
    .unwrap();
    assert_eq!(summary.errors, 0, "{:?}", summary.error_samples);
    let names: Vec<&str> = summary
        .per_instance
        .iter()
        .map(|l| l.instance.as_str())
        .collect();
    assert_eq!(names, ["default", "fixture"]);
    for line in &summary.per_instance {
        assert_eq!(line.clients, 1, "{}", line.instance);
        assert!(line.requests > 0, "{}", line.instance);
        assert_eq!(line.errors, 0, "{}", line.instance);
        assert!(line.p50_micros <= line.max_micros, "{}", line.instance);
    }
    handle.shutdown();
    std::fs::remove_file(&packed).ok();
}

#[test]
fn graceful_shutdown_drains_without_killing_in_flight_requests() {
    let handle = test_server(2);
    let mut client = client_of(&handle);
    let (status, _) = client.post("/solve", r#"{"spec":"Greedy","k":4}"#).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
    // The port is released: a fresh server can bind and serve again.
    let again = test_server(1);
    let (status, _) = client_of(&again).get("/healthz").unwrap();
    assert_eq!(status, 200);
    again.shutdown();
}
