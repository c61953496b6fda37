//! End-to-end tracing tests: trace-id propagation over the wire, the
//! `/trace/{id}` endpoint, the enriched `/metrics` shape, and the HEAD /
//! OPTIONS / percent-decoding satellites.
//!
//! Ring-capacity note: span rings are per-thread and sized at creation, so
//! the eviction test lives in `trace_eviction.rs` (its own process) where
//! it can shrink the default capacity before any server thread starts.

use ses_server::{
    serve, ErrorBody, HttpClient, MetricsReport, ServerConfig, ServerHandle, SpanView, TraceReport,
};
use ses_service::{EvalRequest, SolveResponse};

fn test_server(shards: usize) -> ServerHandle {
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

fn client_of(handle: &ServerHandle) -> HttpClient {
    HttpClient::new(handle.addr().to_string())
}

#[test]
fn responses_carry_a_trace_id_and_solves_are_traceable_end_to_end() {
    let handle = test_server(2);
    let mut client = client_of(&handle);
    let (status, _) = client.post("/solve", r#"{"spec":"Greedy","k":4}"#).unwrap();
    assert_eq!(status, 200);
    let trace = client
        .last_trace_id()
        .expect("response carries x-ses-trace-id")
        .to_owned();
    assert_eq!(trace.len(), 16, "wire form is 16 hex digits: {trace}");

    // The whole pipeline is queryable while the spans are in the rings.
    let (status, body) = client.get(&format!("/trace/{trace}")).unwrap();
    assert_eq!(status, 200, "{body}");
    let report: TraceReport = serde_json::from_str(&body).unwrap();
    assert_eq!(report.trace, trace);
    assert_eq!(report.span_count as usize, report.spans.len());
    // `queue` is the solver-permit wait; a solve never reaches a shard, so
    // there is no `service` span.
    for stage in ["request", "queue", "solve", "sweep", "select"] {
        assert!(
            report.spans.iter().any(|s| s.stage == stage),
            "stage {stage} missing from {:?}",
            report.spans.iter().map(|s| &s.stage).collect::<Vec<_>>()
        );
    }
    assert!(!report.spans.iter().any(|s| s.stage == "service"));
    // Engine counters are attributed to engine spans.
    let solve = report.spans.iter().find(|s| s.stage == "solve").unwrap();
    assert!(solve.ops.score_evaluations > 0);
    assert!(solve.ops.assigns > 0);
    // Spans come out sorted by start time.
    let starts: Vec<u64> = report.spans.iter().map(|s| s.start_nanos).collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    handle.shutdown();
}

#[test]
fn inbound_trace_ids_are_honored_and_invalid_ones_replaced() {
    let handle = test_server(1);
    let addr = handle.addr().to_string();

    // A raw request with a valid inbound id: the echo must match.
    let send = |trace_header: &str| -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .write_all(
                format!(
                    "GET /healthz HTTP/1.1\r\nHost: x\r\nx-ses-trace-id: {trace_header}\r\nConnection: close\r\n\r\n"
                )
                .as_bytes(),
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
            .lines()
            .find_map(|l| l.strip_prefix("x-ses-trace-id: "))
            .expect("trace header echoed")
            .to_owned()
    };

    assert_eq!(send("00000000c0ffee42"), "00000000c0ffee42");
    assert_eq!(send("c0ffee42"), "00000000c0ffee42", "short ids zero-pad");
    let replaced = send("not-a-trace-id");
    assert_ne!(replaced, "not-a-trace-id");
    assert_eq!(replaced.len(), 16, "invalid ids get a fresh one");
    assert_ne!(send("0"), "0000000000000000", "zero is reserved");
    handle.shutdown();
}

#[test]
fn trace_endpoint_misses_are_typed_404s_and_bad_ids_400s() {
    let handle = test_server(1);
    let mut client = client_of(&handle);
    let (status, body) = client.get("/trace/1234deadbeef").unwrap();
    assert_eq!(status, 404, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "unknown_trace");

    let (status, body) = client.get("/trace/zzz").unwrap();
    assert_eq!(status, 400, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "bad_trace_id");
    handle.shutdown();
}

#[test]
fn metrics_carry_shard_gauges_and_span_stage_lines() {
    let handle = test_server(3);
    let mut client = client_of(&handle);
    for _ in 0..4 {
        let (status, _) = client.post("/solve", r#"{"spec":"Greedy","k":3}"#).unwrap();
        assert_eq!(status, 200);
    }
    // Session ops are what reach the shards (and record queue/service).
    let open = r#"{"name":"m","spec":"Greedy","k":3}"#;
    let (status, _) = client.post("/sessions/m/open", open).unwrap();
    assert_eq!(status, 200);
    let (status, _) = client.post("/sessions/m/event", "\"Extend\"").unwrap();
    assert_eq!(status, 200);
    let (status, body) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let report: MetricsReport = serde_json::from_str(&body).unwrap();

    assert_eq!(report.shards_detail.len(), 3, "one line per shard");
    for (i, line) in report.shards_detail.iter().enumerate() {
        assert_eq!(line.shard, i as u64);
        assert_eq!(line.queue_depth, 0, "idle server has empty queues");
    }
    let handled: u64 = report.shards_detail.iter().map(|s| s.handled).sum();
    assert_eq!(
        handled, 2,
        "shards handle the open and the event, never a solve or a /metrics read"
    );

    // Span-stage lines cover the pipeline and are well-formed quantiles.
    for stage in ["request", "queue", "service", "solve", "select"] {
        let line = report
            .span_stages
            .iter()
            .find(|l| l.stage == stage)
            .unwrap_or_else(|| panic!("stage {stage} missing"));
        assert!(line.count > 0);
        assert!(line.p50_micros <= line.p95_micros);
        assert!(line.p95_micros <= line.p99_micros);
        assert!(line.p99_micros <= line.max_micros);
    }
    handle.shutdown();
}

#[test]
fn head_and_options_answer_on_known_routes() {
    let handle = test_server(1);
    let addr = handle.addr().to_string();
    let raw = |request: &str| -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };

    // HEAD mirrors GET's status and Content-Length but sends no body.
    let head = raw("HEAD /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let advertised: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(advertised > 0, "HEAD advertises the GET body length");
    let after_headers = head.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(after_headers.is_empty(), "HEAD sends no body: {head}");

    // OPTIONS answers with the Allow list instead of a 405/404.
    let mut client = client_of(&handle);
    for (path, expect) in [
        ("/healthz", "GET, HEAD, OPTIONS"),
        ("/solve", "POST, OPTIONS"),
        ("/sessions/any/event", "POST, OPTIONS"),
    ] {
        let options = raw(&format!(
            "OPTIONS {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        ));
        assert!(options.starts_with("HTTP/1.1 200"), "{path}: {options}");
        let allow = options
            .lines()
            .find_map(|l| l.strip_prefix("Allow: "))
            .unwrap_or_else(|| panic!("{path}: no Allow header in {options}"));
        assert_eq!(allow.trim(), expect, "{path}");
    }
    // Unknown routes still 404 under OPTIONS.
    let (status, _) = client.request("OPTIONS", "/nope", None).unwrap();
    assert_eq!(status, 404);
    handle.shutdown();
}

#[test]
fn percent_encoded_session_names_round_trip() {
    let handle = test_server(2);
    let mut client = client_of(&handle);
    // The decoded name goes in the body; the encoded one in the path.
    let open = r#"{"name":"café night","spec":"Greedy","k":3}"#;
    let (status, body) = client
        .post("/sessions/caf%C3%A9%20night/open", open)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client
        .post("/sessions/caf%C3%A9%20night/report", "")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let report: ses_service::SessionReport = serde_json::from_str(&body).unwrap();
    assert_eq!(report.name, "café night");
    // Bad escapes do not route.
    let (status, _) = client.post("/sessions/a%zz/report", "").unwrap();
    assert_eq!(status, 404);
    handle.shutdown();
}

/// POSTs with a fixed inbound trace id on a fresh connection.
fn post_traced(addr: &str, path: &str, body: &str, trace: &str) -> u16 {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nx-ses-trace-id: {trace}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response[9..12].parse().unwrap()
}

fn spans_of(client: &mut HttpClient, trace: &str) -> Vec<SpanView> {
    let (status, body) = client.get(&format!("/trace/{trace}")).unwrap();
    assert_eq!(status, 200, "{body}");
    serde_json::from_str::<TraceReport>(&body).unwrap().spans
}

fn span<'a>(spans: &'a [SpanView], stage: &str) -> &'a SpanView {
    spans
        .iter()
        .find(|s| s.stage == stage)
        .unwrap_or_else(|| panic!("no {stage} span in {spans:?}"))
}

fn nested(inner: &SpanView, outer: &SpanView) -> bool {
    inner.start_nanos >= outer.start_nanos
        && inner.start_nanos + inner.dur_nanos <= outer.start_nanos + outer.dur_nanos
}

fn handled_per_shard(client: &mut HttpClient) -> Vec<u64> {
    let (status, body) = client.get("/metrics").unwrap();
    assert_eq!(status, 200, "{body}");
    let report: MetricsReport = serde_json::from_str(&body).unwrap();
    report.shards_detail.iter().map(|s| s.handled).collect()
}

#[test]
fn stateless_requests_skip_the_shards() {
    let handle = test_server(2);
    let addr = handle.addr().to_string();
    let mut client = client_of(&handle);

    // Solves and evals never touch a shard, and neither does a `/metrics`
    // read: between two reads no shard handles an op.
    let before = handled_per_shard(&mut client);
    let solve = r#"{"spec":"Greedy","k":4}"#;
    for _ in 0..3 {
        let (status, body) = client.post("/solve", solve).unwrap();
        assert_eq!(status, 200, "{body}");
        let solved: SolveResponse = serde_json::from_str(&body).unwrap();
        let eval = serde_json::to_string(&EvalRequest {
            assignments: solved.assignments,
            instance: Default::default(),
        })
        .unwrap();
        let (status, body) = client.post("/eval", &eval).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let after = handled_per_shard(&mut client);
    assert_eq!(after, before, "no op reached the shards");

    // A traced solve runs on the connection thread, inside `request`.
    let trace = "000000005e1f0001";
    assert_eq!(post_traced(&addr, "/solve", solve, trace), 200);
    let spans = spans_of(&mut client, trace);
    let request = span(&spans, "request");
    for stage in ["queue", "solve", "select"] {
        let s = span(&spans, stage);
        assert!(nested(s, request), "{stage} outside request: {spans:?}");
        assert_eq!(
            s.thread, request.thread,
            "{stage} left the connection thread"
        );
    }
    assert!(
        !spans.iter().any(|s| s.stage == "service"),
        "a solve reached a shard: {spans:?}"
    );

    // An open solves before dispatch; its shard only logs and adopts.
    let trace = "000000005e1f0002";
    let open = r#"{"name":"s","spec":"Greedy","k":4}"#;
    assert_eq!(post_traced(&addr, "/sessions/s/open", open, trace), 200);
    let spans = spans_of(&mut client, trace);
    let (solve, service) = (span(&spans, "solve"), span(&spans, "service"));
    assert_eq!(solve.thread, span(&spans, "request").thread);
    assert!(solve.start_nanos + solve.dur_nanos <= service.start_nanos);

    // A session event goes queue -> service -> apply under its shard's
    // lock, all on the connection thread.
    let trace = "000000005e1f0003";
    assert_eq!(
        post_traced(&addr, "/sessions/s/event", "\"Extend\"", trace),
        200
    );
    let spans = spans_of(&mut client, trace);
    let (queue, service, apply) = (
        span(&spans, "queue"),
        span(&spans, "service"),
        span(&spans, "apply"),
    );
    assert!(queue.start_nanos <= service.start_nanos);
    assert!(nested(apply, service), "apply outside service: {spans:?}");
    assert_eq!(service.thread, span(&spans, "request").thread, "{spans:?}");
    handle.shutdown();
}
