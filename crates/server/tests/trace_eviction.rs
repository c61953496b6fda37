//! Ring-eviction behavior of `GET /trace/{id}`: once enough later spans
//! wrap a shard's ring, an old trace's spans disappear and the endpoint
//! answers a clean 404 — never stale or partial garbage.
//!
//! This lives in its own integration-test binary (one process per file)
//! because ring capacity is fixed per thread at first use: it must shrink
//! *before* the server spawns any worker, and must not leak into the other
//! server tests.

use ses_server::{serve, ErrorBody, HttpClient, ServerConfig};

#[test]
fn old_traces_evict_to_a_clean_404() {
    // Tiny rings: a handful of requests evicts everything about the first.
    ses_obs::set_default_ring_capacity(16);
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        io_threads: 1,
        users: 40,
        events: 12,
        intervals: 6,
        seed: 3,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = HttpClient::new(handle.addr().to_string());

    let (status, _) = client.post("/solve", r#"{"spec":"Greedy","k":3}"#).unwrap();
    assert_eq!(status, 200);
    let first = client.last_trace_id().unwrap().to_owned();
    let (status, _) = client.get(&format!("/trace/{first}")).unwrap();
    assert_eq!(status, 200, "fresh trace is queryable");

    // Enough traffic to lap every 16-slot ring several times over.
    for _ in 0..40 {
        let (status, _) = client.post("/solve", r#"{"spec":"Greedy","k":3}"#).unwrap();
        assert_eq!(status, 200);
    }

    let (status, body) = client.get(&format!("/trace/{first}")).unwrap();
    assert_eq!(status, 404, "evicted trace must 404, got: {body}");
    let err: ErrorBody = serde_json::from_str(&body).unwrap();
    assert_eq!(err.kind, "unknown_trace");
    handle.shutdown();
}
