//! # ses-server — the sharded concurrent network front end
//!
//! Serves the [`ses_service`] wire vocabulary over HTTP/1.1 on plain
//! `std::net` (the offline dependency set has no async runtime and no HTTP
//! crate — and this workload does not need either):
//!
//! | Route | Body → Response |
//! |---|---|
//! | `POST /solve` | [`SolveRequest`] → [`SolveResponse`] |
//! | `POST /eval` | [`EvalRequest`] → [`EvalResponse`] |
//! | `POST /sessions/{name}/open` | [`SessionOpen`] → [`SolveResponse`] |
//! | `POST /sessions/{name}/event` | [`SessionEvent`] → [`EventReport`] |
//! | `POST /sessions/{name}/report` | — → [`SessionReport`] |
//! | `POST /sessions/{name}/close` | — → final [`SessionReport`] |
//! | `GET /healthz` | — → [`HealthReport`] (instance identity) |
//! | `GET /metrics` | — → [`MetricsReport`] (latency histograms + gauges + engine totals) |
//! | `GET /trace/{id}` | — → [`TraceReport`] (one request's span timeline) |
//! | `GET /instances` | — → [`InstancesReport`] (every registered instance) |
//! | `POST /admin/rebalance` | [`RebalanceRequest`] → [`RebalanceResponse`] (live session migration; requires `--wal-dir`) |
//!
//! `HEAD` mirrors any `GET` route headers-only, and `OPTIONS` answers with
//! the route's `Allow` list. Session names in paths are percent-decoded.
//!
//! The server is **multi-tenant**: an
//! [`InstanceRegistry`](ses_service::InstanceRegistry) maps names to
//! instances — the in-memory workload universe under `"default"`, plus any
//! packed files from [`ServerConfig::instances`], cold-opened lazily on
//! first use. `SolveRequest`/`EvalRequest`/`SessionOpen` carry an optional
//! `instance` field (absent = `"default"`, so legacy request JSON is
//! untouched); unknown names answer a structured 404
//! (`"unknown_instance"`) listing what is registered.
//!
//! ## Architecture
//!
//! The reasoning is in `DESIGN.md` §8 (server) and §9 (tracing).
//!
//! * **Session shards** — N mutex-guarded shards, each a
//!   [`SchedulerService`](ses_service::SchedulerService) (the live
//!   sessions, the server's only mutable state) plus its WAL when durable.
//!   Sessions route by a stable FNV hash of their name, and a session op
//!   runs on its connection thread under its shard's lock, so one
//!   session's ops apply one at a time in arrival order and no global lock
//!   exists. A rebalance holds the source and the target lock together,
//!   taken in index order, so no request sees half a migrated session;
//!   `/metrics` reads each shard under its lock in turn.
//! * **Stateless work** — `/solve`, `/eval` and an open's solve and
//!   session build run on the connection thread without taking a shard
//!   lock; the owning shard only logs and adopts an opened session. At
//!   most N solver runs execute at once: each waits for one of N permits.
//! * **Connection handlers** — an acceptor thread polls a non-blocking
//!   listener and hands connections to a fixed pool on a rendezvous
//!   channel, with tracked overflow threads when every pool worker is
//!   pinned by a keep-alive connection, so no connection waits behind
//!   another. Request bodies are size-capped (413) and parse errors answer
//!   as structured 400s, never dropped connections.
//! * **Observability** — every request gets a 64-bit trace id (a valid
//!   inbound `x-ses-trace-id` is honored, and the id is always echoed
//!   back). The connection handler records `request`/`parse`/`respond`
//!   spans, a `queue` span for a solver-permit or shard-lock wait and a
//!   `service` span for a session op, and the engine layers below add
//!   their own on the same thread — all into per-thread lock-free rings
//!   (`ses-obs`), served at `GET /trace/{id}`; `/metrics` carries per-endpoint latency
//!   histograms, status-class counters, per-shard queue-depth/occupancy
//!   gauges, span-stage p50/p95/p99 lines, and engine totals; requests
//!   slower than [`ServerConfig::slow_request_millis`] dump their span
//!   timeline to the structured log.
//! * **Shutdown** — cooperative, via [`ServerHandle::shutdown`] or the
//!   SIGTERM/SIGINT flag from [`install_signal_handlers`]: the acceptor
//!   stops, handlers notice at their next request boundary or idle tick,
//!   and once every connection has drained each shard's WAL tail is
//!   flushed under its lock. Under `--fsync interval:N` one WAL-sync
//!   thread syncs idle shards' tails on time until then.
//!
//! The crate also ships the client side: a keep-alive [`HttpClient`], the
//! closed-loop [load generator](loadgen) behind `ses loadgen`, and the
//! [replay determinism check](replay) proving a disruption stream replayed
//! over HTTP yields bit-for-bit the same trace digest as the in-process
//! `ses-sim` path.
//!
//! ## In-process quick start
//!
//! ```
//! use ses_server::{serve, HttpClient, ServerConfig};
//!
//! let handle = serve(&ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     shards: 2,
//!     users: 40,
//!     events: 12,
//!     intervals: 6,
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//!
//! let mut client = HttpClient::new(handle.addr().to_string());
//! let (status, body) = client.get("/healthz").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"ok\""));
//!
//! let (status, body) = client
//!     .post("/solve", r#"{"spec":"Greedy","k":4}"#)
//!     .unwrap();
//! assert_eq!(status, 200, "{body}");
//! handle.shutdown();
//! ```
//!
//! [`SolveRequest`]: ses_service::SolveRequest
//! [`SolveResponse`]: ses_service::SolveResponse
//! [`EvalRequest`]: ses_service::EvalRequest
//! [`EvalResponse`]: ses_service::EvalResponse
//! [`SessionOpen`]: ses_service::SessionOpen
//! [`SessionEvent`]: ses_service::SessionEvent
//! [`EventReport`]: ses_service::EventReport
//! [`SessionReport`]: ses_service::SessionReport

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod replay;
mod server;
mod shard;

#[cfg(all(test, ses_shuttle))]
mod model_tests;

pub use client::HttpClient;
pub use loadgen::{
    DurabilityRow, EngineIndexRow, InstanceLatency, LoadgenConfig, LoadgenSummary,
    ServerBenchReport, SlowRequest, Spread, StatusCount, WalDurability,
};
pub use metrics::{EndpointLatency, EngineTotals, MetricsReport, ShardStatus, WalReport};
pub use replay::{
    drive_range, finish_replay, open_server_session, prepare_replay, verify_replay, DigestCheck,
    ReplayConfig, ReplaySession, ServerArmState,
};
pub use server::{
    install_signal_handlers, serve, signal_shutdown_requested, HealthReport, InstancesReport,
    RebalanceRequest, RebalanceResponse, ServerConfig, ServerHandle, SpanView, TraceReport,
};
pub use shard::ErrorBody;

/// Re-exported so binaries configuring durability (the CLI's `--fsync`
/// flag, the bench sweep) need not depend on `ses-durable` directly.
pub use ses_durable::FsyncPolicy;
