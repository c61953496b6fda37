//! Per-endpoint latency histograms, per-shard gauges, and the `/metrics`
//! report.
//!
//! Latencies are recorded in microseconds into the lock-free log-bucketed
//! [`Histogram`] from `ses-obs` (8 sub-buckets per power of two, so every
//! bucket is at most 12.5% wide) — recording is a single relaxed fetch-add
//! on the hot path, snapshotting is lock-free, and p50/p95/p99 come out of
//! the cumulative bucket counts with bounded relative error. The report
//! also folds in the span-stage latency distributions that the tracing
//! layer accumulates process-wide ([`ses_obs::stage_latencies`]).

use serde::{Deserialize, Serialize};
use ses_core::EngineCounters;
use ses_obs::StageLatency;
// Atomics come through the ses-obs facade so the `cfg(ses_shuttle)`
// model-check build explores this module's gauges too.
use ses_obs::sync::atomic::{AtomicU64, Ordering};

pub use ses_obs::{Histogram, HistogramSnapshot};

/// The endpoints the server tracks latencies for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /solve`
    Solve,
    /// `POST /eval`
    Eval,
    /// `POST /sessions/{name}/open`
    Open,
    /// `POST /sessions/{name}/event`
    Event,
    /// `POST /sessions/{name}/report`
    Report,
    /// `POST /sessions/{name}/close`
    Close,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `GET /trace/{id}`
    Trace,
    /// `GET /instances`
    Instances,
    /// `POST /admin/rebalance` (live session migration).
    Rebalance,
    /// Anything that did not route (404s, bad methods, parse-level 400s).
    Other,
}

/// All endpoints, in display order.
pub const ENDPOINTS: [Endpoint; 12] = [
    Endpoint::Solve,
    Endpoint::Eval,
    Endpoint::Open,
    Endpoint::Event,
    Endpoint::Report,
    Endpoint::Close,
    Endpoint::Healthz,
    Endpoint::Metrics,
    Endpoint::Trace,
    Endpoint::Instances,
    Endpoint::Rebalance,
    Endpoint::Other,
];

impl Endpoint {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Solve => "solve",
            Endpoint::Eval => "eval",
            Endpoint::Open => "open",
            Endpoint::Event => "event",
            Endpoint::Report => "report",
            Endpoint::Close => "close",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Trace => "trace",
            Endpoint::Instances => "instances",
            Endpoint::Rebalance => "rebalance",
            Endpoint::Other => "other",
        }
    }

    // A total match instead of a positional search: runs on the request
    // path, where the server's panic-discipline lint bans `.expect()`.
    fn index(self) -> usize {
        match self {
            Endpoint::Solve => 0,
            Endpoint::Eval => 1,
            Endpoint::Open => 2,
            Endpoint::Event => 3,
            Endpoint::Report => 4,
            Endpoint::Close => 5,
            Endpoint::Healthz => 6,
            Endpoint::Metrics => 7,
            Endpoint::Trace => 8,
            Endpoint::Instances => 9,
            Endpoint::Rebalance => 10,
            Endpoint::Other => 11,
        }
    }
}

/// All server-side request accounting: one histogram per endpoint plus
/// status-class counters. Shared (behind an `Arc`) by every connection
/// handler; every member is atomic.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    latencies: [Histogram; 12],
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
}

impl ServerMetrics {
    /// A zeroed metrics registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served request.
    pub fn record(&self, endpoint: Endpoint, status: u16, micros: u64) {
        self.latencies[endpoint.index()].record(micros);
        let counter = match status {
            200..=299 => &self.status_2xx,
            500..=599 => &self.status_5xx,
            _ => &self.status_4xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The per-endpoint latency lines of the `/metrics` report (endpoints
    /// that served no requests are omitted).
    pub fn endpoint_latencies(&self) -> Vec<EndpointLatency> {
        ENDPOINTS
            .iter()
            .filter_map(|&e| {
                let snap = self.latencies[e.index()].snapshot();
                (snap.count > 0).then(|| EndpointLatency::from_snapshot(e.label(), &snap))
            })
            .collect()
    }

    /// Requests answered with a 2xx status.
    pub fn requests_2xx(&self) -> u64 {
        self.status_2xx.load(Ordering::Relaxed)
    }

    /// Requests answered with a 4xx status.
    pub fn requests_4xx(&self) -> u64 {
        self.status_4xx.load(Ordering::Relaxed)
    }

    /// Requests answered with a 5xx status.
    pub fn requests_5xx(&self) -> u64 {
        self.status_5xx.load(Ordering::Relaxed)
    }
}

/// Live occupancy gauges for one session shard: a session op counts itself
/// in when it starts waiting for the shard's lock and out when it releases
/// it, with the time it held the lock. All relaxed atomics: these are
/// monitoring gauges, and a reader racing a writer sees a value that was
/// true a moment ago.
#[derive(Debug, Default)]
pub struct ShardGauge {
    depth: AtomicU64,
    handled: AtomicU64,
    busy_ns: AtomicU64,
}

impl ShardGauge {
    /// Notes one request arriving at the shard and returns the depth
    /// *including* it — the depth the request observed on arrival.
    pub fn enqueued(&self) -> u64 {
        self.depth.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Notes a request leaving the shard after holding its lock for
    /// `busy_ns`.
    pub fn served(&self, busy_ns: u64) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        self.handled.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
    }

    /// Notes a request that left without being served: its shard failed,
    /// or a rebalance moved its session while it waited.
    pub fn abandoned(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests currently waiting for (or holding) this shard's lock.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Requests this shard has finished serving.
    pub fn handled(&self) -> u64 {
        self.handled.load(Ordering::Relaxed)
    }

    /// Cumulative service time (µs) this shard has spent on requests.
    pub fn busy_micros(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed) / 1_000
    }
}

/// One shard's line in the `/metrics` report: live gauge state plus the
/// session accounting read under the shard's lock.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: u64,
    /// Requests currently waiting for (or holding) this shard's lock.
    pub queue_depth: u64,
    /// Requests this shard has finished serving.
    pub handled: u64,
    /// Cumulative service time (µs).
    pub busy_micros: u64,
    /// Open sessions on this shard.
    pub sessions: u64,
    /// Session events applied on this shard.
    pub events_applied: u64,
    /// Resident engine-column slots across this shard's open sessions
    /// (blocked column layout; absent in pre-`memory` JSON).
    #[serde(default)]
    pub column_slots: u64,
    /// Resident engine bytes of this shard's open sessions: their own
    /// state, plus each shared engine index not already counted on an
    /// earlier shard. The shard lines sum to the engine total.
    #[serde(default)]
    pub resident_bytes: u64,
}

/// One endpoint's latency line in the `/metrics` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointLatency {
    /// Endpoint label (`solve`, `event`, …).
    pub endpoint: String,
    /// Requests served.
    pub count: u64,
    /// Mean latency (µs).
    pub mean_micros: f64,
    /// Median latency (µs, log-bucket lower bound).
    pub p50_micros: u64,
    /// 95th-percentile latency (µs).
    pub p95_micros: u64,
    /// 99th-percentile latency (µs).
    pub p99_micros: u64,
    /// Worst observed latency (µs, exact).
    pub max_micros: u64,
}

impl EndpointLatency {
    /// Builds a report line from a histogram snapshot.
    pub fn from_snapshot(label: &str, snap: &HistogramSnapshot) -> Self {
        Self {
            endpoint: label.to_owned(),
            count: snap.count,
            mean_micros: snap.mean(),
            p50_micros: snap.quantile(0.50),
            p95_micros: snap.quantile(0.95),
            p99_micros: snap.quantile(0.99),
            max_micros: snap.max,
        }
    }
}

/// Aggregate engine-side accounting across every open session of every
/// shard: how much scoring work and schedule churn the server has absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineTotals {
    /// Open sessions across all shards.
    pub sessions: u64,
    /// Session events applied across all open sessions.
    pub events_applied: u64,
    /// Summed engine mutation clocks (schedule churn).
    pub clock: u64,
    /// Summed engine operation counters (scoring work).
    pub counters: EngineCounters,
    /// Summed resident engine-column slots across all open sessions
    /// (blocked column layout; absent in pre-`memory` JSON).
    #[serde(default)]
    pub column_slots: u64,
    /// Resident engine bytes across all open sessions — what the server
    /// actually holds for scoring state: every session's own state, plus
    /// each engine index they share counted once.
    #[serde(default)]
    pub resident_bytes: u64,
}

impl EngineTotals {
    /// Adds one shard's totals.
    pub fn merge(&mut self, other: &EngineTotals) {
        self.sessions += other.sessions;
        self.events_applied += other.events_applied;
        self.clock += other.clock;
        self.counters.merge(other.counters);
        self.column_slots += other.column_slots;
        self.resident_bytes += other.resident_bytes;
    }
}

/// The durability section of `/metrics`, present only when the server
/// runs with `--wal-dir`: WAL accounting summed across every shard, plus
/// append/fsync latency distributions in the same line shape as the
/// endpoint latencies.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WalReport {
    /// Fsync policy label (`per-record`, `interval:<millis>`, `off`).
    pub policy: String,
    /// Records appended since boot, all shards.
    pub records: u64,
    /// Bytes appended since boot (framing included).
    pub appended_bytes: u64,
    /// `fdatasync` calls issued since boot.
    pub fsyncs: u64,
    /// Snapshot records written since boot.
    pub snapshots: u64,
    /// Segment files currently on disk (sealed + live).
    pub segments: u64,
    /// Sealed segments deleted by truncation since boot.
    pub segments_removed: u64,
    /// Open sessions mirrored in shard journals.
    pub sessions: u64,
    /// Append latency distribution (`wal_append`), absent before the
    /// first append.
    #[serde(default)]
    pub append: Option<EndpointLatency>,
    /// Fsync latency distribution (`wal_fsync`), absent before the first
    /// sync.
    #[serde(default)]
    pub fsync: Option<EndpointLatency>,
}

impl WalReport {
    /// Folds one shard's WAL stats into the totals (the policy is uniform
    /// across shards — the first one seen wins).
    pub fn merge_stats(&mut self, stats: &ses_durable::WalStats) {
        if self.policy.is_empty() {
            self.policy = stats.policy.clone();
        }
        self.records += stats.records;
        self.appended_bytes += stats.appended_bytes;
        self.fsyncs += stats.fsyncs;
        self.snapshots += stats.snapshots;
        self.segments += stats.segments;
        self.segments_removed += stats.segments_removed;
        self.sessions += stats.sessions;
    }
}

/// The `GET /metrics` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Milliseconds since the server started.
    pub uptime_millis: f64,
    /// Number of session shards.
    pub shards: u64,
    /// Requests answered 2xx.
    pub requests_2xx: u64,
    /// Requests answered 4xx.
    pub requests_4xx: u64,
    /// Requests answered 5xx.
    pub requests_5xx: u64,
    /// Per-endpoint latency distributions.
    pub endpoints: Vec<EndpointLatency>,
    /// Engine-side totals across all shards' sessions.
    pub engine: EngineTotals,
    /// Per-shard queue depth / occupancy / session gauges.
    #[serde(default)]
    pub shards_detail: Vec<ShardStatus>,
    /// Process-wide span-stage latency distributions (queue wait, service,
    /// solve, engine phases, …) from the tracing layer.
    #[serde(default)]
    pub span_stages: Vec<StageLatency>,
    /// Durability accounting, when the server runs with a WAL (absent —
    /// and absent from legacy JSON — otherwise).
    #[serde(default)]
    pub wal: Option<WalReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_metrics_track_status_classes() {
        let m = ServerMetrics::new();
        m.record(Endpoint::Solve, 200, 50);
        m.record(Endpoint::Event, 200, 10);
        m.record(Endpoint::Event, 404, 5);
        m.record(Endpoint::Other, 500, 1);
        assert_eq!(m.requests_2xx(), 2);
        assert_eq!(m.requests_4xx(), 1);
        assert_eq!(m.requests_5xx(), 1);
        let lines = m.endpoint_latencies();
        assert_eq!(lines.len(), 3, "only endpoints with traffic are listed");
        let event = lines.iter().find(|l| l.endpoint == "event").unwrap();
        assert_eq!(event.count, 2);
        assert_eq!(event.max_micros, 10);
    }

    #[test]
    fn endpoint_index_matches_display_order() {
        for (i, e) in ENDPOINTS.iter().enumerate() {
            assert_eq!(e.index(), i, "{e:?} out of step with ENDPOINTS");
        }
    }

    #[test]
    fn wal_report_merges_shard_stats_and_parses_legacy_json() {
        let mut wal = WalReport::default();
        wal.merge_stats(&ses_durable::WalStats {
            policy: "per-record".to_owned(),
            records: 10,
            appended_bytes: 1000,
            fsyncs: 10,
            snapshots: 1,
            segments: 2,
            segments_removed: 1,
            last_lsn: 10,
            sessions: 3,
        });
        wal.merge_stats(&ses_durable::WalStats {
            policy: "per-record".to_owned(),
            records: 5,
            sessions: 1,
            ..ses_durable::WalStats::default()
        });
        assert_eq!(wal.policy, "per-record");
        assert_eq!(wal.records, 15);
        assert_eq!(wal.sessions, 4);
        assert_eq!(wal.segments, 2);
        // A pre-durability metrics body (no `wal` key) still parses, with
        // the section absent.
        let legacy: MetricsReport = serde_json::from_str(
            r#"{"uptime_millis":1.0,"shards":2,"requests_2xx":0,"requests_4xx":0,
                "requests_5xx":0,"endpoints":[],"engine":{"sessions":0,"events_applied":0,
                "clock":0,"counters":{"score_evaluations":0,"posting_visits":0,
                "assigns":0,"unassigns":0}}}"#,
        )
        .expect("legacy metrics JSON parses");
        assert!(legacy.wal.is_none());
    }

    #[test]
    fn shard_gauges_track_depth_and_occupancy() {
        let g = ShardGauge::default();
        assert_eq!(g.enqueued(), 1);
        assert_eq!(g.enqueued(), 2);
        assert_eq!(g.depth(), 2);
        g.served(3_000);
        g.served(1_500);
        assert_eq!(g.depth(), 0);
        assert_eq!(g.handled(), 2);
        assert_eq!(g.busy_micros(), 4);
    }
}
