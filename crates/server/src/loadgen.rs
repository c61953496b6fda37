//! The built-in closed-loop load generator.
//!
//! N client threads each hold one keep-alive connection and one private
//! server session, and drive a seeded mix of solve / session-event /
//! report traffic as fast as the server answers (closed loop: the next
//! request leaves when the previous response lands). Latencies are
//! recorded client-side into the same log-bucketed histograms the server
//! uses, then merged; the summary carries req/s, p50/p95/p99 and the
//! per-endpoint mix.

use crate::client::HttpClient;
use crate::metrics::{EndpointLatency, Histogram, HistogramSnapshot, MetricsReport};
use crate::replay::DigestCheck;
use crate::server::{HealthReport, InstancesReport};
use crate::shard::ErrorBody;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use ses_core::{EventId, IntervalId, SchedulerSpec};
use ses_datagen::streams::{rival_postings, RivalProfile};
use ses_service::{
    Announcement, Arrival, Cancellation, CapacityChange, InstanceName, SessionEvent, SessionOpen,
    SolveRequest,
};
use std::time::Instant;

/// What traffic to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent closed-loop clients (one connection + session each).
    pub clients: usize,
    /// Requests per client (the open/close bracket is extra).
    pub requests: u64,
    /// Fraction of requests that are stateless `POST /solve` calls.
    pub solve_fraction: f64,
    /// `k` of those solve calls (small: solves are the expensive op).
    pub solve_k: usize,
    /// `k` of each client's session.
    pub k: usize,
    /// Algorithm for solves and session opens.
    pub spec: SchedulerSpec,
    /// Mix seed.
    pub seed: u64,
    /// The registered instances the clients target, round-robin by client
    /// index — client `i` binds its session (and its solves) to
    /// `instances[i % len]`. One entry = single-tenant load; several =
    /// a cross-tenant isolation run with a per-instance latency breakdown
    /// in the summary.
    pub instances: Vec<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            clients: 8,
            requests: 2000,
            solve_fraction: 0.02,
            solve_k: 8,
            k: 12,
            spec: SchedulerSpec::Greedy,
            seed: 0,
            instances: vec!["default".to_owned()],
        }
    }
}

/// What the run measured, across all clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenSummary {
    /// Client threads.
    pub clients: u64,
    /// Total requests sent (including each client's open/close bracket).
    pub requests: u64,
    /// Requests answered 2xx.
    pub ok: u64,
    /// Requests answered anything else.
    pub errors: u64,
    /// Wall-clock of the whole run.
    pub elapsed_millis: f64,
    /// Aggregate closed-loop throughput.
    pub req_per_sec: f64,
    /// Mean client-observed latency (µs).
    pub mean_micros: f64,
    /// Median client-observed latency (µs).
    pub p50_micros: u64,
    /// 95th-percentile latency (µs).
    pub p95_micros: u64,
    /// 99th-percentile latency (µs).
    pub p99_micros: u64,
    /// Worst observed latency (µs).
    pub max_micros: u64,
    /// Requests per endpoint label.
    pub mix: Vec<(String, u64)>,
    /// Non-2xx responses broken down by exact status code, ascending.
    #[serde(default)]
    pub status_counts: Vec<StatusCount>,
    /// The slowest requests of the whole run (at most
    /// [`SLOWEST_KEPT`]), worst first, each with the trace id the server
    /// echoed — paste it into `GET /trace/{id}` while the run is fresh.
    #[serde(default)]
    pub slowest: Vec<SlowRequest>,
    /// A sample of error bodies (first few), for diagnosis.
    pub error_samples: Vec<String>,
    /// Per-instance latency breakdown (name order) when the run targeted
    /// more than zero instances — the cross-tenant isolation view: compare
    /// rows to see whether one tenant's load degrades another's latency.
    #[serde(default)]
    pub per_instance: Vec<InstanceLatency>,
    /// Durability view when the server runs with a WAL: client-observed
    /// durable acks next to the server's own append/fsync latency lines.
    /// `None` against a non-durable server (and in legacy summaries).
    #[serde(default)]
    pub wal: Option<WalDurability>,
}

/// The durability side of a load run: how many event replies carried a
/// WAL LSN (the client-side proof the write was logged before it was
/// answered), and what appends and fsyncs cost server-side — read from
/// `/metrics` after the last client finishes, so the latency lines cover
/// exactly this run against a fresh server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalDurability {
    /// Fsync policy label the server runs under (`per-record`,
    /// `interval:25ms`, `off`).
    pub policy: String,
    /// WAL records the server has appended.
    pub records: u64,
    /// fsync calls the server has issued.
    pub fsyncs: u64,
    /// Event replies observed by the clients that carried a WAL LSN.
    pub durable_acks: u64,
    /// Server-side append latency (absent when nothing was appended).
    #[serde(default)]
    pub append: Option<EndpointLatency>,
    /// Server-side fsync latency (absent under `--fsync off`).
    #[serde(default)]
    pub fsync: Option<EndpointLatency>,
}

/// Client-observed latency of one instance's traffic in a (possibly
/// multi-tenant) load run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceLatency {
    /// The registered instance name.
    pub instance: String,
    /// Clients bound to this instance.
    pub clients: u64,
    /// Requests this instance's clients sent.
    pub requests: u64,
    /// Non-2xx responses among them.
    pub errors: u64,
    /// Mean client-observed latency (µs).
    pub mean_micros: f64,
    /// Median latency (µs).
    pub p50_micros: u64,
    /// 95th-percentile latency (µs).
    pub p95_micros: u64,
    /// 99th-percentile latency (µs).
    pub p99_micros: u64,
    /// Worst observed latency (µs).
    pub max_micros: u64,
}

/// How many of the slowest requests the summary keeps.
pub const SLOWEST_KEPT: usize = 10;

/// One non-2xx status code's tally in a [`LoadgenSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusCount {
    /// HTTP status code.
    pub status: u64,
    /// Responses with that code.
    pub count: u64,
}

/// One of the slowest requests of a load run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowRequest {
    /// Endpoint label (`open`, `solve`, `event`, `report`, `close`).
    pub endpoint: String,
    /// HTTP status of the response.
    pub status: u64,
    /// Client-observed latency (µs).
    pub micros: u64,
    /// The `x-ses-trace-id` the server echoed (empty if none arrived).
    pub trace: String,
}

/// The report `ses loadgen --out` and `bench_server` write (the committed
/// `BENCH_server.json`): client-side load numbers, the server's own
/// `/metrics` view, and the replay determinism verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerBenchReport {
    /// Client-side measurements.
    pub loadgen: LoadgenSummary,
    /// The server's `/metrics` at the end of the run.
    pub server: crate::metrics::MetricsReport,
    /// The server-vs-simulator digest check (when run).
    pub digest: Option<DigestCheck>,
    /// The durability sweep: one row per fsync policy, each from a fresh
    /// WAL-backed server under identical load — the committed cost curve
    /// of the durability knob. Empty in legacy reports and when the sweep
    /// is skipped.
    #[serde(default)]
    pub durability: Vec<DurabilityRow>,
    /// What the shared engine index saves: one row per instance, each
    /// measured on fresh servers. Empty in reports that predate it.
    #[serde(default)]
    pub engine_index: Vec<EngineIndexRow>,
}

/// The spread of repeated client-observed latencies (µs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// Median (the mean of the middle two for an even count).
    pub median_micros: f64,
    /// Fastest sample.
    pub min_micros: u64,
    /// Slowest sample.
    pub max_micros: u64,
    /// Number of samples.
    pub repeats: u64,
}

impl Spread {
    /// The spread of `samples`; all zero when there are none.
    pub fn of(samples: &[u64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let median_micros = match n {
            0 => 0.0,
            _ if n % 2 == 1 => sorted[n / 2] as f64,
            _ => (sorted[n / 2 - 1] + sorted[n / 2]) as f64 / 2.0,
        };
        Self {
            median_micros,
            min_micros: sorted.first().copied().unwrap_or(0),
            max_micros: sorted.last().copied().unwrap_or(0),
            repeats: n as u64,
        }
    }
}

/// One instance's engine-index costs, seen from the client: the first
/// `/solve` builds the index and its opening sweep, later solves and every
/// session open share them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineIndexRow {
    /// Registry name of the instance.
    pub instance: String,
    /// The first `/solve` on a fresh server, the instance already loaded.
    pub first_solve: Spread,
    /// Later `/solve`s of the same request.
    pub later_solve: Spread,
    /// Session opens after the first solve.
    pub open: Spread,
    /// `/eval` of the solve's own answer, after the first solve.
    pub eval: Spread,
    /// Engine bytes one open session holds alone (`state_bytes`).
    pub bytes_per_session: u64,
    /// Bytes of the instance's shared index, held once for all sessions.
    pub index_bytes: u64,
}

/// One fsync policy's measured cost in the durability sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityRow {
    /// Fsync policy label (`off`, `interval:<millis>`, `per-record`).
    pub policy: String,
    /// Closed-loop throughput under this policy.
    pub req_per_sec: f64,
    /// Median client-observed latency (µs).
    pub p50_micros: u64,
    /// 99th-percentile client-observed latency (µs).
    pub p99_micros: u64,
    /// Event replies that carried a WAL LSN.
    pub durable_acks: u64,
    /// Server-side 99th-percentile append latency (µs; 0 if none).
    pub append_p99_micros: u64,
    /// Server-side 99th-percentile fsync latency (µs; 0 under `off`).
    pub fsync_p99_micros: u64,
}

struct WorkerOutcome {
    instance: String,
    histogram: HistogramSnapshot,
    ok: u64,
    errors: u64,
    durable_acks: u64,
    mix: Vec<(&'static str, u64)>,
    status_counts: Vec<StatusCount>,
    slowest: Vec<SlowRequest>,
    error_samples: Vec<String>,
}

/// Runs the load. Transport-level failures abort the run with an error
/// (they mean the server is gone, not slow); HTTP-level non-2xx responses
/// are counted and sampled instead.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenSummary, String> {
    let clients = cfg.clients.max(1);
    let start = Instant::now();
    let outcomes: Vec<Result<WorkerOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| scope.spawn(move || worker(cfg, i)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect()
    });
    let elapsed = start.elapsed();

    let mut merged: Option<HistogramSnapshot> = None;
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut durable_acks = 0u64;
    let mut mix: Vec<(String, u64)> = Vec::new();
    let mut status_counts: Vec<StatusCount> = Vec::new();
    let mut slowest: Vec<SlowRequest> = Vec::new();
    let mut error_samples = Vec::new();
    // Per-instance accumulators: (name, clients, histogram, ok, errors).
    let mut per: Vec<(String, u64, HistogramSnapshot, u64, u64)> = Vec::new();
    for outcome in outcomes {
        let outcome = outcome?;
        match per.iter_mut().find(|(name, ..)| *name == outcome.instance) {
            Some((_, n, h, p_ok, p_err)) => {
                *n += 1;
                h.merge(&outcome.histogram);
                *p_ok += outcome.ok;
                *p_err += outcome.errors;
            }
            None => per.push((
                outcome.instance.clone(),
                1,
                outcome.histogram.clone(),
                outcome.ok,
                outcome.errors,
            )),
        }
        merged = Some(match merged {
            None => outcome.histogram,
            Some(mut m) => {
                m.merge(&outcome.histogram);
                m
            }
        });
        ok += outcome.ok;
        errors += outcome.errors;
        durable_acks += outcome.durable_acks;
        for (label, n) in outcome.mix {
            match mix.iter_mut().find(|(l, _)| l == label) {
                Some((_, total)) => *total += n,
                None => mix.push((label.to_owned(), n)),
            }
        }
        for sc in outcome.status_counts {
            match status_counts.iter_mut().find(|c| c.status == sc.status) {
                Some(c) => c.count += sc.count,
                None => status_counts.push(sc),
            }
        }
        slowest.extend(outcome.slowest);
        for sample in outcome.error_samples {
            if error_samples.len() < 5 {
                error_samples.push(sample);
            }
        }
    }
    status_counts.sort_by_key(|c| c.status);
    slowest.sort_by_key(|s| std::cmp::Reverse(s.micros));
    slowest.truncate(SLOWEST_KEPT);
    per.sort_by(|a, b| a.0.cmp(&b.0));
    let per_instance = per
        .into_iter()
        .map(|(instance, clients, h, p_ok, p_err)| InstanceLatency {
            instance,
            clients,
            requests: p_ok + p_err,
            errors: p_err,
            mean_micros: h.mean(),
            p50_micros: h.quantile(0.50),
            p95_micros: h.quantile(0.95),
            p99_micros: h.quantile(0.99),
            max_micros: h.max,
        })
        .collect();
    // Durability view: the server's own append/fsync histograms, fetched
    // after the last client finished so the lines cover this run. Best
    // effort — a server without `--wal-dir` reports no `wal` section and
    // the summary's durability view stays `None`.
    let wal = fetch_wal_view(&cfg.addr, durable_acks);
    let snap = merged.expect("at least one client");
    let requests = ok + errors;
    let secs = elapsed.as_secs_f64();
    Ok(LoadgenSummary {
        clients: clients as u64,
        requests,
        ok,
        errors,
        elapsed_millis: secs * 1e3,
        req_per_sec: if secs > 0.0 {
            requests as f64 / secs
        } else {
            f64::INFINITY
        },
        mean_micros: snap.mean(),
        p50_micros: snap.quantile(0.50),
        p95_micros: snap.quantile(0.95),
        p99_micros: snap.quantile(0.99),
        max_micros: snap.max,
        mix,
        status_counts,
        slowest,
        error_samples,
        per_instance,
        wal,
    })
}

/// Reads the server's WAL stats from `/metrics` into a [`WalDurability`]
/// view. Returns `None` when the server is not durable (no `wal` section)
/// or the scrape fails — durability reporting never fails a load run.
fn fetch_wal_view(addr: &str, durable_acks: u64) -> Option<WalDurability> {
    let mut client = HttpClient::new(addr.to_owned());
    let (status, body) = client.get("/metrics").ok()?;
    if status != 200 {
        return None;
    }
    let report: MetricsReport = serde_json::from_str(&body).ok()?;
    let wal = report.wal?;
    Some(WalDurability {
        policy: wal.policy,
        records: wal.records,
        fsyncs: wal.fsyncs,
        durable_acks,
        append: wal.append,
        fsync: wal.fsync,
    })
}

/// One timed request; records latency + status into the worker's tallies
/// and hands back the response body (so the event path can check for a
/// durable ack without a second parse site).
fn timed_post(
    client: &mut HttpClient,
    path: &str,
    body: &str,
    label: &'static str,
    out: &mut WorkerTally,
) -> Result<String, String> {
    let start = Instant::now();
    let (status, resp) = client
        .post(path, body)
        .map_err(|e| format!("{label} request failed: {e}"))?;
    let micros = start.elapsed().as_micros() as u64;
    out.histogram.record(micros);
    out.mix
        .iter_mut()
        .find(|(l, _)| *l == label)
        .expect("label pre-registered")
        .1 += 1;
    out.slowest.push(SlowRequest {
        endpoint: label.to_owned(),
        status: u64::from(status),
        micros,
        trace: client.last_trace_id().unwrap_or_default().to_owned(),
    });
    if out.slowest.len() > SLOWEST_KEPT {
        out.slowest.sort_by_key(|s| std::cmp::Reverse(s.micros));
        out.slowest.truncate(SLOWEST_KEPT);
    }
    if (200..300).contains(&status) {
        out.ok += 1;
    } else {
        out.errors += 1;
        let code = u64::from(status);
        match out.status_counts.iter_mut().find(|c| c.status == code) {
            Some(c) => c.count += 1,
            None => out.status_counts.push(StatusCount {
                status: code,
                count: 1,
            }),
        }
        if out.error_samples.len() < 3 {
            let detail = serde_json::from_str::<ErrorBody>(&resp)
                .map(|b| format!("{status} {}: {}", b.kind, b.error))
                .unwrap_or_else(|_| format!("{status}: {resp}"));
            out.error_samples.push(detail);
        }
    }
    Ok(resp)
}

struct WorkerTally {
    histogram: Histogram,
    ok: u64,
    errors: u64,
    durable_acks: u64,
    mix: Vec<(&'static str, u64)>,
    status_counts: Vec<StatusCount>,
    slowest: Vec<SlowRequest>,
    error_samples: Vec<String>,
}

fn worker(cfg: &LoadgenConfig, index: usize) -> Result<WorkerOutcome, String> {
    let mut client = HttpClient::new(cfg.addr.clone());
    let (status, body) = client
        .get("/healthz")
        .map_err(|e| format!("GET /healthz failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /healthz answered {status}: {body}"));
    }
    let health: HealthReport =
        serde_json::from_str(&body).map_err(|e| format!("bad /healthz body: {e}"))?;

    // This client's tenant: round-robin over the configured instances.
    let instance = match cfg.instances.get(index % cfg.instances.len().max(1)) {
        Some(name) => name.clone(),
        None => "default".to_owned(),
    };
    // The health report only describes the "default" workload instance;
    // other tenants' universe shapes come from `GET /instances` (touching
    // the instance first, so a lazily-registered packed file is cold-opened
    // and its dimensions are visible).
    let (users, events, intervals) = if instance == "default" {
        (
            health.users as usize,
            health.events as u32,
            health.intervals as u32,
        )
    } else {
        let warm = SolveRequest {
            spec: cfg.spec,
            k: 1,
            instance: InstanceName::new(&*instance),
        };
        let warm_body = serde_json::to_string(&warm).map_err(|e| e.to_string())?;
        let (status, body) = client
            .post("/solve", &warm_body)
            .map_err(|e| format!("warm solve on '{instance}' failed: {e}"))?;
        if status != 200 {
            return Err(format!(
                "warm solve on '{instance}' answered {status}: {body}"
            ));
        }
        let (status, body) = client
            .get("/instances")
            .map_err(|e| format!("GET /instances failed: {e}"))?;
        if status != 200 {
            return Err(format!("GET /instances answered {status}: {body}"));
        }
        let report: InstancesReport =
            serde_json::from_str(&body).map_err(|e| format!("bad /instances body: {e}"))?;
        let info = report
            .instances
            .iter()
            .find(|i| i.name == instance && i.loaded)
            .ok_or_else(|| format!("instance '{instance}' not loaded after a warm solve"))?;
        (info.users, info.events as u32, info.intervals as u32)
    };

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let session = format!("lg-{}-{index}", cfg.seed);
    let mut tally = WorkerTally {
        histogram: Histogram::new(),
        ok: 0,
        errors: 0,
        durable_acks: 0,
        mix: ["open", "solve", "event", "report", "close"]
            .into_iter()
            .map(|l| (l, 0u64))
            .collect(),
        status_counts: Vec::new(),
        slowest: Vec::new(),
        error_samples: Vec::new(),
    };

    let open = SessionOpen {
        name: session.clone(),
        spec: cfg.spec,
        k: cfg.k.min(events as usize),
        instance: InstanceName::new(&*instance),
    };
    let open_body = serde_json::to_string(&open).map_err(|e| e.to_string())?;
    timed_post(
        &mut client,
        &format!("/sessions/{session}/open"),
        &open_body,
        "open",
        &mut tally,
    )?;

    let event_path = format!("/sessions/{session}/event");
    let report_path = format!("/sessions/{session}/report");
    for _ in 0..cfg.requests {
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll < cfg.solve_fraction {
            let req = SolveRequest {
                spec: cfg.spec,
                k: cfg.solve_k.min(events as usize),
                instance: InstanceName::new(&*instance),
            };
            let body = serde_json::to_string(&req).map_err(|e| e.to_string())?;
            timed_post(&mut client, "/solve", &body, "solve", &mut tally)?;
            continue;
        }
        // Session traffic: mostly announcements (the paper's headline
        // disruption), plus schedule churn and reports.
        let event = match rng.gen_range(0u32..100) {
            0..=44 => SessionEvent::Announce(Announcement {
                interval: IntervalId::new(rng.gen_range(0..intervals)),
                postings: rival_postings(&mut rng, users, &RivalProfile::mild()),
            }),
            45..=56 => SessionEvent::Extend,
            57..=68 => SessionEvent::Cancel(Cancellation {
                event: EventId::new(rng.gen_range(0..events)),
            }),
            69..=79 => SessionEvent::Arrive(Arrival {
                event: EventId::new(rng.gen_range(0..events)),
            }),
            80..=84 => SessionEvent::Capacity(CapacityChange {
                budget: 20.0 * rng.gen_range(0.5..1.5),
            }),
            _ => {
                timed_post(&mut client, &report_path, "", "report", &mut tally)?;
                continue;
            }
        };
        let body = serde_json::to_string(&event).map_err(|e| e.to_string())?;
        let resp = timed_post(&mut client, &event_path, &body, "event", &mut tally)?;
        // A reply carrying a WAL LSN means the event was logged before it
        // was answered — the client-side half of the durability contract.
        if let Ok(report) = serde_json::from_str::<ses_service::EventReport>(&resp) {
            if report.lsn > 0 {
                tally.durable_acks += 1;
            }
        }
    }

    timed_post(
        &mut client,
        &format!("/sessions/{session}/close"),
        "",
        "close",
        &mut tally,
    )?;

    Ok(WorkerOutcome {
        instance,
        histogram: tally.histogram.snapshot(),
        ok: tally.ok,
        errors: tally.errors,
        durable_acks: tally.durable_acks,
        mix: tally.mix,
        status_counts: tally.status_counts,
        slowest: tally.slowest,
        error_samples: tally.error_samples,
    })
}
