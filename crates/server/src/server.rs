//! The server runtime: listener, connection handlers, routing, solver
//! permits, rebalance, shutdown. The concurrency model is the crate docs'
//! "Architecture" section.

use crate::http::{self, RecvError};
use crate::metrics::{
    Endpoint, EndpointLatency, EngineTotals, Histogram, HistogramSnapshot, MetricsReport,
    ServerMetrics, ShardStatus, WalReport,
};
use crate::shard::{json_body, resolve, shard_of, stats_of, ApiError, Shard, Shards};
use serde::{Deserialize, Serialize};
use ses_core::testkit::workload_instance;
use ses_core::SesInstance;
use ses_durable::{FsyncPolicy, ShardWal, WalConfig};
use ses_obs::{Level, OpsDelta, Stage, TraceId};
use ses_service::{
    EvalRequest, InstanceInfo, InstanceName, InstanceRegistry, ServiceError, SessionEvent,
    SessionOpen, SessionReport, SolveRequest,
};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// How the server is built: network shape, concurrency, limits, and the
/// workload instance every request runs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests do this).
    pub addr: String,
    /// Session shards: each a mutex-guarded `SchedulerService` (plus its
    /// WAL when durable), locked by session ops on their connection
    /// threads; also the most solver runs (`/solve`, `/eval`, session
    /// opens) that execute at once.
    pub shards: usize,
    /// Pre-spawned connection-handler pool size. More concurrent
    /// keep-alive connections than this are still served — by tracked
    /// overflow threads — so this sizes the steady state, not a limit.
    pub io_threads: usize,
    /// Largest accepted request body; longer bodies get `413`.
    pub max_body_bytes: usize,
    /// Requests slower than this dump their span timeline to the log at
    /// `warn` level.
    pub slow_request_millis: u64,
    /// Users in the workload instance (see
    /// [`ses_core::testkit::workload_instance`]).
    pub users: usize,
    /// Candidate events in the workload instance.
    pub events: usize,
    /// Intervals in the workload instance.
    pub intervals: usize,
    /// Instance seed.
    pub seed: u64,
    /// Additional named instances, registered as paths to packed files
    /// (`ses pack` output). Each is opened lazily on its first request;
    /// the in-memory workload instance is always registered as
    /// `"default"`. A `"default"` entry here *replaces* the workload
    /// instance, so a server can boot entirely from packed files.
    pub instances: Vec<(String, PathBuf)>,
    /// Durability: when set, every shard keeps a [`ses_durable::ShardWal`]
    /// under `<wal_dir>/shard-{i}`, recovers its sessions at boot, and
    /// `POST /admin/rebalance` can migrate live sessions between shards.
    /// `None` (the default) runs fully in-memory, exactly as before.
    pub wal_dir: Option<PathBuf>,
    /// Fsync policy for WAL appends (ignored without `wal_dir`).
    pub fsync: FsyncPolicy,
    /// Snapshot a session's journal after this many events (`0` disables
    /// snapshots and WAL truncation; ignored without `wal_dir`).
    pub snapshot_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            shards: 4,
            io_threads: 8,
            max_body_bytes: 1 << 20,
            slow_request_millis: 250,
            users: 400,
            events: 60,
            intervals: 24,
            seed: 0,
            instances: Vec::new(),
            wal_dir: None,
            fsync: FsyncPolicy::Interval { millis: 25 },
            snapshot_every: 64,
        }
    }
}

/// The `GET /healthz` response: liveness plus the instance identity a
/// client needs to rebuild the server's universe bit-for-bit (the replay
/// determinism check does exactly that).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Always `"ok"` when the server answers at all.
    pub status: String,
    /// Users in the workload instance.
    pub users: u64,
    /// Candidate events in the workload instance.
    pub events: u64,
    /// Intervals in the workload instance.
    pub intervals: u64,
    /// Instance seed.
    pub seed: u64,
    /// Session shards.
    pub shards: u64,
}

/// The `GET /instances` response body: every registered instance, loaded
/// or not, in name order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstancesReport {
    /// One entry per registered instance (see
    /// [`ses_service::InstanceInfo`]).
    pub instances: Vec<InstanceInfo>,
}

/// The `GET /trace/{id}` response body: one request's span timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// The trace id, wire form (16 hex digits).
    pub trace: String,
    /// Spans still in the rings for this trace.
    pub span_count: u64,
    /// Wall span of the timeline: last end minus first start (ns).
    pub total_nanos: u64,
    /// The spans, sorted by start time (parents before children).
    pub spans: Vec<SpanView>,
}

/// One span of a [`TraceReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanView {
    /// Stage label (`request`, `queue`, `service`, `solve`, `select`, …).
    pub stage: String,
    /// Start, nanoseconds since the process epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds.
    pub dur_nanos: u64,
    /// Engine-operation delta attributed to this span.
    pub ops: OpsDelta,
    /// First stage-specific auxiliary counter (see [`ses_obs::Stage`]).
    pub aux_a: u64,
    /// Second stage-specific auxiliary counter.
    pub aux_b: u64,
    /// Thread that recorded the span.
    pub thread: String,
}

impl From<&ses_obs::SpanRecord> for SpanView {
    fn from(s: &ses_obs::SpanRecord) -> Self {
        Self {
            stage: s.stage.label().to_owned(),
            start_nanos: s.start_ns,
            dur_nanos: s.dur_ns,
            ops: s.ops,
            aux_a: s.aux[0],
            aux_b: s.aux[1],
            thread: s.thread.clone(),
        }
    }
}

/// Set by the SIGTERM/SIGINT handler; checked by the acceptor and every
/// connection handler alongside the per-server control flag.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM + SIGINT handlers that request a graceful shutdown of
/// every server in the process (`ses serve` calls this; tests use
/// [`ServerHandle::shutdown`] instead). The handler only stores to an
/// atomic — the async-signal-safe minimum.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C standard library's handler registration,
    // declared with its exact ABI; SIGINT/SIGTERM are valid signal numbers
    // on every unix this builds for. The handler itself only performs a
    // single atomic store to a `static AtomicBool` — no allocation, locks,
    // formatting, or non-reentrant libc calls — which keeps it within the
    // async-signal-safe subset, and `extern "C" fn(i32)` matches the
    // handler type `signal` expects. Replacing a previously installed
    // handler is the documented, race-free behavior of `signal`.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// No-op outside unix (the ctrl-channel path still works everywhere).
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Whether a process-wide signal shutdown has been requested.
pub fn signal_shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

/// Shared server state (config copies, flags, metrics, shards, routes,
/// permits).
struct ServerState {
    ctrl_shutdown: AtomicBool,
    max_body_bytes: usize,
    slow_request_micros: u64,
    /// The session shards.
    shards: Shards,
    /// Bounds concurrent solver runs on connection threads at the shard
    /// count.
    permits: SolverPermits,
    overflow_active: AtomicUsize,
    started: Instant,
    metrics: ServerMetrics,
    health: HealthReport,
    /// The instance registry every request resolves instances through;
    /// `GET /instances` answers from it without touching any shard.
    registry: Arc<InstanceRegistry>,
    /// Whether shards run with a WAL (gates `POST /admin/rebalance`).
    durable: bool,
    /// Session name → shard, for sessions living off their name-hash home.
    /// Written only by rebalances, under both shard locks; the common case
    /// is one uncontended read of an empty map.
    route_overrides: RwLock<HashMap<String, usize>>,
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.ctrl_shutdown.load(Ordering::SeqCst) || signal_shutdown_requested()
    }

    /// The shard `name`'s requests go to: the override when one is set,
    /// the stable name hash otherwise.
    fn route(&self, name: &str) -> usize {
        // A poisoned lock means a handler panicked mid-insert; the map
        // itself is still sound, keep routing.
        let map = self
            .route_overrides
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        map.get(name)
            .copied()
            .unwrap_or_else(|| shard_of(name, self.shards.len()))
    }

    /// Sets a session's route, normalizing "the name hash" back to no
    /// entry.
    fn set_route(&self, name: &str, shard: usize) {
        let mut map = self
            .route_overrides
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if shard == shard_of(name, self.shards.len()) {
            map.remove(name);
        } else {
            map.insert(name.to_owned(), shard);
        }
    }

    /// Runs one session op on `name`'s shard, on this thread (see
    /// [`Shards::run`]).
    fn on_session<T>(
        &self,
        name: &str,
        op: impl FnOnce(&mut Shard) -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        self.shards.run(|| self.route(name), op)
    }
}

/// A running server: its bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: std::thread::JoinHandle<()>,
    pool: Vec<std::thread::JoinHandle<()>>,
    /// The interval-fsync thread, under `--fsync interval:N` only.
    wal_sync: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown over the control channel and waits for
    /// every thread to drain: in-flight requests finish, new connections
    /// are no longer accepted.
    pub fn shutdown(self) {
        ses_obs::log(Level::Info, "server", "shutdown requested", &[]);
        self.state.ctrl_shutdown.store(true, Ordering::SeqCst);
        self.join();
    }

    /// Waits for the server to stop on its own (control flag or signal).
    pub fn join(self) {
        let _ = self.acceptor.join();
        for worker in self.pool {
            let _ = worker.join();
        }
        // Overflow handlers are detached; wait for their counter to drain.
        while self.state.overflow_active.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.state.shards.drain();
        if let Some(wal_sync) = self.wal_sync {
            let _ = wal_sync.join();
        }
        ses_obs::log(Level::Info, "server", "stopped", &[]);
    }
}

/// Binds the listener, recovers the shards, spawns the connection-handler
/// pool (and, under `--fsync interval:N`, the WAL-sync thread), and returns
/// a handle. The server is serving when this returns.
pub fn serve(cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    // The registry every request resolves instances through: the in-memory
    // workload instance under "default", then every configured packed file
    // (registered lazily — a path is not touched until its first request,
    // which is what makes multi-tenant boot cheap).
    let registry = Arc::new(InstanceRegistry::new());
    registry.register(
        "default",
        workload_instance(cfg.users, cfg.events, cfg.intervals, cfg.seed),
    );
    for (name, path) in &cfg.instances {
        registry.register_path(name.clone(), path.clone());
    }
    let shard_count = cfg.shards.max(1);

    // Durability: open every shard's WAL on this thread, *before* any
    // recovery runs — a bad --wal-dir (or an unsupported on-disk format)
    // must fail the boot with a typed error, not a half-started server.
    let mut shard_wals = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        match &cfg.wal_dir {
            None => shard_wals.push(None),
            Some(dir) => {
                let wal_cfg = WalConfig {
                    dir: dir.join(format!("shard-{i}")),
                    fsync: cfg.fsync,
                    snapshot_every: cfg.snapshot_every,
                    ..WalConfig::new(dir.clone())
                };
                let opened = ShardWal::open(wal_cfg).map_err(std::io::Error::other)?;
                shard_wals.push(Some(opened));
            }
        }
    }

    // A migrated session recovers on the shard whose WAL holds it — which
    // is not its name-hash home. Seed the route overrides from the
    // recovered logs so those sessions stay reachable across restarts
    // (the override map is otherwise in-memory only).
    let mut recovered_routes = HashMap::new();
    for (i, wal) in shard_wals.iter().enumerate() {
        if let Some((_, log)) = wal {
            for session in &log.sessions {
                if shard_of(&session.name, shard_count) != i {
                    recovered_routes.insert(session.name.clone(), i);
                }
            }
        }
    }

    // Recovery runs before the acceptor starts: no request can see a
    // shard mid-replay.
    let shards = Shards::boot(&registry, shard_wals)?;

    let state = Arc::new(ServerState {
        ctrl_shutdown: AtomicBool::new(false),
        max_body_bytes: cfg.max_body_bytes,
        slow_request_micros: cfg.slow_request_millis.saturating_mul(1_000),
        shards,
        permits: SolverPermits {
            held: Mutex::new(0),
            released: Condvar::new(),
            limit: shard_count,
        },
        overflow_active: AtomicUsize::new(0),
        started: Instant::now(),
        metrics: ServerMetrics::new(),
        health: HealthReport {
            status: "ok".to_owned(),
            users: cfg.users as u64,
            events: cfg.events as u64,
            intervals: cfg.intervals as u64,
            seed: cfg.seed,
            shards: shard_count as u64,
        },
        registry,
        durable: cfg.wal_dir.is_some(),
        route_overrides: RwLock::new(recovered_routes),
    });

    let interval_fsync = matches!(cfg.fsync, FsyncPolicy::Interval { .. });
    let wal_sync = (state.durable && interval_fsync).then(|| {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("ses-wal-sync".to_owned())
            .spawn(move || state.shards.sync_wals())
            // ses-analyze: allow(server-panic-discipline): boot-time spawn, fails fast before serving
            .expect("spawn WAL sync")
    });

    // Rendezvous channel: a send succeeds only while a pool worker is
    // already blocked in recv, which is exactly the "is anyone idle?"
    // question the acceptor needs answered race-free.
    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(0);
    let conn_rx = Arc::new(std::sync::Mutex::new(conn_rx));
    let mut pool = Vec::with_capacity(cfg.io_threads.max(1));
    for i in 0..cfg.io_threads.max(1) {
        let state = Arc::clone(&state);
        let conn_rx = Arc::clone(&conn_rx);
        pool.push(
            std::thread::Builder::new()
                .name(format!("ses-conn-{i}"))
                .spawn(move || loop {
                    // A poisoned lock only means a sibling handler panicked
                    // while holding it; the receiver inside is still sound,
                    // so keep serving instead of tearing down the pool.
                    let received = conn_rx
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .recv();
                    match received {
                        Ok(stream) => serve_connection(stream, &state),
                        Err(_) => break, // acceptor gone, pool drains
                    }
                })
                // ses-analyze: allow(server-panic-discipline): boot-time spawn, fails fast before serving
                .expect("spawn connection handler"),
        );
    }

    let acceptor_state = Arc::clone(&state);
    let acceptor = std::thread::Builder::new()
        .name("ses-acceptor".to_owned())
        .spawn(move || {
            accept_loop(listener, conn_tx, acceptor_state);
        })
        // ses-analyze: allow(server-panic-discipline): boot-time spawn, fails fast before serving
        .expect("spawn acceptor");

    ses_obs::log(
        Level::Info,
        "server",
        "listening",
        &[
            ("addr", addr.to_string().into()),
            ("shards", shard_count.into()),
            ("io_threads", cfg.io_threads.max(1).into()),
            ("slow_request_millis", cfg.slow_request_millis.into()),
            ("instances", state.registry.names().len().into()),
        ],
    );

    Ok(ServerHandle {
        addr,
        state,
        acceptor,
        pool,
        wal_sync,
    })
}

fn accept_loop(
    listener: TcpListener,
    conn_tx: mpsc::SyncSender<TcpStream>,
    state: Arc<ServerState>,
) {
    while !state.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                match conn_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(stream)) => {
                        // Every pool worker is pinned to a live connection;
                        // spawn a tracked overflow handler so this
                        // connection is not starved behind them.
                        let state2 = Arc::clone(&state);
                        state.overflow_active.fetch_add(1, Ordering::SeqCst);
                        ses_obs::log(
                            Level::Debug,
                            "server",
                            "pool saturated, spawning overflow handler",
                            &[(
                                "active",
                                state.overflow_active.load(Ordering::SeqCst).into(),
                            )],
                        );
                        let spawned = std::thread::Builder::new()
                            .name("ses-conn-overflow".to_owned())
                            .spawn(move || {
                                serve_connection(stream, &state2);
                                state2.overflow_active.fetch_sub(1, Ordering::SeqCst);
                            });
                        if spawned.is_err() {
                            state.overflow_active.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => break,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Dropping `conn_tx` lets the pool wind down once every in-flight
    // connection finishes.
}

/// Per-connection read timeout between requests: bounds how long a handler
/// can sit blocked on an idle keep-alive connection before re-checking the
/// shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// Read timeout while a request body is in flight. Much longer than the
/// idle poll: a client that received `100 Continue` (or is simply on a
/// slow link) may legitimately take more than one idle tick to deliver
/// its body, and dropping it mid-request would lose the request without
/// a response.
const BODY_TIMEOUT: Duration = Duration::from_secs(30);

fn serve_connection(stream: TcpStream, state: &ServerState) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;

    loop {
        let head = match http::read_head(&mut reader) {
            Ok(head) => head,
            Err(RecvError::Idle) => {
                if state.shutting_down() {
                    break;
                }
                continue;
            }
            Err(RecvError::Closed) | Err(RecvError::Io(_)) => break,
            Err(RecvError::Malformed(m)) => {
                let err = ApiError::new(400, "malformed_http", m);
                let _ = http::write_response(&mut writer, err.status, &err.body(), false);
                state.metrics.record(Endpoint::Other, 400, 0);
                break;
            }
        };

        let start = Instant::now();
        // Honor a valid inbound trace id, mint one otherwise; everything
        // recorded on this thread until the scope drops belongs to it.
        let trace = head
            .trace
            .as_deref()
            .and_then(TraceId::parse)
            .unwrap_or_else(TraceId::generate);
        let trace_hex = trace.to_string();
        let _trace_guard = ses_obs::trace_scope(trace);
        let mut request_span = ses_obs::span(Stage::Request);

        // Body-size cap *before* reading the body (satellite: oversized
        // ingestion is rejected up front with a structured 413).
        if head.content_length > state.max_body_bytes {
            let err = ApiError::new(
                413,
                "body_too_large",
                format!(
                    "request body of {} bytes exceeds the {}-byte cap",
                    head.content_length, state.max_body_bytes
                ),
            );
            let _ = http::write_response_ex(
                &mut writer,
                err.status,
                &err.body(),
                false,
                &[("x-ses-trace-id", trace_hex.as_str())],
                false,
            );
            state
                .metrics
                .record(Endpoint::Other, 413, start.elapsed().as_micros() as u64);
            break; // the unread body makes the stream unusable
        }
        if head.expect_continue && http::write_continue(&mut writer).is_err() {
            break;
        }
        // The idle-poll timeout is for *between* requests; give the body
        // its own, much longer deadline (the socket is shared with the
        // reader's cloned handle, so setting it on `writer` covers both).
        let _ = writer.set_read_timeout(Some(BODY_TIMEOUT));
        let body = {
            let _parse_span = ses_obs::span(Stage::Parse);
            match http::read_body(&mut reader, head.content_length) {
                Ok(body) => body,
                Err(_) => break,
            }
        };
        let _ = writer.set_read_timeout(Some(IDLE_POLL));

        // OPTIONS answers with the route's Allow list; HEAD routes as GET
        // and sends headers only (both satellites: no more blanket 405/404
        // on known routes).
        let (endpoint, status, response_body, allow) = if head.method == "OPTIONS" {
            match allow_for(&head.path) {
                Some((endpoint, allow)) => (
                    endpoint,
                    200,
                    format!("{{\"allow\":\"{allow}\"}}"),
                    Some(allow),
                ),
                None => {
                    let err = ApiError::new(
                        404,
                        "unknown_route",
                        format!("no route for OPTIONS {}", head.path),
                    );
                    (Endpoint::Other, err.status, err.body(), None)
                }
            }
        } else {
            let method = if head.method == "HEAD" {
                "GET"
            } else {
                head.method.as_str()
            };
            let (endpoint, result) = route(state, method, &head.path, &body);
            let (status, response_body) = match result {
                Ok(body) => (200, body),
                Err(e) => (e.status, e.body()),
            };
            (endpoint, status, response_body, None)
        };

        let keep_alive = head.keep_alive && !state.shutting_down();
        let mut extra_headers: Vec<(&str, &str)> = vec![("x-ses-trace-id", trace_hex.as_str())];
        if let Some(allow) = allow {
            extra_headers.push(("Allow", allow));
        }
        let written = {
            let _respond_span = ses_obs::span(Stage::Respond);
            http::write_response_ex(
                &mut writer,
                status,
                &response_body,
                keep_alive,
                &extra_headers,
                head.method == "HEAD",
            )
        };

        let micros = start.elapsed().as_micros() as u64;
        request_span.set_aux(u64::from(status), 0);
        drop(request_span); // recorded now, so the slow log sees it
        state.metrics.record(endpoint, status, micros);
        if micros >= state.slow_request_micros && ses_obs::log_enabled(Level::Warn) {
            let timeline = ses_obs::format_trace(trace, &ses_obs::collect_trace(trace));
            ses_obs::log(
                Level::Warn,
                "server",
                "slow request",
                &[
                    ("method", head.method.as_str().into()),
                    ("path", head.path.as_str().into()),
                    ("status", status.into()),
                    ("millis", (micros as f64 / 1e3).into()),
                    ("trace", trace_hex.as_str().into()),
                    ("timeline", timeline.into()),
                ],
            );
        }
        if written.is_err() || !keep_alive {
            break;
        }
    }
    let _ = writer.flush();
}

/// Parses a request body, turning shim parse errors into structured 400s
/// (satellite: parse failures must answer, not drop the connection).
fn parse_body<T: serde::Deserialize>(body: &str, what: &str) -> Result<T, ApiError> {
    serde_json::from_str(body)
        .map_err(|e| ApiError::new(400, "parse", format!("invalid {what} body: {e}")))
}

/// Routes one request and produces its response body (or typed error).
fn route(
    state: &ServerState,
    method: &str,
    path: &str,
    body: &str,
) -> (Endpoint, Result<String, ApiError>) {
    let path = path.split('?').next().unwrap_or(path);
    match (method, path) {
        ("GET", "/healthz") => (Endpoint::Healthz, json_body(&state.health)),
        ("GET", "/metrics") => (Endpoint::Metrics, metrics_report(state)),
        ("GET", "/instances") => (
            Endpoint::Instances,
            json_body(&InstancesReport {
                instances: state.registry.describe(),
            }),
        ),
        ("GET", p) if p.starts_with("/trace/") => {
            (Endpoint::Trace, trace_report(&p["/trace/".len()..]))
        }
        ("POST", "/solve") => (
            Endpoint::Solve,
            parse_body::<SolveRequest>(body, "SolveRequest")
                .and_then(|req| solver_run(state, &req.instance, |i| ses_service::solve(i, &req)))
                .and_then(|resp| json_body(&resp)),
        ),
        ("POST", "/eval") => (
            Endpoint::Eval,
            parse_body::<EvalRequest>(body, "EvalRequest")
                .and_then(|req| {
                    solver_run(state, &req.instance, |i| ses_service::evaluate(i, &req))
                })
                .and_then(|resp| json_body(&resp)),
        ),
        ("POST", "/admin/rebalance") => (Endpoint::Rebalance, rebalance(state, body)),
        _ => match session_route(path) {
            Some((name, action)) if method == "POST" => {
                let result = match action {
                    "open" => open_session(state, &name, body),
                    "event" => parse_body::<SessionEvent>(body, "SessionEvent").and_then(|event| {
                        state.on_session(&name, |shard| shard.event(&name, &event))
                    }),
                    "report" => {
                        state.on_session(&name, |shard| json_body(&shard.service.report(&name)?))
                    }
                    "close" => state.on_session(&name, |shard| shard.close(&name)),
                    other => Err(ApiError::new(
                        404,
                        "unknown_route",
                        format!("unknown session action '{other}'"),
                    )),
                };
                (session_endpoint(action).unwrap_or(Endpoint::Other), result)
            }
            Some(_) => (
                Endpoint::Other,
                Err(ApiError::new(
                    405,
                    "method_not_allowed",
                    format!("{method} is not allowed here (session routes are POST)"),
                )),
            ),
            None => (
                Endpoint::Other,
                Err(ApiError::new(
                    404,
                    "unknown_route",
                    format!("no route for {method} {path}"),
                )),
            ),
        },
    }
}

/// The `POST /admin/rebalance` request body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebalanceRequest {
    /// The session to migrate.
    pub session: String,
    /// The shard index it should live on.
    pub target: usize,
}

/// The `POST /admin/rebalance` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebalanceResponse {
    /// The migrated session.
    pub session: String,
    /// Shard it moved from.
    pub from: u64,
    /// Shard it lives on now.
    pub to: u64,
    /// Journaled events shipped with it.
    pub events_moved: u64,
    /// The session's report after replay on the target (`None` when the
    /// request was a no-op because the session was already there).
    #[serde(default)]
    pub report: Option<SessionReport>,
}

/// Live session migration. The source and target shards are locked
/// together (lower index first), so no request sees half a session: the
/// session's journal is extracted at the source (leaving a close record,
/// so a crash never resurrects it there), installed on the target
/// (re-logged with fresh LSNs, then replayed through the service), and
/// re-routed, all before either lock is released. A request that waited
/// on the source lock finds the new route and follows it — to every
/// client the move is invisible. On an install failure the journal is
/// re-installed at the source and the route stays put.
fn rebalance(state: &ServerState, body: &str) -> Result<String, ApiError> {
    let req: RebalanceRequest = parse_body(body, "RebalanceRequest")?;
    if !state.durable {
        return Err(ApiError::new(
            400,
            "not_durable",
            "session migration requires the server to run with --wal-dir",
        ));
    }
    if req.target >= state.shards.len() {
        return Err(ApiError::new(
            400,
            "bad_target",
            format!(
                "target shard {} out of range (server has {} shards)",
                req.target,
                state.shards.len()
            ),
        ));
    }
    let name = req.session.as_str();
    loop {
        let source = state.route(name);
        if source == req.target {
            // Already home — but "rebalance a session that does not exist"
            // must still be a 404, so ask the shard before declaring no-op.
            state.on_session(name, |shard| Ok(shard.service.report(name)?))?;
            return json_body(&RebalanceResponse {
                session: req.session,
                from: source as u64,
                to: req.target as u64,
                events_moved: 0,
                report: None,
            });
        }
        let (mut from, mut to) = state.shards.lock_pair(source, req.target)?;
        if state.route(name) != source {
            // Another rebalance moved the session first.
            continue;
        }
        let journal = from.extract(name)?;
        let events_moved = journal.events.len() as u64;
        return match to.install(&state.registry, &journal) {
            Ok(report) => {
                state.set_route(name, req.target);
                ses_obs::log(
                    Level::Info,
                    "server",
                    "session rebalanced",
                    &[
                        ("session", name.into()),
                        ("from", source.into()),
                        ("to", req.target.into()),
                        ("events_moved", events_moved.into()),
                    ],
                );
                json_body(&RebalanceResponse {
                    session: req.session.clone(),
                    from: source as u64,
                    to: req.target as u64,
                    events_moved,
                    report: Some(report),
                })
            }
            Err(e) => {
                // Roll back: the journal is still in hand — reinstall at
                // the source so the session survives the failed migration.
                let restored = from.install(&state.registry, &journal);
                ses_obs::log(
                    Level::Warn,
                    "server",
                    "rebalance install failed, session restored at source",
                    &[
                        ("session", name.into()),
                        ("error", e.message.as_str().into()),
                        ("restored", restored.is_ok().into()),
                    ],
                );
                Err(ApiError::new(
                    500,
                    "rebalance_failed",
                    format!(
                        "install on shard {} failed ({}); session restored on shard {source}",
                        req.target, e.message
                    ),
                ))
            }
        };
    }
}

/// Builds the `GET /trace/{id}` response: bad ids are 400, traces with no
/// spans left in the rings (never seen, or evicted by wrapping) are 404.
fn trace_report(raw: &str) -> Result<String, ApiError> {
    let Some(id) = TraceId::parse(raw) else {
        return Err(ApiError::new(
            400,
            "bad_trace_id",
            format!("'{raw}' is not a trace id (1-16 hex digits, non-zero)"),
        ));
    };
    let spans = ses_obs::collect_trace(id);
    if spans.is_empty() {
        return Err(ApiError::new(
            404,
            "unknown_trace",
            format!("trace {id} has no recorded spans (never seen, or evicted)"),
        ));
    }
    let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end = spans.iter().map(|s| s.end_ns()).max().unwrap_or(origin);
    let report = TraceReport {
        trace: id.to_string(),
        span_count: spans.len() as u64,
        total_nanos: end.saturating_sub(origin),
        spans: spans.iter().map(SpanView::from).collect(),
    };
    json_body(&report)
}

/// The `Allow` list for a known route (`None` = 404). Used by the OPTIONS
/// handler.
fn allow_for(path: &str) -> Option<(Endpoint, &'static str)> {
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/healthz" => Some((Endpoint::Healthz, "GET, HEAD, OPTIONS")),
        "/metrics" => Some((Endpoint::Metrics, "GET, HEAD, OPTIONS")),
        "/instances" => Some((Endpoint::Instances, "GET, HEAD, OPTIONS")),
        "/solve" => Some((Endpoint::Solve, "POST, OPTIONS")),
        "/eval" => Some((Endpoint::Eval, "POST, OPTIONS")),
        "/admin/rebalance" => Some((Endpoint::Rebalance, "POST, OPTIONS")),
        p if p.starts_with("/trace/") && !p["/trace/".len()..].is_empty() => {
            Some((Endpoint::Trace, "GET, HEAD, OPTIONS"))
        }
        p => Some((session_endpoint(session_route(p)?.1)?, "POST, OPTIONS")),
    }
}

/// The endpoint of a session action (`None` = no such action).
fn session_endpoint(action: &str) -> Option<Endpoint> {
    match action {
        "open" => Some(Endpoint::Open),
        "event" => Some(Endpoint::Event),
        "report" => Some(Endpoint::Report),
        "close" => Some(Endpoint::Close),
        _ => None,
    }
}

/// Decodes `%XX` percent-escapes (no `+`-to-space: this is a path segment,
/// not a query string). `None` on truncated/invalid escapes or non-UTF-8.
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hi = (*bytes.get(i + 1)? as char).to_digit(16)?;
            let lo = (*bytes.get(i + 2)? as char).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Splits `/sessions/{name}/{action}` (non-empty name, no deeper nesting)
/// and percent-decodes the name, so clients can use session names with
/// spaces or non-ASCII characters in URL paths.
fn session_route(path: &str) -> Option<(String, &str)> {
    let rest = path.strip_prefix("/sessions/")?;
    let (name, action) = rest.split_once('/')?;
    if name.is_empty() || action.is_empty() || action.contains('/') {
        return None;
    }
    let name = percent_decode(name)?;
    Some((name, action))
}

/// Runs one solver call on this connection thread under a solver permit:
/// resolve the request's instance (possibly a cold open of a packed file),
/// then `run` against it.
fn solver_run<T>(
    state: &ServerState,
    instance: &InstanceName,
    run: impl FnOnce(&Arc<SesInstance>) -> Result<T, ServiceError>,
) -> Result<T, ApiError> {
    state
        .permits
        .run(|| resolve(&state.registry, instance.as_str()).and_then(|inst| run(&inst)))
        .map_err(ApiError::from)
}

/// A session open: the solve and the session build run here (a solver
/// run), then, under the owning shard's lock, the shard logs the open and
/// adopts the session — or answers 409 when the name is taken.
fn open_session(state: &ServerState, name: &str, body: &str) -> Result<String, ApiError> {
    let open: SessionOpen = parse_body(body, "SessionOpen")?;
    if open.name != name {
        return Err(ApiError::new(
            400,
            "name_mismatch",
            format!(
                "session name '{}' in the body does not match '{name}' in the path",
                open.name
            ),
        ));
    }
    let (session, response) = solver_run(state, &open.instance, |inst| {
        ses_service::prepare_session(inst, &open)
    })?;
    state.on_session(name, |shard| shard.open(&open, session))?;
    json_body(&response)
}

/// At most `limit` (the shard count) solver runs at once on connection
/// threads. Overflow connection threads are unbounded, so without this
/// bound concurrent solves would be too.
struct SolverPermits {
    held: Mutex<usize>,
    released: Condvar,
    limit: usize,
}

/// Returns its permit on drop, so a run that errors or panics frees it.
struct Permit<'a>(&'a SolverPermits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.held.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.0.released.notify_one();
    }
}

impl SolverPermits {
    /// Runs `f` once a permit is free, recording the wait as a `queue`
    /// span (`aux_a` = permits held on arrival).
    fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let arrived_ns = ses_obs::now_ns();
        let held = self.held.lock().unwrap_or_else(PoisonError::into_inner);
        let on_arrival = *held as u64;
        let mut held = self
            .released
            .wait_while(held, |held| *held >= self.limit)
            .unwrap_or_else(PoisonError::into_inner);
        *held += 1;
        drop(held);
        let _permit = Permit(self);
        let waited = ses_obs::now_ns().saturating_sub(arrived_ns);
        let no_ops = OpsDelta::default();
        ses_obs::record_span(Stage::Queue, arrived_ns, waited, no_ops, [on_arrival, 0]);
        f()
    }
}

/// Builds the `/metrics` body: server-side request accounting, per-shard
/// gauges, engine totals and WAL accounting read from each shard under its
/// lock in turn (so it waits for at most one in-flight op per shard), and
/// the process-wide span-stage latency distributions.
fn metrics_report(state: &ServerState) -> Result<String, ApiError> {
    let mut engine = EngineTotals::default();
    let mut shards_detail = Vec::with_capacity(state.shards.len());
    let mut wal: Option<WalReport> = None;
    let mut wal_append = Histogram::default().snapshot();
    let mut wal_fsync = Histogram::default().snapshot();
    let mut indexes = Vec::new();
    for index in 0..state.shards.len() {
        // A failed shard has no line: its sessions may be half-applied.
        let Ok(shard) = state.shards.lock(index) else {
            continue;
        };
        let totals = stats_of(&shard.service, &mut indexes);
        engine.merge(&totals);
        let gauge = state.shards.gauge(index);
        shards_detail.push(ShardStatus {
            shard: index as u64,
            queue_depth: gauge.depth(),
            handled: gauge.handled(),
            busy_micros: gauge.busy_micros(),
            sessions: totals.sessions,
            events_applied: totals.events_applied,
            column_slots: totals.column_slots,
            resident_bytes: totals.resident_bytes,
        });
        let Some(w) = shard.wal.as_ref() else {
            continue;
        };
        wal.get_or_insert_with(WalReport::default)
            .merge_stats(&w.stats());
        wal_append.merge(&w.append_latencies());
        wal_fsync.merge(&w.fsync_latencies());
    }
    if let Some(wal) = wal.as_mut() {
        let line = |label, s: &HistogramSnapshot| {
            (s.count > 0).then(|| EndpointLatency::from_snapshot(label, s))
        };
        wal.append = line("wal_append", &wal_append);
        wal.fsync = line("wal_fsync", &wal_fsync);
    }
    let report = MetricsReport {
        uptime_millis: state.started.elapsed().as_secs_f64() * 1e3,
        shards: state.shards.len() as u64,
        requests_2xx: state.metrics.requests_2xx(),
        requests_4xx: state.metrics.requests_4xx(),
        requests_5xx: state.metrics.requests_5xx(),
        endpoints: state.metrics.endpoint_latencies(),
        engine,
        shards_detail,
        span_stages: ses_obs::stage_latencies(),
        wal,
    };
    json_body(&report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_routes_parse() {
        assert_eq!(
            session_route("/sessions/a/open"),
            Some(("a".to_owned(), "open"))
        );
        assert_eq!(
            session_route("/sessions/lg-0-1/event"),
            Some(("lg-0-1".to_owned(), "event"))
        );
        assert_eq!(session_route("/sessions//open"), None);
        assert_eq!(session_route("/sessions/a"), None);
        assert_eq!(session_route("/sessions/a/b/c"), None);
        assert_eq!(session_route("/solve"), None);
    }

    #[test]
    fn session_names_are_percent_decoded() {
        assert_eq!(
            session_route("/sessions/caf%C3%A9%20night/report"),
            Some(("café night".to_owned(), "report"))
        );
        // Truncated and invalid escapes do not route.
        assert_eq!(session_route("/sessions/a%2/open"), None);
        assert_eq!(session_route("/sessions/a%zz/open"), None);
        // Invalid UTF-8 after decoding does not route.
        assert_eq!(session_route("/sessions/%ff%fe/open"), None);
    }

    #[test]
    fn allow_lists_cover_known_routes() {
        assert_eq!(allow_for("/healthz").unwrap().1, "GET, HEAD, OPTIONS");
        assert_eq!(
            allow_for("/instances"),
            Some((Endpoint::Instances, "GET, HEAD, OPTIONS"))
        );
        assert_eq!(allow_for("/solve").unwrap().1, "POST, OPTIONS");
        assert_eq!(allow_for("/trace/00ff").unwrap().1, "GET, HEAD, OPTIONS");
        assert_eq!(
            allow_for("/sessions/a/event"),
            Some((Endpoint::Event, "POST, OPTIONS"))
        );
        assert_eq!(allow_for("/sessions/a/nope"), None);
        assert_eq!(allow_for("/nope"), None);
    }

    #[test]
    fn solver_permits_bound_concurrent_runs_and_free_on_errors() {
        let permits = SolverPermits {
            held: Mutex::new(0),
            released: Condvar::new(),
            limit: 2,
        };
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // Runs meet in pairs, so two permits must be held at once; the
        // third and later runs wait for a pair to finish.
        let pair = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    permits.run(|| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        // Give a waiting run the chance to slip past a
                        // broken bound before the pair meets.
                        (0..64).for_each(|_| std::thread::yield_now());
                        pair.wait();
                        running.fetch_sub(1, Ordering::SeqCst);
                    })
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), 2, "six runs, two permits");
        assert_eq!(*permits.held.lock().unwrap(), 0);

        // A run that errors (or panics) still returns its permit.
        for _ in 0..3 {
            let failed: Result<(), &str> = permits.run(|| Err("k > |E|"));
            assert!(failed.is_err());
        }
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            permits.run(|| panic!("solver bug"))
        }));
        assert!(panicked.is_err());
        assert_eq!(
            *permits.held.lock().unwrap_or_else(PoisonError::into_inner),
            0
        );
        assert_eq!(permits.run(|| 7), 7, "permits are still free");
    }

    #[test]
    fn trace_reports_reject_bad_ids_and_unknown_traces() {
        let bad = trace_report("not-hex").unwrap_err();
        assert_eq!(bad.status, 400);
        assert_eq!(bad.kind, "bad_trace_id");
        // A valid id that was never recorded anywhere: 404.
        let miss = trace_report("00000000deadbeef").unwrap_err();
        assert_eq!(miss.status, 404);
        assert_eq!(miss.kind, "unknown_trace");
    }
}
