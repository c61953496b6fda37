#!/usr/bin/env python3
"""End-to-end benchmark of the `ses` workspace.

Builds the `ses` binary from the checkout this file sits in, drives it
through its public surfaces (the CLI and the HTTP server), checks that what
it answers is correct, and prints one JSON result as the last line of
standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0

`--trace 0` reports the end-to-end metrics; `--trace 1` reports the per-layer
metrics (span timelines of `ses solve --trace`, the server's `/metrics` span
stages). Metric names, units and the reasons for each workload are listed in
BENCHMARK.json; perfbench/README.md explains how each metric is measured.

The binary is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default `.bench_build` in the checkout); scratch files go
to a per-run directory under it and are removed at exit.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("solve-meetup", "solve-1m", "serve-mixed", "serve-durable")

# Workload sizes. The Meetup pipeline's cost grows steeply with members (the
# dataset is a JSON document parsed and joined into an instance on every
# `ses solve`), so the size keeps one solve near a third of a second.
MEETUP_MEMBERS = 600
MEETUP_K = 50
MILLION_USERS = 1_000_000
MILLION_K = 50
# The dataset and the server's instance come from this fixed seed: their
# size sets most of the cost, and it varies with the generator's seed. The
# run's --seed picks what is done with them (the candidate events a solve
# draws from the dataset, every request the clients send).
INSTANCE_SEED = 0
# Serving: the server's generated default instance; each client keeps one
# session open at a time.
SERVE_USERS = 1000
SERVE_EVENTS = 80
SERVE_INTERVALS = 32
SERVE_SHARDS = 4
SERVE_CLIENTS = 4
SESSION_K = 12
SOLVE_K = 8
# serve-durable: history replayed by every recovery boot.
DURABLE_SESSIONS = 4
DURABLE_HISTORY = 150
# Each client runs sessions of SESSION_REQUESTS requests; after PLAN_SESSIONS
# of them its plan starts over (reusing the closed sessions' names).
SESSION_REQUESTS = 200
PLAN_SESSIONS = 12
# How many times set-up is repeated in one run (the median is reported).
SETUP_REPEATS = {"solve-meetup": 5, "solve-1m": 3, "serve-mixed": 5, "serve-durable": 5}

END_TO_END = {
    "latency_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
}
PER_LAYER = {
    "outside_solve_ms": "ms",
    "engine_build_ms": "ms",
    "sweep_ms": "ms",
    "select_ms": "ms",
    "score_evaluations": "count",
    "posting_visits": "count",
    "request_us": "us",
    "parse_us": "us",
    "queue_us": "us",
    "service_us": "us",
    "apply_us": "us",
    "respond_us": "us",
    "wal_append_us": "us",
    "wal_fsync_us": "us",
    "client_residual_us": "us",
    "recover_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program answering wrongly)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def p90(values):
    """90th percentile, interpolated between samples (the maximum of one sample)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# ---------------------------------------------------------------- build


def build(target_dir):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} is not a ses checkout (no Cargo.toml / crates/cli)")
    cmd = ["cargo", "build", "--release", "--offline", "-p", "ses-cli", "--bin", "ses"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    binary = target_dir / "release" / "ses"
    if done.returncode != 0 or not binary.is_file():
        raise BenchError("cargo build of the ses binary failed")
    return binary


# ---------------------------------------------------------------- processes


class Procs:
    """Every child process this run started; all are stopped and reaped at exit."""

    def __init__(self):
        self.live = []

    def spawn(self, cmd, **kw):
        proc = subprocess.Popen(cmd, **kw)
        self.live.append(proc)
        return proc

    def stop(self, proc, sig=signal.SIGTERM):
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self):
        for proc in list(self.live):
            self.stop(proc, signal.SIGKILL)


def run_ses(ses, args, cwd):
    """Runs one `ses` command to completion; returns (seconds, stdout, stderr)."""
    start = time.perf_counter()
    done = subprocess.run([str(ses)] + args, cwd=cwd, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"ses {' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed, done.stdout, done.stderr


# ---------------------------------------------------------------- solve workloads


def parse_timeline(text):
    """Span durations (ms) by stage from a `ses solve --trace` timeline."""
    stages = {}
    for line in text.splitlines():
        parts = line.split()
        # "   0.555 ms    sweep   1.353 ms  evals=..."
        if len(parts) >= 5 and parts[1] == "ms" and parts[4] == "ms":
            try:
                stages.setdefault(parts[2], float(parts[3]))
            except ValueError:
                pass
    return stages


def schedule_key(resp):
    return (
        resp["total_utility"].hex(),
        tuple((a["event"], a["interval"]) for a in resp["assignments"]),
    )


def check_solve(resp, k, problems):
    pairs = [(a["event"], a["interval"]) for a in resp["assignments"]]
    util = resp["total_utility"]
    if not resp.get("complete") or len(pairs) != k:
        problems.append(f"solve placed {len(pairs)} of k={k} events")
    if len({e for e, _ in pairs}) != len(pairs):
        problems.append("solve scheduled an event twice")
    if not (math.isfinite(util) and util > 0):
        problems.append(f"solve utility {util} is not a positive number")


def solve_workload(ses, work, name, seed, seconds, trace):
    problems = []
    if name == "solve-meetup":
        made = work / "meetup.json"
        make = ["generate", "--members", str(MEETUP_MEMBERS), "--seed", str(INSTANCE_SEED)]
        source = ["--dataset", str(made), "--seed", str(seed)]
        k = MEETUP_K
    else:
        made = work / "universe.sesstore"
        make = ["pack", "--users", str(MILLION_USERS), "--seed", str(seed)]
        source = ["--instance", str(made)]
        k = MILLION_K
    setup, digests = [], set()
    for _ in range(SETUP_REPEATS[name]):
        elapsed, _, _ = run_ses(ses, make + ["--out", str(made)], work)
        setup.append(elapsed)
        with open(made, "rb") as f:
            digests.add(hashlib.file_digest(f, "sha256").hexdigest())
    if len(digests) != 1:
        problems.append(f"{name}: set-up wrote {len(digests)} different files from one seed")

    args = ["solve"] + source + ["--k", str(k), "--format", "json"]
    if trace:
        args.append("--trace")
    walls, layers, results = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() < start + seconds:
        wall, out, err = run_ses(ses, args, work)
        resp = json.loads(out)
        walls.append(wall)
        results.append(schedule_key(resp))
        check_solve(resp, k, problems)
        if trace:
            spans = parse_timeline(err)
            solve_ms = spans.get("solve", 0.0)
            sweep_ms, select_ms = spans.get("sweep", 0.0), spans.get("select", 0.0)
            layers.append(
                {
                    "outside_solve_ms": wall * 1e3 - solve_ms,
                    "engine_build_ms": max(0.0, solve_ms - sweep_ms - select_ms),
                    "sweep_ms": sweep_ms,
                    "select_ms": select_ms,
                    "score_evaluations": resp["counters"]["score_evaluations"],
                    "posting_visits": resp["counters"]["posting_visits"],
                }
            )
    elapsed = time.perf_counter() - start
    if len(set(results)) != 1:
        problems.append(f"{name}: repeated solves of one input disagreed")
    # Oracle: CELF lazy greedy must pick exactly the schedule plain greedy picks.
    _, out, _ = run_ses(ses, ["solve"] + source + ["--k", str(k), "--format", "json", "--algo", "GRD-PQ"], work)
    if schedule_key(json.loads(out)) != results[0]:
        problems.append(f"{name}: GRD-PQ and GRD schedules differ")

    metrics = {
        "latency_ms": statistics.median(walls) * 1e3,
        "tail_ms": p90(walls) * 1e3,
        "throughput_per_s": len(walls) / elapsed,
        "setup_s": statistics.median(setup),
    }
    if trace:
        metrics.update({m: statistics.median(l[m] for l in layers) for m in layers[0]})
    return metrics, len(walls), 0, problems


# ---------------------------------------------------------------- HTTP client


class Conn:
    """A minimal keep-alive HTTP/1.1 client (Content-Length bodies only)."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, method, path, body=b""):
        self.sock.sendall(
            b"%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s"
            % (method.encode(), path.encode(), len(body), body)
        )
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        self.buf = rest
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, body

    def _fill(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def json(self, method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        status, resp = self.request(method, path, body)
        if status != 200:
            raise BenchError(f"{method} {path} answered {status}: {resp[:300]!r}")
        return json.loads(resp)

    def close(self):
        self.sock.close()


class Server:
    """One `ses serve` child process, stdout/stderr in files under the run directory."""

    def __init__(self, procs, ses, work, extra, tag):
        self.procs = procs
        out = work / f"serve-{tag}.out"
        err = work / f"serve-{tag}.err"
        cmd = [
            str(ses), "serve", "--addr", "127.0.0.1:0",
            "--shards", str(SERVE_SHARDS),
            "--users", str(SERVE_USERS), "--events", str(SERVE_EVENTS),
            "--intervals", str(SERVE_INTERVALS), "--seed", str(INSTANCE_SEED),
            "--log-level", "error",
        ] + extra
        self.started = time.perf_counter()
        with open(out, "wb") as o, open(err, "wb") as e:
            self.proc = procs.spawn(cmd, cwd=work, stdout=o, stderr=e)
        self.port = None
        while self.port is None:
            if self.proc.poll() is not None:
                raise BenchError(f"ses serve exited {self.proc.returncode}: {err.read_text()[-500:]}")
            for line in out.read_text().splitlines():
                if "listening on " in line:
                    self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
            if time.perf_counter() - self.started > 60:
                raise BenchError("ses serve did not report its address within 60 s")
            time.sleep(0.0005)

    def wait_healthy(self):
        """Seconds from spawn until GET /healthz answers 200."""
        while True:
            try:
                conn = Conn(self.port)
                status, _ = conn.request("GET", "/healthz")
                conn.close()
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            if time.perf_counter() - self.started > 60:
                raise BenchError("ses serve never became healthy")
            time.sleep(0.0005)

    def stop(self, sig=signal.SIGTERM):
        self.procs.stop(self.proc, sig)


# ---------------------------------------------------------------- serve workloads


def session_event(rng):
    """One session event in the server's JSON wire format, or None for a report."""
    roll = rng.randrange(100)
    if roll < 45:
        # A mild rival: noticed by about 15% of users, weakly interesting.
        reach = rng.randint(SERVE_USERS // 10, SERVE_USERS // 5)
        postings = [
            [u, round(rng.uniform(0.1, 0.4), 6)]
            for u in sorted(rng.sample(range(SERVE_USERS), reach))
        ]
        return {"Announce": {"interval": rng.randrange(SERVE_INTERVALS), "postings": postings}}
    if roll < 57:
        return "Extend"
    if roll < 69:
        return {"Cancel": {"event": rng.randrange(SERVE_EVENTS)}}
    if roll < 80:
        return {"Arrive": {"event": rng.randrange(SERVE_EVENTS)}}
    if roll < 85:
        return {"Capacity": {"budget": round(20.0 * rng.uniform(0.5, 1.5), 6)}}
    return None


def open_body(name):
    return {"name": name, "spec": "Greedy", "k": SESSION_K, "threads": 1}


def plan_requests(rng, client, eval_body):
    """A client's request sequence, (kind, method, path, body bytes): a run of
    sessions, each opened, sent SESSION_REQUESTS requests and closed, so a
    session's history (and what the server keeps for it) stays bounded
    however long the run is."""
    solve_body = json.dumps({"spec": "Greedy", "k": SOLVE_K, "threads": 1}).encode()
    plan = []
    for gen in range(PLAN_SESSIONS):
        name = f"c{client}-{gen}"
        path = f"/sessions/{name}"
        plan.append(("open", "POST", f"{path}/open", json.dumps(open_body(name)).encode()))
        for _ in range(SESSION_REQUESTS):
            roll = rng.random()
            if roll < 0.04:
                plan.append(("solve", "POST", "/solve", solve_body))
            elif roll < 0.07:
                plan.append(("eval", "POST", "/eval", eval_body))
            else:
                event = session_event(rng)
                if event is None:
                    plan.append(("report", "POST", f"{path}/report", b""))
                else:
                    plan.append(("event", "POST", f"{path}/event", json.dumps(event).encode()))
        plan.append(("close", "POST", f"{path}/close", b""))
    return plan


def drive(port, plans, seconds):
    """Closed loop: one thread per plan sends its next request when the last
    one has answered (cycling through the plan) until the deadline. Returns
    per-client lists of (request, status, seconds, body) and the elapsed time."""
    results = [[] for _ in plans]
    errors = []
    connected = threading.Barrier(len(plans) + 1)
    go = threading.Event()
    deadline = [0.0]

    def client(i):
        try:
            conn = Conn(port)
            connected.wait()
            go.wait()
            out = results[i]
            n = 0
            while True:
                req = plans[i][n % len(plans[i])]
                n += 1
                start = time.perf_counter()
                if start >= deadline[0]:
                    break
                try:
                    status, resp = conn.request(req[1], req[2], req[3])
                except OSError as e:
                    out.append((req, 0, time.perf_counter() - start, str(e).encode()))
                    conn = Conn(port)
                    continue
                out.append((req, status, time.perf_counter() - start, resp))
            conn.close()
        except Exception as e:  # surfaced below; a dead client must not hang the others
            errors.append(f"client {i}: {e!r}")
            connected.abort()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(plans))]
    for t in threads:
        t.start()
    try:
        connected.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    deadline[0] = start + seconds
    go.set()
    for t in threads:
        t.join()
    if errors:
        raise BenchError("; ".join(errors))
    return results, time.perf_counter() - start


def report_state(report):
    """The parts of a session report that must survive a replay or a recovery."""
    return (
        report["utility"].hex(),
        report["scheduled"],
        report["budget"].hex(),
        report["events_applied"],
        report["clock"],
    )


def event_state(reply):
    """The parts of an event reply that depend only on the session's history."""
    return (reply["applied"], reply["utility"].hex(), reply["scheduled"])


def stage_means(metrics):
    return {s["stage"]: s["mean_micros"] for s in metrics.get("span_stages", [])}


def serve_layers(metrics, client_event_mean_us, recover_ms):
    stages = stage_means(metrics)
    endpoints = {e["endpoint"]: e for e in metrics.get("endpoints", [])}
    wal = metrics.get("wal") or {}
    return {
        "sweep_ms": stages.get("sweep", 0.0) / 1e3,
        "select_ms": stages.get("select", 0.0) / 1e3,
        "request_us": stages.get("request", 0.0),
        "parse_us": stages.get("parse", 0.0),
        "queue_us": stages.get("queue", 0.0),
        "service_us": stages.get("service", 0.0),
        "apply_us": stages.get("apply", 0.0),
        "respond_us": stages.get("respond", 0.0),
        "wal_append_us": (wal.get("append") or {}).get("mean_micros", 0.0),
        "wal_fsync_us": (wal.get("fsync") or {}).get("mean_micros", 0.0),
        "client_residual_us": client_event_mean_us
        - endpoints.get("event", {}).get("mean_micros", client_event_mean_us),
        "recover_ms": recover_ms,
    }


def serve_workload(procs, ses, work, name, seed, seconds, trace):
    problems = []
    rng = random.Random(seed)
    durable = name == "serve-durable"
    setup = []
    recover_ms = 0.0
    if not durable:
        for i in range(SETUP_REPEATS[name]):
            server = Server(procs, ses, work, [], f"boot{i}")
            setup.append(server.wait_healthy())
            if i + 1 < SETUP_REPEATS[name]:
                server.stop()
    else:
        wal = work / "wal"
        extra = ["--wal-dir", str(wal), "--fsync", "per-record"]
        server = Server(procs, ses, work, extra, "populate")
        server.wait_healthy()
        conn = Conn(server.port)
        names = [f"hist-{s}" for s in range(DURABLE_SESSIONS)]
        for s in names:
            conn.json("POST", f"/sessions/{s}/open", open_body(s))
            for _ in range(DURABLE_HISTORY):
                event = session_event(rng)
                if event is not None:
                    conn.json("POST", f"/sessions/{s}/event", event)
        before = {s: report_state(conn.json("POST", f"/sessions/{s}/report")) for s in names}
        conn.close()
        # Set-up is crash recovery: kill -9, reboot on the same WAL, and time
        # until every logged session answers its report again.
        for i in range(SETUP_REPEATS[name]):
            server.stop(signal.SIGKILL)
            server = Server(procs, ses, work, extra, f"recover{i}")
            server.wait_healthy()
            conn = Conn(server.port)
            after = {s: report_state(conn.json("POST", f"/sessions/{s}/report")) for s in names}
            setup.append(time.perf_counter() - server.started)
            conn.close()
            if after != before:
                problems.append(f"recovery boot {i} did not restore the pre-crash sessions")
        if trace:
            conn = Conn(server.port)
            recover_ms = stage_means(conn.json("GET", "/metrics")).get("recover", 0.0) / 1e3
            conn.close()

    # Every eval body is a solve's schedule, so every eval must reproduce
    # that solve's Ω, and every solve must repeat it exactly.
    conn = Conn(server.port)
    reference = conn.json("POST", "/solve", {"spec": "Greedy", "k": SOLVE_K, "threads": 1})
    eval_body = json.dumps({"assignments": reference["assignments"]}).encode()
    conn.close()
    plans = [
        plan_requests(random.Random(f"{seed}:{i}"), i, eval_body) for i in range(SERVE_CLIENTS)
    ]

    results, elapsed = drive(server.port, plans, seconds)

    attempted = failed = 0
    event_lat = []
    for done in results:
        last_lsn = 0
        for (kind, _, path, _), status, secs, body in done:
            attempted += 1
            if status != 200:
                failed += 1
                if failed <= 3:
                    problems.append(f"{kind} {path} answered {status}: {body[:200]!r}")
                continue
            resp = json.loads(body)
            if kind == "open":
                last_lsn = 0
                check_solve(resp, SESSION_K, problems)
            elif kind == "event":
                event_lat.append(secs)
                if not (math.isfinite(resp["utility"]) and resp["scheduled"] <= SERVE_EVENTS):
                    problems.append(f"event reply out of range: {resp}")
                if durable:
                    # Acknowledged only once logged: LSNs rise within a session.
                    if resp.get("lsn", 0) <= last_lsn:
                        problems.append(f"{path}: WAL LSN {resp.get('lsn')} after {last_lsn}")
                    last_lsn = resp.get("lsn", 0)
            elif kind == "solve" and schedule_key(resp) != schedule_key(reference):
                problems.append("a POST /solve disagreed with the reference solve")
            elif kind == "eval" and not math.isclose(
                resp["total_utility"], reference["total_utility"], rel_tol=1e-9
            ):
                problems.append("POST /eval of a solved schedule did not reproduce its Ω")
    if not event_lat:
        raise BenchError("no session event was answered")

    metrics = {
        "latency_ms": statistics.median(event_lat) * 1e3,
        "tail_ms": p90(event_lat) * 1e3,
        "throughput_per_s": attempted / elapsed,
        "setup_s": statistics.median(setup),
    }
    conn = Conn(server.port)
    if trace:
        server_metrics = conn.json("GET", "/metrics")
        metrics.update(serve_layers(server_metrics, statistics.fmean(event_lat) * 1e6, recover_ms))

    # Determinism: client 0's first session, replayed event by event into a
    # fresh session after the run, must answer every event the same way.
    replay = "replay"
    conn.json("POST", f"/sessions/{replay}/open", open_body(replay))
    for (kind, method, _, body), status, _, resp in results[0][1:]:
        if kind == "close":
            break
        if kind != "event" or status != 200:
            continue
        again = conn.json(method, f"/sessions/{replay}/event", json.loads(body))
        if event_state(again) != event_state(json.loads(resp)):
            problems.append("replaying a client's events into a fresh session answered differently")
            break
    conn.close()
    server.stop()
    return metrics, attempted, failed, problems


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    procs = Procs()
    work = None
    try:
        ses = build(target)
        work = target / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if args.workload.startswith("solve"):
            metrics, attempted, failed, problems = solve_workload(
                ses, work, args.workload, args.seed, args.seconds, args.trace
            )
        else:
            metrics, attempted, failed, problems = serve_workload(
                procs, ses, work, args.workload, args.seed, args.seconds, args.trace
            )
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    finally:
        procs.stop_all()
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        log(f"check failed: {p}")
    wanted = PER_LAYER if args.trace else END_TO_END
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                # A layer the workload does not pass through reads 0.
                "metrics": {m: {"value": metrics.get(m, 0), "unit": u} for m, u in wanted.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
