#!/usr/bin/env python3
"""Shows, record by record, that a build changes only Ω and ω fields against
another, and that every Ω and ω it reports is the hash-map oracle's.

    python3 scripts/omega_only.py --before OLD_CHECKOUT --after NEW_CHECKOUT

Each checkout is built in place (`ses` and `tests/omega_records.rs`,
which is copied into the old checkout when it lacks one). Compared, old
against new:

* every step of the four `ses simulate` streams and of `bench_server`'s
  replay stream, as printed by `tests/omega_records.rs`: the schedule,
  counters, step kind, applied flag and move count must be identical; only
  the Ω fields (`utility*`) and the per-event ω may differ;
* `ses solve --format json` on the seed-2 1M packed universe for GRD,
  GRD-PQ and TOP at k = 50: everything but `total_utility` and `millis`
  must be identical.

Every new Ω and ω must then equal the oracle's bits: the example's own
rival-aware hash-map oracle for the streams (a step's `utility_before` is
checked against the oracle of the state the previous record ended in; the
mid-step `utility_disrupted` has no outside state to check against), and
for the solves the old build's `POST /eval`, which must be a build that
evaluates with the hash-map oracle (any build before Ω had one
definition). `--skip-1m` leaves the 1M solves out. Exits 1 on any
violation.
"""

import argparse
import json
import shutil
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

OMEGA_KEYS = {"utility", "utility_open", "utility_before", "utility_disrupted", "utility_after", "omega"}
ALGOS = ("GRD", "GRD-PQ", "TOP")
DUMPER = Path("tests/omega_records.rs")
PORT = 7897


def build(tree: Path, dumper_from: Path) -> None:
    if not (tree / DUMPER).exists():
        shutil.copy(dumper_from / DUMPER, tree / DUMPER)
    subprocess.run(["cargo", "build", "--release", "-q", "-p", "ses-cli"], cwd=tree, check=True)


def records(tree: Path) -> list:
    out = subprocess.run(
        ["cargo", "test", "--release", "-q", "--test", "omega_records", "--", "--ignored", "--nocapture"],
        cwd=tree, capture_output=True, text=True, check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines() if line.startswith('{"stream"')]


def post(path: str, body: bytes) -> dict:
    request = urllib.request.Request(f"http://127.0.0.1:{PORT}{path}", data=body, method="POST")
    with urllib.request.urlopen(request) as answer:
        return json.load(answer)


def compare_streams(old: list, new: list, problems: list) -> int:
    """Returns how many records changed an Ω or ω field."""
    if len(old) != len(new):
        problems.append(f"streams: {len(old)} records before, {len(new)} after")
        return 0
    changed = 0
    previous = None  # the oracle's Ω of the state the last record ended in
    for a, b in zip(old, new):
        at = f"{b['stream']} step {b['step']}"
        same = {k: v for k, v in a.items() if k not in OMEGA_KEYS}
        if same != {k: v for k, v in b.items() if k not in OMEGA_KEYS}:
            problems.append(f"{at}: a field other than Ω or ω changed")
        if [e for e, _ in a["omega"]] != [e for e, _ in b["omega"]]:
            problems.append(f"{at}: the ω lists name different events")
        changed += any(a[k] != b[k] for k in OMEGA_KEYS if k in a)
        oracle = b["oracle_utility"]
        checks = [("utility", b["utility"], oracle), ("ω", b["omega"], b["oracle_omega"])]
        if b["step"] == "open":
            checks.append(("open Ω", b["utility_open"], oracle))
        else:
            checks.append(("utility_after", b["utility_after"], oracle))
            checks.append(("utility_before", b["utility_before"], previous))
        for name, value, expected in checks:
            if value != expected:
                problems.append(f"{at}: {name} {value} is not the oracle's {expected}")
        previous = oracle
    return changed


def solves(old: Path, new: Path, work: Path, problems: list) -> int:
    store = work / "u1m-seed2.sesstore"
    if not store.exists():
        subprocess.run(
            [str(new / "target/release/ses"), "pack", "--users", "1000000", "--seed", "2", "--out", str(store)],
            check=True,
            capture_output=True,
        )
    server = subprocess.Popen(
        [str(old / "target/release/ses"), "serve", "--addr", f"127.0.0.1:{PORT}",
         "--instance", f"u1m={store}"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        for _ in range(100):
            try:
                urllib.request.urlopen(f"http://127.0.0.1:{PORT}/healthz")
                break
            except OSError:
                time.sleep(0.1)
        return solve_all(old, new, store, work, problems)
    finally:
        server.terminate()
        server.wait()


def solve_all(old: Path, new: Path, store: Path, work: Path, problems: list) -> int:
    changed = 0
    for algo in ALGOS:
        answers = []
        for tree, tag in ((old, "before"), (new, "after")):
            out = subprocess.run(
                [str(tree / "target/release/ses"), "solve", "--instance", str(store), "--k", "50",
                 "--format", "json", "--algo", algo],
                capture_output=True, text=True, check=True,
            ).stdout
            (work / f"solve-{algo}-{tag}.json").write_text(out)
            answers.append(json.loads(out))
        a, b = answers
        strip = lambda r: {k: v for k, v in r.items() if k not in ("total_utility", "millis")}
        if strip(a) != strip(b):
            problems.append(f"1M {algo}: a field other than total_utility or millis changed")
        changed += a["total_utility"] != b["total_utility"]
        body = json.dumps({"assignments": b["assignments"], "instance": "u1m"}).encode()
        oracle = post("/eval", body)["total_utility"]
        if b["total_utility"] != oracle:
            problems.append(f"1M {algo}: Ω {b['total_utility']} is not the oracle's {oracle}")
        print(f"1M {algo}: Ω {a['total_utility']!r} -> {b['total_utility']!r} (oracle {oracle!r})")
    return changed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--work", type=Path, default=Path("target/omega-only"))
    parser.add_argument("--skip-1m", action="store_true")
    args = parser.parse_args()
    before, after = args.before.resolve(), args.after.resolve()
    args.work.mkdir(parents=True, exist_ok=True)
    for tree in (before, after):
        build(tree, after)

    problems: list = []
    old, new = records(before), records(after)
    changed = compare_streams(old, new, problems)
    print(f"streams: {len(new)} records, {changed} with a changed Ω or ω field")
    if not args.skip_1m:
        changed = solves(before, after, args.work, problems)
        print(f"1M solves: {len(ALGOS)} answers, {changed} with a changed Ω")
    for p in problems[:40]:
        print("VIOLATION:", p)
    if problems:
        print(f"{len(problems)} violations")
        return 1
    print("only Ω and ω fields changed, and every new value is the oracle's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
