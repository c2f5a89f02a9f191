"""keyseries benchmark: one workload per run, measured in fresh child processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one run each

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the same operations with every traced function wrapped and reports
the per-layer metrics.  Each run repeats whole rounds of its operations while
the next round should end within ``--seconds`` (at least one round), checks
every output, writes a record under ``perfbench/runs/<workload>/`` and prints
one JSON line last.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # every child is stopped before the run's 180 s are up

# What reading a wrong-shaped answer or report raises; it fails the operation.
MALFORMED = (ValueError, KeyError, TypeError, IndexError, AttributeError)

# A round that runs out of time or whose child is killed from outside fails its
# operations without making ``correct`` false; any other crash is the program's.
TIMED_OUT = "round timed out"
KILLED = "child killed by signal"

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
         "query_p50_ms": "ms", "query_p95_ms": "ms"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One worker: the default pool is slower and noisier on small machines, and
    # a traced run keeps one span stack.  A no-op once the pool is gone.
    env["KEYSERIES_THREADS"] = "1"
    return env


def fingerprint() -> str:
    """Hash of the program's sources: records with equal fingerprints ran the
    same code, so their report digests must agree."""
    h = hashlib.sha256()
    for path in sorted((SRC / "keyseries").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


IMPORT_TIMER = ("import os, sys, time; os.sched_setaffinity(0, {int(sys.argv[1])}); "
                "t = time.perf_counter(); import keyseries.cli; "
                "print(time.perf_counter() - t)")


def measure_setup(env: dict, count: int) -> list[float]:
    """Seconds to import keyseries.cli in each of ``count`` fresh interpreters,
    alternating between the CPUs.  Interpreter start-up is left out: it is not
    the program's."""
    cpus = sorted(os.sched_getaffinity(0))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(cpus[k % len(cpus)])],
                                 env=env, check=True, timeout=60, text=True,
                                 stdout=subprocess.PIPE).stdout)
            for k in range(count)]


def run_round(ops, trace: bool, keep_stdout: bool, scratch: Path, env: dict,
              deadline: float, span_dump: str | None,
              cpu: int | None = None) -> tuple[dict | None, float, str]:
    """Run the operations once in a fresh child, pinned to ``cpu`` if given;
    (result or None, command s, error).  ``scratch`` is a new directory that
    holds the round's reports."""
    scratch.mkdir()
    spec_path, result_path = scratch / "spec.json", scratch / "result.json"
    spec = {"ops": ops, "trace": trace, "keep_stdout": keep_stdout,
            "scratch": str(scratch), "span_dump": span_dump, "cpu": cpu}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, TIMED_OUT
    command_s = time.perf_counter() - start
    if proc.returncode < 0:
        return None, command_s, f"{KILLED} {-proc.returncode}"
    if proc.returncode != 0 or not result_path.exists():
        return None, command_s, f"child exit {proc.returncode}: {proc.stderr[-400:]}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if keep_stdout:
        with open(scratch / "outputs.jsonl", encoding="utf-8") as fh:
            for call, line in zip(result["calls"], fh):
                call["stdout"] = json.loads(line)
    return result, command_s, ""


def _raised(call) -> list[str]:
    """A call that raised gave a wrong answer (not a failure of the machine)."""
    return [f"raised {call['raised']}"] if call.get("raised") else []


def _sweep_problems(workload, call, seed) -> tuple[list[str], str | None]:
    """Problems and body digest of one sweep operation."""
    from keyseries.report import body_digest

    if call.get("raised"):
        return _raised(call), None
    try:
        with open(call["out"], encoding="utf-8") as fh:
            report = json.load(fh)
        return wl.SWEEP_CHECKS[workload](call["code"], report, seed), body_digest(report)
    except (OSError, *MALFORMED) as exc:
        return [f"unreadable report: {exc!r}"], None


def check_rounds(workload, ops, results, seed, earlier) -> tuple[list[list[str]], dict]:
    """Problems per operation of every round, and the body digests (keyed by
    workload for a sweep, by argv for query-mix).  A digest must agree across
    rounds and with ``earlier`` runs of the same code.  Query-mix answers of
    the first round are checked against the reference; later rounds must
    print the same bytes."""
    from keyseries.report import body_digest

    problems, digests = [], {}
    if workload != "query-mix":
        for result in results:
            found, digest = _sweep_problems(workload, result["calls"][0], seed)
            if digest is not None:
                if digests.setdefault(workload, digest) != digest:
                    found.append("report digest differs between rounds")
                if earlier.get(workload, digest) != digest:
                    found.append("body digest differs from an earlier run of the same code")
            problems.append(found)
        return problems, digests
    first = results[0]["calls"] if results else []
    pw_seen = 0
    for idx, (argv, call) in enumerate(zip(ops, first)):
        point_check = argv[0] == "pw" and pw_seen % 12 == 0
        pw_seen += argv[0] == "pw"
        rng = random.Random(seed * 1_000_003 + idx)
        if call.get("raised"):
            problems.append(_raised(call))
            continue
        try:
            found = wl.check_query(argv, call["code"], call["stdout"], rng, point_check)
            if call["code"] == 0:
                key = " ".join(argv)
                digests[key] = body_digest(json.loads(call["stdout"]))
                if earlier.get(key, digests[key]) != digests[key]:
                    found.append("body digest differs from an earlier run of the same code")
        except MALFORMED as exc:
            found = [f"unreadable answer: {exc!r}"]
        problems.append(found)
    for result in results[1:]:
        for call, ref_call in zip(result["calls"], first):
            same = (call["stdout_sha256"], call["code"]) == (ref_call["stdout_sha256"], ref_call["code"])
            problems.append(_raised(call) or ([] if same else ["output differs from the first round"]))
    return problems, digests


def _earlier_digests(workload: str, code_id: str) -> dict:
    """argv -> body digest from earlier records of this workload on the same code."""
    seen: dict = {}
    for path in sorted((RUNS / workload).glob("*.json")):
        try:
            rec = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if rec.get("fingerprint") == code_id:
            for key, digest in rec.get("digests", {}).items():
                seen.setdefault(key, digest)
    return seen


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = child_env()
    code_id = fingerprint()
    earlier = _earlier_digests(workload, code_id)
    setup = []
    if not trace:
        # One unmeasured import writes the bytecode caches.  The samples are
        # split around the rounds so that their median spans the run.
        measure_setup(env, 1)
        setup = measure_setup(env, SETUP_SAMPLES // 2)
    ops = wl.operations(workload, seed)
    (RUNS / workload).mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{time.time_ns() % 10**9:09d}"
    scratch = RUNS / f"tmp-{os.getpid()}-{stamp}"
    scratch.mkdir()
    span_dump = None
    if trace:
        for old in (RUNS / workload).glob("spans-*.tsv.gz"):
            old.unlink()
        span_dump = str(RUNS / workload / f"spans-{stamp}-seed{seed}.tsv.gz")
    # query-mix keeps each call's best round.  A CPU can slow down by tens of
    # percent for tens of seconds, independently of the other CPUs, so its
    # rounds alternate between them.  A long sweep runs unpinned and averages.
    cpus = sorted(os.sched_getaffinity(0)) if workload == "query-mix" else [None]
    rounds, errors = [], []
    loop_start = time.perf_counter()
    try:
        while True:
            result, command_s, error = run_round(
                ops, trace, not rounds, scratch / f"round{len(rounds)}", env, deadline,
                None if rounds else span_dump, cpus[len(rounds) % len(cpus)])
            if result is None:
                errors.append(error)
                break
            rounds.append((result, command_s))
            # Another round only if it should end within the run's seconds.
            elapsed = time.perf_counter() - loop_start
            if (elapsed + elapsed / len(rounds) > seconds
                    or time.monotonic() > deadline - 60):
                break
        problems, digests = check_rounds(workload, ops, [r for r, _ in rounds], seed, earlier)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems += [[error] for error in errors for _ in ops]

    if not trace:
        setup += measure_setup(env, SETUP_SAMPLES - len(setup))

    attempted = len(ops) * (len(rounds) + len(errors))
    failed = sum(1 for p in problems if p)
    outside = {e for e in errors if e == TIMED_OUT or e.startswith(KILLED)}
    wrong = [msg for p in problems for msg in p if msg not in outside]

    metrics: dict[str, float] = {}
    if rounds and trace:
        layers = [r["layers"] for r, _ in rounds]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
    elif rounds:
        metrics["setup_s"] = statistics.median(setup)
        if workload == "query-mix":
            # Each call's best latency over the rounds: the fastest replay of a
            # call is the one least disturbed by the machine's drift.
            per_call = [min(r["calls"][i]["s"] for r, _ in rounds) * 1000
                        for i in range(len(ops))]
            metrics["wall_s"] = sum(per_call) / 1000
            metrics["query_p50_ms"] = statistics.median(per_call)
            metrics["query_p95_ms"] = percentile(per_call, 95)
        else:
            commands_ms = [command_s * 1000 for _, command_s in rounds]
            metrics["wall_s"] = statistics.median(r["calls"][0]["s"] for r, _ in rounds)
            metrics["query_p50_ms"] = statistics.median(commands_ms)
            metrics["query_p95_ms"] = percentile(commands_ms, 95)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r, _ in rounds)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "fingerprint": code_id, "python": sys.version.split()[0],
        "attempted": attempted, "failed": failed, "correct": not wrong,
        "problems": [msg for p in problems for msg in p][:50],
        "rounds": len(rounds), "setup_samples_s": setup,
        "round_wall_s": [sum(c["s"] for c in r["calls"]) for r, _ in rounds],
        "call_s": [[c["s"] for c in r["calls"]] for r, _ in rounds],
        "round_command_s": [command_s for _, command_s in rounds],
        "metrics": metrics, "digests": digests,
        "spans": rounds[0][0].get("spans") if rounds and trace else None,
        "span_dump": os.path.relpath(span_dump, ROOT) if span_dump and rounds else None,
        "run_s": time.monotonic() - started,
    }
    out_path = RUNS / workload / f"{stamp}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    units = spans.metric_units() if trace else UNITS
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "keyseries" / "cli.py").is_file():
        print(f"keyseries sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={str(res['correct']).lower()}")
        for metric, val in res["metrics"].items():
            print(f"  {metric} = {val['value']:.6g} {val['unit']}")
    sys.stdout.flush()
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
