"""One round of a workload in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds the argv of each operation, the scratch directory for ``--out``
reports, whether to trace and to keep outputs, and the CPU to run on (none:
any).  The child imports ``keyseries.cli`` (set-up, not timed), then times
each ``main(argv)`` call with stdout captured.  It writes per-call latency,
exit code and output hash to RESULT together with its own peak RSS and, when
tracing, the per-layer metrics.  A call that raises gets the exception as its
result in place of an exit code, and the round goes on.  Kept outputs go to
``outputs.jsonl`` in the scratch directory as each call ends, so they do not
add to the child's peak RSS.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout


def peak_rss_mb() -> float:
    """This process's peak resident set.  Linux's ``ru_maxrss`` keeps the
    peak of the process that spawned it across exec, so the kernel's
    per-address-space high-water mark is read where it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    from keyseries.cli import main as cli_main

    calls = []
    with open(os.path.join(spec["scratch"], "outputs.jsonl"), "w", encoding="utf-8") as kept:
        for idx, argv in enumerate(spec["ops"]):
            out_path = os.path.join(spec["scratch"], f"op{idx}.json")
            argv = [out_path if a == "{out}" else a for a in argv]
            buf = io.StringIO()
            raised = None
            start = time.perf_counter()
            try:
                with redirect_stdout(buf):
                    code = cli_main(argv)
            except Exception as exc:  # a defect of the program: this call's answer
                code, raised = None, "".join(traceback.format_exception_only(exc)).strip()
            elapsed = time.perf_counter() - start
            text = buf.getvalue()
            calls.append({
                "code": code,
                "raised": raised,
                "s": elapsed,
                "stdout_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "out": out_path if "--out" in argv else None,
            })
            if spec["keep_stdout"]:
                kept.write(json.dumps(text) + "\n")
            del text, buf  # not held while the next call runs
    result = {
        "calls": calls,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["spans"] = len(tracer.name)
        if spec.get("span_dump"):
            tracer.dump(spec["span_dump"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
