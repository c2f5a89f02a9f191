#!/usr/bin/env python3
"""Run every verification suite at its defaults, one summary line each.

The suites, their order and their default parameters come from
`keyseries.cli.CHECKS`, the table `keyseries verify` reads, and each runs
through `keyseries.cli.run_check`, as `verify` does, under
`keyseries.cli.guarded`.  Exits 1 if any suite fails, 0 if all pass, and
otherwise with the CLI's code and one stderr line: 3 when a resource cap is
hit or memory runs out, 4 when a structural invariant fails.
"""

from __future__ import annotations

import sys

from keyseries.cli import check_names, guarded, run_check


def run() -> int:
    failures = 0
    for name in check_names("verify"):
        report = run_check(name)
        args = " ".join(f"{k}={v}" for k, v in report["params"].items() if k != "suite")
        stats = " ".join(f"{k}={v}" for k, v in sorted(report["stats"].items()))
        ok = not report["counterexamples"]
        elapsed = report["elapsed_ms"] / 1000
        print(f"{'PASS' if ok else 'FAIL'} {name} {args}: {stats} ({elapsed:.1f}s)")
        failures += not ok
    return 1 if failures else 0


def main() -> int:
    return guarded(run)


if __name__ == "__main__":
    sys.exit(main())
