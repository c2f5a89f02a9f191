#!/usr/bin/env python3
"""Run every verification suite at its defaults, one summary line each.

The suites, their order and their default parameters come from
`keyseries.cli.VERIFY_SUITES`, the table `keyseries verify` reads.
Exits 1 if any suite fails, 0 otherwise.
"""

from __future__ import annotations

import sys
import time

from keyseries.cli import VERIFY_SUITES, run_suite, suite_params


def main() -> int:
    failures = 0
    for name in VERIFY_SUITES:
        params = suite_params(name)
        start = time.monotonic()
        outcome = run_suite(params)
        elapsed = time.monotonic() - start
        args = " ".join(f"{k}={v}" for k, v in params.items() if k != "suite")
        stats = " ".join(f"{k}={v}" for k, v in sorted(outcome.stats.items()))
        print(f"{'PASS' if outcome.ok else 'FAIL'} {name} {args}: {stats} ({elapsed:.1f}s)")
        failures += not outcome.ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
