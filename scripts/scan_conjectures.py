#!/usr/bin/env python3
"""Run all conjecture scans over a range of ranks and save the reports.

Exits 1 when any scan records a finding, 2 on a bad config or output
directory and 3 when a rank exceeds the caps, matching the CLI convention;
the reports land one file per (conjecture, n) in the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from keyseries.cli import EXIT_FINDING, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE
from keyseries.config import ResourceCapError, load_config
from keyseries.mults import SCANS
from keyseries.report import canonical_json, outcome_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--out-dir", default="scan-reports")
    ap.add_argument("--config")
    args = ap.parse_args()

    try:
        cfg = load_config(args.config)
        for n in range(args.min_n, args.max_n + 1):
            cfg.check_rank(n)
        os.makedirs(args.out_dir, exist_ok=True)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    findings = 0
    for n in range(args.min_n, args.max_n + 1):
        for name in sorted(SCANS):
            start = time.monotonic()
            outcome = SCANS[name](n)
            elapsed = int((time.monotonic() - start) * 1000)
            report = outcome_report(
                outcome, {"conjecture": name, "n": n}, elapsed
            )
            path = os.path.join(args.out_dir, f"{name}-n{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(report))
            tag = "ok" if outcome.ok else f"{len(outcome.counterexamples)} finding(s)"
            print(f"{name} n={n}: {tag} ({elapsed}ms) -> {path}")
            findings += len(outcome.counterexamples)
    return EXIT_FINDING if findings else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
