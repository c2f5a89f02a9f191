#!/usr/bin/env python3
"""Run all conjecture scans over a range of ranks and save the reports.

Exits 1 when any scan records a finding, 2 on a bad config, an empty rank
range or a bad output directory and 3 when a rank exceeds the caps, matching
the CLI convention.  Each scan runs through `keyseries.cli.run_check`, as
`keyseries scan` does, and its report lands, written atomically, in one file
per (conjecture, n) in the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from keyseries import cli
from keyseries.config import load_config
from keyseries.report import canonical_json


def run(args) -> int:
    cfg = load_config(args.config)
    if args.min_n > args.max_n:
        raise ValueError(f"--min-n {args.min_n} is above --max-n {args.max_n}")
    ranks = range(args.min_n, args.max_n + 1)
    for n in ranks:
        cfg.check_rank(n)
    os.makedirs(args.out_dir, exist_ok=True)
    findings = 0
    for n in ranks:
        for name in sorted(cli.check_names("scan")):
            report = cli.run_check(name, n, cfg)
            path = os.path.join(args.out_dir, f"{name}-n{n}.json")
            cli._write_files({path: canonical_json(report)})
            ces = report["counterexamples"]
            tag = f"{len(ces)} finding(s)" if ces else "ok"
            print(f"{name} n={n}: {tag} ({report['elapsed_ms']}ms) -> {path}")
            findings += len(ces)
    return cli.EXIT_FINDING if findings else cli.EXIT_OK


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--out-dir", default="scan-reports")
    ap.add_argument("--config")
    return cli.guarded(run, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
