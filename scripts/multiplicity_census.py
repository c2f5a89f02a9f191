#!/usr/bin/env python3
"""Census of quadratic multiplicities over S_n.

Tabulates how the multiplicities distribute by the freedom parameter r and by
presentation-poset size, and how far the 2^r - 1 floor is from tight; a quick
way to eyeball the structure the closed formulas capture.

Exits 2 on a rank below 1 and 3 on a rank past the default caps, matching
the CLI convention.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from keyseries.cli import guarded
from keyseries.config import EngineConfig
from keyseries.multisets import _decoded, presentations
from keyseries.mults import _bound_rows, _freedom, _pairs
from keyseries.permutation import descent_walk
from keyseries.series import numerator_carry


def run(n: int) -> int:
    EngineConfig().check_rank(n)
    by_r: dict[int, Counter] = {}
    by_poset_size: dict[int, Counter] = {}
    tight = 0
    total = 0
    # r and the presentation count of each two-presentation multiset, once
    # per pair of bounds; only m is read per permutation
    rows_of = _bound_rows(_pairs(n), lambda w, k, l, eta: (
        eta, _freedom(k, l, eta), presentations(w, k, l, _decoded(eta)).count))
    for w, p in descent_walk(n, numerator_carry(tmax=2)):
        for _, _, t, rows in rows_of(w):
            for eta, r, size in rows:
                m = -p.terms.get(eta + t, 0)
                by_r.setdefault(r, Counter())[m] += 1
                by_poset_size.setdefault(size, Counter())[m] += 1
                total += 1
                if m == 2**r - 1:
                    tight += 1

    print(f"S_{n}: {total} two-presentation multisets")
    print(f"floor 2^r-1 tight on {tight}/{total}")
    print("\nmultiplicity distribution by r:")
    for r in sorted(by_r):
        dist = ", ".join(f"m={m}: {c}" for m, c in sorted(by_r[r].items()))
        print(f"  r={r}: {dist}")
    print("\nmultiplicity distribution by presentation count:")
    for size in sorted(by_poset_size):
        dist = ", ".join(
            f"m={m}: {c}" for m, c in sorted(by_poset_size[size].items())
        )
        print(f"  {size} presentations: {dist}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    return guarded(run, ap.parse_args().n)


if __name__ == "__main__":
    sys.exit(main())
