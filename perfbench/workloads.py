"""The four workloads: the operations each runs and the checks on their outputs.

An operation is one call of ``keyseries.cli.main`` with a fixed argv.  The
sweep workloads run one operation per round; ``query-mix`` runs a seeded list
of single calls per round.  Every check returns a list of problems (empty when
the output is right); the runner counts an operation with any problem as
failed.  Checks use ``reference`` (no keyseries code) or a property the method
must have; the formpw3 per-claim totals are the one pinned value.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from collections import Counter
from contextlib import redirect_stdout

import reference as ref

OUT = "{out}"  # replaced by the child with a report path in its scratch directory

SWEEPS = {
    "formofkw-s5": ["verify", "--suite", "formofkw", "--n", "5", "--tdeg", "4", "--out", OUT],
    "lketa23-s7": ["verify", "--suite", "lketa23", "--n", "7", "--out", OUT],
    "formpw3-s6": ["scan", "--conjecture", "formpw3", "--n", "6", "--out", OUT],
}
WORKLOADS = tuple(SWEEPS) + ("query-mix",)

# scan formpw3 --n 6 findings per claim.  Regenerate with the command in README.md.
FORMPW3_S6_CLAIMS = {"support": 44028, "positivity": 65460}
LKETA23_PATTERNS = ("pattern_123_456", "pattern_124_356", "pattern_125_346",
                    "pattern_134_256", "pattern_135_246")

QUERY_CALLS = 240  # >= 200, so 12 calls lie beyond the 95th percentile; 60 of each kind


def one_line(w) -> str:
    return "".join(map(str, w))


def parse_w(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def perm_of_length(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A permutation of S_n with the given number of inversions, reached by a
    seeded walk up weak order (each step swaps an adjacent ascending pair)."""
    vals = list(range(1, n + 1))
    for _ in range(length):
        ups = [j for j in range(n - 1) if vals[j] < vals[j + 1]]
        j = rng.choice(ups)
        vals[j], vals[j + 1] = vals[j + 1], vals[j]
    return tuple(vals)


def _partition(rng: random.Random, first: int, parts: int) -> tuple[int, ...]:
    rest = sorted((rng.randint(0, first) for _ in range(parts - 1)), reverse=True)
    return (first,) + tuple(v for v in rest if v)


def perms_by_length(n: int) -> list[list[tuple[int, ...]]]:
    """The permutations of S_n grouped by Coxeter length, each group sorted."""
    groups: list[list[tuple[int, ...]]] = [[] for _ in range(n * (n - 1) // 2 + 1)]
    for w in itertools.permutations(range(1, n + 1)):
        groups[sum(a > b for a, b in itertools.combinations(w, 2))].append(w)
    return groups


def length_profile(sizes: list[int], count: int) -> list[int]:
    """How many of ``count`` distinct draws fall on each length when the
    lengths are taken in turn, a length being skipped once it is used up."""
    taken = [0] * len(sizes)
    while sum(taken) < count:
        for length, size in enumerate(sizes):
            if taken[length] < size and sum(taken) < count:
                taken[length] += 1
    return taken


def pw_permutations(count: int) -> list[tuple[int, ...]]:
    """``count`` distinct permutations of S6, the lengths 0-15 taken in turn
    (so the rare lengths 0, 1, 14 and 15 are used up), evenly spaced through
    each length's sorted group.  The same for every seed: the slowest calls
    of the mix are pw calls on long permutations, whose time follows the size
    of P_w, so a seeded choice among them would move the 95th percentile."""
    groups = perms_by_length(6)
    chosen = []
    for group, taken in zip(groups, length_profile([len(g) for g in groups], count)):
        chosen += [group[k * len(group) // taken] for k in range(taken)]
    return chosen


def query_mix(seed: int) -> list[list[str]]:
    """QUERY_CALLS distinct single calls: the four call kinds in equal shares,
    stratified so that every seed draws the same profile: key on S6 (first
    part 1-3, lengths 0-15 in turn), key --xi on S5 (first part 1-3, lengths
    0-10 in turn), pw --tdeg 3 on S6 (``pw_permutations``), and sets, a third
    each of A, B and C, alternating S6 and S7.  The seed picks the key and
    sets arguments within each stratum and the order of all calls."""
    rng = random.Random(seed)
    share = QUERY_CALLS // 4
    calls: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()

    def add(make) -> None:
        while True:
            argv = make()
            if tuple(argv) not in seen:
                seen.add(tuple(argv))
                calls.append(argv + ["--format", "json"])
                return

    def part_text(lam):
        return ",".join(map(str, lam))

    for j in range(share):
        first, length = 1 + j % 3, (j // 3) % 16
        add(lambda: ["key", "--w", one_line(perm_of_length(rng, 6, length)),
                     "--lambda", part_text(_partition(rng, first, 6))])
    for j in range(share):
        first, length = 1 + j % 3, (j // 3) % 11
        add(lambda: ["key", "--w", one_line(perm_of_length(rng, 5, length)),
                     "--lambda", part_text(_partition(rng, first, 5)), "--xi"])
    for w in pw_permutations(share):
        add(lambda: ["pw", "--w", one_line(w), "--tdeg", "3"])
    for j in range(share):
        which, n = "ABC"[j % 3], 6 + (j // 3) % 2

        def sets_call():
            w = list(range(1, n + 1))
            rng.shuffle(w)
            levels = sorted(rng.randint(1, n) for _ in range("ABC".index(which) + 1))
            return ["sets", "--w", one_line(w), f"--{which}", part_text(levels)]
        add(sets_call)
    rng.shuffle(calls)
    return calls


def operations(workload: str, seed: int) -> list[list[str]]:
    """The argv of every operation in one round of the workload."""
    if workload == "query-mix":
        return query_mix(seed)
    return [list(SWEEPS[workload])]


# -- checks ------------------------------------------------------------------------


def _points(rng: random.Random, n: int, count: int) -> list[tuple[int, ...]]:
    """Integer points with distinct coordinates, so every pi_i divides."""
    return [tuple(rng.sample(range(-9, 10), n)) for _ in range(count)]


def numerator_problems(poly: dict, w: tuple[int, ...], dmax: int,
                       points: list[tuple[int, ...]]) -> list[str]:
    """P_w truncated at dmax (program JSON) against the properties and the
    closed form evaluated by the reference at each point."""
    problems = []
    const = sum(t["coeff"] for t in poly["terms"] if not t["x"] and not t["T"] and not t["xi"])
    others0 = [t for t in poly["terms"] if not t["T"] and (t["x"] or t["xi"])]
    if const != 1 or others0:
        problems.append(f"P_{one_line(w)}: T-constant part is not 1")
    if any(sum(t["T"].values()) == 1 for t in poly["terms"]):
        problems.append(f"P_{one_line(w)}: has T-linear terms")
    for p in points:
        if ref.eval_json_poly(poly, p) != ref.numerator_at(w, p, dmax):
            problems.append(f"P_{one_line(w)}: differs from the closed form at x={p}")
    return problems


def call_program(argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in this process (outside any timed region)."""
    from keyseries.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def check_formofkw(code: int, report: dict, seed: int) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit {code}, expected 0")
    if report["stats"] != {"checks": 120, "failed": 0} or report["counterexamples"]:
        problems.append(f"stats {report['stats']}, expected 120 checks and 0 failed")
    rng = random.Random(seed)
    for _ in range(4):
        w = perm_of_length(rng, 5, rng.randint(0, 10))
        pcode, text = call_program(["pw", "--w", one_line(w), "--tdeg", "4", "--format", "json"])
        if pcode != 0:
            problems.append(f"pw --w {one_line(w)} --tdeg 4: exit {pcode}")
            continue
        problems += numerator_problems(json.loads(text)["polynomial"], w, 4, _points(rng, 5, 2))
    return problems


def check_lketa23(code: int, report: dict, seed: int) -> list[str]:
    problems = []
    if code != 0 or report["counterexamples"]:
        problems.append(f"exit {code} with {len(report['counterexamples'])} counterexamples")
    stats = report["stats"]
    missing = [tag for tag in LKETA23_PATTERNS if tag not in stats]
    if missing:
        problems.append(f"patterns not witnessed: {missing}")
    if sum(v for k, v in stats.items() if k.startswith("pattern_")) != stats.get("multisets"):
        problems.append("pattern counts do not sum to stats.multisets")
    expected = ref.lketa23_count(7)
    if stats.get("multisets") != expected:
        problems.append(f"stats.multisets {stats.get('multisets')}, reference {expected}")
    return problems


def check_formpw3(code: int, report: dict, seed: int) -> list[str]:
    problems = []
    if code != 1:
        problems.append(f"exit {code}, expected 1 (the findings are genuine)")
    found = report["counterexamples"]
    claims = Counter(ce.get("claim") for ce in found)
    if dict(claims) != FORMPW3_S6_CLAIMS:
        problems.append(f"findings per claim {dict(claims)}, pinned {FORMPW3_S6_CLAIMS}")
    rng = random.Random(seed)
    for ce in rng.sample(found, min(60, len(found))):
        w, levels, tau = parse_w(ce["w"]), tuple(ce["levels"]), parse_w(ce["tau"])
        inside = tau in ref.C_set(w, *levels)
        if ce["claim"] == "support" and inside:
            problems.append(f"support finding {ce} lies inside C")
        if ce["claim"] == "positivity" and (not inside or ce["m"] >= 1):
            problems.append(f"positivity finding {ce} is not a C element with m < 1")
    return problems


SWEEP_CHECKS = {
    "formofkw-s5": check_formofkw,
    "lketa23-s7": check_lketa23,
    "formpw3-s6": check_formpw3,
}


def check_query(argv: list[str], code: int, text: str, rng: random.Random,
                point_check: bool) -> list[str]:
    """Check one query-mix answer.  key answers are evaluated at two points,
    sets answers listed exactly; pw answers get the property checks and, when
    ``point_check`` is set, the closed-form point check."""
    if code != 0:
        return [f"exit {code}, expected 0"]
    obj = json.loads(text)
    opts = dict(zip(argv[1::2], argv[2::2]))
    w = parse_w(opts["--w"])
    if argv[0] == "sets":
        which = next(k[2:] for k in opts if k in ("--A", "--B", "--C"))
        levels = tuple(int(v) for v in opts[f"--{which}"].split(","))
        expect = ref.listing(w, which, levels)
        return [] if obj["elements"] == expect else ["listing differs from brute force"]
    if argv[0] == "pw":
        points = _points(rng, len(w), 1) if point_check else []
        return numerator_problems(obj["polynomial"], w, 3, points)
    lam = tuple(int(v) for v in opts["--lambda"].split(","))
    xi = rng.randint(-4, 4) if "--xi" in argv else None
    problems = []
    for p in _points(rng, max(len(w), len(lam)), 2):
        got = ref.eval_json_poly(obj["polynomial"], p, xi or 0).get((0,) * len(p), 0)
        if got != ref.key_values([lam], w, p, xi)[0]:
            problems.append(f"value at x={p}, xi={xi} differs from the pi recursion")
    return problems
