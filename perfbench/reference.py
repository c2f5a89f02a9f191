"""Independent reference for the benchmark's output checks.

Nothing here imports keyseries: the sets are built from their definitions by
brute force, and key and Lascoux polynomials are evaluated at integer points
through the operator recursion

    (pi_i f)(p) = (p_i f(p) - p_{i+1} f(s_i p)) / (p_i - p_{i+1}),

along a reduced word this module computes itself.  Polynomials printed by the
program (its ``--format json`` shape) are evaluated term by term.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# -- bounded ascending sequences and their sums ---------------------------------


def prefix_bound(w: tuple[int, ...], l: int) -> tuple[int, ...]:
    """Sorted first l one-line values of w, values beyond the rank fixed."""
    return tuple(sorted(w[:l] + tuple(range(len(w) + 1, l + 1))))


@lru_cache(maxsize=None)
def seqs_A(bound: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every increasing tuple of the bound's length bounded entrywise by it."""
    top = bound[-1] if bound else 0
    return tuple(c for c in itertools.combinations(range(1, top + 1), len(bound))
                 if all(a <= b for a, b in zip(c, bound)))


def A_set(w: tuple[int, ...], l: int) -> tuple[tuple[int, ...], ...]:
    return seqs_A(prefix_bound(w, l))


def _msum(*seqs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(itertools.chain(*seqs)))


@lru_cache(maxsize=None)
def _B_from_bounds(bk: tuple[int, ...], bl: tuple[int, ...]) -> frozenset:
    """Sums with at least two essentially distinct presentations (alpha at
    level l, beta at level k; unordered when the levels are equal)."""
    same = len(bk) == len(bl)
    found: dict[tuple[int, ...], set] = {}
    for alpha in seqs_A(bl):
        for beta in seqs_A(bk):
            pres = frozenset((alpha, beta)) if same else (alpha, beta)
            found.setdefault(_msum(alpha, beta), set()).add(pres)
    return frozenset(eta for eta, pres in found.items() if len(pres) >= 2)


def B_set(w: tuple[int, ...], k: int, l: int) -> frozenset:
    return _B_from_bounds(prefix_bound(w, k), prefix_bound(w, l))


@lru_cache(maxsize=None)
def _C_from_bounds(bp, bk, bl) -> frozenset:
    """Triple sums whose three partial sums lie in the matching B sets; each of
    the three memberships may be witnessed by a different presentation."""
    b_kl, b_pl, b_pk = _B_from_bounds(bk, bl), _B_from_bounds(bp, bl), _B_from_bounds(bp, bk)
    flags: dict[tuple[int, ...], set] = {}
    for alpha in seqs_A(bl):
        for beta in seqs_A(bk):
            for gamma in seqs_A(bp):
                got = flags.setdefault(_msum(alpha, beta, gamma), set())
                if _msum(alpha, beta) in b_kl:
                    got.add("kl")
                if _msum(alpha, gamma) in b_pl:
                    got.add("pl")
                if _msum(beta, gamma) in b_pk:
                    got.add("pk")
    return frozenset(tau for tau, got in flags.items() if len(got) == 3)


def C_set(w: tuple[int, ...], p: int, k: int, l: int) -> frozenset:
    return _C_from_bounds(prefix_bound(w, p), prefix_bound(w, k), prefix_bound(w, l))


def fmt(seq: tuple[int, ...]) -> str:
    """The program's listing form: digits run together unless one exceeds 9."""
    if seq and max(seq) > 9:
        return ",".join(map(str, seq))
    return "".join(map(str, seq))


def listing(w: tuple[int, ...], which: str, levels: tuple[int, ...]) -> list[str]:
    """Sorted listing of A_l, B_{k,l} or C_{p,k,l} of w, as ``sets`` prints it."""
    if which == "A":
        items = A_set(w, *levels)
    elif which == "B":
        items = B_set(w, *levels)
    else:
        items = C_set(w, *levels)
    return [fmt(s) for s in sorted(items)]


def lketa23_count(n: int) -> int:
    """Number of eta in B_{k,k}(w) with exactly k - 3 doubled values, summed
    over k >= 3 and w in S_n.  B depends on w only through sorted prefixes."""
    per_bound: dict[tuple[int, ...], int] = {}
    total = 0
    for w in itertools.permutations(range(1, n + 1)):
        for k in range(3, n + 1):
            bound = prefix_bound(w, k)
            if bound not in per_bound:
                per_bound[bound] = sum(
                    1 for eta in _B_from_bounds(bound, bound)
                    if len(eta) - len(set(eta)) == k - 3
                )
            total += per_bound[bound]
    return total


# -- point evaluation of key and Lascoux polynomials ------------------------------


def reduced_word(w: tuple[int, ...]) -> tuple[int, ...]:
    """(i_1, ..., i_r) with w = s_{i_1} ... s_{i_r}, s_i swapping the values
    i and i+1; peels the largest left descent first."""
    vals = list(w)
    word = []
    while True:
        pos = {v: j for j, v in enumerate(vals)}
        desc = [i for i in range(1, len(vals)) if pos[i] > pos[i + 1]]
        if not desc:
            return tuple(word)
        i = desc[-1]
        word.append(i)
        a, b = pos[i], pos[i + 1]
        vals[a], vals[b] = i + 1, i


def key_values(lams, w: tuple[int, ...], point: tuple[int, ...], xi: int | None = None):
    """Values at ``point`` of the key polynomials pi_w x^lam (Lascoux with the
    given integer xi) for every partition in ``lams``, as a list of ints."""
    word = reduced_word(w)
    lams = [tuple(lam) for lam in lams]
    memo: dict[tuple[int, tuple[int, ...]], list[int]] = {}

    def value(depth: int, q: tuple[int, ...]) -> list[int]:
        hit = memo.get((depth, q))
        if hit is not None:
            return hit
        if depth == len(word):
            out = [_monomial(q, lam) for lam in lams]
        else:
            i = word[depth]
            a, b = q[i - 1], q[i]
            swapped = q[: i - 1] + (b, a) + q[i + 1:]
            here, there = value(depth + 1, q), value(depth + 1, swapped)
            ca, cb = (a, b) if xi is None else (a * (1 + xi * b), b * (1 + xi * a))
            out = []
            for f, g in zip(here, there):
                num = ca * f - cb * g
                quo, rem = divmod(num, a - b)
                if rem:
                    raise ArithmeticError(f"pi_{i} did not divide at {q}")
                out.append(quo)
        memo[(depth, q)] = out
        return out

    return value(0, tuple(point))


def _monomial(q: tuple[int, ...], lam: tuple[int, ...]) -> int:
    out = 1
    for v, e in zip(q, lam):
        out *= v**e
    return out


def partitions(max_first: int, max_parts: int):
    """Partitions with first part <= max_first and at most max_parts parts."""
    for parts in range(max_parts + 1):
        for lam in itertools.combinations_with_replacement(range(max_first, 0, -1), parts):
            yield lam


def eval_json_poly(obj: dict, point: tuple[int, ...], xi: int = 0) -> dict:
    """Evaluate the program's JSON polynomial at x = point (and xi), leaving the
    T variables: returns {T exponent tuple: int}, zero entries dropped."""
    n = len(point)
    out: dict[tuple[int, ...], int] = {}
    for term in obj["terms"]:
        val = term["coeff"] * xi ** term.get("xi", 0)
        for i, e in term.get("x", {}).items():
            val *= point[int(i) - 1] ** e
        t = [0] * n
        for l, e in term.get("T", {}).items():
            t[int(l) - 1] += e
        key = tuple(t)
        out[key] = out.get(key, 0) + val
    return {k: v for k, v in out.items() if v}


def _tmul(f: dict, g: dict, dmax: int) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for a, x in f.items():
        da = sum(a)
        for b, y in g.items():
            if da + sum(b) <= dmax:
                key = tuple(u + v for u, v in zip(a, b))
                out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def numerator_at(w: tuple[int, ...], point: tuple[int, ...], dmax: int) -> dict:
    """P_w at x = point, truncated past total T-degree dmax, from the closed form
    P_w = (sum over lam of K_{lam,w} t^lam) * prod over l, alpha in A_l(w) of
    (1 - x^alpha T_l), lam ranging over partitions with at most n parts."""
    n = len(point)
    lams = list(partitions(dmax, n))
    series: dict[tuple[int, ...], int] = {}
    for lam, val in zip(lams, key_values(lams, w, point)):
        padded = lam + (0,) * (n + 1 - len(lam))
        t = tuple(padded[l] - padded[l + 1] for l in range(n))
        if val:
            series[t] = series.get(t, 0) + val
    for l in range(1, n + 1):
        for alpha in A_set(w, l):
            unit = tuple(1 if j == l - 1 else 0 for j in range(n))
            factor = {(0,) * n: 1, unit: -_monomial(point, _exps(alpha))}
            series = _tmul(series, factor, dmax)
    return series


def _exps(alpha: tuple[int, ...]) -> tuple[int, ...]:
    vec = [0] * max(alpha)
    for v in alpha:
        vec[v - 1] += 1
    return tuple(vec)
