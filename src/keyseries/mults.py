"""Multiplicities of the numerator polynomials and their structure theory.

The T-quadratic part of P_w is a sum of -m_eta x^eta T_k T_l with m_eta >= 1
exactly on the multiset sums admitting two essentially distinct presentations;
the T-cubic part enters with + sign.  This module reads those multiplicities,
evaluates the closed formulas for the small slices (one unit of freedom, two
units with k < l, two units with k = l), verifies the transfer rules along
weak-order covers, and runs the conjecture scans (presentation poset
invariance and monotonicity, multiplicity growth under s_i, cubic support,
lower bounds).

The multiplicity tables are packed views, `MultView`: a lookup packs its key
and reads the numerator's terms, and only iteration decodes the slice, lazily
and in term order.  `check_lketa23` builds its rows (B set, presentations,
position patterns) once per bound w_upper(w, k), in strata local to one sweep.

Every check and scan is a function of one permutation w, run over S_n in
one-line order by `sweep`, which lives in `permutation` with `ScanOutcome`
and is re-exported here.  The checks and scans are listed once, with the
subcommand that runs each, in `cli.CHECKS`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .bseq import w_upper
from .config import InvariantError
from .multisets import (
    enum_B,
    enum_Btilde,
    enum_C,
    eta_parts,
    presentations,
)
from .permutation import Permutation, ScanOutcome, sweep
from .poly import SparsePoly, x_exps
from .series import n_factor_product, numerator_P

__all__ = [
    "t_from_levels",
    "MultView",
    "multiplicity2",
    "multiplicity3",
    "quadratic_multiplicities",
    "cubic_multiplicities",
    "N_quadratic",
    "decompose_quadratic",
    "ScanOutcome",
    "sweep",
    "check_quadratic_support",
    "check_diff1",
    "check_diff2",
    "check_lketa23",
    "check_lowbdr2",
    "check_multsiw",
    "PresentationPoset",
    "presentation_poset",
    "scan_poset",
    "scan_siinc",
    "scan_formpw3",
    "scan_formpw2bound",
]


# T-exponents of a level multiset, (2, 3) -> (0, 1, 1): counted as x_exps counts
t_from_levels = x_exps


# -- multiplicity tables ---------------------------------------------------------


class MultView:
    """Read-only table of the T-degree `grade` slice of a xi-free polynomial,
    times `sign`, keyed (levels..., eta) with sorted index multisets: (k, l,
    eta) at grade 2, (p, k, l, tau) at grade 3, (mu,) at grade 0.  `get`
    packs its key and reads the terms; `items`, `keys` and `len` decode the
    slice lazily, in its term order."""

    __slots__ = ("poly", "grade", "sign")

    def __init__(self, poly: SparsePoly, grade: int, sign: int = 1):
        self.poly, self.grade, self.sign = poly, grade, sign

    def get(self, key: tuple, default: int = 0) -> int:
        if len(key) != self.grade + 1:
            return default
        c = self.poly.coefficient(x=x_exps(key[-1]), t=t_from_levels(key[:-1]))
        return self.sign * c if c else default

    def items(self) -> Iterator[tuple[tuple, int]]:
        for (eta, levels, _), c in self.poly.t_slice(self.grade).multiset_items():
            yield levels + (eta,), self.sign * c

    def keys(self) -> Iterator[tuple]:
        return (key for key, _ in self.items())

    __iter__ = keys

    def __len__(self) -> int:
        return len(self.poly.t_slice(self.grade).terms)


def quadratic_multiplicities(w: Permutation) -> MultView:
    """m with keys (k, l, eta), from the T-quadratic slice of P_w.

    The slice carries a global minus sign, so the values are positive
    whenever the structure theory says they should be.
    """
    return MultView(numerator_P(w, tmax=2), 2, -1)


def cubic_multiplicities(w: Permutation) -> MultView:
    """m with keys (p, k, l, tau), from the T-cubic slice of P_w."""
    return MultView(numerator_P(w, tmax=3), 3)


def multiplicity2(w: Permutation, k: int, l: int, eta: tuple[int, ...]) -> int:
    if not 1 <= k <= l:
        raise ValueError(f"need 1 <= k <= l, got {(k, l)}")
    return quadratic_multiplicities(w).get((k, l, tuple(eta)))


def multiplicity3(
    w: Permutation, p: int, k: int, l: int, tau: tuple[int, ...]
) -> int:
    if not 1 <= p <= k <= l:
        raise ValueError(f"need 1 <= p <= k <= l, got {(p, k, l)}")
    return cubic_multiplicities(w).get((p, k, l, tuple(tau)))


def N_quadratic(w: Permutation, i: int) -> SparsePoly:
    """The T-quadratic slice of the cover factor product, with positive sign.

    Every term is divisible by x_{i+1}^2 and free of x_i: each moved sequence
    contains i and not i+1, so its s_i image contains i+1 and not i.
    """
    out = n_factor_product(w, i, tmax=2).t_slice(2)
    if not set(out.pair_components(i)) <= {(0, 2)}:
        raise InvariantError(f"N_quadratic({w.one_line()}, {i}) has a term off x_{i + 1}^2")
    return out


# -- pair-degree decomposition ---------------------------------------------------


def _pair_basis(i: int, a: int, b: int) -> SparsePoly:
    """Basis element for the decomposition: pure x_i^a x_{i+1}^b when a >= b,
    x_i^a x_{i+1}^a times the complete homogeneous part of degree b - a when
    a < b; exactly the pi_i images of the pure monomials."""
    total = SparsePoly.zero()
    for u in range(max(b - a, 0) + 1):
        vec = [0] * (i + 1)
        vec[i - 1], vec[i] = a + u, b - u
        total = total + SparsePoly.term(x=tuple(vec))
    return total


def decompose_quadratic(f: SparsePoly, i: int) -> dict[tuple[int, int], SparsePoly]:
    """Write f (pair degrees at most 2) over the nine-element pair basis.

    Returns components free of x_i and x_{i+1}; the expansion over
    _pair_basis reconstructs f, which is checked.
    """
    parts = f.pair_components(i)
    comp = {(a, b): parts.get((a, b), SparsePoly.zero()) for a in range(3) for b in range(3)}
    # each basis element with a < b also holds pure monomials: take its share off them
    for pure, basis in (((1, 0), (0, 1)), ((2, 0), (0, 2)),
                        ((1, 1), (0, 2)), ((2, 1), (1, 2))):
        comp[pure] = comp[pure] - comp[basis]
    rebuilt = SparsePoly.zero()
    for (a, b), part in comp.items():
        rebuilt = rebuilt + part * _pair_basis(i, a, b)
    if rebuilt != f:
        raise InvariantError("pair degrees above 2 cannot be decomposed here")
    return comp


# -- multiset bookkeeping for the transfer rules ----------------------------------


def _pair_counts(eta: tuple[int, ...], i: int) -> tuple[int, int]:
    return eta.count(i), eta.count(i + 1)


def _rebalance(eta: tuple[int, ...], i: int, a: int, b: int) -> tuple[int, ...]:
    rest = [v for v in eta if v != i and v != i + 1]
    return tuple(sorted(rest + [i] * a + [i + 1] * b))


def _b_keys(
    w: Permutation, n: int, gap: int = 0
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(k, l, eta) for every eta in B_{k,l}(w) with 1 <= k, k + gap <= l <= n."""
    for k in range(1, n + 1):
        for l in range(k + gap, n + 1):
            for eta in enum_B(w, k, l):
                yield k, l, eta


def _fmt_eta(eta: tuple[int, ...]) -> str:
    return "".join(map(str, eta)) if all(v <= 9 for v in eta) else ",".join(map(str, eta))


# -- closed formulas for the small slices ------------------------------------------


def check_quadratic_support(n: int) -> ScanOutcome:
    """The quadratic support is exactly the two-presentation sets, positively."""

    def one(w: Permutation):
        quad = quadratic_multiplicities(w)
        expected = set(_b_keys(w, n))
        ces = [
            {"w": w.one_line(), "key": key, "m": m,
             "reason": "negative or outside the two-presentation sets"}
            for key, m in quad.items() if key not in expected or m < 1
        ]
        ces += [
            {"w": w.one_line(), "key": key, "m": quad.get(key, 0),
             "reason": "vanishes on a two-presentation multiset"}
            for key in expected if quad.get(key, 0) < 1
        ]
        return ces, {"terms": len(quad)}

    return sweep("quadratic_support", n, one)


def _r_value(k: int, l: int, eta: tuple[int, ...]) -> int:
    _, eta2 = eta_parts(eta)
    return k - (1 if k == l else 0) - len(eta2)


def check_diff1(n: int) -> ScanOutcome:
    """Slices with one unit of freedom carry multiplicity exactly 1."""

    def one(w: Permutation):
        quad = quadratic_multiplicities(w)
        ces: list[dict] = []
        checked = 0
        for k in range(1, n + 1):
            for l in range(k, n + 1):
                for eta in enum_Btilde(w, k, l):
                    if _r_value(k, l, eta) != 1:
                        continue
                    checked += 1
                    expect = 1 if eta in enum_B(w, k, l) else 0
                    got = quad.get((k, l, eta), 0)
                    if got != expect:
                        ces.append(
                            {"w": w.one_line(), "k": k, "l": l,
                             "eta": _fmt_eta(eta), "m": got, "expected": expect}
                        )
        return ces, {"multisets": checked}

    return sweep("diff1", n, one)


def _gamma_positions(eta: tuple[int, ...], beta: tuple[int, ...]) -> tuple[int, ...]:
    """1-based positions within sorted eta1 of the eta1-part of beta."""
    eta1, eta2 = eta_parts(eta)
    rest = list(eta2)
    part = []
    for v in beta:
        if v in rest:
            rest.remove(v)
        else:
            part.append(v)
    return tuple(sorted(eta1.index(v) + 1 for v in part))


def check_diff2(n: int) -> ScanOutcome:
    """Two units of freedom at k < l: the position formula for m."""

    def one(w: Permutation):
        quad = quadratic_multiplicities(w)
        ces: list[dict] = []
        checked = 0
        for k, l, eta in _b_keys(w, n, gap=1):
            if _r_value(k, l, eta) != 2:
                continue
            checked += 1
            ps = presentations(w, k, l, eta)
            betas = sorted(beta for _, beta in ps.pairs)
            a, b = _gamma_positions(eta, betas[0])
            cc, d = _gamma_positions(eta, betas[-1])
            eps = 1 if b > cc else 0
            expect = d - a + 1 - eps * (b - cc)
            got = quad.get((k, l, eta), 0)
            hi = l - k + 4
            if got != expect or not 3 <= got <= hi:
                ces.append(
                    {"w": w.one_line(), "k": k, "l": l,
                     "eta": _fmt_eta(eta), "m": got, "expected": expect,
                     "range": [3, hi]}
                )
        return ces, {"multisets": checked}

    return sweep("diff2", n, one)


_LKETA_PATTERNS = {
    (frozenset({1, 3, 5}), frozenset({2, 4, 6})): 3,
    (frozenset({1, 3, 4}), frozenset({2, 5, 6})): 4,
    (frozenset({1, 2, 5}), frozenset({3, 4, 6})): 4,
    (frozenset({1, 2, 4}), frozenset({3, 5, 6})): 5,
    (frozenset({1, 2, 3}), frozenset({4, 5, 6})): 5,
}


def _lketa23_rows(w: Permutation, k: int) -> list[tuple]:
    """(eta, lo, hi, pattern, unified, tag) for each eta in B_{k,k}(w) with
    |eta_2| = k - 3; all of it depends on w only through w_upper(w, k)."""
    rows = []
    for eta in enum_B(w, k, k):
        if len(eta_parts(eta)[1]) != k - 3:
            continue
        ps = presentations(w, k, k, eta)
        sides = sorted({side for pair in ps.pairs for side in pair})
        lo = _gamma_positions(eta, sides[0])
        hi = _gamma_positions(eta, sides[-1])
        pattern = _LKETA_PATTERNS.get((frozenset(lo), frozenset(hi)))
        a, b, cpos = lo
        d, e, f = hi
        eps = 1 if b > d else 0
        delta = 1 if cpos > e else 0
        unified = f - a - eps * (b - d) - delta * (cpos - e)
        tag = "pattern_{}_{}".format("".join(map(str, lo)), "".join(map(str, hi)))
        rows.append((eta, lo, hi, pattern, unified, tag))
    return rows


def check_lketa23(n: int) -> ScanOutcome:
    """Two units of freedom at k = l: five position patterns, m in [3, 5]."""
    # w_upper(w, k) -> _lketa23_rows(w, k), held for this sweep only
    strata: dict[tuple[int, ...], list[tuple]] = {}

    def one(w: Permutation):
        quad = quadratic_multiplicities(w)
        ces: list[dict] = []
        counts = {"multisets": 0}
        for k in range(3, n + 1):
            bound = w_upper(w, k)
            if bound not in strata:
                strata[bound] = _lketa23_rows(w, k)
            for eta, lo, hi, pattern, unified, tag in strata[bound]:
                counts["multisets"] += 1
                got = quad.get((k, k, eta), 0)
                if pattern is None or got != pattern or got != unified or not 3 <= got <= 5:
                    ces.append(
                        {"w": w.one_line(), "k": k, "eta": _fmt_eta(eta),
                         "m": got, "pattern": pattern, "unified": unified,
                         "positions": [list(lo), list(hi)]}
                    )
                else:
                    counts[tag] = counts.get(tag, 0) + 1
        return ces, counts

    return sweep("lketa23", n, one)


def _lowbdr2_one(
    w: Permutation, n: int, quad: MultView
) -> tuple[list[dict], dict[str, int]]:
    """The 2^r - 1 floor on every two-presentation multiset of one w."""
    ces: list[dict] = []
    checked = 0
    for k, l, eta in _b_keys(w, n):
        checked += 1
        r = _r_value(k, l, eta)
        got = quad.get((k, l, eta), 0)
        if got < 2**r - 1:
            ces.append(
                {"w": w.one_line(), "k": k, "l": l,
                 "eta": _fmt_eta(eta), "m": got, "bound": 2**r - 1}
            )
    return ces, {"multisets": checked}


def check_lowbdr2(n: int) -> ScanOutcome:
    """On every two-presentation multiset, m is at least 2^r - 1."""
    return sweep(
        "lowbdr2", n, lambda w: _lowbdr2_one(w, n, quadratic_multiplicities(w))
    )


# -- transfer rules along weak-order covers -----------------------------------------


def _key_closure(i: int, cap: int, *views: MultView) -> set[tuple]:
    """Keys (levels..., eta) of the views with the i, i+1 entries of eta
    redistributed in every way that keeps both counts at most cap."""
    keys: set[tuple] = set()
    for src in views:
        for key in src:
            eta = key[-1]
            a, b = _pair_counts(eta, i)
            for a2 in range(min(a + b, cap) + 1):
                b2 = a + b - a2
                if b2 <= cap:
                    keys.add(key[:-1] + (_rebalance(eta, i, a2, b2),))
    return keys


def check_multsiw(n: int) -> ScanOutcome:
    """Multiplicities of s_i w from those of w across every cover in weak order."""

    def one(w: Permutation):
        ces: list[dict] = []
        pairs = 0
        quad_w = quadratic_multiplicities(w)
        cub_w = cubic_multiplicities(w)
        p2 = -numerator_P(w, tmax=2).t_slice(2)
        for i in range(1, n):
            if not w.is_ascent(i):
                continue
            pairs += 1
            sw = w.left_mul_s(i)
            quad_sw = quadratic_multiplicities(sw)
            nfac = n_factor_product(w, i, tmax=3)
            n2 = MultView(nfac, 2)
            for key in _key_closure(i, 2, quad_w, quad_sw, n2):
                k, l, eta = key
                a, b = _pair_counts(eta, i)
                got = quad_sw.get(key, 0)
                if (a, b) == (1, 1):
                    expect = (
                        quad_w.get(key, 0)
                        + quad_w.get((k, l, _rebalance(eta, i, 2, 0)), 0)
                        - quad_w.get((k, l, _rebalance(eta, i, 0, 2)), 0)
                        + n2.get((k, l, _rebalance(eta, i, 0, 2)), 0)
                    )
                else:
                    expect = quad_w.get((k, l, _rebalance(eta, i, max(a, b), min(a, b))), 0)
                if got != expect:
                    ces.append(
                        {"w": w.one_line(), "i": i, "grade": 2, "key": key,
                         "m": got, "expected": expect}
                    )
            cub_sw = cubic_multiplicities(sw)
            n1 = -nfac.t_slice(1)
            n3 = MultView(nfac, 3, -1)
            comp = decompose_quadratic(p2, i)
            xi_var = SparsePoly.x_var(i)
            xip1 = SparsePoly.x_var(i + 1)
            corr11 = MultView(xi_var * comp[(1, 0)] * n1, 3)
            corr22 = MultView(xi_var * xi_var * xip1 * comp[(2, 1)] * n1, 3)
            corr21 = MultView(xi_var * xi_var * comp[(2, 0)] * n1, 3)
            for (p, k, l, tau) in _key_closure(i, 3, cub_w, cub_sw):
                a, b = _pair_counts(tau, i)
                var = lambda a2, b2: (p, k, l, _rebalance(tau, i, a2, b2))
                got = cub_sw.get((p, k, l, tau), 0)
                if (a, b) == (1, 1):
                    expect = (
                        cub_w.get((p, k, l, tau), 0)
                        + cub_w.get(var(2, 0), 0)
                        - cub_w.get(var(0, 2), 0)
                        + corr11.get((p, k, l, tau))
                    )
                elif (a, b) == (2, 2):
                    expect = (
                        cub_w.get((p, k, l, tau), 0)
                        + cub_w.get(var(3, 1), 0)
                        - cub_w.get(var(1, 3), 0)
                        + corr22.get((p, k, l, tau))
                    )
                elif {a, b} == {1, 2}:
                    expect = (
                        cub_w.get(var(2, 1), 0)
                        + cub_w.get(var(3, 0), 0)
                        - cub_w.get(var(0, 3), 0)
                        + corr21.get(var(2, 1))
                        + n3.get(var(0, 3))
                    )
                else:
                    expect = cub_w.get(var(max(a, b), min(a, b)), 0)
                if got != expect:
                    ces.append(
                        {"w": w.one_line(), "i": i, "grade": 3,
                         "key": (p, k, l, tau), "m": got, "expected": expect}
                    )
        return ces, {"covers": pairs}

    return sweep("multsiw", n, one)


# -- presentation posets --------------------------------------------------------


@dataclass(frozen=True)
class PresentationPoset:
    """Presentations of a multiset sum ordered entrywise on the low side.

    For k < l the elements are the short sequences; for k = l each unordered
    pair is represented by the member containing the least entry of eta1 (for
    a doubled multiset the single self-paired member).
    """

    eta: tuple[int, ...]
    k: int
    l: int
    elements: tuple[tuple[int, ...], ...]
    leq: tuple[tuple[bool, ...], ...]

    def canonical(self) -> tuple[tuple[bool, ...], ...]:
        return _canonical_order_matrix(self.leq)


def presentation_poset(
    w: Permutation, k: int, l: int, eta: tuple[int, ...]
) -> PresentationPoset:
    ps = presentations(w, k, l, tuple(eta))
    if k < l:
        elems = sorted(beta for _, beta in ps.pairs)
    else:
        eta1, _ = eta_parts(tuple(eta))
        if eta1:
            anchor = eta1[0]
            elems = sorted(
                next(side for side in pair if anchor in side) for pair in ps.pairs
            )
        else:
            elems = sorted({side for pair in ps.pairs for side in pair})
    leq = tuple(
        tuple(all(x <= y for x, y in zip(e1, e2)) for e2 in elems) for e1 in elems
    )
    return PresentationPoset(tuple(eta), k, l, tuple(elems), leq)


def _canonical_order_matrix(
    leq: tuple[tuple[bool, ...], ...]
) -> tuple[tuple[bool, ...], ...]:
    """Lexicographically least relabeling of the order matrix, after color
    refinement cuts the search to permutations within invariant classes."""
    size = len(leq)
    colors: list = [
        (sum(leq[i]), sum(leq[j][i] for j in range(size))) for i in range(size)
    ]
    for _ in range(size):
        nxt = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in range(size) if leq[i][j])),
                tuple(sorted(colors[j] for j in range(size) if leq[j][i])),
            )
            for i in range(size)
        ]
        if len(set(nxt)) == len(set(colors)):
            break
        colors = nxt
    order = sorted(range(size), key=lambda i: (repr(colors[i]), i))
    groups = [list(g) for _, g in itertools.groupby(order, key=lambda i: repr(colors[i]))]
    perms = (
        [i for grp in arrangement for i in grp]
        for arrangement in itertools.product(*(itertools.permutations(g) for g in groups))
    )
    return min(
        tuple(tuple(leq[perm[i]][perm[j]] for j in range(size)) for i in range(size))
        for perm in perms
    )


def _order_embeds(
    small: tuple[tuple[bool, ...], ...], big: tuple[tuple[bool, ...], ...]
) -> bool:
    """Injective map preserving comparability and incomparability both ways."""

    def extend(assigned: tuple[int, ...]) -> bool:
        """Whether the images assigned to the first elements of small extend."""
        idx = len(assigned)
        if idx == len(small):
            return True
        return any(
            extend(assigned + (cand,))
            for cand in range(len(big))
            if cand not in assigned and all(
                small[idx][prev] == big[cand][img] and small[prev][idx] == big[img][cand]
                for prev, img in enumerate(assigned)
            )
        )

    return len(small) <= len(big) and extend(())


def scan_poset(n: int) -> ScanOutcome:
    """m is an invariant of the presentation poset and grows under embeddings."""
    buckets: dict[tuple, tuple[int, dict]] = {}

    def one(w: Permutation):
        quad = quadratic_multiplicities(w)
        ces: list[dict] = []
        for k, l, eta in _b_keys(w, n):
            m = quad.get((k, l, eta), 0)
            canon = presentation_poset(w, k, l, eta).canonical()
            witness = {"w": w.one_line(), "k": k, "l": l,
                       "eta": _fmt_eta(eta), "m": m}
            if canon not in buckets:
                buckets[canon] = (m, witness)
            elif buckets[canon][0] != m:
                ces.append(
                    {"reason": "same poset, different m",
                     "first": buckets[canon][1], "second": witness}
                )
        return ces, {}

    out = sweep("poset", n, one)
    mats = list(buckets)
    for pa, pb in itertools.permutations(mats, 2):
        if len(pa) <= len(pb) and _order_embeds(pa, pb):
            if buckets[pa][0] > buckets[pb][0]:
                out.counterexamples.append(
                    {"reason": "embedding with larger m on the smaller poset",
                     "small": buckets[pa][1], "large": buckets[pb][1]}
                )
    out.stats["posets"] = len(buckets)
    return out


def scan_siinc(n: int) -> ScanOutcome:
    """At an ascent i, swapping i for i+1 inside eta cannot lower m."""

    def one(w: Permutation):
        quad = quadratic_multiplicities(w)
        entries = list(quad.items())  # decoded once, read at every ascent
        ces: list[dict] = []
        checked = 0
        for i in range(1, n):
            if not w.is_ascent(i):
                continue
            for (k, l, eta), m in entries:
                a, b = _pair_counts(eta, i)
                if (a, b) not in ((0, 1), (0, 2), (1, 2)):
                    continue
                checked += 1
                other = quad.get((k, l, _rebalance(eta, i, b, a)), 0)
                if m > other:
                    ces.append(
                        {"w": w.one_line(), "i": i, "k": k, "l": l,
                         "eta": _fmt_eta(eta), "m": m, "swapped_m": other}
                    )
        return ces, {"comparisons": checked}

    return sweep("siinc", n, one)


def scan_formpw3(n: int) -> ScanOutcome:
    """Cubic terms live on the triple-presentation sets and are positive.

    Two claims, recorded separately: "support" (every cubic term sits in the
    matching C set) and "positivity" (every C element carries multiplicity
    at least 1).
    """

    def one(w: Permutation):
        # each stratum's cubic terms, in the slice's term order
        by_stratum: dict[tuple[int, int, int], dict[tuple[int, ...], int]] = {}
        for (p, k, l, tau), m in cubic_multiplicities(w).items():
            by_stratum.setdefault((p, k, l), {})[tau] = m
        strata = set(by_stratum)
        strata.update(itertools.combinations_with_replacement(range(1, n + 1), 3))
        ces: list[dict] = []
        checked = 0
        c_elements = 0
        for levels in sorted(strata):
            cs = enum_C(w, *levels)
            terms = by_stratum.get(levels, {})
            c_elements += len(cs)
            checked += len(cs) + len(terms)
            for tau in cs:
                m = terms.get(tau, 0)
                if m < 1:
                    ces.append(
                        {"claim": "positivity", "w": w.one_line(),
                         "levels": levels, "tau": _fmt_eta(tau), "m": m}
                    )
            cset = frozenset(cs)
            for tau, m in terms.items():
                if tau not in cset:
                    ces.append(
                        {"claim": "support", "w": w.one_line(),
                         "levels": levels, "tau": _fmt_eta(tau), "m": m}
                    )
        return ces, {"terms": checked, "c_elements": c_elements}

    return sweep("formpw3", n, one)


def scan_formpw2bound(n: int) -> ScanOutcome:
    """Lower bound 2^r - 1 on the quadratic slice plus cover monotonicity."""

    def one(w: Permutation):
        quad_w = quadratic_multiplicities(w)
        entries = list(quad_w.items())  # decoded once, read at every ascent
        ces, counts = _lowbdr2_one(w, n, quad_w)
        for i in range(1, n):
            if not w.is_ascent(i):
                continue
            quad_sw = quadratic_multiplicities(w.left_mul_s(i))
            for key, m in entries:
                cover = quad_sw.get(key, 0)
                if cover < m:
                    ces.append(
                        {"w": w.one_line(), "i": i, "key": key,
                         "m": m, "cover_m": cover}
                    )
        return ces, counts

    return sweep("formpw2bound", n, one)

