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
and in ascending packed-key order, a function of the polynomial's value only.
The transfer rules (`check_multsiw`, `scan_siinc`, `scan_formpw2bound`) read
packed keys split by their (x_i, x_{i+1}) exponents and decode only the keys
they report.  `check_lketa23` builds its rows (B set, presentations, position
patterns) once per bound w_upper(w, k), in strata local to one sweep.
`scan_formpw3` reads no table: it groups P_w's cubic terms by T-monomial
(`SparsePoly.t_strata`) and compares each group's packed keys with
`multisets.packed_C` by set difference, holding what it finds as packed rows
(`permutation.Findings`).

Every check and scan is a function of one permutation w and its numerator
P_w, run over S_n by `sweep`, which lives in `permutation` with `ScanOutcome`
and is re-exported here.  The sweep walks the tree of first left descents and
hands each w its own P_w (`series.numerator_carry`), holding only the
numerators on the current path; findings come out in one-line order.  The two
checks that also read the cover s_i w (`check_multsiw`, `scan_formpw2bound`)
climb P_{s_i w} up to that path (`permutation.chain_value` through
`permutation.path_memo`), so they too hold O(length of w) numerators.  The
checks and scans are listed once, with the subcommand that runs each, in
`cli.CHECKS`.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from .bseq import format_seq, w_upper
from .config import InvariantError
from .multisets import (
    enum_B,
    enum_Btilde,
    eta_parts,
    packed_C,
    presentations,
)
from .permutation import Findings, Permutation, ScanOutcome, chain_value, path_memo, sweep
from .poly import SparsePoly, key_multisets, multiset_key, x_exps
from .series import n_factor_product, numerator_carry, numerator_P

__all__ = [
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


# -- multiplicity tables ---------------------------------------------------------


class MultView:
    """Read-only table of the T-degree `grade` slice of a xi-free polynomial,
    times `sign`, keyed (levels..., eta) with sorted index multisets: (k, l,
    eta) at grade 2, (p, k, l, tau) at grade 3, (mu,) at grade 0.  `get`
    packs its key (x_exps counts the levels as T-exponents, (2, 3) -> (0, 1,
    1)) and reads the terms; `items` decodes the slice lazily, in ascending
    packed-key order, a function of the polynomial's value only."""

    __slots__ = ("poly", "grade", "sign")

    def __init__(self, poly: SparsePoly, grade: int, sign: int = 1):
        self.poly, self.grade, self.sign = poly, grade, sign

    def get(self, key: tuple, default: int = 0) -> int:
        if len(key) != self.grade + 1:
            return default
        c = self.poly.coefficient(x=x_exps(key[-1]), t=x_exps(key[:-1]))
        return self.sign * c if c else default

    def items(self) -> Iterator[tuple[tuple, int]]:
        for (eta, levels, _), c in self.poly.t_slice(self.grade).multiset_items():
            yield levels + (eta,), self.sign * c

    def __len__(self) -> int:
        return self.poly.count_below(self.grade + 1) - self.poly.count_below(self.grade)


def quadratic_multiplicities(w: Permutation, p: SparsePoly | None = None) -> MultView:
    """m with keys (k, l, eta), from the T-quadratic slice of P_w.

    P_w is p when given (truncated at T-degree 2 or above, as a sweep hands
    it in), else numerator_P(w, tmax=2).  The slice carries a global minus
    sign, so the values are positive whenever the structure theory says they
    should be.
    """
    return MultView(numerator_P(w, tmax=2) if p is None else p, 2, -1)


def cubic_multiplicities(w: Permutation, p: SparsePoly | None = None) -> MultView:
    """m with keys (p, k, l, tau), from the T-cubic slice of P_w: of p when
    given (truncated at T-degree 3 or above), else of numerator_P(w, tmax=3)."""
    return MultView(numerator_P(w, tmax=3) if p is None else p, 3)


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


# -- closed formulas for the small slices ------------------------------------------


def _b_keys(
    w: Permutation, n: int, gap: int = 0
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(k, l, eta) for every eta in B_{k,l}(w) with 1 <= k, k + gap <= l <= n."""
    for k in range(1, n + 1):
        for l in range(k + gap, n + 1):
            for eta in enum_B(w, k, l):
                yield k, l, eta


def check_quadratic_support(n: int) -> ScanOutcome:
    """The quadratic support is exactly the two-presentation sets, positively."""

    def one(w: Permutation, p: SparsePoly):
        quad = quadratic_multiplicities(w, p)
        w_text = w.one_line()
        expected = set(_b_keys(w, n))
        ces = [
            {"w": w_text, "key": key, "m": m,
             "reason": "negative or outside the two-presentation sets"}
            for key, m in quad.items() if key not in expected or m < 1
        ]
        ces += [
            {"w": w_text, "key": key, "m": quad.get(key, 0),
             "reason": "vanishes on a two-presentation multiset"}
            for key in expected if quad.get(key, 0) < 1
        ]
        return ces, {"terms": len(quad)}

    return sweep("quadratic_support", n, one, numerator_carry(tmax=2))


def _r_value(k: int, l: int, eta: tuple[int, ...]) -> int:
    _, eta2 = eta_parts(eta)
    return k - (1 if k == l else 0) - len(eta2)


def check_diff1(n: int) -> ScanOutcome:
    """Slices with one unit of freedom carry multiplicity exactly 1."""

    def one(w: Permutation, p: SparsePoly):
        quad = quadratic_multiplicities(w, p)
        w_text = w.one_line()
        ces: list[dict] = []
        checked = 0
        for k in range(1, n + 1):
            for l in range(k, n + 1):
                b_set = set(enum_B(w, k, l))
                for eta in enum_Btilde(w, k, l):
                    if _r_value(k, l, eta) != 1:
                        continue
                    checked += 1
                    expect = 1 if eta in b_set else 0
                    got = quad.get((k, l, eta), 0)
                    if got != expect:
                        ces.append(
                            {"w": w_text, "k": k, "l": l,
                             "eta": format_seq(eta), "m": got, "expected": expect}
                        )
        return ces, {"multisets": checked}

    return sweep("diff1", n, one, numerator_carry(tmax=2))


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

    def one(w: Permutation, p: SparsePoly):
        quad = quadratic_multiplicities(w, p)
        w_text = w.one_line()
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
                    {"w": w_text, "k": k, "l": l,
                     "eta": format_seq(eta), "m": got, "expected": expect,
                     "range": [3, hi]}
                )
        return ces, {"multisets": checked}

    return sweep("diff2", n, one, numerator_carry(tmax=2))


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

    def one(w: Permutation, p: SparsePoly):
        quad = quadratic_multiplicities(w, p)
        w_text = w.one_line()
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
                        {"w": w_text, "k": k, "eta": format_seq(eta),
                         "m": got, "pattern": pattern, "unified": unified,
                         "positions": [list(lo), list(hi)]}
                    )
                else:
                    counts[tag] = counts.get(tag, 0) + 1
        return ces, counts

    return sweep("lketa23", n, one, numerator_carry(tmax=2))


def _lowbdr2_one(
    w: Permutation, n: int, quad: MultView
) -> tuple[list[dict], dict[str, int]]:
    """The 2^r - 1 floor on every two-presentation multiset of one w."""
    w_text = w.one_line()
    ces: list[dict] = []
    checked = 0
    for k, l, eta in _b_keys(w, n):
        checked += 1
        r = _r_value(k, l, eta)
        got = quad.get((k, l, eta), 0)
        if got < 2**r - 1:
            ces.append(
                {"w": w_text, "k": k, "l": l,
                 "eta": format_seq(eta), "m": got, "bound": 2**r - 1}
            )
    return ces, {"multisets": checked}


def check_lowbdr2(n: int) -> ScanOutcome:
    """On every two-presentation multiset, m is at least 2^r - 1."""
    return sweep(
        "lowbdr2", n, lambda w, p: _lowbdr2_one(w, n, quadratic_multiplicities(w, p)),
        numerator_carry(tmax=2),
    )


# -- transfer rules along weak-order covers -----------------------------------------
#
# A rule moves the (x_i, x_{i+1}) exponents (a, b) of a packed key: with the
# terms split by them (`_pair_split`), a moved key is a lookup at another
# (a, b) for the same rest of the key.  P_{s_i w} is the tree's value, climbed
# from s_i w up to the walk's root-to-w path (`permutation.path_memo`).


def _pair_split(poly: SparsePoly, i: int) -> dict[tuple[int, int], dict[int, int]]:
    """The terms of poly by their (x_i, x_{i+1}) exponents (a, b): (a, b) ->
    {the rest of the key: coeff}."""
    return {ab: part.terms for ab, part in poly.pair_components(i).items()}


def _pair_key(i: int, a: int, b: int, rest: int) -> int:
    """The packed key rest * x_i^a x_{i+1}^b."""
    return rest + a * multiset_key((i,)) + b * multiset_key((i + 1,))


def _key_tuple(key: int) -> tuple:
    """(levels..., eta) of a packed key, the keys of `MultView`."""
    eta, levels = key_multisets(key)
    return levels + (eta,)


def _transfer_mismatches(
    i: int, cap: int, sources: tuple[dict, ...], w: dict, sw: dict, corr: dict, nfac: dict
) -> Iterator[tuple[tuple, int, int]]:
    """One grade of a transfer rule, from the split tables of w to those of
    s_i w: (key, value at s_i w, value the rule gives) where the two differ.

    The keys are those of the sources with (a, b) redistributed in every way
    that keeps both at most cap, in ascending (a + b, rest, a) order.  With
    (h, l) = (max(a, b), min(a, b)) the rule gives w(h, l), plus w(h + 1,
    l - 1) - w(l - 1, h + 1) + corr(h, l) + nfac(l - 1, h + 1) when l >= 1
    and h < cap."""
    empty: dict[int, int] = {}
    sums = sorted({(a + b, rest) for table in sources
                   for (a, b), part in table.items() if a + b <= 2 * cap for rest in part})
    for s, rest in sums:
        for a in range(max(0, s - cap), min(s, cap) + 1):
            h, l = max(a, s - a), min(a, s - a)
            expect = w.get((h, l), empty).get(rest, 0)
            if l and h < cap:
                expect += (w.get((h + 1, l - 1), empty).get(rest, 0)
                           - w.get((l - 1, h + 1), empty).get(rest, 0)
                           + corr.get((h, l), empty).get(rest, 0)
                           + nfac.get((l - 1, h + 1), empty).get(rest, 0))
            got = sw.get((a, s - a), empty).get(rest, 0)
            if got != expect:
                yield _key_tuple(_pair_key(i, a, s - a, rest)), got, expect


def check_multsiw(n: int) -> ScanOutcome:
    """Multiplicities of s_i w from those of w across every cover in weak order.

    Quadratic keys (k, l, eta) move up to pair exponent 2, with N_{w,i}'s
    quadratic slice, all at (0, 2); cubic keys (p, k, l, tau) up to 3, with
    N's cubic slice, all at (0, 3), and the correction x_i N_1 (c_10 + x_i
    c_20 + x_i x_{i+1} c_21), where N_1 is N's linear slice and the c_ab are
    the components of w's quadratic slice (`decompose_quadratic`)."""
    carry = numerator_carry(tmax=3)
    path: list[tuple[Permutation, SparsePoly]] = []  # root to w, with each P

    def one(w: Permutation, p_w: SparsePoly):
        path[w.length():] = [(w, p_w)]
        w_text = w.one_line()
        ces: list[dict] = []
        pairs = 0
        p2, p3 = -p_w.t_slice(2), p_w.t_slice(3)
        for i in range(1, n):
            if not w.is_ascent(i):
                continue
            pairs += 1
            p_sw = chain_value(w.left_mul_s(i), carry, path_memo(path))
            nfac = n_factor_product(w, i, tmax=3)
            comp = decompose_quadratic(p2, i)
            x_i = SparsePoly.x_var(i)
            corr = x_i * -nfac.t_slice(1) * (
                comp[(1, 0)] + x_i * (comp[(2, 0)] + SparsePoly.x_var(i + 1) * comp[(2, 1)]))
            q_w, q_sw, n2 = (_pair_split(f, i) for f in (p2, -p_sw.t_slice(2), nfac.t_slice(2)))
            c_w, c_sw = _pair_split(p3, i), _pair_split(p_sw.t_slice(3), i)
            for grade, found in (
                (2, _transfer_mismatches(i, 2, (q_w, q_sw, n2), q_w, q_sw, {}, n2)),
                (3, _transfer_mismatches(i, 3, (c_w, c_sw), c_w, c_sw, _pair_split(corr, i),
                                         _pair_split(-nfac.t_slice(3), i))),
            ):
                ces += [{"w": w_text, "i": i, "grade": grade, "key": key,
                         "m": got, "expected": expect} for key, got, expect in found]
        return ces, {"covers": pairs}

    return sweep("multsiw", n, one, carry)


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
    # w.values -> (canonical poset, m, witness) for each multiset of w.  The
    # sweep visits w in tree order, so the first witness of each poset is
    # taken after it, in one-line order.
    rows: dict[tuple[int, ...], list[tuple]] = {}

    def one(w: Permutation, p: SparsePoly):
        quad = quadratic_multiplicities(w, p)
        w_text = w.one_line()
        found = rows[w.values] = []
        for k, l, eta in _b_keys(w, n):
            m = quad.get((k, l, eta), 0)
            canon = presentation_poset(w, k, l, eta).canonical()
            witness = {"w": w_text, "k": k, "l": l,
                       "eta": format_seq(eta), "m": m}
            found.append((canon, m, witness))
        return [], {}

    out = sweep("poset", n, one, numerator_carry(tmax=2))
    buckets: dict[tuple, tuple[int, dict]] = {}
    for key in sorted(rows):
        for canon, m, witness in rows[key]:
            if canon not in buckets:
                buckets[canon] = (m, witness)
            elif buckets[canon][0] != m:
                out.counterexamples.append(
                    {"reason": "same poset, different m",
                     "first": buckets[canon][1], "second": witness}
                )
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

    def one(w: Permutation, p: SparsePoly):
        p2 = -p.t_slice(2)
        w_text = w.one_line()
        ces: list[dict] = []
        checked = 0
        for i in range(1, n):
            if not w.is_ascent(i):
                continue
            split = _pair_split(p2, i)
            found = []
            for a, b in ((0, 1), (0, 2), (1, 2)):
                part, swapped = split.get((a, b), {}), split.get((b, a), {})
                checked += len(part)
                found += [(_pair_key(i, a, b, rest), m, swapped.get(rest, 0))
                          for rest, m in part.items() if m > swapped.get(rest, 0)]
            for key, m, other in sorted(found):
                k, l, eta = _key_tuple(key)
                ces.append({"w": w_text, "i": i, "k": k, "l": l,
                            "eta": format_seq(eta), "m": m, "swapped_m": other})
        return ces, {"comparisons": checked}

    return sweep("siinc", n, one, numerator_carry(tmax=2))


def _table_ids(table: list, decode: Callable[[Any], Any]) -> Callable[[Any], int]:
    """The id of a key in table: the index of its decoded value, appended
    the first time the key is seen."""
    ids: dict = {}

    def key_id(key) -> int:
        if key not in ids:
            ids[key] = len(table)
            table.append(decode(key))
        return ids[key]

    return key_id


def scan_formpw3(n: int) -> ScanOutcome:
    """Cubic terms live on the triple-presentation sets and are positive.

    Two claims, recorded separately: "support" (every cubic term sits in the
    matching C set) and "positivity" (every C element carries multiplicity
    at least 1).  Both compare packed keys: P_w's T-degree-3 terms grouped by
    T-monomial against the keys of ``packed_C``, whose order (that of the
    sorted tuples) is the order of the positivity findings; support findings
    come in ascending key order.  Findings are packed rows (``Findings``)
    over levels and tau tables held for this sweep; a tau is decoded to its
    text once, when it is first found.
    """
    strata = [(levels, multiset_key(levels=levels))
              for levels in itertools.combinations_with_replacement(range(1, n + 1), 3)]
    fixed = {t for _, t in strata}
    found = Findings(("positivity", "support"))
    level_id = _table_ids(found.levels, lambda levels: levels)
    tau_id = _table_ids(found.taus, lambda tau: format_seq(key_multisets(tau)[0]))

    def one(w: Permutation, p_w: SparsePoly):
        by_t = p_w.t_strata(3)
        own = strata
        if extra := by_t.keys() - fixed:
            own = sorted(strata + [(key_multisets(t)[1], t) for t in extra])
        top = max(levels[-1] for levels, _ in own)
        bounds = [()] + [w_upper(w, m) for m in range(1, top + 1)]
        rows = array("q")
        pack = found.pack
        checked = 0
        c_elements = 0
        for levels, t in own:
            p, k, l = levels
            cs = packed_C(bounds[p], bounds[k], bounds[l])
            terms = by_t.get(t, {})
            c_elements += len(cs)
            checked += len(cs) + len(terms)
            lid = level_id(levels)
            get = terms.get
            for tau in cs:
                m = get(tau, 0)
                if m < 1:
                    rows.append(pack(0, lid, tau_id(tau), m))
            for tau in sorted(terms.keys() - cs.keys()):
                rows.append(pack(1, lid, tau_id(tau), terms[tau]))
        return found.block(w.one_line(), rows), {"terms": checked, "c_elements": c_elements}

    return sweep("formpw3", n, one, numerator_carry(tmax=3))


def scan_formpw2bound(n: int) -> ScanOutcome:
    """Lower bound 2^r - 1 on the quadratic slice plus cover monotonicity."""
    carry = numerator_carry(tmax=2)
    path: list[tuple[Permutation, SparsePoly]] = []  # root to w, with each P

    def one(w: Permutation, p_w: SparsePoly):
        path[w.length():] = [(w, p_w)]
        w_text = w.one_line()
        ces, counts = _lowbdr2_one(w, n, quadratic_multiplicities(w, p_w))
        entries = sorted((-p_w.t_slice(2)).terms.items())  # read at every ascent
        for i in range(1, n):
            if not w.is_ascent(i):
                continue
            cover = chain_value(w.left_mul_s(i), carry, path_memo(path)).terms
            for key, m in entries:
                if (cover_m := -cover.get(key, 0)) < m:
                    ces.append({"w": w_text, "i": i, "key": _key_tuple(key),
                                "m": m, "cover_m": cover_m})
        return ces, counts

    return sweep("formpw2bound", n, one, carry)
