"""Multiplicities of the numerator polynomials and their structure theory.

The T-quadratic part of P_w is a sum of -m_eta x^eta T_k T_l with m_eta >= 1
exactly on the multiset sums admitting two essentially distinct presentations;
the T-cubic part enters with + sign.  This module reads those multiplicities,
evaluates the closed formulas for the small slices (one unit of freedom, two
units with k < l, two units with k = l), verifies the transfer rules along
weak-order covers, and runs the conjecture scans (presentation poset
invariance and monotonicity, multiplicity growth under s_i, cubic support,
lower bounds).

The multiplicity tables are packed views, `MultView`, behind `multiplicity2`
and `multiplicity3`: a lookup packs its key and reads the numerator's terms;
iteration decodes the slice in ascending packed-key order.  No sweep reads a
view.  The quadratic checks read m straight from P_w's terms, against rows
built once per pair of bounds (w_upper(w, k), w_upper(w, l)) and held for one
sweep (`_bound_rows`), presentations computed once per row.  The transfer
rules (`check_multsiw`, `scan_siinc`, `scan_formpw2bound`) split packed keys
by their (x_i, x_{i+1}) exponents.  `scan_formpw3` compares P_w's cubic
terms, grouped by T-monomial (`SparsePoly.t_strata`), with
`multisets.packed_C` by set difference, holding what it finds as packed rows
(`permutation.Findings`).  Only the keys a check reports are decoded.

Every check and scan is a function of one permutation w and its numerator
P_w, run over S_n by `sweep`, which lives in `permutation` with `ScanOutcome`
and is re-exported here.  The sweep walks the tree of first left descents and
hands each w its own P_w (`series.numerator_carry`), holding only the
numerators on the current path; findings come out in one-line order.  The two
checks that also read the cover s_i w (`check_multsiw`, `scan_formpw2bound`)
take P_{s_i w} as one induction step from P_w (`series.numerator_step`), at
the sweep's tmax: one step per cover, and one P_{s_i w} held at a time.  The
step is the tree's value by the word property, which `verify --suite
formofkw` checks at every cover off the tree.  The checks and scans are
listed once, with the subcommand that runs each, in `cli.CHECKS`.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from .bseq import format_seq, w_upper
from .config import InvariantError
from .multisets import _decoded, doubled, eta_parts, packed_B, packed_C, presentations
from .permutation import Findings, Permutation, ScanOutcome, sweep
from .poly import TD_SHIFT, SparsePoly, key_multisets, multiset_key, x_exps
from .series import n_factor_product, numerator_carry, numerator_P, numerator_step

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
    eta) at grade 2, (p, k, l, tau) at grade 3.  `get` packs its key (x_exps
    counts the levels as T-exponents, (2, 3) -> (0, 1, 1)) and reads the
    terms; `items` decodes the slice lazily, in ascending packed-key order, a
    function of the polynomial's value only."""

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
        lo, hi = self.grade << TD_SHIFT, (self.grade + 1) << TD_SHIFT
        return len([k for k in self.poly.terms if lo <= k < hi])


def quadratic_multiplicities(w: Permutation) -> MultView:
    """m with keys (k, l, eta), from the T-quadratic slice of
    numerator_P(w, tmax=2).  The slice carries a global minus sign, so the
    values are positive whenever the structure theory says they should be."""
    return MultView(numerator_P(w, tmax=2), 2, -1)


def cubic_multiplicities(w: Permutation) -> MultView:
    """m with keys (p, k, l, tau), from the T-cubic slice of numerator_P(w, tmax=3)."""
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


# -- the two-presentation rows, one table per sweep ----------------------------
#
# What a quadratic check compares m_eta with depends on w only through the
# bounds; m is one read of P_w's terms at eta + T_k T_l (keys carry T-degree).


def _bound_rows(
    pairs: list[tuple[int, int]], row: Callable[[Permutation, int, int, int], Any]
) -> Callable[[Permutation], Iterator[tuple[int, int, int, list]]]:
    """rows_of(w) yields (k, l, packed T_k T_l, rows) for each (k, l) in
    pairs, where rows holds row(w, k, l, eta) for each packed eta of B_{k,l}(w)
    in tuple order, None dropped.  The rows are built once per pair of bounds
    and held for as long as rows_of, that is for one sweep."""
    levels = [(k, l, multiset_key(levels=(k, l))) for k, l in pairs]
    top = max((l for _, l in pairs), default=0)
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], list] = {}

    def rows_of(w: Permutation) -> Iterator[tuple[int, int, int, list]]:
        bounds = [()] + [w_upper(w, m) for m in range(1, top + 1)]
        for k, l, t in levels:
            key = (bounds[k], bounds[l])
            rows = table.get(key)
            if rows is None:
                rows = table[key] = [r for eta in packed_B(*key)
                                     if (r := row(w, k, l, eta)) is not None]
            yield k, l, t, rows

    return rows_of


def _pairs(n: int, gap: int = 0) -> list[tuple[int, int]]:
    """(k, l) with 1 <= k, k + gap <= l <= n."""
    return [(k, l) for k in range(1, n + 1) for l in range(k + gap, n + 1)]


def _freedom(k: int, l: int, eta: int) -> int:
    """r = k - [k = l] - |eta_2| of a packed eta."""
    return k - (k == l) - doubled(eta)


def _row_findings(
    w: Permutation, p: SparsePoly, rows_of: Callable, finding: Callable[..., dict]
) -> tuple[list[dict], dict[str, int]]:
    """One w of a check over rows (eta, lo, hi, tag, info): where m falls
    outside [lo, hi], a finding {w, eta, m} with the fields finding(k, l, lo,
    info) gives; the count of rows as "multisets", and of the rows that hold
    per tag."""
    terms = p.terms
    w_text = w.one_line()
    ces: list[dict] = []
    counts = {"multisets": 0}
    for k, l, t, rows in rows_of(w):
        counts["multisets"] += len(rows)
        for eta, lo, hi, tag, info in rows:
            m = -terms.get(eta + t, 0)
            if not lo <= m <= hi:
                ces.append({"w": w_text, "eta": format_seq(_decoded(eta)), "m": m,
                            **finding(k, l, lo, info)})
            elif tag:
                counts[tag] = counts.get(tag, 0) + 1
    return ces, counts


def _exactly(expect: int | None, valid: bool) -> tuple[int, int]:
    """The [lo, hi] of a row that holds for m = expect alone, or for no m."""
    return (expect, expect) if valid else (1, 0)


def _row_check(
    name: str, n: int, pairs: list[tuple[int, int]], row: Callable, finding: Callable[..., dict]
) -> ScanOutcome:
    rows_of = _bound_rows(pairs, row)
    return sweep(name, n, lambda w, p: _row_findings(w, p, rows_of, finding),
                 numerator_carry(tmax=2))


# -- closed formulas for the small slices ------------------------------------------


def check_quadratic_support(n: int) -> ScanOutcome:
    """The quadratic support is exactly the two-presentation sets, positively:
    terms off the sets or below 1, then set members with no term, by key."""
    rows_of = _bound_rows(_pairs(n), lambda w, k, l, eta: eta)

    def one(w: Permutation, p: SparsePoly):
        quad = p.t_slice(2).terms
        expected = {eta + t for _, _, t, rows in rows_of(w) for eta in rows}
        w_text = w.one_line()
        ces = [
            {"w": w_text, "key": _key_tuple(key), "m": -quad[key],
             "reason": "negative or outside the two-presentation sets"}
            for key in sorted(quad) if key not in expected or -quad[key] < 1
        ]
        ces += [
            {"w": w_text, "key": _key_tuple(key), "m": 0,
             "reason": "vanishes on a two-presentation multiset"}
            for key in sorted(expected - quad.keys())
        ]
        return ces, {"terms": len(quad)}

    return sweep("quadratic_support", n, one, numerator_carry(tmax=2))


def check_diff1(n: int) -> ScanOutcome:
    """Slices with one unit of freedom carry multiplicity exactly 1."""
    return _row_check(
        "diff1", n, _pairs(n),
        lambda w, k, l, eta: (eta, 1, 1, None, None) if _freedom(k, l, eta) == 1 else None,
        lambda k, l, lo, info: {"k": k, "l": l, "expected": 1})


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
    """Two units of freedom at k < l: the position formula for m, in [3, l - k + 4]."""

    def row(w: Permutation, k: int, l: int, key: int):
        if _freedom(k, l, key) != 2:
            return None
        eta = _decoded(key)
        betas = sorted(beta for _, beta in presentations(w, k, l, eta).pairs)
        a, b = _gamma_positions(eta, betas[0])
        cc, d = _gamma_positions(eta, betas[-1])
        expect = d - a + 1 - (b - cc if b > cc else 0)
        return key, *_exactly(expect, 3 <= expect <= l - k + 4), None, expect

    return _row_check("diff2", n, _pairs(n, gap=1), row, lambda k, l, lo, expect: {
        "k": k, "l": l, "expected": expect, "range": [3, l - k + 4]})


_LKETA_PATTERNS = {
    (frozenset({1, 3, 5}), frozenset({2, 4, 6})): 3,
    (frozenset({1, 3, 4}), frozenset({2, 5, 6})): 4,
    (frozenset({1, 2, 5}), frozenset({3, 4, 6})): 4,
    (frozenset({1, 2, 4}), frozenset({3, 5, 6})): 5,
    (frozenset({1, 2, 3}), frozenset({4, 5, 6})): 5,
}


def _lketa23_row(w: Permutation, k: int, l: int, key: int):
    """The row of an eta in B_{k,k}(w) with |eta_2| = k - 3 (r = 2): m must
    equal both its position pattern's value and the unified formula, in [3, 5]."""
    if _freedom(k, l, key) != 2:
        return None
    eta = _decoded(key)
    ps = presentations(w, k, l, eta)
    sides = sorted({side for pair in ps.pairs for side in pair})
    lo = _gamma_positions(eta, sides[0])
    hi = _gamma_positions(eta, sides[-1])
    pattern = _LKETA_PATTERNS.get((frozenset(lo), frozenset(hi)))
    a, b, cpos = lo
    d, e, f = hi
    unified = f - a - (b - d if b > d else 0) - (cpos - e if cpos > e else 0)
    tag = "pattern_{}_{}".format("".join(map(str, lo)), "".join(map(str, hi)))
    fields = {"k": k, "pattern": pattern, "unified": unified, "positions": [list(lo), list(hi)]}
    return key, *_exactly(pattern, pattern == unified and 3 <= unified <= 5), tag, fields


def check_lketa23(n: int) -> ScanOutcome:
    """Two units of freedom at k = l: five position patterns, m in [3, 5]."""
    return _row_check("lketa23", n, [(k, k) for k in range(3, n + 1)], _lketa23_row,
                      lambda k, l, lo, fields: fields)


def _floor_row(w: Permutation, k: int, l: int, eta: int):
    """m >= 2^r - 1 on every two-presentation multiset."""
    return eta, 2 ** _freedom(k, l, eta) - 1, math.inf, None, None


def _floor_finding(k: int, l: int, floor: int, info: None) -> dict:
    return {"k": k, "l": l, "bound": floor}


def check_lowbdr2(n: int) -> ScanOutcome:
    """On every two-presentation multiset, m is at least 2^r - 1."""
    return _row_check("lowbdr2", n, _pairs(n), _floor_row, _floor_finding)


# -- transfer rules along weak-order covers -----------------------------------------
#
# A rule moves the (x_i, x_{i+1}) exponents (a, b) of a packed key: with the
# terms split by them (`_pair_split`), a moved key is a lookup at another
# (a, b) for the same rest of the key.  P_{s_i w} is one induction step from
# P_w, pi_i(P_w N_{w,i}) (`series.numerator_step`).


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
    def one(w: Permutation, p_w: SparsePoly):
        w_text = w.one_line()
        ces: list[dict] = []
        pairs = 0
        p2, p3 = -p_w.t_slice(2), p_w.t_slice(3)
        for i in range(1, n):
            if not w.is_ascent(i):
                continue
            pairs += 1
            p_sw = numerator_step(p_w, w, i, tmax=3)
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

    return sweep("multsiw", n, one, numerator_carry(tmax=3))


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
    canons: list[tuple] = []  # canonical posets by id, in the order first built
    canon_id = _table_ids(canons, lambda canon: canon)
    rows_of = _bound_rows(_pairs(n), lambda w, k, l, eta: (
        eta, canon_id(presentation_poset(w, k, l, _decoded(eta)).canonical())))
    # w.values -> (w's text, [(k, l, rows, the m of each row)]).  The sweep
    # visits w in tree order, so the first witness of each poset is taken
    # after it, in one-line order.
    blocks: dict[tuple[int, ...], tuple[str, list[tuple]]] = {}

    def one(w: Permutation, p: SparsePoly):
        get = p.terms.get
        blocks[w.values] = (w.one_line(), [
            (k, l, rows, [-get(eta + t, 0) for eta, _ in rows])
            for k, l, t, rows in rows_of(w)])
        return [], {}

    out = sweep("poset", n, one, numerator_carry(tmax=2))
    firsts: dict[int, tuple[int, dict]] = {}  # canon id -> (m, witness)
    for key in sorted(blocks):
        w_text, found = blocks[key]
        for k, l, rows, ms in found:
            for (eta, cid), m in zip(rows, ms):
                if cid not in firsts:
                    firsts[cid] = (m, _witness(w_text, k, l, eta, m))
                elif firsts[cid][0] != m:
                    out.counterexamples.append(
                        {"reason": "same poset, different m",
                         "first": firsts[cid][1], "second": _witness(w_text, k, l, eta, m)}
                    )
    for a, b in itertools.permutations(firsts, 2):
        # _order_embeds is pure: the cheap m test first
        if firsts[a][0] > firsts[b][0] and _order_embeds(canons[a], canons[b]):
            out.counterexamples.append(
                {"reason": "embedding with larger m on the smaller poset",
                 "small": firsts[a][1], "large": firsts[b][1]}
            )
    out.stats["posets"] = len(firsts)
    return out


def _witness(w_text: str, k: int, l: int, eta: int, m: int) -> dict:
    return {"w": w_text, "k": k, "l": l, "eta": format_seq(_decoded(eta)), "m": m}


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
    tau_id = _table_ids(found.taus, lambda tau: format_seq(_decoded(tau)))

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
    floors = _bound_rows(_pairs(n), _floor_row)

    def one(w: Permutation, p_w: SparsePoly):
        w_text = w.one_line()
        ces, counts = _row_findings(w, p_w, floors, _floor_finding)
        entries = sorted((-p_w.t_slice(2)).terms.items())  # read at every ascent
        for i in range(1, n):
            if not w.is_ascent(i):
                continue
            cover = numerator_step(p_w, w, i, tmax=2).terms
            for key, m in entries:
                if (cover_m := -cover.get(key, 0)) < m:
                    ces.append({"w": w_text, "i": i, "key": _key_tuple(key),
                                "m": m, "cover_m": cover_m})
        return ces, counts

    return sweep("formpw2bound", n, one, numerator_carry(tmax=2))
