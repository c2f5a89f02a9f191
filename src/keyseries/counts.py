"""Selection counts behind the denominator series and graded approximations.

The inverse of the denominator product expands with non-negative coefficients:
the coefficient of x^mu in the t^lam block counts families of multiset
selections, one per level, and equivalently integral points on a product of
simplices cut by a hyperplane.  On top of those counts sits the order-by-order
approximation of key polynomial coefficients, with corrections taken from the
graded slices of the numerator.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .bseq import enum_A
from .multisets import EtaMultiSet, format_multiset, sum_seqs
from .mults import MultView, cubic_multiplicities, quadratic_multiplicities
from .permutation import Permutation, ScanOutcome, sweep
from .poly import SparsePoly, series_inverse_product, x_exps
from .series import _trim_partition, key_polynomial, partitions, t_exps

__all__ = [
    "F_coefficient",
    "F_polynomial",
    "F_block_series",
    "polytope_point_count",
    "approx_coefficient",
    "approximation_report",
    "suite_fcoeff",
]


def _mu_counter(mu: EtaMultiSet) -> list[int]:
    """Multiplicity-per-value vector, index 0 unused."""
    mu = tuple(sorted(mu))
    if mu and mu[0] < 1:
        raise ValueError(f"entries must be positive: {mu}")
    need = [0] * ((mu[-1] + 1) if mu else 1)
    for v in mu:
        need[v] += 1
    return need


def F_coefficient(lam: tuple[int, ...], w: Permutation, mu: EtaMultiSet) -> int:
    """Number of level selections with total sum mu.

    For each level l take an unordered collection of h_l elements of A_l(w)
    (h_l the column-height multiplicity of lam); the count is over families
    whose combined multiset sum equals mu.
    """
    lam = _trim_partition(tuple(lam))
    mu = tuple(sorted(mu))
    h = t_exps(lam)
    if sum(lam) != len(mu):
        return 0
    need = _mu_counter(mu)
    levels = [
        (enum_A(w, l), h[l - 1]) for l in range(1, len(h) + 1) if h[l - 1] > 0
    ]

    def pick(li: int, ai: int, left: int) -> int:
        # stars and bars over A_l with mu-feasibility pruning
        if left == 0:
            return level(li + 1)
        alphas = levels[li][0]
        if ai == len(alphas):
            return 0
        alpha = alphas[ai]
        gmax = left
        for v in alpha:
            gmax = min(gmax, need[v] if v < len(need) else 0)
            if not gmax:
                break
        total = pick(li, ai + 1, left)
        for g in range(1, gmax + 1):
            for v in alpha:
                need[v] -= 1
            total += pick(li, ai + 1, left - g)
        if gmax:
            for v in alpha:
                need[v] += gmax
        return total

    def level(li: int) -> int:
        if li == len(levels):
            return 1 if not any(need) else 0
        return pick(li, 0, levels[li][1])

    return level(0)


@lru_cache(maxsize=None)
def _level_selections(w: Permutation, l: int, h: int) -> SparsePoly:
    """Sum of x^(multiset sum) over unordered h-element selections from A_l."""
    out = SparsePoly.zero()
    for combo in combinations_with_replacement(enum_A(w, l), h):
        out = out + SparsePoly.x_monomial(sum_seqs(*combo))
    return out


def F_polynomial(lam: tuple[int, ...], w: Permutation) -> SparsePoly:
    """The whole t^lam block as a polynomial in x (bounded enumeration)."""
    lam = _trim_partition(tuple(lam))
    h = t_exps(lam)
    out = SparsePoly.one()
    for l in range(1, len(h) + 1):
        if h[l - 1]:
            out = out * _level_selections(w, l, h[l - 1])
    return out


def F_block_series(lam: tuple[int, ...], w: Permutation) -> SparsePoly:
    """Independent oracle: the t^lam coefficient of the inverse product."""
    lam = _trim_partition(tuple(lam))
    h = t_exps(lam)
    factors = [
        SparsePoly.term(x=x_exps(alpha), t=(0,) * (l - 1) + (1,))
        for l in range(1, len(h) + 1)
        if h[l - 1]
        for alpha in enum_A(w, l)
    ]
    expansion = series_inverse_product(factors, sum(h))
    return expansion.t_coefficient(h)


def polytope_point_count(
    w: Permutation, h: tuple[int, ...], mu: EtaMultiSet
) -> tuple[int, int]:
    """(count, ambient dimension) for the lattice-point reading of the count.

    h is the per-level selection-size vector; the ambient polytope is the
    product of simplices with |A_l(w)| - 1 dimensions for each active level,
    and mu cuts it with a hyperplane.
    """
    if any(v < 0 for v in h):
        raise ValueError(f"gap vector entries must be >= 0: {h}")
    lam = tuple(sum(h[j:]) for j in range(len(h)))
    dim = sum(len(enum_A(w, l)) - 1 for l in range(1, len(h) + 1) if h[l - 1])
    return F_coefficient(lam, w, mu), dim


def _lower_partition(
    lam: tuple[int, ...], levels: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Remove one column of each height in levels; None when not a partition."""
    vals = list(lam) + [0] * (max(levels) - len(lam))
    for l in levels:
        for j in range(l):
            vals[j] -= 1
    if any(v < 0 for v in vals) or any(
        a < b for a, b in zip(vals, vals[1:])
    ):
        return None
    return _trim_partition(tuple(vals))


def _multiset_minus(mu: EtaMultiSet, eta: EtaMultiSet) -> EtaMultiSet | None:
    need = dict()
    for v in mu:
        need[v] = need.get(v, 0) + 1
    for v in eta:
        need[v] = need.get(v, 0) - 1
        if need[v] < 0:
            return None
    return tuple(sorted(v for v, c in need.items() for _ in range(c)))


def approx_coefficient(
    lam: tuple[int, ...], w: Permutation, mu: EtaMultiSet, order: int = 3
) -> int:
    """Graded approximation of the coefficient of x^mu in the key polynomial.

    Order 0 is the bare selection count; order 1 coincides with it (the
    numerator has no linear slice); order 2 subtracts the quadratic
    corrections over lowered blocks, order 3 adds back the cubic ones.
    Exact whenever lam_1 <= 3.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be one of 0, 1, 2, 3, got {order}")
    lam = _trim_partition(tuple(lam))
    mu = tuple(sorted(mu))
    value = F_coefficient(lam, w, mu)
    if order <= 1:
        return value
    for (k, l, eta), m in quadratic_multiplicities(w).items():
        lowered = _lower_partition(lam, (k, l))
        if lowered is None:
            continue
        rest = _multiset_minus(mu, eta)
        if rest is None:
            continue
        value -= m * F_coefficient(lowered, w, rest)
    if order == 3:
        for (p, k, l, tau), m in cubic_multiplicities(w).items():
            lowered = _lower_partition(lam, (p, k, l))
            if lowered is None:
                continue
            rest = _multiset_minus(mu, tau)
            if rest is None:
                continue
            value += m * F_coefficient(lowered, w, rest)
    return value


def approximation_report(
    lam: tuple[int, ...], w: Permutation, mu: EtaMultiSet, order: int = 3
) -> dict:
    """Row comparing the approximation against the exact coefficient."""
    lam = _trim_partition(tuple(lam))
    mu = tuple(sorted(mu))
    value = approx_coefficient(lam, w, mu, order)
    exact = key_polynomial(lam, w).coefficient(x=x_exps(mu))
    row = {
        "lambda": list(lam),
        "w": w.one_line(),
        "mu": format_multiset(mu),
        "order": order,
        "value": value,
        "exact": exact,
        "match": value == exact,
    }
    if order == 1:
        row["note"] = "order 1 coincides with order 0"
    return row


def suite_fcoeff(group_n: int = 3, max_weight: int = 6) -> ScanOutcome:
    """Counts agree with the series oracle, exhaustively at desk scale."""

    def one(w: Permutation):
        ces: list[dict] = []
        blocks = 0
        coeffs = 0
        for lam in partitions(max_weight, max_weight):
            if sum(lam) > max_weight:
                continue
            blocks += 1
            block = F_block_series(lam, w)
            if F_polynomial(lam, w) != block:
                ces.append(
                    {"w": w.one_line(), "lambda": list(lam),
                     "detail": "enumeration disagrees with series block"}
                )
                continue
            for (mu,), c in MultView(block, 0).items():
                coeffs += 1
                got = F_coefficient(lam, w, mu)
                if got != c:
                    ces.append(
                        {"w": w.one_line(), "lambda": list(lam),
                         "mu": format_multiset(mu), "count": got, "series": c}
                    )
            infeasible = tuple(sorted((group_n + 2,) * max(sum(lam), 1)))
            if F_coefficient(lam, w, infeasible) != 0:
                ces.append(
                    {"w": w.one_line(), "lambda": list(lam),
                     "mu": format_multiset(infeasible),
                     "detail": "nonzero on an infeasible monomial"}
                )
        return ces, {"blocks": blocks, "coefficients": coeffs}

    return sweep("fcoeff", group_n, one)
