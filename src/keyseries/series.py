"""Key and Lascoux polynomials, block generating series, and their closed form.

For a permutation w and a partition lam with at most n parts, the key
polynomial is pi_w applied to the dominant monomial x^lam.  Summing over all
such lam with t-weight T_1^{h_1}...T_n^{h_n} (h_l the column multiplicities,
i.e. h_l = lam_l - lam_{l+1}) gives a series in the block variables whose
closed form is a single numerator polynomial P_w over the product of
(1 - x^alpha T_l) for alpha ranging over the bounded ascending sequences of w.

P_w is computed by exact induction on weak order: if i is a left ascent of w
then P_{s_i w} = pi_i(P_w * N_{w,i}) with N_{w,i} the product of
(1 - x^{s_i alpha} T_l) over the sequences alpha moved by s_i.  Neither
N_{w,i} nor the product is built: P_w's dict is left as it is, the factors'
updates go into per-level deltas, and pi_i reads P_w and the deltas into
one dict (``poly.pi_product``).  Truncating every product past a total
T-degree bound commutes with the induction, which keeps sweeps over whole
symmetric groups cheap.

Both objects are carries down the tree of first left descents: P_w
(``numerator_carry``, stepped by ``numerator_step``) and the key series, the
dominant series sum x^lam t^lam stepped by pi_i (``direct_carry``; the
operators act on x only).  A sweep gets its values from one walk of the
tree; a single value is ``permutation.chain_value`` down w's chain, and
``numerator_P`` and the key polynomials memoise that chain (``_P_CACHE``,
``_KEY_CACHE``) for single calls, which no sweep reads or fills.  Suites check
every cover off the tree (``permutation.cover_mismatches``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .bseq import a_keys, enum_A, moved_levels, w_upper
from .config import InvariantError, ResourceCapError
from .permutation import (
    Carry, Permutation, ScanOutcome, all_permutations, chain_value, cover_mismatches,
    descent_walk, sweep,
)
from .poly import (
    NVARS,
    Monomial,
    SparsePoly,
    multiset_key,
    pi,
    pi_product,
    pi_xi,
    series_product,
    series_quotient,
    x_exps,
)

__all__ = [
    "is_partition",
    "partitions",
    "t_exps",
    "key_polynomial",
    "lascoux_polynomial",
    "key_by_composition",
    "composition_shape",
    "numerator_step",
    "numerator_carry",
    "numerator_P",
    "numerator_P_along",
    "n_factor_product",
    "denominator_factors",
    "direct_carry",
    "series_Kw_direct",
    "FormCheck",
    "verify_form",
    "suite_formofkw",
    "check_piiKw",
    "check_propgen",
    "lascoux_linear_part",
    "suite_pxiw1",
]


# -- partitions and compositions ---------------------------------------------


def is_partition(lam: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(lam, lam[1:])) and all(a >= 0 for a in lam)


def _trim_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    k = len(lam)
    while k and lam[k - 1] == 0:
        k -= 1
    return lam[:k]


def partitions(max_first: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """All partitions with first part <= max_first and at most max_parts parts."""
    if max_parts < 0:
        raise ValueError("max_parts must be >= 0")

    def gen(bound: int, parts: int) -> Iterator[tuple[int, ...]]:
        yield ()
        if not parts:
            return
        for first in range(1, bound + 1):
            for rest in gen(first, parts - 1):
                yield (first,) + rest

    yield from gen(max_first, max_parts)


def t_exps(lam: tuple[int, ...]) -> tuple[int, ...]:
    """T-exponents of t^lam: the multiplicity of each column height in lam."""
    lam = _trim_partition(lam)
    return tuple(a - b for a, b in zip(lam, lam[1:] + (0,)))


def composition_shape(nu: tuple[int, ...]) -> tuple[tuple[int, ...], Permutation]:
    """Sorting data of a composition: the partition and the stable w with w.lam = nu.

    w sends sorted position i to the position in nu holding the i-th largest
    entry, breaking ties left to right; this w has minimal length among all
    permutations rearranging the partition into nu.
    """
    if any(a < 0 for a in nu):
        raise ValueError(f"composition entries must be >= 0: {nu}")
    order = sorted(range(len(nu)), key=lambda j: (-nu[j], j))
    lam = tuple(nu[j] for j in order)
    values = tuple(j + 1 for j in order)
    return lam, Permutation(values)


# -- key and Lascoux polynomials ---------------------------------------------

_KEY_CACHE: dict[tuple[tuple[tuple[int, ...], bool], tuple[int, ...]], SparsePoly] = {}


def _pi_step(xi_mode: bool):
    op = pi_xi if xi_mode else pi
    return lambda f, v, i: op(i, f)


def key_polynomial(lam: tuple[int, ...], w: Permutation) -> SparsePoly:
    """pi_w applied to x^lam, for a partition lam."""
    return _key_poly(_trim_partition(lam), w, False)


def lascoux_polynomial(lam: tuple[int, ...], w: Permutation) -> SparsePoly:
    """The xi-deformed analogue; its xi^0 slice is the key polynomial."""
    return _key_poly(_trim_partition(lam), w, True)


def _key_poly(lam: tuple[int, ...], w: Permutation, xi_mode: bool) -> SparsePoly:
    carry = SparsePoly.term(x=lam), _pi_step(xi_mode)
    return chain_value(w, carry, _KEY_CACHE, (lam, xi_mode))


def key_by_composition(nu: tuple[int, ...], xi_mode: bool = False) -> SparsePoly:
    """Key (or Lascoux) polynomial indexed by an arbitrary composition."""
    lam, w = composition_shape(tuple(nu))
    return _key_poly(_trim_partition(lam), w, xi_mode)


# -- numerator polynomials ----------------------------------------------------

_P_CACHE: dict[tuple[tuple[bool, int | None], tuple[int, ...]], SparsePoly] = {}


# the packed keys of x_j and of T_l, at index j - 1 and l - 1
_X_KEYS = tuple(multiset_key((j,)) for j in range(1, NVARS + 1))
_T_KEYS = tuple(multiset_key(levels=(l,)) for l in range(1, NVARS + 1))


def _n_factors(w: Permutation, i: int) -> list[tuple[int, int, int]]:
    """The monomials -x^{s_i alpha} T_l over sequences moved at an ascent i, so
    that N_{w,i} is the product of the binomials 1 + m, each as the factor
    (packed key, -1, T-degree 1) of ``poly.pi_product``.

    Read off the packed members of each level set (``bseq.a_keys``): with
    delta = x_{i+1} - x_i as a key difference, alpha moves exactly when its
    x_i field is 1, its x_{i+1} field is 0 and alpha + delta, its s_i image,
    is not a member.  The factor is then -x^{alpha + delta} T_l.
    """
    if not w.is_ascent(i):
        raise ValueError(f"{i} is not an ascent of {w.one_line()}")
    lo, hi = _X_KEYS[i - 1], _X_KEYS[i]
    out = []
    for l in moved_levels(w, i):
        members = a_keys(w_upper(w, l))
        shift = hi - lo + _T_KEYS[l - 1]
        out += [(alpha + shift, -1, 1) for alpha in members  # fields are 0 or 1
                if alpha & lo and not alpha & hi and alpha + hi - lo not in members]
    return out


def n_factor_product(
    w: Permutation, i: int, tmax: int | None = None
) -> SparsePoly:
    """Product of (1 - x^{s_i alpha} T_l) over sequences moved at an ascent i."""
    factors = [SparsePoly.from_key(m, c) for m, c, _ in _n_factors(w, i)]
    return series_product(SparsePoly.one(), factors, tmax)


def numerator_step(
    p: SparsePoly, v: Permutation, i: int, xi_mode: bool = False, tmax: int | None = None,
    max_terms: int | None = None,
) -> SparsePoly:
    """P_{s_i v} = pi_i(P_v * N_{v,i}) from p = P_v truncated past tmax (None:
    exact), at an ascent i of v.  The product is never built
    (``poly.pi_product``).  A product or a value of more than max_terms terms
    (None: no cap) raises ResourceCapError."""
    shifts = _n_factors(v, i)
    D = p.t_degree() + len(shifts) if tmax is None else tmax
    # constant term 1, no other T-free term and, outside xi mode, no T-linear one
    low = 1 if xi_mode else 2
    out, below = pi_product(i, p, shifts, D, xi_mode, low, max_terms)
    if max_terms is not None and len(out.terms) > max_terms:
        raise ResourceCapError(
            f"P_{v.left_mul_s(i).one_line()} has more than max_terms={max_terms} terms")
    if below != {0: 1}:
        w = v.left_mul_s(i)
        raise InvariantError(f"P_{w.one_line()} has a wrong term of T-degree below {low}")
    return out


def numerator_carry(xi_mode: bool = False, tmax: int | None = None,
                    max_terms: int | None = None) -> Carry:
    """The numerators as a value carried down a sweep: P at the identity and
    the step at (xi_mode, tmax, max_terms), so that the sweep hands each w
    its P_w."""
    return SparsePoly.one(), lambda p, v, i: numerator_step(p, v, i, xi_mode, tmax, max_terms)


def numerator_P(
    w: Permutation, xi_mode: bool = False, tmax: int | None = None,
    max_terms: int | None = None,
) -> SparsePoly:
    """P_w truncated past T-degree tmax (None: exact), memoised with every
    numerator on its chain of first left descents.  A cap of max_terms terms
    changes no value it lets through, so the memo is shared across caps; a
    value held past the cap raises as its computation would have, and a
    call the cap refuses leaves the memo as it found it."""
    held = len(_P_CACHE)
    try:
        out = chain_value(w, numerator_carry(xi_mode, tmax, max_terms), _P_CACHE, (xi_mode, tmax))
        if max_terms is not None and len(out.terms) > max_terms:
            raise ResourceCapError(f"P_{w.one_line()} has more than max_terms={max_terms} terms")
    except ResourceCapError:
        for key in list(_P_CACHE)[held:]:  # the chain climbed by this call
            del _P_CACHE[key]
        raise
    return out


def numerator_P_along(
    word: Iterable[int], xi_mode: bool = False, tmax: int | None = None
) -> SparsePoly:
    """Run the induction along an explicit reduced word (rightmost letter first).

    Unlike :func:`numerator_P` this follows the given word, not the chain of
    first left descents, and memoises nothing: an oracle for the value along
    any word.  Raises ValueError if the word is not reduced.
    """
    word = tuple(word)
    if any(i < 1 for i in word):
        raise ValueError(f"word letters must be >= 1: {word}")
    v = Permutation.identity(max(word, default=0) + 1)
    out = SparsePoly.one()
    for i in reversed(word):
        if not v.is_ascent(i):
            raise ValueError(f"word {word} is not reduced at letter {i}")
        out = numerator_step(out, v, i, xi_mode, tmax)
        v = v.left_mul_s(i)
    return out


# -- series and closed form ----------------------------------------------------


def denominator_factors(w: Permutation, n: int) -> list[SparsePoly]:
    """The monomials x^alpha T_l over all levels l <= n and alpha in A_l(w)."""
    if n < 1:
        raise ValueError(f"block count must be >= 1, got {n}")
    out = []
    for l in range(1, n + 1):
        tvec = (0,) * (l - 1) + (1,)
        for alpha in enum_A(w, l):
            out.append(SparsePoly.term(x=x_exps(alpha), t=tvec))
    return out


def direct_carry(n: int, D: int, xi_mode: bool = False) -> Carry:
    """The truncated key series as a carry: at the identity the sum of
    x^lam t^lam over lam with at most n parts and first part at most D, and
    pi_i (pi_xi) as the step, so that its value at w is series_Kw_direct."""
    if n < 1:
        raise ValueError(f"block count must be >= 1, got {n}")
    root = SparsePoly({(lam, t_exps(lam), 0): 1 for lam in partitions(D, n)})
    return root, _pi_step(xi_mode)


def series_Kw_direct(
    w: Permutation, n: int, D: int, xi_mode: bool = False
) -> SparsePoly:
    """Sum of key (or Lascoux) polynomials times t^lam, over lam with at most
    n parts and first part at most D.  The first part equals the T-degree of
    t^lam, so this is the series truncated past total T-degree D."""
    return chain_value(w, direct_carry(n, D, xi_mode))


@dataclass(frozen=True)
class FormCheck:
    w: str
    n: int
    D: int
    xi_mode: bool
    ok: bool
    detail: str = ""


def verify_form(
    w: Permutation,
    n: int | None = None,
    D: int = 4,
    xi_mode: bool = False,
    pair: tuple[SparsePoly, SparsePoly] | None = None,
) -> FormCheck:
    """Compare the truncated series against P_w over the denominator product.

    The closed form is P_w divided by each factor 1 - x^alpha T_l of the
    denominator in turn (``series_quotient``), truncated past T-degree D.
    P_w and the direct series are ``pair`` when given (a sweep hands both in,
    at tmax=D and for n blocks), else numerator_P and series_Kw_direct.
    """
    if n is None:
        n = max(w.n, 1)
    if pair is None:
        pair = numerator_P(w, xi_mode=xi_mode, tmax=D), series_Kw_direct(w, n, D, xi_mode)
    p, direct = pair
    closed = series_quotient(p, denominator_factors(w, n), D)
    if closed == direct:
        return FormCheck(w.one_line(), n, D, xi_mode, True)
    delta = (closed - direct).sorted_terms()
    return FormCheck(w.one_line(), n, D, xi_mode, False, f"first mismatch at {delta[0][0]}")


def _check_findings(
    w: Permutation, failures: list[str], checks: int = 1
) -> tuple[list[dict], dict[str, int]]:
    """Sweep findings {"w", "detail"} for the failed checks of one w, and the
    counts of checks run and failed."""
    found = [{"w": w.one_line(), "detail": detail} for detail in failures]
    return found, {"checks": checks, "failed": len(found)}


def suite_formofkw(group_n: int, D: int, xi_mode: bool = False) -> ScanOutcome:
    """Run verify_form on every w of S_group_n whose numerator step holds on its covers
    off the tree.  One carry hands each w the pair (P_w, direct series of w)."""
    p_carry = numerator_carry(xi_mode, D)
    (p_root, p_step), (s_root, s_step) = p_carry, direct_carry(group_n, D, xi_mode)
    carry = (p_root, s_root), lambda ps, v, i: (p_step(ps[0], v, i), s_step(ps[1], v, i))
    path: list[tuple[Permutation, SparsePoly]] = []  # root to w, with each P

    def one(w: Permutation, pair: tuple[SparsePoly, SparsePoly]):
        path[w.length():] = [(w, pair[0])]
        if bad := cover_mismatches(path, p_carry):
            return _check_findings(w, [f"numerator step at ascent {bad[0]} differs"])
        check = verify_form(w, n=group_n, D=D, xi_mode=xi_mode, pair=pair)
        return _check_findings(w, [] if check.ok else [check.detail])

    return sweep("formofkw", group_n, one, carry)


# -- operator identities on truncated series -----------------------------------


def check_piiKw(group_n: int, D: int, xi_mode: bool = False) -> ScanOutcome:
    """pi_i maps the series of w to the series of s_i w at ascents and fixes it
    at descents; checked for every w and i on the truncated series."""
    carry = direct_carry(group_n, D, xi_mode)
    path: list[tuple[Permutation, SparsePoly]] = []  # root to w, with each series

    def one(w: Permutation, series: SparsePoly):
        path[w.length():] = [(w, series)]
        bad = [(i, w.left_mul_s(i)) for i in cover_mismatches(path, carry)]
        bad += [(i, w) for i in w.left_descents() if carry[1](series, w, i) != series]
        failures = [f"pi_{i} image is not the series of {t.one_line()}" for i, t in sorted(bad)]
        return _check_findings(w, failures, checks=group_n - 1)

    return sweep("piiKw", group_n, one, carry)


def check_propgen(group_n: int, D: int) -> list[FormCheck]:
    """Group-algebra form of the previous identity.

    Writing the family f[v] = series of v*w0, applying pi_i to every component
    must equal multiplication by (eps_{s_i} + 1) in the algebra with relations
    eps_{s_i} eps_v = eps_{s_i v} when the length goes up and -eps_v when it
    goes down.
    """
    w0 = Permutation.longest(group_n)
    by_w = {w.core: s for w, s in descent_walk(group_n, direct_carry(group_n, D))}
    fam = {v.core: by_w[(v * w0).core] for v in all_permutations(group_n)}
    out = []
    for i in range(1, group_n):
        mult: dict[tuple[int, ...], SparsePoly] = {
            core: SparsePoly.zero() for core in fam
        }
        for v in all_permutations(group_n):
            if v.is_ascent(i):  # at a descent, -eps_v + eps_v cancel
                sv = v.left_mul_s(i)
                mult[sv.core] = mult[sv.core] + fam[v.core]
                mult[v.core] = mult[v.core] + fam[v.core]
        applied = {core: pi(i, f) for core, f in fam.items()}
        ok = applied == mult
        out.append(
            FormCheck(
                f"s_{i}", group_n, D, False, ok,
                "" if ok else "componentwise pi disagrees with algebra action",
            )
        )
    return out


# -- the xi-linear slice of the numerator ---------------------------------------


def lascoux_linear_part(w: Permutation) -> SparsePoly:
    """The coefficient of xi in the deformed numerator, a T-linear polynomial,
    by its closed form: for each level l, a candidate set alpha of size l+1
    contributes (c - 1) xi x^alpha T_l where c counts the members j of alpha
    with alpha minus j still a bounded ascending sequence at level l.
    """
    total: dict[Monomial, int] = {}
    for l in range(1, max(len(w.core), 1)):
        seqs = enum_A(w, l)
        if len(seqs) <= 1:
            continue
        seq_set = set(seqs)
        tvec = (0,) * (l - 1) + (1,)
        candidates = set()
        for a in seqs:
            sa = set(a)
            for b in seqs:
                if len(sa.union(b)) == l + 1:
                    candidates.add(tuple(sorted(sa.union(b))))
        for alpha in candidates:
            count = sum(
                1
                for j in alpha
                if tuple(v for v in alpha if v != j) in seq_set
            )
            if count > 1:
                key = (x_exps(alpha), tvec, 1)
                total[key] = total.get(key, 0) + (count - 1)
    return SparsePoly(total)


def suite_pxiw1(group_n: int) -> ScanOutcome:
    """The closed xi-linear slice equals the inductive one (the xi-linear,
    T-linear slice of the xi-mode P_w at tmax=1) for every w in S_n."""

    def one(w: Permutation, p: SparsePoly):
        ok = lascoux_linear_part(w) == p.t_slice(1).xi_slice(1)
        return _check_findings(
            w, [] if ok else ["closed xi-linear slice disagrees with induction"]
        )

    return sweep("pxiw1", group_n, one, numerator_carry(True, 1))
