"""Multiset sums of bounded increasing sequences and their presentation sets.

A sum eta of a length-l and a length-k bounded sequence is a multiset with
multiplicities at most 2, written as a sorted tuple with repeats, e.g.
(1, 1, 2, 3, 4).  ``enum_Btilde`` lists all such sums; an eta lies in the
distinguished subset B when it has at least two essentially distinct
presentations (unordered when k = l).  ``enum_B`` selects B by the cheap
criterion |eta_2| < k - [k = l], which the test suite verifies against a
count of presentations by direct double enumeration.

A triple sum tau of levels p <= k <= l lies in C_{p,k,l} when each of its
three partial sums can land in the matching B.  Each member of B is itself a
pair sum, so C_{p,k,l} is the intersection of the three sum sets
B_{k,l} + A_p, B_{p,l} + A_k and B_{p,k} + A_l, which is how ``enum_C``
builds it.

B-tilde, B and C are built and memoised as packed x-monomial keys
(``poly.multiset_key``), where a multiset union is one integer add and
|eta_2| is one bit count (``doubled``): ``packed_Btilde``, ``packed_B`` and
``packed_C``, keyed by the bounds ``w_upper(w, m)`` of their levels, through
which alone they depend on w.  Each holds its keys in the order of their
sorted tuples; ``enum_Btilde``, ``enum_B`` and ``enum_C`` decode them to
those tuples.  ``sum_seqs`` is the tuple form of the same union, kept for
``enum_Ctilde``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bseq import AscSeq, a_keys, enum_A, enum_A_set, w_upper
from .config import InvariantError
from .permutation import Permutation
from .poly import FIELD_BITS, NVARS, key_multisets

__all__ = [
    "EtaMultiSet",
    "PresentationSet",
    "ExtremalPresentation",
    "sum_seqs",
    "eta_parts",
    "eta_minus",
    "doubled",
    "enum_Btilde",
    "enum_B",
    "packed_Btilde",
    "packed_B",
    "restricted_A",
    "restricted_max",
    "extremal_presentation",
    "presentations",
    "presentations_direct",
    "enum_C",
    "enum_Ctilde",
    "packed_C",
]

# Sorted tuple with repeats; multiplicity of each value at most 2 in the
# two-summand world, at most 3 in the three-summand world.
EtaMultiSet = tuple[int, ...]


def sum_seqs(*seqs: AscSeq) -> EtaMultiSet:
    """Multiset union of sorted sequences or multisets, as a sorted tuple."""
    merged: list[int] = []
    for s in seqs:
        merged.extend(s)
    merged.sort()
    return tuple(merged)


def eta_parts(eta: EtaMultiSet) -> tuple[AscSeq, AscSeq]:
    """(eta_1, eta_2): the simple part and the doubled part.

    Raises if any value has multiplicity above 2.
    """
    ones: list[int] = []
    twos: list[int] = []
    for v, grp in itertools.groupby(eta):
        m = len(list(grp))
        if m == 1:
            ones.append(v)
        elif m == 2:
            twos.append(v)
        else:
            raise ValueError(f"multiplicity {m} > 2 for value {v} in {eta}")
    return tuple(ones), tuple(twos)


def eta_minus(eta: EtaMultiSet, alpha: AscSeq) -> EtaMultiSet:
    """Remove one copy of each entry of alpha from eta."""
    rest = list(eta)
    for v in alpha:
        try:
            rest.remove(v)
        except ValueError:
            raise ValueError(f"{alpha} is not contained in {eta}") from None
    return tuple(rest)


def _contains(eta: EtaMultiSet, sub: EtaMultiSet) -> bool:
    it = iter(eta)
    return all(any(v == u for u in it) for v in sub)


# Keyed by the bounds w_upper(w, m) of the levels involved, smallest level
# first.  Each holds packed x-keys in the order of their sorted tuples; C's
# dict keys also serve membership.
_BTILDE_CACHE: dict[tuple[tuple[int, ...], ...], tuple[int, ...]] = {}
_B_CACHE: dict[tuple[tuple[int, ...], ...], tuple[int, ...]] = {}
_C_CACHE: dict[tuple[tuple[int, ...], ...], dict[int, None]] = {}

_UNITS = sum(1 << (FIELD_BITS * f) for f in range(NVARS))
_X_BYTES = (FIELD_BITS * NVARS + 7) // 8


def doubled(eta: int) -> int:
    """|eta_2|, the number of doubled values, of a packed x-key whose fields
    are at most 2: one bit count, over the second bit of each field."""
    return ((eta >> 1) & _UNITS).bit_count()


def _decoded(key: int) -> EtaMultiSet:
    """The multiset of a packed x-key, as its sorted tuple."""
    return key_multisets(key)[0]


def _in_tuple_order(keys) -> list[int]:
    """Packed keys of equal-size multisets, ordered as their sorted tuples.

    Where two such tuples first differ, the one with more copies of the
    smallest value where their counts differ comes first: the order is the
    fields from x_1 up, descending.  While every field is below 16 (counts
    here are at most 3) it lies whole in one byte or high nibble of the
    key's little-endian bytes, which therefore compare the fields in that
    order, without a decode.
    """
    return sorted(keys, key=lambda key: key.to_bytes(_X_BYTES, "little"), reverse=True)


def packed_Btilde(k_bound: tuple[int, ...], l_bound: tuple[int, ...]) -> tuple[int, ...]:
    """The sums alpha + beta over the sequences bounded by l_bound and by
    k_bound, as packed keys in tuple order."""
    key = (k_bound, l_bound)
    cached = _BTILDE_CACHE.get(key)
    if cached is None:
        betas = a_keys(k_bound)
        cached = _BTILDE_CACHE[key] = tuple(
            _in_tuple_order({alpha + beta for alpha in a_keys(l_bound) for beta in betas})
        )
    return cached


def packed_B(k_bound: tuple[int, ...], l_bound: tuple[int, ...]) -> tuple[int, ...]:
    """The members of ``packed_Btilde`` with |eta_2| < k - [k = l], in its order."""
    key = (k_bound, l_bound)
    cached = _B_CACHE.get(key)
    if cached is None:
        k = len(k_bound)
        cap = k - (k == len(l_bound))
        cached = _B_CACHE[key] = tuple(
            eta for eta in packed_Btilde(k_bound, l_bound)
            if doubled(eta) < cap
        )
    return cached


def packed_C(p_bound: tuple[int, ...], k_bound: tuple[int, ...],
             l_bound: tuple[int, ...]) -> dict[int, None]:
    """C_{p,k,l} for the bounds of its three levels: the intersection of
    B_{k,l} + A_p, B_{p,l} + A_k and B_{p,k} + A_l, each an integer sum, as a
    dict of packed keys in tuple order."""
    key = (p_bound, k_bound, l_bound)
    cached = _C_CACHE.get(key)
    if cached is None:
        common = set.intersection(*(
            {eta + gamma for eta in packed_B(a, b) for gamma in a_keys(m)}
            for a, b, m in ((k_bound, l_bound, p_bound), (p_bound, l_bound, k_bound),
                            (p_bound, k_bound, l_bound))
        ))
        cached = _C_CACHE[key] = dict.fromkeys(_in_tuple_order(common))
    return cached


def enum_Btilde(w: Permutation, k: int, l: int) -> tuple[EtaMultiSet, ...]:
    """All sums alpha + beta with alpha of level l and beta of level k, sorted."""
    if not 1 <= k <= l:
        raise ValueError(f"need 1 <= k <= l, got k={k}, l={l}")
    return tuple(map(_decoded, packed_Btilde(w_upper(w, k), w_upper(w, l))))


def enum_B(w: Permutation, k: int, l: int) -> tuple[EtaMultiSet, ...]:
    """The members of ``enum_Btilde`` with at least two essentially distinct
    presentations, via the cheap criterion."""
    if not 1 <= k <= l:
        raise ValueError(f"need 1 <= k <= l, got k={k}, l={l}")
    return tuple(map(_decoded, packed_B(w_upper(w, k), w_upper(w, l))))


def restricted_A(w: Permutation, m: int, eta: EtaMultiSet) -> tuple[AscSeq, ...]:
    """Level-m sequences squeezed between the doubled part and the support."""
    _, eta2 = eta_parts(eta)
    support = frozenset(eta)
    need = frozenset(eta2)
    return tuple(
        alpha
        for alpha in enum_A(w, m)
        if need <= set(alpha) <= support
    )


def restricted_max(w: Permutation, m: int, eta: EtaMultiSet) -> AscSeq | None:
    """The entrywise maximum of ``restricted_A``; None when the set is empty.

    A unique maximum always exists when the set is non-empty; this is checked
    and a violation raises ``InvariantError`` (it would falsify an upstream
    structural fact).
    """
    cands = restricted_A(w, m, eta)
    if not cands:
        return None
    best = max(cands)
    for alpha in cands:
        if any(a > b for a, b in zip(alpha, best)):
            raise InvariantError(
                f"no entrywise maximum among {cands} (lex max {best} fails)"
            )
    return best


@dataclass(frozen=True)
class ExtremalPresentation:
    """The four extremal summands of eta at levels (k, l).

    ``alpha_max`` is the largest level-l candidate, ``beta_min`` its multiset
    complement in eta; ``beta_max`` the largest level-k candidate, ``alpha_min``
    its complement.  ``in_Btilde`` records whether the complements are
    themselves bounded sequences, which happens for both or neither.
    """

    eta: EtaMultiSet
    k: int
    l: int
    alpha_max: AscSeq
    beta_min: AscSeq
    beta_max: AscSeq
    alpha_min: AscSeq
    in_Btilde: bool


def extremal_presentation(
    w: Permutation, k: int, l: int, eta: EtaMultiSet
) -> ExtremalPresentation | None:
    """Extremal summand data for eta, or None when either restricted set is empty."""
    if len(eta) != k + l:
        raise ValueError(f"size mismatch: |eta| = {len(eta)} != k + l = {k + l}")
    alpha_max = restricted_max(w, l, eta)
    beta_max = restricted_max(w, k, eta)
    if alpha_max is None or beta_max is None:
        return None
    beta_min = eta_minus(eta, alpha_max)
    alpha_min = eta_minus(eta, beta_max)
    beta_min_ok = beta_min in enum_A_set(w, k)
    alpha_min_ok = alpha_min in enum_A_set(w, l)
    if beta_min_ok != alpha_min_ok:
        raise InvariantError(
            f"complement membership disagrees for {eta}: "
            f"beta_min {beta_min} vs alpha_min {alpha_min}"
        )
    return ExtremalPresentation(
        eta=eta,
        k=k,
        l=l,
        alpha_max=alpha_max,
        beta_min=beta_min,
        beta_max=beta_max,
        alpha_min=alpha_min,
        in_Btilde=beta_min_ok,
    )


@dataclass(frozen=True)
class PresentationSet:
    """All presentations of eta as a level-l plus a level-k sequence.

    Pairs are (alpha, beta) with alpha at level l; for k = l each unordered
    presentation is stored once, larger component first.
    """

    eta: EtaMultiSet
    k: int
    l: int
    pairs: tuple[tuple[AscSeq, AscSeq], ...]

    @property
    def count(self) -> int:
        return len(self.pairs)


def _canonical_pairs(
    k: int, l: int, raw: set[tuple[AscSeq, AscSeq]]
) -> tuple[tuple[AscSeq, AscSeq], ...]:
    if k == l:
        raw = {(max(a, b), min(a, b)) for a, b in raw}
    return tuple(sorted(raw))


def presentations(w: Permutation, k: int, l: int, eta: EtaMultiSet) -> PresentationSet:
    """Presentation set via the extremal interval.

    Every candidate beta with the doubled part inside it, support inside eta,
    and beta_min <= beta <= beta_max entrywise is a valid summand; this is the
    fast route, cross-checked against ``presentations_direct`` by the tests.
    """
    ext = extremal_presentation(w, k, l, eta)
    if ext is None or not ext.in_Btilde:
        return PresentationSet(eta=eta, k=k, l=l, pairs=())
    eta1, eta2 = eta_parts(eta)
    lo, hi = ext.beta_min, ext.beta_max
    raw: set[tuple[AscSeq, AscSeq]] = set()
    for extra in itertools.combinations(eta1, k - len(eta2)):
        beta = tuple(sorted(eta2 + extra))
        if all(a <= b <= c for a, b, c in zip(lo, beta, hi)):
            raw.add((eta_minus(eta, beta), beta))
    return PresentationSet(eta=eta, k=k, l=l, pairs=_canonical_pairs(k, l, raw))


def presentations_direct(
    w: Permutation, k: int, l: int, eta: EtaMultiSet
) -> PresentationSet:
    """Presentation set by scanning all summand pairs (the oracle route)."""
    if len(eta) != k + l:
        raise ValueError(f"size mismatch: |eta| = {len(eta)} != k + l = {k + l}")
    betas = enum_A_set(w, k)
    raw: set[tuple[AscSeq, AscSeq]] = set()
    for alpha in enum_A(w, l):
        if not _contains(eta, alpha):
            continue
        beta = eta_minus(eta, alpha)
        if any(a >= b for a, b in zip(beta, beta[1:])):
            continue
        if beta in betas:
            raw.add((alpha, beta))
    return PresentationSet(eta=eta, k=k, l=l, pairs=_canonical_pairs(k, l, raw))


def enum_Ctilde(w: Permutation, p: int, k: int, l: int) -> tuple[EtaMultiSet, ...]:
    """All triple sums at levels (p, k, l), sorted."""
    if not 1 <= p <= k <= l:
        raise ValueError(f"need 1 <= p <= k <= l, got {(p, k, l)}")
    sums = {
        sum_seqs(alpha, beta, gamma)
        for alpha in enum_A(w, l)
        for beta in enum_A(w, k)
        for gamma in enum_A(w, p)
    }
    return tuple(sorted(sums))


def enum_C(w: Permutation, p: int, k: int, l: int) -> tuple[EtaMultiSet, ...]:
    """Triple sums each of whose three partial sums lands in the matching B.

    The three requirements may be witnessed by different presentations of the
    same tau.  Every member of B is itself a sum, so tau qualifies exactly
    when it lies in each of B_{k,l} + A_p, B_{p,l} + A_k and B_{p,k} + A_l
    (``packed_C``); the result is that intersection, sorted.
    """
    if not 1 <= p <= k <= l:
        raise ValueError(f"need 1 <= p <= k <= l, got {(p, k, l)}")
    return tuple(map(_decoded, packed_C(w_upper(w, p), w_upper(w, k), w_upper(w, l))))
