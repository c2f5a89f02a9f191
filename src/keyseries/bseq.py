"""Strictly increasing sequences bounded entrywise by sorted permutation prefixes.

For a permutation w and a length l, the bound is the sorted tuple of the first
l one-line values of w, and ``enum_A(w, l)`` lists every strictly increasing
l-tuple that is entrywise at most that bound.  Everything here depends on w
only through that bound, which is what the cache keys on.

Levels l beyond the one-line word are allowed (values behave as fixed points),
because ascent-step bookkeeping needs them even for the identity.

``a_keys(bound)`` holds the same sets as packed x-monomial keys
(``poly.multiset_key``), the form that the multiset sums and the numerator
induction work in: a multiset union is one integer add.
"""

from __future__ import annotations

from .permutation import Permutation
from .poly import multiset_key

__all__ = [
    "AscSeq",
    "w_upper",
    "enum_A",
    "enum_A_set",
    "a_keys",
    "split_A",
    "si_image",
    "moved_levels",
    "format_seq",
]

# A strictly increasing tuple of positive integers.
AscSeq = tuple[int, ...]

# Both keyed by the bound: the sequences, and their packed x-keys.
_A_CACHE: dict[tuple[int, ...], tuple[AscSeq, ...]] = {}
_A_SET_CACHE: dict[tuple[int, ...], frozenset[int]] = {}


def w_upper(w: Permutation, l: int) -> tuple[int, ...]:
    """The sorted first l one-line values of w (fixed points beyond rank n)."""
    if l < 1:
        raise ValueError(f"level must be >= 1, got {l}")
    n = w.n
    prefix = w.values[:l] + tuple(range(n + 1, l + 1))
    return tuple(sorted(prefix))


def enum_A(w: Permutation, l: int) -> tuple[AscSeq, ...]:
    """All strictly increasing l-tuples entrywise bounded by ``w_upper(w, l)``.

    Lexicographically sorted.  The identity bound (1..l) gives the singleton.
    """
    return _bounded(w_upper(w, l))


def _bounded(bound: tuple[int, ...]) -> tuple[AscSeq, ...]:
    """enum_A for a bound, memoised on it."""
    l = len(bound)
    cached = _A_CACHE.get(bound)
    if cached is not None:
        return cached
    out: list[AscSeq] = []
    seq = [0] * l

    def extend(j: int, lo: int) -> None:
        if j == l:
            out.append(tuple(seq))
            return
        for v in range(lo, bound[j] + 1):
            seq[j] = v
            extend(j + 1, v + 1)

    extend(0, 1)
    result = tuple(out)
    _A_CACHE[bound] = result
    return result


def enum_A_set(w: Permutation, l: int) -> frozenset[AscSeq]:
    """``enum_A`` as a set, for membership tests on sequences (not memoised)."""
    return frozenset(enum_A(w, l))


def a_keys(bound: tuple[int, ...]) -> frozenset[int]:
    """The packed x-keys (``poly.multiset_key``) of the sequences bounded by
    ``bound``, one level's members for sums and membership, memoised on it."""
    cached = _A_SET_CACHE.get(bound)
    if cached is None:
        cached = _A_SET_CACHE[bound] = frozenset(map(multiset_key, _bounded(bound)))
    return cached


def si_image(i: int, alpha: AscSeq) -> AscSeq:
    """The transposition i <-> i+1 applied to the underlying set, re-sorted."""
    if i < 1:
        raise IndexError(f"letter must be >= 1, got {i}")
    has_i = i in alpha
    has_next = i + 1 in alpha
    if has_i == has_next:
        return alpha
    if has_i:
        return tuple(sorted(i + 1 if v == i else v for v in alpha))
    return tuple(sorted(i if v == i + 1 else v for v in alpha))


def split_A(w: Permutation, l: int, i: int) -> tuple[tuple[AscSeq, ...], tuple[AscSeq, ...]]:
    """Split the level-l sequences into (fixed, moved) under the letter i.

    A sequence is *moved* when its i <-> i+1 image leaves the level set.  The
    moved part is non-empty exactly when i is an ascent of w and the level l
    lies in ``moved_levels(w, i)``.
    """
    if i < 1:
        raise IndexError(f"letter must be >= 1, got {i}")
    seqs = enum_A(w, l)
    members = enum_A_set(w, l)
    fixed: list[AscSeq] = []
    moved: list[AscSeq] = []
    for alpha in seqs:
        (fixed if si_image(i, alpha) in members else moved).append(alpha)
    return tuple(fixed), tuple(moved)


def moved_levels(w: Permutation, i: int) -> range:
    """Levels l whose moved part under the letter i can be non-empty.

    Empty unless i sits before i+1 in w; otherwise the half-open interval
    from the position of i to the position of i+1.
    """
    if i < 1:
        raise IndexError(f"letter must be >= 1, got {i}")
    lo, hi = w.position(i), w.position(i + 1)
    return range(lo, hi) if lo < hi else range(0)


def format_seq(alpha: tuple[int, ...]) -> str:
    """A sorted index tuple as text: '245', or '2,4,11' once an entry passes 9."""
    if alpha and alpha[-1] > 9:
        return ",".join(str(v) for v in alpha)
    return "".join(str(v) for v in alpha)
