"""Permutations of {1..n} in one-line notation.

Simple transpositions act by *left* multiplication: ``s_i * w`` swaps the
values i and i+1 wherever they sit in the one-line word.  Two permutations
that differ only by trailing fixed points compare equal, so S_n sits inside
S_{n+1} transparently; ``n`` remembers the rank an object was built with.

Every value indexed by w (the numerator P_w, a key polynomial, a key
series) is a ``Carry`` folded down the tree of first left descents: the
parent of w is s_i w for i the first left descent of w, so the tree spans the
weak order and is rooted at the identity.  ``descent_walk`` folds all of S_n
depth first, holding only the values on the current root-to-w path;
``chain_value`` folds one w's chain, optionally through a memo.  If
``cover_mismatches`` finds no cover off the tree where a carry's step fails,
every reduced word gives the tree's value (the word property); it climbs the
value at each such cover up to the walk's path, seeded as a memo.  ``sweep``,
the one loop over a whole S_n, runs a function of one permutation on every w
of the walk and gathers findings and counts into a ``ScanOutcome`` in
one-line order.  Every check, scan and verify suite is run by it.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from .config import ResourceCapError

__all__ = [
    "Permutation",
    "all_permutations",
    "parse_permutation",
    "Findings",
    "ScanOutcome",
    "descent_walk",
    "chain_value",
    "cover_mismatches",
    "sweep",
]


def _trim_fixed_tail(values: tuple[int, ...]) -> tuple[int, ...]:
    k = len(values)
    while k and values[k - 1] == k:
        k -= 1
    return values[:k]


class Permutation:
    """An element of S_n, stored in one-line notation (1-based values)."""

    __slots__ = ("values", "core", "_inv", "_hash")

    def __init__(self, values: Iterable[int]):
        vals = tuple(values)
        if sorted(vals) != list(range(1, len(vals) + 1)):
            raise ValueError(f"not a one-line word on 1..{len(vals)}: {vals!r}")
        self.values = vals
        self.core = _trim_fixed_tail(vals)
        self._inv: tuple[int, ...] | None = None
        self._hash: int | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        """Ambient rank: the n this object was constructed in."""
        return len(self.values)

    def __call__(self, j: int) -> int:
        """w(j), with w(j) = j beyond the ambient rank."""
        if j < 1:
            raise IndexError(f"positions are 1-based, got {j}")
        return self.values[j - 1] if j <= len(self.values) else j

    def position(self, v: int) -> int:
        """w^{-1}(v), with fixed points beyond the ambient rank."""
        if v < 1:
            raise IndexError(f"values are 1-based, got {v}")
        inv = self._inv
        if inv is None:
            inv = [0] * len(self.values)
            for p, val in enumerate(self.values, start=1):
                inv[val - 1] = p
            inv = self._inv = tuple(inv)
        return inv[v - 1] if v <= len(inv) else v

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self*other)(j) = self(other(j))."""
        m = max(self.n, other.n)
        return Permutation(tuple(self(other(j)) for j in range(1, m + 1)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.core == other.core

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.core)
        return h

    def __repr__(self) -> str:
        return f"Permutation({self.one_line()!r})"

    def one_line(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.values) or "1"
        return ",".join(str(v) for v in self.values)

    # -- Coxeter structure -------------------------------------------------

    def length(self) -> int:
        """Number of inversions (Coxeter length)."""
        core = self.core
        return sum(
            1
            for a in range(len(core))
            for b in range(a + 1, len(core))
            if core[a] > core[b]
        )

    def is_ascent(self, i: int) -> bool:
        """True iff l(s_i w) = l(w) + 1, i.e. iff i sits before i+1 in w.

        Valid for 1 <= i < n; letters beyond the one-line word are rejected
        to keep callers honest about the rank they sweep.
        """
        if not 1 <= i < self.n:
            raise IndexError(f"letter {i} out of range for rank {self.n}")
        return self.position(i) < self.position(i + 1)

    def left_mul_s(self, i: int) -> "Permutation":
        """s_i * w: swap the values i and i+1.  i = n extends the rank by 1."""
        if not 1 <= i <= self.n:
            raise IndexError(f"letter {i} out of range for rank {self.n}")
        vals = self.values if i < self.n else self.values + (self.n + 1,)
        swapped = tuple(
            i + 1 if v == i else i if v == i + 1 else v for v in vals
        )
        return Permutation(swapped)

    def left_descents(self) -> tuple[int, ...]:
        core = self.core
        return tuple(
            i for i in range(1, len(core)) if self.position(i) > self.position(i + 1)
        )

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word: repeatedly peel the smallest left descent.

        Returns (i_1, ..., i_r) with w = s_{i_1} s_{i_2} ... s_{i_r}.
        """
        return self._greedy_word(smallest=True)

    def reduced_word_alt(self) -> tuple[int, ...]:
        """Greedy largest-descent reduced word.

        Differs from :meth:`reduced_word` exactly when w has more than one
        reduced word (a unique greedy choice at every step forces uniqueness).
        """
        return self._greedy_word(smallest=False)

    def _greedy_word(self, smallest: bool) -> tuple[int, ...]:
        word: list[int] = []
        w = self
        while w.core:
            descents = w.left_descents()
            i = descents[0] if smallest else descents[-1]
            word.append(i)
            w = w.left_mul_s(i)
        return tuple(word)

    @classmethod
    def identity(cls, n: int = 1) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """w_0 in S_n."""
        return cls(range(n, 0, -1))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    for vals in itertools.permutations(range(1, n + 1)):
        yield Permutation(vals)


# The fields of a packed finding row, low bits first: the claim (an index
# into the claims), the levels id and the tau id (indices into the tables),
# and m, signed, in the bits above them.
_LEVELS_SHIFT, _TAU_SHIFT, _M_SHIFT = 1, 13, 40
_LEVELS_MASK = (1 << (_TAU_SHIFT - _LEVELS_SHIFT)) - 1
_TAU_MASK = (1 << (_M_SHIFT - _TAU_SHIFT)) - 1
_M_LIMIT = 1 << (63 - _M_SHIFT)


class Findings(Sequence):
    """Read-only findings of a claim check, held as packed rows.

    Each finding is the dict ``{"claim", "w", "levels", "tau", "m"}``, in that
    key order, with ``levels`` a tuple and ``m`` an int.  Rows are kept in
    per-w blocks, each the w text and an ``array('q')`` of ints packed by
    ``pack``; the claims, the levels tuples and the tau texts are decode
    tables shared by every block of one sweep, which the scan fills as it
    goes.  A finding is decoded only when it is read: iteration and indexing
    yield fresh dicts, ``[:k]`` decodes k rows, and ``==`` against a list
    compares the decoded dicts.  ``rows()`` yields the field values, in key
    order, for the report encoder.
    """

    KEYS = ("claim", "w", "levels", "tau", "m")
    __slots__ = ("claims", "levels", "taus", "_blocks", "_ends")
    __hash__ = None

    def __init__(self, claims: tuple[str, str], levels: list[tuple[int, ...]] | None = None,
                 taus: list[str] | None = None):
        self.claims = claims
        self.levels = [] if levels is None else levels
        self.taus = [] if taus is None else taus
        self._blocks: list[tuple[str, array]] = []
        self._ends: list[int] = []  # the row count up to the end of each block

    def pack(self, claim: int, levels_id: int, tau_id: int, m: int) -> int:
        """One row: claim (0 or 1) and the ids of its levels and tau texts."""
        if levels_id > _LEVELS_MASK or tau_id > _TAU_MASK or not -_M_LIMIT <= m < _M_LIMIT:
            raise ResourceCapError("a finding does not fit its packed row")
        return (m << _M_SHIFT) | (tau_id << _TAU_SHIFT) | (levels_id << _LEVELS_SHIFT) | claim

    def block(self, w_text: str, rows: array) -> "Findings":
        """The findings of one w: its rows, over this object's tables."""
        out = Findings(self.claims, self.levels, self.taus)
        if rows:
            out._blocks.append((w_text, rows))
            out._ends.append(len(rows))
        return out

    def extend(self, other: "Findings") -> None:
        """Append the blocks of other, over the same tables, undecoded."""
        if not isinstance(other, Findings) or other.taus is not self.taus:
            raise TypeError("only findings over the same tables join")
        total = len(self)
        for w_text, rows in other._blocks:
            total += len(rows)
            self._blocks.append((w_text, rows))
            self._ends.append(total)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _packed(self) -> Iterator[tuple[str, int]]:
        for w_text, rows in self._blocks:
            for row in rows:
                yield w_text, row

    def _values(self, w_text: str, row: int) -> tuple:
        return (self.claims[row & 1], w_text, self.levels[(row >> _LEVELS_SHIFT) & _LEVELS_MASK],
                self.taus[(row >> _TAU_SHIFT) & _TAU_MASK], row >> _M_SHIFT)

    def _decode(self, w_text: str, row: int) -> dict:
        return dict(zip(self.KEYS, self._values(w_text, row)))

    def rows(self) -> Iterator[tuple]:
        """Each finding's field values, in KEYS order."""
        values = self._values
        for w_text, row in self._packed():
            yield values(w_text, row)

    @staticmethod
    def value(field):
        """The JSON value of a field that rows() yields: the field itself."""
        return field

    def __iter__(self) -> Iterator[dict]:
        decode = self._decode
        for w_text, row in self._packed():
            yield decode(w_text, row)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step < 0:
                return [self[i] for i in range(start, stop, step)]
            return [self._decode(*pair)
                    for pair in itertools.islice(self._packed(), start, stop, step)]
        size = len(self)
        if not -size <= index < size:
            raise IndexError("findings index out of range")
        index %= size
        b = bisect_right(self._ends, index)
        w_text, rows = self._blocks[b]
        return self._decode(w_text, rows[index - (self._ends[b - 1] if b else 0)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Findings, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<Findings: {len(self)} rows in {len(self._blocks)} blocks>"


@dataclass
class ScanOutcome:
    name: str
    n: int
    # a list of finding dicts, or packed Findings when the scan makes them
    counterexamples: list[dict] | Findings = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def merge(self, counterexamples: list[dict] | Findings, counts: dict[str, int]) -> None:
        """Append findings and add counts into stats, in place.  Packed
        findings join the outcome's blocks undecoded; the first of them turns
        an outcome with no findings yet into Findings over their tables."""
        found = self.counterexamples
        if isinstance(counterexamples, Findings) and type(found) is list and not found:
            found = self.counterexamples = Findings(
                counterexamples.claims, counterexamples.levels, counterexamples.taus)
        found.extend(counterexamples)
        for key, val in counts.items():
            self.stats[key] = self.stats.get(key, 0) + val


# A value carried down the descent tree: its value at the identity, and the
# step from the value at v to the value at s_i v, for an ascent i of v.
Carry = tuple[Any, Callable[[Any, Permutation, int], Any]]


def descent_walk(n: int, carry: Carry | None = None) -> Iterator[tuple[Permutation, Any]]:
    """Every w in S_n exactly once, with the carried value at w (None without
    a carry), depth first down the tree of first left descents.

    The children of v are the s_i v, for i an ascent of v that is also the
    first left descent of s_i v.  With p = v^{-1} those are the i with
    p(1) < ... < p(i-1) < p(i+1) and p(i) < p(i+1).  A child's value is
    computed from its parent's when the walk descends, so only the root-to-w
    path is held.
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    root, step = carry if carry is not None else (None, lambda value, v, i: None)

    def visit(v: Permutation, value: Any) -> Iterator[tuple[Permutation, Any]]:
        yield v, value
        p = [0] + [v.position(j) for j in range(1, n + 1)]
        for i in range(1, n):
            if p[i - 1] < p[i + 1] > p[i]:
                yield from visit(v.left_mul_s(i), step(value, v, i))
            if p[i - 1] > p[i]:
                break  # p(1) < ... < p(i) fails from here on

    yield from visit(Permutation.identity(n), root)


def chain_value(w: Permutation, carry: Carry, memo: dict | None = None, tag: Any = ()) -> Any:
    """The carried value at w, stepped from the identity down w's chain of
    first left descents (the path ``descent_walk`` takes to w).  The value
    at every v on the chain is stored in memo under (tag, v.core), and the
    climb from w stops at the first value held, so calls sharing a memo
    share their chains' prefixes."""
    root, step = carry
    memo = {} if memo is None else memo
    letters, v = [], w  # the first left descents from w up to v
    while (tag, v.core) not in memo and v.core:
        letters.append(v.left_descents()[0])
        v = v.left_mul_s(letters[-1])
    value = memo.setdefault((tag, v.core), root)
    for i in reversed(letters):
        value = step(value, v, i)
        v = v.left_mul_s(i)
        memo[(tag, v.core)] = value
    return value


def cover_mismatches(path: list[tuple[Permutation, Any]], carry: Carry) -> list[int]:
    """The ascents i of w off the tree (not the first left descent of s_i w)
    where the carry's step from w's value is not the value at s_i w, climbed up
    to path, the walk's root-to-w (v, value) list: each climb gets a memo of
    path, so it holds at most 2 * length(w) + 2 values."""
    (w, value), step = path[-1], carry[1]
    return [i for i in range(1, w.n) if w.is_ascent(i)
            and (sw := w.left_mul_s(i)).left_descents()[0] != i
            and step(value, w, i) != chain_value(
                sw, carry, {((), v.core): held for v, held in path})]


def sweep(
    name: str, n: int, per_w: Callable[..., tuple[list[dict], dict[str, int]]],
    carry: Carry | None = None,
) -> ScanOutcome:
    """Run per_w on every w in S_n: per_w(w), or per_w(w, value) with the
    carried value at w when a carry is given.

    per_w returns the findings for w and its counts.  The walk visits w in
    tree order; the findings and counts are kept per w and gathered at the
    end in one-line order, findings in that order and counts summed into the
    outcome's stats.
    """
    results = {}
    for w, value in descent_walk(n, carry):
        results[w.values] = per_w(w) if carry is None else per_w(w, value)
    out = ScanOutcome(name, n)
    for key in sorted(results):
        out.merge(*results[key])
    return out


def parse_permutation(text: str) -> Permutation:
    """Parse '42531' (single digits) or '4,2,5,3,1'."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        vals = [int(part) for part in text.split(",")]
    else:
        if not text.isdigit():
            raise ValueError(f"cannot parse permutation {text!r}")
        vals = [int(ch) for ch in text]
    return Permutation(vals)
