"""Sparse exact-integer polynomials in x_1..x_9, block variables T_1..T_9,
and a single deformation variable xi.

The T_l are atomic generators (a block T_l stands for the product t_1...t_l of
underlying torus variables, but is never expanded).  Coefficients are Python
ints, so arithmetic is exact at any size.  A monomial is one packed ``int``
of ``FIELD_BITS``-bit exponent fields: from the low end x_1..x_9, xi, T_1..T_9,
and on top the total T-degree, so a monomial product is one integer add and
``key >> TD_SHIFT`` is the T-degree.  Exponents are at most ``MAX_EXP``, which
keeps each field's top bit clear: a sum of two keys never carries between
fields, and a product, exponent or variable index that does not fit raises
``ResourceCapError``, never wraps.  The public surface speaks exponent tuples
``(x, t, xi)``; ``exponent_items`` and ``multiset_items`` decode each distinct
x-part and T-part once per call, in packed-key order.  ``render`` gives the
text form and the JSON terms from one sorted pass that joins each part from
its two halves (fields 1-3 and 4-9), each rendered once; the terms are a
``Terms`` row table over that pass's rows, which reads as a list of dicts and
which the report encoder writes from each part's JSON members.
``multiset_key`` and ``key_multisets`` convert between a key and the sorted
index multisets (eta, levels) of x^eta T^levels, the multiset layer's form.

The isobaric operators act on the x variables only:

    divided_difference(i, f) = (f - s_i f) / (x_i - x_{i+1})
    pi(i, f)                 = divided_difference(i, x_i * f)
    pi_xi(i, f)              = pi(i, (1 + xi * x_{i+1}) * f)

all implemented term by term: each term's (x_i, x_{i+1}) exponents (a, b)
select a packed closed one-pair formula, added to its key, so no rational
division ever happens.  There is one table of formulas, the divided
difference's; pi reads its row (a + 1, b).  The pair table
(``_apply_pair_table``) reads several sources into one output dict, each a
term dict times a monomial shift: pi being linear, pi of a sum is read from
its summands without adding them first, and pi_xi adds pi of each summand
shifted by xi * x_{i+1} into pi's dict.  No operation promises a storage
order; the decoded views sort the packed keys, so what they yield depends on
the value only.

Every product runs on one level split and one shifted update: ``_levels``
splits an operand by total T-degree, and ``_add_shifted`` adds c*m times one
level into another.  ``mul_trunc`` adds each term of the smaller operand times
each level of the larger within the bound.  ``series_quotient`` divides by a
product of binomials 1 - c*m truncated past a total T-degree, and
``series_product`` multiplies by a product of binomials 1 + c*m; both are one
pass per factor over the levels (``_levelled_pass``), ascending for the
quotient and descending for the product, never building the product or its
inverse.  ``pi_product`` gives pi_i(f * prod (1 + c*m)), the numerator
induction's step, with f's dict left untouched: the pass reads f's lower
levels as read-only sources and writes every update into per-level deltas,
and the pair table reads f and then each delta, so f's terms go through the
pair table's loop and one comprehension that takes the lower levels.  The
pass guards a shift in O(1) with a per-level OR bound of the keys: only when
bound + m has a guard bit set are the shifted keys themselves read.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache, reduce
from operator import or_

from .config import ResourceCapError

__all__ = [
    "FIELD_BITS", "MAX_EXP", "NVARS", "Monomial", "SparsePoly", "Terms", "divided_difference",
    "key_multisets", "multiset_key", "pi", "pi_product", "pi_xi", "pi_word",
    "series_inverse_product",
    "series_product", "series_quotient", "x_exps",
]

# (x exponents, T exponents, xi exponent); tuple index 0 holds x_1 / T_1, no trailing zeros.
Monomial = tuple[tuple[int, ...], tuple[int, ...], int]

FIELD_BITS = 12
NVARS = 9  # x_1..x_9 and T_1..T_9, matching config.ABSOLUTE_MAX_N
MAX_EXP = (1 << (FIELD_BITS - 1)) - 1
XI_SHIFT = NVARS * FIELD_BITS
T_SHIFT = XI_SHIFT + FIELD_BITS
TD_SHIFT = T_SHIFT + NVARS * FIELD_BITS
_FIELD = (1 << FIELD_BITS) - 1
_PART_BITS = NVARS * FIELD_BITS
_PART = (1 << _PART_BITS) - 1
_GUARD = sum(1 << (FIELD_BITS * f + FIELD_BITS - 1) for f in range(2 * NVARS + 2))
# a rendering splits a part into fields 1-3 and 4-9, and ranks it by its
# degree (below 2**16) above its _PART_BITS of reversed fields
_LOW_BITS = 3 * FIELD_BITS
_LOW = (1 << _LOW_BITS) - 1
_RANK_BITS = _PART_BITS + 16


def _pack_part(exps: Iterable[int], shift: int, name: str) -> int:
    part = 0
    for idx, e in enumerate(exps):
        if e:
            var = name if name == "xi" else f"{name}{idx + 1}"
            if e < 0:
                raise ValueError(f"negative exponent {e} of {var}")
            if e > MAX_EXP or idx >= NVARS:
                raise ResourceCapError(f"{var}^{e} does not fit a monomial field (exponents "
                                       f"to {MAX_EXP}, variables to x{NVARS}, T{NVARS})")
            part |= e << (shift + idx * FIELD_BITS)
    return part


def _pack(x: Iterable[int], t: Iterable[int], xi: int) -> int:
    t = tuple(t)
    td = sum(t)
    if td > MAX_EXP:
        raise ResourceCapError(f"total T-degree {td} exceeds {MAX_EXP}")
    return (_pack_part(x, 0, "x") | _pack_part((xi,), XI_SHIFT, "xi")
            | _pack_part(t, T_SHIFT, "T") | td << TD_SHIFT)


def _checked(key_or: int) -> None:
    """Raise if any key folded into key_or has a field past MAX_EXP."""
    if key_or & _GUARD:
        raise ResourceCapError(f"a product exponent exceeds {MAX_EXP}")


def _levels(terms: dict[int, int], D: int) -> list[dict[int, int]]:
    """terms split by total T-degree into levels 0..D, terms past D dropped.
    Level D starts as a copy of the terms and the lower terms are split off."""
    lo, hi = D << TD_SHIFT, (D + 1) << TD_SHIFT
    top = dict(terms)
    levels: list[dict[int, int]] = [{} for _ in range(D)]
    for k in [k for k in top if not lo <= k < hi]:
        c = top.pop(k)
        if k < lo:
            levels[k >> TD_SHIFT][k] = c
    levels.append(top)
    return levels


def _add_shifted(dst: dict[int, int], src: dict[int, int], m: int, coeff: int) -> None:
    """dst += coeff * m * src, one dict update per term, zero sums deleted.
    The caller checks src: a key with a field past MAX_EXP could carry."""
    get = dst.get
    for k, c in src.items():
        k += m
        s = get(k, 0) + coeff * c
        if s:
            dst[k] = s
        else:
            del dst[k]


def _unpack(part: int) -> tuple[int, ...]:
    """The fields of an x-part or T-part, trailing zero fields dropped."""
    out = []
    while part:
        out.append(part & _FIELD)
        part >>= FIELD_BITS
    return tuple(out)


def _unpack_multiset(part: int) -> tuple[int, ...]:
    """An x-part or T-part as a sorted multiset of indices (the inverse of x_exps)."""
    out: tuple[int, ...] = ()
    idx = 1
    while part:
        if part & _FIELD:
            out += (idx,) * (part & _FIELD)
        part >>= FIELD_BITS
        idx += 1
    return out


def multiset_key(eta: tuple[int, ...] = (), levels: tuple[int, ...] = ()) -> int:
    """The packed key of x^eta T^levels, both sorted index multisets: (1, 1, 3)
    is x1^2*x3.  The key of a sum of multisets is the sum of their keys."""
    return _pack(x_exps(eta), x_exps(levels), 0)


def key_multisets(key: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(eta, levels) of a xi-free packed key: the inverse of multiset_key."""
    return _unpack_multiset(key & _PART), _unpack_multiset((key >> T_SHIFT) & _PART)


class _Part:
    """One distinct x-part or T-part of a rendering: its packed fields, its
    text factors ("x1*x3^2", "" for no variable) and its JSON members
    ('"1": 1', '"3": 2').  It hashes by identity, as a rendering builds one
    per distinct part; its exponent tuple and dict are decoded when read."""

    __slots__ = ("part", "text", "members")

    def __init__(self, part: int, text: str, members: tuple[str, ...]):
        self.part, self.text, self.members = part, text, members

    @property
    def exps(self) -> tuple[int, ...]:
        return _unpack(self.part)

    @property
    def json(self) -> dict[str, int]:
        return {str(i): e for i, e in enumerate(self.exps, 1) if e}


def _half(half: int, first: int, name: str) -> tuple[str, tuple[str, ...], int, int]:
    """A half of a part, its fields from index first on: its text factors,
    JSON members, fields packed in reversed order (field 1 on top) and degree."""
    factors, members, rev, deg = [], [], 0, 0
    idx = first
    while half:
        if e := half & _FIELD:
            i = str(idx)
            factors.append(name + i if e == 1 else f"{name}{i}^{e}")
            members.append(f'"{i}": {e}')
            rev |= e << (FIELD_BITS * (NVARS - idx))
            deg += e
        half >>= FIELD_BITS
        idx += 1
    return "*".join(factors), tuple(members), rev, deg


def _text(rows) -> str:
    """The text form of _graded_rows."""
    chunks: list[str] = []
    for c, xpart, tpart, xi in rows:
        factors = [f for f in (xpart.text, tpart.text) if f]
        if xi:
            factors.append("xi" if xi == 1 else f"xi^{xi}")
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


class Terms(Sequence):
    """Read-only JSON terms of a polynomial, held as the rows of _graded_rows.

    Each term is the dict ``{"coeff", "x", "T", "xi"}``, in that key order,
    with the x and T exponents keyed by variable index.  A row is the
    coefficient, the ``_Part`` of its x-part and of its T-part (one shared
    object per distinct part) and the xi exponent.  A term is decoded only
    when it is read: iteration and indexing yield fresh dicts, so no two terms
    share a dict, and ``==`` against a list compares the decoded dicts.
    ``rows()`` yields the rows, in key order, for the report encoder, which
    keys its memo on each part by identity and reads a field's JSON text from
    ``field_text``.  ``json.dumps`` does not know the table; ``list`` of it does.
    """

    KEYS = ("coeff", "x", "T", "xi")
    __slots__ = ("_rows",)
    __hash__ = None

    def __init__(self, rows: list[tuple[int, _Part, _Part, int]]):
        self._rows = rows

    def rows(self) -> Iterator[tuple]:
        return iter(self._rows)

    @staticmethod
    def field_text(field, newline: str, encode) -> str:
        """The JSON text of a row field nested at newline: a part's members
        joined at newline, else the int's digits; no field needs encode."""
        if type(field) is not _Part:
            return int.__repr__(field)
        inner = newline + "  "
        members = ("," + inner).join(field.members)
        return "{" + inner + members + newline + "}" if members else "{}"

    @staticmethod
    def _decode(row: tuple) -> dict:
        c, xpart, tpart, xi = row
        return {"coeff": c, "x": xpart.json, "T": tpart.json, "xi": xi}

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict]:
        return map(self._decode, self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._decode(row) for row in self._rows[index]]
        return self._decode(self._rows[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Terms, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<Terms: {len(self)} rows>"


def x_exps(eta: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent tuple of the x-monomial indexed by a multiset such as (1,1,3)."""
    vec = [0] * max(eta, default=0)
    for v in eta:
        vec[v - 1] += 1
    return tuple(vec)


class SparsePoly:
    """Immutable-by-convention sparse polynomial with int coefficients.

    ``terms`` maps packed monomial keys to nonzero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None, _trusted: bool = False):
        """Build from a map of exponent triples; ``_trusted`` adopts a packed map."""
        if _trusted:
            self.terms: dict[int, int] = terms
        else:
            self.terms = {_pack(x, t, xi): c for (x, t, xi), c in (terms or {}).items() if c}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def one(cls) -> "SparsePoly":
        return cls({0: 1}, _trusted=True)

    @classmethod
    def term(cls, coeff: int = 1, x: tuple[int, ...] = (), t: tuple[int, ...] = (),
             xi: int = 0) -> "SparsePoly":
        return cls({_pack(x, t, xi): coeff} if coeff else {}, _trusted=True)

    @classmethod
    def from_key(cls, key: int, coeff: int = 1) -> "SparsePoly":
        """The single term coeff*m of a packed monomial key m (``multiset_key``)."""
        return cls({key: coeff} if coeff else {}, _trusted=True)

    @classmethod
    def x_var(cls, i: int) -> "SparsePoly":
        return cls.term(x=(0,) * (i - 1) + (1,))

    # -- ring structure -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = SparsePoly.term(coeff=other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):  # pragma: no cover - polynomials are not dict keys
        raise TypeError("SparsePoly is unhashable")

    def __add__(self, other: "SparsePoly | int") -> "SparsePoly":
        if isinstance(other, int):
            other = SparsePoly.term(coeff=other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SparsePoly(out, _trusted=True)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({k: -c for k, c in self.terms.items()}, _trusted=True)

    def __sub__(self, other: "SparsePoly | int") -> "SparsePoly":
        return self + (-other)

    def __rsub__(self, other: int) -> "SparsePoly":
        return SparsePoly.term(coeff=other) - self

    def __mul__(self, other: "SparsePoly | int") -> "SparsePoly":
        if isinstance(other, int):
            return SparsePoly({k: c * other for k, c in self.terms.items()} if other else {},
                              _trusted=True)
        return self.mul_trunc(other, None)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = SparsePoly.one()
        for _ in range(e):
            out = out * self
        return out

    def mul_trunc(self, other: "SparsePoly", tmax: int | None) -> "SparsePoly":
        """Product, discarding terms of total T-degree above tmax (None: exact)."""
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if tmax is None:
            tmax = (max(a, default=0) >> TD_SHIFT) + (max(b, default=0) >> TD_SHIFT)
        # b's terms by T-degree, so each term of a meets only the levels within tmax
        levels = _levels(b, min(tmax, max(b, default=0) >> TD_SHIFT))
        out: dict[int, int] = {}
        for ak, ac in a.items():
            for level in levels[: max(0, tmax + 1 - (ak >> TD_SHIFT))]:
                _add_shifted(out, level, ak, ac)
        _checked(reduce(or_, out, 0))
        return SparsePoly(out, _trusted=True)

    # -- degree slices ----------------------------------------------------

    def t_degree(self) -> int:
        """Largest total T-degree among terms (0 for the zero polynomial)."""
        return max(self.terms, default=0) >> TD_SHIFT

    def t_slice(self, d: int) -> "SparsePoly":
        lo, hi = d << TD_SHIFT, (d + 1) << TD_SHIFT
        return SparsePoly({k: c for k, c in self.terms.items() if lo <= k < hi},
                          _trusted=True)

    def t_strata(self, d: int) -> dict[int, dict[int, int]]:
        """The terms of total T-degree d grouped by T-monomial: the packed key
        of the bare T-monomial -> {the rest of the key (x and xi): coeff}."""
        lo, hi, low = d << TD_SHIFT, (d + 1) << TD_SHIFT, (1 << T_SHIFT) - 1
        out: dict[int, dict[int, int]] = {}
        for k, c in self.terms.items():
            if lo <= k < hi:
                rest = k & low
                out.setdefault(k - rest, {})[rest] = c
        return out

    def t_truncate(self, tmax: int | None) -> "SparsePoly":
        if tmax is None:
            return self
        limit = (tmax + 1) << TD_SHIFT
        return SparsePoly({k: c for k, c in self.terms.items() if k < limit}, _trusted=True)

    def xi_slice(self, d: int) -> "SparsePoly":
        mask, want = _FIELD << XI_SHIFT, d << XI_SHIFT
        return SparsePoly({k: c for k, c in self.terms.items() if k & mask == want},
                          _trusted=True)

    def coefficient(self, x: tuple[int, ...] = (), t: tuple[int, ...] = (),
                    xi: int = 0) -> int:
        try:
            return self.terms.get(_pack(x, t, xi), 0)
        except (ResourceCapError, ValueError):
            return 0  # a monomial that cannot be stored has no term here

    def t_coefficient(self, t: tuple[int, ...]) -> "SparsePoly":
        """The polynomial in x and xi multiplying an exact T-monomial."""
        hi, low = _pack((), t, 0) >> T_SHIFT, (1 << T_SHIFT) - 1
        return SparsePoly({k & low: c for k, c in self.terms.items() if k >> T_SHIFT == hi},
                          _trusted=True)

    # -- decoded views ----------------------------------------------------

    def _decoded(self, decode) -> Iterator[tuple[Monomial, int]]:
        """Terms in ascending packed-key order, a function of the value only,
        with each distinct x-part and T-part decoded once, in one memo."""
        seen: dict[int, tuple] = {}
        for k, c in sorted(self.terms.items()):
            xp, tp = k & _PART, (k >> T_SHIFT) & _PART
            if xp not in seen:
                seen[xp] = decode(xp)
            if tp not in seen:
                seen[tp] = decode(tp)
            yield (seen[xp], seen[tp], (k >> XI_SHIFT) & _FIELD), c

    def exponent_items(self) -> Iterator[tuple[Monomial, int]]:
        """Terms as ((x, t, xi), coeff) with trimmed exponent tuples, in ascending
        packed-key order (total T-degree, then T-part, xi, x-part)."""
        return self._decoded(_unpack)

    def multiset_items(self) -> Iterator[tuple[Monomial, int]]:
        """Terms as ((eta, levels, xi), coeff): the x and T parts as sorted index
        multisets (x1^2*x3 gives (1, 1, 3)), in the order of exponent_items."""
        return self._decoded(_unpack_multiset)

    # -- presentation -----------------------------------------------------

    def _graded_rows(self) -> list[tuple[int, _Part, _Part, int]]:
        """Terms in graded order as the rows (coeff, x-part, T-part, xi) of
        ``Terms``.  Each distinct half of an x-part (fields 1-3 or 4-9) is
        rendered once per call, and each half of a T-part apart from them (x1
        and T1 are the same part integer); a part is two half reads and a
        join.  Its rank is one int, its degree above the complement of its
        reversed fields, which orders equal degrees dominance-descending, and
        a term's sort key is one int of its xi, T-rank and x-rank."""
        ranked = []
        for shift, name in ((0, "x"), (T_SHIFT, "T")):
            parts = {(k >> shift) & _PART for k in self.terms}
            lows = {lo: _half(lo, 1, name) for lo in {p & _LOW for p in parts}}
            highs = {hi: _half(hi, 4, name) for hi in {p >> _LOW_BITS for p in parts}}
            ranks = {}
            for p in parts:
                ltext, lmembers, lrev, ldeg = lows[p & _LOW]
                htext, hmembers, hrev, hdeg = highs[p >> _LOW_BITS]
                text = f"{ltext}*{htext}" if ltext and htext else ltext or htext
                ranks[p] = ((ldeg + hdeg) << _PART_BITS | (_PART - lrev - hrev),
                            _Part(p, text, lmembers + hmembers))
            ranked.append(ranks)
        xs, ts = ranked
        rows = {}
        for k, c in self.terms.items():
            xrank, xpart = xs[k & _PART]
            trank, tpart = ts[(k >> T_SHIFT) & _PART]
            xi = (k >> XI_SHIFT) & _FIELD
            rows[(xi << _RANK_BITS | trank) << _RANK_BITS | xrank] = c, xpart, tpart, xi
        return [rows[key] for key in sorted(rows)]

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms as ((x, t, xi), coeff) in graded order: by xi degree, then
        T-part, then x-part, each part by total degree and dominance-descending
        within it (x1 before x2); the order of to_text and to_json_obj."""
        return [((xpart.exps, tpart.exps, xi), c) for c, xpart, tpart, xi in self._graded_rows()]

    def __repr__(self) -> str:
        return f"SparsePoly({self.to_text()})"

    def render(self) -> tuple[str, dict]:
        """(to_text(), to_json_obj()) from one sorted pass over the terms."""
        rows = self._graded_rows()
        return _text(rows), {"terms": Terms(rows)}

    def to_text(self) -> str:
        """The canonical text form, terms in sorted_terms order."""
        return _text(self._graded_rows())

    def to_json_obj(self) -> dict:
        """{"terms": Terms}, the terms in sorted_terms order as a row table that
        reads as a list of fresh {"coeff", "x", "T", "xi"} dicts, exponents
        keyed by variable index; the report encoder writes it without
        building them."""
        return {"terms": Terms(self._graded_rows())}

    @staticmethod
    def _accumulate(out: dict[int, int], xd: dict, td: dict, xi: int, coeff: int) -> None:
        for name, d in (("x", xd), ("T", td)):
            if min(d, default=1) < 1:
                raise ValueError(f"variable index must be >= 1, got {name}{min(d)}")
        x = (xd.get(i, 0) for i in range(1, max(xd, default=0) + 1))
        t = [td.get(l, 0) for l in range(1, max(td, default=0) + 1)]
        k = _pack(x, t, xi)
        c = out.get(k, 0) + coeff
        if c:
            out[k] = c
        else:
            out.pop(k, None)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SparsePoly":
        out: dict[int, int] = {}
        for term in obj["terms"]:
            xd = {int(i): int(e) for i, e in term.get("x", {}).items()}
            td = {int(l): int(e) for l, e in term.get("T", {}).items()}
            cls._accumulate(out, xd, td, int(term.get("xi", 0)), int(term["coeff"]))
        return cls(out, _trusted=True)

    _FACTOR_RE = re.compile(r"^(x|T)(\d+)(?:\^(\d+))?$|^(xi)(?:\^(\d+))?$|^(\d+)$")

    @classmethod
    def parse(cls, text: str) -> "SparsePoly":
        """Parse the canonical text form, e.g. ``1 - x1*x2*x3*T1*T2``."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        s = s.replace("-", "+-")
        out: dict[int, int] = {}
        for chunk in s.split("+"):
            chunk = chunk.strip()
            if not chunk:
                continue
            coeff = -1 if chunk.startswith("-") else 1
            chunk = chunk.lstrip("-").strip()
            if not chunk:
                raise ValueError(f"dangling sign in {text!r}")
            xd: dict[int, int] = {}
            td: dict[int, int] = {}
            xi = 0
            for factor in chunk.split("*"):
                m = cls._FACTOR_RE.match(factor.strip())
                if not m:
                    raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
                if m.group(6) is not None:
                    coeff *= int(m.group(6))
                elif m.group(4) is not None:
                    xi += int(m.group(5) or 1)
                else:
                    d = xd if m.group(1) == "x" else td
                    idx = int(m.group(2))
                    d[idx] = d.get(idx, 0) + int(m.group(3) or 1)
            cls._accumulate(out, xd, td, xi, coeff)
        return cls(out, _trusted=True)


# -- isobaric operators -----------------------------------------------------


def _pair_shifts(i: int) -> tuple[int, int]:
    """Bit offsets of the x_i and x_{i+1} fields."""
    if i < 1:
        raise IndexError(f"operator index must be >= 1, got {i}")
    if i >= NVARS:
        raise ResourceCapError(f"operator index {i} needs x{i + 1}, past x{NVARS}")
    return (i - 1) * FIELD_BITS, i * FIELD_BITS


@lru_cache(maxsize=1 << 14)
def _dd_pair(i: int, a: int, b: int, da: int) -> tuple[int, tuple[int, ...]]:
    """divided_difference on x_i^(a + da) x_{i+1}^b as a sign and packed
    offsets relative to x_i^a x_{i+1}^b: the sign times the sum over the
    offsets of that monomial times x^offset."""
    sa, sb = _pair_shifts(i)
    pair, a = (a << sa) + (b << sb), a + da
    if a > b:
        return 1, tuple(((b + u) << sa) + ((a - 1 - u) << sb) - pair for u in range(a - b))
    return -1, tuple(((a + u) << sa) + ((b - 1 - u) << sb) - pair for u in range(b - a))


def _apply_pair_table(sources: Iterable[tuple[dict[int, int], int, int]], i: int,
                      da: int, out: dict[int, int] | None = None) -> dict[int, int]:
    """out (None: a new dict) plus the sum over sources (terms, m, fields) of
    the terms times the monomial m, each term x_i^a x_{i+1}^b * rest replaced
    by the divided difference of x_i^(a + da) x_{i+1}^b, times rest.  fields
    masks every field m moves outside the pair (0 when m is 1).

    A key's row (``_dd_pair``) is read relative to the key, memoised per shift
    and per masked key part (the pair and the fields).  A shift that carries
    a field past MAX_EXP raises ResourceCapError when its row is made."""
    sa, sb = _pair_shifts(i)
    pair_mask = (_FIELD << sa) | (_FIELD << sb)
    memo: dict[int, dict] = {}  # m -> masked part -> row
    out = {} if out is None else out
    get = out.get
    for terms, m, fields in sources:
        mask, rows = pair_mask | fields, memo.setdefault(m, {})
        for k, c in terms.items():
            q = k & mask
            row = rows.get(q)
            if row is None:
                t = q + m
                _checked(t)
                row = _dd_pair(i, (t >> sa) & _FIELD, (t >> sb) & _FIELD, da)
                if m:
                    row = row[0], tuple([m + off for off in row[1]])
                rows[q] = row
            sign, offsets = row
            if sign < 0:
                c = -c
            for off in offsets:
                key = k + off
                s = get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def _xi_sources(i: int, sources: list[dict[int, int]]) -> list[tuple[dict[int, int], int, int]]:
    """The pair-table sources of xi * x_{i+1} times each term dict of sources,
    the second half of pi_xi."""
    return [(terms, (1 << _pair_shifts(i)[1]) + (1 << XI_SHIFT), _FIELD << XI_SHIFT)
            for terms in sources]


def divided_difference(i: int, f: SparsePoly) -> SparsePoly:
    """(f - s_i f) / (x_i - x_{i+1}), computed without any division."""
    return SparsePoly(_apply_pair_table([(f.terms, 0, 0)], i, 0), _trusted=True)


def pi(i: int, f: SparsePoly, *more: SparsePoly) -> SparsePoly:
    """The idempotent isobaric operator: divided_difference(i, x_i * f).
    pi(i, f, g, ...) is pi of f + g + ..., read from the summands (pi is
    linear), so the sum is never built."""
    return SparsePoly(_apply_pair_table([(g.terms, 0, 0) for g in (f, *more)], i, 1),
                      _trusted=True)


def pi_xi(i: int, f: SparsePoly, *more: SparsePoly) -> SparsePoly:
    """The xi-deformed operator: pi(i, (1 + xi x_{i+1}) f), and of a sum of
    summands as pi: pi of the summands, then pi of each summand shifted by
    xi x_{i+1} added into the same dict."""
    out = pi(i, f, *more)
    _apply_pair_table(_xi_sources(i, [g.terms for g in (f, *more)]), i, 1, out.terms)
    return out


def pi_word(word: Iterable[int], f: SparsePoly, xi_mode: bool = False) -> SparsePoly:
    """Compose operators along a word, rightmost letter applied first."""
    op = pi_xi if xi_mode else pi
    for i in reversed(tuple(word)):
        f = op(i, f)
    return f


# -- truncated products and quotients ------------------------------------------


def _monomial_factors(factors: Iterable[SparsePoly]) -> list[tuple[int, int, int]]:
    """Each factor c*m as (packed m, c, T-degree of m).  A factor must be a
    single monomial of T-degree >= 1 (otherwise a truncation would not
    determine the expansion)."""
    out = []
    for fac in factors:
        if len(fac.terms) != 1:
            raise ValueError(f"factor is not a monomial: {fac!r}")
        ((m, coeff),) = fac.terms.items()
        if m >> TD_SHIFT < 1:
            raise ValueError(f"factor monomial has no T part: {fac!r}")
        out.append((m, coeff, m >> TD_SHIFT))
    return out


def _staged_count(fixed: dict[int, int], deltas: list[dict[int, int]]) -> int:
    """Terms of fixed plus the deltas, counted exactly: a delta's key adds a
    term unless fixed holds it, and removes one where the two cancel."""
    held, get = len(fixed), fixed.get
    for delta in deltas:
        for k, c in delta.items():
            f = get(k)
            held += 1 if f is None else -(f + c == 0)
    return held


def _levelled_pass(deltas: list[dict[int, int]], shifts: list[tuple[int, int, int]],
                   ascending: bool, base: Sequence[dict[int, int]] = (),
                   fixed: dict[int, int] | None = None, max_terms: int | None = None) -> None:
    """One pass per factor c*m of shifts over the T-degree levels 0..D of a
    staged product, D = len(deltas) - 1: add c*m times each source level to
    the level td(m) above it.  Level d is base[d] + deltas[d] (base is empty
    past its length); base is read only, and every update goes into deltas.
    Ascending, each source has already taken its own update, so the pass
    divides by 1 - c*m; descending, none has, so it multiplies by 1 + c*m.

    A shift is guarded in O(1) by a per-level bound, a key with no guard bit
    whose every field is at least that field of every key level d has held:
    the OR of the level's keys to start with, then ORed with bound[s] + m
    for each shift from level s into it.  A bound + m with no guard bit
    proves that no shifted key passes MAX_EXP; only when the bit is set are
    the shifted keys themselves checked, and their OR is what the bound takes.

    The staged product holds the terms of fixed (a dict holding base, or
    none) plus the deltas; past max_terms (None: no cap) the pass raises
    ResourceCapError."""
    D = len(deltas) - 1
    levels = [(base[d], deltas[d]) if d < len(base) else (deltas[d],) for d in range(D + 1)]
    bound = [reduce(or_, (reduce(or_, src, 0) for src in level)) for level in levels[:D]] + [0]
    fixed = {} if fixed is None else fixed
    held = len(fixed) + sum(map(len, deltas))
    for m, coeff, td in shifts:
        for s in range(D + 1 - td) if ascending else range(D - td, -1, -1):
            reach = bound[s] + m
            if reach & _GUARD:  # the bound is loose: check the shifted keys
                reach = reduce(or_, (reduce(or_, map(m.__add__, src), 0) for src in levels[s]))
                _checked(reach)
            bound[s + td] |= reach
            dst = deltas[s + td]
            held -= len(dst)
            for src in levels[s]:
                if src:
                    _add_shifted(dst, src, m, coeff)
            held += len(dst)
            if max_terms is not None and held > max_terms and (
                    _staged_count(fixed, deltas) > max_terms):
                raise ResourceCapError(f"a series product passed max_terms={max_terms} terms")


def _binomial_pass(f: SparsePoly, shifts: list[tuple[int, int, int]], D: int,
                   ascending: bool, max_terms: int | None = None) -> SparsePoly:
    """f times or divided by the binomials of shifts, truncated past T-degree
    D: the levelled pass on f's levels, which are then merged."""
    levels = _levels(f.terms, D)
    _levelled_pass(levels, shifts, ascending, max_terms=max_terms)
    top = levels.pop()
    for level in levels:
        top.update(level)
    return SparsePoly(top, _trusted=True)


def series_quotient(f: SparsePoly, factors: Iterable[SparsePoly], D: int) -> SparsePoly:
    """f / prod over factors (1 - c*m), truncated past total T-degree D.

    Every factor c*m must be a single monomial of T-degree >= 1.  Dividing by
    one factor needs no product: g = f + c*m*g, filled in ascending T-degree
    (Knuth, TAOCP vol. 2, section 4.7), one dict update per term.
    """
    if D < 0:
        raise ValueError(f"truncation degree must be >= 0, got {D}")
    # a term past T-degree MAX_EXP + 1 is never formed: one there already overflows
    return _binomial_pass(f, _monomial_factors(factors), min(D, MAX_EXP + 1), True)


def series_product(f: SparsePoly, factors: Iterable[SparsePoly], D: int | None,
                   max_terms: int | None = None) -> SparsePoly:
    """f * prod over factors (1 + c*m), truncated past total T-degree D (None: exact).

    The mirror of ``series_quotient``, with the same single-monomial factors:
    the same pass, highest source level first, so no product is ever built.
    A product that comes to hold more than max_terms terms on the way raises
    ResourceCapError.
    """
    if D is not None and D < 0:
        raise ValueError(f"truncation degree must be >= 0, got {D}")
    shifts = _monomial_factors(factors)
    exact = f.t_degree() + sum(td for _, _, td in shifts)
    return _binomial_pass(f, shifts, exact if D is None else min(D, exact), False, max_terms)


def pi_product(i: int, f: SparsePoly, shifts: list[tuple[int, int, int]], D: int,
               xi_mode: bool, low: int, max_terms: int | None = None,
               support: frozenset[int] | None = None) -> tuple[SparsePoly, dict[int, int]]:
    """pi_i (pi_xi_i) of f times the binomials 1 + c*m of shifts ((packed m,
    c, T-degree of m) with T-degree >= 1), truncated past T-degree D, where f
    holds no term past D; and the terms of that value below T-degree low.
    Given a support, a divisor-closed set of T-parts ``key >> T_SHIFT`` that
    holds those of f's terms, the value is projected onto it: the deltas keep
    only their keys inside it, so pi reads no other term (pi keeps each
    term's T-part).  A shift outside it adds nothing that is kept, so the
    caller leaves it out.

    The product is never built and f's dict is never copied.  One
    comprehension takes f's levels below max(D, low) (on CPython 3.11 it is
    twice as fast as ``filter(limit.__gt__, ...)``); the levelled pass reads
    them and adds the factors' updates into per-level deltas; the pair table
    reads f and then each delta into one dict, as pi is linear.  The value's
    terms below low are pi of f's and the deltas' levels below low alone, as
    pi keeps the T-degree.  A product of more than max_terms terms raises
    ResourceCapError."""
    if D < 0:
        raise ValueError(f"truncation degree must be >= 0, got {D}")
    terms = f.terms
    top = max(D, low)
    base: list[dict[int, int]] = [{} for _ in range(top)]
    limit = top << TD_SHIFT
    for k in [k for k in terms if k < limit]:
        base[k >> TD_SHIFT][k] = terms[k]
    deltas: list[dict[int, int]] = [{} for _ in range(D + 1)]
    _levelled_pass(deltas, shifts, False, base, terms, max_terms)
    if support is not None:
        deltas = [{k: c for k, c in d.items() if k >> T_SHIFT in support} for d in deltas]
    op = pi_xi if xi_mode else pi
    out = op(i, f, *(SparsePoly(delta, _trusted=True) for delta in deltas))
    lows = base[:low] + deltas[:low]
    sources = [(terms, 0, 0) for terms in lows] + (_xi_sources(i, lows) if xi_mode else [])
    return out, _apply_pair_table(sources, i, 1)


def series_inverse_product(factors: Iterable[SparsePoly], D: int) -> SparsePoly:
    """prod over factors of 1/(1 - m), truncated past total T-degree D."""
    return series_quotient(SparsePoly.one(), factors, D)
